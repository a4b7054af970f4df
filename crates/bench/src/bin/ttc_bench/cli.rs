//! The checked command line: one small parser for every subcommand. An
//! unknown flag, a missing value or a garbage value is a usage error (exit 2)
//! with a hint, never a panic.

use std::path::PathBuf;

use crate::tables::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    Run,
    All,
    Verify,
    Compare,
    Manifest,
    Help,
}

const COMMANDS: &[(&str, Command, &str)] = &[
    ("run", Command::Run, "one workload, one pass; the last stdout line is the contract's JSON object"),
    ("all", Command::All, "every workload as child processes: --reps timed passes + one traced pass each, medians with min/max"),
    ("verify", Command::Verify, "only the reference comparison of one workload"),
    ("compare", Command::Compare, "A.json B.json: per (workload, metric) median ratio with its base and a verdict"),
    ("manifest", Command::Manifest, "print BENCHMARK.json as rendered from the metric tables"),
    ("help", Command::Help, "this text"),
];

/// `(flag, value placeholder or "" for a switch, accepted by, help)`.
const FLAGS: &[(&str, &str, &[Command], &str)] = &[
    (
        "--workload",
        "NAME",
        &[Command::Run, Command::Verify, Command::All],
        "workload to run (all: restrict to it)",
    ),
    (
        "--seed",
        "N",
        &[Command::Run, Command::Verify, Command::All],
        "seed of the update stream drawn over the spec's network (default 42)",
    ),
    (
        "--seconds",
        "S",
        &[Command::Run, Command::All],
        "timed-pass budget: repetitions are added while they fit (default run_seconds)",
    ),
    (
        "--trace",
        "0|1",
        &[Command::Run],
        "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics (default 0)",
    ),
    (
        "--reps",
        "R",
        &[Command::All],
        "timed child processes per workload (default 3)",
    ),
    (
        "--specs",
        "DIR",
        &[Command::Run, Command::Verify, Command::All],
        "workload spec directory (default benchmark/workloads)",
    ),
    (
        "--out",
        "DIR",
        &[Command::Run, Command::All],
        "where trace JSONL and result files go (default target/benchmark)",
    ),
    (
        "--smoke",
        "",
        &[Command::Run, Command::Verify, Command::All],
        "shrink every workload to sf1 / 40 batches",
    ),
];

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub command: Command,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub reps: usize,
    pub specs: PathBuf,
    pub out: PathBuf,
    pub smoke: bool,
    /// Positional operands (`compare` takes two result files).
    pub files: Vec<String>,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} expects {what}, got `{value}`"))
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let (command, rest) = match argv.first().map(String::as_str) {
        None | Some("--help" | "-h") => (Command::Help, &argv[argv.len().min(1)..]),
        // the contract form has no subcommand: `--workload … --seed … --seconds … --trace …`
        Some(first) if first.starts_with("--") => (Command::Run, argv),
        Some(first) => match COMMANDS.iter().find(|(name, ..)| *name == first) {
            Some(&(_, command, _)) => (command, &argv[1..]),
            None => return Err(format!("unknown command `{first}`")),
        },
    };
    let mut args = Args {
        command,
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        reps: 3,
        specs: PathBuf::from("benchmark/workloads"),
        out: PathBuf::from("target/benchmark"),
        smoke: false,
        files: Vec::new(),
    };
    let mut i = 0;
    while i < rest.len() {
        let token = rest[i].as_str();
        i += 1;
        if token == "--help" || token == "-h" {
            args.command = Command::Help;
            return Ok(args);
        }
        if !token.starts_with("--") {
            if command != Command::Compare {
                return Err(format!("unexpected operand `{token}`"));
            }
            args.files.push(token.to_string());
            continue;
        }
        let Some(&(flag, placeholder, accepted, _)) = FLAGS.iter().find(|(f, ..)| *f == token)
        else {
            return Err(format!("unknown flag `{token}`"));
        };
        if !accepted.contains(&command) {
            return Err(format!("{flag} does not apply to this command"));
        }
        if placeholder.is_empty() {
            args.smoke = true;
            continue;
        }
        let Some(value) = rest.get(i).map(String::as_str) else {
            return Err(format!("{flag} expects a value ({placeholder})"));
        };
        i += 1;
        match flag {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!("unknown workload `{value}` ({})", names.join("|")));
                }
                args.workload = Some(value.to_string());
            }
            "--seed" => args.seed = number(flag, value, "a non-negative integer")?,
            "--seconds" => {
                args.seconds = number(flag, value, "a number of seconds")?;
                if !args.seconds.is_finite() || args.seconds < 0.0 {
                    return Err(format!("--seconds expects a number >= 0, got `{value}`"));
                }
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got `{value}`")),
                }
            }
            "--reps" => {
                args.reps = number(flag, value, "an integer >= 1")?;
                if args.reps == 0 {
                    return Err("--reps expects an integer >= 1".to_string());
                }
            }
            "--specs" => args.specs = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            _ => unreachable!("every valued flag of FLAGS is matched above"),
        }
    }
    match command {
        Command::Run | Command::Verify if args.workload.is_none() => {
            Err("--workload is required".to_string())
        }
        Command::Compare if args.files.len() != 2 => {
            Err("compare expects two result files: A.json B.json".to_string())
        }
        _ => Ok(args),
    }
}

pub fn help() -> String {
    let mut out = String::from(
        "ttc_bench — the repo's one benchmark: seeded workloads, paper phases + stream/serve \
         metrics, per-layer attribution from outside\n\nusage: ttc_bench <command> [flags]\n\ncommands:\n",
    );
    for (name, _, text) in COMMANDS {
        out.push_str(&format!("  {name:<10} {text}\n"));
    }
    out.push_str("\nflags:\n");
    for (flag, placeholder, _, text) in FLAGS {
        out.push_str(&format!(
            "  {:<18} {text}\n",
            format!("{flag} {placeholder}")
        ));
    }
    out.push_str("\nworkloads:\n");
    for w in WORKLOADS {
        out.push_str(&format!("  {:<16} {}\n", w.name, w.why));
    }
    out.push_str("\nend-to-end metrics (timed pass, --trace 0):\n");
    for m in END_TO_END {
        let loose: String = m
            .loose
            .iter()
            .map(|(w, bound)| format!(", {:.0}% on {w}", bound * 100.0))
            .collect();
        out.push_str(&format!(
            "  {:<18} {:<6} {} is better, bound {:.0}%{loose}: {}\n",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.meaning
        ));
    }
    out.push_str("\nper-layer metrics (traced pass, --trace 1; 0 where a workload does not run the layer):\n");
    for m in PER_LAYER {
        out.push_str(&format!("  {:<40} {:<6} {}\n", m.name, m.unit, m.source));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    #[test]
    fn contract_form_is_a_run() {
        let args = parse_str("--workload q1_stream --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(args.command, Command::Run);
        assert_eq!(args.workload.as_deref(), Some("q1_stream"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert_eq!(
            parse_str("run --workload paper_q2").expect("valid").seed,
            42
        );
    }

    #[test]
    fn usage_errors_carry_a_hint_and_never_panic() {
        for (line, hint) in [
            ("run --workload", "expects a value"),
            ("run --workload q1_stream --seed", "expects a value"),
            ("run --workload q1_stream --seed banana", "got `banana`"),
            ("run --workload q1_stream --trace 2", "0 or 1"),
            ("run --workload q1_stream --seconds -1", ">= 0"),
            ("run --workload nope", "unknown workload"),
            ("run --workload q1_stream --frobnicate", "unknown flag"),
            ("run", "--workload is required"),
            ("run --workload q1_stream --reps 3", "does not apply"),
            ("all --reps 0", ">= 1"),
            ("compare a.json", "two result files"),
            ("launch", "unknown command"),
            ("run stray", "unexpected operand"),
        ] {
            let err = parse_str(line).expect_err(line);
            assert!(err.contains(hint), "`{line}` gave `{err}`, wanted `{hint}`");
        }
    }

    #[test]
    fn help_lists_every_workload_and_metric() {
        assert_eq!(
            parse_str("").expect("no args is help").command,
            Command::Help
        );
        assert_eq!(
            parse_str("run --help").expect("help").command,
            Command::Help
        );
        let text = help();
        for w in WORKLOADS {
            assert!(text.contains(w.name));
        }
        for m in END_TO_END {
            assert!(text.contains(m.name));
        }
        for m in PER_LAYER {
            assert!(text.contains(m.name));
        }
    }
}
