//! `ttc_bench` — the repository's one benchmark.
//!
//! Seven named, seeded workloads drive the system's three engines and the
//! paper's two-phase protocol. A *timed pass* (tracing off) reports the
//! end-to-end metrics; a separate *traced pass* re-executes the workload's
//! dataflow step by step from this crate, timing the calls into each module's
//! public functions to attribute batch time to layers. Every per-batch result
//! of either pass is checked against an independent reference.
//!
//! See `benchmark/README.md` for the tables; `ttc_bench --help` prints them
//! from the same source (`tables.rs`) that renders `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod cli;
mod host;
mod input;
mod pacing;
mod report;
mod run;
mod spec;
mod stats;
mod tables;
mod timed;
mod trace;
mod traced;
mod verify;

use std::process::ExitCode;

use cli::Command;

/// Exit codes: 0 success, 1 a run failed or a result was wrong, 2 usage.
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("ttc_bench: {message} (try --help)");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.command {
        Command::Help => {
            print!("{}", cli::help());
            Ok(true)
        }
        Command::Manifest => {
            let text = serde_json::to_string_pretty(&tables::manifest())
                .expect("rendering JSON never fails");
            println!("{text}");
            Ok(true)
        }
        // the driver reads `correct` from the last line; a wrong result is
        // reported there, not through the exit code
        Command::Run => run::run(&args).map(|outcome| {
            println!("{}", outcome.row);
            println!("{}", outcome.contract);
            true
        }),
        Command::Verify => run::verify_only(&args).map(|tally| {
            for note in &tally.notes {
                eprintln!("MISMATCH {note}");
            }
            println!(
                "{} of {} results differ from the reference",
                tally.failed, tally.attempted
            );
            tally.correct()
        }),
        Command::All => report::all(&args),
        Command::Compare => report::compare(&args.files[0], &args.files[1]),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ttc_bench: {message}");
            ExitCode::FAILURE
        }
    }
}
