//! Regenerate Figure 5 of the paper: execution time of the two benchmark phases for
//! every tool variant, as a function of the graph scale factor.
//!
//! ```text
//! cargo run -p bench --release --bin figure5 -- [--query q1|q2|both] \
//!     [--phase initial|update|both] [--max-sf 64] [--runs 3] [--json out.json]
//! ```
//!
//! The output is one table per (query, phase) combination with a row per scale factor
//! and a column per tool — the same series the paper plots on log–log axes. Absolute
//! times differ from the paper (different hardware, different GraphBLAS
//! implementation); the qualitative shape is what the reproduction targets (see
//! EXPERIMENTS.md).

use std::collections::BTreeMap;

use bench::args::Cli;
use bench::{measure_workload, ToolVariant, FIGURE5_VARIANTS};
use datagen::generate_scale_factor;
use ttc_social_media::model::Query;

struct Args {
    queries: Vec<Query>,
    phases: Vec<String>,
    max_scale_factor: u64,
    runs: usize,
    json_path: Option<String>,
}

/// Accepted flags with the help line printed for each; the parser, `--help` and the
/// CLI test in `tests/cli_help.rs` both enumerate this surface.
const FLAGS: &[(&str, &str)] = &[
    ("--query", "q1, q2 or both (default both)"),
    ("--phase", "initial, update or both (default both)"),
    ("--max-sf", "largest scale factor of the sweep (default 64)"),
    (
        "--runs",
        "repetitions per measurement, geometric mean (default 3)",
    ),
    ("--json", "also write the measurements to this JSON file"),
    ("--help", "print this help"),
];

fn parse_args() -> Args {
    let mut args = Args {
        queries: vec![Query::Q1, Query::Q2],
        phases: vec!["initial".to_string(), "update".to_string()],
        max_scale_factor: 64,
        runs: 3,
        json_path: None,
    };
    let about = "phase execution times per tool variant and scale factor (paper Fig. 5)";
    let mut cli = Cli::from_env("figure5", about, FLAGS);
    while let Some(flag) = cli.next_flag() {
        match flag {
            "--query" => {
                args.queries = match cli.value(flag).to_lowercase().as_str() {
                    "q1" => vec![Query::Q1],
                    "q2" => vec![Query::Q2],
                    _ => vec![Query::Q1, Query::Q2],
                };
            }
            "--phase" => {
                args.phases = match cli.value(flag).to_lowercase().as_str() {
                    "initial" => vec!["initial".to_string()],
                    "update" => vec!["update".to_string()],
                    _ => vec!["initial".to_string(), "update".to_string()],
                };
            }
            "--max-sf" => args.max_scale_factor = cli.parsed(flag),
            "--runs" => args.runs = cli.parsed(flag),
            "--json" => args.json_path = Some(cli.value(flag)),
            other => unreachable!("{other} is in FLAGS but has no handler"),
        }
    }
    args
}

fn scale_factors(max: u64) -> Vec<u64> {
    let mut sf = 1;
    let mut out = Vec::new();
    while sf <= max {
        out.push(sf);
        sf *= 2;
    }
    out
}

fn main() {
    let args = parse_args();
    let factors = scale_factors(args.max_scale_factor);

    println!(
        "Figure 5 reproduction — execution times [s], geometric mean of {} run(s)",
        args.runs
    );
    println!(
        "tools: {}",
        FIGURE5_VARIANTS
            .iter()
            .map(|v| v.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    // measurements[(query, phase, variant, sf)] = seconds
    let mut measurements: BTreeMap<(String, String, String, u64), f64> = BTreeMap::new();

    for &sf in &factors {
        eprintln!("generating workload for scale factor {sf}...");
        let workload = generate_scale_factor(sf);
        eprintln!(
            "  nodes = {}, edges = {}, inserts = {}",
            workload.initial.node_count(),
            workload.initial.edge_count(),
            workload.total_inserted_elements()
        );
        for &query in &args.queries {
            for &variant in FIGURE5_VARIANTS {
                // The batch NMF / GraphBLAS variants become very slow on large graphs
                // in the update phase (that is the point of the figure); cap the work
                // by skipping the largest factors for the batch baselines only if the
                // user asked for a huge sweep.
                eprintln!("  measuring {} / {query} ...", variant.label());
                let timings = measure_workload(variant, query, &workload, args.runs);
                measurements.insert(
                    (
                        query.to_string(),
                        "initial".into(),
                        variant.label().into(),
                        sf,
                    ),
                    timings.load_and_initial_secs,
                );
                measurements.insert(
                    (
                        query.to_string(),
                        "update".into(),
                        variant.label().into(),
                        sf,
                    ),
                    timings.update_and_reevaluation_secs,
                );
            }
        }
    }

    for &query in &args.queries {
        for phase in &args.phases {
            let phase_title = match phase.as_str() {
                "initial" => "Load and initial evaluation",
                _ => "Update and reevaluation",
            };
            println!("## {query} — {phase_title}");
            println!();
            print!("{:>6}", "sf");
            for variant in FIGURE5_VARIANTS {
                print!(" | {:>36}", variant.label());
            }
            println!();
            for &sf in &factors {
                print!("{sf:>6}");
                for variant in FIGURE5_VARIANTS {
                    let key = (
                        query.to_string(),
                        phase.clone(),
                        variant.label().to_string(),
                        sf,
                    );
                    let secs = measurements.get(&key).copied().unwrap_or(f64::NAN);
                    print!(" | {secs:>36.6}");
                }
                println!();
            }
            println!();
        }
    }

    if let Some(path) = args.json_path {
        let rows: Vec<serde_json::Value> = measurements
            .iter()
            .map(|((query, phase, tool, sf), secs)| {
                serde_json::json!({
                    "query": query,
                    "phase": phase,
                    "tool": tool,
                    "scale_factor": sf,
                    "seconds": secs,
                })
            })
            .collect();
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&rows).expect("serialisable"),
        )
        .expect("write json output");
        eprintln!("wrote {path}");
    }

    let _ = ToolVariant::GraphBlasIncrementalCc; // documented extra variant (see ablation bench)
}
