//! Emit the per-iteration benchmark protocol of the original TTC 2018 framework as a
//! semicolon-separated table.
//!
//! The `figure5` binary aggregates each phase into a single geometric-mean number (the
//! series the paper plots); this binary instead mirrors the raw output format of the
//! contest's benchmark framework — one row per tool, query, changeset iteration, run
//! and metric — which is what the framework's R scripts consumed.
//!
//! ```text
//! cargo run -p bench --release --bin ttc_benchmark -- [--sf 4] [--runs 3] \
//!     [--query q1|q2|both] [--tools figure5|all]
//! ```
//!
//! Output columns: `Tool;View;ChangeSet;RunIndex;MetricName;MetricValue`, with the
//! metrics `Time` (seconds for the phase) and `Elements` (result string of the query
//! evaluation at that point). `ChangeSet` 0 is the load-and-initial-evaluation phase;
//! changeset `i ≥ 1` is the i-th update-and-reevaluation iteration.

use std::time::Instant;

use bench::args::Cli;
use bench::{build_solution, run_in_pool, ToolVariant, ALL_VARIANTS, FIGURE5_VARIANTS};
use datagen::generate_scale_factor;
use ttc_social_media::model::Query;

struct Args {
    scale_factor: u64,
    runs: usize,
    queries: Vec<Query>,
    tools: Vec<ToolVariant>,
}

/// Accepted flags with the help line printed for each; the parser, `--help` and the
/// CLI test in `tests/cli_help.rs` both enumerate this surface.
const FLAGS: &[(&str, &str)] = &[
    ("--sf", "scale factor of the generated network (default 4)"),
    ("--runs", "repetitions per (tool, query) pair (default 3)"),
    ("--query", "q1, q2 or both (default both)"),
    (
        "--tools",
        "figure5 (paper's tools) or all (default figure5)",
    ),
    ("--help", "print this help"),
];

fn parse_args() -> Args {
    let mut args = Args {
        scale_factor: 4,
        runs: 3,
        queries: vec![Query::Q1, Query::Q2],
        tools: FIGURE5_VARIANTS.to_vec(),
    };
    let about = "raw per-iteration protocol of the TTC 2018 benchmark framework";
    let mut cli = Cli::from_env("ttc_benchmark", about, FLAGS);
    while let Some(flag) = cli.next_flag() {
        match flag {
            "--sf" => args.scale_factor = cli.parsed(flag),
            "--runs" => args.runs = cli.parsed(flag),
            "--query" => {
                args.queries = match cli.value(flag).to_lowercase().as_str() {
                    "q1" => vec![Query::Q1],
                    "q2" => vec![Query::Q2],
                    _ => vec![Query::Q1, Query::Q2],
                };
            }
            "--tools" => {
                args.tools = match cli.value(flag).to_lowercase().as_str() {
                    "all" => ALL_VARIANTS.to_vec(),
                    _ => FIGURE5_VARIANTS.to_vec(),
                };
            }
            other => unreachable!("{other} is in FLAGS but has no handler"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let workload = generate_scale_factor(args.scale_factor);
    eprintln!(
        "scale factor {}: {} nodes, {} edges, {} changesets, {} inserted elements",
        args.scale_factor,
        workload.initial.node_count(),
        workload.initial.edge_count(),
        workload.changesets.len(),
        workload.total_inserted_elements()
    );

    println!("Tool;View;ChangeSet;RunIndex;MetricName;MetricValue");
    for &query in &args.queries {
        for &variant in &args.tools {
            for run in 0..args.runs.max(1) {
                run_in_pool(variant.thread_count(), || {
                    let mut solution = build_solution(variant, query);

                    let start = Instant::now();
                    let initial = solution.load_and_initial(&workload.initial);
                    let load_secs = start.elapsed().as_secs_f64();
                    println!(
                        "{};{};0;{};Time;{:.9}",
                        variant.label(),
                        query,
                        run,
                        load_secs
                    );
                    println!(
                        "{};{};0;{};Elements;{}",
                        variant.label(),
                        query,
                        run,
                        initial
                    );

                    for (index, changeset) in workload.changesets.iter().enumerate() {
                        let start = Instant::now();
                        let result = solution.update_and_reevaluate(changeset);
                        let secs = start.elapsed().as_secs_f64();
                        println!(
                            "{};{};{};{};Time;{:.9}",
                            variant.label(),
                            query,
                            index + 1,
                            run,
                            secs
                        );
                        println!(
                            "{};{};{};{};Elements;{}",
                            variant.label(),
                            query,
                            index + 1,
                            run,
                            result
                        );
                    }
                });
            }
        }
    }
}
