//! Regenerate Table II of the paper: the number of nodes, edges and inserted elements
//! of the benchmark graph at every scale factor, for the synthetic workloads this
//! repository generates, next to the values the paper reports.
//!
//! ```text
//! cargo run -p bench --release --bin table2 -- [--max-sf 1024]
//! ```

use bench::args::Cli;
use datagen::{generate_scale_factor, PAPER_TABLE2};

/// Accepted flags with the help line printed for each; the parser, `--help` and the
/// CLI test in `tests/cli_help.rs` both enumerate this surface.
const FLAGS: &[(&str, &str)] = &[
    ("--max-sf", "largest scale factor to generate (default 64)"),
    ("--help", "print this help"),
];

fn parse_max_sf() -> u64 {
    let about = "benchmark graph sizes per scale factor vs. the paper (Table II)";
    let mut cli = Cli::from_env("table2", about, FLAGS);
    let mut max = 64;
    while let Some(flag) = cli.next_flag() {
        match flag {
            "--max-sf" => max = cli.parsed(flag),
            other => unreachable!("{other} is in FLAGS but has no handler"),
        }
    }
    max
}

fn main() {
    let max_sf: u64 = parse_max_sf();

    println!("Table II reproduction — graph sizes w.r.t. the scale factor");
    println!(
        "{:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>10}",
        "sf", "#nodes", "(paper)", "#edges", "(paper)", "#inserts", "(paper)"
    );
    println!("{}", "-".repeat(88));

    let mut sf = 1u64;
    while sf <= max_sf {
        let workload = generate_scale_factor(sf);
        let nodes = workload.initial.node_count();
        let edges = workload.initial.edge_count();
        let inserts = workload.total_inserted_elements();

        let paper = PAPER_TABLE2.iter().find(|row| row.0 == sf);
        let (paper_nodes, paper_edges, paper_inserts) = match paper {
            Some(&(_, n, e, i)) => (n.to_string(), e.to_string(), i.to_string()),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };

        println!(
            "{:>6} | {:>12} {:>12} | {:>12} {:>12} | {:>10} {:>10}",
            sf, nodes, paper_nodes, edges, paper_edges, inserts, paper_inserts
        );
        sf *= 2;
    }
}
