//! Read throughput of the epoch-published serving path under mixed load.
//!
//! Runs the pipelined engine with serving armed
//! ([`PipelinedEngine::serve_views`](ttc_social_media::PipelinedEngine::serve_views)) and drives a fleet of lock-free reader
//! threads against the published [`QueryView`](ttc_social_media::serve::QueryView) chain, following a named,
//! seeded, serializable workload description ([`bench::ServeWorkload`]:
//! reader count, read mix, arrival pattern). Each workload is measured in two
//! phases over the same wall-clock window:
//!
//! 1. **write-active** — readers poll while the engine applies and publishes
//!    every batch (the serving steady state);
//! 2. **read-only** — the run is over, the chain is frozen, and the same
//!    fleet replays the same operation sequences against the final views.
//!
//! Because readers take one atomic chain-step and then work on an immutable
//! snapshot, the two phases should sustain comparable read throughput — the
//! apply path never blocks readers. The printed `independence_ratio`
//! (write-active / read-only reads per second) is the figure the README's
//! serving table quotes; on a multi-core host it should sit within ~10% of
//! 1.0, while on a single-core container readers and the engine time-share
//! the CPU and the ratio mostly measures scheduler fairness.
//!
//! Prints one JSON row per workload (the embedded `workload` object is
//! re-parseable with [`bench::ServeWorkload::from_json`]), via the same
//! stable-field-order report layer as `stream_throughput`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::args::Cli;
use bench::report::{serve_phase_json, ServePhase};
use bench::{run_in_pool, ArrivalPattern, ReadOp, ServeWorkload};
use datagen::model::ElementId;
use datagen::stream::{StreamConfig, UpdateStream};
use datagen::{generate_scale_factor, SocialNetwork};
use serde_json::{json, Value};
use ttc_social_media::model::Query;
use ttc_social_media::pipeline::{IngestEngine, PipelineConfig, PipelinedEngine};
use ttc_social_media::shard::ShardBackend;
use ttc_social_media::ViewReader;

/// Accepted flags with the help line printed for each; the parser, `--help` and the
/// CLI test in `tests/cli_help.rs` both enumerate this surface.
const FLAGS: &[(&str, &str)] = &[
    ("--sf", "scale factor of the generated network (default 1)"),
    (
        "--batches",
        "measured micro-batches to stream (default 120)",
    ),
    ("--batch-size", "operations per micro-batch (default 64)"),
    ("--warmup", "warm-up batches before measurement (default 5)"),
    (
        "--seed",
        "seed of the generated network and stream (default 42)",
    ),
    (
        "--deletions",
        "like/friendship retraction weight (default 0.1)",
    ),
    ("--query", "q1 or q2 (default q1)"),
    (
        "--shards",
        "shard count of the pipelined engine (default 2)",
    ),
    (
        "--threads",
        "rayon threads for the initial load (default 2)",
    ),
    (
        "--workload",
        "named preset to run: scan-heavy, point-lookups, bursty-mixed, or all (default all)",
    ),
    ("--readers", "override the workload's reader count"),
    (
        "--smoke",
        "small fixed configuration for CI (sf1, one workload)",
    ),
    ("--help", "print this help"),
];

struct Args {
    scale_factor: u64,
    batches: usize,
    batch_size: usize,
    warmup: usize,
    seed: u64,
    deletions: f64,
    query: Query,
    shards: usize,
    threads: usize,
    workload: String,
    readers: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale_factor: 1,
        batches: 120,
        batch_size: 64,
        warmup: 5,
        seed: 42,
        deletions: 0.1,
        query: Query::Q1,
        shards: 2,
        threads: 2,
        workload: "all".to_string(),
        readers: None,
    };
    let about = "read throughput of the epoch-published serving path";
    let mut cli = Cli::from_env("serve_throughput", about, FLAGS);
    while let Some(flag) = cli.next_flag() {
        match flag {
            "--sf" => args.scale_factor = cli.parsed(flag),
            "--batches" => args.batches = cli.parsed(flag),
            "--batch-size" => args.batch_size = cli.parsed(flag),
            "--warmup" => args.warmup = cli.parsed(flag),
            "--seed" => args.seed = cli.parsed(flag),
            "--deletions" => args.deletions = cli.parsed(flag),
            "--query" => {
                args.query = match cli.value(flag).to_lowercase().as_str() {
                    "q1" => Query::Q1,
                    "q2" => Query::Q2,
                    other => cli.fail(flag, &format!("does not know the query `{other}`")),
                };
            }
            "--shards" => {
                args.shards = cli.parsed(flag);
                if args.shards == 0 {
                    cli.fail(flag, "expects an integer ≥ 1");
                }
            }
            "--threads" => args.threads = cli.parsed(flag),
            "--workload" => args.workload = cli.value(flag).to_lowercase(),
            "--readers" => args.readers = Some(cli.parsed(flag)),
            "--smoke" => {
                args.scale_factor = 1;
                args.batches = 16;
                args.batch_size = 16;
                args.warmup = 2;
                args.workload = "scan-heavy".to_string();
                args.readers = Some(2);
            }
            other => unreachable!("{other} is in FLAGS but has no handler"),
        }
    }
    args
}

/// What one reader accumulated over its measurement window.
struct ReaderTally {
    reads: u64,
    elapsed: Duration,
    max_epoch: u64,
    /// Folded view contents, kept so the reads cannot be optimized away.
    checksum: u64,
}

/// Run one reader until `stop` is set (or `window` elapses, whichever the
/// caller armed): replay the workload's seeded plan against the view chain,
/// pacing per the arrival pattern.
fn run_reader(
    mut reader: ViewReader,
    plan: Vec<ReadOp>,
    arrival: ArrivalPattern,
    users: Arc<Vec<ElementId>>,
    stop: Arc<AtomicBool>,
    window: Option<Duration>,
) -> ReaderTally {
    let start = Instant::now();
    let mut tally = ReaderTally {
        reads: 0,
        elapsed: Duration::ZERO,
        max_epoch: 0,
        checksum: 0,
    };
    'outer: loop {
        for (i, op) in plan.iter().enumerate() {
            // the stop flag is a relaxed load (cheap); the clock is checked
            // every 64 reads only — per-read `Instant::now` costs as much as
            // the read itself and would halve the measured throughput
            if stop.load(Ordering::Relaxed)
                || (tally.reads.is_multiple_of(64) && window.is_some_and(|w| start.elapsed() >= w))
            {
                break 'outer;
            }
            // one atomic chain-step, then every read below is on an immutable
            // snapshot — this is the entirety of the read path's overhead
            let view = reader.latest();
            tally.max_epoch = tally.max_epoch.max(view.epoch());
            let draw = tally.reads.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            tally.checksum ^= match op {
                ReadOp::TopK => view
                    .entries()
                    .iter()
                    .fold(view.result().len() as u64, |acc, e| {
                        acc.wrapping_add(e.score).rotate_left(7) ^ e.id
                    }),
                ReadOp::Standing => view
                    .entries()
                    .get(draw as usize % view.entries().len().max(1))
                    .and_then(|e| view.standing(e.id))
                    .map(|s| s.score.wrapping_add(s.rank.unwrap_or(0) as u64))
                    .unwrap_or(1),
                ReadOp::Component => users
                    .get(draw as usize % users.len().max(1))
                    .and_then(|&u| view.component_of(u))
                    .unwrap_or(2),
            };
            tally.reads += 1;
            match arrival {
                ArrivalPattern::Closed => {}
                ArrivalPattern::Uniform { gap_micros } => {
                    std::thread::sleep(Duration::from_micros(gap_micros));
                }
                ArrivalPattern::Burst { size, gap_micros } => {
                    if (i + 1) % (size as usize).max(1) == 0 {
                        std::thread::sleep(Duration::from_micros(gap_micros));
                    }
                }
            }
        }
    }
    tally.elapsed = start.elapsed();
    tally
}

/// Aggregate a fleet's tallies into the report block of one phase.
fn aggregate(tallies: Vec<ReaderTally>, write_active: bool) -> (ServePhase, u64) {
    let phase = ServePhase {
        readers: tallies.len(),
        write_active,
        reads: tallies.iter().map(|t| t.reads).sum(),
        elapsed_secs: tallies
            .iter()
            .map(|t| t.elapsed.as_secs_f64())
            .fold(0.0, f64::max),
        max_epoch: tallies.iter().map(|t| t.max_epoch).max().unwrap_or(0),
    };
    let checksum = tallies.iter().fold(0u64, |acc, t| acc ^ t.checksum);
    (phase, checksum)
}

/// The length of each reader's pre-drawn operation plan; readers cycle it.
const PLAN_LEN: usize = 1024;

fn measure_workload(args: &Args, network: &SocialNetwork, workload: &ServeWorkload) -> Value {
    let readers = args.readers.unwrap_or(workload.readers).max(1);
    let users: Arc<Vec<ElementId>> = Arc::new(network.users.iter().map(|u| u.id).collect());
    let mut stream = UpdateStream::new(
        network,
        StreamConfig {
            seed: args.seed,
            batch_size: args.batch_size,
            deletion_weight: args.deletions,
            shards: args.shards,
            ..StreamConfig::default()
        },
    );

    let mut engine = PipelinedEngine::graphblas(
        args.query,
        ShardBackend::Incremental,
        args.shards,
        PipelineConfig {
            warmup_batches: args.warmup,
            coalesce: true,
            ..PipelineConfig::default()
        },
    );
    let chain_head = engine.serve_views();

    // Phase 1 — write-active: the fleet polls while the engine applies and
    // publishes every batch. Readers start before the run and are stopped the
    // moment it returns, so their window is exactly the engine's window.
    let stop = Arc::new(AtomicBool::new(false));
    let (report, write_tallies) = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..readers)
            .map(|r| {
                let reader = chain_head.clone();
                let plan = workload.plan(r, PLAN_LEN);
                let users = Arc::clone(&users);
                let stop = Arc::clone(&stop);
                scope.spawn(move || run_reader(reader, plan, workload.arrival, users, stop, None))
            })
            .collect();
        let report = run_in_pool(args.threads, || {
            engine
                .run(network, &mut stream, args.batches)
                .unwrap_or_else(|err| {
                    eprintln!("error: {err}");
                    std::process::exit(1);
                })
        });
        stop.store(true, Ordering::Relaxed);
        let tallies = fleet
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        (report, tallies)
    });
    let (write_phase, write_checksum) = aggregate(write_tallies, true);

    // Phase 2 — read-only: the chain is frozen; the same fleet replays the
    // same plans for the same wall-clock window against the final views.
    let window = Duration::from_secs_f64(write_phase.elapsed_secs.max(0.05));
    let read_tallies = std::thread::scope(|scope| {
        let fleet: Vec<_> = (0..readers)
            .map(|r| {
                let reader = chain_head.clone();
                let plan = workload.plan(r, PLAN_LEN);
                let users = Arc::clone(&users);
                let stop = Arc::new(AtomicBool::new(false));
                scope.spawn(move || {
                    run_reader(reader, plan, workload.arrival, users, stop, Some(window))
                })
            })
            .collect();
        fleet
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    });
    let (read_phase, read_checksum) = aggregate(read_tallies, false);

    let independence = if read_phase.reads_per_sec() > 0.0 {
        write_phase.reads_per_sec() / read_phase.reads_per_sec()
    } else {
        0.0
    };
    eprintln!(
        "# {}: write-active {:.0} reads/s over {:.2}s, read-only {:.0} reads/s, ratio {:.3}",
        workload.name,
        write_phase.reads_per_sec(),
        write_phase.elapsed_secs,
        read_phase.reads_per_sec(),
        independence,
    );

    json!({
        "workload": workload.to_json(),
        "query": format!("{:?}", args.query),
        "scale_factor": args.scale_factor,
        "shards": args.shards,
        "batches": report.stream.batches,
        "updates_per_sec": report.stream.updates_per_sec,
        "final_result": &report.stream.final_result,
        "write_active": serve_phase_json(&write_phase),
        "read_only": serve_phase_json(&read_phase),
        "independence_ratio": independence,
        // fold of everything the readers saw; pins the reads as real work
        "read_checksum": write_checksum ^ read_checksum,
    })
}

fn main() {
    let args = parse_args();
    let workloads: Vec<ServeWorkload> = if args.workload == "all" {
        ServeWorkload::presets()
    } else {
        match ServeWorkload::by_name(&args.workload) {
            Some(workload) => vec![workload],
            None => {
                let names: Vec<String> = ServeWorkload::presets()
                    .into_iter()
                    .map(|w| w.name)
                    .collect();
                eprintln!(
                    "unknown workload {} ({}|all)",
                    args.workload,
                    names.join("|")
                );
                std::process::exit(2);
            }
        }
    };
    let network = generate_scale_factor(args.scale_factor).initial;
    eprintln!(
        "# network: sf={} nodes={} edges={}; stream: {} x {} ops, warmup {}; {} workload(s)",
        args.scale_factor,
        network.node_count(),
        network.edge_count(),
        args.batches,
        args.batch_size,
        args.warmup,
        workloads.len(),
    );
    for workload in &workloads {
        let row = measure_workload(&args, &network, workload);
        println!("{row}");
    }
}
