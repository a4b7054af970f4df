//! Sustained streaming-update throughput of the tool variants.
//!
//! Generates a synthetic network at a given scale factor, attaches a seeded
//! [`datagen::stream::UpdateStream`] (new comments / likes / friendships plus
//! like/friendship retractions), and drives micro-batches through the selected
//! solutions with [`ttc_social_media::stream::StreamDriver`]. Prints one JSON object
//! per (query, variant) line with p50/p90/p99/max per-batch latency and the
//! sustained updates/second.
//!
//! ```text
//! cargo run -p bench --release --bin stream_throughput -- [--sf 1] [--batches 200] \
//!     [--batch-size 64] [--warmup 10] [--seed 42] [--deletions 0.1] \
//!     [--query q1|q2|both] [--variant batch|incremental|incremental-cc|nmf|all] \
//!     [--threads 1] [--shards N] [--partitioner mod|ring] [--rebalance] \
//!     [--hot-tree P] [--pipeline] [--queue-depth D] [--kill-shard S] [--recover] \
//!     [--checkpoint-every K] [--reshard AT:N] [--checkpoint-dir PATH] [--smoke]
//! ```
//!
//! `--shards N` (N ≥ 1) runs each variant through the sharded pipeline
//! ([`ttc_social_media::shard::ShardedSolution`]): the graph is partitioned by
//! user id across N shards, micro-batches are routed and applied shard-parallel
//! (the NMF baseline runs its per-shard dependency-record backend,
//! [`nmf_baseline::shard`]), and the row gains per-shard latency percentiles and
//! owned sizes (`shard_sizes`, the skew signal) next to the merged figures. Size
//! `--threads` to the shard count to give every shard a worker.
//!
//! `--partitioner` selects the shard-placement policy (`mod`, the default
//! `user % N`, or `ring`, a seeded consistent-hash ring); `--rebalance` wraps
//! the policy in an assignment table and enables the tree-migration skew
//! monitor (synchronous engine only), adding a `rebalance` block with the
//! migration counters to the row. `--hot-tree P` biases the generated stream
//! so a fraction `P` of new comments/likes pile onto one discussion tree — the
//! adversarial workload whose `shard_sizes` skew the monitor is built to pull
//! back down.
//!
//! `--pipeline` switches from the synchronous barrier driver to the staged
//! asynchronous engine ([`ttc_social_media::pipeline::PipelinedEngine`]): ingest
//! → coalesce/route → per-shard apply workers → watermark merge over bounded
//! queues of capacity `--queue-depth` (default 4). The row additionally carries
//! a `pipeline` block with per-stage backpressure counts and the maximum
//! watermark lag. Latency semantics change with it: pipelined rows report
//! **end-to-end** per-batch latency (ingest → merged result) and wall-clock
//! sustained throughput, not per-call service time. Without an explicit
//! `--shards`, `--pipeline` defaults to 2 shards (a 1-shard pipeline only
//! measures queue overhead). Stage threads are spawned by the engine itself;
//! `--threads` still sizes the rayon pool used during the initial load.
//!
//! `--kill-shard S` (repeatable, pipelined runs only) injects a crash: shard
//! `S`'s apply worker dies halfway through the run (at sequence number
//! `(warmup + batches) / 2`). On its own that proves the truncation detection
//! — the run exits non-zero with `EngineError::TruncatedRun`. With `--recover`
//! the engine checkpoints every `--checkpoint-every K` batches (default
//! [`RecoveryConfig::default`]), restores the killed shard from its latest
//! snapshot, replays the changeset log, and completes the run normally; the
//! `pipeline` block then nests a `recovery` block with the crash/restore
//! counters and the worst restore latency. This is the CI chaos smoke:
//! `--smoke --pipeline --kill-shard 1 --recover` under several seeds.
//!
//! `--reshard AT:N` (repeatable, pipelined runs only) schedules an elastic
//! reshard: right before batch `AT` is routed the engine drains every worker
//! to a barrier checkpoint, splits/merges the checkpoints into `N` shards, and
//! respawns the fleet under the new topology — results stay byte-identical to
//! an unsharded run. Resharding runs on the recovery machinery, so it arms
//! checkpointing with defaults even without `--recover`; the row's `pipeline`
//! block gains a `reshards` array with per-barrier drain/split/respawn timings
//! and the number of comments whose owning shard moved. `--checkpoint-dir
//! PATH` makes the checkpoint store file-backed (snapshots land under `PATH`,
//! cleared at run start) instead of in-process.
//!
//! `--smoke` overrides everything with a small fixed configuration (sf1, every
//! variant of both queries, 2 worker threads so the parallel kernels run) and is
//! what `scripts/check.sh` executes: any panic in the kernels or the streaming
//! drivers fails the tier-1 gate. Explicit flags placed *after* `--smoke` still
//! apply on top of it (`--smoke --pipeline` is the pipelined smoke CI runs).

use bench::args::Cli;
use bench::{report, run_in_pool};
use datagen::partition::{partitioner_from_name, Partitioner};
use datagen::stream::{StreamConfig, UpdateStream};
use datagen::{generate_scale_factor, SocialNetwork};
use nmf_baseline::NmfShardFactory;
use serde_json::{json, Value};
use ttc_social_media::model::Query;
use ttc_social_media::pipeline::{IngestEngine, PipelineConfig, PipelineStats, PipelinedEngine};
use ttc_social_media::recovery::RecoveryConfig;
use ttc_social_media::shard::{
    GraphBlasShardFactory, RebalanceConfig, RebalanceStats, ShardBackend, ShardFactory,
    ShardRouterStats, ShardedSolution,
};
use ttc_social_media::solution::Solution;
use ttc_social_media::stream::{StreamDriver, StreamDriverConfig};

/// Accepted flags with the help line printed for each; the parser, `--help` and the
/// CLI test in `tests/cli_help.rs` both enumerate this surface.
const FLAGS: &[(&str, &str)] = &[
    ("--sf", "scale factor of the generated network (default 1)"),
    (
        "--batches",
        "measured micro-batches to stream (default 200)",
    ),
    ("--batch-size", "operations per micro-batch (default 64)"),
    (
        "--warmup",
        "warm-up batches before measurement (default 10)",
    ),
    (
        "--seed",
        "seed of the generated network and stream (default 42)",
    ),
    (
        "--deletions",
        "like/friendship retraction weight (default 0.1)",
    ),
    ("--query", "q1, q2, or both (default both)"),
    (
        "--variant",
        "batch, incremental, incremental-cc, nmf, or all (default incremental)",
    ),
    ("--threads", "rayon worker threads (default 1)"),
    ("--shards", "run sharded over N shards (default off)"),
    (
        "--partitioner",
        "shard placement policy: mod or ring (default mod)",
    ),
    (
        "--rebalance",
        "enable the tree-migration skew monitor (synchronous engine only)",
    ),
    (
        "--hot-tree",
        "bias fraction P of new comments/likes onto one discussion tree",
    ),
    (
        "--pipeline",
        "use the staged asynchronous engine (default 2 shards)",
    ),
    (
        "--queue-depth",
        "bounded queue capacity of the pipeline (default 4)",
    ),
    (
        "--kill-shard",
        "kill shard S's worker mid-run (repeatable; needs --pipeline)",
    ),
    (
        "--recover",
        "checkpoint + restore killed shards (needs --pipeline)",
    ),
    (
        "--checkpoint-every",
        "checkpoint cadence in batches for --recover",
    ),
    (
        "--reshard",
        "reshard to N shards before batch AT, as AT:N (repeatable; needs --pipeline)",
    ),
    (
        "--checkpoint-dir",
        "file-backed checkpoint store rooted at PATH (needs --pipeline)",
    ),
    (
        "--smoke",
        "small fixed CI configuration (later flags still apply)",
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
    queries: Vec<Query>,
    variants: Vec<String>,
    threads: usize,
    shards: usize,
    partitioner: String,
    rebalance: bool,
    hot_tree: f64,
    pipeline: bool,
    queue_depth: usize,
    kill_shards: Vec<usize>,
    recover: bool,
    checkpoint_every: u64,
    reshards: Vec<(u64, usize)>,
    checkpoint_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale_factor: 1,
        batches: 200,
        batch_size: 64,
        warmup: 10,
        seed: 42,
        deletions: 0.1,
        queries: vec![Query::Q1, Query::Q2],
        variants: vec!["incremental".to_string()],
        threads: 1,
        shards: 0,
        partitioner: "mod".to_string(),
        rebalance: false,
        hot_tree: 0.0,
        pipeline: false,
        queue_depth: 4,
        kill_shards: Vec::new(),
        recover: false,
        checkpoint_every: RecoveryConfig::default().checkpoint_every,
        reshards: Vec::new(),
        checkpoint_dir: None,
    };
    let about = "sustained streaming-update throughput of the tool variants";
    let mut cli = Cli::from_env("stream_throughput", about, FLAGS);
    while let Some(flag) = cli.next_flag() {
        match flag {
            "--sf" => args.scale_factor = cli.parsed(flag),
            "--batches" => args.batches = cli.parsed(flag),
            "--batch-size" => args.batch_size = cli.parsed(flag),
            "--warmup" => args.warmup = cli.parsed(flag),
            "--seed" => args.seed = cli.parsed(flag),
            "--deletions" => args.deletions = cli.parsed(flag),
            "--query" => {
                args.queries = match cli.value(flag).to_lowercase().as_str() {
                    "q1" => vec![Query::Q1],
                    "q2" => vec![Query::Q2],
                    _ => vec![Query::Q1, Query::Q2],
                };
            }
            "--variant" => {
                args.variants = match cli.value(flag).to_lowercase().as_str() {
                    "all" => vec![
                        "batch".to_string(),
                        "incremental".to_string(),
                        "incremental-cc".to_string(),
                        "nmf".to_string(),
                    ],
                    other => vec![other.to_string()],
                };
            }
            "--threads" => args.threads = cli.parsed(flag),
            "--shards" => args.shards = cli.parsed(flag),
            "--partitioner" => args.partitioner = cli.value(flag).to_lowercase(),
            "--rebalance" => args.rebalance = true,
            "--hot-tree" => {
                args.hot_tree = cli.parsed(flag);
                if !(0.0..=1.0).contains(&args.hot_tree) {
                    cli.fail(flag, "expects a probability in [0, 1]");
                }
            }
            "--pipeline" => args.pipeline = true,
            "--queue-depth" => args.queue_depth = cli.parsed(flag),
            "--kill-shard" => args.kill_shards.push(cli.parsed(flag)),
            "--recover" => args.recover = true,
            "--checkpoint-every" => args.checkpoint_every = cli.parsed(flag),
            "--reshard" => {
                let spec = cli.value(flag);
                let plan = spec
                    .split_once(':')
                    .and_then(|(at, n)| Some((at.parse().ok()?, n.parse().ok()?)));
                match plan {
                    Some(plan) => args.reshards.push(plan),
                    None => cli.fail(flag, &format!("cannot take the value `{spec}`")),
                }
            }
            "--checkpoint-dir" => args.checkpoint_dir = Some(cli.value(flag).into()),
            "--smoke" => {
                args.scale_factor = 1;
                args.batches = 10;
                args.batch_size = 16;
                args.warmup = 2;
                args.deletions = 0.1;
                args.queries = vec![Query::Q1, Query::Q2];
                args.variants = vec![
                    "batch".to_string(),
                    "incremental".to_string(),
                    "incremental-cc".to_string(),
                    "nmf".to_string(),
                ];
                args.threads = 2;
            }
            other => unreachable!("{other} is in FLAGS but has no handler"),
        }
    }
    args
}

fn build_variant(name: &str, query: Query, parallel: bool) -> Box<dyn Solution> {
    use nmf_baseline::NmfIncremental;
    use ttc_social_media::{GraphBlasBatch, GraphBlasIncremental, GraphBlasIncrementalCc};
    match name {
        "batch" => Box::new(GraphBlasBatch::new(query, parallel)),
        "incremental" => Box::new(GraphBlasIncremental::new(query, parallel)),
        "incremental-cc" => match query {
            Query::Q2 => Box::new(GraphBlasIncrementalCc::new()),
            Query::Q1 => Box::new(GraphBlasIncremental::new(query, parallel)),
        },
        "nmf" => Box::new(NmfIncremental::new(query)),
        other => {
            eprintln!("unknown variant {other} (batch|incremental|incremental-cc|nmf|all)");
            std::process::exit(2);
        }
    }
}

fn stream_for(args: &Args, network: &SocialNetwork) -> UpdateStream {
    UpdateStream::new(
        network,
        StreamConfig {
            seed: args.seed,
            batch_size: args.batch_size,
            deletion_weight: args.deletions,
            // shard-aware emission groups each batch's operations by owning
            // shard, so the router output is contiguous per shard
            shards: args.shards,
            hot_tree_bias: args.hot_tree,
            ..StreamConfig::default()
        },
    )
}

/// The partition policy of a sharded run, per `--partitioner`/`--rebalance`.
fn partitioner_for(args: &Args) -> Box<dyn Partitioner> {
    partitioner_from_name(&args.partitioner, args.shards, args.seed, args.rebalance)
        .expect("partitioner name validated at startup")
}

/// The per-shard backend of a variant name: the GraphBLAS factories mirror the
/// unsharded variants one-to-one; `nmf` runs the per-shard dependency-record
/// baseline.
fn shard_factory(variant: &str, query: Query) -> Option<Box<dyn ShardFactory>> {
    match variant {
        "batch" => Some(Box::new(GraphBlasShardFactory::new(
            query,
            ShardBackend::Batch,
        ))),
        "incremental" => Some(Box::new(GraphBlasShardFactory::new(
            query,
            ShardBackend::Incremental,
        ))),
        "incremental-cc" => Some(Box::new(GraphBlasShardFactory::new(
            query,
            ShardBackend::IncrementalCc,
        ))),
        "nmf" => Some(Box::new(NmfShardFactory::new(query))),
        _ => None,
    }
}

/// The row fields every sharded run (synchronous or pipelined) shares: shard
/// count, partition policy, per-shard latency percentiles, owned sizes (the
/// skew signal), router statistics, and — depending on the mode — the
/// pipeline or rebalance block.
#[allow(clippy::too_many_arguments)]
fn sharded_extra(
    shards: usize,
    partitioner: &str,
    lanes: &[Vec<f64>],
    warmup: usize,
    sizes: &[(usize, usize)],
    router: ShardRouterStats,
    pipeline: Option<&PipelineStats>,
    rebalance: Option<RebalanceStats>,
) -> Value {
    let mut map = match json!({
        "shards": shards,
        "partitioner": partitioner,
        "per_shard": report::per_shard_json(lanes, warmup),
        "shard_sizes": report::shard_sizes_json(sizes),
    }) {
        Value::Object(map) => map,
        _ => unreachable!("json! object literal"),
    };
    if let Value::Object(router) = report::router_stats_json(router) {
        map.extend(router);
    }
    if let Some(stats) = pipeline {
        map.insert("pipeline".to_string(), report::pipeline_stats_json(stats));
    }
    if let Some(stats) = rebalance {
        map.insert("rebalance".to_string(), report::rebalance_stats_json(stats));
    }
    Value::Object(map)
}

fn main() {
    let mut args = parse_args();
    if args.pipeline && args.shards == 0 {
        // a 1-shard pipeline only measures queue overhead; default to the
        // smallest configuration where stages can actually overlap
        args.shards = 2;
    }
    if args.rebalance && args.shards == 0 {
        eprintln!("error: --rebalance requires --shards N (there is nothing to rebalance)");
        std::process::exit(2);
    }
    // validate against the one policy registry before the (expensive) network
    // generation below, so new names added there are accepted without edits here
    if partitioner_from_name(&args.partitioner, 1, 0, false).is_none() {
        eprintln!("unknown partitioner {} (mod|ring)", args.partitioner);
        std::process::exit(2);
    }
    if args.rebalance && args.pipeline {
        // migration quiesces donor and recipient between batches — a barrier
        // the staged engine deliberately does not have (DESIGN.md §5.6)
        eprintln!(
            "error: --rebalance is supported by the synchronous engine only (drop --pipeline)"
        );
        std::process::exit(2);
    }
    if (!args.kill_shards.is_empty() || args.recover) && !args.pipeline {
        eprintln!("error: --kill-shard/--recover require --pipeline (they exercise its workers)");
        std::process::exit(2);
    }
    if (!args.reshards.is_empty() || args.checkpoint_dir.is_some()) && !args.pipeline {
        eprintln!(
            "error: --reshard/--checkpoint-dir require --pipeline (they exercise its workers)"
        );
        std::process::exit(2);
    }
    if args.reshards.iter().any(|&(_, n)| n == 0) {
        eprintln!("error: --reshard expects a new shard count ≥ 1");
        std::process::exit(2);
    }
    if args.checkpoint_every == 0 {
        eprintln!("error: --checkpoint-every expects an integer ≥ 1");
        std::process::exit(2);
    }
    let args = args;
    let network = generate_scale_factor(args.scale_factor).initial;
    eprintln!(
        "# network: sf={} nodes={} edges={}; stream: batches={} x {} ops, warmup={}, \
         deletion weight {}, threads={}{}",
        args.scale_factor,
        network.node_count(),
        network.edge_count(),
        args.batches,
        args.batch_size,
        args.warmup,
        args.deletions,
        args.threads,
        if args.pipeline {
            format!(
                ", pipelined over {} shards (queue depth {})",
                args.shards, args.queue_depth
            )
        } else {
            String::new()
        },
    );

    let driver = StreamDriver::new(StreamDriverConfig {
        warmup_batches: args.warmup,
        coalesce: true,
    });
    let parallel = args.threads > 1;
    for &query in &args.queries {
        for variant in &args.variants {
            if variant == "incremental-cc" && query == Query::Q1 {
                // the incremental-CC backend is Q2-only; a Q1 row would just
                // re-measure the plain incremental solution under a wrong label
                eprintln!("# skipping incremental-cc for Q1 (Q2-only variant)");
                continue;
            }
            // resolve the backend before building the stream: constructing an
            // UpdateStream snapshots the network's edge lists, which is wasted
            // work when the variant name turns out to be unknown
            let factory = if args.shards > 0 {
                match shard_factory(variant, query) {
                    Some(factory) => Some(factory),
                    None => {
                        eprintln!(
                            "unknown variant {variant} (batch|incremental|incremental-cc|nmf|all)"
                        );
                        std::process::exit(2);
                    }
                }
            } else {
                None
            };
            let stream = stream_for(&args, &network);
            // the solution is built inside the pool so the whole run (including the
            // initial load) sees the configured worker count
            let (report, extra) = match factory {
                Some(factory) if args.pipeline => run_in_pool(args.threads, || {
                    // chaos injection: each --kill-shard S dies halfway
                    // through the run, recovery (when enabled) restores it
                    let kill_seq = ((args.warmup + args.batches) / 2) as u64;
                    let mut engine = PipelinedEngine::with_partitioner(
                        factory,
                        partitioner_for(&args),
                        PipelineConfig {
                            queue_depth: args.queue_depth,
                            warmup_batches: args.warmup,
                            coalesce: true,
                            delays: None,
                            kill_shards: args
                                .kill_shards
                                .iter()
                                .map(|&shard| (shard, kill_seq))
                                .collect(),
                            recovery: args.recover.then_some(RecoveryConfig {
                                checkpoint_every: args.checkpoint_every,
                            }),
                            reshards: args.reshards.clone(),
                            checkpoint_dir: args.checkpoint_dir.clone(),
                        },
                    );
                    let mut stream = stream;
                    let outcome = engine
                        .run(&network, &mut stream, args.batches)
                        .unwrap_or_else(|err| {
                            eprintln!("error: {err}");
                            std::process::exit(1);
                        });
                    let stats = outcome.pipeline.expect("pipelined engines report stats");
                    let extra = sharded_extra(
                        stats.shards,
                        &args.partitioner,
                        &stats.per_shard_apply_latencies,
                        args.warmup,
                        &stats.shard_sizes,
                        stats.router,
                        Some(&stats),
                        None,
                    );
                    (outcome.stream, Some(extra))
                }),
                Some(factory) => run_in_pool(args.threads, || {
                    let mut sharded = ShardedSolution::with_factory_and_partitioner(
                        factory,
                        partitioner_for(&args),
                    );
                    if args.rebalance {
                        sharded = sharded.with_rebalancing(RebalanceConfig::default());
                    }
                    let report = driver.run(&mut sharded, &network, stream, args.batches);
                    let extra = sharded_extra(
                        sharded.shard_count(),
                        &args.partitioner,
                        sharded.per_shard_latencies(),
                        args.warmup,
                        &sharded.shard_sizes(),
                        sharded.router_stats(),
                        None,
                        args.rebalance.then(|| sharded.rebalance_stats()),
                    );
                    (report, Some(extra))
                }),
                None => run_in_pool(args.threads, || {
                    let mut solution = build_variant(variant, query, parallel);
                    (
                        driver.run(solution.as_mut(), &network, stream, args.batches),
                        None,
                    )
                }),
            };
            let mut row = json!({
                "query": format!("{query:?}"),
                "variant": variant,
                "solution": &report.solution,
                "scale_factor": args.scale_factor,
                "threads": args.threads,
                "batches": report.batches,
                "batch_size": args.batch_size,
                "total_operations": report.total_operations,
                "applied_operations": report.applied_operations,
                "elapsed_secs": report.elapsed_secs,
                "updates_per_sec": report.updates_per_sec,
                "p50_latency_secs": report.p50_latency_secs,
                "p90_latency_secs": report.p90_latency_secs,
                "p99_latency_secs": report.p99_latency_secs,
                "max_latency_secs": report.max_latency_secs,
                "load_secs": report.load_secs,
                "final_result": &report.final_result,
            });
            if let (Value::Object(row), Some(Value::Object(extra))) = (&mut row, extra) {
                row.extend(extra);
            }
            println!("{row}");
        }
    }
}
