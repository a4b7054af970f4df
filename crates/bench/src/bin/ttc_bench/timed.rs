//! The timed pass: one repetition of a workload through the real engine,
//! tracing off. Everything a repetition touches was materialised in set-up;
//! the reference comparison happens later, outside every timed window.

use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use datagen::partition::ModuloPartitioner;
use datagen::{ChangeSet, ElementId, SocialNetwork};
use ttc_social_media::pipeline::{IngestEngine, PipelineConfig, PipelineStats, PipelinedEngine};
use ttc_social_media::recovery::RecoveryConfig;
use ttc_social_media::serve::{QueryView, ViewReader};
use ttc_social_media::shard::{GraphBlasShardFactory, ShardBackend, ShardedSolution};
use ttc_social_media::solution::{GraphBlasIncremental, Solution};
use ttc_social_media::stream::coalesce;

use crate::input::mix64;
use crate::pacing::{busy_ns, Lateness, Paced, Schedule};
use crate::spec::{Engine, Spec, QUEUE_DEPTH};
use crate::stats;

/// Reads per epoch block of the serve workload, split 2:1:1 over the kinds.
pub const READ_BLOCK: usize = 4096;

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    pub load_s: f64,
    /// Result string of the load phase, where the engine hands it out (the
    /// staged engine does only through the first published view).
    pub initial: Option<String>,
    /// Wall-clock of the measured window.
    pub window_s: f64,
    /// Time the engine was busy inside the window: all of it under a
    /// saturating source, [`busy_ns`] of the due and visible times under the
    /// paced one, where the schedule, not the engine, sets the wall-clock.
    pub busy_s: f64,
    /// Operations emitted over the measured window.
    pub ops: usize,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Samples behind the two percentiles.
    pub samples: usize,
    /// Result string after every measured batch.
    pub results: Vec<String>,
    pub pipeline: Option<PipelineStats>,
    pub served: Option<Served>,
    pub lateness: Option<(Lateness, Schedule)>,
}

/// What the serve workload's reader thread observed.
#[derive(Default)]
pub struct Served {
    /// Due time → first observation, measured batches only.
    pub lag_ms: Vec<f64>,
    /// Result string of the view of every batch (warm-up included).
    pub view_results: Vec<String>,
    pub bad_seals: usize,
    /// Per epoch block: ns per read overall and per kind.
    pub read_ns: Vec<f64>,
    pub topk_ns: Vec<f64>,
    pub standing_ns: Vec<f64>,
    pub component_ns: Vec<f64>,
}

/// Kill and reshard injections of the extra recovery runs.
#[derive(Clone, Default)]
pub struct Chaos {
    pub kill_shards: Vec<(usize, u64)>,
    pub reshards: Vec<(u64, usize)>,
}

/// Run `op` with the spec's rayon worker count as the ambient parallelism.
pub fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the vendored pool builder is infallible")
        .install(op)
}

pub fn shard_factory(spec: &Spec) -> Box<GraphBlasShardFactory> {
    Box::new(GraphBlasShardFactory::new(
        spec.query,
        ShardBackend::Incremental,
    ))
}

/// One repetition of `spec` over `batches` (warm-up first) on a fresh engine.
pub fn run_rep(
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
    seed: u64,
) -> Result<Rep, String> {
    in_pool(spec.threads, || match spec.engine {
        Engine::Unsharded | Engine::Paper => {
            let mut solution = GraphBlasIncremental::new(spec.query, false);
            Ok(sync_rep(&mut solution, spec, network, batches))
        }
        Engine::Sharded => {
            let mut solution = ShardedSolution::with_factory_and_partitioner(
                shard_factory(spec),
                Box::new(ModuloPartitioner::new(spec.shards)),
            );
            Ok(sync_rep(&mut solution, spec, network, batches))
        }
        Engine::Pipeline => pipeline_rep(spec, network, batches, &Chaos::default()),
        Engine::Serve => serve_rep(spec, network, batches, seed),
    })
}

/// A load-only sample: a fresh engine loads the network and is dropped.
pub fn load_only(spec: &Spec, network: &SocialNetwork) -> Result<f64, String> {
    let spec = Spec {
        warmup: 0,
        batches: 0,
        // the serve engine's load phase is the pipelined engine's
        engine: if spec.engine == Engine::Serve {
            Engine::Pipeline
        } else {
            spec.engine
        },
        ..spec.clone()
    };
    run_rep(&spec, network, &[], 0).map(|rep| rep.load_s)
}

/// The synchronous engines, driven batch by batch: a batch's service time is
/// coalesce + apply + merge (the paper protocol applies its changesets as
/// they are, uncoalesced).
fn sync_rep(
    solution: &mut dyn Solution,
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
) -> Rep {
    let started = Instant::now();
    let initial = solution.load_and_initial(network);
    let load_s = started.elapsed().as_secs_f64();

    let coalescing = spec.engine != Engine::Paper;
    let (warmup, measured) = batches.split_at(spec.warmup.min(batches.len()));
    for batch in warmup {
        black_box(solution.update_and_reevaluate(&coalesce(batch)));
    }
    let mut rep = Rep {
        load_s,
        initial: Some(initial),
        ..Rep::default()
    };
    let mut batch_ms = Vec::with_capacity(measured.len());
    let window = Instant::now();
    for batch in measured {
        let started = Instant::now();
        let result = if coalescing {
            solution.update_and_reevaluate(&coalesce(batch))
        } else {
            solution.update_and_reevaluate(batch)
        };
        batch_ms.push(started.elapsed().as_secs_f64() * 1e3);
        rep.ops += batch.operations.len();
        rep.results.push(result);
    }
    rep.window_s = window.elapsed().as_secs_f64();
    rep.busy_s = rep.window_s;
    rep.p50_ms = stats::percentile(&batch_ms, 50.0);
    rep.p99_ms = stats::percentile(&batch_ms, 99.0);
    rep.samples = batch_ms.len();
    rep
}

fn engine_for(spec: &Spec, chaos: &Chaos) -> PipelinedEngine {
    PipelinedEngine::with_partitioner(
        shard_factory(spec),
        Box::new(ModuloPartitioner::new(spec.shards)),
        PipelineConfig {
            queue_depth: QUEUE_DEPTH,
            warmup_batches: spec.warmup,
            coalesce: true,
            delays: None,
            kill_shards: chaos.kill_shards.clone(),
            recovery: (spec.checkpoint_every > 0).then_some(RecoveryConfig {
                checkpoint_every: spec.checkpoint_every,
            }),
            reshards: chaos.reshards.clone(),
            checkpoint_dir: None,
        },
    )
}

/// Fill a [`Rep`] from the engine's own report: under the staged engine a
/// batch's latency is ingest → merged, which only the engine can stamp.
fn rep_from_report(
    report: ttc_social_media::pipeline::EngineReport,
    measured: &[ChangeSet],
) -> Rep {
    Rep {
        load_s: report.stream.load_secs,
        window_s: report.stream.elapsed_secs,
        busy_s: report.stream.elapsed_secs,
        ops: report.stream.total_operations,
        p50_ms: report.stream.p50_latency_secs * 1e3,
        p99_ms: report.stream.p99_latency_secs * 1e3,
        samples: measured.len(),
        results: report.results,
        pipeline: report.pipeline,
        ..Rep::default()
    }
}

/// The staged engine under a saturating source.
pub fn pipeline_rep(
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
    chaos: &Chaos,
) -> Result<Rep, String> {
    let mut engine = engine_for(spec, chaos);
    let mut source = batches.iter().cloned();
    let measured = &batches[spec.warmup.min(batches.len())..];
    let report = engine
        .run(network, &mut source, measured.len())
        .map_err(|e| format!("pipelined engine failed: {e}"))?;
    Ok(rep_from_report(report, measured))
}

/// The staged engine publishing views, fed open loop at the spec's rate, with
/// one reader thread that waits for each epoch, stamps when it became
/// visible, and runs a block of seeded reads on the fresh view.
fn serve_rep(
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
    seed: u64,
) -> Result<Rep, String> {
    let mut engine = engine_for(spec, &Chaos::default());
    let reader = engine.serve_views();
    let schedule = Schedule::new(spec.rate);
    let start = Arc::new(OnceLock::new());
    let mut source = Paced::new(batches.iter().cloned(), schedule, Arc::clone(&start));
    let users: Vec<ElementId> = network.users.iter().map(|u| u.id).collect();
    let total = batches.len();

    // Not scoped: if the engine fails, epochs the reader waits for are never
    // published, and the run must still end — the reader is then abandoned
    // to process exit instead of joined.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // a failed send means the run already gave up on this reader
        let _ = tx.send(read_epochs(reader, total, &users, seed));
    });
    let measured = &batches[spec.warmup.min(total)..];
    let report = engine
        .run(network, &mut source, measured.len())
        .map_err(|e| format!("serving engine failed: {e}"))?;
    let log = rx
        .recv()
        .map_err(|_| "the reader thread died before observing every epoch".to_string())?;

    let began = *start.get().ok_or("the paced source was never pulled")?;
    // (due, first observed) of every batch, in ns since the source started
    let stamps: Vec<(u64, u64)> = log
        .observed_at
        .iter()
        .enumerate()
        .map(|(seq, seen)| {
            let seen_ns = seen.saturating_duration_since(began).as_nanos() as u64;
            (schedule.due_ns(seq as u64), seen_ns)
        })
        .collect();
    let (warm, timed) = stamps.split_at(spec.warmup.min(stamps.len()));
    let mut served = log.served;
    served.lag_ms = timed
        .iter()
        .map(|&(due, seen)| seen.saturating_sub(due) as f64 / 1e6)
        .collect();
    let mut rep = rep_from_report(report, measured);
    let before = warm.last().map_or(0, |&(_, seen)| seen);
    rep.busy_s = busy_ns(before, timed.iter().copied()) as f64 / 1e9;
    // what a user of this engine waits for is visibility, not the merge
    rep.p50_ms = stats::percentile(&served.lag_ms, 50.0);
    rep.p99_ms = stats::percentile(&served.lag_ms, 99.0);
    rep.samples = served.lag_ms.len();
    rep.initial = Some(log.initial);
    rep.served = Some(served);
    rep.lateness = Some((source.lateness, schedule));
    Ok(rep)
}

struct ReaderLog {
    served: Served,
    /// Result of the epoch-1 view: the initial evaluation.
    initial: String,
    /// When the view of batch `seq` was first observed.
    observed_at: Vec<Instant>,
}

/// Observe every epoch of the chain in order. Epoch 1 is the initial
/// evaluation; batch `seq` is epoch `seq + 2`.
fn read_epochs(
    mut reader: ViewReader,
    batches: usize,
    users: &[ElementId],
    seed: u64,
) -> ReaderLog {
    let mut log = ReaderLog {
        served: Served::default(),
        initial: String::new(),
        observed_at: Vec::with_capacity(batches),
    };
    let mut waiter = reader.clone();
    let mut rng = mix64(seed ^ 0x5e7e);
    for epoch in 1..=(batches as u64 + 1) {
        while reader.epoch() < epoch {
            // step view by view so no batch's view is skipped; park only when
            // the chain has nothing newer
            if !reader.try_advance() {
                waiter.wait_for_epoch(epoch);
            }
        }
        let seen = Instant::now();
        let view = reader.view();
        if !view.verify_seal() {
            log.served.bad_seals += 1;
        }
        if epoch == 1 {
            log.initial = view.result().to_string();
            continue;
        }
        log.observed_at.push(seen);
        log.served.view_results.push(view.result().to_string());
        read_block(&view, users, &mut rng, &mut log.served);
    }
    log
}

fn next(rng: &mut u64) -> usize {
    *rng = mix64(*rng);
    *rng as usize
}

/// 4096 seeded reads on one view: 2048 top-k scans, 1024 standing lookups,
/// 1024 component lookups, each kind timed as one block.
fn read_block(view: &QueryView, users: &[ElementId], rng: &mut u64, served: &mut Served) {
    let entries = view.entries();
    let mut checksum = 0u64;
    let block = Instant::now();
    for _ in 0..READ_BLOCK / 2 {
        checksum ^= black_box(entries).iter().fold(0u64, |acc, e| {
            acc.wrapping_add(e.score).rotate_left(7) ^ e.id
        });
    }
    let topk = block.elapsed();
    let started = Instant::now();
    for _ in 0..READ_BLOCK / 4 {
        let standing = entries
            .get(next(rng) % entries.len().max(1))
            .and_then(|e| view.standing(e.id));
        checksum ^= standing.map_or(1, |s| s.score);
    }
    let standing = started.elapsed();
    let started = Instant::now();
    for _ in 0..READ_BLOCK / 4 {
        let user = users.get(next(rng) % users.len().max(1));
        checksum ^= user.and_then(|&u| view.component_of(u)).unwrap_or(2);
    }
    let component = started.elapsed();
    let total = block.elapsed();
    black_box(checksum);
    served
        .read_ns
        .push(total.as_nanos() as f64 / READ_BLOCK as f64);
    served
        .topk_ns
        .push(topk.as_nanos() as f64 / (READ_BLOCK / 2) as f64);
    served
        .standing_ns
        .push(standing.as_nanos() as f64 / (READ_BLOCK / 4) as f64);
    served
        .component_ns
        .push(component.as_nanos() as f64 / (READ_BLOCK / 4) as f64);
}
