//! Staged, asynchronous ingestion pipeline: long-lived stages connected by
//! bounded queues, merged on a per-shard watermark instead of a barrier.
//!
//! The synchronous sharded driver ([`crate::shard::ShardedSolution`] under
//! [`StreamDriver`]) runs every micro-batch as route → barrier → merge: all
//! shards must finish batch `t` before any shard may start `t + 1`, so one
//! straggler shard idles the other `N − 1` and throughput is bounded by the
//! per-batch worst case. This module decouples the stages:
//!
//! ```text
//!  ingest ──▶ coalesce + route ──▶ shard 0 apply ──▶
//!  (seq      (supervisor: owns     shard 1 apply ──▶  watermark merge ──▶ results
//!   stamp)    ShardRouter, logs,└▶ shard N−1 apply ─▶  (emits batch t once
//!             restores workers)                         every shard passed t)
//!        bounded sync_channel queues between stages
//! ```
//!
//! * Every stage is a long-lived thread; neighbours are connected by bounded
//!   [`std::sync::mpsc::sync_channel`] queues (depth
//!   [`PipelineConfig::queue_depth`]), so a fast stage runs ahead by at most the
//!   queue depth and then **backpressures** instead of buffering unboundedly.
//!   Shard `s` can be applying batch `t + queue_depth` while a straggler shard
//!   is still on batch `t`.
//! * Batches carry **sequence numbers** stamped at ingest
//!   ([`datagen::stream::SequencedBatch`]). The merger tracks, per shard, the
//!   watermark of completed batches and emits the global top-k for batch `t`
//!   only once every shard's watermark has passed `t` — union rebuild when any
//!   shard reported an (effective) retraction in `t`, [`TopKTracker`]
//!   `merge_changes` otherwise: exactly the [`ShardMerger`] policy of the
//!   synchronous driver, which is why the two engines are byte-identical per
//!   batch (`tests/pipelined_differential.rs` enforces this, with injected
//!   per-stage delays forcing out-of-order shard completion).
//! * The per-shard state is the same [`Lane`] the synchronous driver steps —
//!   each is simply *moved into* its worker thread, which loops
//!   [`Lane::step`], and handed back by value when the thread drains.
//! * The route stage doubles as the **supervisor**: with
//!   [`PipelineConfig::recovery`] enabled it keeps a sequenced per-shard
//!   changeset log, the workers publish periodic checkpoints of their mirror
//!   sub-networks into a [`CheckpointStore`], and when a worker dies (the
//!   [`PipelineConfig::kill_shards`] chaos injection, or a panicking
//!   evaluator) the supervisor restores the latest snapshot
//!   ([`Lane::restore`]), replays the log through the ordinary step path,
//!   and the replacement rejoins the watermark merge with no visible gap —
//!   the merger deduplicates replayed outcomes, which deterministic replay
//!   makes byte-identical to the lost originals (see [`crate::recovery`] and
//!   DESIGN.md §5.7). Without recovery a dead worker still tears the run down
//!   into [`EngineError::TruncatedRun`].
//!
//! Both engines implement [`IngestEngine`], so benchmarks and differential
//! tests swap them freely. Latency semantics differ by design: the synchronous
//! driver reports per-batch *service* time (update call duration), the
//! pipelined engine reports **end-to-end** latency (ingest enqueue → merged
//! result emitted) and wall-clock sustained throughput over the measured
//! window, which is the honest figure once batches overlap.
//!
//! [`TopKTracker`]: crate::top_k::TopKTracker

use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

// Every synchronization primitive comes from the `crate::sync` facade: plain
// std re-exports in production builds, loomette shadows under `model-check`
// (which is how tests/model_check.rs exhaustively explores this module's
// interleavings). Do not import from `std::sync`/`std::thread` here.
use crate::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender, TrySendError};
use crate::sync::panic::{catch_unwind, AssertUnwindSafe};
use crate::sync::{thread, Arc};

use datagen::partition::{ModuloPartitioner, Partitioner};
use datagen::stream::sequenced;
use datagen::{ChangeSet, SocialNetwork};

use crate::lane::{ApplyOutcome, CheckpointSink, Lane};
use crate::recovery::{
    ChangesetLog, CheckpointStorage, CheckpointStore, FileCheckpointStore, LogEntry,
    RecoveryConfig, RecoveryStats, ShardCheckpoint,
};
use crate::serve::{view_channel, CandidateSnapshot, ViewBuilder, ViewPublisher, ViewReader};
use crate::shard::{
    candidate_union, load_lanes, ShardFactory, ShardMerger, ShardRouter, ShardRouterStats,
};
use crate::solution::Solution;
use crate::stream::{coalesce, RunObserver, StreamDriver, StreamReport};
use crate::top_k::RankedEntry;

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

/// Why an ingestion run failed to produce a trustworthy report.
///
/// The pipelined stage graph tears down from the front on failure (a dead
/// stage disconnects its queues and every neighbour stops), so a dying shard
/// worker used to look exactly like a short stream: the merger emitted the
/// batches that made it through and the report claimed success over fewer
/// batches than were actually ingested. [`IngestEngine::run`] now returns this
/// error instead of that silently truncated report — unless
/// [`PipelineConfig::recovery`] is enabled, in which case the dead worker is
/// restored and the run completes normally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The merge stage emitted fewer batches than the ingest stage accepted
    /// from the stream: a stage died mid-run and the tail of the stream was
    /// dropped on the floor.
    TruncatedRun {
        /// Batches the ingest stage pulled from the stream and enqueued.
        ingested: usize,
        /// Batches the merge stage actually emitted.
        merged: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::TruncatedRun { ingested, merged } => write!(
                f,
                "pipeline truncated: ingested {ingested} batches but merged only {merged} \
                 — a stage died mid-run"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// What an ingestion engine produces: the usual throughput/latency report, the
/// per-batch results (the differential gates compare these byte-for-byte), and
/// pipeline-internal statistics when the engine is staged.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Throughput and latency of the measured window, in the same shape both
    /// engines share (see the [module documentation](self) for the latency
    /// semantics of each).
    pub stream: StreamReport,
    /// The query result after every **measured** batch, in batch order
    /// (warm-up excluded). When at least one batch was measured,
    /// `results.last()` equals `stream.final_result`; when the stream ended
    /// inside the warm-up window this is empty while `stream.final_result`
    /// still reports the state after the batches that *were* applied.
    pub results: Vec<String>,
    /// Queue/backpressure/watermark statistics — `None` for the synchronous
    /// engine, which has no queues.
    pub pipeline: Option<PipelineStats>,
}

/// One interface over both ingestion engines — the synchronous barrier driver
/// ([`SyncEngine`]) and the staged pipeline ([`PipelinedEngine`]) — so
/// benchmarks and differential tests can swap them freely.
pub trait IngestEngine {
    /// Display name of the engine + measured configuration.
    fn name(&self) -> String;

    /// Load `initial`, drive `batches` micro-batches (plus any engine-configured
    /// warm-up) pulled from `stream`, and report. A stream yielding fewer than
    /// `batches` micro-batches is not an error (the report covers what was
    /// measured, matching the synchronous driver); losing batches that *were*
    /// ingested is ([`EngineError::TruncatedRun`]).
    fn run(
        &mut self,
        initial: &SocialNetwork,
        stream: &mut dyn Iterator<Item = ChangeSet>,
        batches: usize,
    ) -> Result<EngineReport, EngineError>;
}

/// The synchronous engine: the classic [`StreamDriver`] loop over any
/// [`Solution`], wrapped behind [`IngestEngine`]. One batch at a time —
/// coalesce, apply, merge — with a full barrier between batches.
pub struct SyncEngine {
    driver: StreamDriver,
    solution: Box<dyn Solution>,
    /// Armed by [`SyncEngine::serve_views`]; consumed by the next run.
    serving: Option<ServeSink>,
}

impl SyncEngine {
    /// Wrap `solution` behind the engine interface, driven by `driver`.
    pub fn new(driver: StreamDriver, solution: Box<dyn Solution>) -> Self {
        SyncEngine {
            driver,
            solution,
            serving: None,
        }
    }

    /// Arm view publication for the **next** run and return a reader on the
    /// publication chain. The run publishes one [`crate::serve::QueryView`]
    /// per applied batch (epoch 1 = the initial evaluation, +1 per batch,
    /// warm-up included); the returned reader starts at the epoch-0 genesis
    /// view and can be cloned into any number of concurrent reader threads.
    ///
    /// Consistency: the synchronous engine publishes the view for batch `t`
    /// before pulling batch `t + 1` from the stream, so a reader that calls
    /// [`ViewReader::latest`] after the run observed every batch —
    /// freshness lag 0 and read-your-writes per batch (`DESIGN.md` §8, tested
    /// by `tests/serve.rs::sync_engine_publishes_every_batch_in_order`).
    pub fn serve_views(&mut self) -> ViewReader {
        let (sink, reader) = ServeSink::arm(ViewBuilder::new(self.solution.query()));
        self.serving = Some(sink);
        reader
    }
}

/// The write side of the serve path, the same for both engines: fold what
/// just happened into the [`ViewBuilder`], freeze a view, publish it.
struct ServeSink {
    builder: ViewBuilder,
    publisher: ViewPublisher,
}

impl ServeSink {
    /// Open a publication chain at `builder`'s genesis view.
    fn arm(builder: ViewBuilder) -> (Self, ViewReader) {
        let (publisher, reader) = view_channel(builder.genesis());
        (ServeSink { builder, publisher }, reader)
    }

    /// Observe → build → publish. `seq` is `None` for the initial evaluation
    /// (`observe` then folds the loaded network), the batch's sequence number
    /// afterwards (`observe` folds the applied changeset).
    fn publish(
        &mut self,
        seq: Option<u64>,
        observe: impl FnOnce(&mut ViewBuilder),
        snapshot: &CandidateSnapshot,
        result: &str,
    ) {
        observe(&mut self.builder);
        self.publisher
            .publish(self.builder.build(seq, snapshot, result));
    }
}

/// The synchronous engine publishes from the driver's [`RunObserver`] hook.
impl RunObserver for ServeSink {
    fn loaded(&mut self, initial: &SocialNetwork, result: &str, solution: &dyn Solution) {
        let snapshot = solution.candidate_snapshot().unwrap_or_default();
        self.publish(None, |b| b.observe_initial(initial), &snapshot, result);
    }

    fn applied(&mut self, seq: u64, changes: &ChangeSet, result: &str, solution: &dyn Solution) {
        let snapshot = solution.candidate_snapshot().unwrap_or_default();
        self.publish(Some(seq), |b| b.observe_batch(changes), &snapshot, result);
    }
}

impl IngestEngine for SyncEngine {
    fn name(&self) -> String {
        self.solution.name()
    }

    fn run(
        &mut self,
        initial: &SocialNetwork,
        stream: &mut dyn Iterator<Item = ChangeSet>,
        batches: usize,
    ) -> Result<EngineReport, EngineError> {
        let (report, results) = match self.serving.take() {
            Some(mut sink) => self.driver.run_with_observer(
                self.solution.as_mut(),
                initial,
                stream,
                batches,
                &mut sink,
            ),
            None => self
                .driver
                .run_with_results(self.solution.as_mut(), initial, stream, batches),
        };
        Ok(EngineReport {
            stream: report,
            results,
            pipeline: None,
        })
    }
}

// ---------------------------------------------------------------------------
// Pipeline configuration
// ---------------------------------------------------------------------------

/// Deterministic per-stage delay injection, used by the differential tests to
/// force adversarial stage interleavings (a shard finishing batches long after
/// its peers, the router stalling mid-stream) without giving up replayability:
/// the delay of every (stage, shard, seq) triple is a pure function of `seed`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayInjection {
    /// Seed of the delay schedule.
    pub seed: u64,
    /// Maximum delay injected before routing one batch, in microseconds.
    pub max_route_micros: u64,
    /// Maximum delay injected before one shard applies one batch, in
    /// microseconds.
    pub max_apply_micros: u64,
}

impl DelayInjection {
    /// SplitMix64 — a tiny, seedable mix good enough to decorrelate delays.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Sleep the delay of one (stage, shard, seq) triple, if any: stage 1 is
    /// the router (shard 0), stage 2 a shard's apply.
    fn sleep(&self, stage: u64, shard: usize, seq: u64, max_micros: u64) {
        if max_micros == 0 {
            return;
        }
        let h = Self::mix(self.seed ^ Self::mix(stage ^ Self::mix(shard as u64 ^ seq)));
        let micros = h % (max_micros + 1);
        if micros > 0 {
            thread::sleep(Duration::from_micros(micros));
        }
    }
}

/// Configuration of a [`PipelinedEngine`].
#[derive(Clone, Debug, PartialEq)]
pub struct PipelineConfig {
    /// Capacity of every inter-stage queue. Small values couple the stages
    /// tightly (depth 0 would degenerate to a rendezvous barrier); large values
    /// let fast shards run far ahead at the cost of buffered memory and
    /// watermark lag. Values are clamped to ≥ 1.
    pub queue_depth: usize,
    /// Batches fed through the pipeline before measurement starts (their
    /// updates still apply; their latency is excluded).
    pub warmup_batches: usize,
    /// Whether the route stage coalesces batches first (on by default, matching
    /// [`StreamDriver`]).
    pub coalesce: bool,
    /// Optional deterministic per-stage delays (tests only).
    pub delays: Option<DelayInjection>,
    /// Chaos injection (tests and the CI chaos smoke): each `(shard, seq)`
    /// entry makes the apply worker of `shard` exit — without panicking —
    /// right before applying the batch with that sequence number, simulating a
    /// worker dying mid-run. Each entry fires at most once, so two entries for
    /// the same shard kill it twice (the replacement dies too). Without
    /// [`PipelineConfig::recovery`] the engine must then tear down cleanly and
    /// report [`EngineError::TruncatedRun`]; with it, every kill is restored
    /// and the run completes byte-identically to an uncrashed one.
    pub kill_shards: Vec<(usize, u64)>,
    /// When `Some`, the engine runs crash-tolerant: workers checkpoint their
    /// mirror state every [`RecoveryConfig::checkpoint_every`] batches, the
    /// supervisor keeps a bounded changeset log, and dead workers are restored
    /// and replayed instead of failing the run (counters in
    /// [`PipelineStats::recovery`]).
    pub recovery: Option<RecoveryConfig>,
    /// Elastic reshard schedule: each `(at_seq, new_count)` entry drains the
    /// whole worker fleet to a checkpoint right **before** routing batch
    /// `at_seq`, merges the drained per-shard state, re-partitions it over
    /// `new_count` shards ([`Partitioner::resize`]), and resumes the stream
    /// with one fresh worker generation per new shard — with no gap or
    /// duplicate in the merged output (DESIGN.md §5.8). Entries fire in
    /// `at_seq` order; an entry beyond the stream's end never fires.
    /// Resharding runs on the recovery machinery (checkpoints, changeset
    /// logs, catch-up replay), so a non-empty schedule arms
    /// [`PipelineConfig::recovery`] with defaults when the caller left it off.
    ///
    /// [`Partitioner::resize`]: datagen::partition::Partitioner::resize
    pub reshards: Vec<(u64, usize)>,
    /// When `Some`, checkpoints are published through a
    /// [`FileCheckpointStore`] rooted at this directory instead of the
    /// in-process store: snapshots survive the process at the cost of file
    /// I/O on the checkpoint cadence. The directory is created as needed;
    /// snapshot files a previous run left behind are cleared at start (a run
    /// recovers only from its own checkpoints). An unusable directory
    /// degrades to the in-process store with a warning rather than failing
    /// the run.
    pub checkpoint_dir: Option<std::path::PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            queue_depth: 4,
            warmup_batches: 0,
            coalesce: true,
            delays: None,
            kill_shards: Vec::new(),
            recovery: None,
            reshards: Vec::new(),
            checkpoint_dir: None,
        }
    }
}

/// Pipeline-internal statistics of one [`PipelinedEngine::run`], surfaced by
/// `stream_throughput --pipeline`.
#[derive(Clone, Debug, Default)]
pub struct PipelineStats {
    /// Configured capacity of every inter-stage queue.
    pub queue_depth: usize,
    /// Number of shard apply workers at the **end** of the run (an elastic
    /// reshard changes the count mid-stream; see [`PipelineStats::reshards`]).
    pub shards: usize,
    /// Sends that found the ingest → route queue full (the stream out-paced
    /// routing and blocked).
    pub ingest_backpressure: u64,
    /// Sends that found a route → shard queue full (routing out-paced at least
    /// one apply worker and blocked).
    pub route_backpressure: u64,
    /// Sends that found the shard → merge queue full (an apply worker out-paced
    /// the merger and blocked).
    pub apply_backpressure: u64,
    /// Maximum, over all merged batches, of how many batches the
    /// furthest-ahead shard had already completed beyond the batch being
    /// merged — how out-of-order the shards actually ran.
    pub max_watermark_lag: u64,
    /// Per-shard apply time in seconds, indexed `[shard][batch]` over **all**
    /// batches including warm-up (mirrors
    /// [`crate::shard::ShardedSolution::per_shard_latencies`]). Under an
    /// elastic reshard the lanes are ragged: a shard id that stops existing
    /// keeps its (frozen) history, one that starts existing mid-stream has a
    /// shorter lane.
    pub per_shard_apply_latencies: Vec<Vec<f64>>,
    /// `(posts, comments)` owned by each shard at the end of the run.
    pub shard_sizes: Vec<(usize, usize)>,
    /// Routing statistics accumulated by the route stage.
    pub router: ShardRouterStats,
    /// Crash/restore counters — `Some` exactly when the recovery machinery
    /// ran ([`PipelineConfig::recovery`] set, or armed implicitly by a
    /// [`PipelineConfig::reshards`] schedule).
    pub recovery: Option<RecoveryStats>,
    /// One entry per executed elastic reshard, in stream order.
    pub reshards: Vec<ReshardStats>,
}

/// One elastic reshard executed by [`PipelinedEngine::run`] (see
/// [`PipelineConfig::reshards`]): the cost of the three barrier phases plus
/// how much ownership actually moved.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReshardStats {
    /// The barrier sequence number: batches `< at_seq` ran under the old
    /// topology, batches `>= at_seq` under the new one.
    pub at_seq: u64,
    /// Shard count before the barrier.
    pub from_shards: usize,
    /// Shard count after the barrier.
    pub to_shards: usize,
    /// Draining every worker generation to exactly `at_seq` (queue close,
    /// lanes handed back by value, catch-up replay of crashed generations),
    /// in seconds.
    pub drain_secs: f64,
    /// Merging the drained lanes' mirrors, re-partitioning under the resized
    /// policy, rebuilding the per-shard lanes, and publishing the new
    /// topology's checkpoints, in seconds.
    pub split_secs: f64,
    /// Spawning the new worker generations, in seconds.
    pub respawn_secs: f64,
    /// Comments whose owning shard changed across the barrier.
    pub moved_comments: u64,
}

// ---------------------------------------------------------------------------
// Channel payloads
// ---------------------------------------------------------------------------

// The ingest → route and route → shard queues both carry [`LogEntry`]s (seq,
// ingest stamp, changeset — the shape the changeset log keeps for replay):
// the whole micro-batch first, then one shard's slice of the coalesced batch.

/// What flows into the watermark merge: per-shard apply outcomes, plus the
/// sequenced topology-control item an elastic reshard injects. Topology is a
/// *sequenced* property of the outcome stream — the supervisor sends
/// [`MergeItem::Reshard`] only after every old-generation outcome is already
/// in this queue, so the merge never sees an outcome under the wrong lane
/// count.
enum MergeItem {
    /// `(shard, when the originating batch entered the pipeline, outcome)`.
    Outcome(usize, Instant, ApplyOutcome),
    Reshard {
        /// Every batch `< at` was merged under the old topology when this
        /// item is processed (the barrier drained the fleet through `at`).
        at: u64,
        /// The new lane count.
        shards: usize,
    },
}

/// Send preferring the non-blocking path, counting the times the queue was full
/// (the stage blocked — backpressure). Returns `false` when the receiver is
/// disconnected: the downstream stage died, the item is lost, and the sending
/// stage must stop producing — swallowing the disconnect here is what used to
/// turn a dead shard worker into a silently truncated "successful" report.
#[must_use]
fn send_counting<T>(tx: &SyncSender<T>, item: T, blocked: &mut u64) -> bool {
    // lint: allow(raw-send) — this is the counted helper itself
    match tx.try_send(item) {
        Ok(()) => true,
        Err(TrySendError::Full(item)) => {
            *blocked += 1;
            tx.send(item).is_ok() // lint: allow(raw-send) — counted helper: blocking retry after the Full arm counted the stall
        }
        Err(TrySendError::Disconnected(_)) => false,
    }
}

/// The serve-path state the merge stage owns when view publication is armed:
/// the sink, and the side channel the route stage feeds each coalesced batch
/// through (the builder needs the raw friendship operations, which apply
/// outcomes do not carry).
struct ServeMergeState {
    sink: ServeSink,
    changes_rx: Receiver<(u64, ChangeSet)>,
}

impl ServeMergeState {
    /// Publish the view for merged batch `t`.
    ///
    /// Availability argument: the route stage sends `(t, batch)` on the side
    /// channel *before* routing batch `t`'s per-shard ops, and the merge only
    /// reaches `t` after every shard delivered `t`'s outcome — so the batch
    /// is already buffered when this runs and the `recv` returns immediately
    /// (buffered items survive sender disconnect). `Err` means the route
    /// stage died before sending this batch, which the merge-before-send
    /// ordering rules out except during teardown; skipping publication there
    /// (staleness, never corruption) is the intended failure mode.
    fn publish(
        &mut self,
        t: u64,
        candidates: Vec<RankedEntry>,
        merger: &ShardMerger,
        result: &str,
    ) {
        if let Ok((seq, batch)) = self.changes_rx.recv() {
            if seq != t {
                return; // protocol drift — serve stale rather than wrong
            }
            let snapshot = CandidateSnapshot {
                top: merger.current().to_vec(),
                candidates,
            };
            self.sink
                .publish(Some(t), |b| b.observe_batch(&batch), &snapshot, result);
        }
    }
}

/// Everything the merge stage accumulates, returned when its input closes.
struct MergeOutput {
    /// Merged result per batch, indexed by seq (warm-up included).
    results: Vec<String>,
    /// Ingest-enqueue instant per batch.
    enqueued: Vec<Instant>,
    /// Merge-completion instant per batch.
    completed: Vec<Instant>,
    max_watermark_lag: u64,
    per_shard_apply: Vec<Vec<f64>>,
}

/// Fold `from` into `into` — how router counters survive the router being
/// replaced at a reshard barrier.
fn accumulate_router_stats(into: &mut ShardRouterStats, from: ShardRouterStats) {
    into.routed_operations += from.routed_operations;
    into.broadcast_deliveries += from.broadcast_deliveries;
    into.friendship_deliveries += from.friendship_deliveries;
    into.imported_boundary_edges += from.imported_boundary_edges;
}

// ---------------------------------------------------------------------------
// Shard apply workers
// ---------------------------------------------------------------------------

/// Context a worker generation shares with the supervisor: the factory that
/// rebuilds lanes on restore, the checkpoint plumbing, and the channels every
/// generation reports through. Owned (`Arc`/clones) rather than borrowed so
/// worker threads are plain `'static` spawns the sync facade can schedule.
#[derive(Clone)]
struct WorkerShared {
    factory: Arc<dyn ShardFactory>,
    delays: Option<DelayInjection>,
    /// Checkpoint cadence (clamped ≥ 1) and store — in-process by default,
    /// [`FileCheckpointStore`] under [`PipelineConfig::checkpoint_dir`].
    /// `Some` exactly when recovery is enabled.
    checkpoints: Option<CheckpointSink>,
    out_tx: SyncSender<MergeItem>,
    status_tx: Sender<WorkerExit>,
}

impl WorkerShared {
    /// Rebuild `shard`'s lane from a snapshot the store served.
    fn restore(&self, shard: usize, snapshot: &[u8]) -> Lane {
        Lane::restore(self.factory.as_ref(), snapshot)
            .expect("the checkpoint store only serves snapshots it encoded") // lint: allow(panic) — stores verify before serving; corruption past that is a bug, not input
            .publishing(shard, self.checkpoints.clone())
    }
}

/// How a worker generation starts: with a lane by value (built at load or
/// split at a reshard barrier), or from a checkpoint snapshot plus a backlog —
/// decoded and rebuilt on the worker thread, so the supervisor keeps routing.
enum WorkerSeed {
    Fresh(Lane),
    Restored {
        snapshot: Vec<u8>,
        backlog: Vec<LogEntry>,
        /// When the supervisor detected the crash — the restore-latency clock.
        started: Instant,
    },
}

/// How a worker generation's life ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// It drained its queue to a clean close.
    Drained,
    /// The kill injection at this seq fired; the supervisor retires the entry.
    Killed(u64),
    /// The evaluator panicked.
    Panicked,
    /// The merge stage went away — the run is failing regardless.
    MergerGone,
}

/// The one terminal status message every worker generation sends before it
/// goes away — the supervisor's crash detection and end-of-stream sweep both
/// count on exactly one of these per spawned generation.
struct WorkerExit {
    shard: usize,
    generation: u64,
    end: End,
    /// Restore latency (snapshot decode + rebuild + log replay) when this
    /// generation was a replacement.
    restore_secs: Option<f64>,
    /// The lane, handed back by value unless a panic wrecked it. The
    /// supervisor reuses it only after [`End::Drained`]: a crashed
    /// generation's state comes back through checkpoint + log, never this.
    lane: Option<Lane>,
    blocked: u64,
    checkpoints: u64,
    checkpoint_bytes: u64,
    replayed: u64,
}

/// One generation of one shard: a [`Lane`] plus what scheduling it on the
/// stage graph adds — kill injection, delay injection, outcome delivery.
struct Worker<'a> {
    shard: usize,
    generation: u64,
    shared: &'a WorkerShared,
    /// Kill-injection seqs still pending for this shard when the generation
    /// was spawned (already-fired entries are retired by the supervisor).
    kills: Vec<u64>,
    lane: Lane,
    blocked: u64,
    replayed: u64,
}

impl Worker<'_> {
    /// Kill check, [`Lane::step`], deliver — the one path live batches and
    /// log replay (on a worker thread or inline on the supervisor) share.
    fn step(&mut self, entry: &LogEntry, replaying: bool) -> Result<(), End> {
        if self.kills.contains(&entry.seq) {
            return Err(End::Killed(entry.seq));
        }
        match &self.shared.delays {
            Some(d) if !replaying => d.sleep(2, self.shard, entry.seq, d.max_apply_micros),
            _ => {}
        }
        let outcome = self.lane.step(entry.seq, &entry.ops);
        self.replayed += u64::from(replaying);
        let item = MergeItem::Outcome(self.shard, entry.enqueued, outcome);
        if send_counting(&self.shared.out_tx, item, &mut self.blocked) {
            Ok(())
        } else {
            Err(End::MergerGone)
        }
    }

    /// One generation's whole life: replay the backlog, then drain the route
    /// queue (if it has one) to close. Returns how it ended and, for a
    /// restored generation, the restore latency.
    fn work(
        &mut self,
        backlog: Vec<LogEntry>,
        rx: Option<Receiver<LogEntry>>,
        restore_started: Option<Instant>,
    ) -> (End, Option<f64>) {
        // every restored generation reports a restore duration — even one that
        // dies again mid-replay — so `restores` deterministically equals
        // `crashes` no matter where in the replay window the next kill lands
        let elapsed = |started: Option<Instant>| started.map(|t| t.elapsed().as_secs_f64());
        for entry in backlog {
            if let Err(end) = self.step(&entry, true) {
                // `test-bug-midreplay-undercount` reverts the PR 6 fix above:
                // a kill landing during backlog replay reports no restore
                // duration, so the model-check regression schedule can prove
                // the checker catches the `restores < crashes` undercount.
                let undercount = cfg!(feature = "test-bug-midreplay-undercount");
                return (end, elapsed(restore_started.filter(|_| !undercount)));
            }
        }
        let restore_secs = elapsed(restore_started);
        for entry in rx.into_iter().flatten() {
            if let Err(end) = self.step(&entry, false) {
                return (end, restore_secs);
            }
        }
        (End::Drained, restore_secs)
    }

    /// [`Worker::work`] on a worker thread. A panicking evaluator is a crash
    /// like any other: contain it here so the generation still reports its
    /// terminal status.
    fn run(
        mut self,
        backlog: Vec<LogEntry>,
        rx: Receiver<LogEntry>,
        started: Option<Instant>,
    ) -> WorkerExit {
        let result = catch_unwind(AssertUnwindSafe(|| self.work(backlog, Some(rx), started)));
        let (end, restore_secs) = result.unwrap_or((End::Panicked, None));
        self.exit(end, restore_secs)
    }

    fn exit(mut self, end: End, restore_secs: Option<f64>) -> WorkerExit {
        let (checkpoints, checkpoint_bytes) = self.lane.take_checkpoint_stats();
        WorkerExit {
            shard: self.shard,
            generation: self.generation,
            end,
            restore_secs,
            lane: (end != End::Panicked).then_some(self.lane),
            blocked: self.blocked,
            checkpoints,
            checkpoint_bytes,
            replayed: self.replayed,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker fleet supervision
// ---------------------------------------------------------------------------

/// The supervisor's view of the live worker fleet: one route queue and one
/// current generation per shard, plus the exit/restore accounting that spans
/// generations. Crash recovery (kill → respawn in place) and elastic
/// resharding (drain the whole fleet → merge/split its lanes → respawn under
/// a new topology) are both *generation transitions* over this one structure,
/// which is what keeps their checkpoint, replay, and merge-dedup behavior
/// identical.
struct WorkerFleet {
    shared: WorkerShared,
    depth: usize,
    /// Current shard count — changes only at a reshard barrier.
    shards: usize,
    txs: Vec<SyncSender<LogEntry>>,
    /// Generation currently owning each shard. Generation numbers are global
    /// and never reused across topology changes ([`WorkerFleet::next_gen`]),
    /// so a stale exit can never be mistaken for the current generation of a
    /// recycled shard id.
    current_gen: Vec<u64>,
    next_gen: u64,
    /// Generations ever spawned / terminal statuses absorbed.
    generations: usize,
    exits_seen: usize,
    latest_exit: Vec<Option<WorkerExit>>,
    /// `(shard, seq)` kill injections that have not fired yet. One addressed
    /// at a shard id outside the current topology just waits: it arms when a
    /// reshard brings the id (back) into existence.
    pending_kills: Vec<(usize, u64)>,
    logs: Vec<ChangesetLog>,
    handles: Vec<thread::JoinHandle<()>>,
    agg: RecoveryStats,
    apply_backpressure: u64,
}

impl WorkerFleet {
    /// An empty fleet over `shards` shards; the caller spawns generation 0.
    fn new(shared: WorkerShared, depth: usize, shards: usize, kills: &[(usize, u64)]) -> Self {
        let mut fleet = WorkerFleet {
            shared,
            depth,
            shards: 0,
            txs: Vec::new(),
            current_gen: Vec::new(),
            next_gen: 0,
            generations: 0,
            exits_seen: 0,
            latest_exit: Vec::new(),
            pending_kills: kills.to_vec(),
            logs: Vec::new(),
            handles: Vec::new(),
            agg: RecoveryStats::default(),
            apply_backpressure: 0,
        };
        fleet.adopt_topology(shards);
        fleet
    }

    /// Spawn the next generation for `shard`: create its route queue, assign
    /// the globally-unique generation number, and move the seed in. The
    /// supervisor joins every generation after its terminal status arrives.
    fn spawn(&mut self, shard: usize, seed: WorkerSeed) {
        let (tx, rx) = sync_channel::<LogEntry>(self.depth);
        if shard == self.txs.len() {
            self.txs.push(tx);
        } else {
            self.txs[shard] = tx; // lint: allow(index) — callers spawn over 0..shards in order or replace a live shard
        }
        let generation = self.next_gen;
        self.next_gen += 1;
        self.current_gen[shard] = generation; // lint: allow(index) — shard < shards as above
        self.generations += 1;
        let shared = self.shared.clone();
        let kills = self.kills_for(shard);
        self.handles.push(thread::spawn(move || {
            let (lane, backlog, started) = match seed {
                WorkerSeed::Fresh(lane) => (lane, Vec::new(), None),
                WorkerSeed::Restored {
                    snapshot,
                    backlog,
                    started,
                } => (shared.restore(shard, &snapshot), backlog, Some(started)),
            };
            let worker = Worker {
                shard,
                generation,
                shared: &shared,
                kills,
                lane,
                blocked: 0,
                replayed: 0,
            };
            let exit = worker.run(backlog, rx, started);
            // lint: allow(raw-send) — status channel is unbounded; if the supervisor is gone the exit status is moot
            let _ = shared.status_tx.send(exit);
        }));
    }

    /// The pending kill-injection seqs of `shard`.
    fn kills_for(&self, shard: usize) -> Vec<u64> {
        let on_shard = self.pending_kills.iter().filter(|&&(s, _)| s == shard);
        on_shard.map(|&(_, seq)| seq).collect()
    }

    /// Fold one terminal worker status into the fleet's accounting.
    fn account(&mut self, exit: WorkerExit) {
        self.apply_backpressure += exit.blocked;
        self.agg.checkpoints += exit.checkpoints;
        self.agg.checkpoint_bytes += exit.checkpoint_bytes;
        self.agg.replayed_batches += exit.replayed;
        if let Some(secs) = exit.restore_secs {
            self.agg.restores += 1;
            self.agg.max_restore_secs = self.agg.max_restore_secs.max(secs);
        }
        if exit.end != End::Drained {
            self.agg.crashes += 1;
        }
        if let End::Killed(k) = exit.end {
            let fired = (exit.shard, k);
            if let Some(at) = self.pending_kills.iter().position(|&x| x == fired) {
                self.pending_kills.remove(at); // one entry per firing: a duplicate kills the replacement too
            }
        }
        let shard = exit.shard;
        self.latest_exit[shard] = Some(exit); // lint: allow(index) — exit.shard < shards as above
    }

    /// Receive one spawned generation's terminal status and account for it.
    fn absorb_next(&mut self, status_rx: &Receiver<WorkerExit>) -> (usize, u64) {
        let exit = status_rx
            .recv()
            .expect("every worker generation reports an exit"); // lint: allow(panic) — workers send their exit on every path, panic included (catch_unwind)
        let from = (exit.shard, exit.generation);
        self.exits_seen += 1;
        self.account(exit);
        from
    }

    /// Block until the current generation of `shard` has reported its
    /// terminal status, absorbing any other shards' exits that arrive first.
    /// When two shards die close together, the detection loop of the first
    /// may already have absorbed this generation's exit — blocking for it
    /// again would wait forever.
    /// `test-bug-absorbed-exit` reverts that PR 6 fix: the supervisor blocks
    /// for an exit another detection loop already absorbed, and the
    /// model-check regression schedule proves that deadlocks.
    fn await_generation(&mut self, shard: usize, status_rx: &Receiver<WorkerExit>) {
        let current = (shard, self.current_gen[shard]); // lint: allow(index) — shard < shards: callers pass a live shard id
        let already_absorbed = !cfg!(feature = "test-bug-absorbed-exit")
            && self.latest_exit[shard] // lint: allow(index) — shard < shards as above
                .as_ref()
                .is_some_and(|exit| exit.generation == current.1);
        if already_absorbed {
            return;
        }
        while self.absorb_next(status_rx) != current {}
    }

    /// Close every route queue, absorb every outstanding terminal status, and
    /// join the worker threads. After this the fleet is empty; the caller
    /// settles each shard's lane and respawns (reshard barrier) or aggregates
    /// (end of stream).
    fn drain(&mut self, status_rx: &Receiver<WorkerExit>) {
        self.txs.clear(); // dropping the senders closes the queues
        while self.exits_seen < self.generations {
            self.absorb_next(status_rx);
        }
        // Every generation has reported, so the worker threads are draining
        // their last drops; join them before the caller moves on (a
        // generation can only panic out of its thread during a model-check
        // teardown, which aborts the supervisor at its next sync op anyway).
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// `shard`'s latest snapshot plus the logged entries from it up to (not
    /// including) `below` — what a restore rebuilds from and replays.
    fn restore_point(&self, shard: usize, below: u64) -> (Vec<u8>, Vec<LogEntry>) {
        let sink = self
            .shared
            .checkpoints
            .as_ref()
            .expect("recovery implies a store"); // lint: allow(panic) — callers restore only when recovery is configured
        let (at, snapshot) = sink
            .store
            .load(shard)
            .expect("initial checkpoints are published at load"); // lint: allow(panic) — load publishes an initial checkpoint for every shard before workers start
        let backlog = self.logs[shard] // lint: allow(index) — shard < shards: callers pass a live shard id
            .replay_range(at, u64::MAX)
            .filter(|entry| entry.seq < below)
            .cloned()
            .collect();
        (snapshot, backlog)
    }

    /// After a [`WorkerFleet::drain`], hand back `shard`'s final exit with
    /// every batch below `through` applied to its lane. A generation that
    /// drained cleanly already is that. One that died with no later batch to
    /// trip a failed send (killed at the final batch, inside a barrier's
    /// drain window, or while replaying at stream end) is only visible here:
    /// it is restored from its latest checkpoint and replayed **on the
    /// supervisor thread** as an ordinary worker generation run inline (the
    /// merger deduplicates what the dead generation already delivered). A
    /// still-pending kill inside the replay window fires here too — another
    /// crash, another restore, from the checkpoint again — which keeps
    /// `restores == crashes` no matter where the kill lands.
    fn settle(&mut self, shard: usize, through: u64, router: &mut ShardRouter) -> WorkerExit {
        loop {
            let exit = self.latest_exit[shard] // lint: allow(index) — shard < shards: callers enumerate the drained topology
                .take()
                .expect("every shard spawned at least one generation"); // lint: allow(panic) — every shard spawns a generation before the fleet is drained
            if self.shared.checkpoints.is_none()
                || matches!(exit.end, End::Drained | End::MergerGone)
            {
                // drained: done. Otherwise nothing to restore from (no
                // recovery) or nobody to deliver to (no merger): the run fails
                return exit;
            }
            let started = Instant::now();
            let (snapshot, backlog) = self.restore_point(shard, through);
            router.record_restore(shard, shard);
            let mut worker = Worker {
                shard,
                generation: self.current_gen[shard], // lint: allow(index) — shard < shards as above
                shared: &self.shared,
                kills: self.kills_for(shard),
                lane: self.shared.restore(shard, &snapshot),
                blocked: 0,
                replayed: 0,
            };
            let (end, restore_secs) = worker.work(backlog, None, Some(started));
            let exit = worker.exit(end, restore_secs);
            self.account(exit);
        }
    }

    /// Reset the per-shard state for a topology of `new_count` shards. The
    /// route queues must be drained (or not spawned yet). Changeset logs start
    /// fresh: the new topology's checkpoints sit at the barrier, so nothing
    /// older is replayable.
    fn adopt_topology(&mut self, new_count: usize) {
        debug_assert!(self.txs.is_empty(), "adopting a topology over a live fleet");
        self.shards = new_count;
        self.txs = Vec::with_capacity(new_count);
        self.current_gen = vec![0; new_count];
        self.latest_exit = (0..new_count).map(|_| None).collect();
        self.logs = (0..new_count).map(|_| ChangesetLog::default()).collect();
    }

    /// Execute one reshard barrier right before routing batch `at`: drain the
    /// fleet, take every shard's lane at exactly `at`, merge and re-partition
    /// their mirrors over `new_count` shards, publish the new topology's
    /// checkpoints, tell the merge stage to resize its lanes, and respawn one
    /// fresh generation per new shard. Returns the replacement router and the
    /// barrier's cost accounting. The whole protocol and its correctness
    /// argument live in DESIGN.md §5.8.
    fn reshard(
        &mut self,
        at: u64,
        new_count: usize,
        mut router: ShardRouter,
        status_rx: &Receiver<WorkerExit>,
    ) -> (ShardRouter, ReshardStats) {
        let from_shards = self.shards;
        // Phase 1 — drain. The supervisor has routed exactly the batches
        // below `at`, so every cleanly draining generation hands its lane back
        // at `at`; one that died inside the drain window is replayed to `at`
        // from its checkpoint + log on this thread.
        let drain_start = Instant::now();
        self.drain(status_rx);
        let drained: Vec<ShardCheckpoint> = (0..from_shards)
            .map(|shard| {
                let lane = self.settle(shard, at, &mut router).lane;
                lane.expect("a settled generation hands its lane back") // lint: allow(panic) — settle replaces every panicked generation; only a vanished merger (the run is failing) skips that
                    .into_checkpoint()
            })
            .collect();
        let drain_secs = drain_start.elapsed().as_secs_f64();

        // Phase 2 — merge, re-partition, rebuild. The per-shard mirrors
        // under-approximate the friendship graph (an edge whose endpoints
        // were never co-present on any shard lives only in the router's
        // global adjacency), so the union is re-stamped with the live edge
        // set before splitting (see ShardCheckpoint::merge).
        let split_start = Instant::now();
        let mut union = ShardCheckpoint::merge(drained);
        debug_assert_eq!(union.applied_through, at, "lanes drained off the barrier");
        union.network.friendships = router.live_friendships();
        let partitioner = router.partitioner().resize(new_count);
        let parts = union.split(partitioner.as_ref(), new_count);
        let new_router = ShardRouter::with_partitioner(&union.network, partitioner);
        let moved_comments = union
            .network
            .comments
            .iter()
            .filter(|c| router.shard_of_comment(c.id) != new_router.shard_of_comment(c.id))
            .count() as u64;
        if let Some(sink) = &self.shared.checkpoints {
            sink.store.resize(new_count);
        }
        // Rebuild the lanes from the split mirrors and publish from *them*:
        // split routes candidates to their new owners but cannot widen a list
        // the donor had cut at k — the rebuilt evaluator's own list is the
        // exact one (see ShardCheckpoint::split).
        let lanes: Vec<Lane> = parts
            .into_iter()
            .enumerate()
            .map(|(shard, part)| {
                let mut lane = Lane::from_mirror(self.shared.factory.as_ref(), part.network, at)
                    .publishing(shard, self.shared.checkpoints.clone());
                lane.publish();
                lane
            })
            .collect();
        let split_secs = split_start.elapsed().as_secs_f64();

        // Phase 3 — adopt the topology and respawn. The control item is
        // sequenced: every pre-barrier outcome is already in the merge queue
        // (all old generations exited before this send), and the new
        // generations cannot produce an outcome until the supervisor routes
        // batch `at` after this returns.
        let respawn_start = Instant::now();
        self.adopt_topology(new_count);
        let _ = send_counting(
            &self.shared.out_tx,
            MergeItem::Reshard {
                at,
                shards: new_count,
            },
            &mut self.apply_backpressure,
        );
        for (shard, lane) in lanes.into_iter().enumerate() {
            self.spawn(shard, WorkerSeed::Fresh(lane));
        }
        let respawn_secs = respawn_start.elapsed().as_secs_f64();
        (
            new_router,
            ReshardStats {
                at_seq: at,
                from_shards,
                to_shards: new_count,
                drain_secs,
                split_secs,
                respawn_secs,
                moved_comments,
            },
        )
    }
}

// ---------------------------------------------------------------------------
// The pipelined engine
// ---------------------------------------------------------------------------

/// The staged ingestion engine described in the [module documentation](self):
/// ingest → coalesce/route → N per-shard apply workers → watermark merge, all
/// long-lived threads over bounded queues. Construct with any [`ShardFactory`];
/// each call to [`IngestEngine::run`] builds a fresh router and fresh per-shard
/// evaluators, so one engine value can measure many runs.
pub struct PipelinedEngine {
    factory: Arc<dyn ShardFactory>,
    shards: usize,
    /// The pristine partition policy, cloned into every run's router.
    partitioner: Box<dyn Partitioner>,
    config: PipelineConfig,
    /// Armed by [`PipelinedEngine::serve_views`]; consumed by the next run.
    serving: Option<ServeSink>,
}

impl PipelinedEngine {
    /// Create a pipelined engine over `shards` shards of `factory`'s evaluators
    /// with the default modulo partition policy. `shards == 0` is treated as 1.
    pub fn new(factory: Box<dyn ShardFactory>, shards: usize, config: PipelineConfig) -> Self {
        Self::with_partitioner(factory, Box::new(ModuloPartitioner::new(shards)), config)
    }

    /// Create a pipelined engine with an injected partition policy; the shard
    /// count is the policy's.
    pub fn with_partitioner(
        factory: Box<dyn ShardFactory>,
        partitioner: Box<dyn Partitioner>,
        config: PipelineConfig,
    ) -> Self {
        let shards = partitioner.shard_count();
        PipelinedEngine {
            factory: Arc::from(factory),
            shards,
            partitioner,
            config,
            serving: None,
        }
    }

    /// Convenience constructor for the GraphBLAS backends.
    pub fn graphblas(
        query: crate::model::Query,
        backend: crate::shard::ShardBackend,
        shards: usize,
        config: PipelineConfig,
    ) -> Self {
        Self::new(
            Box::new(crate::shard::GraphBlasShardFactory::new(query, backend)),
            shards,
            config,
        )
    }

    /// The configured number of shard apply workers.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Arm view publication for the **next** run and return a reader on the
    /// publication chain. The merge stage publishes one
    /// [`crate::serve::QueryView`] right after merging each batch (epoch 1 =
    /// the initial evaluation, published before the stages spawn; +1 per
    /// merged batch, warm-up included); the reader starts at the epoch-0
    /// genesis view and can be cloned into any number of reader threads that
    /// run concurrently with the pipeline.
    ///
    /// Consistency: publication trails the apply path by the queue depths
    /// (bounded staleness, not read-your-writes mid-run), but epochs observed
    /// through one reader never decrease, and after the run the latest view
    /// reflects the final batch — `DESIGN.md` §8, tested by
    /// `tests/serve.rs::pipelined_engine_final_view_matches_final_result` and
    /// the `serve` model-check schedules.
    pub fn serve_views(&mut self) -> ViewReader {
        let mut builder = ViewBuilder::new(self.factory.query());
        // Views advertise the topology they were built under; the merge stage
        // re-stamps the builder when a reshard barrier changes it mid-stream.
        builder.set_shards(self.shards);
        let (sink, reader) = ServeSink::arm(builder);
        self.serving = Some(sink);
        reader
    }

    /// The merge stage: consume `(shard, outcome)` pairs off the one shared
    /// outcome queue strictly in batch order — batch `t` is merged only once
    /// **all** shards delivered `t` (their watermark passed `t`) — folding
    /// each batch's candidate union through [`ShardMerger`]. Outcomes arriving
    /// early (a shard running ahead) are buffered; the distance the furthest
    /// shard ran ahead is recorded as watermark lag. Recovery replays
    /// re-deliver outcomes the dead generation already delivered; within a
    /// shard, generations deliver in sequence order, so "not the next expected
    /// seq" identifies a duplicate — and deterministic replay makes the
    /// duplicate byte-identical to the accepted original, which is why
    /// dropping it preserves per-batch byte-identity.
    /// When serving is armed, `serve` carries the view builder/publisher plus
    /// the side channel the route stage feeds each coalesced batch through
    /// (so the builder can track friendship components); the merge publishes
    /// one view per merged batch.
    fn merge_stage(
        mut merger: ShardMerger,
        rx: Receiver<MergeItem>,
        shards: usize,
        mut serve: Option<ServeMergeState>,
    ) -> (MergeOutput, ShardMerger) {
        let mut buffers: Vec<VecDeque<(Instant, ApplyOutcome)>> =
            (0..shards).map(|_| VecDeque::new()).collect();
        // Per shard: the next sequence number to accept. Buffers hold exactly
        // the accepted-but-unmerged range `[t, delivered[s])`.
        let mut delivered: Vec<u64> = vec![0; shards];
        let mut t = 0u64;
        let mut out = MergeOutput {
            results: Vec::new(),
            enqueued: Vec::new(),
            completed: Vec::new(),
            max_watermark_lag: 0,
            per_shard_apply: vec![Vec::new(); shards],
        };
        for item in rx {
            let (shard, enqueued, outcome) = match item {
                MergeItem::Outcome(shard, enqueued, outcome) => (shard, enqueued, outcome),
                MergeItem::Reshard {
                    at,
                    shards: new_shards,
                } => {
                    // The control item is sequenced behind every old-topology
                    // outcome, so the merge has caught up to the barrier: all
                    // lanes are drained and the next batch to merge is `at`.
                    debug_assert!(
                        buffers.iter().all(VecDeque::is_empty),
                        "reshard control arrived with buffered outcomes"
                    );
                    debug_assert_eq!(t, at, "merge reached {t} but the barrier is {at}");
                    buffers = (0..new_shards).map(|_| VecDeque::new()).collect();
                    delivered = vec![at; new_shards];
                    // Latency lanes: a grown topology appends fresh (shorter)
                    // lanes; a shrunk one freezes the removed shards' history.
                    if new_shards > out.per_shard_apply.len() {
                        out.per_shard_apply.resize_with(new_shards, Vec::new);
                    }
                    if let Some(state) = serve.as_mut() {
                        // Views published from here on note the new topology
                        // (the epoch chain itself continues uninterrupted).
                        state.sink.builder.set_shards(new_shards);
                    }
                    continue;
                }
            };
            // lint: allow(index) — outcome.shard is validated against shards at the recv site
            if outcome.seq != delivered[shard] {
                debug_assert!(
                    outcome.seq < delivered[shard], // lint: allow(index) — outcome.shard < shards as above
                    "shard {shard} delivered seq {} but {} was expected — a gap, not a replay",
                    outcome.seq,
                    delivered[shard] // lint: allow(index) — outcome.shard < shards as above
                );
                continue; // replayed duplicate of an already-accepted outcome
            }
            delivered[shard] += 1; // lint: allow(index) — outcome.shard < shards as above
            buffers[shard].push_back((enqueued, outcome)); // lint: allow(index) — outcome.shard < shards as above
            while buffers.iter().all(|buffer| !buffer.is_empty()) {
                for &d in &delivered {
                    out.max_watermark_lag = out.max_watermark_lag.max(d - 1 - t);
                }
                let mut any_removals = false;
                let mut union: Vec<RankedEntry> = Vec::new();
                let mut enqueued = None;
                for (shard, buffer) in buffers.iter_mut().enumerate() {
                    let (at, outcome) = buffer.pop_front().expect("buffer non-empty"); // lint: allow(panic) — the merge fires only when every per-shard buffer is non-empty (checked above)
                    debug_assert_eq!(outcome.seq, t, "merge fell out of batch order");
                    any_removals |= outcome.had_removals;
                    union.extend(outcome.candidates);
                    out.per_shard_apply[shard].push(outcome.apply_secs); // lint: allow(index) — per_shard_apply has a lane for every buffer (sized with them, only ever grown)
                    enqueued.get_or_insert(at);
                }
                // `merge` consumes the union; the serve path needs it again as
                // the view's candidate pool, so keep a copy only when serving.
                let candidates = serve.as_ref().map(|_| union.clone());
                let result = merger.merge(union, any_removals);
                if let (Some(state), Some(candidates)) = (serve.as_mut(), candidates) {
                    state.publish(t, candidates, &merger, &result);
                }
                out.results.push(result);
                out.enqueued.extend(enqueued); // shard 0's stamp; every shard carries the same one
                out.completed.push(Instant::now());
                t += 1;
            }
        }
        (out, merger)
    }
}

impl IngestEngine for PipelinedEngine {
    fn name(&self) -> String {
        let mut parts = vec![format!("{} shards", self.shards)];
        if self.partitioner.name() != "mod" {
            parts.push(self.partitioner.name().to_string());
        }
        if self.config.recovery.is_some() {
            parts.push("recover".to_string());
        }
        if !self.config.reshards.is_empty() {
            parts.push("reshard".to_string());
        }
        parts.push("pipelined".to_string());
        format!("{} ({})", self.factory.name(), parts.join(", "))
    }

    fn run(
        &mut self,
        initial: &SocialNetwork,
        stream: &mut dyn Iterator<Item = ChangeSet>,
        batches: usize,
    ) -> Result<EngineReport, EngineError> {
        let shards = self.shards;
        let depth = self.config.queue_depth.max(1);
        let warmup = self.config.warmup_batches;
        let total = warmup + batches;
        let coalesce_on = self.config.coalesce;
        let delays = self.config.delays.clone();
        let kill_shards = self.config.kill_shards.clone();
        // The reshard plan fires in at_seq order (a zero target count is
        // clamped at the barrier, like a zero shard count at construction).
        let mut reshards: Vec<(u64, usize)> = self.config.reshards.clone();
        reshards.sort_by_key(|&(at, _)| at);
        // Resharding runs on the recovery machinery (checkpoints, changeset
        // logs, catch-up replay), so a reshard schedule arms it with defaults
        // when the caller left it off.
        let recovery = (self.config.recovery.clone())
            .or_else(|| (!reshards.is_empty()).then(RecoveryConfig::default));
        let factory = Arc::clone(&self.factory);

        // Load phase: the exact function the synchronous driver runs —
        // partition, build the per-shard lanes (rayon-parallel), seed the
        // merge state — so the two engines cannot drift apart before batch 0.
        // Under recovery the lanes keep their mirrors.
        let load_start = Instant::now();
        let (router, lanes, merger, initial_result) = load_lanes(
            factory.as_ref(),
            initial,
            self.partitioner.clone(),
            recovery.is_some(),
        );
        let load_secs = load_start.elapsed().as_secs_f64();

        // Recovery plumbing: the shared snapshot store, seeded with one
        // initial checkpoint per shard (`applied_through = 0`) so a worker
        // dying before its first boundary still has something to restore from.
        // With a checkpoint directory configured the store is file-backed;
        // the run clears snapshots a previous run left behind (it recovers
        // only from its own checkpoints, and the old files may describe a
        // different topology).
        let checkpoints: Option<CheckpointSink> = recovery.as_ref().map(|recovery| {
            let dir = self.config.checkpoint_dir.as_ref();
            let files = dir.and_then(|dir| match FileCheckpointStore::open(dir) {
                Ok(files) => {
                    files.resize(0);
                    files.resize(shards);
                    Some(Arc::new(files) as Arc<dyn CheckpointStorage>)
                }
                Err(err) => {
                    let dir = dir.display();
                    eprintln!("checkpoint dir {dir} unusable ({err}); using the in-process store");
                    None
                }
            });
            CheckpointSink {
                every: recovery.checkpoint_every.max(1),
                store: files.unwrap_or_else(|| Arc::new(CheckpointStore::new(shards))),
            }
        });
        let lanes: Vec<Lane> = lanes
            .into_iter()
            .enumerate()
            .map(|(shard, lane)| {
                let mut lane = lane.publishing(shard, checkpoints.clone());
                lane.publish();
                lane
            })
            .collect();

        // Serving: publish the epoch-1 initial view on this thread (the lanes
        // and seeded merger are still here), then hand the sink to the merge
        // stage together with the route → merge batch side channel. Both exist only when serving is armed,
        // so unarmed runs execute the exact synchronization-op sequence the
        // model-check schedules were built against.
        let (batch_tx, serve_state) = match self.serving.take() {
            Some(mut sink) => {
                let snapshot = CandidateSnapshot {
                    top: merger.current().to_vec(),
                    candidates: candidate_union(&lanes),
                };
                sink.publish(
                    None,
                    |b| b.observe_initial(initial),
                    &snapshot,
                    &initial_result,
                );
                // Unbounded by design: the sender never blocks (no new
                // deadlock edge in the stage graph), and the buffered depth
                // is bounded by the pipeline's own queue depths.
                let (changes_tx, changes_rx) = channel::<(u64, ChangeSet)>();
                (Some(changes_tx), Some(ServeMergeState { sink, changes_rx }))
            }
            None => (None, None),
        };

        // Stage plumbing. Bounded queues per edge — except the workers → merge
        // edge, which is one *shared* queue: per-shard outcome queues would
        // wedge a replaying supervisor against a merger blocked on a shard
        // that is mid-restore, and a dead worker must not close the merger's
        // input while a replacement is still coming.
        let (ingest_tx, ingest_rx) = sync_channel::<LogEntry>(depth);
        let (out_tx, out_rx) = sync_channel::<MergeItem>(depth * shards);
        let (status_tx, status_rx) = channel::<WorkerExit>();

        let mut total_operations = 0usize;
        let mut ingest_backpressure = 0u64;
        let mut ingested = 0usize;

        let (merged, mut stats, applied_operations) = {
            // Stage 4: watermark merge.
            let merge_handle =
                thread::spawn(move || Self::merge_stage(merger, out_rx, shards, serve_state));

            // Stage 2 + supervisor: coalesce + route, spawn (and under
            // recovery, restore) the apply workers, collect their terminal
            // statuses.
            let route_handle = thread::spawn(move || {
                let mut router = router;
                let mut applied = 0usize;
                let mut route_blocked = 0u64;
                let mut router_stats = ShardRouterStats::default();
                let mut reshard_events: Vec<ReshardStats> = Vec::new();
                let mut reshard_plan: VecDeque<(u64, usize)> = reshards.into();

                let shared = WorkerShared {
                    factory,
                    delays: delays.clone(),
                    checkpoints,
                    out_tx: out_tx.clone(),
                    status_tx: status_tx.clone(),
                };
                let mut fleet = WorkerFleet::new(shared, depth, shards, &kill_shards);

                // Stage 3: one apply worker per shard; its lane moves in.
                for (shard, lane) in lanes.into_iter().enumerate() {
                    fleet.spawn(shard, WorkerSeed::Fresh(lane));
                }

                let mut total_routed = 0u64;
                'route: for LogEntry {
                    seq,
                    enqueued,
                    ops: batch,
                } in ingest_rx
                {
                    // Reshard barriers fire right before their batch is
                    // routed: batches < at ran under the old topology,
                    // batches >= at run under the new one. Back-to-back
                    // entries at the same seq each drain the fleet they find.
                    while reshard_plan.front().is_some_and(|&(at, _)| at == seq) {
                        let (at, new_count) =
                            reshard_plan.pop_front().expect("front() was just Some"); // lint: allow(panic) — guarded by the loop condition
                        accumulate_router_stats(&mut router_stats, router.stats());
                        let (new_router, event) =
                            fleet.reshard(at, new_count.max(1), router, &status_rx);
                        router = new_router;
                        reshard_events.push(event);
                    }
                    if let Some(d) = &delays {
                        d.sleep(1, 0, seq, d.max_route_micros);
                    }
                    let batch = if coalesce_on { coalesce(&batch) } else { batch };
                    if let Some(tx) = &batch_tx {
                        // Before routing, so the serve side channel is always
                        // ahead of the merge (see ServeMergeState::publish).
                        // lint: allow(raw-send) — unbounded serve side channel: never blocks, and a disconnected merge stage just ends publication
                        let _ = tx.send((seq, batch.clone()));
                    }
                    if seq >= warmup as u64 {
                        applied += batch.operations.len();
                    }
                    // Every shard receives an item for every seq (possibly
                    // empty), which is what keeps the merger's watermark a
                    // plain per-shard counter.
                    let routed: Vec<LogEntry> = router
                        .route(&batch)
                        .into_iter()
                        .map(|ops| LogEntry { seq, enqueued, ops })
                        .collect();
                    if let Some(sink) = &fleet.shared.checkpoints {
                        // Log before sending, so the entry exists even when
                        // the send discovers a dead worker; prune below the
                        // latest published checkpoint to keep the log bounded
                        // by the checkpoint interval plus queue lag.
                        for (log, (shard, entry)) in
                            fleet.logs.iter_mut().zip(routed.iter().enumerate())
                        {
                            log.append(entry.clone());
                            if let Some(at) = sink.store.applied_through(shard) {
                                log.prune_through(at);
                            }
                        }
                    }
                    for (shard, entry) in routed.into_iter().enumerate() {
                        // lint: allow(index) — shard enumerates the routed slices over 0..shards
                        if send_counting(&fleet.txs[shard], entry, &mut route_blocked) {
                            continue;
                        }
                        // The send failed: this shard's current generation
                        // died (its queue disconnected).
                        if fleet.shared.checkpoints.is_none() {
                            break 'route; // tear down → TruncatedRun
                        }
                        let started = Instant::now();
                        // Its terminal status is guaranteed (sent before the
                        // queue closed, or momentarily after — recv blocks);
                        // the fleet absorbs any other shard's exits that
                        // arrive first.
                        fleet.await_generation(shard, &status_rx);
                        // Replay everything since the snapshot through the
                        // current batch (inclusive — its send just failed, so
                        // the backlog is the only copy the shard will get).
                        let (snapshot, backlog) = fleet.restore_point(shard, seq + 1);
                        router.record_restore(shard, shard);
                        fleet.spawn(
                            shard,
                            WorkerSeed::Restored {
                                snapshot,
                                backlog,
                                started,
                            },
                        );
                    }
                    total_routed = seq + 1;
                }

                // End of stream: close every route queue, absorb every
                // generation's terminal status, join the workers; then settle
                // each shard (a generation that died at the final batch is
                // restored and replayed through it here).
                fleet.drain(&status_rx);
                let shard_sizes = (0..fleet.shards)
                    .map(|shard| {
                        let lane = fleet.settle(shard, total_routed, &mut router).lane;
                        lane.map_or((0, 0), |lane| lane.owned_sizes())
                    })
                    .collect();
                accumulate_router_stats(&mut router_stats, router.stats());
                // The supervisor's share of the statistics; the ingest and
                // merge stages fill in theirs when they return.
                let stats = PipelineStats {
                    queue_depth: depth,
                    shards: fleet.shards,
                    route_backpressure: route_blocked,
                    apply_backpressure: fleet.apply_backpressure,
                    shard_sizes,
                    router: router_stats,
                    recovery: fleet.shared.checkpoints.is_some().then_some(fleet.agg),
                    reshards: reshard_events,
                    ..PipelineStats::default()
                };
                drop(fleet); // with it the last out_tx clone — the merge stage drains and returns
                drop(out_tx);
                (stats, applied)
            });

            // Stage 1 (this thread): ingest — pull, stamp seq, enqueue.
            for item in sequenced(stream.take(total)) {
                if item.seq >= warmup as u64 {
                    total_operations += item.batch.operations.len();
                }
                let delivered = send_counting(
                    &ingest_tx,
                    LogEntry {
                        seq: item.seq,
                        enqueued: Instant::now(),
                        ops: item.batch,
                    },
                    &mut ingest_backpressure,
                );
                if !delivered {
                    break; // the route stage died; stop pulling the stream
                }
                ingested += 1;
            }
            drop(ingest_tx); // close the pipe; stages drain and exit in turn

            let (stats, applied) = route_handle.join().expect("route stage panicked"); // lint: allow(panic) — a panicked stage must propagate: the run has no meaningful report
            let (merged, _merger) = merge_handle.join().expect("merge stage panicked"); // lint: allow(panic) — a panicked stage must propagate: the run has no meaningful report
            (merged, stats, applied)
        };

        // A merged count short of the ingested count means a stage died mid-run
        // and dropped batches: refuse to report throughput over a truncated
        // window as if it were the whole run.
        if merged.results.len() != ingested {
            return Err(EngineError::TruncatedRun {
                ingested,
                merged: merged.results.len(),
            });
        }

        // Assemble the report from the merged timeline.
        let measured = merged.results.len().saturating_sub(warmup);
        let results: Vec<String> = merged.results.iter().skip(warmup).cloned().collect();
        let latencies: Vec<f64> = (warmup..merged.results.len())
            .map(|i| (merged.completed[i] - merged.enqueued[i]).as_secs_f64()) // lint: allow(index) — i ranges over the measured window, bounds-checked when the window was cut
            .collect();
        // Wall-clock of the measured window: from "warm-up results done" (or
        // the first enqueue when there is no warm-up) to the last merge.
        let elapsed_secs = match (merged.completed.last(), measured) {
            (Some(&end), m) if m > 0 => {
                let start = if warmup > 0 {
                    merged.completed[warmup - 1] // lint: allow(index) — guarded by the warmup > 0 branch and the measured-window check
                } else {
                    merged.enqueued[0] // lint: allow(index) — the enclosing branch established at least one merged batch
                };
                (end - start).as_secs_f64()
            }
            _ => 0.0,
        };
        let stream_report = StreamReport::from_latencies(
            self.name(),
            latencies,
            elapsed_secs,
            total_operations,
            applied_operations,
            load_secs,
            // the stream may end inside the warm-up window: those batches were
            // still applied, so the last *merged* result (not the pre-stream
            // initial one) is the true end state — matching SyncEngine
            merged.results.last().cloned().unwrap_or(initial_result),
        );
        stats.ingest_backpressure = ingest_backpressure;
        stats.max_watermark_lag = merged.max_watermark_lag;
        stats.per_shard_apply_latencies = merged.per_shard_apply;
        Ok(EngineReport {
            stream: stream_report,
            results,
            pipeline: Some(stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Query;
    use crate::shard::{GraphBlasShardFactory, ShardBackend, ShardEvaluator, ShardedSolution};
    use datagen::stream::{StreamConfig, UpdateStream};
    use datagen::{generate_workload, GeneratorConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn network(seed: u64) -> SocialNetwork {
        generate_workload(&GeneratorConfig::tiny(seed)).initial
    }

    fn batches(network: &SocialNetwork, seed: u64, count: usize) -> Vec<ChangeSet> {
        UpdateStream::new(
            network,
            StreamConfig {
                seed,
                batch_size: 12,
                deletion_weight: 0.3,
                ..StreamConfig::default()
            },
        )
        .take(count)
        .collect()
    }

    fn run_pipelined(
        network: &SocialNetwork,
        batches: &[ChangeSet],
        shards: usize,
        config: PipelineConfig,
    ) -> EngineReport {
        let mut engine =
            PipelinedEngine::graphblas(Query::Q2, ShardBackend::Incremental, shards, config);
        let mut stream = batches.iter().cloned();
        engine
            .run(network, &mut stream, batches.len())
            .expect("pipeline completed")
    }

    fn recovery_config(checkpoint_every: u64) -> Option<RecoveryConfig> {
        Some(RecoveryConfig { checkpoint_every })
    }

    #[test]
    fn pipelined_results_match_the_sync_engine_per_batch() {
        let network = network(51);
        let batches = batches(&network, 0x51de, 12);
        let mut sync = SyncEngine::new(
            StreamDriver::default(),
            Box::new(ShardedSolution::new(
                Query::Q2,
                ShardBackend::Incremental,
                3,
            )),
        );
        let mut stream = batches.iter().cloned();
        let expected = sync
            .run(&network, &mut stream, batches.len())
            .expect("sync engine never truncates");
        let got = run_pipelined(&network, &batches, 3, PipelineConfig::default());
        assert_eq!(got.results, expected.results);
        assert_eq!(
            got.stream.final_result, expected.stream.final_result,
            "final results diverged"
        );
        assert_eq!(got.stream.batches, batches.len());
        assert_eq!(
            got.stream.total_operations,
            expected.stream.total_operations
        );
        assert_eq!(
            got.stream.applied_operations,
            expected.stream.applied_operations
        );
    }

    #[test]
    fn injected_delays_do_not_change_results() {
        let network = network(53);
        let batches = batches(&network, 0xde1a, 8);
        let plain = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let delayed = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                queue_depth: 2,
                delays: Some(DelayInjection {
                    seed: 7,
                    max_route_micros: 200,
                    max_apply_micros: 800,
                }),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(plain.results, delayed.results);
    }

    #[test]
    fn warmup_batches_are_applied_but_not_measured() {
        let network = network(57);
        let all = batches(&network, 0xaa, 10);
        let mut engine = PipelinedEngine::graphblas(
            Query::Q1,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                warmup_batches: 4,
                ..PipelineConfig::default()
            },
        );
        let mut stream = all.iter().cloned();
        let report = engine
            .run(&network, &mut stream, 6)
            .expect("pipeline completed");
        assert_eq!(report.stream.batches, 6);
        assert_eq!(report.results.len(), 6);
        // end state must equal replaying all 10 batches synchronously
        let mut reference = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 2);
        let mut last = reference.load_and_initial(&network);
        for batch in &all {
            last = reference.update_and_reevaluate(&coalesce(batch));
        }
        assert_eq!(report.stream.final_result, last);
    }

    #[test]
    fn stats_report_the_stage_graph() {
        let network = network(59);
        let batches = batches(&network, 0xbb, 6);
        let report = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                queue_depth: 3,
                ..PipelineConfig::default()
            },
        );
        let stats = report.pipeline.expect("pipelined engines report stats");
        assert_eq!(stats.queue_depth, 3);
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.per_shard_apply_latencies.len(), 2);
        for lane in &stats.per_shard_apply_latencies {
            assert_eq!(lane.len(), batches.len());
        }
        assert_eq!(stats.shard_sizes.len(), 2);
        assert!(stats.router.routed_operations > 0);
        assert!(stats.recovery.is_none(), "recovery was not enabled");
        // a shard can run ahead by at most the items parked in its route queue
        // (depth), the shared outcome queue (depth × shards), and one in flight
        assert!(
            stats.max_watermark_lag <= 3 * 3 + 1,
            "watermark lag {} not bounded by the queue depths",
            stats.max_watermark_lag
        );
    }

    #[test]
    fn short_streams_end_the_pipeline_cleanly() {
        let network = network(61);
        let batches = batches(&network, 0xcc, 3);
        let mut engine = PipelinedEngine::graphblas(
            Query::Q2,
            ShardBackend::IncrementalCc,
            2,
            PipelineConfig::default(),
        );
        // ask for more batches than the stream yields: a short stream is not a
        // truncated run — nothing that was ingested got lost
        let mut stream = batches.iter().cloned();
        let report = engine
            .run(&network, &mut stream, 10)
            .expect("short streams are not an error");
        assert_eq!(report.stream.batches, 3);
        assert_eq!(report.results.len(), 3);

        // and the degenerate empty stream
        let mut empty = std::iter::empty();
        let report = engine
            .run(&network, &mut empty, 5)
            .expect("empty streams are not an error");
        assert_eq!(report.stream.batches, 0);
        assert!(report.results.is_empty());
        assert!(!report.stream.final_result.is_empty()); // the initial result
    }

    #[test]
    fn stream_ending_inside_the_warmup_window_still_reports_the_applied_state() {
        // regression: warm-up batches mutate shard state even when the stream
        // ends before measurement starts, so final_result must be the last
        // *merged* result, not the pre-stream initial one
        let network = network(63);
        let all = batches(&network, 0xdd, 2);
        let mut engine = PipelinedEngine::graphblas(
            Query::Q2,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                warmup_batches: 4, // more warm-up than the stream yields
                ..PipelineConfig::default()
            },
        );
        let mut stream = all.iter().cloned();
        let report = engine
            .run(&network, &mut stream, 6)
            .expect("pipeline completed");
        assert_eq!(report.stream.batches, 0);
        assert!(report.results.is_empty());
        let mut reference = ShardedSolution::new(Query::Q2, ShardBackend::Incremental, 2);
        let mut last = reference.load_and_initial(&network);
        for batch in &all {
            last = reference.update_and_reevaluate(&coalesce(batch));
        }
        assert_eq!(report.stream.final_result, last);
    }

    #[test]
    fn dead_shard_worker_is_reported_as_a_truncated_run() {
        // regression: a shard worker dying mid-run used to make the merge stage
        // stop early and the engine report success over fewer batches than
        // ingested, because `send_counting` swallowed the disconnect
        let network = network(67);
        let batches = batches(&network, 0xdead, 8);
        let mut engine = PipelinedEngine::graphblas(
            Query::Q2,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 3)], // shard 1 dies before applying batch 3
                ..PipelineConfig::default()
            },
        );
        let mut stream = batches.iter().cloned();
        let err = engine
            .run(&network, &mut stream, batches.len())
            .expect_err("a dead worker must not report success");
        match err {
            EngineError::TruncatedRun { ingested, merged } => {
                assert!(
                    merged < ingested,
                    "merged {merged} must be short of ingested {ingested}"
                );
                assert!(merged <= 3, "shard 1 died before batch 3, merged {merged}");
            }
        }
        // the error renders the counts for operators
        let rendered = err.to_string();
        assert!(rendered.contains("truncated"), "{rendered}");
    }

    #[test]
    fn kill_before_the_first_batch_truncates_to_zero_without_recovery() {
        // chaos-coverage regression: the earliest possible death — the worker
        // exits before applying seq 0, so nothing of that shard ever merges
        let network = network(71);
        let batches = batches(&network, 0x6b, 6);
        let mut engine = PipelinedEngine::graphblas(
            Query::Q2,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 0)],
                ..PipelineConfig::default()
            },
        );
        let mut stream = batches.iter().cloned();
        let err = engine
            .run(&network, &mut stream, batches.len())
            .expect_err("a shard dead from batch 0 must not report success");
        match err {
            EngineError::TruncatedRun { merged, .. } => {
                assert_eq!(merged, 0, "nothing can merge without shard 1");
            }
        }
    }

    #[test]
    fn recovery_restores_a_killed_shard_mid_stream() {
        // the ISSUE 6 acceptance shape: with recovery enabled, the same kill
        // that truncates the run above completes instead — byte-identical to
        // an uncrashed run, with the crash visible only in the counters
        let network = network(67);
        let batches = batches(&network, 0xdead, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 3)],
                recovery: recovery_config(2),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let stats = got.pipeline.expect("pipelined engines report stats");
        let recovery = stats.recovery.expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1);
        assert_eq!(recovery.restores, 1);
        assert!(
            recovery.replayed_batches >= 1,
            "the kill at seq 3 forces a replay, got {recovery:?}"
        );
        assert!(
            recovery.checkpoints >= 2,
            "initial checkpoints are always published, got {recovery:?}"
        );
        assert!(recovery.checkpoint_bytes > 0);
        assert!(recovery.max_restore_secs > 0.0);
    }

    #[test]
    fn recovery_restores_a_shard_killed_before_the_first_batch() {
        // kill at seq 0: the restore comes from the *initial* checkpoint
        // published at load, and the whole stream is replayed
        let network = network(71);
        let batches = batches(&network, 0x6b, 6);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 0)],
                recovery: recovery_config(4),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1);
        assert_eq!(recovery.restores, 1);
    }

    #[test]
    fn a_kill_beyond_the_stream_never_fires() {
        // chaos-coverage regression: a kill scheduled after the last watermark
        // is a no-op — the run completes with zero crashes
        let network = network(73);
        let batches = batches(&network, 0xee, 5);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(0, 1000)],
                recovery: recovery_config(2),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 0);
        assert_eq!(recovery.restores, 0);
        assert_eq!(recovery.replayed_batches, 0);
    }

    #[test]
    fn two_shards_killed_at_the_same_seq_recover_without_deadlock() {
        // regression: when both shards die at the same seq, the detection loop
        // for the first dead shard absorbs the second's exit off the shared
        // status channel — the second detection must notice that instead of
        // blocking forever on an exit that was already consumed
        let network = network(81);
        let batches = batches(&network, 0xdd2, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(0, 3), (1, 3)],
                recovery: recovery_config(2),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 2, "{recovery:?}");
        assert_eq!(recovery.restores, 2, "{recovery:?}");
    }

    #[test]
    fn recovery_under_delay_injection_stays_byte_identical() {
        // chaos-coverage regression: a kill with DelayInjection active — the
        // restore must stay invisible under adversarial stage interleavings
        let network = network(77);
        let batches = batches(&network, 0xff, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                queue_depth: 2,
                delays: Some(DelayInjection {
                    seed: 11,
                    max_route_micros: 200,
                    max_apply_micros: 800,
                }),
                kill_shards: vec![(0, 4)],
                recovery: recovery_config(3),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1);
        assert_eq!(recovery.restores, 1);
    }

    /// A [`ShardFactory`] whose evaluators panic exactly once across the whole
    /// run — at one evaluator's `at_apply`-th apply — to prove the panic
    /// containment path, not just the quiet kill injection.
    struct PanicOnceFactory {
        inner: GraphBlasShardFactory,
        fuse: Arc<AtomicBool>,
        at_apply: usize,
    }

    struct PanicOnceEvaluator {
        inner: Box<dyn ShardEvaluator>,
        fuse: Arc<AtomicBool>,
        at_apply: usize,
        applies: usize,
    }

    impl ShardFactory for PanicOnceFactory {
        fn build(&self, part: &SocialNetwork) -> Box<dyn ShardEvaluator> {
            Box::new(PanicOnceEvaluator {
                inner: self.inner.build(part),
                fuse: Arc::clone(&self.fuse),
                at_apply: self.at_apply,
                applies: 0,
            })
        }

        fn query(&self) -> Query {
            self.inner.query()
        }

        fn name(&self) -> String {
            self.inner.name()
        }
    }

    impl ShardEvaluator for PanicOnceEvaluator {
        fn apply(&mut self, changeset: &ChangeSet) -> bool {
            self.applies += 1;
            if self.applies == self.at_apply && self.fuse.swap(false, Ordering::SeqCst) {
                panic!("injected evaluator panic");
            }
            self.inner.apply(changeset)
        }

        fn candidates(&self) -> &[RankedEntry] {
            self.inner.candidates()
        }

        fn owned_sizes(&self) -> (usize, usize) {
            self.inner.owned_sizes()
        }
    }

    #[test]
    fn a_panicking_evaluator_is_contained_and_recovered_like_a_kill() {
        let network = network(79);
        let batches = batches(&network, 0xabc, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let mut engine = PipelinedEngine::new(
            Box::new(PanicOnceFactory {
                inner: GraphBlasShardFactory::new(Query::Q2, ShardBackend::Incremental),
                fuse: Arc::new(AtomicBool::new(true)),
                at_apply: 3,
            }),
            2,
            PipelineConfig {
                recovery: recovery_config(2),
                ..PipelineConfig::default()
            },
        );
        let mut stream = batches.iter().cloned();
        let got = engine
            .run(&network, &mut stream, batches.len())
            .expect("the panic is contained and the shard restored");
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1, "{recovery:?}");
        assert_eq!(recovery.restores, 1, "{recovery:?}");
    }

    #[test]
    fn a_panicking_evaluator_does_not_block_later_restores_of_other_shards() {
        // regression for the checkpoint-store poisoning policy: an evaluator
        // panic on one shard must not poison shared recovery state — later
        // crashes of *other* shards (here: kill injections on both shards,
        // after the panic) still restore and the run completes byte-identical
        let network = network(79);
        let batches = batches(&network, 0xabc, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let mut engine = PipelinedEngine::new(
            Box::new(PanicOnceFactory {
                inner: GraphBlasShardFactory::new(Query::Q2, ShardBackend::Incremental),
                fuse: Arc::new(AtomicBool::new(true)),
                at_apply: 2,
            }),
            2,
            PipelineConfig {
                // whichever shard tripped the panic fuse, the other one is
                // also killed later — its restore exercises the store after
                // the panic
                kill_shards: vec![(0, 6), (1, 6)],
                recovery: recovery_config(2),
                ..PipelineConfig::default()
            },
        );
        let mut stream = batches.iter().cloned();
        let got = engine
            .run(&network, &mut stream, batches.len())
            .expect("every crash after the panic is still restored");
        assert_eq!(got.results, expected.results);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 3, "one panic + two kills: {recovery:?}");
        assert_eq!(recovery.restores, 3, "{recovery:?}");
    }

    #[test]
    fn ring_partitioner_threads_through_the_pipeline() {
        let network = network(69);
        let batches = batches(&network, 0x4177, 10);
        let mut modulo = PipelinedEngine::graphblas(
            Query::Q2,
            ShardBackend::Incremental,
            3,
            PipelineConfig::default(),
        );
        let mut stream = batches.iter().cloned();
        let expected = modulo
            .run(&network, &mut stream, batches.len())
            .expect("pipeline completed");
        let mut ring = PipelinedEngine::with_partitioner(
            Box::new(crate::shard::GraphBlasShardFactory::new(
                Query::Q2,
                ShardBackend::Incremental,
            )),
            Box::new(datagen::partition::RingPartitioner::new(3, 42)),
            PipelineConfig::default(),
        );
        assert_eq!(
            ring.name(),
            "GraphBLAS Sharded Incremental (3 shards, ring, pipelined)"
        );
        let mut stream = batches.iter().cloned();
        let got = ring
            .run(&network, &mut stream, batches.len())
            .expect("pipeline completed");
        // a different placement policy must not change a single output byte
        assert_eq!(got.results, expected.results);
    }

    #[test]
    fn engine_names_identify_the_configuration() {
        let engine = PipelinedEngine::graphblas(
            Query::Q1,
            ShardBackend::Incremental,
            4,
            PipelineConfig::default(),
        );
        assert_eq!(
            engine.name(),
            "GraphBLAS Sharded Incremental (4 shards, pipelined)"
        );
        assert_eq!(engine.shard_count(), 4);
        // recovery-enabled engines say so
        let recovering = PipelinedEngine::graphblas(
            Query::Q1,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                recovery: Some(RecoveryConfig::default()),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(
            recovering.name(),
            "GraphBLAS Sharded Incremental (2 shards, recover, pipelined)"
        );
        // zero shards degrades to one
        assert_eq!(
            PipelinedEngine::graphblas(
                Query::Q1,
                ShardBackend::Batch,
                0,
                PipelineConfig::default()
            )
            .shard_count(),
            1
        );
        // resharding engines say so too
        let resharding = PipelinedEngine::graphblas(
            Query::Q1,
            ShardBackend::Incremental,
            2,
            PipelineConfig {
                reshards: vec![(4, 4)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(
            resharding.name(),
            "GraphBLAS Sharded Incremental (2 shards, reshard, pipelined)"
        );
    }

    #[test]
    fn reshard_grow_mid_stream_stays_byte_identical() {
        // the ISSUE 10 tentpole shape: a live 2 → 4 reshard halfway through
        // the stream changes nothing the caller can observe except the stats
        let network = network(91);
        let batches = batches(&network, 0x2e5a, 10);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                reshards: vec![(5, 4)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let stats = got.pipeline.expect("pipelined engines report stats");
        assert_eq!(stats.shards, 4, "the run ends under the new topology");
        assert_eq!(stats.shard_sizes.len(), 4);
        assert_eq!(stats.reshards.len(), 1);
        let event = &stats.reshards[0];
        assert_eq!(event.at_seq, 5);
        assert_eq!(event.from_shards, 2);
        assert_eq!(event.to_shards, 4);
        assert!(event.drain_secs >= 0.0 && event.split_secs > 0.0);
        // resharding armed the recovery machinery implicitly
        let recovery = stats.recovery.expect("reshard arms recovery");
        assert_eq!(recovery.crashes, 0);
        assert!(recovery.checkpoints >= 2, "{recovery:?}");
    }

    #[test]
    fn reshard_shrink_and_regrow_stays_byte_identical() {
        // consecutive topology changes: 4 → 2 → 3, each barrier draining the
        // fleet the previous one spawned (generation numbers never reused)
        let network = network(93);
        let batches = batches(&network, 0x5412, 12);
        let expected = run_pipelined(&network, &batches, 4, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            4,
            PipelineConfig {
                reshards: vec![(4, 2), (8, 3)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let stats = got.pipeline.expect("pipelined engines report stats");
        assert_eq!(stats.shards, 3);
        assert_eq!(stats.reshards.len(), 2);
        assert_eq!(stats.reshards[0].to_shards, 2);
        assert_eq!(stats.reshards[1].from_shards, 2);
        assert_eq!(stats.reshards[1].to_shards, 3);
    }

    #[test]
    fn kill_during_reshard_drain_recovers_and_stays_byte_identical() {
        // a worker killed at the same seq the barrier drains to: the drain
        // absorbs the crash, catch-up replays the shard to the barrier on the
        // supervisor, and the reshard proceeds — restores == crashes holds
        let network = network(95);
        let batches = batches(&network, 0x6b11, 10);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 4)],
                recovery: recovery_config(2),
                reshards: vec![(4, 3)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let stats = got.pipeline.expect("pipelined engines report stats");
        let recovery = stats.recovery.expect("recovery was enabled");
        assert_eq!(
            recovery.restores, recovery.crashes,
            "every crash recovered exactly once: {recovery:?}"
        );
        assert_eq!(recovery.crashes, 1, "{recovery:?}");
        assert_eq!(stats.reshards.len(), 1);
    }

    #[test]
    fn cleanly_drained_lanes_cross_a_barrier_by_value() {
        // with the checkpoint cadence beyond the stream, the only publishes of
        // a kill-free 2 → 4 reshard are the load-time ones (2) and the new
        // topology's (4): a cleanly drained lane is handed back in its exit
        // and merged as it is, with no closing checkpoint to encode and decode
        let network = network(91);
        let batches = batches(&network, 0x2e5a, 10);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let run = |kill_shards| {
            let config = PipelineConfig {
                kill_shards,
                recovery: recovery_config(1000),
                reshards: vec![(5, 4)],
                ..PipelineConfig::default()
            };
            let got = run_pipelined(&network, &batches, 2, config);
            assert_eq!(got.results, expected.results);
            let stats = got.pipeline.expect("pipelined engines report stats");
            stats.recovery.expect("recovery was enabled")
        };
        let recovery = run(vec![]);
        assert_eq!(recovery.checkpoints, 2 + 4, "{recovery:?}");
        assert_eq!(
            (recovery.crashes, recovery.restores),
            (0, 0),
            "{recovery:?}"
        );
        // shard 1 dies on the last batch before the barrier: its send already
        // succeeded, so the crash surfaces in the drain and that lane alone
        // comes back through checkpoint + log, still landing exactly on `at`
        let recovery = run(vec![(1, 4)]);
        assert_eq!(
            (recovery.crashes, recovery.restores),
            (1, 1),
            "{recovery:?}"
        );
        assert_eq!(recovery.replayed_batches, 5, "batches 0..=4: {recovery:?}");
        assert_eq!(recovery.checkpoints, 2 + 4, "{recovery:?}");
    }

    #[test]
    fn kill_after_reshard_lands_on_the_new_topology() {
        // a kill scheduled on shard 2 of a 2-shard run only becomes live once
        // the 2 → 4 reshard brings shard 2 into existence (parked kills)
        let network = network(97);
        let batches = batches(&network, 0xa44e, 10);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(2, 6)],
                recovery: recovery_config(2),
                reshards: vec![(3, 4)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1, "{recovery:?}");
        assert_eq!(recovery.restores, 1, "{recovery:?}");
    }

    #[test]
    fn reshard_at_seq_zero_and_past_the_stream() {
        // boundary barriers: at seq 0 the reshard fires before any batch is
        // routed (a plain re-partition of the initial load); one scheduled
        // past the stream never fires and reports nothing
        let network = network(99);
        let batches = batches(&network, 0x0e0e, 6);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                reshards: vec![(0, 3), (1000, 2)],
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let stats = got.pipeline.expect("pipelined engines report stats");
        assert_eq!(stats.shards, 3, "only the seq-0 barrier fired");
        assert_eq!(stats.reshards.len(), 1);
        assert_eq!(stats.reshards[0].at_seq, 0);
    }

    #[test]
    fn file_backed_checkpoints_restore_a_killed_shard() {
        // the durable-store satellite: the same kill/recover shape as
        // recovery_restores_a_killed_shard_mid_stream, but snapshots round-trip
        // through FileCheckpointStore instead of the in-process map
        let network = network(67);
        let batches = batches(&network, 0xdead, 8);
        let expected = run_pipelined(&network, &batches, 2, PipelineConfig::default());
        let dir = std::env::temp_dir().join(format!(
            "ttc-ckpt-test-{}-{}",
            std::process::id(),
            0x10usize
        ));
        let got = run_pipelined(
            &network,
            &batches,
            2,
            PipelineConfig {
                kill_shards: vec![(1, 3)],
                recovery: recovery_config(2),
                checkpoint_dir: Some(dir.clone()),
                ..PipelineConfig::default()
            },
        );
        assert_eq!(got.results, expected.results);
        assert_eq!(got.stream.final_result, expected.stream.final_result);
        let recovery = got
            .pipeline
            .expect("stats")
            .recovery
            .expect("recovery was enabled");
        assert_eq!(recovery.crashes, 1);
        assert_eq!(recovery.restores, 1);
        // the directory holds the run's published snapshots
        let snapshots = std::fs::read_dir(&dir)
            .expect("checkpoint dir exists")
            .count();
        assert!(snapshots >= 2, "expected per-shard snapshot files");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
