//! One shard's lane: the per-shard half of the paper's loop — load + initial
//! evaluation, then per changeset *apply, re-evaluate incrementally* — as a
//! value every scheduler drives through the same code (DESIGN.md §5.9).
//!
//! A [`Lane`] is a [`ShardEvaluator`] plus what makes it rebuildable: the
//! **mirror** [`SocialNetwork`] (the shard's initial partition with every
//! routed changeset replayed onto it), `applied_through`, and an optional
//! checkpoint sink (store + cadence). Evaluator state is a deterministic function of the
//! mirror, so the mirror is the only state a lane persists or hands over —
//! rebalancing, crash recovery and resharding all rebuild through
//! [`Lane::from_mirror`]. Three operations, each the only caller of what it
//! wraps: [`Lane::step`] (apply, mirror upkeep, cadence checkpoint),
//! [`Lane::checkpoint`] (encode) and [`Lane::from_mirror`] (build;
//! [`Lane::restore`] = decode + `from_mirror`). `ShardedSolution` steps its
//! lanes inline; `PipelinedEngine` moves each into a worker thread and gets
//! it back when the thread drains (`tests/lane_roundtrip.rs`).

use std::time::Instant;

use datagen::{apply_changeset, ChangeSet, SocialNetwork};

use crate::recovery::{CheckpointError, CheckpointStorage, ShardCheckpoint};
use crate::shard::{ShardEvaluator, ShardFactory};
use crate::sync::Arc;
use crate::top_k::RankedEntry;

/// What one [`Lane::step`] produced — everything the cross-shard merge needs
/// from this shard for this batch.
#[derive(Clone, Debug)]
pub struct ApplyOutcome {
    /// Sequence number of the applied batch.
    pub seq: u64,
    /// Snapshot of the shard's top-k candidates *as of this batch* — a merger
    /// running behind must not read live lane state, which may be batches
    /// ahead.
    pub candidates: Vec<RankedEntry>,
    /// Whether the changeset retracted an edge of this shard (the merge must
    /// then rebuild rather than merge — see [`crate::shard::ShardMerger`]).
    pub had_removals: bool,
    /// Seconds spent in [`ShardEvaluator::apply`].
    pub apply_secs: f64,
}

/// Where and how often a lane publishes its checkpoints.
#[derive(Clone, Debug)]
pub(crate) struct CheckpointSink {
    /// Publish whenever `applied_through` is a multiple of this (≥ 1).
    pub(crate) every: u64,
    /// The store snapshots are published into, as encoded bytes.
    pub(crate) store: Arc<dyn CheckpointStorage>,
}

/// Every engine that checkpoints, migrates or reshards loads its lanes with
/// mirrors, so a mirror-less lane reaching the codec is a wiring bug.
const NO_MIRROR: &str = "a lane that checkpoints, migrates or reshards keeps its mirror";

/// One shard's evaluator, mirror, position and checkpoint cadence. See the
/// [module documentation](self).
pub struct Lane {
    evaluator: Box<dyn ShardEvaluator>,
    mirror: Option<SocialNetwork>,
    applied_through: u64,
    /// `(shard id in the store, sink)` when this lane publishes checkpoints.
    sink: Option<(usize, CheckpointSink)>,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

impl Lane {
    /// Build a lane over `mirror` — a part of the initial split, a decoded
    /// checkpoint, a donor's shrunken mirror, a part of a reshard split — that
    /// has applied every batch below `applied_through`.
    pub fn from_mirror(
        factory: &dyn ShardFactory,
        mirror: SocialNetwork,
        applied_through: u64,
    ) -> Self {
        Lane {
            evaluator: factory.build(&mirror),
            mirror: Some(mirror),
            applied_through,
            sink: None,
            checkpoints: 0,
            checkpoint_bytes: 0,
        }
    }

    /// Rebuild a lane from a snapshot produced by [`Lane::checkpoint`]. A
    /// truncated or corrupted snapshot is a named error, never a panic.
    pub fn restore(factory: &dyn ShardFactory, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let checkpoint = ShardCheckpoint::decode(bytes)?;
        let lane = Self::from_mirror(factory, checkpoint.network, checkpoint.applied_through);
        debug_assert_eq!(
            lane.candidates(),
            checkpoint.candidates.as_slice(),
            "a rebuild from the restored mirror must reproduce the checkpointed candidates"
        );
        Ok(lane)
    }

    /// With `keep == false`, stop maintaining the mirror: for a lane nothing
    /// will ever rebuild, checkpoint or move, its upkeep is pure overhead.
    pub(crate) fn keep_mirror(mut self, keep: bool) -> Self {
        if !keep {
            self.mirror = None;
        }
        self
    }

    /// Publish this lane's checkpoints as `shard` into `sink` (on its cadence
    /// in [`Lane::step`], and whenever [`Lane::publish`] is called). `None`
    /// turns publication off.
    pub(crate) fn publishing(mut self, shard: usize, sink: Option<CheckpointSink>) -> Self {
        self.sink = sink.map(|sink| (shard, sink));
        self
    }

    /// Evaluate `ops` and replay them onto the mirror; `(had_removals, secs)`.
    fn apply(&mut self, ops: &ChangeSet) -> (bool, f64) {
        let start = Instant::now();
        let had_removals = self.evaluator.apply(ops);
        let apply_secs = start.elapsed().as_secs_f64();
        if let Some(mirror) = &mut self.mirror {
            apply_changeset(mirror, ops);
        }
        (had_removals, apply_secs)
    }

    /// Apply the shard's slice of batch `seq`: evaluate, keep the mirror in
    /// step, and publish a checkpoint when `seq + 1` lands on the cadence.
    /// Live batches, log replay and the synchronous engine share this path,
    /// which is what makes their outcomes byte-identical.
    pub fn step(&mut self, seq: u64, ops: &ChangeSet) -> ApplyOutcome {
        let (had_removals, apply_secs) = self.apply(ops);
        self.applied_through = seq + 1;
        let due =
            |(_, sink): &(usize, CheckpointSink)| self.applied_through.is_multiple_of(sink.every);
        if self.sink.as_ref().is_some_and(due) {
            self.publish();
        }
        ApplyOutcome {
            seq,
            candidates: self.evaluator.candidates().to_vec(),
            had_removals,
            apply_secs,
        }
    }

    /// Apply an out-of-band insert-only delta *between* batches — a migrated
    /// discussion tree arriving at its recipient — without advancing the
    /// lane's position in the stream.
    pub(crate) fn graft(&mut self, delta: &ChangeSet) {
        self.apply(delta);
    }

    /// Encode the lane's recoverable state (mirror, candidates,
    /// `applied_through`) in the canonical checkpoint format.
    ///
    /// # Panics
    /// If the lane was loaded without a mirror.
    pub fn checkpoint(&self) -> Vec<u8> {
        let mirror = self.mirror.as_ref().expect(NO_MIRROR); // lint: allow(panic) — see NO_MIRROR
        ShardCheckpoint::encode_parts(self.applied_through, mirror, self.evaluator.candidates())
    }

    /// Encode and store a checkpoint at the current `applied_through`; a no-op
    /// for a lane without a sink.
    pub(crate) fn publish(&mut self) {
        let Some((shard, sink)) = &self.sink else {
            return;
        };
        let bytes = self.checkpoint();
        self.checkpoints += 1;
        self.checkpoint_bytes += bytes.len() as u64;
        sink.store.publish(*shard, self.applied_through, bytes);
    }

    /// Hand the lane's state over by value — what a reshard barrier merges
    /// and a migration shrinks — with no trip through the codec.
    ///
    /// # Panics
    /// If the lane was loaded without a mirror.
    pub(crate) fn into_checkpoint(self) -> ShardCheckpoint {
        ShardCheckpoint {
            applied_through: self.applied_through,
            candidates: self.evaluator.candidates().to_vec(),
            network: self.mirror.expect(NO_MIRROR), // lint: allow(panic) — see NO_MIRROR
        }
    }

    /// `(count, bytes)` of the checkpoints published since the last call —
    /// drained by whoever owns the lane into the run's recovery counters.
    pub(crate) fn take_checkpoint_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.checkpoints),
            std::mem::take(&mut self.checkpoint_bytes),
        )
    }

    /// Current top-k candidates of this shard, best first, with exact scores.
    pub fn candidates(&self) -> &[RankedEntry] {
        self.evaluator.candidates()
    }

    /// `(posts, comments)` owned by this shard.
    pub fn owned_sizes(&self) -> (usize, usize) {
        self.evaluator.owned_sizes()
    }

    /// Batches folded in; equivalently the next sequence number expected.
    pub fn applied_through(&self) -> u64 {
        self.applied_through
    }

    /// The replayable sub-network, when the lane maintains one.
    pub(crate) fn mirror(&self) -> Option<&SocialNetwork> {
        self.mirror.as_ref()
    }
}
