//! Streaming update driver: sustained-throughput measurement over micro-batches.
//!
//! The paper's harness replays a finite list of changesets and times the two TTC
//! phases. This module is the continuous counterpart: a [`StreamDriver`] pulls
//! micro-batches from any changeset iterator (typically
//! [`datagen::stream::UpdateStream`]), **coalesces** each batch (last operation per
//! edge wins — an add cancels a pending retraction of the same edge and vice
//! versa), feeds it through any [`Solution`], and records per-batch latency. The
//! resulting [`StreamReport`] carries the p50/p90/p99/max latency and the sustained
//! updates/second — the numbers every scaling experiment (sharding, async
//! ingestion, alternative backends) is benchmarked against. This driver is the
//! synchronous engine; its staged asynchronous counterpart (bounded queues,
//! watermark merge) lives in [`crate::pipeline`], with both behind
//! [`crate::pipeline::IngestEngine`].
//!
//! Parallelism follows the measured solution: a parallel solution variant re-scores
//! its affected sets with the `graphblas::ops::par` kernels on the ambient rayon
//! pool, so callers size the pool (e.g. with `rayon::ThreadPoolBuilder` +
//! `install`, as the `bench` crate's `run_in_pool` does) around
//! [`StreamDriver::run`].
//!
//! # Example
//!
//! ```
//! use datagen::stream::{StreamConfig, UpdateStream};
//! use datagen::{generate_workload, GeneratorConfig};
//! use ttc_social_media::model::Query;
//! use ttc_social_media::solution::GraphBlasIncremental;
//! use ttc_social_media::stream::StreamDriver;
//!
//! let network = generate_workload(&GeneratorConfig::tiny(3)).initial;
//! let stream = UpdateStream::new(&network, StreamConfig { seed: 9, batch_size: 8, ..StreamConfig::default() });
//! let mut solution = GraphBlasIncremental::new(Query::Q1, false);
//! let report = StreamDriver::default().run(&mut solution, &network, stream, 5);
//! assert_eq!(report.batches, 5);
//! assert!(report.updates_per_sec > 0.0);
//! ```

use std::collections::HashMap;
use std::time::Instant;

use datagen::{ChangeOperation, ChangeSet, ElementId, SocialNetwork};

use crate::solution::Solution;

/// Merge a micro-batch so that each `likes` / `friends` edge carries at most one
/// operation: the **last** one in sequence order. This is exact — adds are ignored
/// on present edges and retractions on absent ones, so the final presence of an
/// edge after replaying the whole sequence equals the effect of its last operation
/// alone. Node insertions (users, posts, comments) are always unique and kept.
pub fn coalesce(batch: &ChangeSet) -> ChangeSet {
    #[derive(Hash, PartialEq, Eq)]
    enum EdgeKey {
        Like(ElementId, ElementId),
        Friend(ElementId, ElementId),
    }
    fn key(op: &ChangeOperation) -> Option<EdgeKey> {
        match op {
            ChangeOperation::AddLike { user, comment }
            | ChangeOperation::RemoveLike { user, comment } => Some(EdgeKey::Like(*user, *comment)),
            ChangeOperation::AddFriendship { a, b }
            | ChangeOperation::RemoveFriendship { a, b } => {
                Some(EdgeKey::Friend(*a.min(b), *a.max(b)))
            }
            _ => None,
        }
    }

    let mut last_for_key: HashMap<EdgeKey, usize> = HashMap::new();
    for (position, op) in batch.operations.iter().enumerate() {
        if let Some(k) = key(op) {
            last_for_key.insert(k, position);
        }
    }
    let operations = batch
        .operations
        .iter()
        .enumerate()
        .filter(|(position, op)| match key(op) {
            Some(k) => last_for_key[&k] == *position,
            None => true,
        })
        .map(|(_, op)| op.clone())
        .collect();
    ChangeSet { operations }
}

/// Configuration of a [`StreamDriver`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamDriverConfig {
    /// Batches fed through the solution before measurement starts (their latency is
    /// excluded from the report; their updates still apply).
    pub warmup_batches: usize,
    /// Whether batches are coalesced before application (on by default; turning it
    /// off measures the raw sequential-operation path).
    pub coalesce: bool,
}

impl Default for StreamDriverConfig {
    fn default() -> Self {
        StreamDriverConfig {
            warmup_batches: 0,
            coalesce: true,
        }
    }
}

/// Latency and throughput of one measured streaming run. Produced by
/// [`StreamDriver::run`].
#[derive(Clone, Debug, PartialEq)]
pub struct StreamReport {
    /// Name of the measured solution.
    pub solution: String,
    /// Measured batches (warm-up excluded).
    pub batches: usize,
    /// Operations emitted by the stream across the measured batches.
    pub total_operations: usize,
    /// Operations actually applied after coalescing.
    pub applied_operations: usize,
    /// Wall-clock seconds spent in `update_and_reevaluate` across measured batches.
    pub elapsed_secs: f64,
    /// Sustained throughput: emitted operations per second of update time.
    pub updates_per_sec: f64,
    /// Median per-batch latency in seconds.
    pub p50_latency_secs: f64,
    /// 90th-percentile per-batch latency in seconds.
    pub p90_latency_secs: f64,
    /// 99th-percentile per-batch latency in seconds.
    pub p99_latency_secs: f64,
    /// Worst per-batch latency in seconds.
    pub max_latency_secs: f64,
    /// Seconds spent in the initial load-and-evaluate phase (not part of the
    /// throughput figures).
    pub load_secs: f64,
    /// The query result after the last measured batch (`id|id|id`).
    pub final_result: String,
}

impl StreamReport {
    /// Assemble a report from the per-batch latencies of the measured window
    /// (in any order) — the one place the percentile and throughput fields
    /// are derived, for both engines. `elapsed_secs` is the engine's own
    /// notion of the window: summed service time for the synchronous driver,
    /// wall clock for the pipelined engine, whose batches overlap.
    pub(crate) fn from_latencies(
        solution: String,
        mut latencies: Vec<f64>,
        elapsed_secs: f64,
        total_operations: usize,
        applied_operations: usize,
        load_secs: f64,
        final_result: String,
    ) -> Self {
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite")); // lint: allow(panic) — latencies are Duration-derived seconds, never NaN
        StreamReport {
            solution,
            batches: latencies.len(),
            total_operations,
            applied_operations,
            elapsed_secs,
            updates_per_sec: if elapsed_secs > 0.0 {
                total_operations as f64 / elapsed_secs
            } else {
                0.0
            },
            p50_latency_secs: percentile(&latencies, 50.0),
            p90_latency_secs: percentile(&latencies, 90.0),
            p99_latency_secs: percentile(&latencies, 99.0),
            max_latency_secs: latencies.last().copied().unwrap_or(0.0),
            load_secs,
            final_result,
        }
    }
}

/// Value at percentile `p` (0–100) of an **ascending-sorted** slice, by
/// standard nearest-rank (`rank = ⌈p/100 · len⌉`, 1-based) — the one
/// definition every latency figure in this workspace uses ([`StreamReport`]
/// and the per-shard blocks of `stream_throughput --shards`), so merged and
/// per-shard percentiles stay comparable.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Write-side callbacks fired as a [`StreamDriver`] run advances, after the
/// load phase and after every applied batch (warm-up included).
///
/// This is the hook the serving layer uses to publish one
/// [`crate::serve::QueryView`] per batch from the synchronous engine without
/// the driver knowing anything about publication: the observer sees the
/// coalesced changeset that was applied, the rendered result, and the
/// solution (for [`Solution::candidate_snapshot`]). Timing is captured
/// *before* the observer runs, so observation cost never pollutes the
/// latency percentiles. Both callbacks default to doing nothing.
#[allow(unused_variables)]
pub trait RunObserver {
    /// The initial network was loaded and evaluated to `result`.
    fn loaded(&mut self, initial: &SocialNetwork, result: &str, solution: &dyn Solution) {}

    /// Batch `seq` (0-based, counting warm-up batches too) was applied and
    /// re-evaluated to `result`. `changes` is the changeset exactly as the
    /// solution saw it (coalesced if the driver coalesces).
    fn applied(&mut self, seq: u64, changes: &ChangeSet, result: &str, solution: &dyn Solution) {}
}

/// Observer that ignores every event — the default for unobserved runs.
struct NoopObserver;

impl RunObserver for NoopObserver {}

/// Drives micro-batches from an update stream through a [`Solution`], measuring
/// per-batch latency. See the [module documentation](self).
#[derive(Clone, Debug, Default)]
pub struct StreamDriver {
    config: StreamDriverConfig,
}

impl StreamDriver {
    /// Create a driver with the given configuration.
    pub fn new(config: StreamDriverConfig) -> Self {
        StreamDriver { config }
    }

    /// Load `initial` into `solution`, then pull `batches` micro-batches (plus the
    /// configured warm-up) from `stream`, apply each, and report latency
    /// percentiles and sustained throughput.
    pub fn run(
        &self,
        solution: &mut dyn Solution,
        initial: &SocialNetwork,
        stream: impl Iterator<Item = ChangeSet>,
        batches: usize,
    ) -> StreamReport {
        self.run_with_results(solution, initial, stream, batches).0
    }

    /// Like [`StreamDriver::run`], but additionally collect the query result of
    /// **every measured batch** (warm-up excluded), in batch order. This is the
    /// reusable synchronous core the pipelined engine is differentially tested
    /// against: byte-identical per-batch results, not just the final one.
    pub fn run_with_results(
        &self,
        solution: &mut dyn Solution,
        initial: &SocialNetwork,
        stream: impl Iterator<Item = ChangeSet>,
        batches: usize,
    ) -> (StreamReport, Vec<String>) {
        self.run_with_observer(solution, initial, stream, batches, &mut NoopObserver)
    }

    /// Like [`StreamDriver::run_with_results`], with a [`RunObserver`]
    /// notified after the load and after every applied batch (warm-up
    /// included) — the synchronous engine's entry point for view publication.
    pub fn run_with_observer(
        &self,
        solution: &mut dyn Solution,
        initial: &SocialNetwork,
        mut stream: impl Iterator<Item = ChangeSet>,
        batches: usize,
        observer: &mut dyn RunObserver,
    ) -> (StreamReport, Vec<String>) {
        let load_start = Instant::now();
        let mut result = solution.load_and_initial(initial);
        let load_secs = load_start.elapsed().as_secs_f64();
        observer.loaded(initial, &result, solution);

        let mut seq = 0u64;
        for _ in 0..self.config.warmup_batches {
            if let Some(batch) = stream.next() {
                let batch = if self.config.coalesce {
                    coalesce(&batch)
                } else {
                    batch
                };
                let warm_result = solution.update_and_reevaluate(&batch);
                observer.applied(seq, &batch, &warm_result, solution);
                seq += 1;
            }
        }

        let mut latencies = Vec::with_capacity(batches);
        let mut results = Vec::with_capacity(batches);
        let mut total_operations = 0usize;
        let mut applied_operations = 0usize;
        for batch in stream.by_ref().take(batches) {
            total_operations += batch.operations.len();
            let batch = if self.config.coalesce {
                coalesce(&batch)
            } else {
                batch
            };
            applied_operations += batch.operations.len();
            let start = Instant::now();
            result = solution.update_and_reevaluate(&batch);
            latencies.push(start.elapsed().as_secs_f64());
            observer.applied(seq, &batch, &result, solution);
            seq += 1;
            results.push(result.clone());
        }

        let elapsed_secs: f64 = latencies.iter().sum();
        let report = StreamReport::from_latencies(
            solution.name(),
            latencies,
            elapsed_secs,
            total_operations,
            applied_operations,
            load_secs,
            result,
        );
        (report, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Query;
    use crate::solution::{run_solution, GraphBlasBatch, GraphBlasIncremental};
    use datagen::stream::{StreamConfig, UpdateStream};
    use datagen::{generate_workload, GeneratorConfig};

    fn network() -> SocialNetwork {
        generate_workload(&GeneratorConfig::tiny(23)).initial
    }

    fn stream(seed: u64, network: &SocialNetwork) -> UpdateStream {
        UpdateStream::new(
            network,
            StreamConfig {
                seed,
                batch_size: 12,
                ..StreamConfig::default()
            },
        )
    }

    #[test]
    fn coalesce_drops_add_remove_pairs() {
        use datagen::ChangeOperation::*;
        let batch = ChangeSet {
            operations: vec![
                AddLike {
                    user: 1,
                    comment: 11,
                },
                RemoveLike {
                    user: 1,
                    comment: 11,
                },
                AddFriendship { a: 1, b: 2 },
                RemoveFriendship { b: 1, a: 2 }, // reversed orientation, same edge
                AddFriendship { a: 1, b: 2 },
                AddLike {
                    user: 2,
                    comment: 11,
                },
            ],
        };
        let merged = coalesce(&batch);
        assert_eq!(
            merged.operations,
            vec![
                RemoveLike {
                    user: 1,
                    comment: 11
                },
                AddFriendship { a: 1, b: 2 },
                AddLike {
                    user: 2,
                    comment: 11
                },
            ]
        );
    }

    #[test]
    fn coalesce_keeps_node_insertions() {
        use datagen::ChangeOperation::*;
        let batch = ChangeSet {
            operations: vec![
                AddUser {
                    user: datagen::User {
                        id: 9,
                        name: "u".into(),
                    },
                },
                AddLike {
                    user: 9,
                    comment: 11,
                },
            ],
        };
        assert_eq!(coalesce(&batch).operations.len(), 2);
    }

    #[test]
    fn coalesced_batch_has_the_same_effect_as_the_sequence() {
        let network = network();
        for seed in [1u64, 2, 3] {
            let batches: Vec<ChangeSet> = stream(seed, &network).take(6).collect();
            let mut raw = GraphBlasBatch::new(Query::Q2, false);
            let mut merged = GraphBlasBatch::new(Query::Q2, false);
            raw.load_and_initial(&network);
            merged.load_and_initial(&network);
            for batch in &batches {
                let a = raw.update_and_reevaluate(batch);
                let b = merged.update_and_reevaluate(&coalesce(batch));
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }

    #[test]
    fn driver_reports_consistent_statistics() {
        let network = network();
        let mut solution = GraphBlasIncremental::new(Query::Q1, false);
        let report = StreamDriver::default().run(&mut solution, &network, stream(7, &network), 12);
        assert_eq!(report.batches, 12);
        assert!(report.total_operations > 0);
        assert!(report.applied_operations <= report.total_operations);
        assert!(report.updates_per_sec > 0.0);
        assert!(report.p50_latency_secs <= report.p90_latency_secs);
        assert!(report.p90_latency_secs <= report.p99_latency_secs);
        assert!(report.p99_latency_secs <= report.max_latency_secs);
        assert!(report.elapsed_secs > 0.0);
        assert!(!report.final_result.is_empty());
        assert!(report.solution.contains("Incremental"));
    }

    #[test]
    fn warmup_batches_are_excluded_from_measurement() {
        let network = network();
        let driver = StreamDriver::new(StreamDriverConfig {
            warmup_batches: 3,
            coalesce: true,
        });
        let mut solution = GraphBlasIncremental::new(Query::Q2, false);
        let report = driver.run(&mut solution, &network, stream(11, &network), 4);
        assert_eq!(report.batches, 4);
    }

    #[test]
    fn streamed_incremental_matches_batch_recomputation() {
        // the driver's end state must agree with a batch solution replaying the
        // same (coalesced) batches
        let network = network();
        let batches: Vec<ChangeSet> = stream(17, &network).take(8).collect();
        for query in [Query::Q1, Query::Q2] {
            let mut incremental = GraphBlasIncremental::new(query, false);
            let report = StreamDriver::default().run(
                &mut incremental,
                &network,
                batches.iter().cloned(),
                batches.len(),
            );
            let mut reference = GraphBlasBatch::new(query, false);
            let workload = datagen::Workload {
                initial: network.clone(),
                changesets: batches.clone(),
            };
            let expected = run_solution(&mut reference, &workload);
            assert_eq!(
                &report.final_result,
                expected.last().unwrap(),
                "query {query:?}"
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        // nearest rank: ⌈0.5 · 4⌉ = rank 2 (the old (len−1)-scale rounding
        // returned 3.0 here — an upward-biased median)
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 90.0), 4.0); // ⌈3.6⌉ = rank 4
        assert_eq!(percentile(&sorted, 25.0), 1.0); // ⌈1.0⌉ = rank 1
        assert_eq!(percentile(&[], 50.0), 0.0);
        // odd lengths: the true median element
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }
}
