//! JSON fragments of the `stream_throughput` report rows.
//!
//! Factored out of the binary so the shape of the report — the thing downstream
//! tooling (dashboards, the ROADMAP's rebalancing analysis) parses
//! — is unit-testable: every builder here has a stable-field-order test and a
//! round-trip test through the vendored `serde_json` parser.
//!
//! Field-order contract: the vendored [`serde_json::Value`] stores objects in a
//! `BTreeMap`, so keys render in **lexicographic order** — deterministic across
//! runs and machines, which is what "stable" means here (diffs of two reports
//! never reorder). The tests pin that order down explicitly so a change to the
//! map representation cannot silently reshuffle checked-in baselines.

use serde_json::{json, Value};
use ttc_social_media::pipeline::{PipelineStats, ReshardStats};
use ttc_social_media::stream::percentile;
use ttc_social_media::{RebalanceStats, RecoveryStats, ShardRouterStats};

/// The per-shard latency block of a sharded row: one object per shard with
/// p50/p99/max over that shard's per-batch update (or apply) times. The
/// solutions record a sample for *every* batch, so the first `warmup` samples
/// are dropped here — otherwise the per-shard percentiles would include the
/// cold-start batches the merged `StreamReport` percentiles exclude, and the
/// two blocks of the same row would not be comparable.
pub fn per_shard_json(lanes: &[Vec<f64>], warmup: usize) -> Value {
    let lanes: Vec<Value> = lanes
        .iter()
        .enumerate()
        .map(|(shard, lane)| {
            let mut measured = lane[warmup.min(lane.len())..].to_vec();
            measured.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite")); // lint: allow(panic) — latencies are Duration-derived seconds, never NaN
            json!({
                "shard": shard,
                "p50_latency_secs": percentile(&measured, 50.0),
                "p99_latency_secs": percentile(&measured, 99.0),
                "max_latency_secs": measured.last().copied().unwrap_or(0.0),
            })
        })
        .collect();
    Value::Array(lanes)
}

/// The shard-skew block: `(posts, comments)` owned per shard, straight from
/// `ShardedSolution::shard_sizes` / the pipeline's end-of-run snapshot. Feeds
/// the ROADMAP's rebalancing item: skew shows up as one shard's counts (and its
/// p99 in [`per_shard_json`]) pulling away from the others.
pub fn shard_sizes_json(sizes: &[(usize, usize)]) -> Value {
    Value::Array(
        sizes
            .iter()
            .enumerate()
            .map(|(shard, &(posts, comments))| {
                json!({
                    "shard": shard,
                    "posts": posts,
                    "comments": comments,
                })
            })
            .collect(),
    )
}

/// The router-statistics block shared by the sharded and pipelined rows.
pub fn router_stats_json(stats: ShardRouterStats) -> Value {
    json!({
        "routed_operations": stats.routed_operations,
        "broadcast_deliveries": stats.broadcast_deliveries,
        "friendship_deliveries": stats.friendship_deliveries,
        "imported_boundary_edges": stats.imported_boundary_edges,
    })
}

/// The rebalance block of a `--rebalance` row: how often the skew monitor
/// checked, how many discussion trees it migrated, and how much payload those
/// migrations carried. Read next to [`shard_sizes_json`]: a run whose
/// `migrations` counter is positive should show its max/mean `shard_sizes`
/// skew pulled back towards 1.
pub fn rebalance_stats_json(stats: RebalanceStats) -> Value {
    json!({
        "checks": stats.checks,
        "migrations": stats.migrations,
        "migrated_comments": stats.migrated_comments,
        "migrated_likes": stats.migrated_likes,
    })
}

/// The recovery block of a `--recover` row: crash/restore counters, how many
/// logged batches the restores replayed, checkpoint volume, and the worst
/// restore latency (snapshot decode + rebuild + replay) observed — the figure
/// the README's recovery section quotes.
pub fn recovery_stats_json(stats: RecoveryStats) -> Value {
    json!({
        "crashes": stats.crashes,
        "restores": stats.restores,
        "replayed_batches": stats.replayed_batches,
        "checkpoints": stats.checkpoints,
        "checkpoint_bytes": stats.checkpoint_bytes,
        "max_restore_secs": stats.max_restore_secs,
    })
}

/// One reshard barrier of a `--reshard` row: where it fired, the topology
/// change, the cost of the three barrier phases (drain to the checkpoint,
/// split/merge + evaluator rebuild, fleet respawn) in milliseconds, and how
/// many comments changed owning shard — the payload the barrier "moved".
pub fn reshard_stats_json(stats: &ReshardStats) -> Value {
    json!({
        "at_seq": stats.at_seq,
        "from_shards": stats.from_shards,
        "to_shards": stats.to_shards,
        "drain_ms": stats.drain_secs * 1e3,
        "split_ms": stats.split_secs * 1e3,
        "respawn_ms": stats.respawn_secs * 1e3,
        "moved_comments": stats.moved_comments,
    })
}

/// The pipeline block of a `--pipeline` row: queue bound, how often each stage
/// hit backpressure (blocked on a full downstream queue), and how far the
/// fastest shard ran ahead of the merge watermark. Recovery-enabled runs nest
/// their [`recovery_stats_json`] block here; `--reshard` runs additionally
/// carry one [`reshard_stats_json`] entry per barrier, in firing order.
pub fn pipeline_stats_json(stats: &PipelineStats) -> Value {
    let mut map = match json!({
        "queue_depth": stats.queue_depth,
        "ingest_backpressure": stats.ingest_backpressure,
        "route_backpressure": stats.route_backpressure,
        "apply_backpressure": stats.apply_backpressure,
        "max_watermark_lag": stats.max_watermark_lag,
    }) {
        Value::Object(map) => map,
        _ => unreachable!("json! object literal"),
    };
    if let Some(recovery) = stats.recovery {
        map.insert("recovery".to_string(), recovery_stats_json(recovery));
    }
    if !stats.reshards.is_empty() {
        map.insert(
            "reshards".to_string(),
            Value::Array(stats.reshards.iter().map(reshard_stats_json).collect()),
        );
    }
    Value::Object(map)
}

/// One measured read phase of a `serve_throughput` row: the aggregate of a
/// reader fleet driving one [`crate::ServeWorkload`] either concurrently with
/// the write stream (`write_active`) or against the frozen final chain.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ServePhase {
    /// Reader threads in the fleet.
    pub readers: usize,
    /// Whether the engine was applying batches while these reads ran.
    pub write_active: bool,
    /// Total reads completed across the fleet.
    pub reads: u64,
    /// Wall-clock duration of the phase (the slowest reader's window).
    pub elapsed_secs: f64,
    /// Highest view epoch any reader observed during the phase.
    pub max_epoch: u64,
}

impl ServePhase {
    /// Aggregate read throughput of the fleet.
    pub fn reads_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.reads as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// The serving block of a `serve_throughput` row. The paired `write_active`
/// true/false phases of the same workload are what the README's serving table
/// compares: lock-free readers should sustain comparable throughput whether
/// or not the apply path is publishing under them.
pub fn serve_phase_json(phase: &ServePhase) -> Value {
    json!({
        "readers": phase.readers,
        "write_active": phase.write_active,
        "reads": phase.reads,
        "elapsed_secs": phase.elapsed_secs,
        "reads_per_sec": phase.reads_per_sec(),
        "max_epoch": phase.max_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert `rendered` contains exactly `fields` as top-level keys, in order.
    fn assert_field_order(rendered: &str, fields: &[&str]) {
        let mut last = 0usize;
        for field in fields {
            let needle = format!("\"{field}\":");
            let at = rendered[last..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{field} missing or out of order in {rendered}"));
            last += at + needle.len();
        }
    }

    #[test]
    fn serve_phase_block_is_stable_and_round_trips() {
        // non-integral throughput: the vendored parser reads integral floats
        // back as integers, which would fail the round-trip comparison
        let phase = ServePhase {
            readers: 4,
            write_active: true,
            reads: 2_000_001,
            elapsed_secs: 2.5,
            max_epoch: 66,
        };
        let value = serve_phase_json(&phase);
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "elapsed_secs",
                "max_epoch",
                "readers",
                "reads",
                "reads_per_sec",
                "write_active",
            ],
        );
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(
            parsed.get("reads_per_sec").and_then(Value::as_f64),
            Some(800_000.4)
        );
        assert_eq!(
            parsed.get("write_active").and_then(Value::as_bool),
            Some(true)
        );

        // a zero-length phase reports zero throughput, not a NaN/inf
        let empty = ServePhase {
            readers: 1,
            write_active: false,
            reads: 0,
            elapsed_secs: 0.0,
            max_epoch: 0,
        };
        assert_eq!(empty.reads_per_sec(), 0.0);
    }

    #[test]
    fn per_shard_block_is_stable_and_round_trips() {
        let lanes = vec![
            vec![0.5, 0.001, 0.002, 0.003],
            vec![0.9, 0.004, 0.005, 0.006],
        ];
        let value = per_shard_json(&lanes, 1);
        let rendered = value.to_string();
        // warm-up sample (the 0.5 / 0.9 outliers) excluded from the percentiles
        assert!(
            !rendered.contains("0.5") && !rendered.contains("0.9"),
            "{rendered}"
        );
        let lanes_out = value.as_array().expect("array of shards");
        assert_eq!(lanes_out.len(), 2);
        for (shard, lane) in lanes_out.iter().enumerate() {
            assert_eq!(
                lane.get("shard").and_then(Value::as_u64),
                Some(shard as u64)
            );
            assert_field_order(
                &lane.to_string(),
                &[
                    "max_latency_secs",
                    "p50_latency_secs",
                    "p99_latency_secs",
                    "shard",
                ],
            );
        }
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
    }

    #[test]
    fn shard_sizes_block_is_stable_and_round_trips() {
        let value = shard_sizes_json(&[(10, 100), (7, 70), (13, 130)]);
        let rendered = value.to_string();
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        let shards = value.as_array().expect("array");
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[1].get("posts").and_then(Value::as_u64), Some(7));
        assert_eq!(shards[2].get("comments").and_then(Value::as_u64), Some(130));
        // lexicographic: comments < posts < shard
        assert_field_order(&shards[0].to_string(), &["comments", "posts", "shard"]);
    }

    #[test]
    fn router_stats_block_is_stable_and_round_trips() {
        let value = router_stats_json(ShardRouterStats {
            routed_operations: 1,
            broadcast_deliveries: 2,
            friendship_deliveries: 3,
            imported_boundary_edges: 4,
        });
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "broadcast_deliveries",
                "friendship_deliveries",
                "imported_boundary_edges",
                "routed_operations",
            ],
        );
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(
            parsed.get("routed_operations").and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn rebalance_block_is_stable_and_round_trips() {
        let value = rebalance_stats_json(RebalanceStats {
            checks: 5,
            migrations: 2,
            migrated_comments: 40,
            migrated_likes: 17,
        });
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "checks",
                "migrated_comments",
                "migrated_likes",
                "migrations",
            ],
        );
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(parsed.get("migrations").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn pipeline_block_is_stable_and_round_trips() {
        let stats = PipelineStats {
            queue_depth: 4,
            shards: 2,
            ingest_backpressure: 5,
            route_backpressure: 6,
            apply_backpressure: 7,
            max_watermark_lag: 3,
            ..PipelineStats::default()
        };
        let value = pipeline_stats_json(&stats);
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "apply_backpressure",
                "ingest_backpressure",
                "max_watermark_lag",
                "queue_depth",
                "route_backpressure",
            ],
        );
        // no recovery block unless recovery ran
        assert!(!rendered.contains("recovery"), "{rendered}");
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(
            parsed.get("max_watermark_lag").and_then(Value::as_u64),
            Some(3)
        );
    }

    #[test]
    fn recovery_block_is_stable_and_round_trips() {
        let stats = RecoveryStats {
            crashes: 2,
            restores: 2,
            replayed_batches: 9,
            checkpoints: 12,
            checkpoint_bytes: 4096,
            max_restore_secs: 0.125,
        };
        let value = recovery_stats_json(stats);
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "checkpoint_bytes",
                "checkpoints",
                "crashes",
                "max_restore_secs",
                "replayed_batches",
                "restores",
            ],
        );
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(parsed.get("crashes").and_then(Value::as_u64), Some(2));

        // and nested under the pipeline block when recovery ran
        let pipeline = PipelineStats {
            recovery: Some(stats),
            ..PipelineStats::default()
        };
        let rendered = pipeline_stats_json(&pipeline).to_string();
        assert!(rendered.contains("\"recovery\":{"), "{rendered}");
        assert!(rendered.contains("\"replayed_batches\":9"), "{rendered}");
    }

    #[test]
    fn reshard_block_is_stable_and_round_trips() {
        let stats = ReshardStats {
            at_seq: 6,
            from_shards: 2,
            to_shards: 4,
            drain_secs: 0.0105,
            split_secs: 0.0255,
            respawn_secs: 0.0015,
            moved_comments: 123,
        };
        let value = reshard_stats_json(&stats);
        let rendered = value.to_string();
        assert_field_order(
            &rendered,
            &[
                "at_seq",
                "drain_ms",
                "from_shards",
                "moved_comments",
                "respawn_ms",
                "split_ms",
                "to_shards",
            ],
        );
        let parsed: Value = serde_json::from_str(&rendered).expect("round trip");
        assert_eq!(parsed, value);
        assert_eq!(
            parsed.get("moved_comments").and_then(Value::as_u64),
            Some(123)
        );

        // nested as an array under the pipeline block, in firing order
        let pipeline = PipelineStats {
            reshards: vec![
                stats.clone(),
                ReshardStats {
                    at_seq: 9,
                    from_shards: 4,
                    to_shards: 3,
                    ..ReshardStats::default()
                },
            ],
            ..PipelineStats::default()
        };
        let rendered = pipeline_stats_json(&pipeline).to_string();
        assert!(rendered.contains("\"reshards\":[{"), "{rendered}");
        assert!(rendered.contains("\"at_seq\":6"), "{rendered}");
        assert!(rendered.contains("\"at_seq\":9"), "{rendered}");
        // and absent entirely when no barrier fired
        let no_reshard = pipeline_stats_json(&PipelineStats::default()).to_string();
        assert!(!no_reshard.contains("reshards"), "{no_reshard}");
    }
}
