//! The benchmark's one source of names: workloads, end-to-end metrics and
//! per-layer metrics. `--help`, the emitted rows, `ttc_bench manifest`
//! (which renders `BENCHMARK.json`) and the smoke test all read these tables,
//! so a metric cannot be declared without being emitted or the reverse.

use serde_json::{json, Value};

/// How long one contract run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 10;

/// One benchmark workload: its name (also the stem of its spec file under
/// `benchmark/workloads/`) and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "q1_stream",
        why: "sf64 unsharded Q1 stream: graph mutation (update::apply_changeset) dominates, kernels second, shard/pipeline/serve idle; a storage win must show here",
    },
    Workload {
        name: "q2_stream",
        why: "sf64 unsharded Q2 stream: affected-set product and FastSV re-score dominate, apply is ~15%; a q2/lagraph/mxm win shows here, a storage win barely does",
    },
    Workload {
        name: "q2_sharded",
        why: "sf64 Q2 on the synchronous 2-shard engine: routing replicates friendships and the slower shard sets batch time; covers the third engine",
    },
    Workload {
        name: "q1_pipeline",
        why: "q1_stream's exact stream through the staged 2-shard engine with recovery armed: route, queues, watermark merge and checkpoint encoding are on the path",
    },
    Workload {
        name: "q1_serve_paced",
        why: "sf16 open loop at 100 batches/s with view publication and a reader doing 4096 reads per epoch: writes beside reads, lag counted from due time",
    },
    Workload {
        name: "paper_q1",
        why: "the paper's Fig. 5 protocol for Q1 at sf256: batch algorithm (Alg. 1) in the load phase, then tiny insert-only changesets; fixed per-changeset overhead and O(state) scans set the update time",
    },
    Workload {
        name: "paper_q2",
        why: "Fig. 5 for Q2 at sf256: full FastSV scoring in the load phase, which no stream workload exercises",
    },
];

/// An end-to-end metric: every workload reports every one of these from the
/// timed (untraced) pass.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the base's median by which the metric may worsen.
    pub bound: f64,
    /// The workloads whose seed-to-seed spread is above a third of `bound`,
    /// each with the bound it is held to instead (three times its spread).
    pub loose: &'static [(&'static str, f64)],
    pub meaning: &'static str,
}

impl EndToEnd {
    /// The bound `compare` holds this metric to on `workload`.
    pub fn bound_on(&self, workload: &str) -> f64 {
        self.loose
            .iter()
            .find(|(w, _)| *w == workload)
            .map_or(self.bound, |(_, bound)| *bound)
    }

    /// `BENCHMARK.json` has one bound per metric across all workloads: the
    /// widest one.
    pub fn widest_bound(&self) -> f64 {
        self.loose
            .iter()
            .map(|(_, bound)| *bound)
            .fold(self.bound, f64::max)
    }
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        loose: &[],
        meaning: "network generation + stream materialisation, everything before load (median of 3 set-ups)",
    },
    EndToEnd {
        name: "load_initial_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
        // 50-60 ms loads: 3.3 % and 3.9 % over ten runs
        loose: &[("q2_stream", 0.12), ("q2_sharded", 0.12)],
        meaning: "paper phase 1: load_and_initial of a fresh engine (median over repetitions and load-only samples)",
    },
    EndToEnd {
        name: "updates_per_s",
        unit: "ops/s",
        better: "higher",
        bound: 0.10,
        // Q2's re-score cost is heavy-tailed in the liker count, so the seed
        // moves the update phase: 3.4-4.1 % over ten seeds at 900 changesets
        loose: &[("paper_q2", 0.15)],
        meaning: "emitted operations / wall-clock of the measured window, at the spec's sf and batch size (on paper_* the window is the paper's phase 2, update + re-evaluation). On q1_serve_paced this is the delivered rate, which the schedule pins while the run is sustainable: batch_p50_ms is the sensitive number there",
    },
    EndToEnd {
        name: "batch_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
        // eight threads on two cores, woken every 10 ms: runs of one seed
        // land 5 % apart, ten seeds spread 7-8 %. paper_q2 streams over the
        // largest state: two sets of runs of one commit, minutes apart on a
        // shared host, read 9 % apart while each set agreed within 1 %
        loose: &[("q1_serve_paced", 0.25), ("paper_q2", 0.15)],
        meaning: "per-batch response time, median of >=900 samples: offered to the engine -> result observable. Call -> return (coalesce+apply+merge) on the synchronous engines, ingest -> merged on q1_pipeline (queueing included), due time -> visible to the reader on q1_serve_paced",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        // up to 4.6 %, 6.0 %, 6.7 % and 5.2 % over ten seeds
        loose: &[
            ("q1_stream", 0.15),
            ("q1_pipeline", 0.20),
            ("q1_serve_paced", 0.20),
            ("paper_q2", 0.20),
        ],
        meaning: "VmHWM of the run's process after set-up and the first repetition",
    },
];

/// A per-layer metric: every workload reports every one of these from the
/// traced pass; a layer a workload does not run reports 0.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The public function the benchmark times (or the engine statistic it
    /// reads) to produce the metric.
    pub source: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // datagen
    layer("datagen.generate_s", "s", "lower", "datagen::generate_workload"),
    layer("datagen.stream_us_per_batch", "us", "lower", "datagen::UpdateStream::next"),
    layer("datagen.ops_in", "count", "higher", "operations in the materialised batches"),
    layer("datagen.partition_mod_ns_per_key", "ns", "lower", "ModuloPartitioner::shard_of"),
    layer("datagen.partition_ring_ns_per_key", "ns", "lower", "RingPartitioner::shard_of"),
    // stream
    layer("stream.coalesce_us_per_batch", "us", "lower", "stream::coalesce"),
    layer("stream.coalesce_drop_ratio", "ratio", "higher", "1 - coalesced ops / emitted ops"),
    // graph
    layer("graph.from_network_s", "s", "lower", "SocialGraph::from_network"),
    layer("graph.nnz_initial", "count", "lower", "nvals of the four graph matrices after load"),
    layer("graph.nnz_final", "count", "lower", "nvals of the four graph matrices after the last batch"),
    // update
    layer("update.apply_us_p50", "us", "lower", "update::apply_changeset"),
    layer("update.apply_share", "ratio", "lower", "apply_changeset time / batch time"),
    layer("update.apply_growth_ratio", "ratio", "lower", "apply_changeset: last-decile median / first-decile median"),
    // q1
    layer("q1.initialize_s", "s", "lower", "Q1Incremental::initialize"),
    layer("q1.update_us_p50", "us", "lower", "Q1Incremental::update"),
    layer("q1.update_share", "ratio", "lower", "Q1Incremental::update time / batch time"),
    layer("q1.update_growth_ratio", "ratio", "lower", "Q1Incremental::update: last-decile median / first-decile median"),
    // q2
    layer("q2.initialize_s", "s", "lower", "Q2Incremental::initialize"),
    layer("q2.affected_us_p50", "us", "lower", "q2::affected::affected_comments (shadow call)"),
    layer("q2.affected_per_batch", "count", "lower", "length of affected_comments' result, mean"),
    layer("q2.update_us_p50", "us", "lower", "Q2Incremental::update"),
    layer("q2.update_share", "ratio", "lower", "Q2Incremental::update time / batch time"),
    layer("q2.rescore_us_per_comment", "us", "lower", "(Q2Incremental::update - affected_comments) / affected comments"),
    layer("q2.cc_update_us_p50", "us", "lower", "Q2IncrementalCc::update on the same graph and delta (shadow)"),
    // top_k
    layer("top_k.rebuild_us_p50", "us", "lower", "TopKTracker::rebuild over the evaluator's scores (shadow, retraction batches)"),
    layer("top_k.merge_us_p50", "us", "lower", "TopKTracker::merge_changes of the evaluator's candidates (shadow, insert-only batches)"),
    layer("top_k.rebuild_batch_ratio", "ratio", "lower", "batches whose delta has removals / batches"),
    // graphblas (shadow structures fed the same like deltas; shard 0 on sharded passes)
    layer("graphblas.insert_tuples_us_p50", "us", "lower", "Matrix::insert_tuples on a shadow copy of Likes"),
    layer("graphblas.resize_us_p50", "us", "lower", "Matrix::resize on the shadow copy of Likes"),
    layer("graphblas.dynamic_sorted_us_p50", "us", "lower", "DynamicMatrix(Sorted)::resize+set+maybe_compact, same deltas"),
    layer("graphblas.dynamic_gapped_us_p50", "us", "lower", "DynamicMatrix(Gapped)::resize+set+maybe_compact, same deltas"),
    layer("graphblas.mxv_us_p50", "us", "lower", "ops::mxv(RootPost, likesCount+) (Alg. 2 line 11 operands)"),
    layer("graphblas.mxm_us_p50", "us", "lower", "ops::mxm(Likes, NewFriends) (Fig. 4b step 1 operands)"),
    // lagraph
    layer("lagraph.fastsv_full_ms", "ms", "lower", "lagraph::connected_components(Friends) at end of run"),
    layer("lagraph.incremental_cc_ns_per_edge", "ns", "lower", "IncrementalConnectedComponents::add_edge over the final friendships"),
    // shard
    layer("shard.split_initial_s", "s", "lower", "ShardRouter::with_partitioner + split_initial"),
    layer("shard.build_s", "s", "lower", "per-shard SocialGraph::from_network + initialize, summed"),
    layer("shard.route_us_p50", "us", "lower", "ShardRouter::route"),
    layer("shard.route_fanout", "ratio", "lower", "routed ops out / coalesced ops in"),
    layer("shard.apply_max_us_p50", "us", "lower", "slowest shard's apply per batch (the straggler)"),
    layer("shard.apply_skew", "ratio", "lower", "slowest shard's apply / mean shard apply, median"),
    layer("shard.merge_us_p50", "us", "lower", "ShardMerger::merge"),
    layer("shard.merge_rebuild_ratio", "ratio", "lower", "batches merged by rebuild / batches"),
    layer("shard.size_skew", "ratio", "lower", "largest shard's owned posts+comments / mean, at end of run"),
    // pipeline (statistics of an untraced engine run inside the traced invocation)
    layer("pipeline.e2e_p50_ms", "ms", "lower", "PipelinedEngine::run: ingest->merged latency, median"),
    layer("pipeline.e2e_p99_ms", "ms", "lower", "PipelinedEngine::run: ingest->merged latency, p99"),
    layer("pipeline.ingest_backpressure_per_batch", "ratio", "lower", "PipelineStats::ingest_backpressure / batches"),
    layer("pipeline.route_backpressure_per_batch", "ratio", "lower", "PipelineStats::route_backpressure / batches"),
    layer("pipeline.apply_backpressure_per_batch", "ratio", "lower", "PipelineStats::apply_backpressure / batches"),
    layer("pipeline.max_watermark_lag", "count", "lower", "PipelineStats::max_watermark_lag"),
    layer("pipeline.vs_serial_ratio", "ratio", "lower", "engine busy time / traced serial route+apply+merge sum"),
    // recovery
    layer("recovery.encode_ms_p50", "ms", "lower", "ShardCheckpoint::encode_parts"),
    layer("recovery.decode_ms_p50", "ms", "lower", "ShardCheckpoint::decode"),
    layer("recovery.checkpoint_bytes", "bytes", "lower", "size of the last encoded checkpoint, summed over shards"),
    layer("recovery.checkpoints_per_batch", "ratio", "lower", "checkpoints encoded / batches"),
    layer("recovery.split_ms", "ms", "lower", "ShardCheckpoint::split of the merged final checkpoint into 3"),
    layer("recovery.merge_ms", "ms", "lower", "ShardCheckpoint::merge of the final per-shard checkpoints"),
    layer("recovery.restore_ms", "ms", "lower", "RecoveryStats::max_restore_secs of an extra run killing shard 1 at its midpoint"),
    layer("recovery.reshard_barrier_ms", "ms", "lower", "ReshardStats drain+split+respawn of an extra run resharding 2->3 at its midpoint"),
    // serve
    layer("serve.observe_us_p50", "us", "lower", "ViewBuilder::observe_batch"),
    layer("serve.build_us_p50", "us", "lower", "ViewBuilder::build"),
    layer("serve.publish_us_p50", "us", "lower", "ViewPublisher::publish"),
    layer("serve.visible_lag_p50_ms", "ms", "lower", "due time -> ViewReader observes the epoch, median"),
    layer("serve.visible_lag_p95_ms", "ms", "lower", "due time -> ViewReader observes the epoch, p95"),
    layer("serve.capacity_updates_per_s", "ops/s", "higher", "emitted ops / engine busy time: sum over batches of max(due, previous visible) -> visible"),
    layer("serve.read_ns_per_op", "ns", "lower", "median over per-epoch blocks of 4096 reads (2:1:1)"),
    layer("serve.read_topk_ns", "ns", "lower", "QueryView::entries scan"),
    layer("serve.read_standing_ns", "ns", "lower", "QueryView::standing"),
    layer("serve.read_component_ns", "ns", "lower", "QueryView::component_of"),
    // nmf baseline
    layer("nmf.updates_per_s", "ops/s", "higher", "NmfIncremental::update_and_reevaluate on the same stream (Q1 workloads)"),
    layer("nmf.ratio", "ratio", "higher", "GraphBLAS updates_per_s / nmf.updates_per_s"),
    // harness
    layer("e2e.update_reeval_s", "s", "lower", "the untraced engine repetition inside the traced invocation: wall-clock of the measured window (on paper_*: paper phase 2, update + re-evaluation)"),
    layer("e2e.batch_p99_ms", "ms", "lower", "the untraced engine repetition inside the traced invocation: batch_p50_ms's latency, nearest-rank p99"),
    layer("loadgen.late_p99_ms", "ms", "lower", "paced source: yield time - due time, p99"),
    layer("loadgen.late_ratio", "ratio", "lower", "batches yielded more than one interval late / batches"),
    layer("trace.overhead_ratio", "ratio", "lower", "traced batch-span sum / engine busy time of the untraced repetition"),
    layer("trace.unattributed_ratio", "ratio", "lower", "batch-span self time / batch-span time"),
    layer("verify.reference_s", "s", "lower", "time spent computing the reference results"),
    layer("host.nproc", "count", "higher", "std::thread::available_parallelism"),
    layer("host.calibration_mops", "Mops", "higher", "fixed xorshift integer kernel"),
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> Value {
    let workloads: Vec<Value> = WORKLOADS
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better, "bound": m.widest_bound()}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better}))
        .collect();
    json!({
        "command": vec![Value::from("bash"), Value::from("benchmark/run.sh")],
        "paths": vec![
            Value::from("benchmark"),
            Value::from("crates/bench/src/bin/ttc_bench"),
        ],
        "run_seconds": RUN_SECONDS,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    })
}

/// The workload table entry of `name`, if declared.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end table entry of `name`, if declared.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.widest_bound() <= 0.25, "{}", m.name);
            for (w, loose) in m.loose {
                assert!(workload(w).is_some(), "{} loosens unknown {w}", m.name);
                assert!(*loose > m.bound, "{} on {w} is not looser", m.name);
            }
            assert!(matches!(m.better, "lower" | "higher"));
        }
        for m in PER_LAYER {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "lower" | "higher"));
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END
            .iter()
            .all(|m| m.widest_bound() <= setup.widest_bound()));
    }

    #[test]
    fn checked_in_manifest_matches_the_tables() {
        let text = include_str!("../../../../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let checked_in: Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert!(
            checked_in == manifest(),
            "BENCHMARK.json drifted from tables.rs: regenerate with `ttc_bench manifest > BENCHMARK.json`"
        );
    }
}
