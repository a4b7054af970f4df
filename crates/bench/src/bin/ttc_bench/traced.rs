//! The traced pass: the workload's dataflow re-executed step by step from the
//! benchmark's own code, every step a span around one public function of the
//! system. Unsharded workloads run `coalesce → apply_changeset → update`;
//! sharded, pipelined and served workloads run `coalesce → route → per-shard
//! (apply_changeset + update) → merge` serially on the benchmark's own
//! `SocialGraph`s, mirroring the engines' private `shard::Shard` with public
//! pieces, plus checkpoint encoding and view build/publish where the engine
//! has them on its path. Shadow spans replay kernels and alternative
//! structures on the same operands without entering the batch's time.

use std::collections::BTreeMap;

use datagen::partition::{ModuloPartitioner, Partitioner};
use datagen::{ChangeSet, SocialNetwork};
use graphblas::ops::{mxm, mxv};
use graphblas::ops_traits::First;
use graphblas::semiring::stock as semirings;
use graphblas::{DeltaLayout, DynamicMatrix, Index, Matrix};
use lagraph::IncrementalConnectedComponents;
use ttc_social_media::graph::SocialGraph;
use ttc_social_media::model::Query;
use ttc_social_media::q1::incremental::Q1Incremental;
use ttc_social_media::q2::affected::affected_comments;
use ttc_social_media::q2::incremental::Q2Incremental;
use ttc_social_media::q2::incremental_cc::Q2IncrementalCc;
use ttc_social_media::recovery::ShardCheckpoint;
use ttc_social_media::serve::{view_channel, CandidateSnapshot, ViewBuilder};
use ttc_social_media::shard::{ShardMerger, ShardRouter};
use ttc_social_media::stream::coalesce;
use ttc_social_media::top_k::{format_result, RankedEntry, TopKTracker};
use ttc_social_media::update::{apply_changeset, GraphDelta};
use ttc_social_media::TOP_K;

use crate::spec::{Engine, Spec};
use crate::stats::{self, ratio};
use crate::trace::{Tracer, NONE};

/// The outcome of a traced pass.
pub struct Traced {
    pub tracer: Tracer,
    /// Result string of the load phase (merged over the shards, if any).
    pub initial: String,
    /// Result string after every batch, warm-up included.
    pub results: Vec<String>,
    /// Q2 only: per batch, the incremental-CC evaluator's result on the
    /// shadowed lane's graph and the lane's own top-k, which must agree.
    pub cc_results: Vec<String>,
    pub cc_expected: Vec<String>,
    /// Per-layer metrics computed from the spans (names from `tables`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sum of the measured batch spans, in seconds.
    pub measured_s: f64,
}

enum Eval {
    Q1(Q1Incremental),
    Q2(Q2Incremental),
}

impl Eval {
    fn names(&self) -> (&'static str, &'static str) {
        match self {
            Eval::Q1(_) => ("q1.initialize", "q1.update"),
            Eval::Q2(_) => ("q2.initialize", "q2.update"),
        }
    }

    fn candidates(&self) -> &[RankedEntry] {
        match self {
            Eval::Q1(q1) => q1.candidates(),
            Eval::Q2(q2) => q2.candidates(),
        }
    }

    /// Every scored element with its current score — what the evaluators'
    /// private top-k rebuild scans after a retraction.
    fn ranked<'a>(&'a self, graph: &'a SocialGraph) -> Box<dyn Iterator<Item = RankedEntry> + 'a> {
        match self {
            Eval::Q1(q1) => Box::new((0..graph.post_count()).map(move |p| RankedEntry {
                score: q1.score_of(p),
                timestamp: graph.post_timestamp(p),
                id: graph.post_id(p),
            })),
            Eval::Q2(q2) => Box::new((0..graph.comment_count()).map(move |c| RankedEntry {
                score: q2.score_of(c),
                timestamp: graph.comment_timestamp(c),
                id: graph.comment_id(c),
            })),
        }
    }
}

/// One graph with its evaluator: the whole state of an unsharded run, or one
/// shard's slice of a sharded one.
struct Lane {
    graph: SocialGraph,
    eval: Eval,
    shard: i64,
}

impl Lane {
    fn load(tracer: &mut Tracer, part: &SocialNetwork, query: Query, shard: i64) -> (Lane, String) {
        let span = tracer.open("graph.from_network", NONE, shard);
        let graph = SocialGraph::from_network(part);
        tracer.close(span);
        let mut eval = match query {
            Query::Q1 => Eval::Q1(Q1Incremental::new(false, TOP_K)),
            Query::Q2 => Eval::Q2(Q2Incremental::new(false, TOP_K)),
        };
        let span = tracer.open(eval.names().0, NONE, shard);
        let initial = match &mut eval {
            Eval::Q1(q1) => q1.initialize(&graph),
            Eval::Q2(q2) => q2.initialize(&graph),
        };
        tracer.close(span);
        (Lane { graph, eval, shard }, initial)
    }

    fn apply(&mut self, tracer: &mut Tracer, seq: i64, ops: &ChangeSet) -> (GraphDelta, String) {
        let span = tracer.open("update.apply_changeset", seq, self.shard);
        let delta = apply_changeset(&mut self.graph, ops);
        tracer.close(span);
        let span = tracer.open(self.eval.names().1, seq, self.shard);
        let result = match &mut self.eval {
            Eval::Q1(q1) => q1.update(&self.graph, &delta),
            Eval::Q2(q2) => q2.update(&self.graph, &delta),
        };
        tracer.close(span);
        (delta, result)
    }

    fn nnz(&self) -> usize {
        let g = &self.graph;
        g.root_post.nvals() + g.likes.nvals() + g.friends.nvals() + g.commented.nvals()
    }

    fn owned(&self) -> usize {
        self.graph.post_count() + self.graph.comment_count()
    }
}

/// Shadow structures fed the deltas of one lane (the only lane of an
/// unsharded pass, shard 0 of a sharded one).
struct Shadows {
    likes: Matrix<u64>,
    sorted: DynamicMatrix<u64>,
    gapped: DynamicMatrix<u64>,
    top_k: TopKTracker,
    cc: Option<Q2IncrementalCc>,
    cc_results: Vec<String>,
    cc_expected: Vec<String>,
    affected: usize,
    rebuild_batches: usize,
}

impl Shadows {
    fn new(lane: &Lane) -> Self {
        let likes = lane.graph.likes.clone();
        let cc = matches!(lane.eval, Eval::Q2(_)).then(|| {
            let mut cc = Q2IncrementalCc::new(TOP_K);
            cc.initialize(&lane.graph);
            cc
        });
        Shadows {
            sorted: DynamicMatrix::with_layout(likes.clone(), DeltaLayout::Sorted),
            gapped: DynamicMatrix::with_layout(likes.clone(), DeltaLayout::Gapped),
            likes,
            top_k: TopKTracker::new(TOP_K),
            cc,
            cc_results: Vec::new(),
            cc_expected: Vec::new(),
            affected: 0,
            rebuild_batches: 0,
        }
    }

    fn observe(&mut self, tracer: &mut Tracer, seq: i64, lane: &Lane, delta: &GraphDelta) {
        let graph = &lane.graph;
        let shard = lane.shard;
        let (rows, cols) = (graph.comment_count(), graph.user_count());
        let tuples: Vec<(Index, Index, u64)> =
            delta.new_likes.iter().map(|&(c, u)| (c, u, 1)).collect();

        let span = tracer.open_shadow("graphblas.resize", seq, shard);
        self.likes.resize(rows, cols);
        tracer.close(span);
        let span = tracer.open_shadow("graphblas.insert_tuples", seq, shard);
        self.likes
            .insert_tuples(&tuples, First::new())
            .expect("the shadow was resized to the graph's dimensions");
        tracer.close(span);
        for &(c, u) in &delta.removed_likes {
            self.likes.remove(c, u);
        }

        for (name, matrix) in [
            ("graphblas.dynamic_sorted", &mut self.sorted),
            ("graphblas.dynamic_gapped", &mut self.gapped),
        ] {
            let span = tracer.open_shadow(name, seq, shard);
            matrix.resize(rows, cols);
            for &(c, u, v) in &tuples {
                matrix
                    .set(c, u, v)
                    .expect("the shadow was resized to the graph's dimensions");
            }
            matrix.maybe_compact();
            tracer.close(span);
        }

        let likes_plus = delta.new_likes_count(graph);
        let span = tracer.open_shadow("graphblas.mxv", seq, shard);
        std::hint::black_box(
            mxv(
                &graph.root_post,
                &likes_plus,
                semirings::plus_second::<u64>(),
            )
            .expect("RootPost columns are the comment space"),
        );
        tracer.close(span);
        if !delta.new_friendships.is_empty() {
            let incidence = delta.new_friends_incidence(graph);
            let span = tracer.open_shadow("graphblas.mxm", seq, shard);
            std::hint::black_box(
                mxm(&graph.likes, &incidence, semirings::plus_times::<u64>())
                    .expect("Likes columns are the user space"),
            );
            tracer.close(span);
        }

        if let Some(cc) = &mut self.cc {
            let span = tracer.open_shadow("q2.affected_comments", seq, shard);
            self.affected += affected_comments(graph, delta, false).len();
            tracer.close(span);
            let span = tracer.open_shadow("q2.cc_update", seq, shard);
            self.cc_results.push(cc.update(graph, delta));
            tracer.close(span);
            self.cc_expected.push(format_result(lane.eval.candidates()));
        }

        if delta.has_removals() {
            self.rebuild_batches += 1;
            let span = tracer.open_shadow("top_k.rebuild", seq, shard);
            self.top_k.rebuild(lane.eval.ranked(graph));
            tracer.close(span);
        } else {
            let span = tracer.open_shadow("top_k.merge_changes", seq, shard);
            self.top_k.merge_changes(lane.eval.candidates().to_vec());
            tracer.close(span);
        }
    }

    /// End-of-run kernels on the lane's friendship matrix.
    fn finish(&self, tracer: &mut Tracer, lane: &Lane) -> usize {
        let friends = &lane.graph.friends;
        let span = tracer.open_shadow("lagraph.fastsv", NONE, lane.shard);
        std::hint::black_box(lagraph::connected_components(friends).expect("Friends is square"));
        tracer.close(span);
        let edges: Vec<(u64, u64)> = friends
            .iter()
            .filter(|&(a, b, _)| a < b)
            .map(|(a, b, _)| (a as u64, b as u64))
            .collect();
        let span = tracer.open_shadow("lagraph.incremental_cc", NONE, lane.shard);
        let mut cc = IncrementalConnectedComponents::new();
        for &(a, b) in &edges {
            cc.add_edge(a, b);
        }
        std::hint::black_box(cc.component_count());
        tracer.close(span);
        edges.len()
    }
}

/// Counters the spans do not carry.
#[derive(Default)]
struct Counts {
    batches: usize,
    ops_in: usize,
    ops_coalesced: usize,
    routed_ops: usize,
    merge_rebuilds: usize,
    checkpoints: usize,
    checkpoint_bytes: usize,
    nnz_initial: usize,
    nnz_final: usize,
    size_skew: f64,
    cc_edges: usize,
}

pub fn run(spec: &Spec, network: &SocialNetwork, batches: &[ChangeSet]) -> Traced {
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let (initial, results, shadows) = if spec.engine.is_sharded() {
        sharded(spec, network, batches, &mut tracer, &mut counts)
    } else {
        unsharded(spec, network, batches, &mut tracer, &mut counts)
    };
    let metrics = layer_metrics(spec, &tracer, &counts, &shadows);
    let measured_s = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "batch" && s.seq >= spec.warmup as i64)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum();
    Traced {
        tracer,
        initial,
        results,
        cc_results: shadows.cc_results,
        cc_expected: shadows.cc_expected,
        metrics,
        measured_s,
    }
}

fn unsharded(
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (String, Vec<String>, Shadows) {
    let (mut lane, initial) = Lane::load(tracer, network, spec.query, NONE);
    counts.nnz_initial = lane.nnz();
    let mut shadows = Shadows::new(&lane);
    let mut results = Vec::with_capacity(batches.len());
    for (seq, raw) in batches.iter().enumerate() {
        let seq = seq as i64;
        let batch_span = tracer.open("batch", seq, NONE);
        let coalesced;
        let ops = if spec.engine == Engine::Paper {
            raw
        } else {
            let span = tracer.open("stream.coalesce", seq, NONE);
            coalesced = coalesce(raw);
            tracer.close(span);
            &coalesced
        };
        let (delta, result) = lane.apply(tracer, seq, ops);
        tracer.close(batch_span);
        counts.batches += 1;
        counts.ops_in += raw.operations.len();
        counts.ops_coalesced += ops.operations.len();
        shadows.observe(tracer, seq, &lane, &delta);
        results.push(result);
    }
    counts.nnz_final = lane.nnz();
    counts.cc_edges = shadows.finish(tracer, &lane);
    (initial, results, shadows)
}

fn sharded(
    spec: &Spec,
    network: &SocialNetwork,
    batches: &[ChangeSet],
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> (String, Vec<String>, Shadows) {
    let partitioner = ModuloPartitioner::new(spec.shards);
    let span = tracer.open("shard.split_initial", NONE, NONE);
    let mut router = ShardRouter::with_partitioner(network, Box::new(partitioner));
    let parts = router.split_initial(network);
    tracer.close(span);
    let mut lanes: Vec<Lane> = parts
        .iter()
        .enumerate()
        .map(|(shard, part)| {
            let span = tracer.open("shard.build", NONE, shard as i64);
            let (lane, _) = Lane::load(tracer, part, spec.query, shard as i64);
            tracer.close(span);
            lane
        })
        .collect();
    counts.nnz_initial = lanes.iter().map(Lane::nnz).sum();
    let union = |lanes: &[Lane]| -> Vec<RankedEntry> {
        lanes
            .iter()
            .flat_map(|lane| lane.eval.candidates().iter().copied())
            .collect()
    };
    let mut merger = ShardMerger::new(TOP_K);
    let initial = merger.merge(union(&lanes), true);

    // recovery armed: each shard keeps a mirror sub-network and encodes a
    // checkpoint of it every `checkpoint_every` applied batches
    let mut mirrors: Vec<SocialNetwork> = if spec.checkpoint_every > 0 {
        parts
    } else {
        Vec::new()
    };
    // serving: the merge stage folds each batch into a view and publishes it
    let mut serving = (spec.engine == Engine::Serve).then(|| {
        let mut builder = ViewBuilder::new(spec.query);
        builder.set_shards(spec.shards);
        // no reader is held: a reader parked at genesis would pin every view
        let (mut publisher, _) = view_channel(builder.genesis());
        builder.observe_initial(network);
        let snapshot = CandidateSnapshot {
            top: merger.current().to_vec(),
            candidates: union(&lanes),
        };
        publisher.publish(builder.build(None, &snapshot, &initial));
        (builder, publisher)
    });

    let mut shadows = Shadows::new(&lanes[0]);
    let mut results = Vec::with_capacity(batches.len());
    for (seq, raw) in batches.iter().enumerate() {
        let applied_through = seq as u64 + 1;
        let seq = seq as i64;
        let batch_span = tracer.open("batch", seq, NONE);
        let span = tracer.open("stream.coalesce", seq, NONE);
        let batch = coalesce(raw);
        tracer.close(span);
        let span = tracer.open("shard.route", seq, NONE);
        let routed = router.route(&batch);
        tracer.close(span);

        let mut any_removals = false;
        let mut delta0 = GraphDelta::default();
        let mut fresh_checkpoints: Vec<(i64, Vec<u8>)> = Vec::new();
        for (shard, (lane, ops)) in lanes.iter_mut().zip(&routed).enumerate() {
            let span = tracer.open("shard.apply", seq, shard as i64);
            // the engines' Shard::apply leaves an empty slice untouched
            if !ops.operations.is_empty() {
                let (delta, _) = lane.apply(tracer, seq, ops);
                any_removals |= delta.has_removals();
                if shard == 0 {
                    delta0 = delta;
                }
            }
            let mut encoded = None;
            if let Some(mirror) = mirrors.get_mut(shard) {
                let mirror_span = tracer.open("recovery.mirror_apply", seq, shard as i64);
                datagen::apply_changeset(mirror, ops);
                tracer.close(mirror_span);
                if applied_through.is_multiple_of(spec.checkpoint_every) {
                    let encode = tracer.open("recovery.encode", seq, shard as i64);
                    encoded = Some(ShardCheckpoint::encode_parts(
                        applied_through,
                        mirror,
                        lane.eval.candidates(),
                    ));
                    tracer.close(encode);
                }
            }
            tracer.close(span);
            if let Some(bytes) = encoded {
                counts.checkpoints += 1;
                counts.checkpoint_bytes = bytes.len();
                fresh_checkpoints.push((shard as i64, bytes));
            }
        }

        let span = tracer.open("shard.merge", seq, NONE);
        let result = merger.merge(union(&lanes), any_removals);
        tracer.close(span);
        if let Some((builder, publisher)) = &mut serving {
            let span = tracer.open("serve.observe_batch", seq, NONE);
            builder.observe_batch(&batch);
            tracer.close(span);
            let span = tracer.open("serve.build", seq, NONE);
            let snapshot = CandidateSnapshot {
                top: merger.current().to_vec(),
                candidates: union(&lanes),
            };
            let view = builder.build(Some(seq as u64), &snapshot, &result);
            tracer.close(span);
            let span = tracer.open("serve.publish", seq, NONE);
            publisher.publish(view);
            tracer.close(span);
        }
        tracer.close(batch_span);

        // decoding happens only on a restore: a shadow, after the batch
        for (shard, bytes) in fresh_checkpoints {
            let decode = tracer.open_shadow("recovery.decode", seq, shard);
            std::hint::black_box(
                ShardCheckpoint::decode(&bytes).expect("a fresh checkpoint decodes"),
            );
            tracer.close(decode);
        }
        counts.batches += 1;
        counts.ops_in += raw.operations.len();
        counts.ops_coalesced += batch.operations.len();
        counts.routed_ops += routed.iter().map(|r| r.operations.len()).sum::<usize>();
        counts.merge_rebuilds += usize::from(any_removals);
        shadows.observe(tracer, seq, &lanes[0], &delta0);
        results.push(result);
    }

    counts.nnz_final = lanes.iter().map(Lane::nnz).sum();
    let owned: Vec<f64> = lanes.iter().map(|l| l.owned() as f64).collect();
    let mean = owned.iter().sum::<f64>() / owned.len() as f64;
    counts.size_skew = ratio(owned.iter().copied().fold(0.0, f64::max), mean);
    counts.cc_edges = shadows.finish(tracer, &lanes[0]);

    if !mirrors.is_empty() {
        // the two halves of a reshard barrier, on the final state: merge the
        // per-shard checkpoints, then split them over one more shard
        counts.checkpoint_bytes *= lanes.len();
        let checkpoints: Vec<ShardCheckpoint> = mirrors
            .into_iter()
            .zip(&lanes)
            .map(|(network, lane)| ShardCheckpoint {
                applied_through: batches.len() as u64,
                network,
                candidates: lane.eval.candidates().to_vec(),
            })
            .collect();
        let span = tracer.open_shadow("recovery.merge", NONE, NONE);
        let mut merged = ShardCheckpoint::merge(checkpoints);
        tracer.close(span);
        merged.network.friendships = router.live_friendships();
        let wider = partitioner.resize(spec.shards + 1);
        let span = tracer.open_shadow("recovery.split", NONE, NONE);
        std::hint::black_box(merged.split(wider.as_ref(), spec.shards + 1));
        tracer.close(span);
    }
    (initial, results, shadows)
}

fn p50(tracer: &Tracer, name: &str) -> f64 {
    stats::percentile(&tracer.durations_us(name), 50.0)
}

/// Per-batch value of a per-shard span: `fold` over the shards of each batch.
fn per_batch(tracer: &Tracer, name: &str, fold: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let mut by_seq: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for span in tracer.spans().iter().filter(|s| s.name == name) {
        by_seq
            .entry(span.seq)
            .or_default()
            .push(span.duration_ns() as f64 / 1e3);
    }
    by_seq.values().map(|v| fold(v)).collect()
}

fn layer_metrics(
    spec: &Spec,
    tracer: &Tracer,
    counts: &Counts,
    shadows: &Shadows,
) -> BTreeMap<&'static str, f64> {
    let batches = counts.batches as f64;
    let batch_s = tracer.total_s("batch");
    let share = |name: &str| ratio(tracer.total_s(name), batch_s);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    let own = tracer.self_ns();
    let batch_self_s: f64 = tracer
        .spans()
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "batch")
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum();

    let apply_us = tracer.durations_us("update.apply_changeset");
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert(
        "stream.coalesce_us_per_batch",
        ratio(tracer.total_s("stream.coalesce") * 1e6, batches),
    );
    m.insert(
        "stream.coalesce_drop_ratio",
        1.0 - ratio(counts.ops_coalesced as f64, counts.ops_in as f64),
    );
    m.insert("graph.from_network_s", tracer.total_s("graph.from_network"));
    m.insert("graph.nnz_initial", counts.nnz_initial as f64);
    m.insert("graph.nnz_final", counts.nnz_final as f64);
    m.insert("update.apply_us_p50", stats::percentile(&apply_us, 50.0));
    m.insert("update.apply_share", share("update.apply_changeset"));
    m.insert("top_k.rebuild_us_p50", p50(tracer, "top_k.rebuild"));
    m.insert("top_k.merge_us_p50", p50(tracer, "top_k.merge_changes"));
    m.insert(
        "top_k.rebuild_batch_ratio",
        ratio(shadows.rebuild_batches as f64, batches),
    );
    m.insert(
        "graphblas.insert_tuples_us_p50",
        p50(tracer, "graphblas.insert_tuples"),
    );
    m.insert("graphblas.resize_us_p50", p50(tracer, "graphblas.resize"));
    m.insert(
        "graphblas.dynamic_sorted_us_p50",
        p50(tracer, "graphblas.dynamic_sorted"),
    );
    m.insert(
        "graphblas.dynamic_gapped_us_p50",
        p50(tracer, "graphblas.dynamic_gapped"),
    );
    m.insert("graphblas.mxv_us_p50", p50(tracer, "graphblas.mxv"));
    m.insert("graphblas.mxm_us_p50", p50(tracer, "graphblas.mxm"));
    m.insert(
        "lagraph.fastsv_full_ms",
        tracer.total_s("lagraph.fastsv") * 1e3,
    );
    m.insert(
        "lagraph.incremental_cc_ns_per_edge",
        ratio(
            tracer.total_s("lagraph.incremental_cc") * 1e9,
            counts.cc_edges as f64,
        ),
    );
    m.insert("trace.unattributed_ratio", ratio(batch_self_s, batch_s));
    match spec.query {
        Query::Q1 => {
            m.insert("q1.initialize_s", tracer.total_s("q1.initialize"));
            m.insert("q1.update_us_p50", p50(tracer, "q1.update"));
            m.insert("q1.update_share", share("q1.update"));
            m.insert(
                "q1.update_growth_ratio",
                stats::growth_ratio(&tracer.durations_us("q1.update")),
            );
        }
        Query::Q2 => {
            // the shadow (and so the affected-comment count) follows one lane:
            // divide that lane's re-score time, not the sum over the shards
            let update_s: f64 = tracer
                .spans()
                .iter()
                .filter(|s| s.name == "q2.update" && s.shard <= 0)
                .map(|s| s.duration_ns() as f64 / 1e9)
                .sum();
            let affected_s = tracer.total_s("q2.affected_comments");
            m.insert("q2.initialize_s", tracer.total_s("q2.initialize"));
            m.insert("q2.affected_us_p50", p50(tracer, "q2.affected_comments"));
            m.insert(
                "q2.affected_per_batch",
                ratio(shadows.affected as f64, batches),
            );
            m.insert("q2.update_us_p50", p50(tracer, "q2.update"));
            m.insert("q2.update_share", share("q2.update"));
            m.insert(
                "q2.rescore_us_per_comment",
                ratio(
                    (update_s - affected_s).max(0.0) * 1e6,
                    shadows.affected as f64,
                ),
            );
            m.insert("q2.cc_update_us_p50", p50(tracer, "q2.cc_update"));
        }
    }
    // growth is a property of one graph: on sharded passes follow shard 0
    let lane0: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "update.apply_changeset" && s.shard <= 0)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    m.insert("update.apply_growth_ratio", stats::growth_ratio(&lane0));

    if spec.engine.is_sharded() {
        let slowest = per_batch(tracer, "shard.apply", max);
        let skew = per_batch(tracer, "shard.apply", |v| {
            ratio(max(v), v.iter().sum::<f64>() / v.len() as f64)
        });
        m.insert(
            "shard.split_initial_s",
            tracer.total_s("shard.split_initial"),
        );
        m.insert("shard.build_s", tracer.total_s("shard.build"));
        m.insert("shard.route_us_p50", p50(tracer, "shard.route"));
        m.insert(
            "shard.route_fanout",
            ratio(counts.routed_ops as f64, counts.ops_coalesced as f64),
        );
        m.insert("shard.apply_max_us_p50", stats::percentile(&slowest, 50.0));
        m.insert("shard.apply_skew", stats::percentile(&skew, 50.0));
        m.insert("shard.merge_us_p50", p50(tracer, "shard.merge"));
        m.insert(
            "shard.merge_rebuild_ratio",
            ratio(counts.merge_rebuilds as f64, batches),
        );
        m.insert("shard.size_skew", counts.size_skew);
    }
    if spec.checkpoint_every > 0 {
        m.insert(
            "recovery.encode_ms_p50",
            p50(tracer, "recovery.encode") / 1e3,
        );
        m.insert(
            "recovery.decode_ms_p50",
            p50(tracer, "recovery.decode") / 1e3,
        );
        m.insert("recovery.checkpoint_bytes", counts.checkpoint_bytes as f64);
        m.insert(
            "recovery.checkpoints_per_batch",
            ratio(counts.checkpoints as f64, batches),
        );
        m.insert("recovery.split_ms", tracer.total_s("recovery.split") * 1e3);
        m.insert("recovery.merge_ms", tracer.total_s("recovery.merge") * 1e3);
    }
    if spec.engine == Engine::Serve {
        m.insert("serve.observe_us_p50", p50(tracer, "serve.observe_batch"));
        m.insert("serve.build_us_p50", p50(tracer, "serve.build"));
        m.insert("serve.publish_us_p50", p50(tracer, "serve.publish"));
    }
    m
}
