//! Shard-parallel streaming pipeline: user-id partitioning, boundary-edge
//! friendship replicas, per-shard incremental recompute, and cross-shard top-k
//! merging.
//!
//! The single-shard [`StreamDriver`](crate::stream::StreamDriver) applies one
//! micro-batch at a time through one [`Solution`]; every update serialises on one
//! copy of the query state. This module decomposes that state so a micro-batch
//! fans out over `N` independent shards:
//!
//! * **Partitioning.** The graph is partitioned by *user id* with the canonical
//!   [`datagen::stream::shard_of_user`] function. A post is owned by the shard of
//!   its author; every comment of a discussion tree follows its **root post's**
//!   shard, and likes follow the liked comment. Both queries score exactly one
//!   submission per result entry, and both scores only read edges inside the
//!   submission's discussion tree (Q1) or among the submission's likers (Q2), so
//!   whole-tree ownership makes every score computable on a single shard.
//! * **Boundary-edge replicas.** Friendship edges are the one relation that cuts
//!   across shards: Q2 connects likers of a comment regardless of where those
//!   users' own submissions live. The [`ShardRouter`] therefore maintains, per
//!   shard, the set of users *present* as likers, and replicates a friendship
//!   edge into every shard where **both** endpoints are present. When a user
//!   first likes a comment of a shard, the router backfills ("imports") the
//!   user's live friendships with already-present users, so the shard's friends
//!   sub-matrix always contains every edge among its likers — incremental
//!   connected components stay exact without any shard ever seeing the full
//!   friendship matrix.
//! * **Merging.** Each shard maintains its own top-k candidates with exact global
//!   scores (ownership is a partition, so no score is split across shards). The
//!   global top-k is merged from the union of the per-shard candidate lists with
//!   the same [`TopKTracker`] policy the single-shard evaluators use:
//!   [`TopKTracker::merge_changes`] on monotone (insert-only) batches, a rebuild
//!   from the union when a batch retracted edges. See `DESIGN.md` §"Sharded
//!   streaming pipeline" for the correctness argument.
//!
//! [`ShardedSolution`] implements [`Solution`], so the existing stream driver,
//! differential tests and benchmark binaries drive it unchanged; per-shard
//! latency samples are recorded for the `stream_throughput --shards N` report.
//!
//! The phases are exposed as stage-callable pieces rather than one monolithic
//! apply: [`ShardRouter`] (route), [`ShardEvaluator`] / [`ShardFactory`]
//! (pluggable per-shard apply — GraphBLAS here, the NMF dependency-record
//! baseline in `nmf_baseline::shard`), and [`ShardMerger`] (the cross-shard
//! top-k policy). [`ShardedSolution`] composes them synchronously with a
//! barrier per batch; [`crate::pipeline::PipelinedEngine`] composes the same
//! pieces asynchronously over bounded queues with a watermark merge.

use std::collections::{HashMap, HashSet};
use std::fmt;

use datagen::partition::{ModuloPartitioner, Partitioner};
use datagen::{ChangeOperation, ChangeSet, Comment, ElementId, SocialNetwork};
use rayon::prelude::*;

use crate::graph::SocialGraph;
use crate::lane::{ApplyOutcome, Lane};
use crate::model::Query;
use crate::q1::batch::q1_batch_ranked;
use crate::q1::incremental::Q1Incremental;
use crate::q2::batch::q2_batch_ranked;
use crate::q2::incremental::Q2Incremental;
use crate::q2::incremental_cc::Q2IncrementalCc;
use crate::solution::{Solution, TOP_K};
use crate::top_k::{RankedEntry, TopKTracker};
use crate::update::apply_changeset;

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Routing statistics, exposed for the benchmark report and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRouterStats {
    /// Operations routed to exactly one owning shard (posts, comments, likes).
    pub routed_operations: u64,
    /// Per-shard deliveries of broadcast operations (user registrations).
    pub broadcast_deliveries: u64,
    /// Per-shard deliveries of friendship operations via their replica sets.
    pub friendship_deliveries: u64,
    /// Boundary edges backfilled when a user first became present in a shard.
    pub imported_boundary_edges: u64,
}

/// Routes a coalesced micro-batch to per-shard changesets, maintaining the
/// boundary-edge replica sets described in the [module documentation](self).
///
/// Ownership is decided in two layers: the injected [`Partitioner`] policy
/// answers "which shard should own **new** work keyed on this user", while the
/// sticky `post_shard`/`comment_shard` maps answer "which shard **does** own
/// this existing submission". Existing trees therefore never move implicitly
/// when the policy changes — they move only through [`ShardRouter::migrate_tree`].
#[derive(Clone, Debug)]
pub struct ShardRouter {
    shards: usize,
    /// The injected partition policy every new-ownership decision goes through.
    partitioner: Box<dyn Partitioner>,
    /// Owning shard of each post (the shard of its author).
    post_shard: HashMap<ElementId, usize>,
    /// Owning shard of each comment (the shard of its root post).
    comment_shard: HashMap<ElementId, usize>,
    /// Global live friendship adjacency (both directions stored).
    friend_adj: HashMap<ElementId, HashSet<ElementId>>,
    /// Users present (as likers of owned comments) per shard. Presence is
    /// monotone: extra replicated edges are harmless, missing ones are not.
    present: Vec<HashSet<ElementId>>,
    stats: ShardRouterStats,
}

impl ShardRouter {
    /// Build a router over the initial network with the default modulo policy.
    /// `shards == 0` is treated as 1.
    pub fn new(network: &SocialNetwork, shards: usize) -> Self {
        Self::with_partitioner(network, Box::new(ModuloPartitioner::new(shards)))
    }

    /// Build a router over the initial network with an injected partition
    /// policy (modulo, consistent-hash ring, assignment table, …).
    pub fn with_partitioner(network: &SocialNetwork, partitioner: Box<dyn Partitioner>) -> Self {
        let shards = partitioner.shard_count();
        let mut post_shard = HashMap::with_capacity(network.posts.len());
        for post in &network.posts {
            post_shard.insert(post.id, partitioner.shard_of(post.author));
        }
        let mut comment_shard = HashMap::with_capacity(network.comments.len());
        for comment in &network.comments {
            let shard = post_shard
                .get(&comment.root_post)
                .copied()
                .unwrap_or_else(|| partitioner.shard_of(comment.author));
            comment_shard.insert(comment.id, shard);
        }
        let mut friend_adj: HashMap<ElementId, HashSet<ElementId>> = HashMap::new();
        for &(a, b) in &network.friendships {
            friend_adj.entry(a).or_default().insert(b);
            friend_adj.entry(b).or_default().insert(a);
        }
        let mut present: Vec<HashSet<ElementId>> = vec![HashSet::new(); shards];
        for &(user, comment) in &network.likes {
            if let Some(&shard) = comment_shard.get(&comment) {
                present[shard].insert(user);
            }
        }
        ShardRouter {
            shards,
            partitioner,
            post_shard,
            comment_shard,
            friend_adj,
            present,
            stats: ShardRouterStats::default(),
        }
    }

    /// Number of shards this router partitions over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The injected partition policy (`"mod"`, `"ring"`, `"table"`, …).
    pub fn partitioner(&self) -> &dyn Partitioner {
        self.partitioner.as_ref()
    }

    /// Routing statistics accumulated since construction.
    pub fn stats(&self) -> ShardRouterStats {
        self.stats
    }

    /// Record a crash restore with the partition policy: the replacement
    /// evaluator at `to` re-owns the dead shard `from`'s entire slice (see
    /// [`Partitioner::redirect_shard`]). Today's recovery path always restores
    /// in place (`from == to`), which static policies model trivially; an
    /// [`datagen::partition::AssignmentTable`]-backed policy also
    /// accepts `from != to`, the move elastic resharding needs. Returns
    /// whether the policy recorded the move.
    pub fn record_restore(&mut self, from: usize, to: usize) -> bool {
        assert!(
            from < self.shards && to < self.shards,
            "restore {from} -> {to} out of range (shards: {})",
            self.shards
        );
        // always tell the policy: an in-place restore clears any stale
        // redirect an [`AssignmentTable`] may hold for this shard
        let recorded = self.partitioner.redirect_shard(from, to);
        recorded || from == to
    }

    /// Owning shard of a comment id, if the comment is known.
    pub fn shard_of_comment(&self, comment: ElementId) -> Option<usize> {
        self.comment_shard.get(&comment).copied()
    }

    /// Every live friendship edge as one canonical sorted `(min, max)` pair
    /// per edge. This global adjacency exists **only** here: a pair of friends
    /// never co-present on any shard appears in no per-shard mirror, so an
    /// elastic reshard must re-inject this set into the merged union network
    /// before re-partitioning it, or later presence backfills would miss those
    /// edges (see [`crate::recovery::ShardCheckpoint::merge`] and DESIGN.md
    /// §5.8).
    pub fn live_friendships(&self) -> Vec<(ElementId, ElementId)> {
        let mut edges: Vec<(ElementId, ElementId)> = self
            .friend_adj
            .iter()
            .flat_map(|(&a, friends)| friends.iter().map(move |&b| (a.min(b), a.max(b))))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Owning shard of a post id, if the post is known.
    pub fn shard_of_post(&self, post: ElementId) -> Option<usize> {
        self.post_shard.get(&post).copied()
    }

    /// Split the initial network into one sub-network per shard: the node
    /// registries are replicated (users are cheap and friendship endpoints must
    /// resolve), while the edge payload is partitioned — owned posts/comments,
    /// likes on owned comments, and exactly the friendship edges whose endpoints
    /// are both present in the shard.
    pub fn split_initial(&self, network: &SocialNetwork) -> Vec<SocialNetwork> {
        (0..self.shards)
            .map(|shard| SocialNetwork {
                users: network.users.clone(),
                posts: network
                    .posts
                    .iter()
                    .filter(|p| self.post_shard.get(&p.id) == Some(&shard))
                    .cloned()
                    .collect(),
                comments: network
                    .comments
                    .iter()
                    .filter(|c| self.comment_shard.get(&c.id) == Some(&shard))
                    .cloned()
                    .collect(),
                friendships: network
                    .friendships
                    .iter()
                    .filter(|&&(a, b)| {
                        self.present[shard].contains(&a) && self.present[shard].contains(&b)
                    })
                    .copied()
                    .collect(),
                likes: network
                    .likes
                    .iter()
                    .filter(|&&(_, comment)| self.comment_shard.get(&comment) == Some(&shard))
                    .copied()
                    .collect(),
            })
            .collect()
    }

    /// Route one changeset into per-shard changesets, preserving the relative
    /// order of the operations delivered to each shard.
    pub fn route(&mut self, changeset: &ChangeSet) -> Vec<ChangeSet> {
        let mut per_shard: Vec<Vec<ChangeOperation>> = vec![Vec::new(); self.shards];
        for op in &changeset.operations {
            match op {
                ChangeOperation::AddUser { .. } => {
                    // node registration: replicated so later friendship endpoints
                    // resolve in every shard
                    for ops in &mut per_shard {
                        ops.push(op.clone());
                    }
                    self.stats.broadcast_deliveries += self.shards as u64;
                }
                ChangeOperation::AddPost { post } => {
                    let shard = self.partitioner.shard_of(post.author);
                    self.post_shard.insert(post.id, shard);
                    per_shard[shard].push(op.clone());
                    self.stats.routed_operations += 1;
                }
                ChangeOperation::AddComment { comment } => {
                    let shard = self
                        .post_shard
                        .get(&comment.root_post)
                        .copied()
                        .unwrap_or_else(|| self.partitioner.shard_of(comment.author));
                    self.comment_shard.insert(comment.id, shard);
                    per_shard[shard].push(op.clone());
                    self.stats.routed_operations += 1;
                }
                ChangeOperation::AddLike { user, comment } => {
                    if let Some(&shard) = self.comment_shard.get(comment) {
                        self.make_present(*user, shard, &mut per_shard[shard]);
                        per_shard[shard].push(op.clone());
                        self.stats.routed_operations += 1;
                    }
                }
                ChangeOperation::RemoveLike { comment, .. } => {
                    // presence is monotone, so no replica bookkeeping changes
                    if let Some(&shard) = self.comment_shard.get(comment) {
                        per_shard[shard].push(op.clone());
                        self.stats.routed_operations += 1;
                    }
                }
                ChangeOperation::AddFriendship { a, b } => {
                    self.friend_adj.entry(*a).or_default().insert(*b);
                    self.friend_adj.entry(*b).or_default().insert(*a);
                    for (present, ops) in self.present.iter().zip(&mut per_shard) {
                        if present.contains(a) && present.contains(b) {
                            ops.push(op.clone());
                            self.stats.friendship_deliveries += 1;
                        }
                    }
                }
                ChangeOperation::RemoveFriendship { a, b } => {
                    if let Some(adj) = self.friend_adj.get_mut(a) {
                        adj.remove(b);
                    }
                    if let Some(adj) = self.friend_adj.get_mut(b) {
                        adj.remove(a);
                    }
                    // the replica set of a live edge is exactly the shards where
                    // both endpoints are present (imports keep that invariant),
                    // so those are the only shards that can hold the edge
                    for (present, ops) in self.present.iter().zip(&mut per_shard) {
                        if present.contains(a) && present.contains(b) {
                            ops.push(op.clone());
                            self.stats.friendship_deliveries += 1;
                        }
                    }
                }
            }
        }
        per_shard
            .into_iter()
            .map(|operations| ChangeSet { operations })
            .collect()
    }

    /// Mark `user` present in `shard`; on first presence, backfill the boundary
    /// replicas: the user's live friendship edges whose other endpoint is already
    /// present in the shard (edges towards users arriving later are imported when
    /// *those* users arrive).
    fn make_present(&mut self, user: ElementId, shard: usize, ops: &mut Vec<ChangeOperation>) {
        if !self.present[shard].insert(user) {
            return;
        }
        if let Some(friends) = self.friend_adj.get(&user) {
            let mut imports: Vec<ElementId> = friends
                .iter()
                .copied()
                .filter(|friend| self.present[shard].contains(friend))
                .collect();
            imports.sort_unstable(); // deterministic replica order
            for friend in imports {
                ops.push(ChangeOperation::AddFriendship { a: user, b: friend });
                self.stats.imported_boundary_edges += 1;
            }
        }
    }

    /// Re-own a discussion tree during a migration: point the sticky maps of
    /// `root` and its `comments` at `to`, record `author`'s future assignment in
    /// the partition policy (a no-op for static policies — see
    /// [`Partitioner::reassign`]), and mark the tree's `likers` present in the
    /// recipient shard.
    ///
    /// Returns the boundary-replica **import** operations the recipient must
    /// apply *before* the tree's likes: for every liker newly present in `to`,
    /// their live friendship edges towards users already present there — the
    /// exact presence-tracked backfill [`ShardRouter::route`] performs when a
    /// liker arrives through a routed `AddLike`, so the §5.2 replica invariant
    /// ("edge in shard iff both endpoints present") is restored by construction.
    ///
    /// The donor's bookkeeping is deliberately left untouched: presence is
    /// monotone (superfluous replicas never change a score), so no donor-side
    /// replica retraction is needed or emitted.
    pub fn migrate_tree(
        &mut self,
        root: ElementId,
        author: ElementId,
        comments: &[ElementId],
        likers: &[ElementId],
        to: usize,
    ) -> Vec<ChangeOperation> {
        assert!(to < self.shards, "migration target shard out of range");
        self.post_shard.insert(root, to);
        for &comment in comments {
            self.comment_shard.insert(comment, to);
        }
        self.partitioner.reassign(author, to);
        let mut imports = Vec::new();
        for &liker in likers {
            self.make_present(liker, to, &mut imports);
        }
        imports
    }
}

// ---------------------------------------------------------------------------
// Per-shard evaluators
// ---------------------------------------------------------------------------

/// The query backend every shard runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ShardBackend {
    /// Full per-shard recomputation each batch (the sharded analogue of
    /// [`crate::solution::GraphBlasBatch`]).
    Batch,
    /// Incremental maintenance (Alg. 2 / affected-comments re-scoring).
    Incremental,
    /// Incremental maintenance with the incremental-CC backend (Q2 only; Q1
    /// falls back to [`ShardBackend::Incremental`]).
    IncrementalCc,
}

/// One shard's slice of the query state, behind the stage-callable interface the
/// apply phase of both ingestion engines drives: the synchronous barrier driver
/// ([`ShardedSolution`]) applies every shard in lock-step per batch, the staged
/// pipeline ([`crate::pipeline::PipelinedEngine`]) moves each evaluator into its
/// own long-lived worker thread.
///
/// The `Send` supertrait is what lets an evaluator migrate into a worker thread;
/// implementations must not share mutable state across shards (the whole point
/// of the partition is that they cannot).
pub trait ShardEvaluator: Send {
    /// Apply one routed changeset and refresh this shard's candidates. Returns
    /// whether the changeset retracted an edge of this shard — in which case the
    /// cross-shard merge must rebuild rather than merge (see [`ShardMerger`]).
    fn apply(&mut self, changeset: &ChangeSet) -> bool;

    /// Current top-k candidates of this shard, best first, with **exact global
    /// scores** (ownership is a partition, so no score is split across shards).
    fn candidates(&self) -> &[RankedEntry];

    /// `(posts, comments)` owned by this shard, for balance/skew inspection.
    fn owned_sizes(&self) -> (usize, usize);
}

/// Builds one [`ShardEvaluator`] per shard sub-network (as produced by
/// [`ShardRouter::split_initial`]). `Send + Sync` so the per-shard builds can
/// run on the rayon pool and the factory can be shared with stage threads.
pub trait ShardFactory: Send + Sync {
    /// Build the evaluator over one shard's sub-network, initial candidates
    /// included.
    fn build(&self, part: &SocialNetwork) -> Box<dyn ShardEvaluator>;

    /// Which query the evaluators answer.
    fn query(&self) -> Query;

    /// Base display name without the shard count, e.g.
    /// `"GraphBLAS Sharded Incremental"`.
    fn name(&self) -> String;
}

/// The [`ShardFactory`] of the GraphBLAS backends: each shard runs an unmodified
/// single-shard evaluator ([`Q1Incremental`], [`Q2Incremental`],
/// [`Q2IncrementalCc`], or batch recompute) over its own sub-graph.
#[derive(Copy, Clone, Debug)]
pub struct GraphBlasShardFactory {
    query: Query,
    backend: ShardBackend,
    /// Per-shard kernels stay serial: the pipeline's parallelism is *across*
    /// shards, and nesting rayon pools would oversubscribe the workers.
    parallel_kernels: bool,
    k: usize,
}

impl GraphBlasShardFactory {
    /// Create a factory for `query` with the given per-shard `backend`.
    pub fn new(query: Query, backend: ShardBackend) -> Self {
        GraphBlasShardFactory {
            query,
            backend,
            parallel_kernels: false,
            k: TOP_K,
        }
    }
}

impl ShardFactory for GraphBlasShardFactory {
    fn build(&self, part: &SocialNetwork) -> Box<dyn ShardEvaluator> {
        Box::new(Shard::new(
            part,
            self.query,
            self.backend,
            self.parallel_kernels,
            self.k,
        ))
    }

    fn query(&self) -> Query {
        self.query
    }

    fn name(&self) -> String {
        let backend = match self.backend {
            ShardBackend::Batch => "Batch",
            ShardBackend::Incremental => "Incremental",
            ShardBackend::IncrementalCc => "Incremental CC",
        };
        format!("GraphBLAS Sharded {backend}")
    }
}

enum ShardState {
    Batch(Query),
    Q1(Q1Incremental),
    Q2(Q2Incremental),
    Q2Cc(Q2IncrementalCc),
}

struct Shard {
    graph: SocialGraph,
    state: ShardState,
    parallel_kernels: bool,
    k: usize,
    /// Current top-k candidates of this shard, best first, with exact scores.
    candidates: Vec<RankedEntry>,
}

impl Shard {
    fn new(
        network: &SocialNetwork,
        query: Query,
        backend: ShardBackend,
        parallel_kernels: bool,
        k: usize,
    ) -> Self {
        let graph = SocialGraph::from_network(network);
        let (state, candidates) = match (backend, query) {
            (ShardBackend::Batch, Query::Q1) => (
                ShardState::Batch(query),
                q1_batch_ranked(&graph, parallel_kernels, k),
            ),
            (ShardBackend::Batch, Query::Q2) => (
                ShardState::Batch(query),
                q2_batch_ranked(&graph, parallel_kernels, k),
            ),
            (ShardBackend::Incremental, Query::Q1) | (ShardBackend::IncrementalCc, Query::Q1) => {
                let mut q1 = Q1Incremental::new(parallel_kernels, k);
                q1.initialize(&graph);
                let candidates = q1.candidates().to_vec();
                (ShardState::Q1(q1), candidates)
            }
            (ShardBackend::Incremental, Query::Q2) => {
                let mut q2 = Q2Incremental::new(parallel_kernels, k);
                q2.initialize(&graph);
                let candidates = q2.candidates().to_vec();
                (ShardState::Q2(q2), candidates)
            }
            (ShardBackend::IncrementalCc, Query::Q2) => {
                let mut q2 = Q2IncrementalCc::new(k);
                q2.initialize(&graph);
                let candidates = q2.candidates().to_vec();
                (ShardState::Q2Cc(q2), candidates)
            }
        };
        Shard {
            graph,
            state,
            parallel_kernels,
            k,
            candidates,
        }
    }
}

impl ShardEvaluator for Shard {
    /// Apply one routed changeset and refresh the shard's candidates. Returns
    /// whether the changeset retracted any edge of this shard (in which case the
    /// cross-shard merge must rebuild rather than merge).
    fn apply(&mut self, changeset: &ChangeSet) -> bool {
        if changeset.operations.is_empty() {
            return false;
        }
        let delta = apply_changeset(&mut self.graph, changeset);
        let had_removals = delta.has_removals();
        self.candidates = match &mut self.state {
            ShardState::Batch(Query::Q1) => {
                q1_batch_ranked(&self.graph, self.parallel_kernels, self.k)
            }
            ShardState::Batch(Query::Q2) => {
                q2_batch_ranked(&self.graph, self.parallel_kernels, self.k)
            }
            ShardState::Q1(q1) => {
                q1.update(&self.graph, &delta);
                q1.candidates().to_vec()
            }
            ShardState::Q2(q2) => {
                q2.update(&self.graph, &delta);
                q2.candidates().to_vec()
            }
            ShardState::Q2Cc(q2) => {
                q2.update(&self.graph, &delta);
                q2.candidates().to_vec()
            }
        };
        had_removals
    }

    fn candidates(&self) -> &[RankedEntry] {
        &self.candidates
    }

    fn owned_sizes(&self) -> (usize, usize) {
        (self.graph.post_count(), self.graph.comment_count())
    }
}

// ---------------------------------------------------------------------------
// Cross-shard merge
// ---------------------------------------------------------------------------

/// The cross-shard top-k merge policy, factored out so the synchronous barrier
/// driver and the pipelined engine's watermark merger apply the *same* rule:
///
/// * **Monotone batch** (no shard reported an effective retraction):
///   [`TopKTracker::merge_changes`] over the union of the per-shard candidate
///   lists. Exact because scores only grew — any stale global entry is outranked
///   by its shard's `k` fresh candidates.
/// * **Batch with retractions**: a retraction may have pushed a submission out
///   of some shard's candidates entirely, so stale global entries must not
///   survive; the tracker is rebuilt from the union. Exact because ownership is
///   a partition: a submission in the true global top-k is in its own shard's
///   exactly-maintained top-k, hence in the union.
///
/// See `DESIGN.md` §5.3 for the full correctness argument.
#[derive(Clone, Debug)]
pub struct ShardMerger {
    tracker: TopKTracker,
}

impl ShardMerger {
    /// Create a merger maintaining the global top `k`.
    pub fn new(k: usize) -> Self {
        ShardMerger {
            tracker: TopKTracker::new(k),
        }
    }

    /// Fold one batch's union of per-shard candidates into the global top-k and
    /// return the rendered result. `any_removals` selects the policy above.
    pub fn merge(&mut self, union: Vec<RankedEntry>, any_removals: bool) -> String {
        if any_removals {
            self.tracker.rebuild(union);
        } else {
            self.tracker.merge_changes(union);
        }
        self.tracker.format()
    }

    /// The global top-k after the most recent merge, best first — the ranked
    /// material [`crate::serve::QueryView`]s are frozen from.
    pub fn current(&self) -> &[RankedEntry] {
        self.tracker.current()
    }
}

// ---------------------------------------------------------------------------
// Sharded solution
// ---------------------------------------------------------------------------

/// The load phase both sharded engines share: partition `network` under
/// `partitioner`, build one [`Lane`] per shard sub-network (rayon-parallel),
/// and fold the initial per-shard candidates through a fresh [`ShardMerger`].
/// Returns the router, the lanes (positioned at sequence 0), the merger
/// (already holding the initial global state), and the initial result.
///
/// The synchronous [`ShardedSolution`] and the pipelined engine
/// ([`crate::pipeline::PipelinedEngine`]) both start from this one function —
/// the byte-identity the differential tests guarantee depends on the two
/// engines never drifting apart in how they partition, build, or seed the
/// merge state. With `keep_mirrors` the lanes keep the very sub-networks
/// their evaluators were built from, for rebalancing, recovery and resharding.
pub(crate) fn load_lanes(
    factory: &dyn ShardFactory,
    network: &SocialNetwork,
    partitioner: Box<dyn Partitioner>,
    keep_mirrors: bool,
) -> (ShardRouter, Vec<Lane>, ShardMerger, String) {
    let router = ShardRouter::with_partitioner(network, partitioner);
    let lanes: Vec<Lane> = router
        .split_initial(network)
        .into_par_iter()
        .map(|part| Lane::from_mirror(factory, part, 0).keep_mirror(keep_mirrors))
        .collect();
    let mut merger = ShardMerger::new(TOP_K);
    let initial = merger.merge(candidate_union(&lanes), true);
    (router, lanes, merger, initial)
}

/// The union of the lanes' current candidate lists, in shard order — the
/// cross-shard merge's input and the serve path's candidate pool.
pub(crate) fn candidate_union(lanes: &[Lane]) -> Vec<RankedEntry> {
    lanes
        .iter()
        .flat_map(|lane| lane.candidates().iter().copied())
        .collect()
}

/// Configuration of the skew monitor behind [`ShardedSolution::with_rebalancing`].
///
/// The monitor runs between micro-batches, reading the same load signal the
/// `stream_throughput` report surfaces as `shard_sizes` (owned posts +
/// comments per shard). When the hottest shard's load exceeds
/// `skew_threshold ×` the mean, the largest discussion tree that still fits
/// the donor–recipient gap is migrated to the coldest shard (see
/// [`ShardedSolution::migrate_tree`]).
#[derive(Clone, Debug, PartialEq)]
pub struct RebalanceConfig {
    /// Batches between skew checks. `0` disables the automatic monitor while
    /// still maintaining the per-shard mirrors, so explicit
    /// [`ShardedSolution::migrate_tree`] calls (tests, operators) keep working.
    pub check_every: usize,
    /// Trigger threshold: migrate when `max_load > skew_threshold × mean_load`.
    /// Must be `> 1.0`; values close to 1 chase noise, large values tolerate
    /// skew.
    pub skew_threshold: f64,
    /// Upper bound on migrations per triggered check (each migration rebuilds
    /// the donor shard, so this caps the pause a check may introduce).
    pub max_migrations_per_check: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            check_every: 8,
            skew_threshold: 1.5,
            max_migrations_per_check: 1,
        }
    }
}

/// Counters of the skew monitor, surfaced in the `stream_throughput` report's
/// `rebalance` block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Skew checks performed (every `check_every` batches).
    pub checks: u64,
    /// Discussion trees migrated.
    pub migrations: u64,
    /// Comments moved across shards by those migrations.
    pub migrated_comments: u64,
    /// Likes moved across shards by those migrations.
    pub migrated_likes: u64,
}

/// Why an explicit [`ShardedSolution::migrate_tree`] call was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MigrateError {
    /// The solution was built without [`ShardedSolution::with_rebalancing`], so
    /// no per-shard mirrors exist to extract a tree from.
    RebalancingDisabled,
    /// The root post id is not owned by any shard (unknown or not a post).
    UnknownRoot(ElementId),
    /// The target shard index is `>=` the shard count.
    ShardOutOfRange(usize),
    /// The tree already lives on the requested target shard.
    AlreadyOwned(usize),
}

impl fmt::Display for MigrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MigrateError::RebalancingDisabled => {
                write!(f, "rebalancing is not enabled on this solution")
            }
            MigrateError::UnknownRoot(root) => write!(f, "unknown root post {root}"),
            MigrateError::ShardOutOfRange(shard) => {
                write!(f, "target shard {shard} out of range")
            }
            MigrateError::AlreadyOwned(shard) => {
                write!(f, "tree already lives on shard {shard}")
            }
        }
    }
}

impl std::error::Error for MigrateError {}

/// A [`Solution`] that partitions the graph across `N` shards and processes every
/// micro-batch as a synchronous barrier pipeline: route → per-shard apply +
/// recompute (rayon-parallel across shards) → cross-shard top-k merge. The
/// per-shard backend is pluggable via [`ShardFactory`] — [`ShardedSolution::new`]
/// wires the GraphBLAS backends, `nmf_baseline` supplies the NMF dependency-record
/// evaluator — and so is the partition policy
/// ([`ShardedSolution::with_factory_and_partitioner`]). The asynchronous
/// counterpart that overlaps batches across the same pieces lives in
/// [`crate::pipeline`]. See the [module documentation](self).
///
/// With [`ShardedSolution::with_rebalancing`], the lanes additionally keep
/// their mirrors (the replayable source of truth for what each shard holds —
/// see [`crate::lane`]) and the skew monitor runs between batches; see
/// [`ShardedSolution::migrate_tree`] for the migration protocol and
/// `DESIGN.md` §5.6 for the correctness argument.
pub struct ShardedSolution {
    factory: Box<dyn ShardFactory>,
    shard_count: usize,
    /// The pristine policy; cloned into the router on every load so repeated
    /// loads never inherit a previous run's migration overrides.
    partitioner: Box<dyn Partitioner>,
    router: Option<ShardRouter>,
    /// One lane per shard; they keep mirrors exactly when rebalancing is on.
    lanes: Vec<Lane>,
    merger: ShardMerger,
    /// Per-shard per-batch update latencies (seconds), recorded by
    /// [`Solution::update_and_reevaluate`] for the benchmark report.
    per_shard_latencies: Vec<Vec<f64>>,
    /// Rebalancing: skew-monitor configuration (`None` = disabled, no mirrors).
    rebalance: Option<RebalanceConfig>,
    rebalance_stats: RebalanceStats,
    batches_since_check: usize,
}

/// A rebalancing lane's mirror: `load_and_initial` keeps the mirrors whenever
/// rebalancing is configured (every caller checks that first) and nothing
/// drops them afterwards.
fn mirror_of(lane: &Lane) -> &SocialNetwork {
    lane.mirror().expect("rebalancing lanes keep their mirrors") // lint: allow(panic) — see the doc comment
}

impl ShardedSolution {
    /// Create a sharded solution answering `query` on `shards` shards with the
    /// given per-shard GraphBLAS `backend`. Per-shard kernels stay serial: the
    /// pipeline's parallelism is *across* shards, and nesting rayon pools would
    /// oversubscribe the workers.
    pub fn new(query: Query, backend: ShardBackend, shards: usize) -> Self {
        Self::with_factory(Box::new(GraphBlasShardFactory::new(query, backend)), shards)
    }

    /// Create a sharded solution over an arbitrary per-shard backend with the
    /// default modulo partition policy. `shards == 0` is treated as 1.
    pub fn with_factory(factory: Box<dyn ShardFactory>, shards: usize) -> Self {
        Self::with_factory_and_partitioner(factory, Box::new(ModuloPartitioner::new(shards)))
    }

    /// Create a sharded solution over an arbitrary per-shard backend and an
    /// injected partition policy; the shard count is the policy's.
    pub fn with_factory_and_partitioner(
        factory: Box<dyn ShardFactory>,
        partitioner: Box<dyn Partitioner>,
    ) -> Self {
        let shard_count = partitioner.shard_count();
        ShardedSolution {
            factory,
            shard_count,
            partitioner,
            router: None,
            lanes: Vec::new(),
            merger: ShardMerger::new(TOP_K),
            per_shard_latencies: Vec::new(),
            rebalance: None,
            rebalance_stats: RebalanceStats::default(),
            batches_since_check: 0,
        }
    }

    /// Enable tree-migration rebalancing: maintain per-shard mirrors and run
    /// the skew monitor of `config` between micro-batches.
    pub fn with_rebalancing(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = Some(config);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Name of the partition policy in effect (`"mod"`, `"ring"`, `"table"`).
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner.name()
    }

    /// Router statistics (zeroed until [`Solution::load_and_initial`] runs).
    pub fn router_stats(&self) -> ShardRouterStats {
        self.router.as_ref().map(|r| r.stats()).unwrap_or_default()
    }

    /// Skew-monitor statistics (all zero while rebalancing is disabled).
    pub fn rebalance_stats(&self) -> RebalanceStats {
        self.rebalance_stats
    }

    /// Per-shard per-batch update latencies in seconds, indexed `[shard][batch]`.
    pub fn per_shard_latencies(&self) -> &[Vec<f64>] {
        &self.per_shard_latencies
    }

    /// Number of (posts, comments) owned by each shard, for balance inspection.
    pub fn shard_sizes(&self) -> Vec<(usize, usize)> {
        self.lanes.iter().map(Lane::owned_sizes).collect()
    }

    /// Migrate the discussion tree rooted at post `root` to shard `to`:
    ///
    /// 1. **Extract** the tree's sub-network — the root post, its comments, and
    ///    the likes on those comments — from the donor shard's mirror.
    /// 2. **Re-own** it in the router ([`ShardRouter::migrate_tree`]): sticky
    ///    maps point at the recipient, the partition policy records the
    ///    author's future assignment, and the presence-tracked backfill yields
    ///    the friendship **imports** the recipient needs for the tree's likers.
    /// 3. **Apply** imports + tree to the recipient as an initial-load delta
    ///    (an ordinary insert-only changeset through `Lane::graft`).
    /// 4. **Rebuild** the donor lane from its shrunken mirror via
    ///    [`Lane::from_mirror`] (the model has no post/comment retractions, so
    ///    the donor cannot be delta-shrunk).
    ///
    /// The migration is invisible to the merged output: every submission keeps
    /// its exact score, it is merely computed on a different shard from the
    /// next batch on (`DESIGN.md` §5.6 gives the argument; the rebalancing
    /// differential tests enforce it byte-for-byte).
    pub fn migrate_tree(&mut self, root: ElementId, to: usize) -> Result<(), MigrateError> {
        if self.rebalance.is_none() {
            return Err(MigrateError::RebalancingDisabled);
        }
        if to >= self.shard_count {
            return Err(MigrateError::ShardOutOfRange(to));
        }
        let router = self
            .router
            .as_mut()
            .expect("load_and_initial must run before migrations"); // lint: allow(panic) — migrate() is only reachable after load_and_initial per the Solution contract
        let donor = router
            .shard_of_post(root)
            .ok_or(MigrateError::UnknownRoot(root))?;
        if donor == to {
            return Err(MigrateError::AlreadyOwned(to));
        }

        // 1. extract the tree from the donor mirror (order-preserving, so the
        //    recipient replays comments parent-before-child and likes after
        //    their comments, exactly as the original stream delivered them)
        let donor_mirror = mirror_of(&self.lanes[donor]);
        let post = donor_mirror
            .posts
            .iter()
            .find(|p| p.id == root)
            .cloned()
            .ok_or(MigrateError::UnknownRoot(root))?;
        let comments: Vec<Comment> = donor_mirror
            .comments
            .iter()
            .filter(|c| c.root_post == root)
            .cloned()
            .collect();
        let comment_ids: HashSet<ElementId> = comments.iter().map(|c| c.id).collect();
        let likes: Vec<(ElementId, ElementId)> = donor_mirror
            .likes
            .iter()
            .filter(|&&(_, comment)| comment_ids.contains(&comment))
            .copied()
            .collect();
        let mut likers: Vec<ElementId> = Vec::new();
        let mut seen = HashSet::new();
        for &(user, _) in &likes {
            if seen.insert(user) {
                likers.push(user); // first-appearance order, as routing would see it
            }
        }

        // 2. re-own in the router; collect the recipient's friendship imports
        let comment_id_list: Vec<ElementId> = comments.iter().map(|c| c.id).collect();
        let imports = router.migrate_tree(root, post.author, &comment_id_list, &likers, to);

        // 3. the initial-load delta: imports first (friendships only need the
        //    replicated user registry), then the tree topology, then its likes
        let mut operations = imports;
        operations.push(ChangeOperation::AddPost { post: post.clone() });
        operations.extend(comments.iter().map(|comment| ChangeOperation::AddComment {
            comment: comment.clone(),
        }));
        operations.extend(
            likes
                .iter()
                .map(|&(user, comment)| ChangeOperation::AddLike { user, comment }),
        );
        let delta = ChangeSet { operations };

        // 4. the recipient lane applies the delta incrementally (evaluator
        //    and mirror together); the donor lane is rebuilt from its mirror
        //    minus the tree
        self.lanes[to].graft(&delta);
        let mut shrunk = self.lanes.remove(donor).into_checkpoint();
        shrunk.network.posts.retain(|p| p.id != root);
        shrunk.network.comments.retain(|c| c.root_post != root);
        shrunk
            .network
            .likes
            .retain(|(_, comment)| !comment_ids.contains(comment));
        let rebuilt = Lane::from_mirror(
            self.factory.as_ref(),
            shrunk.network,
            shrunk.applied_through,
        );
        self.lanes.insert(donor, rebuilt);

        self.rebalance_stats.migrations += 1;
        self.rebalance_stats.migrated_comments += comments.len() as u64;
        self.rebalance_stats.migrated_likes += likes.len() as u64;
        Ok(())
    }

    /// The skew monitor: every `check_every` batches, compare the per-shard
    /// loads (posts + comments, the `shard_sizes` signal) and migrate the
    /// largest donor trees that still fit the donor–recipient gap. A tree of
    /// load `s` only shrinks the gap when `s < gap` (the move transfers `s`
    /// from donor to recipient, changing the gap by `−2s`), so larger trees
    /// are skipped rather than ping-ponged.
    fn maybe_rebalance(&mut self) {
        let Some(config) = self.rebalance.clone() else {
            return;
        };
        if config.check_every == 0 {
            return;
        }
        self.batches_since_check += 1;
        if self.batches_since_check < config.check_every {
            return;
        }
        self.batches_since_check = 0;
        self.rebalance_stats.checks += 1;
        for _ in 0..config.max_migrations_per_check.max(1) {
            let loads: Vec<usize> = self
                .lanes
                .iter()
                .map(mirror_of)
                .map(|m| m.posts.len() + m.comments.len())
                .collect();
            let donor = (0..loads.len())
                .max_by_key(|&s| loads[s])
                .expect("at least one shard"); // lint: allow(panic) — rebalance configs are validated to at least one shard
            let recipient = (0..loads.len())
                .min_by_key(|&s| loads[s])
                .expect("at least one shard"); // lint: allow(panic) — rebalance configs are validated to at least one shard
            let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
            if donor == recipient || (loads[donor] as f64) <= config.skew_threshold * mean {
                break;
            }
            let gap = loads[donor] - loads[recipient];
            // largest donor tree with load < gap (ties resolve deterministically
            // to the last such post in mirror order)
            let mut comments_per_root: HashMap<ElementId, usize> = HashMap::new();
            let donor_mirror = mirror_of(&self.lanes[donor]);
            for comment in &donor_mirror.comments {
                *comments_per_root.entry(comment.root_post).or_insert(0) += 1;
            }
            let candidate = donor_mirror
                .posts
                .iter()
                .map(|p| (p.id, 1 + comments_per_root.get(&p.id).copied().unwrap_or(0)))
                .filter(|&(_, size)| size < gap)
                .max_by_key(|&(_, size)| size);
            let Some((root, _)) = candidate else {
                break; // every tree is at least as large as the gap: moving any would overshoot
            };
            self.migrate_tree(root, recipient)
                .expect("monitor-selected migration is always valid"); // lint: allow(panic) — the monitor only proposes migrations between live shards
        }
    }
}

impl Solution for ShardedSolution {
    fn name(&self) -> String {
        if self.partitioner.name() == "mod" {
            format!("{} ({} shards)", self.factory.name(), self.shard_count)
        } else {
            format!(
                "{} ({} shards, {})",
                self.factory.name(),
                self.shard_count,
                self.partitioner.name()
            )
        }
    }

    fn query(&self) -> Query {
        self.factory.query()
    }

    fn load_and_initial(&mut self, network: &SocialNetwork) -> String {
        let (router, lanes, merger, initial) = load_lanes(
            self.factory.as_ref(),
            network,
            self.partitioner.clone(),
            self.rebalance.is_some(),
        );
        self.router = Some(router);
        self.lanes = lanes;
        self.merger = merger;
        self.per_shard_latencies = vec![Vec::new(); self.shard_count];
        self.rebalance_stats = RebalanceStats::default();
        self.batches_since_check = 0;
        initial
    }

    fn update_and_reevaluate(&mut self, changeset: &ChangeSet) -> String {
        let router = self
            .router
            .as_mut()
            .expect("load_and_initial must run before updates"); // lint: allow(panic) — update_and_reevaluate follows load_and_initial per the Solution contract
        let routed = router.route(changeset);
        // each lane steps its slice (mirror upkeep included, when it keeps
        // one: imports and all, so a migration can extract any tree later)
        let tasks: Vec<(&mut Lane, ChangeSet)> = self.lanes.iter_mut().zip(routed).collect();
        let outcomes: Vec<ApplyOutcome> = tasks
            .into_par_iter()
            .map(|(lane, ops)| lane.step(lane.applied_through(), &ops))
            .collect();
        let mut any_removals = false;
        let mut union = Vec::new();
        for (shard, outcome) in outcomes.into_iter().enumerate() {
            any_removals |= outcome.had_removals;
            self.per_shard_latencies[shard].push(outcome.apply_secs);
            union.extend(outcome.candidates);
        }
        let result = self.merger.merge(union, any_removals);
        // rebalancing runs strictly between batches: the result above is already
        // merged, and the next batch sees the (possibly migrated) new ownership
        self.maybe_rebalance();
        result
    }

    fn candidate_snapshot(&self) -> Option<crate::serve::CandidateSnapshot> {
        Some(crate::serve::CandidateSnapshot {
            top: self.merger.current().to_vec(),
            candidates: candidate_union(&self.lanes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{GraphBlasBatch, GraphBlasIncremental, GraphBlasIncrementalCc};
    use datagen::stream::{shard_of_user, StreamConfig, UpdateStream};
    use datagen::{generate_workload, GeneratorConfig};

    fn network(seed: u64) -> SocialNetwork {
        generate_workload(&GeneratorConfig::tiny(seed)).initial
    }

    fn retraction_stream(network: &SocialNetwork, seed: u64, count: usize) -> Vec<ChangeSet> {
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

    #[test]
    fn router_partitions_whole_discussion_trees() {
        let network = network(11);
        let router = ShardRouter::new(&network, 4);
        for comment in &network.comments {
            let author = network
                .posts
                .iter()
                .find(|p| p.id == comment.root_post)
                .expect("root post exists")
                .author;
            assert_eq!(
                router.shard_of_comment(comment.id),
                Some(shard_of_user(author, 4)),
                "comment {} does not follow its root post",
                comment.id
            );
            assert_eq!(
                router.shard_of_comment(comment.id),
                router.shard_of_post(comment.root_post),
            );
        }
    }

    #[test]
    fn split_initial_partitions_the_edge_payload() {
        let network = network(13);
        let shards = 3;
        let router = ShardRouter::new(&network, shards);
        let parts = router.split_initial(&network);
        assert_eq!(parts.len(), shards);
        let posts: usize = parts.iter().map(|p| p.posts.len()).sum();
        let comments: usize = parts.iter().map(|p| p.comments.len()).sum();
        let likes: usize = parts.iter().map(|p| p.likes.len()).sum();
        assert_eq!(posts, network.posts.len());
        assert_eq!(comments, network.comments.len());
        assert_eq!(likes, network.likes.len());
        // friendship replicas may appear in several shards, but never more often
        // than once per shard
        for part in &parts {
            let mut seen = HashSet::new();
            for &(a, b) in &part.friendships {
                assert!(seen.insert((a.min(b), a.max(b))), "duplicate replica");
            }
            assert_eq!(part.users.len(), network.users.len(), "registry replicated");
        }
    }

    #[test]
    fn boundary_friendships_are_imported_on_first_presence() {
        use datagen::{Comment, Post, User};
        // users 1..=4; two-way partition puts odd users in shard 1
        let network = SocialNetwork {
            users: (1..=4)
                .map(|id| User {
                    id,
                    name: format!("u{id}"),
                })
                .collect(),
            posts: vec![Post {
                id: 10,
                timestamp: 1,
                author: 1, // shard 1 owns the whole tree
            }],
            comments: vec![Comment {
                id: 20,
                timestamp: 2,
                author: 2,
                parent: 10,
                root_post: 10,
            }],
            // u3 and u4 are friends from the start, but neither likes anything yet
            friendships: vec![(3, 4)],
            // u4 likes c20: present(shard 1) = {4}
            likes: vec![(4, 20)],
        };
        let mut router = ShardRouter::new(&network, 2);
        // u3 now likes c20 too: the router must import the live (3, 4) edge into
        // shard 1 ahead of the like, so the shard's CC sees one 2-user component
        let routed = router.route(&ChangeSet {
            operations: vec![ChangeOperation::AddLike {
                user: 3,
                comment: 20,
            }],
        });
        assert!(routed[0].operations.is_empty());
        assert_eq!(
            routed[1].operations,
            vec![
                ChangeOperation::AddFriendship { a: 3, b: 4 },
                ChangeOperation::AddLike {
                    user: 3,
                    comment: 20
                },
            ]
        );
        assert_eq!(router.stats().imported_boundary_edges, 1);
        assert_eq!(router.stats().routed_operations, 1);

        // and the full pipeline scores c20 as one component of two friends
        let mut sharded = ShardedSolution::new(Query::Q2, ShardBackend::IncrementalCc, 2);
        sharded.load_and_initial(&network);
        let result = sharded.update_and_reevaluate(&ChangeSet {
            operations: vec![ChangeOperation::AddLike {
                user: 3,
                comment: 20,
            }],
        });
        let mut reference = GraphBlasIncrementalCc::new();
        reference.load_and_initial(&network);
        let expected = reference.update_and_reevaluate(&ChangeSet {
            operations: vec![ChangeOperation::AddLike {
                user: 3,
                comment: 20,
            }],
        });
        assert_eq!(result, expected);
    }

    #[test]
    fn friendship_retractions_reach_every_replica() {
        let network = network(17);
        let mut router = ShardRouter::new(&network, 2);
        // find a friendship whose endpoints are present in at least one shard
        let (a, b) = network
            .friendships
            .iter()
            .copied()
            .find(|&(a, b)| {
                (0..2).any(|s| router.present[s].contains(&a) && router.present[s].contains(&b))
            })
            .expect("tiny network has a co-liking friendship");
        let expected_shards: Vec<usize> = (0..2)
            .filter(|&s| router.present[s].contains(&a) && router.present[s].contains(&b))
            .collect();
        let routed = router.route(&ChangeSet {
            operations: vec![ChangeOperation::RemoveFriendship { a, b }],
        });
        for (shard, delivered) in routed.iter().enumerate() {
            assert_eq!(
                !delivered.operations.is_empty(),
                expected_shards.contains(&shard),
                "replica delivery mismatch in shard {shard}"
            );
        }
    }

    #[test]
    fn sharded_variants_agree_with_unsharded_on_retraction_heavy_streams() {
        let network = network(29);
        let batches = retraction_stream(&network, 0xdead, 10);
        for query in [Query::Q1, Query::Q2] {
            let mut reference = GraphBlasIncremental::new(query, false);
            let mut reference_batch = GraphBlasBatch::new(query, false);
            let mut sharded: Vec<ShardedSolution> = [1usize, 2, 4]
                .iter()
                .map(|&n| ShardedSolution::new(query, ShardBackend::Incremental, n))
                .collect();
            let mut sharded_batch = ShardedSolution::new(query, ShardBackend::Batch, 3);

            let expected = reference.load_and_initial(&network);
            assert_eq!(reference_batch.load_and_initial(&network), expected);
            for s in &mut sharded {
                assert_eq!(s.load_and_initial(&network), expected, "{}", s.name());
            }
            assert_eq!(sharded_batch.load_and_initial(&network), expected);

            for (batch_no, batch) in batches.iter().enumerate() {
                let expected = reference.update_and_reevaluate(batch);
                assert_eq!(reference_batch.update_and_reevaluate(batch), expected);
                for s in &mut sharded {
                    assert_eq!(
                        s.update_and_reevaluate(batch),
                        expected,
                        "{} diverged at {query:?} batch {batch_no}",
                        s.name()
                    );
                }
                assert_eq!(
                    sharded_batch.update_and_reevaluate(batch),
                    expected,
                    "sharded batch backend diverged at {query:?} batch {batch_no}"
                );
            }
        }
    }

    #[test]
    fn sharded_incremental_cc_agrees_on_q2() {
        let network = network(31);
        let batches = retraction_stream(&network, 0xbeef, 8);
        let mut reference = GraphBlasIncrementalCc::new();
        let mut sharded = ShardedSolution::new(Query::Q2, ShardBackend::IncrementalCc, 4);
        assert_eq!(
            sharded.load_and_initial(&network),
            reference.load_and_initial(&network)
        );
        for batch in &batches {
            assert_eq!(
                sharded.update_and_reevaluate(batch),
                reference.update_and_reevaluate(batch)
            );
        }
    }

    #[test]
    fn latencies_and_stats_are_recorded_per_shard() {
        let network = network(37);
        let batches = retraction_stream(&network, 0xaaaa, 5);
        let mut sharded = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 3);
        sharded.load_and_initial(&network);
        for batch in &batches {
            sharded.update_and_reevaluate(batch);
        }
        assert_eq!(sharded.shard_count(), 3);
        assert_eq!(sharded.per_shard_latencies().len(), 3);
        for lane in sharded.per_shard_latencies() {
            assert_eq!(lane.len(), batches.len());
        }
        let stats = sharded.router_stats();
        assert!(stats.routed_operations > 0);
        let sizes = sharded.shard_sizes();
        assert_eq!(sizes.len(), 3);
        assert!(sizes.iter().map(|&(p, _)| p).sum::<usize>() >= network.posts.len());
    }

    #[test]
    fn ring_partitioned_sharding_agrees_with_unsharded() {
        use datagen::partition::RingPartitioner;
        let network = network(41);
        let batches = retraction_stream(&network, 0x4149, 8);
        for query in [Query::Q1, Query::Q2] {
            let mut reference = GraphBlasIncremental::new(query, false);
            let mut ring = ShardedSolution::with_factory_and_partitioner(
                Box::new(GraphBlasShardFactory::new(query, ShardBackend::Incremental)),
                Box::new(RingPartitioner::new(3, 7)),
            );
            assert_eq!(ring.shard_count(), 3);
            assert_eq!(ring.partitioner_name(), "ring");
            assert_eq!(
                ring.load_and_initial(&network),
                reference.load_and_initial(&network)
            );
            for batch in &batches {
                assert_eq!(
                    ring.update_and_reevaluate(batch),
                    reference.update_and_reevaluate(batch),
                    "{query:?} diverged under the ring partitioner"
                );
            }
        }
    }

    #[test]
    fn migration_moves_a_tree_and_preserves_output() {
        use datagen::partition::{AssignmentTable, ModuloPartitioner};
        let network = network(43);
        let batches = retraction_stream(&network, 0x713e, 6);
        let mut reference = GraphBlasIncremental::new(Query::Q2, false);
        let mut sharded = ShardedSolution::with_factory_and_partitioner(
            Box::new(GraphBlasShardFactory::new(
                Query::Q2,
                ShardBackend::Incremental,
            )),
            Box::new(AssignmentTable::new(Box::new(ModuloPartitioner::new(2)))),
        )
        .with_rebalancing(RebalanceConfig {
            check_every: 0, // manual migrations only
            ..RebalanceConfig::default()
        });
        assert_eq!(
            sharded.load_and_initial(&network),
            reference.load_and_initial(&network)
        );
        // drive a couple of batches, then forcibly migrate every shard-0 tree
        // to shard 1 and keep streaming: outputs must never diverge
        for (batch_no, batch) in batches.iter().enumerate() {
            assert_eq!(
                sharded.update_and_reevaluate(batch),
                reference.update_and_reevaluate(batch),
                "diverged at batch {batch_no}"
            );
            if batch_no == 2 {
                let roots: Vec<ElementId> = network
                    .posts
                    .iter()
                    .filter(|p| p.author % 2 == 0)
                    .map(|p| p.id)
                    .collect();
                assert!(!roots.is_empty(), "shard 0 owns at least one tree");
                for root in roots {
                    sharded.migrate_tree(root, 1).expect("migration succeeds");
                }
                let stats = sharded.rebalance_stats();
                assert!(stats.migrations > 0);
                // shard 0 is now empty of posts; shard 1 owns everything
                let sizes = sharded.shard_sizes();
                assert_eq!(sizes[0].0, 0, "shard 0 still owns posts: {sizes:?}");
                assert_eq!(
                    sizes[1].0,
                    network.posts.len(),
                    "shard 1 must own every post"
                );
            }
        }
    }

    #[test]
    fn migration_errors_are_reported() {
        let network = network(47);
        let mut plain = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 2);
        plain.load_and_initial(&network);
        assert_eq!(
            plain.migrate_tree(network.posts[0].id, 1),
            Err(MigrateError::RebalancingDisabled)
        );

        let mut sharded = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 2)
            .with_rebalancing(RebalanceConfig::default());
        sharded.load_and_initial(&network);
        assert_eq!(
            sharded.migrate_tree(0xdead_beef, 1),
            Err(MigrateError::UnknownRoot(0xdead_beef))
        );
        let root = network.posts[0].id;
        assert_eq!(
            sharded.migrate_tree(root, 9),
            Err(MigrateError::ShardOutOfRange(9))
        );
        let owner = shard_of_user(network.posts[0].author, 2);
        assert_eq!(
            sharded.migrate_tree(root, owner),
            Err(MigrateError::AlreadyOwned(owner))
        );
        assert!(MigrateError::RebalancingDisabled
            .to_string()
            .contains("not enabled"));
    }

    #[test]
    fn skew_monitor_migrates_hot_trees_automatically() {
        let network = network(53);
        // a hot-tree stream: most new comments/likes pile onto one tree
        let batches: Vec<ChangeSet> = UpdateStream::new(
            &network,
            StreamConfig {
                seed: 0x807,
                batch_size: 24,
                deletion_weight: 0.05,
                hot_tree_bias: 0.85,
                ..StreamConfig::default()
            },
        )
        .take(24)
        .collect();
        let mut reference = GraphBlasIncremental::new(Query::Q1, false);
        let mut balanced = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 2)
            .with_rebalancing(RebalanceConfig {
                check_every: 4,
                skew_threshold: 1.2,
                max_migrations_per_check: 2,
            });
        let mut skewed = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 2);
        assert_eq!(
            balanced.load_and_initial(&network),
            reference.load_and_initial(&network)
        );
        skewed.load_and_initial(&network);
        for (batch_no, batch) in batches.iter().enumerate() {
            let expected = reference.update_and_reevaluate(batch);
            assert_eq!(
                balanced.update_and_reevaluate(batch),
                expected,
                "rebalanced run diverged at batch {batch_no}"
            );
            skewed.update_and_reevaluate(batch);
        }
        let stats = balanced.rebalance_stats();
        assert!(stats.checks > 0, "monitor never checked");
        assert!(
            stats.migrations > 0,
            "hot-tree stream must trigger migration"
        );
        // the monitor must leave the shards measurably less skewed than the
        // static partition: compare max/mean of posts + comments
        let skew_of = |sizes: &[(usize, usize)]| {
            let loads: Vec<usize> = sizes.iter().map(|&(p, c)| p + c).collect();
            let max = *loads.iter().max().expect("non-empty") as f64;
            let mean = loads.iter().sum::<usize>() as f64 / loads.len() as f64;
            max / mean
        };
        let balanced_skew = skew_of(&balanced.shard_sizes());
        let skewed_skew = skew_of(&skewed.shard_sizes());
        assert!(
            balanced_skew < skewed_skew,
            "rebalancing must reduce skew: {balanced_skew:.3} vs static {skewed_skew:.3}"
        );
    }

    #[test]
    fn names_identify_backend_and_shard_count() {
        let s = ShardedSolution::new(Query::Q1, ShardBackend::Incremental, 4);
        assert_eq!(s.name(), "GraphBLAS Sharded Incremental (4 shards)");
        assert_eq!(s.query(), Query::Q1);
        assert_eq!(
            ShardedSolution::new(Query::Q2, ShardBackend::IncrementalCc, 2).name(),
            "GraphBLAS Sharded Incremental CC (2 shards)"
        );
        // zero shards degrades to one instead of panicking
        assert_eq!(
            ShardedSolution::new(Query::Q1, ShardBackend::Batch, 0).shard_count(),
            1
        );
    }
}
