//! Q2 affected-set SpGEMM replay: the workload behind the `ablation_spgemm` bench.
//!
//! Replays a generated scale factor through the incremental engine and records, for
//! every changeset that contains new friendships, the operands of the paper's Fig. 4b
//! Steps 1–4 product `AC = Likes′ ⊕.⊗ NewFriendsIncidence` plus the mask of consumed
//! (`AC = 2`) cells. Recording lives in the bench *library*, criterion-free.

use datagen::generate_scale_factor;
use graphblas::ops::{mxm, select_matrix};
use graphblas::ops_traits::ValueEq;
use graphblas::semiring::stock as semirings;
use graphblas::Matrix;
use ttc_social_media::{apply_changeset, SocialGraph};

/// One replayed detection step: the graph's `Likes` matrix and the friendship
/// incidence matrix of the changeset, plus the mask of consumed (`AC = 2`) cells.
pub struct SpgemmStep {
    /// The `Likes` matrix as of this changeset (learned row index frozen).
    pub likes: Matrix<u64>,
    /// The `NewFriendsIncidence` matrix of the changeset.
    pub incidence: Matrix<u64>,
    /// The `AC = 2` cells the detection consumes, used as a structural mask.
    pub consumed: Matrix<u64>,
}

/// Record the SpGEMM steps of one scale factor's changeset replay.
///
/// Each recorded `likes` snapshot gets its learned row index frozen, mirroring the
/// state the serving path sees after a load or compaction.
pub fn record_spgemm_steps(sf: u64) -> Vec<SpgemmStep> {
    let workload = generate_scale_factor(sf);
    let mut graph = SocialGraph::from_network(&workload.initial);
    let mut steps = Vec::new();
    for changeset in &workload.changesets {
        let delta = apply_changeset(&mut graph, changeset);
        if delta.new_friendships.is_empty() {
            continue;
        }
        let incidence = delta.new_friends_incidence(&graph);
        let ac = mxm(&graph.likes, &incidence, semirings::plus_times::<u64>())
            .expect("likes columns equal incidence rows"); // lint: allow(panic) — dimensions match by construction of the incidence matrix
        let consumed = select_matrix(&ac, ValueEq::new(2u64));
        let mut likes = graph.likes.clone();
        likes.freeze_index();
        steps.push(SpgemmStep {
            likes,
            incidence,
            consumed,
        });
    }
    steps
}
