//! Set-up: generate the network and materialise every micro-batch before any
//! timed window. The network is the spec's dataset (one fixed graph per scale
//! factor, like the paper's); the run's `--seed` draws the update traffic
//! over it. The system under test receives only these inputs.
//!
//! Reseeding the network as well was measured and rejected: at two shards the
//! slower shard sets batch time, and which shard the few heaviest discussion
//! trees hash to moved `q2_sharded` by 14% between seeds while runs of one
//! seed agreed within 0.5% — the benchmark would have measured the draw.

use std::time::Instant;

use datagen::stream::{StreamConfig, UpdateStream};
use datagen::{generate_workload, ChangeOperation, ChangeSet, GeneratorConfig, SocialNetwork};

use crate::spec::{Spec, NETWORK_SEED};

/// The materialised input of one workload and what building it cost.
pub struct Input {
    pub network: SocialNetwork,
    /// Warm-up batches first, then the measured ones.
    pub batches: Vec<ChangeSet>,
    /// FNV-1a over the network and every batch: two runs that print the same
    /// digest timed the same artifact.
    pub digest: u64,
    pub generate_s: f64,
    pub stream_s: f64,
}

impl Input {
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.stream_s
    }

    /// Operations emitted across all materialised batches.
    pub fn ops(&self) -> usize {
        self.batches.iter().map(|b| b.operations.len()).sum()
    }
}

/// SplitMix64 finaliser: decorrelates the seeds derived from one `--seed`.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

pub fn build(spec: &Spec, seed: u64) -> Input {
    let started = Instant::now();
    let mut config = GeneratorConfig::for_scale_factor(spec.sf);
    config.seed = mix64(NETWORK_SEED ^ spec.sf);
    // only the initial network is used; its bulk changesets are not seeded
    // by the run and are skipped
    config.changesets = 0;
    config.total_inserts = 0;
    let network = generate_workload(&config).initial;
    let generate_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let batches: Vec<ChangeSet> = UpdateStream::new(
        &network,
        StreamConfig {
            seed: mix64(seed),
            batch_size: spec.batch_size,
            comment_weight: spec.mix.comment,
            like_weight: spec.mix.like,
            friendship_weight: spec.mix.friendship,
            deletion_weight: spec.mix.retraction,
            ..StreamConfig::default()
        },
    )
    .take(spec.total_batches())
    .collect();
    let stream_s = started.elapsed().as_secs_f64();

    let digest = digest(&network, &batches);
    Input {
        network,
        batches,
        digest,
        generate_s,
        stream_s,
    }
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(network: &SocialNetwork, batches: &[ChangeSet]) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for user in &network.users {
        h.word(user.id);
    }
    for post in &network.posts {
        for word in [post.id, post.timestamp, post.author] {
            h.word(word);
        }
    }
    for c in &network.comments {
        for word in [c.id, c.timestamp, c.author, c.parent, c.root_post] {
            h.word(word);
        }
    }
    for &(a, b) in network.friendships.iter().chain(&network.likes) {
        h.word(a);
        h.word(b);
    }
    for batch in batches {
        h.word(batch.operations.len() as u64);
        for op in &batch.operations {
            let words = match op {
                ChangeOperation::AddUser { user } => [1, user.id, 0, 0],
                ChangeOperation::AddPost { post } => [2, post.id, post.timestamp, post.author],
                ChangeOperation::AddComment { comment } => {
                    h.word(comment.author);
                    h.word(comment.timestamp);
                    [3, comment.id, comment.parent, comment.root_post]
                }
                ChangeOperation::AddFriendship { a, b } => [4, *a, *b, 0],
                ChangeOperation::AddLike { user, comment } => [5, *user, *comment, 0],
                ChangeOperation::RemoveLike { user, comment } => [6, *user, *comment, 0],
                ChangeOperation::RemoveFriendship { a, b } => [7, *a, *b, 0],
            };
            for word in words {
                h.word(word);
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Engine;
    use ttc_social_media::model::Query;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        let spec = Spec::new("t", Engine::Unsharded, Query::Q1, 1, 20).smoke();
        let a = build(&spec, 7);
        let b = build(&spec, 7);
        let c = build(&spec, 8);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.batches.len(), spec.total_batches());
    }

    #[test]
    fn the_network_is_the_specs_dataset_and_the_seed_draws_the_traffic() {
        let spec = Spec::new("t", Engine::Unsharded, Query::Q1, 1, 20).smoke();
        let (a, b) = (build(&spec, 7), build(&spec, 8));
        assert_eq!(a.network, b.network);
        assert_ne!(a.batches, b.batches);
        let other_dataset = Spec { sf: 2, ..spec };
        assert_ne!(build(&other_dataset, 7).network, a.network);
    }

    #[test]
    fn paper_changesets_are_small_and_insert_only() {
        let spec = Spec::load(&crate::spec::workloads_dir(), "paper_q2")
            .expect("spec")
            .smoke();
        let input = build(&spec, 42);
        assert_eq!(input.batches.len(), spec.batches);
        assert!(input.batches.iter().all(|b| !b.has_removals()));
        assert!(input
            .batches
            .iter()
            .all(|b| b.operations.len() <= 2 * spec.batch_size));
    }
}
