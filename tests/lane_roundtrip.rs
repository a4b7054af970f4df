//! The `Lane` seam (ISSUE 12): for every shard backend — GraphBLAS
//! incremental (Q1 and Q2), GraphBLAS incremental-CC, and the NMF
//! dependency-record baseline — a lane restored from its own checkpoint and
//! stepped over a retraction-bearing suffix yields the same outcomes, and
//! re-encodes to the same bytes, as the lane that was never interrupted. This
//! is the property crash recovery, resharding and rebalancing all lean on,
//! checked at the one place they now share. (Repo-level because the NMF
//! factory lives in a crate that depends on `ttc-social-media`.)

use ttc2018_graphblas::datagen::stream::{StreamConfig, UpdateStream};
use ttc2018_graphblas::datagen::{generate_workload, ChangeSet, GeneratorConfig};
use ttc2018_graphblas::nmf_baseline::NmfShardFactory;
use ttc2018_graphblas::ttc_social_media::lane::{ApplyOutcome, Lane};
use ttc2018_graphblas::ttc_social_media::model::Query;
use ttc2018_graphblas::ttc_social_media::shard::{
    GraphBlasShardFactory, ShardBackend, ShardFactory, ShardRouter,
};
use ttc2018_graphblas::ttc_social_media::RankedEntry;

fn backends() -> Vec<(&'static str, Box<dyn ShardFactory>)> {
    let graphblas = |query, backend| -> Box<dyn ShardFactory> {
        Box::new(GraphBlasShardFactory::new(query, backend))
    };
    vec![
        (
            "graphblas-incremental-q1",
            graphblas(Query::Q1, ShardBackend::Incremental),
        ),
        (
            "graphblas-incremental-q2",
            graphblas(Query::Q2, ShardBackend::Incremental),
        ),
        (
            "graphblas-incremental-cc",
            graphblas(Query::Q2, ShardBackend::IncrementalCc),
        ),
        ("nmf-q1", Box::new(NmfShardFactory::new(Query::Q1))),
    ]
}

/// What a merge sees of an outcome (`apply_secs` is wall-clock, not state).
fn observable(outcome: &ApplyOutcome) -> (u64, bool, &[RankedEntry]) {
    (outcome.seq, outcome.had_removals, &outcome.candidates)
}

#[test]
fn a_restored_lane_is_indistinguishable_from_the_uninterrupted_one() {
    for (name, factory) in backends() {
        let factory = factory.as_ref();
        let network = generate_workload(&GeneratorConfig::tiny(0x1a9e)).initial;
        let mut router = ShardRouter::new(&network, 2);
        let mut mirrors = router.split_initial(&network);
        let stream = UpdateStream::new(
            &network,
            StreamConfig {
                seed: 0x5eed,
                batch_size: 16,
                deletion_weight: 0.4,
                ..StreamConfig::default()
            },
        );
        // the busier shard's slice of ten batches: a prefix before the
        // checkpoint, a suffix after it
        let routed: Vec<Vec<ChangeSet>> = stream.take(10).map(|b| router.route(&b)).collect();
        let load =
            |shard: usize| -> usize { routed.iter().map(|r| r[shard].operations.len()).sum() };
        let shard = if load(0) >= load(1) { 0 } else { 1 };
        let routed: Vec<ChangeSet> = routed
            .into_iter()
            .map(|mut r| r.swap_remove(shard))
            .collect();
        let (prefix, suffix) = routed.split_at(4);
        assert!(
            suffix.iter().any(ChangeSet::has_removals),
            "{name}: the suffix must carry retractions"
        );

        let mirror = mirrors.swap_remove(shard);
        let mut uninterrupted = Lane::from_mirror(factory, mirror, 0);
        for (seq, ops) in prefix.iter().enumerate() {
            uninterrupted.step(seq as u64, ops);
        }
        let snapshot = uninterrupted.checkpoint();
        let mut restored = Lane::restore(factory, &snapshot).expect("own snapshots decode");
        assert_eq!(restored.applied_through(), prefix.len() as u64, "{name}");
        assert_eq!(restored.candidates(), uninterrupted.candidates(), "{name}");
        assert_eq!(
            restored.checkpoint(),
            snapshot,
            "{name}: restore lost state"
        );

        for (offset, ops) in suffix.iter().enumerate() {
            let seq = (prefix.len() + offset) as u64;
            let expected = uninterrupted.step(seq, ops);
            let got = restored.step(seq, ops);
            assert_eq!(observable(&got), observable(&expected), "{name} at {seq}");
        }
        assert_eq!(
            restored.checkpoint(),
            uninterrupted.checkpoint(),
            "{name}: the two lanes diverged over the suffix"
        );
        assert_eq!(
            restored.owned_sizes(),
            uninterrupted.owned_sizes(),
            "{name}"
        );
    }
}

#[test]
fn a_corrupted_snapshot_is_a_named_error_not_a_panic() {
    let (_, factory) = backends().swap_remove(0);
    let network = generate_workload(&GeneratorConfig::tiny(7)).initial;
    let mut snapshot = Lane::from_mirror(factory.as_ref(), network, 3).checkpoint();
    let middle = snapshot.len() / 2;
    snapshot[middle] ^= 0xff;
    assert!(Lane::restore(factory.as_ref(), &snapshot).is_err());
    assert!(Lane::restore(factory.as_ref(), &snapshot[..middle]).is_err());
}
