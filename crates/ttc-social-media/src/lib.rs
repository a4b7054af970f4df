//! # ttc-social-media — incremental GraphBLAS solution for the TTC 2018 Social Media case study
//!
//! This crate is the Rust reproduction of the paper's primary contribution: batch and
//! incremental, serial and parallel GraphBLAS solutions for the two queries of the
//! TTC 2018 "Social Media" case study.
//!
//! * **Q1 — influential posts** ([`q1`]): `10 ×` the number of (direct or indirect)
//!   comments of a post plus the number of likes those comments received; top 3 posts.
//!   Batch evaluation follows Alg. 1 of the paper; incremental maintenance follows
//!   Alg. 2.
//! * **Q2 — influential comments** ([`q2`]): the sum of squared connected-component
//!   sizes of the friendship subgraph induced by the users liking a comment; top 3
//!   comments. Batch evaluation extracts the induced subgraph per comment and runs
//!   FastSV; incremental maintenance re-scores only the comments affected by the
//!   changeset (detected with the `NewFriends` incidence-matrix trick of Fig. 4b), and
//!   an additional variant implements the paper's future-work item of a fully
//!   incremental connected-components backend.
//!
//! The [`solution`] module packages these algorithms behind the [`solution::Solution`]
//! trait used by the benchmark harness, matching the tool variants of the paper's
//! Fig. 5. Beyond the paper, the [`stream`] module drives *unbounded* micro-batch
//! update streams (including like/friendship retractions) through any solution and
//! reports sustained throughput with latency percentiles.
//!
//! ## Quickstart
//!
//! ```
//! use ttc_social_media::graph::{paper_example_network, paper_example_changeset};
//! use ttc_social_media::model::Query;
//! use ttc_social_media::solution::{GraphBlasIncremental, Solution};
//!
//! let mut q2 = GraphBlasIncremental::new(Query::Q2, false);
//! let initial = q2.load_and_initial(&paper_example_network());
//! assert_eq!(initial, "12|11|13");
//! let updated = q2.update_and_reevaluate(&paper_example_changeset());
//! assert_eq!(updated, "12|11|14");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod graph;
pub mod lane;
pub mod loader;
pub mod model;
pub mod pipeline;
pub mod q1;
pub mod q2;
pub mod recovery;
pub mod serve;
pub mod shard;
pub mod solution;
pub mod stream;
pub mod sync;
pub mod top_k;
pub mod update;

pub use graph::SocialGraph;
pub use lane::{ApplyOutcome, Lane};
pub use model::{IdMap, Query};
pub use pipeline::{
    DelayInjection, EngineError, EngineReport, IngestEngine, PipelineConfig, PipelineStats,
    PipelinedEngine, SyncEngine,
};
pub use recovery::{
    ChangesetLog, CheckpointError, CheckpointStore, LogEntry, RecoveryConfig, RecoveryStats,
    ShardCheckpoint,
};
pub use serve::{
    view_channel, CandidateSnapshot, QueryView, Standing, UserComponents, ViewBuilder,
    ViewPublisher, ViewReader,
};
pub use shard::{
    GraphBlasShardFactory, MigrateError, RebalanceConfig, RebalanceStats, ShardBackend,
    ShardEvaluator, ShardFactory, ShardMerger, ShardRouter, ShardRouterStats, ShardedSolution,
};
pub use solution::{GraphBlasBatch, GraphBlasIncremental, GraphBlasIncrementalCc, Solution, TOP_K};
pub use stream::{RunObserver, StreamDriver, StreamDriverConfig, StreamReport};
pub use top_k::{format_result, RankedEntry, TopKTracker};
pub use update::{apply_changeset, GraphDelta};
