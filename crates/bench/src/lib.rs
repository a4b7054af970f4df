//! Benchmark harness utilities: the tool-variant registry of the paper's Figure 5, the
//! two benchmark phases, timing with geometric means, and thread-pool control for the
//! "8 threads" series.
//!
//! The original evaluation uses the TTC 2018 benchmark framework: for each tool and
//! scale factor it measures (a) the *load and initial evaluation* phase and (b) the
//! *update and reevaluation* phase (applying every changeset and re-running the
//! query), repeats each run 5 times and reports the geometric mean. This crate
//! re-implements that protocol.

#![forbid(unsafe_code)]

pub mod args;
pub mod harness;
pub mod registry;
pub mod report;
pub mod spgemm_steps;
pub mod workload;

pub use harness::{geometric_mean, measure_workload, PhaseTimings};
pub use registry::{build_solution, run_in_pool, ToolVariant, ALL_VARIANTS, FIGURE5_VARIANTS};
pub use spgemm_steps::{record_spgemm_steps, SpgemmStep};
pub use workload::{ArrivalPattern, ReadMix, ReadOp, ServeWorkload};
