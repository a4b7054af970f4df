//! VERIFY: every per-batch result is compared with an independent reference,
//! outside every timed window, so a performance run doubles as a correctness
//! run.
//!
//! * Q1 results come from `nmf_baseline::NmfIncremental` (object-graph
//!   pointer chasing, no linear algebra);
//! * Q2 results come from `GraphBlasIncrementalCc` (union-find components
//!   instead of FastSV re-scoring; NMF's Q2 costs ~45 ms per batch at sf64);
//! * both references are unsharded and receive the *uncoalesced* batches, so
//!   sharding, pipelining, serving and coalescing are all checked against
//!   the system's defining invariant: per-batch output identical to an
//!   unsharded sequential evaluation;
//! * the final state is checked against one `GraphBlasBatch` full
//!   recomputation over the final network.

use std::time::Instant;

use datagen::{ChangeSet, SocialNetwork};
use nmf_baseline::NmfIncremental;
use ttc_social_media::model::Query;
use ttc_social_media::solution::{GraphBlasBatch, GraphBlasIncrementalCc, Solution};

use crate::spec::Spec;
use crate::stats;

/// The expected result after the load and after every batch.
pub struct Reference {
    pub initial: String,
    /// One per materialised batch, warm-up included.
    pub results: Vec<String>,
    /// Full recomputation over the final network.
    pub recomputed_final: String,
    /// Time spent computing all of the above.
    pub seconds: f64,
    /// Emitted ops per second of the NMF baseline over the measured window
    /// (Q1 references only; 0 otherwise).
    pub nmf_updates_per_s: f64,
}

pub fn reference(spec: &Spec, network: &SocialNetwork, batches: &[ChangeSet]) -> Reference {
    let started = Instant::now();
    let mut solution: Box<dyn Solution> = match spec.query {
        Query::Q1 => Box::new(NmfIncremental::new(Query::Q1)),
        Query::Q2 => Box::new(GraphBlasIncrementalCc::new()),
    };
    let initial = solution.load_and_initial(network);
    let mut results = Vec::with_capacity(batches.len());
    let mut measured_s = 0.0;
    let mut measured_ops = 0;
    for (seq, batch) in batches.iter().enumerate() {
        let batch_started = Instant::now();
        results.push(solution.update_and_reevaluate(batch));
        if seq >= spec.warmup {
            measured_s += batch_started.elapsed().as_secs_f64();
            measured_ops += batch.operations.len();
        }
    }
    drop(solution);

    let mut final_network = network.clone();
    for batch in batches {
        datagen::apply_changeset(&mut final_network, batch);
    }
    let recomputed_final = GraphBlasBatch::new(spec.query, false).load_and_initial(&final_network);

    Reference {
        initial,
        results,
        recomputed_final,
        seconds: started.elapsed().as_secs_f64(),
        nmf_updates_per_s: match spec.query {
            Query::Q1 => stats::ratio(measured_ops as f64, measured_s),
            Query::Q2 => 0.0,
        },
    }
}

/// Count of results checked and of those that were wrong or never delivered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 5 {
            self.notes.push(note);
        }
    }

    /// Compare `got` with `expected` position by position. A result that was
    /// never delivered fails like a wrong one; an unexpected extra fails too.
    pub fn check_all(&mut self, what: &str, got: &[String], expected: &[String]) {
        self.attempted += expected.len();
        for (seq, want) in expected.iter().enumerate() {
            match got.get(seq) {
                Some(have) if have == want => {}
                Some(have) => self.fail(format!("{what}[{seq}]: got {have}, reference {want}")),
                None => self.fail(format!("{what}[{seq}]: never delivered")),
            }
        }
        if got.len() > expected.len() {
            self.fail(format!(
                "{what}: {} results for {} batches",
                got.len(),
                expected.len()
            ));
        }
    }

    pub fn check_one(&mut self, what: &str, got: &str, expected: &str) {
        self.attempted += 1;
        if got != expected {
            self.fail(format!("{what}: got {got}, reference {expected}"));
        }
    }

    /// Record `count` failures found elsewhere (invalid view seals).
    pub fn fail_many(&mut self, what: &str, count: usize) {
        if count > 0 {
            self.failed += count;
            self.notes.push(format!("{what}: {count}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

impl Reference {
    /// The reference for the measured window only.
    pub fn measured(&self, spec: &Spec) -> &[String] {
        &self.results[spec.warmup.min(self.results.len())..]
    }

    /// Check the reference against itself: the incremental reference's last
    /// result must equal the full recomputation of the final state.
    pub fn check_final_state(&self, tally: &mut Tally) {
        let last = self.results.last().unwrap_or(&self.initial);
        tally.check_one(
            "final state vs full recomputation",
            last,
            &self.recomputed_final,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_corrupted_reference_is_counted_not_ignored() {
        let got = strings(&["1|2|3", "1|2|4", "1|5|4"]);
        let mut tally = Tally::default();
        tally.check_all("batch", &got, &got);
        assert_eq!((tally.attempted, tally.failed), (3, 0));
        assert!(tally.correct());

        let mut corrupted = got.clone();
        corrupted[1] = "9|9|9".to_string();
        let mut tally = Tally::default();
        tally.check_all("batch", &got, &corrupted);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(!tally.correct());
        assert!(tally.notes[0].contains("batch[1]"), "{:?}", tally.notes);
    }

    #[test]
    fn missing_and_extra_results_fail() {
        let expected = strings(&["a", "b", "c"]);
        let mut tally = Tally::default();
        tally.check_all("batch", &expected[..2], &expected);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(tally.notes[0].contains("never delivered"));

        let mut tally = Tally::default();
        tally.check_all("batch", &expected, &expected[..2]);
        assert_eq!((tally.attempted, tally.failed), (2, 1));

        let mut tally = Tally::default();
        tally.fail_many("invalid view seals", 2);
        tally.check_one("final", "x", "y");
        assert_eq!((tally.attempted, tally.failed), (1, 3));
    }
}
