//! Open-loop load generation: batches leave on a schedule that does not slow
//! when the system slows, and every batch is stamped with the time it was
//! *due*, so a stall is charged to every batch it delays.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::stats;

/// A fixed-rate schedule: item `i` is due `i` intervals after the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    interval_ns: u64,
}

impl Schedule {
    /// `rate` items per second.
    pub fn new(rate: f64) -> Self {
        Schedule {
            interval_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    pub fn due_ns(&self, index: u64) -> u64 {
        index * self.interval_ns
    }

    /// A yield counts as late once the generator is a whole item behind
    /// schedule; anything less is wake-up jitter, which the lag still pays.
    pub fn late_threshold_ns(&self) -> u64 {
        self.interval_ns
    }
}

/// Time a FIFO server was busy with a run of items, from when each was due
/// and when it was done (both in ns since the start, the latter ascending):
/// an item starts when it is due or when its predecessor is done, whichever
/// is later. Under a saturating source (all due at 0) this is the wall-clock
/// of the run; under a paced one it leaves out the idle gaps between items.
/// `before` is when the item ahead of the first was done.
pub fn busy_ns(before: u64, due_and_done: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut previous = before;
    let mut busy = 0;
    for (due, done) in due_and_done {
        busy += done.saturating_sub(due.max(previous));
        previous = done;
    }
    busy
}

/// How late the generator handed over each item, in ns since the start.
#[derive(Clone, Debug, Default)]
pub struct Lateness {
    late_ns: Vec<u64>,
}

impl Lateness {
    /// Item `index` was yielded at `yielded_ns`; early yields count as on time.
    pub fn record(&mut self, schedule: &Schedule, index: u64, yielded_ns: u64) {
        self.late_ns
            .push(yielded_ns.saturating_sub(schedule.due_ns(index)));
    }

    pub fn late_p99_ms(&self) -> f64 {
        let ms: Vec<f64> = self.late_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        stats::percentile(&ms, 99.0)
    }

    /// Share of items yielded later than the schedule's threshold.
    pub fn late_ratio(&self, schedule: &Schedule) -> f64 {
        let late = self
            .late_ns
            .iter()
            .filter(|&&ns| ns > schedule.late_threshold_ns())
            .count();
        stats::ratio(late as f64, self.late_ns.len() as f64)
    }
}

/// Iterator adapter releasing the inner items on a [`Schedule`]. The clock
/// starts at the first pull (the engine pulls only after its load phase) and
/// is published through `start` for whoever computes lag from due times.
pub struct Paced<I> {
    inner: I,
    schedule: Schedule,
    start: Arc<OnceLock<Instant>>,
    index: u64,
    pub lateness: Lateness,
}

impl<I> Paced<I> {
    pub fn new(inner: I, schedule: Schedule, start: Arc<OnceLock<Instant>>) -> Self {
        Paced {
            inner,
            schedule,
            start,
            index: 0,
            lateness: Lateness::default(),
        }
    }
}

impl<I: Iterator> Iterator for Paced<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next()?;
        let start = *self.start.get_or_init(Instant::now);
        let due = start + Duration::from_nanos(self.schedule.due_ns(self.index));
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        self.lateness.record(
            &self.schedule,
            self.index,
            start.elapsed().as_nanos() as u64,
        );
        self.index += 1;
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lateness_is_counted_from_due_time_and_early_is_on_time() {
        let schedule = Schedule::new(100.0); // 10 ms apart, late beyond 10 ms
        assert_eq!(schedule.due_ns(3), 30_000_000);
        let mut log = Lateness::default();
        log.record(&schedule, 0, 0); // on time
        log.record(&schedule, 1, 9_000_000); // early: not negative lateness
        log.record(&schedule, 2, 20_500_000); // 0.5 ms late: jitter, under threshold
        log.record(&schedule, 3, 45_000_000); // stalled: 15 ms late
        assert_eq!(log.late_ns, vec![0, 0, 500_000, 15_000_000]);
        assert_eq!(log.late_ratio(&schedule), 0.25);
        assert_eq!(log.late_p99_ms(), 15.0);
    }

    #[test]
    fn busy_time_leaves_out_idle_gaps_and_charges_queueing_once() {
        // due every 10, served in 4: idle gaps of 6 are not busy time
        assert_eq!(busy_ns(0, [(0, 4), (10, 14), (20, 24)]), 12);
        // the second item waits for the first (done 16 > due 10): its own
        // service is 18 - 16, not 18 - 10
        assert_eq!(busy_ns(0, [(0, 16), (10, 18), (20, 23)]), 16 + 2 + 3);
        // saturating source: busy time is the wall-clock since `before`
        assert_eq!(busy_ns(5, [(0, 9), (0, 12), (0, 20)]), 15);
        assert_eq!(busy_ns(0, []), 0);
    }

    #[test]
    fn paced_iterator_releases_on_schedule() {
        let start = Arc::new(OnceLock::new());
        let mut paced = Paced::new(0..5, Schedule::new(1000.0), Arc::clone(&start));
        let items: Vec<i32> = paced.by_ref().collect();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
        // the fifth item is due 4 ms after the first pull
        let began = start.get().expect("clock started at the first pull");
        assert!(began.elapsed() >= Duration::from_millis(4));
        assert_eq!(paced.lateness.late_ns.len(), 5);
    }
}
