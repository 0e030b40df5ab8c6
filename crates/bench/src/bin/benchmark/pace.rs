//! Open-loop pacing: operation `i` is due at `start + i × period` whatever
//! the system did with operation `i − 1`, its latency is measured from that
//! due time (so a stall charges every request it delayed), and how late the
//! generator itself ran is reported beside the result.

use std::time::{Duration, Instant};

/// The schedule of one paced generator.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    /// Below this distance to the due time the generator spins instead of
    /// sleeping, so a coarse timer wake-up does not show as lateness.
    spin_within: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_sec: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_sec),
            spin_within: Duration::from_micros(150),
        }
    }

    /// Never sleeps between operations. For a generator whose operations
    /// take microseconds: waking from a sleep costs more than they do (cold
    /// caches, a clock ramping up) and would be charged to every one.
    pub fn spinning(mut self) -> Self {
        self.spin_within = Duration::MAX;
        self
    }

    pub fn period(&self) -> Duration {
        self.period
    }

    /// When operation `i` is due.
    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos((self.period.as_nanos() as u64).saturating_mul(i))
    }

    /// How many operations are due before `end`.
    pub fn ops_until(&self, end: Instant) -> u64 {
        let span = end.saturating_duration_since(self.start).as_nanos();
        (span / self.period.as_nanos().max(1)) as u64
    }

    /// Blocks until operation `i` is due and returns (due time, lateness):
    /// never early; late by however long the previous operations overran.
    pub fn wait(&self, i: u64) -> (Instant, Duration) {
        let due = self.due(i);
        loop {
            let now = Instant::now();
            if now >= due {
                return (due, now - due);
            }
            let left = due - now;
            if left > self.spin_within {
                std::thread::sleep(left - self.spin_within);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// Whether a generator kept its rate, given how late it started each
/// operation, in order: over the final tenth of its operations the median
/// lateness may be at most one period. (The median, not the last value: a
/// single stall that happens to straddle the end is not a backlog.)
pub fn kept_up(lateness: &[Duration], period: Duration) -> bool {
    let take = (lateness.len() / 10).max(1).min(lateness.len());
    let mut tail = lateness[lateness.len() - take..].to_vec();
    tail.sort_unstable();
    tail.get(tail.len() / 2).is_none_or(|&median| median <= period)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_a_fixed_grid() {
        let start = Instant::now();
        let s = Schedule::new(start, 500.0);
        assert_eq!(s.period(), Duration::from_millis(2));
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(250), start + Duration::from_millis(500));
        assert_eq!(s.ops_until(start + Duration::from_secs(10)), 5000);
        assert_eq!(s.ops_until(start), 0);
    }

    #[test]
    fn wait_is_never_early_and_a_stall_shows_as_lateness() {
        let s = Schedule::new(Instant::now(), 1000.0);
        for i in 0..5 {
            let (due, _) = s.wait(i);
            assert!(Instant::now() >= due);
            assert_eq!(due, s.due(i));
        }
        // Overrun three periods: the next operations are late, not skipped.
        let resume = s.due(8);
        while Instant::now() < resume {
            std::hint::spin_loop();
        }
        let (_, late5) = s.wait(5);
        let (_, late6) = s.wait(6);
        assert!(late5 >= Duration::from_millis(3));
        assert!(late6 >= Duration::from_millis(2));
    }

    #[test]
    fn a_backlog_at_the_end_is_invalid_but_a_single_stall_is_not() {
        let period = Duration::from_millis(2);
        let on_time = vec![Duration::from_micros(3); 100];
        assert!(kept_up(&on_time, period));
        // One 40 ms stall draining over the last operations: the tail's
        // median is back under a period.
        let mut stalled = on_time.clone();
        for (k, late) in stalled[92..96].iter_mut().enumerate() {
            *late = Duration::from_millis(40 - 10 * k as u64);
        }
        assert!(kept_up(&stalled, period));
        // A generator that cannot keep the rate falls further and further
        // behind.
        let backlog: Vec<Duration> = (0..100).map(|i| Duration::from_micros(100 * i)).collect();
        assert!(!kept_up(&backlog, period));
        assert!(kept_up(&[], period));
        assert!(kept_up(&[period], period) && !kept_up(&[period * 2], period));
    }
}
