//! Open-loop request generation: request `i` of a stream is due at
//! `start + i / rate`, whether or not earlier requests have finished —
//! the arrival pattern of independent users. Latency is measured from
//! the due time, so a stall also charges the requests queued behind it,
//! and the generator's own lateness (how long after its due time a
//! request was actually sent) is reported beside it.

use std::time::{Duration, Instant};

/// Below this much slack the generator spins (yielding) instead of
/// sleeping, since a sleep can overshoot by tens of microseconds.
const SPIN_BELOW: Duration = Duration::from_micros(200);

/// What one open-loop stream measured.
#[derive(Debug, Clone, Default)]
pub struct OpenStats {
    /// Per request, due time → completion, microseconds (schedule order).
    pub latency_us: Vec<f64>,
    /// Per request, due time → send, microseconds.
    pub late_us: Vec<f64>,
    /// Requests due by the end of the phase that had not been sent when
    /// it ended (0 when the generator kept up).
    pub backlog_end: usize,
    /// Requests scheduled.
    pub scheduled: usize,
}

impl OpenStats {
    /// Whether lateness grew through the phase: the last quarter's
    /// median lateness exceeds 1 ms and four times the first quarter's.
    /// A growing backlog means the rate exceeds capacity, and the
    /// latencies then measure queueing.
    pub fn backlog_growing(&self) -> bool {
        let n = self.late_us.len();
        if n < 8 {
            return self.backlog_end > 0;
        }
        let first = crate::stats::median(&self.late_us[..n / 4]);
        let last = crate::stats::median(&self.late_us[n - n / 4..]);
        self.backlog_end > 0 || (last > 1_000.0 && last > 4.0 * first.max(1.0))
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let slack = due - now;
        if slack > SPIN_BELOW {
            std::thread::sleep(slack - SPIN_BELOW / 2);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `n` requests at `rate` per second starting at `start`, calling
/// `send(i)` for request `i`. Requests still unsent at `start +
/// phase` count as the end-of-phase backlog; the stream always sends all
/// `n` so every scheduled operation is attempted once.
pub fn run(
    start: Instant,
    rate: f64,
    n: usize,
    phase: Duration,
    mut send: impl FnMut(usize),
) -> OpenStats {
    let period = Duration::from_secs_f64(1.0 / rate);
    let end = start + phase;
    let mut stats = OpenStats {
        latency_us: Vec::with_capacity(n),
        late_us: Vec::with_capacity(n),
        backlog_end: 0,
        scheduled: n,
    };
    let mut backlog_taken = false;
    for i in 0..n {
        let due = start + period * i as u32;
        wait_until(due);
        let sent = Instant::now();
        if !backlog_taken && sent >= end {
            backlog_taken = true;
            stats.backlog_end = (i..n).filter(|&j| start + period * j as u32 <= end).count();
        }
        send(i);
        let done = Instant::now();
        stats.late_us.push((sent - due).as_secs_f64() * 1e6);
        stats.latency_us.push((done - due).as_secs_f64() * 1e6);
    }
    stats
}

/// Requests a stream at `rate` schedules within `phase`.
pub fn count(rate: f64, phase: Duration) -> usize {
    (rate * phase.as_secs_f64()).floor().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_schedule_and_measures_from_due_time() {
        let start = Instant::now();
        let mut calls = Vec::new();
        let s = run(start, 2_000.0, 20, Duration::from_millis(10), |i| {
            calls.push(i)
        });
        assert_eq!(calls, (0..20).collect::<Vec<_>>());
        assert_eq!(s.latency_us.len(), 20);
        assert!(s.latency_us.iter().zip(&s.late_us).all(|(l, d)| l >= d));
        // 20 requests at 2 kHz take ≥ 9.5 ms of schedule.
        assert!(start.elapsed() >= Duration::from_micros(9_500));
        assert_eq!(count(2_000.0, Duration::from_millis(10)), 20);
    }

    #[test]
    fn a_stall_shows_as_backlog() {
        let start = Instant::now();
        let s = run(start, 1_000.0, 10, Duration::from_millis(5), |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(8));
            }
        });
        // Requests 1..=5 were due within the 5 ms phase but were sent
        // after it ended, behind the stalled first request.
        assert_eq!(s.backlog_end, 5);
        assert!(s.backlog_growing());
        assert!(s.latency_us[1] >= 6_000.0);
    }
}
