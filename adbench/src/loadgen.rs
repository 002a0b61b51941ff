//! Open-loop load generation: a fixed arrival schedule, and the
//! accounting that charges each request from when it was *due*, not
//! from when the generator got around to sending it.

use std::time::{Duration, Instant};

/// Arrival `k` of a `rate`-per-second schedule, in nanoseconds after
/// the schedule starts. Integer arithmetic, so the grid never drifts.
pub fn scheduled_ns(k: u64, rate: u64) -> u64 {
    (u128::from(k) * 1_000_000_000 / u128::from(rate.max(1))) as u64
}

/// What an open-loop generator does next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Every arrival scheduled inside the step has been sent.
    Done,
    /// The backlog is past its limit: send nothing now. The schedule
    /// keeps running, so the held-back arrivals are charged from their
    /// due times once they go out.
    Hold,
    /// The next arrival is due in this many ns.
    Wait(u64),
    /// Send the next arrival now; it was due at this time (ns after the
    /// step start) and is charged from it.
    Send(u64),
}

/// The next action for arrival `k` of a `rate`-per-second step that
/// schedules arrivals before `end_ns`, at `now_ns` with `in_flight`
/// requests outstanding. A backlog never ends the step early: the step
/// is done only once its last scheduled arrival has been sent.
pub fn next(
    k: u64,
    rate: u64,
    end_ns: u64,
    now_ns: u64,
    in_flight: u64,
    max_in_flight: u64,
) -> Next {
    let due = scheduled_ns(k, rate);
    if due >= end_ns {
        Next::Done
    } else if in_flight > max_in_flight {
        Next::Hold
    } else if due > now_ns {
        Next::Wait(due - now_ns)
    } else {
        Next::Send(due)
    }
}

/// Timestamps of one open-loop request, ns after the schedule start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the request was due.
    pub scheduled_ns: u64,
    /// When the generator actually submitted it.
    pub sent_ns: u64,
    /// When its answer was observed.
    pub done_ns: u64,
}

impl Timing {
    /// Latency charged to the system: completion minus the *scheduled*
    /// send, so a stall also bills the requests queued behind it.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.scheduled_ns)
    }

    /// How late the generator sent the request.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.scheduled_ns)
    }
}

/// Sleeps until `deadline` with sub-millisecond accuracy: a coarse
/// sleep that stops short, then yields. Long waits cost no CPU; the
/// last stretch trades a little CPU for a punctual wake-up.
pub fn sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}
