//! Lap timing and the quiet-time rule every reported time rests on.

use std::time::{Duration, Instant};

use crate::alloc::HEAP;

/// Lap timer. The host is a shared VM: a neighbour on the sibling
/// hardware thread slows whole seconds of a run to 0.55-0.7x, and only
/// ever slows. So the ledger splits every timed region into short laps
/// at fixed points and keeps, per lap, the fastest repetition; a pass
/// (or a set-up) then costs the sum of its laps' quiet times. A lap
/// needs a few milliseconds without interference once in a run, where
/// a whole pass may never get them.
pub struct Laps<'a> {
    durations: &'a mut Vec<u64>,
    last: Instant,
}

impl<'a> Laps<'a> {
    /// Starts the clock now; lap durations (ns) are appended to
    /// `durations`.
    pub fn start(durations: &'a mut Vec<u64>) -> Self {
        Self::start_at(durations, Instant::now())
    }

    /// Starts the clock at an earlier instant (process start).
    pub fn start_at(durations: &'a mut Vec<u64>, at: Instant) -> Self {
        Laps {
            durations,
            last: at,
        }
    }

    /// Ends the current lap and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.durations.push((now - self.last).as_nanos() as u64);
        self.last = now;
    }
}

/// Keeps in `quiet[k]` the fastest repetition of lap `k` seen so far.
/// Every repetition runs the same code over the same inputs, so the
/// laps line up; a mismatch is a harness bug.
pub fn keep_fastest(quiet: &mut Vec<u64>, laps: &[u64]) {
    if quiet.is_empty() {
        quiet.extend_from_slice(laps);
        return;
    }
    assert_eq!(
        quiet.len(),
        laps.len(),
        "repetitions lap at the same points"
    );
    for (best, &lap) in quiet.iter_mut().zip(laps) {
        *best = (*best).min(lap);
    }
}

/// Cost of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct PassCost {
    pub elapsed: Duration,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

/// Runs `work` on the clock, with the allocator counters read on both
/// sides of it. `laps` is cleared and receives the lap durations
/// (`work`'s own laps, then one closing the region); it must have
/// capacity from an earlier pass, or its growth is timed.
pub fn timed(laps: &mut Vec<u64>, work: impl FnOnce(&mut Laps)) -> PassCost {
    laps.clear();
    let before = HEAP.reading();
    let mut clock = Laps::start(laps);
    work(&mut clock);
    clock.lap();
    let after = HEAP.reading();
    PassCost {
        elapsed: Duration::from_nanos(laps.iter().sum()),
        allocs: after.allocs - before.allocs,
        alloc_bytes: after.alloc_bytes - before.alloc_bytes,
    }
}
