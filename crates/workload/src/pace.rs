//! Wall-clock pacing: the step grid of the deployed (non-simulated) backend.
//!
//! The DES owns a virtual clock, so "one step every `step_ticks`" is free.
//! A loopback cluster runs on the wall clock, and it has exactly one: the
//! coordinator's. At each step boundary — one step per `step_ms`
//! milliseconds, matching the network model's one-tick-per-millisecond
//! convention — it steps the streamed churn and tells every shard to land
//! those ops and run the step. [`WallPacer`] is that metronome — anchored
//! once, then polled from the coordinator's event loop
//! ([`poll`](WallPacer::poll)).
//!
//! A pacer never skips steps: if the process falls behind (a long handler,
//! a stopped laptop), due steps are yielded back-to-back until the grid is
//! caught up, exactly like the DES dispatching every step control event.
//! Churn models therefore see the same dense step sequence on both
//! backends.

use std::time::{Duration, Instant};

/// A wall-clock metronome over the scenario's step grid.
#[derive(Clone, Debug)]
pub struct WallPacer {
    start: Instant,
    step: Duration,
    next_step: u64,
}

impl WallPacer {
    /// A pacer anchored *now*, firing step 1 after `step_ms` milliseconds.
    ///
    /// # Panics
    /// Panics if `step_ms` is zero — a zero-width grid never sleeps.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock: WallPacer IS the wall-clock boundary — it paces live cluster runs; DES runs never construct one"
    )]
    pub fn new(step_ms: u64) -> Self {
        assert!(step_ms > 0, "the wall-clock step cadence must be positive");
        WallPacer {
            start: Instant::now(),
            step: Duration::from_millis(step_ms),
            next_step: 1,
        }
    }

    /// Yields the next step if its boundary has passed, without blocking.
    /// Steps count from 1, like the DES timeline.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock: step-boundary check against the pacer's wall anchor; cluster-only path"
    )]
    pub fn poll(&mut self) -> Option<u64> {
        let due = self
            .step
            .saturating_mul(self.next_step.min(u32::MAX as u64) as u32);
        if Instant::now() < self.start + due {
            return None;
        }
        let step = self.next_step;
        self.next_step += 1;
        Some(step)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the pacer's tests step the wall clock the pacer reads"
)]
mod tests {
    use super::*;

    #[test]
    fn pacer_yields_the_dense_step_sequence() {
        let mut pacer = WallPacer::new(1);
        std::thread::sleep(Duration::from_millis(5));
        // Behind by several steps: they come back-to-back, never skipped,
        // until the grid has caught up with the clock.
        let due: Vec<u64> = std::iter::from_fn(|| pacer.poll()).collect();
        assert!(due.len() >= 5, "steps due after 5 ms: {due:?}");
        assert!(due.iter().copied().eq(1..=due.len() as u64), "{due:?}");
    }
}
