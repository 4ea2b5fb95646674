//! Wall-clock pacing: the step grid of the deployed (non-simulated) backend.
//!
//! The DES owns a virtual clock, so "one step every `step_ticks`" is free.
//! A loopback cluster runs on the wall clock: the coordinator applies churn
//! ops and the node runtimes fire protocol steps on a shared real-time
//! cadence of one step per `step_ms` milliseconds (matching the network
//! model's one-tick-per-millisecond convention). [`WallPacer`] is that
//! metronome — anchored once, then polled from an event loop
//! ([`poll`](WallPacer::poll)).
//!
//! A pacer never skips steps: if the process falls behind (a long handler,
//! a stopped laptop), due steps are yielded back-to-back until the grid is
//! caught up, exactly like the DES dispatching every step control event.
//! Churn models therefore see the same dense step sequence on both
//! backends.

use crate::model::ChurnModel;
use crate::op::WorkloadOp;
use p2p_overlay::Graph;
use rand::rngs::SmallRng;
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

    /// The wall-clock deadline of `step`.
    pub fn deadline(&self, step: u64) -> Instant {
        self.start + self.step.saturating_mul(step.min(u32::MAX as u64) as u32)
    }

    /// Yields the next step if its boundary has passed, without blocking.
    /// Steps count from 1, like the DES timeline.
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-clock: step-boundary check against the pacer's wall anchor; cluster-only path"
    )]
    pub fn poll(&mut self) -> Option<u64> {
        if Instant::now() < self.deadline(self.next_step) {
            return None;
        }
        let step = self.next_step;
        self.next_step += 1;
        Some(step)
    }
}

/// A churn model driven by the wall clock: at each due step boundary it
/// asks the wrapped [`ChurnModel`] for that step's ops — the deployed
/// counterpart of the DES driver's per-step `ops_at` call. The coordinator
/// applies the ops to its overlay replica and broadcasts them; every
/// replica applies them with an identically seeded rng, keeping the graph
/// views in lockstep without shipping graph state.
pub struct PacedOps<M> {
    /// The generating model.
    pub model: M,
    pacer: WallPacer,
}

impl<M: ChurnModel> PacedOps<M> {
    /// Paces `model` at one step per `step_ms` wall milliseconds.
    pub fn new(model: M, step_ms: u64) -> Self {
        PacedOps {
            model,
            pacer: WallPacer::new(step_ms),
        }
    }

    /// If a step boundary has passed, returns `(step, ops)` for it —
    /// `None` while the next boundary is still in the future. Call in a
    /// loop: a process that fell behind catches up one step per call.
    pub fn ops_due(&mut self, graph: &Graph, rng: &mut SmallRng) -> Option<(u64, Vec<WorkloadOp>)> {
        let step = self.pacer.poll()?;
        let mut ops = Vec::new();
        self.model.ops_at(step, graph, rng, &mut ops);
        Some((step, ops))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the pacer's tests step the wall clock the pacer reads"
)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;
    use p2p_sim::rng::small_rng;

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

    #[test]
    fn paced_ops_pull_from_the_model_per_due_step() {
        let model = WorkloadSpec::parse("steady:join=2,leave=2")
            .unwrap()
            .build(10);
        let mut paced = PacedOps::new(model, 1);
        let graph = Graph::with_nodes(50);
        let mut rng = small_rng(7);
        std::thread::sleep(Duration::from_millis(3));
        let (step, ops) = paced.ops_due(&graph, &mut rng).unwrap();
        assert_eq!(step, 1);
        // steady:rate=2 swaps two nodes per step: one join op, departures.
        assert!(!ops.is_empty());
    }
}
