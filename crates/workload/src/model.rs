//! The streaming churn-model abstraction.
//!
//! A [`ChurnModel`] is a *lazy* churn source: the runner asks it for the
//! ops due at each step, applies them, and feeds the applied identities
//! back through [`observe`](ChurnModel::observe). Nothing is materialized
//! up front — a million-node, million-step workload costs O(alive nodes)
//! state (session expiry calendars), never O(steps) schedule memory.
//!
//! Determinism contract (what makes traces recordable and replayable bit
//! for bit):
//!
//! * model draws (`ops_at`/`observe`/`on_init`) consume only the dedicated
//!   workload RNG stream the runner derives from the run seed;
//! * op *application* (victim sampling inside `Leave`/`Catastrophe`, join
//!   wiring) consumes the run's main stream — exactly like scheduled ops —
//!   so replaying a recorded op sequence reproduces the run without the
//!   model (and without its stream) being present at all.

use crate::WorkloadOp;
use p2p_overlay::churn::{ChurnDelta, ChurnOp};
use p2p_overlay::Graph;
use rand::rngs::SmallRng;

/// A lazy churn source, stepped in lockstep with the scenario timeline.
///
/// Boxed models forward transparently (see the blanket impl below), so a
/// spec-built `Box<dyn ChurnModel>` plugs into any generic driver.
pub trait ChurnModel {
    /// Called once after the initial overlay is built, before step 1 —
    /// e.g. to assign session lifetimes to the initial population.
    fn on_init(&mut self, _graph: &Graph, _rng: &mut SmallRng) {}

    /// Appends the ops due at `step` to `out`. Called exactly once per
    /// step, for steps `1..=steps` in increasing order, *before* the
    /// protocol's step executes. `graph` is the overlay as of the previous
    /// step (read-only: all mutation goes through the returned ops).
    fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>);

    /// Feedback after this step's ops applied: which nodes joined and left
    /// ([`ChurnDelta`] identities, in application order). `delta.joined`
    /// contains exactly the nodes *this model's own* `Join` ops wired
    /// (under a [`CompositeModel`] the step's joiners are segmented per
    /// sub-model); `delta.left` is the step's full departure list.
    fn observe(&mut self, _step: u64, _delta: &ChurnDelta, _rng: &mut SmallRng) {}

    /// Feedback for churn this model did *not* emit — the scenario's
    /// scheduled ops (e.g. a `growing` schedule composed with a session
    /// workload). Session models adopt these joiners so scheduled arrivals
    /// live sessions too; most models ignore it.
    fn observe_external(&mut self, _step: u64, _delta: &ChurnDelta, _rng: &mut SmallRng) {}
}

impl<T: ChurnModel + ?Sized> ChurnModel for Box<T> {
    fn on_init(&mut self, graph: &Graph, rng: &mut SmallRng) {
        (**self).on_init(graph, rng);
    }

    fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        (**self).ops_at(step, graph, rng, out);
    }

    fn observe(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        (**self).observe(step, delta, rng);
    }

    fn observe_external(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        (**self).observe_external(step, delta, rng);
    }
}

/// Several models sharing one timeline: ops concatenate in sub-model
/// order. Built from `+`-joined workload specs
/// (`flash:at=25,frac=0.5+regional:at=75`).
///
/// Each sub-model owns its own joiners: at `observe` time the step's
/// `delta.joined` is segmented by the join counts each sub-model emitted
/// (a `Join { count }` op always wires exactly `count` nodes, in op
/// order), and a sub-model sees only its segment — so a `FlashCrowd`
/// never adopts a co-composed `SessionModel`'s arrivals as its cohort, in
/// *either* composition order. Departures are global truth and passed
/// through whole.
pub struct CompositeModel {
    models: Vec<Box<dyn ChurnModel>>,
    /// Joins each sub-model emitted this step (set by `ops_at`).
    joins_emitted: Vec<usize>,
}

impl CompositeModel {
    /// Composes `models` (ops emitted in this order each step).
    pub fn new(models: Vec<Box<dyn ChurnModel>>) -> Self {
        let joins_emitted = vec![0; models.len()];
        CompositeModel {
            models,
            joins_emitted,
        }
    }
}

/// Total nodes the `Join` ops in `ops` will wire.
fn joins_in(ops: &[WorkloadOp]) -> usize {
    ops.iter()
        .map(|op| match op {
            WorkloadOp::Churn(ChurnOp::Join { count, .. }) => *count,
            _ => 0,
        })
        .sum()
}

impl ChurnModel for CompositeModel {
    fn on_init(&mut self, graph: &Graph, rng: &mut SmallRng) {
        for m in &mut self.models {
            m.on_init(graph, rng);
        }
    }

    fn ops_at(&mut self, step: u64, graph: &Graph, rng: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
        for (m, emitted) in self.models.iter_mut().zip(&mut self.joins_emitted) {
            let before = out.len();
            m.ops_at(step, graph, rng, out);
            *emitted = joins_in(&out[before..]);
        }
    }

    fn observe(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        let mut offset = 0usize;
        for (m, &joins) in self.models.iter_mut().zip(&self.joins_emitted) {
            let own = ChurnDelta {
                joined: delta.joined[offset..offset + joins].to_vec(),
                left: delta.left.clone(),
            };
            offset += joins;
            m.observe(step, &own, rng);
        }
        debug_assert_eq!(offset, delta.joined.len(), "join segmentation drift");
    }

    fn observe_external(&mut self, step: u64, delta: &ChurnDelta, rng: &mut SmallRng) {
        for m in &mut self.models {
            m.observe_external(step, delta, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2p_overlay::builder::{GraphBuilder, HeterogeneousRandom};
    use p2p_sim::rng::small_rng;

    /// Emits one fixed op every step.
    struct Every(ChurnOp);

    impl ChurnModel for Every {
        fn ops_at(&mut self, _: u64, _: &Graph, _: &mut SmallRng, out: &mut Vec<WorkloadOp>) {
            out.push(WorkloadOp::Churn(self.0));
        }
    }

    #[test]
    fn composite_concatenates_in_submodel_order() {
        let mut rng = small_rng(8);
        let g = HeterogeneousRandom::paper(50).build(&mut rng);
        let a = Every(ChurnOp::Leave { count: 1 });
        let b = Every(ChurnOp::Leave { count: 2 });
        let mut c = CompositeModel::new(vec![Box::new(a), Box::new(b)]);
        let mut out = Vec::new();
        c.ops_at(1, &g, &mut rng, &mut out);
        assert_eq!(
            out,
            vec![
                WorkloadOp::Churn(ChurnOp::Leave { count: 1 }),
                WorkloadOp::Churn(ChurnOp::Leave { count: 2 }),
            ]
        );
    }
}
