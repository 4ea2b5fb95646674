//! Sample&Collide as message-level events: the walk is a token.
//!
//! The synchronous estimator runs a whole estimation — hundreds of walk
//! hops — inside one atomic step. Here every hop is a real message: the
//! continuous-time random walk's budget `T` travels inside the
//! [`ScMsg::Walk`] token, each receiving node decrements it by
//! `−ln(U)/degree` and forwards, and the sampled node returns a
//! [`ScMsg::Reply`] to the initiator, exactly as §III-A describes the
//! deployed protocol. Consequences the atomic version cannot express:
//!
//! * an estimation's wall-clock time is the *sum* of its sequential hop
//!   latencies (the paper's §V(p) delay conjecture becomes measurable);
//! * a lost hop loses the walk token — the estimation fails. Nobody is
//!   told a message died, in the DES as on a socket: the initiator's
//!   step-count timeout (`timeout_steps`) observes the lost walk;
//! * churn can kill the node a walk currently sits on, with the same
//!   effect.

use super::{Cx, NodeProtocol};
use crate::protocol::StepOutcome;
use crate::sample_collide::{CollisionCounter, SampleCollideConfig};
use p2p_overlay::NodeId;
use p2p_sim::MessageKind;
use rand::Rng;

/// The wire format of the random-walk class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScMsg {
    /// The walk token: remaining budget `t`, forwarded hop by hop.
    Walk {
        /// Estimation id, so stale tokens from a timed-out run are ignored.
        run: u64,
        /// The initiator the terminal sample must be returned to — carried
        /// in the token because a deployed relay holds no run state.
        home: NodeId,
        /// Remaining walk budget.
        t: f64,
    },
    /// The sampled node returns its id to the initiator.
    Reply {
        /// Estimation id.
        run: u64,
        /// The sampled node.
        sample: NodeId,
    },
}

/// One in-flight estimation.
#[derive(Clone)]
struct ScRun {
    initiator: NodeId,
    counter: CollisionCounter,
    started_step: u64,
}

/// The event-driven Sample&Collide protocol.
///
/// One estimation at a time: each [`on_step`](NodeProtocol::on_step) starts
/// a fresh estimation if none is in flight (steps that land mid-estimation
/// report nothing — under high latency the completed-estimation rate drops,
/// which is the point). A run that outlives `timeout_steps` step windows is
/// reported [`StepOutcome::Failed`] and abandoned.
#[derive(Clone)]
pub struct AsyncSampleCollide {
    /// Algorithm parameters (shared with the synchronous estimator).
    pub config: SampleCollideConfig,
    /// Step windows before an unfinished estimation is declared failed.
    pub timeout_steps: u64,
    run_id: u64,
    active: Option<ScRun>,
}

impl AsyncSampleCollide {
    /// Event-driven instance with the given parameters.
    pub fn new(config: SampleCollideConfig) -> Self {
        AsyncSampleCollide {
            config,
            timeout_steps: 8,
            run_id: 0,
            active: None,
        }
    }

    /// The paper's main configuration (`l = 200, T = 10`).
    pub fn paper() -> Self {
        Self::new(SampleCollideConfig::paper())
    }

    /// The cheap Fig-18 configuration (`l = 10`).
    pub fn cheap() -> Self {
        Self::new(SampleCollideConfig::cheap())
    }

    /// Same protocol with a different estimation timeout.
    pub fn with_timeout(mut self, steps: u64) -> Self {
        assert!(steps >= 1, "timeout must allow at least one step");
        self.timeout_steps = steps;
        self
    }

    /// Abandons the current run and reports a failed period.
    fn fail(&mut self, cx: &mut Cx<'_, ScMsg>) {
        self.active = None;
        cx.report(StepOutcome::Failed);
    }

    /// Sends the next walk token from `initiator`; fails the run if the
    /// initiator has no link left to walk on.
    fn launch_walk(&mut self, initiator: NodeId, cx: &mut Cx<'_, ScMsg>) {
        match cx.graph.random_neighbor(initiator, cx.rng) {
            Some(first) => cx.send(
                initiator,
                first,
                MessageKind::WalkStep,
                ScMsg::Walk {
                    run: self.run_id,
                    home: initiator,
                    t: self.config.timer,
                },
            ),
            None => self.fail(cx),
        }
    }
}

impl NodeProtocol for AsyncSampleCollide {
    type Msg = ScMsg;

    fn name(&self) -> &'static str {
        "Sample&Collide"
    }

    fn reset(&mut self) {
        self.active = None;
    }

    fn on_step(&mut self, step: u64, cx: &mut Cx<'_, ScMsg>) {
        if !cx.leads() {
            return; // relay shards only react to traffic
        }
        if let Some(run) = &self.active {
            if step.saturating_sub(run.started_step) < self.timeout_steps {
                return; // estimation still in flight; nothing to report yet
            }
            self.fail(cx); // stranded or outpaced by latency: give up
        }
        let Some(initiator) = cx.pick_initiator() else {
            cx.report(StepOutcome::Failed);
            return;
        };
        self.run_id += 1;
        self.active = Some(ScRun {
            initiator,
            counter: CollisionCounter::new(cx.graph.num_slots()),
            started_step: step,
        });
        self.launch_walk(initiator, cx);
    }

    fn on_message(&mut self, _src: NodeId, dst: NodeId, msg: ScMsg, cx: &mut Cx<'_, ScMsg>) {
        match msg {
            ScMsg::Walk { run, home, mut t } => {
                // The DES instance owns every run and discards tokens of
                // timed-out estimations. A cluster shard cannot know about
                // remote runs: it forwards any token (the initiator's
                // run-id guard discards stale replies).
                if cx.is_simulated() && (self.active.is_none() || run != self.run_id) {
                    return; // token of a timed-out estimation
                }
                let degree = cx.graph.degree(dst);
                if degree == 0 {
                    // Every link of the current node died while the hop was
                    // in flight: the token cannot move — churn ate the walk.
                    // The owning instance fails the run; a relay drops the
                    // stranded token and the initiator's timeout observes it.
                    if self.active.is_some() && run == self.run_id {
                        self.fail(cx);
                    }
                    return;
                }
                // U ∈ (0, 1]: −ln(U)/d is an Exp(d) holding time (§III-A).
                let u: f64 = 1.0 - cx.rng.gen::<f64>();
                t -= -u.ln() / degree as f64;
                if t > 0.0 {
                    let next = cx
                        .graph
                        .random_neighbor(dst, cx.rng)
                        .expect("node with degree >= 1 has a neighbor");
                    cx.send(
                        dst,
                        next,
                        MessageKind::WalkStep,
                        ScMsg::Walk { run, home, t },
                    );
                } else {
                    cx.send(
                        dst,
                        home,
                        MessageKind::SampleReply,
                        ScMsg::Reply { run, sample: dst },
                    );
                }
            }
            ScMsg::Reply { run, sample } => {
                if self.active.is_none() || run != self.run_id {
                    return;
                }
                let state = self.active.as_mut().expect("run checked above");
                debug_assert_eq!(dst, state.initiator, "replies go to the initiator");
                state.counter.observe(sample);
                let (c, l) = (state.counter.samples(), state.counter.collisions());
                if self.config.is_done(c, l) {
                    self.active = None;
                    match self.config.finish_estimate(c, l) {
                        Some(estimate) => cx.report(StepOutcome::Estimate(estimate)),
                        None => cx.report(StepOutcome::Failed),
                    }
                } else {
                    let initiator = state.initiator;
                    self.launch_walk(initiator, cx);
                }
            }
        }
    }
}
