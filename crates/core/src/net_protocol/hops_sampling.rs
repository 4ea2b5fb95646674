//! HopsSampling as message-level events: gossip forwards and poll replies.
//!
//! The synchronous implementation runs the spread to extinction and then
//! polls every reached node's distance centrally. Here both phases are real
//! messages racing the clock:
//!
//! * each [`HsMsg::Forward`] carries the hop counter; a node's *first*
//!   contact fixes its believed distance, triggers its probabilistic
//!   [`HsMsg::Reply`] (inverse-probability weight, §III-B) and its one
//!   forwarding turn of `gossipTo` copies — the event-driven reading of the
//!   paper's `gossipFor = 1` configuration;
//! * the initiator accumulates reply weights and publishes the sum when its
//!   collection window (one step) closes: replies still in flight — or
//!   lost, or sent by nodes reached too late — are simply missing from the
//!   estimate. Latency and loss therefore *deepen* HopsSampling's
//!   characteristic underestimation instead of failing it.

use super::{Cx, NodeProtocol};
use crate::arena::NodeArena;
use crate::hops_sampling::{pick_target, HopsSamplingConfig};
use crate::protocol::StepOutcome;
use p2p_overlay::NodeId;
use p2p_sim::MessageKind;
use rand::Rng;

/// The wire format of the probabilistic-polling class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HsMsg {
    /// A gossip copy carrying the sender's believed distance + 1.
    Forward {
        /// Estimation id, so copies of a finished spread are ignored.
        run: u64,
        /// The spread's initiator, to which poll replies return — carried
        /// in the copy because a deployed relay holds no run state.
        home: NodeId,
        /// Hop count of this copy.
        hops: u32,
    },
    /// A poll reply carrying its inverse-probability weight.
    Reply {
        /// Estimation id.
        run: u64,
        /// `gossipTo^(d − m)` for the replying node's distance `d`.
        weight: f64,
    },
}

/// Per-node spread state: the run a slot was last reached in, and its
/// believed distance within that run. A slot whose `run` is older than the
/// current run id counts as unreached — so starting a new spread is O(1),
/// not an O(slots) re-fill of a distance table (at million-node scale that
/// re-fill *was* the per-step cost).
#[derive(Clone, Copy, Debug, Default)]
struct HsReach {
    /// Run id this slot was last contacted in (0 = never).
    run: u64,
    /// Believed distance within that run.
    hops: u32,
}

/// The event-driven HopsSampling protocol.
///
/// One estimation per step: `on_step` closes the previous run (reporting
/// the weights collected so far) and immediately starts the next spread.
/// A per-run finalize timer covers the timeline's last estimation.
///
/// Per-node reach state lives in a [`NodeArena`] keyed by run id, with
/// generation checking for slot-reusing overlays.
#[derive(Clone)]
pub struct AsyncHopsSampling {
    /// Protocol parameters (shared with the synchronous estimator). The
    /// event-driven variant implements the paper's `gossipFor = 1` turn
    /// structure: one forwarding turn, on first contact.
    pub config: HopsSamplingConfig,
    run_id: u64,
    active: bool,
    initiator: NodeId,
    /// Reach state per slot, validated by run id and slot generation.
    reached: NodeArena<HsReach>,
    /// Accumulated reply weights, including the initiator's own 1.
    sum: f64,
}

impl AsyncHopsSampling {
    /// Event-driven instance with the given parameters.
    pub fn new(config: HopsSamplingConfig) -> Self {
        debug_assert_eq!(
            config.gossip_for, 1,
            "the event-driven spread implements single-turn gossip"
        );
        AsyncHopsSampling {
            config,
            run_id: 0,
            active: false,
            initiator: NodeId(0),
            reached: NodeArena::new(),
            sum: 0.0,
        }
    }

    /// The paper's parameterization.
    pub fn paper() -> Self {
        Self::new(HopsSamplingConfig::paper())
    }

    /// Publishes the current run's estimate and closes the run. The reading
    /// fails if the initiator has departed: nobody is left holding the sum.
    fn finalize(&mut self, cx: &mut Cx<'_, HsMsg>) {
        if !self.active {
            return;
        }
        self.active = false;
        if cx.graph.is_alive(self.initiator) {
            cx.report(StepOutcome::Estimate(self.sum));
        } else {
            cx.report(StepOutcome::Failed);
        }
    }

    /// One forwarding turn: `gossipTo` copies of run `run` at `hops`, drawn
    /// per the configured target mode.
    fn forward(&mut self, from: NodeId, run: u64, home: NodeId, hops: u32, cx: &mut Cx<'_, HsMsg>) {
        for _ in 0..self.config.gossip_to {
            let Some(target) = pick_target(cx.graph, from, self.config.target_mode, cx.rng) else {
                break;
            };
            cx.send(
                from,
                target,
                MessageKind::GossipForward,
                HsMsg::Forward { run, home, hops },
            );
        }
    }
}

impl NodeProtocol for AsyncHopsSampling {
    type Msg = HsMsg;

    fn name(&self) -> &'static str {
        "HopsSampling"
    }

    fn reset(&mut self) {
        self.active = false;
        self.reached.clear();
    }

    fn on_step(&mut self, _step: u64, cx: &mut Cx<'_, HsMsg>) {
        if !cx.leads() {
            return; // relay shards only react to traffic
        }
        self.finalize(cx);
        let Some(initiator) = cx.pick_initiator() else {
            cx.report(StepOutcome::Failed);
            return;
        };
        self.run_id += 1;
        self.active = true;
        self.initiator = initiator;
        // The initiator counts itself. Stale arena entries (older run ids)
        // count as unreached: nothing to clear — starting a spread is O(1)
        // regardless of overlay size.
        self.sum = 1.0;
        *self.reached.slot(initiator) = HsReach {
            run: self.run_id,
            hops: 0,
        };
        // Collection window: one step. The next on_step (or, for the
        // timeline's final estimation, this timer) publishes the sum.
        let window = cx.step_ticks();
        cx.timer_in(window, initiator, self.run_id);
        self.forward(initiator, self.run_id, initiator, 1, cx);
    }

    fn on_message(&mut self, _src: NodeId, dst: NodeId, msg: HsMsg, cx: &mut Cx<'_, HsMsg>) {
        match msg {
            HsMsg::Forward { run, home, hops } => {
                // The DES instance owns every spread and mutes copies of
                // published runs. A cluster shard relays any run it has not
                // yet seen a *newer* copy for (run ids are minted by the
                // estimator, so they are comparable across shards).
                if cx.is_simulated() {
                    if !self.active || run != self.run_id {
                        return; // copy of an already-published spread
                    }
                } else if self.reached.get(dst).is_some_and(|s| s.run > run) {
                    return; // stale copy racing a newer spread
                }
                let s = self.reached.slot(dst);
                if s.run == run {
                    // Repeat contact: only the distance minimum updates
                    // (mute rule — the forwarding turn is spent).
                    s.hops = s.hops.min(hops);
                    return;
                }
                *s = HsReach { run, hops };
                // Poll decision at first contact (§III-B): reply with
                // probability 1 below minHopsReporting, else with
                // probability gossipTo^−excess and inverse weight.
                let excess = hops.saturating_sub(self.config.min_hops_reporting);
                let weight = if excess == 0 {
                    Some(1.0)
                } else {
                    let p = (self.config.gossip_to as f64).powi(-(excess as i32));
                    (cx.rng.gen::<f64>() < p).then_some(1.0 / p)
                };
                if let Some(weight) = weight {
                    cx.send(
                        dst,
                        home,
                        MessageKind::PollReply,
                        HsMsg::Reply { run, weight },
                    );
                }
                self.forward(dst, run, home, hops + 1, cx);
            }
            HsMsg::Reply { run, weight } => {
                if self.active && run == self.run_id {
                    debug_assert_eq!(dst, self.initiator, "replies go to the initiator");
                    self.sum += weight;
                }
            }
        }
    }

    fn on_timer(&mut self, _node: NodeId, tag: u64, cx: &mut Cx<'_, HsMsg>) {
        // The collection window of run `tag` closed. If a newer run is
        // already underway the previous one was finalized by its on_step.
        if self.active && tag == self.run_id {
            self.finalize(cx);
        }
    }
    // Losses need no handler: a dropped forward shrinks the spread, a
    // dropped reply shrinks the sum — both already priced into the estimate.
}
