//! Epoched Aggregation as message-level events: two-phase push-pull.
//!
//! The synchronous [`EpochedAggregation`](crate::aggregation::EpochedAggregation)
//! averages each pair atomically. Here an exchange is two messages with
//! independent fates: the initiating node sends its value in an
//! [`AggMsg::Push`]; the contacted node averages on delivery and answers
//! with an [`AggMsg::Pull`] carrying the initiator's half of the exchange
//! as a *delta* (`avg − pushed value`). Applying a delta rather than an
//! absolute value keeps the pair's mass exactly conserved even when the
//! initiator's value changed while the exchange was in flight (overlapping
//! exchanges are the norm under latency) — on a lossless static network
//! the epidemic invariant `Σ values = 1` therefore still holds. The
//! conservation argument breaks only where it should:
//!
//! * a dropped `Pull` leaves the pair half-exchanged (the contacted node
//!   updated, the initiator never applied its delta) — value mass drifts;
//! * a node departing with messages addressed to it destroys the mass
//!   those exchanges embodied;
//! * exchanges of round `r` can land after round `r + 1` started when
//!   latency exceeds the round cadence.
//!
//! Since the estimate is `1 / average`, destroyed mass inflates the
//! estimate — the dynamic-network failure mode the paper attributes to
//! "removed nodes no longer participating" (§IV-D), now arising from the
//! network itself. Epoch restarts (§IV-D(k)) bound how long any corruption
//! survives, exactly as they bound churn staleness.

use super::{Cx, NodeProtocol};
use crate::aggregation::AggregationConfig;
use crate::arena::NodeArena;
use crate::protocol::StepOutcome;
use p2p_overlay::NodeId;
use p2p_sim::MessageKind;

/// The wire format of the epidemic class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggMsg {
    /// First half of an exchange: the initiating node's current value.
    Push {
        /// Epoch tag (stale-epoch messages are discarded).
        epoch: u32,
        /// The sender's value at send time.
        value: f64,
    },
    /// Second half: the initiator's share of the exchange, back to it.
    Pull {
        /// Epoch tag.
        epoch: u32,
        /// `avg − pushed value`: what the initiator must add so the pair
        /// sums to twice the average, however its value moved meanwhile.
        delta: f64,
    },
}

/// Per-node state of the event-driven Aggregation, one arena slot per
/// overlay slot. `epoch == 0` (the default) means "never participated".
#[derive(Clone, Copy, Debug, Default)]
struct AggState {
    /// The node's current share of the unit mass.
    value: f64,
    /// Epoch tag this slot last joined (0 = never participated).
    epoch: u32,
    /// Round within that epoch at which the slot joined; a node initiates
    /// exchanges from the following round on.
    joined_at: u32,
}

/// The event-driven epoched Aggregation protocol.
///
/// One `on_step` = one gossip round, as in the synchronous variant; a new
/// epoch (fresh tag, fresh initiator holding value 1) starts every
/// `rounds_per_estimate` rounds, and each epoch's estimate is read one step
/// window after its final round, so that round's exchanges can land.
///
/// Per-node state lives in a [`NodeArena`]: dense slot-indexed storage with
/// generation checking, so an overlay running with slot reuse can never
/// leak a departed node's mass into the slot's next tenant.
#[derive(Clone)]
pub struct AsyncAggregation {
    /// Protocol parameters (rounds per epoch).
    pub config: AggregationConfig,
    nodes: NodeArena<AggState>,
    epoch: u32,
    rounds_done: u32,
    reported: bool,
    initiator: Option<NodeId>,
}

impl AsyncAggregation {
    /// Event-driven instance with the given parameters.
    pub fn new(config: AggregationConfig) -> Self {
        AsyncAggregation {
            config,
            nodes: NodeArena::new(),
            epoch: 0,
            rounds_done: 0,
            reported: false,
            initiator: None,
        }
    }

    /// The paper's parameterization (50-round epochs).
    pub fn paper() -> Self {
        Self::new(AggregationConfig::paper())
    }

    /// Publishes the completed epoch's estimate (once), read at the
    /// initiator or a surviving participant, as §V(p) prescribes.
    fn finalize(&mut self, cx: &mut Cx<'_, AggMsg>) {
        if self.epoch == 0 || self.reported || self.rounds_done < self.config.rounds_per_estimate {
            return;
        }
        self.reported = true;
        let read = self
            .initiator
            .filter(|&init| cx.graph.is_alive(init))
            .and_then(|init| self.estimate_at(init))
            .or_else(|| {
                // Initiator gone (or value exhausted): read the first
                // participating node among a few uniform probes. A shard
                // can only read slots it hosts (in the DES that is all).
                for _ in 0..64 {
                    let n = cx.graph.random_alive(cx.rng)?;
                    if !cx.hosts(n) {
                        continue;
                    }
                    if let Some(e) = self.estimate_at(n) {
                        return Some(e);
                    }
                }
                None
            });
        match read {
            Some(estimate) => cx.report(StepOutcome::Estimate(estimate)),
            None => cx.report(StepOutcome::Failed),
        }
    }
}

impl NodeProtocol for AsyncAggregation {
    type Msg = AggMsg;

    fn name(&self) -> &'static str {
        "Aggregation"
    }

    /// Local estimate at `node` — `1 / value` for current-epoch
    /// participants with positive value. The read goes through the arena's
    /// generation check, so monitor gauges over a slot-reusing overlay can
    /// never read a departed tenant's mass.
    fn estimate_at(&self, node: NodeId) -> Option<f64> {
        let s = self.nodes.get(node)?;
        if s.epoch != self.epoch {
            return None;
        }
        (s.value > 0.0).then(|| 1.0 / s.value)
    }

    fn reset(&mut self) {
        self.nodes.clear();
        self.epoch = 0;
        self.rounds_done = 0;
        self.reported = false;
        self.initiator = None;
    }

    fn on_step(&mut self, _step: u64, cx: &mut Cx<'_, AggMsg>) {
        self.nodes.ensure(cx.graph.num_slots());
        let epoch_len = self.config.rounds_per_estimate;
        if cx.leads() {
            if self.epoch == 0 || self.rounds_done >= epoch_len {
                self.finalize(cx); // in case the epoch's read timer has not fired yet
                let Some(init) = cx.pick_initiator() else {
                    cx.report(StepOutcome::Failed);
                    return;
                };
                self.epoch += 1;
                self.rounds_done = 0;
                self.reported = false;
                self.initiator = Some(init);
                let epoch = self.epoch;
                let s = self.nodes.slot(init);
                s.value = 1.0;
                s.epoch = epoch;
                s.joined_at = 0;
            }
        } else if self.epoch == 0 {
            return; // relay shard no epoch has reached yet: nothing to do
        }
        // One gossip round: every node that joined in an earlier round
        // initiates one push-pull exchange with a uniform random neighbor.
        let round = self.rounds_done + 1;
        for v in cx.graph.alive_nodes() {
            if !cx.hosts(v) {
                continue; // a shard paces only the slots it hosts
            }
            // The arena's generation check makes a re-let slot read as
            // "never participated" until a Push reaches its new tenant.
            let Some(&s) = self.nodes.get(v) else {
                continue;
            };
            if s.epoch != self.epoch || s.joined_at >= round {
                continue;
            }
            let Some(w) = cx.graph.random_neighbor(v, cx.rng) else {
                continue;
            };
            cx.send(
                v,
                w,
                MessageKind::AggregationPush,
                AggMsg::Push {
                    epoch: self.epoch,
                    value: s.value,
                },
            );
        }
        self.rounds_done = round;
        if round >= epoch_len {
            // Read the epoch one collection window after its last round, so
            // that round's exchanges can land first.
            if let Some(init) = self.initiator {
                cx.timer_in(cx.step_ticks(), init, self.epoch as u64);
            }
        }
    }

    fn on_message(&mut self, src: NodeId, dst: NodeId, msg: AggMsg, cx: &mut Cx<'_, AggMsg>) {
        match msg {
            AggMsg::Push { epoch, value } => {
                if epoch != self.epoch {
                    // The DES instance knows the one true epoch; a cluster
                    // shard learns of a restart from the first push carrying
                    // a newer tag (§IV-D(k)) and adopts it.
                    if cx.is_simulated() || epoch < self.epoch {
                        return; // exchange of a restarted process
                    }
                    self.epoch = epoch;
                }
                let rounds_done = self.rounds_done;
                let s = self.nodes.slot(dst);
                if s.epoch != epoch {
                    // Reached by a new tag: join with value 0 (§IV-D(k));
                    // exchanges start next round.
                    s.epoch = epoch;
                    s.value = 0.0;
                    s.joined_at = rounds_done;
                }
                let avg = 0.5 * (value + s.value);
                s.value = avg;
                cx.send(
                    dst,
                    src,
                    MessageKind::AggregationPull,
                    AggMsg::Pull {
                        epoch,
                        delta: avg - value,
                    },
                );
            }
            AggMsg::Pull { epoch, delta } => {
                if epoch != self.epoch {
                    return;
                }
                let s = self.nodes.slot(dst);
                if s.epoch == epoch {
                    s.value += delta;
                }
            }
        }
    }

    fn on_timer(&mut self, _node: NodeId, tag: u64, cx: &mut Cx<'_, AggMsg>) {
        if tag == self.epoch as u64 {
            self.finalize(cx);
        }
    }
    // Losses need no handler: a lost Push skips one exchange, a lost Pull
    // half-averages one pair — the resulting mass drift *is* the modelled
    // failure.
}
