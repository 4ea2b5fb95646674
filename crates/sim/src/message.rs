//! Message accounting.
//!
//! §IV-E of the paper: *"We measure the overhead of the different algorithms
//! as the total number of messages sent to produce the estimation. This
//! includes spreading messages for Aggregation and for HopsSampling, return
//! messages for HopsSampling, the message associated to the random walk for
//! Sample&Collide as well as each sampled node's return."*
//!
//! Every protocol in `p2p-estimation` charges each simulated message to a
//! [`MessageCounter`] under its [`MessageKind`], so overhead numbers
//! decompose exactly the way Table I reports them.

use std::fmt;

/// The kinds of messages the three candidate algorithms exchange.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// One hop of a Sample&Collide random walk.
    WalkStep,
    /// A sampled node returning its id to the walk initiator.
    SampleReply,
    /// A HopsSampling gossip forward carrying the hop counter.
    GossipForward,
    /// A HopsSampling probabilistic poll reply back to the initiator.
    PollReply,
    /// An Aggregation push (the initiating half of a push-pull exchange).
    AggregationPush,
    /// An Aggregation pull (the replying half of a push-pull exchange).
    AggregationPull,
    /// Anything else (control traffic of user-defined protocols).
    Control,
}

impl MessageKind {
    /// All kinds, in counter-array order.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::WalkStep,
        MessageKind::SampleReply,
        MessageKind::GossipForward,
        MessageKind::PollReply,
        MessageKind::AggregationPush,
        MessageKind::AggregationPull,
        MessageKind::Control,
    ];

    #[inline]
    fn slot(self) -> usize {
        match self {
            MessageKind::WalkStep => 0,
            MessageKind::SampleReply => 1,
            MessageKind::GossipForward => 2,
            MessageKind::PollReply => 3,
            MessageKind::AggregationPush => 4,
            MessageKind::AggregationPull => 5,
            MessageKind::Control => 6,
        }
    }
}

impl fmt::Display for MessageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageKind::WalkStep => "walk-step",
            MessageKind::SampleReply => "sample-reply",
            MessageKind::GossipForward => "gossip-forward",
            MessageKind::PollReply => "poll-reply",
            MessageKind::AggregationPush => "aggregation-push",
            MessageKind::AggregationPull => "aggregation-pull",
            MessageKind::Control => "control",
        };
        f.write_str(s)
    }
}

/// Per-kind message tallies for one simulation (or one estimation run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageCounter {
    counts: [u64; 7],
}

impl MessageCounter {
    /// A fresh, all-zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one message of `kind`.
    #[inline]
    pub fn count(&mut self, kind: MessageKind) {
        self.counts[kind.slot()] += 1;
    }

    /// Charges `n` messages of `kind` at once.
    #[inline]
    pub fn count_n(&mut self, kind: MessageKind, n: u64) {
        self.counts[kind.slot()] += n;
    }

    /// Messages recorded under `kind`.
    #[inline]
    pub fn get(&self, kind: MessageKind) -> u64 {
        self.counts[kind.slot()]
    }

    /// Total messages across all kinds — the paper's overhead metric.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Resets all tallies to zero.
    pub fn reset(&mut self) {
        self.counts = [0; 7];
    }

    /// Takes the current tallies, leaving zeros behind. Handy for per-run
    /// overhead accounting inside a longer simulation.
    pub fn take(&mut self) -> MessageCounter {
        std::mem::take(self)
    }

    /// Adds another counter's tallies into this one.
    pub fn merge(&mut self, other: &MessageCounter) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Iterates `(kind, count)` pairs with non-zero counts.
    pub fn non_zero(&self) -> impl Iterator<Item = (MessageKind, u64)> + '_ {
        MessageKind::ALL
            .iter()
            .map(move |&k| (k, self.get(k)))
            .filter(|&(_, c)| c > 0)
    }
}

impl fmt::Display for MessageCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} msgs", self.total())?;
        let mut first = true;
        for (k, c) in self.non_zero() {
            write!(f, "{}{k}={c}", if first { " (" } else { ", " })?;
            first = false;
        }
        if !first {
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_total() {
        let mut c = MessageCounter::new();
        c.count(MessageKind::WalkStep);
        c.count(MessageKind::WalkStep);
        c.count_n(MessageKind::SampleReply, 5);
        assert_eq!(c.get(MessageKind::WalkStep), 2);
        assert_eq!(c.get(MessageKind::SampleReply), 5);
        assert_eq!(c.get(MessageKind::PollReply), 0);
        assert_eq!(c.total(), 7);
    }

    #[test]
    fn take_leaves_zeroes() {
        let mut c = MessageCounter::new();
        c.count_n(MessageKind::GossipForward, 10);
        let snap = c.take();
        assert_eq!(snap.total(), 10);
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn merge_adds_per_kind() {
        let mut a = MessageCounter::new();
        a.count_n(MessageKind::AggregationPush, 3);
        let mut b = MessageCounter::new();
        b.count_n(MessageKind::AggregationPush, 4);
        b.count_n(MessageKind::AggregationPull, 4);
        a.merge(&b);
        assert_eq!(a.get(MessageKind::AggregationPush), 7);
        assert_eq!(a.get(MessageKind::AggregationPull), 4);
        assert_eq!(a.total(), 11);
    }

    #[test]
    fn non_zero_lists_only_used_kinds() {
        let mut c = MessageCounter::new();
        c.count(MessageKind::PollReply);
        let kinds: Vec<MessageKind> = c.non_zero().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec![MessageKind::PollReply]);
    }

    #[test]
    fn display_is_compact() {
        let mut c = MessageCounter::new();
        c.count_n(MessageKind::WalkStep, 2);
        assert_eq!(format!("{c}"), "2 msgs (walk-step=2)");
        assert_eq!(format!("{}", MessageCounter::new()), "0 msgs");
    }

    #[test]
    fn all_slots_are_distinct() {
        let mut c = MessageCounter::new();
        for k in MessageKind::ALL {
            c.count(k);
        }
        for k in MessageKind::ALL {
            assert_eq!(c.get(k), 1, "slot collision for {k}");
        }
    }
}
