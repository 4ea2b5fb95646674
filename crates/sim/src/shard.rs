//! Cross-shard message exchange for the sharded parallel DES.
//!
//! The sharded runner partitions the node population across `K` shards
//! (slot `s` lives on shard `s % K`, the same rule `p2p-node` deploys
//! with), gives each shard its own timing wheel (in-flight messages included) and derived
//! RNG streams, and runs shards on worker threads that synchronize at
//! lookahead-window barriers. The conservative-execution argument is the
//! classic one: every cross-shard delivery resolves at least `L` =
//! [`NetworkModel::min_hop_ticks`](crate::NetworkModel::min_hop_ticks)
//! ticks after its send (the model's smallest hop; never below the 1 tick
//! [`Network::route_remote`](crate::Network::route_remote) clamps to), so
//! messages produced while executing the window `[T, T + L − 1]` can only
//! be due at `T + L` or later — each shard may therefore execute the whole
//! window without observing the others, and the buffered cross-shard
//! traffic is reconciled between windows.
//!
//! # The (source-shard-index, FIFO) merge order
//!
//! Determinism of the single-wheel engine rests on FIFO order among
//! same-tick events. The sharded engine extends that rule across the
//! exchange: when a destination shard ingests the round's buffered remote
//! messages, it enqueues them **grouped by source shard in ascending shard
//! index, preserving each source's send (FIFO) order** —
//! [`Inbox::drain`]. Because every shard ingests before executing its next
//! window, same-tick remote arrivals take a deterministic position in the
//! destination bucket regardless of which worker thread ran which shard
//! when. The result: a K-shard run is byte-identical across reruns *and*
//! across worker-thread counts — K itself is part of the result identity
//! (a 4-shard run is a different, equally valid realization than a 1-shard
//! run of the same seed).
//!
//! # Shapes
//!
//! * [`Outbox`] — a source shard's per-destination lanes, filled while the
//!   shard executes a window (single-threaded: only that shard's worker
//!   touches it).
//! * [`Inbox`] — a destination shard's per-source lanes for one round,
//!   drained in source-index order at the start of the next window.
//! * [`ExchangeGrid`] — the coordinator's scratch that moves lanes from
//!   outboxes to inboxes between parallel phases, one shard locked at a
//!   time, swapping `Vec`s so lane capacity circulates with zero
//!   steady-state allocation.

use crate::network::RemoteMsg;
use crate::time::SimTime;

/// A source shard's buffered cross-shard sends: one FIFO lane per
/// destination shard, plus the earliest delivery tick per lane so the
/// coordinator can compute the next barrier tick — and check that nothing
/// is due inside the window just executed — without scanning messages.
pub struct Outbox<M> {
    lanes: Vec<Vec<RemoteMsg<M>>>,
    mins: Vec<u64>,
}

impl<M> Outbox<M> {
    /// An empty outbox with one lane per shard.
    pub fn new(shards: usize) -> Self {
        Outbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
            mins: vec![u64::MAX; shards],
        }
    }

    /// Number of shards (= lanes).
    pub fn shards(&self) -> usize {
        self.lanes.len()
    }

    /// Buffers `m` toward `dst_shard`, in send (FIFO) order.
    pub fn push(&mut self, dst_shard: usize, m: RemoteMsg<M>) {
        self.mins[dst_shard] = self.mins[dst_shard].min(m.at.0);
        self.lanes[dst_shard].push(m);
    }

    /// Earliest delivery tick buffered across all lanes, if any.
    pub fn min_at(&self) -> Option<SimTime> {
        let m = self.mins.iter().copied().min().unwrap_or(u64::MAX);
        (m != u64::MAX).then_some(SimTime(m))
    }

    /// Whether no messages are buffered.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }
}

/// A destination shard's view of one exchange round: the lane each source
/// shard produced for it, ingested in ascending source-index order.
pub struct Inbox<M> {
    lanes: Vec<Vec<RemoteMsg<M>>>,
    min: u64,
}

impl<M> Inbox<M> {
    /// An empty inbox with one lane per shard.
    pub fn new(shards: usize) -> Self {
        Inbox {
            lanes: (0..shards).map(|_| Vec::new()).collect(),
            min: u64::MAX,
        }
    }

    /// Earliest delivery tick waiting to be ingested, if any. Part of the
    /// coordinator's next-barrier-tick minimum alongside each shard's wheel.
    pub fn min_at(&self) -> Option<SimTime> {
        (self.min != u64::MAX).then_some(SimTime(self.min))
    }

    /// Whether no messages are waiting.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(Vec::is_empty)
    }

    /// Drains the round's messages in **(source-shard-index, FIFO)** order —
    /// the sharded determinism contract. The destination shard calls this
    /// (feeding [`Network::enqueue_remote`](crate::Network::enqueue_remote))
    /// before executing its next window, so same-tick remote arrivals occupy
    /// a deterministic position in the destination bucket.
    pub fn drain(&mut self, mut f: impl FnMut(RemoteMsg<M>)) {
        for lane in &mut self.lanes {
            for m in lane.drain(..) {
                f(m);
            }
        }
        self.min = u64::MAX;
    }
}

/// The coordinator's scratch for one exchange: `K × K` cells moved from
/// outboxes (pass 1, [`collect`](Self::collect)) into inboxes (pass 2,
/// [`deliver`](Self::deliver)). Each pass touches one shard's state at a
/// time — the driver holds at most one shard lock — and every move is a
/// `Vec` swap, so lane capacity circulates outbox → grid → inbox → grid →
/// outbox with zero steady-state allocation.
pub struct ExchangeGrid<M> {
    shards: usize,
    /// Cell `s * shards + d`: shard `s`'s lane toward shard `d`, plus its
    /// min delivery tick. Empty between exchanges.
    cells: Vec<(Vec<RemoteMsg<M>>, u64)>,
}

impl<M> ExchangeGrid<M> {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> Self {
        ExchangeGrid {
            shards,
            cells: (0..shards * shards)
                .map(|_| (Vec::new(), u64::MAX))
                .collect(),
        }
    }

    /// Pass 1: takes every lane out of source shard `s`'s outbox, leaving
    /// it empty (with the grid's previously-empty vectors, capacity kept).
    pub fn collect(&mut self, s: usize, outbox: &mut Outbox<M>) {
        debug_assert_eq!(outbox.shards(), self.shards);
        for d in 0..self.shards {
            let cell = &mut self.cells[s * self.shards + d];
            debug_assert!(cell.0.is_empty(), "grid cell not delivered last round");
            std::mem::swap(&mut outbox.lanes[d], &mut cell.0);
            cell.1 = std::mem::replace(&mut outbox.mins[d], u64::MAX);
        }
    }

    /// Pass 2: installs every source's lane into destination shard `d`'s
    /// inbox (whose drained, empty lanes swap back into the grid).
    ///
    /// # Panics
    /// Debug-asserts the inbox was drained — an undrained lane would splice
    /// two rounds' FIFOs together and silently break the merge order.
    pub fn deliver(&mut self, d: usize, inbox: &mut Inbox<M>) {
        debug_assert_eq!(inbox.lanes.len(), self.shards);
        for s in 0..self.shards {
            let cell = &mut self.cells[s * self.shards + d];
            debug_assert!(inbox.lanes[s].is_empty(), "inbox lane not drained");
            std::mem::swap(&mut inbox.lanes[s], &mut cell.0);
            inbox.min = inbox.min.min(std::mem::replace(&mut cell.1, u64::MAX));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;

    fn msg(src_shard: usize, seq: u64, at: u64) -> RemoteMsg<(usize, u64)> {
        RemoteMsg {
            src: src_shard as u32,
            dst: 0,
            at: SimTime(at),
            kind: MessageKind::Control,
            msg: (src_shard, seq),
        }
    }

    /// One full exchange for `k` shards over a tie-heavy random schedule;
    /// the drained order at every destination must equal the single-queue
    /// oracle: a stable sort by delivery tick of the source-index-ordered
    /// concatenation — i.e. ties broken by (source shard, send FIFO).
    fn exchange_matches_oracle(k: usize, rng_seed: u64) {
        let mut state = rng_seed;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut outboxes: Vec<Outbox<(usize, u64)>> = (0..k).map(|_| Outbox::new(k)).collect();
        let mut inboxes: Vec<Inbox<(usize, u64)>> = (0..k).map(|_| Inbox::new(k)).collect();
        // Per-destination oracle: messages appended in (source, FIFO) order.
        let mut expected: Vec<Vec<(u64, (usize, u64))>> = vec![Vec::new(); k];
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            for seq in 0..200u64 {
                let d = (rng() % k as u64) as usize;
                let at = 1 + rng() % 3; // tie-heavy delivery ticks
                outbox.push(d, msg(s, seq, at));
                expected[d].push((at, (s, seq)));
            }
        }
        let mut grid = ExchangeGrid::new(k);
        for (s, outbox) in outboxes.iter_mut().enumerate() {
            grid.collect(s, outbox);
            assert!(outbox.is_empty());
            assert!(outbox.min_at().is_none());
        }
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            grid.deliver(d, inbox);
        }
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            let oracle = {
                let mut v = expected[d].clone();
                // Stable: equal ticks keep (source-index, FIFO) order.
                v.sort_by_key(|&(at, _)| at);
                v
            };
            assert_eq!(
                inbox.min_at().map(|t| t.0),
                oracle.iter().map(|&(at, _)| at).min(),
                "inbox min must be the earliest buffered tick"
            );
            // Drain in contract order, then dispatch through a wheel — the
            // wheel's FIFO tie-break turns enqueue order into the oracle's
            // stable (tick, source, seq) dispatch order.
            let mut wheel: crate::Engine<(usize, u64)> = crate::Engine::new();
            inbox.drain(|m| wheel.schedule_at(m.at, m.msg));
            assert!(inbox.is_empty());
            assert!(inbox.min_at().is_none());
            let got: Vec<(u64, (usize, u64))> =
                std::iter::from_fn(|| wheel.pop().map(|(t, p)| (t.0, p))).collect();
            assert_eq!(got, oracle, "k={k} dest={d}");
        }
    }

    #[test]
    fn exchange_matches_single_queue_oracle_for_k_2_3_4() {
        for (k, seed) in [(2, 0xDEAD_BEEF_u64), (3, 0x1234_5678), (4, 0x9E37_79B9)] {
            exchange_matches_oracle(k, seed);
        }
    }

    #[test]
    fn repeated_rounds_reuse_lanes_and_keep_fifo() {
        let k = 3;
        let mut outboxes: Vec<Outbox<(usize, u64)>> = (0..k).map(|_| Outbox::new(k)).collect();
        let mut inboxes: Vec<Inbox<(usize, u64)>> = (0..k).map(|_| Inbox::new(k)).collect();
        let mut grid = ExchangeGrid::new(k);
        for round in 0..5u64 {
            for (s, outbox) in outboxes.iter_mut().enumerate() {
                for seq in 0..4 {
                    outbox.push(1, msg(s, round * 10 + seq, round + 1));
                }
            }
            for (s, outbox) in outboxes.iter_mut().enumerate() {
                grid.collect(s, outbox);
            }
            for (d, inbox) in inboxes.iter_mut().enumerate() {
                grid.deliver(d, inbox);
            }
            let mut got = Vec::new();
            inboxes[1].drain(|m| got.push(m.msg));
            let expected: Vec<(usize, u64)> = (0..k)
                .flat_map(|s| (0..4).map(move |seq| (s, round * 10 + seq)))
                .collect();
            assert_eq!(got, expected, "round {round}");
            for inbox in &inboxes {
                assert!(inbox.is_empty());
            }
        }
    }

    #[test]
    fn outbox_tracks_min_across_lanes() {
        let mut o: Outbox<(usize, u64)> = Outbox::new(2);
        assert!(o.min_at().is_none());
        o.push(0, msg(0, 0, 9));
        o.push(1, msg(0, 1, 4));
        o.push(0, msg(0, 2, 7));
        assert_eq!(o.min_at(), Some(SimTime(4)));
    }
}
