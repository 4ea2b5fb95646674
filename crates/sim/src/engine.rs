//! The discrete-event engine: a hierarchical timing wheel over pooled
//! chunks.
//!
//! The original engine was a `BinaryHeap<Scheduled<E>>` paying an O(log n)
//! sift per push/pop plus a 16-byte tie-break key per entry. At the scales
//! the ROADMAP targets (million-node overlays, tens of millions of
//! in-flight events) that log factor and the heap's cache-hostile sift path
//! dominate the hot loop, so the queue is a hierarchical timing wheel —
//! the classic calendar-queue result (R. Brown, "Calendar queues: a fast
//! O(1) priority queue implementation", CACM 1988) in its
//! power-of-two-levels form: O(1) schedule, amortized O(1) pop, and events
//! that share a timestamp live in one FIFO bucket.
//!
//! # Geometry
//!
//! Level 0 is two rings of 4 096 one-tick slots each (12 bits): one for the
//! cursor's 4 096-tick window and one for the window after it. Above them
//! sit 9 levels of 64 slots (6 bits each; 12 + 54 ≥ 64 bits, the whole
//! `u64` tick range). An event due in the cursor's window or the next is
//! filed straight into its one-tick ring slot; a later one is filed at the
//! upper level of the highest digit in which it differs from the cursor,
//! and a higher-level bucket is re-filed one level down ("cascades") when
//! the cursor enters its window. When the current ring empties the next
//! one becomes current and the upper bucket holding the new next window is
//! pulled down into the freed ring, before anything else is scheduled
//! there. So any event due less than 4 096 ticks ahead — every hop the
//! network models draw (WAN: 15–250 ticks) — is written once, straight to
//! its slot, and read once, even across a window edge; only far-future
//! timers and step controls ever cascade.
//!
//! # Storage: what is in flight and nothing else
//!
//! A bucket owns no memory: it is a `{head, tail}` pair of indices into a
//! table of chunks. A chunk is a FIFO of at most `CHUNK` = 64 entries plus
//! the index of the next chunk in its bucket's chain; a chunk that empties
//! goes to its table's LIFO free list and is the first one refilled, while
//! its memory is still in cache. The store's footprint is therefore
//! `in-flight ÷ CHUNK` chunks plus at most one partial chunk per occupied
//! bucket — no bucket keeps a high-water capacity for the next lap of the
//! wheel, and a cascading bucket needs no scratch buffer: it is re-filed
//! chunk by chunk, each chunk freed as it empties. A chunk's own storage
//! grows on demand up to `CHUNK`, so a sparse timeline (one step control
//! per tick) costs a few entries per occupied tick, not a full chunk.
//!
//! There are two tables. A level-0 slot spans one tick, so its entries are
//! bare payloads: the slot is their timestamp. An upper-level slot spans
//! many ticks, so its entries keep their timestamp (a `Timed` payload) in
//! a table of their own with its own free list — a chunk never changes
//! entry type, so the level-0 table, where nearly every event lives,
//! stores 8 bytes less per event. Because no hop reaches the upper levels,
//! the two tables never both hold the in-flight population.
//!
//! # Determinism: FIFO among equal timestamps
//!
//! The old engine broke timestamp ties with a monotone sequence number.
//! The wheel preserves exactly that order *structurally*:
//!
//! * a level-0 slot spans exactly one tick, so all its entries share a
//!   timestamp and its chunk chain pops in insertion (= scheduling) order;
//! * higher-level buckets cascade down **when the cursor enters their
//!   window, or the window before it**, i.e. strictly before any
//!   later-scheduled event for the same window can be filed at a lower
//!   level — so cascaded (earlier-scheduled) entries always land ahead of
//!   direct (later-scheduled) ones;
//! * cascading walks a bucket's chain front to back, which is
//!   order-preserving.
//!
//! The `#[cfg(test)]` `oracle::HeapEngine` is the historic binary-heap
//! implementation kept verbatim as the dispatch-order oracle; randomized
//! tests here and the property test in `tests/prop_invariants.rs` replay
//! heavy-tie schedules against it.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Entries per chunk. Sizes from 32 to 256 measure the same; 64 keeps the
/// partial chunk per occupied bucket small beside the full ones.
const CHUNK: usize = 64;
/// Bits of level 0: 4 096 one-tick slots.
const L0_BITS: u32 = 12;
/// Slots of level 0.
const L0_SLOTS: usize = 1 << L0_BITS;
/// Words of level 0's occupancy bitmap (one summary word covers them).
const L0_WORDS: usize = L0_SLOTS / 64;
/// Bits per upper level: 64 slots each.
const LEVEL_BITS: u32 = 6;
/// Slots per upper level.
const LEVEL_SLOTS: usize = 1 << LEVEL_BITS;
/// Upper levels: 12 + 9 × 6 = 66 bits, covering the full `u64` tick range.
const UPPER_LEVELS: usize = 9;
/// The "no chunk" index.
const NIL: u32 = u32::MAX;

/// Counters the engine keeps about its own hot path, filled by
/// [`Engine::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Events dispatched (popped) so far.
    pub dispatched: u64,
    /// Largest number of simultaneously pending events observed.
    pub peak_depth: usize,
    /// Scheduled events whose storage allocated nothing: they went into a
    /// chunk the store already had.
    pub pool_hits: u64,
    /// Chunks the store has allocated (its two chunk tables only grow, one
    /// chunk per entry that found no room): `pool_allocs × 64 ×
    /// size_of::<entry>` bounds the store's footprint.
    pub pool_allocs: u64,
}

impl EngineStats {
    /// Share of scheduled events that allocated nothing: `hits / (hits +
    /// allocs)`, or 1.0 for an engine that never stored an event. Once the
    /// chunk tables cover the in-flight plateau this approaches 1.0 — the
    /// "zero allocations per event at steady state" property.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_allocs;
        if total == 0 {
            1.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Folds another engine's counters into this one — the sharded runner's
    /// whole-run totals, accumulated in shard-index order. `peak_depth` is
    /// summed, not maxed: the shards' wheels are live simultaneously, so the
    /// sum bounds the run's true peak pending population (and matches how
    /// the cluster merge sums per-shard gauges).
    pub fn merge_from(&mut self, other: &EngineStats) {
        self.dispatched += other.dispatched;
        self.peak_depth += other.peak_depth;
        self.pool_hits += other.pool_hits;
        self.pool_allocs += other.pool_allocs;
    }
}

/// An upper-level entry: the payload and its timestamp, which the
/// upper-level slot (spanning many ticks) does not give.
struct Timed<E> {
    time: u64,
    payload: E,
}

/// A FIFO of at most [`CHUNK`] entries and the link to the next chunk of
/// the same bucket (or of the free list). A chunk linked into a bucket is
/// never empty.
struct Chunk<T> {
    items: VecDeque<T>,
    next: u32,
}

/// A table of chunks and the head of its LIFO list of empty ones, threaded
/// through `next`. Buckets index into it.
struct ChunkTable<T> {
    chunks: Vec<Chunk<T>>,
    free: u32,
}

impl<T> ChunkTable<T> {
    const fn new() -> Self {
        ChunkTable {
            chunks: Vec::new(),
            free: NIL,
        }
    }

    /// The FIFO of `chunk`.
    #[inline]
    fn items(&mut self, chunk: u32) -> &mut VecDeque<T> {
        &mut self.chunks[chunk as usize].items
    }

    /// Takes an empty chunk: the most recently freed one, else a new one.
    #[inline]
    fn take(&mut self) -> u32 {
        if self.free != NIL {
            let chunk = self.free;
            self.free = std::mem::replace(&mut self.chunks[chunk as usize].next, NIL);
            return chunk;
        }
        assert!(
            self.chunks.len() < NIL as usize,
            "chunk table overflows u32"
        );
        let chunk = self.chunks.len() as u32;
        self.chunks.push(Chunk {
            items: VecDeque::new(),
            next: NIL,
        });
        chunk
    }

    /// Returns an emptied chunk to the head of the free list.
    #[inline]
    fn release(&mut self, chunk: u32) {
        debug_assert!(self.chunks[chunk as usize].items.is_empty());
        self.chunks[chunk as usize].next = self.free;
        self.free = chunk;
    }

    /// Appends `item` to `bucket`'s chain: into its tail chunk while that
    /// has room, else into a chunk linked behind it.
    #[inline]
    fn push(&mut self, bucket: &mut Bucket, item: T) {
        let tail = bucket.tail;
        let chunk = if tail != NIL && self.chunks[tail as usize].items.len() < CHUNK {
            tail
        } else {
            let chunk = self.take();
            if tail == NIL {
                bucket.head = chunk;
            } else {
                self.chunks[tail as usize].next = chunk;
            }
            bucket.tail = chunk;
            chunk
        };
        self.chunks[chunk as usize].items.push_back(item);
    }

    /// Unlinks and frees `bucket`'s emptied head chunk. Returns whether the
    /// bucket is now empty.
    #[inline]
    fn release_head(&mut self, bucket: &mut Bucket) -> bool {
        let head = bucket.head;
        let next = self.chunks[head as usize].next;
        self.release(head);
        bucket.head = next;
        if next == NIL {
            bucket.tail = NIL;
        }
        next == NIL
    }

    /// Empties every chunk and puts them all on the free list, lowest
    /// index first out.
    fn clear(&mut self) {
        self.free = NIL;
        for chunk in (0..self.chunks.len() as u32).rev() {
            self.chunks[chunk as usize].items.clear();
            self.release(chunk);
        }
    }
}

/// A wheel slot: the ends of its chain of chunks, `NIL` when empty.
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// A minimal discrete-event simulator core.
///
/// `Engine` owns the clock and the pending-event queue; domain state (the
/// overlay, protocol state machines) lives outside and is borrowed by the
/// handler on each dispatch. This inversion keeps the engine reusable for any
/// payload type and avoids `dyn` dispatch in the hot loop.
///
/// ```
/// use p2p_sim::{Engine, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_in(10, "b");
/// engine.schedule_in(5, "a");
/// let mut order = Vec::new();
/// while let Some((t, ev)) = engine.pop() {
///     order.push((t.ticks(), ev));
/// }
/// assert_eq!(order, vec![(5, "a"), (10, "b")]);
/// ```
pub struct Engine<E> {
    /// Level 0's two rings of `L0_SLOTS` one-tick buckets, then
    /// `UPPER_LEVELS × LEVEL_SLOTS` buckets whose slots span `4096 ×
    /// 64^level` ticks.
    buckets: Vec<Bucket>,
    /// The chunks level 0's buckets chain: bare payloads.
    level0: ChunkTable<E>,
    /// The chunks the upper levels' buckets chain: timestamped payloads.
    upper: ChunkTable<Timed<E>>,
    /// Which ring holds the cursor's window (the other holds the next).
    cur: usize,
    /// Each ring's occupancy: a set bit means the slot's bucket is
    /// non-empty, and a set summary bit means the word is non-zero, so
    /// "earliest pending slot" is two `trailing_zeros`.
    l0_occupied: [[u64; L0_WORDS]; 2],
    l0_summary: [u64; 2],
    /// One occupancy word per upper level.
    upper_occupied: [u64; UPPER_LEVELS],
    len: usize,
    /// The wheel cursor: the start of the current ring's window, so a
    /// multiple of `L0_SLOTS`. Invariant: `cursor ≤ now ≤ every pending
    /// timestamp`, every upper-level entry lies beyond the next ring's
    /// window, and it is filed by the highest 6-bit digit in which it
    /// differs from `cursor` — so bitmap minima are true minima.
    cursor: u64,
    now: SimTime,
    scheduled: u64,
    dispatched: u64,
    peak_depth: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new() -> Self {
        Engine {
            buckets: vec![Bucket::EMPTY; 2 * L0_SLOTS + UPPER_LEVELS * LEVEL_SLOTS],
            level0: ChunkTable::new(),
            upper: ChunkTable::new(),
            cur: 0,
            l0_occupied: [[0; L0_WORDS]; 2],
            l0_summary: [0; 2],
            upper_occupied: [0; UPPER_LEVELS],
            len: 0,
            cursor: 0,
            now: SimTime::ZERO,
            scheduled: 0,
            dispatched: 0,
            peak_depth: 0,
        }
    }

    /// Current virtual time (the timestamp of the last dispatched event).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hot-path counters: events dispatched, peak depth, and how many of the
    /// events scheduled so far were stored without growing the chunk tables
    /// (see [`EngineStats::pool_hit_rate`]).
    pub fn stats(&self) -> EngineStats {
        // Each table holds at most one chunk per entry it stored at its
        // peak, so the sum can exceed the events scheduled only on a
        // near-empty wheel (a lone far-future event takes one chunk in each
        // table); `pool_hits` floors at zero there.
        let pool_allocs = (self.level0.chunks.len() + self.upper.chunks.len()) as u64;
        EngineStats {
            dispatched: self.dispatched,
            peak_depth: self.peak_depth,
            pool_hits: self.scheduled.saturating_sub(pool_allocs),
            pool_allocs,
        }
    }

    /// The upper level and slot that file `time` for the current cursor:
    /// the level of the highest 6-bit digit above level 0's 12 bits in
    /// which they differ. Only meaningful for a `time` beyond the cursor's
    /// window.
    #[inline]
    fn upper_slot(&self, time: u64) -> (usize, usize) {
        let diff = time ^ self.cursor;
        let level = (63 - diff.leading_zeros() - L0_BITS) / LEVEL_BITS;
        let slot = (time >> (L0_BITS + LEVEL_BITS * level)) & (LEVEL_SLOTS as u64 - 1);
        (level as usize, slot as usize)
    }

    /// Files a payload: in the current or the next ring when `time` lies
    /// in the cursor's window or the one after it, else at its upper
    /// level/slot.
    #[inline]
    fn insert(&mut self, time: u64, payload: E) {
        debug_assert!(time >= self.cursor);
        let ahead = (time >> L0_BITS) - (self.cursor >> L0_BITS);
        if ahead < 2 {
            let ring = self.cur ^ ahead as usize;
            let slot = (time & (L0_SLOTS as u64 - 1)) as usize;
            self.l0_occupied[ring][slot / 64] |= 1 << (slot % 64);
            self.l0_summary[ring] |= 1 << (slot / 64);
            self.level0
                .push(&mut self.buckets[ring * L0_SLOTS + slot], payload);
        } else {
            let (level, slot) = self.upper_slot(time);
            self.upper_occupied[level] |= 1 << slot;
            let bucket = &mut self.buckets[2 * L0_SLOTS + level * LEVEL_SLOTS + slot];
            self.upper.push(bucket, Timed { time, payload });
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    /// Panics when scheduling in the past — that would silently corrupt
    /// causality.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        self.insert(time.0, payload);
        self.scheduled += 1;
        self.len += 1;
        self.peak_depth = self.peak_depth.max(self.len);
    }

    /// Schedules `payload` `delay` ticks from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: u64, payload: E) {
        self.schedule_at(self.now + delay, payload);
    }

    /// The earliest occupied upper-level bucket, as `(level, slot)`. Only
    /// meaningful when both rings are empty and events are pending.
    #[inline]
    fn first_upper(&self) -> (usize, usize) {
        let level = (0..UPPER_LEVELS)
            .find(|&l| self.upper_occupied[l] != 0)
            .expect("pending events beyond level 0");
        (level, self.upper_occupied[level].trailing_zeros() as usize)
    }

    /// Takes upper bucket `(level, slot)`'s chain and files every entry
    /// again for the current cursor. Front-to-back re-filing preserves
    /// scheduling order within every destination bucket — the FIFO
    /// tie-break guarantee.
    fn refile(&mut self, level: usize, slot: usize) {
        if self.upper_occupied[level] & (1 << slot) == 0 {
            return;
        }
        self.upper_occupied[level] &= !(1u64 << slot);
        let bucket = 2 * L0_SLOTS + level * LEVEL_SLOTS + slot;
        let mut chunk = std::mem::replace(&mut self.buckets[bucket], Bucket::EMPTY).head;
        while chunk != NIL {
            let next = self.upper.chunks[chunk as usize].next;
            let n = self.upper.items(chunk).len();
            for i in 0..n {
                let e = self.upper.items(chunk).pop_front().expect("counted entry");
                // Freed before its last entry is re-filed, so an entry that
                // stays in the upper levels can take it.
                if i + 1 == n {
                    self.upper.release(chunk);
                }
                self.insert(e.time, e.payload);
            }
            chunk = next;
        }
    }

    /// Moves the next ring's window's entries out of the upper levels into
    /// the next ring, so that ring holds its window whole before anything
    /// else is scheduled there. Called whenever the cursor moves.
    fn pull_next_window(&mut self) {
        if let Some(next) = self.cursor.checked_add(L0_SLOTS as u64) {
            let (level, slot) = self.upper_slot(next);
            self.refile(level, slot);
        }
    }

    /// Makes the next ring current, one window on. The upper bucket whose
    /// span (for the old cursor) holds the new window carries later windows
    /// of that span too, which the new cursor files lower: it is re-filed.
    fn advance_ring(&mut self) {
        let next = self.cursor + L0_SLOTS as u64;
        let (level, slot) = self.upper_slot(next);
        self.cursor = next;
        self.cur ^= 1;
        self.refile(level, slot);
        self.pull_next_window();
    }

    /// Moves the earliest occupied upper-level bucket down, advancing the
    /// cursor to that bucket's window start. Called only when both rings
    /// are empty and events are pending.
    fn cascade(&mut self) {
        let (level, slot) = self.first_upper();
        let shift = L0_BITS + LEVEL_BITS * level as u32;
        // Everything below this level's digit is zeroed; the digit becomes
        // `slot`. Guard the shift: the top level's window mask covers the
        // word.
        let low_mask = if shift + LEVEL_BITS >= 64 {
            u64::MAX
        } else {
            (1u64 << (shift + LEVEL_BITS)) - 1
        };
        let window_start = (self.cursor & !low_mask) | ((slot as u64) << shift);
        debug_assert!(window_start >= self.cursor);
        self.cursor = window_start;
        self.refile(level, slot);
        self.pull_next_window();
    }

    /// The earliest occupied slot of `ring` as a bucket index, and the one
    /// tick it holds. Only meaningful when the ring is occupied.
    #[inline]
    fn first_in_ring(&self, ring: usize) -> (usize, u64) {
        let word = self.l0_summary[ring].trailing_zeros() as usize;
        let slot = word * 64 + self.l0_occupied[ring][word].trailing_zeros() as usize;
        let window = if ring == self.cur {
            self.cursor
        } else {
            self.cursor + L0_SLOTS as u64
        };
        (ring * L0_SLOTS + slot, window | slot as u64)
    }

    /// The earliest pending level-0 bucket and its tick, after moving the
    /// rings and cascading upper levels down until the current ring is
    /// occupied; `None` when the queue is empty.
    #[inline]
    fn front_slot(&mut self) -> Option<(usize, u64)> {
        if self.len == 0 {
            return None;
        }
        while self.l0_summary[self.cur] == 0 {
            if self.l0_summary[self.cur ^ 1] != 0 {
                self.advance_ring();
            } else {
                self.cascade();
            }
        }
        Some(self.first_in_ring(self.cur))
    }

    /// Unlinks and frees level-0 `bucket`'s emptied head chunk, clearing
    /// its occupancy bit when that was its last. Returns whether the
    /// bucket is now empty.
    #[inline]
    fn release_l0_head(&mut self, bucket: usize) -> bool {
        if !self.level0.release_head(&mut self.buckets[bucket]) {
            return false;
        }
        let (ring, slot) = (bucket / L0_SLOTS, bucket % L0_SLOTS);
        let word = slot / 64;
        self.l0_occupied[ring][word] &= !(1u64 << (slot % 64));
        if self.l0_occupied[ring][word] == 0 {
            self.l0_summary[ring] &= !(1u64 << word);
        }
        true
    }

    /// Advances the clock to `time` after `n` events at it were taken.
    #[inline]
    fn dispatch(&mut self, time: u64, n: usize) -> SimTime {
        self.len -= n;
        self.dispatched += n as u64;
        debug_assert!(time >= self.now.0);
        self.now = SimTime(time);
        self.now
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (bucket, time) = self.front_slot()?;
        let items = self.level0.items(self.buckets[bucket].head);
        let payload = items.pop_front().expect("a linked chunk holds an entry");
        if items.is_empty() {
            self.release_l0_head(bucket);
        }
        Some((self.dispatch(time, 1), payload))
    }

    /// Drains up to `max` events from the earliest level-0 bucket into
    /// `out` (cleared first), advancing the clock to their shared
    /// timestamp. Returns that timestamp, or `None` when the queue is
    /// empty. Batch dispatch: one bitmap probe and one walk of the bucket's
    /// chunks replace `out.len()` single-pop round trips.
    ///
    /// Order is bit-for-bit what repeated [`pop`](Self::pop) calls produce:
    /// a level-0 slot spans exactly one tick, so every drained event shares
    /// one timestamp and comes out in scheduling order, and anything a
    /// handler schedules *for the same tick* mid-batch lands behind the
    /// entries still queued in the bucket, to be drained by a later call.
    /// The cap bounds the transient batch buffer on dense ticks (a
    /// million-node round can share one tick); remaining entries keep the
    /// bucket's occupancy bit set.
    pub fn pop_bucket(&mut self, out: &mut Vec<E>, max: usize) -> Option<SimTime> {
        self.pop_bucket_map(out, max, |e| e)
    }

    /// [`pop_bucket`](Self::pop_bucket) that passes each event through `f`
    /// as it leaves its chunk, so a caller that wants another form of the
    /// event writes that form straight into `out`: one copy from the wheel
    /// to the batch. `f` runs once per event, in dispatch order.
    pub fn pop_bucket_map<T>(
        &mut self,
        out: &mut Vec<T>,
        max: usize,
        mut f: impl FnMut(E) -> T,
    ) -> Option<SimTime> {
        out.clear();
        let (bucket, time) = self.front_slot()?;
        let max = max.max(1);
        loop {
            let items = self.level0.items(self.buckets[bucket].head);
            let n = items.len().min(max - out.len());
            out.extend(items.drain(..n).map(&mut f));
            if !items.is_empty() || self.release_l0_head(bucket) || out.len() == max {
                break;
            }
        }
        Some(self.dispatch(time, out.len()))
    }

    /// Peeks at the timestamp of the next event without dispatching it.
    ///
    /// Never moves the cursor (so a caller may still schedule events
    /// earlier than the peeked time, as long as they are not in the past):
    /// when both rings are empty the earliest upper-level bucket is scanned
    /// for its minimum instead of cascaded.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        for ring in [self.cur, self.cur ^ 1] {
            if self.l0_summary[ring] != 0 {
                return Some(SimTime(self.first_in_ring(ring).1));
            }
        }
        let (level, slot) = self.first_upper();
        let mut chunk = self.buckets[2 * L0_SLOTS + level * LEVEL_SLOTS + slot].head;
        let mut min = u64::MAX;
        while chunk != NIL {
            let c = &self.upper.chunks[chunk as usize];
            min = c.items.iter().fold(min, |m, e| m.min(e.time));
            chunk = c.next;
        }
        Some(SimTime(min))
    }

    /// Drains every pending event through `handler`. The handler may schedule
    /// further events.
    pub fn run<F: FnMut(&mut Self, SimTime, E)>(&mut self, mut handler: F) {
        while let Some((t, payload)) = self.pop() {
            handler(self, t, payload);
        }
    }

    /// Runs events with `time <= horizon`, leaving later events queued. The
    /// clock ends at `horizon`.
    pub fn run_until<F: FnMut(&mut Self, SimTime, E)>(&mut self, horizon: SimTime, mut handler: F) {
        while let Some(t) = self.peek_time() {
            if t > horizon {
                break;
            }
            let (t, payload) = self.pop().expect("peeked event exists");
            handler(self, t, payload);
        }
        self.now = self.now.max(horizon);
    }

    /// Advances the clock to `t` without dispatching anything. Used by
    /// drivers that process events up to a horizon and then need the clock
    /// parked at that horizon (e.g. the network facade's step windows).
    ///
    /// # Panics
    /// Panics if an event earlier than `t` is still pending — advancing past
    /// it would silently reorder the timeline.
    pub fn advance_to(&mut self, t: SimTime) {
        if let Some(next) = self.peek_time() {
            assert!(
                next >= t,
                "cannot advance to {t} past a pending event at {next}"
            );
        }
        self.now = self.now.max(t);
    }

    /// Discards all pending events (the clock is unchanged). Every chunk
    /// goes back to the free list, so a reused engine refills the storage
    /// it already has.
    pub fn clear(&mut self) {
        self.level0.clear();
        self.upper.clear();
        self.buckets.fill(Bucket::EMPTY);
        self.l0_occupied = [[0; L0_WORDS]; 2];
        self.l0_summary = [0; 2];
        self.upper_occupied = [0; UPPER_LEVELS];
        self.len = 0;
    }
}

/// The historic binary-heap engine, kept verbatim as the dispatch-order
/// oracle for the timing wheel. Test-only: production code must go through
/// [`Engine`].
#[cfg(test)]
pub mod oracle {
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Scheduled<E> {
        time: SimTime,
        /// Tie-breaker guaranteeing FIFO order among same-time events.
        seq: u64,
        payload: E,
    }

    impl<E> PartialEq for Scheduled<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Scheduled<E> {}
    impl<E> PartialOrd for Scheduled<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Scheduled<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we want the earliest event.
            (other.time, other.seq).cmp(&(self.time, self.seq))
        }
    }

    /// The pre-wheel engine: `BinaryHeap` + monotone sequence tie-break.
    pub struct HeapEngine<E> {
        queue: BinaryHeap<Scheduled<E>>,
        now: SimTime,
        seq: u64,
    }

    impl<E> Default for HeapEngine<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEngine<E> {
        pub fn new() -> Self {
            HeapEngine {
                queue: BinaryHeap::new(),
                now: SimTime::ZERO,
                seq: 0,
            }
        }

        pub fn schedule_at(&mut self, time: SimTime, payload: E) {
            assert!(time >= self.now, "cannot schedule into the past");
            self.queue.push(Scheduled {
                time,
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let ev = self.queue.pop()?;
            self.now = ev.time;
            Some((ev.time, ev.payload))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_among_simultaneous_events() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..10 {
            e.schedule_at(SimTime(7), i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| e.pop().map(|(_, p)| p)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut e: Engine<u64> = Engine::new();
        e.schedule_in(1, 1);
        let mut fired = Vec::new();
        e.run(|e, t, depth| {
            fired.push((t.ticks(), depth));
            if depth < 4 {
                e.schedule_in(depth, depth + 1);
            }
        });
        assert_eq!(fired, vec![(1, 1), (2, 2), (4, 3), (7, 4)]);
        assert_eq!(e.now().ticks(), 7);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_in(5, "early");
        e.schedule_in(50, "late");
        let mut seen = Vec::new();
        e.run_until(SimTime(10), |_, _, p| seen.push(p));
        assert_eq!(seen, vec!["early"]);
        assert_eq!(e.len(), 1);
        assert_eq!(e.now(), SimTime(10));
        e.run(|_, _, p| seen.push(p));
        assert_eq!(seen, vec!["early", "late"]);
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_in(10, ());
        e.pop();
        e.schedule_at(SimTime(3), ());
    }

    #[test]
    fn clock_is_monotone() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_in(3, 0);
        e.schedule_in(3, 1);
        e.schedule_in(9, 2);
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = e.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        // Delays spanning several wheel levels, including the top one.
        let mut e: Engine<usize> = Engine::new();
        let times = [
            0u64,
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            1 << 20,
            (1 << 40) + 17,
            u64::MAX / 2,
            u64::MAX - 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime(t), i);
        }
        let mut sorted: Vec<(u64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        sorted.sort();
        let got: Vec<(u64, usize)> =
            std::iter::from_fn(|| e.pop().map(|(t, p)| (t.ticks(), p))).collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn peek_does_not_disturb_dispatch_or_insertion() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime(5_000), 1);
        assert_eq!(e.peek_time(), Some(SimTime(5_000)));
        // Peeking must not advance the cursor: an earlier event scheduled
        // after the peek still dispatches first.
        e.schedule_at(SimTime(10), 0);
        assert_eq!(e.peek_time(), Some(SimTime(10)));
        assert_eq!(e.pop(), Some((SimTime(10), 0)));
        assert_eq!(e.pop(), Some((SimTime(5_000), 1)));
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn stats_track_dispatch_and_peak_depth() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..5 {
            e.schedule_in(i, 0);
        }
        assert_eq!(e.stats().peak_depth, 5);
        e.pop();
        e.pop();
        e.schedule_in(1, 1);
        let s = e.stats();
        assert_eq!(s.dispatched, 2);
        assert_eq!(s.peak_depth, 5, "peak is a high-water mark");
        // Six events were stored, in chunks the store had to allocate: at
        // least one, at most one per event in flight at the peak.
        assert_eq!(s.pool_hits + s.pool_allocs, 6);
        assert!((1..=5).contains(&s.pool_allocs), "{} chunks", s.pool_allocs);
        let idle: Engine<u8> = Engine::new();
        assert_eq!(idle.stats().pool_allocs, 0);
        assert!((idle.stats().pool_hit_rate() - 1.0).abs() < f64::EPSILON);
        // A cascade re-files into the chunk it frees: a lone far-future
        // event crosses every upper level in the one upper chunk it was
        // stored in, then takes one level-0 chunk.
        let mut far: Engine<u8> = Engine::new();
        far.schedule_at(SimTime(1 << 40), 0);
        assert_eq!(far.pop(), Some((SimTime(1 << 40), 0)));
        assert_eq!(far.stats().pool_allocs, 2);
    }

    #[test]
    fn clear_empties_the_wheel() {
        let mut e: Engine<u8> = Engine::new();
        for t in [1u64, 100, 10_000, 1 << 30] {
            e.schedule_at(SimTime(t), 0);
        }
        e.clear();
        assert!(e.is_empty());
        assert_eq!(e.pop(), None);
        e.schedule_in(3, 7);
        assert_eq!(e.pop(), Some((SimTime(3), 7)));
    }

    /// The exact-cap partial-drain edge: a drain of precisely `cap` events
    /// empties the bucket (clearing its occupancy bit), and a same-tick
    /// schedule right after must re-set the bit and pop next in FIFO order;
    /// with `cap + 1` events the remnant keeps the bit set and a mid-batch
    /// same-tick schedule lands behind it.
    #[test]
    fn pop_bucket_exact_cap_keeps_fifo_and_occupancy() {
        let cap = 8usize;
        let mut e: Engine<u32> = Engine::new();
        for i in 0..cap as u32 {
            e.schedule_at(SimTime(5), i);
        }
        let mut batch = Vec::new();
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(5)));
        assert_eq!(batch, (0..cap as u32).collect::<Vec<_>>());
        assert!(e.is_empty(), "exact-cap drain must empty the bucket");
        // A handler scheduling back into the drained tick: the cleared
        // occupancy bit must come back or these events are lost.
        e.schedule_at(SimTime(5), 100);
        e.schedule_at(SimTime(5), 101);
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(5)));
        assert_eq!(batch, vec![100, 101]);
        assert_eq!(e.pop_bucket(&mut batch, cap), None);

        // cap + 1: the partial drain leaves a remnant (bit stays set); a
        // same-tick mid-batch schedule queues behind it, FIFO.
        let mut e: Engine<u32> = Engine::new();
        for i in 0..(cap as u32 + 1) {
            e.schedule_at(SimTime(9), i);
        }
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(9)));
        assert_eq!(batch.len(), cap);
        e.schedule_at(SimTime(9), 200);
        assert_eq!(e.pop_bucket(&mut batch, cap), Some(SimTime(9)));
        assert_eq!(
            batch,
            vec![cap as u32, 200],
            "remnant first, then the follow-up"
        );
    }

    #[test]
    fn engine_stats_merge_sums_all_fields() {
        let a = EngineStats {
            dispatched: 10,
            peak_depth: 4,
            pool_hits: 7,
            pool_allocs: 3,
        };
        let mut total = EngineStats::default();
        total.merge_from(&a);
        total.merge_from(&EngineStats {
            dispatched: 5,
            peak_depth: 6,
            pool_hits: 1,
            pool_allocs: 0,
        });
        assert_eq!(total.dispatched, 15);
        assert_eq!(total.peak_depth, 10);
        assert_eq!(total.pool_hits, 8);
        assert_eq!(total.pool_allocs, 3);
    }

    /// Hand-rolled xorshift so these tests have no rand dependency.
    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// A timestamp ≥ `now` for the oracle replays: mostly ties, some near
    /// future, some far cascades, one tick either side of the next window
    /// edge of a random level (4 095 / 4 096 / 4 097, 2^18 ± 1, … 2^60 ± 1
    /// on a fresh engine) and the top of the tick range.
    fn oracle_time(rng: &mut impl FnMut() -> u64, now: u64) -> u64 {
        let delay = match rng() % 20 {
            0..=9 => rng() % 3,
            10..=13 => rng() % 1_000,
            14 | 15 => rng() % (1 << 40),
            16..=18 => {
                let shift = L0_BITS + LEVEL_BITS * (rng() % UPPER_LEVELS as u64) as u32;
                let edge = ((now >> shift) as u128 + 1) << shift;
                return (edge - 1 + (rng() % 3) as u128).min(u64::MAX as u128) as u64;
            }
            _ => return now.max(u64::MAX - 1),
        };
        now.saturating_add(delay)
    }

    /// One scheduling step of the oracle replays, mirrored into the heap:
    /// usually one event, sometimes more than two chunks' worth on one tick.
    fn oracle_schedule(
        rng: &mut impl FnMut() -> u64,
        wheel: &mut Engine<u64>,
        heap: &mut oracle::HeapEngine<u64>,
        id: &mut u64,
    ) {
        let t = SimTime(oracle_time(rng, wheel.now().0));
        let burst = match rng() % 16 {
            0 => 2 * CHUNK as u64 + 1 + rng() % CHUNK as u64,
            _ => 1,
        };
        for _ in 0..burst {
            wheel.schedule_at(t, *id);
            heap.schedule_at(t, *id);
            *id += 1;
        }
    }

    /// Replays a random schedule with heavy timestamp ties against the
    /// historic binary-heap oracle, interleaving pops with schedules the
    /// way handlers do — then clears the wheel mid-run and replays a second
    /// schedule, to the last event, on the chunks and cursor the first one
    /// left behind.
    #[test]
    fn matches_the_heap_oracle_on_tie_heavy_schedules() {
        use oracle::HeapEngine;
        let mut rng = xorshift(0x2545_F491_4F6C_DD1D);
        for _round in 0..20 {
            let mut wheel: Engine<u64> = Engine::new();
            let mut id = 0u64;
            for reused in [false, true] {
                let mut heap: HeapEngine<u64> = HeapEngine::new();
                for _ in 0..400 {
                    // 70% schedule, 30% pop.
                    if rng() % 10 < 7 || wheel.is_empty() {
                        oracle_schedule(&mut rng, &mut wheel, &mut heap, &mut id);
                    } else {
                        assert_eq!(wheel.pop(), heap.pop());
                    }
                }
                if !reused {
                    let chunks = wheel.stats().pool_allocs;
                    wheel.clear();
                    assert_eq!((wheel.len(), wheel.peek_time()), (0, None));
                    assert_eq!(wheel.stats().pool_allocs, chunks, "chunks survive");
                    continue;
                }
                loop {
                    let (a, b) = (wheel.pop(), heap.pop());
                    assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }

    /// The batched drain must reproduce the singly-popped oracle order on
    /// tie-heavy schedules, across every batch cap — caps smaller than the
    /// bucket split one tick over several calls, caps that are not
    /// multiples of `CHUNK` end a partial drain mid-chunk — with same-tick
    /// events scheduled behind the remnant and single `pop`s (what
    /// `crates/node` uses) interleaved.
    #[test]
    fn pop_bucket_matches_single_pop_oracle_order() {
        use oracle::HeapEngine;
        let mut rng = xorshift(0x9E37_79B9_7F4A_7C15);
        for &cap in &[1usize, 2, 3, 7, 63, 64, 65, 100, 4096] {
            let mut wheel: Engine<u64> = Engine::new();
            let mut heap: HeapEngine<u64> = HeapEngine::new();
            let mut id = 0u64;
            let mut batch: Vec<u64> = Vec::new();
            for _ in 0..300 {
                match rng() % 10 {
                    _ if wheel.is_empty() => {
                        oracle_schedule(&mut rng, &mut wheel, &mut heap, &mut id)
                    }
                    0..=5 => oracle_schedule(&mut rng, &mut wheel, &mut heap, &mut id),
                    6 => assert_eq!(wheel.pop(), heap.pop(), "cap {cap}"),
                    _ => {
                        let t = wheel.pop_bucket(&mut batch, cap).expect("not empty");
                        assert!(batch.len() <= cap);
                        for &p in &batch {
                            assert_eq!(heap.pop(), Some((t, p)), "cap {cap}");
                        }
                        // A handler scheduling into the current tick
                        // mid-batch must land behind everything already
                        // queued there.
                        if rng() & 1 == 0 {
                            wheel.schedule_at(t, id);
                            heap.schedule_at(t, id);
                            id += 1;
                        }
                    }
                }
            }
            loop {
                let t = wheel.pop_bucket(&mut batch, cap);
                if t.is_none() {
                    assert_eq!(heap.pop(), None);
                    break;
                }
                for &p in &batch {
                    assert_eq!(heap.pop(), Some((t.unwrap(), p)), "drain cap {cap}");
                }
            }
        }
    }

    /// A cascade into an empty level 0 also pulls the window after it down
    /// into the next ring: an event scheduled there later must pop behind
    /// the one that waited in the upper levels for the same tick.
    #[test]
    fn a_cascade_pulls_the_next_window_into_the_next_ring() {
        let window = L0_SLOTS as u64;
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime(3 * window + 5), "cascaded");
        e.schedule_at(SimTime(4 * window + 7), "waited");
        assert_eq!(e.pop(), Some((SimTime(3 * window + 5), "cascaded")));
        e.schedule_at(SimTime(4 * window + 7), "later");
        assert_eq!(e.pop(), Some((SimTime(4 * window + 7), "waited")));
        assert_eq!(e.pop(), Some((SimTime(4 * window + 7), "later")));
    }

    /// A steady stream of events due up to 10 000 ticks ahead — in the
    /// current ring, the next one and the upper level just beyond — with
    /// same-tick bursts, replayed against the heap oracle across dozens of
    /// window edges and several 64-window carries, where a ring advance
    /// re-files a higher-level bucket. No hop-sized delay may reach the
    /// upper table.
    #[test]
    fn matches_the_heap_oracle_across_ring_advances() {
        use oracle::HeapEngine;
        let mut rng = xorshift(0x6A09_E667_F3BC_C909);
        let mut wheel: Engine<u64> = Engine::new();
        let mut heap: HeapEngine<u64> = HeapEngine::new();
        let mut id = 0u64;
        let mut batch = Vec::new();
        // Far-future events stay in the upper levels throughout.
        for t in [1 << 30, 1 << 40, u64::MAX - 1] {
            wheel.schedule_at(SimTime(t), id);
            heap.schedule_at(SimTime(t), id);
            id += 1;
        }
        while wheel.now().0 < 5 << 17 {
            while wheel.len() < 303 {
                let burst = if rng().is_multiple_of(64) {
                    2 * CHUNK as u64 + 1
                } else {
                    1
                };
                let at = SimTime(wheel.now().0 + rng() % 10_000);
                for _ in 0..burst {
                    wheel.schedule_at(at, id);
                    heap.schedule_at(at, id);
                    id += 1;
                }
            }
            if rng().is_multiple_of(2) {
                assert_eq!(wheel.pop(), heap.pop());
            } else {
                let t = wheel.pop_bucket(&mut batch, 16).expect("not empty");
                for &p in &batch {
                    assert_eq!(heap.pop(), Some((t, p)));
                }
            }
        }
        while let Some(a) = wheel.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert_eq!(heap.pop(), None);

        let mut hops: Engine<u64> = Engine::new();
        for i in 0..100_000u64 {
            hops.schedule_in(1 + rng() % 4_095, i);
            if i >= 1_000 {
                hops.pop();
            }
        }
        assert!(
            hops.upper.chunks.is_empty(),
            "a hop reached the upper levels"
        );
    }

    /// The footprint invariant: the store holds what is in flight and
    /// nothing else. 100k events at WAN-like delays, then a million
    /// pop-and-reschedule cycles: the chunk table covers the in-flight
    /// population with at most a quarter to spare, and once it has seen
    /// every bucket of the cycle it stops growing. A wheel whose buckets
    /// keep their own capacity cannot meet either bound.
    #[test]
    fn footprint_tracks_the_in_flight_population() {
        const IN_FLIGHT: usize = 100_000;
        let mut rng = xorshift(0xD1B5_4A32_D192_ED03);
        let mut delay = move || 20 + rng() % 181;
        let mut e: Engine<u64> = Engine::new();
        for i in 0..IN_FLIGHT as u64 {
            e.schedule_in(delay(), i);
        }
        let mut batch = Vec::new();
        let mut cycle = |e: &mut Engine<u64>, events: usize| {
            let mut done = 0;
            while done < events {
                e.pop_bucket(&mut batch, 4096).expect("events in flight");
                for &p in &batch {
                    e.schedule_in(delay(), p);
                }
                done += batch.len();
            }
        };
        cycle(&mut e, IN_FLIGHT);
        let warm = e.stats().pool_allocs;
        cycle(&mut e, 900_000);
        let s = e.stats();
        assert_eq!(s.peak_depth, IN_FLIGHT);
        assert!(
            s.pool_allocs as usize * CHUNK * 4 <= s.peak_depth * 5,
            "{} chunks for {} events in flight",
            s.pool_allocs,
            s.peak_depth
        );
        assert!(
            (s.pool_allocs - warm) * 50 < warm,
            "chunk table still growing at steady state: {warm} → {}",
            s.pool_allocs
        );
        assert_eq!(s.pool_hits + s.pool_allocs, s.dispatched + e.len() as u64);
    }
}
