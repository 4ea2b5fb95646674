//! The mutable overlay graph.

use crate::bitset::BitSet;
use crate::node::NodeId;
use rand::Rng;

/// Per-slot window into the shared edge arena.
///
/// `arena[offset .. offset + len]` holds the slot's neighbor list;
/// `arena[offset .. offset + cap]` is the region reserved for it. Entries
/// between `len` and `cap` are uninitialized slack, never read.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    offset: u32,
    len: u32,
    cap: u32,
}

/// An undirected, unstructured peer-to-peer overlay.
///
/// Nodes are dense `u32` slots. Each slot is either *alive* (participating in
/// the overlay) or *dead* (departed/failed). Dead slots keep their id so
/// that samples and traces recorded before a departure stay meaningful, but
/// they have no links and cannot be sampled.
///
/// # Adjacency storage (CSR arena)
///
/// Neighbor lists live in one shared arena (`Vec<NodeId>`) addressed by a
/// per-slot span — `u32` offset/len/cap, 12 bytes per slot instead of a
/// 24-byte `Vec` header plus a private heap block each. Appending past a
/// span's capacity relocates that one region to a region of ~1.5× the
/// capacity (the overflow path for churn-time insertions), except that an
/// arrival wired by [`wire_new_node`](crate::builder::wire_new_node), like
/// every node of a
/// [`HeterogeneousRandom`](crate::builder::HeterogeneousRandom) build, is
/// given its full-size region before its first link; removals swap with
/// the region's last entry exactly like `Vec::swap_remove`. A region a
/// relocation or a departure abandons goes onto a free list keyed by its
/// capacity, and the next relocation to that exact capacity takes it
/// before the arena tail grows. Abandoned regions (free-listed or too
/// large to list) accumulate as garbage until they outweigh the regions
/// slots hold, at which point [`compact_adjacency`](Self::compact_adjacency)
/// rebuilds the arena in slot order, exact-fit; every builder ends with
/// one such rebuild. The trigger is purely count based — never time- or
/// address-based — and neither relocation nor compaction reorders a
/// neighbor list, so iteration order is bit-for-bit the order the historic
/// `Vec<Vec<NodeId>>` layout produced (property-tested against it).
///
/// # Slot reuse (bounded-memory churn)
///
/// By default the slot table is append-only: every arrival gets a fresh
/// slot, so a perpetually churning overlay grows without bound (and is
/// capped at [`MAX_SLOTS`](crate::node::MAX_SLOTS) cumulative arrivals).
/// [`enable_slot_reuse`](Self::enable_slot_reuse) switches departures to
/// feed a free list that later arrivals pop: memory becomes O(peak
/// population) regardless of churn volume. Each reuse increments the
/// slot's *generation*, minted into the new tenant's [`NodeId`], and
/// [`is_alive`](Self::is_alive) validates it — a stale id (a message in
/// flight to a departed node whose slot was since re-let) is dead, never
/// aliased to the new tenant. The default mode is bit-for-bit the historic
/// behavior; the reuse mode is what the million-node scales run on.
///
/// Links are bidirectional, as in the paper (§IV-A): "whenever a node contacts
/// another one, the reached node also has knowledge of communication
/// initiator's existence and keeps a link back to the contact node".
///
/// Complexity of the operations the estimation algorithms rely on:
///
/// * `neighbors` — O(1) slice access,
/// * `random_neighbor` — O(1),
/// * `random_alive` (uniform over alive nodes) — O(1),
/// * `remove_node` — O(degree²) worst case (degree · neighbor-list scan),
/// * `add_edge`/`remove_edge` — O(degree), amortizing the occasional
///   region relocation and arena compaction.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Per-slot neighbor-list windows into `arena`.
    spans: Vec<Span>,
    /// The shared edge arena all neighbor lists live in.
    arena: Vec<NodeId>,
    alive: BitSet,
    /// Dense list of alive node ids, for O(1) uniform sampling.
    alive_list: Vec<NodeId>,
    /// `alive_pos[i]` = position of node `i` in `alive_list`, or `u32::MAX`.
    alive_pos: Vec<u32>,
    /// Current generation of each slot (0 until first reuse).
    generation: Vec<u8>,
    /// Dead slots available for re-letting (populated only in reuse mode).
    free_slots: Vec<u32>,
    /// Whether departures feed `free_slots` and arrivals pop it.
    reuse_slots: bool,
    /// Number of undirected edges between alive nodes.
    edges: usize,
    /// Cumulative arrivals that re-let a freed slot (telemetry).
    slots_reused: u64,
    /// Cumulative arena compactions, automatic or forced (telemetry).
    compactions: u64,
    /// Sum of every span's capacity: the arena entries slots hold.
    /// Everything else in the arena is abandoned.
    reserved: usize,
    /// Abandoned regions awaiting reuse: `free_regions[c]` holds the
    /// offsets of regions of exactly `c` entries, `0 < c < RECYCLE_CAPS`.
    free_regions: Vec<Vec<u32>>,
}

const NOT_ALIVE: u32 = u32::MAX;

/// Arena entry used to fill uninitialized span slack; never read.
const ARENA_SLACK: NodeId = NodeId(u32::MAX);

/// Below this arena size compaction never fires: small graphs stay cheap
/// and the historic many-tiny-graph tests never pay a rebuild.
const COMPACT_FLOOR: usize = 4096;

/// Regions of this many entries or more are never free-listed: they stay
/// tail garbage until the next compaction.
const RECYCLE_CAPS: usize = 64;

impl Graph {
    /// Creates an empty graph with capacity reserved for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Graph {
            spans: Vec::with_capacity(n),
            arena: Vec::new(),
            alive: BitSet::with_capacity(n),
            alive_list: Vec::with_capacity(n),
            alive_pos: Vec::with_capacity(n),
            generation: Vec::with_capacity(n),
            free_slots: Vec::new(),
            reuse_slots: false,
            edges: 0,
            slots_reused: 0,
            compactions: 0,
            reserved: 0,
            free_regions: vec![Vec::new(); RECYCLE_CAPS],
        }
    }

    /// Creates a graph with `n` alive, unconnected nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Graph::with_capacity(n);
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Switches the graph to bounded-memory churn: slots of nodes that
    /// depart *from now on* are re-let to later arrivals under a bumped
    /// generation (see the type-level docs). Ids minted before the switch
    /// stay valid; slots already dead at the switch are never re-let.
    pub fn enable_slot_reuse(&mut self) {
        self.reuse_slots = true;
    }

    /// Whether departures re-let their slots to later arrivals.
    pub fn slot_reuse(&self) -> bool {
        self.reuse_slots
    }

    /// Adds a new alive node with no links and returns its id. In reuse
    /// mode a freed slot is re-let (under a new generation) before the slot
    /// table grows.
    pub fn add_node(&mut self) -> NodeId {
        if let Some(slot) = self.free_slots.pop() {
            let slot = slot as usize;
            // Generations wrap at 256 reuses of one slot; an id would have
            // to outlive 255 intervening tenants to alias, which no
            // in-flight message or sample in this workspace approaches.
            let generation = self.generation[slot].wrapping_add(1);
            self.generation[slot] = generation;
            let id = NodeId::from_parts(slot, generation);
            debug_assert_eq!(self.spans[slot].len, 0, "re-let slot still wired");
            self.slots_reused += 1;
            self.alive.set(slot, true);
            self.alive_pos[slot] = self.alive_list.len() as u32;
            self.alive_list.push(id);
            return id;
        }
        assert!(
            self.spans.len() < crate::node::MAX_SLOTS,
            "slot table full ({} slots): enable_slot_reuse() bounds memory under churn",
            self.spans.len()
        );
        let id = NodeId::from_index(self.spans.len());
        self.spans.push(Span::default());
        self.alive.set(id.index(), true);
        self.alive_pos.push(self.alive_list.len() as u32);
        self.alive_list.push(id);
        self.generation.push(0);
        id
    }

    /// Total number of node slots ever allocated (alive + dead).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.spans.len()
    }

    /// Number of alive nodes — the ground-truth "system size" the estimation
    /// algorithms are trying to discover.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_list.len()
    }

    /// Number of undirected edges between alive nodes.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Bytes currently held by the adjacency storage (span table + arena,
    /// including in-region slack and abandoned regions). Excludes the
    /// alive/generation bookkeeping.
    pub fn adjacency_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<Span>()
            + self.arena.len() * std::mem::size_of::<NodeId>()
    }

    /// Cumulative arrivals that re-let a freed slot (telemetry; nonzero
    /// only after [`enable_slot_reuse`](Self::enable_slot_reuse)).
    pub fn slots_reused(&self) -> u64 {
        self.slots_reused
    }

    /// Cumulative arena compactions, automatic or forced (telemetry).
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Whether `node` is currently alive. Generation-checked: an id whose
    /// slot has since been re-let to a newer tenant is dead, even though
    /// the slot itself is occupied.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive.get(node.index())
            && self
                .generation
                .get(node.index())
                .is_some_and(|&g| g == node.generation())
    }

    /// The neighbor view of `node`: a contiguous slice into the shared
    /// arena. Empty for dead nodes.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let span = self.spans[node.index()];
        &self.arena[span.offset as usize..(span.offset + span.len) as usize]
    }

    /// Degree of `node` (0 for dead nodes).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        self.spans[node.index()].len as usize
    }

    /// Iterates over all alive node ids (in sampling-list order, which is
    /// arbitrary but deterministic).
    #[inline]
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.alive_list.iter().copied()
    }

    /// Slice of all alive node ids.
    #[inline]
    pub fn alive_slice(&self) -> &[NodeId] {
        &self.alive_list
    }

    /// Draws an alive node uniformly at random in O(1).
    ///
    /// This is the *oracle* sampler: real deployments cannot do this (that is
    /// the whole point of the paper), but the simulator uses it to pick churn
    /// victims, estimation initiators, and to validate the random-walk
    /// sampler's uniformity.
    ///
    /// Returns `None` when the overlay is empty.
    pub fn random_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<NodeId> {
        if self.alive_list.is_empty() {
            None
        } else {
            Some(self.alive_list[rng.gen_range(0..self.alive_list.len())])
        }
    }

    /// Draws a uniform random neighbor of `node` in O(1), or `None` if the
    /// node is isolated.
    pub fn random_neighbor<R: Rng + ?Sized>(&self, node: NodeId, rng: &mut R) -> Option<NodeId> {
        let nb = self.neighbors(node);
        if nb.is_empty() {
            None
        } else {
            Some(nb[rng.gen_range(0..nb.len())])
        }
    }

    /// Returns whether `a` and `b` are directly linked.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        let (fst, snd) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(fst).contains(&snd)
    }

    /// Adds the undirected edge `a — b`.
    ///
    /// Returns `false` (and does nothing) on self-loops, duplicate edges, or
    /// if either endpoint is dead.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.is_alive(a) || !self.is_alive(b) || self.has_edge(a, b) {
            return false;
        }
        self.add_vetted_edge(a, b);
        true
    }

    /// [`add_edge`](Self::add_edge) for a pair the caller has already
    /// vetted (distinct, both alive, not yet linked), as
    /// [`pick_below_max`](crate::builder::pick_below_max) does.
    pub(crate) fn add_vetted_edge(&mut self, a: NodeId, b: NodeId) {
        debug_assert!(a != b && self.is_alive(a) && self.is_alive(b));
        debug_assert!(!self.has_edge(a, b), "duplicate edge {a:?} — {b:?}");
        self.push_neighbor(a.index(), b);
        self.push_neighbor(b.index(), a);
        self.edges += 1;
        self.maybe_compact();
    }

    /// Reads `node`'s span and the first entry of its neighbor list, so
    /// that a later access finds both in cache: a churn loop that knows
    /// which lists it touches next calls this ahead of time and lets the
    /// misses overlap. Changes nothing; any slot id is accepted, alive or
    /// not.
    #[inline]
    pub fn read_ahead(&self, node: NodeId) {
        if let Some(span) = self.spans.get(node.index()) {
            std::hint::black_box(self.arena.get(span.offset as usize).copied());
        }
    }

    /// Removes the undirected edge `a — b`. Returns `false` if absent.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if !self.remove_from_slot(a.index(), b) {
            return false;
        }
        let removed = self.remove_from_slot(b.index(), a);
        debug_assert!(removed, "adjacency lists out of sync");
        self.edges -= 1;
        self.maybe_compact();
        true
    }

    /// Appends `id` to `slot`'s neighbor region, relocating the region to
    /// one of grown capacity when full (the overflow path). Relocation
    /// copies the list front-to-back: iteration order is exactly what
    /// `Vec::push` produced.
    fn push_neighbor(&mut self, slot: usize, id: NodeId) {
        let span = self.spans[slot];
        if span.len < span.cap {
            self.arena[(span.offset + span.len) as usize] = id;
            self.spans[slot].len += 1;
            return;
        }
        // Region full: relocate with ~1.5× capacity.
        self.relocate(slot, span.len + (span.len >> 1) + 2);
        let span = &mut self.spans[slot];
        self.arena[(span.offset + span.len) as usize] = id;
        span.len += 1;
    }

    /// Gives `node` a region of at least `cap` entries, so that many links
    /// land without a relocation. Called before a node is wired (by
    /// [`wire_new_node`](crate::builder::wire_new_node) and the
    /// heterogeneous builder): its region is placed once, at its final
    /// size, instead of growing 0 → 2 → 5 → 9 as links arrive. Invisible
    /// to every observable API but
    /// [`adjacency_bytes`](Self::adjacency_bytes) and
    /// [`compactions`](Self::compactions).
    pub(crate) fn reserve_neighbors(&mut self, node: NodeId, cap: usize) {
        let slot = node.index();
        if (self.spans[slot].cap as usize) < cap {
            self.relocate(slot, cap as u32);
        }
    }

    /// Sizes the arena for `additional` more entries in one allocation, so
    /// a bulk load does not grow it by doubling.
    pub(crate) fn reserve_arena(&mut self, additional: usize) {
        self.arena.reserve_exact(additional);
    }

    /// Moves `slot`'s neighbor list to a region of `cap` entries, copying
    /// it front to back: a free-listed region of exactly that capacity if
    /// there is one, else a fresh one at the arena tail. The old region is
    /// abandoned.
    fn relocate(&mut self, slot: usize, cap: u32) {
        let span = self.spans[slot];
        let live = span.offset as usize..(span.offset + span.len) as usize;
        let new_off = match self.free_regions.get_mut(cap as usize).and_then(Vec::pop) {
            Some(off) => {
                self.arena.copy_within(live, off as usize);
                off
            }
            None => {
                let new_off = self.arena.len();
                assert!(
                    new_off + cap as usize <= u32::MAX as usize,
                    "edge arena exceeds u32 addressing"
                );
                self.arena.extend_from_within(live);
                self.arena.resize(new_off + cap as usize, ARENA_SLACK);
                new_off as u32
            }
        };
        self.abandon(span);
        self.reserved += cap as usize;
        self.spans[slot] = Span {
            offset: new_off,
            len: span.len,
            cap,
        };
    }

    /// Gives up the region `span` holds: it is free-listed under its
    /// capacity, or left as tail garbage when it is too large to list.
    fn abandon(&mut self, span: Span) {
        self.reserved -= span.cap as usize;
        if span.cap > 0 {
            if let Some(list) = self.free_regions.get_mut(span.cap as usize) {
                list.push(span.offset);
            }
        }
    }

    /// Removes `target` from `slot`'s neighbor region with the positional
    /// swap-with-last that `Vec::swap_remove` performs — bit-identical
    /// resulting order.
    #[inline]
    fn remove_from_slot(&mut self, slot: usize, target: NodeId) -> bool {
        let span = self.spans[slot];
        let off = span.offset as usize;
        let list = &mut self.arena[off..off + span.len as usize];
        match list.iter().position(|&x| x == target) {
            Some(pos) => {
                list.swap(pos, span.len as usize - 1);
                self.spans[slot].len -= 1;
                true
            }
            None => false,
        }
    }

    /// Releases `slot`'s whole neighbor region for reuse.
    fn release_region(&mut self, slot: usize) {
        self.abandon(self.spans[slot]);
        self.spans[slot] = Span::default();
    }

    /// Rebuilds the arena when abandoned regions outweigh the ones slots
    /// hold. Deterministic: the trigger depends only on arena counts, and
    /// the rebuild is order-preserving, so it is invisible to every
    /// observable API.
    fn maybe_compact(&mut self) {
        let abandoned = self.arena.len() - self.reserved;
        if self.arena.len() >= COMPACT_FLOOR && abandoned > self.reserved {
            self.compact_adjacency();
        }
    }

    /// Rebuilds the edge arena in slot order with exact-fit regions,
    /// dropping all slack and every abandoned region. Neighbor-list
    /// contents and iteration order are unchanged; only arena addresses
    /// move. O(V + E). Fired automatically under churn and once at the end
    /// of every builder; public so bulk loads and tests can force it.
    ///
    /// Regions that already lie in slot order (a builder that reserved
    /// them up front) slide down in place, so the old and the new arena
    /// are never both live; any other layout is copied into a fresh one.
    pub fn compact_adjacency(&mut self) {
        self.compactions += 1;
        let mut end = 0;
        let in_slot_order = self.spans.iter().filter(|s| s.cap > 0).all(|s| {
            let after = s.offset >= end;
            end = s.offset + s.cap;
            after
        });
        if in_slot_order {
            let mut cursor = 0;
            for span in self.spans.iter_mut() {
                let live = span.offset as usize..(span.offset + span.len) as usize;
                self.arena.copy_within(live, cursor as usize);
                span.offset = cursor;
                span.cap = span.len;
                cursor += span.len;
            }
            self.arena.truncate(cursor as usize);
            self.arena.shrink_to_fit();
        } else {
            let mut new_arena = Vec::with_capacity(2 * self.edges);
            for span in self.spans.iter_mut() {
                let off = new_arena.len() as u32;
                new_arena.extend_from_slice(
                    &self.arena[span.offset as usize..(span.offset + span.len) as usize],
                );
                span.offset = off;
                span.cap = span.len;
            }
            self.arena = new_arena;
        }
        self.reserved = self.arena.len();
        for list in &mut self.free_regions {
            list.clear();
        }
    }

    /// Removes `node` from the overlay: all its links disappear and surviving
    /// neighbors do **not** re-wire (the paper's no-repair churn semantics,
    /// §IV-A: "the nodes that have lost one or several neighbors do not create
    /// new links with other nodes").
    ///
    /// Returns the node's former neighbors, or `None` if it was already dead.
    ///
    /// The returned `Vec` is a fresh allocation handed to the caller; on
    /// churn hot paths that remove many nodes and discard the neighbor
    /// lists, prefer [`remove_node_with`](Self::remove_node_with), which
    /// reuses one caller-owned scratch buffer instead of allocating and
    /// freeing per removal.
    pub fn remove_node(&mut self, node: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_alive(node) {
            return None;
        }
        let neighbors = self.neighbors(node).to_vec();
        self.release_region(node.index());
        self.detach_links(node, &neighbors);
        self.mark_dead(node);
        self.maybe_compact();
        Some(neighbors)
    }

    /// [`remove_node`](Self::remove_node) without the per-removal
    /// allocation: the victim's neighbor list is copied into `scratch`
    /// (cleared first) and its arena region is released (dead slots never
    /// re-wire, so it is garbage from then on).
    ///
    /// Returns `false` (leaving `scratch` untouched) if `node` was already
    /// dead; on `true`, `scratch` holds the former neighbors.
    pub fn remove_node_with(&mut self, node: NodeId, scratch: &mut Vec<NodeId>) -> bool {
        if !self.is_alive(node) {
            return false;
        }
        scratch.clear();
        scratch.extend_from_slice(self.neighbors(node));
        self.release_region(node.index());
        self.detach_links(node, scratch);
        self.mark_dead(node);
        self.maybe_compact();
        true
    }

    /// Removes the backlinks of `node`'s former `neighbors` and updates the
    /// edge counter.
    fn detach_links(&mut self, node: NodeId, neighbors: &[NodeId]) {
        for &w in neighbors {
            let removed = self.remove_from_slot(w.index(), node);
            debug_assert!(removed, "adjacency lists out of sync");
        }
        self.edges -= neighbors.len();
    }

    /// Marks an alive, already-detached `node` dead in the alive bookkeeping.
    fn mark_dead(&mut self, node: NodeId) {
        self.alive.set(node.index(), false);
        // O(1) removal from the dense alive list via swap-remove.
        let pos = self.alive_pos[node.index()];
        debug_assert_ne!(pos, NOT_ALIVE);
        let last = *self
            .alive_list
            .last()
            .expect("alive node implies non-empty list");
        self.alive_list.swap_remove(pos as usize);
        if last != node {
            self.alive_pos[last.index()] = pos;
        }
        self.alive_pos[node.index()] = NOT_ALIVE;
        if self.reuse_slots {
            self.free_slots.push(node.index() as u32);
        }
    }

    /// Checks internal invariants. Used by tests and debug assertions; O(V+E).
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.alive_list.len() != self.alive.count_ones() {
            return Err(format!(
                "alive list/bitset mismatch: {} vs {}",
                self.alive_list.len(),
                self.alive.count_ones()
            ));
        }
        if self.generation.len() != self.spans.len() {
            return Err(format!(
                "generation table covers {} of {} slots",
                self.generation.len(),
                self.spans.len()
            ));
        }
        for (pos, &n) in self.alive_list.iter().enumerate() {
            if self.alive_pos[n.index()] as usize != pos {
                return Err(format!(
                    "alive_pos[{n:?}] does not point back to list slot {pos}"
                ));
            }
            if !self.alive.get(n.index()) {
                return Err(format!("{n:?} in alive list but bit unset"));
            }
            if self.generation[n.index()] != n.generation() {
                return Err(format!(
                    "{n:?} in alive list under stale generation (slot is at {})",
                    self.generation[n.index()]
                ));
            }
        }
        for &slot in &self.free_slots {
            if self.alive.get(slot as usize) {
                return Err(format!("slot {slot} both free and alive"));
            }
        }
        // CSR structure: every span and free-listed region in bounds, all
        // of them pairwise disjoint, and `reserved` the sum of span caps.
        let mut regions: Vec<(u32, u32)> = Vec::new();
        let reserved: usize = self.spans.iter().map(|s| s.cap as usize).sum();
        if reserved != self.reserved {
            return Err(format!(
                "reserved counter {} but spans hold {reserved} entries",
                self.reserved
            ));
        }
        for (cap, list) in self.free_regions.iter().enumerate() {
            if cap == 0 && !list.is_empty() {
                return Err("empty regions free-listed".to_string());
            }
            for &offset in list {
                if offset as usize + cap > self.arena.len() {
                    return Err(format!(
                        "free region [{offset}, +{cap}) outside arena of {}",
                        self.arena.len()
                    ));
                }
                regions.push((offset, cap as u32));
            }
        }
        for (i, span) in self.spans.iter().enumerate() {
            if span.len > span.cap {
                return Err(format!(
                    "slot {i}: len {} exceeds cap {}",
                    span.len, span.cap
                ));
            }
            if span.offset as usize + span.cap as usize > self.arena.len() {
                return Err(format!(
                    "slot {i}: region [{}, +{}) outside arena of {}",
                    span.offset,
                    span.cap,
                    self.arena.len()
                ));
            }
            if span.cap > 0 {
                regions.push((span.offset, span.cap));
            }
        }
        regions.sort_unstable();
        for w in regions.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                return Err(format!(
                    "overlapping arena regions at {} (+{}) and {}",
                    w[0].0, w[0].1, w[1].0
                ));
            }
        }
        let mut half_edges = 0usize;
        for i in 0..self.spans.len() {
            // The slot's *current* tenant id: backlinks are stored under it.
            let id = NodeId::from_parts(i, self.generation[i]);
            let nb = self.neighbors(id);
            if !self.alive.get(i) && !nb.is_empty() {
                return Err(format!("dead node {id:?} still has links"));
            }
            for &w in nb {
                if !self.is_alive(w) {
                    return Err(format!("{id:?} links to dead (or stale-id) node {w:?}"));
                }
                if w == id {
                    return Err(format!("self-loop at {id:?}"));
                }
                if !self.neighbors(w).contains(&id) {
                    return Err(format!("asymmetric edge {id:?} -> {w:?}"));
                }
            }
            let mut sorted: Vec<NodeId> = nb.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != nb.len() {
                return Err(format!("duplicate links at {id:?}"));
            }
            half_edges += nb.len();
        }
        if half_edges != 2 * self.edges {
            return Err(format!(
                "edge counter mismatch: counted {} half-edges, stored {} edges",
                half_edges, self.edges
            ));
        }
        Ok(())
    }
}

/// The pre-CSR `Vec<Vec<NodeId>>` graph, retained verbatim as the
/// determinism oracle: the CSR layout must reproduce its neighbor
/// iteration order bit for bit under any operation interleaving.
#[cfg(test)]
pub(crate) mod oracle {
    use super::*;

    #[derive(Clone, Debug)]
    pub struct VecGraph {
        adj: Vec<Vec<NodeId>>,
        alive: BitSet,
        alive_list: Vec<NodeId>,
        alive_pos: Vec<u32>,
        generation: Vec<u8>,
        free_slots: Vec<u32>,
        reuse_slots: bool,
        edges: usize,
    }

    impl VecGraph {
        pub fn with_nodes(n: usize) -> Self {
            let mut g = VecGraph {
                adj: Vec::with_capacity(n),
                alive: BitSet::with_capacity(n),
                alive_list: Vec::with_capacity(n),
                alive_pos: Vec::with_capacity(n),
                generation: Vec::with_capacity(n),
                free_slots: Vec::new(),
                reuse_slots: false,
                edges: 0,
            };
            for _ in 0..n {
                g.add_node();
            }
            g
        }

        pub fn enable_slot_reuse(&mut self) {
            self.reuse_slots = true;
        }

        pub fn add_node(&mut self) -> NodeId {
            if let Some(slot) = self.free_slots.pop() {
                let slot = slot as usize;
                let generation = self.generation[slot].wrapping_add(1);
                self.generation[slot] = generation;
                let id = NodeId::from_parts(slot, generation);
                self.alive.set(slot, true);
                self.alive_pos[slot] = self.alive_list.len() as u32;
                self.alive_list.push(id);
                return id;
            }
            let id = NodeId::from_index(self.adj.len());
            self.adj.push(Vec::new());
            self.alive.set(id.index(), true);
            self.alive_pos.push(self.alive_list.len() as u32);
            self.alive_list.push(id);
            self.generation.push(0);
            id
        }

        pub fn num_slots(&self) -> usize {
            self.adj.len()
        }

        pub fn alive_count(&self) -> usize {
            self.alive_list.len()
        }

        pub fn edge_count(&self) -> usize {
            self.edges
        }

        pub fn alive_slice(&self) -> &[NodeId] {
            &self.alive_list
        }

        pub fn is_alive(&self, node: NodeId) -> bool {
            self.alive.get(node.index())
                && self
                    .generation
                    .get(node.index())
                    .is_some_and(|&g| g == node.generation())
        }

        pub fn neighbors_of_slot(&self, slot: usize) -> &[NodeId] {
            &self.adj[slot]
        }

        pub fn degree(&self, node: NodeId) -> usize {
            self.adj[node.index()].len()
        }

        pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
            let (fst, snd) = if self.degree(a) <= self.degree(b) {
                (a, b)
            } else {
                (b, a)
            };
            self.adj[fst.index()].contains(&snd)
        }

        pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
            if a == b || !self.is_alive(a) || !self.is_alive(b) || self.has_edge(a, b) {
                return false;
            }
            self.adj[a.index()].push(b);
            self.adj[b.index()].push(a);
            self.edges += 1;
            true
        }

        pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
            if !Self::remove_from_list(&mut self.adj[a.index()], b) {
                return false;
            }
            let removed = Self::remove_from_list(&mut self.adj[b.index()], a);
            debug_assert!(removed);
            self.edges -= 1;
            true
        }

        fn remove_from_list(list: &mut Vec<NodeId>, target: NodeId) -> bool {
            match list.iter().position(|&x| x == target) {
                Some(pos) => {
                    list.swap_remove(pos);
                    true
                }
                None => false,
            }
        }

        pub fn remove_node(&mut self, node: NodeId) -> Option<Vec<NodeId>> {
            if !self.is_alive(node) {
                return None;
            }
            let neighbors = std::mem::take(&mut self.adj[node.index()]);
            for &w in &neighbors {
                let removed = Self::remove_from_list(&mut self.adj[w.index()], node);
                debug_assert!(removed);
            }
            self.edges -= neighbors.len();
            self.alive.set(node.index(), false);
            let pos = self.alive_pos[node.index()];
            let last = *self.alive_list.last().unwrap();
            self.alive_list.swap_remove(pos as usize);
            if last != node {
                self.alive_pos[last.index()] = pos;
            }
            self.alive_pos[node.index()] = NOT_ALIVE;
            if self.reuse_slots {
                self.free_slots.push(node.index() as u32);
            }
            Some(neighbors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::with_nodes(3);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(c, a);
        (g, a, b, c)
    }

    #[test]
    fn add_nodes_and_edges() {
        let (g, a, b, c) = triangle();
        assert_eq!(g.alive_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(c, a));
        assert_eq!(g.degree(a), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId(0), NodeId(1));
        assert!(!g.add_edge(a, a));
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b));
        assert!(!g.add_edge(b, a));
        assert_eq!(g.edge_count(), 1);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_edge_works_both_directions() {
        let (mut g, a, b, _) = triangle();
        assert!(g.remove_edge(b, a));
        assert!(!g.has_edge(a, b));
        assert!(!g.remove_edge(a, b));
        assert_eq!(g.edge_count(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_node_detaches_and_reports_neighbors() {
        let (mut g, a, b, c) = triangle();
        let mut nbs = g.remove_node(b).unwrap();
        nbs.sort_unstable();
        assert_eq!(nbs, vec![a, c]);
        assert!(!g.is_alive(b));
        assert_eq!(g.alive_count(), 2);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.edge_count(), 1);
        assert!(g.remove_node(b).is_none(), "double removal must be a no-op");
        g.check_invariants().unwrap();
    }

    #[test]
    fn remove_node_with_matches_remove_node() {
        let build = || {
            let mut g = Graph::with_nodes(30);
            for i in 0..30u32 {
                g.add_edge(NodeId(i), NodeId((i + 1) % 30));
                g.add_edge(NodeId(i), NodeId((i + 7) % 30));
            }
            g
        };
        let mut a = build();
        let mut b = build();
        let mut scratch = Vec::new();
        for i in [3u32, 17, 3, 29, 0] {
            let via_vec = a.remove_node(NodeId(i));
            let ok = b.remove_node_with(NodeId(i), &mut scratch);
            match via_vec {
                Some(nbs) => {
                    assert!(ok);
                    assert_eq!(scratch, nbs, "neighbor lists must agree");
                }
                None => assert!(!ok, "double removal must be a no-op"),
            }
            assert_eq!(a.alive_count(), b.alive_count());
            assert_eq!(a.edge_count(), b.edge_count());
        }
        a.check_invariants().unwrap();
        b.check_invariants().unwrap();
    }

    #[test]
    fn remove_node_with_keeps_scratch_on_dead_node() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        let mut scratch = Vec::new();
        assert!(g.remove_node_with(NodeId(0), &mut scratch));
        assert_eq!(scratch, vec![NodeId(1)]);
        // Second removal: no-op, scratch untouched (still the old contents).
        assert!(!g.remove_node_with(NodeId(0), &mut scratch));
        assert_eq!(scratch, vec![NodeId(1)]);
        g.check_invariants().unwrap();
    }

    #[test]
    fn edges_to_dead_nodes_are_rejected() {
        let (mut g, a, b, _) = triangle();
        g.remove_node(b);
        assert!(!g.add_edge(a, b));
        g.check_invariants().unwrap();
    }

    #[test]
    fn random_alive_is_uniform_over_alive_nodes() {
        let mut g = Graph::with_nodes(10);
        for i in 0..5 {
            g.remove_node(NodeId(i * 2)); // kill even nodes
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            let n = g.random_alive(&mut rng).unwrap();
            assert!(g.is_alive(n));
            counts[n.index()] += 1;
        }
        for i in (1..10).step_by(2) {
            // each odd node should get ~10_000 draws; allow generous slack
            assert!(
                counts[i] > 8_500 && counts[i] < 11_500,
                "counts = {counts:?}"
            );
        }
    }

    #[test]
    fn random_neighbor_respects_view() {
        let (g, a, b, c) = triangle();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            let n = g.random_neighbor(a, &mut rng).unwrap();
            assert!(n == b || n == c);
        }
    }

    #[test]
    fn empty_and_isolated_cases() {
        let g = Graph::with_capacity(0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(g.random_alive(&mut rng).is_none());

        let mut g = Graph::with_nodes(1);
        assert!(g.random_neighbor(NodeId(0), &mut rng).is_none());
        assert_eq!(g.remove_node(NodeId(0)), Some(vec![]));
        assert_eq!(g.alive_count(), 0);
    }

    #[test]
    fn slot_reuse_relets_dead_slots_under_new_generations() {
        let mut g = Graph::with_nodes(4);
        g.enable_slot_reuse();
        g.add_edge(NodeId(0), NodeId(1));
        let departed = NodeId(1);
        g.remove_node(departed);
        assert_eq!(g.num_slots(), 4);

        // The arrival re-lets slot 1 under generation 1.
        let tenant = g.add_node();
        assert_eq!(g.num_slots(), 4, "no slot-table growth");
        assert_eq!(tenant.index(), 1);
        assert_eq!(tenant.generation(), 1);
        assert_ne!(tenant, departed);

        // The old id stays dead; the new one is alive and wireable.
        assert!(!g.is_alive(departed), "stale id must not alias the tenant");
        assert!(g.is_alive(tenant));
        assert!(g.add_edge(NodeId(0), tenant));
        assert!(!g.add_edge(NodeId(0), departed), "stale ids cannot wire");
        g.check_invariants().unwrap();
    }

    #[test]
    fn slot_reuse_bounds_the_slot_table_under_churn() {
        let mut g = Graph::with_nodes(50);
        g.enable_slot_reuse();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut graveyard: Vec<NodeId> = Vec::new();
        for _ in 0..40 {
            // A full join/leave cycle of 20 nodes each.
            for _ in 0..20 {
                let victim = g.random_alive(&mut rng).unwrap();
                g.remove_node(victim);
                graveyard.push(victim);
            }
            for _ in 0..20 {
                let n = g.add_node();
                // add_edge ignores dead endpoints, so wire best-effort.
                if let Some(p) = g.random_alive(&mut rng) {
                    g.add_edge(n, p);
                }
            }
        }
        assert_eq!(g.alive_count(), 50);
        assert_eq!(g.num_slots(), 50, "memory bounded by peak population");
        // Every id that ever departed is still dead — no aliasing ever.
        for &ghost in &graveyard {
            assert!(!g.is_alive(ghost), "{ghost:?} rose from the dead");
        }
        g.check_invariants().unwrap();
    }

    #[test]
    fn append_only_mode_is_unchanged() {
        // The default graph never reuses: ids are dense indices, gen 0.
        let mut g = Graph::with_nodes(3);
        g.remove_node(NodeId(1));
        let n = g.add_node();
        assert_eq!(n, NodeId(3), "append-only arrival takes a fresh slot");
        assert_eq!(n.generation(), 0);
        assert_eq!(g.num_slots(), 4);
        assert!(!g.slot_reuse());
        g.check_invariants().unwrap();
    }

    #[test]
    fn alive_list_swap_remove_bookkeeping() {
        let mut g = Graph::with_nodes(100);
        // Remove in a scattered order, then verify every survivor samples fine.
        for i in [0u32, 99, 50, 1, 98, 51, 2] {
            g.remove_node(NodeId(i));
        }
        g.check_invariants().unwrap();
        assert_eq!(g.alive_count(), 93);
        let alive: Vec<NodeId> = g.alive_nodes().collect();
        assert_eq!(alive.len(), 93);
        for n in alive {
            assert!(g.is_alive(n));
        }
    }

    // ── CSR vs the Vec-of-Vecs oracle ───────────────────────────────────

    /// Applies one identical operation stream to the CSR graph and the
    /// retained historic implementation and asserts every observable —
    /// return values, alive-list order, and per-slot neighbor *iteration
    /// order* — stays bit-identical throughout.
    #[test]
    fn csr_matches_vec_oracle_under_churn_storms() {
        for seed in 0..10u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut csr = Graph::with_nodes(48);
            let mut old = oracle::VecGraph::with_nodes(48);
            if seed % 2 == 0 {
                csr.enable_slot_reuse();
                old.enable_slot_reuse();
            }
            for step in 0..800 {
                match rng.gen_range(0..11u32) {
                    // Wire a random pair (often a duplicate or self edge).
                    0..=4 => {
                        let a = csr.random_alive(&mut rng);
                        let b = csr.random_alive(&mut rng);
                        if let (Some(a), Some(b)) = (a, b) {
                            assert_eq!(csr.add_edge(a, b), old.add_edge(a, b));
                        }
                    }
                    // Unwire an existing link.
                    5..=6 => {
                        if let Some(a) = csr.random_alive(&mut rng) {
                            if let Some(b) = csr.random_neighbor(a, &mut rng) {
                                assert_eq!(csr.remove_edge(a, b), old.remove_edge(a, b));
                            }
                        }
                    }
                    // Depart.
                    7..=8 => {
                        if let Some(v) = csr.random_alive(&mut rng) {
                            assert_eq!(csr.remove_node(v), old.remove_node(v));
                        }
                    }
                    // Join and wire to up to 3 peers; every other join first
                    // reserves a region for the arrival (and one for a
                    // random alive node), which the oracle has no notion of.
                    op => {
                        let a = csr.add_node();
                        assert_eq!(a, old.add_node(), "arrival ids diverged");
                        if op == 10 {
                            csr.reserve_neighbors(a, rng.gen_range(0..6));
                            if let Some(v) = csr.random_alive(&mut rng) {
                                csr.reserve_neighbors(v, rng.gen_range(0..12));
                            }
                        }
                        for _ in 0..3 {
                            if let Some(p) = csr.random_alive(&mut rng) {
                                assert_eq!(csr.add_edge(a, p), old.add_edge(a, p));
                            }
                        }
                    }
                }
                // A mid-storm forced compaction must be invisible.
                if step % 97 == 0 {
                    csr.compact_adjacency();
                }
                assert_eq!(csr.num_slots(), old.num_slots());
                assert_eq!(csr.alive_count(), old.alive_count());
                assert_eq!(csr.edge_count(), old.edge_count());
                assert_eq!(csr.alive_slice(), old.alive_slice());
                for slot in 0..csr.num_slots() {
                    assert_eq!(
                        csr.neighbors(NodeId::from_index(slot)),
                        old.neighbors_of_slot(slot),
                        "slot {slot} neighbor order diverged (seed {seed}, step {step})"
                    );
                }
            }
            csr.check_invariants().unwrap();
        }
    }

    #[test]
    fn a_joiner_gets_its_region_once() {
        use crate::builder::wire_new_node;

        let max_degree = 10;
        let mut rng = SmallRng::seed_from_u64(11);
        let mut g = Graph::with_nodes(40);
        g.enable_slot_reuse();
        // Every partner has room for `max_degree` links, so no backlink
        // relocates a partner: the joiners alone place regions, and every
        // region abandoned is a departure's, of capacity `max_degree`.
        for i in 0..40 {
            g.reserve_neighbors(NodeId(i), max_degree);
        }
        let mut placed = Vec::new();
        let mut recycled = 0;
        for round in 0..30 {
            let departed = (round % 3 == 0).then(|| {
                // Departures free slots and regions that the next joiner
                // re-lets.
                let victim = g.random_alive(&mut rng).unwrap();
                let span = g.spans[victim.index()];
                g.remove_node(victim);
                span
            });
            let before = g.arena.len();
            let node = wire_new_node(&mut g, max_degree, &mut rng);
            let span = g.spans[node.index()];
            assert_eq!(span.cap, max_degree as u32, "round {round}");
            match departed {
                Some(gone) => {
                    assert_eq!(span.offset, gone.offset, "round {round}");
                    assert_eq!(g.arena.len(), before, "round {round}");
                    recycled += 1;
                }
                None => {
                    assert_eq!(span.offset as usize, before, "round {round}");
                    assert_eq!(g.arena.len(), before + max_degree, "round {round}");
                }
            }
            assert!((1..=max_degree).contains(&g.degree(node)));
            placed.push((node, span.offset));
        }
        assert_eq!(recycled, 10);
        assert!(placed.iter().any(|(n, _)| n.generation() > 0));
        // Passive links from later joiners landed in place too.
        for (node, offset) in placed.into_iter().filter(|&(n, _)| g.is_alive(n)) {
            let span = g.spans[node.index()];
            assert_eq!((span.offset, span.cap), (offset, max_degree as u32));
        }
        assert_eq!(g.compactions(), 0);
        g.check_invariants().unwrap();
    }

    /// Departures and joins alternate at one capacity: after the first
    /// cycle every joiner's region is a departed one, so the arena stops
    /// growing, and the recycled layout still iterates every neighbor list
    /// in the oracle's order.
    #[test]
    fn recycled_regions_keep_the_arena_flat_and_the_oracle_order() {
        use crate::builder::wire_new_node;

        let (n, max_degree) = (300, 8);
        for seed in 0..4u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut csr = Graph::with_nodes(n);
            let mut old = oracle::VecGraph::with_nodes(n);
            csr.enable_slot_reuse();
            old.enable_slot_reuse();
            for i in 0..n {
                csr.reserve_neighbors(NodeId::from_index(i), max_degree);
            }
            // A static start below `max_degree`, so no backlink relocates.
            for _ in 0..2 * n {
                let a = csr.random_alive(&mut rng).unwrap();
                let b = csr.random_alive(&mut rng).unwrap();
                if csr.degree(a) < max_degree - 1 && csr.degree(b) < max_degree - 1 {
                    assert_eq!(csr.add_edge(a, b), old.add_edge(a, b));
                }
            }
            let mut warm_len = None;
            for cycle in 0..400 {
                let victim = csr.random_alive(&mut rng).unwrap();
                assert_eq!(csr.remove_node(victim), old.remove_node(victim));
                let node = wire_new_node(&mut csr, max_degree, &mut rng);
                assert_eq!(node, old.add_node(), "arrival ids diverged");
                for &p in csr.neighbors(node) {
                    assert!(old.add_edge(node, p));
                }
                let len = csr.arena.len();
                assert_eq!(*warm_len.get_or_insert(len), len, "cycle {cycle}");
                assert_eq!(csr.edge_count(), old.edge_count());
                assert_eq!(csr.alive_slice(), old.alive_slice());
                for slot in 0..csr.num_slots() {
                    assert_eq!(
                        csr.neighbors(NodeId::from_index(slot)),
                        old.neighbors_of_slot(slot),
                        "slot {slot} neighbor order diverged (seed {seed}, cycle {cycle})"
                    );
                }
            }
            assert_eq!(csr.compactions(), 0);
            csr.check_invariants().unwrap();
        }
    }

    #[test]
    fn slot_ordered_regions_compact_in_place() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut g = Graph::with_nodes(500);
        for i in 0..500 {
            g.reserve_neighbors(NodeId(i), 6);
        }
        for _ in 0..1_200 {
            let a = g.random_alive(&mut rng).unwrap();
            let b = g.random_alive(&mut rng).unwrap();
            if g.degree(a) < 6 && g.degree(b) < 6 {
                g.add_edge(a, b);
            }
        }
        // Departures free regions but leave the rest in slot order.
        for v in [3, 77, 250] {
            g.remove_node(NodeId(v));
        }
        let before: Vec<Vec<NodeId>> = (0..g.num_slots())
            .map(|s| g.neighbors(NodeId::from_index(s)).to_vec())
            .collect();
        g.compact_adjacency();
        for (s, want) in before.iter().enumerate() {
            assert_eq!(g.neighbors(NodeId::from_index(s)), &want[..], "slot {s}");
        }
        assert_eq!(g.adjacency_bytes(), 12 * g.num_slots() + 8 * g.edge_count());
        g.check_invariants().unwrap();
    }

    #[test]
    fn builders_hand_over_a_slot_ordered_exact_fit_arena() {
        use crate::builder::{GraphBuilder, HeterogeneousRandom};

        let mut rng = SmallRng::seed_from_u64(17);
        let g = HeterogeneousRandom::paper(3_000).build(&mut rng);
        let mut offset = 0;
        for (slot, span) in g.spans.iter().enumerate() {
            assert_eq!((span.offset, span.cap), (offset, span.len), "slot {slot}");
            offset += span.len;
        }
        assert_eq!(g.adjacency_bytes(), 12 * g.num_slots() + 8 * g.edge_count());
        assert!(g.free_regions.iter().all(Vec::is_empty));
        g.check_invariants().unwrap();
    }

    #[test]
    fn compaction_is_invisible_and_reclaims_garbage() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut g = Graph::with_nodes(200);
        g.enable_slot_reuse();
        // Churn hard enough to force relocations and automatic compactions.
        for _ in 0..50 {
            for _ in 0..40 {
                if let (Some(a), Some(b)) = (g.random_alive(&mut rng), g.random_alive(&mut rng)) {
                    g.add_edge(a, b);
                }
            }
            for _ in 0..20 {
                if let Some(v) = g.random_alive(&mut rng) {
                    g.remove_node(v);
                }
            }
            for _ in 0..20 {
                let n = g.add_node();
                if let Some(p) = g.random_alive(&mut rng) {
                    g.add_edge(n, p);
                }
            }
            g.check_invariants().unwrap();
        }
        // Forcing a rebuild changes no neighbor list and leaves zero garbage.
        let before: Vec<Vec<NodeId>> = (0..g.num_slots())
            .map(|s| g.neighbors(NodeId::from_index(s)).to_vec())
            .collect();
        let bytes_before = g.adjacency_bytes();
        g.compact_adjacency();
        for (s, want) in before.iter().enumerate() {
            assert_eq!(g.neighbors(NodeId::from_index(s)), &want[..]);
        }
        assert!(g.adjacency_bytes() <= bytes_before);
        g.check_invariants().unwrap();
        // After an exact-fit rebuild the arena holds only live entries.
        assert_eq!(
            g.adjacency_bytes(),
            g.num_slots() * 12 + 2 * g.edge_count() * 4
        );
    }

    #[test]
    fn overflow_path_grows_one_hub_without_disturbing_others() {
        // One hub accumulates degree far past any initial capacity while
        // spokes stay tiny: exercises repeated region relocation.
        let n = 600;
        let mut g = Graph::with_nodes(n);
        let hub = NodeId(0);
        for i in 1..n as u32 {
            assert!(g.add_edge(hub, NodeId(i)));
        }
        assert_eq!(g.degree(hub), n - 1);
        // Push order preserved: neighbors are exactly 1..n in order.
        let want: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        assert_eq!(g.neighbors(hub), &want[..]);
        g.check_invariants().unwrap();
    }
}
