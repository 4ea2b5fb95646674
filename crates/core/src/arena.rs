//! Per-node protocol state as a generation-checked slab arena.
//!
//! An event-driven protocol simulates *every* node from one object, so its
//! per-node state wants a dense layout keyed by the overlay's slot index —
//! not a boxed object per node (`Box<dyn>`-per-node costs a pointer chase
//! and an allocator round-trip per node; every figure runs a homogeneous
//! protocol and takes this arena path). The native protocols
//! already kept parallel `Vec`s; [`NodeArena`] packages that layout and
//! adds the one thing plain vectors cannot provide once the overlay reuses
//! slots ([`Graph::enable_slot_reuse`](p2p_overlay::Graph::enable_slot_reuse)):
//! **generation checking**. A slot re-let to a new node must read as
//! *fresh* state, never as the departed tenant's leftovers.
//!
//! Every access is keyed by full [`NodeId`] (slot + generation):
//!
//! * [`get`](NodeArena::get) returns `None` for a slot the arena has never
//!   seen *or* whose recorded generation differs from the id's — stale
//!   reads are impossible by construction;
//! * [`slot`](NodeArena::slot) returns the mutable state, resetting it to
//!   `T::default()` first when the generation advanced — lazily
//!   re-initializing re-let slots with no O(N) sweep.
//!
//! [`SizeMonitor`](crate::SizeMonitor) readings of an arena-backed
//! protocol therefore go through generation-checked reads end to end.

use p2p_overlay::NodeId;

/// Dense per-node state keyed by graph slot, validated by generation.
#[derive(Clone, Debug)]
pub struct NodeArena<T> {
    generations: Vec<u8>,
    data: Vec<T>,
}

impl<T: Default> Default for NodeArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default> NodeArena<T> {
    /// An empty arena; it grows lazily to the highest slot touched.
    pub fn new() -> Self {
        NodeArena {
            generations: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Slots currently backed.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether no slot has been touched yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Drops all state (used by protocol `reset`).
    pub fn clear(&mut self) {
        self.generations.clear();
        self.data.clear();
    }

    /// Grows the backing store to cover `slots` slots (new entries default,
    /// generation 0). Useful before a loop over every alive node so the
    /// per-node path never reallocates.
    pub fn ensure(&mut self, slots: usize) {
        if self.data.len() < slots {
            self.data.resize_with(slots, T::default);
            self.generations.resize(slots, 0);
        }
    }

    /// The state of `id`, or `None` when the slot is unbacked or held by a
    /// different generation (stale id, or a re-let slot this protocol has
    /// not touched since).
    #[inline]
    pub fn get(&self, id: NodeId) -> Option<&T> {
        let i = id.index();
        (self.generations.get(i).copied() == Some(id.generation())).then(|| &self.data[i])
    }

    /// Mutable state of `id`, growing the arena as needed and resetting
    /// the slot to `T::default()` when `id`'s generation differs from the
    /// recorded one (first touch of a re-let slot).
    #[inline]
    pub fn slot(&mut self, id: NodeId) -> &mut T {
        let i = id.index();
        self.ensure(i + 1);
        if self.generations[i] != id.generation() {
            self.generations[i] = id.generation();
            self.data[i] = T::default();
        }
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_after_growth() {
        let mut a: NodeArena<u64> = NodeArena::new();
        assert!(a.get(NodeId(3)).is_none(), "unbacked slot reads as absent");
        *a.slot(NodeId(3)) = 7;
        assert_eq!(a.get(NodeId(3)), Some(&7));
        assert_eq!(a.get(NodeId(0)), Some(&0), "growth backfills defaults");
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn generation_mismatch_reads_as_absent_and_resets_on_write() {
        let mut a: NodeArena<u64> = NodeArena::new();
        let old = NodeId::from_parts(5, 0);
        let new = NodeId::from_parts(5, 1);
        *a.slot(old) = 42;
        // The re-let slot must not expose the departed tenant's state.
        assert_eq!(a.get(new), None);
        assert_eq!(*a.slot(new), 0, "first touch resets to default");
        *a.slot(new) = 9;
        // And the stale id can no longer see (or resurrect) anything.
        assert_eq!(a.get(old), None);
        assert_eq!(a.get(new), Some(&9));
    }

    #[test]
    fn clear_drops_everything() {
        let mut a: NodeArena<u8> = NodeArena::new();
        *a.slot(NodeId(2)) = 1;
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.get(NodeId(2)), None);
    }
}
