//! A free-list payload slab — kept for the ruler only.
//!
//! [`Network`](crate::Network) used to park every in-flight payload here
//! (`Vec<Option<M>>` addressed by a `u32` handle) and queue the handle.
//! That cost each event a third, random-access trip through a slab as large
//! as the in-flight population, so payloads now travel inline through the
//! wheel, whose chunk pool is the only pool ([`crate::engine`]); the *pool
//! hit rate* in [`EngineStats`](crate::engine::EngineStats) describes that
//! one. Nothing shipped calls this module any more: it stays compiled and
//! exported because the frozen ruler's `sim.pool.cycle_ns` probe
//! (`benchmark/src/layers.rs`) imports [`PayloadPool`], and goes when the
//! ruler is next unfrozen (DESIGN.md § "What has a caller").

/// A slab of recyclable payload slots addressed by dense `u32` handles.
#[derive(Debug)]
pub struct PayloadPool<M> {
    slots: Vec<Option<M>>,
    free: Vec<u32>,
    hits: u64,
    allocs: u64,
}

impl<M> Default for PayloadPool<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> PayloadPool<M> {
    /// An empty pool.
    pub fn new() -> Self {
        PayloadPool {
            slots: Vec::new(),
            free: Vec::new(),
            hits: 0,
            allocs: 0,
        }
    }

    /// Parks `payload`, returning its handle. Reuses a free slot when one
    /// exists (a *hit*); otherwise grows the slab (an *alloc*).
    pub fn insert(&mut self, payload: M) -> u32 {
        match self.free.pop() {
            Some(handle) => {
                self.hits += 1;
                debug_assert!(self.slots[handle as usize].is_none());
                self.slots[handle as usize] = Some(payload);
                handle
            }
            None => {
                self.allocs += 1;
                let handle = u32::try_from(self.slots.len()).expect("pool slab overflows u32");
                self.slots.push(Some(payload));
                handle
            }
        }
    }

    /// Takes the payload back out, releasing the slot to the free list.
    ///
    /// # Panics
    /// Panics on a handle that is unoccupied — that would mean an event was
    /// dispatched twice.
    pub fn take(&mut self, handle: u32) -> M {
        let payload = self.slots[handle as usize]
            .take()
            .expect("payload handle taken twice");
        self.free.push(handle);
        payload
    }

    /// Payloads currently parked.
    pub fn in_use(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Slot reuses so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Slab growths so far.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_payloads() {
        let mut pool: PayloadPool<String> = PayloadPool::new();
        let a = pool.insert("a".to_string());
        let b = pool.insert("b".to_string());
        assert_eq!(pool.in_use(), 2);
        assert_eq!(pool.take(a), "a");
        assert_eq!(pool.take(b), "b");
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn steady_state_reuses_slots() {
        let mut pool: PayloadPool<u64> = PayloadPool::new();
        // Warm up to a plateau of 8 in-flight payloads...
        let mut handles: Vec<u32> = (0..8).map(|i| pool.insert(i)).collect();
        assert_eq!(pool.allocs(), 8);
        assert_eq!(pool.hits(), 0);
        // ...then churn through 1000 send/resolve cycles at that plateau.
        for i in 0..1_000u64 {
            let h = handles.remove(0);
            pool.take(h);
            handles.push(pool.insert(100 + i));
        }
        assert_eq!(pool.allocs(), 8, "steady state must not grow the slab");
        assert_eq!(pool.hits(), 1_000);
        assert_eq!(pool.slots.len(), 8);
    }

    #[test]
    #[should_panic(expected = "taken twice")]
    fn double_take_panics() {
        let mut pool: PayloadPool<u8> = PayloadPool::new();
        let h = pool.insert(1);
        pool.take(h);
        pool.take(h);
    }
}
