//! Struct-of-arrays slab for active decode sequences.
//!
//! The serving engine's hot decode loop touches three scalars and one
//! KV-cache handle per active sequence per step (remaining budget,
//! produced count, first-token timestamp, [`KvSlot`]). Earlier revisions
//! kept them behind `BTreeMap<u64, ActiveSeq>` lookups — one pointer
//! chase per access per step. [`SeqSlab`] stores each field in its own dense column indexed by
//! a slot number, so admit / append / preempt / complete become plain
//! index operations, and a freed slot is recycled through a free list
//! (steady-state serving allocates nothing). The KV token count is not a
//! column: the cache owns it, and the engine reads it through the
//! sequence's [`KvSlot`] without a lookup by id.
//!
//! Slots are addressed by a generational [`SlotId`]: removing a sequence
//! bumps the slot's generation, so a stale id held across a preemption
//! can never silently read the slot's next tenant — it panics instead.
//! The semantic equivalence of the slab to the map it replaced (including
//! staleness behaviour) is property-pinned by
//! `tests/tests/prop_slab_diff.rs`, and the engine built on it reproduces
//! the pre-slab golden serving reports bit-for-bit
//! (`tests/tests/golden_serving.rs`).

use crate::dataset::Request;
use crate::kv_cache::KvSlot;

/// Generational handle to one slab slot. Obtained from
/// [`SeqSlab::insert`]; invalidated (for panics, not UB) by
/// [`SeqSlab::remove`] on the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotId {
    index: usize,
    generation: u32,
}

/// Struct-of-arrays storage for the per-sequence state of an active
/// decode batch. See the module docs for layout and invariants.
#[derive(Debug, Default, Clone)]
pub struct SeqSlab {
    /// Original request (immutable per tenant) — read at preemption,
    /// completion and crash harvest.
    request: Vec<Request>,
    /// Output tokens still to produce.
    remaining: Vec<usize>,
    /// Simulated time the first output token was emitted (TTFT anchor).
    first_token_t: Vec<f64>,
    /// Output tokens produced so far (survives preemption via the ready
    /// queue, not the slab).
    produced: Vec<usize>,
    /// The sequence's KV-cache entry.
    kv: Vec<KvSlot>,
    /// Current generation of each slot; a [`SlotId`] is live iff its
    /// generation matches.
    generation: Vec<u32>,
    /// Recycled slot indices, reused LIFO.
    free: Vec<usize>,
    /// Live sequence count.
    len: usize,
}

impl SeqSlab {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        SeqSlab::default()
    }

    /// An empty slab with room for `capacity` concurrent sequences before
    /// any column reallocates.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        SeqSlab {
            request: Vec::with_capacity(capacity),
            remaining: Vec::with_capacity(capacity),
            first_token_t: Vec::with_capacity(capacity),
            produced: Vec::with_capacity(capacity),
            kv: Vec::with_capacity(capacity),
            generation: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            len: 0,
        }
    }

    /// Live sequences.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no sequence is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (live + free) — the high-water mark of
    /// batch concurrency.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.generation.len()
    }

    /// Resolve a handle to its column index, panicking on staleness.
    fn idx(&self, slot: SlotId) -> usize {
        assert_eq!(
            self.generation[slot.index], slot.generation,
            "stale slot id {slot:?}"
        );
        slot.index
    }

    /// Whether `slot` still addresses a live sequence. O(1) — this is the
    /// decode loop's membership test for snapshot ids across preemptions.
    #[must_use]
    pub fn contains(&self, slot: SlotId) -> bool {
        slot.index < self.generation.len() && self.generation[slot.index] == slot.generation
    }

    /// Insert a sequence, reusing a freed slot when one exists.
    pub fn insert(
        &mut self,
        request: Request,
        remaining: usize,
        first_token_t: f64,
        produced: usize,
        kv: KvSlot,
    ) -> SlotId {
        self.len += 1;
        if let Some(i) = self.free.pop() {
            self.request[i] = request;
            self.remaining[i] = remaining;
            self.first_token_t[i] = first_token_t;
            self.produced[i] = produced;
            self.kv[i] = kv;
            SlotId {
                index: i,
                generation: self.generation[i],
            }
        } else {
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.request.push(request);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.remaining.push(remaining);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.first_token_t.push(first_token_t);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.produced.push(produced);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.kv.push(kv);
            // dcm-lint: allow(A1) slab growth path: amortized doubling, hit only while the live set expands
            self.generation.push(0);
            SlotId {
                index: self.generation.len() - 1,
                generation: 0,
            }
        }
    }

    /// Remove a live sequence, returning its request and invalidating
    /// every outstanding [`SlotId`] for the slot.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    pub fn remove(&mut self, slot: SlotId) -> Request {
        let i = self.idx(slot);
        self.generation[i] = self.generation[i].wrapping_add(1);
        // dcm-lint: allow(A1) free list never exceeds slab capacity, so pushes reuse released capacity
        self.free.push(i);
        self.len -= 1;
        self.request[i]
    }

    /// The sequence's original request.
    ///
    /// # Panics
    /// Panics if `slot` is stale (as do all accessors below).
    #[must_use]
    pub fn request(&self, slot: SlotId) -> Request {
        self.request[self.idx(slot)]
    }

    /// Output tokens still to produce.
    #[must_use]
    pub fn remaining(&self, slot: SlotId) -> usize {
        self.remaining[self.idx(slot)]
    }

    /// Set the remaining output-token budget.
    pub fn set_remaining(&mut self, slot: SlotId, remaining: usize) {
        let i = self.idx(slot);
        self.remaining[i] = remaining;
    }

    /// Simulated time of the first output token.
    #[must_use]
    pub fn first_token_t(&self, slot: SlotId) -> f64 {
        self.first_token_t[self.idx(slot)]
    }

    /// Output tokens produced so far.
    #[must_use]
    pub fn produced(&self, slot: SlotId) -> usize {
        self.produced[self.idx(slot)]
    }

    /// Set the produced-token count.
    pub fn set_produced(&mut self, slot: SlotId, produced: usize) {
        let i = self.idx(slot);
        self.produced[i] = produced;
    }

    /// The sequence's KV-cache slot.
    #[must_use]
    pub fn kv_slot(&self, slot: SlotId) -> KvSlot {
        self.kv[self.idx(slot)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv_cache::PagedKvCache;

    fn req(id: u64) -> Request {
        Request::new(id, 128, 16)
    }

    /// Distinct live KV slots from a scratch cache.
    fn kv_slots(n: u64) -> Vec<KvSlot> {
        let mut cache = PagedKvCache::new(64, 16);
        (0..n).map(|id| cache.admit(id, 1).unwrap()).collect()
    }

    fn kv() -> KvSlot {
        kv_slots(1)[0]
    }

    #[test]
    fn insert_then_read_back() {
        let mut slab = SeqSlab::new();
        let k = kv();
        let a = slab.insert(req(7), 15, 0.25, 1, k);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.request(a).id, 7);
        assert_eq!(slab.remaining(a), 15);
        assert_eq!(slab.first_token_t(a), 0.25);
        assert_eq!(slab.produced(a), 1);
        assert_eq!(slab.kv_slot(a), k);
    }

    #[test]
    fn slots_are_independent() {
        let mut slab = SeqSlab::new();
        let k = kv_slots(2);
        let a = slab.insert(req(0), 10, 0.0, 1, k[0]);
        let b = slab.insert(req(1), 20, 1.0, 1, k[1]);
        slab.set_remaining(a, 9);
        slab.set_produced(b, 2);
        assert_eq!(slab.remaining(a), 9);
        assert_eq!(slab.remaining(b), 20);
        assert_eq!(slab.produced(a), 1);
        assert_eq!(slab.produced(b), 2);
        assert_eq!(slab.kv_slot(a), k[0]);
        assert_eq!(slab.kv_slot(b), k[1]);
    }

    #[test]
    fn freed_slots_are_reused_lifo_and_capacity_stays_flat() {
        let mut slab = SeqSlab::with_capacity(4);
        let ids: Vec<SlotId> = (0..4)
            .map(|i| slab.insert(req(i), 1, 0.0, 1, kv()))
            .collect();
        assert_eq!(slab.capacity(), 4);
        slab.remove(ids[1]);
        slab.remove(ids[3]);
        // LIFO reuse: the most recently freed slot (index of ids[3]) first.
        let c = slab.insert(req(10), 1, 0.0, 1, kv());
        let d = slab.insert(req(11), 1, 0.0, 1, kv());
        assert_eq!(slab.capacity(), 4, "churn must not grow the slab");
        assert_eq!(slab.len(), 4);
        assert_eq!(slab.request(c).id, 10);
        assert_eq!(slab.request(d).id, 11);
    }

    #[test]
    #[should_panic(expected = "stale slot id")]
    fn stale_id_panics_after_reuse() {
        let mut slab = SeqSlab::new();
        let a = slab.insert(req(0), 1, 0.0, 1, kv());
        slab.remove(a);
        let _b = slab.insert(req(1), 1, 0.0, 1, kv()); // same index, new generation
        let _ = slab.remaining(a);
    }

    #[test]
    #[should_panic(expected = "stale slot id")]
    fn double_remove_panics() {
        let mut slab = SeqSlab::new();
        let a = slab.insert(req(0), 1, 0.0, 1, kv());
        slab.remove(a);
        slab.remove(a);
    }

    #[test]
    fn contains_tracks_liveness() {
        let mut slab = SeqSlab::new();
        let a = slab.insert(req(0), 1, 0.0, 1, kv());
        assert!(slab.contains(a));
        slab.remove(a);
        assert!(!slab.contains(a));
        let b = slab.insert(req(1), 1, 0.0, 1, kv());
        assert!(slab.contains(b));
        assert!(!slab.contains(a), "old generation must stay dead");
    }
}
