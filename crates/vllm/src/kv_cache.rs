//! The paged KV-cache block manager.
//!
//! vLLM's core idea [42]: divide the KV cache into fixed-size blocks and
//! allocate them on demand as sequences grow, instead of pre-allocating
//! worst-case contiguous buffers. This eliminates fragmentation and raises
//! the maximum batch size (§4.2).
//!
//! Each live sequence owns one entry of a dense table — its token count
//! and its block list — addressed by the generational [`KvSlot`] that
//! [`PagedKvCache::admit`] returns. The serving engine keeps that slot
//! and appends, reads and releases through it, so its per-token decode
//! loop never looks a sequence up by id. The cache is the only owner of
//! per-sequence token counts. A released entry goes on a free list and
//! keeps its block `Vec`'s capacity, so steady-state serving allocates
//! nothing. Release bumps the entry's generation: a stale slot panics
//! instead of touching the entry's next tenant (the pattern of
//! [`SlotId`](crate::slab::SlotId)).
//!
//! A sorted `(id, slot)` index, bounded by the live count, serves the
//! id-keyed calls (`admit`, `release`, `append_token`, `tokens_of`,
//! `block_table`, ...): each resolves the id once and runs the slot
//! path. `tests/tests/prop_kv_diff.rs` pins the cache to the
//! `BTreeMap`-keyed implementation it replaced.

use dcm_core::cast::{u64_to_usize, usize_to_u64};
use dcm_core::error::{DcmError, Result};
use serde::{Deserialize, Serialize};

/// Identifier of one serving request/sequence.
pub type SeqId = u64;

/// Generational handle to one live sequence's cache entry. Returned by
/// [`PagedKvCache::admit`]; invalidated (for panics, not silent reuse)
/// when the sequence is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvSlot {
    index: usize,
    generation: u32,
}

/// One table entry: a live sequence's state, or a vacant entry waiting
/// for its next tenant (its `blocks` empty, its capacity kept).
#[derive(Debug, Clone)]
struct Entry {
    id: SeqId,
    tokens: usize,
    /// Blocks in allocation order.
    blocks: Vec<usize>,
    /// A [`KvSlot`] is live iff its generation matches.
    generation: u32,
}

/// A paged KV-cache block manager for one device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PagedKvCache {
    block_tokens: usize,
    num_blocks: usize,
    free: Vec<usize>,
    entries: Vec<Entry>,
    /// Vacant entry indices, reused LIFO.
    vacant: Vec<usize>,
    /// Live sequences as `(id, slot)`, sorted ascending by id.
    index: Vec<(SeqId, KvSlot)>,
}

/// Semantic equality: same geometry, same free list, and the same live
/// ids holding the same token counts and block lists. The table layout
/// (entry order, vacant entries, generations) does not matter.
impl PartialEq for PagedKvCache {
    fn eq(&self, other: &Self) -> bool {
        self.block_tokens == other.block_tokens
            && self.num_blocks == other.num_blocks
            && self.free == other.free
            && self.index.len() == other.index.len()
            && self
                .index
                .iter()
                .zip(&other.index)
                .all(|(&(a, sa), &(b, sb))| {
                    let (ea, eb) = (self.entry(sa), other.entry(sb));
                    a == b && ea.tokens == eb.tokens && ea.blocks == eb.blocks
                })
    }
}

impl PagedKvCache {
    /// Create a cache of `num_blocks` blocks of `block_tokens` tokens.
    ///
    /// # Panics
    /// Panics if either parameter is zero.
    #[must_use]
    pub fn new(num_blocks: usize, block_tokens: usize) -> Self {
        assert!(num_blocks > 0 && block_tokens > 0);
        PagedKvCache {
            block_tokens,
            num_blocks,
            free: (0..num_blocks).rev().collect(),
            entries: Vec::new(),
            vacant: Vec::new(),
            index: Vec::new(),
        }
    }

    /// Size a cache from device HBM: capacity minus `reserved_bytes`
    /// (weights, activations), divided by the per-block footprint.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if nothing fits.
    pub fn sized_for(
        hbm_capacity_bytes: u64,
        reserved_bytes: u64,
        kv_bytes_per_token: u64,
        block_tokens: usize,
    ) -> Result<Self> {
        let available = hbm_capacity_bytes.saturating_sub(reserved_bytes);
        let block_bytes = kv_bytes_per_token * usize_to_u64(block_tokens);
        let num_blocks = u64_to_usize(available / block_bytes.max(1));
        if num_blocks == 0 {
            return Err(DcmError::ResourceExhausted(format!(
                "no KV blocks fit: {available} B available, {block_bytes} B per block"
            )));
        }
        Ok(Self::new(num_blocks, block_tokens))
    }

    /// Tokens per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Total blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    /// Free blocks.
    #[must_use]
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Blocks needed to hold `tokens` tokens.
    #[must_use]
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Whether a sequence of `tokens` tokens could be admitted right now.
    #[must_use]
    pub fn can_admit(&self, tokens: usize) -> bool {
        self.blocks_for(tokens) <= self.free_blocks()
    }

    /// The live entry `slot` addresses.
    fn entry(&self, slot: KvSlot) -> &Entry {
        let e = &self.entries[slot.index];
        assert_eq!(e.generation, slot.generation, "stale KV slot {slot:?}");
        e
    }

    /// Mutable [`entry`](Self::entry), borrowing only the table so the
    /// caller can still move blocks to and from the free list.
    fn entry_mut(entries: &mut [Entry], slot: KvSlot) -> &mut Entry {
        let e = &mut entries[slot.index];
        assert_eq!(e.generation, slot.generation, "stale KV slot {slot:?}");
        e
    }

    /// The slot of a live sequence.
    #[must_use]
    pub fn slot(&self, id: SeqId) -> Option<KvSlot> {
        self.index
            .binary_search_by_key(&id, |&(i, _)| i)
            .ok()
            .map(|pos| self.index[pos].1)
    }

    /// [`slot`](Self::slot), or the id-keyed calls' unknown-sequence error.
    fn slot_of(&self, id: SeqId) -> Result<KvSlot> {
        self.slot(id)
            // dcm-lint: allow(A1) format! sits in the ok_or_else closure: cold error path, never runs steady-state
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))
    }

    /// Admit a new sequence holding `tokens` tokens (its prompt) and
    /// return the slot that addresses it until its release.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] if blocks are unavailable or
    /// [`DcmError::InvalidConfig`] if the id is live.
    pub fn admit(&mut self, id: SeqId, tokens: usize) -> Result<KvSlot> {
        let pos = match self.index.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(_) => {
                // dcm-lint: allow(A1) duplicate-id error path, never runs steady-state
                return Err(DcmError::InvalidConfig(format!(
                    "sequence {id} already live"
                )));
            }
            Err(pos) => pos,
        };
        let tokens = tokens.max(1);
        let need = self.blocks_for(tokens);
        if need > self.free.len() {
            // dcm-lint: allow(A1) exhaustion error path: admission is checked with can_admit first
            return Err(DcmError::ResourceExhausted(format!(
                "need {need} blocks, {} free",
                self.free.len()
            )));
        }
        let blocks = self.free.drain(self.free.len() - need..);
        let slot = if let Some(index) = self.vacant.pop() {
            let e = &mut self.entries[index];
            e.id = id;
            e.tokens = tokens;
            e.blocks.extend(blocks);
            KvSlot {
                index,
                generation: e.generation,
            }
        } else {
            // dcm-lint: allow(A1) table growth path: hit only while the live set expands
            let blocks = blocks.collect();
            // dcm-lint: allow(A1) table growth path: hit only while the live set expands
            self.entries.push(Entry {
                id,
                tokens,
                blocks,
                generation: 0,
            });
            KvSlot {
                index: self.entries.len() - 1,
                generation: 0,
            }
        };
        // dcm-lint: allow(A1) the index is bounded by the live count, so inserts reuse its capacity
        self.index.insert(pos, (id, slot));
        Ok(slot)
    }

    /// Append one generated token to the sequence at `slot`, allocating a
    /// new block at block boundaries. The token is counted *before* the
    /// block check: a failed append still raises the count by one.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] when out of blocks.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    pub fn append_at(&mut self, slot: KvSlot) -> Result<()> {
        let e = Self::entry_mut(&mut self.entries, slot);
        e.tokens += 1;
        if e.tokens > e.blocks.len() * self.block_tokens {
            let block = self
                .free
                .pop()
                .ok_or_else(|| DcmError::ResourceExhausted("KV cache out of blocks".to_owned()))?;
            // dcm-lint: allow(A1) block list grows once per block_tokens tokens and keeps its capacity across tenants
            e.blocks.push(block);
        }
        Ok(())
    }

    /// Append `n` generated tokens to the sequence at `slot` at once — the
    /// analytic fast-forward's bulk path. Exactly equivalent to `n`
    /// successive [`append_at`](Self::append_at) calls stopping at the
    /// first error, including the count-before-fail accounting (the token
    /// that found no block is still counted) and the block pop order.
    ///
    /// # Errors
    /// Returns [`DcmError::ResourceExhausted`] when the stretch outruns
    /// the free blocks.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    pub fn append_n_at(&mut self, slot: KvSlot, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let free = self.free.len();
        let e = Self::entry_mut(&mut self.entries, slot);
        let have = e.blocks.len();
        let extra = (e.tokens + n)
            .div_ceil(self.block_tokens)
            .saturating_sub(have);
        if extra > free {
            // Mirror the per-token loop's first failure: every free block
            // was consumed on the way there, and the token that found
            // none is counted.
            e.tokens = (have + free) * self.block_tokens + 1;
            e.blocks.extend(self.free.drain(..).rev()); // pop order
            return Err(DcmError::ResourceExhausted(
                "KV cache out of blocks".to_owned(),
            ));
        }
        e.tokens += n;
        e.blocks.extend(self.free.drain(free - extra..).rev()); // pop order
        Ok(())
    }

    /// Release the sequence at `slot`: its blocks return to the free list
    /// and every outstanding copy of `slot` goes stale.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    pub fn release_at(&mut self, slot: KvSlot) {
        let e = Self::entry_mut(&mut self.entries, slot);
        e.generation = e.generation.wrapping_add(1);
        self.free.append(&mut e.blocks); // keeps the entry's capacity
        if let Ok(pos) = self.index.binary_search_by_key(&e.id, |&(i, _)| i) {
            self.index.remove(pos);
        }
        // dcm-lint: allow(A1) the vacant list never exceeds the table's size, so pushes reuse its capacity
        self.vacant.push(slot.index);
    }

    /// Current token count of the sequence at `slot`, including a failed
    /// append's count.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    #[must_use]
    pub fn tokens_at(&self, slot: KvSlot) -> usize {
        self.entry(slot).tokens
    }

    /// Current block list of the sequence at `slot`.
    ///
    /// # Panics
    /// Panics if `slot` is stale.
    #[must_use]
    pub fn blocks_at(&self, slot: KvSlot) -> &[usize] {
        &self.entry(slot).blocks
    }

    /// [`append_at`](Self::append_at) by id.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when out of blocks.
    pub fn append_token(&mut self, id: SeqId) -> Result<()> {
        let slot = self.slot_of(id)?;
        self.append_at(slot)
    }

    /// [`append_n_at`](Self::append_n_at) by id. Appending nothing is a
    /// no-op that succeeds even for an unknown id.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences or
    /// [`DcmError::ResourceExhausted`] when the stretch outruns the free
    /// blocks.
    pub fn append_tokens(&mut self, id: SeqId, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let slot = self.slot_of(id)?;
        self.append_n_at(slot, n)
    }

    /// [`release_at`](Self::release_at) by id.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] for unknown sequences.
    pub fn release(&mut self, id: SeqId) -> Result<()> {
        let slot = self.slot_of(id)?;
        self.release_at(slot);
        Ok(())
    }

    /// Current block list of a live sequence.
    #[must_use]
    pub fn blocks_of(&self, id: SeqId) -> Option<&[usize]> {
        self.slot(id).map(|s| self.blocks_at(s))
    }

    /// Current token count of a live sequence.
    #[must_use]
    pub fn tokens_of(&self, id: SeqId) -> Option<usize> {
        self.slot(id).map(|s| self.tokens_at(s))
    }

    /// Live sequences.
    #[must_use]
    pub fn live_sequences(&self) -> usize {
        self.index.len()
    }

    /// Build the baseline 2-D padded [`crate::block::BlockTable`] over the
    /// given live sequences — the structure the Gaudi vLLM fork hands its
    /// gather kernel (§4.2).
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if any id is not live or the
    /// list is empty.
    pub fn block_table(&self, ids: &[SeqId]) -> Result<crate::block::BlockTable> {
        crate::block::BlockTable::new(&self.collect_blocks(ids)?)
    }

    /// Build the optimized 1-D [`crate::block::BlockList`] over the given
    /// live sequences.
    ///
    /// # Errors
    /// Returns [`DcmError::InvalidConfig`] if any id is not live or the
    /// list is empty.
    pub fn block_list(&self, ids: &[SeqId]) -> Result<crate::block::BlockList> {
        crate::block::BlockList::new(&self.collect_blocks(ids)?)
    }

    fn collect_blocks(&self, ids: &[SeqId]) -> Result<Vec<Vec<usize>>> {
        ids.iter()
            .map(|&id| Ok(self.blocks_at(self.slot_of(id)?).to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_grow_release_cycle() {
        let mut c = PagedKvCache::new(10, 4);
        c.admit(1, 6).unwrap(); // 2 blocks
        assert_eq!(c.free_blocks(), 8);
        assert_eq!(c.blocks_of(1).unwrap().len(), 2);
        // Tokens 7, 8 stay in block 2; token 9 needs block 3.
        c.append_token(1).unwrap();
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1).unwrap().len(), 2);
        c.append_token(1).unwrap();
        assert_eq!(c.blocks_of(1).unwrap().len(), 3);
        assert_eq!(c.tokens_of(1), Some(9));
        c.release(1).unwrap();
        assert_eq!(c.free_blocks(), 10);
        assert_eq!(c.live_sequences(), 0);
    }

    #[test]
    fn append_tokens_matches_repeated_append_token() {
        // Success path: same counts, same block lists, same free list.
        let mut bulk = PagedKvCache::new(10, 4);
        let mut steps = bulk.clone();
        bulk.admit(1, 6).unwrap();
        steps.admit(1, 6).unwrap();
        bulk.append_tokens(1, 7).unwrap();
        for _ in 0..7 {
            steps.append_token(1).unwrap();
        }
        assert_eq!(bulk, steps);
        bulk.append_tokens(1, 0).unwrap();
        assert_eq!(bulk, steps);
        // Failure path: both stop at the first token that finds no block,
        // with identical count-before-fail state.
        let mut bulk = PagedKvCache::new(3, 4);
        let mut steps = bulk.clone();
        bulk.admit(1, 4).unwrap();
        steps.admit(1, 4).unwrap();
        assert!(matches!(
            bulk.append_tokens(1, 100),
            Err(DcmError::ResourceExhausted(_))
        ));
        while steps.append_token(1).is_ok() {}
        assert_eq!(bulk, steps);
        assert_eq!(bulk.tokens_of(1), Some(13)); // 3 blocks * 4 + 1
                                                 // Unknown id.
        assert!(bulk.append_tokens(9, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "stale KV slot")]
    fn stale_slot_panics_after_readmission() {
        let mut c = PagedKvCache::new(4, 4);
        let a = c.admit(1, 1).unwrap();
        c.release_at(a);
        let b = c.admit(2, 1).unwrap();
        assert_eq!(b.index, a.index, "the entry is reused by the next tenant");
        let _ = c.append_at(a);
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut c = PagedKvCache::new(2, 4);
        c.admit(1, 8).unwrap();
        assert!(!c.can_admit(1));
        assert!(matches!(c.admit(2, 1), Err(DcmError::ResourceExhausted(_))));
        assert!(matches!(
            c.append_token(1),
            Err(DcmError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn duplicate_and_unknown_ids_error() {
        let mut c = PagedKvCache::new(4, 4);
        c.admit(1, 1).unwrap();
        assert!(c.admit(1, 1).is_err());
        assert!(c.append_token(99).is_err());
        assert!(c.release(99).is_err());
    }

    #[test]
    fn sized_for_device_capacity() {
        // 8B model on Gaudi-2: 16 GB of weights, 128 KiB KV per token,
        // 128-token blocks => 16 MiB per block.
        let c = PagedKvCache::sized_for(96 << 30, 16 << 30, 128 << 10, 128).unwrap();
        assert_eq!(c.num_blocks(), 5120);
        assert!(PagedKvCache::sized_for(1 << 30, 1 << 30, 1 << 10, 128).is_err());
    }

    #[test]
    fn blocks_are_reused_after_release() {
        let mut c = PagedKvCache::new(3, 2);
        c.admit(1, 6).unwrap();
        c.release(1).unwrap();
        c.admit(2, 6).unwrap();
        assert_eq!(c.blocks_of(2).unwrap().len(), 3);
    }

    #[test]
    fn block_layouts_reflect_live_state() {
        let mut c = PagedKvCache::new(16, 4);
        c.admit(1, 9).unwrap(); // 3 blocks
        c.admit(2, 3).unwrap(); // 1 block
        let table = c.block_table(&[1, 2]).unwrap();
        let list = c.block_list(&[1, 2]).unwrap();
        assert_eq!(table.batch(), 2);
        assert_eq!(table.width(), 3);
        assert_eq!(table.effectual_gathers(), 4);
        assert_eq!(table.redundant_gathers(), 2); // seq 2 padded 1 -> 3
        assert_eq!(list.total_gathers(), 4);
        assert_eq!(list.blocks_of(0), c.blocks_of(1).unwrap());
        // Growth is visible in fresh layouts.
        for _ in 0..4 {
            c.append_token(2).unwrap();
        }
        let list2 = c.block_list(&[1, 2]).unwrap();
        assert_eq!(list2.blocks_of(1).len(), 2);
        // Unknown ids error.
        assert!(c.block_table(&[9]).is_err());
        assert!(c.block_list(&[]).is_err());
    }

    #[test]
    fn paging_admits_more_than_worst_case_reservation() {
        // The motivating property: with 16 blocks of 4 tokens, paged
        // allocation admits 8 sequences of 8 actual tokens, where a
        // worst-case (say 32-token) contiguous reservation would admit 2.
        let mut c = PagedKvCache::new(16, 4);
        for id in 0..8 {
            c.admit(id, 8).unwrap();
        }
        assert_eq!(c.live_sequences(), 8);
        assert_eq!(c.free_blocks(), 0);
    }
}
