//! Differential property test: the slot-indexed [`PagedKvCache`] (a
//! dense entry table addressed by generational [`KvSlot`]s, plus a sorted
//! id index) must be observationally identical to the id-keyed
//! `BTreeMap` block manager it replaced, kept here as [`MapKvCache`].
//!
//! Random scripts mix admits (fresh, duplicate and oversized), per-token
//! and bulk appends by id and by slot (bulk appends that run out of
//! blocks part-way included), releases by id and by slot, and calls on
//! unknown ids. After every op both caches must agree on the Ok/Err
//! variant, and on `tokens_of`, `blocks_of` (ids and order),
//! `free_blocks` and `live_sequences` for every id the script can name.

use dcm_core::error::{DcmError, Result};
use dcm_vllm::kv_cache::{PagedKvCache, SeqId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The reference model: the map-keyed block manager, verbatim in its
/// behaviour (count-before-fail appends, LIFO block pops, release order).
#[derive(Debug, Clone)]
struct MapKvCache {
    block_tokens: usize,
    free: Vec<usize>,
    allocated: BTreeMap<SeqId, Vec<usize>>,
    seq_tokens: BTreeMap<SeqId, usize>,
}

impl MapKvCache {
    fn new(num_blocks: usize, block_tokens: usize) -> Self {
        MapKvCache {
            block_tokens,
            free: (0..num_blocks).rev().collect(),
            allocated: BTreeMap::new(),
            seq_tokens: BTreeMap::new(),
        }
    }

    fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    fn admit(&mut self, id: SeqId, tokens: usize) -> Result<()> {
        if self.allocated.contains_key(&id) {
            return Err(DcmError::InvalidConfig(format!(
                "sequence {id} already live"
            )));
        }
        let need = self.blocks_for(tokens.max(1));
        if need > self.free.len() {
            return Err(DcmError::ResourceExhausted(format!(
                "need {need} blocks, {} free",
                self.free.len()
            )));
        }
        let blocks = self.free.split_off(self.free.len() - need);
        self.allocated.insert(id, blocks);
        self.seq_tokens.insert(id, tokens.max(1));
        Ok(())
    }

    fn append_token(&mut self, id: SeqId) -> Result<()> {
        let tokens = self
            .seq_tokens
            .get_mut(&id)
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))?;
        *tokens += 1;
        let need = tokens.div_ceil(self.block_tokens);
        let have = self.allocated[&id].len();
        if need > have {
            let block = self
                .free
                .pop()
                .ok_or_else(|| DcmError::ResourceExhausted("KV cache out of blocks".to_owned()))?;
            self.allocated.get_mut(&id).expect("checked").push(block);
        }
        Ok(())
    }

    fn append_tokens(&mut self, id: SeqId, n: usize) -> Result<()> {
        if n == 0 {
            return Ok(());
        }
        let start = self
            .tokens_of(id)
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))?;
        let have = self.allocated[&id].len();
        let target = start + n;
        let extra = self.blocks_for(target).saturating_sub(have);
        if extra > self.free.len() {
            let capacity_tokens = (have + self.free.len()) * self.block_tokens;
            self.seq_tokens.insert(id, capacity_tokens + 1);
            let blocks = std::mem::take(&mut self.free);
            let alloc = self.allocated.get_mut(&id).expect("checked live");
            alloc.extend(blocks.into_iter().rev());
            return Err(DcmError::ResourceExhausted(
                "KV cache out of blocks".to_owned(),
            ));
        }
        self.seq_tokens.insert(id, target);
        if extra > 0 {
            let from = self.free.len() - extra;
            let alloc = self.allocated.get_mut(&id).expect("checked live");
            alloc.extend(self.free.drain(from..).rev());
        }
        Ok(())
    }

    fn release(&mut self, id: SeqId) -> Result<()> {
        let blocks = self
            .allocated
            .remove(&id)
            .ok_or_else(|| DcmError::InvalidConfig(format!("unknown sequence {id}")))?;
        self.free.extend(blocks);
        self.seq_tokens.remove(&id);
        Ok(())
    }

    fn blocks_of(&self, id: SeqId) -> Option<&[usize]> {
        self.allocated.get(&id).map(Vec::as_slice)
    }

    fn tokens_of(&self, id: SeqId) -> Option<usize> {
        self.seq_tokens.get(&id).copied()
    }
}

/// The Ok/Err variant of a result, for comparison across caches whose
/// error messages need not match.
fn outcome<T>(r: &Result<T>) -> &'static str {
    match r {
        Ok(_) => "Ok",
        Err(DcmError::InvalidConfig(_)) => "InvalidConfig",
        Err(DcmError::ResourceExhausted(_)) => "ResourceExhausted",
        Err(_) => "other error",
    }
}

/// Ids a script draws from: a few more than can be live at once, so
/// unknown-id and duplicate-admit calls both come up.
const IDS: u64 = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slot_table_matches_btreemap_model(
        num_blocks in 1usize..24,
        block_tokens in 1usize..6,
        ops in proptest::collection::vec((0u8..8, 0u64..IDS, 0usize..40), 0..160),
    ) {
        let mut sut = PagedKvCache::new(num_blocks, block_tokens);
        let mut model = MapKvCache::new(num_blocks, block_tokens);
        for &(op, id, n) in &ops {
            // Slot paths (ops 5-7) need a live id; the slot exists exactly
            // when the model holds the id.
            let slot = sut.slot(id);
            prop_assert_eq!(slot.is_some(), model.tokens_of(id).is_some());
            let (got, want) = match (op, slot) {
                (0 | 1, _) => (outcome(&sut.admit(id, n)), outcome(&model.admit(id, n))),
                (2, _) => (outcome(&sut.append_token(id)), outcome(&model.append_token(id))),
                (3, _) => (
                    outcome(&sut.append_tokens(id, n)),
                    outcome(&model.append_tokens(id, n)),
                ),
                (4, _) => (outcome(&sut.release(id)), outcome(&model.release(id))),
                (5, Some(s)) => (outcome(&sut.append_at(s)), outcome(&model.append_token(id))),
                (6, Some(s)) => (
                    outcome(&sut.append_n_at(s, n)),
                    outcome(&model.append_tokens(id, n)),
                ),
                (_, Some(s)) => {
                    sut.release_at(s);
                    ("Ok", outcome(&model.release(id)))
                }
                (_, None) => ("Ok", "Ok"),
            };
            prop_assert_eq!(got, want, "op {} on id {} (n {})", op, id, n);
            prop_assert_eq!(sut.free_blocks(), model.free.len());
            prop_assert_eq!(sut.live_sequences(), model.allocated.len());
            for probe in 0..IDS {
                prop_assert_eq!(sut.tokens_of(probe), model.tokens_of(probe));
                prop_assert_eq!(sut.blocks_of(probe), model.blocks_of(probe));
                if let Some(s) = sut.slot(probe) {
                    prop_assert_eq!(Some(sut.tokens_at(s)), model.tokens_of(probe));
                }
            }
        }
    }
}
