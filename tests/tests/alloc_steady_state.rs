//! Steady-state allocation audit for the million-request hot paths.
//!
//! A counting global allocator wraps `System`; after a warm-up phase that
//! lets every container reach its high-water capacity, the measured
//! windows must allocate **zero** times:
//!
//! * the timing-wheel event queue under hold-model churn (pop-min, push
//!   successor) and under tied-bucket churn (pop one of K events at one
//!   instant, re-push it there) — pre-sizing plus slot heaps that keep
//!   their capacity across pops;
//! * the sequence slab under admit/complete churn — free-list reuse;
//! * the paged KV cache under admit / per-token append / release churn —
//!   vacant table entries keep their block lists' capacity and the id
//!   index stays within the live count;
//! * `BatchStats` under add/grow/remove churn — the sorted-vec histogram
//!   retains capacity across boundary crossings.
//!
//! This file deliberately holds a single `#[test]` so the harness runs
//! nothing concurrently with the measured windows.

use dcm_core::sim::EventQueue;
use dcm_vllm::attention::BatchStats;
use dcm_vllm::dataset::Request;
use dcm_vllm::kv_cache::PagedKvCache;
use dcm_vllm::slab::SeqSlab;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations performed by `f`.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn hot_paths_are_allocation_free_after_warmup() {
    // --- Timing-wheel event queue: hold model -------------------------
    // K events in flight; each iteration pops the minimum and pushes its
    // successor a deterministic stride later. The time pattern cycles, so
    // warm-up visits every bucket-occupancy shape the measured window
    // will; all rebuilds happen during the initial fill.
    const K: usize = 256;
    const SPACING: f64 = 0.5;
    let mut q: EventQueue<u64> = EventQueue::with_capacity(K);
    for i in 0..K {
        let id = u64::try_from(i).expect("small");
        // dcm-lint gets no say here (test crate), but avoid `as` anyway.
        q.push(f64::from(u16::try_from(i).expect("small")) * SPACING, 0, id);
    }
    // Each popped event is re-armed one full revolution later, keeping K
    // events uniformly spaced forever — the stationary regime a saturated
    // decode loop's arrival queue sits in.
    let churn = |q: &mut EventQueue<u64>, iters: usize| {
        let revolution = f64::from(u16::try_from(K).expect("small")) * SPACING;
        for _ in 0..iters {
            let e = q.pop().expect("queue holds K events");
            q.push(e.time + revolution, e.priority, e.payload);
        }
    };
    churn(&mut q, 8 * K); // warm-up: reach steady slot capacities
    let (wheel_allocs, ()) = allocations_in(|| churn(&mut q, 8 * K));
    assert_eq!(
        wheel_allocs, 0,
        "timing wheel allocated {wheel_allocs} times in steady state"
    );

    // --- Timing-wheel event queue: tied-bucket churn ------------------
    // K events at one instant share one bucket (an offline trace, or a
    // crash re-routing its orphans); each iteration pops one and re-pushes
    // it at the same instant, the slot heap shrinking and regrowing by one.
    let mut tied: EventQueue<u64> = EventQueue::with_capacity(K);
    for i in 0..K {
        tied.push(0.0, 0, u64::try_from(i).expect("small"));
    }
    let churn_tied = |q: &mut EventQueue<u64>, iters: usize| {
        for _ in 0..iters {
            let e = q.pop_due(0.0).expect("queue holds K tied events");
            q.push(e.time, e.priority, e.payload);
        }
    };
    churn_tied(&mut tied, 8 * K);
    let (tied_allocs, ()) = allocations_in(|| churn_tied(&mut tied, 8 * K));
    assert_eq!(
        tied_allocs, 0,
        "timing wheel allocated {tied_allocs} times under tied-bucket churn"
    );
    assert_eq!(tied.len(), K);

    // --- Sequence slab: admit/complete churn --------------------------
    const BATCH: usize = 16;
    let mut slab = SeqSlab::with_capacity(BATCH);
    let mut slots = Vec::with_capacity(BATCH);
    // The slab stores a KV slot per sequence; any live one will do.
    let kv_slot = PagedKvCache::new(1, 16).admit(0, 1).expect("one block");
    let fill = |slab: &mut SeqSlab, slots: &mut Vec<_>, base: u64| {
        for i in 0..BATCH {
            let id = base + u64::try_from(i).expect("small");
            slots.push(slab.insert(Request::new(id, 128, 64), 63, 0.5, 1, kv_slot));
        }
    };
    fill(&mut slab, &mut slots, 0);
    let churn_slab = |slab: &mut SeqSlab, slots: &mut Vec<_>, rounds: u64| {
        for r in 0..rounds {
            // Mutate every slot (a decode step), then retire and replace
            // half the batch (completion + admission churn).
            for &s in slots.iter() {
                let rem = slab.remaining(s);
                slab.set_remaining(s, rem.saturating_sub(1));
                slab.set_produced(s, slab.produced(s) + 1);
                assert_eq!(slab.kv_slot(s), kv_slot);
            }
            for _ in 0..BATCH / 2 {
                let s = slots.pop().expect("non-empty");
                slab.remove(s);
            }
            for i in 0..BATCH / 2 {
                let id = 1_000_000 + r * 64 + u64::try_from(i).expect("small");
                slots.push(slab.insert(Request::new(id, 128, 64), 63, 0.5, 1, kv_slot));
            }
        }
    };
    churn_slab(&mut slab, &mut slots, 4);
    let (slab_allocs, ()) = allocations_in(|| churn_slab(&mut slab, &mut slots, 64));
    assert_eq!(
        slab_allocs, 0,
        "slab allocated {slab_allocs} times in steady state"
    );
    assert_eq!(slab.capacity(), BATCH, "churn must not grow the slab");

    // --- Paged KV cache: admit / append / release churn ---------------
    // BATCH sequences each append one token per round; every round the
    // oldest half is released and fresh ids are admitted in its place, so
    // each sequence lives two rounds and its length stays bounded.
    const ROUND_TOKENS: usize = 40;
    let mut kv = PagedKvCache::new(BATCH * 8, 16);
    let mut live = Vec::with_capacity(BATCH);
    let mut next_id = 0u64;
    let mut admit = |kv: &mut PagedKvCache, live: &mut Vec<_>| {
        let slot = kv.admit(next_id, 48).expect("cache sized for the batch");
        live.push(slot);
        next_id += 1;
    };
    for _ in 0..BATCH {
        admit(&mut kv, &mut live);
    }
    let mut churn_kv = |kv: &mut PagedKvCache, live: &mut Vec<_>, rounds: usize| {
        for _ in 0..rounds {
            for _ in 0..ROUND_TOKENS {
                for &s in live.iter() {
                    kv.append_at(s).expect("cache sized for the batch");
                }
            }
            for s in live.drain(..BATCH / 2) {
                kv.release_at(s);
            }
            for _ in 0..BATCH / 2 {
                admit(kv, live);
            }
        }
    };
    churn_kv(&mut kv, &mut live, 8);
    let (kv_allocs, ()) = allocations_in(|| churn_kv(&mut kv, &mut live, 64));
    assert_eq!(
        kv_allocs, 0,
        "KV cache allocated {kv_allocs} times in steady state"
    );
    assert_eq!(kv.live_sequences(), BATCH);

    // --- BatchStats: add/grow/remove churn ----------------------------
    let mut stats = BatchStats::new(128);
    let mut lens = [0usize; BATCH];
    for (i, len) in lens.iter_mut().enumerate() {
        *len = 128 + i * 37;
        stats.add(*len);
    }
    let churn_stats = |stats: &mut BatchStats, lens: &mut [usize; BATCH], rounds: usize| {
        for _ in 0..rounds {
            for len in lens.iter_mut() {
                stats.grow(*len); // crosses block boundaries regularly
                *len += 1;
            }
            // Retire the longest, admit a fresh short one.
            let (imax, &max) = lens
                .iter()
                .enumerate()
                .max_by_key(|&(_, &l)| l)
                .expect("non-empty");
            stats.remove(max);
            lens[imax] = 128;
            stats.add(128);
        }
    };
    churn_stats(&mut stats, &mut lens, 64);
    let (stats_allocs, ()) = allocations_in(|| churn_stats(&mut stats, &mut lens, 512));
    assert_eq!(
        stats_allocs, 0,
        "BatchStats allocated {stats_allocs} times in steady state"
    );
}
