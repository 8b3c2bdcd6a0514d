//! A fixed reference kernel that reads how fast the host runs simulator
//! code at this moment.
//!
//! On a shared host, neighbours slow the same call — same inputs, same
//! output — by up to 1.8x, in phases from seconds to minutes, so the
//! raw wall time of a run depends on which phases it met. The probe is
//! a small discrete-event loop (a binary heap of timestamps over a
//! per-entity state table, branchy integer and floating-point work, the
//! instruction mix of the simulator's own event loop) that belongs to
//! the benchmark and never changes, so its time moves only with the
//! host. Timed right before and after a call, it slows with the call,
//! so a call's time divided by the probe's time around it moves far
//! less with the host than the call's time does (`BASELINE.md`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

const ENTITIES: usize = 20_000;
const EVENTS: usize = 40_000;

/// Probe time that scaled times are expressed against: a call is
/// reported as its wall time × `REFERENCE_S` ÷ the probe time around it.
/// It is about the probe's time on the 2-vCPU host the benchmark was
/// built on when no neighbour slows it.
pub const REFERENCE_S: f64 = 0.006;

/// The host's speed now: the faster of two back-to-back runs of the
/// reference kernel, in seconds. Two runs halve the chance that a
/// momentary stall stands for the stretch around it.
pub fn probe_s() -> f64 {
    kernel_s().min(kernel_s())
}

/// One run of the reference kernel; returns its wall time in seconds.
fn kernel_s() -> f64 {
    let t = Instant::now();
    // 64-byte entities, like the simulator's per-request records.
    let mut state = vec![(0_u64, 0.0_f64, 0_u32, 0_u32, 0.0_f64, [0_u64; 5]); ENTITIES];
    let mut heap = BinaryHeap::with_capacity(ENTITIES);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..ENTITIES as u32 {
        heap.push(Reverse((next(&mut x) % 1_000_000, i)));
    }
    let mut acc = 0.0;
    for _ in 0..EVENTS {
        let Some(Reverse((at, i))) = heap.pop() else {
            break;
        };
        let s = &mut state[i as usize];
        s.0 += 1;
        s.1 += (at as f64).sqrt();
        s.2 = s.2.wrapping_add(i);
        acc += s.1 * 1e-9;
        let r = next(&mut x);
        state[(r % ENTITIES as u64) as usize].4 += acc;
        heap.push(Reverse((at + 1 + r % 5_000, i)));
    }
    std::hint::black_box((acc, &state));
    t.elapsed().as_secs_f64()
}

/// xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
