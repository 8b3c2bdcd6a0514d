//! Simulator performance baseline and regression gate:
//! `results/BENCH_dcm.json`.
//!
//! Every other binary in this crate regenerates a *paper* artifact; this
//! one measures the simulator itself, establishing the repo's perf
//! trajectory so future PRs can demonstrate wins and catch regressions:
//!
//! 1. **Decode-step costing** — ns/call for the O(batch) slice path
//!    (`decode_cost`, which rebuilds the aggregates every call) vs the
//!    O(1) incremental path (`decode_cost_from_stats`) at several batch
//!    sizes. The engine hot loop uses the latter; the ratio is the
//!    per-step win of the incremental-statistics rewrite.
//! 2. **Engine throughput** — simulated output tokens and completed
//!    requests per wall-second for a single-engine offline run and a
//!    4-replica cluster run.
//! 3. **Fast-forward throughput** — the same engine in the
//!    million-request configuration (analytic fast-forward + log-histogram
//!    metrics) on a long steady-decode workload; the headline
//!    `speedup_vs_pr4_offline` ratio is measured against the checked-in
//!    PR 4 reference constant. `cluster_ff` is the cluster-tier analog:
//!    a 4-replica round-robin cluster with fast-forward on every replica
//!    and lazy per-replica horizons, with `speedup_vs_exact_cluster`
//!    measured against the frozen exact-cluster reference constant and a
//!    hard >= 100x floor in `--check`.
//! 4. **Tied event drain** — ns/event to push 16 384 arrivals at one
//!    instant and drain them with `pop_due`, the offline-trace pattern in
//!    which every event shares one calendar bucket (`queue_ties`).
//! 5. **KV append** — ns per slot-path `PagedKvCache::append_at`, the
//!    engine's per-token decode-loop call, over a batch-64 wave of
//!    4 096-token sequences with 128-token blocks (`kv_append`).
//! 6. **Sweep parallelism** — wall-clock for an 8-point cluster sweep
//!    evaluated serially (`threads = 1`) vs on the ambient
//!    [`dcm_core::par::thread_count`]. On a multi-core host the ratio
//!    approaches the core count; `host_parallelism` is recorded so a
//!    1-core CI box's ~1.0x is read as environment, not regression.
//!
//! Timings use wall-clock medians of several repetitions; the simulated
//! *results* are deterministic, only the timings vary run to run.
//! `DCM_SMOKE=1` shrinks iteration counts for CI and writes the artifact
//! to `results/BENCH_dcm.smoke.json` so the checked-in baseline stays
//! pristine.
//!
//! **Regression gate:** `perf_report --check` re-measures, writes
//! `results/BENCH_dcm.check.json`, and compares against the checked-in
//! `results/BENCH_dcm.json` with generous tolerance bands (3x on ns/call
//! and on tokens/wall-s — wide enough to absorb CI noise, tight enough
//! to catch an accidental O(n) reintroduction). Sweep-parallelism is
//! only compared when both the baseline and the current host are
//! multi-core; throughput bands are skipped under `DCM_SMOKE=1` (the
//! shrunken workload amortizes fixed costs differently) while the
//! per-call costing bands still apply.

use dcm_core::cast::usize_to_f64;
use dcm_core::metrics::MetricsMode;
use dcm_core::sim::EventQueue;
use dcm_core::DeviceSpec;
use dcm_net::{Collective, FlowTransport, MultiNodeFlowTransport};
use dcm_vllm::attention::{BatchStats, PagedAttention, PagedBackend};
use dcm_vllm::cluster::{Cluster, RoutingPolicy};
use dcm_vllm::dataset::{ArrivalProcess, SyntheticDataset};
use dcm_vllm::engine::ServingEngine;
use dcm_vllm::kv_cache::PagedKvCache;
use dcm_workloads::llama::LlamaConfig;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const TRACE_SEED: u64 = 2026;
const MAX_DECODE_BATCH: usize = 16;

/// PR 4 offline-engine throughput (sim tokens per wall-second) on the
/// reference CI box — the denominator of the headline fast-forward
/// speedup. Frozen; regenerating the baseline does not move it.
const PR4_OFFLINE_TOKENS_PER_WALL_S: f64 = 3_105_795.3;

/// Exact-mode 4-replica cluster throughput (sim tokens per wall-second)
/// on the reference CI box before cluster fast-forward landed — the
/// denominator of the `cluster_ff` speedup and of its >= 100x floor in
/// `--check`. Frozen; regenerating the baseline does not move it.
const CLUSTER_EXACT_TOKENS_PER_WALL_S: f64 = 1_093_804.4;

/// Regression bands: a metric may degrade to 1/3 of (or cost 3x) its
/// baseline before the gate fails. Wide enough for shared-CI noise,
/// tight enough to catch complexity-class regressions.
const CHECK_BAND: f64 = 3.0;

fn costing_iters() -> usize {
    if dcm_bench::smoke() {
        2_000
    } else {
        20_000
    }
}

fn trace_len() -> usize {
    if dcm_bench::smoke() {
        8
    } else {
        64
    }
}

/// Fast-forward workload shape `(requests, output_len)`: long uniform
/// generations keep the engine in steady decode stretches, the regime
/// the analytic fast-forward collapses to closed form.
fn ff_shape() -> (usize, usize) {
    if dcm_bench::smoke() {
        (32, 512)
    } else {
        (256, 4096)
    }
}

fn timing_reps() -> usize {
    if dcm_bench::smoke() {
        3
    } else {
        5
    }
}

/// Median wall-clock seconds of `reps` runs of `f` (which returns a
/// value that must not be optimized away; the caller keeps the last).
fn median_time_s<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], last.expect("reps >= 1"))
}

/// One JSON object line `"key": {...}` per costing batch size.
struct CostingRow {
    batch: usize,
    slice_ns: f64,
    stats_ns: f64,
}

fn bench_costing(attention: &PagedAttention) -> Vec<CostingRow> {
    let iters = costing_iters();
    let mut rows = Vec::new();
    for &batch in &[8usize, 64, 256] {
        // A mildly skewed batch so the block histogram has depth.
        let lens: Vec<usize> = (0..batch).map(|i| 1024 + 97 * (i % 11)).collect();
        let stats = BatchStats::from_lens(&lens, stats_block_tokens(attention));
        let (slice_s, slice_sum) = median_time_s(timing_reps(), || {
            let mut acc = 0.0_f64;
            for _ in 0..iters {
                acc += attention.decode_cost(&lens, 0.0).time();
            }
            acc
        });
        let (stats_s, stats_sum) = median_time_s(timing_reps(), || {
            let mut acc = 0.0_f64;
            for _ in 0..iters {
                acc += attention.decode_cost_from_stats(&stats, 0.0).time();
            }
            acc
        });
        assert_eq!(
            slice_sum.to_bits(),
            stats_sum.to_bits(),
            "slice and stats paths must price identically"
        );
        rows.push(CostingRow {
            batch,
            slice_ns: slice_s / usize_to_f64(iters) * 1e9,
            stats_ns: stats_s / usize_to_f64(iters) * 1e9,
        });
    }
    rows
}

/// The engine asserts stats/model block-size agreement; mirror the
/// default here (the bench constructs its own accumulator).
fn stats_block_tokens(attention: &PagedAttention) -> usize {
    attention.batch_stats().block_tokens()
}

struct EngineRun {
    wall_s: f64,
    sim_tokens: usize,
    completed: usize,
}

impl EngineRun {
    fn tokens_per_wall_s(&self) -> f64 {
        safe_div(usize_to_f64(self.sim_tokens), self.wall_s)
    }

    fn requests_per_wall_s(&self) -> f64 {
        safe_div(usize_to_f64(self.completed), self.wall_s)
    }
}

fn bench_engine_offline() -> EngineRun {
    let gaudi = dcm_bench::device("gaudi2");
    let model = LlamaConfig::llama31_8b();
    let trace = SyntheticDataset::dynamic_sonnet(trace_len(), TRACE_SEED);
    let (wall_s, report) = median_time_s(timing_reps(), || {
        ServingEngine::new(
            &gaudi,
            model.clone(),
            1,
            PagedBackend::GaudiOpt,
            MAX_DECODE_BATCH,
        )
        .run(&trace)
        .expect("offline trace fits")
    });
    EngineRun {
        wall_s,
        sim_tokens: report.total_output_tokens,
        completed: report.completed,
    }
}

/// The million-request configuration: analytic fast-forward plus
/// log-histogram metrics on a long steady-decode workload. Counts are
/// exact (see `tests/tests/prop_fast_forward.rs`); only timestamps are
/// trapezoid-approximate.
fn bench_engine_ff() -> EngineRun {
    let gaudi = dcm_bench::device("gaudi2");
    let model = LlamaConfig::llama31_8b();
    let (n, output_len) = ff_shape();
    let trace = SyntheticDataset::fixed(n, 128, output_len);
    let (wall_s, report) = median_time_s(timing_reps(), || {
        ServingEngine::new(
            &gaudi,
            model.clone(),
            1,
            PagedBackend::GaudiOpt,
            MAX_DECODE_BATCH,
        )
        .with_fast_forward(true)
        .with_metrics_mode(MetricsMode::Histogram)
        .run(&trace)
        .expect("offline trace fits")
    });
    assert_eq!(report.completed, n, "fast-forward must complete the trace");
    EngineRun {
        wall_s,
        sim_tokens: report.total_output_tokens,
        completed: report.completed,
    }
}

fn cluster_point(rate_scale: f64) -> dcm_vllm::cluster::ClusterReport {
    let gaudi = dcm_bench::device("gaudi2");
    let model = LlamaConfig::llama31_8b();
    let replicas = 4;
    let trace = SyntheticDataset::dynamic_sonnet_online(
        trace_len() * replicas,
        TRACE_SEED,
        &ArrivalProcess::Poisson {
            rate_rps: rate_scale,
        },
    );
    Cluster::homogeneous(
        &gaudi,
        &model,
        1,
        PagedBackend::GaudiOpt,
        MAX_DECODE_BATCH,
        replicas,
        RoutingPolicy::JoinShortestQueue,
    )
    .run(&trace)
    .expect("online trace fits")
}

fn bench_cluster() -> EngineRun {
    let (wall_s, report) = median_time_s(timing_reps(), || cluster_point(2.0));
    EngineRun {
        wall_s,
        sim_tokens: report.serving.total_output_tokens,
        completed: report.serving.completed,
    }
}

/// The cluster-tier million-request configuration: every replica runs
/// analytic fast-forward + log-histogram metrics, routing is round-robin
/// (state-oblivious, so the lazy-horizon dispatch advances no replica
/// per arrival — each replica fast-forwards its whole share in long
/// stretches), and the trace is an online stream of long generations
/// arriving in batch-submission waves (one full cluster batch per wave —
/// wave-aligned batches complete together, the regime the decode
/// stretch collapses to closed form). Counts stay exact
/// (`tests/tests/prop_cluster_ff.rs`); only timestamps carry the
/// documented drift bound.
fn bench_cluster_ff() -> EngineRun {
    let gaudi = dcm_bench::device("gaudi2");
    let model = LlamaConfig::llama31_8b();
    let replicas = 4;
    let (n, output_len) = ff_shape();
    let mut trace = SyntheticDataset::fixed(n, 128, output_len);
    let wave = replicas * MAX_DECODE_BATCH;
    for (i, r) in trace.iter_mut().enumerate() {
        r.arrival_s = 4.0 * usize_to_f64(i / wave); // one cluster batch per wave
    }
    let (wall_s, report) = median_time_s(timing_reps(), || {
        Cluster::homogeneous(
            &gaudi,
            &model,
            1,
            PagedBackend::GaudiOpt,
            MAX_DECODE_BATCH,
            replicas,
            RoutingPolicy::RoundRobin,
        )
        .with_fast_forward(true)
        .with_metrics_mode(MetricsMode::Histogram)
        .run(&trace)
        .expect("online trace fits")
    });
    assert_eq!(
        report.serving.completed, n,
        "cluster fast-forward must complete the trace"
    );
    EngineRun {
        wall_s,
        sim_tokens: report.serving.total_output_tokens,
        completed: report.serving.completed,
    }
}

struct SweepTiming {
    points: usize,
    serial_s: f64,
    parallel_s: f64,
    threads: usize,
}

fn bench_sweep() -> SweepTiming {
    let points: Vec<f64> = (1..=8).map(|i| 0.5 * f64::from(i)).collect();
    let (serial_s, serial_reports) = median_time_s(timing_reps(), || {
        dcm_core::par::par_map(&points, 1, |&rate| cluster_point(rate))
    });
    let threads = dcm_core::par::thread_count();
    let (parallel_s, parallel_reports) = median_time_s(timing_reps(), || {
        dcm_core::par::par_map(&points, threads, |&rate| cluster_point(rate))
    });
    for (s, p) in serial_reports.iter().zip(&parallel_reports) {
        assert_eq!(
            s.serving.throughput_tps.to_bits(),
            p.serving.throughput_tps.to_bits(),
            "sweep results must be bit-identical at any thread count"
        );
    }
    SweepTiming {
        points: points.len(),
        serial_s,
        parallel_s,
        threads,
    }
}

struct FabricTiming {
    collective_us: f64,
    multinode_us: f64,
}

/// Cost of one emergent-fabric evaluation: a full flow-level AllReduce
/// on the 8-device mesh, and a hierarchical 16-node all-reduce. Each
/// call builds a topology, schedules the flow DAG and runs the fluid
/// simulation to completion — the number that bounds how freely bench
/// sweeps can call into the emergent layer.
fn bench_fabric() -> FabricTiming {
    let iters = if dcm_bench::smoke() { 20 } else { 200 };
    let spec = DeviceSpec::gaudi2();
    let (coll_s, coll_acc) = median_time_s(timing_reps(), || {
        let transport = FlowTransport::new(&spec);
        let mut acc = 0.0_f64;
        for _ in 0..iters {
            acc += transport.time(Collective::AllReduce, 32 << 20, 8);
        }
        acc
    });
    let (multi_s, multi_acc) = median_time_s(timing_reps(), || {
        let transport = MultiNodeFlowTransport::new(&spec, 16);
        let mut acc = 0.0_f64;
        for _ in 0..iters {
            acc += transport.allreduce_time(1 << 30);
        }
        acc
    });
    assert!(coll_acc > 0.0 && multi_acc > 0.0, "fabric produced no time");
    FabricTiming {
        collective_us: coll_s / usize_to_f64(iters) * 1e6,
        multinode_us: multi_s / usize_to_f64(iters) * 1e6,
    }
}

/// Events in the tied drain: an offline Dynamic-Sonnet trace's size.
const TIED_EVENTS: usize = 16_384;

/// Cost per event of a tied burst: `TIED_EVENTS` arrivals pushed at
/// t = 0 and drained with `pop_due(0.0)`, the engine's promote-arrivals
/// pattern on an offline trace. Every event lands in one calendar bucket,
/// so this times the per-bucket selection alone: O(log k) per pop with
/// the slot heaps, where a linear bucket scan makes the drain O(n²)
/// (≈30 µs vs ≈0.17 µs per event on a 2-vCPU VM). Fixed size in every
/// mode, so the band applies under `DCM_SMOKE` too.
fn bench_queue_ties() -> f64 {
    let (s, popped) = median_time_s(timing_reps(), || {
        let mut q = EventQueue::with_capacity(TIED_EVENTS);
        for i in 0..TIED_EVENTS {
            q.push(0.0, 0, i);
        }
        std::iter::from_fn(|| q.pop_due(0.0)).count()
    });
    assert_eq!(popped, TIED_EVENTS, "tied drain lost events");
    s / usize_to_f64(TIED_EVENTS) * 1e9
}

/// The KV append wave: sequences, tokens each grows to, tokens per block.
const KV_WAVE_BATCH: usize = 64;
const KV_WAVE_TOKENS: usize = 4096;
const KV_BLOCK_TOKENS: usize = 128;

/// Cost per slot-path KV append: `KV_WAVE_BATCH` sequences admitted with
/// one token each grow one token per step, round-robin, to
/// `KV_WAVE_TOKENS` through `PagedKvCache::append_at` (the call the
/// engine's decode loop makes per generated token), then are released.
/// Fixed size in every mode, so the band applies under `DCM_SMOKE` too.
fn bench_kv_append() -> f64 {
    let blocks = KV_WAVE_BATCH * KV_WAVE_TOKENS / KV_BLOCK_TOKENS;
    let mut kv = PagedKvCache::new(blocks, KV_BLOCK_TOKENS);
    let mut slots = Vec::with_capacity(KV_WAVE_BATCH);
    let (s, tokens) = median_time_s(timing_reps(), || {
        for id in (0u64..).take(KV_WAVE_BATCH) {
            slots.push(kv.admit(id, 1).expect("cache sized for the wave"));
        }
        for _ in 1..KV_WAVE_TOKENS {
            for &slot in &slots {
                kv.append_at(slot).expect("cache sized for the wave");
            }
        }
        let tokens: usize = slots.iter().map(|&slot| kv.tokens_at(slot)).sum();
        for slot in slots.drain(..) {
            kv.release_at(slot);
        }
        tokens
    });
    assert_eq!(
        tokens,
        KV_WAVE_BATCH * KV_WAVE_TOKENS,
        "KV wave lost tokens"
    );
    s / usize_to_f64(KV_WAVE_BATCH * (KV_WAVE_TOKENS - 1)) * 1e9
}

struct LintTiming {
    wall_s: f64,
    files_scanned: usize,
    functions_indexed: usize,
    call_edges: usize,
}

/// Wall-clock of one full `dcm-lint` workspace scan (lex + parse + call
/// graph + every rule), recorded so the static-analysis gate's cost is
/// part of the repo's perf trajectory: the item-level parser and graph
/// traversals must stay cheap enough to run ahead of clippy on every CI
/// invocation.
fn bench_lint() -> LintTiming {
    let t0 = Instant::now();
    let out = dcm_lint::run(Path::new("."), false).expect("lint scan for timing");
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        out.summary.files_scanned > 50,
        "lint timing scanned a truncated tree"
    );
    LintTiming {
        wall_s,
        files_scanned: out.summary.files_scanned,
        functions_indexed: out.summary.functions_indexed,
        call_edges: out.summary.call_edges,
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Slice out the balanced `{...}` object following `"name":` in a
/// hand-rolled JSON document. Sufficient for the flat two-level schema
/// this binary emits (no strings containing braces).
fn json_section<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let start = doc.find(&tag)? + tag.len();
    let rest = &doc[start..];
    let open = rest.find('{')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split the `"name": [...]` array in `doc` into its `{...}` elements.
fn json_section_array<'a>(doc: &'a str, name: &str) -> Option<Vec<&'a str>> {
    let tag = format!("\"{name}\":");
    let start = doc.find(&tag)? + tag.len();
    let rest = &doc[start..];
    let open = rest.find('[')?;
    let close = rest[open..].find(']')? + open;
    let body = &rest[open + 1..close];
    let mut out = Vec::new();
    let mut cursor = body;
    while let Some(s) = cursor.find('{') {
        let e = cursor[s..].find('}')? + s;
        out.push(&cursor[s..=e]);
        cursor = &cursor[e + 1..];
    }
    Some(out)
}

/// Parse the number following `"key":` inside `scope`.
fn json_number(scope: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let start = scope.find(&tag)? + tag.len();
    let rest = scope[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

struct Measured {
    costing: Vec<CostingRow>,
    offline: EngineRun,
    cluster: EngineRun,
    engine_ff: EngineRun,
    cluster_ff: EngineRun,
    sweep: SweepTiming,
    fabric: FabricTiming,
    lint: LintTiming,
    queue_ties_ns: f64,
    kv_append_ns: f64,
    host_parallelism: usize,
}

/// Compare the fresh measurement against the checked-in baseline.
/// Returns human-readable failure lines (empty = gate passes).
fn check_against_baseline(m: &Measured, baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut checked = 0usize;

    // Per-call costing bands apply in every mode: ns/call is normalized,
    // so the smoke iteration shrink does not distort it.
    if let Some(rows) = json_section_array(baseline, "decode_costing") {
        for row in &rows {
            let (Some(batch), Some(base_ns)) = (
                json_number(row, "batch"),
                json_number(row, "stats_ns_per_call"),
            ) else {
                failures.push(format!("baseline costing row unparseable: {row}"));
                continue;
            };
            let Some(meas) = m
                .costing
                .iter()
                .find(|r| usize_to_f64(r.batch).to_bits() == batch.to_bits())
            else {
                failures.push(format!("no measured costing row for batch {batch}"));
                continue;
            };
            checked += 1;
            let line = format!(
                "decode_cost_from_stats batch {batch}: {:.1} ns/call vs baseline {base_ns:.1}",
                meas.stats_ns
            );
            if meas.stats_ns > base_ns * CHECK_BAND {
                failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
            } else {
                println!("  ok   {line}");
            }
        }
    } else {
        failures.push("baseline has no decode_costing section".to_owned());
    }

    // Throughput bands: only meaningful when the workload shape matches
    // the baseline's (both smoke or both full).
    let base_smoke = baseline.contains("\"smoke\": true");
    if base_smoke == dcm_bench::smoke() {
        let runs: [(&str, f64); 3] = [
            ("offline_engine", m.offline.tokens_per_wall_s()),
            ("cluster_4_replicas", m.cluster.tokens_per_wall_s()),
            ("engine_ff", m.engine_ff.tokens_per_wall_s()),
        ];
        for (name, measured) in runs {
            let Some(base) =
                json_section(baseline, name).and_then(|s| json_number(s, "sim_tokens_per_wall_s"))
            else {
                failures.push(format!("baseline has no {name}.sim_tokens_per_wall_s"));
                continue;
            };
            checked += 1;
            let line = format!("{name}: {measured:.0} sim tokens/wall-s vs baseline {base:.0}");
            if measured < base / CHECK_BAND {
                failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
            } else {
                println!("  ok   {line}");
            }
        }
        // Cluster fast-forward band: guarded on the section existing so
        // a baseline regenerated before cluster_ff landed still gates
        // everything else (skip-with-note, like the fabric section).
        if let Some(base) = json_section(baseline, "cluster_ff")
            .and_then(|s| json_number(s, "sim_tokens_per_wall_s"))
        {
            checked += 1;
            let measured = m.cluster_ff.tokens_per_wall_s();
            let line = format!("cluster_ff: {measured:.0} sim tokens/wall-s vs baseline {base:.0}");
            if measured < base / CHECK_BAND {
                failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
            } else {
                println!("  ok   {line}");
            }
        } else {
            println!("  skip cluster_ff band: baseline predates the cluster_ff section");
        }
        // The headline acceptance floors: fast-forward throughput must
        // hold >= 100x its frozen exact-mode reference, at the engine
        // tier (vs the PR 4 offline engine) and at the cluster tier (vs
        // the exact 4-replica cluster).
        if !dcm_bench::smoke() {
            checked += 1;
            let ratio = m.engine_ff.tokens_per_wall_s() / PR4_OFFLINE_TOKENS_PER_WALL_S;
            let line = format!("engine_ff speedup vs PR 4 offline: {ratio:.0}x (floor 100x)");
            if ratio < 100.0 {
                failures.push(format!("FAIL {line}"));
            } else {
                println!("  ok   {line}");
            }
            checked += 1;
            let ratio = m.cluster_ff.tokens_per_wall_s() / CLUSTER_EXACT_TOKENS_PER_WALL_S;
            let line =
                format!("cluster_ff speedup vs frozen exact cluster: {ratio:.0}x (floor 100x)");
            if ratio < 100.0 {
                failures.push(format!("FAIL {line}"));
            } else {
                println!("  ok   {line}");
            }
        }
    } else {
        println!("  skip throughput bands: smoke mode differs from baseline");
    }

    // Fabric costing: ns/call-scale like decode costing, so the band
    // applies in every mode. Guarded on the section existing so a
    // baseline regenerated before the fabric landed still gates the rest.
    if let Some(base_us) =
        json_section(baseline, "fabric").and_then(|s| json_number(s, "collective_us_per_call"))
    {
        checked += 1;
        let line = format!(
            "fabric AllReduce: {:.1} us/call vs baseline {base_us:.1}",
            m.fabric.collective_us
        );
        if m.fabric.collective_us > base_us * CHECK_BAND {
            failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
        } else {
            println!("  ok   {line}");
        }
    } else {
        println!("  skip fabric band: baseline predates the fabric section");
    }

    // Lint scan wall-time: the static-analysis gate runs on every CI
    // invocation, so a parser or graph-traversal blowup is a perf
    // regression like any other. Guarded on the section existing.
    if let Some(base_s) = json_section(baseline, "lint").and_then(|s| json_number(s, "wall_s")) {
        checked += 1;
        let line = format!(
            "lint scan: {:.3} s wall vs baseline {base_s:.3}",
            m.lint.wall_s
        );
        if m.lint.wall_s > base_s * CHECK_BAND {
            failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
        } else {
            println!("  ok   {line}");
        }
    } else {
        println!("  skip lint band: baseline predates the lint section");
    }

    // Tied drain: ns/event at a fixed size, so the band applies in every
    // mode. Catches an O(n) per-pop bucket scan (≈180x at this n).
    // Guarded on the section existing.
    if let Some(base_ns) =
        json_section(baseline, "queue_ties").and_then(|s| json_number(s, "ns_per_event"))
    {
        checked += 1;
        let line = format!(
            "tied drain: {:.1} ns/event vs baseline {base_ns:.1}",
            m.queue_ties_ns
        );
        if m.queue_ties_ns > base_ns * CHECK_BAND {
            failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
        } else {
            println!("  ok   {line}");
        }
    } else {
        println!("  skip queue_ties band: baseline predates the queue_ties section");
    }

    // Slot-path KV append: ns/append at a fixed size, so the band applies
    // in every mode. Catches a per-token id lookup or allocation creeping
    // back into the decode loop's cache call. Guarded on the section
    // existing.
    if let Some(base_ns) =
        json_section(baseline, "kv_append").and_then(|s| json_number(s, "ns_per_append"))
    {
        checked += 1;
        let line = format!(
            "KV append: {:.2} ns/append vs baseline {base_ns:.2}",
            m.kv_append_ns
        );
        if m.kv_append_ns > base_ns * CHECK_BAND {
            failures.push(format!("FAIL {line} (band {CHECK_BAND}x)"));
        } else {
            println!("  ok   {line}");
        }
    } else {
        println!("  skip kv_append band: baseline predates the kv_append section");
    }

    // Sweep parallelism: a 1-core box measures ~1.0x by construction, so
    // only compare when both the baseline host and this host have cores
    // to scale onto.
    let base_host = json_number(baseline, "host_parallelism").unwrap_or(1.0);
    if m.host_parallelism > 1 && base_host > 1.0 {
        let base_speedup = json_section(baseline, "sweep")
            .and_then(|s| json_number(s, "speedup"))
            .unwrap_or(1.0);
        let measured = safe_div(m.sweep.serial_s, m.sweep.parallel_s);
        checked += 1;
        let line = format!("sweep speedup: {measured:.2}x vs baseline {base_speedup:.2}x");
        if measured < base_speedup / 2.0 {
            failures.push(format!("FAIL {line} (band 2x)"));
        } else {
            println!("  ok   {line}");
        }
    } else {
        println!(
            "  skip sweep-parallelism band: host_parallelism {} vs baseline {base_host:.0}",
            m.host_parallelism
        );
    }

    if checked == 0 {
        failures.push("perf gate compared nothing — baseline unreadable?".to_owned());
    }
    failures
}

fn render_json(m: &Measured) -> String {
    // Hand-rolled JSON (the offline workspace has no serde_json); every
    // value below is a finite number or small literal, so no escaping is
    // needed.
    let mut j = String::new();
    j.push_str("{\n");
    let _ = writeln!(j, "  \"schema\": \"dcm-bench-v2\",");
    let _ = writeln!(j, "  \"smoke\": {},", dcm_bench::smoke());
    let _ = writeln!(j, "  \"host_parallelism\": {},", m.host_parallelism);
    let _ = writeln!(j, "  \"dcm_threads\": {},", m.sweep.threads);
    let _ = writeln!(j, "  \"costing_iters\": {},", costing_iters());
    let _ = writeln!(
        j,
        "  \"reference\": {{\"pr4_offline_sim_tokens_per_wall_s\": {PR4_OFFLINE_TOKENS_PER_WALL_S}, \"exact_cluster_sim_tokens_per_wall_s\": {CLUSTER_EXACT_TOKENS_PER_WALL_S}}},"
    );
    j.push_str("  \"decode_costing\": [\n");
    for (i, r) in m.costing.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"batch\": {}, \"slice_ns_per_call\": {:.1}, \"stats_ns_per_call\": {:.1}, \"speedup\": {:.2}}}{}",
            r.batch,
            r.slice_ns,
            r.stats_ns,
            safe_div(r.slice_ns, r.stats_ns),
            if i + 1 < m.costing.len() { "," } else { "" }
        );
    }
    j.push_str("  ],\n");
    for (name, run) in [
        ("offline_engine", &m.offline),
        ("cluster_4_replicas", &m.cluster),
    ] {
        let _ = writeln!(
            j,
            "  \"{name}\": {{\"wall_s\": {:.6}, \"sim_tokens_per_wall_s\": {:.1}, \"requests_per_wall_s\": {:.2}}},",
            run.wall_s,
            run.tokens_per_wall_s(),
            run.requests_per_wall_s(),
        );
    }
    let _ = writeln!(
        j,
        "  \"engine_ff\": {{\"wall_s\": {:.6}, \"sim_tokens_per_wall_s\": {:.1}, \"requests_per_wall_s\": {:.2}, \"speedup_vs_pr4_offline\": {:.1}}},",
        m.engine_ff.wall_s,
        m.engine_ff.tokens_per_wall_s(),
        m.engine_ff.requests_per_wall_s(),
        m.engine_ff.tokens_per_wall_s() / PR4_OFFLINE_TOKENS_PER_WALL_S,
    );
    let _ = writeln!(
        j,
        "  \"cluster_ff\": {{\"wall_s\": {:.6}, \"sim_tokens_per_wall_s\": {:.1}, \"requests_per_wall_s\": {:.2}, \"speedup_vs_exact_cluster\": {:.1}}},",
        m.cluster_ff.wall_s,
        m.cluster_ff.tokens_per_wall_s(),
        m.cluster_ff.requests_per_wall_s(),
        m.cluster_ff.tokens_per_wall_s() / CLUSTER_EXACT_TOKENS_PER_WALL_S,
    );
    let _ = writeln!(
        j,
        "  \"fabric\": {{\"collective_us_per_call\": {:.2}, \"multinode_us_per_call\": {:.2}}},",
        m.fabric.collective_us, m.fabric.multinode_us,
    );
    let _ = writeln!(
        j,
        "  \"lint\": {{\"wall_s\": {:.6}, \"files_scanned\": {}, \"functions_indexed\": {}, \"call_edges\": {}}},",
        m.lint.wall_s, m.lint.files_scanned, m.lint.functions_indexed, m.lint.call_edges,
    );
    let _ = writeln!(
        j,
        "  \"queue_ties\": {{\"events\": {TIED_EVENTS}, \"ns_per_event\": {:.1}}},",
        m.queue_ties_ns,
    );
    let _ = writeln!(
        j,
        "  \"kv_append\": {{\"batch\": {KV_WAVE_BATCH}, \"tokens\": {KV_WAVE_TOKENS}, \"block_tokens\": {KV_BLOCK_TOKENS}, \"ns_per_append\": {:.2}}},",
        m.kv_append_ns,
    );
    // A 1-core host's serial-vs-parallel ratio is scheduler noise, not a
    // parallelism signal: mark the row serial-equivalent (`null`) so
    // nothing ever bands on it.
    let sweep_speedup = if m.host_parallelism > 1 {
        format!("{:.2}", safe_div(m.sweep.serial_s, m.sweep.parallel_s))
    } else {
        "null".to_owned()
    };
    let _ = writeln!(
        j,
        "  \"sweep\": {{\"points\": {}, \"serial_wall_s\": {:.6}, \"parallel_wall_s\": {:.6}, \"threads\": {}, \"speedup\": {sweep_speedup}}}",
        m.sweep.points,
        m.sweep.serial_s,
        m.sweep.parallel_s,
        m.sweep.threads,
    );
    j.push_str("}\n");
    j
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    dcm_bench::banner(
        "Perf baseline: simulator throughput and sweep parallelism",
        "not a paper artifact — the repo's own perf trajectory (results/BENCH_dcm.json)",
    );
    let gaudi = dcm_bench::device("gaudi2");
    let model = LlamaConfig::llama31_8b();
    let attention = PagedAttention::new(&gaudi, PagedBackend::GaudiOpt, &model, 1);

    let costing = bench_costing(&attention);
    println!(
        "\ndecode-step costing (ns/call, median of {} reps):",
        timing_reps()
    );
    for r in &costing {
        println!(
            "  batch {:>4}: slice {:>9.1} ns  stats {:>9.1} ns  speedup {:.1}x",
            r.batch,
            r.slice_ns,
            r.stats_ns,
            safe_div(r.slice_ns, r.stats_ns)
        );
    }

    let offline = bench_engine_offline();
    println!(
        "\noffline engine: {} sim tokens, {} requests in {:.3} s wall \
         ({:.0} sim tokens/wall-s, {:.1} req/wall-s)",
        offline.sim_tokens,
        offline.completed,
        offline.wall_s,
        offline.tokens_per_wall_s(),
        offline.requests_per_wall_s(),
    );

    let cluster = bench_cluster();
    println!(
        "4-replica cluster: {} sim tokens, {} requests in {:.3} s wall \
         ({:.0} sim tokens/wall-s, {:.1} req/wall-s)",
        cluster.sim_tokens,
        cluster.completed,
        cluster.wall_s,
        cluster.tokens_per_wall_s(),
        cluster.requests_per_wall_s(),
    );

    let engine_ff = bench_engine_ff();
    println!(
        "fast-forward engine (histogram metrics): {} sim tokens, {} requests in {:.6} s wall \
         ({:.0} sim tokens/wall-s, {:.0}x PR 4 offline)",
        engine_ff.sim_tokens,
        engine_ff.completed,
        engine_ff.wall_s,
        engine_ff.tokens_per_wall_s(),
        engine_ff.tokens_per_wall_s() / PR4_OFFLINE_TOKENS_PER_WALL_S,
    );

    let cluster_ff = bench_cluster_ff();
    println!(
        "fast-forward cluster (4 replicas, round-robin, histogram metrics): {} sim tokens, \
         {} requests in {:.6} s wall ({:.0} sim tokens/wall-s, {:.0}x exact cluster)",
        cluster_ff.sim_tokens,
        cluster_ff.completed,
        cluster_ff.wall_s,
        cluster_ff.tokens_per_wall_s(),
        cluster_ff.tokens_per_wall_s() / CLUSTER_EXACT_TOKENS_PER_WALL_S,
    );

    let host_parallelism =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep = bench_sweep();
    if host_parallelism > 1 {
        println!(
            "{}-point cluster sweep: serial {:.3} s, {} threads {:.3} s ({:.2}x)",
            sweep.points,
            sweep.serial_s,
            sweep.threads,
            sweep.parallel_s,
            safe_div(sweep.serial_s, sweep.parallel_s),
        );
    } else {
        println!(
            "{}-point cluster sweep: serial {:.3} s, {} threads {:.3} s \
             (serial-equivalent: 1-core host)",
            sweep.points, sweep.serial_s, sweep.threads, sweep.parallel_s,
        );
    }

    let fabric = bench_fabric();
    println!(
        "emergent fabric: AllReduce {:.1} us/call (8-dev mesh, 32 MB), \
         hierarchical all-reduce {:.1} us/call (16 nodes, 1 GB)",
        fabric.collective_us, fabric.multinode_us,
    );

    let lint = bench_lint();
    println!(
        "dcm-lint workspace scan: {:.3} s wall ({} files, {} functions, {} call edges)",
        lint.wall_s, lint.files_scanned, lint.functions_indexed, lint.call_edges,
    );

    let queue_ties_ns = bench_queue_ties();
    println!(
        "tied event drain: {queue_ties_ns:.1} ns/event ({TIED_EVENTS} arrivals at t = 0, pop_due)"
    );

    let kv_append_ns = bench_kv_append();
    println!(
        "KV append: {kv_append_ns:.2} ns/append (batch {KV_WAVE_BATCH} to {KV_WAVE_TOKENS} tokens, \
         block {KV_BLOCK_TOKENS}, append_at)"
    );

    let measured = Measured {
        costing,
        offline,
        cluster,
        engine_ff,
        cluster_ff,
        sweep,
        fabric,
        lint,
        queue_ties_ns,
        kv_append_ns,
        host_parallelism,
    };

    // The checked-in baseline is only overwritten by a deliberate full
    // regeneration; smoke and check runs write sibling artifacts.
    let artifact = if check {
        "results/BENCH_dcm.check.json"
    } else if dcm_bench::smoke() {
        "results/BENCH_dcm.smoke.json"
    } else {
        "results/BENCH_dcm.json"
    };
    dcm_bench::write_artifact(Path::new(artifact), &render_json(&measured));

    if check {
        println!("\nperf gate: comparing against results/BENCH_dcm.json");
        let baseline = match std::fs::read_to_string("results/BENCH_dcm.json") {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perf gate: cannot read results/BENCH_dcm.json: {e}");
                std::process::exit(1);
            }
        };
        let failures = check_against_baseline(&measured, &baseline);
        if failures.is_empty() {
            println!("perf gate: OK");
        } else {
            for f in &failures {
                eprintln!("perf gate: {f}");
            }
            std::process::exit(1);
        }
    }
}
