//! The four benchmark workloads: inputs generated from a seed, one
//! public `run` call per point, and the checks every call must pass.

use dcm_compiler::Device;
use dcm_core::metrics::MetricsMode;
use dcm_core::trace::Span;
use dcm_vllm::{
    ArrivalProcess, Cluster, ClusterReport, FabricConfig, FaultPlan, PagedBackend, Request,
    ResilienceConfig, RoutingPolicy, ServingEngine, ServingReport, SyntheticDataset,
};
use dcm_workloads::llama::LlamaConfig;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    OfflineSonnet,
    OnlineJsqFf,
    ColdGrid,
    FaultsFabric,
}

/// `Full` is what the benchmark measures; `Smoke` is a seconds-long
/// size for the package's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineSonnet,
        Workload::OnlineJsqFf,
        Workload::ColdGrid,
        Workload::FaultsFabric,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineSonnet => "offline_sonnet",
            Workload::OnlineJsqFf => "online_jsq_ff",
            Workload::ColdGrid => "cold_grid",
            Workload::FaultsFabric => "faults_fabric",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests in the trace of one call (every workload but `cold_grid`,
    /// whose points size their own traces).
    fn trace_len(self, size: Size) -> usize {
        match (self, size) {
            // Long enough that ~16k arrivals tied at t = 0 make the
            // event queue's tie handling visible in host time.
            (Workload::OfflineSonnet | Workload::OnlineJsqFf, Size::Full) => 16_384,
            (Workload::FaultsFabric, Size::Full) => 8_192,
            (_, Size::Smoke) => 96,
            (Workload::ColdGrid, Size::Full) => 0,
        }
    }

    /// Calls in one unit of the workload, which a run repeats: the one
    /// call for the single-trace workloads, one sweep for `cold_grid`.
    pub fn unit_points(self, size: Size) -> usize {
        match (self, size) {
            (Workload::ColdGrid, Size::Full) => GRID_POINTS,
            (Workload::ColdGrid, Size::Smoke) => 6,
            _ => 1,
        }
    }

    pub fn is_cluster(self) -> bool {
        matches!(self, Workload::OnlineJsqFf | Workload::FaultsFabric)
    }

    pub fn has_fabric(self) -> bool {
        self == Workload::FaultsFabric
    }

    /// Latency-recorder mode of the workload's engines.
    pub fn metrics_mode(self) -> MetricsMode {
        match self {
            Workload::OnlineJsqFf => MetricsMode::Histogram,
            _ => MetricsMode::Exact,
        }
    }
}

/// Replicas behind the router in the cluster workloads.
pub const REPLICAS: usize = 4;
/// Decode-batch cap of every engine outside the `cold_grid` sweep.
const MAX_BATCH: usize = 64;
/// ~85% of the measured 4-replica capacity (~8.3 req/s per replica).
const JSQ_FF_RATE_RPS: f64 = 28.0;
/// The crash plan takes two of four replicas down; this rate stays just
/// below what the two survivors serve, so the backlog drains.
const FAULTS_RATE_RPS: f64 = 14.0;
/// Drift allowed between fast-forward and exact-mode timestamps, as a
/// share of the exact-mode clock (EXPERIMENTS.md).
pub const FF_DRIFT_BOUND: f64 = 0.05;

/// One `cold_grid` configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridConfig {
    pub backend: PagedBackend,
    pub batch: usize,
    pub prompt: usize,
    pub output: usize,
}

const GRID_BACKENDS: [PagedBackend; 3] = [
    PagedBackend::GaudiBase,
    PagedBackend::GaudiOpt,
    PagedBackend::A100Fused,
];
const GRID_BATCHES: [usize; 6] = [8, 16, 32, 64, 128, 256];
const GRID_PROMPTS: usize = 64; // 64, 128, ..., 4096 tokens
const GRID_OUTPUTS: usize = 64; // 1, 2, ..., 64 tokens
/// Distinct (device, backend, batch, prompt, output) configurations.
const GRID_SIZE: usize = GRID_BACKENDS.len() * GRID_BATCHES.len() * GRID_PROMPTS * GRID_OUTPUTS;

/// The `index`-th configuration of the grid, in canonical order.
pub fn grid_config(index: usize) -> GridConfig {
    assert!(index < GRID_SIZE, "grid index {index} out of range");
    let output = index % GRID_OUTPUTS;
    let rest = index / GRID_OUTPUTS;
    let prompt = rest % GRID_PROMPTS;
    let rest = rest / GRID_PROMPTS;
    let batch = rest % GRID_BATCHES.len();
    let backend = rest / GRID_BATCHES.len();
    GridConfig {
        backend: GRID_BACKENDS[backend],
        batch: GRID_BATCHES[batch],
        prompt: 64 * (prompt + 1),
        output: output + 1,
    }
}

/// Points of one `cold_grid` sweep per (backend, batch) pair.
const STRATUM_POINTS: usize = GRID_OUTPUTS / 2;
/// Points of one `cold_grid` sweep.
pub const GRID_POINTS: usize = GRID_BACKENDS.len() * GRID_BATCHES.len() * STRATUM_POINTS;

/// Seeds with a stored reference line. A run's `--seed n` generates the
/// inputs of seed `n % STORED_SEEDS`, so every call has a stored
/// reference to match.
pub const STORED_SEEDS: u64 = 256;

/// The seed's sweep, as grid indices. Every (backend, batch) pair gets
/// the same number of points, whose output lengths take each pair of
/// adjacent lengths (1–2, 3–4, …, 63–64) once and whose prompt lengths
/// are distinct: no point repeats a configuration, and the spread of
/// point costs barely depends on the seed.
pub fn grid_order(seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x6a09_e667_f3bc_c909;
    let mut below =
        |n: usize| usize::try_from(splitmix64(&mut state) % n as u64).expect("fits usize");
    let mut sweep = Vec::with_capacity(GRID_POINTS);
    for stratum in 0..GRID_BACKENDS.len() * GRID_BATCHES.len() {
        let mut prompts: Vec<usize> = (0..GRID_PROMPTS).collect();
        for j in 0..STRATUM_POINTS {
            prompts.swap(j, j + below(GRID_PROMPTS - j));
            let output = 2 * j + below(2);
            sweep.push((stratum * GRID_PROMPTS + prompts[j]) * GRID_OUTPUTS + output);
        }
    }
    sweep
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn device_for(backend: PagedBackend) -> Device {
    match backend {
        PagedBackend::A100Fused => Device::a100(),
        _ => Device::gaudi2(),
    }
}

/// Everything one `run` call needs, built during set-up.
pub struct Point {
    target: Target,
    pub requests: Vec<Request>,
}

enum Target {
    Engine(Box<ServingEngine>),
    Cluster(Cluster, FaultPlan),
}

/// The modeled result of one call.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub report: ServingReport,
    /// Per-replica breakdown (empty for a single engine).
    pub replicas: Vec<dcm_vllm::ReplicaStats>,
}

impl From<ClusterReport> for Outcome {
    fn from(r: ClusterReport) -> Self {
        Outcome {
            report: r.serving,
            replicas: r.per_replica,
        }
    }
}

/// Device, backend and decode-batch cap of the `point`-th call's
/// engines.
pub fn engine_shape(w: Workload, point: usize, order: &[usize]) -> (Device, PagedBackend, usize) {
    if w == Workload::ColdGrid {
        let c = grid_config(order[point]);
        (device_for(c.backend), c.backend, c.batch)
    } else {
        (Device::gaudi2(), PagedBackend::GaudiOpt, MAX_BATCH)
    }
}

/// A fresh engine for one `cold_grid` point: empty cost caches.
fn grid_engine(c: GridConfig) -> ServingEngine {
    ServingEngine::new(
        &device_for(c.backend),
        LlamaConfig::llama31_8b(),
        1,
        c.backend,
        c.batch,
    )
}

/// A replica engine of `w` (the single engine of `offline_sonnet`).
pub fn replica_engine(w: Workload) -> ServingEngine {
    let engine = ServingEngine::new(
        &Device::gaudi2(),
        LlamaConfig::llama31_8b(),
        1,
        PagedBackend::GaudiOpt,
        MAX_BATCH,
    )
    .with_metrics_mode(w.metrics_mode());
    engine.with_fast_forward(w == Workload::OnlineJsqFf)
}

/// The request trace of `w` under `seed`; for `cold_grid`, of the
/// `point`-th point of the seeded sweep.
pub fn requests(w: Workload, size: Size, seed: u64, point: usize, order: &[usize]) -> Vec<Request> {
    let n = w.trace_len(size);
    match w {
        Workload::OfflineSonnet => SyntheticDataset::dynamic_sonnet(n, seed),
        Workload::OnlineJsqFf => SyntheticDataset::dynamic_sonnet_online(
            n,
            seed,
            &ArrivalProcess::Poisson {
                rate_rps: JSQ_FF_RATE_RPS,
            },
        ),
        Workload::FaultsFabric => SyntheticDataset::dynamic_sonnet_online(
            n,
            seed,
            &ArrivalProcess::Poisson {
                rate_rps: FAULTS_RATE_RPS,
            },
        ),
        Workload::ColdGrid => {
            let c = grid_config(order[point]);
            SyntheticDataset::fixed(c.batch, c.prompt, c.output)
        }
    }
}

/// Seeded crash plan of `faults_fabric`: two of the four replicas fail
/// at uniform times within the first tenth of the arrival span. Early
/// crashes keep the work per call similar across seeds: the survivors
/// carry most of the trace whichever instants the plan draws.
pub fn fault_plan(requests: &[Request], seed: u64) -> FaultPlan {
    let span = requests.last().map_or(0.0, |r| r.arrival_s);
    let horizon = (span / 10.0).max(1.0);
    FaultPlan::random_crashes(REPLICAS, 2, horizon, seed ^ 0xfa17)
}

/// Build (set up) the `point`-th call of `w`. `order` is the grid sweep
/// order ([`grid_order`]); other workloads ignore `point` and `order`.
pub fn prepare(w: Workload, size: Size, seed: u64, point: usize, order: &[usize]) -> Point {
    let requests = requests(w, size, seed, point, order);
    let target = match w {
        Workload::OfflineSonnet => Target::Engine(Box::new(replica_engine(w))),
        Workload::ColdGrid => Target::Engine(Box::new(grid_engine(grid_config(order[point])))),
        Workload::OnlineJsqFf => Target::Cluster(
            Cluster::new(
                (0..REPLICAS).map(|_| replica_engine(w)).collect(),
                RoutingPolicy::JoinShortestQueue,
            ),
            FaultPlan::none(),
        ),
        Workload::FaultsFabric => Target::Cluster(
            Cluster::new(
                (0..REPLICAS).map(|_| replica_engine(w)).collect(),
                RoutingPolicy::JoinShortestQueue,
            )
            .with_fabric(FabricConfig::from_spec(Device::gaudi2().spec())),
            fault_plan(&requests, seed),
        ),
    };
    Point { target, requests }
}

/// Run `f`, turning an `Err` or a panic into a message.
fn guarded<T>(f: impl FnOnce() -> dcm_core::Result<T>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("run returned Err: {e}")),
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Err(format!("run panicked: {msg}"))
        }
    }
}

impl Point {
    /// One untraced call of the public run entry point.
    pub fn run(&mut self) -> Result<Outcome, String> {
        let reqs = &self.requests;
        match &mut self.target {
            Target::Engine(e) => guarded(|| e.run(reqs)).map(|report| Outcome {
                report,
                replicas: Vec::new(),
            }),
            Target::Cluster(c, plan) => {
                guarded(|| c.run_resilient(reqs, plan, &ResilienceConfig::default()))
                    .map(Outcome::from)
            }
        }
    }

    /// One traced call; the spans come back in the trace's order.
    pub fn run_traced(&mut self) -> Result<(Outcome, Vec<Span>), String> {
        let reqs = &self.requests;
        let (outcome, trace) = match &mut self.target {
            Target::Engine(e) => {
                let (report, trace) = guarded(|| e.run_traced(reqs))?;
                let outcome = Outcome {
                    report,
                    replicas: Vec::new(),
                };
                (outcome, trace)
            }
            Target::Cluster(c, plan) => {
                let (report, trace) =
                    guarded(|| c.run_resilient_traced(reqs, plan, &ResilienceConfig::default()))?;
                (Outcome::from(report), trace)
            }
        };
        Ok((outcome, trace.spans().to_vec()))
    }
}

/// Every floating-point field of a report, in declaration order.
fn report_floats(r: &ServingReport) -> [f64; 14] {
    [
        r.total_time_s,
        r.throughput_tps,
        r.mean_ttft_s,
        r.mean_tpot_s,
        r.p50_ttft_s,
        r.p95_ttft_s,
        r.p99_ttft_s,
        r.p50_tpot_s,
        r.p95_tpot_s,
        r.p99_tpot_s,
        r.mean_queue_delay_s,
        r.p99_queue_delay_s,
        r.goodput_tps,
        r.slo_attainment,
    ]
}

fn report_counts(r: &ServingReport) -> [usize; 9] {
    [
        r.completed,
        r.total_output_tokens,
        r.peak_batch,
        r.preemptions,
        r.shed,
        r.failed,
        r.retries,
        r.lost_tokens,
        r.offered(),
    ]
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

/// Digest of every modeled field of `o`, bit for bit.
pub fn digest(o: &Outcome) -> u64 {
    let floats = report_floats(&o.report).map(f64::to_bits);
    let counts = report_counts(&o.report).map(|c| c as u64);
    let replicas = o.replicas.iter().flat_map(|r| {
        [
            r.dispatched as u64,
            r.completed as u64,
            r.output_tokens as u64,
            r.preemptions as u64,
            r.crashes as u64,
            r.busy_s.to_bits(),
            r.utilization.to_bits(),
        ]
    });
    fnv1a(floats.into_iter().chain(counts).chain(replicas))
}

/// Checks that need no reference: request accounting and finiteness.
pub fn check_invariants(o: &Outcome, offered: usize) -> Result<(), String> {
    let r = &o.report;
    if r.offered() != offered {
        return Err(format!(
            "completed {} + shed {} + failed {} != offered {offered}",
            r.completed, r.shed, r.failed
        ));
    }
    let replica_floats = o.replicas.iter().flat_map(|s| [s.busy_s, s.utilization]);
    if report_floats(r)
        .into_iter()
        .chain(replica_floats)
        .any(|x| !x.is_finite())
    {
        return Err("non-finite report field".to_owned());
    }
    Ok(())
}

/// What a call's modeled output must match.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expected {
    /// Exact mode: every field bit for bit.
    Digest(u64),
    /// Fast-forward: exact counts; `total_time_s` within
    /// [`FF_DRIFT_BOUND`] of the exact-mode run, and `p99_ttft_s` within
    /// that share of its clock.
    Drift {
        completed: usize,
        shed: usize,
        failed: usize,
        tokens: usize,
        total_time_s: f64,
        p99_ttft_s: f64,
    },
}

impl Expected {
    pub fn check(&self, o: &Outcome) -> Result<(), String> {
        let r = &o.report;
        match *self {
            Expected::Digest(want) => check_digest(digest(o), want),
            Expected::Drift {
                completed,
                shed,
                failed,
                tokens,
                total_time_s,
                p99_ttft_s,
            } => {
                let counts = (r.completed, r.shed, r.failed, r.total_output_tokens);
                if counts != (completed, shed, failed, tokens) {
                    return Err(format!(
                        "counts {counts:?} != exact-mode {:?}",
                        (completed, shed, failed, tokens)
                    ));
                }
                // The documented bound (EXPERIMENTS.md, cluster
                // fast-forward): the clock drifts by under 5%, and tail
                // latencies inherit an error of at most 5% of the clock.
                let clock = (r.total_time_s / total_time_s - 1.0).abs();
                let tail = (r.p99_ttft_s - p99_ttft_s).abs() / total_time_s;
                for (name, got, want, drift) in [
                    ("total_time_s", r.total_time_s, total_time_s, clock),
                    ("p99_ttft_s", r.p99_ttft_s, p99_ttft_s, tail),
                ] {
                    if drift.is_nan() || drift > FF_DRIFT_BOUND {
                        return Err(format!(
                            "{name} {got} drifts {drift:.4} of the clock from exact-mode {want}"
                        ));
                    }
                }
                Ok(())
            }
        }
    }

    /// How far a fast-forward outcome's timestamps sit from the
    /// exact-mode reference, each relative to its own exact value.
    pub fn drift_note(&self, o: &Outcome) -> Option<String> {
        let Expected::Drift {
            total_time_s,
            p99_ttft_s,
            ..
        } = *self
        else {
            return None;
        };
        let r = &o.report;
        Some(format!(
            "fast-forward vs exact mode: total_time_s {:+.4}, p99_ttft_s {:+.4} (relative)",
            r.total_time_s / total_time_s - 1.0,
            r.p99_ttft_s / p99_ttft_s - 1.0
        ))
    }

    /// The stored form: the fields after the key on a reference line.
    fn to_fields(self) -> String {
        match self {
            Expected::Digest(d) => format!("{d:016x}"),
            Expected::Drift {
                completed,
                shed,
                failed,
                tokens,
                total_time_s,
                p99_ttft_s,
            } => format!(
                "{completed} {shed} {failed} {tokens} {:016x} {:016x}",
                total_time_s.to_bits(),
                p99_ttft_s.to_bits()
            ),
        }
    }

    fn parse(w: Workload, fields: &[&str]) -> Option<Expected> {
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        match (w, fields) {
            (Workload::OnlineJsqFf, [c, s, f, t, tt, p]) => Some(Expected::Drift {
                completed: c.parse().ok()?,
                shed: s.parse().ok()?,
                failed: f.parse().ok()?,
                tokens: t.parse().ok()?,
                total_time_s: f64::from_bits(hex(tt)?),
                p99_ttft_s: f64::from_bits(hex(p)?),
            }),
            (Workload::OnlineJsqFf, _) => None,
            (_, [d]) => hex(d).map(Expected::Digest),
            _ => None,
        }
    }
}

/// One engine's run through the router's event loop: the reference path
/// of the single-engine workloads (the same Figure 17 path, bit for bit).
fn one_replica(engine: ServingEngine, reqs: &[Request]) -> Result<Outcome, String> {
    let mut c = Cluster::new(vec![engine], RoutingPolicy::RoundRobin);
    guarded(|| c.run(reqs)).map(|r| Outcome {
        report: r.serving,
        replicas: Vec::new(),
    })
}

/// Reference outcome of `cold_grid` configuration `index`.
fn grid_reference(index: usize) -> Result<Outcome, String> {
    let c = grid_config(index);
    one_replica(
        grid_engine(c),
        &SyntheticDataset::fixed(c.batch, c.prompt, c.output),
    )
}

/// Compute the reference of `w` under `seed` through the reference path:
/// a one-replica cluster for `offline_sonnet`, and for `cold_grid` over
/// every point of the sweep; the exact-mode cluster for `online_jsq_ff`;
/// the workload's own exact cluster for `faults_fabric`. It writes the
/// stored references, and is the reference of the smoke size, which has
/// none stored.
pub fn compute_reference(w: Workload, size: Size, seed: u64) -> Result<Expected, String> {
    match w {
        Workload::OfflineSonnet => {
            let reqs = requests(w, size, seed, 0, &[]);
            one_replica(replica_engine(w), &reqs).map(|o| Expected::Digest(digest(&o)))
        }
        Workload::ColdGrid => {
            let digests = grid_order(seed)[..w.unit_points(size)]
                .iter()
                .map(|&index| grid_reference(index).map(|o| digest(&o)))
                .collect::<Result<Vec<u64>, String>>()?;
            Ok(Expected::Digest(fnv1a(digests)))
        }
        Workload::OnlineJsqFf => {
            let reqs = requests(w, size, seed, 0, &[]);
            let exact = (0..REPLICAS)
                .map(|_| replica_engine(Workload::OfflineSonnet))
                .collect();
            let mut c = Cluster::new(exact, RoutingPolicy::JoinShortestQueue);
            let r = guarded(|| c.run(&reqs))?.serving;
            Ok(Expected::Drift {
                completed: r.completed,
                shed: r.shed,
                failed: r.failed,
                tokens: r.total_output_tokens,
                total_time_s: r.total_time_s,
                p99_ttft_s: r.p99_ttft_s,
            })
        }
        Workload::FaultsFabric => {
            let mut p = prepare(w, size, seed, 0, &[]);
            p.run().map(|o| Expected::Digest(digest(&o)))
        }
    }
}

/// One stored reference line: `<seed> <fields>`.
pub fn reference_line(w: Workload, seed: u64) -> Result<String, String> {
    compute_reference(w, Size::Full, seed).map(|e| format!("{seed} {}", e.to_fields()))
}

fn stored_text(w: Workload) -> &'static str {
    match w {
        Workload::OfflineSonnet => include_str!("../reference/offline_sonnet.txt"),
        Workload::OnlineJsqFf => include_str!("../reference/online_jsq_ff.txt"),
        Workload::ColdGrid => include_str!("../reference/cold_grid.txt"),
        Workload::FaultsFabric => include_str!("../reference/faults_fabric.txt"),
    }
}

/// Stored references of `w`, by seed, parsed once.
fn stored(w: Workload) -> &'static BTreeMap<u64, Expected> {
    static TABLES: [OnceLock<BTreeMap<u64, Expected>>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    let slot = Workload::ALL.iter().position(|x| *x == w).expect("listed");
    TABLES[slot].get_or_init(|| {
        stored_text(w)
            .lines()
            .filter_map(|line| {
                let fields: Vec<&str> = line.split_whitespace().collect();
                let (key, rest) = fields.split_first()?;
                Some((key.parse().ok()?, Expected::parse(w, rest)?))
            })
            .collect()
    })
}

/// The reference of `w` under `seed`, as stored in the benchmark's
/// directory. A seed with no stored line is an error, never a fresh
/// computation, so a change of modeled output cannot move the reference
/// with it. Only the smoke size of the package's own tests, which has no
/// stored references, computes its own.
pub fn reference(w: Workload, size: Size, seed: u64) -> Result<Expected, String> {
    match size {
        Size::Full => stored(w)
            .get(&seed)
            .copied()
            .ok_or_else(|| format!("no stored {} reference for seed {seed}", w.name())),
        Size::Smoke => compute_reference(w, size, seed),
    }
}

fn check_digest(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("digest {got:016x} != reference {want:016x}"))
    }
}

/// Check one unit of calls — the first outcome of each of its points,
/// `None` where the call failed — against the stored reference: the one
/// call's outcome, or for `cold_grid` a digest over its points' digests
/// in sweep order.
pub fn check_unit(
    w: Workload,
    size: Size,
    seed: u64,
    unit: &[Option<Outcome>],
) -> Result<(), String> {
    let want = reference(w, size, seed)?;
    match (w, want, unit) {
        (Workload::ColdGrid, Expected::Digest(want), _) => check_digest(
            fnv1a(unit.iter().map(|o| o.as_ref().map_or(0, digest))),
            want,
        ),
        (_, _, [Some(o)]) => want.check(o),
        _ => Err("no outcome to check against the reference".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_repeats_no_configuration() {
        for seed in [0, 1, 255] {
            let mut sweep = grid_order(seed);
            assert_eq!(sweep.len(), GRID_POINTS);
            sweep.sort_unstable();
            sweep.dedup();
            assert_eq!(sweep.len(), GRID_POINTS, "seed {seed}");
            assert!(sweep.iter().all(|&i| i < GRID_SIZE));
        }
    }
}
