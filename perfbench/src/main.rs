//! Layered host-performance benchmark of the dcm serving simulator.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-reference <workload> <first-seed> <last-seed>
//! ```
//!
//! `--trace 0` repeats the workload's unit of public `run` calls with
//! tracing off for `--seconds` after one warm-up repetition, scales each
//! call by a reference kernel timed around it, takes the median of each
//! point's scaled calls, and reports the end-to-end metrics. `--trace 1`
//! runs the workload's unit of calls untraced and traced, derives each
//! layer's op counts from the span stream, times each layer's public
//! functions on the inputs the trace implies, and reports the per-layer
//! metrics. Both modes check every call; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.
//!
//! `--write-reference` prints the stored-reference lines of
//! `reference/<workload>.txt` for a range of seeds.

mod layers;
mod probe;
mod workload;

use dcm_core::trace::Span;
use layers::{Counts, Replay};
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workload::{digest, Outcome, Point, Size, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Linear-interpolated quantile (`q` in 0..=1) of `xs`; sorts `xs`.
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
        }
    }
}

pub(crate) fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Calls attempted and failed, with the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Count one call, failed if any of its checks failed.
    fn call(&mut self, checks: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checks {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// High-water resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Output of a short-lived command, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let threads = std::env::var("DCM_THREADS").unwrap_or_else(|_| "unset".to_owned());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let rustc = command_line(Command::new(rustc).arg("--version"));
    // Stop git at the working directory, so a checkout that is not a
    // repository reports `unknown` rather than an enclosing repository's
    // commit.
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Ok(dir) = std::env::current_dir() {
        if let Some(parent) = dir.parent() {
            git.env("GIT_CEILING_DIRECTORIES", parent);
        }
    }
    let commit = command_line(&mut git);
    format!("host: nproc={nproc} DCM_THREADS={threads} rustc=\"{rustc}\" git_commit={commit}")
}

/// Grid sweep order for `cold_grid`, empty otherwise.
fn order_for(w: Workload, seed: u64) -> Vec<usize> {
    if w == Workload::ColdGrid {
        workload::grid_order(seed)
    } else {
        Vec::new()
    }
}

/// Digest of a traced run of a fresh copy of the `k`-th call.
fn traced_digest(w: Workload, seed: u64, k: usize, order: &[usize]) -> Result<u64, String> {
    let (traced, _) = workload::prepare(w, Size::Full, seed, k, order).run_traced()?;
    Ok(digest(&traced))
}

/// A call's result after the checks that need nothing but the call:
/// `run` succeeded, requests are accounted for, fields are finite.
fn checked(outcome: Result<Outcome, String>, offered: usize) -> Result<Outcome, String> {
    outcome.and_then(|o| workload::check_invariants(&o, offered).map(|()| o))
}

/// Longest stretch of calls between two probes of the host's speed.
const PROBE_EVERY_S: f64 = 0.1;

/// Timed samples of a run, each tagged with the probe taken before it.
#[derive(Default)]
struct Samples {
    /// Probe times, in run order.
    probes: Vec<f64>,
    /// Per point: (call seconds, index of the probe before the call).
    calls: Vec<Vec<(f64, usize)>>,
    /// (set-up seconds, index of the probe before the set-up).
    setups: Vec<(f64, usize)>,
}

impl Samples {
    /// `s` seconds at the reference speed: scaled by [`probe::REFERENCE_S`]
    /// over the mean of the probes taken right before and right after.
    fn scaled(&self, (s, before): (f64, usize)) -> f64 {
        let around = 0.5 * (self.probes[before] + self.probes[before + 1]);
        s * probe::REFERENCE_S / around
    }

    /// Median over a point's calls, scaled or as timed.
    fn point_s(&self, k: usize, scaled: bool) -> f64 {
        let mut xs: Vec<f64> = self.calls[k]
            .iter()
            .map(|&c| if scaled { self.scaled(c) } else { c.0 })
            .collect();
        median(&mut xs)
    }
}

/// `--trace 0`: one untimed warm-up repetition of the workload's unit
/// of calls, then repetitions with tracing off until `seconds` have
/// passed. The host's speed is probed ([`probe::probe_s`]) before every
/// call, or every [`PROBE_EVERY_S`] for short calls, and after the last.
/// Each timed call and set-up is scaled to the reference speed by the
/// probes around it, and a point's call time is the median of its scaled
/// calls. The peak RSS is read after the warm-up repetition, before the
/// timing samples and the unit's checks allocate.
fn end_to_end(w: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let order = order_for(w, seed);
    let unit = w.unit_points(Size::Full);
    let mut rss = Ok(0.0);
    let mut deadline = Instant::now();
    let mut samples = Samples {
        calls: vec![Vec::new(); unit],
        ..Samples::default()
    };
    let mut last_probe = Instant::now();
    // The first outcome of each point; every later call must equal it.
    let mut first: Vec<Option<Outcome>> = vec![None; unit];
    let mut failures: Vec<(usize, String)> = Vec::new();
    let mut reps = 0;
    while reps < 2 || Instant::now() < deadline {
        for k in 0..unit {
            if reps > 0
                && (samples.probes.is_empty()
                    || last_probe.elapsed().as_secs_f64() >= PROBE_EVERY_S)
            {
                samples.probes.push(probe::probe_s());
                last_probe = Instant::now();
            }
            let t0 = Instant::now();
            let mut point = workload::prepare(w, Size::Full, seed, k, &order);
            let t1 = Instant::now();
            let outcome = point.run();
            let elapsed = t1.elapsed().as_secs_f64();
            if reps > 0 {
                let before = samples.probes.len() - 1;
                samples.calls[k].push((elapsed, before));
                samples.setups.push(((t1 - t0).as_secs_f64(), before));
            }
            let offered = point.requests.len();
            drop(point);
            match (checked(outcome, offered), &first[k]) {
                (Err(e), _) => failures.push((k, e)),
                (Ok(o), None) => first[k] = Some(o),
                (Ok(o), Some(f)) if digest(&o) != digest(f) => {
                    failures.push((k, "calls on the same trace disagree".to_owned()));
                }
                (Ok(_), Some(_)) => {}
            }
        }
        if reps == 0 {
            rss = peak_rss_mb();
            deadline = Instant::now() + Duration::from_secs_f64(seconds);
        }
        reps += 1;
    }
    samples.probes.push(probe::probe_s());
    let unit_check = workload::check_unit(w, Size::Full, seed, &first);
    for (k, f) in first.iter().enumerate() {
        let traced = match f {
            Some(f) => traced_digest(w, seed, k, &order).and_then(|t| match t == digest(f) {
                true => Ok(()),
                false => Err("traced report differs from the untraced one".to_owned()),
            }),
            None => Ok(()),
        };
        let point_check = unit_check.clone().and(traced);
        let mut own = failures.iter().filter(|(j, _)| *j == k).map(|(_, e)| e);
        for _ in 0..reps {
            tally.call(match (&point_check, own.next()) {
                (Err(e), _) | (Ok(()), Some(e)) => Err(e.clone()),
                (Ok(()), None) => Ok(()),
            });
        }
    }
    if let (Some(o), Ok(e)) = (&first[0], workload::reference(w, Size::Full, seed)) {
        if let Some(note) = e.drift_note(o) {
            println!("{note}");
        }
    }
    let rss = rss.unwrap_or_else(|e| {
        tally.call(Err(format!("peak RSS unavailable: {e}")));
        0.0
    });
    let tokens: usize = first
        .iter()
        .flatten()
        .map(|o| o.report.total_output_tokens)
        .sum();
    let wall: f64 = (0..unit).map(|k| samples.point_s(k, false)).sum();
    let mut point_s: Vec<f64> = (0..unit).map(|k| samples.point_s(k, true)).collect();
    let scaled_wall: f64 = point_s.iter().sum();
    let mut setup_s: Vec<f64> = samples.setups.iter().map(|&s| samples.scaled(s)).collect();
    let mut probes = samples.probes;
    println!(
        "{}: warm-up and {} timed reps of {unit} point(s); at each point's median call the unit serves {tokens} simulated output tokens in {wall:.4} s as timed, {scaled_wall:.4} s at the reference speed ({} probes: fastest {:.3} ms, median {:.3} ms, reference {:.3} ms)",
        w.name(),
        reps - 1,
        probes.len(),
        1e3 * quantile(&mut probes, 0.0),
        1e3 * median(&mut probes),
        1e3 * probe::REFERENCE_S,
    );
    vec![
        metric("sim_tokens_per_s", tokens as f64 / scaled_wall, "tokens/s"),
        metric("point_ms_p50", 1e3 * quantile(&mut point_s, 0.5), "ms"),
        metric("point_ms_p90", 1e3 * quantile(&mut point_s, 0.9), "ms"),
        metric("setup_s", median(&mut setup_s), "s"),
        metric("peak_rss_mb", rss, "MB"),
    ]
}

/// One pass over fresh copies of the workload's unit of calls: `f` on
/// each call, `each` on its result; returns the wall time of the calls.
fn pass<T>(
    w: Workload,
    size: Size,
    seed: u64,
    order: &[usize],
    mut f: impl FnMut(&mut Point) -> T,
    mut each: impl FnMut(usize, T),
) -> f64 {
    let mut points: Vec<Point> = (0..w.unit_points(size))
        .map(|k| workload::prepare(w, size, seed, k, order))
        .collect();
    let mut wall = 0.0;
    for (k, p) in points.iter_mut().enumerate() {
        let t = Instant::now();
        let out = f(p);
        wall += t.elapsed().as_secs_f64();
        each(k, out);
    }
    wall
}

/// Per-op replay costs of the unit's layers, and the wall time of
/// standalone replica engines serving what the cluster dispatched.
#[derive(Default)]
struct Costs {
    sim: Replay,
    attn: Replay,
    kv: Replay,
    graphs: Replay,
    rec: Replay,
    net: Replay,
    standalone_s: f64,
}

fn replay_unit(
    w: Workload,
    size: Size,
    seed: u64,
    order: &[usize],
    spans: &[Vec<Span>],
    tally: &mut Tally,
) -> Costs {
    let mut c = Costs::default();
    let model = dcm_workloads::llama::LlamaConfig::llama31_8b();
    for (k, s) in spans.iter().enumerate() {
        let point = workload::prepare(w, size, seed, k, order);
        let (device, backend, batch) = workload::engine_shape(w, k, order);
        let pa = dcm_vllm::PagedAttention::new(&device, backend, &model, 1);
        let (decode, prefill) = layers::graph_shapes(s);
        c.sim.add(layers::replay_event_queue(&point.requests));
        c.attn.add(layers::replay_attention(
            &pa,
            &layers::decode_batches(s),
            &point.requests,
        ));
        c.kv.add(layers::replay_kv_cache(
            &point.requests,
            batch,
            dcm_vllm::attention::DEFAULT_BLOCK_TOKENS,
        ));
        c.graphs
            .add(layers::replay_graphs(&device, &decode, &prefill));
        c.rec.add(layers::replay_metrics(w.metrics_mode(), s));
        // Without the fabric nothing flows, but the per-flow cost is still
        // timed — on the call's dispatches, or once on the first call's
        // arrivals — so that every per-layer time is measured everywhere.
        let flows = match layers::dispatches(s) {
            d if !d.is_empty() => d,
            _ if k == 0 => layers::arrival_flows(&point.requests),
            _ => Vec::new(),
        };
        if !flows.is_empty() {
            c.net.add(layers::replay_flows(&flows));
        }
        if w.is_cluster() {
            c.standalone_s += standalone_wall(w, &point, s, tally);
        }
    }
    c
}

/// One per-layer metric, with the end-to-end metric it should move and
/// the workload it should move it on.
struct LayerMetric {
    metric: Metric,
    moves: &'static str,
    on: &'static str,
}

/// The per-layer metrics of one rep.
fn layer_values(
    w: Workload,
    events: u64,
    counts: &Counts,
    c: &Costs,
    wall: f64,
    traced_wall: f64,
) -> Vec<LayerMetric> {
    const TPS: &str = "sim_tokens_per_s";
    const GRID_TPS: &str = "point_ms_p50, sim_tokens_per_s";
    const RSS_TPS: &str = "peak_rss_mb, sim_tokens_per_s";
    const OFFLINE: &str = "offline_sonnet";
    const ONLINE: &str = "online_jsq_ff";
    const FAULTS: &str = "faults_fabric";
    let row = |name, value, unit, moves, on| LayerMetric {
        metric: metric(name, value, unit),
        moves,
        on,
    };
    let share = |ops: u64, r: &Replay| ops as f64 * r.per_op() / wall;
    let flows = if w.has_fabric() {
        counts.dispatches + counts.retries
    } else {
        0
    };
    let catchup = if w.is_cluster() {
        1.0 - c.standalone_s / wall
    } else {
        0.0
    };
    let sim = share(events, &c.sim);
    let attention = share(counts.attention_calls(), &c.attn);
    let kv = share(counts.kv_ops(), &c.kv);
    let compiler = share(counts.graph_runs, &c.graphs);
    let records = share(counts.metric_records(), &c.rec);
    let net = share(flows, &c.net);
    let others = sim + attention + kv + compiler + records + net + catchup;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let n = |x: u64| x as f64;
    vec![
        row("sim.events", n(events), "count", TPS, OFFLINE),
        row("sim.ns_per_event", 1e9 * c.sim.per_op(), "ns", TPS, OFFLINE),
        row("sim.share", sim, "ratio", TPS, OFFLINE),
        row(
            "engine.decode_steps",
            n(counts.decode_steps()),
            "count",
            TPS,
            ONLINE,
        ),
        row("engine.prefills", n(counts.prefills), "count", TPS, ONLINE),
        row(
            "engine.preemptions",
            n(counts.preemptions),
            "count",
            TPS,
            ONLINE,
        ),
        row(
            "engine.ff_stretches",
            n(counts.ff_stretches),
            "count",
            TPS,
            ONLINE,
        ),
        row(
            "engine.ff_step_ratio",
            ratio(counts.ff_steps, counts.decode_steps()),
            "ratio",
            TPS,
            ONLINE,
        ),
        row("engine.self_share", 1.0 - others, "ratio", TPS, ONLINE),
        row(
            "attention.calls",
            n(counts.attention_calls()),
            "count",
            TPS,
            OFFLINE,
        ),
        row(
            "attention.ns_per_call",
            1e9 * c.attn.per_op(),
            "ns",
            TPS,
            OFFLINE,
        ),
        row("attention.share", attention, "ratio", TPS, OFFLINE),
        row("kv_cache.ops", n(counts.kv_ops()), "count", TPS, OFFLINE),
        row(
            "kv_cache.ns_per_op",
            1e9 * c.kv.per_op(),
            "ns",
            TPS,
            OFFLINE,
        ),
        row("kv_cache.share", kv, "ratio", TPS, OFFLINE),
        row(
            "compiler.graph_runs",
            n(counts.graph_runs),
            "count",
            GRID_TPS,
            "cold_grid",
        ),
        row(
            "compiler.cache_hit_ratio",
            1.0 - ratio(counts.graph_runs, counts.graph_lookups()),
            "ratio",
            GRID_TPS,
            "cold_grid",
        ),
        row(
            "compiler.us_per_graph",
            1e6 * c.graphs.per_op(),
            "us",
            GRID_TPS,
            "cold_grid",
        ),
        row("compiler.share", compiler, "ratio", GRID_TPS, "cold_grid"),
        row(
            "metrics.records",
            n(counts.metric_records()),
            "count",
            RSS_TPS,
            OFFLINE,
        ),
        row(
            "metrics.ns_per_record",
            1e9 * c.rec.per_op(),
            "ns",
            RSS_TPS,
            OFFLINE,
        ),
        row("metrics.share", records, "ratio", RSS_TPS, OFFLINE),
        row(
            "cluster.dispatches",
            n(counts.dispatches),
            "count",
            TPS,
            ONLINE,
        ),
        row("cluster.retries", n(counts.retries), "count", TPS, FAULTS),
        row("cluster.catchup_share", catchup, "ratio", TPS, ONLINE),
        row("net.flows", n(flows), "count", TPS, FAULTS),
        row("net.us_per_flow", 1e6 * c.net.per_op(), "us", TPS, FAULTS),
        row("net.share", net, "ratio", TPS, FAULTS),
        row(
            "trace.overhead",
            traced_wall / wall - 1.0,
            "ratio",
            "none",
            "all",
        ),
    ]
}

/// `--trace 1`: counts from the traced run, costs from replays. Each rep
/// times an untraced pass, a traced pass and the replays back to back,
/// so a rep's shares and tracing overhead see one host state; every
/// value is the median over reps.
fn per_layer(
    w: Workload,
    size: Size,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<LayerMetric> {
    let order = order_for(w, seed);
    let start = Instant::now();
    let unit = w.unit_points(size);
    let mut untraced: Vec<Option<Outcome>> = vec![None; unit];
    let mut first_spans: Vec<Option<Vec<Span>>> = vec![None; unit];
    let mut reps: Vec<Vec<LayerMetric>> = Vec::new();
    while reps.is_empty() || (start.elapsed().as_secs_f64() < 0.75 * seconds && reps.len() < 15) {
        let mut results = Vec::with_capacity(unit);
        let wall = pass(w, size, seed, &order, Point::run, |k, out| {
            let offered = workload::requests(w, size, seed, k, &order).len();
            let out = checked(out, offered);
            results.push(out.as_ref().map(|_| ()).map_err(Clone::clone));
            untraced[k] = out.ok();
        });
        let unit_check = workload::check_unit(w, size, seed, &untraced);
        for r in results {
            tally.call(r.and(unit_check.clone()));
        }
        let traced_wall = pass(w, size, seed, &order, Point::run_traced, |k, out| {
            let checks = out.and_then(|(o, s)| {
                if untraced[k].as_ref().is_none_or(|u| digest(u) != digest(&o)) {
                    return Err("traced report differs from the untraced one".to_owned());
                }
                match &first_spans[k] {
                    Some(first) if Counts::of(first) != Counts::of(&s) => {
                        Err("per-layer counts differ between traced runs".to_owned())
                    }
                    Some(_) => Ok(()),
                    None => {
                        first_spans[k] = Some(s);
                        Ok(())
                    }
                }
            });
            tally.call(checks);
        });
        let spans: Vec<Vec<Span>> = first_spans.iter().flatten().cloned().collect();
        if spans.len() < unit {
            break; // a traced call failed; its counts are unknown
        }
        let mut counts = Counts::default();
        let mut events = 0;
        for (k, s) in spans.iter().enumerate() {
            let c = Counts::of(s);
            let arrivals = workload::requests(w, size, seed, k, &order).len();
            events += layers::sim_events(w, arrivals, &c);
            counts.add(&c);
        }
        let costs = replay_unit(w, size, seed, &order, &spans, tally);
        reps.push(layer_values(w, events, &counts, &costs, wall, traced_wall));
    }
    println!(
        "{}: {} reps of untraced pass, traced pass and replays",
        w.name(),
        reps.len()
    );
    let mut values = reps.pop().unwrap_or_default();
    for (i, row) in values.iter_mut().enumerate() {
        let mut column: Vec<f64> = reps.iter().map(|r| r[i].metric.value).collect();
        column.push(row.metric.value);
        row.metric.value = median(&mut column);
    }
    values
}

/// Wall time of standalone replica engines, each serving the sub-trace
/// the cluster dispatched to it.
fn standalone_wall(w: Workload, point: &Point, spans: &[Span], tally: &mut Tally) -> f64 {
    let mut total = 0.0;
    for sub in layers::sub_traces(point, spans) {
        if sub.is_empty() {
            continue;
        }
        let mut engine = workload::replica_engine(w);
        let t = Instant::now();
        let out = engine.run(&sub);
        total += t.elapsed().as_secs_f64();
        if let Err(e) = out {
            tally.call(Err(format!("standalone replica failed: {e}")));
        }
    }
    total
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn write_reference(argv: &[String]) -> Result<(), String> {
    let [name, first, last] = argv else {
        return Err("--write-reference <workload> <first> <last>".to_owned());
    };
    let w = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let first: u64 = first.parse().map_err(|_| format!("bad key {first}"))?;
    let last: u64 = last.parse().map_err(|_| format!("bad key {last}"))?;
    for key in first..=last {
        println!("{}", workload::reference_line(w, key)?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-reference") {
        return match write_reference(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seed = args.seed % workload::STORED_SEEDS;
    println!("{}", host_facts());
    println!(
        "workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "inputs of stored seed {seed} (--seed mod {}); every call is checked against the references stored in perfbench/reference",
        workload::STORED_SEEDS
    );
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let values = per_layer(w, Size::Full, seed, args.seconds, &mut tally);
        println!("attention.calls and compiler.cache_hit_ratio are lower bounds under fast-forward: the stretch-length search is invisible from outside");
        values
            .into_iter()
            .map(|LayerMetric { metric, moves, on }| {
                let Metric { name, value, unit } = metric;
                println!("  {name:<26} {value:>16.6} {unit:<6} moves {moves} on {on}");
                metric
            })
            .collect()
    } else {
        let metrics = end_to_end(w, seed, args.seconds, &mut tally);
        for m in &metrics {
            println!("  {:<18} {:>16.6} {}", m.name, m.value, m.unit);
        }
        metrics
    };
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  error_rate = {error_rate} ({} of {} calls failed a check)",
        tally.failed, tally.attempted
    );
    for p in &tally.problems {
        println!("  check failed: {p}");
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    println!("{}", json(correct, &tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_counts_repeat_exactly_at_smoke_size() {
        for w in Workload::ALL {
            let mut tally = Tally::default();
            let a = per_layer(w, Size::Smoke, 7, 0.01, &mut tally);
            let b = per_layer(w, Size::Smoke, 7, 0.01, &mut tally);
            assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.problems);
            let counted = |r: &[LayerMetric]| -> Vec<(&'static str, f64)> {
                r.iter()
                    .filter(|row| row.metric.unit == "count")
                    .map(|row| (row.metric.name, row.metric.value))
                    .collect()
            };
            let counts = counted(&a);
            assert!(
                counts
                    .iter()
                    .any(|&(name, v)| name == "engine.prefills" && v > 0.0),
                "{}: no work counted",
                w.name()
            );
            assert_eq!(counts, counted(&b), "{}", w.name());
        }
    }

    #[test]
    fn stored_grid_reference_matches_recomputation() {
        let stored = workload::reference(Workload::ColdGrid, Size::Full, 0).unwrap();
        let fresh = workload::compute_reference(Workload::ColdGrid, Size::Full, 0).unwrap();
        assert_eq!(stored, fresh);
    }

    #[test]
    fn every_seed_has_a_stored_reference_and_no_other_key_does() {
        for w in Workload::ALL {
            for seed in 0..workload::STORED_SEEDS {
                assert!(
                    workload::reference(w, Size::Full, seed).is_ok(),
                    "{} {seed}",
                    w.name()
                );
            }
            let unstored = workload::reference(w, Size::Full, workload::STORED_SEEDS);
            assert!(unstored.is_err(), "{}", w.name());
        }
    }

    #[test]
    fn a_call_is_scaled_by_the_probes_around_it() {
        let r = probe::REFERENCE_S;
        let samples = Samples {
            probes: vec![r, 3.0 * r, 2.0 * r],
            calls: vec![vec![(1.0, 0), (2.0, 1)]],
            setups: vec![(0.5, 1)],
        };
        assert!((samples.scaled((1.0, 0)) - 0.5).abs() < 1e-12);
        assert!((samples.scaled((2.0, 1)) - 0.8).abs() < 1e-12);
        assert!((samples.point_s(0, true) - 0.65).abs() < 1e-12);
        assert!((samples.point_s(0, false) - 1.5).abs() < 1e-12);
        assert!(probe::probe_s() > 0.0);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut xs), 2.5);
        assert!((quantile(&mut xs, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
