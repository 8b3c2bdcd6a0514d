//! Per-layer attribution from outside the program: deterministic op
//! counts read from a traced run's span stream, and per-call costs timed
//! by replaying each layer's public functions on the inputs that trace
//! implies.

use crate::workload::{Point, Workload, REPLICAS};
use dcm_compiler::{CompileOptions, Device};
use dcm_core::metrics::{LatencyRecorder, MetricsMode};
use dcm_core::sim::EventQueue;
use dcm_core::trace::{Span, SpanKind};
use dcm_net::{FlowSim, Topology};
use dcm_vllm::{FabricConfig, PagedAttention, PagedKvCache, Request};
use dcm_workloads::llama::LlamaConfig;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

fn arg(span: &Span, key: &str) -> Option<f64> {
    span.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

fn arg_usize(span: &Span, key: &str) -> usize {
    // Span arguments carry exact small integers (batch sizes, token
    // counts, replica indices) as f64.
    arg(span, key).map_or(0, |v| v as usize)
}

/// Op counts of one traced call, read from its spans alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `prefill` spans: one admission each.
    pub prefills: u64,
    /// `decode` spans: one exact decode step each.
    pub decode_spans: u64,
    /// `decode_ff` spans: one fast-forward stretch each.
    pub ff_stretches: u64,
    /// Decode steps covered by the stretches (their `steps` argument).
    pub ff_steps: u64,
    /// Sequences advanced, summed over exact steps and stretches.
    pub seq_steps: u64,
    pub preemptions: u64,
    /// Completed requests (`request` spans).
    pub completed: u64,
    /// Completed requests with at least two output tokens (one TPOT
    /// sample each).
    pub multi_token: u64,
    /// Distinct decode batch sizes plus distinct prefill token counts,
    /// per replica track: the engines' cost-cache misses.
    pub graph_runs: u64,
    pub dispatches: u64,
    pub retries: u64,
    pub crashes: u64,
}

impl Counts {
    /// Count the spans of one call.
    pub fn of(spans: &[Span]) -> Counts {
        let mut c = Counts::default();
        let mut graphs = BTreeSet::new();
        for s in spans {
            match (s.kind, s.detail) {
                (SpanKind::Prefill, _) => {
                    c.prefills += 1;
                    graphs.insert((s.track, 'p', arg_usize(s, "tokens")));
                }
                (SpanKind::Decode, "decode_ff") => {
                    let steps = arg_usize(s, "steps") as u64;
                    let batch = arg_usize(s, "batch");
                    c.ff_stretches += 1;
                    c.ff_steps += steps;
                    c.seq_steps += batch as u64;
                    graphs.insert((s.track, 'd', batch));
                }
                (SpanKind::Decode, _) => {
                    let batch = arg_usize(s, "batch");
                    c.decode_spans += 1;
                    c.seq_steps += batch as u64;
                    graphs.insert((s.track, 'd', batch));
                }
                (SpanKind::Preemption, _) => c.preemptions += 1,
                (SpanKind::Request, _) => {
                    c.completed += 1;
                    if arg_usize(s, "output_tokens") >= 2 {
                        c.multi_token += 1;
                    }
                }
                (SpanKind::Route, "dispatch") => c.dispatches += 1,
                (SpanKind::Route, "retry") => c.retries += 1,
                (SpanKind::Fault, "crash") => c.crashes += 1,
                _ => {}
            }
        }
        c.graph_runs = graphs.len() as u64;
        c
    }

    pub fn add(&mut self, o: &Counts) {
        self.prefills += o.prefills;
        self.decode_spans += o.decode_spans;
        self.ff_stretches += o.ff_stretches;
        self.ff_steps += o.ff_steps;
        self.seq_steps += o.seq_steps;
        self.preemptions += o.preemptions;
        self.completed += o.completed;
        self.multi_token += o.multi_token;
        self.graph_runs += o.graph_runs;
        self.dispatches += o.dispatches;
        self.retries += o.retries;
        self.crashes += o.crashes;
    }

    /// All decode steps: exact ones plus those inside stretches.
    pub fn decode_steps(&self) -> u64 {
        self.decode_spans + self.ff_steps
    }

    /// Attention costings: one per exact step, and at least two per
    /// stretch (its first and last step). A lower bound in fast-forward
    /// mode — the stretch-length binary search is invisible from outside.
    pub fn attention_calls(&self) -> u64 {
        self.decode_spans + 2 * self.ff_stretches
    }

    /// Cost-cache lookups: one per admission, exact step and stretch (a
    /// lower bound in fast-forward mode, as above).
    pub fn graph_lookups(&self) -> u64 {
        self.prefills + self.decode_spans + self.ff_stretches
    }

    /// Paged-KV operations: admit plus first-token append per admission,
    /// one (bulk) append per sequence per step or stretch, one release
    /// per completion or preemption.
    pub fn kv_ops(&self) -> u64 {
        2 * self.prefills + self.seq_steps + self.completed + self.preemptions
    }

    /// Latency samples recorded: queue delay and TTFT per fresh
    /// admission (re-admissions after a preemption record neither), TPOT
    /// per completion with two or more tokens.
    pub fn metric_records(&self) -> u64 {
        2 * self.prefills.saturating_sub(self.preemptions) + self.multi_token
    }
}

/// Arrival events pushed through an `EventQueue`: every request into its
/// engine's queue, plus — for a cluster — each into the router's merged
/// queue and each retry and crash edge. Fabric wake-ups are not in the
/// trace, so this is a lower bound for `faults_fabric`.
pub fn sim_events(w: Workload, arrivals: usize, c: &Counts) -> u64 {
    if w.is_cluster() {
        arrivals as u64 + c.dispatches + c.retries + c.crashes
    } else {
        arrivals as u64
    }
}

/// Median seconds per rep of `f`: repeats until `min_total_s` has passed
/// (at least once, at most 25 times).
fn median_rep_s(min_total_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || (start.elapsed().as_secs_f64() < min_total_s && reps.len() < 25) {
        let t = Instant::now();
        f();
        reps.push(t.elapsed().as_secs_f64());
    }
    crate::median(&mut reps)
}

/// Replay cost in seconds and the number of operations it covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    pub seconds: f64,
    pub ops: u64,
}

impl Replay {
    pub fn add(&mut self, o: Replay) {
        self.seconds += o.seconds;
        self.ops += o.ops;
    }

    /// Seconds per operation (0 when the layer saw no work).
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.seconds / self.ops as f64
        }
    }
}

const REPLAY_MIN_S: f64 = 0.05;

/// Push the call's real arrival timestamps, ties included, into a fresh
/// queue and drain it the way an engine promotes arrivals: every event
/// due at each successive arrival instant.
pub fn replay_event_queue(requests: &[Request]) -> Replay {
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        let mut q = EventQueue::with_capacity(requests.len());
        for r in requests {
            q.push(r.arrival_s, 0, r.id);
        }
        let mut drained = 0u64;
        while let Some(now) = q.peek_time() {
            while let Some(e) = q.pop_due(now) {
                drained ^= black_box(e.payload);
            }
        }
        black_box(drained);
    });
    Replay {
        seconds,
        ops: requests.len() as u64,
    }
}

/// Decode-step batch sizes observed in a trace, in trace order (exact
/// steps and stretches alike).
pub fn decode_batches(spans: &[Span]) -> Vec<usize> {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Decode)
        .map(|s| arg_usize(s, "batch"))
        .collect()
}

/// Time `decode_cost_from_stats` at the observed batch sizes, with
/// sequence lengths taken from the call's own requests (prompt plus half
/// the output).
pub fn replay_attention(attn: &PagedAttention, batches: &[usize], requests: &[Request]) -> Replay {
    let distinct: BTreeSet<usize> = batches.iter().copied().collect();
    let stats: Vec<(usize, dcm_vllm::BatchStats)> = distinct
        .into_iter()
        .map(|b| {
            let mut st = attn.batch_stats();
            for r in requests.iter().cycle().take(b) {
                st.add(r.input_len + r.output_len / 2);
            }
            (b, st)
        })
        .collect();
    let calls: Vec<&dcm_vllm::BatchStats> = batches
        .iter()
        .take(200_000)
        .map(|b| &stats[stats.partition_point(|(x, _)| x < b)].1)
        .collect();
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        for st in &calls {
            black_box(attn.decode_cost_from_stats(black_box(st), 0.0).time());
        }
    });
    Replay {
        seconds,
        ops: calls.len() as u64,
    }
}

/// Serve the call's requests through a fresh paged KV cache in waves of
/// `batch`: admit and first append, one append per sequence per step,
/// release. Capped at about two million operations.
pub fn replay_kv_cache(requests: &[Request], batch: usize, block_tokens: usize) -> Replay {
    const MAX_OPS: u64 = 1 << 21;
    let batch = batch.max(1);
    let longest = requests
        .iter()
        .map(|r| r.input_len + r.output_len)
        .max()
        .unwrap_or(1);
    let blocks = batch * longest.div_ceil(block_tokens);
    let mut ops = 0u64;
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        let mut kv = PagedKvCache::new(blocks, block_tokens);
        ops = 0;
        for wave in requests.chunks(batch) {
            for r in wave {
                kv.admit(r.id, r.input_len)
                    .expect("replay cache sized for the wave");
                kv.append_token(r.id)
                    .expect("replay cache sized for the wave");
            }
            let steps = wave.iter().map(|r| r.output_len).max().unwrap_or(1);
            for step in 1..steps {
                for r in wave.iter().filter(|r| r.output_len > step) {
                    kv.append_token(r.id)
                        .expect("replay cache sized for the wave");
                    ops += 1;
                }
            }
            for r in wave {
                kv.release(r.id).expect("admitted above");
            }
            ops += 3 * wave.len() as u64;
            if ops >= MAX_OPS {
                break;
            }
        }
        black_box(kv.free_blocks());
    });
    Replay { seconds, ops }
}

/// Graph shapes a call compiled: decode batch sizes and prefill token
/// counts, distinct over every replica.
pub fn graph_shapes(spans: &[Span]) -> (Vec<usize>, Vec<usize>) {
    let mut decode = BTreeSet::new();
    let mut prefill = BTreeSet::new();
    for s in spans {
        match s.kind {
            SpanKind::Decode => {
                decode.insert(arg_usize(s, "batch"));
            }
            SpanKind::Prefill => {
                prefill.insert(arg_usize(s, "tokens"));
            }
            _ => {}
        }
    }
    (decode.into_iter().collect(), prefill.into_iter().collect())
}

/// At most `n` evenly spaced elements of `xs`.
fn sample(xs: &[usize], n: usize) -> Vec<usize> {
    if xs.len() <= n {
        return xs.to_vec();
    }
    (0..n).map(|i| xs[i * xs.len() / n]).collect()
}

/// Build and run the call's `decode_nonattn_graph` / `prefill_graph`
/// shapes on `device` (at most 24 of each), as a cost-cache miss does.
pub fn replay_graphs(device: &Device, decode: &[usize], prefill: &[usize]) -> Replay {
    let model = LlamaConfig::llama31_8b();
    let decode = sample(decode, 24);
    let prefill = sample(prefill, 24);
    let opts = CompileOptions::default();
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        for &b in &decode {
            black_box(
                device
                    .run_graph(&model.decode_nonattn_graph(b, 1), &opts)
                    .time_s(),
            );
        }
        for &t in &prefill {
            black_box(
                device
                    .run_graph(&model.prefill_graph(1, t, 1), &opts)
                    .time_s(),
            );
        }
    });
    Replay {
        seconds,
        ops: (decode.len() + prefill.len()) as u64,
    }
}

/// Record the call's observed TTFT samples into a fresh recorder of the
/// workload's mode and summarise it as a report does.
pub fn replay_metrics(mode: MetricsMode, spans: &[Span]) -> Replay {
    let samples: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Request)
        .filter_map(|s| arg(s, "ttft_s"))
        .collect();
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        let mut rec = LatencyRecorder::with_mode(mode);
        for &x in &samples {
            rec.record(black_box(x));
        }
        black_box((rec.mean(), rec.summary()));
    });
    Replay {
        seconds,
        ops: samples.len() as u64,
    }
}

/// Dispatch instants of a cluster trace: (time, request, replica).
pub fn dispatches(spans: &[Span]) -> Vec<(f64, u64, usize)> {
    spans
        .iter()
        .filter(|s| s.kind == SpanKind::Route && matches!(s.detail, "dispatch" | "retry"))
        .filter_map(|s| Some((s.start_s, s.request?, arg_usize(s, "replica"))))
        .collect()
}

/// The call's first 64 arrivals as flows to replicas in turn: the
/// traffic a single engine's call would start the fabric with.
pub fn arrival_flows(requests: &[Request]) -> Vec<(f64, u64, usize)> {
    requests
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, r)| (r.arrival_s, r.id, i % REPLICAS))
        .collect()
}

/// Inject one control-fabric flow per dispatch, at its instant, on the
/// star topology `FabricConfig::from_spec` describes (router egress
/// carrying the latency, hub, one link per replica), and run the flow
/// simulation to completion.
pub fn replay_flows(flows: &[(f64, u64, usize)]) -> Replay {
    let cfg = FabricConfig::from_spec(Device::gaudi2().spec());
    let seconds = median_rep_s(REPLAY_MIN_S, || {
        let mut topo = Topology::new(2 + REPLICAS);
        let egress = topo.add_link(0, 1, cfg.link_bps, cfg.latency_s);
        for i in 0..REPLICAS {
            let l = topo.add_link(1, 2 + i, cfg.link_bps, 0.0);
            topo.add_route(0, 2 + i, vec![egress, l]);
        }
        let mut sim = FlowSim::new(topo);
        for &(t, _, replica) in flows {
            sim.advance_to(t);
            black_box(sim.inject(0, 2 + replica, cfg.dispatch_bytes, &[]));
        }
        black_box(sim.run_to_completion());
    });
    Replay {
        seconds,
        ops: flows.len() as u64,
    }
}

/// Per-replica sub-traces a cluster dispatched, in dispatch order.
pub fn sub_traces(point: &Point, spans: &[Span]) -> Vec<Vec<Request>> {
    let mut by_id: Vec<Option<Request>> = vec![None; point.requests.len()];
    for r in &point.requests {
        if let Some(slot) = usize::try_from(r.id).ok().and_then(|i| by_id.get_mut(i)) {
            *slot = Some(*r);
        }
    }
    let mut subs = vec![Vec::new(); REPLICAS];
    for (_, id, replica) in dispatches(spans) {
        let r = usize::try_from(id)
            .ok()
            .and_then(|i| by_id.get(i).copied().flatten());
        if let (Some(r), Some(sub)) = (r, subs.get_mut(replica)) {
            sub.push(r);
        }
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcm_vllm::{PagedBackend, ServingEngine, SyntheticDataset};

    #[test]
    fn hand_countable_trace_gives_known_counts() {
        // 8 requests, 128-token prompts, 4 output tokens, batch 8: eight
        // prefills (each emits the first token), then three decode steps
        // at batch 8; one prefill shape and one decode shape compiled.
        let reqs = SyntheticDataset::fixed(8, 128, 4);
        let mut engine = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            8,
        );
        let (report, trace) = engine.run_traced(&reqs).unwrap();
        let c = Counts::of(trace.spans());
        assert_eq!(c.prefills, 8);
        assert_eq!(c.decode_steps(), 3);
        assert_eq!(c.ff_stretches, 0);
        assert_eq!(c.graph_runs, 2);
        assert_eq!(c.completed, 8);
        assert_eq!(c.seq_steps, 24);
        assert_eq!(c.kv_ops(), 2 * 8 + 24 + 8);
        assert_eq!(c.metric_records(), 3 * 8);
        assert_eq!(c.attention_calls(), 3);
        assert_eq!(report.total_output_tokens, 8 * 4);
        assert_eq!(graph_shapes(trace.spans()), (vec![8], vec![128]));
    }

    #[test]
    fn fast_forward_stretches_are_counted_by_their_steps() {
        let reqs = SyntheticDataset::fixed(8, 128, 40);
        let mut engine = ServingEngine::new(
            &Device::gaudi2(),
            LlamaConfig::llama31_8b(),
            1,
            PagedBackend::GaudiOpt,
            8,
        )
        .with_fast_forward(true);
        let (_, trace) = engine.run_traced(&reqs).unwrap();
        let c = Counts::of(trace.spans());
        assert!(c.ff_stretches > 0);
        assert_eq!(c.decode_steps(), 39);
        assert_eq!(c.prefills, 8);
    }
}
