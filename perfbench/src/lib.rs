//! Repository benchmark for the max-sum diversification library.
//!
//! One closed-loop client on one thread drives one of four workloads
//! through the library's public API (default build, serial scans) and
//! reports end-to-end metrics, or — with tracing — per-layer metrics
//! measured from outside the library. See `METRICS.md` for every metric's
//! definition, clock, and the workloads it should and should not move.
//!
//! A run is a sequence of *passes*. Each pass sets the workload up from
//! scratch, replays an untimed warm-up prefix of its script, then times
//! every remaining request. Pass `k` of seed `s` always replays the same
//! script; passes repeat until the run's time budget is spent, or a
//! replay stops after a fixed number of them. The command splits an
//! untraced run over several processes that replay the same passes and
//! [`combine`]s their outcomes request by request.

pub mod check;
pub mod host;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use host::{HostDelta, HostSample};
use trace::Tracer;
pub use workloads::Workload;

/// Passes every run completes, whatever its time budget; the objective
/// ratio is taken over exactly these, so it is a function of the seed.
pub const MIN_PASSES: u64 = 3;

/// Probe time, in on-CPU milliseconds, that combined runs scale their
/// timings to: a round figure near what [`host::probe_ns`] took on the
/// tuning machine (2.1–2.5 ms on a 2-vCPU KVM guest of a Xeon with 2 MiB
/// of L2 per core).
pub const PROBE_REFERENCE_MS: f64 = 2.0;

/// Timed requests the passes of a run hold at least, so that at least 10
/// lie beyond the 99th percentile.
pub const MIN_TIMED_REQUESTS: usize = 1000;

/// Input sizes: the benchmark's own, or toy sizes for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// With tracing: also write every span as CSV here.
    pub spans: Option<std::path::PathBuf>,
    /// Replay exactly this many passes (0, 1, …), stopping early only when
    /// `seconds` runs out; `None` runs passes until `seconds` is spent.
    pub passes: Option<u64>,
    /// Timed requests to complete before stopping (without `passes`).
    pub min_timed_requests: usize,
}

/// What one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// On-CPU time from workload start to the end of set-up.
    pub setup_ns: u64,
    /// On-CPU time of every timed (post-warm-up) request.
    pub request_ns: Vec<u64>,
    /// Requests attempted, warm-up included.
    pub attempted: u64,
    /// Requests that panicked, were wrongly rejected, or failed a check.
    pub failed: u64,
    /// Maintained objective over from-scratch reference (only when asked).
    pub objective_ratio: Option<f64>,
    /// Fold of every answer's objective bits.
    pub digest: u64,
}

impl Pass {
    /// Requests per second of on-CPU request time.
    pub fn throughput(&self) -> f64 {
        let total: u64 = self.request_ns.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.request_ns.len() as f64 * 1e9 / total as f64
        }
    }
}

/// How a per-layer metric is derived from the trace.
#[derive(Debug, Clone, Copy)]
enum Agg {
    /// Quantile of a span's durations (ms), times a unit scale.
    Span(&'static str, f64, f64),
    /// Mean of observed values.
    Mean(&'static str),
    /// Sum of observed values.
    Sum(&'static str),
    /// Max of observed values.
    Max(&'static str),
    /// Filled in by the runner.
    Run,
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("objective_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric, in print order: name, unit, derivation.
/// `BENCHMARK.json` lists exactly these names (the self-test checks it).
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, Agg)] = &[
    ("core.greedy.solve_ms.p50", "ms", Agg::Span("core.greedy.solve", 0.5, 1.0)),
    ("core.greedy.solve_ms.p99", "ms", Agg::Span("core.greedy.solve", 0.99, 1.0)),
    ("core.local_search.solve_ms.p50", "ms", Agg::Span("core.local_search.solve", 0.5, 1.0)),
    ("core.local_search.swaps.mean", "count", Agg::Mean("core.local_search.swaps")),
    ("submodular.build_ms.p50", "ms", Agg::Span("submodular.build", 0.5, 1.0)),
    ("metric.implicit.build_ms.p50", "ms", Agg::Span("metric.implicit.build", 0.5, 1.0)),
    ("metric.implicit.distance_calls.per_req", "count", Agg::Mean("metric.implicit.distance_calls")),
    ("metric.implicit.row_sweeps.per_req", "count", Agg::Mean("metric.implicit.row_sweeps")),
    ("metric.matrix.distance_calls.per_req", "count", Agg::Mean("metric.matrix.distance_calls")),
    ("metric.matrix.row_sweeps.per_req", "count", Agg::Mean("metric.matrix.row_sweeps")),
    ("core.session.ingest_ms.p50", "ms", Agg::Span("core.session.ingest", 0.5, 1.0)),
    ("core.session.ingest_ms.p99", "ms", Agg::Span("core.session.ingest", 0.99, 1.0)),
    ("core.session.stabilize_ms.p50", "ms", Agg::Span("core.session.stabilize", 0.5, 1.0)),
    ("core.session.stabilize_ms.p99", "ms", Agg::Span("core.session.stabilize", 0.99, 1.0)),
    ("core.session.scan.skipped_share", "fraction", Agg::Mean("core.session.scan.skipped")),
    ("core.session.scan.column_share", "fraction", Agg::Mean("core.session.scan.column")),
    ("core.session.scan.cached_share", "fraction", Agg::Mean("core.session.scan.cached")),
    ("core.session.scan.full_share", "fraction", Agg::Mean("core.session.scan.full")),
    ("core.session.request_ms.full.p50", "ms", Agg::Span("core.session.request.full", 0.5, 1.0)),
    ("core.session.request_ms.skipped.p50", "ms", Agg::Span("core.session.request.skipped", 0.5, 1.0)),
    ("core.session.updates.mean", "count", Agg::Mean("core.session.updates")),
    ("core.session.refills.mean", "count", Agg::Mean("core.session.refills")),
    ("core.session.cap_hits", "count", Agg::Sum("core.session.cap_hit")),
    ("core.serving.submit_us.p50", "us", Agg::Span("core.serving.submit", 0.5, 1e3)),
    ("core.serving.query_ms.p50", "ms", Agg::Span("core.serving.query", 0.5, 1.0)),
    ("core.serving.query_ms.p99", "ms", Agg::Span("core.serving.query", 0.99, 1.0)),
    ("core.serving.drain_all_ms.p50", "ms", Agg::Span("core.serving.drain_all", 0.5, 1.0)),
    ("core.serving.evict_ms.p50", "ms", Agg::Span("core.serving.evict", 0.5, 1.0)),
    ("core.serving.attach_ms.p50", "ms", Agg::Span("core.serving.attach", 0.5, 1.0)),
    ("core.serving.flushed.mean", "count", Agg::Mean("core.serving.flushed")),
    ("core.serving.swaps.mean", "count", Agg::Mean("core.serving.swaps")),
    ("core.serving.rejected", "count", Agg::Sum("core.serving.rejected")),
    ("core.serving.staleness.max", "count", Agg::Max("core.serving.staleness")),
    ("metric.overlay.pairs.total", "count", Agg::Mean("metric.overlay.pairs")),
    ("submodular.shared.weight_deltas.total", "count", Agg::Mean("submodular.shared.weight_deltas")),
    ("core.sharded.apply_ms.p50", "ms", Agg::Span("core.sharded.apply", 0.5, 1.0)),
    ("core.sharded.apply_ms.p99", "ms", Agg::Span("core.sharded.apply", 0.99, 1.0)),
    ("core.sharded.request_ms.quiet.p50", "ms", Agg::Span("core.sharded.request.quiet", 0.5, 1.0)),
    ("core.sharded.request_ms.reduce.p50", "ms", Agg::Span("core.sharded.request.reduce", 0.5, 1.0)),
    ("core.sharded.reduce_share", "fraction", Agg::Mean("core.sharded.reduce")),
    ("core.sharded.perturbed_shards.mean", "count", Agg::Mean("core.sharded.perturbed_shards")),
    ("core.sharded.dirty_shards.mean", "count", Agg::Mean("core.sharded.dirty_shards")),
    ("core.sharded.reduce_scope.mean", "count", Agg::Mean("core.sharded.reduce_scope")),
    ("core.sharded.swaps.mean", "count", Agg::Mean("core.sharded.swaps")),
    ("core.sharded.refills.mean", "count", Agg::Mean("core.sharded.refills")),
    ("bench.glue_share", "fraction", Agg::Run),
    ("error_rate", "fraction", Agg::Run),
    ("host.steal_s", "s", Agg::Run),
    ("host.runq_wait_s", "s", Agg::Run),
    ("host.oncpu_s", "s", Agg::Run),
    ("host.nproc", "count", Agg::Run),
    ("trace.overhead_ratio", "ratio", Agg::Run),
];

/// Names and units of the end-to-end metrics.
pub fn end_to_end_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().copied()
}

/// Names and units of the per-layer metrics.
pub fn per_layer_names() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|&(n, u, _)| (n, u))
}

/// One run's result.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the run reports: end-to-end without tracing,
    /// per-layer with it.
    pub metrics: Vec<Metric>,
    /// Everything else measured, for the log.
    pub detail: Vec<Metric>,
    pub passes: u64,
    /// Per pass: the untraced and (with tracing) traced answer digests.
    pub digests: Vec<(u64, Option<u64>)>,
    /// On-CPU latency (ms) of every timed untraced request, in script
    /// order.
    pub latencies_ms: Vec<f64>,
    /// On-CPU set-up time (s) of every untraced pass, in pass order.
    pub setups_s: Vec<f64>,
    /// On-CPU time (ms) of [`host::probe_ns`] before every pass.
    pub probes_ms: Vec<f64>,
}

/// Runs one pass, turning a panic into one failed request.
fn guarded_pass(opts: &Options, pass: u64, tracer: &mut Tracer) -> Pass {
    // Replays skip the untimed reference solve; the first process's
    // ratios are the run's.
    let with_ratio = pass < MIN_PASSES && opts.passes.is_none();
    catch_unwind(AssertUnwindSafe(|| {
        opts.workload
            .run_pass(opts.scale, opts.seed, pass, tracer, with_ratio)
    }))
    .unwrap_or_else(|_| Pass {
        attempted: 1,
        failed: 1,
        ..Pass::default()
    })
}

/// Runs the workload for `opts.seconds` (at least [`MIN_PASSES`] passes
/// and `opts.min_timed_requests` timed requests), or replays
/// `opts.passes` passes, in this process. With
/// tracing, every pass runs twice on the same script — untraced, then
/// traced — and the traced counts are accepted only if both runs
/// answered bit-identically.
pub fn run(opts: &Options) -> Outcome {
    let host_start = HostSample::now();
    let start = Instant::now();
    let mut quiet = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut digests = Vec::new();
    let mut probes = Vec::new();
    let mut peak_rss = 0.0_f64;
    let mut pass = 0;
    loop {
        probes.push(host::probe_ns() as f64 * 1e-6);
        // Peak RSS covers the passes only, not the probe's arrays.
        host::reset_peak_rss();
        let p = guarded_pass(opts, pass, &mut quiet);
        let broken = p.failed > 0 && p.request_ns.is_empty();
        let mut pair = (p.digest, None);
        plain.push(p);
        if opts.trace && !broken {
            let t = guarded_pass(opts, pass, &mut tracer);
            pair.1 = Some(t.digest);
            traced.push(t);
        }
        digests.push(pair);
        peak_rss = peak_rss.max(host::peak_rss_mib());
        pass += 1;
        let timed: usize = plain.iter().map(|p| p.request_ns.len()).sum();
        let out_of_time = start.elapsed().as_secs_f64() >= opts.seconds;
        let done = match opts.passes {
            Some(passes) => pass >= passes || out_of_time,
            None => pass >= MIN_PASSES && timed >= opts.min_timed_requests && out_of_time,
        };
        if broken || done {
            break;
        }
    }
    let host = HostDelta::between(host_start, HostSample::now());

    let attempted: u64 = plain.iter().chain(&traced).map(|p| p.attempted).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|p| p.failed).sum();
    let identical = digests.iter().all(|&(a, b)| b.is_none_or(|b| b == a));

    let throughput =
        |passes: &[Pass]| stats::median(&passes.iter().map(Pass::throughput).collect::<Vec<_>>());
    let latencies: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.request_ns.iter().map(|&ns| ns as f64 * 1e-6))
        .collect();
    let setups: Vec<f64> = plain.iter().map(|p| p.setup_ns as f64 * 1e-9).collect();
    let ratios: Vec<f64> = plain.iter().filter_map(|p| p.objective_ratio).collect();
    // In `END_TO_END` order.
    let values = [
        stats::median(&setups),
        throughput(&plain),
        stats::quantile(&latencies, 0.5),
        stats::quantile(&latencies, 0.99),
        stats::mean(&ratios),
        peak_rss,
    ];
    let end_to_end: Vec<Metric> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let error_rate = failed as f64 / attempted.max(1) as f64;
    let run_value = |name: &str| match name {
        "bench.glue_share" => tracer.glue_share(),
        "error_rate" => error_rate,
        "host.steal_s" => host.steal_s,
        "host.runq_wait_s" => host.runq_wait_s,
        "host.oncpu_s" => host.oncpu_s,
        "host.nproc" => host::nproc() as f64,
        "trace.overhead_ratio" => {
            let base = throughput(&plain);
            if base > 0.0 {
                throughput(&traced) / base
            } else {
                0.0
            }
        }
        _ => unreachable!("unknown runner metric {name}"),
    };
    let per_layer: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit, agg)| {
            let value = match agg {
                Agg::Span(span, q, scale) => stats::quantile(tracer.durations(span), q) * scale,
                Agg::Mean(key) => stats::mean(tracer.values(key)),
                Agg::Sum(key) => tracer.values(key).iter().sum(),
                Agg::Max(key) => stats::max(tracer.values(key)),
                Agg::Run => run_value(name),
            };
            (name, value, unit)
        })
        .collect();
    if let (true, Some(path)) = (opts.trace, &opts.spans) {
        if let Err(e) = tracer.write_spans(path) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }

    let mut detail = vec![
        ("error_rate", error_rate, "fraction"),
        ("requests_timed", latencies.len() as f64, "count"),
        ("host.steal_s", host.steal_s, "s"),
        ("host.runq_wait_s", host.runq_wait_s, "s"),
        ("host.oncpu_s", host.oncpu_s, "s"),
        ("host.nproc", host::nproc() as f64, "count"),
    ];
    let metrics = if opts.trace {
        detail.extend(end_to_end);
        per_layer
    } else {
        end_to_end
    };
    Outcome {
        correct: failed == 0 && identical,
        attempted,
        failed,
        metrics,
        detail,
        passes: pass,
        digests,
        latencies_ms: latencies,
        setups_s: setups,
        probes_ms: probes,
    }
}

/// Element by element, the least of the values the runs recorded at
/// each position; a run that stopped early contributes to its prefix.
fn least_by_position(runs: &[Vec<f64>]) -> Vec<f64> {
    let len = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..len)
        .map(|i| {
            runs.iter()
                .filter_map(|r| r.get(i).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Combines untraced runs made in separate processes that replayed the
/// same passes. Each request's latency, each pass's set-up time and each
/// pass's probe time is the least any process measured for it: every
/// replay executes the same code on the same inputs, so the least is the
/// cost with the least interference from the rest of the host. The
/// timings are then scaled by [`PROBE_REFERENCE_MS`] over the median
/// probe time, which corrects for how fast the host ran at those quietest
/// moments. Throughput is the requests over the sum of the scaled
/// latencies, the latency percentiles are taken over them, set-up time is
/// their median over passes; peak RSS is the largest of any process, and
/// the objective ratio is the first process's. A process that exited
/// without a result counts one failed request.
pub fn combine(runs: &[Option<Outcome>]) -> Outcome {
    let done: Vec<&Outcome> = runs.iter().flatten().collect();
    let lost = (runs.len() - done.len()) as u64;
    let latencies = least_by_position(
        &done
            .iter()
            .map(|o| o.latencies_ms.clone())
            .collect::<Vec<_>>(),
    );
    let setups = least_by_position(&done.iter().map(|o| o.setups_s.clone()).collect::<Vec<_>>());
    let probes = least_by_position(&done.iter().map(|o| o.probes_ms.clone()).collect::<Vec<_>>());
    let probe_ms = stats::median(&probes);
    let scale = if probe_ms > 0.0 {
        PROBE_REFERENCE_MS / probe_ms
    } else {
        1.0
    };
    let latencies: Vec<f64> = latencies.iter().map(|ms| ms * scale).collect();
    let setups: Vec<f64> = setups.iter().map(|s| s * scale).collect();
    let total_ms: f64 = latencies.iter().sum();
    let first_ratio = runs
        .first()
        .and_then(Option::as_ref)
        .and_then(|o| o.metrics.iter().find(|m| m.0 == "objective_ratio"))
        .map_or(0.0, |m| m.1);
    let peak_rss = stats::max(
        &done
            .iter()
            .filter_map(|o| o.metrics.iter().find(|m| m.0 == "peak_rss_mb").map(|m| m.1))
            .collect::<Vec<_>>(),
    );
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => stats::median(&setups),
                "throughput_rps" if total_ms > 0.0 => latencies.len() as f64 * 1e3 / total_ms,
                "throughput_rps" => 0.0,
                "latency_p50_ms" => stats::quantile(&latencies, 0.5),
                "latency_p99_ms" => stats::quantile(&latencies, 0.99),
                "objective_ratio" => first_ratio,
                _ => peak_rss,
            };
            (name, value, unit)
        })
        .collect();
    Outcome {
        correct: lost == 0 && done.iter().all(|o| o.correct),
        attempted: done.iter().map(|o| o.attempted).sum::<u64>() + lost,
        failed: done.iter().map(|o| o.failed).sum::<u64>() + lost,
        metrics,
        detail: Vec::new(),
        passes: done.iter().map(|o| o.passes).max().unwrap_or(0),
        digests: Vec::new(),
        latencies_ms: latencies,
        setups_s: setups,
        probes_ms: probes,
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            json_metrics(&self.metrics)
        )
    }

    /// The lines a child process prints before its result: every timed
    /// request's latency in ms, then every pass's set-up time in s.
    pub fn sample_lines(&self) -> String {
        let join = |values: &[f64]| {
            values
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        };
        format!(
            "latencies_ms: {}\nsetups_s: {}\nprobes_ms: {}",
            join(&self.latencies_ms),
            join(&self.setups_s),
            join(&self.probes_ms)
        )
    }

    /// Reads back a child process's output: [`Outcome::sample_lines`]
    /// followed by the result line.
    pub fn parse_process(stdout: &str) -> Option<Outcome> {
        let mut outcome = Self::parse_result(stdout.lines().last()?)?;
        let samples = |prefix: &str| -> Option<Vec<f64>> {
            stdout
                .lines()
                .find_map(|l| l.strip_prefix(prefix))?
                .split_whitespace()
                .map(|x| x.parse().ok())
                .collect()
        };
        outcome.latencies_ms = samples("latencies_ms:")?;
        outcome.setups_s = samples("setups_s:")?;
        outcome.probes_ms = samples("probes_ms:")?;
        outcome.passes = outcome.setups_s.len() as u64;
        Some(outcome)
    }

    /// Reads back an untraced [`Outcome::result_json`] line (metrics,
    /// counts and verdict; no detail).
    pub fn parse_result(line: &str) -> Option<Outcome> {
        let field = |key: &str| {
            let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
            let rest = &line[at..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        let mut metrics = Vec::new();
        for &(name, unit) in END_TO_END {
            let value = field(name)?.strip_prefix("{\"value\": ")?.parse().ok()?;
            metrics.push((name, value, unit));
        }
        Some(Outcome {
            correct: field("correct")?.parse().ok()?,
            attempted: field("attempted")?.parse().ok()?,
            failed: field("failed")?.parse().ok()?,
            metrics,
            detail: Vec::new(),
            passes: 0,
            digests: Vec::new(),
            latencies_ms: Vec::new(),
            setups_s: Vec::new(),
            probes_ms: Vec::new(),
        })
    }

    /// The log line: workload, seed, host, revision, passes and every
    /// other measured value.
    pub fn detail_json(&self, opts: &Options) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {}, \
             \"nproc\": {}, \"revision\": \"{}\", \"detail\": {}}}",
            opts.workload.name(),
            opts.seed,
            opts.trace,
            self.passes,
            host::nproc(),
            host::revision(),
            json_metrics(&self.detail)
        )
    }
}
