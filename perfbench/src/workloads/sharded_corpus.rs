//! `sharded-corpus`: one `ShardedEngine` over an implicit Euclidean
//! `PointMetric` (round-robin shards). A request is one `try_apply_batch`
//! of weight, distance, departure and arrival perturbations, a minority
//! aimed at the proposal union so that some batches re-run the reduce.

use max_sum_diversification::prelude::*;

use crate::check::{close, fold, modular_objective, valid_set};
use crate::host::thread_cpu_ns;
use crate::rng::Rng;
use crate::trace::{Counted, CounterMark, Tracer, IMPLICIT};
use crate::{Pass, Scale};

struct Params {
    n: usize,
    dim: usize,
    machines: usize,
    p: usize,
    lambda: f64,
    batch: usize,
    /// Chance that a perturbation targets the proposal union.
    union_share: f64,
    warmup: usize,
    requests: usize,
}

impl Params {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                n: 20_000,
                dim: 8,
                machines: 8,
                p: 32,
                lambda: 0.3,
                batch: 16,
                union_share: 0.015,
                warmup: 16,
                requests: 150,
            },
            Scale::Tiny => Params {
                n: 400,
                dim: 8,
                machines: 4,
                p: 6,
                lambda: 0.3,
                batch: 16,
                union_share: 0.02,
                warmup: 8,
                requests: 48,
            },
        }
    }
}

/// Batches with arrivals and departures following a shadow availability
/// set; the hot set is the proposal union at set-up time.
fn script(rng: &mut Rng, prm: &Params, hot: &[ElementId]) -> Vec<Vec<SessionPerturbation>> {
    let n = prm.n;
    let mut active = vec![true; n];
    let mut departed: Vec<ElementId> = Vec::new();
    let mut perturbation = |rng: &mut Rng| {
        let aimed = rng.chance(prm.union_share);
        let target = |rng: &mut Rng| {
            if aimed {
                rng.pick(hot)
            } else {
                rng.below(n) as ElementId
            }
        };
        let kind = rng.unit();
        if kind < 0.4 || (kind >= 0.9 && departed.is_empty()) {
            SessionPerturbation::SetWeight {
                u: target(rng),
                value: rng.unit(),
            }
        } else if kind < 0.8 {
            let u = target(rng);
            let mut v = target(rng);
            while v == u {
                v = target(rng);
            }
            SessionPerturbation::SetDistance {
                u,
                v,
                value: rng.range(1.0, 2.0),
            }
        } else if kind < 0.9 {
            let mut u = target(rng);
            while !active[u as usize] {
                u = rng.below(n) as ElementId;
            }
            active[u as usize] = false;
            departed.push(u);
            SessionPerturbation::Depart { u }
        } else {
            let u = departed.swap_remove(rng.below(departed.len()));
            active[u as usize] = true;
            SessionPerturbation::Arrive { u }
        }
    };
    (0..prm.warmup + prm.requests)
        .map(|_| (0..prm.batch).map(|_| perturbation(rng)).collect())
        .collect()
}

pub fn run(scale: Scale, seed: u64, stream: u64, tracer: &mut Tracer, with_ratio: bool) -> Pass {
    if tracer.enabled() {
        pass(scale, seed, stream, tracer, with_ratio, |m| {
            Counted::new(m, &IMPLICIT)
        })
    } else {
        pass(scale, seed, stream, tracer, with_ratio, |m| m)
    }
}

fn pass<M: Metric>(
    scale: Scale,
    seed: u64,
    stream: u64,
    tracer: &mut Tracer,
    with_ratio: bool,
    wrap: impl Fn(PointMetric) -> M,
) -> Pass {
    let prm = Params::new(scale);
    let mut rng = Rng::new(seed, stream);
    let setup_start = thread_cpu_ns();
    // Uniform in a cube of side 1.3: typical distances fall in [1, 2),
    // the range distance rewrites are drawn from.
    let coords: Vec<f64> = (0..prm.n * prm.dim).map(|_| rng.range(0.0, 1.3)).collect();
    let mut weights: Vec<f64> = (0..prm.n).map(|_| rng.unit()).collect();
    let problem = DiversificationProblem::new(
        wrap(PointMetric::from_flat(
            PointKernel::Euclidean,
            prm.n,
            prm.dim,
            coords,
        )),
        ModularFunction::new(weights.clone()),
        prm.lambda,
    );
    let config = ShardedConfig {
        machines: prm.machines,
        scheme: PartitionScheme::RoundRobin,
        ..ShardedConfig::default()
    };
    let mut engine = ShardedEngine::new(&problem, prm.p, config);
    let mut out = Pass {
        setup_ns: thread_cpu_ns() - setup_start,
        ..Pass::default()
    };

    let hot = engine.union().to_vec();
    let batches = script(&mut rng, &prm, &hot);
    let mut active = vec![true; prm.n];
    let traced = tracer.enabled();
    for (i, batch) in batches.iter().enumerate() {
        let timed = i >= prm.warmup;
        tracer.set_enabled(traced && timed);
        let mark = CounterMark::take(&IMPLICIT);
        let start = thread_cpu_ns();
        tracer.start_request();
        let report = tracer.call("core.sharded.apply", || engine.try_apply_batch(batch));
        let class = match &report {
            Ok(r) if r.reduce_ran => Some("core.sharded.request.reduce"),
            Ok(_) => Some("core.sharded.request.quiet"),
            Err(_) => None,
        };
        tracer.end_request(class);
        let elapsed = thread_cpu_ns() - start;
        mark.record(
            &IMPLICIT,
            tracer,
            "metric.implicit.distance_calls",
            "metric.implicit.row_sweeps",
        );
        out.attempted += 1;
        if timed {
            out.request_ns.push(elapsed);
        }
        let Ok(report) = report else {
            out.failed += 1;
            continue;
        };
        tracer.observe(
            "core.sharded.reduce",
            f64::from(u8::from(report.reduce_ran)),
        );
        tracer.observe(
            "core.sharded.perturbed_shards",
            report.perturbed_shards as f64,
        );
        tracer.observe(
            "core.sharded.dirty_shards",
            report.dirty_shards.len() as f64,
        );
        tracer.observe("core.sharded.reduce_scope", report.reduce_scope as f64);
        tracer.observe("core.sharded.swaps", report.swaps as f64);
        tracer.observe("core.sharded.refills", report.refills as f64);

        super::track(batch, &mut weights, &mut active);
        let recomputed =
            modular_objective(engine.metric(), &weights, prm.lambda, engine.solution());
        if !close(engine.objective(), recomputed)
            || !close(report.objective, engine.objective())
            || !valid_set(engine.solution(), prm.p, &active)
        {
            out.failed += 1;
        }
        out.digest = fold(out.digest, engine.objective());
    }
    tracer.set_enabled(traced);
    if with_ratio {
        let reference =
            super::reference_objective(engine.metric(), &weights, &active, prm.lambda, prm.p);
        out.objective_ratio = Some(engine.objective() / reference);
    }
    out
}
