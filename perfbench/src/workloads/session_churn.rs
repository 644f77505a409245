//! `session-churn`: one `DynamicSession` over a dense `DistanceMatrix`
//! under 16-perturbation batches, about half aimed at the solution. A
//! request is one strict `ingest` followed by `update_until_stable`.

use max_sum_diversification::prelude::*;

use crate::check::{close, fold, modular_objective, valid_set};
use crate::host::thread_cpu_ns;
use crate::rng::Rng;
use crate::trace::{Counted, CounterMark, Tracer, MATRIX};
use crate::{Pass, Scale};

struct Params {
    n: usize,
    p: usize,
    lambda: f64,
    batch: usize,
    cap: usize,
    warmup: usize,
    requests: usize,
}

impl Params {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                n: 500,
                p: 50,
                lambda: 0.3,
                batch: 16,
                cap: 64,
                warmup: 10,
                requests: 150,
            },
            Scale::Tiny => Params {
                n: 120,
                p: 8,
                lambda: 0.3,
                batch: 16,
                cap: 64,
                warmup: 5,
                requests: 40,
            },
        }
    }
}

const SCAN_CLASSES: [&str; 4] = [
    "core.session.scan.skipped",
    "core.session.scan.column",
    "core.session.scan.cached",
    "core.session.scan.full",
];

/// Batches aimed half at the hot set (the solution at set-up time), with
/// arrivals and departures following a shadow availability set.
fn script(rng: &mut Rng, prm: &Params, hot: &[ElementId]) -> Vec<Vec<SessionPerturbation>> {
    let n = prm.n;
    let mut active = vec![true; n];
    let mut departed: Vec<ElementId> = Vec::new();
    let target = |rng: &mut Rng| {
        if rng.chance(0.5) {
            rng.pick(hot)
        } else {
            rng.below(n) as ElementId
        }
    };
    let mut perturbation = |rng: &mut Rng| {
        let kind = rng.unit();
        if kind < 0.4 || (kind >= 0.9 && departed.is_empty()) {
            SessionPerturbation::SetWeight {
                u: target(rng),
                value: rng.unit(),
            }
        } else if kind < 0.8 {
            let u = target(rng);
            let mut v = rng.below(n) as ElementId;
            while v == u {
                v = rng.below(n) as ElementId;
            }
            SessionPerturbation::SetDistance {
                u,
                v,
                value: rng.range(1.0, 2.0),
            }
        } else if kind < 0.9 {
            let live: Vec<ElementId> = hot
                .iter()
                .copied()
                .filter(|&h| active[h as usize])
                .collect();
            let mut u = if live.is_empty() {
                rng.below(n) as ElementId
            } else {
                rng.pick(&live)
            };
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
            Counted::new(m, &MATRIX)
        })
    } else {
        pass(scale, seed, stream, tracer, with_ratio, |m| m)
    }
}

fn pass<M: PerturbableMetric + Clone>(
    scale: Scale,
    seed: u64,
    stream: u64,
    tracer: &mut Tracer,
    with_ratio: bool,
    wrap: impl Fn(DistanceMatrix) -> M,
) -> Pass {
    let prm = Params::new(scale);
    let mut rng = Rng::new(seed, stream);
    let setup_start = thread_cpu_ns();
    let metric = DistanceMatrix::from_fn(prm.n, |_, _| rng.range(1.0, 2.0));
    let mut weights: Vec<f64> = (0..prm.n).map(|_| rng.unit()).collect();
    let problem = DiversificationProblem::new(
        wrap(metric),
        ModularFunction::new(weights.clone()),
        prm.lambda,
    );
    let hot = tracer.call("core.greedy.solve", || {
        greedy_b(&problem, prm.p, GreedyBConfig::default())
    });
    let mut session = DynamicSession::new(&problem, &hot);
    let mut out = Pass {
        setup_ns: thread_cpu_ns() - setup_start,
        ..Pass::default()
    };

    let batches = script(&mut rng, &prm, &hot);
    let mut active = vec![true; prm.n];
    let traced = tracer.enabled();
    for (i, batch) in batches.iter().enumerate() {
        let timed = i >= prm.warmup;
        tracer.set_enabled(traced && timed);
        let mark = CounterMark::take(&MATRIX);
        let start = thread_cpu_ns();
        tracer.start_request();
        let report = tracer.call("core.session.ingest", || session.ingest(batch.as_slice()));
        let updates = tracer.call("core.session.stabilize", || {
            session.update_until_stable(prm.cap)
        });
        let class = match report.as_ref().map(|r| r.scan) {
            Ok(ScanExtent::Full) => Some("core.session.request.full"),
            Ok(ScanExtent::Skipped) => Some("core.session.request.skipped"),
            _ => None,
        };
        tracer.end_request(class);
        let elapsed = thread_cpu_ns() - start;
        mark.record(
            &MATRIX,
            tracer,
            "metric.matrix.distance_calls",
            "metric.matrix.row_sweeps",
        );

        out.attempted += 1;
        if timed {
            out.request_ns.push(elapsed);
        }
        let Ok(report) = report else {
            out.failed += 1;
            continue;
        };
        tracer.observe_class(
            &SCAN_CLASSES,
            match report.scan {
                ScanExtent::Skipped => SCAN_CLASSES[0],
                ScanExtent::Column => SCAN_CLASSES[1],
                ScanExtent::Cached => SCAN_CLASSES[2],
                ScanExtent::Full => SCAN_CLASSES[3],
            },
        );
        tracer.observe("core.session.updates", updates as f64);
        tracer.observe("core.session.refills", report.refills.len() as f64);
        tracer.observe(
            "core.session.cap_hit",
            f64::from(u8::from(updates == prm.cap)),
        );

        super::track(batch, &mut weights, &mut active);
        let objective = session.objective();
        let recomputed =
            modular_objective(session.metric(), &weights, prm.lambda, session.solution());
        if !close(objective, recomputed) || !valid_set(session.solution(), prm.p, &active) {
            out.failed += 1;
        }
        out.digest = fold(out.digest, objective);
    }
    tracer.set_enabled(traced);
    if with_ratio {
        let reference =
            super::reference_objective(session.metric(), &weights, &active, prm.lambda, prm.p);
        out.objective_ratio = Some(session.objective() / reference);
    }
    out
}
