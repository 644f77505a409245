//! `serving-fleet`: one `SharedServingFrontend` over a shared dense
//! matrix and one shared weight base, with tenants picked by Zipf
//! popularity. A request is one tenant's submits followed by its query;
//! every 16th also evicts the least-recently-queried tenant (its next
//! request re-attaches it) and every 64th is a four-tenant `drain_all`.
//! About 1% of batches carry one malformed perturbation, which must come
//! back rejected with the tenant's answer unchanged.

use std::sync::Arc;

use max_sum_diversification::prelude::*;

use crate::check::{close, fold, modular_objective, valid_set};
use crate::host::thread_cpu_ns;
use crate::rng::{Rng, Zipf};
use crate::trace::{Counted, CounterMark, Tracer, MATRIX};
use crate::{Pass, Scale};

struct Params {
    n: usize,
    tenants: usize,
    p: usize,
    lambda: f64,
    batch: usize,
    drain_tenants: usize,
    warmup: usize,
    requests: usize,
}

impl Params {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                n: 1000,
                tenants: 32,
                p: 16,
                lambda: 0.3,
                batch: 8,
                drain_tenants: 4,
                warmup: 32,
                requests: 256,
            },
            Scale::Tiny => Params {
                n: 100,
                tenants: 6,
                p: 5,
                lambda: 0.3,
                batch: 8,
                drain_tenants: 3,
                warmup: 16,
                requests: 128,
            },
        }
    }
}

/// One tenant's part of a request.
struct Part {
    tenant: usize,
    batch: Vec<SessionPerturbation>,
    malformed: bool,
}

enum Request {
    /// Submits then `query`; then maybe evicts a tenant.
    Query { part: Part, evict: Option<usize> },
    /// Several tenants submit, then one `drain_all`.
    Drain { parts: Vec<Part> },
}

/// A logical tenant: live under a handle, or evicted to a snapshot.
enum Slot {
    Live(TenantId),
    Evicted(Box<TenantSnapshot>),
}

/// A tenant's last answer: solution and objective bits.
type Answer = (Vec<ElementId>, u64);

fn part(rng: &mut Rng, prm: &Params, hot: &[bool], tenant: usize) -> Part {
    let cold = |rng: &mut Rng| loop {
        let u = rng.below(prm.n) as ElementId;
        if !hot[u as usize] {
            return u;
        }
    };
    let hot_ids: Vec<ElementId> = (0..prm.n as ElementId)
        .filter(|&u| hot[u as usize])
        .collect();
    let mut batch: Vec<SessionPerturbation> = (0..prm.batch)
        .map(|_| {
            let u = if rng.chance(0.9) {
                cold(rng)
            } else {
                rng.pick(&hot_ids)
            };
            if rng.chance(0.5) {
                SessionPerturbation::SetWeight {
                    u,
                    value: rng.unit(),
                }
            } else {
                let mut v = cold(rng);
                while v == u {
                    v = cold(rng);
                }
                SessionPerturbation::SetDistance {
                    u,
                    v,
                    value: rng.range(1.0, 2.0),
                }
            }
        })
        .collect();
    let malformed = rng.chance(0.01);
    if malformed {
        let i = rng.below(prm.batch);
        let u = rng.below(prm.n) as ElementId;
        batch[i] = if rng.chance(0.5) {
            SessionPerturbation::SetDistance {
                u,
                v: u,
                value: 1.5,
            }
        } else {
            SessionPerturbation::SetWeight { u, value: f64::NAN }
        };
    }
    Part {
        tenant,
        batch,
        malformed,
    }
}

/// The request script. Tenant choice, eviction targets (least recently
/// queried among the tenants still live) and malformed batches are all
/// fixed here, so every run replays the same requests.
fn script(rng: &mut Rng, prm: &Params, hot: &[bool]) -> Vec<Request> {
    let zipf = Zipf::new(prm.tenants, 1.0);
    let mut last_query = vec![0usize; prm.tenants];
    let mut live = vec![true; prm.tenants];
    (0..prm.warmup + prm.requests)
        .map(|i| {
            let clock = i + 1;
            if i % 64 == 63 {
                let mut chosen: Vec<usize> = Vec::new();
                while chosen.len() < prm.drain_tenants {
                    let t = zipf.sample(rng);
                    if !chosen.contains(&t) {
                        chosen.push(t);
                    }
                }
                let parts = chosen
                    .into_iter()
                    .map(|t| {
                        live[t] = true;
                        last_query[t] = clock;
                        part(rng, prm, hot, t)
                    })
                    .collect();
                return Request::Drain { parts };
            }
            let t = zipf.sample(rng);
            live[t] = true;
            last_query[t] = clock;
            let evict = (i % 16 == 15)
                .then(|| {
                    (0..prm.tenants)
                        .filter(|&u| live[u] && u != t)
                        .min_by_key(|&u| (last_query[u], u))
                })
                .flatten();
            if let Some(e) = evict {
                live[e] = false;
            }
            Request::Query {
                part: part(rng, prm, hot, t),
                evict,
            }
        })
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

/// Re-attaches `tenant` if evicted (inside the request) and returns its
/// handle plus, for a fresh attach, the answer it came back with.
fn ensure_live<M: Metric>(
    fe: &mut SharedServingFrontend<'_, M>,
    slots: &mut [Slot],
    tenant: usize,
    tracer: &mut Tracer,
) -> (TenantId, Option<Answer>) {
    match std::mem::replace(&mut slots[tenant], Slot::Live(TenantId::from_index(0))) {
        Slot::Live(id) => {
            slots[tenant] = Slot::Live(id);
            (id, None)
        }
        Slot::Evicted(snapshot) => {
            let id = tracer.call("core.serving.attach", || fe.attach(*snapshot));
            slots[tenant] = Slot::Live(id);
            let answer = (
                fe.solution(id).to_vec(),
                fe.session(id).objective().to_bits(),
            );
            (id, Some(answer))
        }
    }
}

fn pass<M: Metric>(
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
    let base = Arc::new(wrap(DistanceMatrix::from_fn(prm.n, |_, _| {
        rng.range(1.0, 2.0)
    })));
    let base_weights: Vec<f64> = (0..prm.n).map(|_| rng.unit()).collect();
    let shared: Arc<[f64]> = Arc::from(base_weights.as_slice());
    let init = tracer.call("core.greedy.solve", || {
        let problem = DiversificationProblem::new(
            Arc::clone(&base),
            ModularFunction::new(base_weights.clone()),
            prm.lambda,
        );
        greedy_b(&problem, prm.p, GreedyBConfig::default())
    });
    let mut fe = SharedServingFrontend::new_shared(Arc::clone(&base));
    // Each tenant is stabilized once at registration, so every later
    // answer is a local optimum and a rejected batch must leave it as is.
    let mut slots: Vec<Slot> = Vec::with_capacity(prm.tenants);
    let mut answers: Vec<Answer> = Vec::with_capacity(prm.tenants);
    for _ in 0..prm.tenants {
        let id = fe.register_tenant_shared(Arc::clone(&shared), prm.lambda, &init);
        let first = fe.query(id);
        slots.push(Slot::Live(id));
        answers.push((first.solution, first.objective.to_bits()));
    }
    let mut out = Pass {
        setup_ns: thread_cpu_ns() - setup_start,
        ..Pass::default()
    };

    let mut hot = vec![false; prm.n];
    for &u in &init {
        hot[u as usize] = true;
    }
    let requests = script(&mut rng, &prm, &hot);
    let mut weights: Vec<Vec<f64>> = vec![base_weights.clone(); prm.tenants];
    let all_active = vec![true; prm.n];
    let traced = tracer.enabled();

    for (i, req) in requests.iter().enumerate() {
        let timed = i >= prm.warmup;
        tracer.set_enabled(traced && timed);
        let parts: &[Part] = match req {
            Request::Query { part, .. } => std::slice::from_ref(part),
            Request::Drain { parts } => parts,
        };
        let mark = CounterMark::take(&MATRIX);
        let start = thread_cpu_ns();
        tracer.start_request();
        let mut handles = Vec::with_capacity(parts.len());
        let mut attached = Vec::new();
        for part in parts {
            let (id, answer) = ensure_live(&mut fe, &mut slots, part.tenant, tracer);
            attached.extend(answer.map(|a| (part.tenant, a)));
            handles.push(id);
            for &pert in &part.batch {
                tracer.call("core.serving.submit", || fe.submit(id, pert));
            }
        }
        let responses = match req {
            Request::Query { evict, .. } => {
                let response = tracer.call("core.serving.query", || fe.query(handles[0]));
                if let Some(e) = *evict {
                    if let Slot::Live(id) = slots[e] {
                        let snapshot = tracer.call("core.serving.evict", || fe.evict(id));
                        slots[e] = Slot::Evicted(Box::new(snapshot));
                    }
                }
                vec![response]
            }
            Request::Drain { .. } => tracer.call("core.serving.drain_all", || fe.drain_all()),
        };
        tracer.end_request(None);
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

        // Checks: evict → attach round trips are bit-identical, malformed
        // batches come back rejected with the answer unchanged, accepted
        // ones agree with a from-scratch objective.
        let mut ok = responses.len() == parts.len();
        for (tenant, answer) in attached {
            ok &= answer == answers[tenant];
        }
        for (part, &id) in parts.iter().zip(&handles) {
            let Some(response) = responses.iter().find(|r| r.tenant == id) else {
                ok = false;
                continue;
            };
            let t = part.tenant;
            tracer.observe("core.serving.flushed", response.flushed as f64);
            tracer.observe("core.serving.swaps", response.swaps as f64);
            tracer.observe(
                "core.serving.rejected",
                f64::from(u8::from(response.rejected.is_some())),
            );
            tracer.observe("core.serving.staleness", fe.stats(id).staleness as f64);
            out.digest = fold(out.digest, response.objective);
            let answer = (response.solution.clone(), response.objective.to_bits());
            if part.malformed {
                ok &= response.rejected.is_some() && answer == answers[t];
                continue;
            }
            for &pert in &part.batch {
                if let SessionPerturbation::SetWeight { u, value } = pert {
                    weights[t][u as usize] = value;
                }
            }
            let recomputed = modular_objective(
                fe.session(id).metric(),
                &weights[t],
                prm.lambda,
                &response.solution,
            );
            ok &= response.rejected.is_none()
                && close(response.objective, recomputed)
                && valid_set(&response.solution, prm.p, &all_active);
            answers[t] = answer;
        }
        if !ok {
            out.failed += 1;
        }
    }
    tracer.set_enabled(traced);

    // Fleet totals and the objective ratio, over every tenant.
    let mut maintained = 0.0;
    let mut reference = 0.0;
    let (mut pairs, mut deltas) = (0usize, 0usize);
    for (t, tenant_weights) in weights.iter().enumerate() {
        let (id, _) = ensure_live(&mut fe, &mut slots, t, &mut Tracer::new(false));
        pairs += fe.session(id).metric().override_count();
        deltas += fe.weight_delta_count(id);
        if with_ratio {
            maintained += fe.session(id).objective();
            reference += super::reference_objective(
                fe.session(id).metric(),
                tenant_weights,
                &all_active,
                prm.lambda,
                prm.p,
            );
        }
    }
    tracer.observe("metric.overlay.pairs", pairs as f64);
    tracer.observe("submodular.shared.weight_deltas", deltas as f64);
    if with_ratio {
        out.objective_ratio = Some(maintained / reference);
    }
    out
}
