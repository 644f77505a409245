//! `cold-solve`: every request is a fresh candidate set drawn from a
//! fixed pool of embeddings, solved from nothing. The candidate set is an
//! implicit cosine `PointMetric`, so nothing quadratic is built. Quality
//! alternates between modular and coverage; 7 of 8 requests run
//! `greedy_b`, 1 of 8 runs `local_search_matroid` under a partition
//! matroid.

use max_sum_diversification::prelude::*;

use crate::check::{close, fold, pair_sum, valid_set};
use crate::host::thread_cpu_ns;
use crate::rng::Rng;
use crate::trace::{Counted, CounterMark, Tracer, IMPLICIT};
use crate::{Pass, Scale};

struct Params {
    pool: usize,
    dim: usize,
    topics: usize,
    topics_per_item: usize,
    /// Mean candidates per greedy request (drawn within ±25%).
    candidates: usize,
    /// Candidates per local-search request (its seeding is quadratic).
    ls_candidates: usize,
    p: usize,
    blocks: usize,
    lambda: f64,
    warmup: usize,
    requests: usize,
}

impl Params {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Params {
                pool: 20_000,
                dim: 16,
                topics: 256,
                topics_per_item: 4,
                candidates: 2000,
                ls_candidates: 300,
                p: 30,
                blocks: 10,
                lambda: 0.1,
                warmup: 8,
                requests: 96,
            },
            Scale::Tiny => Params {
                pool: 400,
                dim: 16,
                topics: 32,
                topics_per_item: 3,
                candidates: 60,
                ls_candidates: 40,
                p: 6,
                blocks: 3,
                lambda: 0.1,
                warmup: 8,
                requests: 32,
            },
        }
    }
}

/// The fixed pool every request draws from.
struct Pool {
    coords: Vec<f64>,
    weights: Vec<f64>,
    covers: Vec<Vec<u32>>,
    topic_weights: Vec<f64>,
    block: Vec<u32>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Quality {
    Modular,
    Coverage,
}

struct Request {
    candidates: Vec<u32>,
    quality: Quality,
    local_search: bool,
}

fn pool(rng: &mut Rng, prm: &Params) -> Pool {
    Pool {
        coords: (0..prm.pool * prm.dim)
            .map(|_| rng.range(-1.0, 1.0))
            .collect(),
        weights: (0..prm.pool).map(|_| rng.unit()).collect(),
        covers: (0..prm.pool)
            .map(|_| {
                (0..prm.topics_per_item)
                    .map(|_| rng.below(prm.topics) as u32)
                    .collect()
            })
            .collect(),
        topic_weights: (0..prm.topics).map(|_| rng.unit()).collect(),
        block: (0..prm.pool)
            .map(|_| rng.below(prm.blocks) as u32)
            .collect(),
    }
}

fn script(rng: &mut Rng, prm: &Params) -> Vec<Request> {
    (0..prm.warmup + prm.requests)
        .map(|i| {
            let local_search = i % 8 == 7;
            // Greedy sets vary in size by ±25% around `candidates`, so
            // request times spread smoothly rather than in two spikes.
            let (size, flip) = if local_search {
                (prm.ls_candidates, i / 8)
            } else {
                let low = prm.candidates * 3 / 4;
                (low + rng.below(prm.candidates / 2 + 1), i)
            };
            Request {
                candidates: rng.sample_distinct(prm.pool, size),
                quality: if flip % 2 == 0 {
                    Quality::Modular
                } else {
                    Quality::Coverage
                },
                local_search,
            }
        })
        .collect()
}

/// `f(S)` recomputed by the benchmark: the weight sum, or the weight of
/// the topics `S` covers.
fn quality_value(pool: &Pool, req: &Request, set: &[ElementId]) -> f64 {
    match req.quality {
        Quality::Modular => set
            .iter()
            .map(|&u| pool.weights[req.candidates[u as usize] as usize])
            .sum(),
        Quality::Coverage => {
            let mut topics: Vec<u32> = set
                .iter()
                .flat_map(|&u| {
                    pool.covers[req.candidates[u as usize] as usize]
                        .iter()
                        .copied()
                })
                .collect();
            topics.sort_unstable();
            topics.dedup();
            topics.iter().map(|&t| pool.topic_weights[t as usize]).sum()
        }
    }
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

/// What one request returned, with its untimed follow-ups.
struct Served {
    set: Vec<ElementId>,
    objective: f64,
    elapsed_ns: u64,
    /// The objective recomputed by the benchmark.
    recomputed: f64,
    /// Objective over that of `local_search_refine` from the same set.
    ratio: Option<f64>,
}

/// Builds the quality function and solves — the rest of a request whose
/// clock started at `start` — then runs the untimed follow-ups.
#[allow(clippy::too_many_arguments)]
fn serve<M: Metric, F: SetFunction>(
    prm: &Params,
    pool: &Pool,
    req: &Request,
    tracer: &mut Tracer,
    (start, mark): (u64, CounterMark),
    metric: M,
    quality: impl FnOnce() -> F,
    with_ratio: bool,
) -> Served {
    let quality = tracer.call("submodular.build", quality);
    let problem = DiversificationProblem::new(metric, quality, prm.lambda);
    let (set, objective) = if req.local_search {
        let matroid = PartitionMatroid::new(
            req.candidates
                .iter()
                .map(|&c| pool.block[c as usize])
                .collect(),
            vec![(prm.p / prm.blocks) as u32; prm.blocks],
        );
        let result = tracer.call("core.local_search.solve", || {
            local_search_matroid(&problem, &matroid, LocalSearchConfig::default())
        });
        tracer.observe("core.local_search.swaps", result.swaps as f64);
        (result.set, result.objective)
    } else {
        let set = tracer.call("core.greedy.solve", || {
            greedy_b(&problem, prm.p, GreedyBConfig::default())
        });
        let objective = problem.objective(&set);
        (set, objective)
    };
    tracer.end_request(None);
    let elapsed_ns = thread_cpu_ns() - start;
    mark.record(
        &IMPLICIT,
        tracer,
        "metric.implicit.distance_calls",
        "metric.implicit.row_sweeps",
    );

    let recomputed = quality_value(pool, req, &set) + prm.lambda * pair_sum(problem.metric(), &set);
    let ratio = with_ratio.then(|| {
        objective / local_search_refine(&problem, &set, LocalSearchConfig::default()).objective
    });
    Served {
        set,
        objective,
        elapsed_ns,
        recomputed,
        ratio,
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
    let pool = pool(&mut rng, &prm);
    let mut out = Pass {
        setup_ns: thread_cpu_ns() - setup_start,
        ..Pass::default()
    };

    let requests = script(&mut rng, &prm);
    let traced = tracer.enabled();
    let mut ratios = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let timed = i >= prm.warmup;
        tracer.set_enabled(traced && timed);
        let mark = CounterMark::take(&IMPLICIT);
        let start = thread_cpu_ns();
        tracer.start_request();
        let n = req.candidates.len();
        let metric = tracer.call("metric.implicit.build", || {
            let mut coords = Vec::with_capacity(n * prm.dim);
            for &c in &req.candidates {
                let c = c as usize;
                coords.extend_from_slice(&pool.coords[c * prm.dim..(c + 1) * prm.dim]);
            }
            wrap(PointMetric::from_flat(
                PointKernel::Cosine,
                n,
                prm.dim,
                coords,
            ))
        });
        let sample = with_ratio && i % 8 == 0;
        let served = match req.quality {
            Quality::Modular => serve(
                &prm,
                &pool,
                req,
                tracer,
                (start, mark),
                metric,
                || {
                    ModularFunction::new(
                        req.candidates
                            .iter()
                            .map(|&c| pool.weights[c as usize])
                            .collect::<Vec<_>>(),
                    )
                },
                sample,
            ),
            Quality::Coverage => serve(
                &prm,
                &pool,
                req,
                tracer,
                (start, mark),
                metric,
                || {
                    CoverageFunction::new(
                        req.candidates
                            .iter()
                            .map(|&c| pool.covers[c as usize].clone())
                            .collect(),
                        pool.topic_weights.clone(),
                    )
                },
                sample,
            ),
        };
        out.attempted += 1;
        if timed {
            out.request_ns.push(served.elapsed_ns);
        }
        let set = &served.set;
        let mut ok =
            close(served.objective, served.recomputed) && valid_set(set, prm.p, &vec![true; n]);
        if req.local_search {
            let cap = (prm.p / prm.blocks) as u32;
            let mut per_block = vec![0u32; prm.blocks];
            for &u in set {
                per_block[pool.block[req.candidates[u as usize] as usize] as usize] += 1;
            }
            ok &= per_block.iter().all(|&k| k <= cap);
        }
        if !ok {
            out.failed += 1;
        }
        out.digest = fold(out.digest, served.objective);
        ratios.extend(served.ratio);
    }
    tracer.set_enabled(traced);
    if with_ratio {
        out.objective_ratio = Some(crate::stats::mean(&ratios));
    }
    out
}
