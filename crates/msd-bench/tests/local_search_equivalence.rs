//! Equivalence suite for the Theorem 2 local search: `local_search_matroid`
//! (one `exchange_partners` query per candidate, allocation-free best-pair
//! seeding through an empty incremental oracle) must reproduce
//! `local_search_matroid_naive` (per-pair `exchange_feasible`,
//! `is_independent(&[x, y])` and `value(&[x, y])`) result for result: the
//! same set in the same order, the same objective bits, the same swap count
//! and the same convergence flag. The suite crosses every matroid family
//! (uniform; partition with full blocks, with a block below capacity and
//! with a zero-capacity block; graphic; laminar; transversal; truncated
//! partition) with every quality family (modular, coverage, facility,
//! mixture, and `ConcaveOverModular` / `LogDetFunction` through the generic
//! oracle), both pivot rules and two improvement thresholds. Under the
//! `parallel` feature the pooled local search on an explicit
//! `ScanPool::new(4)` must match too.

use msd_bench::naive::local_search_matroid_naive;
use msd_core::local_search::{LocalSearchResult, PivotRule};
use msd_core::{local_search_matroid, DiversificationProblem, ElementId, LocalSearchConfig};
use msd_matroid::{
    GraphicMatroid, LaminarMatroid, Matroid, PartitionMatroid, TransversalMatroid,
    TruncatedMatroid, UniformMatroid,
};
use msd_metric::{DistanceMatrix, Metric};
use msd_submodular::{
    ConcaveOverModular, ConcaveShape, CoverageFunction, FacilityLocationFunction, LogDetFunction,
    MixtureFunction, ModularFunction, SetFunction,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 30;

#[cfg(feature = "parallel")]
fn pool() -> &'static msd_core::ScanPool {
    static POOL: std::sync::OnceLock<msd_core::ScanPool> = std::sync::OnceLock::new();
    POOL.get_or_init(|| msd_core::ScanPool::new(4))
}

// ---------------------------------------------------------------------------
// Instances.

fn modular_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
    msd_data::SyntheticConfig::paper(n).generate(seed)
}

/// Every distance in {1.0, 1.5, 2.0}, every weight a multiple of 0.25,
/// λ = 0.5: all seed scores and swap gains are exact in f64, so ties are
/// real and the traversal order decides them.
fn tie_heavy_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, ModularFunction> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x5DEECE66D).wrapping_add(0xB));
    let weights: Vec<f64> = (0..n)
        .map(|_| f64::from(rng.gen_range(0..5u32)) * 0.25)
        .collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| [1.0, 1.5, 2.0][rng.gen_range(0..3usize)]);
    DiversificationProblem::new(metric, ModularFunction::new(weights), 0.5)
}

fn coverage_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, CoverageFunction> {
    msd_bench::support::coverage_instance(seed, n, 2 * n / 3 + 1, 1, 6)
}

fn facility_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, FacilityLocationFunction> {
    msd_bench::support::facility_instance(seed ^ 0xFAC1717, n, n / 2 + 3)
}

fn mixture_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, MixtureFunction> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3417);
    let coverage = coverage_instance(seed, n);
    let facility = facility_instance(seed, n);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
    let quality = MixtureFunction::new(n)
        .with(0.7, coverage.quality().clone())
        .with(0.4, facility.quality().clone())
        .with(1.3, ModularFunction::new(weights));
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, quality, 0.25)
}

fn concave_instance(
    seed: u64,
    n: usize,
) -> DiversificationProblem<DistanceMatrix, ConcaveOverModular> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(
        metric,
        ConcaveOverModular::new(weights, ConcaveShape::Sqrt),
        0.2,
    )
}

fn logdet_instance(seed: u64, n: usize) -> DiversificationProblem<DistanceMatrix, LogDetFunction> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10CD);
    let features: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..4).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let metric = DistanceMatrix::from_fn(n, |_, _| rng.gen_range(1.0..2.0));
    DiversificationProblem::new(metric, LogDetFunction::from_gram(&features), 0.3)
}

// ---------------------------------------------------------------------------
// Matroid families over a ground set of size `n`.

fn matroid_families(n: usize) -> Vec<(&'static str, Box<dyn Matroid + Sync>)> {
    let third = n / 3;
    let full_blocks = PartitionMatroid::new((0..n as u32).map(|u| u % 3).collect(), vec![3, 2, 2]);
    vec![
        ("uniform", Box::new(UniformMatroid::new(n, 6))),
        ("partition/full", Box::new(full_blocks.clone())),
        (
            // Block 0 = {0, 1, 2} under capacity 5: a basis holds all of
            // it and the block never fills.
            "partition/below-capacity",
            Box::new(PartitionMatroid::new(
                (0..n as u32)
                    .map(|u| if u < 3 { 0 } else { 1 + u % 2 })
                    .collect(),
                vec![5, 2, 3],
            )),
        ),
        (
            // Every fourth element sits in a zero-capacity block: those
            // are dependent singletons the seed must skip.
            "partition/zero-capacity",
            Box::new(PartitionMatroid::new(
                (0..n as u32)
                    .map(|u| if u % 4 == 1 { 2 } else { u % 2 })
                    .collect(),
                vec![2, 3, 0],
            )),
        ),
        (
            "truncated-partition",
            Box::new(TruncatedMatroid::new(full_blocks, 4)),
        ),
        (
            // Some edges are self-loops (dependent singletons).
            "graphic",
            Box::new(GraphicMatroid::new(
                8,
                (0..n as u32).map(|i| (i % 8, (i * 3 + 1) % 8)).collect(),
            )),
        ),
        (
            "laminar",
            Box::new(LaminarMatroid::new(
                n,
                vec![
                    ((0..third as ElementId).collect(), 2),
                    ((third as ElementId..2 * third as ElementId).collect(), 2),
                    ((0..n as ElementId).collect(), 5),
                ],
            )),
        ),
        (
            "transversal",
            Box::new(TransversalMatroid::new(
                n,
                &(0..4usize)
                    .map(|j| {
                        (0..n as ElementId)
                            .filter(|&u| u as usize % 4 == j || u as usize % 7 == j)
                            .collect()
                    })
                    .collect::<Vec<_>>(),
            )),
        ),
    ]
}

// ---------------------------------------------------------------------------
// The contract.

fn assert_same_result(got: &LocalSearchResult, want: &LocalSearchResult, ctx: &str) {
    assert_eq!(got.set, want.set, "{ctx}: set (in order)");
    assert_eq!(
        got.objective.to_bits(),
        want.objective.to_bits(),
        "{ctx}: objective bits ({} vs {})",
        got.objective,
        want.objective
    );
    assert_eq!(got.swaps, want.swaps, "{ctx}: swaps");
    assert_eq!(got.converged, want.converged, "{ctx}: converged");
}

/// Runs the local search against the naive reference on every matroid
/// family, both pivot rules and two thresholds. Asserts that some run
/// took a swap, so the comparison is not vacuous (every run stopping at
/// its seed basis).
fn check_problem<M: Metric + Sync, F: SetFunction + Sync>(
    label: &str,
    problem: &DiversificationProblem<M, F>,
) {
    let mut swaps = 0;
    for (name, matroid) in matroid_families(problem.ground_size()) {
        let matroid: &(dyn Matroid + Sync) = &*matroid;
        for pivot in [PivotRule::BestImprovement, PivotRule::FirstImprovement] {
            for epsilon in [LocalSearchConfig::default().epsilon, 0.0] {
                let config = LocalSearchConfig {
                    epsilon,
                    pivot,
                    ..LocalSearchConfig::default()
                };
                let ctx = format!("{label} / {name} / {pivot:?} / ε={epsilon}");
                let want = local_search_matroid_naive(problem, &matroid, config);
                let got = local_search_matroid(problem, &matroid, config);
                assert_same_result(&got, &want, &ctx);
                assert!(matroid.is_independent(&got.set), "{ctx}: independent");
                assert_eq!(got.set.len(), matroid.rank(), "{ctx}: a basis");
                #[cfg(feature = "parallel")]
                {
                    let pooled = msd_core::parallel::local_search_matroid_in(
                        pool(),
                        problem,
                        &matroid,
                        config,
                    );
                    assert_same_result(&pooled, &want, &format!("{ctx} / pooled"));
                }
                swaps += want.swaps;
            }
        }
    }
    assert!(swaps > 0, "{label}: no run took a swap");
}

#[test]
fn modular_matches_naive() {
    for seed in 0..3u64 {
        check_problem(&format!("modular seed {seed}"), &modular_instance(seed, N));
    }
}

#[test]
fn tie_heavy_modular_matches_naive() {
    for seed in 0..4u64 {
        check_problem(
            &format!("tie-heavy seed {seed}"),
            &tie_heavy_instance(seed, N),
        );
    }
}

#[test]
fn coverage_matches_naive() {
    for seed in 0..3u64 {
        check_problem(
            &format!("coverage seed {seed}"),
            &coverage_instance(seed, N),
        );
    }
}

#[test]
fn facility_matches_naive() {
    for seed in 0..2u64 {
        check_problem(
            &format!("facility seed {seed}"),
            &facility_instance(seed, N),
        );
    }
}

#[test]
fn mixture_matches_naive() {
    for seed in 0..2u64 {
        check_problem(&format!("mixture seed {seed}"), &mixture_instance(seed, N));
    }
}

#[test]
fn concave_over_modular_matches_naive() {
    for seed in 0..2u64 {
        check_problem(&format!("concave seed {seed}"), &concave_instance(seed, N));
    }
}

#[test]
fn logdet_matches_naive() {
    for seed in 0..2u64 {
        check_problem(&format!("logdet seed {seed}"), &logdet_instance(seed, N));
    }
}

/// The seed scores are bit-identical for every quality family: the empty
/// oracle's pair marginal reproduces `value(&[x, y])` exactly on every
/// pair, not just on the winning one.
#[test]
fn empty_oracle_pair_marginal_is_pair_value_bit_for_bit() {
    fn check<F: SetFunction>(label: &str, f: &F) {
        let empty = f.incremental();
        let n = f.ground_size() as ElementId;
        for x in 0..n {
            for y in (x + 1)..n {
                let want = f.value(&[x, y]);
                let got = empty.pair_marginal(x, y);
                assert_eq!(got.to_bits(), want.to_bits(), "{label}: f({{{x}, {y}}})");
            }
        }
    }
    check("modular", modular_instance(5, N).quality());
    check("coverage", coverage_instance(5, N).quality());
    check("facility", facility_instance(5, N).quality());
    check("mixture", mixture_instance(5, N).quality());
    check("concave", concave_instance(5, N).quality());
    check("logdet", logdet_instance(5, N).quality());
}
