//! The four workloads. In each one layer does most of the work:
//!
//! * `cold-solve` — the static solvers (`greedy_b`, `local_search_matroid`)
//!   over a fresh implicit cosine metric per request;
//! * `session-churn` — `DynamicSession` ingest and stabilization over a
//!   dense matrix;
//! * `serving-fleet` — the multi-tenant `SharedServingFrontend`;
//! * `sharded-corpus` — `ShardedEngine` routing, shard ingest and reduce
//!   over an implicit Euclidean metric.

mod cold_solve;
mod serving_fleet;
mod session_churn;
mod sharded_corpus;

use max_sum_diversification::prelude::*;

use crate::trace::Tracer;
use crate::{Pass, Scale};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdSolve,
    SessionChurn,
    ServingFleet,
    ShardedCorpus,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSolve,
        Workload::SessionChurn,
        Workload::ServingFleet,
        Workload::ShardedCorpus,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSolve => "cold-solve",
            Workload::SessionChurn => "session-churn",
            Workload::ServingFleet => "serving-fleet",
            Workload::ShardedCorpus => "sharded-corpus",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Sets the workload up and replays pass `pass` of seed `seed`.
    pub fn run_pass(
        self,
        scale: Scale,
        seed: u64,
        pass: u64,
        tracer: &mut Tracer,
        with_ratio: bool,
    ) -> Pass {
        let stream = (self as u64) << 32 | pass;
        match self {
            Workload::ColdSolve => cold_solve::run(scale, seed, stream, tracer, with_ratio),
            Workload::SessionChurn => session_churn::run(scale, seed, stream, tracer, with_ratio),
            Workload::ServingFleet => serving_fleet::run(scale, seed, stream, tracer, with_ratio),
            Workload::ShardedCorpus => sharded_corpus::run(scale, seed, stream, tracer, with_ratio),
        }
    }
}

/// Applies an accepted batch to the weights and availability the
/// benchmark tracks on its own, for the output checks.
fn track(batch: &[SessionPerturbation], weights: &mut [f64], active: &mut [bool]) {
    for &pert in batch {
        match pert {
            SessionPerturbation::SetWeight { u, value } => weights[u as usize] = value,
            SessionPerturbation::Arrive { u } => active[u as usize] = true,
            SessionPerturbation::Depart { u } => active[u as usize] = false,
            SessionPerturbation::SetDistance { .. } => {}
        }
    }
}

/// Objective of a from-scratch `greedy_b` on the final instance: the
/// active elements, the perturbed metric, the tracked weights. Maintained
/// objectives are reported as a ratio to it.
fn reference_objective<M: Metric>(
    metric: &M,
    weights: &[f64],
    active: &[bool],
    lambda: f64,
    p: usize,
) -> f64 {
    let ids: Vec<ElementId> = (0..active.len() as ElementId)
        .filter(|&u| active[u as usize])
        .collect();
    let local_weights: Vec<f64> = ids.iter().map(|&u| weights[u as usize]).collect();
    let problem = DiversificationProblem::new(
        max_sum_diversification::metric::RestrictedMetric::new(metric, ids),
        ModularFunction::new(local_weights),
        lambda,
    );
    let reference = greedy_b(&problem, p, GreedyBConfig::default());
    problem.objective(&reference)
}
