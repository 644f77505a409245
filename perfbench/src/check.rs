//! Output checks. Each failed check counts one failed request.

use max_sum_diversification::metric::{ElementId, Metric};

/// `φ(S) = Σ_{u∈S} w(u) + λ·Σ_{{u,v}⊆S} d(u,v)`, recomputed pair by pair
/// from the metric and the weights the benchmark tracked itself.
pub fn modular_objective<M: Metric + ?Sized>(
    metric: &M,
    weights: &[f64],
    lambda: f64,
    set: &[ElementId],
) -> f64 {
    let quality: f64 = set.iter().map(|&u| weights[u as usize]).sum();
    quality + lambda * pair_sum(metric, set)
}

/// `Σ_{{u,v}⊆S} d(u,v)` by single-pair reads.
pub fn pair_sum<M: Metric + ?Sized>(metric: &M, set: &[ElementId]) -> f64 {
    let mut total = 0.0;
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            total += metric.distance(u, v);
        }
    }
    total
}

/// Agreement within 1e-9 relative.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// `set` has exactly `p` distinct members of `0..n`, all active.
pub fn valid_set(set: &[ElementId], p: usize, active: &[bool]) -> bool {
    let mut seen = vec![false; active.len()];
    set.len() == p
        && set.iter().all(|&u| {
            let u = u as usize;
            let fresh = u < active.len() && active[u] && !seen[u];
            if fresh {
                seen[u] = true;
            }
            fresh
        })
}

/// Folds objective bits into a run digest: two runs of one script agree
/// on it only if every answer agreed bit for bit.
pub fn fold(digest: u64, objective: f64) -> u64 {
    (digest.rotate_left(5) ^ objective.to_bits()).wrapping_mul(0x100_0000_01B3)
}
