//! High-level solving API for the φ-BIC problem.
//!
//! [`solve`] runs SOAR end to end (gather + color) and returns a [`Solution`]; the
//! lower-level pieces remain available through [`crate::gather`] and [`crate::color`]
//! for callers that want to reuse the DP tables (e.g. to trace colorings for several
//! budgets out of a single gather pass, as done by the scaling experiments).

use crate::color::soar_color_exact;
use crate::tables::GatherTables;
use soar_reduce::{cost, Coloring};
use soar_topology::Tree;

/// The outcome of solving a φ-BIC instance.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Solution {
    /// The chosen set of blue switches.
    pub coloring: Coloring,
    /// The utilization complexity `φ(T, L, U)` of that set.
    pub cost: f64,
    /// Number of blue switches actually used (`|U| ≤ k`).
    pub blue_used: usize,
    /// The budget the instance was solved for.
    pub budget: usize,
}

impl Solution {
    /// Builds a solution record from a coloring by evaluating its cost on the tree.
    pub fn from_coloring(tree: &Tree, coloring: Coloring, budget: usize) -> Self {
        let cost = cost::phi(tree, &coloring);
        Solution {
            blue_used: coloring.n_blue(),
            cost,
            coloring,
            budget,
        }
    }

    /// This solution's cost normalized to the all-red baseline of the same tree.
    pub fn normalized_cost(&self, tree: &Tree) -> f64 {
        let baseline = cost::phi(tree, &Coloring::all_red(tree.n_switches()));
        normalize(self.cost, baseline)
    }
}

/// Normalizes a cost to the all-red baseline, with the crate-wide convention that
/// a zero baseline (no traffic at all) normalizes to `1.0`. The single home of
/// that convention, shared by [`Solution::normalized_cost`] and the reports of
/// [`crate::api`].
pub(crate) fn normalize(cost: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        1.0
    } else {
        cost / baseline
    }
}

/// Solves the φ-BIC instance `(T, L, Λ, k)` optimally with SOAR
/// (Theorem 4.1: `O(n · h(T) · k²)` time).
///
/// The availability set Λ and the load are read from the tree itself
/// (see [`soar_topology::Tree::set_available`] / [`soar_topology::Tree::set_load`]).
///
/// Runs on the calling thread's persistent
/// [`SolverWorkspace`](crate::workspace::SolverWorkspace), so repeated solves on
/// one thread reuse a single warm DP arena and allocate nothing beyond the
/// returned [`Solution`]. The flip side: the arena stays resident between
/// solves (the shrink-on-idle policy reclaims it only across later solves). A
/// caller done solving on a thread can release it eagerly with
/// `with_thread_workspace(|ws| ws.clear())`.
pub fn solve(tree: &Tree, k: usize) -> Solution {
    crate::workspace::with_thread_workspace(|ws| ws.solve(tree, k))
}

/// Given tables computed for budget `k`, extracts the optimal solution for every budget
/// `i = 0 ..= k` (the "cost-vs-k curve" used by Figs. 6, 8 and 10).
///
/// The optimum for budget `i` is the best exact-`j` value over `j ≤ i`, which is a
/// *prefix minimum* of `optimum_with_exactly` — so one running-minimum pass over
/// `i = 0 ..= k` suffices (the previous implementation rescanned `0 ..= i` per
/// budget, an `O(k²)` walk over the root row). The SOAR-Color traceback is also
/// run only when the optimum moves; budgets on a flat stretch of the curve reuse
/// the previous coloring (the traceback is deterministic, so it would reproduce
/// it verbatim anyway).
pub fn solutions_for_all_budgets(tree: &Tree, tables: &GatherTables) -> Vec<Solution> {
    let mut traced: Option<(usize, Coloring)> = None;
    prefix_min_curve(tables)
        .into_iter()
        .enumerate()
        .map(|(i, (cost, best_j))| {
            let coloring = match &traced {
                Some((j, coloring)) if *j == best_j => coloring.clone(),
                _ => {
                    let coloring = soar_color_exact(tree, tables, best_j);
                    traced = Some((best_j, coloring.clone()));
                    coloring
                }
            };
            Solution {
                blue_used: coloring.n_blue(),
                cost,
                coloring,
                budget: i,
            }
        })
        .collect()
}

/// The "at most `i`" cost curve from gathered tables: entry `i` is the prefix
/// minimum of `optimum_with_exactly` over `0 ..= i` together with the exact blue
/// count attaining it. The single home of the strict-improvement epsilon shared by
/// [`solutions_for_all_budgets`], the budget sweeps of [`crate::api`] and every
/// other "at most `k`" curve, so a sweep's entry at `k` has the bits of a solve
/// at `k` ([`GatherTables::optimum`] applies the same rule).
pub fn prefix_min_curve(tables: &GatherTables) -> Vec<(f64, usize)> {
    let mut curve = Vec::with_capacity(tables.k + 1);
    let (mut best, mut best_j) = (f64::INFINITY, 0usize);
    for i in 0..=tables.k {
        let value = tables.optimum_with_exactly(i);
        if value < best - 1e-12 {
            best = value;
            best_j = i;
        }
        curve.push((best, best_j));
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::soar_gather;
    use soar_topology::builders;

    fn fig2_tree() -> Tree {
        let mut t = builders::complete_binary_tree(7);
        t.set_load(3, 2);
        t.set_load(4, 6);
        t.set_load(5, 5);
        t.set_load(6, 4);
        t
    }

    #[test]
    fn solve_reproduces_fig3_optimal_costs() {
        let tree = fig2_tree();
        let expected = [51.0, 35.0, 20.0, 15.0, 11.0];
        for (k, &want) in expected.iter().enumerate() {
            let solution = solve(&tree, k);
            assert_eq!(solution.cost, want, "k = {k}");
            assert!(solution.blue_used <= k);
            assert_eq!(solution.budget, k);
            // The reported cost matches an independent evaluation of the coloring.
            assert_eq!(solution.cost, cost::phi(&tree, &solution.coloring));
        }
    }

    #[test]
    fn normalized_cost_is_relative_to_all_red() {
        let tree = fig2_tree();
        let solution = solve(&tree, 2);
        assert!((solution.normalized_cost(&tree) - 20.0 / 51.0).abs() < 1e-12);
        // No traffic at all: the zero baseline normalizes to 1.0.
        let idle = builders::complete_binary_tree(7);
        assert_eq!(solve(&idle, 2).normalized_cost(&idle), 1.0);
    }

    #[test]
    fn from_coloring_builds_consistent_records() {
        let tree = fig2_tree();
        let coloring = Coloring::from_blue_nodes(7, [1, 2]).unwrap();
        let solution = Solution::from_coloring(&tree, coloring, 2);
        assert_eq!(solution.cost, 21.0);
        assert_eq!(solution.blue_used, 2);
    }

    #[test]
    fn all_budget_curve_is_monotone_and_matches_individual_solves() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 7);
        let curve = solutions_for_all_budgets(&tree, &tables);
        assert_eq!(curve.len(), 8);
        let mut prev = f64::INFINITY;
        for (i, solution) in curve.iter().enumerate() {
            assert!(
                solution.cost <= prev + 1e-9,
                "cost must not increase with k"
            );
            prev = solution.cost;
            let fresh = solve(&tree, i);
            assert!((fresh.cost - solution.cost).abs() < 1e-9);
            assert_eq!(solution.cost, cost::phi(&tree, &solution.coloring));
        }
        // k = n: the all-blue bound of one message per link.
        assert_eq!(curve[7].cost, 7.0);
    }

    #[test]
    fn solve_on_larger_uniform_instance_stays_consistent() {
        use rand::SeedableRng;
        let mut tree = builders::complete_binary_tree_bt(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        tree.apply_leaf_loads(&soar_topology::load::LoadSpec::paper_uniform(), &mut rng);
        for k in [0usize, 1, 2, 4, 8, 16] {
            let solution = solve(&tree, k);
            assert_eq!(solution.cost, cost::phi(&tree, &solution.coloring));
            assert!(solution.blue_used <= k);
        }
    }
}
