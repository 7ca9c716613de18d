//! Property tests certifying the fabric solver end to end:
//!
//! * on random small fabrics the exact decompose-and-compose solver is
//!   feasible and cost-matches the exhaustive fabric oracle;
//! * every per-tree result is bit-identical to solving the extracted tree
//!   standalone with the same budget share (the decomposition adds nothing
//!   and loses nothing);
//! * solving is deterministic across repeated runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_fabric::{DecomposeSolver, FabricBruteForce, FabricInstance, FabricSolver};
use soar_topology::builders;
use soar_topology::Tree;

/// A random fabric of 2–3 cores totalling at most ~40 switches, with random
/// loads, rates and availability — the adversarial end of the small-fabric
/// space.
fn random_fabric(rng: &mut StdRng) -> FabricInstance {
    let cores = rng.random_range(2..=3);
    let trees: Vec<Tree> = (0..cores)
        .map(|_| {
            let n = rng.random_range(2..=13);
            let mut tree = builders::random_tree(n, rng);
            for v in 0..n {
                tree.set_load(v, rng.random_range(0..7));
                tree.set_rate(v, [0.5, 1.0, 2.0, 4.0][rng.random_range(0..4usize)]);
                // Keep the root available more often than not so the bound
                // bites instead of availability alone.
                tree.set_available(v, rng.random_range(0..4) != 0);
            }
            tree
        })
        .collect();
    let budget = rng.random_range(0..=4);
    let bound = rng.random_range(1..=2);
    let gamma = [0.0, 0.25, 1.0, 2.5][rng.random_range(0..4usize)];
    FabricInstance::new("prop", trees, budget, bound, gamma).unwrap()
}

#[test]
fn solver_is_feasible_and_matches_the_oracle_on_random_fabrics() {
    let mut rng = StdRng::seed_from_u64(4242);
    for trial in 0..60 {
        let fabric = random_fabric(&mut rng);
        let exact = FabricBruteForce.solve(&fabric);
        let solved = DecomposeSolver.solve(&fabric);

        assert!(solved.is_feasible(), "trial {trial}: infeasible placement");
        assert!(
            fabric.is_feasible(&solved.colorings),
            "trial {trial}: colorings violate instance constraints"
        );
        assert!(
            (exact.cost - solved.cost).abs() < 1e-9,
            "trial {trial}: oracle {} vs solver {} (k = {}, c = {}, γ = {}, trees = {:?})",
            exact.cost,
            solved.cost,
            fabric.budget(),
            fabric.congestion_bound(),
            fabric.congestion_weight(),
            fabric
                .trees()
                .iter()
                .map(Tree::n_switches)
                .collect::<Vec<_>>(),
        );
        // The recomputed objective agrees with the reported one.
        assert!((fabric.objective(&solved.colorings) - solved.cost).abs() < 1e-12);
    }
}

#[test]
fn per_tree_results_are_bit_identical_to_standalone_solves() {
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..25 {
        let fabric = random_fabric(&mut rng);
        let solved = DecomposeSolver.solve(&fabric);
        for (t, &j) in solved.per_tree_budget.iter().enumerate() {
            let standalone = soar_core::solve(&fabric.weighted_trees()[t], j);
            assert_eq!(
                standalone.cost, solved.per_tree_cost[t],
                "tree {t}: standalone DP cost differs from the fabric share"
            );
            assert_eq!(
                standalone.coloring, solved.colorings[t],
                "tree {t}: standalone DP coloring differs from the fabric share"
            );
        }
    }
}

#[test]
fn solving_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..10 {
        let fabric = random_fabric(&mut rng);
        let a = DecomposeSolver.solve(&fabric);
        let b = DecomposeSolver.solve(&fabric);
        assert_eq!(a, b, "repeated solves must be bit-identical");
    }
}

#[test]
fn congestion_weight_trades_cost_for_congestion() {
    // On a fixed fabric, raising γ can only lower (or keep) the congestion of
    // the chosen placement: the optimizer pays more for core-link traffic.
    let build = |gamma: f64| {
        let mut trees = builders::multi_core_fat_tree(2, 4, 2, 2);
        for tree in &mut trees {
            for v in tree.leaves().collect::<Vec<_>>() {
                tree.set_load(v, 5);
            }
        }
        FabricInstance::new("tradeoff", trees, 4, 2, gamma).unwrap()
    };
    let mut last_congestion = f64::INFINITY;
    for gamma in [0.0, 0.5, 2.0, 8.0] {
        let solution = DecomposeSolver.solve(&build(gamma));
        assert!(
            solution.congestion <= last_congestion + 1e-9,
            "γ = {gamma}: congestion rose from {last_congestion} to {}",
            solution.congestion
        );
        last_congestion = solution.congestion;
    }
}

#[test]
fn registry_resolves_both_solvers() {
    assert_eq!(soar_fabric::solvers::NAMES, ["fabric-soar", "fabric-brute"]);
    for name in soar_fabric::solvers::NAMES {
        let solver = soar_fabric::solvers::by_name(name).expect("registered");
        assert_eq!(solver.name(), name);
    }
    assert!(soar_fabric::solvers::by_name("nope").is_none());
    assert_eq!(soar_fabric::solvers::all().len(), 2);
}
