//! Property suite of the `soar-online` incremental re-optimization engine:
//! for random trees × random event streams, every incremental epoch solve is
//! **bit-identical** to a from-scratch solve of the same snapshot, single-leaf
//! updates write strictly fewer DP cells (asserted via `DpStats`), and warm
//! epochs perform zero heap allocations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar::multitenant::churn::{ChurnEvent, ChurnModel, ChurnTimeline};
use soar::online::{DynamicInstance, IncrementalSolver, OnlineDriver, Verify};
use soar::topology::load::LoadSpec;
use soar::topology::{builders, Tree};

/// A random tree of a random family with random leaf loads — the adversarial
/// input generator of this suite (hand-rolled; the build environment has no
/// proptest).
fn random_loaded_tree(rng: &mut StdRng) -> Tree {
    let n = rng.random_range(8..=72);
    let mut tree = match rng.random_range(0..6) {
        0 => builders::complete_binary_tree(n),
        1 => builders::complete_kary_tree(rng.random_range(2..=4), n),
        2 => builders::random_tree(n, rng),
        3 => builders::random_tree_bounded_degree(n, rng.random_range(2..=5), rng),
        4 => builders::star(n),
        _ => builders::path(n.min(24)),
    };
    for v in tree.leaves().collect::<Vec<_>>() {
        tree.set_load(v, rng.random_range(0..=12));
    }
    tree
}

/// A random event stream over `tree`: churn-model events — including the
/// failure-domain draws (switch-availability flaps and link-rate re-draws) —
/// plus explicitly injected budget changes (which the generator never emits on
/// its own).
fn random_timeline(tree: &Tree, epochs: usize, rng: &mut StdRng) -> ChurnTimeline {
    let model = ChurnModel {
        arrivals_per_epoch: 0.8,
        mean_lifetime: 2.5,
        rate_changes_per_epoch: 1.5,
        tenant_leaves: rng.random_range(1..=3),
        load: LoadSpec::paper_uniform(),
        mixed_tenants: true,
        switch_flaps_per_epoch: 0.7,
        link_rate_changes_per_epoch: 0.7,
        ..ChurnModel::paper_default()
    };
    let mut timeline = model.generate(tree, epochs, rng);
    for epoch in timeline.iter_mut() {
        if rng.random::<f64>() < 0.2 {
            epoch.push(ChurnEvent::BudgetChange {
                budget: rng.random_range(0..=8),
            });
        }
    }
    timeline
}

#[test]
fn incremental_solves_are_bit_identical_to_from_scratch_on_random_streams() {
    // Verify::Tables re-gathers every epoch from scratch inside the driver and
    // asserts the full DP tables, the coloring and the cost are identical.
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = random_loaded_tree(&mut rng);
        let budget = rng.random_range(0..=6);
        let timeline = random_timeline(&tree, 8, &mut rng);
        let mut instance = DynamicInstance::new(&tree, budget);
        let report = OnlineDriver::with_verification(Verify::Tables)
            .run(&mut instance, &timeline)
            .unwrap_or_else(|e| panic!("seed {seed}: timeline failed to replay: {e}"));
        assert_eq!(report.len(), 8, "seed {seed}");
        // Wherever the budget did not change, epochs past the first are
        // incremental and never write more cells than the full table.
        for epoch in &report.epochs[1..] {
            assert!(
                epoch.cells_written <= epoch.cells_full,
                "seed {seed}, epoch {}",
                epoch.epoch
            );
            if epoch.incremental {
                assert_eq!(
                    epoch.alloc_events, 0,
                    "seed {seed}, epoch {}: warm incremental epochs are allocation-free",
                    epoch.epoch
                );
            }
        }
    }
}

#[test]
fn single_leaf_updates_write_strictly_fewer_cells() {
    // On a BT(256) the root path is 8 nodes of ~3000; the saving must be
    // strict for *every* leaf, not just on average.
    let mut tree = builders::complete_binary_tree_bt(256);
    let mut rng = StdRng::seed_from_u64(3);
    tree.apply_leaf_loads(&LoadSpec::paper_uniform(), &mut rng);
    let mut instance = DynamicInstance::new(&tree, 8);
    let mut solver = IncrementalSolver::new();
    let full = solver.solve_epoch(&mut instance);
    assert_eq!(full.dp.cells_written, full.dp.table_cells);
    for leaf in tree.leaves().collect::<Vec<_>>() {
        // +1 over the current load so the event is a genuine change (an event
        // that does not move the load dirties nothing and writes zero cells).
        let load = instance.tree().load(leaf) + 1 + rng.random_range(0..8u64);
        instance
            .apply(&ChurnEvent::LeafRateChange { leaf, load })
            .unwrap();
        let outcome = solver.solve_epoch(&mut instance);
        assert!(outcome.incremental, "leaf {leaf}");
        assert!(
            0 < outcome.dp.cells_written && outcome.dp.cells_written < outcome.dp.table_cells,
            "leaf {leaf}: wrote {} of {}",
            outcome.dp.cells_written,
            outcome.dp.table_cells
        );
        assert_eq!(outcome.dp.alloc_events, 0, "leaf {leaf}");
    }
}

#[test]
fn four_k_switch_single_leaf_update_saves_at_least_5x_cell_writes() {
    // The acceptance bar of the online subsystem: one leaf change on a
    // 4k-switch BT at k = 16 performs >= 5x fewer DP cell writes than
    // from-scratch. (The actual ratio is ~300x: 13 path nodes of 4095.)
    let mut tree = builders::complete_binary_tree_bt(4096);
    let mut rng = StdRng::seed_from_u64(1);
    tree.apply_leaf_loads(&LoadSpec::paper_power_law(), &mut rng);
    let mut instance = DynamicInstance::new(&tree, 16);
    let mut solver = IncrementalSolver::new();
    let _ = solver.solve_epoch(&mut instance);
    let leaf = tree.leaves().next().unwrap();
    instance
        .apply(&ChurnEvent::LeafRateChange { leaf, load: 40 })
        .unwrap();
    let outcome = solver.solve_epoch(&mut instance);
    assert!(outcome.incremental);
    assert!(
        outcome.dp.table_cells >= 5 * outcome.dp.cells_written,
        "wrote {} of {} cells",
        outcome.dp.cells_written,
        outcome.dp.table_cells
    );
    assert_eq!(outcome.dp.alloc_events, 0);
    // The incremental solution is the true optimum of the new snapshot.
    let fresh = soar::core::solve(instance.tree(), 16);
    assert_eq!(outcome.cost, fresh.cost);
    assert_eq!(*solver.coloring(), fresh.coloring);
}

#[test]
fn long_online_runs_stay_allocation_free_once_warm() {
    // 40 churn epochs on one instance: after the first full solve, DpStats
    // must report zero allocation events for every epoch — gather updates,
    // color traces and dirty-set bookkeeping all run in reused buffers.
    let mut tree = builders::complete_binary_tree_bt(128);
    let mut rng = StdRng::seed_from_u64(17);
    tree.apply_leaf_loads(&LoadSpec::paper_uniform(), &mut rng);
    let timeline = ChurnModel::paper_default().generate(&tree, 40, &mut rng);
    let mut instance = DynamicInstance::new(&tree, 8);
    let report = OnlineDriver::new().run(&mut instance, &timeline).unwrap();
    for epoch in &report.epochs[1..] {
        assert!(epoch.incremental, "epoch {}", epoch.epoch);
        assert_eq!(epoch.alloc_events, 0, "epoch {}", epoch.epoch);
    }
    assert!(report.cells_saving_factor() > 2.0);
}
