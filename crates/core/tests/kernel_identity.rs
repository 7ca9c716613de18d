//! Property tests: the pruned `mCost` kernel is **bit-identical** to the
//! scalar reference, and the capped arena (node `v` stores `min(k, s_v) + 1`
//! columns) holds exactly what uniform `k + 1`-column tables hold.
//!
//! The pruned kernel claims *exactness*, not approximation: the
//! effective-width cap and the tail early-exit only ever discard candidates
//! that provably cannot win (values are non-increasing in the split index,
//! and ties resolve to the smallest index, which is visited first). These
//! tests pin that claim across adversarial shapes — small and large budgets,
//! degenerate paths and stars, random trees with random loads / rates /
//! availability — by comparing whole [`GatherTables`] for equality, which
//! covers every `X` row, every `Y` row, and every recorded arg-min split.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_core::node_dp::{child_budgets, decide_color, fill_node, DpScratch, NodeTableMut};
use soar_core::workspace::SolverWorkspace;
use soar_core::{brute_force, Color, DpKernel, GatherTables, NodeTable};
use soar_reduce::Coloring;
use soar_topology::{builders, NodeId, Tree, ROOT};

/// Randomizes the DP inputs: loads everywhere (internal nodes included),
/// non-uniform rates, and a sprinkling of unavailable switches.
fn randomize(tree: &mut Tree, rng: &mut StdRng) {
    for v in 0..tree.n_switches() {
        if rng.random_bool(0.7) {
            tree.set_load(v, rng.random_range(0..100));
        }
        if rng.random_bool(0.3) {
            tree.set_available(v, false);
        }
        if rng.random_bool(0.4) {
            tree.set_rate(v, [0.25, 0.5, 1.0, 2.0, 4.0][rng.random_range(0..5usize)]);
        }
    }
}

fn gather_with(tree: &Tree, k: usize, kernel: DpKernel) -> GatherTables {
    let mut ws = SolverWorkspace::new();
    ws.set_kernel(kernel);
    let _ = ws.gather(tree, k);
    ws.into_tables()
}

/// The uncapped reference: every switch's table as an owned [`NodeTable`]
/// with uniform `k + 1` columns, filled bottom-up with `kernel` — the layout
/// the arena used before widths were capped.
fn uniform_tables(tree: &Tree, k: usize, kernel: DpKernel) -> Vec<NodeTable> {
    let mut tables: Vec<Option<NodeTable>> = vec![None; tree.n_switches()];
    let mut scratch = DpScratch::new();
    for v in tree.post_order() {
        let children = tree.children(v);
        let rho = tree.path_rho(v);
        let mut table = NodeTable::new(rho.len(), k + 1, children.len(), rho.clone());
        fill_node(
            NodeTableMut {
                x: &mut table.x,
                y_blue: &mut table.y_blue,
                y_red: &mut table.y_red,
                splits: &mut table.splits,
            },
            &rho,
            tree.load(v),
            tree.available(v),
            k + 1,
            children.len(),
            children
                .iter()
                .map(|&c| tables[c].as_ref().unwrap().x.as_slice()),
            &mut scratch,
            kernel,
        );
        tables[v] = Some(table);
    }
    tables.into_iter().map(Option::unwrap).collect()
}

/// Asserts that every `X`, `Y` and split read of the capped arena, at every
/// `i ≤ k`, is bitwise the uniform table's — which at `i > s_v` also pins the
/// plateau the clamped reads rely on.
fn assert_capped_matches_uniform(tree: &Tree, capped: &GatherTables, uniform: &[NodeTable]) {
    let k = capped.k;
    for v in tree.node_ids() {
        let view = capped.node(v);
        let full = &uniform[v];
        assert_eq!(view.n_i, tree.subtree_size(v).min(k) + 1, "node {v} width");
        for l in 0..full.n_l {
            for i in 0..=k {
                let at = format!("node {v}, l = {l}, i = {i}, k = {k}");
                assert_eq!(view.x(l, i).to_bits(), full.x(l, i).to_bits(), "X at {at}");
                for color in [Color::Blue, Color::Red] {
                    let (a, b) = (view.y(l, i, color), full.y(l, i, color));
                    assert_eq!(a.to_bits(), b.to_bits(), "Y {color:?} at {at}");
                    for m in 2..=tree.n_children(v) {
                        assert_eq!(
                            view.split(m, l, i, color),
                            full.split(m, l, i, color),
                            "split m = {m}, {color:?} at {at}"
                        );
                    }
                }
            }
        }
    }
}

/// SOAR-Color over the uniform owned tables, with the same rules as
/// `soar_core::color` — the uncapped traceback the capped one must reproduce.
fn trace_uniform(tree: &Tree, tables: &[NodeTable], i: usize) -> Coloring {
    let mut coloring = Coloring::all_red(tree.n_switches());
    let mut stack: Vec<(NodeId, usize, usize)> = vec![(ROOT, i, 1)];
    while let Some((v, budget, l)) = stack.pop() {
        let table = &tables[v];
        if tree.is_leaf(v) {
            if budget > 0
                && tree.available(v)
                && table.y(l, budget, Color::Blue) <= table.y(l, budget, Color::Red)
            {
                coloring.set_blue(v);
            }
            continue;
        }
        let color = decide_color(table, l, budget);
        if color == Color::Blue {
            coloring.set_blue(v);
        }
        let child_l = if color == Color::Blue { 1 } else { l + 1 };
        let children = tree.children(v);
        for (&c, share) in
            children
                .iter()
                .zip(child_budgets(table, children.len(), l, budget, color))
        {
            stack.push((c, share, child_l));
        }
    }
    coloring
}

/// The shapes under test, randomized.
fn shapes(rng: &mut StdRng) -> Vec<(String, Tree)> {
    let mut shapes: Vec<(String, Tree)> = vec![
        ("path-17".into(), builders::path(17)),
        ("star-33".into(), builders::star(33)),
        ("caterpillar".into(), builders::caterpillar(9, 4)),
        ("bt-255".into(), builders::complete_binary_tree(255)),
        ("kary4-341".into(), builders::complete_kary_tree(4, 341)),
        ("fat-tree".into(), builders::two_tier_fat_tree(4, 6)),
    ];
    for (i, n) in [37usize, 120, 450].into_iter().enumerate() {
        shapes.push((format!("random-{i}"), builders::random_tree(n, rng)));
    }
    for (_, tree) in &mut shapes {
        randomize(tree, rng);
    }
    shapes
}

#[test]
fn pruned_kernel_is_bit_identical_to_scalar() {
    let mut rng = StdRng::seed_from_u64(0x50AB);
    for (name, tree) in shapes(&mut rng) {
        for k in [0usize, 3, 4, 16, 63, 64] {
            let reference = gather_with(&tree, k, DpKernel::Scalar);
            let candidate = gather_with(&tree, k, DpKernel::Pruned);
            assert_eq!(
                candidate, reference,
                "pruned kernel diverged from scalar on {name} at k = {k}"
            );
        }
    }
}

#[test]
fn capped_arena_matches_uniform_width_tables_under_every_kernel() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    for (name, tree) in shapes(&mut rng) {
        for k in [2usize, 7, 65] {
            let uniform = uniform_tables(&tree, k, DpKernel::Scalar);
            for kernel in [DpKernel::Scalar, DpKernel::Pruned] {
                let capped = gather_with(&tree, k, kernel);
                assert!(
                    capped.table_cells() <= tree.n_switches() * (tree.height() + 2) * (k + 1),
                    "{name}: capped arena larger than the uniform one"
                );
                assert_capped_matches_uniform(&tree, &capped, &uniform);
            }
        }
    }
}

#[test]
fn capped_solves_match_the_uniform_path_and_brute_force() {
    // Random trees with unavailable switches, at budgets below, at and past
    // the root's subtree size (k = n + 5 reads only clamped columns at the
    // root). Costs must agree bit for bit, colorings exactly, and both must
    // equal the exhaustive optimum where enumerating subsets is tractable.
    let mut rng = StdRng::seed_from_u64(0xCA9);
    for round in 0..24 {
        let n = rng.random_range(1..=40);
        let mut tree = builders::random_tree(n, &mut rng);
        randomize(&mut tree, &mut rng);
        let budgets = [0, 1, n.saturating_sub(1), n, n + 5];
        for k in budgets {
            let uniform = uniform_tables(&tree, k, DpKernel::Scalar);
            let mut ws = SolverWorkspace::new();
            let solution = ws.solve(&tree, k);
            assert_capped_matches_uniform(&tree, ws.tables(), &uniform);
            // The uncapped optimum: the first strict minimum of X_r(1, i), i ≤ k.
            let mut best = (0, uniform[ROOT].x(1, 0));
            for i in 1..=k {
                if uniform[ROOT].x(1, i) < best.1 - 1e-12 {
                    best = (i, uniform[ROOT].x(1, i));
                }
            }
            let at = format!("round {round}, n = {n}, k = {k}");
            assert_eq!(ws.tables().optimum(), best, "optimum at {at}");
            assert_eq!(solution.cost.to_bits(), best.1.to_bits(), "cost at {at}");
            assert_eq!(
                solution.coloring,
                trace_uniform(&tree, &uniform, best.0),
                "coloring at {at}"
            );
            for i in [0, k / 2, k] {
                assert_eq!(
                    soar_core::soar_color_exact(&tree, ws.tables(), i),
                    trace_uniform(&tree, &uniform, i),
                    "exact-{i} coloring at {at}"
                );
            }
            if n <= 14 {
                let oracle = brute_force(&tree, k);
                assert!(
                    (oracle.cost - solution.cost).abs() <= 1e-9 * oracle.cost.max(1.0),
                    "brute force {} vs SOAR {} at {at}",
                    oracle.cost,
                    solution.cost
                );
            }
        }
    }
}

#[test]
fn incremental_updates_preserve_kernel_identity() {
    // Partial regathers run the same kernel as full passes; a dirty-path
    // refill must stay bit-identical to a from-scratch gather under every
    // kernel (this is what keeps soar-online exact when a kernel is forced).
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut tree = builders::complete_kary_tree(3, 121);
    randomize(&mut tree, &mut rng);
    for kernel in [DpKernel::Scalar, DpKernel::Pruned] {
        let mut ws = SolverWorkspace::new();
        ws.set_kernel(kernel);
        let _ = ws.gather(&tree, 6);
        // Touch one leaf; its root path is the ancestor-closed dirty set.
        let leaf = tree.leaves().last().unwrap();
        tree.set_load(leaf, 913);
        let mut dirty = vec![leaf];
        let mut v = leaf;
        while let Some(p) = tree.parent(v) {
            dirty.push(p);
            v = p;
        }
        let updated = ws.gather_update(&tree, 6, &dirty);
        let fresh = gather_with(&tree, 6, kernel);
        assert_eq!(
            *updated, fresh,
            "partial regather diverged under kernel {kernel:?}"
        );
        tree.set_load(leaf, 0); // reset so every kernel sees the same sequence
    }
}
