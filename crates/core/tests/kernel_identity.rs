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

mod common;

use common::{randomize, shapes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_core::node_dp::{color_step, fill_node, DpScratch, NodeTableMut};
use soar_core::workspace::SolverWorkspace;
use soar_core::{brute_force, Color, DpKernel, GatherTables, NodeTableView};
use soar_reduce::Coloring;
use soar_topology::{builders, NodeId, Tree, ROOT};

fn gather_with(tree: &Tree, k: usize, kernel: DpKernel) -> GatherTables {
    let mut ws = SolverWorkspace::new();
    ws.set_kernel(kernel);
    let _ = ws.gather(tree, k);
    ws.into_tables()
}

/// One switch's table at uniform `k + 1` columns, in owned buffers.
struct UniformTable {
    k: usize,
    rho: Vec<f64>,
    x: Vec<f64>,
    y_blue: Vec<f64>,
    y_red: Vec<f64>,
    splits: Vec<u32>,
}

impl UniformTable {
    fn view(&self) -> NodeTableView<'_> {
        NodeTableView::new(
            self.k + 1,
            &self.rho,
            &self.x,
            &self.y_blue,
            &self.y_red,
            &self.splits,
        )
    }
}

/// The uncapped reference: every switch's table with uniform `k + 1`
/// columns, filled bottom-up with `kernel` — the layout the arena used
/// before widths were capped.
fn uniform_tables(tree: &Tree, k: usize, kernel: DpKernel) -> Vec<UniformTable> {
    let mut tables: Vec<Option<UniformTable>> = (0..tree.n_switches()).map(|_| None).collect();
    let mut scratch = DpScratch::new();
    for v in tree.post_order() {
        let children = tree.children(v);
        let rho = tree.path_rho(v);
        let cells = rho.len() * (k + 1);
        let mut table = UniformTable {
            k,
            x: vec![0.0; cells],
            y_blue: vec![0.0; cells],
            y_red: vec![0.0; cells],
            splits: vec![0; children.len().saturating_sub(1) * cells * 2],
            rho,
        };
        fill_node(
            NodeTableMut {
                x: &mut table.x,
                y_blue: &mut table.y_blue,
                y_red: &mut table.y_red,
                splits: &mut table.splits,
            },
            &table.rho,
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
fn assert_capped_matches_uniform(tree: &Tree, capped: &GatherTables, uniform: &[UniformTable]) {
    let k = capped.k;
    for v in tree.node_ids() {
        let view = capped.node(v);
        let full = uniform[v].view();
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

/// SOAR-Color over the uniform tables, with the solver's own step — the
/// uncapped traceback the capped one must reproduce. It is a full walk: every
/// switch runs a color step, zero shares included, so it also checks that the
/// solver's trace, which visits only the switches handed a positive share,
/// loses no blue node.
fn trace_uniform(tree: &Tree, tables: &[UniformTable], i: usize) -> Coloring {
    let mut coloring = Coloring::all_red(tree.n_switches());
    let mut stack: Vec<(NodeId, usize, usize)> = vec![(ROOT, i, 1)];
    while let Some((v, budget, l)) = stack.pop() {
        let children = tree.children(v);
        let push = |idx: usize, share, child_l| stack.push((children[idx], share, child_l));
        if color_step(
            tables[v].view(),
            children.len(),
            tree.available(v),
            l,
            budget,
            push,
        ) == Color::Blue
        {
            coloring.set_blue(v);
        }
    }
    coloring
}

/// Asserts that, at every exact budget `i ≤ k` of the workspace's tables, the
/// solver's trace equals the full walk over the uniform tables and runs at
/// most `1 + i·h(T)` color steps.
fn assert_traces_match_the_full_walk(
    tree: &Tree,
    ws: &mut SolverWorkspace,
    uniform: &[UniformTable],
    at: &str,
) {
    for i in 0..=ws.tables().k {
        let _ = ws.trace_exact(tree, i);
        let full = trace_uniform(tree, uniform, i);
        assert_eq!(*ws.coloring(), full, "exact-{i} coloring at {at}");
        assert!(
            ws.last_nodes_traced() <= 1 + i * tree.height(),
            "exact-{i} trace ran {} steps at {at}",
            ws.last_nodes_traced()
        );
    }
}

#[test]
fn traces_match_the_full_walk_at_every_budget_on_every_shape() {
    // Every shape, with unavailable switches and zero-load nodes (a zero-load
    // leaf handed one blue node may still end red), traced at every i ≤ k.
    let mut rng = StdRng::seed_from_u64(0x7ACE);
    for (name, tree) in shapes(&mut rng) {
        for k in [3usize, 16] {
            let uniform = uniform_tables(&tree, k, DpKernel::Scalar);
            let mut ws = SolverWorkspace::new();
            let _ = ws.gather(&tree, k);
            let at = format!("{name}, k = {k}");
            assert_traces_match_the_full_walk(&tree, &mut ws, &uniform, &at);
        }
    }
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
            let root = uniform[ROOT].view();
            let mut best = (0, root.x(1, 0));
            for i in 1..=k {
                if root.x(1, i) < best.1 - 1e-12 {
                    best = (i, root.x(1, i));
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
            assert_traces_match_the_full_walk(&tree, &mut ws, &uniform, &at);
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
