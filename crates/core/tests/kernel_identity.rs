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
//! covers every `X` row, every `Y_R` row, and every recorded arg-min split.
//!
//! The kernels fold the blue half of the recursion once per child stage,
//! store its splits once per stage and add `ρ(ℓ)` last; a short reference of
//! the paper's order, which carries `ρ(ℓ)` from the first child, folds every
//! `ℓ` row and keeps `Y_B`, pins that reordering, and pins SOAR-Color's
//! reading of the unstored `Y_B` from `X < Y_R` (from `ρ(ℓ) ≤ Y_R` at a leaf).
//! Each pass's split candidates are counted exactly: evaluated plus pruned is
//! the closed-form candidate count of the unpruned search.

mod common;

use common::{randomize, shapes};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_core::node_dp::{color_step, fill_node, DpScratch, NodeTableMut};
use soar_core::tables::{block_lens, INF};
use soar_core::workspace::SolverWorkspace;
use soar_core::{brute_force, Color, DpKernel, GatherTables, NodeTableView};
use soar_reduce::Coloring;
use soar_topology::rates::RateScheme;
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
    y_red: Vec<f64>,
    splits: Vec<u32>,
}

impl UniformTable {
    fn view(&self) -> NodeTableView<'_> {
        NodeTableView::new(self.k + 1, &self.rho, &self.x, &self.y_red, &self.splits)
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
        let (cells, split_len) = block_lens(rho.len(), k + 1, children.len());
        let mut table = UniformTable {
            k,
            x: vec![0.0; cells],
            y_red: vec![0.0; cells],
            splits: vec![0; split_len],
            rho,
        };
        fill_node(
            NodeTableMut {
                x: &mut table.x,
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

/// Asserts that every `X`, `Y_R` and split read of the capped arena, at every
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
                let (a, b) = (view.y_red(l, i), full.y_red(l, i));
                assert_eq!(a.to_bits(), b.to_bits(), "Y_R at {at}");
                for color in [Color::Blue, Color::Red] {
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

/// One switch's table at uniform `k + 1` columns in the paper's summation
/// order, with what the solver does not store: `Y_B`, and the blue split of
/// every `ℓ` row.
struct PaperTable {
    x: Vec<f64>,
    y_blue: Vec<f64>,
    y_red: Vec<f64>,
    /// `(blue, red)` split of stage `m ≥ 2` at cell `(ℓ, i)`, stage-major.
    splits: Vec<(u32, u32)>,
}

/// The uniform `k + 1`-column tables in the paper's summation order: the blue
/// prefix `Y_B^m(ℓ, ·)` picks up `ρ(ℓ)` at the first child, and the blue
/// fold, arg-min scan included, runs once per `ℓ` row.
fn rho_first_tables(tree: &Tree, k: usize) -> Vec<PaperTable> {
    let n_i = k + 1;
    let mut tables: Vec<Option<PaperTable>> = (0..tree.n_switches()).map(|_| None).collect();
    for v in tree.post_order() {
        let (rho, children) = (tree.path_rho(v), tree.children(v));
        let (n_l, load, available) = (rho.len(), tree.load(v) as f64, tree.available(v));
        let mut yb = vec![INF; n_l * n_i];
        let mut yr: Vec<f64> = (0..n_l * n_i).map(|c| rho[c / n_i] * load).collect();
        for (c, y) in yb.iter_mut().enumerate() {
            if available && children.is_empty() && c % n_i > 0 {
                *y = rho[c / n_i];
            }
        }
        let mut splits = vec![(0, 0); children.len().saturating_sub(1) * n_l * n_i];
        for (m, &c) in children.iter().enumerate() {
            let cx = &tables[c].as_ref().unwrap().x;
            let (pb, pr) = (yb.clone(), yr.clone());
            for (l, i) in (0..n_l).flat_map(|l| (0..n_i).map(move |i| (l, i))) {
                let (cell, d1, cl) = (l * n_i + i, &cx[n_i..], &cx[(l + 1) * n_i..]);
                if m == 0 {
                    yr[cell] = cl[i] + rho[l] * load;
                    yb[cell] = if available && i > 0 {
                        d1[i - 1] + rho[l]
                    } else {
                        INF
                    };
                    continue;
                }
                let mut blue = (INF, 0);
                for j in (0..i).filter(|_| available) {
                    if pb[cell - j] + d1[j] < blue.0 {
                        blue = (pb[cell - j] + d1[j], j as u32);
                    }
                }
                let mut red = (INF, 0);
                for j in 0..=i {
                    if pr[cell - j] + cl[j] < red.0 {
                        red = (pr[cell - j] + cl[j], j as u32);
                    }
                }
                (yb[cell], yr[cell]) = (blue.0, red.0);
                splits[(m - 1) * n_l * n_i + cell] = (blue.1, red.1);
            }
        }
        let x = yb.iter().zip(&yr).map(|(b, r)| b.min(*r)).collect();
        tables[v] = Some(PaperTable {
            x,
            y_blue: yb,
            y_red: yr,
            splits,
        });
    }
    tables.into_iter().map(Option::unwrap).collect()
}

/// Asserts that `table`, switch `v`'s table as the solver stores it, reads
/// bitwise like the paper-order `reference` at every `(ℓ, i ≤ k)`: `X`,
/// `Y_R`, every red split, the blue split (stored once per stage) in every
/// `ℓ` row, and the color [`color_step`] picks — which must be the
/// reference's `Y_B < Y_R` at an internal switch and `Y_B ≤ Y_R` at a leaf.
fn assert_matches_paper_order(
    tree: &Tree,
    v: NodeId,
    table: NodeTableView<'_>,
    reference: &PaperTable,
    k: usize,
    at: &str,
) {
    let (n_i, n_children) = (k + 1, tree.n_children(v));
    for l in 0..table.n_l {
        for i in 0..=k {
            let (cell, at) = (l * n_i + i, format!("switch {v}, l = {l}, i = {i}, {at}"));
            let (yb, yr) = (reference.y_blue[cell], reference.y_red[cell]);
            assert_eq!(
                table.x(l, i).to_bits(),
                reference.x[cell].to_bits(),
                "X at {at}"
            );
            assert_eq!(table.y_red(l, i).to_bits(), yr.to_bits(), "Y_R at {at}");
            for m in 2..=n_children {
                let (blue, red) = reference.splits[(m - 2) * table.n_l * n_i + cell];
                assert_eq!(
                    table.split(m, l, i, Color::Blue),
                    blue,
                    "blue split {m} at {at}"
                );
                assert_eq!(
                    table.split(m, l, i, Color::Red),
                    red,
                    "red split {m} at {at}"
                );
            }
            let color = color_step(table, n_children, tree.available(v), l, i, |_, _, _| {});
            let blue = if n_children == 0 { yb <= yr } else { yb < yr };
            assert_eq!(
                color == Color::Blue,
                blue,
                "color at {at}: Y_B {yb}, Y_R {yr}"
            );
        }
    }
}

#[test]
fn z_fold_equals_the_rho_first_fold_bit_for_bit_under_dyadic_rates() {
    // Integer loads and power-of-two rates keep every sum exact, so adding
    // ρ(ℓ) last changes no value and no arg-min: the tables, splits
    // included, must be the reference's bit for bit under both kernels.
    let mut rng = StdRng::seed_from_u64(0xD1AD);
    for (name, mut tree) in shapes(&mut rng) {
        for scheme in [
            RateScheme::paper_constant(),
            RateScheme::paper_exponential(),
        ] {
            tree.apply_rates(&scheme);
            for k in [1usize, 4, 16] {
                let reference = rho_first_tables(&tree, k);
                let at = format!("{name}, {}, k = {k}", scheme.label());
                for kernel in [DpKernel::Scalar, DpKernel::Pruned] {
                    let capped = gather_with(&tree, k, kernel);
                    for v in tree.node_ids() {
                        assert_matches_paper_order(&tree, v, capped.node(v), &reference[v], k, &at);
                    }
                }
                let uniform = uniform_tables(&tree, k, DpKernel::Pruned);
                for v in tree.node_ids() {
                    assert_matches_paper_order(&tree, v, uniform[v].view(), &reference[v], k, &at);
                }
            }
        }
    }
}

#[test]
fn color_steps_read_the_unstored_blue_potential_exactly_on_every_shape() {
    // Every shape as `shapes` randomizes it (dyadic rates, integer loads,
    // unavailable switches, zero-load leaves), up to a budget that covers
    // the whole tree: at every (v, ℓ, i) the color step's decision is the
    // reference's Y_B-vs-Y_R comparison and every blue split is the one the
    // reference records in each ℓ row.
    let mut rng = StdRng::seed_from_u64(0xB1E);
    for (name, tree) in shapes(&mut rng) {
        let n = tree.n_switches();
        for k in [1usize, 4, 16, n] {
            let reference = rho_first_tables(&tree, k);
            let tables = gather_with(&tree, k, DpKernel::Pruned);
            let at = format!("{name}, k = {k}");
            for v in tree.node_ids() {
                assert_matches_paper_order(&tree, v, tables.node(v), &reference[v], k, &at);
            }
        }
    }
}

#[test]
fn fig5_blue_potentials_match_the_paper_order_reference() {
    // The Fig. 2 / Fig. 5 instance: leaf loads 2, 6, 5, 4, unit rates, Λ = S.
    let mut tree = builders::complete_binary_tree(7);
    for (leaf, load) in [(3, 2), (4, 6), (5, 5), (6, 4)] {
        tree.set_load(leaf, load);
    }
    let k = 2;
    let reference = rho_first_tables(&tree, k);
    let y_blue = |v: NodeId, l: usize, i: usize| reference[v].y_blue[l * (k + 1) + i];
    // Fig. 5(a): Y(ℓ=1, i=1, B) = 9 and Y(ℓ=2, i=1, B) = 10 at the left
    // internal switch, 10 and 11 at the right one.
    assert_eq!(y_blue(1, 1, 1), 9.0);
    assert_eq!(y_blue(1, 2, 1), 10.0);
    assert_eq!(y_blue(2, 1, 1), 10.0);
    assert_eq!(y_blue(2, 2, 1), 11.0);
    // A leaf's blue row: ∞ without a blue node, ρ(ℓ) = ℓ with one.
    for l in 0..4 {
        assert_eq!(y_blue(3, l, 0), INF);
        for i in 1..=k {
            assert_eq!(y_blue(3, l, i), l as f64);
        }
    }
    let tables = gather_with(&tree, k, DpKernel::Pruned);
    for v in tree.node_ids() {
        assert_matches_paper_order(&tree, v, tables.node(v), &reference[v], k, "fig. 5");
    }
}

#[test]
fn z_fold_agrees_with_the_rho_first_fold_under_non_dyadic_rates() {
    // With rates that round, the two summation orders may differ in the last
    // bits (and pick another of two near-tied splits), but no further: every
    // X and Y_R agrees within 1e-12 relative, and the optimum is still brute
    // force's.
    let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    let mut rng = StdRng::seed_from_u64(0x0DD);
    for round in 0..40 {
        let n = rng.random_range(1..=60);
        let mut tree = builders::random_tree(n, &mut rng);
        randomize(&mut tree, &mut rng);
        for v in 0..n {
            tree.set_rate(v, rng.random_range(0.3..3.7));
        }
        for k in [1, 3, n] {
            let (new, old) = (
                uniform_tables(&tree, k, DpKernel::Pruned),
                rho_first_tables(&tree, k),
            );
            for (v, (a, b)) in new.iter().zip(&old).enumerate() {
                for (what, xs, ys) in [("X", &a.x, &b.x), ("Y_R", &a.y_red, &b.y_red)] {
                    for (c, (&x, &y)) in xs.iter().zip(ys).enumerate() {
                        assert!(
                            close(x, y),
                            "{what} cell {c} of switch {v}: {x} vs {y}, round {round}, k = {k}"
                        );
                    }
                }
            }
            if n <= 14 {
                let (soar, oracle) = (
                    SolverWorkspace::new().solve(&tree, k),
                    brute_force(&tree, k),
                );
                assert!(
                    (oracle.cost - soar.cost).abs() <= 1e-9 * oracle.cost.max(1.0),
                    "brute force {} vs SOAR {} at round {round}, n = {n}, k = {k}",
                    oracle.cost,
                    soar.cost
                );
            }
        }
    }
}

/// The `(i, j)` split candidates an unpruned fill of `nodes` scans in
/// `tables`' layout: every stage `m ≥ 2` scans `j < i` for blue (once per
/// stage, at an available switch) and `j ≤ i` for red (once per `ℓ` row).
fn candidate_count(
    tree: &Tree,
    tables: &GatherTables,
    nodes: impl Iterator<Item = NodeId>,
) -> usize {
    nodes
        .map(|v| {
            let (n_l, n_i) = (tables.node(v).n_l, tables.node(v).n_i);
            let blue = if tree.available(v) {
                n_i * (n_i - 1) / 2
            } else {
                0
            };
            let red = n_l * n_i * (n_i + 1) / 2;
            tree.n_children(v).saturating_sub(1) * (blue + red)
        })
        .sum()
}

#[test]
fn split_evals_plus_pruned_splits_is_the_closed_form_count_on_every_shape() {
    let mut rng = StdRng::seed_from_u64(0xC0C0);
    for (name, mut tree) in shapes(&mut rng) {
        for k in [0usize, 3, 16, 64] {
            let at = format!("{name}, k = {k}");
            let mut scalar = SolverWorkspace::new();
            scalar.set_kernel(DpKernel::Scalar);
            let count = candidate_count(&tree, scalar.gather(&tree, k), tree.node_ids());
            assert_eq!(
                scalar.last_split_evals(),
                count,
                "scalar evaluations at {at}"
            );
            assert_eq!(scalar.last_pruned_splits(), 0, "scalar prunes at {at}");
            let mut pruned = SolverWorkspace::new();
            let _ = pruned.gather(&tree, k);
            let (evals, skipped) = (pruned.last_split_evals(), pruned.last_pruned_splits());
            assert_eq!(
                evals + skipped,
                count,
                "pruned evaluations + pruned at {at}"
            );
            // A refill counts only the dirty nodes' candidates: here the
            // whole root path of one leaf, so never more than a full pass.
            let leaf = tree.leaves().last().unwrap();
            tree.set_load(leaf, tree.load(leaf) + 1);
            let mut dirty = vec![leaf];
            while let Some(p) = tree.parent(*dirty.last().unwrap()) {
                dirty.push(p);
            }
            let _ = pruned.gather_update(&tree, k, &dirty);
            assert!(
                pruned.last_split_evals() <= count,
                "refill evaluations at {at}"
            );
        }
    }
}
