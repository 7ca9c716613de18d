//! SOAR-Gather (Algorithm 3 of the paper): the bottom-up dynamic-programming pass.
//!
//! Scanning the tree from the leaves towards the root, every switch `v` computes — for
//! every possible distance `ℓ` to its closest blue ancestor (or the destination) and
//! every possible number `i` of blue nodes placed inside its subtree — the minimum
//! utilization its subtree can contribute, conditioned on `v` being blue or red
//! (Lemma 6.2). The child subtrees are folded in one at a time through the prefix
//! recursion `Y_v^m` (Lemma 6.1 / the `mCost` procedure), whose arg-min split is
//! recorded for the coloring phase.
//!
//! ## Traversal and storage
//!
//! The pass walks the tree **level by level, deepest first** — a valid bottom-up
//! order (all children of a node sit exactly one level deeper) that doubles as the
//! parallel schedule: nodes of one level touch disjoint arena blocks and only read
//! the already-finalized deeper region. One level-ordered driver,
//! `run_gather`, fills either every node (a full pass) or only an
//! ancestor-closed dirty set (the incremental update behind `soar-online`);
//! `run_gather_parallel` fills each level's stripes concurrently on
//! [`soar-pool`](soar_pool). Both carve a level's borrows with one helper,
//! `carve_level`, and fill a node with one function, `LevelFill::fill_one`,
//! which is what keeps every pass bit-identical by construction. Children's `X`
//! tables are **borrowed as slices** from the [`GatherTables`] arena, and a warm
//! [`SolverWorkspace`](crate::workspace::SolverWorkspace) runs the whole pass
//! without a single heap allocation. Every node runs the same exact `mCost`
//! kernel, [`DpKernel::Pruned`]; tests swap in the scalar oracle.
//!
//! A node writes into three of the four arenas: its `X` and `Y_R` blocks and
//! its split blocks, one per child stage `m ≥ 2` holding the stage's blue
//! split row once and then one red split row per `ℓ` (the fourth arena, ρ,
//! belongs to the layout). The blue-conditioned `Y_B` is folded into `X` and
//! never written: SOAR-Color reads "blue beats red" back as `X < Y_R`, which
//! is the same f64 comparison (see the [`tables`](crate::tables) module docs).
//!
//! The complexity is `O(n · h(T) · k²)` time as in Theorem 4.1, and that
//! bound now comes from the red half of the split search alone: it scans one
//! `mCost` row per `(child, ℓ)`. The blue half folds once per child stage,
//! not once per `ℓ` row (see the [`node_dp`](crate::node_dp) module docs), so
//! it is `O(n · k²)`. Node `v`'s table is only `min(k, s_v) + 1` columns wide
//! (see the [`tables`](crate::tables) module docs), so the deep levels of a
//! tree, where subtrees hold fewer than `k` switches, cost far less than
//! either bound.

use crate::node_dp::{fill_node, DpKernel, DpScratch, NodeTableMut};
use crate::tables::GatherTables;
use soar_pool::ThreadPool;
use soar_topology::{NodeId, Tree};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shared read-only state for filling the nodes of one level — the single home
/// of the per-node offset arithmetic.
struct LevelFill<'a> {
    tree: &'a Tree,
    /// The `mCost` kernel every node of the pass runs.
    kernel: DpKernel,
    /// The level's nodes, in arena order.
    nodes: &'a [NodeId],
    /// Cell offset of the first strictly-deeper node: where `x_children` starts
    /// in the `X` arena.
    boundary: usize,
    x_children: &'a [f64],
    rho: &'a [f64],
    n_l: &'a [u32],
    n_i: &'a [u32],
    cell_off: &'a [usize],
    rho_off: &'a [usize],
    split_off: &'a [usize],
    split_len: &'a [usize],
}

/// Writable arena regions holding a run of consecutive nodes of one level: a
/// whole level, or one stripe of it in the parallel pass.
struct LevelOut<'a> {
    /// Arena offset of the first cell of `x` and `y_red`.
    cell_base: usize,
    /// Arena offset of the first entry of `splits`.
    split_base: usize,
    x: &'a mut [f64],
    y_red: &'a mut [f64],
    splits: &'a mut [u32],
}

impl<'a> LevelOut<'a> {
    /// Splits the first `cells` cells and `split_cells` split entries off the
    /// front of these regions.
    fn split_front(&mut self, cells: usize, split_cells: usize) -> LevelOut<'a> {
        let (x, x_rest) = std::mem::take(&mut self.x).split_at_mut(cells);
        let (y_red, yr_rest) = std::mem::take(&mut self.y_red).split_at_mut(cells);
        let (splits, sp_rest) = std::mem::take(&mut self.splits).split_at_mut(split_cells);
        let front = LevelOut {
            cell_base: self.cell_base,
            split_base: self.split_base,
            x,
            y_red,
            splits,
        };
        *self = LevelOut {
            cell_base: self.cell_base + cells,
            split_base: self.split_base + split_cells,
            x: x_rest,
            y_red: yr_rest,
            splits: sp_rest,
        };
        front
    }
}

/// Carves level `d`'s borrows out of the arena: the level's own region,
/// writable, and everything the fill reads — the strictly deeper `X` region
/// (finalized children) and the layout index — shared.
fn carve_level<'a>(
    tables: &'a mut GatherTables,
    tree: &'a Tree,
    d: usize,
    kernel: DpKernel,
) -> (LevelFill<'a>, LevelOut<'a>) {
    let (start, end) = tables.level_ranges[d];
    let boundary = tables.level_cell_end[d];
    let (cell_base, split_base) = match d {
        0 => (0, 0),
        _ => (tables.level_cell_end[d - 1], tables.level_split_end[d - 1]),
    };
    let split_end = tables.level_split_end[d];
    let GatherTables {
        x,
        y_red,
        splits,
        rho,
        n_l,
        n_i,
        cell_off,
        rho_off,
        split_off,
        split_len,
        level_nodes,
        ..
    } = tables;
    // Everything at offsets >= boundary belongs to strictly deeper levels:
    // finalized children, read-only from here on.
    let (x_level, x_children) = x.split_at_mut(boundary);
    let fill = LevelFill {
        tree,
        kernel,
        nodes: &level_nodes[start..end],
        boundary,
        x_children,
        rho,
        n_l,
        n_i,
        cell_off,
        rho_off,
        split_off,
        split_len,
    };
    let out = LevelOut {
        cell_base,
        split_base,
        x: &mut x_level[cell_base..],
        y_red: &mut y_red[cell_base..boundary],
        splits: &mut splits[split_base..split_end],
    };
    (fill, out)
}

impl LevelFill<'_> {
    /// Number of cells of node `v`'s table: `(D(v) + 2) · (min(k, s_v) + 1)`.
    fn cells(&self, v: NodeId) -> usize {
        self.n_l[v] as usize * self.n_i[v] as usize
    }

    /// Fills node `v`'s table inside `out`, which must hold it. Children's `X`
    /// tables are borrowed from `x_children`. Returns the scratch growth count.
    fn fill_one(&self, v: NodeId, out: &mut LevelOut<'_>, scratch: &mut DpScratch) -> usize {
        let rows = self.n_l[v] as usize;
        let cells = self.cells(v);
        let off = self.cell_off[v] - out.cell_base;
        let sp_off = self.split_off[v] - out.split_base;
        let children = self.tree.children(v);
        fill_node(
            NodeTableMut {
                x: &mut out.x[off..off + cells],
                y_red: &mut out.y_red[off..off + cells],
                splits: &mut out.splits[sp_off..sp_off + self.split_len[v]],
            },
            &self.rho[self.rho_off[v]..self.rho_off[v] + rows],
            self.tree.load(v),
            self.tree.available(v),
            self.n_i[v] as usize,
            children.len(),
            children.iter().map(|&c| {
                let c_cells = self.cells(c);
                let c_off = self.cell_off[c] - self.boundary;
                &self.x_children[c_off..c_off + c_cells]
            }),
            scratch,
            self.kernel,
        )
    }
}

/// Runs SOAR-Gather for budget `k` over the tree (its loads, rates and availability
/// set Λ) and returns the full set of DP tables.
///
/// Allocates a fresh arena per call; batch and sweep callers should prefer a
/// [`SolverWorkspace`](crate::workspace::SolverWorkspace), which reuses one arena
/// across gathers.
pub fn soar_gather(tree: &Tree, k: usize) -> GatherTables {
    let mut tables = GatherTables::new(tree, k);
    let mut scratch = DpScratch::new();
    run_gather(&mut tables, tree, None, &mut scratch, DpKernel::default());
    tables
}

/// Fills already-laid-out tables bottom-up, sequentially, one level at a time.
///
/// With `dirty = None` every node is filled, reading the ρ blocks that
/// [`GatherTables::reset`] laid out. With `dirty = Some(nodes)` only those
/// nodes are refilled — the incremental update behind `soar-online`'s epoch
/// solves. The dirty set must be **ancestor-closed** (if a node's inputs
/// changed, every ancestor up to the root is also in the set — a parent reads
/// its children's `X` tables, so a stale ancestor would fold refreshed child
/// values into an old table) and **sorted deepest-first**, so a node's dirty
/// children are refilled before the node itself. Nodes *not* in the set keep
/// their values from the previous pass; since their loads, availability, ρ
/// blocks and child tables are unchanged, those values are exactly what a
/// from-scratch gather would recompute — the dirty pass is bit-identical to a
/// full one by construction. The layout (tree shape, budget) must match the
/// pass that filled the tables; callers go through
/// [`SolverWorkspace::gather_update`](crate::workspace::SolverWorkspace::gather_update),
/// which checks that.
///
/// Link *rates* may have changed since the filling pass: every dirty node's ρ
/// prefix block is recomputed before the refill (the partial rho-arena
/// reset), which is bit-identical to the stored block when the rates are
/// unchanged — the same additions in the same order. The rate-change contract
/// is the caller's: a changed up-link of `w` moves the ρ blocks of exactly
/// `subtree(w)`, so that whole subtree (plus the usual ancestor closure) must
/// be in `dirty`.
///
/// Returns the number of scratch-buffer growths (0 when `scratch` is warm).
pub(crate) fn run_gather(
    tables: &mut GatherTables,
    tree: &Tree,
    dirty: Option<&[NodeId]>,
    scratch: &mut DpScratch,
    kernel: DpKernel,
) -> usize {
    let mut rest = dirty.unwrap_or_default();
    for &v in rest {
        tables.refresh_rho_node(tree, v);
    }
    let mut grew = 0;
    for d in (0..tables.n_levels()).rev() {
        // The dirty nodes at depth `d`: the next run of the deepest-first list.
        let dirty_run = match dirty {
            None => None,
            Some(_) => {
                let len = rest.iter().take_while(|&&v| tree.depth(v) == d).count();
                let (run, tail) = rest.split_at(len);
                rest = tail;
                if run.is_empty() {
                    continue;
                }
                Some(run)
            }
        };
        let _level = soar_obs::span!("gather_level", d);
        let (fill, mut out) = carve_level(tables, tree, d, kernel);
        for &v in dirty_run.unwrap_or(fill.nodes) {
            grew += fill.fill_one(v, &mut out, scratch);
        }
    }
    // A node left over was out of order, so it was never refilled.
    assert!(rest.is_empty(), "dirty nodes must be sorted deepest-first");
    grew
}

/// Fills already-laid-out tables bottom-up with each level's nodes processed
/// concurrently on `pool`.
///
/// Every level is carved into at most `pool.threads()` contiguous arena stripes
/// (nodes are laid out level-major, so a run of nodes is a run of cells); each
/// stripe is an independent job with its own [`DpScratch`] from `scratches`.
/// Children are always finalized before their parents *by construction* — they
/// live one level deeper, and levels are separated by the scope barrier. The
/// per-node computation is identical to [`run_gather`], so the results are
/// bit-identical to the sequential pass regardless of thread count.
///
/// Returns the number of scratch-buffer growths (0 when warm).
pub(crate) fn run_gather_parallel(
    tables: &mut GatherTables,
    tree: &Tree,
    scratches: &mut Vec<DpScratch>,
    pool: &ThreadPool,
    kernel: DpKernel,
) -> usize {
    let max_stripes = pool.threads();
    while scratches.len() < max_stripes {
        // DpScratch::new is heap-free; its buffers grow inside fill_node, where
        // the growth is counted.
        scratches.push(DpScratch::new());
    }
    let grew = AtomicUsize::new(0);
    for d in (0..tables.n_levels()).rev() {
        let (fill, mut rest) = carve_level(tables, tree, d, kernel);
        if fill.nodes.is_empty() {
            continue;
        }
        // One span per level on the *calling* thread (the span covers the whole
        // fork/join); each stripe additionally records on its worker's ring.
        let _level = soar_obs::span!("gather_level", d);
        let per_stripe = fill.nodes.len().div_ceil(max_stripes);
        let fill = &fill;
        let grew = &grew;
        pool.scope(|s| {
            for (stripe_nodes, scratch) in fill.nodes.chunks(per_stripe).zip(scratches.iter_mut()) {
                let first = stripe_nodes[0];
                let last = stripe_nodes[stripe_nodes.len() - 1];
                let cells = fill.cell_off[last] + fill.cells(last) - fill.cell_off[first];
                let split_cells =
                    fill.split_off[last] + fill.split_len[last] - fill.split_off[first];
                let mut stripe = rest.split_front(cells, split_cells);
                s.spawn(move || {
                    let _stripe = soar_obs::span!("gather_stripe", stripe_nodes.len());
                    let mut local_grew = 0;
                    for &v in stripe_nodes {
                        local_grew += fill.fill_one(v, &mut stripe, scratch);
                    }
                    if local_grew > 0 {
                        grew.fetch_add(local_grew, Ordering::Relaxed);
                    }
                });
            }
        });
    }
    grew.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::Color;
    use soar_topology::{builders, Tree};

    /// The Fig. 2 / Fig. 5 instance: complete binary tree over 7 switches, leaf loads
    /// 2, 6, 5, 4, unit rates, Λ = S.
    fn fig5_tree() -> Tree {
        let mut t = builders::complete_binary_tree(7);
        t.set_load(3, 2);
        t.set_load(4, 6);
        t.set_load(5, 5);
        t.set_load(6, 4);
        t
    }

    #[test]
    fn leaf_tables_match_fig5() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 2);
        // Leaf with load 2 (node 3): rows ℓ = 0..3, columns i = 0..2.
        // Red row is ℓ·L, blue row is ℓ (for i ≥ 1); X is their minimum.
        for l in 0..4 {
            assert_eq!(tables.y_red(3, l, 0), 2.0 * l as f64);
            assert_eq!(tables.x(3, l, 0), 2.0 * l as f64);
            for i in 1..=2 {
                assert_eq!(tables.y_red(3, l, i), 2.0 * l as f64);
                assert_eq!(tables.x(3, l, i), (l as f64).min(2.0 * l as f64));
            }
        }
        // Leaf with load 6 (node 4): red row is 6ℓ.
        assert_eq!(tables.x(4, 1, 0), 6.0);
        assert_eq!(tables.x(4, 2, 0), 12.0);
        assert_eq!(tables.x(4, 3, 0), 18.0);
        assert_eq!(tables.x(4, 3, 1), 3.0);
        // Leaf with load 5 (node 5) and 4 (node 6).
        assert_eq!(tables.x(5, 2, 0), 10.0);
        assert_eq!(tables.x(6, 2, 0), 8.0);
    }

    #[test]
    fn internal_node_tables_match_fig5() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 2);
        // Left internal switch (node 1, above loads 2 and 6).
        // Fig. 5: X(ℓ=0, ·) = (8, 3, 2); X(ℓ=1, ·) = (16, 6, 4); X(ℓ=2, ·) = (24, 9, 5).
        assert_eq!(tables.x(1, 0, 0), 8.0);
        assert_eq!(tables.x(1, 0, 1), 3.0);
        assert_eq!(tables.x(1, 0, 2), 2.0);
        assert_eq!(tables.x(1, 1, 0), 16.0);
        assert_eq!(tables.x(1, 1, 1), 6.0);
        assert_eq!(tables.x(1, 1, 2), 4.0);
        assert_eq!(tables.x(1, 2, 0), 24.0);
        assert_eq!(tables.x(1, 2, 1), 9.0);
        assert_eq!(tables.x(1, 2, 2), 5.0);
        // The blue-conditioned values of Fig. 5(a) are not stored; the
        // kernel-identity tests check them against the paper-order reference.
        assert_eq!(tables.y_red(1, 0, 0), 8.0);

        // Right internal switch (node 2, above loads 5 and 4).
        // Fig. 5: X(ℓ=0, ·) = (9, 5, 2); X(ℓ=1, ·) = (18, 10, 4).
        assert_eq!(tables.x(2, 0, 0), 9.0);
        assert_eq!(tables.x(2, 0, 1), 5.0);
        assert_eq!(tables.x(2, 0, 2), 2.0);
        assert_eq!(tables.x(2, 1, 0), 18.0);
        assert_eq!(tables.x(2, 1, 1), 10.0);
        assert_eq!(tables.x(2, 1, 2), 4.0);
    }

    #[test]
    fn root_table_yields_the_known_optima() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 4);
        // X_r(1, i) is the optimal utilization with exactly i blue nodes (Eq. 6):
        // all-red is 51; Fig. 3 reports 35, 20, 15, 11 for k = 1..4.
        assert_eq!(tables.optimum_with_exactly(0), 51.0);
        assert_eq!(tables.optimum_with_exactly(1), 35.0);
        assert_eq!(tables.optimum_with_exactly(2), 20.0);
        assert_eq!(tables.optimum_with_exactly(3), 15.0);
        assert_eq!(tables.optimum_with_exactly(4), 11.0);
        let (best_i, best) = tables.optimum();
        assert_eq!(best_i, 4);
        assert_eq!(best, 11.0);
        // The root's subtree-internal view (ℓ = 0) for i = 0 is the all-red cost minus
        // the 17 messages on the (r, d) link: 34, as printed in Fig. 5.
        assert_eq!(tables.x(0, 0, 0), 34.0);
        assert_eq!(tables.x(0, 0, 1), 24.0);
        assert_eq!(tables.x(0, 0, 2), 16.0);
    }

    #[test]
    fn unavailable_switches_are_never_counted_blue() {
        let mut tree = fig5_tree();
        // Make everything unavailable: the optimum for any k collapses to all-red.
        for v in 0..tree.n_switches() {
            tree.set_available(v, false);
        }
        let tables = soar_gather(&tree, 3);
        for i in 0..=3 {
            assert_eq!(tables.optimum_with_exactly(i), 51.0);
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let tree = fig5_tree();
        let tables = soar_gather(&tree, 7);
        let mut prev = f64::INFINITY;
        for i in 0..=7 {
            let value = tables.optimum_with_exactly(i);
            // With positive loads everywhere at the leaves, exact-i optima are
            // non-increasing here (each extra blue node can be placed on a leaf).
            assert!(value <= prev + 1e-9);
            prev = value;
        }
        // All-blue over 7 unit-rate switches costs exactly one message per link = 7.
        assert_eq!(tables.optimum_with_exactly(7), 7.0);
    }

    #[test]
    fn single_switch_tree() {
        let mut tree = builders::path(1);
        tree.set_load(0, 5);
        let tables = soar_gather(&tree, 1);
        assert_eq!(tables.optimum_with_exactly(0), 5.0);
        assert_eq!(tables.optimum_with_exactly(1), 1.0);
    }

    #[test]
    fn heterogeneous_rates_scale_the_potentials() {
        let mut tree = fig5_tree();
        tree.apply_rates(&soar_topology::rates::RateScheme::paper_exponential());
        let tables = soar_gather(&tree, 2);
        // The all-red cost: leaves send over rate-1 links, internals over rate-2,
        // the root over rate-4: 17/4 + (8 + 9)/2 + (2 + 6 + 5 + 4)/1 = 29.75.
        assert!((tables.optimum_with_exactly(0) - 29.75).abs() < 1e-9);
    }

    #[test]
    fn gather_handles_high_arity_nodes() {
        let mut tree = builders::star(9);
        for v in 1..9 {
            tree.set_load(v, v as u64);
        }
        let tables = soar_gather(&tree, 3);
        // All-red: each leaf v sends v messages over 2 links (leaf → root → d).
        let all_red: f64 = (1..9).map(|v| 2.0 * v as f64).sum();
        assert_eq!(tables.optimum_with_exactly(0), all_red);
        // Best single blue node is the root: every leaf still sends v messages on its
        // own link, the root forwards 1.
        let root_blue: f64 = (1..9).map(|v| v as f64).sum::<f64>() + 1.0;
        assert_eq!(tables.optimum_with_exactly(1), root_blue);
    }

    #[test]
    fn partial_regather_of_a_dirty_path_matches_a_fresh_gather() {
        let mut tree = fig5_tree();
        let mut tables = soar_gather(&tree, 3);
        let mut scratch = DpScratch::new();
        // Change one leaf's load: only its root path (leaf 4 -> 1 -> 0) is dirty.
        tree.set_load(4, 9);
        let grew = run_gather(
            &mut tables,
            &tree,
            Some(&[4, 1, 0]),
            &mut scratch,
            DpKernel::Pruned,
        );
        let _ = grew; // scratch growth is covered by the workspace tests
        assert_eq!(tables, soar_gather(&tree, 3));

        // Availability changes update through the same path.
        tree.set_available(5, false);
        run_gather(
            &mut tables,
            &tree,
            Some(&[5, 2, 0]),
            &mut scratch,
            DpKernel::Pruned,
        );
        assert_eq!(tables, soar_gather(&tree, 3));

        // An internal switch that goes unavailable overwrites the blue
        // splits it recorded while available.
        assert_ne!(tables.node(1).split(2, 0, 2, Color::Blue), 0);
        tree.set_available(1, false);
        run_gather(
            &mut tables,
            &tree,
            Some(&[1, 0]),
            &mut scratch,
            DpKernel::Pruned,
        );
        assert_eq!(tables, soar_gather(&tree, 3));

        // An empty dirty set leaves the tables untouched.
        let before = tables.clone();
        run_gather(
            &mut tables,
            &tree,
            Some(&[]),
            &mut scratch,
            DpKernel::Pruned,
        );
        assert_eq!(tables, before);

        // A link-rate change: the ρ blocks of the link's whole subtree move,
        // so that subtree (plus the ancestor closure) is the dirty set and the
        // partial rho-arena reset brings the pass back to bit-identity.
        tree.set_rate(1, 0.5);
        let mut dirty: Vec<_> = tree.subtree(1);
        dirty.push(0);
        dirty.sort_by_key(|&v| (std::cmp::Reverse(tree.depth(v)), v));
        run_gather(
            &mut tables,
            &tree,
            Some(&dirty),
            &mut scratch,
            DpKernel::Pruned,
        );
        assert_eq!(tables, soar_gather(&tree, 3));
    }

    #[test]
    fn parallel_gather_is_bit_identical_to_sequential() {
        // Several shapes, including high arity and a path, on a multi-worker pool.
        let pool = ThreadPool::new(4);
        let trees = vec![fig5_tree(), builders::star(17), builders::path(9), {
            let mut t = builders::complete_binary_tree(63);
            for (i, v) in t.leaves().collect::<Vec<_>>().into_iter().enumerate() {
                t.set_load(v, (i % 7 + 1) as u64);
            }
            t
        }];
        for tree in &trees {
            for k in [0usize, 1, 3, 6] {
                let sequential = soar_gather(tree, k);
                let mut tables = GatherTables::new(tree, k);
                let mut scratches = Vec::new();
                run_gather_parallel(&mut tables, tree, &mut scratches, &pool, DpKernel::Pruned);
                assert_eq!(
                    tables,
                    sequential,
                    "parallel gather diverged on n = {}, k = {k}",
                    tree.n_switches()
                );
            }
        }
    }
}
