//! SOAR-Color (Algorithm 4 of the paper): the top-down traceback that turns the DP
//! tables of [`crate::gather`] into an actual set of blue switches.
//!
//! The destination hands the root the budget and the distance `ℓ = 1`; every switch
//! then (i) decides its own color by comparing the two conditioned potentials
//! `Y_v(ℓ*, i, B)` and `Y_v(ℓ*, i, R)` of the gather phase — read from the
//! stored tables as `X_v(ℓ*, i) < Y_v(ℓ*, i, R)`, or `ρ(ℓ*) ≤ Y_v(ℓ*, i, R)` at a
//! leaf, since `Y_B` itself is not stored (see [`crate::tables`]) — and (ii) tells
//! each child how many blue nodes to place in its subtree (replaying the recorded
//! `mSplit` decisions) and at what distance from the nearest barrier it now sits.
//!
//! ## Only switches that hold budget are traced
//!
//! A switch handed a budget of 0 places no blue node, so its whole subtree stays
//! red: at `i = 0` every switch's blue potential is `Y_B(ℓ, 0) = ∞` (a leaf's blue
//! row starts at `∞`, the first child stage sets its blue column 0 to `∞`, and
//! later stages never go blue at `i = 0`), so the leaf rule (`budget > 0`) and the
//! internal rule (`X < Y_R`, where `X = min(∞, Y_R) = Y_R`) both pick red, and the
//! only red split of 0 is `j = 0` — by induction nothing below turns blue. The
//! trace therefore starts from an all-red coloring and visits a child only when
//! its share is positive. At every depth the visited switches root disjoint
//! subtrees whose shares sum to at most `i`, so a trace of `i` blue nodes runs at
//! most `1 + i·h(T)` color steps instead of `n` (31 of 4,095 on `BT(4096)` at
//! `k = 16`), and its work list never holds more than `max(1, i)` entries.

use crate::node_dp::color_step;
use crate::tables::{Color, GatherTables};
use soar_reduce::Coloring;
use soar_topology::{NodeId, Tree, ROOT};

/// Runs SOAR-Color using tables produced by [`crate::gather::soar_gather`] and the
/// *exact* number of blue nodes `i` to distribute (usually the arg-min over `i ≤ k`
/// computed by [`GatherTables::optimum`]).
///
/// Returns the resulting coloring; its utilization equals `X_r(1, i)`.
pub fn soar_color_exact(tree: &Tree, tables: &GatherTables, i: usize) -> Coloring {
    let mut coloring = Coloring::all_red(0);
    let mut stack = Vec::new();
    soar_color_exact_into(tree, tables, i, &mut coloring, &mut stack);
    coloring
}

/// Like [`soar_color_exact`], but tracing into caller-provided buffers: the
/// coloring is reset to all-red in place and the work list reuses `stack`'s
/// storage, so a warm caller performs **zero heap allocations** per trace.
///
/// Only switches handed a positive share are visited (see the [module
/// docs](self)): a trace of `i` blue nodes runs at most `1 + i·h(T)` color
/// steps. The work list is reserved up front for `max(1, min(k, n))`
/// entries, its bound for any `i ≤ k`, so it never grows mid-trace and a warm
/// workspace stays allocation-free whichever budget it traces next.
///
/// Returns `(alloc_events, nodes_traced)`: the number of buffers that had to
/// grow (0 once warm) — the same convention as the gather allocation
/// counters, which is how the solver workspace folds color-phase allocations
/// into [`DpStats::alloc_events`](crate::api::DpStats::alloc_events) — and the
/// number of color steps the trace ran. This is the streaming path behind
/// every traced solve: sweeps, `soar serve` and `soar-online`'s epoch loop.
pub fn soar_color_exact_into(
    tree: &Tree,
    tables: &GatherTables,
    i: usize,
    coloring: &mut Coloring,
    stack: &mut Vec<(NodeId, usize, usize)>,
) -> (usize, usize) {
    assert!(
        i <= tables.k,
        "requested {i} blue nodes but the tables were computed for k = {}",
        tables.k
    );
    let mut grew = coloring.reset_all_red(tree.n_switches());
    // Work list of (node, blue nodes to place in its subtree, distance to barrier).
    let bound = tables.k.min(tree.n_switches()).max(1);
    stack.clear();
    if stack.capacity() < bound {
        stack.reserve(bound);
        grew += 1;
    }
    let stack_capacity = stack.capacity();
    stack.push((ROOT, i, 1));
    let mut traced = 0;
    while let Some((v, budget, l)) = stack.pop() {
        traced += 1;
        // `tables.node(v)` borrows the arena, so a step allocates nothing; each
        // child that holds budget goes onto the work list, c_C first. A child
        // handed 0 stays red with its whole subtree, as the reset left it.
        let children = tree.children(v);
        let push = |idx: usize, share, child_l| {
            if share > 0 {
                stack.push((children[idx], share, child_l));
            }
        };
        let table = tables.node(v);
        if color_step(table, children.len(), tree.available(v), l, budget, push) == Color::Blue {
            coloring.set_blue(v);
        }
    }
    // Never counts while the bound above holds; a wrong bound shows up here.
    grew += usize::from(stack.capacity() != stack_capacity);
    (grew, traced)
}

/// Runs SOAR-Color for the best budget `i ≤ k` (the "at most k" semantics of the φ-BIC
/// problem) and returns the coloring together with its optimal utilization.
pub fn soar_color(tree: &Tree, tables: &GatherTables) -> (Coloring, f64) {
    let (best_i, best_cost) = tables.optimum();
    let coloring = soar_color_exact(tree, tables, best_i);
    (coloring, best_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::soar_gather;
    use soar_reduce::cost;
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
    fn coloring_cost_matches_table_optimum_fig2() {
        let tree = fig2_tree();
        for k in 0..=7 {
            let tables = soar_gather(&tree, k);
            let (coloring, cost_claimed) = soar_color(&tree, &tables);
            let cost_actual = cost::phi(&tree, &coloring);
            assert!(
                (cost_claimed - cost_actual).abs() < 1e-9,
                "k = {k}: claimed {cost_claimed}, actual {cost_actual}"
            );
            assert!(coloring.n_blue() <= k);
        }
    }

    #[test]
    fn fig2_k2_produces_the_unique_optimal_set() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 2);
        let (coloring, cost_value) = soar_color(&tree, &tables);
        assert_eq!(cost_value, 20.0);
        // Fig. 3(b): the unique optimum for k = 2 is {leaf with load 6, right internal}.
        assert_eq!(coloring.blue_nodes(), vec![2, 4]);
    }

    #[test]
    fn fig3_k3_produces_the_unique_optimal_set() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 3);
        let (coloring, cost_value) = soar_color(&tree, &tables);
        assert_eq!(cost_value, 15.0);
        // Fig. 3(c): the unique optimum for k = 3 is the three heaviest leaves.
        assert_eq!(coloring.blue_nodes(), vec![4, 5, 6]);
    }

    #[test]
    fn exact_budget_traceback_matches_exact_table_entry() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 4);
        for i in 0..=4 {
            let coloring = soar_color_exact(&tree, &tables, i);
            let actual = cost::phi(&tree, &coloring);
            assert!(
                (actual - tables.optimum_with_exactly(i)).abs() < 1e-9,
                "exact i = {i}"
            );
            assert!(coloring.n_blue() <= i);
        }
    }

    #[test]
    fn streaming_trace_reuses_buffers_and_matches_the_owned_path() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 4);
        let mut coloring = Coloring::all_red(0);
        let mut stack = Vec::new();
        // Budget 0 traces the root alone, yet still reserves the work list
        // for every later budget.
        let (cold, traced) = soar_color_exact_into(&tree, &tables, 0, &mut coloring, &mut stack);
        assert!(cold > 0, "the first trace must allocate its buffers");
        assert_eq!(traced, 1);
        assert_eq!(coloring, soar_color_exact(&tree, &tables, 0));
        for i in [4usize, 1, 3, 2] {
            let (grew, traced) =
                soar_color_exact_into(&tree, &tables, i, &mut coloring, &mut stack);
            assert_eq!(grew, 0, "warm traces are allocation-free (i = {i})");
            assert!(traced <= 1 + i * tree.height(), "i = {i}: {traced} steps");
            assert_eq!(coloring, soar_color_exact(&tree, &tables, i));
        }
    }

    #[test]
    #[should_panic(expected = "tables were computed for k")]
    fn exceeding_the_table_budget_panics() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 2);
        let _ = soar_color_exact(&tree, &tables, 3);
    }

    #[test]
    fn availability_is_respected_by_the_traceback() {
        let mut tree = fig2_tree();
        // Only the two internal switches may aggregate.
        for v in [0usize, 3, 4, 5, 6] {
            tree.set_available(v, false);
        }
        let tables = soar_gather(&tree, 2);
        let (coloring, cost_value) = soar_color(&tree, &tables);
        for v in coloring.blue_nodes() {
            assert!(tree.available(v));
        }
        assert_eq!(coloring.blue_nodes(), vec![1, 2]);
        assert_eq!(cost_value, 21.0); // the Level placement is optimal within Λ
    }

    #[test]
    fn zero_budget_yields_all_red() {
        let tree = fig2_tree();
        let tables = soar_gather(&tree, 0);
        let (coloring, cost_value) = soar_color(&tree, &tables);
        assert_eq!(coloring.n_blue(), 0);
        assert_eq!(cost_value, 51.0);
    }

    #[test]
    fn zero_load_instance_uses_no_blue_nodes() {
        let tree = builders::complete_binary_tree(7); // no load anywhere
        let tables = soar_gather(&tree, 3);
        let (coloring, cost_value) = soar_color(&tree, &tables);
        assert_eq!(cost_value, 0.0);
        assert_eq!(coloring.n_blue(), 0, "no traffic, so no aggregation needed");
    }
}
