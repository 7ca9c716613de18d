//! The 1M-switch end-to-end acceptance test behind the `scale-smoke` CI job.
//!
//! Ignored by default (it gathers a million-switch arena twice and wants a
//! release build); run explicitly with
//!
//! ```text
//! cargo test --release -p soar-core --test scale_1m -- --ignored
//! ```
//!
//! It pins the large-tree contract end to end: a complete 16-ary tree over
//! 10⁶ switches solves gather + color in an arena sized by subtree, a warm
//! second solve is **allocation-free** and agrees bit-for-bit with the first,
//! and the arena stays below the footprint of the layout it replaced.

use soar_core::workspace::SolverWorkspace;
use soar_topology::{builders, Tree};

/// Bytes of the earlier *compressed* layout at budget `k`: uniform `k + 1`
/// columns, `X` for every node, `Y_B`/`Y_R` only for nodes with 2+ children,
/// the ρ prefix block, and `(C(v) − 1) · cells · 2` split entries.
fn compressed_layout_bytes(tree: &Tree, k: usize) -> usize {
    tree.node_ids()
        .map(|v| {
            let rows = tree.dist_to_dest(v) + 1;
            let cells = rows * (k + 1);
            let children = tree.n_children(v);
            let y = if children >= 2 { 2 * cells } else { 0 };
            (cells + y + rows) * 8 + children.saturating_sub(1) * cells * 2 * 4
        })
        .sum()
}

#[test]
#[ignore = "million-switch end-to-end run; release builds only (scale-smoke CI)"]
fn one_million_switch_tree_solves_warm_end_to_end() {
    let mut tree = builders::complete_kary_tree(16, 1_000_000);
    for (i, v) in tree.leaves().collect::<Vec<_>>().into_iter().enumerate() {
        tree.set_load(v, (i % 23 + 1) as u64);
    }
    let mut ws = SolverWorkspace::new();
    let cold = ws.solve(&tree, 16);
    assert!(cold.cost.is_finite() && cold.cost > 0.0);
    assert!(cold.blue_used > 0 && cold.blue_used <= 16);

    let warm = ws.solve(&tree, 16);
    assert_eq!(warm, cold, "warm replay must be bit-identical");
    assert_eq!(ws.last_alloc_events(), 0, "warm 1M solve must not allocate");

    // Capped widths store X and Y_R for every node, and one blue split row
    // per child stage, and undercut the compressed layout, which elided Y
    // for ≤1-child nodes but kept both Y arenas and two splits per cell.
    let bytes = ws.tables().memory_bytes();
    let compressed = compressed_layout_bytes(&tree, 16);
    assert!(
        bytes < compressed,
        "capped arena ({bytes} B) must undercut the compressed layout ({compressed} B)"
    );
}
