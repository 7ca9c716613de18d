//! # soar-dataplane
//!
//! A distributed, message-passing prototype of SOAR and of the Reduce dataplane it
//! optimizes.
//!
//! The paper describes SOAR-Gather and SOAR-Color as *distributed, asynchronous*
//! algorithms (Sec. 4.2): information flows strictly along tree links — children push
//! their DP tables upward, the destination hands the budget to the root, and coloring
//! decisions cascade back down, after which the Reduce itself runs over the same
//! fabric. This crate realises that description with:
//!
//! * [`wire`] — a compact length-checked frame codec (built on [`bytes`]) for the three
//!   message families (gather tables, coloring assignments, reduce data / end-of-stream);
//! * [`actor`] — the per-switch state machine, which runs the centralized solver's
//!   per-node steps ([`soar_core::node_dp::fill_node`] and
//!   [`soar_core::node_dp::color_step`]) on tables of the solver's widths, so every
//!   switch's table is bit-identical to the solver's (the `actor_tables` test);
//! * [`runtime`] — two executors: a deterministic single-threaded one
//!   ([`runtime::run_inline`]) and a thread-per-switch one over std::sync::mpsc channels
//!   ([`runtime::run_threaded`]).
//!
//! The integration tests cross-check the dataplane against the centralized solver
//! (identical utilization) and against the closed-form message accounting of
//! `soar-reduce` (identical per-link Reduce message counts), and verify that the
//! destination receives the exact aggregate of every worker's contribution.
//!
//! ```
//! use soar_dataplane::runtime::run_inline;
//! use soar_topology::builders;
//!
//! let mut tree = builders::complete_binary_tree(7);
//! for (leaf, load) in [(3, 2), (4, 6), (5, 5), (6, 4)] {
//!     tree.set_load(leaf, load);
//! }
//! let report = run_inline(&tree, 2);
//! assert_eq!(report.claimed_cost, 20.0);       // the Fig. 2(d) optimum
//! assert_eq!(report.coloring.blue_nodes(), vec![2, 4]);
//! assert_eq!(report.destination_contributors, 17);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod actor;
pub mod framing;
pub mod runtime;
pub mod wire;

pub use actor::{ActorStats, SwitchActor};
pub use framing::{append_frame, read_frame, write_frame, FramingError, MAX_FRAME_LEN};
pub use runtime::{run_inline, run_threaded, DataplaneReport, DistributedSoarSolver};
pub use wire::{Frame, WireError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::expected_total;
    use rand::SeedableRng;
    use soar_reduce::cost;
    use soar_topology::{builders, load::LoadSpec, Tree};

    fn fig2_tree() -> Tree {
        let mut t = builders::complete_binary_tree(7);
        t.set_load(3, 2);
        t.set_load(4, 6);
        t.set_load(5, 5);
        t.set_load(6, 4);
        t
    }

    fn assert_report_consistent(tree: &Tree, k: usize, report: &DataplaneReport) {
        // The distributed protocol reaches the same optimum as the centralized solver.
        let centralized = soar_core::solve(tree, k);
        assert!(
            (report.claimed_cost - centralized.cost).abs() < 1e-9,
            "distributed cost {} vs centralized {}",
            report.claimed_cost,
            centralized.cost
        );
        assert_eq!(report.coloring, centralized.coloring);
        let achieved = cost::phi(tree, &report.coloring);
        assert!(
            (achieved - centralized.cost).abs() < 1e-9,
            "the distributed coloring must achieve the optimum"
        );
        assert!(report.blue_used <= k);
        // The Reduce dataplane transports exactly the messages the closed form predicts.
        assert_eq!(
            report.per_edge_data_messages,
            cost::msg_counts(tree, &report.coloring)
        );
        // No worker report is lost or double counted.
        assert_eq!(report.destination_sum, expected_total(tree));
        assert_eq!(report.destination_contributors, tree.total_load());
        assert!(report.total_wire_bytes > 0);
    }

    #[test]
    fn inline_runtime_matches_centralized_solver_on_fig2() {
        let tree = fig2_tree();
        for k in 0..=4 {
            let report = run_inline(&tree, k);
            assert_report_consistent(&tree, k, &report);
        }
    }

    #[test]
    fn threaded_runtime_matches_centralized_solver_on_fig2() {
        let tree = fig2_tree();
        for k in [0usize, 2, 4] {
            let report = run_threaded(&tree, k);
            assert_report_consistent(&tree, k, &report);
        }
    }

    #[test]
    fn inline_and_threaded_agree_on_bt64_with_random_loads() {
        let mut tree = builders::complete_binary_tree_bt(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        tree.apply_leaf_loads(&LoadSpec::paper_power_law(), &mut rng);
        tree.apply_rates(&soar_topology::rates::RateScheme::paper_linear());
        for k in [1usize, 4, 8] {
            let inline = run_inline(&tree, k);
            let threaded = run_threaded(&tree, k);
            assert_report_consistent(&tree, k, &inline);
            assert_report_consistent(&tree, k, &threaded);
            assert!((inline.claimed_cost - threaded.claimed_cost).abs() < 1e-9);
            assert_eq!(inline.coloring, threaded.coloring);
            assert_eq!(
                inline.per_edge_data_messages,
                threaded.per_edge_data_messages
            );
        }
    }

    #[test]
    fn scale_free_topology_with_unit_loads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut tree = builders::scale_free_tree_sf(64, &mut rng);
        for v in 0..tree.n_switches() {
            tree.set_load(v, 1);
        }
        let report = run_inline(&tree, 5);
        assert_report_consistent(&tree, 5, &report);
    }

    #[test]
    fn empty_workload_still_terminates() {
        let tree = builders::complete_binary_tree(7);
        let report = run_inline(&tree, 2);
        assert_eq!(report.destination_sum, 0);
        assert_eq!(report.destination_contributors, 0);
        assert_eq!(report.claimed_cost, 0.0);
        // No blue nodes are needed when there is no traffic.
        assert_eq!(report.blue_used, 0);
    }

    #[test]
    fn availability_restrictions_flow_through_the_dataplane() {
        let mut tree = fig2_tree();
        for v in [0usize, 3, 4, 5, 6] {
            tree.set_available(v, false);
        }
        let report = run_inline(&tree, 2);
        assert_eq!(report.coloring.blue_nodes(), vec![1, 2]);
        assert_eq!(report.claimed_cost, 21.0);
    }

    #[test]
    fn wire_bytes_grow_with_budget() {
        // Larger budgets mean wider DP tables on the wire. They also mean fewer
        // Reduce messages, so count the bytes outside the 17-byte Data frames:
        // per switch, one XTable (a 21-byte header and 8 bytes per cell of the
        // solver's table) and one 5-byte Eos.
        let tree = fig2_tree();
        let control_bytes = |k: usize| {
            let report = run_inline(&tree, k);
            report.total_wire_bytes - 17 * report.per_edge_data_messages.iter().sum::<u64>()
        };
        let (small, large) = (control_bytes(1), control_bytes(6));
        assert!(large > small);
        for (k, bytes) in [(1, small), (6, large)] {
            let cells = soar_core::soar_gather(&tree, k).table_cells();
            assert_eq!(
                bytes,
                (26 * tree.n_switches() + 8 * cells) as u64,
                "k = {k}"
            );
        }
    }
}
