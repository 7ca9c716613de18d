//! # soar-core
//!
//! An implementation of **SOAR** (SOw-And-Reap), the optimal algorithm of
//! Segal, Avin and Scalosub, *"SOAR: Minimizing Network Utilization with Bounded
//! In-network Computing"* (CoNEXT 2021), for the **Bounded In-network Computing**
//! (φ-BIC) placement problem:
//!
//! > Given a weighted tree network `T = (V, E, ω)`, a network load `L : S → ℕ`, a set
//! > of available switches `Λ ⊆ S`, and a budget `k`, find a set `U ⊆ Λ` of at most `k`
//! > aggregation switches minimizing the utilization complexity
//! > `φ(T, L, U) = Σ_e msg_e(T, L, U) · ρ(e)` of a Reduce operation.
//!
//! ## The Instance / Solver API
//!
//! The recommended entry point is [`api`]: an immutable [`Instance`] bundles the
//! whole problem `(T, L, Λ, k)`, every placement algorithm implements the
//! [`Solver`] trait behind the string-keyed registry [`api::solvers`], and
//! [`api::solve_batch`] / [`api::sweep_budgets`] fan work out across threads while
//! sharing one SOAR-Gather pass across all budgets of a sweep:
//!
//! ```
//! use soar_core::api::{solvers, Instance, Solver, SoarSolver, TopologySpec};
//! use soar_topology::load::LoadSpec;
//!
//! // The paper's motivating example (Fig. 2): leaf loads 2, 6, 5, 4, budget k = 2.
//! let instance = Instance::builder()
//!     .topology(TopologySpec::CompleteKary { arity: 2, n_switches: 7 })
//!     .leaf_loads(LoadSpec::Explicit(vec![2, 6, 5, 4]))
//!     .budget(2)
//!     .build()
//!     .unwrap();
//!
//! let report = SoarSolver.solve(&instance);
//! assert_eq!(report.solution.cost, 20.0);                       // Fig. 2(d)
//! assert_eq!(report.solution.coloring.blue_nodes(), vec![2, 4]); // unique optimum
//!
//! // The intuitive strategies fall short (Figs. 2(a)-(c)).
//! let level = solvers::by_name("level").unwrap().solve(&instance);
//! assert!(level.solution.cost > report.solution.cost);
//!
//! // One gather pass yields the whole cost-vs-budget curve (Fig. 3).
//! let curve = soar_core::api::sweep_budgets(&instance, &[0, 1, 2, 3, 4]);
//! let costs: Vec<f64> = curve.iter().map(|r| r.solution.cost).collect();
//! assert_eq!(costs, vec![51.0, 35.0, 20.0, 15.0, 11.0]);
//! ```
//!
//! ## Algorithm layers
//!
//! The lower-level pieces remain available for callers that want direct control:
//!
//! * [`solve`] / [`solver`] — the end-to-end optimal solver on a bare [`Tree`](soar_topology::Tree)
//!   (`O(n · h(T) · k²)` per Theorem 4.1);
//! * [`gather`] — SOAR-Gather (Algorithm 3), the bottom-up dynamic program over the
//!   parameterized potential function, exposing its tables for inspection;
//! * [`color`] — SOAR-Color (Algorithm 4), the top-down traceback that extracts an
//!   optimal set of blue switches from those tables, visiting only the switches
//!   handed a positive share of the budget (at most `1 + i·h(T)` of them);
//! * [`workspace`] — the reusable [`SolverWorkspace`] (DP arena + scratch) behind
//!   the allocation-free hot path, with per-thread instances used by the API
//!   layer;
//! * [`strategies`] — the contending placements of Sec. 3/5 (`Top`, `Max`, `Level`,
//!   random, greedy, all-red, all-blue) behind a single [`Strategy`] enum;
//! * [`brute`] — an exhaustive oracle used to verify optimality in tests.
//!
//! With the `serde` feature enabled, [`Instance`], [`Solution`] and
//! [`api::SolveReport`] serialize to JSON (via the workspace `serde_json`), so
//! scenarios and bench results can be persisted and replayed.
//!
//! ## Performance notes
//!
//! The gather pass is **allocation-free after warm-up**: all per-switch DP
//! tables live in one flat arena ([`GatherTables`], offsets precomputed from the
//! tree shape, nodes grouped by level), children's `X` tables are borrowed as
//! slices instead of cloned, and the `mCost` ping-pong buffers live in a
//! reusable [`workspace::SolverWorkspace`]. [`api::SoarSolver`] and the sweep
//! entry points run on a per-thread workspace, so batches and sweeps replay warm
//! arenas; [`api::DpStats::alloc_events`] reports 0 for every steady-state
//! solve. Large trees (≥ [`workspace::PARALLEL_GATHER_MIN_SWITCHES`] switches)
//! additionally fill each level's nodes concurrently on the `soar-pool`
//! work-stealing pool — children are finalized before parents by construction,
//! and the result is bit-identical to the sequential pass.
//!
//! Measured on the `BT(n)` power-law instances of the `gather` microbench
//! (`soar experiment run gather-bench`, `k = 16`, one
//! 2.x GHz core), against the pre-arena implementation that cloned children's
//! tables and allocated four scratch buffers per node:
//!
//! | switches | before (clone + per-node alloc) | fresh arena | warm workspace |
//! |---------:|--------------------------------:|------------:|---------------:|
//! |    1 023 |                         4.35 ms |     3.76 ms |    **2.08 ms** |
//! |    4 095 |                        20.10 ms |    18.28 ms |   **10.48 ms** |
//! |   16 383 |                       125.99 ms |   101.83 ms |   **51.45 ms** |
//!
//! The warm-workspace path — the steady state of every batch, sweep and
//! repeated solve — is **~2× faster** end to end, with zero heap allocations
//! per gather (verified by the `alloc_events` stat and the `bench-smoke` CI
//! job, which fails if a warm pass ever allocates again).
//!
//! The `mCost` inner loop runs one exact kernel, [`node_dp::DpKernel::Pruned`]:
//! DP rows are non-increasing in the item index, so the effective row width
//! and a tail early-exit bound the arg-min split scan without ever changing a
//! value *or* a recorded split. The textbook double loop stays as
//! [`node_dp::DpKernel::Scalar`], the oracle that the `kernel_identity`
//! property tests compare the pruned kernel against, bit for bit, across
//! adversarial shapes, budgets and incremental updates (tests pick it with
//! [`workspace::SolverWorkspace::set_kernel`]). [`api::DpStats::pruned_splits`]
//! reports the candidates the pruning skipped. The committed `gather-bench`
//! and `gather-scale` baselines time the warm pass at `k = 16`: 4.1 ms on
//! `BT(4095)`, 19.9 ms on `BT(16383)` and 96 ms on a 100k-switch 16-ary tree.
//!
//! The arena is sized by subtree, not by budget: node `v` stores
//! `min(k, s_v) + 1` columns, where `s_v` is the number of switches below it
//! (a subtree cannot hold more blue nodes than switches, and every row is
//! bitwise constant from `i = s_v` on, so reads past the last column clamp to
//! it without changing any value, split or coloring — see [`tables`]). On
//! `BT(4096)` at `k = 16` that is 223,232 cells instead of 835,584; a
//! 100k-switch complete 16-ary tree at `k = 16` needs 114 MB and a
//! million-switch one 1.28 GB, and both stay allocation-free when warm (the
//! `scale-smoke` CI job gates the 100k point, and the ignored `scale_1m`
//! test runs the 1M case end to end). No budget, however large, can make a
//! table wider than `n + 1` columns. After a big solve the workspace gives
//! the memory back: arenas past [`workspace::SHRINK_BIG_BYTES`] are
//! truncated to the live size once they sit idle for
//! [`workspace::SHRINK_BIG_AFTER_PASSES`] smaller passes.
//!
//! For *dynamic* workloads the workspace additionally supports **incremental
//! updates**: [`workspace::SolverWorkspace::gather_update`] refills only an
//! ancestor-closed set of dirty nodes (a localized change invalidates only
//! root-to-leaf paths of the tree DP), bit-identical to a from-scratch gather,
//! and SOAR-Color streams through the workspace's reusable coloring
//! ([`workspace::SolverWorkspace::trace_best`]). The `soar-online` crate
//! builds its epoch loop on exactly these two entry points;
//! [`api::DpStats::cells_written`] reports the per-pass gather work and
//! [`workspace::SolverWorkspace::last_nodes_traced`] the traceback's.
//!
//! [`Instance`]: api::Instance
//! [`Solver`]: api::Solver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod brute;
pub mod color;
pub mod gather;
pub mod node_dp;
pub mod solver;
pub mod strategies;
pub mod tables;
pub mod workspace;

pub use api::{
    solve_batch, solve_matrix, sweep_budgets, sweep_budgets_batch, BruteForceSolver, Instance,
    InstanceBuilder, SoarSolver, SolveReport, Solver, StrategySolver, TopologySpec,
};
pub use brute::brute_force;
pub use color::{soar_color, soar_color_exact};
pub use gather::soar_gather;
pub use node_dp::DpKernel;
pub use solver::{solutions_for_all_budgets, solve, solve_with_tables, Solution};
pub use strategies::Strategy;
pub use tables::{Color, GatherTables, NodeTableView};
pub use workspace::SolverWorkspace;

/// Convenient prelude re-exporting the most commonly used items.
pub mod prelude {
    pub use crate::api::{
        solve_batch, solve_matrix, solvers, sweep_budgets, sweep_budgets_batch, Instance,
        SoarSolver, SolveReport, Solver, StrategySolver, TopologySpec,
    };
    pub use crate::strategies::Strategy;
    pub use crate::{brute_force, soar_color, soar_gather, solve, Solution};
    pub use soar_reduce::{cost, Coloring};
    pub use soar_topology::prelude::*;
}
