//! # soar
//!
//! Facade crate for the SOAR reproduction (Segal, Avin, Scalosub — *"SOAR: Minimizing
//! Network Utilization with Bounded In-network Computing"*, CoNEXT 2021).
//!
//! It re-exports the workspace crates under one roof so applications can depend
//! on a single package:
//!
//! * [`topology`] — tree networks, loads, link rates, topology generators;
//! * [`reduce`] — the Reduce cost model (utilization, messages, bytes) and a
//!   packet-level simulator;
//! * [`core`] — the unified [`Instance`](core::api::Instance) /
//!   [`Solver`](core::api::Solver) API, the SOAR algorithm, the contending
//!   placement strategies and a brute-force oracle;
//! * [`apps`] — the word-count (WC) and parameter-server (PS) workload models;
//! * [`multitenant`] — the online multi-workload allocation scenario and the
//!   churn-timeline generators;
//! * [`online`] — the incremental re-optimization engine for dynamic
//!   workloads ([`DynamicInstance`](online::DynamicInstance) +
//!   [`OnlineDriver`](online::OnlineDriver): epoch re-solves refill only the
//!   dirty root-to-leaf paths of the DP, bit-identical to a full solve);
//! * [`dataplane`] — the distributed message-passing prototype;
//! * [`serve`] — the long-running `soar serve` daemon: resident per-tenant
//!   [`DynamicInstance`](online::DynamicInstance)s behind a length-prefixed
//!   binary protocol, with admission control that sheds under overload;
//! * [`loadtest`] — the churn-synthesizing client harness reporting sustained
//!   events/sec and latency percentiles as gated `BENCH_serve.json` artifacts;
//! * [`fabric`] — congestion-constrained placement on multi-root datacenter
//!   fabrics (the 2022 sequel paper): [`FabricSpec`](fabric::FabricSpec) →
//!   [`FabricInstance`](fabric::FabricInstance), the exact
//!   [`DecomposeSolver`](fabric::DecomposeSolver) (per-tree arena DP +
//!   knapsack composition) and an exhaustive small-size oracle;
//! * [`pool`] — the std-only work-stealing thread pool behind the batch entry
//!   points and the level-parallel gather;
//! * [`obs`] — structured tracing and metrics: per-thread span rings drained
//!   into Chrome `trace_event` JSON (`soar trace`, Perfetto-loadable) and a
//!   process-wide counter/gauge registry exposed in Prometheus text format
//!   (`soar serve --obs-addr`);
//! * [`exp`] — the declarative experiment layer
//!   ([`ExperimentSpec`](exp::ExperimentSpec) → [`RunArtifact`](exp::RunArtifact)
//!   with golden-snapshot diffing) behind the `soar` CLI binary.
//!
//! The package also ships the `soar` CLI (`cargo run --bin soar -- --help`):
//! `solve` / `sweep` / `compare` over serialized
//! [`Instance`](core::api::Instance) JSON, and `experiment run|list|check` for
//! the declarative figure pipeline.
//!
//! The recommended workflow describes a whole φ-BIC scenario `(T, L, Λ, k)` as one
//! immutable [`Instance`](core::api::Instance) and hands it to any registered
//! [`Solver`](core::api::Solver); see `soar::core::api` for batch and budget-sweep
//! entry points that fan out across threads.
//!
//! ```
//! use soar::prelude::*;
//!
//! // The paper's motivating example (Fig. 2) as a first-class instance.
//! let instance = Instance::builder()
//!     .topology(TopologySpec::CompleteKary { arity: 2, n_switches: 7 })
//!     .leaf_loads(LoadSpec::Explicit(vec![2, 6, 5, 4]))
//!     .budget(2)
//!     .build()
//!     .unwrap();
//! let report = SoarSolver.solve(&instance);
//! assert_eq!(report.solution.cost, 20.0);
//!
//! // The classic tree-first entry points still work.
//! let solution = soar::core::solve(instance.tree(), 2);
//! assert_eq!(solution.cost, 20.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use soar_apps as apps;
pub use soar_core as core;
pub use soar_dataplane as dataplane;
pub use soar_exp as exp;
pub use soar_fabric as fabric;
pub use soar_loadtest as loadtest;
pub use soar_multitenant as multitenant;
pub use soar_obs as obs;
pub use soar_online as online;
pub use soar_pool as pool;
pub use soar_reduce as reduce;
pub use soar_serve as serve;
pub use soar_topology as topology;

/// One-stop prelude for examples and applications.
pub mod prelude {
    pub use soar_core::api::{
        solve_batch, solve_matrix, solvers, sweep_budgets, sweep_budgets_batch, Instance,
        SoarSolver, SolveReport, Solver, StrategySolver, TopologySpec,
    };
    pub use soar_core::prelude::*;
    pub use soar_core::Strategy;
    pub use soar_reduce::{cost, Coloring};
    pub use soar_topology::builders;
    pub use soar_topology::load::{LoadPlacement, LoadSpec};
    pub use soar_topology::rates::RateScheme;
    pub use soar_topology::{Tree, TreeBuilder};
}
