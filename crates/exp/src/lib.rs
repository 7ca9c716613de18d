//! # soar-exp
//!
//! The declarative experiment layer of the SOAR reproduction: **spec → run →
//! artifact**.
//!
//! * [`spec`] — [`ExperimentSpec`]: a named, versioned, serde-backed
//!   description of one evaluation experiment (topology/load/rate grids, budget
//!   sweeps, solver sets, explicit seed rules, repetitions). The concrete specs
//!   for every figure of the paper (Figs. 2, 3, 6–11, the ablation, the
//!   gather perf microbench and the sequel-paper fabric experiments) live in
//!   [`registry`]. User-authored spec files may factor shared scenario
//!   fragments out with [`template`]'s `$include` directive.
//! * [`run`] — executes a spec on the unified `soar_core::api` layer
//!   (`solve_batch` / `sweep_budgets_batch` on the `soar-pool` work-stealing
//!   pool, warm per-thread workspaces) and renders the results. Dynamic
//!   scenarios ([`ExperimentKind::DynamicChurn`]) replay churn timelines on
//!   the `soar-online` incremental engine, each epoch verified bit-identical
//!   to a from-scratch solve.
//! * [`artifact`] — [`RunArtifact`]: the persisted JSON outcome (the spec
//!   itself, an environment stamp, chart data, aggregate DP statistics and —
//!   for single solves — raw [`SolveReport`](soar_core::api::SolveReport)s),
//!   plus [`artifact::diff`] for golden-snapshot regression checking within
//!   [`Tolerances`].
//! * [`history`] — artifact **trajectories**: align an ordered series of
//!   artifacts of one spec by chart point ([`history::Trajectory`]), report
//!   per-metric deltas and best-so-far, and gate a new artifact against a
//!   baseline ([`history::check`]) with relative tolerance on wall-clock
//!   metrics and exact tolerance on everything else. This is the CI
//!   perf-regression gate behind `soar history check`.
//! * [`chart`] — [`Chart`] / [`Series`], the render views (CSV and aligned
//!   tables) of an artifact.
//! * [`perf`] — the allocation-free gather microbench behind the
//!   `gather-bench`, `gather-scale` and `obs-bench` specs, persisted in the
//!   same artifact format.
//!
//! The root `soar` CLI (`soar experiment run|list|check`, `soar solve`,
//! `soar sweep`, `soar compare`) is a thin shell over this crate.
//!
//! ```
//! use soar_exp::prelude::*;
//!
//! // Every paper figure is a named, declarative spec...
//! let spec = registry::by_name("fig3", Scale::Quick).unwrap();
//! // ...which runs to a self-describing artifact...
//! let artifact = spec.run();
//! assert_eq!(artifact.charts[0].series[0].y_at(0.0), Some(51.0));
//! assert_eq!(artifact.charts[0].series[0].y_at(4.0), Some(11.0));
//! // ...that diffs cleanly against itself (the golden-snapshot mechanism)...
//! assert!(diff(&artifact, &spec.run(), &Tolerances::default()).is_match());
//! // ...and round-trips through its JSON on-disk format.
//! let reparsed = RunArtifact::from_json(&artifact.to_json()).unwrap();
//! assert_eq!(reparsed, artifact);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod chart;
pub mod history;
pub mod perf;
pub mod registry;
pub mod run;
pub mod spec;
pub mod template;

pub use artifact::{diff, DiffReport, EnvStamp, RunArtifact, Tolerances};
pub use chart::{Chart, Series};
pub use history::{HistoryError, RegressionPolicy, RegressionReport, Trajectory};
pub use spec::{ExperimentKind, ExperimentSpec, Scale, ScenarioSpec, SpecValidationError};
pub use template::TemplateError;

/// One-stop imports for experiment drivers (the CLI, tests).
pub mod prelude {
    pub use crate::artifact::{diff, DiffReport, EnvStamp, RunArtifact, Tolerances};
    pub use crate::chart::{Chart, Series};
    pub use crate::history::{
        HistoryError, MetricKey, MetricTrajectory, Regression, RegressionPolicy, RegressionReport,
        Trajectory,
    };
    pub use crate::registry;
    pub use crate::spec::{
        ExperimentKind, ExperimentSpec, Scale, ScenarioSpec, SpecValidationError,
    };
}
