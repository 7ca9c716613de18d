//! Declarative experiment specifications.
//!
//! An [`ExperimentSpec`] is a named, versioned, fully self-contained description
//! of one evaluation experiment: which scenarios to build (topology / load /
//! rate grids), which solvers to run, which budgets to sweep, and — crucially —
//! the explicit seed rules for every random draw, so a spec re-run anywhere
//! reproduces the same numbers. Specs serialize to JSON, which is what the
//! `soar experiment` CLI subcommands read and write.
//!
//! The concrete per-figure specs of the paper live in [`crate::registry`];
//! running a spec ([`ExperimentSpec::run`]) produces a
//! [`RunArtifact`](crate::artifact::RunArtifact).

use serde::{Deserialize, Serialize};
use soar_core::api::{Instance, TopologySpec};
use soar_fabric::FabricSpec;
use soar_multitenant::churn::ChurnModel;
use soar_topology::load::{LoadPlacement, LoadSpec};
use soar_topology::rates::RateScheme;

/// Version stamp of the spec/artifact schema; bumped on incompatible changes so
/// [`diff`](crate::artifact::diff) can refuse to compare apples to oranges.
pub const SPEC_VERSION: u32 = 1;

/// Instance sizing: the quick sizes used by CI and `cargo test`, or the paper's
/// full evaluation sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// Shrunken instances; the full suite finishes in well under a minute.
    Quick,
    /// The instance sizes reported in the paper (Sec. 5 and the appendices).
    Paper,
}

/// One declarative scenario: a topology plus optional loads and rates.
///
/// Building an [`Instance`] additionally takes a seed (scenarios inside a spec
/// are re-drawn per repetition with seeds derived from the spec's seed rule) and
/// a budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// The topology family and size.
    pub topology: TopologySpec,
    /// Load distribution, if any load is to be placed.
    pub load: Option<LoadSpec>,
    /// Where the load goes (required when `load` is set; defaults to leaves).
    #[serde(default)]
    pub placement: Option<LoadPlacement>,
    /// Link-rate scheme (unit rates when absent).
    pub rates: Option<RateScheme>,
    /// Base seed for the scenario's random draws.
    pub seed: u64,
}

impl ScenarioSpec {
    /// A `BT(n)` scenario with the given leaf loads and rates (the Sec. 5 shape).
    pub fn bt(n: usize, load: LoadSpec, rates: RateScheme, seed: u64) -> Self {
        ScenarioSpec {
            topology: TopologySpec::CompleteBinaryBt { n },
            load: Some(load),
            placement: Some(LoadPlacement::Leaves),
            rates: Some(rates),
            seed,
        }
    }

    /// An `SF(n)` scenario with unit load on every switch (the Appendix B shape).
    pub fn sf(n: usize, seed: u64) -> Self {
        ScenarioSpec {
            topology: TopologySpec::ScaleFreeSf { n },
            load: Some(LoadSpec::Constant(1)),
            placement: Some(LoadPlacement::AllSwitches),
            rates: None,
            seed,
        }
    }

    /// Materializes an [`Instance`] with this scenario's own seed.
    pub fn instance(&self, budget: usize) -> Instance {
        self.instance_seeded(self.seed, budget)
    }

    /// Materializes an [`Instance`], overriding the seed (used by repetition
    /// loops, which derive per-repetition seeds from the spec's seed rule).
    pub fn instance_seeded(&self, seed: u64, budget: usize) -> Instance {
        let mut builder = Instance::builder()
            .topology(self.topology.clone())
            .seed(seed)
            .budget(budget);
        if let Some(load) = &self.load {
            let placement = self.placement.unwrap_or(LoadPlacement::Leaves);
            builder = builder.loads(load.clone(), placement);
        }
        if let Some(rates) = &self.rates {
            builder = builder.rates(rates.clone());
        }
        builder
            .build()
            .expect("scenario specs describe well-formed instances")
    }
}

/// One cell of a [`ExperimentKind::StrategyGrid`]: a chart title plus the load /
/// rate pair drawn for every instance of the cell (the topology and budgets are
/// shared across the grid).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridCell {
    /// Title of the chart this cell renders to.
    pub title: String,
    /// Leaf-load distribution of the cell.
    pub load: LoadSpec,
    /// Link-rate scheme of the cell.
    pub rates: RateScheme,
}

/// The WC / PS use cases of Fig. 8, as serializable names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UseCaseSpec {
    /// The word-count use case.
    WordCount,
    /// The ML parameter-server use case.
    ParameterServer,
}

impl UseCaseSpec {
    /// The concrete workload model.
    pub fn use_case(&self) -> soar_apps::UseCase {
        match self {
            UseCaseSpec::WordCount => soar_apps::UseCase::word_count_default(),
            UseCaseSpec::ParameterServer => soar_apps::UseCase::parameter_server_default(),
        }
    }
}

/// One series of a [`ExperimentKind::UseCaseBytes`] experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ByteSeriesSpec {
    /// Legend label (e.g. "WC-uniform").
    pub label: String,
    /// Leaf-load distribution of the series' instances.
    pub load: LoadSpec,
    /// The application use case measured.
    pub use_case: UseCaseSpec,
}

/// The sweep axis of one [`ExperimentKind::OnlineMultitenant`] cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OnlineSweep {
    /// Sweep the number of arriving workloads at a fixed per-switch capacity.
    Workloads {
        /// The workload counts on the x axis.
        counts: Vec<usize>,
        /// The fixed per-switch workload capacity.
        capacity: u32,
    },
    /// Sweep the per-switch capacity at a fixed number of workloads.
    Capacity {
        /// The capacities on the x axis.
        capacities: Vec<u32>,
        /// The fixed number of arriving workloads.
        workloads: usize,
    },
}

/// One chart of a [`ExperimentKind::OnlineMultitenant`] experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineCell {
    /// Title of the chart this cell renders to.
    pub title: String,
    /// Link-rate scheme applied to the shared base topology.
    pub rates: RateScheme,
    /// What the cell sweeps.
    pub sweep: OnlineSweep,
    /// Seed stride: workload sequence `rep` at x value `x` is drawn with seed
    /// `rep * seed_stride + x`.
    pub seed_stride: u64,
}

/// The instance family of a [`ExperimentKind::ScalingBudgets`] experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScalingFamily {
    /// `BT(n)` with power-law leaf loads and constant rates (Fig. 10a).
    BtPowerLaw,
    /// `SF(n)` with unit loads (Fig. 11c).
    SfUnit,
}

impl ScalingFamily {
    /// Builds one instance of the family (`budget` is the gather budget).
    pub fn instance(&self, n: usize, seed: u64, budget: usize) -> Instance {
        let scenario = match self {
            ScalingFamily::BtPowerLaw => ScenarioSpec::bt(
                n,
                LoadSpec::paper_power_law(),
                RateScheme::paper_constant(),
                seed,
            ),
            ScalingFamily::SfUnit => ScenarioSpec::sf(n, seed),
        };
        scenario.instance(budget)
    }
}

/// The executable body of an experiment. Each variant maps onto one family of
/// the paper's figures; the runner for every variant lives in [`crate::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentKind {
    /// A fixed scenario solved by several solvers at one budget, plotting raw
    /// utilization (Figs. 2 and 11a).
    SolverComparison {
        /// Chart title.
        title: String,
        /// The single scenario.
        scenario: ScenarioSpec,
        /// The budget `k`.
        budget: usize,
        /// Registry names of the solvers, in legend order.
        solvers: Vec<String>,
        /// Append an "All red" baseline series at the instance's all-red cost.
        include_all_red: bool,
    },
    /// The optimal cost-vs-budget curve of one scenario, from a single
    /// SOAR-Gather pass (Fig. 3).
    BudgetCurve {
        /// Chart title.
        title: String,
        /// The single scenario.
        scenario: ScenarioSpec,
        /// The budgets on the x axis.
        budgets: Vec<usize>,
        /// Legend label of the curve.
        series_label: String,
    },
    /// Budgets × solvers on a grid of (load, rates) cells over `BT(n)`, plotting
    /// mean normalized utilization (Fig. 6 and the ablation).
    StrategyGrid {
        /// The `BT(n)` size shared by every cell.
        n: usize,
        /// One chart per cell.
        cells: Vec<GridCell>,
        /// The budgets on the x axis.
        budgets: Vec<usize>,
        /// Registry names of the solvers, in legend order.
        solvers: Vec<String>,
        /// Instance seed for repetition `rep` at budget `k` is
        /// `rep * seed_stride + k`.
        seed_stride: u64,
        /// Reseed randomized solvers with the repetition index (the ablation's
        /// random baseline); `false` keeps the fixed default solver seed.
        per_rep_solver_seed: bool,
        /// Prepend measured "All blue" and constant "All red" baseline series.
        include_baselines: bool,
    },
    /// The online multi-workload scenario (Fig. 7).
    OnlineMultitenant {
        /// The `BT(n)` size of the shared base topology.
        n: usize,
        /// The aggregation budget `k` given to every allocator.
        budget: usize,
        /// Registry names of the placement solvers, in legend order.
        solvers: Vec<String>,
        /// One chart per cell.
        cells: Vec<OnlineCell>,
    },
    /// The WC / PS byte-volume experiment (Fig. 8): three charts (utilization,
    /// bytes vs all-red, bytes vs all-blue) sharing one budget axis.
    UseCaseBytes {
        /// The `BT(n)` size.
        n: usize,
        /// The budgets on the x axis.
        budgets: Vec<usize>,
        /// Instance seed for repetition `rep` at budget `k` is
        /// `rep * seed_stride + k`.
        seed_stride: u64,
        /// Link-rate scheme of every instance.
        rates: RateScheme,
        /// Titles of the three charts, in order (utilization, vs-red, vs-blue).
        titles: Vec<String>,
        /// The plotted series.
        series: Vec<ByteSeriesSpec>,
    },
    /// SOAR wall-clock solve time for growing sizes and budgets (Fig. 9).
    /// The resulting chart is a *timing* chart: goldens compare it structurally,
    /// not value for value.
    SolveTime {
        /// Chart title.
        title: String,
        /// Tree sizes (one series each).
        sizes: Vec<usize>,
        /// The budgets on the x axis.
        budgets: Vec<usize>,
        /// Instance seed for repetition `rep` at size `n` is
        /// `rep * seed_stride + n`.
        seed_stride: u64,
    },
    /// Normalized utilization of the scaling budgets `{1 % n, log₂ n, √n}` on
    /// growing instances (Figs. 10a and 11c), one sweep per instance.
    ScalingBudgets {
        /// Chart title.
        title: String,
        /// The instance family.
        family: ScalingFamily,
        /// Sizes are `2^exp` for each exponent.
        exponents: Vec<u32>,
        /// Instance seed for repetition `rep` at exponent `exp` is
        /// `rep * seed_stride + exp`.
        seed_stride: u64,
    },
    /// The smallest blue fraction reaching a target utilization saving
    /// (Fig. 10b).
    RequiredFraction {
        /// Chart title.
        title: String,
        /// Sizes are `2^exp` for each exponent.
        exponents: Vec<u32>,
        /// The savings targets (fractions of the all-red cost).
        targets: Vec<f64>,
        /// Budgets are searched up to `search_fraction · n`.
        search_fraction: f64,
        /// Instance seed for repetition `rep` at exponent `exp` is
        /// `rep * seed_stride + exp`.
        seed_stride: u64,
    },
    /// The allocation-free gather microbench (`gather-bench`, `gather-scale`): fresh
    /// vs warm-workspace wall times, warm allocation events and peak arena
    /// footprint per tree size. Wall-time charts are *timing* charts.
    GatherMicrobench {
        /// Tree sizes in switches.
        sizes: Vec<usize>,
        /// The gather budget.
        budget: usize,
        /// Tree shape: `None` is the paper's `BT(n)` binary shape; `Some(a)`
        /// is a complete `a`-ary tree (the shallow, wide shape of the
        /// large-scale `gather-scale` runs, where a 1M-switch tree stays a
        /// handful of levels deep).
        #[serde(default, skip_serializing_if = "Option::is_none")]
        arity: Option<usize>,
    },
    /// The tracing-overhead microbench (`obs-bench`): the
    /// same warm gather timed with span tracing disabled vs enabled (spans
    /// recorded into per-thread rings, never drained — the steady state of a
    /// daemon whose `/metrics` endpoint is scraped occasionally). Both charts
    /// are *timing* charts; the `scale-smoke` CI gate asserts the
    /// enabled/disabled overhead stays under its budget.
    ObsBench {
        /// Tree sizes in switches.
        sizes: Vec<usize>,
        /// The gather budget.
        budget: usize,
    },
    /// A dynamic-workload scenario replayed by the `soar-online` incremental
    /// re-optimization engine: a base snapshot plus a seeded churn timeline,
    /// re-solved epoch by epoch (each epoch verified bit-identical to a
    /// from-scratch solve). Charts the placement trajectory: cost over time,
    /// placement moves per epoch, and DP cell writes incremental
    /// vs from-scratch. All values are deterministic — goldens diff exactly.
    DynamicChurn {
        /// Chart-title prefix.
        title: String,
        /// The base snapshot the churn starts from.
        scenario: ScenarioSpec,
        /// The starting aggregation budget `k`.
        budget: usize,
        /// Number of epochs replayed.
        epochs: usize,
        /// The churn model generating the timeline.
        model: ChurnModel,
        /// Timeline/instance seed for repetition `rep` is
        /// `base_seed + rep * seed_stride` (plus the scenario seed for the
        /// instance draw).
        seed_stride: u64,
    },
    /// One congestion-constrained fabric scenario (the 2022 sequel paper)
    /// solved by the registered fabric solvers, charting the normalized
    /// fabric objective and the core up-link congestion. Repetition `rep`
    /// redraws the loads with seed `base_seed + rep * seed_stride` added to
    /// the fabric's own seed.
    FabricSolve {
        /// Chart-title prefix.
        title: String,
        /// The fabric scenario (topology, loads, rates, `k`, `c`, γ).
        fabric: FabricSpec,
        /// Registry names of the fabric solvers (see `soar_fabric::solvers`),
        /// in legend order.
        solvers: Vec<String>,
        /// Per-repetition seed stride of the load redraws.
        seed_stride: u64,
    },
    /// Sweep of the per-core congestion bound `c` over a fixed fabric,
    /// charting how tightening the bound trades fabric cost against core
    /// congestion (the sequel paper's central tension). Solved by the exact
    /// `fabric-soar` decomposition at every bound.
    FabricCongestionSweep {
        /// Chart-title prefix.
        title: String,
        /// The fabric scenario; its own `congestion_bound` is overridden by
        /// each x value of the sweep.
        fabric: FabricSpec,
        /// The congestion bounds on the x axis (each must be ≥ 1).
        bounds: Vec<usize>,
        /// Per-repetition seed stride of the load redraws.
        seed_stride: u64,
    },
    /// Provenance record of a `soar loadtest` run against a `soar serve`
    /// daemon (the `BENCH_serve.json` artifact). Like [`Self::Adhoc`] it is
    /// **not re-runnable** through `experiment run` — the loadtest harness
    /// produces it and `soar history check` gates it; the spec fields record
    /// the load shape so baselines only compare like with like.
    ServeBench {
        /// Service tenants registered (each one resident `DynamicInstance`).
        tenants: u64,
        /// `BT(n)` size parameter of every tenant's tree.
        switches: u32,
        /// Aggregation budget `k` per tenant.
        budget: u32,
        /// Concurrent client connections.
        connections: usize,
        /// In-flight request window per connection (closed loop).
        window: usize,
        /// Churn events per request batch.
        events_per_batch: usize,
        /// A solve interleaved after every N churn batches (0 = never).
        solve_every: u64,
        /// Total churn batches sent across all tenants.
        batches: u64,
        /// Open-loop target events/sec (0 = closed-loop).
        rate: f64,
    },
    /// Provenance of a `soar loadtest --chaos` resilience run: fault-injected
    /// churn against a live (possibly killed-and-recovered) daemon. Like
    /// [`ExperimentKind::ServeBench`] it is **not re-runnable** through
    /// `experiment run`; the spec records the load and fault mix so the
    /// `BENCH_chaos.json` baseline only compares like with like.
    ChaosBench {
        /// Service tenants registered.
        tenants: u64,
        /// `BT(n)` size parameter of every tenant's tree.
        switches: u32,
        /// Aggregation budget `k` per tenant.
        budget: u32,
        /// Concurrent client connections.
        connections: usize,
        /// Churn events per request batch.
        events_per_batch: usize,
        /// Total churn batches generated across all tenants.
        batches: u64,
        /// Injection probability: close the connection before sending.
        drop_before_send: f64,
        /// Injection probability: send, then close before reading the ack.
        drop_after_send: f64,
        /// Injection probability: write a torn frame, then close.
        kill_mid_frame: f64,
        /// Injection probability: send an undecodable payload first.
        malformed_frame: f64,
        /// Injection probability: stall before reading the response.
        stall: f64,
    },
    /// Provenance record of a CLI run over an explicit serialized `Instance`
    /// (`soar solve` / `sweep` / `compare`). The instance itself is not
    /// reconstructible from the spec — the artifact's reports and charts carry
    /// the outcome — so ad-hoc specs are **not re-runnable**.
    Adhoc {
        /// The CLI subcommand that produced the artifact.
        command: String,
        /// Label of the instance operated on.
        instance: String,
        /// Registry names of the solvers involved.
        solvers: Vec<String>,
        /// The budgets involved.
        budgets: Vec<usize>,
    },
}

/// A named, versioned, declarative experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Registry name (e.g. "fig6"); also the artifact's file stem.
    pub name: String,
    /// One-line human description.
    pub title: String,
    /// Schema version ([`SPEC_VERSION`]).
    pub version: u32,
    /// Number of random repetitions averaged per point.
    pub repetitions: u64,
    /// Base seed added to every derived instance seed (0 for the paper specs).
    #[serde(default)]
    pub base_seed: u64,
    /// The executable body.
    pub kind: ExperimentKind,
}

impl ExperimentSpec {
    /// Wraps a kind with the given name/title and the defaults shared by the
    /// paper specs (version [`SPEC_VERSION`], base seed 0).
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        repetitions: u64,
        kind: ExperimentKind,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            title: title.into(),
            version: SPEC_VERSION,
            repetitions,
            base_seed: 0,
            kind,
        }
    }

    /// Indices (into the artifact's chart list) of wall-clock timing charts,
    /// which golden diffs compare structurally rather than value for value.
    pub fn timing_chart_indices(&self) -> Vec<usize> {
        match &self.kind {
            ExperimentKind::SolveTime { .. } => vec![0],
            // Chart 0 of the microbench is the fresh/warm wall-time chart.
            ExperimentKind::GatherMicrobench { .. } => vec![0],
            // Chart 0 (wall times) and chart 1 (overhead ratio) are both
            // wall-clock derived.
            ExperimentKind::ObsBench { .. } => vec![0, 1],
            // Charts 0 (latency percentiles) and 1 (ns per churn event) are
            // wall-clock; chart 2 (sheds/errors) diffs exactly.
            ExperimentKind::ServeBench { .. } => vec![0, 1],
            // Charts 0 (latency) and 1 (ns/event + recovery replay) are
            // wall-clock; chart 2 (lost/unaccounted batches) diffs exactly.
            ExperimentKind::ChaosBench { .. } => vec![0, 1],
            _ => Vec::new(),
        }
    }

    /// Validates the spec before running it, collecting **every** problem rather
    /// than stopping at the first: unknown solver names, empty grids, seed
    /// strides that would alias repetitions, schema-version mismatches and
    /// degenerate scenario sizes all come back as one actionable error.
    ///
    /// The registry specs always validate; the check exists for user-authored
    /// spec files (`soar experiment run path/to/spec.json`), where a typo should
    /// fail fast with a message naming the field instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), SpecValidationError> {
        let mut problems = Vec::new();
        if self.name.trim().is_empty() {
            problems.push("spec name is empty".to_owned());
        } else if self.name.contains('/') || self.name.contains('\\') || self.name.contains("..") {
            // The name becomes the artifact's file stem; a separator would let a
            // spec document write outside the chosen --out-dir.
            problems.push(format!(
                "spec name `{}` must not contain path separators or `..` \
                 (it becomes the artifact file name)",
                self.name
            ));
        }
        if self.version != SPEC_VERSION {
            problems.push(format!(
                "spec version {} does not match this binary's schema version {SPEC_VERSION}",
                self.version
            ));
        }
        if self.repetitions == 0 {
            problems.push("repetitions must be at least 1".to_owned());
        }
        self.kind.collect_problems(self.repetitions, &mut problems);
        if problems.is_empty() {
            Ok(())
        } else {
            Err(SpecValidationError { problems })
        }
    }
}

/// A failed [`ExperimentSpec::validate`]: one actionable message per problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecValidationError {
    /// Every problem found, in field order.
    pub problems: Vec<String>,
}

impl std::fmt::Display for SpecValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "invalid experiment spec ({} problem(s)):",
            self.problems.len()
        )?;
        for p in &self.problems {
            writeln!(f, "  - {p}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SpecValidationError {}

/// `true` when the registry resolves the solver name **and** a per-repetition
/// reseed is possible for it (everything but the brute-force oracle).
fn is_strategy_name(name: &str) -> bool {
    soar_core::api::solvers::by_name(name).is_some() && name != "brute-force"
}

fn check_solvers(solvers: &[String], problems: &mut Vec<String>) {
    if solvers.is_empty() {
        problems.push("solver list is empty (give at least one registry name)".to_owned());
    }
    for name in solvers {
        if soar_core::api::solvers::by_name(name).is_none() {
            problems.push(format!(
                "unknown solver `{name}` (registered: {})",
                soar_core::api::solvers::NAMES.join(", ")
            ));
        }
    }
}

fn check_stride(what: &str, stride: u64, repetitions: u64, problems: &mut Vec<String>) {
    if stride == 0 && repetitions > 1 {
        problems.push(format!(
            "{what} is 0 with {repetitions} repetitions: every repetition would draw \
             identical instances (use a positive stride or 1 repetition)"
        ));
    }
}

fn check_scenario(scenario: &ScenarioSpec, problems: &mut Vec<String>) {
    let too_small = match scenario.topology {
        // BT(n)/SF(n) count the destination server, so the switch tree needs n >= 2.
        TopologySpec::CompleteBinaryBt { n } | TopologySpec::ScaleFreeSf { n } => n < 2,
        TopologySpec::CompleteKary { arity, n_switches } => arity < 1 || n_switches < 1,
        TopologySpec::RandomRecursive { n_switches }
        | TopologySpec::Path { n_switches }
        | TopologySpec::Star { n_switches } => n_switches < 1,
        TopologySpec::RandomBoundedDegree {
            n_switches,
            max_children,
        } => n_switches < 1 || max_children < 1,
        TopologySpec::TwoTierFatTree { aggs, tors_per_agg } => aggs < 1 || tors_per_agg < 1,
    };
    if too_small {
        problems.push(format!(
            "topology `{}` is too small to build (paper families count the destination, \
             so BT/SF need n >= 2; everything else needs at least 1 switch)",
            scenario.topology.label()
        ));
    }
    if let Some(load) = &scenario.load {
        check_load("scenario load", load, problems);
    }
    if let Some(rates) = &scenario.rates {
        check_rates("scenario rates", rates, problems);
    }
}

/// Serde bypasses the `LoadSpec` constructor asserts, so a hand-edited spec
/// file can carry draws that would panic mid-run (e.g. an empty uniform range);
/// catch them here with the context of where the load sits.
fn check_load(what: &str, load: &LoadSpec, problems: &mut Vec<String>) {
    match load {
        LoadSpec::Uniform { min, max } if min > max => {
            problems.push(format!(
                "{what}: uniform load needs min <= max, got [{min}, {max}]"
            ));
        }
        LoadSpec::PowerLaw { min, max, alpha } => {
            if *min < 1 || min > max {
                problems.push(format!(
                    "{what}: power-law load needs 1 <= min <= max, got [{min}, {max}]"
                ));
            }
            if !(alpha.is_finite() && *alpha > 0.0) {
                problems.push(format!(
                    "{what}: power-law exponent must be positive and finite, got {alpha}"
                ));
            }
        }
        LoadSpec::Explicit(values) if values.is_empty() => {
            problems.push(format!(
                "{what}: explicit load list is empty (every switch would get 0)"
            ));
        }
        _ => {}
    }
}

/// Same serde-bypass problem for rates: every scheme must yield positive,
/// finite link rates, or costs and normalizations become meaningless.
fn check_rates(what: &str, rates: &RateScheme, problems: &mut Vec<String>) {
    let bad = match rates {
        RateScheme::Constant(w) => !(w.is_finite() && *w > 0.0),
        RateScheme::LinearByLevel { base, step } => {
            !(base.is_finite() && step.is_finite() && *base > 0.0 && *step >= 0.0)
        }
        RateScheme::ExponentialByLevel { base, factor } => {
            !(base.is_finite() && factor.is_finite() && *base > 0.0 && *factor > 0.0)
        }
        RateScheme::Explicit(values) => {
            values.is_empty() || values.iter().any(|r| !(r.is_finite() && *r > 0.0))
        }
    };
    if bad {
        problems.push(format!(
            "{what}: `{}` does not yield positive finite rates on every level",
            rates.label()
        ));
    }
}

/// Field-level validation of an embedded [`FabricSpec`]: degenerate topology
/// dimensions, a zero congestion bound and a non-finite/negative γ are exactly
/// the rejections `FabricSpec::build` would return — caught here so a
/// hand-edited spec file fails fast at the CLI (exit 2) with the same
/// actionable messages instead of erroring mid-run.
fn check_fabric(what: &str, fabric: &FabricSpec, problems: &mut Vec<String>) {
    if let Err(e) = fabric.topology.check() {
        problems.push(format!("{what}: {e}"));
    }
    if fabric.congestion_bound == 0 {
        problems.push(format!(
            "{what}: {}",
            soar_fabric::FabricError::ZeroCongestionBound
        ));
    }
    if !(fabric.congestion_weight.is_finite() && fabric.congestion_weight >= 0.0) {
        problems.push(format!(
            "{what}: {}",
            soar_fabric::FabricError::InvalidCongestionWeight(fabric.congestion_weight)
        ));
    }
    check_load(&format!("{what} load"), &fabric.load, problems);
    check_rates(&format!("{what} rates"), &fabric.rates, problems);
}

fn check_fabric_solvers(solvers: &[String], fabric: &FabricSpec, problems: &mut Vec<String>) {
    if solvers.is_empty() {
        problems.push(format!(
            "fabric solver list is empty (registered: {})",
            soar_fabric::solvers::NAMES.join(", ")
        ));
    }
    for name in solvers {
        if soar_fabric::solvers::by_name(name).is_none() {
            problems.push(format!(
                "unknown fabric solver `{name}` (registered: {})",
                soar_fabric::solvers::NAMES.join(", ")
            ));
        }
    }
    if solvers.iter().any(|name| name == "fabric-brute")
        && !soar_fabric::oracle_is_tractable(fabric.topology.n_switches(), fabric.budget)
    {
        problems.push(format!(
            "`fabric-brute` cannot enumerate a {}-switch fabric at budget {} — the \
             exhaustive oracle is for small cross-checks only (drop it from the solver \
             list or shrink the fabric to quick scale)",
            fabric.topology.n_switches(),
            fabric.budget
        ));
    }
}

impl ExperimentKind {
    fn collect_problems(&self, repetitions: u64, problems: &mut Vec<String>) {
        match self {
            ExperimentKind::SolverComparison {
                scenario, solvers, ..
            } => {
                check_scenario(scenario, problems);
                check_solvers(solvers, problems);
            }
            ExperimentKind::BudgetCurve {
                scenario, budgets, ..
            } => {
                check_scenario(scenario, problems);
                if budgets.is_empty() {
                    problems.push("budget grid is empty (give at least one budget)".to_owned());
                }
            }
            ExperimentKind::StrategyGrid {
                n,
                cells,
                budgets,
                solvers,
                seed_stride,
                per_rep_solver_seed,
                ..
            } => {
                if *n < 2 {
                    problems.push(format!("BT({n}) is too small (n counts the destination)"));
                }
                if cells.is_empty() {
                    problems
                        .push("cell grid is empty (give at least one load/rate cell)".to_owned());
                }
                for cell in cells {
                    check_load(&format!("cell `{}` load", cell.title), &cell.load, problems);
                    check_rates(
                        &format!("cell `{}` rates", cell.title),
                        &cell.rates,
                        problems,
                    );
                }
                if budgets.is_empty() {
                    problems.push("budget grid is empty (give at least one budget)".to_owned());
                }
                check_solvers(solvers, problems);
                check_stride("seed_stride", *seed_stride, repetitions, problems);
                if *per_rep_solver_seed {
                    for name in solvers {
                        if soar_core::api::solvers::by_name(name).is_some()
                            && !is_strategy_name(name)
                        {
                            problems.push(format!(
                                "per_rep_solver_seed requires strategy solvers, and `{name}` \
                                 is not one"
                            ));
                        }
                    }
                }
            }
            ExperimentKind::OnlineMultitenant {
                n, solvers, cells, ..
            } => {
                if *n < 2 {
                    problems.push(format!("BT({n}) is too small (n counts the destination)"));
                }
                check_solvers(solvers, problems);
                if cells.is_empty() {
                    problems.push("cell grid is empty (give at least one sweep cell)".to_owned());
                }
                for cell in cells {
                    let empty = match &cell.sweep {
                        OnlineSweep::Workloads { counts, .. } => counts.is_empty(),
                        OnlineSweep::Capacity { capacities, .. } => capacities.is_empty(),
                    };
                    if empty {
                        problems.push(format!(
                            "cell `{}` sweeps an empty grid (give at least one x value)",
                            cell.title
                        ));
                    }
                    check_rates(
                        &format!("cell `{}` rates", cell.title),
                        &cell.rates,
                        problems,
                    );
                    check_stride(
                        &format!("cell `{}` seed_stride", cell.title),
                        cell.seed_stride,
                        repetitions,
                        problems,
                    );
                }
            }
            ExperimentKind::UseCaseBytes {
                n,
                budgets,
                seed_stride,
                rates,
                titles,
                series,
                ..
            } => {
                check_rates("rates", rates, problems);
                if *n < 2 {
                    problems.push(format!("BT({n}) is too small (n counts the destination)"));
                }
                if budgets.is_empty() {
                    problems.push("budget grid is empty (give at least one budget)".to_owned());
                }
                if titles.len() != 3 {
                    problems.push(format!(
                        "UseCaseBytes needs exactly three chart titles \
                         (utilization, vs-red, vs-blue), got {}",
                        titles.len()
                    ));
                }
                if series.is_empty() {
                    problems.push("series list is empty (give at least one series)".to_owned());
                }
                for s in series {
                    check_load(&format!("series `{}` load", s.label), &s.load, problems);
                }
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::SolveTime {
                sizes,
                budgets,
                seed_stride,
                ..
            } => {
                if sizes.is_empty() {
                    problems.push("size grid is empty (give at least one tree size)".to_owned());
                }
                if budgets.is_empty() {
                    problems.push("budget grid is empty (give at least one budget)".to_owned());
                }
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::ScalingBudgets {
                exponents,
                seed_stride,
                ..
            } => {
                if exponents.is_empty() {
                    problems.push("exponent grid is empty (give at least one exponent)".to_owned());
                }
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::RequiredFraction {
                exponents,
                targets,
                search_fraction,
                seed_stride,
                ..
            } => {
                if exponents.is_empty() {
                    problems.push("exponent grid is empty (give at least one exponent)".to_owned());
                }
                if targets.is_empty() {
                    problems
                        .push("target list is empty (give at least one saving target)".to_owned());
                }
                for t in targets {
                    if !(0.0..1.0).contains(t) {
                        problems.push(format!("saving target {t} is outside [0, 1)"));
                    }
                }
                if !(search_fraction.is_finite() && *search_fraction > 0.0) {
                    problems.push(format!(
                        "search_fraction {search_fraction} must be a positive finite fraction"
                    ));
                }
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::GatherMicrobench { sizes, arity, .. } => {
                if sizes.is_empty() {
                    problems.push("size grid is empty (give at least one tree size)".to_owned());
                }
                if arity.is_some_and(|a| a < 2) {
                    problems.push("gather microbench arity must be at least 2".to_owned());
                }
            }
            ExperimentKind::ObsBench { sizes, .. } => {
                if sizes.is_empty() {
                    problems.push("size grid is empty (give at least one tree size)".to_owned());
                }
            }
            ExperimentKind::DynamicChurn {
                scenario,
                epochs,
                model,
                seed_stride,
                ..
            } => {
                check_scenario(scenario, problems);
                if *epochs == 0 {
                    problems.push("epochs must be at least 1".to_owned());
                }
                if !(model.mean_lifetime.is_finite() && model.mean_lifetime >= 1.0) {
                    problems.push(format!(
                        "churn mean_lifetime must be at least one epoch, got {}",
                        model.mean_lifetime
                    ));
                }
                for (what, value) in [
                    ("arrivals_per_epoch", model.arrivals_per_epoch),
                    ("rate_changes_per_epoch", model.rate_changes_per_epoch),
                ] {
                    if !(value.is_finite() && value >= 0.0) {
                        problems.push(format!(
                            "churn {what} must be a non-negative finite rate, got {value}"
                        ));
                    }
                }
                if model.tenant_leaves == 0 {
                    problems.push("churn tenant_leaves must be at least 1".to_owned());
                }
                check_load("churn load", &model.load, problems);
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::FabricSolve {
                fabric,
                solvers,
                seed_stride,
                ..
            } => {
                check_fabric("fabric", fabric, problems);
                check_fabric_solvers(solvers, fabric, problems);
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::FabricCongestionSweep {
                fabric,
                bounds,
                seed_stride,
                ..
            } => {
                check_fabric("fabric", fabric, problems);
                if bounds.is_empty() {
                    problems.push(
                        "congestion-bound grid is empty (give at least one bound)".to_owned(),
                    );
                }
                if bounds.contains(&0) {
                    problems.push(
                        "congestion bound 0 is in the sweep grid (every bound must \
                         admit at least one blue switch per core tree)"
                            .to_owned(),
                    );
                }
                check_stride("seed_stride", *seed_stride, repetitions, problems);
            }
            ExperimentKind::ServeBench { .. } => {
                problems.push(
                    "serve-bench specs record the provenance of a `soar loadtest` run \
                     against a live server and are not re-runnable via `experiment run` \
                     (re-run the loadtest instead)"
                        .to_owned(),
                );
            }
            ExperimentKind::ChaosBench { .. } => {
                problems.push(
                    "chaos-bench specs record the provenance of a `soar loadtest --chaos` \
                     run against a live server and are not re-runnable via `experiment run` \
                     (re-run the chaos loadtest instead)"
                        .to_owned(),
                );
            }
            ExperimentKind::Adhoc { command, .. } => {
                problems.push(format!(
                    "ad-hoc `{command}` specs record the provenance of a CLI run over an \
                     explicit instance and are not re-runnable"
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_specs_build_reproducible_instances() {
        let scenario = ScenarioSpec::bt(
            64,
            LoadSpec::paper_power_law(),
            RateScheme::paper_constant(),
            7,
        );
        let a = scenario.instance(4);
        let b = scenario.instance(4);
        assert_eq!(a, b);
        assert_eq!(a.budget(), 4);
        assert_eq!(a.n_switches(), 63);
        // A different seed draws different loads.
        let c = scenario.instance_seeded(8, 4);
        assert_ne!(a.tree(), c.tree());
    }

    #[test]
    fn sf_scenarios_have_unit_loads() {
        let tree_owner = ScenarioSpec::sf(128, 3).instance(0);
        assert_eq!(tree_owner.tree().total_load(), 127);
    }

    #[test]
    fn specs_round_trip_through_json() {
        let spec = ExperimentSpec::new(
            "demo",
            "a demo spec",
            3,
            ExperimentKind::BudgetCurve {
                title: "demo curve".into(),
                scenario: ScenarioSpec::bt(
                    32,
                    LoadSpec::paper_uniform(),
                    RateScheme::paper_linear(),
                    1,
                ),
                budgets: vec![0, 1, 2],
                series_label: "SOAR".into(),
            },
        );
        let json = serde_json::to_string_pretty(&spec).unwrap();
        let parsed: ExperimentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn validation_accepts_every_registry_spec() {
        for scale in [Scale::Quick, Scale::Paper] {
            for spec in crate::registry::all(scale) {
                spec.validate()
                    .unwrap_or_else(|e| panic!("registry spec {} rejected: {e}", spec.name));
            }
        }
    }

    #[test]
    fn validation_collects_every_problem() {
        let mut spec = ExperimentSpec::new(
            "bad",
            "a deliberately broken grid",
            3,
            ExperimentKind::StrategyGrid {
                n: 64,
                cells: Vec::new(),
                budgets: Vec::new(),
                solvers: vec!["soar".into(), "frobnicate".into()],
                seed_stride: 0,
                per_rep_solver_seed: false,
                include_baselines: false,
            },
        );
        spec.version = 99;
        let err = spec.validate().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("version 99"), "{text}");
        assert!(text.contains("unknown solver `frobnicate`"), "{text}");
        assert!(text.contains("cell grid is empty"), "{text}");
        assert!(text.contains("budget grid is empty"), "{text}");
        assert!(text.contains("seed_stride is 0"), "{text}");
        assert_eq!(err.problems.len(), 5, "{text}");
    }

    #[test]
    fn validation_flags_strides_reps_and_adhoc() {
        let mut spec = ExperimentSpec::new(
            "t",
            "solve-time stride",
            2,
            ExperimentKind::SolveTime {
                title: "t".into(),
                sizes: vec![64],
                budgets: vec![2],
                seed_stride: 0,
            },
        );
        assert!(spec.validate().is_err(), "stride 0 with 2 reps aliases");
        spec.repetitions = 1;
        assert!(spec.validate().is_ok(), "stride 0 is fine for 1 repetition");
        spec.repetitions = 0;
        assert!(spec
            .validate()
            .unwrap_err()
            .to_string()
            .contains("repetitions must be at least 1"));

        spec.repetitions = 1;
        for evil in ["../evil", "a/b", "a\\b"] {
            spec.name = evil.into();
            assert!(
                spec.validate()
                    .unwrap_err()
                    .to_string()
                    .contains("path separators"),
                "{evil} should be rejected as an artifact file stem"
            );
        }

        let adhoc = ExperimentSpec::new(
            "adhoc-solve",
            "provenance only",
            1,
            ExperimentKind::Adhoc {
                command: "solve".into(),
                instance: "x".into(),
                solvers: vec!["soar".into()],
                budgets: vec![1],
            },
        );
        assert!(adhoc
            .validate()
            .unwrap_err()
            .to_string()
            .contains("not re-runnable"));
    }

    #[test]
    fn validation_flags_degenerate_loads_and_rates() {
        // Serde bypasses the constructor asserts, so validate() must catch the
        // draws that would panic mid-run.
        let mut scenario = ScenarioSpec::bt(
            32,
            LoadSpec::Uniform { min: 6, max: 4 },
            RateScheme::Constant(0.0),
            1,
        );
        let spec = |scenario: ScenarioSpec| {
            ExperimentSpec::new(
                "degenerate",
                "degenerate load/rates",
                1,
                ExperimentKind::BudgetCurve {
                    title: "t".into(),
                    scenario,
                    budgets: vec![1],
                    series_label: "SOAR".into(),
                },
            )
        };
        let text = spec(scenario.clone()).validate().unwrap_err().to_string();
        assert!(text.contains("uniform load needs min <= max"), "{text}");
        assert!(text.contains("positive finite rates"), "{text}");

        scenario.load = Some(LoadSpec::PowerLaw {
            min: 0,
            max: 63,
            alpha: -1.0,
        });
        scenario.rates = Some(RateScheme::LinearByLevel {
            base: -5.0,
            step: 1.0,
        });
        let text = spec(scenario).validate().unwrap_err().to_string();
        assert!(text.contains("power-law load needs 1 <= min"), "{text}");
        assert!(text.contains("power-law exponent"), "{text}");
        assert!(text.contains("positive finite rates"), "{text}");
    }

    #[test]
    fn validation_flags_oracle_reseeding_and_tiny_topologies() {
        let spec = ExperimentSpec::new(
            "brute-reseed",
            "per-rep reseed of the oracle",
            2,
            ExperimentKind::StrategyGrid {
                n: 1,
                cells: vec![GridCell {
                    title: "c".into(),
                    load: LoadSpec::paper_uniform(),
                    rates: RateScheme::paper_constant(),
                }],
                budgets: vec![1],
                solvers: vec!["brute-force".into()],
                seed_stride: 7,
                per_rep_solver_seed: true,
                include_baselines: false,
            },
        );
        let text = spec.validate().unwrap_err().to_string();
        assert!(text.contains("per_rep_solver_seed"), "{text}");
        assert!(text.contains("BT(1) is too small"), "{text}");

        let tiny = ExperimentSpec::new(
            "tiny-sf",
            "degenerate scale-free scenario",
            1,
            ExperimentKind::SolverComparison {
                title: "t".into(),
                scenario: ScenarioSpec::sf(1, 0),
                budget: 1,
                solvers: vec!["soar".into()],
                include_all_red: false,
            },
        );
        assert!(tiny
            .validate()
            .unwrap_err()
            .to_string()
            .contains("too small to build"));
    }

    #[test]
    fn validation_flags_degenerate_churn_models() {
        let mut model = ChurnModel::paper_default();
        model.mean_lifetime = 0.5;
        model.arrivals_per_epoch = f64::NAN;
        model.tenant_leaves = 0;
        let spec = ExperimentSpec::new(
            "bad-churn",
            "degenerate churn model",
            2,
            ExperimentKind::DynamicChurn {
                title: "t".into(),
                scenario: ScenarioSpec::bt(
                    32,
                    LoadSpec::paper_uniform(),
                    RateScheme::paper_constant(),
                    1,
                ),
                budget: 4,
                epochs: 0,
                model,
                seed_stride: 0,
            },
        );
        let text = spec.validate().unwrap_err().to_string();
        assert!(text.contains("epochs must be at least 1"), "{text}");
        assert!(text.contains("mean_lifetime"), "{text}");
        assert!(text.contains("arrivals_per_epoch"), "{text}");
        assert!(text.contains("tenant_leaves"), "{text}");
        assert!(text.contains("seed_stride is 0"), "{text}");
    }

    #[test]
    fn validation_flags_degenerate_fabrics() {
        use soar_fabric::{FabricSpec, FabricTopology};

        let good_fabric = FabricSpec {
            topology: FabricTopology::MultiCoreFatTree {
                cores: 2,
                pods: 3,
                aggs_per_pod: 2,
                tors_per_agg: 2,
            },
            load: LoadSpec::paper_uniform(),
            rates: RateScheme::paper_constant(),
            seed: 1,
            budget: 4,
            congestion_bound: 2,
            congestion_weight: 0.5,
        };
        let wrap = |fabric: FabricSpec, solvers: Vec<String>| {
            ExperimentSpec::new(
                "fabric-test",
                "fabric validation",
                1,
                ExperimentKind::FabricSolve {
                    title: "t".into(),
                    fabric,
                    solvers,
                    seed_stride: 1,
                },
            )
        };
        assert!(wrap(good_fabric.clone(), vec!["fabric-soar".into()])
            .validate()
            .is_ok());

        // Zero cores.
        let mut fabric = good_fabric.clone();
        fabric.topology = FabricTopology::MultiCoreFatTree {
            cores: 0,
            pods: 3,
            aggs_per_pod: 2,
            tors_per_agg: 2,
        };
        let text = wrap(fabric, vec!["fabric-soar".into()])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(text.contains("at least one core switch"), "{text}");

        // Degenerate pods (an agg with no ToRs below it).
        let mut fabric = good_fabric.clone();
        fabric.topology = FabricTopology::MultiCoreFatTree {
            cores: 2,
            pods: 3,
            aggs_per_pod: 2,
            tors_per_agg: 0,
        };
        let text = wrap(fabric, vec!["fabric-soar".into()])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(text.contains("at least one ToR"), "{text}");

        // Congestion bound 0 and a bad γ collect together with a bad solver.
        let mut fabric = good_fabric.clone();
        fabric.congestion_bound = 0;
        fabric.congestion_weight = f64::NAN;
        let err = wrap(fabric, vec!["frobnicate".into()])
            .validate()
            .unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("congestion bound must be at least 1"),
            "{text}"
        );
        assert!(text.contains("finite, non-negative"), "{text}");
        assert!(
            text.contains("unknown fabric solver `frobnicate`"),
            "{text}"
        );
        assert_eq!(err.problems.len(), 3, "{text}");

        // The exhaustive oracle is rejected at paper scale.
        let mut fabric = good_fabric.clone();
        fabric.topology = FabricTopology::MultiCoreFatTree {
            cores: 4,
            pods: 8,
            aggs_per_pod: 4,
            tors_per_agg: 8,
        };
        fabric.budget = 16;
        let text = wrap(fabric, vec!["fabric-soar".into(), "fabric-brute".into()])
            .validate()
            .unwrap_err()
            .to_string();
        assert!(text.contains("cannot enumerate"), "{text}");
        assert!(text.contains("small cross-checks only"), "{text}");

        // An empty sweep grid and a zero bound inside it are both flagged.
        let sweep = ExperimentSpec::new(
            "fabric-sweep-test",
            "sweep validation",
            1,
            ExperimentKind::FabricCongestionSweep {
                title: "t".into(),
                fabric: good_fabric.clone(),
                bounds: Vec::new(),
                seed_stride: 1,
            },
        );
        assert!(sweep
            .validate()
            .unwrap_err()
            .to_string()
            .contains("congestion-bound grid is empty"));
        let sweep_zero = ExperimentSpec::new(
            "fabric-sweep-test",
            "sweep validation",
            1,
            ExperimentKind::FabricCongestionSweep {
                title: "t".into(),
                fabric: good_fabric,
                bounds: vec![0, 1],
                seed_stride: 1,
            },
        );
        assert!(sweep_zero
            .validate()
            .unwrap_err()
            .to_string()
            .contains("congestion bound 0 is in the sweep grid"));
    }

    #[test]
    fn timing_charts_are_flagged_per_kind() {
        let timing = ExperimentSpec::new(
            "t",
            "t",
            1,
            ExperimentKind::SolveTime {
                title: "t".into(),
                sizes: vec![64],
                budgets: vec![2],
                seed_stride: 3,
            },
        );
        assert_eq!(timing.timing_chart_indices(), vec![0]);
        let cost = ExperimentSpec::new(
            "c",
            "c",
            1,
            ExperimentKind::SolverComparison {
                title: "c".into(),
                scenario: ScenarioSpec::sf(32, 0),
                budget: 1,
                solvers: vec!["soar".into()],
                include_all_red: false,
            },
        );
        assert!(cost.timing_chart_indices().is_empty());
    }
}
