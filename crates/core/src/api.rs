//! The unified **Instance / Solver** API.
//!
//! Every experiment in the SOAR paper solves a φ-BIC instance `(T, L, Λ, k)` under
//! some placement policy. This module makes that shape first-class:
//!
//! * [`Instance`] — an immutable value type bundling the topology, loads, link
//!   rates, availability set and budget. Built either from an existing
//!   [`Tree`] or from a declarative [`TopologySpec`] + [`LoadSpec`] +
//!   [`RateScheme`] + seed via [`Instance::builder`], so random scenarios are
//!   reproducible from a handful of plain values.
//! * [`Solver`] — `fn solve(&self, &Instance) -> SolveReport`, implemented by the
//!   optimal SOAR solver ([`SoarSolver`]), the exhaustive oracle
//!   ([`BruteForceSolver`]) and every placement [`Strategy`] (via
//!   [`StrategySolver`] or the blanket `impl Solver for Strategy`).
//! * [`solvers`] — a string-keyed registry ([`solvers::by_name`]) so benches and
//!   CLIs can enumerate contenders generically.
//! * [`SolveReport`] — the [`Solution`] plus wall time, DP-table statistics and the
//!   cost normalized to the instance's all-red baseline. [`DpStats`] includes the
//!   workspace's allocation count, which is **0** for every steady-state solve.
//! * [`solve_batch`] / [`sweep_budgets`] / [`sweep_budgets_batch`] — batch entry
//!   points that fan instances out across the [`soar_pool`] work-stealing pool
//!   and reuse one SOAR-Gather pass across all budgets of a sweep. Every pool
//!   worker carries a warm per-thread
//!   [`SolverWorkspace`], so batches run
//!   allocation-free after each worker's first instance, and large instances
//!   additionally parallelize the gather *within* the tree, level by level.
//!
//! ```
//! use soar_core::api::{solvers, Instance, Solver, SoarSolver};
//! use soar_core::api::TopologySpec;
//! use soar_topology::load::LoadSpec;
//!
//! // The paper's BT(64) scenario with power-law rack sizes, reproducible by seed.
//! let instance = Instance::builder()
//!     .topology(TopologySpec::CompleteBinaryBt { n: 64 })
//!     .leaf_loads(LoadSpec::paper_power_law())
//!     .seed(7)
//!     .budget(4)
//!     .build()
//!     .unwrap();
//!
//! let optimal = SoarSolver.solve(&instance);
//! for solver in solvers::all() {
//!     let report = solver.solve(&instance);
//!     // All-blue ignores the budget, so it is the only contender allowed to win.
//!     if solver.name() != "all-blue" {
//!         assert!(optimal.solution.cost <= report.solution.cost + 1e-9);
//!     }
//! }
//! ```

use crate::brute_force;
use crate::solver::{self, Solution};
use crate::strategies::Strategy;
use crate::workspace::{with_thread_workspace, SolverWorkspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_reduce::{cost, Coloring};
use soar_topology::builders;
use soar_topology::load::{LoadPlacement, LoadSpec};
use soar_topology::rates::RateScheme;
use soar_topology::{NodeId, Tree, TreeError};
use std::fmt;
use std::time::{Duration, Instant};

#[cfg(feature = "serde")]
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Topology specifications
// ---------------------------------------------------------------------------

/// A declarative description of a topology, so whole scenarios can be expressed —
/// and persisted — as plain values. Random families are deterministic given the
/// instance seed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub enum TopologySpec {
    /// The paper's `BT(n)` complete binary tree (`n` counts the destination).
    CompleteBinaryBt {
        /// Size including the destination server; the switch tree has `n - 1` nodes.
        n: usize,
    },
    /// A complete `arity`-ary tree over `n_switches` switches.
    CompleteKary {
        /// Children per switch.
        arity: usize,
        /// Number of switches.
        n_switches: usize,
    },
    /// The paper's `SF(n)` scale-free preferential-attachment tree.
    ScaleFreeSf {
        /// Size including the destination server.
        n: usize,
    },
    /// A uniformly random recursive tree.
    RandomRecursive {
        /// Number of switches.
        n_switches: usize,
    },
    /// A random recursive tree whose switches have at most `max_children` children.
    RandomBoundedDegree {
        /// Number of switches.
        n_switches: usize,
        /// Maximum number of children per switch.
        max_children: usize,
    },
    /// A path (maximum height).
    Path {
        /// Number of switches.
        n_switches: usize,
    },
    /// A star (maximum branching).
    Star {
        /// Number of switches.
        n_switches: usize,
    },
    /// A two-tier ToR/aggregation topology.
    TwoTierFatTree {
        /// Number of aggregation switches under the core.
        aggs: usize,
        /// Number of ToR switches under each aggregation switch.
        tors_per_agg: usize,
    },
}

impl TopologySpec {
    /// Materializes the topology (unit rates, zero load, full availability).
    pub fn build(&self, rng: &mut StdRng) -> Tree {
        match *self {
            TopologySpec::CompleteBinaryBt { n } => builders::complete_binary_tree_bt(n),
            TopologySpec::CompleteKary { arity, n_switches } => {
                builders::complete_kary_tree(arity, n_switches)
            }
            TopologySpec::ScaleFreeSf { n } => builders::scale_free_tree_sf(n, rng),
            TopologySpec::RandomRecursive { n_switches } => builders::random_tree(n_switches, rng),
            TopologySpec::RandomBoundedDegree {
                n_switches,
                max_children,
            } => builders::random_tree_bounded_degree(n_switches, max_children, rng),
            TopologySpec::Path { n_switches } => builders::path(n_switches),
            TopologySpec::Star { n_switches } => builders::star(n_switches),
            TopologySpec::TwoTierFatTree { aggs, tors_per_agg } => {
                builders::two_tier_fat_tree(aggs, tors_per_agg)
            }
        }
    }

    /// A short label used for default instance names.
    pub fn label(&self) -> String {
        match *self {
            TopologySpec::CompleteBinaryBt { n } => format!("BT({n})"),
            TopologySpec::CompleteKary { arity, n_switches } => {
                format!("K{arity}({n_switches})")
            }
            TopologySpec::ScaleFreeSf { n } => format!("SF({n})"),
            TopologySpec::RandomRecursive { n_switches } => format!("RR({n_switches})"),
            TopologySpec::RandomBoundedDegree {
                n_switches,
                max_children,
            } => format!("RB({n_switches},{max_children})"),
            TopologySpec::Path { n_switches } => format!("Path({n_switches})"),
            TopologySpec::Star { n_switches } => format!("Star({n_switches})"),
            TopologySpec::TwoTierFatTree { aggs, tors_per_agg } => {
                format!("TwoTier({aggs}x{tors_per_agg})")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instance
// ---------------------------------------------------------------------------

/// An immutable φ-BIC problem instance `(T, L, Λ, k)`.
///
/// The tree (with its loads, rates and availability set) and the budget are fixed at
/// construction; solvers never mutate an instance, which is what makes the batch
/// entry points trivially parallel. Construct via [`Instance::builder`] or
/// [`Instance::from_tree`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize))]
pub struct Instance {
    label: String,
    tree: Tree,
    budget: usize,
    /// The all-red baseline `φ(T, L, ∅)`, cached at construction (the instance is
    /// immutable) so report normalization never re-evaluates it. Serialized for
    /// informational value but **recomputed** on deserialization, so a hand-edited
    /// scenario file can never carry a baseline inconsistent with its tree.
    all_red_cost: f64,
}

#[cfg(feature = "serde")]
impl serde::Deserialize for Instance {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // `all_red_cost` in the input (if any) is deliberately ignored; the baseline
        // is derived from the tree, and trusting a persisted copy would let stale or
        // hand-edited files skew every normalized cost computed from the instance.
        Ok(Instance::new(
            serde::field(value, "label")?,
            serde::field(value, "tree")?,
            serde::field(value, "budget")?,
        ))
    }
}

impl Instance {
    /// Starts building an instance.
    pub fn builder() -> InstanceBuilder {
        InstanceBuilder::default()
    }

    fn new(label: String, tree: Tree, budget: usize) -> Self {
        let all_red_cost = cost::phi(&tree, &Coloring::all_red(tree.n_switches()));
        Instance {
            label,
            tree,
            budget,
            all_red_cost,
        }
    }

    /// Wraps an existing tree (loads, rates and Λ are read from it) with a budget.
    pub fn from_tree(tree: &Tree, budget: usize) -> Self {
        Instance::from_tree_owned(tree.clone(), budget)
    }

    /// Like [`Instance::from_tree`] but taking the tree by value, for callers that
    /// already hold a tree of their own (avoids a second clone).
    pub fn from_tree_owned(tree: Tree, budget: usize) -> Self {
        Instance::new(format!("tree({})", tree.n_switches()), tree, budget)
    }

    /// The topology (with loads, rates and the availability set Λ).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The aggregation-switch budget `k`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// A human-readable name for tables and logs.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of switches `n`.
    pub fn n_switches(&self) -> usize {
        self.tree.n_switches()
    }

    /// A copy of this instance with a different budget (topology shared by clone).
    pub fn with_budget(&self, budget: usize) -> Self {
        Instance {
            budget,
            ..self.clone()
        }
    }

    /// The all-red baseline cost `φ(T, L, ∅)` used for normalization (cached at
    /// construction).
    pub fn all_red_cost(&self) -> f64 {
        self.all_red_cost
    }
}

/// Errors raised by [`InstanceBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// Neither a tree nor a topology spec was provided.
    MissingTopology,
    /// Both an explicit tree and a topology spec were provided.
    ConflictingTopology,
    /// The topology itself failed to build.
    Tree(TreeError),
    /// An availability mask did not match the number of switches.
    AvailabilityLength {
        /// Length of the provided mask.
        mask: usize,
        /// Number of switches in the topology.
        switches: usize,
    },
    /// An unavailable-switch id was out of range.
    UnknownSwitch(NodeId),
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::MissingTopology => {
                write!(f, "an instance needs a tree or a topology spec")
            }
            InstanceError::ConflictingTopology => {
                write!(f, "provide either a tree or a topology spec, not both")
            }
            InstanceError::Tree(e) => write!(f, "topology construction failed: {e}"),
            InstanceError::AvailabilityLength { mask, switches } => write!(
                f,
                "availability mask covers {mask} switches but the topology has {switches}"
            ),
            InstanceError::UnknownSwitch(v) => write!(f, "unknown switch id {v}"),
        }
    }
}

impl std::error::Error for InstanceError {}

impl From<TreeError> for InstanceError {
    fn from(e: TreeError) -> Self {
        InstanceError::Tree(e)
    }
}

/// Builder for [`Instance`]; see the [module docs](crate::api) for an example.
///
/// Random ingredients (random topologies, random load draws) are derived
/// deterministically from [`InstanceBuilder::seed`], so an instance is fully
/// reproducible from its builder arguments.
#[derive(Debug, Clone, Default)]
pub struct InstanceBuilder {
    label: Option<String>,
    tree: Option<Tree>,
    topology: Option<TopologySpec>,
    loads: Option<(LoadSpec, LoadPlacement)>,
    rates: Option<RateScheme>,
    availability: Option<Vec<bool>>,
    unavailable: Vec<NodeId>,
    seed: u64,
    budget: usize,
}

impl InstanceBuilder {
    /// Uses an existing tree as the topology (its loads/rates/Λ are kept unless
    /// overridden by the other builder methods).
    pub fn tree(mut self, tree: &Tree) -> Self {
        self.tree = Some(tree.clone());
        self
    }

    /// Uses a declarative topology spec.
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = Some(spec);
        self
    }

    /// Draws loads from `spec` with the given placement.
    pub fn loads(mut self, spec: LoadSpec, placement: LoadPlacement) -> Self {
        self.loads = Some((spec, placement));
        self
    }

    /// Draws loads from `spec` on the leaf (ToR) switches — the Sec. 5 setting.
    pub fn leaf_loads(self, spec: LoadSpec) -> Self {
        self.loads(spec, LoadPlacement::Leaves)
    }

    /// Applies a link-rate scheme.
    pub fn rates(mut self, scheme: RateScheme) -> Self {
        self.rates = Some(scheme);
        self
    }

    /// Replaces the availability mask Λ wholesale.
    pub fn availability(mut self, mask: Vec<bool>) -> Self {
        self.availability = Some(mask);
        self
    }

    /// Marks individual switches as unavailable (applied after any mask).
    pub fn unavailable(mut self, switches: impl IntoIterator<Item = NodeId>) -> Self {
        self.unavailable.extend(switches);
        self
    }

    /// Seed for all randomized ingredients (topology and load draws).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The aggregation-switch budget `k` (defaults to 0).
    pub fn budget(mut self, k: usize) -> Self {
        self.budget = k;
        self
    }

    /// A human-readable name (defaults to the topology label).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Materializes the immutable [`Instance`].
    pub fn build(self) -> Result<Instance, InstanceError> {
        let default_label = match (&self.tree, &self.topology) {
            (Some(_), Some(_)) => return Err(InstanceError::ConflictingTopology),
            (None, None) => return Err(InstanceError::MissingTopology),
            (Some(tree), None) => format!("tree({})", tree.n_switches()),
            (None, Some(spec)) => format!("{}#{}", spec.label(), self.seed),
        };
        let mut tree = match (self.tree, &self.topology) {
            (Some(tree), None) => tree,
            (None, Some(spec)) => {
                let mut topo_rng = StdRng::seed_from_u64(self.seed);
                spec.build(&mut topo_rng)
            }
            _ => unreachable!("checked above"),
        };
        if let Some((spec, placement)) = &self.loads {
            // A distinct stream so load draws do not depend on how many random
            // numbers the topology consumed.
            let mut load_rng = StdRng::seed_from_u64(self.seed.wrapping_add(0x10AD));
            tree.apply_loads(spec, *placement, &mut load_rng);
        }
        if let Some(scheme) = &self.rates {
            tree.apply_rates(scheme);
        }
        if let Some(mask) = &self.availability {
            if mask.len() != tree.n_switches() {
                return Err(InstanceError::AvailabilityLength {
                    mask: mask.len(),
                    switches: tree.n_switches(),
                });
            }
            tree.set_availability(mask);
        }
        for &v in &self.unavailable {
            if v >= tree.n_switches() {
                return Err(InstanceError::UnknownSwitch(v));
            }
            tree.set_available(v, false);
        }
        Ok(Instance::new(
            self.label.unwrap_or(default_label),
            tree,
            self.budget,
        ))
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Statistics of the dynamic-programming tables behind a SOAR solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct DpStats {
    /// Number of per-switch tables (= number of switches).
    pub n_switches: usize,
    /// The budget the tables were computed for.
    pub budget: usize,
    /// Total number of `X(ℓ, i)` cells across all tables.
    pub table_cells: usize,
    /// Approximate heap footprint of the tables in bytes.
    pub table_bytes: usize,
    /// High-water heap footprint of the solver workspace (DP arena + scratch)
    /// over its lifetime, in bytes.
    #[cfg_attr(feature = "serde", serde(default))]
    pub arena_peak_bytes: usize,
    /// Buffer (re)allocations the gather behind this report performed — **0 when
    /// the solve replayed a warm [`SolverWorkspace`]**, which is the steady state
    /// of every batch/sweep entry point (and the headline property of the
    /// allocation-free gather: no per-node clones, no per-node scratch).
    #[cfg_attr(feature = "serde", serde(default))]
    pub alloc_events: usize,
    /// `X` cells the gather behind this report actually wrote. Equals
    /// `table_cells` for a from-scratch gather; an **incremental** update
    /// (`SolverWorkspace::gather_update`, the `soar-online` epoch path) writes
    /// only the dirty nodes' cells — the ratio `table_cells / cells_written` is
    /// the incremental-solve speedup reported by the `dynamic_churn` bench.
    #[cfg_attr(feature = "serde", serde(default))]
    pub cells_written: usize,
    /// Split candidates the monotonicity-based pruning skipped relative to the
    /// full quadratic arg-min search (0 for the scalar kernel). Deterministic
    /// for a given instance shape and kernel.
    #[cfg_attr(feature = "serde", serde(default))]
    pub pruned_splits: usize,
}

impl DpStats {
    /// Captures the statistics of the most recent gather of a workspace.
    pub fn from_workspace(workspace: &SolverWorkspace) -> Self {
        let tables = workspace.tables();
        DpStats {
            n_switches: tables.n_switches(),
            budget: tables.k,
            table_cells: tables.table_cells(),
            table_bytes: tables.memory_bytes(),
            arena_peak_bytes: workspace.peak_bytes(),
            alloc_events: workspace.last_alloc_events(),
            cells_written: workspace.last_cells_written(),
            pruned_splits: workspace.last_pruned_splits(),
        }
    }
}

/// The outcome of one [`Solver`] run on one [`Instance`].
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]
pub struct SolveReport {
    /// Registry name of the solver that produced this report.
    pub solver: String,
    /// Label of the solved instance.
    pub instance: String,
    /// The placement and its cost.
    pub solution: Solution,
    /// Wall-clock time of the solve. For budget sweeps that share one gather pass,
    /// every report of the sweep carries the total sweep time.
    pub wall_time: Duration,
    /// `solution.cost` normalized to the instance's all-red baseline.
    pub normalized_cost: f64,
    /// DP-table statistics — present only for solvers that run SOAR-Gather.
    pub dp: Option<DpStats>,
}

impl SolveReport {
    /// Assembles a report for a solution of `instance`, normalizing the cost to
    /// the instance's (cached) all-red baseline (zero baseline normalizes to
    /// `1.0`; the convention lives in one shared helper crate-wide). Public so
    /// that [`Solver`] implementations outside this crate — such as the
    /// dataplane's distributed solver — assemble reports identically.
    pub fn new(
        solver: &str,
        instance: &Instance,
        solution: Solution,
        wall_time: Duration,
        dp: Option<DpStats>,
    ) -> Self {
        SolveReport {
            solver: solver.to_owned(),
            instance: instance.label().to_owned(),
            normalized_cost: solver::normalize(solution.cost, instance.all_red_cost()),
            solution,
            wall_time,
            dp,
        }
    }
}

// ---------------------------------------------------------------------------
// Solvers
// ---------------------------------------------------------------------------

/// A placement algorithm for φ-BIC instances.
///
/// Implementations must be deterministic for a given instance (randomized strategies
/// derive their RNG from a configurable seed), which keeps batch runs reproducible
/// regardless of thread scheduling.
pub trait Solver: Send + Sync {
    /// The solver's registry name (see [`solvers`]).
    fn name(&self) -> &str;

    /// Solves one instance.
    fn solve(&self, instance: &Instance) -> SolveReport;
}

/// The optimal SOAR solver (gather + color), reporting DP statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoarSolver;

impl Solver for SoarSolver {
    fn name(&self) -> &str {
        "soar"
    }

    fn solve(&self, instance: &Instance) -> SolveReport {
        let start = Instant::now();
        with_thread_workspace(|ws| {
            let solution = ws.solve(instance.tree(), instance.budget());
            let wall_time = start.elapsed();
            SolveReport::new(
                self.name(),
                instance,
                solution,
                wall_time,
                Some(DpStats::from_workspace(ws)),
            )
        })
    }
}

/// The exhaustive oracle. Only usable on small instances (see
/// [`crate::brute::MAX_SUBSETS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn name(&self) -> &str {
        "brute-force"
    }

    fn solve(&self, instance: &Instance) -> SolveReport {
        let start = Instant::now();
        let solution = brute_force(instance.tree(), instance.budget());
        SolveReport::new(self.name(), instance, solution, start.elapsed(), None)
    }
}

/// Adapts a placement [`Strategy`] to the [`Solver`] interface.
///
/// Randomized strategies draw from an RNG seeded with `seed`, freshly per solve, so
/// repeated solves of the same instance give the same placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategySolver {
    strategy: Strategy,
    seed: u64,
}

impl StrategySolver {
    /// Wraps a strategy with the default seed.
    pub fn new(strategy: Strategy) -> Self {
        StrategySolver { strategy, seed: 0 }
    }

    /// Wraps a strategy with an explicit seed for its random draws.
    pub fn with_seed(strategy: Strategy, seed: u64) -> Self {
        StrategySolver { strategy, seed }
    }

    /// The wrapped strategy.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }
}

/// Registry name of a strategy (lower-case, stable across releases).
fn strategy_key(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Soar => "soar",
        Strategy::Top => "top",
        Strategy::MaxLoad => "max-load",
        Strategy::MaxDegree => "max-degree",
        Strategy::Level => "level",
        Strategy::Random => "random",
        Strategy::Greedy => "greedy",
        Strategy::AllRed => "all-red",
        Strategy::AllBlue => "all-blue",
    }
}

impl Solver for StrategySolver {
    fn name(&self) -> &str {
        strategy_key(self.strategy)
    }

    fn solve(&self, instance: &Instance) -> SolveReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let start = Instant::now();
        let solution = self
            .strategy
            .solve(instance.tree(), instance.budget(), &mut rng);
        SolveReport::new(self.name(), instance, solution, start.elapsed(), None)
    }
}

impl Solver for Strategy {
    fn name(&self) -> &str {
        strategy_key(*self)
    }

    fn solve(&self, instance: &Instance) -> SolveReport {
        StrategySolver::new(*self).solve(instance)
    }
}

/// The string-keyed solver registry.
pub mod solvers {
    use super::{BruteForceSolver, SoarSolver, Solver, Strategy, StrategySolver};

    /// The registry names of all built-in solvers, in a stable order.
    pub const NAMES: [&str; 10] = [
        "soar",
        "brute-force",
        "top",
        "max-load",
        "max-degree",
        "level",
        "random",
        "greedy",
        "all-red",
        "all-blue",
    ];

    /// Looks a solver up by its registry name (case-insensitive; the paper's legend
    /// names — e.g. `"SOAR"`, `"Max"` — are accepted as aliases).
    pub fn by_name(name: &str) -> Option<Box<dyn Solver>> {
        let key = name.to_ascii_lowercase();
        let strategy =
            |s: Strategy| -> Option<Box<dyn Solver>> { Some(Box::new(StrategySolver::new(s))) };
        match key.as_str() {
            "soar" => Some(Box::new(SoarSolver)),
            "brute-force" | "brute" | "oracle" => Some(Box::new(BruteForceSolver)),
            "top" => strategy(Strategy::Top),
            "max-load" | "max" => strategy(Strategy::MaxLoad),
            "max-degree" => strategy(Strategy::MaxDegree),
            "level" => strategy(Strategy::Level),
            "random" => strategy(Strategy::Random),
            "greedy" => strategy(Strategy::Greedy),
            "all-red" | "all red" => strategy(Strategy::AllRed),
            "all-blue" | "all blue" => strategy(Strategy::AllBlue),
            _ => None,
        }
    }

    /// All registered solvers except the brute-force oracle (which cannot handle
    /// realistically sized instances), in the order of [`NAMES`].
    pub fn all() -> Vec<Box<dyn Solver>> {
        NAMES
            .iter()
            .filter(|&&name| name != "brute-force")
            .map(|&name| by_name(name).expect("every registry name resolves"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Batch entry points
// ---------------------------------------------------------------------------

/// Maps `f` over `items` on the global [`soar_pool`] work-stealing pool,
/// preserving order. Used by every batch entry point; the pool's long-lived
/// workers each carry a warm per-thread [`SolverWorkspace`], so a batch of
/// same-shaped instances is solved allocation-free after each worker's first
/// item. With a single worker the call degrades to a plain sequential map.
fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    soar_pool::global().map(items, f)
}

/// Solves every instance with the given solver, fanning out across threads.
///
/// Reports come back in instance order and are bit-identical to sequential
/// per-instance [`Solver::solve`] calls (solvers are deterministic; wall times
/// differ, costs do not).
pub fn solve_batch(solver: &dyn Solver, instances: &[Instance]) -> Vec<SolveReport> {
    par_map(instances, |instance| solver.solve(instance))
}

/// Solves every `(solver, instance)` pair, fanning out across threads. The outer
/// result is indexed like `solvers`, the inner like `instances`.
pub fn solve_matrix(solvers: &[Box<dyn Solver>], instances: &[Instance]) -> Vec<Vec<SolveReport>> {
    // Flatten so small solver lists still saturate the thread pool.
    let pairs: Vec<(usize, usize)> = (0..solvers.len())
        .flat_map(|s| (0..instances.len()).map(move |i| (s, i)))
        .collect();
    let flat = par_map(&pairs, |&(s, i)| solvers[s].solve(&instances[i]));
    let mut out: Vec<Vec<SolveReport>> = (0..solvers.len()).map(|_| Vec::new()).collect();
    for ((s, _), report) in pairs.into_iter().zip(flat) {
        out[s].push(report);
    }
    out
}

/// Optimal solutions of one instance for **every** budget in `budgets`, from a
/// single SOAR-Gather pass at the largest budget (the "cost-vs-k curve" of
/// Figs. 6, 8 and 10 without re-running the DP per budget).
///
/// Every returned report carries the total sweep wall time and the shared DP
/// statistics; costs are identical to per-budget [`SoarSolver`] solves.
pub fn sweep_budgets(instance: &Instance, budgets: &[usize]) -> Vec<SolveReport> {
    let Some(&k_max) = budgets.iter().max() else {
        return Vec::new();
    };
    let start = Instant::now();
    with_thread_workspace(|ws| {
        ws.gather_auto(instance.tree(), k_max);
        // The "at most k" cost curve (shared epsilon logic lives in solver.rs).
        let curve = solver::prefix_min_curve(ws.tables());
        // Trace one coloring per *distinct* optimal blue count among the requested
        // budgets — the expensive SOAR-Color walk is skipped for budgets whose
        // optimum did not move, and for budgets the caller never asked about.
        // Traces stream through the workspace's reusable buffers (no per-trace
        // `Coloring` allocation); the single clone per distinct blue count is
        // what the returned `Solution`s own.
        let mut colorings: std::collections::HashMap<usize, Coloring> =
            std::collections::HashMap::new();
        let solutions: Vec<Solution> = budgets
            .iter()
            .map(|&k| {
                let (cost_k, j) = curve[k];
                let coloring = match colorings.entry(j) {
                    std::collections::hash_map::Entry::Occupied(entry) => entry.get().clone(),
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        ws.trace_exact(instance.tree(), j);
                        entry.insert(ws.coloring().clone()).clone()
                    }
                };
                Solution {
                    blue_used: coloring.n_blue(),
                    cost: cost_k,
                    coloring,
                    budget: k,
                }
            })
            .collect();
        let wall_time = start.elapsed();
        let dp = DpStats::from_workspace(ws);
        solutions
            .into_iter()
            .map(|solution| SolveReport::new("soar", instance, solution, wall_time, Some(dp)))
            .collect()
    })
}

/// [`sweep_budgets`] over many instances, fanned out across threads. The outer
/// result is indexed like `instances`, the inner like `budgets`.
pub fn sweep_budgets_batch(instances: &[Instance], budgets: &[usize]) -> Vec<Vec<SolveReport>> {
    par_map(instances, |instance| sweep_budgets(instance, budgets))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2_instance(k: usize) -> Instance {
        Instance::builder()
            .topology(TopologySpec::CompleteKary {
                arity: 2,
                n_switches: 7,
            })
            .loads(LoadSpec::Explicit(vec![2, 6, 5, 4]), LoadPlacement::Leaves)
            .budget(k)
            .label("fig2")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_reproduces_the_fig2_instance() {
        let instance = fig2_instance(2);
        assert_eq!(instance.n_switches(), 7);
        assert_eq!(instance.budget(), 2);
        assert_eq!(instance.label(), "fig2");
        assert_eq!(instance.all_red_cost(), 51.0);
        let report = SoarSolver.solve(&instance);
        assert_eq!(report.solution.cost, 20.0);
        assert_eq!(report.solver, "soar");
        assert!((report.normalized_cost - 20.0 / 51.0).abs() < 1e-12);
        let dp = report.dp.expect("SOAR reports DP stats");
        assert_eq!(dp.n_switches, 7);
        assert_eq!(dp.budget, 2);
        assert!(dp.table_cells > 0 && dp.table_bytes > 0);
    }

    #[test]
    fn builder_is_deterministic_per_seed() {
        let build = |seed| {
            Instance::builder()
                .topology(TopologySpec::ScaleFreeSf { n: 64 })
                .leaf_loads(LoadSpec::paper_uniform())
                .rates(RateScheme::paper_linear())
                .seed(seed)
                .budget(3)
                .build()
                .unwrap()
        };
        assert_eq!(build(5), build(5));
        assert_ne!(build(5), build(6));
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        assert_eq!(
            Instance::builder().budget(1).build().unwrap_err(),
            InstanceError::MissingTopology
        );
        let tree = builders::complete_binary_tree(3);
        assert_eq!(
            Instance::builder()
                .tree(&tree)
                .topology(TopologySpec::Path { n_switches: 2 })
                .build()
                .unwrap_err(),
            InstanceError::ConflictingTopology
        );
        assert!(matches!(
            Instance::builder()
                .tree(&tree)
                .availability(vec![true])
                .build()
                .unwrap_err(),
            InstanceError::AvailabilityLength {
                mask: 1,
                switches: 3
            }
        ));
        assert_eq!(
            Instance::builder()
                .tree(&tree)
                .unavailable([9])
                .build()
                .unwrap_err(),
            InstanceError::UnknownSwitch(9)
        );
    }

    #[test]
    fn availability_flows_into_solutions() {
        let tree = {
            let mut t = builders::complete_binary_tree(7);
            t.set_load(3, 2);
            t.set_load(4, 6);
            t.set_load(5, 5);
            t.set_load(6, 4);
            t
        };
        // Without switch 4 the k = 2 optimum changes away from {2, 4}.
        let restricted = Instance::builder()
            .tree(&tree)
            .unavailable([4])
            .budget(2)
            .build()
            .unwrap();
        let report = SoarSolver.solve(&restricted);
        assert!(!report.solution.coloring.is_blue(4));
        assert!(report.solution.cost > 20.0);
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        for name in solvers::NAMES {
            let solver = solvers::by_name(name).expect("registered");
            assert_eq!(solver.name(), name);
        }
        assert_eq!(solvers::by_name("SOAR").unwrap().name(), "soar");
        assert_eq!(solvers::by_name("Max").unwrap().name(), "max-load");
        assert_eq!(solvers::by_name("brute").unwrap().name(), "brute-force");
        assert!(solvers::by_name("nonsense").is_none());
        assert_eq!(solvers::all().len(), solvers::NAMES.len() - 1);
    }

    #[test]
    fn every_solver_beats_no_one_but_respects_the_instance() {
        let instance = fig2_instance(2);
        let optimal = SoarSolver.solve(&instance);
        for solver in solvers::all() {
            let report = solver.solve(&instance);
            if solver.name() == "all-blue" {
                // All-blue deliberately ignores the budget (unbounded reference).
                continue;
            }
            assert!(
                optimal.solution.cost <= report.solution.cost + 1e-9,
                "{} beat SOAR",
                solver.name()
            );
            assert!(report
                .solution
                .coloring
                .validate(instance.tree(), 2)
                .is_ok());
        }
    }

    #[test]
    fn strategy_implements_solver_directly() {
        let instance = fig2_instance(2);
        let report = Solver::solve(&Strategy::Level, &instance);
        assert_eq!(report.solver, "level");
        assert_eq!(report.solution.cost, 21.0);
    }

    #[test]
    fn batch_matches_sequential() {
        let instances: Vec<Instance> = (0..8)
            .map(|seed| {
                Instance::builder()
                    .topology(TopologySpec::CompleteBinaryBt { n: 32 })
                    .leaf_loads(LoadSpec::paper_power_law())
                    .seed(seed)
                    .budget(4)
                    .build()
                    .unwrap()
            })
            .collect();
        let batch = solve_batch(&SoarSolver, &instances);
        assert_eq!(batch.len(), instances.len());
        for (instance, report) in instances.iter().zip(&batch) {
            let sequential = SoarSolver.solve(instance);
            assert_eq!(sequential.solution, report.solution);
            assert_eq!(sequential.normalized_cost, report.normalized_cost);
        }
    }

    #[test]
    fn solve_matrix_covers_all_pairs() {
        let instances: Vec<Instance> = (0..3).map(|s| fig2_instance(s as usize)).collect();
        let contenders: Vec<Box<dyn Solver>> = vec![
            Box::new(SoarSolver),
            Box::new(StrategySolver::new(Strategy::Top)),
        ];
        let matrix = solve_matrix(&contenders, &instances);
        assert_eq!(matrix.len(), 2);
        for row in &matrix {
            assert_eq!(row.len(), 3);
        }
        for (report, instance) in matrix[0].iter().zip(&instances) {
            assert_eq!(report.solution, SoarSolver.solve(instance).solution);
        }
    }

    #[test]
    fn sweep_budgets_matches_per_budget_solves() {
        let instance = fig2_instance(0);
        let budgets = [0usize, 1, 2, 3, 4];
        let sweep = sweep_budgets(&instance, &budgets);
        assert_eq!(sweep.len(), budgets.len());
        let expected = [51.0, 35.0, 20.0, 15.0, 11.0];
        for ((&k, report), &want) in budgets.iter().zip(&sweep).zip(&expected) {
            assert_eq!(report.solution.cost, want, "budget {k}");
            assert_eq!(report.solution.budget, k);
            let direct = SoarSolver.solve(&instance.with_budget(k));
            assert_eq!(direct.solution.cost, report.solution.cost);
        }
        assert!(sweep_budgets(&instance, &[]).is_empty());
    }

    #[test]
    fn sweep_batch_is_consistent_with_single_sweeps() {
        let instances: Vec<Instance> = (0..5)
            .map(|seed| {
                Instance::builder()
                    .topology(TopologySpec::ScaleFreeSf { n: 48 })
                    .loads(LoadSpec::Constant(1), LoadPlacement::AllSwitches)
                    .seed(seed)
                    .build()
                    .unwrap()
            })
            .collect();
        let budgets = [0usize, 2, 4];
        let batch = sweep_budgets_batch(&instances, &budgets);
        for (instance, reports) in instances.iter().zip(&batch) {
            let single = sweep_budgets(instance, &budgets);
            let batch_costs: Vec<f64> = reports.iter().map(|r| r.solution.cost).collect();
            let single_costs: Vec<f64> = single.iter().map(|r| r.solution.cost).collect();
            assert_eq!(batch_costs, single_costs);
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        assert!(par_map::<usize, usize, _>(&[], |&x| x).is_empty());
    }
}
