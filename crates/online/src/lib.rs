//! # soar-online
//!
//! Incremental re-optimization for **dynamic** φ-BIC workloads.
//!
//! The offline SOAR pipeline solves a static snapshot `(T, L, Λ, k)` from
//! scratch in `O(n · h(T) · k²)`. The settings the paper targets — datacenter
//! aggregation under multi-tenant churn — are not static: tenants arrive and
//! depart, leaf sending rates drift, budgets change. Re-running the full DP
//! every epoch wastes almost all of its work, because the gather tables form a
//! *tree-structured* DP: a node's table depends only on its own load /
//! availability, its ρ prefix block and its children's `X` tables. A change at
//! one leaf therefore invalidates **only the root-to-leaf path** — `O(h(T))`
//! nodes, `O(h(T) · k²)` DP cells — and every other node's table can be reused
//! bit-for-bit.
//!
//! This crate turns that observation into an engine:
//!
//! * [`DynamicInstance`] — a mutable φ-BIC instance that applies
//!   [`ChurnEvent`]s (leaf rate changes, tenant arrivals/departures, budget
//!   changes, and the failure-domain events below) and tracks the **dirty
//!   subtree closure** with reusable buffers;
//! * [`IncrementalSolver`] — wraps a
//!   [`SolverWorkspace`] and re-solves
//!   an epoch by refilling only the dirty nodes
//!   ([`SolverWorkspace::gather_update`](soar_core::workspace::SolverWorkspace::gather_update)),
//!   then streams SOAR-Color through the workspace's reusable coloring — a
//!   warm epoch performs **zero heap allocations**;
//! * [`OnlineDriver`] — replays a [`ChurnTimeline`], optionally verifying
//!   every epoch against a from-scratch solve (bit-identical by construction),
//!   and reports the placement trajectory: cost over time, placement moves per
//!   epoch, and DP cells written incrementally vs from-scratch.
//!
//! ## Failure-domain churn
//!
//! Two event kinds model the network degrading rather than the workload
//! moving:
//!
//! * [`ChurnEvent::SwitchAvailability`] — a switch exhausts or regains its
//!   in-network compute capacity. An exhausted switch degrades to
//!   **forwarding-only**: the DP can no longer color it blue (its
//!   blue-conditioned potential is infinite), traffic still flows through it. Availability is an
//!   input of the per-node table fill, so the event dirties just the switch's
//!   root-to-leaf closure — as cheap as a leaf-load change.
//! * [`ChurnEvent::LinkRateChange`] — the rate ω of a switch's up-link moves
//!   (degradation or repair). The transmission time ρ = 1/ω of that link sits
//!   in the ρ prefix block of **every node below it**, so the event dirties
//!   the link's whole subtree; the partial gather then recomputes those
//!   blocks in place (the partial rho-arena reset) before refilling. Epochs
//!   stay bit-identical to from-scratch solves, and still touch only the
//!   affected region.
//!
//! ```
//! use soar_multitenant::churn::ChurnModel;
//! use soar_online::{DynamicInstance, OnlineDriver, Verify};
//! use soar_topology::builders;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A BT(64) under the default churn model, re-optimized for 8 epochs.
//! let tree = builders::complete_binary_tree_bt(64);
//! let timeline = ChurnModel::paper_default().generate(
//!     &tree, 8, &mut StdRng::seed_from_u64(7));
//! let mut instance = DynamicInstance::new(&tree, 4);
//! let report = OnlineDriver::with_verification(Verify::Tables)
//!     .run(&mut instance, &timeline)
//!     .unwrap();
//!
//! assert_eq!(report.len(), 8);
//! // After the first (necessarily full) epoch, updates are incremental and
//! // touch a small fraction of the DP table.
//! for epoch in &report.epochs[1..] {
//!     assert!(epoch.incremental);
//!     assert!(epoch.cells_written < epoch.cells_full);
//!     assert_eq!(epoch.alloc_events, 0, "warm epochs are allocation-free");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use soar_core::api::{DpStats, Instance};
use soar_core::workspace::SolverWorkspace;
use soar_multitenant::churn::{ChurnEvent, Epoch, TenantId};
use soar_reduce::Coloring;
use soar_topology::{NodeId, Tree};
use std::collections::BTreeMap;
use std::fmt;

pub use soar_multitenant::churn::{ChurnModel, ChurnTimeline};

/// Errors raised while applying churn events to a [`DynamicInstance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OnlineError {
    /// An event referenced a switch id outside the tree.
    UnknownSwitch(NodeId),
    /// A `LeafRateChange` targeted an internal switch.
    NotALeaf(NodeId),
    /// A `TenantArrive` reused the id of a still-active tenant.
    DuplicateTenant(TenantId),
    /// A `TenantDepart` named a tenant that is not active.
    UnknownTenant(TenantId),
    /// A `LinkRateChange` carried a non-positive or non-finite rate for the
    /// up-link of this switch.
    InvalidRate(NodeId),
    /// A `BudgetChange` asked for more blue switches than the tree has.
    InvalidBudget(usize),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::UnknownSwitch(v) => write!(f, "unknown switch id {v}"),
            OnlineError::NotALeaf(v) => {
                write!(f, "switch {v} is not a leaf (rate changes target leaves)")
            }
            OnlineError::DuplicateTenant(t) => write!(f, "tenant {t} is already active"),
            OnlineError::UnknownTenant(t) => write!(f, "tenant {t} is not active"),
            OnlineError::InvalidRate(v) => {
                write!(
                    f,
                    "link-rate change for switch {v} is not a positive finite rate"
                )
            }
            OnlineError::InvalidBudget(k) => {
                write!(f, "budget {k} exceeds the tree's switch count")
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Dirty-node bookkeeping with reusable buffers: which nodes' DP tables are
/// stale, and the ancestor-closed, deepest-first closure the partial gather
/// consumes. All buffers are preallocated at construction, so steady-state
/// epochs never allocate here.
#[derive(Debug, Clone)]
struct DirtyTracker {
    /// `marked[v]`: `v` is in the current dirty set (touched or an ancestor).
    marked: Vec<bool>,
    /// The dirty set in discovery order (deduplicated via `marked`).
    touched: Vec<NodeId>,
    /// The last computed closure, sorted deepest-first.
    closure: Vec<NodeId>,
    /// DFS scratch of [`Self::mark_subtree`].
    stack: Vec<NodeId>,
    /// The budget changed: the DP table shape is stale, a full re-gather is
    /// required regardless of the dirty set.
    budget_changed: bool,
}

impl DirtyTracker {
    fn new(n: usize) -> Self {
        DirtyTracker {
            marked: vec![false; n],
            touched: Vec::with_capacity(n),
            closure: Vec::with_capacity(n),
            stack: Vec::with_capacity(n),
            budget_changed: false,
        }
    }

    fn mark(&mut self, v: NodeId) {
        if !self.marked[v] {
            self.marked[v] = true;
            self.touched.push(v);
        }
    }

    /// Marks every node of the subtree rooted at `v` (inclusive) — the dirty
    /// footprint of a link-rate change on `v`'s up-link: the ρ prefix block of
    /// exactly these nodes contains the changed link, and the partial gather
    /// recomputes a dirty node's block before refilling it.
    fn mark_subtree(&mut self, tree: &Tree, v: NodeId) {
        self.stack.clear();
        self.stack.push(v);
        while let Some(u) = self.stack.pop() {
            self.mark(u);
            self.stack.extend_from_slice(tree.children(u));
        }
    }

    /// Ancestor-closes the dirty set and returns it sorted deepest-first (ties
    /// by id, so the order — and therefore every downstream statistic — is
    /// deterministic).
    fn closure(&mut self, tree: &Tree) -> &[NodeId] {
        let mut i = 0;
        while i < self.touched.len() {
            if let Some(parent) = tree.parent(self.touched[i]) {
                if !self.marked[parent] {
                    self.marked[parent] = true;
                    self.touched.push(parent);
                }
            }
            i += 1;
        }
        self.closure.clear();
        self.closure.extend_from_slice(&self.touched);
        self.closure
            .sort_unstable_by_key(|&v| (std::cmp::Reverse(tree.depth(v)), v));
        &self.closure
    }

    /// Clears the epoch's dirty set (buffers kept warm).
    fn reset_epoch(&mut self) {
        for &v in &self.touched {
            self.marked[v] = false;
        }
        self.touched.clear();
        self.budget_changed = false;
    }
}

/// A φ-BIC instance under churn: the shared topology with its current loads
/// and budget, the active tenants, and the dirty-subtree bookkeeping that
/// makes epoch re-solves incremental.
///
/// The tree's *shape* is fixed for the instance's lifetime — that is what
/// keeps the DP arena layout valid across epochs. Loads, the budget, switch
/// availability and link rates all churn through events; a clean node's table
/// stays valid because none of its fill inputs (own load/availability, ρ
/// prefix block, children's tables) moved.
#[derive(Debug, Clone)]
pub struct DynamicInstance {
    tree: Tree,
    budget: usize,
    /// Non-tenant ("background") load per switch, set by `LeafRateChange`.
    base_loads: Vec<u64>,
    /// Aggregate tenant load per switch (the sum of active footprints).
    tenant_loads: Vec<u64>,
    /// Active tenants and their footprints (ordered for deterministic debug
    /// output).
    tenants: BTreeMap<TenantId, Vec<(NodeId, u64)>>,
    dirty: DirtyTracker,
}

impl DynamicInstance {
    /// Wraps a tree (its current loads become the background load) with a
    /// starting budget.
    pub fn new(tree: &Tree, budget: usize) -> Self {
        let n = tree.n_switches();
        DynamicInstance {
            base_loads: tree.loads(),
            tenant_loads: vec![0; n],
            tenants: BTreeMap::new(),
            dirty: DirtyTracker::new(n),
            tree: tree.clone(),
            budget,
        }
    }

    /// Wraps an offline [`Instance`] snapshot (tree + budget).
    pub fn from_instance(instance: &Instance) -> Self {
        DynamicInstance::new(instance.tree(), instance.budget())
    }

    /// The current tree (loads reflect all applied events).
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The current aggregation budget `k`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of switches.
    pub fn n_switches(&self) -> usize {
        self.tree.n_switches()
    }

    /// Ids of the currently active tenants, in increasing order.
    pub fn active_tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// Applies one churn event, updating the tree's loads / the budget and
    /// marking the touched switches dirty. Failed events leave the instance
    /// unchanged.
    pub fn apply(&mut self, event: &ChurnEvent) -> Result<(), OnlineError> {
        let n = self.tree.n_switches();
        match event {
            ChurnEvent::LeafRateChange { leaf, load } => {
                if *leaf >= n {
                    return Err(OnlineError::UnknownSwitch(*leaf));
                }
                if !self.tree.is_leaf(*leaf) {
                    return Err(OnlineError::NotALeaf(*leaf));
                }
                if self.base_loads[*leaf] != *load {
                    self.base_loads[*leaf] = *load;
                    self.refresh_load(*leaf);
                }
            }
            ChurnEvent::TenantArrive { tenant, loads } => {
                if self.tenants.contains_key(tenant) {
                    return Err(OnlineError::DuplicateTenant(*tenant));
                }
                if let Some(&(v, _)) = loads.iter().find(|&&(v, _)| v >= n) {
                    return Err(OnlineError::UnknownSwitch(v));
                }
                for &(v, load) in loads {
                    self.tenant_loads[v] += load;
                    self.refresh_load(v);
                }
                self.tenants.insert(*tenant, loads.clone());
            }
            ChurnEvent::TenantDepart { tenant } => {
                let loads = self
                    .tenants
                    .remove(tenant)
                    .ok_or(OnlineError::UnknownTenant(*tenant))?;
                for (v, load) in loads {
                    self.tenant_loads[v] -= load;
                    self.refresh_load(v);
                }
            }
            ChurnEvent::BudgetChange { budget } => {
                if *budget > n {
                    return Err(OnlineError::InvalidBudget(*budget));
                }
                if self.budget != *budget {
                    self.budget = *budget;
                    self.dirty.budget_changed = true;
                }
            }
            ChurnEvent::SwitchAvailability { switch, available } => {
                if *switch >= n {
                    return Err(OnlineError::UnknownSwitch(*switch));
                }
                if self.tree.available(*switch) != *available {
                    self.tree.set_available(*switch, *available);
                    self.dirty.mark(*switch);
                }
            }
            ChurnEvent::LinkRateChange { switch, rate } => {
                if *switch >= n {
                    return Err(OnlineError::UnknownSwitch(*switch));
                }
                if !(rate.is_finite() && *rate > 0.0) {
                    return Err(OnlineError::InvalidRate(*switch));
                }
                if self.tree.rate(*switch) != *rate {
                    self.tree.set_rate(*switch, *rate);
                    // The changed link sits in the ρ prefix block of every
                    // node below it: dirty the whole subtree so the partial
                    // gather's rho-arena reset reaches each moved block.
                    self.dirty.mark_subtree(&self.tree, *switch);
                }
            }
        }
        Ok(())
    }

    /// Applies a whole epoch's events in order.
    pub fn apply_epoch(&mut self, events: &Epoch) -> Result<(), OnlineError> {
        let _apply = soar_obs::span!("epoch_apply", events.len());
        for event in events {
            self.apply(event)?;
        }
        Ok(())
    }

    /// Re-derives switch `v`'s effective load (background + tenants) and marks
    /// it dirty.
    fn refresh_load(&mut self, v: NodeId) {
        self.tree
            .set_load(v, self.base_loads[v] + self.tenant_loads[v]);
        self.dirty.mark(v);
    }

    /// A point-in-time offline [`Instance`] of the current state (clones the
    /// tree; used by verification and for hand-offs to the batch API).
    pub fn snapshot(&self) -> Instance {
        Instance::from_tree(&self.tree, self.budget)
    }

    /// Captures everything churn can move into a plain-data [`InstanceImage`].
    ///
    /// Restoring the image onto a freshly built instance of the same shape
    /// ([`Self::restore_image`]) reproduces this instance's solver-visible
    /// state **exactly** — loads, link rates (bit-for-bit), availability,
    /// budget and the active-tenant registry — which is what makes crash
    /// recovery from a snapshot bit-identical to never having crashed.
    pub fn image(&self) -> InstanceImage {
        let n = self.tree.n_switches();
        InstanceImage {
            budget: self.budget,
            base_loads: self.base_loads.clone(),
            rates: (0..n).map(|v| self.tree.rate(v)).collect(),
            available: (0..n).map(|v| self.tree.available(v)).collect(),
            tenants: self
                .tenants
                .iter()
                .map(|(t, loads)| (*t, loads.clone()))
                .collect(),
        }
    }

    /// Overwrites this instance's mutable state from an image captured by
    /// [`Self::image`] on an instance of the same shape. The next solve is
    /// forced full (everything is stale), after which epochs are incremental
    /// again.
    ///
    /// # Panics
    ///
    /// If the image's vectors do not match this instance's switch count or
    /// name switches outside the tree, or a rate is not positive and finite —
    /// callers deserializing untrusted bytes must validate first.
    pub fn restore_image(&mut self, image: &InstanceImage) {
        let n = self.tree.n_switches();
        assert_eq!(image.base_loads.len(), n, "image shape mismatch (loads)");
        assert_eq!(image.rates.len(), n, "image shape mismatch (rates)");
        assert_eq!(
            image.available.len(),
            n,
            "image shape mismatch (availability)"
        );
        self.budget = image.budget;
        self.base_loads.copy_from_slice(&image.base_loads);
        self.tenant_loads.iter_mut().for_each(|l| *l = 0);
        self.tenants.clear();
        for (tenant, loads) in &image.tenants {
            for &(v, load) in loads {
                assert!(
                    v < n,
                    "image tenant footprint names switch {v} outside the tree"
                );
                self.tenant_loads[v] += load;
            }
            self.tenants.insert(*tenant, loads.clone());
        }
        for v in 0..n {
            self.tree
                .set_load(v, self.base_loads[v] + self.tenant_loads[v]);
            self.tree.set_rate(v, image.rates[v]);
            self.tree.set_available(v, image.available[v]);
        }
        // Everything is potentially stale relative to any warm solver state:
        // force the next epoch full, exactly like a budget change does.
        self.dirty.reset_epoch();
        self.dirty.budget_changed = true;
    }
}

/// A plain-data image of a [`DynamicInstance`]'s mutable state — the
/// serialization boundary of crash-safe daemons. See
/// [`DynamicInstance::image`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceImage {
    /// The aggregation budget `k` at capture time.
    pub budget: usize,
    /// Per-switch background load (tenant contributions excluded).
    pub base_loads: Vec<u64>,
    /// Per-switch up-link rate ω (compare bit-for-bit, not approximately).
    pub rates: Vec<f64>,
    /// Per-switch availability `v ∈ Λ`.
    pub available: Vec<bool>,
    /// Active tenants and their footprints, in increasing tenant order.
    pub tenants: Vec<(TenantId, Vec<(NodeId, u64)>)>,
}

/// The outcome of one epoch's re-solve (the coloring itself is read through
/// [`IncrementalSolver::coloring`], borrow-free of this value).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSolve {
    /// Optimal utilization of the epoch's snapshot.
    pub cost: f64,
    /// The all-red baseline of the same snapshot (free out of the DP tables:
    /// `X_r(1, 0)`).
    pub all_red_cost: f64,
    /// Number of blue switches used.
    pub blue_used: usize,
    /// `false` for the (necessarily full) first solve and after budget
    /// changes; `true` when only the dirty closure was refilled.
    pub incremental: bool,
    /// DP statistics of the epoch's gather ([`DpStats::cells_written`] vs
    /// [`DpStats::table_cells`] is the incremental saving).
    pub dp: DpStats,
}

/// The incremental epoch solver: one warm [`SolverWorkspace`] tied to one
/// [`DynamicInstance`]'s shape.
///
/// The first [`IncrementalSolver::solve_epoch`] runs a full gather; subsequent
/// epochs refill only the dirty closure and re-trace the coloring through the
/// workspace's streaming buffers — bit-identical to a from-scratch solve, with
/// zero heap allocations once warm.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    workspace: SolverWorkspace,
    /// `(n_switches, budget)` the workspace's tables currently describe.
    shape: Option<(usize, usize)>,
}

impl IncrementalSolver {
    /// Creates a cold solver (the first epoch warms it).
    pub fn new() -> Self {
        IncrementalSolver::default()
    }

    /// Re-solves the instance after its pending events: incrementally when the
    /// shape is unchanged, from scratch otherwise. Consumes the instance's
    /// dirty set.
    pub fn solve_epoch(&mut self, instance: &mut DynamicInstance) -> EpochSolve {
        let DynamicInstance {
            tree,
            budget,
            dirty,
            ..
        } = instance;
        let k = *budget;
        let n = tree.n_switches();
        let incremental = self.shape == Some((n, k)) && !dirty.budget_changed;
        // Arg 1 = incremental epoch, 0 = full re-gather: the trace exporter
        // makes warm vs cold epochs distinguishable at a glance.
        let _solve = soar_obs::span!("epoch_solve", u64::from(incremental));
        if incremental {
            let closure = dirty.closure(tree);
            self.workspace.gather_update(tree, k, closure);
        } else {
            self.workspace.gather_auto(tree, k);
            self.shape = Some((n, k));
        }
        dirty.reset_epoch();
        trace_epoch(&mut self.workspace, tree, incremental)
    }

    /// Heap bytes this solver holds (see
    /// [`SolverWorkspace::heap_bytes`](soar_core::workspace::SolverWorkspace::heap_bytes)):
    /// what keeping it warm costs.
    pub fn heap_bytes(&self) -> usize {
        self.workspace.heap_bytes()
    }

    /// The placement of the most recent epoch (empty before the first).
    pub fn coloring(&self) -> &Coloring {
        self.workspace.coloring()
    }

    /// The DP tables of the most recent epoch — exactly what a from-scratch
    /// gather of the same snapshot would produce.
    pub fn tables(&self) -> &soar_core::GatherTables {
        self.workspace.tables()
    }
}

/// Solves `instance` from scratch on a borrowed workspace — a shared,
/// per-thread one, say — without consuming its dirty set: the cold
/// counterpart of [`IncrementalSolver::solve_epoch`], bit-identical to it on
/// the same snapshot.
pub fn solve_full(workspace: &mut SolverWorkspace, instance: &DynamicInstance) -> EpochSolve {
    workspace.gather_auto(instance.tree(), instance.budget());
    trace_epoch(workspace, instance.tree(), false)
}

/// Traces the best coloring of the workspace's fresh tables and reads the
/// epoch's outcome off them.
fn trace_epoch(workspace: &mut SolverWorkspace, tree: &Tree, incremental: bool) -> EpochSolve {
    let (cost, _) = workspace.trace_best(tree);
    EpochSolve {
        cost,
        all_red_cost: workspace.tables().optimum_with_exactly(0),
        blue_used: workspace.coloring().n_blue(),
        incremental,
        dp: DpStats::from_workspace(workspace),
    }
}

/// Per-epoch cross-checking mode of the [`OnlineDriver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Verify {
    /// No cross-checking (the production mode).
    #[default]
    None,
    /// Re-solve every epoch from scratch and assert the cost and coloring are
    /// identical.
    Solution,
    /// Re-gather every epoch from scratch and assert the **full DP tables**
    /// are bit-identical (the strongest check; implies `Solution`).
    Tables,
}

/// One row of the placement trajectory emitted by the [`OnlineDriver`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochMetrics {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Number of events applied this epoch.
    pub events: usize,
    /// Optimal utilization after the epoch's events.
    pub cost: f64,
    /// The all-red baseline of the same snapshot.
    pub all_red_cost: f64,
    /// Number of blue switches used.
    pub blue_used: usize,
    /// Switches whose color changed relative to the previous epoch (epoch 0
    /// counts against the all-red start).
    pub moves: usize,
    /// Whether the epoch was solved incrementally.
    pub incremental: bool,
    /// DP cells the epoch's gather actually wrote.
    pub cells_written: usize,
    /// DP cells a from-scratch gather would have written.
    pub cells_full: usize,
    /// Workspace buffer (re)allocations of the epoch — 0 once warm.
    pub alloc_events: usize,
}

impl EpochMetrics {
    /// Cost normalized to the epoch's own all-red baseline (`1.0` when there
    /// is no traffic).
    pub fn normalized_cost(&self) -> f64 {
        if self.all_red_cost == 0.0 {
            1.0
        } else {
            self.cost / self.all_red_cost
        }
    }
}

/// The placement trajectory of a replayed churn timeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ChurnReport {
    /// Per-epoch metrics, in replay order.
    pub epochs: Vec<EpochMetrics>,
}

impl ChurnReport {
    /// Number of epochs replayed.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// Whether no epoch was replayed.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Total placement moves across the timeline.
    pub fn total_moves(&self) -> usize {
        self.epochs.iter().map(|e| e.moves).sum()
    }

    /// The headline saving: total DP cells a from-scratch re-solve of every
    /// epoch would write, divided by the cells actually written. ≥ 1; grows
    /// with tree size for localized churn.
    pub fn cells_saving_factor(&self) -> f64 {
        let written: usize = self.epochs.iter().map(|e| e.cells_written).sum();
        let full: usize = self.epochs.iter().map(|e| e.cells_full).sum();
        if written == 0 {
            f64::INFINITY
        } else {
            full as f64 / written as f64
        }
    }
}

/// Replays a [`ChurnTimeline`] against a [`DynamicInstance`] with an
/// [`IncrementalSolver`], collecting the placement trajectory.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineDriver {
    /// Per-epoch cross-checking against a from-scratch solve.
    pub verify: Verify,
}

impl OnlineDriver {
    /// A driver without per-epoch verification.
    pub fn new() -> Self {
        OnlineDriver::default()
    }

    /// A driver that cross-checks every epoch at the given strength.
    pub fn with_verification(verify: Verify) -> Self {
        OnlineDriver { verify }
    }

    /// Applies each epoch's events and re-solves, returning the trajectory.
    ///
    /// # Panics
    ///
    /// With [`Verify::Solution`] / [`Verify::Tables`], panics if an
    /// incremental epoch ever deviates from the from-scratch solve of the same
    /// snapshot — that would be a solver bug, not an input error.
    pub fn run(
        &self,
        instance: &mut DynamicInstance,
        timeline: &[Epoch],
    ) -> Result<ChurnReport, OnlineError> {
        let mut solver = IncrementalSolver::new();
        let mut previous = Coloring::all_red(instance.n_switches());
        let mut report = ChurnReport::default();
        for (epoch, events) in timeline.iter().enumerate() {
            instance.apply_epoch(events)?;
            let outcome = solver.solve_epoch(instance);
            self.verify_epoch(epoch, instance, &solver, &outcome);
            let moves = solver.coloring().count_differences(&previous);
            previous.copy_from(solver.coloring());
            report.epochs.push(EpochMetrics {
                epoch,
                events: events.len(),
                cost: outcome.cost,
                all_red_cost: outcome.all_red_cost,
                blue_used: outcome.blue_used,
                moves,
                incremental: outcome.incremental,
                cells_written: outcome.dp.cells_written,
                cells_full: outcome.dp.table_cells,
                alloc_events: outcome.dp.alloc_events,
            });
        }
        Ok(report)
    }

    fn verify_epoch(
        &self,
        epoch: usize,
        instance: &DynamicInstance,
        solver: &IncrementalSolver,
        outcome: &EpochSolve,
    ) {
        match self.verify {
            Verify::None => {}
            Verify::Solution => {
                let fresh = soar_core::solve(instance.tree(), instance.budget());
                assert_eq!(
                    outcome.cost, fresh.cost,
                    "epoch {epoch}: incremental cost deviates from a fresh solve"
                );
                assert_eq!(
                    *solver.coloring(),
                    fresh.coloring,
                    "epoch {epoch}: incremental coloring deviates from a fresh solve"
                );
            }
            Verify::Tables => {
                let fresh = soar_core::soar_gather(instance.tree(), instance.budget());
                assert_eq!(
                    *solver.tables(),
                    fresh,
                    "epoch {epoch}: incremental DP tables deviate from a fresh gather"
                );
                let (fresh_coloring, fresh_cost) = soar_core::soar_color(instance.tree(), &fresh);
                assert_eq!(outcome.cost, fresh_cost, "epoch {epoch}: cost deviates");
                assert_eq!(
                    *solver.coloring(),
                    fresh_coloring,
                    "epoch {epoch}: coloring deviates"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use soar_multitenant::churn::ChurnModel;
    use soar_topology::builders;

    fn bt_with_loads(n: usize, seed: u64) -> Tree {
        let mut tree = builders::complete_binary_tree_bt(n);
        let mut rng = StdRng::seed_from_u64(seed);
        tree.apply_leaf_loads(&soar_topology::load::LoadSpec::paper_uniform(), &mut rng);
        tree
    }

    #[test]
    fn dirty_closure_is_ancestor_closed_and_deepest_first() {
        let tree = builders::complete_binary_tree(15);
        let mut dirty = DirtyTracker::new(15);
        dirty.mark(9); // a depth-3 leaf: closure is its whole root path
        dirty.mark(9); // marking twice is idempotent
        let closure: Vec<NodeId> = dirty.closure(&tree).to_vec();
        assert_eq!(closure, vec![9, 4, 1, 0]);
        dirty.reset_epoch();
        assert!(dirty.closure(&tree).is_empty());

        // Two leaves under one internal node share the ancestor suffix.
        dirty.mark(9);
        dirty.mark(10);
        let closure: Vec<NodeId> = dirty.closure(&tree).to_vec();
        assert_eq!(closure, vec![9, 10, 4, 1, 0]);
    }

    #[test]
    fn events_mutate_loads_and_are_validated() {
        let tree = bt_with_loads(32, 1);
        let mut instance = DynamicInstance::new(&tree, 4);
        let leaf = tree.leaves().next().unwrap();
        let internal = tree.internal_nodes().next().unwrap();
        let before = instance.tree().load(leaf);

        instance
            .apply(&ChurnEvent::LeafRateChange { leaf, load: 17 })
            .unwrap();
        assert_eq!(instance.tree().load(leaf), 17);
        instance
            .apply(&ChurnEvent::TenantArrive {
                tenant: 5,
                loads: vec![(leaf, 3)],
            })
            .unwrap();
        assert_eq!(instance.tree().load(leaf), 20, "tenant load stacks on top");
        assert_eq!(instance.active_tenants(), vec![5]);
        instance
            .apply(&ChurnEvent::TenantDepart { tenant: 5 })
            .unwrap();
        assert_eq!(instance.tree().load(leaf), 17);
        let _ = before;

        assert_eq!(
            instance.apply(&ChurnEvent::LeafRateChange {
                leaf: internal,
                load: 1
            }),
            Err(OnlineError::NotALeaf(internal))
        );
        assert_eq!(
            instance.apply(&ChurnEvent::LeafRateChange { leaf: 999, load: 1 }),
            Err(OnlineError::UnknownSwitch(999))
        );
        assert_eq!(
            instance.apply(&ChurnEvent::TenantDepart { tenant: 42 }),
            Err(OnlineError::UnknownTenant(42))
        );
        instance
            .apply(&ChurnEvent::TenantArrive {
                tenant: 7,
                loads: vec![(leaf, 1)],
            })
            .unwrap();
        assert_eq!(
            instance.apply(&ChurnEvent::TenantArrive {
                tenant: 7,
                loads: vec![(leaf, 1)],
            }),
            Err(OnlineError::DuplicateTenant(7))
        );
    }

    #[test]
    fn incremental_epochs_match_fresh_solves_and_save_cells() {
        let tree = bt_with_loads(128, 3);
        let timeline =
            ChurnModel::paper_default().generate(&tree, 12, &mut StdRng::seed_from_u64(9));
        let mut instance = DynamicInstance::new(&tree, 8);
        let report = OnlineDriver::with_verification(Verify::Tables)
            .run(&mut instance, &timeline)
            .unwrap();
        assert_eq!(report.len(), 12);
        assert!(!report.epochs[0].incremental, "first epoch is a full solve");
        assert_eq!(report.epochs[0].cells_written, report.epochs[0].cells_full);
        for epoch in &report.epochs[1..] {
            assert!(epoch.incremental);
            assert!(
                epoch.cells_written < epoch.cells_full,
                "epoch {}: {} vs {}",
                epoch.epoch,
                epoch.cells_written,
                epoch.cells_full
            );
            assert_eq!(epoch.alloc_events, 0, "warm epochs are allocation-free");
            assert!(epoch.normalized_cost() <= 1.0 + 1e-9);
        }
        assert!(report.cells_saving_factor() > 1.0);
        assert!(report.total_moves() > 0, "churn moves the placement");
    }

    #[test]
    fn failure_events_stay_incremental_and_bit_identical() {
        let tree = bt_with_loads(128, 7);
        let internal = tree
            .internal_nodes()
            .find(|&v| v != soar_topology::ROOT)
            .unwrap();
        let leaf = tree.leaves().next().unwrap();
        let timeline: ChurnTimeline = vec![
            vec![],
            // A switch exhausts its compute capacity: forwarding-only.
            vec![ChurnEvent::SwitchAvailability {
                switch: internal,
                available: false,
            }],
            // Its up-link degrades to half rate while it is down.
            vec![ChurnEvent::LinkRateChange {
                switch: internal,
                rate: 0.5,
            }],
            // Capacity recovers; a leaf link degrades in the same epoch.
            vec![
                ChurnEvent::SwitchAvailability {
                    switch: internal,
                    available: true,
                },
                ChurnEvent::LinkRateChange {
                    switch: leaf,
                    rate: 0.25,
                },
            ],
            // Repair back to the original rate.
            vec![ChurnEvent::LinkRateChange {
                switch: internal,
                rate: 1.0,
            }],
        ];
        let mut instance = DynamicInstance::new(&tree, 6);
        let report = OnlineDriver::with_verification(Verify::Tables)
            .run(&mut instance, &timeline)
            .unwrap();
        for epoch in &report.epochs[1..] {
            assert!(epoch.incremental, "epoch {} went full", epoch.epoch);
            assert!(
                epoch.cells_written < epoch.cells_full,
                "epoch {}: failure events must not touch the whole table",
                epoch.epoch
            );
            assert_eq!(epoch.alloc_events, 0, "warm epochs are allocation-free");
        }
        assert!(instance.tree().available(internal));
        assert_eq!(instance.tree().rate(internal), 1.0);
        assert_eq!(instance.tree().rate(leaf), 0.25);
    }

    #[test]
    fn degraded_switch_is_never_colored_blue() {
        let tree = bt_with_loads(64, 11);
        let mut instance = DynamicInstance::new(&tree, 8);
        let mut solver = IncrementalSolver::new();
        let _ = solver.solve_epoch(&mut instance);
        // Exhaust every switch the first solve colored blue: the re-solve must
        // degrade all of them to forwarding-only.
        let blues: Vec<NodeId> = (0..tree.n_switches())
            .filter(|&v| solver.coloring().is_blue(v))
            .collect();
        assert!(!blues.is_empty());
        for &v in &blues {
            instance
                .apply(&ChurnEvent::SwitchAvailability {
                    switch: v,
                    available: false,
                })
                .unwrap();
        }
        let outcome = solver.solve_epoch(&mut instance);
        assert!(outcome.incremental);
        for &v in &blues {
            assert!(
                !solver.coloring().is_blue(v),
                "switch {v} is exhausted but still aggregating"
            );
        }
        let fresh = soar_core::solve(instance.tree(), instance.budget());
        assert_eq!(outcome.cost, fresh.cost);
    }

    #[test]
    fn failure_events_are_validated() {
        let tree = bt_with_loads(32, 13);
        let mut instance = DynamicInstance::new(&tree, 4);
        assert_eq!(
            instance.apply(&ChurnEvent::SwitchAvailability {
                switch: 999,
                available: false
            }),
            Err(OnlineError::UnknownSwitch(999))
        );
        assert_eq!(
            instance.apply(&ChurnEvent::LinkRateChange {
                switch: 999,
                rate: 1.0
            }),
            Err(OnlineError::UnknownSwitch(999))
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                instance.apply(&ChurnEvent::LinkRateChange {
                    switch: 1,
                    rate: bad
                }),
                Err(OnlineError::InvalidRate(1)),
                "rate {bad} must be rejected"
            );
        }
        // Rejected events leave the instance clean: the next solve is full
        // (first) then a no-op epoch stays incremental with zero cells.
        let mut solver = IncrementalSolver::new();
        let _ = solver.solve_epoch(&mut instance);
        let outcome = solver.solve_epoch(&mut instance);
        assert!(outcome.incremental);
        assert_eq!(outcome.dp.cells_written, 0);
    }

    #[test]
    fn budget_changes_force_a_full_resolve_then_go_incremental_again() {
        let tree = bt_with_loads(64, 5);
        let leaf = tree.leaves().next().unwrap();
        let timeline: ChurnTimeline = vec![
            vec![],
            vec![ChurnEvent::BudgetChange { budget: 6 }],
            vec![ChurnEvent::LeafRateChange { leaf, load: 40 }],
        ];
        let mut instance = DynamicInstance::new(&tree, 3);
        let report = OnlineDriver::with_verification(Verify::Tables)
            .run(&mut instance, &timeline)
            .unwrap();
        assert!(!report.epochs[0].incremental);
        assert!(
            !report.epochs[1].incremental,
            "a budget change reshapes the DP tables"
        );
        assert!(report.epochs[2].incremental);
        assert_eq!(instance.budget(), 6);
        // Raising the budget cannot hurt.
        assert!(report.epochs[1].cost <= report.epochs[0].cost + 1e-9);
    }

    #[test]
    fn budget_above_the_switch_count_is_rejected_and_changes_nothing() {
        let tree = bt_with_loads(64, 6);
        let n = tree.n_switches();
        let mut instance = DynamicInstance::new(&tree, 3);
        let mut solver = IncrementalSolver::new();
        let _ = solver.solve_epoch(&mut instance);
        assert_eq!(
            instance.apply(&ChurnEvent::BudgetChange { budget: n + 1 }),
            Err(OnlineError::InvalidBudget(n + 1))
        );
        assert_eq!(instance.budget(), 3);
        // The rejected event dirtied nothing: the next epoch stays incremental.
        let outcome = solver.solve_epoch(&mut instance);
        assert!(outcome.incremental);
        assert_eq!(outcome.dp.cells_written, 0);
        // Every switch blue is the largest valid budget.
        instance
            .apply(&ChurnEvent::BudgetChange { budget: n })
            .unwrap();
        assert_eq!(instance.budget(), n);
    }

    #[test]
    fn a_no_event_epoch_is_free_and_stable() {
        let tree = bt_with_loads(64, 8);
        let mut instance = DynamicInstance::new(&tree, 4);
        let timeline: ChurnTimeline = vec![vec![], vec![]];
        let report = OnlineDriver::with_verification(Verify::Solution)
            .run(&mut instance, &timeline)
            .unwrap();
        assert_eq!(report.epochs[1].cells_written, 0, "nothing dirty, no work");
        assert_eq!(report.epochs[1].moves, 0);
        assert_eq!(report.epochs[1].cost, report.epochs[0].cost);
    }

    #[test]
    fn image_restore_reproduces_solver_state_bit_for_bit() {
        let tree = bt_with_loads(64, 21);
        let mut instance = DynamicInstance::new(&tree, 5);
        let leaf = tree.leaves().next().unwrap();
        let internal = tree
            .internal_nodes()
            .find(|&v| v != soar_topology::ROOT)
            .unwrap();
        for event in [
            ChurnEvent::LeafRateChange { leaf, load: 33 },
            ChurnEvent::TenantArrive {
                tenant: 2,
                loads: vec![(leaf, 4)],
            },
            ChurnEvent::SwitchAvailability {
                switch: internal,
                available: false,
            },
            ChurnEvent::LinkRateChange {
                switch: internal,
                rate: 0.3,
            },
            ChurnEvent::BudgetChange { budget: 7 },
        ] {
            instance.apply(&event).unwrap();
        }

        let image = instance.image();
        let mut restored = DynamicInstance::new(&tree, 5);
        restored.restore_image(&image);

        assert_eq!(restored.budget(), 7);
        assert_eq!(restored.active_tenants(), vec![2]);
        for v in 0..tree.n_switches() {
            assert_eq!(restored.tree().load(v), instance.tree().load(v), "load {v}");
            assert_eq!(
                restored.tree().rate(v).to_bits(),
                instance.tree().rate(v).to_bits(),
                "rate {v}"
            );
            assert_eq!(
                restored.tree().available(v),
                instance.tree().available(v),
                "availability {v}"
            );
        }
        // Solves of original and restored instance are bit-identical, and the
        // restored instance keeps absorbing events (incl. a departure of the
        // restored tenant registry's entry).
        let a = soar_core::solve(instance.tree(), instance.budget());
        let b = soar_core::solve(restored.tree(), restored.budget());
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.coloring, b.coloring);
        restored
            .apply(&ChurnEvent::TenantDepart { tenant: 2 })
            .unwrap();
        instance
            .apply(&ChurnEvent::TenantDepart { tenant: 2 })
            .unwrap();
        assert_eq!(restored.tree().load(leaf), instance.tree().load(leaf));
        // A restored instance's first solve is full, then incremental again.
        let mut solver = IncrementalSolver::new();
        let _ = solver.solve_epoch(&mut restored);
        let first = solver.solve_epoch(&mut restored);
        assert!(first.incremental);
    }

    #[test]
    fn solve_full_matches_an_epoch_and_leaves_the_dirty_set() {
        let tree = bt_with_loads(128, 4);
        let leaf = tree.leaves().next().unwrap();
        let mut instance = DynamicInstance::new(&tree, 5);
        let mut solver = IncrementalSolver::new();
        solver.solve_epoch(&mut instance);
        instance
            .apply(&ChurnEvent::LeafRateChange { leaf, load: 50 })
            .unwrap();
        let mut workspace = SolverWorkspace::new();
        let cold = solve_full(&mut workspace, &instance);
        // The cold solve left the leaf's root path dirty for the epoch.
        let warm = solver.solve_epoch(&mut instance);
        assert!(warm.incremental && !cold.incremental);
        assert!(warm.dp.cells_written > 0);
        assert!(warm.dp.cells_written < cold.dp.cells_written);
        assert_eq!(warm.cost.to_bits(), cold.cost.to_bits());
        assert_eq!(warm.all_red_cost.to_bits(), cold.all_red_cost.to_bits());
        assert_eq!(warm.blue_used, cold.blue_used);
        assert_eq!(warm.dp.table_cells, cold.dp.table_cells);
        assert_eq!(workspace.coloring(), solver.coloring());
        assert!(solver.heap_bytes() > soar_core::GatherTables::layout_bytes(&tree, 5));
    }

    #[test]
    fn snapshot_hands_the_current_state_to_the_offline_api() {
        let tree = bt_with_loads(32, 2);
        let leaf = tree.leaves().next().unwrap();
        let mut instance = DynamicInstance::new(&tree, 2);
        instance
            .apply(&ChurnEvent::LeafRateChange { leaf, load: 30 })
            .unwrap();
        let snapshot = instance.snapshot();
        assert_eq!(snapshot.budget(), 2);
        assert_eq!(snapshot.tree().load(leaf), 30);
        use soar_core::api::Solver as _;
        let mut solver = IncrementalSolver::new();
        let outcome = solver.solve_epoch(&mut instance);
        let offline = soar_core::api::SoarSolver.solve(&snapshot).solution;
        assert_eq!(outcome.cost, offline.cost);
        assert_eq!(*solver.coloring(), offline.coloring);
    }
}
