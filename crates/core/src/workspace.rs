//! Reusable solver state: the arena behind allocation-free SOAR solves.
//!
//! A [`SolverWorkspace`] owns everything a SOAR solve needs besides the instance
//! itself: the [`GatherTables`] arena (every node's DP table in one flat buffer,
//! offsets precomputed from the tree shape) and the [`DpScratch`] ping-pong
//! buffers of the `mCost` recursion. Both are reused across budgets and across
//! instances — buffers shrink by truncation and grow by doubling, so after one
//! warm-up pass on the largest shape a sweep touches, **every subsequent solve
//! performs zero heap allocations**:
//!
//! ```
//! use soar_core::workspace::SolverWorkspace;
//! use soar_topology::builders;
//!
//! let mut tree = builders::complete_binary_tree(31);
//! for v in tree.leaves().collect::<Vec<_>>() {
//!     tree.set_load(v, 5);
//! }
//! let mut ws = SolverWorkspace::new();
//! let warm_up = ws.solve(&tree, 4);            // allocates the arena once
//! let reused = ws.solve(&tree, 4);             // allocation-free replay
//! assert_eq!(warm_up, reused);
//! assert_eq!(ws.last_alloc_events(), 0);       // the stat behind DpStats
//! assert!(ws.peak_bytes() > 0);
//! ```
//!
//! The workspace is deliberately *not* `Sync`: each thread owns one. The
//! [`with_thread_workspace`] helper hands out a per-thread workspace (used by
//! [`SoarSolver`](crate::api::SoarSolver) and the sweep entry points), which is
//! what makes `solve_batch` over a `soar-pool` allocation-free in steady state —
//! every pool worker warms its workspace on the first instance it touches and
//! replays it for the rest of the batch.

use crate::color::soar_color_exact_into;
use crate::gather::{run_gather, run_gather_parallel};
use crate::node_dp::{DpKernel, DpScratch};
use crate::solver::Solution;
use crate::tables::GatherTables;
use soar_pool::ThreadPool;
use soar_reduce::Coloring;
use soar_topology::{NodeId, Tree};
use std::cell::RefCell;

/// Below this many switches a single gather is cheaper sequentially than the
/// per-level fork/join of the parallel path (measured on BT instances; levels of
/// small trees hold too few cells to amortize even a mutex-guarded deque push).
pub const PARALLEL_GATHER_MIN_SWITCHES: usize = 2048;

/// A pass whose reserved capacity exceeds its live working set by this factor
/// counts towards the shrink-on-idle streak.
const SHRINK_FACTOR: usize = 8;
/// Consecutive oversized passes before the workspace releases its buffers.
const SHRINK_AFTER_PASSES: u32 = 16;
/// Workspaces below this reserved footprint never auto-shrink (not worth the
/// re-warm).
const SHRINK_MIN_BYTES: usize = 1 << 20;
/// Reserved footprints above this trip the *fast* shrink path: after only
/// [`SHRINK_BIG_AFTER_PASSES`] oversized passes the arena is truncated to its
/// live size instead of waiting out the full `SHRINK_AFTER_PASSES` streak.
/// A resident `soar serve` tenant mix must not pin a 1M-switch solve's
/// multi-gigabyte arena for sixteen passes.
pub const SHRINK_BIG_BYTES: usize = 64 << 20;
/// Oversized-pass streak that truncates a [`SHRINK_BIG_BYTES`]-sized arena.
pub const SHRINK_BIG_AFTER_PASSES: u32 = 2;

/// Reusable state for repeated SOAR solves; see the [module docs](self).
#[derive(Debug, Default)]
pub struct SolverWorkspace {
    tables: GatherTables,
    scratches: Vec<DpScratch>,
    /// The streaming SOAR-Color destination: traces write here in place, so
    /// sweep-heavy callers and online epoch loops run without a per-trace
    /// `Coloring` allocation.
    coloring: Coloring,
    /// Reusable work list of the SOAR-Color traceback.
    trace_stack: Vec<(NodeId, usize, usize)>,
    last_alloc_events: usize,
    total_alloc_events: usize,
    /// `X` cells written by the most recent gather: the full table for a fresh
    /// or replayed pass, only the dirty nodes' cells for a
    /// [`Self::gather_update`] — the work measure behind the incremental-solve
    /// speedup reported by [`DpStats`](crate::api::DpStats).
    last_cells_written: usize,
    peak_bytes: usize,
    /// Consecutive passes whose live working set was a small fraction of the
    /// reserved capacity — the shrink-on-idle trigger.
    oversized_streak: u32,
    /// The `mCost` kernel every gather runs: [`DpKernel::Pruned`] unless a
    /// test picks the scalar oracle with [`Self::set_kernel`].
    kernel: DpKernel,
    /// Split candidates evaluated by the most recent gather.
    last_split_evals: usize,
    /// Split candidates skipped by the most recent gather's pruning.
    last_pruned_splits: usize,
    /// Color steps the most recent trace ran (switches that held budget).
    last_nodes_traced: usize,
}

impl SolverWorkspace {
    /// Creates an empty workspace; all buffers are allocated lazily by the first
    /// gather and reused afterwards.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Runs SOAR-Gather sequentially, reusing this workspace's buffers. The
    /// returned tables stay valid (and reusable by [`Self::tables`]) until the
    /// next gather or solve on this workspace.
    pub fn gather(&mut self, tree: &Tree, k: usize) -> &GatherTables {
        let mut events;
        {
            let _reset = soar_obs::span!("ws_reset", tree.n_switches());
            events = self.maybe_shrink();
            events += self.tables.reset(tree, k);
        }
        if self.scratches.is_empty() {
            self.scratches.push(DpScratch::new());
        }
        events += run_gather(
            &mut self.tables,
            tree,
            None,
            &mut self.scratches[0],
            self.kernel,
        );
        let cells = self.tables.table_cells();
        self.finish_pass(events, cells);
        &self.tables
    }

    /// Incrementally refreshes this workspace's tables after a *localized*
    /// change to the tree: only the nodes in `dirty` are refilled, every other
    /// node's table is reused as-is. This is the `soar-online` epoch hot path —
    /// a single-leaf change on a tree of height `h` rewrites `O(h · k²)` cells
    /// instead of the full `O(n · h · k²)` pass, and a warm workspace does it
    /// with **zero heap allocations**.
    ///
    /// `dirty` must be ancestor-closed and sorted deepest-first (see
    /// [`run_gather`](crate::gather)); the tree's *shape* and the
    /// budget must be unchanged since the full gather that filled this
    /// workspace. Loads and availability may differ freely — those are inputs
    /// of the per-node fill, not of the arena layout. Link rates may differ
    /// too, because every dirty node's ρ prefix block is recomputed before its
    /// refill (the partial rho-arena reset); the rate-change contract is that
    /// a changed up-link of `w` dirties all of `subtree(w)` — exactly the
    /// nodes whose ρ blocks the change moves. The result is bit-identical to a
    /// from-scratch [`Self::gather`] on the same tree.
    ///
    /// The cheap layout checks below (switch count, budget, height, and every
    /// dirty node's row count) catch a workspace warmed on a *different* tree
    /// shape; they cannot see shape drift or rate drift at clean nodes, which
    /// is exactly the contract above — clean nodes are trusted verbatim.
    /// `soar-online` upholds it by fixing the topology for a
    /// `DynamicInstance`'s lifetime and marking the whole affected subtree
    /// dirty on link-rate events.
    ///
    /// # Panics
    ///
    /// Panics if the workspace does not currently hold tables laid out for
    /// this tree shape and budget — run a full [`Self::gather`] first.
    pub fn gather_update(&mut self, tree: &Tree, k: usize, dirty: &[NodeId]) -> &GatherTables {
        assert!(
            self.tables.n_switches() == tree.n_switches()
                && self.tables.k == k
                && self.tables.n_levels() == tree.height() + 1,
            "gather_update needs a prior full gather of the same tree shape and budget \
             (workspace holds {} switches at k = {}, asked for {} at k = {k})",
            self.tables.n_switches(),
            self.tables.k,
            tree.n_switches(),
        );
        for &v in dirty {
            assert!(
                self.tables.node_rows(v) == tree.dist_to_dest(v) + 1,
                "gather_update: node {v}'s table layout does not match the tree \
                 (the workspace was warmed on a different shape)"
            );
            // The closure contract (parents of dirty nodes are dirty too) is a
            // caller invariant; O(d²) to check, so debug builds only.
            debug_assert!(
                tree.parent(v).is_none_or(|p| dirty.contains(&p)),
                "gather_update: dirty set is not ancestor-closed (node {v}'s parent is clean)"
            );
        }
        // The span argument is the dirty-closure size — the work measure of an
        // incremental solve, scrapeable straight off a Perfetto trace.
        let _update = soar_obs::span!("gather_update", dirty.len());
        if self.scratches.is_empty() {
            self.scratches.push(DpScratch::new());
        }
        let events = run_gather(
            &mut self.tables,
            tree,
            Some(dirty),
            &mut self.scratches[0],
            self.kernel,
        );
        let cells = dirty.iter().map(|&v| self.tables.node_cells(v)).sum();
        self.finish_pass(events, cells);
        &self.tables
    }

    /// Runs SOAR-Gather with each tree level processed concurrently on `pool`
    /// (bit-identical results to [`Self::gather`]; see
    /// [`run_gather_parallel`](crate::gather)).
    pub fn gather_parallel(&mut self, tree: &Tree, k: usize, pool: &ThreadPool) -> &GatherTables {
        let mut events;
        {
            let _reset = soar_obs::span!("ws_reset", tree.n_switches());
            events = self.maybe_shrink();
            events += self.tables.reset(tree, k);
        }
        events += run_gather_parallel(
            &mut self.tables,
            tree,
            &mut self.scratches,
            pool,
            self.kernel,
        );
        let cells = self.tables.table_cells();
        self.finish_pass(events, cells);
        &self.tables
    }

    /// Gathers with the global pool when the instance is large enough to amortize
    /// per-level fork/join ([`PARALLEL_GATHER_MIN_SWITCHES`]) and the pool has
    /// more than one worker; sequentially otherwise.
    pub fn gather_auto(&mut self, tree: &Tree, k: usize) -> &GatherTables {
        let pool = soar_pool::global();
        if pool.threads() > 1 && tree.n_switches() >= PARALLEL_GATHER_MIN_SWITCHES {
            self.gather_parallel(tree, k, pool)
        } else {
            self.gather(tree, k)
        }
    }

    /// Solves the instance end to end (gather + color) with this workspace's
    /// buffers, choosing the gather mode like [`Self::gather_auto`].
    ///
    /// The coloring is traced through the workspace's streaming buffers and
    /// cloned once into the returned [`Solution`]; callers that only need to
    /// *read* the placement (sweeps, online epoch loops) should use
    /// [`Self::trace_best`] / [`Self::coloring`] instead, which allocate
    /// nothing once warm.
    pub fn solve(&mut self, tree: &Tree, k: usize) -> Solution {
        self.gather_auto(tree, k);
        let (cost, _) = self.trace_best(tree);
        Solution {
            blue_used: self.coloring.n_blue(),
            cost,
            coloring: self.coloring.clone(),
            budget: k,
        }
    }

    /// Runs SOAR-Color for the best blue count `i ≤ k` of the current tables,
    /// tracing into this workspace's reusable coloring (readable via
    /// [`Self::coloring`] until the next trace). Returns `(cost, best_i)`.
    /// Allocation-free once warm; buffer growths are folded into
    /// [`Self::last_alloc_events`]. Only switches handed a positive share of
    /// `best_i` are visited — at most `1 + best_i·h(T)` of them, counted by
    /// [`Self::last_nodes_traced`]; a switch handed 0 stays red with its
    /// whole subtree (see [`crate::color`]).
    pub fn trace_best(&mut self, tree: &Tree) -> (f64, usize) {
        let (best_i, best_cost) = self.tables.optimum();
        self.trace_exact(tree, best_i);
        (best_cost, best_i)
    }

    /// Runs SOAR-Color for **exactly** `i` blue nodes through the workspace's
    /// reusable buffers (see [`Self::trace_best`]); returns the traced cost
    /// `X_r(1, i)`.
    pub fn trace_exact(&mut self, tree: &Tree, i: usize) -> f64 {
        let _trace = soar_obs::span!("traceback", i);
        let (events, traced) = soar_color_exact_into(
            tree,
            &self.tables,
            i,
            &mut self.coloring,
            &mut self.trace_stack,
        );
        self.last_alloc_events += events;
        self.total_alloc_events += events;
        self.last_nodes_traced = traced;
        soar_obs::counter!(
            "soar_traceback_nodes_total",
            "SOAR-Color steps run by tracebacks: the switches handed budget"
        )
        .add(traced as u64);
        self.tables.optimum_with_exactly(i)
    }

    /// The coloring of the most recent [`Self::trace_best`] /
    /// [`Self::trace_exact`] / [`Self::solve`] (empty before the first trace).
    pub fn coloring(&self) -> &Coloring {
        &self.coloring
    }

    /// The tables of the most recent gather (empty before the first one).
    pub fn tables(&self) -> &GatherTables {
        &self.tables
    }

    /// Consumes the workspace, returning the tables of the most recent gather.
    pub fn into_tables(self) -> GatherTables {
        self.tables
    }

    /// Number of buffer (re)allocations the most recent gather performed — the
    /// headline stat: **0 once the workspace is warm** for the shapes it sees.
    pub fn last_alloc_events(&self) -> usize {
        self.last_alloc_events
    }

    /// Total buffer (re)allocations over this workspace's lifetime (a handful of
    /// warm-up growths; does not scale with the number of solves).
    pub fn total_alloc_events(&self) -> usize {
        self.total_alloc_events
    }

    /// `X` cells written by the most recent gather on this workspace: the full
    /// table for [`Self::gather`] / [`Self::gather_parallel`], only the dirty
    /// nodes' cells for [`Self::gather_update`]. Fed into
    /// [`DpStats::cells_written`](crate::api::DpStats::cells_written).
    pub fn last_cells_written(&self) -> usize {
        self.last_cells_written
    }

    /// Color steps the most recent [`Self::trace_best`] / [`Self::trace_exact`]
    /// ran: the switches that were handed a positive share of the budget, plus
    /// the root — at most `1 + i·h(T)`, and 0 before the first trace. The
    /// process-wide sum is the `soar_traceback_nodes_total` counter.
    pub fn last_nodes_traced(&self) -> usize {
        self.last_nodes_traced
    }

    /// High-water heap footprint of the workspace (arena + scratch), in bytes.
    pub fn peak_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Heap bytes the workspace holds now: the reserved arenas and their
    /// layout index, the DP scratch, the coloring and the traceback stack.
    /// Unlike [`Self::peak_bytes`] it is the current footprint, and it counts
    /// every buffer — what a caller keeping many workspaces warm budgets.
    pub fn heap_bytes(&self) -> usize {
        self.tables.heap_bytes()
            + self
                .scratches
                .iter()
                .map(DpScratch::memory_bytes)
                .sum::<usize>()
            + self.coloring.len()
            + self.trace_stack.capacity() * std::mem::size_of::<(NodeId, usize, usize)>()
    }

    /// Picks the `mCost` kernel for every subsequent gather on this
    /// workspace. Production code never calls it: the default is
    /// [`DpKernel::Pruned`], and tests pass [`DpKernel::Scalar`] to run the
    /// reference oracle the pruned kernel is compared against.
    pub fn set_kernel(&mut self, kernel: DpKernel) {
        self.kernel = kernel;
    }

    /// Split candidates the most recent gather evaluated: the exact work of
    /// its `mCost` arg-min scans. With [`Self::last_pruned_splits`] it adds
    /// up to the candidate count of the unpruned search.
    pub fn last_split_evals(&self) -> usize {
        self.last_split_evals
    }

    /// Split candidates the most recent gather's pruning skipped relative to
    /// the full quadratic arg-min search (0 for the scalar kernel).
    pub fn last_pruned_splits(&self) -> usize {
        self.last_pruned_splits
    }

    /// Releases every retained buffer (arena and scratch), returning the
    /// workspace to its freshly-constructed footprint.
    ///
    /// The reuse policy never shrinks capacity on its own — a thread that once
    /// solved a 16k-switch instance otherwise keeps tens of megabytes warm for
    /// its lifetime. Long-lived threads that are done with large instances can
    /// call this (e.g. through [`with_thread_workspace`]) to give the memory
    /// back; the next gather simply re-warms. The peak statistic keeps its
    /// high-water value, the allocation counters are untouched.
    pub fn clear(&mut self) {
        self.tables = GatherTables::default();
        self.scratches.clear();
        self.scratches.shrink_to_fit();
        self.coloring = Coloring::default();
        self.trace_stack = Vec::new();
        self.oversized_streak = 0;
    }

    fn finish_pass(&mut self, events: usize, cells_written: usize) {
        self.last_alloc_events = events;
        self.total_alloc_events += events;
        self.last_cells_written = cells_written;
        let (evals, pruned) = self.scratches.iter_mut().fold((0, 0), |(e, p), s| {
            (e + s.take_split_evals(), p + s.take_pruned_splits())
        });
        self.last_split_evals = evals;
        self.last_pruned_splits = pruned;
        // Process-wide DP counters: the per-pass quantities above,
        // accumulated for the /metrics exposition.
        soar_obs::counter!(
            "soar_gather_passes_total",
            "SOAR-Gather passes run: full, replayed and incremental"
        )
        .inc();
        soar_obs::counter!(
            "soar_gather_cells_written_total",
            "DP table cells SOAR-Gather passes wrote"
        )
        .add(cells_written as u64);
        soar_obs::counter!(
            "soar_gather_split_evals_total",
            "mCost split candidates SOAR-Gather evaluated"
        )
        .add(evals as u64);
        soar_obs::counter!(
            "soar_gather_pruned_splits_total",
            "mCost split candidates SOAR-Gather's pruning skipped unevaluated"
        )
        .add(pruned as u64);
        soar_obs::counter!(
            "soar_gather_alloc_events_total",
            "solver workspace buffers (re)allocated by gather passes"
        )
        .add(events as u64);
        let scratch_bytes = self
            .scratches
            .iter()
            .map(DpScratch::memory_bytes)
            .sum::<usize>();
        let live = self.tables.memory_bytes() + scratch_bytes;
        let reserved = self.tables.capacity_bytes() + scratch_bytes;
        self.peak_bytes = self.peak_bytes.max(reserved);
        if reserved > SHRINK_MIN_BYTES && reserved / SHRINK_FACTOR > live {
            self.oversized_streak += 1;
        } else {
            self.oversized_streak = 0;
        }
    }

    /// Shrink-on-idle: persistent workspaces (thread-locals on pool workers live
    /// as long as the process) must not pin one huge instance's arena forever.
    /// After enough consecutive passes that used only a sliver of the reserved
    /// capacity, give the buffers back *before* the next layout; that pass
    /// re-warms at the current working-set size. Steady workloads never trip
    /// this (reserved ≈ live), so their allocation-free guarantee is untouched.
    ///
    /// Two tiers: arenas above [`SHRINK_BIG_BYTES`] are **truncated to their
    /// live size** after only [`SHRINK_BIG_AFTER_PASSES`] oversized passes —
    /// one 1M-switch solve on a `soar serve` tenant thread must not pin
    /// gigabytes while the rest of the mix is small. Smaller arenas wait out
    /// the full streak and are released wholesale. Returns the number of
    /// buffer reallocations performed, folded into the pass's alloc events so
    /// shrinks stay visible to the allocation accounting.
    fn maybe_shrink(&mut self) -> usize {
        if self.oversized_streak >= SHRINK_AFTER_PASSES {
            self.clear();
            return 0; // the release shows up as re-warm allocations instead
        }
        if self.oversized_streak >= SHRINK_BIG_AFTER_PASSES
            && self.tables.capacity_bytes() > SHRINK_BIG_BYTES
        {
            self.oversized_streak = 0;
            return self.tables.shrink_to_live();
        }
        0
    }
}

thread_local! {
    /// A small stack of idle workspaces per thread. A stack (not a single slot)
    /// because solves can re-enter on one thread: a pool worker waiting on a
    /// level-parallel gather *helps* by executing queued jobs, and a stolen
    /// batch item then solves a second instance mid-solve. Each nesting depth
    /// gets its own workspace, and all of them are returned here and stay warm —
    /// a fresh allocation happens only the first time a depth is reached.
    static IDLE_WORKSPACES: RefCell<Vec<SolverWorkspace>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with a persistent per-thread [`SolverWorkspace`].
///
/// Workspaces live as long as the thread, so repeated solves on one thread — a
/// budget sweep, a pool worker chewing through a batch — reuse warm arenas.
/// Re-entrant calls check out a second (equally persistent) workspace instead
/// of aliasing the outer one. If `f` panics, its workspace is dropped rather
/// than returned — the memory is released and the next solve simply re-warms.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut SolverWorkspace) -> R) -> R {
    let mut ws = IDLE_WORKSPACES
        .with(|cell| cell.borrow_mut().pop())
        .unwrap_or_default();
    let result = f(&mut ws);
    IDLE_WORKSPACES.with(|cell| cell.borrow_mut().push(ws));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::soar_gather;
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
    fn workspace_gather_matches_fresh_gather() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        for k in [0usize, 2, 4, 7, 1] {
            let fresh = soar_gather(&tree, k);
            let reused = ws.gather(&tree, k);
            assert_eq!(*reused, fresh, "k = {k}");
        }
    }

    #[test]
    fn warm_workspace_performs_zero_allocations() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&tree, 4);
        assert!(ws.last_alloc_events() > 0, "cold pass must allocate");
        let total_after_warmup = ws.total_alloc_events();
        for _ in 0..5 {
            let _ = ws.gather(&tree, 4);
            assert_eq!(ws.last_alloc_events(), 0);
        }
        // Shrinking budgets are free; returning to the warm-up budget too.
        let _ = ws.gather(&tree, 2);
        assert_eq!(ws.last_alloc_events(), 0);
        let _ = ws.gather(&tree, 4);
        assert_eq!(ws.last_alloc_events(), 0);
        assert_eq!(ws.total_alloc_events(), total_after_warmup);
        assert!(ws.peak_bytes() >= ws.tables().memory_bytes());
    }

    #[test]
    fn workspace_solve_matches_module_level_solve() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        for k in [2usize, 4, 3, 2] {
            let solution = ws.solve(&tree, k);
            let fresh = crate::solver::solve(&tree, k);
            assert_eq!(solution, fresh, "k = {k}");
        }
    }

    #[test]
    fn parallel_gather_through_workspace_matches() {
        let pool = ThreadPool::new(3);
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let sequential = soar_gather(&tree, 3);
        let parallel = ws.gather_parallel(&tree, 3, &pool);
        assert_eq!(*parallel, sequential);
        // Warm parallel replays are allocation-free too.
        let _ = ws.gather_parallel(&tree, 3, &pool);
        assert_eq!(ws.last_alloc_events(), 0);
    }

    #[test]
    fn gather_update_is_bit_identical_and_allocation_free() {
        let mut tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&tree, 3);
        let full_cells = ws.last_cells_written();
        assert_eq!(full_cells, ws.tables().table_cells());

        // A single-leaf change: refill only the root path, bit-identical to a
        // fresh gather, strictly fewer cells, zero allocations.
        tree.set_load(4, 11);
        let updated = ws.gather_update(&tree, 3, &[4, 1, 0]);
        assert_eq!(*updated, soar_gather(&tree, 3));
        assert_eq!(ws.last_alloc_events(), 0);
        assert!(ws.last_cells_written() < full_cells);
        assert!(ws.last_cells_written() > 0);

        // The traced solution out of the updated tables matches a fresh solve.
        let (cost, _) = ws.trace_best(&tree);
        let fresh = crate::solver::solve(&tree, 3);
        assert_eq!(cost, fresh.cost);
        assert_eq!(*ws.coloring(), fresh.coloring);
    }

    #[test]
    fn gather_update_absorbs_link_rate_changes_with_subtree_closure() {
        let mut tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&tree, 3);

        // Slow the up-link of internal node 1 (ω: 1 → 0.5). The ρ prefix
        // blocks of subtree(1) = {1, 3, 4} move, so the dirty set is that
        // subtree plus the ancestor closure — deepest-first.
        tree.set_rate(1, 0.5);
        let updated = ws.gather_update(&tree, 3, &[3, 4, 1, 0]);
        assert_eq!(*updated, soar_gather(&tree, 3));
        assert_eq!(ws.last_alloc_events(), 0, "warm rate update allocates");

        // A leaf up-link only moves its own block: dirty = root path.
        tree.set_rate(6, 0.25);
        let updated = ws.gather_update(&tree, 3, &[6, 2, 0]);
        assert_eq!(*updated, soar_gather(&tree, 3));

        // The traced solution out of the updated tables matches a fresh solve.
        let (cost, _) = ws.trace_best(&tree);
        let fresh = crate::solver::solve(&tree, 3);
        assert_eq!(cost, fresh.cost);
        assert_eq!(*ws.coloring(), fresh.coloring);
    }

    #[test]
    #[should_panic(expected = "prior full gather")]
    fn gather_update_without_a_prior_gather_panics() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather_update(&tree, 3, &[0]);
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn gather_update_on_a_same_size_different_shape_tree_panics() {
        // Same switch count, budget *and* height as the fig2 tree, but node 3
        // sits at depth 1 instead of 2 — the per-dirty-node row check must
        // catch the layout mismatch before any table is overwritten.
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&fig2_tree(), 2);
        let lopsided = Tree::from_parents_unit(&[0, 0, 0, 0, 0, 1, 1]).unwrap();
        assert_eq!(lopsided.height(), 2);
        let _ = ws.gather_update(&lopsided, 2, &[3, 0]);
    }

    #[test]
    fn traces_through_the_workspace_are_warm_after_one_solve() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let first = ws.solve(&tree, 4);
        let total = ws.total_alloc_events();
        for _ in 0..3 {
            let again = ws.solve(&tree, 4);
            assert_eq!(again, first);
            assert_eq!(ws.last_alloc_events(), 0, "warm solve allocates nothing");
        }
        assert_eq!(ws.total_alloc_events(), total);
        // Exact traces reuse the same buffers.
        let cost = ws.trace_exact(&tree, 2);
        assert_eq!(cost, 20.0);
        assert_eq!(ws.coloring().n_blue(), 2);
        assert_eq!(ws.last_alloc_events(), 0);
    }

    #[test]
    fn traces_visit_only_the_switches_that_hold_budget() {
        // BT(4096) at k = 16: a trace of i blue nodes runs at most 1 + i·h
        // color steps, far fewer than the 4,095 switches, and any budget
        // traces allocation-free once the work list is reserved.
        let mut tree = builders::complete_binary_tree_bt(4096);
        for (j, v) in tree.leaves().collect::<Vec<_>>().into_iter().enumerate() {
            tree.set_load(v, (j * 37 % 11 + 1) as u64);
        }
        let (n, h) = (tree.n_switches(), tree.height());
        let mut ws = SolverWorkspace::new();
        let _ = ws.solve(&tree, 16);
        let before = soar_obs::counter!("soar_traceback_nodes_total").get();
        let _ = ws.solve(&tree, 16);
        assert_eq!(ws.last_alloc_events(), 0, "warm solve allocates");
        let traced = ws.last_nodes_traced();
        assert!(traced <= 1 + 16 * h && traced < n, "traced {traced} of {n}");
        assert!(
            soar_obs::counter!("soar_traceback_nodes_total").get() >= before + traced as u64,
            "the registry counter sums every trace"
        );
        for i in (0..=16).rev() {
            let _ = ws.trace_exact(&tree, i);
            assert!(ws.last_nodes_traced() <= 1 + i * h, "i = {i}");
            assert_eq!(ws.last_alloc_events(), 0, "warm trace allocates (i = {i})");
        }
        let _ = ws.trace_exact(&tree, 0);
        assert_eq!(ws.last_nodes_traced(), 1, "budget 0 traces the root alone");
    }

    #[test]
    fn a_zero_load_leaf_handed_one_blue_node_stays_red() {
        // Root 0 with leaves 1 (no load, c_1) and 2 (load 5, c_C). Exactly two
        // blue nodes: leaf 2 takes one, and c_1 is handed the remaining one
        // but stays red, because aggregating nothing still costs a message.
        // A positive share is therefore no promise of a blue node.
        let mut tree = builders::star(3);
        tree.set_load(2, 5);
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&tree, 2);
        let _ = ws.trace_exact(&tree, 2);
        assert_eq!(ws.coloring().blue_nodes(), vec![2]);
        assert_eq!(ws.last_nodes_traced(), 3, "leaf 1 held budget");
    }

    #[test]
    fn idle_workspace_shrinks_after_many_small_passes() {
        let big = builders::complete_binary_tree_bt(2048);
        let small = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&big, 16);
        assert!(
            ws.peak_bytes() > SHRINK_MIN_BYTES,
            "the big instance must exceed the shrink floor for this test"
        );
        // Many consecutive tiny passes: the oversized arena must eventually be
        // released (visible as a re-warm allocation on a later pass).
        let mut shrunk = false;
        for _ in 0..SHRINK_AFTER_PASSES + 2 {
            let _ = ws.gather(&small, 2);
            if ws.last_alloc_events() > 0 {
                shrunk = true;
            }
        }
        assert!(shrunk, "oversized workspace never released its buffers");
        // Post-shrink results stay correct, and right-sized passes do not trip
        // the policy again.
        assert_eq!(*ws.gather(&small, 2), soar_gather(&small, 2));
        let _ = ws.gather(&small, 2);
        assert_eq!(ws.last_alloc_events(), 0);
    }

    #[test]
    fn big_arena_is_truncated_after_a_short_oversized_streak() {
        // A ~hundred-megabyte arena (BT over 64k switches at k = 16) crosses
        // SHRINK_BIG_BYTES: after only SHRINK_BIG_AFTER_PASSES small passes the
        // workspace must truncate to the live working set instead of waiting
        // out the full 16-pass streak — and the truncation must be visible to
        // the allocation accounting.
        let big = builders::complete_binary_tree_bt(65_536);
        let small = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let _ = ws.gather(&big, 16);
        assert!(
            ws.tables().capacity_bytes() > SHRINK_BIG_BYTES,
            "the big instance must exceed the fast-shrink floor for this test"
        );
        let mut shrunk_at = None;
        for pass in 0..SHRINK_BIG_AFTER_PASSES + 2 {
            let _ = ws.gather(&small, 2);
            if shrunk_at.is_none() && ws.last_alloc_events() > 0 && pass > 0 {
                shrunk_at = Some(pass);
            }
        }
        assert!(
            ws.tables().capacity_bytes() < SHRINK_BIG_BYTES,
            "the oversized arena was never truncated"
        );
        assert!(
            shrunk_at.is_some_and(|p| p <= SHRINK_BIG_AFTER_PASSES),
            "truncation must happen within the short streak and be counted \
             as alloc events (shrunk at {shrunk_at:?})"
        );
        // Post-shrink passes are correct and allocation-free again.
        assert_eq!(*ws.gather(&small, 2), soar_gather(&small, 2));
        let _ = ws.gather(&small, 2);
        assert_eq!(ws.last_alloc_events(), 0);
    }

    #[test]
    fn kernel_selection_is_bit_identical_across_kernels() {
        // Production runs the pruned kernel: on a BT instance it skips split
        // candidates, while the scalar oracle evaluates every one of them.
        let mut tree = builders::complete_binary_tree_bt(256);
        for (i, v) in tree.leaves().collect::<Vec<_>>().into_iter().enumerate() {
            tree.set_load(v, (i % 7 + 1) as u64);
        }
        let mut pruned = SolverWorkspace::new();
        let reference = pruned.gather(&tree, 8).clone();
        assert!(
            pruned.last_pruned_splits() > 0,
            "default kernel did not prune"
        );

        let mut scalar = SolverWorkspace::new();
        scalar.set_kernel(DpKernel::Scalar);
        assert_eq!(
            *scalar.gather(&tree, 8),
            reference,
            "scalar oracle diverged"
        );
        assert_eq!(scalar.last_pruned_splits(), 0);
    }

    #[test]
    fn clear_releases_buffers_and_rewarms_cleanly() {
        let tree = fig2_tree();
        let mut ws = SolverWorkspace::new();
        let fresh = ws.solve(&tree, 3);
        let peak = ws.peak_bytes();
        ws.clear();
        assert_eq!(ws.tables().n_switches(), 0);
        assert_eq!(ws.peak_bytes(), peak, "peak stat survives a clear");
        let rewarmed = ws.solve(&tree, 3);
        assert!(ws.last_alloc_events() > 0, "clear really released buffers");
        assert_eq!(fresh, rewarmed);
    }

    #[test]
    fn thread_workspace_is_reused_and_reentrancy_safe() {
        let tree = fig2_tree();
        let first = with_thread_workspace(|ws| {
            let _ = ws.gather(&tree, 3);
            ws.total_alloc_events()
        });
        let (second_total, nested) = with_thread_workspace(|ws| {
            let _ = ws.gather(&tree, 3);
            // A nested call must not panic on the borrowed cell.
            let nested = with_thread_workspace(|inner| {
                let _ = inner.gather(&tree, 1);
                inner.total_alloc_events()
            });
            (ws.total_alloc_events(), nested)
        });
        assert_eq!(first, second_total, "warm thread workspace did not grow");
        assert!(nested > 0, "the nested fallback workspace is fresh");
    }
}
