//! Warm per-tenant DP tables under one memory budget.
//!
//! A switch's SOAR-Gather table depends only on its own load, availability
//! and ρ prefix and on its children's `X` tables (Sec. 6.1 of the paper), so
//! a churn batch invalidates only the root paths of the switches it touches.
//! A resident tenant may therefore keep its own [`IncrementalSolver`]: its
//! tables stay laid out between solves, and a `Solve` refills only the dirty
//! closure of the churn applied since the previous one — bit-identical to a
//! fresh gather. The heap of every warm solver is charged against one budget
//! (`soar serve --warm-tables-mb`), tracked by one atomic,
//! [`ServeMetrics::warm_bytes`].
//!
//! # Policy: admit when there is room
//!
//! * **Admission.** A solve of a tenant without warm tables builds them when
//!   the budget has room for them; [`GatherTables::layout_bytes`] predicts
//!   their size from the tree's shape before any table is allocated, once per
//!   tenant and budget. Without room, the solve runs cold on the worker's
//!   shared workspace, exactly as it would with no warm tables at all.
//! * **No eviction on a miss.** Under a cyclic scan of more tenants than fit,
//!   LRU and CLOCK evict the entry needed soonest and never hit. Keeping the
//!   admitted tenants instead hits `fit / tenants` of the time.
//! * **Release.** A `BudgetChange` re-lays out the tables, so the tenant's
//!   next solve releases them and is admitted afresh at the new size. `Evict`
//!   releases them too, and a recovered tenant starts cold. Released bytes
//!   go back to the budget for the next tenant that misses.

use crate::metrics::{add, ServeMetrics};
use soar_core::workspace::with_thread_workspace;
use soar_core::GatherTables;
use soar_online::{DynamicInstance, EpochSolve, IncrementalSolver};
use std::sync::atomic::Ordering;

/// The daemon-wide side of the warm tables: the budget.
///
/// Every atomic it touches in [`ServeMetrics`] is an accounting value that
/// publishes no other data; the solvers themselves move under their tenant's
/// mutex. Relaxed ordering suffices, and the budget check is one
/// read-modify-write, so concurrent admissions never overshoot it.
#[derive(Debug)]
pub(crate) struct WarmTables {
    /// Most bytes all warm solvers may hold together.
    budget: u64,
}

/// A tenant's share of the warm tables, kept under its mutex.
#[derive(Debug, Default)]
pub(crate) struct WarmSlot {
    solver: Option<Box<Warm>>,
    /// Best-known heap bytes of warm tables at a DP budget `(k, bytes)`: the
    /// layout prediction, then the size measured when they were built. A
    /// tenant that keeps missing for lack of room re-reads it instead of
    /// walking its tree again.
    size: Option<(usize, u64)>,
}

/// A built warm solver and what it is charged.
#[derive(Debug)]
struct Warm {
    solver: IncrementalSolver,
    /// The DP budget its tables are laid out for.
    k: usize,
    /// Bytes charged against the budget.
    charged: u64,
}

impl WarmTables {
    pub(crate) fn new(budget_mb: u64) -> Self {
        WarmTables {
            budget: budget_mb.saturating_mul(1 << 20),
        }
    }

    /// Solves a tenant, under its lock: on its warm tables when it has them,
    /// by building them when the budget has room, and cold on the worker's
    /// shared workspace otherwise.
    pub(crate) fn solve(
        &self,
        m: &ServeMetrics,
        slot: &mut WarmSlot,
        instance: &mut DynamicInstance,
    ) -> EpochSolve {
        let k = instance.budget();
        if let Some(warm) = slot.solver.as_mut().filter(|w| w.k == k) {
            add(&m.warm_hits, 1);
            return warm.solver.solve_epoch(instance);
        }
        // No tables, or tables laid out for another budget.
        self.release(m, slot);
        add(&m.warm_misses, 1);
        // The size is charged in two steps: the arenas predicted from the
        // shape before anything is built, so a miss without room allocates
        // nothing, then the rest of the measured heap once the build exists.
        let predicted = match slot.size {
            Some((at, bytes)) if at == k => bytes,
            _ => GatherTables::layout_bytes(instance.tree(), k) as u64,
        };
        slot.size = Some((k, predicted));
        if !self.charge(m, predicted) {
            return with_thread_workspace(|ws| soar_online::solve_full(ws, instance));
        }
        let mut solver = IncrementalSolver::new();
        let epoch = solver.solve_epoch(instance);
        let actual = solver.heap_bytes() as u64;
        slot.size = Some((k, actual));
        let fits = actual <= predicted || self.charge(m, actual - predicted);
        if fits {
            m.warm_bytes
                .fetch_sub(predicted.saturating_sub(actual), Ordering::Relaxed);
            slot.solver = Some(Box::new(Warm {
                solver,
                k,
                charged: actual,
            }));
        } else {
            // The prediction was short and the rest does not fit: the solve
            // stands, the tables go, and the next attempt asks for `actual`.
            m.warm_bytes.fetch_sub(predicted, Ordering::Relaxed);
        }
        epoch
    }

    /// Drops a tenant's warm tables, if it has any, and returns their bytes
    /// to the budget.
    pub(crate) fn release(&self, m: &ServeMetrics, slot: &mut WarmSlot) {
        if let Some(warm) = slot.solver.take() {
            m.warm_bytes.fetch_sub(warm.charged, Ordering::Relaxed);
            add(&m.warm_evictions, 1);
        }
    }

    /// Adds `bytes` to the resident total if the budget has room for them.
    fn charge(&self, m: &ServeMetrics, bytes: u64) -> bool {
        m.warm_bytes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                held.checked_add(bytes)
                    .filter(|&total| total <= self.budget)
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::build_tenant;
    use soar_multitenant::churn::ChurnEvent;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn warm_tables_equal_a_fresh_gather_bit_for_bit() {
        let warm = WarmTables::new(64);
        let m = ServeMetrics::default();
        let mut slot = WarmSlot::default();
        let mut instance = build_tenant(256, 6, 5);
        let n = instance.n_switches();
        let epochs = [
            vec![],
            vec![
                ChurnEvent::LeafRateChange {
                    leaf: n - 1,
                    load: 30,
                },
                ChurnEvent::SwitchAvailability {
                    switch: 3,
                    available: false,
                },
            ],
            vec![
                ChurnEvent::LinkRateChange {
                    switch: 5,
                    rate: 0.5,
                },
                ChurnEvent::TenantArrive {
                    tenant: 1,
                    loads: vec![(n - 2, 7), (n - 9, 3)],
                },
            ],
            // Re-lays out the tables: dropped, then built again at k = 9.
            vec![ChurnEvent::BudgetChange { budget: 9 }],
            vec![
                ChurnEvent::SwitchAvailability {
                    switch: 3,
                    available: true,
                },
                ChurnEvent::TenantDepart { tenant: 1 },
            ],
            vec![],
        ];
        let builds = [0, 3];
        for (round, events) in epochs.iter().enumerate() {
            instance.apply_epoch(events).unwrap();
            let epoch = warm.solve(&m, &mut slot, &mut instance);
            let w = slot.solver.as_ref().expect("the budget has room");
            // X, Y, ρ and every split, as `Verify::Tables` compares them.
            let fresh = soar_core::soar_gather(instance.tree(), instance.budget());
            assert_eq!(*w.solver.tables(), fresh, "round {round}");
            let cold = with_thread_workspace(|ws| soar_online::solve_full(ws, &instance));
            assert_eq!(epoch.cost.to_bits(), cold.cost.to_bits(), "round {round}");
            assert_eq!(epoch.all_red_cost.to_bits(), cold.all_red_cost.to_bits());
            assert_eq!(epoch.blue_used, cold.blue_used);
            assert_eq!(epoch.dp.table_cells, cold.dp.table_cells);
            if builds.contains(&round) {
                assert!(!epoch.incremental && epoch.dp.alloc_events > 0);
            } else {
                assert!(epoch.incremental, "round {round}");
                assert!(epoch.dp.cells_written < epoch.dp.table_cells);
                assert_eq!(epoch.dp.alloc_events, 0, "round {round}");
            }
            assert_eq!(w.k, instance.budget());
            assert_eq!(w.charged, m.warm_bytes.load(Ordering::Relaxed));
        }
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        // The budget change released the first tables, the last release
        // the second.
        assert_eq!((c(&m.warm_hits), c(&m.warm_misses)), (4, 2));
        warm.release(&m, &mut slot);
        assert_eq!((c(&m.warm_bytes), c(&m.warm_evictions)), (0, 2));
    }

    #[test]
    fn tables_that_outgrow_their_prediction_are_dropped_when_the_rest_does_not_fit() {
        let mut instance = build_tenant(256, 6, 5);
        let predicted = GatherTables::layout_bytes(instance.tree(), 6) as u64;
        // Room for the predicted arenas, not for the index and scratch on top.
        let warm = WarmTables {
            budget: predicted + 1,
        };
        let m = ServeMetrics::default();
        let mut slot = WarmSlot::default();
        let epoch = warm.solve(&m, &mut slot, &mut instance);
        let cold = with_thread_workspace(|ws| soar_online::solve_full(ws, &instance));
        assert_eq!(epoch.cost.to_bits(), cold.cost.to_bits());
        assert!(slot.solver.is_none());
        let (_, measured) = slot.size.expect("the build measured the tables");
        assert!(measured > warm.budget);
        // The next miss asks for the measured size and goes cold at once, on
        // the thread's workspace that the cold check above warmed.
        let again = warm.solve(&m, &mut slot, &mut instance);
        assert_eq!(again.dp.alloc_events, 0, "built tables it had no room for");
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!((c(&m.warm_hits), c(&m.warm_misses)), (0, 2));
        assert_eq!((c(&m.warm_bytes), c(&m.warm_evictions)), (0, 0));
    }

    #[test]
    fn without_room_a_solve_runs_cold_and_holds_nothing() {
        let warm = WarmTables::new(0);
        let m = ServeMetrics::default();
        let mut slot = WarmSlot::default();
        let mut instance = build_tenant(256, 6, 5);
        for _ in 0..3 {
            let epoch = warm.solve(&m, &mut slot, &mut instance);
            let cold = with_thread_workspace(|ws| soar_online::solve_full(ws, &instance));
            assert_eq!(epoch.cost.to_bits(), cold.cost.to_bits());
            assert!(slot.solver.is_none());
        }
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!((c(&m.warm_hits), c(&m.warm_misses)), (0, 3));
        assert_eq!((c(&m.warm_bytes), c(&m.warm_evictions)), (0, 0));
    }
}
