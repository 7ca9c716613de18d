//! Input generation. Every request a run sends is built here from the seed
//! before any clock starts, so the daemon receives only generated inputs and
//! the sender's timed loop does no generation work.

use crate::config::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_multitenant::churn::{ChurnEvent, ChurnModel, ChurnStream};
use soar_serve::protocol::{Request, RequestBody};
use soar_topology::load::LoadSpec;
use soar_topology::{builders, Tree};
use std::collections::BTreeSet;

/// SplitMix64 finaliser over `a` and `b`: independent, reproducible per-tenant
/// seeds and sample draws from one benchmark seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether solve `op` is in the deterministic 1-in-16 sample checked against
/// an offline replay.
pub fn sampled(seed: u64, op: usize) -> bool {
    mix(seed ^ 0x5A3F_1E00_0000_0016, op as u64).is_multiple_of(16)
}

/// The churn model of one tenant: one epoch is about `events_per_batch`
/// events — rate re-draws plus a trickle of intra-instance tenant arrivals
/// and departures (the same sizing as the loadtest's churn streams).
pub fn churn_model(events_per_batch: usize) -> ChurnModel {
    ChurnModel {
        arrivals_per_epoch: 0.5,
        mean_lifetime: 50.0,
        rate_changes_per_epoch: events_per_batch.saturating_sub(1).max(1) as f64,
        tenant_leaves: 4,
        load: LoadSpec::paper_uniform(),
        mixed_tenants: true,
        ..ChurnModel::paper_default()
    }
}

/// `batches` epochs of churn whose last batch also departs every
/// intra-instance tenant still active, so the ring can be replayed any number
/// of times from any state it leaves: an arrival never finds its id active
/// and a departure never names an absent tenant.
pub fn cycle_safe_ring(
    model: &ChurnModel,
    shape: &Tree,
    rng: StdRng,
    batches: usize,
) -> Vec<Vec<ChurnEvent>> {
    let mut stream = ChurnStream::new(model.clone(), shape, rng);
    let mut active = BTreeSet::new();
    let mut ring: Vec<Vec<ChurnEvent>> = (0..batches)
        .map(|_| {
            let epoch = stream.next_epoch();
            for event in &epoch {
                match event {
                    ChurnEvent::TenantArrive { tenant, .. } => {
                        active.insert(*tenant);
                    }
                    ChurnEvent::TenantDepart { tenant } => {
                        active.remove(tenant);
                    }
                    _ => {}
                }
            }
            epoch
        })
        .collect();
    if let Some(last) = ring.last_mut() {
        last.extend(
            active
                .into_iter()
                .map(|tenant| ChurnEvent::TenantDepart { tenant }),
        );
    }
    ring
}

/// What request number `i` of a run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Slot `slot` of `tenant`'s ring.
    Churn { tenant: usize, slot: usize },
    /// A solve of `tenant`.
    Solve { tenant: usize },
}

/// The fixed request order: rounds go round-robin over the tenants, and each
/// tenant walks its ring in order. On a solve workload a round is a churn
/// batch then a solve of the same tenant.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub tenants: usize,
    pub ring: usize,
    pub solve: bool,
}

impl Schedule {
    pub fn ops_per_round(&self) -> usize {
        if self.solve {
            2
        } else {
            1
        }
    }

    pub fn op(&self, i: usize) -> Op {
        let round = i / self.ops_per_round();
        let tenant = round % self.tenants;
        if self.solve && i % 2 == 1 {
            Op::Solve { tenant }
        } else {
            Op::Churn {
                tenant,
                slot: (round / self.tenants) % self.ring,
            }
        }
    }

    /// `(tenant, slot)` of round `round`'s churn batch.
    pub fn round(&self, round: usize) -> (usize, usize) {
        (round % self.tenants, (round / self.tenants) % self.ring)
    }
}

/// Every input of one run.
pub struct Plan {
    pub schedule: Schedule,
    pub switches: u32,
    pub budget: u32,
    /// Leaf-load seed of each tenant's `Register`.
    pub instance_seeds: Vec<u64>,
    /// Each tenant's ring as ready-to-send `Churn` requests (the sender only
    /// rewrites `req_id`).
    pub rings: Vec<Vec<Request>>,
    /// The `applied` count each ring slot must be acknowledged with.
    pub applied: Vec<Vec<u32>>,
}

impl Plan {
    pub fn generate(w: &Workload, seed: u64) -> Plan {
        let shape = builders::complete_binary_tree_bt(w.switches as usize);
        let model = churn_model(w.events_per_batch);
        let tenants = w.tenants as usize;
        // Tenants are independent streams: generate them on every core (the
        // daemon is not running yet).
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ids: Vec<usize> = (0..tenants).collect();
        let rings: Vec<Vec<Request>> = std::thread::scope(|s| {
            let workers: Vec<_> = ids
                .chunks(tenants.div_ceil(threads))
                .map(|chunk| {
                    let (model, shape) = (&model, &shape);
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|&t| {
                                let rng = StdRng::seed_from_u64(mix(seed, 2 * t as u64 + 1));
                                cycle_safe_ring(model, shape, rng, w.ring)
                                    .into_iter()
                                    .map(|events| Request {
                                        req_id: 0,
                                        body: RequestBody::Churn {
                                            tenant: t as u64,
                                            seq: 0,
                                            events,
                                        },
                                    })
                                    .collect::<Vec<_>>()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        let applied = rings
            .iter()
            .map(|ring| {
                ring.iter()
                    .map(|req| match &req.body {
                        RequestBody::Churn { events, .. } => events.len() as u32,
                        _ => 0,
                    })
                    .collect()
            })
            .collect();
        Plan {
            schedule: Schedule {
                tenants,
                ring: w.ring,
                solve: w.solve,
            },
            switches: w.switches,
            budget: w.budget,
            instance_seeds: (0..tenants).map(|t| mix(seed, 2 * t as u64)).collect(),
            rings,
            applied,
        }
    }

    /// The events of `tenant`'s ring slot `slot`.
    pub fn events(&self, tenant: usize, slot: usize) -> &[ChurnEvent] {
        match &self.rings[tenant][slot].body {
            RequestBody::Churn { events, .. } => events,
            _ => unreachable!("rings hold churn requests only"),
        }
    }

    /// `tenant`'s `Register` request.
    pub fn register(&self, tenant: usize) -> Request {
        Request {
            req_id: tenant as u64,
            body: RequestBody::Register {
                tenant: tenant as u64,
                switches: self.switches,
                budget: self.budget,
                seed: self.instance_seeds[tenant],
            },
        }
    }

    /// A fresh copy of `tenant`'s instance as the daemon registers it.
    pub fn build(&self, tenant: usize) -> soar_online::DynamicInstance {
        soar_serve::server::build_tenant(self.switches, self.budget, self.instance_seeds[tenant])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ring_replays_three_times_without_errors() {
        for events_per_batch in [1, 64] {
            let shape = builders::complete_binary_tree_bt(256);
            let ring = cycle_safe_ring(
                &churn_model(events_per_batch),
                &shape,
                StdRng::seed_from_u64(7),
                32,
            );
            let arrivals = ring
                .iter()
                .flatten()
                .filter(|e| matches!(e, ChurnEvent::TenantArrive { .. }))
                .count();
            assert!(arrivals > 0, "the ring exercises arrivals");
            let mut instance = soar_serve::server::build_tenant(256, 8, 3);
            for pass in 0..3 {
                for (b, batch) in ring.iter().enumerate() {
                    for event in batch {
                        instance
                            .apply(event)
                            .unwrap_or_else(|e| panic!("pass {pass} batch {b}: {e}"));
                    }
                }
                assert!(instance.active_tenants().is_empty(), "pass {pass}");
            }
        }
    }

    #[test]
    fn plans_are_seed_deterministic() {
        let w = crate::config::Workload {
            name: "t".into(),
            arrival: crate::config::Arrival::Closed { window: 2 },
            tenants: 3,
            switches: 64,
            budget: 4,
            events_per_batch: 2,
            ring: 4,
            solve: true,
            durable: false,
            replay: 4,
        };
        let (a, b, c) = (
            Plan::generate(&w, 5),
            Plan::generate(&w, 5),
            Plan::generate(&w, 6),
        );
        assert_eq!(a.rings, b.rings);
        assert_eq!(a.instance_seeds, b.instance_seeds);
        assert_ne!(a.rings, c.rings);
        let s = a.schedule;
        assert_eq!(s.op(0), Op::Churn { tenant: 0, slot: 0 });
        assert_eq!(s.op(1), Op::Solve { tenant: 0 });
        assert_eq!(s.op(6), Op::Churn { tenant: 0, slot: 1 });
        assert_eq!(s.round(3), (0, 1));
    }
}
