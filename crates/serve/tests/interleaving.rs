//! Response-equivalence property: N tenants' churn/solve traffic interleaved
//! arbitrarily over one pipelined connection produces responses bit-identical
//! to a sequential offline replay of each tenant's stream in isolation.
//!
//! This is the serving guarantee that makes the daemon trustworthy: batching
//! across tenants, dispatcher grouping, and warm-workspace reuse are pure
//! scheduling — they may never leak one tenant's state into another's
//! numbers, and per-tenant order on one connection is preserved exactly.
//! The same holds for the wire: responses coalesced into one write per
//! dispatch run still arrive once each, in per-tenant send order, and never
//! across a `Register`/`Evict` barrier.

use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_dataplane::framing;
use soar_multitenant::churn::{ChurnEvent, ChurnModel, ChurnStream};
use soar_serve::protocol::{Request, RequestBody, ResponseBody, SolveOutcome};
use soar_serve::server::{build_tenant, comparable, solve_offline, start, Client, ServeConfig};
use soar_topology::builders;
use soar_topology::load::LoadSpec;
use std::collections::HashMap;

const TENANTS: u64 = 6;
const SWITCHES: u32 = 128;
const BUDGET: u32 = 6;
const ROUNDS: usize = 5;
const SEED: u64 = 0xD1CE;

fn tenant_batches(tenant: u64) -> Vec<Vec<ChurnEvent>> {
    let model = ChurnModel {
        arrivals_per_epoch: 1.0,
        mean_lifetime: 3.0,
        rate_changes_per_epoch: 6.0,
        tenant_leaves: 3,
        load: LoadSpec::paper_uniform(),
        mixed_tenants: true,
        ..ChurnModel::paper_default()
    };
    let tree = builders::complete_binary_tree_bt(SWITCHES as usize);
    let mut stream = ChurnStream::new(model, &tree, StdRng::seed_from_u64(SEED ^ tenant));
    (0..ROUNDS).map(|_| stream.next_epoch()).collect()
}

#[test]
fn interleaved_tenants_match_sequential_offline_replay() {
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(&handle.addr()).unwrap();

    let batches: Vec<Vec<Vec<ChurnEvent>>> = (0..TENANTS).map(tenant_batches).collect();

    for tenant in 0..TENANTS {
        let resp = client
            .call(&Request {
                req_id: tenant,
                body: RequestBody::Register {
                    tenant,
                    switches: SWITCHES,
                    budget: BUDGET,
                    seed: SEED.wrapping_add(tenant),
                },
            })
            .unwrap();
        assert!(
            matches!(resp.body, ResponseBody::Registered { .. }),
            "{resp:?}"
        );
    }

    // Pipeline everything: round-robin across tenants, one churn batch plus
    // one solve per tenant per round, all in flight at once. req_id encodes
    // (round, tenant, kind) so responses correlate without assuming order.
    let (mut tx, mut rx) = client.split().unwrap();
    let churn_id = |round: usize, tenant: u64| 1_000 + (round as u64) * 100 + tenant * 2;
    let solve_id = |round: usize, tenant: u64| churn_id(round, tenant) + 1;
    let mut outstanding = 0usize;
    for (round, _) in batches[0].iter().enumerate() {
        for tenant in 0..TENANTS {
            tx.send(&Request {
                req_id: churn_id(round, tenant),
                body: RequestBody::Churn {
                    tenant,
                    // Per-tenant strictly increasing batch seq, as a resilient
                    // client would assign.
                    seq: round as u64 + 1,
                    events: batches[tenant as usize][round].clone(),
                },
            })
            .unwrap();
            tx.send(&Request {
                req_id: solve_id(round, tenant),
                body: RequestBody::Solve { tenant },
            })
            .unwrap();
            outstanding += 2;
        }
    }
    let mut responses: HashMap<u64, ResponseBody> = HashMap::new();
    for _ in 0..outstanding {
        let resp = rx.recv().unwrap().expect("server closed early");
        assert!(responses.insert(resp.req_id, resp.body).is_none());
    }

    // Sequential oracle: each tenant's instance replayed alone, in order.
    for tenant in 0..TENANTS {
        let mut offline = build_tenant(SWITCHES, BUDGET, SEED.wrapping_add(tenant));
        for (round, batch) in batches[tenant as usize].iter().enumerate() {
            for event in batch {
                offline.apply(event).unwrap();
            }
            match &responses[&churn_id(round, tenant)] {
                ResponseBody::ChurnApplied {
                    tenant: t,
                    applied,
                    duplicate,
                } => {
                    assert_eq!(*t, tenant);
                    assert_eq!(*applied as usize, batch.len());
                    assert!(!duplicate);
                }
                other => panic!("tenant {tenant} round {round}: {other:?}"),
            }
            let want: SolveOutcome = solve_offline(&offline, tenant);
            match &responses[&solve_id(round, tenant)] {
                ResponseBody::Solved(got) => {
                    assert_eq!(
                        comparable(got),
                        comparable(&want),
                        "tenant {tenant} round {round} diverged from offline replay"
                    );
                }
                other => panic!("tenant {tenant} round {round}: {other:?}"),
            }
        }
    }

    let mut control = Client::connect(&handle.addr()).unwrap();
    let resp = control
        .call(&Request {
            req_id: 0,
            body: RequestBody::Shutdown,
        })
        .unwrap();
    assert_eq!(resp.body, ResponseBody::ShuttingDown);
    let snap = handle.join();
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.io_errors, 0);
}

/// Coalescing responses per dispatch run must not reorder them: one burst of
/// churns and solves over several tenants, written in a single write with a
/// `Register` barrier in the middle, is answered exactly once per request,
/// in send order per tenant, and with every pre-barrier response ahead of
/// the barrier's reply.
#[test]
fn one_burst_with_a_register_barrier_is_answered_in_order() {
    const LATE: u64 = TENANTS; // registered by the barrier mid-burst
    let handle = start(ServeConfig::default()).unwrap();
    let mut client = Client::connect(&handle.addr()).unwrap();
    let mut received = 0u64;
    let register = |tenant: u64| RequestBody::Register {
        tenant,
        switches: SWITCHES,
        budget: BUDGET,
        seed: SEED.wrapping_add(tenant),
    };
    for tenant in 0..TENANTS {
        let resp = client
            .call(&Request {
                req_id: tenant,
                body: register(tenant),
            })
            .unwrap();
        assert!(matches!(resp.body, ResponseBody::Registered { .. }));
        received += 1;
    }

    // The burst: round-robin churn + solve per tenant, the late tenant's
    // register after half the rounds, and the late tenant's own traffic
    // after that. `owner[i]` is the tenant of req_id `i`; `want[i]` is what
    // the response must be, from an offline replay in send order.
    let batches: Vec<Vec<Vec<ChurnEvent>>> = (0..=LATE).map(tenant_batches).collect();
    let mut offline: HashMap<u64, _> = (0..TENANTS)
        .map(|t| (t, build_tenant(SWITCHES, BUDGET, SEED.wrapping_add(t))))
        .collect();
    let mut burst = Vec::new();
    let mut owner: Vec<u64> = Vec::new();
    let mut want: Vec<ResponseBody> = Vec::new();
    let mut push = |body: RequestBody, expect: ResponseBody| {
        let req = Request {
            req_id: owner.len() as u64,
            body,
        };
        framing::append_frame(&mut burst, |b| req.encode(b)).unwrap();
        owner.push(req.body.tenant().unwrap());
        want.push(expect);
        req.req_id as usize
    };
    let mut barrier = None;
    for round in 0..ROUNDS {
        if round == ROUNDS / 2 {
            offline.insert(
                LATE,
                build_tenant(SWITCHES, BUDGET, SEED.wrapping_add(LATE)),
            );
            let n_switches = offline[&LATE].n_switches() as u32;
            barrier = Some(push(
                register(LATE),
                ResponseBody::Registered {
                    tenant: LATE,
                    n_switches,
                },
            ));
        }
        let late_round = round.checked_sub(ROUNDS / 2);
        for tenant in 0..=LATE {
            let round = match (tenant, late_round) {
                (LATE, None) => continue,
                (LATE, Some(r)) => r,
                _ => round,
            };
            let events = batches[tenant as usize][round].clone();
            let instance = offline.get_mut(&tenant).unwrap();
            for event in &events {
                instance.apply(event).unwrap();
            }
            let applied = events.len() as u32;
            let solved = solve_offline(instance, tenant);
            push(
                RequestBody::Churn {
                    tenant,
                    seq: round as u64 + 1,
                    events,
                },
                ResponseBody::ChurnApplied {
                    tenant,
                    applied,
                    duplicate: false,
                },
            );
            push(RequestBody::Solve { tenant }, ResponseBody::Solved(solved));
        }
    }
    let barrier = barrier.expect("the burst has a barrier");
    // A response that never comes fails the test instead of hanging it.
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    client.send_raw(&burst).unwrap();

    let mut arrival: Vec<usize> = Vec::with_capacity(owner.len());
    let mut seen = vec![false; owner.len()];
    for _ in 0..owner.len() {
        let resp = client.recv().unwrap().expect("server closed early");
        received += 1;
        let i = resp.req_id as usize;
        assert!(i < owner.len(), "unknown req_id {i}");
        assert!(!seen[i], "req_id {i} answered twice");
        seen[i] = true;
        match (&resp.body, &want[i]) {
            (ResponseBody::Solved(got), ResponseBody::Solved(want)) => {
                assert_eq!(comparable(got), comparable(want), "req_id {i}")
            }
            (got, want) => assert_eq!(got, want, "req_id {i}"),
        }
        arrival.push(i);
    }

    for tenant in 0..=LATE {
        let order: Vec<usize> = arrival
            .iter()
            .copied()
            .filter(|&i| owner[i] == tenant)
            .collect();
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "tenant {tenant} answered out of send order: {order:?}"
        );
    }
    let barrier_at = arrival.iter().position(|&i| i == barrier).unwrap();
    assert!(
        arrival[..barrier_at].iter().all(|&i| i < barrier)
            && arrival[barrier_at..].iter().all(|&i| i >= barrier),
        "the barrier reply overtook or trailed its neighbours: {arrival:?}"
    );

    handle.shutdown();
    let snap = handle.join();
    assert_eq!(snap.responses, received);
    assert!(snap.response_flushes <= snap.responses);
    assert_eq!((snap.errors, snap.io_errors), (0, 0));
}
