//! Warm per-tenant DP tables are pure caching: every `Solved` the daemon
//! sends equals a cold offline solve of the same tenant state, whatever the
//! warm budget did on the way there — hits, misses, budget changes,
//! evictions, re-registers and restarts with `--recover`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_multitenant::churn::ChurnEvent;
use soar_online::{DynamicInstance, IncrementalSolver};
use soar_serve::metrics::MetricsSnapshot;
use soar_serve::protocol::{Request, RequestBody, ResponseBody, SolveOutcome};
use soar_serve::server::{
    build_tenant, comparable, solve_offline, start, Client, ServeConfig, ServerHandle,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// BT(640) at budget 4: about 432 KB of warm tables, so a 1 MiB warm budget
/// holds two tenants and not three.
const SWITCHES: u32 = 640;
const BUDGET: u32 = 4;
const WARM_MB: u64 = 1;
const MIB: u64 = 1 << 20;

/// A client and the offline replay of everything it sent.
struct Harness {
    handle: ServerHandle,
    client: Client,
    offline: BTreeMap<u64, DynamicInstance>,
    rng: StdRng,
    next_id: u64,
    /// Every answer, in order, for comparing two daemons.
    answers: Vec<SolveOutcome>,
}

impl Harness {
    fn start(config: ServeConfig, offline: BTreeMap<u64, DynamicInstance>, seed: u64) -> Self {
        let handle = start(config).unwrap();
        let client = Client::connect(&handle.addr()).unwrap();
        Harness {
            handle,
            client,
            offline,
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
            answers: Vec::new(),
        }
    }

    fn call(&mut self, body: RequestBody) -> ResponseBody {
        self.next_id += 1;
        let req_id = self.next_id;
        let resp = self.client.call(&Request { req_id, body }).unwrap();
        assert_eq!(resp.req_id, req_id);
        resp.body
    }

    fn register(&mut self, tenant: u64, seed: u64) {
        let body = self.call(RequestBody::Register {
            tenant,
            switches: SWITCHES,
            budget: BUDGET,
            seed,
        });
        assert!(matches!(body, ResponseBody::Registered { .. }), "{body:?}");
        self.offline
            .insert(tenant, build_tenant(SWITCHES, BUDGET, seed));
    }

    fn evict(&mut self, tenant: u64) {
        let body = self.call(RequestBody::Evict { tenant });
        assert_eq!(body, ResponseBody::Evicted { tenant });
        self.offline.remove(&tenant);
    }

    /// Sends `events` to the daemon and applies them offline the same way:
    /// in order, up to the first that fails.
    fn churn(&mut self, tenant: u64, events: Vec<ChurnEvent>) {
        let body = self.call(RequestBody::Churn {
            tenant,
            seq: 0,
            events: events.clone(),
        });
        let instance = self.offline.get_mut(&tenant).unwrap();
        let applied = events
            .iter()
            .take_while(|e| instance.apply(e).is_ok())
            .count();
        match body {
            ResponseBody::ChurnApplied { applied: got, .. } => {
                assert_eq!(got as usize, applied, "tenant {tenant}");
                assert_eq!(applied, events.len());
            }
            ResponseBody::Error { .. } => assert!(applied < events.len(), "{body:?}"),
            other => panic!("{other:?}"),
        }
    }

    /// A few random events: leaf loads, switch availability and link rates.
    fn random_churn(&mut self, tenant: u64) {
        let n = self.offline[&tenant].n_switches();
        let first_leaf = n / 2;
        let events = (0..3)
            .map(|_| match self.rng.random_range(0..3) {
                0 => ChurnEvent::LeafRateChange {
                    leaf: self.rng.random_range(first_leaf..n),
                    load: self.rng.random_range(0..40),
                },
                1 => ChurnEvent::SwitchAvailability {
                    switch: self.rng.random_range(0..n),
                    available: self.rng.random_bool(0.7),
                },
                _ => ChurnEvent::LinkRateChange {
                    switch: self.rng.random_range(1..n),
                    rate: [0.25, 0.5, 1.0, 2.0][self.rng.random_range(0..4usize)],
                },
            })
            .collect();
        self.churn(tenant, events);
    }

    /// Solves on the daemon, checks the answer against the offline replay,
    /// and checks the warm budget held.
    fn solve(&mut self, tenant: u64) -> SolveOutcome {
        let body = self.call(RequestBody::Solve { tenant });
        let ResponseBody::Solved(outcome) = body else {
            panic!("{body:?}");
        };
        let want = solve_offline(&self.offline[&tenant], tenant);
        assert_eq!(comparable(&outcome), comparable(&want), "tenant {tenant}");
        let held = self.handle.snapshot().warm_bytes;
        assert!(held <= WARM_MB * MIB, "warm tables hold {held} bytes");
        self.answers.push(outcome.clone());
        outcome
    }

    fn round(&mut self, tenants: &[u64]) {
        for &t in tenants {
            self.random_churn(t);
            self.solve(t);
        }
    }

    fn shutdown(
        mut self,
    ) -> (
        MetricsSnapshot,
        BTreeMap<u64, DynamicInstance>,
        Vec<SolveOutcome>,
    ) {
        self.call(RequestBody::Shutdown);
        (self.handle.join(), self.offline, self.answers)
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soar-warm-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Heap bytes of one tenant's warm tables.
fn warm_size(budget: u32) -> u64 {
    let mut instance = build_tenant(SWITCHES, budget, 1);
    let mut solver = IncrementalSolver::new();
    solver.solve_epoch(&mut instance);
    solver.heap_bytes() as u64
}

#[test]
fn warm_solves_match_offline_replay_through_budget_changes_evictions_and_restarts() {
    let size = warm_size(BUDGET);
    assert!(
        2 * size <= WARM_MB * MIB && 3 * size > WARM_MB * MIB,
        "{size}"
    );
    let dir = temp_dir("equivalence");
    let config = |recover| ServeConfig {
        state_dir: Some(dir.clone()),
        recover,
        snapshot_every: 16,
        warm_tables_mb: WARM_MB,
        ..ServeConfig::default()
    };

    let mut h = Harness::start(config(false), BTreeMap::new(), 7);
    for tenant in 0..3 {
        h.register(tenant, 100 + tenant);
    }
    // Three tenants, room for two: 0 and 1 warm up, 2 stays cold.
    for _ in 0..4 {
        h.round(&[0, 1, 2]);
    }
    let snap = h.handle.snapshot();
    assert_eq!((snap.warm_hits, snap.warm_misses), (6, 6), "{snap:?}");

    // A budget change re-lays out tenant 0's tables: its next solve
    // releases them and is admitted again at the new size, if it fits.
    h.churn(0, vec![ChurnEvent::BudgetChange { budget: 6 }]);
    h.round(&[0, 1]);
    assert_eq!(h.handle.snapshot().warm_evictions, 1);
    h.churn(0, vec![ChurnEvent::BudgetChange { budget: 3 }]);
    h.round(&[0, 1, 2]);

    // Evicting warm tenant 1 returns its room: tenant 2, cold until now
    // unless it fit beside tenant 0's smaller tables, is admitted and hits.
    let before = h.handle.snapshot();
    h.evict(1);
    let after = h.handle.snapshot();
    assert_eq!(after.warm_evictions, before.warm_evictions + 1);
    assert!(after.warm_bytes < before.warm_bytes, "{after:?}");
    h.round(&[2]);
    let hits_before = h.handle.snapshot().warm_hits;
    h.round(&[2]);
    assert_eq!(h.handle.snapshot().warm_hits, hits_before + 1);

    // Register the evicted id again with a new seed: the new tenant starts
    // cold and never sees the old tables.
    h.register(1, 999);
    for _ in 0..3 {
        h.round(&[1, 2, 0]);
    }
    let (snap, offline, _) = h.shutdown();
    assert_eq!(snap.io_errors, 0);
    assert!(snap.warm_hits > 0 && snap.warm_misses > 0);

    // Restart from the state dir: every tenant starts cold, then warms again.
    let mut h = Harness::start(config(true), offline, 8);
    assert_eq!(h.handle.snapshot().warm_bytes, 0);
    for _ in 0..4 {
        h.round(&[0, 1, 2]);
    }
    let (snap, _, _) = h.shutdown();
    assert_eq!(snap.recovered_tenants, 3);
    assert!(snap.warm_hits >= 6, "{snap:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round_robin_over_four_tenants_with_room_for_two_hits_nearly_half() {
    let size = warm_size(BUDGET);
    assert!(
        2 * size <= WARM_MB * MIB && 3 * size > WARM_MB * MIB,
        "{size}"
    );
    let run = |warm_tables_mb| {
        let config = ServeConfig {
            warm_tables_mb,
            ..ServeConfig::default()
        };
        let mut h = Harness::start(config, BTreeMap::new(), 11);
        for tenant in 0..4 {
            h.register(tenant, 200 + tenant);
        }
        for _ in 0..12 {
            h.round(&[0, 1, 2, 3]);
        }
        h.shutdown()
    };

    let (snap, _, warm) = run(WARM_MB);
    let rate = snap.warm_hits as f64 / (snap.warm_hits + snap.warm_misses) as f64;
    // The first round misses four times; every later one hits the two
    // admitted tenants: 22 of 48.
    assert!(rate >= 0.4, "hit rate {rate}: {snap:?}");
    assert_eq!(snap.warm_evictions, 0, "a cycle releases nothing");
    assert!(snap.warm_bytes > size, "two tenants stay warm: {snap:?}");

    let (snap, _, cold) = run(0);
    assert_eq!((snap.warm_hits, snap.warm_bytes), (0, 0));
    assert_eq!(snap.warm_misses, 48);
    let same = |a: &[SolveOutcome], b: &[SolveOutcome]| {
        a.iter().map(comparable).eq(b.iter().map(comparable))
    };
    assert!(same(&warm, &cold), "a warm budget changed an answer");
}
