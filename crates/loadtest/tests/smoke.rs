//! End-to-end smoke: an in-process server driven by a small closed-loop
//! loadtest run, a second run against a daemon that already holds its
//! tenants, a deliberately tiny-queue overload run that must shed instead of
//! buffer, and a chaos run whose delivery accounting must balance exactly.

use soar_loadtest::{artifact, chaos_artifact, run, ChaosConfig, LoadtestConfig};
use soar_serve::server::{start, ServeConfig};

#[test]
fn closed_loop_run_applies_events_cleanly() {
    let handle = start(ServeConfig {
        obs_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    })
    .unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 8,
        switches: 64,
        budget: 4,
        connections: 2,
        window: 8,
        events_per_batch: 20,
        batches: 40,
        solve_every: 4,
        shutdown: true,
        obs_addr: handle.obs_addr(),
        ..LoadtestConfig::default()
    };
    let report = run(&config).unwrap();
    let snap = handle.join();
    // The Prometheus scrape agreed with the binary snapshot (run() errors
    // out otherwise).
    assert!(report.obs_counters_checked.unwrap() >= 8);

    assert_eq!(report.batches_sent, 40);
    assert!(report.events_applied >= 40 * 20, "{report:?}");
    assert_eq!(report.sheds, 0, "closed loop at low load must not shed");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.solves, 40 / 4);
    assert!(report.events_per_sec() > 0.0);
    assert!(report.churn_latency.count >= 40);
    assert_eq!(snap.io_errors, 0);
    assert_eq!(snap.errors, 0);
    assert_eq!(snap.events_applied, report.events_applied);

    // The artifact mirrors the report: 3 charts, finite timing values,
    // zeroed failure counters.
    let art = artifact(&config, &report);
    assert_eq!(art.charts.len(), 3);
    assert_eq!(art.spec.timing_chart_indices(), vec![0, 1]);
    for series in &art.charts[2].series {
        assert_eq!(series.points[0].1, 0.0, "{}", series.label);
    }
    assert!(art.charts[1].series[0].points[0].1.is_finite());
}

#[test]
fn a_second_run_shuts_down_a_daemon_that_already_holds_its_tenants() {
    let handle = start(ServeConfig::default()).unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 4,
        switches: 64,
        budget: 4,
        connections: 2,
        events_per_batch: 10,
        batches: 8,
        solve_every: 4,
        ..LoadtestConfig::default()
    };
    run(&config).unwrap();
    // The same tenants again: each `Register` is answered `DuplicateTenant`,
    // and since the run has churn to send, the tenant is evicted and
    // registered afresh; the run reaches its `Shutdown`.
    let again = LoadtestConfig {
        shutdown: true,
        ..config
    };
    let report = run(&again).unwrap();
    assert_eq!(report.batches_sent, 8);
    let snap = handle.join();
    assert_eq!((snap.registers, snap.resident_tenants), (8, 4));
    assert_eq!(snap.evictions, 4);
}

#[test]
fn a_second_churn_run_restarts_each_held_tenant_from_its_fresh_shape() {
    // Each run's churn streams start from the freshly built shape. A tenant
    // the first run left evolved is rebuilt before the second run churns
    // it, so no event contradicts the tenant's state.
    let handle = start(ServeConfig::default()).unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 2,
        switches: 64,
        budget: 4,
        connections: 1,
        events_per_batch: 10,
        batches: 20,
        solve_every: 4,
        ..LoadtestConfig::default()
    };
    let first = run(&config).unwrap();
    assert_eq!(first.errors, 0, "{first:?}");
    let report = run(&LoadtestConfig {
        shutdown: true,
        ..config
    })
    .unwrap();
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.events_applied, first.events_applied);
    let snap = handle.join();
    // The daemon's only errors are the two `DuplicateTenant` answers.
    assert_eq!(snap.errors, 2);
    assert_eq!((snap.registers, snap.evictions), (4, 2));
}

#[test]
fn a_run_without_churn_takes_a_held_tenant_as_registered() {
    // Without batches nothing contradicts the tenant's state: the
    // `DuplicateTenant` answer counts as registered and nothing is evicted.
    let handle = start(ServeConfig::default()).unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 2,
        switches: 64,
        budget: 4,
        connections: 1,
        events_per_batch: 10,
        batches: 6,
        ..LoadtestConfig::default()
    };
    run(&config).unwrap();
    let report = run(&LoadtestConfig {
        batches: 0,
        shutdown: true,
        ..config
    })
    .unwrap();
    assert_eq!((report.batches_sent, report.errors), (0, 0));
    let snap = handle.join();
    assert_eq!((snap.registers, snap.evictions), (2, 0));
}

#[test]
fn overloaded_open_loop_sheds_instead_of_buffering() {
    let handle = start(ServeConfig {
        queue_cap: 2,
        tenant_inflight_cap: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 2,
        switches: 512,
        budget: 8,
        connections: 1,
        window: 1,
        events_per_batch: 50,
        batches: 64,
        solve_every: 1,
        rate: 1e9, // effectively "as fast as possible", open loop
        shutdown: true,
        ..LoadtestConfig::default()
    };
    let report = run(&config).unwrap();
    let snap = handle.join();

    assert!(
        report.sheds > 0,
        "open loop against cap 2 must shed: {report:?}"
    );
    assert_eq!(
        report.sheds,
        snap.sheds(),
        "client and server shed counts agree"
    );
    // Shed batches may break churn-stream continuity (dropped TenantArrive →
    // later TenantDepart errors), so errors are tolerated here — but the
    // transport must stay healthy and work must still flow.
    assert_eq!(snap.io_errors, 0);
    assert!(
        report.events_applied > 0,
        "some batches still get through under overload"
    );
}

#[test]
fn chaos_run_accounts_for_every_batch_exactly() {
    let state_dir = std::env::temp_dir().join(format!("soar-chaos-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let handle = start(ServeConfig {
        state_dir: Some(state_dir.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    let config = LoadtestConfig {
        addr: handle.addr(),
        tenants: 4,
        switches: 64,
        budget: 4,
        connections: 2,
        events_per_batch: 10,
        batches: 80,
        solve_every: 8,
        chaos: Some(ChaosConfig::standard()),
        shutdown: true,
        ..LoadtestConfig::default()
    };
    let report = run(&config).unwrap();
    let snap = handle.join();
    let _ = std::fs::remove_dir_all(&state_dir);

    let r = report.resilience.as_ref().expect("resilient run");
    // The exactly-once contract: every generated batch is accounted, and with
    // the server up throughout, none may be lost.
    assert_eq!(r.batches_generated, 80);
    assert_eq!(r.unaccounted(), 0, "{r:?}");
    assert_eq!(r.batches_lost, 0, "{r:?}");
    assert_eq!(r.batches_applied, 80, "{r:?}");
    // ~20% injection over 80 batches: statistically certain to fire, and the
    // run must have healed (retries reconnect through every fault class).
    let injected = r.injected_drops
        + r.injected_mid_frame_kills
        + r.injected_malformed_frames
        + r.injected_stalls;
    assert!(injected > 0, "{r:?}");
    assert!(r.retries > 0 && r.reconnects > 0, "{r:?}");
    // Deduped replays equal the server's own count of duplicate acks.
    assert_eq!(r.duplicates, snap.duplicate_churns, "{r:?}");
    // Retried-until-applied batches keep churn-stream continuity, so no
    // application errors; the client's applied-event count misses only
    // batches whose ack was destroyed (deduped on replay with applied=0).
    assert_eq!(report.errors, 0, "{report:?}");
    assert!(report.events_applied <= snap.events_applied);
    // Every batch applied exactly once with >= events_per_batch events.
    assert!(snap.events_applied >= 80 * 10, "{snap:?}");
    // WAL persisted every consumed batch: registers + churn (incl. probes).
    assert!(snap.wal_records >= 4 + 80);
    assert_eq!(snap.wal_errors, 0);

    let art = chaos_artifact(&config, &report);
    assert_eq!(art.charts.len(), 3);
    assert_eq!(art.spec.timing_chart_indices(), vec![0, 1]);
    for series in &art.charts[2].series {
        assert_eq!(series.points[0].1, 0.0, "{}", series.label);
    }
}
