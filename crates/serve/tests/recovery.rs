//! Crash-recovery properties of the `soar serve` WAL:
//!
//! 1. a daemon restarted with `--recover` serves solves **bit-identical** to
//!    the uninterrupted run, remembers churn-batch sequence numbers across the
//!    restart, and forgets evicted tenants;
//! 2. a simulated SIGKILL at *any* byte offset of the WAL (torn tail) recovers
//!    exactly the surviving record prefix — never panics, never invents or
//!    loses an applied record before the tear;
//! 3. corrupt middles (flipped bits) and illegally duplicated sequence numbers
//!    stop recovery at the bad record, keeping everything before it;
//! 4. a crash at any step of a snapshot rotation, a failed snapshot job, a
//!    stale retired segment at startup and a gap before a segment all
//!    recover exactly the offline replay of the records that survive.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_multitenant::churn::ChurnEvent;
use soar_online::DynamicInstance;
use soar_serve::protocol::{Request, RequestBody, ResponseBody};
use soar_serve::server::{build_tenant, comparable, solve_offline, start, Client, ServeConfig};
use soar_serve::wal::{self, TenantParams, TenantRecord, WalWriter};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soar-recovery-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn request(req_id: u64, body: RequestBody) -> Request {
    Request { req_id, body }
}

fn churn_batch(tenant: u64, seq: u64, events: Vec<ChurnEvent>) -> RequestBody {
    RequestBody::Churn {
        tenant,
        seq,
        events,
    }
}

/// End-to-end: run, shut down, restart with `--recover`, and verify solves
/// are bit-identical and seq dedupe survives the restart.
#[test]
fn restarted_server_serves_bit_identical_solves() {
    let dir = temp_dir("restart");
    let config = |recover: bool| ServeConfig {
        state_dir: Some(dir.clone()),
        recover,
        // Small cadence so the run exercises snapshot rotation mid-stream,
        // not just the shutdown snapshot.
        snapshot_every: 3,
        ..ServeConfig::default()
    };

    let handle = start(config(false)).unwrap();
    let mut client = Client::connect(&handle.addr()).unwrap();
    for tenant in [1u64, 2, 3] {
        let resp = client
            .call(&request(
                tenant,
                RequestBody::Register {
                    tenant,
                    switches: 64,
                    budget: 4,
                    seed: 100 + tenant,
                },
            ))
            .unwrap();
        assert!(matches!(resp.body, ResponseBody::Registered { .. }));
    }
    // A few sequenced batches per tenant, including failure-domain events.
    for seq in 1..=4u64 {
        for tenant in [1u64, 2, 3] {
            let events = vec![
                ChurnEvent::LeafRateChange {
                    leaf: 62,
                    load: seq * 3 + tenant,
                },
                ChurnEvent::SwitchAvailability {
                    switch: 5,
                    available: seq % 2 == 0,
                },
                ChurnEvent::LinkRateChange {
                    switch: 9,
                    rate: 1.0 / seq as f64,
                },
            ];
            let resp = client
                .call(&request(1000 + seq, churn_batch(tenant, seq, events)))
                .unwrap();
            assert!(
                matches!(
                    resp.body,
                    ResponseBody::ChurnApplied {
                        applied: 3,
                        duplicate: false,
                        ..
                    }
                ),
                "{resp:?}"
            );
        }
    }
    // Evict tenant 2: recovery must *not* resurrect it.
    let resp = client
        .call(&request(2000, RequestBody::Evict { tenant: 2 }))
        .unwrap();
    assert!(matches!(resp.body, ResponseBody::Evicted { tenant: 2 }));

    let mut before = Vec::new();
    for tenant in [1u64, 3] {
        let resp = client
            .call(&request(3000 + tenant, RequestBody::Solve { tenant }))
            .unwrap();
        let ResponseBody::Solved(outcome) = resp.body else {
            panic!("{resp:?}");
        };
        before.push(comparable(&outcome));
    }
    client.call(&request(4000, RequestBody::Shutdown)).unwrap();
    let snap = handle.join();
    assert!(snap.snapshots >= 2, "startup + cadence/shutdown snapshots");
    assert_eq!(snap.wal_errors, 0);

    // ---- restart ----
    let handle = start(config(true)).unwrap();
    let mut client = Client::connect(&handle.addr()).unwrap();
    let snap = handle.snapshot();
    assert_eq!(snap.recovered_tenants, 2);
    assert_eq!(snap.recovery_truncated, 0);
    for (i, tenant) in [1u64, 3].into_iter().enumerate() {
        let resp = client
            .call(&request(5000 + tenant, RequestBody::Solve { tenant }))
            .unwrap();
        let ResponseBody::Solved(outcome) = resp.body else {
            panic!("{resp:?}");
        };
        assert_eq!(
            comparable(&outcome),
            before[i],
            "tenant {tenant}: post-recovery solve deviates from the uninterrupted run"
        );
    }
    // Seq high-water marks survived: a blind replay of an old batch dedupes.
    let resp = client
        .call(&request(
            6000,
            churn_batch(1, 4, vec![ChurnEvent::BudgetChange { budget: 1 }]),
        ))
        .unwrap();
    assert!(
        matches!(
            resp.body,
            ResponseBody::ChurnApplied {
                applied: 0,
                duplicate: true,
                ..
            }
        ),
        "{resp:?}"
    );
    // The evicted tenant stayed gone.
    let resp = client
        .call(&request(6001, RequestBody::Solve { tenant: 2 }))
        .unwrap();
    assert!(matches!(resp.body, ResponseBody::Error { .. }));
    client.call(&request(7000, RequestBody::Shutdown)).unwrap();
    handle.join();
    let _ = fs::remove_dir_all(&dir);
}

/// The WAL operations of the abort property test, mirrored on an offline
/// oracle.
enum Op {
    Register(u64, TenantParams),
    Evict(u64),
    Churn(u64, u64, Vec<ChurnEvent>),
}

fn oracle_replay(ops: &[Op]) -> BTreeMap<u64, (u64, DynamicInstance)> {
    let mut tenants = BTreeMap::new();
    for op in ops {
        match op {
            Op::Register(t, p) => {
                tenants.insert(*t, (0u64, build_tenant(p.switches, p.budget, p.seed)));
            }
            Op::Evict(t) => {
                tenants.remove(t);
            }
            Op::Churn(t, seq, events) => {
                let entry = tenants.get_mut(t).unwrap();
                entry.0 = *seq;
                for event in events {
                    if entry.1.apply(event).is_err() {
                        break;
                    }
                }
            }
        }
    }
    tenants
}

fn assert_matches_oracle(dir: &std::path::Path, ops: &[Op], context: &str) {
    let recovery = wal::recover(dir).unwrap_or_else(|e| panic!("{context}: {e}"));
    let want = oracle_replay(ops);
    let got: Vec<u64> = recovery.tenants.iter().map(|t| t.tenant).collect();
    assert_eq!(
        got,
        want.keys().copied().collect::<Vec<_>>(),
        "{context}: tenant set"
    );
    for rec in &recovery.tenants {
        let (last_seq, oracle) = &want[&rec.tenant];
        assert_eq!(
            rec.last_seq, *last_seq,
            "{context}: tenant {} seq",
            rec.tenant
        );
        assert_eq!(
            comparable(&solve_offline(&rec.instance, rec.tenant)),
            comparable(&solve_offline(oracle, rec.tenant)),
            "{context}: tenant {} solve deviates",
            rec.tenant
        );
    }
}

/// Simulated SIGKILL mid-churn: truncate the WAL at random byte offsets —
/// clean record boundaries, torn headers, torn payloads — and verify recovery
/// is exactly the offline replay of the surviving record prefix.
#[test]
fn abort_at_any_wal_offset_recovers_the_surviving_prefix() {
    let dir = temp_dir("abort");
    let mut rng = StdRng::seed_from_u64(0xABCD);

    // Build a WAL the way a live daemon would (no snapshot rotation: this is
    // the log a crash interrupts), tracking the byte boundary and the oracle
    // op after every record.
    let mut writer = WalWriter::begin(&dir, 0, &[]).unwrap();
    let wal_path = dir.join("wal.soar");
    let mut ops: Vec<Op> = Vec::new();
    let mut boundaries: Vec<u64> = vec![fs::metadata(&wal_path).unwrap().len()];
    let mut seqs: BTreeMap<u64, u64> = BTreeMap::new();
    for step in 0..40 {
        let resident: Vec<u64> = seqs.keys().copied().collect();
        let op = match rng.random_range(0..10) {
            0 | 1 if resident.len() < 4 => {
                let tenant = (0..8u64).find(|t| !seqs.contains_key(t)).unwrap();
                let params = TenantParams {
                    switches: 32 + 16 * (tenant as u32 % 3),
                    budget: 3 + tenant as u32 % 4,
                    seed: 50 + tenant,
                };
                writer.append_register(tenant, params).unwrap();
                seqs.insert(tenant, 0);
                Op::Register(tenant, params)
            }
            2 if resident.len() > 1 => {
                let tenant = resident[rng.random_range(0..resident.len())];
                writer.append_evict(tenant).unwrap();
                seqs.remove(&tenant);
                Op::Evict(tenant)
            }
            _ if !resident.is_empty() => {
                let tenant = resident[rng.random_range(0..resident.len())];
                let seq = seqs[&tenant] + 1;
                let events = vec![
                    ChurnEvent::LeafRateChange {
                        leaf: 17,
                        load: rng.random_range(0..50),
                    },
                    ChurnEvent::LinkRateChange {
                        switch: rng.random_range(1..16),
                        rate: 0.25 + rng.random::<f64>(),
                    },
                    ChurnEvent::SwitchAvailability {
                        switch: rng.random_range(1..16),
                        available: rng.random::<bool>(),
                    },
                ];
                writer.append_churn(tenant, seq, &events).unwrap();
                seqs.insert(tenant, seq);
                Op::Churn(tenant, seq, events)
            }
            _ => {
                let tenant = 7 - (step as u64 % 4);
                let params = TenantParams {
                    switches: 32,
                    budget: 3,
                    seed: 50 + tenant,
                };
                if seqs.contains_key(&tenant) {
                    continue;
                }
                writer.append_register(tenant, params).unwrap();
                seqs.insert(tenant, 0);
                Op::Register(tenant, params)
            }
        };
        ops.push(op);
        boundaries.push(fs::metadata(&wal_path).unwrap().len());
    }
    drop(writer);
    let full = fs::read(&wal_path).unwrap();
    assert_eq!(*boundaries.last().unwrap() as usize, full.len());

    // For every record: kill exactly at its boundary, mid-header, and
    // mid-payload. Recovery must equal the oracle replay of the records that
    // fully fit.
    let crash_dir = temp_dir("abort-crash");
    let mut cases = 0;
    for i in 0..ops.len() {
        let clean = boundaries[i + 1];
        let torn_header = boundaries[i] + 3;
        let torn_payload = clean.saturating_sub(2);
        for (kind, cut) in [
            ("boundary", clean),
            ("torn-header", torn_header),
            ("torn-payload", torn_payload),
        ] {
            // Records fully contained in the first `cut` bytes.
            let n = boundaries[1..].iter().filter(|&&b| b <= cut).count();
            fs::write(crash_dir.join("wal.soar"), &full[..cut as usize]).unwrap();
            assert_matches_oracle(
                &crash_dir,
                &ops[..n],
                &format!("record {i}, cut {kind} @{cut}"),
            );
            cases += 1;
        }
    }
    assert!(cases >= 100, "property exercised {cases} crash points");

    // A flipped bit mid-log stops recovery at that record.
    let mid = ops.len() / 2;
    let mut corrupt = full.clone();
    corrupt[(boundaries[mid] + 9) as usize] ^= 0x10;
    fs::write(crash_dir.join("wal.soar"), &corrupt).unwrap();
    let recovery = wal::recover(&crash_dir).unwrap();
    assert!(recovery.stats.truncated, "corruption must be reported");
    assert_matches_oracle_prefix_only(&crash_dir, &ops[..mid]);

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash_dir);
}

fn assert_matches_oracle_prefix_only(dir: &std::path::Path, ops: &[Op]) {
    assert_matches_oracle(dir, ops, "corrupt-middle");
}

/// An illegally duplicated sequence number in the log (the server dedupes
/// before appending, so one on disk means corruption) stops recovery.
#[test]
fn duplicate_seq_in_wal_stops_recovery() {
    let dir = temp_dir("dup-seq");
    let mut writer = WalWriter::begin(&dir, 0, &[]).unwrap();
    let params = TenantParams {
        switches: 32,
        budget: 3,
        seed: 9,
    };
    writer.append_register(1, params).unwrap();
    let eventa = vec![ChurnEvent::LeafRateChange { leaf: 17, load: 5 }];
    let eventb = vec![ChurnEvent::LeafRateChange { leaf: 17, load: 9 }];
    writer.append_churn(1, 1, &eventa).unwrap();
    writer.append_churn(1, 1, &eventb).unwrap(); // illegal duplicate
    writer.append_churn(1, 2, &eventb).unwrap(); // never reached
    drop(writer);

    let recovery = wal::recover(&dir).unwrap();
    assert!(recovery.stats.truncated);
    assert_eq!(recovery.stats.replayed_records, 2);
    assert_eq!(recovery.tenants.len(), 1);
    let t = &recovery.tenants[0];
    assert_eq!(t.last_seq, 1);
    // State reflects batch seq=1 only.
    let mut oracle = build_tenant(32, 3, 9);
    oracle.apply(&eventa[0]).unwrap();
    assert_eq!(
        comparable(&solve_offline(&t.instance, 1)),
        comparable(&solve_offline(&oracle, 1))
    );
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Snapshot rotation: every crash state of a cut + background write.
// ---------------------------------------------------------------------------

fn tenant_params(tenant: u64) -> TenantParams {
    TenantParams {
        switches: 64,
        budget: 3 + tenant as u32 % 4,
        seed: 50 + tenant,
    }
}

fn churn_op(tenant: u64, seq: u64) -> Op {
    Op::Churn(
        tenant,
        seq,
        vec![
            ChurnEvent::LeafRateChange {
                leaf: 62,
                load: 3 * seq + tenant,
            },
            ChurnEvent::LinkRateChange {
                switch: 1 + (seq as usize % 15),
                rate: 1.0 / (1 + seq) as f64,
            },
            ChurnEvent::SwitchAvailability {
                switch: 2 + (tenant as usize % 13),
                available: seq.is_multiple_of(2),
            },
        ],
    )
}

/// Appends `ops` to the log and to the oracle's op list.
fn log_ops(writer: &mut WalWriter, log: &mut Vec<Op>, ops: Vec<Op>) {
    for op in ops {
        match &op {
            Op::Register(t, p) => writer.append_register(*t, *p),
            Op::Evict(t) => writer.append_evict(*t),
            Op::Churn(t, seq, events) => writer.append_churn(*t, *seq, events),
        }
        .unwrap();
        log.push(op);
    }
}

/// The snapshot records of the oracle state after `ops`: what a cut there
/// captures.
fn cut_records(ops: &[Op]) -> Vec<TenantRecord> {
    oracle_replay(ops)
        .into_iter()
        .map(|(tenant, (last_seq, instance))| TenantRecord {
            tenant,
            params: tenant_params(tenant),
            last_seq,
            image: instance.image(),
        })
        .collect()
}

/// Every file of a state dir, by name.
fn read_state(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().into_string().unwrap();
            (name, fs::read(e.path()).unwrap())
        })
        .collect()
}

/// Replaces `dir`'s contents with `files`.
fn write_state(dir: &Path, files: &BTreeMap<String, Vec<u8>>) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        fs::write(dir.join(name), bytes).unwrap();
    }
}

fn names(files: &BTreeMap<String, Vec<u8>>) -> Vec<&str> {
    files.keys().map(String::as_str).collect()
}

/// A crash at each step of a rotation — cut, appends after it, snapshot
/// written, renamed, old segment deleted — recovers exactly the offline
/// replay of every logged record. The states between the job's steps are
/// assembled from the files before and after the job.
#[test]
fn a_crash_at_any_step_of_a_rotation_recovers_every_record() {
    let dir = temp_dir("rotation");
    let crash = temp_dir("rotation-crash");
    let mut log = Vec::new();
    let mut writer = WalWriter::begin(&dir, 0, &[]).unwrap();
    log_ops(
        &mut writer,
        &mut log,
        vec![
            Op::Register(1, tenant_params(1)),
            Op::Register(2, tenant_params(2)),
            churn_op(1, 1),
            churn_op(2, 1),
        ],
    );
    // A first inline rotation, so the old snapshot is not the empty one.
    writer.write_snapshot(&cut_records(&log)).unwrap();
    log_ops(
        &mut writer,
        &mut log,
        vec![
            churn_op(1, 2),
            Op::Register(3, tenant_params(3)),
            Op::Evict(2),
            churn_op(3, 1),
        ],
    );
    let before_cut = read_state(&dir);
    assert_eq!(names(&before_cut), ["snapshot.soar", "wal.soar"]);
    assert_matches_oracle(&dir, &log, "before the cut");

    // Crash right after `wal.soar` was renamed to `wal.prev.soar`.
    let mut renamed = before_cut.clone();
    let live = renamed.remove("wal.soar").unwrap();
    renamed.insert("wal.prev.soar".into(), live);
    write_state(&crash, &renamed);
    assert_matches_oracle(&crash, &log, "after the rename to wal.prev.soar");

    // The cut, then appends into the fresh segment while the job is pending.
    let job = writer.cut().unwrap();
    let records = cut_records(&log);
    log_ops(
        &mut writer,
        &mut log,
        vec![
            churn_op(1, 3),
            churn_op(3, 2),
            Op::Register(4, tenant_params(4)),
            churn_op(4, 1),
        ],
    );
    let after_cut = read_state(&dir);
    assert_eq!(
        names(&after_cut),
        ["snapshot.soar", "wal.prev.soar", "wal.soar"]
    );
    assert_eq!(after_cut["wal.prev.soar"], before_cut["wal.soar"]);
    assert_matches_oracle(&dir, &log, "after the fresh wal.soar, with appends");

    job.write(&records).unwrap();
    let after_job = read_state(&dir);
    assert_eq!(names(&after_job), ["snapshot.soar", "wal.soar"]);
    assert_matches_oracle(&dir, &log, "after the job");

    // Crash with `snapshot.tmp` written but not renamed.
    let mut tmp_written = after_cut.clone();
    tmp_written.insert("snapshot.tmp".into(), after_job["snapshot.soar"].clone());
    write_state(&crash, &tmp_written);
    assert_matches_oracle(&crash, &log, "snapshot.tmp written, not renamed");

    // Crash after the snapshot rename, before `wal.prev.soar` is deleted.
    let mut stale_prev = after_cut.clone();
    stale_prev.insert("snapshot.soar".into(), after_job["snapshot.soar"].clone());
    write_state(&crash, &stale_prev);
    assert_matches_oracle(&crash, &log, "snapshot renamed, prev not deleted");
    let recovery = wal::recover(&crash).unwrap();
    assert!(!recovery.stats.truncated);
    assert_eq!(
        recovery.stats.replayed_records, 4,
        "only the post-cut appends"
    );

    // Startup with that stale `wal.prev.soar`: `begin` writes its snapshot
    // before it touches either segment. A `begin` whose snapshot write fails
    // must leave both segments as they were.
    fs::create_dir(crash.join("snapshot.tmp")).unwrap();
    let tenants = cut_records(&log);
    assert!(WalWriter::begin(&crash, recovery.next_index, &tenants).is_err());
    fs::remove_dir(crash.join("snapshot.tmp")).unwrap();
    assert_eq!(
        read_state(&crash),
        stale_prev,
        "a failed begin touched a segment"
    );
    assert_matches_oracle(&crash, &log, "after a failed begin");
    let writer = WalWriter::begin(&crash, recovery.next_index, &tenants).unwrap();
    drop(writer);
    assert_eq!(names(&read_state(&crash)), ["snapshot.soar", "wal.soar"]);
    assert_matches_oracle(&crash, &log, "after begin over a stale prev");

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
}

/// A snapshot job that fails keeps the retired segment, and a later cut
/// neither rotates nor overwrites it; once a later job succeeds, the old
/// segment goes.
#[test]
fn a_failed_snapshot_job_keeps_the_retired_segment() {
    let dir = temp_dir("failed-job");
    let mut log = Vec::new();
    let mut writer = WalWriter::begin(&dir, 0, &[]).unwrap();
    log_ops(
        &mut writer,
        &mut log,
        vec![Op::Register(1, tenant_params(1)), churn_op(1, 1)],
    );
    fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    let job = writer.cut().unwrap();
    assert!(job.write(&cut_records(&log)).is_err());
    let retired = fs::read(dir.join("wal.prev.soar")).unwrap();
    log_ops(&mut writer, &mut log, vec![churn_op(1, 2)]);
    assert_matches_oracle(&dir, &log, "after the failed job");

    // A later cut while the retired segment remains: no rotation.
    let job = writer.cut().unwrap();
    assert_eq!(fs::read(dir.join("wal.prev.soar")).unwrap(), retired);
    log_ops(
        &mut writer,
        &mut log,
        vec![Op::Register(2, tenant_params(2)), churn_op(2, 1)],
    );
    assert_matches_oracle(&dir, &log, "after a cut over the retired segment");
    assert!(job.write(&[]).is_err(), "snapshot.tmp is still a directory");
    assert_eq!(fs::read(dir.join("wal.prev.soar")).unwrap(), retired);

    fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
    let records = cut_records(&log);
    let job = writer.cut().unwrap();
    log_ops(&mut writer, &mut log, vec![churn_op(1, 3)]);
    job.write(&records).unwrap();
    assert_eq!(names(&read_state(&dir)), ["snapshot.soar", "wal.soar"]);
    assert_matches_oracle(&dir, &log, "after the retry");
    let _ = fs::remove_dir_all(&dir);
}

/// A WAL segment that starts past the index the snapshot expects next has
/// lost records: replay must stop there, not apply the segment.
#[test]
fn a_wal_that_starts_after_a_gap_is_not_replayed() {
    let dir = temp_dir("gap");
    let tenants = cut_records(&[Op::Register(1, tenant_params(1))]);
    let mut writer = WalWriter::begin(&dir, 10, &tenants).unwrap();
    drop(writer);
    let snapshot = fs::read(dir.join("snapshot.soar")).unwrap();
    // A log from index 12: records 10 and 11 are missing.
    writer = WalWriter::begin(&dir, 12, &tenants).unwrap();
    writer
        .append_churn(1, 1, &[ChurnEvent::BudgetChange { budget: 1 }])
        .unwrap();
    drop(writer);
    fs::write(dir.join("snapshot.soar"), snapshot).unwrap();

    let recovery = wal::recover(&dir).unwrap();
    assert!(recovery.stats.truncated, "a gap must be reported");
    assert_eq!(recovery.stats.replayed_records, 0);
    assert_eq!(recovery.next_index, 10);
    assert_eq!(recovery.tenants.len(), 1);
    assert_eq!(recovery.tenants[0].last_seq, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A snapshot job that fails inside the daemon counts one `wal_errors`,
/// loses no record, and the daemon's later rotations and final snapshot
/// leave exactly `snapshot.soar` and `wal.soar`.
#[test]
fn a_daemon_survives_a_failed_snapshot_job() {
    let dir = temp_dir("daemon-failed-job");
    let handle = start(ServeConfig {
        state_dir: Some(dir.clone()),
        snapshot_every: 3,
        ..ServeConfig::default()
    })
    .unwrap();
    // The startup snapshot is written; the next one fails.
    fs::create_dir(dir.join("snapshot.tmp")).unwrap();
    let mut client = Client::connect(&handle.addr()).unwrap();
    let mut log = Vec::new();
    let mut req_id = 0;
    let mut send = |client: &mut Client, log: &mut Vec<Op>, op: Op| {
        req_id += 1;
        let body = match &op {
            Op::Register(tenant, p) => RequestBody::Register {
                tenant: *tenant,
                switches: p.switches,
                budget: p.budget,
                seed: p.seed,
            },
            Op::Evict(tenant) => RequestBody::Evict { tenant: *tenant },
            Op::Churn(tenant, seq, events) => churn_batch(*tenant, *seq, events.clone()),
        };
        let resp = client.call(&request(req_id, body)).unwrap();
        assert!(!matches!(resp.body, ResponseBody::Error { .. }), "{resp:?}");
        log.push(op);
    };
    let wait_for = |what: &str, done: &dyn Fn() -> bool| {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out: {what}");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    };
    send(&mut client, &mut log, Op::Register(1, tenant_params(1)));
    for seq in 1..=3 {
        send(&mut client, &mut log, churn_op(1, seq));
    }
    // Four records > 3: the cut ran after that batch and its job failed.
    wait_for("the failed job", &|| handle.snapshot().wal_errors == 1);
    assert!(dir.join("wal.prev.soar").exists());
    assert_matches_oracle(&dir, &log, "after the failed job");

    fs::remove_dir(dir.join("snapshot.tmp")).unwrap();
    send(&mut client, &mut log, Op::Register(2, tenant_params(2)));
    for seq in 1..=3 {
        send(&mut client, &mut log, churn_op(2, seq));
    }
    wait_for("the retried job", &|| handle.snapshot().snapshots == 2);
    assert!(!dir.join("wal.prev.soar").exists());
    assert_matches_oracle(&dir, &log, "after the retried job");
    send(&mut client, &mut log, churn_op(1, 4));

    client.call(&request(0, RequestBody::Shutdown)).unwrap();
    let snap = handle.join();
    assert_eq!(snap.wal_errors, 1);
    assert_eq!(snap.snapshots, 3, "startup, the retry and shutdown");
    assert_eq!(names(&read_state(&dir)), ["snapshot.soar", "wal.soar"]);
    assert_matches_oracle(&dir, &log, "after shutdown");
    let _ = fs::remove_dir_all(&dir);
}
