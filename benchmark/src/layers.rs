//! The layer replay. After the daemon has exited, so nothing contends, the
//! first rounds of the workload's own inputs are fed straight into each
//! layer's public functions and every call is wrapped in a `soar_obs` span
//! from this file. The replay runs with spans off and with spans on: the
//! per-layer numbers are the self times of the traced passes, and the wall
//! time between the two kinds of pass is the tracing overhead.

use crate::gen::Plan;
use crate::stats;
use soar_core::workspace::SolverWorkspace;
use soar_multitenant::churn::ChurnEvent;
use soar_obs::span::RING_CAP;
use soar_obs::trace::CompleteSpan;
use soar_online::DynamicInstance;
use soar_serve::protocol::{Request, Response, ResponseBody};
use soar_serve::wal::{self, TenantParams, TenantRecord, WalWriter};
use soar_topology::{NodeId, Tree};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Solves in the core replay (every round of `solve-mix`'s sample; the first
/// rounds of a churn workload, solving the tenant each batch touched).
const CORE_SOLVES: usize = 200;
/// Snapshots written in the WAL replay.
const SNAPSHOTS: usize = 3;
/// Single-job `scope` calls in the pool replay.
const POOL_SCOPES: usize = 2000;
/// Most span events one replay call records on its own thread, library spans
/// included: a BT(4096) solve records one `gather_level` per level and up to
/// one `gather_stripe` per level and pool worker.
const MAX_EVENTS_PER_CALL: usize = 2 * 48;

/// Benchmark spans opened in the current pass.
static OPENED: AtomicU64 = AtomicU64::new(0);

/// A span around one call into a layer, counted so that spans a full ring
/// overwrote are noticed.
macro_rules! bench_span {
    ($name:literal) => {
        bench_span!($name, 0u64)
    };
    ($name:literal, $arg:expr) => {{
        if soar_obs::tracing_enabled() {
            OPENED.fetch_add(1, Ordering::Relaxed);
        }
        soar_obs::span!($name, $arg)
    }};
}

/// Runs `f` over `items`, at most `per_thread` items on each fresh thread.
/// A fresh thread starts an empty span ring, so no chunk can overwrite its
/// own events.
fn on_fresh_threads<T: Sync, F>(
    name: &str,
    items: &[T],
    per_thread: usize,
    mut f: F,
) -> Result<(), String>
where
    F: FnMut(&T) -> Result<(), String> + Send,
{
    for chunk in items.chunks(per_thread.max(1)) {
        let f = &mut f;
        std::thread::scope(|s| {
            std::thread::Builder::new()
                .name(name.to_owned())
                .spawn_scoped(s, move || chunk.iter().try_for_each(f))
                .map_err(|e| format!("spawning {name}: {e}"))?
                .join()
                .map_err(|_| format!("{name} panicked"))?
        })?;
    }
    Ok(())
}

/// Counts the replay derives from its inputs rather than from timing.
#[derive(Default)]
struct Counts {
    req_bytes: usize,
    events: usize,
    dirty_frac: f64,
    cells: usize,
    alloc_events: usize,
    record_bytes: f64,
    snapshot_bytes: u64,
    pool_threads: usize,
}

/// One instance per tenant, built on first use.
struct Instances<'a> {
    plan: &'a Plan,
    slots: Vec<Option<DynamicInstance>>,
}

impl<'a> Instances<'a> {
    fn new(plan: &'a Plan) -> Self {
        Instances {
            plan,
            slots: (0..plan.schedule.tenants).map(|_| None).collect(),
        }
    }

    /// Tenant `t`'s instance; building it is timed as set-up work.
    fn get(&mut self, t: usize) -> &mut DynamicInstance {
        let plan = self.plan;
        self.slots[t].get_or_insert_with(|| {
            let _s = bench_span!("bench.setup.build_tenant");
            plan.build(t)
        })
    }
}

fn apply(instance: &mut DynamicInstance, events: &[ChurnEvent]) -> Result<(), String> {
    events
        .iter()
        .try_for_each(|e| instance.apply(e))
        .map_err(|e| format!("replay apply: {e}"))
}

/// Marks `v` and its ancestors; returns how many were newly marked.
fn mark_path(tree: &Tree, marked: &mut [bool], v: NodeId) -> usize {
    let mut added = 0;
    let mut next = Some(v);
    while let Some(u) = next {
        if marked[u] {
            break;
        }
        marked[u] = true;
        added += 1;
        next = tree.parent(u);
    }
    added
}

/// The share of switches an incremental re-solve after `events` would refill:
/// the ancestor closure of every switch the events name, over the switch
/// count. `footprints` tracks active intra-instance tenants so a departure
/// knows which leaves it frees.
fn dirty_fraction(
    tree: &Tree,
    events: &[ChurnEvent],
    footprints: &mut BTreeMap<u64, Vec<NodeId>>,
) -> f64 {
    let mut marked = vec![false; tree.n_switches()];
    let mut dirty = 0;
    for event in events {
        match event {
            ChurnEvent::LeafRateChange { leaf, .. } => dirty += mark_path(tree, &mut marked, *leaf),
            ChurnEvent::TenantArrive { tenant, loads } => {
                let leaves: Vec<NodeId> = loads.iter().map(|&(v, _)| v).collect();
                for &v in &leaves {
                    dirty += mark_path(tree, &mut marked, v);
                }
                footprints.insert(*tenant, leaves);
            }
            ChurnEvent::TenantDepart { tenant } => {
                for v in footprints.remove(tenant).unwrap_or_default() {
                    dirty += mark_path(tree, &mut marked, v);
                }
            }
            // Budget, availability and link-rate events are not generated by
            // these workloads; any of them would force a wider re-solve.
            _ => return 1.0,
        }
    }
    dirty as f64 / tree.n_switches() as f64
}

/// One replay pass over every layer; returns its wall time.
fn pass(
    plan: &Plan,
    rounds: &[(usize, usize)],
    dir: &Path,
    counts: &mut Counts,
) -> Result<f64, String> {
    let started = Instant::now();
    *counts = Counts::default();

    // serve.protocol: request encode/decode and a response round trip.
    let (mut req_buf, mut resp_buf) = (Vec::new(), Vec::new());
    let per_thread = RING_CAP / (2 * 3);
    on_fresh_threads("bench-protocol", rounds, per_thread, |&(t, slot)| {
        let req = &plan.rings[t][slot];
        req_buf.clear();
        {
            let _s = bench_span!("bench.protocol.encode");
            req.encode(&mut req_buf);
        }
        counts.req_bytes += req_buf.len();
        let decoded = {
            let _s = bench_span!("bench.protocol.decode");
            Request::decode(&req_buf)
        };
        if decoded.as_ref() != Ok(req) {
            return Err(format!("request codec round trip changed {t}/{slot}"));
        }
        let resp = Response {
            req_id: req.req_id,
            body: ResponseBody::ChurnApplied {
                tenant: t as u64,
                applied: plan.applied[t][slot],
                duplicate: false,
            },
        };
        let back = {
            let _s = bench_span!("bench.protocol.resp_roundtrip");
            resp_buf.clear();
            resp.encode(&mut resp_buf);
            Response::decode(&resp_buf)
        };
        if back.as_ref() != Ok(&resp) {
            return Err("response codec round trip changed a response".into());
        }
        Ok(())
    })?;

    // soar-online: DynamicInstance::apply, batch by batch (and tenant builds).
    let mut instances = Instances::new(plan);
    let mut footprints = vec![BTreeMap::new(); plan.schedule.tenants];
    on_fresh_threads("bench-online", rounds, RING_CAP / 4, |&(t, slot)| {
        let events = plan.events(t, slot);
        let instance = instances.get(t);
        counts.dirty_frac += dirty_fraction(instance.tree(), events, &mut footprints[t]);
        counts.events += events.len();
        let _s = bench_span!("bench.online.apply", events.len());
        apply(instance, events)
    })?;

    // soar-core: a full gather and a traceback on each touched tenant.
    let mut instances = Instances::new(plan);
    let mut ws = SolverWorkspace::new();
    let solves = &rounds[..rounds.len().min(CORE_SOLVES)];
    on_fresh_threads(
        "bench-core",
        solves,
        RING_CAP / MAX_EVENTS_PER_CALL,
        |&(t, slot)| {
            let instance = instances.get(t);
            apply(instance, plan.events(t, slot))?;
            {
                let _s = bench_span!("bench.core.gather", instance.n_switches());
                ws.gather_auto(instance.tree(), instance.budget());
            }
            let cost = {
                let _s = bench_span!("bench.core.traceback");
                ws.trace_best(instance.tree()).0
            };
            black_box(cost);
            counts.cells += ws.last_cells_written();
            counts.alloc_events += ws.last_alloc_events();
            Ok(())
        },
    )?;

    // serve.wal: appends, snapshots and recovery in a temporary state dir.
    on_fresh_threads("bench-wal", &[dir], 1, |dir| {
        wal_layer(plan, rounds, dir, counts)
    })?;

    // soar-pool: the dispatch-and-join cost of one tenant group.
    on_fresh_threads("bench-pool", &[()], 1, |()| {
        let pool = soar_pool::global();
        for _ in 0..POOL_SCOPES {
            let _s = bench_span!("bench.pool.scope");
            pool.scope(|s| s.spawn(|| black_box(())));
        }
        counts.pool_threads = pool.threads();
        Ok(())
    })?;
    Ok(started.elapsed().as_secs_f64())
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn wal_layer(
    plan: &Plan,
    rounds: &[(usize, usize)],
    dir: &Path,
    counts: &mut Counts,
) -> Result<(), String> {
    let err = |e: wal::WalError| format!("wal replay: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let mut writer = WalWriter::begin(dir, 0, &[]).map_err(err)?;
    let tenants = plan.schedule.tenants;
    let params = |t: usize| TenantParams {
        switches: plan.switches,
        budget: plan.budget,
        seed: plan.instance_seeds[t],
    };
    let mut instances: Vec<DynamicInstance> = (0..tenants).map(|t| plan.build(t)).collect();
    for t in 0..tenants {
        writer.append_register(t as u64, params(t)).map_err(err)?;
    }
    let append = |writer: &mut WalWriter,
                  instances: &mut [DynamicInstance],
                  part: &[(usize, usize)]|
     -> Result<(), String> {
        for &(t, slot) in part {
            let events = plan.events(t, slot);
            apply(&mut instances[t], events)?;
            let _s = bench_span!("bench.wal.append", events.len());
            writer.append_churn(t as u64, 0, events).map_err(err)?;
        }
        Ok(())
    };
    let half = rounds.len() / 2;
    append(&mut writer, &mut instances, &rounds[..half])?;
    for _ in 0..SNAPSHOTS {
        let records: Vec<TenantRecord> = instances
            .iter()
            .enumerate()
            .map(|(t, instance)| TenantRecord {
                tenant: t as u64,
                params: params(t),
                last_seq: 0,
                image: instance.image(),
            })
            .collect();
        let _s = bench_span!("bench.wal.snapshot", records.len());
        writer.write_snapshot(&records).map_err(err)?;
    }
    counts.snapshot_bytes = file_len(&dir.join("snapshot.soar"))?;
    // Each snapshot starts a fresh log, so the second half's records are all
    // that follows its header.
    let wal_path = dir.join("wal.soar");
    let header = file_len(&wal_path)?;
    append(&mut writer, &mut instances, &rounds[half..])?;
    counts.record_bytes = (file_len(&wal_path)? - header) as f64 / (rounds.len() - half) as f64;
    drop(writer);
    let recovery = {
        let _s = bench_span!("bench.wal.recover");
        wal::recover(dir)
    }
    .map_err(err)?;
    let images_match = recovery.tenants.len() == tenants
        && recovery.tenants.iter().all(|r| {
            instances
                .get(r.tenant as usize)
                .is_some_and(|i| i.image() == r.instance.image())
        });
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if images_match {
        Ok(())
    } else {
        Err("wal replay: recovery disagrees with the applied state".into())
    }
}

/// Each benchmark span's self time: its duration minus that of the benchmark
/// spans nested directly inside it on the same thread. Library spans are part
/// of the layer the benchmark span called into, so they are not subtracted.
fn self_times(spans: &[&CompleteSpan]) -> Vec<(&'static str, u64, u64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].ts_ns,
            std::cmp::Reverse(spans[i].dur_ns),
        )
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for &i in &order {
        let s = spans[i];
        while let Some(&top) = open.last() {
            let t = spans[top];
            if t.tid == s.tid && s.ts_ns < t.ts_ns + t.dur_ns {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(s.dur_ns);
        }
        open.push(i);
    }
    spans
        .iter()
        .zip(own)
        .map(|(s, own)| (s.name, own, s.arg))
        .collect()
}

/// Runs the replay over the first `replay_rounds` rounds of `plan`, writes
/// the traced pass as Chrome trace JSON to `trace_path`, and returns the
/// per-layer metrics as `(name, value, unit)`.
pub fn replay(
    plan: &Plan,
    replay_rounds: usize,
    work_dir: &Path,
    trace_path: &Path,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let rounds: Vec<(usize, usize)> = (0..replay_rounds).map(|r| plan.schedule.round(r)).collect();
    let dir = work_dir.join(format!("wal-replay-{}", std::process::id()));
    let mut counts = Counts::default();

    // A warm-up pass, then spans off and on twice each; the overhead compares
    // the faster pass of each kind, which is the least disturbed by anything
    // else running on the machine. The metrics pool both traced passes.
    soar_obs::set_tracing(false);
    pass(plan, &rounds, &dir, &mut counts)?;
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    OPENED.store(0, Ordering::Relaxed);
    for _ in 0..2 {
        off = off.min(pass(plan, &rounds, &dir, &mut counts)?);
        soar_obs::set_tracing(true);
        let traced = pass(plan, &rounds, &dir, &mut counts);
        soar_obs::set_tracing(false);
        on = on.min(traced?);
    }

    let threads = soar_obs::span::snapshot();
    std::fs::write(trace_path, soar_obs::trace::chrome_trace_json(&threads))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let all = soar_obs::trace::complete_spans(&threads);
    let ours: Vec<&CompleteSpan> = all
        .iter()
        .filter(|s| s.name.starts_with("bench."))
        .collect();
    let opened = OPENED.load(Ordering::Relaxed);
    if (ours.len() as u64) < opened {
        return Err(format!(
            "the trace holds {} of the {opened} benchmark spans opened: a span ring overwrote events",
            ours.len()
        ));
    }

    let mut by_name: HashMap<&str, Vec<f64>> = HashMap::new();
    let (mut apply_ns, mut applied) = (0u64, 0u64);
    for (name, own, arg) in self_times(&ours) {
        by_name.entry(name).or_default().push(own as f64);
        if name == "bench.online.apply" {
            apply_ns += own;
            applied += arg;
        }
    }
    let med = |name: &str, scale: f64| -> Result<f64, String> {
        by_name
            .get(name)
            .map(|v| stats::median(v) / scale)
            .ok_or_else(|| format!("no `{name}` spans in the trace"))
    };
    let n = rounds.len() as f64;
    let solves = rounds.len().min(CORE_SOLVES) as f64;
    Ok(vec![
        (
            "protocol.encode_ns",
            med("bench.protocol.encode", 1.0)?,
            "ns",
        ),
        (
            "protocol.decode_ns",
            med("bench.protocol.decode", 1.0)?,
            "ns",
        ),
        ("protocol.req_bytes", counts.req_bytes as f64 / n, "bytes"),
        (
            "protocol.resp_roundtrip_ns",
            med("bench.protocol.resp_roundtrip", 1.0)?,
            "ns",
        ),
        ("pool.scope_ns", med("bench.pool.scope", 1.0)?, "ns"),
        ("pool.threads", counts.pool_threads as f64, "count"),
        (
            "online.apply_ns_per_event",
            apply_ns as f64 / applied as f64,
            "ns",
        ),
        ("online.events_per_req", counts.events as f64 / n, "count"),
        ("online.dirty_frac", counts.dirty_frac / n, "ratio"),
        ("core.gather_ms", med("bench.core.gather", 1e6)?, "ms"),
        ("core.traceback_us", med("bench.core.traceback", 1e3)?, "us"),
        (
            "core.cells_per_solve",
            counts.cells as f64 / solves,
            "count",
        ),
        (
            "core.alloc_events_per_solve",
            counts.alloc_events as f64 / solves,
            "count",
        ),
        ("wal.append_us", med("bench.wal.append", 1e3)?, "us"),
        ("wal.record_bytes", counts.record_bytes, "bytes"),
        ("wal.snapshot_ms", med("bench.wal.snapshot", 1e6)?, "ms"),
        ("wal.snapshot_bytes", counts.snapshot_bytes as f64, "bytes"),
        ("wal.recover_ms", med("bench.wal.recover", 1e6)?, "ms"),
        (
            "setup.build_tenant_ms",
            med("bench.setup.build_tenant", 1e6)?,
            "ms",
        ),
        ("trace.overhead_frac", (on - off) / off, "ratio"),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tid: u64, name: &'static str, ts_ns: u64, dur_ns: u64) -> CompleteSpan {
        CompleteSpan {
            tid,
            name,
            ts_ns,
            dur_ns,
            depth: 0,
            arg: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_benchmark_spans_only_on_their_thread() {
        let spans = [
            span(1, "outer", 0, 100),
            span(1, "inner", 10, 30),
            span(1, "after", 200, 5),
            span(2, "other", 20, 50),
        ];
        let refs: Vec<&CompleteSpan> = spans.iter().collect();
        let own: Vec<u64> = self_times(&refs)
            .into_iter()
            .map(|(_, own, _)| own)
            .collect();
        assert_eq!(own, [70, 30, 5, 50]);
    }

    #[test]
    fn dirty_fraction_is_the_ancestor_closure() {
        // BT(8): 7 switches, root 0; a leaf's closure is its 3-switch path.
        let tree = soar_topology::builders::complete_binary_tree_bt(8);
        let leaf = tree.leaves().next().unwrap();
        let mut footprints = BTreeMap::new();
        let one = [ChurnEvent::LeafRateChange { leaf, load: 1 }];
        assert_eq!(dirty_fraction(&tree, &one, &mut footprints), 3.0 / 7.0);
        let all: Vec<ChurnEvent> = tree
            .leaves()
            .map(|leaf| ChurnEvent::LeafRateChange { leaf, load: 1 })
            .collect();
        assert_eq!(dirty_fraction(&tree, &all, &mut footprints), 1.0);
        // A departure dirties the footprint its arrival recorded.
        let arrive = [ChurnEvent::TenantArrive {
            tenant: 9,
            loads: vec![(leaf, 4)],
        }];
        dirty_fraction(&tree, &arrive, &mut footprints);
        let depart = [ChurnEvent::TenantDepart { tenant: 9 }];
        assert_eq!(dirty_fraction(&tree, &depart, &mut footprints), 3.0 / 7.0);
        assert!(footprints.is_empty());
    }
}
