//! Server-side counters and latency histograms, snapshotted on demand.
//!
//! Every counter is a relaxed atomic and both histograms are
//! [`LatencyHistogram`]s, so the request hot path records metrics without
//! locks or allocation. A [`MetricsSnapshot`] is the serde-friendly frozen
//! view that travels in a [`MetricsReport`](crate::protocol::ResponseBody::MetricsReport)
//! response; `soar-loadtest` folds it into the `BENCH_serve.json` artifact
//! that `soar history check` gates.

use serde::{Deserialize, Serialize};
use soar_obs::prom::PromWriter;
use soar_pool::hist::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Live server metrics. One instance per server, shared by every thread.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Connections accepted over the server's lifetime.
    pub accepted_conns: AtomicU64,
    /// Well-framed requests read off the wire.
    pub requests: AtomicU64,
    /// Responses written (including sheds and errors). Counts responses,
    /// not socket writes.
    pub responses: AtomicU64,
    /// Socket writes that carried responses. Responses to one dispatch run
    /// share one write per connection, so `responses / response_flushes` is
    /// the mean number of responses coalesced into a write.
    pub response_flushes: AtomicU64,
    /// Churn events applied across all tenants.
    pub events_applied: AtomicU64,
    /// Completed solves.
    pub solves: AtomicU64,
    /// Completed sweeps.
    pub sweeps: AtomicU64,
    /// Tenants registered.
    pub registers: AtomicU64,
    /// Tenants evicted.
    pub evictions: AtomicU64,
    /// Requests shed because the global queue was full.
    pub shed_global: AtomicU64,
    /// Requests shed at the per-tenant in-flight cap.
    pub shed_tenant: AtomicU64,
    /// Requests answered with a protocol/semantic error.
    pub errors: AtomicU64,
    /// Responses lost to failed writes (peer gone mid-flight, or a slow
    /// reader blew the per-connection write deadline). This counts
    /// responses, not writes: one failed write of a coalesced run adds every
    /// response it carried, and so does each response dropped afterwards
    /// because the connection was already gone.
    pub io_errors: AtomicU64,
    /// Churn batches answered `duplicate: true` (idempotent-replay dedupe).
    pub duplicate_churns: AtomicU64,
    /// WAL records appended (registers + evicts + churn batches).
    pub wal_records: AtomicU64,
    /// WAL appends that failed (the request was rejected with `Internal`).
    pub wal_errors: AtomicU64,
    /// Snapshots written (including the one at startup and at shutdown).
    pub snapshots: AtomicU64,
    /// Tenants rebuilt by `--recover` at startup.
    pub recovered_tenants: AtomicU64,
    /// WAL records replayed by `--recover` at startup.
    pub replayed_wal_records: AtomicU64,
    /// `1` when recovery hit a bad record (torn/corrupt tail) and stopped
    /// there; everything before it was kept.
    pub recovery_truncated: AtomicU64,
    /// Wall time `--recover` spent reading the snapshot and replaying the WAL,
    /// in nanoseconds (0 when the daemon started fresh).
    pub recovery_replay_ns: AtomicU64,
    /// DP cells solves and sweeps actually filled: the whole table for a
    /// cold solve or a sweep, only the refilled dirty closure for a solve on
    /// warm tables. (Each [`SolveOutcome`](crate::protocol::SolveOutcome)
    /// instead reports the size of the tables its answer was read from.)
    pub cells_written: AtomicU64,
    /// Workspace heap allocation events. Cold solves run on warm per-thread
    /// workspaces and stay at the warm-up floor; a tenant's first solve on
    /// warm tables allocates them, and later ones allocate nothing.
    pub alloc_events: AtomicU64,
    /// Solves answered on the tenant's warm tables (see the `warm` module).
    pub warm_hits: AtomicU64,
    /// Solves that found no warm tables: each either built them, when the
    /// warm budget had room, or ran cold.
    pub warm_misses: AtomicU64,
    /// Warm tables released: by an `Evict`, or by a `BudgetChange` that
    /// re-laid them out, at the tenant's next solve.
    pub warm_evictions: AtomicU64,
    /// Heap bytes all warm tables hold now: the one atomic the
    /// `--warm-tables-mb` budget is enforced on, never above it.
    pub warm_bytes: AtomicU64,
    /// Queue-wait + service latency of churn batches, in nanoseconds.
    pub churn_latency: LatencyHistogram,
    /// Queue-wait + service latency of solves/sweeps, in nanoseconds.
    pub solve_latency: LatencyHistogram,
    /// Admission-to-dispatch wait of every queued request, in nanoseconds —
    /// the pure queueing component of the latencies above.
    pub queue_wait: LatencyHistogram,
    /// WAL append + fsync latency per durable record, in nanoseconds.
    pub wal_append: LatencyHistogram,
    /// Dispatcher batch-formation latency (drain + group), in nanoseconds.
    pub batch_form: LatencyHistogram,
}

/// Bumps a counter by `n` (relaxed; metrics tolerate torn cross-counter reads).
#[inline]
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

impl ServeMetrics {
    /// Freezes the current values. `queue_depth`, `resident_tenants` and the
    /// per-tenant breakdown are owned by the server proper and passed in.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        resident_tenants: usize,
        top_tenants: Vec<TenantBreakdown>,
    ) -> MetricsSnapshot {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        MetricsSnapshot {
            accepted_conns: c(&self.accepted_conns),
            requests: c(&self.requests),
            responses: c(&self.responses),
            response_flushes: c(&self.response_flushes),
            events_applied: c(&self.events_applied),
            solves: c(&self.solves),
            sweeps: c(&self.sweeps),
            registers: c(&self.registers),
            evictions: c(&self.evictions),
            shed_global: c(&self.shed_global),
            shed_tenant: c(&self.shed_tenant),
            errors: c(&self.errors),
            io_errors: c(&self.io_errors),
            duplicate_churns: c(&self.duplicate_churns),
            wal_records: c(&self.wal_records),
            wal_errors: c(&self.wal_errors),
            snapshots: c(&self.snapshots),
            recovered_tenants: c(&self.recovered_tenants),
            replayed_wal_records: c(&self.replayed_wal_records),
            recovery_truncated: c(&self.recovery_truncated),
            recovery_replay_ns: c(&self.recovery_replay_ns),
            cells_written: c(&self.cells_written),
            alloc_events: c(&self.alloc_events),
            warm_hits: c(&self.warm_hits),
            warm_misses: c(&self.warm_misses),
            warm_evictions: c(&self.warm_evictions),
            warm_bytes: c(&self.warm_bytes),
            queue_depth,
            resident_tenants,
            churn_latency: LatencySummary::of(&self.churn_latency),
            solve_latency: LatencySummary::of(&self.solve_latency),
            queue_wait: LatencySummary::of(&self.queue_wait),
            wal_append: LatencySummary::of(&self.wal_append),
            batch_form: LatencySummary::of(&self.batch_form),
            top_tenants,
        }
    }
}

/// The frozen, serializable form of [`ServeMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Connections accepted.
    pub accepted_conns: u64,
    /// Requests read.
    pub requests: u64,
    /// Responses written.
    pub responses: u64,
    /// Socket writes that carried responses.
    #[serde(default)]
    pub response_flushes: u64,
    /// Churn events applied.
    pub events_applied: u64,
    /// Solves completed.
    pub solves: u64,
    /// Sweeps completed.
    pub sweeps: u64,
    /// Tenants registered.
    pub registers: u64,
    /// Tenants evicted.
    pub evictions: u64,
    /// Global-queue sheds.
    pub shed_global: u64,
    /// Per-tenant in-flight sheds.
    pub shed_tenant: u64,
    /// Error responses.
    pub errors: u64,
    /// Responses lost to failed writes.
    pub io_errors: u64,
    /// Deduplicated (replayed) churn batches.
    #[serde(default)]
    pub duplicate_churns: u64,
    /// WAL records appended.
    #[serde(default)]
    pub wal_records: u64,
    /// Failed WAL appends.
    #[serde(default)]
    pub wal_errors: u64,
    /// Snapshots written.
    #[serde(default)]
    pub snapshots: u64,
    /// Tenants rebuilt at startup.
    #[serde(default)]
    pub recovered_tenants: u64,
    /// WAL records replayed at startup.
    #[serde(default)]
    pub replayed_wal_records: u64,
    /// Whether recovery stopped at a bad record (0/1).
    #[serde(default)]
    pub recovery_truncated: u64,
    /// Wall time recovery replay took, in nanoseconds.
    #[serde(default)]
    pub recovery_replay_ns: u64,
    /// DP cells written.
    pub cells_written: u64,
    /// Workspace allocation events.
    pub alloc_events: u64,
    /// Solves answered on warm tables.
    #[serde(default)]
    pub warm_hits: u64,
    /// Solves that found no warm tables.
    #[serde(default)]
    pub warm_misses: u64,
    /// Warm tables released by an evict or a budget change.
    #[serde(default)]
    pub warm_evictions: u64,
    /// Heap bytes held by warm tables at snapshot time.
    #[serde(default)]
    pub warm_bytes: u64,
    /// Global queue depth at snapshot time.
    pub queue_depth: usize,
    /// Resident tenants at snapshot time.
    pub resident_tenants: usize,
    /// Churn-batch latency percentiles.
    pub churn_latency: LatencySummary,
    /// Solve/sweep latency percentiles.
    pub solve_latency: LatencySummary,
    /// Queue-wait percentiles (admission to dispatch).
    #[serde(default)]
    pub queue_wait: LatencySummary,
    /// WAL append latency percentiles.
    #[serde(default)]
    pub wal_append: LatencySummary,
    /// Dispatcher batch-formation latency percentiles.
    #[serde(default)]
    pub batch_form: LatencySummary,
    /// The heaviest resident tenants by solve time / events at snapshot time.
    #[serde(default)]
    pub top_tenants: Vec<TenantBreakdown>,
}

impl MetricsSnapshot {
    /// Total sheds, both scopes.
    pub fn sheds(&self) -> u64 {
        self.shed_global + self.shed_tenant
    }
}

/// One tenant's usage within a [`MetricsSnapshot::top_tenants`] breakdown.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantBreakdown {
    /// The tenant id.
    pub tenant: u64,
    /// Churn events applied to this tenant.
    pub events_applied: u64,
    /// Solves + sweeps completed for this tenant.
    pub solves: u64,
    /// Total solver wall time spent on this tenant, in nanoseconds.
    pub solve_ns: u64,
}

/// p50/p99/p999 percentiles of one histogram, in microseconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
    /// Largest sample, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes a nanosecond histogram into microsecond percentiles.
    pub fn of(hist: &LatencyHistogram) -> Self {
        let (p50, p99, p999) = hist.percentiles();
        LatencySummary {
            count: hist.len(),
            p50_us: p50 as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            p999_us: p999 as f64 / 1e3,
            max_us: hist.max() as f64 / 1e3,
        }
    }
}

/// Renders one daemon's metrics in Prometheus text format (0.0.4).
///
/// Counter and gauge values come from `snap` — the **same frozen snapshot**
/// that answers the binary `Metrics` request, so the two expositions cannot
/// disagree about a counter. The latency summaries are rendered from the live
/// histograms in `m` (same instant, full `_sum`/`_count` resolution).
pub fn render_prom(snap: &MetricsSnapshot, m: &ServeMetrics) -> String {
    let mut w = PromWriter::new();
    let counters: [(&str, &str, u64); 21] = [
        (
            "soar_serve_conns_total",
            "connections accepted",
            snap.accepted_conns,
        ),
        ("soar_serve_requests_total", "requests read", snap.requests),
        (
            "soar_serve_responses_total",
            "responses written",
            snap.responses,
        ),
        (
            "soar_serve_response_flushes_total",
            "socket writes carrying responses",
            snap.response_flushes,
        ),
        (
            "soar_serve_events_applied_total",
            "churn events applied",
            snap.events_applied,
        ),
        ("soar_serve_solves_total", "solves completed", snap.solves),
        ("soar_serve_sweeps_total", "sweeps completed", snap.sweeps),
        (
            "soar_serve_registers_total",
            "tenants registered",
            snap.registers,
        ),
        (
            "soar_serve_evictions_total",
            "tenants evicted",
            snap.evictions,
        ),
        (
            "soar_serve_shed_global_total",
            "requests shed at the global queue",
            snap.shed_global,
        ),
        (
            "soar_serve_shed_tenant_total",
            "requests shed at the tenant in-flight cap",
            snap.shed_tenant,
        ),
        ("soar_serve_errors_total", "error responses", snap.errors),
        (
            "soar_serve_io_errors_total",
            "responses lost to failed writes",
            snap.io_errors,
        ),
        (
            "soar_serve_duplicate_churns_total",
            "deduplicated churn batches",
            snap.duplicate_churns,
        ),
        (
            "soar_serve_wal_records_total",
            "WAL records appended",
            snap.wal_records,
        ),
        (
            "soar_serve_wal_errors_total",
            "failed WAL appends",
            snap.wal_errors,
        ),
        (
            "soar_serve_cells_written_total",
            "DP cells filled by solves and sweeps",
            snap.cells_written,
        ),
        (
            "soar_serve_alloc_events_total",
            "workspace allocation events",
            snap.alloc_events,
        ),
        (
            "soar_serve_warm_hits_total",
            "solves answered on warm tables",
            snap.warm_hits,
        ),
        (
            "soar_serve_warm_misses_total",
            "solves that found no warm tables",
            snap.warm_misses,
        ),
        (
            "soar_serve_warm_evictions_total",
            "warm tables released by an evict or a budget change",
            snap.warm_evictions,
        ),
    ];
    for (name, help, value) in counters {
        w.counter(name, help, "", value);
    }
    w.gauge(
        "soar_serve_queue_depth",
        "global queue depth",
        "",
        snap.queue_depth as f64,
    );
    w.gauge(
        "soar_serve_resident_tenants",
        "resident tenants",
        "",
        snap.resident_tenants as f64,
    );
    w.gauge(
        "soar_serve_warm_bytes",
        "heap bytes held by warm tables",
        "",
        snap.warm_bytes as f64,
    );
    for t in &snap.top_tenants {
        let labels = format!("tenant=\"{}\"", t.tenant);
        w.counter(
            "soar_serve_tenant_events_total",
            "churn events applied, heaviest tenants",
            &labels,
            t.events_applied,
        );
    }
    for t in &snap.top_tenants {
        let labels = format!("tenant=\"{}\"", t.tenant);
        w.counter(
            "soar_serve_tenant_solve_ns_total",
            "solver wall time, heaviest tenants",
            &labels,
            t.solve_ns,
        );
    }
    w.summary(
        "soar_serve_churn_latency_ns",
        "churn batch latency",
        &m.churn_latency,
    );
    w.summary(
        "soar_serve_solve_latency_ns",
        "solve/sweep latency",
        &m.solve_latency,
    );
    w.summary(
        "soar_serve_queue_wait_ns",
        "admission-to-dispatch wait",
        &m.queue_wait,
    );
    w.summary(
        "soar_serve_wal_append_ns",
        "WAL append latency",
        &m.wal_append,
    );
    w.summary(
        "soar_serve_batch_form_ns",
        "dispatcher batch formation",
        &m.batch_form,
    );
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = ServeMetrics::default();
        add(&m.requests, 5);
        add(&m.events_applied, 1000);
        m.churn_latency.record(1_500);
        m.churn_latency.record(2_000_000);
        m.queue_wait.record(900);
        let top = vec![TenantBreakdown {
            tenant: 7,
            events_applied: 1000,
            solves: 2,
            solve_ns: 5_000,
        }];
        let snap = m.snapshot(3, 42, top);
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.queue_depth, 3);
        assert_eq!(snap.resident_tenants, 42);
        assert_eq!(snap.churn_latency.count, 2);
        assert_eq!(snap.queue_wait.count, 1);
        assert_eq!(snap.top_tenants[0].tenant, 7);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshots_from_older_servers_still_parse() {
        // The gate artifact stores snapshots without the stage/tenant fields;
        // they must deserialize with defaults (the `#[serde(default)]` pact).
        let m = ServeMetrics::default();
        let snap = m.snapshot(0, 0, Vec::new());
        let mut json = serde_json::to_string(&snap).unwrap();
        for field in [
            "\"queue_wait\"",
            "\"wal_append\"",
            "\"batch_form\"",
            "\"top_tenants\"",
        ] {
            let start = json.find(field).unwrap();
            // Strip `,"field":{...}` / `,"field":[...]` by scanning to the
            // matching close at depth 0.
            let mut depth = 0i32;
            let mut end = start;
            for (i, c) in json[start..].char_indices() {
                match c {
                    '{' | '[' => depth += 1,
                    '}' | ']' => {
                        depth -= 1;
                        if depth == 0 {
                            end = start + i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            json.replace_range(start - 1..end, ""); // the leading comma too
        }
        // The warm-table counters are plain numbers: strip `,"field":N`.
        for field in [
            "\"warm_hits\"",
            "\"warm_misses\"",
            "\"warm_evictions\"",
            "\"warm_bytes\"",
        ] {
            let start = json.find(field).unwrap();
            let end = start + json[start..].find(',').unwrap();
            json.replace_range(start - 1..end, "");
        }
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.queue_wait, LatencySummary::default());
        assert!(back.top_tenants.is_empty());
        assert_eq!((back.warm_hits, back.warm_bytes), (0, 0));
    }

    #[test]
    fn prom_render_matches_the_snapshot_counters() {
        let m = ServeMetrics::default();
        add(&m.solves, 9);
        add(&m.events_applied, 123);
        add(&m.response_flushes, 4);
        add(&m.warm_hits, 7);
        add(&m.warm_bytes, 4096);
        m.solve_latency.record(50_000);
        let snap = m.snapshot(
            2,
            1,
            vec![TenantBreakdown {
                tenant: 3,
                events_applied: 123,
                solves: 9,
                solve_ns: 777,
            }],
        );
        let text = render_prom(&snap, &m);
        assert!(text.contains("soar_serve_solves_total 9\n"));
        assert!(text.contains("soar_serve_events_applied_total 123\n"));
        assert!(text.contains("soar_serve_response_flushes_total 4\n"));
        assert!(text.contains("soar_serve_queue_depth 2\n"));
        assert!(text.contains("soar_serve_warm_hits_total 7\n"));
        assert!(text.contains("soar_serve_warm_bytes 4096\n"));
        assert!(text.contains("soar_serve_tenant_events_total{tenant=\"3\"} 123\n"));
        assert!(text.contains("# TYPE soar_serve_solve_latency_ns summary"));
        assert!(text.contains("soar_serve_solve_latency_ns_count 1\n"));
        // Exactly one header per family.
        assert_eq!(text.matches("# TYPE soar_serve_solves_total").count(), 1);
    }
}
