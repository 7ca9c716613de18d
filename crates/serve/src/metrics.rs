//! Server-side counters, gauges and latency histograms, snapshotted on demand.
//!
//! Every per-daemon metric is declared **once**, in the `serve_metrics!` list
//! below: one doc line (the field's rustdoc *and* its Prometheus `# HELP`
//! text), then the field name and its Prometheus family, in a section that
//! gives its kind. From that one list the macro generates
//!
//! * the live [`ServeMetrics`]: a relaxed `AtomicU64` per counter and gauge and
//!   a [`LatencyHistogram`] per latency, so the request hot path records
//!   metrics without locks or allocation (`add(&m.field, n)` is one relaxed
//!   RMW);
//! * the frozen [`MetricsSnapshot`], every field `#[serde(default)]`, which
//!   travels in a [`MetricsReport`](crate::protocol::ResponseBody::MetricsReport)
//!   response and which `soar-loadtest` folds into the `BENCH_serve.json`
//!   artifact that `soar history check` gates;
//! * the copy in [`ServeMetrics::snapshot`];
//! * the descriptor table [`METRICS`], which [`render_prom`] walks for the
//!   `/metrics` exposition and which tests and `soar loadtest --obs-addr`
//!   walk to check that exposition against the binary snapshot.
//!
//! So the binary snapshot and the Prometheus text cannot disagree about which
//! metrics exist. To add a metric, add one entry to its section and bump it
//! from the server; nothing else names it.
//!
//! The sections: `counters` only grow and are exposed as `_total` counters;
//! `gauges` are atomics that move both ways; `sampled` gauges are owned by the
//! server proper (its queue, its tenant map) and handed to
//! [`ServeMetrics::snapshot`]; `latencies` are nanosecond histograms, frozen
//! as microsecond [`LatencySummary`]s and exposed as summaries from the live
//! histogram (full `_sum`/`_count` resolution).

use serde::{Deserialize, Serialize};
use soar_obs::prom::PromWriter;
use soar_pool::hist::LatencyHistogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a [`MetricDesc`] is read and exposed.
#[derive(Debug, Clone, Copy)]
pub enum MetricKind {
    /// A Prometheus counter, read off the snapshot.
    Counter(fn(&MetricsSnapshot) -> u64),
    /// A Prometheus gauge, read off the snapshot.
    Gauge(fn(&MetricsSnapshot) -> u64),
    /// A Prometheus summary, rendered from the live histogram.
    Latency(fn(&ServeMetrics) -> &LatencyHistogram),
}

/// One per-daemon metric: its [`MetricsSnapshot`] field, its Prometheus
/// family and help text, and how to read it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDesc {
    /// The field name in [`ServeMetrics`] and [`MetricsSnapshot`].
    pub field: &'static str,
    /// The Prometheus family name.
    pub family: &'static str,
    /// The `# HELP` text, which is also the field's doc line.
    pub help: &'static str,
    /// The kind, with its accessor.
    pub kind: MetricKind,
}

impl MetricDesc {
    /// The snapshot value of a counter or gauge; `None` for a latency.
    pub fn value(&self, snap: &MetricsSnapshot) -> Option<u64> {
        match self.kind {
            MetricKind::Counter(get) | MetricKind::Gauge(get) => Some(get(snap)),
            MetricKind::Latency(_) => None,
        }
    }
}

macro_rules! serve_metrics {
    (
        counters { $( #[doc = $c_doc:tt] $c:ident => $c_family:literal, )* }
        gauges { $( #[doc = $g_doc:tt] $g:ident => $g_family:literal, )* }
        sampled { $( #[doc = $s_doc:tt] $s:ident => $s_family:literal, )* }
        latencies { $( #[doc = $l_doc:tt] $l:ident => $l_family:literal, )* }
    ) => {
        /// Live server metrics. One instance per server, shared by every thread.
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $( #[doc = $c_doc] pub $c: AtomicU64, )*
            $( #[doc = $g_doc] pub $g: AtomicU64, )*
            $( #[doc = $l_doc] pub $l: LatencyHistogram, )*
        }

        /// The frozen, serializable form of [`ServeMetrics`]. Every field
        /// defaults, so a snapshot from an older or newer server still parses.
        #[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $( #[doc = $c_doc] #[serde(default)] pub $c: u64, )*
            $( #[doc = $g_doc] #[serde(default)] pub $g: u64, )*
            $( #[doc = $s_doc] #[serde(default)] pub $s: u64, )*
            $( #[doc = $l_doc] #[serde(default)] pub $l: LatencySummary, )*
            /// The heaviest resident tenants by solve time / events at snapshot time.
            #[serde(default)]
            pub top_tenants: Vec<TenantBreakdown>,
        }

        impl ServeMetrics {
            /// Freezes the current values. The sampled gauges and the
            /// per-tenant breakdown are owned by the server proper and passed in.
            pub fn snapshot(
                &self,
                $( $s: u64, )*
                top_tenants: Vec<TenantBreakdown>,
            ) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $c: self.$c.load(Ordering::Relaxed), )*
                    $( $g: self.$g.load(Ordering::Relaxed), )*
                    $( $s, )*
                    $( $l: LatencySummary::of(&self.$l), )*
                    top_tenants,
                }
            }
        }

        /// Every per-daemon metric, in exposition order.
        pub const METRICS: &[MetricDesc] = &[
            $( MetricDesc { field: stringify!($c), family: $c_family, help: $c_doc.trim_ascii(),
                kind: MetricKind::Counter(|s| s.$c) }, )*
            $( MetricDesc { field: stringify!($g), family: $g_family, help: $g_doc.trim_ascii(),
                kind: MetricKind::Gauge(|s| s.$g) }, )*
            $( MetricDesc { field: stringify!($s), family: $s_family, help: $s_doc.trim_ascii(),
                kind: MetricKind::Gauge(|s| s.$s) }, )*
            $( MetricDesc { field: stringify!($l), family: $l_family, help: $l_doc.trim_ascii(),
                kind: MetricKind::Latency(|m| &m.$l) }, )*
        ];
    };
}

serve_metrics! {
    counters {
        /// Connections accepted over the server's lifetime.
        accepted_conns => "soar_serve_conns_total",
        /// Well-framed requests read off the wire.
        requests => "soar_serve_requests_total",
        /// Responses written, including sheds and errors (responses, not socket writes).
        responses => "soar_serve_responses_total",
        /// Socket writes that carried responses; one dispatch run shares one write per connection.
        response_flushes => "soar_serve_response_flushes_total",
        /// Churn events applied across all tenants.
        events_applied => "soar_serve_events_applied_total",
        /// Completed solves.
        solves => "soar_serve_solves_total",
        /// Completed sweeps.
        sweeps => "soar_serve_sweeps_total",
        /// Tenants registered.
        registers => "soar_serve_registers_total",
        /// Tenants evicted.
        evictions => "soar_serve_evictions_total",
        /// Requests shed because the global queue was full.
        shed_global => "soar_serve_shed_global_total",
        /// Requests shed at the per-tenant in-flight cap.
        shed_tenant => "soar_serve_shed_tenant_total",
        /// Requests answered with a protocol or semantic error.
        errors => "soar_serve_errors_total",
        /// Responses lost to failed writes (peer gone, or a slow reader past the write deadline).
        io_errors => "soar_serve_io_errors_total",
        /// Churn batches answered `duplicate: true` by the idempotent-replay dedupe.
        duplicate_churns => "soar_serve_duplicate_churns_total",
        /// WAL records appended (registers, evicts and churn batches).
        wal_records => "soar_serve_wal_records_total",
        /// WAL appends or snapshot writes that failed.
        wal_errors => "soar_serve_wal_errors_total",
        /// Snapshots written, including the one at startup and at shutdown.
        snapshots => "soar_serve_snapshots_total",
        /// Tenants rebuilt by `--recover` at startup.
        recovered_tenants => "soar_serve_recovered_tenants_total",
        /// WAL records replayed by `--recover` at startup.
        replayed_wal_records => "soar_serve_replayed_wal_records_total",
        /// Recoveries that stopped at a torn or corrupt WAL record, keeping everything before it (0 or 1).
        recovery_truncated => "soar_serve_recovery_truncated_total",
        /// Nanoseconds `--recover` spent reading the snapshot and replaying the WAL (0 on a fresh start).
        recovery_replay_ns => "soar_serve_recovery_replay_ns_total",
        /// DP cells solves and sweeps filled: whole tables cold, only the dirty closure on warm tables.
        cells_written => "soar_serve_cells_written_total",
        /// Workspace heap allocation events.
        alloc_events => "soar_serve_alloc_events_total",
        /// Solves answered on the tenant's warm tables.
        warm_hits => "soar_serve_warm_hits_total",
        /// Solves that found no warm tables, and either built them or ran cold.
        warm_misses => "soar_serve_warm_misses_total",
        /// Warm tables released by an evict, or by a budget change at the tenant's next solve.
        warm_evictions => "soar_serve_warm_evictions_total",
    }
    gauges {
        /// Heap bytes all warm tables hold, never above the `--warm-tables-mb` budget.
        warm_bytes => "soar_serve_warm_bytes",
    }
    sampled {
        /// Requests waiting in the global queue.
        queue_depth => "soar_serve_queue_depth",
        /// Resident tenants.
        resident_tenants => "soar_serve_resident_tenants",
    }
    latencies {
        /// Queue wait plus service latency of churn batches.
        churn_latency => "soar_serve_churn_latency_ns",
        /// Queue wait plus service latency of solves and sweeps.
        solve_latency => "soar_serve_solve_latency_ns",
        /// Admission-to-dispatch wait of every queued request.
        queue_wait => "soar_serve_queue_wait_ns",
        /// WAL append and fsync latency per durable record.
        wal_append => "soar_serve_wal_append_ns",
        /// Dispatcher batch formation (drain and group).
        batch_form => "soar_serve_batch_form_ns",
    }
}

/// Bumps a counter by `n` (relaxed; metrics tolerate torn cross-counter reads).
#[inline]
pub(crate) fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
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

/// Renders one daemon's metrics in Prometheus text format (0.0.4): every
/// entry of [`METRICS`], then the per-tenant breakdown.
///
/// Counter and gauge values come from `snap` — the **same frozen snapshot**
/// that answers the binary `Metrics` request, so the two expositions cannot
/// disagree about a counter. The latency summaries are rendered from the live
/// histograms in `m` (same instant, full `_sum`/`_count` resolution).
pub fn render_prom(snap: &MetricsSnapshot, m: &ServeMetrics) -> String {
    let mut w = PromWriter::new();
    for d in METRICS {
        match d.kind {
            MetricKind::Counter(get) => w.counter(d.family, d.help, "", get(snap)),
            MetricKind::Gauge(get) => w.gauge(d.family, d.help, "", get(snap) as f64),
            MetricKind::Latency(hist) => w.summary(d.family, d.help, hist(m)),
        }
    }
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
        // Every field defaults, so a snapshot that lacks any of them — the
        // empty object lacks all — parses, with the missing ones zero.
        let empty: MetricsSnapshot = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, MetricsSnapshot::default());
    }

    #[test]
    fn prom_render_matches_the_snapshot_counters() {
        let m = ServeMetrics::default();
        add(&m.solves, 9);
        add(&m.events_applied, 123);
        add(&m.response_flushes, 4);
        add(&m.warm_hits, 7);
        add(&m.warm_bytes, 4096);
        add(&m.snapshots, 2);
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
        assert!(text.contains("soar_serve_snapshots_total 2\n"));
        assert!(text.contains("soar_serve_tenant_events_total{tenant=\"3\"} 123\n"));
        assert!(text.contains("# TYPE soar_serve_solve_latency_ns summary"));
        assert!(text.contains("soar_serve_solve_latency_ns_count 1\n"));
        // Exactly one header per family, with the entry's help text, and
        // every counter and gauge at its snapshot value.
        for d in METRICS {
            assert_eq!(text.matches(&format!("# TYPE {} ", d.family)).count(), 1);
            assert!(text.contains(&format!("# HELP {} {}\n", d.family, d.help)));
            if let Some(v) = d.value(&snap) {
                assert!(
                    text.contains(&format!("\n{} {v}\n", d.family)),
                    "{}",
                    d.field
                );
            }
        }
    }
}
