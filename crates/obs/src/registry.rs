//! The global metric registry behind the [`counter!`](crate::counter!) and
//! [`gauge!`](crate::gauge!) macros.
//!
//! Metrics are registered once (first use per call site; the macros cache the
//! resolved reference in a `OnceLock`) and live for the process lifetime, so
//! the hot-path cost of an increment is one cached-pointer load plus one
//! relaxed atomic RMW — no locking, no lookup. The registry itself is only
//! locked at registration and at exposition time
//! ([`render_registry`](crate::prom::render_registry)).
//!
//! Registration deduplicates on `(name, labels)`: two call sites naming the
//! same metric share one cell, which is what makes the exposition coherent —
//! there is exactly one source of truth per metric name. Each entry also
//! keeps the description its first describing site gave, which the
//! exposition prints as the family's `# HELP` text.

use crate::hist::LatencyHistogram;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing counter.
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A gauge: a value that can move both ways (queue depths, resident counts).
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// What a registry entry points at.
pub(crate) enum MetricKind {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    /// Rendered as a Prometheus summary (quantiles + `_sum` + `_count`).
    Summary(&'static LatencyHistogram),
}

pub(crate) struct Entry {
    pub(crate) name: &'static str,
    /// What the metric counts, for `# HELP`. Empty = undescribed.
    pub(crate) help: &'static str,
    /// Rendered inside `{}` after the name, e.g. `worker="3"`. Empty = none.
    pub(crate) labels: String,
    pub(crate) kind: MetricKind,
}

pub(crate) static REGISTRY: Mutex<Vec<Entry>> = Mutex::new(Vec::new());

fn find_or_insert(
    name: &'static str,
    help: &'static str,
    labels: String,
    make: impl FnOnce() -> MetricKind,
) -> usize {
    let mut reg = REGISTRY.lock().expect("metric registry poisoned");
    if let Some(i) = reg
        .iter()
        .position(|e| e.name == name && e.labels == labels)
    {
        // A site that only reads the metric may register it first.
        if reg[i].help.is_empty() {
            reg[i].help = help;
        }
        return i;
    }
    reg.push(Entry {
        name,
        help,
        labels,
        kind: make(),
    });
    reg.len() - 1
}

/// Registers (or finds) the process-wide counter `name`, described by `help`
/// (empty for a site that only reads it).
pub fn counter(name: &'static str, help: &'static str) -> &'static Counter {
    counter_labeled(name, help, String::new())
}

/// Registers (or finds) the counter `name{labels}` — `labels` is the rendered
/// Prometheus label body, e.g. `worker="3"`.
pub fn counter_labeled(name: &'static str, help: &'static str, labels: String) -> &'static Counter {
    let i = find_or_insert(name, help, labels, || {
        MetricKind::Counter(Box::leak(Box::new(Counter::new())))
    });
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    match reg[i].kind {
        MetricKind::Counter(c) => c,
        _ => panic!("metric {name} is registered with a different type"),
    }
}

/// Registers (or finds) the process-wide gauge `name`, described by `help`.
pub fn gauge(name: &'static str, help: &'static str) -> &'static Gauge {
    let i = find_or_insert(name, help, String::new(), || {
        MetricKind::Gauge(Box::leak(Box::new(Gauge::new())))
    });
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    match reg[i].kind {
        MetricKind::Gauge(g) => g,
        _ => panic!("metric {name} is registered with a different type"),
    }
}

/// Registers (or finds) the process-wide latency summary `name` (a
/// [`LatencyHistogram`] of nanoseconds, rendered in seconds with quantiles at
/// exposition), described by `help`.
pub fn summary(name: &'static str, help: &'static str) -> &'static LatencyHistogram {
    let i = find_or_insert(name, help, String::new(), || {
        MetricKind::Summary(Box::leak(Box::new(LatencyHistogram::new())))
    });
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    match reg[i].kind {
        MetricKind::Summary(h) => h,
        _ => panic!("metric {name} is registered with a different type"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_shares_one_cell() {
        let a = counter("test_registry_shared_total", "");
        let b = counter("test_registry_shared_total", "a shared test cell");
        assert!(std::ptr::eq(a, b));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        let reg = REGISTRY.lock().unwrap();
        let entry = reg.iter().find(|e| e.name == "test_registry_shared_total");
        assert_eq!(
            entry.unwrap().help,
            "a shared test cell",
            "a later site describes it"
        );
    }

    #[test]
    fn labels_split_cells() {
        let a = counter_labeled("test_registry_labeled_total", "", "worker=\"0\"".into());
        let b = counter_labeled("test_registry_labeled_total", "", "worker=\"1\"".into());
        assert!(!std::ptr::eq(a, b));
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn gauges_move_both_ways() {
        let g = gauge("test_registry_gauge", "");
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }
}
