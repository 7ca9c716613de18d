//! Prometheus text-format exposition (version 0.0.4).
//!
//! [`PromWriter`] is the single formatter for everything the workspace
//! exposes: the global registry ([`render_registry`]) and `soar serve`'s
//! per-daemon snapshot render both go through it, so `# HELP` / `# TYPE`
//! framing, label syntax and float formatting cannot drift between producers.

use crate::hist::LatencyHistogram;
use crate::registry::{MetricKind, REGISTRY};

/// An incremental Prometheus text-format writer.
#[derive(Default)]
pub struct PromWriter {
    buf: String,
    /// Last metric name a header was emitted for (headers once per family).
    headed: Option<String>,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, kind: &str, help: &str) {
        if self.headed.as_deref() == Some(name) {
            return;
        }
        self.buf.push_str("# HELP ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(help);
        self.buf.push('\n');
        self.buf.push_str("# TYPE ");
        self.buf.push_str(name);
        self.buf.push(' ');
        self.buf.push_str(kind);
        self.buf.push('\n');
        self.headed = Some(name.to_owned());
    }

    fn sample(&mut self, name: &str, labels: &str, value: f64) {
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            self.buf.push_str(labels);
            self.buf.push('}');
        }
        self.buf.push(' ');
        if value == value.trunc() && value.abs() < 1e15 {
            self.buf.push_str(&format!("{}", value as i64));
        } else {
            self.buf.push_str(&format!("{value}"));
        }
        self.buf.push('\n');
    }

    /// One counter sample (header emitted on the family's first sample).
    pub fn counter(&mut self, name: &str, help: &str, labels: &str, value: u64) {
        self.header(name, "counter", help);
        self.sample(name, labels, value as f64);
    }

    /// One gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &str, value: f64) {
        self.header(name, "gauge", help);
        self.sample(name, labels, value);
    }

    /// A full summary family from a live histogram: `quantile` samples plus
    /// `_sum` (bucket-resolution upper bound) and `_count`.
    pub fn summary(&mut self, name: &str, help: &str, hist: &LatencyHistogram) {
        self.summary_scaled(name, help, hist, 1.0);
    }

    /// [`Self::summary`] of a nanosecond histogram, exposed in seconds.
    pub fn summary_seconds(&mut self, name: &str, help: &str, hist: &LatencyHistogram) {
        self.summary_scaled(name, help, hist, 1e9);
    }

    fn summary_scaled(&mut self, name: &str, help: &str, hist: &LatencyHistogram, per_unit: f64) {
        let quantiles: Vec<(f64, f64)> = [0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&q| (q, hist.quantile(q) as f64 / per_unit))
            .collect();
        let sum = hist.approx_sum() as f64 / per_unit;
        self.summary_premade(name, help, &quantiles, sum, hist.len());
    }

    /// A summary family from already-folded quantiles (the serve snapshot
    /// path, where percentiles were extracted at snapshot time).
    pub fn summary_premade(
        &mut self,
        name: &str,
        help: &str,
        quantiles: &[(f64, f64)],
        sum: f64,
        count: u64,
    ) {
        self.header(name, "summary", help);
        for &(q, v) in quantiles {
            self.sample(name, &format!("quantile=\"{q}\""), v);
        }
        self.sample(&format!("{name}_sum"), "", sum);
        self.sample(&format!("{name}_count"), "", count as f64);
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.buf
    }
}

/// Renders every metric of the global registry (pool, solver and any other
/// `counter!`/`gauge!` sites), grouped by family in registration order, then
/// `soar_trace_events_dropped_total`: the span events lost to ring
/// overwrites ([`span::dropped_total`](crate::span::dropped_total)).
///
/// A family's `# HELP` text is the description its sites registered; only a
/// family no site described falls back to its own name.
pub fn render_registry() -> String {
    let mut w = PromWriter::new();
    // Read before the registry lock, so the two global locks never nest.
    let dropped = crate::span::dropped_total();
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    // Group samples of one family together: headers may be emitted only once
    // per name, and labeled siblings register as separate entries.
    let mut done: Vec<&'static str> = Vec::new();
    for entry in reg.iter() {
        if done.contains(&entry.name) {
            continue;
        }
        done.push(entry.name);
        let family = || reg.iter().filter(|e| e.name == entry.name);
        let help = family()
            .map(|e| e.help)
            .find(|h| !h.is_empty())
            .unwrap_or(entry.name);
        for e in family() {
            match e.kind {
                MetricKind::Counter(c) => w.counter(e.name, help, &e.labels, c.get()),
                MetricKind::Gauge(g) => w.gauge(e.name, help, &e.labels, g.get() as f64),
                MetricKind::Summary(h) => w.summary_seconds(e.name, help, h),
            }
        }
    }
    w.counter(
        "soar_trace_events_dropped_total",
        "span events overwritten in the per-thread trace rings",
        "",
        dropped,
    );
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_with_one_header_per_family() {
        let mut w = PromWriter::new();
        w.counter("soar_test_total", "a test counter", "", 3);
        w.counter("soar_test_total", "a test counter", "worker=\"1\"", 4);
        w.gauge("soar_depth", "a depth", "", 2.5);
        let text = w.finish();
        assert_eq!(text.matches("# TYPE soar_test_total counter").count(), 1);
        assert!(text.contains("soar_test_total 3\n"));
        assert!(text.contains("soar_test_total{worker=\"1\"} 4\n"));
        assert!(text.contains("# TYPE soar_depth gauge"));
        assert!(text.contains("soar_depth 2.5\n"));
    }

    #[test]
    fn summaries_render_quantiles_sum_and_count() {
        let h = LatencyHistogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.summary("soar_lat_ns", "latency", &h);
        let text = w.finish();
        assert!(text.contains("# TYPE soar_lat_ns summary"));
        assert!(text.contains("soar_lat_ns{quantile=\"0.5\"}"));
        assert!(text.contains("soar_lat_ns{quantile=\"0.999\"}"));
        assert!(text.contains("soar_lat_ns_count 5\n"));
        assert!(text.contains("soar_lat_ns_sum "));
    }

    #[test]
    fn registry_render_includes_registered_metrics() {
        crate::registry::counter("soar_prom_render_test_total", "a render test counter").add(11);
        crate::registry::counter("soar_prom_render_bare_total", "").inc();
        crate::registry::summary("soar_prom_render_test_seconds", "a render test summary")
            .record(2_000_000_000);
        let text = render_registry();
        assert!(text.contains("# TYPE soar_prom_render_test_seconds summary"));
        assert!(text.contains("soar_prom_render_test_seconds_count 1\n"));
        // Recorded in nanoseconds, exposed in seconds (to bucket resolution).
        let p50 = text
            .lines()
            .find_map(|l| l.strip_prefix("soar_prom_render_test_seconds{quantile=\"0.5\"} "))
            .expect("p50 sample");
        let p50: f64 = p50.parse().unwrap();
        assert!((1.5..=2.5).contains(&p50), "{p50}");
        assert!(text.contains("soar_prom_render_test_total 11"));
        assert!(text.contains("# HELP soar_prom_render_test_total a render test counter\n"));
        assert!(text.contains("# HELP soar_prom_render_bare_total soar_prom_render_bare_total\n"));
        assert!(text.contains("# TYPE soar_trace_events_dropped_total counter"));
        // Well-formed: every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name_part.is_empty());
            value.parse::<f64>().expect("sample value parses");
        }
    }
}
