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
        let quantiles: Vec<(f64, u64)> = [0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&q| (q, hist.quantile(q)))
            .collect();
        self.summary_premade(name, help, &quantiles, hist.approx_sum() as f64, hist.len());
    }

    /// A summary family from already-folded quantiles (the serve snapshot
    /// path, where percentiles were extracted at snapshot time).
    pub fn summary_premade(
        &mut self,
        name: &str,
        help: &str,
        quantiles: &[(f64, u64)],
        sum: f64,
        count: u64,
    ) {
        self.header(name, "summary", help);
        for &(q, v) in quantiles {
            self.sample(name, &format!("quantile=\"{q}\""), v as f64);
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
        for e in reg.iter().filter(|e| e.name == entry.name) {
            match e.kind {
                MetricKind::Counter(c) => w.counter(e.name, e.name, &e.labels, c.get()),
                MetricKind::Gauge(g) => w.gauge(e.name, e.name, &e.labels, g.get() as f64),
                MetricKind::Summary(h) => w.summary(e.name, e.name, h),
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
        crate::registry::counter("soar_prom_render_test_total").add(11);
        let text = render_registry();
        assert!(text.contains("soar_prom_render_test_total 11"));
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
