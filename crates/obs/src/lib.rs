//! # soar-obs
//!
//! The std-only observability layer of the SOAR workspace: structured span
//! tracing, a process-wide metric registry, and two exporters — Chrome
//! `trace_event` JSON ([`trace`], behind the `soar trace` CLI) and Prometheus
//! text exposition ([`prom`] + [`http`], behind `soar serve --obs-addr`).
//!
//! The build environment has no crates.io access, so this crate hand-rolls
//! the pieces a `tracing` + `prometheus` stack would normally provide, scoped
//! to what the workspace needs:
//!
//! * [`span!`] — RAII phase spans recorded into **per-thread lock-free ring
//!   buffers** ([`mod@span`]). Tracing is off by default; the disabled cost of a
//!   `span!` site is a **single relaxed atomic load**. Enable with
//!   [`set_tracing`], snapshot with [`span::snapshot`], export with
//!   [`trace::chrome_trace_json`].
//! * [`counter!`] / [`gauge!`] — always-on process metrics backed by one
//!   relaxed atomic each, registered once per call site ([`registry`]) and
//!   rendered by [`prom::render_registry`].
//! * [`hist::LatencyHistogram`] — the workspace's single latency histogram
//!   (HDR-style log buckets, allocation-free record path), re-exported by
//!   `soar-pool` and folded into `soar serve`'s `MetricsSnapshot`.
//!
//! ```
//! use soar_obs::{counter, span};
//!
//! // Metrics are always live; one relaxed RMW per increment.
//! counter!("soar_doc_solves_total", "solves run by this example").inc();
//!
//! // Spans only record while tracing is enabled.
//! soar_obs::set_tracing(true);
//! {
//!     let _solve = span!("doc_solve");
//!     let _phase = span!("doc_gather", 42); // optional u64 argument
//! }
//! soar_obs::set_tracing(false);
//!
//! let threads = soar_obs::span::snapshot();
//! let spans = soar_obs::trace::complete_spans(&threads);
//! assert!(spans.iter().any(|s| s.name == "doc_solve"));
//! assert!(spans.iter().any(|s| s.name == "doc_gather" && s.arg == 42));
//!
//! let json = soar_obs::trace::chrome_trace_json(&threads);
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod http;
pub mod prom;
pub mod registry;
pub mod span;
pub mod trace;

use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::Instant;

/// Turns span tracing on or off process-wide. Counters and gauges are always
/// live; only [`span!`] sites consult this flag.
pub fn set_tracing(enabled: bool) {
    span::TRACING.store(enabled, Ordering::Release);
}

/// Whether span tracing is currently enabled — the single relaxed load that
/// is the entire cost of a disabled [`span!`] site.
#[inline]
pub fn tracing_enabled() -> bool {
    span::TRACING.load(Ordering::Relaxed)
}

/// The process trace epoch: all span timestamps are nanoseconds since the
/// first call to this function.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since [`epoch`]. Monotone per thread (it is monotone globally,
/// up to `Instant` precision).
#[inline]
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Opens an RAII span that ends when the returned guard is dropped.
///
/// `span!("name")` or `span!("name", arg)` where `arg` is any value castable
/// to `u64` (a level index, a dirty-set size, …). When tracing is disabled
/// the expansion is one relaxed atomic load and a no-op guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span!($name, 0u64)
    };
    ($name:expr, $arg:expr) => {{
        if $crate::tracing_enabled() {
            static SITE: $crate::span::Site = $crate::span::Site::new($name);
            $crate::span::SpanGuard::enter(&SITE, $arg as u64)
        } else {
            $crate::span::SpanGuard::disabled()
        }
    }};
}

/// Resolves (once per call site) a named [`registry::Counter`].
///
/// `counter!("soar_x_total", "what it counts").inc()` — the lookup is cached
/// in a `OnceLock`, so steady-state cost is one load plus the relaxed
/// increment. The description becomes the metric's `# HELP` text; a site
/// that only reads the counter may leave it out.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, "")
    };
    ($name:expr, $help:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::registry::Counter> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry::counter($name, $help))
    }};
}

/// Resolves (once per call site) a named [`registry::Gauge`], described like
/// a [`counter!`].
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::gauge!($name, "")
    };
    ($name:expr, $help:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::registry::Gauge> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry::gauge($name, $help))
    }};
}

/// Resolves (once per call site) a named registry summary, a
/// [`hist::LatencyHistogram`] that records nanoseconds and is exposed in
/// seconds, so name it `*_seconds`. Described like a [`counter!`].
#[macro_export]
macro_rules! summary {
    ($name:expr, $help:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::hist::LatencyHistogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry::summary($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_spans_record_nothing() {
        super::set_tracing(false);
        {
            let _g = span!("test_disabled_span");
        }
        let threads = crate::span::snapshot();
        for t in &threads {
            assert!(
                t.events.iter().all(|e| e.name != "test_disabled_span"),
                "disabled span leaked into the ring"
            );
        }
    }

    #[test]
    fn counter_macro_resolves_to_one_cell() {
        let a = counter!("soar_lib_test_total");
        counter!("soar_lib_test_total").add(2);
        a.inc();
        assert_eq!(a.get(), 3);
        gauge!("soar_lib_test_gauge").set(9);
        assert_eq!(gauge!("soar_lib_test_gauge").get(), 9);
    }
}
