//! The Chrome `trace_event` exporter: pairs raw ring events into complete
//! spans and renders them as Perfetto-loadable JSON (`chrome://tracing` /
//! <https://ui.perfetto.dev> both accept the format).
//!
//! Pairing is per thread and stack-disciplined — exactly the shape the RAII
//! [`SpanGuard`](crate::span::SpanGuard) produces. A begin whose end was lost
//! to a ring wrap (or is still open) is dropped; an end with no matching begin
//! likewise. The exported events are `ph: "X"` *complete* events with
//! microsecond `ts`/`dur`, one `pid` for the process and the registered ring
//! tid as `tid`, plus one `ph: "M"` metadata record per thread carrying its
//! name.

use crate::span::{RawEvent, ThreadEvents};

/// One matched begin/end pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteSpan {
    /// Ring thread id (see [`ThreadEvents::tid`]).
    pub tid: u64,
    /// Span name.
    pub name: &'static str,
    /// Begin timestamp, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on its thread at begin time (0 = top level).
    pub depth: u32,
    /// The free-form argument recorded at begin.
    pub arg: u64,
}

/// Pairs each thread's events into complete spans, preserving begin order.
pub fn complete_spans(threads: &[ThreadEvents]) -> Vec<CompleteSpan> {
    let mut out = Vec::new();
    for thread in threads {
        let mut stack: Vec<(&RawEvent, usize)> = Vec::new();
        let mut spans: Vec<Option<CompleteSpan>> = Vec::new();
        for event in &thread.events {
            if event.begin {
                spans.push(None);
                stack.push((event, spans.len() - 1));
            } else if let Some(&(begin, slot)) = stack.last() {
                if begin.name == event.name {
                    stack.pop();
                    spans[slot] = Some(CompleteSpan {
                        tid: thread.tid,
                        name: begin.name,
                        ts_ns: begin.ts_ns,
                        dur_ns: event.ts_ns.saturating_sub(begin.ts_ns),
                        depth: stack.len() as u32,
                        arg: begin.arg,
                    });
                }
                // A name mismatch means the matching begin was overwritten by
                // a ring wrap; the end is dropped and the stack left intact.
            }
        }
        out.extend(spans.into_iter().flatten());
    }
    out
}

/// Minimal JSON string escaping for span and thread names.
fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders the snapshot as a Chrome `trace_event` JSON document.
pub fn chrome_trace_json(threads: &[ThreadEvents]) -> String {
    let spans = complete_spans(threads);
    let mut out = String::with_capacity(256 + spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for thread in threads {
        if thread.events.is_empty() {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"",
            thread.tid
        ));
        escape(
            if thread.thread_name.is_empty() {
                "unnamed"
            } else {
                &thread.thread_name
            },
            &mut out,
        );
        out.push_str("\"}}");
    }
    for span in &spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"name\":\"");
        escape(span.name, &mut out);
        out.push_str(&format!(
            "\",\"cat\":\"soar\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"v\":{}}}}}",
            span.tid,
            span.ts_ns as f64 / 1_000.0,
            span.dur_ns as f64 / 1_000.0,
            span.arg,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, begin: bool, ts_ns: u64, arg: u64) -> RawEvent {
        RawEvent {
            name,
            begin,
            ts_ns,
            arg,
        }
    }

    #[test]
    fn pairing_respects_the_stack_discipline() {
        let threads = vec![ThreadEvents {
            tid: 1,
            thread_name: "t".into(),
            events: vec![
                ev("outer", true, 0, 0),
                ev("inner", true, 10, 3),
                ev("inner", false, 20, 0),
                ev("outer", false, 50, 0),
            ],
            dropped: 0,
        }];
        let spans = complete_spans(&threads);
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((outer.ts_ns, outer.dur_ns, outer.depth), (0, 50, 0));
        assert_eq!((inner.ts_ns, inner.dur_ns, inner.depth), (10, 10, 1));
        assert_eq!(inner.arg, 3);
    }

    #[test]
    fn orphan_ends_and_open_begins_are_dropped() {
        let threads = vec![ThreadEvents {
            tid: 1,
            thread_name: String::new(),
            events: vec![
                ev("lost", false, 5, 0), // end without begin (ring wrap)
                ev("whole", true, 10, 0),
                ev("whole", false, 30, 0),
                ev("open", true, 40, 0), // begin without end (still running)
            ],
            dropped: 0,
        }];
        let spans = complete_spans(&threads);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "whole");
    }

    #[test]
    fn chrome_json_contains_events_and_metadata() {
        let threads = vec![ThreadEvents {
            tid: 2,
            thread_name: "worker \"a\"".into(),
            events: vec![ev("gather", true, 1_000, 4), ev("gather", false, 3_500, 0)],
            dropped: 0,
        }];
        let json = chrome_trace_json(&threads);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("worker \\\"a\\\""));
        assert!(json.contains("\"name\":\"gather\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"v\":4"));
    }
}
