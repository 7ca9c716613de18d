//! Per-thread span ring buffers behind the [`span!`](crate::span!) macro.
//!
//! Every thread that records a span lazily allocates one [`SpanRing`] — a
//! fixed-capacity ring of seqlock-protected slots — and registers it in a
//! global list. The **owning thread is the only writer**, so recording is
//! lock-free: a handful of relaxed/release atomic stores, no RMW contention,
//! no allocation after the first span. Readers ([`snapshot`]) walk every
//! registered ring and skip slots that are mid-write or were overwritten while
//! being read — a drain is exact at quiescence (which is when the exporters
//! run: after a traced solve, or at a metrics scrape) and merely lossy, never
//! blocking or unsound, under concurrent recording.
//!
//! Span names are interned into a global table once per call site (the
//! [`Site`] caches its id in a `OnceLock`), so a slot stores a compact
//! `u32` id instead of a wide string reference and a torn read can never
//! fabricate an out-of-bounds name.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events each ring can hold before the oldest are overwritten (and counted
/// in [`ThreadEvents::dropped`]). A traced 4k
/// solve emits well under a thousand events per thread; the headroom is for
/// long daemon sessions where only the tail of the trace is of interest.
pub const RING_CAP: usize = 1 << 14;

/// One static `span!` call site: the span name plus its lazily interned id.
pub struct Site {
    name: &'static str,
    id: OnceLock<u32>,
}

impl Site {
    /// A new call site (const, so the macro can put it in a `static`).
    pub const fn new(name: &'static str) -> Self {
        Site {
            name,
            id: OnceLock::new(),
        }
    }

    fn id(&self) -> u32 {
        *self.id.get_or_init(|| intern(self.name))
    }
}

/// The global span-name table; slot ids index into it.
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Interns `name`, returning its id. Linear scan: the table holds a few dozen
/// distinct phase names and interning happens once per call site.
pub fn intern(name: &'static str) -> u32 {
    let mut names = NAMES.lock().expect("span name table poisoned");
    if let Some(i) = names.iter().position(|n| *n == name) {
        return i as u32;
    }
    names.push(name);
    (names.len() - 1) as u32
}

fn name_of(id: u32) -> Option<&'static str> {
    NAMES
        .lock()
        .expect("span name table poisoned")
        .get(id as usize)
        .copied()
}

/// One slot of a ring: a per-slot seqlock (`seq` odd while a write is in
/// flight) guarding three data words. All fields are atomics, so a racing
/// snapshot reads *stale or discarded* values, never torn non-atomic memory.
struct Slot {
    seq: AtomicU64,
    ts_ns: AtomicU64,
    /// `(name id << 32) | (1 if begin else 0)`.
    meta: AtomicU64,
    arg: AtomicU64,
}

/// A single thread's span event ring. Written only by its owner thread.
pub struct SpanRing {
    slots: Box<[Slot]>,
    /// Total events ever written (the next write position is `head % cap`).
    head: AtomicU64,
}

impl SpanRing {
    fn new() -> Self {
        let slots = (0..RING_CAP)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                ts_ns: AtomicU64::new(0),
                meta: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect();
        SpanRing {
            slots,
            head: AtomicU64::new(0),
        }
    }

    /// Owner-thread-only append.
    fn push(&self, name_id: u32, begin: bool, ts_ns: u64, arg: u64) {
        let head = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(head as usize) & (RING_CAP - 1)];
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq | 1, Ordering::Relaxed); // odd: write in flight
        fence(Ordering::Release);
        slot.ts_ns.store(ts_ns, Ordering::Relaxed);
        slot.meta.store(
            ((name_id as u64) << 32) | u64::from(begin),
            Ordering::Relaxed,
        );
        slot.arg.store(arg, Ordering::Relaxed);
        slot.seq.store((seq | 1).wrapping_add(1), Ordering::Release); // even
        self.head.store(head + 1, Ordering::Release);
    }

    /// Copies out every currently readable event, oldest first, plus the
    /// number of events the ring has overwritten. Slots being rewritten
    /// concurrently are skipped (seqlock check).
    fn snapshot(&self) -> (Vec<RawEvent>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(RING_CAP as u64);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for i in lo..head {
            let slot = &self.slots[(i as usize) & (RING_CAP - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                continue;
            }
            let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != s1 {
                continue;
            }
            let Some(name) = name_of((meta >> 32) as u32) else {
                continue;
            };
            out.push(RawEvent {
                name,
                begin: meta & 1 == 1,
                ts_ns,
                arg,
            });
        }
        (out, lo)
    }
}

/// One decoded ring event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// Interned span name.
    pub name: &'static str,
    /// `true` for a span-begin event, `false` for its end.
    pub begin: bool,
    /// Nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Free-form argument recorded at span begin (level index, dirty size, …).
    pub arg: u64,
}

/// All events of one registered thread.
#[derive(Debug)]
pub struct ThreadEvents {
    /// Stable per-process thread id (registration order, starting at 1).
    pub tid: u64,
    /// The OS thread name at registration time (empty if unnamed).
    pub thread_name: String,
    /// Decoded events, oldest first.
    pub events: Vec<RawEvent>,
    /// Events lost because the ring wrapped before this snapshot (the oldest
    /// `dropped` events this thread ever recorded).
    pub dropped: u64,
}

struct ThreadEntry {
    tid: u64,
    thread_name: String,
    ring: Arc<SpanRing>,
}

static THREADS: Mutex<Vec<ThreadEntry>> = Mutex::new(Vec::new());

thread_local! {
    static RING: Arc<SpanRing> = {
        let ring = Arc::new(SpanRing::new());
        let mut threads = THREADS.lock().expect("span thread list poisoned");
        let tid = threads.len() as u64 + 1;
        threads.push(ThreadEntry {
            tid,
            thread_name: std::thread::current().name().unwrap_or("").to_owned(),
            ring: Arc::clone(&ring),
        });
        ring
    };
}

/// Snapshots every registered thread's ring, oldest events first per thread.
/// Exact at quiescence; lossy (never blocking) under concurrent recording.
pub fn snapshot() -> Vec<ThreadEvents> {
    let threads = THREADS.lock().expect("span thread list poisoned");
    threads
        .iter()
        .map(|t| {
            let (events, dropped) = t.ring.snapshot();
            ThreadEvents {
                tid: t.tid,
                thread_name: t.thread_name.clone(),
                events,
                dropped,
            }
        })
        .collect()
}

/// Events overwritten so far, summed over every registered ring: each ring's
/// `head − RING_CAP`, saturating. Reads only the ring heads, never the slots,
/// so a metrics scrape can call it cheaply. Rings are never unregistered and
/// heads only grow, so the total never decreases — it is exported on
/// `/metrics` as the counter `soar_trace_events_dropped_total`.
pub fn dropped_total() -> u64 {
    let threads = THREADS.lock().expect("span thread list poisoned");
    threads
        .iter()
        .map(|t| {
            t.ring
                .head
                .load(Ordering::Acquire)
                .saturating_sub(RING_CAP as u64)
        })
        .sum()
}

/// The tracing master switch. Spans are recorded only while this is `true`;
/// the disabled fast path of `span!` is a single relaxed load of this flag.
pub(crate) static TRACING: AtomicBool = AtomicBool::new(false);

/// An RAII span: records a begin event at construction and the matching end
/// event when dropped. Construct through the [`span!`](crate::span!) macro.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    /// Interned name id; `None` for the disabled (no-op) guard.
    id: Option<u32>,
}

impl SpanGuard {
    /// Begins a span at `site` (tracing is known-enabled when this is called).
    pub fn enter(site: &'static Site, arg: u64) -> SpanGuard {
        let id = site.id();
        RING.with(|ring| ring.push(id, true, crate::now_ns(), arg));
        SpanGuard { id: Some(id) }
    }

    /// The no-op guard of a disabled `span!` site.
    pub const fn disabled() -> SpanGuard {
        SpanGuard { id: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            // The end is recorded even if tracing was switched off mid-span,
            // so every begin that reached the ring stays paired.
            RING.with(|ring| ring.push(id, false, crate::now_ns(), 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_stable_and_deduplicating() {
        let a = intern("test_intern_phase");
        let b = intern("test_intern_phase");
        assert_eq!(a, b);
        assert_eq!(name_of(a), Some("test_intern_phase"));
    }

    #[test]
    fn ring_roundtrips_events_in_order() {
        let ring = SpanRing::new();
        let id = intern("test_ring_roundtrip");
        ring.push(id, true, 10, 7);
        ring.push(id, false, 25, 0);
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0],
            RawEvent {
                name: "test_ring_roundtrip",
                begin: true,
                ts_ns: 10,
                arg: 7
            }
        );
        assert!(!events[1].begin);
        assert_eq!(events[1].ts_ns, 25);
    }

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let ring = SpanRing::new();
        let id = intern("test_ring_wrap");
        let total = RING_CAP as u64 + 10;
        for i in 0..total {
            ring.push(id, i % 2 == 0, i, i);
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 10);
        assert_eq!(events.len(), RING_CAP);
        assert_eq!(events.first().unwrap().ts_ns, total - RING_CAP as u64);
        assert_eq!(events.last().unwrap().ts_ns, total - 1);
    }

    #[test]
    fn dropped_total_counts_overwrites_across_registered_rings() {
        static SITE: Site = Site::new("test_dropped_total");
        let before = dropped_total();
        // A fresh thread registers its own ring; RING_CAP / 2 + 5 spans write
        // RING_CAP + 10 events, so exactly 10 are overwritten there. Other
        // tests' rings only add to the total.
        std::thread::spawn(|| {
            for i in 0..RING_CAP as u64 / 2 + 5 {
                drop(SpanGuard::enter(&SITE, i));
            }
        })
        .join()
        .unwrap();
        let after = dropped_total();
        assert!(after >= before + 10, "{before} -> {after}");
        assert!(dropped_total() >= after, "the total never decreases");
    }
}
