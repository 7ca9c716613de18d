//! The daemon: resident tenants, a bounded request queue, and a dispatcher
//! that batches work across tenants onto the global `soar-pool`.
//!
//! # Threading model
//!
//! ```text
//!  acceptor ──► one reader thread per connection
//!                  │  buffered frame reads, decode,
//!                  │  admission control (shed here, never buffer)
//!                  ▼
//!            bounded global queue  ──►  dispatcher thread
//!                                         │  drain a batch, split it into
//!                                         │  runs at Register/Evict barriers,
//!                                         │  group each run by tenant
//!                                         ▼
//!                                  soar_pool::global().scope(..)
//!                                    one job per tenant in the run; a
//!                                    solve refills the tenant's warm
//!                                    tables, or gathers cold on its
//!                                    worker's per-thread SolverWorkspace
//!                                         │  responses appended to each
//!                                         ▼  connection's pending buffer
//!                                  dispatcher: one write per connection
//! ```
//!
//! # Socket I/O
//!
//! The frame, not the byte, is the unit of socket I/O. Each reader thread
//! reads through a fixed-capacity [`BufReader`], so one read syscall takes in
//! a whole pipelined burst of frames, and it wakes the dispatcher only when
//! its push makes the queue non-empty. Responses to queued work are appended
//! to a per-connection pending buffer; when `pool.scope` returns, the
//! dispatcher writes each touched connection's buffer with one `write_all`,
//! before it handles the next `Register`/`Evict` barrier, so a barrier's reply
//! always follows every response to the requests ahead of it. A response is
//! built only after its WAL append returns, so no acknowledgement ever leaves
//! ahead of its log record. Replies that do not wait for a dispatch run
//! (metrics, shutdown, sheds, admission errors, barrier replies) are appended
//! behind whatever is pending and written at once. A write blocked past the
//! write deadline drops the connection and counts every response it carried
//! as an `io_error`.
//!
//! Per-tenant state is one [`DynamicInstance`] behind a mutex — cheap enough
//! to keep thousands resident. Solver state is per tenant while the warm
//! budget ([`ServeConfig::warm_tables_mb`]) has room: a tenant's first
//! `Solve` that finds room builds its own `IncrementalSolver` under the same
//! mutex, and each later `Solve` refills only the dirty closure of the churn
//! applied since the previous one (see the `warm` module). A `Solve` that
//! finds no room, and every `Sweep`, runs a full gather on the worker's
//! persistent per-thread workspace ([`with_thread_workspace`]), warm and
//! allocation-free. Both paths give bit-identical answers.
//!
//! # Admission control
//!
//! The reader thread sheds *before* queueing: a full global queue or a tenant
//! already at its in-flight cap answers [`ResponseBody::Overloaded`]
//! immediately. Memory is therefore bounded by
//! `queue_cap × largest frame` regardless of offered load — an overloaded
//! server degrades to fast explicit rejections, not to an unbounded buffer.
//!
//! Ordering: requests of one tenant on one connection execute in send order.
//! Cross-tenant order is unspecified (that's where the parallelism is).
//! `Register`/`Evict` act as batch-wide barriers so a register is visible to
//! every later request in the stream that named the tenant.

use crate::metrics::{add, MetricsSnapshot, ServeMetrics, TenantBreakdown};
use crate::protocol::{
    DecodeError, ErrorCode, Request, RequestBody, Response, ResponseBody, ShedScope, SolveOutcome,
};
use crate::wal::{self, SnapshotJob, TenantParams, TenantRecord, WalWriter};
use crate::warm::{WarmSlot, WarmTables};
use rand::rngs::StdRng;
use rand::SeedableRng;
use soar_core::solver::prefix_min_curve;
use soar_core::workspace::with_thread_workspace;
use soar_dataplane::framing::{self, FramingError};
use soar_online::{DynamicInstance, EpochSolve, OnlineError};
use soar_topology::builders;
use soar_topology::load::LoadSpec;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults suit a localhost loadtest; the CLI exposes
/// each as a flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port; see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Global queue bound: requests beyond it are shed.
    pub queue_cap: usize,
    /// Per-tenant in-flight bound: queued-but-unfinished requests of one
    /// tenant beyond it are shed.
    pub tenant_inflight_cap: usize,
    /// Resident-tenant bound: registers beyond it fail with `Capacity`.
    pub max_tenants: usize,
    /// Largest accepted wire frame.
    pub max_frame_len: usize,
    /// Most requests the dispatcher drains into one batch.
    pub batch_cap: usize,
    /// Largest `BT(n)` parameter a register may ask for.
    pub max_switches: u32,
    /// Directory for the write-ahead log and snapshots. `None` (the default)
    /// runs without durability, exactly as before.
    pub state_dir: Option<PathBuf>,
    /// Replay `state_dir`'s snapshot + WAL at startup. Without this flag an
    /// existing state dir is **replaced** by a fresh empty log.
    pub recover: bool,
    /// WAL records between snapshots: a snapshot is cut at the first batch
    /// boundary after more than this many records were appended since the
    /// last cut, so `0` cuts after every batch that logged a record. The cut
    /// runs on the dispatcher; the write runs on a background thread, and
    /// at most one is in flight, so a cut that falls due while the previous
    /// write is still running waits for the next batch boundary
    /// (`soar_snapshot_deferred_total` counts those waits).
    pub snapshot_every: u64,
    /// Per-connection write deadline: a response write blocked longer than
    /// this drops the connection and counts its lost responses as
    /// `io_errors`, so one slow reader holds up the dispatcher, which writes
    /// every connection's responses, for at most this long. `None` blocks
    /// forever.
    pub write_deadline: Option<Duration>,
    /// Bind address for the Prometheus `/metrics` exposition endpoint
    /// (`soar serve --obs-addr`). `None` (the default) serves no HTTP.
    pub obs_addr: Option<String>,
    /// Heap budget, in MiB, for the per-tenant warm DP tables that let a
    /// solve refill only what churn dirtied (see the `warm` module). A BT(4096)
    /// tenant at budget 16 holds about 4.7 MiB. `0` solves every request cold.
    pub warm_tables_mb: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_cap: 1024,
            tenant_inflight_cap: 64,
            max_tenants: 65_536,
            max_frame_len: framing::MAX_FRAME_LEN,
            batch_cap: 128,
            max_switches: 1 << 20,
            state_dir: None,
            recover: false,
            snapshot_every: 1024,
            write_deadline: Some(Duration::from_secs(5)),
            obs_addr: None,
            // Room for about 109 warm BT(4096) tenants at budget 16.
            warm_tables_mb: 512,
        }
    }
}

/// One resident tenant: its mutable state behind a mutex, the immutable
/// build parameters, and the admission gauge.
struct TenantEntry {
    state: Mutex<TenantState>,
    /// The deterministic build parameters of the register, kept so snapshots
    /// can rebuild the tree shape.
    params: TenantParams,
    inflight: AtomicUsize,
    /// Per-tenant usage, folded into [`MetricsSnapshot::top_tenants`].
    events_applied: AtomicU64,
    solves: AtomicU64,
    solve_ns: AtomicU64,
}

impl TenantEntry {
    fn new(instance: DynamicInstance, last_seq: u64, params: TenantParams) -> Self {
        TenantEntry {
            state: Mutex::new(TenantState {
                instance,
                last_seq,
                warm: WarmSlot::default(),
            }),
            params,
            inflight: AtomicUsize::new(0),
            events_applied: AtomicU64::new(0),
            solves: AtomicU64::new(0),
            solve_ns: AtomicU64::new(0),
        }
    }
}

/// The lock-protected part of a tenant.
struct TenantState {
    instance: DynamicInstance,
    /// Highest churn-batch `seq` applied (0 until the first sequenced batch).
    /// Batches at or below it are answered `duplicate: true` without being
    /// re-applied — and without reaching the WAL.
    last_seq: u64,
    /// The tenant's warm DP tables, built by its first solve that finds
    /// room in the warm budget.
    warm: WarmSlot,
}

/// Capacity of the buffered reader on each end of a connection: one read
/// syscall takes in a pipelined burst of frames, and a frame larger than this
/// is read straight into the frame buffer.
const READ_BUF_BYTES: usize = 64 << 10;

/// A connection's pending-response buffer is shrunk back to this capacity
/// after a flush that grew it beyond, so one large sweep reply does not pin
/// its memory for the connection's lifetime.
const PENDING_KEEP_BYTES: usize = 64 << 10;

/// One accepted connection. Every response to it is appended to `out` and
/// leaves in the order it was appended, so frames never interleave.
struct Conn {
    out: Mutex<ConnOut>,
    peer_gone: AtomicBool,
}

/// The write side of a [`Conn`].
struct ConnOut {
    stream: TcpStream,
    /// Encoded response frames not yet written.
    pending: Vec<u8>,
    /// Responses in `pending`.
    pending_count: u64,
}

impl Conn {
    /// Appends `resp` to the pending responses without writing: pool workers
    /// answer queued work this way, and the dispatcher flushes each
    /// connection once at the end of the run.
    fn queue(&self, resp: &Response) {
        let mut out = self.out.lock().expect("connection writer lock poisoned");
        // A response is bounded far below u32::MAX bytes by the request
        // caps; were one ever larger, skipping it keeps the stream in sync.
        if framing::append_frame(&mut out.pending, |b| resp.encode(b)).is_ok() {
            out.pending_count += 1;
        }
    }

    /// Appends `resp` and writes everything pending now — the path for
    /// replies that do not wait for a dispatch run (metrics, shutdown, sheds,
    /// admission errors, barrier replies).
    fn send(&self, shared: &Shared, resp: &Response) {
        self.queue(resp);
        self.flush(shared);
    }

    /// Writes every pending response in one `write_all`.
    fn flush(&self, shared: &Shared) {
        let mut out = self.out.lock().expect("connection writer lock poisoned");
        let count = std::mem::take(&mut out.pending_count);
        if count == 0 {
            return;
        }
        let ConnOut {
            stream, pending, ..
        } = &mut *out;
        let written = !self.peer_gone.load(Ordering::Relaxed) && stream.write_all(pending).is_ok();
        pending.clear();
        pending.shrink_to(PENDING_KEEP_BYTES);
        if written {
            add(&shared.metrics.responses, count);
            add(&shared.metrics.response_flushes, 1);
        } else {
            // Peer gone, or a slow reader filled the socket buffer past the
            // write deadline. Either way the stream may be desynced: count
            // the lost responses, drop the connection cleanly, keep serving
            // everyone else.
            if !self.peer_gone.swap(true, Ordering::Relaxed) {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            add(&shared.metrics.io_errors, count);
        }
    }
}

/// One queued request.
struct Work {
    conn: Arc<Conn>,
    req_id: u64,
    body: RequestBody,
    /// The tenant entry resolved at admission (for the in-flight gauge); the
    /// dispatcher re-resolves by id so eviction ordering stays strict.
    gauge: Option<Arc<TenantEntry>>,
    enqueued: Instant,
}

/// State shared by every server thread.
struct Shared {
    config: ServeConfig,
    tenants: RwLock<HashMap<u64, Arc<TenantEntry>>>,
    queue: Mutex<VecDeque<Work>>,
    queue_cv: Condvar,
    metrics: ServeMetrics,
    warm: WarmTables,
    /// Durable logging, when `config.state_dir` is set.
    wal: Option<Mutex<WalWriter>>,
    shutdown: AtomicBool,
    /// Shutdown flag shared with the obs HTTP responder thread (an `Arc`
    /// because `soar_obs::http` is daemon-agnostic and owns only the flag).
    obs_shutdown: Arc<AtomicBool>,
    conns: Mutex<Vec<Weak<TcpStream>>>,
    next_conn: AtomicU64,
}

/// Tenants kept in the [`MetricsSnapshot::top_tenants`] breakdown.
const TOP_TENANTS: usize = 8;

impl Shared {
    fn snapshot(&self) -> MetricsSnapshot {
        let depth = self.queue.lock().unwrap().len() as u64;
        let map = self.tenants.read().unwrap();
        let resident = map.len() as u64;
        // Top-N tenants by solver time, then by churn volume: the per-tenant
        // cells are relaxed atomics on the entries, so this is a read-only
        // sweep of the map — no tenant lock is touched.
        let mut top: Vec<TenantBreakdown> = map
            .iter()
            .map(|(&tenant, e)| TenantBreakdown {
                tenant,
                events_applied: e.events_applied.load(Ordering::Relaxed),
                solves: e.solves.load(Ordering::Relaxed),
                solve_ns: e.solve_ns.load(Ordering::Relaxed),
            })
            .filter(|t| t.events_applied > 0 || t.solves > 0)
            .collect();
        drop(map);
        top.sort_unstable_by_key(|t| {
            (
                std::cmp::Reverse(t.solve_ns),
                std::cmp::Reverse(t.events_applied),
                t.tenant,
            )
        });
        top.truncate(TOP_TENANTS);
        self.metrics.snapshot(depth, resident, top)
    }

    /// Flips the shutdown flag and unblocks every thread: the dispatcher via
    /// the condvar, the readers by closing their sockets, the acceptor by a
    /// self-connection.
    fn begin_shutdown(&self, addr: SocketAddr) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.obs_shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        for stream in self.conns.lock().unwrap().iter().filter_map(Weak::upgrade) {
            let _ = stream.shutdown(std::net::Shutdown::Read);
        }
        // Wake the blocking `accept` — the acceptor sees the flag and exits.
        let _ = TcpStream::connect(addr);
    }
}

/// A running server. Dropping the handle does **not** stop the server; call
/// [`ServerHandle::shutdown`] (or send a `Shutdown` request) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    dispatcher: JoinHandle<()>,
    readers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    obs: Option<soar_obs::http::MetricsServer>,
}

impl ServerHandle {
    /// The bound address (the resolved port when the config asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound address of the Prometheus exposition endpoint, when
    /// `obs_addr` was configured.
    pub fn obs_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(|o| o.addr())
    }

    /// Requests graceful shutdown: stop accepting, drain the queue, answer
    /// everything already admitted.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown(self.addr);
    }

    /// Waits for every server thread to exit and returns the final metrics.
    /// Call [`Self::shutdown`] first (or have a client send `Shutdown`).
    pub fn join(self) -> MetricsSnapshot {
        let _ = self.acceptor.join();
        let _ = self.dispatcher.join();
        // Readers exit once their sockets close; new ones cannot appear after
        // the acceptor is gone.
        let readers = std::mem::take(&mut *self.readers.lock().unwrap());
        for r in readers {
            let _ = r.join();
        }
        if let Some(obs) = self.obs {
            obs.join();
        }
        self.shared.snapshot()
    }

    /// The live metrics, snapshotted now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }
}

/// Binds and starts the server threads. Returns once the listener is live.
pub fn start(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;

    // Durable state: optionally recover, then begin a fresh snapshot + WAL
    // (this also truncates any torn tail the previous run left behind).
    let metrics = ServeMetrics::default();
    let mut tenants = HashMap::new();
    let wal = match &config.state_dir {
        None => None,
        Some(dir) => {
            let mut records: Vec<TenantRecord> = Vec::new();
            let mut next_index = 0;
            if config.recover {
                let replay_started = Instant::now();
                let recovery = wal::recover(dir).map_err(io::Error::other)?;
                add(
                    &metrics.recovery_replay_ns,
                    replay_started.elapsed().as_nanos() as u64,
                );
                next_index = recovery.next_index;
                add(&metrics.recovered_tenants, recovery.tenants.len() as u64);
                add(
                    &metrics.replayed_wal_records,
                    recovery.stats.replayed_records,
                );
                add(
                    &metrics.recovery_truncated,
                    u64::from(recovery.stats.truncated),
                );
                for t in recovery.tenants {
                    records.push(TenantRecord {
                        tenant: t.tenant,
                        params: t.params,
                        last_seq: t.last_seq,
                        image: t.instance.image(),
                    });
                    tenants.insert(
                        t.tenant,
                        Arc::new(TenantEntry::new(t.instance, t.last_seq, t.params)),
                    );
                }
            }
            let writer = WalWriter::begin(dir, next_index, &records).map_err(io::Error::other)?;
            add(&metrics.snapshots, 1);
            Some(Mutex::new(writer))
        }
    };

    let shared = Arc::new(Shared {
        warm: WarmTables::new(config.warm_tables_mb),
        config,
        tenants: RwLock::new(tenants),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        metrics,
        wal,
        shutdown: AtomicBool::new(false),
        obs_shutdown: Arc::new(AtomicBool::new(false)),
        conns: Mutex::new(Vec::new()),
        next_conn: AtomicU64::new(0),
    });
    let readers = Arc::new(Mutex::new(Vec::new()));

    // The Prometheus exposition endpoint: `/metrics` renders the same frozen
    // snapshot that answers the binary `Metrics` request, plus the global
    // registry (pool and solver counters).
    let obs = match shared.config.obs_addr.clone() {
        None => None,
        Some(obs_addr) => {
            let render_shared = Arc::clone(&shared);
            let server = soar_obs::http::MetricsServer::start(
                &obs_addr,
                Arc::clone(&shared.obs_shutdown),
                Arc::new(move |path: &str| {
                    if path != "/metrics" {
                        return None;
                    }
                    let snap = render_shared.snapshot();
                    let mut body = crate::metrics::render_prom(&snap, &render_shared.metrics);
                    body.push_str(&soar_obs::prom::render_registry());
                    Some(body)
                }),
            )?;
            Some(server)
        }
    };

    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("soar-serve-dispatch".into())
            .spawn(move || dispatch_loop(&shared))?
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        let readers = Arc::clone(&readers);
        std::thread::Builder::new()
            .name("soar-serve-accept".into())
            .spawn(move || accept_loop(listener, addr, &shared, &readers))?
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor,
        dispatcher,
        readers,
        obs,
    })
}

fn accept_loop(
    listener: TcpListener,
    addr: SocketAddr,
    shared: &Arc<Shared>,
    readers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(shared.config.write_deadline);
        add(&shared.metrics.accepted_conns, 1);
        let read_half = match stream.try_clone() {
            Ok(s) => Arc::new(s),
            Err(_) => continue,
        };
        // Each accept also reaps what finished connections left behind: the
        // `Weak` of a closed socket and the handle of an exited reader, which
        // is joined here rather than at shutdown. Without this, a daemon
        // serving many short connections grows by every one it ever
        // accepted.
        {
            let mut conns = shared.conns.lock().unwrap();
            conns.retain(|c| c.strong_count() > 0);
            conns.push(Arc::downgrade(&read_half));
        }
        let conn = Arc::new(Conn {
            out: Mutex::new(ConnOut {
                stream,
                pending: Vec::new(),
                pending_count: 0,
            }),
            peer_gone: AtomicBool::new(false),
        });
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name(format!("soar-serve-conn-{id}"))
            .spawn(move || reader_loop(&read_half, &conn, &shared, addr));
        if let Ok(handle) = handle {
            let mut readers = readers.lock().unwrap();
            for done in readers.extract_if(.., |r| r.is_finished()) {
                let _ = done.join();
            }
            readers.push(handle);
        }
    }
}

fn reader_loop(stream: &TcpStream, conn: &Arc<Conn>, shared: &Arc<Shared>, addr: SocketAddr) {
    let mut reader = BufReader::with_capacity(READ_BUF_BYTES, stream);
    let mut buf = Vec::new();
    loop {
        if conn.peer_gone.load(Ordering::Relaxed) {
            break;
        }
        match framing::read_frame(&mut reader, &mut buf, shared.config.max_frame_len) {
            Ok(false) => break, // clean disconnect
            Ok(true) => {
                add(&shared.metrics.requests, 1);
                match Request::decode(&buf) {
                    Ok(req) => handle_request(conn, shared, addr, req),
                    Err(e) => {
                        // A desynced stream cannot be trusted further: answer
                        // once (best effort, req_id 0) and drop the peer.
                        add(&shared.metrics.errors, 1);
                        conn.send(
                            shared,
                            &Response {
                                req_id: 0,
                                body: ResponseBody::Error {
                                    code: ErrorCode::BadRequest,
                                    message: format!("malformed request: {e}"),
                                },
                            },
                        );
                        break;
                    }
                }
            }
            Err(FramingError::Oversized { declared, max }) => {
                add(&shared.metrics.errors, 1);
                conn.send(
                    shared,
                    &Response {
                        req_id: 0,
                        body: ResponseBody::Error {
                            code: ErrorCode::BadRequest,
                            message: format!("frame of {declared} bytes exceeds cap {max}"),
                        },
                    },
                );
                break;
            }
            // Truncation/IO mid-stream: the peer died or we are shutting down.
            Err(_) => break,
        }
    }
}

/// Decode succeeded — apply admission control and queue (or answer inline).
fn handle_request(conn: &Arc<Conn>, shared: &Arc<Shared>, addr: SocketAddr, req: Request) {
    let _admission = soar_obs::span!("admission");
    let Request { req_id, body } = req;
    match &body {
        // Metrics are read-only and answered from the reader thread — they
        // must work *especially* when the queue is jammed.
        RequestBody::Metrics => {
            let json = serde_json::to_string(&shared.snapshot()).expect("snapshot serializes");
            conn.send(
                shared,
                &Response {
                    req_id,
                    body: ResponseBody::MetricsReport { json },
                },
            );
            return;
        }
        RequestBody::Shutdown => {
            conn.send(
                shared,
                &Response {
                    req_id,
                    body: ResponseBody::ShuttingDown,
                },
            );
            shared.begin_shutdown(addr);
            return;
        }
        _ => {}
    }

    if shared.shutdown.load(Ordering::SeqCst) {
        add(&shared.metrics.errors, 1);
        conn.send(
            shared,
            &Response {
                req_id,
                body: ResponseBody::Error {
                    code: ErrorCode::ShuttingDown,
                    message: "server is draining".to_owned(),
                },
            },
        );
        return;
    }

    // Tenant-targeted requests: resolve the entry for the in-flight gauge.
    // A tenant not resident yet is queued all the same: a `Register` ahead
    // of it on this stream may still be waiting in the queue, and the
    // dispatcher answers `UnknownTenant` if it is still missing by then.
    let tenant = body.tenant().expect("non-tenant requests handled above");
    let gauge = shared.tenants.read().unwrap().get(&tenant).cloned();
    if let Some(entry) = &gauge {
        if entry.inflight.load(Ordering::Relaxed) >= shared.config.tenant_inflight_cap {
            add(&shared.metrics.shed_tenant, 1);
            conn.send(
                shared,
                &Response {
                    req_id,
                    body: ResponseBody::Overloaded {
                        scope: ShedScope::TenantInflight,
                    },
                },
            );
            return;
        }
    }

    let work = Work {
        conn: Arc::clone(conn),
        req_id,
        body,
        gauge,
        enqueued: Instant::now(),
    };
    let was_empty = {
        let mut queue = shared.queue.lock().unwrap();
        // Re-checked under the queue lock: the dispatcher's exit check
        // (queue empty && shutdown) also runs under it, so a request can
        // never slip into a queue nobody will drain.
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(queue);
            add(&shared.metrics.errors, 1);
            conn.send(
                shared,
                &Response {
                    req_id: work.req_id,
                    body: ResponseBody::Error {
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".to_owned(),
                    },
                },
            );
            return;
        }
        if queue.len() >= shared.config.queue_cap {
            drop(queue);
            add(&shared.metrics.shed_global, 1);
            conn.send(
                shared,
                &Response {
                    req_id: work.req_id,
                    body: ResponseBody::Overloaded {
                        scope: ShedScope::GlobalQueue,
                    },
                },
            );
            return;
        }
        if let Some(entry) = &work.gauge {
            entry.inflight.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(work);
        queue.len() == 1
    };
    // The dispatcher sleeps only on an empty queue, so only the push that
    // ends the emptiness needs to wake it; later pushes find it awake.
    if was_empty {
        shared.queue_cv.notify_one();
    }
}

/// `Register`/`Evict` mutate the tenant map and order against *every* tenant's
/// stream, so they split a batch into independently-parallel segments.
fn is_barrier(work: &Work) -> bool {
    matches!(
        work.body,
        RequestBody::Register { .. } | RequestBody::Evict { .. }
    )
}

fn dispatch_loop(shared: &Arc<Shared>) {
    let pool = soar_pool::global();
    // The snapshot job in flight, if any (see `maybe_snapshot`).
    let mut job: Option<JoinHandle<()>> = None;
    loop {
        let mut batch: VecDeque<Work> = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Drained and draining stopped: leave a final snapshot so
                    // a restart with --recover replays nothing.
                    drop(queue);
                    join_snapshot_job(shared, &mut job);
                    write_snapshot_now(shared);
                    return;
                }
                queue = shared.queue_cv.wait(queue).unwrap();
            }
            // Batch formation proper: drain under the lock (the condvar wait
            // above is idle time, not formation work).
            let formed = Instant::now();
            let _form = soar_obs::span!("batch_form", queue.len());
            let take = queue.len().min(shared.config.batch_cap);
            let batch: VecDeque<Work> = queue.drain(..take).collect();
            drop(queue);
            shared
                .metrics
                .batch_form
                .record(formed.elapsed().as_nanos() as u64);
            batch
        };

        while let Some(work) = batch.pop_front() {
            if is_barrier(&work) {
                process_barrier(shared, work);
                continue;
            }
            // Collect the run of non-barrier requests, grouped by tenant in
            // arrival order, and fan the groups out across the pool. Each
            // group runs on one worker, keeping per-tenant FIFO order.
            let mut order: Vec<u64> = Vec::new();
            let mut groups: HashMap<u64, Vec<Work>> = HashMap::new();
            let mut conns: Vec<Arc<Conn>> = Vec::new();
            let mut push = |w: Work| {
                if !conns.iter().any(|c| Arc::ptr_eq(c, &w.conn)) {
                    conns.push(Arc::clone(&w.conn));
                }
                let tenant = w.body.tenant().expect("barriers filtered");
                groups.entry(tenant).or_insert_with(|| {
                    order.push(tenant);
                    Vec::new()
                });
                groups.get_mut(&tenant).unwrap().push(w);
            };
            push(work);
            while batch.front().is_some_and(|w| !is_barrier(w)) {
                push(batch.pop_front().unwrap());
            }
            pool.scope(|s| {
                for tenant in order.drain(..) {
                    let run = groups.remove(&tenant).unwrap();
                    s.spawn(move || {
                        for w in run {
                            process_tenant_work(shared, w);
                        }
                    });
                }
            });
            // One write per connection for the whole run, and before the
            // next barrier: its reply must follow every earlier response.
            for conn in conns {
                conn.flush(shared);
            }
        }
        maybe_snapshot(shared, &mut job);
    }
}

/// Starts a snapshot when enough WAL records accumulated. Dispatcher-only,
/// between batches: the cut runs here, the write on a background thread.
///
/// At most one job is in flight: the next cut retires the live segment, so
/// it must wait until the running job's snapshot covers the segment that
/// job retired. A cut that falls due meanwhile waits for the next batch
/// boundary.
fn maybe_snapshot(shared: &Arc<Shared>, job: &mut Option<JoinHandle<()>>) {
    let Some(wal) = &shared.wal else { return };
    if wal.lock().unwrap().records_since_snapshot() <= shared.config.snapshot_every {
        return;
    }
    if job.as_ref().is_some_and(|j| !j.is_finished()) {
        soar_obs::counter!(
            "soar_snapshot_deferred_total",
            "batch boundaries at which a due snapshot cut waited for the previous snapshot write"
        )
        .inc();
        return;
    }
    join_snapshot_job(shared, job);
    let Some((cut, records)) = cut_snapshot(shared) else {
        return;
    };
    let writer_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("soar-serve-snapshot".into())
        .spawn(move || write_snapshot_job(&writer_shared, cut, &records));
    match spawned {
        Ok(handle) => *job = Some(handle),
        // The job was dropped unwritten: its retired segment stays, and the
        // next cut's snapshot covers it.
        Err(_) => add(&shared.metrics.wal_errors, 1),
    }
}

/// Waits for the snapshot job in flight, if any.
fn join_snapshot_job(shared: &Shared, job: &mut Option<JoinHandle<()>>) {
    if job.take().is_some_and(|handle| handle.join().is_err()) {
        add(&shared.metrics.wal_errors, 1);
    }
}

/// The dispatcher half of a snapshot: captures every resident tenant's image
/// and cuts the WAL at the same index.
///
/// Called only from the dispatcher **between** batches (and at shutdown):
/// no pool worker holds a tenant lock then, so locking the tenants one at a
/// time reads a consistent cut of the whole map.
fn cut_snapshot(shared: &Shared) -> Option<(SnapshotJob, Vec<TenantRecord>)> {
    let wal = shared.wal.as_ref()?;
    let started = Instant::now();
    let entries: Vec<(u64, Arc<TenantEntry>)> = {
        let map = shared.tenants.read().unwrap();
        let mut v: Vec<_> = map.iter().map(|(t, e)| (*t, Arc::clone(e))).collect();
        v.sort_unstable_by_key(|&(t, _)| t);
        v
    };
    let records: Vec<TenantRecord> = entries
        .iter()
        .map(|(tenant, entry)| {
            let state = entry.state.lock().unwrap();
            TenantRecord {
                tenant: *tenant,
                params: entry.params,
                last_seq: state.last_seq,
                image: state.instance.image(),
            }
        })
        .collect();
    let cut = wal.lock().unwrap().cut();
    soar_obs::summary!(
        "soar_snapshot_cut_seconds",
        "dispatcher time to capture the tenant images and cut the WAL for a snapshot"
    )
    .record(started.elapsed().as_nanos() as u64);
    match cut {
        Ok(job) => Some((job, records)),
        Err(_) => {
            add(&shared.metrics.wal_errors, 1);
            None
        }
    }
}

/// The I/O half of a snapshot: writes, fsyncs and renames it, then retires
/// the old WAL segment.
fn write_snapshot_job(shared: &Shared, job: SnapshotJob, records: &[TenantRecord]) {
    let started = Instant::now();
    match job.write(records) {
        Ok(()) => add(&shared.metrics.snapshots, 1),
        Err(_) => add(&shared.metrics.wal_errors, 1),
    }
    soar_obs::summary!(
        "soar_snapshot_write_seconds",
        "time to write, fsync and rename a snapshot and retire the old WAL segment"
    )
    .record(started.elapsed().as_nanos() as u64);
}

/// Writes a snapshot of every resident tenant and rotates the WAL, inline
/// (the final snapshot at shutdown).
fn write_snapshot_now(shared: &Shared) {
    if let Some((job, records)) = cut_snapshot(shared) {
        write_snapshot_job(shared, job, &records);
    }
}

/// Maps an [`OnlineError`] from a churn apply onto the wire error codes.
fn online_error(e: &OnlineError) -> ErrorCode {
    match e {
        OnlineError::UnknownSwitch(_) | OnlineError::NotALeaf(_) | OnlineError::InvalidRate(_) => {
            ErrorCode::BadSwitch
        }
        OnlineError::DuplicateTenant(_) => ErrorCode::DuplicateTenant,
        OnlineError::UnknownTenant(_) => ErrorCode::UnknownTenant,
        OnlineError::InvalidBudget(_) => ErrorCode::BadRequest,
    }
}

/// Appends one WAL record (no-op without a state dir). On failure the
/// caller must reject the request — the mutation must not happen, or replay
/// would diverge.
fn append_wal(
    shared: &Arc<Shared>,
    f: impl FnOnce(&mut WalWriter) -> Result<(), wal::WalError>,
) -> Result<(), String> {
    let Some(wal) = &shared.wal else {
        return Ok(());
    };
    let _span = soar_obs::span!("wal_append");
    let started = Instant::now();
    let result = f(&mut wal.lock().unwrap());
    shared
        .metrics
        .wal_append
        .record(started.elapsed().as_nanos() as u64);
    match result {
        Ok(()) => {
            add(&shared.metrics.wal_records, 1);
            Ok(())
        }
        Err(e) => {
            add(&shared.metrics.wal_errors, 1);
            Err(format!("wal append failed: {e}"))
        }
    }
}

fn process_barrier(shared: &Arc<Shared>, work: Work) {
    let Work {
        conn,
        req_id,
        body,
        gauge,
        enqueued,
    } = work;
    shared
        .metrics
        .queue_wait
        .record(enqueued.elapsed().as_nanos() as u64);
    let respond = |body: ResponseBody| conn.send(shared, &Response { req_id, body });
    match body {
        RequestBody::Register {
            tenant,
            switches,
            budget,
            seed,
        } => {
            let fail = |message: String, code| {
                add(&shared.metrics.errors, 1);
                conn.send(
                    shared,
                    &Response {
                        req_id,
                        body: ResponseBody::Error { code, message },
                    },
                );
            };
            if switches == 0 || switches > shared.config.max_switches {
                fail(
                    format!(
                        "switches {} outside 1..={}",
                        switches, shared.config.max_switches
                    ),
                    ErrorCode::BadRequest,
                );
            } else if shared.tenants.read().unwrap().len() >= shared.config.max_tenants {
                fail(
                    format!("resident-tenant cap {} reached", shared.config.max_tenants),
                    ErrorCode::Capacity,
                );
            } else {
                // Deterministic build: BT(switches) with seeded paper-uniform
                // leaf loads — the contract the offline-replay tests lean on.
                let params = TenantParams {
                    switches,
                    budget,
                    seed,
                };
                let instance = build_tenant(switches, budget, seed);
                let n_switches = instance.n_switches() as u32;
                let entry = Arc::new(TenantEntry::new(instance, 0, params));
                use std::collections::hash_map::Entry;
                match shared.tenants.write().unwrap().entry(tenant) {
                    // Checked before the WAL append: a rejected register
                    // leaves no record behind.
                    _ if budget > n_switches => fail(
                        format!("budget {budget} exceeds the tenant's {n_switches} switches"),
                        ErrorCode::BadRequest,
                    ),
                    Entry::Occupied(_) => fail(
                        format!("tenant {tenant} is already resident"),
                        ErrorCode::DuplicateTenant,
                    ),
                    Entry::Vacant(v) => {
                        // Log before insert: once the record is durable the
                        // tenant WILL exist after any crash.
                        match append_wal(shared, |w| w.append_register(tenant, params)) {
                            Err(msg) => fail(msg, ErrorCode::Internal),
                            Ok(()) => {
                                v.insert(entry);
                                add(&shared.metrics.registers, 1);
                                respond(ResponseBody::Registered { tenant, n_switches });
                            }
                        }
                    }
                }
            }
        }
        RequestBody::Evict { tenant } => {
            let mut map = shared.tenants.write().unwrap();
            if map.contains_key(&tenant) {
                match append_wal(shared, |w| w.append_evict(tenant)) {
                    Err(msg) => {
                        drop(map);
                        add(&shared.metrics.errors, 1);
                        respond(ResponseBody::Error {
                            code: ErrorCode::Internal,
                            message: msg,
                        });
                    }
                    Ok(()) => {
                        let entry = map.remove(&tenant).expect("checked resident above");
                        drop(map);
                        // Its warm tables go back to the budget now, not when
                        // a request still queued for it drops the entry.
                        let mut state = entry.state.lock().expect("tenant lock poisoned");
                        shared.warm.release(&shared.metrics, &mut state.warm);
                        drop(state);
                        add(&shared.metrics.evictions, 1);
                        respond(ResponseBody::Evicted { tenant });
                    }
                }
            } else {
                drop(map);
                add(&shared.metrics.errors, 1);
                respond(ResponseBody::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("tenant {tenant} is not resident"),
                });
            }
        }
        _ => unreachable!("only Register/Evict are barriers"),
    }
    shared
        .metrics
        .churn_latency
        .record(enqueued.elapsed().as_nanos() as u64);
    if let Some(entry) = gauge {
        entry.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The deterministic tenant constructor shared (by contract) with offline
/// replays: `BT(switches)` + paper-uniform loads from `seed`, wrapped at
/// `budget`.
pub fn build_tenant(switches: u32, budget: u32, seed: u64) -> DynamicInstance {
    let mut tree = builders::complete_binary_tree_bt(switches as usize);
    tree.apply_leaf_loads(&LoadSpec::paper_uniform(), &mut StdRng::seed_from_u64(seed));
    DynamicInstance::new(&tree, budget as usize)
}

fn process_tenant_work(shared: &Arc<Shared>, work: Work) {
    let Work {
        conn,
        req_id,
        body,
        gauge,
        enqueued,
    } = work;
    // Queue wait is measured here (not as a span): the request crossed from a
    // reader thread to this pool worker, and spans are per-thread by design.
    shared
        .metrics
        .queue_wait
        .record(enqueued.elapsed().as_nanos() as u64);
    let _work_span = soar_obs::span!("tenant_work");
    let tenant = body.tenant().expect("tenant work");
    // Queued, not written: the dispatcher flushes the run's responses. Each
    // is built only after its WAL append returned, so no acknowledgement
    // ever leaves ahead of its log record.
    let respond = |body: ResponseBody| conn.queue(&Response { req_id, body });
    // Re-resolve: a barrier since admission may have registered or evicted
    // the tenant.
    let entry = shared.tenants.read().unwrap().get(&tenant).cloned();
    let Some(entry) = entry else {
        add(&shared.metrics.errors, 1);
        respond(ResponseBody::Error {
            code: ErrorCode::UnknownTenant,
            message: format!("tenant {tenant} is not resident"),
        });
        if let Some(g) = gauge {
            g.inflight.fetch_sub(1, Ordering::Relaxed);
        }
        return;
    };

    match body {
        RequestBody::Churn { events, seq, .. } => {
            let mut state = entry.state.lock().unwrap();
            if seq != 0 && seq <= state.last_seq {
                // Idempotent replay: the batch (or a later one) was already
                // applied. Answer success without touching instance or WAL.
                drop(state);
                add(&shared.metrics.duplicate_churns, 1);
                respond(ResponseBody::ChurnApplied {
                    tenant,
                    applied: 0,
                    duplicate: true,
                });
            } else if let Err(msg) = append_wal(shared, |w| w.append_churn(tenant, seq, &events)) {
                // Log-before-apply failed: reject without mutating, or a
                // post-crash replay would miss this batch.
                drop(state);
                add(&shared.metrics.errors, 1);
                respond(ResponseBody::Error {
                    code: ErrorCode::Internal,
                    message: msg,
                });
            } else {
                if seq != 0 {
                    // The batch consumes its seq even if an event fails below:
                    // the WAL record is durable and replay will reproduce the
                    // same partial application.
                    state.last_seq = seq;
                }
                let mut applied = 0u32;
                let mut failed: Option<OnlineError> = None;
                {
                    let _apply = soar_obs::span!("apply_events", events.len());
                    for event in &events {
                        // A budget change re-shapes the DP tables; allow it —
                        // the next solve simply pays a fresh table layout.
                        match state.instance.apply(event) {
                            Ok(()) => applied += 1,
                            Err(e) => {
                                failed = Some(e);
                                break;
                            }
                        }
                    }
                }
                drop(state);
                add(&shared.metrics.events_applied, u64::from(applied));
                add(&entry.events_applied, u64::from(applied));
                match failed {
                    None => respond(ResponseBody::ChurnApplied {
                        tenant,
                        applied,
                        duplicate: false,
                    }),
                    Some(e) => {
                        add(&shared.metrics.errors, 1);
                        respond(ResponseBody::Error {
                            code: online_error(&e),
                            message: format!("event {applied} failed: {e}"),
                        });
                    }
                }
            }
            shared
                .metrics
                .churn_latency
                .record(enqueued.elapsed().as_nanos() as u64);
        }
        RequestBody::Solve { .. } => {
            let mut state = entry.state.lock().unwrap();
            let _solve = soar_obs::span!("serve_solve", tenant);
            let t0 = Instant::now();
            let TenantState { instance, warm, .. } = &mut *state;
            let epoch = shared.warm.solve(&shared.metrics, warm, instance);
            let outcome = solve_outcome(tenant, &epoch, t0);
            drop(state);
            add(&shared.metrics.solves, 1);
            add(&shared.metrics.cells_written, epoch.dp.cells_written as u64);
            add(&shared.metrics.alloc_events, outcome.alloc_events);
            add(&entry.solves, 1);
            add(&entry.solve_ns, outcome.wall_ns);
            respond(ResponseBody::Solved(outcome));
            shared
                .metrics
                .solve_latency
                .record(enqueued.elapsed().as_nanos() as u64);
        }
        RequestBody::Sweep { budgets, .. } => {
            let state = entry.state.lock().unwrap();
            let n_switches = state.instance.n_switches();
            let kmax = budgets.iter().copied().max().unwrap_or(0) as usize;
            if kmax > n_switches {
                drop(state);
                add(&shared.metrics.errors, 1);
                respond(ResponseBody::Error {
                    code: ErrorCode::BadRequest,
                    message: format!("budget {kmax} exceeds the tenant's {n_switches} switches"),
                });
            } else {
                let _sweep = soar_obs::span!("serve_sweep", tenant);
                let sweep_started = Instant::now();
                let (costs, cells, allocs) = with_thread_workspace(|ws| {
                    // One gather at the largest budget serves every requested k,
                    // read off the "at most k" curve a solve applies too.
                    ws.gather_auto(state.instance.tree(), kmax);
                    let curve = prefix_min_curve(ws.tables());
                    let costs: Vec<(u32, f64)> =
                        budgets.iter().map(|&k| (k, curve[k as usize].0)).collect();
                    (
                        costs,
                        ws.last_cells_written() as u64,
                        ws.last_alloc_events() as u64,
                    )
                });
                drop(state);
                add(&shared.metrics.sweeps, 1);
                add(&shared.metrics.cells_written, cells);
                add(&shared.metrics.alloc_events, allocs);
                add(&entry.solves, 1);
                add(&entry.solve_ns, sweep_started.elapsed().as_nanos() as u64);
                respond(ResponseBody::SweepResult { tenant, costs });
                shared
                    .metrics
                    .solve_latency
                    .record(enqueued.elapsed().as_nanos() as u64);
            }
        }
        RequestBody::Register { .. }
        | RequestBody::Evict { .. }
        | RequestBody::Metrics
        | RequestBody::Shutdown => {
            unreachable!("handled as barriers / inline")
        }
    }

    if let Some(g) = gauge {
        g.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A blocking single-connection client — the shared building block of the
/// CLI, the loadtest harness, and the tests. Supports pipelining: `send` and
/// `recv` may be driven from two threads via [`Client::split`].
pub struct Client {
    /// The receiving side; requests are written to its inner stream.
    rx: ClientReceiver,
    /// The encoded request frame, reused across sends.
    out: Vec<u8>,
}

/// Encodes `req` as one frame into `out` and sends it with a single write.
fn send_request(stream: &mut TcpStream, out: &mut Vec<u8>, req: &Request) -> io::Result<()> {
    out.clear();
    framing::append_frame(out, |b| req.encode(b))?;
    stream.write_all(out)
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            rx: ClientReceiver {
                reader: BufReader::with_capacity(READ_BUF_BYTES, stream),
                buf: Vec::new(),
            },
            out: Vec::new(),
        })
    }

    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        send_request(self.rx.reader.get_mut(), &mut self.out, req)
    }

    /// Receives the next response frame (blocking). `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        self.rx.recv()
    }

    /// One request, one response — the non-pipelined convenience used by
    /// register/control paths.
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        self.recv()?.ok_or(ClientError::Disconnected)
    }

    /// Bounds how long a single `recv` read may block (`None` restores the
    /// default of blocking forever). The resilient loadtest path sets this so
    /// a dead server surfaces as a timed-out `Err` instead of a hang.
    pub fn set_read_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.rx.reader.get_ref().set_read_timeout(dur)
    }

    /// Writes raw bytes to the connection, bypassing request encoding and
    /// framing entirely. This is the chaos-injection escape hatch (torn
    /// frames, garbage payloads); well-behaved clients never need it.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.rx.reader.get_mut().write_all(bytes)
    }

    /// Splits into independently-usable send and receive halves (two socket
    /// handles onto one connection), enabling windowed pipelining. Responses
    /// already buffered stay with the receiver.
    pub fn split(self) -> io::Result<(ClientSender, ClientReceiver)> {
        let stream = self.rx.reader.get_ref().try_clone()?;
        Ok((
            ClientSender {
                stream,
                out: self.out,
            },
            self.rx,
        ))
    }
}

/// The sending half of a split [`Client`].
pub struct ClientSender {
    stream: TcpStream,
    out: Vec<u8>,
}

impl ClientSender {
    /// Sends one request frame.
    pub fn send(&mut self, req: &Request) -> io::Result<()> {
        send_request(&mut self.stream, &mut self.out, req)
    }
}

/// The receiving half of a split [`Client`].
pub struct ClientReceiver {
    /// The socket, read through a buffer so one read takes in a burst.
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl ClientReceiver {
    /// Receives the next response frame (blocking). `Ok(None)` on clean EOF.
    pub fn recv(&mut self) -> Result<Option<Response>, ClientError> {
        if !framing::read_frame(&mut self.reader, &mut self.buf, framing::MAX_FRAME_LEN)? {
            return Ok(None);
        }
        Ok(Some(Response::decode(&self.buf)?))
    }
}

/// A client-side failure: transport, framing, or a malformed response.
#[derive(Debug)]
pub enum ClientError {
    /// The stream framing failed (includes IO errors).
    Framing(FramingError),
    /// A well-framed but undecodable response.
    Decode(DecodeError),
    /// The server closed the connection mid-call.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Framing(e) => write!(f, "{e}"),
            ClientError::Decode(e) => write!(f, "bad response: {e}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FramingError> for ClientError {
    fn from(e: FramingError) -> Self {
        ClientError::Framing(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Framing(FramingError::Io(e))
    }
}

/// Replays the exact server-side solve on a local instance — the offline
/// oracle for response-bit-identity tests and a convenient library entry for
/// users who want server-equivalent numbers without a server.
pub fn solve_offline(instance: &DynamicInstance, tenant: u64) -> SolveOutcome {
    let t0 = Instant::now();
    let epoch = with_thread_workspace(|ws| soar_online::solve_full(ws, instance));
    solve_outcome(tenant, &epoch, t0)
}

/// The answer to a solve that started at `t0`, warm or cold, served or
/// offline. `cells_written` is the size of the tables the answer was read
/// from, which every path agrees on; the cells a warm solve actually
/// refilled go to [`ServeMetrics::cells_written`] instead.
fn solve_outcome(tenant: u64, epoch: &EpochSolve, t0: Instant) -> SolveOutcome {
    SolveOutcome {
        tenant,
        cost: epoch.cost,
        all_red_cost: epoch.all_red_cost,
        blue_used: epoch.blue_used as u32,
        cells_written: epoch.dp.table_cells as u64,
        alloc_events: epoch.dp.alloc_events as u64,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Like [`solve_offline`] but only the churn-independent fields are
/// meaningful for comparison (wall time and allocation counts are
/// machine/warmth-dependent).
pub fn comparable(outcome: &SolveOutcome) -> (u64, u64, u64, u32, u64) {
    (
        outcome.tenant,
        outcome.cost.to_bits(),
        outcome.all_red_cost.to_bits(),
        outcome.blue_used,
        outcome.cells_written,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RequestBody;
    use soar_multitenant::churn::ChurnEvent;

    fn request(req_id: u64, body: RequestBody) -> Request {
        Request { req_id, body }
    }

    #[test]
    fn register_churn_solve_evict_round_trip() {
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();

        let resp = client
            .call(&request(
                1,
                RequestBody::Register {
                    tenant: 7,
                    switches: 64,
                    budget: 4,
                    seed: 11,
                },
            ))
            .unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::Registered {
                tenant: 7,
                n_switches: 63
            }
        );

        // Duplicate register fails typed.
        let resp = client
            .call(&request(
                2,
                RequestBody::Register {
                    tenant: 7,
                    switches: 64,
                    budget: 4,
                    seed: 11,
                },
            ))
            .unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::DuplicateTenant,
                ..
            }
        ));

        let churn = RequestBody::Churn {
            tenant: 7,
            seq: 1,
            events: vec![
                ChurnEvent::LeafRateChange { leaf: 62, load: 9 },
                ChurnEvent::TenantArrive {
                    tenant: 0,
                    loads: vec![(60, 5), (61, 5)],
                },
            ],
        };
        let resp = client.call(&request(3, churn.clone())).unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::ChurnApplied {
                tenant: 7,
                applied: 2,
                duplicate: false
            }
        );
        // Blind resend of the same sequenced batch (what a reconnecting client
        // does): deduplicated, not re-applied.
        let resp = client.call(&request(103, churn)).unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::ChurnApplied {
                tenant: 7,
                applied: 0,
                duplicate: true
            }
        );

        let resp = client
            .call(&request(4, RequestBody::Solve { tenant: 7 }))
            .unwrap();
        let ResponseBody::Solved(outcome) = &resp.body else {
            panic!("{resp:?}");
        };
        // Bit-identical to the offline replay of the same event stream.
        let mut offline = build_tenant(64, 4, 11);
        offline
            .apply(&ChurnEvent::LeafRateChange { leaf: 62, load: 9 })
            .unwrap();
        offline
            .apply(&ChurnEvent::TenantArrive {
                tenant: 0,
                loads: vec![(60, 5), (61, 5)],
            })
            .unwrap();
        assert_eq!(comparable(outcome), comparable(&solve_offline(&offline, 7)));

        let resp = client
            .call(&request(
                5,
                RequestBody::Sweep {
                    tenant: 7,
                    budgets: vec![1, 2, 4],
                },
            ))
            .unwrap();
        let ResponseBody::SweepResult { costs, .. } = &resp.body else {
            panic!("{resp:?}");
        };
        assert_eq!(costs.len(), 3);
        // More budget never costs more.
        assert!(costs.windows(2).all(|w| w[1].1 <= w[0].1));
        // The sweep at the solve's budget agrees with the solve.
        assert_eq!(costs[2].1.to_bits(), outcome.cost.to_bits());

        let resp = client.call(&request(6, RequestBody::Metrics)).unwrap();
        let ResponseBody::MetricsReport { json } = &resp.body else {
            panic!("{resp:?}");
        };
        let snap: MetricsSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(snap.resident_tenants, 1);
        assert_eq!(snap.solves, 1);
        assert_eq!(snap.sweeps, 1);
        assert_eq!(
            snap.events_applied, 2,
            "the replayed batch was not re-applied"
        );
        assert_eq!(snap.duplicate_churns, 1);
        assert_eq!(snap.sheds(), 0);

        let resp = client
            .call(&request(7, RequestBody::Evict { tenant: 7 }))
            .unwrap();
        assert_eq!(resp.body, ResponseBody::Evicted { tenant: 7 });
        let resp = client
            .call(&request(8, RequestBody::Solve { tenant: 7 }))
            .unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }
        ));

        let resp = client.call(&request(9, RequestBody::Shutdown)).unwrap();
        assert_eq!(resp.body, ResponseBody::ShuttingDown);
        let final_snap = handle.join();
        assert_eq!(final_snap.evictions, 1);
        assert_eq!(final_snap.io_errors, 0);
    }

    fn is_bad_request(body: &ResponseBody) -> bool {
        matches!(
            body,
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        )
    }

    #[test]
    fn register_with_budget_above_the_switch_count_is_rejected_without_a_wal_record() {
        let dir = std::env::temp_dir().join(format!("soar-serve-{}-budget", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServeConfig {
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        // The request that once made a solve try to allocate 39 GB of DP
        // tables and abort the daemon: BT(4096) at budget 100000.
        let register = |tenant, switches, budget| RequestBody::Register {
            tenant,
            switches,
            budget,
            seed: 3,
        };
        let resp = client
            .call(&request(1, register(1, 4096, 100_000)))
            .unwrap();
        assert!(is_bad_request(&resp.body), "{resp:?}");
        assert_eq!(
            handle.snapshot().wal_records,
            0,
            "rejected register was logged"
        );
        let resp = client
            .call(&request(2, RequestBody::Solve { tenant: 1 }))
            .unwrap();
        assert!(
            matches!(
                resp.body,
                ResponseBody::Error {
                    code: ErrorCode::UnknownTenant,
                    ..
                }
            ),
            "{resp:?}"
        );
        // Another tenant is still served; every switch blue is a valid budget.
        let resp = client.call(&request(3, register(2, 64, 63))).unwrap();
        assert_eq!(
            resp.body,
            ResponseBody::Registered {
                tenant: 2,
                n_switches: 63
            }
        );
        let resp = client
            .call(&request(4, RequestBody::Solve { tenant: 2 }))
            .unwrap();
        assert!(matches!(resp.body, ResponseBody::Solved(_)), "{resp:?}");

        handle.shutdown();
        let snap = handle.join();
        assert_eq!(snap.wal_records, 1, "only the valid register was logged");
        assert_eq!((snap.registers, snap.io_errors), (1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_lived_connections_do_not_accumulate() {
        // Hundreds of connections in sequence, never more than `OPEN` at
        // once: the reader handles and the socket `Weak`s of closed ones must
        // be reaped on later accepts, not kept until shutdown.
        const CONNS: u64 = 300;
        const OPEN: usize = 3;
        let handle = start(ServeConfig::default()).unwrap();
        let lens = || {
            let conns = handle.shared.conns.lock().unwrap().len();
            (conns, handle.readers.lock().unwrap().len())
        };
        let mut open = VecDeque::new();
        for id in 0..CONNS {
            let mut client = Client::connect(&handle.addr()).unwrap();
            // A round trip proves the reader runs before the close.
            let resp = client.call(&request(id, RequestBody::Metrics)).unwrap();
            assert!(
                matches!(resp.body, ResponseBody::MetricsReport { .. }),
                "{resp:?}"
            );
            open.push_back(client);
            if open.len() > OPEN {
                open.pop_front();
            }
            // Closed readers exit asynchronously, so allow some lag here;
            // without reaping both lists would reach `CONNS`.
            let (conns, readers) = lens();
            assert!(
                conns <= 64 && readers <= 64,
                "{conns} conns, {readers} readers"
            );
        }
        open.clear();
        // Once the closed readers have exited, one more accept leaves only
        // itself behind.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let client = Client::connect(&handle.addr()).unwrap();
            std::thread::sleep(Duration::from_millis(20));
            let (conns, readers) = lens();
            drop(client);
            if conns <= 1 + OPEN && readers <= 1 + OPEN {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{conns} conns, {readers} readers after every peer closed"
            );
        }
        handle.shutdown();
        let snap = handle.join();
        assert!(snap.accepted_conns > CONNS, "{}", snap.accepted_conns);
    }

    #[test]
    fn sweep_reads_the_budget_curve_a_solve_reads_after_non_dyadic_rate_churn() {
        // Link rates that round: the exact-i optima can differ from each
        // other in the last bits, where a running minimum and the solver's
        // first-improvement rule part ways. Sweep must apply the solver's.
        let (switches, budget) = (64u32, 8u32);
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        let register = RequestBody::Register {
            tenant: 3,
            switches,
            budget,
            seed: 21,
        };
        client.call(&request(1, register)).unwrap();
        let mut offline = build_tenant(switches, budget, 21);
        let events: Vec<ChurnEvent> = (1..switches as usize)
            .step_by(3)
            .map(|switch| ChurnEvent::LinkRateChange {
                switch,
                rate: 1.0 / (1.0 + (switch % 7) as f64 * 0.3),
            })
            .collect();
        for event in &events {
            offline.apply(event).unwrap();
        }
        let churn = RequestBody::Churn {
            tenant: 3,
            seq: 1,
            events,
        };
        let resp = client.call(&request(2, churn)).unwrap();
        assert!(
            matches!(resp.body, ResponseBody::ChurnApplied { .. }),
            "{resp:?}"
        );
        let resp = client
            .call(&request(3, RequestBody::Solve { tenant: 3 }))
            .unwrap();
        let ResponseBody::Solved(outcome) = &resp.body else {
            panic!("{resp:?}");
        };
        let budgets: Vec<u32> = (0..=2 * budget).collect();
        let sweep = RequestBody::Sweep {
            tenant: 3,
            budgets: budgets.clone(),
        };
        let resp = client.call(&request(4, sweep)).unwrap();
        let ResponseBody::SweepResult { costs, .. } = &resp.body else {
            panic!("{resp:?}");
        };
        assert_eq!(
            costs[budget as usize].1.to_bits(),
            outcome.cost.to_bits(),
            "sweep at the tenant's budget vs its solve"
        );
        let ks: Vec<usize> = budgets.iter().map(|&k| k as usize).collect();
        let reports = soar_core::sweep_budgets(&offline.snapshot(), &ks);
        for (&(k, cost), report) in costs.iter().zip(&reports) {
            assert_eq!(
                cost.to_bits(),
                report.solution.cost.to_bits(),
                "sweep entry at k = {k} vs the offline sweep"
            );
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn sweep_with_a_budget_above_the_switch_count_is_rejected() {
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        client
            .call(&request(
                1,
                RequestBody::Register {
                    tenant: 5,
                    switches: 64,
                    budget: 4,
                    seed: 9,
                },
            ))
            .unwrap();
        let sweep = |budgets: Vec<u32>| RequestBody::Sweep { tenant: 5, budgets };
        for budgets in [vec![1, 64], vec![u32::MAX]] {
            let resp = client.call(&request(2, sweep(budgets))).unwrap();
            assert!(is_bad_request(&resp.body), "{resp:?}");
        }
        let resp = client.call(&request(3, sweep(vec![1, 63]))).unwrap();
        let ResponseBody::SweepResult { costs, .. } = &resp.body else {
            panic!("{resp:?}");
        };
        assert_eq!(costs.len(), 2);
        assert!(costs[1].1 <= costs[0].1);
        handle.shutdown();
        let snap = handle.join();
        assert_eq!((snap.sweeps, snap.errors), (1, 2));
    }

    #[test]
    fn budget_change_above_the_switch_count_fails_like_offline_replay() {
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        client
            .call(&request(
                1,
                RequestBody::Register {
                    tenant: 6,
                    switches: 64,
                    budget: 4,
                    seed: 2,
                },
            ))
            .unwrap();
        let events = vec![
            ChurnEvent::LeafRateChange { leaf: 62, load: 9 },
            ChurnEvent::BudgetChange { budget: 64 },
            ChurnEvent::BudgetChange { budget: 5 },
        ];
        let resp = client
            .call(&request(
                2,
                RequestBody::Churn {
                    tenant: 6,
                    seq: 1,
                    events: events.clone(),
                },
            ))
            .unwrap();
        assert!(is_bad_request(&resp.body), "{resp:?}");
        let resp = client
            .call(&request(3, RequestBody::Solve { tenant: 6 }))
            .unwrap();
        let ResponseBody::Solved(outcome) = &resp.body else {
            panic!("{resp:?}");
        };
        // Offline replay stops at the same event and solves the same state:
        // the first event applied, the budget still 4.
        let mut offline = build_tenant(64, 4, 2);
        offline.apply(&events[0]).unwrap();
        assert!(offline.apply(&events[1]).is_err());
        assert_eq!(offline.budget(), 4);
        assert_eq!(comparable(outcome), comparable(&solve_offline(&offline, 6)));
        handle.shutdown();
        assert_eq!(handle.join().io_errors, 0);
    }

    #[test]
    fn malformed_wire_bytes_get_typed_error_then_disconnect() {
        let handle = start(ServeConfig::default()).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        // A well-framed frame full of garbage.
        let mut frame = Vec::new();
        framing::write_frame(&mut frame, &[0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4, 5]).unwrap();
        client.send_raw(&frame).unwrap();
        let resp = client.recv().unwrap().unwrap();
        assert!(matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        // The server hung up on the desynced stream.
        assert!(client.recv().unwrap().is_none());
        handle.shutdown();
        handle.join();
    }

    /// GETs `/metrics` off a daemon's obs endpoint and returns the body.
    fn scrape(obs_addr: SocketAddr) -> String {
        let mut sock = TcpStream::connect(obs_addr).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        std::io::Read::read_to_string(&mut sock, &mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 200 OK"), "{text}");
        text.split_once("\r\n\r\n").unwrap().1.to_owned()
    }

    /// Asserts that every counter and gauge of the metrics table appears in
    /// the scrape exactly once, at its value in `snap`.
    fn assert_scrape_matches(body: &str, snap: &MetricsSnapshot) {
        for d in crate::metrics::METRICS {
            let Some(want) = d.value(snap) else {
                continue;
            };
            let samples: Vec<&str> = body
                .lines()
                .filter_map(|line| line.strip_prefix(d.family)?.strip_prefix(' '))
                .collect();
            assert_eq!(samples, [want.to_string()], "{}", d.family);
        }
    }

    #[test]
    fn obs_endpoint_serves_prometheus_consistent_with_binary_metrics() {
        let config = ServeConfig {
            obs_addr: Some("127.0.0.1:0".to_owned()),
            ..ServeConfig::default()
        };
        let handle = start(config).unwrap();
        let obs_addr = handle.obs_addr().expect("obs endpoint configured");
        let mut client = Client::connect(&handle.addr()).unwrap();
        client
            .call(&request(
                1,
                RequestBody::Register {
                    tenant: 4,
                    switches: 64,
                    budget: 4,
                    seed: 1,
                },
            ))
            .unwrap();
        for i in 0..3 {
            client
                .call(&request(10 + i, RequestBody::Solve { tenant: 4 }))
                .unwrap();
        }

        // The scrape agrees with the binary Metrics response on every counter
        // and gauge (the quiesced daemon has no in-flight work to race on).
        let body = scrape(obs_addr);
        let snap = handle.snapshot();
        assert_scrape_matches(&body, &snap);
        // Four calls, four answers, each alone in its dispatch run.
        assert_eq!((snap.responses, snap.response_flushes), (4, 4));
        assert_eq!(snap.resident_tenants, 1);
        assert!(body.contains("soar_serve_tenant_solve_ns_total{tenant=\"4\"}"));
        assert!(body.contains("# TYPE soar_serve_queue_wait_ns summary"));
        // The global registry (pool/solver counters) rides along.
        assert!(body.contains("soar_gather_passes_total"));
        // Per-tenant breakdown made it into the snapshot too.
        assert_eq!(snap.top_tenants.len(), 1);
        assert_eq!(snap.top_tenants[0].solves, 3);

        // Unknown paths 404.
        let mut sock = TcpStream::connect(obs_addr).unwrap();
        sock.write_all(b"GET /nope HTTP/1.0\r\n\r\n").unwrap();
        let mut text = String::new();
        std::io::Read::read_to_string(&mut sock, &mut text).unwrap();
        assert!(text.starts_with("HTTP/1.0 404"), "{text}");

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_durable_daemon_exposes_every_snapshot_metric() {
        let dir = std::env::temp_dir().join(format!("soar-serve-{}-obs", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServeConfig {
            state_dir: Some(dir.clone()),
            obs_addr: Some("127.0.0.1:0".to_owned()),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        let register = RequestBody::Register {
            tenant: 4,
            switches: 64,
            budget: 4,
            seed: 1,
        };
        let churn = RequestBody::Churn {
            tenant: 4,
            seq: 1,
            events: vec![ChurnEvent::LeafRateChange { leaf: 62, load: 9 }],
        };
        for (i, body) in [register, churn, RequestBody::Solve { tenant: 4 }]
            .into_iter()
            .enumerate()
        {
            let resp = client.call(&request(i as u64, body)).unwrap();
            assert!(!matches!(resp.body, ResponseBody::Error { .. }), "{resp:?}");
        }

        let body = scrape(handle.obs_addr().unwrap());
        let snap = handle.snapshot();
        // The startup snapshot, and a WAL record for the register and the
        // churn batch: durable-state metrics reach `/metrics` too.
        assert!(snap.snapshots >= 1, "{snap:?}");
        assert_eq!(snap.wal_records, 2);
        assert!(body.contains(&format!(
            "\nsoar_serve_snapshots_total {}\n",
            snap.snapshots
        )));
        assert_scrape_matches(&body, &snap);

        handle.shutdown();
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reader_that_never_reads_is_dropped_at_the_write_deadline() {
        let config = ServeConfig {
            write_deadline: Some(Duration::from_millis(200)),
            queue_cap: 1 << 16,
            tenant_inflight_cap: 1 << 16,
            ..ServeConfig::default()
        };
        let handle = start(config).unwrap();
        let register = RequestBody::Register {
            tenant: 1,
            switches: 64,
            budget: 4,
            seed: 5,
        };
        let mut b = Client::connect(&handle.addr()).unwrap();
        b.call(&request(0, register)).unwrap();

        // Connection A pipelines sweeps whose ~390 KB replies fill both
        // socket buffers, and never reads one. Its sends fail once the
        // daemon drops it.
        let (mut a_tx, a_rx) = Client::connect(&handle.addr()).unwrap().split().unwrap();
        let sweep = request(
            0,
            RequestBody::Sweep {
                tenant: 1,
                budgets: vec![1; 1 << 15],
            },
        );
        let flood = std::thread::spawn(move || {
            for _ in 0..64 {
                if a_tx.send(&sweep).is_err() {
                    break;
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(30);
        while handle.snapshot().io_errors == 0 {
            assert!(Instant::now() < deadline, "A was never dropped");
            std::thread::sleep(Duration::from_millis(10));
        }
        flood.join().unwrap();

        // B is still served.
        let resp = b
            .call(&request(1, RequestBody::Solve { tenant: 1 }))
            .unwrap();
        assert!(matches!(resp.body, ResponseBody::Solved(_)), "{resp:?}");

        handle.shutdown();
        let snap = handle.join();
        drop(a_rx);
        assert!(snap.io_errors > 0);
        // Every request read was either answered or counted as lost.
        assert_eq!(snap.requests, snap.responses + snap.io_errors);
    }

    #[test]
    fn full_queue_sheds_with_overloaded_not_buffering() {
        // A queue of 2 and a server whose dispatcher is blocked by a churn on
        // a tenant whose lock we... cannot grab from here; instead, jam the
        // queue with a tiny cap and a stream of solves on a real tenant, and
        // verify at least one Overloaded comes back while nothing is lost.
        let config = ServeConfig {
            queue_cap: 2,
            tenant_inflight_cap: 1024,
            ..ServeConfig::default()
        };
        let handle = start(config).unwrap();
        let mut client = Client::connect(&handle.addr()).unwrap();
        client
            .call(&request(
                0,
                RequestBody::Register {
                    tenant: 1,
                    switches: 1024,
                    budget: 8,
                    seed: 3,
                },
            ))
            .unwrap();
        const N: u64 = 64;
        let (mut tx, mut rx) = client.split().unwrap();
        let sender = std::thread::spawn(move || {
            for i in 0..N {
                tx.send(&request(100 + i, RequestBody::Solve { tenant: 1 }))
                    .unwrap();
            }
            tx
        });
        let mut solved = 0u64;
        let mut shed = 0u64;
        for _ in 0..N {
            match rx.recv().unwrap().unwrap().body {
                ResponseBody::Solved(_) => solved += 1,
                ResponseBody::Overloaded { .. } => shed += 1,
                other => panic!("{other:?}"),
            }
        }
        sender.join().unwrap();
        assert_eq!(solved + shed, N, "every request answered exactly once");
        assert!(solved > 0, "some work got through");
        let snap = handle.snapshot();
        assert_eq!(snap.sheds(), shed);
        handle.shutdown();
        handle.join();
    }
}
