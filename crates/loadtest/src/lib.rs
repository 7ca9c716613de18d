//! # soar-loadtest
//!
//! A client harness for `soar serve`: synthesizes churn for thousands of
//! tenants from [`ChurnStream`]s, drives the daemon over its wire protocol
//! with open- or closed-loop arrival control, and reports sustained
//! events/sec plus client-side p50/p99/p999 latency — both human-readable and
//! as a `BENCH_serve.json` [`RunArtifact`] that `soar history check` gates.
//!
//! Shape of a run:
//!
//! 1. every connection thread registers its share of the tenants (awaiting
//!    each ack — registration is the one strictly-ordered step);
//! 2. senders stream churn batches (one request per accumulated
//!    [`ChurnStream`] epoch run, sized by `events_per_batch`), optionally
//!    interleaving solves, while a receiver thread per connection correlates
//!    responses by `req_id` and records end-to-end latency into
//!    [`LatencyHistogram`]s;
//! 3. **closed loop** (`rate == 0`): at most `window` requests in flight per
//!    connection — throughput is whatever the server sustains. **Open loop**
//!    (`rate > 0`): batches are injected on a wall-clock schedule regardless
//!    of completions — an overloaded server then *sheds* (explicit
//!    `Overloaded` responses) rather than queueing without bound, and the
//!    report counts the sheds;
//! 4. the harness fetches the server's [`MetricsSnapshot`] over a fresh
//!    control connection and folds both sides into the report/artifact.
//!
//! With [`LoadtestConfig::chaos`] set the harness switches to the **resilient
//! driver**: per-request read timeouts, reconnect with capped exponential
//! backoff, and per-tenant sequence numbers so a batch whose ack was lost can
//! be blindly replayed — the server dedupes and answers `duplicate: true`.
//! [`ChaosConfig`] injects faults (connection drops before/after send, torn
//! frames, undecodable frames, slow-reader stalls) around real traffic, and
//! the run keeps **exact accounting**: every generated batch ends up either
//! applied exactly once or explicitly counted lost
//! ([`ResilienceReport::unaccounted`] is zero by construction on a completed
//! run). The same driver rides out a server SIGKILL-and-restart (`--recover`)
//! cycle, which is how the CI chaos smoke exercises crash recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use soar_dataplane::framing;
use soar_exp::spec::ExperimentKind;
use soar_exp::{Chart, ExperimentSpec, RunArtifact, Series};
use soar_multitenant::churn::{ChurnEvent, ChurnModel, ChurnStream};
use soar_obs::hist::LatencyHistogram;
use soar_serve::metrics::{LatencySummary, MetricsSnapshot, METRICS};
use soar_serve::protocol::{ErrorCode, Request, RequestBody, ResponseBody};
use soar_serve::server::{Client, ClientError};
use soar_topology::builders;
use soar_topology::load::LoadSpec;
use soar_topology::Tree;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Loadtest knobs. `Default` is a small smoke-sized run; the CLI maps flags
/// onto every field.
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// The server to drive.
    pub addr: SocketAddr,
    /// Service tenants to register (spread round-robin over connections).
    pub tenants: u64,
    /// `BT(n)` size of every tenant's tree.
    pub switches: u32,
    /// Aggregation budget `k` of every tenant.
    pub budget: u32,
    /// Concurrent client connections (clamped to the tenant count).
    pub connections: usize,
    /// Closed-loop in-flight window per connection.
    pub window: usize,
    /// Minimum churn events per request batch (the churn model is sized to
    /// emit roughly this many per epoch).
    pub events_per_batch: usize,
    /// Total churn batches across all connections.
    pub batches: u64,
    /// Interleave one `Solve` after every N churn batches per connection
    /// (0 = never).
    pub solve_every: u64,
    /// Open-loop target in churn events/sec across the whole run
    /// (0 = closed loop).
    pub rate: f64,
    /// Base seed; tenant `t`'s instance seed and churn stream derive from it.
    pub seed: u64,
    /// Send `Shutdown` when done (the CI smoke asserts the daemon then exits
    /// cleanly).
    pub shutdown: bool,
    /// Fault injection. `Some` switches every connection to the resilient
    /// driver (timeouts, reconnect, sequence-numbered idempotent replay) —
    /// `ChaosConfig::default()` is all-zero probabilities, i.e. resilience
    /// without injected faults.
    pub chaos: Option<ChaosConfig>,
    /// Per-request read timeout of the resilient driver; a response that
    /// doesn't arrive in time counts as a failed attempt and triggers
    /// reconnect + replay.
    pub request_timeout: Duration,
    /// First retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (the knee of "capped exponential").
    pub backoff_cap: Duration,
    /// Attempts per churn batch before it is *classified*: a final probe asks
    /// the server whether the batch's sequence number was consumed, and the
    /// batch is counted applied or explicitly lost accordingly.
    pub max_attempts: u32,
    /// The daemon's Prometheus endpoint (`soar serve --obs-addr`). `Some`
    /// makes the control tail scrape `/metrics` and **fail the run** if the
    /// exposition disagrees with the binary metrics snapshot on any quiesced
    /// counter — the two render paths share one source, so drift is a bug.
    pub obs_addr: Option<SocketAddr>,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            addr: "127.0.0.1:7171".parse().unwrap(),
            tenants: 32,
            switches: 256,
            budget: 8,
            connections: 2,
            window: 32,
            events_per_batch: 100,
            batches: 200,
            solve_every: 8,
            rate: 0.0,
            seed: 1,
            shutdown: false,
            chaos: None,
            request_timeout: Duration::from_secs(2),
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            max_attempts: 24,
            obs_addr: None,
        }
    }
}

/// Per-attempt fault-injection probabilities of the chaos harness. Each churn
/// attempt draws at most one fault; the probabilities are cumulative and
/// should sum to well under 1 so runs converge.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Close the connection instead of sending (the server never sees the
    /// batch; the retry is a plain resend).
    pub drop_before_send: f64,
    /// Send the full request, then close before reading the ack (the server
    /// applies it; the retry must come back `duplicate: true`).
    pub drop_after_send: f64,
    /// Write a torn frame — a length prefix promising more bytes than follow —
    /// then close (the server must drop the connection without applying
    /// anything or panicking).
    pub kill_mid_frame: f64,
    /// Send a well-framed but undecodable payload first (the server answers
    /// `BadRequest` and drops the desynced connection).
    pub malformed_frame: f64,
    /// Sleep [`ChaosConfig::stall_for`] before reading the response — a slow
    /// reader the server's write deadline guards against.
    pub stall: f64,
    /// How long a stall lasts.
    pub stall_for: Duration,
}

impl Default for ChaosConfig {
    /// No injected faults: resilient transport only.
    fn default() -> Self {
        ChaosConfig {
            drop_before_send: 0.0,
            drop_after_send: 0.0,
            kill_mid_frame: 0.0,
            malformed_frame: 0.0,
            stall: 0.0,
            stall_for: Duration::from_millis(50),
        }
    }
}

impl ChaosConfig {
    /// The `--chaos` preset: every fault class on at a rate that injects
    /// roughly one fault per five batches.
    pub fn standard() -> Self {
        ChaosConfig {
            drop_before_send: 0.05,
            drop_after_send: 0.05,
            kill_mid_frame: 0.04,
            malformed_frame: 0.03,
            stall: 0.04,
            stall_for: Duration::from_millis(50),
        }
    }
}

/// One injected fault, drawn per churn attempt.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    DropBeforeSend,
    DropAfterSend,
    KillMidFrame,
    MalformedFrame,
    Stall,
}

fn pick_fault(rng: &mut StdRng, chaos: &ChaosConfig) -> Option<Fault> {
    let r: f64 = rng.random();
    let mut edge = 0.0;
    for (p, fault) in [
        (chaos.drop_before_send, Fault::DropBeforeSend),
        (chaos.drop_after_send, Fault::DropAfterSend),
        (chaos.kill_mid_frame, Fault::KillMidFrame),
        (chaos.malformed_frame, Fault::MalformedFrame),
        (chaos.stall, Fault::Stall),
    ] {
        edge += p;
        if r < edge {
            return Some(fault);
        }
    }
    None
}

/// What one run measured. All latencies are client-side end-to-end
/// (send → response decoded), which upper-bounds the server's own numbers.
#[derive(Debug, Clone)]
pub struct LoadtestReport {
    /// Wall time of the churn-driving phase (registration excluded).
    pub elapsed: Duration,
    /// Churn events acknowledged as applied by the server.
    pub events_applied: u64,
    /// Churn batches sent.
    pub batches_sent: u64,
    /// Solves completed.
    pub solves: u64,
    /// Requests shed (`Overloaded` responses).
    pub sheds: u64,
    /// Error responses.
    pub errors: u64,
    /// Client-side churn-batch latency.
    pub churn_latency: LatencySummary,
    /// Client-side solve latency.
    pub solve_latency: LatencySummary,
    /// The server's own metrics snapshot, fetched at the end of the run.
    pub server: MetricsSnapshot,
    /// Counters and gauges cross-checked against the Prometheus scrape (`Some` exactly
    /// when [`LoadtestConfig::obs_addr`] was set; the run fails on drift).
    pub obs_counters_checked: Option<usize>,
    /// Resilient-driver accounting — `Some` exactly when the run used the
    /// chaos/resilience path.
    pub resilience: Option<ResilienceReport>,
}

/// Exact delivery accounting of a resilient run: every generated churn batch
/// ends up in `batches_applied` (consumed by the server exactly once —
/// including batches the server answered with an application error after a
/// partial apply, which also bump `errors`) or in `batches_lost` (explicitly
/// given up on after the retry budget and a final classification probe).
#[derive(Debug, Clone, Default)]
pub struct ResilienceReport {
    /// Churn batches generated.
    pub batches_generated: u64,
    /// Batches confirmed consumed by the server exactly once.
    pub batches_applied: u64,
    /// Batches explicitly reported lost (never confirmed applied).
    pub batches_lost: u64,
    /// Replayed batches the server deduplicated (`duplicate: true` acks) —
    /// each one is an ack the chaos harness destroyed.
    pub duplicates: u64,
    /// Attempts beyond the first, across all batches.
    pub retries: u64,
    /// Reconnections after the initial connect per connection.
    pub reconnects: u64,
    /// Injected connection drops (before- and after-send).
    pub injected_drops: u64,
    /// Injected torn-frame kills.
    pub injected_mid_frame_kills: u64,
    /// Injected undecodable frames.
    pub injected_malformed_frames: u64,
    /// Injected slow-reader stalls.
    pub injected_stalls: u64,
}

impl ResilienceReport {
    /// Batches neither confirmed applied nor reported lost. Zero by
    /// construction on any completed run — the invariant the chaos smoke and
    /// the CI gate assert.
    pub fn unaccounted(&self) -> u64 {
        self.batches_generated
            .saturating_sub(self.batches_applied)
            .saturating_sub(self.batches_lost)
    }
}

impl LoadtestReport {
    /// Sustained applied-events throughput.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.events_applied as f64 / secs
        } else {
            0.0
        }
    }

    /// The same throughput inverted into a *lower-is-better* metric — this is
    /// what the gated artifact chart carries, because the history gate treats
    /// every tracked value as a cost.
    pub fn ns_per_event(&self) -> f64 {
        if self.events_applied > 0 {
            self.elapsed.as_nanos() as f64 / self.events_applied as f64
        } else {
            f64::INFINITY
        }
    }

    /// Renders the human-readable summary block the CLI prints.
    pub fn render(&self) -> String {
        let lat = |s: &LatencySummary| {
            format!(
                "p50 {:>9.1} us   p99 {:>9.1} us   p999 {:>9.1} us   max {:>9.1} us   (n={})",
                s.p50_us, s.p99_us, s.p999_us, s.max_us, s.count
            )
        };
        let mut out = String::new();
        out.push_str(&format!(
            "events applied   {:>12}   in {:.2?}\n",
            self.events_applied, self.elapsed
        ));
        out.push_str(&format!(
            "throughput       {:>12.0} events/sec   ({:.0} ns/event)\n",
            self.events_per_sec(),
            self.ns_per_event()
        ));
        out.push_str(&format!("churn latency    {}\n", lat(&self.churn_latency)));
        if self.solve_latency.count > 0 {
            out.push_str(&format!("solve latency    {}\n", lat(&self.solve_latency)));
        }
        out.push_str(&format!(
            "batches {}   solves {}   sheds {}   errors {}\n",
            self.batches_sent, self.solves, self.sheds, self.errors
        ));
        if let Some(r) = &self.resilience {
            out.push_str(&format!(
                "delivery: {} generated = {} applied-once + {} lost ({} unaccounted)\n",
                r.batches_generated,
                r.batches_applied,
                r.batches_lost,
                r.unaccounted()
            ));
            out.push_str(&format!(
                "resilience: {} retries   {} reconnects   {} deduped replays\n",
                r.retries, r.reconnects, r.duplicates
            ));
            out.push_str(&format!(
                "chaos injected: {} drops   {} torn frames   {} malformed   {} stalls\n",
                r.injected_drops,
                r.injected_mid_frame_kills,
                r.injected_malformed_frames,
                r.injected_stalls
            ));
        }
        out.push_str(&format!(
            "server: requests {}   events {}   sheds {}   errors {}   io_errors {}   \
             cells_written {}   alloc_events {}   resident {}\n",
            self.server.requests,
            self.server.events_applied,
            self.server.sheds(),
            self.server.errors,
            self.server.io_errors,
            self.server.cells_written,
            self.server.alloc_events,
            self.server.resident_tenants
        ));
        if let Some(n) = self.obs_counters_checked {
            out.push_str(&format!(
                "obs scrape: {n} counters and gauges verified against the binary snapshot\n"
            ));
        }
        out
    }
}

/// A failed loadtest run.
#[derive(Debug)]
pub enum LoadtestError {
    /// Transport/protocol failure against the server.
    Client(ClientError),
    /// The server answered a request with something structurally unexpected.
    Protocol(String),
}

impl std::fmt::Display for LoadtestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadtestError::Client(e) => write!(f, "{e}"),
            LoadtestError::Protocol(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for LoadtestError {}

impl From<ClientError> for LoadtestError {
    fn from(e: ClientError) -> Self {
        LoadtestError::Client(e)
    }
}

impl From<std::io::Error> for LoadtestError {
    fn from(e: std::io::Error) -> Self {
        LoadtestError::Client(ClientError::from(e))
    }
}

/// The churn model a loadtest tenant streams from: sized so one epoch emits
/// roughly `events_per_batch` rate re-draws, with a slow trickle of
/// intra-instance tenant arrivals and departures on top.
fn batch_model(events_per_batch: usize) -> ChurnModel {
    ChurnModel {
        arrivals_per_epoch: 0.5,
        mean_lifetime: 50.0,
        rate_changes_per_epoch: events_per_batch.saturating_sub(1).max(1) as f64,
        tenant_leaves: 4,
        load: LoadSpec::paper_uniform(),
        mixed_tenants: true,
        ..ChurnModel::paper_default()
    }
}

/// The bookkeeping for one in-flight request: when it was sent and whether it
/// was a solve (routes the latency sample to the right histogram).
type Pending = HashMap<u64, (Instant, bool)>;

/// Per-connection in-flight accounting: a condvar-guarded window for the
/// closed loop plus the `req_id → (sent_at, is_solve)` correlation map.
struct Window {
    inflight: Mutex<(usize, Pending)>,
    cv: Condvar,
}

impl Window {
    fn new() -> Self {
        Window {
            inflight: Mutex::new((0, HashMap::new())),
            cv: Condvar::new(),
        }
    }

    /// Closed loop: block until a slot frees. Open loop (`cap == None`): just
    /// book the request.
    fn acquire(&self, req_id: u64, is_solve: bool, cap: Option<usize>) {
        let mut guard = self.inflight.lock().unwrap();
        if let Some(cap) = cap {
            while guard.0 >= cap {
                guard = self.cv.wait(guard).unwrap();
            }
        }
        guard.0 += 1;
        guard.1.insert(req_id, (Instant::now(), is_solve));
    }

    fn release(&self, req_id: u64) -> Option<(Instant, bool)> {
        let mut guard = self.inflight.lock().unwrap();
        let entry = guard.1.remove(&req_id);
        if entry.is_some() {
            guard.0 -= 1;
            self.cv.notify_one();
        }
        entry
    }
}

/// Shared tallies across every connection's receiver.
#[derive(Default)]
struct Tally {
    events_applied: AtomicU64,
    solves: AtomicU64,
    sheds: AtomicU64,
    errors: AtomicU64,
    // Resilient-driver accounting (zero on the pipelined path).
    batches_applied: AtomicU64,
    batches_lost: AtomicU64,
    duplicates: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    injected_drops: AtomicU64,
    injected_kills: AtomicU64,
    injected_malformed: AtomicU64,
    injected_stalls: AtomicU64,
}

/// Effective connection count (never more connections than tenants).
fn effective_connections(config: &LoadtestConfig) -> usize {
    config.connections.min(config.tenants as usize).max(1)
}

/// Runs the loadtest to completion against an already-listening server.
pub fn run(config: &LoadtestConfig) -> Result<LoadtestReport, LoadtestError> {
    assert!(config.tenants > 0, "need at least one tenant");
    assert!(config.connections > 0, "need at least one connection");
    assert!(
        config.rate > 0.0 || config.window > 0,
        "closed loop needs a nonzero window"
    );
    let shape = builders::complete_binary_tree_bt(config.switches as usize);
    let tally = Tally::default();
    let churn_hist = LatencyHistogram::new();
    let solve_hist = LatencyHistogram::new();
    let conns = effective_connections(config);

    let started = Instant::now();
    let batches_sent = std::thread::scope(|scope| -> Result<u64, LoadtestError> {
        let mut workers = Vec::new();
        for conn_idx in 0..conns {
            let my_tenants: Vec<u64> = (0..config.tenants)
                .filter(|t| (*t as usize) % conns == conn_idx)
                .collect();
            let my_batches = config.batches / conns as u64
                + u64::from((config.batches % conns as u64) > conn_idx as u64);
            let (shape, tally) = (&shape, &tally);
            let (churn_hist, solve_hist) = (&churn_hist, &solve_hist);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("loadtest-conn-{conn_idx}"))
                    .spawn_scoped(scope, move || {
                        if config.chaos.is_some() {
                            drive_resilient(
                                config,
                                shape,
                                conn_idx,
                                &my_tenants,
                                my_batches,
                                tally,
                                churn_hist,
                                solve_hist,
                            )
                        } else {
                            drive_connection(
                                config,
                                shape,
                                conn_idx,
                                &my_tenants,
                                my_batches,
                                tally,
                                churn_hist,
                                solve_hist,
                            )
                        }
                    })
                    .expect("spawn connection thread"),
            );
        }
        let mut sent = 0u64;
        for worker in workers {
            sent += worker
                .join()
                .map_err(|_| LoadtestError::Protocol("connection thread panicked".into()))??;
        }
        Ok(sent)
    })?;
    let elapsed = started.elapsed();

    // Control tail: fetch server metrics (and optionally shut the server
    // down) on a fresh connection. A chaos run may race a server restart, so
    // the resilient path retries the connect with the configured backoff.
    let mut control = if config.chaos.is_some() {
        connect_with_backoff(config)?
    } else {
        Client::connect(&config.addr)?
    };
    let resp = control.call(&Request {
        req_id: u64::MAX,
        body: RequestBody::Metrics,
    })?;
    let ResponseBody::MetricsReport { json } = resp.body else {
        return Err(LoadtestError::Protocol(format!(
            "expected MetricsReport, got {:?}",
            resp.body
        )));
    };
    let server: MetricsSnapshot = serde_json::from_str(&json)
        .map_err(|e| LoadtestError::Protocol(format!("bad metrics JSON: {e}")))?;
    // With the workers joined and every response received, the workload
    // counters are quiesced: the Prometheus exposition must agree with the
    // binary snapshot exactly (both render from the same `ServeMetrics`).
    let obs_counters_checked = match &config.obs_addr {
        None => None,
        Some(addr) => Some(scrape_and_check(addr, &server)?),
    };
    if config.shutdown {
        let resp = control.call(&Request {
            req_id: u64::MAX,
            body: RequestBody::Shutdown,
        })?;
        if resp.body != ResponseBody::ShuttingDown {
            return Err(LoadtestError::Protocol(format!(
                "expected ShuttingDown, got {:?}",
                resp.body
            )));
        }
    }

    let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
    let resilience = config.chaos.as_ref().map(|_| ResilienceReport {
        batches_generated: batches_sent,
        batches_applied: get(&tally.batches_applied),
        batches_lost: get(&tally.batches_lost),
        duplicates: get(&tally.duplicates),
        retries: get(&tally.retries),
        reconnects: get(&tally.reconnects),
        injected_drops: get(&tally.injected_drops),
        injected_mid_frame_kills: get(&tally.injected_kills),
        injected_malformed_frames: get(&tally.injected_malformed),
        injected_stalls: get(&tally.injected_stalls),
    });
    Ok(LoadtestReport {
        elapsed,
        events_applied: get(&tally.events_applied),
        batches_sent,
        solves: get(&tally.solves),
        sheds: get(&tally.sheds),
        errors: get(&tally.errors),
        churn_latency: LatencySummary::of(&churn_hist),
        solve_latency: LatencySummary::of(&solve_hist),
        server,
        obs_counters_checked,
        resilience,
    })
}

/// The snapshot fields the control connection itself moves between the
/// binary `Metrics` answer and the scrape.
const CONTROL_PERTURBED: [&str; 4] = [
    "accepted_conns",
    "requests",
    "responses",
    "response_flushes",
];

/// Scrapes `/metrics` off the daemon's obs endpoint and cross-checks every
/// counter and gauge of the daemon's metrics table against the binary
/// snapshot, except the [`CONTROL_PERTURBED`] ones. Returns how many were
/// verified.
fn scrape_and_check(addr: &SocketAddr, server: &MetricsSnapshot) -> Result<usize, LoadtestError> {
    use std::io::{Read, Write};
    let fail = |m: String| LoadtestError::Protocol(m);
    let mut sock = std::net::TcpStream::connect(addr)
        .map_err(|e| fail(format!("obs scrape: connect to {addr} failed: {e}")))?;
    let _ = sock.set_read_timeout(Some(Duration::from_secs(5)));
    sock.write_all(b"GET /metrics HTTP/1.0\r\nHost: loadtest\r\n\r\n")
        .map_err(|e| fail(format!("obs scrape: write failed: {e}")))?;
    let mut text = String::new();
    sock.read_to_string(&mut text)
        .map_err(|e| fail(format!("obs scrape: read failed: {e}")))?;
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(fail("obs scrape: no header/body split in response".into()));
    };
    if !head.starts_with("HTTP/1.0 200") {
        return Err(fail(format!("obs scrape: non-200 response: {head}")));
    }
    let sample = |name: &str| -> Option<u64> {
        body.lines().find_map(|line| {
            let (n, v) = line.split_once(' ')?;
            if n != name {
                return None;
            }
            v.parse::<f64>().ok().map(|f| f as u64)
        })
    };
    let mut checked = 0;
    for d in METRICS {
        if CONTROL_PERTURBED.contains(&d.field) {
            continue;
        }
        let Some(want) = d.value(server) else {
            continue;
        };
        let name = d.family;
        match sample(name) {
            None => return Err(fail(format!("obs scrape: exposition is missing {name}"))),
            Some(got) if got != want => {
                return Err(fail(format!(
                    "obs scrape: {name} = {got} but the binary snapshot says {want} — \
                     the two exposition paths drifted"
                )))
            }
            Some(_) => checked += 1,
        }
    }
    Ok(checked)
}

/// Connects with the resilient backoff schedule — rides out a server that is
/// mid-restart.
fn connect_with_backoff(config: &LoadtestConfig) -> Result<Client, LoadtestError> {
    let mut last = None;
    for attempt in 0..config.max_attempts.max(1) {
        match Client::connect(&config.addr) {
            Ok(client) => {
                client.set_read_timeout(Some(config.request_timeout))?;
                return Ok(client);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(backoff_delay(config, attempt));
            }
        }
    }
    Err(LoadtestError::Client(ClientError::from(last.unwrap())))
}

/// Capped exponential backoff: `base * 2^attempt`, clamped to `cap`.
fn backoff_delay(config: &LoadtestConfig, attempt: u32) -> Duration {
    let exp = config
        .backoff_base
        .saturating_mul(1u32.checked_shl(attempt.min(16)).unwrap_or(u32::MAX));
    exp.min(config.backoff_cap)
}

/// One connection's whole lifecycle: register its tenants, pipeline churn
/// (and interleaved solves) under the loop discipline, drain every response.
/// Returns the churn batches it sent.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    config: &LoadtestConfig,
    shape: &Tree,
    conn_idx: usize,
    tenants: &[u64],
    batches: u64,
    tally: &Tally,
    churn_hist: &LatencyHistogram,
    solve_hist: &LatencyHistogram,
) -> Result<u64, LoadtestError> {
    let mut client = Client::connect(&config.addr)?;

    // Register this connection's tenants, strictly ordered (each ack awaited
    // before the tenant is referenced).
    for &tenant in tenants {
        let register = Request {
            req_id: tenant,
            body: RequestBody::Register {
                tenant,
                switches: config.switches,
                budget: config.budget,
                seed: config.seed.wrapping_add(tenant),
            },
        };
        let mut resp = client.call(&register)?;
        // A tenant the daemon already holds (from an earlier run) has an
        // evolved state. Without churn to send it is as good as registered,
        // as in `Link::register`; a churn stream, though, starts from the
        // freshly built shape, so the tenant is evicted and built afresh.
        let duplicate = matches!(
            resp.body,
            ResponseBody::Error {
                code: ErrorCode::DuplicateTenant,
                ..
            }
        );
        if batches > 0 && duplicate {
            let evict = Request {
                req_id: tenant,
                body: RequestBody::Evict { tenant },
            };
            match client.call(&evict)?.body {
                ResponseBody::Evicted { .. } => {}
                other => {
                    return Err(LoadtestError::Protocol(format!(
                        "evict of tenant {tenant} answered {other:?}"
                    )))
                }
            }
            resp = client.call(&register)?;
        }
        match resp.body {
            ResponseBody::Registered { .. }
            | ResponseBody::Error {
                code: ErrorCode::DuplicateTenant,
                ..
            } => {}
            other => {
                return Err(LoadtestError::Protocol(format!(
                    "register of tenant {tenant} answered {other:?}"
                )))
            }
        }
    }
    if batches == 0 {
        return Ok(0);
    }

    // One churn stream per tenant, seeded off the tenant id.
    let model = batch_model(config.events_per_batch);
    let mut streams: Vec<ChurnStream<StdRng>> = tenants
        .iter()
        .map(|&t| {
            ChurnStream::new(
                model.clone(),
                shape,
                StdRng::seed_from_u64(config.seed.wrapping_add(t) ^ 0x5eed_cafe),
            )
        })
        .collect();

    // The receiver drains exactly as many correlated responses as the sender
    // books — both sides derive the count from the same arithmetic, so
    // termination needs no extra signalling.
    let solves = batches.checked_div(config.solve_every).unwrap_or(0);
    let expected = batches + solves;
    let window = Window::new();
    let (mut tx, mut rx) = client.split()?;

    std::thread::scope(|scope| -> Result<u64, LoadtestError> {
        let window = &window;
        let receiver = std::thread::Builder::new()
            .name(format!("loadtest-rx-{conn_idx}"))
            .spawn_scoped(scope, move || -> Result<(), LoadtestError> {
                let mut seen = 0u64;
                while seen < expected {
                    let Some(resp) = rx.recv()? else {
                        return Err(LoadtestError::Protocol(
                            "server closed the connection mid-run".into(),
                        ));
                    };
                    let Some((sent_at, is_solve)) = window.release(resp.req_id) else {
                        continue;
                    };
                    seen += 1;
                    let nanos = sent_at.elapsed().as_nanos() as u64;
                    if is_solve {
                        solve_hist.record(nanos);
                    } else {
                        churn_hist.record(nanos);
                    }
                    match resp.body {
                        ResponseBody::ChurnApplied { applied, .. } => {
                            tally
                                .events_applied
                                .fetch_add(u64::from(applied), Ordering::Relaxed);
                        }
                        ResponseBody::Solved(_) => {
                            tally.solves.fetch_add(1, Ordering::Relaxed);
                        }
                        ResponseBody::Overloaded { .. } => {
                            tally.sheds.fetch_add(1, Ordering::Relaxed);
                        }
                        ResponseBody::Error { .. } => {
                            tally.errors.fetch_add(1, Ordering::Relaxed);
                        }
                        other => {
                            return Err(LoadtestError::Protocol(format!(
                                "unexpected response {other:?}"
                            )));
                        }
                    }
                }
                Ok(())
            })
            .expect("spawn receiver thread");

        // Sender: closed loop honors the window; open loop paces on the wall
        // clock, trusting the server to shed what it cannot absorb.
        let cap = if config.rate > 0.0 {
            None
        } else {
            Some(config.window)
        };
        let per_conn_rate = config.rate / effective_connections(config) as f64;
        let batch_secs = if config.rate > 0.0 {
            config.events_per_batch as f64 / per_conn_rate
        } else {
            0.0
        };
        let t0 = Instant::now();
        let mut req_id = (1u64 << 32).wrapping_add((conn_idx as u64) << 24);
        let mut sent = 0u64;
        let mut events: Vec<ChurnEvent> = Vec::new();
        for batch in 0..batches {
            if config.rate > 0.0 {
                let due = t0 + Duration::from_secs_f64(batch as f64 * batch_secs);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
            }
            let slot = (batch as usize) % tenants.len();
            let tenant = tenants[slot];
            events.clear();
            while events.len() < config.events_per_batch {
                events.extend(streams[slot].next_epoch());
            }
            req_id += 1;
            window.acquire(req_id, false, cap);
            // seq 0 opts out of idempotent-replay dedupe: the pipelined path
            // can have several same-tenant batches in flight, which the pool
            // may apply out of order — sequencing belongs to the resilient
            // driver, which keeps at most one in-flight request per tenant.
            tx.send(&Request {
                req_id,
                body: RequestBody::Churn {
                    tenant,
                    seq: 0,
                    events: events.clone(),
                },
            })?;
            sent += 1;
            if config.solve_every > 0 && (batch + 1) % config.solve_every == 0 {
                req_id += 1;
                window.acquire(req_id, true, cap);
                tx.send(&Request {
                    req_id,
                    body: RequestBody::Solve { tenant },
                })?;
            }
        }
        receiver
            .join()
            .map_err(|_| LoadtestError::Protocol("receiver thread panicked".into()))??;
        Ok(sent)
    })
}

/// The resilient driver: synchronous request/response per connection — at
/// most one in-flight request per tenant, which is what makes per-tenant
/// sequence numbers safe against reordering — with a read timeout on every
/// receive, reconnect with capped exponential backoff on any transport
/// failure, idempotent replay of unacknowledged batches, and chaos injection
/// wrapped around the real traffic.
#[allow(clippy::too_many_arguments)]
fn drive_resilient(
    config: &LoadtestConfig,
    shape: &Tree,
    conn_idx: usize,
    tenants: &[u64],
    batches: u64,
    tally: &Tally,
    churn_hist: &LatencyHistogram,
    solve_hist: &LatencyHistogram,
) -> Result<u64, LoadtestError> {
    let chaos = config.chaos.clone().unwrap_or_default();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC4A0_5EED ^ ((conn_idx as u64) << 40));
    let mut link = Link {
        config,
        tally,
        client: None,
        connected_once: false,
        req_id: (2u64 << 32).wrapping_add((conn_idx as u64) << 24),
    };

    for &tenant in tenants {
        link.register(tenant)?;
    }
    if batches == 0 {
        return Ok(0);
    }

    let model = batch_model(config.events_per_batch);
    let mut streams: Vec<ChurnStream<StdRng>> = tenants
        .iter()
        .map(|&t| {
            ChurnStream::new(
                model.clone(),
                shape,
                StdRng::seed_from_u64(config.seed.wrapping_add(t) ^ 0x5eed_cafe),
            )
        })
        .collect();

    let mut seqs = vec![0u64; tenants.len()];
    let mut events: Vec<ChurnEvent> = Vec::new();
    for batch in 0..batches {
        let slot = (batch as usize) % tenants.len();
        let tenant = tenants[slot];
        events.clear();
        while events.len() < config.events_per_batch {
            events.extend(streams[slot].next_epoch());
        }
        seqs[slot] += 1;
        link.deliver_churn(tenant, seqs[slot], &events, &mut rng, &chaos, churn_hist);
        if config.solve_every > 0 && (batch + 1) % config.solve_every == 0 {
            link.deliver_solve(tenant, solve_hist);
        }
    }
    Ok(batches)
}

/// One resilient connection: an optional live [`Client`] plus the reconnect
/// and request-id bookkeeping.
struct Link<'a> {
    config: &'a LoadtestConfig,
    tally: &'a Tally,
    client: Option<Client>,
    connected_once: bool,
    req_id: u64,
}

impl Link<'_> {
    fn bump(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn disconnect(&mut self) {
        self.client = None;
    }

    /// Connects if there is no live connection. Returns `false` when the
    /// connect itself failed (the caller backs off and retries).
    fn ensure_connected(&mut self) -> bool {
        if self.client.is_some() {
            return true;
        }
        match Client::connect(&self.config.addr) {
            Ok(client) => {
                let _ = client.set_read_timeout(Some(self.config.request_timeout));
                if self.connected_once {
                    self.bump(&self.tally.reconnects);
                }
                self.connected_once = true;
                self.client = Some(client);
                true
            }
            Err(_) => false,
        }
    }

    fn next_req_id(&mut self) -> u64 {
        self.req_id += 1;
        self.req_id
    }

    /// Sends one request on the live connection; any failure drops it.
    fn send_req(&mut self, req: &Request) -> bool {
        let Some(client) = self.client.as_mut() else {
            return false;
        };
        if client.send(req).is_err() {
            self.disconnect();
            return false;
        }
        true
    }

    /// Receives the response to `req_id`. A timeout, EOF, decode failure, or
    /// a response to some *other* request (the stream is desynced — e.g. the
    /// req-id-0 error answering an injected malformed frame) drops the
    /// connection and returns `None`.
    fn recv_matching(&mut self, req_id: u64) -> Option<ResponseBody> {
        let client = self.client.as_mut()?;
        match client.recv() {
            Ok(Some(resp)) if resp.req_id == req_id => Some(resp.body),
            _ => {
                self.disconnect();
                None
            }
        }
    }

    /// Registers a tenant, retrying through transport faults. A
    /// `DuplicateTenant` answer means a previous attempt's ack was lost (or
    /// the tenant survived a server restart) — success either way.
    fn register(&mut self, tenant: u64) -> Result<(), LoadtestError> {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.bump(&self.tally.retries);
                std::thread::sleep(backoff_delay(self.config, attempt - 1));
            }
            if !self.ensure_connected() {
                continue;
            }
            let req = Request {
                req_id: self.next_req_id(),
                body: RequestBody::Register {
                    tenant,
                    switches: self.config.switches,
                    budget: self.config.budget,
                    seed: self.config.seed.wrapping_add(tenant),
                },
            };
            if !self.send_req(&req) {
                continue;
            }
            match self.recv_matching(req.req_id) {
                Some(ResponseBody::Registered { .. }) => return Ok(()),
                Some(ResponseBody::Error {
                    code: ErrorCode::DuplicateTenant,
                    ..
                }) => return Ok(()),
                Some(ResponseBody::Overloaded { .. }) => continue,
                Some(ResponseBody::Error { code, message }) => {
                    return Err(LoadtestError::Protocol(format!(
                        "register of tenant {tenant} rejected ({code:?}): {message}"
                    )))
                }
                Some(other) => {
                    return Err(LoadtestError::Protocol(format!(
                        "register of tenant {tenant} answered {other:?}"
                    )))
                }
                None => continue,
            }
        }
        Err(LoadtestError::Protocol(format!(
            "tenant {tenant}: registration never succeeded within the retry budget"
        )))
    }

    /// Delivers one sequenced churn batch under chaos. Terminates with the
    /// batch *accounted*: applied exactly once (`batches_applied`) or
    /// explicitly lost (`batches_lost` via [`Link::classify`]). Transport
    /// failures never abort the run.
    fn deliver_churn(
        &mut self,
        tenant: u64,
        seq: u64,
        events: &[ChurnEvent],
        rng: &mut StdRng,
        chaos: &ChaosConfig,
        hist: &LatencyHistogram,
    ) {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.bump(&self.tally.retries);
                std::thread::sleep(backoff_delay(self.config, attempt - 1));
            }
            if !self.ensure_connected() {
                continue;
            }
            let req = Request {
                req_id: self.next_req_id(),
                body: RequestBody::Churn {
                    tenant,
                    seq,
                    events: events.to_vec(),
                },
            };
            let fault = pick_fault(rng, chaos);
            match fault {
                Some(Fault::DropBeforeSend) => {
                    self.bump(&self.tally.injected_drops);
                    self.disconnect();
                    continue;
                }
                Some(Fault::KillMidFrame) => {
                    self.inject_torn_frame(&req, rng);
                    continue;
                }
                Some(Fault::MalformedFrame) => {
                    self.inject_malformed();
                    continue;
                }
                _ => {}
            }
            let sent_at = Instant::now();
            if !self.send_req(&req) {
                continue;
            }
            if fault == Some(Fault::DropAfterSend) {
                // The server (most likely) applies this; the ack dies here.
                // The next attempt must come back `duplicate: true`.
                self.bump(&self.tally.injected_drops);
                self.disconnect();
                continue;
            }
            if fault == Some(Fault::Stall) {
                self.bump(&self.tally.injected_stalls);
                std::thread::sleep(chaos.stall_for);
            }
            match self.recv_matching(req.req_id) {
                Some(ResponseBody::ChurnApplied {
                    applied, duplicate, ..
                }) => {
                    hist.record(sent_at.elapsed().as_nanos() as u64);
                    if duplicate {
                        self.bump(&self.tally.duplicates);
                    }
                    self.tally
                        .events_applied
                        .fetch_add(u64::from(applied), Ordering::Relaxed);
                    self.bump(&self.tally.batches_applied);
                    return;
                }
                Some(ResponseBody::Overloaded { .. }) => {
                    self.bump(&self.tally.sheds);
                    continue;
                }
                // `Internal` is the server's "the request had no effect"
                // contract (WAL append failed before any mutation) — the seq
                // was not consumed, so a plain retry is correct.
                Some(ResponseBody::Error {
                    code: ErrorCode::Internal,
                    ..
                }) => {
                    self.bump(&self.tally.errors);
                    continue;
                }
                // Any other error consumed the seq (apply-until-first-error):
                // the batch reached the server exactly once.
                Some(ResponseBody::Error { .. }) => {
                    self.bump(&self.tally.errors);
                    self.bump(&self.tally.batches_applied);
                    return;
                }
                Some(_) | None => continue,
            }
        }
        self.classify(tenant, seq);
    }

    /// The batch exhausted its retry budget — ask the server whether `seq`
    /// was consumed, without chaos. An *empty* batch with the same seq either
    /// dedupes (the original was applied) or consumes the seq applying zero
    /// events — after which any straggling original still queued server-side
    /// dedupes too, so the classification itself preserves exactly-once.
    fn classify(&mut self, tenant: u64, seq: u64) {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(self.config, attempt - 1));
            }
            if !self.ensure_connected() {
                continue;
            }
            let req = Request {
                req_id: self.next_req_id(),
                body: RequestBody::Churn {
                    tenant,
                    seq,
                    events: Vec::new(),
                },
            };
            if !self.send_req(&req) {
                continue;
            }
            match self.recv_matching(req.req_id) {
                Some(ResponseBody::ChurnApplied { duplicate, .. }) => {
                    if duplicate {
                        self.bump(&self.tally.batches_applied);
                    } else {
                        self.bump(&self.tally.batches_lost);
                    }
                    return;
                }
                Some(ResponseBody::Overloaded { .. }) => continue,
                Some(ResponseBody::Error {
                    code: ErrorCode::Internal,
                    ..
                }) => continue,
                Some(_) => break,
                None => continue,
            }
        }
        // The server never answered the probe: explicitly lost.
        self.bump(&self.tally.batches_lost);
    }

    /// Read-only solve with retry; a solve that never completes is surfaced
    /// as an error (it is not part of the exactly-once churn accounting).
    fn deliver_solve(&mut self, tenant: u64, hist: &LatencyHistogram) {
        for attempt in 0..self.config.max_attempts.max(1) {
            if attempt > 0 {
                self.bump(&self.tally.retries);
                std::thread::sleep(backoff_delay(self.config, attempt - 1));
            }
            if !self.ensure_connected() {
                continue;
            }
            let req = Request {
                req_id: self.next_req_id(),
                body: RequestBody::Solve { tenant },
            };
            let sent_at = Instant::now();
            if !self.send_req(&req) {
                continue;
            }
            match self.recv_matching(req.req_id) {
                Some(ResponseBody::Solved(_)) => {
                    hist.record(sent_at.elapsed().as_nanos() as u64);
                    self.bump(&self.tally.solves);
                    return;
                }
                Some(ResponseBody::Overloaded { .. }) => {
                    self.bump(&self.tally.sheds);
                    continue;
                }
                Some(ResponseBody::Error { .. }) => {
                    self.bump(&self.tally.errors);
                    return;
                }
                Some(_) | None => continue,
            }
        }
        self.bump(&self.tally.errors);
    }

    /// Chaos: write a strict prefix of a real frame, then close. The server
    /// must treat the torn frame as a dead peer — no application, no panic.
    fn inject_torn_frame(&mut self, req: &Request, rng: &mut StdRng) {
        self.bump(&self.tally.injected_kills);
        let mut payload = Vec::new();
        req.encode(&mut payload);
        let mut frame = Vec::new();
        framing::write_frame(&mut frame, &payload).expect("in-memory frame");
        let keep = rng.random_range(1..frame.len());
        if let Some(client) = self.client.as_mut() {
            let _ = client.send_raw(&frame[..keep]);
        }
        self.disconnect();
    }

    /// Chaos: a well-framed but undecodable payload. The server answers
    /// `BadRequest` (req_id 0) once and drops the desynced connection.
    fn inject_malformed(&mut self) {
        self.bump(&self.tally.injected_malformed);
        let mut frame = Vec::new();
        framing::write_frame(&mut frame, &[0xEE_u8; 12]).expect("in-memory frame");
        if let Some(client) = self.client.as_mut() {
            if client.send_raw(&frame).is_ok() {
                let _ = client.recv();
            }
        }
        self.disconnect();
    }
}

/// Builds the gated `BENCH_serve.json` artifact: latency and inverse
/// throughput as *timing* charts (structural + relative-band comparison),
/// sheds and errors as exact charts (any increase fails the gate).
pub fn artifact(config: &LoadtestConfig, report: &LoadtestReport) -> RunArtifact {
    let spec = ExperimentSpec::new(
        "serve-bench",
        "soar serve under loadtest churn",
        1,
        ExperimentKind::ServeBench {
            tenants: config.tenants,
            switches: config.switches,
            budget: config.budget,
            connections: effective_connections(config),
            window: config.window,
            events_per_batch: config.events_per_batch,
            solve_every: config.solve_every,
            batches: config.batches,
            rate: config.rate,
        },
    );
    let x = config.tenants as f64;

    let mut latency = Chart::new(
        "serve request latency",
        "tenants",
        "client-side latency [us]",
    );
    for (label, value) in [
        ("churn p50", report.churn_latency.p50_us),
        ("churn p99", report.churn_latency.p99_us),
        ("churn p999", report.churn_latency.p999_us),
        ("solve p50", report.solve_latency.p50_us),
        ("solve p99", report.solve_latency.p99_us),
        ("solve p999", report.solve_latency.p999_us),
    ] {
        let mut series = Series::new(label);
        series.push(x, value);
        latency.push(series);
    }

    let mut throughput = Chart::new("serve churn throughput", "tenants", "ns per applied event");
    let mut series = Series::new("ns per event");
    series.push(x, report.ns_per_event());
    throughput.push(series);

    let mut counters = Chart::new("serve failure counters", "tenants", "count");
    for (label, value) in [
        ("sheds", report.sheds as f64),
        ("errors", report.errors as f64),
        ("server io_errors", report.server.io_errors as f64),
    ] {
        let mut series = Series::new(label);
        series.push(x, value);
        counters.push(series);
    }

    RunArtifact::new(spec, vec![latency, throughput, counters], None)
}

/// Builds the gated `BENCH_chaos.json` artifact of a resilient run: charts 0
/// (latency) and 1 (ns/event + recovery-replay ns/record) compare as timing;
/// chart 2 — batches lost and batches unaccounted — diffs **exactly**, so any
/// chaos run that loses or mislays a batch against a zero baseline fails
/// `soar history check`.
pub fn chaos_artifact(config: &LoadtestConfig, report: &LoadtestReport) -> RunArtifact {
    let chaos = config.chaos.clone().unwrap_or_default();
    let resilience = report.resilience.clone().unwrap_or_default();
    let spec = ExperimentSpec::new(
        "chaos-bench",
        "soar serve under fault-injected churn",
        1,
        ExperimentKind::ChaosBench {
            tenants: config.tenants,
            switches: config.switches,
            budget: config.budget,
            connections: effective_connections(config),
            events_per_batch: config.events_per_batch,
            batches: config.batches,
            drop_before_send: chaos.drop_before_send,
            drop_after_send: chaos.drop_after_send,
            kill_mid_frame: chaos.kill_mid_frame,
            malformed_frame: chaos.malformed_frame,
            stall: chaos.stall,
        },
    );
    let x = config.tenants as f64;

    let mut latency = Chart::new("chaos churn latency", "tenants", "client-side latency [us]");
    for (label, value) in [
        ("churn p50", report.churn_latency.p50_us),
        ("churn p99", report.churn_latency.p99_us),
        ("churn p999", report.churn_latency.p999_us),
    ] {
        let mut series = Series::new(label);
        series.push(x, value);
        latency.push(series);
    }

    let mut throughput = Chart::new(
        "chaos throughput and recovery replay",
        "tenants",
        "nanoseconds",
    );
    let replay_ns_per_record =
        report.server.recovery_replay_ns as f64 / report.server.replayed_wal_records.max(1) as f64;
    for (label, value) in [
        ("ns per applied event", report.ns_per_event()),
        ("recovery replay ns per record", replay_ns_per_record),
    ] {
        let mut series = Series::new(label);
        series.push(x, value);
        throughput.push(series);
    }

    let mut accounting = Chart::new("chaos exact accounting", "tenants", "batches");
    for (label, value) in [
        ("batches lost", resilience.batches_lost as f64),
        ("batches unaccounted", resilience.unaccounted() as f64),
    ] {
        let mut series = Series::new(label);
        series.push(x, value);
        accounting.push(series);
    }

    RunArtifact::new(spec, vec![latency, throughput, accounting], None)
}
