//! The daemon as a child process, its set-up, and the load phase: one
//! connection driven through `Client::split` by one sender thread (this one)
//! and one receiver thread.

use crate::config::Arrival;
use crate::gen::{sampled, Op, Plan, Schedule};
use soar_serve::metrics::MetricsSnapshot;
use soar_serve::protocol::{Request, RequestBody, ResponseBody, SolveOutcome};
use soar_serve::server::{Client, ClientReceiver, ClientSender};
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long any single read from the daemon may block before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a daemon may take to exit after `Shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// The `req_id` of the end-of-run marker request.
const SENTINEL: u64 = u64::MAX;

/// A running `soar serve` child process. Dropping it kills and reaps the
/// process if it is still running.
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin serve` on a free localhost port and waits until it listens.
    pub fn spawn(bin: &Path, state_dir: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(dir) = state_dir {
            cmd.arg("--state-dir").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("soar serve listening on ")
                .and_then(|a| a.parse().ok()),
            Err(_) => None,
        };
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("daemon did not report its address: {line:?}"))
            }
        }
    }

    /// A control connection with the run's read timeout.
    pub fn connect(&self) -> Result<Client, String> {
        let client = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(client)
    }

    /// The daemon's own metrics snapshot.
    pub fn metrics(&self) -> Result<MetricsSnapshot, String> {
        let resp = self
            .connect()?
            .call(&Request {
                req_id: 0,
                body: RequestBody::Metrics,
            })
            .map_err(|e| format!("metrics: {e}"))?;
        match resp.body {
            ResponseBody::MetricsReport { json } => {
                serde_json::from_str(&json).map_err(|e| format!("metrics JSON: {e}"))
            }
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    /// User plus system CPU time the daemon has used so far, in seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields 14 and 15 (utime, stime) in clock ticks of 1/100 s; the
        // command name before them may contain spaces, so count from its ')'.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        match (fields.get(11), fields.get(12)) {
            (Some(u), Some(s)) => match (u.parse::<u64>(), s.parse::<u64>()) {
                (Ok(u), Ok(s)) => Ok((u + s) as f64 / 100.0),
                _ => Err(format!("{path}: unreadable CPU times")),
            },
            _ => Err(format!("{path}: too few fields")),
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Sends `Shutdown` and waits for a clean exit.
    pub fn shut_down(mut self) -> Result<(), String> {
        let resp = self
            .connect()?
            .call(&Request {
                req_id: 0,
                body: RequestBody::Shutdown,
            })
            .map_err(|e| format!("shutdown: {e}"))?;
        if resp.body != ResponseBody::ShuttingDown {
            return Err(format!("shutdown answered {:?}", resp.body));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after Shutdown".into()),
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
        // The daemon's closing summary line; the pipe stayed open until exit so
        // its last print could not fail.
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Starts a daemon and registers every tenant of `plan`, awaiting each ack.
/// Returns the daemon and the set-up time: spawn to listening (the durable
/// state dir is initialised before the daemon listens), then every
/// `Register` acknowledged.
pub fn set_up(bin: &Path, plan: &Plan, state_dir: Option<&Path>) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    let daemon = Daemon::spawn(bin, state_dir)?;
    let mut control = daemon.connect()?;
    let n_switches = plan.build(0).n_switches() as u32;
    for t in 0..plan.schedule.tenants {
        let resp = control
            .call(&plan.register(t))
            .map_err(|e| format!("register {t}: {e}"))?;
        let want = ResponseBody::Registered {
            tenant: t as u64,
            n_switches,
        };
        if resp.body != want {
            return Err(format!("register {t} answered {:?}", resp.body));
        }
    }
    Ok((daemon, started.elapsed().as_secs_f64()))
}

/// Everything the load phase observed. Times are nanoseconds since the start
/// of the phase; index `i` is request `i` of the schedule.
pub struct Load {
    /// When request `i` counts as started: its send time in a closed loop,
    /// its due time in an open loop.
    pub start_ns: Vec<u64>,
    /// When request `i` was actually written to the socket.
    pub sent_ns: Vec<u64>,
    /// When its response was decoded (0 if it never arrived).
    pub recv_ns: Vec<u64>,
    /// Requests whose response was not the expected success, with the reason.
    pub failures: Vec<(usize, String)>,
    /// Responses to the sampled solves, by request index.
    pub outcomes: Vec<(usize, SolveOutcome)>,
}

impl Load {
    pub fn sent(&self) -> usize {
        self.start_ns.len()
    }
}

/// The closed loop's in-flight bound: `(in flight, receiver gave up)`.
struct Window {
    state: Mutex<(usize, bool)>,
    freed: Condvar,
    cap: usize,
}

impl Window {
    /// Takes a slot; `false` once the receiver has given up, so the sender
    /// never waits for responses that will not be read.
    fn acquire(&self) -> bool {
        let mut s = self.state.lock().expect("window lock");
        while s.0 >= self.cap && !s.1 {
            s = self.freed.wait(s).expect("window lock");
        }
        s.0 += 1;
        !s.1
    }

    fn release(&self) {
        self.state.lock().expect("window lock").0 -= 1;
        self.freed.notify_one();
    }

    fn abort(&self) {
        self.state.lock().expect("window lock").1 = true;
        self.freed.notify_all();
    }
}

fn now_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Drives `plan` against the daemon at `addr` for `run` (after `warmup`),
/// then waits for every response.
pub fn drive(
    addr: SocketAddr,
    plan: &mut Plan,
    arrival: Arrival,
    warmup: Duration,
    run: Duration,
    seed: u64,
) -> Result<Load, String> {
    let client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("set_read_timeout: {e}"))?;
    let (mut tx, mut rx) = client.split().map_err(|e| format!("split: {e}"))?;
    let window = match arrival {
        Arrival::Closed { window } => Some(Window {
            state: Mutex::new((0, false)),
            freed: Condvar::new(),
            cap: window,
        }),
        Arrival::Open { .. } => None,
    };
    let total = AtomicU64::new(u64::MAX);
    let schedule = plan.schedule;
    let end_ns = (warmup + run).as_nanos() as u64;
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        let (window, total, applied) = (window.as_ref(), &total, &plan.applied);
        let receiver = std::thread::Builder::new()
            .name("bench-receiver".into())
            .spawn_scoped(scope, move || {
                let received = receive(&mut rx, schedule, applied, window, total, t0, seed);
                if let (Err(_), Some(w)) = (&received, window) {
                    w.abort();
                }
                received
            })
            .map_err(|e| format!("spawning the receiver: {e}"))?;
        let sent = send(
            &mut tx,
            &mut plan.rings,
            schedule,
            arrival,
            window,
            end_ns,
            t0,
        );
        // Publish the count before the marker request: its response is then
        // the last thing the receiver waits for.
        let count = sent.as_ref().map_or(0, |(start, _)| start.len());
        total.store(count as u64, Ordering::SeqCst);
        let marker = tx.send(&Request {
            req_id: SENTINEL,
            body: RequestBody::Metrics,
        });
        let received = receiver
            .join()
            .map_err(|_| "the receiver thread panicked".to_owned())?;
        let (start_ns, sent_ns) = sent?;
        marker.map_err(|e| format!("send: {e}"))?;
        let (mut recv_ns, failures, outcomes) = received?;
        if recv_ns.len() > start_ns.len() {
            return Err(format!(
                "response to request {} was never sent",
                recv_ns.len() - 1
            ));
        }
        recv_ns.resize(start_ns.len(), 0);
        Ok(Load {
            start_ns,
            sent_ns,
            recv_ns,
            failures,
            outcomes,
        })
    })
}

/// The sender: requests in schedule order until the phase ends. Returns the
/// start and send times of every request it sent.
fn send(
    tx: &mut ClientSender,
    rings: &mut [Vec<Request>],
    schedule: Schedule,
    arrival: Arrival,
    window: Option<&Window>,
    end_ns: u64,
    t0: Instant,
) -> Result<(Vec<u64>, Vec<u64>), String> {
    let mut start_ns = Vec::with_capacity(1 << 16);
    let mut sent_ns = Vec::with_capacity(1 << 16);
    let mut solve = Request {
        req_id: 0,
        body: RequestBody::Solve { tenant: 0 },
    };
    for i in 0.. {
        let start = match arrival {
            Arrival::Closed { .. } => {
                let window = window.expect("a closed loop has a window");
                let open = window.acquire();
                let now = now_ns(t0);
                if !open || now >= end_ns {
                    window.release();
                    break;
                }
                now
            }
            Arrival::Open { rate } => {
                let due = (i as f64 * 1e9 / rate) as u64;
                if due >= end_ns {
                    break;
                }
                let now = now_ns(t0);
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                due
            }
        };
        let req = match schedule.op(i) {
            Op::Churn { tenant, slot } => &mut rings[tenant][slot],
            Op::Solve { tenant } => {
                solve.body = RequestBody::Solve {
                    tenant: tenant as u64,
                };
                &mut solve
            }
        };
        req.req_id = i as u64;
        start_ns.push(start);
        sent_ns.push(now_ns(t0));
        tx.send(req).map_err(|e| format!("send: {e}"))?;
    }
    Ok((start_ns, sent_ns))
}

type Received = (Vec<u64>, Vec<(usize, String)>, Vec<(usize, SolveOutcome)>);

/// The receiver: decodes, times and checks every response until all `total`
/// requests and the end-of-run marker are answered.
fn receive(
    rx: &mut ClientReceiver,
    schedule: Schedule,
    applied: &[Vec<u32>],
    window: Option<&Window>,
    total: &AtomicU64,
    t0: Instant,
    seed: u64,
) -> Result<Received, String> {
    let mut recv_ns: Vec<u64> = Vec::with_capacity(1 << 16);
    let mut failures = Vec::new();
    let mut outcomes = Vec::new();
    let mut answered = 0u64;
    let mut marker = false;
    while !(marker && answered == total.load(Ordering::SeqCst)) {
        let resp = rx
            .recv()
            .map_err(|e| format!("receive: {e}"))?
            .ok_or("the daemon closed the load connection")?;
        let now = now_ns(t0).max(1);
        if resp.req_id == SENTINEL {
            match resp.body {
                ResponseBody::MetricsReport { .. } => marker = true,
                other => return Err(format!("end-of-run marker answered {other:?}")),
            }
            continue;
        }
        let i = usize::try_from(resp.req_id)
            .ok()
            .filter(|&i| i < 1 << 40)
            .ok_or_else(|| format!("response to unknown request {}", resp.req_id))?;
        if i >= recv_ns.len() {
            recv_ns.resize(i + 1, 0);
        }
        if recv_ns[i] != 0 {
            return Err(format!("request {i} was answered twice"));
        }
        recv_ns[i] = now;
        answered += 1;
        if let Some(w) = window {
            w.release();
        }
        let problem = match (schedule.op(i), resp.body) {
            (
                Op::Churn { tenant, slot },
                ResponseBody::ChurnApplied {
                    tenant: got,
                    applied: n,
                    duplicate,
                },
            ) => {
                let want = applied[tenant][slot];
                (got != tenant as u64 || n != want || duplicate).then(|| {
                    format!("churn answered tenant {got} applied {n} duplicate {duplicate}, want tenant {tenant} applied {want}")
                })
            }
            (Op::Solve { tenant }, ResponseBody::Solved(outcome)) => {
                if outcome.tenant != tenant as u64 {
                    Some(format!("solve of {tenant} answered for {}", outcome.tenant))
                } else {
                    if sampled(seed, i) {
                        outcomes.push((i, outcome));
                    }
                    None
                }
            }
            (_, other) => Some(format!("answered {other:?}")),
        };
        if let Some(p) = problem {
            failures.push((i, p));
        }
    }
    Ok((recv_ns, failures, outcomes))
}
