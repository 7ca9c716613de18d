//! `soar-benchmark`: the end-to-end and per-layer benchmark of `soar serve`.
//!
//! ```text
//! soar-benchmark run --daemon PATH [--workload NAME] [--seed N] [--seconds N]
//!                    [--trace [0|1]] [--out DIR]
//! soar-benchmark summarize DIR            # run files -> result-set summary
//! soar-benchmark agree A B                # two result sets vs BENCHMARK.json bounds
//! ```
//!
//! `run` spawns the real daemon, sets it up several times, drives one
//! workload over one connection (one sender thread, one receiver thread),
//! checks every answer, and prints every metric with its unit. With
//! `--trace` it then replays a sample of the same inputs through each layer.
//! The last line of stdout is one JSON object per the contract in
//! `BENCHMARK.json`. Run it from the repository root (`benchmark/run.sh`
//! does, after building).

mod config;
mod driver;
mod gen;
mod layers;
mod report;
mod stats;
mod verify;

use config::{Arrival, Benchmark, Workload};
use driver::Load;
use gen::{Op, Plan};
use report::{Metric, RunResult};
use soar_serve::metrics::MetricsSnapshot;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests due in the first second of a run are sent but not measured.
const WARMUP: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median and the last one is measured.
const SETUPS: usize = 5;

const USAGE: &str = "usage: soar-benchmark run --daemon PATH [--workload NAME] [--seed N] [--seconds N] [--trace [0|1]] [--out DIR]
       soar-benchmark summarize DIR
       soar-benchmark agree A B   (A, B: summary files or directories of run files)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("summarize") => summarize_cmd(&args[1..]),
        Some("agree") => agree_cmd(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("soar-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn load_config() -> Result<(Benchmark, Vec<Workload>), String> {
    config::load(Path::new("."))
}

fn summarize_cmd(args: &[String]) -> Result<bool, String> {
    let [dir] = args else {
        return Err(USAGE.to_owned());
    };
    let (bench, _) = load_config()?;
    print!(
        "{}",
        report::render_set(&report::collect_runs(Path::new(dir), &bench)?)
    );
    Ok(true)
}

fn agree_cmd(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_owned());
    };
    let (bench, _) = load_config()?;
    let a = report::load_set(Path::new(a), &bench)?;
    let b = report::load_set(Path::new(b), &bench)?;
    Ok(report::agree(&bench, &a, &b))
}

struct RunOptions {
    daemon: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        daemon: PathBuf::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        out: PathBuf::from("target/soar-benchmark"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--daemon" => opts.daemon = PathBuf::from(value()?),
            "--workload" => opts.workload = Some(value()?),
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = Some(number(value()?)?.max(1)),
            "--out" => opts.out = PathBuf::from(value()?),
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    if opts.daemon.as_os_str().is_empty() {
        return Err(format!("--daemon is required\n{USAGE}"));
    }
    Ok(opts)
}

fn run_cmd(args: &[String]) -> Result<bool, String> {
    let opts = parse_run(args)?;
    let (bench, workloads) = load_config()?;
    let chosen: Vec<&Workload> = match &opts.workload {
        None => workloads.iter().collect(),
        Some(name) => vec![workloads
            .iter()
            .find(|w| &w.name == name)
            .ok_or_else(|| format!("unknown workload `{name}`"))?],
    };
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let labels = labels(&opts.out, opts.seconds.unwrap_or(bench.run_seconds));
    let mut all_correct = true;
    for w in chosen {
        let result = run_workload(&bench, w, &opts, &labels)?;
        for m in &result.metrics {
            println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        let path = report::write_run_file(&opts.out, &result)?;
        println!("  run file: {}", path.display());
        let defs = if opts.trace {
            &bench.per_layer
        } else {
            &bench.end_to_end
        };
        println!("{}", report::result_line(&result, defs)?);
        all_correct &= result.correct;
    }
    Ok(all_correct)
}

/// The environment a result depends on, recorded with every run.
fn labels(out: &Path, run_seconds: u64) -> Vec<(String, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let quoted = |s: &str| format!("\"{s}\"");
    vec![
        ("nproc".into(), nproc.to_string()),
        (
            "pool_threads".into(),
            soar_pool::global().threads().to_string(),
        ),
        ("kernel".into(), quoted(&kernel)),
        ("state_dir_fs".into(), quoted(&filesystem_of(out))),
        ("run_seconds".into(), run_seconds.to_string()),
        ("warmup_s".into(), WARMUP.as_secs().to_string()),
    ]
}

/// The filesystem type `path` lives on, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mount_point = line.split(' ').nth(4)?;
            let fs_type = line.split(" - ").nth(1)?.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Removes a directory when dropped, on every exit path.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
    }
}

fn run_workload(
    bench: &Benchmark,
    w: &Workload,
    opts: &RunOptions,
    labels: &[(String, String)],
) -> Result<RunResult, String> {
    let seconds = opts.seconds.unwrap_or(bench.run_seconds);
    let label_text: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "== {} seed {} ({} s measured after {} s warm-up, trace {}) {}",
        w.name,
        opts.seed,
        seconds,
        WARMUP.as_secs(),
        u8::from(opts.trace),
        label_text.join(" ")
    );

    let mut clock = Instant::now();
    let mut lap = move |name: &'static str| {
        let secs = clock.elapsed().as_secs_f64();
        clock = Instant::now();
        (name, secs)
    };
    let mut plan = Plan::generate(w, opts.seed);
    let mut phases = vec![lap("generate")];
    let input_gen_s = phases[0].1;

    let state_dir = w.durable.then(|| {
        TempDir(
            opts.out
                .join(format!("state-{}-{}", w.name, std::process::id())),
        )
    });
    let state_path = state_dir.as_ref().map(|d| d.0.as_path());
    let (mut setups, mut setup_rss) = (Vec::new(), Vec::new());
    let mut daemon: Option<driver::Daemon> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = daemon.take() {
            previous.shut_down()?;
        }
        let (d, secs) = driver::set_up(&opts.daemon, &plan, state_path)?;
        setups.push(secs);
        setup_rss.push(d.peak_rss_mb()?);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    phases.push(lap("set-up"));
    let run = Duration::from_secs(seconds);
    let cpu_before = daemon.cpu_s()?;
    let load = driver::drive(daemon.addr, &mut plan, w.arrival, WARMUP, run, opts.seed)?;
    let server = daemon.metrics()?;
    let cpu_s = daemon.cpu_s()? - cpu_before;
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shut_down()?;
    phases.push(lap("load"));

    // Output checks.
    let mut problems: Vec<String> = load
        .failures
        .iter()
        .map(|(i, p)| format!("request {i}: {p}"))
        .collect();
    let missing = load.recv_ns.iter().filter(|&&r| r == 0).count();
    if missing > 0 {
        problems.push(format!("{missing} requests got no response"));
    }
    let client_events = applied_events(&plan, &load);
    if server.events_applied != client_events {
        problems.push(format!(
            "the daemon applied {} events, the client was acknowledged {client_events}",
            server.events_applied
        ));
    }
    if server.sheds() + server.errors + server.io_errors > 0 {
        problems.push(format!(
            "the daemon counted {} sheds, {} errors, {} io errors",
            server.sheds(),
            server.errors,
            server.io_errors
        ));
    }
    if w.solve || w.durable {
        let instances = verify::replay_run(&plan, &load, opts.seed, &mut problems);
        if let Some(dir) = state_path {
            verify::check_recovery(dir, &instances, &mut problems);
        }
    }
    drop(state_dir);
    for p in problems.iter().take(10) {
        eprintln!("check failed: {p}");
    }
    phases.push(lap("checks"));

    let mut metrics = vec![metric("setup_s", stats::median(&setups), "s")];
    metrics.extend(end_to_end(&plan, &load, w, run)?);
    metrics.push(metric("setup_rss_mb", stats::median(&setup_rss), "MB"));
    metrics.push(metric("server.peak_rss_mb", rss_mb, "MB"));
    metrics.push(metric("driver.input_gen_s", input_gen_s, "s"));
    metrics.extend(server_metrics(&server, &metrics, w, &load));
    metrics.push(metric(
        "server.cpu_us_per_req",
        cpu_s * 1e6 / load.sent() as f64,
        "us",
    ));
    if opts.trace {
        let trace_path = opts.out.join(format!("{}.trace.json", w.name));
        metrics.extend(
            layers::replay(&plan, w.replay, &opts.out, &trace_path)?
                .into_iter()
                .map(|(name, value, unit)| metric(name, value, unit)),
        );
        eprintln!("trace written to {}", trace_path.display());
        phases.push(lap("replay"));
    }
    let phases: Vec<String> = phases
        .iter()
        .map(|(p, s)| format!("{p} {s:.1} s"))
        .collect();
    eprintln!("{}: {}", w.name, phases.join(", "));

    Ok(RunResult {
        workload: w.name.clone(),
        seed: opts.seed,
        trace: opts.trace,
        labels: labels.to_vec(),
        correct: problems.is_empty(),
        attempted: load.sent() as u64,
        failed: problems.len() as u64,
        metrics,
    })
}

/// Events acknowledged to the run's successful churn requests.
fn applied_events(plan: &Plan, load: &Load) -> u64 {
    let failed: std::collections::HashSet<usize> = load.failures.iter().map(|(i, _)| *i).collect();
    (0..load.sent())
        .filter(|&i| load.recv_ns[i] != 0 && !failed.contains(&i))
        .map(|i| match plan.schedule.op(i) {
            Op::Churn { tenant, slot } => u64::from(plan.applied[tenant][slot]),
            Op::Solve { .. } => 0,
        })
        .sum()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The client-side metrics of the requests started (sent, or due in an open
/// loop) in the measured window `[WARMUP, WARMUP + run)`. Throughput divides
/// them by the time from the window's start until the last of them
/// completed, so an open loop that falls behind its schedule reads below
/// its offered rate.
fn end_to_end(
    plan: &Plan,
    load: &Load,
    w: &Workload,
    run: Duration,
) -> Result<Vec<Metric>, String> {
    let (w0, w1) = (WARMUP.as_nanos() as u64, (WARMUP + run).as_nanos() as u64);
    let failed: std::collections::HashSet<usize> = load.failures.iter().map(|(i, _)| *i).collect();
    let (mut started, mut events, mut last) = (0u64, 0u64, w0);
    let mut inflight_ns = 0u64;
    let (mut primary, mut churn, mut late) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..load.sent() {
        let (start, recv) = (load.start_ns[i], load.recv_ns[i]);
        if recv == 0 || failed.contains(&i) {
            continue;
        }
        inflight_ns += recv.min(w1).saturating_sub(start.max(w0));
        if !(w0..w1).contains(&start) {
            continue;
        }
        started += 1;
        last = last.max(recv);
        let latency = recv - start;
        match plan.schedule.op(i) {
            Op::Churn { tenant, slot } => {
                events += u64::from(plan.applied[tenant][slot]);
                if w.solve {
                    churn.push(latency);
                } else {
                    primary.push(latency);
                }
            }
            Op::Solve { .. } => primary.push(latency),
        }
        late.push(load.sent_ns[i].saturating_sub(start));
    }
    if last == w0 {
        return Err("no request completed in the measured window".into());
    }
    let secs = (last - w0) as f64 / 1e9;
    for v in [&mut primary, &mut churn, &mut late] {
        v.sort_unstable();
    }
    let pct = |v: &[u64], per_mille: usize, what: &str| {
        stats::percentile(v, per_mille).map(us).ok_or_else(|| {
            format!(
                "{what}: {} samples cannot support p{}",
                v.len(),
                per_mille as f64 / 10.0
            )
        })
    };
    let mut m = vec![
        metric("requests_per_s", started as f64 / secs, "1/s"),
        metric("events_per_s", events as f64 / secs, "1/s"),
        metric("latency_p50_us", pct(&primary, 500, "latency")?, "us"),
        metric("latency_p99_us", pct(&primary, 990, "latency")?, "us"),
        metric("latency_samples", primary.len() as f64, "count"),
    ];
    if let Some(p999) = stats::percentile(&primary, 999) {
        m.push(metric("latency_p999_us", us(p999), "us"));
    }
    if w.solve {
        m.push(metric(
            "churn_p50_us",
            pct(&churn, 500, "churn latency")?,
            "us",
        ));
        m.push(metric(
            "churn_p99_us",
            pct(&churn, 990, "churn latency")?,
            "us",
        ));
    }
    m.push(metric(
        "driver.inflight_mean",
        inflight_ns as f64 / (w1 - w0) as f64,
        "count",
    ));
    if let Arrival::Open { .. } = w.arrival {
        m.push(metric(
            "driver.gen_late_p99_us",
            pct(&late, 990, "send lateness")?,
            "us",
        ));
    }
    Ok(m)
}

/// The daemon's own view from its metrics snapshot, and the client time it
/// does not account for.
fn server_metrics(
    server: &MetricsSnapshot,
    client: &[Metric],
    w: &Workload,
    load: &Load,
) -> Vec<Metric> {
    let op = if w.solve {
        &server.solve_latency
    } else {
        &server.churn_latency
    };
    let client_p50 = client
        .iter()
        .find(|m| m.name == "latency_p50_us")
        .map_or(f64::NAN, |m| m.value);
    let outside = client_p50 - op.p50_us;
    let mut m = vec![
        metric("server.op_p50_us", op.p50_us, "us"),
        metric("server.op_p99_us", op.p99_us, "us"),
        metric("server.queue_wait_p50_us", server.queue_wait.p50_us, "us"),
        metric("server.queue_wait_p99_us", server.queue_wait.p99_us, "us"),
        metric("server.batch_form_p50_us", server.batch_form.p50_us, "us"),
        metric("ledger.outside_server_p50_us", outside, "us"),
        metric("ledger.outside_server_frac", outside / client_p50, "ratio"),
    ];
    if w.durable {
        m.push(metric(
            "server.wal_append_p50_us",
            server.wal_append.p50_us,
            "us",
        ));
        m.push(metric(
            "server.wal_append_p99_us",
            server.wal_append.p99_us,
            "us",
        ));
        m.push(metric("server.snapshots", server.snapshots as f64, "count"));
    }
    if w.solve {
        let walls: Vec<f64> = load
            .outcomes
            .iter()
            .map(|(_, o)| o.wall_ns as f64)
            .collect();
        if !walls.is_empty() {
            m.push(metric(
                "server.solve_wall_p50_us",
                stats::median(&walls) / 1e3,
                "us",
            ));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        let w = Workload {
            name: "open".into(),
            arrival: Arrival::Open { rate: 1000.0 },
            tenants: 1,
            switches: 8,
            budget: 2,
            events_per_batch: 1,
            ring: 4,
            solve: false,
            durable: false,
            replay: 1,
        };
        let plan = Plan::generate(&w, 1);
        // One request due every millisecond for 3 s; the measured window is
        // [1 s, 3 s). The sender stalls from 1.5 s to 1.55 s and then sends
        // the 50 requests that fell due meanwhile; every response takes 100 us.
        let ms = 1_000_000u64;
        let due: Vec<u64> = (0..3000).map(|i| i * ms).collect();
        let sent: Vec<u64> = due
            .iter()
            .map(|&d| {
                if (1500 * ms..1550 * ms).contains(&d) {
                    1550 * ms
                } else {
                    d
                }
            })
            .collect();
        let recv: Vec<u64> = sent.iter().map(|&s| s + 100_000).collect();
        let load = Load {
            start_ns: due,
            sent_ns: sent,
            recv_ns: recv,
            failures: Vec::new(),
            outcomes: Vec::new(),
        };
        let m = end_to_end(&plan, &load, &w, Duration::from_secs(2)).unwrap();
        let get = |name: &str| m.iter().find(|m| m.name == name).unwrap().value;
        // Each stalled request is charged its wait from its due time:
        // 50.1 ms, 49.1 ms, ... 1.1 ms. Timed from the send, all 2000 measured
        // requests would read 100 us and the stall would not show.
        assert_eq!(get("latency_p50_us"), 100.0);
        assert_eq!(get("latency_p99_us"), 30_100.0);
        assert_eq!(get("driver.gen_late_p99_us"), 30_000.0);
    }
}
