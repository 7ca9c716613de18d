//! Writes the `BENCH_gather.json` perf-tracking snapshot.
//!
//! Runs the single-instance gather microbench of a registered
//! [`GatherMicrobench`](soar_exp::ExperimentKind::GatherMicrobench) spec —
//! `gather-bench` by default (the `BT(n)` sizes of
//! [`soar_bench::perf::GATHER_BENCH_SIZES`]), or `gather-scale` for the
//! large-tree CI gate (100k switches, 16-ary, subtree-capped arena) — and records,
//! per size, the fresh and warm-workspace wall times, the warm pass's
//! allocation count (expected 0) and the peak arena footprint. The snapshot is
//! a regular [`RunArtifact`](soar_exp::RunArtifact) JSON document — the same
//! format the figure experiments persist — so `soar experiment check` and
//! `soar history check` can diff and gate it. The `bench-smoke` and
//! `scale-smoke` CI jobs run this binary so every commit leaves
//! machine-readable perf data points.
//!
//! With `--obs` it instead runs the tracing-overhead variant (`obs-bench`):
//! the same warm gather timed with span tracing off vs on, written to
//! `BENCH_gather_obs.json` — the artifact behind the `scale-smoke` job's
//! <2% instrumentation-overhead gate. The committed `gather-bench` baseline
//! is untouched by `--obs` runs.
//!
//! ```text
//! cargo run --release -p soar-bench --bin bench_gather [output-path] [--spec NAME] [--obs]
//! ```

use soar_bench::perf::{
    gather_artifact_named, gather_microbench_named, obs_artifact, obs_bench_registered,
};

fn main() {
    let mut out_path: Option<String> = None;
    let mut spec_name = "gather-bench".to_owned();
    let mut obs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--spec" => match args.next() {
                Some(name) => spec_name = name,
                None => {
                    eprintln!("error: --spec needs a registry spec name");
                    std::process::exit(2);
                }
            },
            "--obs" => obs = true,
            _ => out_path = Some(arg),
        }
    }
    if obs {
        let out_path = out_path.unwrap_or_else(|| "BENCH_gather_obs.json".to_owned());
        let points = obs_bench_registered();
        for p in &points {
            println!(
                "obs-gather n={:>8} k={:>3}  off {:>9.3} ms   on {:>9.3} ms   overhead {:.4}x",
                p.n_switches,
                p.budget,
                p.warm_seconds * 1e3,
                p.warm_obs_seconds * 1e3,
                p.overhead_ratio(),
            );
        }
        let artifact = obs_artifact(&points);
        std::fs::write(&out_path, artifact.to_json()).expect("writing the obs snapshot failed");
        println!("wrote {out_path}");
        return;
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_gather.json".to_owned());
    let points = gather_microbench_named(&spec_name).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    for p in &points {
        println!(
            "gather n={:>8} k={:>3}  fresh {:>9.3} ms   warm {:>9.3} ms   allocs {}   peak {:.1} MB",
            p.n_switches,
            p.budget,
            p.fresh_seconds * 1e3,
            p.warm_seconds * 1e3,
            p.warm_alloc_events,
            p.peak_arena_bytes as f64 / 1e6,
        );
    }
    let artifact = gather_artifact_named(&points, &spec_name);
    std::fs::write(&out_path, artifact.to_json()).expect("writing the bench snapshot failed");
    println!("wrote {out_path}");
    // A warm pass that allocates is a regression of the allocation-free gather;
    // fail the smoke job loudly rather than silently recording it.
    if points.iter().any(|p| p.warm_alloc_events != 0) {
        eprintln!("error: warm gather performed heap allocations");
        std::process::exit(1);
    }
}
