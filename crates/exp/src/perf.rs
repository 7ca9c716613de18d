//! The allocation-free gather microbench behind the `gather-bench`,
//! `gather-scale` and `obs-bench` registry specs.
//!
//! One instrumented measurement per tree size: wall time of a fresh
//! (allocate-every-time) SOAR-Gather versus a warm
//! [`SolverWorkspace`] replay, plus the
//! workspace's allocation count and peak arena footprint. The measurements are
//! persisted as a regular [`RunArtifact`](crate::artifact::RunArtifact) (kind
//! [`GatherMicrobench`](crate::spec::ExperimentKind::GatherMicrobench)), so the
//! perf trajectory shares the figure experiments' snapshot/diff tooling.

use crate::chart::{Chart, Series};
use crate::spec::ScenarioSpec;
use serde::{Deserialize, Serialize};
use soar_core::workspace::SolverWorkspace;
use soar_topology::load::LoadSpec;
use soar_topology::rates::RateScheme;
use std::time::Instant;

/// The budget the default microbench solves for (mid-range: large enough that
/// the `k²` inner loops dominate, small enough that 16k switches stay
/// sub-second).
pub const GATHER_BENCH_BUDGET: usize = 16;

/// Tree sizes of the default microbench, in **switches** (the paper's `BT(n)`
/// counts the destination, so these are `BT(1024)`, `BT(4096)`, `BT(16384)`).
pub const GATHER_BENCH_SIZES: [usize; 3] = [1024, 4096, 16384];

/// One measured point of the gather microbench.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherBenchPoint {
    /// Number of switches in the instance.
    pub n_switches: usize,
    /// The budget `k`.
    pub budget: usize,
    /// Mean wall time of a fresh gather (new arena every call), in seconds.
    pub fresh_seconds: f64,
    /// Mean wall time of a warm-workspace gather, in seconds.
    pub warm_seconds: f64,
    /// Buffer (re)allocations of the *last* warm pass — 0 is the invariant the
    /// allocation-free gather guarantees.
    pub warm_alloc_events: usize,
    /// Peak workspace footprint (arena + scratch), in bytes.
    pub peak_arena_bytes: usize,
}

/// The `BT(n)` instance the microbench times (power-law leaf loads, constant
/// rates, fixed seed — same family as the Fig. 9 scaling study) — the single
/// definition of the benchmark scenario family, shared by the `gather-bench`
/// and `obs-bench` registry specs and `soar trace`.
pub fn gather_bench_instance_with_budget(n: usize, budget: usize) -> soar_core::api::Instance {
    gather_bench_instance_shaped(n, budget, None)
}

/// The fully general benchmark instance: `BT(n)` when `arity` is `None`, a
/// complete `arity`-ary tree over `n` switches otherwise (the `gather-scale`
/// shape — at arity 16 a 1M-switch tree is only 5 levels deep, which is what
/// keeps `n_l` and the arena bounded at datacenter scale). Loads, rates and
/// seed are identical across shapes so timings compare like for like.
pub fn gather_bench_instance_shaped(
    n: usize,
    budget: usize,
    arity: Option<usize>,
) -> soar_core::api::Instance {
    let mut spec = ScenarioSpec::bt(
        n,
        LoadSpec::paper_power_law(),
        RateScheme::paper_constant(),
        1,
    );
    if let Some(arity) = arity {
        spec.topology = soar_core::api::TopologySpec::CompleteKary {
            arity,
            n_switches: n,
        };
    }
    spec.instance(budget)
}

/// Times one instance: `reps` fresh gathers vs `reps` warm-workspace gathers
/// (after one untimed warm-up each).
fn measure_gather(instance: &soar_core::api::Instance, reps: usize) -> GatherBenchPoint {
    let tree = instance.tree();
    let k = instance.budget();
    let reps = reps.max(1);

    let _ = soar_core::soar_gather(tree, k);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(soar_core::soar_gather(tree, k));
    }
    let fresh_seconds = start.elapsed().as_secs_f64() / reps as f64;

    let mut ws = SolverWorkspace::new();
    let _ = ws.gather(tree, k);
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(ws.gather(tree, k));
    }
    let warm_seconds = start.elapsed().as_secs_f64() / reps as f64;

    GatherBenchPoint {
        n_switches: tree.n_switches(),
        budget: k,
        fresh_seconds,
        warm_seconds,
        warm_alloc_events: ws.last_alloc_events(),
        peak_arena_bytes: ws.peak_bytes(),
    }
}

/// Runs the microbench over one tree shape (see
/// [`gather_bench_instance_shaped`]): one point per size. Repetition counts
/// scale down with size so a smoke run stays fast; the 100k+ `gather-scale`
/// instances run twice each.
pub fn gather_microbench_shaped(
    sizes: &[usize],
    budget: usize,
    arity: Option<usize>,
) -> Vec<GatherBenchPoint> {
    sizes
        .iter()
        .map(|&n| {
            let reps = (16384 / n.max(1)).clamp(2, 12);
            measure_gather(&gather_bench_instance_shaped(n, budget, arity), reps)
        })
        .collect()
}

/// One measured point of the tracing-overhead bench: the same warm gather
/// timed with span tracing disabled vs enabled. Enabled means spans are
/// recorded into the calling thread's ring and the DP counters tick — but
/// nothing is drained, which is the steady state of a daemon between
/// `/metrics` scrapes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherObsPoint {
    /// Number of switches in the instance.
    pub n_switches: usize,
    /// The budget `k`.
    pub budget: usize,
    /// Mean wall time of a warm gather with tracing disabled, in seconds.
    pub warm_seconds: f64,
    /// Mean wall time of the same warm gather with tracing enabled, in
    /// seconds.
    pub warm_obs_seconds: f64,
}

impl GatherObsPoint {
    /// `warm_obs_seconds / warm_seconds` — the multiplicative cost of leaving
    /// tracing on (1.0 = free; the CI gate budgets 1.02 plus timer slack).
    pub fn overhead_ratio(&self) -> f64 {
        if self.warm_seconds == 0.0 {
            1.0
        } else {
            self.warm_obs_seconds / self.warm_seconds
        }
    }
}

/// Times one instance's warm gather with tracing off vs on. The two modes are
/// interleaved rep by rep (off, on, off, on, ...) and each mode keeps its
/// fastest rep, so frequency drift and scheduler interference — which hit
/// both modes alike — cancel out of the overhead ratio instead of flaking
/// the CI gate. Tracing is restored to its previous state afterwards.
fn measure_gather_obs(instance: &soar_core::api::Instance, reps: usize) -> GatherObsPoint {
    let tree = instance.tree();
    let k = instance.budget();
    let reps = reps.max(2);
    let was_on = soar_obs::tracing_enabled();

    let mut ws = SolverWorkspace::new();
    soar_obs::set_tracing(false);
    let _ = ws.gather(tree, k);
    soar_obs::set_tracing(true);
    let _ = ws.gather(tree, k);

    let mut warm_seconds = f64::INFINITY;
    let mut warm_obs_seconds = f64::INFINITY;
    for _ in 0..reps {
        soar_obs::set_tracing(false);
        let start = Instant::now();
        std::hint::black_box(ws.gather(tree, k));
        warm_seconds = warm_seconds.min(start.elapsed().as_secs_f64());

        soar_obs::set_tracing(true);
        let start = Instant::now();
        std::hint::black_box(ws.gather(tree, k));
        warm_obs_seconds = warm_obs_seconds.min(start.elapsed().as_secs_f64());
    }

    soar_obs::set_tracing(was_on);
    GatherObsPoint {
        n_switches: tree.n_switches(),
        budget: k,
        warm_seconds,
        warm_obs_seconds,
    }
}

/// Runs the tracing-overhead bench over the standard microbench instances.
pub fn gather_obs_bench(sizes: &[usize], budget: usize) -> Vec<GatherObsPoint> {
    sizes
        .iter()
        .map(|&n| {
            // Flat 12 interleaved pairs: even the 16k point costs < 1 s, and
            // min-of-12 keeps the overhead ratio stable enough for a tight
            // CI gate on shared runners.
            measure_gather_obs(&gather_bench_instance_with_budget(n, budget), 12)
        })
        .collect()
}

/// Renders obs-bench points as the artifact's chart set: wall times with
/// tracing off/on (chart 0) and the enabled/disabled overhead ratio
/// (chart 1). Both are *timing* charts.
pub fn obs_bench_charts(points: &[GatherObsPoint]) -> Vec<Chart> {
    let mut wall = Chart::new(
        "warm gather wall time, tracing off vs on",
        "n switches",
        "wall time [ms]",
    );
    let mut off = Series::new("tracing off");
    let mut on = Series::new("tracing on");
    let mut ratio = Chart::new(
        "tracing overhead ratio",
        "n switches",
        "enabled / disabled wall time",
    );
    let mut ratio_series = Series::new("overhead_ratio");
    for p in points {
        let x = p.n_switches as f64;
        off.push(x, p.warm_seconds * 1e3);
        on.push(x, p.warm_obs_seconds * 1e3);
        ratio_series.push(x, p.overhead_ratio());
    }
    wall.push(off);
    wall.push(on);
    ratio.push(ratio_series);
    vec![wall, ratio]
}

/// Renders microbench points as the artifact's chart set: wall times (chart 0,
/// a *timing* chart), warm allocation events (chart 1 — the allocation-free
/// invariant, diffed exactly) and the peak workspace footprint (chart 2).
pub fn microbench_charts(points: &[GatherBenchPoint]) -> Vec<Chart> {
    let mut wall = Chart::new("SOAR-Gather wall time", "n switches", "wall time [ms]");
    let mut fresh = Series::new("fresh");
    let mut warm = Series::new("warm");
    let mut allocs = Chart::new(
        "warm gather allocation events",
        "n switches",
        "allocations per warm pass",
    );
    let mut alloc_series = Series::new("warm_alloc_events");
    let mut peak = Chart::new(
        "workspace peak footprint",
        "n switches",
        "peak arena + scratch [bytes]",
    );
    let mut peak_series = Series::new("peak_arena_bytes");
    for p in points {
        let x = p.n_switches as f64;
        fresh.push(x, p.fresh_seconds * 1e3);
        warm.push(x, p.warm_seconds * 1e3);
        alloc_series.push(x, p.warm_alloc_events as f64);
        peak_series.push(x, p.peak_arena_bytes as f64);
    }
    wall.push(fresh);
    wall.push(warm);
    allocs.push(alloc_series);
    peak.push(peak_series);
    vec![wall, allocs, peak]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_measures_and_renders() {
        let points = gather_microbench_shaped(&[128], 4, None);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.n_switches, 127);
        assert_eq!(p.budget, 4);
        assert!(p.fresh_seconds > 0.0 && p.warm_seconds > 0.0);
        assert_eq!(p.warm_alloc_events, 0, "warm gather must not allocate");
        assert!(p.peak_arena_bytes > 0);

        let charts = microbench_charts(&points);
        assert_eq!(charts.len(), 3);
        assert_eq!(charts[0].series.len(), 2);
        assert_eq!(
            charts[0].series[0].points,
            vec![(127.0, p.fresh_seconds * 1e3)]
        );
        assert_eq!(
            charts[0].series[1].points,
            vec![(127.0, p.warm_seconds * 1e3)]
        );
        assert_eq!(charts[1].series[0].points, vec![(127.0, 0.0)]);
        assert_eq!(
            charts[2].series[0].points,
            vec![(127.0, p.peak_arena_bytes as f64)]
        );
    }

    #[test]
    fn microbench_point_measures_and_serializes() {
        // A small stand-in instance so the test stays fast; the shape of the
        // measurement (positive timings, zero warm allocations) is what matters.
        let point = measure_gather(&gather_bench_instance_with_budget(128, 4), 2);
        assert_eq!(point.n_switches, 127);
        assert_eq!(point.budget, 4);
        assert!(point.fresh_seconds > 0.0 && point.warm_seconds > 0.0);
        assert_eq!(point.warm_alloc_events, 0, "warm gather must not allocate");
        assert!(point.peak_arena_bytes > 0);

        let json = serde_json::to_string(&point).unwrap();
        let recovered: GatherBenchPoint = serde_json::from_str(&json).unwrap();
        assert_eq!(recovered, point);

        let spec = crate::registry::by_name("gather-bench", crate::Scale::Quick).unwrap();
        let artifact =
            crate::RunArtifact::new(spec, microbench_charts(std::slice::from_ref(&point)), None);
        assert_eq!(artifact.spec.name, "gather-bench");
        assert_eq!(artifact.timing_charts, vec![0]);
        let reparsed = crate::RunArtifact::from_json(&artifact.to_json()).unwrap();
        assert_eq!(reparsed.charts, artifact.charts);
        assert_eq!(reparsed.charts[1].series[0].points, vec![(127.0, 0.0)]);
        let (_, warm_ms) = reparsed.charts[0].series[1].points[0];
        assert!((warm_ms / 1e3 - point.warm_seconds).abs() < 1e-12);
    }

    #[test]
    fn obs_bench_measures_and_restores_tracing_state() {
        let was_on = soar_obs::tracing_enabled();
        let points = gather_obs_bench(&[128], 4);
        assert_eq!(soar_obs::tracing_enabled(), was_on);
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.n_switches, 127);
        assert_eq!(p.budget, 4);
        assert!(p.warm_seconds > 0.0 && p.warm_obs_seconds > 0.0);
        assert!(p.overhead_ratio() > 0.0);

        let charts = obs_bench_charts(&points);
        assert_eq!(charts.len(), 2);
        assert_eq!(charts[0].series.len(), 2);
        assert_eq!(charts[1].series[0].points[0].1, p.overhead_ratio());
    }
}
