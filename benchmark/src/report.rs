//! Result lines, run files, result-set summaries and the `agree` comparison.

use crate::config::{Benchmark, Better, MetricDef};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one workload run reports.
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Environment labels as `(key, JSON value)`.
    pub labels: Vec<(String, String)>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the run measured, including ones `BENCHMARK.json` does
    /// not list.
    pub metrics: Vec<Metric>,
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let body: Vec<String> = metrics
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: the metrics `defs` lists, in that order. Fails if one is
/// missing, not finite, or measured in another unit.
pub fn result_line(r: &RunResult, defs: &[MetricDef]) -> Result<String, String> {
    let mut chosen = Vec::with_capacity(defs.len());
    for def in defs {
        let m = r
            .metrics
            .iter()
            .find(|m| m.name == def.name)
            .ok_or_else(|| format!("metric `{}` was not measured", def.name))?;
        if m.unit != def.unit || !m.value.is_finite() {
            return Err(format!(
                "metric `{}` measured {} {}, defined in {}",
                m.name, m.value, m.unit, def.unit
            ));
        }
        chosen.push(m);
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(chosen.into_iter())
    ))
}

/// Writes the run file `<dir>/<workload>-seed<seed>-trace<0|1>.json`.
pub fn write_run_file(dir: &Path, r: &RunResult) -> Result<PathBuf, String> {
    let labels: Vec<String> = r
        .labels
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let finite: Vec<&Metric> = r.metrics.iter().filter(|m| m.value.is_finite()).collect();
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"labels\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}\n",
        json_str(&r.workload),
        r.seed,
        u8::from(r.trace),
        labels.join(", "),
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(finite.into_iter())
    );
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        r.workload,
        r.seed,
        u8::from(r.trace)
    ));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One workload's values per metric across a result set.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadSet {
    pub seeds: Vec<u64>,
    pub values: BTreeMap<String, (String, Vec<f64>)>,
}

/// A result set: labels plus values per workload and metric.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ResultSet {
    pub labels: Vec<(String, String)>,
    pub workloads: BTreeMap<String, WorkloadSet>,
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => json_str(s),
        Value::Arr(items) => format!(
            "[{}]",
            items
                .iter()
                .map(render_value)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        Value::Obj(fields) => format!(
            "{{{}}}",
            fields
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), render_value(v)))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Folds the run files in `dir` into a result set. End-to-end metrics come
/// from untraced runs, per-layer metrics from traced runs; a run that failed
/// its checks is an error, not a data point.
pub fn collect_runs(dir: &Path, bench: &Benchmark) -> Result<ResultSet, String> {
    let mut runs = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.to_string_lossy();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let run = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(Value::Str(workload)), Some(seed), Some(trace)) = (
            run.get("workload"),
            run.get("seed").and_then(as_f64),
            run.get("trace").and_then(as_f64),
        ) else {
            continue;
        };
        if run.get("correct") != Some(&Value::Bool(true)) {
            return Err(format!("{}: the run failed its checks", path.display()));
        }
        runs.push((workload.clone(), seed as u64, trace != 0.0, run));
    }
    runs.sort_by(|a, b| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)));
    let mut set = ResultSet::default();
    for (workload, seed, traced, run) in runs {
        if set.labels.is_empty() {
            if let Some(Value::Obj(labels)) = run.get("labels") {
                set.labels = labels
                    .iter()
                    .map(|(k, v)| (k.clone(), render_value(v)))
                    .collect();
            }
        }
        let entry = set.workloads.entry(workload).or_default();
        if !traced {
            entry.seeds.push(seed);
        }
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            continue;
        };
        for (name, m) in metrics {
            let per_layer = bench.per_layer.iter().any(|d| &d.name == name);
            if per_layer != traced {
                continue;
            }
            let (Some(Value::Str(unit)), Some(value)) =
                (m.get("unit"), m.get("value").and_then(as_f64))
            else {
                continue;
            };
            entry
                .values
                .entry(name.clone())
                .or_insert_with(|| (unit.clone(), Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(set)
}

/// Renders a result set with each metric's median, quartiles and spread.
pub fn render_set(set: &ResultSet) -> String {
    let mut out = String::from("{\n  \"labels\": {");
    let labels: Vec<String> = set
        .labels
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    out.push_str(&labels.join(", "));
    out.push_str("},\n  \"workloads\": {");
    let mut first_w = true;
    for (name, w) in &set.workloads {
        if !first_w {
            out.push(',');
        }
        first_w = false;
        let seeds: Vec<String> = w.seeds.iter().map(u64::to_string).collect();
        let _ = write!(
            out,
            "\n    {}: {{\n      \"seeds\": [{}],\n      \"metrics\": {{",
            json_str(name),
            seeds.join(", ")
        );
        let mut first_m = true;
        for (metric, (unit, values)) in &w.values {
            if !first_m {
                out.push(',');
            }
            first_m = false;
            let vals: Vec<String> = values.iter().map(f64::to_string).collect();
            let (q1, q2, q3) =
                stats::quartiles(values).unwrap_or((values[0], values[0], values[0]));
            let spread = stats::spread(values).unwrap_or(0.0);
            let _ = write!(
                out,
                "\n        {}: {{\"unit\": {}, \"median\": {q2}, \"q1\": {q1}, \"q3\": {q3}, \"spread\": {spread}, \"values\": [{}]}}",
                json_str(metric),
                json_str(unit),
                vals.join(", ")
            );
        }
        out.push_str("\n      }\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Reads a result set from a summary file or a directory of run files.
pub fn load_set(path: &Path, bench: &Benchmark) -> Result<ResultSet, String> {
    if path.is_dir() {
        return collect_runs(path, bench);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut set = ResultSet::default();
    if let Some(Value::Obj(labels)) = root.get("labels") {
        set.labels = labels
            .iter()
            .map(|(k, v)| (k.clone(), render_value(v)))
            .collect();
    }
    let Some(Value::Obj(workloads)) = root.get("workloads") else {
        return Err(format!("{}: no `workloads` object", path.display()));
    };
    for (name, w) in workloads {
        let mut ws = WorkloadSet::default();
        if let Some(Value::Arr(seeds)) = w.get("seeds") {
            ws.seeds = seeds.iter().filter_map(as_f64).map(|s| s as u64).collect();
        }
        if let Some(Value::Obj(metrics)) = w.get("metrics") {
            for (metric, m) in metrics {
                let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
                let values = match m.get("values") {
                    Some(Value::Arr(v)) => v.iter().filter_map(as_f64).collect(),
                    _ => Vec::new(),
                };
                ws.values.insert(metric.clone(), (unit.to_owned(), values));
            }
        }
        set.workloads.insert(name.clone(), ws);
    }
    Ok(set)
}

/// The verdict on one (end-to-end metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's and both spreads are within it.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A spread is wider than the bound, or a set lacks the values.
    Unresolved,
}

/// Compares B against A under `def`'s bound. `setup_s`'s spread is not
/// held to its bound: set-up time is only checked for drift.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.unwrap_or(0.0);
    let (Some(sa), Some(sb)) = (stats::spread(a), stats::spread(b)) else {
        return Verdict::Unresolved;
    };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse = match def.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if worse > bound {
        Verdict::Regressed
    } else if def.name != "setup_s" && (sa > bound || sb > bound) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// Prints one line per (end-to-end metric, workload) pair; returns whether
/// every pair is `ok`.
pub fn agree(bench: &Benchmark, a: &ResultSet, b: &ResultSet) -> bool {
    let mut all_ok = true;
    println!(
        "{:<14} {:<20} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "change", "spreadA", "spreadB", "bound"
    );
    for w in &bench.workloads {
        for def in &bench.end_to_end {
            let get = |set: &ResultSet| -> Vec<f64> {
                set.workloads
                    .get(w)
                    .and_then(|ws| ws.values.get(&def.name))
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            let (va, vb) = (get(a), get(b));
            let v = verdict(def, &va, &vb);
            all_ok &= v == Verdict::Ok;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let pct = |x: Option<f64>| x.map_or("-".to_owned(), |x| format!("{:.1}%", 100.0 * x));
            println!(
                "{:<14} {:<20} {:>14.4} {:>14.4} {:>8} {:>8} {:>8} {:>6}  {}",
                w,
                def.name,
                ma,
                mb,
                pct(Some((mb - ma) / ma)),
                pct(stats::spread(&va)),
                pct(stats::spread(&vb)),
                pct(def.bound),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    all_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str, better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "us".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_the_bound() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let lat = def("latency_p50_us", Better::Lower, 0.1);
        assert_eq!(verdict(&lat, &base, &base), Verdict::Ok);
        assert_eq!(verdict(&lat, &base, &slower), Verdict::Regressed);
        // Faster is never a regression for a lower-is-better metric.
        assert_eq!(verdict(&lat, &slower, &base), Verdict::Ok);
        let thr = def("requests_per_s", Better::Higher, 0.1);
        assert_eq!(verdict(&thr, &slower, &base), Verdict::Regressed);
        let noisy = [50.0, 100.0, 150.0, 100.0, 75.0, 125.0];
        assert_eq!(verdict(&lat, &base, &noisy), Verdict::Unresolved);
        // Set-up time is only held to drift, not to spread.
        let setup = def("setup_s", Better::Lower, 0.25);
        assert_eq!(verdict(&setup, &base, &noisy), Verdict::Ok);
        assert_eq!(verdict(&lat, &base, &[]), Verdict::Unresolved);
    }

    #[test]
    fn result_lines_list_exactly_the_defined_metrics() {
        let run = RunResult {
            workload: "w".into(),
            seed: 1,
            trace: false,
            labels: vec![],
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "latency_p50_us".into(),
                    value: 12.5,
                    unit: "us".into(),
                },
                Metric {
                    name: "extra".into(),
                    value: 1.0,
                    unit: "count".into(),
                },
            ],
        };
        let line = result_line(&run, &[def("latency_p50_us", Better::Lower, 0.1)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_us\": {\"value\": 12.5, \"unit\": \"us\"}}}"
        );
        assert!(result_line(&run, &[def("missing", Better::Lower, 0.1)]).is_err());
    }
}
