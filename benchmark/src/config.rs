//! The benchmark's two input files: `BENCHMARK.json` (workload names, metric
//! definitions and bounds) and `benchmark/workloads.json` (every workload
//! parameter). Both are parsed strictly: an unknown field is an error, so a
//! typo can never silently fall back to a default.

use serde::Value;
use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Allowed worsening as a share of the baseline median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself uses.
#[derive(Debug, Clone, PartialEq)]
pub struct Benchmark {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// How requests arrive at the daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// At most `window` requests in flight; the next is sent when one returns.
    Closed { window: usize },
    /// One request every `1/rate` seconds, whether or not earlier ones returned.
    Open { rate: f64 },
}

/// One workload's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub arrival: Arrival,
    /// Resident tenants, each a `BT(switches)` instance at budget `budget`.
    pub tenants: u64,
    pub switches: u32,
    pub budget: u32,
    /// Target churn events per batch (the churn model emits about this many).
    pub events_per_batch: usize,
    /// Batches in each tenant's cycle-safe ring, replayed until time is up.
    pub ring: usize,
    /// Each round is a churn batch followed by a solve of the same tenant.
    pub solve: bool,
    /// Run the daemon with a write-ahead log (`--state-dir`).
    pub durable: bool,
    /// Rounds of the workload's own inputs fed through the layer replay.
    pub replay: usize,
}

type Fields = [(String, Value)];

fn object<'a>(v: &'a Value, what: &str, allowed: &[&str]) -> Result<&'a Fields, String> {
    let fields = v
        .as_object()
        .ok_or_else(|| format!("{what}: expected an object"))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("{what}: unknown field `{key}`"));
        }
    }
    Ok(fields)
}

fn field<'a>(fields: &'a Fields, what: &str, key: &str) -> Result<&'a Value, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{what}: missing field `{key}`"))
}

fn has(fields: &Fields, key: &str) -> bool {
    fields.iter().any(|(k, _)| k == key)
}

fn string(fields: &Fields, what: &str, key: &str) -> Result<String, String> {
    field(fields, what, key)?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("{what}: `{key}` must be a string"))
}

fn uint(fields: &Fields, what: &str, key: &str) -> Result<u64, String> {
    match field(fields, what, key)? {
        Value::UInt(u) => Ok(*u),
        _ => Err(format!("{what}: `{key}` must be a non-negative integer")),
    }
}

fn positive(fields: &Fields, what: &str, key: &str) -> Result<u64, String> {
    match uint(fields, what, key)? {
        0 => Err(format!("{what}: `{key}` must be at least 1")),
        n => Ok(n),
    }
}

fn number(fields: &Fields, what: &str, key: &str) -> Result<f64, String> {
    match field(fields, what, key)? {
        Value::UInt(u) => Ok(*u as f64),
        Value::Float(f) if f.is_finite() => Ok(*f),
        _ => Err(format!("{what}: `{key}` must be a finite number")),
    }
}

fn boolean(fields: &Fields, what: &str, key: &str) -> Result<bool, String> {
    match field(fields, what, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("{what}: `{key}` must be true or false")),
    }
}

fn array<'a>(fields: &'a Fields, what: &str, key: &str) -> Result<&'a [Value], String> {
    match field(fields, what, key)? {
        Value::Arr(items) => Ok(items),
        _ => Err(format!("{what}: `{key}` must be an array")),
    }
}

fn metric_defs(items: &[Value], what: &str, with_bound: bool) -> Result<Vec<MetricDef>, String> {
    let allowed: &[&str] = if with_bound {
        &["name", "unit", "better", "bound"]
    } else {
        &["name", "unit", "better"]
    };
    items
        .iter()
        .map(|item| {
            let fields = object(item, what, allowed)?;
            let name = string(fields, what, "name")?;
            let what = format!("{what} `{name}`");
            let better = match string(fields, &what, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("{what}: `better` is `{other}`")),
            };
            let bound = if with_bound {
                Some(number(fields, &what, "bound")?)
            } else {
                None
            };
            Ok(MetricDef {
                unit: string(fields, &what, "unit")?,
                name,
                better,
                bound,
            })
        })
        .collect()
}

/// Parses `BENCHMARK.json`.
pub fn parse_benchmark(text: &str) -> Result<Benchmark, String> {
    let root = serde_json::parse_value(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let what = "BENCHMARK.json";
    let fields = object(
        &root,
        what,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    )?;
    let workloads = array(fields, what, "workloads")?
        .iter()
        .map(|w| {
            string(
                object(w, "BENCHMARK.json workload", &["name", "why"])?,
                what,
                "name",
            )
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Benchmark {
        run_seconds: positive(fields, what, "run_seconds")?,
        workloads,
        end_to_end: metric_defs(
            array(fields, what, "end_to_end")?,
            "end_to_end metric",
            true,
        )?,
        per_layer: metric_defs(array(fields, what, "per_layer")?, "per_layer metric", false)?,
    })
}

const WORKLOAD_FIELDS: &[&str] = &[
    "loop",
    "window",
    "rate",
    "tenants",
    "switches",
    "budget",
    "events_per_batch",
    "ring",
    "solve",
    "durable",
    "replay",
];

fn parse_workload(name: &str, v: &Value) -> Result<Workload, String> {
    let what = format!("workload `{name}`");
    let fields = object(v, &what, WORKLOAD_FIELDS)?;
    let arrival = match string(fields, &what, "loop")?.as_str() {
        "closed" if !has(fields, "rate") => Arrival::Closed {
            window: positive(fields, &what, "window")? as usize,
        },
        "open" if !has(fields, "window") => {
            let rate = number(fields, &what, "rate")?;
            if rate <= 0.0 {
                return Err(format!("{what}: `rate` must be positive"));
            }
            Arrival::Open { rate }
        }
        "closed" | "open" => {
            return Err(format!(
                "{what}: a closed loop takes `window`, an open loop takes `rate`"
            ))
        }
        other => return Err(format!("{what}: `loop` is `{other}`")),
    };
    let switches = positive(fields, &what, "switches")?;
    if !(2..=u64::from(u32::MAX)).contains(&switches) {
        return Err(format!("{what}: `switches` must be at least 2"));
    }
    Ok(Workload {
        name: name.to_owned(),
        arrival,
        tenants: positive(fields, &what, "tenants")?,
        switches: switches as u32,
        budget: u32::try_from(uint(fields, &what, "budget")?)
            .map_err(|_| format!("{what}: `budget` is too large"))?,
        events_per_batch: positive(fields, &what, "events_per_batch")? as usize,
        ring: positive(fields, &what, "ring")? as usize,
        solve: boolean(fields, &what, "solve")?,
        durable: boolean(fields, &what, "durable")?,
        replay: positive(fields, &what, "replay")? as usize,
    })
}

/// Parses `benchmark/workloads.json` and checks that it defines exactly the
/// workloads `BENCHMARK.json` names; returns them in `BENCHMARK.json` order.
pub fn parse_workloads(bench: &Benchmark, text: &str) -> Result<Vec<Workload>, String> {
    let root = serde_json::parse_value(text).map_err(|e| format!("workloads.json: {e}"))?;
    let entries = root
        .as_object()
        .ok_or("workloads.json: expected an object keyed by workload name")?;
    for (name, _) in entries {
        if !bench.workloads.contains(name) {
            return Err(format!(
                "workloads.json: workload `{name}` is not in BENCHMARK.json"
            ));
        }
    }
    bench
        .workloads
        .iter()
        .map(|name| {
            let v = root
                .get(name)
                .ok_or_else(|| format!("workloads.json: no parameters for `{name}`"))?;
            parse_workload(name, v)
        })
        .collect()
}

/// Reads both files relative to the repository root `root`.
pub fn load(root: &Path) -> Result<(Benchmark, Vec<Workload>), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
    };
    let bench = parse_benchmark(&read("BENCHMARK.json")?)?;
    let workloads = parse_workloads(&bench, &read("benchmark/workloads.json")?)?;
    Ok((bench, workloads))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const WORKLOADS: &str = include_str!("../workloads.json");

    #[test]
    fn the_committed_workload_table_parses() {
        let bench = parse_benchmark(BENCHMARK).unwrap();
        let workloads = parse_workloads(&bench, WORKLOADS).unwrap();
        let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            ["churn-small", "churn-bulk", "solve-mix", "durable-open"]
        );
        assert!(bench
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(bench.end_to_end.iter().all(|m| m.bound.is_some()));
        let open = workloads.iter().find(|w| w.name == "durable-open").unwrap();
        assert!(matches!(open.arrival, Arrival::Open { .. }) && open.durable);
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let bench = parse_benchmark(BENCHMARK).unwrap();
        let typo = WORKLOADS.replacen("\"ring\"", "\"rings\"", 1);
        let err = parse_workloads(&bench, &typo).unwrap_err();
        assert!(err.contains("unknown field `rings`"), "{err}");

        let extra = BENCHMARK.replacen("\"run_seconds\"", "\"seconds\": 1, \"run_seconds\"", 1);
        let err = parse_benchmark(&extra).unwrap_err();
        assert!(err.contains("unknown field `seconds`"), "{err}");
    }

    #[test]
    fn the_two_files_must_name_the_same_workloads() {
        let bench = parse_benchmark(BENCHMARK).unwrap();
        let renamed = WORKLOADS.replacen("\"solve-mix\"", "\"solve-max\"", 1);
        assert!(parse_workloads(&bench, &renamed).is_err());
        let closed_with_rate = r#"{"churn-small": {"loop": "closed", "window": 2, "rate": 5,
            "tenants": 1, "switches": 8, "budget": 1, "events_per_batch": 1, "ring": 1,
            "solve": false, "durable": false, "replay": 1}}"#;
        let one = Benchmark {
            workloads: vec!["churn-small".into()],
            ..bench
        };
        assert!(parse_workloads(&one, closed_with_rate).is_err());
    }
}
