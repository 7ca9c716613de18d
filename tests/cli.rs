//! Integration tests for the `soar` CLI: subcommand parsing, exit codes, JSON
//! round-trips through temp files, and golden checking of self-generated
//! artifacts.

use soar::core::api::{Instance, SolveReport, TopologySpec};
use soar::exp::RunArtifact;
use soar::topology::load::LoadSpec;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn soar_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_soar"))
}

fn run(args: &[&str]) -> Output {
    soar_bin().args(args).output().expect("spawning soar")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// A scratch directory, removed on drop so test reruns stay clean.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("soar-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("creating temp dir");
        TempDir(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn path_str(&self, name: &str) -> String {
        self.path(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_instance(path: &Path, budget: usize) -> Instance {
    let instance = Instance::builder()
        .topology(TopologySpec::CompleteKary {
            arity: 2,
            n_switches: 7,
        })
        .leaf_loads(LoadSpec::Explicit(vec![2, 6, 5, 4]))
        .budget(budget)
        .label("cli-fig2")
        .build()
        .unwrap();
    let json = serde_json::to_string_pretty(&instance).unwrap();
    std::fs::write(path, json).expect("writing instance JSON");
    instance
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &[][..],
        &["frobnicate"][..],
        &["solve"][..],
        &["sweep", "--in", "x.json"][..],
        &["experiment"][..],
        &["experiment", "run"][..],
        &["experiment", "check"][..],
        &["solve", "--unknown-flag"][..],
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected usage exit, stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn operational_failures_exit_1() {
    let tmp = TempDir::new("fail");
    let garbage = tmp.path_str("garbage.json");
    std::fs::write(tmp.path("garbage.json"), "this is not json").unwrap();
    for args in [
        &["solve", "--in", "/nonexistent-instance.json"][..],
        &["solve", "--in", &garbage][..],
        &["experiment", "run", "no-such-experiment"][..],
        &[
            "experiment",
            "check",
            "/nonexistent-a.json",
            "--golden",
            "/nonexistent-b.json",
        ][..],
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(1),
            "args {args:?}: expected failure exit, stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn help_flags_exit_0() {
    for args in [
        &["--help"][..],
        &["solve", "--help"][..],
        &["sweep", "-h"][..],
        &["compare", "-h"][..],
        &["experiment", "--help"][..],
        &["experiment", "run", "--help"][..],
    ] {
        let output = run(args);
        assert_eq!(output.status.code(), Some(0), "args {args:?}");
    }
}

#[test]
fn solve_round_trips_a_report_through_a_tempfile() {
    let tmp = TempDir::new("solve");
    let instance_path = tmp.path_str("instance.json");
    write_instance(&tmp.path("instance.json"), 2);
    let report_path = tmp.path_str("report.json");

    let output = run(&["solve", "--in", &instance_path, "--out", &report_path]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(stdout(&output).contains("soar"));

    let report: SolveReport =
        serde_json::from_str(&std::fs::read_to_string(&report_path).unwrap()).unwrap();
    assert_eq!(report.solver, "soar");
    assert_eq!(report.instance, "cli-fig2");
    assert_eq!(report.solution.cost, 20.0);
    assert!(report.dp.is_some());

    // A non-SOAR solver works and reports a (weakly) worse cost.
    let output = run(&["solve", "--in", &instance_path, "--solver", "top"]);
    assert_eq!(output.status.code(), Some(0));
    // An unregistered solver is an operational failure.
    let output = run(&["solve", "--in", &instance_path, "--solver", "nonsense"]);
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn sweep_writes_a_self_checking_artifact() {
    let tmp = TempDir::new("sweep");
    let instance_path = tmp.path_str("instance.json");
    write_instance(&tmp.path("instance.json"), 4);
    let artifact_path = tmp.path_str("sweep.json");

    let output = run(&[
        "sweep",
        "--in",
        &instance_path,
        "--budgets",
        "0,1,2,3,4",
        "--out",
        &artifact_path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    let artifact =
        RunArtifact::from_json(&std::fs::read_to_string(&artifact_path).unwrap()).unwrap();
    assert_eq!(artifact.spec.name, "adhoc-sweep");
    assert_eq!(artifact.reports.len(), 5);
    let curve = &artifact.charts[0].series[0];
    assert_eq!(curve.y_at(0.0), Some(51.0));
    assert_eq!(curve.y_at(2.0), Some(20.0));
    assert_eq!(curve.y_at(4.0), Some(11.0));

    // The sweep artifact checks against itself.
    let output = run(&[
        "experiment",
        "check",
        &artifact_path,
        "--golden",
        &artifact_path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
}

#[test]
fn compare_reports_all_requested_solvers() {
    let tmp = TempDir::new("compare");
    let instance_path = tmp.path_str("instance.json");
    write_instance(&tmp.path("instance.json"), 2);
    let artifact_path = tmp.path_str("compare.json");

    let output = run(&[
        "compare",
        "--in",
        &instance_path,
        "--solvers",
        "soar,top,level",
        "--out",
        &artifact_path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let artifact =
        RunArtifact::from_json(&std::fs::read_to_string(&artifact_path).unwrap()).unwrap();
    assert_eq!(artifact.reports.len(), 3);
    let chart = &artifact.charts[0];
    assert_eq!(chart.series.len(), 3);
    let soar = chart.series.iter().find(|s| s.label == "SOAR").unwrap();
    let level = chart.series.iter().find(|s| s.label == "Level").unwrap();
    assert_eq!(soar.y_at(2.0), Some(20.0));
    assert_eq!(level.y_at(2.0), Some(21.0));
}

#[test]
fn experiment_run_and_check_pass_on_a_self_generated_golden() {
    let tmp = TempDir::new("exp");
    let dir_a = tmp.path_str("a");
    let dir_b = tmp.path_str("b");

    for dir in [&dir_a, &dir_b] {
        let output = run(&["experiment", "run", "fig3", "--out-dir", dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    }
    let a = format!("{dir_a}/fig3.json");
    let b = format!("{dir_b}/fig3.json");

    // Cost-based experiments are byte-identical run to run...
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap(),
        "fig3 artifacts are deterministic"
    );
    // ...and a fresh run checks cleanly against the self-generated golden.
    let output = run(&["experiment", "check", &a, "--golden", &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // A perturbed artifact fails the check with exit 1.
    let tampered = std::fs::read_to_string(&a).unwrap().replace("51.0", "50.0");
    assert_ne!(tampered, std::fs::read_to_string(&a).unwrap());
    std::fs::write(tmp.path("tampered.json"), tampered).unwrap();
    let tampered_path = tmp.path_str("tampered.json");
    let output = run(&["experiment", "check", &tampered_path, "--golden", &b]);
    assert_eq!(output.status.code(), Some(1));
    assert!(stderr(&output).contains("deviates"), "{}", stderr(&output));
}

/// `--reps` reaches registry specs that average over repetitions, but leaves
/// single-shot specs at 1 so their stored spec keeps matching its golden.
#[test]
fn reps_override_skips_single_shot_registry_specs() {
    let tmp = TempDir::new("reps");
    let dir = tmp.path_str("out");
    for (name, reps, stored) in [("fig2", "7", 1), ("fabric", "2", 2)] {
        let output = run(&["experiment", "run", name, "--reps", reps, "--out-dir", &dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
        let json = std::fs::read_to_string(format!("{dir}/{name}.json")).unwrap();
        let artifact = RunArtifact::from_json(&json).unwrap();
        assert_eq!(artifact.spec.repetitions, stored, "{name} --reps {reps}");
    }
}

#[test]
fn fresh_runs_match_the_committed_goldens() {
    let tmp = TempDir::new("golden");
    let dir = tmp.path_str("out");
    let goldens = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/exp/goldens");
    for (name, golden_file) in [
        ("fig3", "fig3.quick.json"),
        ("fig9-smoke", "fig9-smoke.quick.json"),
        ("dynamic-churn", "dynamic-churn.quick.json"),
        ("fabric", "fabric.quick.json"),
        ("fabric-sweep", "fabric-sweep.quick.json"),
    ] {
        let output = run(&["experiment", "run", name, "--out-dir", &dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
        let fresh = format!("{dir}/{name}.json");
        let golden = goldens.join(golden_file).to_string_lossy().into_owned();
        let output = run(&["experiment", "check", &fresh, "--golden", &golden]);
        assert_eq!(
            output.status.code(),
            Some(0),
            "{name} deviates from its committed golden: {}",
            stderr(&output)
        );
    }
}

#[test]
fn experiment_list_names_every_registry_entry() {
    let output = run(&["experiment", "list"]);
    assert_eq!(output.status.code(), Some(0));
    let text = stdout(&output);
    for name in soar::exp::registry::NAMES {
        assert!(text.contains(name), "missing {name} in list output");
    }
}

/// A minimal, valid user-authored spec document (exists only on disk, never in
/// the registry): a budget curve over a BT(32) with uniform leaf loads.
fn user_spec_json(name: &str, budgets: &str) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "title": "user-authored budget curve",
  "version": 1,
  "repetitions": 1,
  "base_seed": 0,
  "kind": {{
    "BudgetCurve": {{
      "title": "user curve",
      "scenario": {{
        "topology": {{ "CompleteBinaryBt": {{ "n": 32 }} }},
        "load": {{ "Uniform": {{ "min": 4, "max": 6 }} }},
        "placement": "Leaves",
        "rates": {{ "Constant": 1.0 }},
        "seed": 3
      }},
      "budgets": [{budgets}],
      "series_label": "SOAR"
    }}
  }}
}}
"#
    )
}

#[test]
fn instance_output_feeds_solve_and_sweep_unmodified() {
    let tmp = TempDir::new("instance");
    let path = tmp.path_str("minted.json");
    let output = run(&[
        "instance",
        "--topology",
        "bt",
        "--switches",
        "64",
        "--load",
        "power-law",
        "--rates",
        "linear",
        "--seed",
        "7",
        "--budget",
        "4",
        "--out",
        &path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // The minted JSON is a regular Instance document...
    let instance: Instance =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(instance.n_switches(), 63);
    assert_eq!(instance.budget(), 4);

    // ...and feeds solve and sweep unmodified.
    let output = run(&["solve", "--in", &path]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(stdout(&output).contains("soar"));
    let output = run(&["sweep", "--in", &path, "--budgets", "1,2,4"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // Without --out the document goes to stdout and is the same instance.
    let output = run(&[
        "instance",
        "--topology",
        "bt",
        "--switches",
        "64",
        "--load",
        "power-law",
        "--rates",
        "linear",
        "--seed",
        "7",
        "--budget",
        "4",
    ]);
    assert_eq!(output.status.code(), Some(0));
    let stdout_instance: Instance = serde_json::from_str(&stdout(&output)).unwrap();
    assert_eq!(stdout_instance, instance);

    // Other families work too (explicit loads on a fat-tree, all-switch placement).
    let output = run(&[
        "instance",
        "--topology",
        "fat-tree",
        "--aggs",
        "2",
        "--tors-per-agg",
        "3",
        "--load",
        "constant:2",
        "--placement",
        "all",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let fat: Instance = serde_json::from_str(&stdout(&output)).unwrap();
    assert_eq!(fat.n_switches(), 9, "core + 2 aggs + 6 ToRs");
}

#[test]
fn instance_usage_errors_exit_2() {
    for args in [
        &["instance"][..],
        &["instance", "--topology", "nope", "--switches", "4"][..],
        &["instance", "--topology", "bt"][..],
        &["instance", "--topology", "bt", "--switches", "1"][..],
        &["instance", "--topology", "fat-tree", "--aggs", "2"][..],
        &[
            "instance",
            "--topology",
            "bt",
            "--switches",
            "8",
            "--load",
            "zipf",
        ][..],
        &[
            "instance",
            "--topology",
            "bt",
            "--switches",
            "8",
            "--load",
            "uniform:9,2",
        ][..],
        &[
            "instance",
            "--topology",
            "bt",
            "--switches",
            "8",
            "--rates",
            "quadratic",
        ][..],
        &[
            "instance",
            "--topology",
            "bt",
            "--switches",
            "8",
            "--placement",
            "roots",
        ][..],
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected usage exit, stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn user_spec_files_run_and_check_like_registry_specs() {
    let tmp = TempDir::new("user-spec");
    let spec_path = tmp.path_str("my-curve.json");
    std::fs::write(
        tmp.path("my-curve.json"),
        user_spec_json("my-curve", "0, 1, 2, 4"),
    )
    .unwrap();

    let dir_a = tmp.path_str("a");
    let dir_b = tmp.path_str("b");
    for dir in [&dir_a, &dir_b] {
        let output = run(&["experiment", "run", &spec_path, "--out-dir", dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    }
    // The artifact file is named after the spec, not the file path...
    let a = format!("{dir_a}/my-curve.json");
    let b = format!("{dir_b}/my-curve.json");
    // ...is deterministic...
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    // ...embeds the user spec...
    let artifact = RunArtifact::from_json(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(artifact.spec.name, "my-curve");
    // ...and checks symmetrically against a self-generated golden.
    let output = run(&["experiment", "check", &a, "--golden", &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // --reps is honored for user spec files even when the file says 1 (the
    // registry-only single-shot guard does not apply to explicit requests).
    let dir_c = tmp.path_str("c");
    let output = run(&[
        "experiment",
        "run",
        &spec_path,
        "--reps",
        "2",
        "--out-dir",
        &dir_c,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let c =
        RunArtifact::from_json(&std::fs::read_to_string(format!("{dir_c}/my-curve.json")).unwrap())
            .unwrap();
    assert_eq!(c.spec.repetitions, 2);

    // --reps 0 is a usage error, not a silently clamped run.
    let output = run(&["experiment", "run", &spec_path, "--reps", "0"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
}

#[test]
fn malformed_spec_files_are_rejected_with_exit_2() {
    let tmp = TempDir::new("rejects");
    // (file name, document, expected error fragment)
    let corpus: [(&str, String, &str); 7] = [
        (
            "empty-budgets.json",
            user_spec_json("x", ""),
            "budget grid is empty",
        ),
        (
            "negative-reps.json",
            user_spec_json("x", "1").replace(r#""repetitions": 1"#, r#""repetitions": -3"#),
            "not an ExperimentSpec document",
        ),
        (
            "zero-reps.json",
            user_spec_json("x", "1").replace(r#""repetitions": 1"#, r#""repetitions": 0"#),
            "repetitions must be at least 1",
        ),
        (
            "version-mismatch.json",
            user_spec_json("x", "1").replace(r#""version": 1"#, r#""version": 99"#),
            "version 99",
        ),
        (
            "not-a-spec.json",
            "{\"hello\": \"world\"}".to_owned(),
            "not an ExperimentSpec document",
        ),
        (
            "empty-uniform.json",
            user_spec_json("x", "1").replace(
                r#""load": { "Uniform": { "min": 4, "max": 6 } }"#,
                r#""load": { "Uniform": { "min": 6, "max": 4 } }"#,
            ),
            "uniform load needs min <= max",
        ),
        (
            "path-name.json",
            user_spec_json("x", "1").replace(r#""name": "x""#, r#""name": "../evil""#),
            "path separators",
        ),
    ];
    for (file, contents, expected) in &corpus {
        std::fs::write(tmp.path(file), contents).unwrap();
        let path = tmp.path_str(file);
        let output = run(&["experiment", "run", &path]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{file}: expected exit 2, stderr: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(expected),
            "{file}: missing `{expected}` in: {}",
            stderr(&output)
        );
    }

    // A spec naming an unregistered solver (a SolverComparison, which carries a
    // solver list) is caught by validation, with the registry in the message.
    let unknown_solver = r#"{
  "name": "bad-solver",
  "title": "unknown solver",
  "version": 1,
  "repetitions": 1,
  "base_seed": 0,
  "kind": {
    "SolverComparison": {
      "title": "t",
      "scenario": {
        "topology": { "CompleteBinaryBt": { "n": 32 } },
        "load": { "Uniform": { "min": 4, "max": 6 } },
        "placement": "Leaves",
        "rates": { "Constant": 1.0 },
        "seed": 3
      },
      "budget": 2,
      "solvers": ["soar", "frobnicate"],
      "include_all_red": false
    }
  }
}"#;
    std::fs::write(tmp.path("unknown-solver.json"), unknown_solver).unwrap();
    let path = tmp.path_str("unknown-solver.json");
    let output = run(&["experiment", "run", &path]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("unknown solver `frobnicate`"),
        "{}",
        stderr(&output)
    );

    // A *missing* spec file stays an operational failure (exit 1), like every
    // other missing input file.
    let output = run(&["experiment", "run", "/does/not/exist.json"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
}

#[test]
fn history_reports_and_gates_artifact_series() {
    let tmp = TempDir::new("history");
    let spec_path = tmp.path_str("curve.json");
    std::fs::write(tmp.path("curve.json"), user_spec_json("curve", "0, 1, 2")).unwrap();
    let dir_a = tmp.path_str("a");
    let dir_b = tmp.path_str("b");
    for dir in [&dir_a, &dir_b] {
        let output = run(&["experiment", "run", &spec_path, "--out-dir", dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    }
    let a = format!("{dir_a}/curve.json");
    let b = format!("{dir_b}/curve.json");

    // The trajectory report aligns the series and prints deltas.
    let output = run(&["history", "report", &a, &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("history of `curve` over 2 run(s)"), "{text}");
    assert!(text.contains("best so far"), "{text}");

    // An identical artifact passes the regression gate...
    let output = run(&["history", "check", &b, "--baseline", &a]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // ...an injected cost regression fails it with exit 1 (costs are exact)...
    let artifact = std::fs::read_to_string(&a).unwrap();
    let mut parsed = RunArtifact::from_json(&artifact).unwrap();
    parsed.charts[0].series[0].points[1].1 += 1.0;
    std::fs::write(tmp.path("regressed.json"), parsed.to_json()).unwrap();
    let regressed = tmp.path_str("regressed.json");
    let output = run(&["history", "check", &regressed, "--baseline", &a]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("exact metric increased"),
        "{}",
        stderr(&output)
    );

    // ...an improvement passes...
    let mut improved = RunArtifact::from_json(&artifact).unwrap();
    improved.charts[0].series[0].points[1].1 -= 1.0;
    std::fs::write(tmp.path("improved.json"), improved.to_json()).unwrap();
    let improved_path = tmp.path_str("improved.json");
    let output = run(&["history", "check", &improved_path, "--baseline", &a]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(
        stdout(&output).contains("1 improved"),
        "{}",
        stdout(&output)
    );

    // ...and misaligned histories (renamed series) are operational failures.
    let mut renamed = RunArtifact::from_json(&artifact).unwrap();
    renamed.charts[0].series[0].label = "renamed".into();
    std::fs::write(tmp.path("renamed.json"), renamed.to_json()).unwrap();
    let renamed_path = tmp.path_str("renamed.json");
    let output = run(&["history", "report", &a, &renamed_path]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("do not align"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn history_check_gates_timing_metrics_relatively() {
    let tmp = TempDir::new("history-timing");
    // gather-bench at a tiny size: chart 0 is a timing chart, charts 1-2 exact.
    let spec = r#"{
  "name": "tiny-bench",
  "title": "tiny gather microbench",
  "version": 1,
  "repetitions": 1,
  "base_seed": 0,
  "kind": { "GatherMicrobench": { "sizes": [64], "budget": 4 } }
}"#;
    std::fs::write(tmp.path("bench.json"), spec).unwrap();
    let spec_path = tmp.path_str("bench.json");
    let dir = tmp.path_str("out");
    let output = run(&["experiment", "run", &spec_path, "--out-dir", &dir]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let artifact_path = format!("{dir}/tiny-bench.json");
    let artifact = std::fs::read_to_string(&artifact_path).unwrap();

    // A 10x wall-time slowdown fails the default 25 % headroom...
    let mut slow = RunArtifact::from_json(&artifact).unwrap();
    assert_eq!(slow.timing_charts, vec![0]);
    for series in &mut slow.charts[0].series {
        for point in &mut series.points {
            point.1 *= 10.0;
        }
    }
    std::fs::write(tmp.path("slow.json"), slow.to_json()).unwrap();
    let slow_path = tmp.path_str("slow.json");
    let output = run(&["history", "check", &slow_path, "--baseline", &artifact_path]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));

    // ...but passes when the caller grants 10x headroom (1000 %).
    let output = run(&[
        "history",
        "check",
        &slow_path,
        "--baseline",
        &artifact_path,
        "--max-regress",
        "1000%",
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));

    // Bad tolerances are usage errors — including a forgotten percent sign,
    // which would otherwise mean a 2500 % headroom.
    for bad in ["lots", "25", "-1"] {
        let output = run(&[
            "history",
            "check",
            &slow_path,
            "--baseline",
            &artifact_path,
            "--max-regress",
            bad,
        ]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "--max-regress {bad}: {}",
            stderr(&output)
        );
    }
}

#[test]
fn online_run_writes_a_replayable_artifact() {
    let tmp = TempDir::new("online");
    let artifact_path = tmp.path_str("churn.json");
    let output = run(&[
        "online",
        "run",
        "--switches",
        "64",
        "--budget",
        "6",
        "--epochs",
        "5",
        "--seed",
        "9",
        "--out",
        &artifact_path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("cost over time"), "{text}");
    assert!(text.contains("DP cell writes"), "{text}");

    let artifact =
        RunArtifact::from_json(&std::fs::read_to_string(&artifact_path).unwrap()).unwrap();
    assert_eq!(artifact.spec.name, "online-run");
    assert_eq!(artifact.charts.len(), 3);
    // Incremental epochs write fewer cells than a from-scratch solve.
    let cells = &artifact.charts[2];
    let incremental = &cells.series[0];
    let full = &cells.series[1];
    for idx in 1..incremental.points.len() {
        assert!(
            incremental.points[idx].1 < full.points[idx].1,
            "epoch {idx}"
        );
    }

    // The replay gate reproduces the stored trajectory (the determinism gate
    // of the online-smoke CI job).
    let output = run(&["online", "replay", &artifact_path]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(
        stdout(&output).contains("OK: replay"),
        "{}",
        stdout(&output)
    );

    // A tampered trajectory fails the replay with exit 1.
    let mut tampered = artifact.clone();
    tampered.charts[0].series[0].points[1].1 += 1.0;
    std::fs::write(tmp.path("tampered.json"), tampered.to_json()).unwrap();
    let tampered_path = tmp.path_str("tampered.json");
    let output = run(&["online", "replay", &tampered_path]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(stderr(&output).contains("deviates"), "{}", stderr(&output));

    // Replaying a non-churn artifact is rejected as invalid input (exit 2).
    let dir = tmp.path_str("fig3");
    let output = run(&["experiment", "run", "fig3", "--out-dir", &dir]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let fig3 = format!("{dir}/fig3.json");
    let output = run(&["online", "replay", &fig3]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
}

#[test]
fn online_usage_errors_exit_2() {
    for args in [
        &["online"][..],
        &["online", "frobnicate"][..],
        &["online", "run", "--switches", "1"][..],
        &["online", "run", "--epochs", "0"][..],
        &["online", "run", "--reps", "0"][..],
        &["online", "run", "--lifetime", "0.5"][..],
        &["online", "run", "--tenant-leaves", "0"][..],
        &["online", "replay"][..],
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected usage exit, stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn history_report_dir_renders_long_horizon_trajectories() {
    let tmp = TempDir::new("history-dir");
    // Two nightly-style subdirectories (date-sorted), each holding the same
    // two specs, plus a RUN_STAMP.json that must be skipped, plus one loose
    // artifact at the top level.
    let spec_path = tmp.path_str("curve.json");
    std::fs::write(tmp.path("curve.json"), user_spec_json("curve", "0, 1, 2")).unwrap();
    let nightly = tmp.path_str("nightly");
    for night in ["2026-07-26", "2026-07-27"] {
        let dir = format!("{nightly}/{night}");
        for spec in [&spec_path, &"fig3".to_owned()] {
            let output = run(&["experiment", "run", spec, "--out-dir", &dir]);
            assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
        }
        std::fs::write(format!("{dir}/RUN_STAMP.json"), r#"{"commit": "abc"}"#).unwrap();
    }

    let output = run(&["history", "report", "--dir", &nightly]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("history of `curve` over 2 run(s)"), "{text}");
    assert!(text.contains("history of `fig3` over 2 run(s)"), "{text}");
    assert!(text.contains("2026-07-26"), "oldest first: {text}");
    assert!(
        stderr(&output).contains("skipping non-artifact JSON"),
        "{}",
        stderr(&output)
    );

    // --spec restricts the report to one trajectory.
    let output = run(&["history", "report", "--dir", &nightly, "--spec", "fig3"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("history of `fig3`"), "{text}");
    assert!(!text.contains("history of `curve`"), "{text}");

    // One misaligned spec (a renamed series mid-history) is skipped with a
    // note; every other spec's trajectory still renders.
    let curve_b = format!("{nightly}/2026-07-27/curve.json");
    let mut renamed = RunArtifact::from_json(&std::fs::read_to_string(&curve_b).unwrap()).unwrap();
    renamed.charts[0].series[0].label = "renamed".into();
    std::fs::write(&curve_b, renamed.to_json()).unwrap();
    let output = run(&["history", "report", "--dir", &nightly]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(!text.contains("history of `curve`"), "{text}");
    assert!(text.contains("history of `fig3` over 2 run(s)"), "{text}");
    assert!(
        stderr(&output).contains("skipping `curve`"),
        "{}",
        stderr(&output)
    );
    // ...but when *nothing* aligns, the report is an operational failure.
    let output = run(&["history", "report", "--dir", &nightly, "--spec", "curve"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("aligned into a trajectory"),
        "{}",
        stderr(&output)
    );

    // An unknown spec filter / an empty directory are operational failures.
    let output = run(&["history", "report", "--dir", &nightly, "--spec", "nope"]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));
    let empty = tmp.path_str("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let output = run(&["history", "report", "--dir", &empty]);
    assert_eq!(output.status.code(), Some(1), "{}", stderr(&output));

    // Mixing --dir with explicit paths, or --spec without --dir, is a usage error.
    let output = run(&["history", "report", "--dir", &nightly, "extra.json"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    let output = run(&["history", "report", "--spec", "fig3", "a.json"]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
}

/// A user-authored fabric-solve spec document; knobs cover the rejection corpus.
fn fabric_spec_json(name: &str, cores: usize, bound: usize, solvers: &str) -> String {
    format!(
        r#"{{
  "name": "{name}",
  "title": "user fabric solve",
  "version": 1,
  "repetitions": 1,
  "base_seed": 0,
  "kind": {{
    "FabricSolve": {{
      "title": "user fabric",
      "fabric": {{
        "topology": {{ "MultiCoreFatTree": {{ "cores": {cores}, "pods": 3, "aggs_per_pod": 2, "tors_per_agg": 2 }} }},
        "load": {{ "Uniform": {{ "min": 4, "max": 6 }} }},
        "rates": {{ "Constant": 1.0 }},
        "seed": 7,
        "budget": 4,
        "congestion_bound": {bound},
        "congestion_weight": 0.5
      }},
      "solvers": [{solvers}],
      "seed_stride": 59
    }}
  }}
}}
"#
    )
}

#[test]
fn malformed_fabric_spec_files_are_rejected_with_exit_2() {
    let tmp = TempDir::new("fabric-rejects");
    let corpus = [
        (
            "zero-cores.json",
            fabric_spec_json("x", 0, 2, r#""fabric-soar""#),
            "at least one core switch",
        ),
        (
            "zero-bound.json",
            fabric_spec_json("x", 2, 0, r#""fabric-soar""#),
            "congestion bound must be at least 1",
        ),
        (
            "unknown-solver.json",
            fabric_spec_json("x", 2, 2, r#""frobnicate""#),
            "unknown fabric solver `frobnicate`",
        ),
        (
            "no-solvers.json",
            fabric_spec_json("x", 2, 2, ""),
            "solver list is empty",
        ),
        (
            // The exhaustive oracle at paper scale: 74 switches at budget 16
            // overflows the subset guard, so validation rejects it up front.
            "oracle-at-scale.json",
            fabric_spec_json("x", 2, 2, r#""fabric-soar", "fabric-brute""#)
                .replace(r#""pods": 3"#, r#""pods": 12"#)
                .replace(r#""budget": 4"#, r#""budget": 16"#),
            "cannot enumerate",
        ),
        (
            "nan-gamma.json",
            fabric_spec_json("x", 2, 2, r#""fabric-soar""#).replace(
                r#""congestion_weight": 0.5"#,
                r#""congestion_weight": -1.0"#,
            ),
            "finite, non-negative",
        ),
    ];
    for (file, contents, expected) in &corpus {
        std::fs::write(tmp.path(file), contents).unwrap();
        let path = tmp.path_str(file);
        let output = run(&["experiment", "run", &path]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{file}: expected exit 2, stderr: {}",
            stderr(&output)
        );
        assert!(
            stderr(&output).contains(expected),
            "{file}: missing `{expected}` in: {}",
            stderr(&output)
        );
    }
}

#[test]
fn fabric_cli_rejections_exit_2() {
    for args in [
        &["fabric"][..],
        &["fabric", "frobnicate"][..],
        &["fabric", "solve", "--cores", "0"][..],
        &["fabric", "solve", "--gamma", "lots"][..],
        &["fabric", "solve", "--reps", "0"][..],
        // Topology families cannot be mixed, and forest-only flags need --roots.
        &["fabric", "solve", "--roots", "2", "--cores", "2"][..],
        &["fabric", "solve", "--tree-switches", "7"][..],
        // --bounds / --bound / --solvers belong to one mode each.
        &["fabric", "solve", "--bounds", "1,2"][..],
        &["fabric", "sweep", "--bounds", "1", "--bound", "1"][..],
        &[
            "fabric",
            "sweep",
            "--bounds",
            "1,2",
            "--solvers",
            "fabric-soar",
        ][..],
        &["fabric", "sweep"][..],
        // Grid and solver contents are validated like spec files.
        &["fabric", "sweep", "--bounds", "0,1"][..],
        &["fabric", "solve", "--solvers", "frobnicate"][..],
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "args {args:?}: expected exit 2, stderr: {}",
            stderr(&output)
        );
    }
}

#[test]
fn fabric_solve_and_sweep_write_history_compatible_artifacts() {
    let tmp = TempDir::new("fabric");
    let a = tmp.path_str("a.json");
    let b = tmp.path_str("b.json");
    for path in [&a, &b] {
        let output = run(&[
            "fabric",
            "solve",
            "--pods",
            "3",
            "--solvers",
            "fabric-soar,fabric-brute",
            "--seed",
            "5",
            "--out",
            path,
        ]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    }
    // Fabric runs are deterministic end to end...
    assert_eq!(
        std::fs::read_to_string(&a).unwrap(),
        std::fs::read_to_string(&b).unwrap()
    );
    let artifact = RunArtifact::from_json(&std::fs::read_to_string(&a).unwrap()).unwrap();
    assert_eq!(artifact.spec.name, "fabric-solve");
    assert_eq!(artifact.charts.len(), 2);
    assert!(artifact.timing_charts.is_empty(), "fabric kinds are exact");
    // ...and the decomposition solver matches the exhaustive oracle.
    let objective = &artifact.charts[0];
    let soar = objective
        .series
        .iter()
        .find(|s| s.label == "SOAR (fabric)")
        .unwrap();
    let oracle = objective
        .series
        .iter()
        .find(|s| s.label == "Fabric oracle")
        .unwrap();
    assert_eq!(soar.y_at(4.0), oracle.y_at(4.0));
    assert!(soar.y_at(4.0).unwrap() <= 1.0, "never worse than all-red");

    // The artifact flows through the standard golden check and history gates.
    let output = run(&["experiment", "check", &a, "--golden", &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let output = run(&["history", "report", &a, &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(
        stdout(&output).contains("history of `fabric-solve` over 2 run(s)"),
        "{}",
        stdout(&output)
    );

    // The sweep charts cost against the congestion bound; relaxing the bound
    // only helps.
    let sweep_path = tmp.path_str("sweep.json");
    let output = run(&[
        "fabric",
        "sweep",
        "--bounds",
        "1,2,3",
        "--pods",
        "3",
        "--budget",
        "5",
        "--out",
        &sweep_path,
    ]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    assert!(
        stdout(&output).contains("cost vs congestion bound"),
        "{}",
        stdout(&output)
    );
    let sweep = RunArtifact::from_json(&std::fs::read_to_string(&sweep_path).unwrap()).unwrap();
    assert_eq!(sweep.spec.name, "fabric-bound-sweep");
    let costs = &sweep.charts[0].series[0].points;
    assert_eq!(costs.len(), 3);
    for window in costs.windows(2) {
        assert!(window[1].1 <= window[0].1 + 1e-12, "{costs:?}");
    }
}

#[test]
fn spec_files_resolve_include_fragments() {
    let tmp = TempDir::new("include");
    std::fs::write(
        tmp.path("base.json"),
        user_spec_json("base-curve", "0, 1, 2"),
    )
    .unwrap();
    std::fs::write(
        tmp.path("derived.json"),
        r#"{"$include": "base.json", "name": "derived-curve"}"#,
    )
    .unwrap();

    // The derived spec runs like an inline one and is named by its override...
    let dir = tmp.path_str("out");
    for spec in ["derived.json", "base.json"] {
        let path = tmp.path_str(spec);
        let output = run(&["experiment", "run", &path, "--out-dir", &dir]);
        assert_eq!(output.status.code(), Some(0), "{spec}: {}", stderr(&output));
    }
    let derived = RunArtifact::from_json(
        &std::fs::read_to_string(format!("{dir}/derived-curve.json")).unwrap(),
    )
    .unwrap();
    let base =
        RunArtifact::from_json(&std::fs::read_to_string(format!("{dir}/base-curve.json")).unwrap())
            .unwrap();
    assert_eq!(derived.spec.name, "derived-curve");
    // ...and produces the same results as the fragment run inline.
    assert_eq!(derived.charts, base.charts);

    // Fragment problems are document errors: exit 2 with the fragment's path.
    std::fs::write(
        tmp.path("dangling.json"),
        r#"{"$include": "missing.json", "name": "d"}"#,
    )
    .unwrap();
    let path = tmp.path_str("dangling.json");
    let output = run(&["experiment", "run", &path]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("cannot read included fragment"),
        "{}",
        stderr(&output)
    );

    std::fs::write(tmp.path("loop-a.json"), r#"{"$include": "loop-b.json"}"#).unwrap();
    std::fs::write(tmp.path("loop-b.json"), r#"{"$include": "loop-a.json"}"#).unwrap();
    let path = tmp.path_str("loop-a.json");
    let output = run(&["experiment", "run", &path]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("include cycle"),
        "{}",
        stderr(&output)
    );

    std::fs::write(tmp.path("grid.json"), "[1, 2]").unwrap();
    std::fs::write(
        tmp.path("bad-merge.json"),
        r#"{"$include": "grid.json", "name": "x"}"#,
    )
    .unwrap();
    let path = tmp.path_str("bad-merge.json");
    let output = run(&["experiment", "run", &path]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
    assert!(
        stderr(&output).contains("can only override an object fragment"),
        "{}",
        stderr(&output)
    );
}

#[test]
fn timing_experiments_check_structurally_against_goldens() {
    let tmp = TempDir::new("timing");
    let dir_a = tmp.path_str("a");
    let dir_b = tmp.path_str("b");
    // fig9-smoke is tiny but still a wall-clock measurement: two runs differ in
    // their timings yet check cleanly, because timing charts diff structurally.
    for dir in [&dir_a, &dir_b] {
        let output = run(&["experiment", "run", "fig9-smoke", "--out-dir", dir]);
        assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    }
    let a = format!("{dir_a}/fig9-smoke.json");
    let b = format!("{dir_b}/fig9-smoke.json");
    let output = run(&["experiment", "check", &a, "--golden", &b]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
}
