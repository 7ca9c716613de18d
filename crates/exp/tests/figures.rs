//! The paper's evaluation figures, run through their registry specs exactly as
//! `soar experiment run <name>` runs them, with the qualitative claims of each
//! figure checked on the resulting charts.

use soar_exp::{registry, Chart, ExperimentKind, ExperimentSpec, RunArtifact, Scale, Series};

fn spec(name: &str) -> ExperimentSpec {
    registry::by_name(name, Scale::Quick)
        .unwrap_or_else(|| panic!("unknown registry experiment `{name}`"))
}

/// Runs a quick-scale registry spec with its intrinsic repetition count.
fn run(name: &str) -> RunArtifact {
    spec(name).run()
}

/// Runs a quick-scale registry spec averaged over a single repetition.
fn run_once(name: &str) -> RunArtifact {
    let mut spec = spec(name);
    spec.repetitions = 1;
    spec.run()
}

fn one_chart(artifact: RunArtifact) -> Chart {
    assert_eq!(artifact.charts.len(), 1, "{}", artifact.spec.name);
    artifact.charts.into_iter().next().unwrap()
}

fn series<'a>(chart: &'a Chart, label: &str) -> &'a Series {
    chart
        .series
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("{}: no `{label}` series", chart.title))
}

#[test]
fn fig2_and_fig3_match_the_paper_exactly() {
    let chart = one_chart(run("fig2"));
    assert_eq!(chart.series.len(), 4);
    assert_eq!(series(&chart, "SOAR").y_at(2.0), Some(20.0));
    assert_eq!(series(&chart, "Level").y_at(2.0), Some(21.0));

    let fig3_chart = one_chart(run("fig3"));
    let curve = &fig3_chart.series[0];
    assert_eq!(curve.y_at(0.0), Some(51.0));
    assert_eq!(curve.y_at(1.0), Some(35.0));
    assert_eq!(curve.y_at(4.0), Some(11.0));
}

#[test]
fn fig6_soar_dominates_everywhere() {
    let charts = run_once("fig6").charts;
    assert_eq!(charts.len(), 6);
    for chart in &charts {
        let soar = series(chart, "SOAR");
        for other in &chart.series {
            if other.label == "All blue" {
                continue;
            }
            for &(x, y) in &other.points {
                let soar_y = soar.y_at(x).unwrap();
                assert!(
                    soar_y <= y + 1e-9,
                    "{}: SOAR {soar_y} vs {} {y} at k = {x}",
                    chart.title,
                    other.label
                );
            }
        }
        // Normalized values live in (0, 1].
        for other in &chart.series {
            for &(_, y) in &other.points {
                assert!(y > 0.0 && y <= 1.0 + 1e-9);
            }
        }
    }
}

#[test]
fn fig8_produces_three_charts_with_all_use_cases() {
    // Fig. 8's quick spec on BT(32) at three budgets: at BT(128) its
    // word-count byte reports (5,000 Zipf draws per worker into a hash map,
    // three colorings per point) take most of an unoptimized test build's
    // time, and no assertion below depends on the tree size.
    let mut fig8 = spec("fig8");
    fig8.repetitions = 1;
    let ExperimentKind::UseCaseBytes { n, budgets, .. } = &mut fig8.kind else {
        panic!("fig8 is a UseCaseBytes spec");
    };
    *n = 32;
    *budgets = vec![1, 4, 16];
    let charts = fig8.run().charts;
    assert_eq!(charts.len(), 3);
    for chart in &charts {
        assert_eq!(chart.series.len(), 4, "{}", chart.title);
    }
    // Fig. 8c: SOAR-over-all-blue ratios are at least 1.
    for ratios in &charts[2].series {
        for &(_, y) in &ratios.points {
            assert!(y >= 1.0 - 1e-9);
        }
    }
}

#[test]
fn fig9_times_are_positive_and_grow_with_n() {
    let chart = one_chart(run_once("fig9"));
    assert!(chart.series.len() >= 2);
    for times in &chart.series {
        for &(_, y) in &times.points {
            assert!(y > 0.0);
        }
    }
}

#[test]
fn fig10_and_fig11_stay_normalized() {
    let scaling = one_chart(run_once("fig10a"));
    for normalized in &scaling.series {
        for &(_, y) in &normalized.points {
            assert!(y > 0.0 && y <= 1.0 + 1e-9);
        }
    }
    let fraction = one_chart(run_once("fig10b"));
    for required in &fraction.series {
        for &(_, y) in &required.points {
            assert!(
                (0.0..=8.0).contains(&y),
                "required fraction {y}% out of range"
            );
        }
    }
    let example = one_chart(run("fig11a"));
    let soar = series(&example, "SOAR");
    let max_deg = series(&example, "Max-degree");
    assert!(soar.y_at(4.0).unwrap() < max_deg.y_at(4.0).unwrap());
    one_chart(run_once("fig11c"));
}

#[test]
fn ablation_soar_beats_greedy_and_random() {
    let chart = one_chart(run_once("ablation"));
    let soar = series(&chart, "SOAR");
    for other in &chart.series {
        for &(x, y) in &other.points {
            assert!(soar.y_at(x).unwrap() <= y + 1e-9);
        }
    }
}

#[test]
fn artifacts_carry_their_specs_and_env() {
    let artifact = run("fig3");
    assert_eq!(artifact.spec.name, "fig3");
    assert_eq!(artifact.charts.len(), 1);
    assert!(!artifact.reports.is_empty(), "fig3 keeps its solve reports");
    assert!(artifact.dp.is_some());
    assert!(!artifact.env.os.is_empty());
}
