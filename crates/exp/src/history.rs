//! Artifact history: trajectories of [`RunArtifact`]s across commits, and the
//! perf-regression gate built on them.
//!
//! A single golden diff ([`crate::artifact::diff`]) answers "did this run match
//! that run"; this module answers the longitudinal questions: *how has each
//! metric moved over an ordered series of runs* ([`Trajectory`]) and *did the
//! newest run regress past a tolerance* ([`check`]). Artifacts align by spec
//! name/version and chart point — every chart title, series label and x value of
//! the first artifact must be present in every later one, so a dropped chart or
//! a renamed series is reported as an alignment error instead of silently
//! shrinking the trajectory.
//!
//! Metrics are classified by the artifact's own `timing_charts` flags: wall-clock
//! metrics regress **relatively** (a slowdown beyond
//! [`RegressionPolicy::max_regress`] fails), everything else — costs, allocation
//! counts, arena footprints — regresses **exactly** (any increase fails, since
//! cost-based artifacts are deterministic). Improvements never fail; the gate is
//! one-sided by design.
//!
//! The `soar history` CLI subcommands (`report`, `check`) are thin shells over
//! this module; the CI `bench-smoke` job uses `soar history check` to turn the
//! `gather-bench` artifact into a merge gate.
//!
//! ```
//! use soar_exp::history::{check, RegressionPolicy, Trajectory};
//! use soar_exp::prelude::*;
//!
//! // Two runs of the same deterministic spec form a two-point trajectory...
//! let spec = registry::by_name("fig3", Scale::Quick).unwrap();
//! let (old, new) = (spec.run(), spec.run());
//! let entries = vec![("v1".to_owned(), old), ("v2".to_owned(), new)];
//! let trajectory = Trajectory::build(&entries).unwrap();
//! assert!(trajectory.metrics().iter().all(|m| m.delta() == Some(0.0)));
//!
//! // ...and the newest run passes the regression gate against the oldest.
//! let report = check(&entries[0].1, &entries[1].1, &RegressionPolicy::default()).unwrap();
//! assert!(report.passed());
//! ```

use crate::artifact::RunArtifact;
use crate::chart::{Chart, Series};
use std::fmt;

/// Identifies one tracked metric: a `(chart, series, x)` coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricKey {
    /// Title of the chart the metric lives in.
    pub chart: String,
    /// Legend label of the series.
    pub series: String,
    /// The x value of the point.
    pub x: f64,
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}` / `{}` @ x = {}", self.chart, self.series, self.x)
    }
}

/// One metric's values across an ordered artifact series.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTrajectory {
    /// What is being tracked.
    pub key: MetricKey,
    /// `true` when the metric is a wall-clock timing (machine-dependent).
    pub timing: bool,
    /// The y values, one per artifact, in history order.
    pub values: Vec<f64>,
}

impl MetricTrajectory {
    /// The newest value.
    pub fn last(&self) -> f64 {
        *self.values.last().expect("trajectories are non-empty")
    }

    /// The best (smallest — every tracked metric is lower-is-better) value seen.
    pub fn best(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Newest minus previous value (`None` for single-entry histories).
    pub fn delta(&self) -> Option<f64> {
        let n = self.values.len();
        (n >= 2).then(|| self.values[n - 1] - self.values[n - 2])
    }

    /// `true` when the newest value is also the best seen so far.
    pub fn is_best_so_far(&self) -> bool {
        self.last() <= self.best()
    }
}

/// Why a series of artifacts failed to align into a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryError {
    /// No artifacts were given.
    Empty,
    /// An artifact's spec name differs from the first artifact's.
    SpecMismatch {
        /// History label of the offending artifact.
        label: String,
        /// The expected spec name (from the first artifact).
        expected: String,
        /// The spec name actually found.
        found: String,
    },
    /// An artifact's format version differs from the first artifact's.
    VersionMismatch {
        /// History label of the offending artifact.
        label: String,
        /// The expected format version.
        expected: u32,
        /// The format version actually found.
        found: u32,
    },
    /// A chart of the first artifact is missing from a later one.
    MissingChart {
        /// History label of the offending artifact.
        label: String,
        /// Title of the missing chart.
        chart: String,
    },
    /// A series of the first artifact is missing (e.g. renamed) in a later one.
    MissingSeries {
        /// History label of the offending artifact.
        label: String,
        /// Title of the chart the series belongs to.
        chart: String,
        /// Label of the missing series.
        series: String,
    },
    /// A point of the first artifact has no matching x in a later one.
    MissingPoint {
        /// History label of the offending artifact.
        label: String,
        /// The metric whose x vanished.
        key: MetricKey,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Empty => write!(f, "history is empty (give at least one artifact)"),
            HistoryError::SpecMismatch {
                label,
                expected,
                found,
            } => write!(
                f,
                "{label}: spec `{found}` does not belong to the `{expected}` history \
                 (artifacts align by spec name)"
            ),
            HistoryError::VersionMismatch {
                label,
                expected,
                found,
            } => write!(
                f,
                "{label}: artifact format version {found} differs from the history's {expected}"
            ),
            HistoryError::MissingChart { label, chart } => {
                write!(f, "{label}: chart `{chart}` disappeared from the artifact")
            }
            HistoryError::MissingSeries {
                label,
                chart,
                series,
            } => write!(
                f,
                "{label}: series `{series}` of chart `{chart}` disappeared \
                 (renamed series break alignment)"
            ),
            HistoryError::MissingPoint { label, key } => {
                write!(f, "{label}: point {key} disappeared from the artifact")
            }
        }
    }
}

impl std::error::Error for HistoryError {}

/// An aligned, ordered series of artifacts of one spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Name of the spec every artifact belongs to.
    pub spec_name: String,
    /// History labels (file names, commit ids, ...), oldest first.
    pub labels: Vec<String>,
    metrics: Vec<MetricTrajectory>,
}

impl Trajectory {
    /// Aligns `(label, artifact)` entries, oldest first, into a trajectory.
    ///
    /// The **first** artifact defines the tracked metric set; every later
    /// artifact must contain all of its charts, series and x values (extra
    /// charts in later artifacts are fine — new metrics enter the history the
    /// next time a baseline is cut).
    pub fn build(entries: &[(String, RunArtifact)]) -> Result<Self, HistoryError> {
        let borrowed: Vec<(&str, &RunArtifact)> = entries
            .iter()
            .map(|(label, artifact)| (label.as_str(), artifact))
            .collect();
        Self::build_borrowed(&borrowed)
    }

    /// [`Trajectory::build`] over borrowed entries — the zero-copy form used by
    /// [`check`], which aligns two artifacts it does not own.
    pub fn build_borrowed(entries: &[(&str, &RunArtifact)]) -> Result<Self, HistoryError> {
        let &(_, first) = entries.first().ok_or(HistoryError::Empty)?;
        for &(label, artifact) in &entries[1..] {
            if artifact.spec.name != first.spec.name {
                return Err(HistoryError::SpecMismatch {
                    label: label.to_owned(),
                    expected: first.spec.name.clone(),
                    found: artifact.spec.name.clone(),
                });
            }
            if artifact.format_version != first.format_version {
                return Err(HistoryError::VersionMismatch {
                    label: label.to_owned(),
                    expected: first.format_version,
                    found: artifact.format_version,
                });
            }
        }
        let mut metrics = Vec::new();
        for (chart_idx, chart) in first.charts.iter().enumerate() {
            let timing = first.timing_charts.contains(&chart_idx);
            // Resolve the chart once per later artifact (not once per point).
            let later_charts: Vec<(&str, &Chart)> = entries[1..]
                .iter()
                .map(|&(label, artifact)| {
                    artifact
                        .charts
                        .iter()
                        .find(|c| c.title == chart.title)
                        .map(|c| (label, c))
                        .ok_or_else(|| HistoryError::MissingChart {
                            label: label.to_owned(),
                            chart: chart.title.clone(),
                        })
                })
                .collect::<Result<_, _>>()?;
            for series in &chart.series {
                let later_series: Vec<(&str, &Series)> = later_charts
                    .iter()
                    .map(|&(label, found_chart)| {
                        found_chart
                            .series
                            .iter()
                            .find(|s| s.label == series.label)
                            .map(|s| (label, s))
                            .ok_or_else(|| HistoryError::MissingSeries {
                                label: label.to_owned(),
                                chart: chart.title.clone(),
                                series: series.label.clone(),
                            })
                    })
                    .collect::<Result<_, _>>()?;
                for &(x, first_y) in &series.points {
                    let key = MetricKey {
                        chart: chart.title.clone(),
                        series: series.label.clone(),
                        x,
                    };
                    let mut values = vec![first_y];
                    for &(label, found_series) in &later_series {
                        let y = found_series
                            .y_at(x)
                            .ok_or_else(|| HistoryError::MissingPoint {
                                label: label.to_owned(),
                                key: key.clone(),
                            })?;
                        values.push(y);
                    }
                    metrics.push(MetricTrajectory {
                        key,
                        timing,
                        values,
                    });
                }
            }
        }
        Ok(Trajectory {
            spec_name: first.spec.name.clone(),
            labels: entries.iter().map(|&(label, _)| label.to_owned()).collect(),
            metrics,
        })
    }

    /// The tracked metrics, in chart/series/point order of the first artifact.
    pub fn metrics(&self) -> &[MetricTrajectory] {
        &self.metrics
    }

    /// Renders the trajectory as an aligned table: one row per metric with the
    /// per-run values, the newest delta and a best-so-far marker.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        writeln!(
            out,
            "history of `{}` over {} run(s): {}",
            self.spec_name,
            self.labels.len(),
            self.labels.join(" -> ")
        )
        .unwrap();
        for m in &self.metrics {
            let values: Vec<String> = m.values.iter().map(|v| format!("{v:.6}")).collect();
            let delta = match m.delta() {
                Some(d) => format!("{d:+.6}"),
                None => "n/a".to_owned(),
            };
            writeln!(
                out,
                "  {:<72} [{}] delta {}{}{}",
                m.key.to_string(),
                values.join(" -> "),
                delta,
                if m.is_best_so_far() {
                    "  (best so far)"
                } else {
                    ""
                },
                if m.timing { "  [timing]" } else { "" },
            )
            .unwrap();
        }
        out
    }
}

/// What counts as a regression when gating a new artifact against a baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressionPolicy {
    /// Maximum tolerated **relative** increase of a timing metric (0.25 = a 25 %
    /// slowdown fails). Wall times are machine-noisy, so they get headroom.
    pub max_regress: f64,
    /// Absolute guard band on exact metrics, to absorb float formatting noise.
    /// Cost-based artifacts are deterministic, so the default is effectively
    /// exact (1e-9).
    pub exact_abs: f64,
}

impl Default for RegressionPolicy {
    fn default() -> Self {
        RegressionPolicy {
            max_regress: 0.25,
            exact_abs: 1e-9,
        }
    }
}

/// One metric that moved the wrong way past its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The regressed metric.
    pub key: MetricKey,
    /// The baseline value.
    pub baseline: f64,
    /// The new value.
    pub new: f64,
    /// `true` when the metric was judged relatively (a timing chart).
    pub timing: bool,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.timing {
            let pct = if self.baseline > 0.0 {
                100.0 * (self.new - self.baseline) / self.baseline
            } else {
                f64::INFINITY
            };
            write!(
                f,
                "{}: {:.6} -> {:.6} ({pct:+.1} %)",
                self.key, self.baseline, self.new
            )
        } else {
            write!(
                f,
                "{}: {} -> {} (exact metric increased)",
                self.key, self.baseline, self.new
            )
        }
    }
}

/// The outcome of [`check`]: the regressions, the improvements and the policy
/// that judged them.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Metrics that got worse past the policy's tolerance.
    pub regressions: Vec<Regression>,
    /// Metrics that got strictly better (informational).
    pub improvements: Vec<Regression>,
    /// Number of metrics compared.
    pub checked: usize,
    /// The policy applied.
    pub policy: RegressionPolicy,
}

impl RegressionReport {
    /// `true` when no metric regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

impl fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed() {
            write!(
                f,
                "{} metric(s) within tolerance ({} improved, timing headroom {:.0} %)",
                self.checked,
                self.improvements.len(),
                self.policy.max_regress * 100.0
            )
        } else {
            writeln!(f, "{} regression(s):", self.regressions.len())?;
            for r in &self.regressions {
                writeln!(f, "  - {r}")?;
            }
            Ok(())
        }
    }
}

/// Gates `new` against `baseline`: every metric of the baseline must not have
/// gotten worse past the policy's tolerance in the new artifact.
///
/// Timing metrics (per the baseline's `timing_charts` flags) fail on a relative
/// slowdown beyond [`RegressionPolicy::max_regress`]; every other metric fails
/// on **any** increase (beyond the tiny `exact_abs` guard). Decreases are
/// recorded as improvements and always pass.
pub fn check(
    baseline: &RunArtifact,
    new: &RunArtifact,
    policy: &RegressionPolicy,
) -> Result<RegressionReport, HistoryError> {
    let trajectory = Trajectory::build_borrowed(&[("baseline", baseline), ("new", new)])?;
    let mut report = RegressionReport {
        regressions: Vec::new(),
        improvements: Vec::new(),
        checked: trajectory.metrics().len(),
        policy: *policy,
    };
    for m in trajectory.metrics() {
        let (base, new_value) = (m.values[0], m.values[1]);
        let worse = if m.timing {
            new_value > base * (1.0 + policy.max_regress)
        } else {
            new_value > base + policy.exact_abs
        };
        let entry = Regression {
            key: m.key.clone(),
            baseline: base,
            new: new_value,
            timing: m.timing,
        };
        if worse {
            report.regressions.push(entry);
        } else if new_value < base {
            report.improvements.push(entry);
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chart::{Chart, Series};
    use crate::spec::{ExperimentKind, ExperimentSpec, ScenarioSpec};

    /// A two-chart artifact: chart 0 is a cost chart, chart 1 a timing chart.
    fn artifact(cost: f64, wall_ms: f64) -> RunArtifact {
        let spec = ExperimentSpec::new(
            "hist",
            "history test artifact",
            1,
            ExperimentKind::SolverComparison {
                title: "costs".into(),
                scenario: ScenarioSpec::sf(16, 0),
                budget: 1,
                solvers: vec!["soar".into()],
                include_all_red: false,
            },
        );
        let mut costs = Chart::new("costs", "k", "cost");
        let mut soar = Series::new("SOAR");
        soar.push(1.0, cost);
        soar.push(2.0, cost - 1.0);
        costs.push(soar);
        let mut wall = Chart::new("wall", "n", "ms");
        let mut warm = Series::new("warm");
        warm.push(1024.0, wall_ms);
        wall.push(warm);
        let mut a = RunArtifact::new(spec, vec![costs, wall], None);
        a.timing_charts = vec![1];
        a
    }

    fn entries(artifacts: Vec<RunArtifact>) -> Vec<(String, RunArtifact)> {
        artifacts
            .into_iter()
            .enumerate()
            .map(|(i, a)| (format!("run{i}"), a))
            .collect()
    }

    #[test]
    fn trajectories_track_deltas_and_best_so_far() {
        let history = entries(vec![
            artifact(10.0, 5.0),
            artifact(8.0, 6.0),
            artifact(9.0, 4.0),
        ]);
        let t = Trajectory::build(&history).unwrap();
        assert_eq!(t.spec_name, "hist");
        assert_eq!(t.labels, vec!["run0", "run1", "run2"]);
        assert_eq!(t.metrics().len(), 3, "two cost points + one timing point");

        let cost = &t.metrics()[0];
        assert_eq!(cost.key.chart, "costs");
        assert!(!cost.timing);
        assert_eq!(cost.values, vec![10.0, 8.0, 9.0]);
        assert_eq!(cost.delta(), Some(1.0));
        assert_eq!(cost.best(), 8.0);
        assert!(!cost.is_best_so_far());

        let wall = &t.metrics()[2];
        assert!(wall.timing);
        assert_eq!(wall.values, vec![5.0, 6.0, 4.0]);
        assert!(wall.is_best_so_far());

        let table = t.to_table();
        assert!(table.contains("best so far"), "{table}");
        assert!(table.contains("[timing]"), "{table}");
    }

    #[test]
    fn alignment_rejects_mismatched_histories() {
        assert_eq!(Trajectory::build(&[]).unwrap_err(), HistoryError::Empty);

        let mut other = artifact(1.0, 1.0);
        other.spec.name = "other".into();
        let err = Trajectory::build(&entries(vec![artifact(1.0, 1.0), other])).unwrap_err();
        assert!(matches!(err, HistoryError::SpecMismatch { .. }), "{err}");

        let mut newer = artifact(1.0, 1.0);
        newer.format_version += 1;
        let err = Trajectory::build(&entries(vec![artifact(1.0, 1.0), newer])).unwrap_err();
        assert!(matches!(err, HistoryError::VersionMismatch { .. }), "{err}");
    }

    #[test]
    fn alignment_reports_missing_charts_series_and_points() {
        let mut chartless = artifact(1.0, 1.0);
        chartless.charts.remove(1);
        let err = Trajectory::build(&entries(vec![artifact(1.0, 1.0), chartless])).unwrap_err();
        assert!(
            matches!(&err, HistoryError::MissingChart { chart, .. } if chart == "wall"),
            "{err}"
        );

        let mut renamed = artifact(1.0, 1.0);
        renamed.charts[0].series[0].label = "SOAR v2".into();
        let err = Trajectory::build(&entries(vec![artifact(1.0, 1.0), renamed])).unwrap_err();
        assert!(
            matches!(&err, HistoryError::MissingSeries { series, .. } if series == "SOAR"),
            "{err}"
        );
        assert!(err.to_string().contains("renamed series"), "{err}");

        let mut shifted = artifact(1.0, 1.0);
        shifted.charts[0].series[0].points[1].0 = 3.0;
        let err = Trajectory::build(&entries(vec![artifact(1.0, 1.0), shifted])).unwrap_err();
        assert!(
            matches!(&err, HistoryError::MissingPoint { key, .. } if key.x == 2.0),
            "{err}"
        );
    }

    #[test]
    fn extra_charts_in_later_artifacts_are_tolerated() {
        let mut extended = artifact(1.0, 1.0);
        extended.charts.push(Chart::new("new chart", "x", "y"));
        let t = Trajectory::build(&entries(vec![artifact(1.0, 1.0), extended])).unwrap();
        assert_eq!(t.metrics().len(), 3, "the first artifact defines the set");
    }

    #[test]
    fn exact_metrics_fail_on_any_increase() {
        let baseline = artifact(10.0, 5.0);
        let policy = RegressionPolicy::default();

        let report = check(&baseline, &artifact(10.0, 5.0), &policy).unwrap();
        assert!(report.passed());
        assert_eq!(report.checked, 3);

        // A cost increase of any size fails...
        let report = check(&baseline, &artifact(10.001, 5.0), &policy).unwrap();
        assert!(!report.passed());
        assert!(report.to_string().contains("exact metric increased"));

        // ...while a cost decrease is an improvement.
        let report = check(&baseline, &artifact(9.0, 5.0), &policy).unwrap();
        assert!(report.passed());
        assert_eq!(report.improvements.len(), 2, "both cost points improved");
    }

    #[test]
    fn timing_metrics_get_relative_headroom() {
        let baseline = artifact(10.0, 100.0);
        let policy = RegressionPolicy::default();

        // +20 % wall time sits inside the default 25 % headroom...
        assert!(check(&baseline, &artifact(10.0, 120.0), &policy)
            .unwrap()
            .passed());
        // ...+30 % does not...
        let failed = check(&baseline, &artifact(10.0, 130.0), &policy).unwrap();
        assert!(!failed.passed());
        assert_eq!(failed.regressions.len(), 1);
        assert!(failed.regressions[0].timing);
        // ...and a tighter policy tightens the gate.
        let tight = RegressionPolicy {
            max_regress: 0.1,
            ..policy
        };
        assert!(!check(&baseline, &artifact(10.0, 120.0), &tight)
            .unwrap()
            .passed());
    }

    #[test]
    fn check_reports_failures_displayably() {
        let baseline = artifact(10.0, 5.0);
        let failed = check(
            &baseline,
            &artifact(11.0, 5.0),
            &RegressionPolicy::default(),
        )
        .unwrap();
        assert!(failed.to_string().contains("regression"), "{failed}");

        let mut misaligned = artifact(10.0, 5.0);
        misaligned.spec.name = "other".into();
        let err = check(&baseline, &misaligned, &RegressionPolicy::default()).unwrap_err();
        assert!(err.to_string().contains("align"), "{err}");
    }
}
