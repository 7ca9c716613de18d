//! The named experiment registry: every figure of the paper's evaluation
//! (Figs. 2, 3, 6–11), the `DESIGN.md` ablation and the gather perf microbench
//! as ready-made [`ExperimentSpec`]s.
//!
//! Each constructor encodes the exact topology sizes, load/rate grids, budgets
//! and per-figure seed strides, so a registry spec reproduces the same numbers
//! run after run. `soar experiment list` prints this registry;
//! `soar experiment run <name> [--csv]` executes and prints one entry.

use crate::spec::{
    ByteSeriesSpec, ExperimentKind, ExperimentSpec, GridCell, OnlineCell, OnlineSweep, Scale,
    ScalingFamily, ScenarioSpec, UseCaseSpec,
};
use soar_core::api::TopologySpec;
use soar_fabric::{FabricSpec, FabricTopology};
use soar_topology::load::{LoadPlacement, LoadSpec};
use soar_topology::rates::RateScheme;

/// Registry names of all predefined experiments, in run order.
pub const NAMES: [&str; 18] = [
    "fig2",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig9-smoke",
    "fig10a",
    "fig10b",
    "fig11a",
    "fig11c",
    "ablation",
    "gather-bench",
    "obs-bench",
    "gather-scale",
    "dynamic-churn",
    "fabric",
    "fabric-sweep",
];

/// The paper's `BT(n)` evaluation size for a scale.
pub fn bt_size(scale: Scale) -> usize {
    match scale {
        Scale::Paper => 256,
        Scale::Quick => 128,
    }
}

/// The default repetition count for a scale (the paper averages over 10).
pub fn default_repetitions(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 10,
        Scale::Quick => 3,
    }
}

fn budgets() -> Vec<usize> {
    vec![1, 2, 4, 8, 16, 32]
}

fn exponents(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Paper => (8..=12).collect(),
        Scale::Quick => (8..=10).collect(),
    }
}

/// The three link-rate regimes of Sec. 5 (Figs. 6a-6c and 7a-7c), in the
/// paper's plotting order. The single source of truth for the grid orderings.
fn rate_schemes() -> [RateScheme; 3] {
    [
        RateScheme::paper_constant(),
        RateScheme::paper_linear(),
        RateScheme::paper_exponential(),
    ]
}

/// The Fig. 2 motivating example: 7 switches, leaf loads 2/6/5/4.
fn fig2_scenario() -> ScenarioSpec {
    ScenarioSpec {
        topology: TopologySpec::CompleteKary {
            arity: 2,
            n_switches: 7,
        },
        load: Some(LoadSpec::Explicit(vec![2, 6, 5, 4])),
        placement: Some(LoadPlacement::Leaves),
        rates: None,
        seed: 0,
    }
}

fn fig2() -> ExperimentSpec {
    ExperimentSpec::new(
        "fig2",
        "Motivating example: utilization of the four strategies at k = 2",
        1,
        ExperimentKind::SolverComparison {
            title: "Fig. 2: motivating example (7 switches, loads 2/6/5/4, k = 2)".into(),
            scenario: fig2_scenario(),
            budget: 2,
            solvers: vec![
                "top".into(),
                "max-load".into(),
                "level".into(),
                "soar".into(),
            ],
            include_all_red: false,
        },
    )
}

fn fig3() -> ExperimentSpec {
    ExperimentSpec::new(
        "fig3",
        "Optimal utilization of the motivating example for k = 0..4",
        1,
        ExperimentKind::BudgetCurve {
            title: "Fig. 3: optimal utilization vs. budget on the motivating example".into(),
            scenario: fig2_scenario(),
            budgets: vec![0, 1, 2, 3, 4],
            series_label: "SOAR (optimal)".into(),
        },
    )
}

/// The two leaf-load distributions compared throughout Sec. 5, in the paper's
/// plotting order (power-law on top), with their figure-caption labels. The
/// single source of truth for the grid orderings.
fn paper_loads() -> [(LoadSpec, &'static str); 2] {
    [
        (LoadSpec::paper_power_law(), "power-law"),
        (LoadSpec::paper_uniform(), "uniform"),
    ]
}

fn fig6(scale: Scale) -> ExperimentSpec {
    let n = bt_size(scale);
    let mut cells = Vec::new();
    for (load, load_label) in paper_loads() {
        for scheme in rate_schemes() {
            cells.push(GridCell {
                title: format!(
                    "Fig. 6: BT({n}), {load_label} load, {} rates",
                    scheme.label()
                ),
                load: load.clone(),
                rates: scheme,
            });
        }
    }
    ExperimentSpec::new(
        "fig6",
        "Normalized utilization vs. budget per strategy, load and rate scheme",
        default_repetitions(scale),
        ExperimentKind::StrategyGrid {
            n,
            cells,
            budgets: budgets(),
            solvers: vec![
                "max-load".into(),
                "soar".into(),
                "top".into(),
                "level".into(),
            ],
            seed_stride: 31,
            per_rep_solver_seed: false,
            include_baselines: true,
        },
    )
}

fn fig7(scale: Scale) -> ExperimentSpec {
    let n = bt_size(scale);
    let mut cells = Vec::new();
    for scheme in rate_schemes() {
        cells.push(OnlineCell {
            title: format!(
                "Fig. 7 (top): workloads sweep, {} rates, capacity 4",
                scheme.label()
            ),
            rates: scheme.clone(),
            sweep: OnlineSweep::Workloads {
                counts: vec![4, 8, 16, 24, 32],
                capacity: 4,
            },
            seed_stride: 7,
        });
        cells.push(OnlineCell {
            title: format!(
                "Fig. 7 (bottom): capacity sweep, {} rates, 32 workloads",
                scheme.label()
            ),
            rates: scheme,
            sweep: OnlineSweep::Capacity {
                capacities: vec![2, 4, 8, 16, 32],
                workloads: 32,
            },
            seed_stride: 13,
        });
    }
    ExperimentSpec::new(
        "fig7",
        "Online multi-workload scenario: workload-count and capacity sweeps",
        default_repetitions(scale),
        ExperimentKind::OnlineMultitenant {
            n,
            budget: 16,
            solvers: vec![
                "max-load".into(),
                "soar".into(),
                "top".into(),
                "level".into(),
            ],
            cells,
        },
    )
}

fn fig8(scale: Scale) -> ExperimentSpec {
    let n = bt_size(scale);
    let mut series = Vec::new();
    // Inverted nesting vs. Fig. 6: Fig. 8 plots uniform before power-law.
    for (load, load_label) in [
        (LoadSpec::paper_uniform(), "uniform"),
        (LoadSpec::paper_power_law(), "power-law"),
    ] {
        for (use_case, uc_label) in [
            (UseCaseSpec::WordCount, "WC"),
            (UseCaseSpec::ParameterServer, "PS"),
        ] {
            series.push(ByteSeriesSpec {
                label: format!("{uc_label}-{load_label}"),
                load: load.clone(),
                use_case,
            });
        }
    }
    ExperimentSpec::new(
        "fig8",
        "WC and PS use cases: utilization and byte volumes vs. budget",
        default_repetitions(scale),
        ExperimentKind::UseCaseBytes {
            n,
            budgets: vec![1, 2, 4, 8, 16, 32, 64],
            seed_stride: 97,
            rates: RateScheme::paper_constant(),
            titles: vec![
                format!("Fig. 8a: utilization, BT({n}), constant rates"),
                format!("Fig. 8b: bytes vs all-red, BT({n})"),
                format!("Fig. 8c: bytes vs all-blue, BT({n})"),
            ],
            series,
        },
    )
}

fn fig9(scale: Scale) -> ExperimentSpec {
    let (sizes, budgets) = match scale {
        Scale::Paper => (vec![256, 512, 1024, 2048], vec![4, 8, 16, 32, 64, 128]),
        Scale::Quick => (vec![256, 512], vec![4, 8, 16, 32]),
    };
    ExperimentSpec::new(
        "fig9",
        "SOAR wall-clock solve time for growing sizes and budgets",
        default_repetitions(scale),
        ExperimentKind::SolveTime {
            title: "Fig. 9: SOAR solve time (seconds)".into(),
            sizes,
            budgets,
            seed_stride: 3,
        },
    )
}

/// A scaled-down Fig. 9 for the CI `experiment-smoke` job: one repetition over
/// small trees, checked structurally against a committed golden.
fn fig9_smoke() -> ExperimentSpec {
    ExperimentSpec::new(
        "fig9-smoke",
        "CI smoke variant of Fig. 9 (small sizes, one repetition)",
        1,
        ExperimentKind::SolveTime {
            title: "Fig. 9: SOAR solve time (seconds)".into(),
            sizes: vec![128, 256],
            budgets: vec![4, 8],
            seed_stride: 3,
        },
    )
}

fn fig10a(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new(
        "fig10a",
        "Scaling of SOAR on BT(n) for k in {1% n, log2 n, sqrt n}",
        default_repetitions(scale),
        ExperimentKind::ScalingBudgets {
            title: "Fig. 10a: scaling of SOAR on BT(n), power-law load".into(),
            family: ScalingFamily::BtPowerLaw,
            exponents: exponents(scale),
            seed_stride: 19,
        },
    )
}

fn fig10b(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new(
        "fig10b",
        "Smallest blue fraction reaching a 30/50/70% utilization saving",
        default_repetitions(scale),
        ExperimentKind::RequiredFraction {
            title: "Fig. 10b: % of blue nodes needed for a target utilization reduction".into(),
            exponents: exponents(scale),
            targets: vec![0.30, 0.50, 0.70],
            // The paper's curves stay below 5%, but a single repetition of the
            // heavy-tailed load needs some headroom.
            search_fraction: 0.08,
            seed_stride: 23,
        },
    )
}

fn fig11a() -> ExperimentSpec {
    ExperimentSpec::new(
        "fig11a",
        "The worked SF(128) example: Max-degree vs. SOAR at k = 4",
        1,
        ExperimentKind::SolverComparison {
            title: "Fig. 11a/b: SF(128) example, unit loads, k = 4".into(),
            scenario: ScenarioSpec::sf(128, 42),
            budget: 4,
            solvers: vec!["max-degree".into(), "soar".into()],
            include_all_red: true,
        },
    )
}

fn fig11c(scale: Scale) -> ExperimentSpec {
    ExperimentSpec::new(
        "fig11c",
        "Scaling of SOAR on SF(n) for k in {1% n, log2 n, sqrt n}",
        default_repetitions(scale),
        ExperimentKind::ScalingBudgets {
            title: "Fig. 11c: scaling of SOAR on SF(n), unit loads".into(),
            family: ScalingFamily::SfUnit,
            exponents: exponents(scale),
            seed_stride: 29,
        },
    )
}

fn ablation(scale: Scale) -> ExperimentSpec {
    let n = bt_size(scale);
    ExperimentSpec::new(
        "ablation",
        "SOAR's exact DP vs. the greedy heuristic and random placement",
        default_repetitions(scale),
        ExperimentKind::StrategyGrid {
            n,
            cells: vec![GridCell {
                title: format!("Ablation: exact DP vs greedy / random on BT({n}), power-law load"),
                load: LoadSpec::paper_power_law(),
                rates: RateScheme::paper_constant(),
            }],
            budgets: budgets(),
            solvers: vec!["soar".into(), "greedy".into(), "random".into()],
            seed_stride: 41,
            per_rep_solver_seed: true,
            include_baselines: false,
        },
    )
}

fn gather_bench() -> ExperimentSpec {
    ExperimentSpec::new(
        "gather-bench",
        "Allocation-free gather microbench (fresh vs warm workspace)",
        1,
        ExperimentKind::GatherMicrobench {
            sizes: crate::perf::GATHER_BENCH_SIZES.to_vec(),
            budget: crate::perf::GATHER_BENCH_BUDGET,
            arity: None,
        },
    )
}

fn obs_bench() -> ExperimentSpec {
    ExperimentSpec::new(
        "obs-bench",
        "Tracing overhead on the warm gather (spans recorded, never drained)",
        1,
        ExperimentKind::ObsBench {
            sizes: crate::perf::GATHER_BENCH_SIZES.to_vec(),
            budget: crate::perf::GATHER_BENCH_BUDGET,
        },
    )
}

fn gather_scale(scale: Scale) -> ExperimentSpec {
    // Shallow 16-ary trees: the datacenter-fabric shape, and the regime where
    // subtree-capped table widths and the pruned kernel earn their
    // keep (~94% of switches are leaves with two columns). Quick
    // (the `scale-smoke` CI gate) runs 100k switches; paper runs the full
    // 100k → 1M sweep.
    let sizes = match scale {
        Scale::Paper => vec![100_000, 250_000, 1_000_000],
        Scale::Quick => vec![100_000],
    };
    ExperimentSpec::new(
        "gather-scale",
        "Large-tree gather scaling (100k-1M switches, 16-ary, subtree-capped arena)",
        1,
        ExperimentKind::GatherMicrobench {
            sizes,
            budget: crate::perf::GATHER_BENCH_BUDGET,
            arity: Some(16),
        },
    )
}

fn dynamic_churn(scale: Scale) -> ExperimentSpec {
    let n = bt_size(scale);
    let epochs = match scale {
        Scale::Paper => 40,
        Scale::Quick => 10,
    };
    ExperimentSpec::new(
        "dynamic-churn",
        "Online re-optimization under tenant churn: cost, moves and DP cell writes per epoch",
        default_repetitions(scale),
        ExperimentKind::DynamicChurn {
            title: format!("Dynamic churn on BT({n}), k = 16"),
            scenario: ScenarioSpec::bt(
                n,
                LoadSpec::paper_uniform(),
                RateScheme::paper_constant(),
                5,
            ),
            budget: 16,
            epochs,
            model: soar_multitenant::churn::ChurnModel::paper_default(),
            seed_stride: 53,
        },
    )
}

/// The sequel-paper fabric of a scale. Quick stays small enough for the
/// exhaustive `fabric-brute` oracle (20 switches at budget 4 enumerate in
/// milliseconds), which is what lets the quick registry spec double as the
/// solver-vs-oracle CI gate; paper scale is a 4-core, 8-pod fat-tree.
fn fabric_spec(scale: Scale) -> FabricSpec {
    let (topology, budget, congestion_bound) = match scale {
        Scale::Quick => (
            FabricTopology::MultiCoreFatTree {
                cores: 2,
                pods: 3,
                aggs_per_pod: 2,
                tors_per_agg: 2,
            },
            4,
            2,
        ),
        Scale::Paper => (
            FabricTopology::MultiCoreFatTree {
                cores: 4,
                pods: 8,
                aggs_per_pod: 4,
                tors_per_agg: 8,
            },
            16,
            4,
        ),
    };
    FabricSpec {
        topology,
        load: LoadSpec::paper_uniform(),
        rates: RateScheme::paper_constant(),
        seed: 61,
        budget,
        congestion_bound,
        congestion_weight: 0.5,
    }
}

fn fabric(scale: Scale) -> ExperimentSpec {
    let fabric = fabric_spec(scale);
    let solvers = match scale {
        // Both solvers: equal cost points certify the decomposition against
        // exhaustive enumeration on every CI run of the quick spec.
        Scale::Quick => vec!["fabric-soar".into(), "fabric-brute".into()],
        Scale::Paper => vec!["fabric-soar".into()],
    };
    ExperimentSpec::new(
        "fabric",
        "Congestion-constrained fabric placement: exact decomposition (vs oracle at quick scale)",
        default_repetitions(scale),
        ExperimentKind::FabricSolve {
            title: format!("Fabric {}, k = {}", fabric.topology.label(), fabric.budget),
            fabric,
            solvers,
            seed_stride: 59,
        },
    )
}

fn fabric_sweep(scale: Scale) -> ExperimentSpec {
    let mut fabric = fabric_spec(scale);
    let bounds = match scale {
        Scale::Quick => vec![1, 2, 3],
        Scale::Paper => vec![1, 2, 4, 8],
    };
    // Give the sweep budget headroom so the bound, not k, is what binds at
    // the relaxed end; the spec's own bound is overridden per x value.
    fabric.budget = match scale {
        Scale::Quick => 6,
        Scale::Paper => 32,
    };
    fabric.congestion_bound = *bounds.last().expect("bounds are non-empty");
    ExperimentSpec::new(
        "fabric-sweep",
        "Congestion-bound sweep: fabric cost vs core congestion trade-off",
        default_repetitions(scale),
        ExperimentKind::FabricCongestionSweep {
            title: format!("Fabric {}, k = {}", fabric.topology.label(), fabric.budget),
            fabric,
            bounds,
            seed_stride: 67,
        },
    )
}

/// Looks up a predefined experiment by registry name.
pub fn by_name(name: &str, scale: Scale) -> Option<ExperimentSpec> {
    Some(match name {
        "fig2" => fig2(),
        "fig3" => fig3(),
        "fig6" => fig6(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(scale),
        "fig9-smoke" => fig9_smoke(),
        "fig10a" => fig10a(scale),
        "fig10b" => fig10b(scale),
        "fig11a" => fig11a(),
        "fig11c" => fig11c(scale),
        "ablation" => ablation(scale),
        "gather-bench" => gather_bench(),
        "obs-bench" => obs_bench(),
        "gather-scale" => gather_scale(scale),
        "dynamic-churn" => dynamic_churn(scale),
        "fabric" => fabric(scale),
        "fabric-sweep" => fabric_sweep(scale),
        _ => return None,
    })
}

/// All predefined experiments at the given scale, in the order of [`NAMES`].
pub fn all(scale: Scale) -> Vec<ExperimentSpec> {
    NAMES
        .iter()
        .map(|&name| by_name(name, scale).expect("every registry name resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_round_trips() {
        for &name in &NAMES {
            let spec = by_name(name, Scale::Quick).expect("registered");
            assert_eq!(spec.name, name);
            assert_eq!(spec.version, crate::spec::SPEC_VERSION);
            let json = serde_json::to_string(&spec).unwrap();
            let parsed: ExperimentSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(parsed, spec, "{name} round-trips through JSON");
        }
        assert!(by_name("nonsense", Scale::Quick).is_none());
        assert_eq!(all(Scale::Paper).len(), NAMES.len());
    }

    #[test]
    fn scales_change_sizes_not_structure() {
        let quick = by_name("fig6", Scale::Quick).unwrap();
        let paper = by_name("fig6", Scale::Paper).unwrap();
        assert_eq!(quick.name, paper.name);
        assert_ne!(quick, paper);
        match (&quick.kind, &paper.kind) {
            (
                ExperimentKind::StrategyGrid {
                    n: nq, cells: cq, ..
                },
                ExperimentKind::StrategyGrid {
                    n: np, cells: cp, ..
                },
            ) => {
                assert_eq!(*nq, 128);
                assert_eq!(*np, 256);
                assert_eq!(cq.len(), 6);
                assert_eq!(cp.len(), 6);
            }
            _ => panic!("fig6 is a strategy grid"),
        }
        assert_eq!(default_repetitions(Scale::Paper), 10);
        assert_eq!(bt_size(Scale::Quick), 128);
    }

    #[test]
    fn fabric_specs_gate_the_oracle_by_scale() {
        let quick = by_name("fabric", Scale::Quick).unwrap();
        let paper = by_name("fabric", Scale::Paper).unwrap();
        match (&quick.kind, &paper.kind) {
            (
                ExperimentKind::FabricSolve { solvers: sq, .. },
                ExperimentKind::FabricSolve {
                    solvers: sp,
                    fabric,
                    ..
                },
            ) => {
                assert!(
                    sq.iter().any(|s| s == "fabric-brute"),
                    "quick scale cross-checks against the oracle"
                );
                assert!(
                    !sp.iter().any(|s| s == "fabric-brute"),
                    "paper scale must not run the exhaustive oracle"
                );
                assert!(fabric.topology.n_switches() > 100, "paper scale is big");
            }
            _ => panic!("fabric is a FabricSolve spec"),
        }
        // Both scales of both fabric specs validate (the paper sweep included).
        for name in ["fabric", "fabric-sweep"] {
            for scale in [Scale::Quick, Scale::Paper] {
                by_name(name, scale).unwrap().validate().unwrap();
            }
        }
    }
}
