//! The benchmark's self-test: the definition in `BENCHMARK.json` is
//! well-formed and in step with the layer map, and every workload runs
//! at a tiny size, untraced and traced, with its output checks passing;
//! the traced run's reconciliation fails when a layer goes untimed.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use aging_cache::json::Json;
use perfbench::catalog::{Catalog, ALL, BENCHMARK_JSON, LAYER_MAP, NONE, RECONCILE_SLACK};
use perfbench::run::{self, Config, Trace};
use perfbench::spans::Kind;
use perfbench::{execute, WORKLOADS};
use std::path::PathBuf;

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn definition_is_well_formed() {
    let root = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Json::Obj(pairs) = &root else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let catalog = Catalog::committed();
    assert_eq!(catalog.workloads, WORKLOADS);
    assert!(catalog.end_to_end.len() <= 16 && !catalog.end_to_end.is_empty());
    assert!(catalog.per_layer.len() <= 128 && !catalog.per_layer.is_empty());
    let mut seen = std::collections::BTreeSet::new();
    for m in catalog.end_to_end.iter().chain(&catalog.per_layer) {
        assert!(valid_name(&m.name), "metric name {}", m.name);
        assert!(valid_unit(&m.unit), "unit {} of {}", m.unit, m.name);
        assert!(seen.insert(m.name.clone()), "{} is listed twice", m.name);
    }
    for m in &catalog.end_to_end {
        let bound = m.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
    }
    for m in &catalog.per_layer {
        assert!(
            m.bound.is_none(),
            "per-layer metric {} has no bound",
            m.name
        );
    }
    let setup = catalog.metric("setup_s").expect("setup_s is defined");
    assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
    let largest = catalog
        .end_to_end
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );
    for w in root
        .field("workloads")
        .unwrap()
        .as_arr("workloads")
        .unwrap()
    {
        let why = w.field("why").unwrap().as_str("why").unwrap();
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let catalog = Catalog::committed();
    let listed: Vec<&str> = catalog.per_layer.iter().map(|m| m.name.as_str()).collect();
    let mapped: Vec<&str> = LAYER_MAP.iter().map(|l| l.metric).collect();
    assert_eq!(
        listed, mapped,
        "BENCHMARK.json per_layer and LAYER_MAP list the same metrics in order"
    );
    for link in LAYER_MAP {
        assert!(
            link.moves == NONE || catalog.end_to_end.iter().any(|m| m.name == link.moves),
            "{} moves unknown metric {}",
            link.metric,
            link.moves
        );
        assert!(
            link.on == ALL || WORKLOADS.contains(&link.on),
            "{} names unknown workload {}",
            link.metric,
            link.on
        );
        for w in link.idle_on {
            assert!(
                WORKLOADS.contains(w),
                "{} idle on unknown workload {w}",
                link.metric
            );
        }
    }
}

fn tiny(workload: &str, trace: bool) -> Config {
    Config {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.01,
        trace,
        tiny: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{workload}-{trace}")),
    }
}

fn runs_clean(workload: &str) {
    let catalog = Catalog::committed();
    for trace in [false, true] {
        let cfg = tiny(workload, trace);
        let outcome = execute(&cfg);
        assert!(
            outcome.checks.failed == 0 && outcome.checks.attempted > 0,
            "{workload} trace={trace}: {:?}",
            outcome.checks.messages
        );
        let (_, result) = run::render(&cfg, &catalog, &outcome);
        let list = if trace {
            &catalog.per_layer
        } else {
            &catalog.end_to_end
        };
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            panic!("result carries metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = list.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, want);
        for name in &want {
            let v = outcome.metrics.get(*name).copied();
            if trace {
                assert!(v.is_none_or(f64::is_finite), "{workload}: {name} = {v:?}");
            } else {
                assert!(
                    v.is_some_and(|v| v.is_finite() && v > 0.0),
                    "{workload}: end-to-end {name} = {v:?} must be measured and non-zero"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
    }
}

#[test]
fn table2_cold_runs_tiny() {
    runs_clean("table2-cold");
}

#[test]
fn sweep_journal_runs_tiny() {
    runs_clean("sweep-journal");
}

#[test]
fn serve_warm_runs_tiny() {
    runs_clean("serve-warm");
}

#[test]
fn optimize_temp_runs_tiny() {
    runs_clean("optimize-temp");
}

#[test]
fn reconciliation_fails_when_a_layer_wrapper_is_missing() {
    let cfg = tiny("table2-cold", true);
    let outcome = execute(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.out_dir);
    assert!(!outcome.traces.is_empty(), "the traced run keeps its spans");
    for trace in &outcome.traces {
        let all = run::unattributed(trace);
        // A workload opened without the timed trace source: no `traces`
        // and no `sim` spans, while the scenario spans remain.
        let without = Trace {
            spans: trace
                .spans
                .iter()
                .filter(|s| !matches!(s.kind, Kind::Traces | Kind::Sim))
                .cloned()
                .collect(),
            phases: trace.phases.clone(),
        };
        let missing = run::unattributed(&without);
        eprintln!("unattributed: all layers {all:.4}, without traces/sim {missing:.4}");
        assert!(all <= RECONCILE_SLACK, "all layers leave {all:.4}");
        assert!(
            missing > RECONCILE_SLACK,
            "without the trace source wrapper only {missing:.4} is unexplained"
        );
    }
}
