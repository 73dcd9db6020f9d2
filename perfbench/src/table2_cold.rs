//! `table2-cold`: the paper's headline table at the harness horizon on
//! a fresh threaded session with no result cache.
//!
//! 18 suite workloads × 8/16/32 kB direct-mapped, 16 B lines, M = 4,
//! `probing`, `nbti-45nm`: 54 scenarios, each its own trace generation
//! and simulation (about 34.6 M accesses at 640k cycles). Trace
//! synthesis and simulation split the time; the model is a sliver.
//! `replay_s` replays the pass's results from a journal written after
//! the timed run, so the cold run itself never touches a cache.

use crate::meta::nproc;
use crate::run::{self, Checks, Config, Outcome, Pass, Replayed, Trace};
use crate::spans::{self, BenchObserver, TimedCache, Tracer};
use aging_cache::exec::ExecOptions;
use aging_cache::model::ModelContext;
use aging_cache::presets;
use aging_cache::rescache::{CachedMeasurement, Fingerprint, JsonlCache, ResultCache};
use aging_cache::session::StudySession;
use aging_cache::study::ScenarioGrid;
use aging_cache::workload::WorkloadRegistry;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Journal replays per pass: a replay takes a few milliseconds, so
/// `replay_s` is the median of many.
const REPLAYS: usize = 15;

/// The suite workload names, in suite order.
pub fn suite_names() -> Vec<String> {
    trace_synth::suite::mediabench()
        .iter()
        .map(|p| p.name().to_string())
        .collect()
}

fn session(tracer: Option<&Arc<Tracer>>, observer: &BenchObserver) -> StudySession {
    let ctx = match tracer {
        Some(t) => ModelContext::with_registry(spans::timed_models(["nbti-45nm"], t)),
        None => ModelContext::new(),
    };
    StudySession::with_context(ctx)
        .exec(ExecOptions::threaded().with_threads(nproc()))
        .observer(observer.clone())
}

/// The Table II grid at the harness horizon, trace seeds shifted by
/// the workload seed.
fn grid(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<ScenarioGrid, String> {
    let names: Vec<String> = if cfg.tiny {
        suite_names().into_iter().take(2).collect()
    } else {
        suite_names()
    };
    let mut harness = repro_bench::default_config();
    if cfg.tiny {
        harness = harness.with_trace_cycles(40_000);
    }
    let mut spec = presets::table2(&harness)
        .base_seed(cfg.base_seed())
        .workload_names(&names)
        .map_err(|e| e.to_string())?;
    if let Some(t) = tracer {
        spec = spec.workload_objects(spans::timed_objects(&names, t));
    }
    spec.expand().map_err(|e| e.to_string())
}

/// One replay of the journal in `dir` on a fresh session.
pub fn replay(cfg: &Config, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Replayed, String> {
    let grid = grid(cfg, tracer)?;
    let t = Instant::now();
    let journal = spans::open_journal(dir, tracer).map_err(|e| e.to_string())?;
    let observer = BenchObserver::new(tracer.cloned());
    let warm = match tracer {
        Some(tr) => session(tracer, &observer).cache(TimedCache::new(journal, tr)),
        None => session(None, &observer).cache(journal),
    };
    let report = warm.run_grid(&grid).map_err(|e| format!("replay: {e}"))?;
    Ok(Replayed::new(t, &report.to_json(), &[warm.stats()]))
}

fn one_pass(cfg: &Config, traced: bool, index: usize, checks: &mut Checks) -> Result<Pass, String> {
    let epoch = Instant::now();
    let tracer = traced.then(|| Tracer::new(epoch));

    // Set-up: session, spec and expansion.
    let observer = BenchObserver::new(tracer.clone());
    let cold = session(tracer.as_ref(), &observer);
    let grid = grid(cfg, tracer.as_ref())?;
    let setup_s = run::secs(epoch);

    // Measured: the cold run.
    observer.submit();
    let t = Instant::now();
    let report = cold.run_grid(&grid).map_err(|e| format!("cold run: {e}"))?;
    let wall_s = run::secs(t);
    let cold_phase = tracer.as_ref().map(|tr| (tr.at(t), tr.now()));
    let json = report.to_json();
    let digest = run::digest(json.as_bytes());
    let expected = grid.len();
    let stats = cold.stats();
    checks.expect(
        "cold table2 run",
        &[
            (report.records().len() == expected, "record count"),
            (
                stats.simulations == expected,
                "every scenario simulates once",
            ),
            (stats.cache_hits == 0, "no cache on the cold run"),
        ],
    );

    // Untimed: journal the cold results for the replays.
    let dir = cfg.work_dir(&format!("journal{index}"));
    {
        let journal = JsonlCache::in_dir(&dir).map_err(|e| e.to_string())?;
        let builtin = WorkloadRegistry::builtin();
        for r in report.records() {
            let w = builtin.get(&r.scenario.workload).ok_or("suite workload")?;
            journal
                .store(
                    &Fingerprint::for_scenario(&r.scenario, w.as_ref()),
                    &CachedMeasurement::of_record(r),
                )
                .map_err(|e| e.to_string())?;
        }
    }

    // Measured: fresh sessions replay from the journal.
    let replayed = (0..REPLAYS)
        .map(|_| replay(cfg, &dir, tracer.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    for r in &replayed {
        r.check(checks, &digest);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let accesses: u64 = report.records().iter().map(|r| r.sim_cycles).sum();
    let (lt_err, esav_err) = run::table2_accuracy(&report);
    let mut pass = Pass {
        setup_s,
        wall_s,
        replay_s: crate::stats::median(&replayed.iter().map(|r| r.secs).collect::<Vec<_>>()),
        scenarios: expected as f64,
        accesses: accesses as f64,
        probes: expected as f64,
        latencies_ms: observer.latencies_ms(),
        digest,
        ..Pass::default()
    };
    pass.layer.insert("table2_lt_err".into(), lt_err);
    pass.layer.insert("table2_esav_err".into(), esav_err);
    if let (Some(tr), Some(cp)) = (&tracer, cold_phase) {
        pass.trace = Trace {
            spans: tr.spans(),
            phases: std::iter::once(cp)
                .chain(replayed.iter().map(|r| r.phase(tr)))
                .collect(),
        };
        let mut layer = run::span_metrics(&pass.trace);
        let replay_scenarios: usize = replayed.iter().map(|r| r.scenarios).sum();
        layer.insert(
            "session.scenarios".into(),
            (stats.scenarios + replay_scenarios) as f64,
        );
        layer.insert("session.simulations".into(), stats.simulations as f64);
        layer.insert("session.sim_memo_hits".into(), stats.sim_memo_hits as f64);
        layer.insert(
            "session.sim_dedup_ratio".into(),
            run::distinct_sim_keys(&grid) as f64 / stats.simulations.max(1) as f64,
        );
        pass.layer.append(&mut layer);
    }
    Ok(pass)
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let (plain, traced) = run::batch_loop(cfg, &mut out.checks, 3, |traced, i, checks| {
        one_pass(cfg, traced, i, checks)
    });
    run::check_identical(&mut out.checks, &plain, &traced);
    run::batch_end_to_end(&plain, &mut out.metrics);
    out.notes.push(run::pass_summary(&plain));
    if let Some(p) = plain.first() {
        out.digests.insert("table2_report".into(), p.digest.clone());
        let lt = p.layer.get("table2_lt_err").copied().unwrap_or(0.0);
        let esav = p.layer.get("table2_esav_err").copied().unwrap_or(0.0);
        out.notes.push(format!(
            "accuracy vs paper Table II: table2_lt_err {lt:.6} ratio, table2_esav_err {esav:.6} ratio"
        ));
    }
    if cfg.trace {
        run::batch_per_layer(&plain, &traced, &mut out.metrics);
        run::check_reconciled(&mut out.checks, &out.metrics);
        out.traces = traced.into_iter().map(|p| p.trace).collect();
    }
    out
}
