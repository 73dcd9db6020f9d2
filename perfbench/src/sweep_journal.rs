//! `sweep-journal`: a wide cold sweep with many scenarios per trace,
//! journaled, then replayed by a fresh session.
//!
//! 16 kB, ways {1, 4} × L2 {none, 64 kB 4-way} × 18 suite workloads at
//! 40k cycles (72 distinct traces), crossed with 5 policies × models
//! {`nbti-45nm`, `drv`, `variation:30`} × temps {45, 85, 125} °C ×
//! update-days {1, 30}: 6480 scenarios. Model calibration and
//! evaluation, the session's simulation memo and the journal dominate;
//! it is the only workload on the associative and L1+L2 paths.

use crate::meta::nproc;
use crate::run::{self, Checks, Config, Outcome, Pass, Replayed, Trace};
use crate::spans::{self, BenchObserver, TimedCache, Tracer};
use crate::table2_cold::suite_names;
use aging_cache::exec::ExecOptions;
use aging_cache::model::ModelContext;
use aging_cache::rescache::JsonlCache;
use aging_cache::session::StudySession;
use aging_cache::study::{ScenarioGrid, StudySpec};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The sweep's grid.
fn grid(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<ScenarioGrid, String> {
    let names: Vec<String> = if cfg.tiny {
        suite_names().into_iter().take(2).collect()
    } else {
        suite_names()
    };
    let mut spec = StudySpec::new("sweep-journal")
        .cache_kb([16])
        .ways([1, 4])
        .l2_cache_kb([0, 64])
        .l2_ways([4])
        .policies(["identity", "probing", "scrambling", "gray", "rotate-xor"])
        .models(["nbti-45nm", "drv", "variation:30"])
        .temps_c([45.0, 85.0, 125.0])
        .update_days([1.0, 30.0])
        .trace_cycles(if cfg.tiny { 2_000 } else { 40_000 })
        .base_seed(cfg.base_seed())
        .workload_names(&names)
        .map_err(|e| e.to_string())?;
    if let Some(t) = tracer {
        spec = spec.workload_objects(spans::timed_objects(&names, t));
    }
    spec.expand().map_err(|e| e.to_string())
}

/// A session over the journal in `dir`; traced, its models and cache
/// are the timed wrappers.
fn session(
    grid: &ScenarioGrid,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
    observer: &BenchObserver,
) -> Result<StudySession, String> {
    let journal = spans::open_journal(dir, tracer).map_err(|e| e.to_string())?;
    let base = |ctx| {
        StudySession::with_context(ctx)
            .exec(ExecOptions::threaded().with_threads(nproc()))
            .observer(observer.clone())
    };
    Ok(match tracer {
        Some(t) => {
            let keys: BTreeSet<&str> = grid.scenarios().iter().map(|s| s.model.as_str()).collect();
            base(ModelContext::with_registry(spans::timed_models(keys, t)))
                .cache(TimedCache::new(journal, t))
        }
        None => base(ModelContext::new()).cache(journal),
    })
}

/// One replay of the journal in `dir` on a fresh session.
pub fn replay(cfg: &Config, dir: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Replayed, String> {
    let grid = grid(cfg, tracer)?;
    let t = Instant::now();
    let warm = session(&grid, dir, tracer, &BenchObserver::new(tracer.cloned()))?;
    let report = warm.run_grid(&grid).map_err(|e| format!("replay: {e}"))?;
    Ok(Replayed::new(t, &report.to_json(), &[warm.stats()]))
}

fn one_pass(cfg: &Config, traced: bool, index: usize, checks: &mut Checks) -> Result<Pass, String> {
    let epoch = Instant::now();
    let tracer = traced.then(|| Tracer::new(epoch));

    // Set-up: a fresh journal directory, the grid and the session.
    let dir = cfg.work_dir(&format!("journal{index}"));
    let grid = grid(cfg, tracer.as_ref())?;
    let observer = BenchObserver::new(tracer.clone());
    let cold = session(&grid, &dir, tracer.as_ref(), &observer)?;
    let setup_s = run::secs(epoch);

    // Measured: the cold pass journals every scenario.
    observer.submit();
    let t = Instant::now();
    let report = cold
        .run_grid(&grid)
        .map_err(|e| format!("cold sweep: {e}"))?;
    let wall_s = run::secs(t);
    let cold_phase = tracer.as_ref().map(|tr| (tr.at(t), tr.now()));
    let stats = cold.stats();
    let digest = run::digest(report.to_json().as_bytes());
    let n = grid.len();
    checks.expect(
        "cold sweep",
        &[
            (report.records().len() == n, "record count"),
            (stats.cache_stores == n, "every scenario journaled"),
        ],
    );
    drop(cold);
    let journal_bytes = std::fs::metadata(dir.join(JsonlCache::FILE_NAME))
        .map(|m| m.len())
        .unwrap_or(0);

    // Measured: a fresh session replays the same spec from the journal.
    let replayed = replay(cfg, &dir, tracer.as_ref())?;
    replayed.check(checks, &digest);
    let _ = std::fs::remove_dir_all(&dir);

    let distinct = run::distinct_sim_keys(&grid);
    let mut pass = Pass {
        setup_s,
        wall_s,
        replay_s: replayed.secs,
        scenarios: n as f64,
        accesses: (distinct as u64 * grid.scenarios()[0].trace_cycles) as f64,
        probes: n as f64,
        latencies_ms: observer.latencies_ms(),
        digest,
        ..Pass::default()
    };
    if let (Some(tr), Some(cp)) = (&tracer, cold_phase) {
        pass.trace = Trace {
            spans: tr.spans(),
            phases: std::iter::once(cp)
                .chain(std::iter::once(replayed.phase(tr)))
                .collect(),
        };
        let mut layer = run::span_metrics(&pass.trace);
        layer.insert(
            "session.scenarios".into(),
            (stats.scenarios + replayed.scenarios) as f64,
        );
        layer.insert("session.simulations".into(), stats.simulations as f64);
        layer.insert("session.sim_memo_hits".into(), stats.sim_memo_hits as f64);
        // Racy by design of the memo today (check, then compute): kept
        // as measured, below 1 when two workers simulate one key.
        layer.insert(
            "session.sim_dedup_ratio".into(),
            distinct as f64 / stats.simulations.max(1) as f64,
        );
        layer.insert("rescache.journal_bytes".into(), journal_bytes as f64);
        pass.layer = layer;
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
        out.digests.insert("sweep_report".into(), p.digest.clone());
    }
    if cfg.trace {
        run::batch_per_layer(&plain, &traced, &mut out.metrics);
        run::check_reconciled(&mut out.checks, &out.metrics);
        out.traces = traced.into_iter().map(|p| p.trace).collect();
    }
    out
}
