//! `optimize-temp`: three searches over the 33-point operating
//! temperature axis (`nbti:temp=` 45…141 °C in 3 °C steps) on `sha` at
//! 40k cycles with a 4-seed ensemble, each on a fresh cold session:
//! refine (max `lt_years`), bisect (the `lt_years ≥` floor boundary)
//! and exhaustive, the reference both adaptive strategies must agree with.
//!
//! Probes run one after another and each calibrates a new model key,
//! so this is the latency-bound use of the model layer and the search
//! strategies. `replay_s` re-runs the three searches on fresh sessions
//! over the journals the cold ones wrote.

use crate::meta::nproc;
use crate::run::{self, Checks, Config, Outcome, Pass, Replayed, Trace};
use crate::spans::{self, BenchObserver, TimedCache, Tracer};
use aging_cache::exec::ExecOptions;
use aging_cache::model::ModelContext;
use aging_cache::search::{
    self, Constraint, Driver, Objective, ScenarioSpace, Search, SearchReport,
};
use aging_cache::session::StudySession;
use aging_cache::study::StudySpec;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The lifetime floor of the boundary search, years.
pub const FLOOR_YEARS: f64 = 3.5;
/// Seed-ensemble size of every search.
pub const ENSEMBLE: usize = 4;

fn temps(cfg: &Config) -> Vec<String> {
    let hi = if cfg.tiny { 54.0 } else { 141.0 };
    search::steps(45.0, hi, 3.0)
        .expect("static axis")
        .into_iter()
        .map(|t| format!("nbti:temp={t}"))
        .collect()
}

fn space(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<ScenarioSpace, String> {
    let mut spec = StudySpec::new("optimize-temp")
        .models(temps(cfg))
        .workload_names(["sha"])
        .map_err(|e| e.to_string())?
        .trace_cycles(if cfg.tiny { 2_000 } else { 40_000 })
        .base_seed(cfg.base_seed());
    if let Some(t) = tracer {
        spec = spec.workload_objects(spans::timed_objects(&["sha".to_string()], t));
    }
    Ok(ScenarioSpace::grid(spec))
}

/// The three searches, in run order.
fn searches(cfg: &Config, tracer: Option<&Arc<Tracer>>) -> Result<[Search; 3], String> {
    Ok([
        Search::new(space(cfg, tracer)?, Objective::maximize("lt_years"))
            .driver(Driver::Refine)
            .ensemble(ENSEMBLE),
        Search::new(space(cfg, tracer)?, Objective::minimize("lt_years"))
            .constraint(Constraint::at_least("lt_years", FLOOR_YEARS).map_err(|e| e.to_string())?)
            .driver(Driver::Bisect)
            .ensemble(ENSEMBLE),
        Search::new(space(cfg, tracer)?, Objective::maximize("lt_years")).ensemble(ENSEMBLE),
    ])
}

fn session(
    cfg: &Config,
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
        Some(t) => base(ModelContext::with_registry(spans::timed_models(
            temps(cfg).iter().map(String::as_str),
            t,
        )))
        .cache(TimedCache::new(journal, t)),
        None => base(ModelContext::new()).cache(journal),
    })
}

/// The exhaustive report's answer to the boundary question: the
/// feasible (mean `lt_years` ≥ floor) candidate of least lifetime.
fn boundary_of(full: &SearchReport) -> Option<usize> {
    full.batches()
        .iter()
        .flat_map(|b| &b.probes)
        .filter(|p| p.value >= FLOOR_YEARS)
        .min_by(|a, b| a.value.total_cmp(&b.value))
        .map(|p| p.index)
}

/// One journal directory per search under `root`.
fn journal_dirs(root: &Path) -> [PathBuf; 3] {
    ["refine", "bisect", "exhaustive"].map(|d| root.join(d))
}

/// The three searches replayed on fresh sessions over their journals
/// under `root`.
pub fn replay(cfg: &Config, root: &Path, tracer: Option<&Arc<Tracer>>) -> Result<Replayed, String> {
    let plan = searches(cfg, tracer)?;
    let t = Instant::now();
    let observer = BenchObserver::new(tracer.cloned());
    let mut json = String::new();
    let mut stats = Vec::new();
    for (search, dir) in plan.iter().zip(journal_dirs(root)) {
        let s = session(cfg, &dir, tracer, &observer)?;
        json.push_str(
            &search
                .run(&s)
                .map_err(|e| format!("replay: {e}"))?
                .to_json(),
        );
        stats.push(s.stats());
    }
    Ok(Replayed::new(t, &json, &stats))
}

fn one_pass(cfg: &Config, traced: bool, index: usize, checks: &mut Checks) -> Result<Pass, String> {
    let epoch = Instant::now();
    let tracer = traced.then(|| Tracer::new(epoch));

    // Set-up: the searches, three fresh journal directories and sessions.
    let plan = searches(cfg, tracer.as_ref())?;
    let root = cfg.work_dir(&format!("journal{index}"));
    let dirs = journal_dirs(&root);
    let observer = BenchObserver::new(tracer.clone());
    let cold: Vec<StudySession> = dirs
        .iter()
        .map(|d| session(cfg, d, tracer.as_ref(), &observer))
        .collect::<Result<_, _>>()?;
    let setup_s = run::secs(epoch);

    // Measured: the three cold searches.
    let t = Instant::now();
    let mut reports = Vec::new();
    for (search, s) in plan.iter().zip(&cold) {
        observer.submit();
        reports.push(
            search
                .run(s)
                .map_err(|e| format!("{} search: {e}", search.driver_kind().key()))?,
        );
    }
    let wall_s = run::secs(t);
    let cold_phase = tracer.as_ref().map(|tr| (tr.at(t), tr.now()));
    let incumbent = |r: &SearchReport| r.incumbent().map(|p| p.index);
    let (refine, bisect, full) = (&reports[0], &reports[1], &reports[2]);
    checks.expect(
        "refine search",
        &[(
            incumbent(refine).is_some() && incumbent(refine) == incumbent(full),
            "refine incumbent differs from the exhaustive one",
        )],
    );
    checks.expect(
        "bisect search",
        &[(
            incumbent(bisect).is_some() && incumbent(bisect) == boundary_of(full),
            "bisect boundary differs from the exhaustive one",
        )],
    );
    checks.expect(
        "exhaustive search",
        &[(
            full.probes_issued() == full.space_len(),
            "exhaustive must probe the whole space",
        )],
    );
    let stats: Vec<_> = cold.iter().map(StudySession::stats).collect();
    drop(cold);

    // Measured: the same searches replayed from their journals.
    let json: String = reports.iter().map(SearchReport::to_json).collect();
    let digest = run::digest(json.as_bytes());
    let replayed = replay(cfg, &root, tracer.as_ref())?;
    replayed.check(checks, &digest);
    let replay_s = replayed.secs;
    let _ = std::fs::remove_dir_all(&root);

    let probes: usize = reports.iter().map(SearchReport::probes_issued).sum();
    let records: usize = reports.iter().map(|r| r.probed().records().len()).sum();
    let distinct: usize = stats.len() * ENSEMBLE;
    let cycles = reports[0].probed().records()[0].scenario.trace_cycles;
    let mut pass = Pass {
        setup_s,
        wall_s,
        replay_s,
        scenarios: records as f64,
        accesses: (distinct as u64 * cycles) as f64,
        probes: probes as f64,
        latencies_ms: observer.latencies_ms(),
        digest,
        ..Pass::default()
    };
    if let (Some(tr), Some(a)) = (&tracer, cold_phase) {
        pass.trace = Trace {
            spans: tr.spans(),
            phases: std::iter::once(a)
                .chain(std::iter::once(replayed.phase(tr)))
                .collect(),
        };
        let mut layer = run::span_metrics(&pass.trace);
        let sum = |f: &dyn Fn(&aging_cache::session::SessionStats) -> usize| {
            stats.iter().map(f).sum::<usize>() as f64
        };
        let sims = sum(&|s| s.simulations);
        layer.insert("session.scenarios".into(), sum(&|s| s.scenarios));
        layer.insert("session.simulations".into(), sims);
        layer.insert("session.sim_memo_hits".into(), sum(&|s| s.sim_memo_hits));
        layer.insert(
            "session.sim_dedup_ratio".into(),
            distinct as f64 / sims.max(1.0),
        );
        let space = full.space_len() as f64;
        layer.insert("search.probes".into(), probes as f64);
        layer.insert("search.space".into(), space);
        layer.insert("search.probe_ratio".into(), probes as f64 / (3.0 * space));
        layer.insert(
            "search.probe_ms".into(),
            1e3 * wall_s / probes.max(1) as f64,
        );
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
        out.digests
            .insert("search_reports".into(), p.digest.clone());
    }
    if cfg.trace {
        run::batch_per_layer(&plain, &traced, &mut out.metrics);
        run::check_reconciled(&mut out.checks, &out.metrics);
        out.traces = traced.into_iter().map(|p| p.trace).collect();
    }
    out
}
