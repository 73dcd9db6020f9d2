//! The [`StudySession`] front door of the execution layer: one
//! long-lived object owning the [`ModelContext`], the policy and
//! workload registries, a session-scoped simulation memo and an
//! optional [`ResultCache`] — so repeated and overlapping studies are
//! incremental instead of from-scratch.
//!
//! [`StudySession::run`] and [`StudySession::run_grid`] are the only
//! way to run a grid. A one-off study is `StudySession::new().run(&spec)`:
//! a fresh memo, no cache and the default executor. Holding the session
//! across runs is what makes studies incremental:
//!
//! * the **simulation memo** outlives each run, so grids that share
//!   `(geometry, workload, seed, horizon)` points — `repro_all`'s
//!   Tables I–IV, a preset re-run with one widened axis — simulate
//!   each distinct trace exactly once per session;
//! * the **[`ResultCache`]** (in-memory or on-disk JSONL) skips
//!   simulation *and* model evaluation for any scenario measured
//!   before, in this process or a previous one: a warm re-run
//!   executes zero simulations and still emits a byte-identical
//!   report, and an interrupted sweep resumes from its journal;
//! * **[`ExecOptions`]** select the executor backend; an
//!   **[`ExecObserver`]** streams per-record progress;
//! * [`StudySession::stats`] exposes the counters behind all of the
//!   above — simulations actually run, memo hits, cache hits/stores,
//!   model calibrations and evaluations — so "the cache worked" is an
//!   assertable fact, not a hope.
//!
//! # Examples
//!
//! Two overlapping presets sharing one session (the second run's
//! 16 kB column re-uses every simulation of the first):
//!
//! ```no_run
//! use aging_cache::session::StudySession;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new();
//! let narrow = session.spec("narrow").cache_kb([16]).workload_names(["sha"])?;
//! let wide = session.spec("wide").cache_kb([8, 16]).workload_names(["sha"])?;
//! session.run(&narrow)?;
//! session.run(&wide)?;
//! let stats = session.stats();
//! assert_eq!(stats.scenarios, 3);
//! assert_eq!(stats.simulations, 2, "the 16 kB point simulated once");
//! # Ok(())
//! # }
//! ```
//!
//! A persistent on-disk cache: the second process re-emits the same
//! report without simulating anything:
//!
//! ```no_run
//! use aging_cache::rescache::JsonlCache;
//! use aging_cache::session::StudySession;
//!
//! # fn main() -> Result<(), aging_cache::CoreError> {
//! let session = StudySession::new().cache(JsonlCache::in_dir("./study-cache")?);
//! let spec = session.spec("sweep").cache_kb([8, 16]).workload_names(["sha"])?;
//! let report = session.run(&spec)?;
//! // … later, in a fresh process:
//! let resumed = StudySession::new().cache(JsonlCache::in_dir("./study-cache")?);
//! let replay = resumed.run(&spec)?;
//! assert_eq!(resumed.stats().simulations, 0);
//! assert_eq!(replay.to_json(), report.to_json());
//! # Ok(())
//! # }
//! ```

use crate::arch::{simulate_fanout, PartitionedCache, SimTarget, UpdateSchedule};
use crate::error::CoreError;
use crate::exec::{ExecObserver, ExecOptions, Executor, RecordOrigin, ThreadedExecutor};
use crate::flight::SingleFlight;
use crate::model::{AgingModel, ModelContext, ModelEval};
use crate::registry::PolicyRegistry;
use crate::rescache::{workload_identity, CachedMeasurement, Fingerprint, ResultCache};
use crate::study::{Scenario, ScenarioGrid, ScenarioRecord, StudyReport, StudySpec};
use crate::workload::{Workload, WorkloadRegistry};
use cache_sim::CacheGeometry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Measured simulation outputs shared by scenarios that differ only in
/// policy, model or update period.
struct SimMeasurement {
    cycles: u64,
    esav: f64,
    miss_rate: f64,
    useful_idleness: Vec<f64>,
    sleep_fractions: Vec<f64>,
    /// Per-bank L2 sleep fractions for hierarchy scenarios
    /// (`l2_cache_bytes > 0`); `None` for single-level runs.
    l2_sleep_fractions: Option<Vec<f64>>,
}

/// A trace's identity: `(workload identity, trace_seed, trace_cycles)`.
/// The workload identity string (name, or format + content hash for
/// files — see [`workload_identity`]) replaces the historic per-grid
/// workload *index*, so the memo is meaningful across grids within a
/// session. Seed-independent workloads (files) key seed 0.
type TraceKey<S> = (S, u64, u64);

/// A simulated geometry: `(cache_bytes, line_bytes, banks, ways,
/// replacement, l2_cache_bytes, l2_ways)`.
type GeomKey<S> = (u64, u32, u32, u32, S, u64, u32);

/// `(trace, geometry)` → memoized simulation.
type SimKey = (TraceKey<String>, GeomKey<String>);

/// A grid's workload identities and whether the seed is part of each
/// ([`workload_identity`]); `None` for pinned-profile workloads, which
/// measure without simulating.
type Identities = [Option<(String, bool)>];

/// A scenario's simulation key, borrowed from the scenario and the
/// grid's [`Identities`]; `None` for pinned profiles.
fn scenario_key<'a>(
    scenario: &'a Scenario,
    identities: &'a Identities,
) -> Option<(TraceKey<&'a str>, GeomKey<&'a str>)> {
    let (identity, seeded) = identities[scenario.workload_index].as_ref()?;
    Some((
        (
            identity,
            if *seeded { scenario.trace_seed } else { 0 },
            scenario.trace_cycles,
        ),
        (
            scenario.cache_bytes,
            scenario.line_bytes,
            scenario.banks,
            scenario.ways,
            &scenario.replacement,
            scenario.l2_cache_bytes,
            scenario.l2_ways,
        ),
    ))
}

/// Cumulative execution counters, snapshot by [`StudySession::stats`].
///
/// For runs that complete without a scenario error,
/// `scenarios = cache_hits + evaluations`: every record was either
/// replayed whole or model-evaluated. (A failed scenario counts
/// toward `scenarios` but nothing else, so errored runs undercount on
/// the right-hand side.) `simulations` and `sim_memo_hits` need not
/// sum to anything: pinned-profile scenarios measure without
/// simulating, and scenarios sharing a trace split between the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Scenario records produced (computed or replayed).
    pub scenarios: usize,
    /// Trace simulations actually executed: one per geometry
    /// measured, however many geometries one pass over a trace fed.
    pub simulations: usize,
    /// Scenarios whose simulation was replayed from the session memo.
    pub sim_memo_hits: usize,
    /// Device-model evaluations actually executed.
    pub evaluations: usize,
    /// Scenarios replayed whole from the result cache (no simulation,
    /// no model evaluation).
    pub cache_hits: usize,
    /// Measurements newly journaled into the result cache.
    pub cache_stores: usize,
    /// Model calibration solves this session's runs executed: one per
    /// distinct model key a cache miss evaluated, none for a run
    /// replayed whole.
    pub calibrations: usize,
}

#[derive(Default)]
struct Counters {
    scenarios: AtomicUsize,
    simulations: AtomicUsize,
    sim_memo_hits: AtomicUsize,
    evaluations: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_stores: AtomicUsize,
    calibrations: AtomicUsize,
}

impl Counters {
    fn snapshot(&self) -> SessionStats {
        SessionStats {
            scenarios: self.scenarios.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
            sim_memo_hits: self.sim_memo_hits.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_stores: self.cache_stores.load(Ordering::Relaxed),
            calibrations: self.calibrations.load(Ordering::Relaxed),
        }
    }
}

/// The long-lived front door of the execution layer.
///
/// See the [module docs](self) for the full tour. Construction is
/// free; models calibrate lazily (once per distinct canonical key,
/// session-wide, on the first cache miss that evaluates the key) and
/// the simulation memo fills as grids run.
pub struct StudySession {
    ctx: ModelContext,
    policies: PolicyRegistry,
    workloads: WorkloadRegistry,
    replacements: cache_sim::ReplacementRegistry,
    /// The simulation memo, single-flight across workers and runs: a
    /// worker claims the keys nobody holds before simulating them, and
    /// waits out the ones another worker is simulating.
    memo: SingleFlight<SimKey, Arc<SimMeasurement>>,
    cache: Option<Box<dyn ResultCache>>,
    exec: ExecOptions,
    observer: Option<Box<dyn ExecObserver>>,
    counters: Counters,
}

impl std::fmt::Debug for StudySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudySession")
            .field("exec", &self.exec)
            .field("cached", &self.cache.as_ref().map(|c| c.len()))
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for StudySession {
    fn default() -> Self {
        Self::new()
    }
}

impl StudySession {
    /// A session over the built-in registries and a fresh
    /// [`ModelContext`], threaded executor, no result cache.
    pub fn new() -> Self {
        Self::with_context(ModelContext::new())
    }

    /// A session over a custom [`ModelContext`] (e.g. one whose
    /// registry carries user-registered device models).
    pub fn with_context(ctx: ModelContext) -> Self {
        Self {
            ctx,
            policies: PolicyRegistry::builtin(),
            workloads: WorkloadRegistry::builtin(),
            replacements: cache_sim::ReplacementRegistry::global().clone(),
            memo: SingleFlight::default(),
            cache: None,
            exec: ExecOptions::default(),
            observer: None,
            counters: Counters::default(),
        }
    }

    /// Attaches a result cache (in-memory or on-disk JSONL).
    #[must_use]
    pub fn cache(mut self, cache: impl ResultCache + 'static) -> Self {
        self.cache = Some(Box::new(cache));
        self
    }

    /// Selects the executor backend.
    #[must_use]
    pub fn exec(mut self, exec: ExecOptions) -> Self {
        self.exec = exec;
        self
    }

    /// Attaches a streaming progress observer.
    #[must_use]
    pub fn observer(mut self, observer: impl ExecObserver + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Replaces the session's policy registry (used by
    /// [`StudySession::spec`]).
    #[must_use]
    pub fn policy_registry(mut self, registry: PolicyRegistry) -> Self {
        self.policies = registry;
        self
    }

    /// Replaces the session's workload registry (used by
    /// [`StudySession::spec`]).
    #[must_use]
    pub fn workload_registry(mut self, registry: WorkloadRegistry) -> Self {
        self.workloads = registry;
        self
    }

    /// Replaces the session's replacement-policy registry (used by
    /// [`StudySession::spec`] and by distribution workers rebuilding
    /// manifest subgrids).
    #[must_use]
    pub fn replacement_registry(mut self, registry: cache_sim::ReplacementRegistry) -> Self {
        self.replacements = registry;
        self
    }

    /// The model context (registry + calibration memo) this session
    /// owns.
    pub fn context(&self) -> &ModelContext {
        &self.ctx
    }

    /// The attached result cache, if any.
    pub fn result_cache(&self) -> Option<&dyn ResultCache> {
        self.cache.as_deref()
    }

    /// The session's policy registry (the distribution layer resolves
    /// manifest scenarios against it).
    pub(crate) fn policy_registry_ref(&self) -> &PolicyRegistry {
        &self.policies
    }

    /// The session's workload registry (the distribution layer
    /// resolves manifest workload keys against it).
    pub(crate) fn workload_registry_ref(&self) -> &WorkloadRegistry {
        &self.workloads
    }

    /// The session's replacement-policy registry (the distribution
    /// layer resolves manifest replacement names against it).
    pub(crate) fn replacement_registry_ref(&self) -> &cache_sim::ReplacementRegistry {
        &self.replacements
    }

    /// A new [`StudySpec`] pre-wired with the session's policy,
    /// workload and replacement registries — the spec-building front
    /// door.
    pub fn spec(&self, name: impl Into<String>) -> StudySpec {
        StudySpec::new(name)
            .registry(self.policies.clone())
            .workload_registry(self.workloads.clone())
            .replacement_registry(self.replacements.clone())
    }

    /// Expands and runs a spec through this session.
    ///
    /// # Errors
    ///
    /// Propagates expansion and execution errors.
    pub fn run(&self, spec: &StudySpec) -> Result<StudyReport, CoreError> {
        self.run_grid(&spec.expand()?)
    }

    /// Runs an expanded grid through this session: session memo,
    /// result cache, configured executor and observer all apply.
    ///
    /// # Errors
    ///
    /// Returns model resolution errors (before any cache lookup),
    /// cache backend errors, the first scenario error by grid order
    /// (a failed calibration included), or
    /// [`CoreError::ScenarioPanicked`] if a scenario task panicked.
    pub fn run_grid(&self, grid: &ScenarioGrid) -> Result<StudyReport, CoreError> {
        execute(grid, self)
    }

    /// A snapshot of the session's cumulative execution counters.
    pub fn stats(&self) -> SessionStats {
        self.counters.snapshot()
    }

    /// Verifies a report against this session's result cache, cell by
    /// cell with absolute tolerance `tolerance` — the analysis layer's
    /// [`ReportDiff::against_cache`](crate::analysis::ReportDiff::against_cache)
    /// wired to the session's cache and workload registry. No
    /// simulation and no model evaluation runs: a report replayed from
    /// a warm journal diffs empty.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Report`] when the session has no cache
    /// attached, and propagates workload-resolution and cache backend
    /// errors.
    pub fn diff_cached(
        &self,
        report: &StudyReport,
        tolerance: f64,
    ) -> Result<crate::analysis::ReportDiff, CoreError> {
        let Some(cache) = self.cache.as_deref() else {
            return Err(CoreError::Report {
                message: "diff_cached: this session has no result cache attached".into(),
            });
        };
        crate::analysis::ReportDiff::against_cache(report, cache, &self.workloads, tolerance)
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A scenario's outcome as a work unit hands it to the run.
type Outcome = Result<(ScenarioRecord, RecordOrigin), CoreError>;

/// The resolved model of every model key in a grid.
type Models<'a> = BTreeMap<&'a str, Arc<dyn AgingModel>>;

fn execute(grid: &ScenarioGrid, session: &StudySession) -> Result<StudyReport, CoreError> {
    // Resolve every distinct model key up front, in grid order: an
    // unknown or malformed key fails before any lookup. Resolving only
    // parses; the expensive solve waits for the first cache miss that
    // evaluates the key, so a warm replay calibrates nothing.
    let mut models = Models::new();
    for scenario in grid.scenarios() {
        if !models.contains_key(scenario.model.as_str()) {
            models.insert(
                &scenario.model,
                session.ctx.registry().resolve(&scenario.model)?,
            );
        }
    }

    if let Some(obs) = session.observer.as_deref() {
        obs.on_start(grid.name(), grid.len());
    }
    let identities: Vec<Option<(String, bool)>> = grid
        .workloads()
        .iter()
        .map(|w| {
            w.pinned_profile()
                .is_none()
                .then(|| workload_identity(w.as_ref()))
        })
        .collect();
    let units = work_units(grid, &identities);

    // The spec-level worker cap overrides the session's (threads(1)
    // still forces an in-thread sequential loop, as it always did).
    let mut exec = session.exec.clone();
    if let Some(threads) = grid.threads_cap() {
        exec = exec.with_threads(threads);
    }
    // The process backend runs its distribution phase first: shard the
    // grid across worker processes over the shared journal, then
    // refresh this process's cache handle so the executor pass below
    // replays the merged journal instead of recomputing (it computes
    // only what crashed workers left unfinished).
    if exec.backend == crate::exec::ExecBackend::Process {
        let Some(popts) = exec.process.clone() else {
            return Err(CoreError::Report {
                message:
                    "process backend selected without process options (use ExecOptions::process)"
                        .into(),
            });
        };
        // Small grids are faster in-process: spawn + lease-poll
        // overhead dominates below the threshold (~2× slower than
        // sequential at the 54-scenario reference grid), so fall back
        // to the threaded backend and say so. The report is
        // byte-identical either way — backends only move work around.
        if grid.len() < popts.fallback_threshold {
            if let Some(obs) = session.observer.as_deref() {
                obs.on_notice(&format!(
                    "process backend: {} scenarios is below the fallback threshold ({}); \
                     running threaded instead",
                    grid.len(),
                    popts.fallback_threshold
                ));
            }
            exec = crate::exec::ExecOptions::threaded();
            if let Some(threads) = grid.threads_cap() {
                exec = exec.with_threads(threads);
            }
        } else {
            let Some(cache) = session.cache.as_deref() else {
                return Err(CoreError::Report {
                    message: "process backend requires a result cache over the shared directory \
                              (attach JsonlCache::in_dir on the same dir)"
                        .into(),
                });
            };
            crate::distrib::distribute(grid, cache, session.observer.as_deref(), &popts)?;
            cache.refresh()?;
        }
    }
    // A grid with fewer units than workers spreads each unit's
    // evaluations over the idle workers, so no grid evaluates on fewer
    // threads than one task per scenario would. (The pool is sized
    // once: probing the host's parallelism costs tens of µs, a
    // noticeable share of a warm replay.)
    let workers = exec.workers();
    let per_unit = workers / units.len().max(1);
    let run = UnitRun {
        grid,
        models: &models,
        identities: &identities,
        session,
        evals: ThreadedExecutor::with_threads(per_unit),
        slots: (0..grid.len()).map(|_| Mutex::new(None)).collect(),
        done: AtomicUsize::new(0),
    };
    exec.with_threads(workers)
        .build()
        .execute(units.len(), &|u| run.run(&units[u]));
    assemble(grid, run.slots, session)
}

/// Partitions a grid into work units by trace identity: the scenarios
/// of a trace that feeds two or more distinct geometries form one unit
/// (the trace opens once for all of them); every other scenario is a
/// unit of one. Units are ordered by their first scenario.
fn work_units(grid: &ScenarioGrid, identities: &Identities) -> Vec<Vec<usize>> {
    let keys: Vec<_> = grid
        .scenarios()
        .iter()
        .map(|s| scenario_key(s, identities))
        .collect();
    let mut traces: BTreeMap<_, (BTreeSet<_>, Vec<usize>)> = BTreeMap::new();
    for (i, key) in keys.iter().enumerate() {
        if let Some((trace, geom)) = key {
            let entry = traces.entry(trace).or_default();
            entry.0.insert(geom);
            entry.1.push(i);
        }
    }
    let mut units = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let shared = key
            .as_ref()
            .and_then(|(trace, _)| traces.get_mut(trace))
            .filter(|(geoms, _)| geoms.len() > 1);
        match shared {
            // The trace's first scenario takes the whole group along.
            Some((_, ids)) => {
                if !ids.is_empty() {
                    units.push(std::mem::take(ids));
                }
            }
            None => units.push(vec![i]),
        }
    }
    units
}

/// Collects the per-scenario slots into the id-ordered report and
/// fires the observer's finish callback.
fn assemble(
    grid: &ScenarioGrid,
    slots: Vec<Mutex<Option<Result<ScenarioRecord, CoreError>>>>,
    session: &StudySession,
) -> Result<StudyReport, CoreError> {
    let mut records = Vec::with_capacity(slots.len());
    for slot in slots {
        match slot.into_inner().expect("slot poisoned") {
            Some(Ok(record)) => records.push(record),
            Some(Err(e)) => return Err(e),
            None => return Err(CoreError::WorkerPanicked),
        }
    }
    let report = StudyReport::from_records(grid.name().to_string(), records);
    if let Some(obs) = session.observer.as_deref() {
        obs.on_finish(&report, &session.counters.snapshot());
    }
    Ok(report)
}

/// Everything a work unit reads while it runs.
struct UnitRun<'a> {
    grid: &'a ScenarioGrid,
    models: &'a Models<'a>,
    identities: &'a Identities,
    session: &'a StudySession,
    /// The pool a unit spreads its evaluations over: more than one
    /// thread only when the grid has fewer units than workers.
    evals: ThreadedExecutor,
    /// One slot per scenario, each behind its own lock: units write
    /// their own slots independently (no shared results mutex), and
    /// the id-indexed layout keeps the report order deterministic.
    slots: Vec<Mutex<Option<Result<ScenarioRecord, CoreError>>>>,
    /// Records streamed so far.
    done: AtomicUsize,
}

impl UnitRun<'_> {
    /// Runs one work unit to completion. Each scenario's outcome is
    /// emitted as soon as it is ready. On an error or panic shared by
    /// several scenarios (a lookup, the trace, a simulation), the
    /// unit's first scenario without an outcome carries it: the unit's
    /// other unfinished slots stay empty behind it, so the run still
    /// reports the first error in grid order.
    fn run(&self, unit: &[usize]) {
        self.session
            .counters
            .scenarios
            .fetch_add(unit.len(), Ordering::Relaxed);
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run_scenarios(unit)));
        if let Ok(Ok(())) = outcome {
            return;
        }
        let first_open = unit
            .iter()
            .copied()
            .find(|&i| self.slots[i].lock().expect("slot poisoned").is_none());
        if let Some(i) = first_open {
            let e = match outcome {
                Ok(result) => result.err().unwrap_or(CoreError::WorkerPanicked),
                Err(payload) => CoreError::ScenarioPanicked {
                    scenario: i,
                    message: panic_message(payload),
                },
            };
            self.emit(i, Err(e));
        }
    }

    /// Stores one scenario's outcome and streams it to the observer.
    fn emit(&self, i: usize, outcome: Outcome) {
        if let (Some(obs), Ok((record, origin))) = (self.session.observer.as_deref(), &outcome) {
            let finished = self.done.fetch_add(1, Ordering::Relaxed) + 1;
            obs.on_record(record, *origin, finished, self.slots.len());
        }
        *self.slots[i].lock().expect("slot poisoned") = Some(outcome.map(|(record, _)| record));
    }

    /// Looks `scenarios` up in the result cache in fingerprint order,
    /// then calibrates and simulates what the misses need and
    /// evaluates each miss.
    /// Serve's coalescing cache claims a fingerprint when a lookup
    /// misses, so one fixed lookup order across units is what keeps
    /// two overlapping runs from each holding a claim the other waits
    /// on. A fingerprint repeated within `scenarios` is looked up once
    /// here and again after its first copy is stored.
    fn run_scenarios(&self, scenarios: &[usize]) -> Result<(), CoreError> {
        let grid_scenarios = self.grid.scenarios();
        let mut misses: Vec<(usize, Option<Fingerprint>)> = Vec::new();
        let mut repeats = Vec::new();
        match self.session.cache.as_deref() {
            Some(cache) => {
                let mut fingerprints: Vec<(Fingerprint, usize)> = scenarios
                    .iter()
                    .map(|&i| {
                        (
                            Fingerprint::for_scenario(&grid_scenarios[i], self.workload(i)),
                            i,
                        )
                    })
                    .collect();
                fingerprints
                    .sort_by(|a, b| a.0.canonical().cmp(b.0.canonical()).then(a.1.cmp(&b.1)));
                let mut previous: Option<&str> = None;
                for (fp, i) in &fingerprints {
                    if previous == Some(fp.canonical()) {
                        repeats.push(*i);
                        continue;
                    }
                    previous = Some(fp.canonical());
                    match cache.lookup(fp) {
                        Ok(Some(hit)) => {
                            self.session
                                .counters
                                .cache_hits
                                .fetch_add(1, Ordering::Relaxed);
                            let record = hit.into_record(grid_scenarios[*i].clone());
                            self.emit(*i, Ok((record, RecordOrigin::Cached)));
                        }
                        Ok(None) => misses.push((*i, Some(fp.clone()))),
                        Err(e) => self.emit(*i, Err(e)),
                    }
                }
                misses.sort_by_key(|m| m.0);
                repeats.sort_unstable();
            }
            None => misses = scenarios.iter().map(|&i| (i, None)).collect(),
        }
        if !misses.is_empty() {
            self.calibrate(&misses);
            let measured = self.simulate(&misses)?;
            let evaluate = |k: usize| {
                let (i, fp) = &misses[k];
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.evaluate(*i, &measured, fp.as_ref())
                }))
                .unwrap_or_else(|payload| {
                    Err(CoreError::ScenarioPanicked {
                        scenario: *i,
                        message: panic_message(payload),
                    })
                });
                self.emit(*i, outcome);
            };
            self.evals.execute(misses.len(), &evaluate);
        }
        if repeats.is_empty() {
            Ok(())
        } else {
            self.run_scenarios(&repeats)
        }
    }

    /// Calibrates the distinct models the misses evaluate, before any
    /// of them is needed: units running side by side take the keys
    /// nobody is solving first, so they split the solves between them.
    /// A failed solve is memoized, for each miss of its key to report.
    fn calibrate(&self, misses: &[(usize, Option<Fingerprint>)]) {
        let keys: BTreeSet<&str> = misses
            .iter()
            .map(|&(i, _)| self.grid.scenarios()[i].model.as_str())
            .collect();
        let models: Vec<&dyn AgingModel> = keys.iter().map(|k| self.models[k].as_ref()).collect();
        let solved = self.session.ctx.calibrate_each(&models);
        self.session
            .counters
            .calibrations
            .fetch_add(solved, Ordering::Relaxed);
    }

    fn workload(&self, i: usize) -> &dyn Workload {
        let scenario = &self.grid.scenarios()[i];
        self.grid.workloads()[scenario.workload_index].as_ref()
    }

    /// The measurement of every miss, by scenario id: simulates each
    /// distinct geometry the misses need that the memo neither holds
    /// nor has in flight — all of them off one pass over the trace —
    /// and waits out the ones another worker is simulating.
    /// Pinned-profile workloads skip simulation entirely: their sleep
    /// fractions *are* the measurement, and the trace-derived metrics
    /// are honestly absent (`NaN` / zero cycles).
    fn simulate(
        &self,
        misses: &[(usize, Option<Fingerprint>)],
    ) -> Result<BTreeMap<usize, Arc<SimMeasurement>>, CoreError> {
        let mut out = BTreeMap::new();
        // Distinct keys, each with the first miss that needs it.
        let mut needed: BTreeMap<SimKey, usize> = BTreeMap::new();
        let mut keys = Vec::with_capacity(misses.len());
        for &(i, _) in misses {
            let scenario = &self.grid.scenarios()[i];
            match scenario_key(scenario, self.identities) {
                Some(((identity, seed, cycles), (c, l, b, w, r, l2, l2w))) => {
                    let key = (
                        (identity.to_string(), seed, cycles),
                        (c, l, b, w, r.to_string(), l2, l2w),
                    );
                    needed.entry(key.clone()).or_insert(i);
                    keys.push((i, key));
                }
                None => {
                    let profile = self.workload(i).pinned_profile().unwrap_or_default();
                    out.insert(
                        i,
                        Arc::new(SimMeasurement {
                            cycles: 0,
                            esav: f64::NAN,
                            miss_rate: f64::NAN,
                            useful_idleness: profile.to_vec(),
                            sleep_fractions: profile.to_vec(),
                            l2_sleep_fractions: None,
                        }),
                    );
                }
            }
        }
        let mut have: BTreeMap<SimKey, Arc<SimMeasurement>> = BTreeMap::new();
        let mut simulated = 0;
        let memo = &self.session.memo;
        loop {
            let mut claim = memo.claim(needed.keys().filter(|k| !have.contains_key(*k)));
            have.extend(std::mem::take(&mut claim.ready));
            if !claim.mine.is_empty() {
                // An error or panic drops the claim, releasing its keys.
                let reps: Vec<usize> = claim.mine.iter().map(|k| needed[k]).collect();
                let measured = self.simulate_trace(&reps)?;
                self.session
                    .counters
                    .simulations
                    .fetch_add(measured.len(), Ordering::Relaxed);
                simulated += measured.len();
                have.extend(claim.publish(measured));
            }
            if claim.elsewhere.is_empty() {
                break;
            }
            // Another worker is simulating these; the next pass picks
            // up their measurements, or claims what a failed claimant
            // released.
            claim.wait();
        }
        self.session
            .counters
            .sim_memo_hits
            .fetch_add(keys.len() - simulated, Ordering::Relaxed);
        for (i, key) in keys {
            out.insert(i, Arc::clone(&have[&key]));
        }
        Ok(out)
    }

    /// Simulates the geometries of scenarios `reps` — which share one
    /// trace — off a single pass over that trace: the simulation
    /// executes under the identity mapping with no mid-trace updates,
    /// so its outcome depends only on the geometry, workload and trace
    /// parameters, not on the policy, model or update-period axes.
    /// Measurements come back in `reps` order.
    fn simulate_trace(&self, reps: &[usize]) -> Result<Vec<Arc<SimMeasurement>>, CoreError> {
        let scenarios = self.grid.scenarios();
        let replacements = self.grid.replacement_registry();
        let identity = |geom: CacheGeometry, scenario: &Scenario| {
            PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())?
                .with_replacement(&scenario.replacement, replacements.clone())
        };
        let mut levels = Vec::with_capacity(reps.len());
        for &i in reps {
            let s = &scenarios[i];
            let l1 = identity(
                CacheGeometry::new(s.cache_bytes, s.line_bytes, s.ways, s.banks)?,
                s,
            )?;
            let l2 = if s.l2_cache_bytes > 0 {
                Some(identity(
                    CacheGeometry::new(s.l2_cache_bytes, s.line_bytes, s.l2_ways, s.banks)?,
                    s,
                )?)
            } else {
                None
            };
            levels.push((l1, l2));
        }
        let targets: Vec<SimTarget<'_>> = levels
            .iter()
            .map(|(l1, l2)| SimTarget {
                l1,
                l2: l2.as_ref(),
            })
            .collect();
        let Some(&first) = reps.first() else {
            return Ok(Vec::new());
        };
        let scenario = &scenarios[first];
        // Stream the workload through the batched fast path: synthetic
        // generators and multi-GB trace files both run in constant
        // memory, with bitwise-identical outcomes to the scalar loop.
        let outcomes = {
            let mut source = self.workload(first).open(scenario.trace_seed)?;
            simulate_fanout(
                &targets,
                source.as_mut(),
                Some(scenario.trace_cycles),
                UpdateSchedule::Never,
            )?
        };
        outcomes
            .into_iter()
            .map(|out| {
                debug_assert!(out.validate().is_ok(), "{:?}", out.validate());
                let l1 = out.l1();
                if l1.accesses == 0 {
                    return Err(CoreError::Report {
                        message: format!(
                            "workload `{}` produced no accesses (empty trace?)",
                            scenario.workload
                        ),
                    });
                }
                Ok(Arc::new(SimMeasurement {
                    cycles: l1.cycles,
                    esav: l1.energy_saving(),
                    miss_rate: l1.miss_rate(),
                    useful_idleness: l1.useful_idleness_all(),
                    sleep_fractions: l1.sleep_fraction_all(),
                    l2_sleep_fractions: out.l2().map(|l2| l2.sleep_fraction_all()),
                }))
            })
            .collect()
    }

    /// Hands a miss's measured sleep fractions to its calibrated device
    /// model, journals the record and returns it.
    fn evaluate(
        &self,
        i: usize,
        measured: &BTreeMap<usize, Arc<SimMeasurement>>,
        fingerprint: Option<&Fingerprint>,
    ) -> Outcome {
        let scenario = &self.grid.scenarios()[i];
        let workload = self.workload(i);
        let measured = &measured[&i];
        // Settled by `calibrate` before the unit simulated.
        let model = self
            .session
            .ctx
            .calibrate(self.models[scenario.model.as_str()].as_ref())?;
        let policy_builder = || {
            self.grid.policy_registry().build(
                &scenario.policy,
                scenario.banks,
                scenario.policy_seed,
            )
        };
        let mut metrics = model.evaluate(&ModelEval {
            sleep_fractions: &measured.sleep_fractions,
            p0: workload.p0(),
            update_days: scenario.update_days,
            policy: &policy_builder,
        })?;
        self.session
            .counters
            .evaluations
            .fetch_add(1, Ordering::Relaxed);
        // Metrics inline as top-level record fields in JSON, so a metric
        // shadowing a record field would emit a duplicate key and vanish
        // on parse — reject it loudly instead. Hierarchy scenarios append
        // `sleep_fraction_l2` / `lt_years_l2` below, so those names are
        // reserved too when an L2 is present.
        for name in metrics.names() {
            if ScenarioRecord::RESERVED_FIELDS.contains(&name)
                || (measured.l2_sleep_fractions.is_some()
                    && (name == "sleep_fraction_l2" || name == "lt_years_l2"))
            {
                return Err(CoreError::Report {
                    message: format!(
                        "model `{}` emits metric `{name}`, which shadows a record field",
                        scenario.model
                    ),
                });
            }
        }
        // Hierarchy scenarios carry the L2's view as two extra metrics:
        // the average L2 sleep fraction (the induced-idleness headline) and
        // the L2 lifetime under the same device model. Both ride the open
        // metrics map, so pre-hierarchy readers parse them like any other
        // model output.
        if let Some(l2_fractions) = &measured.l2_sleep_fractions {
            let avg = l2_fractions.iter().sum::<f64>() / l2_fractions.len().max(1) as f64;
            let l2_metrics = model.evaluate(&ModelEval {
                sleep_fractions: l2_fractions,
                p0: workload.p0(),
                update_days: scenario.update_days,
                policy: &policy_builder,
            })?;
            metrics.push("sleep_fraction_l2", avg);
            metrics.push(
                "lt_years_l2",
                l2_metrics.get(crate::model::METRIC_LT).unwrap_or(f64::NAN),
            );
        }

        let record = ScenarioRecord {
            scenario: scenario.clone(),
            sim_cycles: measured.cycles,
            esav: measured.esav,
            miss_rate: measured.miss_rate,
            useful_idleness: measured.useful_idleness.clone(),
            sleep_fractions: measured.sleep_fractions.clone(),
            metrics,
        };
        if let (Some(cache), Some(fp)) = (self.session.cache.as_deref(), fingerprint) {
            cache.store(fp, &CachedMeasurement::of_record(&record))?;
            self.session
                .counters
                .cache_stores
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok((record, RecordOrigin::Computed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Metrics;
    use crate::rescache::MemoryCache;

    fn tiny_spec(session: &StudySession, name: &str) -> StudySpec {
        session
            .spec(name)
            .workload_names(["sha", "CRC32"])
            .unwrap()
            .trace_cycles(40_000)
    }

    #[test]
    fn session_memo_shares_simulations_across_runs() {
        let session = StudySession::new();
        let spec = tiny_spec(&session, "first").policies(["probing", "gray"]);
        session.run(&spec).unwrap();
        let s1 = session.stats();
        assert_eq!(s1.scenarios, 4);
        assert_eq!(s1.simulations, 2, "two workloads, one geometry");
        assert_eq!(s1.sim_memo_hits, 2);
        // A second, overlapping run simulates nothing new.
        let again = tiny_spec(&session, "second").policies(["scrambling"]);
        session.run(&again).unwrap();
        let s2 = session.stats();
        assert_eq!(s2.scenarios, 6);
        assert_eq!(s2.simulations, 2, "the memo outlives the run");
        assert_eq!(s2.evaluations, 6, "model evals are per-scenario");
    }

    #[test]
    fn warm_cache_skips_simulation_and_evaluation() {
        let session = StudySession::new().cache(MemoryCache::new());
        let spec = tiny_spec(&session, "cached");
        let cold = session.run(&spec).unwrap();
        assert_eq!(session.stats().cache_stores, 2);
        let warm = session.run(&spec).unwrap();
        let stats = session.stats();
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.simulations, 2, "no new simulations");
        assert_eq!(stats.evaluations, 2, "no new model evaluations");
        assert_eq!(warm.to_json(), cold.to_json(), "byte-identical replay");
    }

    #[test]
    fn scenario_panics_carry_id_and_message() {
        use crate::model::{CalibratedModel, ModelRegistry};
        struct Bomb;
        impl CalibratedModel for Bomb {
            fn evaluate(&self, _eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
                panic!("the bomb model always explodes")
            }
        }
        let mut registry = ModelRegistry::builtin();
        registry
            .register_fn("bomb", "panics on evaluate", "none", || Ok(Arc::new(Bomb)))
            .unwrap();
        let session = StudySession::with_context(ModelContext::with_registry(registry))
            .exec(ExecOptions::sequential());
        let spec = tiny_spec(&session, "boom").models(["bomb"]);
        let e = session.run(&spec).unwrap_err();
        let CoreError::ScenarioPanicked { scenario, message } = &e else {
            panic!("expected ScenarioPanicked, got {e:?}");
        };
        assert_eq!(*scenario, 0, "first scenario in grid order");
        assert!(message.contains("explodes"), "{message}");
        assert!(e.to_string().contains("scenario 0"), "{e}");
    }

    #[test]
    fn observer_streams_every_record() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Counting {
            started: AtomicUsize,
            records: AtomicUsize,
            cached: AtomicUsize,
            finished: AtomicUsize,
        }
        impl ExecObserver for Arc<Counting> {
            fn on_start(&self, _name: &str, total: usize) {
                self.started.fetch_add(total, Ordering::Relaxed);
            }
            fn on_record(
                &self,
                _record: &ScenarioRecord,
                origin: RecordOrigin,
                _done: usize,
                _total: usize,
            ) {
                self.records.fetch_add(1, Ordering::Relaxed);
                if origin == RecordOrigin::Cached {
                    self.cached.fetch_add(1, Ordering::Relaxed);
                }
            }
            fn on_finish(&self, report: &StudyReport, stats: &SessionStats) {
                assert_eq!(report.records().len(), 2);
                assert!(stats.scenarios > 0);
                self.finished.fetch_add(1, Ordering::Relaxed);
            }
        }
        let counting = Arc::new(Counting::default());
        let session = StudySession::new()
            .cache(MemoryCache::new())
            .observer(Arc::clone(&counting));
        let spec = tiny_spec(&session, "observed");
        session.run(&spec).unwrap();
        session.run(&spec).unwrap();
        assert_eq!(counting.started.load(Ordering::Relaxed), 4);
        assert_eq!(counting.records.load(Ordering::Relaxed), 4);
        assert_eq!(counting.cached.load(Ordering::Relaxed), 2);
        assert_eq!(counting.finished.load(Ordering::Relaxed), 2);
    }
}
