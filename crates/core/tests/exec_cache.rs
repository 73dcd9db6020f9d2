//! Execution-layer invariants: every executor backend — and a
//! cache-warm replay, in-process or from a reopened on-disk journal —
//! must produce byte-identical `StudyReport` JSON; corrupted journal
//! entries must be rejected loudly, naming their fingerprint.

use aging_cache::exec::{ExecOptions, ProcessOptions, WorkerCommand};
use aging_cache::experiment::ExperimentConfig;
use aging_cache::model::{CalibratedModel, ModelContext, ModelRegistry};
use aging_cache::presets;
use aging_cache::rescache::{JsonlCache, MemoryCache};
use aging_cache::session::StudySession;
use aging_cache::study::StudySpec;
use aging_cache::workload::{Workload, WorkloadRegistry, WorkloadSourceInfo};
use aging_cache::CoreError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use trace_synth::source::TraceSource;

fn grid_spec(session: &StudySession) -> StudySpec {
    session
        .spec("exec equivalence")
        .cache_kb([8, 16])
        .policies(["probing", "gray"])
        .workload_names(["sha", "CRC32"])
        .unwrap()
        .trace_cycles(40_000)
}

#[test]
fn sequential_threaded_and_cache_warm_reports_are_byte_identical() {
    let sequential = StudySession::new().exec(ExecOptions::sequential());
    let reference = sequential.run(&grid_spec(&sequential)).unwrap().to_json();

    let threaded = StudySession::new().exec(ExecOptions::threaded());
    assert_eq!(
        threaded.run(&grid_spec(&threaded)).unwrap().to_json(),
        reference,
        "threaded vs sequential"
    );

    let two_workers = StudySession::new().exec(ExecOptions::threaded().with_threads(2));
    assert_eq!(
        two_workers.run(&grid_spec(&two_workers)).unwrap().to_json(),
        reference,
        "capped worker pool"
    );

    let cached = StudySession::new().cache(MemoryCache::new());
    let spec = grid_spec(&cached);
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "cold");
    assert_eq!(cached.run(&spec).unwrap().to_json(), reference, "warm");
    let stats = cached.stats();
    assert_eq!(stats.cache_hits, 8, "the warm run was all hits");
    assert_eq!(stats.evaluations, 8, "only the cold run evaluated");
}

#[test]
fn sequential_threaded_and_multi_process_reports_are_byte_identical() {
    // The Table II grid (8/16/32 kB × Probing × the full suite), at
    // test-sized trace length: the paper's headline sweep is the shape
    // the distribution layer must reproduce bit for bit.
    let spec = presets::table2(&ExperimentConfig::paper_reference()).trace_cycles(40_000);
    let n = 3 * 18; // three cache sizes × the 18-workload suite

    let sequential = StudySession::new().exec(ExecOptions::sequential());
    let reference = sequential.run(&spec).unwrap().to_json();

    let threaded = StudySession::new().exec(ExecOptions::threaded());
    assert_eq!(threaded.run(&spec).unwrap().to_json(), reference);

    let dir = std::env::temp_dir().join(format!("nbti-exec-mp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut popts = ProcessOptions::new(
        &dir,
        2,
        WorkerCommand::new(env!("CARGO_BIN_EXE_study_worker"), []),
    );
    // The grid is small; pin the small-grid fallback off so this test
    // keeps exercising real process execution.
    popts.fallback_threshold = 0;

    // Cold: the workers compute everything, the coordinator replays.
    let mp = StudySession::new()
        .cache(JsonlCache::in_dir(&dir).unwrap())
        .exec(ExecOptions::process(popts.clone()));
    assert_eq!(
        mp.run(&spec).unwrap().to_json(),
        reference,
        "multi-process cold"
    );
    let stats = mp.stats();
    assert_eq!(stats.evaluations, 0, "the coordinator computed nothing");
    assert_eq!(stats.cache_hits, n, "the replay pass was all journal hits");
    assert_eq!(stats.calibrations, 0, "the replay pass calibrated nothing");
    assert_eq!(mp.context().calibration_count(), 0);

    // Warm: a fresh coordinator over the same journal — byte-identical
    // again, and no worker has anything to compute.
    let warm = StudySession::new()
        .cache(JsonlCache::in_dir(&dir).unwrap())
        .exec(ExecOptions::process(popts));
    assert_eq!(
        warm.run(&spec).unwrap().to_json(),
        reference,
        "multi-process warm"
    );
    let stats = warm.stats();
    assert_eq!(stats.evaluations, 0);
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.cache_hits, n);
    assert_eq!(stats.calibrations, 0);
    assert_eq!(warm.context().calibration_count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A suite workload that counts how often its trace is opened.
struct CountingWorkload {
    inner: Arc<dyn Workload>,
    opens: AtomicUsize,
}

impl Workload for CountingWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn p0(&self) -> f64 {
        self.inner.p0()
    }
    fn source_info(&self) -> Option<WorkloadSourceInfo> {
        self.inner.source_info()
    }
    fn pinned_profile(&self) -> Option<&[f64]> {
        self.inner.pinned_profile()
    }
    fn open(&self, seed: u64) -> Result<Box<dyn TraceSource>, CoreError> {
        self.opens.fetch_add(1, Ordering::Relaxed);
        self.inner.open(seed)
    }
}

/// The Table II preset at test length (the three-way pin's grid), its
/// workload axis swapped for counting twins of the same suite.
fn counted_table2() -> (StudySpec, Vec<Arc<CountingWorkload>>) {
    let builtin = WorkloadRegistry::builtin();
    let spec = presets::table2(&ExperimentConfig::paper_reference()).trace_cycles(40_000);
    let counting: Vec<Arc<CountingWorkload>> = trace_synth::suite::mediabench()
        .iter()
        .map(|p| {
            Arc::new(CountingWorkload {
                inner: Arc::clone(builtin.get(p.name()).unwrap()),
                opens: AtomicUsize::new(0),
            })
        })
        .collect();
    let objects = counting.iter().map(|w| Arc::clone(w) as Arc<dyn Workload>);
    (spec.workload_objects(objects), counting)
}

fn opens(counting: &[Arc<CountingWorkload>]) -> Vec<usize> {
    counting
        .iter()
        .map(|w| w.opens.load(Ordering::Relaxed))
        .collect()
}

#[test]
fn each_trace_opens_once_for_all_of_its_geometries() {
    let plain = presets::table2(&ExperimentConfig::paper_reference()).trace_cycles(40_000);
    let reference = StudySession::new()
        .exec(ExecOptions::sequential())
        .run(&plain)
        .unwrap()
        .to_json();
    for exec in [ExecOptions::sequential(), ExecOptions::threaded()] {
        let (spec, counting) = counted_table2();
        let session = StudySession::new().exec(exec.clone());
        let report = session.run(&spec).unwrap();
        assert_eq!(report.to_json(), reference, "{exec:?}: the three-way pin");
        assert_eq!(
            opens(&counting),
            vec![1; 18],
            "{exec:?}: one open per trace"
        );
        let stats = session.stats();
        assert_eq!(stats.simulations, 54, "{exec:?}: one per distinct sim key");
        assert_eq!(stats.sim_memo_hits, 0);
    }
}

#[test]
fn a_partially_warm_run_simulates_only_the_missing_geometries() {
    let session = StudySession::new().cache(MemoryCache::new());
    let (spec, counting) = counted_table2();
    session.run(&spec.clone().cache_kb([16])).unwrap();
    assert_eq!(session.stats().simulations, 18);
    assert_eq!(opens(&counting), vec![1; 18]);

    let report = session.run(&spec).unwrap();
    let stats = session.stats();
    assert_eq!(stats.cache_hits, 18, "the 16 kB column replays");
    assert_eq!(
        stats.simulations,
        18 + 36,
        "8 and 32 kB simulate, once each"
    );
    assert_eq!(
        opens(&counting),
        vec![2; 18],
        "one more open per trace for both missing sizes"
    );
    let cold = StudySession::new().run(&spec).unwrap();
    assert_eq!(report.to_json(), cold.to_json());
}

#[test]
fn reopened_journal_replays_without_simulating() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let reference = cold.run(&grid_spec(&cold)).unwrap().to_json();
    assert_eq!(cold.stats().cache_stores, 8);

    // A fresh session over the reopened journal — a second process, in
    // effect. Zero simulations, zero model evaluations, same bytes.
    let warm = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    assert_eq!(warm.run(&grid_spec(&warm)).unwrap().to_json(), reference);
    let stats = warm.stats();
    assert_eq!(stats.simulations, 0);
    assert_eq!(stats.evaluations, 0);
    assert_eq!(stats.cache_hits, 8);

    // A widened grid computes only the missing points (the presets pin
    // the policy seed, so shared points keep their fingerprints).
    let wider = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = grid_spec(&wider).policy_seed(1);
    wider.run(&spec).unwrap();
    let before = wider.stats();
    let widened = grid_spec(&wider).policy_seed(1).cache_kb([8, 16, 32]);
    wider.run(&widened).unwrap();
    let after = wider.stats();
    assert_eq!(
        after.evaluations - before.evaluations,
        4,
        "only the new 32 kB column computes"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_journal_is_rejected_with_fingerprint_not_deserialized() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let session = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let spec = session
        .spec("poison")
        .workload_names(["sha"])
        .unwrap()
        .trace_cycles(40_000);
    session.run(&spec).unwrap();
    drop(session);

    // Flip one digit of a measured value inside the journal.
    let path = dir.join(JsonlCache::FILE_NAME);
    let text = std::fs::read_to_string(&path).unwrap();
    let fp = text
        .split('"')
        .nth(3)
        .expect("first line starts {\"fp\":\"…\"}")
        .to_string();
    assert!(fp.starts_with("fnv1a64:"), "{fp}");
    let poisoned = text.replacen("\"esav\":0.", "\"esav\":9.", 1);
    assert_ne!(poisoned, text, "the corruption must apply");
    std::fs::write(&path, poisoned).unwrap();

    let e = JsonlCache::in_dir(&dir).unwrap_err();
    assert!(matches!(e, CoreError::Cache { .. }), "{e:?}");
    let msg = e.to_string();
    assert!(msg.contains(&fp), "error must name the fingerprint: {msg}");
    assert!(msg.contains("mismatch"), "{msg}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_after_interruption_computes_only_missing_points() {
    // Simulate an interrupted sweep: journal only half the grid, then
    // "resume" — the replayed half must not recompute and the report
    // must match an uninterrupted run byte for byte.
    // (The policy seed is pinned: a *sub*-grid renumbers scenario ids,
    // and derived policy seeds — correctly — follow the id. A truly
    // interrupted run keeps its grid and needs no pinning.)
    let dir = std::env::temp_dir().join(format!("nbti-exec-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let full = StudySession::new();
    let reference = full.run(&grid_spec(&full).policy_seed(1)).unwrap();

    let half = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let half_spec = grid_spec(&half).policy_seed(1).policies(["probing"]); // 4 of 8 points
    half.run(&half_spec).unwrap();
    assert_eq!(half.stats().cache_stores, 4);

    let resumed = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let report = resumed.run(&grid_spec(&resumed).policy_seed(1)).unwrap();
    let stats = resumed.stats();
    assert_eq!(stats.cache_hits, 4, "the journaled half replays");
    assert_eq!(stats.evaluations, 4, "only the missing half computes");
    assert_eq!(report.to_json(), reference.to_json());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn small_grids_fall_back_from_the_process_backend() {
    use aging_cache::exec::ExecObserver;
    use std::sync::Mutex;

    // A notice collector: the fallback must *say* it happened.
    #[derive(Default)]
    struct Notices(Mutex<Vec<String>>);
    impl ExecObserver for Notices {
        fn on_notice(&self, message: &str) {
            self.0.lock().unwrap().push(message.to_string());
        }
    }

    let dir = std::env::temp_dir().join(format!("nbti-exec-fallback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // The worker command is deliberately unrunnable: with the default
    // fallback threshold (128 > 8 scenarios) the run must complete on
    // the threaded backend without ever spawning a process — and the
    // report must match the sequential reference byte for byte.
    let popts = ProcessOptions::new(&dir, 2, WorkerCommand::new("/nonexistent/worker", []));
    assert_eq!(popts.fallback_threshold, 128);
    let mp = StudySession::new()
        .cache(JsonlCache::in_dir(&dir).unwrap())
        .exec(ExecOptions::process(popts))
        .observer(Notices::default());
    let report = mp.run(&grid_spec(&mp)).unwrap();

    let sequential = StudySession::new().exec(ExecOptions::sequential());
    let reference = sequential.run(&grid_spec(&sequential)).unwrap();
    assert_eq!(report.to_json(), reference.to_json());

    // The notice names the threshold; re-running the session shows it
    // fired (observer state lives inside the session, so assert via a
    // fresh session sharing the observer).
    let notices = std::sync::Arc::new(Notices::default());
    struct Shared(std::sync::Arc<Notices>);
    impl ExecObserver for Shared {
        fn on_notice(&self, message: &str) {
            self.0.on_notice(message);
        }
    }
    let again = StudySession::new()
        .cache(JsonlCache::in_dir(&dir).unwrap())
        .exec(ExecOptions::process(ProcessOptions::new(
            &dir,
            2,
            WorkerCommand::new("/nonexistent/worker", []),
        )))
        .observer(Shared(std::sync::Arc::clone(&notices)));
    again.run(&grid_spec(&again)).unwrap();
    let seen = notices.0.lock().unwrap();
    assert_eq!(seen.len(), 1, "exactly one fallback notice");
    assert!(
        seen[0].contains("below the fallback threshold (128)"),
        "{}",
        seen[0]
    );
    drop(seen);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A warm journal replays on every backend without calibrating a
/// single model: calibration waits for the first cache miss.
#[test]
fn a_warm_journal_replays_without_calibrating() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-calib-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = |session: &StudySession| {
        grid_spec(session)
            .policy_seed(1)
            .models(["nbti-45nm", "nbti:temp=105"])
    };

    let cold = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let reference = cold.run(&spec(&cold)).unwrap().to_json();
    assert_eq!(cold.stats().calibrations, 2, "one solve per model key");
    assert_eq!(cold.context().calibration_count(), 2);

    for exec in [ExecOptions::sequential(), ExecOptions::threaded()] {
        let warm = StudySession::new()
            .cache(JsonlCache::in_dir(&dir).unwrap())
            .exec(exec.clone());
        assert_eq!(warm.run(&spec(&warm)).unwrap().to_json(), reference);
        let stats = warm.stats();
        assert_eq!(stats.cache_hits, 16, "{exec:?}");
        assert_eq!(stats.calibrations, 0, "{exec:?}: nothing calibrates");
        assert_eq!(warm.context().calibration_count(), 0, "{exec:?}");
    }

    // A widened grid calibrates only the key its misses use: the new
    // `drv` cells, not the two journaled models.
    let wider = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let widened = spec(&wider).models(["nbti-45nm", "nbti:temp=105", "drv"]);
    wider.run(&widened).unwrap();
    let stats = wider.stats();
    assert_eq!((stats.cache_hits, stats.evaluations), (16, 8));
    assert_eq!(stats.calibrations, 1, "only `drv` calibrates");
    assert_eq!(wider.context().calibration_count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The reference cell's calibration, for test models that count their
/// solves.
fn reference_cell() -> Result<Arc<dyn CalibratedModel>, CoreError> {
    ModelRegistry::builtin().resolve("nbti-45nm")?.calibrate()
}

fn failing(key: &'static str) -> impl Fn() -> Result<Arc<dyn CalibratedModel>, CoreError> {
    move || {
        Err(CoreError::Report {
            message: format!("{key} cannot calibrate"),
        })
    }
}

/// A failed calibration fails the run with its own error, the one of
/// the first scenario in grid order that uses a failing key.
#[test]
fn a_failed_calibration_fails_the_run_at_the_first_scenario_using_it() {
    let mut registry = ModelRegistry::builtin();
    registry
        .register_fn("bad-a", "fails", "none", failing("bad-a"))
        .unwrap();
    registry
        .register_fn("bad-b", "fails", "none", failing("bad-b"))
        .unwrap();
    for exec in [ExecOptions::sequential(), ExecOptions::threaded()] {
        let session = StudySession::with_context(ModelContext::with_registry(registry.clone()))
            .exec(exec.clone());
        let spec = grid_spec(&session).models(["nbti-45nm", "bad-b", "bad-a"]);
        let grid = spec.expand().unwrap();
        let first_bad = grid
            .scenarios()
            .iter()
            .find(|s| s.model.starts_with("bad-"))
            .unwrap();
        let e = session.run_grid(&grid).unwrap_err();
        assert_eq!(
            e,
            CoreError::Report {
                message: format!("{} cannot calibrate", first_bad.model),
            },
            "{exec:?}"
        );
    }
}

/// On the threaded executor every calibration closure runs exactly
/// once, however many scenarios share its key — a failing one too.
#[test]
fn threaded_runs_solve_each_key_once_even_when_it_fails() {
    let solves = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let mut registry = ModelRegistry::builtin();
    let counter = Arc::clone(&solves);
    registry
        .register_fn("counted", "counts its solves", "none", move || {
            counter[0].fetch_add(1, Ordering::Relaxed);
            reference_cell()
        })
        .unwrap();
    let counter = Arc::clone(&solves);
    let fail = failing("counted-bad");
    registry
        .register_fn("counted-bad", "counts its failures", "none", move || {
            counter[1].fetch_add(1, Ordering::Relaxed);
            fail()
        })
        .unwrap();
    let session = StudySession::with_context(ModelContext::with_registry(registry))
        .exec(ExecOptions::threaded().with_threads(4));
    let spec = |models: &[&str]| {
        grid_spec(&session)
            .policies(["identity", "probing", "gray", "scrambling"])
            .models(models.iter().copied())
    };
    session.run(&spec(&["counted"])).unwrap();
    assert_eq!(
        solves[0].load(Ordering::Relaxed),
        1,
        "16 scenarios, one solve"
    );
    assert_eq!(session.stats().calibrations, 1);

    assert!(session.run(&spec(&["counted-bad"])).is_err());
    assert_eq!(
        solves[1].load(Ordering::Relaxed),
        1,
        "one failed solve per run"
    );
    assert_eq!(session.stats().calibrations, 2);
}

/// An unknown model key fails before any cache lookup, even when every
/// cell of the grid is journaled.
#[test]
fn an_unknown_model_fails_before_any_lookup() {
    let dir = std::env::temp_dir().join(format!("nbti-exec-unknown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut registry = ModelRegistry::builtin();
    registry
        .register_fn("custom", "the reference cell", "none", reference_cell)
        .unwrap();
    let journaling = StudySession::with_context(ModelContext::with_registry(registry))
        .cache(JsonlCache::in_dir(&dir).unwrap());
    journaling
        .run(&grid_spec(&journaling).models(["custom"]))
        .unwrap();
    assert_eq!(journaling.stats().cache_stores, 8, "every cell journaled");

    // Without `custom` registered, the same grid is refused up front.
    let session = StudySession::new().cache(JsonlCache::in_dir(&dir).unwrap());
    let e = session
        .run(&grid_spec(&session).models(["custom"]))
        .unwrap_err();
    assert!(matches!(e, CoreError::UnknownModel { .. }), "{e:?}");
    let stats = session.stats();
    assert_eq!(stats.scenarios, 0, "no work unit started");
    assert_eq!(stats.cache_hits, 0, "no lookup ran");
    std::fs::remove_dir_all(&dir).unwrap();
}
