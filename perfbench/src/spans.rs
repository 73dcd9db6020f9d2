//! Spans recorded at the public seams of the front doors, kept in
//! memory and written out when the benchmark ends.
//!
//! Every wrapper here is installed through an extension point the
//! program already offers — nothing inside `crates/` records anything:
//!
//! * [`TimedWorkload`] stands on the spec's workload axis under the
//!   suite name; its [`TimedSource`] times each pull as `traces`, and
//!   the rest of the source's life (open → drop) is the simulator's
//!   (`sim`);
//! * [`TimedModel`] is pre-registered under each canonical model key
//!   and times `calibrate` and `evaluate` (`model.*`);
//! * [`TimedCache`] wraps the result cache (`rescache.*`);
//! * [`BenchObserver`] closes one `scenario` span per streamed record,
//!   from the worker's previous record (or the run's start) to this one.
//!
//! A span's self time is its duration minus the part of it that child
//! spans on the same thread cover.

use aging_cache::exec::{ExecObserver, RecordOrigin};
use aging_cache::model::{AgingModel, CalibratedModel, ModelEval, ModelRegistry};
use aging_cache::rescache::{CachedMeasurement, Fingerprint, ResultCache};
use aging_cache::session::SessionStats;
use aging_cache::study::{Scenario, ScenarioRecord, StudyReport};
use aging_cache::workload::{Workload, WorkloadRegistry, WorkloadSourceInfo};
use aging_cache::{CoreError, Metrics};
use cache_sim::Access;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use trace_synth::source::{TraceError, TraceSource};

/// Which seam a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// A trace open or pull.
    Traces,
    /// A trace source's life, open to drop.
    Sim,
    /// One model calibration.
    Calibrate,
    /// One model evaluation.
    Eval,
    /// One result-cache lookup.
    Lookup,
    /// One result-cache store.
    Store,
    /// One scenario, as its record streamed out.
    Scenario,
    /// One client request (serve-warm), tagged with its route.
    Request,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Traces => "traces",
            Kind::Sim => "sim",
            Kind::Calibrate => "model.calibrate",
            Kind::Eval => "model.eval",
            Kind::Lookup => "rescache.lookup",
            Kind::Store => "rescache.store",
            Kind::Scenario => "session.scenario",
            Kind::Request => "client.request",
        }
    }
}

/// One recorded span (times in ns since the tracer's epoch).
#[derive(Debug, Clone)]
pub struct Span {
    /// The seam.
    pub kind: Kind,
    /// Sub-class: geometry for scenarios, model family for evaluations,
    /// route for requests; empty otherwise.
    pub tag: &'static str,
    /// Recording thread (a small per-process number).
    pub thread: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Work count (accesses for traces/sim spans).
    pub n: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static LAST_RECORD: Cell<u64> = const { Cell::new(0) };
}

fn thread_no() -> u64 {
    THREAD.with(|t| *t)
}

/// The span store of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// ns since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// An instant as ns since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span ending now on the calling thread.
    pub fn record(&self, kind: Kind, tag: &'static str, start: u64, n: u64) {
        let span = Span {
            kind,
            tag,
            thread: thread_no(),
            start,
            end: self.now(),
            n,
        };
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

// ---------------------------------------------------------------------
// traces + sim
// ---------------------------------------------------------------------

/// A suite workload whose trace sources time their pulls.
pub struct TimedWorkload {
    inner: Arc<dyn Workload>,
    tracer: Arc<Tracer>,
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> &str {
        self.inner.description()
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
        let opened = self.tracer.now();
        let inner = self.inner.open(seed)?;
        self.tracer.record(Kind::Traces, "", opened, 0);
        Ok(Box::new(TimedSource {
            inner,
            tracer: Arc::clone(&self.tracer),
            opened,
            accesses: 0,
        }))
    }
}

/// A trace source whose pulls are `traces` spans and whose life is a
/// `sim` span.
pub struct TimedSource {
    inner: Box<dyn TraceSource>,
    tracer: Arc<Tracer>,
    opened: u64,
    accesses: u64,
}

impl TraceSource for TimedSource {
    fn next_batch(&mut self, buf: &mut Vec<Access>, max: usize) -> Result<usize, TraceError> {
        let start = self.tracer.now();
        let got = self.inner.next_batch(buf, max)?;
        self.tracer.record(Kind::Traces, "", start, got as u64);
        self.accesses += got as u64;
        Ok(got)
    }
}

impl Drop for TimedSource {
    fn drop(&mut self) {
        self.tracer
            .record(Kind::Sim, "", self.opened, self.accesses);
    }
}

/// The named suite workloads, each wrapped in its timed twin (same
/// name, p0 and fingerprint identity), in the order given.
pub fn timed_objects(names: &[String], tracer: &Arc<Tracer>) -> Vec<Arc<dyn Workload>> {
    let builtin = WorkloadRegistry::builtin();
    names
        .iter()
        .map(|n| {
            Arc::new(TimedWorkload {
                inner: Arc::clone(builtin.get(n).expect("suite workload")),
                tracer: Arc::clone(tracer),
            }) as Arc<dyn Workload>
        })
        .collect()
}

// ---------------------------------------------------------------------
// model
// ---------------------------------------------------------------------

/// The family tag of a canonical model key.
pub fn family(key: &str) -> &'static str {
    if key.starts_with("variation") {
        "variation"
    } else if key.starts_with("drv") {
        "drv"
    } else {
        "nbti"
    }
}

/// A model whose calibration and evaluations are timed.
pub struct TimedModel {
    inner: Arc<dyn AgingModel>,
    tracer: Arc<Tracer>,
}

impl AgingModel for TimedModel {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn description(&self) -> &str {
        self.inner.description()
    }
    fn provenance(&self) -> String {
        self.inner.provenance()
    }
    fn calibrate(&self) -> Result<Arc<dyn CalibratedModel>, CoreError> {
        let start = self.tracer.now();
        let inner = self.inner.calibrate()?;
        let tag = family(self.inner.name());
        self.tracer.record(Kind::Calibrate, tag, start, 0);
        Ok(Arc::new(TimedCalibrated {
            inner,
            tag,
            tracer: Arc::clone(&self.tracer),
        }))
    }
}

struct TimedCalibrated {
    inner: Arc<dyn CalibratedModel>,
    tag: &'static str,
    tracer: Arc<Tracer>,
}

impl CalibratedModel for TimedCalibrated {
    fn evaluate(&self, eval: &ModelEval<'_>) -> Result<Metrics, CoreError> {
        let start = self.tracer.now();
        let out = self.inner.evaluate(eval);
        self.tracer.record(Kind::Eval, self.tag, start, 1);
        out
    }
}

/// A model registry holding a timed wrapper under each canonical key
/// in `keys` (the keys a grid's scenarios carry).
pub fn timed_models<'a>(
    keys: impl IntoIterator<Item = &'a str>,
    tracer: &Arc<Tracer>,
) -> ModelRegistry {
    let builtin = ModelRegistry::builtin();
    let mut registry = ModelRegistry::empty();
    for key in keys {
        let inner = builtin.resolve(key).expect("grid model keys resolve");
        if registry.get(inner.name()).is_none() {
            registry
                .register(Arc::new(TimedModel {
                    inner,
                    tracer: Arc::clone(tracer),
                }))
                .expect("checked absent");
        }
    }
    registry
}

// ---------------------------------------------------------------------
// rescache
// ---------------------------------------------------------------------

/// A result cache whose lookups and stores are timed.
pub struct TimedCache<C> {
    inner: C,
    tracer: Arc<Tracer>,
}

impl<C: ResultCache> TimedCache<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tracer: &Arc<Tracer>) -> Self {
        Self {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<C: ResultCache> ResultCache for TimedCache<C> {
    fn lookup(&self, fingerprint: &Fingerprint) -> Result<Option<CachedMeasurement>, CoreError> {
        let start = self.tracer.now();
        let out = self.inner.lookup(fingerprint);
        self.tracer.record(Kind::Lookup, "", start, 1);
        out
    }

    fn store(
        &self,
        fingerprint: &Fingerprint,
        measurement: &CachedMeasurement,
    ) -> Result<(), CoreError> {
        let start = self.tracer.now();
        let out = self.inner.store(fingerprint, measurement);
        self.tracer.record(Kind::Store, "", start, 1);
        out
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn refresh(&self) -> Result<usize, CoreError> {
        self.inner.refresh()
    }
}

/// Opens a journal directory; when traced, the open (which reads and
/// indexes the whole journal) is a `rescache.lookup` span of no lookups.
///
/// # Errors
///
/// Propagates journal errors.
pub fn open_journal(
    dir: &std::path::Path,
    tracer: Option<&Arc<Tracer>>,
) -> Result<aging_cache::rescache::JsonlCache, CoreError> {
    let start = tracer.map(|t| t.now());
    let journal = aging_cache::rescache::JsonlCache::in_dir(dir)?;
    if let (Some(t), Some(start)) = (tracer, start) {
        t.record(Kind::Lookup, "", start, 0);
    }
    Ok(journal)
}

// ---------------------------------------------------------------------
// session: scenario spans and record latency
// ---------------------------------------------------------------------

/// The geometry class of a scenario, as the per-geometry simulator
/// rates name it.
pub fn geometry(s: &Scenario) -> &'static str {
    match (s.l2_cache_bytes > 0, s.ways, s.cache_bytes / 1024) {
        (true, _, _) => "l1l2",
        (false, 4, _) => "way4",
        (false, 1, 8) => "dm8k",
        (false, 1, 16) => "dm16k",
        (false, 1, 32) => "dm32k",
        _ => "other",
    }
}

#[derive(Debug)]
struct ObserverState {
    base: Instant,
    latencies_ms: Vec<f64>,
}

/// The benchmark's exec observer: record latency always (the time from
/// a request's submission — or the previous batch's finish, for a
/// search's successive probe batches — to its record streaming out),
/// and `scenario` spans when a tracer is attached.
#[derive(Clone)]
pub struct BenchObserver {
    state: Arc<Mutex<ObserverState>>,
    tracer: Option<Arc<Tracer>>,
    run_start: Arc<AtomicU64>,
}

impl BenchObserver {
    /// A fresh observer; `tracer` adds scenario spans.
    pub fn new(tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            state: Arc::new(Mutex::new(ObserverState {
                base: Instant::now(),
                latencies_ms: Vec::new(),
            })),
            tracer,
            run_start: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Marks a submission: later records count their latency from now.
    pub fn submit(&self) {
        self.state.lock().expect("observer poisoned").base = Instant::now();
    }

    /// Record latencies so far, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.state
            .lock()
            .expect("observer poisoned")
            .latencies_ms
            .clone()
    }
}

impl ExecObserver for BenchObserver {
    fn on_start(&self, _name: &str, _total: usize) {
        if let Some(t) = &self.tracer {
            self.run_start.store(t.now(), Ordering::Relaxed);
        }
    }

    fn on_record(
        &self,
        record: &ScenarioRecord,
        _origin: RecordOrigin,
        _done: usize,
        _total: usize,
    ) {
        let now = Instant::now();
        {
            let mut state = self.state.lock().expect("observer poisoned");
            let ms = now.saturating_duration_since(state.base).as_secs_f64() * 1e3;
            state.latencies_ms.push(ms);
        }
        if let Some(t) = &self.tracer {
            let end = t.at(now);
            let run_start = self.run_start.load(Ordering::Relaxed);
            let start = LAST_RECORD.with(|last| {
                let s = last.get().max(run_start);
                last.set(end);
                s
            });
            t.spans.lock().expect("span store poisoned").push(Span {
                kind: Kind::Scenario,
                tag: geometry(&record.scenario),
                thread: thread_no(),
                start,
                end,
                n: 1,
            });
        }
    }

    fn on_finish(&self, _report: &StudyReport, _stats: &SessionStats) {
        self.submit();
    }
}

// ---------------------------------------------------------------------
// analysis
// ---------------------------------------------------------------------

/// Self time (ns) per span, in the input order, and the tag each span
/// inherits from its nearest tagged `scenario` ancestor (sim spans are
/// classed by the geometry of the scenario that ran them).
pub fn self_times(spans: &[Span]) -> (Vec<u64>, Vec<&'static str>) {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut tags: Vec<&'static str> = spans.iter().map(|s| s.tag).collect();
    let mut by_thread: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        by_thread.entry(s.thread).or_default().push(i);
    }
    for idx in by_thread.values_mut() {
        // Parents first: earlier start, then longer span.
        idx.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
        let mut stack: Vec<usize> = Vec::new();
        for &i in idx.iter() {
            // Spans on one thread nest or are disjoint; the stack holds
            // the chain of spans still open at this start.
            while stack
                .last()
                .is_some_and(|&top| spans[top].end < spans[i].end)
            {
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                own[parent] = own[parent].saturating_sub(spans[i].dur());
                if tags[i].is_empty() {
                    tags[i] = tags[parent];
                }
            }
            stack.push(i);
        }
    }
    (own, tags)
}

/// Length (ns) of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// `intervals` sorted, with overlapping ones merged.
pub fn merged(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// One span as a JSON line (for the span dump written at exit).
pub fn span_json(s: &Span, pass: usize) -> String {
    format!(
        "{{\"pass\":{pass},\"span\":\"{}\",\"tag\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
        s.kind.name(),
        s.tag,
        s.thread,
        s.start,
        s.end,
        s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, thread: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            tag: "",
            thread,
            start,
            end,
            n: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_the_same_thread_only() {
        let mut scenario = span(Kind::Scenario, 1, 0, 100);
        scenario.tag = "dm8k";
        let spans = vec![
            span(Kind::Traces, 1, 10, 20),
            span(Kind::Sim, 1, 10, 60),
            span(Kind::Traces, 1, 30, 40),
            span(Kind::Eval, 1, 70, 80),
            scenario,
            span(Kind::Eval, 2, 0, 50),
        ];
        let (own, tags) = self_times(&spans);
        assert_eq!(own, vec![10, 30, 10, 10, 40, 50]);
        assert_eq!(tags[1], "dm8k", "sim inherits the scenario's geometry");
        assert_eq!(tags[5], "", "other threads are not children");
    }

    #[test]
    fn coverage_is_the_clipped_union() {
        let mut iv = vec![(0, 10), (5, 20), (30, 40), (35, 36)];
        assert_eq!(covered(&mut iv, 0, 100), 30);
        assert_eq!(covered(&mut iv, 8, 32), 14);
        assert_eq!(merged(iv), vec![(0, 20), (30, 40)]);
    }
}
