//! The shared pass loop, output checks and result assembly.

use crate::catalog::{Catalog, RECONCILE_SLACK};
use crate::spans::{self, Kind, Span, Tracer};
use crate::stats::{median, percentile};
use aging_cache::json::Json;
use aging_cache::session::SessionStats;
use aging_cache::study::{ScenarioGrid, StudyReport};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Workload seed: shifts every trace seed and the serve-warm mix.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Shrink every input to a smoke-test size (the self-test).
    pub tiny: bool,
    /// Where journals, results and span dumps go.
    pub out_dir: PathBuf,
}

impl Config {
    /// The base seed of every spec the workload builds: the study
    /// default shifted by the workload seed (suite workloads take
    /// `base + index`, so a stride of 100 never overlaps).
    pub fn base_seed(&self) -> u64 {
        aging_cache::study::DEFAULT_BASE_SEED + 100 * self.seed
    }

    /// A fresh, empty working directory under the output directory.
    pub fn work_dir(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join("work").join(format!(
            "{}-{}-{name}",
            self.workload,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create working dir");
        dir
    }
}

/// Operation and output-check bookkeeping behind `attempted`, `failed`
/// and `error_rate`. Nothing is skipped: every operation the run makes
/// is counted and checked.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a mismatching output.
    pub failed: u64,
    /// The first few failure messages.
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts one operation; `problem` is `None` when it succeeded and
    /// every check on its output held.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.messages.len() < 20 {
                eprintln!("check failed: {p}");
                self.messages.push(p);
            }
        }
    }

    /// Counts one operation whose checks are the listed conditions.
    pub fn expect(&mut self, what: &str, conditions: &[(bool, &str)]) {
        let broken: Vec<&str> = conditions
            .iter()
            .filter(|(ok, _)| !ok)
            .map(|(_, m)| *m)
            .collect();
        self.op((!broken.is_empty()).then(|| format!("{what}: {}", broken.join("; "))));
    }
}

/// FNV-1a 64 of some bytes, as hex: the output digest results record.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The process's resident-set high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Distinct simulation keys of a grid (geometry, workload, seed,
/// horizon): the simulations the session needs, whatever it runs.
pub fn distinct_sim_keys(grid: &ScenarioGrid) -> usize {
    grid.scenarios()
        .iter()
        .map(|s| {
            (
                s.cache_bytes,
                s.line_bytes,
                s.banks,
                s.ways,
                s.replacement.clone(),
                s.l2_cache_bytes,
                s.l2_ways,
                s.workload.clone(),
                s.trace_seed,
                s.trace_cycles,
            )
        })
        .collect::<BTreeSet<_>>()
        .len()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one journal replay measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Replayed {
    /// When the timed replay started and ended.
    pub timed: (Instant, Instant),
    /// Fresh session over the journal, open to report, s.
    pub secs: f64,
    /// Digest of the replayed outputs.
    pub digest: String,
    /// Scenarios the replay answered.
    pub scenarios: usize,
    /// Scenarios replayed whole from the journal.
    pub hits: usize,
    /// Simulations the replay ran (must be none).
    pub simulations: usize,
}

impl Replayed {
    /// Builds the record from a replay's timer, outputs and counters.
    pub fn new(started: Instant, outputs: &str, stats: &[SessionStats]) -> Replayed {
        let ended = Instant::now();
        Replayed {
            timed: (started, ended),
            secs: ended.duration_since(started).as_secs_f64(),
            digest: digest(outputs.as_bytes()),
            scenarios: stats.iter().map(|s| s.scenarios).sum(),
            hits: stats.iter().map(|s| s.cache_hits).sum(),
            simulations: stats.iter().map(|s| s.simulations).sum(),
        }
    }

    /// The timed interval in `tracer`'s ns.
    pub fn phase(&self, tracer: &Tracer) -> (u64, u64) {
        (tracer.at(self.timed.0), tracer.at(self.timed.1))
    }

    /// The replay checks: every scenario a journal hit, nothing
    /// simulated, outputs byte-identical to the cold run's.
    pub fn check(&self, checks: &mut Checks, cold_digest: &str) {
        checks.expect(
            "journal replay",
            &[
                (
                    self.digest == cold_digest,
                    "replay bytes differ from the cold run's",
                ),
                (
                    self.hits == self.scenarios && self.hits > 0,
                    "replay must be all hits",
                ),
                (self.simulations == 0, "replay must not simulate"),
            ],
        );
    }
}

/// The measurements one pass of a batch workload yields.
#[derive(Debug, Default, Clone)]
pub struct Pass {
    /// Set-up before the first measured operation, s.
    pub setup_s: f64,
    /// The measured operation, s.
    pub wall_s: f64,
    /// Fresh-session replay from the pass's journal, s.
    pub replay_s: f64,
    /// Scenario results the measured operation produced.
    pub scenarios: f64,
    /// Simulated accesses the measured operation needed.
    pub accesses: f64,
    /// Scenario evaluations requested (search probes on optimize-temp).
    pub probes: f64,
    /// Record latencies, ms.
    pub latencies_ms: Vec<f64>,
    /// Digest of the pass's outputs.
    pub digest: String,
    /// Per-layer metrics (traced passes only).
    pub layer: BTreeMap<String, f64>,
    /// The pass's spans and timed phases (traced passes only).
    pub trace: Trace,
}

/// The spans of one traced pass and the timed phases (tracer ns) they
/// should explain.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every span recorded.
    pub spans: Vec<Span>,
    /// The timed intervals: the measured operations of a batch pass,
    /// the in-flight client requests of serve-warm.
    pub phases: Vec<(u64, u64)>,
}

/// A finished run, before formatting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations and checks.
    pub checks: Checks,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
    /// Output digests by name.
    pub digests: BTreeMap<String, String>,
    /// Spans and phases of every traced pass.
    pub traces: Vec<Trace>,
}

/// Runs passes of a batch workload for the configured time (at least
/// `min_passes`). Untraced: every pass is untraced. Traced: passes
/// alternate untraced/traced, so the overhead ratio compares
/// neighbours. `pass(traced, index)` returns `Err` when an operation
/// failed; the failure is counted and the loop stops.
pub fn batch_loop(
    cfg: &Config,
    checks: &mut Checks,
    min_passes: usize,
    mut pass: impl FnMut(bool, usize, &mut Checks) -> Result<Pass, String>,
) -> (Vec<Pass>, Vec<Pass>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0;
    loop {
        let with_trace = cfg.trace && i % 2 == 1;
        match pass(with_trace, i, checks) {
            Ok(p) if with_trace => traced.push(p),
            Ok(p) => plain.push(p),
            Err(e) => {
                checks.op(Some(e));
                break;
            }
        }
        i += 1;
        let need = if cfg.trace {
            2 * min_passes
        } else {
            min_passes
        };
        if i >= need && secs(start) >= cfg.seconds {
            break;
        }
    }
    (plain, traced)
}

/// The end-to-end metrics of a batch workload from its untraced passes.
/// `max_rate_rps` of a batch is its sustained scenario rate: a batch
/// offers its whole load at once, so the rate it completes is the
/// highest it sustains.
pub fn batch_end_to_end(passes: &[Pass], metrics: &mut BTreeMap<String, f64>) {
    let col = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let rate = col(&|p| p.scenarios / p.wall_s);
    for (name, value) in [
        ("setup_s", col(&|p| p.setup_s)),
        ("wall_s", col(&|p| p.wall_s)),
        ("replay_s", col(&|p| p.replay_s)),
        ("scenarios_per_s", rate),
        ("sim_accesses_per_s", col(&|p| p.accesses / p.wall_s)),
        ("request_p50_ms", percentile(&latencies, 50.0)),
        ("max_rate_rps", rate),
        ("probes", col(&|p| p.probes)),
    ] {
        metrics.insert(name.to_string(), value);
    }
}

/// One line listing each untraced pass's timings, for the reader.
pub fn pass_summary(passes: &[Pass]) -> String {
    let list = |f: &dyn Fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "{} passes; wall_s [{}]; replay_s [{}]; {} record latencies",
        passes.len(),
        list(&|p| p.wall_s),
        list(&|p| p.replay_s),
        passes.iter().map(|p| p.latencies_ms.len()).sum::<usize>()
    )
}

/// Checks every pass (traced or not) produced the same outputs.
pub fn check_identical(checks: &mut Checks, plain: &[Pass], traced: &[Pass]) {
    let mut digests = plain.iter().chain(traced).map(|p| p.digest.as_str());
    if let Some(first) = digests.next() {
        let odd = digests.filter(|d| *d != first).count();
        checks.expect(
            "outputs across passes",
            &[(
                odd == 0,
                "a pass (traced or untraced) produced different bytes",
            )],
        );
    }
}

/// Per-layer metrics of a batch workload's traced passes: the median
/// of each metric over the passes, plus the overhead ratio of the timed
/// operations (cold run and replay) against the neighbouring untraced
/// passes.
pub fn batch_per_layer(plain: &[Pass], traced: &[Pass], metrics: &mut BTreeMap<String, f64>) {
    let keys: BTreeSet<&String> = traced.iter().flat_map(|p| p.layer.keys()).collect();
    for key in keys {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layer.get(key).copied())
            .collect();
        metrics.insert(key.clone(), median(&values));
    }
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall_s + p.replay_s).collect::<Vec<_>>());
    metrics.insert("trace.overhead".into(), wall(traced) / wall(plain));
}

/// Per-layer metrics derivable from one pass's spans.
pub fn span_metrics(trace: &Trace) -> BTreeMap<String, f64> {
    let spans = &trace.spans;
    let (own, tags) = spans::self_times(spans);
    let mut count: BTreeMap<(Kind, &str), f64> = BTreeMap::new();
    let mut busy: BTreeMap<(Kind, &str), f64> = BTreeMap::new();
    let mut work: BTreeMap<(Kind, &str), f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        for tag in ["", tags[i]] {
            *count.entry((s.kind, tag)).or_default() += 1.0;
            *busy.entry((s.kind, tag)).or_default() += own[i] as f64 * 1e-9;
            *work.entry((s.kind, tag)).or_default() += s.n as f64;
            if tags[i].is_empty() {
                break;
            }
        }
    }
    let get =
        |m: &BTreeMap<(Kind, &str), f64>, k: Kind, t: &str| m.get(&(k, t)).copied().unwrap_or(0.0);
    let rate = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), v);
    };
    put("traces.opens", get(&count, Kind::Sim, ""));
    put("traces.accesses", get(&work, Kind::Traces, ""));
    put("traces.busy_s", get(&busy, Kind::Traces, ""));
    put(
        "traces.accesses_per_s",
        rate(get(&work, Kind::Traces, ""), get(&busy, Kind::Traces, "")),
    );
    put("sim.runs", get(&count, Kind::Sim, ""));
    put("sim.accesses", get(&work, Kind::Sim, ""));
    put("sim.busy_s", get(&busy, Kind::Sim, ""));
    for geo in ["dm8k", "dm16k", "dm32k", "way4", "l1l2"] {
        put(
            &format!("sim.accesses_per_s.{geo}"),
            rate(get(&work, Kind::Sim, geo), get(&busy, Kind::Sim, geo)),
        );
    }
    put("model.calibrations", get(&count, Kind::Calibrate, ""));
    put("model.calibrate_s", get(&busy, Kind::Calibrate, ""));
    put("model.evals", get(&count, Kind::Eval, ""));
    put("model.eval_busy_s", get(&busy, Kind::Eval, ""));
    for fam in ["nbti", "drv", "variation"] {
        put(
            &format!("model.evals_per_s.{fam}"),
            rate(get(&count, Kind::Eval, fam), get(&busy, Kind::Eval, fam)),
        );
    }
    put("session.self_s", get(&busy, Kind::Scenario, ""));
    put("rescache.lookups", get(&work, Kind::Lookup, ""));
    put("rescache.lookup_s", get(&busy, Kind::Lookup, ""));
    put("rescache.stores", get(&work, Kind::Store, ""));
    put("rescache.store_s", get(&busy, Kind::Store, ""));

    put("trace.unattributed", unattributed(trace));
    out
}

/// The share of the timed phases during which no layer span runs on
/// any thread. Only the seams that time a layer's own work count
/// (traces, sim, model, rescache): `scenario` spans are left out, since
/// each one fills the gap since its worker's previous record and so
/// covers any time the layer wrappers miss, and so are client requests.
/// Whatever the session, executor or an unwrapped layer does while no
/// wrapped layer runs stays unexplained.
pub fn unattributed(trace: &Trace) -> f64 {
    let total: u64 = trace.phases.iter().map(|(a, b)| b - a).sum();
    if total == 0 {
        return 0.0;
    }
    let mut layers: Vec<(u64, u64)> = trace
        .spans
        .iter()
        .filter(|s| !matches!(s.kind, Kind::Scenario | Kind::Request))
        .map(|s| (s.start, s.end))
        .collect();
    let explained: u64 = trace
        .phases
        .iter()
        .map(|&(lo, hi)| spans::covered(&mut layers, lo, hi))
        .sum();
    1.0 - explained as f64 / total as f64
}

/// The traced run's reconciliation check: the layer spans must leave at
/// most [`RECONCILE_SLACK`] of the timed wall unexplained.
pub fn check_reconciled(checks: &mut Checks, metrics: &BTreeMap<String, f64>) {
    let unattributed = metrics.get("trace.unattributed").copied().unwrap_or(1.0);
    checks.expect(
        "self times reconcile with the traced wall",
        &[(
            unattributed <= RECONCILE_SLACK,
            "layer spans leave more of the wall unexplained than the stated slack",
        )],
    );
}

/// Table II accuracy against the paper: mean absolute relative error
/// of LT and mean absolute error of Esav over every (workload, size)
/// cell the report holds.
pub fn table2_accuracy(report: &StudyReport) -> (f64, f64) {
    let (mut lt, mut esav, mut n) = (0.0, 0.0, 0.0);
    for r in report.records() {
        let col = match r.scenario.cache_bytes / 1024 {
            8 => 0,
            16 => 1,
            32 => 2,
            _ => continue,
        };
        let Some(row) = aging_cache::paper::TABLE2
            .iter()
            .find(|row| row.name == r.scenario.workload)
        else {
            continue;
        };
        lt += (r.lt_years() - row.lt[col]).abs() / row.lt[col];
        esav += (r.esav - row.esav[col]).abs();
        n += 1.0;
    }
    if n == 0.0 {
        (0.0, 0.0)
    } else {
        (lt / n, esav / n)
    }
}

/// Formats the result: every metric of the run's kind by name with its
/// unit (one line each), then the one-line JSON result. Metrics the run
/// does not define read `0` (a layer idle on this workload).
pub fn render(cfg: &Config, catalog: &Catalog, outcome: &Outcome) -> (Vec<String>, Json) {
    let list = if cfg.trace {
        &catalog.per_layer
    } else {
        &catalog.end_to_end
    };
    let mut lines = Vec::new();
    let mut pairs: Vec<(String, Json)> = Vec::new();
    for m in list {
        let value = outcome.metrics.get(&m.name).copied().unwrap_or(0.0);
        lines.push(format!(
            "{:<32} {:>18} {}",
            m.name,
            fmt_value(value),
            m.unit
        ));
        pairs.push((
            m.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(m.unit.clone())),
            ]),
        ));
    }
    let c = &outcome.checks;
    lines.push(format!(
        "{:<32} {:>18} ratio ({} failed of {} attempted)",
        "error_rate",
        fmt_value(c.failed as f64 / c.attempted.max(1) as f64),
        c.failed,
        c.attempted
    ));
    let result = Json::obj(vec![
        ("correct", Json::Bool(c.failed == 0 && c.attempted > 0)),
        ("attempted", Json::Num(c.attempted.max(1) as f64)),
        ("failed", Json::Num(c.failed as f64)),
        ("metrics", Json::Obj(pairs)),
    ]);
    (lines, result)
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e9) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}
