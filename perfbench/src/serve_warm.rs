//! `serve-warm`: a [`StudyServer`] over a journal, driven over HTTP by
//! an open-loop generator.
//!
//! Set-up fills the journal through the server (`POST /run` on
//! 8/16/32 kB × 18 workloads × 5 policies at 40k cycles: 270 records).
//! The generator sends each request when it is due, over at most
//! `nproc` keep-alive connections, and times it from when it was due,
//! so a stall charges every request queued behind it. The mix is
//! `GET /render` (four formats, with and without `group-by` and
//! `baseline`), `GET /query`, `POST /compare` with a report body, and a
//! small share of `POST /run` on cells absent from the journal (fresh
//! trace seeds), which simulate, evaluate and append beside the reads.
//!
//! `max_rate_rps` is the highest rung of a fixed rate ladder whose p99
//! meets [`LIMIT_MS`] with no growing backlog, the median of one search
//! per round; `request_p50_ms` is measured at the fixed [`OFFERED_RPS`].
//! The window's p99 is printed with its sample count; per route it is a
//! traced-run metric.
//!
//! The mix shares, the offered rate, the p99 limit and the ladder base
//! are fixed choices of this benchmark, not measured traffic; what each
//! stands for is set out in `perfbench/README.md`.

use crate::http::Conn;
use crate::meta::nproc;
use crate::run::{self, Checks, Config, Outcome, Replayed, Trace};
use crate::spans::{self, BenchObserver, Kind, TimedCache, Tracer};
use crate::stats::{median, percentile};
use aging_cache::analysis::{self, Axis, Query, Reduce};
use aging_cache::exec::ExecOptions;
use aging_cache::json::Json;
use aging_cache::model::ModelContext;
use aging_cache::render::{self, Format};
use aging_cache::rescache::JsonlCache;
use aging_cache::serve::{ServeOptions, StudyServer, REPORT_NAME};
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The offered rate of the latency window, requests/s.
pub const OFFERED_RPS: f64 = 150.0;
/// The p99 latency limit a ladder rung must meet, ms.
pub const LIMIT_MS: f64 = 100.0;
/// Ladder rungs are `LADDER_BASE_RPS · 2^(k/RUNGS_PER_DOUBLING)`.
pub const LADDER_BASE_RPS: f64 = 50.0;
/// Highest ladder index tried.
const LADDER_TOP: u32 = 8 * RUNGS_PER_DOUBLING;
/// Rungs per doubling of the rate: about 4.4 % apart.
const RUNGS_PER_DOUBLING: u32 = 16;
/// The rung the first round's ladder search starts from (200
/// requests/s, well below what the server sustains), in steps of a
/// doubling.
const FIRST_RUNG: u32 = 2 * RUNGS_PER_DOUBLING;
/// The step of every later round's search, which starts from the
/// previous round's result.
const LOCAL_STEP: u32 = 2;
/// How long one ladder rung offers load, s.
const RUNG_S: f64 = 0.5;
/// Fewest requests one rung sends.
const RUNG_MIN: usize = 60;
/// Rounds of the untraced run: set-ups, a ladder search, a share of
/// the window and replays, each on a fresh server.
const ROUNDS: usize = 5;
/// Journal replays (each on a fresh session) per round.
const REPLAYS_PER_ROUND: usize = 2;
/// Server set-ups per round (the last one serves the round).
const SETUPS_PER_ROUND: usize = 3;

/// The request routes of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    /// `GET /render`.
    Render,
    /// `GET /query`.
    Query,
    /// `POST /compare`.
    Compare,
    /// `POST /run` on an absent cell.
    Run,
}

impl Route {
    fn tag(self) -> &'static str {
        match self {
            Route::Render => "render",
            Route::Query => "query",
            Route::Compare => "compare",
            Route::Run => "run",
        }
    }
}

/// What the journal holds and the mix reads.
struct Fill {
    trace_cycles: u64,
    policies: &'static [&'static str],
    workloads: Vec<String>,
    base_seed: u64,
}

impl Fill {
    fn new(cfg: &Config) -> Fill {
        let suite = crate::table2_cold::suite_names();
        Fill {
            trace_cycles: if cfg.tiny { 2_000 } else { 40_000 },
            policies: if cfg.tiny {
                &["identity", "probing"]
            } else {
                &["identity", "probing", "scrambling", "gray", "rotate-xor"]
            },
            workloads: if cfg.tiny {
                suite.into_iter().take(2).collect()
            } else {
                suite
            },
            base_seed: cfg.base_seed(),
        }
    }

    fn query(&self, policies: &[&str]) -> String {
        format!(
            "cache-kb=8,16,32&policies={}&workloads={}&trace-cycles={}&seed={}",
            policies.join(","),
            self.workloads.join(","),
            self.trace_cycles,
            self.base_seed
        )
    }

    fn spec(&self, policies: &[&str]) -> Result<StudySpec, String> {
        StudySpec::new(REPORT_NAME)
            .cache_kb([8, 16, 32])
            .policies(policies.iter().copied())
            .workload_names(&self.workloads)
            .map_err(|e| e.to_string())
            .map(|s| s.trace_cycles(self.trace_cycles).base_seed(self.base_seed))
    }

    fn cells(&self, policies: usize) -> usize {
        3 * policies * self.workloads.len()
    }
}

/// One render target: query suffix, format, grouping, baseline.
struct RenderTarget {
    suffix: String,
    format: Format,
    group_by: Vec<Axis>,
    baseline: Option<&'static str>,
}

fn render_targets() -> Vec<RenderTarget> {
    let mut out = Vec::new();
    for format in Format::ALL {
        for (suffix, group_by, baseline) in [
            ("", vec![], None),
            ("&group-by=policy", vec![Axis::Policy], None),
            (
                "&group-by=workload&baseline=identity",
                vec![Axis::Workload],
                Some("identity"),
            ),
        ] {
            out.push(RenderTarget {
                suffix: format!("&format={}{suffix}", format.name()),
                format,
                group_by,
                baseline,
            });
        }
    }
    out
}

/// Query targets: `(suffix, metric, reduce, group-by)`; JSON bodies,
/// so the expected body is rebuilt in-process.
const QUERY_TARGETS: [(&str, &str, Reduce, Axis); 2] = [
    (
        "&metric=lt_years&reduce=geomean&group-by=policy&format=json",
        "lt_years",
        Reduce::Geomean,
        Axis::Policy,
    ),
    (
        "&metric=esav&reduce=mean&group-by=cache_kb&format=json",
        "esav",
        Reduce::Mean,
        Axis::CacheBytes,
    ),
];

/// One planned request.
#[derive(Clone)]
struct Req {
    route: Route,
    target: usize,
    method: &'static str,
    path: String,
    body: Arc<Vec<u8>>,
    cells: usize,
}

/// The seeded request mix.
struct Mix {
    rng: u64,
    fill: Arc<Fill>,
    renders: usize,
    compare_body: Arc<Vec<u8>>,
    next_run: u64,
    run_seed_base: u64,
}

impl Mix {
    fn next_u64(&mut self) -> u64 {
        // SplitMix64.
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn request(&mut self, route: Route, target: usize) -> Req {
        let all = self.fill.query(self.fill.policies);
        let empty = Arc::new(Vec::new());
        let cells = self.fill.cells(self.fill.policies.len());
        match route {
            Route::Render => Req {
                route,
                target,
                method: "GET",
                path: format!("/render?{all}{}", render_targets()[target].suffix),
                body: empty,
                cells,
            },
            Route::Query => Req {
                route,
                target,
                method: "GET",
                path: format!("/query?{all}{}", QUERY_TARGETS[target].0),
                body: empty,
                cells,
            },
            Route::Compare => Req {
                route,
                target,
                method: "POST",
                path: "/compare".to_string(),
                body: Arc::clone(&self.compare_body),
                cells: self.fill.cells(1),
            },
            Route::Run => {
                let k = self.next_run;
                self.next_run += 1;
                let w = &self.fill.workloads[k as usize % self.fill.workloads.len()];
                Req {
                    route,
                    target,
                    method: "POST",
                    path: format!(
                        "/run?cache-kb=16&policies=probing&workloads={w}&trace-cycles={}&seed={}",
                        self.fill.trace_cycles,
                        self.run_seed_base + k
                    ),
                    body: empty,
                    cells: 1,
                }
            }
        }
    }

    /// `n` requests drawn from shuffled decks of 100 with the mix's
    /// exact shares (72 render, 6 per target; 14 query; 9 compare;
    /// 5 run), so every seed offers the same composition in its own
    /// order.
    fn plan(&mut self, n: usize) -> Vec<Req> {
        let mut out = Vec::with_capacity(n + 100);
        while out.len() < n {
            let mut deck: Vec<(Route, usize)> = Vec::with_capacity(100);
            for t in 0..self.renders {
                deck.extend(std::iter::repeat_n((Route::Render, t), 72 / self.renders));
            }
            for t in 0..QUERY_TARGETS.len() {
                deck.extend(std::iter::repeat_n(
                    (Route::Query, t),
                    14 / QUERY_TARGETS.len(),
                ));
            }
            deck.extend(std::iter::repeat_n((Route::Compare, 0), 9));
            deck.extend(std::iter::repeat_n((Route::Run, 0), 5));
            for i in (1..deck.len()).rev() {
                let j = (self.next_u64() % (i as u64 + 1)) as usize;
                deck.swap(i, j);
            }
            for (route, target) in deck {
                out.push(self.request(route, target));
            }
        }
        out.truncate(n);
        out
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
struct Sample {
    route: Route,
    target: usize,
    status: u16,
    latency_ms: f64,
    lag_ms: f64,
    /// Seconds from the schedule's start to the response.
    done_s: f64,
    digest: String,
    computed_one: bool,
    cells: usize,
    error: Option<String>,
}

/// Sleeps until shortly before `due`, then yields until it: a sleeping
/// thread on an idle virtual CPU can wake late, and that lateness would
/// count as request latency.
fn wait_until(due: Instant) {
    let early = Duration::from_micros(300);
    let now = Instant::now();
    if now + early < due {
        std::thread::sleep(due - now - early);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Sends `plan` open-loop at `rate` over `nproc` connections.
fn drive(addr: SocketAddr, plan: &[Req], rate: f64, tracer: Option<&Arc<Tracer>>) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..nproc() {
            scope.spawn(|| {
                let mut conn = Conn::open(addr).ok();
                let mut mine = Vec::new();
                let mut ready = Instant::now();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = plan.get(i) else { break };
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    wait_until(due);
                    let sent = Instant::now();
                    let lag_ms = sent.saturating_duration_since(due.max(ready)).as_secs_f64() * 1e3;
                    let t_span = tracer.map(|t| t.at(sent));
                    let result = match conn.as_mut() {
                        Some(c) => c.request(req.method, &req.path, &req.body),
                        None => Err(std::io::Error::other("no connection")),
                    };
                    let done = Instant::now();
                    if let (Some(t), Some(s)) = (tracer, t_span) {
                        t.record(Kind::Request, req.route.tag(), s, 1);
                    }
                    ready = done;
                    let mut sample = Sample {
                        route: req.route,
                        target: req.target,
                        status: 0,
                        latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                        lag_ms,
                        done_s: done.saturating_duration_since(start).as_secs_f64(),
                        digest: String::new(),
                        computed_one: false,
                        cells: req.cells,
                        error: None,
                    };
                    match result {
                        Ok(r) => {
                            sample.status = r.status;
                            sample.digest = run::digest(&r.body);
                            sample.computed_one = req.route == Route::Run
                                && String::from_utf8_lossy(&r.body).contains("\"computed\":1,");
                        }
                        Err(e) => {
                            sample.error = Some(e.to_string());
                            conn = Conn::open(addr).ok();
                        }
                    }
                    mine.push(sample);
                }
                samples.lock().expect("samples poisoned").extend(mine);
            });
        }
    });
    samples.into_inner().expect("samples poisoned")
}

/// Whether one ladder rung held: every request answered 200, p99 under
/// the limit, and the last tenth of the schedule not sent later than
/// the limit behind its due time (no growing backlog).
fn rung_holds(samples: &[Sample]) -> bool {
    if samples.iter().any(|s| s.status != 200) {
        return false;
    }
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let mut by_done: Vec<&Sample> = samples.iter().collect();
    by_done.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let tail = &by_done[by_done.len() * 9 / 10..];
    let tail_late = tail.iter().map(|s| s.latency_ms).fold(0.0, f64::max);
    percentile(&lat, 99.0) <= LIMIT_MS && tail_late <= LIMIT_MS
}

/// The ladder rate of rung `k`, requests/s.
fn rung_rate(k: u32) -> f64 {
    LADDER_BASE_RPS * 2f64.powf(f64::from(k) / f64::from(RUNGS_PER_DOUBLING))
}

/// The highest ladder rung that holds: steps of `step` rungs from
/// `from` (up while rungs hold, else down until one does), then
/// bisection between the last rung that held and the first that failed
/// (rungs assumed monotone). `None` when not even rung 0 holds.
fn max_rung(
    addr: SocketAddr,
    mix: &mut Mix,
    all: &mut Vec<Sample>,
    from: u32,
    step: u32,
) -> Option<u32> {
    // A rung gets a second try before it counts as failed: one stall
    // of the shared host must not cut the ladder short.
    let mut holds = |k: u32| {
        let r = rung_rate(k);
        let n = RUNG_MIN.max((r * RUNG_S) as usize);
        (0..2).any(|_| {
            let s = drive(addr, &mix.plan(n), r, None);
            let ok = rung_holds(&s);
            all.extend(s);
            ok
        })
    };
    let (mut good, mut bad) = if holds(from) {
        let mut good = from;
        loop {
            let k = good + step;
            if k > LADDER_TOP {
                break (good, LADDER_TOP + 1);
            }
            if !holds(k) {
                break (good, k);
            }
            good = k;
        }
    } else {
        let mut bad = from;
        loop {
            if bad == 0 {
                return None;
            }
            let k = bad.saturating_sub(step);
            if holds(k) {
                break (k, bad);
            }
            bad = k;
        }
    };
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        if holds(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

/// A running server: its address and the totals read at shutdown.
struct Served {
    setup_s: f64,
    stats: aging_cache::serve::ServeStats,
    session: aging_cache::session::SessionStats,
}

/// Binds a server over a fresh journal in `dir`, fills it through
/// `POST /run`, runs `measure`, then shuts the server down and joins it.
fn with_server(
    fill: &Fill,
    dir: &Path,
    tracer: Option<&Arc<Tracer>>,
    measure: impl FnOnce(SocketAddr) -> Result<(), String>,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let journal = JsonlCache::in_dir(dir).map_err(|e| e.to_string())?;
    let options = ServeOptions {
        threads: nproc(),
        ..ServeOptions::default()
    };
    let exec = ExecOptions::threaded().with_threads(nproc());
    let server = match tracer {
        Some(t) => {
            let ctx = ModelContext::with_registry(spans::timed_models(["nbti-45nm"], t));
            let observer = BenchObserver::new(Some(Arc::clone(t)));
            StudyServer::bind_with(TimedCache::new(journal, t), options, move |_| {
                StudySession::with_context(ctx)
                    .exec(exec)
                    .observer(observer)
            })
        }
        None => StudyServer::bind_with(journal, options, move |s| s.exec(exec)),
    }
    .map_err(|e| e.to_string())?;
    let addr = server.addr();
    let stop = server.shutdown_handle();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve());
        let outcome = (|| {
            let sent = tracer.map(|t| t.now());
            let r = crate::http::once(addr, "POST", &format!("/run?{}", fill.query(fill.policies)))
                .map_err(|e| e.to_string())?;
            if let (Some(t), Some(sent)) = (tracer, sent) {
                t.record(Kind::Request, Route::Run.tag(), sent, 1);
            }
            if r.status != 200 {
                return Err(format!("fill: status {}", r.status));
            }
            let setup_s = run::secs(t0);
            measure(addr)?;
            Ok(setup_s)
        })();
        stop.store(true, Ordering::SeqCst);
        let served = serving
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        served.map_err(|e| e.to_string())?;
        Ok(Served {
            setup_s: outcome?,
            stats: server.stats(),
            session: server.session().stats(),
        })
    })
}

/// The probing records of the served report as report JSON: the
/// `/compare` body. A subset keeps each record's own scenario (ids and
/// policy seeds), so it diffs clean against the journal.
fn probing_report(fill: &Fill, addr: SocketAddr) -> Result<Vec<u8>, String> {
    let all = fill.query(fill.policies);
    let r = crate::http::once(addr, "GET", &format!("/render?{all}&format=json"))
        .map_err(|e| e.to_string())?;
    if r.status != 200 {
        return Err(format!("compare body: status {}", r.status));
    }
    let full =
        StudyReport::from_json(&String::from_utf8_lossy(&r.body)).map_err(|e| e.to_string())?;
    let probing = full
        .records()
        .iter()
        .filter(|rec| rec.scenario.policy == "probing")
        .cloned()
        .collect();
    Ok(StudyReport::from_records(REPORT_NAME, probing)
        .to_json()
        .into_bytes())
}

/// The in-process answers every response is checked against.
struct Expected {
    renders: Vec<String>,
    queries: Vec<String>,
    report: StudyReport,
}

fn expected(report: StudyReport) -> Result<Expected, String> {
    let renders = render_targets()
        .iter()
        .map(|t| {
            render::report(
                &report,
                |r| analysis::summary_table(r, &t.group_by, t.baseline),
                t.format,
            )
            .map(|body| run::digest(format!("{body}\n").as_bytes()))
            .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let queries = QUERY_TARGETS
        .iter()
        .map(|&(_, metric, reduce, axis)| {
            let rows = Query::new(&report)
                .group_by([axis])
                .reduce(metric, reduce)
                .map_err(|e| e.to_string())?;
            let body = Json::obj(vec![
                ("metric", Json::Str(metric.to_string())),
                ("reduce", Json::Str(reduce.name().to_string())),
                ("scenarios", Json::Num(report.records().len() as f64)),
                (
                    "rows",
                    Json::Arr(
                        rows.iter()
                            .map(|row| {
                                Json::obj(vec![
                                    (
                                        "key",
                                        Json::Arr(
                                            row.key
                                                .iter()
                                                .map(|v| Json::Str(v.to_string()))
                                                .collect(),
                                        ),
                                    ),
                                    ("value", Json::Num(row.value)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]);
            Ok(run::digest(format!("{}\n", body.emit()).as_bytes()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Expected {
        renders,
        queries,
        report,
    })
}

/// Counts and checks every request: the expected status, render and
/// query bodies equal to the in-process answers, and each `/run`
/// computing its one absent cell.
fn check_samples(checks: &mut Checks, samples: &[Sample], want: &Expected) {
    for s in samples {
        let body_ok = match s.route {
            Route::Render => want.renders.get(s.target) == Some(&s.digest),
            Route::Query => want.queries.get(s.target) == Some(&s.digest),
            Route::Compare => true,
            Route::Run => s.computed_one,
        };
        let problem = if let Some(e) = &s.error {
            Some(format!("{} request failed: {e}", s.route.tag()))
        } else if s.status != 200 {
            Some(format!("{} answered {}", s.route.tag(), s.status))
        } else if !body_ok {
            Some(format!(
                "{} body differs from the in-process answer",
                s.route.tag()
            ))
        } else {
            None
        };
        checks.op(problem);
    }
}

/// The fill spec run on a fresh session over the journal in `dir`:
/// the report every served answer is checked against.
fn fill_report(
    fill: &Fill,
    dir: &Path,
) -> Result<(StudyReport, aging_cache::session::SessionStats), String> {
    let session = StudySession::new()
        .exec(ExecOptions::threaded().with_threads(nproc()))
        .cache(JsonlCache::in_dir(dir).map_err(|e| e.to_string())?);
    let report = session
        .run(&fill.spec(fill.policies)?)
        .map_err(|e| e.to_string())?;
    Ok((report, session.stats()))
}

/// One replay of the fill from the journal in `dir` on a fresh session.
pub fn replay(cfg: &Config, dir: &Path) -> Result<Replayed, String> {
    let t = Instant::now();
    let (report, stats) = fill_report(&Fill::new(cfg), dir)?;
    Ok(Replayed::new(t, &report.to_json(), &[stats]))
}

/// End-to-end metrics of the latency window.
fn window_metrics(samples: &[Sample], wall: f64, fill: &Fill, metrics: &mut BTreeMap<String, f64>) {
    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.status == 200).collect();
    let cells: usize = ok.iter().map(|s| s.cells).sum();
    let runs = ok.iter().filter(|s| s.route == Route::Run).count();
    metrics.insert("wall_s".into(), wall);
    metrics.insert("request_p50_ms".into(), percentile(&lat, 50.0));
    metrics.insert("scenarios_per_s".into(), cells as f64 / wall);
    metrics.insert(
        "sim_accesses_per_s".into(),
        (runs as u64 * fill.trace_cycles) as f64 / wall,
    );
    metrics.insert(
        "probes".into(),
        samples.iter().map(|s| s.cells).sum::<usize>() as f64,
    );
}

fn route_metrics(samples: &[Sample], metrics: &mut BTreeMap<String, f64>) {
    for route in [Route::Render, Route::Query, Route::Compare, Route::Run] {
        let lat: Vec<f64> = samples
            .iter()
            .filter(|s| s.route == route)
            .map(|s| s.latency_ms)
            .collect();
        metrics.insert(
            format!("serve.route_p50_ms.{}", route.tag()),
            percentile(&lat, 50.0),
        );
        metrics.insert(
            format!("serve.route_p99_ms.{}", route.tag()),
            percentile(&lat, 99.0),
        );
    }
    let lag: Vec<f64> = samples.iter().map(|s| s.lag_ms).collect();
    metrics.insert("client.lag_p99_ms".into(), percentile(&lag, 99.0));
}

/// Render metrics of the traced window. The server renders inside
/// `serve`, where no public seam reaches, so each render target is
/// timed here, in-process over the served report (`repeats` times, the
/// same `render::report` call the server makes per `/render`), and the
/// served requests are costed at those times: `render.calls` counts the
/// `/render` requests the window served, `render.busy_s` is their
/// render time at the measured per-target means, and
/// `render.records_per_s.*` is each format's in-process rate.
fn render_metrics(
    want: &Expected,
    served: &[Sample],
    repeats: usize,
    metrics: &mut BTreeMap<String, f64>,
) {
    let n = want.report.records().len() as f64;
    let targets = render_targets();
    let mut mean_s = vec![0.0; targets.len()];
    for (i, t) in targets.iter().enumerate() {
        let start = Instant::now();
        for _ in 0..repeats {
            let body = render::report(
                &want.report,
                |r| analysis::summary_table(r, &t.group_by, t.baseline),
                t.format,
            );
            std::hint::black_box(&body);
        }
        mean_s[i] = run::secs(start) / repeats as f64;
    }
    for format in Format::ALL {
        let (count, secs) = targets
            .iter()
            .zip(&mean_s)
            .filter(|(t, _)| t.format == format)
            .fold((0.0, 0.0), |(c, s), (_, m)| (c + 1.0, s + m));
        metrics.insert(
            format!("render.records_per_s.{}", format.name()),
            count * n / secs,
        );
    }
    let renders: Vec<&Sample> = served.iter().filter(|s| s.route == Route::Render).collect();
    metrics.insert("render.calls".into(), renders.len() as f64);
    metrics.insert(
        "render.busy_s".into(),
        renders.iter().map(|s| mean_s[s.target]).sum(),
    );
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(cfg, &mut out) {
        out.checks.op(Some(e));
    }
    out
}

fn mix(cfg: &Config, fill: &Arc<Fill>, compare_body: Vec<u8>, salt: u64) -> Mix {
    Mix {
        rng: cfg.seed ^ salt.wrapping_mul(0x2545_f491_4f6c_dd1d),
        fill: Arc::clone(fill),
        renders: render_targets().len(),
        compare_body: Arc::new(compare_body),
        next_run: 0,
        run_seed_base: 1_000_000 + 10_000 * cfg.seed + 1_000 * salt,
    }
}

fn run_inner(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let fill = Arc::new(Fill::new(cfg));
    let window_s = if cfg.tiny { 0.3 } else { 0.3 * cfg.seconds };
    let window_n = ((OFFERED_RPS * window_s) as usize).max(20);
    // Untraced, the window is split over rounds spread across the run,
    // each on its own freshly set-up server and followed by its own
    // replays, so no one moment of the host decides a metric.
    let rounds = if cfg.trace || cfg.tiny { 1 } else { ROUNDS };
    let mut compare_body = Vec::new();
    let mut setups = Vec::new();
    let mut samples_all = Vec::new();
    let mut window = Vec::new();
    let mut window_wall = 0.0;
    let mut replays = Vec::new();
    let mut rungs: Vec<Option<u32>> = Vec::new();
    let mut answers = None;
    for k in 0..rounds {
        // Set-up alone, twice, then the set-up that serves this round:
        // fills on two cores land in two modes, so `setup_s` takes the
        // median of many.
        for extra in 0..SETUPS_PER_ROUND - 1 {
            let dir = cfg.work_dir(&format!("setup{k}-{extra}"));
            setups.push(with_server(&fill, &dir, None, |_| Ok(()))?.setup_s);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = cfg.work_dir(&format!("journal{k}"));
        let served = with_server(&fill, &dir, None, |addr| {
            if compare_body.is_empty() {
                compare_body = probing_report(&fill, addr)?;
            }
            let mut m = mix(cfg, &fill, compare_body.clone(), k as u64 + 1);
            if !cfg.trace {
                // Round 0 searches in doublings from FIRST_RUNG; later
                // rounds search near the previous result. Each round is
                // one estimate.
                let found = match rungs.last() {
                    Some(&Some(prev)) => max_rung(addr, &mut m, &mut samples_all, prev, LOCAL_STEP),
                    _ => max_rung(
                        addr,
                        &mut m,
                        &mut samples_all,
                        FIRST_RUNG,
                        RUNGS_PER_DOUBLING,
                    ),
                };
                rungs.push(found);
            }
            let part = drive(addr, &m.plan(window_n / rounds), OFFERED_RPS, None);
            window_wall += part.iter().map(|s| s.done_s).fold(0.0, f64::max);
            window.extend(part);
            Ok(())
        })?;
        setups.push(served.setup_s);
        // The answers every response is checked against (the fill is
        // the same in every round), then the timed replays.
        let (report, _) = fill_report(&fill, &dir)?;
        let digest = run::digest(report.to_json().as_bytes());
        if !cfg.trace {
            for _ in 0..REPLAYS_PER_ROUND {
                let r = replay(cfg, &dir)?;
                r.check(&mut out.checks, &digest);
                replays.push(r.secs);
            }
        }
        if answers.is_none() {
            answers = Some(expected(report)?);
        }
    }
    let want = answers.ok_or("no round ran")?;
    samples_all.extend(window.iter().cloned());
    let mut traced_window = Vec::new();

    if cfg.trace {
        // The traced window, on its own server over a fresh journal.
        let tdir = cfg.work_dir("traced");
        let tracer = Tracer::new(Instant::now());
        let served = with_server(&fill, &tdir, Some(&tracer), |addr| {
            let mut m = mix(cfg, &fill, compare_body.clone(), 2);
            traced_window = drive(addr, &m.plan(window_n), OFFERED_RPS, Some(&tracer));
            Ok(())
        })?;
        // The phases to explain are the requests in flight; only part
        // of them is explainable (see `trace.unattributed` in the README).
        let spans = tracer.spans();
        let requests: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.kind == Kind::Request)
            .map(|s| (s.start, s.end))
            .collect();
        let trace = Trace {
            phases: spans::merged(requests),
            spans,
        };
        let mut layer = run::span_metrics(&trace);
        route_metrics(&traced_window, &mut layer);
        layer.insert("serve.requests".into(), served.stats.requests as f64);
        layer.insert("serve.errors".into(), served.stats.errors as f64);
        layer.insert(
            "serve.coalesced_waits".into(),
            served.stats.coalesced_waits as f64,
        );
        layer.insert("session.scenarios".into(), served.session.scenarios as f64);
        layer.insert(
            "session.simulations".into(),
            served.session.simulations as f64,
        );
        layer.insert(
            "session.sim_memo_hits".into(),
            served.session.sim_memo_hits as f64,
        );
        // Distinct simulations: one per fill trace, one per fresh /run cell.
        let runs = traced_window
            .iter()
            .filter(|s| s.route == Route::Run)
            .count();
        layer.insert(
            "session.sim_dedup_ratio".into(),
            (runs + fill.cells(1)) as f64 / served.session.simulations.max(1) as f64,
        );
        layer.insert(
            "rescache.journal_bytes".into(),
            std::fs::metadata(tdir.join(JsonlCache::FILE_NAME))
                .map(|m| m.len() as f64)
                .unwrap_or(0.0),
        );
        let p50 = |s: &[Sample]| median(&s.iter().map(|x| x.latency_ms).collect::<Vec<_>>());
        layer.insert("trace.overhead".into(), p50(&traced_window) / p50(&window));
        render_metrics(
            &want,
            &traced_window,
            if cfg.tiny { 1 } else { 20 },
            &mut layer,
        );
        out.metrics.append(&mut layer);
        samples_all.extend(traced_window.iter().cloned());
        out.traces.push(trace);
    }

    check_samples(&mut out.checks, &samples_all, &want);
    if !cfg.trace {
        window_metrics(&window, window_wall, &fill, &mut out.metrics);
        out.metrics.insert("setup_s".into(), median(&setups));
        out.metrics.insert("replay_s".into(), median(&replays));
        let rates: Vec<f64> = rungs.iter().map(|k| k.map_or(0.0, rung_rate)).collect();
        out.metrics.insert("max_rate_rps".into(), median(&rates));
        let mut notes = BTreeMap::new();
        route_metrics(&window, &mut notes);
        let lat: Vec<f64> = window.iter().map(|s| s.latency_ms).collect();
        out.notes.push(format!(
            "window: {} requests at {OFFERED_RPS} rps offered over {} connections; p99 {:.3} ms; client lag p99 {:.3} ms; ladder p99 limit {LIMIT_MS} ms",
            window.len(),
            nproc(),
            percentile(&lat, 99.0),
            notes["client.lag_p99_ms"]
        ));
        out.notes.push(format!(
            "setups (s): {setups:.4?}; replays (s): {replays:.4?}; ladder per round (1/s): {rates:.1?}"
        ));
    }
    out.digests.insert(
        "render_bodies".into(),
        run::digest(want.renders.concat().as_bytes()),
    );
    Ok(())
}
