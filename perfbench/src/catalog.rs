//! The metric catalog.
//!
//! Names, units, directions and bounds live in `BENCHMARK.json` (read
//! at compile time, so the file is the one source of truth). That file
//! admits no other keys, so the layer → end-to-end mapping the traced
//! run is read against lives here, in [`LAYER_MAP`], and the self-test
//! keeps the two in step.

use aging_cache::json::Json;

/// The benchmark definition, as committed.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when higher is better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Both metric lists of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Catalog {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics of the untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics of the traced runs.
    pub per_layer: Vec<Metric>,
}

fn metrics(root: &Json, key: &str) -> Result<Vec<Metric>, String> {
    let items = root
        .get(key)
        .ok_or(format!("BENCHMARK.json lacks `{key}`"))?
        .as_arr(key)
        .map_err(|e| e.to_string())?;
    items
        .iter()
        .map(|m| {
            let text = |k: &str| -> Result<String, String> {
                Ok(m.field(k)
                    .and_then(|v| v.as_str(k))
                    .map_err(|e| e.to_string())?
                    .to_string())
            };
            let better = text("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("`better` must be higher or lower, got {better}"));
            }
            Ok(Metric {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: better == "higher",
                bound: m
                    .get("bound")
                    .map(|b| b.as_num("bound"))
                    .transpose()
                    .map_err(|e| e.to_string())?,
            })
        })
        .collect()
}

impl Catalog {
    /// Parses a benchmark definition.
    ///
    /// # Errors
    ///
    /// Describes the first malformed entry.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let root = Json::parse(text).map_err(|e| e.to_string())?;
        let workloads = root
            .field("workloads")
            .and_then(|w| w.as_arr("workloads"))
            .map_err(|e| e.to_string())?
            .iter()
            .map(|w| {
                w.field("name")
                    .and_then(|n| n.as_str("name"))
                    .map(str::to_string)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Catalog {
            workloads,
            end_to_end: metrics(&root, "end_to_end")?,
            per_layer: metrics(&root, "per_layer")?,
        })
    }

    /// The committed catalog.
    pub fn committed() -> Catalog {
        Catalog::parse(BENCHMARK_JSON).expect("BENCHMARK.json is checked by the self-test")
    }

    /// Looks a metric up in either list.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// Where a per-layer metric is expected to show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerLink {
    /// The per-layer metric.
    pub metric: &'static str,
    /// The end-to-end metric it should move.
    pub moves: &'static str,
    /// The workload it should move it on.
    pub on: &'static str,
    /// Workloads where it should stay put (empty: none named).
    pub idle_on: &'static [&'static str],
}

const fn link(
    metric: &'static str,
    moves: &'static str,
    on: &'static str,
    idle_on: &'static [&'static str],
) -> LayerLink {
    LayerLink {
        metric,
        moves,
        on,
        idle_on,
    }
}

const T2: &str = "table2-cold";
const SJ: &str = "sweep-journal";
const SW: &str = "serve-warm";
const OT: &str = "optimize-temp";
/// `on` value of the benchmark's own validity metrics.
pub const ALL: &str = "all";
/// `moves` value of the accuracy metrics, which no timing follows.
pub const NONE: &str = "none";

/// Every per-layer metric, the end-to-end metric it should move and
/// the workload it should move it on. A metric "idle on" a workload
/// reads zero or stays put there; the table is the prediction a
/// change to that layer is checked against.
pub const LAYER_MAP: &[LayerLink] = &[
    // traces (crates/traces): synthesis pulled by the simulator.
    link("traces.opens", "wall_s", T2, &[SW]),
    link("traces.accesses", "wall_s", T2, &[SW]),
    link("traces.busy_s", "wall_s", T2, &[SW]),
    link("traces.accesses_per_s", "sim_accesses_per_s", T2, &[SW]),
    // sim (crates/sim + core arch): time between pulls until the
    // source drops.
    link("sim.runs", "wall_s", T2, &[SW, OT]),
    link("sim.accesses", "sim_accesses_per_s", T2, &[SW, OT]),
    link("sim.busy_s", "wall_s", T2, &[SW, OT]),
    link(
        "sim.accesses_per_s.dm8k",
        "sim_accesses_per_s",
        T2,
        &[SW, OT],
    ),
    link(
        "sim.accesses_per_s.dm16k",
        "sim_accesses_per_s",
        T2,
        &[SW, OT],
    ),
    link(
        "sim.accesses_per_s.dm32k",
        "sim_accesses_per_s",
        T2,
        &[SW, OT],
    ),
    link("sim.accesses_per_s.way4", "wall_s", SJ, &[SW, OT]),
    link("sim.accesses_per_s.l1l2", "wall_s", SJ, &[SW, OT]),
    // model (core model + crates/nbti).
    link("model.calibrations", "replay_s", SJ, &[T2]),
    link("model.calibrate_s", "wall_s", OT, &[T2]),
    link("model.evals", "wall_s", SJ, &[T2]),
    link("model.eval_busy_s", "wall_s", SJ, &[T2]),
    link("model.evals_per_s.nbti", "wall_s", SJ, &[T2]),
    link("model.evals_per_s.drv", "wall_s", SJ, &[T2]),
    link("model.evals_per_s.variation", "wall_s", SJ, &[T2]),
    // session (core session + exec).
    link("session.scenarios", "scenarios_per_s", SJ, &[T2]),
    link("session.simulations", "wall_s", SJ, &[T2]),
    link("session.sim_memo_hits", "wall_s", SJ, &[T2]),
    link("session.sim_dedup_ratio", "wall_s", SJ, &[T2]),
    link("session.self_s", "wall_s", SJ, &[T2]),
    // rescache (core rescache + json). table2-cold's cold pass runs
    // without a cache; its replay phase reads a journal.
    link("rescache.lookups", "replay_s", SJ, &[]),
    link("rescache.lookup_s", "replay_s", SJ, &[]),
    link("rescache.stores", "wall_s", SJ, &[]),
    link("rescache.store_s", "wall_s", SJ, &[]),
    link("rescache.journal_bytes", "replay_s", SJ, &[]),
    // render (core render/views/analysis).
    link("render.calls", "request_p50_ms", SW, &[T2]),
    link("render.busy_s", "request_p50_ms", SW, &[T2]),
    link("render.records_per_s.text", "request_p50_ms", SW, &[T2]),
    link("render.records_per_s.md", "request_p50_ms", SW, &[T2]),
    link("render.records_per_s.csv", "request_p50_ms", SW, &[T2]),
    link("render.records_per_s.json", "max_rate_rps", SW, &[T2]),
    // serve (core serve).
    link("serve.requests", "max_rate_rps", SW, &[T2, SJ, OT]),
    link("serve.errors", "max_rate_rps", SW, &[T2, SJ, OT]),
    link("serve.coalesced_waits", "max_rate_rps", SW, &[T2, SJ, OT]),
    link(
        "serve.route_p50_ms.render",
        "request_p50_ms",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p50_ms.query",
        "request_p50_ms",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p50_ms.compare",
        "request_p50_ms",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p50_ms.run",
        "request_p50_ms",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p99_ms.render",
        "max_rate_rps",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p99_ms.query",
        "max_rate_rps",
        SW,
        &[T2, SJ, OT],
    ),
    link(
        "serve.route_p99_ms.compare",
        "max_rate_rps",
        SW,
        &[T2, SJ, OT],
    ),
    link("serve.route_p99_ms.run", "max_rate_rps", SW, &[T2, SJ, OT]),
    // search (core search).
    link("search.probes", "probes", OT, &[T2, SJ, SW]),
    link("search.space", "probes", OT, &[T2, SJ, SW]),
    link("search.probe_ratio", "probes", OT, &[T2, SJ, SW]),
    link("search.probe_ms", "wall_s", OT, &[T2, SJ, SW]),
    // The benchmark itself: validity of the open loop and of the trace.
    link("client.lag_p99_ms", "max_rate_rps", SW, &[T2, SJ, OT]),
    link("trace.overhead", "wall_s", ALL, &[]),
    link("trace.unattributed", "wall_s", ALL, &[]),
    // Accuracy against the paper's Table II moves no timing: a change
    // that only claims speed must leave both values bit-identical.
    link("table2_lt_err", NONE, T2, &[SJ, SW, OT]),
    link("table2_esav_err", NONE, T2, &[SJ, SW, OT]),
];

/// The share of a batch workload's timed wall the layer spans may
/// leave unexplained (`trace.unattributed`) before the traced run's
/// reconciliation check fails. serve-warm reports the share but is not
/// held to it: HTTP handling, the session and rendering inside the
/// server sit behind no public seam.
pub const RECONCILE_SLACK: f64 = 0.10;
