//! The repository benchmark: four workloads driven through the public
//! front doors (`StudySession`, `StudyServer` over HTTP, `Search`),
//! end-to-end metrics from untraced runs, per-layer metrics from a
//! separate traced run.
//!
//! * [`catalog`] — the metric catalog: names, units and bounds read from
//!   `BENCHMARK.json`, plus the layer → end-to-end mapping;
//! * [`spans`] — the in-memory span recorder and the timing wrappers it
//!   installs at the public seams (workload, trace source, aging model,
//!   result cache, exec observer);
//! * [`run`] — the shared pass loop, output checks and result assembly;
//! * one module per workload.
//!
//! Run one workload with
//! `cargo run --release --manifest-path perfbench/Cargo.toml --bin perfbench -- --workload table2-cold --seed 1 --seconds 25 --trace 0`
//! from the repository root.

pub mod catalog;
pub mod http;
pub mod meta;
pub mod optimize_temp;
pub mod run;
pub mod serve_warm;
pub mod spans;
pub mod stats;
pub mod sweep_journal;
pub mod table2_cold;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "table2-cold",
    "sweep-journal",
    "serve-warm",
    "optimize-temp",
];

/// Runs the configured workload and adds the process-wide metrics.
///
/// # Panics
///
/// On a workload name outside [`WORKLOADS`] (the caller validates it).
pub fn execute(cfg: &run::Config) -> run::Outcome {
    let mut outcome = match cfg.workload.as_str() {
        "table2-cold" => table2_cold::run(cfg),
        "sweep-journal" => sweep_journal::run(cfg),
        "serve-warm" => serve_warm::run(cfg),
        "optimize-temp" => optimize_temp::run(cfg),
        other => panic!("unknown workload {other}"),
    };
    outcome
        .metrics
        .insert("peak_rss_mb".into(), run::peak_rss_mb());
    outcome
}
