//! The cost of the `update` signal (paper §III-A3).
//!
//! Every update flushes the cache, so updating too often would hurt the
//! miss rate. The paper argues the cost is nil because updates are needed
//! only at aging timescales (daily) while flushes already happen at OS
//! timescales (context switches). This binary sweeps *absurdly* aggressive
//! update periods to show how far the claim stretches.

use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::registry::PolicyRegistry;
use aging_cache::report::Table;
use repro_bench::default_config;
use trace_synth::suite;

fn main() {
    let cfg = default_config();
    let geom = cfg.geometry().expect("geometry");

    let mut t = Table::new(
        "Miss-rate cost of update frequency (16 kB, M = 4, Probing)",
        vec![
            "update period (cycles)".into(),
            "updates".into(),
            "miss rate".into(),
            "delta vs never".into(),
        ],
    );
    let profile = suite::by_name("ispell").expect("in suite");
    let probing = || {
        PartitionedCache::new_named(geom, "probing", PolicyRegistry::global().clone())
            .expect("arch")
    };
    let baseline = probing()
        .simulate(
            profile.trace(cfg.seed).take(cfg.trace_cycles as usize),
            UpdateSchedule::Never,
        )
        .expect("simulation");
    t.push_row(vec![
        "never".into(),
        "0".into(),
        format!("{:.4}", baseline.miss_rate()),
        "-".into(),
    ]);
    for period in [320_000u64, 80_000, 20_000, 5_000] {
        let out = probing()
            .simulate(
                profile.trace(cfg.seed).take(cfg.trace_cycles as usize),
                UpdateSchedule::EveryCycles(period),
            )
            .expect("simulation");
        t.push_row(vec![
            period.to_string(),
            out.updates.to_string(),
            format!("{:.4}", out.miss_rate()),
            format!("{:+.4}", out.miss_rate() - baseline.miss_rate()),
        ]);
    }
    t.push_note(
        "real updates are ~daily (~1e14 cycles apart): even the 5k-cycle torture row \
         bounds the refill cost at one cache of misses per flush",
    );
    println!("{t}");
}
