//! Ablation: what bank granularity gives up vs ref. \[7\]'s line-level
//! dynamic indexing.
//!
//! Line-granularity schemes achieve ideal idleness (each line sleeps
//! through its own gaps) but must modify the SRAM internals; the paper's
//! bank-level architecture works with standard memory-compiler blocks.
//! This binary prints both lifetimes per benchmark — the "price of
//! standard blocks".

use aging_cache::aging::AgingAnalysis;
use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::fine_grain::FineGrainStudy;
use aging_cache::registry::PolicyRegistry;
use aging_cache::report::{years, Table};
use nbti_model::calibration;
use repro_bench::default_config;
use trace_synth::suite;

fn main() {
    let cfg = default_config();
    let aging = AgingAnalysis::new(calibration::reference_45nm().clone());
    let geom = cfg.geometry().expect("geometry");
    let study = FineGrainStudy::new(geom).expect("study");

    let mut t = Table::new(
        "Bank-level (this paper) vs line-level (ref [7]) lifetimes, 16 kB",
        vec![
            "bench".into(),
            "bank sleep %".into(),
            "line sleep %".into(),
            "LT bank (M=4)".into(),
            "LT line (ideal)".into(),
            "gap %".into(),
        ],
    );
    for (i, p) in suite::mediabench().iter().enumerate() {
        let seed = cfg.seed + i as u64;
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("arch");
        let out = arch
            .simulate(
                p.trace(seed).take(cfg.trace_cycles as usize),
                UpdateSchedule::Never,
            )
            .expect("simulation");
        let bank_lt = aging
            .cache_lifetime_named(&out.sleep_fraction_all(), p.p0(), "probing", 1)
            .expect("bank lifetime");
        let fine = study
            .measure(p, cfg.trace_cycles, seed)
            .expect("fine-grain measurement");
        let line_lt = study
            .ideal_lifetime(&aging, &fine, p.p0())
            .expect("ideal lifetime");
        t.push_row(vec![
            p.name().to_string(),
            format!("{:.1}", 100.0 * out.avg_sleep_fraction()),
            format!("{:.1}", 100.0 * fine.avg_sleep),
            years(bank_lt),
            years(line_lt),
            format!("{:+.0}", 100.0 * (line_lt - bank_lt) / bank_lt),
        ]);
    }
    t.push_note(
        "line granularity is the idleness upper bound; the paper accepts the gap \
         to keep standard memory-compiler blocks (no SRAM internals touched)",
    );
    println!("{t}");
}
