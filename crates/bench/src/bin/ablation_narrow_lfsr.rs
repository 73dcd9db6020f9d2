//! Ablation: the literal p-bit LFSR of Fig. 3b vs a wide register.
//!
//! A maximal-length p-bit LFSR never emits the zero mask, so a bank never
//! hosts its own traffic and the idleness mix each physical bank sees is
//! the average of the *other* banks only. With small M this self-exclusion
//! costs a measurable slice of the re-indexing benefit; drawing the mask
//! from the low bits of a wider register removes it. This reproduction
//! defaults to the wide register (16 bits), matching the paper's observed
//! Probing ≡ Scrambling equivalence.

use aging_cache::aging::AgingAnalysis;
use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::policy::Scrambling;
use aging_cache::registry::PolicyRegistry;
use aging_cache::report::{years, Table};
use cache_sim::BankMapping;
use nbti_model::calibration;
use repro_bench::default_config;
use trace_synth::suite;

fn lifetime_with(
    aging: &AgingAnalysis,
    sleep: &[f64],
    p0: f64,
    mut mapping: Box<dyn BankMapping>,
) -> f64 {
    aging
        .cache_lifetime_with(sleep, p0, mapping.as_mut())
        .expect("lifetime")
}

fn main() {
    let cfg = default_config();
    let aging = AgingAnalysis::new(calibration::reference_45nm().clone());
    let p_bits = cfg.banks.trailing_zeros();

    let mut t = Table::new(
        format!("Ablation: scrambling LFSR width (M = {})", cfg.banks),
        vec![
            "bench".into(),
            "probing".into(),
            format!("narrow ({p_bits}-bit)"),
            "wide (16-bit)".into(),
            "narrow loss %".into(),
        ],
    );
    for (i, p) in suite::mediabench().iter().enumerate() {
        let geom = cfg.geometry().expect("valid geometry");
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("valid arch");
        let out = arch
            .simulate(
                p.trace(cfg.seed + i as u64).take(cfg.trace_cycles as usize),
                UpdateSchedule::Never,
            )
            .expect("simulation");
        let sleep = out.sleep_fraction_all();
        let probing = aging
            .cache_lifetime_named(&sleep, p.p0(), "probing", 1)
            .expect("lifetime");
        let narrow = lifetime_with(
            &aging,
            &sleep,
            p.p0(),
            Box::new(Scrambling::with_lfsr_width(cfg.banks, p_bits, 1).expect("narrow")),
        );
        let wide = lifetime_with(
            &aging,
            &sleep,
            p.p0(),
            Box::new(Scrambling::new(cfg.banks, 1).expect("wide")),
        );
        t.push_row(vec![
            p.name().to_string(),
            years(probing),
            years(narrow),
            years(wide),
            format!("{:+.1}", 100.0 * (narrow - wide) / wide),
        ]);
    }
    t.push_note("the narrow register's never-zero mask skips self-mapping; wide ~ probing");
    println!("{t}");
}
