//! Ablation: the §III-A2 "graceful degradation" alternative.
//!
//! The paper rejects progressively disabling aged-out banks because the
//! cache shrinks under the application. This binary shows the failure
//! timeline and the miss-rate collapse at each stage, next to the
//! re-indexed cache's single (much later) failure time.

use aging_cache::aging::AgingAnalysis;
use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::graceful::GracefulDegradation;
use aging_cache::registry::PolicyRegistry;
use aging_cache::report::{years, Table};
use nbti_model::calibration;
use repro_bench::default_config;
use trace_synth::suite;

fn main() {
    let cfg = default_config();
    let aging = AgingAnalysis::new(calibration::reference_45nm().clone());
    for name in ["sha", "adpcm.dec", "dijkstra"] {
        let p = suite::by_name(name).expect("benchmark exists");
        let geom = cfg.geometry().expect("valid geometry");
        let arch = PartitionedCache::new_named(geom, "identity", PolicyRegistry::global().clone())
            .expect("valid arch");
        let out = arch
            .simulate(
                p.trace(cfg.seed).take(cfg.trace_cycles as usize),
                UpdateSchedule::Never,
            )
            .expect("simulation");
        let sleep = out.sleep_fraction_all();
        let g = GracefulDegradation::new(geom, 160_000).expect("valid analysis");
        let stages = g.timeline(&p, &sleep, &aging, cfg.seed).expect("timeline");
        let reindexed = aging
            .cache_lifetime_named(&sleep, p.p0(), "probing", 1)
            .expect("lifetime");

        let mut t = Table::new(
            format!("Graceful degradation timeline: {name}"),
            vec!["from year".into(), "alive banks".into(), "miss rate".into()],
        );
        for s in &stages {
            t.push_row(vec![
                years(s.starts_at_years),
                s.alive_banks.to_string(),
                format!("{:.3}", s.miss_rate),
            ]);
        }
        t.push_note(format!(
            "re-indexed cache instead keeps full capacity until {} years",
            years(reindexed)
        ));
        println!("{t}");
    }
}
