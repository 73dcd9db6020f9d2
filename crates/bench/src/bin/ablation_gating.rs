//! Ablation: power-gating sleep vs the paper's voltage scaling.
//!
//! The paper chooses voltage scaling because memory-compiler blocks do not
//! expose their internals (§III-A1) and because ref. \[7\] found it has
//! better power/delay transition characteristics. Power gating, where
//! available, stops NBTI aging entirely during sleep (§I: floating nodes
//! pull to '1'). This binary quantifies how much lifetime that would buy
//! on the same measured idleness.

use aging_cache::aging::AgingAnalysis;
use aging_cache::arch::{PartitionedCache, UpdateSchedule};
use aging_cache::registry::PolicyRegistry;
use aging_cache::report::{years, Table};
use nbti_model::{calibration, SleepMode};
use repro_bench::default_config;
use trace_synth::suite;

fn main() {
    let cfg = default_config();
    let vs = AgingAnalysis::new(calibration::reference_45nm().clone());
    let pg = AgingAnalysis::new(vs.solver().clone()).with_mode(SleepMode::power_gated());

    let mut t = Table::new(
        "Ablation: sleep mechanism (16 kB, M = 4, Probing)",
        vec![
            "bench".into(),
            "LT drowsy".into(),
            "LT gated".into(),
            "gated gain %".into(),
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
        let lt_vs = vs
            .cache_lifetime_named(&sleep, p.p0(), "probing", 1)
            .expect("drowsy lifetime");
        let lt_pg = pg
            .cache_lifetime_named(&sleep, p.p0(), "probing", 1)
            .expect("gated lifetime");
        t.push_row(vec![
            p.name().to_string(),
            years(lt_vs),
            years(lt_pg),
            format!("{:+.1}", 100.0 * (lt_pg - lt_vs) / lt_vs),
        ]);
    }
    t.push_note("power gating is state-destroying and needs cell access the paper's flow lacks");
    println!("{t}");
}
