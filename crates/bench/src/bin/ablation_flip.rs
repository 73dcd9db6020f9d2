//! Ablation: cell flipping (ref. \[15\]) composed with partitioning.
//!
//! With the paper's balanced workloads (`p0 = 0.5`) flipping is neutral;
//! this study skews the stored-value distribution and shows value
//! balancing and idleness balancing attack independent aging factors.

use aging_cache::aging::AgingAnalysis;
use aging_cache::flip::CellFlip;
use aging_cache::report::{years, Table};
use nbti_model::calibration;

fn main() {
    let aging = AgingAnalysis::new(calibration::reference_45nm().clone());
    let sleep = [0.9, 0.6, 0.3, 0.0]; // a representative uneven profile
    let flip = CellFlip::ideal();

    let mut t = Table::new(
        "Ablation: cell flipping x re-indexing (uneven idleness, skewed data)",
        vec![
            "p0".into(),
            "neither".into(),
            "flip only".into(),
            "reindex only".into(),
            "both".into(),
        ],
    );
    for p0 in [0.5, 0.7, 0.9, 1.0] {
        let lifetime = |p0: f64, policy: &str| {
            aging
                .cache_lifetime_named(&sleep, p0, policy, 1)
                .expect("lifetime")
        };
        let neither = lifetime(p0, "identity");
        let flip_only = lifetime(flip.effective_p0(p0), "identity");
        let reindex_only = lifetime(p0, "probing");
        let both = lifetime(flip.effective_p0(p0), "probing");
        t.push_row(vec![
            format!("{p0:.1}"),
            years(neither),
            years(flip_only),
            years(reindex_only),
            years(both),
        ]);
    }
    t.push_note(format!(
        "flip-bit storage overhead: {:.1} % of the data array",
        100.0 * flip.storage_overhead()
    ));
    println!("{t}");
}
