//! Shared plumbing for the reproduction harness binaries and benches.
//!
//! Every table and headline claim of the paper has a dedicated binary:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — idleness distribution, 4-bank 16 kB cache |
//! | `table2` | Table II — Esav/LT0/LT vs cache size |
//! | `table3` | Table III — Esav/LT vs line size |
//! | `table4` | Table IV — idleness/LT vs (size × banks) |
//! | `claims` | §IV-B1 headline claims |
//! | `rng_error` | §IV-B2 RNG repetition error study |
//! | `policy_equivalence` | §IV-B2 Probing ≡ Scrambling |
//! | `ablation_gating` | power gating vs voltage scaling sleep |
//! | `ablation_flip` | cell flipping (ref. \[15\]) composition |
//! | `ablation_graceful` | §III-A2 graceful-degradation alternative |
//! | `ablation_narrow_lfsr` | p-bit vs wide LFSR scrambling bias |
//! | `ablation_vlow` | drowsy-rail sweep: aging relief vs retention margin |
//! | `ablation_temperature` | Arrhenius sweep; reindex gain is T-invariant |
//! | `update_cost` | miss-rate cost of (absurdly) frequent updates |
//! | `snm_curves` | SNM-vs-time trajectories behind the 20 % criterion |
//! | `variation_study` | process variation x NBTI bank-lifetime quantiles |
//! | `ablation_fine_grain` | bank-level vs ref. \[7\] line-level idleness |
//! | `repro_all` | the paper-table subset, in order |
//! | `study` | arbitrary scenario grids from the command line |
//!
//! Run any of them with `cargo run --release -p repro-bench --bin <name>`.
//! Table binaries accept `--json` to emit the raw [`StudyReport`]
//! instead of the rendered table.

pub mod harness;

use aging_cache::experiment::ExperimentConfig;
use aging_cache::render::{self, Format};
use aging_cache::report::Table;
use aging_cache::session::StudySession;
use aging_cache::study::{StudyReport, StudySpec};
use aging_cache::CoreError;

/// The default experiment configuration used by all harness binaries:
/// the paper's reference cache with traces long enough (8 macro periods)
/// for sub-percent idleness stability.
pub fn default_config() -> ExperimentConfig {
    ExperimentConfig::paper_reference().with_trace_cycles(640_000)
}

/// Builds a fresh [`StudySession`] — the execution-layer front door
/// every harness binary runs its presets through. One session per
/// process: its simulation memo is what lets overlapping presets
/// (`repro_all`'s Tables I–IV) share trace simulations.
pub fn session() -> StudySession {
    StudySession::new()
}

/// Prints a value with a section rule around it (harness output style).
pub fn section(title: &str) {
    println!();
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Whether the process arguments request JSON output (`--json`).
pub fn json_requested() -> bool {
    // aging-lint: allow(no-env-in-core) CLI flag shim shared by the table bins; bins-only by contract
    std::env::args().any(|a| a == "--json")
}

/// The output format the process arguments request: `--format
/// text|md|csv|json`, with the historic `--json` flag as an alias for
/// `--format json`. Later flags win (matching the `study` binary's
/// parser), so `--json --format md` is Markdown. Defaults to
/// [`Format::Text`] — the historic stdout, byte for byte. Exits with
/// a usage error on an unknown format name.
pub fn format_requested() -> Format {
    // aging-lint: allow(no-env-in-core) CLI flag shim shared by the table bins; bins-only by contract
    let args: Vec<String> = std::env::args().collect();
    let mut format = Format::Text;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--json" {
            format = Format::Json;
        } else if args[i] == "--format" {
            let Some(value) = args.get(i + 1) else {
                eprintln!("--format needs a value (text, md, csv, json)");
                std::process::exit(2);
            };
            format = Format::parse(value).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            i += 1;
        }
        i += 1;
    }
    format
}

/// Runs a preset spec through a [`StudySession`] and prints it in the
/// requested [`Format`] (`--format md|csv|json`, default the historic
/// plain text; `--json` still works). Every table binary is this call:
/// preset in, query + renderer out. Exits non-zero on failure (harness
/// binaries have no recovery path). Sharing one session across presets
/// shares their simulation memo (and result cache, if the session
/// carries one).
pub fn run_preset(
    spec: StudySpec,
    session: &StudySession,
    view: impl FnOnce(&StudyReport) -> Result<Table, CoreError>,
) {
    match session.run(&spec) {
        Ok(report) => match render::report(&report, view, format_requested()) {
            Ok(rendered) => println!("{rendered}"),
            Err(e) => {
                eprintln!("rendering failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("study failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_the_paper_reference() {
        let c = default_config();
        assert_eq!(c.cache_bytes, 16 * 1024);
        assert_eq!(c.line_bytes, 16);
        assert_eq!(c.banks, 4);
        assert!(c.trace_cycles >= 320_000);
    }
}
