//! `compare <parent-results> <change-results>`: a report-only diff of
//! two result sets (directories as `perfbench/out/results/` leaves them),
//! workload by workload and metric by metric, against the bounds in
//! `BENCHMARK.json`.
//!
//! Each end-to-end metric reads `improved`, `unchanged`, `worse` or
//! `unresolved` (a spread wider than the bound). A gain needs the change
//! to win at least nine in ten seed-paired runs and a median difference
//! wider than the parent's own interquartile range. Per-layer metrics
//! that moved are named with the end-to-end metric they should move.
//! Differing output digests and new failures are reported too. The
//! command only reports; it never fails a build.

use aging_cache::json::Json;
use perfbench::catalog::{Catalog, Metric, LAYER_MAP};
use perfbench::stats::{median, quartiles, relative_spread};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// One result file.
struct Run {
    seed: u64,
    correct: bool,
    failed: f64,
    metrics: BTreeMap<String, f64>,
    digests: BTreeMap<String, String>,
}

/// `(workload, trace) → runs`.
type Set = BTreeMap<(String, u8), Vec<Run>>;

fn load(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let workloads = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for w in workloads.flatten() {
        let Ok(files) = std::fs::read_dir(w.path()) else {
            continue;
        };
        for f in files.flatten() {
            let path = f.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let v = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            let num =
                |j: &Json, k: &str| j.get(k).and_then(|x| x.as_num(k).ok()).unwrap_or(f64::NAN);
            let result = v
                .get("result")
                .ok_or(format!("{}: no result", path.display()))?;
            let mut metrics = BTreeMap::new();
            if let Some(Json::Obj(pairs)) = result.get("metrics") {
                for (name, m) in pairs {
                    metrics.insert(name.clone(), num(m, "value"));
                }
            }
            let mut digests = BTreeMap::new();
            if let Some(Json::Obj(pairs)) = v.get("digests") {
                for (name, d) in pairs {
                    if let Ok(s) = d.as_str(name) {
                        digests.insert(name.clone(), s.to_string());
                    }
                }
            }
            let workload = v
                .get("workload")
                .and_then(|w| w.as_str("workload").ok())
                .unwrap_or_default()
                .to_string();
            set.entry((workload, num(&v, "trace") as u8))
                .or_default()
                .push(Run {
                    seed: num(&v, "seed") as u64,
                    correct: matches!(result.get("correct"), Some(Json::Bool(true))),
                    failed: num(result, "failed"),
                    metrics,
                    digests,
                });
        }
    }
    Ok(set)
}

fn values(runs: &[Run], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// The verdict for one end-to-end metric on one workload.
fn verdict(m: &Metric, a: &[Run], b: &[Run]) -> (String, String) {
    let (va, vb) = (values(a, &m.name), values(b, &m.name));
    if va.is_empty() || vb.is_empty() {
        return ("missing".into(), String::new());
    }
    let (ma, mb) = (median(&va), median(&vb));
    let better = |x: f64, y: f64| if m.higher_is_better { x > y } else { x < y };
    // Positive = the change is worse, as a share of the parent median.
    let worse_by = if ma == 0.0 {
        0.0
    } else if m.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let bound = m.bound.unwrap_or(0.0);
    let all_better = vb.iter().all(|&y| va.iter().all(|&x| better(y, x)));
    let (mut wins, mut pairs) = (0, 0);
    for rb in b {
        if let (Some(ra), Some(&y)) = (
            a.iter().find(|r| r.seed == rb.seed),
            rb.metrics.get(&m.name),
        ) {
            if let Some(&x) = ra.metrics.get(&m.name) {
                pairs += 1;
                if better(y, x) {
                    wins += 1;
                }
            }
        }
    }
    let (q1, q3) = quartiles(&va);
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && (mb - ma).abs() > q3 - q1 && better(mb, ma);
    let wide = relative_spread(&va).max(relative_spread(&vb)) > bound;
    let word = if all_better && gain {
        "improved"
    } else if wide {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if gain {
        "improved"
    } else {
        "unchanged"
    };
    let detail = format!(
        "parent {ma:.6} [{q1:.6}, {q3:.6}]  change {mb:.6}  worse by {:+.1}% (bound {:.0}%)  wins {wins}/{pairs}  spread {:.1}%/{:.1}%",
        100.0 * worse_by,
        100.0 * bound,
        100.0 * relative_spread(&va),
        100.0 * relative_spread(&vb)
    );
    (word.into(), detail)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [a, b] = args.as_slice() else {
        eprintln!("usage: compare <parent-results-dir> <change-results-dir>");
        return ExitCode::from(2);
    };
    let catalog = Catalog::committed();
    let (set_a, set_b) = match (load(Path::new(a)), load(Path::new(b))) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    for workload in &catalog.workloads {
        let empty = Vec::new();
        let key0 = (workload.clone(), 0u8);
        let (a0, b0) = (
            set_a.get(&key0).unwrap_or(&empty),
            set_b.get(&key0).unwrap_or(&empty),
        );
        println!(
            "== {workload}  ({} parent runs, {} change runs)",
            a0.len(),
            b0.len()
        );
        if a0.is_empty() || b0.is_empty() {
            println!("   no untraced runs on one side");
            continue;
        }
        for m in &catalog.end_to_end {
            let (word, detail) = verdict(m, a0, b0);
            println!("   {:<20} {:<11} {detail}", m.name, word);
        }
        let failed = |runs: &[Run]| runs.iter().map(|r| r.failed).sum::<f64>();
        if failed(b0) > failed(a0) || b0.iter().any(|r| !r.correct) {
            println!(
                "   ! the change fails more operations: {} vs {}",
                failed(b0),
                failed(a0)
            );
        }
        for rb in b0 {
            if let Some(ra) = a0.iter().find(|r| r.seed == rb.seed) {
                if ra.digests != rb.digests {
                    println!(
                        "   ! outputs differ on seed {}: {:?} vs {:?}",
                        rb.seed, ra.digests, rb.digests
                    );
                }
            }
        }
        let key1 = (workload.clone(), 1u8);
        if let (Some(a1), Some(b1)) = (set_a.get(&key1), set_b.get(&key1)) {
            for m in &catalog.per_layer {
                let (va, vb) = (values(a1, &m.name), values(b1, &m.name));
                let (ma, mb) = (median(&va), median(&vb));
                let (qa1, qa3) = quartiles(&va);
                let (qb1, qb3) = quartiles(&vb);
                let noise = (qa3 - qa1).max(qb3 - qb1);
                if ma != mb
                    && (mb - ma).abs() > noise
                    && (ma == 0.0 || ((mb - ma) / ma).abs() > 0.10)
                {
                    let link = LAYER_MAP.iter().find(|l| l.metric == m.name);
                    println!(
                        "   moved {:<32} {ma:.6} -> {mb:.6} {}  (should move {} on {})",
                        m.name,
                        m.unit,
                        link.map_or("?", |l| l.moves),
                        link.map_or("?", |l| l.on)
                    );
                }
            }
        }
    }
    ExitCode::SUCCESS
}
