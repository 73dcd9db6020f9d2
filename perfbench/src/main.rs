//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints every metric of the run's kind by name
//! with its unit, then one JSON result line. Results (with `nproc`,
//! build profile, `rustc -V` and `git describe`) go to
//! `perfbench/out/results/`, span dumps of traced runs to
//! `perfbench/out/spans/`; `compare` diffs two result sets.

use aging_cache::json::Json;
use perfbench::catalog::Catalog;
use perfbench::run::{self, Config, Outcome};
use perfbench::spans;
use perfbench::{execute, meta, WORKLOADS};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <table2-cold|sweep-journal|serve-warm|optimize-temp> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse() -> Result<Config, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed `{value}`"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or(format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Config {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny: false,
        out_dir: PathBuf::from("perfbench").join("out"),
    })
}

fn save(cfg: &Config, outcome: &Outcome, result: &Json) -> std::io::Result<()> {
    let dir = cfg.out_dir.join("results").join(&cfg.workload);
    std::fs::create_dir_all(&dir)?;
    let digests = outcome
        .digests
        .iter()
        .map(|(k, v)| (k.as_str(), Json::Str(v.clone())))
        .collect();
    let record = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Num(cfg.seed as f64)),
        ("trace", Json::Num(u8::from(cfg.trace).into())),
        ("seconds", Json::Num(cfg.seconds)),
        ("meta", meta::metadata()),
        ("digests", Json::obj(digests)),
        ("result", result.clone()),
    ]);
    let name = format!("seed{}.trace{}.json", cfg.seed, u8::from(cfg.trace));
    std::fs::write(dir.join(name), record.emit() + "\n")?;
    if cfg.trace {
        let spans_dir = cfg.out_dir.join("spans");
        std::fs::create_dir_all(&spans_dir)?;
        let mut text = String::new();
        for (pass, trace) in outcome.traces.iter().enumerate() {
            for s in &trace.spans {
                text.push_str(&spans::span_json(s, pass));
                text.push('\n');
            }
        }
        std::fs::write(
            spans_dir.join(format!("{}.seed{}.jsonl", cfg.workload, cfg.seed)),
            text,
        )?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let catalog = Catalog::committed();
    let outcome = execute(&cfg);
    let _ = std::fs::remove_dir_all(cfg.out_dir.join("work"));
    let (lines, result) = run::render(&cfg, &catalog, &outcome);
    if let Err(e) = save(&cfg, &outcome, &result) {
        eprintln!("cannot write results under {}: {e}", cfg.out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "workload {} seed {} trace {} nproc {} profile {}",
        cfg.workload,
        cfg.seed,
        u8::from(cfg.trace),
        meta::nproc(),
        meta::profile()
    );
    for line in outcome.notes.iter().chain(&lines) {
        let _ = writeln!(out, "{line}");
    }
    for (name, d) in &outcome.digests {
        let _ = writeln!(out, "digest {name} {d}");
    }
    let _ = writeln!(out, "{}", result.emit());
    ExitCode::SUCCESS
}
