//! Reproducibility metadata recorded with every result.

use aging_cache::json::Json;
use std::process::Command;

/// Cores available to this process; every thread and connection cap
/// of the benchmark is pinned to this.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (a source checkout without `.git` has
/// no `git describe`).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `nproc`, build profile, `rustc -V` and `git describe`.
pub fn metadata() -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("profile", Json::Str(profile().to_string())),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "git_describe",
            Json::Str(command_line(
                "git",
                &["describe", "--always", "--dirty", "--tags"],
            )),
        ),
    ])
}
