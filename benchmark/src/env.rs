//! Environment hygiene: no inherited `REOPT_*` knob, and a stamp of where a
//! result was measured.

use crate::json::{object, Json};
use std::process::Command;

/// Spill scratch space, inside the checkout. The spill root is the one engine
/// knob without an API, so the driver exports it itself after the refusal check.
pub const SPILL_DIR: &str = "benchmark/out/spill";

/// The `REOPT_*` variables present in an environment. Over twenty of them
/// silently change engine behaviour; the driver sets every knob through the API
/// instead and refuses to start when any is inherited.
pub fn reopt_variables(vars: impl Iterator<Item = String>) -> Vec<String> {
    let mut found: Vec<String> = vars.filter(|name| name.starts_with("REOPT_")).collect();
    found.sort();
    found
}

/// Refuse to start under inherited `REOPT_*` variables.
pub fn refuse_reopt_variables() -> Result<(), String> {
    let found =
        reopt_variables(std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()));
    if found.is_empty() {
        return Ok(());
    }
    Err(format!(
        "refusing to start: {} set in the environment; the benchmark pins every engine knob \
         itself, unset them",
        found.join(", ")
    ))
}

/// Refuse inherited `REOPT_*` variables, then pin the spill root.
pub fn sanitize_environment() -> Result<(), String> {
    refuse_reopt_variables()?;
    // Still single-threaded here: no other thread can be reading the environment.
    std::env::set_var("REOPT_SPILL_DIR", SPILL_DIR);
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|text| text.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Where and on what a result was measured. A checkout that is not a git
/// repository stamps `unknown` for the commit (and git is not asked, or it would
/// look for a repository above the checkout).
pub fn stamp() -> Json {
    let git_commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    object([
        ("git_commit", git_commit.into()),
        ("rustc", command_line("rustc", &["-V"]).into()),
        ("nproc", nproc().into()),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reopt_variables_are_found_and_others_ignored() {
        let vars = [
            "PATH",
            "REOPT_THREADS",
            "CARGO_TARGET_DIR",
            "REOPT_FEEDBACK",
            "XREOPT_X",
        ];
        assert_eq!(
            reopt_variables(vars.iter().map(|v| v.to_string())),
            vec!["REOPT_FEEDBACK".to_string(), "REOPT_THREADS".to_string()]
        );
        assert!(reopt_variables(["HOME".to_string()].into_iter()).is_empty());
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
