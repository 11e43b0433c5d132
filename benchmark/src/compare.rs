//! `compare <a.json> <b.json>`: one row per workload and end-to-end metric, with
//! the ratio (base a), the bound `BENCHMARK.json` fixes, and a verdict.

use crate::json::Json;
use std::path::Path;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regression,
    /// A side's own pass-to-pass spread exceeds the bound: the difference
    /// between the sides cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's measurement of a metric.
#[derive(Debug, Clone, Copy)]
struct Side {
    value: f64,
    spread: f64,
}

fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if lower_is_better {
        b.value / a.value - 1.0
    } else {
        1.0 - b.value / a.value
    };
    if a.spread > bound || b.spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The untraced run records of a results file (or a single run record).
fn untraced_runs(results: &Json) -> Vec<&Json> {
    let runs = match results.get("runs").and_then(Json::as_array) {
        Some(runs) => runs.iter().collect(),
        None => vec![results],
    };
    runs.into_iter()
        .filter(|run| run.get("trace") == Some(&Json::Bool(false)))
        .collect()
}

fn side(run: &Json, metric: &str) -> Option<Side> {
    let entry = run.get("metrics")?.get(metric)?;
    Some(Side {
        value: entry.get("value")?.as_f64()?,
        spread: entry.get("spread").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let spec = load(Path::new("BENCHMARK.json"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let metrics = spec
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let b_runs = untraced_runs(&b);
    let mut regressions = 0;
    println!(
        "{:<11} {:<14} {:>14} {:>14} {:>15} {:>6}  verdict",
        "workload", "metric", "a", "b", "ratio (base a)", "bound"
    );
    for a_run in untraced_runs(&a) {
        let workload = a_run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let Some(b_run) = b_runs
            .iter()
            .find(|run| run.get("workload").and_then(Json::as_str) == Some(workload))
        else {
            println!("{workload:<11} missing from {}", b_path.display());
            regressions += 1;
            continue;
        };
        let mut row = |metric: &str, a: Side, b: Side, lower: bool, bound: f64| {
            let verdict = judge(a, b, lower, bound);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{workload:<11} {metric:<14} {:>14.6} {:>14.6} {:>15.4} {bound:>6.2}  {}",
                a.value,
                b.value,
                b.value / a.value,
                verdict.label()
            );
        };
        for metric in metrics {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or("");
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            if let (Some(a), Some(b)) = (side(a_run, field("name")), side(b_run, field("name"))) {
                row(field("name"), a, b, field("better") == "lower", bound);
            }
        }
        // Any rise in the share of failed queries is a regression.
        let failed = |run: &Json| Side {
            value: run
                .get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(1.0),
            spread: 0.0,
        };
        let (a_failed, b_failed) = (failed(a_run), failed(b_run));
        let verdict = if b_failed.value > a_failed.value {
            regressions += 1;
            Verdict::Regression
        } else {
            Verdict::Ok
        };
        println!(
            "{workload:<11} {:<14} {:>14.6} {:>14.6} {:>15} {:>6.2}  {}",
            "failed_share",
            a_failed.value,
            b_failed.value,
            "-",
            0.0,
            verdict.label()
        );
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(value: f64, spread: f64) -> Side {
        Side { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better: 5 % slower is within a 7 % bound, 10 % is not.
        assert_eq!(
            judge(at(1.0, 0.01), at(1.05, 0.01), true, 0.07),
            Verdict::Ok
        );
        assert_eq!(
            judge(at(1.0, 0.01), at(1.10, 0.01), true, 0.07),
            Verdict::Regression
        );
        assert_eq!(judge(at(1.0, 0.01), at(0.5, 0.01), true, 0.07), Verdict::Ok);
        // Higher is better: a throughput drop is the regression.
        assert_eq!(
            judge(at(100.0, 0.0), at(80.0, 0.0), false, 0.12),
            Verdict::Regression
        );
        assert_eq!(
            judge(at(100.0, 0.0), at(130.0, 0.0), false, 0.12),
            Verdict::Ok
        );
        // Either side noisier than the bound: no verdict either way.
        assert_eq!(
            judge(at(1.0, 0.2), at(1.5, 0.01), true, 0.07),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(at(1.0, 0.01), at(1.0, 0.08), true, 0.07),
            Verdict::Unresolved
        );
    }

    #[test]
    fn only_untraced_runs_are_compared() {
        let results = Json::parse(
            r#"{"runs": [{"workload": "a", "trace": false, "metrics": {"suite_s": {"value": 2, "spread": 0.5}}},
                         {"workload": "a", "trace": true, "metrics": {}}]}"#,
        )
        .unwrap();
        let runs = untraced_runs(&results);
        assert_eq!(runs.len(), 1);
        let side = side(runs[0], "suite_s").unwrap();
        assert_eq!((side.value, side.spread), (2.0, 0.5));
        assert!(super::side(runs[0], "nope").is_none());
    }
}
