//! One module per table / figure of the paper. Every experiment takes the shared
//! [`Harness`] and returns the text it printed, so the binary can both
//! display and archive results.

pub mod figure1;
pub mod figure2;
pub mod figure5;
pub mod figure6;
pub mod figure7;
pub mod figure8;
pub mod figure9;
pub mod figures3_4;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table6;

use crate::Harness;
use reopt_core::DbError;

/// The experiments in the order the paper presents them.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1", "table2", "table3", "figures3_4", "figure1", "figure2", "figure5", "figure6",
    "figure7", "figure8", "figure9", "table6",
];

/// Run one experiment by name.
pub fn run_experiment(name: &str, harness: &mut Harness) -> Result<String, DbError> {
    match name {
        "table1" => table1::run(harness),
        "table2" => table2::run(harness),
        "table3" => table3::run(harness),
        "table6" => table6::run(harness),
        "figure1" => figure1::run(harness),
        "figure2" => figure2::run(harness),
        "figure5" => figure5::run(harness),
        "figure6" => figure6::run(harness),
        "figure7" => figure7::run(harness),
        "figure8" => figure8::run(harness),
        "figure9" => figure9::run(harness),
        "figures3_4" => figures3_4::run(harness),
        other => Err(DbError::Reoptimization(format!(
            "unknown experiment '{other}' (known: {})",
            ALL_EXPERIMENTS.join(", ")
        ))),
    }
}

/// Render a two-column table of `(label, seconds)` rows.
pub(crate) fn render_timing_table(title: &str, rows: &[(String, f64, f64)]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<24} {:>12} {:>12} {:>12}\n",
        "configuration", "plan (s)", "execute (s)", "total (s)"
    ));
    for (label, plan, execute) in rows {
        out.push_str(&format!(
            "{label:<24} {plan:>12.3} {execute:>12.3} {:>12.3}\n",
            plan + execute
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HarnessConfig;

    /// One smoke test drives a handful of experiments end-to-end on a tiny instance,
    /// checking they produce the paper-shaped output without errors.
    #[test]
    fn experiments_run_on_a_tiny_instance() {
        let mut harness = Harness::new(HarnessConfig {
            scale: 0.02,
            stride: 29,
            threshold: 32.0,
            seed: 5,
            ..HarnessConfig::default()
        })
        .unwrap();
        for name in ["table3", "figures3_4", "figure6"] {
            let output = run_experiment(name, &mut harness).unwrap();
            assert!(!output.is_empty(), "{name} produced no output");
            if name == "figure6" {
                // A round says "materialized" exactly when the script creates its table.
                assert_eq!(
                    output.matches(": materialized [").count(),
                    output.matches("CREATE TEMP TABLE").count(),
                    "{output}"
                );
            }
        }
        assert!(run_experiment("nope", &mut harness).is_err());
    }

    #[test]
    fn timing_table_renders_rows() {
        let text = render_timing_table(
            "Figure X",
            &[("PostgreSQL".to_string(), 1.0, 2.0), ("Perfect".to_string(), 0.5, 1.0)],
        );
        assert!(text.contains("Figure X"));
        assert!(text.contains("PostgreSQL"));
        assert!(text.contains("3.000"));
    }
}
