//! # reopt-bench
//!
//! The experiment harness: one module per table and figure of the paper, plus a shared
//! [`Harness`] that loads the synthetic IMDB database, runs the JOB-style suite under a
//! configuration (default estimator, perfect-(n), re-optimization at a threshold) and
//! returns per-query timings.
//!
//! Run everything with
//!
//! ```text
//! cargo run --release -p reopt-bench --bin experiments -- all
//! ```
//!
//! Environment variables: `REOPT_SCALE` (default 0.05), `REOPT_QUERY_STRIDE`
//! (default 3: run every third query for the execution-heavy experiments; set to 1 for
//! the full suite), `REOPT_THRESHOLD` (default 32), and `REOPT_MAX_TABLES` (default
//! unlimited: cap the per-query relation count — the perfect-(n) oracle computes a true
//! COUNT(*) for every connected relation subset, which is combinatorially explosive on
//! the 14- and 17-table families even though the pipelined executor runs each count in
//! bounded memory). A malformed value is an error, never a silent default
//! ([`HarnessConfig::parse`]). Every engine setting is pinned through the API
//! ([`PINNED_SETTINGS`]), so the runtime figures do not depend on the host's core count.

pub mod experiments;

use reopt_core::{
    execute_with_reoptimization, Database, DbError, PerfectOracle, QueryRun, ReoptConfig,
    WorkloadRun,
};
use reopt_workload::{job_queries, load_imdb, ImdbConfig, JobQuery};
use std::time::Duration;

// Re-export for the experiment modules and the binary.
pub use reopt_core::reopt::execute_with_reoptimization as run_reoptimized_query;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// IMDB generator scale factor.
    pub scale: f64,
    /// Run every `stride`-th query of the suite (1 = all 113).
    pub stride: usize,
    /// Q-error threshold for re-optimization runs.
    pub threshold: f64,
    /// RNG seed for the generator.
    pub seed: u64,
    /// Only run queries joining at most this many relations (`usize::MAX` = all).
    pub max_tables: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            scale: 0.05,
            stride: 3,
            threshold: 32.0,
            seed: 42,
            max_tables: usize::MAX,
        }
    }
}

/// The variables [`HarnessConfig::from_env`] reads.
const HARNESS_VARS: [&str; 4] = [
    "REOPT_SCALE",
    "REOPT_QUERY_STRIDE",
    "REOPT_THRESHOLD",
    "REOPT_MAX_TABLES",
];

impl HarnessConfig {
    /// Read the configuration from the environment (`REOPT_SCALE`,
    /// `REOPT_QUERY_STRIDE`, `REOPT_THRESHOLD`, `REOPT_MAX_TABLES`); unset variables
    /// keep their defaults, a malformed one is an error naming it.
    pub fn from_env() -> Result<Self, String> {
        let mut config = Self::default();
        for var in HARNESS_VARS {
            if let Some(value) = std::env::var_os(var) {
                config.parse(var, &value.to_string_lossy())?;
            }
        }
        Ok(config)
    }

    /// Apply one `var=value` setting. Scale and threshold must be finite and above
    /// zero, the stride at least 1 and the relation cap at least 2.
    pub fn parse(&mut self, var: &str, value: &str) -> Result<(), String> {
        let reject = |expected: &str| format!("{var}={value:?} is not {expected}");
        let positive = |expected: &str| {
            let parsed = value.parse::<f64>().ok();
            parsed.filter(|v| v.is_finite() && *v > 0.0).ok_or_else(|| reject(expected))
        };
        let at_least = |min: usize, expected: &str| {
            let parsed = value.parse::<usize>().ok();
            parsed.filter(|v| *v >= min).ok_or_else(|| reject(expected))
        };
        match var {
            "REOPT_SCALE" => self.scale = positive("a finite scale above 0 (e.g. 0.05)")?,
            "REOPT_THRESHOLD" => {
                self.threshold = positive("a finite q-error threshold above 0 (e.g. 32)")?
            }
            "REOPT_QUERY_STRIDE" => self.stride = at_least(1, "a whole stride of at least 1")?,
            "REOPT_MAX_TABLES" => {
                self.max_tables = at_least(2, "a whole relation cap of at least 2")?
            }
            _ => return Err(format!("{var} is not a harness variable")),
        }
        Ok(())
    }
}

/// What [`Harness::new`] and [`Harness::reopt_config`] pin through the API, so that
/// experiment timings mean the same on every host (mid-query re-optimization
/// measured 2× slower at 2 threads than at 1). Feedback stays at the library default.
pub const PINNED_SETTINGS: &str = "threads 1, columnar on, memory budget unlimited, feedback on";

/// The shared experiment harness: a loaded database, the query suite and a memoized
/// perfect-cardinality oracle.
pub struct Harness {
    /// The database with the synthetic IMDB data loaded and analyzed.
    pub db: Database,
    /// The full 113-query suite.
    pub queries: Vec<JobQuery>,
    /// The perfect-(n) oracle (cross-run memo of true cardinalities).
    pub oracle: PerfectOracle,
    /// The configuration.
    pub config: HarnessConfig,
}

impl Harness {
    /// Build a harness: generate the data, build indexes, ANALYZE.
    pub fn new(config: HarnessConfig) -> Result<Self, DbError> {
        let mut db = Database::new();
        db.set_threads(Some(1));
        db.set_columnar(Some(true));
        db.set_mem_budget(None);
        load_imdb(
            &mut db,
            &ImdbConfig {
                scale: config.scale,
                seed: config.seed,
            },
        )?;
        Ok(Self {
            db,
            queries: job_queries(),
            oracle: PerfectOracle::new(),
            config,
        })
    }

    /// The re-optimization configuration of every harness run at `threshold`.
    pub fn reopt_config(threshold: f64) -> ReoptConfig {
        ReoptConfig::with_threshold(threshold).with_feedback(true)
    }

    /// The queries selected by the configured stride and relation-count cap.
    pub fn selected_queries(&self) -> Vec<JobQuery> {
        self.queries
            .iter()
            .enumerate()
            .filter(|(idx, q)| {
                idx % self.config.stride == 0 && q.table_count <= self.config.max_tables
            })
            .map(|(_, q)| q.clone())
            .collect()
    }

    /// Run the selected queries with the default (PostgreSQL-style) estimator.
    pub fn run_default(&mut self) -> Result<WorkloadRun, DbError> {
        self.run_perfect(0, "PostgreSQL-style")
    }

    /// Run the selected queries with perfect-(n) cardinalities injected.
    pub fn run_perfect(&mut self, n: usize, label: &str) -> Result<WorkloadRun, DbError> {
        let mut run = WorkloadRun::new(label);
        for query in self.selected_queries() {
            run.queries.push(self.run_query_perfect(&query, n)?);
        }
        Ok(run)
    }

    /// Run one query with perfect-(n) cardinalities injected.
    pub fn run_query_perfect(&mut self, query: &JobQuery, n: usize) -> Result<QueryRun, DbError> {
        let statement = reopt_sql::parse_sql(&query.sql).map_err(DbError::Parse)?;
        let select = statement.query().expect("suite queries are SELECTs").clone();
        let overrides = self
            .oracle
            .overrides_for(&mut self.db, &select, n, &query.id)?;
        self.db.set_overrides(overrides);
        let output = self.db.execute_select(&select);
        self.db.clear_overrides();
        let output = output?;
        Ok(QueryRun {
            query_id: query.id.clone(),
            planning: output.planning_time,
            execution: output.execution_time,
            output_rows: output.row_count(),
        })
    }

    /// Run the selected queries under the re-optimization scheme at a threshold.
    pub fn run_reoptimized(&mut self, threshold: f64, label: &str) -> Result<WorkloadRun, DbError> {
        let mut run = WorkloadRun::new(label);
        for query in self.selected_queries() {
            run.queries.push(self.run_query_reoptimized(&query, threshold)?);
        }
        Ok(run)
    }

    /// Run one query under re-optimization.
    pub fn run_query_reoptimized(
        &mut self,
        query: &JobQuery,
        threshold: f64,
    ) -> Result<QueryRun, DbError> {
        let config = Self::reopt_config(threshold);
        let report = execute_with_reoptimization(&mut self.db, &query.sql, &config)?;
        Ok(QueryRun {
            query_id: query.id.clone(),
            planning: report.planning_time,
            execution: report.execution_time,
            output_rows: report.final_rows.len(),
        })
    }

    /// Run the selected queries with perfect-(n) *plus* re-optimization (Figure 8).
    pub fn run_perfect_with_reopt(
        &mut self,
        n: usize,
        threshold: f64,
        label: &str,
    ) -> Result<WorkloadRun, DbError> {
        let mut run = WorkloadRun::new(label);
        for query in self.selected_queries() {
            let statement = reopt_sql::parse_sql(&query.sql).map_err(DbError::Parse)?;
            let select = statement.query().expect("suite queries are SELECTs").clone();
            let overrides = self
                .oracle
                .overrides_for(&mut self.db, &select, n, &query.id)?;
            self.db.set_overrides(overrides);
            let config = Self::reopt_config(threshold);
            let report = execute_with_reoptimization(&mut self.db, &query.sql, &config);
            self.db.clear_overrides();
            let report = report?;
            run.queries.push(QueryRun {
                query_id: query.id.clone(),
                planning: report.planning_time,
                execution: report.execution_time,
                output_rows: report.final_rows.len(),
            });
        }
        Ok(run)
    }
}

/// Format a duration as fractional seconds for the experiment tables.
pub fn secs(duration: Duration) -> f64 {
    duration.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_harness() -> Harness {
        Harness::new(HarnessConfig {
            scale: 0.02,
            stride: 23,
            threshold: 32.0,
            seed: 3,
            ..HarnessConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn harness_runs_default_and_reoptimized() {
        let mut harness = tiny_harness();
        let selected = harness.selected_queries();
        assert!(!selected.is_empty() && selected.len() < 113);
        let default_run = harness.run_default().unwrap();
        assert_eq!(default_run.queries.len(), selected.len());
        let reopt_run = harness.run_reoptimized(32.0, "Re-optimized").unwrap();
        assert_eq!(reopt_run.queries.len(), selected.len());
        // Result cardinalities must agree between the two modes.
        for (a, b) in default_run.queries.iter().zip(&reopt_run.queries) {
            assert_eq!(a.query_id, b.query_id);
            assert_eq!(a.output_rows, b.output_rows);
        }
    }

    #[test]
    fn perfect_runs_share_the_oracle_cache() {
        let mut harness = tiny_harness();
        let _ = harness.run_perfect(2, "Perfect-(2)").unwrap();
        let size_after_two = harness.oracle.cache_size();
        assert!(size_after_two > 0);
        let _ = harness.run_perfect(1, "Perfect-(1)").unwrap();
        // Perfect-(1) needs a subset of what perfect-(2) already computed.
        assert_eq!(harness.oracle.cache_size(), size_after_two);
    }

    #[test]
    fn config_from_env_defaults() {
        let config = HarnessConfig::default();
        assert_eq!(config.stride, 3);
        assert!(secs(Duration::from_millis(1500)) > 1.0);
    }

    #[test]
    fn parse_accepts_well_formed_values() {
        let mut config = HarnessConfig::default();
        for (var, value) in [
            ("REOPT_SCALE", "0.2"),
            ("REOPT_THRESHOLD", "1"),
            ("REOPT_QUERY_STRIDE", "1"),
            ("REOPT_MAX_TABLES", "12"),
        ] {
            config.parse(var, value).unwrap();
        }
        assert_eq!(config.scale, 0.2);
        assert_eq!(config.threshold, 1.0);
        assert_eq!(config.stride, 1);
        assert_eq!(config.max_tables, 12);
    }

    #[test]
    fn parse_rejects_malformed_values_naming_variable_and_value() {
        for (var, value) in [
            ("REOPT_SCALE", "0,2"),
            ("REOPT_SCALE", "nan"),
            ("REOPT_SCALE", "inf"),
            ("REOPT_SCALE", "0"),
            ("REOPT_SCALE", "-0.05"),
            ("REOPT_SCALE", ""),
            ("REOPT_THRESHOLD", "nan"),
            ("REOPT_THRESHOLD", "0"),
            ("REOPT_THRESHOLD", "-32"),
            ("REOPT_QUERY_STRIDE", "0"),
            ("REOPT_QUERY_STRIDE", "1.5"),
            ("REOPT_MAX_TABLES", "1"),
            ("REOPT_MAX_TABLES", "twelve"),
        ] {
            let mut config = HarnessConfig::default();
            let error = config.parse(var, value).unwrap_err();
            assert!(error.contains(var), "{error}");
            assert!(error.contains(&format!("{value:?}")), "{error}");
            // A rejected value leaves the configuration untouched.
            assert_eq!(config.scale, HarnessConfig::default().scale);
            assert_eq!(config.threshold, HarnessConfig::default().threshold);
        }
        assert!(HarnessConfig::default().parse("SCALE", "1").is_err());
    }

    #[test]
    fn harness_pins_every_engine_setting() {
        let harness = tiny_harness();
        assert_eq!(harness.db.threads(), 1);
        assert!(harness.db.columnar());
        assert_eq!(harness.db.mem_budget(), None);
        assert!(Harness::reopt_config(8.0).feedback);
    }
}
