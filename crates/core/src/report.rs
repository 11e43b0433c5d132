//! Per-query and per-workload run records shared by the experiment harnesses, plus the
//! human-readable rendering of a [`ReoptReport`].

use crate::policy::ReoptTrigger;
use crate::reopt::{ReoptReport, ReoptRoundKind};
use std::time::Duration;

impl ReoptReport {
    /// Render the report as human-readable text, tagging every round with its kind
    /// and trigger so that mid-query rounds (pipeline suspended and resumed, state
    /// reused) are distinguishable from restart rounds (query re-executed from
    /// scratch), and breaker-triggered rounds from streaming-progress ones.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (idx, round) in self.rounds.iter().enumerate() {
            let tag = if round.trigger == ReoptTrigger::DetectionRun {
                round.kind.to_string()
            } else {
                format!("{} via {}", round.kind, round.trigger)
            };
            out.push_str(&format!(
                "round {} [{tag}]  {}  estimated={:.0} actual={} q-error={:.1}",
                idx + 1,
                round.materialized_aliases.join(" \u{22c8} "),
                round.estimated_rows,
                round.actual_rows,
                round.q_error,
            ));
            match (&round.temp_table, round.kind) {
                (Some(name), ReoptRoundKind::MidQuery) => {
                    let reused = round.reused_rows.unwrap_or(0);
                    out.push_str(&format!("  -> reused {reused} buffered rows as {name}"));
                }
                (Some(name), ReoptRoundKind::Restart) => {
                    out.push_str(&format!("  -> materialized as {name}"));
                }
                (None, _) => out.push_str(&format!(
                    "  -> injected {} cardinalit{}",
                    round.corrections,
                    if round.corrections == 1 { "y" } else { "ies" }
                )),
            }
            out.push('\n');
        }
        if self.rounds.is_empty() {
            out.push_str("no re-optimization rounds\n");
        }
        out.push_str(&format!(
            "policy {} ({} thread{}): planning {:.3} ms, execution {:.3} ms, detection {:.3} ms, peak buffered rows {} ({} bytes)\n",
            self.policy,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.planning_time.as_secs_f64() * 1e3,
            self.execution_time.as_secs_f64() * 1e3,
            self.detection_time.as_secs_f64() * 1e3,
            self.peak_buffered_rows,
            self.peak_buffered_bytes,
        ));
        // Spill accounting renders only when something actually spilled, keeping
        // unlimited-budget reports byte-identical to pre-out-of-core builds.
        if self.spilled_bytes > 0 || self.spill_partitions > 0 {
            out.push_str(&format!(
                "spilled: {} bytes in {} partitions\n",
                self.spilled_bytes, self.spill_partitions
            ));
        }
        out
    }
}

/// The timings of one query under one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRun {
    /// Query identifier (e.g. "6d", "18a").
    pub query_id: String,
    /// Planning time (including re-planning during re-optimization).
    pub planning: Duration,
    /// Execution time.
    pub execution: Duration,
    /// Number of result rows.
    pub output_rows: usize,
}

impl QueryRun {
    /// Planning plus execution time.
    pub fn total(&self) -> Duration {
        self.planning + self.execution
    }
}

/// The timings of a whole workload under one configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadRun {
    /// A label for the configuration ("PostgreSQL", "Perfect-(4)", "Re-optimized", ...).
    pub label: String,
    /// Per-query runs.
    pub queries: Vec<QueryRun>,
}

impl WorkloadRun {
    /// A new, empty run with a label.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            queries: Vec::new(),
        }
    }

    /// Total planning time across all queries.
    pub fn total_planning(&self) -> Duration {
        self.queries.iter().map(|q| q.planning).sum()
    }

    /// Total execution time across all queries.
    pub fn total_execution(&self) -> Duration {
        self.queries.iter().map(|q| q.execution).sum()
    }

    /// Total end-to-end time across all queries.
    pub fn total_time(&self) -> Duration {
        self.total_planning() + self.total_execution()
    }

    /// The execution time of a query by id.
    pub fn execution_of(&self, query_id: &str) -> Option<Duration> {
        self.queries
            .iter()
            .find(|q| q.query_id == query_id)
            .map(|q| q.execution)
    }

    /// The `n` queries with the longest execution time, most expensive first.
    pub fn longest_running(&self, n: usize) -> Vec<&QueryRun> {
        let mut sorted: Vec<&QueryRun> = self.queries.iter().collect();
        sorted.sort_by_key(|q| std::cmp::Reverse(q.execution));
        sorted.truncate(n);
        sorted
    }
}

/// A bucket of the relative-runtime distribution used by Tables II and VI.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeBucket {
    /// Human-readable label ("0.8 - 1.2", "> 5.0", ...).
    pub label: String,
    /// Lower bound (inclusive).
    pub low: f64,
    /// Upper bound (exclusive; `f64::INFINITY` for the last bucket).
    pub high: f64,
    /// Number of queries in the bucket.
    pub count: usize,
}

/// Bucket the ratios `time / baseline_time` the way Tables II and VI of the paper do
/// (0.1–0.8, 0.8–1.2, 1.2–2.0, 2.0–5.0, > 5.0; ratios below 0.1 are folded into the
/// first bucket).
pub fn relative_runtime_buckets(ratios: &[f64]) -> Vec<RuntimeBucket> {
    let bounds = [
        ("0.1 - 0.8", 0.0, 0.8),
        ("0.8 - 1.2", 0.8, 1.2),
        ("1.2 - 2.0", 1.2, 2.0),
        ("2.0 - 5.0", 2.0, 5.0),
        ("> 5.0", 5.0, f64::INFINITY),
    ];
    bounds
        .iter()
        .map(|(label, low, high)| RuntimeBucket {
            label: (*label).to_string(),
            low: *low,
            high: *high,
            count: ratios
                .iter()
                .filter(|&&ratio| ratio >= *low && ratio < *high)
                .count(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, timings: &[(&str, u64, u64)]) -> WorkloadRun {
        WorkloadRun {
            label: label.into(),
            queries: timings
                .iter()
                .map(|(id, plan_ms, exec_ms)| QueryRun {
                    query_id: (*id).to_string(),
                    planning: Duration::from_millis(*plan_ms),
                    execution: Duration::from_millis(*exec_ms),
                    output_rows: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn workload_totals() {
        let w = run("PostgreSQL", &[("1a", 5, 100), ("2b", 10, 50), ("3c", 1, 500)]);
        assert_eq!(w.total_planning(), Duration::from_millis(16));
        assert_eq!(w.total_execution(), Duration::from_millis(650));
        assert_eq!(w.total_time(), Duration::from_millis(666));
        assert_eq!(w.execution_of("2b"), Some(Duration::from_millis(50)));
        assert_eq!(w.execution_of("zz"), None);
        let top = w.longest_running(2);
        assert_eq!(top[0].query_id, "3c");
        assert_eq!(top[1].query_id, "1a");
        assert_eq!(w.queries[0].total(), Duration::from_millis(105));
    }

    #[test]
    fn buckets_match_paper_table_shape() {
        let ratios = [0.5, 0.9, 1.0, 1.1, 1.5, 3.0, 4.9, 10.0, 0.05];
        let buckets = relative_runtime_buckets(&ratios);
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0].count, 2); // 0.5 and 0.05
        assert_eq!(buckets[1].count, 3); // 0.9, 1.0, 1.1
        assert_eq!(buckets[2].count, 1); // 1.5
        assert_eq!(buckets[3].count, 2); // 3.0, 4.9
        assert_eq!(buckets[4].count, 1); // 10.0
        assert_eq!(buckets.iter().map(|b| b.count).sum::<usize>(), ratios.len());
        assert_eq!(buckets[4].label, "> 5.0");
    }

    #[test]
    fn empty_workload_is_zero() {
        let w = WorkloadRun::new("empty");
        assert_eq!(w.total_time(), Duration::ZERO);
        assert!(w.longest_running(5).is_empty());
    }
}
