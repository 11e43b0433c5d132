//! Per-operator execution metrics (the EXPLAIN ANALYZE view of a run).

use reopt_planner::RelSet;
use std::time::Duration;

/// Metrics of a single executed operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorMetrics {
    /// The operator's display label (mirrors the plan node's label).
    pub label: String,
    /// The base relations the operator covers.
    pub rel_set: RelSet,
    /// Whether this operator is a join.
    pub is_join: bool,
    /// Estimated output cardinality (from the optimizer).
    pub estimated_rows: f64,
    /// Actual output cardinality: the rows the operator *produced*. Under early
    /// termination (a LIMIT upstream) this can be fewer than the operator's full
    /// output would have been; check [`OperatorMetrics::exhausted`] before treating
    /// this as a true cardinality.
    pub actual_rows: u64,
    /// Number of output batches the operator produced.
    pub batches: u64,
    /// Whether the operator **and its entire subtree** ran to completion. Operators
    /// terminated early — typically by a LIMIT upstream — report `false`, as does a
    /// Limit node that hit its count without draining its input (its `actual_rows`
    /// is a truncated count for its relation set). Only exhausted counts are true
    /// cardinalities; re-optimization detection must not consume anything else.
    pub exhausted: bool,
    /// Time spent in this operator's own code, excluding its children. A
    /// breaker's includes consuming its input; in the morsel engine the times of
    /// all workers add up, so it can exceed wall-clock time.
    pub elapsed: Duration,
    /// For scans: how the operator read its input — `"dictionary"` / `"native"`
    /// (vectorized over column chunks, with/without dictionary-coded columns),
    /// `"fallback-row"` (columnar execution on, but the predicate shape has no
    /// vectorized kernel), or `"row"` (columnar execution off, or an index scan
    /// materializing rows by id). `None` for non-scan operators.
    pub encoding: Option<&'static str>,
    /// For index nested-loop joins: how the operator probed — `"columnar"` (the
    /// kernel over column batches: native int keys, gathered output columns) or
    /// `"row"` (columnar execution off: one outer row and one fetched row at a
    /// time). For hash and plain nested-loop joins: the form of the build's key
    /// lookup — `"int"` (the CSR index over an int key column), `"map"` (any other
    /// key column) or `"cross"` (no key: every build row). `None` for other
    /// operators.
    pub probe: Option<&'static str>,
    /// Bytes this operator wrote to spill files (0 unless a memory budget forced
    /// the breaker out of core).
    pub spilled_bytes: u64,
    /// Number of spill partitions / runs the operator wrote (0 when it stayed in
    /// memory).
    pub spill_partitions: u64,
}

impl OperatorMetrics {
    /// The Q-error of this operator: `max(est/actual, actual/est)` with both sides
    /// clamped to at least one row, as in Moerkotte et al. (reference \[36\] of the paper).
    pub fn q_error(&self) -> f64 {
        let estimated = self.estimated_rows.max(1.0);
        let actual = (self.actual_rows as f64).max(1.0);
        (estimated / actual).max(actual / estimated)
    }

    /// Whether the estimate was an underestimate.
    pub fn is_underestimate(&self) -> bool {
        self.estimated_rows < self.actual_rows as f64
    }
}

/// The metrics tree of one executed plan (same shape as the plan tree).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsNode {
    /// This operator's metrics.
    pub metrics: OperatorMetrics,
    /// Children metrics, in the same order as the plan's children.
    pub children: Vec<MetricsNode>,
}

impl MetricsNode {
    /// Depth-first pre-order traversal.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a MetricsNode)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }

    /// All join operators in the tree, ordered bottom-up (smallest relation sets first,
    /// ties broken by tree depth — deepest first). This is the order in which the
    /// re-optimization controller looks for "the lowest join operator in the query plan"
    /// whose estimate is off (Section V of the paper).
    pub fn joins_bottom_up(&self) -> Vec<&OperatorMetrics> {
        let mut joins: Vec<(usize, &OperatorMetrics)> = Vec::new();
        self.collect_joins(0, &mut joins);
        joins.sort_by(|a, b| {
            a.1.rel_set
                .len()
                .cmp(&b.1.rel_set.len())
                .then(b.0.cmp(&a.0))
        });
        joins.into_iter().map(|(_, m)| m).collect()
    }

    fn collect_joins<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a OperatorMetrics)>) {
        if self.metrics.is_join {
            out.push((depth, &self.metrics));
        }
        for child in &self.children {
            child.collect_joins(depth + 1, out);
        }
    }

    /// The lowest operator whose Q-error exceeds `threshold`, if any: smallest
    /// relation set first, ties broken by depth (deepest first) then visit order.
    /// Only *exhausted* operators over a non-empty relation set qualify — truncated
    /// counts are never true cardinalities. This is the detection primitive shared by
    /// the restart and selective-improvement re-optimization policies ("the lowest
    /// operator in the plan whose estimate is off", Sections IV-E and V of the paper).
    pub fn lowest_mis_estimated(&self, threshold: f64) -> Option<&MetricsNode> {
        let mut candidates: Vec<(usize, usize, &MetricsNode)> = Vec::new();
        self.collect_with_depth(0, &mut candidates);
        candidates
            .into_iter()
            .filter(|(_, _, node)| {
                node.metrics.exhausted
                    && !node.metrics.rel_set.is_empty()
                    && node.metrics.q_error() > threshold
            })
            .min_by(|a, b| {
                a.2.metrics
                    .rel_set
                    .len()
                    .cmp(&b.2.metrics.rel_set.len())
                    .then(b.1.cmp(&a.1))
                    .then(a.0.cmp(&b.0))
            })
            .map(|(_, _, node)| node)
    }

    fn collect_with_depth<'a>(
        &'a self,
        depth: usize,
        out: &mut Vec<(usize, usize, &'a MetricsNode)>,
    ) {
        out.push((out.len(), depth, self));
        for child in &self.children {
            child.collect_with_depth(depth + 1, out);
        }
    }

    /// Total `(spilled bytes, spill partitions)` across all operators — `(0, 0)`
    /// unless a finite memory budget forced some breaker out of core.
    pub fn total_spilled(&self) -> (u64, u64) {
        let mut bytes = 0;
        let mut partitions = 0;
        self.walk(&mut |node| {
            bytes += node.metrics.spilled_bytes;
            partitions += node.metrics.spill_partitions;
        });
        (bytes, partitions)
    }

    /// Render the metrics tree as EXPLAIN ANALYZE style text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let arrow = if depth == 0 { "" } else { "-> " };
        let partial = if self.metrics.exhausted { "" } else { " partial" };
        let encoding = self
            .metrics
            .encoding
            .map(|e| format!(" encoding={e}"))
            .unwrap_or_default();
        let probe = self
            .metrics
            .probe
            .map(|p| format!(" probe={p}"))
            .unwrap_or_default();
        // Spill accounting renders only when the operator actually spilled, so
        // in-memory runs (the default) are byte-identical to builds without the
        // out-of-core subsystem.
        let spilled = if self.metrics.spilled_bytes > 0 || self.metrics.spill_partitions > 0 {
            format!(
                " spilled: {} bytes in {} partitions",
                self.metrics.spilled_bytes, self.metrics.spill_partitions
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{indent}{arrow}{}  (estimated rows={:.0} actual rows={}{partial} batches={} q-error={:.2}{encoding}{probe}{spilled} time={:.3}ms)\n",
            self.metrics.label,
            self.metrics.estimated_rows,
            self.metrics.actual_rows,
            self.metrics.batches,
            self.metrics.q_error(),
            self.metrics.elapsed.as_secs_f64() * 1e3,
        ));
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// The result of running one statement: output cardinality plus the metrics tree.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetrics {
    /// The metrics tree.
    pub root: MetricsNode,
    /// Total execution time: the run's wall-clock time less the time the
    /// observer's callbacks took.
    pub execution_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(label: &str, rels: &[usize], is_join: bool, est: f64, actual: u64) -> OperatorMetrics {
        OperatorMetrics {
            label: label.into(),
            rel_set: RelSet::from_indexes(rels.iter().copied()),
            is_join,
            estimated_rows: est,
            actual_rows: actual,
            batches: 1,
            exhausted: true,
            elapsed: Duration::from_millis(1),
            encoding: None,
            probe: None,
            spilled_bytes: 0,
            spill_partitions: 0,
        }
    }

    #[test]
    fn partial_operators_are_flagged_in_render() {
        let mut m = metrics("Hash Join", &[0, 1], true, 10.0, 5);
        m.exhausted = false;
        let tree = MetricsNode {
            metrics: m,
            children: vec![],
        };
        let rendered = tree.render();
        assert!(rendered.contains("actual rows=5 partial"), "{rendered}");
    }

    #[test]
    fn spill_accounting_renders_only_when_nonzero() {
        let clean = MetricsNode {
            metrics: metrics("Hash Join", &[0, 1], true, 10.0, 10),
            children: vec![],
        };
        assert!(!clean.render().contains("spilled:"));
        let mut m = metrics("Hash Join", &[0, 1], true, 10.0, 10);
        m.spilled_bytes = 4096;
        m.spill_partitions = 8;
        let spilled = MetricsNode {
            metrics: m,
            children: vec![],
        };
        assert!(
            spilled.render().contains("spilled: 4096 bytes in 8 partitions"),
            "{}",
            spilled.render()
        );
    }

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(metrics("x", &[0], false, 10.0, 1000).q_error(), 100.0);
        assert_eq!(metrics("x", &[0], false, 1000.0, 10).q_error(), 100.0);
        assert_eq!(metrics("x", &[0], false, 0.0, 0).q_error(), 1.0);
        assert!(metrics("x", &[0], false, 10.0, 1000).is_underestimate());
        assert!(!metrics("x", &[0], false, 1000.0, 10).is_underestimate());
    }

    #[test]
    fn joins_bottom_up_orders_by_relset_size() {
        let tree = MetricsNode {
            metrics: metrics("top join", &[0, 1, 2], true, 10.0, 10),
            children: vec![
                MetricsNode {
                    metrics: metrics("lower join", &[0, 1], true, 5.0, 500),
                    children: vec![
                        MetricsNode {
                            metrics: metrics("scan a", &[0], false, 100.0, 100),
                            children: vec![],
                        },
                        MetricsNode {
                            metrics: metrics("scan b", &[1], false, 100.0, 100),
                            children: vec![],
                        },
                    ],
                },
                MetricsNode {
                    metrics: metrics("scan c", &[2], false, 100.0, 100),
                    children: vec![],
                },
            ],
        };
        let joins = tree.joins_bottom_up();
        assert_eq!(joins.len(), 2);
        assert_eq!(joins[0].label, "lower join");
        assert_eq!(joins[1].label, "top join");
        let rendered = tree.render();
        assert!(rendered.contains("actual rows=500"));
        assert!(rendered.contains("q-error=100.00"));
    }
}
