//! The cost model.
//!
//! The constants follow PostgreSQL's planner cost parameters (`seq_page_cost`,
//! `random_page_cost`, `cpu_tuple_cost`, `cpu_index_tuple_cost`, `cpu_operator_cost`).
//! The paper's experimental setup has every table and index cached in memory, so I/O
//! terms are charged at the (low) cached-page rate and the model is dominated by CPU
//! terms — which is also what makes join-order mistakes expensive in the paper: a
//! nested-loop join over a badly under-estimated intermediate result does far more
//! per-tuple work than a hash join would have.
//!
//! Costs are unit-less, comparable only to each other, exactly as in PostgreSQL.

use std::fmt;

/// A plan cost: the cost to produce the first row and the cost to produce all rows.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cost {
    /// Cost before the first output row can be produced.
    pub startup: f64,
    /// Total cost to produce all output rows.
    pub total: f64,
}

impl Cost {
    /// A zero cost.
    pub const ZERO: Cost = Cost {
        startup: 0.0,
        total: 0.0,
    };

    /// Create a cost.
    pub fn new(startup: f64, total: f64) -> Self {
        Self { startup, total }
    }

    /// Add an amount to the total only.
    pub fn add_run_cost(self, amount: f64) -> Cost {
        Cost {
            startup: self.startup,
            total: self.total + amount,
        }
    }

    /// Whether this cost is cheaper than another (by total, then startup).
    pub fn is_cheaper_than(self, other: Cost) -> bool {
        if self.total != other.total {
            self.total < other.total
        } else {
            self.startup < other.startup
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;

    /// Add two costs component-wise.
    fn add(self, other: Cost) -> Cost {
        Cost {
            startup: self.startup + other.startup,
            total: self.total + other.total,
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}..{:.2}", self.startup, self.total)
    }
}

/// Cost model parameters and formulas.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cost of a sequentially fetched page (tables are cached, so this is small).
    pub seq_page_cost: f64,
    /// Cost of a randomly fetched page.
    pub random_page_cost: f64,
    /// CPU cost of processing one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of evaluating one operator or predicate.
    pub cpu_operator_cost: f64,
    /// Bytes per page, used to convert row widths into page counts.
    pub page_size: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
            page_size: 8192.0,
        }
    }
}

impl CostModel {
    /// Number of pages occupied by `rows` rows of `width` bytes.
    pub fn pages_for(&self, rows: f64, width: f64) -> f64 {
        ((rows * width.max(1.0)) / self.page_size).ceil().max(1.0)
    }

    /// Cost of a sequential scan over a table of `table_rows` rows of `width` bytes,
    /// evaluating `predicates` filter predicates per row.
    pub fn seq_scan(&self, table_rows: f64, width: f64, predicates: usize) -> Cost {
        let io = self.pages_for(table_rows, width) * self.seq_page_cost;
        let cpu =
            table_rows * (self.cpu_tuple_cost + self.cpu_operator_cost * predicates as f64);
        Cost::new(0.0, io + cpu)
    }

    /// Cost of an index scan returning `matched_rows` of a table with `table_rows` rows,
    /// evaluating `residual_predicates` per matched row.
    pub fn index_scan(
        &self,
        table_rows: f64,
        matched_rows: f64,
        residual_predicates: usize,
    ) -> Cost {
        let descent = self.cpu_operator_cost * (table_rows.max(2.0)).log2();
        let heap = matched_rows * self.random_page_cost.min(1.0);
        let cpu = matched_rows
            * (self.cpu_index_tuple_cost
                + self.cpu_tuple_cost
                + self.cpu_operator_cost * residual_predicates as f64);
        Cost::new(descent, descent + heap + cpu)
    }

    /// Cost of a hash join: build on the inner input, probe with the outer input.
    pub fn hash_join(
        &self,
        outer: Cost,
        inner: Cost,
        outer_rows: f64,
        inner_rows: f64,
        output_rows: f64,
        key_count: usize,
    ) -> Cost {
        let keys = key_count.max(1) as f64;
        let build = inner_rows * (self.cpu_operator_cost * keys + self.cpu_tuple_cost);
        let probe = outer_rows * self.cpu_operator_cost * keys;
        let emit = output_rows * self.cpu_tuple_cost;
        Cost::new(
            inner.total + build,
            outer.total + inner.total + build + probe + emit,
        )
    }

    /// Cost of a plain nested-loop join with a materialized inner side.
    pub fn nested_loop_join(
        &self,
        outer: Cost,
        inner: Cost,
        outer_rows: f64,
        inner_rows: f64,
        output_rows: f64,
    ) -> Cost {
        let compare = outer_rows * inner_rows * self.cpu_operator_cost;
        let emit = output_rows * self.cpu_tuple_cost;
        Cost::new(
            outer.startup + inner.total,
            outer.total + inner.total + compare + emit,
        )
    }

    /// Cost of an index nested-loop join: for each outer row, an index lookup on the
    /// inner base table followed by fetching the matching rows.
    pub fn index_nested_loop_join(
        &self,
        outer: Cost,
        outer_rows: f64,
        inner_table_rows: f64,
        matches_per_lookup: f64,
        output_rows: f64,
        residual_predicates: usize,
    ) -> Cost {
        let per_lookup = self.cpu_operator_cost * (inner_table_rows.max(2.0)).log2()
            + self.cpu_index_tuple_cost
            + matches_per_lookup
                * (self.cpu_tuple_cost + self.cpu_operator_cost * residual_predicates as f64);
        let emit = output_rows * self.cpu_tuple_cost;
        Cost::new(outer.startup, outer.total + outer_rows * per_lookup + emit)
    }

    /// Cost of sorting `rows` rows with `keys` sort keys.
    pub fn sort(&self, input: Cost, rows: f64, keys: usize) -> Cost {
        let n = rows.max(2.0);
        let cmp = n * n.log2() * self.cpu_operator_cost * keys.max(1) as f64;
        Cost::new(input.total + cmp, input.total + cmp + rows * self.cpu_tuple_cost)
    }

    /// Cost of aggregating `input_rows` into `groups` groups with `aggregate_count`
    /// aggregate expressions.
    pub fn aggregate(&self, input: Cost, input_rows: f64, groups: f64, aggregates: usize) -> Cost {
        let work = input_rows * self.cpu_operator_cost * aggregates.max(1) as f64;
        Cost::new(
            input.total + work,
            input.total + work + groups * self.cpu_tuple_cost,
        )
    }

    /// Cost of projecting `rows` rows through `expressions` expressions.
    pub fn project(&self, input: Cost, rows: f64, expressions: usize) -> Cost {
        input.add_run_cost(rows * self.cpu_operator_cost * expressions.max(1) as f64)
    }

    /// Cost of materializing `rows` rows of `width` bytes into a temporary table
    /// (used to charge the re-optimization controller for CREATE TEMP TABLE AS).
    pub fn materialize(&self, input: Cost, rows: f64, width: f64) -> Cost {
        let pages = self.pages_for(rows, width);
        input.add_run_cost(rows * self.cpu_tuple_cost + pages * self.seq_page_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_ordering_and_arithmetic() {
        let a = Cost::new(1.0, 10.0);
        let b = Cost::new(0.5, 12.0);
        assert!(a.is_cheaper_than(b));
        assert!(!b.is_cheaper_than(a));
        let c = Cost::new(0.5, 10.0);
        assert!(c.is_cheaper_than(a));
        assert_eq!(a + b, Cost::new(1.5, 22.0));
        assert_eq!(a.add_run_cost(5.0), Cost::new(1.0, 15.0));
        assert_eq!(format!("{a}"), "1.00..10.00");
    }

    #[test]
    fn seq_scan_scales_with_rows() {
        let m = CostModel::default();
        let small = m.seq_scan(1_000.0, 50.0, 1);
        let large = m.seq_scan(100_000.0, 50.0, 1);
        assert!(large.total > small.total * 50.0);
    }

    #[test]
    fn index_scan_beats_seq_scan_for_selective_predicates() {
        let m = CostModel::default();
        let seq = m.seq_scan(1_000_000.0, 50.0, 1);
        let idx = m.index_scan(1_000_000.0, 10.0, 0);
        assert!(idx.total < seq.total);
        // ... but not when most of the table matches.
        let idx_all = m.index_scan(1_000_000.0, 900_000.0, 0);
        assert!(idx_all.total > seq.total);
    }

    #[test]
    fn hash_join_beats_nested_loop_on_large_inputs() {
        let m = CostModel::default();
        let child = Cost::ZERO;
        let hash = m.hash_join(child, child, 100_000.0, 100_000.0, 100_000.0, 1);
        let nl = m.nested_loop_join(child, child, 100_000.0, 100_000.0, 100_000.0);
        assert!(hash.total < nl.total);
    }

    #[test]
    fn index_nested_loop_wins_for_tiny_outer() {
        let m = CostModel::default();
        let child = Cost::ZERO;
        // 5 outer rows probing a 1M-row table: INL should beat hashing the 1M rows.
        let inl = m.index_nested_loop_join(child, 5.0, 1_000_000.0, 2.0, 10.0, 0);
        let hash = m.hash_join(child, child, 5.0, 1_000_000.0, 10.0, 1);
        assert!(inl.total < hash.total);
        // 1M outer rows: hashing wins.
        let inl = m.index_nested_loop_join(child, 1_000_000.0, 1_000_000.0, 2.0, 2_000_000.0, 0);
        let hash = m.hash_join(child, child, 1_000_000.0, 1_000_000.0, 2_000_000.0, 1);
        assert!(hash.total < inl.total);
    }

    #[test]
    fn aggregate_project_materialize_accumulate_input_cost() {
        let m = CostModel::default();
        let input = Cost::new(0.0, 100.0);
        assert!(m.aggregate(input, 1000.0, 10.0, 2).total > 100.0);
        assert!(m.project(input, 1000.0, 3).total > 100.0);
        assert!(m.materialize(input, 1000.0, 64.0).total > 100.0);
        assert!(m.sort(input, 1000.0, 1).total > 100.0);
    }

    #[test]
    fn pages_for_has_floor_of_one() {
        let m = CostModel::default();
        assert_eq!(m.pages_for(1.0, 8.0), 1.0);
        assert!(m.pages_for(1_000_000.0, 100.0) > 10_000.0);
    }
}
