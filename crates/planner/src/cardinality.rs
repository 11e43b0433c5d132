//! Cardinality estimation.
//!
//! This is the component whose failure modes the paper studies. It follows the
//! System-R / PostgreSQL playbook:
//!
//! * **base relations** — row count from ANALYZE statistics times the product of the
//!   selectivities of the relation's filter predicates (MCV lists, histograms, default
//!   selectivities), assuming *independence* between predicates;
//! * **joins** — for a relation set `S`, the product of the filtered base cardinalities
//!   of the members times the selectivity of every join edge inside `S`, where an
//!   equi-join edge's selectivity is `1 / max(n_distinct(a), n_distinct(b))` — the
//!   *uniformity* assumption — again multiplying edge selectivities independently.
//!
//! The estimate for a set is therefore independent of the join order, which is exactly
//! how a Selinger-style optimizer scores every plan for the same subset identically.
//!
//! [`CardinalityOverrides`] lets a caller pin the estimate of any relation subset to an
//! arbitrary value. The perfect-(n) oracle of the paper is "override every subset of
//! size ≤ n with its true cardinality"; the re-optimization controller overrides the
//! subsets it has already materialized; the selective-improvement simulator overrides
//! the subtree below a detected estimation error.
//!
//! Every distinct subset whose cardinality is requested is counted in an
//! [`EstimationLog`]; Table I of the paper reports exactly these counts by subset size.

use crate::relset::{RelSet, RelSetMap};
use crate::spec::{JoinEdge, QuerySpec};
use reopt_catalog::{Catalog, ColumnStatistics};
use reopt_expr::{as_column_constant_comparison, BinaryOp, Expr};
use reopt_storage::Value;
use std::cell::RefCell;

/// Default selectivity of an equality predicate when no statistics help (PostgreSQL's
/// `DEFAULT_EQ_SEL`).
pub const DEFAULT_EQ_SEL: f64 = 0.005;
/// Default selectivity of an inequality / range predicate (PostgreSQL's
/// `DEFAULT_INEQ_SEL`).
pub const DEFAULT_RANGE_SEL: f64 = 1.0 / 3.0;
/// Default selectivity of a `LIKE` pattern that starts with a wildcard
/// (PostgreSQL's `DEFAULT_MATCH_SEL`).
pub const DEFAULT_MATCH_SEL: f64 = 0.005;
/// Default selectivity of a prefix `LIKE` pattern (`'abc%'`).
pub const DEFAULT_PREFIX_SEL: f64 = 0.02;
/// Fallback row count for tables that were never analyzed.
pub const DEFAULT_ROW_COUNT: f64 = 1000.0;

/// Whether an injected cardinality is a true count or only a lower bound.
///
/// The re-optimization driver observes both kinds: a completed (exhausted) operator
/// yields an *exact* count, while a suspended streaming join mid-probe has only seen
/// *at least* that many rows. The estimator pins estimates on exact entries but merely
/// floors the model on lower bounds — memoizing a bound as truth would freeze an
/// estimate below the real cardinality forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Exactness {
    /// A true cardinality: the operator ran to completion.
    #[default]
    Exact,
    /// A lower bound: the operator was suspended after producing this many rows.
    AtLeast,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct OverrideEntry {
    rows: f64,
    exactness: Exactness,
}

/// Injected cardinalities, keyed by relation subset.
#[derive(Debug, Clone, Default)]
pub struct CardinalityOverrides {
    map: RelSetMap<OverrideEntry>,
    /// Multi-relation override sets bucketed by size (`by_size[len]`), kept in sync
    /// with `map`. [`CardinalityOverrides::largest_anchor_within`] is called for
    /// every uncached multi-relation estimate, and a perfect-(n) oracle run injects
    /// thousands of subsets — walking size buckets from the largest candidate down
    /// finds the anchor without scanning the whole table per estimate.
    by_size: Vec<Vec<RelSet>>,
}

impl PartialEq for CardinalityOverrides {
    fn eq(&self, other: &Self) -> bool {
        // `by_size` is a derived index whose bucket ordering depends on insertion
        // history; logical equality is the map's.
        self.map == other.map
    }
}

impl CardinalityOverrides {
    /// An empty override table (the default PostgreSQL-style estimator).
    pub fn new() -> Self {
        Self::default()
    }

    fn insert_entry(&mut self, set: RelSet, rows: f64, exactness: Exactness) {
        let entry = OverrideEntry {
            rows: rows.max(0.0),
            exactness,
        };
        if self.map.insert(set, entry).is_none() && set.len() >= 2 {
            let size = set.len();
            if self.by_size.len() <= size {
                self.by_size.resize(size + 1, Vec::new());
            }
            self.by_size[size].push(set);
        }
    }

    /// Pin the cardinality of `set` to `rows` (an exact, observed count).
    pub fn set(&mut self, set: RelSet, rows: f64) {
        self.insert_entry(set, rows, Exactness::Exact);
    }

    /// Record that `set` produces *at least* `rows` rows. An existing entry is only
    /// replaced when the bound says more than it does: an exact count stands unless
    /// the bound exceeds it (the count was stale), and a previous bound only grows.
    pub fn set_at_least(&mut self, set: RelSet, rows: f64) {
        if let Some(existing) = self.map.get(&set) {
            if rows <= existing.rows {
                return;
            }
        }
        self.insert_entry(set, rows, Exactness::AtLeast);
    }

    /// Record an observation of `set`: an exact count through
    /// [`CardinalityOverrides::set`], a lower bound through
    /// [`CardinalityOverrides::set_at_least`].
    pub fn record(&mut self, set: RelSet, rows: f64, exactness: Exactness) {
        match exactness {
            Exactness::Exact => self.set(set, rows),
            Exactness::AtLeast => self.set_at_least(set, rows),
        }
    }

    /// The injected cardinality for `set`, if any (exact or bound).
    pub fn get(&self, set: RelSet) -> Option<f64> {
        self.map.get(&set).map(|e| e.rows)
    }

    /// The injected cardinality and its exactness for `set`, if any.
    pub fn get_entry(&self, set: RelSet) -> Option<(f64, Exactness)> {
        self.map.get(&set).map(|e| (e.rows, e.exactness))
    }

    /// Remove an override.
    pub fn clear(&mut self, set: RelSet) {
        if self.map.remove(&set).is_some() && set.len() >= 2 {
            if let Some(bucket) = self.by_size.get_mut(set.len()) {
                bucket.retain(|entry| *entry != set);
            }
        }
    }

    /// Number of overrides.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether there are no overrides.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Merge another override table into this one. Incoming exact entries win
    /// outright; incoming bounds obey [`CardinalityOverrides::set_at_least`]'s
    /// never-downgrade rule.
    pub fn merge(&mut self, other: &CardinalityOverrides) {
        for (set, entry) in &other.map {
            self.record(*set, entry.rows, entry.exactness);
        }
    }

    /// Iterate over all overrides.
    pub fn iter(&self) -> impl Iterator<Item = (RelSet, f64)> + '_ {
        self.map.iter().map(|(s, e)| (*s, e.rows))
    }

    /// Iterate over all overrides with their exactness.
    pub fn iter_entries(&self) -> impl Iterator<Item = (RelSet, f64, Exactness)> + '_ {
        self.map.iter().map(|(s, e)| (*s, e.rows, e.exactness))
    }

    /// The largest injected multi-relation subset that is a *proper* subset of `set`
    /// (ties broken deterministically by bitmask). The estimator anchors superset
    /// estimates on it, the way PostgreSQL's bottom-up join-rows computation lets an
    /// injected sub-join cardinality flow into every estimate above it — without this,
    /// correcting one join leaves all its supersets as wrong as before and a
    /// re-optimization loop has to rediscover the error one level at a time.
    pub fn largest_anchor_within(&self, set: RelSet) -> Option<(RelSet, f64)> {
        // Walk size buckets from the largest candidate down; the first bucket with a
        // match wins, so densely-populated override tables (the perfect-(n) oracle)
        // are not scanned in full for every estimate.
        let max_candidate = set.len().saturating_sub(1).min(self.by_size.len().saturating_sub(1));
        for size in (2..=max_candidate).rev() {
            let best = self.by_size[size]
                .iter()
                .filter(|s| s.is_proper_subset_of(set))
                .max_by_key(|s| s.mask());
            if let Some(anchor) = best {
                return Some((*anchor, self.map[anchor].rows));
            }
        }
        None
    }
}

/// A count of how many distinct relation subsets of each size had their cardinality
/// estimated while planning (Table I of the paper). A subset served from the
/// estimator's cache is not counted again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EstimationLog {
    counts: Vec<u64>,
}

impl EstimationLog {
    /// Record an estimate for a subset of `size` relations.
    pub fn record(&mut self, size: usize) {
        if self.counts.len() <= size {
            self.counts.resize(size + 1, 0);
        }
        self.counts[size] += 1;
    }

    /// Number of distinct subsets of exactly `size` relations estimated.
    pub fn count_for_size(&self, size: usize) -> u64 {
        self.counts.get(size).copied().unwrap_or(0)
    }

    /// Total number of distinct subsets estimated.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merge another log into this one.
    pub fn merge(&mut self, other: &EstimationLog) {
        for (size, count) in other.counts.iter().enumerate() {
            if *count > 0 {
                if self.counts.len() <= size {
                    self.counts.resize(size + 1, 0);
                }
                self.counts[size] += count;
            }
        }
    }

    /// The largest subset size with a recorded estimate.
    pub fn max_size(&self) -> usize {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
    }
}

/// The cardinality estimator for one query.
pub struct CardinalityEstimator<'a> {
    spec: &'a QuerySpec,
    catalog: &'a Catalog,
    overrides: &'a CardinalityOverrides,
    cache: RefCell<RelSetMap<f64>>,
    /// Per-edge join selectivities, computed once per planning call: the DPccp
    /// enumerator prices every csg-cmp pair, and each multi-relation estimate walks
    /// the edges inside its set — without the memo the same catalog lookups repeat
    /// thousands of times on the large JOB join graphs.
    edge_selectivity: RefCell<Vec<Option<f64>>>,
    /// Per-predicate selectivities of the complex (multi-relation) predicates.
    complex_selectivity: RefCell<Vec<Option<f64>>>,
    log: RefCell<EstimationLog>,
}

impl<'a> CardinalityEstimator<'a> {
    /// Create an estimator for a bound query.
    pub fn new(
        spec: &'a QuerySpec,
        catalog: &'a Catalog,
        overrides: &'a CardinalityOverrides,
    ) -> Self {
        Self {
            spec,
            catalog,
            overrides,
            cache: RefCell::new(RelSetMap::default()),
            edge_selectivity: RefCell::new(vec![None; spec.join_edges.len()]),
            complex_selectivity: RefCell::new(vec![None; spec.complex_predicates.len()]),
            log: RefCell::new(EstimationLog::default()),
        }
    }

    /// The query this estimator serves.
    pub fn spec(&self) -> &QuerySpec {
        self.spec
    }

    /// A snapshot of the estimation log so far.
    pub fn estimation_log(&self) -> EstimationLog {
        self.log.borrow().clone()
    }

    /// Estimated cardinality (output rows) of the join of all relations in `set`, with
    /// each relation's filter predicates applied. Overrides win over the model.
    pub fn estimate(&self, set: RelSet) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        if let Some(rows) = self.cache.borrow().get(&set) {
            return *rows;
        }
        self.log.borrow_mut().record(set.len());
        let rows = match self.overrides.get_entry(set) {
            // An exact observation pins the estimate.
            Some((injected, Exactness::Exact)) => injected.max(1.0),
            // A lower bound only floors the model: the true count may be far above
            // the bound, so the model's own estimate still applies when larger.
            Some((bound, Exactness::AtLeast)) => self.model_estimate(set).max(bound).max(1.0),
            None => self.model_estimate(set),
        };
        self.cache.borrow_mut().insert(set, rows);
        rows
    }

    /// The unfiltered row count of a base relation.
    pub fn raw_table_rows(&self, rel: usize) -> f64 {
        let relation = &self.spec.relations[rel];
        self.catalog
            .table_statistics(&relation.table)
            .map(|s| s.row_count as f64)
            .unwrap_or(DEFAULT_ROW_COUNT)
            .max(1.0)
    }

    /// The selectivity of all filter predicates attached to a base relation
    /// (independence assumed).
    pub fn local_selectivity(&self, rel: usize) -> f64 {
        self.spec.local_predicates[rel]
            .iter()
            .map(|p| self.predicate_selectivity(rel, p))
            .product::<f64>()
            .clamp(0.0, 1.0)
    }

    /// The model estimate for a subset (no overrides): product of filtered base
    /// cardinalities times the selectivity of every join edge inside the set.
    fn model_estimate(&self, set: RelSet) -> f64 {
        if set.len() == 1 {
            let rel = set.min_index().expect("non-empty");
            let rows = self.raw_table_rows(rel) * self.local_selectivity(rel);
            return rows.max(1.0);
        }
        // Anchor on the largest injected subset, if any: an observed sub-join
        // cardinality then flows into every superset estimate (as PostgreSQL's
        // bottom-up join-rows computation propagates injected path rows), instead of
        // every superset being rebuilt from the same wrong base estimates.
        let mut anchored = RelSet::EMPTY;
        let mut rows: f64 = 1.0;
        if let Some((anchor, _)) = self.overrides.largest_anchor_within(set) {
            anchored = anchor;
            // Route through `estimate` so an at-least anchor floors its own model
            // estimate instead of being taken as truth (the anchor is a proper
            // subset, so the recursion terminates).
            rows = self.estimate(anchor).max(1.0);
        }
        for rel in set.difference(anchored).iter() {
            // Reuse (and cache / log) the single-relation estimate so that injected
            // base-table cardinalities (perfect-(1)) flow into join estimates.
            rows *= self.estimate(RelSet::single(rel));
        }
        for edge_idx in self.spec.edge_indexes_within(set) {
            let edge = &self.spec.join_edges[edge_idx];
            // Edges interior to the anchor are already reflected in its observed rows.
            if anchored.contains(edge.left_rel) && anchored.contains(edge.right_rel) {
                continue;
            }
            rows *= self.memoized_edge_selectivity(edge_idx);
        }
        for (pred_idx, (pred_set, _)) in self.spec.complex_predicates.iter().enumerate() {
            if pred_set.is_subset_of(set) && !pred_set.is_subset_of(anchored) {
                // A residual predicate touching several relations: charge a default
                // selectivity depending on its shape.
                rows *= self.memoized_complex_selectivity(pred_idx);
            }
        }
        rows.max(1.0)
    }

    /// The memoized selectivity of join edge `edge_idx`: computed on first touch,
    /// served from the memo for every later subset containing the edge.
    fn memoized_edge_selectivity(&self, edge_idx: usize) -> f64 {
        if let Some(selectivity) = self.edge_selectivity.borrow()[edge_idx] {
            return selectivity;
        }
        let selectivity = self.join_edge_selectivity(&self.spec.join_edges[edge_idx]);
        self.edge_selectivity.borrow_mut()[edge_idx] = Some(selectivity);
        selectivity
    }

    /// The memoized selectivity of complex predicate `pred_idx`.
    fn memoized_complex_selectivity(&self, pred_idx: usize) -> f64 {
        if let Some(selectivity) = self.complex_selectivity.borrow()[pred_idx] {
            return selectivity;
        }
        let selectivity = self.generic_selectivity(&self.spec.complex_predicates[pred_idx].1);
        self.complex_selectivity.borrow_mut()[pred_idx] = Some(selectivity);
        selectivity
    }

    /// Selectivity of one equi-join edge under the uniformity assumption:
    /// `(1 - nullfrac_l) * (1 - nullfrac_r) / max(n_distinct_l, n_distinct_r)`.
    pub fn join_edge_selectivity(&self, edge: &JoinEdge) -> f64 {
        let left = self.column_statistics(edge.left_rel, &edge.left_column.name);
        let right = self.column_statistics(edge.right_rel, &edge.right_column.name);
        let nd_left = left.map(|s| s.n_distinct).unwrap_or_else(|| {
            self.raw_table_rows(edge.left_rel).max(DEFAULT_ROW_COUNT) * 0.1
        });
        let nd_right = right.map(|s| s.n_distinct).unwrap_or_else(|| {
            self.raw_table_rows(edge.right_rel).max(DEFAULT_ROW_COUNT) * 0.1
        });
        let null_left = left.map(|s| s.null_fraction).unwrap_or(0.0);
        let null_right = right.map(|s| s.null_fraction).unwrap_or(0.0);
        let selectivity = (1.0 - null_left) * (1.0 - null_right) / nd_left.max(nd_right).max(1.0);
        selectivity.clamp(1e-12, 1.0)
    }

    /// The ANALYZE statistics for `alias.column` of relation `rel`, if available.
    pub fn column_statistics(&self, rel: usize, column: &str) -> Option<&ColumnStatistics> {
        let relation = &self.spec.relations[rel];
        self.catalog
            .table_statistics(&relation.table)
            .and_then(|stats| stats.column(column))
    }

    /// Selectivity of a single-relation predicate.
    pub fn predicate_selectivity(&self, rel: usize, predicate: &Expr) -> f64 {
        let sel = match predicate {
            Expr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => self.predicate_selectivity(rel, left) * self.predicate_selectivity(rel, right),
            Expr::Binary {
                op: BinaryOp::Or,
                left,
                right,
            } => {
                let a = self.predicate_selectivity(rel, left);
                let b = self.predicate_selectivity(rel, right);
                a + b - a * b
            }
            Expr::Not(inner) => 1.0 - self.predicate_selectivity(rel, inner),
            Expr::IsNull { expr, negated } => {
                let null_fraction = expr
                    .as_column_ref()
                    .and_then(|c| self.column_statistics(rel, &c.name))
                    .map(|s| s.null_fraction)
                    .unwrap_or(0.01);
                if *negated {
                    1.0 - null_fraction
                } else {
                    null_fraction
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let base: f64 = match expr.as_column_ref() {
                    Some(column) => list
                        .iter()
                        .map(|v| self.equality_selectivity(rel, &column.name, v))
                        .sum(),
                    None => DEFAULT_EQ_SEL * list.len() as f64,
                };
                let base = base.clamp(0.0, 1.0);
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            Expr::Like {
                expr,
                pattern,
                negated,
            } => {
                let base = self.like_selectivity(rel, expr, pattern);
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                let base = match (expr.as_column_ref(), low.as_literal(), high.as_literal()) {
                    (Some(column), Some(lo), Some(hi)) => {
                        self.range_selectivity(rel, &column.name, Some(lo), Some(hi))
                    }
                    _ => DEFAULT_RANGE_SEL * DEFAULT_RANGE_SEL,
                };
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            _ => {
                if let Some((column, op, value)) = as_column_constant_comparison(predicate) {
                    match op {
                        BinaryOp::Eq => self.equality_selectivity(rel, &column.name, &value),
                        BinaryOp::NotEq => {
                            1.0 - self.equality_selectivity(rel, &column.name, &value)
                        }
                        BinaryOp::Lt | BinaryOp::LtEq => {
                            self.range_selectivity(rel, &column.name, None, Some(&value))
                        }
                        BinaryOp::Gt | BinaryOp::GtEq => {
                            self.range_selectivity(rel, &column.name, Some(&value), None)
                        }
                        _ => 0.25,
                    }
                } else {
                    self.generic_selectivity(predicate)
                }
            }
        };
        sel.clamp(1e-9, 1.0)
    }

    /// Default selectivity for predicates the model has no statistics-based estimate for
    /// (e.g. comparisons between two columns of the same relation).
    fn generic_selectivity(&self, predicate: &Expr) -> f64 {
        match predicate {
            Expr::Binary { op, .. } if *op == BinaryOp::Eq => DEFAULT_EQ_SEL,
            Expr::Binary { op, .. } if op.is_comparison() => DEFAULT_RANGE_SEL,
            _ => 0.25,
        }
    }

    /// Selectivity of `column = value` using the MCV list, falling back to the
    /// uniformity assumption over the non-MCV values.
    fn equality_selectivity(&self, rel: usize, column: &str, value: &Value) -> f64 {
        let Some(stats) = self.column_statistics(rel, column) else {
            return DEFAULT_EQ_SEL;
        };
        if value.is_null() {
            return 0.0;
        }
        if let Some(frequency) = stats.mcv.frequency_of(value) {
            return frequency;
        }
        let remaining = stats.non_mcv_fraction();
        let distinct = stats.non_mcv_distinct();
        (remaining / distinct).clamp(1e-9, 1.0)
    }

    /// Selectivity of a (half-)open range predicate over a column, combining MCV entries
    /// and the histogram, each weighted by the row mass they describe.
    fn range_selectivity(
        &self,
        rel: usize,
        column: &str,
        low: Option<&Value>,
        high: Option<&Value>,
    ) -> f64 {
        let Some(stats) = self.column_statistics(rel, column) else {
            return DEFAULT_RANGE_SEL;
        };
        let in_range = |value: &Value| -> bool {
            let above = low.map(|lo| value >= lo).unwrap_or(true);
            let below = high.map(|hi| value <= hi).unwrap_or(true);
            above && below
        };
        // MCV mass inside the range.
        let mcv_mass: f64 = stats
            .mcv
            .entries()
            .iter()
            .filter(|(value, _)| in_range(value))
            .map(|(_, frequency)| frequency)
            .sum();
        // Histogram mass inside the range.
        let histogram_fraction = if stats.histogram.is_empty() {
            if stats.mcv.is_empty() {
                DEFAULT_RANGE_SEL
            } else {
                0.0
            }
        } else {
            let below_high = high
                .map(|hi| stats.histogram.fraction_below(hi))
                .unwrap_or(1.0);
            let below_low = low
                .map(|lo| stats.histogram.fraction_below(lo))
                .unwrap_or(0.0);
            (below_high - below_low).max(0.0)
        };
        (mcv_mass + histogram_fraction * stats.non_mcv_fraction()).clamp(1e-9, 1.0)
    }

    /// Selectivity of a LIKE predicate: exact-match patterns behave like equality,
    /// prefix patterns use a prefix default, substring patterns use the match default —
    /// the same shape of heuristics PostgreSQL applies in `patternsel`.
    fn like_selectivity(&self, rel: usize, expr: &Expr, pattern: &str) -> f64 {
        let has_wildcard = pattern.contains('%') || pattern.contains('_');
        if !has_wildcard {
            if let Some(column) = expr.as_column_ref() {
                return self.equality_selectivity(rel, &column.name, &Value::from(pattern));
            }
            return DEFAULT_EQ_SEL;
        }
        if pattern.starts_with('%') || pattern.starts_with('_') {
            DEFAULT_MATCH_SEL
        } else {
            DEFAULT_PREFIX_SEL
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::bind_select;
    use reopt_sql::parse_sql;
    use reopt_storage::{Column, DataType, Row, Schema, Storage, Table};

    /// Build a small company/trades database with heavy skew on trades.company_id,
    /// mirroring the Nasdaq example of Section IV-C of the paper.
    fn build_env() -> (Storage, Catalog) {
        let mut storage = Storage::new();

        let mut company = Table::new(
            "company",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("symbol", DataType::Text),
            ]),
        );
        for i in 0..1000i64 {
            company
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("SYM{i}")),
                ]))
                .unwrap();
        }

        let mut trades = Table::new(
            "trades",
            Schema::new(vec![
                Column::not_null("company_id", DataType::Int),
                Column::new("shares", DataType::Int),
            ]),
        );
        // Company 1 accounts for half of all trades; the rest are uniform.
        for i in 0..20_000i64 {
            let company_id = if i % 2 == 0 { 1 } else { i % 1000 };
            trades
                .push_row(Row::from_values(vec![
                    Value::Int(company_id),
                    Value::Int(i % 500),
                ]))
                .unwrap();
        }
        storage.create_table(company).unwrap();
        storage.create_table(trades).unwrap();

        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog)
    }

    fn bind(sql: &str, storage: &Storage) -> QuerySpec {
        let stmt = parse_sql(sql).unwrap();
        bind_select(stmt.query().unwrap(), storage).unwrap()
    }

    #[test]
    fn base_table_estimate_matches_row_count() {
        let (storage, catalog) = build_env();
        let spec = bind("SELECT * FROM trades AS tr", &storage);
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        assert!((rows - 20_000.0).abs() < 1.0);
    }

    #[test]
    fn equality_on_mcv_value_uses_frequency() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM trades AS tr WHERE tr.company_id = 1",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        // True count is 10 000; MCV statistics should put the estimate close.
        assert!(rows > 8_000.0 && rows < 12_000.0, "estimate {rows}");
    }

    #[test]
    fn equality_on_rare_value_uses_uniformity() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM trades AS tr WHERE tr.company_id = 777",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        // ~10 rows truly; the uniform assumption over non-MCV values should land
        // in the tens, far below the MCV estimate.
        assert!(rows < 200.0, "estimate {rows}");
    }

    #[test]
    fn range_selectivity_uses_histogram() {
        let (storage, catalog) = build_env();
        let spec = bind("SELECT * FROM trades AS tr WHERE tr.shares < 250", &storage);
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        assert!(
            (rows - 10_000.0).abs() < 2_500.0,
            "estimate {rows} should be about half the table"
        );
    }

    #[test]
    fn join_estimate_underestimates_skewed_join() {
        // The Nasdaq example: company.symbol = 'SYM1' selects the heavy hitter, but the
        // uniformity assumption on the join key underestimates the join size.
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c, trades AS tr
             WHERE c.id = tr.company_id AND c.symbol = 'SYM1'",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let joined = est.estimate(RelSet::all(2));
        // True result is ~10 000 rows (half of trades); the independence+uniformity
        // estimate is roughly |c_filtered| * |trades| / ndistinct = 1 * 20000 / 1000.
        assert!(joined < 500.0, "estimate {joined} should be a big underestimate");
    }

    #[test]
    fn overrides_take_priority_and_flow_upward() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c, trades AS tr WHERE c.id = tr.company_id",
            &storage,
        );
        let mut overrides = CardinalityOverrides::new();
        overrides.set(RelSet::single(0), 5.0);
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        assert_eq!(est.estimate(RelSet::single(0)), 5.0);
        // The join estimate uses the overridden base cardinality.
        let joined = est.estimate(RelSet::all(2));
        let expected = 5.0 * 20_000.0 * est.join_edge_selectivity(&spec.join_edges[0]);
        assert!((joined - expected.max(1.0)).abs() < 1.0);
        // Full-set override wins over everything.
        let mut overrides2 = CardinalityOverrides::new();
        overrides2.set(RelSet::all(2), 123.0);
        let est2 = CardinalityEstimator::new(&spec, &catalog, &overrides2);
        assert_eq!(est2.estimate(RelSet::all(2)), 123.0);
    }

    #[test]
    fn estimation_log_counts_distinct_subsets() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c, trades AS tr WHERE c.id = tr.company_id",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        est.estimate(RelSet::all(2));
        est.estimate(RelSet::all(2));
        est.estimate(RelSet::single(1));
        let log = est.estimation_log();
        assert_eq!(log.count_for_size(2), 1);
        assert_eq!(log.count_for_size(1), 2); // both singles via the join estimate
        assert_eq!(log.total(), 3);
        assert_eq!(log.max_size(), 2);
    }

    #[test]
    fn selectivity_memo_serves_repeated_edge_lookups() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c, trades AS tr WHERE c.id = tr.company_id",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        // The first multi-relation estimate fills the edge's memo slot.
        let first = est.estimate(RelSet::all(2));
        let selectivity = est.join_edge_selectivity(&spec.join_edges[0]);
        assert_eq!(est.edge_selectivity.borrow()[0], Some(selectivity));
        // Recomputed from the memo (subset cache cleared), and from scratch (memo
        // cleared too), the estimate is the same to the bit.
        est.cache.borrow_mut().clear();
        assert_eq!(est.estimate(RelSet::all(2)).to_bits(), first.to_bits());
        est.cache.borrow_mut().clear();
        est.edge_selectivity.borrow_mut()[0] = None;
        assert_eq!(est.estimate(RelSet::all(2)).to_bits(), first.to_bits());
        assert_eq!(est.edge_selectivity.borrow()[0], Some(selectivity));
        // A fresh estimator agrees.
        let fresh = CardinalityEstimator::new(&spec, &catalog, &overrides);
        assert_eq!(fresh.estimate(RelSet::all(2)).to_bits(), first.to_bits());
    }

    #[test]
    fn largest_anchor_prefers_biggest_subset_and_survives_clear_and_merge() {
        let mut o = CardinalityOverrides::new();
        o.set(RelSet::single(0), 5.0); // singles never anchor (they flow per-relation)
        o.set(RelSet::from_indexes([0, 1]), 100.0);
        o.set(RelSet::from_indexes([0, 1, 2]), 900.0);
        o.set(RelSet::from_indexes([1, 3]), 50.0);

        let all4 = RelSet::all(4);
        assert_eq!(
            o.largest_anchor_within(all4),
            Some((RelSet::from_indexes([0, 1, 2]), 900.0))
        );
        // A proper subset is required: the set itself never anchors.
        assert_eq!(
            o.largest_anchor_within(RelSet::from_indexes([0, 1])),
            None,
            "only the single-relation override remains inside, which never anchors"
        );
        // Overwriting an entry keeps the index consistent (no duplicate bucket rows).
        o.set(RelSet::from_indexes([0, 1, 2]), 901.0);
        assert_eq!(
            o.largest_anchor_within(all4),
            Some((RelSet::from_indexes([0, 1, 2]), 901.0))
        );
        // Clearing the anchor falls back to the next-largest candidate.
        o.clear(RelSet::from_indexes([0, 1, 2]));
        let (anchor, _) = o.largest_anchor_within(all4).unwrap();
        assert_eq!(anchor.len(), 2);
        // Merge rebuilds the index for incoming sets.
        let mut other = CardinalityOverrides::new();
        other.set(RelSet::from_indexes([0, 2, 3]), 70.0);
        o.merge(&other);
        assert_eq!(
            o.largest_anchor_within(all4),
            Some((RelSet::from_indexes([0, 2, 3]), 70.0))
        );
    }

    #[test]
    fn estimation_log_merges_cache_counters() {
        let mut a = EstimationLog::default();
        a.record(1);
        a.record(2);
        a.record(2);
        let mut b = EstimationLog::default();
        b.record(2);
        b.record(4);
        a.merge(&b);
        assert_eq!(
            (0..=5)
                .map(|size| a.count_for_size(size))
                .collect::<Vec<_>>(),
            vec![0, 1, 3, 0, 1, 0]
        );
        assert_eq!(a.total(), 5);
        assert_eq!(a.max_size(), 4);
        // Merging an empty log changes nothing.
        let before = a.clone();
        a.merge(&EstimationLog::default());
        assert_eq!(a, before);
    }

    #[test]
    fn like_and_in_selectivities() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c WHERE c.symbol LIKE 'SYM1%'",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let prefix_rows = est.estimate(RelSet::single(0));
        assert!((1.0..1000.0).contains(&prefix_rows));

        let spec = bind(
            "SELECT * FROM company AS c WHERE c.symbol IN ('SYM1', 'SYM2', 'SYM3')",
            &storage,
        );
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let in_rows = est.estimate(RelSet::single(0));
        assert!((in_rows - 3.0).abs() < 2.0, "IN estimate {in_rows}");
    }

    #[test]
    fn not_and_or_selectivities() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM trades AS tr WHERE tr.shares < 100 OR tr.shares > 400",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        assert!(rows > 4_000.0 && rows < 12_000.0, "estimate {rows}");
    }

    #[test]
    fn override_table_operations() {
        let mut o = CardinalityOverrides::new();
        assert!(o.is_empty());
        o.set(RelSet::single(0), 10.0);
        o.set(RelSet::all(2), 50.0);
        assert_eq!(o.len(), 2);
        assert_eq!(o.get(RelSet::single(0)), Some(10.0));
        o.clear(RelSet::single(0));
        assert_eq!(o.get(RelSet::single(0)), None);
        let mut other = CardinalityOverrides::new();
        other.set(RelSet::single(1), 7.0);
        o.merge(&other);
        assert_eq!(o.len(), 2);
        assert_eq!(o.iter().count(), 2);
    }

    #[test]
    fn at_least_bounds_never_downgrade_and_only_grow() {
        let mut o = CardinalityOverrides::new();
        // A bound on an empty slot lands as AtLeast.
        o.set_at_least(RelSet::single(0), 100.0);
        assert_eq!(o.get_entry(RelSet::single(0)), Some((100.0, Exactness::AtLeast)));
        // A smaller bound is ignored; a larger one grows the entry.
        o.set_at_least(RelSet::single(0), 50.0);
        assert_eq!(o.get(RelSet::single(0)), Some(100.0));
        o.set_at_least(RelSet::single(0), 150.0);
        assert_eq!(o.get_entry(RelSet::single(0)), Some((150.0, Exactness::AtLeast)));
        // An exact count replaces a bound outright (even a smaller one).
        o.set(RelSet::single(0), 120.0);
        assert_eq!(o.get_entry(RelSet::single(0)), Some((120.0, Exactness::Exact)));
        // A bound at or below an exact count is ignored...
        o.set_at_least(RelSet::single(0), 120.0);
        assert_eq!(o.get_entry(RelSet::single(0)), Some((120.0, Exactness::Exact)));
        // ...but a bound above it proves the count stale and takes over as a bound.
        o.set_at_least(RelSet::single(0), 200.0);
        assert_eq!(o.get_entry(RelSet::single(0)), Some((200.0, Exactness::AtLeast)));
        // Merge preserves exactness per entry.
        let mut other = CardinalityOverrides::new();
        other.set(RelSet::single(1), 7.0);
        other.set_at_least(RelSet::from_indexes([0, 1]), 33.0);
        o.merge(&other);
        assert_eq!(o.get_entry(RelSet::single(1)), Some((7.0, Exactness::Exact)));
        assert_eq!(
            o.get_entry(RelSet::from_indexes([0, 1])),
            Some((33.0, Exactness::AtLeast))
        );
        assert_eq!(o.iter_entries().count(), 3);
    }

    #[test]
    fn estimator_floors_on_lower_bounds_instead_of_pinning() {
        let (storage, catalog) = build_env();
        let spec = bind(
            "SELECT * FROM company AS c, trades AS tr WHERE c.id = tr.company_id",
            &storage,
        );
        // The model estimates the join at ~20 000 rows (1:N fk join). A lower bound
        // far below that must NOT drag the estimate down...
        let mut low = CardinalityOverrides::new();
        low.set_at_least(RelSet::all(2), 10.0);
        let est = CardinalityEstimator::new(&spec, &catalog, &low);
        let model_rows = {
            let none = CardinalityOverrides::new();
            let plain = CardinalityEstimator::new(&spec, &catalog, &none);
            plain.estimate(RelSet::all(2))
        };
        assert_eq!(est.estimate(RelSet::all(2)), model_rows);
        // ...while a bound above the model floors it, and an exact entry pins it.
        let mut high = CardinalityOverrides::new();
        high.set_at_least(RelSet::all(2), model_rows * 4.0);
        let est = CardinalityEstimator::new(&spec, &catalog, &high);
        assert_eq!(est.estimate(RelSet::all(2)), model_rows * 4.0);
        let mut exact = CardinalityOverrides::new();
        exact.set(RelSet::all(2), 3.0);
        let est = CardinalityEstimator::new(&spec, &catalog, &exact);
        assert_eq!(est.estimate(RelSet::all(2)), 3.0);
    }

    #[test]
    fn estimation_log_merge() {
        let mut a = EstimationLog::default();
        a.record(1);
        a.record(2);
        let mut b = EstimationLog::default();
        b.record(2);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.count_for_size(2), 2);
        assert_eq!(a.count_for_size(5), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn unanalyzed_table_uses_defaults() {
        let (storage, _) = build_env();
        let catalog = Catalog::new(); // no ANALYZE
        let spec = bind(
            "SELECT * FROM company AS c WHERE c.symbol = 'SYM1'",
            &storage,
        );
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        assert!((rows - DEFAULT_ROW_COUNT * DEFAULT_EQ_SEL).abs() < 1.0 || rows >= 1.0);
    }

    /// A 20-row table with values 1..=20, small enough that ANALYZE scans every
    /// row and the statistics are exact — so selectivities can be checked
    /// against hand-computed values.
    fn tiny_exact_env() -> (Storage, Catalog) {
        let mut storage = Storage::new();
        let mut t = Table::new(
            "tiny",
            Schema::new(vec![Column::not_null("v", DataType::Int)]),
        );
        for i in 1..=20i64 {
            t.push_row(Row::from_values(vec![Value::Int(i)])).unwrap();
        }
        storage.create_table(t).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog)
    }

    #[test]
    fn equality_selectivity_on_tiny_table_is_one_over_n() {
        let (storage, catalog) = tiny_exact_env();
        let spec = bind("SELECT * FROM tiny AS x WHERE x.v = 7", &storage);
        let overrides = CardinalityOverrides::new();
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        // 20 rows, all distinct, full-scan statistics: P(v = 7) = 1/20, so the
        // estimate is exactly one row.
        let rows = est.estimate(RelSet::single(0));
        assert!((rows - 1.0).abs() < 1e-6, "estimate {rows}, expected 1.0");
        // Equality with a value outside the domain still clamps to >= 1 row.
        let spec = bind("SELECT * FROM tiny AS x WHERE x.v = 999", &storage);
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        assert!(est.estimate(RelSet::single(0)) >= 1.0);
    }

    #[test]
    fn range_selectivity_on_tiny_table_matches_hand_computed_fraction() {
        let (storage, catalog) = tiny_exact_env();
        let overrides = CardinalityOverrides::new();
        // v < 11 keeps values 1..=10: exactly half the table.
        let spec = bind("SELECT * FROM tiny AS x WHERE x.v < 11", &storage);
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        assert!(
            (rows - 10.0).abs() <= 1.5,
            "estimate {rows}, hand-computed 10 of 20 rows"
        );
        // A bounded range: 5 <= v AND v <= 8 keeps 4 of 20 rows.
        let spec = bind(
            "SELECT * FROM tiny AS x WHERE x.v >= 5 AND x.v <= 8",
            &storage,
        );
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let rows = est.estimate(RelSet::single(0));
        // Independence multiplies the two one-sided selectivities, so allow the
        // usual conjunction error on top of the exact 4-row answer.
        assert!(
            (1.0..9.0).contains(&rows),
            "estimate {rows} for a 4-of-20-row range"
        );
    }

    #[test]
    fn local_selectivity_multiplies_predicates_independently() {
        let (storage, catalog) = tiny_exact_env();
        let overrides = CardinalityOverrides::new();
        // P(v < 11) = 0.5 exactly with full-scan statistics.
        let spec = bind("SELECT * FROM tiny AS x WHERE x.v < 11", &storage);
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let one = est.local_selectivity(0);
        assert!((one - 0.5).abs() < 0.1, "one-sided selectivity {one}");

        // Conjoining the overlapping bound v < 16 (P = 0.75) must multiply under
        // the independence assumption: 0.5 × 0.75 = 0.375 — deliberately BELOW
        // the true fraction 0.5, the textbook conjunction underestimate.
        let spec = bind(
            "SELECT * FROM tiny AS x WHERE x.v < 11 AND x.v < 16",
            &storage,
        );
        let est = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let both = est.local_selectivity(0);
        assert!(
            (both - one * 0.75).abs() < 0.08,
            "product selectivity {both}, expected ~{}",
            one * 0.75
        );
    }
}
