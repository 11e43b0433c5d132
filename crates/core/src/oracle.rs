//! The perfect-(n) cardinality oracle.
//!
//! Section III-B of the paper defines *perfect-(n)*: the cardinality estimator is given
//! an oracle for the true cardinality of every join of `n` tables or fewer (including
//! the filtered base tables for n ≥ 1); larger joins fall back to the default
//! estimation model. Perfect-(17) is fully perfect for JOB, perfect-(0) is the default
//! estimator.
//!
//! The oracle here computes true cardinalities by actually executing a `COUNT(*)` over
//! the query's restriction ([`QuerySpec::restrict`]) to each connected relation subset
//! (Cartesian-product subsets are never estimated by the DP enumerator, so they are
//! skipped, exactly like the paper's PostgreSQL instrumentation which only overrides
//! estimates the planner asks for).
//! Results are memoized per `(query key, subset)` so that sweeping n = 0 … 17 over the
//! same workload (Figures 2 and 8) pays the execution cost only once.

use crate::database::Database;
use crate::error::DbError;
use reopt_planner::{bind_select, CardinalityOverrides, JoinGraph, QuerySpec, RelSet};
use reopt_sql::{AggregateFunc, SelectExpr, SelectItem, SelectStatement};
use std::collections::{HashMap, HashSet};

/// Enumerate every connected subset of the join graph with at most `max_size` relations.
pub fn connected_subsets_up_to(
    graph: &JoinGraph,
    relation_count: usize,
    max_size: usize,
) -> Vec<RelSet> {
    let mut seen: HashSet<RelSet> = HashSet::new();
    let mut result = Vec::new();
    let mut stack: Vec<RelSet> = Vec::new();
    for start in 0..relation_count {
        stack.push(RelSet::single(start));
    }
    while let Some(set) = stack.pop() {
        if !seen.insert(set) {
            continue;
        }
        result.push(set);
        if set.len() >= max_size {
            continue;
        }
        for neighbor in graph.neighbors(set).iter() {
            let extended = set.insert(neighbor);
            if !seen.contains(&extended) {
                stack.push(extended);
            }
        }
    }
    result.sort_by_key(|s| (s.len(), s.mask()));
    result
}

/// The perfect-(n) oracle with a cross-run memo of true cardinalities.
#[derive(Debug, Default, Clone)]
pub struct PerfectOracle {
    cache: HashMap<(String, u64), u64>,
}

impl PerfectOracle {
    /// An oracle with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized true cardinalities.
    pub fn cache_size(&self) -> usize {
        self.cache.len()
    }

    /// Build the override table for perfect-(`max_join_size`) on a query.
    ///
    /// `query_key` identifies the query in the memo (use a stable id such as "job-6d").
    /// With `max_join_size == 0` the result is empty (the default estimator).
    pub fn overrides_for(
        &mut self,
        db: &mut Database,
        select: &SelectStatement,
        max_join_size: usize,
        query_key: &str,
    ) -> Result<CardinalityOverrides, DbError> {
        let mut overrides = CardinalityOverrides::new();
        if max_join_size == 0 {
            return Ok(overrides);
        }
        let spec = bind_select(select, db.storage())?;
        let graph = JoinGraph::new(&spec);
        for subset in connected_subsets_up_to(&graph, spec.relation_count(), max_join_size) {
            let rows = self.true_cardinality(db, &spec, subset, query_key)?;
            overrides.set(subset, rows as f64);
        }
        Ok(overrides)
    }

    /// The true cardinality of the join of `subset` (with all applicable filter and join
    /// predicates), computed by executing a COUNT(*) sub-query and memoized.
    pub fn true_cardinality(
        &mut self,
        db: &mut Database,
        spec: &QuerySpec,
        subset: RelSet,
        query_key: &str,
    ) -> Result<u64, DbError> {
        let key = (query_key.to_string(), subset.mask());
        if let Some(&rows) = self.cache.get(&key) {
            return Ok(rows);
        }
        let mut count = spec.restrict(subset);
        count.output = vec![count_star()];
        // Execute without the session overrides: the sub-query's relation indexes do
        // not correspond to the outer query's, so reusing them would only confuse the
        // sub-plan (never its result, but there is no reason to).
        let saved = db.overrides().clone();
        db.clear_overrides();
        let output = db.execute_bound(count);
        db.set_overrides(saved);
        let output = output?;
        let rows = output.rows[0].value(0).as_int().unwrap_or(0).max(0) as u64;
        self.cache.insert(key, rows);
        Ok(rows)
    }
}

/// `count(*) AS true_rows`.
fn count_star() -> SelectItem {
    SelectItem {
        expr: SelectExpr::Aggregate {
            func: AggregateFunc::Count,
            arg: None,
        },
        alias: Some("true_rows".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::tests::test_database;
    use reopt_sql::parse_sql;

    const JOIN_SQL: &str = "SELECT count(*) AS c
        FROM title AS t, movie_keyword AS mk, keyword AS k
        WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw0'";

    #[test]
    fn connected_subsets_of_chain() {
        let mut db = test_database();
        let statement = parse_sql(JOIN_SQL).unwrap();
        let spec = bind_select(statement.query().unwrap(), db.storage()).unwrap();
        let graph = JoinGraph::new(&spec);
        // Chain t - mk - k: connected subsets are {t},{mk},{k},{t,mk},{mk,k},{t,mk,k}.
        let all = connected_subsets_up_to(&graph, 3, 3);
        assert_eq!(all.len(), 6);
        let pairs = connected_subsets_up_to(&graph, 3, 2);
        assert_eq!(pairs.len(), 5);
        let singles = connected_subsets_up_to(&graph, 3, 1);
        assert_eq!(singles.len(), 3);
        // Every enumerated subset is connected.
        for set in &all {
            assert!(graph.is_connected(*set));
        }
        // Keep the borrow checker honest about db being used later.
        let _ = db.storage_mut();
    }

    #[test]
    fn true_cardinalities_match_reality() {
        let mut db = test_database();
        let statement = parse_sql(JOIN_SQL).unwrap();
        let select = statement.query().unwrap().clone();
        let spec = bind_select(&select, db.storage()).unwrap();
        let mut oracle = PerfectOracle::new();

        let t = spec.relation_by_alias("t").unwrap();
        let mk = spec.relation_by_alias("mk").unwrap();
        let k = spec.relation_by_alias("k").unwrap();

        // Base tables: title has 300 rows, keyword filtered to kw0 has 1 row,
        // movie_keyword has 600 rows.
        assert_eq!(
            oracle
                .true_cardinality(&mut db, &spec, RelSet::single(t), "q")
                .unwrap(),
            300
        );
        assert_eq!(
            oracle
                .true_cardinality(&mut db, &spec, RelSet::single(k), "q")
                .unwrap(),
            1
        );
        assert_eq!(
            oracle
                .true_cardinality(&mut db, &spec, RelSet::single(mk), "q")
                .unwrap(),
            600
        );
        // mk ⋈ k (kw0 only) = 300; full join = 300.
        assert_eq!(
            oracle
                .true_cardinality(&mut db, &spec, RelSet::from_indexes([mk, k]), "q")
                .unwrap(),
            300
        );
        assert_eq!(
            oracle
                .true_cardinality(&mut db, &spec, spec.all_relations(), "q")
                .unwrap(),
            300
        );
        // The cache holds each computed subset exactly once.
        assert_eq!(oracle.cache_size(), 5);
        // Re-asking hits the cache (same count, no growth).
        oracle
            .true_cardinality(&mut db, &spec, spec.all_relations(), "q")
            .unwrap();
        assert_eq!(oracle.cache_size(), 5);
    }

    #[test]
    fn perfect_n_overrides_grow_with_n() {
        let mut db = test_database();
        let statement = parse_sql(JOIN_SQL).unwrap();
        let select = statement.query().unwrap().clone();
        let mut oracle = PerfectOracle::new();

        let none = oracle.overrides_for(&mut db, &select, 0, "q").unwrap();
        assert!(none.is_empty());
        let ones = oracle.overrides_for(&mut db, &select, 1, "q").unwrap();
        assert_eq!(ones.len(), 3);
        let pairs = oracle.overrides_for(&mut db, &select, 2, "q").unwrap();
        assert_eq!(pairs.len(), 5);
        let full = oracle.overrides_for(&mut db, &select, 17, "q").unwrap();
        assert_eq!(full.len(), 6);
    }

    #[test]
    fn perfect_estimates_improve_estimation_quality() {
        let mut db = test_database();
        let statement = parse_sql(JOIN_SQL).unwrap();
        let select = statement.query().unwrap().clone();

        // Default estimator: the skewed keyword 'kw0' join is underestimated.
        // (The top join's estimate is order-independent, so inspect children[0] of the
        // aggregate node.)
        let (default_planned, _) = db.plan_select(&select).unwrap();
        let default_top = default_planned.plan.children[0].estimated_rows;

        let mut oracle = PerfectOracle::new();
        let overrides = oracle.overrides_for(&mut db, &select, 17, "q").unwrap();
        db.set_overrides(overrides);
        let (perfect_planned, _) = db.plan_select(&select).unwrap();
        let perfect_top = perfect_planned
            .plan
            .children[0]
            .estimated_rows;
        // With the oracle the top join estimate equals the true cardinality (300).
        assert!((perfect_top - 300.0).abs() < 1.0, "estimate {perfect_top}");
        assert!(default_top < 300.0, "default should underestimate, got {default_top}");
    }

    #[test]
    fn counting_subquery_renders_valid_sql() {
        // The oracle's count is the restriction with a `count(*)` output; rendered
        // back to SQL it reparses, binds and counts the same rows.
        let mut db = test_database();
        let statement = parse_sql(JOIN_SQL).unwrap();
        let spec = bind_select(statement.query().unwrap(), db.storage()).unwrap();
        let mut count = spec.restrict(RelSet::from_indexes([1, 2]));
        count.output = vec![count_star()];
        let sql = crate::reopt::spec_to_statement(&count).to_sql();
        assert_eq!(
            sql,
            "SELECT COUNT(*) AS true_rows\nFROM movie_keyword AS mk,\n     keyword AS k\n\
             WHERE (k.keyword = 'kw0' AND mk.keyword_id = k.id)"
        );
        let reparsed = parse_sql(&sql).unwrap();
        let output = db.execute_statement(&reparsed).unwrap();
        assert_eq!(output.rows.len(), 1);
        assert_eq!(output.rows, db.execute_bound(count).unwrap().rows);
    }
}
