//! The optimizer: access-path selection, join enumeration and final plan assembly.

use crate::binder::bind_select;
use crate::cardinality::{CardinalityEstimator, CardinalityOverrides, EstimationLog};
use crate::cost::CostModel;
use crate::enumerate::{EnumerationAlgorithm, IndexInfo, JoinEnumerator};
use crate::error::PlanError;
use crate::graph::JoinGraph;
use crate::plan::{
    infer_aggregate_type, infer_type, AggregateExpr, IndexLookup, OutputExpr, PhysicalPlan,
    PlanKind,
};
use crate::relset::RelSet;
use crate::spec::{ColumnUses, QuerySpec};
use reopt_catalog::Catalog;
use reopt_expr::{as_column_constant_comparison, conjoin, BinaryOp, Expr};
use reopt_sql::{SelectExpr, SelectStatement};
use reopt_storage::{Column, Schema, Storage};

/// Configuration knobs for the optimizer, mirroring the PostgreSQL planner GUCs the
/// paper touches (`enable_*` flags, GEQO threshold).
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizerConfig {
    /// Consider index scans as access paths.
    pub enable_index_scans: bool,
    /// Consider hash joins.
    pub enable_hash_joins: bool,
    /// Read by nothing: the planner has no sort-merge join. The field stays only
    /// because the benchmark package (`benchmark/src/workloads.rs`) still sets it;
    /// the next change allowed to edit `benchmark/` removes both.
    pub enable_merge_joins: bool,
    /// Consider index nested-loop joins.
    pub enable_index_nl_joins: bool,
    /// Switch from exhaustive DP to greedy enumeration above this relation count.
    ///
    /// The default of 12 matches PostgreSQL's `geqo_threshold`, and was picked
    /// empirically at scale 0.03 with single-threaded execution (wall-clock ms).
    /// The exec columns are from PR 5's tuning run and still hold: the cost-table
    /// enumerator builds byte-identical plans. The plan columns were re-measured
    /// with it (best of five, data seed 42):
    ///
    /// | query | tables | DP plan | DP exec | greedy plan | greedy exec |
    /// |-------|--------|---------|---------|-------------|-------------|
    /// | 13a   | 8      | 0.1     | 9.7     | 0.06        | 12.7        |
    /// | 17a   | 11     | 0.5     | 57      | 0.1         | 73          |
    /// | 20a   | 14     | 2.3     | 6 268   | 0.2         | 1 638       |
    /// | 21a   | 17     | 16      | 1 362 996 | 0.2       | 77 767      |
    ///
    /// Through 11 relations DPccp's plans execute faster than greedy's, so
    /// exhaustive enumeration pays. Beyond that the relationship *inverts* on the
    /// skewed families: with the default estimator's errors compounding over 13+
    /// joins, DPccp overfits to wrong cardinalities and its "optimal" plans executed
    /// 4x (20a) to 17x (21a) slower than greedy's conservative chains. Planning
    /// latency is not the reason (2–16 ms against seconds of execution); plan
    /// quality is. Exhaustive enumeration only pays when the estimates feeding it
    /// are trustworthy, which is precisely the paper's re-optimization thesis;
    /// above the threshold, cheap plans plus observed-cardinality re-planning beat
    /// estimate-driven search.
    pub greedy_threshold: usize,
    /// The cost model.
    pub cost_model: CostModel,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            enable_index_scans: true,
            enable_hash_joins: true,
            enable_merge_joins: false,
            enable_index_nl_joins: true,
            greedy_threshold: 12,
            cost_model: CostModel::default(),
        }
    }
}

/// The result of planning one query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedQuery {
    /// The chosen physical plan.
    pub plan: PhysicalPlan,
    /// How many cardinality estimates were requested, by subset size (Table I).
    pub estimation_log: EstimationLog,
    /// The bound query the plan was derived from.
    pub spec: QuerySpec,
}

/// The query optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    config: OptimizerConfig,
}

struct StorageIndexInfo<'a> {
    spec: &'a QuerySpec,
    storage: &'a Storage,
}

impl IndexInfo for StorageIndexInfo<'_> {
    fn has_index(&self, rel: usize, column: &str) -> bool {
        let relation = &self.spec.relations[rel];
        let Ok(table) = self.storage.table(&relation.table) else {
            return false;
        };
        match table.schema().index_of(None, column) {
            Ok(idx) => table.has_index_on(idx),
            Err(_) => false,
        }
    }

    fn table_rows(&self, rel: usize) -> f64 {
        let relation = &self.spec.relations[rel];
        self.storage
            .table(&relation.table)
            .map(|t| t.row_count() as f64)
            .unwrap_or(1.0)
            .max(1.0)
    }
}

impl Optimizer {
    /// Create an optimizer with the given configuration.
    pub fn new(config: OptimizerConfig) -> Self {
        Self { config }
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Bind and plan a SELECT statement.
    pub fn plan_select(
        &self,
        statement: &SelectStatement,
        storage: &Storage,
        catalog: &Catalog,
        overrides: &CardinalityOverrides,
    ) -> Result<PlannedQuery, PlanError> {
        let spec = bind_select(statement, storage)?;
        self.plan_spec(spec, storage, catalog, overrides)
    }

    /// Plan an already-bound query.
    pub fn plan_spec(
        &self,
        spec: QuerySpec,
        storage: &Storage,
        catalog: &Catalog,
        overrides: &CardinalityOverrides,
    ) -> Result<PlannedQuery, PlanError> {
        let graph = JoinGraph::new(&spec);
        let estimator = CardinalityEstimator::new(&spec, catalog, overrides);
        let uses = spec.column_uses();

        // Access paths for every base relation.
        let base_plans: Vec<PhysicalPlan> = (0..spec.relation_count())
            .map(|rel| self.best_access_path(rel, &spec, &uses, storage, &estimator))
            .collect();

        // Join enumeration.
        let join_plan = if spec.relation_count() == 1 {
            base_plans.into_iter().next().expect("one relation")
        } else {
            let index_info = StorageIndexInfo {
                spec: &spec,
                storage,
            };
            let enumerator =
                JoinEnumerator::new(&spec, &graph, &estimator, &self.config, &uses, &index_info);
            let algorithm = if spec.relation_count() > self.config.greedy_threshold {
                EnumerationAlgorithm::Greedy
            } else {
                EnumerationAlgorithm::DpCcp
            };
            enumerator.enumerate(base_plans, algorithm)?
        };

        // Output shape: aggregation or projection, then ORDER BY / LIMIT.
        let plan = self.finish_plan(join_plan, &spec)?;
        let estimation_log = estimator.estimation_log();
        Ok(PlannedQuery {
            plan,
            estimation_log,
            spec,
        })
    }

    /// Choose the cheapest access path (sequential or index scan) for a base relation.
    /// The path outputs only the relation's columns read above it; its predicates read
    /// the table itself, and its cost prices the full row width.
    fn best_access_path(
        &self,
        rel: usize,
        spec: &QuerySpec,
        uses: &ColumnUses,
        storage: &Storage,
        estimator: &CardinalityEstimator<'_>,
    ) -> PhysicalPlan {
        let relation = &spec.relations[rel];
        let predicates = &spec.local_predicates[rel];
        let estimated_rows = estimator.estimate(RelSet::single(rel));
        let table_rows = estimator.raw_table_rows(rel);
        let schema = uses.schema_of(spec, RelSet::single(rel));
        let width = relation.schema.nominal_width() as f64;

        let seq_scan = PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel,
                alias: relation.alias.clone(),
                table: relation.table.clone(),
                predicate: conjoin(predicates),
            },
            children: vec![],
            schema: schema.clone(),
            estimated_rows,
            cost: self
                .config
                .cost_model
                .seq_scan(table_rows, width, predicates.len()),
            rel_set: RelSet::single(rel),
        };

        if !self.config.enable_index_scans {
            return seq_scan;
        }
        let Ok(table) = storage.table(&relation.table) else {
            return seq_scan;
        };

        // Try to drive an index with one of the local predicates.
        let mut best = seq_scan;
        for (pred_idx, predicate) in predicates.iter().enumerate() {
            let Some((column, lookup, needs_range)) = index_lookup_for(predicate) else {
                continue;
            };
            let Ok(col_idx) = table.schema().index_of(None, &column) else {
                continue;
            };
            if table.index_on_column(col_idx, needs_range).is_none() {
                continue;
            }
            let residual: Vec<Expr> = predicates
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != pred_idx)
                .map(|(_, p)| p.clone())
                .collect();
            // Matched rows before the residual filter: selectivity of the driving
            // predicate alone.
            let driving_selectivity = estimator.predicate_selectivity(rel, predicate);
            let matched_rows = (table_rows * driving_selectivity).max(1.0);
            let cost =
                self.config
                    .cost_model
                    .index_scan(table_rows, matched_rows, residual.len());
            let candidate = PhysicalPlan {
                kind: PlanKind::IndexScan {
                    rel,
                    alias: relation.alias.clone(),
                    table: relation.table.clone(),
                    column,
                    lookup,
                    residual: conjoin(&residual),
                },
                children: vec![],
                schema: schema.clone(),
                estimated_rows,
                cost,
                rel_set: RelSet::single(rel),
            };
            if candidate.cost.is_cheaper_than(best.cost) {
                best = candidate;
            }
        }
        best
    }

    /// Add aggregation / projection, ORDER BY and LIMIT on top of the join tree.
    fn finish_plan(
        &self,
        input: PhysicalPlan,
        spec: &QuerySpec,
    ) -> Result<PhysicalPlan, PlanError> {
        let has_aggregates = spec
            .output
            .iter()
            .any(|item| matches!(item.expr, SelectExpr::Aggregate { .. }));

        let mut plan = if has_aggregates || !spec.group_by.is_empty() {
            self.build_aggregate(input, spec)?
        } else {
            self.build_project(input, spec)?
        };

        if !spec.order_by.is_empty() {
            let keys: Vec<(Expr, bool)> = spec
                .order_by
                .iter()
                .map(|o| (o.expr.clone(), o.ascending))
                .collect();
            let cost = self
                .config
                .cost_model
                .sort(plan.cost, plan.estimated_rows, keys.len());
            plan = PhysicalPlan {
                kind: PlanKind::Sort { keys },
                schema: plan.schema.clone(),
                estimated_rows: plan.estimated_rows,
                cost,
                rel_set: plan.rel_set,
                children: vec![plan],
            };
        }

        if let Some(count) = spec.limit {
            let estimated_rows = plan.estimated_rows.min(count as f64);
            plan = PhysicalPlan {
                kind: PlanKind::Limit { count },
                schema: plan.schema.clone(),
                estimated_rows,
                cost: plan.cost,
                rel_set: plan.rel_set,
                children: vec![plan],
            };
        }
        Ok(plan)
    }

    fn build_aggregate(
        &self,
        input: PhysicalPlan,
        spec: &QuerySpec,
    ) -> Result<PhysicalPlan, PlanError> {
        let mut aggregates = Vec::new();
        let mut schema_columns: Vec<Column> = Vec::new();

        // Group-by columns come first in the output schema. They keep their qualifier so
        // that qualified ORDER BY keys (e.g. `ORDER BY t.production_year`) still bind.
        for (idx, key) in spec.group_by.iter().enumerate() {
            let reference = key.as_column_ref();
            let name = reference
                .map(|r| r.name.clone())
                .unwrap_or_else(|| format!("group_{idx}"));
            let mut column = Column::new(name, infer_type(key, &input.schema));
            if let Some(qualifier) = reference.and_then(|r| r.qualifier.clone()) {
                column = column.with_qualifier(qualifier);
            }
            schema_columns.push(column);
        }

        for (idx, item) in spec.output.iter().enumerate() {
            let SelectExpr::Aggregate { func, arg } = &item.expr else {
                // Scalar expressions in an aggregate query must be group-by keys;
                // they are already part of the output schema, so nothing to add
                // unless they carry an alias that differs. (The binder rejects `*`
                // beside aggregates.)
                if !spec
                    .group_by
                    .iter()
                    .any(|g| matches!(&item.expr, SelectExpr::Scalar(expr) if expr == g))
                {
                    return Err(PlanError::Unsupported(format!(
                        "scalar expression '{}' in an aggregate query must appear in GROUP BY",
                        item.expr.to_sql()
                    )));
                }
                continue;
            };
            let name = item
                .alias
                .clone()
                .unwrap_or_else(|| format!("{}_{idx}", func.name().to_ascii_lowercase()));
            schema_columns.push(Column::new(
                name.clone(),
                infer_aggregate_type(*func, arg.as_ref(), &input.schema),
            ));
            aggregates.push(AggregateExpr {
                func: *func,
                arg: arg.clone(),
                name,
            });
        }

        let groups = if spec.group_by.is_empty() {
            1.0
        } else {
            // A crude guess: the square root of the input, capped by the input size.
            input.estimated_rows.sqrt().max(1.0)
        };
        let cost = self.config.cost_model.aggregate(
            input.cost,
            input.estimated_rows,
            groups,
            aggregates.len(),
        );
        Ok(PhysicalPlan {
            kind: PlanKind::Aggregate {
                group_by: spec.group_by.clone(),
                aggregates,
            },
            schema: Schema::new(schema_columns),
            estimated_rows: groups,
            cost,
            rel_set: input.rel_set,
            children: vec![input],
        })
    }

    fn build_project(
        &self,
        input: PhysicalPlan,
        spec: &QuerySpec,
    ) -> Result<PhysicalPlan, PlanError> {
        let mut exprs = Vec::new();
        let mut columns = Vec::new();
        for (idx, item) in spec.output.iter().enumerate() {
            // Aggregates go to build_aggregate, and the binder expands `*`.
            let SelectExpr::Scalar(expr) = &item.expr else {
                return Err(PlanError::Unsupported(format!(
                    "'{}' in a projection of an unbound query",
                    item.expr.to_sql()
                )));
            };
            let name = item
                .alias
                .clone()
                .or_else(|| expr.as_column_ref().map(|r| r.name.clone()))
                .unwrap_or_else(|| format!("column_{idx}"));
            // An unaliased column passes through as itself — qualifier, type and
            // nullability — which is what a `SELECT *` expansion outputs.
            let passthrough = expr
                .as_column_ref()
                .filter(|_| item.alias.is_none())
                .and_then(|r| input.schema.index_of(r.qualifier.as_deref(), &r.name).ok())
                .and_then(|col| input.schema.column(col));
            columns.push(match passthrough {
                Some(column) => column.clone(),
                None => Column::new(name.clone(), infer_type(expr, &input.schema)),
            });
            exprs.push(OutputExpr {
                expr: expr.clone(),
                name,
            });
        }
        let cost = self
            .config
            .cost_model
            .project(input.cost, input.estimated_rows, exprs.len());
        Ok(PhysicalPlan {
            kind: PlanKind::Project { exprs },
            schema: Schema::new(columns),
            estimated_rows: input.estimated_rows,
            cost,
            rel_set: input.rel_set,
            children: vec![input],
        })
    }
}

/// If a predicate can drive an index lookup, return `(column, lookup, needs_range)`.
fn index_lookup_for(predicate: &Expr) -> Option<(String, IndexLookup, bool)> {
    if let Expr::InList {
        expr,
        list,
        negated: false,
    } = predicate
    {
        let column = expr.as_column_ref()?;
        return Some((column.name.clone(), IndexLookup::InList(list.clone()), false));
    }
    if let Expr::Between {
        expr,
        low,
        high,
        negated: false,
    } = predicate
    {
        let column = expr.as_column_ref()?;
        let low = low.as_literal()?.clone();
        let high = high.as_literal()?.clone();
        return Some((
            column.name.clone(),
            IndexLookup::Range {
                low: Some((low, true)),
                high: Some((high, true)),
            },
            true,
        ));
    }
    let (column, op, value) = as_column_constant_comparison(predicate)?;
    let lookup = match op {
        BinaryOp::Eq => IndexLookup::Equality(value),
        BinaryOp::Lt => IndexLookup::Range {
            low: None,
            high: Some((value, false)),
        },
        BinaryOp::LtEq => IndexLookup::Range {
            low: None,
            high: Some((value, true)),
        },
        BinaryOp::Gt => IndexLookup::Range {
            low: Some((value, false)),
            high: None,
        },
        BinaryOp::GtEq => IndexLookup::Range {
            low: Some((value, true)),
            high: None,
        },
        _ => return None,
    };
    let needs_range = !matches!(lookup, IndexLookup::Equality(_));
    Some((column.name, lookup, needs_range))
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_sql::parse_sql;
    use reopt_storage::{DataType, IndexKind, Row, Table, Value};

    /// A three-table star: title (fact-ish), movie_keyword (bridge), keyword (dimension).
    fn build_env() -> (Storage, Catalog) {
        let mut storage = Storage::new();

        let mut title = Table::new(
            "title",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("production_year", DataType::Int),
            ]),
        );
        for i in 0..2000i64 {
            title
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("movie {i}")),
                    Value::Int(1950 + (i % 70)),
                ]))
                .unwrap();
        }
        title.create_index("title_pkey", "id", IndexKind::BTree).unwrap();

        let mut keyword = Table::new(
            "keyword",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("keyword", DataType::Text),
            ]),
        );
        for i in 0..500i64 {
            keyword
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("keyword-{i}")),
                ]))
                .unwrap();
        }
        keyword
            .create_index("keyword_pkey", "id", IndexKind::BTree)
            .unwrap();

        let mut movie_keyword = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Column::not_null("movie_id", DataType::Int),
                Column::not_null("keyword_id", DataType::Int),
            ]),
        );
        for i in 0..20_000i64 {
            // Keyword 7 is wildly popular (skew).
            let kw = if i % 4 == 0 { 7 } else { i % 500 };
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i % 2000), Value::Int(kw)]))
                .unwrap();
        }
        movie_keyword
            .create_index("mk_movie_id", "movie_id", IndexKind::Hash)
            .unwrap();
        movie_keyword
            .create_index("mk_keyword_id", "keyword_id", IndexKind::Hash)
            .unwrap();

        storage.create_table(title).unwrap();
        storage.create_table(keyword).unwrap();
        storage.create_table(movie_keyword).unwrap();
        let mut catalog = Catalog::new();
        catalog.analyze_all(&storage).unwrap();
        (storage, catalog)
    }

    fn plan(sql: &str, storage: &Storage, catalog: &Catalog) -> PlannedQuery {
        let optimizer = Optimizer::default();
        let statement = parse_sql(sql).unwrap();
        optimizer
            .plan_select(
                statement.query().unwrap(),
                storage,
                catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap()
    }

    #[test]
    fn single_table_scan_with_filter() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT * FROM title AS t WHERE t.production_year > 2000",
            &storage,
            &catalog,
        );
        // `SELECT *` gets an explicit FROM-order projection over the scan (so its
        // column order never depends on the chosen plan).
        assert!(matches!(planned.plan.kind, PlanKind::Project { .. }));
        assert!(planned.plan.children[0].is_scan());
        assert!(planned.plan.estimated_rows > 100.0);
        assert!(planned.plan.estimated_rows < 2000.0);
    }

    #[test]
    fn equality_on_indexed_column_uses_index_scan() {
        let (storage, catalog) = build_env();
        let planned = plan("SELECT * FROM title AS t WHERE t.id = 42", &storage, &catalog);
        assert!(matches!(planned.plan.kind, PlanKind::Project { .. }));
        assert!(matches!(
            planned.plan.children[0].kind,
            PlanKind::IndexScan { .. }
        ));
    }

    #[test]
    fn three_way_join_produces_join_tree() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT min(t.title) AS movie_title
             FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'keyword-7'",
            &storage,
            &catalog,
        );
        // Top is the aggregate, below it a join tree covering all three relations.
        assert!(matches!(planned.plan.kind, PlanKind::Aggregate { .. }));
        let join = &planned.plan.children[0];
        assert!(join.is_join());
        assert_eq!(join.rel_set, RelSet::all(3));
        assert_eq!(planned.plan.join_nodes().len(), 2);
        // The estimation log must contain estimates for singletons, pairs and the triple.
        assert!(planned.estimation_log.count_for_size(1) >= 3);
        assert!(planned.estimation_log.count_for_size(2) >= 1);
        assert_eq!(planned.estimation_log.count_for_size(3), 1);
    }

    #[test]
    fn selective_dimension_prefers_index_nested_loop_or_small_build() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT count(*) AS c
             FROM keyword AS k, movie_keyword AS mk
             WHERE mk.keyword_id = k.id AND k.keyword = 'keyword-3'",
            &storage,
            &catalog,
        );
        let join = &planned.plan.children[0];
        assert!(join.is_join());
        // The keyword side is tiny (1 row); a sensible plan never builds the hash table
        // on the 20 000-row movie_keyword side while probing with 1 row.
        if let PlanKind::HashJoin { .. } = join.kind {
            assert!(join.children[1].estimated_rows <= join.children[0].estimated_rows * 100.0);
        }
    }

    #[test]
    fn overrides_change_the_chosen_plan_shape() {
        let (storage, catalog) = build_env();
        let statement = parse_sql(
            "SELECT count(*) AS c
             FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'keyword-7'",
        )
        .unwrap();
        let optimizer = Optimizer::default();
        let default_plan = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap();
        // Claim the keyword/movie_keyword join is enormous: the optimizer should then
        // prefer to join title with movie_keyword first (or at least produce a different
        // plan or cost).
        let spec = &default_plan.spec;
        let k = spec.relation_by_alias("k").unwrap();
        let mk = spec.relation_by_alias("mk").unwrap();
        let mut overrides = CardinalityOverrides::new();
        overrides.set(RelSet::from_indexes([k, mk]), 5_000_000.0);
        let forced_plan = optimizer
            .plan_select(statement.query().unwrap(), &storage, &catalog, &overrides)
            .unwrap();
        assert!(
            forced_plan.plan.cost.total != default_plan.plan.cost.total
                || forced_plan.plan != default_plan.plan,
            "override had no effect on the plan"
        );
    }

    #[test]
    fn group_by_order_by_limit_plan_shape() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT t.production_year, count(*) AS movies
             FROM title AS t
             GROUP BY t.production_year
             ORDER BY movies DESC
             LIMIT 5",
            &storage,
            &catalog,
        );
        assert!(matches!(planned.plan.kind, PlanKind::Limit { count: 5 }));
        assert!(matches!(planned.plan.children[0].kind, PlanKind::Sort { .. }));
        assert!(matches!(
            planned.plan.children[0].children[0].kind,
            PlanKind::Aggregate { .. }
        ));
    }

    #[test]
    fn projection_of_columns() {
        let (storage, catalog) = build_env();
        let planned = plan(
            "SELECT t.title AS movie, t.production_year FROM title AS t WHERE t.id < 10",
            &storage,
            &catalog,
        );
        assert!(matches!(planned.plan.kind, PlanKind::Project { .. }));
        assert_eq!(planned.plan.schema.len(), 2);
        assert_eq!(planned.plan.schema.column(0).unwrap().name(), "movie");
    }

    #[test]
    fn greedy_threshold_switches_algorithm() {
        let (storage, catalog) = build_env();
        let statement = parse_sql(
            "SELECT count(*) AS c
             FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id",
        )
        .unwrap();
        let config = OptimizerConfig {
            greedy_threshold: 2, // force greedy
            ..Default::default()
        };
        let optimizer = Optimizer::new(config);
        let planned = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap();
        assert_eq!(planned.plan.children[0].rel_set, RelSet::all(3));
    }

    #[test]
    fn disconnected_join_graph_is_rejected() {
        let (storage, catalog) = build_env();
        let statement =
            parse_sql("SELECT count(*) AS c FROM title AS t, keyword AS k").unwrap();
        let optimizer = Optimizer::default();
        let err = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap_err();
        assert_eq!(err, PlanError::DisconnectedJoinGraph);
    }

    #[test]
    fn aggregate_query_with_bad_scalar_rejected() {
        let (storage, catalog) = build_env();
        let statement =
            parse_sql("SELECT t.title, count(*) AS c FROM title AS t").unwrap();
        let optimizer = Optimizer::default();
        let err = optimizer
            .plan_select(
                statement.query().unwrap(),
                &storage,
                &catalog,
                &CardinalityOverrides::new(),
            )
            .unwrap_err();
        assert!(matches!(err, PlanError::Unsupported(_)));
    }

    #[test]
    fn index_lookup_extraction() {
        let eq = Expr::eq(Expr::col("t", "id"), Expr::lit(5));
        let (col, lookup, range) = index_lookup_for(&eq).unwrap();
        assert_eq!(col, "id");
        assert!(matches!(lookup, IndexLookup::Equality(Value::Int(5))));
        assert!(!range);

        let gt = Expr::binary(BinaryOp::Gt, Expr::col("t", "year"), Expr::lit(2000));
        let (_, lookup, range) = index_lookup_for(&gt).unwrap();
        assert!(matches!(lookup, IndexLookup::Range { low: Some(_), high: None }));
        assert!(range);

        let like = Expr::Like {
            expr: Box::new(Expr::col("t", "title")),
            pattern: "%x%".into(),
            negated: false,
        };
        assert!(index_lookup_for(&like).is_none());
    }
}
