//! The engine façade: storage + catalog + optimizer + executor behind a SQL interface.

use crate::error::DbError;
use crate::session::{ServerState, Session};
use reopt_catalog::Catalog;
use reopt_executor::{
    default_thread_count, ExecConfig, Executor, MemoryGovernor, QueryMetrics, DEFAULT_BATCH_SIZE,
    DEFAULT_COLUMNAR,
};
use reopt_planner::{
    explain_plan, CardinalityOverrides, EstimationLog, Optimizer, OptimizerConfig, PhysicalPlan,
    PlannedQuery, QuerySpec,
};
use reopt_sql::{parse_sql, parse_statements, SelectStatement, Statement};
use reopt_storage::{Column, IndexKind, Row, Schema, Storage, Table};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// Output rows (empty for DDL statements).
    pub rows: Vec<Row>,
    /// Output schema.
    pub schema: Schema,
    /// Time spent parsing, binding and optimizing.
    pub planning_time: Duration,
    /// Time spent executing operators.
    pub execution_time: Duration,
    /// Per-operator metrics (EXPLAIN ANALYZE view), when a plan was executed.
    pub metrics: Option<QueryMetrics>,
    /// Peak rows buffered by pipeline breakers during execution (0 when nothing ran).
    pub peak_buffered_rows: u64,
    /// Peak bytes buffered at the same accounting points as
    /// [`QueryOutput::peak_buffered_rows`] ([`reopt_storage::Value::width`] per
    /// buffered value, 8 bytes per buffered index-scan row id).
    pub peak_buffered_bytes: u64,
    /// The executed physical plan, when one was produced.
    pub plan: Option<PhysicalPlan>,
    /// The bound query, when one was produced.
    pub spec: Option<QuerySpec>,
    /// How many cardinality estimates the optimizer requested, by subset size.
    pub estimation_log: EstimationLog,
}

impl QueryOutput {
    /// Planning plus execution time.
    pub fn total_time(&self) -> Duration {
        self.planning_time + self.execution_time
    }

    /// Number of output rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// The database engine: in-memory storage, ANALYZE statistics, the cost-based optimizer
/// (with its cardinality-injection hook) and the instrumented executor.
///
/// Cloning a database is a cheap copy-on-write snapshot: table chunks are
/// `Arc`-shared until written, the feedback cache stays shared (see
/// [`reopt_catalog::Catalog`]), and the [`ServerState`] handle stays shared — which
/// is exactly what [`Database::connect`] relies on to hand out [`Session`]s.
#[derive(Debug, Clone)]
pub struct Database {
    storage: Storage,
    catalog: Catalog,
    optimizer: Optimizer,
    overrides: CardinalityOverrides,
    /// The settings every statement executes with. Its governor — the out-of-core
    /// memory budget breaker sinks reserve against, unlimited by default — is
    /// shared across every clone/session exactly like the admission semaphore
    /// (see [`reopt_executor::MemoryGovernor`]).
    exec: ExecConfig,
    /// Admission control and session ids, shared across every clone/session.
    server: Arc<ServerState>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A database with the default optimizer configuration.
    pub fn new() -> Self {
        Self::with_config(OptimizerConfig::default())
    }

    /// A database with a custom optimizer configuration.
    pub fn with_config(config: OptimizerConfig) -> Self {
        Self {
            storage: Storage::new(),
            catalog: Catalog::new(),
            optimizer: Optimizer::new(config),
            overrides: CardinalityOverrides::new(),
            exec: ExecConfig::default(),
            server: Arc::new(ServerState::new()),
        }
    }

    /// Replace the optimizer configuration (access-path and join-algorithm
    /// toggles) at runtime. Harnesses use this to steer a phase onto a specific
    /// plan family — e.g. disabling index-NL joins so every join carries a hash
    /// build — without rebuilding the database.
    pub fn set_optimizer_config(&mut self, config: OptimizerConfig) {
        self.optimizer = Optimizer::new(config);
    }

    /// Open a [`Session`]: a copy-on-write snapshot of this database sharing its
    /// admission semaphore and feedback cache. Each client thread gets its own
    /// session; their queries multiplex over the process-wide worker pool.
    pub fn connect(&self) -> Session {
        Session::new(self.clone(), Arc::clone(&self.server))
    }

    /// The shared server state (admission counters, session ids).
    pub fn server(&self) -> &Arc<ServerState> {
        &self.server
    }

    /// Change the admission cap inside the shared [`ServerState`] (default
    /// [`DEFAULT_MAX_INFLIGHT`](crate::DEFAULT_MAX_INFLIGHT)): every session
    /// connected to this database — before or after this call — enforces the new
    /// cap against the same inflight counter.
    pub fn set_max_inflight(&mut self, max_inflight: usize) {
        self.server.set_max_inflight(max_inflight);
    }

    /// The shared memory governor breaker sinks reserve against (out-of-core
    /// execution's byte budget).
    pub fn governor(&self) -> &Arc<MemoryGovernor> {
        &self.exec.governor
    }

    /// Change the memory budget inside the shared governor (`None` = unlimited,
    /// the default): every session connected to this database — before or after
    /// this call — reserves against the same counters, exactly like
    /// [`Database::set_max_inflight`].
    pub fn set_mem_budget(&mut self, budget: Option<u64>) {
        self.exec.governor.set_budget(budget);
    }

    /// The current memory budget in bytes, or `None` when unlimited.
    pub fn mem_budget(&self) -> Option<u64> {
        self.exec.governor.budget()
    }

    /// The scheduling priority queries register with on the shared worker pool.
    pub fn priority(&self) -> u8 {
        self.exec.priority
    }

    /// Set the scheduling priority for subsequent queries (higher runs first,
    /// equal priorities round-robin at morsel granularity).
    pub fn set_priority(&mut self, priority: u8) {
        self.exec.priority = priority;
    }

    /// Pin the executor worker count for every statement this database runs (`1`
    /// runs every pipeline on the coordinator's inline worker, without the worker
    /// pool; more runs pipelines of at least two morsels on the pool, and every
    /// other pipeline on the inline worker as at `1`). `None` restores the default:
    /// the machine's available parallelism
    /// ([`reopt_executor::default_thread_count`]).
    pub fn set_threads(&mut self, threads: Option<usize>) {
        self.exec.threads = threads.map_or_else(default_thread_count, |t| t.max(1));
    }

    /// The executor worker-pool size every statement runs with.
    pub fn threads(&self) -> usize {
        self.exec.threads
    }

    /// Pin whether scans use the vectorized columnar path (`false` = always decode
    /// row-wise at the scan, the pre-columnar engine). `None` restores
    /// [`reopt_executor::DEFAULT_COLUMNAR`] (on).
    pub fn set_columnar(&mut self, columnar: Option<bool>) {
        self.exec.columnar = columnar.unwrap_or(DEFAULT_COLUMNAR);
    }

    /// Whether scans use the vectorized columnar path.
    pub fn columnar(&self) -> bool {
        self.exec.columnar
    }

    /// Pin the executor row-batch size (`None` restores
    /// [`reopt_executor::DEFAULT_BATCH_SIZE`]). Morsel size is a fixed multiple of
    /// the batch size, so tests and benchmarks shrink this to make small datasets
    /// split into enough morsels for real pool parallelism.
    pub fn set_batch_size(&mut self, batch_size: Option<usize>) {
        self.exec.batch_size = batch_size.map_or(DEFAULT_BATCH_SIZE, |b| b.max(1));
    }

    /// The executor row-batch size every statement runs with.
    pub fn batch_size(&self) -> usize {
        self.exec.batch_size
    }

    /// An executor over this database's storage with its settings: the one place
    /// database state becomes an [`Executor`] (plain statements and every
    /// re-optimization round alike).
    pub fn executor(&self) -> Executor<'_> {
        Executor::with_config(&self.storage, self.exec.clone())
    }

    /// Shared access to storage.
    pub fn storage(&self) -> &Storage {
        &self.storage
    }

    /// Mutable access to storage (used by data generators to bulk-load tables).
    pub fn storage_mut(&mut self) -> &mut Storage {
        &mut self.storage
    }

    /// Shared access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable access to the catalog.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// The session-level cardinality overrides consulted by every subsequent `plan` /
    /// `execute` call. The perfect-(n) oracle and the selective-improvement simulator
    /// write into this table.
    pub fn overrides(&self) -> &CardinalityOverrides {
        &self.overrides
    }

    /// Mutable access to the session-level overrides.
    pub fn overrides_mut(&mut self) -> &mut CardinalityOverrides {
        &mut self.overrides
    }

    /// Replace the session-level overrides.
    pub fn set_overrides(&mut self, overrides: CardinalityOverrides) {
        self.overrides = overrides;
    }

    /// Remove all session-level overrides (back to the default estimator).
    pub fn clear_overrides(&mut self) {
        self.overrides = CardinalityOverrides::new();
    }

    /// Register a table.
    pub fn create_table(&mut self, table: Table) -> Result<(), DbError> {
        self.storage.create_table(table)?;
        Ok(())
    }

    /// Create an index on an existing table.
    pub fn create_index(
        &mut self,
        table: &str,
        column: &str,
        kind: IndexKind,
    ) -> Result<(), DbError> {
        let index_name = format!("{table}_{column}_{:?}", kind).to_ascii_lowercase();
        self.storage
            .table_mut(table)?
            .create_index(index_name, column, kind)?;
        Ok(())
    }

    /// Run ANALYZE over one table.
    pub fn analyze(&mut self, table: &str) -> Result<(), DbError> {
        self.catalog.analyze(&self.storage, table)?;
        Ok(())
    }

    /// Run ANALYZE over every table.
    pub fn analyze_all(&mut self) -> Result<(), DbError> {
        self.catalog.analyze_all(&self.storage)?;
        Ok(())
    }

    /// Plan a SELECT statement, returning the plan and the planning time.
    pub fn plan_select(
        &self,
        statement: &SelectStatement,
    ) -> Result<(PlannedQuery, Duration), DbError> {
        let start = Instant::now();
        let planned = self.optimizer.plan_select(
            statement,
            &self.storage,
            &self.catalog,
            &self.overrides,
        )?;
        Ok((planned, start.elapsed()))
    }

    /// Plan an already-bound query (e.g. a collapsed spec produced by
    /// [`reopt_planner::collapse_spec`]) with extra overrides merged on top of the
    /// session ones. The re-optimization driver plans every round this way: after
    /// the first bind its query exists only as a spec. The returned duration includes
    /// the merge.
    pub fn plan_bound_with_overrides(
        &self,
        spec: QuerySpec,
        extra: &CardinalityOverrides,
    ) -> Result<(PlannedQuery, Duration), DbError> {
        let start = Instant::now();
        let mut merged = self.overrides.clone();
        merged.merge(extra);
        let planned = self
            .optimizer
            .plan_spec(spec, &self.storage, &self.catalog, &merged)?;
        Ok((planned, start.elapsed()))
    }

    /// Register already-materialized rows as a temporary table and ANALYZE it, so the
    /// next planning round sees its true cardinality. The schema may carry qualified
    /// column names (the re-optimization driver registers a subset's rows — executed
    /// from its restriction or reused from a breaker — under their original relation
    /// aliases). Dropped by [`Database::drop_temporary_tables`] like every other
    /// temporary table.
    pub fn register_materialized_table(
        &mut self,
        name: &str,
        schema: Schema,
        rows: Vec<Row>,
    ) -> Result<(), DbError> {
        let mut table = Table::with_rows(name, schema, rows);
        table.set_temporary(true);
        self.storage.create_or_replace_table(table);
        self.catalog.analyze(&self.storage, name)?;
        Ok(())
    }

    /// Append rows to an existing table. Cached cardinality feedback that references
    /// the table is invalidated immediately — the observed counts no longer describe
    /// the data — while statistics stay as they are until the next ANALYZE (matching
    /// how a real system's stats go stale between ANALYZE runs).
    pub fn ingest_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<(), DbError> {
        let target = self.storage.table_mut(table)?;
        for row in rows {
            target.push_row(row)?;
        }
        self.catalog.feedback_mut().invalidate_table(table);
        Ok(())
    }

    /// Parse and execute a single SQL statement.
    ///
    /// # Examples
    ///
    /// ```
    /// use reopt_core::Database;
    /// use reopt_storage::{Column, DataType, Row, Schema, Table, Value};
    ///
    /// let mut db = Database::new();
    /// let mut movies = Table::new(
    ///     "movies",
    ///     Schema::new(vec![
    ///         Column::not_null("id", DataType::Int),
    ///         Column::new("year", DataType::Int),
    ///     ]),
    /// );
    /// for i in 0..10i64 {
    ///     movies
    ///         .push_row(Row::from_values(vec![i.into(), (2000 + i).into()]))
    ///         .unwrap();
    /// }
    /// db.create_table(movies).unwrap();
    /// db.analyze_all().unwrap();
    ///
    /// let output = db
    ///     .execute("SELECT count(*) AS c FROM movies AS m WHERE m.year >= 2005")
    ///     .unwrap();
    /// assert_eq!(output.rows[0].value(0), &Value::Int(5));
    /// assert!(output.metrics.is_some()); // EXPLAIN ANALYZE style metrics come free
    /// ```
    pub fn execute(&mut self, sql: &str) -> Result<QueryOutput, DbError> {
        let statement = parse_sql(sql)?;
        self.execute_statement(&statement)
    }

    /// Parse and execute a semicolon-separated script, returning the output of every
    /// statement (the paper's re-optimized queries are exactly such scripts: a series of
    /// `CREATE TEMP TABLE` statements followed by a final `SELECT`).
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryOutput>, DbError> {
        let statements = parse_statements(sql)?;
        statements
            .iter()
            .map(|statement| self.execute_statement(statement))
            .collect()
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, statement: &Statement) -> Result<QueryOutput, DbError> {
        match statement {
            Statement::Select(select) => self.execute_select(select),
            Statement::CreateTableAs {
                name,
                temporary,
                query,
            } => self.create_table_as(name, *temporary, query),
            Statement::Explain {
                analyze,
                statement,
            } => {
                let select = statement
                    .query()
                    .ok_or_else(|| DbError::Reoptimization("EXPLAIN needs a query".into()))?;
                let text = if *analyze {
                    self.explain_analyze_select(select)?
                } else {
                    self.explain_select(select)?
                };
                // EXPLAIN output is returned as a single text column.
                let schema = Schema::new(vec![Column::new("query plan", reopt_storage::DataType::Text)]);
                let rows = text
                    .lines()
                    .map(|line| Row::from_values(vec![line.into()]))
                    .collect();
                Ok(QueryOutput {
                    rows,
                    schema,
                    planning_time: Duration::ZERO,
                    execution_time: Duration::ZERO,
                    metrics: None,
                    peak_buffered_rows: 0,
                    peak_buffered_bytes: 0,
                    plan: None,
                    spec: None,
                    estimation_log: EstimationLog::default(),
                })
            }
        }
    }

    /// Execute a SELECT statement.
    pub fn execute_select(&mut self, select: &SelectStatement) -> Result<QueryOutput, DbError> {
        let (planned, planning_time) = self.plan_select(select)?;
        self.execute_planned(planned, planning_time)
    }

    /// Plan an already-bound query with the session overrides and execute it (the
    /// re-optimization driver materializes a subset's restriction this way, and the
    /// perfect-(n) oracle counts one).
    pub fn execute_bound(&self, spec: QuerySpec) -> Result<QueryOutput, DbError> {
        let (planned, planning_time) =
            self.plan_bound_with_overrides(spec, &CardinalityOverrides::new())?;
        self.execute_planned(planned, planning_time)
    }

    fn execute_planned(
        &self,
        planned: PlannedQuery,
        planning_time: Duration,
    ) -> Result<QueryOutput, DbError> {
        let result = self.executor().execute(&planned.plan)?;
        Ok(QueryOutput {
            rows: result.rows,
            schema: result.schema,
            planning_time,
            execution_time: result.metrics.execution_time,
            metrics: Some(result.metrics),
            peak_buffered_rows: result.peak_buffered_rows,
            peak_buffered_bytes: result.peak_buffered_bytes,
            plan: Some(planned.plan),
            spec: Some(planned.spec),
            estimation_log: planned.estimation_log,
        })
    }

    /// `CREATE [TEMP] TABLE name AS SELECT ...`: execute the query and materialize its
    /// result as a new table, then ANALYZE it so subsequent planning sees accurate
    /// statistics (the whole point of the paper's materialize-and-replan scheme).
    pub fn create_table_as(
        &mut self,
        name: &str,
        temporary: bool,
        query: &SelectStatement,
    ) -> Result<QueryOutput, DbError> {
        let mut output = self.execute_select(query)?;
        let schema = materialized_schema(&output.schema);
        let mut table = Table::new(name, schema);
        table.set_temporary(temporary);
        for row in std::mem::take(&mut output.rows) {
            table.push_row_unchecked(row);
        }
        self.storage.create_or_replace_table(table);
        self.catalog.analyze(&self.storage, name)?;
        Ok(QueryOutput {
            rows: Vec::new(),
            ..output
        })
    }

    /// EXPLAIN: the chosen plan with estimated rows and costs.
    pub fn explain(&self, sql: &str) -> Result<String, DbError> {
        let statement = parse_sql(sql)?;
        let select = statement
            .query()
            .ok_or_else(|| DbError::Reoptimization("EXPLAIN needs a query".into()))?;
        self.explain_select(select)
    }

    fn explain_select(&self, select: &SelectStatement) -> Result<String, DbError> {
        let (planned, _) = self.plan_select(select)?;
        Ok(explain_plan(&planned.plan))
    }

    /// EXPLAIN ANALYZE: execute the query and render per-operator estimated vs. actual
    /// cardinalities — the view the paper's simulation consumes.
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String, DbError> {
        let statement = parse_sql(sql)?;
        let select = statement
            .query()
            .ok_or_else(|| DbError::Reoptimization("EXPLAIN needs a query".into()))?;
        self.explain_analyze_select(select)
    }

    fn explain_analyze_select(&mut self, select: &SelectStatement) -> Result<String, DbError> {
        let output = self.execute_select(select)?;
        let metrics = output.metrics.expect("select produces metrics");
        let mut text = metrics.root.render();
        // Spill totals render only when a finite budget actually forced a breaker
        // out of core; the unlimited default stays byte-identical.
        let (spilled_bytes, spill_partitions) = metrics.root.total_spilled();
        if spilled_bytes > 0 || spill_partitions > 0 {
            text.push_str(&format!(
                "Spilled: {spilled_bytes} bytes in {spill_partitions} partitions\n"
            ));
        }
        text.push_str(&format!(
            "Peak Buffered: {} rows ({} bytes)\nPlanning Time: {:.3} ms\nExecution Time: {:.3} ms\n",
            output.peak_buffered_rows,
            output.peak_buffered_bytes,
            output.planning_time.as_secs_f64() * 1e3,
            output.execution_time.as_secs_f64() * 1e3
        ));
        Ok(text)
    }

    /// Run a query under an arbitrary re-optimization policy: the new entry point of
    /// the unified control plane. Equivalent to
    /// [`execute_with_policy`](crate::reopt::execute_with_policy); the paper's three
    /// modes remain reachable through
    /// [`execute_with_reoptimization`](crate::execute_with_reoptimization) /
    /// [`ReoptConfig::policy`](crate::ReoptConfig::policy). See
    /// [`crate::policy`] for the decision semantics and a minimal policy
    /// implementation.
    pub fn execute_with_policy(
        &mut self,
        sql: &str,
        policy: &mut dyn crate::policy::ReoptPolicy,
    ) -> Result<crate::reopt::ReoptReport, DbError> {
        crate::reopt::execute_with_policy(self, sql, policy)
    }

    /// Drop every temporary table (created by re-optimization) and its statistics.
    pub fn drop_temporary_tables(&mut self) {
        for name in self.storage.drop_temporary_tables() {
            self.catalog.remove_statistics(&name);
        }
    }

    /// Drop specific tables (and their statistics), ignoring names that no longer
    /// exist. The policy driver uses this to clean up exactly the temporary tables
    /// *it* created, leaving any user-created session temp tables alone.
    pub fn drop_tables(&mut self, names: &[String]) {
        for name in names {
            if self.storage.drop_table(name).is_ok() {
                self.catalog.remove_statistics(name);
            }
        }
    }
}

/// Build the schema of a materialized table from a query output schema: qualifiers are
/// folded into the column names where needed so every column name is unique and
/// unqualified.
fn materialized_schema(output: &Schema) -> Schema {
    let mut names = std::collections::HashSet::new();
    let mut columns = Vec::with_capacity(output.len());
    for column in output.columns() {
        let mut name = column.name().to_string();
        if !names.insert(name.clone()) {
            name = match column.qualifier() {
                Some(qualifier) => format!("{qualifier}_{}", column.name()),
                None => format!("{}_{}", column.name(), names.len()),
            };
            names.insert(name.clone());
        }
        columns.push(Column::new(name, column.data_type()));
    }
    Schema::new(columns)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use reopt_storage::{DataType, Value};

    /// A tiny movies/keywords database used across the core tests.
    pub(crate) fn test_database() -> Database {
        test_database_with_config(OptimizerConfig::default())
    }

    /// The same database with a custom optimizer configuration (used by tests that
    /// need a deterministic plan shape, e.g. hash joins only).
    pub(crate) fn test_database_with_config(config: OptimizerConfig) -> Database {
        let mut db = Database::with_config(config);

        let mut title = Table::new(
            "title",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("production_year", DataType::Int),
            ]),
        );
        for i in 0..300i64 {
            title
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("movie {i:04}")),
                    Value::Int(1980 + (i % 40)),
                ]))
                .unwrap();
        }

        let mut keyword = Table::new(
            "keyword",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("keyword", DataType::Text),
            ]),
        );
        for i in 0..50i64 {
            keyword
                .push_row(Row::from_values(vec![
                    Value::Int(i),
                    Value::from(format!("kw{i}")),
                ]))
                .unwrap();
        }

        let mut movie_keyword = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Column::not_null("movie_id", DataType::Int),
                Column::not_null("keyword_id", DataType::Int),
            ]),
        );
        // Keyword 0 is attached to every movie (skew); other keywords are sparse.
        for i in 0..300i64 {
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int(0)]))
                .unwrap();
            movie_keyword
                .push_row(Row::from_values(vec![Value::Int(i), Value::Int(1 + (i % 49))]))
                .unwrap();
        }

        db.create_table(title).unwrap();
        db.create_table(keyword).unwrap();
        db.create_table(movie_keyword).unwrap();
        db.create_index("title", "id", IndexKind::BTree).unwrap();
        db.create_index("movie_keyword", "movie_id", IndexKind::Hash)
            .unwrap();
        db.create_index("movie_keyword", "keyword_id", IndexKind::Hash)
            .unwrap();
        db.create_index("keyword", "id", IndexKind::Hash).unwrap();
        db.analyze_all().unwrap();
        db
    }

    #[test]
    fn ingested_rows_reach_int_indexes_for_joins_and_range_scans() {
        use reopt_planner::plan::IndexLookup;
        use reopt_planner::{PhysicalPlan, PlanKind};
        let mut db = test_database_with_config(OptimizerConfig {
            enable_hash_joins: false,
            ..OptimizerConfig::default()
        });
        // Appends after the index build: ids past the end and below the start, a
        // repeated id, and keyword 7 attached to them.
        let title = |id: i64, year: i64| {
            Row::from_values(vec![
                Value::Int(id),
                Value::from(format!("late {id}")),
                Value::Int(year),
            ])
        };
        db.ingest_rows("title", vec![title(1000, 2030), title(-5, 1970), title(150, 2001)])
            .unwrap();
        let pairs = [(1000, 7), (-5, 7), (150, 7), (1000, 0), (2000, 7)];
        let links = pairs
            .iter()
            .map(|&(m, k)| Row::from_values(vec![Value::Int(m), Value::Int(k)]))
            .collect();
        db.ingest_rows("movie_keyword", links).unwrap();
        for table in db.storage().tables() {
            for index in table.indexes() {
                assert!(index.is_int_keyed(), "{}: {}", table.name(), index.name());
            }
        }

        // An index-NL join through the appended keys, against brute force.
        let sql = "SELECT count(*) AS c, min(t.title) AS m FROM title AS t, movie_keyword AS mk
                   WHERE t.id = mk.movie_id AND mk.keyword_id = 7";
        let statement = parse_sql(sql).unwrap();
        let (planned, _) = db.plan_select(statement.query().unwrap()).unwrap();
        let mut index_nl = 0;
        planned.plan.walk(&mut |node| {
            index_nl += usize::from(matches!(node.kind, PlanKind::IndexNestedLoopJoin { .. }));
        });
        assert_eq!(index_nl, 1, "{}", db.explain(sql).unwrap());
        let titles = db.storage().table("title").unwrap().to_rows();
        let links = db.storage().table("movie_keyword").unwrap().to_rows();
        let mut count = 0i64;
        let mut min: Option<Value> = None;
        for t in &titles {
            for mk in &links {
                if t.value(0) == mk.value(0) && mk.value(1) == &Value::Int(7) {
                    count += 1;
                    if min.as_ref().map_or(true, |m| t.value(1) < m) {
                        min = Some(t.value(1).clone());
                    }
                }
            }
        }
        let output = db.execute(sql).unwrap();
        assert_eq!(output.rows[0].values(), &[Value::Int(count), min.unwrap()]);

        // Index range scans over `title.id` with int, float and text bounds.
        let id_schema = Schema::new(vec![Column::new("id", DataType::Int).with_qualifier("t")]);
        let bound = |b: Option<(Value, bool)>, low: bool| {
            move |v: &Value| match &b {
                None => true,
                Some((b, inclusive)) => match (v.total_cmp(b), low) {
                    (std::cmp::Ordering::Equal, _) => *inclusive,
                    (order, true) => order == std::cmp::Ordering::Greater,
                    (order, false) => order == std::cmp::Ordering::Less,
                },
            }
        };
        let ranges = [
            (Some((Value::Int(100), true)), Some((Value::Int(103), false))),
            (Some((Value::Float(2.5), false)), Some((Value::Float(7.5), true))),
            (Some((Value::Float(-10.0), true)), Some((Value::Int(3), true))),
            (Some((Value::Int(1000), true)), Some((Value::Float(1000.0), true))),
            (Some((Value::Float(149.5), true)), Some((Value::Float(150.0), true))),
            (Some((Value::from("a"), true)), None),
            (None, Some((Value::from("a"), false))),
            (Some((Value::Int(290), false)), None),
        ];
        for (low, high) in ranges {
            let plan = PhysicalPlan {
                kind: PlanKind::IndexScan {
                    rel: 0,
                    alias: "t".into(),
                    table: "title".into(),
                    column: "id".into(),
                    lookup: IndexLookup::Range {
                        low: low.clone(),
                        high: high.clone(),
                    },
                    residual: None,
                },
                children: Vec::new(),
                schema: id_schema.clone(),
                estimated_rows: 1.0,
                cost: reopt_planner::cost::Cost::ZERO,
                rel_set: reopt_planner::RelSet::from_indexes([0]),
            };
            let (above, below) = (bound(low.clone(), true), bound(high.clone(), false));
            let expected: Vec<Row> = titles
                .iter()
                .filter(|t| above(t.value(0)) && below(t.value(0)))
                .map(|t| Row::from_values(vec![t.value(0).clone()]))
                .collect();
            for threads in [1, 2] {
                let result = reopt_executor::Executor::new(db.storage())
                    .with_threads(threads)
                    .execute(&plan)
                    .unwrap();
                assert_eq!(result.rows, expected, "{low:?} .. {high:?} at {threads} thread(s)");
            }
        }
    }

    #[test]
    fn execute_select_returns_rows_and_timings() {
        let mut db = test_database();
        let output = db
            .execute("SELECT count(*) AS c FROM title AS t WHERE t.production_year >= 2000")
            .unwrap();
        assert_eq!(output.row_count(), 1);
        // Years 2000..=2019 → i%40 in 20..40 → 20 values, 7 or 8 movies each.
        let count = output.rows[0].value(0).as_int().unwrap();
        assert!(count > 100 && count < 200, "count {count}");
        assert!(output.plan.is_some());
        assert!(output.metrics.is_some());
        assert!(output.total_time() >= output.execution_time);
    }

    #[test]
    fn planning_time_covers_the_override_merge() {
        let db = test_database();
        let statement = parse_sql("SELECT count(*) AS c FROM title AS t").unwrap();
        let select = statement.query().unwrap();
        // Perfect-(n)-sized extra overrides: merging them dwarfs planning one scan, so
        // a clock started after the merge would report a small share of the call.
        let mut extra = CardinalityOverrides::new();
        for mask in 1..200_000u64 {
            extra.set(reopt_planner::RelSet::from_mask(mask << 1), mask as f64);
        }
        let spec = reopt_planner::bind_select(select, db.storage()).unwrap();
        let start = Instant::now();
        let planning = db.plan_bound_with_overrides(spec, &extra).unwrap().1;
        let call = start.elapsed();
        assert!(planning * 2 >= call, "planning {planning:?} of a {call:?} call");
    }

    #[test]
    fn execute_join_query() {
        let mut db = test_database();
        let output = db
            .execute(
                "SELECT count(*) AS c
                 FROM title AS t, movie_keyword AS mk, keyword AS k
                 WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND k.keyword = 'kw0'",
            )
            .unwrap();
        assert_eq!(output.rows[0].value(0), &Value::Int(300));
        assert!(output.estimation_log.total() > 3);
    }

    #[test]
    fn create_temp_table_as_and_query_it() {
        let mut db = test_database();
        let outputs = db
            .execute_script(
                "CREATE TEMP TABLE temp1 AS
                   SELECT mk.movie_id AS mk_movie_id
                   FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0';
                 SELECT count(*) AS c
                   FROM title AS t, temp1
                   WHERE t.id = temp1.mk_movie_id;",
            )
            .unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(outputs[1].rows[0].value(0), &Value::Int(300));
        // Temporary table exists and has statistics until dropped.
        assert!(db.storage().contains_table("temp1"));
        assert!(db.catalog().has_statistics("temp1"));
        db.drop_temporary_tables();
        assert!(!db.storage().contains_table("temp1"));
        assert!(!db.catalog().has_statistics("temp1"));
    }

    #[test]
    fn explain_and_explain_analyze() {
        let mut db = test_database();
        let sql = "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0'";
        let plain = db.explain(sql).unwrap();
        assert!(plain.contains("Join"));
        assert!(plain.contains("rows="));
        let analyzed = db.explain_analyze(sql).unwrap();
        assert!(analyzed.contains("actual rows=300"));
        assert!(analyzed.contains("Execution Time"));
        // The columnar engine labels every scan's encoding and the buffered-state
        // line carries the byte high-water mark alongside the row count.
        assert!(analyzed.contains("encoding="), "{analyzed}");
        assert!(analyzed.contains("Peak Buffered:"), "{analyzed}");
        assert!(analyzed.contains("bytes)"), "{analyzed}");
        // EXPLAIN through the statement API returns one row per line.
        let output = db.execute(&format!("EXPLAIN {sql}")).unwrap();
        assert!(output.row_count() > 1);
    }

    #[test]
    fn columnar_kill_switch_matches_and_reports_encoding() {
        let mut db = test_database();
        let sql = "SELECT count(*) AS c
                   FROM movie_keyword AS mk, keyword AS k
                   WHERE mk.keyword_id = k.id AND k.keyword = 'kw0'";

        db.set_columnar(Some(true));
        let columnar = db.execute(sql).unwrap();
        assert!(
            columnar.peak_buffered_bytes > 0,
            "breakers must report buffered bytes"
        );
        let analyzed = db.explain_analyze(sql).unwrap();
        // `k.keyword = 'kw0'` vectorizes over the dictionary codes.
        assert!(analyzed.contains("encoding=dictionary"), "{analyzed}");

        db.set_columnar(Some(false));
        assert!(!db.columnar());
        let row_engine = db.execute(sql).unwrap();
        let analyzed = db.explain_analyze(sql).unwrap();
        assert!(analyzed.contains("encoding=row"), "{analyzed}");
        db.set_columnar(None);

        assert_eq!(columnar.rows, row_engine.rows);
        // Identical buffered state: both engines charge the same breakers.
        assert_eq!(columnar.peak_buffered_rows, row_engine.peak_buffered_rows);
        assert_eq!(columnar.peak_buffered_bytes, row_engine.peak_buffered_bytes);
    }

    #[test]
    fn overrides_are_session_scoped() {
        let mut db = test_database();
        let statement = parse_sql(
            "SELECT count(*) AS c FROM movie_keyword AS mk, keyword AS k WHERE mk.keyword_id = k.id",
        )
        .unwrap();
        let select = statement.query().unwrap().clone();
        let (default_plan, _) = db.plan_select(&select).unwrap();
        let mut overrides = CardinalityOverrides::new();
        overrides.set(reopt_planner::RelSet::from_indexes([0, 1]), 1.0);
        db.set_overrides(overrides);
        let (overridden_plan, _) = db.plan_select(&select).unwrap();
        assert!(overridden_plan.plan.children[0].estimated_rows < default_plan.plan.children[0].estimated_rows);
        db.clear_overrides();
        assert!(db.overrides().is_empty());
    }

    #[test]
    fn errors_are_propagated() {
        let mut db = test_database();
        assert!(matches!(db.execute("SELEKT 1"), Err(DbError::Parse(_))));
        assert!(matches!(
            db.execute("SELECT * FROM missing AS m"),
            Err(DbError::Plan(_))
        ));
        assert!(db.create_index("missing", "id", IndexKind::Hash).is_err());
        assert!(db.analyze("missing").is_err());
    }

    #[test]
    fn materialized_schema_deduplicates_names() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).with_qualifier("a"),
            Column::new("id", DataType::Int).with_qualifier("b"),
            Column::new("name", DataType::Text),
        ]);
        let result = materialized_schema(&schema);
        assert_eq!(result.column(0).unwrap().name(), "id");
        assert_eq!(result.column(1).unwrap().name(), "b_id");
        assert_eq!(result.column(2).unwrap().name(), "name");
        assert!(result.column(0).unwrap().qualifier().is_none());
    }
}
