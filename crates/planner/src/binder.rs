//! Binding: turn a parsed [`SelectStatement`] into a [`QuerySpec`].
//!
//! Binding resolves every table against storage, qualifies every column reference with
//! its relation alias, classifies WHERE-clause conjuncts into per-relation filters,
//! equi-join edges and residual ("complex") predicates, and validates the SELECT list.

use crate::error::PlanError;
use crate::spec::{JoinEdge, QuerySpec, RelationSpec};
use reopt_expr::{as_equi_join, split_conjunction, ColumnRef, Expr};
use reopt_sql::{SelectExpr, SelectStatement};
use reopt_storage::{Schema, Storage};
use std::collections::HashSet;

/// Bind a SELECT statement against the current storage.
pub fn bind_select(stmt: &SelectStatement, storage: &Storage) -> Result<QuerySpec, PlanError> {
    if stmt.from.is_empty() {
        return Err(PlanError::Unsupported("FROM list is empty".into()));
    }
    if stmt.from.len() > 64 {
        return Err(PlanError::TooManyRelations(stmt.from.len()));
    }

    // Resolve relations and detect duplicate aliases.
    let mut relations = Vec::with_capacity(stmt.from.len());
    let mut seen_aliases = HashSet::new();
    for (index, table_ref) in stmt.from.iter().enumerate() {
        let alias = table_ref.alias.to_ascii_lowercase();
        if !seen_aliases.insert(alias.clone()) {
            return Err(PlanError::DuplicateAlias(alias));
        }
        let table = storage
            .table(&table_ref.table)
            .map_err(|_| PlanError::UnknownTable(table_ref.table.clone()))?;
        relations.push(RelationSpec {
            index,
            alias: alias.clone(),
            table: table.name().to_string(),
            schema: table.schema().qualified(&alias),
        });
    }

    // The full schema of the joined relations, used to validate and qualify references.
    let mut full_schema = Schema::empty();
    for relation in &relations {
        full_schema = full_schema.join(&relation.schema);
    }

    let mut spec = QuerySpec {
        local_predicates: vec![Vec::new(); relations.len()],
        relations,
        join_edges: Vec::new(),
        complex_predicates: Vec::new(),
        output: stmt.items.clone(),
        group_by: Vec::new(),
        order_by: Vec::new(),
        limit: stmt.limit,
    };

    // Classify WHERE conjuncts.
    if let Some(where_clause) = &stmt.where_clause {
        let qualified = qualify_expr(where_clause, &full_schema)?;
        for conjunct in split_conjunction(&qualified) {
            classify_conjunct(conjunct, &mut spec, &full_schema)?;
        }
    }

    // Validate and qualify the SELECT list, GROUP BY and ORDER BY. `*` expands here,
    // once, into one column item per column in FROM order, so no later layer sees a
    // wildcard and the chosen join order never leaks into the output's column order.
    let mut output = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        let expr = match &item.expr {
            SelectExpr::Wildcard => {
                output.extend(spec.relations.iter().flat_map(|relation| {
                    relation.schema.columns().iter().map(|column| reopt_sql::SelectItem {
                        expr: SelectExpr::Scalar(Expr::Column(ColumnRef::qualified(
                            relation.alias.as_str(),
                            column.name(),
                        ))),
                        alias: None,
                    })
                }));
                continue;
            }
            SelectExpr::Scalar(e) => SelectExpr::Scalar(qualify_expr(e, &full_schema)?),
            SelectExpr::Aggregate { func, arg } => SelectExpr::Aggregate {
                func: *func,
                arg: match arg {
                    Some(e) => Some(qualify_expr(e, &full_schema)?),
                    None => None,
                },
            },
        };
        output.push(reopt_sql::SelectItem {
            expr,
            alias: item.alias.clone(),
        });
    }
    spec.output = output;
    spec.group_by = stmt
        .group_by
        .iter()
        .map(|e| qualify_expr(e, &full_schema))
        .collect::<Result<Vec<_>, _>>()?;
    spec.order_by = stmt
        .order_by
        .iter()
        .map(|o| {
            // ORDER BY may reference a SELECT-list output alias (e.g. `ORDER BY movies`
            // for `count(*) AS movies`); such references are left untouched and bound
            // later against the projection/aggregation output schema.
            let is_output_alias = o
                .expr
                .as_column_ref()
                .filter(|r| r.qualifier.is_none())
                .map(|r| {
                    stmt.items
                        .iter()
                        .any(|item| item.alias.as_deref() == Some(r.name.as_str()))
                })
                .unwrap_or(false);
            let expr = if is_output_alias {
                o.expr.clone()
            } else {
                qualify_expr(&o.expr, &full_schema)?
            };
            Ok(reopt_sql::OrderByItem {
                expr,
                ascending: o.ascending,
            })
        })
        .collect::<Result<Vec<_>, PlanError>>()?;

    let wildcard = stmt
        .items
        .iter()
        .any(|item| matches!(item.expr, SelectExpr::Wildcard));
    let aggregates = stmt
        .items
        .iter()
        .any(|item| matches!(item.expr, SelectExpr::Aggregate { .. }));
    if wildcard && (aggregates || !spec.group_by.is_empty()) {
        return Err(PlanError::Unsupported(
            "SELECT * cannot be combined with aggregates".into(),
        ));
    }
    Ok(spec)
}

/// Validate every column reference against the joined schema and rewrite unqualified
/// references into qualified ones (so that downstream relation-set computation can rely
/// on qualifiers alone).
fn qualify_expr(expr: &Expr, full_schema: &Schema) -> Result<Expr, PlanError> {
    // First validate: binding errors give precise unknown/ambiguous messages.
    expr.bind(full_schema)
        .map_err(|e| PlanError::UnknownColumn(e.to_string()))?;
    Ok(expr.map_column_refs(&|reference| {
        if reference.qualifier.is_some() {
            return reference.clone();
        }
        match full_schema.index_of(None, &reference.name) {
            Ok(idx) => {
                let column = full_schema.column(idx).expect("index valid");
                match column.qualifier() {
                    Some(q) => ColumnRef::qualified(q, column.name()),
                    None => reference.clone(),
                }
            }
            Err(_) => reference.clone(),
        }
    }))
}

/// Attach one conjunct to the right place in the spec.
fn classify_conjunct(
    conjunct: Expr,
    spec: &mut QuerySpec,
    full_schema: &Schema,
) -> Result<(), PlanError> {
    // Equi-join between two different relations?
    if let Some((left, right)) = as_equi_join(&conjunct) {
        let left_rel = resolve_rel(&left, spec, full_schema)?;
        let right_rel = resolve_rel(&right, spec, full_schema)?;
        if left_rel != right_rel {
            spec.join_edges.push(JoinEdge {
                left_rel,
                left_column: left,
                right_rel,
                right_column: right,
            });
            return Ok(());
        }
    }

    let rel_set = spec.rel_set_of(&conjunct);
    match rel_set.len() {
        0 => {
            // A constant predicate; attach to relation 0 so it is still evaluated.
            spec.local_predicates[0].push(conjunct);
        }
        1 => {
            let rel = rel_set.min_index().expect("non-empty");
            spec.local_predicates[rel].push(conjunct);
        }
        _ => {
            spec.complex_predicates.push((rel_set, conjunct));
        }
    }
    Ok(())
}

/// Resolve the relation index owning a column reference.
fn resolve_rel(
    reference: &ColumnRef,
    spec: &QuerySpec,
    full_schema: &Schema,
) -> Result<usize, PlanError> {
    if let Some(qualifier) = &reference.qualifier {
        return spec
            .relation_by_alias(qualifier)
            .ok_or_else(|| PlanError::UnknownColumn(reference.to_string()));
    }
    let idx = full_schema
        .index_of(None, &reference.name)
        .map_err(|e| PlanError::UnknownColumn(e.to_string()))?;
    let column = full_schema.column(idx).expect("index valid");
    let qualifier = column
        .qualifier()
        .ok_or_else(|| PlanError::UnknownColumn(reference.to_string()))?;
    spec.relation_by_alias(qualifier)
        .ok_or_else(|| PlanError::UnknownColumn(reference.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relset::RelSet;
    use reopt_sql::parse_sql;
    use reopt_storage::{Column, DataType, Table};

    fn storage() -> Storage {
        let mut storage = Storage::new();
        let title = Table::new(
            "title",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("title", DataType::Text),
                Column::new("production_year", DataType::Int),
            ]),
        );
        let movie_keyword = Table::new(
            "movie_keyword",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("movie_id", DataType::Int),
                Column::new("keyword_id", DataType::Int),
            ]),
        );
        let keyword = Table::new(
            "keyword",
            Schema::new(vec![
                Column::not_null("id", DataType::Int),
                Column::new("keyword", DataType::Text),
            ]),
        );
        storage.create_table(title).unwrap();
        storage.create_table(movie_keyword).unwrap();
        storage.create_table(keyword).unwrap();
        storage
    }

    fn bind(sql: &str) -> Result<QuerySpec, PlanError> {
        let stmt = parse_sql(sql).unwrap();
        bind_select(stmt.query().unwrap(), &storage())
    }

    #[test]
    fn binds_three_way_join() {
        let spec = bind(
            "SELECT min(t.title) FROM title AS t, movie_keyword AS mk, keyword AS k
             WHERE t.id = mk.movie_id AND mk.keyword_id = k.id
               AND k.keyword = 'superhero' AND t.production_year > 2000",
        )
        .unwrap();
        assert_eq!(spec.relation_count(), 3);
        assert_eq!(spec.join_edges.len(), 2);
        assert_eq!(spec.local_predicates[0].len(), 1); // t.production_year > 2000
        assert_eq!(spec.local_predicates[2].len(), 1); // k.keyword = 'superhero'
        assert!(spec.complex_predicates.is_empty());
    }

    #[test]
    fn unqualified_columns_are_qualified() {
        let spec = bind(
            "SELECT * FROM title AS t, keyword AS k WHERE production_year > 2000 AND keyword = 'x'",
        )
        .unwrap();
        assert_eq!(spec.local_predicates[0].len(), 1);
        assert_eq!(spec.local_predicates[1].len(), 1);
        assert_eq!(
            spec.local_predicates[0][0].to_sql(),
            "t.production_year > 2000"
        );
    }

    #[test]
    fn ambiguous_unqualified_column_errors() {
        let err = bind("SELECT * FROM title AS t, movie_keyword AS mk WHERE id = 3").unwrap_err();
        assert!(matches!(err, PlanError::UnknownColumn(_)));
    }

    #[test]
    fn complex_predicate_classified() {
        let spec = bind(
            "SELECT * FROM title AS t, movie_keyword AS mk
             WHERE t.id = mk.movie_id AND t.production_year > mk.keyword_id",
        )
        .unwrap();
        assert_eq!(spec.join_edges.len(), 1);
        assert_eq!(spec.complex_predicates.len(), 1);
        assert_eq!(spec.complex_predicates[0].0, RelSet::from_indexes([0, 1]));
    }

    #[test]
    fn constant_predicate_goes_to_first_relation() {
        let spec = bind("SELECT * FROM title AS t WHERE 1 = 1").unwrap();
        assert_eq!(spec.local_predicates[0].len(), 1);
    }

    #[test]
    fn same_relation_equality_is_local_not_join() {
        let spec = bind("SELECT * FROM title AS t WHERE t.id = t.production_year").unwrap();
        assert!(spec.join_edges.is_empty());
        assert_eq!(spec.local_predicates[0].len(), 1);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        assert!(matches!(
            bind("SELECT * FROM nope AS x"),
            Err(PlanError::UnknownTable(_))
        ));
        assert!(matches!(
            bind("SELECT * FROM title AS t WHERE t.nope = 1"),
            Err(PlanError::UnknownColumn(_))
        ));
        assert!(matches!(
            bind("SELECT t.nope FROM title AS t"),
            Err(PlanError::UnknownColumn(_))
        ));
    }

    #[test]
    fn duplicate_alias_rejected() {
        assert!(matches!(
            bind("SELECT * FROM title AS t, keyword AS t"),
            Err(PlanError::DuplicateAlias(_))
        ));
    }

    #[test]
    fn group_by_and_order_by_are_bound() {
        let spec = bind(
            "SELECT t.production_year, count(*) FROM title AS t
             GROUP BY t.production_year ORDER BY t.production_year DESC LIMIT 3",
        )
        .unwrap();
        assert_eq!(spec.group_by.len(), 1);
        assert_eq!(spec.order_by.len(), 1);
        assert!(!spec.order_by[0].ascending);
        assert_eq!(spec.limit, Some(3));
    }

    #[test]
    fn wildcard_expands_into_from_order_columns() {
        let spec = bind("SELECT * FROM keyword AS k, title AS t WHERE t.id = k.id").unwrap();
        let items: Vec<String> = spec.output.iter().map(|item| item.expr.to_sql()).collect();
        assert_eq!(
            items,
            ["k.id", "k.keyword", "t.id", "t.title", "t.production_year"]
        );
        assert!(spec.output.iter().all(|item| item.alias.is_none()));
        for sql in [
            "SELECT *, count(*) FROM title AS t",
            "SELECT * FROM title AS t GROUP BY t.id",
        ] {
            let err = bind(sql).unwrap_err();
            assert_eq!(
                err.to_string(),
                PlanError::Unsupported("SELECT * cannot be combined with aggregates".into())
                    .to_string(),
                "{sql}"
            );
        }
    }

    #[test]
    fn self_join_with_two_aliases() {
        let spec = bind(
            "SELECT * FROM title AS t1, title AS t2 WHERE t1.id = t2.id AND t1.production_year > 1990",
        )
        .unwrap();
        assert_eq!(spec.relation_count(), 2);
        assert_eq!(spec.join_edges.len(), 1);
        assert_eq!(spec.local_predicates[0].len(), 1);
    }
}
