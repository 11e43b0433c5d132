//! Physical plans.
//!
//! A [`PhysicalPlan`] is a tree of operators. Every node carries its output schema
//! (columns qualified by relation alias), its estimated output cardinality, its cost and
//! the set of base relations it covers. The re-optimization controller relies on the
//! per-node `(rel_set, estimated_rows)` pair: after execution it compares the estimate
//! with the observed actual cardinality of the same node and materializes the lowest
//! join whose Q-error exceeds the threshold.

use crate::cost::Cost;
use crate::relset::RelSet;
use reopt_expr::{ColumnRef, Expr};
use reopt_sql::AggregateFunc;
use reopt_storage::{DataType, Schema, Value};
use std::fmt;

/// How a base relation is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanKind {
    /// Full sequential scan.
    Sequential,
    /// Index lookup (equality or range) plus residual filter.
    Index,
}

/// Which join algorithm a join node uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// Hash join: build on the inner (second) child, probe with the outer (first).
    Hash,
    /// Index nested-loop join: for each outer row, look up matches in a base-table index.
    IndexNestedLoop,
    /// Plain nested-loop join with an arbitrary predicate.
    NestedLoop,
}

impl fmt::Display for JoinAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinAlgorithm::Hash => "Hash Join",
            JoinAlgorithm::IndexNestedLoop => "Index Nested Loop",
            JoinAlgorithm::NestedLoop => "Nested Loop",
        })
    }
}

/// How an index scan restricts the indexed column.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexLookup {
    /// `column = value`.
    Equality(Value),
    /// `column IN (values)`, probed value by value.
    InList(Vec<Value>),
    /// A (half-)open range with inclusive/exclusive bounds.
    Range {
        /// Lower bound and whether it is inclusive.
        low: Option<(Value, bool)>,
        /// Upper bound and whether it is inclusive.
        high: Option<(Value, bool)>,
    },
}

/// An aggregate expression in an [`PlanKind::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateExpr {
    /// The aggregate function.
    pub func: AggregateFunc,
    /// The argument (None for `COUNT(*)`).
    pub arg: Option<Expr>,
    /// Output column name.
    pub name: String,
}

/// A projected output expression.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputExpr {
    /// The expression to evaluate.
    pub expr: Expr,
    /// Output column name.
    pub name: String,
}

/// The operator-specific part of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanKind {
    /// Sequential scan of a base relation.
    SeqScan {
        /// Relation index in the query spec.
        rel: usize,
        /// Relation alias.
        alias: String,
        /// Underlying table name.
        table: String,
        /// Filter predicate applied during the scan.
        predicate: Option<Expr>,
    },
    /// Index scan of a base relation.
    IndexScan {
        /// Relation index in the query spec.
        rel: usize,
        /// Relation alias.
        alias: String,
        /// Underlying table name.
        table: String,
        /// The indexed column name (unqualified).
        column: String,
        /// The lookup driving the index.
        lookup: IndexLookup,
        /// Residual predicate applied to fetched rows.
        residual: Option<Expr>,
    },
    /// Hash join. `children[0]` is the probe (outer) side, `children[1]` the build side.
    HashJoin {
        /// Equi-join keys, oriented (outer column, build column).
        keys: Vec<(ColumnRef, ColumnRef)>,
        /// Residual predicate applied to joined rows.
        residual: Option<Expr>,
    },
    /// Index nested-loop join. `children[0]` is the outer side; the inner side is a base
    /// relation accessed through an index.
    IndexNestedLoopJoin {
        /// Inner relation index in the query spec.
        inner_rel: usize,
        /// Inner relation alias.
        inner_alias: String,
        /// Inner table name.
        inner_table: String,
        /// Join key on the outer side.
        outer_key: ColumnRef,
        /// Indexed join key column on the inner side (unqualified name).
        inner_key: String,
        /// Filter applied to inner rows fetched from the index.
        inner_predicate: Option<Expr>,
        /// Residual predicate applied to joined rows (other join keys, complex preds).
        residual: Option<Expr>,
    },
    /// Plain nested-loop join with an arbitrary predicate.
    NestedLoopJoin {
        /// The join predicate (None = cross product).
        predicate: Option<Expr>,
    },
    /// Filter on top of a child.
    Filter {
        /// The predicate.
        predicate: Expr,
    },
    /// Hash aggregation (or plain aggregation when `group_by` is empty).
    Aggregate {
        /// Grouping expressions.
        group_by: Vec<Expr>,
        /// Aggregate expressions.
        aggregates: Vec<AggregateExpr>,
    },
    /// Projection.
    Project {
        /// Output expressions.
        exprs: Vec<OutputExpr>,
    },
    /// Sort.
    Sort {
        /// Sort keys and ascending flags.
        keys: Vec<(Expr, bool)>,
    },
    /// Limit.
    Limit {
        /// Maximum number of rows to emit.
        count: usize,
    },
}

/// A physical plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    /// The operator.
    pub kind: PlanKind,
    /// Child plans (operand order is operator-specific, see [`PlanKind`]).
    pub children: Vec<PhysicalPlan>,
    /// Output schema (columns qualified by relation alias where applicable).
    pub schema: Schema,
    /// Estimated output cardinality.
    pub estimated_rows: f64,
    /// Estimated cost.
    pub cost: Cost,
    /// The set of base relations this subtree covers.
    pub rel_set: RelSet,
}

impl PhysicalPlan {
    /// Whether this node is a join.
    pub fn is_join(&self) -> bool {
        self.join_algorithm().is_some()
    }

    /// The join algorithm, if this node is a join.
    pub fn join_algorithm(&self) -> Option<JoinAlgorithm> {
        match self.kind {
            PlanKind::HashJoin { .. } => Some(JoinAlgorithm::Hash),
            PlanKind::IndexNestedLoopJoin { .. } => Some(JoinAlgorithm::IndexNestedLoop),
            PlanKind::NestedLoopJoin { .. } => Some(JoinAlgorithm::NestedLoop),
            _ => None,
        }
    }

    /// Whether this node is a base-relation scan.
    pub fn is_scan(&self) -> bool {
        matches!(
            self.kind,
            PlanKind::SeqScan { .. } | PlanKind::IndexScan { .. }
        )
    }

    /// The scan kind, if this node is a scan.
    pub fn scan_kind(&self) -> Option<ScanKind> {
        match self.kind {
            PlanKind::SeqScan { .. } => Some(ScanKind::Sequential),
            PlanKind::IndexScan { .. } => Some(ScanKind::Index),
            _ => None,
        }
    }

    /// A short human-readable label for EXPLAIN output.
    pub fn label(&self) -> String {
        match &self.kind {
            PlanKind::SeqScan { alias, table, .. } => format!("Seq Scan on {table} {alias}"),
            PlanKind::IndexScan {
                alias,
                table,
                column,
                ..
            } => format!("Index Scan on {table} {alias} using {column}"),
            PlanKind::HashJoin { keys, .. } => {
                let key_text: Vec<String> = keys
                    .iter()
                    .map(|(l, r)| format!("{l} = {r}"))
                    .collect();
                format!("Hash Join on {}", key_text.join(" AND "))
            }
            PlanKind::IndexNestedLoopJoin {
                inner_alias,
                inner_table,
                outer_key,
                inner_key,
                ..
            } => format!(
                "Index Nested Loop Join ({outer_key} = {inner_alias}.{inner_key}) on {inner_table} {inner_alias}"
            ),
            PlanKind::NestedLoopJoin { predicate } => match predicate {
                Some(p) => format!("Nested Loop Join on {}", p.to_sql()),
                None => "Nested Loop Join (cross)".to_string(),
            },
            PlanKind::Filter { predicate } => format!("Filter: {}", predicate.to_sql()),
            PlanKind::Aggregate {
                group_by,
                aggregates,
            } => {
                let agg_text: Vec<String> = aggregates
                    .iter()
                    .map(|a| match &a.arg {
                        Some(e) => format!("{}({})", a.func.name(), e.to_sql()),
                        None => format!("{}(*)", a.func.name()),
                    })
                    .collect();
                if group_by.is_empty() {
                    format!("Aggregate [{}]", agg_text.join(", "))
                } else {
                    format!("Group Aggregate [{}]", agg_text.join(", "))
                }
            }
            PlanKind::Project { exprs } => format!("Project ({} columns)", exprs.len()),
            PlanKind::Sort { keys } => format!("Sort ({} keys)", keys.len()),
            PlanKind::Limit { count } => format!("Limit {count}"),
        }
    }

    /// Depth-first pre-order traversal of the plan tree.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a PhysicalPlan)) {
        visit(self);
        for child in &self.children {
            child.walk(visit);
        }
    }

    /// All join nodes in the tree, in pre-order.
    pub fn join_nodes(&self) -> Vec<&PhysicalPlan> {
        let mut joins = Vec::new();
        self.walk(&mut |node| {
            if node.is_join() {
                joins.push(node);
            }
        });
        joins
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        let mut count = 0;
        self.walk(&mut |_| count += 1);
        count
    }

    /// The maximum depth of the tree.
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PhysicalPlan::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Infer the output type of an expression evaluated against `schema`.
/// Used to build the schemas of Project and Aggregate nodes.
pub fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    match expr {
        Expr::Column(reference) | Expr::BoundColumn { reference, .. } => schema
            .index_of(reference.qualifier.as_deref(), &reference.name)
            .ok()
            .and_then(|idx| schema.column(idx))
            .map(|c| c.data_type())
            .unwrap_or(DataType::Text),
        Expr::Literal(value) => value.data_type().unwrap_or(DataType::Text),
        Expr::Binary { op, left, right } => {
            if op.is_comparison() || op.is_logical() {
                DataType::Bool
            } else {
                let l = infer_type(left, schema);
                let r = infer_type(right, schema);
                if l == DataType::Float || r == DataType::Float {
                    DataType::Float
                } else {
                    DataType::Int
                }
            }
        }
        Expr::Like { .. }
        | Expr::InList { .. }
        | Expr::IsNull { .. }
        | Expr::Between { .. }
        | Expr::Not(_) => DataType::Bool,
    }
}

/// Infer the output type of an aggregate.
pub fn infer_aggregate_type(func: AggregateFunc, arg: Option<&Expr>, schema: &Schema) -> DataType {
    match func {
        AggregateFunc::Count => DataType::Int,
        AggregateFunc::Avg => DataType::Float,
        AggregateFunc::Sum => match arg.map(|e| infer_type(e, schema)) {
            Some(DataType::Float) => DataType::Float,
            _ => DataType::Int,
        },
        AggregateFunc::Min | AggregateFunc::Max => arg
            .map(|e| infer_type(e, schema))
            .unwrap_or(DataType::Text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_storage::Column;

    fn scan(alias: &str, rel: usize, rows: f64) -> PhysicalPlan {
        PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel,
                alias: alias.into(),
                table: format!("table_{alias}"),
                predicate: None,
            },
            children: vec![],
            schema: Schema::new(vec![Column::new("id", DataType::Int)]).qualified(alias),
            estimated_rows: rows,
            cost: Cost::new(0.0, rows),
            rel_set: RelSet::single(rel),
        }
    }

    fn join(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        let rel_set = left.rel_set.union(right.rel_set);
        let schema = left.schema.join(&right.schema);
        PhysicalPlan {
            kind: PlanKind::HashJoin {
                keys: vec![(
                    ColumnRef::qualified("a", "id"),
                    ColumnRef::qualified("b", "id"),
                )],
                residual: None,
            },
            children: vec![left, right],
            schema,
            estimated_rows: 10.0,
            cost: Cost::new(0.0, 100.0),
            rel_set,
        }
    }

    #[test]
    fn node_classification() {
        let plan = join(scan("a", 0, 100.0), scan("b", 1, 200.0));
        assert!(plan.is_join());
        assert_eq!(plan.join_algorithm(), Some(JoinAlgorithm::Hash));
        assert!(!plan.is_scan());
        assert!(plan.children[0].is_scan());
        assert_eq!(plan.children[0].scan_kind(), Some(ScanKind::Sequential));
        assert_eq!(plan.rel_set, RelSet::from_indexes([0, 1]));
    }

    #[test]
    fn traversal_helpers() {
        let plan = join(
            join(scan("a", 0, 1.0), scan("b", 1, 1.0)),
            scan("c", 2, 1.0),
        );
        assert_eq!(plan.node_count(), 5);
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.join_nodes().len(), 2);
        let mut labels = Vec::new();
        plan.walk(&mut |n| labels.push(n.label()));
        assert_eq!(labels.len(), 5);
        assert!(labels[0].starts_with("Hash Join"));
    }

    #[test]
    fn labels_are_descriptive() {
        let s = scan("t", 0, 5.0);
        assert_eq!(s.label(), "Seq Scan on table_t t");
        let j = join(scan("a", 0, 1.0), scan("b", 1, 1.0));
        assert!(j.label().contains("a.id = b.id"));
        let agg = PhysicalPlan {
            kind: PlanKind::Aggregate {
                group_by: vec![],
                aggregates: vec![AggregateExpr {
                    func: AggregateFunc::Min,
                    arg: Some(Expr::col("t", "id")),
                    name: "m".into(),
                }],
            },
            children: vec![s],
            schema: Schema::new(vec![Column::new("m", DataType::Int)]),
            estimated_rows: 1.0,
            cost: Cost::ZERO,
            rel_set: RelSet::single(0),
        };
        assert!(agg.label().contains("MIN(t.id)"));
        assert_eq!(JoinAlgorithm::Hash.to_string(), "Hash Join");
    }

    #[test]
    fn type_inference() {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("score", DataType::Float),
            Column::new("name", DataType::Text),
        ])
        .qualified("t");
        assert_eq!(infer_type(&Expr::col("t", "id"), &schema), DataType::Int);
        assert_eq!(infer_type(&Expr::col("t", "name"), &schema), DataType::Text);
        assert_eq!(
            infer_type(
                &Expr::binary(
                    reopt_expr::BinaryOp::Add,
                    Expr::col("t", "id"),
                    Expr::col("t", "score")
                ),
                &schema
            ),
            DataType::Float
        );
        assert_eq!(
            infer_type(&Expr::eq(Expr::col("t", "id"), Expr::lit(1)), &schema),
            DataType::Bool
        );
        assert_eq!(
            infer_aggregate_type(AggregateFunc::Count, None, &schema),
            DataType::Int
        );
        assert_eq!(
            infer_aggregate_type(AggregateFunc::Avg, Some(&Expr::col("t", "id")), &schema),
            DataType::Float
        );
        assert_eq!(
            infer_aggregate_type(AggregateFunc::Min, Some(&Expr::col("t", "name")), &schema),
            DataType::Text
        );
        assert_eq!(
            infer_aggregate_type(AggregateFunc::Sum, Some(&Expr::col("t", "score")), &schema),
            DataType::Float
        );
    }
}
