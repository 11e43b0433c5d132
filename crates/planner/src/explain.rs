//! EXPLAIN: render a physical plan as an indented tree, PostgreSQL-style.

use crate::plan::{PhysicalPlan, PlanKind};

/// Render a plan as text: one line per node with estimated rows and cost, indented by
/// depth. (EXPLAIN ANALYZE output, with actual rows, is rendered by `reopt-core` from
/// the executor's metrics tree.)
pub fn explain_plan(plan: &PhysicalPlan) -> String {
    let mut out = String::new();
    render(plan, 0, &mut out);
    out
}

fn render(node: &PhysicalPlan, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let arrow = if depth == 0 { "" } else { "-> " };
    out.push_str(&format!(
        "{indent}{arrow}{}  (cost={} rows={:.0})\n",
        node.label(),
        node.cost,
        node.estimated_rows
    ));
    // Show interesting per-node details on extra lines.
    match &node.kind {
        PlanKind::SeqScan {
            predicate: Some(p), ..
        } => {
            out.push_str(&format!("{indent}     Filter: {}\n", p.to_sql()));
        }
        PlanKind::IndexScan {
            residual: Some(p), ..
        } => {
            out.push_str(&format!("{indent}     Filter: {}\n", p.to_sql()));
        }
        PlanKind::HashJoin {
            residual: Some(p), ..
        } => {
            out.push_str(&format!("{indent}     Join Filter: {}\n", p.to_sql()));
        }
        PlanKind::IndexNestedLoopJoin {
            inner_predicate,
            residual,
            ..
        } => {
            if let Some(p) = inner_predicate {
                out.push_str(&format!("{indent}     Inner Filter: {}\n", p.to_sql()));
            }
            if let Some(p) = residual {
                out.push_str(&format!("{indent}     Join Filter: {}\n", p.to_sql()));
            }
        }
        _ => {}
    }
    for child in &node.children {
        render(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Cost;
    use crate::relset::RelSet;
    use reopt_expr::{ColumnRef, Expr};
    use reopt_storage::{Column, DataType, Schema};

    fn scan(alias: &str, rel: usize, predicate: Option<Expr>) -> PhysicalPlan {
        PhysicalPlan {
            kind: PlanKind::SeqScan {
                rel,
                alias: alias.into(),
                table: format!("tbl_{alias}"),
                predicate,
            },
            children: vec![],
            schema: Schema::new(vec![Column::new("id", DataType::Int)]).qualified(alias),
            estimated_rows: 100.0,
            cost: Cost::new(0.0, 10.0),
            rel_set: RelSet::single(rel),
        }
    }

    #[test]
    fn renders_tree_with_filters() {
        let left = scan("a", 0, Some(Expr::eq(Expr::col("a", "id"), Expr::lit(1))));
        let right = scan("b", 1, None);
        let join = PhysicalPlan {
            kind: PlanKind::HashJoin {
                keys: vec![(
                    ColumnRef::qualified("a", "id"),
                    ColumnRef::qualified("b", "id"),
                )],
                residual: Some(Expr::binary(
                    reopt_expr::BinaryOp::Gt,
                    Expr::col("a", "id"),
                    Expr::col("b", "id"),
                )),
            },
            schema: left.schema.join(&right.schema),
            estimated_rows: 42.0,
            cost: Cost::new(1.0, 99.0),
            rel_set: RelSet::from_indexes([0, 1]),
            children: vec![left, right],
        };
        let text = explain_plan(&join);
        assert!(text.contains("Hash Join on a.id = b.id"));
        assert!(text.contains("rows=42"));
        assert!(text.contains("Join Filter: a.id > b.id"));
        assert!(text.contains("Filter: a.id = 1"));
        assert!(text.contains("-> Seq Scan on tbl_b b"));
        // Child lines are indented deeper than the root.
        let root_line = text.lines().next().unwrap();
        assert!(!root_line.starts_with(' '));
        assert!(text.lines().nth(2).unwrap().starts_with("  "));
    }

    #[test]
    fn renders_single_scan() {
        let text = explain_plan(&scan("t", 0, None));
        assert!(text.starts_with("Seq Scan on tbl_t t"));
        assert_eq!(text.lines().count(), 1);
    }
}
