//! The bound logical query: relations, predicates, join edges and output shape.

use crate::relset::RelSet;
use reopt_expr::{referenced_qualifiers, ColumnRef, Expr};
use reopt_sql::{OrderByItem, SelectItem};
use reopt_storage::Schema;

/// One base relation in the FROM list.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSpec {
    /// Position in the FROM list (and bit index in [`RelSet`]s).
    pub index: usize,
    /// The alias used to qualify columns.
    pub alias: String,
    /// The underlying table name in the catalog.
    pub table: String,
    /// The relation's schema, with every column qualified by the alias.
    pub schema: Schema,
}

/// An equi-join edge `left.column = right.column` between two relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinEdge {
    /// Index of the relation on the left side.
    pub left_rel: usize,
    /// Qualified column reference on the left side.
    pub left_column: ColumnRef,
    /// Index of the relation on the right side.
    pub right_rel: usize,
    /// Qualified column reference on the right side.
    pub right_column: ColumnRef,
}

impl JoinEdge {
    /// The set `{left_rel, right_rel}`.
    pub fn rel_set(&self) -> RelSet {
        RelSet::single(self.left_rel).insert(self.right_rel)
    }

    /// Whether the edge connects the two (disjoint) sets.
    pub fn connects(&self, a: RelSet, b: RelSet) -> bool {
        (a.contains(self.left_rel) && b.contains(self.right_rel))
            || (a.contains(self.right_rel) && b.contains(self.left_rel))
    }

    /// The edge as an expression `left.column = right.column`.
    pub fn to_expr(&self) -> Expr {
        Expr::eq(
            Expr::Column(self.left_column.clone()),
            Expr::Column(self.right_column.clone()),
        )
    }

    /// The join key for a given side, oriented so that `for_set` contains the returned
    /// column's relation. Returns `(this_side, other_side)`.
    pub fn oriented(&self, for_set: RelSet) -> Option<(ColumnRef, ColumnRef)> {
        if for_set.contains(self.left_rel) && !for_set.contains(self.right_rel) {
            Some((self.left_column.clone(), self.right_column.clone()))
        } else if for_set.contains(self.right_rel) && !for_set.contains(self.left_rel) {
            Some((self.right_column.clone(), self.left_column.clone()))
        } else {
            None
        }
    }
}

/// A bound query: everything the optimizer needs to know about one SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Base relations, in FROM order.
    pub relations: Vec<RelationSpec>,
    /// Single-relation filter predicates, indexed by relation.
    pub local_predicates: Vec<Vec<Expr>>,
    /// Equi-join edges.
    pub join_edges: Vec<JoinEdge>,
    /// Conjuncts that touch several relations but are not simple equi-joins
    /// (e.g. `a.x + b.y > 10`). Applied as residual filters once all referenced
    /// relations are joined.
    pub complex_predicates: Vec<(RelSet, Expr)>,
    /// The SELECT list.
    pub output: Vec<SelectItem>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT.
    pub limit: Option<usize>,
}

impl QuerySpec {
    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// The set of all relations.
    pub fn all_relations(&self) -> RelSet {
        RelSet::all(self.relations.len())
    }

    /// Find a relation index by alias.
    pub fn relation_by_alias(&self, alias: &str) -> Option<usize> {
        self.relations
            .iter()
            .position(|r| r.alias.eq_ignore_ascii_case(alias))
    }

    /// The relation set referenced by an expression (via its column qualifiers).
    /// Qualifiers that do not match any alias are ignored.
    pub fn rel_set_of(&self, expr: &Expr) -> RelSet {
        let mut set = RelSet::EMPTY;
        for qualifier in referenced_qualifiers(expr) {
            if let Some(idx) = self.relation_by_alias(&qualifier) {
                set = set.insert(idx);
            }
        }
        set
    }

    /// All join edges with both endpoints inside `set`.
    pub fn edges_within(&self, set: RelSet) -> Vec<&JoinEdge> {
        self.join_edges
            .iter()
            .filter(|e| set.contains(e.left_rel) && set.contains(e.right_rel))
            .collect()
    }

    /// Indexes (into [`QuerySpec::join_edges`]) of the edges fully inside `set`.
    /// Allocation-free counterpart of [`QuerySpec::edges_within`] for callers that
    /// memoize per-edge state (the cardinality estimator's selectivity memo).
    pub fn edge_indexes_within(&self, set: RelSet) -> impl Iterator<Item = usize> + '_ {
        self.join_edges
            .iter()
            .enumerate()
            .filter(move |(_, e)| set.contains(e.left_rel) && set.contains(e.right_rel))
            .map(|(i, _)| i)
    }

    /// All join edges connecting the disjoint sets `a` and `b`.
    pub fn edges_between(&self, a: RelSet, b: RelSet) -> Vec<&JoinEdge> {
        self.join_edges.iter().filter(|e| e.connects(a, b)).collect()
    }

    /// Complex (non-equi-join multi-relation) predicates that become applicable exactly
    /// when joining `a` and `b`: every referenced relation is inside `a ∪ b` but not
    /// inside `a` or `b` alone.
    pub fn complex_predicates_for_join(
        &self,
        a: RelSet,
        b: RelSet,
    ) -> impl Iterator<Item = &Expr> + '_ {
        let combined = a.union(b);
        self.complex_predicates
            .iter()
            .filter(move |(set, _)| {
                set.is_subset_of(combined) && !set.is_subset_of(a) && !set.is_subset_of(b)
            })
            .map(|(_, e)| e)
    }

    /// The schema of the join of all relations in `set` (columns qualified by alias,
    /// concatenated in relation-index order).
    pub fn schema_of(&self, set: RelSet) -> Schema {
        let mut schema = Schema::empty();
        for idx in set.iter() {
            schema = schema.join(&self.relations[idx].schema);
        }
        schema
    }

    /// Total number of join edges.
    pub fn edge_count(&self) -> usize {
        self.join_edges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_sql::SelectExpr;
    use reopt_storage::{Column, DataType};

    fn rel(index: usize, alias: &str, table: &str) -> RelationSpec {
        RelationSpec {
            index,
            alias: alias.into(),
            table: table.into(),
            schema: Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("movie_id", DataType::Int),
            ])
            .qualified(alias),
        }
    }

    fn spec() -> QuerySpec {
        // t -(id = mk.movie_id)- mk -(keyword_id = k.id)- k
        QuerySpec {
            relations: vec![rel(0, "t", "title"), rel(1, "mk", "movie_keyword"), rel(2, "k", "keyword")],
            local_predicates: vec![vec![], vec![], vec![]],
            join_edges: vec![
                JoinEdge {
                    left_rel: 0,
                    left_column: ColumnRef::qualified("t", "id"),
                    right_rel: 1,
                    right_column: ColumnRef::qualified("mk", "movie_id"),
                },
                JoinEdge {
                    left_rel: 1,
                    left_column: ColumnRef::qualified("mk", "id"),
                    right_rel: 2,
                    right_column: ColumnRef::qualified("k", "id"),
                },
            ],
            complex_predicates: vec![(
                RelSet::from_indexes([0, 2]),
                Expr::binary(
                    reopt_expr::BinaryOp::Gt,
                    Expr::col("t", "id"),
                    Expr::col("k", "id"),
                ),
            )],
            output: vec![SelectItem {
                expr: SelectExpr::Wildcard,
                alias: None,
            }],
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn relation_lookup_and_sets() {
        let spec = spec();
        assert_eq!(spec.relation_count(), 3);
        assert_eq!(spec.relation_by_alias("MK"), Some(1));
        assert_eq!(spec.relation_by_alias("zzz"), None);
        assert_eq!(spec.all_relations(), RelSet::all(3));
    }

    #[test]
    fn rel_set_of_expression() {
        let spec = spec();
        let e = Expr::eq(Expr::col("t", "id"), Expr::col("k", "id"));
        assert_eq!(spec.rel_set_of(&e), RelSet::from_indexes([0, 2]));
        let e = Expr::eq(Expr::col("unknown", "x"), Expr::lit(1));
        assert_eq!(spec.rel_set_of(&e), RelSet::EMPTY);
    }

    #[test]
    fn edges_within_and_between() {
        let spec = spec();
        assert_eq!(spec.edges_within(RelSet::from_indexes([0, 1])).len(), 1);
        assert_eq!(spec.edges_within(RelSet::all(3)).len(), 2);
        assert_eq!(spec.edges_within(RelSet::from_indexes([0, 2])).len(), 0);
        let between = spec.edges_between(RelSet::single(0), RelSet::from_indexes([1, 2]));
        assert_eq!(between.len(), 1);
        assert_eq!(spec.edge_count(), 2);
    }

    #[test]
    fn edge_orientation_and_expr() {
        let spec = spec();
        let edge = &spec.join_edges[0];
        assert_eq!(edge.rel_set(), RelSet::from_indexes([0, 1]));
        let (own, other) = edge.oriented(RelSet::single(1)).unwrap();
        assert_eq!(own.qualifier.as_deref(), Some("mk"));
        assert_eq!(other.qualifier.as_deref(), Some("t"));
        assert!(edge.oriented(RelSet::from_indexes([0, 1])).is_none());
        assert_eq!(edge.to_expr().to_sql(), "t.id = mk.movie_id");
        assert!(edge.connects(RelSet::single(0), RelSet::single(1)));
        assert!(!edge.connects(RelSet::single(0), RelSet::single(2)));
    }

    #[test]
    fn complex_predicates_applied_at_the_right_join() {
        let spec = spec();
        // Joining {0} with {1}: complex predicate over {0,2} not yet applicable.
        assert_eq!(
            spec.complex_predicates_for_join(RelSet::single(0), RelSet::single(1))
                .count(),
            0
        );
        // Joining {0,1} with {2}: now applicable.
        assert_eq!(
            spec.complex_predicates_for_join(RelSet::from_indexes([0, 1]), RelSet::single(2))
                .count(),
            1
        );
        // Joining {0,2} with {1}: already subsumed by one side, not applied again.
        assert_eq!(
            spec.complex_predicates_for_join(RelSet::from_indexes([0, 2]), RelSet::single(1))
                .count(),
            0
        );
    }

    #[test]
    fn schema_of_concatenates_in_index_order() {
        let spec = spec();
        let schema = spec.schema_of(RelSet::from_indexes([0, 2]));
        assert_eq!(schema.len(), 4);
        assert_eq!(schema.column(0).unwrap().qualified_name(), "t.id");
        assert_eq!(schema.column(2).unwrap().qualified_name(), "k.id");
    }
}
