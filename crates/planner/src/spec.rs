//! The bound logical query: relations, predicates, join edges and output shape.

use crate::relset::RelSet;
use reopt_expr::{collect_column_refs, referenced_qualifiers, ColumnRef, Expr};
use reopt_sql::{OrderByItem, SelectExpr, SelectItem};
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

/// What reads one column of a base relation above the relation's access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnUse {
    /// The SELECT list, GROUP BY or ORDER BY reads it.
    pub read_by_output: bool,
    /// The union of the relation sets of the join edges and complex predicates that
    /// read it. Local predicates are not readers: the access path applies them.
    pub readers: RelSet,
}

impl ColumnUse {
    /// Whether a plan node over `set` (a set holding the column's relation) must carry
    /// the column: the output reads it, or a reader reaches outside `set`. This is
    /// exactly what anything outside `set` reads, so a materialization of `set` holds
    /// every column the rest of the query binds.
    pub fn visible_at(self, set: RelSet) -> bool {
        self.read_by_output || !self.readers.is_subset_of(set)
    }
}

/// The [`ColumnUse`] of every column of every relation of one query, indexed by
/// relation and then by column ordinal in the relation's schema. Computed once per
/// spec by [`QuerySpec::column_uses`]; every plan node's schema follows from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnUses {
    uses: Vec<Vec<ColumnUse>>,
}

impl ColumnUses {
    /// The use of column `col` of relation `rel`.
    pub fn column(&self, rel: usize, col: usize) -> ColumnUse {
        self.uses[rel][col]
    }

    /// The ordinals (into relation `rel`'s schema) of its columns visible at `set`.
    pub fn visible_columns(&self, rel: usize, set: RelSet) -> impl Iterator<Item = usize> + '_ {
        self.uses[rel]
            .iter()
            .enumerate()
            .filter(move |(_, usage)| usage.visible_at(set))
            .map(|(col, _)| col)
    }

    /// The output schema of a plan node over `set`: the columns of its relations that
    /// are visible at `set`, in relation-index order and then schema order.
    pub fn schema_of(&self, spec: &QuerySpec, set: RelSet) -> Schema {
        let mut schema = Schema::empty();
        for rel in set.iter() {
            let columns = spec.relations[rel].schema.columns();
            for col in self.visible_columns(rel, set) {
                schema.push(columns[col].clone());
            }
        }
        schema
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

    /// Which columns anything above the access paths reads, and from where (see
    /// [`ColumnUse`]). A plan node over a relation set carries a column exactly when
    /// [`ColumnUse::visible_at`] that set says so.
    pub fn column_uses(&self) -> ColumnUses {
        let mut uses: Vec<Vec<ColumnUse>> = self
            .relations
            .iter()
            .map(|relation| vec![ColumnUse::default(); relation.schema.len()])
            .collect();
        let mut refs = Vec::new();
        for item in &self.output {
            if let SelectExpr::Scalar(expr)
            | SelectExpr::Aggregate {
                arg: Some(expr), ..
            } = &item.expr
            {
                collect_column_refs(expr, &mut refs);
            }
        }
        for expr in self
            .group_by
            .iter()
            .chain(self.order_by.iter().map(|o| &o.expr))
        {
            collect_column_refs(expr, &mut refs);
        }
        for reference in &refs {
            self.for_each_column(reference, |rel, col| uses[rel][col].read_by_output = true);
        }
        for edge in &self.join_edges {
            for reference in [&edge.left_column, &edge.right_column] {
                self.for_each_column(reference, |rel, col| {
                    uses[rel][col].readers = uses[rel][col].readers.union(edge.rel_set());
                });
            }
        }
        for (set, predicate) in &self.complex_predicates {
            refs.clear();
            collect_column_refs(predicate, &mut refs);
            for reference in &refs {
                self.for_each_column(reference, |rel, col| {
                    uses[rel][col].readers = uses[rel][col].readers.union(*set);
                });
            }
        }
        ColumnUses { uses }
    }

    /// The query restricted to `subset`: the subset's relations (re-indexed in index
    /// order), their local predicates, and the join edges and complex predicates
    /// inside it. Its output is the columns visible at `subset`
    /// ([`ColumnUses::schema_of`]) — everything the rest of the query reads of the
    /// subset — as unaliased column items, with no grouping, ordering or limit. Its
    /// rows are what a collapse around `subset` binds against.
    pub fn restrict(&self, subset: RelSet) -> QuerySpec {
        let mut mapping = vec![0; self.relations.len()];
        for (index, rel) in subset.iter().enumerate() {
            mapping[rel] = index;
        }
        let map_set = |set: RelSet| RelSet::from_indexes(set.iter().map(|rel| mapping[rel]));
        let output = self
            .column_uses()
            .schema_of(self, subset)
            .columns()
            .iter()
            .map(|column| SelectItem {
                expr: SelectExpr::Scalar(Expr::Column(ColumnRef {
                    qualifier: column.qualifier().map(str::to_string),
                    name: column.name().to_string(),
                })),
                alias: None,
            })
            .collect();
        QuerySpec {
            relations: subset
                .iter()
                .map(|rel| RelationSpec {
                    index: mapping[rel],
                    ..self.relations[rel].clone()
                })
                .collect(),
            local_predicates: subset
                .iter()
                .map(|rel| self.local_predicates[rel].clone())
                .collect(),
            join_edges: self
                .edges_within(subset)
                .into_iter()
                .map(|edge| JoinEdge {
                    left_rel: mapping[edge.left_rel],
                    right_rel: mapping[edge.right_rel],
                    ..edge.clone()
                })
                .collect(),
            complex_predicates: self
                .complex_predicates
                .iter()
                .filter(|(set, _)| set.is_subset_of(subset))
                .map(|(set, predicate)| (map_set(*set), predicate.clone()))
                .collect(),
            output,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
        }
    }

    /// Call `f(rel, col)` for the column a reference names. A qualified reference
    /// normally names its relation's alias; a collapsed spec's virtual relation keeps
    /// the original aliases as column qualifiers, so every relation's schema is searched
    /// when the alias is not a relation. An unqualified reference (an ORDER BY output
    /// alias) marks every column it could name, which only ever keeps a column too many.
    fn for_each_column(&self, reference: &ColumnRef, mut f: impl FnMut(usize, usize)) {
        let qualifier = reference.qualifier.as_deref();
        let owner = qualifier.and_then(|alias| self.relation_by_alias(alias));
        let candidates = match owner {
            Some(rel) => rel..rel + 1,
            None => 0..self.relations.len(),
        };
        for rel in candidates {
            if let Ok(col) = self.relations[rel]
                .schema
                .index_of(qualifier, &reference.name)
            {
                f(rel, col);
            }
        }
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
                expr: SelectExpr::Aggregate {
                    func: reopt_sql::AggregateFunc::Count,
                    arg: None,
                },
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

    /// A relation over the named int columns.
    fn rel_with(index: usize, alias: &str, columns: &[&str]) -> RelationSpec {
        RelationSpec {
            index,
            alias: alias.into(),
            table: alias.into(),
            schema: Schema::new(
                columns
                    .iter()
                    .map(|c| Column::new(*c, DataType::Int))
                    .collect(),
            )
            .qualified(alias),
        }
    }

    fn edge(left: (usize, &str, &str), right: (usize, &str, &str)) -> JoinEdge {
        JoinEdge {
            left_rel: left.0,
            left_column: ColumnRef::qualified(left.1, left.2),
            right_rel: right.0,
            right_column: ColumnRef::qualified(right.1, right.2),
        }
    }

    fn select(items: Vec<SelectExpr>) -> Vec<SelectItem> {
        items
            .into_iter()
            .map(|expr| SelectItem { expr, alias: None })
            .collect()
    }

    fn visible(spec: &QuerySpec, set: RelSet) -> Vec<String> {
        spec.column_uses()
            .schema_of(spec, set)
            .columns()
            .iter()
            .map(|c| c.qualified_name())
            .collect()
    }

    /// `a -(a.id = b.a_id)- b -(b.c_id = c.id)- c`, selecting `min(c.name)`.
    fn chain() -> QuerySpec {
        QuerySpec {
            relations: vec![
                rel_with(0, "a", &["id", "note"]),
                rel_with(1, "b", &["a_id", "c_id", "pad"]),
                rel_with(2, "c", &["id", "name"]),
            ],
            local_predicates: vec![
                vec![Expr::eq(Expr::col("a", "note"), Expr::lit(1))],
                vec![],
                vec![],
            ],
            join_edges: vec![
                edge((0, "a", "id"), (1, "b", "a_id")),
                edge((1, "b", "c_id"), (2, "c", "id")),
            ],
            complex_predicates: vec![],
            output: select(vec![SelectExpr::Aggregate {
                func: reopt_sql::AggregateFunc::Min,
                arg: Some(Expr::col("c", "name")),
            }]),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        }
    }

    #[test]
    fn chain_keeps_only_what_is_read_above() {
        let spec = chain();
        // Access paths: the join keys leaving the relation plus the output column;
        // a.note is read only by its local predicate, b.pad by nothing.
        assert_eq!(visible(&spec, RelSet::single(0)), ["a.id"]);
        assert_eq!(visible(&spec, RelSet::single(1)), ["b.a_id", "b.c_id"]);
        assert_eq!(visible(&spec, RelSet::single(2)), ["c.id", "c.name"]);
        // a ⋈ b consumed a.id = b.a_id: only b.c_id still leaves the set.
        assert_eq!(visible(&spec, RelSet::from_indexes([0, 1])), ["b.c_id"]);
        assert_eq!(
            visible(&spec, RelSet::from_indexes([1, 2])),
            ["b.a_id", "c.name"]
        );
        assert_eq!(visible(&spec, RelSet::all(3)), ["c.name"]);
        let uses = spec.column_uses();
        assert_eq!(uses.column(1, 0).readers, RelSet::from_indexes([0, 1]));
        assert!(!uses.column(0, 1).read_by_output);
        assert!(uses.column(2, 1).read_by_output);
    }

    #[test]
    fn star_with_complex_predicate_keeps_its_columns_until_it_applies() {
        // Hub h joins s1, s2, s3; `s1.x + s2.y > 3` spans two spokes.
        let mut spec = QuerySpec {
            relations: vec![
                rel_with(0, "h", &["id", "v"]),
                rel_with(1, "s1", &["h_id", "x"]),
                rel_with(2, "s2", &["h_id", "y"]),
                rel_with(3, "s3", &["h_id", "z"]),
            ],
            local_predicates: vec![vec![]; 4],
            join_edges: vec![
                edge((0, "h", "id"), (1, "s1", "h_id")),
                edge((0, "h", "id"), (2, "s2", "h_id")),
                edge((0, "h", "id"), (3, "s3", "h_id")),
            ],
            complex_predicates: vec![],
            output: select(vec![SelectExpr::Aggregate {
                func: reopt_sql::AggregateFunc::Count,
                arg: None,
            }]),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        let predicate = Expr::binary(
            reopt_expr::BinaryOp::Gt,
            Expr::binary(
                reopt_expr::BinaryOp::Add,
                Expr::col("s1", "x"),
                Expr::col("s2", "y"),
            ),
            Expr::lit(3),
        );
        spec.complex_predicates
            .push((spec.rel_set_of(&predicate), predicate));
        assert_eq!(visible(&spec, RelSet::single(1)), ["s1.h_id", "s1.x"]);
        // h.id feeds three edges: visible until every spoke has joined.
        assert_eq!(
            visible(&spec, RelSet::from_indexes([0, 1])),
            ["h.id", "s1.x"]
        );
        assert_eq!(
            visible(&spec, RelSet::from_indexes([0, 1, 3])),
            ["h.id", "s1.x"]
        );
        // Once s1 and s2 are both inside, the predicate has applied.
        assert_eq!(visible(&spec, RelSet::from_indexes([0, 1, 2])), ["h.id"]);
        assert!(visible(&spec, RelSet::all(4)).is_empty());
        assert_eq!(spec.column_uses().column(3, 1), ColumnUse::default());
    }

    #[test]
    fn group_by_and_order_by_columns_are_kept() {
        let mut spec = chain();
        spec.group_by = vec![Expr::col("a", "note")];
        spec.order_by = vec![OrderByItem {
            expr: Expr::col("b", "pad"),
            ascending: true,
        }];
        assert_eq!(
            visible(&spec, RelSet::all(3)),
            ["a.note", "b.pad", "c.name"]
        );
        assert_eq!(visible(&spec, RelSet::single(0)), ["a.id", "a.note"]);
    }

    #[test]
    fn a_wildcard_keeps_every_column() {
        // The binder expands `*` into one column item per column, in FROM order.
        let mut spec = chain();
        spec.output = select(
            spec.schema_of(RelSet::all(3))
                .columns()
                .iter()
                .map(|c| SelectExpr::Scalar(Expr::col(c.qualifier().unwrap(), c.name())))
                .collect(),
        );
        assert_eq!(
            visible(&spec, RelSet::all(3)),
            spec.schema_of(RelSet::all(3))
                .columns()
                .iter()
                .map(|c| c.qualified_name())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_count_star_root_keeps_no_column() {
        let mut spec = chain();
        spec.output = select(vec![SelectExpr::Aggregate {
            func: reopt_sql::AggregateFunc::Count,
            arg: None,
        }]);
        assert!(visible(&spec, RelSet::all(3)).is_empty());
        // Below the root the join keys are still carried.
        assert_eq!(visible(&spec, RelSet::from_indexes([0, 1])), ["b.c_id"]);
    }

    #[test]
    fn restrict_keeps_the_subset_and_outputs_its_visible_columns() {
        let mut spec = chain();
        let predicate = Expr::binary(
            reopt_expr::BinaryOp::Gt,
            Expr::col("b", "pad"),
            Expr::col("c", "name"),
        );
        spec.complex_predicates
            .push((spec.rel_set_of(&predicate), predicate));
        let subset = RelSet::from_indexes([1, 2]);
        let restricted = spec.restrict(subset);
        // b and c, re-indexed from 0; the a filter and the a-b edge stay outside.
        let aliases: Vec<&str> = restricted.relations.iter().map(|r| r.alias.as_str()).collect();
        assert_eq!(aliases, ["b", "c"]);
        assert_eq!(restricted.relations[1].index, 1);
        assert!(restricted.local_predicates.iter().all(Vec::is_empty));
        assert_eq!(restricted.join_edges.len(), 1);
        assert_eq!(restricted.join_edges[0].rel_set(), RelSet::all(2));
        assert_eq!(restricted.complex_predicates[0].0, RelSet::all(2));
        // The output is what the rest of the query reads: b.a_id for the a-b edge and
        // c.name for the SELECT list.
        let output: Vec<String> = restricted
            .output
            .iter()
            .map(|item| item.expr.to_sql())
            .collect();
        assert_eq!(output, visible(&spec, subset));
        assert_eq!(output, ["b.a_id", "c.name"]);
        assert!(restricted.group_by.is_empty() && restricted.limit.is_none());
        // The a side keeps its filter.
        assert_eq!(spec.restrict(RelSet::single(0)).local_predicates[0].len(), 1);
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
