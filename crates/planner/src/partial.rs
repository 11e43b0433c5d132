//! Plan-from-partial-state: seed join enumeration with pre-joined relation sets.
//!
//! Both kinds of re-optimization round end the same way: the rows of a relation
//! subset — every row, with all of the subset's local predicates and join edges
//! already applied — exist as a temporary table, and the optimizer re-plans only the
//! **remaining** join order around it. A materialize restart gets those rows by
//! executing the subset's restriction ([`QuerySpec::restrict`]); a mid-query round
//! finds them already buffered in a completed pipeline breaker (a hash-build side or
//! nested-loop inner) of the suspended run.
//!
//! [`collapse_spec`] performs the query-level half of that: it rewrites a bound
//! [`QuerySpec`] so the materialized subset becomes a single base relation backed by
//! the temporary table. A plan node over a relation set S carries exactly the columns
//! *visible* at S ([`ColumnUse::visible_at`](crate::spec::ColumnUse::visible_at)),
//! each qualified by its original alias: the columns the SELECT list, GROUP BY or
//! ORDER BY read, and those a join edge or complex predicate reaching outside S reads.
//! That is precisely everything the rest of the query reads of S — and precisely the
//! output of S's restriction — so the materialized rows hold every column the
//! collapsed spec binds, and no column renaming or expression rewriting is needed:
//! the crossing join edges and complex predicates, the SELECT list, GROUP BY and
//! ORDER BY bind against the virtual relation's schema verbatim. Join enumeration
//! over the collapsed spec is therefore *seeded* with the pre-joined set as one atomic
//! leaf: DPccp can no longer split it, and the true cardinality of the set (from the
//! table's ANALYZE statistics) anchors every estimate above it.
//!
//! [`CollapsedSpec::remap`] translates relation subsets from the original indexing
//! into the collapsed one, so that observed cardinalities can be re-injected as
//! [`CardinalityOverrides`](crate::CardinalityOverrides) for the re-planning round.
//!
//! The collapse also accepts a **mid-stream, partially-consumed** breaker set: when a
//! suspension is triggered by a streaming progress signal rather than the breaker's
//! own completion, a completed hash build elsewhere in the plan may already have been
//! partially probed by its parent. The buffered rows themselves are still the exact,
//! complete materialization of their subtree (breakers fully drain their input before
//! anything consumes them), so collapsing around such a set stays correct — the
//! re-planned remainder simply recomputes whatever probing was in flight. The only
//! constraint is structural: the subset must be a non-empty proper subset of the
//! query's relations.

use crate::relset::RelSet;
use crate::spec::{JoinEdge, QuerySpec, RelationSpec};
use reopt_storage::Schema;

/// The result of collapsing a relation subset into a virtual leaf relation.
#[derive(Debug, Clone, PartialEq)]
pub struct CollapsedSpec {
    /// The rewritten query: the subset's relations replaced by one virtual relation.
    pub spec: QuerySpec,
    /// The subset (in the *original* indexing) that was collapsed.
    pub subset: RelSet,
    /// Maps old relation indexes to new ones; `None` for members of the collapsed
    /// subset (they are all represented by [`CollapsedSpec::virtual_index`]).
    pub mapping: Vec<Option<usize>>,
    /// The index of the virtual relation in the new spec.
    pub virtual_index: usize,
}

impl CollapsedSpec {
    /// Translate a relation subset from the original indexing into this collapse's.
    ///
    /// Returns `None` when the set cannot be expressed in the collapsed spec: a strict
    /// subset of the collapsed relations (its cardinality is interior to the virtual
    /// leaf) or a partial overlap (the virtual leaf cannot be split). Sets disjoint
    /// from the collapsed subset map member-wise; sets containing it map onto the
    /// remapped members plus the virtual relation; the collapsed subset itself maps to
    /// the virtual singleton.
    pub fn remap(&self, set: RelSet) -> Option<RelSet> {
        if set.is_empty() {
            return None;
        }
        let outside = set.difference(self.subset);
        let mapped = RelSet::from_indexes(
            outside
                .iter()
                .map(|rel| self.mapping[rel].expect("relation outside the subset has a mapping")),
        );
        if set.is_disjoint(self.subset) {
            Some(mapped)
        } else if self.subset.is_subset_of(set) {
            Some(mapped.insert(self.virtual_index))
        } else {
            None
        }
    }
}

/// Collapse `subset` into a single virtual relation named `alias`, backed by the
/// storage table `table` whose schema is the materialized subtree's output schema
/// (columns qualified by the *original* relation aliases).
///
/// Everything the subtree already computed is dropped from the collapsed spec: the
/// subset members' local predicates, the join edges fully inside the subset, and the
/// complex predicates fully inside the subset. Edges and predicates crossing the
/// boundary are kept verbatim — their column references still resolve because the
/// virtual relation's schema retains the original qualifiers, and a column they read
/// reaches outside the subset, so it is visible there and in the materialized rows.
///
/// Returns `None` when `subset` is empty or covers every relation of the query: there
/// is nothing to collapse, or nothing left to plan around the leaf.
pub fn collapse_spec(
    spec: &QuerySpec,
    subset: RelSet,
    alias: &str,
    table: &str,
    schema: Schema,
) -> Option<CollapsedSpec> {
    if subset.is_empty() || !subset.is_proper_subset_of(spec.all_relations()) {
        return None;
    }

    let mut mapping: Vec<Option<usize>> = Vec::with_capacity(spec.relation_count());
    let mut relations: Vec<RelationSpec> = Vec::new();
    let mut local_predicates: Vec<Vec<reopt_expr::Expr>> = Vec::new();
    for relation in &spec.relations {
        if subset.contains(relation.index) {
            mapping.push(None);
        } else {
            let index = relations.len();
            mapping.push(Some(index));
            relations.push(RelationSpec {
                index,
                alias: relation.alias.clone(),
                table: relation.table.clone(),
                schema: relation.schema.clone(),
            });
            local_predicates.push(spec.local_predicates[relation.index].clone());
        }
    }
    let virtual_index = relations.len();
    relations.push(RelationSpec {
        index: virtual_index,
        alias: alias.to_string(),
        table: table.to_string(),
        schema,
    });
    // The virtual relation's predicates were all applied while materializing it.
    local_predicates.push(Vec::new());

    let map_rel = |old: usize| mapping[old].unwrap_or(virtual_index);

    let join_edges: Vec<JoinEdge> = spec
        .join_edges
        .iter()
        .filter(|edge| !(subset.contains(edge.left_rel) && subset.contains(edge.right_rel)))
        .map(|edge| JoinEdge {
            left_rel: map_rel(edge.left_rel),
            left_column: edge.left_column.clone(),
            right_rel: map_rel(edge.right_rel),
            right_column: edge.right_column.clone(),
        })
        .collect();

    let complex_predicates = spec
        .complex_predicates
        .iter()
        .filter(|(set, _)| !set.is_subset_of(subset))
        .map(|(set, predicate)| {
            let remapped = RelSet::from_indexes(set.iter().map(map_rel));
            (remapped, predicate.clone())
        })
        .collect();

    Some(CollapsedSpec {
        spec: QuerySpec {
            relations,
            local_predicates,
            join_edges,
            complex_predicates,
            output: spec.output.clone(),
            group_by: spec.group_by.clone(),
            order_by: spec.order_by.clone(),
            limit: spec.limit,
        },
        subset,
        mapping,
        virtual_index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_expr::{ColumnRef, Expr};
    use reopt_sql::{SelectExpr, SelectItem};
    use reopt_storage::{Column, DataType};

    fn rel(index: usize, alias: &str, table: &str, columns: &[&str]) -> RelationSpec {
        RelationSpec {
            index,
            alias: alias.into(),
            table: table.into(),
            schema: Schema::new(
                columns
                    .iter()
                    .map(|c| Column::new(*c, DataType::Int))
                    .collect(),
            )
            .qualified(alias),
        }
    }

    /// A chain t -(id = mk.movie_id)- mk -(keyword_id = k.id)- k with a filter on k
    /// and a complex predicate across t and k.
    fn spec() -> QuerySpec {
        QuerySpec {
            relations: vec![
                rel(0, "t", "title", &["id", "production_year"]),
                rel(1, "mk", "movie_keyword", &["movie_id", "keyword_id"]),
                rel(2, "k", "keyword", &["id", "keyword"]),
            ],
            local_predicates: vec![
                vec![],
                vec![],
                vec![Expr::eq(Expr::col("k", "keyword"), Expr::lit(7))],
            ],
            join_edges: vec![
                JoinEdge {
                    left_rel: 0,
                    left_column: ColumnRef::qualified("t", "id"),
                    right_rel: 1,
                    right_column: ColumnRef::qualified("mk", "movie_id"),
                },
                JoinEdge {
                    left_rel: 1,
                    left_column: ColumnRef::qualified("mk", "keyword_id"),
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

    fn virtual_schema(spec: &QuerySpec, subset: RelSet) -> Schema {
        spec.schema_of(subset)
    }

    #[test]
    fn collapse_replaces_subset_with_virtual_leaf() {
        let spec = spec();
        let subset = RelSet::from_indexes([1, 2]);
        let collapsed = collapse_spec(
            &spec,
            subset,
            "mq1",
            "reopt_mq1",
            virtual_schema(&spec, subset),
        )
        .unwrap();

        assert_eq!(collapsed.spec.relation_count(), 2);
        assert_eq!(collapsed.mapping, vec![Some(0), None, None]);
        assert_eq!(collapsed.virtual_index, 1);
        // The surviving relation is re-indexed, the virtual one appended.
        assert_eq!(collapsed.spec.relations[0].alias, "t");
        assert_eq!(collapsed.spec.relations[0].index, 0);
        assert_eq!(collapsed.spec.relations[1].alias, "mq1");
        assert_eq!(collapsed.spec.relations[1].table, "reopt_mq1");
        // The k filter was applied inside the subtree and is gone; the virtual
        // relation carries no local predicates.
        assert!(collapsed.spec.local_predicates[1].is_empty());
        // The mk-k edge collapsed away; the t-mk edge now targets the virtual leaf
        // with its original column references intact.
        assert_eq!(collapsed.spec.join_edges.len(), 1);
        let edge = &collapsed.spec.join_edges[0];
        assert_eq!((edge.left_rel, edge.right_rel), (0, 1));
        assert_eq!(edge.right_column, ColumnRef::qualified("mk", "movie_id"));
        // The t/k complex predicate crosses the boundary: kept, with k mapped to the
        // virtual index.
        assert_eq!(collapsed.spec.complex_predicates.len(), 1);
        assert_eq!(
            collapsed.spec.complex_predicates[0].0,
            RelSet::from_indexes([0, 1])
        );
        // The virtual schema still binds the original qualified columns.
        let schema = &collapsed.spec.relations[1].schema;
        assert!(schema.index_of(Some("mk"), "movie_id").is_ok());
        assert!(schema.index_of(Some("k"), "keyword").is_ok());
    }

    #[test]
    fn collapse_of_singleton_keeps_other_relations() {
        let spec = spec();
        let subset = RelSet::single(2);
        let collapsed =
            collapse_spec(&spec, subset, "mq1", "reopt_mq1", virtual_schema(&spec, subset))
                .unwrap();
        assert_eq!(collapsed.spec.relation_count(), 3);
        assert_eq!(collapsed.virtual_index, 2);
        // Both edges survive; the mk-k edge now points at the virtual leaf.
        assert_eq!(collapsed.spec.join_edges.len(), 2);
        assert_eq!(collapsed.spec.join_edges[1].right_rel, 2);
        // k's filter is gone (applied during materialization).
        assert!(collapsed.spec.local_predicates[2].is_empty());
    }

    #[test]
    fn remap_translates_observed_subsets() {
        let spec = spec();
        let subset = RelSet::from_indexes([1, 2]);
        let collapsed =
            collapse_spec(&spec, subset, "mq1", "reopt_mq1", virtual_schema(&spec, subset))
                .unwrap();
        let remap = |set: RelSet| collapsed.remap(set);
        // Disjoint: maps member-wise.
        assert_eq!(remap(RelSet::single(0)), Some(RelSet::single(0)));
        // The subset itself: the virtual singleton.
        assert_eq!(remap(subset), Some(RelSet::single(1)));
        // A superset: outside members plus the virtual leaf.
        assert_eq!(remap(RelSet::all(3)), Some(RelSet::from_indexes([0, 1])));
        // Interior and partially-overlapping sets are inexpressible.
        assert_eq!(remap(RelSet::single(1)), None);
        assert_eq!(remap(RelSet::from_indexes([0, 1])), None);
        assert_eq!(remap(RelSet::EMPTY), None);
    }

    #[test]
    fn collapsing_everything_or_nothing_returns_none() {
        let spec = spec();
        for subset in [RelSet::all(3), RelSet::EMPTY] {
            assert_eq!(
                collapse_spec(&spec, subset, "mq1", "reopt_mq1", Schema::empty()),
                None,
                "{subset}"
            );
        }
    }
}
