//! Join-order enumeration.
//!
//! Two strategies are provided, mirroring PostgreSQL's split between exhaustive dynamic
//! programming and a heuristic fallback for very large join graphs:
//!
//! * [`EnumerationAlgorithm::DpCcp`] — the connected-subgraph / complement-pair
//!   enumeration of Moerkotte & Neumann ("Analysis of Two Existing and One New Dynamic
//!   Programming Algorithm", VLDB 2006). It enumerates every bushy join order without
//!   Cartesian products and is efficient on the sparse (mostly snowflake-shaped) join
//!   graphs of the Join Order Benchmark.
//! * [`EnumerationAlgorithm::Greedy`] — greedy operator ordering (GOO): repeatedly join
//!   the pair of sub-plans with the smallest estimated output. Used beyond the
//!   `greedy_threshold` (PostgreSQL switches to GEQO at `geqo_threshold`), and as a
//!   baseline for the ablation benchmarks.
//!
//! Both fill one table of *prices*, not plans: per relation set the cheapest known
//! `(cost, rows, split)`, the Selinger recurrence `DP[S] = DP[S₁] ⋈ DP[S₂]` over costs,
//! where `split` points back at the two subsets and the join algorithm. The plan tree
//! is built once, after the search, by following the back-pointers from the full set:
//! exactly n − 1 join nodes per planning call, each taking its children by value.
//!
//! For every candidate join the enumerator prices a hash join (both build directions)
//! and an index nested-loop join (when the inner side is a single base relation with an
//! index on the join key), keeping the cheapest — so a large cardinality underestimate
//! can flip the choice to a nested-loop strategy, which is exactly the failure mode the
//! paper's query 18a walk-through describes. A plain nested-loop join is the fallback
//! when neither applies.
//!
//! Pricing one csg-cmp pair is arithmetic. The loop looks up both inputs and the
//! union's current best in the DP table, and the union's cardinality in the
//! estimator's cache (all [`RelSetMap`]s, one multiply per hash). It counts the join
//! keys and collects the indexed edge ends by testing each edge's precomputed endpoint
//! masks, walks the complex predicates only when the query has any, and keeps a
//! running minimum over at most four calls of `join_cost`, the cost formula that
//! building the plan uses too. Nothing is allocated and no edge struct is read; the
//! join edges and complex predicates themselves are only touched again when the n − 1
//! join nodes of the winning plan are built.

use crate::cardinality::CardinalityEstimator;
use crate::cost::{Cost, CostModel};
use crate::error::PlanError;
use crate::graph::JoinGraph;
use crate::optimizer::OptimizerConfig;
use crate::plan::{JoinAlgorithm, PhysicalPlan, PlanKind};
use crate::relset::{RelSet, RelSetMap};
use crate::spec::{ColumnUses, JoinEdge, QuerySpec};
use reopt_expr::{conjoin, Expr};
use std::collections::hash_map::Entry;

/// Which enumeration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationAlgorithm {
    /// Exhaustive DP over connected subgraph / complement pairs (bushy, no cross joins).
    DpCcp,
    /// Greedy operator ordering.
    Greedy,
}

/// Callback answering "does relation `rel` have an index on `column`?" and
/// "how many rows does the underlying table have?".
pub trait IndexInfo {
    /// Whether an index exists on the (unqualified) column of the relation's table.
    fn has_index(&self, rel: usize, column: &str) -> bool;
    /// The unfiltered row count of the relation's table.
    fn table_rows(&self, rel: usize) -> f64;
}

/// One DP-table entry: the price of the cheapest plan found so far for a relation set,
/// and how to build it — `split` is `(outer, inner, algorithm)` for a join and `None`
/// for a base relation's access path.
#[derive(Debug, Clone, Copy)]
struct DpEntry {
    cost: Cost,
    rows: f64,
    split: Option<(RelSet, RelSet, JoinAlgorithm)>,
}

type DpTable = RelSetMap<DpEntry>;

/// The table's starting entries: one per base relation's access path.
fn base_table(base_plans: &[PhysicalPlan]) -> DpTable {
    base_plans
        .iter()
        .map(|plan| {
            let entry = DpEntry {
                cost: plan.cost,
                rows: plan.estimated_rows,
                split: None,
            };
            (plan.rel_set, entry)
        })
        .collect()
}

/// What pricing needs to know about one join input.
#[derive(Debug, Clone, Copy)]
struct Input {
    rel_set: RelSet,
    cost: Cost,
    estimated_rows: f64,
}

impl Input {
    fn of_plan(plan: &PhysicalPlan) -> Self {
        Self {
            rel_set: plan.rel_set,
            cost: plan.cost,
            estimated_rows: plan.estimated_rows,
        }
    }

    fn of_entry(table: &DpTable, rel_set: RelSet) -> Option<Self> {
        table.get(&rel_set).map(|entry| Self {
            rel_set,
            cost: entry.cost,
            estimated_rows: entry.rows,
        })
    }
}

/// One join edge as masks: its two endpoint bits, and the relations indexed on their
/// end of it. Pricing tests these instead of reading the [`JoinEdge`].
#[derive(Debug, Clone, Copy)]
struct EdgeMask {
    left: u64,
    right: u64,
    indexed: RelSet,
}

impl EdgeMask {
    /// Whether the edge has one end in each of the (disjoint) masks `a` and `b`.
    fn connects(self, a: u64, b: u64) -> bool {
        (self.left & a != 0 && self.right & b != 0) || (self.left & b != 0 && self.right & a != 0)
    }
}

/// `candidate` replaces `best` only when its total is strictly smaller, so the first
/// of equal totals wins.
fn keep_cheaper(best: &mut Option<DpEntry>, candidate: DpEntry) {
    if best.map_or(true, |best| candidate.cost.total < best.cost.total) {
        *best = Some(candidate);
    }
}

/// The join enumerator.
pub struct JoinEnumerator<'a> {
    spec: &'a QuerySpec,
    graph: &'a JoinGraph,
    estimator: &'a CardinalityEstimator<'a>,
    cost_model: &'a CostModel,
    config: &'a OptimizerConfig,
    /// Which columns each join node carries (its `rel_set`'s visible columns).
    uses: &'a ColumnUses,
    /// Per join edge (in [`QuerySpec::join_edges`] order), its endpoint masks and the
    /// relations indexed on their end of it.
    edges: Vec<EdgeMask>,
    /// Per relation, the unfiltered row count of its table.
    table_rows: Vec<f64>,
}

impl<'a> JoinEnumerator<'a> {
    /// Create an enumerator for one query. `index_info` is asked once per join-edge
    /// side and once per relation, never per priced pair; `uses` is the spec's
    /// [`QuerySpec::column_uses`], which shapes every join node's schema.
    pub fn new(
        spec: &'a QuerySpec,
        graph: &'a JoinGraph,
        estimator: &'a CardinalityEstimator<'a>,
        config: &'a OptimizerConfig,
        uses: &'a ColumnUses,
        index_info: &dyn IndexInfo,
    ) -> Self {
        let edges = spec
            .join_edges
            .iter()
            .map(|edge| EdgeMask {
                left: RelSet::single(edge.left_rel).mask(),
                right: RelSet::single(edge.right_rel).mask(),
                indexed: [
                    (edge.left_rel, &edge.left_column.name),
                    (edge.right_rel, &edge.right_column.name),
                ]
                .into_iter()
                .filter(|(rel, column)| index_info.has_index(*rel, column))
                .fold(RelSet::EMPTY, |ends, (rel, _)| ends.insert(rel)),
            })
            .collect();
        let table_rows = (0..spec.relation_count())
            .map(|rel| index_info.table_rows(rel))
            .collect();
        Self {
            spec,
            graph,
            estimator,
            cost_model: &config.cost_model,
            config,
            uses,
            edges,
            table_rows,
        }
    }

    /// Find the cheapest join order for the given per-relation access paths.
    ///
    /// `base_plans[i]` must be the chosen access path for relation `i`.
    pub fn enumerate(
        &self,
        base_plans: Vec<PhysicalPlan>,
        algorithm: EnumerationAlgorithm,
    ) -> Result<PhysicalPlan, PlanError> {
        let n = base_plans.len();
        assert_eq!(n, self.spec.relation_count());
        debug_assert!(base_plans
            .iter()
            .enumerate()
            .all(|(rel, plan)| plan.rel_set == RelSet::single(rel)));
        if n == 1 {
            return Ok(base_plans.into_iter().next().expect("one plan"));
        }
        if !self.graph.is_fully_connected() {
            return Err(PlanError::DisconnectedJoinGraph);
        }
        let mut table = base_table(&base_plans);
        match algorithm {
            EnumerationAlgorithm::DpCcp => self.dpccp(&mut table, n),
            EnumerationAlgorithm::Greedy => self.greedy(&mut table, n)?,
        }
        if !table.contains_key(&RelSet::all(n)) {
            return Err(PlanError::DisconnectedJoinGraph);
        }
        let mut base: Vec<Option<PhysicalPlan>> = base_plans.into_iter().map(Some).collect();
        Ok(self.build(&table, &mut base, RelSet::all(n)))
    }

    /// Exhaustive DP over csg-cmp pairs.
    fn dpccp(&self, table: &mut DpTable, n: usize) {
        // Process pairs in increasing size of the joined set so both inputs are final
        // before they are priced: bucket by size (O(pairs)) instead of sorting.
        let pairs = enumerate_csg_cmp_pairs(self.graph, n);
        let mut buckets: Vec<Vec<(RelSet, RelSet)>> = vec![Vec::new(); n + 1];
        for (s1, s2) in pairs {
            buckets[s1.union(s2).len()].push((s1, s2));
        }

        for (s1, s2) in buckets.into_iter().flatten() {
            let (Some(left), Some(right)) =
                (Input::of_entry(table, s1), Input::of_entry(table, s2))
            else {
                continue;
            };
            let Some(candidate) = self.cheapest_join(left, right) else {
                continue;
            };
            match table.entry(s1.union(s2)) {
                Entry::Occupied(mut best) => {
                    if candidate.cost.is_cheaper_than(best.get().cost) {
                        best.insert(candidate);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(candidate);
                }
            }
        }
    }

    /// Greedy operator ordering: repeatedly join the connected pair of components with
    /// the smallest estimated result.
    fn greedy(&self, table: &mut DpTable, n: usize) -> Result<(), PlanError> {
        let mut components: Vec<RelSet> = (0..n).map(RelSet::single).collect();
        while components.len() > 1 {
            let mut best_pair: Option<(usize, usize, DpEntry)> = None;
            for i in 0..components.len() {
                for j in (i + 1)..components.len() {
                    let (Some(left), Some(right)) = (
                        Input::of_entry(table, components[i]),
                        Input::of_entry(table, components[j]),
                    ) else {
                        continue;
                    };
                    let Some(candidate) = self.cheapest_join(left, right) else {
                        continue;
                    };
                    let better = best_pair.map_or(true, |(_, _, best)| {
                        candidate.rows < best.rows
                            || (candidate.rows == best.rows
                                && candidate.cost.is_cheaper_than(best.cost))
                    });
                    if better {
                        best_pair = Some((i, j, candidate));
                    }
                }
            }
            let Some((i, j, entry)) = best_pair else {
                return Err(PlanError::DisconnectedJoinGraph);
            };
            let joined = components[i].union(components[j]);
            // Remove j first (it is the larger index).
            components.remove(j);
            components.remove(i);
            components.push(joined);
            table.insert(joined, entry);
        }
        Ok(())
    }

    /// The join edges connecting the disjoint sets `a` and `b`, each with the
    /// relations indexed on its ends.
    fn connecting_edges(
        &self,
        a: RelSet,
        b: RelSet,
    ) -> impl Iterator<Item = (&'a JoinEdge, RelSet)> + '_ {
        self.spec
            .join_edges
            .iter()
            .zip(self.edges.iter().map(|edge| edge.indexed))
            .filter(move |(edge, _)| edge.connects(a, b))
    }

    /// Price every enabled join strategy for two disjoint inputs and return the winner
    /// as the DP entry of their union, or `None` if no join edge connects them
    /// (Cartesian products are not considered).
    ///
    /// Pure arithmetic: nothing is allocated. The join keys and the indexed ends are
    /// counted by mask tests on each edge's [`EdgeMask`]; the complex predicates are
    /// walked only when the query has any; the union's rows come from the estimator's
    /// cache after its first pair. The enabled strategies are priced in a fixed order —
    /// hash `L ⋈ R`, hash `R ⋈ L`, index nested loop with `R` inner, then with `L`
    /// inner — into a running minimum that only a strictly smaller total replaces, so
    /// the first of equal totals wins. A plain nested loop is the fallback when none is
    /// enabled.
    fn cheapest_join(&self, left: Input, right: Input) -> Option<DpEntry> {
        let (a, b) = (left.rel_set.mask(), right.rel_set.mask());
        let mut keys = 0;
        let mut indexed = RelSet::EMPTY;
        for edge in &self.edges {
            if edge.connects(a, b) {
                keys += 1;
                indexed = indexed.union(edge.indexed);
            }
        }
        if keys == 0 {
            return None;
        }
        let rows = self
            .estimator
            .estimate(left.rel_set.union(right.rel_set))
            .max(1.0);
        let complex = if self.spec.complex_predicates.is_empty() {
            0
        } else {
            self.spec
                .complex_predicates_for_join(left.rel_set, right.rel_set)
                .count()
        };
        use JoinAlgorithm::{Hash, IndexNestedLoop, NestedLoop};
        let mut best = None;
        if self.config.enable_hash_joins {
            keep_cheaper(
                &mut best,
                self.priced(Hash, left, right, keys, complex, rows),
            );
            keep_cheaper(
                &mut best,
                self.priced(Hash, right, left, keys, complex, rows),
            );
        }
        // An index nested-loop inner is a single base relation indexed on a join key.
        if self.config.enable_index_nl_joins {
            if right.rel_set.len() == 1 && right.rel_set.is_subset_of(indexed) {
                let candidate = self.priced(IndexNestedLoop, left, right, keys, complex, rows);
                keep_cheaper(&mut best, candidate);
            }
            if left.rel_set.len() == 1 && left.rel_set.is_subset_of(indexed) {
                let candidate = self.priced(IndexNestedLoop, right, left, keys, complex, rows);
                keep_cheaper(&mut best, candidate);
            }
        }
        Some(best.unwrap_or_else(|| self.priced(NestedLoop, left, right, keys, complex, rows)))
    }

    /// The DP entry of joining `outer` with `inner` by `algorithm`, priced by
    /// [`Self::join_cost`].
    fn priced(
        &self,
        algorithm: JoinAlgorithm,
        outer: Input,
        inner: Input,
        keys: usize,
        complex: usize,
        rows: f64,
    ) -> DpEntry {
        DpEntry {
            cost: self.join_cost(algorithm, outer, inner, keys, complex, rows),
            rows,
            split: Some((outer.rel_set, inner.rel_set, algorithm)),
        }
    }

    /// The cost of joining `outer` with `inner` by `algorithm` over `keys` join keys
    /// and `complex` complex predicates — the one formula both pricing and
    /// [`Self::build`] use.
    fn join_cost(
        &self,
        algorithm: JoinAlgorithm,
        outer: Input,
        inner: Input,
        keys: usize,
        complex: usize,
        rows: f64,
    ) -> Cost {
        let model = self.cost_model;
        match algorithm {
            JoinAlgorithm::Hash => model.hash_join(
                outer.cost,
                inner.cost,
                outer.estimated_rows,
                inner.estimated_rows,
                rows,
                keys,
            ),
            JoinAlgorithm::NestedLoop => model.nested_loop_join(
                outer.cost,
                inner.cost,
                outer.estimated_rows,
                inner.estimated_rows,
                rows,
            ),
            JoinAlgorithm::IndexNestedLoop => {
                let inner_rel = inner.rel_set.min_index().expect("single relation");
                let inner_table_rows = self.table_rows[inner_rel];
                let matches_per_lookup =
                    (rows / outer.estimated_rows.max(1.0)).clamp(0.1, inner_table_rows);
                let has_inner_predicate = !self.spec.local_predicates[inner_rel].is_empty();
                let residual_count = (keys - 1) + complex + (has_inner_predicate as usize);
                model.index_nested_loop_join(
                    outer.cost,
                    outer.estimated_rows,
                    inner_table_rows,
                    matches_per_lookup,
                    rows,
                    residual_count,
                )
            }
        }
    }

    /// Materialize the plan for `set` from the table's back-pointers, moving each base
    /// access path out of `base` into the tree.
    fn build(
        &self,
        table: &DpTable,
        base: &mut [Option<PhysicalPlan>],
        set: RelSet,
    ) -> PhysicalPlan {
        // Every split names two sets that were in the table before it was priced.
        let entry = table[&set];
        let Some((outer, inner, algorithm)) = entry.split else {
            let rel = set.min_index().expect("base entry");
            return base[rel].take().expect("each access path is built once");
        };
        let outer = self.build(table, base, outer);
        let inner = self.build(table, base, inner);
        let node = self.join(algorithm, outer, inner, entry.rows);
        debug_assert!(
            node.cost == entry.cost && node.estimated_rows == entry.rows,
            "{set}: built {:?} / {} rows, priced {:?} / {} rows",
            node.cost,
            node.estimated_rows,
            entry.cost,
            entry.rows
        );
        node
    }

    /// The join node over two built inputs. An index nested-loop join reads its inner
    /// relation through the index, so that input's access path is dropped. The node
    /// carries only the columns visible at its relation set.
    fn join(
        &self,
        algorithm: JoinAlgorithm,
        outer: PhysicalPlan,
        inner: PhysicalPlan,
        rows: f64,
    ) -> PhysicalPlan {
        let edges: Vec<(&JoinEdge, RelSet)> = self
            .connecting_edges(outer.rel_set, inner.rel_set)
            .collect();
        let complex: Vec<Expr> = self
            .spec
            .complex_predicates_for_join(outer.rel_set, inner.rel_set)
            .cloned()
            .collect();
        let cost = self.join_cost(
            algorithm,
            Input::of_plan(&outer),
            Input::of_plan(&inner),
            edges.len(),
            complex.len(),
            rows,
        );
        let rel_set = outer.rel_set.union(inner.rel_set);
        let schema = self.uses.schema_of(self.spec, rel_set);
        let kind = match algorithm {
            JoinAlgorithm::Hash => PlanKind::HashJoin {
                keys: edges
                    .iter()
                    .filter_map(|(edge, _)| edge.oriented(outer.rel_set))
                    .collect(),
                residual: conjoin(&complex),
            },
            JoinAlgorithm::NestedLoop => {
                let mut predicates: Vec<Expr> = edges.iter().map(|(e, _)| e.to_expr()).collect();
                predicates.extend(complex);
                PlanKind::NestedLoopJoin {
                    predicate: conjoin(&predicates),
                }
            }
            JoinAlgorithm::IndexNestedLoop => {
                let inner_rel = inner.rel_set.min_index().expect("single relation");
                let relation = &self.spec.relations[inner_rel];
                // The lookup key is the first edge indexed on the inner side; the other
                // edges and the complex predicates filter the joined row.
                let key = edges
                    .iter()
                    .position(|(_, ends)| ends.contains(inner_rel))
                    .expect("priced with an indexed join key");
                let (inner_col, outer_col) = edges[key]
                    .0
                    .oriented(inner.rel_set)
                    .expect("a connecting edge orients");
                let mut residual: Vec<Expr> = edges
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| *idx != key)
                    .map(|(_, (e, _))| e.to_expr())
                    .collect();
                residual.extend(complex);
                return PhysicalPlan {
                    kind: PlanKind::IndexNestedLoopJoin {
                        inner_rel,
                        inner_alias: relation.alias.clone(),
                        inner_table: relation.table.clone(),
                        outer_key: outer_col,
                        inner_key: inner_col.name,
                        inner_predicate: conjoin(&self.spec.local_predicates[inner_rel]),
                        residual: conjoin(&residual),
                    },
                    schema,
                    estimated_rows: rows,
                    cost,
                    rel_set,
                    children: vec![outer],
                };
            }
        };
        PhysicalPlan {
            kind,
            schema,
            estimated_rows: rows,
            cost,
            rel_set,
            children: vec![outer, inner],
        }
    }
}

/// Enumerate every connected-subgraph / connected-complement pair of the join graph
/// (each unordered pair is emitted once).
pub fn enumerate_csg_cmp_pairs(graph: &JoinGraph, n: usize) -> Vec<(RelSet, RelSet)> {
    let mut pairs = Vec::new();
    for i in (0..n).rev() {
        let start = RelSet::single(i);
        emit_csg(graph, start, &mut pairs);
        enumerate_csg_rec(graph, start, b_set(i), &mut pairs);
    }
    pairs
}

/// The "prohibited" set {0, ..., i}: nodes that earlier iterations are responsible for.
fn b_set(i: usize) -> RelSet {
    RelSet::all(i + 1)
}

fn enumerate_csg_rec(
    graph: &JoinGraph,
    set: RelSet,
    prohibited: RelSet,
    pairs: &mut Vec<(RelSet, RelSet)>,
) {
    let neighbors = graph.neighbors(set).difference(prohibited);
    if neighbors.is_empty() {
        return;
    }
    for subset in neighbors.nonempty_subsets() {
        emit_csg(graph, set.union(subset), pairs);
    }
    for subset in neighbors.nonempty_subsets() {
        enumerate_csg_rec(graph, set.union(subset), prohibited.union(neighbors), pairs);
    }
}

fn emit_csg(graph: &JoinGraph, s1: RelSet, pairs: &mut Vec<(RelSet, RelSet)>) {
    let min = s1.min_index().expect("csg is non-empty");
    let prohibited = s1.union(b_set(min));
    let neighbors = graph.neighbors(s1).difference(prohibited);
    // Iterate neighbors in descending order, as in the original algorithm
    // (allocation-free bitset walk from the highest set bit down).
    for i in neighbors.iter_descending() {
        let s2 = RelSet::single(i);
        pairs.push((s1, s2));
        enumerate_cmp_rec(
            graph,
            s1,
            s2,
            prohibited.union(b_set(i).intersect(neighbors)),
            pairs,
        );
    }
}

fn enumerate_cmp_rec(
    graph: &JoinGraph,
    s1: RelSet,
    s2: RelSet,
    prohibited: RelSet,
    pairs: &mut Vec<(RelSet, RelSet)>,
) {
    let neighbors = graph.neighbors(s2).difference(prohibited);
    if neighbors.is_empty() {
        return;
    }
    for subset in neighbors.nonempty_subsets() {
        pairs.push((s1, s2.union(subset)));
    }
    for subset in neighbors.nonempty_subsets() {
        enumerate_cmp_rec(
            graph,
            s1,
            s2.union(subset),
            prohibited.union(neighbors),
            pairs,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::CardinalityOverrides;
    use crate::spec::RelationSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use reopt_expr::ColumnRef;
    use reopt_sql::{SelectExpr, SelectItem};
    use reopt_storage::{Column, DataType, Schema};
    use std::collections::HashSet;

    /// Build a QuerySpec with the given undirected edges over `n` relations.
    fn spec_with_edges(n: usize, edges: &[(usize, usize)]) -> QuerySpec {
        let relations: Vec<RelationSpec> = (0..n)
            .map(|i| RelationSpec {
                index: i,
                alias: format!("r{i}"),
                table: format!("table{i}"),
                schema: Schema::new(vec![Column::new("id", DataType::Int)])
                    .qualified(&format!("r{i}")),
            })
            .collect();
        let join_edges = edges
            .iter()
            .map(|&(a, b)| JoinEdge {
                left_rel: a,
                left_column: ColumnRef::qualified(format!("r{a}"), "id"),
                right_rel: b,
                right_column: ColumnRef::qualified(format!("r{b}"), "id"),
            })
            .collect();
        QuerySpec {
            local_predicates: vec![Vec::new(); n],
            relations,
            join_edges,
            complex_predicates: vec![],
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

    /// Brute-force enumeration of csg-cmp pairs for validation: every connected set S1,
    /// every connected S2 disjoint from S1 with an edge between, counted once per
    /// unordered pair.
    fn brute_force_pairs(graph: &JoinGraph, spec: &QuerySpec, n: usize) -> usize {
        let mut count = 0;
        let all = 1u64 << n;
        for m1 in 1..all {
            let s1 = RelSet::from_mask(m1);
            if !graph.is_connected(s1) {
                continue;
            }
            for m2 in (m1 + 1)..all {
                let s2 = RelSet::from_mask(m2);
                if !s1.is_disjoint(s2) || !graph.is_connected(s2) {
                    continue;
                }
                if !spec.edges_between(s1, s2).is_empty() {
                    count += 1;
                }
            }
        }
        count
    }

    fn assert_pair_set_valid(n: usize, edges: &[(usize, usize)]) {
        let spec = spec_with_edges(n, edges);
        let graph = JoinGraph::new(&spec);
        let pairs = enumerate_csg_cmp_pairs(&graph, n);
        // No duplicates (as unordered pairs) and every pair valid.
        let mut seen: HashSet<(u64, u64)> = HashSet::new();
        for (s1, s2) in &pairs {
            assert!(graph.is_connected(*s1), "{s1} not connected");
            assert!(graph.is_connected(*s2), "{s2} not connected");
            assert!(s1.is_disjoint(*s2));
            assert!(!spec.edges_between(*s1, *s2).is_empty());
            let key = if s1.mask() < s2.mask() {
                (s1.mask(), s2.mask())
            } else {
                (s2.mask(), s1.mask())
            };
            assert!(seen.insert(key), "duplicate pair {s1} / {s2}");
        }
        assert_eq!(
            pairs.len(),
            brute_force_pairs(&graph, &spec, n),
            "pair count mismatch for n={n}, edges={edges:?}"
        );
    }

    #[test]
    fn dpccp_pairs_chain() {
        assert_pair_set_valid(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_pair_set_valid(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
    }

    #[test]
    fn dpccp_pairs_star() {
        assert_pair_set_valid(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn dpccp_pairs_cycle_and_clique() {
        assert_pair_set_valid(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_pair_set_valid(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn dpccp_pairs_snowflake() {
        // A small snowflake: hub 0, spokes 1-3, and leaves hanging off the spokes.
        assert_pair_set_valid(7, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)]);
    }

    #[test]
    fn dpccp_handles_two_relations() {
        assert_pair_set_valid(2, &[(0, 1)]);
        let spec = spec_with_edges(2, &[(0, 1)]);
        let graph = JoinGraph::new(&spec);
        let pairs = enumerate_csg_cmp_pairs(&graph, 2);
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn csg_count_matches_known_chain_formula() {
        // For a chain of n nodes the number of csg-cmp pairs is n*(n-1)*(n+1)/6.
        for n in 2..=8 {
            let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
            let spec = spec_with_edges(n, &edges);
            let graph = JoinGraph::new(&spec);
            let pairs = enumerate_csg_cmp_pairs(&graph, n);
            assert_eq!(pairs.len(), n * (n - 1) * (n + 1) / 6, "chain of {n}");
        }
    }

    /// Test access paths: the relations in `indexed` have an index on every column.
    struct FixtureIndexes {
        indexed: RelSet,
        rows: Vec<f64>,
    }

    impl IndexInfo for FixtureIndexes {
        fn has_index(&self, rel: usize, _column: &str) -> bool {
            self.indexed.contains(rel)
        }

        fn table_rows(&self, rel: usize) -> f64 {
            self.rows[rel]
        }
    }

    /// A seeded random connected graph: a random spanning tree over a shuffled
    /// labelling plus a few extra edges.
    fn random_connected_edges(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
        let mut labels: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            labels.swap(i, rng.gen_range(0..i + 1));
        }
        let mut edges: Vec<(usize, usize)> = (1..n)
            .map(|i| (labels[rng.gen_range(0..i)], labels[i]))
            .collect();
        for a in 0..n {
            for b in (a + 1)..n {
                let present = edges.contains(&(a, b)) || edges.contains(&(b, a));
                if !present && rng.gen_bool(0.2) {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// The join graph shapes the reference test covers.
    #[derive(Debug, Clone, Copy)]
    enum Shape {
        Chain,
        Star,
        Cycle,
        Clique,
        Snowflake,
        Random,
    }

    /// A connected graph of `shape` over `n` relations, relabelled by a seeded
    /// shuffle so that hubs and chain ends fall on any relation index.
    fn shaped_edges(rng: &mut StdRng, shape: Shape, n: usize) -> Vec<(usize, usize)> {
        let edges: Vec<(usize, usize)> = match shape {
            Shape::Chain => (1..n).map(|i| (i - 1, i)).collect(),
            Shape::Star => (1..n).map(|i| (0, i)).collect(),
            Shape::Cycle => (1..n).map(|i| (i - 1, i)).chain([(n - 1, 0)]).collect(),
            Shape::Clique => (0..n)
                .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
                .collect(),
            Shape::Snowflake => {
                // Hub 0, spokes 1..=spokes, and the rest hung off the spokes in turn.
                let spokes = (n - 1).min(3);
                let parent = |i| {
                    if i <= spokes {
                        0
                    } else {
                        1 + (i - spokes - 1) % spokes
                    }
                };
                (1..n).map(|i| (parent(i), i)).collect()
            }
            Shape::Random => return random_connected_edges(rng, n),
        };
        let mut labels: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            labels.swap(i, rng.gen_range(0..i + 1));
        }
        edges
            .into_iter()
            .map(|(a, b)| (labels[a], labels[b]))
            .collect()
    }

    /// `cheapest_join` recomputed from the spec's edge structs and the fixture's
    /// indexes, with the rule its doc states: the enabled strategies in order (hash
    /// `L ⋈ R`, hash `R ⋈ L`, index nested loop with `R` inner, then `L` inner), the
    /// first of equal totals winning, and a plain nested loop when none is enabled.
    /// Returns the entry and whether two candidates tied on the smallest total.
    fn reference_join(
        enumerator: &JoinEnumerator<'_>,
        indexes: &FixtureIndexes,
        left: Input,
        right: Input,
    ) -> Option<(DpEntry, bool)> {
        let spec = enumerator.spec;
        let edges = spec.edges_between(left.rel_set, right.rel_set);
        if edges.is_empty() {
            return None;
        }
        let keys = edges.len();
        let complex = spec
            .complex_predicates_for_join(left.rel_set, right.rel_set)
            .count();
        let rows = enumerator
            .estimator
            .estimate(left.rel_set.union(right.rel_set))
            .max(1.0);
        let index_inner = |inner: Input| {
            let [rel] = inner.rel_set.iter().collect::<Vec<_>>()[..] else {
                return false;
            };
            enumerator.config.enable_index_nl_joins
                && indexes.indexed.contains(rel)
                && edges
                    .iter()
                    .any(|e| e.left_rel == rel || e.right_rel == rel)
        };
        let hash = enumerator.config.enable_hash_joins;
        let mut candidates = Vec::new();
        for (enabled, algorithm, outer, inner) in [
            (hash, JoinAlgorithm::Hash, left, right),
            (hash, JoinAlgorithm::Hash, right, left),
            (
                index_inner(right),
                JoinAlgorithm::IndexNestedLoop,
                left,
                right,
            ),
            (
                index_inner(left),
                JoinAlgorithm::IndexNestedLoop,
                right,
                left,
            ),
        ] {
            if enabled {
                candidates.push(enumerator.priced(algorithm, outer, inner, keys, complex, rows));
            }
        }
        let Some(min) = candidates
            .iter()
            .map(|c| c.cost.total)
            .min_by(|a, b| a.total_cmp(b))
        else {
            let fallback =
                enumerator.priced(JoinAlgorithm::NestedLoop, left, right, keys, complex, rows);
            return Some((fallback, false));
        };
        let mut at_min = candidates.iter().filter(|c| c.cost.total == min);
        let first = *at_min.next().expect("the minimum is a candidate's");
        Some((first, at_min.next().is_some()))
    }

    /// Whether two DP entries are the same to the bit.
    fn same_entry(a: DpEntry, b: DpEntry) -> bool {
        a.cost.startup.to_bits() == b.cost.startup.to_bits()
            && a.cost.total.to_bits() == b.cost.total.to_bits()
            && a.rows.to_bits() == b.rows.to_bits()
            && a.split == b.split
    }

    /// The optimal root `(cost.total, rows)` by DPsub: every connected subset in
    /// increasing size, every split of it into two connected halves in both orders,
    /// priced through the enumerator's own `cheapest_join`, each of whose answers is
    /// checked against [`reference_join`]. Also returns how many priced pairs had a
    /// tie on the smallest total, so callers can check the tie rule was exercised.
    fn dpsub_root(
        enumerator: &JoinEnumerator<'_>,
        indexes: &FixtureIndexes,
        base: &[PhysicalPlan],
    ) -> ((f64, f64), usize) {
        let n = base.len();
        let graph = enumerator.graph;
        let connected: Vec<bool> = (0..1u64 << n)
            .map(|mask| mask != 0 && graph.is_connected(RelSet::from_mask(mask)))
            .collect();
        let mut table = base_table(base);
        let mut ties = 0;
        let mut sets: Vec<RelSet> = (1..1u64 << n)
            .filter(|mask| connected[*mask as usize])
            .map(RelSet::from_mask)
            .filter(|s| s.len() > 1)
            .collect();
        sets.sort_by_key(|s| s.len());
        for set in sets {
            for s1 in set.nonempty_subsets().filter(|s1| *s1 != set) {
                let s2 = set.difference(s1);
                if !connected[s1.mask() as usize] || !connected[s2.mask() as usize] {
                    continue;
                }
                let left = Input::of_entry(&table, s1).expect("smaller sets come first");
                let right = Input::of_entry(&table, s2).expect("smaller sets come first");
                let candidate = enumerator.cheapest_join(left, right);
                let reference = reference_join(enumerator, indexes, left, right);
                match (candidate, reference) {
                    (None, None) => continue,
                    (Some(candidate), Some((expected, tied))) => {
                        assert!(
                            same_entry(candidate, expected),
                            "{s1} ⋈ {s2}: priced {candidate:?}, expected {expected:?}"
                        );
                        ties += tied as usize;
                        if table
                            .get(&set)
                            .map_or(true, |best| candidate.cost.total < best.cost.total)
                        {
                            table.insert(set, candidate);
                        }
                    }
                    (candidate, reference) => {
                        panic!("{s1} ⋈ {s2}: priced {candidate:?}, expected {reference:?}")
                    }
                }
            }
        }
        let root = table[&RelSet::all(n)];
        ((root.cost.total, root.rows), ties)
    }

    /// Every join node covers exactly its inputs: two disjoint children, or (index
    /// nested loop) one child plus the indexed inner relation. Returns the join count.
    fn check_join_tree(plan: &PhysicalPlan) -> usize {
        match &plan.kind {
            PlanKind::IndexNestedLoopJoin { inner_rel, .. } => {
                let [outer] = plan.children.as_slice() else {
                    panic!(
                        "index nested-loop join with {} children",
                        plan.children.len()
                    );
                };
                assert!(!outer.rel_set.contains(*inner_rel));
                assert_eq!(plan.rel_set, outer.rel_set.insert(*inner_rel));
                1 + check_join_tree(outer)
            }
            _ if plan.is_join() => {
                let [outer, inner] = plan.children.as_slice() else {
                    panic!("join with {} children", plan.children.len());
                };
                assert!(outer.rel_set.is_disjoint(inner.rel_set));
                assert_eq!(plan.rel_set, outer.rel_set.union(inner.rel_set));
                1 + check_join_tree(outer) + check_join_tree(inner)
            }
            _ => {
                assert_eq!(plan.rel_set.len(), 1, "a leaf is one base relation");
                0
            }
        }
    }

    /// A spec over `edges` with seeded extras: a local filter on some relations, and
    /// (when `complex`) predicates spanning two or three relations.
    fn random_spec(
        rng: &mut StdRng,
        n: usize,
        edges: &[(usize, usize)],
        complex: bool,
    ) -> QuerySpec {
        let mut spec = spec_with_edges(n, edges);
        for (rel, predicates) in spec.local_predicates.iter_mut().enumerate() {
            if rng.gen_bool(0.3) {
                predicates.push(Expr::eq(
                    Expr::col(&format!("r{rel}"), "id"),
                    Expr::lit(7i64),
                ));
            }
        }
        if complex {
            for _ in 0..rng.gen_range(1..4) {
                let width = rng.gen_range(2..4usize).min(n);
                let mut rels: Vec<usize> = Vec::new();
                while rels.len() < width {
                    let rel = rng.gen_range(0..n);
                    if !rels.contains(&rel) {
                        rels.push(rel);
                    }
                }
                let column = |rel: usize| Expr::col(&format!("r{rel}"), "id");
                let sum = rels[1..].iter().fold(column(rels[0]), |acc, &rel| {
                    Expr::binary(reopt_expr::BinaryOp::Add, acc, column(rel))
                });
                let predicate = Expr::binary(reopt_expr::BinaryOp::Lt, sum, Expr::lit(100i64));
                spec.complex_predicates
                    .push((RelSet::from_indexes(rels), predicate));
            }
        }
        spec
    }

    /// DPccp's root `(cost.total, rows)` equals DPsub's to the bit, and both DPccp and
    /// greedy build well-formed trees over every relation, under random indexes, table
    /// sizes, base costs, local filters, complex predicates, cardinality overrides and
    /// index nested-loop switches. Returns the ties DPsub saw.
    fn assert_optimal(
        rng: &mut StdRng,
        n: usize,
        edges: &[(usize, usize)],
        complex: bool,
    ) -> usize {
        let spec = random_spec(rng, n, edges, complex);
        let graph = JoinGraph::new(&spec);
        let catalog = reopt_catalog::Catalog::new();
        let mut overrides = CardinalityOverrides::new();
        for mask in 1..1u64 << n {
            let set = RelSet::from_mask(mask);
            if graph.is_connected(set) && rng.gen_bool(0.4) {
                // Half from a coarse grid, so equal estimates (and tied prices) occur.
                let rows = if rng.gen_bool(0.5) {
                    10f64.powi(rng.gen_range(0..4))
                } else {
                    10f64.powf(rng.gen_range(0.0..6.0)).round()
                };
                overrides.set(set, rows);
            }
        }
        let estimator = CardinalityEstimator::new(&spec, &catalog, &overrides);
        let indexes = FixtureIndexes {
            indexed: RelSet::from_indexes((0..n).filter(|_| rng.gen_bool(0.5))),
            rows: (0..n)
                .map(|_| 10f64.powf(rng.gen_range(1.0..6.0)))
                .collect(),
        };
        let base: Vec<PhysicalPlan> = (0..n)
            .map(|rel| PhysicalPlan {
                kind: PlanKind::SeqScan {
                    rel,
                    alias: spec.relations[rel].alias.clone(),
                    table: spec.relations[rel].table.clone(),
                    predicate: None,
                },
                children: vec![],
                schema: spec.relations[rel].schema.clone(),
                estimated_rows: estimator.estimate(RelSet::single(rel)),
                cost: Cost::new(0.0, rng.gen_range(1.0..10_000.0)),
                rel_set: RelSet::single(rel),
            })
            .collect();
        // Hash joins stay on: both build directions make every priced pair symmetric,
        // so the reference may try each bipartition in either order.
        let config = OptimizerConfig {
            enable_index_nl_joins: rng.gen_bool(0.7),
            ..OptimizerConfig::default()
        };
        let uses = spec.column_uses();
        let enumerator = JoinEnumerator::new(&spec, &graph, &estimator, &config, &uses, &indexes);

        let dp = enumerator
            .enumerate(base.clone(), EnumerationAlgorithm::DpCcp)
            .unwrap();
        let context = format!(
            "n={n} edges={edges:?} complex={:?}",
            spec.complex_predicates
        );
        let ((total, rows), ties) = dpsub_root(&enumerator, &indexes, &base);
        assert_eq!(
            (dp.cost.total.to_bits(), dp.estimated_rows.to_bits()),
            (total.to_bits(), rows.to_bits()),
            "DPccp ({}, {}) against DPsub ({total}, {rows}): {context}",
            dp.cost.total,
            dp.estimated_rows
        );
        assert_eq!(check_join_tree(&dp), n - 1, "{context}");
        assert_eq!(dp.rel_set, RelSet::all(n), "{context}");

        let greedy = enumerator
            .enumerate(base, EnumerationAlgorithm::Greedy)
            .unwrap();
        assert_eq!(greedy.rel_set, RelSet::all(n), "{context}");
        assert_eq!(check_join_tree(&greedy), n - 1, "{context}");
        assert!(dp.cost.total <= greedy.cost.total, "{context}");
        ties
    }

    #[test]
    fn dpccp_is_optimal_on_fixtures_and_random_graphs() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut ties = 0;
        let shapes = [
            Shape::Chain,
            Shape::Star,
            Shape::Cycle,
            Shape::Clique,
            Shape::Snowflake,
            Shape::Random,
        ];
        for n in 3..=10 {
            for shape in shapes {
                for complex in [false, true] {
                    let edges = shaped_edges(&mut rng, shape, n);
                    ties += assert_optimal(&mut rng, n, &edges, complex);
                }
            }
        }
        // Equal totals occurred, so the first-wins tie rule was checked.
        assert!(ties > 0);
    }
}
