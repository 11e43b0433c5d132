//! The join graph: which relations are connected by equi-join predicates.
//!
//! Figures 3 and 4 of the paper draw the join graphs of JOB queries 6d and 18a; the
//! [`JoinGraph::to_dot`] and [`JoinGraph::to_ascii`] renderers reproduce those figures
//! from any bound query.

use crate::relset::RelSet;
use crate::spec::QuerySpec;

/// Adjacency information derived from a [`QuerySpec`].
#[derive(Debug, Clone)]
pub struct JoinGraph {
    /// `adjacency[i]` is the set of relations sharing a join edge with relation `i`.
    adjacency: Vec<RelSet>,
    /// Number of relations.
    n: usize,
}

impl JoinGraph {
    /// Build the join graph of a query.
    pub fn new(spec: &QuerySpec) -> Self {
        let n = spec.relation_count();
        let mut adjacency = vec![RelSet::EMPTY; n];
        for edge in &spec.join_edges {
            adjacency[edge.left_rel] = adjacency[edge.left_rel].insert(edge.right_rel);
            adjacency[edge.right_rel] = adjacency[edge.right_rel].insert(edge.left_rel);
        }
        Self { adjacency, n }
    }

    /// Number of relations (nodes).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Neighbors of a single relation.
    pub fn neighbors_of(&self, index: usize) -> RelSet {
        self.adjacency.get(index).copied().unwrap_or(RelSet::EMPTY)
    }

    /// Neighbors of a set of relations: every relation adjacent to a member of `set`,
    /// excluding the set itself.
    pub fn neighbors(&self, set: RelSet) -> RelSet {
        let mut out = RelSet::EMPTY;
        for idx in set.iter() {
            out = out.union(self.adjacency[idx]);
        }
        out.difference(set)
    }

    /// Whether the induced subgraph on `set` is connected (the empty set and singletons
    /// are considered connected).
    pub fn is_connected(&self, set: RelSet) -> bool {
        let Some(start) = set.min_index() else {
            return true;
        };
        let mut reached = RelSet::single(start);
        loop {
            let frontier = self.neighbors(reached).intersect(set);
            if frontier.is_empty() {
                break;
            }
            reached = reached.union(frontier);
        }
        reached == set
    }

    /// Connected components of the full graph.
    pub fn connected_components(&self) -> Vec<RelSet> {
        let mut remaining = RelSet::all(self.n);
        let mut components = Vec::new();
        while let Some(start) = remaining.min_index() {
            let mut component = RelSet::single(start);
            loop {
                let frontier = self.neighbors(component).intersect(remaining);
                if frontier.is_empty() {
                    break;
                }
                component = component.union(frontier);
            }
            components.push(component);
            remaining = remaining.difference(component);
        }
        components
    }

    /// Whether the whole graph is connected.
    pub fn is_fully_connected(&self) -> bool {
        self.n == 0 || self.is_connected(RelSet::all(self.n))
    }

    /// Render the graph in Graphviz DOT format, labelling nodes with their aliases
    /// (reproduces Figures 3 and 4 of the paper for queries 6d and 18a).
    pub fn to_dot(&self, spec: &QuerySpec) -> String {
        let mut out = String::from("graph join_graph {\n");
        for relation in &spec.relations {
            out.push_str(&format!(
                "  {} [label=\"{}\\n({})\"];\n",
                relation.alias, relation.alias, relation.table
            ));
        }
        for edge in &spec.join_edges {
            out.push_str(&format!(
                "  {} -- {} [label=\"{} = {}\"];\n",
                spec.relations[edge.left_rel].alias,
                spec.relations[edge.right_rel].alias,
                edge.left_column,
                edge.right_column
            ));
        }
        out.push_str("}\n");
        out
    }

    /// Render the graph as a simple ASCII adjacency list.
    pub fn to_ascii(&self, spec: &QuerySpec) -> String {
        let mut out = String::new();
        for relation in &spec.relations {
            let neighbors: Vec<&str> = self
                .neighbors_of(relation.index)
                .iter()
                .map(|i| spec.relations[i].alias.as_str())
                .collect();
            out.push_str(&format!(
                "{:<6} -> {}\n",
                relation.alias,
                neighbors.join(", ")
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JoinEdge, RelationSpec};
    use reopt_expr::ColumnRef;
    use reopt_sql::{SelectExpr, SelectItem};
    use reopt_storage::{Column, DataType, Schema};

    /// A chain t0 - t1 - t2 plus an isolated edge t3 - t4 when `disconnect` is true.
    fn chain_spec(n: usize, disconnect: bool) -> QuerySpec {
        let relations: Vec<RelationSpec> = (0..n)
            .map(|i| RelationSpec {
                index: i,
                alias: format!("t{i}"),
                table: format!("table{i}"),
                schema: Schema::new(vec![Column::new("id", DataType::Int)])
                    .qualified(&format!("t{i}")),
            })
            .collect();
        let mut join_edges = Vec::new();
        for i in 0..n.saturating_sub(1) {
            if disconnect && i == n / 2 {
                continue;
            }
            join_edges.push(JoinEdge {
                left_rel: i,
                left_column: ColumnRef::qualified(format!("t{i}"), "id"),
                right_rel: i + 1,
                right_column: ColumnRef::qualified(format!("t{}", i + 1), "id"),
            });
        }
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

    #[test]
    fn neighbors_of_chain() {
        let spec = chain_spec(4, false);
        let graph = JoinGraph::new(&spec);
        assert_eq!(graph.node_count(), 4);
        assert_eq!(graph.neighbors_of(0), RelSet::single(1));
        assert_eq!(graph.neighbors_of(1), RelSet::from_indexes([0, 2]));
        assert_eq!(
            graph.neighbors(RelSet::from_indexes([1, 2])),
            RelSet::from_indexes([0, 3])
        );
    }

    #[test]
    fn connectivity_checks() {
        let spec = chain_spec(5, false);
        let graph = JoinGraph::new(&spec);
        assert!(graph.is_fully_connected());
        assert!(graph.is_connected(RelSet::from_indexes([1, 2, 3])));
        assert!(!graph.is_connected(RelSet::from_indexes([0, 2])));
        assert!(graph.is_connected(RelSet::single(4)));
        assert!(graph.is_connected(RelSet::EMPTY));
    }

    #[test]
    fn disconnected_graph_components() {
        let spec = chain_spec(5, true);
        let graph = JoinGraph::new(&spec);
        assert!(!graph.is_fully_connected());
        let components = graph.connected_components();
        assert_eq!(components.len(), 2);
        assert_eq!(components[0].union(components[1]), RelSet::all(5));
    }

    #[test]
    fn single_node_graph() {
        let spec = chain_spec(1, false);
        let graph = JoinGraph::new(&spec);
        assert!(graph.is_fully_connected());
        assert_eq!(graph.connected_components(), vec![RelSet::single(0)]);
    }

    #[test]
    fn dot_and_ascii_rendering() {
        let spec = chain_spec(3, false);
        let graph = JoinGraph::new(&spec);
        let dot = graph.to_dot(&spec);
        assert!(dot.contains("graph join_graph"));
        assert!(dot.contains("t0 -- t1"));
        assert!(dot.contains("table2"));
        let ascii = graph.to_ascii(&spec);
        assert!(ascii.contains("t1"));
        assert!(ascii.contains("t0, t2"));
    }
}
