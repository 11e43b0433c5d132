//! # reopt-planner
//!
//! A PostgreSQL-style cost-based query optimizer, built from scratch so that the paper's
//! experiments (cardinality injection, perfect-(n) oracles, re-optimization) have the
//! hooks they need:
//!
//! * [`spec`] / [`binder`] — turn a parsed SELECT into a bound [`QuerySpec`]: base
//!   relations with aliases, per-relation filter predicates, equi-join edges, residual
//!   predicates and the output (projection / aggregation) description.
//! * [`relset`] / [`graph`] — bitset relation sets and the join graph (Figures 3 and 4
//!   of the paper show such graphs for JOB queries 6d and 18a).
//! * [`cardinality`] — selectivity and join-cardinality estimation under the textbook
//!   uniformity + independence assumptions, with [`CardinalityOverrides`] to inject
//!   arbitrary (e.g. true) cardinalities per relation subset — the mechanism the paper
//!   added to PostgreSQL 10.1.
//! * [`cost`] — a PostgreSQL-flavoured cost model (`cpu_tuple_cost`, `random_page_cost`,
//!   hash, index nested-loop and nested-loop join costing, access-path costing).
//! * [`enumerate`] — DPccp join-order enumeration over connected subgraphs (bushy plans,
//!   no Cartesian products) with a greedy (GOO) fallback beyond a configurable relation
//!   count, mirroring PostgreSQL's GEQO threshold.
//! * [`partial`] — plan-from-partial-state: collapse an already-materialized relation
//!   subset into a virtual leaf so join enumeration is seeded with the pre-joined set
//!   (the mid-query re-optimization hook).
//! * [`plan`] / [`optimizer`] / [`explain`] — physical plan construction and rendering.

pub mod binder;
pub mod cardinality;
pub mod cost;
pub mod enumerate;
pub mod error;
pub mod explain;
pub mod feedback;
pub mod graph;
pub mod optimizer;
pub mod partial;
pub mod plan;
pub mod relset;
pub mod spec;

pub use binder::bind_select;
pub use cardinality::{CardinalityEstimator, CardinalityOverrides, EstimationLog, Exactness};
pub use cost::{Cost, CostModel};
pub use enumerate::{EnumerationAlgorithm, JoinEnumerator};
pub use error::PlanError;
pub use explain::explain_plan;
pub use feedback::{feedback_key, relation_fingerprint, seed_overrides_from_cache};
pub use graph::JoinGraph;
pub use optimizer::{Optimizer, OptimizerConfig, PlannedQuery};
pub use partial::{collapse_spec, CollapsedSpec};
pub use plan::{AggregateExpr, JoinAlgorithm, OutputExpr, PhysicalPlan, PlanKind, ScanKind};
pub use relset::RelSet;
pub use spec::{ColumnUse, ColumnUses, JoinEdge, QuerySpec, RelationSpec};
