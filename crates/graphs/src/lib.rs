//! Small directed-graph toolkit used by the specialization-slicing stack.
//!
//! The graphs manipulated by the slicer (control-flow graphs, dependence
//! graphs, call graphs) are all dense, index-based digraphs. This crate
//! provides one compact representation, [`DiGraph`], plus the classical
//! algorithm the dependence-graph layer needs: dominator / postdominator
//! trees ([`dominators`], iterative Cooper–Harvey–Kennedy).
//!
//! # Example
//!
//! ```
//! use specslice_graphs::DiGraph;
//!
//! let mut g = DiGraph::new();
//! let a = g.add_node();
//! let b = g.add_node();
//! g.add_edge(a, b);
//! assert_eq!(g.successors(a), &[b]);
//! ```

pub mod digraph;
pub mod dominators;

pub use digraph::{DiGraph, NodeId};
pub use dominators::DominatorTree;
