//! Pushdown systems and symbolic reachability (the paper's WALi substitute).
//!
//! A pushdown system (PDS, Defn. 3.1 of *Specialization Slicing*) is a triple
//! `(P, Γ, Δ)` of control locations, stack symbols, and rules with at most
//! two stack symbols on the right-hand side. Sets of configurations `(p, w)`
//! are represented by [`PAutomaton`]s (Defn. 3.5); the saturation procedures
//! `Prestar` (Defn. 3.6) and `Poststar` (Defn. 3.7), one engine in
//! [`saturate`][mod@saturate] pinned by a [`Direction`], compute automata
//! for `pre*(C)` and `post*(C)` — backward and forward reachability over the
//! possibly-infinite transition relation. [`saturate_a1_with_stats`] reads
//! the query pipeline's `A1` straight from the saturated rows;
//! [`saturate_indexed_with_stats`] materializes the whole relation.
//!
//! When the PDS encodes an SDG (see `specslice::encode`), `pre*` *is*
//! stack-configuration slicing of the unrolled SDG, and `post*` is forward
//! stack-configuration slicing (used by Alg. 2 feature removal).
//!
//! # Example: the counter PDS
//!
//! ```
//! use specslice_pds::{
//!     saturate_indexed_with_stats, ControlLoc, Direction, PAutomaton, Pds, RuleIndex,
//!     SaturationScratch,
//! };
//! use specslice_fsa::Symbol;
//!
//! // One control location; rules: <p, a> -> <p, ε>. pre*{(p, ε)} = (p, a*).
//! let p = ControlLoc(0);
//! let a = Symbol(0);
//! let mut pds = Pds::new(1);
//! pds.add_pop(p, a, p);
//! // Accepts exactly (p, ε): the control state itself is final.
//! let mut query = PAutomaton::new(1);
//! query.set_final(query.control_state(p));
//! let idx = RuleIndex::new(&pds);
//! let mut scratch = SaturationScratch::default();
//! let (result, _) =
//!     saturate_indexed_with_stats(Direction::Backward, &idx, &query, &mut scratch)
//!         .expect("well-formed query");
//! assert!(result.accepts(p, &[a, a, a]));
//! ```

mod a1;
pub mod arena;
pub mod automaton;
pub mod base;
pub mod index;
pub mod saturate;
pub mod scratch;
pub mod system;

pub use automaton::{PAutomaton, PState};
pub use base::SaturationBase;
pub use index::RuleIndex;
pub use saturate::{
    saturate_a1_with_stats, saturate_indexed_with_stats, Direction, SaturationStats,
};
pub use scratch::SaturationScratch;
pub use system::{ControlLoc, Pds, Rhs, Rule};

use std::fmt;

/// Errors from the symbolic reachability engines.
///
/// Saturation runs inside worker threads of batch-slicing clients; a
/// malformed query must surface as a value the caller can route, never as a
/// panic that poisons the worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PdsError {
    /// The query automaton contains an ε-transition. Saturation matches
    /// rules against *labeled* transitions only, so an ε-move surviving into
    /// the run would silently drop configurations; the engines refuse it
    /// up front instead.
    EpsilonInQuery {
        /// Number of ε-transitions found.
        count: usize,
    },
    /// The query automaton has fewer control states than the PDS has
    /// control locations, so some rules could never anchor.
    MissingControls {
        /// Control states of the query automaton.
        query: u32,
        /// Control locations of the PDS.
        pds: u32,
    },
    /// The query automaton has transitions into control states, violating
    /// the `post*` P-automaton precondition (Schwoon 2002): saturation
    /// treats control states as pure sources, so such transitions would be
    /// silently ignored rather than explored.
    TransitionIntoControl {
        /// Number of offending transitions.
        count: usize,
    },
}

impl fmt::Display for PdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdsError::EpsilonInQuery { count } => write!(
                f,
                "query automaton has {count} ε-transition(s); saturation requires ε-free queries"
            ),
            PdsError::MissingControls { query, pds } => write!(
                f,
                "query automaton has {query} control state(s) but the PDS has {pds} \
                 control location(s)"
            ),
            PdsError::TransitionIntoControl { count } => write!(
                f,
                "query automaton has {count} transition(s) into control states; \
                 post* requires control states to be pure sources"
            ),
        }
    }
}

impl std::error::Error for PdsError {}
