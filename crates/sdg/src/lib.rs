//! System dependence graphs for MiniC (the paper's CodeSurfer substitute).
//!
//! This crate builds the Horwitz–Reps–Binkley *system dependence graph*
//! (SDG) the specialization-slicing algorithm consumes, entirely from
//! scratch:
//!
//! * [`mod@cfg`] — statement-level control-flow graphs with Ball–Horwitz
//!   augmented edges for `return`/`break`/`continue`/`exit`;
//! * [`modref`] — interprocedural `MayMod` / `MustMod` / upward-exposed-ref
//!   analysis that decides which globals get formal-in/formal-out vertices;
//! * [`model`] — SDG vertices (entry, statements, predicates, jumps, calls,
//!   actual-in/out, formal-in/out) and the five HRB edge kinds plus the §6.1
//!   library-actual edges (no summary edges: Alg. 1 never reads them);
//! * [`build`] — the SDG builder: vertex creation, postdominator-based
//!   control dependence, reaching-definitions flow dependence, call /
//!   parameter-in / parameter-out edges, §6.1 library-call closure edges;
//! * [`mod@slice`] — context-sensitive two-phase closure slicing (backward and
//!   forward), over summary edges the private `summary` module derives per
//!   call with the RHSR worklist, plus a context-insensitive Weiser-style
//!   executable slicer;
//! * [`binkley`] — Binkley's monovariant executable slicing baseline (§5).
//!
//! # Example
//!
//! ```
//! let program = specslice_lang::frontend(
//!     "int g; void p(int a) { g = a; } int main() { p(2); printf(\"%d\", g); return 0; }",
//! )?;
//! let sdg = specslice_sdg::build::build_sdg(&program)?;
//! let printf_actuals = sdg.printf_actual_in_vertices();
//! let slice = specslice_sdg::slice::backward_closure_slice(&sdg, &printf_actuals);
//! assert!(!slice.is_empty());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod binkley;
pub mod build;
pub mod cfg;
pub mod model;
pub mod modref;
pub mod patch;
pub mod slice;
mod summary;

pub use model::{
    CallSite, CallSiteId, CalleeKind, EdgeKind, InSlot, LibFn, OutSlot, Proc, ProcId, Sdg, Vertex,
    VertexId, VertexKind,
};
pub use modref::ModRefInfo;
pub use patch::{patch_sdg, SdgPatch};
pub use summary::Summaries;

use std::fmt;

/// Errors raised while building dependence graphs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SdgError {
    /// The program has no `main` procedure.
    NoMain,
    /// The program still contains an indirect call; the §6.2 lowering
    /// (`specslice::indirect`) must run before SDG construction.
    IndirectCall {
        /// Description naming the offending function/pointer.
        message: String,
    },
    /// The program was not normalized (statements lack ids).
    NotNormalized {
        /// Description naming the offending function.
        message: String,
    },
    /// Any other structural failure while building the SDG.
    Build {
        /// Human-readable description.
        message: String,
    },
}

impl SdgError {
    /// Creates a generic build error.
    pub fn new(message: impl Into<String>) -> Self {
        SdgError::Build {
            message: message.into(),
        }
    }

    /// The message without classification.
    pub fn message(&self) -> &str {
        match self {
            SdgError::NoMain => "program has no `main`",
            SdgError::IndirectCall { message }
            | SdgError::NotNormalized { message }
            | SdgError::Build { message } => message,
        }
    }
}

impl fmt::Display for SdgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for SdgError {}
