//! # specslice — specialization slicing
//!
//! A from-scratch reproduction of *Specialization Slicing* (Aung, Horwitz,
//! Joiner, Reps; PLDI 2014): optimal **polyvariant executable
//! interprocedural program slicing**.
//!
//! Given a program's system dependence graph (SDG) and a slicing criterion,
//! the algorithm may emit *several specialized copies* of a procedure — one
//! per pattern of formal parameters the slice actually needs — producing an
//! executable slice with no parameter mismatches, while never adding any
//! element that is not in the closure slice. The output is *optimal*: sound,
//! complete, and minimal in the sense of the paper's Defn. 2.10/2.11.
//!
//! The pipeline (Alg. 1):
//!
//! 1. [`encode`] the SDG as a pushdown system (Fig. 8 / Tab. I);
//! 2. express the criterion as a query automaton ([`criteria`]);
//! 3. run `Prestar` — *stack-configuration slicing* of the possibly
//!    infinite unrolled SDG;
//! 4. build the minimal reverse-deterministic automaton (`specslice_fsa::mrd`);
//! 5. [`readout`] the specialized SDG from the automaton — variant content
//!    is interned into the session's [`VariantStore`] — and [`regen`]erate
//!    executable MiniC source; for a whole criterion *set*,
//!    [`Slicer::specialize_program`] merges every criterion's variants
//!    (deduplicated by content interning) into one specialized program
//!    ([`mod@specialize`]).
//!
//! Also implemented: feature removal via forward stack-configuration slicing
//! ([`feature_removal`], Alg. 2), the §6.2 indirect-call transformation
//! ([`indirect`]), the §8.3 reslicing self-check ([`reslice`]), and slice
//! statistics ([`stats`]) used by the paper's evaluation.
//!
//! # Quickstart — the [`Slicer`] session
//!
//! A [`Slicer`] runs the frontend, SDG construction, and the SDG→PDS
//! encoding **once**, then answers any number of slicing queries against the
//! cached encoding — the per-program stages dominate the cost of a query, so
//! multi-criterion clients should always share one session:
//!
//! ```
//! use specslice::{Criterion, Slicer};
//!
//! let slicer = Slicer::from_source(
//!     r#"
//!     int g1, g2, g3;
//!     void p(int a, int b) { g1 = a; g2 = b; g3 = g2; }
//!     int main() {
//!         g2 = 100;
//!         p(g2, 2);
//!         p(g2, 3);
//!         p(4, g1 + g2);
//!         printf("%d", g2);
//!     }
//!     "#,
//! )?;
//! let criterion = Criterion::printf_actuals(slicer.sdg());
//! let slice = slicer.slice(&criterion)?;
//! // Fig. 1(b): p is specialized into two variants.
//! assert_eq!(slice.variants_of_proc(slicer.sdg(), "p").len(), 2);
//! let regen = slicer.regenerate(&slice)?;
//! assert!(regen.source.contains("void p__1"));
//!
//! // Batch queries reuse the cached encoding (and the saturation base)
//! // instead of re-encoding per criterion:
//! let per_vertex: Vec<Criterion> = slicer
//!     .sdg()
//!     .printf_actual_in_vertices()
//!     .into_iter()
//!     .map(Criterion::vertex)
//!     .collect();
//! let batch = slicer.slice_batch(&per_vertex)?;
//! assert_eq!(batch.slices.len(), per_vertex.len());
//! # Ok::<(), specslice::SpecError>(())
//! ```
//!
//! Batches fan out across worker threads (see [`SlicerConfig::num_threads`]
//! and `docs/ARCHITECTURE.md`); output is bit-for-bit identical at every
//! thread count.

#![warn(missing_docs)]

pub mod criteria;
pub mod encode;
pub mod exec;
pub mod feature_removal;
pub mod incremental;
pub mod indirect;
pub mod readout;
pub mod regen;
pub mod reslice;
pub mod session_io;
pub mod slicer;
pub mod specialize;
pub mod stats;
pub mod store;

pub use criteria::Criterion;
pub use incremental::EditReport;
pub use readout::{QueryKind, SpecSlice, VariantMeta, VariantPdg};
pub use session_io::MemoExport;
pub use slicer::{BatchResult, KeySelect, MemoKey, ScratchStats, Slicer, SlicerConfig};
pub use specialize::{MergedFunction, SpecializedProgram};
pub use store::{StoreStats, VariantId, VariantStore};
// Batch slicing reports per-worker accounting in [`BatchResult::per_thread`];
// re-exported so clients can name the type without a `specslice-exec` dep.
pub use specslice_exec::WorkerStats;
// Query direction (backward specialization slice vs. forward slice) is
// defined by the saturation engine; re-exported so clients can select a
// direction without a `specslice-pds` dep.
pub use specslice_pds::{Direction, PdsError};

// The facade re-exports everything a client needs to construct criteria,
// describe program edits (including the AST types statement-level
// [`ProgramEdit`]s are built from), and inspect results, so depending on
// `specslice` alone suffices.
pub use specslice_lang::{
    ast, frontend, LangError, Program, ProgramDelta, ProgramEdit, Stmt, StmtId, StmtKind,
};
pub use specslice_sdg::{
    CallSiteId, CalleeKind, ProcId, Sdg, SdgError, SdgPatch, Vertex, VertexId, VertexKind,
};

use specslice_fsa::mrd::MrdStats;
use std::fmt;

/// Errors from the specialization-slicing pipeline, classified by stage.
///
/// Wrapped stage errors are reachable through [`std::error::Error::source`],
/// so callers can render full chains (`anyhow`-style) or match on the stage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecError {
    /// The MiniC frontend rejected the source text (lexical or syntax
    /// error).
    Parse(LangError),
    /// The MiniC semantic checker rejected the program.
    Sema(LangError),
    /// SDG construction failed.
    SdgBuild(SdgError),
    /// The slicing criterion is malformed (out-of-range vertex, unrealizable
    /// stack, empty set, ill-shaped automaton).
    BadCriterion {
        /// What is wrong with the criterion.
        reason: String,
    },
    /// A saturation engine (`pre*` / `post*`, see [`specslice_pds::saturate`])
    /// rejected its query automaton. The structured source error is
    /// preserved (not flattened to a string), so callers can match on the
    /// exact precondition that failed and error chains render it via
    /// [`std::error::Error::source`].
    Pds {
        /// Which engine invocation failed (`"prestar"` or `"poststar"`).
        stage: &'static str,
        /// The engine's structured error.
        source: specslice_pds::PdsError,
    },
    /// An internal invariant was violated — always a bug in the slicer, not
    /// in the caller's input (results are validated against Cor. 3.19
    /// before being returned).
    Internal {
        /// The pipeline stage that failed (e.g. `"readout"`).
        context: &'static str,
        /// Description of the violated invariant.
        message: String,
    },
}

impl SpecError {
    /// Creates a [`SpecError::BadCriterion`].
    pub fn bad_criterion(reason: impl Into<String>) -> Self {
        SpecError::BadCriterion {
            reason: reason.into(),
        }
    }

    /// Creates a [`SpecError::Internal`] tagged with the failing stage.
    pub fn internal(context: &'static str, message: impl Into<String>) -> Self {
        SpecError::Internal {
            context,
            message: message.into(),
        }
    }

    /// Creates a [`SpecError::Pds`] tagged with the failing engine stage.
    pub fn pds(stage: &'static str, source: specslice_pds::PdsError) -> Self {
        SpecError::Pds { stage, source }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "frontend rejected the source: {e}"),
            SpecError::Sema(e) => write!(f, "semantic check failed: {e}"),
            SpecError::SdgBuild(e) => write!(f, "SDG construction failed: {e}"),
            SpecError::BadCriterion { reason } => write!(f, "bad criterion: {reason}"),
            SpecError::Pds { stage, source } => {
                write!(f, "saturation failed ({stage}): {source}")
            }
            SpecError::Internal { context, message } => {
                write!(f, "internal error ({context}): {message}")
            }
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Parse(e) | SpecError::Sema(e) => Some(e),
            SpecError::SdgBuild(e) => Some(e),
            SpecError::Pds { source, .. } => Some(source),
            SpecError::BadCriterion { .. } | SpecError::Internal { .. } => None,
        }
    }
}

impl From<SdgError> for SpecError {
    fn from(e: SdgError) -> Self {
        SpecError::SdgBuild(e)
    }
}

impl From<LangError> for SpecError {
    fn from(e: LangError) -> Self {
        if e.is_sema() {
            SpecError::Sema(e)
        } else {
            SpecError::Parse(e)
        }
    }
}

/// Computes the specialization slice of `sdg` with respect to `criterion`
/// (the paper's Alg. 1).
///
/// This is the one-shot convenience wrapper: it encodes the SDG as a
/// pushdown system, answers the single query, and throws the encoding away.
/// Any caller with more than one criterion should build a [`Slicer`] session
/// instead and amortize the encoding across queries.
///
/// # Errors
///
/// [`SpecError::SdgBuild`] when some vertex is not reachable from its
/// procedure's entry (the precondition of the call-graph stack language,
/// see [`criteria`]; `build_sdg` output always satisfies it). Otherwise
/// fails on malformed criteria (unknown vertices / call sites) and on
/// internal invariant violations (which would indicate a bug — the result is
/// validated against Cor. 3.19 before being returned).
pub fn specialize(sdg: &Sdg, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
    criteria::check_entry_reachability(sdg)?;
    let enc = encode::encode_sdg(sdg);
    let query = criteria::query_automaton(sdg, &enc, criterion)?;
    let store = std::sync::Arc::new(VariantStore::new());
    slicer::run_query(Direction::Backward, sdg, &enc, &query, &store).map(|(s, _)| s)
}

/// Sizes (and wall-clock) observed along the Alg. 1 pipeline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineStats {
    /// `|Δ|` of the encoded PDS.
    pub pds_rules: usize,
    /// Transitions in this query's saturated automaton (`Prestar` for
    /// backward queries, `Poststar` for forward ones): base + overlay, the
    /// relation the query reads. Backward that is the size of the exact
    /// `pre*`, however it was split; a forward base also holds the
    /// closures of Phase-I states the query never triggers, so forward
    /// this can exceed the exact `post*` size. An answer-size field:
    /// replays keep the size recorded when the answer was computed.
    pub saturation_transitions: usize,
    /// Peak bytes retained during saturation (Fig. 22 accounting) by this
    /// query's own structures; the session's saturation bases are charged
    /// once, in [`Slicer::approx_bytes`]. A work field: `0` on memo hits
    /// and fanned-out batch duplicates, which ran no saturation.
    pub saturation_peak_bytes: usize,
    /// Saturation-rule firings this query did itself, beyond the session
    /// base of its direction (whose own firings are reported once in
    /// [`Slicer::saturation_base`]'s stats; one-shot calls saturate
    /// everything themselves). A deterministic work measure (independent
    /// of machine and thread count). `0` on memo hits and fanned-out batch
    /// duplicates.
    pub saturation_rule_applications: usize,
    /// Peak depth of this query's own saturation worklist, beyond the
    /// session base (deterministic for a given build). `0` on memo hits
    /// and fanned-out batch duplicates.
    pub saturation_peak_worklist: usize,
    /// States of the trimmed `A1`: the saturated language read from
    /// `main`'s control location, written straight from the saturation
    /// rows (`specslice_pds::saturate_a1_with_stats`). The count is that
    /// of `to_nfa(MAIN_CONTROL).trimmed()`, so it includes the initial
    /// state even when the language is empty.
    pub a1_states: usize,
    /// Transitions of the trimmed `A1`, ε-transitions included (forward
    /// queries have them).
    pub a1_transitions: usize,
    /// MRD pipeline statistics (`determinize` / `minimize` sizes).
    pub mrd: MrdStats,
    /// Saturations this query paid for: `1` for every computed query, `0`
    /// for memo hits and fanned-out batch duplicates (which keep the
    /// answer-size fields — `saturation_transitions`, `a1_*`, `mrd` — recorded
    /// when the answer was computed). A batch aggregate therefore counts
    /// the distinct criteria that missed the memo.
    pub saturations_run: usize,
    /// Backward queries answered from the session memo (`1` on a hit, `0`
    /// otherwise; summed by [`PipelineStats::absorb`], so a batch aggregate
    /// counts hits).
    pub memo_hits_backward: usize,
    /// Backward queries that missed the memo and paid for a pipeline run.
    pub memo_misses_backward: usize,
    /// Forward queries answered from the session memo.
    pub memo_hits_forward: usize,
    /// Forward queries that missed the memo and paid for a pipeline run.
    pub memo_misses_forward: usize,
    /// Wall-clock of the criterion-dependent pipeline for this query (query
    /// automaton → `Prestar` → MRD → read-out), as measured by the worker
    /// thread that answered it. Summed by [`PipelineStats::absorb`], so a
    /// batch aggregate reports total CPU-side work — which exceeds batch
    /// wall-clock exactly when parallel slicing helps.
    pub query_time: std::time::Duration,
}

impl PipelineStats {
    /// Accumulates another query's stats into `self` (used by
    /// [`Slicer::slice_batch`] aggregation). Per-query sizes are summed;
    /// `pds_rules` describes the shared encoding and is kept as-is.
    pub fn absorb(&mut self, other: &PipelineStats) {
        self.pds_rules = self.pds_rules.max(other.pds_rules);
        self.saturation_transitions += other.saturation_transitions;
        self.saturation_peak_bytes = self.saturation_peak_bytes.max(other.saturation_peak_bytes);
        self.saturation_rule_applications += other.saturation_rule_applications;
        self.saturation_peak_worklist = self
            .saturation_peak_worklist
            .max(other.saturation_peak_worklist);
        self.a1_states += other.a1_states;
        self.a1_transitions += other.a1_transitions;
        self.mrd.input_states += other.mrd.input_states;
        self.mrd.determinized_states += other.mrd.determinized_states;
        self.mrd.minimized_states += other.mrd.minimized_states;
        self.mrd.mrd_states += other.mrd.mrd_states;
        self.mrd.mrd_transitions += other.mrd.mrd_transitions;
        self.saturations_run += other.saturations_run;
        self.memo_hits_backward += other.memo_hits_backward;
        self.memo_misses_backward += other.memo_misses_backward;
        self.memo_hits_forward += other.memo_hits_forward;
        self.memo_misses_forward += other.memo_misses_forward;
        self.query_time += other.query_time;
    }

    /// Estimated resident bytes of the *retained* artifacts these stats
    /// describe — the canonical MRD automaton a memoized query keeps alive
    /// (its variant rows are accounted by [`StoreStats::approx_bytes`]
    /// instead, since rows live in the shared store). Deterministic: a pure
    /// function of the counters, so the server's eviction budget computed
    /// from it is reproducible across runs and machines.
    pub fn approx_bytes(&self) -> usize {
        // Per MRD state: an out-transition vector header (~24) plus finals/
        // dedup bookkeeping; per transition: (label, target) plus its dedup
        // set entry (~12 + 12).
        self.mrd.mrd_states * 32 + self.mrd.mrd_transitions * 24
    }

    /// One line of human-readable pipeline accounting. The examples and the
    /// bench drivers all report through this, so their output stays
    /// consistent with each other (and with the docs).
    pub fn summary(&self) -> String {
        format!(
            "rules={} saturation={}t a1={}s/{}t mrd={}s/{}t memo=b{}h/{}m f{}h/{}m time={:.1?}",
            self.pds_rules,
            self.saturation_transitions,
            self.a1_states,
            self.a1_transitions,
            self.mrd.mrd_states,
            self.mrd.mrd_transitions,
            self.memo_hits_backward,
            self.memo_misses_backward,
            self.memo_hits_forward,
            self.memo_misses_forward,
            self.query_time,
        )
    }
}
