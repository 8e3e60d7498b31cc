//! Reading the specialized SDG out of the MRD automaton
//! (Alg. 1, lines 9–24).
//!
//! Each non-initial state of the minimal reverse-deterministic automaton
//! `A6` denotes one *specialized PDG*: its vertex set is the set of labels
//! on transitions from the initial state, and each call-site-labeled
//! transition `(q1, C, q2)` connects caller variant `q2` to callee variant
//! `q1` at (the copy of) call site `C`.
//!
//! The read-out runs entirely on dense ids: per-state vertex rows are
//! accumulated in flat, per-worker scratch vectors (one sort groups them),
//! then interned into a [`VariantStore`] — the resulting [`SpecSlice`] is a
//! cheap handle (`Vec<VariantId>` plus per-variant metadata) instead of a
//! bundle of owned `BTreeSet`s. The old set-shaped API survives as
//! accessors that materialize [`VariantPdg`] views on demand.

use crate::encode::Encoded;
use crate::store::{VariantId, VariantStore};
use crate::SpecError;
use specslice_fsa::{Nfa, StateId};
use specslice_sdg::{CallSiteId, CalleeKind, ProcId, Sdg, VertexId, VertexKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Which query produced a [`SpecSlice`] — its provenance. Determines which
/// structural guarantees the slice carries and which validation the
/// read-out applies:
///
/// * [`Backward`](QueryKind::Backward) specialization slices (Alg. 1) and
///   [`Residual`](QueryKind::Residual) feature-removal complements (Alg. 2)
///   satisfy the full Cor. 3.19 no-parameter-mismatch property (kept formal
///   ⟺ matching actual) and are executable after regeneration.
/// * [`Forward`](QueryKind::Forward) slices satisfy only the `post*`
///   closure implications — a kept actual-in implies the matching formal-in
///   is kept, and a kept formal-out implies the matching actual-out is kept
///   — never the reverse directions (nothing forward-reaches an actual-in
///   from inside the callee).
/// * [`Chop`](QueryKind::Chop)s are intersections of a forward and a
///   backward configuration language; neither closure direction survives
///   the intersection, so chops are reported as variant/vertex sets with no
///   parameter-completeness guarantee (and are not regenerable in general).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// Backward specialization slice (`pre*`, Alg. 1).
    #[default]
    Backward,
    /// Forward slice (`post*` over the same Fig. 8 encoding).
    Forward,
    /// `forward_slice(source) ∩ slice(target)` on the MRD automata.
    Chop,
    /// Feature-removal residual (Alg. 2): everything *outside* a forward
    /// slice.
    Residual,
}

impl QueryKind {
    /// Stable lower-case name (used in reports and wire payloads).
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Backward => "backward",
            QueryKind::Forward => "forward",
            QueryKind::Chop => "chop",
            QueryKind::Residual => "residual",
        }
    }
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<specslice_pds::Direction> for QueryKind {
    fn from(dir: specslice_pds::Direction) -> Self {
        match dir {
            specslice_pds::Direction::Backward => QueryKind::Backward,
            specslice_pds::Direction::Forward => QueryKind::Forward,
        }
    }
}

/// One specialized procedure (a partition element of Defn. 2.10),
/// materialized as an owned view. [`SpecSlice`] stores variants as interned
/// [`VariantId`] rows; the accessors ([`SpecSlice::variants`],
/// [`SpecSlice::variant`], [`SpecSlice::variants_of_proc`]) build these on
/// demand for callers that want set-shaped data.
#[derive(Clone, Debug)]
pub struct VariantPdg {
    /// The original procedure this specializes.
    pub proc: ProcId,
    /// Name of the specialized procedure (`p__1`, `p__2`, … — or the
    /// original name when the procedure has a single variant).
    pub name: String,
    /// The `Elems` component: original SDG vertices included in this
    /// specialization.
    pub vertices: BTreeSet<VertexId>,
    /// For each original call site appearing in this variant, the index (in
    /// [`SpecSlice::variants`]) of the callee variant it must invoke.
    pub calls: BTreeMap<CallSiteId, usize>,
    /// The `A6` state this variant was read from (diagnostics).
    pub state: StateId,
}

impl VariantPdg {
    /// Parameter indices kept in this variant's signature: those whose
    /// formal-in (or by-ref formal-out) vertex is included.
    pub fn kept_params(&self, sdg: &Sdg) -> Vec<usize> {
        let row: Vec<u32> = self.vertices.iter().map(|v| v.0).collect();
        kept_params_row(sdg, self.proc, &row)
    }
}

/// Parameter indices kept by a variant of `proc` whose (sorted, dense)
/// vertex row is `row` — the allocation-light form behind
/// [`VariantPdg::kept_params`], used directly by the regeneration layer.
pub(crate) fn kept_params_row(sdg: &Sdg, proc: ProcId, row: &[u32]) -> Vec<usize> {
    let contains = |v: VertexId| row.binary_search(&v.0).is_ok();
    let proc = sdg.proc(proc);
    let mut kept = BTreeSet::new();
    for &fi in &proc.formal_ins {
        if contains(fi) {
            if let Some(specslice_sdg::InSlot::Param(i)) = sdg.in_slot(fi) {
                kept.insert(*i);
            }
        }
    }
    for &fo in &proc.formal_outs {
        if contains(fo) {
            if let Some(specslice_sdg::OutSlot::RefParam(i)) = sdg.out_slot(fo) {
                kept.insert(*i);
            }
        }
    }
    kept.into_iter().collect()
}

/// The variant-naming rule, shared by the read-out, single-slice
/// regeneration, and the whole-program merge so the three can never
/// disagree: the `k`-th variant (1-based, in variant order) of a procedure
/// named `base` keeps `base` when the procedure has a single variant or is
/// `main`, and is suffixed `base__k` otherwise. `force_suffix` overrides
/// the keep cases: the §6.2 address-taken rename (the original name becomes
/// the pointer-value stub) and the multi-`main` merge (a synthesized driver
/// takes the name `main`).
pub(crate) fn variant_name(base: &str, total: usize, k: usize, force_suffix: bool) -> String {
    if force_suffix || (total != 1 && base != "main") {
        format!("{base}__{k}")
    } else {
        base.to_string()
    }
}

/// Per-variant metadata a [`SpecSlice`] keeps alongside the interned
/// content row: everything about a variant that is *positional* (how this
/// slice wires its variants together) rather than *content* (which vertices
/// the variant keeps — that lives in the [`VariantStore`]).
#[derive(Clone, Debug)]
pub struct VariantMeta {
    /// The original procedure this variant specializes.
    pub proc: ProcId,
    /// The variant's name (`p__1`, … — original name when unique).
    pub name: String,
    /// Original call site → index (in this slice) of the callee variant.
    pub calls: BTreeMap<CallSiteId, usize>,
    /// The `A6` state this variant was read from (diagnostics).
    pub state: StateId,
}

/// The result of specialization slicing: a partition of the
/// stack-configuration slice into specialized PDGs.
///
/// A `SpecSlice` is a cheap handle: variant *content* (the vertex rows) is
/// interned in a shared [`VariantStore`], and the slice itself owns only
/// the `Vec<VariantId>` naming that content plus per-variant
/// [`VariantMeta`]. Cloning a slice copies ids and metadata, never rows.
#[derive(Clone)]
pub struct SpecSlice {
    store: Arc<VariantStore>,
    ids: Vec<VariantId>,
    metas: Vec<VariantMeta>,
    /// Index of the `main` variant, `None` when the slice is empty.
    pub main_variant: Option<usize>,
    /// The MRD automaton the slice was read from.
    pub a6: Nfa,
    /// Which query produced this slice (see [`QueryKind`] for the
    /// guarantees each kind carries).
    pub kind: QueryKind,
}

impl fmt::Debug for SpecSlice {
    /// Renders the *content* (materialized variants), never raw
    /// [`VariantId`]s — clients fingerprint slices by their Debug output to
    /// check cross-thread determinism, and content is identical at every
    /// thread count while store ids need not be.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecSlice")
            .field("variants", &self.variants())
            .field("main_variant", &self.main_variant)
            .field("a6", &self.a6)
            .field("kind", &self.kind)
            .finish()
    }
}

impl SpecSlice {
    /// Assembles a slice from its parts (the read-out and the memo are the
    /// only producers).
    pub(crate) fn from_parts(
        store: Arc<VariantStore>,
        ids: Vec<VariantId>,
        metas: Vec<VariantMeta>,
        main_variant: Option<usize>,
        a6: Nfa,
        kind: QueryKind,
    ) -> SpecSlice {
        debug_assert_eq!(ids.len(), metas.len());
        SpecSlice {
            store,
            ids,
            metas,
            main_variant,
            a6,
            kind,
        }
    }

    /// The store this slice's variant content is interned in.
    pub fn store(&self) -> &Arc<VariantStore> {
        &self.store
    }

    /// The interned content ids, one per variant (in variant order).
    /// Variants with identical content share an id — within one slice and
    /// across every slice of the same session.
    pub fn variant_ids(&self) -> &[VariantId] {
        &self.ids
    }

    /// Per-variant metadata, one entry per variant (in variant order).
    pub fn metas(&self) -> &[VariantMeta] {
        &self.metas
    }

    /// The metadata of variant `i`.
    pub fn meta(&self, i: usize) -> &VariantMeta {
        &self.metas[i]
    }

    /// Number of variants.
    pub fn variant_count(&self) -> usize {
        self.ids.len()
    }

    /// `true` when the criterion was unreachable and the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The variant's sorted dense vertex row (fetched from the store).
    pub(crate) fn row_dense(&self, i: usize) -> Vec<u32> {
        self.store.row_dense(self.ids[i])
    }

    /// Materializes variant `i` as an owned [`VariantPdg`] view.
    pub fn variant(&self, i: usize) -> VariantPdg {
        let meta = &self.metas[i];
        VariantPdg {
            proc: meta.proc,
            name: meta.name.clone(),
            vertices: self.store.vertex_set(self.ids[i]),
            calls: meta.calls.clone(),
            state: meta.state,
        }
    }

    /// Materializes every variant, in variant order. This is the
    /// compatibility shim for the former `variants` field; hot paths should
    /// iterate [`SpecSlice::variant_ids`] / [`SpecSlice::metas`] and fetch
    /// rows from the store instead.
    pub fn variants(&self) -> Vec<VariantPdg> {
        (0..self.ids.len()).map(|i| self.variant(i)).collect()
    }

    /// The union of all variants' vertex sets (`Elems` of the whole slice).
    pub fn elems(&self) -> BTreeSet<VertexId> {
        let mut out = BTreeSet::new();
        for &id in &self.ids {
            out.extend(self.store.row(id));
        }
        out
    }

    /// Total vertex count across variants (replicated vertices counted once
    /// per variant) — the paper's specialization-slice size measure.
    pub fn total_vertices(&self) -> usize {
        self.ids.iter().map(|&id| self.store.row_len(id)).sum()
    }

    /// The variants specializing procedure `name`, materialized.
    pub fn variants_of_proc(&self, sdg: &Sdg, name: &str) -> Vec<VariantPdg> {
        let Some(p) = sdg.proc_by_name.get(name) else {
            return Vec::new();
        };
        (0..self.ids.len())
            .filter(|&i| self.metas[i].proc == *p)
            .map(|i| self.variant(i))
            .collect()
    }

    /// `Specializations(P)` of Eqn. (3): the distinct element-sets of `P`'s
    /// variants.
    pub fn specializations(&self, proc: ProcId) -> BTreeSet<BTreeSet<VertexId>> {
        (0..self.ids.len())
            .filter(|&i| self.metas[i].proc == proc)
            .map(|i| self.store.vertex_set(self.ids[i]))
            .collect()
    }

    /// Re-interns this slice's rows into `store`, rewriting the content ids
    /// (the metas are positional and carry over unchanged). Batch slicing
    /// adopts worker-shard slices into the session store with this, in
    /// input order, so session ids are thread-count-independent.
    pub(crate) fn reintern_into(self, store: &Arc<VariantStore>) -> SpecSlice {
        if Arc::ptr_eq(&self.store, store) {
            return self;
        }
        let ids = self
            .ids
            .iter()
            .map(|&id| store.intern(self.store.proc(id), &self.store.row_dense(id)))
            .collect();
        SpecSlice {
            store: store.clone(),
            ids,
            metas: self.metas,
            main_variant: self.main_variant,
            a6: self.a6,
            kind: self.kind,
        }
    }
}

/// Reusable buffers for the read-out stage. Batch slicing hands one of
/// these to each worker thread ([`crate::Slicer::slice_batch`]), so the
/// per-criterion hot loop re-clears warm tables instead of re-allocating
/// them — and, with several workers live at once, does not contend on the
/// global allocator for its working set. Everything is a dense row keyed by
/// `A6` state (or procedure) index; the former per-state `BTreeSet`s and
/// `HashMap`s are gone.
#[derive(Debug, Default)]
pub(crate) struct ReadoutScratch {
    /// `(state, vertex)` pairs from initial-state transitions; one sort
    /// groups them into per-state sorted vertex rows.
    vert_pairs: Vec<(u32, u32)>,
    /// `(callee state, call site, caller state)` triples.
    call_transitions: Vec<(u32, u32, u32)>,
    /// Owning procedure per `A6` state (`u32::MAX` = not a variant state).
    state_proc: Vec<u32>,
    /// Variant index per `A6` state (`u32::MAX` = none).
    variant_of_state: Vec<u32>,
    /// Variant states in ascending order.
    states: Vec<u32>,
    /// Row bounds into `vert_pairs` per variant.
    row_bounds: Vec<(u32, u32)>,
    /// Scratch row (vertex ids only) handed to the store's interner.
    row: Vec<u32>,
    /// Per-procedure variant totals (for naming).
    per_proc_count: Vec<u32>,
    /// Per-procedure variants seen so far (for naming).
    per_proc_seen: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl ReadoutScratch {
    fn reset(&mut self, n_states: usize, n_procs: usize) {
        self.vert_pairs.clear();
        self.call_transitions.clear();
        self.state_proc.clear();
        self.state_proc.resize(n_states, NONE);
        self.variant_of_state.clear();
        self.variant_of_state.resize(n_states, NONE);
        self.states.clear();
        self.row_bounds.clear();
        self.row.clear();
        self.per_proc_count.clear();
        self.per_proc_count.resize(n_procs, 0);
        self.per_proc_seen.clear();
        self.per_proc_seen.resize(n_procs, 0);
    }

    /// Retained capacity estimate: what a warm pooled scratch holds onto
    /// between queries. Feeds the session's resident-byte accounting.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.vert_pairs.capacity() * 8
            + self.call_transitions.capacity() * 12
            + (self.state_proc.capacity()
                + self.variant_of_state.capacity()
                + self.states.capacity()
                + self.row.capacity()
                + self.per_proc_count.capacity()
                + self.per_proc_seen.capacity())
                * 4
            + self.row_bounds.capacity() * 8
    }
}

/// Reads the specialized SDG out of `a6` (Alg. 1 lines 9–24) and validates
/// the Cor. 3.19 no-parameter-mismatch property. One-shot form: the slice's
/// content is interned into a fresh private store. Sessions intern into
/// their shared store instead ([`crate::Slicer`]).
pub fn read_out(sdg: &Sdg, enc: &Encoded, a6: &Nfa) -> Result<SpecSlice, SpecError> {
    read_out_in(
        sdg,
        enc,
        a6,
        QueryKind::Backward,
        &mut ReadoutScratch::default(),
        &Arc::new(VariantStore::new()),
    )
}

/// [`read_out`] with an ignored `validate` argument: the Cor. 3.19 audit
/// always runs. Kept only because the perfbench harness
/// (`perfbench/src/trace.rs`) calls it; ROADMAP item 1's benchmark change
/// deletes it.
#[doc(hidden)]
pub fn read_out_with(
    sdg: &Sdg,
    enc: &Encoded,
    a6: &Nfa,
    _validate: bool,
) -> Result<SpecSlice, SpecError> {
    read_out(sdg, enc, a6)
}

/// Reads a stored `A6` out again into a throwaway store: the one way a memo
/// entry's cached rows are re-derived when the entry enters a session that
/// did not compute it — migrated across an edit, or imported from a
/// snapshot. A read-out that fails halfway strands no rows in the session
/// store; the caller re-interns the result once it commits
/// ([`SpecSlice::reintern_into`]).
///
/// # Errors
///
/// Every [`read_out_in`] failure: an `A6` that is not reverse-deterministic
/// (Thm. 3.16: a computed one always is) and the Cor. 3.19 audit included.
pub(crate) fn read_out_staged(
    sdg: &Sdg,
    enc: &Encoded,
    a6: &Nfa,
    kind: QueryKind,
    scratch: &mut ReadoutScratch,
) -> Result<SpecSlice, SpecError> {
    read_out_in(sdg, enc, a6, kind, scratch, &Arc::new(VariantStore::new()))
}

/// [`read_out`] against caller-owned scratch buffers, an explicit target
/// store, and an explicit query kind. The kind selects the validation
/// applied (see [`QueryKind`]): full Cor. 3.19 equality for
/// backward/residual slices, the one-directional `post*` closure
/// implications for forward slices, and none for chops.
pub(crate) fn read_out_in(
    sdg: &Sdg,
    enc: &Encoded,
    a6: &Nfa,
    kind: QueryKind,
    scratch: &mut ReadoutScratch,
    store: &Arc<VariantStore>,
) -> Result<SpecSlice, SpecError> {
    if a6.is_empty_language() {
        return Ok(SpecSlice::from_parts(
            store.clone(),
            Vec::new(),
            Vec::new(),
            None,
            a6.clone(),
            kind,
        ));
    }
    // `A6` must be reverse-deterministic (Thm. 3.16), which the read-out
    // checks as it goes: one final state here; below, no ε, vertex labels
    // only from the initial state, and no call site entering one caller
    // state from two callee states.
    if a6.finals().len() != 1 {
        return Err(SpecError::internal(
            "readout",
            format!(
                "A6 has {} final states; an MRD automaton has one (Thm. 3.16)",
                a6.finals().len()
            ),
        ));
    }

    scratch.reset(a6.state_count(), sdg.procs.len());
    let q0 = a6.initial();
    // Collect per-state vertex pairs and per-state call transitions into
    // flat rows.
    for (from, label, to) in a6.transitions() {
        let sym = label.ok_or_else(|| SpecError::internal("readout", "A6 has ε-transitions"))?;
        if from == q0 {
            let v = enc.symbol_vertex(sym).ok_or_else(|| {
                SpecError::internal("readout", "initial-state transition labeled by a call site")
            })?;
            scratch.vert_pairs.push((to.0, v.0));
        } else {
            let c = enc.symbol_call_site(sym).ok_or_else(|| {
                SpecError::internal(
                    "readout",
                    "non-initial transition labeled by a vertex symbol",
                )
            })?;
            scratch.call_transitions.push((from.0, c.0, to.0));
        }
    }
    // One sort groups the pairs into per-state vertex rows, each row sorted
    // by vertex id — exactly the canonical form the store interns.
    scratch.vert_pairs.sort_unstable();

    // Determine each state's procedure from its row.
    let state_proc = &mut scratch.state_proc;
    {
        let mut i = 0;
        let pairs = &scratch.vert_pairs;
        while i < pairs.len() {
            let state = pairs[i].0;
            let proc = sdg.vertex(VertexId(pairs[i].1)).proc;
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == state {
                let other = sdg.vertex(VertexId(pairs[j].1)).proc;
                if other != proc {
                    // Both failure shapes surface as values — an A6 state
                    // owned by several (or zero) procedures is an invariant
                    // violation to report with the offending state, never a
                    // panic inside a batch worker.
                    return Err(SpecError::internal(
                        "readout",
                        format!(
                            "A6 state {:?} mixes procedures: {:?} (Defn. 2.10(2) violated)",
                            StateId(state),
                            {
                                let mut procs = BTreeSet::new();
                                procs.insert(proc);
                                procs.insert(other);
                                procs
                            }
                        ),
                    ));
                }
                j += 1;
            }
            state_proc[state as usize] = proc.0;
            i = j;
        }
    }
    // States with no vertex transitions (possible for feature-removal
    // complements): infer the procedure from adjacent call transitions.
    for &(from, c, to) in scratch.call_transitions.iter() {
        let site = sdg.call_site(CallSiteId(c));
        if let CalleeKind::User(callee) = site.callee {
            if state_proc[from as usize] == NONE {
                state_proc[from as usize] = callee.0;
            }
        }
        if state_proc[to as usize] == NONE {
            state_proc[to as usize] = site.caller.0;
        }
    }

    // Consistency: call transition (q1, C, q2) must have proc(q1) = callee(C)
    // and proc(q2) = caller(C).
    for &(from, c, to) in scratch.call_transitions.iter() {
        let site = sdg.call_site(CallSiteId(c));
        let CalleeKind::User(callee) = site.callee else {
            return Err(SpecError::internal(
                "readout",
                format!(
                    "call-site symbol {:?} of a library call appeared on the stack",
                    CallSiteId(c)
                ),
            ));
        };
        if state_proc[from as usize] != callee.0 || state_proc[to as usize] != site.caller.0 {
            return Err(SpecError::internal(
                "readout",
                format!(
                    "inconsistent call transition at {:?}: callee/caller procedures \
                 do not match the original SDG",
                    CallSiteId(c)
                ),
            ));
        }
    }

    // Variant states in ascending order (the scan is already ordered).
    for (s, &p) in state_proc.iter().enumerate() {
        if p != NONE {
            scratch.states.push(s as u32);
        }
    }

    // Per-proc totals for naming.
    for &s in scratch.states.iter() {
        scratch.per_proc_count[state_proc[s as usize] as usize] += 1;
    }

    // Build variants in state order: compute each state's row bounds in the
    // sorted pair table, intern the row, and record the meta.
    let mut ids: Vec<VariantId> = Vec::with_capacity(scratch.states.len());
    let mut metas: Vec<VariantMeta> = Vec::with_capacity(scratch.states.len());
    {
        let pairs = &scratch.vert_pairs;
        let mut cursor = 0usize;
        for &s in scratch.states.iter() {
            while cursor < pairs.len() && pairs[cursor].0 < s {
                cursor += 1;
            }
            let lo = cursor;
            while cursor < pairs.len() && pairs[cursor].0 == s {
                cursor += 1;
            }
            scratch.row_bounds.push((lo as u32, cursor as u32));
            scratch.row.clear();
            scratch
                .row
                .extend(pairs[lo..cursor].iter().map(|&(_, v)| v));
            let proc = ProcId(state_proc[s as usize]);
            let id = store.intern(proc, &scratch.row);
            scratch.per_proc_seen[proc.index()] += 1;
            let name = variant_name(
                &sdg.proc(proc).name,
                scratch.per_proc_count[proc.index()] as usize,
                scratch.per_proc_seen[proc.index()] as usize,
                false,
            );
            scratch.variant_of_state[s as usize] = ids.len() as u32;
            ids.push(id);
            metas.push(VariantMeta {
                proc,
                name,
                calls: BTreeMap::new(),
                state: StateId(s),
            });
        }
    }

    // Connect variants along call transitions. Reverse determinism gives a
    // unique callee per (caller variant, call site).
    for &(from, c, to) in scratch.call_transitions.iter() {
        let caller_idx = scratch.variant_of_state[to as usize] as usize;
        let callee_idx = scratch.variant_of_state[from as usize] as usize;
        let site = CallSiteId(c);
        if let Some(&prev) = metas[caller_idx].calls.get(&site) {
            if prev != callee_idx {
                return Err(SpecError::internal(
                    "readout",
                    format!(
                        "call site {site:?} targets two different variants in one \
                     caller copy (reverse determinism violated)"
                    ),
                ));
            }
        }
        metas[caller_idx].calls.insert(site, callee_idx);
    }

    // Identify main's variant: proc(main) with final-state membership.
    let finals = a6.finals();
    let mut main_variant = None;
    for (i, meta) in metas.iter().enumerate() {
        if finals.contains(&meta.state) {
            if meta.proc != sdg.main {
                return Err(SpecError::internal(
                    "readout",
                    "final state does not correspond to main (ε-stack invariant broken)",
                ));
            }
            if main_variant.is_some() {
                return Err(SpecError::internal("readout", "multiple main variants"));
            }
            main_variant = Some(i);
        }
    }

    if kind != QueryKind::Chop {
        validate_no_mismatches(sdg, kind, scratch, &metas)?;
    }
    Ok(SpecSlice::from_parts(
        store.clone(),
        ids,
        metas,
        main_variant,
        a6.clone(),
        kind,
    ))
}

/// Whether variant `i`'s row (still sitting in the scratch pair table)
/// contains vertex `v`.
fn scratch_contains(scratch: &ReadoutScratch, i: usize, v: VertexId) -> bool {
    let (lo, hi) = scratch.row_bounds[i];
    let row = &scratch.vert_pairs[lo as usize..hi as usize];
    row.binary_search_by_key(&v.0, |&(_, vert)| vert).is_ok()
}

/// Parameter-completeness validation, per query kind. For backward and
/// residual slices this is Cor. 3.19: in the specialized SDG, a kept formal
/// always has the matching actual at every (specialized) call site, and
/// vice versa. For forward slices only the `post*` closure implications
/// hold — kept actual-in ⟹ kept formal-in, kept formal-out ⟹ kept
/// actual-out — so only those directions are checked. Runs against the
/// scratch rows — no sets are materialized.
fn validate_no_mismatches(
    sdg: &Sdg,
    kind: QueryKind,
    scratch: &ReadoutScratch,
    metas: &[VariantMeta],
) -> Result<(), SpecError> {
    let forward = kind == QueryKind::Forward;
    for (ci, caller) in metas.iter().enumerate() {
        for (&c, &callee_idx) in &caller.calls {
            let site = sdg.call_site(c);
            let callee_proc = sdg.proc(metas[callee_idx].proc);
            for (&ai, &fi) in site.actual_ins.iter().zip(&callee_proc.formal_ins) {
                let actual_in = scratch_contains(scratch, ci, ai);
                let formal_in = scratch_contains(scratch, callee_idx, fi);
                let bad = if forward {
                    actual_in && !formal_in
                } else {
                    actual_in != formal_in
                };
                if bad {
                    return Err(SpecError::internal(
                        "readout",
                        format!(
                            "parameter mismatch at {c:?} slot {:?}: actual={} formal={} \
                         (Cor. 3.19 violated)",
                            sdg.in_slot(fi),
                            actual_in,
                            formal_in
                        ),
                    ));
                }
            }
            for (&ao, &fo) in site.actual_outs.iter().zip(&callee_proc.formal_outs) {
                let actual_out = scratch_contains(scratch, ci, ao);
                let formal_out = scratch_contains(scratch, callee_idx, fo);
                let bad = if forward {
                    formal_out && !actual_out
                } else {
                    actual_out != formal_out
                };
                if bad {
                    return Err(SpecError::internal(
                        "readout",
                        format!(
                            "output mismatch at {c:?} slot {:?}: actual={} formal={}",
                            sdg.out_slot(fo),
                            actual_out,
                            formal_out
                        ),
                    ));
                }
            }
        }
    }
    // Every included user call vertex must have a callee binding.
    for (i, meta) in metas.iter().enumerate() {
        let (lo, hi) = scratch.row_bounds[i];
        for &(_, v) in &scratch.vert_pairs[lo as usize..hi as usize] {
            if let VertexKind::Call { site, .. } = sdg.vertex(VertexId(v)).kind {
                if matches!(sdg.call_site(site).callee, CalleeKind::User(_))
                    && !meta.calls.contains_key(&site)
                {
                    return Err(SpecError::internal(
                        "readout",
                        format!("call vertex at {site:?} included with no callee variant"),
                    ));
                }
            }
        }
    }
    Ok(())
}
