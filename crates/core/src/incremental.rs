//! Incremental re-slicing: editing a [`Slicer`] session in place.
//!
//! A session caches the program-dependent artifacts — the SDG, the
//! SDG→PDS encoding, and the saturation bases over it — plus a
//! criterion → slice memo. Rebuilding all of that after every edit throws
//! away exactly the work a sustained edit-reslice loop needs to keep.
//! [`Slicer::apply_edit`] threads a [`ProgramDelta`] through every layer
//! instead:
//!
//! 1. the delta is applied, re-normalized, and re-checked
//!    (`specslice_lang::delta`);
//! 2. the SDG is patched — dependence edges are recomputed only for dirty
//!    procedures (`specslice_sdg::patch`);
//! 3. the PDS encoding is derived afresh from the patched SDG
//!    ([`encode::encode_sdg`]): it is a pure function of the SDG
//!    (Defn. 3.2), costs a few percent of an edit, and so matches a fresh
//!    session's rule for rule;
//! 4. both saturation bases are dropped for lazy rebuild (nothing else
//!    is program-dependent: an all-contexts query reads its stack language
//!    off the patched call graph, see [`crate::criteria`]);
//! 5. memo entries are kept (identifier-remapped, re-canonicalized, and
//!    re-read-out once into the session's fresh [`VariantStore`] by the
//!    read-out a snapshot import runs too — the superseded store's rows
//!    are keyed by pre-edit vertex ids) unless the
//!    edit's *impact region* — every procedure call-reachable from a
//!    rebuilt one — intersects the procedures their slice mentions.
//!    Unaffected criteria are then answered without re-running `post*`,
//!    `Prestar`, the MRD pipeline, or the read-out: a hit clones the
//!    cached `VariantId` rows.
//!
//! The contract is exact: after `apply_edit`, every query answers
//! byte-for-byte what a fresh `Slicer` on the edited program would answer
//! (`tests/incremental.rs` checks this across the corpus). When the SDG
//! patch fails, the session re-patches with every procedure rebuilt, which
//! maps no identifier and so drops the whole memo — the incremental path
//! changes cost, never results.

use crate::encode;
use crate::readout::{self, ReadoutScratch};
use crate::slicer::{KeySelect, MemoEntry, MemoKey, Slicer};
use crate::store::VariantStore;
use crate::SpecError;
use specslice_fsa::{canonicalize_mrd, Nfa, Symbol};
use specslice_lang::{Program, ProgramDelta};
use specslice_sdg::{patch_sdg, CallSiteId, CalleeKind, ProcId, Sdg, SdgPatch, VertexId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// What one [`Slicer::apply_edit`] call reused versus recomputed.
#[derive(Clone, Debug, Default)]
pub struct EditReport {
    /// Procedures whose dependence edges were recomputed.
    pub rebuilt_procs: Vec<String>,
    /// Procedures whose dependence edges were copied from the old SDG.
    pub reused_procs: usize,
    /// Always 0: an edit re-encodes the patched SDG. Kept only because the
    /// perfbench harness (`perfbench/src/traced.rs`) reads it; ROADMAP
    /// item 1's benchmark change deletes it.
    #[doc(hidden)]
    pub rules_reused: usize,
    /// Memo entries kept across the edit (remapped to new identifiers).
    pub memo_kept: usize,
    /// Memo entries invalidated by the edit.
    pub memo_dropped: usize,
    /// `true` when the SDG patch failed and the session fell back to
    /// rebuilding every procedure, dropping the whole memo (results are
    /// identical either way).
    pub full_rebuild: bool,
}

impl Slicer {
    /// Applies a program edit to the session in place, patching the cached
    /// SDG and slice memo instead of rebuilding them (the PDS encoding is
    /// derived afresh from the patched SDG).
    ///
    /// After this returns, the session behaves exactly like
    /// `Slicer::from_program` on the edited program — same slices, byte for
    /// byte — but queries whose slice region the edit did not touch are
    /// answered from the patched memo without re-running the saturation
    /// pipeline.
    ///
    /// ```
    /// use specslice::{Criterion, Slicer};
    /// use specslice_lang::{ProgramDelta, ProgramEdit};
    ///
    /// let mut slicer = Slicer::from_source(
    ///     "int g; void p(int a) { g = a; } \
    ///      int main() { p(2); printf(\"%d\", g); return 0; }",
    /// )?;
    /// let criterion = Criterion::printf_actuals(slicer.sdg());
    /// let before = slicer.slice(&criterion)?;
    ///
    /// // Edit p, re-slice: the session is patched, not rebuilt.
    /// let program = slicer.program().unwrap().clone();
    /// let replacement = specslice_lang::frontend(
    ///     "int g; void p(int a) { g = a + 1; } \
    ///      int main() { p(2); printf(\"%d\", g); return 0; }",
    /// )?;
    /// let delta = ProgramDelta::diff(&program, &replacement);
    /// let report = slicer.apply_edit(&delta)?;
    /// assert!(report.rebuilt_procs.contains(&"p".to_string()));
    /// let after = slicer.slice(&Criterion::printf_actuals(slicer.sdg()))?;
    /// assert_eq!(before.elems().len(), after.elems().len());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] / [`SpecError::Sema`] when the delta does not
    /// apply cleanly (unknown targets, or the edited program fails the
    /// checker); [`SpecError::Internal`] for sessions built with
    /// `Slicer::from_sdg`, which carry no program to edit. The session is
    /// unchanged when an error is returned.
    pub fn apply_edit(&mut self, delta: &ProgramDelta) -> Result<EditReport, SpecError> {
        let program = self.program.as_ref().ok_or_else(|| {
            SpecError::internal(
                "apply_edit",
                "session was built from an SDG only; use Slicer::from_source / \
                 from_program to enable incremental edits",
            )
        })?;
        let new_program = delta.apply(program)?;
        let touched = delta.touched_functions(program);
        let full = delta.touches_globals();
        let (patch, full_rebuild) = match patch_sdg(&self.sdg, &new_program, &touched, full) {
            Ok(patch) => (patch, false),
            // A failed patch means the old session state cannot be
            // correlated with the edited program (e.g. a hand-modified SDG);
            // results must not depend on which path ran, so rebuild every
            // procedure, which maps no identifier.
            Err(_) => (patch_sdg(&self.sdg, &new_program, &touched, true)?, true),
        };
        Ok(self.install_patch(new_program, patch, full_rebuild))
    }

    /// Swaps the patched state in, migrating every cache the edit spared.
    fn install_patch(
        &mut self,
        new_program: Program,
        patch: SdgPatch,
        full_rebuild: bool,
    ) -> EditReport {
        let enc = encode::encode_sdg(&patch.sdg);

        // The edit's impact region: procedures whose slices could observe
        // the edit. A slice's automaton mentions every procedure on its
        // dependence paths *and* on the call chains from `main` down to its
        // vertices, so a statement edit can only influence slices that
        // mention the edited procedure itself. Only a *call-structure*
        // change (procedure added, call inserted/removed) can create or
        // destroy chains into procedures it reaches — those cast their
        // call-descendant net as well. "impact ∩ mentions = ∅" then
        // certifies a slice's dependence paths and stacks are untouched.
        // The same certificate covers forward (post*) memo entries: a
        // forward language can only change if a mentioned procedure was
        // rebuilt or a new call chain routes through the criterion's
        // procedure — and the criterion's own procedures anchor `mentions`
        // even when the slice is empty (see below).
        let mut impact = call_descendants(&patch.sdg, patch.structure_changed.iter().cloned());
        impact.extend(patch.rebuilt.iter().cloned());

        // Symbol translation old encoding → new encoding.
        let old_enc = &self.enc;
        let sym_map = |s: Symbol| -> Option<Symbol> {
            if let Some(v) = old_enc.symbol_vertex(s) {
                patch.map_vertex(v).map(|nv| Symbol(nv.0))
            } else if let Some(c) = old_enc.symbol_call_site(s) {
                patch
                    .map_call_site(c)
                    .map(|nc| Symbol(enc.n_vertices + nc.0))
            } else {
                None
            }
        };
        // Procedures an entry depends on, in old-SDG terms: everything its
        // slice automaton mentions, *plus* the criterion's own vertices and
        // stack sites. The latter matter exactly when the slice is empty —
        // an unreachable criterion's automaton mentions nothing, but the
        // entry still turns stale the moment an edit routes a call chain to
        // the criterion's procedure, so the criterion anchors it.
        let mentions = |key: &MemoKey, a6: &Nfa| -> BTreeSet<String> {
            let mut out = BTreeSet::new();
            let add_vertex = |out: &mut BTreeSet<String>, v: VertexId| {
                if let Some(vx) = self.sdg.vertices.get(v.index()) {
                    out.insert(self.sdg.proc(vx.proc).name.clone());
                }
            };
            let add_site = |out: &mut BTreeSet<String>, c: CallSiteId| {
                if let Some(site) = self.sdg.call_sites.get(c.index()) {
                    out.insert(self.sdg.proc(site.caller).name.clone());
                    if let CalleeKind::User(p) = site.callee {
                        out.insert(self.sdg.proc(p).name.clone());
                    }
                }
            };
            for s in a6.symbols() {
                if let Some(v) = old_enc.symbol_vertex(s) {
                    add_vertex(&mut out, v);
                } else if let Some(c) = old_enc.symbol_call_site(s) {
                    add_site(&mut out, c);
                }
            }
            match &key.select {
                KeySelect::AllContexts(vs) => {
                    for &v in vs {
                        add_vertex(&mut out, VertexId(v));
                    }
                }
                KeySelect::Configurations(cs) => {
                    for (v, stack) in cs {
                        add_vertex(&mut out, VertexId(*v));
                        for &c in stack {
                            add_site(&mut out, CallSiteId(c));
                        }
                    }
                }
            }
            out
        };

        // Migrate the memo: remap identifiers, keep what the impact region
        // provably spares, re-canonicalize so a memo hit is byte-identical
        // to a fresh computation on the edited program. The edit also
        // replaces the session's variant store (the old store's rows are
        // keyed by pre-edit vertex ids; slices already returned keep their
        // own handle to it), so each surviving entry's cached rows are
        // rebuilt by re-reading the migrated automaton out into the fresh
        // store — still skipping `Prestar` and the MRD pipeline, the two
        // super-linear stages. Entries are migrated in key order so the
        // fresh store's interned ids are process-deterministic.
        let new_store = Arc::new(VariantStore::new());
        let old_memo = {
            let mut guard = self.memo.write().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        let mut old_entries: Vec<(MemoKey, MemoEntry)> = old_memo.into_iter().collect();
        old_entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut scratch = ReadoutScratch::default();
        let mut kept: HashMap<MemoKey, MemoEntry> = HashMap::new();
        let mut dropped = 0usize;
        for (key, entry) in old_entries {
            let survives = mentions(&key, &entry.a6).is_disjoint(&impact);
            let migrated = survives
                .then(|| {
                    let nk = key.remap(|v| patch.map_vertex(v), |c| patch.map_call_site(c))?;
                    let a6 = canonicalize_mrd(&entry.a6.remap_symbols(sym_map)?);
                    let slice = readout::read_out_staged(
                        &patch.sdg,
                        &enc,
                        &a6,
                        key.dir.into(),
                        &mut scratch,
                    )
                    .ok()?
                    .reintern_into(&new_store);
                    Some((nk, MemoEntry::of(slice, entry.stats)))
                })
                .flatten();
            match migrated {
                Some((nk, ne)) => {
                    kept.insert(nk, ne);
                }
                None => dropped += 1,
            }
        }

        let report = EditReport {
            rebuilt_procs: patch.rebuilt.iter().cloned().collect(),
            reused_procs: patch.reused_procs,
            rules_reused: 0,
            memo_kept: kept.len(),
            memo_dropped: dropped,
            full_rebuild,
        };

        self.program = Some(new_program);
        self.sdg = patch.sdg;
        self.enc = enc;
        self.store = new_store;
        // The bases saturate the old encoding; dropped for lazy rebuild,
        // so an edit never pays for them.
        self.saturation_bases = Default::default();
        *self.memo.write().unwrap_or_else(|e| e.into_inner()) = kept;
        report
    }
}

/// Every procedure call-reachable from `seeds` (including the seeds), by
/// name, over the SDG's user-call edges.
fn call_descendants(sdg: &Sdg, seeds: impl IntoIterator<Item = String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut work: Vec<ProcId> = seeds
        .into_iter()
        .filter_map(|n| sdg.proc_by_name.get(&n).copied())
        .collect();
    for &p in &work {
        out.insert(sdg.proc(p).name.clone());
    }
    while let Some(p) = work.pop() {
        for site in sdg.call_sites.iter().filter(|c| c.caller == p) {
            if let CalleeKind::User(q) = site.callee {
                if out.insert(sdg.proc(q).name.clone()) {
                    work.push(q);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{Criterion, Direction, Slicer};
    use specslice_lang::ProgramDelta;
    use specslice_sdg::CallSiteId;

    /// When the SDG patch fails, the edit falls back to rebuilding every
    /// procedure: the whole memo drops, both saturation bases drop like on
    /// the patch path, and the next query of each direction rebuilds its
    /// base over the new encoding and answers like a fresh session. A
    /// backward all-contexts slice builds only the backward base.
    #[test]
    fn full_rebuild_drops_the_saturation_base() {
        const SRC: &str = r#"
            int g;
            void p(int a) { g = a; }
            int main() { p(1); printf("%d", g); return 0; }
        "#;
        let mut slicer = Slicer::from_source(SRC).unwrap();
        let all = Criterion::printf_actuals(slicer.sdg());
        slicer.slice(&all).unwrap();
        let builds = |s: &Slicer| {
            [Direction::Backward, Direction::Forward].map(|d| s.saturation_base_builds(d))
        };
        assert_eq!(builds(&slicer), [1, 0]);
        slicer.forward_slice(&all).unwrap();
        assert_eq!(builds(&slicer), [1, 1]);

        // A hand-modified SDG: `main` gains a phantom call site, so the
        // patch that copies `main` finds its call sites stale and fails.
        let mut phantom = slicer.sdg.call_sites[0].clone();
        phantom.id = CallSiteId(slicer.sdg.call_sites.len() as u32);
        slicer.sdg.call_sites.push(phantom);
        let edited = specslice_lang::frontend(&SRC.replace("g = a;", "g = a + 1;")).unwrap();
        let delta = ProgramDelta::diff(slicer.program().unwrap(), &edited);
        let report = slicer.apply_edit(&delta).unwrap();
        assert!(report.full_rebuild, "{report:?}");
        assert_eq!((report.memo_kept, report.memo_dropped), (0, 2));
        assert!(slicer.saturation_base(Direction::Backward).is_none());
        assert!(slicer.saturation_base(Direction::Forward).is_none());
        assert_eq!(builds(&slicer), [1, 1]);

        let all = Criterion::printf_actuals(slicer.sdg());
        let again = slicer.slice(&all).unwrap();
        assert_eq!(builds(&slicer), [2, 1]);
        let forward = slicer.forward_slice(&all).unwrap();
        assert_eq!(builds(&slicer), [2, 2]);
        let fresh = Slicer::from_program(slicer.program().unwrap().clone()).unwrap();
        assert_eq!(slicer.sdg().call_sites.len(), fresh.sdg().call_sites.len());
        assert_eq!(
            format!("{again:?}"),
            format!("{:?}", fresh.slice(&all).unwrap())
        );
        assert_eq!(
            format!("{forward:?}"),
            format!("{:?}", fresh.forward_slice(&all).unwrap())
        );
    }
}
