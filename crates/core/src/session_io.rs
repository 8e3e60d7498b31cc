//! Session persistence hooks: exporting and importing the criterion → slice
//! memo in a store-independent form.
//!
//! A long-lived service (the `specslice-server` crate) keeps one [`Slicer`]
//! per analyzed program and wants two things this module provides:
//!
//! * **warm starts** — a restarted process should answer its first repeated
//!   query from the memo instead of re-running `Prestar` and the MRD
//!   pipeline. [`Slicer::export_memo`] turns the memo into plain data
//!   ([`MemoExport`]: the canonical [`MemoKey`], the canonical MRD
//!   automaton `A6`, and the pipeline stats) that a snapshot format can
//!   serialize; [`Slicer::import_memo`] validates each key as a criterion
//!   of the session's SDG, reads each `A6` out again into the session's
//!   [`VariantStore`](crate::VariantStore) — the same read-out an edit runs
//!   for the memo entries it keeps — and installs the entries. A corrupted
//!   or mismatched snapshot yields a structured error, never a panic and
//!   never a poisoned session.
//! * **memory accounting** — [`Slicer::approx_bytes`] estimates the
//!   session's resident footprint (SDG + encoding + variant store + memo)
//!   from the deterministic `approx_bytes` helpers, so an eviction budget
//!   computed from it is reproducible across runs and machines.
//!
//! Exported entries are *store-independent*: a slice's variant rows are a
//! function of its `A6` (Alg. 1 lines 9–24), so they are not exported; the
//! store-relative [`VariantId`](crate::VariantId)s would be meaningless
//! across processes anyway. Import re-derives the rows in key order, so a
//! warm session's store counters equal those of a session that answered
//! the same criteria from a cold memo — and its query responses are
//! byte-identical to the live session the export came from.

use crate::readout::{self, ReadoutScratch};
use crate::slicer::{memo_key, MemoEntry, MemoKey, Slicer};
use crate::{criteria, Direction, PipelineStats, SpecError};
use specslice_fsa::Nfa;

/// One memo entry in store-independent, serializable form.
#[derive(Clone, Debug)]
pub struct MemoExport {
    /// The canonical memo key: query direction and criterion selector.
    pub key: MemoKey,
    /// The canonical MRD automaton (`A6`) for the criterion.
    pub a6: Nfa,
    /// The pipeline sizes observed when the entry was first computed.
    pub stats: PipelineStats,
}

impl Slicer {
    /// Exports the criterion → slice memo as store-independent entries,
    /// sorted by key (so the export — and anything serialized from it — is
    /// deterministic). Sessions with memoization disabled export nothing.
    pub fn export_memo(&self) -> Vec<MemoExport> {
        let memo = match self.memo.read() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        let mut entries: Vec<MemoExport> = memo
            .iter()
            .map(|(key, entry)| MemoExport {
                key: key.clone(),
                a6: entry.a6.clone(),
                stats: entry.stats,
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// Imports previously exported memo entries into this session, reading
    /// each entry's `A6` out into the session's
    /// [`VariantStore`](crate::VariantStore). Returns the number of entries
    /// installed. Entries whose key is already memoized are skipped (the
    /// live entry wins — it is known-consistent with this session).
    ///
    /// Every entry is validated and read out first, and **nothing is
    /// installed unless the whole import succeeds**: a key that is not a
    /// valid criterion of this session's SDG (out-of-range vertex or call
    /// site, unrealizable stack), an `A6` that is not reverse-deterministic,
    /// or an `A6` whose read-out fails — the signature of a snapshot from a
    /// different program or a corrupted file — yields
    /// [`SpecError::Internal`] (context `"memo_import"`) and leaves the
    /// session exactly as it was.
    ///
    /// # Errors
    ///
    /// [`SpecError::Internal`] with context `"memo_import"` on any
    /// validation failure, naming the offending entry.
    pub fn import_memo(&self, entries: &[MemoExport]) -> Result<usize, SpecError> {
        let mut scratch = ReadoutScratch::default();
        let mut staged = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let criterion = entry.key.select.criterion();
            let read = criteria::check_criterion(&self.sdg, &criterion).and_then(|()| {
                let kind = entry.key.dir.into();
                readout::read_out_staged(&self.sdg, &self.enc, &entry.a6, kind, &mut scratch)
            });
            let slice =
                read.map_err(|e| SpecError::internal("memo_import", format!("entry #{i}: {e}")))?;
            // Re-keyed through the criterion, so a non-canonical exported
            // key still lands on the entry a query would look up.
            let key =
                memo_key(entry.key.dir, &criterion).expect("a key names a memoizable criterion");
            staged.push((key, slice, entry.stats));
        }
        let mut installed = 0usize;
        let mut memo = match self.memo.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        for (key, slice, stats) in staged {
            if memo.contains_key(&key) {
                continue;
            }
            let slice = slice.reintern_into(&self.store);
            memo.insert(key, MemoEntry::of(slice, stats));
            installed += 1;
        }
        Ok(installed)
    }

    /// Estimated resident bytes of this session: SDG, PDS encoding, variant
    /// store, memoized automata, the saturation bases once something has
    /// built them, and the
    /// warm scratch pool (saturation arenas, row tables, and readout
    /// buffers retained by idle workers).
    /// Built from the deterministic `approx_bytes` helpers
    /// ([`specslice_sdg::Sdg::approx_bytes`],
    /// [`crate::encode::Encoded::approx_bytes`],
    /// [`crate::StoreStats::approx_bytes`],
    /// [`PipelineStats::approx_bytes`],
    /// [`specslice_pds::SaturationBase::approx_bytes`],
    /// [`crate::ScratchStats`]), so eviction decisions based on it
    /// — the server's session budget — are reproducible across runs.
    pub fn approx_bytes(&self) -> usize {
        let memo_bytes: usize = {
            let memo = match self.memo.read() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            memo.values()
                .map(|e| e.stats.approx_bytes() + 128)
                .sum::<usize>()
        };
        self.sdg.approx_bytes()
            + self.enc.approx_bytes()
            + self.store_stats().approx_bytes()
            + memo_bytes
            + [Direction::Backward, Direction::Forward]
                .into_iter()
                .filter_map(|dir| self.saturation_base(dir))
                .map(|b| b.approx_bytes())
                .sum::<usize>()
            + self.scratch_stats().approx_bytes
    }
}
