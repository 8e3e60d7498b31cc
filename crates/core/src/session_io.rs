//! Session persistence hooks: exporting and importing the criterion → slice
//! memo in a store-independent form.
//!
//! A long-lived service (the `specslice-server` crate) keeps one [`Slicer`]
//! per analyzed program and wants two things this module provides:
//!
//! * **warm starts** — a restarted process should answer its first repeated
//!   query from the memo instead of re-running `Prestar` and the MRD
//!   pipeline. [`Slicer::export_memo`] turns the memo into plain data
//!   ([`MemoExport`]: criterion key, canonical MRD automaton, materialized
//!   variant rows) that a snapshot format can serialize;
//!   [`Slicer::import_memo`] re-interns the rows into a fresh session's
//!   [`VariantStore`](crate::VariantStore) and installs the entries, after
//!   validating every identifier against the session's SDG — a corrupted or
//!   mismatched snapshot yields a structured error, never a panic and never
//!   a poisoned session.
//! * **memory accounting** — [`Slicer::approx_bytes`] estimates the
//!   session's resident footprint (SDG + encoding + variant store + memo)
//!   from the deterministic `approx_bytes` helpers, so an eviction budget
//!   computed from it is reproducible across runs and machines.
//!
//! Exported entries are *store-independent*: variant content rides along as
//! explicit vertex rows, not as [`VariantId`](crate::VariantId)s (ids are
//! store-relative and meaningless across processes). Import re-interns the
//! rows, so a warm session's store counters equal those of a session that
//! answered the same criteria from a cold memo — and its query responses
//! are byte-identical to the live session the export came from.

use crate::readout::VariantMeta;
use crate::slicer::{CachedSlice, KeySelect, MemoEntry, MemoKey, Slicer};
use crate::{Direction, PipelineStats, SpecError};
use specslice_fsa::{Nfa, StateId};
use specslice_sdg::{CallSiteId, ProcId};
use std::collections::BTreeMap;

/// The criterion key of an exported memo entry, in dense-id form (sorted
/// and deduplicated — the canonical shape the memo itself uses).
/// Raw-automaton criteria are never memoized, so they never appear here.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemoKeyExport {
    /// Sorted vertex ids of an all-contexts criterion.
    AllContexts(Vec<u32>),
    /// Sorted `(vertex, stack-of-call-sites)` configurations.
    Configurations(Vec<(u32, Vec<u32>)>),
}

/// One variant of an exported slice: the positional metadata plus the
/// materialized content row (which lives in the session store while the
/// session is alive).
#[derive(Clone, Debug)]
pub struct MemoExportVariant {
    /// The original procedure this variant specializes.
    pub proc: u32,
    /// The variant's emitted name (`p__1`, … — original name when unique).
    pub name: String,
    /// Original call site → index (in this slice) of the callee variant.
    pub calls: Vec<(u32, u32)>,
    /// The `A6` state the variant was read from.
    pub state: u32,
    /// The variant's sorted dense vertex row.
    pub row: Vec<u32>,
}

/// One memo entry in store-independent, serializable form.
#[derive(Clone, Debug)]
pub struct MemoExport {
    /// The saturation direction the entry answers queries for.
    pub direction: Direction,
    /// The canonical criterion key.
    pub key: MemoKeyExport,
    /// The canonical MRD automaton (`A6`) for the criterion.
    pub a6: Nfa,
    /// The slice's variants, in variant order.
    pub variants: Vec<MemoExportVariant>,
    /// Index of the `main` variant, `None` when the slice is empty.
    pub main_variant: Option<u32>,
    /// The pipeline sizes observed when the entry was first computed.
    pub stats: PipelineStats,
}

fn corrupt(message: impl Into<String>) -> SpecError {
    SpecError::internal("memo_import", message.into())
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
        let mut entries: Vec<(&MemoKey, &MemoEntry)> = memo.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
            .into_iter()
            .map(|(key, entry)| {
                let direction = key.dir;
                let key = match &key.select {
                    KeySelect::AllContexts(vs) => MemoKeyExport::AllContexts(vs.clone()),
                    KeySelect::Configurations(cs) => MemoKeyExport::Configurations(cs.clone()),
                };
                let variants = entry
                    .cached
                    .ids
                    .iter()
                    .zip(&entry.cached.metas)
                    .map(|(&id, meta)| MemoExportVariant {
                        proc: meta.proc.0,
                        name: meta.name.clone(),
                        calls: meta.calls.iter().map(|(c, &i)| (c.0, i as u32)).collect(),
                        state: meta.state.0,
                        row: self.variant_store().row_dense(id),
                    })
                    .collect();
                MemoExport {
                    direction,
                    key,
                    a6: entry.a6.clone(),
                    variants,
                    main_variant: entry.cached.main_variant.map(|i| i as u32),
                    stats: entry.stats,
                }
            })
            .collect()
    }

    /// Imports previously exported memo entries into this session,
    /// re-interning every variant row into the session's
    /// [`VariantStore`](crate::VariantStore). Returns the number of entries
    /// installed. Entries whose key is already memoized are skipped (the
    /// live entry wins — it is known-consistent with this session).
    ///
    /// Every identifier is validated against the session's SDG and
    /// encoding first, and **nothing is installed unless the whole import
    /// validates**: an entry referencing an out-of-range vertex, procedure,
    /// call site, or automaton state — the signature of a snapshot from a
    /// different program or a corrupted file — yields
    /// [`SpecError::Internal`] (context `"memo_import"`) and leaves the
    /// session exactly as it was.
    ///
    /// # Errors
    ///
    /// [`SpecError::Internal`] with context `"memo_import"` on any
    /// validation failure, naming the offending entry.
    pub fn import_memo(&self, entries: &[MemoExport]) -> Result<usize, SpecError> {
        for (i, entry) in entries.iter().enumerate() {
            self.validate_import(entry)
                .map_err(|e| corrupt(format!("entry #{i}: {e}")))?;
        }
        let mut installed = 0usize;
        let mut memo = match self.memo.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        for entry in entries {
            let select = match &entry.key {
                MemoKeyExport::AllContexts(vs) => {
                    let mut v = vs.clone();
                    v.sort_unstable();
                    v.dedup();
                    KeySelect::AllContexts(v)
                }
                MemoKeyExport::Configurations(cs) => {
                    let mut v = cs.clone();
                    v.sort_unstable();
                    v.dedup();
                    KeySelect::Configurations(v)
                }
            };
            let key = MemoKey {
                dir: entry.direction,
                select,
            };
            if memo.contains_key(&key) {
                continue;
            }
            let mut ids = Vec::with_capacity(entry.variants.len());
            let mut metas = Vec::with_capacity(entry.variants.len());
            for v in &entry.variants {
                ids.push(self.store.intern(ProcId(v.proc), &v.row));
                metas.push(VariantMeta {
                    proc: ProcId(v.proc),
                    name: v.name.clone(),
                    calls: v
                        .calls
                        .iter()
                        .map(|&(c, i)| (CallSiteId(c), i as usize))
                        .collect::<BTreeMap<_, _>>(),
                    state: StateId(v.state),
                });
            }
            memo.insert(
                key,
                MemoEntry {
                    a6: entry.a6.clone(),
                    cached: CachedSlice {
                        ids,
                        metas,
                        main_variant: entry.main_variant.map(|i| i as usize),
                    },
                    stats: entry.stats,
                },
            );
            installed += 1;
        }
        Ok(installed)
    }

    /// Checks one entry's identifiers against this session's SDG/encoding.
    fn validate_import(&self, entry: &MemoExport) -> Result<(), String> {
        let n_vertices = self.sdg.vertex_count() as u32;
        let n_sites = self.sdg.call_sites.len() as u32;
        let n_procs = self.sdg.procs.len() as u32;
        let check_vertex = |v: u32| {
            if v >= n_vertices {
                Err(format!("vertex {v} out of range (< {n_vertices})"))
            } else {
                Ok(())
            }
        };
        let check_site = |c: u32| {
            if c >= n_sites {
                Err(format!("call site {c} out of range (< {n_sites})"))
            } else {
                Ok(())
            }
        };
        match &entry.key {
            MemoKeyExport::AllContexts(vs) => {
                if vs.is_empty() {
                    return Err("empty all-contexts key".to_string());
                }
                vs.iter().try_for_each(|&v| check_vertex(v))?;
            }
            MemoKeyExport::Configurations(cs) => {
                if cs.is_empty() {
                    return Err("empty configurations key".to_string());
                }
                for (v, stack) in cs {
                    check_vertex(*v)?;
                    stack.iter().try_for_each(|&c| check_site(c))?;
                }
            }
        }
        let n_states = entry.a6.state_count() as u32;
        for s in entry.a6.symbols() {
            if s.0 >= n_vertices + n_sites {
                return Err(format!(
                    "automaton symbol {} outside the alphabet (< {})",
                    s.0,
                    n_vertices + n_sites
                ));
            }
        }
        let n_variants = entry.variants.len() as u32;
        for (vi, v) in entry.variants.iter().enumerate() {
            if v.proc >= n_procs {
                return Err(format!("variant #{vi}: proc {} out of range", v.proc));
            }
            if v.state >= n_states {
                return Err(format!("variant #{vi}: A6 state {} out of range", v.state));
            }
            if !v.row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("variant #{vi}: vertex row not strictly sorted"));
            }
            v.row.iter().try_for_each(|&x| check_vertex(x))?;
            for &(c, idx) in &v.calls {
                check_site(c)?;
                if idx >= n_variants {
                    return Err(format!(
                        "variant #{vi}: callee index {idx} out of range (< {n_variants})"
                    ));
                }
            }
        }
        if let Some(m) = entry.main_variant {
            if m >= n_variants {
                return Err(format!("main variant index {m} out of range"));
            }
        }
        Ok(())
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
