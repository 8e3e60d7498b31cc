//! Slice statistics backing the paper's evaluation (Figs. 18–20).

use crate::readout::SpecSlice;
use specslice_sdg::slice::backward_closure_slice;
use specslice_sdg::{ProcId, Sdg, VertexId};
use std::collections::{BTreeMap, BTreeSet};

/// Size and shape statistics comparing a specialization slice against the
/// closure slice it refines.
#[derive(Clone, Debug)]
pub struct SliceStats {
    /// Vertices in the closure slice (`|closure slice|`, the Fig. 19
    /// normalization base).
    pub closure_size: usize,
    /// Total vertices across all specialized PDGs (replicas counted).
    pub spec_total: usize,
    /// Distinct original vertices covered by the specialization slice.
    pub spec_elems: usize,
    /// Histogram: number of specialized versions → number of procedures
    /// (Fig. 18).
    pub variant_histogram: BTreeMap<usize, usize>,
    /// The largest number of variants any procedure received.
    pub max_variants: usize,
    /// Per-variant `(proc, |variant|, |proc's vertices in closure slice|)` —
    /// the Fig. 20 scatter series.
    pub per_variant_sizes: Vec<(ProcId, usize, usize)>,
    /// Covered vertices outside the closure slice. The paper's element-level
    /// soundness property says specialization slices never contain any, so
    /// a non-empty set is a bug.
    pub outside_closure: BTreeSet<VertexId>,
    /// Closure-slice vertices no variant covers. Empty for all-contexts
    /// criteria (element-level completeness); a configuration criterion
    /// may leave some out.
    pub closure_not_covered: BTreeSet<VertexId>,
}

/// Computes statistics for `slice` against the closure slice from
/// `criterion_vertices` (the element-level criterion).
pub fn slice_stats(sdg: &Sdg, slice: &SpecSlice, criterion_vertices: &[VertexId]) -> SliceStats {
    let closure = backward_closure_slice(sdg, criterion_vertices);
    let elems = slice.elems();

    let mut per_proc: BTreeMap<ProcId, usize> = BTreeMap::new();
    for meta in slice.metas() {
        *per_proc.entry(meta.proc).or_insert(0) += 1;
    }
    let mut variant_histogram: BTreeMap<usize, usize> = BTreeMap::new();
    for n in per_proc.values() {
        *variant_histogram.entry(*n).or_insert(0) += 1;
    }
    let max_variants = per_proc.values().copied().max().unwrap_or(0);

    let closure_per_proc: BTreeMap<ProcId, usize> = {
        let mut m = BTreeMap::new();
        for &v in &closure {
            *m.entry(sdg.vertex(v).proc).or_insert(0) += 1;
        }
        m
    };
    let store = slice.store();
    let per_variant_sizes = slice
        .metas()
        .iter()
        .zip(slice.variant_ids())
        .map(|(meta, &id)| {
            (
                meta.proc,
                store.row_len(id),
                closure_per_proc.get(&meta.proc).copied().unwrap_or(0),
            )
        })
        .collect();

    SliceStats {
        closure_size: closure.len(),
        spec_total: slice.total_vertices(),
        spec_elems: elems.len(),
        variant_histogram,
        max_variants,
        per_variant_sizes,
        outside_closure: elems.difference(&closure).copied().collect(),
        closure_not_covered: closure.difference(&elems).copied().collect(),
    }
}
