//! Shared harness for the experiment binary and benches: runs every slicing
//! algorithm over every corpus program and collects the measurements the
//! paper's Figs. 17–22 report. All polyvariant slicing goes through one
//! [`Slicer`] session per program, so the SDG→PDS encoding is paid once per
//! program, not once per criterion.

pub mod alloc_count;
pub mod timer;

use specslice::encode::MAIN_CONTROL;
use specslice::{criteria, Criterion, PipelineStats, Slicer, SpecSlice};
use specslice_fsa::mrd::mrd_of_transposed;
use specslice_pds::{saturate_a1_with_stats, Direction, SaturationBase, SaturationScratch};
use specslice_sdg::binkley::monovariant_executable_slice_with;
use specslice_sdg::slice::backward_closure_slice_with;
use specslice_sdg::{Summaries, VertexId};
use std::time::{Duration, Instant};

/// One sliced criterion with timing and size measurements.
#[derive(Clone, Debug)]
pub struct SliceRecord {
    /// Program name.
    pub program: &'static str,
    /// Criterion vertex set (one printf's actual-ins).
    pub criterion: Vec<VertexId>,
    /// Closure-slice size (vertices).
    pub closure_size: usize,
    /// Monovariant executable slice size.
    pub mono_size: usize,
    /// Monovariant extraneous-element count.
    pub mono_extraneous: usize,
    /// Polyvariant total size (vertices across variants).
    pub poly_size: usize,
    /// Per-procedure variant counts of the polyvariant slice.
    pub variant_counts: Vec<usize>,
    /// Per-variant (original-PDG size, variant size, mono in-proc size).
    pub scatter: Vec<(usize, usize, usize)>,
    /// Wall-clock of the monovariant algorithm over the program's summary
    /// relation (derived once per program, outside the timed region);
    /// median of [`TIMING_REPS`] runs.
    pub mono_time: Duration,
    /// Wall-clock of one session query (criterion → slice, cached encoding);
    /// median of [`TIMING_REPS`] recomputed queries.
    pub poly_time: Duration,
    /// Wall-clock of the PDS + FSA portion alone (Prestar + MRD); median of
    /// [`TIMING_REPS`] runs.
    pub automata_time: Duration,
    /// Peak bytes of PDS/FSA structures (Fig. 22's column 6 analogue).
    pub automata_bytes: usize,
    /// Retained bytes of the SDG (Fig. 22's CodeSurfer analogue).
    pub sdg_bytes: usize,
    /// States after `determinize` (input to `minimize`).
    pub det_states: usize,
    /// States after minimization.
    pub min_states: usize,
    /// The full pipeline accounting of the session query (`poly_time`,
    /// `det_states`, `min_states` above are projections of it).
    pub stats: PipelineStats,
    /// The slice itself.
    pub slice: SpecSlice,
}

/// How many times [`slice_program`] runs each timed stage; it records the
/// median, so one scheduler hiccup does not move a figure.
pub const TIMING_REPS: usize = 5;

/// The median wall-clock of [`TIMING_REPS`] runs of `stage`.
fn median_time(mut stage: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..TIMING_REPS)
        .map(|_| {
            let t = Instant::now();
            stage();
            t.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[TIMING_REPS / 2]
}

/// Runs all per-printf slices of one program through its session,
/// collecting records. The session must not memoize, so every repetition
/// of the timed poly query recomputes its answer.
pub fn slice_program(name: &'static str, slicer: &Slicer) -> Vec<SliceRecord> {
    assert!(
        !slicer.config().memoize,
        "slice_program times repeated queries: the session must not memoize"
    );
    let sdg = slicer.sdg();
    let mut out = Vec::new();
    let printf_sites: Vec<_> = sdg.printf_call_sites().cloned().collect();
    // The summary relation depends only on the SDG: derive it once, outside
    // the timed regions, so the mono column times the slicer alone (as the
    // poly column reuses the session's encoding and saturation base).
    let summaries = Summaries::of(sdg);
    for site in printf_sites {
        let cv: Vec<VertexId> = site.actual_ins.clone();

        let mut mono = None;
        let mono_time = median_time(|| {
            mono = Some(monovariant_executable_slice_with(sdg, &summaries, &cv));
        });
        let mono = mono.expect("timed at least once");

        // Polyvariant query against the cached session encoding. Timing
        // comes from the pipeline's own accounting ([`PipelineStats`]), so
        // every driver reports the same measurement.
        let criterion = Criterion::AllContexts(cv.clone());
        let mut query_times = Vec::with_capacity(TIMING_REPS);
        let mut answer = None;
        for _ in 0..TIMING_REPS {
            let (slice, stats) = slicer.slice_with_stats(&criterion).expect("criterion");
            query_times.push(stats.query_time);
            answer = Some((slice, stats));
        }
        query_times.sort_unstable();
        let poly_time = query_times[TIMING_REPS / 2];
        let (slice, stats) = answer.expect("queried at least once");

        // Phase-level timing of the automaton stages alone (re-run against
        // the same cached encoding; the paper's Fig. 21 column 6).
        let enc = slicer.encoding();
        let query = criteria::query_automaton(sdg, enc, &criterion).expect("criterion");
        let base = slicer
            .saturation_base(Direction::Backward)
            .unwrap_or(SaturationBase::empty());
        let mut a6 = None;
        let automata_time = median_time(|| {
            let mut sat = SaturationScratch::default();
            let (a1, _) = saturate_a1_with_stats(
                Direction::Backward,
                &enc.index,
                base,
                &query,
                MAIN_CONTROL,
                &mut sat,
            )
            .expect("well-formed query");
            a6 = Some(mrd_of_transposed(a1).0);
        });
        let a6 = a6.expect("timed at least once");

        let closure = backward_closure_slice_with(sdg, &summaries, &cv);
        let mut per_proc = std::collections::BTreeMap::new();
        for meta in slice.metas() {
            *per_proc.entry(meta.proc).or_insert(0usize) += 1;
        }
        let mono_per_proc = {
            let mut m = std::collections::BTreeMap::new();
            for &v in &mono.vertices {
                *m.entry(sdg.vertex(v).proc).or_insert(0usize) += 1;
            }
            m
        };
        let scatter = slice
            .metas()
            .iter()
            .zip(slice.variant_ids())
            .map(|(meta, &id)| {
                (
                    sdg.proc(meta.proc).vertices.len(),
                    slice.store().row_len(id),
                    mono_per_proc.get(&meta.proc).copied().unwrap_or(0),
                )
            })
            .collect();

        out.push(SliceRecord {
            program: name,
            criterion: cv,
            closure_size: closure.len(),
            mono_size: mono.vertices.len(),
            mono_extraneous: mono.extraneous.len(),
            poly_size: slice.total_vertices(),
            variant_counts: per_proc.values().copied().collect(),
            scatter,
            mono_time,
            poly_time,
            automata_time,
            automata_bytes: stats.saturation_peak_bytes + a6.transition_count() * 24,
            sdg_bytes: sdg.approx_bytes(),
            det_states: stats.mrd.determinized_states,
            min_states: stats.mrd.minimized_states,
            stats,
            slice,
        });
    }
    out
}

/// How many distinct criteria `criteria` holds — what a batch saturates
/// once each. All-contexts criteria are keyed by their vertex set; any
/// other criterion counts as distinct.
pub fn distinct_criteria(criteria: &[Criterion]) -> usize {
    let mut keys = std::collections::BTreeSet::new();
    let mut other = 0;
    for criterion in criteria {
        match criterion {
            Criterion::AllContexts(verts) => {
                let mut key: Vec<u32> = verts.iter().map(|v| v.0).collect();
                key.sort_unstable();
                key.dedup();
                keys.insert(key);
            }
            _ => other += 1,
        }
    }
    keys.len() + other
}

/// Geometric mean of strictly positive values (the paper's aggregation).
pub fn geometric_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        return 0.0;
    }
    (log_sum / n as f64).exp()
}

/// Sample standard deviation.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var =
        values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// Lines of code of a MiniC source (non-blank, non-comment).
pub fn loc(source: &str) -> usize {
    source
        .lines()
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.starts_with("//")
        })
        .count()
}
