//! Properties of the scale-corpus generator (`specslice_corpus::scale_program`):
//! every generated program front-ends cleanly (parse + sema, after the §6.2
//! indirect-call lowering its fnptr webs require), and batches over skewed
//! criterion samples are byte-identical across thread counts and to solo
//! queries. The full batch ⇄ solo differential runs on the smallest shape
//! only, to keep CI time bounded; larger shapes check structure and sampled
//! agreement.

use specslice::{Criterion, Slicer, SlicerConfig};
use specslice_corpus::{scale_program, skewed_site_sample, ScaleConfig};

/// Small-tier shapes exercising every generator feature: mutual-recursion
/// rings (including a partial last ring), fnptr webs on and off, skewed
/// printf placement.
fn shapes() -> Vec<(u64, ScaleConfig)> {
    vec![
        (
            1,
            ScaleConfig {
                n_procs: 8,
                n_globals: 4,
                ring: 3,
                indirect_pct: 40,
                n_printfs: 10,
            },
        ),
        (
            2,
            ScaleConfig {
                n_procs: 13, // 13 % 4 != 0: partial last ring
                n_globals: 6,
                ring: 4,
                indirect_pct: 0, // no webs: pure direct-call recursion
                n_printfs: 8,
            },
        ),
        (
            3,
            ScaleConfig {
                n_procs: 16,
                n_globals: 8,
                ring: 4,
                indirect_pct: 25,
                n_printfs: 24,
            },
        ),
    ]
}

fn session(source: &str, num_threads: usize) -> Slicer {
    let program = specslice_lang::frontend(source).expect("scale programs front-end cleanly");
    let lowered =
        specslice::indirect::lower_indirect_calls(&program).expect("indirect lowering succeeds");
    Slicer::from_program_with(
        lowered,
        SlicerConfig {
            num_threads,
            ..SlicerConfig::default()
        },
    )
    .expect("scale programs build SDGs")
}

/// Skewed per-printf criteria, the scale bench's workload shape.
fn skewed_criteria(slicer: &Slicer, count: usize, seed: u64) -> Vec<Criterion> {
    let sites: Vec<Criterion> = slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect();
    skewed_site_sample(sites.len(), count, seed)
        .into_iter()
        .map(|i| sites[i].clone())
        .collect()
}

fn fingerprint(slices: &[specslice::SpecSlice]) -> String {
    format!("{slices:?}")
}

/// Every shape front-ends cleanly and regenerates deterministically from
/// its seed (two generations are byte-equal).
#[test]
fn scale_programs_frontend_cleanly_and_deterministically() {
    for (seed, cfg) in shapes() {
        let source = scale_program(seed, cfg);
        assert_eq!(
            source,
            scale_program(seed, cfg),
            "seed {seed}: generation must be deterministic"
        );
        let slicer = session(&source, 1);
        assert!(
            slicer.sdg().printf_call_sites().count() > 0,
            "seed {seed}: criterion sites exist"
        );
    }
}

/// Batches are byte-identical at 1/2/4 threads on every shape; the
/// 1-thread run is the reference.
#[test]
fn scale_batches_identical_across_threads() {
    for (seed, cfg) in shapes() {
        let source = scale_program(seed, cfg);
        let reference = {
            let slicer = session(&source, 1);
            let criteria = skewed_criteria(&slicer, 20, seed ^ 7);
            fingerprint(&slicer.slice_batch(&criteria).unwrap().slices)
        };
        for threads in [2, 4] {
            let slicer = session(&source, threads);
            let criteria = skewed_criteria(&slicer, 20, seed ^ 7);
            assert_eq!(
                fingerprint(&slicer.slice_batch(&criteria).unwrap().slices),
                reference,
                "seed {seed}: batch at {threads} threads diverged"
            );
        }
    }
}

/// Sampled agreement on every shape: single-criterion slices from a fresh
/// session equal the batch's corresponding entries.
#[test]
fn sampled_batch_entries_match_solo_queries() {
    for (seed, cfg) in shapes() {
        let source = scale_program(seed, cfg);
        let batched = session(&source, 1);
        let criteria = skewed_criteria(&batched, 12, seed.wrapping_mul(31) + 1);
        let batch = batched.slice_batch(&criteria).unwrap();
        let reference = session(&source, 1);
        for (i, criterion) in criteria.iter().enumerate().step_by(3) {
            let solo = reference.slice(criterion).unwrap();
            assert_eq!(
                format!("{:?}", batch.slices[i]),
                format!("{solo:?}"),
                "seed {seed}: criterion {i} diverged from its solo query"
            );
        }
    }
}

/// Full differential on the smallest shape only: every printf site,
/// batch against solo queries, slice-for-slice.
#[test]
fn full_differential_on_smallest_tier() {
    let (seed, cfg) = shapes().remove(0);
    let source = scale_program(seed, cfg);
    let batched = session(&source, 1);
    let solo = session(&source, 1);
    let criteria: Vec<Criterion> = batched
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect();
    let batch = batched.slice_batch(&criteria).unwrap();
    let want: Vec<_> = criteria.iter().map(|c| solo.slice(c).unwrap()).collect();
    assert_eq!(
        fingerprint(&batch.slices),
        fingerprint(&want),
        "batch and solo queries diverged on the full site set"
    );
}
