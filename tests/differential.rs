//! The batch contract: every batch entry point must answer exactly what
//! one solo query per criterion answers. Byte-identical slices,
//! byte-identical memo contents (the pipeline counters included — a batch
//! saturates each distinct criterion once, just as the solo queries do),
//! and byte-identical specialized programs, across every corpus program,
//! the three feature grids, thread widths 1/2/4, both query directions,
//! and a seeded random sweep of criterion subsets. The oracle is a
//! 1-thread session answering `slice` / `forward_slice` one criterion at a
//! time.

use specslice::{BatchResult, Criterion, Direction, Slicer, SlicerConfig, SpecError, SpecSlice};
use specslice_corpus::rng::StdRng;
use specslice_sdg::VertexId;

const DIRECTIONS: [Direction; 2] = [Direction::Backward, Direction::Forward];

fn session(src: &str, num_threads: usize) -> Slicer {
    Slicer::from_source_with(
        src,
        SlicerConfig {
            num_threads,
            ..SlicerConfig::default()
        },
    )
    .unwrap()
}

/// One batch in direction `dir`.
fn run_batch(slicer: &Slicer, dir: Direction, criteria: &[Criterion]) -> BatchResult {
    match dir {
        Direction::Backward => slicer.slice_batch(criteria).unwrap(),
        Direction::Forward => slicer.forward_slice_batch(criteria).unwrap(),
    }
}

/// One solo query per criterion, in order, in direction `dir`.
fn run_solo(slicer: &Slicer, dir: Direction, criteria: &[Criterion]) -> Vec<SpecSlice> {
    criteria
        .iter()
        .map(|c| match dir {
            Direction::Backward => slicer.slice(c).unwrap(),
            Direction::Forward => slicer.forward_slice(c).unwrap(),
        })
        .collect()
}

/// Per-printf criteria — the paper's evaluation workload.
fn per_printf_criteria(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// `SpecSlice` holds only deterministic structure, so Debug is a faithful
/// byte-level fingerprint.
fn fingerprint(slices: &[SpecSlice]) -> String {
    format!("{slices:?}")
}

/// Memo fingerprint: keys, canonical A6 automata, variant metadata and
/// content rows, the main-variant index, and the deterministic pipeline
/// counters each entry recorded (wall-clock excluded).
fn memo_fingerprint(slicer: &Slicer) -> String {
    slicer
        .export_memo()
        .iter()
        .map(|e| {
            let s = &e.stats;
            format!(
                "{:?} {:?} | {:?} | {:?} | {:?} | {:?}\n",
                e.direction,
                e.key,
                e.a6,
                e.variants,
                e.main_variant,
                (
                    s.saturation_transitions,
                    s.saturation_rule_applications,
                    s.a1_states,
                    s.a1_transitions,
                    s.mrd.mrd_states,
                    s.saturations_run,
                ),
            )
        })
        .collect()
}

/// The twelve corpus programs plus the three feature grids the benchmarks
/// measure.
fn workloads() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    for n in [12, 24, 40] {
        out.push((format!("grid{n}"), specslice_corpus::feature_grid(n)));
    }
    out
}

/// Corpus + grids, both directions, at 1/2/4 threads: batch slices and
/// memo contents must be byte-identical to the solo oracle's, the batch
/// must run one saturation per distinct criterion, and the merged
/// specialized program must not depend on the thread count.
#[test]
fn batches_match_solo_queries() {
    for (name, src) in workloads() {
        let base = session(&src, 1);
        let per_printf = per_printf_criteria(&base);
        let mut criteria = per_printf.clone();
        criteria.push(Criterion::printf_actuals(base.sdg()));
        // Specialize over the per-printf set only: for single-printf
        // programs the union criterion duplicates the lone member, which
        // `specialize_program` rejects by design.
        let want_spec = base.specialize_program(&per_printf).unwrap();

        for dir in DIRECTIONS {
            let oracle = session(&src, 1);
            let want_slices = fingerprint(&run_solo(&oracle, dir, &criteria));
            let want_memo = memo_fingerprint(&oracle);
            // The solo memo holds one entry per distinct criterion.
            let distinct = oracle.memo_len();

            for threads in [1, 2, 4] {
                let slicer = session(&src, threads);
                let batch = run_batch(&slicer, dir, &criteria);
                assert_eq!(
                    batch.aggregate.saturations_run, distinct,
                    "{name} {dir}: {threads}-thread batch saturations"
                );
                assert_eq!(
                    fingerprint(&batch.slices),
                    want_slices,
                    "{name} {dir}: batch slices diverged at {threads} threads"
                );
                assert_eq!(
                    memo_fingerprint(&slicer),
                    want_memo,
                    "{name} {dir}: batch memo diverged at {threads} threads"
                );
                if dir == Direction::Backward {
                    let spec = slicer.specialize_program(&per_printf).unwrap();
                    assert_eq!(
                        spec.source(),
                        want_spec.source(),
                        "{name}: specialized program diverged at {threads} threads"
                    );
                    assert_eq!(
                        spec.merged_variant_count(),
                        want_spec.merged_variant_count(),
                        "{name}: merged variant count diverged at {threads} threads"
                    );
                }
            }
        }
    }
}

/// Seeded random criterion subsets: singleton vertices, cross-procedure
/// all-contexts mixes, and the full union, drawn reproducibly from the
/// corpus PRNG. Every 4-thread batch, in both directions, must agree with
/// the solo oracle.
#[test]
fn random_criterion_subsets_match_solo_queries() {
    let mut rng = StdRng::seed_from_u64(0x5_11CE);
    for name in ["wc", "gzip", "replace"] {
        let prog = specslice_corpus::by_name(name).unwrap();
        let oracle = session(prog.source, 1);
        let parallel = session(prog.source, 4);
        // Draw from statement/predicate vertices — the vertex kinds that
        // are well-formed slicing criteria (the idiom `properties.rs`
        // established for random seeds).
        let eligible: Vec<VertexId> = (0..oracle.sdg().vertex_count() as u32)
            .map(VertexId)
            .filter(|&v| {
                matches!(
                    oracle.sdg().vertex(v).kind,
                    specslice_sdg::VertexKind::Statement { .. }
                        | specslice_sdg::VertexKind::Predicate { .. }
                )
            })
            .collect();
        assert!(eligible.len() >= 8, "{name}: too few statement vertices");
        let draw = |rng: &mut StdRng| eligible[rng.gen_range(0..eligible.len())];

        for round in 0..8 {
            let mut criteria: Vec<Criterion> = Vec::new();
            // A few random singletons (one vertex each, scattered across
            // the program).
            for _ in 0..rng.gen_range(1..=4usize) {
                criteria.push(Criterion::vertex(draw(&mut rng)));
            }
            // A cross-procedure mix: several vertices in one criterion.
            let width = rng.gen_range(2..=5usize);
            let vs: Vec<VertexId> = (0..width).map(|_| draw(&mut rng)).collect();
            criteria.push(Criterion::AllContexts(vs));
            // Occasionally the full printf union on top.
            if rng.gen_bool(0.5) {
                criteria.push(Criterion::printf_actuals(oracle.sdg()));
            }

            for dir in DIRECTIONS {
                let want = fingerprint(&run_solo(&oracle, dir, &criteria));
                let got = fingerprint(&run_batch(&parallel, dir, &criteria).slices);
                assert_eq!(got, want, "{name} {dir}: random round {round} diverged");
            }
        }
    }
}

/// The duplicate-criteria guard in `specialize_program` rejects the same
/// input with the same error at every thread count — the validation layer
/// sits above the batch and must not be bypassed by its dedup.
#[test]
fn duplicate_criteria_rejected_identically() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    for threads in [1, 2, 4] {
        let slicer = session(prog.source, threads);
        let good = per_printf_criteria(&slicer);
        let criteria = vec![good[0].clone(), good[1].clone(), good[0].clone()];
        let err = slicer.specialize_program(&criteria).unwrap_err();
        match err {
            SpecError::BadCriterion { reason } => {
                assert!(reason.contains("duplicate"), "{threads} threads: {reason}");
                assert!(reason.contains("#2"), "{threads} threads: {reason}");
            }
            other => panic!("{threads} threads: expected BadCriterion, got {other:?}"),
        }
    }
}

/// Criterion order within a batch is reflected positionally: a permuted
/// batch returns the permuted solo answers, in both directions.
#[test]
fn permuted_batches_answer_positionally() {
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    let oracle = session(prog.source, 1);
    let parallel = session(prog.source, 2);
    let criteria = per_printf_criteria(&oracle);
    assert!(criteria.len() >= 3);
    let mut permuted = criteria.clone();
    permuted.rotate_left(1);

    for dir in DIRECTIONS {
        let want: Vec<String> = run_solo(&oracle, dir, &permuted)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        let got: Vec<String> = run_batch(&parallel, dir, &permuted)
            .slices
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        assert_eq!(got, want, "{dir}");
        // And the rotation really did permute the answers.
        let straight = run_batch(&parallel, dir, &criteria).slices;
        assert_eq!(
            format!("{:?}", straight[0]),
            got[criteria.len() - 1],
            "{dir}"
        );
    }
}
