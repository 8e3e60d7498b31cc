//! Direction-generic query properties: forward slices, chops, and the
//! forward/backward duality.
//!
//! The tentpole contract under test: `chop(s, t)` is byte-identical to
//! intersecting `forward_slice(s)` and `slice(t)` on their canonical MRD
//! automata and re-canonicalizing — at every thread count — and forward
//! queries share the session's memo without colliding with backward
//! entries for the same criterion.

use specslice::readout::QueryKind;
use specslice::{Criterion, Slicer, SlicerConfig};
use specslice_corpus::{random_program, GenConfig};
use specslice_fsa::mrd;
use specslice_fsa::ops::intersect;
use specslice_sdg::VertexKind;

fn cfg() -> GenConfig {
    GenConfig {
        n_globals: 3,
        n_funcs: 4,
        max_stmts: 6,
        recursion: true,
    }
}

fn seeds(n: u64, stride: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i * stride + 17) % 10_000)
}

/// The first statement vertex of `main` — a natural chop source.
fn main_statement(slicer: &Slicer) -> Option<Criterion> {
    let main = slicer.sdg().proc_named("main")?;
    main.vertices
        .iter()
        .copied()
        .find(|&v| matches!(slicer.sdg().vertex(v).kind, VertexKind::Statement { .. }))
        .map(Criterion::vertex)
}

/// `chop(s, t)` equals `mrd(trim(forward.a6 ∩ backward.a6))` byte for byte,
/// and its vertex set is contained in both constituent slices.
#[test]
fn chop_is_byte_identical_to_intersection() {
    for seed in seeds(24, 211) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        if slicer.sdg().printf_actual_in_vertices().is_empty() {
            continue;
        }
        let Some(source) = main_statement(&slicer) else {
            continue;
        };
        let target = Criterion::printf_actuals(slicer.sdg());

        let fwd = slicer.forward_slice(&source).unwrap();
        let bwd = slicer.slice(&target).unwrap();
        let chop = slicer.chop(&source, &target).unwrap();
        assert_eq!(chop.kind, QueryKind::Chop, "seed {seed}");

        let (trimmed, _) = intersect(&fwd.a6, &bwd.a6).trimmed();
        let manual = mrd(&trimmed);
        assert_eq!(
            format!("{:?}", chop.a6),
            format!("{manual:?}"),
            "chop automaton differs from manual intersection (seed {seed})\n{src}"
        );

        let chop_elems = chop.elems();
        assert!(
            chop_elems.is_subset(&fwd.elems()),
            "chop exceeds the forward slice (seed {seed})"
        );
        assert!(
            chop_elems.is_subset(&bwd.elems()),
            "chop exceeds the backward slice (seed {seed})"
        );
    }
}

/// Duality: a vertex `d` kept by the backward slice from `C` can, running
/// forward from `d`, reach some criterion vertex — so `forward_slice(d)`
/// must keep at least one vertex of `C`.
#[test]
fn backward_slice_members_reach_the_criterion_forward() {
    for seed in seeds(16, 307) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let cv = slicer.sdg().printf_actual_in_vertices();
        if cv.is_empty() {
            continue;
        }
        let bwd = slicer
            .slice(&Criterion::printf_actuals(slicer.sdg()))
            .unwrap();
        for &d in bwd.elems().iter().take(5) {
            let fwd = slicer.forward_slice(&Criterion::vertex(d)).unwrap();
            let elems = fwd.elems();
            assert!(
                cv.iter().any(|c| elems.contains(c)),
                "vertex {d:?} is in the backward slice but its forward slice \
                 misses every criterion vertex (seed {seed})\n{src}"
            );
        }
    }
}

/// Forward and backward entries for the *same* criterion occupy distinct
/// memo slots, and the per-direction hit/miss counters attribute correctly.
#[test]
fn forward_and_backward_memo_entries_do_not_collide() {
    let src = random_program(17, cfg());
    let slicer = Slicer::from_source(&src).unwrap();
    let c = Criterion::printf_actuals(slicer.sdg());
    if slicer.sdg().printf_actual_in_vertices().is_empty() {
        return;
    }

    let (_, s) = slicer.forward_slice_with_stats(&c).unwrap();
    assert_eq!(
        (s.memo_misses_forward, s.memo_hits_forward),
        (1, 0),
        "first forward query must miss"
    );
    assert_eq!((s.memo_misses_backward, s.memo_hits_backward), (0, 0));

    let (_, s) = slicer.forward_slice_with_stats(&c).unwrap();
    assert_eq!(
        (s.memo_misses_forward, s.memo_hits_forward),
        (0, 1),
        "repeated forward query must hit"
    );

    // The backward query on the same criterion must not be answered from
    // the forward entry.
    let (_, s) = slicer.slice_with_stats(&c).unwrap();
    assert_eq!(
        (s.memo_misses_backward, s.memo_hits_backward),
        (1, 0),
        "backward query must not hit the forward memo entry"
    );
    assert_eq!((s.memo_misses_forward, s.memo_hits_forward), (0, 0));
    assert_eq!(slicer.memo_len(), 2, "one entry per direction");
}

/// `forward_slice_batch` is byte-identical across thread counts 1/2/4,
/// and each batch member equals the single-query answer.
#[test]
fn forward_batch_is_thread_invariant() {
    for seed in seeds(6, 523) {
        let src = random_program(seed, cfg());
        let reference = Slicer::from_source(&src).unwrap();
        if reference.sdg().printf_actual_in_vertices().is_empty() {
            continue;
        }
        let criteria = vec![
            Criterion::printf_actuals(reference.sdg()),
            main_statement(&reference).unwrap(),
        ];
        let want: Vec<String> = criteria
            .iter()
            .map(|c| format!("{:?}", reference.forward_slice(c).unwrap()))
            .collect();
        for threads in [1, 2, 4] {
            let config = SlicerConfig {
                num_threads: threads,
                ..SlicerConfig::default()
            };
            let slicer = Slicer::from_source_with(&src, config).unwrap();
            let batch = slicer.forward_slice_batch(&criteria).unwrap();
            let got: Vec<String> = batch.slices.iter().map(|s| format!("{s:?}")).collect();
            assert_eq!(
                got, want,
                "forward batch diverges ({threads} threads, seed {seed})"
            );
        }
    }
}

/// Chops are identical whether the constituent queries were warm or cold —
/// the memo path and the fresh pipeline feed the same intersection.
#[test]
fn chop_from_warm_memo_is_identical_to_cold() {
    let src = random_program(99, cfg());
    let cold = Slicer::from_source(&src).unwrap();
    let warm = Slicer::from_source(&src).unwrap();
    if cold.sdg().printf_actual_in_vertices().is_empty() {
        return;
    }
    let source = main_statement(&cold).unwrap();
    let target = Criterion::printf_actuals(cold.sdg());

    // Warm the second session's memo in both directions first.
    warm.forward_slice(&source).unwrap();
    warm.slice(&target).unwrap();

    let a = cold.chop(&source, &target).unwrap();
    let b = warm.chop(&source, &target).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
