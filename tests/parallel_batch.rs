//! The parallel batch contract: `slice_batch` output is bit-for-bit
//! identical at every thread count, one bad criterion never poisons the
//! rest of a batch, and per-thread accounting adds up.

use specslice::{Criterion, Direction, Slicer, SlicerConfig, SpecError};
use specslice_sdg::VertexId;

/// Per-printf criteria of a program — the paper's evaluation workload.
fn per_printf_criteria(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

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

/// A canonical byte representation of a batch's slices. `SpecSlice`
/// contains only deterministic structure (sorted sets/maps, state-ordered
/// variants), so the Debug rendering is a faithful byte-level fingerprint.
fn fingerprint(slices: &[specslice::SpecSlice]) -> String {
    format!("{slices:?}")
}

/// `slice_batch` with `num_threads` ∈ {1, 2, 8} produces byte-identical
/// slices on every corpus program.
#[test]
fn batch_output_is_identical_across_thread_counts() {
    for prog in specslice_corpus::programs() {
        let baseline = session(prog.source, 1);
        let mut criteria = per_printf_criteria(&baseline);
        criteria.push(Criterion::printf_actuals(baseline.sdg()));
        let expected = fingerprint(&baseline.slice_batch(&criteria).unwrap().slices);

        for threads in [2, 8] {
            let slicer = session(prog.source, threads);
            let batch = slicer.slice_batch(&criteria).unwrap();
            assert_eq!(
                fingerprint(&batch.slices),
                expected,
                "{}: {threads}-thread batch diverged from sequential",
                prog.name
            );
            // Regenerated source (the executable artifact) must agree too.
            for (a, b) in baseline
                .slice_batch(&criteria)
                .unwrap()
                .slices
                .iter()
                .zip(&batch.slices)
            {
                assert_eq!(
                    baseline.regenerate(a).unwrap().source,
                    slicer.regenerate(b).unwrap().source,
                    "{}: regenerated source diverged at {threads} threads",
                    prog.name
                );
            }
        }
    }
}

/// A batch containing one `BadCriterion` reports that criterion (by index,
/// deterministically the lowest failing one) without poisoning the other
/// criteria's results.
#[test]
fn bad_criterion_does_not_poison_the_batch() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    for threads in [1, 4] {
        let slicer = session(prog.source, threads);
        let good = per_printf_criteria(&slicer);
        assert!(good.len() >= 2, "wc has several printfs");
        let bad = Criterion::vertex(VertexId(9_999));

        // good[0], bad, good[1..] — the error identifies index 1.
        let mut criteria = vec![good[0].clone(), bad.clone()];
        criteria.extend(good[1..].iter().cloned());

        let err = slicer.slice_batch(&criteria).unwrap_err();
        match &err {
            SpecError::BadCriterion { reason } => {
                assert!(reason.contains("#1"), "{reason}");
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected BadCriterion, got {other:?}"),
        }

        // The non-fail-fast API answers everything else.
        let results = slicer.slice_batch_results(&criteria);
        assert_eq!(results.len(), criteria.len());
        for (i, result) in results.iter().enumerate() {
            if i == 1 {
                assert!(result.is_err(), "criterion #1 is bad");
            } else {
                let slice = result.as_ref().expect("good criterion poisoned");
                let individual = slicer.slice(&criteria[i]).unwrap();
                assert_eq!(
                    format!("{slice:?}"),
                    format!("{individual:?}"),
                    "batch member #{i} diverged from individual slice"
                );
            }
        }

        // The session itself is not poisoned either: later queries work.
        assert!(slicer.slice(&good[0]).is_ok());
    }
}

/// Sequential batches keep the fail-fast contract: nothing after the first
/// failing criterion runs.
#[test]
fn sequential_batches_fail_fast() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = session(prog.source, 1);
    let good = per_printf_criteria(&slicer);
    let criteria = vec![
        Criterion::vertex(VertexId(9_999)),
        good[0].clone(),
        good[1].clone(),
    ];
    let before = slicer.queries_run();
    assert!(slicer.slice_batch(&criteria).is_err());
    assert_eq!(
        slicer.queries_run() - before,
        1,
        "criteria after the failure must not run in a sequential batch"
    );
}

/// Two bad criteria: the reported error is always the lowest-indexed one,
/// regardless of which worker hit its error first.
#[test]
fn lowest_indexed_error_wins() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = session(prog.source, 8);
    let good = per_printf_criteria(&slicer);
    let criteria = vec![
        good[0].clone(),
        Criterion::vertex(VertexId(7_777)),
        Criterion::vertex(VertexId(9_999)),
    ];
    let err = slicer.slice_batch(&criteria).unwrap_err();
    match err {
        SpecError::BadCriterion { reason } => assert!(reason.contains("#1"), "{reason}"),
        other => panic!("expected BadCriterion, got {other:?}"),
    }
}

/// Per-thread accounting: every criterion is answered exactly once, by
/// exactly one worker, and the worker count respects the config.
#[test]
fn per_thread_stats_add_up() {
    let prog = specslice_corpus::by_name("gzip").unwrap();
    let slicer = session(prog.source, 3);
    let criteria = per_printf_criteria(&slicer);
    let batch = slicer.slice_batch(&criteria).unwrap();

    assert!(!batch.per_thread.is_empty());
    assert!(batch.per_thread.len() <= 3);
    let answered: usize = batch.per_thread.iter().map(|w| w.items).sum();
    assert_eq!(answered, criteria.len());
    // The aggregate's query_time sums per-criterion work across workers.
    assert!(batch.aggregate.query_time > std::time::Duration::ZERO);

    // Sequential batches report exactly one worker.
    let seq = session(prog.source, 1);
    let batch = seq.slice_batch(&criteria).unwrap();
    assert_eq!(batch.per_thread.len(), 1);
    assert_eq!(batch.per_thread[0].items, criteria.len());
}

/// A parallel batch of all-contexts criteria builds the backward
/// saturation base exactly once however many workers race for it, and
/// builds no forward base; a parallel forward batch then builds that once.
#[test]
fn saturation_bases_built_once_under_parallelism() {
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    let slicer = session(prog.source, 8);
    let criteria = per_printf_criteria(&slicer);
    let builds =
        |s: &Slicer| [Direction::Backward, Direction::Forward].map(|d| s.saturation_base_builds(d));
    assert_eq!(builds(&slicer), [0, 0]);
    slicer.slice_batch(&criteria).unwrap();
    slicer.slice_batch(&criteria).unwrap();
    assert_eq!(builds(&slicer), [1, 0]);
    assert_eq!(slicer.queries_run(), 2 * criteria.len());
    slicer.forward_slice_batch(&criteria).unwrap();
    assert_eq!(builds(&slicer), [1, 1]);
}

/// Parallel batch workers check their scratch out of the session pool and
/// return it: after a two-worker batch the pool holds at most two warm
/// scratches, and the session's byte estimate counts them. Each worker
/// interns into a fresh shard per batch, so a later batch answers exactly
/// what a one-worker session answers.
#[test]
fn parallel_workers_recycle_their_scratch() {
    let prog = specslice_corpus::by_name("gzip").unwrap();
    let config = |num_threads| SlicerConfig {
        num_threads,
        memoize: false,
    };
    let slicer = Slicer::from_source_with(prog.source, config(2)).unwrap();
    let fresh = Slicer::from_source_with(prog.source, config(1)).unwrap();
    let criteria = per_printf_criteria(&slicer);
    assert!(criteria.len() >= 2, "gzip has several printfs");

    let batch = slicer.slice_batch(&criteria).unwrap();
    assert_eq!(batch.per_thread.len(), 2, "the batch runs on two workers");
    let scratch = slicer.scratch_stats();
    assert!(
        (1..=2).contains(&scratch.pooled),
        "a two-worker batch parks its workers' scratches: {scratch:?}"
    );
    assert!(scratch.approx_bytes > 0, "{scratch:?}");
    let base = slicer.saturation_base(Direction::Backward).unwrap();
    assert_eq!(
        slicer.approx_bytes(),
        slicer.sdg().approx_bytes()
            + slicer.encoding().approx_bytes()
            + slicer.store_stats().approx_bytes()
            + base.approx_bytes()
            + scratch.approx_bytes,
        "the session estimate counts the parked scratches"
    );

    assert_eq!(
        fingerprint(&batch.slices),
        fingerprint(&fresh.slice_batch(&criteria).unwrap().slices),
    );
    let (first, second) = criteria.split_at(criteria.len() / 2);
    for batch in [first, second, &criteria[..]] {
        assert_eq!(
            fingerprint(&slicer.slice_batch(batch).unwrap().slices),
            fingerprint(&fresh.slice_batch(batch).unwrap().slices),
        );
        assert!(slicer.scratch_stats().pooled <= 2);
    }
}

/// At one worker, `slice_batch_results` answers exactly what one `slice`
/// per criterion answers, in a session of its own.
#[test]
fn sequential_batch_results_match_solo_slices() {
    let prog = specslice_corpus::by_name("wc").unwrap();
    let batched = session(prog.source, 1);
    let solo = session(prog.source, 1);
    let mut criteria = per_printf_criteria(&batched);
    criteria.push(Criterion::printf_actuals(batched.sdg()));
    let results = batched.slice_batch_results(&criteria);
    assert_eq!(results.len(), criteria.len());
    for (criterion, result) in criteria.iter().zip(results) {
        let slice = result.unwrap();
        let want = solo.slice(criterion).unwrap();
        assert_eq!(format!("{slice:?}"), format!("{want:?}"));
        assert_eq!(slice.variant_ids(), want.variant_ids());
    }
    assert_eq!(batched.store_stats(), solo.store_stats());
}
