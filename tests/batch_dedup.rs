//! Batch criterion dedup: every batch entry point answers each distinct
//! criterion (by canonical memo key) once and fans the answer out to its
//! duplicates in input order. Duplicate-heavy batches must render exactly
//! what solo queries render, at every thread count;
//! the work counters must count only the distinct answers; and errors,
//! raw-automaton criteria, and memo on/off must behave as if every
//! duplicate had been answered on its own.

use specslice::{BatchResult, CalleeKind, Criterion, Slicer, SlicerConfig, SpecError, VertexId};
use specslice_corpus::{scale_program, skewed_site_sample, ScaleConfig};
use std::collections::HashSet;

fn config(num_threads: usize, memoize: bool) -> SlicerConfig {
    SlicerConfig {
        num_threads,
        memoize,
    }
}

/// The scale bench's smallest tier (seed 42), front-ended and lowered.
fn scale_1k(config: SlicerConfig) -> Slicer {
    let source = scale_program(
        42,
        ScaleConfig {
            n_procs: 16,
            n_globals: 8,
            ring: 4,
            indirect_pct: 25,
            n_printfs: 24,
        },
    );
    let program = specslice_lang::frontend(&source).expect("scale program");
    let lowered = specslice::indirect::lower_indirect_calls(&program).expect("lowering");
    Slicer::from_program_with(lowered, config).expect("scale session")
}

fn corpus(name: &str, config: SlicerConfig) -> Slicer {
    let prog = specslice_corpus::by_name(name).expect("corpus program");
    Slicer::from_source_with(prog.source, config).expect("corpus session")
}

/// A skewed sample of per-printf criteria: few hot sites, many repeats.
fn skewed(slicer: &Slicer, count: usize) -> Vec<Criterion> {
    let sites: Vec<Criterion> = slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect();
    skewed_site_sample(sites.len(), count, 7)
        .into_iter()
        .map(|i| sites[i].clone())
        .collect()
}

fn distinct_count(criteria: &[Criterion]) -> usize {
    criteria
        .iter()
        .map(|c| format!("{c:?}"))
        .collect::<HashSet<_>>()
        .len()
}

fn assert_batch_matches_solo(open: &dyn Fn(SlicerConfig) -> Slicer, label: &str, count: usize) {
    let solo = open(config(1, false));
    let criteria = skewed(&solo, count);
    assert!(
        distinct_count(&criteria) < criteria.len(),
        "{label}: the sample must repeat sites"
    );
    let want_back: Vec<String> = criteria
        .iter()
        .map(|c| format!("{:?}", solo.slice(c).unwrap()))
        .collect();
    let want_fwd: Vec<String> = criteria
        .iter()
        .map(|c| format!("{:?}", solo.forward_slice(c).unwrap()))
        .collect();
    for threads in [1usize, 2, 4] {
        let slicer = open(config(threads, true));
        let back = slicer.slice_batch(&criteria).unwrap();
        let fwd = slicer.forward_slice_batch(&criteria).unwrap();
        for i in 0..criteria.len() {
            assert_eq!(
                format!("{:?}", back.slices[i]),
                want_back[i],
                "{label}: backward #{i} diverged ({threads} threads)"
            );
            assert_eq!(
                format!("{:?}", fwd.slices[i]),
                want_fwd[i],
                "{label}: forward #{i} diverged ({threads} threads)"
            );
        }
    }
}

#[test]
fn duplicate_heavy_batches_match_solo_queries_on_the_scale_tier() {
    assert_batch_matches_solo(&scale_1k, "scale 1k", 60);
}

#[test]
fn duplicate_heavy_batches_match_solo_queries_on_a_corpus_program() {
    assert_batch_matches_solo(&|c| corpus("print_tokens", c), "print_tokens", 40);
}

/// A batch runs exactly one saturation per distinct key, in both directions, whatever the memo setting, while its
/// answer-size counters still sum over every input position.
#[test]
fn per_criterion_saturations_equal_distinct_keys() {
    let solo = scale_1k(config(1, false));
    let criteria = skewed(&solo, 60);
    let distinct = distinct_count(&criteria);
    let (mut transitions, mut a1_transitions) = (0, 0);
    for c in &criteria {
        let (_, stats) = solo.slice_with_stats(c).unwrap();
        transitions += stats.saturation_transitions;
        a1_transitions += stats.a1_transitions;
    }
    for memoize in [false, true] {
        for threads in [1usize, 2] {
            let slicer = scale_1k(config(threads, memoize));
            let back = slicer.slice_batch(&criteria).unwrap();
            assert_eq!(back.aggregate.saturation_transitions, transitions);
            assert_eq!(back.aggregate.a1_transitions, a1_transitions);
            assert_eq!(
                back.aggregate.saturations_run, distinct,
                "memoize {memoize}"
            );
            let fwd = slicer.forward_slice_batch(&criteria).unwrap();
            assert_eq!(fwd.aggregate.saturations_run, distinct, "memoize {memoize}");
            let items: usize = back.per_thread.iter().map(|w| w.items).sum();
            assert_eq!(items, distinct, "workers answer distinct criteria only");
        }
    }
}

fn work(batch: &BatchResult) -> (usize, usize) {
    (
        batch.aggregate.saturations_run,
        batch.aggregate.saturation_rule_applications,
    )
}

/// The memo does not change how much work one batch does, and a replay
/// from the memo reports none; fanned-out duplicates are memo hits exactly
/// when the memo is on.
#[test]
fn memo_on_and_off_report_equal_work() {
    for threads in [1usize, 2] {
        let on = scale_1k(config(threads, true));
        let off = scale_1k(config(threads, false));
        let criteria = skewed(&on, 60);
        let duplicates = criteria.len() - distinct_count(&criteria);

        let batch_on = on.slice_batch(&criteria).unwrap();
        let batch_off = off.slice_batch(&criteria).unwrap();
        assert_eq!(work(&batch_on), work(&batch_off), "{threads} threads");
        assert!(work(&batch_on).1 > 0);
        assert_eq!(batch_on.aggregate.memo_hits_backward, duplicates);
        assert_eq!(on.memo_hits(), duplicates);
        assert_eq!(batch_off.aggregate.memo_hits_backward, 0);
        assert_eq!(off.memo_hits(), 0);
        assert_eq!(on.queries_run(), criteria.len());
        assert_eq!(off.queries_run(), criteria.len());

        let replay = on.slice_batch(&criteria).unwrap();
        assert_eq!(work(&replay), (0, 0), "replays do no work");
        assert_eq!(replay.aggregate.saturation_peak_worklist, 0);
        assert_eq!(replay.aggregate.saturation_peak_bytes, 0);
        assert_eq!(replay.aggregate.memo_hits_backward, criteria.len());
        assert_eq!(
            replay.aggregate.saturation_transitions, batch_on.aggregate.saturation_transitions,
            "answer sizes survive the replay"
        );
        assert_eq!(
            format!("{:?}", replay.slices),
            format!("{:?}", batch_off.slices)
        );
    }
}

const SRC: &str = r#"
    int g1, g2;
    void p(int a, int b) { g1 = a; g2 = b; }
    int main() {
        g2 = 100;
        p(g2, 2);
        p(g2, 3);
        printf("%d", g1);
        printf("%d", g2);
        return 0;
    }
"#;

/// Two `Configurations` criteria naming the same configurations in another
/// order, one with a repeat, are one key: one saturation, equal slices.
#[test]
fn reordered_and_repeated_configurations_collapse_to_one_key() {
    let slicer = Slicer::from_source_with(SRC, config(1, false)).unwrap();
    let sdg = slicer.sdg();
    let p = sdg.proc_named("p").unwrap();
    let sites: Vec<_> = sdg
        .call_sites
        .iter()
        .filter(|s| s.callee == CalleeKind::User(p.id))
        .map(|s| s.id)
        .collect();
    assert_eq!(sites.len(), 2);
    let a = Criterion::Configurations(vec![(p.entry, vec![sites[0]]), (p.entry, vec![sites[1]])]);
    let b = Criterion::Configurations(vec![
        (p.entry, vec![sites[1]]),
        (p.entry, vec![sites[0]]),
        (p.entry, vec![sites[1]]),
    ]);
    let batch = slicer.slice_batch(&[a.clone(), b]).unwrap();
    assert_eq!(batch.aggregate.saturations_run, 1);
    assert_eq!(batch.per_thread.iter().map(|w| w.items).sum::<usize>(), 1);
    assert_eq!(
        format!("{:?}", batch.slices[0]),
        format!("{:?}", batch.slices[1])
    );
    assert_eq!(
        format!("{:?}", batch.slices[0]),
        format!("{:?}", slicer.slice(&a).unwrap())
    );
}

fn reason(e: &SpecError) -> &str {
    match e {
        SpecError::BadCriterion { reason } => reason,
        other => panic!("expected BadCriterion, got {other:?}"),
    }
}

/// A malformed criterion repeated at #3 and #7: the fail-fast batch reports
/// #3, and the per-criterion results fail at both, each with its own index.
#[test]
fn duplicate_failures_carry_their_own_index() {
    let bad = Criterion::vertex(VertexId(u32::MAX / 2));
    for threads in [1usize, 2, 4] {
        let slicer = Slicer::from_source_with(SRC, config(threads, true)).unwrap();
        let good: Vec<Criterion> = slicer
            .sdg()
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .collect();
        let criteria: Vec<Criterion> = (0..10)
            .map(|i| match i {
                3 | 7 => bad.clone(),
                _ => good[i % good.len()].clone(),
            })
            .collect();
        let label = format!("{threads} threads");

        let err = slicer.slice_batch(&criteria).unwrap_err();
        assert!(reason(&err).contains("#3"), "{label}: {err:?}");
        assert!(!reason(&err).contains("#7"), "{label}: {err:?}");

        let results = slicer.slice_batch_results(&criteria);
        assert_eq!(results.len(), criteria.len());
        for (i, result) in results.iter().enumerate() {
            match (i, result) {
                (3 | 7, Err(e)) => {
                    assert!(reason(e).contains(&format!("#{i}")), "{label}: {e:?}");
                    let other = if i == 3 { "#7" } else { "#3" };
                    assert!(!reason(e).contains(other), "{label}: {e:?}");
                }
                (3 | 7, Ok(_)) => panic!("{label}: #{i} must fail"),
                (_, Ok(slice)) => assert_eq!(
                    format!("{slice:?}"),
                    format!("{:?}", slicer.slice(&criteria[i]).unwrap()),
                    "{label}: #{i}"
                ),
                (_, Err(e)) => panic!("{label}: #{i} failed: {e:?}"),
            }
        }
    }
}

/// Raw-automaton criteria have no canonical key, so identical automata in
/// one batch are still answered one by one.
#[test]
fn automaton_criteria_are_never_merged() {
    for memoize in [false, true] {
        let slicer = Slicer::from_source_with(SRC, config(1, memoize)).unwrap();
        let v = slicer.sdg().printf_actual_in_vertices()[0];
        let mut nfa = specslice_fsa::Nfa::new();
        let q1 = nfa.add_state();
        let q0 = nfa.initial();
        nfa.add_transition(q0, Some(slicer.encoding().vertex_symbol(v)), q1);
        nfa.set_final(q1);
        let criterion = Criterion::Automaton(nfa);
        let batch = slicer
            .slice_batch(&[criterion.clone(), criterion.clone()])
            .unwrap();
        assert_eq!(batch.aggregate.saturations_run, 2, "memoize {memoize}");
        assert_eq!(batch.aggregate.memo_hits_backward, 0);
        assert_eq!(slicer.memo_hits(), 0);
        assert_eq!(batch.per_thread.iter().map(|w| w.items).sum::<usize>(), 2);
        assert_eq!(
            format!("{:?}", batch.slices[0]),
            format!("{:?}", batch.slices[1])
        );
        let vertex = slicer.slice(&Criterion::configuration(v, vec![])).unwrap();
        assert_eq!(batch.slices[0].elems(), vertex.elems());
    }
}
