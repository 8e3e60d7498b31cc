//! Property-based tests over randomly generated programs.
//!
//! These check the paper's theorems on inputs nobody hand-crafted:
//! agreement of the two independent slicer implementations (HRB closure vs.
//! `Elems(pre*)`), Cor. 3.19 mismatch-freedom, Defn. 2.10 minimality,
//! Thm. 3.16 reverse determinism, and end-to-end executability.
//!
//! The harness is a deterministic seeded sweep (the container has no
//! third-party crates, so `proptest` is replaced by explicit seed loops —
//! same properties, reproducible by construction).

use specslice::exec::{self, ExecRequest};
use specslice::{Criterion, Slicer};
use specslice_corpus::{random_program, GenConfig};
use specslice_fsa::is_reverse_deterministic;
use specslice_sdg::build::build_sdg;
use std::collections::BTreeSet;

fn cfg() -> GenConfig {
    GenConfig {
        n_globals: 3,
        n_funcs: 4,
        max_stmts: 6,
        recursion: true,
    }
}

/// Deterministic seed spread: aligned with proptest's old `0..10_000` range
/// but explicitly enumerable for reproduction.
fn seeds(n: u64, stride: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| (i * stride + 17) % 10_000)
}

/// The two independent interprocedural slicers agree: the HRB two-phase
/// closure slice equals the vertex projection of the PDS
/// stack-configuration slice (for all-contexts criteria).
#[test]
fn closure_slice_equals_elems_of_prestar() {
    for seed in seeds(48, 211) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let cv = slicer.sdg().printf_actual_in_vertices();
        if cv.is_empty() {
            continue;
        }
        let closure = specslice_sdg::slice::backward_closure_slice(slicer.sdg(), &cv);
        let slice = slicer
            .slice(&Criterion::printf_actuals(slicer.sdg()))
            .unwrap();
        let elems = slice.elems();
        assert_eq!(
            elems, closure,
            "Elems(pre*) != HRB closure slice (seed {seed})\n{src}"
        );
    }
}

/// The forward twin: the dual two-phase HRB closure slice (over the
/// summary edges it derives itself) equals the vertex projection of the
/// `post*` stack-configuration slice, from `main`'s first statement in
/// every context.
#[test]
fn forward_closure_slice_equals_elems_of_poststar() {
    let mut checked = 0;
    for seed in seeds(48, 211) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let sdg = slicer.sdg();
        let main = sdg.proc_named("main").unwrap();
        let Some(source) = main.vertices.iter().copied().find(|&v| {
            matches!(
                sdg.vertex(v).kind,
                specslice_sdg::VertexKind::Statement { .. }
            )
        }) else {
            continue;
        };
        let closure = specslice_sdg::slice::forward_closure_slice(sdg, &[source]);
        let elems = slicer
            .forward_slice(&Criterion::vertex(source))
            .unwrap()
            .elems();
        assert_eq!(
            elems, closure,
            "Elems(post*) != forward HRB closure slice (seed {seed})\n{src}"
        );
        checked += 1;
    }
    assert!(checked > 0, "no seed has a statement in main");
}

/// Thm. 3.16: the algorithm's automaton is reverse-deterministic, and the
/// partition is minimal (distinct Elems per variant, Defn. 2.10(3)).
#[test]
fn a6_is_mrd_and_partition_minimal() {
    for seed in seeds(48, 307) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let slice = slicer
            .slice(&Criterion::printf_actuals(slicer.sdg()))
            .unwrap();
        if slice.is_empty() {
            continue;
        }
        assert!(is_reverse_deterministic(&slice.a6), "seed {seed}");
        for proc in &slicer.sdg().procs {
            let sets: Vec<BTreeSet<specslice_sdg::VertexId>> = slice
                .variants()
                .iter()
                .filter(|v| v.proc == proc.id)
                .map(|v| v.vertices.clone())
                .collect();
            let distinct: BTreeSet<_> = sets.iter().collect();
            assert_eq!(
                distinct.len(),
                sets.len(),
                "duplicate Elems for {} (seed {seed})",
                proc.name
            );
        }
    }
}

/// End-to-end executability: the regenerated slice re-checks and prints
/// exactly what the original prints (criterion = all printfs), on three
/// different inputs.
#[test]
fn slices_behave_like_originals() {
    for seed in seeds(24, 419) {
        let x = (seed % 100) as i64;
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let cv = slicer.sdg().printf_actual_in_vertices();
        if cv.is_empty() {
            continue;
        }
        let slice = slicer
            .slice(&Criterion::printf_actuals(slicer.sdg()))
            .unwrap();
        let regen = slicer.regenerate(&slice).unwrap();
        let ast = slicer.program().expect("built from source");
        for input in [vec![x], vec![x, x + 1], vec![3 * x % 7]] {
            let a = exec::run(&ExecRequest::new(ast).with_input(&input));
            let b = exec::run(&ExecRequest::new(&regen.program).with_input(&input));
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(
                        ra.output, rb.output,
                        "divergence (seed {seed})\n{src}\n=== slice ===\n{}",
                        regen.source
                    );
                    assert!(rb.steps <= ra.steps, "seed {seed}");
                }
                // Fuel/arith errors must at least agree in kind.
                (Err(_), Err(_)) => {}
                (Ok(_), Err(e)) => {
                    panic!(
                        "slice fails where original succeeds: {e} (seed {seed})\n{}",
                        regen.source
                    );
                }
                (Err(_), Ok(_)) => {} // slice may drop a failing computation
            }
        }
    }
}

/// Feature removal (Alg. 2): the feature seed disappears and the result
/// stays inside the SDG's vertex universe.
#[test]
fn feature_removal_removes_the_seed() {
    for seed in seeds(24, 523) {
        let src = random_program(seed, cfg());
        let slicer = Slicer::from_source(&src).unwrap();
        let main = slicer.sdg().proc_named("main").unwrap();
        let seed_vertex = main.vertices.iter().copied().find(|&v| {
            matches!(
                slicer.sdg().vertex(v).kind,
                specslice_sdg::VertexKind::Statement { .. }
            )
        });
        let Some(sv) = seed_vertex else { continue };
        let slice = slicer.remove_feature(&Criterion::vertex(sv)).unwrap();
        assert!(!slice.elems().contains(&sv), "seed {seed}");
        for v in slice.elems() {
            assert!(v.index() < slicer.sdg().vertex_count(), "seed {seed}");
        }
    }
}

/// §8.3 reslicing idempotence on random programs.
#[test]
fn reslice_languages_agree() {
    for seed in seeds(16, 131).map(|s| s % 2_000) {
        let src = random_program(
            seed,
            GenConfig {
                recursion: false,
                ..cfg()
            },
        );
        let ast = specslice_lang::frontend(&src).unwrap();
        let sdg = build_sdg(&ast).unwrap();
        let slicer = Slicer::from_sdg(sdg).unwrap();
        let cv = slicer.sdg().printf_actual_in_vertices();
        if cv.is_empty() {
            continue;
        }
        let criterion = Criterion::printf_actuals(slicer.sdg());
        let slice = slicer.slice(&criterion).unwrap();
        if slice.is_empty() {
            continue;
        }
        let regen = specslice::regen::regenerate(slicer.sdg(), &ast, &slice).unwrap();
        let report = slicer.reslice_check(&criterion, &slice, &regen).unwrap();
        assert!(
            report.languages_equal,
            "reslice mismatch (seed {seed}, unmapped {:?})\n{src}\n=== slice ===\n{}",
            report.unmapped, regen.source
        );
    }
}

/// `post*({⟨entry_main, ε⟩})`, saturated over the whole relation and read
/// from `main`'s control location: the textbook construction of the
/// reachable configurations, kept here as the oracle for the call-graph
/// automaton the slicer builds instead.
fn poststar_of_entry_main(slicer: &Slicer) -> specslice_fsa::Nfa {
    use specslice::encode::MAIN_CONTROL;
    use specslice_pds::{
        saturate_a1_with_stats, Direction, PAutomaton, SaturationBase, SaturationScratch,
    };
    let (sdg, enc) = (slicer.sdg(), slicer.encoding());
    let mut entry = PAutomaton::new(enc.pds.control_count());
    let f = entry.add_state();
    entry.set_final(f);
    let main_entry = sdg.proc(sdg.main).entry;
    entry.add_transition(
        entry.control_state(MAIN_CONTROL),
        Some(enc.vertex_symbol(main_entry)),
        f,
    );
    let mut scratch = SaturationScratch::default();
    let (a1, _) = saturate_a1_with_stats(
        Direction::Forward,
        &enc.index,
        SaturationBase::empty(),
        &entry,
        MAIN_CONTROL,
        &mut scratch,
    )
    .unwrap();
    a1.to_nfa()
}

/// The realizable-stack language read off the call graph equals the
/// `post*` oracle, as a whole (`reachable_configurations`) and restricted
/// to each printf site's actual-ins (the all-contexts query automaton
/// against `post* ∩ verts · Γ_c*`), over the corpus, two feature grids, the
/// 1k scale tier (lowered as the scale bench does), and seeded random
/// programs with recursion.
#[test]
fn call_graph_stack_language_equals_poststar_of_entry_main() {
    use specslice::criteria::{query_automaton, reachable_configurations};
    use specslice::encode::MAIN_CONTROL;
    use specslice_fsa::ops::{equivalent, intersect};

    let mut sessions: Vec<(String, Slicer)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| (p.name.to_string(), Slicer::from_source(p.source).unwrap()))
        .collect();
    for n in [12, 40] {
        let source = specslice_corpus::feature_grid(n);
        sessions.push((format!("grid{n}"), Slicer::from_source(&source).unwrap()));
    }
    let tier_1k = specslice_corpus::scale_program(
        42,
        specslice_corpus::ScaleConfig {
            n_procs: 16,
            n_globals: 8,
            ring: 4,
            indirect_pct: 25,
            n_printfs: 24,
        },
    );
    let program = specslice_lang::frontend(&tier_1k).unwrap();
    let lowered = specslice::indirect::lower_indirect_calls(&program).unwrap();
    sessions.push(("1k".into(), Slicer::from_program(lowered).unwrap()));
    for seed in seeds(48, 211) {
        let src = random_program(seed, cfg());
        sessions.push((format!("seed {seed}"), Slicer::from_source(&src).unwrap()));
    }

    for (name, slicer) in &sessions {
        let (sdg, enc) = (slicer.sdg(), slicer.encoding());
        let oracle = poststar_of_entry_main(slicer);
        let reachable = reachable_configurations(sdg, enc).unwrap();
        assert!(equivalent(&reachable, &oracle), "{name}: reachable");
        for site in sdg.printf_call_sites().take(48) {
            let verts = &site.actual_ins;
            let mut shape = specslice_fsa::Nfa::new();
            let f = shape.add_state();
            shape.set_final(f);
            for &v in verts {
                shape.add_transition(shape.initial(), Some(enc.vertex_symbol(v)), f);
            }
            for c in &sdg.call_sites {
                shape.add_transition(f, Some(enc.call_symbol(c.id)), f);
            }
            let want = intersect(&oracle, &shape);
            let query = query_automaton(sdg, enc, &Criterion::AllContexts(verts.clone())).unwrap();
            assert!(
                equivalent(&query.to_nfa(MAIN_CONTROL), &want),
                "{name}: printf site {:?}",
                site.id
            );
        }
    }
}
