//! End-to-end pipeline over the full corpus: frontend → SDG → all four
//! slicers → regeneration → re-check → execution, with the semantic
//! guarantee verified (specialized slices print the same values as the
//! original at every criterion `printf`).

use specslice::exec::{self, ExecRequest};
use specslice::stats::{slice_stats, SliceStats};
use specslice::{Criterion, Slicer, SpecSlice};
use specslice_lang::frontend;
use specslice_sdg::build::build_sdg;
use specslice_sdg::slice::{backward_closure_slice, parameter_mismatches, weiser_executable_slice};
use std::sync::OnceLock;

/// One corpus program's all-printf specialization slice and its
/// statistics against the closure slice.
struct CorpusSlice {
    name: &'static str,
    slicer: Slicer,
    slice: SpecSlice,
    stats: SliceStats,
}

/// Every corpus program sliced on all its printfs, computed once for the
/// tests that share it (each program's closure slice, and the summary
/// relation under it, is derived once).
fn corpus_slices() -> &'static [CorpusSlice] {
    static SLICES: OnceLock<Vec<CorpusSlice>> = OnceLock::new();
    SLICES.get_or_init(|| {
        specslice_corpus::programs()
            .iter()
            .map(|prog| {
                let slicer = Slicer::from_source(prog.source)
                    .unwrap_or_else(|e| panic!("{}: {e}", prog.name));
                let slice = slicer
                    .slice(&Criterion::printf_actuals(slicer.sdg()))
                    .unwrap_or_else(|e| panic!("{} specialize: {e}", prog.name));
                let cv = slicer.sdg().printf_actual_in_vertices();
                let stats = slice_stats(slicer.sdg(), &slice, &cv);
                CorpusSlice {
                    name: prog.name,
                    slicer,
                    slice,
                    stats,
                }
            })
            .collect()
    })
}

#[test]
fn corpus_programs_run_and_slice() {
    for (prog, sliced) in specslice_corpus::programs().iter().zip(corpus_slices()) {
        assert_eq!(prog.name, sliced.name);
        let CorpusSlice {
            slicer,
            slice,
            stats,
            ..
        } = sliced;
        let ast = slicer.program().expect("built from source");

        // Original execution.
        let original = exec::run(&ExecRequest::new(ast).with_input(prog.sample_input))
            .unwrap_or_else(|e| panic!("{} run: {e}", prog.name));
        assert!(
            !original.output.is_empty(),
            "{}: program printed nothing",
            prog.name
        );

        // Specialization slice w.r.t. every printf.
        assert!(!slice.is_empty(), "{}: empty slice", prog.name);

        // Element-level soundness: Elems ⊆ closure slice.
        assert!(
            stats.outside_closure.is_empty(),
            "{}: vertices outside closure slice: {:?}",
            prog.name,
            stats.outside_closure
        );
        // Element-level completeness for all-contexts criteria.
        assert!(
            stats.closure_not_covered.is_empty(),
            "{}: closure vertices not covered: {:?}",
            prog.name,
            stats.closure_not_covered
        );

        // Regenerate and execute; full printf criterion ⇒ identical output.
        let regen = slicer
            .regenerate(slice)
            .unwrap_or_else(|e| panic!("{} regen: {e}", prog.name));
        // The regenerated source re-parses through the whole frontend.
        let reparsed = frontend(&regen.source)
            .unwrap_or_else(|e| panic!("{} reparse: {e}\n{}", prog.name, regen.source));
        let sliced_run = exec::run(&ExecRequest::new(&reparsed).with_input(prog.sample_input))
            .unwrap_or_else(|e| panic!("{} sliced run: {e}\n{}", prog.name, regen.source));
        assert_eq!(
            original.output, sliced_run.output,
            "{}: specialized slice diverged\n{}",
            prog.name, regen.source
        );
        assert!(
            sliced_run.steps <= original.steps,
            "{}: slice slower than original ({} > {})",
            prog.name,
            sliced_run.steps,
            original.steps
        );
    }
}

#[test]
fn corpus_baselines_are_mismatch_free() {
    for prog in specslice_corpus::programs() {
        let ast = frontend(prog.source).unwrap();
        let sdg = build_sdg(&ast).unwrap();
        let cv = sdg.printf_actual_in_vertices();

        let closure = backward_closure_slice(&sdg, &cv);
        let mono = specslice_sdg::binkley::monovariant_executable_slice(&sdg, &cv);
        let weiser = weiser_executable_slice(&sdg, &cv);

        assert!(
            parameter_mismatches(&sdg, &mono.vertices).is_empty(),
            "{}: Binkley slice has mismatches",
            prog.name
        );
        assert!(
            parameter_mismatches(&sdg, &weiser).is_empty(),
            "{}: Weiser slice has mismatches",
            prog.name
        );
        // Binkley ⊇ closure; Weiser is at least as large as Binkley here.
        assert!(mono.vertices.is_superset(&closure), "{}", prog.name);
        assert!(weiser.len() >= mono.vertices.len(), "{}", prog.name);
    }
}

#[test]
fn corpus_variant_distribution_is_modest() {
    // The paper's Fig. 18 observation: most procedures have one variant,
    // and no explosion occurs on realistic programs.
    let mut single = 0usize;
    let mut multi = 0usize;
    let mut max_variants = 0usize;
    for CorpusSlice { stats, .. } in corpus_slices() {
        for (&n, &count) in &stats.variant_histogram {
            if n == 1 {
                single += count;
            } else {
                multi += count;
            }
        }
        max_variants = max_variants.max(stats.max_variants);
    }
    assert!(single > 0);
    assert!(
        max_variants <= 8,
        "unexpected specialization explosion: {max_variants}"
    );
    // Most procedures keep a single version (90.6% in the paper).
    assert!(single >= multi, "single={single} multi={multi}");
}

#[test]
fn bug_site_configuration_slicing_works() {
    // A §8-style criterion: one (vertex, call-stack) configuration.
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = Slicer::from_source(prog.source).unwrap();
    let sdg = slicer.sdg();
    // Pick the count_char entry under the call site in main's loop.
    let count_char = sdg.proc_named("count_char").unwrap();
    let site = sdg
        .call_sites
        .iter()
        .find(|c| matches!(c.callee, specslice_sdg::CalleeKind::User(p) if p == count_char.id))
        .unwrap();
    let criterion = Criterion::configuration(count_char.entry, vec![site.id]);
    let slice = slicer.slice(&criterion).unwrap();
    assert!(!slice.is_empty());
    // count_char has exactly one variant here.
    assert_eq!(slice.variants_of_proc(sdg, "count_char").len(), 1);
}

#[test]
fn reslicing_check_on_small_programs() {
    // §8.3 idempotence on the paper examples (whole-corpus reslicing is
    // exercised by the experiments harness).
    for src in [
        specslice_corpus::examples::FIG1,
        specslice_corpus::examples::FIG2,
        specslice_corpus::examples::FLAWED,
    ] {
        let slicer = Slicer::from_source(src).unwrap();
        let criterion = Criterion::printf_actuals(slicer.sdg());
        let slice = slicer.slice(&criterion).unwrap();
        let regen = slicer.regenerate(&slice).unwrap();
        let report = slicer.reslice_check(&criterion, &slice, &regen).unwrap();
        assert!(
            report.languages_equal,
            "reslice mismatch (unmapped: {:?})",
            report.unmapped
        );
    }
}

#[test]
fn feature_removal_on_corpus_program() {
    // Remove the "total_chars" feature from wc: the char counter disappears
    // but lines/words survive.
    let prog = specslice_corpus::by_name("wc").unwrap();
    let slicer = Slicer::from_source(prog.source).unwrap();
    let sdg = slicer.sdg();
    let count_char = sdg.proc_named("count_char").unwrap();
    // Criterion: the `total_chars = total_chars + 1` statement.
    let tc_stmt = count_char
        .vertices
        .iter()
        .copied()
        .find(|&v| {
            matches!(
                sdg.vertex(v).kind,
                specslice_sdg::VertexKind::Statement { .. }
            )
        })
        .unwrap();
    let slice = slicer.remove_feature(&Criterion::vertex(tc_stmt)).unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    assert!(!regen.source.contains("total_chars"), "{}", regen.source);
    // The other counters survive and the program still runs.
    assert!(regen.source.contains("total_lines"), "{}", regen.source);
    let run = exec::run(&ExecRequest::new(&regen.program).with_input(prog.sample_input)).unwrap();
    let orig =
        exec::run(&ExecRequest::new(slicer.program().unwrap()).with_input(prog.sample_input))
            .unwrap();
    // total_lines (first printf) agrees with the original.
    assert_eq!(run.output[0], orig.output[0]);
}

/// Feature removal reads `post*` of the feature as the trimmed `A1` rows
/// straight from the saturation. It must give the same residual `A6` as
/// the composition it replaced, which materialized the whole `post*` and
/// read it from `main`'s control location: `difference(reachable,
/// determinize(to_nfa(post*)))`, trimmed, then MRD. Checked on every
/// corpus program and a feature grid, with every procedure's first
/// statement and the all-printfs criterion as features.
#[test]
fn feature_removal_matches_the_materialized_post_star_composition() {
    use specslice::criteria;
    use specslice::encode::MAIN_CONTROL;
    use specslice_fsa::{mrd, ops::difference, Dfa};
    use specslice_pds::{saturate_indexed_with_stats, Direction, SaturationScratch};

    let mut sources: Vec<(String, String)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("grid12".to_string(), specslice_corpus::feature_grid(12)));
    let mut scratch = SaturationScratch::default();
    for (name, source) in sources {
        let slicer = Slicer::from_source(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (sdg, enc) = (slicer.sdg(), slicer.encoding());
        let reachable = criteria::reachable_configurations(sdg, enc).unwrap();
        let mut features: Vec<Criterion> = sdg
            .procs
            .iter()
            .filter_map(|p| {
                p.vertices.iter().copied().find(|&v| {
                    matches!(
                        sdg.vertex(v).kind,
                        specslice_sdg::VertexKind::Statement { .. }
                    )
                })
            })
            .map(Criterion::vertex)
            .collect();
        features.push(Criterion::printf_actuals(sdg));
        for feature in &features {
            let query = criteria::query_automaton(sdg, enc, feature).unwrap();
            let (post, _) =
                saturate_indexed_with_stats(Direction::Forward, &enc.index, &query, &mut scratch)
                    .unwrap();
            let a0 = Dfa::determinize(&post.to_nfa(MAIN_CONTROL));
            let want = mrd(&difference(&reachable, &a0).trimmed().0);
            let got = slicer
                .remove_feature(feature)
                .unwrap_or_else(|e| panic!("{name}: {feature:?}: {e}"));
            assert_eq!(
                format!("{:?}", got.a6),
                format!("{want:?}"),
                "{name}: {feature:?}"
            );
        }
    }
}
