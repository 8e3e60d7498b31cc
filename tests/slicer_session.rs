//! The `Slicer` session contract: batch ≡ individual, cached encodings are
//! never rebuilt, structured errors classify and chain.

use specslice::{Criterion, Direction, PipelineStats, Slicer, SlicerConfig, SpecError, SpecSlice};
use specslice_corpus::{random_program, GenConfig};
use specslice_sdg::build::build_sdg;
use std::error::Error as _;
use std::sync::Mutex;

/// Serializes the tests of this binary: the encode-counter assertions read
/// the process-wide `encode_call_count`, and every other test here bumps it
/// by constructing `Slicer`s — parallel test threads would race the deltas.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the serialization lock, surviving poisoning from a failed test.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Structural slice equality (SpecSlice intentionally has no PartialEq —
/// the automaton field compares by language, not by representation).
fn assert_same_slice(a: &SpecSlice, b: &SpecSlice, ctx: &str) {
    assert_eq!(a.main_variant, b.main_variant, "{ctx}: main variant");
    assert_eq!(a.variant_count(), b.variant_count(), "{ctx}: variant count");
    for (va, vb) in a.variants().iter().zip(&b.variants()) {
        assert_eq!(va.proc, vb.proc, "{ctx}: variant proc");
        assert_eq!(va.name, vb.name, "{ctx}: variant name");
        assert_eq!(va.vertices, vb.vertices, "{ctx}: variant Elems");
        assert_eq!(va.calls, vb.calls, "{ctx}: call bindings");
    }
}

/// Per-printf criteria of a program — the paper's evaluation workload.
fn per_printf_criteria(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// Property: `slice_batch(&[c1, …, cn])[i]` is identical to `slice(ci)`,
/// across corpus programs and randomly generated ones, with mixed criterion
/// forms.
#[test]
fn batch_equals_individual_slices() {
    let _guard = serial();
    // Corpus programs with their per-printf criteria.
    for prog in specslice_corpus::programs() {
        let slicer = Slicer::from_source(prog.source).unwrap();
        let mut criteria = per_printf_criteria(&slicer);
        // Mix in other criterion forms: all printfs at once, single vertex.
        criteria.push(Criterion::printf_actuals(slicer.sdg()));
        let any_vertex = slicer.sdg().printf_actual_in_vertices()[0];
        criteria.push(Criterion::vertex(any_vertex));

        let batch = slicer.slice_batch(&criteria).unwrap();
        assert_eq!(batch.slices.len(), criteria.len());
        for (i, criterion) in criteria.iter().enumerate() {
            let single = slicer.slice(criterion).unwrap();
            assert_same_slice(
                &batch.slices[i],
                &single,
                &format!("{} criterion #{i}", prog.name),
            );
        }
    }

    // Random programs (seeded sweep).
    let cfg = GenConfig {
        n_globals: 3,
        n_funcs: 4,
        max_stmts: 6,
        recursion: true,
    };
    for seed in (0..12).map(|i| i * 641 + 5) {
        let src = random_program(seed, cfg);
        let slicer = Slicer::from_source(&src).unwrap();
        let criteria = per_printf_criteria(&slicer);
        if criteria.is_empty() {
            continue;
        }
        let batch = slicer.slice_batch(&criteria).unwrap();
        for (i, criterion) in criteria.iter().enumerate() {
            let single = slicer.slice(criterion).unwrap();
            assert_same_slice(&batch.slices[i], &single, &format!("seed {seed} #{i}"));
        }
    }
}

/// A session reused across criteria never re-encodes the SDG as a PDS and
/// builds the backward saturation base at most once (and, slicing only
/// backward, no forward base). Observed two ways: the process-wide encode
/// counter does not move, and the cached encoding is pointer-identical
/// across queries.
#[test]
fn session_never_rebuilds_the_pds() {
    let _guard = serial();
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    let slicer = Slicer::from_source(prog.source).unwrap();
    let criteria = per_printf_criteria(&slicer);
    assert!(criteria.len() >= 2, "needs a multi-criterion workload");

    let enc_before = slicer.encoding() as *const _;
    let encodes_before = specslice::encode::encode_call_count();
    assert_eq!(
        slicer.saturation_base_builds(Direction::Backward),
        0,
        "bases are lazy"
    );

    for criterion in &criteria {
        slicer.slice(criterion).unwrap();
    }
    slicer.slice_batch(&criteria).unwrap();
    let slice = slicer.slice(&criteria[0]).unwrap();
    slicer.regenerate(&slice).unwrap();

    let encodes_after = specslice::encode::encode_call_count();
    assert_eq!(
        encodes_after, encodes_before,
        "a reused Slicer must never re-encode its SDG"
    );
    assert_eq!(
        slicer.encoding() as *const _,
        enc_before,
        "cached encoding must be the same instance"
    );
    assert_eq!(
        slicer.saturation_base_builds(Direction::Backward),
        1,
        "the backward base is built exactly once for the whole session"
    );
    assert_eq!(
        slicer.saturation_base_builds(Direction::Forward),
        0,
        "backward all-contexts queries build no forward base"
    );
    assert_eq!(slicer.queries_run(), 2 * criteria.len() + 1);
}

/// Feature removal and reslice checks also run against the session caches.
#[test]
fn session_covers_the_whole_pipeline() {
    let _guard = serial();
    let slicer = Slicer::from_source(specslice_corpus::examples::FIG16).unwrap();
    let encodes_before = specslice::encode::encode_call_count();

    let criterion = Criterion::printf_actuals(slicer.sdg());
    let slice = slicer.slice(&criterion).unwrap();
    let regen = slicer.regenerate(&slice).unwrap();
    let report = slicer.reslice_check(&criterion, &slice, &regen).unwrap();
    assert!(report.languages_equal);

    let main = slicer.sdg().proc_named("main").unwrap();
    let seed_stmt = main
        .vertices
        .iter()
        .copied()
        .find(|&v| {
            matches!(
                slicer.sdg().vertex(v).kind,
                specslice_sdg::VertexKind::Statement { .. }
            )
        })
        .unwrap();
    let removed = slicer
        .remove_feature(&Criterion::vertex(seed_stmt))
        .unwrap();
    assert!(!removed.elems().contains(&seed_stmt));

    // The reslice check encodes the *regenerated* program (a different
    // program — one fresh encoding is legitimate); the original program's
    // encoding is reused throughout. So: exactly one new encode, from
    // reslice_check's regenerated-program build.
    let encodes_after = specslice::encode::encode_call_count();
    assert_eq!(
        encodes_after - encodes_before,
        1,
        "only the regenerated program may be (freshly) encoded"
    );
}

/// Structured errors: stage classification and `source()` chaining.
#[test]
fn spec_error_classifies_and_chains() {
    let _guard = serial();
    // Parse errors wrap the LangError and expose it via source().
    let err = Slicer::from_source("int main( {").unwrap_err();
    assert!(matches!(err, SpecError::Parse(_)), "{err:?}");
    let src_err = err.source().expect("parse errors chain their cause");
    assert!(src_err.to_string().contains("expected"), "{src_err}");

    // Semantic errors classify separately.
    let err = Slicer::from_source("int main() { x = 1; return 0; }").unwrap_err();
    assert!(matches!(err, SpecError::Sema(_)), "{err:?}");
    assert!(err.source().is_some());

    // SDG-stage errors (no main) classify and chain too.
    let program =
        specslice_lang::frontend("int f(int a) { return a; } int main() { return 0; }").unwrap();
    let mut no_main = program;
    no_main.functions.retain(|f| f.name != "main");
    let err = Slicer::from_program(no_main).unwrap_err();
    assert!(
        matches!(err, SpecError::SdgBuild(specslice_sdg::SdgError::NoMain)),
        "{err:?}"
    );
    assert!(err.source().is_some());

    // Bad criteria carry a reason and no source.
    let slicer = Slicer::from_source("int main() { printf(\"%d\", 1); return 0; }").unwrap();
    let err = slicer
        .slice(&Criterion::vertex(specslice_sdg::VertexId(9_999)))
        .unwrap_err();
    match &err {
        SpecError::BadCriterion { reason } => assert!(reason.contains("out of range")),
        other => panic!("expected BadCriterion, got {other:?}"),
    }
    assert!(err.source().is_none());
}

/// Batch errors name the offending criterion by index.
#[test]
fn batch_errors_identify_the_criterion() {
    let _guard = serial();
    let slicer = Slicer::from_source("int main() { printf(\"%d\", 1); return 0; }").unwrap();
    let good = Criterion::printf_actuals(slicer.sdg());
    let bad = Criterion::vertex(specslice_sdg::VertexId(9_999));
    let err = slicer.slice_batch(&[good.clone(), good, bad]).unwrap_err();
    match err {
        SpecError::BadCriterion { reason } => {
            assert!(reason.contains("#2"), "{reason}");
        }
        other => panic!("expected BadCriterion, got {other:?}"),
    }
}

/// Every batch reports one [`PipelineStats`] per criterion, in input
/// order, each describing the same work as a solo query of that criterion,
/// and the aggregate absorbs exactly those.
#[test]
fn batches_always_report_per_criterion_stats() {
    let _guard = serial();
    let prog = specslice_corpus::by_name("replace").unwrap();
    let batched = Slicer::from_source(prog.source).unwrap();
    let solo = Slicer::from_source(prog.source).unwrap();
    let criteria = per_printf_criteria(&batched);

    let batch = batched.slice_batch(&criteria).unwrap();
    assert_eq!(batch.per_criterion.len(), criteria.len());
    assert!(batch.aggregate.saturation_transitions > 0);
    let mut aggregate = PipelineStats::default();
    for (criterion, stats) in criteria.iter().zip(&batch.per_criterion) {
        let (_, want) = solo.slice_with_stats(criterion).unwrap();
        assert_eq!(stats.saturation_transitions, want.saturation_transitions);
        assert_eq!(stats.a1_transitions, want.a1_transitions);
        assert_eq!(stats.mrd.minimized_states, want.mrd.minimized_states);
        aggregate.absorb(stats);
    }
    assert_eq!(
        aggregate.saturation_transitions,
        batch.aggregate.saturation_transitions
    );
    assert_eq!(aggregate.a1_transitions, batch.aggregate.a1_transitions);
}

/// Sessions built from a bare SDG slice fine but cannot regenerate source.
#[test]
fn from_sdg_sessions_slice_but_cannot_regenerate() {
    let _guard = serial();
    let program = specslice_lang::frontend(specslice_corpus::examples::FIG1).unwrap();
    let sdg = build_sdg(&program).unwrap();
    let slicer = Slicer::from_sdg(sdg).unwrap();
    assert!(slicer.program().is_none());
    let slice = slicer
        .slice(&Criterion::printf_actuals(slicer.sdg()))
        .unwrap();
    assert_eq!(slice.variants_of_proc(slicer.sdg(), "p").len(), 2);
    let err = slicer.regenerate(&slice).unwrap_err();
    assert!(
        matches!(
            err,
            SpecError::Internal {
                context: "regen",
                ..
            }
        ),
        "{err:?}"
    );
}

/// All-contexts criteria read their stack language off the call graph,
/// which equals `post*({⟨entry_main, ε⟩})` only when every vertex is
/// reachable from its procedure's entry along intraprocedural edges.
/// `build_sdg` output passes that check; an SDG with a vertex nothing
/// reaches is rejected at every entry point that accepts a foreign SDG.
#[test]
fn sdgs_with_a_vertex_unreachable_from_its_entry_are_rejected() {
    use specslice_sdg::{EdgeKind, SdgError, Vertex, VertexKind};

    let _guard = serial();
    let program = specslice_lang::frontend(specslice_corpus::examples::FIG1).unwrap();
    let sdg = build_sdg(&program).unwrap();
    let criterion = Criterion::printf_actuals(&sdg);
    assert!(Slicer::from_sdg(sdg.clone()).is_ok());
    assert!(specslice::specialize(&sdg, &criterion).is_ok());
    assert!(specslice::feature_removal::remove_feature(&sdg, &criterion).is_ok());

    // A copy of one of `main`'s statement vertices that no edge enters.
    let mut bad = sdg.clone();
    let main = bad.main;
    let kind = bad
        .proc(main)
        .vertices
        .iter()
        .map(|&v| bad.vertex(v).kind.clone())
        .find(|k| matches!(k, VertexKind::Statement { .. }))
        .unwrap();
    let orphan = bad.add_vertex(Vertex { kind, proc: main });
    bad.procs[main.index()].vertices.push(orphan);
    // An edge *out of* the orphan does not make it reachable.
    let entry = bad.proc(main).entry;
    bad.add_edge(orphan, entry, EdgeKind::Flow);
    let is_rejection = |e: SpecError| matches!(e, SpecError::SdgBuild(SdgError::Build { .. }));
    assert!(is_rejection(Slicer::from_sdg(bad.clone()).unwrap_err()));
    assert!(is_rejection(
        specslice::specialize(&bad, &criterion).unwrap_err()
    ));
    assert!(is_rejection(
        specslice::feature_removal::remove_feature(&bad, &criterion).unwrap_err()
    ));
}

/// `approx_bytes` charges the warm scratch pool and the saturation base:
/// after a batch of all-contexts criteria leaves recycled `QueryScratch`es
/// behind, the session's resident estimate is exactly its component sum
/// *including* the pool (the server's
/// `--budget-bytes` LRU eviction would otherwise under-charge warm
/// sessions by megabytes at scale).
#[test]
fn approx_bytes_includes_warm_scratch_pool() {
    let _guard = serial();
    let slicer = Slicer::from_source_with(
        specslice_corpus::examples::FIG1,
        SlicerConfig {
            memoize: false, // memo bytes out of the picture: exact sum below
            num_threads: 1,
        },
    )
    .unwrap();
    let criteria: Vec<Criterion> = slicer
        .sdg()
        .printf_actual_in_vertices()
        .into_iter()
        .map(Criterion::vertex)
        .collect();
    slicer.slice_batch(&criteria).unwrap();

    let scratch = slicer.scratch_stats();
    assert!(
        scratch.pooled >= 1,
        "batch must leave a warm scratch pooled"
    );
    assert!(
        scratch.approx_bytes > 0,
        "warm scratch tables have non-zero footprint"
    );
    let base = slicer
        .saturation_base(Direction::Backward)
        .expect("a backward batch builds the saturation base");
    assert!(base.approx_bytes() > 0);
    assert!(
        slicer.saturation_base(Direction::Forward).is_none(),
        "a backward batch builds no forward base"
    );
    let expected = slicer.sdg().approx_bytes()
        + slicer.encoding().approx_bytes()
        + slicer.store_stats().approx_bytes()
        + base.approx_bytes()
        + scratch.approx_bytes;
    assert_eq!(
        slicer.approx_bytes(),
        expected,
        "session estimate must be the component sum including the pool"
    );
}

/// The backward saturation base (`pre*` of the empty query) is built
/// lazily and exactly once per session state, at every thread count:
/// opening a session builds none, `slice`, `slice_batch` and
/// `specialize_program` share one (whichever runs first builds it — a
/// parallel batch warms it before fanning out), forward-only use never
/// builds one, and `apply_edit` drops it for a lazy rebuild.
#[test]
fn saturation_base_is_built_once_and_only_for_backward_queries() {
    use specslice::{ProgramDelta, ProgramEdit};
    use specslice_corpus::editscript::find_stmt;
    use specslice_lang::ast::{Expr, Stmt, StmtKind};

    let _guard = serial();
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    for threads in [1, 2, 4] {
        let config = SlicerConfig {
            num_threads: threads,
            ..SlicerConfig::default()
        };

        // Every backward entry point, in two orders: the first call builds
        // the base, the rest reuse it.
        let orders: [&[&str]; 2] = [
            &["slice", "batch", "specialize"],
            &["specialize", "batch", "slice"],
        ];
        for order in orders {
            let slicer = Slicer::from_source_with(prog.source, config).unwrap();
            assert_eq!(
                slicer.saturation_base_builds(Direction::Backward),
                0,
                "opening builds no base"
            );
            assert!(slicer.saturation_base(Direction::Backward).is_none());
            let criteria = per_printf_criteria(&slicer);
            for step in order {
                match *step {
                    "slice" => drop(slicer.slice(&criteria[0]).unwrap()),
                    "batch" => drop(slicer.slice_batch(&criteria).unwrap()),
                    _ => drop(slicer.specialize_program(&criteria).unwrap()),
                }
                assert_eq!(
                    slicer.saturation_base_builds(Direction::Backward),
                    1,
                    "{threads} threads, {order:?}: after {step}"
                );
            }
            let base = slicer.saturation_base(Direction::Backward).expect("built");
            assert!(base.transition_count() > 0);
            assert_eq!(base.stats().transitions, base.transition_count());
            assert!(base.stats().rule_applications > 0);
        }

        // Forward-only use builds no backward base.
        let forward = Slicer::from_source_with(prog.source, config).unwrap();
        let criteria = per_printf_criteria(&forward);
        forward.forward_slice(&criteria[0]).unwrap();
        forward.forward_slice_batch(&criteria).unwrap();
        forward
            .specialize_program_directed(Direction::Forward, &criteria)
            .unwrap();
        assert_eq!(
            forward.saturation_base_builds(Direction::Backward),
            0,
            "{threads} threads"
        );
        assert!(forward.saturation_base(Direction::Backward).is_none());
    }

    // `apply_edit` drops the base; memo hits do not rebuild it, and the
    // first backward miss does — with answers identical to a fresh
    // session's.
    const SRC: &str = r#"
        int g, h;
        void live(int a) { g = a; }
        void other(int b) { h = b; }
        int main() { live(5); other(6); printf("%d", g); printf("%d", h); return 0; }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let criteria = per_printf_criteria(&slicer);
    slicer.slice_batch(&criteria).unwrap();
    assert_eq!(slicer.saturation_base_builds(Direction::Backward), 1);
    let program = slicer.program().unwrap().clone();
    let id = find_stmt(&program, "live", |k| matches!(k, StmtKind::Assign { .. })).unwrap();
    let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
        id,
        stmt: Stmt::new(
            0,
            StmtKind::Assign {
                name: "g".into(),
                value: Expr::Int(7),
            },
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert!(!report.full_rebuild);
    assert!(report.memo_kept >= 1, "{report:?}");
    assert!(
        slicer.saturation_base(Direction::Backward).is_none(),
        "apply_edit drops the base"
    );
    assert_eq!(
        slicer.saturation_base_builds(Direction::Backward),
        1,
        "apply_edit builds none"
    );
    // `printf(h)` lies outside the edit's reach; `printf(g)` does not.
    let after_edit = per_printf_criteria(&slicer);
    let hits = slicer.memo_hits();
    slicer.slice(&after_edit[1]).unwrap();
    assert_eq!(slicer.memo_hits(), hits + 1, "printf(h) stays memoized");
    assert_eq!(
        slicer.saturation_base_builds(Direction::Backward),
        1,
        "memo hits build none"
    );
    let after = slicer.slice(&after_edit[0]).unwrap();
    assert_eq!(
        slicer.saturation_base_builds(Direction::Backward),
        2,
        "the first miss rebuilds"
    );
    let fresh = Slicer::from_program(slicer.program().unwrap().clone()).unwrap();
    assert_same_slice(
        &after,
        &fresh.slice(&after_edit[0]).unwrap(),
        "after the edit",
    );
}

/// The forward saturation base (the `post*` closure of every push's first
/// hop) is built lazily and at most once per session state, at every
/// thread count and in both call orders: by the first forward query or
/// the first feature removal, whichever comes first. Opening a session
/// builds none, and neither does backward use, with configuration or
/// all-contexts criteria. `apply_edit` drops it; memo hits do not rebuild
/// it, the first forward miss does.
#[test]
fn forward_saturation_base_is_built_once_per_session() {
    use specslice::{ProgramDelta, ProgramEdit};
    use specslice_corpus::editscript::find_stmt;
    use specslice_lang::ast::{Expr, Stmt, StmtKind};

    let _guard = serial();
    let prog = specslice_corpus::by_name("print_tokens").unwrap();
    let builds =
        |s: &Slicer| [Direction::Backward, Direction::Forward].map(|d| s.saturation_base_builds(d));
    for threads in [1, 2, 4] {
        let config = SlicerConfig {
            num_threads: threads,
            ..SlicerConfig::default()
        };
        // Forward entry points and feature removal, in two orders: the
        // first call builds the base, the rest reuse it.
        let orders: [&[&str]; 2] = [
            &["forward", "batch", "specialize", "remove_feature"],
            &["remove_feature", "specialize", "batch", "forward"],
        ];
        for order in orders {
            let slicer = Slicer::from_source_with(prog.source, config).unwrap();
            assert_eq!(builds(&slicer), [0, 0], "opening builds no base");
            assert!(slicer.saturation_base(Direction::Forward).is_none());
            let criteria = per_printf_criteria(&slicer);
            for step in order {
                match *step {
                    "forward" => drop(slicer.forward_slice(&criteria[0]).unwrap()),
                    "batch" => drop(slicer.forward_slice_batch(&criteria).unwrap()),
                    "specialize" => drop(
                        slicer
                            .specialize_program_directed(Direction::Forward, &criteria)
                            .unwrap(),
                    ),
                    // Feature removal runs its own `post*` over the
                    // forward base.
                    _ => drop(slicer.remove_feature(&criteria[0]).unwrap()),
                }
                assert_eq!(
                    builds(&slicer),
                    [0, 1],
                    "{threads} threads, {order:?}: after {step}"
                );
            }
            let base = slicer.saturation_base(Direction::Forward).expect("built");
            assert_eq!(base.direction(), Some(Direction::Forward));
            assert!(base.transition_count() > 0);
            assert_eq!(base.stats().transitions, base.transition_count());
            assert!(base.stats().rule_applications > 0);
        }

        // Backward use builds no forward base, with configuration
        // criteria or all-contexts ones.
        let slicer = Slicer::from_source_with(prog.source, config).unwrap();
        let main = slicer.sdg().proc(slicer.sdg().main);
        let configs: Vec<Criterion> = slicer
            .sdg()
            .printf_call_sites()
            .filter(|c| c.caller == main.id)
            .flat_map(|c| {
                c.actual_ins
                    .iter()
                    .map(|&v| Criterion::configuration(v, vec![]))
            })
            .chain([Criterion::configuration(main.entry, vec![])])
            .collect();
        slicer.slice(&configs[0]).unwrap();
        slicer.slice_batch(&configs).unwrap();
        slicer.specialize_program(&configs).unwrap();
        assert_eq!(builds(&slicer), [1, 0], "{threads} threads");
        slicer.slice(&per_printf_criteria(&slicer)[0]).unwrap();
        slicer.slice_batch(&per_printf_criteria(&slicer)).unwrap();
        assert_eq!(builds(&slicer), [1, 0], "{threads} threads");
    }

    // `apply_edit` drops the base; memo hits do not rebuild it, and the
    // first forward miss does — with answers identical to a fresh
    // session's.
    const SRC: &str = r#"
        int g, h;
        void live(int a) { g = a; }
        void other(int b) { h = b; }
        int main() { live(5); other(6); printf("%d", g); printf("%d", h); return 0; }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    // Each callee's entry under its call from `main`.
    let sources = |s: &Slicer| -> Vec<Criterion> {
        let sdg = s.sdg();
        ["live", "other"]
            .map(|name| {
                let callee = sdg.proc_named(name).unwrap();
                let site = sdg
                    .call_sites
                    .iter()
                    .find(|c| matches!(c.callee, specslice_sdg::CalleeKind::User(p) if p == callee.id))
                    .unwrap();
                Criterion::configuration(callee.entry, vec![site.id])
            })
            .to_vec()
    };
    slicer.forward_slice_batch(&sources(&slicer)).unwrap();
    assert_eq!(builds(&slicer), [0, 1]);
    let program = slicer.program().unwrap().clone();
    let id = find_stmt(&program, "live", |k| matches!(k, StmtKind::Assign { .. })).unwrap();
    let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
        id,
        stmt: Stmt::new(
            0,
            StmtKind::Assign {
                name: "g".into(),
                value: Expr::Int(7),
            },
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert!(!report.full_rebuild);
    assert!(report.memo_kept >= 1, "{report:?}");
    assert!(
        slicer.saturation_base(Direction::Forward).is_none(),
        "apply_edit drops the base"
    );
    assert_eq!(builds(&slicer), [0, 1], "apply_edit builds none");
    // Forward from `other` never reaches the edit; from `live` it does.
    let after_edit = sources(&slicer);
    let hits = slicer.memo_hits();
    slicer.forward_slice(&after_edit[1]).unwrap();
    assert_eq!(slicer.memo_hits(), hits + 1, "other's slice stays memoized");
    assert_eq!(builds(&slicer), [0, 1], "memo hits build none");
    let after = slicer.forward_slice(&after_edit[0]).unwrap();
    assert_eq!(builds(&slicer), [0, 2], "the first miss rebuilds");
    let fresh = Slicer::from_program(slicer.program().unwrap().clone()).unwrap();
    assert_same_slice(
        &after,
        &fresh.forward_slice(&after_edit[0]).unwrap(),
        "after the edit",
    );
}

/// The session base is exactly the control-target part of a full `pre*`
/// on every corpus encoding (and a feature grid): the criterion's query
/// never adds a transition into a control state, so that part is `pre*`
/// of the empty query whatever the criterion. Forward, each criterion's
/// `A1` over the forward base is the one over the whole relation: the
/// same sizes and the same MRD output.
#[test]
fn saturation_base_is_the_control_target_part_of_each_query() {
    use specslice::encode::MAIN_CONTROL;
    use specslice_fsa::mrd::mrd_of_transposed;
    use specslice_pds::{
        saturate_a1_with_stats, saturate_indexed_with_stats, SaturationBase, SaturationScratch,
    };
    use std::collections::BTreeSet;

    let _guard = serial();
    let mut sources: Vec<(String, String)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    sources.push(("grid12".into(), specslice_corpus::feature_grid(12)));
    let mut scratch = SaturationScratch::default();
    for (name, source) in sources {
        let slicer = Slicer::from_source(&source).unwrap();
        let enc = slicer.encoding();
        let base = SaturationBase::backward(&enc.index);
        let forward_base = SaturationBase::forward(&enc.index);
        let frozen: BTreeSet<_> = base.transitions().collect();
        assert_eq!(frozen.len(), base.transition_count(), "{name}");
        let mut criteria = per_printf_criteria(&slicer);
        criteria.push(Criterion::printf_actuals(slicer.sdg()));
        for criterion in &criteria {
            let query = specslice::criteria::query_automaton(slicer.sdg(), enc, criterion).unwrap();
            let (full, _) =
                saturate_indexed_with_stats(Direction::Backward, &enc.index, &query, &mut scratch)
                    .unwrap();
            let control: BTreeSet<_> = full
                .transitions()
                .filter(|&(_, _, t)| full.is_control_state(t))
                .map(|(f, l, t)| (f.0, l, t.0))
                .collect();
            assert_eq!(control, frozen, "{name}");

            let mut forward_a1 = |over: &SaturationBase| {
                let (a1, stats) = saturate_a1_with_stats(
                    Direction::Forward,
                    &enc.index,
                    over,
                    &query,
                    MAIN_CONTROL,
                    &mut scratch,
                )
                .unwrap();
                let sizes = (a1.state_count(), a1.transition_count());
                (sizes, format!("{:?}", mrd_of_transposed(a1)), stats)
            };
            let (whole_sizes, whole_mrd, whole) = forward_a1(SaturationBase::empty());
            let (sizes, mrd, overlay) = forward_a1(&forward_base);
            assert_eq!(sizes, whole_sizes, "{name}");
            assert_eq!(mrd, whole_mrd, "{name}");
            assert!(overlay.transitions >= whole.transitions, "{name}");
            assert!(
                overlay.rule_applications <= whole.rule_applications,
                "{name}"
            );
        }
    }
}
