//! Incremental re-slicing: `Slicer::apply_edit` + re-slice must be
//! *indistinguishable* from building a fresh session on the edited program —
//! byte-identical slices for every criterion, across every corpus program
//! and a scripted sequence of edits — while actually reusing cached state
//! (memo entries, dependence edges) whenever the edit permits.

use specslice::{Criterion, Direction, ProgramDelta, ProgramEdit, Slicer, SlicerConfig};
use specslice_corpus::editscript::{self, find_stmt};
use specslice_lang::ast::{BinOp, Expr, Stmt, StmtKind};
use specslice_lang::{frontend, StmtId};
use specslice_sdg::slice::backward_closure_slice;

/// Per-printf all-contexts criteria — the paper's evaluation workload.
fn per_printf(slicer: &Slicer) -> Vec<Criterion> {
    slicer
        .sdg()
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// Byte-level fingerprint of a batch answer over the per-printf workload.
fn fingerprint(slicer: &Slicer) -> String {
    let criteria = per_printf(slicer);
    if criteria.is_empty() {
        return String::from("<no printf criteria>");
    }
    format!("{:?}", slicer.slice_batch(&criteria).unwrap().slices)
}

/// Asserts the incremental session answers exactly like a fresh one, that
/// its PDS encoding equals a fresh one's rule for rule, in order, and
/// that the HRB closure slice of every printf (whose summary edges are
/// derived from the SDG alone) is the same on the patched SDG as on a
/// freshly built one.
fn assert_matches_fresh(incremental: &Slicer, context: &str) {
    let fresh = Slicer::from_program(incremental.program().unwrap().clone()).unwrap();
    assert_eq!(
        fingerprint(incremental),
        fingerprint(&fresh),
        "incremental != fresh after {context}"
    );
    assert!(
        incremental.encoding().pds.rules() == fresh.encoding().pds.rules(),
        "PDS rules (or their order) differ from a fresh session's after {context}"
    );
    let closures = |slicer: &Slicer| -> Vec<_> {
        let sdg = slicer.sdg();
        sdg.printf_call_sites()
            .map(|c| backward_closure_slice(sdg, &c.actual_ins))
            .collect()
    };
    assert_eq!(
        closures(incremental),
        closures(&fresh),
        "closure slices differ from a fresh session's after {context}"
    );
}

/// A scripted edit sequence applicable to any corpus program: perturb an
/// assignment in some non-main function, insert fresh statements into
/// `main`, append a dead procedure, then remove an inserted statement.
/// Returns the number of edits that applied (each is verified against a
/// fresh session before the next one runs).
fn run_edit_script(slicer: &mut Slicer, name: &str) -> usize {
    let mut applied = 0;

    // Edit 1: wrap the first assignment of the first non-main function that
    // has one — `x = e` becomes `x = e + 0` (structurally new, semantically
    // inert, so slice shapes stay comparable while the PDG genuinely
    // rebuilds).
    let program = slicer.program().unwrap().clone();
    let target = program.functions.iter().find_map(|f| {
        (f.name != "main")
            .then(|| editscript::wrap_assignment(&program, &f.name).map(|d| (f.name.clone(), d)))
            .flatten()
    });
    if let Some((func, delta)) = target {
        let report = slicer.apply_edit(&delta).unwrap();
        assert!(
            report.rebuilt_procs.contains(&func),
            "{name}: edited `{func}` not rebuilt"
        );
        assert_matches_fresh(slicer, &format!("{name}: assignment wrap in `{func}`"));
        applied += 1;
    }

    // Edit 2: prepend a fresh local to main (decl + assignment).
    let delta = editscript::insert_probe("main", "__edit_probe", 41);
    let report = slicer.apply_edit(&delta).unwrap();
    assert!(report.rebuilt_procs.contains(&"main".to_string()));
    assert_matches_fresh(slicer, &format!("{name}: insert into main"));
    applied += 1;

    // Edit 3: add a dead (never-called) procedure.
    let delta = editscript::add_dead_procedure("__edit_dead");
    let report = slicer.apply_edit(&delta).unwrap();
    assert_eq!(report.rebuilt_procs, vec!["__edit_dead".to_string()]);
    assert_matches_fresh(slicer, &format!("{name}: dead procedure added"));
    applied += 1;

    // Edit 4: remove the probe assignment again.
    let program = slicer.program().unwrap().clone();
    let delta =
        editscript::remove_probe(&program, "main", "__edit_probe").expect("probe still present");
    slicer.apply_edit(&delta).unwrap();
    assert_matches_fresh(slicer, &format!("{name}: probe removed"));
    applied += 1;

    applied
}

/// The acceptance-criteria property: for every corpus program and the
/// scripted edit sequence, `apply_edit` + re-slice is byte-identical to a
/// fresh `Slicer::from_program` on the edited program.
#[test]
fn corpus_edit_scripts_match_fresh_sessions() {
    for prog in specslice_corpus::programs() {
        let mut slicer = Slicer::from_source(prog.source).unwrap();
        // Warm the memo so the scripts also exercise memo migration.
        let _ = fingerprint(&slicer);
        let applied = run_edit_script(&mut slicer, prog.name);
        assert!(applied >= 3, "{}: only {applied} edits applied", prog.name);
    }
}

/// Edits that cannot affect a criterion's slice keep its memo entry; the
/// next batch answers it without re-running the pipeline.
#[test]
fn unaffected_criteria_are_answered_from_the_memo() {
    const SRC: &str = r#"
        int g1, g2;
        void left(int a) { g1 = a; }
        void right(int b) { g2 = b; }
        int main() {
            left(1);
            right(2);
            printf("%d", g1);
            printf("%d", g2);
            return 0;
        }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let criteria = per_printf(&slicer);
    assert_eq!(criteria.len(), 2);
    slicer.slice_batch(&criteria).unwrap();
    assert_eq!(slicer.memo_len(), 2);
    let hits_before = slicer.memo_hits();

    // Edit `right`: the g1-printf slice never touches it.
    let program = slicer.program().unwrap().clone();
    let id = find_stmt(&program, "right", |k| matches!(k, StmtKind::Assign { .. })).unwrap();
    let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
        id,
        stmt: Stmt::new(
            0,
            StmtKind::Assign {
                name: "g2".into(),
                value: Expr::Binary(
                    BinOp::Add,
                    Box::new(Expr::Var("b".into())),
                    Box::new(Expr::Int(0)),
                ),
            },
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert!(!report.full_rebuild);
    assert_eq!(report.memo_kept, 1, "g1 criterion must survive: {report:?}");
    assert_eq!(report.memo_dropped, 1, "g2 criterion must not: {report:?}");

    // Re-slice: the surviving entry hits; everything matches a fresh run.
    assert_matches_fresh(&slicer, "right-edit");
    assert!(slicer.memo_hits() > hits_before);
}

/// Edits confined to dead code keep the memo, and a session that only
/// slices backward never builds the forward saturation base, before or
/// after edits: all-contexts criteria read their stack language off the
/// call graph. The first feature removal builds it.
#[test]
fn dead_code_edits_keep_the_memo_without_a_forward_base() {
    const SRC: &str = r#"
        int g;
        void live(int a) { g = a; }
        void dead(int b) { g = b; }
        int main() { live(5); printf("%d", g); return 0; }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let criteria = per_printf(&slicer);
    slicer.slice_batch(&criteria).unwrap();
    assert_eq!(slicer.saturation_base_builds(Direction::Forward), 0);

    let program = slicer.program().unwrap().clone();
    let id = find_stmt(&program, "dead", |k| matches!(k, StmtKind::Assign { .. })).unwrap();
    let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
        id,
        stmt: Stmt::new(
            0,
            StmtKind::Assign {
                name: "g".into(),
                value: Expr::Int(77),
            },
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert_eq!(report.rebuilt_procs, vec!["dead".to_string()], "{report:?}");
    assert_eq!(report.memo_kept, criteria.len(), "{report:?}");
    assert_matches_fresh(&slicer, "dead-code edit");
    assert_eq!(slicer.saturation_base_builds(Direction::Forward), 0);

    // A live edit invalidates the memo entry; answers still match.
    let program = slicer.program().unwrap().clone();
    let id = find_stmt(&program, "live", |k| matches!(k, StmtKind::Assign { .. })).unwrap();
    let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
        id,
        stmt: Stmt::new(
            0,
            StmtKind::Assign {
                name: "g".into(),
                value: Expr::Var("a".into()),
            },
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert_eq!(report.memo_dropped, criteria.len(), "{report:?}");
    assert_matches_fresh(&slicer, "live edit");
    assert_eq!(slicer.saturation_base_builds(Direction::Forward), 0);
    slicer.remove_feature(&per_printf(&slicer)[0]).unwrap();
    assert_eq!(slicer.saturation_base_builds(Direction::Forward), 1);
}

/// A memoized *empty* slice (unreachable criterion) must be invalidated by
/// an edit that routes a call chain to the criterion's procedure — the
/// criterion itself anchors the entry even though its slice automaton
/// mentions no procedure at all.
#[test]
fn empty_slices_are_invalidated_when_their_criterion_becomes_reachable() {
    const SRC: &str = r#"
        int g;
        void dead(int b) { g = b; }
        int main() { g = 1; printf("%d", g); return 0; }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let dead_stmt = slicer.sdg().proc_named("dead").unwrap().vertices[1];
    let criterion = Criterion::vertex(dead_stmt);
    let before = slicer.slice(&criterion).unwrap();
    assert!(before.is_empty(), "criterion starts unreachable");
    assert_eq!(slicer.memo_len(), 1);

    // Insert `dead(2);` into main: the criterion becomes reachable.
    let delta = ProgramDelta::single(ProgramEdit::InsertStmt {
        function: "main".into(),
        at: 1,
        stmt: Stmt::new(
            0,
            StmtKind::Call(specslice_lang::ast::CallStmt {
                callee: specslice_lang::Callee::Named("dead".into()),
                args: vec![Expr::Int(2)],
                assign_to: None,
            }),
        ),
    });
    let report = slicer.apply_edit(&delta).unwrap();
    assert_eq!(
        report.memo_kept, 0,
        "stale empty slice must drop: {report:?}"
    );

    let dead_stmt = slicer.sdg().proc_named("dead").unwrap().vertices[1];
    let criterion = Criterion::vertex(dead_stmt);
    let after = slicer.slice(&criterion).unwrap();
    assert!(!after.is_empty(), "criterion is reachable after the edit");
    let fresh = Slicer::from_program(slicer.program().unwrap().clone()).unwrap();
    assert_eq!(
        format!("{after:?}"),
        format!("{:?}", fresh.slice(&criterion).unwrap())
    );
}

/// A failing delta leaves the session fully usable and unchanged.
#[test]
fn failed_edits_do_not_corrupt_the_session() {
    const SRC: &str = r#"
        int g;
        void p(int a) { g = a; }
        int main() { p(3); printf("%d", g); return 0; }
    "#;
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let before = fingerprint(&slicer);
    // Unknown statement.
    let bad = ProgramDelta::single(ProgramEdit::RemoveStmt { id: StmtId(9999) });
    assert!(slicer.apply_edit(&bad).is_err());
    // Sema-breaking edit (removes a still-used global).
    let bad = ProgramDelta::single(ProgramEdit::RemoveGlobal("g".into()));
    assert!(slicer.apply_edit(&bad).is_err());
    assert_eq!(fingerprint(&slicer), before);
}

/// Sessions built from a bare SDG cannot be edited (structured error, not a
/// panic), and globals edits take the full-rebuild path but stay exact.
#[test]
fn edit_edge_cases() {
    const SRC: &str = r#"
        int g;
        void p(int a) { g = a; }
        int main() { p(3); printf("%d", g); return 0; }
    "#;
    let program = frontend(SRC).unwrap();
    let sdg = specslice_sdg::build::build_sdg(&program).unwrap();
    let mut sdg_only = Slicer::from_sdg(sdg).unwrap();
    let err = sdg_only.apply_edit(&ProgramDelta::empty()).unwrap_err();
    assert!(err.to_string().contains("SDG only"), "{err}");

    // Globals edit: full reanalysis, still byte-exact.
    let mut slicer = Slicer::from_source(SRC).unwrap();
    let _ = fingerprint(&slicer);
    let delta = ProgramDelta {
        edits: vec![
            ProgramEdit::AddGlobal("h".into()),
            ProgramEdit::InsertStmt {
                function: "p".into(),
                at: usize::MAX,
                stmt: Stmt::new(
                    0,
                    StmtKind::Assign {
                        name: "h".into(),
                        value: Expr::Var("a".into()),
                    },
                ),
            },
        ],
    };
    let report = slicer.apply_edit(&delta).unwrap();
    assert!(report.memo_kept == 0, "{report:?}");
    assert_matches_fresh(&slicer, "globals edit");

    // An empty delta is a no-op that rebuilds nothing and keeps the memo.
    let report = slicer.apply_edit(&ProgramDelta::empty()).unwrap();
    assert!(report.rebuilt_procs.is_empty(), "{report:?}");
    assert_eq!(report.memo_dropped, 0, "{report:?}");
    assert_matches_fresh(&slicer, "empty delta");
}

/// Seeded sweep over generated programs: one assignment-wrapping edit per
/// program, incremental vs. fresh, at 1 and 2 worker threads.
#[test]
fn random_programs_survive_edits_at_every_thread_count() {
    for seed in (0..16u64).map(|i| i * 449 + 23) {
        let src = specslice_corpus::random_program(
            seed,
            specslice_corpus::GenConfig {
                n_globals: 3,
                n_funcs: 4,
                max_stmts: 6,
                recursion: true,
            },
        );
        for threads in [1usize, 2] {
            let mut slicer = Slicer::from_source_with(
                &src,
                SlicerConfig {
                    num_threads: threads,
                    ..SlicerConfig::default()
                },
            )
            .unwrap();
            let _ = fingerprint(&slicer);
            let program = slicer.program().unwrap().clone();
            let target = program.functions.iter().find_map(|f| {
                find_stmt(&program, &f.name, |k| matches!(k, StmtKind::Assign { .. }))
            });
            let Some(id) = target else { continue };
            let mut replacement = None;
            program.visit_all(|_, s| {
                if s.id == id {
                    if let StmtKind::Assign { name, value } = &s.kind {
                        replacement = Some(Stmt::new(
                            s.line,
                            StmtKind::Assign {
                                name: name.clone(),
                                value: Expr::Binary(
                                    BinOp::Add,
                                    Box::new(value.clone()),
                                    Box::new(Expr::Int(0)),
                                ),
                            },
                        ));
                    }
                }
            });
            let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
                id,
                stmt: replacement.unwrap(),
            });
            slicer
                .apply_edit(&delta)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
            assert_matches_fresh(&slicer, &format!("seed {seed} ({threads} threads)"));
        }
    }
}

/// Incremental batch re-slicing: a 2-thread feature-grid session runs an
/// edit script through `apply_edit`, and each re-slice must (a) keep every
/// untouched feature's memo entry and answer it as a hit, (b) pay exactly
/// one fresh saturation, for the one dropped criterion, and (c) stay
/// byte-identical to a fresh 1-thread session on the edited program.
#[test]
fn grid_edit_script_matches_fresh_sessions() {
    let src = specslice_corpus::feature_grid(12);
    let mut slicer = Slicer::from_source_with(
        &src,
        SlicerConfig {
            num_threads: 2,
            ..SlicerConfig::default()
        },
    )
    .unwrap();
    let criteria = per_printf(&slicer);
    assert!(criteria.len() >= 12);
    let batch = slicer.slice_batch(&criteria).unwrap();
    assert_eq!(batch.aggregate.saturations_run, criteria.len());
    assert_eq!(slicer.memo_len(), criteria.len());

    for func in ["step3", "step7", "run11"] {
        let program = slicer.program().unwrap().clone();
        let delta = editscript::wrap_assignment(&program, func)
            .unwrap_or_else(|| panic!("`{func}` has no assignment to wrap"));
        let report = slicer.apply_edit(&delta).unwrap();
        assert!(!report.full_rebuild, "{func}: {report:?}");
        // Exactly one feature's slice touches the edited procedure.
        assert_eq!(report.memo_dropped, 1, "{func}: {report:?}");
        assert_eq!(report.memo_kept, criteria.len() - 1, "{func}: {report:?}");

        let hits_before = slicer.memo_hits();
        let batch = slicer.slice_batch(&criteria).unwrap();
        // Kept entries replay from the memo; the lone dropped criterion
        // re-saturates.
        assert_eq!(
            slicer.memo_hits() - hits_before,
            criteria.len() - 1,
            "{func}: kept entries must answer as memo hits"
        );
        assert_eq!(
            batch.aggregate.saturations_run, 1,
            "{func}: only the invalidated criterion re-saturates"
        );

        // Diff against a fresh session on the edited program.
        let fresh = Slicer::from_program_with(
            slicer.program().unwrap().clone(),
            SlicerConfig {
                num_threads: 1,
                ..SlicerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", batch.slices),
            format!("{:?}", fresh.slice_batch(&criteria).unwrap().slices),
            "{func}: incremental re-slice diverged from a fresh session"
        );
        assert_eq!(slicer.memo_len(), criteria.len(), "{func}: memo refilled");
    }
}

/// `ProgramDelta::diff`-driven editing: rewrite a whole function body from
/// new source and re-slice.
#[test]
fn diff_driven_function_rewrite() {
    const OLD: &str = r#"
        int g1, g2;
        void p(int a, int b) { g1 = a; g2 = b; }
        int main() { p(1, 2); printf("%d", g1); printf("%d", g2); return 0; }
    "#;
    const NEW: &str = r#"
        int g1, g2;
        void p(int a, int b) { g1 = a + b; g2 = b; }
        int main() { p(1, 2); printf("%d", g1); printf("%d", g2); return 0; }
    "#;
    let mut slicer = Slicer::from_source(OLD).unwrap();
    let _ = fingerprint(&slicer);
    let delta = ProgramDelta::diff(slicer.program().unwrap(), &frontend(NEW).unwrap());
    let report = slicer.apply_edit(&delta).unwrap();
    assert_eq!(report.rebuilt_procs, vec!["p".to_string()]);
    assert_matches_fresh(&slicer, "diff-driven rewrite");
    // The g1 slice now includes b's actual-in: behaviorally visible.
    let criteria = per_printf(&slicer);
    let batch = slicer.slice_batch(&criteria).unwrap();
    assert!(!batch.slices[0].elems().is_empty());
}
