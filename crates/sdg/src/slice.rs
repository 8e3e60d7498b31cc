//! Closure slicing: the context-sensitive two-phase HRB algorithm (backward
//! and forward) plus a context-insensitive Weiser-style executable slicer.
//!
//! These are the paper's §2.1.2 baseline ("closure slicing") and the §5
//! Weiser comparison point. The polyvariant algorithm lives in the
//! `specslice` crate; Binkley's monovariant algorithm in [`crate::binkley`].
//! The SDG carries no summary edges; each closure slice derives them with
//! the crate-private `summary` module and walks them beside the SDG's own
//! edges.

use crate::model::*;
use crate::summary::Summaries;
use std::collections::BTreeSet;

/// Every vertex reachable from `seeds` by repeatedly taking `step`.
fn reach<I: IntoIterator<Item = VertexId>>(
    seeds: impl IntoIterator<Item = VertexId>,
    step: impl Fn(VertexId) -> I,
) -> BTreeSet<VertexId> {
    let mut seen: BTreeSet<VertexId> = BTreeSet::new();
    let mut work: Vec<VertexId> = Vec::new();
    for s in seeds {
        if seen.insert(s) {
            work.push(s);
        }
    }
    while let Some(v) = work.pop() {
        for u in step(v) {
            if seen.insert(u) {
                work.push(u);
            }
        }
    }
    seen
}

/// Call and parameter-in edges: they lead from a call site into its callee.
fn enters_callee(k: EdgeKind) -> bool {
    matches!(k, EdgeKind::Call | EdgeKind::ParamIn)
}

/// Parameter-out edges: they lead from a callee back to its call site.
fn exits_callee(k: EdgeKind) -> bool {
    k == EdgeKind::ParamOut
}

/// Context-sensitive backward closure slice (Horwitz–Reps–Binkley, two
/// phases over the SDG plus its summary edges).
pub fn backward_closure_slice(sdg: &Sdg, criterion: &[VertexId]) -> BTreeSet<VertexId> {
    backward_closure_slice_with(sdg, &Summaries::of(sdg), criterion)
}

/// [`backward_closure_slice`] over summary edges derived once for `sdg`
/// ([`Summaries::of`]).
pub fn backward_closure_slice_with(
    sdg: &Sdg,
    summaries: &Summaries,
    criterion: &[VertexId],
) -> BTreeSet<VertexId> {
    let step = |skip: fn(EdgeKind) -> bool| {
        move |v: VertexId| {
            let edges = sdg.predecessors(v).iter().filter(move |&&(_, k)| !skip(k));
            edges
                .map(|&(u, _)| u)
                .chain(summaries.preds(v).iter().copied())
        }
    };
    // Phase 1: same level and up into callers (no descent into callees).
    let phase1 = reach(criterion.iter().copied(), step(exits_callee));
    // Phase 2: down into callees (no re-ascent into callers).
    reach(phase1, step(enters_callee))
}

/// Context-sensitive forward closure slice (dual phases).
pub fn forward_closure_slice(sdg: &Sdg, criterion: &[VertexId]) -> BTreeSet<VertexId> {
    let summaries = Summaries::of(sdg);
    let step = |skip: fn(EdgeKind) -> bool| {
        let summaries = &summaries;
        move |v: VertexId| {
            let edges = sdg.successors(v).iter().filter(move |&&(_, k)| !skip(k));
            edges
                .map(|&(t, _)| t)
                .chain(summaries.succs(v).iter().copied())
        }
    };
    // Phase 1: same level and up into callers (no descent into callees).
    let phase1 = reach(criterion.iter().copied(), step(enters_callee));
    // Phase 2: down into callees (no re-ascent into callers).
    reach(phase1, step(exits_callee))
}

/// A Weiser-style executable slice: context-insensitive, with atomic call
/// sites (a sliced call keeps *all* of its actual parameters) and unchanged
/// procedure signatures (all formal-ins of touched procedures are kept).
///
/// This reproduces the behavior the paper ascribes to Weiser's algorithm in
/// §5: executable, but context-insensitive and often much larger.
pub fn weiser_executable_slice(sdg: &Sdg, criterion: &[VertexId]) -> BTreeSet<VertexId> {
    let mut w: BTreeSet<VertexId> = criterion.iter().copied().collect();
    loop {
        w = reach(w, |v| sdg.predecessors(v).iter().map(|&(u, _)| u));
        let mut additions: Vec<VertexId> = Vec::new();
        for site in &sdg.call_sites {
            if w.contains(&site.call_vertex) {
                for &a in &site.actual_ins {
                    if !w.contains(&a) {
                        additions.push(a);
                    }
                }
            }
        }
        for proc in &sdg.procs {
            let touched = proc.vertices.iter().any(|v| w.contains(v));
            if touched {
                for &fi in std::iter::once(&proc.entry).chain(&proc.formal_ins) {
                    if !w.contains(&fi) {
                        additions.push(fi);
                    }
                }
            }
        }
        if additions.is_empty() {
            return w;
        }
        w.extend(additions);
    }
}

/// Detects parameter mismatches in a vertex set: call sites where the
/// callee's formal-in is in the set but the matching actual-in is not
/// (the reason closure slices are not executable — §2.1.2).
pub fn parameter_mismatches(sdg: &Sdg, set: &BTreeSet<VertexId>) -> Vec<(CallSiteId, InSlot)> {
    let mut out = Vec::new();
    for site in &sdg.call_sites {
        let CalleeKind::User(callee) = site.callee else {
            continue;
        };
        if !set.contains(&site.call_vertex) {
            continue;
        }
        let callee_proc = sdg.proc(callee);
        for (&ai, &fi) in site.actual_ins.iter().zip(&callee_proc.formal_ins) {
            if set.contains(&fi) && !set.contains(&ai) {
                out.push((site.id, sdg.in_slot(fi).cloned().expect("formal-in slot")));
            }
            let _ = ai;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_sdg;
    use specslice_lang::frontend;

    const FIG1: &str = r#"
        int g1, g2, g3;
        void p(int a, int b) {
            g1 = a;
            g2 = b;
            g3 = g2;
        }
        int main() {
            g2 = 100;
            p(g2, 2);
            p(g2, 3);
            p(4, g1 + g2);
            printf("%d", g2);
        }
    "#;

    fn sdg_of(src: &str) -> Sdg {
        build_sdg(&frontend(src).unwrap()).unwrap()
    }

    /// The Fig. 3 closure slice: p's formal-in `a` is in the slice (because
    /// call site C2 needs it) but actual-ins at C1/C3 for `a` are not —
    /// the parameter-mismatch phenomenon of Ex. 2.3.
    #[test]
    fn fig1_closure_slice_matches_paper() {
        let sdg = sdg_of(FIG1);
        let criterion = sdg.printf_actual_in_vertices();
        let slice = backward_closure_slice(&sdg, &criterion);

        let p = sdg.proc_named("p").unwrap();
        // p1 (entry), p2 (a), p3 (b), p4 (g1=a), p5 (g2=b), p8 (fo g2),
        // p9 (fo g1) in slice; p6 (g3=g2), p7 (fo g3) not.
        let in_slice = |v: VertexId| slice.contains(&v);
        assert!(in_slice(p.entry));
        assert!(in_slice(p.formal_ins[0]), "formal-in a");
        assert!(in_slice(p.formal_ins[1]), "formal-in b");
        // formal-outs: find by slot
        let fo = |slot: &OutSlot| {
            p.formal_outs
                .iter()
                .copied()
                .find(|&v| sdg.out_slot(v) == Some(slot))
                .unwrap()
        };
        assert!(in_slice(fo(&OutSlot::Global("g1".into()))));
        assert!(in_slice(fo(&OutSlot::Global("g2".into()))));
        assert!(
            !in_slice(fo(&OutSlot::Global("g3".into()))),
            "g3 is irrelevant"
        );

        // g3 = g2 statement must be out.
        let stmts: Vec<VertexId> = p
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .collect();
        assert!(in_slice(stmts[0]), "g1 = a");
        assert!(in_slice(stmts[1]), "g2 = b");
        assert!(!in_slice(stmts[2]), "g3 = g2 must not be in the slice");

        // Parameter mismatches exist: a's actual-in missing at C1 and C3.
        let mismatches = parameter_mismatches(&sdg, &slice);
        assert_eq!(mismatches.len(), 2, "{mismatches:?}");
        assert!(mismatches.iter().all(|(_, s)| *s == InSlot::Param(0)));

        // g2 = 100 must NOT be in the context-sensitive slice (its value is
        // killed before reaching the criterion — see Fig. 1(a)/Fig. 3).
        let main = sdg.proc_named("main").unwrap();
        let main_stmts: Vec<VertexId> = main
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .collect();
        assert_eq!(main_stmts.len(), 1, "only g2 = 100 is a plain statement");
        assert!(
            !in_slice(main_stmts[0]),
            "g2 = 100 wrongly included: context-sensitivity broken"
        );
    }

    #[test]
    fn weiser_slice_is_larger_and_mismatch_free() {
        let sdg = sdg_of(FIG1);
        let criterion = sdg.printf_actual_in_vertices();
        let closure = backward_closure_slice(&sdg, &criterion);
        let weiser = weiser_executable_slice(&sdg, &criterion);
        assert!(weiser.is_superset(&closure));
        assert!(parameter_mismatches(&sdg, &weiser).is_empty());
        // Weiser (context-insensitive) pulls g2 = 100 back in — Fig. 14(c).
        let main = sdg.proc_named("main").unwrap();
        let g2_100 = main
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .unwrap();
        assert!(weiser.contains(&g2_100));
    }

    #[test]
    fn forward_slice_of_assignment() {
        let sdg = sdg_of(
            r#"
            int g;
            void set(int a) { g = a; }
            int main() {
                int x;
                x = 1;
                set(x);
                printf("%d", g);
                return 0;
            }
            "#,
        );
        let main = sdg.proc_named("main").unwrap();
        let x1 = main
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .unwrap();
        let fwd = forward_closure_slice(&sdg, &[x1]);
        // x = 1 influences set's body and the printf argument.
        let set_proc = sdg.proc_named("set").unwrap();
        let g_assign = set_proc
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .unwrap();
        assert!(fwd.contains(&g_assign));
        let printf_args = sdg.printf_actual_in_vertices();
        assert!(printf_args.iter().any(|a| fwd.contains(a)));
    }

    #[test]
    fn slice_is_deterministic_and_monotone() {
        let sdg = sdg_of(FIG1);
        let criterion = sdg.printf_actual_in_vertices();
        let s1 = backward_closure_slice(&sdg, &criterion);
        // Deterministic: same criterion, same slice.
        assert_eq!(s1, backward_closure_slice(&sdg, &criterion));
        // Re-slicing *from the slice set* may legitimately grow the set: the
        // phase-2 vertices become phase-1 seeds and ascend to mismatched
        // actual-ins — exactly the parameter-mismatch phenomenon of §1 that
        // motivates specialization slicing. It must never shrink.
        let seeds: Vec<VertexId> = s1.iter().copied().collect();
        let s2 = backward_closure_slice(&sdg, &seeds);
        assert!(s2.is_superset(&s1));
    }

    #[test]
    fn empty_criterion_empty_slice() {
        let sdg = sdg_of(FIG1);
        assert!(backward_closure_slice(&sdg, &[]).is_empty());
    }

    #[test]
    fn context_sensitivity_two_callers() {
        // Classic: add is called from two sites; slicing on one result must
        // not drag in the other caller's arguments.
        let sdg = sdg_of(
            r#"
            int add(int a, int b) { return a + b; }
            int main() {
                int x;
                int y;
                x = add(1, 2);
                y = add(3, 4);
                printf("%d", x);
                return 0;
            }
            "#,
        );
        let criterion = sdg.printf_actual_in_vertices();
        let slice = backward_closure_slice(&sdg, &criterion);
        // The actual-ins of the second call (3, 4) must not be in the slice.
        let second_call = &sdg
            .call_sites
            .iter()
            .filter(|c| matches!(c.callee, CalleeKind::User(_)))
            .nth(1)
            .unwrap();
        for &a in &second_call.actual_ins {
            assert!(
                !slice.contains(&a),
                "context-insensitive leak: {}",
                sdg.label(a)
            );
        }
        // But the first call's actual-ins are.
        let first_call = &sdg
            .call_sites
            .iter()
            .find(|c| matches!(c.callee, CalleeKind::User(_)))
            .unwrap();
        for &a in &first_call.actual_ins {
            assert!(slice.contains(&a));
        }
    }
}
