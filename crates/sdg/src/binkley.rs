//! Binkley's monovariant executable slicing (§5 of the paper; Binkley 1993).
//!
//! Starting from the HRB closure slice, repeatedly add back the actual
//! parameters that are *missing* at call sites whose callee keeps the
//! corresponding formal (the parameter-mismatch repair), together with the
//! backward closure slice from those actuals — until no mismatches remain.
//! The result is executable but may contain vertices *not* in the closure
//! slice ("extraneous" elements, the 7.1% of Fig. 19), unlike polyvariant
//! specialization slicing which only replicates closure-slice elements.

use crate::model::*;
use crate::slice::backward_closure_slice_with;
use crate::summary::Summaries;
use std::collections::BTreeSet;

/// Result of monovariant executable slicing.
#[derive(Clone, Debug)]
pub struct MonovariantSlice {
    /// The executable slice (vertex set).
    pub vertices: BTreeSet<VertexId>,
    /// Subset of `vertices` that is *not* in the initial closure slice
    /// (Binkley's "extra" elements).
    pub extraneous: BTreeSet<VertexId>,
    /// Number of mismatch-repair iterations performed.
    pub iterations: usize,
}

/// Computes Binkley's monovariant executable slice from `criterion`.
pub fn monovariant_executable_slice(sdg: &Sdg, criterion: &[VertexId]) -> MonovariantSlice {
    monovariant_executable_slice_with(sdg, &Summaries::of(sdg), criterion)
}

/// [`monovariant_executable_slice`] over summary edges derived once for
/// `sdg` ([`Summaries::of`]); every repair round reuses them.
pub fn monovariant_executable_slice_with(
    sdg: &Sdg,
    summaries: &Summaries,
    criterion: &[VertexId],
) -> MonovariantSlice {
    let closure = backward_closure_slice_with(sdg, summaries, criterion);
    let mut current = closure.clone();
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mismatches = missing_actuals(sdg, &current);
        if mismatches.is_empty() {
            break;
        }
        let mut seeds: Vec<VertexId> = current.iter().copied().collect();
        seeds.extend(mismatches.iter().copied());
        current = backward_closure_slice_with(sdg, summaries, &seeds);
    }
    let extraneous = current.difference(&closure).copied().collect();
    MonovariantSlice {
        vertices: current,
        extraneous,
        iterations,
    }
}

/// Actual-in vertices missing at call sites where the matching formal-in is
/// in the set.
fn missing_actuals(sdg: &Sdg, set: &BTreeSet<VertexId>) -> Vec<VertexId> {
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
                out.push(ai);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_sdg;
    use crate::slice::parameter_mismatches;
    use specslice_lang::frontend;

    /// Fig. 14 of the paper.
    const FIG14: &str = r#"
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

    #[test]
    fn fig14_monovariant_slice() {
        let sdg = build_sdg(&frontend(FIG14).unwrap()).unwrap();
        let criterion = sdg.printf_actual_in_vertices();
        let mono = monovariant_executable_slice(&sdg, &criterion);

        // Executable: no parameter mismatches left.
        assert!(parameter_mismatches(&sdg, &mono.vertices).is_empty());

        // Extraneous elements exist: the missing first actuals at lines 14
        // and 16, plus g2 = 100 (needed to initialize g2 for `p(g2, 2)`).
        assert!(!mono.extraneous.is_empty());
        let main = sdg.proc_named("main").unwrap();
        let g2_100 = main
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .unwrap();
        assert!(
            mono.vertices.contains(&g2_100),
            "Binkley adds g2 = 100 back (Fig. 14(c))"
        );
        assert!(mono.extraneous.contains(&g2_100));

        // But g3 = g2 stays out (it is irrelevant in every variant).
        let p = sdg.proc_named("p").unwrap();
        let stmts: Vec<VertexId> = p
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .collect();
        assert!(!mono.vertices.contains(&stmts[2]), "g3 = g2 excluded");
    }

    #[test]
    fn no_mismatch_means_closure_slice() {
        let sdg = build_sdg(
            &frontend(
                r#"
            int g;
            void set(int a) { g = a; }
            int main() { set(3); printf("%d", g); return 0; }
            "#,
            )
            .unwrap(),
        )
        .unwrap();
        let criterion = sdg.printf_actual_in_vertices();
        let mono = monovariant_executable_slice(&sdg, &criterion);
        assert!(mono.extraneous.is_empty());
        assert_eq!(mono.iterations, 1);
    }

    #[test]
    fn repair_cascades() {
        // The mismatch repair can itself create new mismatches one level up.
        let sdg = build_sdg(
            &frontend(
                r#"
            int g1, g2;
            void leaf(int a, int b) { g1 = a; g2 = b; }
            void mid(int x, int y) { leaf(x, y); }
            int main() {
                int u;
                int v;
                u = 1;
                v = 2;
                mid(u, v);
                leaf(0, g1);
                printf("%d", g2);
            }
            "#,
            )
            .unwrap(),
        )
        .unwrap();
        let criterion = sdg.printf_actual_in_vertices();
        let mono = monovariant_executable_slice(&sdg, &criterion);
        assert!(parameter_mismatches(&sdg, &mono.vertices).is_empty());
        assert!(
            mono.iterations >= 2,
            "expected cascade, got {}",
            mono.iterations
        );
    }
}
