//! Feature removal for multi-procedure programs (Alg. 2 / §7).
//!
//! The "feature" is the forward stack-configuration slice from criterion
//! `C`. The algorithm subtracts it from the set of configurations reachable
//! from `⟨entry_main, ε⟩`:
//!
//! ```text
//! A1 = Poststar(A_entry) ∩ complement(determinize(Poststar(A_C)))
//! ```
//!
//! and then continues exactly like Alg. 1 (MRD construction + read-out).
//! Because the PDS machinery manipulates configurations of the *unrolled*
//! SDG, the complement of the forward slice is backwards-closed — the
//! property that fails for SDG-level closure slices (Obs. 7.1) and that
//! previously made multi-procedure feature removal impossible.

use crate::criteria::{self, Criterion};
use crate::encode::{self, MAIN_CONTROL};
use crate::readout::{self, SpecSlice};
use crate::store::VariantStore;
use crate::SpecError;
use specslice_fsa::ops::difference;
use specslice_fsa::{mrd, Dfa};
use specslice_pds::{saturate_a1_with_stats, Direction, SaturationBase, SaturationScratch};
use specslice_sdg::Sdg;
use std::sync::Arc;

/// Removes the feature identified by the forward stack-configuration slice
/// from `criterion`, returning the residual specialization slice.
///
/// One-shot wrapper: encodes the SDG for this single call. Multi-query
/// clients should use [`crate::Slicer::remove_feature`], which shares the
/// encoding and the forward saturation base across queries.
///
/// # Errors
///
/// [`SpecError::SdgBuild`] when some vertex is not reachable from its
/// procedure's entry (see [`crate::criteria`]); otherwise fails on
/// malformed criteria or internal invariant violations.
pub fn remove_feature(sdg: &Sdg, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
    criteria::check_entry_reachability(sdg)?;
    let enc = encode::encode_sdg(sdg);
    remove_feature_reusing(
        sdg,
        &enc,
        SaturationBase::empty(),
        criterion,
        &Arc::new(VariantStore::new()),
    )
}

/// [`remove_feature`] against a session's cached encoding, forward
/// saturation base ([`SaturationBase::forward`] of `enc`'s rule index, or
/// [`SaturationBase::empty`]), and variant store (the residual slice's
/// content is interned there). The reachable configurations come from the
/// call graph ([`criteria::reachable_configurations`]).
pub fn remove_feature_reusing(
    sdg: &Sdg,
    enc: &encode::Encoded,
    base: &SaturationBase,
    criterion: &Criterion,
    store: &Arc<VariantStore>,
) -> Result<SpecSlice, SpecError> {
    let ac = criteria::query_automaton(sdg, enc, criterion)?;
    // A0 = Poststar(A_C): the feature, as a configuration language, read
    // from main's control location and trimmed straight from the
    // saturation rows. The query came out of `query_automaton`, which
    // guarantees the post* preconditions — a violation here is a slicer
    // bug, but it is reported as a structured [`SpecError::Pds`] (engine error
    // preserved as the `source`) rather than a worker-killing panic.
    let mut scratch = SaturationScratch::default();
    let (a0, _) = saturate_a1_with_stats(
        Direction::Forward,
        &enc.index,
        base,
        &ac,
        MAIN_CONTROL,
        &mut scratch,
    )
    .map_err(|e| SpecError::pds("poststar", e))?;
    // A1 = Reachable ∖ A0.
    let reachable = criteria::reachable_configurations(sdg, enc)?;
    let a1 = difference(&reachable, &Dfa::determinize(&a0.to_nfa()));
    let (a1, _) = a1.trimmed();
    // Continue at line 4 of Alg. 1.
    let a6 = mrd(&a1);
    readout::read_out_in(
        sdg,
        enc,
        &a6,
        readout::QueryKind::Residual,
        &mut readout::ReadoutScratch::default(),
        store,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regen::regenerate;
    use specslice_lang::frontend;
    use specslice_sdg::build::build_sdg;
    use specslice_sdg::VertexKind;

    /// Fig. 16(a): sum and product via a shared `add` procedure.
    const FIG16: &str = r#"
        int add(int a, int b) {
            int q;
            q = a + b;
            return q;
        }
        int mult(int a, int b) {
            int i;
            int ans;
            i = 0;
            ans = 0;
            while (i < a) {
                ans = add(ans, b);
                i = add(i, 1);
            }
            return ans;
        }
        void tally(int& sum, int& prod, int N) {
            int i;
            i = 1;
            while (i <= N) {
                sum = add(sum, i);
                prod = mult(prod, i);
                i = add(i, 1);
            }
        }
        int main() {
            int sum;
            int prod;
            sum = 0;
            prod = 1;
            tally(sum, prod, 10);
            printf("%d ", sum);
            printf("%d ", prod);
        }
    "#;

    #[test]
    fn fig16_remove_product_feature() {
        let program = frontend(FIG16).unwrap();
        let sdg = build_sdg(&program).unwrap();
        // Criterion: the `prod = 1` statement in main, in all contexts.
        let main = sdg.proc_named("main").unwrap();
        let prod_init = main
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .nth(1) // sum = 0; prod = 1;
            .unwrap();
        let slice = remove_feature(&sdg, &Criterion::vertex(prod_init)).unwrap();
        assert!(!slice.is_empty());

        // `add` must be kept (it is needed for the sum) — Obs. 7.1's
        // counterexample to naive subtraction.
        assert!(!slice.variants_of_proc(&sdg, "add").is_empty());

        // `tally` is specialized: the `prod` by-ref parameter disappears.
        let tallies = slice.variants_of_proc(&sdg, "tally");
        assert_eq!(tallies.len(), 1);
        let kept = tallies[0].kept_params(&sdg);
        assert_eq!(kept, vec![0, 2], "tally keeps sum and N, drops prod");

        // `prod = 1` and the prod printf are gone from main.
        let main_variant = slice.variant(slice.main_variant.unwrap());
        assert!(!main_variant.vertices.contains(&prod_init));

        // The program regenerates, re-checks, and its tally has 2 params.
        let regen = regenerate(&sdg, &program, &slice).unwrap();
        let tally_fn = regen
            .program
            .functions
            .iter()
            .find(|f| f.name.starts_with("tally"))
            .unwrap();
        assert_eq!(tally_fn.params.len(), 2, "{}", regen.source);
        // The sum remains computed via add.
        assert!(regen.source.contains("add"), "{}", regen.source);
    }

    #[test]
    fn removing_everything_leaves_skeleton() {
        let program = frontend(
            r#"
            int g;
            int main() {
                g = 1;
                printf("%d", g);
                return 0;
            }
            "#,
        )
        .unwrap();
        let sdg = build_sdg(&program).unwrap();
        let main = sdg.proc_named("main").unwrap();
        // Remove the forward slice of the entry vertex: everything.
        let slice = remove_feature(&sdg, &Criterion::vertex(main.entry)).unwrap();
        assert!(slice.is_empty());
        let regen = regenerate(&sdg, &program, &slice).unwrap();
        assert!(regen.program.main().is_some());
    }

    #[test]
    fn removing_unreachable_feature_keeps_everything() {
        let program = frontend(
            r#"
            int g, h;
            int main() {
                int dead;
                g = 1;
                dead = 2;
                printf("%d", g);
                return 0;
            }
            "#,
        )
        .unwrap();
        let sdg = build_sdg(&program).unwrap();
        // Criterion: `dead = 2` — influences nothing else.
        let main = sdg.proc_named("main").unwrap();
        let dead = main
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .nth(1)
            .unwrap();
        let slice = remove_feature(&sdg, &Criterion::vertex(dead)).unwrap();
        let main_variant = slice.variant(slice.main_variant.unwrap());
        // Everything except `dead = 2` survives.
        assert!(!main_variant.vertices.contains(&dead));
        assert!(main_variant.vertices.contains(&main.entry));
        assert!(main_variant.vertices.len() >= 5);
    }
}
