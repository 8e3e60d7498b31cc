//! Slicing criteria and their query automata.
//!
//! A criterion denotes a (possibly infinite, regular) set of configurations
//! `(v, w)` of the unrolled SDG — PDG vertex `v` under pending-call stack
//! `w`. Three forms are supported:
//!
//! * explicit finite configuration sets (the "bug site" criteria of §8);
//! * *all calling contexts* of a vertex set — `(V · Γ_c*) ∩ Reachable`,
//!   where `Reachable = post*({⟨entry_main, ε⟩})` restricts to realizable
//!   stacks (how the paper slices on "all of the calling contexts of
//!   printf");
//! * raw automata over the interned symbol alphabet.

use crate::encode::{Encoded, MAIN_CONTROL};
use crate::SpecError;
use specslice_fsa::{Dfa, Nfa};
use specslice_pds::{Direction, PAutomaton, PState, SaturationBase};
use specslice_sdg::{CallSiteId, CalleeKind, Sdg, VertexId};

/// A slicing criterion.
#[derive(Clone, Debug)]
pub enum Criterion {
    /// A finite set of `(vertex, call-stack)` configurations. Stacks list
    /// pending call sites from innermost to outermost (`main`'s site last);
    /// an empty stack means the vertex is in `main`.
    Configurations(Vec<(VertexId, Vec<CallSiteId>)>),
    /// Every realizable calling context of the given vertices.
    AllContexts(Vec<VertexId>),
    /// A raw automaton over the interned symbol space (words must have the
    /// `vertex call-site*` shape).
    Automaton(Nfa),
}

impl Criterion {
    /// Criterion: all calling contexts of the actual parameters of every
    /// `printf` call — the criterion used throughout the paper's examples
    /// and for the `wc`/`go` experiments.
    pub fn printf_actuals(sdg: &Sdg) -> Criterion {
        Criterion::AllContexts(sdg.printf_actual_in_vertices())
    }

    /// Criterion: a single vertex in every realizable calling context.
    pub fn vertex(v: VertexId) -> Criterion {
        Criterion::AllContexts(vec![v])
    }

    /// Criterion: one concrete configuration (a "bug site").
    pub fn configuration(v: VertexId, stack: Vec<CallSiteId>) -> Criterion {
        Criterion::Configurations(vec![(v, stack)])
    }
}

/// Validates a configuration: the stack must be a realizable chain of call
/// sites from the vertex's procedure out to `main`.
fn validate_configuration(sdg: &Sdg, v: VertexId, stack: &[CallSiteId]) -> Result<(), SpecError> {
    if v.index() >= sdg.vertex_count() {
        return Err(SpecError::bad_criterion(format!(
            "criterion vertex {v:?} out of range"
        )));
    }
    let mut cur = sdg.vertex(v).proc;
    for &c in stack {
        if c.index() >= sdg.call_sites.len() {
            return Err(SpecError::bad_criterion(format!(
                "criterion call site {c:?} out of range"
            )));
        }
        let site = sdg.call_site(c);
        match site.callee {
            CalleeKind::User(callee) if callee == cur => {}
            _ => {
                return Err(SpecError::bad_criterion(format!(
                    "criterion stack invalid: {c:?} does not call `{}`",
                    sdg.proc(cur).name
                )))
            }
        }
        cur = site.caller;
    }
    if cur != sdg.main {
        return Err(SpecError::bad_criterion(format!(
            "criterion stack does not bottom out in `main` (ends in `{}`)",
            sdg.proc(cur).name
        )));
    }
    Ok(())
}

/// Builds the P-automaton `A0` for a criterion (Fig. 9-style), computing
/// the reachable-configuration automaton on demand when the criterion needs
/// it. Sessions ([`crate::Slicer`]) use [`query_automaton_reusing`] to share
/// one cached reachable automaton across queries instead.
///
/// # Errors
///
/// Rejects out-of-range vertices/call sites and unrealizable stacks.
pub fn query_automaton(
    sdg: &Sdg,
    enc: &Encoded,
    criterion: &Criterion,
) -> Result<PAutomaton, SpecError> {
    query_automaton_reusing(sdg, enc, None, criterion)
}

/// [`query_automaton`] with an optionally pre-computed
/// [`reachable_configurations`] automaton (only all-contexts criteria
/// consult it; passing `None` computes it on demand).
pub fn query_automaton_reusing(
    sdg: &Sdg,
    enc: &Encoded,
    reachable: Option<&Nfa>,
    criterion: &Criterion,
) -> Result<PAutomaton, SpecError> {
    match criterion {
        Criterion::Configurations(configs) => {
            if configs.is_empty() {
                return Err(SpecError::bad_criterion("empty criterion"));
            }
            let mut aut = PAutomaton::new(enc.pds.control_count());
            let p = aut.control_state(MAIN_CONTROL);
            let f = aut.add_state();
            aut.set_final(f);
            for (v, stack) in configs {
                validate_configuration(sdg, *v, stack)?;
                // Chain p –v→ … –C_k→ f.
                let mut syms = vec![enc.vertex_symbol(*v)];
                syms.extend(stack.iter().map(|&c| enc.call_symbol(c)));
                let mut cur = p;
                for (i, &s) in syms.iter().enumerate() {
                    let next = if i + 1 == syms.len() {
                        f
                    } else {
                        aut.add_state()
                    };
                    aut.add_transition(cur, Some(s), next);
                    cur = next;
                }
            }
            Ok(aut)
        }
        Criterion::AllContexts(verts) => {
            if verts.is_empty() {
                return Err(SpecError::bad_criterion("empty criterion"));
            }
            for &v in verts {
                if v.index() >= sdg.vertex_count() {
                    return Err(SpecError::bad_criterion(format!(
                        "criterion vertex {v:?} out of range"
                    )));
                }
            }
            let computed;
            let reachable = match reachable {
                Some(r) => r,
                None => {
                    computed = reachable_configurations(sdg, enc)?;
                    &computed
                }
            };
            // Shape automaton: verts · call-symbols*.
            let mut shape = Nfa::new();
            let f = shape.add_state();
            shape.set_final(f);
            for &v in verts {
                shape.add_transition(shape.initial(), Some(enc.vertex_symbol(v)), f);
            }
            for c in &sdg.call_sites {
                shape.add_transition(f, Some(enc.call_symbol(c.id)), f);
            }
            let inter = specslice_fsa::ops::intersect(reachable, &shape);
            nfa_to_query(enc, &inter)
        }
        Criterion::Automaton(nfa) => nfa_to_query(enc, nfa),
    }
}

/// The language of all configurations reachable from `⟨entry_main, ε⟩` —
/// i.e. every `(v, w)` of the unrolled SDG whose stack is realizable.
///
/// The result is determinized and minimized: it is built once per session
/// but consumed per criterion (all-contexts queries intersect with it and
/// re-determinize the product), so every state shaved here is shaved from
/// each of those downstream subset constructions. With a deterministic
/// left operand and the deterministic `verts · Γ_c*` shape on the right,
/// the product is itself deterministic and the per-criterion determinize
/// degenerates to a linear walk.
///
/// # Errors
///
/// Propagates a structured [`SpecError::Pds`] if the entry query violates a
/// `post*` precondition. The query is built right here — one labeled
/// transition out of a control state into a fresh final state — so every
/// precondition holds by construction and an error indicates a bug in the
/// engine, but it surfaces as a value (with the engine's own error as the
/// [`source`](std::error::Error::source)) rather than a panic inside
/// whatever worker thread first touched the session's reachable automaton.
pub fn reachable_configurations(sdg: &Sdg, enc: &Encoded) -> Result<Nfa, SpecError> {
    reachable_configurations_over(sdg, enc, SaturationBase::empty())
}

/// [`reachable_configurations`] over a saturation base: `base` must be
/// [`SaturationBase::empty`] (the whole `post*` is saturated here) or the
/// forward base of `enc`'s rule index ([`SaturationBase::forward`]), which
/// a session shares with its forward queries so that it saturates the
/// program forward once. Either gives the same automaton.
///
/// # Errors
///
/// As [`reachable_configurations`].
pub fn reachable_configurations_over(
    sdg: &Sdg,
    enc: &Encoded,
    base: &SaturationBase,
) -> Result<Nfa, SpecError> {
    let mut ae = PAutomaton::new(enc.pds.control_count());
    let f = ae.add_state();
    ae.set_final(f);
    let entry = sdg.proc(sdg.main).entry;
    ae.add_transition(
        ae.control_state(MAIN_CONTROL),
        Some(enc.vertex_symbol(entry)),
        f,
    );
    // `post*` read from `p` and trimmed straight from the saturation rows:
    // only the part that can reach the final state is ever copied.
    let mut scratch = specslice_pds::SaturationScratch::default();
    let (a1, _) = specslice_pds::saturate_a1_with_stats(
        Direction::Forward,
        &enc.index,
        base,
        &ae,
        MAIN_CONTROL,
        &mut scratch,
    )
    .map_err(|e| SpecError::pds("poststar(reachable)", e))?;
    Ok(specslice_fsa::hopcroft::minimize(&Dfa::determinize(&a1.to_nfa())).to_nfa())
}

/// Converts an arbitrary NFA into a query P-automaton: determinize +
/// minimize (guaranteeing ε-freedom and no transitions into the initial
/// state), then graft onto the control states. The initial state becomes
/// control `p` and every other state a fresh one, so no query transition
/// enters a control state: `poststar` requires that, and it is what keeps
/// a backward query's saturation disjoint from the session's `pre*` base
/// (see `specslice_pds::base`).
fn nfa_to_query(enc: &Encoded, nfa: &Nfa) -> Result<PAutomaton, SpecError> {
    let dfa = specslice_fsa::hopcroft::minimize(&Dfa::determinize(nfa));
    let mut aut = PAutomaton::new(enc.pds.control_count());
    // DFA state i → automaton state: initial → control p, others → fresh.
    let mut map: Vec<Option<PState>> = vec![None; dfa.state_count()];
    map[dfa.initial().index()] = Some(aut.control_state(MAIN_CONTROL));
    for slot in map.iter_mut() {
        if slot.is_none() {
            *slot = Some(aut.add_state());
        }
    }
    for (from, sym, to) in dfa.transitions() {
        if to == dfa.initial() {
            return Err(SpecError::bad_criterion(
                "criterion automaton has a transition into its initial state \
                 (words must have the shape `vertex call-site*`)",
            ));
        }
        aut.add_transition(
            map[from.index()].expect("mapped"),
            Some(sym),
            map[to.index()].expect("mapped"),
        );
    }
    for &f in dfa.finals() {
        aut.set_final(map[f.index()].expect("mapped"));
    }
    Ok(aut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_sdg;
    use specslice_lang::frontend;
    use specslice_sdg::build::build_sdg;

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

    fn setup(src: &str) -> (Sdg, Encoded) {
        let sdg = build_sdg(&frontend(src).unwrap()).unwrap();
        let enc = encode_sdg(&sdg);
        (sdg, enc)
    }

    #[test]
    fn printf_criterion_accepts_expected_configs() {
        let (sdg, enc) = setup(FIG1);
        let q = query_automaton(&sdg, &enc, &Criterion::printf_actuals(&sdg)).unwrap();
        for v in sdg.printf_actual_in_vertices() {
            assert!(q.accepts(MAIN_CONTROL, &[enc.vertex_symbol(v)]));
        }
        // A p-vertex with empty stack is not a printf-actual configuration.
        let p = sdg.proc_named("p").unwrap();
        assert!(!q.accepts(MAIN_CONTROL, &[enc.vertex_symbol(p.entry)]));
    }

    #[test]
    fn configuration_criterion_validates_stacks() {
        let (sdg, enc) = setup(FIG1);
        let p = sdg.proc_named("p").unwrap();
        let site0 = sdg.call_sites[0].id; // first call to p, in main
                                          // Valid: p's entry under C0.
        let ok = Criterion::configuration(p.entry, vec![site0]);
        assert!(query_automaton(&sdg, &enc, &ok).is_ok());
        // Invalid: stack does not bottom out in main (p vertex, no stack).
        let bad = Criterion::configuration(p.entry, vec![]);
        let err = query_automaton(&sdg, &enc, &bad).unwrap_err();
        assert!(err.to_string().contains("main"), "{err}");
        assert!(matches!(err, SpecError::BadCriterion { .. }), "{err:?}");
        // Invalid: call site that does not call p's proc.
        let printf_site = sdg
            .call_sites
            .iter()
            .find(|c| matches!(c.callee, CalleeKind::Library(_)))
            .unwrap()
            .id;
        let bad2 = Criterion::configuration(p.entry, vec![printf_site]);
        assert!(query_automaton(&sdg, &enc, &bad2).is_err());
    }

    #[test]
    fn all_contexts_restricts_to_realizable_stacks() {
        let (sdg, enc) = setup(FIG1);
        let p = sdg.proc_named("p").unwrap();
        // p5 (g2 = b) in all contexts: accepted with each call site of p,
        // rejected with impossible stacks.
        let g2b = p.vertices[6]; // entry, 2 fin, 3 fout, then stmts…
        let crit = Criterion::vertex(g2b);
        let q = query_automaton(&sdg, &enc, &crit).unwrap();
        let user_sites: Vec<CallSiteId> = sdg
            .call_sites
            .iter()
            .filter(|c| matches!(c.callee, CalleeKind::User(_)))
            .map(|c| c.id)
            .collect();
        for &c in &user_sites {
            assert!(q.accepts(MAIN_CONTROL, &[enc.vertex_symbol(g2b), enc.call_symbol(c)]));
        }
        // Stack of two user sites is not realizable (p does not call p).
        assert!(!q.accepts(
            MAIN_CONTROL,
            &[
                enc.vertex_symbol(g2b),
                enc.call_symbol(user_sites[0]),
                enc.call_symbol(user_sites[1])
            ]
        ));
        // ε stack is not realizable for a p vertex.
        assert!(!q.accepts(MAIN_CONTROL, &[enc.vertex_symbol(g2b)]));
    }

    #[test]
    fn empty_criterion_rejected() {
        let (sdg, enc) = setup(FIG1);
        assert!(query_automaton(&sdg, &enc, &Criterion::AllContexts(vec![])).is_err());
        assert!(query_automaton(&sdg, &enc, &Criterion::Configurations(vec![])).is_err());
    }

    #[test]
    fn out_of_range_vertex_rejected() {
        let (sdg, enc) = setup(FIG1);
        let bogus = VertexId(9999);
        assert!(query_automaton(&sdg, &enc, &Criterion::vertex(bogus)).is_err());
    }

    #[test]
    fn recursive_program_reachable_contexts_are_infinite() {
        let (sdg, enc) = setup(
            r#"
            int g;
            void r(int k) {
                if (k > 0) { r(k - 1); }
                g = k;
            }
            int main() { r(3); printf("%d", g); return 0; }
            "#,
        );
        let r = sdg.proc_named("r").unwrap();
        let q = query_automaton(&sdg, &enc, &Criterion::vertex(r.entry)).unwrap();
        // r's entry is reachable at arbitrarily deep recursion stacks:
        // main site then k recursive sites.
        let rec_site = sdg
            .call_sites
            .iter()
            .find(|c| c.caller == r.id && matches!(c.callee, CalleeKind::User(p) if p == r.id))
            .unwrap()
            .id;
        let main_site = sdg
            .call_sites
            .iter()
            .find(|c| c.caller == sdg.main && matches!(c.callee, CalleeKind::User(_)))
            .unwrap()
            .id;
        for depth in 0..4 {
            let mut word = vec![enc.vertex_symbol(r.entry)];
            word.extend(std::iter::repeat_n(enc.call_symbol(rec_site), depth));
            word.push(enc.call_symbol(main_site));
            assert!(q.accepts(MAIN_CONTROL, &word), "depth {depth}");
        }
    }
}
