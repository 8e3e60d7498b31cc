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
//!
//! `Reachable` is never saturated. Its language is `v · c_k … c_1` for
//! every chain `c_1 … c_k` of user call sites from `main` down to
//! `proc(v)`, which an automaton with one state per procedure accepts
//! (see [`reachable_configurations`]). That holds because every vertex is
//! reachable from its own procedure's entry along intraprocedural
//! (`Control`/`Flow`/`LibActual`) edges: true of every SDG `build_sdg` and
//! `patch_sdg` produce, and checked in `O(V + E)` where an SDG from
//! elsewhere enters ([`crate::Slicer::from_sdg`], [`crate::specialize()`],
//! [`crate::feature_removal::remove_feature`]), which reject a violation
//! with [`SpecError::SdgBuild`].

use crate::encode::{Encoded, MAIN_CONTROL};
use crate::SpecError;
use specslice_fsa::{Dfa, Nfa, StateId};
use specslice_pds::{PAutomaton, PState};
use specslice_sdg::{CallSiteId, CalleeKind, EdgeKind, Sdg, SdgError, VertexId};

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

/// The checks [`query_automaton`] applies to a criterion before building
/// its automaton: no empty criterion, no out-of-range vertex or call site,
/// no unrealizable stack. A raw automaton is checked as it is converted.
pub(crate) fn check_criterion(sdg: &Sdg, criterion: &Criterion) -> Result<(), SpecError> {
    match criterion {
        Criterion::Configurations(configs) => {
            if configs.is_empty() {
                return Err(SpecError::bad_criterion("empty criterion"));
            }
            configs
                .iter()
                .try_for_each(|(v, stack)| validate_configuration(sdg, *v, stack))
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
            Ok(())
        }
        Criterion::Automaton(_) => Ok(()),
    }
}

/// Builds the P-automaton `A0` for a criterion (Fig. 9-style).
///
/// # Errors
///
/// Rejects out-of-range vertices/call sites and unrealizable stacks.
pub fn query_automaton(
    sdg: &Sdg,
    enc: &Encoded,
    criterion: &Criterion,
) -> Result<PAutomaton, SpecError> {
    check_criterion(sdg, criterion)?;
    match criterion {
        Criterion::Configurations(configs) => {
            let mut aut = PAutomaton::new(enc.pds.control_count());
            let p = aut.control_state(MAIN_CONTROL);
            let f = aut.add_state();
            aut.set_final(f);
            for (v, stack) in configs {
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
            nfa_to_query(enc, &call_chains(sdg, enc, verts.iter().copied()))
        }
        Criterion::Automaton(nfa) => nfa_to_query(enc, nfa),
    }
}

/// [`query_automaton`] with an ignored `reachable` argument: all-contexts
/// criteria build their stack language from the call graph. Kept only
/// because the perfbench harness (`perfbench/src/trace.rs`) calls it;
/// ROADMAP item 1's benchmark change deletes it.
#[doc(hidden)]
pub fn query_automaton_reusing(
    sdg: &Sdg,
    enc: &Encoded,
    _reachable: Option<&Nfa>,
    criterion: &Criterion,
) -> Result<PAutomaton, SpecError> {
    query_automaton(sdg, enc, criterion)
}

/// The language of all configurations reachable from `⟨entry_main, ε⟩` —
/// i.e. every `(v, w)` of the unrolled SDG whose stack is realizable —
/// read off the call graph instead of saturated: one state per procedure,
/// `init –v→ proc(v)` for every vertex `v`, and `Q –c→ caller(c)` for
/// every user call site `c` of `Q`, with `main` final, trimmed. It is
/// deterministic and has one state per live procedure plus the initial
/// state (the size of the minimal DFA of `post*({⟨entry_main, ε⟩})`).
///
/// It equals that `post*` language when every vertex is reachable from its
/// procedure's entry (see the [module docs](self));
/// `tests/properties.rs` keeps the `post*` construction as the oracle.
///
/// # Errors
///
/// None today; the `Result` is kept for the callers' signatures.
pub fn reachable_configurations(sdg: &Sdg, enc: &Encoded) -> Result<Nfa, SpecError> {
    Ok(call_chains(sdg, enc, sdg.vertex_ids()).trimmed().0)
}

/// The realizable-stack automaton with initial edges restricted to
/// `verts`: one state per procedure, `init –v→ proc(v)` for each `v`, and
/// `Q –c→ caller(c)` for every user call site `c` whose callee is `Q`, with
/// `main` final. It accepts `v · c_k … c_1` exactly when `c_1 … c_k` is a
/// chain of call sites from `main` down to `proc(v)`, and it is already
/// deterministic: a vertex names one procedure, a call site one callee.
fn call_chains(sdg: &Sdg, enc: &Encoded, verts: impl IntoIterator<Item = VertexId>) -> Nfa {
    let mut nfa = Nfa::new();
    let procs: Vec<StateId> = sdg.procs.iter().map(|_| nfa.add_state()).collect();
    nfa.set_final(procs[sdg.main.index()]);
    for v in verts {
        let q = procs[sdg.vertex(v).proc.index()];
        nfa.add_transition(nfa.initial(), Some(enc.vertex_symbol(v)), q);
    }
    for c in &sdg.call_sites {
        if let CalleeKind::User(q) = c.callee {
            let caller = procs[c.caller.index()];
            nfa.add_transition(procs[q.index()], Some(enc.call_symbol(c.id)), caller);
        }
    }
    nfa
}

/// Checks the precondition under which [`call_chains`] reads the same
/// language as `post*`: every vertex is reachable from its own
/// procedure's entry along `Control`/`Flow`/`LibActual` edges that stay
/// inside the procedure. One walk per procedure, `O(V + E)` in all.
///
/// # Errors
///
/// [`SpecError::SdgBuild`] naming the first vertex the walk misses.
pub(crate) fn check_entry_reachability(sdg: &Sdg) -> Result<(), SpecError> {
    let mut seen = vec![false; sdg.vertex_count()];
    let mut stack = Vec::new();
    for p in &sdg.procs {
        seen[p.entry.index()] = true;
        stack.push(p.entry);
        while let Some(u) = stack.pop() {
            for &(v, kind) in sdg.successors(u) {
                let intra = matches!(
                    kind,
                    EdgeKind::Control | EdgeKind::Flow | EdgeKind::LibActual
                );
                if intra && sdg.vertex(v).proc == p.id && !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
    }
    match seen.iter().position(|&s| !s) {
        None => Ok(()),
        Some(i) => {
            let v = VertexId(i as u32);
            Err(SpecError::SdgBuild(SdgError::new(format!(
                "vertex {} ({v:?}) is not reachable from its procedure's \
                 entry along intraprocedural edges",
                sdg.label(v)
            ))))
        }
    }
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
