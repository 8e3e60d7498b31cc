//! The `Poststar` saturation procedure (Defn. 3.7; Schwoon 2002, Alg. 2).
//!
//! Computes an automaton for `post*(C)`: all configurations reachable from
//! `C` under the PDS transition relation. Used by `Slicer::forward_slice`
//! (forward stack-configuration slicing), by Alg. 2 (feature removal), and
//! to build the language of all configurations reachable from
//! `⟨entry_main, ε⟩` (valid calling contexts).
//!
//! Like `Prestar`, the engine runs on dense structures: rules come from a
//! prebuilt [`RuleIndex`] (including the dense numbering of Phase-I states,
//! one per distinct push-rule target pair), and the growing relation lives
//! in a reusable [`SaturationScratch`]. After Phase I the state space is
//! fixed, so every id stays below a known bound.
//!
//! The engine itself lives in [`crate::saturate`], shared with
//! [`crate::prestar`][mod@crate::prestar]; this module pins [`Direction::Forward`].

use crate::automaton::PAutomaton;
use crate::index::RuleIndex;
use crate::saturate::{saturate_indexed_with_stats, Direction, SaturationStats};
use crate::scratch::SaturationScratch;
use crate::system::Pds;
use crate::PdsError;

/// Statistics from a [`poststar`] run. `query_transitions` counts the input
/// automaton's transitions.
pub type PoststarStats = SaturationStats;

/// Computes an automaton for `post*(L(query))`.
///
/// The result may contain ε-transitions; acceptance accounts for them.
///
/// # Errors
///
/// [`PdsError::EpsilonInQuery`] if `query` has ε-transitions,
/// [`PdsError::TransitionIntoControl`] if it has transitions *into* control
/// states, [`PdsError::MissingControls`] if it has fewer control states
/// than the PDS has control locations — the standard P-automaton
/// preconditions, surfaced as values (they used to be `assert!`s, which
/// crashed batch worker threads on malformed queries).
pub fn poststar(pds: &Pds, query: &PAutomaton) -> Result<PAutomaton, PdsError> {
    poststar_with_stats(pds, query).map(|(aut, _)| aut)
}

/// [`poststar`] plus run statistics.
pub fn poststar_with_stats(
    pds: &Pds,
    query: &PAutomaton,
) -> Result<(PAutomaton, PoststarStats), PdsError> {
    let idx = RuleIndex::new(pds);
    poststar_indexed_with_stats(&idx, query, &mut SaturationScratch::default())
}

/// [`poststar_with_stats`] against a prebuilt rule index and caller-owned
/// scratch — the session hot path.
pub fn poststar_indexed_with_stats(
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> Result<(PAutomaton, PoststarStats), PdsError> {
    saturate_indexed_with_stats(Direction::Forward, idx, query, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ControlLoc;
    use specslice_fsa::Symbol;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// Rules: ⟨p,a⟩↪⟨p, a b⟩. post*{(p, a)} = (p, a b*).
    #[test]
    fn push_star() {
        let p = ControlLoc(0);
        let (a, b) = (sym(0), sym(1));
        let mut pds = Pds::new(1);
        pds.add_push(p, a, p, a, b);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(a), f);
        query.set_final(f);
        let res = poststar(&pds, &query).unwrap();
        assert!(res.accepts(p, &[a]));
        assert!(res.accepts(p, &[a, b]));
        assert!(res.accepts(p, &[a, b, b, b]));
        assert!(!res.accepts(p, &[b]));
        assert!(!res.accepts(p, &[a, a]));
    }

    /// Pop to a different control location: ⟨p,a⟩↪⟨q,ε⟩.
    /// post*{(p, a b)} ∋ (q, b).
    #[test]
    fn pop_moves_control() {
        let p = ControlLoc(0);
        let q = ControlLoc(1);
        let (a, b) = (sym(0), sym(1));
        let mut pds = Pds::new(2);
        pds.add_pop(p, a, q);
        let mut query = PAutomaton::new(2);
        let m1 = query.add_state();
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(a), m1);
        query.add_transition(m1, Some(b), f);
        query.set_final(f);
        let res = poststar(&pds, &query).unwrap();
        assert!(res.accepts(p, &[a, b]));
        assert!(res.accepts(q, &[b]));
        assert!(!res.accepts(q, &[a]));
        assert!(!res.accepts(p, &[b]));
    }

    /// Pop then continue: push and pop interplay.
    /// Rules: ⟨p,a⟩↪⟨p,b c⟩, ⟨p,b⟩↪⟨q,ε⟩, ⟨q,c⟩↪⟨q,d⟩.
    /// (p,a) ⇒ (p,bc) ⇒ (q,c) ⇒ (q,d).
    #[test]
    fn chained_reachability() {
        let p = ControlLoc(0);
        let q = ControlLoc(1);
        let (a, b, c, d) = (sym(0), sym(1), sym(2), sym(3));
        let mut pds = Pds::new(2);
        pds.add_push(p, a, p, b, c);
        pds.add_pop(p, b, q);
        pds.add_internal(q, c, q, d);
        let mut query = PAutomaton::new(2);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(a), f);
        query.set_final(f);
        let res = poststar(&pds, &query).unwrap();
        for (loc, stack) in [(p, vec![a]), (p, vec![b, c]), (q, vec![c]), (q, vec![d])] {
            assert!(res.accepts(loc, &stack), "({loc:?}, {stack:?})");
        }
        assert!(!res.accepts(p, &[c]));
        assert!(!res.accepts(q, &[a]));
    }

    /// Cross-check with concrete exploration.
    #[test]
    fn agrees_with_concrete_search() {
        let p = ControlLoc(0);
        let q = ControlLoc(1);
        let (a, b) = (sym(0), sym(1));
        let mut pds = Pds::new(2);
        pds.add_push(p, a, p, b, a);
        pds.add_internal(p, b, q, a);
        pds.add_pop(q, a, p);
        // Start set: {(p, a)}.
        let mut query = PAutomaton::new(2);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(a), f);
        query.set_final(f);
        let res = poststar(&pds, &query).unwrap();

        // Concrete BFS from (p, [a]) bounded by stack depth.
        let mut reachable = std::collections::HashSet::new();
        let mut work = vec![(p, vec![a])];
        while let Some((l, st)) = work.pop() {
            if st.len() > 5 || !reachable.insert((l, st.clone())) {
                continue;
            }
            work.extend(pds.step(l, &st));
        }
        for loc in [p, q] {
            for stack in [
                vec![],
                vec![a],
                vec![b],
                vec![a, a],
                vec![b, a],
                vec![a, b],
                vec![b, a, a],
            ] {
                let concrete = reachable.contains(&(loc, stack.clone()));
                assert_eq!(
                    res.accepts(loc, &stack),
                    concrete,
                    "mismatch at ({loc:?}, {stack:?})"
                );
            }
        }
    }

    /// pre* and post* are adjoint: c' ∈ pre*({c}) iff c ∈ post*({c'}).
    #[test]
    fn prestar_poststar_duality() {
        let p = ControlLoc(0);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut pds = Pds::new(1);
        pds.add_push(p, a, p, b, c);
        pds.add_pop(p, b, p);
        pds.add_internal(p, c, p, a);

        // c' = (p, [a]); c = (p, [c]).
        let mut from_cp = PAutomaton::new(1);
        let f1 = from_cp.add_state();
        from_cp.add_transition(from_cp.control_state(p), Some(a), f1);
        from_cp.set_final(f1);
        let post = poststar(&pds, &from_cp).unwrap();

        let mut from_c = PAutomaton::new(1);
        let f2 = from_c.add_state();
        from_c.add_transition(from_c.control_state(p), Some(c), f2);
        from_c.set_final(f2);
        let pre = crate::prestar::prestar(&pds, &from_c).unwrap();

        assert_eq!(post.accepts(p, &[c]), pre.accepts(p, &[a]));
        assert!(post.accepts(p, &[c]));
    }

    /// Malformed queries surface as structured errors, never as panics —
    /// the same contract `prestar` has had since the batch-worker fixes
    /// (mirrors `tests/malformed_criteria.rs` at the PDS layer).
    #[test]
    fn epsilon_query_is_a_structured_error() {
        let p = ControlLoc(0);
        let mut pds = Pds::new(1);
        pds.add_pop(p, sym(0), p);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), None, f);
        query.set_final(f);
        let err = poststar(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
        assert!(err.to_string().contains("ε-free"), "{err}");
    }

    #[test]
    fn missing_controls_is_a_structured_error() {
        let pds = Pds::new(3);
        let query = PAutomaton::new(1);
        let err = poststar_with_stats(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::MissingControls { query: 1, pds: 3 });
    }

    #[test]
    fn transition_into_control_state_is_a_structured_error() {
        let p = ControlLoc(0);
        let q = ControlLoc(1);
        let mut pds = Pds::new(2);
        pds.add_pop(p, sym(0), q);
        // Two offending transitions: control → control, and interior →
        // control.
        let mut query = PAutomaton::new(2);
        let m = query.add_state();
        query.add_transition(query.control_state(p), Some(sym(0)), query.control_state(q));
        query.add_transition(query.control_state(p), Some(sym(1)), m);
        query.add_transition(m, Some(sym(2)), query.control_state(q));
        query.set_final(m);
        let err = poststar(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::TransitionIntoControl { count: 2 });
        assert!(err.to_string().contains("control"), "{err}");
    }

    /// Error precedence mirrors the old assertion order (ε before
    /// into-control), so diagnostics stay stable.
    #[test]
    fn epsilon_reported_before_into_control() {
        let p = ControlLoc(0);
        let pds = Pds::new(1);
        let mut query = PAutomaton::new(1);
        query.add_transition(query.control_state(p), None, query.control_state(p));
        let err = poststar(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
    }
}
