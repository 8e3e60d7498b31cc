//! The `Prestar` saturation procedure (Defn. 3.6; Esparza et al. 2000).
//!
//! Given PDS `P` and P-automaton `A` accepting configuration set `C`, builds
//! an automaton accepting `pre*(C)` by adding transitions until saturation:
//!
//! ```text
//! ⟨p, γ⟩ ↪ ⟨p', w⟩ ∈ Δ     p' –w→* q in A_pre*
//! ─────────────────────────────────────────────
//!              p –γ→ q in A_pre*
//! ```
//!
//! The implementation is the standard worklist algorithm with partial-match
//! caching for push rules, running in `O(|Q|² · |Δ|)` time — but on dense
//! structures: rules are matched through a prebuilt [`RuleIndex`] (two
//! array reads per lookup, shared across every query over one PDS), the
//! growing transition relation lives in bitset-deduped per-`(state, symbol)`
//! rows inside a reusable [`SaturationScratch`], and `pre*` never adds
//! automaton states, so the whole run works on `u32` ids below a fixed
//! bound. Saturation is confluent — the result is the unique least fixpoint
//! over the query's state set — so none of this changes the answer, only
//! how fast it arrives.
//!
//! The engine itself lives in [`crate::saturate`], shared with
//! [`crate::poststar`][mod@crate::poststar]; this module pins [`Direction::Backward`].

use crate::automaton::PAutomaton;
use crate::index::RuleIndex;
use crate::saturate::{saturate_indexed_with_stats, Direction, SaturationStats};
use crate::scratch::SaturationScratch;
use crate::system::Pds;
use crate::PdsError;

/// Statistics from a [`prestar`] run (sizes feed the Fig. 22 memory
/// accounting; the counters feed the query benchmark's deterministic
/// drift gate). `phase1_states` is always 0 for `pre*`.
pub type PrestarStats = SaturationStats;

/// Computes an automaton for `pre*(L(query))`.
///
/// One-shot convenience: indexes the rules and allocates scratch for this
/// single call. Multi-query clients index once ([`RuleIndex::new`]) and
/// reuse a per-thread [`SaturationScratch`] via
/// [`prestar_indexed_with_stats`].
///
/// The query automaton must not have ε-transitions (queries built by
/// `specslice` never do).
///
/// # Errors
///
/// [`PdsError::EpsilonInQuery`] if an ε-transition survives into saturation,
/// [`PdsError::MissingControls`] if `query` has fewer control states than
/// `pds` has control locations. Both indicate a malformed query and are
/// returned (not panicked), so batch workers stay alive.
pub fn prestar(pds: &Pds, query: &PAutomaton) -> Result<PAutomaton, PdsError> {
    prestar_with_stats(pds, query).map(|(aut, _)| aut)
}

/// [`prestar`] plus run statistics.
pub fn prestar_with_stats(
    pds: &Pds,
    query: &PAutomaton,
) -> Result<(PAutomaton, PrestarStats), PdsError> {
    let idx = RuleIndex::new(pds);
    prestar_indexed_with_stats(&idx, query, &mut SaturationScratch::default())
}

/// [`prestar_with_stats`] against a prebuilt rule index and caller-owned
/// scratch — the session hot path.
pub fn prestar_indexed_with_stats(
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> Result<(PAutomaton, PrestarStats), PdsError> {
    saturate_indexed_with_stats(Direction::Backward, idx, query, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ControlLoc;
    use specslice_fsa::Symbol;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// A query with an ε-transition must be rejected with a structured
    /// error, not a panic (this used to crash batch worker threads).
    #[test]
    fn epsilon_query_is_a_structured_error() {
        let p = ControlLoc(0);
        let mut pds = Pds::new(1);
        pds.add_pop(p, sym(0), p);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), None, f);
        query.set_final(f);
        let err = prestar(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
        assert!(err.to_string().contains("ε-free"), "{err}");
    }

    /// A query lacking control states is likewise a structured error.
    #[test]
    fn missing_controls_is_a_structured_error() {
        let pds = Pds::new(3);
        let query = PAutomaton::new(1);
        let err = prestar_with_stats(&pds, &query).unwrap_err();
        assert_eq!(err, PdsError::MissingControls { query: 1, pds: 3 });
    }

    /// pre* on the "unbounded pop" PDS: rules ⟨p,a⟩↪⟨p,ε⟩;
    /// pre*{(p,ε)} = (p, a*).
    #[test]
    fn pop_star() {
        let p = ControlLoc(0);
        let a = sym(0);
        let mut pds = Pds::new(1);
        pds.add_pop(p, a, p);
        let mut query = PAutomaton::new(1);
        query.set_final(query.control_state(p));
        let res = prestar(&pds, &query).unwrap();
        for n in 0..5 {
            assert!(res.accepts(p, &vec![a; n]), "a^{n}");
        }
        assert!(!res.accepts(p, &[sym(1)]));
    }

    /// Internal chain: ⟨p,a⟩↪⟨p,b⟩, ⟨p,b⟩↪⟨p,c⟩; pre*{(p,c)} ⊇ (p,a),(p,b).
    #[test]
    fn internal_chain() {
        let p = ControlLoc(0);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut pds = Pds::new(1);
        pds.add_internal(p, a, p, b);
        pds.add_internal(p, b, p, c);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(c), f);
        query.set_final(f);
        let res = prestar(&pds, &query).unwrap();
        assert!(res.accepts(p, &[a]));
        assert!(res.accepts(p, &[b]));
        assert!(res.accepts(p, &[c]));
        assert!(!res.accepts(p, &[a, a]));
    }

    /// Push matching: ⟨p,a⟩↪⟨p, b c⟩ and ⟨p,b⟩↪⟨p,ε⟩.
    /// Then (p, a) ⇒ (p, b c) ⇒ (p, c), so (p,a) ∈ pre*{(p, c)}.
    #[test]
    fn push_then_pop() {
        let p = ControlLoc(0);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut pds = Pds::new(1);
        pds.add_push(p, a, p, b, c);
        pds.add_pop(p, b, p);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(c), f);
        query.set_final(f);
        let res = prestar(&pds, &query).unwrap();
        assert!(res.accepts(p, &[a]));
        assert!(res.accepts(p, &[b, c]));
        assert!(res.accepts(p, &[c]));
        assert!(!res.accepts(p, &[b]));
    }

    /// The recursion-shaped language of §2.3: rules produce contexts
    /// (C C)* at a vertex. PDS: ⟨p,r⟩↪⟨p,r C⟩ models "r depends on r at
    /// call-site C deeper"; slicing from (p, r) with even unwinding.
    #[test]
    fn recursive_context_language() {
        let p = ControlLoc(0);
        let r = sym(0);
        let s = sym(1);
        let c = sym(10);
        let d = sym(11);
        // s at context ε depends on r two frames down: ⟨p,s⟩↪⟨p, r C⟩ then
        // ⟨p,r⟩↪⟨p, s D⟩ — alternating pushes.
        let mut pds = Pds::new(1);
        pds.add_push(p, s, p, r, c);
        pds.add_push(p, r, p, s, d);
        let mut query = PAutomaton::new(1);
        let f = query.add_state();
        query.add_transition(query.control_state(p), Some(r), f);
        query.set_final(f);
        let res = prestar(&pds, &query).unwrap();
        // (p, r) is the criterion itself.
        assert!(res.accepts(p, &[r]));
        // (p, s) ⇒ (p, r C): reaches criterion configurations only if the
        // stack below matches; (s) alone: (p, s) ⇒ (p, r C) ≠ (p, r)… but
        // pre* is about reaching *some* accepted configuration, and only
        // (p, r) with empty rest is accepted: so (p, s) is NOT in pre*.
        assert!(!res.accepts(p, &[s]));
        // However (p, r) itself and nothing deeper:
        assert!(!res.accepts(p, &[r, c]));
    }

    /// Cross-check against concrete exploration on a small random-ish PDS:
    /// every configuration the symbolic engine claims must concretely reach
    /// an accepted configuration, and vice versa for enumerable ones.
    #[test]
    fn agrees_with_concrete_search() {
        let p = ControlLoc(0);
        let q = ControlLoc(1);
        let (a, b) = (sym(0), sym(1));
        let mut pds = Pds::new(2);
        pds.add_push(p, a, p, b, a);
        pds.add_internal(p, b, q, a);
        pds.add_pop(q, a, p);
        // Criterion: {(q, a)}.
        let mut query = PAutomaton::new(2);
        let f = query.add_state();
        query.add_transition(query.control_state(q), Some(a), f);
        query.set_final(f);
        let res = prestar(&pds, &query).unwrap();

        // Concrete bounded search.
        let reaches = |loc: ControlLoc, stack: &[Symbol]| -> bool {
            let mut seen = std::collections::HashSet::new();
            let mut work = vec![(loc, stack.to_vec())];
            while let Some((l, st)) = work.pop() {
                if l == q && st == vec![a] {
                    return true;
                }
                if st.len() > 6 || !seen.insert((l, st.clone())) {
                    continue;
                }
                work.extend(pds.step(l, &st));
            }
            false
        };
        for loc in [p, q] {
            for stack in [
                vec![],
                vec![a],
                vec![b],
                vec![a, a],
                vec![b, a],
                vec![a, b],
                vec![b, b],
            ] {
                assert_eq!(
                    res.accepts(loc, &stack),
                    reaches(loc, &stack),
                    "mismatch at ({loc:?}, {stack:?})"
                );
            }
        }
    }

    /// The indexed entry point with a reused scratch answers a sequence of
    /// different queries identically to the one-shot wrapper — the property
    /// the session hot path relies on.
    #[test]
    fn scratch_reuse_is_invisible() {
        let p = ControlLoc(0);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut pds = Pds::new(1);
        pds.add_push(p, a, p, b, c);
        pds.add_pop(p, b, p);
        pds.add_internal(p, c, p, a);
        let idx = RuleIndex::new(&pds);
        let mut scratch = SaturationScratch::default();
        for target in [a, b, c, a, c] {
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(target), f);
            query.set_final(f);
            let (fresh, fresh_stats) = prestar_with_stats(&pds, &query).unwrap();
            let (reused, reused_stats) =
                prestar_indexed_with_stats(&idx, &query, &mut scratch).unwrap();
            for word in [
                vec![],
                vec![a],
                vec![b],
                vec![c],
                vec![a, c],
                vec![b, c],
                vec![c, c],
            ] {
                assert_eq!(
                    fresh.accepts(p, &word),
                    reused.accepts(p, &word),
                    "target {target:?}, word {word:?}"
                );
            }
            assert_eq!(fresh_stats.transitions, reused_stats.transitions);
            assert_eq!(
                fresh_stats.rule_applications,
                reused_stats.rule_applications
            );
        }
    }
}
