//! Language-level automaton operations: reversal, ε-removal, product
//! intersection, difference, equivalence, relabeling.

use crate::dfa::Dfa;
use crate::hash::FxHashMap;
use crate::nfa::{Nfa, StateId};
use crate::Symbol;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Reverses an automaton: `L(reverse(A)) = { wᴿ | w ∈ L(A) }`.
///
/// A fresh initial state is connected by ε-transitions to the old final
/// states (mirroring the OpenFST behavior the paper describes in the proof of
/// Thm. 3.16); the old initial state becomes the unique final state.
pub fn reverse(nfa: &Nfa) -> Nfa {
    let mut out = Nfa::new();
    // out state i+1 corresponds to input state i; state 0 is the new initial.
    let map = |q: StateId| StateId(q.0 + 1);
    for _ in 0..nfa.state_count() {
        out.add_state();
    }
    for (f, l, t) in nfa.transitions() {
        out.add_transition(map(t), l, map(f));
    }
    for &f in nfa.finals() {
        out.add_transition(out.initial(), None, map(f));
    }
    out.set_final(map(nfa.initial()));
    out
}

/// Removes ε-transitions without changing the language.
pub fn remove_epsilon(nfa: &Nfa) -> Nfa {
    let mut out = Nfa::new();
    for _ in 1..nfa.state_count() {
        out.add_state();
    }
    for q in (0..nfa.state_count() as u32).map(StateId) {
        let mut set = BTreeSet::new();
        set.insert(q);
        let closure = nfa.epsilon_closure(&set);
        for &p in &closure {
            if nfa.is_final(p) {
                out.set_final(q);
            }
            for &(l, t) in nfa.transitions_from(p) {
                if let Some(sym) = l {
                    out.add_transition(q, Some(sym), t);
                }
            }
        }
    }
    out
}

/// `nfa` itself when it has no ε-transition — [`remove_epsilon`] would
/// return an identical copy — else its ε-free equivalent. The product
/// constructions below take their operands through this, so an ε-free
/// operand (the reachable-configuration DFA feature removal and reslicing
/// pass, say) is borrowed instead of being copied.
fn without_epsilon(nfa: &Nfa) -> Cow<'_, Nfa> {
    if nfa.transitions().any(|(_, l, _)| l.is_none()) {
        Cow::Owned(remove_epsilon(nfa))
    } else {
        Cow::Borrowed(nfa)
    }
}

/// Intersection by product construction. Handles ε-transitions by removing
/// them first.
pub fn intersect(a: &Nfa, b: &Nfa) -> Nfa {
    let a = without_epsilon(a);
    let b = without_epsilon(b);
    // Sorted successor rows of `b`, built once: product states re-visit the
    // same `b` state many times, and a binary-searched row replaces the
    // symbol map the old implementation rebuilt on every visit.
    let b_rows: Vec<Vec<(Symbol, StateId)>> = (0..b.state_count() as u32)
        .map(|i| {
            let mut row: Vec<(Symbol, StateId)> = b
                .transitions_from(StateId(i))
                .iter()
                .filter_map(|&(l, t)| l.map(|s| (s, t)))
                .collect();
            row.sort_unstable();
            row
        })
        .collect();
    let mut out = Nfa::new();
    let mut ids: FxHashMap<(StateId, StateId), StateId> = FxHashMap::default();
    let start = (a.initial(), b.initial());
    ids.insert(start, out.initial());
    if a.is_final(a.initial()) && b.is_final(b.initial()) {
        out.set_final(out.initial());
    }
    let mut work = vec![start];
    while let Some((qa, qb)) = work.pop() {
        let from = ids[&(qa, qb)];
        let row = &b_rows[qb.index()];
        for &(l, ta) in a.transitions_from(qa) {
            let Some(sym) = l else { continue };
            let lo = row.partition_point(|&(s, _)| s < sym);
            for &(s, tb) in &row[lo..] {
                if s != sym {
                    break;
                }
                let key = (ta, tb);
                let to = match ids.get(&key) {
                    Some(&id) => id,
                    None => {
                        let id = out.add_state();
                        ids.insert(key, id);
                        if a.is_final(ta) && b.is_final(tb) {
                            out.set_final(id);
                        }
                        work.push(key);
                        id
                    }
                };
                out.add_transition(from, Some(sym), to);
            }
        }
    }
    out
}

/// Difference `L(a) \ L(b)` where `b` is given deterministically.
///
/// The complement of `b` is never materialized: the product tracks an
/// `Option<StateId>` for `b`'s position, `None` meaning "b is dead" — this is
/// what keeps Alg. 2's `… ∩ complement(determinize(A0))` feasible over SDG
/// alphabets with tens of thousands of symbols.
pub fn difference(a: &Nfa, b: &Dfa) -> Nfa {
    let a = without_epsilon(a);
    let mut out = Nfa::new();
    let mut ids: FxHashMap<(StateId, Option<StateId>), StateId> = FxHashMap::default();
    let start = (a.initial(), Some(b.initial()));
    ids.insert(start, out.initial());
    let accepts = |qa: StateId, qb: Option<StateId>, a: &Nfa, b: &Dfa| {
        a.is_final(qa) && !qb.is_some_and(|q| b.is_final(q))
    };
    if accepts(a.initial(), Some(b.initial()), &a, b) {
        out.set_final(out.initial());
    }
    let mut work = vec![start];
    while let Some((qa, qb)) = work.pop() {
        let from = ids[&(qa, qb)];
        for &(l, ta) in a.transitions_from(qa) {
            let Some(sym) = l else { continue };
            let tb = qb.and_then(|q| b.step(q, sym));
            let key = (ta, tb);
            let to = match ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = out.add_state();
                    ids.insert(key, id);
                    if accepts(ta, tb, &a, b) {
                        out.set_final(id);
                    }
                    work.push(key);
                    id
                }
            };
            out.add_transition(from, Some(sym), to);
        }
    }
    out
}

/// Language equality test: `L(a) = L(b)`.
pub fn equivalent(a: &Nfa, b: &Nfa) -> bool {
    let da = Dfa::determinize(a);
    let db = Dfa::determinize(b);
    difference(a, &db).is_empty_language() && difference(b, &da).is_empty_language()
}

/// Language inclusion test: `L(a) ⊆ L(b)`.
pub fn subset_of(a: &Nfa, b: &Nfa) -> bool {
    let db = Dfa::determinize(b);
    difference(a, &db).is_empty_language()
}

/// Applies a symbol-to-symbol map (a functional finite-state transduction) to
/// every transition; used by the reslicing check's `T_C` (§8.3).
pub fn relabel(nfa: &Nfa, f: impl Fn(Symbol) -> Symbol) -> Nfa {
    let mut out = Nfa::new();
    for _ in 1..nfa.state_count() {
        out.add_state();
    }
    for (from, l, to) in nfa.transitions() {
        out.add_transition(from, l.map(&f), to);
    }
    for &q in nfa.finals() {
        out.set_final(q);
    }
    out
}

/// Applies the inverse of a (many-to-one) symbol map: each transition on `s`
/// is replaced by transitions on every symbol in `preimages(s)`; used by the
/// reslicing check's `T_C⁻¹` (§8.3).
pub fn relabel_inverse(nfa: &Nfa, preimages: impl Fn(Symbol) -> Vec<Symbol>) -> Nfa {
    let mut out = Nfa::new();
    for _ in 1..nfa.state_count() {
        out.add_state();
    }
    for (from, l, to) in nfa.transitions() {
        match l {
            None => {
                out.add_transition(from, None, to);
            }
            Some(s) => {
                for pre in preimages(s) {
                    out.add_transition(from, Some(pre), to);
                }
            }
        }
    }
    for &q in nfa.finals() {
        out.set_final(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// L = a b* c
    fn abc() -> Nfa {
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.add_transition(q0, Some(a), q1);
        n.add_transition(q1, Some(b), q1);
        n.add_transition(q1, Some(c), q2);
        n.set_final(q2);
        n
    }

    #[test]
    fn reverse_reverses_words() {
        let n = abc();
        let r = reverse(&n);
        let (a, b, c) = (sym(0), sym(1), sym(2));
        assert!(r.accepts(&[c, a]));
        assert!(r.accepts(&[c, b, b, a]));
        assert!(!r.accepts(&[a, c]));
    }

    #[test]
    fn double_reverse_preserves_language() {
        let n = abc();
        let rr = reverse(&reverse(&n));
        assert!(equivalent(&n, &rr));
    }

    #[test]
    fn epsilon_removal_preserves_language() {
        let n = reverse(&abc()); // reverse introduces ε-transitions
        let ne = remove_epsilon(&n);
        assert!(ne.transitions().all(|(_, l, _)| l.is_some()));
        assert!(equivalent(&n, &ne));
    }

    #[test]
    fn intersect_is_conjunction() {
        // L1 = a b* c, L2 = words of even length. Intersection: a b^(2k) c.
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let i = intersect(&abc(), &even());
        assert!(i.accepts(&[a, c]));
        assert!(i.accepts(&[a, b, b, c]));
        assert!(!i.accepts(&[a, b, c]));
    }

    #[test]
    fn difference_subtracts() {
        // abc() \ {a c} = a b+ c
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut just_ac = Nfa::new();
        let q1 = just_ac.add_state();
        let q2 = just_ac.add_state();
        just_ac.add_transition(just_ac.initial(), Some(a), q1);
        just_ac.add_transition(q1, Some(c), q2);
        just_ac.set_final(q2);
        let d = difference(&abc(), &Dfa::determinize(&just_ac));
        assert!(!d.accepts(&[a, c]));
        assert!(d.accepts(&[a, b, c]));
        assert!(d.accepts(&[a, b, b, c]));
    }

    #[test]
    fn equivalence_and_subset() {
        let n = abc();
        assert!(equivalent(&n, &n.clone()));
        assert!(subset_of(&n, &n));
        let (a, c) = (sym(0), sym(2));
        let mut smaller = Nfa::new();
        let q1 = smaller.add_state();
        let q2 = smaller.add_state();
        smaller.add_transition(smaller.initial(), Some(a), q1);
        smaller.add_transition(q1, Some(c), q2);
        smaller.set_final(q2);
        assert!(subset_of(&smaller, &n));
        assert!(!subset_of(&n, &smaller));
        assert!(!equivalent(&n, &smaller));
    }

    #[test]
    fn relabel_roundtrip() {
        let n = abc();
        let shifted = relabel(&n, |s| Symbol(s.0 + 10));
        assert!(shifted.accepts(&[sym(10), sym(12)]));
        // inverse relabel maps back (many-to-one with singleton preimages)
        let back = relabel_inverse(&shifted, |s| vec![Symbol(s.0 - 10)]);
        assert!(equivalent(&n, &back));
    }

    /// Words of even length over `{a, b, c}`.
    fn even() -> Nfa {
        let mut even = Nfa::new();
        let e1 = even.add_state();
        for s in [sym(0), sym(1), sym(2)] {
            even.add_transition(even.initial(), Some(s), e1);
            even.add_transition(e1, Some(s), even.initial());
        }
        even.set_final(even.initial());
        even
    }

    /// `a b* c` again, with an ε-hop after the `a`.
    fn abc_eps() -> Nfa {
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let q3 = n.add_state();
        n.add_transition(n.initial(), Some(sym(0)), q1);
        n.add_transition(q1, None, q2);
        n.add_transition(q2, Some(sym(1)), q2);
        n.add_transition(q2, Some(sym(2)), q3);
        n.set_final(q3);
        n
    }

    #[test]
    fn borrowed_operands_match_epsilon_removed_ones() {
        // Before operands were borrowed, both went through `remove_epsilon`
        // unconditionally. Passing them through it first reproduces that
        // (the results are ε-free, so they are borrowed as they are), and
        // borrowing the originals must give the same products.
        for free in [abc(), even()] {
            assert_eq!(format!("{:?}", remove_epsilon(&free)), format!("{free:?}"));
        }
        let pairs = [
            (abc(), even()),
            (abc_eps(), even()),
            (even(), abc_eps()),
            (abc_eps(), abc_eps()),
        ];
        for (a, b) in &pairs {
            let owned = intersect(&remove_epsilon(a), &remove_epsilon(b));
            assert_eq!(format!("{:?}", intersect(a, b)), format!("{owned:?}"));
            let db = Dfa::determinize(b);
            let owned = difference(&remove_epsilon(a), &db);
            assert_eq!(format!("{:?}", difference(a, &db)), format!("{owned:?}"));
        }
        assert!(intersect(&abc_eps(), &even()).accepts(&[sym(0), sym(2)]));
        assert!(!difference(&abc_eps(), &Dfa::determinize(&abc())).accepts(&[sym(0), sym(2)]));
    }

    #[test]
    fn difference_with_empty_dfa_is_identity() {
        let n = abc();
        let empty = Dfa::new();
        let d = difference(&n, &empty);
        assert!(equivalent(&n, &d));
    }
}
