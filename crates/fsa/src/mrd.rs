//! Minimal reverse-deterministic (MRD) automaton construction — the
//! automaton-theoretic core of the specialization-slicing algorithm
//! (Alg. 1, lines 4–8; Obs. 3.11 and Thm. 3.16 of the paper).

use crate::dfa::Dfa;
use crate::hash::FxHashMap;
use crate::hopcroft::minimize;
use crate::nfa::{Nfa, StateId};
use crate::ops::{remove_epsilon, reverse};
use crate::Symbol;
use std::collections::VecDeque;

/// Computes the minimal reverse-deterministic automaton for `L(a1)`:
///
/// ```text
/// A6 = removeEpsilonTransitions(reverse(minimize(determinize(reverse(A1)))))
/// ```
///
/// The language is unchanged (`L(A6) = L(A1)`); only the *structure* becomes
/// canonical: deterministic and minimal when read backwards from the unique
/// final state. For stack-configuration-slice languages, the transitions out
/// of the initial state of the result then spell out the solution of the
/// configuration-partitioning problem (Thm. 3.17).
///
/// Also returns the intermediate determinized-reversed automaton's state
/// count, which the evaluation section compares against the minimized size
/// (§4.2's "determinize output shrinks by 4.4–34%" observation).
pub fn mrd_with_stats(a1: &Nfa) -> (Nfa, MrdStats) {
    mrd_of_transposed(&TransposedNfa::from_nfa(a1))
}

/// [`mrd_with_stats`] over an `A1` already in transposed form — the entry
/// the query pipeline uses, since it builds each query's `A1` straight
/// from the saturation rows into a reused [`TransposedNfa`].
pub fn mrd_of_transposed(a1: &TransposedNfa) -> (Nfa, MrdStats) {
    // `determinize(reverse(a1))`, fused — the reversed NFA is never
    // materialized. ε-transitions in `a1` (always present in forward/post*
    // pipelines, possible for library callers) are closed in place during
    // the subset construction.
    let a3 = determinize_reversed(a1);
    let a4 = minimize(&a3);
    // `reverse → remove_epsilon → trim → canonicalize` over `a4`, fused:
    // `a4` is trim (a `minimize` guarantee), so in the common case the
    // reversed automaton needs no ε-bridge, no ε-removal, and no trim pass —
    // and because the canonical renumbering is a backward BFS of the
    // reversal (= a forward BFS of `a4`), the canonical form can be written
    // down directly, skipping the intermediate automaton entirely. The
    // fallback runs the original pass sequence for the degenerate shapes
    // (empty language, ε ∈ L) where `canonicalize_mrd`'s precondition
    // bail-outs keep the input presentation.
    //
    // Canonical renumbering: the MRD automaton of a language is unique up
    // to isomorphism, and the canonical pass picks one representative — so
    // two pipelines that arrive at the same *language* through differently
    // presented inputs (a fresh `Prestar` run vs. a symbol-remapped cached
    // automaton, see `specslice`'s incremental re-slicing) emit bit-for-bit
    // identical automata.
    let a6 = match reverse_trim_canonical(&a4) {
        Some(a6) => a6,
        None => {
            let a5 = reverse(&a4.to_nfa());
            let a6 = remove_epsilon(&a5);
            canonicalize_mrd(&a6.trimmed().0)
        }
    };
    let stats = MrdStats {
        input_states: a1.state_count(),
        determinized_states: a3.state_count(),
        minimized_states: a4.state_count(),
        mrd_states: a6.state_count(),
        mrd_transitions: a6.transition_count(),
    };
    (a6, stats)
}

/// Convenience wrapper around [`mrd_with_stats`] discarding the statistics.
pub fn mrd(a1: &Nfa) -> Nfa {
    mrd_with_stats(a1).0
}

/// The *canonical* trimmed ε-free reversal of a trim DFA, or `None` for
/// the degenerate shapes (no final state, or an accepting initial state —
/// i.e. ε ∈ L) that need the general ε-bridged reversal plus a trim and a
/// canonicalize pass.
///
/// Equal, bit for bit, to
/// `canonicalize_mrd(&remove_epsilon(reverse(dfa.to_nfa())).trimmed().0)`:
///
/// - The ε-bridge from the fresh initial to the old finals is flattened on
///   the spot by giving the fresh initial a copy of every transition into a
///   final, reversed; the states that survive the trim are exactly those
///   with an original path of length ≥ 1 to a final (a final with no
///   outgoing edges exists in the reversal only through the fresh
///   initial's copies).
/// - The canonical numbering is computed directly on `dfa`:
///   `canonicalize_mrd`'s backward BFS from the reversal's unique final
///   state over symbol-sorted incoming transitions *is* a forward BFS over
///   `dfa` from its initial state over symbol-sorted rows (the reversal
///   flips every edge), with the reversal's fresh initial pinned to 0 and
///   its final — the image of `dfa`'s initial — numbered 1. The fresh
///   initial also shows up as a BFS source (once per edge into a `dfa`
///   final) but its number is already pinned, so it never disturbs the
///   discovery order.
///
/// Every trimmed state is discovered: a kept state lies on a path
/// initial → q → final whose prefix states are all kept (each has a ≥
/// 1-edge path to a final through q), so the forward BFS reaches q through
/// kept states. The defensive check below bails to the general path rather
/// than rely on that argument at runtime.
fn reverse_trim_canonical(dfa: &Dfa) -> Option<Nfa> {
    if dfa.finals().is_empty() || dfa.is_final(dfa.initial()) {
        return None;
    }
    let n = dfa.state_count();
    // Keep set: states with a ≥ 1-edge path to a final (backward closure
    // over predecessor edges, seeded from the finals' predecessors). In a
    // trim DFA this is every non-final state plus any final that reaches a
    // final again.
    let mut pred_off: Vec<u32> = vec![0; n + 1];
    for (_, _, t) in dfa.transitions() {
        pred_off[t.index() + 1] += 1;
    }
    for i in 0..n {
        pred_off[i + 1] += pred_off[i];
    }
    let mut preds: Vec<StateId> = vec![StateId(0); *pred_off.last().unwrap() as usize];
    let mut pred_cur = pred_off.clone();
    for (f, _, t) in dfa.transitions() {
        let at = &mut pred_cur[t.index()];
        preds[*at as usize] = f;
        *at += 1;
    }
    let pred_row =
        |q: StateId| &preds[pred_off[q.index()] as usize..pred_off[q.index() + 1] as usize];
    let mut keep = vec![false; n];
    let mut work: Vec<StateId> = Vec::new();
    for &f in dfa.finals() {
        for &q in pred_row(f) {
            if !keep[q.index()] {
                keep[q.index()] = true;
                work.push(q);
            }
        }
    }
    while let Some(q) = work.pop() {
        for &p in pred_row(q) {
            if !keep[p.index()] {
                keep[p.index()] = true;
                work.push(p);
            }
        }
    }
    if !keep[dfa.initial().index()] {
        // No edge into a final is reachable through the initial state —
        // possible only for shapes the checks above should have excluded;
        // bail to the general path rather than reason about it.
        return None;
    }
    // Canonical ids, indexed by `dfa` state (the reversal's fresh initial
    // is 0 and never appears here): breadth-first from `dfa`'s initial
    // (the reversal's final, number 1), following symbol-sorted rows into
    // kept states.
    const UNASSIGNED: u32 = u32::MAX;
    let mut canon: Vec<u32> = vec![UNASSIGNED; n];
    canon[dfa.initial().index()] = 1;
    let mut next = 1u32;
    let mut queue = VecDeque::new();
    queue.push_back(dfa.initial());
    let mut kept_edges = 0usize;
    while let Some(f) = queue.pop_front() {
        for &(_, t) in dfa.transitions_from(f) {
            kept_edges += 1 + usize::from(dfa.is_final(t));
            if keep[t.index()] && canon[t.index()] == UNASSIGNED {
                next += 1;
                canon[t.index()] = next;
                queue.push_back(t);
            }
        }
    }
    if keep.iter().zip(&canon).any(|(&k, &c)| k && c == UNASSIGNED) {
        // A kept state the forward BFS cannot reach — possible only for
        // shapes the checks above should have excluded; bail to the
        // general path rather than reason about it.
        return None;
    }
    // Emit the reversed transitions under the canonical numbering, sorted —
    // exactly the presentation `canonicalize_mrd` produces.
    let mut ts: Vec<(u32, Symbol, u32)> = Vec::with_capacity(kept_edges);
    for (f, s, t) in dfa.transitions() {
        if !keep[f.index()] {
            continue; // a final that never reaches another accepting path
        }
        if keep[t.index()] {
            ts.push((canon[t.index()], s, canon[f.index()]));
        }
        if dfa.is_final(t) {
            ts.push((0, s, canon[f.index()]));
        }
    }
    ts.sort_unstable();
    let mut out = Nfa::new();
    for _ in 1..=next {
        out.add_state();
    }
    for (f, s, t) in ts {
        out.add_transition(StateId(f), Some(s), StateId(t));
    }
    out.set_final(StateId(1));
    Some(out)
}

/// An automaton stored as its incoming edges in compressed-sparse-row form:
/// the presentation the fused `determinize(reverse(A1))` reads, since a
/// state's successors in the reversal are its predecessors here. State 0
/// is the initial state.
///
/// The query pipeline builds every query's `A1` straight into one of these
/// (`specslice_pds::saturate_a1_with_stats`), reusing its buffers from one
/// query to the next; [`TransposedNfa::from_nfa`] converts any [`Nfa`].
#[derive(Clone, Debug, Default)]
pub struct TransposedNfa {
    /// `inc[inc_off[q]..inc_off[q + 1]]` are the labeled edges into `q`,
    /// as `(symbol, source)`.
    inc_off: Vec<u32>,
    inc: Vec<(Symbol, StateId)>,
    /// `eps_inc[eps_off[q]..eps_off[q + 1]]` are the sources of the
    /// ε-edges into `q` — the ε-successors of `q` in the reversal.
    eps_off: Vec<u32>,
    eps_inc: Vec<u32>,
    /// Accepting states, sorted and duplicate-free.
    finals: Vec<u32>,
}

impl TransposedNfa {
    /// The transposed form of `a`: same states, same edges, same finals.
    pub fn from_nfa(a: &Nfa) -> TransposedNfa {
        let mut t = TransposedNfa::default();
        t.rebuild(a.state_count(), a.finals().iter().copied(), || {
            a.transitions()
        });
        t
    }

    /// Replaces the contents with the automaton over states
    /// `0..n_states` whose accepting states are `finals` and whose edges
    /// are the ones `edges()` yields, each once. `edges` is called twice —
    /// a count pass, then a fill pass — and must yield the same edges both
    /// times. The buffers are reused, so a warm value rebuilds without
    /// allocating.
    pub fn rebuild<I>(
        &mut self,
        n_states: usize,
        finals: impl IntoIterator<Item = StateId>,
        edges: impl Fn() -> I,
    ) where
        I: Iterator<Item = (StateId, Option<Symbol>, StateId)>,
    {
        // Count pass, inclusive prefix sums (`off[q]` = end of row `q`),
        // then a fill pass that decrements each row's end down to its
        // start — no cursor array needed.
        for off in [&mut self.inc_off, &mut self.eps_off] {
            off.clear();
            off.resize(n_states + 1, 0);
        }
        let (inc_off, eps_off) = (&mut self.inc_off, &mut self.eps_off);
        for (_, l, t) in edges() {
            match l {
                Some(_) => inc_off[t.index()] += 1,
                None => eps_off[t.index()] += 1,
            }
        }
        for i in 1..=n_states {
            inc_off[i] += inc_off[i - 1];
            eps_off[i] += eps_off[i - 1];
        }
        self.inc.clear();
        self.inc
            .resize(inc_off[n_states] as usize, (Symbol(0), StateId(0)));
        self.eps_inc.clear();
        self.eps_inc.resize(eps_off[n_states] as usize, 0);
        for (f, l, t) in edges() {
            match l {
                Some(s) => {
                    inc_off[t.index()] -= 1;
                    self.inc[inc_off[t.index()] as usize] = (s, f);
                }
                None => {
                    eps_off[t.index()] -= 1;
                    self.eps_inc[eps_off[t.index()] as usize] = f.0;
                }
            }
        }
        self.finals.clear();
        self.finals.extend(finals.into_iter().map(|q| q.0));
        self.finals.sort_unstable();
        self.finals.dedup();
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.inc_off.len().saturating_sub(1)
    }

    /// The same automaton in forward form: same states, edges and finals.
    pub fn to_nfa(&self) -> Nfa {
        let n = self.state_count();
        let mut out = vec![Vec::new(); n];
        for q in 0..n {
            let to = StateId(q as u32);
            let inc = &self.inc[self.inc_off[q] as usize..self.inc_off[q + 1] as usize];
            for &(s, from) in inc {
                out[from.index()].push((Some(s), to));
            }
            let eps = &self.eps_inc[self.eps_off[q] as usize..self.eps_off[q + 1] as usize];
            for &from in eps {
                out[from as usize].push((None, to));
            }
        }
        let finals = self.finals.iter().map(|&q| StateId(q)).collect();
        Nfa::from_unique_rows(out, finals)
    }

    /// Number of transitions (including ε).
    pub fn transition_count(&self) -> usize {
        self.inc.len() + self.eps_inc.len()
    }

    /// Retained capacity in bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.inc_off.capacity()
            + self.eps_off.capacity()
            + self.eps_inc.capacity()
            + self.finals.capacity())
            * 4
            + self.inc.capacity() * std::mem::size_of::<(Symbol, StateId)>()
    }
}

/// `Dfa::determinize(&reverse(a1))` in one pass: the subset construction
/// runs directly over `a1`'s transposed adjacency, so the reversed NFA is
/// never materialized. The reversal's ε-transitions come from two sources,
/// both handled in place: the ε-bridge from its fresh initial to `a1`'s
/// finals (folded into the start subset), and `a1`'s own ε-transitions,
/// flipped (closed over `eps_inc` exactly where `determinize` would close
/// over the reversed NFA — so forward-oriented inputs such as `post*`
/// results, which always carry ε, take the fused path too).
///
/// Bit-identical to the unfused sequence: subsets correspond 1:1 (original
/// state ids here, shifted ids there, with a sentinel standing in for the
/// reversal's fresh initial — which only ever appears in the start subset,
/// contributes no labeled successors, and is never accepting), successor
/// pairs sort identically either way (the shift is monotone), ε-closures
/// add the same members (the reversal never gains an ε *into* its fresh
/// initial, so the sentinel stays confined to the start subset), and the
/// worklist is driven the same — so even the output's state numbering
/// matches. Nothing depends on the order of the edges within a row.
fn determinize_reversed(a1: &TransposedNfa) -> Dfa {
    let n = a1.state_count();
    let TransposedNfa {
        inc_off,
        inc,
        eps_off,
        eps_inc,
        finals,
    } = a1;
    const SENTINEL: u32 = u32::MAX;
    let mut mark = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    // ε-closes `set` (sorted, duplicate-free, sentinel-free) in place over
    // the reversal's ε-edges, keeping it sorted and duplicate-free; `mark`
    // and `stack` are scratch (`mark` false on entry/exit, `stack` empty) —
    // mirrors `Dfa::determinize`'s closure step by step so membership and
    // order come out identical.
    let close = |set: &mut Vec<u32>, mark: &mut Vec<bool>, stack: &mut Vec<u32>| {
        stack.clear();
        stack.extend_from_slice(set);
        for &q in set.iter() {
            mark[q as usize] = true;
        }
        while let Some(q) = stack.pop() {
            let (lo, hi) = (
                eps_off[q as usize] as usize,
                eps_off[q as usize + 1] as usize,
            );
            for &t in &eps_inc[lo..hi] {
                if !mark[t as usize] {
                    mark[t as usize] = true;
                    set.push(t);
                    stack.push(t);
                }
            }
        }
        set.sort_unstable();
        for &q in set.iter() {
            mark[q as usize] = false;
        }
    };
    let mut dfa = Dfa::new();
    let initial = 0;
    // Start subset = ε-closure of the reversal's fresh initial: the finals
    // (via the ε-bridge), their closure over flipped ε-edges, and the fresh
    // initial itself. Subsets are sorted dense id vectors; `close` sorts
    // and the sentinel sorts last, so the start subset is sorted too.
    //
    // Discovered subsets live contiguously in `pool` (the worklist holds
    // `(start, end, id)` spans into it); the interning map clones each
    // distinct subset exactly once, at its final size. A reused `targets`
    // buffer stands in for the per-symbol-group temporary, so the subset
    // construction's steady state allocates only on genuinely new subsets.
    let mut targets: Vec<u32> = finals.clone();
    close(&mut targets, &mut mark, &mut stack);
    targets.push(SENTINEL);
    let mut subset_ids: FxHashMap<Vec<u32>, StateId> = FxHashMap::default();
    subset_ids.insert(targets.clone(), dfa.initial());
    if targets.contains(&initial) {
        dfa.set_final(dfa.initial());
    }
    let mut pool: Vec<u32> = Vec::new();
    pool.extend_from_slice(&targets);
    let mut work: Vec<(u32, u32, StateId)> = vec![(0, pool.len() as u32, dfa.initial())];
    let mut pairs: Vec<(Symbol, StateId)> = Vec::new();
    while let Some((lo, hi, did)) = work.pop() {
        // Flatten all reversed successors, then group by symbol — exactly
        // `determinize`'s one-sort grouping.
        pairs.clear();
        for at in lo..hi {
            let q = pool[at as usize];
            if q != SENTINEL {
                let (s, e) = (
                    inc_off[q as usize] as usize,
                    inc_off[q as usize + 1] as usize,
                );
                pairs.extend_from_slice(&inc[s..e]);
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut i = 0;
        while i < pairs.len() {
            let sym = pairs[i].0;
            targets.clear();
            while i < pairs.len() && pairs[i].0 == sym {
                targets.push(pairs[i].1 .0);
                i += 1;
            }
            // `pairs` is sorted and deduplicated, so `targets` is too;
            // ε-closure keeps it that way.
            close(&mut targets, &mut mark, &mut stack);
            let target_id = match subset_ids.get(targets.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = dfa.add_state();
                    if targets.contains(&initial) {
                        dfa.set_final(id);
                    }
                    subset_ids.insert(targets.clone(), id);
                    let start = pool.len() as u32;
                    pool.extend_from_slice(&targets);
                    work.push((start, pool.len() as u32, id));
                    id
                }
            };
            dfa.set_transition(did, sym, target_id);
        }
    }
    dfa
}

/// Size observations made during the MRD pipeline (used by the `det-shrink`
/// experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MrdStats {
    /// States of the input automaton `A1`.
    pub input_states: usize,
    /// States after `determinize(reverse(A1))` (`A3`).
    pub determinized_states: usize,
    /// States after minimization (`A4`).
    pub minimized_states: usize,
    /// States of the final MRD automaton (`A6`).
    pub mrd_states: usize,
    /// Transitions of the final MRD automaton.
    pub mrd_transitions: usize,
}

impl MrdStats {
    /// Fractional shrink achieved by minimization relative to the
    /// determinized automaton (the paper reports 4.4%–34%).
    pub fn minimize_shrink(&self) -> f64 {
        if self.determinized_states == 0 {
            return 0.0;
        }
        1.0 - self.minimized_states as f64 / self.determinized_states as f64
    }
}

/// Renumbers a trim, ε-free, reverse-deterministic automaton into a
/// presentation-independent canonical form.
///
/// Reverse determinism makes the automaton a partial DFA when read backwards
/// from its unique final state, so a backward BFS that explores incoming
/// transitions in symbol order visits states in an order determined by the
/// *language* alone. States are renumbered in that order (the initial state
/// keeps number 0, as [`Nfa`] requires) and transitions are re-inserted
/// sorted, so two automata accepting the same language — however they were
/// produced — canonicalize to identical values.
///
/// Inputs that do not satisfy the preconditions (no unique final state,
/// ε-transitions, or states a backward search cannot reach) are returned
/// unchanged: canonicalization is an optimization of *presentation*, never a
/// change of language.
pub fn canonicalize_mrd(a: &Nfa) -> Nfa {
    let [final_state] = a.finals().iter().copied().collect::<Vec<_>>()[..] else {
        return a.clone();
    };
    let n = a.state_count();
    // Incoming transitions per state, sorted by (symbol, source) — the
    // source component never decides anything when the automaton is truly
    // reverse-deterministic, but keeps the traversal total otherwise.
    let mut inc: Vec<Vec<(Symbol, StateId)>> = vec![Vec::new(); n];
    for (from, label, to) in a.transitions() {
        let Some(sym) = label else {
            return a.clone();
        };
        inc[to.index()].push((sym, from));
    }
    for v in &mut inc {
        v.sort_unstable();
    }

    let mut newid: Vec<Option<u32>> = vec![None; n];
    let mut next = 0u32;
    let assign = |state: StateId, newid: &mut Vec<Option<u32>>, next: &mut u32| {
        if newid[state.index()].is_none() {
            // The initial state is pinned to 0; everything else gets the
            // next backward-BFS discovery number.
            let id = if state == a.initial() {
                0
            } else {
                *next += 1;
                *next
            };
            newid[state.index()] = Some(id);
            true
        } else {
            false
        }
    };
    assign(a.initial(), &mut newid, &mut next);
    let mut queue = VecDeque::new();
    if final_state != a.initial() {
        assign(final_state, &mut newid, &mut next);
    }
    queue.push_back(final_state);
    let mut visited = vec![false; n];
    visited[final_state.index()] = true;
    while let Some(t) = queue.pop_front() {
        for &(_, from) in &inc[t.index()] {
            assign(from, &mut newid, &mut next);
            if !visited[from.index()] {
                visited[from.index()] = true;
                queue.push_back(from);
            }
        }
    }
    if newid.iter().any(Option::is_none) {
        return a.clone(); // not trim: keep the input presentation
    }

    let mut out = Nfa::new();
    for _ in 1..n {
        out.add_state();
    }
    let mut ts: Vec<(u32, Symbol, u32)> = a
        .transitions()
        .map(|(f, l, t)| {
            (
                newid[f.index()].expect("assigned"),
                l.expect("ε-free checked above"),
                newid[t.index()].expect("assigned"),
            )
        })
        .collect();
    ts.sort_unstable();
    for (f, s, t) in ts {
        out.add_transition(StateId(f), Some(s), StateId(t));
    }
    out.set_final(StateId(newid[final_state.index()].expect("assigned")));
    out
}

/// Checks reverse determinism: read backwards from a unique final state, the
/// automaton is deterministic — i.e. there is exactly one final state, and no
/// two transitions with the same label enter the same state.
pub fn is_reverse_deterministic(nfa: &Nfa) -> bool {
    if nfa.finals().len() != 1 {
        return false;
    }
    let mut seen: FxHashMap<(StateId, Option<crate::Symbol>), StateId> = FxHashMap::default();
    for (from, l, to) in nfa.transitions() {
        if l.is_none() {
            return false; // ε would make backward reading nondeterministic
        }
        if let Some(&prev) = seen.get(&(to, l)) {
            if prev != from {
                return false;
            }
        }
        seen.insert((to, l), from);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::equivalent;
    use crate::Symbol;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// A deliberately redundant NFA for
    /// L = { v C1, v C3, w C2 } ∪ { u } — the shape of Fig. 10(a): vertex
    /// symbol then call-string.
    fn fig10_like() -> Nfa {
        let v = sym(0);
        let w = sym(1);
        let u = sym(2);
        let (c1, c2, c3) = (sym(10), sym(11), sym(12));
        let mut n = Nfa::new();
        let q0 = n.initial();
        // duplicate paths on purpose
        let a1 = n.add_state();
        let a2 = n.add_state();
        let b = n.add_state();
        let f = n.add_state();
        n.add_transition(q0, Some(v), a1);
        n.add_transition(q0, Some(v), a2);
        n.add_transition(q0, Some(w), b);
        n.add_transition(q0, Some(u), f);
        n.add_transition(a1, Some(c1), f);
        n.add_transition(a2, Some(c3), f);
        n.add_transition(b, Some(c2), f);
        n.set_final(f);
        n
    }

    /// The forward form of a transposed automaton is the automaton it was
    /// built from: same states, finals and edges (ε included).
    #[test]
    fn transposed_round_trips_to_nfa() {
        let mut n = fig10_like();
        let extra = n.add_state();
        n.add_transition(n.initial(), None, extra);
        n.add_transition(extra, Some(sym(3)), extra);
        n.set_final(extra);
        let back = TransposedNfa::from_nfa(&n).to_nfa();
        assert_eq!(back.state_count(), n.state_count());
        assert_eq!(back.transition_count(), n.transition_count());
        assert_eq!(back.finals(), n.finals());
        let sorted = |a: &Nfa| {
            let mut t: Vec<_> = a.transitions().collect();
            t.sort_unstable();
            t
        };
        assert_eq!(sorted(&back), sorted(&n));
        assert!(equivalent(&back, &n));
    }

    #[test]
    fn mrd_preserves_language() {
        let n = fig10_like();
        let m = mrd(&n);
        assert!(equivalent(&n, &m), "language changed by MRD pipeline");
    }

    #[test]
    fn mrd_is_reverse_deterministic() {
        let m = mrd(&fig10_like());
        assert!(is_reverse_deterministic(&m));
    }

    #[test]
    fn mrd_merges_same_context_vertices() {
        // v C1 and v C3 share the suffix languages {C1, C3}; the MRD
        // automaton routes both through one intermediate state (the
        // "specialized procedure" state of the paper).
        let m = mrd(&fig10_like());
        // states: initial, final, state for {C1,C3}-contexts, state for {C2}.
        assert_eq!(m.state_count(), 4);
    }

    #[test]
    fn mrd_idempotent_language_and_size() {
        let m1 = mrd(&fig10_like());
        let m2 = mrd(&m1);
        assert!(equivalent(&m1, &m2));
        assert_eq!(m1.state_count(), m2.state_count());
    }

    #[test]
    fn mrd_on_infinite_language() {
        // L = r (CC)* C  ∪  m — recursion-shaped context language.
        let r = sym(0);
        let m_ = sym(1);
        let c = sym(10);
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let f = n.add_state();
        n.add_transition(q0, Some(r), q1);
        n.add_transition(q1, Some(c), q2);
        n.add_transition(q2, Some(c), q1);
        n.add_transition(q2, None, f);
        n.add_transition(q0, Some(m_), f);
        n.set_final(f);
        let out = mrd(&n);
        assert!(is_reverse_deterministic(&out));
        assert!(out.accepts(&[r, c]));
        assert!(out.accepts(&[r, c, c, c]));
        assert!(!out.accepts(&[r, c, c]));
        assert!(out.accepts(&[m_]));
        assert!(equivalent(&n, &out));
    }

    /// The fused subset construction must match the unfused oracle bit for
    /// bit: same state numbering, same finals, same transition list.
    fn assert_fused_matches_oracle(a1: &Nfa) {
        let fused = determinize_reversed(&TransposedNfa::from_nfa(a1));
        let oracle = Dfa::determinize(&reverse(a1));
        assert_eq!(fused.state_count(), oracle.state_count(), "state count");
        assert_eq!(fused.initial(), oracle.initial(), "initial");
        assert_eq!(fused.finals(), oracle.finals(), "finals");
        let tf: Vec<_> = fused.transitions().collect();
        let to: Vec<_> = oracle.transitions().collect();
        assert_eq!(tf, to, "transitions");
    }

    #[test]
    fn fused_determinize_matches_oracle_epsilon_free() {
        assert_fused_matches_oracle(&fig10_like());
    }

    #[test]
    fn fused_determinize_matches_oracle_epsilon_into_final() {
        // The `mrd_on_infinite_language` fixture: an ε-edge into the final
        // state, plus a labeled cycle — the shape pop rules give `post*`
        // output.
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let f = n.add_state();
        n.add_transition(n.initial(), Some(sym(0)), q1);
        n.add_transition(q1, Some(sym(10)), q2);
        n.add_transition(q2, Some(sym(10)), q1);
        n.add_transition(q2, None, f);
        n.add_transition(n.initial(), Some(sym(1)), f);
        n.set_final(f);
        assert_fused_matches_oracle(&n);
    }

    #[test]
    fn fused_determinize_matches_oracle_epsilon_chains_and_cycles() {
        // ε from the initial state, an ε-chain, an ε-cycle, and several ε
        // edges converging on one state — every ε shape the closure must
        // walk.
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let q3 = n.add_state();
        let q4 = n.add_state();
        let f = n.add_state();
        n.add_transition(n.initial(), None, q1);
        n.add_transition(q1, None, q2);
        n.add_transition(q2, Some(sym(3)), q3);
        n.add_transition(q3, None, q4);
        n.add_transition(q4, None, q3);
        n.add_transition(q1, None, q4);
        n.add_transition(q4, Some(sym(4)), f);
        n.add_transition(q2, Some(sym(4)), f);
        n.set_final(f);
        assert_fused_matches_oracle(&n);
    }

    #[test]
    fn fused_determinize_matches_oracle_multiple_finals_with_epsilon() {
        // Two finals, one reachable from the other by ε — exercises the
        // start-subset closure (the reversal's ε-bridge composed with a1's
        // own flipped ε-edges).
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let f1 = n.add_state();
        let f2 = n.add_state();
        n.add_transition(n.initial(), Some(sym(0)), q1);
        n.add_transition(q1, Some(sym(1)), f1);
        n.add_transition(q1, None, f2);
        n.add_transition(f2, Some(sym(2)), f1);
        n.set_final(f1);
        n.set_final(f2);
        assert_fused_matches_oracle(&n);
    }

    #[test]
    fn mrd_on_epsilon_bearing_input_is_canonical() {
        // An ε-bearing presentation and an ε-free presentation of the same
        // language must canonicalize to identical MRD automata — the
        // property the forward pipeline (whose A1 always carries ε) relies
        // on for memo byte-equality.
        let (a, b, c) = (sym(0), sym(1), sym(2));
        let mut with_eps = Nfa::new();
        let q1 = with_eps.add_state();
        let q2 = with_eps.add_state();
        let f = with_eps.add_state();
        with_eps.add_transition(with_eps.initial(), Some(a), q1);
        with_eps.add_transition(q1, None, q2);
        with_eps.add_transition(q2, Some(b), f);
        with_eps.add_transition(q1, Some(c), f);
        with_eps.set_final(f);
        let mut plain = Nfa::new();
        let p1 = plain.add_state();
        let pf = plain.add_state();
        plain.add_transition(plain.initial(), Some(a), p1);
        plain.add_transition(p1, Some(b), pf);
        plain.add_transition(p1, Some(c), pf);
        plain.set_final(pf);
        let m1 = mrd(&with_eps);
        let m2 = mrd(&plain);
        assert!(equivalent(&with_eps, &m1));
        assert!(is_reverse_deterministic(&m1));
        assert_eq!(format!("{m1:?}"), format!("{m2:?}"));
    }

    #[test]
    fn stats_report_shrink() {
        let (_, stats) = mrd_with_stats(&fig10_like());
        assert!(stats.minimized_states <= stats.determinized_states);
        assert!(stats.minimize_shrink() >= 0.0);
    }

    #[test]
    fn canonicalize_is_presentation_independent() {
        // Build the same language twice with different state numberings and
        // insertion orders; after canonicalization both must render
        // identically (Debug output is deterministic by construction).
        let m1 = mrd(&fig10_like());
        // A shuffled presentation: same language, permuted construction.
        let v = sym(0);
        let w = sym(1);
        let u = sym(2);
        let (c1, c2, c3) = (sym(10), sym(11), sym(12));
        let mut n = Nfa::new();
        let q0 = n.initial();
        let f = n.add_state();
        let b = n.add_state();
        let a = n.add_state();
        n.set_final(f);
        n.add_transition(b, Some(c2), f);
        n.add_transition(q0, Some(u), f);
        n.add_transition(a, Some(c3), f);
        n.add_transition(q0, Some(w), b);
        n.add_transition(a, Some(c1), f);
        n.add_transition(q0, Some(v), a);
        let m2 = mrd(&n);
        assert!(equivalent(&m1, &m2));
        assert_eq!(format!("{m1:?}"), format!("{m2:?}"));
    }

    #[test]
    fn canonicalize_after_symbol_remap_matches_direct_pipeline() {
        // remap-then-canonicalize equals building with the target symbols
        // from scratch — the property `specslice`'s slice memo relies on.
        let base = fig10_like();
        let shift = |s: Symbol| Some(Symbol(s.0 + 5));
        let remapped = mrd(&base).remap_symbols(shift).unwrap();
        let direct = mrd(&base.remap_symbols(shift).unwrap());
        let recanon = canonicalize_mrd(&remapped);
        assert_eq!(format!("{recanon:?}"), format!("{direct:?}"));
    }

    #[test]
    fn canonicalize_preserves_degenerate_inputs() {
        // Empty language: no final state — returned unchanged.
        let empty = Nfa::new();
        assert_eq!(
            format!("{:?}", canonicalize_mrd(&empty)),
            format!("{empty:?}")
        );
    }

    #[test]
    fn reverse_determinism_detector() {
        let mut n = Nfa::new();
        let q1 = n.add_state();
        let q2 = n.add_state();
        let f = n.add_state();
        n.add_transition(n.initial(), Some(sym(0)), q1);
        n.add_transition(n.initial(), Some(sym(0)), q2);
        n.add_transition(q1, Some(sym(1)), f);
        n.add_transition(q2, Some(sym(1)), f);
        n.set_final(f);
        // two 1-labeled transitions enter f from different states
        assert!(!is_reverse_deterministic(&n));
    }
}
