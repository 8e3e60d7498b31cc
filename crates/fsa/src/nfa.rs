//! Nondeterministic finite automata with ε-transitions.

use crate::hash::{FxHashMap, FxHashSet};
use crate::Symbol;
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Identifier of an automaton state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Dense index of the state.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Row length beyond which transition dedup switches from a linear scan of
/// the source state's row to a hashed triple set. The query pipeline builds
/// thousands of tiny automata (MRD chains run seven passes over automata
/// with a handful of states), and for those the hash set's growth-and-rehash
/// cost dwarfs the handful of comparisons a row scan needs; only automata
/// with genuinely wide rows (saturation outputs, the initial state of the
/// reachable-configuration automaton) ever pay for hashing.
const LINEAR_DEDUP_MAX: usize = 32;

/// A nondeterministic finite automaton with a single initial state,
/// optional ε-transitions (`label = None`), and any number of final states.
#[derive(Clone, Default)]
pub struct Nfa {
    n_states: u32,
    n_transitions: usize,
    finals: BTreeSet<StateId>,
    /// Outgoing transitions per state: `(label, target)`.
    out: Vec<Vec<(Option<Symbol>, StateId)>>,
    /// Deduplication of transitions (fast deterministic hasher). `None`
    /// while every row is short enough for an exact linear scan; built
    /// lazily from the rows the first time one crosses
    /// [`LINEAR_DEDUP_MAX`].
    seen: Option<FxHashSet<(StateId, Option<Symbol>, StateId)>>,
}

impl fmt::Debug for Nfa {
    /// Deterministic rendering: states, finals, and transitions in
    /// insertion order. The `seen` dedup set is omitted — it is backed by a
    /// randomly-seeded hasher, and printing it would make equal automata
    /// render differently across runs (clients fingerprint slices by their
    /// Debug output to check cross-thread determinism).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Nfa")
            .field("n_states", &self.n_states)
            .field("finals", &self.finals)
            .field("out", &self.out)
            .finish_non_exhaustive()
    }
}

impl Nfa {
    /// Creates an automaton with a single (initial) state `q0`.
    pub fn new() -> Nfa {
        let mut n = Nfa::default();
        n.add_state();
        n
    }

    /// The initial state (always state 0).
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// The automaton over states `0..out.len()` whose rows are `out` and
    /// whose accepting states are `finals`. The rows must hold no
    /// duplicate transitions; they are taken as they are, without the
    /// per-transition dedup [`Nfa::add_transition`] pays.
    pub(crate) fn from_unique_rows(
        out: Vec<Vec<(Option<Symbol>, StateId)>>,
        finals: BTreeSet<StateId>,
    ) -> Nfa {
        debug_assert!(out.iter().all(|row| {
            let mut r = row.clone();
            r.sort_unstable();
            r.windows(2).all(|w| w[0] != w[1])
        }));
        Nfa {
            n_states: out.len() as u32,
            n_transitions: out.iter().map(Vec::len).sum(),
            finals,
            out,
            seen: None,
        }
    }

    /// Adds a fresh state.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.n_states);
        self.n_states += 1;
        self.out.push(Vec::new());
        id
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.n_states as usize
    }

    /// Number of transitions (including ε).
    pub fn transition_count(&self) -> usize {
        self.n_transitions
    }

    /// Marks `q` as accepting.
    pub fn set_final(&mut self, q: StateId) {
        self.finals.insert(q);
    }

    /// The accepting states.
    pub fn finals(&self) -> &BTreeSet<StateId> {
        &self.finals
    }

    /// Whether `q` is accepting.
    pub fn is_final(&self, q: StateId) -> bool {
        self.finals.contains(&q)
    }

    /// Adds a transition; `label = None` is an ε-transition. Duplicate
    /// transitions are ignored. Returns `true` if the transition is new.
    pub fn add_transition(&mut self, from: StateId, label: Option<Symbol>, to: StateId) -> bool {
        assert!(from.index() < self.out.len(), "from-state out of range");
        assert!(to.index() < self.out.len(), "to-state out of range");
        let is_new = match &mut self.seen {
            Some(seen) => seen.insert((from, label, to)),
            None => {
                let row = &self.out[from.index()];
                if row.len() < LINEAR_DEDUP_MAX {
                    !row.iter().any(|&(l, t)| l == label && t == to)
                } else {
                    // A row outgrew the linear scan: hash every existing
                    // transition once and stay hashed from here on.
                    let mut seen = FxHashSet::default();
                    seen.reserve(self.n_transitions + 1);
                    seen.extend(self.transitions());
                    let is_new = seen.insert((from, label, to));
                    self.seen = Some(seen);
                    is_new
                }
            }
        };
        if is_new {
            self.out[from.index()].push((label, to));
            self.n_transitions += 1;
        }
        is_new
    }

    /// Approximate retained bytes: the transition rows, the finals, and
    /// the hashed dedup set once a wide row has built it. A pure function
    /// of the automaton's contents, so equal automata report equal sizes.
    pub fn approx_bytes(&self) -> usize {
        let edge = std::mem::size_of::<(Option<Symbol>, StateId)>();
        self.out.len() * std::mem::size_of::<Vec<(Option<Symbol>, StateId)>>()
            + self.n_transitions * edge
            + self.finals.len() * std::mem::size_of::<StateId>() * 2
            + self.seen.as_ref().map_or(0, |seen| {
                seen.len() * std::mem::size_of::<(StateId, Option<Symbol>, StateId)>() * 2
            })
    }

    /// Whether a given transition exists.
    pub fn has_transition(&self, from: StateId, label: Option<Symbol>, to: StateId) -> bool {
        match &self.seen {
            Some(seen) => seen.contains(&(from, label, to)),
            None => self.out[from.index()]
                .iter()
                .any(|&(l, t)| l == label && t == to),
        }
    }

    /// Outgoing transitions of `q`.
    pub fn transitions_from(&self, q: StateId) -> &[(Option<Symbol>, StateId)] {
        &self.out[q.index()]
    }

    /// Iterates over every transition `(from, label, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Option<Symbol>, StateId)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(i, ts)| ts.iter().map(move |&(l, t)| (StateId(i as u32), l, t)))
    }

    /// The set of symbols that occur on transitions.
    pub fn symbols(&self) -> BTreeSet<Symbol> {
        self.transitions().filter_map(|(_, l, _)| l).collect()
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, set: &BTreeSet<StateId>) -> BTreeSet<StateId> {
        let mut closure = set.clone();
        let mut work: Vec<StateId> = set.iter().copied().collect();
        while let Some(q) = work.pop() {
            for &(l, t) in self.transitions_from(q) {
                if l.is_none() && closure.insert(t) {
                    work.push(t);
                }
            }
        }
        closure
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut cur: BTreeSet<StateId> = BTreeSet::new();
        cur.insert(self.initial());
        cur = self.epsilon_closure(&cur);
        for &sym in word {
            let mut next = BTreeSet::new();
            for &q in &cur {
                for &(l, t) in self.transitions_from(q) {
                    if l == Some(sym) {
                        next.insert(t);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            cur = self.epsilon_closure(&next);
        }
        cur.iter().any(|q| self.is_final(q.to_owned()))
    }

    /// Whether the accepted language is empty.
    pub fn is_empty_language(&self) -> bool {
        // BFS from the initial state; empty iff no final state is reachable.
        let mut seen = vec![false; self.state_count()];
        let mut work = vec![self.initial()];
        seen[self.initial().index()] = true;
        while let Some(q) = work.pop() {
            if self.is_final(q) {
                return false;
            }
            for &(_, t) in self.transitions_from(q) {
                if !seen[t.index()] {
                    seen[t.index()] = true;
                    work.push(t);
                }
            }
        }
        true
    }

    /// Enumerates up to `limit` accepted words of length ≤ `max_len`,
    /// shortest first (deterministic order). Intended for tests.
    pub fn words(&self, max_len: usize, limit: usize) -> Vec<Vec<Symbol>> {
        let mut results = Vec::new();
        let mut queue: VecDeque<(BTreeSet<StateId>, Vec<Symbol>)> = VecDeque::new();
        let mut start = BTreeSet::new();
        start.insert(self.initial());
        start = self.epsilon_closure(&start);
        queue.push_back((start, Vec::new()));
        while let Some((states, word)) = queue.pop_front() {
            if results.len() >= limit {
                break;
            }
            if states.iter().any(|&q| self.is_final(q)) {
                results.push(word.clone());
            }
            if word.len() >= max_len {
                continue;
            }
            // Group successors by symbol, deterministically.
            let mut by_sym: std::collections::BTreeMap<Symbol, BTreeSet<StateId>> =
                Default::default();
            for &q in &states {
                for &(l, t) in self.transitions_from(q) {
                    if let Some(sym) = l {
                        by_sym.entry(sym).or_default().insert(t);
                    }
                }
            }
            for (sym, next) in by_sym {
                let closure = self.epsilon_closure(&next);
                let mut w = word.clone();
                w.push(sym);
                queue.push_back((closure, w));
            }
        }
        results
    }

    /// Rewrites every transition label through `map`, preserving the state
    /// structure (ε-transitions pass through unchanged). Returns `None` when
    /// `map` has no image for some symbol — the caller's mapping does not
    /// cover this automaton's alphabet, so no faithful relabeling exists.
    pub fn remap_symbols(&self, map: impl Fn(Symbol) -> Option<Symbol>) -> Option<Nfa> {
        let mut out = Nfa::new();
        for _ in 1..self.state_count() {
            out.add_state();
        }
        for (from, label, to) in self.transitions() {
            let label = match label {
                None => None,
                Some(s) => Some(map(s)?),
            };
            out.add_transition(from, label, to);
        }
        for &f in &self.finals {
            out.set_final(f);
        }
        Some(out)
    }

    /// Restricts the automaton to states both reachable from the initial
    /// state and co-reachable to a final state ("trim"). State ids are
    /// renumbered; the mapping old→new is returned alongside.
    pub fn trimmed(&self) -> (Nfa, FxHashMap<StateId, StateId>) {
        let n = self.state_count();
        let mut reach = vec![false; n];
        let mut work = vec![self.initial()];
        reach[self.initial().index()] = true;
        while let Some(q) = work.pop() {
            for &(_, t) in self.transitions_from(q) {
                if !reach[t.index()] {
                    reach[t.index()] = true;
                    work.push(t);
                }
            }
        }
        // Co-reachability over reversed transitions.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); n];
        for (f, _, t) in self.transitions() {
            rev[t.index()].push(f);
        }
        let mut coreach = vec![false; n];
        let mut work: Vec<StateId> = self.finals.iter().copied().collect();
        for &q in &self.finals {
            coreach[q.index()] = true;
        }
        while let Some(q) = work.pop() {
            for &p in &rev[q.index()] {
                if !coreach[p.index()] {
                    coreach[p.index()] = true;
                    work.push(p);
                }
            }
        }
        let keep = |q: StateId| reach[q.index()] && coreach[q.index()];

        let mut out = Nfa::new();
        let mut map: FxHashMap<StateId, StateId> = FxHashMap::default();
        map.insert(self.initial(), out.initial());
        // The initial state is always kept (it may be dead; then language is ∅).
        for q in (0..n as u32).map(StateId) {
            if q != self.initial() && keep(q) {
                map.insert(q, out.add_state());
            }
        }
        for (f, l, t) in self.transitions() {
            if (f == self.initial() || keep(f)) && keep(t) {
                if let (Some(&nf), Some(&nt)) = (map.get(&f), map.get(&t)) {
                    out.add_transition(nf, l, nt);
                }
            }
        }
        for &q in &self.finals {
            if let Some(&nq) = map.get(&q) {
                out.set_final(nq);
            }
        }
        (out, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    #[test]
    fn accepts_simple_word() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        n.add_transition(q0, Some(sym(7)), q1);
        n.set_final(q1);
        assert!(n.accepts(&[sym(7)]));
        assert!(!n.accepts(&[sym(8)]));
        assert!(!n.accepts(&[]));
    }

    #[test]
    fn epsilon_closure_chains() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        let q2 = n.add_state();
        n.add_transition(q0, None, q1);
        n.add_transition(q1, None, q2);
        n.set_final(q2);
        assert!(n.accepts(&[]));
    }

    #[test]
    fn duplicate_transitions_ignored() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        assert!(n.add_transition(q0, Some(sym(1)), q1));
        assert!(!n.add_transition(q0, Some(sym(1)), q1));
        assert_eq!(n.transition_count(), 1);
    }

    #[test]
    fn empty_language_detection() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        let dead = n.add_state();
        n.add_transition(q0, Some(sym(1)), dead);
        assert!(n.is_empty_language());
        n.add_transition(q0, Some(sym(2)), q1);
        n.set_final(q1);
        assert!(!n.is_empty_language());
    }

    #[test]
    fn word_enumeration_shortest_first() {
        // L = a b* over {a=1, b=2}
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        n.add_transition(q0, Some(sym(1)), q1);
        n.add_transition(q1, Some(sym(2)), q1);
        n.set_final(q1);
        let ws = n.words(3, 10);
        assert_eq!(
            ws,
            vec![
                vec![sym(1)],
                vec![sym(1), sym(2)],
                vec![sym(1), sym(2), sym(2)]
            ]
        );
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        let dead = n.add_state(); // reachable but not co-reachable
        let unreach = n.add_state(); // co-reachable but not reachable
        n.add_transition(q0, Some(sym(1)), q1);
        n.add_transition(q0, Some(sym(2)), dead);
        n.add_transition(unreach, Some(sym(3)), q1);
        n.set_final(q1);
        let (t, map) = n.trimmed();
        assert_eq!(t.state_count(), 2);
        assert!(t.accepts(&[sym(1)]));
        assert!(!t.accepts(&[sym(2)]));
        assert!(map.contains_key(&q1));
        assert!(!map.contains_key(&dead));
        assert!(!map.contains_key(&unreach));
    }

    #[test]
    fn symbols_collects_alphabet() {
        let mut n = Nfa::new();
        let q0 = n.initial();
        let q1 = n.add_state();
        n.add_transition(q0, Some(sym(5)), q1);
        n.add_transition(q0, None, q1);
        assert_eq!(n.symbols().into_iter().collect::<Vec<_>>(), vec![sym(5)]);
    }
}
