//! P-automata: finite automata whose initial states are PDS control
//! locations (Defn. 3.5 of the paper). They represent regular sets of
//! configurations `(p, w)`: the configuration is accepted when the automaton
//! accepts `w` starting from the state of `p`.

use crate::system::ControlLoc;
use specslice_fsa::{Nfa, Symbol};
use std::collections::BTreeSet;

/// A state of a [`PAutomaton`]. States `0..n_controls` coincide with PDS
/// control locations; further states are added by queries and saturation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PState(pub u32);

impl PState {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite automaton over stack symbols whose initial states are the PDS
/// control locations: the query automaton a saturation starts from.
/// ε-transitions (`None` labels) arise during `post*` saturation.
#[derive(Clone, Debug)]
pub struct PAutomaton {
    n_controls: u32,
    n_states: u32,
    n_transitions: usize,
    finals: BTreeSet<PState>,
    out: Vec<Vec<(Option<Symbol>, PState)>>,
}

impl PAutomaton {
    /// Creates an automaton whose first `n_controls` states are the control
    /// locations, with no transitions and no final states.
    pub fn new(n_controls: u32) -> PAutomaton {
        PAutomaton {
            n_controls,
            n_states: n_controls,
            n_transitions: 0,
            finals: BTreeSet::new(),
            out: vec![Vec::new(); n_controls as usize],
        }
    }

    /// The state corresponding to control location `p`.
    pub fn control_state(&self, p: ControlLoc) -> PState {
        assert!(p.0 < self.n_controls, "control location out of range");
        PState(p.0)
    }

    /// Whether `s` is a control-location state.
    pub fn is_control_state(&self, s: PState) -> bool {
        s.0 < self.n_controls
    }

    /// Number of control locations.
    pub fn control_count(&self) -> u32 {
        self.n_controls
    }

    /// Adds a fresh non-control state.
    pub fn add_state(&mut self) -> PState {
        let s = PState(self.n_states);
        self.n_states += 1;
        self.out.push(Vec::new());
        s
    }

    /// Total number of states.
    pub fn state_count(&self) -> usize {
        self.n_states as usize
    }

    /// Number of transitions.
    pub fn transition_count(&self) -> usize {
        self.n_transitions
    }

    /// Marks `s` as accepting.
    pub fn set_final(&mut self, s: PState) {
        self.finals.insert(s);
    }

    /// The accepting states.
    pub fn finals(&self) -> &BTreeSet<PState> {
        &self.finals
    }

    /// Adds a transition (deduplicated); `None` is ε. Returns `true` if new.
    ///
    /// Dedup scans the source state's row: a query's rows hold a handful
    /// of transitions, and a materialized saturation, whose rows are
    /// already unique, is built without it.
    pub fn add_transition(&mut self, from: PState, sym: Option<Symbol>, to: PState) -> bool {
        assert!(from.0 < self.n_states && to.0 < self.n_states);
        if self.out[from.index()].contains(&(sym, to)) {
            return false;
        }
        self.push_unique(from, sym, to);
        true
    }

    /// Appends a transition the caller knows is new.
    pub(crate) fn push_unique(&mut self, from: PState, sym: Option<Symbol>, to: PState) {
        debug_assert!(to.0 < self.n_states);
        self.out[from.index()].push((sym, to));
        self.n_transitions += 1;
    }

    /// Outgoing transitions of `s`.
    pub fn transitions_from(&self, s: PState) -> &[(Option<Symbol>, PState)] {
        &self.out[s.index()]
    }

    /// Iterates over all transitions.
    pub fn transitions(&self) -> impl Iterator<Item = (PState, Option<Symbol>, PState)> + '_ {
        self.out
            .iter()
            .enumerate()
            .flat_map(|(i, ts)| ts.iter().map(move |&(s, t)| (PState(i as u32), s, t)))
    }

    /// Whether configuration `(p, word)` is accepted.
    pub fn accepts(&self, p: ControlLoc, word: &[Symbol]) -> bool {
        let mut cur: BTreeSet<PState> = BTreeSet::new();
        cur.insert(self.control_state(p));
        cur = self.eps_closure(cur);
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
            cur = self.eps_closure(next);
        }
        cur.iter().any(|q| self.finals.contains(q))
    }

    fn eps_closure(&self, mut set: BTreeSet<PState>) -> BTreeSet<PState> {
        let mut work: Vec<PState> = set.iter().copied().collect();
        while let Some(q) = work.pop() {
            for &(l, t) in self.transitions_from(q) {
                if l.is_none() && set.insert(t) {
                    work.push(t);
                }
            }
        }
        set
    }

    /// Converts the stack language recognized *from control location `p`*
    /// into a plain [`Nfa`] (the `A1` fed into the MRD pipeline).
    ///
    /// State mapping: the state of `p` becomes the NFA's initial state 0;
    /// every other automaton state `s` becomes NFA state `s + 1` (shifted to
    /// make room).
    pub fn to_nfa(&self, p: ControlLoc) -> Nfa {
        let mut nfa = Nfa::new();
        // NFA state 0 = control p. All P-automaton states get shifted by 1;
        // p itself is duplicated onto 0 (transitions from p are copied).
        for _ in 0..self.n_states {
            nfa.add_state();
        }
        let shift = |s: PState| specslice_fsa::StateId(s.0 + 1);
        let pstate = self.control_state(p);
        for (from, sym, to) in self.transitions() {
            nfa.add_transition(shift(from), sym, shift(to));
            if from == pstate {
                nfa.add_transition(nfa.initial(), sym, shift(to));
            }
        }
        for &f in &self.finals {
            nfa.set_final(shift(f));
            if f == pstate {
                nfa.set_final(nfa.initial());
            }
        }
        nfa
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_configurations() {
        let p = ControlLoc(0);
        let (a, b) = (Symbol(0), Symbol(1));
        let mut aut = PAutomaton::new(1);
        let m = aut.add_state();
        aut.add_transition(aut.control_state(p), Some(a), m);
        aut.add_transition(m, Some(b), m);
        aut.set_final(m);
        assert!(aut.accepts(p, &[a]));
        assert!(aut.accepts(p, &[a, b, b]));
        assert!(!aut.accepts(p, &[b]));
        assert!(!aut.accepts(p, &[]));
    }

    #[test]
    fn epsilon_transitions_work() {
        let p = ControlLoc(0);
        let a = Symbol(0);
        let mut aut = PAutomaton::new(2);
        let q = ControlLoc(1);
        let f = aut.add_state();
        aut.add_transition(aut.control_state(p), None, aut.control_state(q));
        aut.add_transition(aut.control_state(q), Some(a), f);
        aut.set_final(f);
        assert!(aut.accepts(p, &[a]));
        assert!(aut.accepts(q, &[a]));
    }

    #[test]
    fn to_nfa_matches_acceptance() {
        let p = ControlLoc(0);
        let (a, b) = (Symbol(0), Symbol(1));
        let mut aut = PAutomaton::new(1);
        let m = aut.add_state();
        aut.add_transition(aut.control_state(p), Some(a), m);
        aut.add_transition(m, Some(b), m);
        aut.set_final(m);
        let nfa = aut.to_nfa(p);
        assert!(nfa.accepts(&[a]));
        assert!(nfa.accepts(&[a, b]));
        assert!(!nfa.accepts(&[b]));
    }

    #[test]
    fn to_nfa_with_final_control_state() {
        // Configuration (p, ε) accepted: control state itself is final.
        let p = ControlLoc(0);
        let mut aut = PAutomaton::new(1);
        aut.set_final(aut.control_state(p));
        assert!(aut.accepts(p, &[]));
        let nfa = aut.to_nfa(p);
        assert!(nfa.accepts(&[]));
    }

    #[test]
    fn duplicate_transitions_are_ignored() {
        let p = ControlLoc(0);
        let a = Symbol(0);
        let mut aut = PAutomaton::new(1);
        let m = aut.add_state();
        assert!(aut.add_transition(aut.control_state(p), Some(a), m));
        assert!(!aut.add_transition(aut.control_state(p), Some(a), m));
        assert_eq!(aut.transition_count(), 1);
    }
}
