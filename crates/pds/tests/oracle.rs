//! An independent reference for saturation: textbook `pre*` and `post*`
//! (Esparza et al. 2000; Schwoon 2002) as naive fixpoints over a
//! `BTreeSet` of transitions, with no rule index, no scratch and no
//! worklist. The production `A1` — built by the worklist engine straight
//! from its rows, each run both over the whole relation and over its
//! direction's frozen base (`pre*` of the empty query, or the `post*`
//! closure of every push's first hop) — must accept the same language as
//! the oracle's trimmed `A1`, on hand-built systems and on small seeded
//! random ones.

use specslice_fsa::mrd::mrd_of_transposed;
use specslice_fsa::{ops, Nfa, StateId, Symbol};
use specslice_pds::{
    saturate_a1_with_stats, ControlLoc, Direction, PAutomaton, Pds, Rhs, RuleIndex, SaturationBase,
    SaturationScratch,
};
use std::collections::{BTreeMap, BTreeSet};

/// A transition `(from, label, to)`; `None` is ε.
type Trans = (u32, Option<Symbol>, u32);

/// A saturated automaton: its states, transitions and finals.
struct Saturated {
    n_states: u32,
    rel: BTreeSet<Trans>,
    finals: BTreeSet<u32>,
}

fn of_query(query: &PAutomaton) -> Saturated {
    Saturated {
        n_states: query.state_count() as u32,
        rel: query.transitions().map(|(f, l, t)| (f.0, l, t.0)).collect(),
        finals: query.finals().iter().map(|s| s.0).collect(),
    }
}

/// The states reached from `from` by ε-moves.
fn eps_closure(rel: &BTreeSet<Trans>, from: BTreeSet<u32>) -> BTreeSet<u32> {
    let mut set = from;
    loop {
        let more: Vec<u32> = rel
            .iter()
            .filter(|&&(f, l, t)| l.is_none() && set.contains(&f) && !set.contains(&t))
            .map(|&(_, _, t)| t)
            .collect();
        if more.is_empty() {
            return set;
        }
        set.extend(more);
    }
}

/// The states reached from `from` by reading `word`, with ε-moves
/// allowed before, between and after the letters.
fn read(rel: &BTreeSet<Trans>, from: u32, word: &[Symbol]) -> BTreeSet<u32> {
    let mut cur = eps_closure(rel, BTreeSet::from([from]));
    for &g in word {
        let next = rel
            .iter()
            .filter(|&&(f, l, _)| l == Some(g) && cur.contains(&f))
            .map(|&(_, _, t)| t)
            .collect();
        cur = eps_closure(rel, next);
    }
    cur
}

/// `pre*`: whenever `⟨p, γ⟩ ↪ ⟨p', w⟩` and `p' –w→* q`, add `p –γ→ q`,
/// until nothing changes.
fn prestar(pds: &Pds, query: &PAutomaton) -> Saturated {
    let mut sat = of_query(query);
    loop {
        let mut new = Vec::new();
        for r in pds.rules() {
            let word = match r.rhs {
                Rhs::Pop => vec![],
                Rhs::Internal(g) => vec![g],
                Rhs::Push(g1, g2) => vec![g1, g2],
            };
            for q in read(&sat.rel, r.to_loc.0, &word) {
                let t = (r.from_loc.0, Some(r.from_sym), q);
                if !sat.rel.contains(&t) {
                    new.push(t);
                }
            }
        }
        if new.is_empty() {
            return sat;
        }
        sat.rel.extend(new);
    }
}

/// `post*`: one fresh state `q(p', γ')` per push-rule target pair; then,
/// whenever `⟨p, γ⟩ ↪ ⟨p', w⟩` and `p –γ→* q`, add `p' –ε→ q` (pop),
/// `p' –γ'→ q` (internal) or `p' –γ'→ q(p', γ') –γ''→ q` (push), until
/// nothing changes.
fn poststar(pds: &Pds, query: &PAutomaton) -> Saturated {
    let mut sat = of_query(query);
    let mut mid: BTreeMap<(u32, Symbol), u32> = BTreeMap::new();
    for r in pds.rules() {
        if let Rhs::Push(g1, _) = r.rhs {
            mid.entry((r.to_loc.0, g1)).or_insert_with(|| {
                sat.n_states += 1;
                sat.n_states - 1
            });
        }
    }
    loop {
        let mut new = Vec::new();
        for r in pds.rules() {
            let p2 = r.to_loc.0;
            for q in read(&sat.rel, r.from_loc.0, &[r.from_sym]) {
                match r.rhs {
                    Rhs::Pop => new.push((p2, None, q)),
                    Rhs::Internal(g) => new.push((p2, Some(g), q)),
                    Rhs::Push(g1, g2) => {
                        let m = mid[&(p2, g1)];
                        new.push((p2, Some(g1), m));
                        new.push((m, Some(g2), q));
                    }
                }
            }
        }
        new.retain(|t| !sat.rel.contains(t));
        if new.is_empty() {
            return sat;
        }
        sat.rel.extend(new);
    }
}

/// The language accepted from control state `p`, trimmed. State 0 copies
/// `p`'s edges and acceptance; every automaton state `s` is `s + 1`.
fn a1(sat: &Saturated, p: u32) -> Nfa {
    let mut nfa = Nfa::new();
    for _ in 0..sat.n_states {
        nfa.add_state();
    }
    for &(f, l, t) in &sat.rel {
        nfa.add_transition(StateId(f + 1), l, StateId(t + 1));
        if f == p {
            nfa.add_transition(StateId(0), l, StateId(t + 1));
        }
    }
    for &f in &sat.finals {
        nfa.set_final(StateId(f + 1));
        if f == p {
            nfa.set_final(StateId(0));
        }
    }
    nfa.trimmed().0
}

/// The frozen bases of one PDS, one per direction.
struct Bases {
    backward: SaturationBase,
    forward: SaturationBase,
}

impl Bases {
    fn of(pds: &Pds) -> Bases {
        let idx = RuleIndex::new(pds);
        Bases {
            backward: SaturationBase::backward(&idx),
            forward: SaturationBase::forward(&idx),
        }
    }
}

/// Checks the production `A1` against the oracle's for every control
/// location and both directions; each direction runs once over the whole
/// relation and once over its frozen base in `bases` (built over the same
/// PDS). For `pre*` the saturated relations themselves must have the
/// same size: both are the least fixpoint over the query's states.
/// (`post*`'s worklist engine adds ε-shortcut transitions the textbook
/// relation does not have, and its base holds closures the query never
/// triggers, so only the languages are compared with the oracle there;
/// the two forward runs must build `A1`s of the same size.) A query with
/// a transition into a control state is outside `post*`'s preconditions,
/// so only `pre*` is checked for it.
fn check(pds: &Pds, query: &PAutomaton, bases: &Bases, scratch: &mut SaturationScratch) {
    let idx = RuleIndex::new(pds);
    let into_control = query
        .transitions()
        .any(|(_, _, t)| query.is_control_state(t));
    let mut runs = vec![(Direction::Backward, prestar(pds, query))];
    if !into_control {
        runs.push((Direction::Forward, poststar(pds, query)));
    }
    for (dir, oracle) in runs {
        let base = match dir {
            Direction::Backward => &bases.backward,
            Direction::Forward => &bases.forward,
        };
        for p in 0..pds.control_count() {
            let want = a1(&oracle, p);
            let mut sizes = Vec::new();
            for over in [SaturationBase::empty(), base] {
                let (got, stats) =
                    saturate_a1_with_stats(dir, &idx, over, query, ControlLoc(p), scratch)
                        .expect("well-formed query");
                sizes.push((got.state_count(), got.transition_count()));
                // `A6` accepts exactly `A1`'s language.
                assert!(
                    ops::equivalent(&mrd_of_transposed(got).0, &want),
                    "{dir} A1 from p{p} (base: {} transitions) differs from the oracle's\n\
                     pds: {pds:?}\nquery: {query:?}",
                    over.transition_count()
                );
                if dir == Direction::Backward {
                    assert_eq!(stats.transitions, oracle.rel.len(), "{pds:?}\n{query:?}");
                }
            }
            assert_eq!(sizes[0], sizes[1], "{dir} A1 from p{p}\n{pds:?}\n{query:?}");
        }
    }
}

/// A query accepting `(p, word)` for each given pair, one fresh path per
/// word.
fn words_query(n_controls: u32, words: &[(u32, &[Symbol])]) -> PAutomaton {
    let mut query = PAutomaton::new(n_controls);
    for &(p, word) in words {
        let mut cur = query.control_state(ControlLoc(p));
        for &g in word {
            let next = query.add_state();
            query.add_transition(cur, Some(g), next);
            cur = next;
        }
        query.set_final(cur);
    }
    query
}

#[test]
fn hand_built_systems_match_the_oracle() {
    let (p, q) = (ControlLoc(0), ControlLoc(1));
    let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
    let mut scratch = SaturationScratch::default();
    let mut check_all = |pds: &Pds, queries: &[PAutomaton]| {
        let bases = Bases::of(pds);
        for query in queries {
            check(pds, query, &bases, &mut scratch);
        }
    };

    // The counter: ⟨p, a⟩ ↪ ⟨p, ε⟩, from (p, ε) and from (p, a).
    let mut counter = Pds::new(1);
    counter.add_pop(p, a, p);
    check_all(
        &counter,
        &[words_query(1, &[(0, &[])]), words_query(1, &[(0, &[a])])],
    );

    // Calls and returns: a call pushes a return site, a procedure body
    // steps, the exit pops back to the caller's control.
    let mut calls = Pds::new(2);
    calls.add_push(p, a, p, b, a);
    calls.add_internal(p, b, q, a);
    calls.add_pop(q, a, p);
    calls.add_internal(q, c, q, b);
    // A query edge into a control state: `(q, c a*)`, read through `p`.
    let mut into_p = words_query(2, &[(1, &[c])]);
    let pc = into_p.control_state(p);
    into_p.add_transition(into_p.control_state(q), Some(b), pc);
    into_p.add_transition(pc, Some(a), pc);
    into_p.set_final(pc);
    check_all(
        &calls,
        &[
            words_query(2, &[(0, &[a]), (1, &[c])]),
            words_query(2, &[(1, &[a, a])]),
            into_p,
        ],
    );

    // Recursion: ⟨p, a⟩ ↪ ⟨p, a a⟩ and ⟨p, a⟩ ↪ ⟨q, b⟩, ⟨q, b⟩ ↪ ⟨q, ε⟩,
    // ⟨q, a⟩ ↪ ⟨q, ε⟩ — unbounded stacks on both sides.
    let mut rec = Pds::new(2);
    rec.add_push(p, a, p, a, a);
    rec.add_internal(p, a, q, b);
    rec.add_pop(q, b, q);
    rec.add_pop(q, a, q);
    check_all(
        &rec,
        &[
            words_query(2, &[(0, &[a])]),
            words_query(2, &[(1, &[])]),
            words_query(2, &[(1, &[a, b]), (0, &[b])]),
        ],
    );
}

/// A small deterministic generator (xorshift64*), so the cases are fixed
/// by their seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as u32 % n
    }
}

/// A random PDS.
fn random_pds(rng: &mut Rng) -> (Pds, u32) {
    let n_controls = 1 + rng.below(3);
    let n_symbols = 1 + rng.below(4);
    let mut pds = Pds::new(n_controls);
    for _ in 0..rng.below(9) {
        let (from, to) = (
            ControlLoc(rng.below(n_controls)),
            ControlLoc(rng.below(n_controls)),
        );
        let gamma = Symbol(rng.below(n_symbols));
        match rng.below(3) {
            0 => pds.add_pop(from, gamma, to),
            1 => pds.add_internal(from, gamma, to, Symbol(rng.below(n_symbols))),
            _ => pds.add_push(
                from,
                gamma,
                to,
                Symbol(rng.below(n_symbols)),
                Symbol(rng.below(n_symbols)),
            ),
        }
    }
    (pds, n_symbols)
}

/// A random query over `n_controls` control states. Without
/// `into_control`, transitions never enter a control state, as `post*`
/// requires; with it, a target may be any state.
fn random_query(rng: &mut Rng, n_controls: u32, n_symbols: u32, into_control: bool) -> PAutomaton {
    let sym = |rng: &mut Rng| Symbol(rng.below(n_symbols));
    let mut query = PAutomaton::new(n_controls);
    let extra: Vec<_> = (0..1 + rng.below(3)).map(|_| query.add_state()).collect();
    let n_states = n_controls + extra.len() as u32;
    for _ in 0..1 + rng.below(5) {
        let from = specslice_pds::PState(rng.below(n_states));
        let to = if into_control && rng.below(2) == 0 {
            specslice_pds::PState(rng.below(n_states))
        } else {
            extra[rng.below(extra.len() as u32) as usize]
        };
        query.add_transition(from, Some(sym(rng)), to);
    }
    for &s in &extra {
        if rng.below(2) == 0 {
            query.set_final(s);
        }
    }
    if rng.below(4) == 0 {
        query.set_final(query.control_state(ControlLoc(rng.below(n_controls))));
    }
    query
}

/// 300 seeded PDSs, each with one frozen base per direction and one
/// scratch serving several queries — some with transitions into control
/// states, where the backward base saves little but the answer must still
/// be exact.
#[test]
fn random_systems_match_the_oracle() {
    let mut scratch = SaturationScratch::default();
    for seed in 1..=300u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
        let (pds, n_symbols) = random_pds(&mut rng);
        let bases = Bases::of(&pds);
        for i in 0..6 {
            let query = random_query(&mut rng, pds.control_count(), n_symbols, i >= 4);
            check(&pds, &query, &bases, &mut scratch);
        }
    }
}
