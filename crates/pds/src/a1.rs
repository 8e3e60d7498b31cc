//! `A1` — the saturated language read from one control location, trimmed —
//! built straight from the saturation rows.
//!
//! The query pipeline's `A1` is `to_nfa(p).trimmed()` of the saturated
//! automaton, in the transposed form MRD's subset construction reads
//! ([`TransposedNfa`]). Building it from the engine's adjacency rows skips
//! both intermediate copies of the saturated relation (the [`PAutomaton`]
//! and the untrimmed [`specslice_fsa::Nfa`]): the walks below touch only
//! the states reachable from `p`, and only the edges between kept states
//! are written out.
//!
//! [`PAutomaton`]: crate::PAutomaton

use crate::arena::BumpLists;
use crate::automaton::PState;
use crate::scratch::decode_label;
use specslice_fsa::mrd::TransposedNfa;
use specslice_fsa::StateId;
use std::collections::BTreeSet;

const NONE: u32 = u32::MAX;

/// The `A1` builder's buffers, reset (not reallocated) between queries.
#[derive(Debug, Default)]
pub(crate) struct A1Scratch {
    /// Per automaton state: its position in `reached`, or `NONE`. Every
    /// entry is `NONE` between builds, so a build clears only what it set.
    slot: Vec<u32>,
    /// The states reachable from `p` in one or more steps, in discovery
    /// order.
    reached: Vec<u32>,
    /// Predecessors of each reached state among the reached rows, as
    /// positions in `reached` (CSR: `preds[pred_off[i]..pred_off[i + 1]]`).
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    /// Per position in `reached`: the kept state's `A1` id, or `NONE`.
    renum: Vec<u32>,
    /// The kept states, ascending.
    kept: Vec<u32>,
    /// Walk stack.
    stack: Vec<u32>,
    /// The result.
    a1: TransposedNfa,
}

impl A1Scratch {
    /// Builds `A1` for control state `p` of the saturated automaton whose
    /// transitions are `out`'s rows and whose accepting states are
    /// `finals`.
    ///
    /// The result is `to_nfa(p).trimmed().0` in transposed form, numbered
    /// the same way: state 0 is the copy of `p`, then the kept states in
    /// ascending order. `to_nfa`'s initial state is a copy of `p` that
    /// nothing enters, so a state is kept iff it lies at least one step
    /// beyond `p` and reaches a final.
    pub(crate) fn build(
        &mut self,
        out: &BumpLists<(u32, u32)>,
        finals: &BTreeSet<PState>,
        p: u32,
    ) -> &TransposedNfa {
        let A1Scratch {
            slot,
            reached,
            pred_off,
            preds,
            renum,
            kept,
            stack,
            a1,
        } = self;
        if slot.len() < out.n_lists() {
            slot.resize(out.n_lists(), NONE);
        }

        // Forward from `p`, which the walk starts at without marking.
        reached.clear();
        stack.clear();
        stack.push(p);
        while let Some(q) = stack.pop() {
            for (_, t) in out.iter(q) {
                if slot[t as usize] == NONE {
                    slot[t as usize] = reached.len() as u32;
                    reached.push(t);
                    stack.push(t);
                }
            }
        }

        // Reverse adjacency of the reached rows (a reached state's
        // successors are reached too): count, inclusive prefix sums, then
        // fill each row from its end down to its start.
        let n = reached.len();
        pred_off.clear();
        pred_off.resize(n + 1, 0);
        for &q in reached.iter() {
            for (_, t) in out.iter(q) {
                pred_off[slot[t as usize] as usize] += 1;
            }
        }
        for i in 1..=n {
            pred_off[i] += pred_off[i - 1];
        }
        preds.clear();
        preds.resize(pred_off[n] as usize, 0);
        for (i, &q) in reached.iter().enumerate() {
            for (_, t) in out.iter(q) {
                let at = &mut pred_off[slot[t as usize] as usize];
                *at -= 1;
                preds[*at as usize] = i as u32;
            }
        }

        // Backward from the reached finals; `renum` marks what is kept.
        renum.clear();
        renum.resize(n, NONE);
        stack.clear();
        for f in finals {
            let i = slot[f.index()];
            if i != NONE && renum[i as usize] == NONE {
                renum[i as usize] = 0;
                stack.push(i);
            }
        }
        while let Some(i) = stack.pop() {
            let row = &preds[pred_off[i as usize] as usize..pred_off[i as usize + 1] as usize];
            for &j in row {
                if renum[j as usize] == NONE {
                    renum[j as usize] = 0;
                    stack.push(j);
                }
            }
        }
        kept.clear();
        kept.extend(
            reached
                .iter()
                .copied()
                .filter(|&s| renum[slot[s as usize] as usize] != NONE),
        );
        kept.sort_unstable();
        for (k, &s) in kept.iter().enumerate() {
            renum[slot[s as usize] as usize] = k as u32 + 1;
        }

        let (slot_r, renum_r) = (&*slot, &*renum);
        let id = move |s: u32| match slot_r[s as usize] {
            NONE => None,
            i => match renum_r[i as usize] {
                NONE => None,
                k => Some(StateId(k)),
            },
        };
        let a1_finals = finals.iter().flat_map(|f| {
            let copy = (f.0 == p).then_some(StateId(0));
            copy.into_iter().chain(id(f.0))
        });
        let kept_r = &*kept;
        a1.rebuild(kept.len() + 1, a1_finals, || {
            let from_p = out
                .iter(p)
                .filter_map(move |(l, t)| Some((StateId(0), decode_label(l), id(t)?)));
            let between = kept_r.iter().flat_map(move |&s| {
                let from = StateId(renum_r[slot_r[s as usize] as usize]);
                out.iter(s)
                    .filter_map(move |(l, t)| Some((from, decode_label(l), id(t)?)))
            });
            from_p.chain(between)
        });

        for &s in reached.iter() {
            slot[s as usize] = NONE;
        }
        a1
    }

    /// Retained capacity in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        (self.slot.capacity()
            + self.reached.capacity()
            + self.pred_off.capacity()
            + self.preds.capacity()
            + self.renum.capacity()
            + self.kept.capacity()
            + self.stack.capacity())
            * 4
            + self.a1.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::saturate::{saturate_a1_with_stats, saturate_indexed_with_stats, Direction};
    use crate::{ControlLoc, PAutomaton, PState, Pds, RuleIndex, SaturationScratch};
    use specslice_fsa::mrd::{mrd_of_transposed, mrd_with_stats, TransposedNfa};
    use specslice_fsa::{Nfa, Symbol};

    /// The `A1` built from the rows is `to_nfa(p).trimmed().0` of the
    /// materialized saturation: the same sizes, byte-identical MRD output
    /// and statistics (so the same language: `A6` is canonical by
    /// language), and the same saturation statistics. Returns that
    /// reference automaton. One scratch serves every call, so each build
    /// also runs on buffers a differently-sized earlier build left behind.
    fn assert_a1_like_to_nfa_then_trim(
        scratch: &mut SaturationScratch,
        dir: Direction,
        pds: &Pds,
        query: &PAutomaton,
        p: ControlLoc,
    ) -> Nfa {
        let idx = RuleIndex::new(pds);
        let (aut, stats) = saturate_indexed_with_stats(dir, &idx, query, scratch).unwrap();
        let reference = aut.to_nfa(p).trimmed().0;
        let transposed = TransposedNfa::from_nfa(&reference);
        let (direct, direct_stats) = saturate_a1_with_stats(dir, &idx, query, p, scratch).unwrap();
        assert_eq!(format!("{direct_stats:?}"), format!("{stats:?}"));
        assert_eq!(direct.state_count(), transposed.state_count());
        assert_eq!(direct.transition_count(), transposed.transition_count());
        assert_eq!(
            format!("{:?}", mrd_of_transposed(direct)),
            format!("{:?}", mrd_with_stats(&reference)),
        );
        reference
    }

    #[test]
    fn a1_matches_to_nfa_then_trim() {
        let (p, q) = (ControlLoc(0), ControlLoc(1));
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        // With no rules, saturation returns the query itself, so the
        // hand-built automata below are their own saturations.
        let no_rules = Pds::new(2);
        let mut scratch = SaturationScratch::default();
        let mut check = |dir, pds: &Pds, aut: &PAutomaton, p| {
            assert_a1_like_to_nfa_then_trim(&mut scratch, dir, pds, aut, p)
        };

        // `p` final, with a loop back into `p` (so `p`'s own state is
        // reachable from the initial copy) and a path on to another final.
        let mut aut = PAutomaton::new(2);
        let m = aut.add_state();
        let ps = aut.control_state(p);
        aut.set_final(ps);
        aut.add_transition(ps, Some(a), ps);
        aut.add_transition(ps, Some(b), m);
        aut.set_final(m);
        let a1 = check(Direction::Backward, &no_rules, &aut, p);
        assert_eq!(a1.state_count(), 3, "initial, p, m");
        check(Direction::Backward, &no_rules, &aut, q);

        // A dead initial state: nothing reachable from `p` reaches a final.
        let mut dead = PAutomaton::new(2);
        let sink = dead.add_state();
        let f = dead.add_state();
        dead.add_transition(dead.control_state(p), Some(a), sink);
        dead.add_transition(sink, Some(b), sink);
        dead.add_transition(dead.control_state(q), Some(c), f);
        dead.set_final(f);
        let a1 = check(Direction::Backward, &no_rules, &dead, p);
        assert!(a1.is_empty_language());
        assert_eq!((a1.state_count(), a1.transition_count()), (1, 0));
        check(Direction::Backward, &no_rules, &dead, q);

        // Unreachable states (a final one among them) and reachable states
        // that cannot reach a final, interleaved in state order.
        let mut mixed = PAutomaton::new(2);
        let s: Vec<PState> = (0..6).map(|_| mixed.add_state()).collect();
        let ps = mixed.control_state(p);
        mixed.add_transition(ps, Some(a), s[1]);
        mixed.add_transition(ps, Some(b), s[3]);
        mixed.add_transition(s[1], Some(c), s[4]);
        mixed.add_transition(s[1], Some(a), s[2]);
        mixed.add_transition(s[2], Some(a), s[2]);
        mixed.add_transition(s[3], Some(b), s[4]);
        mixed.add_transition(s[0], Some(a), s[4]);
        mixed.add_transition(s[0], Some(b), s[5]);
        mixed.add_transition(mixed.control_state(q), Some(c), s[0]);
        mixed.set_final(s[4]);
        mixed.set_final(s[5]);
        let a1 = check(Direction::Backward, &no_rules, &mixed, p);
        assert_eq!(a1.state_count(), 4, "initial, s1, s3, s4");
        assert_eq!(a1.transition_count(), 4);
        check(Direction::Backward, &no_rules, &mixed, q);

        // Real saturations: `post*` leaves ε moves out of the intermediate
        // controls (pop rules) and adds Phase-I states (push rules).
        let mut pds = Pds::new(2);
        pds.add_push(p, a, p, b, a);
        pds.add_internal(p, b, q, a);
        pds.add_pop(q, a, p);
        pds.add_internal(q, c, q, b);
        let mut query = PAutomaton::new(2);
        let f = query.add_state();
        let g = query.add_state();
        query.add_transition(query.control_state(p), Some(a), f);
        query.add_transition(query.control_state(q), Some(c), g);
        query.set_final(f);
        query.set_final(g);
        let post = crate::poststar(&pds, &query).unwrap();
        assert!(post.transitions().any(|(_, l, _)| l.is_none()));
        for dir in [Direction::Forward, Direction::Backward] {
            check(dir, &pds, &query, p);
            check(dir, &pds, &query, q);
        }
        let a1 = check(Direction::Forward, &pds, &query, p);
        assert!(a1.transitions().any(|(_, l, _)| l.is_none()));
    }
}
