//! `A1` — the saturated language read from one control location, trimmed —
//! built straight from the saturation rows.
//!
//! The query pipeline's `A1` is `to_nfa(p).trimmed()` of the saturated
//! automaton, in the transposed form MRD's subset construction reads
//! ([`TransposedNfa`]). Building it from the engine's rows skips both
//! intermediate copies of the saturated relation (the [`PAutomaton`] and
//! the untrimmed [`specslice_fsa::Nfa`]), and no per-query copy of the
//! [`SaturationBase`] is made either: the saturated relation is base +
//! overlay, and the walks below read both in place. The trim walks
//! backward from the finals first — over the labelled predecessor lists
//! the engine files every transition under and the base's prebuilt
//! reverse adjacency — so it touches only the states that can reach a
//! final, not everything reachable from `p`. On the way it records `p`'s
//! edges into those states; the forward walk starts from that list and
//! then stays inside the live set, and `A1`'s initial edges are written
//! from it, so `p`'s base out-edges (the whole base out of one control
//! state, thousands of edges) are never scanned. Only the edges between
//! kept states are written out.
//!
//! [`PAutomaton`]: crate::PAutomaton
//! [`SaturationBase`]: crate::SaturationBase

use crate::automaton::PState;
use crate::base::BaseView;
use crate::scratch::{decode_label, Relation};
use specslice_fsa::mrd::TransposedNfa;
use specslice_fsa::StateId;
use std::collections::BTreeSet;

/// `mark` values: untouched, can reach a final, and also reached from `p`.
const UNSEEN: u8 = 0;
const LIVE: u8 = 1;
const KEPT: u8 = 2;

/// The `A1` builder's buffers, reset (not reallocated) between queries.
#[derive(Debug, Default)]
pub(crate) struct A1Scratch {
    /// Per automaton state: `UNSEEN`, `LIVE` or `KEPT`. Every entry is
    /// `UNSEEN` between builds, so a build clears only what it set.
    mark: Vec<u8>,
    /// The states marked in this build.
    touched: Vec<u32>,
    /// Per automaton state: the kept state's `A1` id (valid for kept
    /// states only).
    renum: Vec<u32>,
    /// The kept states, ascending.
    kept: Vec<u32>,
    /// `p`'s edges into live states, as `(label, to)`.
    from_p: Vec<(u32, u32)>,
    /// Walk stack.
    stack: Vec<u32>,
    /// The result.
    a1: TransposedNfa,
}

impl A1Scratch {
    /// Builds `A1` for control state `p` of the saturated automaton whose
    /// transitions are `base`'s plus `rel`'s and whose accepting states
    /// are `finals`.
    ///
    /// The result is `to_nfa(p).trimmed().0` in transposed form, numbered
    /// the same way: state 0 is the copy of `p`, then the kept states in
    /// ascending order. `to_nfa`'s initial state is a copy of `p` that
    /// nothing enters, so a state is kept iff it lies at least one step
    /// beyond `p` and reaches a final.
    pub(crate) fn build(
        &mut self,
        base: BaseView<'_>,
        rel: &Relation,
        finals: &BTreeSet<PState>,
        p: u32,
    ) -> &TransposedNfa {
        let A1Scratch {
            mark,
            touched,
            renum,
            kept,
            from_p,
            stack,
            a1,
        } = self;
        let (out, into) = (&rel.out, &rel.into);
        let n = out.n_lists();
        if mark.len() < n {
            mark.resize(n, UNSEEN);
            renum.resize(n, 0);
        }

        // Backward from the finals: every state that reaches one, and
        // `p`'s edges into them. Each live state is expanded once, so each
        // of `p`'s edges is recorded once.
        touched.clear();
        stack.clear();
        from_p.clear();
        for f in finals {
            if mark[f.index()] == UNSEEN {
                mark[f.index()] = LIVE;
                touched.push(f.0);
                stack.push(f.0);
            }
        }
        while let Some(s) = stack.pop() {
            for (q, l) in base.preds(s).chain(into.iter(s)) {
                if q == p {
                    from_p.push((l, s));
                }
                if mark[q as usize] == UNSEEN {
                    mark[q as usize] = LIVE;
                    touched.push(q);
                    stack.push(q);
                }
            }
        }

        // Forward from `p`'s live successors, through live states only:
        // what it reaches is kept. `p`'s own successors are all marked
        // from the start, so reaching `p` again adds nothing.
        kept.clear();
        stack.clear();
        for &(_, t) in from_p.iter() {
            if mark[t as usize] == LIVE {
                mark[t as usize] = KEPT;
                kept.push(t);
                stack.push(t);
            }
        }
        while let Some(s) = stack.pop() {
            if s == p {
                continue;
            }
            for (_, t) in base.edges(s).chain(out.iter(s)) {
                if mark[t as usize] == LIVE {
                    mark[t as usize] = KEPT;
                    kept.push(t);
                    stack.push(t);
                }
            }
        }
        kept.sort_unstable();
        for (k, &s) in kept.iter().enumerate() {
            renum[s as usize] = k as u32 + 1;
        }

        let (mark_r, renum_r, from_p_r) = (&*mark, &*renum, &*from_p);
        let id = move |s: u32| (mark_r[s as usize] == KEPT).then(|| StateId(renum_r[s as usize]));
        let a1_finals = finals.iter().flat_map(|f| {
            let copy = (f.0 == p).then_some(StateId(0));
            copy.into_iter().chain(id(f.0))
        });
        // `p`'s recorded edges all lead into kept states; they leave the
        // copy of `p` and, when `p` itself is kept, `p`. Every other kept
        // state's edges are read from base + overlay (the two are
        // disjoint).
        let recorded = move |from: StateId| {
            from_p_r
                .iter()
                .filter_map(move |&(l, t)| Some((from, decode_label(l), id(t)?)))
        };
        let kept_r = &*kept;
        a1.rebuild(kept.len() + 1, a1_finals, || {
            let between = kept_r.iter().filter(|&&s| s != p).flat_map(move |&s| {
                let from = StateId(renum_r[s as usize]);
                base.edges(s)
                    .chain(out.iter(s))
                    .filter_map(move |(l, t)| Some((from, decode_label(l), id(t)?)))
            });
            let p_kept = id(p).into_iter().flat_map(recorded);
            recorded(StateId(0)).chain(p_kept).chain(between)
        });

        for &s in touched.iter() {
            mark[s as usize] = UNSEEN;
        }
        a1
    }

    /// Retained capacity in bytes.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.mark.capacity()
            + (self.touched.capacity()
                + self.renum.capacity()
                + self.kept.capacity()
                + self.stack.capacity())
                * 4
            + self.from_p.capacity() * 8
            + self.a1.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::saturate::{saturate_a1_with_stats, saturate_indexed_with_stats, Direction};
    use crate::{
        ControlLoc, PAutomaton, PState, Pds, RuleIndex, SaturationBase, SaturationScratch,
    };
    use specslice_fsa::mrd::{mrd_of_transposed, mrd_with_stats, TransposedNfa};
    use specslice_fsa::{Nfa, Symbol};

    /// The `A1` built from the rows is `to_nfa(p).trimmed().0` of the
    /// materialized saturation: the same sizes, byte-identical MRD output
    /// and statistics (so the same language: `A6` is canonical by
    /// language), and the same saturation statistics. The same holds when
    /// the run goes over the direction's frozen base, except that the work
    /// counters then count only the run's own work, and a forward base
    /// also holds the closures of Phase-I states the query never
    /// triggers, so base + overlay can outnumber the exact `post*`.
    /// Returns that reference automaton. One scratch serves every call, so
    /// each build also runs on buffers a differently-sized earlier build
    /// left behind.
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
        let want_mrd = format!("{:?}", mrd_with_stats(&reference));
        let base = match dir {
            Direction::Backward => SaturationBase::backward(&idx),
            Direction::Forward => SaturationBase::forward(&idx),
        };
        for over in [SaturationBase::empty(), &base] {
            let (direct, direct_stats) =
                saturate_a1_with_stats(dir, &idx, over, query, p, scratch).unwrap();
            if over.is_empty() {
                assert_eq!(format!("{direct_stats:?}"), format!("{stats:?}"));
            } else if dir == Direction::Backward {
                assert_eq!(direct_stats.transitions, stats.transitions);
            } else {
                assert!(direct_stats.transitions >= stats.transitions);
                assert_eq!(direct_stats.phase1_states, stats.phase1_states);
            }
            assert_eq!(direct.state_count(), transposed.state_count());
            assert_eq!(direct.transition_count(), transposed.transition_count());
            assert_eq!(format!("{:?}", mrd_of_transposed(direct)), want_mrd);
        }
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
        let (post, _) = saturate_indexed_with_stats(
            Direction::Forward,
            &RuleIndex::new(&pds),
            &query,
            &mut SaturationScratch::default(),
        )
        .unwrap();
        assert!(post.transitions().any(|(_, l, _)| l.is_none()));
        for dir in [Direction::Forward, Direction::Backward] {
            check(dir, &pds, &query, p);
            check(dir, &pds, &query, q);
        }
        let a1 = check(Direction::Forward, &pds, &query, p);
        assert!(a1.transitions().any(|(_, l, _)| l.is_none()));
    }
}
