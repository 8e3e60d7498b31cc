//! The session-level saturation bases: the criterion-independent part of
//! `pre*` and of `post*` over one rule index, frozen.
//!
//! **Backward.** In `pre*`, pop rules fire unconditionally and every
//! derived transition takes its target from one of its premises. The
//! transitions whose target is a control state therefore form a closed set
//! that does not depend on the query: it is exactly `pre*` of the query
//! with no transitions. [`SaturationBase::backward`] holds that set — the
//! rows, the push-rule waiters left pending on them, and the reverse
//! adjacency the `A1` trim walks. A backward saturation runs *against* it:
//! rule matching reads base ∪ overlay, and only the query's own
//! transitions go into the scratch overlay. The split is exact as long as
//! the query itself adds no transition into a control state; when it
//! does, the engine stays correct (overlay transitions into control states
//! are deduplicated against the base) but the base saves less.
//!
//! **Forward.** In `post*`, every transition into a Phase-I state
//! `mid(p', γ')` descends from that state's first hop `p' –γ'→ mid`, added
//! when a push rule `⟨p, γ⟩ ↪ ⟨p', γ' γ''⟩` fires, and every other derived
//! transition takes its target from a premise. [`SaturationBase::forward`]
//! saturates the first hop of every push pair at once, so it holds the
//! closure of every Phase-I state — a superset of what any one query
//! triggers. A forward query then only adds the transitions into its own
//! states: a push's first hop is already in the base, and ε-combination
//! on a Phase-I state reads the base's ε-predecessors. The closures of
//! Phase-I states a query never triggers stay in the base, but they
//! cannot reach the query's finals: their out-edges lead only to other
//! untriggered Phase-I states, since a Phase-I state gets an edge into a
//! query state only when its push fires.
//!
//! Either base lives in flat CSR tables, is built once per rule index and
//! is shared read-only by every query over it. Its states are numbered
//! like the query's, except that a forward base has no query states: its
//! Phase-I state `i` is `n_controls + i`, where a query numbers it
//! `n_query_states + i` (`BaseView` translates).
//!
//! Labels are stored encoded, as everywhere in the engines: `0` is ε,
//! `γ + 1` is `γ`.

use crate::automaton::PAutomaton;
use crate::index::RuleIndex;
use crate::saturate::{backward_solo, forward_engine, Direction, SaturationStats};
use crate::scratch::{decode_label, SaturationScratch};
use specslice_fsa::Symbol;

/// A flat table of keyed rows: the rows with label `l` are
/// `keys[off[l]..off[l + 1]]`, sorted by state, each naming its payload
/// range. Label-major, because the engines always know the label and a
/// label has rows on few control states.
#[derive(Debug)]
struct KeyedRows {
    off: Vec<u32>,
    /// `(state, start, end)`: the row's payload range.
    keys: Vec<(u32, u32, u32)>,
}

impl KeyedRows {
    const EMPTY: KeyedRows = KeyedRows {
        off: Vec::new(),
        keys: Vec::new(),
    };

    /// Builds the table from `(label, state, start, end)` rows sorted by
    /// `(label, state)`.
    fn build(rows: &[(u32, u32, u32, u32)]) -> KeyedRows {
        let n_labels = rows.last().map_or(0, |r| r.0 as usize + 1);
        let mut off = vec![0u32; n_labels + 1];
        for r in rows {
            off[r.0 as usize + 1] += 1;
        }
        for i in 0..n_labels {
            off[i + 1] += off[i];
        }
        KeyedRows {
            off,
            keys: rows.iter().map(|&(_, s, a, b)| (s, a, b)).collect(),
        }
    }

    /// The payload range of `(state, label)`, empty when absent.
    #[inline]
    fn range(&self, state: u32, label: u32) -> std::ops::Range<usize> {
        let l = label as usize;
        if l + 1 >= self.off.len() {
            return 0..0;
        }
        let row = &self.keys[self.off[l] as usize..self.off[l + 1] as usize];
        match row.binary_search_by_key(&state, |k| k.0) {
            Ok(i) => row[i].1 as usize..row[i].2 as usize,
            Err(_) => 0..0,
        }
    }

    fn approx_bytes(&self) -> usize {
        self.off.capacity() * 4 + self.keys.capacity() * 12
    }
}

/// The criterion-independent part of one direction's saturation over one
/// rule index, frozen (see the module docs). Build it with
/// [`SaturationBase::backward`] or [`SaturationBase::forward`]; an empty
/// base ([`SaturationBase::empty`]) makes a saturation run over it compute
/// the whole relation itself.
#[derive(Debug)]
pub struct SaturationBase {
    /// The direction the base was saturated in (`None` for the empty base).
    dir: Option<Direction>,
    /// Control states of the indexed PDS (0 for the empty base).
    n_controls: u32,
    /// States the tables cover: the control states, then (forward) one
    /// Phase-I state per push pair.
    n_states: u32,
    /// Rules of the indexed PDS, checked against the index a query runs on.
    rule_count: usize,
    /// Out-edges per state: `labels[out_off[s]..out_off[s + 1]]` and
    /// `targets[..]` alike, sorted by `(label, target)` backward (the rows
    /// index into them), in saturation order forward. Every target is a
    /// control state (backward) or a Phase-I state (forward).
    out_off: Vec<u32>,
    labels: Vec<u32>,
    targets: Vec<u32>,
    /// Backward only: `(state, label)` → its range in `targets` (sorted
    /// ascending).
    rows: KeyedRows,
    /// Labelled predecessors `(from, label)` of each state over the base's
    /// edges, the ε-predecessors first:
    /// `preds[pred_off[t]..pred_off[t + 1]]`.
    pred_off: Vec<u32>,
    preds: Vec<(u32, u32)>,
    /// Backward only: push-rule waiters left pending at the fixpoint:
    /// `(state, label)` → its range in `waiters`, each `(control, symbol)`
    /// still needing a second hop labelled `label` out of `state`.
    waiter_rows: KeyedRows,
    waiters: Vec<(u32, u32)>,
    /// The base's own saturation statistics.
    stats: SaturationStats,
}

const EMPTY_STATS: SaturationStats = SaturationStats {
    transitions: 0,
    query_transitions: 0,
    phase1_states: 0,
    peak_bytes: 0,
    rule_applications: 0,
    peak_worklist: 0,
};

static EMPTY: SaturationBase = SaturationBase {
    dir: None,
    n_controls: 0,
    n_states: 0,
    rule_count: 0,
    out_off: Vec::new(),
    labels: Vec::new(),
    targets: Vec::new(),
    rows: KeyedRows::EMPTY,
    pred_off: Vec::new(),
    preds: Vec::new(),
    waiter_rows: KeyedRows::EMPTY,
    waiters: Vec::new(),
    stats: EMPTY_STATS,
};

impl SaturationBase {
    /// The empty base: a saturation run over it computes the whole
    /// relation, pop-rule seeds and push first hops included.
    pub fn empty() -> &'static SaturationBase {
        &EMPTY
    }

    /// Saturates the empty query backward (`pre*`) over `idx` and freezes
    /// the result.
    pub fn backward(idx: &RuleIndex) -> SaturationBase {
        let query = PAutomaton::new(idx.control_count());
        let mut scratch = SaturationScratch::default();
        let stats = backward_solo(idx, SaturationBase::empty(), &query, &mut scratch);
        SaturationBase::freeze(idx, Direction::Backward, &scratch, stats)
    }

    /// Saturates the first hop `p' –γ'→ mid(p', γ')` of every push pair
    /// forward (`post*`) over `idx`, with no query states, and freezes the
    /// result: the closure of every Phase-I state.
    pub fn forward(idx: &RuleIndex) -> SaturationBase {
        let n = idx.control_count();
        let first_hops = idx
            .push_pairs()
            .iter()
            .enumerate()
            .map(|(i, &(p, g))| (p.0, g.0 + 1, n + i as u32));
        let mut scratch = SaturationScratch::default();
        let stats = forward_engine(idx, SaturationBase::empty(), n, first_hops, &mut scratch);
        SaturationBase::freeze(idx, Direction::Forward, &scratch, stats)
    }

    fn freeze(
        idx: &RuleIndex,
        dir: Direction,
        scratch: &SaturationScratch,
        stats: SaturationStats,
    ) -> Self {
        let n_controls = idx.control_count();
        let n = scratch.rel.out.n_lists() as u32;
        let mut out_off = Vec::with_capacity(n as usize + 1);
        let mut labels = Vec::with_capacity(stats.transitions);
        let mut targets = Vec::with_capacity(stats.transitions);
        let mut row_keys: Vec<(u32, u32, u32, u32)> = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        out_off.push(0);
        for s in 0..n {
            edges.clear();
            edges.extend(scratch.rel.out.iter(s));
            if dir == Direction::Backward {
                edges.sort_unstable();
            }
            for (i, &(l, t)) in edges.iter().enumerate() {
                debug_assert!(
                    (t < n_controls) == (dir == Direction::Backward),
                    "a backward base targets controls only, a forward one Phase-I states only"
                );
                let at = labels.len() as u32;
                if dir == Direction::Backward {
                    if i == 0 || edges[i - 1].0 != l {
                        row_keys.push((l, s, at, at));
                    }
                    row_keys.last_mut().expect("row opened above").3 = at + 1;
                }
                labels.push(l);
                targets.push(t);
            }
            out_off.push(labels.len() as u32);
        }
        row_keys.sort_unstable();

        let mut pred_off = vec![0u32; n as usize + 1];
        for &t in &targets {
            pred_off[t as usize + 1] += 1;
        }
        for i in 0..n as usize {
            pred_off[i + 1] += pred_off[i];
        }
        // One fill pass for the ε-edges, then one for the rest, so each
        // state's ε-predecessors come first.
        let mut fill = pred_off.clone();
        let mut preds = vec![(0u32, 0u32); targets.len()];
        for eps in [true, false] {
            for s in 0..n {
                for i in out_off[s as usize] as usize..out_off[s as usize + 1] as usize {
                    if (labels[i] == 0) == eps {
                        let t = targets[i] as usize;
                        preds[fill[t] as usize] = (s, labels[i]);
                        fill[t] += 1;
                    }
                }
            }
        }

        let mut pending: Vec<_> = scratch.pending.entries().collect();
        pending.sort_unstable_by_key(|&(s, l, _)| (l, s));
        let mut waiter_keys = Vec::with_capacity(pending.len());
        let mut waiters = Vec::new();
        for (s, l, list) in pending {
            let at = waiters.len() as u32;
            waiters.extend_from_slice(list);
            waiter_keys.push((l, s, at, waiters.len() as u32));
        }

        SaturationBase {
            dir: Some(dir),
            n_controls,
            n_states: n,
            rule_count: idx.rule_count(),
            out_off,
            labels,
            targets,
            rows: KeyedRows::build(&row_keys),
            pred_off,
            preds,
            waiter_rows: KeyedRows::build(&waiter_keys),
            waiters,
            stats,
        }
    }

    /// Whether the base holds nothing (the [`SaturationBase::empty`] base,
    /// or a PDS whose base saturates to nothing).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty() && self.waiters.is_empty()
    }

    /// The direction the base was saturated in (`None` for the empty
    /// base).
    pub fn direction(&self) -> Option<Direction> {
        self.dir
    }

    /// The statistics of the saturation that built the base (all zero for
    /// the empty base).
    pub fn stats(&self) -> SaturationStats {
        self.stats
    }

    /// Transitions in the base.
    pub fn transition_count(&self) -> usize {
        self.targets.len()
    }

    /// Every base transition as `(from, label, to)`, state-major, in the
    /// base's numbering (a forward base's Phase-I state `i` is
    /// `n_controls + i`); `None` is ε.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, Option<Symbol>, u32)> + '_ {
        (0..self.n_states).flat_map(move |s| {
            let r = self.out_off[s as usize] as usize..self.out_off[s as usize + 1] as usize;
            self.labels[r.clone()]
                .iter()
                .zip(&self.targets[r])
                .map(move |(&l, &t)| (s, decode_label(l), t))
        })
    }

    /// Retained bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.out_off.capacity()
            + self.labels.capacity()
            + self.targets.capacity()
            + self.pred_off.capacity())
            * 4
            + (self.preds.capacity() + self.waiters.capacity()) * 8
            + self.rows.approx_bytes()
            + self.waiter_rows.approx_bytes()
    }

    /// Panics unless the base is empty or was built in `dir` over an
    /// index with `idx`'s shape — a base from another PDS or direction
    /// would silently corrupt every answer.
    pub(crate) fn check(&self, idx: &RuleIndex, dir: Direction) {
        if self.is_empty() {
            return;
        }
        assert!(
            self.n_controls == idx.control_count() && self.rule_count == idx.rule_count(),
            "saturation base built over a different rule index"
        );
        assert_eq!(
            self.dir,
            Some(dir),
            "saturation base built for the other direction"
        );
    }

    /// Whether `state` can have backward base rows (it is a control
    /// state).
    #[inline]
    fn covers(&self, state: u32) -> bool {
        state < self.n_controls
    }

    /// The backward base targets of `(state, label)`, ascending.
    #[inline]
    pub(crate) fn targets(&self, state: u32, label: u32) -> &[u32] {
        if !self.covers(state) {
            return &[];
        }
        &self.targets[self.rows.range(state, label)]
    }

    /// Whether the backward base holds `state –label→ to`.
    #[inline]
    pub(crate) fn contains(&self, state: u32, label: u32, to: u32) -> bool {
        to < self.n_controls && self.targets(state, label).binary_search(&to).is_ok()
    }

    /// The backward base's pending waiters on `(state, label)`.
    #[inline]
    pub(crate) fn waiters(&self, state: u32, label: u32) -> &[(u32, u32)] {
        if !self.covers(state) {
            return &[];
        }
        &self.waiters[self.waiter_rows.range(state, label)]
    }

    /// The base as seen from a query with `n_query_states` states.
    pub(crate) fn view(&self, n_query_states: u32) -> BaseView<'_> {
        BaseView {
            base: self,
            shift: n_query_states.saturating_sub(self.n_controls),
        }
    }
}

/// A [`SaturationBase`] in one query's state numbering: the control states
/// coincide, and a forward base's Phase-I state `n_controls + i` is the
/// query's `n_query_states + i` (`shift` is the query's count of interior
/// states). Interior query states have no base edges.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BaseView<'a> {
    base: &'a SaturationBase,
    shift: u32,
}

impl<'a> BaseView<'a> {
    /// `q`'s index in the base's tables, if the base covers it.
    #[inline]
    fn to_base(self, q: u32) -> Option<usize> {
        let nc = self.base.n_controls;
        let b = if q < nc {
            q
        } else if q - nc >= self.shift {
            q - self.shift
        } else {
            return None;
        };
        (b < self.base.n_states).then_some(b as usize)
    }

    /// Base state `b` in the query's numbering.
    #[inline]
    fn to_query(self, b: u32) -> u32 {
        if b < self.base.n_controls {
            b
        } else {
            b + self.shift
        }
    }

    /// The base out-edges of `q` as `(label, to)`.
    #[inline]
    pub(crate) fn edges(self, q: u32) -> impl Iterator<Item = (u32, u32)> + 'a {
        let base = self.base;
        let r = self.to_base(q).map_or(0..0, |b| {
            base.out_off[b] as usize..base.out_off[b + 1] as usize
        });
        base.labels[r.clone()]
            .iter()
            .zip(&base.targets[r])
            .map(move |(&l, &t)| (l, self.to_query(t)))
    }

    /// The base predecessors of `q` as `(from, label)`, ε-predecessors
    /// first.
    #[inline]
    fn pred_slice(self, q: u32) -> &'a [(u32, u32)] {
        let base = self.base;
        self.to_base(q).map_or(&[], |b| {
            &base.preds[base.pred_off[b] as usize..base.pred_off[b + 1] as usize]
        })
    }

    /// The base predecessors of `q` as `(from, label)`.
    #[inline]
    pub(crate) fn preds(self, q: u32) -> impl Iterator<Item = (u32, u32)> + 'a {
        self.pred_slice(q)
            .iter()
            .map(move |&(f, l)| (self.to_query(f), l))
    }

    /// The sources of the base's ε-transitions into `q`.
    #[inline]
    pub(crate) fn eps_preds(self, q: u32) -> impl Iterator<Item = u32> + 'a {
        let preds = self.pred_slice(q);
        let n_eps = preds.partition_point(|&(_, l)| l == 0);
        preds[..n_eps].iter().map(move |&(f, _)| self.to_query(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::{saturate_indexed_with_stats, Direction};
    use crate::{ControlLoc, Pds, Rhs};
    use specslice_fsa::Symbol;
    use std::collections::BTreeSet;

    type Trans = (u32, Option<Symbol>, u32);

    /// The transitions of a full `pre*` of `query` whose target is a
    /// control state.
    fn control_targets(idx: &RuleIndex, query: &PAutomaton) -> BTreeSet<Trans> {
        let mut scratch = SaturationScratch::default();
        let (sat, _) =
            saturate_indexed_with_stats(Direction::Backward, idx, query, &mut scratch).unwrap();
        sat.transitions()
            .filter(|&(_, _, t)| sat.is_control_state(t))
            .map(|(f, l, t)| (f.0, l, t.0))
            .collect()
    }

    /// The transitions of a full `post*` of `query` whose target is a
    /// Phase-I state, in a forward base's numbering (Phase-I state `i` is
    /// `n_controls + i`).
    fn phase1_targets(idx: &RuleIndex, query: &PAutomaton) -> BTreeSet<Trans> {
        let mut scratch = SaturationScratch::default();
        let (sat, stats) =
            saturate_indexed_with_stats(Direction::Forward, idx, query, &mut scratch).unwrap();
        let n_query = query.state_count() as u32;
        let shift = n_query - idx.control_count();
        let to_base = |s: u32| if s >= n_query { s - shift } else { s };
        assert_eq!(
            sat.state_count() as u32,
            n_query + stats.phase1_states as u32
        );
        sat.transitions()
            .filter(|&(_, _, t)| t.0 >= n_query)
            .map(|(f, l, t)| {
                assert!(
                    f.0 < idx.control_count() || f.0 >= n_query,
                    "from a query state"
                );
                (to_base(f.0), l, to_base(t.0))
            })
            .collect()
    }

    /// A query accepting `(p, word)` for each pair, one fresh path each —
    /// no transition enters a control state.
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

    /// Small systems with pops, internal steps, calls and recursion.
    fn systems() -> [Pds; 4] {
        let (p, q) = (ControlLoc(0), ControlLoc(1));
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        let mut counter = Pds::new(1);
        counter.add_pop(p, a, p);
        let mut calls = Pds::new(2);
        calls.add_push(p, a, p, b, a);
        calls.add_internal(p, b, q, a);
        calls.add_pop(q, a, p);
        calls.add_internal(q, c, q, b);
        let mut rec = Pds::new(2);
        rec.add_push(p, a, p, a, a);
        rec.add_internal(p, a, q, b);
        rec.add_pop(q, b, q);
        rec.add_pop(q, a, q);
        let no_pops = {
            let mut pds = Pds::new(2);
            pds.add_internal(p, a, q, b);
            pds.add_push(q, b, p, c, a);
            pds
        };
        [counter, calls, rec, no_pops]
    }

    /// The frozen backward base is exactly the control-target part of
    /// every full saturation whose query has no transition into a control
    /// state.
    #[test]
    fn base_is_the_control_target_part_of_every_saturation() {
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        for pds in &systems() {
            let idx = RuleIndex::new(pds);
            let base = SaturationBase::backward(&idx);
            let n = pds.control_count();
            let frozen: BTreeSet<Trans> = base.transitions().collect();
            assert_eq!(frozen.len(), base.transition_count());
            assert_eq!(base.stats().transitions, base.transition_count());
            assert!(frozen.iter().all(|&(f, _, t)| f < n && t < n));
            assert_eq!(frozen, control_targets(&idx, &PAutomaton::new(n)));
            for words in [
                &[(0, &[a][..])][..],
                &[(0, &[a, b][..]), (n - 1, &[c][..])],
                &[(n - 1, &[b, a, c][..])],
                &[(0, &[][..])],
            ] {
                let query = words_query(n, words);
                assert_eq!(frozen, control_targets(&idx, &query), "{pds:?} {words:?}");
            }
        }
    }

    /// The frozen forward base is exactly the Phase-I-target part of a
    /// full `post*` whose query triggers every push pair (it reads the
    /// left-hand side of every push rule), and its predecessor lists hold
    /// the ε-predecessors first.
    #[test]
    fn forward_base_is_the_phase1_target_part_of_a_saturation_firing_every_push() {
        let mut pds_with_eps = Pds::new(2);
        let (p, q) = (ControlLoc(0), ControlLoc(1));
        let (a, b, c) = (Symbol(0), Symbol(1), Symbol(2));
        // A push whose callee pops straight back (ε into the Phase-I
        // state), then an internal step on the return symbol.
        pds_with_eps.add_push(p, a, q, b, c);
        pds_with_eps.add_pop(q, b, p);
        pds_with_eps.add_internal(p, c, p, a);
        pds_with_eps.add_push(q, c, q, a, a);
        let [_, calls, rec, no_pops] = systems();
        for pds in [&calls, &rec, &no_pops, &pds_with_eps] {
            let idx = RuleIndex::new(pds);
            let base = SaturationBase::forward(&idx);
            let n = pds.control_count();
            let n_pairs = idx.push_pairs().len() as u32;
            assert_eq!(base.direction(), Some(Direction::Forward));
            let frozen: BTreeSet<Trans> = base.transitions().collect();
            assert_eq!(frozen.len(), base.transition_count());
            assert_eq!(base.stats().transitions, base.transition_count());
            assert!(frozen.iter().all(|&(_, _, t)| t >= n && t < n + n_pairs));
            let mut fire_all = PAutomaton::new(n);
            for r in pds
                .rules()
                .iter()
                .filter(|r| matches!(r.rhs, Rhs::Push(..)))
            {
                let f = fire_all.add_state();
                fire_all.add_transition(fire_all.control_state(r.from_loc), Some(r.from_sym), f);
                fire_all.set_final(f);
            }
            assert_eq!(frozen, phase1_targets(&idx, &fire_all), "{pds:?}");
            let view = base.view(n);
            for t in n..n + n_pairs {
                let eps: BTreeSet<u32> = view.eps_preds(t).collect();
                let want: BTreeSet<u32> = frozen
                    .iter()
                    .filter(|&&(_, l, to)| to == t && l.is_none())
                    .map(|&(f, _, _)| f)
                    .collect();
                assert_eq!(eps, want);
                assert_eq!(
                    view.preds(t).count(),
                    frozen.iter().filter(|e| e.2 == t).count()
                );
            }
        }
        let with_eps = SaturationBase::forward(&RuleIndex::new(&pds_with_eps));
        assert!(with_eps.transitions().any(|(_, l, _)| l.is_none()));
    }

    /// The empty base holds nothing and accepts any index.
    #[test]
    fn empty_base_is_empty() {
        let base = SaturationBase::empty();
        assert!(base.is_empty());
        assert_eq!(base.transition_count(), 0);
        assert_eq!(base.transitions().count(), 0);
        assert_eq!(base.stats().rule_applications, 0);
        assert!(base.targets(0, 1).is_empty());
        assert!(base.waiters(0, 1).is_empty());
        let mut pds = Pds::new(3);
        pds.add_pop(ControlLoc(0), Symbol(0), ControlLoc(1));
        base.check(&RuleIndex::new(&pds), Direction::Backward);
        base.check(&RuleIndex::new(&pds), Direction::Forward);
    }

    /// A base from one PDS refuses to serve another's index.
    #[test]
    #[should_panic(expected = "different rule index")]
    fn base_rejects_a_foreign_index() {
        let mut pds = Pds::new(1);
        pds.add_pop(ControlLoc(0), Symbol(0), ControlLoc(0));
        let base = SaturationBase::backward(&RuleIndex::new(&pds));
        base.check(&RuleIndex::new(&Pds::new(2)), Direction::Backward);
    }

    /// A backward base refuses to serve a forward run.
    #[test]
    #[should_panic(expected = "other direction")]
    fn base_rejects_the_other_direction() {
        let mut pds = Pds::new(1);
        pds.add_pop(ControlLoc(0), Symbol(0), ControlLoc(0));
        let idx = RuleIndex::new(&pds);
        SaturationBase::backward(&idx).check(&idx, Direction::Forward);
    }
}
