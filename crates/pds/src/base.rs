//! The session-level saturation base: `pre*` of the empty query, frozen.
//!
//! In `pre*`, pop rules fire unconditionally and every derived transition
//! takes its target from one of its premises. The transitions whose target
//! is a control state therefore form a closed set that does not depend on
//! the query: it is exactly `pre*` of the query with no transitions. A
//! [`SaturationBase`] holds that set — the rows, the push-rule waiters left
//! pending on them, and the reverse adjacency the `A1` trim walks — in flat
//! CSR tables, built once per rule index and shared read-only by every
//! query over it.
//!
//! A backward saturation then runs *against* the base: rule matching reads
//! base ∪ overlay, and only the query's own transitions go into the scratch
//! overlay. The split is exact as long as the query itself adds no
//! transition into a control state; when it does, the engine stays correct
//! (overlay transitions into control states are deduplicated against the
//! base) but the base saves less.
//!
//! Labels are stored encoded, as everywhere in the engines: `γ + 1`.

use crate::automaton::PAutomaton;
use crate::index::RuleIndex;
use crate::saturate::{backward_solo, SaturationStats};
use crate::scratch::SaturationScratch;

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

/// `pre*` of the empty query over one rule index, frozen (see the module
/// docs). Build it with [`SaturationBase::backward`]; an empty base
/// ([`SaturationBase::empty`]) makes a saturation run over it compute the
/// whole relation itself.
#[derive(Debug)]
pub struct SaturationBase {
    /// Control states of the indexed PDS (0 for the empty base).
    n_controls: u32,
    /// Rules of the indexed PDS, checked against the index a query runs on.
    rule_count: usize,
    /// Out-edges per control state, each state's edges sorted by
    /// `(label, target)`: `labels[out_off[s]..out_off[s + 1]]` and
    /// `targets[..]` alike. Every target is a control state.
    out_off: Vec<u32>,
    labels: Vec<u32>,
    targets: Vec<u32>,
    /// `(state, label)` → its range in `targets` (sorted ascending).
    rows: KeyedRows,
    /// Predecessors of each control state over the base's edges:
    /// `preds[pred_off[t]..pred_off[t + 1]]`.
    pred_off: Vec<u32>,
    preds: Vec<u32>,
    /// Push-rule waiters left pending at the fixpoint: `(state, label)` →
    /// its range in `waiters`, each `(control, symbol)` still needing a
    /// second hop labelled `label` out of `state`.
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
    n_controls: 0,
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
    /// relation, pop-rule seeds included. Forward runs always use it.
    pub fn empty() -> &'static SaturationBase {
        &EMPTY
    }

    /// Saturates the empty query backward (`pre*`) over `idx` and freezes
    /// the result.
    pub fn backward(idx: &RuleIndex) -> SaturationBase {
        let query = PAutomaton::new(idx.control_count());
        let mut scratch = SaturationScratch::default();
        let stats = backward_solo(idx, SaturationBase::empty(), &query, &mut scratch);
        SaturationBase::freeze(idx, &scratch, stats)
    }

    fn freeze(idx: &RuleIndex, scratch: &SaturationScratch, stats: SaturationStats) -> Self {
        let n = idx.control_count();
        let mut out_off = Vec::with_capacity(n as usize + 1);
        let mut labels = Vec::with_capacity(stats.transitions);
        let mut targets = Vec::with_capacity(stats.transitions);
        let mut row_keys: Vec<(u32, u32, u32, u32)> = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        out_off.push(0);
        for s in 0..n {
            edges.clear();
            edges.extend(scratch.rel.out.iter(s));
            edges.sort_unstable();
            for (i, &(l, t)) in edges.iter().enumerate() {
                debug_assert!(t < n, "the empty query's pre* targets controls only");
                let at = labels.len() as u32;
                if i == 0 || edges[i - 1].0 != l {
                    row_keys.push((l, s, at, at));
                }
                row_keys.last_mut().expect("row opened above").3 = at + 1;
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
        let mut fill = pred_off.clone();
        let mut preds = vec![0u32; targets.len()];
        for s in 0..n {
            for i in out_off[s as usize]..out_off[s as usize + 1] {
                let t = targets[i as usize] as usize;
                preds[fill[t] as usize] = s;
                fill[t] += 1;
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
            n_controls: n,
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
    /// or a PDS whose empty query saturates to nothing).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty() && self.waiters.is_empty()
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

    /// Every base transition as `(from, symbol, to)`, state-major.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, specslice_fsa::Symbol, u32)> + '_ {
        (0..self.n_controls).flat_map(move |s| {
            self.edges(s)
                .map(move |(l, t)| (s, specslice_fsa::Symbol(l - 1), t))
        })
    }

    /// Retained bytes.
    pub fn approx_bytes(&self) -> usize {
        (self.out_off.capacity()
            + self.labels.capacity()
            + self.targets.capacity()
            + self.pred_off.capacity()
            + self.preds.capacity())
            * 4
            + self.waiters.capacity() * 8
            + self.rows.approx_bytes()
            + self.waiter_rows.approx_bytes()
    }

    /// Panics unless the base is empty or was built over an index with
    /// `idx`'s shape — a base from another PDS would silently corrupt every
    /// answer.
    pub(crate) fn check_index(&self, idx: &RuleIndex) {
        assert!(
            self.is_empty()
                || (self.n_controls == idx.control_count() && self.rule_count == idx.rule_count()),
            "saturation base built over a different rule index"
        );
    }

    /// Whether `state` can have base rows (it is a control state).
    #[inline]
    pub(crate) fn covers(&self, state: u32) -> bool {
        state < self.n_controls
    }

    /// The base targets of `(state, label)`, ascending.
    #[inline]
    pub(crate) fn targets(&self, state: u32, label: u32) -> &[u32] {
        if !self.covers(state) {
            return &[];
        }
        &self.targets[self.rows.range(state, label)]
    }

    /// Whether the base holds `state –label→ to`.
    #[inline]
    pub(crate) fn contains(&self, state: u32, label: u32, to: u32) -> bool {
        to < self.n_controls && self.targets(state, label).binary_search(&to).is_ok()
    }

    /// The base's pending waiters on `(state, label)`.
    #[inline]
    pub(crate) fn waiters(&self, state: u32, label: u32) -> &[(u32, u32)] {
        if !self.covers(state) {
            return &[];
        }
        &self.waiters[self.waiter_rows.range(state, label)]
    }

    /// The base out-edges of `state` as `(label, to)`.
    #[inline]
    pub(crate) fn edges(&self, state: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let r = if self.covers(state) {
            self.out_off[state as usize] as usize..self.out_off[state as usize + 1] as usize
        } else {
            0..0
        };
        self.labels[r.clone()]
            .iter()
            .copied()
            .zip(self.targets[r].iter().copied())
    }

    /// The base predecessors of `state`.
    #[inline]
    pub(crate) fn preds(&self, state: u32) -> &[u32] {
        if !self.covers(state) {
            return &[];
        }
        &self.preds
            [self.pred_off[state as usize] as usize..self.pred_off[state as usize + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::saturate::{saturate_indexed_with_stats, Direction};
    use crate::{ControlLoc, Pds};
    use specslice_fsa::Symbol;
    use std::collections::BTreeSet;

    type Trans = (u32, Symbol, u32);

    /// The transitions of a full `pre*` of `query` whose target is a
    /// control state.
    fn control_targets(idx: &RuleIndex, query: &PAutomaton) -> BTreeSet<Trans> {
        let mut scratch = SaturationScratch::default();
        let (sat, _) =
            saturate_indexed_with_stats(Direction::Backward, idx, query, &mut scratch).unwrap();
        sat.transitions()
            .filter(|&(_, _, t)| sat.is_control_state(t))
            .map(|(f, l, t)| (f.0, l.expect("pre* adds no ε"), t.0))
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

    /// The frozen base is exactly the control-target part of every full
    /// saturation whose query has no transition into a control state.
    #[test]
    fn base_is_the_control_target_part_of_every_saturation() {
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

        for pds in [&counter, &calls, &rec, &no_pops] {
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
        base.check_index(&RuleIndex::new(&pds));
    }

    /// A base from one PDS refuses to serve another's index.
    #[test]
    #[should_panic(expected = "different rule index")]
    fn base_rejects_a_foreign_index() {
        let mut pds = Pds::new(1);
        pds.add_pop(ControlLoc(0), Symbol(0), ControlLoc(0));
        let base = SaturationBase::backward(&RuleIndex::new(&pds));
        base.check_index(&RuleIndex::new(&Pds::new(2)));
    }
}
