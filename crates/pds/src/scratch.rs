//! Reusable working memory for the saturation engines.
//!
//! Saturation state is dense and short-lived: per-(state, symbol) target
//! sets, a transition worklist, per-state adjacency, and the push-rule
//! pending table. A [`SaturationScratch`] owns all of it and is reset —
//! not reallocated — between queries, so a batch worker's hot loop runs
//! against warm, already-sized buffers instead of hammering the global
//! allocator (one scratch per worker thread; see `specslice`'s
//! `QueryScratch`).
//!
//! Transition labels are stored encoded as `u32`: `0` is ε, a stack symbol
//! `γ` is `γ + 1`. Target-set membership starts as a linear scan over a
//! small vector and upgrades to a bitset over the (fixed) state space once
//! a set grows past a threshold — the "bitset-deduped worklist": a
//! transition enters the worklist exactly once, when its target first
//! enters its row's set.

use crate::a1::A1Scratch;
use crate::arena::BumpLists;
use specslice_fsa::{FxHashMap, Symbol};

/// Decodes a stored label: `0` is ε, `γ + 1` is the stack symbol `γ`.
pub(crate) fn decode_label(label: u32) -> Option<Symbol> {
    (label != 0).then(|| Symbol(label - 1))
}

/// Linear-scan → bitset upgrade point for one row's target set.
const BITSET_THRESHOLD: usize = 16;

/// A deduplicated target set for one `(state, label)` row.
#[derive(Clone, Debug, Default)]
pub(crate) struct Row {
    /// Targets in insertion order (always complete, bitset or not).
    pub(crate) targets: Vec<u32>,
    /// Membership bitset over the state space; empty until the row grows
    /// past [`BITSET_THRESHOLD`].
    bits: Vec<u64>,
}

impl Row {
    /// Inserts `to`, returning `true` if it was new.
    fn insert(&mut self, to: u32, n_states: u32) -> bool {
        if self.bits.is_empty() {
            if self.targets.contains(&to) {
                return false;
            }
            self.targets.push(to);
            if self.targets.len() >= BITSET_THRESHOLD {
                self.bits.resize((n_states as usize).div_ceil(64), 0);
                for &t in &self.targets {
                    self.bits[(t / 64) as usize] |= 1 << (t % 64);
                }
            }
            true
        } else {
            let (w, b) = ((to / 64) as usize, to % 64);
            if self.bits[w] & (1 << b) != 0 {
                return false;
            }
            self.bits[w] |= 1 << b;
            self.targets.push(to);
            true
        }
    }

    fn reset(&mut self) {
        self.targets.clear();
        self.bits.clear();
    }
}

/// The per-`(state, label)` row table: a fast hash map from packed keys to
/// pooled rows. Rows are recycled across queries (their `Vec` capacity
/// survives the reset).
#[derive(Debug, Default)]
pub(crate) struct RowTable {
    map: FxHashMap<u64, u32>,
    rows: Vec<Row>,
    live: usize,
    n_states: u32,
}

#[inline]
fn pack(state: u32, label: u32) -> u64 {
    ((state as u64) << 32) | label as u64
}

impl RowTable {
    fn reset(&mut self, n_states: u32) {
        self.map.clear();
        self.live = 0;
        self.n_states = n_states;
    }

    /// Inserts the transition `(state, label, to)`; `true` when new.
    pub(crate) fn insert(&mut self, state: u32, label: u32, to: u32) -> bool {
        let n_states = self.n_states;
        let id = *self.map.entry(pack(state, label)).or_insert_with(|| {
            if self.live == self.rows.len() {
                self.rows.push(Row::default());
            }
            self.rows[self.live].reset();
            self.live += 1;
            (self.live - 1) as u32
        });
        self.rows[id as usize].insert(to, n_states)
    }

    /// The targets recorded for `(state, label)` so far.
    pub(crate) fn targets(&self, state: u32, label: u32) -> &[u32] {
        match self.map.get(&pack(state, label)) {
            Some(&id) => &self.rows[id as usize].targets,
            None => &[],
        }
    }

    /// Live `(state, label)` rows.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Retained capacity estimate (map slots + pooled rows).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.map.capacity() * 16
            + self
                .rows
                .iter()
                .map(|r| 48 + r.targets.capacity() * 4 + r.bits.capacity() * 8)
                .sum::<usize>()
    }
}

/// The pending-match table for push rules: `(state, symbol)` → waiters
/// `(control, symbol)` still needing a second hop. Pooled like [`RowTable`].
#[derive(Debug, Default)]
pub(crate) struct PendTable {
    map: FxHashMap<u64, u32>,
    lists: Vec<Vec<(u32, u32)>>,
    live: usize,
}

impl PendTable {
    fn reset(&mut self) {
        self.map.clear();
        self.live = 0;
    }

    /// Registers a waiter for `(state, label)`.
    pub(crate) fn push(&mut self, state: u32, label: u32, waiter: (u32, u32)) {
        let id = *self.map.entry(pack(state, label)).or_insert_with(|| {
            if self.live == self.lists.len() {
                self.lists.push(Vec::new());
            }
            self.lists[self.live].clear();
            self.live += 1;
            (self.live - 1) as u32
        });
        self.lists[id as usize].push(waiter);
    }

    /// The waiters registered for `(state, label)` so far.
    pub(crate) fn waiters(&self, state: u32, label: u32) -> &[(u32, u32)] {
        match self.map.get(&pack(state, label)) {
            Some(&id) => &self.lists[id as usize],
            None => &[],
        }
    }

    /// Live waiter lists.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Every registered `(state, label, waiters)` list, in no particular
    /// order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32, &[(u32, u32)])> + '_ {
        self.map.iter().map(|(&key, &id)| {
            let list: &[(u32, u32)] = &self.lists[id as usize];
            ((key >> 32) as u32, key as u32, list)
        })
    }

    /// Retained capacity estimate (map slots + pooled waiter lists).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.map.capacity() * 16
            + self
                .lists
                .iter()
                .map(|l| 24 + l.capacity() * 8)
                .sum::<usize>()
    }
}

/// The relation a saturation builds: the dedup rows, and every transition
/// also filed under its source (the adjacency the automaton is read from)
/// and under its target (so the `A1` trim walks backward from the finals
/// without a pass over the whole relation). The two lists are bump-arena
/// backed, reset (not freed) between queries.
#[derive(Debug, Default)]
pub(crate) struct Relation {
    /// Dedup rows: `(state, label)` → target set.
    pub(crate) rows: RowTable,
    /// Per-state adjacency `(label, to)`, in insertion order.
    pub(crate) out: BumpLists<(u32, u32)>,
    /// Per-state predecessors `(from, label)`: the transitions into it.
    pub(crate) into: BumpLists<(u32, u32)>,
}

impl Relation {
    fn reset(&mut self, n_states: u32) {
        self.rows.reset(n_states);
        self.out.reset(n_states as usize);
        self.into.reset(n_states as usize);
    }

    /// Records `from –label→ to`; `true` when it is new.
    #[inline]
    pub(crate) fn insert(&mut self, from: u32, label: u32, to: u32) -> bool {
        let fresh = self.rows.insert(from, label, to);
        if fresh {
            self.out.push(from, (label, to));
            self.into.push(to, (from, label));
        }
        fresh
    }

    fn approx_bytes(&self) -> usize {
        self.rows.approx_bytes() + self.out.approx_bytes() + self.into.approx_bytes()
    }
}

/// Reusable saturation buffers — one per worker thread. Allocate once
/// (`SaturationScratch::default()`), hand `&mut` to every
/// [`crate::saturate_a1_with_stats`] /
/// [`crate::saturate_indexed_with_stats`] call.
#[derive(Debug, Default)]
pub struct SaturationScratch {
    /// The relation being built.
    pub(crate) rel: Relation,
    /// Worklist of `(state, label, to)` transitions, each entering once.
    pub(crate) worklist: Vec<(u32, u32, u32)>,
    /// Push-rule partial matches awaiting their second hop.
    pub(crate) pending: PendTable,
    /// `Poststar` only: sources of ε-transitions into each state —
    /// bump-arena backed like `out`.
    pub(crate) eps_into: BumpLists<u32>,
    /// Borrow-splitting copy buffers for the hot loop.
    pub(crate) tmp: Vec<u32>,
    /// Copy buffer for `(label, state)` pairs.
    pub(crate) tmp_pairs: Vec<(u32, u32)>,
    /// The `A1` builder's walk buffers and its result.
    pub(crate) a1: A1Scratch,
}

impl SaturationScratch {
    /// Prepares the scratch for a run over `n_states` automaton states.
    pub(crate) fn reset(&mut self, n_states: u32) {
        self.rel.reset(n_states);
        self.worklist.clear();
        self.pending.reset();
        self.eps_into.reset(n_states as usize);
        self.tmp.clear();
        self.tmp_pairs.clear();
    }

    /// Retained capacity estimate: what a warm pooled scratch holds onto
    /// between queries. Feeds the session's resident-byte accounting.
    pub fn approx_bytes(&self) -> usize {
        self.rel.approx_bytes()
            + self.eps_into.approx_bytes()
            + self.worklist.capacity() * std::mem::size_of::<(u32, u32, u32)>()
            + self.pending.approx_bytes()
            + self.tmp.capacity() * 4
            + self.tmp_pairs.capacity() * 8
            + self.a1.approx_bytes()
    }

    /// Peak live bump-arena bytes since this scratch was created (the
    /// adjacency, predecessor and ε-predecessor pools' high-water marks).
    pub fn arena_high_water_bytes(&self) -> usize {
        self.rel.out.high_water_bytes()
            + self.rel.into.high_water_bytes()
            + self.eps_into.high_water_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_dedup_across_bitset_upgrade() {
        let mut rows = RowTable::default();
        rows.reset(1000);
        // Push enough targets through one row to cross the bitset
        // threshold; dedup must hold on both sides of the upgrade.
        for round in 0..2 {
            for t in 0..100u32 {
                let fresh = rows.insert(3, 7, t * 3);
                assert_eq!(fresh, round == 0, "t={t} round={round}");
            }
        }
        assert_eq!(rows.targets(3, 7).len(), 100);
        assert_eq!(rows.targets(3, 8), &[] as &[u32]);
        assert_eq!(rows.len(), 1);
        // Reset recycles rows without leaking previous targets.
        rows.reset(10);
        assert_eq!(rows.targets(3, 7), &[] as &[u32]);
        assert!(rows.insert(3, 7, 9));
    }

    #[test]
    fn pending_lists_accumulate_and_reset() {
        let mut pend = PendTable::default();
        pend.reset();
        pend.push(1, 2, (10, 11));
        pend.push(1, 2, (12, 13));
        assert_eq!(pend.waiters(1, 2), &[(10, 11), (12, 13)]);
        assert_eq!(pend.waiters(2, 1), &[] as &[(u32, u32)]);
        pend.reset();
        assert_eq!(pend.waiters(1, 2), &[] as &[(u32, u32)]);
    }

    #[test]
    fn scratch_reset_sizes_state_tables() {
        let mut s = SaturationScratch::default();
        s.reset(4);
        assert!(s.rel.insert(3, 1, 2));
        assert!(!s.rel.insert(3, 1, 2));
        assert_eq!(s.rel.into.iter(2).collect::<Vec<_>>(), vec![(3, 1)]);
        s.eps_into.push(2, 9);
        s.reset(2);
        assert_eq!(s.rel.out.n_lists(), 2);
        assert!((0..2).all(|l| s.rel.out.iter(l).count() == 0));
        assert!((0..2).all(|l| s.rel.into.iter(l).count() == 0));
        assert!((0..2).all(|l| s.eps_into.iter(l).count() == 0));
        s.reset(8);
        assert_eq!(s.rel.out.n_lists(), 8);
        assert!(s.arena_high_water_bytes() > 0);
        assert!(s.approx_bytes() > 0);
    }
}
