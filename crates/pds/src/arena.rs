//! Chunked bump arena for the saturation engines' per-state lists.
//!
//! A saturation builds one append-only list per automaton state (the
//! adjacency rows and, for `post*`, the ε-predecessor sets). Backing each
//! list with its own `Vec` makes every query pay one heap allocation per
//! touched state — and, worse, a batch whose state counts fluctuate keeps
//! truncating and regrowing the tail of the outer table, so the capacity
//! never converges. [`BumpLists`] stores *all* lists in one chunk pool:
//! a list is a linked chain of fixed-size chunks, chunks are handed out by
//! bumping a cursor, and `reset` rewinds the cursor without freeing — so
//! after a warm-up query the steady state allocates nothing at all, no
//! matter how the per-query state counts vary.
//!
//! The pool also tracks its high-water mark (peak live chunks), which the
//! session surfaces as the arena footprint a warm worker retains.

/// Items per chunk. Adjacency rows are mostly short (a handful of
/// targets); 8 keeps small lists in one chunk while bounding slack.
const CHUNK: usize = 8;

const NONE: u32 = u32::MAX;

#[derive(Clone, Debug)]
struct Chunk<T> {
    next: u32,
    len: u32,
    items: [T; CHUNK],
}

impl<T: Copy + Default> Default for Chunk<T> {
    fn default() -> Self {
        Chunk {
            next: NONE,
            len: 0,
            items: [T::default(); CHUNK],
        }
    }
}

/// An arena of append-only lists, indexed `0..n_lists`, all backed by one
/// bump-allocated chunk pool. `reset` rewinds the pool cursor; chunk
/// storage is never freed, so steady-state pushes are allocation-free.
#[derive(Debug, Default)]
pub struct BumpLists<T> {
    heads: Vec<u32>,
    tails: Vec<u32>,
    chunks: Vec<Chunk<T>>,
    /// Pool cursor: chunks `0..live` belong to the current run.
    live: u32,
    /// Peak of `live` since creation.
    high_water: u32,
    /// Items pushed in the current run, over all lists.
    items: usize,
}

impl<T: Copy + Default + PartialEq> BumpLists<T> {
    /// Starts a fresh run over `n_lists` empty lists, retaining all
    /// chunk storage from previous runs.
    pub fn reset(&mut self, n_lists: usize) {
        self.heads.clear();
        self.heads.resize(n_lists, NONE);
        self.tails.clear();
        self.tails.resize(n_lists, NONE);
        self.live = 0;
        self.items = 0;
    }

    /// Number of lists in the current run.
    pub fn n_lists(&self) -> usize {
        self.heads.len()
    }

    /// Items pushed in the current run, over all lists.
    pub fn item_count(&self) -> usize {
        self.items
    }

    /// Appends `item` to `list`.
    pub fn push(&mut self, list: u32, item: T) {
        self.items += 1;
        let tail = self.tails[list as usize];
        if tail != NONE {
            let c = &mut self.chunks[tail as usize];
            if (c.len as usize) < CHUNK {
                c.items[c.len as usize] = item;
                c.len += 1;
                return;
            }
        }
        let id = self.live;
        if id as usize == self.chunks.len() {
            self.chunks.push(Chunk::default());
        }
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        let c = &mut self.chunks[id as usize];
        c.next = NONE;
        c.len = 1;
        c.items[0] = item;
        if tail == NONE {
            self.heads[list as usize] = id;
        } else {
            self.chunks[tail as usize].next = id;
        }
        self.tails[list as usize] = id;
    }

    /// The items of `list`, in insertion order.
    pub fn iter(&self, list: u32) -> impl Iterator<Item = T> + '_ {
        let mut chunk = self.heads[list as usize];
        let mut at = 0usize;
        std::iter::from_fn(move || loop {
            if chunk == NONE {
                return None;
            }
            let c = &self.chunks[chunk as usize];
            if at < c.len as usize {
                let item = c.items[at];
                at += 1;
                return Some(item);
            }
            chunk = c.next;
            at = 0;
        })
    }

    /// Whether `list` already contains `item` (linear scan — ε-predecessor
    /// sets are short).
    pub fn contains(&self, list: u32, item: T) -> bool {
        self.iter(list).any(|x| x == item)
    }

    /// Bytes live in the current run (list headers + chunks in use).
    pub fn live_bytes(&self) -> usize {
        self.heads.len() * 8 + self.live as usize * std::mem::size_of::<Chunk<T>>()
    }

    /// Peak live chunk bytes since creation — the arena footprint a warm
    /// worker retains between queries.
    pub fn high_water_bytes(&self) -> usize {
        self.high_water as usize * std::mem::size_of::<Chunk<T>>()
    }

    /// Retained capacity (headers + the whole chunk pool).
    pub fn approx_bytes(&self) -> usize {
        (self.heads.capacity() + self.tails.capacity()) * 4
            + self.chunks.capacity() * std::mem::size_of::<Chunk<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_grow_across_chunks_in_order() {
        let mut lists: BumpLists<u32> = BumpLists::default();
        lists.reset(3);
        for i in 0..30 {
            lists.push(1, i);
            if i % 3 == 0 {
                lists.push(2, 100 + i);
            }
        }
        assert_eq!(
            lists.iter(1).collect::<Vec<_>>(),
            (0..30).collect::<Vec<_>>()
        );
        assert_eq!(
            lists.iter(2).collect::<Vec<_>>(),
            vec![100, 103, 106, 109, 112, 115, 118, 121, 124, 127]
        );
        assert_eq!(lists.iter(0).count(), 0);
        assert_eq!(lists.item_count(), 40);
        assert!(lists.contains(1, 17));
        assert!(!lists.contains(1, 99));
    }

    #[test]
    fn reset_rewinds_without_freeing() {
        let mut lists: BumpLists<(u32, u32)> = BumpLists::default();
        lists.reset(2);
        for i in 0..100 {
            lists.push(0, (i, i));
        }
        let cap = lists.approx_bytes();
        let hw = lists.high_water_bytes();
        assert!(hw > 0);
        // A smaller second run reuses the pool: capacity stays put and
        // previous contents do not leak.
        lists.reset(1);
        assert_eq!(lists.iter(0).count(), 0);
        assert_eq!(lists.item_count(), 0);
        lists.push(0, (7, 7));
        assert_eq!(lists.iter(0).collect::<Vec<_>>(), vec![(7, 7)]);
        assert_eq!(lists.approx_bytes(), cap);
        assert_eq!(lists.high_water_bytes(), hw, "high water persists");
        assert!(lists.live_bytes() < hw + lists.n_lists() * 8 + 1);
    }

    #[test]
    fn interleaved_lists_stay_separate() {
        let mut lists: BumpLists<u32> = BumpLists::default();
        let n = 50u32;
        lists.reset(n as usize);
        for round in 0..20u32 {
            for l in 0..n {
                lists.push(l, l * 1000 + round);
            }
        }
        for l in 0..n {
            let got: Vec<u32> = lists.iter(l).collect();
            let want: Vec<u32> = (0..20).map(|r| l * 1000 + r).collect();
            assert_eq!(got, want, "list {l}");
        }
    }
}
