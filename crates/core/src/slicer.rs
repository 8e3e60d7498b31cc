//! The [`Slicer`] session: one program, many slicing queries — in parallel.
//!
//! Alg. 1's pipeline splits into *program-dependent* stages (frontend → SDG
//! construction → PDS encoding → `pre*` of the empty query) and
//! *criterion-dependent* stages (query automaton → `Prestar` over that base
//! → MRD → read-out). The paper's entire evaluation slices each test
//! program once per `printf` — a multi-criterion workload — and a naive
//! client pays the program-dependent cost on every call. A `Slicer` runs
//! those stages once (each saturation base lazily, on the first query of
//! its direction) and reuses them for every subsequent query, batch,
//! feature removal, regeneration, or reslice check. An all-contexts
//! query's realizable-stack language is read off the call graph per query
//! (see [`crate::criteria`]), so no `post*` automaton is cached for it.
//!
//! The criterion-dependent stages are *independent* across criteria and
//! touch the session state read-only, so every batch entry point maps its
//! distinct criteria over one [`specslice_exec::Pool`] call (see
//! [`SlicerConfig::num_threads`]). Each worker checks a `QueryScratch` —
//! the saturation rows/worklists and read-out tables of the whole
//! criterion-dependent pipeline — out of the session's scratch pool and
//! returns it afterwards. A parallel batch's workers intern into fresh
//! private [`VariantStore`] shards; a one-worker batch interns straight
//! into the session store. The shared `Sdg`, PDS encoding (with its
//! prebuilt rule index), and saturation bases are borrowed immutably by
//! all workers. Results are assembled in input order and *adopted* into
//! the session's variant store in that order, so batch output — including
//! the store's interned ids and dedup counters — is bit-for-bit identical
//! at every thread count.

use crate::criteria::{self, Criterion};
use crate::encode::{self, Encoded, MAIN_CONTROL};
use crate::readout::{self, QueryKind, ReadoutScratch, SpecSlice, VariantMeta};
use crate::regen::{self, RegenOutput};
use crate::reslice::{self, ResliceReport};
use crate::store::{StoreStats, VariantId, VariantStore};
use crate::{feature_removal, PipelineStats, SpecError};
use specslice_exec::{Pool, WorkerStats};
use specslice_fsa::mrd::{mrd_of_transposed, mrd_with_stats};
use specslice_fsa::Nfa;
use specslice_lang::Program;
use specslice_pds::{
    saturate_a1_with_stats, Direction, PAutomaton, SaturationBase, SaturationScratch,
};
use specslice_sdg::build::build_sdg;
use specslice_sdg::{CallSiteId, Sdg, VertexId};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Options for a [`Slicer`] session.
///
/// Every read-out slice is audited against the paper's Cor. 3.19
/// no-parameter-mismatch property, and every batch reports per-criterion
/// [`PipelineStats`]; neither is optional.
#[derive(Clone, Copy, Debug)]
pub struct SlicerConfig {
    /// Worker threads used by the batch entry points
    /// ([`Slicer::slice_batch`], [`Slicer::forward_slice_batch`],
    /// [`Slicer::slice_batch_results`], [`Slicer::specialize_program`]).
    /// Defaults to the machine's available parallelism; `1` answers the
    /// batch on the calling thread, exactly as single-criterion
    /// [`Slicer::slice`] calls would (`0` is clamped to `1` at session
    /// construction, so a session's effective width is always at least one
    /// worker). Results are bit-for-bit identical at every setting — the
    /// knob only trades wall-clock for cores.
    pub num_threads: usize,
    /// Memoize criterion → slice results across calls (on by default). A
    /// criterion repeated in a later call — another query, another batch,
    /// or a re-slice after [`Slicer::apply_edit`] — is answered from the
    /// cache without re-running `Prestar` *or* the read-out: the memo keeps
    /// the canonical MRD automaton plus the slice's interned [`VariantId`]
    /// rows, so a hit only clones ids and metadata. After an edit, entries
    /// whose slice region the edit cannot have touched are kept
    /// (identifier-remapped and re-interned into the fresh store), so an
    /// edit-reslice loop only recomputes the criteria the edit affected.
    ///
    /// Repeats *within* one batch do not depend on this knob: every batch
    /// entry point answers each distinct criterion once and fans the answer
    /// out to its duplicates, memo or no memo. With the memo on, a
    /// fanned-out duplicate is counted as a memo hit.
    pub memoize: bool,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            num_threads: specslice_exec::available_parallelism(),
            memoize: true,
        }
    }
}

/// The result of [`Slicer::slice_batch`]: per-criterion slices (in input
/// order) plus stats.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One specialization slice per input criterion, in order.
    pub slices: Vec<SpecSlice>,
    /// Per-criterion pipeline stats, in input order.
    pub per_criterion: Vec<PipelineStats>,
    /// Aggregate over `per_criterion` ([`PipelineStats::absorb`] semantics:
    /// sums of per-query sizes, shared-encoding sizes kept once).
    pub aggregate: PipelineStats,
    /// Per-worker-thread execution accounting for this batch: how many
    /// distinct criteria each worker answered (duplicates fanned out at the
    /// batch entry are not worker items), how many it stole, and how long
    /// it was busy. One entry per worker that ran (a one-worker batch has
    /// one).
    pub per_thread: Vec<WorkerStats>,
}

/// A slicing session over one program: cached SDG, cached PDS encoding,
/// lazily cached saturation bases, and the shared [`VariantStore`] every
/// slice's content is interned into.
///
/// Construction runs everything that depends only on the program; every
/// query method ([`slice`](Slicer::slice), [`slice_batch`](Slicer::slice_batch),
/// [`remove_feature`](Slicer::remove_feature), …) reuses those caches. The
/// session is cheap to keep alive and immutable — build one per program and
/// share it across as many criteria as needed. It is also [`Sync`]: batch
/// queries fan out across worker threads that borrow it concurrently, and
/// clients may do the same with `&Slicer` or `Arc<Slicer>`.
#[derive(Debug)]
pub struct Slicer {
    pub(crate) program: Option<Program>,
    pub(crate) sdg: Sdg,
    pub(crate) enc: Encoded,
    pub(crate) config: SlicerConfig,
    /// The session variant store: every slice this session returns interns
    /// its variant content here (parallel batch workers intern into private
    /// shards first; results are re-interned in input order).
    pub(crate) store: Arc<VariantStore>,
    /// One saturation base per direction, indexed by [`dir_slot`]: the
    /// criterion-independent part of every saturation in that direction,
    /// which each query then only extends (see `specslice_pds::base`) —
    /// `pre*` of the empty query backward, the closure of every push's
    /// first hop forward. Each is built by the first query of its
    /// direction that misses the memo (forward: or the first feature
    /// removal). Never built by session construction or
    /// [`Slicer::apply_edit`], which drops both.
    pub(crate) saturation_bases: [OnceLock<Arc<SaturationBase>>; 2],
    saturation_base_builds: [AtomicUsize; 2],
    queries_run: AtomicUsize,
    /// Criterion → cached-slice memo (see [`SlicerConfig::memoize`]).
    /// Shared read-mostly across batch workers; [`Slicer::apply_edit`]
    /// rewrites it wholesale under `&mut self`.
    pub(crate) memo: RwLock<HashMap<MemoKey, MemoEntry>>,
    memo_hits: AtomicUsize,
    /// Warm [`QueryScratch`]es recycled across calls: every batch worker
    /// (and every single-criterion query) checks one out and returns it, so
    /// a session answering many small batches — the server's steady state —
    /// pays the table-growth warm-up once, not per call.
    scratch_pool: Mutex<Vec<QueryScratch>>,
}

/// Canonical, order-independent memo key for a query: the direction it ran
/// in plus the criterion's canonical selector. A forward and a backward
/// query over the same criterion are distinct cache entries (their `A6`
/// languages differ), so the direction is part of the key — and of every
/// serialized form of it (session export, server snapshots). Criteria over
/// raw automata are not memoized (their languages have no cheap canonical
/// key). Ordered by `(direction, selector)` — `Direction` sorts backward
/// first — so sorted exports list a session's backward entries before its
/// forward ones.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoKey {
    /// The query direction this entry answers.
    pub dir: Direction,
    /// The criterion's canonical, order-independent selector.
    pub select: KeySelect,
}

/// The criterion component of a [`MemoKey`], in dense-id form.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeySelect {
    /// Sorted, deduplicated vertex ids of an all-contexts criterion.
    AllContexts(Vec<u32>),
    /// Sorted, deduplicated `(vertex, stack)` configurations.
    Configurations(Vec<(u32, Vec<u32>)>),
}

impl KeySelect {
    /// The criterion this selector names.
    pub(crate) fn criterion(&self) -> Criterion {
        match self {
            KeySelect::AllContexts(vs) => {
                Criterion::AllContexts(vs.iter().map(|&v| VertexId(v)).collect())
            }
            KeySelect::Configurations(cs) => Criterion::Configurations(
                cs.iter()
                    .map(|(v, stack)| {
                        (VertexId(*v), stack.iter().map(|&c| CallSiteId(c)).collect())
                    })
                    .collect(),
            ),
        }
    }
}

/// A slice as the memo retains it: the interned content ids plus the
/// positional metadata — everything [`SpecSlice`] owns except the store
/// handle and the automaton. A memo hit clones this and is done; no
/// read-out runs.
#[derive(Clone, Debug)]
pub(crate) struct CachedSlice {
    pub(crate) ids: Vec<VariantId>,
    pub(crate) metas: Vec<VariantMeta>,
    pub(crate) main_variant: Option<usize>,
}

impl CachedSlice {
    pub(crate) fn of(slice: &SpecSlice) -> CachedSlice {
        CachedSlice {
            ids: slice.variant_ids().to_vec(),
            metas: slice.metas().to_vec(),
            main_variant: slice.main_variant,
        }
    }
}

/// What the memo retains per criterion: the canonical MRD automaton, the
/// cached slice (session-store [`VariantId`] rows), and the pipeline sizes
/// observed when the entry was first computed.
#[derive(Clone, Debug)]
pub(crate) struct MemoEntry {
    pub(crate) a6: Nfa,
    pub(crate) cached: CachedSlice,
    pub(crate) stats: PipelineStats,
}

impl MemoEntry {
    /// The entry for a slice read out into the session store.
    pub(crate) fn of(slice: SpecSlice, stats: PipelineStats) -> MemoEntry {
        MemoEntry {
            cached: CachedSlice::of(&slice),
            a6: slice.a6,
            stats,
        }
    }
}

pub(crate) fn memo_key(dir: Direction, criterion: &Criterion) -> Option<MemoKey> {
    let select = match criterion {
        Criterion::AllContexts(verts) => {
            let mut v: Vec<u32> = verts.iter().map(|v| v.0).collect();
            v.sort_unstable();
            v.dedup();
            KeySelect::AllContexts(v)
        }
        Criterion::Configurations(configs) => {
            let mut v: Vec<(u32, Vec<u32>)> = configs
                .iter()
                .map(|(v, stack)| (v.0, stack.iter().map(|c| c.0).collect()))
                .collect();
            v.sort_unstable();
            v.dedup();
            KeySelect::Configurations(v)
        }
        Criterion::Automaton(_) => return None,
    };
    Some(MemoKey { dir, select })
}

impl MemoKey {
    /// Rewrites the key through an edit's identifier maps; `None` when any
    /// referenced vertex or call site did not survive the edit. The
    /// direction tag carries over unchanged — edits rename identifiers,
    /// they never turn a forward entry into a backward one.
    pub(crate) fn remap(
        &self,
        vertex: impl Fn(VertexId) -> Option<VertexId>,
        call_site: impl Fn(CallSiteId) -> Option<CallSiteId>,
    ) -> Option<MemoKey> {
        let select = match &self.select {
            KeySelect::AllContexts(vs) => {
                let mut out = Vec::with_capacity(vs.len());
                for &v in vs {
                    out.push(vertex(VertexId(v))?.0);
                }
                out.sort_unstable();
                out.dedup();
                KeySelect::AllContexts(out)
            }
            KeySelect::Configurations(cs) => {
                let mut out = Vec::with_capacity(cs.len());
                for (v, stack) in cs {
                    let nv = vertex(VertexId(*v))?.0;
                    let mut ns = Vec::with_capacity(stack.len());
                    for &c in stack {
                        ns.push(call_site(CallSiteId(c))?.0);
                    }
                    out.push((nv, ns));
                }
                out.sort_unstable();
                out.dedup();
                KeySelect::Configurations(out)
            }
        };
        Some(MemoKey {
            dir: self.dir,
            select,
        })
    }
}

/// One criterion's raw outcome, before the session adopts it: the slice
/// (possibly still shard-interned), its stats, and what the memo should do
/// with it.
pub(crate) struct Answer {
    slice: SpecSlice,
    stats: PipelineStats,
    key: Option<MemoKey>,
    from_memo: bool,
}

/// One batch criterion's adopted answer or error.
type Adopted = Result<(SpecSlice, PipelineStats), SpecError>;

/// A batch worker's answer: adopted on the spot by a one-worker batch,
/// left for in-order adoption after the map by a parallel one.
enum Pending {
    Raw(Answer),
    Adopted((SpecSlice, PipelineStats)),
}

/// The per-worker working memory of the criterion-dependent pipeline:
/// saturation rows/worklists and read-out tables. Checked out of the
/// session's scratch pool per query or per batch worker and reset — not
/// reallocated — between criteria, so the hot loop runs against warm
/// buffers and never contends on the global allocator for its working set.
#[derive(Debug, Default)]
pub(crate) struct QueryScratch {
    /// `Prestar` saturation buffers (dense rows, worklist, pending table).
    pub(crate) sat: SaturationScratch,
    /// Read-out stage tables.
    pub(crate) readout: ReadoutScratch,
}

impl QueryScratch {
    /// Retained capacity estimate of one pooled scratch (saturation
    /// buffers + read-out tables).
    pub(crate) fn approx_bytes(&self) -> usize {
        self.sat.approx_bytes() + self.readout.approx_bytes()
    }
}

/// Warm scratch-pool accounting (see [`Slicer::scratch_stats`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct ScratchStats {
    /// Scratches currently parked in the pool.
    pub pooled: usize,
    /// Bytes the pooled scratches retain between queries.
    pub approx_bytes: usize,
    /// Peak live bump-arena bytes across the pooled scratches.
    pub arena_high_water: usize,
}

/// The session is shared immutably across batch worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Slicer>();
};

impl Slicer {
    /// Builds a session from MiniC source: frontend → SDG → PDS encoding,
    /// all cached. Keeps the checked [`Program`] so
    /// [`regenerate`](Slicer::regenerate) works.
    ///
    /// # Errors
    ///
    /// [`SpecError::Parse`] / [`SpecError::Sema`] from the frontend,
    /// [`SpecError::SdgBuild`] from SDG construction.
    pub fn from_source(src: &str) -> Result<Slicer, SpecError> {
        Slicer::from_source_with(src, SlicerConfig::default())
    }

    /// [`from_source`](Slicer::from_source) with explicit options.
    pub fn from_source_with(src: &str, config: SlicerConfig) -> Result<Slicer, SpecError> {
        let program = specslice_lang::frontend(src)?;
        Slicer::from_program_with(program, config)
    }

    /// Builds a session from an already-frontended program (normalized and
    /// checked — e.g. the output of [`crate::indirect::lower_indirect_calls`]).
    pub fn from_program(program: Program) -> Result<Slicer, SpecError> {
        Slicer::from_program_with(program, SlicerConfig::default())
    }

    /// [`from_program`](Slicer::from_program) with explicit options.
    pub fn from_program_with(program: Program, config: SlicerConfig) -> Result<Slicer, SpecError> {
        let sdg = build_sdg(&program)?;
        Ok(Slicer::assemble(Some(program), sdg, config))
    }

    /// Builds a session from a pre-built SDG. Source regeneration is
    /// unavailable ([`regenerate`](Slicer::regenerate) reports
    /// [`SpecError::Internal`]); everything else works.
    ///
    /// # Errors
    ///
    /// [`SpecError::SdgBuild`] when some vertex is not reachable from its
    /// procedure's entry along intraprocedural edges — the precondition of
    /// the call-graph stack language all-contexts criteria read (see
    /// [`crate::criteria`]). `build_sdg` output always satisfies it.
    pub fn from_sdg(sdg: Sdg) -> Result<Slicer, SpecError> {
        Slicer::from_sdg_with(sdg, SlicerConfig::default())
    }

    /// [`from_sdg`](Slicer::from_sdg) with explicit options.
    pub fn from_sdg_with(sdg: Sdg, config: SlicerConfig) -> Result<Slicer, SpecError> {
        criteria::check_entry_reachability(&sdg)?;
        Ok(Slicer::assemble(None, sdg, config))
    }

    fn assemble(program: Option<Program>, sdg: Sdg, mut config: SlicerConfig) -> Slicer {
        // A zero-width session is meaningless; clamp rather than letting the
        // width reach the execution layer (whose own clamp is an
        // implementation detail this API must not depend on).
        config.num_threads = config.num_threads.max(1);
        let enc = encode::encode_sdg(&sdg);
        Slicer {
            program,
            sdg,
            enc,
            config,
            store: Arc::new(VariantStore::new()),
            saturation_bases: Default::default(),
            saturation_base_builds: Default::default(),
            queries_run: AtomicUsize::new(0),
            memo: RwLock::new(HashMap::new()),
            memo_hits: AtomicUsize::new(0),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// The session's SDG.
    pub fn sdg(&self) -> &Sdg {
        &self.sdg
    }

    /// The checked program, when the session was built from source or AST.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The cached SDG→PDS encoding. The same instance is used by every
    /// query of this session — it is built exactly once, at construction.
    pub fn encoding(&self) -> &Encoded {
        &self.enc
    }

    /// The session options.
    pub fn config(&self) -> &SlicerConfig {
        &self.config
    }

    /// The session's variant store. Every slice this session returns
    /// interns its variant content here; [`Slicer::apply_edit`] replaces it
    /// (old slices keep their own handle to the superseded store).
    pub fn variant_store(&self) -> &Arc<VariantStore> {
        &self.store
    }

    /// Deterministic counters of the session store (interned variants,
    /// intern calls, cross-criterion dedup hits, flat-row bytes).
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// How many times the `dir` saturation base was built: 0 until a
    /// query in that direction misses the memo (forward: or a feature is
    /// removed), then 1 until an edit drops it. The cache is race-free when
    /// a parallel batch forces it.
    pub fn saturation_base_builds(&self, dir: Direction) -> usize {
        self.saturation_base_builds[dir_slot(dir)].load(Ordering::Relaxed)
    }

    /// The session's `dir` saturation base, if something has built it.
    /// Its [`SaturationBase::stats`] are the base's own saturation work,
    /// reported once per session; each query's
    /// [`PipelineStats::saturation_rule_applications`] counts only its work
    /// beyond the base.
    pub fn saturation_base(&self, dir: Direction) -> Option<&SaturationBase> {
        self.saturation_bases[dir_slot(dir)].get().map(|b| &**b)
    }

    /// Total queries answered by this session (slices, batch members, and
    /// feature removals).
    pub fn queries_run(&self) -> usize {
        self.queries_run.load(Ordering::Relaxed)
    }

    /// Checks a warm scratch out of the session pool (or makes a fresh
    /// one). Pair with [`Slicer::put_scratch`]; an early-error path that
    /// drops the scratch instead merely forfeits the warm buffers.
    fn take_scratch(&self) -> QueryScratch {
        self.scratch_pool
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }

    /// Returns a scratch to the session pool. The pool is bounded by the
    /// configured worker count — one per batch worker.
    fn put_scratch(&self, scratch: QueryScratch) {
        if let Ok(mut pool) = self.scratch_pool.lock() {
            if pool.len() < self.config.num_threads.max(1) {
                pool.push(scratch);
            }
        }
    }

    /// Accounting over the warm scratch pool: how many scratches are
    /// parked, the bytes their buffers retain between queries, and the
    /// bump arenas' high-water marks. The retained bytes are part of
    /// [`Slicer::approx_bytes`] — a warm session's pool is real residency
    /// the server's eviction budget must see.
    pub fn scratch_stats(&self) -> ScratchStats {
        let mut stats = ScratchStats::default();
        if let Ok(pool) = self.scratch_pool.lock() {
            stats.pooled = pool.len();
            for scratch in pool.iter() {
                stats.approx_bytes += scratch.approx_bytes();
                stats.arena_high_water += scratch.sat.arena_high_water_bytes();
            }
        }
        stats
    }

    /// Queries answered from the criterion → slice memo without re-running
    /// `Prestar` or the read-out (see [`SlicerConfig::memoize`]).
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Criteria currently memoized.
    pub fn memo_len(&self) -> usize {
        self.memo.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The base a `dir` saturation runs over: the session's cached base of
    /// that direction, built on first use.
    fn base_for(&self, dir: Direction) -> &SaturationBase {
        let slot = dir_slot(dir);
        self.saturation_bases[slot].get_or_init(|| {
            self.saturation_base_builds[slot].fetch_add(1, Ordering::Relaxed);
            Arc::new(match dir {
                Direction::Backward => SaturationBase::backward(&self.enc.index),
                Direction::Forward => SaturationBase::forward(&self.enc.index),
            })
        })
    }

    fn query(&self, criterion: &Criterion) -> Result<PAutomaton, SpecError> {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        criteria::query_automaton(&self.sdg, &self.enc, criterion)
    }

    /// Answers a memoized criterion: clones the cached ids/automaton and
    /// bumps the query/hit counters exactly as a computed answer would.
    /// `start` is when the caller began handling this criterion (the hit's
    /// `query_time`).
    fn answer_from_memo(&self, key: &MemoKey, start: Instant) -> Option<Answer> {
        let (slice, mut stats) = self.replay_from_memo(key)?;
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        stats.query_time = start.elapsed();
        Some(Answer {
            slice,
            stats,
            key: Some(key.clone()),
            from_memo: true,
        })
    }

    /// The full criterion-dependent pipeline for one criterion, against
    /// caller-owned query scratch (one per batch worker). Read-out interns
    /// into `store` — the session store on one-worker paths, the worker's
    /// private shard inside parallel batches.
    fn answer_in(
        &self,
        dir: Direction,
        criterion: &Criterion,
        scratch: &mut QueryScratch,
        store: &Arc<VariantStore>,
    ) -> Result<Answer, SpecError> {
        let start = Instant::now();
        let key = if self.config.memoize {
            memo_key(dir, criterion)
        } else {
            None
        };
        // Memo hit: the canonical MRD automaton *and* the read-out result
        // (interned rows + metadata) are cached — the whole criterion
        // pipeline is skipped and the hit just clones ids.
        if let Some(k) = &key {
            if let Some(answer) = self.answer_from_memo(k, start) {
                return Ok(answer);
            }
        }
        let query = self.query(criterion)?;
        let (slice, mut stats) = run_query_in(
            dir,
            &self.sdg,
            &self.enc,
            self.base_for(dir),
            &query,
            scratch,
            store,
        )?;
        stats.query_time = start.elapsed();
        if key.is_some() {
            set_memo_counters(&mut stats, dir, false);
        }
        Ok(Answer {
            slice,
            stats,
            key,
            from_memo: false,
        })
    }

    /// Adopts one answer into the session: re-interns shard-produced slices
    /// into the session store and installs the memo entry. Called in input
    /// order for batches, which pins session-store ids (and counters) to
    /// the input sequence regardless of thread count.
    ///
    /// A freshly computed answer whose key is *already* memoized is
    /// answered from the memo instead of being re-interned. Within one
    /// batch this cannot happen (batches answer each distinct key once);
    /// it serves concurrent callers on one session — the daemon's readers,
    /// or clients sharing `&Slicer` across threads — that computed the same
    /// criterion side by side. The caller that adopts second replays the
    /// first one's entry, so the memo and the store see one install.
    fn adopt(&self, answer: Answer) -> (SpecSlice, PipelineStats) {
        if let (Some(k), false) = (&answer.key, answer.from_memo) {
            if let Some((slice, mut stats)) = self.replay_from_memo(k) {
                stats.query_time = answer.stats.query_time;
                return (slice, stats);
            }
        }
        let slice = answer.slice.reintern_into(&self.store);
        if let (Some(k), false) = (answer.key, answer.from_memo) {
            self.memo
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .entry(k)
                .or_insert_with(|| MemoEntry {
                    a6: slice.a6.clone(),
                    cached: CachedSlice::of(&slice),
                    stats: answer.stats,
                });
        }
        (slice, answer.stats)
    }

    /// Rebuilds `key`'s memoized answer against the session store, counting
    /// a memo hit; `None` when the key is not memoized. The stats are the
    /// entry's with the work zeroed (see [`replayed`]) and `query_time`
    /// left for the caller to set.
    fn replay_from_memo(&self, key: &MemoKey) -> Option<(SpecSlice, PipelineStats)> {
        let (a6, cached, stats) = {
            let memo = self.memo.read().unwrap_or_else(|e| e.into_inner());
            let e = memo.get(key)?;
            (e.a6.clone(), e.cached.clone(), e.stats)
        };
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        let slice = SpecSlice::from_parts(
            self.store.clone(),
            cached.ids,
            cached.metas,
            cached.main_variant,
            a6,
            key.dir.into(),
        );
        let mut stats = replayed(stats);
        set_memo_counters(&mut stats, key.dir, true);
        Some((slice, stats))
    }

    /// Fans one batch duplicate out from its representative's adopted
    /// answer: a clone of the slice, counted as a query that did no work of
    /// its own (and, with [`SlicerConfig::memoize`] on, as a memo hit —
    /// exactly what a repeat in a later call would be).
    fn duplicate(
        &self,
        dir: Direction,
        answer: &(SpecSlice, PipelineStats),
    ) -> (SpecSlice, PipelineStats) {
        let start = Instant::now();
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        let mut stats = replayed(answer.1);
        if self.config.memoize {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            set_memo_counters(&mut stats, dir, true);
        }
        let slice = answer.0.clone();
        stats.query_time = start.elapsed();
        (slice, stats)
    }

    /// Computes the specialization slice for `criterion` (Alg. 1), reusing
    /// the session's cached encoding.
    ///
    /// # Errors
    ///
    /// [`SpecError::BadCriterion`] for malformed criteria;
    /// [`SpecError::Internal`] on invariant violations (a bug).
    pub fn slice(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.slice_with_stats(criterion).map(|(s, _)| s)
    }

    /// [`slice`](Slicer::slice) plus the automaton statistics the paper's
    /// evaluation reports.
    pub fn slice_with_stats(
        &self,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        self.directed_slice_with_stats(Direction::Backward, criterion)
    }

    /// Computes the **forward** slice for `criterion`: every configuration
    /// reachable *from* the criterion along dependence edges, computed as
    /// `post*(A_C)` over the same Fig. 8 encoding (and the same cached
    /// session state — the PDS encoding is never rebuilt for a direction
    /// switch). The result is read out into the same variant/partition
    /// shape as a backward slice; see [`QueryKind::Forward`] for the
    /// (weaker) parameter-completeness guarantee forward slices carry.
    pub fn forward_slice(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.forward_slice_with_stats(criterion).map(|(s, _)| s)
    }

    /// [`forward_slice`](Slicer::forward_slice) plus pipeline statistics.
    pub fn forward_slice_with_stats(
        &self,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        self.directed_slice_with_stats(Direction::Forward, criterion)
    }

    /// The direction-generic single-criterion path behind
    /// [`slice_with_stats`](Slicer::slice_with_stats) and
    /// [`forward_slice_with_stats`](Slicer::forward_slice_with_stats).
    fn directed_slice_with_stats(
        &self,
        dir: Direction,
        criterion: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        let mut scratch = self.take_scratch();
        let answer = self.answer_in(dir, criterion, &mut scratch, &self.store)?;
        self.put_scratch(scratch);
        Ok(self.adopt(answer))
    }

    /// Forces the direction's saturation base before fanning a batch out
    /// when a criterion will miss the memo, so the workers start against a
    /// warm base instead of serializing on its initialization lock.
    fn warm_base_for(&self, dir: Direction, criteria: &[Criterion]) {
        if self.saturation_base(dir).is_none() {
            let misses = !self.config.memoize || {
                let memo = self.memo.read().unwrap_or_else(|e| e.into_inner());
                criteria
                    .iter()
                    .any(|c| memo_key(dir, c).is_none_or(|k| !memo.contains_key(&k)))
            };
            if misses {
                self.base_for(dir);
            }
        }
    }

    /// Answers each of `criteria` (distinct by construction) through one
    /// [`Pool`] call and adopts the answers in input order, returning them
    /// with per-worker accounting.
    ///
    /// Each worker checks a scratch out of the session pool and returns it
    /// afterwards. A parallel batch's workers intern into fresh private
    /// shards, and their answers are adopted (re-interned) in input order
    /// after the map; a one-worker batch runs on the calling thread,
    /// interns straight into the session store and adopts each answer as
    /// it is computed.
    ///
    /// With `fail_fast`, a failure at index `j` lowers a shared cutoff that
    /// every worker checks before each item, so no item after `j` starts
    /// once it is seen — at one worker, nothing after the first failure
    /// runs. Every item before the lowest failure still runs, so the result
    /// ends at that failure, the same one at every width.
    fn answer_all(
        &self,
        dir: Direction,
        criteria: &[Criterion],
        fail_fast: bool,
    ) -> (Vec<Adopted>, Vec<WorkerStats>) {
        let pool = Pool::new(self.config.num_threads);
        let parallel = pool.threads().min(criteria.len()) > 1;
        if parallel {
            self.warm_base_for(dir, criteria);
        }
        let cutoff = AtomicUsize::new(usize::MAX);
        let (raw, workers) = pool.map(
            criteria,
            || {
                let store = if parallel {
                    Arc::new(VariantStore::new())
                } else {
                    self.store.clone()
                };
                (self.take_scratch(), store)
            },
            |(scratch, store), i, criterion| {
                if i > cutoff.load(Ordering::Relaxed) {
                    return None;
                }
                // On the calling thread, adoption happens as each answer
                // is computed, which is already input order.
                let answer = self
                    .answer_in(dir, criterion, scratch, store)
                    .map(|answer| {
                        if parallel {
                            Pending::Raw(answer)
                        } else {
                            Pending::Adopted(self.adopt(answer))
                        }
                    });
                if fail_fast && answer.is_err() {
                    cutoff.fetch_min(i, Ordering::Relaxed);
                }
                Some(answer)
            },
        );
        let per_thread = workers
            .into_iter()
            .map(|((scratch, _), stats)| {
                self.put_scratch(scratch);
                stats
            })
            .collect();
        let mut answers = Vec::with_capacity(raw.len());
        // Only items after the lowest failure are skipped.
        for answer in raw.into_iter().map_while(|answer| answer) {
            let failed = answer.is_err();
            answers.push(answer.map(|pending| match pending {
                Pending::Raw(answer) => self.adopt(answer),
                Pending::Adopted(adopted) => adopted,
            }));
            if failed && fail_fast {
                break;
            }
        }
        (answers, per_thread)
    }

    /// Slices every criterion in `criteria`, sharing the per-program work
    /// (encoding, saturation base) across the whole batch and fanning
    /// the criteria out over [`SlicerConfig::num_threads`] worker threads.
    ///
    /// Results come back in input order, one [`SpecSlice`] per criterion —
    /// element `i` is identical to what `slice(&criteria[i])` returns, at
    /// every thread count. On failure the *lowest-indexed* failing criterion
    /// is reported (identified by index in the message), so errors are
    /// deterministic too: no criterion after a seen failure starts (at one
    /// worker, nothing after the first failure runs), and the error
    /// reported is the same lowest-indexed one at every width. Use
    /// [`slice_batch_results`](Slicer::slice_batch_results) to keep the
    /// other criteria's answers when a batch may contain bad criteria.
    ///
    /// ```
    /// use specslice::{Criterion, Slicer, SlicerConfig};
    ///
    /// let slicer = Slicer::from_source_with(
    ///     r#"
    ///     int g1, g2;
    ///     void p(int a, int b) { g1 = a; g2 = b; }
    ///     int main() { p(1, 2); printf("%d", g1); printf("%d", g2); }
    ///     "#,
    ///     SlicerConfig {
    ///         num_threads: 2, // default: all available cores
    ///         ..SlicerConfig::default()
    ///     },
    /// )?;
    /// let criteria: Vec<Criterion> = slicer
    ///     .sdg()
    ///     .printf_actual_in_vertices()
    ///     .into_iter()
    ///     .map(Criterion::vertex)
    ///     .collect();
    /// let batch = slicer.slice_batch(&criteria)?;
    /// assert_eq!(batch.slices.len(), criteria.len());
    /// // Batch answers are identical to individual queries.
    /// for (criterion, slice) in criteria.iter().zip(&batch.slices) {
    ///     assert_eq!(slice.elems(), slicer.slice(criterion)?.elems());
    /// }
    /// # Ok::<(), specslice::SpecError>(())
    /// ```
    pub fn slice_batch(&self, criteria: &[Criterion]) -> Result<BatchResult, SpecError> {
        self.directed_batch(Direction::Backward, criteria)
    }

    /// [`slice_batch`](Slicer::slice_batch) in the forward direction: one
    /// [`forward_slice`](Slicer::forward_slice) per criterion, in input
    /// order, with the same dedup/threading/memoization behavior (and the
    /// same byte-identical-at-every-width guarantee) as backward batches.
    pub fn forward_slice_batch(&self, criteria: &[Criterion]) -> Result<BatchResult, SpecError> {
        self.directed_batch(Direction::Forward, criteria)
    }

    /// The direction-generic batch path behind
    /// [`slice_batch`](Slicer::slice_batch),
    /// [`forward_slice_batch`](Slicer::forward_slice_batch), and
    /// `specialize_program_directed`. Only the first occurrence of each
    /// distinct criterion is answered (see [`Distinct`]); its adopted answer
    /// is then fanned out to every duplicate, in input order.
    pub(crate) fn directed_batch(
        &self,
        dir: Direction,
        criteria: &[Criterion],
    ) -> Result<BatchResult, SpecError> {
        let distinct = Distinct::of(dir, criteria);
        let (answers, per_thread) = self.answer_all(dir, &distinct.criteria(criteria), true);
        // The lowest-indexed failure is always a first occurrence, so
        // deduplication does not move it.
        let answers = answers
            .into_iter()
            .enumerate()
            .map(|(j, answer)| answer.map_err(|e| annotate_with_index(e, distinct.reps[j])))
            .collect::<Result<Vec<_>, _>>()?;
        let mut aggregate = PipelineStats::default();
        let (slices, per_criterion) = distinct
            .fan_out(answers, |answer| self.duplicate(dir, answer))
            .into_iter()
            .inspect(|(_, stats)| aggregate.absorb(stats))
            .unzip();
        Ok(BatchResult {
            slices,
            per_criterion,
            aggregate,
            per_thread,
        })
    }

    /// [`slice_batch`](Slicer::slice_batch) without the fail-fast contract:
    /// every criterion is answered and returned individually, so one
    /// malformed criterion does not poison the rest of the batch. Results
    /// are in input order; errors identify their criterion by index (a
    /// duplicate of a failing criterion fails with the same error, tagged
    /// with its own index).
    pub fn slice_batch_results(&self, criteria: &[Criterion]) -> Vec<Result<SpecSlice, SpecError>> {
        let dir = Direction::Backward;
        let distinct = Distinct::of(dir, criteria);
        let (answers, _) = self.answer_all(dir, &distinct.criteria(criteria), false);
        distinct
            .fan_out(answers, |answer| {
                answer
                    .as_ref()
                    .map(|answer| self.duplicate(dir, answer))
                    .map_err(Clone::clone)
            })
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map(|(slice, _)| slice)
                    .map_err(|e| annotate_with_index(e, i))
            })
            .collect()
    }

    /// Computes the **chop** from `source` to `target`: the configurations
    /// that both lie forward of `source` and backward of `target` —
    /// `forward_slice(source) ∩ slice(target)`, intersected on the two
    /// queries' canonical MRD automata and re-canonicalized, so the result
    /// is byte-identical to computing the two slices independently and
    /// intersecting them (at every thread count).
    ///
    /// The two constituent queries go through the session memo (a repeated
    /// chop endpoint is a cache hit); the intersection itself is cheap and
    /// is not memoized. See [`QueryKind::Chop`] for what a chop does *not*
    /// guarantee: it is a variant/vertex report, not an executable slice.
    pub fn chop(&self, source: &Criterion, target: &Criterion) -> Result<SpecSlice, SpecError> {
        self.chop_with_stats(source, target).map(|(s, _)| s)
    }

    /// [`chop`](Slicer::chop) plus the aggregate pipeline statistics of the
    /// two constituent queries (the `mrd` sizes describe the chop's own
    /// re-canonicalized automaton).
    pub fn chop_with_stats(
        &self,
        source: &Criterion,
        target: &Criterion,
    ) -> Result<(SpecSlice, PipelineStats), SpecError> {
        let start = Instant::now();
        let (fwd, fwd_stats) = self.forward_slice_with_stats(source)?;
        let (bwd, bwd_stats) = self.slice_with_stats(target)?;
        let inter = specslice_fsa::ops::intersect(&fwd.a6, &bwd.a6);
        let (inter_trim, _) = inter.trimmed();
        let (a6, mrd_stats) = mrd_with_stats(&inter_trim);
        let mut scratch = self.take_scratch();
        let slice = readout::read_out_in(
            &self.sdg,
            &self.enc,
            &a6,
            QueryKind::Chop,
            &mut scratch.readout,
            &self.store,
        );
        self.put_scratch(scratch);
        let slice = slice?;
        let mut stats = fwd_stats;
        stats.absorb(&bwd_stats);
        // The constituent queries' MRD sizes are summed above; the chop's
        // own canonical automaton is what `mrd` should describe.
        stats.mrd = mrd_stats;
        stats.query_time = start.elapsed();
        Ok((slice, stats))
    }

    /// Removes the feature identified by the forward stack-configuration
    /// slice from `criterion` (Alg. 2 / §7), reusing the cached encoding
    /// and forward saturation base.
    pub fn remove_feature(&self, criterion: &Criterion) -> Result<SpecSlice, SpecError> {
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        feature_removal::remove_feature_reusing(
            &self.sdg,
            &self.enc,
            self.base_for(Direction::Forward),
            criterion,
            &self.store,
        )
    }

    /// Regenerates executable MiniC source for a slice of this session's
    /// program.
    ///
    /// # Errors
    ///
    /// [`SpecError::Internal`] when the session was built with
    /// [`from_sdg`](Slicer::from_sdg) (no program to regenerate from), or
    /// when the slice violates regeneration invariants (a bug).
    pub fn regenerate(&self, slice: &SpecSlice) -> Result<RegenOutput, SpecError> {
        let program = self.program.as_ref().ok_or_else(|| {
            SpecError::internal(
                "regen",
                "session was built from an SDG only; use Slicer::from_source / \
                 from_program to enable source regeneration",
            )
        })?;
        regen::regenerate(&self.sdg, program, slice)
    }

    /// Runs the §8.3 reslicing self-check for a completed slice of this
    /// session, reusing the session's encoding for the original program.
    pub fn reslice_check(
        &self,
        criterion: &Criterion,
        slice: &SpecSlice,
        regen: &RegenOutput,
    ) -> Result<ResliceReport, SpecError> {
        reslice::reslice_check_reusing(&self.sdg, &self.enc, criterion, slice, regen)
    }
}

/// A batch's criteria deduplicated by [`memo_key`]: every batch entry
/// point answers only the first occurrence of each key and fans that
/// answer out to the later duplicates. This is independent of
/// [`SlicerConfig::memoize`] and never reads the memo. Raw-automaton
/// criteria have no key, so each is its own representative.
pub(crate) struct Distinct {
    /// Input index of each distinct criterion's first occurrence,
    /// ascending.
    reps: Vec<usize>,
    /// Per input position, the index into `reps` of the criterion that
    /// answers it.
    rep_of: Vec<usize>,
}

impl Distinct {
    pub(crate) fn of(dir: Direction, criteria: &[Criterion]) -> Distinct {
        let mut first: HashMap<MemoKey, usize> = HashMap::new();
        let mut reps = Vec::new();
        let mut rep_of = Vec::with_capacity(criteria.len());
        for (i, criterion) in criteria.iter().enumerate() {
            let fresh = reps.len();
            let j = match memo_key(dir, criterion) {
                Some(key) => *first.entry(key).or_insert(fresh),
                None => fresh,
            };
            if j == fresh {
                reps.push(i);
            }
            rep_of.push(j);
        }
        Distinct { reps, rep_of }
    }

    /// The first duplicate in input order, as `(its index, its
    /// representative's index)`.
    pub(crate) fn first_duplicate(&self) -> Option<(usize, usize)> {
        self.rep_of
            .iter()
            .enumerate()
            .map(|(i, &j)| (i, self.reps[j]))
            .find(|&(i, rep)| i != rep)
    }

    /// The representatives, in input order (borrowed when nothing repeats).
    fn criteria<'a>(&self, criteria: &'a [Criterion]) -> Cow<'a, [Criterion]> {
        if self.reps.len() == criteria.len() {
            Cow::Borrowed(criteria)
        } else {
            Cow::Owned(self.reps.iter().map(|&i| criteria[i].clone()).collect())
        }
    }

    /// Scatters the representatives' answers (one per `reps` entry) back to
    /// input order: each answer moves to its representative's position and
    /// every duplicate gets `dup` of it.
    fn fan_out<T>(&self, answers: Vec<T>, mut dup: impl FnMut(&T) -> T) -> Vec<T> {
        debug_assert_eq!(answers.len(), self.reps.len());
        if self.reps.len() == self.rep_of.len() {
            return answers;
        }
        let mut answers: Vec<Option<T>> = answers.into_iter().map(Some).collect();
        // Walk backwards: a representative precedes its duplicates, so it
        // still holds its answer while they are served.
        let mut out: Vec<T> = (0..self.rep_of.len())
            .rev()
            .map(|i| {
                let j = self.rep_of[i];
                if self.reps[j] == i {
                    answers[j].take().expect("a representative is placed once")
                } else {
                    dup(answers[j]
                        .as_ref()
                        .expect("duplicates follow their representative"))
                }
            })
            .collect();
        out.reverse();
        out
    }
}

/// Tags a failing batch member with its criterion index, for every error
/// variant a query can produce (so "errors identify their criterion by
/// index" holds for internal invariant violations too, where knowing the
/// triggering criterion is exactly what debugging needs).
fn annotate_with_index(e: SpecError, i: usize) -> SpecError {
    match e {
        SpecError::Internal { context, message } => SpecError::Internal {
            context,
            message: format!("criterion #{i}: {message}"),
        },
        SpecError::BadCriterion { reason } => SpecError::BadCriterion {
            reason: format!("criterion #{i}: {reason}"),
        },
        other => other,
    }
}

/// A direction's index into the session's per-direction caches.
pub(crate) fn dir_slot(dir: Direction) -> usize {
    match dir {
        Direction::Backward => 0,
        Direction::Forward => 1,
    }
}

/// The engine-stage name errors are tagged with, per direction.
fn dir_stage(dir: Direction) -> &'static str {
    match dir {
        Direction::Backward => "prestar",
        Direction::Forward => "poststar",
    }
}

/// The stats of a replayed answer — a memo hit, an adopt-time replay, or a
/// fanned-out batch duplicate: the answer-size fields still describe the
/// answer, but the work fields count only what this query did, which is
/// nothing.
fn replayed(mut stats: PipelineStats) -> PipelineStats {
    stats.saturation_rule_applications = 0;
    stats.saturation_peak_worklist = 0;
    stats.saturation_peak_bytes = 0;
    stats.saturations_run = 0;
    stats
}

/// Sets the per-direction memo hit/miss counters on a query's stats (the
/// other direction's counters are zeroed — one query participates in
/// exactly one direction's cache).
fn set_memo_counters(stats: &mut PipelineStats, dir: Direction, hit: bool) {
    stats.memo_hits_backward = 0;
    stats.memo_misses_backward = 0;
    stats.memo_hits_forward = 0;
    stats.memo_misses_forward = 0;
    match (dir, hit) {
        (Direction::Backward, true) => stats.memo_hits_backward = 1,
        (Direction::Backward, false) => stats.memo_misses_backward = 1,
        (Direction::Forward, true) => stats.memo_hits_forward = 1,
        (Direction::Forward, false) => stats.memo_misses_forward = 1,
    }
}

/// The criterion-dependent tail of Alg. 1: saturation (`Prestar` backward,
/// `Poststar` forward) → trimmed `A1`, built from the saturation rows →
/// MRD → read-out. Shared by the session
/// methods and the one-shot [`crate::specialize`], which saturates the
/// whole relation itself (the empty base). The slice's content is
/// interned into `store`.
pub(crate) fn run_query(
    dir: Direction,
    sdg: &Sdg,
    enc: &Encoded,
    query: &PAutomaton,
    store: &Arc<VariantStore>,
) -> Result<(SpecSlice, PipelineStats), SpecError> {
    // `query_time` stays zero here: its contract includes query-automaton
    // construction, which only `Slicer::answer_in` wraps (and both callers
    // of this function discard the stats anyway).
    run_query_in(
        dir,
        sdg,
        enc,
        SaturationBase::empty(),
        query,
        &mut QueryScratch::default(),
        store,
    )
}

/// [`run_query`] against caller-owned scratch buffers, so a batch worker's
/// hot loop reuses its saturation rows and read-out tables across criteria,
/// and against a saturation base (the session's base of `dir`, so the
/// query only saturates its own overlay).
pub(crate) fn run_query_in(
    dir: Direction,
    sdg: &Sdg,
    enc: &Encoded,
    base: &SaturationBase,
    query: &PAutomaton,
    scratch: &mut QueryScratch,
    store: &Arc<VariantStore>,
) -> Result<(SpecSlice, PipelineStats), SpecError> {
    let (a1, satstats) =
        saturate_a1_with_stats(dir, &enc.index, base, query, MAIN_CONTROL, &mut scratch.sat)
            .map_err(|e| SpecError::pds(dir_stage(dir), e))?;
    let (a1_states, a1_transitions) = (a1.state_count(), a1.transition_count());
    let (a6, mrd_stats) = mrd_of_transposed(a1);
    let slice = readout::read_out_in(sdg, enc, &a6, dir.into(), &mut scratch.readout, store)?;
    let stats = PipelineStats {
        pds_rules: enc.pds.rule_count(),
        saturation_transitions: satstats.transitions,
        saturation_peak_bytes: satstats.peak_bytes,
        saturation_rule_applications: satstats.rule_applications,
        saturation_peak_worklist: satstats.peak_worklist,
        a1_states,
        a1_transitions,
        mrd: mrd_stats,
        saturations_run: 1,
        ..PipelineStats::default()
    };
    Ok((slice, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        int g;
        void p(int a) { g = a; }
        int main() { p(1); printf("%d", g); p(2); printf("%d", g); }
    "#;

    /// A panic while the memo lock is held poisons it; the session keeps
    /// reading and installing memo entries rather than silently bypassing
    /// the cache.
    #[test]
    fn memo_survives_a_poisoned_lock() {
        let slicer = Slicer::from_source_with(
            SRC,
            SlicerConfig {
                num_threads: 1,
                memoize: true,
            },
        )
        .unwrap();
        let sites: Vec<Criterion> = slicer
            .sdg()
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .collect();
        let first = slicer.slice(&sites[0]).unwrap();

        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = slicer.memo.write().unwrap();
                panic!("poisoning the memo lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(slicer.memo.is_poisoned());

        assert_eq!(slicer.memo_len(), 1);
        let again = slicer.slice(&sites[0]).unwrap();
        assert_eq!(slicer.memo_hits(), 1);
        assert_eq!(format!("{again:?}"), format!("{first:?}"));

        // New entries still install, and later hit.
        slicer.slice(&sites[1]).unwrap();
        assert_eq!(slicer.memo_len(), 2);
        let batch = slicer.slice_batch(&sites).unwrap();
        assert_eq!(batch.aggregate.memo_hits_backward, 2);
        assert_eq!(slicer.memo_hits(), 3);
    }
}
