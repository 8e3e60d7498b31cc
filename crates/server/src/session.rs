//! The session manager: one warm [`Slicer`] per analyzed program, shared by
//! every connection, with LRU eviction under a memory budget and snapshot
//! persistence for warm restarts.
//!
//! # Session lifecycle
//!
//! `open` normalizes the submitted source through the MiniC frontend and
//! keys the session by the FxHash of the pretty-printed normalized program —
//! so two clients submitting formatting variants of the same program share
//! one session (and one memo). Lookup order:
//!
//! 1. **live** — a session with that content key is in the table; touch its
//!    LRU stamp and share it.
//! 2. **snapshot** — `{snapshot_dir}/{key:016x}.snap` exists; build a fresh
//!    [`Slicer`] from the source and import the snapshot's memo
//!    ([`Slicer::import_memo`], which reads every entry's rows out of its
//!    `A6` again). A rejected snapshot (truncated, corrupt, wrong version,
//!    wrong program, or an entry whose key or `A6` fails the session's
//!    checks) degrades to a cold open and the structured reason is
//!    reported in the `open` response — never an error, never a panic.
//! 3. **cold** — build a fresh session.
//!
//! After every open, sessions are evicted in LRU order while the summed
//! [`Slicer::approx_bytes`] estimate exceeds the configured budget (the
//! just-opened session is exempt — opening a program larger than the budget
//! must not thrash). Evicted and shut-down sessions are snapshotted, which
//! is what makes the next open warm.
//!
//! # Edits re-key the session
//!
//! [`SessionManager::apply_edit`] changes the session's program, and with it
//! the content hash. The session is re-keyed under the new hash — a
//! subsequent `open` of the *original* source must not find the edited
//! session — and the old id is kept as an **alias**, so clients holding the
//! pre-edit id keep their handle. The current id is returned in every
//! `apply_edit` response.
//!
//! # Concurrency
//!
//! Each session holds its [`Slicer`] behind an [`RwLock`]: queries
//! (`slice`, `slice_batch`, …) share read locks and run concurrently —
//! `Slicer` is `Sync` — while `apply_edit` takes the write lock, so edits
//! serialize against queries and the dense-id criteria clients hold are
//! never interpreted against a half-updated program. Handlers look up the
//! session per request and never cache the `Arc` across requests, so
//! eviction is always safe: a concurrently evicted session finishes its
//! in-flight requests on the final `Arc` and is dropped afterwards.
//!
//! Lock order is **slicer before table**: paths that hold a slicer lock may
//! take the (brief) table lock, but nothing blocks on a slicer lock while
//! holding the table lock.

use crate::snapshot::{self, SnapshotError};
use specslice::{EditReport, ProgramDelta, Slicer, SlicerConfig, SpecError};
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Hashes normalized source text into a session key (FxHash64 — the
/// workspace's deterministic hasher).
pub fn session_key(normalized_source: &str) -> u64 {
    let mut h = specslice_fsa::hash::FxHasher::default();
    h.write(normalized_source.as_bytes());
    h.finish()
}

/// The wire form of a session key: 16 lowercase hex digits.
pub fn format_id(key: u64) -> String {
    format!("{key:016x}")
}

/// The mutable identity of a session (changes when an edit re-keys it).
#[derive(Clone)]
pub struct SessionMeta {
    /// Content hash of the current normalized source.
    pub key: u64,
    /// The key in wire form ([`format_id`]).
    pub id: String,
    /// The current normalized (pretty-printed) source.
    pub source: String,
}

/// One live session: a warm [`Slicer`] for one program.
pub struct Session {
    meta: Mutex<SessionMeta>,
    slicer: RwLock<Slicer>,
    /// LRU stamp: the manager's logical clock value at last use.
    last_touch: AtomicU64,
    /// Whether this session was restored from a snapshot.
    pub warm: bool,
    /// Memo entries imported from the snapshot at open (0 for cold opens).
    pub memo_imported: usize,
    /// Why the snapshot was *not* used, when one existed but was rejected.
    pub snapshot_warning: Option<String>,
}

impl Session {
    /// The session's current identity (key, wire id, normalized source).
    pub fn meta(&self) -> SessionMeta {
        match self.meta.lock() {
            Ok(g) => g.clone(),
            Err(e) => e.into_inner().clone(),
        }
    }

    /// The session's current wire id.
    pub fn id(&self) -> String {
        self.meta().id
    }

    /// Read access to the slicer (concurrent queries). Lock poisoning is
    /// shrugged off: the `Slicer`'s `&self` query methods never leave it in
    /// a half-updated state (they mutate only behind its own interior
    /// locks), so a panicking request must not take the whole session down.
    pub fn slicer(&self) -> RwLockReadGuard<'_, Slicer> {
        match self.slicer.read() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    /// Write access to the slicer (edits; serializes against queries).
    pub fn slicer_mut(&self) -> RwLockWriteGuard<'_, Slicer> {
        match self.slicer.write() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    /// The session's estimated resident bytes (see [`Slicer::approx_bytes`]).
    pub fn approx_bytes(&self) -> usize {
        self.slicer().approx_bytes()
    }

    /// The LRU stamp (for `list_sessions` diagnostics).
    pub fn last_touch(&self) -> u64 {
        self.last_touch.load(Ordering::Relaxed)
    }
}

/// Counters exposed by the `stats` request.
#[derive(Debug, Default)]
pub struct ManagerCounters {
    /// Sessions opened cold (no snapshot available, or snapshot rejected).
    pub cold_opens: AtomicU64,
    /// Sessions restored from a snapshot.
    pub warm_starts: AtomicU64,
    /// Sessions evicted (LRU budget or explicit `evict`).
    pub evictions: AtomicU64,
    /// Snapshot files written (evictions + shutdown).
    pub snapshots_written: AtomicU64,
}

/// How a session was produced by [`SessionManager::open`].
pub struct OpenOutcome {
    /// The opened (or re-used) session.
    pub session: Arc<Session>,
    /// `true` when the session already existed in the live table.
    pub existing: bool,
}

/// The session table: live sessions by current content key, plus aliases
/// from retired (pre-edit) keys to current ones.
#[derive(Default)]
struct Table {
    by_key: HashMap<u64, Arc<Session>>,
    aliases: HashMap<u64, u64>,
}

impl Table {
    fn resolve(&self, key: u64) -> Option<&Arc<Session>> {
        self.by_key
            .get(&key)
            .or_else(|| self.by_key.get(self.aliases.get(&key)?))
    }

    fn remove(&mut self, key: u64) -> Option<Arc<Session>> {
        let session = self.by_key.remove(&key)?;
        self.aliases.retain(|_, target| *target != key);
        Some(session)
    }
}

/// The shared session table.
pub struct SessionManager {
    table: Mutex<Table>,
    /// Logical clock for LRU stamps (bumped on every touch).
    clock: AtomicU64,
    /// Byte budget for the summed session estimates; `None` = unlimited.
    budget_bytes: Option<usize>,
    /// Directory for snapshot files; `None` disables persistence.
    snapshot_dir: Option<PathBuf>,
    /// `SlicerConfig` template for new sessions (thread width etc.).
    slicer_config: SlicerConfig,
    /// Observable counters.
    pub counters: ManagerCounters,
}

impl SessionManager {
    /// Creates a manager. `budget_bytes = None` disables eviction,
    /// `snapshot_dir = None` disables persistence.
    pub fn new(
        budget_bytes: Option<usize>,
        snapshot_dir: Option<PathBuf>,
        slicer_config: SlicerConfig,
    ) -> SessionManager {
        SessionManager {
            table: Mutex::new(Table::default()),
            clock: AtomicU64::new(0),
            budget_bytes,
            snapshot_dir,
            slicer_config,
            counters: ManagerCounters::default(),
        }
    }

    fn touch(&self, session: &Session) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        session.last_touch.store(now, Ordering::Relaxed);
    }

    fn table(&self) -> MutexGuard<'_, Table> {
        match self.table.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        }
    }

    fn snapshot_path(&self, key: u64) -> Option<PathBuf> {
        self.snapshot_dir
            .as_ref()
            .map(|d| d.join(format!("{}.snap", format_id(key))))
    }

    /// Opens (or re-uses) the session for `source`.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when the frontend or SDG construction rejects the
    /// source. Snapshot problems are *not* errors — they degrade to a cold
    /// open with [`Session::snapshot_warning`] set.
    pub fn open(&self, source: &str) -> Result<OpenOutcome, SpecError> {
        let program = specslice::frontend(source)?;
        let normalized = specslice_lang::pretty(&program);
        let key = session_key(&normalized);

        if let Some(session) = self.table().by_key.get(&key).cloned() {
            self.touch(&session);
            return Ok(OpenOutcome {
                session,
                existing: true,
            });
        }

        let slicer = Slicer::from_program_with(program, self.slicer_config)?;

        // Try the snapshot; any failure is recorded and shrugged off.
        let mut warm = false;
        let mut memo_imported = 0usize;
        let mut snapshot_warning = None;
        if let Some(path) = self.snapshot_path(key) {
            match snapshot::read_file(&path, key) {
                Ok(snap) => match slicer.import_memo(&snap.entries) {
                    Ok(n) => {
                        warm = true;
                        memo_imported = n;
                    }
                    Err(e) => snapshot_warning = Some(e.to_string()),
                },
                Err(SnapshotError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => snapshot_warning = Some(e.to_string()),
            }
        }
        if warm {
            self.counters.warm_starts.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.cold_opens.fetch_add(1, Ordering::Relaxed);
        }

        let session = Arc::new(Session {
            meta: Mutex::new(SessionMeta {
                key,
                id: format_id(key),
                source: normalized,
            }),
            slicer: RwLock::new(slicer),
            last_touch: AtomicU64::new(0),
            warm,
            memo_imported,
            snapshot_warning,
        });
        self.touch(&session);

        // Insert, double-checking the table: a racing open of the same
        // program may have inserted first — share its session so both
        // clients see one memo.
        let session = {
            let mut table = self.table();
            if let Some(existing) = table.by_key.get(&key).cloned() {
                self.touch(&existing);
                return Ok(OpenOutcome {
                    session: existing,
                    existing: true,
                });
            }
            table.by_key.insert(key, session.clone());
            session
        };
        self.enforce_budget(key);
        Ok(OpenOutcome {
            session,
            existing: false,
        })
    }

    /// The live session with wire id `id` (16 hex digits; pre-edit aliases
    /// resolve to the re-keyed session).
    pub fn get(&self, id: &str) -> Option<Arc<Session>> {
        let key = u64::from_str_radix(id, 16).ok()?;
        let session = self.table().resolve(key).cloned()?;
        self.touch(&session);
        Some(session)
    }

    /// Applies `delta` to `session` under its write lock (serializing
    /// against in-flight queries), then re-keys the session under the hash
    /// of the edited program. The previous id is kept as an alias. Returns
    /// the edit report and the session's current (possibly new) wire id.
    ///
    /// # Errors
    ///
    /// Whatever [`Slicer::apply_edit`] reports; on error the session is
    /// unchanged and keeps its key.
    pub fn apply_edit(
        &self,
        session: &Session,
        delta: &ProgramDelta,
    ) -> Result<(EditReport, String), SpecError> {
        let mut slicer = session.slicer_mut();
        self.apply_locked(session, &mut slicer, delta)
    }

    /// Source-diff form of [`SessionManager::apply_edit`]: parses
    /// `new_source`, diffs it against the session's current program *under
    /// the write lock* (so a racing edit cannot stale the diff), and applies
    /// the resulting delta.
    ///
    /// # Errors
    ///
    /// Frontend errors for `new_source`, plus whatever
    /// [`Slicer::apply_edit`] reports.
    pub fn apply_edit_source(
        &self,
        session: &Session,
        new_source: &str,
    ) -> Result<(EditReport, String), SpecError> {
        let new_program = specslice::frontend(new_source)?;
        let mut slicer = session.slicer_mut();
        let old = slicer.program().ok_or_else(|| {
            SpecError::internal("apply_edit", "session has no program to diff against")
        })?;
        let delta = ProgramDelta::diff(old, &new_program);
        self.apply_locked(session, &mut slicer, &delta)
    }

    fn apply_locked(
        &self,
        session: &Session,
        slicer: &mut Slicer,
        delta: &ProgramDelta,
    ) -> Result<(EditReport, String), SpecError> {
        let report = slicer.apply_edit(delta)?;
        let program = slicer.program().ok_or_else(|| {
            SpecError::internal("apply_edit", "session has no program after edit")
        })?;
        let normalized = specslice_lang::pretty(program);
        let new_key = session_key(&normalized);

        let old = session.meta();
        if new_key != old.key {
            // Re-key (slicer write lock held ⇒ table lock is safe; see the
            // module's lock-order note).
            let mut table = self.table();
            if let Some(arc) = table.by_key.remove(&old.key) {
                // Everything that aliased the old key follows it.
                for target in table.aliases.values_mut() {
                    if *target == old.key {
                        *target = new_key;
                    }
                }
                table.aliases.insert(old.key, new_key);
                table.by_key.insert(new_key, arc);
            }
            let mut meta = match session.meta.lock() {
                Ok(g) => g,
                Err(e) => e.into_inner(),
            };
            *meta = SessionMeta {
                key: new_key,
                id: format_id(new_key),
                source: normalized,
            };
        }
        Ok((report, format_id(new_key)))
    }

    /// All live sessions, LRU-oldest first.
    pub fn list(&self) -> Vec<Arc<Session>> {
        let mut sessions: Vec<Arc<Session>> = self.table().by_key.values().cloned().collect();
        sessions.sort_by_key(|s| s.last_touch.load(Ordering::Relaxed));
        sessions
    }

    /// Evicts sessions in LRU order while the summed byte estimate exceeds
    /// the budget. `keep` (the session that triggered the rebalance) is
    /// never evicted. Sessions with in-flight requests (read or write locks
    /// held) are skipped — busy is the opposite of cold.
    fn enforce_budget(&self, keep: u64) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        loop {
            // Collect candidates under the table lock, then size them up
            // outside it (approx_bytes takes the slicer read lock, which
            // must not happen while the table lock is held).
            let mut sessions = self.list();
            let total: usize = sessions.iter().map(|s| s.approx_bytes()).sum();
            if total <= budget {
                return;
            }
            sessions.retain(|s| s.meta().key != keep);
            let Some(victim) = sessions.first().cloned() else {
                return; // only `keep` is resident; never evict it
            };
            // A busy session is skipped entirely this round rather than
            // retried — the loop would otherwise spin on it.
            let Ok(guard) = victim.slicer.try_write() else {
                return;
            };
            let meta = victim.meta();
            self.write_snapshot(&meta, &guard);
            drop(guard);
            if self.table().remove(meta.key).is_none() {
                return; // raced with another evictor; re-assess
            }
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Explicitly evicts the session with wire id `id`, snapshotting it
    /// first. Returns `false` when no such session is live.
    pub fn evict(&self, id: &str) -> bool {
        let Ok(key) = u64::from_str_radix(id, 16) else {
            return false;
        };
        let Some(session) = self.table().resolve(key).cloned() else {
            return false;
        };
        let guard = session.slicer(); // waits for in-flight edits
        let meta = session.meta();
        self.write_snapshot(&meta, &guard);
        drop(guard);
        if self.table().remove(meta.key).is_none() {
            return false;
        }
        self.counters.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Writes one session's snapshot (best-effort; errors go to stderr —
    /// persistence must never take down the serving path).
    fn write_snapshot(&self, meta: &SessionMeta, slicer: &Slicer) {
        let Some(path) = self.snapshot_path(meta.key) else {
            return;
        };
        let image = snapshot::encode(meta.key, &meta.source, &slicer.export_memo());
        match snapshot::write_file(&path, &image) {
            Ok(()) => {
                self.counters
                    .snapshots_written
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!(
                    "specslice-server: failed to snapshot session {}: {e}",
                    meta.id
                );
            }
        }
    }

    /// Snapshots every live session (shutdown path). Returns how many
    /// snapshots were written.
    pub fn snapshot_all(&self) -> u64 {
        let before = self.counters.snapshots_written.load(Ordering::Relaxed);
        for session in self.list() {
            let guard = session.slicer();
            let meta = session.meta();
            self.write_snapshot(&meta, &guard);
        }
        self.counters.snapshots_written.load(Ordering::Relaxed) - before
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.table().by_key.len()
    }

    /// Whether no sessions are live.
    pub fn is_empty(&self) -> bool {
        self.table().by_key.is_empty()
    }

    /// The configured budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget_bytes
    }

    /// Whether snapshot persistence is enabled.
    pub fn persistent(&self) -> bool {
        self.snapshot_dir.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specslice::Criterion;
    use specslice_lang::ProgramEdit;

    const PROGRAM: &str = r#"
        int g;
        void inc(int x) { g = g + x; }
        int main() { g = 0; inc(2); inc(3); printf("%d", g); return 0; }
    "#;

    fn config() -> SlicerConfig {
        SlicerConfig {
            num_threads: 1,
            ..SlicerConfig::default()
        }
    }

    fn criterion(slicer: &Slicer) -> Criterion {
        Criterion::printf_actuals(slicer.sdg())
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("specslice-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_is_keyed_by_normalized_source() {
        let mgr = SessionManager::new(None, None, config());
        let a = mgr.open(PROGRAM).unwrap();
        assert!(!a.existing);
        // Same program, different whitespace ⇒ same session.
        let reformatted = PROGRAM.replace("  ", " ");
        let b = mgr.open(&reformatted).unwrap();
        assert!(b.existing);
        assert_eq!(a.session.meta().key, b.session.meta().key);
        assert_eq!(mgr.len(), 1);
    }

    #[test]
    fn snapshot_round_trip_makes_next_open_warm() {
        let dir = temp_dir("mgr-warm");
        let mgr = SessionManager::new(None, Some(dir.clone()), config());
        let opened = mgr.open(PROGRAM).unwrap();
        assert!(!opened.session.warm);
        let c = criterion(&opened.session.slicer());
        let cold = format!("{:?}", opened.session.slicer().slice(&c).unwrap());
        assert!(mgr.evict(&opened.session.id()));
        assert_eq!(mgr.len(), 0);

        // Second manager (a "restarted server") warm-starts from the file.
        let mgr2 = SessionManager::new(None, Some(dir.clone()), config());
        let reopened = mgr2.open(PROGRAM).unwrap();
        assert!(
            reopened.session.warm,
            "{:?}",
            reopened.session.snapshot_warning
        );
        assert_eq!(reopened.session.memo_imported, 1);
        let slicer = reopened.session.slicer();
        let warmed = format!("{:?}", slicer.slice(&c).unwrap());
        assert_eq!(warmed, cold, "warm slice must be byte-identical");
        assert_eq!(
            slicer.memo_hits(),
            1,
            "first repeated query must hit the memo"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_degrades_to_cold_open() {
        let dir = temp_dir("mgr-bad");
        let mgr = SessionManager::new(None, Some(dir.clone()), config());
        let opened = mgr.open(PROGRAM).unwrap();
        let path = dir.join(format!("{}.snap", opened.session.id()));
        mgr.evict(&opened.session.id());
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mgr2 = SessionManager::new(None, Some(dir.clone()), config());
        let reopened = mgr2.open(PROGRAM).unwrap();
        assert!(!reopened.session.warm);
        let warning = reopened.session.snapshot_warning.as_deref().unwrap();
        assert!(
            warning.contains("checksum") || warning.contains("corrupt"),
            "{warning}"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_eviction_respects_budget_and_keeps_the_new_session() {
        let dir = temp_dir("mgr-lru");
        // A budget of 1 byte forces every open to evict everything else.
        let mgr = SessionManager::new(Some(1), Some(dir.clone()), config());
        let a = mgr.open(PROGRAM).unwrap();
        let a_id = a.session.id();
        let other = PROGRAM.replace("inc(3);", "inc(4);");
        let b = mgr.open(&other).unwrap();
        let b_id = b.session.id();
        assert_ne!(a_id, b_id);
        // Opening B evicted A (but never B itself).
        assert_eq!(mgr.len(), 1);
        assert!(mgr.get(&b_id).is_some());
        assert!(mgr.get(&a_id).is_none());
        assert_eq!(mgr.counters.evictions.load(Ordering::Relaxed), 1);
        // A's snapshot exists, so re-opening it is warm (and evicts B).
        let a2 = mgr.open(PROGRAM).unwrap();
        assert!(mgr.get(&a2.session.id()).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn edits_rekey_and_alias() {
        let mgr = SessionManager::new(None, None, config());
        let opened = mgr.open(PROGRAM).unwrap();
        let old_id = opened.session.id();

        let edit = ProgramEdit::replace_function_src("void inc(int x) { g = g + x + 1; }").unwrap();
        let (report, new_id) = mgr
            .apply_edit(&opened.session, &ProgramDelta::single(edit))
            .unwrap();
        assert!(
            report.full_rebuild || report.rebuilt_procs.iter().any(|p| p == "inc"),
            "{report:?}"
        );
        assert_ne!(new_id, old_id, "an edit must re-key the session");

        // Both ids resolve to the same session.
        let via_old = mgr.get(&old_id).unwrap();
        let via_new = mgr.get(&new_id).unwrap();
        assert!(Arc::ptr_eq(&via_old, &via_new));
        assert_eq!(mgr.len(), 1);

        // Opening the ORIGINAL source now builds a fresh session — the
        // edited one must not leak back to it.
        let fresh = mgr.open(PROGRAM).unwrap();
        assert!(!fresh.existing);
        assert_eq!(fresh.session.id(), old_id);
        assert_eq!(mgr.len(), 2);
        // The alias now shadows…: explicit key lookup prefers the live
        // session with that exact key over the alias.
        let got = mgr.get(&old_id).unwrap();
        assert!(Arc::ptr_eq(&got, &fresh.session));

        // Opening the EDITED source re-uses the edited session.
        let edited_src = via_new.meta().source;
        let again = mgr.open(&edited_src).unwrap();
        assert!(again.existing);
        assert!(Arc::ptr_eq(&again.session, &via_new));
    }
}
