//! Session snapshots: a compact binary image of a session's normalized
//! source and its criterion → slice memo, written on eviction and shutdown
//! and loaded on `open` for warm starts.
//!
//! # Format (all integers little-endian)
//!
//! ```text
//! snapshot := magic version key source entries checksum
//! magic    := "SSLSNAP\0"                      (8 bytes)
//! version  := u32                              (FORMAT_VERSION)
//! key      := u64     content hash of the normalized source
//! source   := u32 len, then len bytes of UTF-8 (normalized pretty-printed)
//! entries  := u32 count, then count × entry
//! entry    := memo-key nfa variants main stats
//! memo-key := tag body
//! tag      := 0x00 | 0x01   -- backward entry (all-contexts | configurations)
//!           | 0x02 | 0x03   -- forward entry  (all-contexts | configurations)
//! body     := u32 count (u32 vertex)×count                                (tags 0x00/0x02)
//!           | u32 count (u32 vertex, u32 depth, (u32 site)×depth)×count   (tags 0x01/0x03)
//! nfa      := u32 n_states
//!             u32 n_finals (u32 state)×n_finals
//!             u32 n_trans  (u32 from, u32 label, u32 to)×n_trans
//!             -- label 0 is ε; label k>0 encodes Symbol(k-1)
//! variants := u32 count, then count ×
//!             (u32 proc, str name, u32 n_calls (u32 site, u32 callee)×n,
//!              u32 state, u32 row_len (u32 vertex)×row_len)
//! str      := u32 len, then len bytes of UTF-8
//! main     := u32     variant index; 0xFFFF_FFFF encodes "no main variant"
//! stats    := 18 × u64  (PipelineStats sizes + MrdStats + saturation
//!             counter + per-direction memo counters + query µs)
//! checksum := u64     FNV-1a over every preceding byte
//! ```
//!
//! Decoding is fully bounds-checked and returns structured
//! [`SnapshotError`]s — a truncated, corrupted, or version-bumped file is
//! reported, never a panic. The checksum is verified before any field is
//! interpreted, so random corruption is caught up front; the per-field
//! checks behind it catch *structured* corruption (and snapshots written by
//! a different program — the caller compares [`Snapshot::key`] against the
//! session key it derived from the source).

use crate::json::Json;
use crate::proto::{self, error_payload};
use specslice::{Direction, MemoExport, MemoExportVariant, MemoKeyExport, PipelineStats};
use specslice_fsa::mrd::MrdStats;
use specslice_fsa::{Nfa, StateId, Symbol};
use std::fmt;
use std::time::Duration;

/// Leading magic bytes of a snapshot file.
pub const MAGIC: &[u8; 8] = b"SSLSNAP\0";

/// Current snapshot format version. Version 2 widened the stats block with
/// the `saturations_run` / `criteria_per_saturation` counters; version 3
/// tagged memo keys with the saturation direction (forward entries use tags
/// 0x02/0x03) and widened the stats block with the per-direction memo
/// hit/miss counters; version 4 dropped `criteria_per_saturation` again
/// (every saturation answers one criterion).
pub const FORMAT_VERSION: u32 = 4;

/// Sentinel for "no main variant".
const NO_MAIN: u32 = u32::MAX;

/// Why a snapshot file was rejected.
#[derive(Debug)]
pub enum SnapshotError {
    /// The file ends before a declared field.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
        /// The field being decoded.
        field: &'static str,
    },
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The trailing checksum does not match the content.
    ChecksumMismatch,
    /// A field decodes but violates the format's invariants.
    Corrupt(String),
    /// The snapshot's content hash does not match the session it was opened
    /// for.
    KeyMismatch {
        /// Hash the session derived from the source.
        expected: u64,
        /// Hash recorded in the snapshot.
        found: u64,
    },
    /// Filesystem error while reading or writing the snapshot.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset, field } => {
                write!(
                    f,
                    "snapshot truncated at byte {offset} while reading {field}"
                )
            }
            SnapshotError::BadMagic => write!(f, "not a specslice snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "snapshot format version {found} not supported (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
            SnapshotError::KeyMismatch { expected, found } => write!(
                f,
                "snapshot is for a different program (key {found:016x}, session {expected:016x})"
            ),
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl SnapshotError {
    /// The structured wire payload for this error (kind `snapshot`).
    pub fn payload(&self) -> Json {
        error_payload(proto::kind::SNAPSHOT, self.to_string())
    }
}

/// A decoded snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// Content hash of the normalized source (the session key).
    pub key: u64,
    /// The normalized (pretty-printed) program source.
    pub source: String,
    /// The exported memo entries.
    pub entries: Vec<MemoExport>,
}

/// FNV-1a over `bytes` — the same deterministic construction as
/// `specslice_fsa::hash`, restated here because the snapshot format is
/// defined by this module, not by whatever the hash crate evolves into.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------- encoding

struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn u32_slice(&mut self, vs: &[u32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.u32(v);
        }
    }
}

/// Encodes a snapshot image for `source` (hash `key`) and its exported memo
/// `entries`.
pub fn encode(key: u64, source: &str, entries: &[MemoExport]) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    e.buf.extend_from_slice(MAGIC);
    e.u32(FORMAT_VERSION);
    e.u64(key);
    e.str(source);
    e.u32(entries.len() as u32);
    for entry in entries {
        let dir_tag = match entry.direction {
            Direction::Backward => 0u8,
            Direction::Forward => 2u8,
        };
        match &entry.key {
            MemoKeyExport::AllContexts(vs) => {
                e.buf.push(dir_tag);
                e.u32_slice(vs);
            }
            MemoKeyExport::Configurations(cs) => {
                e.buf.push(dir_tag | 1);
                e.u32(cs.len() as u32);
                for (v, stack) in cs {
                    e.u32(*v);
                    e.u32_slice(stack);
                }
            }
        }
        encode_nfa(&mut e, &entry.a6);
        e.u32(entry.variants.len() as u32);
        for v in &entry.variants {
            e.u32(v.proc);
            e.str(&v.name);
            e.u32(v.calls.len() as u32);
            for &(site, callee) in &v.calls {
                e.u32(site);
                e.u32(callee);
            }
            e.u32(v.state);
            e.u32_slice(&v.row);
        }
        e.u32(entry.main_variant.unwrap_or(NO_MAIN));
        encode_stats(&mut e, &entry.stats);
    }
    let checksum = fnv1a(&e.buf);
    e.u64(checksum);
    e.buf
}

fn encode_nfa(e: &mut Enc, a: &Nfa) {
    e.u32(a.state_count() as u32);
    e.u32(a.finals().len() as u32);
    for &q in a.finals() {
        e.u32(q.0);
    }
    let transitions: Vec<_> = a.transitions().collect();
    e.u32(transitions.len() as u32);
    for (from, label, to) in transitions {
        e.u32(from.0);
        e.u32(label.map_or(0, |s| s.0 + 1));
        e.u32(to.0);
    }
}

fn encode_stats(e: &mut Enc, s: &PipelineStats) {
    for v in [
        s.pds_rules,
        s.saturation_transitions,
        s.saturation_peak_bytes,
        s.saturation_rule_applications,
        s.saturation_peak_worklist,
        s.a1_states,
        s.a1_transitions,
        s.mrd.input_states,
        s.mrd.determinized_states,
        s.mrd.minimized_states,
        s.mrd.mrd_states,
        s.mrd.mrd_transitions,
        s.saturations_run,
        s.memo_hits_backward,
        s.memo_misses_backward,
        s.memo_hits_forward,
        s.memo_misses_forward,
    ] {
        e.u64(v as u64);
    }
    e.u64(s.query_time.as_micros() as u64);
}

// ---------------------------------------------------------------- decoding

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(SnapshotError::Truncated {
                offset: self.pos,
                field,
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, field)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a count field, rejecting counts that could not possibly fit in
    /// the remaining bytes (each element is at least `min_elem_bytes`) —
    /// this keeps a corrupt count from driving a huge allocation.
    fn count(
        &mut self,
        field: &'static str,
        min_elem_bytes: usize,
    ) -> Result<usize, SnapshotError> {
        let n = self.u32(field)? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_elem_bytes) > remaining {
            return Err(SnapshotError::Corrupt(format!(
                "count {n} for {field} exceeds remaining {remaining} bytes"
            )));
        }
        Ok(n)
    }

    fn str(&mut self, field: &'static str) -> Result<String, SnapshotError> {
        let len = self.count(field, 1)?;
        let bytes = self.take(len, field)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("{field} is not UTF-8")))
    }

    fn u32_vec(&mut self, field: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let n = self.count(field, 4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32(field)?);
        }
        Ok(out)
    }
}

/// Decodes a snapshot image.
///
/// # Errors
///
/// Any [`SnapshotError`] except `KeyMismatch`/`Io` (those are produced by
/// callers that know the expected key / touch the filesystem).
pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    // Checksum first: the trailing 8 bytes must be FNV-1a of the rest.
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
            field: "header",
        });
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut d = Dec {
        bytes,
        pos: MAGIC.len(),
    };
    let version = d.u32("version")?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let (content, tail) = bytes.split_at(bytes.len() - 8);
    let declared = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(content) != declared {
        return Err(SnapshotError::ChecksumMismatch);
    }
    // Re-scope the decoder to the checksummed content.
    d.bytes = content;

    let key = d.u64("key")?;
    let source = d.str("source")?;
    let n_entries = d.count("entry count", 2)?;
    let mut entries = Vec::with_capacity(n_entries);
    for _ in 0..n_entries {
        entries.push(decode_entry(&mut d)?);
    }
    if d.pos != content.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after last entry",
            content.len() - d.pos
        )));
    }
    Ok(Snapshot {
        key,
        source,
        entries,
    })
}

fn decode_entry(d: &mut Dec<'_>) -> Result<MemoExport, SnapshotError> {
    let tag = d.take(1, "key tag")?[0];
    if tag > 3 {
        return Err(SnapshotError::Corrupt(format!(
            "unknown memo-key tag {tag}"
        )));
    }
    let direction = if tag & 2 == 0 {
        Direction::Backward
    } else {
        Direction::Forward
    };
    let key = if tag & 1 == 0 {
        MemoKeyExport::AllContexts(d.u32_vec("all-contexts key")?)
    } else {
        let n = d.count("configurations key", 8)?;
        let mut cs = Vec::with_capacity(n);
        for _ in 0..n {
            let v = d.u32("configuration vertex")?;
            let stack = d.u32_vec("configuration stack")?;
            cs.push((v, stack));
        }
        MemoKeyExport::Configurations(cs)
    };
    let a6 = decode_nfa(d)?;
    let n_variants = d.count("variant count", 20)?;
    let mut variants = Vec::with_capacity(n_variants);
    for _ in 0..n_variants {
        let proc = d.u32("variant proc")?;
        let name = d.str("variant name")?;
        let n_calls = d.count("variant call count", 8)?;
        let mut calls = Vec::with_capacity(n_calls);
        for _ in 0..n_calls {
            let site = d.u32("call site")?;
            let callee = d.u32("callee index")?;
            calls.push((site, callee));
        }
        let state = d.u32("variant state")?;
        let row = d.u32_vec("variant row")?;
        variants.push(MemoExportVariant {
            proc,
            name,
            calls,
            state,
            row,
        });
    }
    let main_variant = match d.u32("main variant")? {
        NO_MAIN => None,
        m => Some(m),
    };
    let stats = decode_stats(d)?;
    Ok(MemoExport {
        direction,
        key,
        a6,
        variants,
        main_variant,
        stats,
    })
}

fn decode_nfa(d: &mut Dec<'_>) -> Result<Nfa, SnapshotError> {
    let n_states = d.u32("nfa state count")?;
    if n_states == 0 {
        return Err(SnapshotError::Corrupt(
            "automaton with zero states".to_string(),
        ));
    }
    // An Nfa always has its initial state; guard the count so a corrupt
    // value cannot make us loop for 2^32 iterations.
    let remaining = d.bytes.len() - d.pos;
    if n_states as usize > remaining.saturating_mul(1024) + 1024 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible automaton state count {n_states}"
        )));
    }
    let mut a = Nfa::new();
    for _ in 1..n_states {
        a.add_state();
    }
    let n_finals = d.count("nfa final count", 4)?;
    for _ in 0..n_finals {
        let q = d.u32("nfa final state")?;
        if q >= n_states {
            return Err(SnapshotError::Corrupt(format!(
                "final state {q} out of range (< {n_states})"
            )));
        }
        a.set_final(StateId(q));
    }
    let n_trans = d.count("nfa transition count", 12)?;
    for _ in 0..n_trans {
        let from = d.u32("transition source")?;
        let label = d.u32("transition label")?;
        let to = d.u32("transition target")?;
        if from >= n_states || to >= n_states {
            return Err(SnapshotError::Corrupt(format!(
                "transition {from}->{to} out of range (< {n_states})"
            )));
        }
        let label = match label {
            0 => None,
            k => Some(Symbol(k - 1)),
        };
        a.add_transition(StateId(from), label, StateId(to));
    }
    Ok(a)
}

fn decode_stats(d: &mut Dec<'_>) -> Result<PipelineStats, SnapshotError> {
    let mut read = |field| -> Result<usize, SnapshotError> {
        let v = d.u64(field)?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt(format!("{field} {v} exceeds usize")))
    };
    let pds_rules = read("stats.pds_rules")?;
    let saturation_transitions = read("stats.saturation_transitions")?;
    let saturation_peak_bytes = read("stats.saturation_peak_bytes")?;
    let saturation_rule_applications = read("stats.saturation_rule_applications")?;
    let saturation_peak_worklist = read("stats.saturation_peak_worklist")?;
    let a1_states = read("stats.a1_states")?;
    let a1_transitions = read("stats.a1_transitions")?;
    let input_states = read("stats.mrd.input_states")?;
    let determinized_states = read("stats.mrd.determinized_states")?;
    let minimized_states = read("stats.mrd.minimized_states")?;
    let mrd_states = read("stats.mrd.mrd_states")?;
    let mrd_transitions = read("stats.mrd.mrd_transitions")?;
    let saturations_run = read("stats.saturations_run")?;
    let memo_hits_backward = read("stats.memo_hits_backward")?;
    let memo_misses_backward = read("stats.memo_misses_backward")?;
    let memo_hits_forward = read("stats.memo_hits_forward")?;
    let memo_misses_forward = read("stats.memo_misses_forward")?;
    let micros = d.u64("stats.query_micros")?;
    Ok(PipelineStats {
        pds_rules,
        saturation_transitions,
        saturation_peak_bytes,
        saturation_rule_applications,
        saturation_peak_worklist,
        a1_states,
        a1_transitions,
        mrd: MrdStats {
            input_states,
            determinized_states,
            minimized_states,
            mrd_states,
            mrd_transitions,
        },
        saturations_run,
        memo_hits_backward,
        memo_misses_backward,
        memo_hits_forward,
        memo_misses_forward,
        query_time: Duration::from_micros(micros),
    })
}

// ---------------------------------------------------------------- file i/o

/// Writes a snapshot image atomically: to `path` with a `.tmp` suffix, then
/// renamed into place, so a crash mid-write never leaves a torn file where
/// the loader will look.
///
/// # Errors
///
/// [`SnapshotError::Io`] on filesystem failures.
pub fn write_file(path: &std::path::Path, image: &[u8]) -> Result<(), SnapshotError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, image).map_err(SnapshotError::Io)?;
    std::fs::rename(&tmp, path).map_err(SnapshotError::Io)
}

/// Reads and decodes a snapshot, verifying it matches `expected_key`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be read, any decode error,
/// and [`SnapshotError::KeyMismatch`] when the snapshot belongs to a
/// different program.
pub fn read_file(path: &std::path::Path, expected_key: u64) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
    let snapshot = decode(&bytes)?;
    if snapshot.key != expected_key {
        return Err(SnapshotError::KeyMismatch {
            expected: expected_key,
            found: snapshot.key,
        });
    }
    Ok(snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<MemoExport> {
        let mut a6 = Nfa::new();
        let q1 = a6.add_state();
        a6.add_transition(a6.initial(), Some(Symbol(3)), q1);
        a6.add_transition(q1, None, q1);
        a6.set_final(q1);
        let backward = MemoExport {
            direction: Direction::Backward,
            key: MemoKeyExport::AllContexts(vec![1, 4, 7]),
            a6,
            variants: vec![MemoExportVariant {
                proc: 0,
                name: "main".to_string(),
                calls: vec![(0, 1), (2, 0)],
                state: 1,
                row: vec![1, 4, 7],
            }],
            main_variant: Some(0),
            stats: PipelineStats {
                pds_rules: 10,
                saturation_transitions: 20,
                saturation_peak_bytes: 30,
                saturation_rule_applications: 40,
                saturation_peak_worklist: 5,
                a1_states: 6,
                a1_transitions: 7,
                mrd: MrdStats {
                    input_states: 6,
                    determinized_states: 5,
                    minimized_states: 4,
                    mrd_states: 4,
                    mrd_transitions: 8,
                },
                saturations_run: 1,
                memo_hits_backward: 0,
                memo_misses_backward: 1,
                memo_hits_forward: 0,
                memo_misses_forward: 0,
                query_time: Duration::from_micros(1234),
            },
        };
        // A forward entry with the same select shape (tag 0x02 must not
        // collide with tag 0x00) plus a forward configurations key (0x03).
        let mut forward = backward.clone();
        forward.direction = Direction::Forward;
        forward.stats.memo_misses_backward = 0;
        forward.stats.memo_misses_forward = 1;
        let mut forward_cfg = forward.clone();
        forward_cfg.key = MemoKeyExport::Configurations(vec![(1, vec![0, 2]), (4, vec![])]);
        vec![backward, forward, forward_cfg]
    }

    #[test]
    fn round_trip() {
        let entries = sample_entries();
        let image = encode(0xDEAD_BEEF, "int main() { return 0; }", &entries);
        let snap = decode(&image).unwrap();
        assert_eq!(snap.key, 0xDEAD_BEEF);
        assert_eq!(snap.source, "int main() { return 0; }");
        assert_eq!(snap.entries.len(), 3);
        let e = &snap.entries[0];
        assert_eq!(e.direction, Direction::Backward);
        assert_eq!(e.key, entries[0].key);
        assert_eq!(snap.entries[1].direction, Direction::Forward);
        assert_eq!(snap.entries[1].key, entries[0].key);
        assert_eq!(snap.entries[2].direction, Direction::Forward);
        assert_eq!(snap.entries[2].key, entries[2].key);
        assert_eq!(e.stats.memo_misses_backward, 1);
        assert_eq!(snap.entries[1].stats.memo_misses_forward, 1);
        assert_eq!(e.a6.state_count(), 2);
        assert!(e.a6.has_transition(StateId(0), Some(Symbol(3)), StateId(1)));
        assert!(e.a6.has_transition(StateId(1), None, StateId(1)));
        assert_eq!(e.variants[0].name, "main");
        assert_eq!(e.variants[0].row, vec![1, 4, 7]);
        assert_eq!(e.main_variant, Some(0));
        assert_eq!(e.stats.query_time, Duration::from_micros(1234));
        // Re-encoding the decoded snapshot is byte-identical.
        assert_eq!(encode(snap.key, &snap.source, &snap.entries), image);
    }

    #[test]
    fn truncation_at_every_prefix_is_structured() {
        let image = encode(7, "int main() { return 0; }", &sample_entries());
        for cut in 0..image.len() {
            let err = decode(&image[..cut]).expect_err("prefix must not decode");
            match err {
                SnapshotError::Truncated { .. }
                | SnapshotError::BadMagic
                | SnapshotError::ChecksumMismatch
                | SnapshotError::Corrupt(_) => {}
                other => panic!("unexpected error at cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn corruption_is_caught_by_checksum() {
        let image = encode(7, "int main() { return 0; }", &sample_entries());
        for pos in [8, 20, image.len() / 2, image.len() - 9] {
            let mut bad = image.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    decode(&bad),
                    Err(SnapshotError::ChecksumMismatch)
                        | Err(SnapshotError::UnsupportedVersion { .. })
                        | Err(SnapshotError::Corrupt(_))
                        | Err(SnapshotError::Truncated { .. })
                ),
                "flip at {pos} must be detected"
            );
        }
    }

    #[test]
    fn committed_v2_snapshot_is_rejected_as_unsupported_version() {
        // A genuine version-2 snapshot written by the previous format
        // revision. The version check runs before the checksum and key
        // checks, so a current reader reports the structured version error —
        // which the session manager degrades to a cold open.
        let image = include_bytes!("../tests/fixtures/v2.snap");
        assert!(matches!(
            decode(image),
            Err(SnapshotError::UnsupportedVersion { found: 2 })
        ));
    }

    #[test]
    fn version_bump_is_reported() {
        let mut image = encode(7, "x", &[]);
        image[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&image),
            Err(SnapshotError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn bad_magic_is_reported() {
        let mut image = encode(7, "x", &[]);
        image[0] = b'X';
        assert!(matches!(decode(&image), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn file_round_trip_and_key_mismatch() {
        let dir = std::env::temp_dir().join(format!("specslice-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        let image = encode(42, "int main() { return 0; }", &[]);
        write_file(&path, &image).unwrap();
        assert_eq!(read_file(&path, 42).unwrap().key, 42);
        assert!(matches!(
            read_file(&path, 43),
            Err(SnapshotError::KeyMismatch {
                expected: 43,
                found: 42
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
