//! End-to-end persistence: snapshot → restart → query (single queries and
//! parallel batches) must round-trip byte-identically, eviction-triggered
//! snapshots must warm later opens, and damaged snapshot files (truncated,
//! corrupt, version-bumped) must degrade to structured cold opens — never
//! an error, never a panic.

use specslice_server::{serve, Bind, Client, Json, ServerConfig};
use std::path::{Path, PathBuf};

const PROGRAM: &str = r#"
    int total;
    int count;
    void add(int x) { total = total + x; count = count + 1; }
    int avg() { if (count == 0) { return 0; } return total / count; }
    int main() {
        int i;
        i = 0;
        total = 0;
        count = 0;
        while (i < 5) { add(i); i = i + 1; }
        printf("%d\n", avg());
        return 0;
    }
"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("specslice-srv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server_on(dir: &Path, budget: Option<usize>) -> (specslice_server::Handle, String) {
    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".to_string()));
    config.snapshot_dir = Some(dir.to_path_buf());
    config.budget_bytes = budget;
    config.threads = Some(1);
    let handle = serve(config).expect("bind");
    let addr = handle.addr.clone();
    (handle, addr)
}

fn printf_criterion() -> Json {
    Json::obj([("kind", Json::str("printf_actuals"))])
}

fn open(client: &mut Client<std::net::TcpStream>, source: &str) -> Json {
    client
        .request("open", [("source", Json::str(source))])
        .expect("open")
}

fn session_id(opened: &Json) -> String {
    opened
        .get("session")
        .and_then(Json::as_str)
        .expect("session id")
        .to_string()
}

/// The round trip: a cold server answers queries, snapshots on `shutdown`,
/// and the restarted server's first repeated query is answered from the
/// imported memo with byte-identical frames.
///
/// Request ids are per-connection counters; the cold and warm connections
/// issue `hello`, `open`, `slice`, `slice` in the same positions, so the
/// query frames compare equal *raw* — ids included.
#[test]
fn snapshot_restart_query_round_trip_is_byte_identical() {
    let dir = temp_dir("roundtrip");

    let (handle, addr) = server_on(&dir, None);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(opened.get("warm").and_then(Json::as_bool), Some(false));
    let sid = session_id(&opened);
    let cold_printf = client
        .request_bytes(
            "slice",
            [
                ("session", Json::str(&sid)),
                ("criterion", printf_criterion()),
            ],
        )
        .expect("cold slice");
    let cold_ctx = client
        .request_bytes(
            "slice",
            [
                ("session", Json::str(&sid)),
                (
                    "criterion",
                    Json::obj([
                        ("kind", Json::str("all_contexts")),
                        ("vertices", Json::arr([Json::Int(1)])),
                    ]),
                ),
            ],
        )
        .expect("cold slice 2");
    let down = client.request("shutdown", []).expect("shutdown");
    assert!(
        down.get("snapshots_written")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "shutdown wrote no snapshots: {}",
        down.to_text()
    );
    handle.wait();

    // Restart on the same snapshot directory.
    let (handle, addr) = server_on(&dir, None);
    let mut client = Client::connect_tcp(&addr).expect("reconnect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(
        opened.get("warm").and_then(Json::as_bool),
        Some(true),
        "restarted open was not warm: {}",
        opened.to_text()
    );
    assert!(
        opened
            .get("memo_imported")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 2,
        "expected both memo entries back: {}",
        opened.to_text()
    );
    let warm_printf = client
        .request_bytes(
            "slice",
            [
                ("session", Json::str(&sid)),
                ("criterion", printf_criterion()),
            ],
        )
        .expect("warm slice");
    let warm_ctx = client
        .request_bytes(
            "slice",
            [
                ("session", Json::str(&sid)),
                (
                    "criterion",
                    Json::obj([
                        ("kind", Json::str("all_contexts")),
                        ("vertices", Json::arr([Json::Int(1)])),
                    ]),
                ),
            ],
        )
        .expect("warm slice 2");
    assert_eq!(
        warm_printf, cold_printf,
        "printf slice changed across restart"
    );
    assert_eq!(
        warm_ctx, cold_ctx,
        "all_contexts slice changed across restart"
    );

    // Both warm queries must have been memo hits, not pipeline re-runs.
    let stats = client
        .request("stats", [("session", Json::str(&sid))])
        .expect("stats");
    let hits = stats
        .get("session_stats")
        .and_then(|s| s.get("memo_hits"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(hits >= 2, "expected memo hits after restart, got {hits}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// LRU eviction under a tiny budget snapshots the victim, so re-opening the
/// evicted program is a warm start on the *same* server process.
#[test]
fn eviction_snapshots_enable_warm_reopen() {
    let dir = temp_dir("evict-warm");
    let (handle, addr) = server_on(&dir, Some(1));
    let mut client = Client::connect_tcp(&addr).expect("connect");

    let first = open(&mut client, PROGRAM);
    let first_id = session_id(&first);
    // Touch the memo so the snapshot has something to import.
    client
        .request(
            "slice",
            [
                ("session", Json::str(&first_id)),
                ("criterion", printf_criterion()),
            ],
        )
        .expect("slice");

    // Opening a different program evicts the first (budget is 1 byte).
    let other_src = PROGRAM.replace("i < 5", "i < 6");
    let second = open(&mut client, &other_src);
    assert_ne!(session_id(&second), first_id);

    let reopened = open(&mut client, PROGRAM);
    assert_eq!(
        reopened.get("warm").and_then(Json::as_bool),
        Some(true),
        "evicted program did not warm-start: {}",
        reopened.to_text()
    );
    assert!(
        reopened
            .get("memo_imported")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1
    );

    let stats = client.request("stats", []).expect("stats");
    assert!(stats.get("evictions").and_then(Json::as_i64).unwrap_or(0) >= 1);
    assert!(stats.get("warm_starts").and_then(Json::as_i64).unwrap_or(0) >= 1);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes one good snapshot and returns (dir, snapshot path, bytes).
fn good_snapshot(tag: &str) -> (PathBuf, PathBuf, Vec<u8>) {
    let dir = temp_dir(tag);
    let (handle, addr) = server_on(&dir, None);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let opened = open(&mut client, PROGRAM);
    let sid = session_id(&opened);
    client
        .request(
            "slice",
            [
                ("session", Json::str(&sid)),
                ("criterion", printf_criterion()),
            ],
        )
        .expect("slice");
    client.request("shutdown", []).expect("shutdown");
    handle.wait();
    let path = dir.join(format!("{sid}.snap"));
    let bytes = std::fs::read(&path).expect("snapshot file");
    (dir, path, bytes)
}

/// Boots a server on `dir`, opens PROGRAM, and asserts the open degraded to
/// a structured cold start whose warning contains `needle` — and that the
/// session still answers queries.
fn assert_degrades(dir: &Path, needle: &str) {
    let (handle, addr) = server_on(dir, None);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(
        opened.get("warm").and_then(Json::as_bool),
        Some(false),
        "damaged snapshot produced a warm open: {}",
        opened.to_text()
    );
    let warning = opened
        .get("snapshot_warning")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no snapshot_warning in {}", opened.to_text()));
    assert!(
        warning.contains(needle),
        "warning `{warning}` does not mention `{needle}`"
    );
    // The cold session is fully usable.
    let sid = session_id(&opened);
    client
        .request(
            "slice",
            [
                ("session", Json::str(&sid)),
                ("criterion", printf_criterion()),
            ],
        )
        .expect("slice on degraded session");
    handle.stop();
}

#[test]
fn truncated_snapshot_degrades_to_cold_open() {
    let (dir, path, bytes) = good_snapshot("truncated");
    for cut in [bytes.len() / 4, bytes.len() / 2, bytes.len() - 3] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        // Any prefix cut lands as a truncation or a checksum failure —
        // both structured, both mentioning "snapshot".
        assert_degrades(&dir, "snapshot");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_degrades_to_cold_open() {
    let (dir, path, mut bytes) = good_snapshot("corrupt");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert_degrades(&dir, "snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bumped_snapshot_degrades_to_cold_open() {
    let (dir, path, mut bytes) = good_snapshot("version");
    // The format version is the u32 after the 8-byte magic.
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    assert_degrades(&dir, "version");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot written by the previous (version 2) format revision — the
/// committed fixture, not a synthesized version byte — is reported as a
/// structured version error and the open degrades cold.
#[test]
fn committed_v2_snapshot_degrades_to_cold_open() {
    let (dir, path, _) = good_snapshot("v2-fixture");
    std::fs::write(&path, include_bytes!("fixtures/v2.snap")).unwrap();
    assert_degrades(&dir, "version 2");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Forward and chop answers populate direction-tagged memo entries that
/// survive shutdown → restart: the restarted server imports them and
/// answers the repeated queries with byte-identical frames.
#[test]
fn forward_and_chop_entries_survive_restart_byte_identically() {
    let dir = temp_dir("fwd-roundtrip");

    let forward_params = |sid: &str| {
        [
            ("session", Json::str(sid)),
            (
                "criterion",
                Json::obj([
                    ("kind", Json::str("all_contexts")),
                    ("vertices", Json::arr([Json::Int(1)])),
                ]),
            ),
        ]
    };
    let chop_params = |sid: &str| {
        [
            ("session", Json::str(sid)),
            (
                "source",
                Json::obj([
                    ("kind", Json::str("all_contexts")),
                    ("vertices", Json::arr([Json::Int(1)])),
                ]),
            ),
            ("target", printf_criterion()),
        ]
    };

    let (handle, addr) = server_on(&dir, None);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let opened = open(&mut client, PROGRAM);
    let sid = session_id(&opened);
    let cold_fwd = client
        .request_bytes("forward_slice", forward_params(&sid))
        .expect("cold forward_slice");
    let cold_chop = client
        .request_bytes("chop", chop_params(&sid))
        .expect("cold chop");
    client.request("shutdown", []).expect("shutdown");
    handle.wait();

    let (handle, addr) = server_on(&dir, None);
    let mut client = Client::connect_tcp(&addr).expect("reconnect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(
        opened.get("warm").and_then(Json::as_bool),
        Some(true),
        "restart was not warm: {}",
        opened.to_text()
    );
    // The cold run memoized the forward entry plus the chop's backward
    // constituent — both direction-tagged entries must come back.
    assert!(
        opened
            .get("memo_imported")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 2,
        "expected the forward and backward entries back: {}",
        opened.to_text()
    );
    let warm_fwd = client
        .request_bytes("forward_slice", forward_params(&sid))
        .expect("warm forward_slice");
    let warm_chop = client
        .request_bytes("chop", chop_params(&sid))
        .expect("warm chop");
    assert_eq!(warm_fwd, cold_fwd, "forward slice changed across restart");
    assert_eq!(warm_chop, cold_chop, "chop changed across restart");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Snapshot → restart of batch-produced memo entries: a two-worker
/// daemon answers a batch cold (the answers are adopted from the workers'
/// shards into the session), shutdown persists the memo, and the restarted
/// daemon answers the same batch warm with a byte-identical frame.
#[test]
fn batch_snapshot_round_trip_is_byte_identical() {
    let dir = temp_dir("batch-roundtrip");

    let batch_request = |client: &mut Client<std::net::TcpStream>, session: &str| {
        let all_contexts = |v: i64| {
            Json::obj([
                ("kind", Json::str("all_contexts")),
                ("vertices", Json::arr([Json::Int(v)])),
            ])
        };
        client
            .request_bytes(
                "slice_batch",
                [
                    ("session", Json::str(session)),
                    (
                        "criteria",
                        Json::arr([
                            printf_criterion(),
                            all_contexts(1),
                            all_contexts(2),
                            all_contexts(3),
                        ]),
                    ),
                ],
            )
            .expect("slice_batch")
    };
    let boot = || {
        let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".to_string()));
        config.snapshot_dir = Some(dir.clone());
        config.threads = Some(2);
        let handle = serve(config).expect("bind");
        let addr = handle.addr.clone();
        (handle, addr)
    };

    let (handle, addr) = boot();
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(opened.get("warm").and_then(Json::as_bool), Some(false));
    let sid = session_id(&opened);
    let cold = batch_request(&mut client, &sid);
    let down = client.request("shutdown", []).expect("shutdown");
    assert!(
        down.get("snapshots_written")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 1,
        "shutdown wrote no snapshots: {}",
        down.to_text()
    );
    handle.wait();

    let (handle, addr) = boot();
    let mut client = Client::connect_tcp(&addr).expect("reconnect");
    let opened = open(&mut client, PROGRAM);
    assert_eq!(
        opened.get("warm").and_then(Json::as_bool),
        Some(true),
        "restart was not warm: {}",
        opened.to_text()
    );
    assert!(
        opened
            .get("memo_imported")
            .and_then(Json::as_i64)
            .unwrap_or(0)
            >= 4,
        "expected all four batch entries back: {}",
        opened.to_text()
    );
    let warm = batch_request(&mut client, &sid);
    assert_eq!(warm, cold, "batch answer changed across restart");

    let stats = client
        .request("stats", [("session", Json::str(&sid))])
        .expect("stats");
    let hits = stats
        .get("session_stats")
        .and_then(|s| s.get("memo_hits"))
        .and_then(Json::as_i64)
        .unwrap_or(0);
    assert!(hits >= 4, "expected memo hits after restart, got {hits}");

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trailing_garbage_snapshot_degrades_to_cold_open() {
    let (dir, path, mut bytes) = good_snapshot("trailing");
    bytes.extend_from_slice(b"extra");
    std::fs::write(&path, &bytes).unwrap();
    assert_degrades(&dir, "snapshot");
    let _ = std::fs::remove_dir_all(&dir);
}
