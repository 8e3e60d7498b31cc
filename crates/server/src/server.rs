//! The daemon: accept loop, per-connection handshake, and request dispatch.
//!
//! # Request surface
//!
//! Every request is `{"op": …, "id": …, …params}`; the `id` is echoed in the
//! response. Ops:
//!
//! | op                   | params                              | response (on `ok`) |
//! |----------------------|-------------------------------------|--------------------|
//! | `hello`              | `version`                           | `version`, `max_frame` |
//! | `open`               | `source`                            | `session`, `existing`, `warm`, `memo_imported`, SDG dims |
//! | `slice`              | `session`, `criterion`              | slice body |
//! | `forward_slice`      | `session`, `criterion`              | slice body |
//! | `chop`               | `session`, `source`, `target`       | slice body |
//! | `slice_batch`        | `session`, `criteria`               | `slices: [slice body]` |
//! | `remove_feature`     | `session`, `criterion`              | slice body |
//! | `specialize_program` | `session`, `criteria`               | `source`, `functions`, … |
//! | `regenerate`         | `session`, `criterion`              | `source`, signature maps |
//! | `apply_edit`         | `session`, `edits` \| `source`      | `session` (new id), `report` |
//! | `stats`              | `session?`                          | server / session counters |
//! | `list_sessions`      |                                     | `sessions: […]` |
//! | `evict`              | `session`                           | `evicted` |
//! | `shutdown`           |                                     | `snapshots_written` |
//!
//! `apply_edit`'s `report` carries [`specslice::EditReport`]'s counters:
//! `rebuilt_procs`, `reused_procs`, `memo_kept`, `memo_dropped`,
//! `full_rebuild`. `stats` with a `session` adds `session_stats`:
//! `session`, `bytes`, `memo_len`, `memo_hits`, `queries_run`,
//! `store_interned`, `store_row_bytes`, `warm`, `memo_imported`.
//!
//! Query responses (`slice`, `slice_batch`, …) are **deterministic**: they
//! carry no wall-clock, no memo-hit flags, and serialize through the
//! ordered [`Json`] writer — so a response answered from a warm memo, a
//! cold pipeline run, or any `--threads` width is byte-identical, and the
//! concurrency tests can compare raw frames. Timing and hit counters are
//! observable through `stats`, which is allowed to vary.

use crate::json::Json;
use crate::proto::{
    error_payload, error_response, kind, ok_response, read_frame, spec_error_payload, write_frame,
    FrameError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use crate::session::{Session, SessionManager};
use specslice::{
    Criterion, ProgramDelta, ProgramEdit, Sdg, SlicerConfig, SpecSlice, SpecializedProgram,
};
use specslice_sdg::{CallSiteId, VertexId};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Clone, Debug)]
pub enum Bind {
    /// TCP; `addr` as accepted by [`TcpListener::bind`] (use port 0 to let
    /// the OS pick — the bound address is reported by [`Handle::addr`]).
    Tcp(String),
    /// A unix-domain socket at the given path (removed and re-created).
    #[cfg(unix)]
    Unix(PathBuf),
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address.
    pub bind: Bind,
    /// Snapshot directory (`None` disables persistence).
    pub snapshot_dir: Option<PathBuf>,
    /// Session-memory budget in bytes (`None` disables eviction).
    pub budget_bytes: Option<usize>,
    /// Worker threads per session's batch queries (`None` = the machine's
    /// available parallelism, [`specslice::SlicerConfig`]'s default).
    pub threads: Option<usize>,
    /// Maximum accepted frame payload size.
    pub max_frame: usize,
}

impl ServerConfig {
    /// A config listening on `bind` with defaults everywhere else.
    pub fn new(bind: Bind) -> ServerConfig {
        ServerConfig {
            bind,
            snapshot_dir: None,
            budget_bytes: None,
            threads: None,
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

/// A running daemon: the bound address plus the shutdown controls.
pub struct Handle {
    /// The actual bound address: `host:port` for TCP (with the OS-assigned
    /// port resolved), the socket path for unix.
    pub addr: String,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Handle {
    /// Requests shutdown (as the `shutdown` op does) and joins the accept
    /// loop. Sessions are *not* snapshotted here — that is the `shutdown`
    /// op's job; this is the handle-drop path for tests and embedders.
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Blocks until the accept loop exits (i.e. until a client sends
    /// `shutdown` or [`Handle::stop`] is called from another thread).
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

/// A connected byte stream (TCP or unix).
trait Stream: Read + Write + Send {}
impl Stream for TcpStream {}
#[cfg(unix)]
impl Stream for UnixStream {}

impl Listener {
    fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(on),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
        }
    }

    fn accept(&self) -> std::io::Result<Box<dyn Stream>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The accept loop is nonblocking; the connection itself must
                // block normally. Nagle would hold small response frames
                // hostage to the client's delayed ACKs — this is a
                // request/response protocol, so send frames immediately.
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(false)?;
                Ok(Box::new(s))
            }
        }
    }
}

struct State {
    manager: SessionManager,
    shutdown: Arc<AtomicBool>,
    max_frame: usize,
    connections: AtomicU64,
    requests: AtomicU64,
    threads: usize,
}

/// Starts the daemon in a background thread and returns its [`Handle`].
///
/// # Errors
///
/// Binding failures.
pub fn serve(config: ServerConfig) -> std::io::Result<Handle> {
    let (listener, addr) = match &config.bind {
        Bind::Tcp(addr) => {
            let l = TcpListener::bind(addr)?;
            let actual = l.local_addr()?.to_string();
            (Listener::Tcp(l), actual)
        }
        #[cfg(unix)]
        Bind::Unix(path) => {
            // A previous daemon's socket file would make bind fail.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            (Listener::Unix(l), path.display().to_string())
        }
    };
    listener.set_nonblocking(true)?;

    if let Some(dir) = &config.snapshot_dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut slicer_config = SlicerConfig::default();
    if let Some(n) = config.threads {
        slicer_config.num_threads = n.max(1);
    }
    let threads = slicer_config.num_threads;
    let shutdown = Arc::new(AtomicBool::new(false));
    let state = Arc::new(State {
        manager: SessionManager::new(config.budget_bytes, config.snapshot_dir, slicer_config),
        shutdown: shutdown.clone(),
        max_frame: config.max_frame,
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        threads,
    });

    let accept_state = state.clone();
    let accept_thread = std::thread::Builder::new()
        .name("specslice-accept".to_string())
        .spawn(move || accept_loop(listener, accept_state))?;

    Ok(Handle {
        addr,
        shutdown,
        accept_thread: Some(accept_thread),
    })
}

/// Runs the daemon on the calling thread until a client sends `shutdown`.
///
/// # Errors
///
/// Binding failures.
pub fn run(config: ServerConfig) -> std::io::Result<()> {
    let handle = serve(config)?;
    // Readiness line for scripts that spawn the daemon and wait for it.
    println!("specslice-server listening on {}", handle.addr);
    handle.wait();
    Ok(())
}

fn accept_loop(listener: Listener, state: Arc<State>) {
    while !state.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                state.connections.fetch_add(1, Ordering::Relaxed);
                let conn_state = state.clone();
                let _ = std::thread::Builder::new()
                    .name("specslice-conn".to_string())
                    .spawn(move || handle_conn(conn_state, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(state: Arc<State>, mut stream: Box<dyn Stream>) {
    // Handshake: the first frame must be a version-matching `hello`.
    let hello = match read_frame(&mut stream, state.max_frame) {
        Ok(v) => v,
        Err(_) => return,
    };
    let id = hello.get("id").cloned().unwrap_or(Json::Null);
    if hello.get("op").and_then(Json::as_str) != Some("hello") {
        let _ = write_frame(
            &mut stream,
            &error_response(
                &id,
                error_payload(kind::PROTO, "first request must be `hello`"),
            ),
        );
        return;
    }
    let client_version = hello.get("version").and_then(Json::as_i64);
    if client_version != Some(i64::from(PROTOCOL_VERSION)) {
        let _ = write_frame(
            &mut stream,
            &error_response(
                &id,
                error_payload(
                    kind::PROTO,
                    format!(
                        "protocol version mismatch: client {:?}, server {PROTOCOL_VERSION}",
                        client_version
                    ),
                ),
            ),
        );
        return;
    }
    if write_frame(&mut stream, &hello_response(&state, &id)).is_err() {
        return;
    }

    loop {
        let request = match read_frame(&mut stream, state.max_frame) {
            Ok(v) => v,
            Err(FrameError::Eof) | Err(FrameError::Io(_)) => return,
            Err(e @ FrameError::TooLarge { .. }) => {
                // The payload was never read; the stream is desynchronized.
                // Report and close.
                let _ = write_frame(
                    &mut stream,
                    &error_response(&Json::Null, error_payload(kind::PROTO, e.to_string())),
                );
                return;
            }
            Err(e @ FrameError::Malformed(_)) => {
                // The frame boundary is intact — reject this request and
                // keep serving the connection.
                let _ = write_frame(
                    &mut stream,
                    &error_response(&Json::Null, error_payload(kind::PROTO, e.to_string())),
                );
                continue;
            }
        };
        state.requests.fetch_add(1, Ordering::Relaxed);
        let (response, shutdown) = dispatch(&state, &request);
        if write_frame(&mut stream, &response).is_err() {
            return;
        }
        if shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            return;
        }
    }
}

fn hello_response(state: &State, id: &Json) -> Json {
    ok_response(
        id,
        [
            ("version", Json::Int(i64::from(PROTOCOL_VERSION))),
            ("max_frame", Json::Int(state.max_frame as i64)),
        ],
    )
}

/// Routes one parsed request. Returns the response and whether the server
/// should shut down after sending it.
fn dispatch(state: &State, request: &Json) -> (Json, bool) {
    let id = request.get("id").cloned().unwrap_or(Json::Null);
    let Some(op) = request.get("op").and_then(Json::as_str) else {
        return (
            error_response(&id, error_payload(kind::PROTO, "request has no `op`")),
            false,
        );
    };
    let response = match op {
        "hello" => Ok(hello_response(state, &id)),
        "open" => op_open(state, &id, request),
        "slice" => op_slice(state, &id, request, SliceMode::Slice),
        "forward_slice" => op_slice(state, &id, request, SliceMode::Forward),
        "chop" => op_chop(state, &id, request),
        "remove_feature" => op_slice(state, &id, request, SliceMode::RemoveFeature),
        "slice_batch" => op_slice_batch(state, &id, request),
        "specialize_program" => op_specialize(state, &id, request),
        "regenerate" => op_regenerate(state, &id, request),
        "apply_edit" => op_apply_edit(state, &id, request),
        "stats" => op_stats(state, &id, request),
        "list_sessions" => Ok(op_list_sessions(state, &id)),
        "evict" => op_evict(state, &id, request),
        "shutdown" => {
            let written = state.manager.snapshot_all();
            return (
                ok_response(&id, [("snapshots_written", Json::Int(written as i64))]),
                true,
            );
        }
        other => Err(error_payload(kind::PROTO, format!("unknown op `{other}`"))),
    };
    (
        match response {
            Ok(r) => r,
            Err(e) => error_response(&id, e),
        },
        false,
    )
}

/// Fetches the session named by the request's `"session"` member.
fn session_of(state: &State, request: &Json) -> Result<Arc<Session>, Json> {
    let Some(sid) = request.get("session").and_then(Json::as_str) else {
        return Err(error_payload(kind::PROTO, "request has no `session`"));
    };
    state.manager.get(sid).ok_or_else(|| {
        error_payload(
            kind::UNKNOWN_SESSION,
            format!("no live session `{sid}` (evicted, or never opened)"),
        )
    })
}

fn op_open(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let Some(source) = request.get("source").and_then(Json::as_str) else {
        return Err(error_payload(kind::PROTO, "open needs a `source` string"));
    };
    let outcome = state
        .manager
        .open(source)
        .map_err(|e| spec_error_payload(&e))?;
    let session = &outcome.session;
    let (vertices, call_sites, procs) = {
        let slicer = session.slicer();
        let sdg = slicer.sdg();
        (sdg.vertex_count(), sdg.call_sites.len(), sdg.procs.len())
    };
    let mut members = vec![
        ("session", Json::Str(session.id())),
        ("existing", Json::Bool(outcome.existing)),
        ("warm", Json::Bool(session.warm)),
        ("memo_imported", Json::Int(session.memo_imported as i64)),
        ("vertices", Json::Int(vertices as i64)),
        ("call_sites", Json::Int(call_sites as i64)),
        ("procs", Json::Int(procs as i64)),
    ];
    if let Some(w) = &session.snapshot_warning {
        members.push(("snapshot_warning", Json::str(w.clone())));
    }
    Ok(ok_response(id, members))
}

enum SliceMode {
    Slice,
    Forward,
    RemoveFeature,
}

fn op_slice(state: &State, id: &Json, request: &Json, mode: SliceMode) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let Some(criterion) = request.get("criterion") else {
        return Err(error_payload(kind::PROTO, "request has no `criterion`"));
    };
    let spec = parse_criterion(criterion)?;
    let slicer = session.slicer();
    let criterion = spec.resolve(slicer.sdg());
    let slice = match mode {
        SliceMode::Slice => slicer.slice(&criterion),
        SliceMode::Forward => slicer.forward_slice(&criterion),
        SliceMode::RemoveFeature => slicer.remove_feature(&criterion),
    }
    .map_err(|e| spec_error_payload(&e))?;
    Ok(ok_response(
        id,
        [("slice", slice_body(slicer.sdg(), &slice))],
    ))
}

fn op_chop(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let Some(source) = request.get("source") else {
        return Err(error_payload(
            kind::PROTO,
            "chop needs a `source` criterion",
        ));
    };
    let Some(target) = request.get("target") else {
        return Err(error_payload(
            kind::PROTO,
            "chop needs a `target` criterion",
        ));
    };
    let source = parse_criterion(source)?;
    let target = parse_criterion(target)?;
    let slicer = session.slicer();
    let source = source.resolve(slicer.sdg());
    let target = target.resolve(slicer.sdg());
    let slice = slicer
        .chop(&source, &target)
        .map_err(|e| spec_error_payload(&e))?;
    Ok(ok_response(
        id,
        [("slice", slice_body(slicer.sdg(), &slice))],
    ))
}

fn op_slice_batch(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let Some(items) = request.get("criteria").and_then(Json::as_array) else {
        return Err(error_payload(
            kind::PROTO,
            "request has no `criteria` array",
        ));
    };
    let specs = items
        .iter()
        .map(parse_criterion)
        .collect::<Result<Vec<_>, _>>()?;
    let slicer = session.slicer();
    let criteria: Vec<Criterion> = specs.iter().map(|s| s.resolve(slicer.sdg())).collect();
    let batch = slicer
        .slice_batch(&criteria)
        .map_err(|e| spec_error_payload(&e))?;
    let slices = batch
        .slices
        .iter()
        .map(|s| slice_body(slicer.sdg(), s))
        .collect();
    Ok(ok_response(id, [("slices", Json::Array(slices))]))
}

fn op_specialize(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let Some(items) = request.get("criteria").and_then(Json::as_array) else {
        return Err(error_payload(
            kind::PROTO,
            "request has no `criteria` array",
        ));
    };
    let specs = items
        .iter()
        .map(parse_criterion)
        .collect::<Result<Vec<_>, _>>()?;
    let slicer = session.slicer();
    let criteria: Vec<Criterion> = specs.iter().map(|s| s.resolve(slicer.sdg())).collect();
    let sp = slicer
        .specialize_program(&criteria)
        .map_err(|e| spec_error_payload(&e))?;
    Ok(ok_response(id, specialize_body(&sp)))
}

fn op_regenerate(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let Some(criterion) = request.get("criterion") else {
        return Err(error_payload(kind::PROTO, "request has no `criterion`"));
    };
    let spec = parse_criterion(criterion)?;
    let slicer = session.slicer();
    let criterion = spec.resolve(slicer.sdg());
    let slice = slicer
        .slice(&criterion)
        .map_err(|e| spec_error_payload(&e))?;
    let regen = slicer
        .regenerate(&slice)
        .map_err(|e| spec_error_payload(&e))?;
    let functions: BTreeMap<String, Json> = regen
        .variant_of_function
        .iter()
        .map(|(name, &variant)| (name.clone(), Json::Int(variant as i64)))
        .collect();
    let param_maps: BTreeMap<String, Json> = regen
        .param_maps
        .iter()
        .map(|(name, map)| {
            (
                name.clone(),
                Json::arr(map.iter().map(|&i| Json::Int(i as i64))),
            )
        })
        .collect();
    Ok(ok_response(
        id,
        [
            ("source", Json::str(regen.source)),
            ("functions", Json::Object(functions)),
            ("param_maps", Json::Object(param_maps)),
        ],
    ))
}

fn op_apply_edit(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let session = session_of(state, request)?;
    let result = if let Some(source) = request.get("source").and_then(Json::as_str) {
        if request.get("edits").is_some() {
            return Err(error_payload(
                kind::PROTO,
                "apply_edit takes `edits` or `source`, not both",
            ));
        }
        state.manager.apply_edit_source(&session, source)
    } else if let Some(edits) = request.get("edits").and_then(Json::as_array) {
        let edits = edits
            .iter()
            .map(parse_edit)
            .collect::<Result<Vec<_>, _>>()?;
        state.manager.apply_edit(&session, &ProgramDelta { edits })
    } else {
        return Err(error_payload(
            kind::PROTO,
            "apply_edit needs an `edits` array or a full `source`",
        ));
    };
    let (report, new_id) = result.map_err(|e| spec_error_payload(&e))?;
    Ok(ok_response(
        id,
        [
            ("session", Json::Str(new_id)),
            (
                "report",
                Json::obj([
                    (
                        "rebuilt_procs",
                        Json::arr(report.rebuilt_procs.iter().map(|p| Json::str(p.clone()))),
                    ),
                    ("reused_procs", Json::Int(report.reused_procs as i64)),
                    ("memo_kept", Json::Int(report.memo_kept as i64)),
                    ("memo_dropped", Json::Int(report.memo_dropped as i64)),
                    ("full_rebuild", Json::Bool(report.full_rebuild)),
                ]),
            ),
        ],
    ))
}

fn op_stats(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let c = &state.manager.counters;
    let mut members = vec![
        ("protocol_version", Json::Int(i64::from(PROTOCOL_VERSION))),
        ("threads", Json::Int(state.threads as i64)),
        ("sessions", Json::Int(state.manager.len() as i64)),
        (
            "connections",
            Json::Int(state.connections.load(Ordering::Relaxed) as i64),
        ),
        (
            "requests",
            Json::Int(state.requests.load(Ordering::Relaxed) as i64),
        ),
        (
            "cold_opens",
            Json::Int(c.cold_opens.load(Ordering::Relaxed) as i64),
        ),
        (
            "warm_starts",
            Json::Int(c.warm_starts.load(Ordering::Relaxed) as i64),
        ),
        (
            "evictions",
            Json::Int(c.evictions.load(Ordering::Relaxed) as i64),
        ),
        (
            "snapshots_written",
            Json::Int(c.snapshots_written.load(Ordering::Relaxed) as i64),
        ),
        ("persistent", Json::Bool(state.manager.persistent())),
        (
            "budget_bytes",
            state
                .manager
                .budget_bytes()
                .map_or(Json::Null, |b| Json::Int(b as i64)),
        ),
    ];
    if request.get("session").is_some() {
        let session = session_of(state, request)?;
        let slicer = session.slicer();
        let store = slicer.store_stats();
        members.push((
            "session_stats",
            Json::obj([
                ("session", Json::Str(session.id())),
                ("bytes", Json::Int(slicer.approx_bytes() as i64)),
                ("memo_len", Json::Int(slicer.memo_len() as i64)),
                ("memo_hits", Json::Int(slicer.memo_hits() as i64)),
                ("queries_run", Json::Int(slicer.queries_run() as i64)),
                ("store_interned", Json::Int(store.interned as i64)),
                ("store_row_bytes", Json::Int(store.row_bytes as i64)),
                ("warm", Json::Bool(session.warm)),
                ("memo_imported", Json::Int(session.memo_imported as i64)),
            ]),
        ));
    }
    Ok(ok_response(id, members))
}

fn op_list_sessions(state: &State, id: &Json) -> Json {
    let sessions = state
        .manager
        .list()
        .into_iter()
        .map(|s| {
            let slicer = s.slicer();
            Json::obj([
                ("session", Json::Str(s.id())),
                ("bytes", Json::Int(slicer.approx_bytes() as i64)),
                ("memo_len", Json::Int(slicer.memo_len() as i64)),
                ("warm", Json::Bool(s.warm)),
                ("last_touch", Json::Int(s.last_touch() as i64)),
            ])
        })
        .collect();
    ok_response(id, [("sessions", Json::Array(sessions))])
}

fn op_evict(state: &State, id: &Json, request: &Json) -> Result<Json, Json> {
    let Some(sid) = request.get("session").and_then(Json::as_str) else {
        return Err(error_payload(kind::PROTO, "request has no `session`"));
    };
    let evicted = state.manager.evict(sid);
    Ok(ok_response(id, [("evicted", Json::Bool(evicted))]))
}

// ------------------------------------------------------------ wire shapes

/// A criterion as it appears on the wire, before dense ids are resolved
/// against a session's SDG.
enum CriterionSpec {
    PrintfActuals,
    AllContexts(Vec<u32>),
    Configurations(Vec<(u32, Vec<u32>)>),
}

impl CriterionSpec {
    fn resolve(&self, sdg: &Sdg) -> Criterion {
        match self {
            CriterionSpec::PrintfActuals => Criterion::printf_actuals(sdg),
            CriterionSpec::AllContexts(vs) => {
                Criterion::AllContexts(vs.iter().map(|&v| VertexId(v)).collect())
            }
            CriterionSpec::Configurations(cs) => Criterion::Configurations(
                cs.iter()
                    .map(|(v, stack)| {
                        (VertexId(*v), stack.iter().map(|&c| CallSiteId(c)).collect())
                    })
                    .collect(),
            ),
        }
    }
}

fn parse_criterion(v: &Json) -> Result<CriterionSpec, Json> {
    let bad = |m: String| error_payload(kind::BAD_CRITERION, m);
    match v.get("kind").and_then(Json::as_str) {
        Some("printf_actuals") => Ok(CriterionSpec::PrintfActuals),
        Some("all_contexts") => {
            let vs = v
                .get("vertices")
                .and_then(Json::as_array)
                .ok_or_else(|| bad("all_contexts needs a `vertices` array".to_string()))?;
            let vs = vs
                .iter()
                .map(|x| {
                    x.as_u32()
                        .ok_or_else(|| bad(format!("vertex {} is not a u32", x.to_text())))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(CriterionSpec::AllContexts(vs))
        }
        Some("configurations") => {
            let cs = v
                .get("configurations")
                .and_then(Json::as_array)
                .ok_or_else(|| {
                    bad("configurations needs a `configurations` array".to_string())
                })?;
            let cs = cs
                .iter()
                .map(|c| {
                    let vertex = c
                        .get("vertex")
                        .and_then(Json::as_u32)
                        .ok_or_else(|| bad("configuration needs a `vertex` u32".to_string()))?;
                    let stack = match c.get("stack") {
                        None => Vec::new(),
                        Some(s) => s
                            .as_array()
                            .ok_or_else(|| bad("`stack` must be an array".to_string()))?
                            .iter()
                            .map(|x| {
                                x.as_u32().ok_or_else(|| {
                                    bad(format!("call site {} is not a u32", x.to_text()))
                                })
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                    };
                    Ok((vertex, stack))
                })
                .collect::<Result<Vec<_>, Json>>()?;
            Ok(CriterionSpec::Configurations(cs))
        }
        Some(other) => Err(bad(format!(
            "unknown criterion kind `{other}` (expected printf_actuals, all_contexts, or configurations)"
        ))),
        None => Err(bad("criterion needs a `kind` string".to_string())),
    }
}

fn parse_edit(v: &Json) -> Result<ProgramEdit, Json> {
    let proto_err = |m: String| error_payload(kind::PROTO, m);
    let name_of = |v: &Json, what: &str| {
        v.get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("{what} needs a `name` string")))
    };
    let source_of = |v: &Json, what: &str| {
        v.get("source")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| proto_err(format!("{what} needs a `source` string")))
    };
    match v.get("kind").and_then(Json::as_str) {
        Some("add_global") => Ok(ProgramEdit::AddGlobal(name_of(v, "add_global")?)),
        Some("remove_global") => Ok(ProgramEdit::RemoveGlobal(name_of(v, "remove_global")?)),
        Some("remove_function") => Ok(ProgramEdit::RemoveFunction(name_of(v, "remove_function")?)),
        Some("add_function") => ProgramEdit::add_function_src(&source_of(v, "add_function")?)
            .map_err(|e| spec_error_payload(&e.into())),
        Some("replace_function") => {
            ProgramEdit::replace_function_src(&source_of(v, "replace_function")?)
                .map_err(|e| spec_error_payload(&e.into()))
        }
        Some(other) => Err(proto_err(format!("unknown edit kind `{other}`"))),
        None => Err(proto_err("edit needs a `kind` string".to_string())),
    }
}

/// The deterministic wire body of a slice (no wall-clock, no memo info).
fn slice_body(sdg: &Sdg, slice: &SpecSlice) -> Json {
    let variants = slice
        .variants()
        .iter()
        .map(|v| {
            Json::obj([
                ("name", Json::str(v.name.clone())),
                ("origin", Json::str(sdg.proc(v.proc).name.clone())),
                ("proc", Json::Int(i64::from(v.proc.0))),
                (
                    "vertices",
                    Json::arr(v.vertices.iter().map(|x| Json::Int(i64::from(x.0)))),
                ),
                (
                    "calls",
                    Json::arr(v.calls.iter().map(|(site, &callee)| {
                        Json::arr([Json::Int(i64::from(site.0)), Json::Int(callee as i64)])
                    })),
                ),
                (
                    "kept_params",
                    Json::arr(v.kept_params(sdg).into_iter().map(|i| Json::Int(i as i64))),
                ),
                ("state", Json::Int(i64::from(v.state.0))),
            ])
        })
        .collect();
    Json::obj([
        ("variants", Json::Array(variants)),
        (
            "main_variant",
            slice
                .main_variant
                .map_or(Json::Null, |i| Json::Int(i as i64)),
        ),
        (
            "elems",
            Json::arr(slice.elems().iter().map(|x| Json::Int(i64::from(x.0)))),
        ),
        ("total_vertices", Json::Int(slice.total_vertices() as i64)),
    ])
}

fn specialize_body(sp: &SpecializedProgram) -> Vec<(&'static str, Json)> {
    vec![
        ("source", Json::str(sp.source().to_string())),
        (
            "functions",
            Json::arr(sp.functions.iter().map(|f| {
                Json::obj([
                    ("name", Json::str(f.name.clone())),
                    ("origin", Json::str(f.origin.clone())),
                    (
                        "demanded_by",
                        Json::arr(f.demanded_by.iter().map(|&i| Json::Int(i as i64))),
                    ),
                ])
            })),
        ),
        (
            "per_criterion",
            Json::arr(
                sp.per_criterion
                    .iter()
                    .map(|fs| Json::arr(fs.iter().map(|&i| Json::Int(i as i64)))),
            ),
        ),
        (
            "total_criterion_variants",
            Json::Int(sp.total_criterion_variants as i64),
        ),
        ("reused_variants", Json::Int(sp.reused_variants as i64)),
        ("driver_main", Json::Bool(sp.driver_main)),
    ]
}
