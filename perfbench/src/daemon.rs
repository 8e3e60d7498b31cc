//! The timed run of daemon-edit: an in-process `specslice-server` on a unix
//! socket serving `feature_grid(40)` to one closed-loop client.
//!
//! The run is a sequence of rounds. Each round evicts the session and opens
//! the original program cold several times (each `open` round trip is one
//! set-up sample), asks for a cold `specialize_program` over every printf,
//! and then lets a client connection send a seeded stream of requests,
//! waiting for every reply: skewed single-printf `slice` requests, with
//! every tenth request at offset 4 a `forward_slice` and every tenth at
//! offset 9 an `apply_edit`. Each edit is a `replace_function` toggling one
//! `stepK` body between two versions; the client keeps the session id each
//! edit returns. When the client is done, a seeded sample of `slice`
//! responses is recorded with the program text it was answered on; after
//! the run, each is compared with the in-process answer on a session
//! holding that text.
//!
//! One client, not one per core: with two concurrent clients on one
//! session, which requests found their answer memoized and which queued
//! behind the other client's edit depended on thread interleaving, so runs
//! of the same code spread past any usable bound (`forward_per_s` 531–832
//! over five seeds). A single closed loop makes the request sequence, and
//! so the memo's hits, a function of the seed.
//!
//! Every metric pools the samples of the whole run, so the statistic is the
//! same however many rounds fit: set-up time is the median over every cold
//! open, specialize and latency centres are means over every sample (see
//! `inproc` for why), the read tail is the p90, and rates are requests over
//! the summed time they took.

use crate::checks::{
    check_merged, printf_vertex_ids, response_key, run_vm, slice_key, stream_at, wire_criterion,
};
use crate::measure::{geomean, mean, median, mix, ms, peak_rss_mb, percentile, Report, Rng};
use crate::workload::{forward_sources, grid_source, grid_step_source, open, printf_lines, Run};
use specslice::Criterion;
use specslice_corpus::skewed_site_sample;
use specslice_server::{serve, Bind, Client, Json, ServerConfig};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// What the client measured in one round.
#[derive(Default)]
struct ClientOut {
    reads: Vec<f64>,
    forwards: Vec<f64>,
    edits: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Which features are toggled at the end of the round.
    toggled: Vec<bool>,
}

/// A seeded sample of one round's daemon `slice` responses, with the
/// feature states that name the program text they were answered on.
struct RoundSample {
    toggled: Vec<bool>,
    /// Printf index and [`response_key`] of each sampled response.
    responses: Vec<(usize, Option<String>)>,
}

/// What the client sends in a round.
struct Plan<'a> {
    socket: &'a Path,
    session: String,
    sites: &'a [Vec<u32>],
    forward: &'a [Vec<u32>],
    features: usize,
    requests: usize,
    seed: u64,
}

fn client_loop(plan: &Plan<'_>) -> ClientOut {
    let mut out = ClientOut {
        toggled: vec![false; plan.features],
        ..ClientOut::default()
    };
    let mut client = match Client::connect_unix(plan.socket) {
        Ok(client) => client,
        Err(e) => {
            out.attempted += 1;
            out.failures.push(format!("client: connect: {e}"));
            return out;
        }
    };
    let mine: Vec<usize> = (1..=plan.features).collect();
    let reads = skewed_site_sample(plan.sites.len(), plan.requests, mix(plan.seed, 1));
    let mut rng = Rng::new(mix(plan.seed, 2));
    let mut session = plan.session.clone();
    for (i, &site) in reads.iter().enumerate() {
        out.attempted += 1;
        let mut edited = None;
        let (op, kind) = match i % 10 {
            9 if !mine.is_empty() => ("apply_edit", 2),
            4 => ("forward_slice", 1),
            _ => ("slice", 0),
        };
        let params = match kind {
            2 => {
                let k = mine[rng.below(mine.len())];
                let edit = Json::obj([
                    ("kind", Json::str("replace_function")),
                    (
                        "source",
                        Json::str(grid_step_source(k, !out.toggled[k - 1])),
                    ),
                ]);
                edited = Some(k - 1);
                vec![
                    ("session", Json::str(session.clone())),
                    ("edits", Json::arr([edit])),
                ]
            }
            1 => vec![
                ("session", Json::str(session.clone())),
                (
                    "criterion",
                    wire_criterion(&plan.forward[rng.below(plan.forward.len())]),
                ),
            ],
            _ => vec![
                ("session", Json::str(session.clone())),
                ("criterion", wire_criterion(&plan.sites[site])),
            ],
        };
        let t = Instant::now();
        let resp = client.request(op, params);
        let d = ms(t.elapsed());
        match resp {
            Ok(resp) => match kind {
                2 => match (resp.get("session").and_then(Json::as_str), edited) {
                    (Some(id), Some(k)) => {
                        session = id.to_string();
                        out.toggled[k] = !out.toggled[k];
                        out.edits.push(d);
                    }
                    _ => out
                        .failures
                        .push("client: edit without session".to_string()),
                },
                1 => out.forwards.push(d),
                _ => {
                    if resp.get("slice").is_some() {
                        out.reads.push(d);
                    } else {
                        out.failures.push("client: slice without body".to_string());
                    }
                }
            },
            Err(e) => out.failures.push(format!("client: {op}: {e}")),
        }
    }
    out
}

/// The timed run (see the module docs). `smoke` runs one round.
pub fn run(run: &Run, socket: &Path, r: &mut Report) {
    let Run { seed, size, .. } = *run;
    let n = size.daemon_grid;
    let source = grid_source(n, &[]);
    let Some(reference) = r.op("open", open(&source)) else {
        return;
    };
    let sites = printf_vertex_ids(reference.sdg());
    let forward: Vec<Vec<u32>> = forward_sources(reference.sdg())
        .into_iter()
        .map(|v| vec![v.0])
        .collect();
    drop(reference);
    let all_criteria = Json::arr(sites.iter().map(|s| wire_criterion(s)));

    if r.op("pin to one CPU", pin_to_current_cpu()).is_none() {
        return;
    }
    let config = ServerConfig {
        threads: Some(1),
        ..ServerConfig::new(Bind::Unix(socket.to_path_buf()))
    };
    let Some(handle) = r.op("serve", serve(config)) else {
        return;
    };
    let Some(mut admin) = r.op("connect", Client::connect_unix(socket)) else {
        handle.stop();
        return;
    };

    let mut setup = Vec::new();
    let mut merged: Option<Json> = None;
    let mut outs: Vec<ClientOut> = Vec::new();
    let mut specialize = Vec::new();
    let mut samples = Vec::new();
    let mut client_wall = Duration::ZERO;
    let mut session = String::new();
    let start = Instant::now();
    let mut round = 0u64;
    while run.another(start.elapsed(), round) {
        // Edits re-key the session, so evict whatever is live by its
        // current id before the cold opens.
        let listed = admin.request("list_sessions", vec![]);
        let mut live: Vec<String> = r
            .op("list_sessions", listed)
            .and_then(|l| {
                let ids = l.get("sessions")?.as_array()?.iter();
                Some(
                    ids.filter_map(|s| Some(s.get("session")?.as_str()?.to_string()))
                        .collect(),
                )
            })
            .unwrap_or_default();
        for _ in 0..size.daemon_opens {
            for id in live.drain(..) {
                let evicted = admin.request("evict", vec![("session", Json::str(id))]);
                r.op("evict", evicted);
            }
            let t = Instant::now();
            let opened = admin.request("open", vec![("source", Json::str(source.clone()))]);
            let d = t.elapsed();
            let Some(opened) = r.op("open", opened) else {
                continue;
            };
            let cold = opened.get("existing").and_then(Json::as_bool) == Some(false);
            r.check(cold, || "daemon open after evict was not cold".to_string());
            setup.push(d.as_secs_f64());
            session = opened
                .get("session")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            live.push(session.clone());
        }

        let t = Instant::now();
        let spec = admin.request(
            "specialize_program",
            vec![
                ("session", Json::str(session.clone())),
                ("criteria", all_criteria.clone()),
            ],
        );
        let d = t.elapsed().as_secs_f64();
        if let Some(spec) = r.op("specialize_program", spec) {
            specialize.push(d);
            if merged.is_none() {
                merged = Some(spec);
            }
        }

        let t = Instant::now();
        let out = client_loop(&Plan {
            socket,
            session: session.clone(),
            sites: &sites,
            forward: &forward,
            features: n,
            requests: size.daemon_requests,
            seed: mix(seed, round),
        });
        client_wall += t.elapsed();

        // Quiescent: the client's feature states name the session's
        // program exactly.
        samples.push(sample_round(
            &mut admin,
            &session,
            out.toggled.clone(),
            &sites,
            size.daemon_checks,
            mix(seed, 10_000 + round),
            r,
        ));
        outs.push(out);
        round += 1;
    }

    // Before the checks, which open sessions of their own.
    let peak_rss = peak_rss_mb();
    let mut requests = 0u64;
    let (mut reads, mut forwards, mut edits) = (Vec::new(), Vec::new(), Vec::new());
    for o in outs {
        requests += o.attempted;
        r.attempted += o.attempted.saturating_sub(o.failures.len() as u64);
        for f in o.failures {
            r.check(false, || f);
        }
        reads.extend(o.reads);
        forwards.extend(o.forwards);
        edits.extend(o.edits);
    }

    verify_samples(&samples, &sites, r);
    let (steps_ratio, code_ratio) = check_outputs(&mut admin, &source, &sites, merged.as_ref(), r);
    drop(admin);
    handle.stop();
    let _ = std::fs::remove_file(socket);

    r.note(format!(
        "daemon-edit: seed {seed}, {round} rounds, {} opens, {} reads, {} forward, {} edits, \
         {requests} client requests in {:.1}s",
        setup.len(),
        reads.len(),
        forwards.len(),
        edits.len(),
        client_wall.as_secs_f64()
    ));
    let per_s = |v: &[f64]| v.len() as f64 / (v.iter().sum::<f64>() / 1e3).max(1e-9);
    r.metric("setup_s", median(&setup), "s");
    r.metric("criteria_per_s", per_s(&reads), "1/s");
    r.metric("forward_per_s", per_s(&forwards), "1/s");
    r.metric("specialize_s", mean(&specialize), "s");
    r.metric("peak_rss_mb", peak_rss, "MiB");
    r.metric("spec_steps_ratio", steps_ratio, "ratio");
    r.metric("spec_code_ratio", code_ratio, "ratio");
    r.metric("read_mean_ms", mean(&reads), "ms");
    r.metric("read_p90_ms", percentile(&reads, 90.0), "ms");
    r.metric("edit_mean_ms", mean(&edits), "ms");
    r.metric(
        "ops_per_s",
        requests as f64 / client_wall.as_secs_f64().max(1e-9),
        "1/s",
    );
}

/// Pins the calling thread, and so every thread it spawns afterwards, to
/// the CPU it is running on. Client and server then hand each request over
/// on one CPU: otherwise a memo-hit round trip of about 50 µs waits on a
/// wake-up of the other, idle, virtual CPU, and on a shared 2-vCPU virtual
/// machine that latency (0.1–2 ms, varying with the host's load) dominated
/// the read timings.
fn pin_to_current_cpu() -> std::io::Result<()> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: both are plain libc calls; `mask` is a 1024-bit cpu_set_t
    // that outlives the call, and pid 0 names the calling thread.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return Err(std::io::Error::last_os_error());
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        if sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) != 0 {
            return Err(std::io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Asks the daemon for a seeded sample of `slice` responses on the
/// quiescent session, whose program is `feature_grid` with `toggled`
/// features edited.
fn sample_round(
    admin: &mut Client<UnixStream>,
    session: &str,
    toggled: Vec<bool>,
    sites: &[Vec<u32>],
    checks: usize,
    seed: u64,
    r: &mut Report,
) -> RoundSample {
    let mut rng = Rng::new(seed);
    let responses = (0..checks)
        .map(|_| {
            let i = rng.below(sites.len());
            let resp = admin.request(
                "slice",
                vec![
                    ("session", Json::str(session.to_string())),
                    ("criterion", wire_criterion(&sites[i])),
                ],
            );
            (i, r.op("daemon slice", resp).and_then(|j| response_key(&j)))
        })
        .collect();
    RoundSample { toggled, responses }
}

/// Compares each sampled daemon `slice` response with the in-process
/// answer on a session holding the same program text.
fn verify_samples(samples: &[RoundSample], sites: &[Vec<u32>], r: &mut Report) {
    for sample in samples {
        let text = grid_source(sample.toggled.len(), &sample.toggled);
        let Some(local) = r.op("open", open(&text)) else {
            continue;
        };
        for (i, key) in &sample.responses {
            let criterion =
                Criterion::AllContexts(sites[*i].iter().map(|&v| specslice::VertexId(v)).collect());
            let Some(slice) = r.op("slice", local.slice(&criterion)) else {
                continue;
            };
            r.check(key.as_ref() == Some(&slice_key(&slice)), || {
                format!(
                    "daemon-edit: daemon slice of printf {i} differs from the in-process answer"
                )
            });
        }
    }
}

/// Runs every printf's daemon-regenerated slice and the merged program on
/// the VM against the original. Returns the geomean step ratio and the
/// merged-source byte ratio.
fn check_outputs(
    admin: &mut Client<UnixStream>,
    source: &str,
    sites: &[Vec<u32>],
    merged: Option<&Json>,
    r: &mut Report,
) -> (f64, f64) {
    let Some(local) = r.op("open", open(source)) else {
        return (0.0, 0.0);
    };
    let Some(program) = local.program() else {
        return (0.0, 0.0);
    };
    let lines = printf_lines(program, local.sdg());
    let Some(orig) = r.op("run original", run_vm(program, &[])) else {
        return (0.0, 0.0);
    };
    let Some(opened) = r.op(
        "open",
        admin.request("open", vec![("source", Json::str(source.to_string()))]),
    ) else {
        return (0.0, 0.0);
    };
    let session = opened
        .get("session")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let mut ratios = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        let resp = admin.request(
            "regenerate",
            vec![
                ("session", Json::str(session.clone())),
                ("criterion", wire_criterion(site)),
            ],
        );
        let Some(resp) = r.op("daemon regenerate", resp) else {
            continue;
        };
        let text = resp
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let Some(regen) = r.op("parse regenerated", specslice::frontend(text)) else {
            continue;
        };
        if let Some(out) = r.op("run slice", run_vm(&regen, &[])) {
            r.check(out.output == stream_at(&orig, &lines[i..=i]), || {
                format!("daemon-edit: printf {i}: regenerated slice output differs")
            });
            ratios.push(out.steps.max(1) as f64 / orig.steps.max(1) as f64);
        }
    }
    let mut code_ratio = 0.0;
    if let Some(spec) = merged {
        let text = spec
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or_default();
        let demanded: Vec<(String, Vec<u32>)> = spec
            .get("functions")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|f| {
                let name = f.get("name")?.as_str()?.to_string();
                let by = f.get("demanded_by")?.as_array()?;
                let lines = by.iter().filter_map(|c| lines.get(c.as_usize()?).copied());
                Some((name, lines.collect()))
            })
            .collect();
        let lines_of = |name: &str| {
            demanded
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(|| lines.clone(), |(_, l)| l.clone())
        };
        if let Some(program) = r.op("parse merged", specslice::frontend(text)) {
            check_merged(&program, &orig, &[], lines_of, "daemon-edit", r);
        }
        code_ratio = text.len() as f64 / specslice_lang::pretty(program).len().max(1) as f64;
    } else {
        r.check(false, || "daemon-edit: no merged program".to_string());
    }
    (geomean(&ratios), code_ratio)
}
