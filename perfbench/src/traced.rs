//! The traced run: per-layer self times and counts for one workload.
//!
//! Each traced pass re-runs the workload's program through the public layer
//! functions — set-up (`frontend` → `lower_indirect_calls` → `build_sdg` →
//! `encode_sdg` → `reachable_configurations`) and every distinct criterion
//! (`query_automaton_reusing` → `saturate_indexed_with_stats` → `to_nfa` +
//! `trimmed` → `mrd_with_stats` → `read_out_with`) — and then through the
//! session API (`slice_batch`, a warm `specialize_program`, VM runs, an
//! `apply_edit`), one span per call. After the passes a short daemon
//! session is traced the same way. Between passes the same batch runs on a
//! fresh session without spans; the ratio of the two is the tracing
//! overhead.

use crate::checks::{printf_vertex_ids, response_key, run_vm, slice_key, wire_criterion};
use crate::inproc::check_outputs;
use crate::measure::{median, Report};
use crate::trace::{Layers, QueryCounts, Tracer, QUERY_STAGES};
use crate::workload::{delta_to, distinct, open, printf_criteria, toggle, Instance, Run};
use specslice::Criterion;
use specslice_pds::SaturationScratch;
use specslice_server::{serve, Bind, Client, Json, ServerConfig};
use std::path::Path;
use std::time::Instant;

/// What one traced pass measured besides its spans.
#[derive(Default)]
struct PassInfo {
    /// Index of the pass's root span.
    span: usize,
    vertices: usize,
    pds_rules: usize,
    counts: QueryCounts,
    /// Traced session batch time over the traced solo time of its distinct
    /// criteria (plus the reachable automaton the batch builds lazily).
    batch_over_distinct: f64,
    batch_ms: f64,
    saturations_run: usize,
    memo_hit_ratio: f64,
    dedup_hits: usize,
    merged_functions: usize,
    regen_bytes: usize,
    orig_steps: u64,
    spec_steps: u64,
    memo_kept_ratio: f64,
    rules_reused: usize,
}

fn traced_pass(tr: &mut Tracer, inst: &Instance, r: &mut Report, info: &mut PassInfo) {
    let Some(layers) = r.op(
        "layers",
        tr.span("setup", |tr| Layers::build(tr, &inst.source)),
    ) else {
        return;
    };
    info.vertices = layers.sdg.vertex_count();
    info.pds_rules = layers.enc.pds.rule_count();
    let (stream_criteria, unique) = tr.span("bench.prepare", |_| {
        let sites = printf_criteria(&layers.sdg);
        let stream = inst.stream(sites.len());
        let unique: Vec<Criterion> = distinct(&stream)
            .into_iter()
            .map(|i| sites[i].clone())
            .collect();
        let criteria: Vec<Criterion> = stream.iter().map(|&i| sites[i].clone()).collect();
        (criteria, unique)
    });

    let mut scratch = SaturationScratch::default();
    let mut solo_ms = tr.spans()[tr.last("criteria.reachable").unwrap_or(0)].ms();
    for c in &unique {
        let slice = tr.span("query", |tr| {
            layers.query(tr, c, &mut scratch, &mut info.counts)
        });
        r.op("layer query", slice);
        solo_ms += tr.spans()[tr.last("query").unwrap_or(0)].ms();
    }

    let Some(mut session) = r.op("open", tr.span("session.open", |_| open(&inst.source))) else {
        return;
    };
    let batch = tr.span("slicer.slice_batch", |_| {
        session.slice_batch(&stream_criteria)
    });
    info.batch_ms = tr.spans()[tr.last("slicer.slice_batch").unwrap_or(0)].ms();
    info.batch_over_distinct = info.batch_ms / solo_ms.max(1e-9);
    if let Some(batch) = r.op("slice_batch", batch) {
        let agg = batch.aggregate;
        info.saturations_run = agg.saturations_run;
        info.memo_hit_ratio = agg.memo_hits_backward as f64 / stream_criteria.len().max(1) as f64;
        info.dedup_hits = session.store_stats().dedup_hits;
    }

    let spec = tr.span("specialize.merge", |_| session.specialize_program(&unique));
    if let Some(spec) = r.op("specialize_program", spec) {
        info.merged_functions = spec.merged_variant_count();
        info.regen_bytes = spec.source().len();
        let orig = tr.span("vm.run", |_| run_vm(&layers.program, &inst.input));
        let out = tr.span("vm.run", |_| run_vm(&spec.regen.program, &inst.input));
        if let (Some(orig), Some(out)) = (r.op("run original", orig), r.op("run merged", out)) {
            info.orig_steps = orig.steps;
            info.spec_steps = out.steps;
        }
    }

    let delta = tr.span("bench.prepare", |_| {
        let edited = toggle(&inst.source, &inst.source, &inst.edit_target(0));
        delta_to(&session, &edited)
    });
    if let Some(delta) = r.op("edit delta", delta) {
        let report = tr.span("incremental.apply_edit", |_| session.apply_edit(&delta));
        if let Some(report) = r.op("apply_edit", report) {
            let total = report.memo_kept + report.memo_dropped;
            info.memo_kept_ratio = report.memo_kept as f64 / total.max(1) as f64;
            info.rules_reused = report.rules_reused;
        }
    }
}

/// A short daemon session over the workload's (lowered) program: a cold
/// `open`, `stats` round trips (wire + JSON + dispatch, no slicing work),
/// and one `slice` per distinct criterion, each compared with the
/// in-process answer. Returns the median `slice` response size in bytes.
fn server_probe(
    tr: &mut Tracer,
    inst: &Instance,
    stats_requests: usize,
    socket: &Path,
    r: &mut Report,
) -> f64 {
    let Some(session) = r.op("open", open(&inst.source)) else {
        return 0.0;
    };
    let Some(program) = session.program() else {
        return 0.0;
    };
    let source = specslice_lang::pretty(program);
    let sites = printf_vertex_ids(session.sdg());
    let criteria = printf_criteria(session.sdg());
    let unique = distinct(&inst.stream(sites.len()));
    let config = ServerConfig {
        threads: Some(1),
        ..ServerConfig::new(Bind::Unix(socket.to_path_buf()))
    };
    let Some(handle) = r.op("serve", serve(config)) else {
        return 0.0;
    };
    let mut sizes = Vec::new();
    if let Some(mut client) = r.op("connect", Client::connect_unix(socket)) {
        let opened = tr.span("server.open", |_| {
            client.request("open", [("source", Json::str(source))])
        });
        let sid = r
            .op("daemon open", opened)
            .and_then(|o| o.get("session").and_then(Json::as_str).map(str::to_string));
        for _ in 0..stats_requests {
            let resp = tr.span("server.stats", |_| client.request("stats", []));
            r.op("daemon stats", resp);
        }
        if let Some(sid) = sid {
            for &i in &unique {
                let resp = tr.span("server.slice", |_| {
                    client.request_bytes(
                        "slice",
                        [
                            ("session", Json::str(sid.clone())),
                            ("criterion", wire_criterion(&sites[i])),
                        ],
                    )
                });
                let local = session.slice(&criteria[i]);
                if let (Some(bytes), Some(local)) =
                    (r.op("daemon slice", resp), r.op("slice", local))
                {
                    sizes.push(bytes.len() as f64);
                    let key = std::str::from_utf8(&bytes)
                        .ok()
                        .and_then(|t| Json::parse(t).ok())
                        .and_then(|j| response_key(&j));
                    r.check(key == Some(slice_key(&local)), || {
                        format!("daemon slice of printf {i} differs from the in-process answer")
                    });
                }
            }
        }
    }
    handle.stop();
    let _ = std::fs::remove_file(socket);
    median(&sizes)
}

/// The traced run: traced passes until `seconds` have elapsed (one in
/// smoke mode), the daemon probe, and the output checks; the spans are
/// written to `trace_path`.
pub fn run(run: &Run, socket: &Path, trace_path: &Path, r: &mut Report) {
    let Run {
        kind, seed, size, ..
    } = *run;
    let mut tr = Tracer::new();
    let mut infos: Vec<PassInfo> = Vec::new();
    let mut untraced_ms: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut passes = 0u64;
    while run.another(start.elapsed(), passes) {
        let inst = Instance::new(kind, seed, passes, size);
        tr.set_req(passes);
        let mut info = PassInfo::default();
        tr.span("pass", |tr| traced_pass(tr, &inst, r, &mut info));
        info.span = tr.last("pass").unwrap_or(0);

        // The same session batch with no spans around it.
        if let Some(session) = r.op("open", open(&inst.source)) {
            let sites = printf_criteria(session.sdg());
            let criteria: Vec<Criterion> = inst
                .stream(sites.len())
                .iter()
                .map(|&i| sites[i].clone())
                .collect();
            let t = Instant::now();
            let batch = session.slice_batch(&criteria);
            let d = t.elapsed();
            if r.op("slice_batch", batch).is_some() {
                untraced_ms.push(d.as_secs_f64() * 1e3);
            }
        }
        infos.push(info);
        passes += 1;
    }

    tr.set_req(passes);
    let first = Instance::new(kind, seed, 0, size);
    let response_bytes = tr.span("daemon", |tr| {
        server_probe(tr, &first, size.stats_requests, socket, r)
    });

    check_outputs(kind, seed, size, r);

    let self_ms = tr.self_by_name();
    let med = |name: &str| self_ms.get(name).map_or(0.0, |v| median(v));
    for (metric, span) in [
        ("lang.frontend_ms", "lang.frontend"),
        ("indirect.lower_ms", "indirect.lower"),
        ("sdg.build_ms", "sdg.build"),
        ("encode.encode_ms", "encode.encode"),
        ("criteria.reachable_ms", "criteria.reachable"),
        ("criteria.query_ms", "criteria.query"),
        ("pds.saturate_ms", "pds.saturate"),
        ("fsa.a1_ms", "fsa.a1"),
        ("fsa.mrd_ms", "fsa.mrd"),
        ("readout.readout_ms", "readout.read_out"),
        ("specialize.merge_ms", "specialize.merge"),
        ("vm.run_ms", "vm.run"),
        ("incremental.apply_edit_ms", "incremental.apply_edit"),
        ("server.stats_rtt_ms", "server.stats"),
    ] {
        r.metric(metric, med(span), "ms");
    }

    // Counts are taken from the first pass: its program depends on the
    // seed only, so they repeat exactly.
    let p0 = &infos[0];
    let c = p0.counts;
    r.metric("sdg.vertices", p0.vertices as f64, "count");
    r.metric("encode.pds_rules", p0.pds_rules as f64, "count");
    r.metric("pds.rule_applications", c.rule_applications as f64, "count");
    r.metric("pds.transitions", c.transitions as f64, "count");
    r.metric("fsa.a1_transitions", c.a1_transitions as f64, "count");
    r.metric("fsa.det_states", c.det_states as f64, "count");
    r.metric("fsa.min_states", c.min_states as f64, "count");
    r.metric("readout.slice_vertices", c.slice_vertices as f64, "count");
    r.metric("readout.variants", c.variants as f64, "count");
    r.metric("store.dedup_hits", p0.dedup_hits as f64, "count");
    r.metric(
        "slicer.batch_over_distinct",
        median(
            &infos
                .iter()
                .map(|i| i.batch_over_distinct)
                .collect::<Vec<_>>(),
        ),
        "ratio",
    );
    r.metric("slicer.saturations_run", p0.saturations_run as f64, "count");
    r.metric("slicer.memo_hit_ratio", p0.memo_hit_ratio, "ratio");
    r.metric(
        "specialize.merged_functions",
        p0.merged_functions as f64,
        "count",
    );
    r.metric("regen.bytes", p0.regen_bytes as f64, "bytes");
    r.metric("vm.orig_steps", p0.orig_steps as f64, "steps");
    r.metric("vm.spec_steps", p0.spec_steps as f64, "steps");
    r.metric("incremental.memo_kept_ratio", p0.memo_kept_ratio, "ratio");
    r.metric("incremental.rules_reused", p0.rules_reused as f64, "count");
    r.metric("server.slice_response_bytes", response_bytes, "bytes");

    // Stage shares of the traced solo total, summed over every query.
    let stage_totals: Vec<f64> = QUERY_STAGES
        .iter()
        .map(|s| self_ms.get(s).map_or(0.0, |v| v.iter().sum()))
        .collect();
    let solo_total: f64 = stage_totals.iter().sum();
    r.note(format!(
        "{} stage shares of the traced solo total ({:.1} ms over {} passes):",
        kind.name(),
        solo_total,
        passes
    ));
    for (stage, (name, total)) in ["query_automaton", "saturation", "a1", "mrd", "readout"]
        .iter()
        .zip(QUERY_STAGES.iter().zip(&stage_totals))
    {
        let share = total / solo_total.max(1e-9);
        r.note(format!("  {stage:<16} {name:<18} {:>6.1}%", share * 100.0));
        r.metric(format!("share.{stage}"), share, "ratio");
    }

    // Layer self times against the pass total, and tracing overhead.
    let own = tr.self_ms();
    let coverage: Vec<f64> = infos
        .iter()
        .map(|i| 1.0 - own[i.span] / tr.spans()[i.span].ms().max(1e-9))
        .collect();
    let traced_batch: Vec<f64> = infos.iter().map(|i| i.batch_ms).collect();
    r.metric("trace.layer_coverage", median(&coverage), "ratio");
    r.metric(
        "trace.overhead_ratio",
        median(&traced_batch) / median(&untraced_ms).max(1e-9),
        "ratio",
    );
    r.note(format!(
        "layer self times cover {:.2}% of the traced pass total; traced/untraced batch = {:.3}",
        median(&coverage) * 100.0,
        median(&traced_batch) / median(&untraced_ms).max(1e-9)
    ));

    match std::fs::write(trace_path, tr.chrome_json()) {
        Ok(()) => r.note(format!(
            "trace: {} spans written to {}",
            tr.spans().len(),
            trace_path.display()
        )),
        Err(e) => {
            r.check(false, || format!("writing {}: {e}", trace_path.display()));
        }
    }
}
