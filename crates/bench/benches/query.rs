//! The unified query-path benchmark: per-criterion `Prestar` → MRD →
//! read-out over the corpus and feature-grid workloads, with deterministic
//! pipeline counters alongside the wall-clock numbers.
//!
//! Run with: `cargo bench -p specslice-bench --bench query`
//!
//! Every workload is answered with memoization *off* and one worker thread,
//! so each criterion pays the full criterion-dependent pipeline — this is
//! the hot path that batch parallelism and the incremental memo multiply,
//! and the one the dense-ID representation targets. The wall-clock loop
//! answers the whole criterion list through `slice_batch`, and the
//! `saturations_run` counter records that the batch ran one saturation per
//! distinct criterion.
//!
//! The bench emits a machine-readable JSON report to stdout (and to
//! `$BENCH_QUERY_JSON` when set — the committed snapshot at
//! `BENCH_query.json` in the repository root was produced that way). The
//! report has two kinds of fields:
//!
//! * **deterministic counters** (`"counters"`): Prestar rule applications
//!   and peak worklist depth (each query's own work beyond the session's
//!   `pre*` base), the base's own size and work once per workload
//!   (`base_*` keys), saturated-transition counts, automaton
//!   state/transition counts along the MRD chain, slice sizes, and the
//!   variant-store counters of a whole-program `specialize_program` pass
//!   (interned variants, cross-criterion dedup hits, flat-row bytes,
//!   merged function count, regenerated source bytes), and the forward
//!   mirror — every criterion re-answered as a `post*` query plus one
//!   `chop` from `main`'s first statement to the all-printfs criterion
//!   (`forward_*` / `chop_*` keys). These
//!   are pure functions of the workload — identical on every machine, at
//!   every thread count, in smoke and full mode — so CI's `bench-gate` job
//!   diffs them against the committed snapshot to catch silent changes to
//!   the query pipeline's work;
//! * **wall-clock** (`"median_total_us"`, `"us_per_criterion"`,
//!   `"geomean_us_per_criterion"`): machine-dependent, recorded for the
//!   perf trajectory but never gated on.
//!
//! `BENCH_QUERY_SMOKE=1` runs one sample per workload (the workload set is
//! unchanged, so the counters still match the snapshot).
//!
//! The bench also re-answers each workload through `slice_batch` at 1, 2,
//! and 4 worker threads and asserts the rendered slices are byte-identical
//! — the acceptance gate the dense rewrite must preserve.
//!
//! Two wall-clock assertions ride along. Session reuse: on every workload
//! with several criteria, the same criteria answered by cold one-shot
//! `specialize` calls (each re-encoding the SDG and saturating the whole
//! relation) must be slower than the session, in the geometric
//! mean over workloads. Thread scaling: on hosts with at least 4 cores,
//! the 4-worker batches must answer the workloads with at least 4
//! criteria (a smaller batch cannot spread over 4 workers) at least 1.5x
//! faster than the 1-worker ones, in total wall-clock. Smaller hosts and
//! smoke runs, whose single sample is too noisy to gate on, only print
//! the ratio.
//!
//! A final section drives the same queries through the `specslice-server`
//! daemon over a TCP loopback connection, measuring the full client →
//! frame → dispatch → memo-hit → frame → client round trip on a warm
//! session. Those numbers land under the report's top-level `"server"` key
//! — wall-clock only, so the bench-gate's counter diff never sees them.

use specslice::{specialize, Criterion, Direction, Slicer, SlicerConfig};
use specslice_bench::{geometric_mean, timer};
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var("BENCH_QUERY_SMOKE").is_ok()
}

fn samples() -> usize {
    if smoke() {
        1
    } else {
        10
    }
}

/// Sessions answer every criterion cold: no memo, no stats retention, one
/// worker — the measurement isolates the per-criterion query pipeline.
fn config() -> SlicerConfig {
    SlicerConfig {
        memoize: false,
        num_threads: 1,
    }
}

/// The deterministic per-workload counters the CI bench-gate compares.
/// Everything here is a pure function of the program + criteria — no
/// wall-clock, no allocator sizes, no thread counts.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    pds_rules: usize,
    saturation_transitions: usize,
    saturation_rule_applications: usize,
    saturation_peak_worklist: usize,
    a1_states: usize,
    a1_transitions: usize,
    det_states: usize,
    min_states: usize,
    mrd_states: usize,
    mrd_transitions: usize,
    slice_vertices: usize,
    variants: usize,
    /// Variant-store counters from the whole-program specialization pass
    /// (`specialize_program` over the per-printf criteria plus, when there
    /// are several, the all-printfs union criterion): distinct interned
    /// variants, cross-criterion dedup hits, flat-row bytes retained, the
    /// merged function count, and the merged source size.
    interned_variants: usize,
    dedup_hits: usize,
    store_row_bytes: usize,
    merged_functions: usize,
    regen_bytes: usize,
    /// Batch counter from a single `slice_batch` over the workload's
    /// criteria: how many saturations the batch ran (one per distinct
    /// criterion). The bench-gate diffs it like any other counter.
    saturations_run: usize,
    /// The session's backward saturation base (`pre*` of the empty
    /// query), built once for all of the workload's backward queries: its
    /// transitions and its own rule applications.
    base_transitions: usize,
    base_rule_applications: usize,
    /// Forward-query counters: every workload criterion re-answered as a
    /// `post*` query through the same cached encoding. Transitions are
    /// summed over the queries' own overlays (each query's saturated
    /// relation minus the forward base, which is counted once below), and
    /// rule applications over the queries' own firings.
    forward_transitions: usize,
    forward_rule_applications: usize,
    /// The session's forward saturation base (the `post*` closure of every
    /// push's first hop), built once for all of the workload's forward
    /// queries: its transitions and its own rule applications.
    forward_base_transitions: usize,
    forward_base_rule_applications: usize,
    forward_slice_vertices: usize,
    forward_variants: usize,
    /// Chop counters: one chop per workload, from the first statement of
    /// `main` to the all-printfs criterion (the canonical source→sink
    /// question). Sizes of the intersected result — pure functions of the
    /// workload like everything above.
    chop_vertices: usize,
    chop_variants: usize,
}

struct WorkloadRow {
    name: String,
    criteria: usize,
    counters: Counters,
    median_total: Duration,
}

/// The chop source every workload uses: the first statement vertex of
/// `main` (deterministic — vertex ids are construction-ordered).
fn chop_source(slicer: &Slicer) -> Option<Criterion> {
    let main = slicer.sdg().proc_named("main")?;
    main.vertices
        .iter()
        .copied()
        .find(|&v| {
            matches!(
                slicer.sdg().vertex(v).kind,
                specslice_sdg::VertexKind::Statement { .. }
            )
        })
        .map(Criterion::vertex)
}

/// The benched workloads: the twelve corpus emulations plus three
/// feature-grid sizes, each sliced once per printf call site (the paper's
/// multi-criterion workload).
fn workloads() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| (p.name.to_string(), p.source.to_string()))
        .collect();
    for n in [12, 24, 40] {
        out.push((format!("grid{n}"), specslice_corpus::feature_grid(n)));
    }
    out
}

fn main() {
    let samples = samples();
    let host = specslice_exec::available_parallelism();
    println!(
        "query-path bench, per-printf criteria, memoize off, {samples} sample(s), \
         host parallelism = {host}"
    );
    println!("{}", timer::header());

    let mut rows: Vec<WorkloadRow> = Vec::new();
    let mut session_speedups: Vec<f64> = Vec::new();
    let (mut total_t1, mut total_t4) = (Duration::ZERO, Duration::ZERO);
    for (name, source) in workloads() {
        let slicer = Slicer::from_source_with(&source, config()).expect("workload program");
        let criteria: Vec<Criterion> = slicer
            .sdg()
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .collect();
        if criteria.is_empty() {
            continue;
        }

        // Acceptance gate: byte-identical slices at 1, 2, and 4 worker
        // threads (SpecSlice's Debug rendering is fully deterministic).
        let baseline = format!("{:?}", slicer.slice_batch(&criteria).unwrap().slices);
        let fwd_baseline = format!(
            "{:?}",
            slicer.forward_slice_batch(&criteria).unwrap().slices
        );
        let mut four_threads = None;
        for t in [2usize, 4] {
            let parallel = Slicer::from_source_with(
                &source,
                SlicerConfig {
                    num_threads: t,
                    ..config()
                },
            )
            .expect("workload program");
            let out = format!("{:?}", parallel.slice_batch(&criteria).unwrap().slices);
            assert_eq!(out, baseline, "{name}: slices diverged at {t} threads");
            let fwd = format!(
                "{:?}",
                parallel.forward_slice_batch(&criteria).unwrap().slices
            );
            assert_eq!(
                fwd, fwd_baseline,
                "{name}: forward slices diverged at {t} threads"
            );
            four_threads = Some(parallel);
        }
        // The 4-worker session, warmed by the checks above.
        let four_threads = four_threads.expect("the 4-thread session is built last");

        // Deterministic counters, summed over the workload's criteria.
        let mut counters = Counters {
            pds_rules: slicer.encoding().pds.rule_count(),
            ..Counters::default()
        };
        for criterion in &criteria {
            let (slice, stats) = slicer.slice_with_stats(criterion).expect("criterion");
            counters.saturation_transitions += stats.saturation_transitions;
            counters.saturation_rule_applications += stats.saturation_rule_applications;
            counters.saturation_peak_worklist += stats.saturation_peak_worklist;
            counters.a1_states += stats.a1_states;
            counters.a1_transitions += stats.a1_transitions;
            counters.det_states += stats.mrd.determinized_states;
            counters.min_states += stats.mrd.minimized_states;
            counters.mrd_states += stats.mrd.mrd_states;
            counters.mrd_transitions += stats.mrd.mrd_transitions;
            counters.slice_vertices += slice.total_vertices();
            counters.variants += slice.variant_count();
        }
        let base = slicer
            .saturation_base(Direction::Backward)
            .expect("backward queries build the saturation base")
            .stats();
        assert_eq!(
            slicer.saturation_base_builds(Direction::Backward),
            1,
            "{name}: one backward base"
        );
        counters.base_transitions = base.transitions;
        counters.base_rule_applications = base.rule_applications;

        // The forward mirror: the same criteria re-answered as `post*`
        // queries through the same cached encoding, plus one chop from the
        // first statement of `main` to the all-printfs criterion. The
        // counters are pure functions of the workload, so the bench-gate
        // diffs them exactly like the backward ones.
        let mut forward_saturated = 0;
        for criterion in &criteria {
            let (slice, stats) = slicer
                .forward_slice_with_stats(criterion)
                .expect("forward criterion");
            forward_saturated += stats.saturation_transitions;
            counters.forward_rule_applications += stats.saturation_rule_applications;
            counters.forward_slice_vertices += slice.total_vertices();
            counters.forward_variants += slice.variant_count();
        }
        let forward_base = slicer
            .saturation_base(Direction::Forward)
            .expect("forward queries build the forward base")
            .stats();
        // Each query's saturated relation is the shared base plus its own
        // overlay; count only the overlays.
        counters.forward_transitions =
            forward_saturated - criteria.len() * forward_base.transitions;
        assert_eq!(
            slicer.saturation_base_builds(Direction::Forward),
            1,
            "{name}: one forward base"
        );
        counters.forward_base_transitions = forward_base.transitions;
        counters.forward_base_rule_applications = forward_base.rule_applications;
        if let Some(source) = chop_source(&slicer) {
            let chop = slicer
                .chop(&source, &Criterion::printf_actuals(slicer.sdg()))
                .expect("chop");
            counters.chop_vertices = chop.total_vertices();
            counters.chop_variants = chop.variant_count();
        }

        // Batch counters: a single `slice_batch` over the whole criterion
        // list, which saturates once per distinct criterion.
        {
            let batch = slicer.slice_batch(&criteria).expect("batch");
            counters.saturations_run = batch.aggregate.saturations_run;
            let distinct = specslice_bench::distinct_criteria(&criteria);
            assert_eq!(
                counters.saturations_run, distinct,
                "{name}: {} saturations for {distinct} distinct criteria",
                counters.saturations_run
            );
        }

        // Whole-program specialization: the per-printf criteria merged into
        // one output (plus the all-printfs union criterion when the program
        // has several printfs — the canonical overlapping-criteria shape,
        // which is what makes cross-criterion dedup observable even on the
        // share-nothing feature grids). A fresh session keeps the store
        // counters attributable to this pass alone; all counters recorded
        // here are deterministic, and the merged output is asserted
        // byte-identical at 1, 2, and 4 worker threads.
        {
            let mut spec_criteria = criteria.clone();
            if criteria.len() > 1 {
                spec_criteria.push(Criterion::printf_actuals(slicer.sdg()));
            }
            let spec_session =
                Slicer::from_source_with(&source, config()).expect("workload program");
            let spec = spec_session
                .specialize_program(&spec_criteria)
                .expect("specialize_program");
            let st = spec_session.store_stats();
            counters.interned_variants = st.interned;
            counters.dedup_hits = st.dedup_hits;
            counters.store_row_bytes = st.row_bytes;
            counters.merged_functions = spec.functions.len();
            counters.regen_bytes = spec.regen.source.len();
            if name.starts_with("grid") {
                assert!(
                    st.dedup_hits > 0,
                    "{name}: union criterion must dedup against per-feature slices"
                );
                // The grids take no input, so the merged program (driver
                // main included) must run end to end.
                use specslice::exec::{self, ExecRequest};
                exec::run(&ExecRequest::new(&spec.regen.program).with_fuel(ExecRequest::DEEP_FUEL))
                    .unwrap_or_else(|e| panic!("{name}: merged program failed to run: {e}"));
            }
            let spec_baseline = format!("{}\n{:?}", spec.regen.source, spec.per_criterion);
            for t in [2usize, 4] {
                let parallel = Slicer::from_source_with(
                    &source,
                    SlicerConfig {
                        num_threads: t,
                        ..config()
                    },
                )
                .expect("workload program");
                let spec_t = parallel
                    .specialize_program(&spec_criteria)
                    .expect("specialize_program");
                assert_eq!(
                    spec_baseline,
                    format!("{}\n{:?}", spec_t.regen.source, spec_t.per_criterion),
                    "{name}: merged program diverged at {t} threads"
                );
            }
        }

        // Wall-clock: answer the whole criterion list, cold, per sample,
        // through `slice_batch` on one worker thread.
        let s = timer::run(
            &format!("query/{}-x{}", name, criteria.len()),
            samples,
            || {
                slicer.slice_batch(&criteria).unwrap();
            },
        );
        println!("{}", s.row());

        // The same batch on 4 workers, for the thread-scaling assertion.
        if criteria.len() >= 4 {
            let s4 = timer::run(
                &format!("query/{}-x{}-t4", name, criteria.len()),
                samples,
                || {
                    four_threads.slice_batch(&criteria).unwrap();
                },
            );
            println!("{}", s4.row());
            total_t1 += s.median;
            total_t4 += s4.median;
        }

        // Session reuse against cold one-shot calls, each of which pays
        // for its own encoding and a saturation over the empty base.
        if criteria.len() > 1 {
            let sdg = slicer.sdg().clone();
            let cold = timer::run(
                &format!("query/{}-x{}-cold-specialize", name, criteria.len()),
                samples,
                || {
                    for criterion in &criteria {
                        specialize(&sdg, criterion).unwrap();
                    }
                },
            );
            println!("{}", cold.row());
            session_speedups.push(cold.median.as_secs_f64() / s.median.as_secs_f64());
        }
        rows.push(WorkloadRow {
            name,
            criteria: criteria.len(),
            counters,
            median_total: s.median,
        });
    }

    let geomean_us = geometric_mean(
        rows.iter()
            .map(|r| r.median_total.as_secs_f64() * 1e6 / r.criteria as f64),
    );
    println!("geomean per-criterion query time: {geomean_us:.1} us");

    let session_gm = geometric_mean(session_speedups.iter().copied());
    println!("geomean session speedup over cold specialize calls: {session_gm:.2}x");
    assert!(
        session_gm > 1.0,
        "session reuse must beat repeated cold specialize calls (measured {session_gm:.2}x)"
    );
    let t4_speedup = total_t1.as_secs_f64() / total_t4.as_secs_f64();
    println!(
        "4-thread batch speedup vs 1 (wall-clock, workloads of >= 4 criteria): {t4_speedup:.2}x"
    );
    if host >= 4 && !smoke() {
        assert!(
            t4_speedup >= 1.5,
            "4-thread slice_batch must be >= 1.5x over sequential on a >= 4-core host \
             (measured {t4_speedup:.2}x)"
        );
    } else {
        println!("the 4-thread >= 1.5x assertion arms on >= 4-core hosts outside smoke mode");
    }

    println!("\nserver round trip (warm session, TCP loopback):");
    println!("{}", timer::header());
    let server_rows = bench_server(samples);

    let json = render_json(samples, host, &rows, &server_rows, geomean_us);
    println!("\n--- JSON report ---\n{json}");
    if let Ok(path) = std::env::var("BENCH_QUERY_JSON") {
        // Cargo runs bench binaries with cwd = the *package* directory;
        // relative paths are meant against the workspace root (that is
        // where the committed snapshot lives), so anchor them there.
        let path = {
            let p = std::path::PathBuf::from(&path);
            if p.is_absolute() {
                p
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join(p)
            }
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create snapshot directory");
        }
        std::fs::write(&path, &json).expect("write JSON snapshot");
        eprintln!("wrote {}", path.display());
    }
}

/// One server round-trip row: the full client→daemon→client cost of a
/// `slice` request answered from a warm session's memo. Pure wall-clock —
/// this measures wire + dispatch overhead, not pipeline work.
struct ServerRow {
    name: String,
    median_round_trip: Duration,
}

/// Opens a handful of corpus programs on an in-process daemon and times
/// repeated `slice` round trips over TCP loopback. The first (warmup)
/// iteration populates the session memo, so the timed iterations measure
/// the daemon's serving overhead on the memoized path — the latency a
/// long-lived editor session actually sees.
fn bench_server(samples: usize) -> Vec<ServerRow> {
    use specslice_server::{serve, Bind, Client, Json, ServerConfig};

    let mut config = ServerConfig::new(Bind::Tcp("127.0.0.1:0".to_string()));
    config.threads = Some(1);
    let handle = serve(config).expect("bind loopback daemon");
    let mut client = Client::connect_tcp(&handle.addr).expect("connect");
    let mut rows = Vec::new();
    for name in ["tcas", "schedule2", "go"] {
        let program = specslice_corpus::by_name(name).expect("corpus program");
        let opened = client
            .request("open", [("source", Json::str(program.source))])
            .expect("open");
        let sid = opened
            .get("session")
            .and_then(Json::as_str)
            .expect("session id")
            .to_string();
        let criterion = Json::obj([("kind", Json::str("printf_actuals"))]);
        let s = timer::run(
            &format!("server/{name}-slice-round-trip"),
            samples.max(3),
            || {
                client
                    .request(
                        "slice",
                        [
                            ("session", Json::str(sid.clone())),
                            ("criterion", criterion.clone()),
                        ],
                    )
                    .expect("slice round trip")
            },
        );
        println!("{}", s.row());
        rows.push(ServerRow {
            name: name.to_string(),
            median_round_trip: s.median,
        });
    }
    handle.stop();
    rows
}

/// Hand-rolled JSON (the workspace is dependency-free — no serde). The
/// `"counters"` objects must stay byte-stable across machines: they hold
/// only deterministic pipeline counts, formatted with fixed key order.
/// The `"server"` section is wall-clock only and lives outside
/// `"workloads"`, so the CI bench-gate's counter diff never touches it.
fn render_json(
    samples: usize,
    host: usize,
    rows: &[WorkloadRow],
    server_rows: &[ServerRow],
    geomean_us: f64,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"query\",");
    let _ = writeln!(
        s,
        "  \"workload\": \"per-printf cold queries, corpus + feature grids\","
    );
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"host_parallelism\": {host},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let c = &r.counters;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"criteria\": {},", r.criteria);
        let _ = writeln!(s, "      \"counters\": {{");
        let _ = writeln!(s, "        \"pds_rules\": {},", c.pds_rules);
        let _ = writeln!(
            s,
            "        \"prestar_transitions\": {},",
            c.saturation_transitions
        );
        let _ = writeln!(
            s,
            "        \"prestar_rule_applications\": {},",
            c.saturation_rule_applications
        );
        let _ = writeln!(
            s,
            "        \"prestar_peak_worklist\": {},",
            c.saturation_peak_worklist
        );
        let _ = writeln!(s, "        \"a1_states\": {},", c.a1_states);
        let _ = writeln!(s, "        \"a1_transitions\": {},", c.a1_transitions);
        let _ = writeln!(s, "        \"det_states\": {},", c.det_states);
        let _ = writeln!(s, "        \"min_states\": {},", c.min_states);
        let _ = writeln!(s, "        \"mrd_states\": {},", c.mrd_states);
        let _ = writeln!(s, "        \"mrd_transitions\": {},", c.mrd_transitions);
        let _ = writeln!(s, "        \"slice_vertices\": {},", c.slice_vertices);
        let _ = writeln!(s, "        \"variants\": {},", c.variants);
        let _ = writeln!(s, "        \"interned_variants\": {},", c.interned_variants);
        let _ = writeln!(s, "        \"dedup_hits\": {},", c.dedup_hits);
        let _ = writeln!(s, "        \"store_row_bytes\": {},", c.store_row_bytes);
        let _ = writeln!(s, "        \"merged_functions\": {},", c.merged_functions);
        let _ = writeln!(s, "        \"regen_bytes\": {},", c.regen_bytes);
        let _ = writeln!(s, "        \"saturations_run\": {},", c.saturations_run);
        let _ = writeln!(s, "        \"base_transitions\": {},", c.base_transitions);
        let _ = writeln!(
            s,
            "        \"base_rule_applications\": {},",
            c.base_rule_applications
        );
        let _ = writeln!(
            s,
            "        \"forward_transitions\": {},",
            c.forward_transitions
        );
        let _ = writeln!(
            s,
            "        \"forward_rule_applications\": {},",
            c.forward_rule_applications
        );
        let _ = writeln!(
            s,
            "        \"forward_base_transitions\": {},",
            c.forward_base_transitions
        );
        let _ = writeln!(
            s,
            "        \"forward_base_rule_applications\": {},",
            c.forward_base_rule_applications
        );
        let _ = writeln!(
            s,
            "        \"forward_slice_vertices\": {},",
            c.forward_slice_vertices
        );
        let _ = writeln!(s, "        \"forward_variants\": {},", c.forward_variants);
        let _ = writeln!(s, "        \"chop_vertices\": {},", c.chop_vertices);
        let _ = writeln!(s, "        \"chop_variants\": {}", c.chop_variants);
        let _ = writeln!(s, "      }},");
        let _ = writeln!(
            s,
            "      \"median_total_us\": {:.1},",
            r.median_total.as_secs_f64() * 1e6
        );
        let _ = writeln!(
            s,
            "      \"us_per_criterion\": {:.1}",
            r.median_total.as_secs_f64() * 1e6 / r.criteria as f64
        );
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"server\": {{");
    let _ = writeln!(s, "    \"transport\": \"tcp-loopback\",");
    let _ = writeln!(s, "    \"session\": \"warm (memoized slice)\",");
    let _ = writeln!(s, "    \"workloads\": [");
    for (i, r) in server_rows.iter().enumerate() {
        let comma = if i + 1 == server_rows.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      {{\"name\": \"{}\", \"median_round_trip_us\": {:.1}}}{comma}",
            r.name,
            r.median_round_trip.as_secs_f64() * 1e6
        );
    }
    let _ = writeln!(s, "    ]");
    let _ = writeln!(s, "  }},");
    let _ = writeln!(s, "  \"geomean_us_per_criterion\": {geomean_us:.1}");
    let _ = writeln!(s, "}}");
    s
}
