//! Scale-corpus benchmark: synthetic programs two orders of magnitude
//! beyond the paper corpus (thousands of procedures, mutual-recursion
//! rings chained into a deep SCC DAG, function-pointer webs), answered as
//! skewed many-criterion batches.
//!
//! Run with: `cargo bench -p specslice-bench --bench scale --features count-alloc`
//!
//! Each tier generates one program with [`specslice_corpus::scale_program`]
//! (fixed seed — the workload is a constant of the repository), opens one
//! session, and answers a hot/cold-skewed criterion batch drawn with
//! [`specslice_corpus::skewed_site_sample`]. The JSON report mirrors
//! `BENCH_query.json` (committed snapshot: `BENCH_scale.json` at the repo
//! root) and separates:
//!
//! * **gated counters** (`"counters"`): SDG/PDS sizes, saturation
//!   counts, slice sizes, and — when the `count-alloc` feature installs the
//!   counting allocator — allocation events and bytes for the sequential
//!   warm batch, normalized per criterion. All are pure functions of the
//!   workload on one thread, so CI's `scale-smoke` job diffs them against
//!   the snapshot (`"alloc_enabled"` records whether the allocator was
//!   live; the diff skips alloc counters when it was not).
//! * **wall-clock and RSS** (`"median_total_us"`, `"us_per_criterion"`,
//!   `"peak_rss_bytes"`): machine-dependent, recorded for the perf
//!   trajectory, never gated. Peak RSS is process-wide and cumulative
//!   across tiers (tiers run smallest-first).
//!
//! `BENCH_SCALE_SMOKE=1` runs only the smallest tier with one sample —
//! the CI configuration. The smallest tier also asserts byte-identical
//! batches at 1, 2, and 4 worker threads.

use specslice::{Criterion, Direction, Slicer, SlicerConfig};
use specslice_bench::{alloc_count, timer};
use specslice_corpus::{scale_program, skewed_site_sample, ScaleConfig};
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var("BENCH_SCALE_SMOKE").is_ok()
}

/// One scale tier: a generator config sized to hit a vertex budget, plus
/// the criterion-batch size drawn over its printf sites.
struct Tier {
    name: &'static str,
    cfg: ScaleConfig,
    n_criteria: usize,
}

/// The committed tiers. `n_procs` is calibrated so SDG vertex counts land
/// near the tier names (the `sdg_vertices` counter pins the exact number).
fn tiers() -> Vec<Tier> {
    let mut out = vec![
        Tier {
            name: "1k",
            cfg: ScaleConfig {
                n_procs: 16,
                n_globals: 8,
                ring: 4,
                indirect_pct: 25,
                n_printfs: 24,
            },
            n_criteria: 60,
        },
        Tier {
            name: "4k",
            cfg: ScaleConfig {
                n_procs: 64,
                n_globals: 10,
                ring: 4,
                indirect_pct: 25,
                n_printfs: 48,
            },
            n_criteria: 120,
        },
        Tier {
            name: "10k",
            cfg: ScaleConfig {
                n_procs: 170,
                n_globals: 16,
                ring: 5,
                indirect_pct: 20,
                n_printfs: 96,
            },
            n_criteria: 200,
        },
    ];
    if smoke() {
        out.truncate(1);
    }
    out
}

/// Sequential, memo-off session config: the counter-measurement path.
fn config() -> SlicerConfig {
    SlicerConfig {
        memoize: false,
        num_threads: 1,
    }
}

/// Opens a scale program: frontend → §6.2 indirect-call lowering →
/// session (the generator emits function-pointer webs, so the dispatcher
/// synthesis is part of the workload).
fn open(source: &str, config: SlicerConfig) -> Slicer {
    let program = specslice_lang::frontend(source).expect("scale program");
    let lowered = specslice::indirect::lower_indirect_calls(&program).expect("indirect lowering");
    Slicer::from_program_with(lowered, config).expect("scale session")
}

/// The gated per-tier counters (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    sdg_vertices: usize,
    procedures: usize,
    pds_rules: usize,
    criteria: usize,
    distinct_sites: usize,
    saturations_run: usize,
    /// The batch's own rule applications, beyond the session's `pre*`
    /// base, and the base's transitions and rule applications (built once
    /// per session, by the batch's first backward query).
    rule_applications: usize,
    base_transitions: usize,
    base_rule_applications: usize,
    /// Forward saturation bases built by the backward batch: 0, since an
    /// all-contexts criterion reads its stack language off the call graph.
    forward_base_builds: usize,
    transitions: usize,
    slice_vertices: usize,
    variants: usize,
    /// Allocation events / bytes of one warm sequential batch (counting
    /// allocator live), divided by the criterion count. Zero when the
    /// `count-alloc` feature is off.
    alloc_count_per_criterion: u64,
    alloc_kb_per_criterion: u64,
}

struct TierRow {
    name: &'static str,
    counters: Counters,
    median_total: Duration,
    us_per_criterion: f64,
    peak_rss_bytes: u64,
}

fn main() {
    let samples = if smoke() { 1 } else { 5 };
    let host = specslice_exec::available_parallelism();
    println!(
        "scale-corpus bench, skewed criterion batches, memoize off, \
         {samples} sample(s), host parallelism = {host}, counting allocator: {}",
        alloc_count::enabled()
    );
    println!("{}", timer::header());

    let mut rows: Vec<TierRow> = Vec::new();
    for (tier_idx, tier) in tiers().into_iter().enumerate() {
        let source = scale_program(42, tier.cfg);
        let slicer = open(&source, config());
        let sdg = slicer.sdg();

        let sites: Vec<Criterion> = sdg
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .collect();
        assert!(
            !sites.is_empty(),
            "{}: generator emitted no printf sites",
            tier.name
        );
        let criteria: Vec<Criterion> = skewed_site_sample(sites.len(), tier.n_criteria, 7)
            .into_iter()
            .map(|i| sites[i].clone())
            .collect();

        let mut counters = Counters {
            sdg_vertices: sdg.vertex_count(),
            procedures: sdg.procs.len(),
            pds_rules: slicer.encoding().pds.rule_count(),
            criteria: criteria.len(),
            distinct_sites: sites.len(),
            ..Counters::default()
        };

        // Warm-up batch: first answer populates the scratch pool, so the
        // measured batch below sees the steady state a long-lived session
        // runs in. Its aggregate carries the gated saturation counters.
        let batch = slicer.slice_batch(&criteria).expect("batch");
        counters.saturations_run = batch.aggregate.saturations_run;
        counters.rule_applications = batch.aggregate.saturation_rule_applications;
        let base = slicer
            .saturation_base(Direction::Backward)
            .expect("the backward batch builds the saturation base")
            .stats();
        counters.base_transitions = base.transitions;
        counters.base_rule_applications = base.rule_applications;
        counters.forward_base_builds = slicer.saturation_base_builds(Direction::Forward);
        counters.transitions = batch.aggregate.saturation_transitions;
        for slice in &batch.slices {
            counters.slice_vertices += slice.total_vertices();
            counters.variants += slice.variant_count();
        }
        // Batches answer each distinct criterion once.
        let distinct = specslice_bench::distinct_criteria(&criteria);
        assert_eq!(
            counters.saturations_run, distinct,
            "{}: {} saturations for {distinct} distinct criteria",
            tier.name, counters.saturations_run
        );
        let baseline = format!("{:?}", batch.slices);

        // Allocation accounting: one warm sequential batch under the
        // counting allocator. Deterministic because the session runs one
        // worker thread and every hot-path hash is FxHash.
        let (_, delta) = alloc_count::measure(|| slicer.slice_batch(&criteria).expect("batch"));
        counters.alloc_count_per_criterion = delta.count / criteria.len() as u64;
        counters.alloc_kb_per_criterion = delta.bytes / 1024 / criteria.len() as u64;

        // Smallest tier: the batch must be thread-count independent.
        if tier_idx == 0 {
            for t in [2usize, 4] {
                let parallel = open(
                    &source,
                    SlicerConfig {
                        num_threads: t,
                        ..config()
                    },
                );
                let out = format!("{:?}", parallel.slice_batch(&criteria).unwrap().slices);
                assert_eq!(
                    out, baseline,
                    "{}: batch diverged at {t} threads",
                    tier.name
                );
            }
        }

        // Wall-clock: the skewed batch at host-default parallelism.
        // Ungated.
        let wall_session = open(
            &source,
            SlicerConfig {
                num_threads: host.min(4),
                ..config()
            },
        );
        let s = timer::run(
            &format!("scale/{}-x{}", tier.name, criteria.len()),
            samples,
            || {
                wall_session.slice_batch(&criteria).unwrap();
            },
        );
        println!("{}", s.row());

        rows.push(TierRow {
            name: tier.name,
            counters,
            median_total: s.median,
            us_per_criterion: s.median.as_secs_f64() * 1e6 / criteria.len() as f64,
            peak_rss_bytes: alloc_count::peak_rss_bytes().unwrap_or(0),
        });
    }

    let json = render_json(samples, host, &rows);
    println!("\n--- JSON report ---\n{json}");
    if let Ok(path) = std::env::var("BENCH_SCALE_JSON") {
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

/// Hand-rolled JSON with fixed key order, like the other bench reports.
/// `"counters"` must stay byte-stable across machines; wall-clock and RSS
/// live outside it.
fn render_json(samples: usize, host: usize, rows: &[TierRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"scale\",");
    let _ = writeln!(
        s,
        "  \"workload\": \"scale-corpus skewed criterion batches (seed 42)\","
    );
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"host_parallelism\": {host},");
    let _ = writeln!(s, "  \"alloc_enabled\": {},", alloc_count::enabled());
    let _ = writeln!(s, "  \"tiers\": [");
    for (i, r) in rows.iter().enumerate() {
        let c = &r.counters;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"counters\": {{");
        let _ = writeln!(s, "        \"sdg_vertices\": {},", c.sdg_vertices);
        let _ = writeln!(s, "        \"procedures\": {},", c.procedures);
        let _ = writeln!(s, "        \"pds_rules\": {},", c.pds_rules);
        let _ = writeln!(s, "        \"criteria\": {},", c.criteria);
        let _ = writeln!(s, "        \"distinct_sites\": {},", c.distinct_sites);
        let _ = writeln!(s, "        \"saturations_run\": {},", c.saturations_run);
        let _ = writeln!(s, "        \"rule_applications\": {},", c.rule_applications);
        let _ = writeln!(s, "        \"base_transitions\": {},", c.base_transitions);
        let _ = writeln!(
            s,
            "        \"base_rule_applications\": {},",
            c.base_rule_applications
        );
        let _ = writeln!(
            s,
            "        \"forward_base_builds\": {},",
            c.forward_base_builds
        );
        let _ = writeln!(s, "        \"transitions\": {},", c.transitions);
        let _ = writeln!(s, "        \"slice_vertices\": {},", c.slice_vertices);
        let _ = writeln!(s, "        \"variants\": {},", c.variants);
        let _ = writeln!(
            s,
            "        \"alloc_count_per_criterion\": {},",
            c.alloc_count_per_criterion
        );
        let _ = writeln!(
            s,
            "        \"alloc_kb_per_criterion\": {}",
            c.alloc_kb_per_criterion
        );
        let _ = writeln!(s, "      }},");
        let _ = writeln!(
            s,
            "      \"median_total_us\": {},",
            r.median_total.as_micros()
        );
        let _ = writeln!(s, "      \"us_per_criterion\": {:.1},", r.us_per_criterion);
        let _ = writeln!(s, "      \"peak_rss_bytes\": {}", r.peak_rss_bytes);
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}
