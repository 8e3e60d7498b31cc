//! Debugging scenario (§5): a bug is observed at a specific configuration
//! (vertex + call stack); slice to the smallest executable program that
//! reproduces the value flowing there — including the Fig. 2 effect where
//! direct recursion specializes into mutual recursion.
//!
//! Both criteria run against ONE `Slicer` session, so the SDG→PDS encoding
//! is built once for the two queries.
//!
//! `--alloc` appends an allocation report over the scale corpus' 1k tier:
//! allocation counts and bytes per pipeline stage plus the warm session's
//! scratch-pool arena high-water marks — the same accounting
//! `BENCH_scale.json` snapshots. Build with the counting allocator to get
//! non-zero numbers:
//!
//! ```text
//! cargo run -p specslice-bench --example debug_slice --features count-alloc -- --alloc
//! ```

use specslice::{Criterion, Direction, Slicer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let source = specslice_corpus::examples::FIG2;
    println!("=== original (direct recursion) ===\n{source}");

    let slicer = Slicer::from_source(source)?;
    let sdg = slicer.sdg();

    // Criterion: the printf in main, every calling context. Timing and
    // automaton sizes come from the pipeline's own accounting
    // (`PipelineStats`), the same numbers the bench drivers report.
    let (slice, stats) = slicer.slice_with_stats(&Criterion::printf_actuals(sdg))?;
    println!(
        "criterion 1/2 (printf actuals, all contexts): {}",
        stats.summary()
    );
    println!(
        "variants: {:?}",
        slice
            .metas()
            .iter()
            .map(|v| v.name.as_str())
            .collect::<Vec<_>>()
    );

    // The first backward query built the session's backward saturation
    // base, `pre*` of the empty query. A backward-only session never
    // builds the forward one (the `post*` closure of every push's first
    // hop): an all-contexts criterion reads its realizable stacks off the
    // call graph. Every query after the base only saturates its own
    // overlay. Each built base's work is reported here, once; the
    // `saturation=` field above counts base + overlay transitions.
    for dir in [Direction::Backward, Direction::Forward] {
        if let Some(base) = slicer.saturation_base(dir) {
            let b = base.stats();
            println!(
                "{dir} saturation base (once per session, built {}x): {} transitions, \
                 {} rule applications, peak worklist {}, ~{} bytes",
                slicer.saturation_base_builds(dir),
                b.transitions,
                b.rule_applications,
                b.peak_worklist,
                base.approx_bytes()
            );
        }
    }

    let regen = slicer.regenerate(&slice)?;
    println!("=== specialized (mutual recursion) ===\n{}", regen.source);

    // Also demonstrate a configuration criterion: r's entry under the
    // outermost call only — same session, no re-encoding.
    let r = sdg.proc_named("r").expect("r exists");
    let main_site = sdg
        .call_sites
        .iter()
        .find(|c| {
            sdg.proc(c.caller).name == "main"
                && matches!(c.callee, specslice_sdg::CalleeKind::User(p) if p == r.id)
        })
        .expect("main calls r");
    let (cfg_slice, cfg_stats) =
        slicer.slice_with_stats(&Criterion::configuration(r.entry, vec![main_site.id]))?;
    println!(
        "criterion 2/2 (r:entry under [C_main]): {}",
        cfg_stats.summary()
    );
    println!(
        "slicing on (r:entry, [C_main]) keeps {} variants",
        cfg_slice.variant_count()
    );

    // The same session also answers forward (post*) queries and chops, and
    // the `memo=` field of each summary keeps the two caches apart: an
    // entry memoized backward never answers a forward query. The chop's
    // constituents — the printf criterion sliced backward above and the
    // forward query run here — are both warm by the time the chop runs, so
    // its summary reports one memo hit per direction.
    let fwd_criterion = Criterion::configuration(r.entry, vec![main_site.id]);
    let (fwd, fwd_stats) = slicer.forward_slice_with_stats(&fwd_criterion)?;
    println!(
        "forward (r:entry under [C_main], post*): {}",
        fwd_stats.summary()
    );
    println!("forward slice reaches {} vertices", fwd.total_vertices());
    let (chop, chop_stats) =
        slicer.chop_with_stats(&fwd_criterion, &Criterion::printf_actuals(sdg))?;
    println!("chop (r:entry → printf actuals): {}", chop_stats.summary());
    println!(
        "chop keeps {} vertices across {} variants",
        chop.total_vertices(),
        chop.variant_count()
    );

    // Both slices interned their variant content into the session's store;
    // identical projections across criteria are stored (and counted) once.
    let st = slicer.store_stats();
    println!(
        "variant store: {} interned / {} intern calls ({} dedup hits), {} row bytes",
        st.interned, st.intern_calls, st.dedup_hits, st.row_bytes
    );

    // The per-stage byte estimates behind `Slicer::approx_bytes` — the same
    // accounting the server's LRU eviction budget charges a session with.
    println!(
        "resident estimate: {} bytes (sdg {}, store {}, mrd automata {} + {})",
        slicer.approx_bytes(),
        sdg.approx_bytes(),
        st.approx_bytes(),
        stats.approx_bytes(),
        cfg_stats.approx_bytes(),
    );

    if std::env::args().any(|a| a == "--alloc") {
        alloc_report()?;
    }
    Ok(())
}

/// The `--alloc` report: per-stage allocation counts over the scale
/// corpus' 1k tier (the workload `BENCH_scale.json` gates), measured with
/// the counting allocator when the `count-alloc` feature installed it.
fn alloc_report() -> Result<(), Box<dyn std::error::Error>> {
    use specslice::encode::MAIN_CONTROL;
    use specslice::SlicerConfig;
    use specslice_bench::alloc_count as ac;

    println!("\n=== allocation report (scale 1k tier) ===");
    if !ac::enabled() {
        println!(
            "counting allocator not installed; rebuild with \
             `--features count-alloc` for non-zero numbers"
        );
    }
    let cfg = specslice_corpus::ScaleConfig {
        n_procs: 16,
        n_globals: 8,
        ring: 4,
        indirect_pct: 25,
        n_printfs: 24,
    };
    let source = specslice_corpus::scale_program(42, cfg);
    let stage = |name: &str, d: specslice_bench::alloc_count::AllocDelta| {
        println!(
            "  {name:<28} {:>9} allocs {:>12} bytes (peak live {} KiB)",
            d.count,
            d.bytes,
            d.peak_bytes / 1024
        );
    };

    let (slicer, d) = ac::measure(|| -> Result<Slicer, Box<dyn std::error::Error>> {
        let program = specslice_lang::frontend(&source)?;
        let lowered = specslice::indirect::lower_indirect_calls(&program)?;
        Ok(Slicer::from_program_with(
            lowered,
            SlicerConfig {
                memoize: false,
                num_threads: 1,
            },
        )?)
    });
    let slicer = slicer?;
    stage("session build", d);

    let sdg = slicer.sdg();
    let enc = slicer.encoding();
    let sites: Vec<Criterion> = sdg
        .printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect();
    let criteria: Vec<Criterion> = specslice_corpus::skewed_site_sample(sites.len(), 60, 7)
        .into_iter()
        .map(|i| sites[i].clone())
        .collect();

    // One cold query decomposed stage by stage (the scratch-free public
    // APIs — an upper bound on what the warm session path pays).
    let criterion = &criteria[0];
    let (query, d) = ac::measure(|| {
        specslice::criteria::query_automaton(sdg, enc, criterion).expect("criterion")
    });
    stage("cold: query automaton", d);
    let mut sat = specslice_pds::SaturationScratch::default();
    let mut bases = Vec::new();
    for dir in [Direction::Backward, Direction::Forward] {
        let (base, d) = ac::measure(|| match dir {
            Direction::Backward => specslice_pds::SaturationBase::backward(&enc.index),
            Direction::Forward => specslice_pds::SaturationBase::forward(&enc.index),
        });
        stage(&format!("session: {dir} base"), d);
        let b = base.stats();
        println!(
            "    ({dir} base: {} transitions, {} rule applications, ~{} KiB retained)",
            b.transitions,
            b.rule_applications,
            base.approx_bytes() / 1024
        );
        bases.push(base);
    }
    // The forward overlay of the same criterion, over the forward base.
    let (_, d) = ac::measure(|| {
        specslice_pds::saturate_a1_with_stats(
            Direction::Forward,
            &enc.index,
            &bases[1],
            &query,
            MAIN_CONTROL,
            &mut sat,
        )
        .expect("well-formed query")
        .1
    });
    stage("cold: forward overlay + A1", d);
    let (a1, d) = ac::measure(|| {
        specslice_pds::saturate_a1_with_stats(
            Direction::Backward,
            &enc.index,
            &bases[0],
            &query,
            MAIN_CONTROL,
            &mut sat,
        )
        .expect("well-formed query")
        .0
    });
    stage("cold: backward overlay + A1", d);
    let ((a6, mrd_stats), d) = ac::measure(|| specslice_fsa::mrd::mrd_of_transposed(a1));
    stage("cold: determinize + MRD", d);
    println!(
        "    (mrd sizes: input {} -> det {} -> min {} -> mrd {} states)",
        mrd_stats.input_states,
        mrd_stats.determinized_states,
        mrd_stats.minimized_states,
        mrd_stats.mrd_states
    );
    let (_, d) = ac::measure(|| specslice::readout::read_out(sdg, enc, &a6).expect("read out"));
    stage("cold: read-out", d);

    // The gated numbers: a warm sequential batch, normalized per
    // criterion (one batch already ran, so the scratch pool is warm).
    slicer.slice_batch(&criteria)?;
    let (_, d) = ac::measure(|| slicer.slice_batch(&criteria).expect("batch"));
    stage("warm batch total", d);
    println!(
        "  warm per criterion: {} allocs, {} bytes ({} criteria)",
        d.count / criteria.len() as u64,
        d.bytes / criteria.len() as u64,
        criteria.len()
    );

    let ss = slicer.scratch_stats();
    println!(
        "  scratch pool: {} pooled scratches, ~{} KiB retained, \
         arena high-water {} KiB",
        ss.pooled,
        ss.approx_bytes / 1024,
        ss.arena_high_water / 1024
    );
    Ok(())
}
