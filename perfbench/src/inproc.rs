//! The timed run of the in-process workloads (scale-skewed, grid-distinct)
//! and the output checks every in-process run ends with.
//!
//! Only the public session API (`Slicer`) and the exec API are timed. A
//! pass opens fresh sessions, so the memo never carries over between
//! passes:
//!
//! 1. session A: one `forward_slice_batch` from every procedure's first
//!    formal-in, then the backward criterion stream (scale-skewed: one
//!    `slice_batch`; grid-distinct: one `slice` call per criterion).
//!    Each scale-skewed batch takes seconds, so its passes alternate
//!    between the two (odd passes forward, even passes backward) to fit
//!    enough passes in a run;
//! 2. scale-skewed only, sessions B: on each, every printf site answered
//!    cold by its own `slice` call, in seeded order (on the grid the stream
//!    already is that);
//! 3. program edits (`apply_edit`) on the (last) session that answered
//!    the solo reads;
//! 4. session C: a cold `specialize_program` over every printf site (on
//!    the grid, the stream's distinct criteria are exactly those).
//!
//! Solo reads and specialization use every site, not the seeded sample's
//! distinct subset, so that which sites a seed happens to draw does not
//! move their timings. Every metric pools the samples of the whole run, so
//! the statistic is the same however many passes fit: set-up time is the
//! median over every session opened, specialize and latency centres are
//! means over every sample, the read tail is the p90, and rates are
//! answers over the summed time they took. Means rather than medians
//! because the host alternates between fast and slow phases: a run's
//! samples form two clusters, a median jumps between them with the share
//! of slow time, and a mean moves only in proportion to it.

use crate::checks::{check_merged, run_vm, stream_at};
use crate::measure::{geomean, mean, median, ms, peak_rss_mb, percentile, Report};
use crate::trace::{Layers, QueryCounts, Tracer};
use crate::workload::{
    delta_to, forward_criteria, open, printf_criteria, printf_lines, toggle, Instance, Kind, Run,
    Size,
};
use specslice::{Criterion, Slicer};
use specslice_pds::SaturationScratch;
use std::time::Instant;

/// The samples of one run, pooled over its passes.
#[derive(Default)]
struct Acc {
    /// Session set-up times (s).
    setup: Vec<f64>,
    /// Backward criteria answered on session A, and their query time (s).
    backward: (usize, f64),
    /// Forward slices answered, and their batch time (s).
    forward: (usize, f64),
    /// Cold solo `slice` latencies (ms).
    reads: Vec<f64>,
    /// `apply_edit` latencies (ms).
    edits: Vec<f64>,
    /// Cold `specialize_program` times (s).
    specialize: Vec<f64>,
    /// Answers of every kind (criteria, forward slices, solo reads, edits,
    /// specializations), and the pass time they took (s).
    answers: (usize, f64),
}

fn timed_open(source: &str, r: &mut Report, acc: &mut Acc) -> Option<Slicer> {
    let t = Instant::now();
    let session = open(source);
    let d = t.elapsed();
    let session = r.op("open", session)?;
    acc.setup.push(d.as_secs_f64());
    Some(session)
}

/// Answers every criterion with its own cold `slice` call, timing each.
fn solo_reads<'c>(
    session: &Slicer,
    criteria: impl Iterator<Item = &'c Criterion>,
    r: &mut Report,
    acc: &mut Acc,
) -> usize {
    let mut answered = 0;
    for c in criteria {
        let t = Instant::now();
        let slice = session.slice(c);
        let d = t.elapsed();
        if r.op("slice", slice).is_some() {
            acc.reads.push(ms(d));
            answered += 1;
        }
    }
    answered
}

fn pass(inst: &Instance, p: u64, size: Size, r: &mut Report, acc: &mut Acc) {
    for _ in 0..size.setup_reps {
        drop(timed_open(&inst.source, r, acc));
    }
    let start = Instant::now();
    let mut answers = 0usize;
    let Some(mut a) = timed_open(&inst.source, r, acc) else {
        return;
    };
    let sites = printf_criteria(a.sdg());
    let scale = inst.kind == Kind::ScaleSkewed;
    // The forward batch goes first: it builds the session's lazy
    // reachable-configuration automaton, which the grid's first solo read
    // would otherwise pay, adding one costly read in 120 to the tail.
    if !scale || !p.is_multiple_of(2) {
        let forward = forward_criteria(a.sdg());
        let t = Instant::now();
        let batch = a.forward_slice_batch(&forward);
        let d = t.elapsed();
        if r.op("forward_slice_batch", batch).is_some() {
            acc.forward.0 += forward.len();
            acc.forward.1 += d.as_secs_f64();
            answers += forward.len();
        }
    }
    if !scale || p.is_multiple_of(2) {
        let stream: Vec<Criterion> = inst
            .stream(sites.len())
            .iter()
            .map(|&i| sites[i].clone())
            .collect();
        let t = Instant::now();
        let answered = if scale {
            r.op("slice_batch", a.slice_batch(&stream))
                .map_or(0, |_| stream.len())
        } else {
            solo_reads(&a, stream.iter(), r, acc)
        };
        acc.backward.0 += answered;
        acc.backward.1 += t.elapsed().as_secs_f64();
        answers += answered;
    }
    if scale {
        for s in 0..size.scale_solo_sessions as u64 {
            drop(a);
            let Some(b) = timed_open(&inst.source, r, acc) else {
                return;
            };
            let order = inst.solo_order(sites.len(), s);
            answers += solo_reads(&b, order.iter().map(|&i| &sites[i]), r, acc);
            a = b;
        }
    }

    let mut source = inst.source.clone();
    for k in 0..size.edits_per_pass as u64 {
        let edited = toggle(&source, &inst.source, &inst.edit_target(k));
        let Some(delta) = r.op("edit delta", delta_to(&a, &edited)) else {
            continue;
        };
        let t = Instant::now();
        let report = a.apply_edit(&delta);
        let d = t.elapsed();
        if r.op("apply_edit", report).is_some() {
            acc.edits.push(ms(d));
            answers += 1;
            source = edited;
        }
    }
    drop(a);

    if let Some(c) = timed_open(&inst.source, r, acc) {
        let t = Instant::now();
        let spec = c.specialize_program(&sites);
        let d = t.elapsed();
        if r.op("specialize_program", spec).is_some() {
            acc.specialize.push(d.as_secs_f64());
            answers += 1;
        }
    }
    acc.answers.0 += answers;
    acc.answers.1 += start.elapsed().as_secs_f64();
}

/// Answers per second of the time they took.
fn rate((n, secs): (usize, f64)) -> f64 {
    n as f64 / secs.max(1e-9)
}

/// The timed run: set-up repetitions, then passes until `seconds` have
/// elapsed, then the output checks. `smoke` runs one pass of each kind.
pub fn run(run: &Run, r: &mut Report) {
    let Run {
        kind, seed, size, ..
    } = *run;
    let mut acc = Acc::default();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes < 2 || run.another(start.elapsed(), passes) {
        pass(
            &Instance::new(kind, seed, passes, size),
            passes,
            size,
            r,
            &mut acc,
        );
        passes += 1;
    }
    let wall = start.elapsed();
    // Before the checks, which hold several sessions at once.
    let peak_rss = peak_rss_mb();

    let (steps_ratio, code_ratio) = check_outputs(kind, seed, size, r);

    r.note(format!(
        "{}: seed {seed}, {passes} passes in {:.1}s, {} sessions opened, {} reads, {} edits",
        kind.name(),
        wall.as_secs_f64(),
        acc.setup.len(),
        acc.reads.len(),
        acc.edits.len()
    ));
    r.metric("setup_s", median(&acc.setup), "s");
    r.metric("criteria_per_s", rate(acc.backward), "1/s");
    r.metric("forward_per_s", rate(acc.forward), "1/s");
    r.metric("specialize_s", mean(&acc.specialize), "s");
    r.metric("peak_rss_mb", peak_rss, "MiB");
    r.metric("spec_steps_ratio", steps_ratio, "ratio");
    r.metric("spec_code_ratio", code_ratio, "ratio");
    r.metric("read_mean_ms", mean(&acc.reads), "ms");
    r.metric("read_p90_ms", percentile(&acc.reads, 90.0), "ms");
    r.metric("edit_mean_ms", mean(&acc.edits), "ms");
    r.metric("ops_per_s", rate(acc.answers), "1/s");
}

/// Output checks on the run's first-pass inputs, over every printf site:
///
/// * each site's slice, recomputed through the layer functions, renders
///   byte-identical (`Debug` content and regenerated source) to
///   `Slicer::slice`;
/// * each per-site regenerated program and the merged `specialize_program`
///   output, run on the VM with the seeded input, print the original's
///   values at their criterion printfs;
/// * after a pass's edits, a warm session answers every site as a fresh
///   session on the edited text does (see [`check_edits`]).
///
/// Returns the geomean per-site VM step ratio and the merged-source byte
/// ratio.
pub fn check_outputs(kind: Kind, seed: u64, size: Size, r: &mut Report) -> (f64, f64) {
    let inst = Instance::new(kind, seed, 0, size);
    let Some(session) = r.op("open", open(&inst.source)) else {
        return (0.0, 0.0);
    };
    let mut tracer = Tracer::new();
    let Some(layers) = r.op("layers", Layers::build(&mut tracer, &inst.source)) else {
        return (0.0, 0.0);
    };
    let Some(program) = session.program() else {
        return (0.0, 0.0);
    };
    let sites = printf_criteria(session.sdg());
    let lines = printf_lines(program, session.sdg());
    let Some(orig) = r.op("run original", run_vm(program, &inst.input)) else {
        return (0.0, 0.0);
    };
    let mut step_ratios = Vec::new();
    let mut scratch = SaturationScratch::default();
    for (i, criterion) in sites.iter().enumerate() {
        let mut counts = QueryCounts::default();
        let traced = layers.query(&mut tracer, criterion, &mut scratch, &mut counts);
        let (Some(traced), Some(slice)) = (
            r.op("layer query", traced),
            r.op("slice", session.slice(criterion)),
        ) else {
            continue;
        };
        let Some(regen) = r.op("regenerate", session.regenerate(&slice)) else {
            continue;
        };
        let traced_regen = specslice::regen::regenerate(&layers.sdg, &layers.program, &traced);
        r.check(
            format!("{traced:?}") == format!("{slice:?}")
                && traced_regen.is_ok_and(|t| t.source == regen.source),
            || format!("{}: printf {i}: layer decomposition differs", kind.name()),
        );
        if let Some(out) = r.op("run slice", run_vm(&regen.program, &inst.input)) {
            r.check(out.output == stream_at(&orig, &lines[i..=i]), || {
                format!("{}: printf {i}: slice output differs", kind.name())
            });
            step_ratios.push(out.steps.max(1) as f64 / orig.steps.max(1) as f64);
        }
    }
    let mut code_ratio = 0.0;
    let merged = open(&inst.source).and_then(|c| c.specialize_program(&sites));
    if let Some(spec) = r.op("specialize_program", merged) {
        let lines_of = |name: &str| match spec.functions.iter().find(|f| f.name == name) {
            Some(f) => f.demanded_by.iter().map(|&c| lines[c]).collect(),
            None => lines.clone(),
        };
        check_merged(
            &spec.regen.program,
            &orig,
            &inst.input,
            lines_of,
            kind.name(),
            r,
        );
        let original = specslice_lang::pretty(program).len();
        code_ratio = spec.source().len() as f64 / original.max(1) as f64;
    }
    check_edits(&inst, size, &sites, r);
    (geomean(&step_ratios), code_ratio)
}

/// Answers every site on a session, applies the pass's edits to it (so
/// that memo entries migrate), and checks that it then answers every site
/// as a fresh session on the edited text does. The edits change data
/// dependences, so a wrongly applied edit or a stale memo entry shows.
fn check_edits(inst: &Instance, size: Size, sites: &[Criterion], r: &mut Report) {
    let Some(mut session) = r.op("open", open(&inst.source)) else {
        return;
    };
    let before: Vec<String> = sites
        .iter()
        .map(|c| {
            session
                .slice(c)
                .map_or_else(|_| String::new(), |s| format!("{s:?}"))
        })
        .collect();
    let mut source = inst.source.clone();
    for k in 0..size.edits_per_pass as u64 {
        let edited = toggle(&source, &inst.source, &inst.edit_target(k));
        let Some(delta) = r.op("edit delta", delta_to(&session, &edited)) else {
            return;
        };
        if r.op("apply_edit", session.apply_edit(&delta)).is_none() {
            return;
        }
        source = edited;
    }
    let Some(fresh) = r.op("open", open(&source)) else {
        return;
    };
    let mut changed = 0;
    for (i, c) in sites.iter().enumerate() {
        let (Some(edited), Some(expected)) = (
            r.op("slice", session.slice(c)),
            r.op("slice", fresh.slice(c)),
        ) else {
            continue;
        };
        let edited = format!("{edited:?}");
        changed += usize::from(edited != before[i]);
        r.check(edited == format!("{expected:?}"), || {
            format!(
                "{}: printf {i}: slice after edits differs from a fresh session's",
                inst.kind.name()
            )
        });
    }
    // Toggling one procedure twice restores it; otherwise some slice moves.
    r.check(source == inst.source || changed > 0, || {
        format!("{}: the edits moved no slice", inst.kind.name())
    });
}
