//! Workload definitions: the generated programs, criterion streams, inputs
//! and edits each workload feeds the program under test. Everything here is
//! a pure function of the seed (and the size tier), so a seed names its
//! inputs exactly.

use crate::measure::{mix, Rng};
use specslice::{Criterion, Program, ProgramDelta, Sdg, Slicer, SlicerConfig, SpecError, VertexId};
use specslice_corpus::{feature_grid, scale_program, skewed_site_sample, ScaleConfig};
use std::collections::BTreeMap;
use std::time::Duration;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ScaleSkewed,
    GridDistinct,
    DaemonEdit,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ScaleSkewed, Kind::GridDistinct, Kind::DaemonEdit];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::ScaleSkewed => "scale-skewed",
            Kind::GridDistinct => "grid-distinct",
            Kind::DaemonEdit => "daemon-edit",
        }
    }
}

/// `scale_program` seed of the committed scale tiers.
pub const SCALE_PROGRAM_SEED: u64 = 42;

/// Generator parameters. [`Size::FULL`] is what the timed runs use;
/// [`Size::SMOKE`] is a tiny tier for the benchmark's own test.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `scale_program` configuration (the committed 4k tier).
    pub scale: ScaleConfig,
    /// Criteria per scale-skewed pass, drawn by `skewed_site_sample`.
    pub scale_criteria: usize,
    /// `feature_grid` width for grid-distinct.
    pub grid: usize,
    /// `feature_grid` width the daemon serves.
    pub daemon_grid: usize,
    /// Fresh sessions per scale-skewed pass that answer every printf site
    /// cold by its own `slice` call: enough reads for a steady tail.
    pub scale_solo_sessions: usize,
    /// Program edits per in-process pass.
    pub edits_per_pass: usize,
    /// Cold opens per daemon round.
    pub daemon_opens: usize,
    /// Requests each daemon client sends per round.
    pub daemon_requests: usize,
    /// Daemon slice responses re-checked in-process per round.
    pub daemon_checks: usize,
    /// Session opens timed at the start of every in-process pass, on top
    /// of the sessions the pass works on (set-up samples only). Spread over
    /// the run, so that no single stretch of host speed sets `setup_s`.
    pub setup_reps: usize,
    /// `stats` round trips in the traced run's daemon probe.
    pub stats_requests: usize,
}

impl Size {
    pub const FULL: Size = Size {
        scale: ScaleConfig {
            n_procs: 64,
            n_globals: 10,
            ring: 4,
            indirect_pct: 25,
            n_printfs: 48,
        },
        scale_criteria: 120,
        grid: 120,
        daemon_grid: 40,
        scale_solo_sessions: 2,
        edits_per_pass: 4,
        daemon_opens: 4,
        daemon_requests: 700,
        daemon_checks: 8,
        setup_reps: 2,
        stats_requests: 200,
    };

    pub const SMOKE: Size = Size {
        scale: ScaleConfig {
            n_procs: 8,
            n_globals: 4,
            ring: 2,
            indirect_pct: 25,
            n_printfs: 6,
        },
        scale_criteria: 12,
        grid: 6,
        daemon_grid: 4,
        scale_solo_sessions: 1,
        edits_per_pass: 1,
        daemon_opens: 2,
        daemon_requests: 40,
        daemon_checks: 4,
        setup_reps: 1,
        stats_requests: 10,
    };
}

/// One invocation: which workload, its seed, and how long to measure.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
    /// Run the fewest passes that exercise every phase (two in-process
    /// passes, one daemon round) and stop: with [`Size::SMOKE`], the
    /// benchmark's own test.
    pub smoke: bool,
}

impl Run {
    /// Whether to start pass `done + 1`: always the first, then (outside
    /// smoke mode) while another pass of the mean length so far still ends
    /// within `seconds` of the start.
    pub fn another(&self, elapsed: Duration, done: u64) -> bool {
        if done == 0 {
            return true;
        }
        let mean = elapsed.as_secs_f64() / done as f64;
        !self.smoke && elapsed.as_secs_f64() + mean <= self.seconds
    }
}

/// The session configuration every in-process workload uses: the defaults,
/// on one worker thread.
pub fn config() -> SlicerConfig {
    SlicerConfig {
        num_threads: 1,
        ..SlicerConfig::default()
    }
}

/// Source text → session: `frontend` → `lower_indirect_calls` →
/// `Slicer::from_program_with`.
pub fn open(source: &str) -> Result<Slicer, SpecError> {
    let program = specslice::frontend(source)?;
    let lowered = specslice::indirect::lower_indirect_calls(&program)?;
    Slicer::from_program_with(lowered, config())
}

/// One criterion per `printf` call site: its actual parameters in every
/// calling context, in site order.
pub fn printf_criteria(sdg: &Sdg) -> Vec<Criterion> {
    sdg.printf_call_sites()
        .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
        .collect()
}

/// The source line of each `printf` call site, parallel to
/// [`printf_criteria`].
pub fn printf_lines(program: &Program, sdg: &Sdg) -> Vec<u32> {
    let mut line_of = BTreeMap::new();
    program.visit_all(|_, s| {
        line_of.insert(s.id, s.line);
    });
    sdg.printf_call_sites()
        .map(|c| line_of.get(&c.stmt).copied().unwrap_or(0))
        .collect()
}

/// The first formal-in of every procedure that has one: where the forward
/// traffic of every workload starts.
pub fn forward_sources(sdg: &Sdg) -> Vec<VertexId> {
    sdg.procs
        .iter()
        .filter_map(|p| p.formal_ins.first().copied())
        .collect()
}

/// One forward criterion per [`forward_sources`] vertex.
pub fn forward_criteria(sdg: &Sdg) -> Vec<Criterion> {
    forward_sources(sdg)
        .into_iter()
        .map(|v| Criterion::AllContexts(vec![v]))
        .collect()
}

/// Indices in first-occurrence order, repeats removed.
pub fn distinct(stream: &[usize]) -> Vec<usize> {
    let mut seen = std::collections::BTreeSet::new();
    stream.iter().copied().filter(|&i| seen.insert(i)).collect()
}

/// One in-process program instance: source, seeded input, and how the
/// workload's criterion stream is drawn over its printf sites.
pub struct Instance {
    pub kind: Kind,
    pub source: String,
    pub input: Vec<i64>,
    seed: u64,
    size: Size,
}

impl Instance {
    /// The inputs of pass `pass` of a run seeded with `seed`. The programs
    /// are fixed — the committed 4k scale tier (`scale_program` seed 42) and
    /// the feature grids — and the seed draws everything fed to them: the
    /// criterion stream, its order, the edits and the program input.
    /// (Different 4k-tier programs differ by ±25% in query cost, which
    /// would swamp any bound a regression check could use.)
    pub fn new(kind: Kind, seed: u64, pass: u64, size: Size) -> Instance {
        let seed = mix(seed, pass);
        let (source, input) = match kind {
            Kind::ScaleSkewed => (
                scale_program(SCALE_PROGRAM_SEED, size.scale),
                vec![(seed % 9) as i64],
            ),
            Kind::GridDistinct => (feature_grid(size.grid), Vec::new()),
            Kind::DaemonEdit => (feature_grid(size.daemon_grid), Vec::new()),
        };
        Instance {
            kind,
            source,
            input,
            seed,
            size,
        }
    }

    /// The backward criterion stream as indices into the printf sites:
    /// a skewed sample with repeats for scale-skewed, every site once in
    /// seeded order otherwise.
    pub fn stream(&self, n_sites: usize) -> Vec<usize> {
        match self.kind {
            Kind::ScaleSkewed => {
                skewed_site_sample(n_sites, self.size.scale_criteria, mix(self.seed, 1))
            }
            _ => {
                let mut v: Vec<usize> = (0..n_sites).collect();
                Rng::new(mix(self.seed, 1)).shuffle(&mut v);
                v
            }
        }
    }

    /// Every printf site once, in a seeded order for solo session `session`.
    pub fn solo_order(&self, n_sites: usize, session: u64) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n_sites).collect();
        Rng::new(mix(mix(self.seed, 3), session)).shuffle(&mut v);
        v
    }

    /// The procedure edit `k` of this instance toggles (see [`toggle`]).
    /// Scale edits hit the same procedures, spread over the call graph, in
    /// every pass — what an edit costs there depends on where the
    /// procedure sits, and a seeded pick would make that mix differ
    /// between runs — while the grid's features are all alike, so the seed
    /// picks them.
    pub fn edit_target(&self, k: u64) -> String {
        let mut rng = Rng::new(mix(self.seed, 100 + k));
        match self.kind {
            Kind::ScaleSkewed => {
                let n = self.size.scale.n_procs.max(2) as u64;
                let per_pass = self.size.edits_per_pass.max(1) as u64;
                format!("r{}", k * n / per_pass % n)
            }
            Kind::GridDistinct => format!("step{}", 1 + rng.below(self.size.grid)),
            Kind::DaemonEdit => format!("step{}", 1 + rng.below(self.size.daemon_grid)),
        }
    }
}

/// The byte range of procedure `name`'s definition in `source`.
fn proc_span(source: &str, name: &str) -> Option<(usize, usize)> {
    let start = source.find(&format!(" {name}(int"))?;
    let end = start
        + source[start..]
            .find("\n}\n")
            .unwrap_or(source.len() - start);
    Some((start, end))
}

/// The rewrites [`toggle`] uses: each drops one variable's use from an
/// expression, leaving every variable and vertex in place. In the scale
/// programs a procedure's recursive call `l0 = rN(d - 1, l0 + 1)` stops
/// passing `l0` on; in the feature grid `acc = acc + x * k` stops using `x`.
const DROPS: [(&str, &str); 2] = [(", l0 + 1)", ", 1)"), (" + x * ", " + ")];

/// `current` with the first [`DROPS`] site in procedure `name` switched
/// between its form in `original` and the form without the dropped use.
/// The edit changes data dependences, so some slices through the procedure
/// differ from the original's, while every variable and vertex stays;
/// toggling twice restores the original text. Both texts must differ at
/// most inside `name` at that site.
pub fn toggle(current: &str, original: &str, name: &str) -> String {
    let (Some((os, oe)), Some((cs, ce))) = (proc_span(original, name), proc_span(current, name))
    else {
        return current.to_string();
    };
    let Some((at, from, to)) = DROPS
        .iter()
        .filter_map(|&(from, to)| Some((original[os..oe].find(from)?, from, to)))
        .min()
    else {
        return current.to_string();
    };
    let body = &current[cs..ce];
    let (old, new) = if body[at..].starts_with(from) {
        (from, to)
    } else {
        (to, from)
    };
    if !body[at..].starts_with(old) {
        return current.to_string();
    }
    let at = cs + at;
    format!("{}{new}{}", &current[..at], &current[at + old.len()..])
}

/// The program edit turning `session`'s program into the lowered form of
/// `new_source`.
pub fn delta_to(session: &Slicer, new_source: &str) -> Result<ProgramDelta, SpecError> {
    let program = specslice::frontend(new_source)?;
    let lowered = specslice::indirect::lower_indirect_calls(&program)?;
    let old = session
        .program()
        .ok_or_else(|| SpecError::internal("perfbench", "session has no program"))?;
    Ok(ProgramDelta::diff(old, &lowered))
}

/// The feature-grid procedure `stepK` as a standalone definition, in its
/// generated form or toggled form (without the use of `x`, as [`toggle`]
/// makes it) — the daemon's edit payload.
pub fn grid_step_source(k: usize, toggled: bool) -> String {
    let x = if toggled { "" } else { "x * " };
    format!("void step{k}(int x) {{ acc{k} = acc{k} + {x}{k}; }}")
}

/// `feature_grid(n)` with the given step procedures toggled.
pub fn grid_source(n: usize, toggled: &[bool]) -> String {
    let mut src = feature_grid(n);
    for (i, &t) in toggled.iter().enumerate() {
        if t {
            let k = i + 1;
            src = src.replacen(&grid_step_source(k, false), &grid_step_source(k, true), 1);
        }
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_drops_one_use_and_twice_restores() {
        for (source, name, dropped) in [
            (
                scale_program(SCALE_PROGRAM_SEED, Size::SMOKE.scale),
                "r0",
                "l0 + ",
            ),
            (feature_grid(6), "step2", "x * "),
        ] {
            let once = toggle(&source, &source, name);
            assert_eq!(once.len() + dropped.len(), source.len(), "{name}");
            assert_eq!(toggle(&once, &source, name), source);
        }
    }

    #[test]
    fn daemon_edit_payload_matches_the_in_process_toggle() {
        let source = feature_grid(6);
        let toggled = toggle(&source, &source, "step2");
        assert_eq!(grid_source(6, &[false, true]), toggled);
        assert!(toggled.contains(&grid_step_source(2, true)));
    }
}
