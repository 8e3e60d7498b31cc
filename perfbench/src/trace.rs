//! The span recorder and the layer decomposition of the pipeline.
//!
//! Spans are recorded from the benchmark's side, around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A span has a name, start, end, parent span and request id; spans stay in
//! memory and are written out as Chrome trace-event JSON when the run ends.
//! A layer's self time is its span's duration minus the time its child
//! spans cover.

use specslice::criteria::{query_automaton_reusing, reachable_configurations};
use specslice::encode::{encode_sdg, Encoded, MAIN_CONTROL};
use specslice::readout::read_out_with;
use specslice::{Criterion, Program, Sdg, SpecError, SpecSlice};
use specslice_fsa::mrd::mrd_with_stats;
use specslice_fsa::Nfa;
use specslice_pds::{saturate_indexed_with_stats, Direction, SaturationScratch};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// In-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the most recently opened span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Self time of every span, in ms: duration minus the child spans'.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Self times per span name, in ms, one entry per call.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_ms();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(own) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"req\": {}}}}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.req
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-query work counters, taken from each layer's own outputs.
#[derive(Clone, Copy, Default)]
pub struct QueryCounts {
    pub rule_applications: usize,
    pub transitions: usize,
    pub a1_transitions: usize,
    pub det_states: usize,
    pub min_states: usize,
    pub slice_vertices: usize,
    pub variants: usize,
}

/// The program-dependent stages, built through each layer's public
/// function (the order `Slicer` construction and its first all-contexts
/// query use).
pub struct Layers {
    pub program: Program,
    pub sdg: Sdg,
    pub enc: Encoded,
    pub reachable: Nfa,
}

/// Names of the five per-query stages, in pipeline order.
pub const QUERY_STAGES: [&str; 5] = [
    "criteria.query",
    "pds.saturate",
    "fsa.a1",
    "fsa.mrd",
    "readout.read_out",
];

impl Layers {
    /// `frontend` → `lower_indirect_calls` → `build_sdg` → `encode_sdg` →
    /// `reachable_configurations`, one span each.
    pub fn build(tr: &mut Tracer, source: &str) -> Result<Layers, SpecError> {
        let parsed = tr.span("lang.frontend", |_| specslice::frontend(source))?;
        let program = tr.span("indirect.lower", |_| {
            specslice::indirect::lower_indirect_calls(&parsed)
        })?;
        let sdg = tr.span("sdg.build", |_| specslice_sdg::build::build_sdg(&program))?;
        let enc = tr.span("encode.encode", |_| encode_sdg(&sdg));
        let reachable = tr.span("criteria.reachable", |_| {
            reachable_configurations(&sdg, &enc)
        })?;
        Ok(Layers {
            program,
            sdg,
            enc,
            reachable,
        })
    }

    /// One backward query through the layers, in the order the session's
    /// query path runs them: query automaton → saturation → `A1`
    /// (`to_nfa` + `trimmed`) → MRD → read-out.
    pub fn query(
        &self,
        tr: &mut Tracer,
        criterion: &Criterion,
        scratch: &mut SaturationScratch,
        counts: &mut QueryCounts,
    ) -> Result<SpecSlice, SpecError> {
        let query = tr.span(QUERY_STAGES[0], |_| {
            query_automaton_reusing(&self.sdg, &self.enc, Some(&self.reachable), criterion)
        })?;
        let (saturated, sat) = tr
            .span(QUERY_STAGES[1], |_| {
                saturate_indexed_with_stats(Direction::Backward, &self.enc.index, &query, scratch)
            })
            .map_err(|e| SpecError::pds("prestar", e))?;
        let a1 = tr.span(QUERY_STAGES[2], |_| {
            saturated.to_nfa(MAIN_CONTROL).trimmed().0
        });
        let (a6, mrd) = tr.span(QUERY_STAGES[3], |_| mrd_with_stats(&a1));
        let slice = tr.span(QUERY_STAGES[4], |_| {
            read_out_with(&self.sdg, &self.enc, &a6, true)
        })?;
        counts.rule_applications += sat.rule_applications;
        counts.transitions += sat.transitions;
        counts.a1_transitions += a1.transition_count();
        counts.det_states += mrd.determinized_states;
        counts.min_states += mrd.minimized_states;
        counts.slice_vertices += slice.total_vertices();
        counts.variants += slice.variant_count();
        Ok(slice)
    }
}
