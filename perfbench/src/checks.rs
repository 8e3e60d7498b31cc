//! Output checks shared by the workloads: executing programs on the VM and
//! comparing specialized programs with their originals at the criterion
//! `printf`s, and rendering slices for byte comparisons.

use crate::measure::Report;
use specslice::ast::{Callee, Stmt, StmtKind};
use specslice::exec::{backend, BackendKind, ExecError, ExecOutcome, ExecRequest};
use specslice::{Program, Sdg, SpecSlice};
use specslice_server::Json;
use std::fmt::Write as _;

/// Runs `program` on the bytecode VM with `input` and the deep fuel budget
/// (the scale programs recurse through rings of procedures).
pub fn run_vm(program: &Program, input: &[i64]) -> Result<ExecOutcome, ExecError> {
    backend(BackendKind::Vm).exec(
        &ExecRequest::new(program)
            .with_input(input)
            .with_fuel(ExecRequest::DEEP_FUEL),
    )
}

/// The original's output stream restricted to the `printf`s at `lines`
/// (regeneration keeps the original statements' lines, so a specialized
/// program must print exactly this).
pub fn stream_at(orig: &ExecOutcome, lines: &[u32]) -> Vec<i64> {
    orig.output
        .iter()
        .zip(&orig.output_sites)
        .filter(|&(_, l)| lines.contains(l))
        .map(|(&v, _)| v)
        .collect()
}

/// The entry points of a merged specialized program. When the criteria
/// demand several `main` variants, the merged `main` is a driver calling
/// each in turn with globals and input carried over; each variant is then
/// returned as its own program (a `main` calling only that variant), so it
/// starts from the pristine state its criteria were sliced in. Otherwise
/// the program itself, named `main`.
fn entry_programs(program: &Program) -> Vec<(String, Program)> {
    let driver_call = |s: &Stmt| match &s.kind {
        StmtKind::Call(c) => match &c.callee {
            Callee::Named(n) if n.starts_with("main__") => Some(n.clone()),
            _ => None,
        },
        _ => None,
    };
    let Some(main) = program.main() else {
        return Vec::new();
    };
    let targets: Option<Vec<String>> = main.body.stmts.iter().map(driver_call).collect();
    match targets {
        Some(names) if !names.is_empty() => names
            .into_iter()
            .zip(&main.body.stmts)
            .map(|(name, call)| {
                let mut p = program.clone();
                if let Some(m) = p.functions.iter_mut().find(|f| f.name == "main") {
                    m.body.stmts = vec![call.clone()];
                }
                (name, p)
            })
            .collect(),
        _ => vec![("main".to_string(), program.clone())],
    }
}

/// Runs every entry point of a merged specialized program (see
/// [`entry_programs`]) and checks that it prints the original's stream at
/// the lines of the criteria that demand it (`lines_of(entry name)`).
pub fn check_merged(
    merged: &Program,
    orig: &ExecOutcome,
    input: &[i64],
    lines_of: impl Fn(&str) -> Vec<u32>,
    what: &str,
    r: &mut Report,
) {
    let entries = entry_programs(merged);
    r.check(!entries.is_empty(), || {
        format!("{what}: merged program has no main")
    });
    for (name, program) in entries {
        if let Some(out) = r.op("run merged", run_vm(&program, input)) {
            r.check(out.output == stream_at(orig, &lines_of(&name)), || {
                format!("{what}: merged program entry {name} prints other values than the original")
            });
        }
    }
}

/// A canonical text of a slice's wire-visible content: variants (name,
/// procedure, vertices, call bindings), the main variant, the element set
/// and the vertex total — the members a daemon `slice` response carries.
pub fn slice_key(slice: &SpecSlice) -> String {
    let mut out = String::new();
    for v in slice.variants() {
        let verts: Vec<u32> = v.vertices.iter().map(|x| x.0).collect();
        let calls: Vec<(u32, usize)> = v.calls.iter().map(|(s, &c)| (s.0, c)).collect();
        let _ = write!(out, "{}|{}|{verts:?}|{calls:?};", v.name, v.proc.0);
    }
    let elems: Vec<u32> = slice.elems().iter().map(|x| x.0).collect();
    let _ = write!(
        out,
        "main={:?}|elems={elems:?}|total={}",
        slice.main_variant,
        slice.total_vertices()
    );
    out
}

/// [`slice_key`] of the `slice` member of a daemon response, or `None` when
/// the response does not have the documented shape.
pub fn response_key(resp: &Json) -> Option<String> {
    let body = resp.get("slice")?;
    let ints = |v: &Json| -> Option<Vec<i64>> { v.as_array()?.iter().map(Json::as_i64).collect() };
    let mut out = String::new();
    for v in body.get("variants")?.as_array()? {
        let verts: Vec<u32> = ints(v.get("vertices")?)?
            .into_iter()
            .map(|x| x as u32)
            .collect();
        let calls: Vec<(u32, usize)> = v
            .get("calls")?
            .as_array()?
            .iter()
            .map(|pair| {
                let p = ints(pair)?;
                Some((*p.first()? as u32, *p.get(1)? as usize))
            })
            .collect::<Option<_>>()?;
        let _ = write!(
            out,
            "{}|{}|{verts:?}|{calls:?};",
            v.get("name")?.as_str()?,
            v.get("proc")?.as_i64()?
        );
    }
    let main = body.get("main_variant")?.as_usize();
    let elems: Vec<u32> = ints(body.get("elems")?)?
        .into_iter()
        .map(|x| x as u32)
        .collect();
    let _ = write!(
        out,
        "main={main:?}|elems={elems:?}|total={}",
        body.get("total_vertices")?.as_i64()?
    );
    Some(out)
}

/// The vertex ids of a criterion's all-contexts selector, as the wire
/// carries them.
pub fn wire_criterion(vertices: &[u32]) -> Json {
    Json::obj([
        ("kind", Json::str("all_contexts")),
        (
            "vertices",
            Json::arr(vertices.iter().map(|&v| Json::Int(i64::from(v)))),
        ),
    ])
}

/// Vertex ids of every printf site's actual-ins, in site order.
pub fn printf_vertex_ids(sdg: &Sdg) -> Vec<Vec<u32>> {
    sdg.printf_call_sites()
        .map(|c| c.actual_ins.iter().map(|v| v.0).collect())
        .collect()
}
