//! The reslicing self-check (§8.3 of the paper).
//!
//! Specialization slicing should be idempotent: slicing the regenerated
//! program `R` with the (alphabet-mapped) criterion must yield the same
//! configuration language as slicing the original `S`. Vertices and call
//! sites of `R` are renamed copies of `S`'s, so the comparison goes through
//! a finite-state transduction `T_C` (here: a symbol-to-symbol map):
//!
//! * reslice criterion: `C' = T_C⁻¹(C) ∩ Poststar[P_R](entry_main)`;
//! * verdict: `L(A6_S) = L(T_C(A6_R))`.

use crate::criteria::{self, Criterion};
use crate::encode::{self, Encoded};
use crate::regen::RegenOutput;
use crate::{SpecError, SpecSlice};
use specslice_fsa::ops::{equivalent, relabel, relabel_inverse};
use specslice_fsa::Symbol;
use specslice_lang::ast::StmtId;
use specslice_sdg::build::build_sdg;
use specslice_sdg::{InSlot, OutSlot, Sdg, VertexKind};
use std::collections::HashMap;

/// Outcome of the reslicing check.
#[derive(Clone, Debug)]
pub struct ResliceReport {
    /// `true` when the two slice languages agree (the expected verdict).
    pub languages_equal: bool,
    /// Number of `R` symbols successfully mapped back to `S`.
    pub mapped_symbols: usize,
    /// `R` vertices that could not be mapped (should be empty).
    pub unmapped: Vec<String>,
}

/// Runs the §8.3 reslicing check for a completed specialization slice.
///
/// One-shot wrapper that re-encodes the original SDG; sessions use
/// [`crate::Slicer::reslice_check`], which reuses the cached encoding.
///
/// # Errors
///
/// Fails if the regenerated program cannot be rebuilt into an SDG or the
/// reslice criterion cannot be constructed.
pub fn reslice_check(
    sdg_s: &Sdg,
    criterion: &Criterion,
    slice_s: &SpecSlice,
    regen: &RegenOutput,
) -> Result<ResliceReport, SpecError> {
    let enc_s = encode::encode_sdg(sdg_s);
    reslice_check_reusing(sdg_s, &enc_s, criterion, slice_s, regen)
}

/// [`reslice_check`] against a session's cached encoding of the original
/// program (the regenerated program `R` still gets a fresh encoding — it is
/// a different program).
pub fn reslice_check_reusing(
    sdg_s: &Sdg,
    enc_s: &Encoded,
    criterion: &Criterion,
    slice_s: &SpecSlice,
    regen: &RegenOutput,
) -> Result<ResliceReport, SpecError> {
    let sdg_r = build_sdg(&regen.program)?;
    let enc_r = encode::encode_sdg(&sdg_r);

    // Build the symbol map, resolving Entry vertices via the slice.
    let (mut map, unmapped) = symbol_map_with_slice(sdg_s, enc_s, &sdg_r, &enc_r, regen, slice_s)?;

    // C' = T⁻¹(C) ∩ Poststar[P_R](entry_main).
    let query_s = criteria::query_automaton(sdg_s, enc_s, criterion)?;
    let c_nfa = query_s.to_nfa(encode::MAIN_CONTROL);
    // Preimages of each S symbol under the map.
    let mut preimages: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
    for (&r, &s) in &map {
        preimages.entry(s).or_default().push(r);
    }
    let inv = relabel_inverse(&c_nfa, |s| preimages.get(&s).cloned().unwrap_or_default());
    let reach_r = criteria::reachable_configurations(&sdg_r, &enc_r)?;
    let c_prime = specslice_fsa::ops::intersect(&inv, &reach_r);
    let (c_prime, _) = c_prime.trimmed();
    if c_prime.is_empty_language() {
        return Err(SpecError::bad_criterion(
            "reslice criterion is empty after transduction",
        ));
    }

    // Slice R (against the encoding already built above) and compare
    // languages. R is a different program, so its slice content goes into a
    // transient store — the session store only ever holds rows keyed by the
    // original program's vertex ids.
    let query_r = criteria::query_automaton(&sdg_r, &enc_r, &Criterion::Automaton(c_prime))?;
    let store_r = std::sync::Arc::new(crate::store::VariantStore::new());
    let (slice_r, _) = crate::slicer::run_query(
        specslice_pds::Direction::Backward,
        &sdg_r,
        &enc_r,
        &query_r,
        &store_r,
    )?;
    // Map any leftover symbols to a fresh sink symbol so relabel is total.
    let sink = Symbol(u32::MAX);
    for (_, l, _) in slice_r.a6.transitions() {
        if let Some(s) = l {
            map.entry(s).or_insert(sink);
        }
    }
    let a6_r_mapped = relabel(&slice_r.a6, |s| map[&s]);
    let languages_equal = equivalent(&slice_s.a6, &a6_r_mapped);
    Ok(ResliceReport {
        languages_equal,
        mapped_symbols: map.len(),
        unmapped,
    })
}

/// `symbol_map` with Entry vertices resolved through the slice.
fn symbol_map_with_slice(
    sdg_s: &Sdg,
    enc_s: &Encoded,
    sdg_r: &Sdg,
    enc_r: &Encoded,
    regen: &RegenOutput,
    slice_s: &SpecSlice,
) -> Result<(HashMap<Symbol, Symbol>, Vec<String>), SpecError> {
    let (mut map, mut unmapped) = raw_symbol_map(sdg_s, enc_s, sdg_r, enc_r, regen)?;
    // Entry vertices.
    for v in sdg_r.vertex_ids() {
        if matches!(sdg_r.vertex(v).kind, VertexKind::Entry) {
            let name = &sdg_r.proc(sdg_r.vertex(v).proc).name;
            if let Some(&vi) = regen.variant_of_function.get(name) {
                let s_proc = slice_s.meta(vi).proc;
                map.insert(
                    enc_r.vertex_symbol(v),
                    enc_s.vertex_symbol(sdg_s.proc(s_proc).entry),
                );
                unmapped.retain(|u| u != &sdg_r.label(v));
            }
        }
    }
    Ok((map, unmapped))
}

/// The stmt/slot-based part of the map (everything except Entry vertices).
fn raw_symbol_map(
    sdg_s: &Sdg,
    enc_s: &Encoded,
    sdg_r: &Sdg,
    enc_r: &Encoded,
    regen: &RegenOutput,
) -> Result<(HashMap<Symbol, Symbol>, Vec<String>), SpecError> {
    // Reuse `symbol_map` minus the Entry arm by inlining here.
    let mut s_anchor: HashMap<StmtId, specslice_sdg::VertexId> = HashMap::new();
    let mut s_site_of_stmt: HashMap<StmtId, specslice_sdg::CallSiteId> = HashMap::new();
    for v in sdg_s.vertex_ids() {
        match sdg_s.vertex(v).kind {
            VertexKind::Statement { stmt }
            | VertexKind::Predicate { stmt }
            | VertexKind::Jump { stmt } => {
                s_anchor.insert(stmt, v);
            }
            VertexKind::Call { stmt, site } => {
                s_anchor.insert(stmt, v);
                s_site_of_stmt.insert(stmt, site);
            }
            _ => {}
        }
    }
    let r_site_to_s = |site: specslice_sdg::CallSiteId| -> Option<specslice_sdg::CallSiteId> {
        let stmt_r = sdg_r.call_site(site).stmt;
        let stmt_s = regen.stmt_origin.get(&stmt_r)?;
        s_site_of_stmt.get(stmt_s).copied()
    };
    let param_origin =
        |fname: &str, i: usize| -> Option<usize> { regen.param_maps.get(fname)?.get(i).copied() };

    let mut map: HashMap<Symbol, Symbol> = HashMap::new();
    let mut unmapped: Vec<String> = Vec::new();
    for v in sdg_r.vertex_ids() {
        let vx = sdg_r.vertex(v);
        let r_proc_name = sdg_r.proc(vx.proc).name.clone();
        let mapped: Option<Symbol> = match &vx.kind {
            VertexKind::Entry => None, // handled by symbol_map_with_slice
            VertexKind::Statement { stmt }
            | VertexKind::Predicate { stmt }
            | VertexKind::Jump { stmt }
            | VertexKind::Call { stmt, .. } => regen
                .stmt_origin
                .get(stmt)
                .and_then(|s| s_anchor.get(s))
                .map(|&sv| enc_s.vertex_symbol(sv)),
            VertexKind::FormalIn { slot } => {
                map_formal_in(sdg_s, enc_s, regen, &r_proc_name, slot, &param_origin)
            }
            VertexKind::FormalOut { slot } => {
                map_formal_out(sdg_s, enc_s, regen, &r_proc_name, slot, &param_origin)
            }
            VertexKind::ActualIn { site, slot } => r_site_to_s(*site).and_then(|s_site| {
                let site_rec = sdg_s.call_site(s_site);
                let is_lib = matches!(
                    sdg_r.call_site(*site).callee,
                    specslice_sdg::CalleeKind::Library(_)
                );
                let slot_s = match slot {
                    // Library arguments are never renumbered; user-call
                    // params map through the callee variant's kept list.
                    InSlot::Param(i) if !is_lib => {
                        let callee_name = callee_name_r(sdg_r, *site);
                        InSlot::Param(param_origin(&callee_name, *i)?)
                    }
                    other => other.clone(),
                };
                sdg_s
                    .actual_in_for_slot(site_rec, &slot_s)
                    .map(|sv| enc_s.vertex_symbol(sv))
            }),
            VertexKind::ActualOut { site, slot } => r_site_to_s(*site).and_then(|s_site| {
                let site_rec = sdg_s.call_site(s_site);
                let is_lib = matches!(
                    sdg_r.call_site(*site).callee,
                    specslice_sdg::CalleeKind::Library(_)
                );
                let slot_s = match slot {
                    OutSlot::RefParam(i) if !is_lib => {
                        let callee_name = callee_name_r(sdg_r, *site);
                        OutSlot::RefParam(param_origin(&callee_name, *i)?)
                    }
                    other => other.clone(),
                };
                sdg_s
                    .actual_out_for_slot(site_rec, &slot_s)
                    .map(|sv| enc_s.vertex_symbol(sv))
            }),
        };
        match mapped {
            Some(s) => {
                map.insert(enc_r.vertex_symbol(v), s);
            }
            None if matches!(vx.kind, VertexKind::Entry) => {}
            None => unmapped.push(sdg_r.label(v)),
        }
    }
    for site in &sdg_r.call_sites {
        match r_site_to_s(site.id) {
            Some(s_site) => {
                map.insert(enc_r.call_symbol(site.id), enc_s.call_symbol(s_site));
            }
            None => unmapped.push(format!("site {:?}", site.id)),
        }
    }
    Ok((map, unmapped))
}

/// For an R call site, the name of the called R function (used to find its
/// parameter-origin map). Library callees return their library name, which
/// has no param map — slot mapping then falls through correctly because
/// library slots are never `Param`-renumbered.
fn callee_name_r(sdg_r: &Sdg, site: specslice_sdg::CallSiteId) -> String {
    match sdg_r.call_site(site).callee {
        specslice_sdg::CalleeKind::User(p) => sdg_r.proc(p).name.clone(),
        specslice_sdg::CalleeKind::Library(l) => l.name().to_string(),
    }
}

fn map_formal_in(
    sdg_s: &Sdg,
    enc_s: &Encoded,
    regen: &RegenOutput,
    r_proc_name: &str,
    slot: &InSlot,
    param_origin: &impl Fn(&str, usize) -> Option<usize>,
) -> Option<Symbol> {
    let s_proc_name = origin_proc_name(regen, r_proc_name)?;
    let s_proc = sdg_s.proc_named(&s_proc_name)?;
    let slot_s = match slot {
        InSlot::Param(i) => InSlot::Param(param_origin(r_proc_name, *i)?),
        other => other.clone(),
    };
    s_proc
        .formal_ins
        .iter()
        .copied()
        .find(|&v| sdg_s.in_slot(v) == Some(&slot_s))
        .map(|v| enc_s.vertex_symbol(v))
}

fn map_formal_out(
    sdg_s: &Sdg,
    enc_s: &Encoded,
    regen: &RegenOutput,
    r_proc_name: &str,
    slot: &OutSlot,
    param_origin: &impl Fn(&str, usize) -> Option<usize>,
) -> Option<Symbol> {
    let s_proc_name = origin_proc_name(regen, r_proc_name)?;
    let s_proc = sdg_s.proc_named(&s_proc_name)?;
    let slot_s = match slot {
        OutSlot::RefParam(i) => OutSlot::RefParam(param_origin(r_proc_name, *i)?),
        other => other.clone(),
    };
    s_proc
        .formal_outs
        .iter()
        .copied()
        .find(|&v| sdg_s.out_slot(v) == Some(&slot_s))
        .map(|v| enc_s.vertex_symbol(v))
}

/// Strips the `__k` variant suffix to recover the original procedure name.
fn origin_proc_name(regen: &RegenOutput, r_name: &str) -> Option<String> {
    if regen.variant_of_function.contains_key(r_name) {
        match r_name.rfind("__") {
            Some(i) if r_name[i + 2..].chars().all(|c| c.is_ascii_digit()) => {
                Some(r_name[..i].to_string())
            }
            _ => Some(r_name.to_string()),
        }
    } else {
        None
    }
}
