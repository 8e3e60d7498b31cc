//! Incremental SDG reconstruction across program edits.
//!
//! Rebuilding a system dependence graph from scratch repeats two costly
//! analyses — postdominator-based control dependence and
//! reaching-definitions flow dependence — for every procedure, even though
//! a typical edit touches one. [`patch_sdg`] rebuilds only what an edit can
//! actually change:
//!
//! 1. the **vertex skeleton** is always rebuilt (statement and vertex ids
//!    are dense program-wide, so they must match a fresh build exactly);
//!    this is a cheap syntax walk;
//! 2. **control/flow/§6.1 dependence** is recomputed only for *dirty*
//!    procedures — those the edit touched, plus any procedure whose own or
//!    whose direct callee's mod/ref summary changed (callee summaries
//!    decide actual-out kill behavior and formal-in/out layouts); everything
//!    else is copied from the old SDG by ordinal correspondence;
//! 3. **interprocedural edges** (call, parameter-in/out) are reconnected
//!    for every call site, as a fresh build does. The SDG carries no
//!    summary edges, so nothing transitive needs re-deriving.
//!
//! The result is bit-for-bit the same graph `build_sdg` would produce on the
//! edited program — the incremental path changes *cost*, never output —
//! which the `incremental_reslicing` integration tests check end-to-end.

use crate::build::{self, ReusePlan};
use crate::model::{CallSiteId, ProcId, Sdg, VertexId};
use crate::SdgError;
use specslice_lang::ast::{Callee, Program, StmtKind};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The outcome of [`patch_sdg`]: the new SDG plus the correspondence between
/// old and new identifiers for everything that survived the edit.
#[derive(Debug)]
pub struct SdgPatch {
    /// The SDG of the edited program (identical to a fresh
    /// [`build::build_sdg`] on it).
    pub sdg: Sdg,
    /// Old vertex id → new vertex id, `None` for vertices of rebuilt
    /// procedures (their internal numbering has no stable correspondence).
    pub vertex_map: Vec<Option<VertexId>>,
    /// Old call-site id → new call-site id, `None` for sites of rebuilt
    /// procedures.
    pub call_site_map: Vec<Option<CallSiteId>>,
    /// Procedures whose dependence edges were recomputed from scratch.
    pub rebuilt: BTreeSet<String>,
    /// Procedures whose dependence edges were copied instead of recomputed.
    pub reused_procs: usize,
    /// Rebuilt procedures whose *user-call structure* changed — new
    /// procedures, and procedures whose set of direct user callees differs
    /// from the old build. A statement edit that leaves call structure alone
    /// can only influence slices that mention the edited procedure itself;
    /// a structural change can additionally create or destroy call chains
    /// into anything it reaches, so invalidation must cast the wider net
    /// only for these.
    pub structure_changed: BTreeSet<String>,
}

impl SdgPatch {
    /// Maps an old vertex id through the patch.
    pub fn map_vertex(&self, v: VertexId) -> Option<VertexId> {
        self.vertex_map.get(v.index()).copied().flatten()
    }

    /// Maps an old call-site id through the patch.
    pub fn map_call_site(&self, c: CallSiteId) -> Option<CallSiteId> {
        self.call_site_map.get(c.index()).copied().flatten()
    }
}

/// Direct user-call edges of the program, by procedure name.
fn call_graph(program: &Program) -> BTreeMap<String, BTreeSet<String>> {
    let mut out: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in &program.functions {
        out.entry(f.name.clone()).or_default();
    }
    program.visit_all(|caller, s| {
        if let StmtKind::Call(c) = &s.kind {
            if let Callee::Named(callee) = &c.callee {
                out.entry(caller.to_string())
                    .or_default()
                    .insert(callee.clone());
            }
        }
    });
    out
}

/// Rebuilds the SDG for `new_program` reusing as much of `old` as the edit
/// allows. `touched` names the procedures the edit modified directly (added,
/// removed, replaced, or statement-edited); `full` forces a fresh rebuild of
/// every procedure (used when the edit changes the global-variable list,
/// which can shift every layout at once).
///
/// # Errors
///
/// Structural failures from SDG construction, or a stale reuse plan (the old
/// SDG does not correspond to the claimed pre-edit program). Callers should
/// treat any error as "fall back to [`build::build_sdg`]".
pub fn patch_sdg(
    old: &Sdg,
    new_program: &Program,
    touched: &BTreeSet<String>,
    full: bool,
) -> Result<SdgPatch, SdgError> {
    build::validate_program(new_program)?;
    let summaries = build::analyze_modref(new_program);

    // Dirty set: procedures whose vertex skeleton or intra-PDG dependence
    // may differ from the old build.
    let force_all = full || old.modref.is_empty();
    let mut rebuilt: BTreeSet<String> = BTreeSet::new();
    let calls = call_graph(new_program);
    for f in &new_program.functions {
        let changed = |name: &str| -> bool {
            match (summaries.get(name), old.modref.get(name)) {
                (Some(new_info), Some(old_info)) => new_info != old_info,
                _ => true, // added or removed procedure
            }
        };
        let dirty = force_all
            || touched.contains(&f.name)
            || !old.proc_by_name.contains_key(&f.name)
            || changed(&f.name)
            || calls
                .get(&f.name)
                .is_some_and(|cs| cs.iter().any(|q| changed(q)));
        if dirty {
            rebuilt.insert(f.name.clone());
        }
    }

    // Copy plan: everything not rebuilt keeps its intra-PDG edges.
    let mut copy: HashMap<String, ProcId> = HashMap::new();
    for f in &new_program.functions {
        if rebuilt.contains(&f.name) {
            continue;
        }
        let Some(&old_pid) = old.proc_by_name.get(&f.name) else {
            return Err(SdgError::new(format!(
                "patch plan inconsistent: `{}` marked reusable but absent from the old SDG",
                f.name
            )));
        };
        copy.insert(f.name.clone(), old_pid);
    }

    let plan = ReusePlan { old, copy };
    let reused_procs = plan.copy.len();
    let sdg = build::build_sdg_reusing(new_program, summaries, &plan)?;

    // Identifier correspondence for everything that was not rebuilt. The
    // builder already verified per-procedure vertex-count equality.
    let mut vertex_map: Vec<Option<VertexId>> = vec![None; old.vertex_count()];
    let mut call_site_map: Vec<Option<CallSiteId>> = vec![None; old.call_sites.len()];
    for (name, &new_pid) in &sdg.proc_by_name {
        if rebuilt.contains(name) {
            continue;
        }
        let old_pid = old.proc_by_name[name];
        for (&ov, &nv) in old
            .proc(old_pid)
            .vertices
            .iter()
            .zip(&sdg.proc(new_pid).vertices)
        {
            vertex_map[ov.index()] = Some(nv);
        }
        let old_sites = sites_of(old, old_pid);
        let new_sites = sites_of(&sdg, new_pid);
        if old_sites.len() != new_sites.len() {
            return Err(SdgError::new(format!(
                "patch plan stale: `{name}` has {} call sites, previously {}",
                new_sites.len(),
                old_sites.len()
            )));
        }
        for (oc, nc) in old_sites.into_iter().zip(new_sites) {
            call_site_map[oc.index()] = Some(nc);
        }
    }

    // Call-structure changes among the rebuilt procedures: new procedures,
    // or a different multiset of direct user callees than the old build.
    let mut structure_changed = BTreeSet::new();
    for name in &rebuilt {
        let Some(&new_pid) = sdg.proc_by_name.get(name) else {
            continue;
        };
        let changed = match old.proc_by_name.get(name) {
            None => true,
            Some(&old_pid) => user_callee_names(old, old_pid) != user_callee_names(&sdg, new_pid),
        };
        if changed {
            structure_changed.insert(name.clone());
        }
    }

    Ok(SdgPatch {
        sdg,
        vertex_map,
        call_site_map,
        rebuilt,
        reused_procs,
        structure_changed,
    })
}

/// Sorted multiset of the user procedures `pid` calls directly.
fn user_callee_names(sdg: &Sdg, pid: ProcId) -> Vec<String> {
    let mut out: Vec<String> = sdg
        .call_sites
        .iter()
        .filter(|c| c.caller == pid)
        .filter_map(|c| match c.callee {
            crate::model::CalleeKind::User(q) => Some(sdg.proc(q).name.clone()),
            crate::model::CalleeKind::Library(_) => None,
        })
        .collect();
    out.sort_unstable();
    out
}

/// Call sites whose caller is `pid`, in id (creation) order.
fn sites_of(sdg: &Sdg, pid: ProcId) -> Vec<CallSiteId> {
    sdg.call_sites
        .iter()
        .filter(|c| c.caller == pid)
        .map(|c| c.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_sdg;
    use crate::model::EdgeKind;
    use specslice_lang::delta::{ProgramDelta, ProgramEdit};
    use specslice_lang::frontend;

    const BASE: &str = r#"
        int g1, g2;
        void leaf(int a) { g1 = a; }
        void mid(int b) { leaf(b + 1); g2 = b; }
        int main() {
            g2 = 7;
            mid(g2);
            leaf(3);
            printf("%d", g1 + g2);
            return 0;
        }
    "#;

    /// Every edge of `sdg` as a sorted, comparable set.
    fn edge_set(sdg: &Sdg) -> BTreeSet<(VertexId, VertexId, EdgeKind)> {
        let mut out = BTreeSet::new();
        for v in sdg.vertex_ids() {
            for &(t, k) in sdg.successors(v) {
                out.insert((v, t, k));
            }
        }
        out
    }

    fn assert_same_graph(patched: &Sdg, fresh: &Sdg) {
        assert_eq!(patched.vertex_count(), fresh.vertex_count());
        assert_eq!(patched.call_sites.len(), fresh.call_sites.len());
        assert_eq!(edge_set(patched), edge_set(fresh), "edge sets differ");
        for (p, f) in patched.vertices.iter().zip(&fresh.vertices) {
            assert_eq!(p, f, "vertex tables diverge");
        }
        assert_eq!(patched.edge_counts, fresh.edge_counts);
    }

    #[test]
    fn leaf_edit_reuses_callers_and_matches_fresh_build() {
        let old_p = frontend(BASE).unwrap();
        let old = build_sdg(&old_p).unwrap();
        let delta = ProgramDelta::diff(
            &old_p,
            &frontend(&BASE.replace("g1 = a;", "g1 = a + a;")).unwrap(),
        );
        let new_p = delta.apply(&old_p).unwrap();
        let touched = delta.touched_functions(&old_p);
        let patch = patch_sdg(&old, &new_p, &touched, false).unwrap();
        let fresh = build_sdg(&new_p).unwrap();
        assert_same_graph(&patch.sdg, &fresh);
        // leaf changed; its summary changes nothing (same modref), so only
        // leaf rebuilds and mid/main are copied.
        assert!(patch.rebuilt.contains("leaf"));
        assert!(!patch.rebuilt.contains("main"));
        assert_eq!(patch.reused_procs, 2);
        // Unchanged procedures have full vertex correspondence.
        let main_old = old.proc_named("main").unwrap();
        for &v in &main_old.vertices {
            assert!(patch.map_vertex(v).is_some());
        }
        // Rebuilt procedures do not.
        let leaf_old = old.proc_named("leaf").unwrap();
        assert!(patch.map_vertex(leaf_old.vertices[1]).is_none());
    }

    #[test]
    fn modref_change_propagates_to_direct_callers() {
        let old_p = frontend(BASE).unwrap();
        let old = build_sdg(&old_p).unwrap();
        // leaf now also writes g2: MayMod(leaf) changes, so mid and main
        // (both call leaf) must be rebuilt; nothing else is left, but the
        // patched graph still matches a fresh build bit for bit.
        let delta = ProgramDelta::diff(
            &old_p,
            &frontend(&BASE.replace("g1 = a;", "g1 = a; g2 = a;")).unwrap(),
        );
        let new_p = delta.apply(&old_p).unwrap();
        let patch = patch_sdg(&old, &new_p, &delta.touched_functions(&old_p), false).unwrap();
        let fresh = build_sdg(&new_p).unwrap();
        assert_same_graph(&patch.sdg, &fresh);
        assert!(patch.rebuilt.contains("mid"));
        assert!(patch.rebuilt.contains("main"));
    }

    #[test]
    fn main_edit_keeps_callee_edges() {
        let old_p = frontend(BASE).unwrap();
        let old = build_sdg(&old_p).unwrap();
        let id = old_p.function("main").unwrap().body.stmts[0].id;
        let delta = ProgramDelta::single(ProgramEdit::ReplaceStmt {
            id,
            stmt: specslice_lang::Stmt::new(
                0,
                StmtKind::Assign {
                    name: "g2".into(),
                    value: specslice_lang::Expr::Int(9),
                },
            ),
        });
        let new_p = delta.apply(&old_p).unwrap();
        let patch = patch_sdg(&old, &new_p, &delta.touched_functions(&old_p), false).unwrap();
        let fresh = build_sdg(&new_p).unwrap();
        assert_same_graph(&patch.sdg, &fresh);
        assert_eq!(patch.rebuilt, BTreeSet::from(["main".to_string()]));
        // main's rebuild does not spread to its callees' copies.
        assert_eq!(patch.reused_procs, 2);
    }

    #[test]
    fn added_and_removed_procedures_force_their_neighborhood() {
        let old_p = frontend(BASE).unwrap();
        let old = build_sdg(&old_p).unwrap();
        let new_p = frontend(&BASE.replace(
            "int main() {",
            "void extra(int z) { g1 = z; }\nint main() {\nextra(1);",
        ))
        .unwrap();
        let delta = ProgramDelta::diff(&old_p, &new_p);
        let new_p = delta.apply(&old_p).unwrap();
        let patch = patch_sdg(&old, &new_p, &delta.touched_functions(&old_p), false).unwrap();
        assert_same_graph(&patch.sdg, &build_sdg(&new_p).unwrap());
        assert!(patch.rebuilt.contains("extra"));
        assert!(patch.rebuilt.contains("main"));
    }

    #[test]
    fn full_rebuild_still_matches_fresh_build() {
        let old_p = frontend(BASE).unwrap();
        let old = build_sdg(&old_p).unwrap();
        let delta = ProgramDelta::single(ProgramEdit::AddGlobal("g3".into()));
        let new_p = delta.apply(&old_p).unwrap();
        let patch = patch_sdg(&old, &new_p, &delta.touched_functions(&old_p), true).unwrap();
        assert_same_graph(&patch.sdg, &build_sdg(&new_p).unwrap());
        assert_eq!(patch.reused_procs, 0);
        assert!(patch.vertex_map.iter().all(Option::is_none));
    }

    #[test]
    fn recursion_web_patches_consistently() {
        let src = r#"
            int g;
            void a(int k) { if (k > 0) { b(k - 1); } }
            void b(int k) { g = k; if (k > 0) { a(k - 1); } }
            int main() { a(4); printf("%d", g); return 0; }
        "#;
        let old_p = frontend(src).unwrap();
        let old = build_sdg(&old_p).unwrap();
        let delta = ProgramDelta::diff(
            &old_p,
            &frontend(&src.replace("g = k;", "g = k + 1;")).unwrap(),
        );
        let new_p = delta.apply(&old_p).unwrap();
        let patch = patch_sdg(&old, &new_p, &delta.touched_functions(&old_p), false).unwrap();
        assert_same_graph(&patch.sdg, &build_sdg(&new_p).unwrap());
    }
}
