//! The SDG builder: from a checked MiniC program to a full
//! Horwitz–Reps–Binkley system dependence graph.
//!
//! Pipeline (per §2.1.1 of the paper, plus the §6.1 library-call rule):
//!
//! 1. interprocedural [`crate::modref`] analysis decides formal-in/out slots;
//! 2. every procedure gets entry / formal-in / formal-out vertices, one
//!    vertex per statement or predicate, and per call site a call vertex
//!    with actual-in/actual-out vertices matching the callee's slots;
//! 3. a vertex-level CFG (with Ball–Horwitz augmented edges) yields control
//!    dependence via postdominators; parameter vertices are then re-anchored
//!    under their call vertex (resp. entry), the HRB convention;
//! 4. reaching definitions over the real CFG yield flow dependence —
//!    may-definitions (actual-outs of possibly-modified locations) generate
//!    but do not kill;
//! 5. call, parameter-in, parameter-out edges connect the PDGs, and library
//!    calls get §6.1 `actual-in → call` edges so executable slices keep
//!    whole library calls.

use crate::cfg::{build_stmt_cfg, StmtCfg};
use crate::model::*;
use crate::modref::{self, Location, ModRefInfo, STDIN};
use crate::SdgError;
use specslice_graphs::{DiGraph, DominatorTree, NodeId};
use specslice_lang::ast::{
    Block, Callee, Expr, Function, ParamMode, Program, RetKind, Stmt, StmtKind,
};
use std::collections::HashMap;

/// Synthetic variable carrying a function's return value to its formal-out.
pub const RET_VAR: &str = "$ret";

/// Structural validation shared by the full builder and the patcher.
pub(crate) fn validate_program(program: &Program) -> Result<(), SdgError> {
    let mut err = None;
    program.visit_all(|f, s| {
        if s.id == specslice_lang::StmtId::UNASSIGNED {
            err = Some(SdgError::NotNormalized {
                message: format!("statement in `{f}` lacks an id; run normalize"),
            });
        }
        if let StmtKind::Call(c) = &s.kind {
            if matches!(c.callee, Callee::Indirect(_)) {
                err = Some(SdgError::IndirectCall {
                    message: format!(
                        "`{f}` contains an indirect call; apply the indirect-call \
                         transformation (specslice::indirect) before building the SDG"
                    ),
                });
            }
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if program.main().is_none() {
        return Err(SdgError::NoMain);
    }
    Ok(())
}

/// Runs the interprocedural mod/ref analysis for `program`.
pub(crate) fn analyze_modref(program: &Program) -> HashMap<String, ModRefInfo> {
    let cfgs: HashMap<String, StmtCfg> = program
        .functions
        .iter()
        .map(|f| (f.name.clone(), build_stmt_cfg(f)))
        .collect();
    modref::analyze(program, &cfgs)
}

/// Builds the SDG of a normalized, checked program.
///
/// # Errors
///
/// Fails if the program has no `main`, contains indirect calls (run the
/// `specslice` §6.2 transformation first), or has unnumbered statements.
pub fn build_sdg(program: &Program) -> Result<Sdg, SdgError> {
    validate_program(program)?;
    let summaries = analyze_modref(program);
    Builder::new(program, summaries, None).build()
}

/// Instructions for [`build_sdg_reusing`]: which procedures' intra-PDG
/// dependence edges can be copied from `old` instead of being recomputed.
pub(crate) struct ReusePlan<'a> {
    /// The SDG built for the pre-edit program.
    pub old: &'a Sdg,
    /// Procedure name → its id in `old`, for every procedure whose edges are
    /// copied; procedures absent from this map are rebuilt from scratch.
    pub copy: HashMap<String, ProcId>,
}

/// [`build_sdg`] with precomputed mod/ref summaries and a reuse plan: the
/// vertex skeleton is always rebuilt (vertex numbering must match a fresh
/// build exactly), but control/flow/§6.1 dependence — the expensive
/// postdominator and reaching-definitions passes — is copied by ordinal
/// correspondence for every procedure the plan covers.
pub(crate) fn build_sdg_reusing(
    program: &Program,
    summaries: HashMap<String, ModRefInfo>,
    plan: &ReusePlan<'_>,
) -> Result<Sdg, SdgError> {
    validate_program(program)?;
    Builder::new(program, summaries, Some(plan)).build()
}

/// Per-procedure slot layout derived from the signature and mod/ref results.
#[derive(Clone, Debug)]
struct SlotLayout {
    in_slots: Vec<InSlot>,
    out_slots: Vec<OutSlot>,
}

fn layout_for(f: &Function, info: &ModRefInfo) -> SlotLayout {
    // `main` is never called: it gets no formal-in/out vertices, matching
    // the paper's Fig. 3 (m1..m23 only). Sema rejects calls to `main`.
    if f.name == "main" {
        return SlotLayout {
            in_slots: Vec::new(),
            out_slots: Vec::new(),
        };
    }
    let mut in_slots: Vec<InSlot> = (0..f.params.len()).map(InSlot::Param).collect();
    for g in info.globals_in() {
        in_slots.push(InSlot::Global(g));
    }
    // Output order mirrors *runtime write order* at a call site, which is
    // what the reaching-definitions chain of actual-out vertices encodes:
    // the callee writes globals during the call, by-ref copy-backs happen at
    // return, and the return-value assignment `x = f(…)` happens last (so a
    // must-modified by-ref actual never shadows the returned value — a bug
    // the property tests caught when Ret came first).
    let mut out_slots = Vec::new();
    for g in info.globals_out() {
        out_slots.push(OutSlot::Global(g));
    }
    for i in info.ref_params_out() {
        out_slots.push(OutSlot::RefParam(i));
    }
    if f.ret == RetKind::Int {
        out_slots.push(OutSlot::Ret);
    }
    SlotLayout {
        in_slots,
        out_slots,
    }
}

/// A definition performed at a CFG node.
#[derive(Clone, Debug)]
struct Def {
    var: String,
    /// Must-definitions kill other defs of the same variable; may-definitions
    /// (e.g. actual-outs of may-modified locations) only generate.
    kills: bool,
}

struct Builder<'p> {
    program: &'p Program,
    summaries: HashMap<String, ModRefInfo>,
    layouts: HashMap<String, SlotLayout>,
    sdg: Sdg,
    plan: Option<&'p ReusePlan<'p>>,
}

/// Vertex-level CFG under construction for one procedure.
struct ProcCfg {
    graph: DiGraph,
    augmented: Vec<(NodeId, NodeId)>,
    /// Vertex of each node (`None` only for the exit node).
    vertex: Vec<Option<VertexId>>,
    defs: Vec<Vec<Def>>,
    uses: Vec<Vec<String>>,
    entry: NodeId,
    exit: NodeId,
    /// First node of the formal-out chain (or exit when there is none);
    /// `return` statements jump here.
    fo_head: NodeId,
}

impl ProcCfg {
    fn add_node(&mut self, v: Option<VertexId>) -> NodeId {
        let n = self.graph.add_node();
        self.vertex.push(v);
        self.defs.push(Vec::new());
        self.uses.push(Vec::new());
        n
    }
}

type Frontier = Vec<(NodeId, bool)>;

struct LoopCtx {
    head: NodeId,
    breaks: Frontier,
}

impl<'p> Builder<'p> {
    fn new(
        program: &'p Program,
        summaries: HashMap<String, ModRefInfo>,
        plan: Option<&'p ReusePlan<'p>>,
    ) -> Self {
        let layouts = program
            .functions
            .iter()
            .map(|f| (f.name.clone(), layout_for(f, &summaries[&f.name])))
            .collect();
        Builder {
            program,
            summaries,
            layouts,
            sdg: Sdg::default(),
            plan,
        }
    }

    fn build(mut self) -> Result<Sdg, SdgError> {
        // Phase A: procedure records with entry/formal vertices.
        for (i, f) in self.program.functions.iter().enumerate() {
            let pid = ProcId(i as u32);
            let entry = self.sdg.add_vertex(Vertex {
                kind: VertexKind::Entry,
                proc: pid,
            });
            let layout = self.layouts[&f.name].clone();
            let formal_ins: Vec<VertexId> = layout
                .in_slots
                .iter()
                .map(|s| {
                    self.sdg.add_vertex(Vertex {
                        kind: VertexKind::FormalIn { slot: s.clone() },
                        proc: pid,
                    })
                })
                .collect();
            let formal_outs: Vec<VertexId> = layout
                .out_slots
                .iter()
                .map(|s| {
                    self.sdg.add_vertex(Vertex {
                        kind: VertexKind::FormalOut { slot: s.clone() },
                        proc: pid,
                    })
                })
                .collect();
            self.sdg.procs.push(Proc {
                id: pid,
                name: f.name.clone(),
                entry,
                formal_ins,
                formal_outs,
                vertices: Vec::new(),
            });
            self.sdg.proc_by_name.insert(f.name.clone(), pid);
        }
        self.sdg.main = self.sdg.proc_by_name["main"];

        // Phase B: per-procedure bodies, control and flow dependence
        // (dependence recomputation is skipped for plan-covered procedures).
        for i in 0..self.program.functions.len() {
            self.build_proc(ProcId(i as u32))?;
        }

        // Record per-proc vertex membership (before the interprocedural
        // phase, so a reuse plan can copy edges by ordinal correspondence).
        for v in self.sdg.vertex_ids() {
            let p = self.sdg.vertex(v).proc;
            self.sdg.procs[p.index()].vertices.push(v);
        }

        // Copy reused intra-procedural edges, in ProcId order (keeps edge
        // insertion order deterministic across runs).
        if let Some(plan) = self.plan {
            for i in 0..self.sdg.procs.len() {
                let name = self.sdg.procs[i].name.clone();
                if let Some(&old_pid) = plan.copy.get(&name) {
                    self.copy_proc_edges(ProcId(i as u32), old_pid, plan.old)?;
                }
            }
        }

        // Phase C: interprocedural edges.
        self.connect_call_sites();
        self.sdg.modref = self.summaries.clone();
        Ok(self.sdg)
    }

    /// Copies the old SDG's intra-procedural dependence edges (control,
    /// flow, §6.1) onto the freshly built vertex skeleton of one unchanged
    /// procedure. The `k`-th vertex created for a procedure is the same
    /// program point in both builds, so the copy is a plain ordinal zip.
    fn copy_proc_edges(
        &mut self,
        new_pid: ProcId,
        old_pid: ProcId,
        old: &Sdg,
    ) -> Result<(), SdgError> {
        let old_vs = old.proc(old_pid).vertices.clone();
        let new_vs = self.sdg.proc(new_pid).vertices.clone();
        if old_vs.len() != new_vs.len() {
            return Err(SdgError::new(format!(
                "reuse plan stale: `{}` has {} vertices, previously {}",
                self.sdg.proc(new_pid).name,
                new_vs.len(),
                old_vs.len()
            )));
        }
        let map: HashMap<VertexId, VertexId> =
            old_vs.iter().copied().zip(new_vs.iter().copied()).collect();
        for (&ov, &nv) in old_vs.iter().zip(&new_vs) {
            for &(ot, kind) in old.successors(ov) {
                if !matches!(
                    kind,
                    EdgeKind::Control | EdgeKind::Flow | EdgeKind::LibActual
                ) {
                    continue;
                }
                let Some(&nt) = map.get(&ot) else {
                    return Err(SdgError::new(format!(
                        "reuse plan stale: `{}` has an intra-procedural {kind:?} edge \
                         leaving the procedure",
                        self.sdg.proc(new_pid).name
                    )));
                };
                self.sdg.add_edge(nv, nt, kind);
            }
        }
        Ok(())
    }

    fn func(&self, pid: ProcId) -> &'p Function {
        &self.program.functions[pid.index()]
    }

    fn build_proc(&mut self, pid: ProcId) -> Result<(), SdgError> {
        let f = self.func(pid);
        let proc = self.sdg.proc(pid).clone();

        let mut cfg = ProcCfg {
            graph: DiGraph::new(),
            augmented: Vec::new(),
            vertex: Vec::new(),
            defs: Vec::new(),
            uses: Vec::new(),
            entry: NodeId(0),
            exit: NodeId(0),
            fo_head: NodeId(0),
        };
        let entry = cfg.add_node(Some(proc.entry));
        cfg.entry = entry;
        let exit = cfg.add_node(None);
        cfg.exit = exit;

        // Formal-in chain.
        let mut prev = entry;
        for &fi in &proc.formal_ins {
            let n = cfg.add_node(Some(fi));
            match &self.sdg.vertex(fi).kind {
                VertexKind::FormalIn { slot } => match slot {
                    InSlot::Param(i) => cfg.defs[n.index()].push(Def {
                        var: f.params[*i].name.clone(),
                        kills: true,
                    }),
                    InSlot::Global(g) => cfg.defs[n.index()].push(Def {
                        var: g.clone(),
                        kills: true,
                    }),
                    InSlot::Format => {}
                },
                _ => unreachable!(),
            }
            cfg.graph.add_edge(prev, n);
            prev = n;
        }
        let body_entry_pred = prev;

        // Formal-out chain (built now so `return` can target its head).
        let mut fo_nodes = Vec::new();
        for &fo in &proc.formal_outs {
            let n = cfg.add_node(Some(fo));
            match &self.sdg.vertex(fo).kind {
                VertexKind::FormalOut { slot } => match slot {
                    OutSlot::Ret => cfg.uses[n.index()].push(RET_VAR.to_string()),
                    OutSlot::RefParam(i) => cfg.uses[n.index()].push(f.params[*i].name.clone()),
                    OutSlot::Global(g) => cfg.uses[n.index()].push(g.clone()),
                    OutSlot::ScanTarget(_) => {}
                },
                _ => unreachable!(),
            }
            fo_nodes.push(n);
        }
        for w in fo_nodes.windows(2) {
            cfg.graph.add_edge(w[0], w[1]);
        }
        cfg.fo_head = *fo_nodes.first().unwrap_or(&exit);
        if let Some(&last) = fo_nodes.last() {
            cfg.graph.add_edge(last, exit);
        }

        // Body.
        let mut loops = Vec::new();
        let out = self.build_block(
            pid,
            &f.body,
            vec![(body_entry_pred, false)],
            &mut cfg,
            &mut loops,
        )?;
        let fo_head = cfg.fo_head;
        connect(&mut cfg, &out, fo_head);
        // Ball–Horwitz entry→exit edge.
        cfg.augmented.push((entry, exit));

        // Plan-covered procedures keep their old dependence edges (copied in
        // bulk once every vertex exists); only the vertex skeleton above —
        // which fixes program-wide vertex numbering — had to be rebuilt.
        let reused = self
            .plan
            .is_some_and(|plan| plan.copy.contains_key(&f.name));
        if !reused {
            self.control_dependence(pid, &cfg);
            self.flow_dependence(&cfg);
        }
        Ok(())
    }

    fn build_block(
        &mut self,
        pid: ProcId,
        block: &Block,
        mut frontier: Frontier,
        cfg: &mut ProcCfg,
        loops: &mut Vec<LoopCtx>,
    ) -> Result<Frontier, SdgError> {
        for s in &block.stmts {
            frontier = self.build_stmt(pid, s, frontier, cfg, loops)?;
        }
        Ok(frontier)
    }

    fn add_stmt_vertex(
        &mut self,
        pid: ProcId,
        kind: VertexKind,
        cfg: &mut ProcCfg,
        frontier: &Frontier,
    ) -> (VertexId, NodeId) {
        let v = self.sdg.add_vertex(Vertex { kind, proc: pid });
        let n = cfg.add_node(Some(v));
        connect(cfg, frontier, n);
        (v, n)
    }

    fn build_stmt(
        &mut self,
        pid: ProcId,
        s: &Stmt,
        frontier: Frontier,
        cfg: &mut ProcCfg,
        loops: &mut Vec<LoopCtx>,
    ) -> Result<Frontier, SdgError> {
        match &s.kind {
            StmtKind::Decl { init: None, .. } => Ok(frontier),
            StmtKind::Decl {
                name,
                init: Some(e),
                ..
            }
            | StmtKind::Assign { name, value: e } => {
                let (_, n) =
                    self.add_stmt_vertex(pid, VertexKind::Statement { stmt: s.id }, cfg, &frontier);
                cfg.defs[n.index()].push(Def {
                    var: name.clone(),
                    kills: true,
                });
                cfg.uses[n.index()].extend(e.vars());
                Ok(vec![(n, false)])
            }
            StmtKind::Call(c) => self.build_user_call(pid, s, c, frontier, cfg),
            StmtKind::Printf { args, .. } => {
                let site = CallSiteId(self.sdg.call_sites.len() as u32);
                let mut fr = frontier;
                let mut actual_ins = Vec::new();
                // Format actual-in (the paper's m22-style vertex).
                let (fv, fnode) = self.add_stmt_vertex(
                    pid,
                    VertexKind::ActualIn {
                        site,
                        slot: InSlot::Format,
                    },
                    cfg,
                    &fr,
                );
                let _ = fnode;
                actual_ins.push(fv);
                fr = vec![(last_node(cfg), false)];
                for (i, a) in args.iter().enumerate() {
                    let (v, n) = self.add_stmt_vertex(
                        pid,
                        VertexKind::ActualIn {
                            site,
                            slot: InSlot::Param(i),
                        },
                        cfg,
                        &fr,
                    );
                    cfg.uses[n.index()].extend(a.vars());
                    actual_ins.push(v);
                    fr = vec![(n, false)];
                }
                let (cv, cn) =
                    self.add_stmt_vertex(pid, VertexKind::Call { stmt: s.id, site }, cfg, &fr);
                self.sdg.call_sites.push(CallSite {
                    id: site,
                    caller: pid,
                    callee: CalleeKind::Library(LibFn::Printf),
                    stmt: s.id,
                    call_vertex: cv,
                    actual_ins,
                    actual_outs: Vec::new(),
                });
                Ok(vec![(cn, false)])
            }
            StmtKind::Scanf {
                targets, assign_to, ..
            } => {
                let site = CallSiteId(self.sdg.call_sites.len() as u32);
                let mut fr = frontier;
                let mut actual_ins = Vec::new();
                let (fv, _) = self.add_stmt_vertex(
                    pid,
                    VertexKind::ActualIn {
                        site,
                        slot: InSlot::Format,
                    },
                    cfg,
                    &fr,
                );
                actual_ins.push(fv);
                fr = vec![(last_node(cfg), false)];
                let (cv, cn) =
                    self.add_stmt_vertex(pid, VertexKind::Call { stmt: s.id, site }, cfg, &fr);
                cfg.uses[cn.index()].push(STDIN.to_string());
                cfg.defs[cn.index()].push(Def {
                    var: STDIN.to_string(),
                    kills: true,
                });
                fr = vec![(cn, false)];
                let mut actual_outs = Vec::new();
                for (i, t) in targets.iter().enumerate() {
                    let (v, n) = self.add_stmt_vertex(
                        pid,
                        VertexKind::ActualOut {
                            site,
                            slot: OutSlot::ScanTarget(i),
                        },
                        cfg,
                        &fr,
                    );
                    cfg.defs[n.index()].push(Def {
                        var: t.clone(),
                        kills: true,
                    });
                    actual_outs.push(v);
                    fr = vec![(n, false)];
                }
                if let Some(t) = assign_to {
                    let (v, n) = self.add_stmt_vertex(
                        pid,
                        VertexKind::ActualOut {
                            site,
                            slot: OutSlot::Ret,
                        },
                        cfg,
                        &fr,
                    );
                    cfg.defs[n.index()].push(Def {
                        var: t.clone(),
                        kills: true,
                    });
                    actual_outs.push(v);
                    fr = vec![(n, false)];
                }
                self.sdg.call_sites.push(CallSite {
                    id: site,
                    caller: pid,
                    callee: CalleeKind::Library(LibFn::Scanf),
                    stmt: s.id,
                    call_vertex: cv,
                    actual_ins,
                    actual_outs,
                });
                Ok(fr)
            }
            StmtKind::Exit { code } => {
                let site = CallSiteId(self.sdg.call_sites.len() as u32);
                let (av, an) = self.add_stmt_vertex(
                    pid,
                    VertexKind::ActualIn {
                        site,
                        slot: InSlot::Param(0),
                    },
                    cfg,
                    &frontier,
                );
                cfg.uses[an.index()].extend(code.vars());
                let (cv, cn) = self.add_stmt_vertex(
                    pid,
                    VertexKind::Call { stmt: s.id, site },
                    cfg,
                    &vec![(an, false)],
                );
                self.sdg.call_sites.push(CallSite {
                    id: site,
                    caller: pid,
                    callee: CalleeKind::Library(LibFn::Exit),
                    stmt: s.id,
                    call_vertex: cv,
                    actual_ins: vec![av],
                    actual_outs: Vec::new(),
                });
                // Terminates the program: real edge to exit, augmented
                // fall-through.
                let exit = cfg.exit;
                cfg.graph.add_edge_unique(cn, exit);
                Ok(vec![(cn, true)])
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let (_, pn) =
                    self.add_stmt_vertex(pid, VertexKind::Predicate { stmt: s.id }, cfg, &frontier);
                cfg.uses[pn.index()].extend(cond.vars());
                let mut out = self.build_block(pid, then_block, vec![(pn, false)], cfg, loops)?;
                match else_block {
                    Some(e) => {
                        let e_out = self.build_block(pid, e, vec![(pn, false)], cfg, loops)?;
                        out.extend(e_out);
                    }
                    None => out.push((pn, false)),
                }
                Ok(out)
            }
            StmtKind::While { cond, body } => {
                let (_, head) =
                    self.add_stmt_vertex(pid, VertexKind::Predicate { stmt: s.id }, cfg, &frontier);
                cfg.uses[head.index()].extend(cond.vars());
                loops.push(LoopCtx {
                    head,
                    breaks: Vec::new(),
                });
                let body_out = self.build_block(pid, body, vec![(head, false)], cfg, loops)?;
                connect(cfg, &body_out, head);
                let ctx = loops.pop().expect("loop ctx");
                let mut out = vec![(head, false)];
                out.extend(ctx.breaks);
                Ok(out)
            }
            StmtKind::Return { value } => {
                let (_, n) =
                    self.add_stmt_vertex(pid, VertexKind::Jump { stmt: s.id }, cfg, &frontier);
                if let Some(e) = value {
                    cfg.uses[n.index()].extend(e.vars());
                    cfg.defs[n.index()].push(Def {
                        var: RET_VAR.to_string(),
                        kills: true,
                    });
                }
                let fo_head = cfg.fo_head;
                cfg.graph.add_edge_unique(n, fo_head);
                Ok(vec![(n, true)])
            }
            StmtKind::Break => {
                let (_, n) =
                    self.add_stmt_vertex(pid, VertexKind::Jump { stmt: s.id }, cfg, &frontier);
                loops
                    .last_mut()
                    .expect("break outside loop rejected by sema")
                    .breaks
                    .push((n, false));
                Ok(vec![(n, true)])
            }
            StmtKind::Continue => {
                let (_, n) =
                    self.add_stmt_vertex(pid, VertexKind::Jump { stmt: s.id }, cfg, &frontier);
                let head = loops
                    .last()
                    .expect("continue outside loop rejected by sema")
                    .head;
                cfg.graph.add_edge_unique(n, head);
                Ok(vec![(n, true)])
            }
        }
    }

    fn build_user_call(
        &mut self,
        pid: ProcId,
        s: &Stmt,
        c: &specslice_lang::ast::CallStmt,
        frontier: Frontier,
        cfg: &mut ProcCfg,
    ) -> Result<Frontier, SdgError> {
        let callee_name = match &c.callee {
            Callee::Named(n) => n.clone(),
            Callee::Indirect(v) => {
                return Err(SdgError::new(format!(
                    "indirect call through `{v}` not lowered"
                )))
            }
        };
        let callee_pid = *self
            .sdg
            .proc_by_name
            .get(&callee_name)
            .ok_or_else(|| SdgError::new(format!("unknown callee `{callee_name}`")))?;
        let callee_fn = self.func(callee_pid);
        let layout = self.layouts[&callee_name].clone();
        let must = self.summaries[&callee_name].must_mod.clone();
        let must_ret = self.summaries[&callee_name].must_ret;
        let site = CallSiteId(self.sdg.call_sites.len() as u32);

        let mut fr = frontier;
        let mut actual_ins = Vec::new();
        for slot in &layout.in_slots {
            let (v, n) = self.add_stmt_vertex(
                pid,
                VertexKind::ActualIn {
                    site,
                    slot: slot.clone(),
                },
                cfg,
                &fr,
            );
            match slot {
                InSlot::Param(i) => {
                    let arg = &c.args[*i];
                    match callee_fn.params[*i].mode {
                        // By-value (and fnptr) actuals read the expression.
                        ParamMode::Value | ParamMode::FnPtr { .. } => {
                            cfg.uses[n.index()].extend(arg.vars())
                        }
                        // By-ref actuals pass the current value in.
                        ParamMode::Ref => cfg.uses[n.index()].extend(arg.vars()),
                    }
                }
                InSlot::Global(g) => cfg.uses[n.index()].push(g.clone()),
                InSlot::Format => {}
            }
            actual_ins.push(v);
            fr = vec![(n, false)];
        }

        let (cv, cn) = self.add_stmt_vertex(pid, VertexKind::Call { stmt: s.id, site }, cfg, &fr);
        fr = vec![(cn, false)];

        let mut actual_outs = Vec::new();
        for slot in &layout.out_slots {
            let (v, n) = self.add_stmt_vertex(
                pid,
                VertexKind::ActualOut {
                    site,
                    slot: slot.clone(),
                },
                cfg,
                &fr,
            );
            match slot {
                OutSlot::Ret => {
                    if let Some(t) = &c.assign_to {
                        cfg.defs[n.index()].push(Def {
                            var: t.clone(),
                            // A value-less `return;` path leaves the target
                            // untouched, so the definition only kills when
                            // the callee definitely returns a value.
                            kills: must_ret,
                        });
                    }
                }
                OutSlot::RefParam(i) => {
                    if let Some(Expr::Var(av)) = c.args.get(*i) {
                        cfg.defs[n.index()].push(Def {
                            var: av.clone(),
                            kills: must.contains(&Location::Param(*i)),
                        });
                    }
                }
                OutSlot::Global(g) => {
                    cfg.defs[n.index()].push(Def {
                        var: g.clone(),
                        kills: must.contains(&Location::Global(g.clone())),
                    });
                }
                OutSlot::ScanTarget(_) => unreachable!("user calls have no scan targets"),
            }
            actual_outs.push(v);
            fr = vec![(n, false)];
        }

        self.sdg.call_sites.push(CallSite {
            id: site,
            caller: pid,
            callee: CalleeKind::User(callee_pid),
            stmt: s.id,
            call_vertex: cv,
            actual_ins,
            actual_outs,
        });
        Ok(fr)
    }

    /// Ferrante–Ottenstein–Warren control dependence on the augmented CFG,
    /// with HRB re-anchoring of parameter vertices.
    fn control_dependence(&mut self, pid: ProcId, cfg: &ProcCfg) {
        let mut ag = cfg.graph.clone();
        for &(f, t) in &cfg.augmented {
            ag.add_edge_unique(f, t);
        }
        let pdt = DominatorTree::postdominators(&ag, cfg.exit);

        fn is_param_vertex(sdg: &Sdg, v: VertexId) -> bool {
            matches!(
                sdg.vertex(v).kind,
                VertexKind::ActualIn { .. }
                    | VertexKind::ActualOut { .. }
                    | VertexKind::FormalIn { .. }
                    | VertexKind::FormalOut { .. }
            )
        }

        for u in ag.nodes() {
            if ag.successors(u).len() < 2 {
                continue;
            }
            let stop = pdt.idom(u);
            for &w in ag.successors(u) {
                if !pdt.is_reachable(w) {
                    continue;
                }
                let mut cur = Some(w);
                while let Some(c) = cur {
                    if Some(c) == stop {
                        break;
                    }
                    // c is control dependent on u.
                    if c != u {
                        if let (Some(uv), Some(cv)) = (cfg.vertex[u.index()], cfg.vertex[c.index()])
                        {
                            if !is_param_vertex(&self.sdg, cv) {
                                self.sdg.add_edge(uv, cv, EdgeKind::Control);
                            }
                        }
                    }
                    cur = pdt.idom(c);
                }
            }
        }

        // Re-anchor parameter vertices (HRB convention).
        let proc = self.sdg.proc(pid).clone();
        for &fi in proc.formal_ins.iter().chain(&proc.formal_outs) {
            self.sdg.add_edge(proc.entry, fi, EdgeKind::Control);
        }
        let sites: Vec<CallSite> = self
            .sdg
            .call_sites
            .iter()
            .filter(|c| c.caller == pid)
            .cloned()
            .collect();
        for site in sites {
            for &a in site.actual_ins.iter().chain(&site.actual_outs) {
                self.sdg.add_edge(site.call_vertex, a, EdgeKind::Control);
            }
            // §6.1: library calls keep all their actuals.
            if matches!(site.callee, CalleeKind::Library(_)) {
                for &a in &site.actual_ins {
                    self.sdg.add_edge(a, site.call_vertex, EdgeKind::LibActual);
                }
            }
        }
    }

    /// Reaching definitions over the real CFG → flow-dependence edges.
    fn flow_dependence(&mut self, cfg: &ProcCfg) {
        // Enumerate definition sites.
        #[derive(Clone)]
        struct Site {
            node: NodeId,
            var: String,
            kills: bool,
        }
        let mut sites: Vec<Site> = Vec::new();
        let mut sites_of_var: HashMap<&str, Vec<usize>> = HashMap::new();
        for n in cfg.graph.nodes() {
            for d in &cfg.defs[n.index()] {
                sites.push(Site {
                    node: n,
                    var: d.var.clone(),
                    kills: d.kills,
                });
            }
        }
        for (i, s) in sites.iter().enumerate() {
            sites_of_var.entry(s.var.as_str()).or_default().push(i);
        }
        let nsites = sites.len();
        let words = nsites.div_ceil(64);
        let zero = vec![0u64; words];

        // GEN and KILL per node.
        let n_nodes = cfg.graph.node_count();
        let mut gen = vec![zero.clone(); n_nodes];
        let mut kill = vec![zero.clone(); n_nodes];
        for (i, s) in sites.iter().enumerate() {
            gen[s.node.index()][i / 64] |= 1u64 << (i % 64);
            if s.kills {
                for &j in &sites_of_var[s.var.as_str()] {
                    if j != i {
                        kill[s.node.index()][j / 64] |= 1u64 << (j % 64);
                    }
                }
            }
        }

        let mut inn = vec![zero.clone(); n_nodes];
        let mut out = vec![zero.clone(); n_nodes];
        let order = cfg.graph.reverse_post_order(cfg.entry);
        loop {
            let mut changed = false;
            for &n in &order {
                let ni = n.index();
                let mut acc = zero.clone();
                for &p in cfg.graph.predecessors(n) {
                    for w in 0..words {
                        acc[w] |= out[p.index()][w];
                    }
                }
                if acc != inn[ni] {
                    inn[ni] = acc;
                    changed = true;
                }
                let mut o = inn[ni].clone();
                for w in 0..words {
                    o[w] = (o[w] & !kill[ni][w]) | gen[ni][w];
                }
                if o != out[ni] {
                    out[ni] = o;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Flow edges: def site reaching a use of the same variable.
        for n in cfg.graph.nodes() {
            let Some(use_vertex) = cfg.vertex[n.index()] else {
                continue;
            };
            for u in &cfg.uses[n.index()] {
                let Some(cands) = sites_of_var.get(u.as_str()) else {
                    continue;
                };
                for &i in cands {
                    if inn[n.index()][i / 64] >> (i % 64) & 1 == 1 {
                        let def_vertex =
                            cfg.vertex[sites[i].node.index()].expect("defs live on vertices");
                        self.sdg.add_edge(def_vertex, use_vertex, EdgeKind::Flow);
                    }
                }
            }
        }
    }

    /// Call, parameter-in, and parameter-out edges.
    fn connect_call_sites(&mut self) {
        let sites = self.sdg.call_sites.clone();
        for site in &sites {
            let CalleeKind::User(callee) = site.callee else {
                continue;
            };
            let callee_proc = self.sdg.proc(callee).clone();
            self.sdg
                .add_edge(site.call_vertex, callee_proc.entry, EdgeKind::Call);
            for (&ai, &fi) in site.actual_ins.iter().zip(&callee_proc.formal_ins) {
                debug_assert_eq!(self.sdg.in_slot(ai), self.sdg.in_slot(fi));
                self.sdg.add_edge(ai, fi, EdgeKind::ParamIn);
            }
            for (&ao, &fo) in site.actual_outs.iter().zip(&callee_proc.formal_outs) {
                debug_assert_eq!(self.sdg.out_slot(ao), self.sdg.out_slot(fo));
                self.sdg.add_edge(fo, ao, EdgeKind::ParamOut);
            }
        }
    }
}

fn connect(cfg: &mut ProcCfg, frontier: &Frontier, to: NodeId) {
    for &(src, aug) in frontier {
        if aug {
            if !cfg.augmented.contains(&(src, to)) {
                cfg.augmented.push((src, to));
            }
        } else {
            cfg.graph.add_edge_unique(src, to);
        }
    }
}

fn last_node(cfg: &ProcCfg) -> NodeId {
    NodeId(cfg.graph.node_count() as u32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specslice_lang::frontend;

    pub(crate) const FIG1: &str = r#"
        int g1, g2, g3;
        void p(int a, int b) {
            g1 = a;
            g2 = b;
            g3 = g2;
        }
        int main() {
            g2 = 100;
            p(g2, 2);
            p(g2, 3);
            p(4, g1 + g2);
            printf("%d", g2);
        }
    "#;

    fn sdg_of(src: &str) -> Sdg {
        build_sdg(&frontend(src).unwrap()).unwrap()
    }

    #[test]
    fn fig1_sdg_shape_matches_fig3() {
        let sdg = sdg_of(FIG1);
        let p = sdg.proc_named("p").unwrap();
        // Fig. 3: formal-ins p2 (a), p3 (b); formal-outs p7 (g3), p8 (g2), p9 (g1).
        assert_eq!(p.formal_ins.len(), 2);
        assert_eq!(p.formal_outs.len(), 3);
        // 3 user call sites + 1 printf site.
        assert_eq!(sdg.call_sites.len(), 4);
        let user_sites: Vec<_> = sdg
            .call_sites
            .iter()
            .filter(|c| matches!(c.callee, CalleeKind::User(_)))
            .collect();
        assert_eq!(user_sites.len(), 3);
        for c in user_sites {
            // Fig. 3: each call to p has 2 actual-ins and 3 actual-outs.
            assert_eq!(c.actual_ins.len(), 2);
            assert_eq!(c.actual_outs.len(), 3);
        }
        // printf("%d", g2): format + one arg.
        let pf = sdg
            .call_sites
            .iter()
            .find(|c| c.callee == CalleeKind::Library(LibFn::Printf))
            .unwrap();
        assert_eq!(pf.actual_ins.len(), 2);
    }

    #[test]
    fn fig1_vertex_count_matches_fig3() {
        // Fig. 3 has 23 vertices in main (m1..m23) and 9 in p (p1..p9).
        let sdg = sdg_of(FIG1);
        let main = sdg.proc_named("main").unwrap();
        let p = sdg.proc_named("p").unwrap();
        assert_eq!(p.vertices.len(), 9, "p: {:?}", p.vertices.len());
        assert_eq!(main.vertices.len(), 23, "main: {:?}", main.vertices.len());
    }

    #[test]
    fn interprocedural_edges_fig1() {
        let sdg = sdg_of(FIG1);
        let p = sdg.proc_named("p").unwrap();
        // Every user call site connects to p's entry.
        let call_edges: Vec<_> = sdg
            .call_sites
            .iter()
            .filter(|c| matches!(c.callee, CalleeKind::User(_)))
            .map(|c| {
                sdg.successors(c.call_vertex)
                    .iter()
                    .filter(|(t, k)| *k == EdgeKind::Call && *t == p.entry)
                    .count()
            })
            .collect();
        assert_eq!(call_edges, vec![1, 1, 1]);
        // Parameter-out edges: 3 formal-outs × 3 sites.
        let param_out_count: usize = p
            .formal_outs
            .iter()
            .map(|&fo| {
                sdg.successors(fo)
                    .iter()
                    .filter(|(_, k)| *k == EdgeKind::ParamOut)
                    .count()
            })
            .sum();
        assert_eq!(param_out_count, 9);
    }

    #[test]
    fn flow_dependence_inside_p() {
        // g2 = b flows to g3 = g2.
        let sdg = sdg_of(FIG1);
        let p = sdg.proc_named("p").unwrap();
        let stmts: Vec<VertexId> = p
            .vertices
            .iter()
            .copied()
            .filter(|&v| matches!(sdg.vertex(v).kind, VertexKind::Statement { .. }))
            .collect();
        assert_eq!(stmts.len(), 3);
        // stmts in order: g1 = a; g2 = b; g3 = g2.
        let g2b = stmts[1];
        let g3g2 = stmts[2];
        assert!(
            sdg.successors(g2b)
                .iter()
                .any(|&(t, k)| t == g3g2 && k == EdgeKind::Flow),
            "missing flow edge g2=b → g3=g2"
        );
    }

    #[test]
    fn control_dependence_on_predicates() {
        let sdg = sdg_of(
            r#"
            int g;
            int main() {
                int m;
                m = 1;
                if (m > 0) { g = 2; }
                printf("%d", g);
                return 0;
            }
            "#,
        );
        let main = sdg.proc_named("main").unwrap();
        let pred = main
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Predicate { .. }))
            .unwrap();
        // The g = 2 statement is control dependent on the predicate.
        let has_cd = sdg.successors(pred).iter().any(|&(t, k)| {
            k == EdgeKind::Control && matches!(sdg.vertex(t).kind, VertexKind::Statement { .. })
        });
        assert!(has_cd);
        // The predicate is control dependent on entry.
        assert!(sdg
            .predecessors(pred)
            .iter()
            .any(|&(f, k)| f == main.entry && k == EdgeKind::Control));
    }

    #[test]
    fn early_return_guards_later_statements() {
        let sdg = sdg_of(
            r#"
            int g;
            int main() {
                int m;
                m = 0;
                if (m == 0) { return 1; }
                g = 5;
                printf("%d", g);
                return 0;
            }
            "#,
        );
        let main = sdg.proc_named("main").unwrap();
        let jump = main
            .vertices
            .iter()
            .copied()
            .find(|&v| matches!(sdg.vertex(v).kind, VertexKind::Jump { .. }))
            .unwrap();
        // g = 5 must be control dependent on the early return (Ball–Horwitz).
        let g5 = main.vertices.iter().copied().find(|&v| {
            matches!(sdg.vertex(v).kind, VertexKind::Statement { .. })
                && sdg
                    .predecessors(v)
                    .iter()
                    .any(|&(f, k)| f == jump && k == EdgeKind::Control)
        });
        assert!(g5.is_some(), "no statement control-dependent on the return");
    }

    #[test]
    fn libactual_edges_present() {
        let sdg = sdg_of(FIG1);
        let pf = sdg
            .call_sites
            .iter()
            .find(|c| c.callee == CalleeKind::Library(LibFn::Printf))
            .unwrap();
        for &a in &pf.actual_ins {
            assert!(sdg
                .successors(a)
                .iter()
                .any(|&(t, k)| t == pf.call_vertex && k == EdgeKind::LibActual));
        }
    }

    #[test]
    fn rejects_indirect_calls() {
        let p = frontend(
            r#"
            int f(int a, int b) { return a; }
            int main() {
                int (*q)(int, int);
                int x;
                q = f;
                x = q(1, 2);
                return x;
            }
            "#,
        )
        .unwrap();
        let err = build_sdg(&p).unwrap_err();
        assert!(err.message().contains("indirect"), "{err}");
    }

    #[test]
    fn scanf_chain_via_stdin() {
        let sdg = sdg_of(
            r#"
            int main() {
                int a;
                int b;
                scanf("%d", &a);
                scanf("%d", &b);
                printf("%d", b);
                return 0;
            }
            "#,
        );
        // The second scanf's call vertex must be flow-dependent on the first
        // (through $stdin), preserving read order in slices.
        let scanfs: Vec<&CallSite> = sdg
            .call_sites
            .iter()
            .filter(|c| c.callee == CalleeKind::Library(LibFn::Scanf))
            .collect();
        assert_eq!(scanfs.len(), 2);
        assert!(sdg
            .successors(scanfs[0].call_vertex)
            .iter()
            .any(|&(t, k)| t == scanfs[1].call_vertex && k == EdgeKind::Flow));
    }

    #[test]
    fn return_value_flows_to_formal_out() {
        let sdg = sdg_of(
            r#"
            int add(int a, int b) { return a + b; }
            int main() { int x; x = add(1, 2); printf("%d", x); return 0; }
            "#,
        );
        let add = sdg.proc_named("add").unwrap();
        let ret_fo = *add.formal_outs.last().unwrap();
        assert_eq!(sdg.out_slot(ret_fo), Some(&OutSlot::Ret));
        // The return jump vertex flows into the formal-out.
        assert!(sdg
            .predecessors(ret_fo)
            .iter()
            .any(|&(f, k)| k == EdgeKind::Flow
                && matches!(sdg.vertex(f).kind, VertexKind::Jump { .. })));
        // And the actual-out at the call site defines x, which flows to printf's arg.
        let call = sdg
            .call_sites
            .iter()
            .find(|c| matches!(c.callee, CalleeKind::User(_)))
            .unwrap();
        let ao = call.actual_outs[0];
        assert!(sdg.successors(ao).iter().any(|&(_, k)| k == EdgeKind::Flow));
    }
}
