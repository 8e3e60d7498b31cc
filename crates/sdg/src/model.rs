//! The system-dependence-graph data model (Horwitz–Reps–Binkley SDGs).

use specslice_lang::ast::StmtId;
use std::collections::HashMap;
use std::fmt;

/// Identifier of an SDG vertex (dense, program-wide).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a procedure (index into [`Sdg::procs`]).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl ProcId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a call site (index into [`Sdg::call_sites`]). Call-site ids
/// are the `C1, C2, …` labels of the paper and become PDS stack symbols.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CallSiteId(pub u32);

impl CallSiteId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Input slot of a procedure: what a formal-in / actual-in vertex carries.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InSlot {
    /// The `i`-th declared parameter.
    Param(usize),
    /// A global variable (by name; includes the synthetic `$stdin` stream).
    Global(String),
    /// The format string of a library call (`printf`/`scanf`); carries no
    /// variable.
    Format,
}

/// Output slot of a procedure: what a formal-out / actual-out vertex carries.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OutSlot {
    /// The function's return value.
    Ret,
    /// The final value of by-reference parameter `i`.
    RefParam(usize),
    /// A global variable (by name).
    Global(String),
    /// The `i`-th `&var` target of a `scanf`.
    ScanTarget(usize),
}

/// Library procedures (no PDGs; handled per §6.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LibFn {
    /// `printf` — output; no effects on program state.
    Printf,
    /// `scanf` — reads the `$stdin` stream, defines its targets.
    Scanf,
    /// `exit` — terminates the program (a jump in the CFG).
    Exit,
}

impl LibFn {
    /// Source-level name.
    pub fn name(self) -> &'static str {
        match self {
            LibFn::Printf => "printf",
            LibFn::Scanf => "scanf",
            LibFn::Exit => "exit",
        }
    }
}

/// What a call site calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CalleeKind {
    /// A user-defined procedure (gets call/param edges and PDS push rules).
    User(ProcId),
    /// A library procedure (actual-ins/outs only; §6.1 closure edges).
    Library(LibFn),
}

/// The kind (and syntax anchor) of an SDG vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VertexKind {
    /// Procedure entry.
    Entry,
    /// An ordinary statement (assignment, declaration with initializer).
    Statement {
        /// The statement this vertex represents.
        stmt: StmtId,
    },
    /// An `if`/`while` condition.
    Predicate {
        /// The owning statement.
        stmt: StmtId,
    },
    /// A control-transfer statement (`return`, `break`, `continue`) —
    /// a Ball–Horwitz pseudo-predicate.
    Jump {
        /// The owning statement.
        stmt: StmtId,
    },
    /// A call vertex (user or library call).
    Call {
        /// The owning statement.
        stmt: StmtId,
        /// The call site.
        site: CallSiteId,
    },
    /// An actual-in vertex at a call site.
    ActualIn {
        /// The call site.
        site: CallSiteId,
        /// Which input it feeds.
        slot: InSlot,
    },
    /// An actual-out vertex at a call site.
    ActualOut {
        /// The call site.
        site: CallSiteId,
        /// Which output it receives.
        slot: OutSlot,
    },
    /// A formal-in vertex of a procedure.
    FormalIn {
        /// Which input it receives.
        slot: InSlot,
    },
    /// A formal-out vertex of a procedure.
    FormalOut {
        /// Which output it produces.
        slot: OutSlot,
    },
}

/// An SDG vertex: kind plus owning procedure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vertex {
    /// What the vertex represents.
    pub kind: VertexKind,
    /// The procedure whose PDG contains this vertex.
    pub proc: ProcId,
}

/// Kinds of SDG edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Control dependence (includes the paper's §6.1 library-actual edges'
    /// complement; see [`EdgeKind::LibActual`] for those).
    Control,
    /// Data (flow) dependence.
    Flow,
    /// Call edge: call vertex → callee entry.
    Call,
    /// Parameter-in edge: actual-in → formal-in.
    ParamIn,
    /// Parameter-out edge: formal-out → actual-out.
    ParamOut,
    /// §6.1: actual-in → library call vertex, so a sliced library call keeps
    /// all of its arguments.
    LibActual,
}

/// One procedure's PDG skeleton inside the SDG.
#[derive(Clone, Debug)]
pub struct Proc {
    /// Procedure id.
    pub id: ProcId,
    /// Source-level name.
    pub name: String,
    /// Entry vertex.
    pub entry: VertexId,
    /// Formal-in vertices, in slot order (params first, then globals).
    pub formal_ins: Vec<VertexId>,
    /// Formal-out vertices, in slot order.
    pub formal_outs: Vec<VertexId>,
    /// Every vertex of this procedure's PDG.
    pub vertices: Vec<VertexId>,
}

/// One call site.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Call-site id (`C1, C2, …`).
    pub id: CallSiteId,
    /// Procedure containing the call.
    pub caller: ProcId,
    /// What is called.
    pub callee: CalleeKind,
    /// The call statement.
    pub stmt: StmtId,
    /// The call vertex.
    pub call_vertex: VertexId,
    /// Actual-in vertices, in slot order.
    pub actual_ins: Vec<VertexId>,
    /// Actual-out vertices, in slot order.
    pub actual_outs: Vec<VertexId>,
}

/// A whole-program system dependence graph.
#[derive(Clone, Debug, Default)]
pub struct Sdg {
    /// Vertex table.
    pub vertices: Vec<Vertex>,
    /// Procedures (PDGs).
    pub procs: Vec<Proc>,
    /// Call sites.
    pub call_sites: Vec<CallSite>,
    /// Forward adjacency: `edges[v] = [(target, kind), …]`.
    pub edges: Vec<Vec<(VertexId, EdgeKind)>>,
    /// Reverse adjacency: `redges[v] = [(source, kind), …]`.
    pub redges: Vec<Vec<(VertexId, EdgeKind)>>,
    /// Lookup: procedure name → id.
    pub proc_by_name: HashMap<String, ProcId>,
    /// The `main` procedure.
    pub main: ProcId,
    /// Number of edges (by kind, for stats).
    pub edge_counts: HashMap<EdgeKind, usize>,
    /// The interprocedural mod/ref summaries the builder derived the
    /// formal-in/out layouts from, keyed by procedure name. Retained so the
    /// incremental patcher ([`crate::patch`]) can tell which procedures'
    /// layouts and call-site effects survived an edit (empty for hand-built
    /// SDGs, which the patcher treats as fully dirty).
    pub modref: HashMap<String, crate::modref::ModRefInfo>,
}

impl Sdg {
    /// Adds a vertex, returning its id.
    pub fn add_vertex(&mut self, v: Vertex) -> VertexId {
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(v);
        self.edges.push(Vec::new());
        self.redges.push(Vec::new());
        id
    }

    /// Adds an edge (deduplicated per `(from, to, kind)`).
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, kind: EdgeKind) {
        if self.edges[from.index()]
            .iter()
            .any(|&(t, k)| t == to && k == kind)
        {
            return;
        }
        self.edges[from.index()].push((to, kind));
        self.redges[to.index()].push((from, kind));
        *self.edge_counts.entry(kind).or_insert(0) += 1;
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_counts.values().sum()
    }

    /// The vertex record for `v`.
    pub fn vertex(&self, v: VertexId) -> &Vertex {
        &self.vertices[v.index()]
    }

    /// The procedure record for `p`.
    pub fn proc(&self, p: ProcId) -> &Proc {
        &self.procs[p.index()]
    }

    /// The call-site record for `c`.
    pub fn call_site(&self, c: CallSiteId) -> &CallSite {
        &self.call_sites[c.index()]
    }

    /// Procedure lookup by name.
    pub fn proc_named(&self, name: &str) -> Option<&Proc> {
        self.proc_by_name.get(name).map(|&p| self.proc(p))
    }

    /// Outgoing edges of `v`.
    pub fn successors(&self, v: VertexId) -> &[(VertexId, EdgeKind)] {
        &self.edges[v.index()]
    }

    /// Incoming edges of `v`.
    pub fn predecessors(&self, v: VertexId) -> &[(VertexId, EdgeKind)] {
        &self.redges[v.index()]
    }

    /// All vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// The `printf` call sites, in site order — the per-criterion workload
    /// of the paper's evaluation (one slice per printf).
    pub fn printf_call_sites(&self) -> impl Iterator<Item = &CallSite> {
        self.call_sites
            .iter()
            .filter(|c| c.callee == CalleeKind::Library(LibFn::Printf))
    }

    /// The actual-in vertices of every `printf` call site — the criterion
    /// shape used throughout the paper ("slice with respect to the actual
    /// parameters of the call to printf").
    pub fn printf_actual_in_vertices(&self) -> Vec<VertexId> {
        self.printf_call_sites()
            .flat_map(|c| c.actual_ins.iter().copied())
            .collect()
    }

    /// The actual-in vertex at call site `c` matching formal-in slot `slot`,
    /// if any.
    pub fn actual_in_for_slot(&self, c: &CallSite, slot: &InSlot) -> Option<VertexId> {
        c.actual_ins.iter().copied().find(
            |&v| matches!(&self.vertex(v).kind, VertexKind::ActualIn { slot: s, .. } if s == slot),
        )
    }

    /// The actual-out vertex at call site `c` matching formal-out slot
    /// `slot`, if any.
    pub fn actual_out_for_slot(&self, c: &CallSite, slot: &OutSlot) -> Option<VertexId> {
        c.actual_outs.iter().copied().find(
            |&v| matches!(&self.vertex(v).kind, VertexKind::ActualOut { slot: s, .. } if s == slot),
        )
    }

    /// The slot of a formal-in / actual-in vertex.
    pub fn in_slot(&self, v: VertexId) -> Option<&InSlot> {
        match &self.vertex(v).kind {
            VertexKind::FormalIn { slot } | VertexKind::ActualIn { slot, .. } => Some(slot),
            _ => None,
        }
    }

    /// The slot of a formal-out / actual-out vertex.
    pub fn out_slot(&self, v: VertexId) -> Option<&OutSlot> {
        match &self.vertex(v).kind {
            VertexKind::FormalOut { slot } | VertexKind::ActualOut { slot, .. } => Some(slot),
            _ => None,
        }
    }

    /// Approximate retained bytes (Fig. 22 accounting).
    pub fn approx_bytes(&self) -> usize {
        let edge_bytes: usize = self
            .edges
            .iter()
            .map(|v| v.len() * std::mem::size_of::<(VertexId, EdgeKind)>())
            .sum();
        self.vertices.len() * 48 + 2 * edge_bytes
    }

    /// A short human-readable label for a vertex (debugging / experiment
    /// dumps).
    pub fn label(&self, v: VertexId) -> String {
        let vx = self.vertex(v);
        let pname = &self.proc(vx.proc).name;
        match &vx.kind {
            VertexKind::Entry => format!("{pname}:entry"),
            VertexKind::Statement { stmt } => format!("{pname}:{stmt:?}"),
            VertexKind::Predicate { stmt } => format!("{pname}:{stmt:?}?"),
            VertexKind::Jump { stmt } => format!("{pname}:{stmt:?}!"),
            VertexKind::Call { site, .. } => format!("{pname}:call@{site:?}"),
            VertexKind::ActualIn { site, slot } => format!("{pname}:ain{slot:?}@{site:?}"),
            VertexKind::ActualOut { site, slot } => format!("{pname}:aout{slot:?}@{site:?}"),
            VertexKind::FormalIn { slot } => format!("{pname}:fin{slot:?}"),
            VertexKind::FormalOut { slot } => format!("{pname}:fout{slot:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_deduplicate() {
        let mut sdg = Sdg::default();
        let p = ProcId(0);
        let a = sdg.add_vertex(Vertex {
            kind: VertexKind::Entry,
            proc: p,
        });
        let b = sdg.add_vertex(Vertex {
            kind: VertexKind::Statement { stmt: StmtId(0) },
            proc: p,
        });
        sdg.add_edge(a, b, EdgeKind::Control);
        sdg.add_edge(a, b, EdgeKind::Control);
        sdg.add_edge(a, b, EdgeKind::Flow);
        assert_eq!(sdg.edge_count(), 2);
        assert_eq!(sdg.successors(a).len(), 2);
        assert_eq!(sdg.predecessors(b).len(), 2);
    }

    #[test]
    fn slot_lookup() {
        let mut sdg = Sdg::default();
        let p = ProcId(0);
        let v = sdg.add_vertex(Vertex {
            kind: VertexKind::FormalIn {
                slot: InSlot::Param(1),
            },
            proc: p,
        });
        assert_eq!(sdg.in_slot(v), Some(&InSlot::Param(1)));
        assert_eq!(sdg.out_slot(v), None);
    }
}
