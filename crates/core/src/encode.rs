//! Encoding an SDG as a pushdown system (Defn. 3.2 / Fig. 8 of the paper).
//!
//! The stack alphabet is the union of SDG vertex ids and call-site labels;
//! the transition relation of the resulting PDS *is* the unrolled SDG
//! (Defn. 3.4). Every SDG edge kind is encoded:
//!
//! | SDG edge                    | PDS rule(s)                                |
//! |-----------------------------|--------------------------------------------|
//! | flow / control (/ §6.1)     | `⟨p, u⟩ ↪ ⟨p, v⟩`                          |
//! | call `c → e` at `C`         | `⟨p, c⟩ ↪ ⟨p, e C⟩`                        |
//! | param-in `ai → fi` at `C`   | `⟨p, ai⟩ ↪ ⟨p, fi C⟩`                      |
//! | param-out `fo → ao` at `C`  | `⟨p, fo⟩ ↪ ⟨p_fo, ε⟩`, `⟨p_fo, C⟩ ↪ ⟨p, ao⟩` |
//!
//! HRB summary edges have no rule: Alg. 1 does not need them, so the SDG
//! does not carry them (only the closure-slice baselines in
//! `specslice_sdg` derive them, on demand).

use specslice_fsa::Symbol;
use specslice_pds::{ControlLoc, Pds, RuleIndex};
use specslice_sdg::{CallSiteId, EdgeKind, Sdg, VertexId, VertexKind};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The shared control location `p` of Fig. 8.
pub const MAIN_CONTROL: ControlLoc = ControlLoc(0);

/// Process-wide count of [`encode_sdg`] invocations. Exists so tests (and
/// suspicious callers) can observe that a [`crate::Slicer`] session encodes
/// its SDG exactly once no matter how many queries it answers.
static ENCODE_CALLS: AtomicUsize = AtomicUsize::new(0);

/// How many times [`encode_sdg`] has run in this process.
pub fn encode_call_count() -> usize {
    ENCODE_CALLS.load(Ordering::Relaxed)
}

/// The SDG-as-PDS encoding plus the symbol interning tables.
///
/// Symbols and control locations are interned into contiguous `u32` ranges
/// here, at encode time: vertex symbols are `0..n_vertices`, call-site
/// symbols `n_vertices..n_vertices + n_call_sites`, and control locations
/// `0` (`p`) followed by one dense id per formal-out (`p_fo`). Every
/// downstream stage — saturation, the automaton chain, read-out — works on
/// those dense ids; [`Encoded::index`] is the prebuilt CSR rule index the
/// saturation engines share across all of a session's queries.
#[derive(Clone, Debug)]
pub struct Encoded {
    /// The pushdown system.
    pub pds: Pds,
    /// The per-PDS saturation rule index (built once, immutable).
    pub index: RuleIndex,
    /// Number of SDG vertices (vertex symbols are `0..n_vertices`).
    pub n_vertices: u32,
    /// Number of call sites (call-site symbols are `n_vertices..`).
    pub n_call_sites: u32,
    /// Control location for each formal-out vertex (`p_fo` of Fig. 8).
    pub fo_controls: HashMap<VertexId, ControlLoc>,
}

impl Encoded {
    /// The stack symbol of vertex `v`.
    pub fn vertex_symbol(&self, v: VertexId) -> Symbol {
        Symbol(v.0)
    }

    /// The stack symbol of call site `c`.
    pub fn call_symbol(&self, c: CallSiteId) -> Symbol {
        Symbol(self.n_vertices + c.0)
    }

    /// Decodes a symbol back into a vertex, if it is one.
    pub fn symbol_vertex(&self, s: Symbol) -> Option<VertexId> {
        (s.0 < self.n_vertices).then_some(VertexId(s.0))
    }

    /// Decodes a symbol back into a call site, if it is one.
    pub fn symbol_call_site(&self, s: Symbol) -> Option<CallSiteId> {
        (s.0 >= self.n_vertices && s.0 < self.n_vertices + self.n_call_sites)
            .then(|| CallSiteId(s.0 - self.n_vertices))
    }

    /// Estimated resident bytes of the encoding: the PDS rule table, the
    /// prebuilt CSR saturation index over it, and the formal-out control
    /// map. Deterministic (a pure function of rule and vertex counts), so
    /// the server's session budget computed from it is reproducible.
    pub fn approx_bytes(&self) -> usize {
        let rules = self.pds.rule_count();
        // A rule is ~20 bytes; the index re-materializes each rule into its
        // per-RHS/LHS CSR rows (~24 bytes a rule) plus dense offset tables
        // over the symbol space (~8 bytes a symbol).
        rules * (20 + 24)
            + (self.n_vertices + self.n_call_sites) as usize * 8
            + self.fo_controls.len() * 24
    }
}

/// Encodes `sdg` as a pushdown system following Fig. 8.
pub fn encode_sdg(sdg: &Sdg) -> Encoded {
    ENCODE_CALLS.fetch_add(1, Ordering::Relaxed);
    let n_vertices = sdg.vertex_count() as u32;
    let n_call_sites = sdg.call_sites.len() as u32;
    let mut pds = Pds::new(1); // control location p

    // One control location per formal-out vertex.
    let mut fo_controls = HashMap::new();
    for v in sdg.vertex_ids() {
        if matches!(sdg.vertex(v).kind, VertexKind::FormalOut { .. }) {
            fo_controls.insert(v, pds.add_control());
        }
    }

    let enc_sym = |v: VertexId| Symbol(v.0);

    for u in sdg.vertex_ids() {
        for &(v, kind) in sdg.successors(u) {
            if matches!(
                kind,
                EdgeKind::Flow | EdgeKind::Control | EdgeKind::LibActual
            ) {
                pds.add_internal(MAIN_CONTROL, enc_sym(u), MAIN_CONTROL, enc_sym(v));
            }
        }
    }
    let enc_call = |c: CallSiteId| Symbol(n_vertices + c.0);
    for u in sdg.vertex_ids() {
        for &(v, kind) in sdg.successors(u) {
            match kind {
                EdgeKind::Call => {
                    let site = match sdg.vertex(u).kind {
                        VertexKind::Call { site, .. } => site,
                        _ => unreachable!("call edge from non-call vertex"),
                    };
                    pds.add_push(
                        MAIN_CONTROL,
                        enc_sym(u),
                        MAIN_CONTROL,
                        enc_sym(v),
                        enc_call(site),
                    );
                }
                EdgeKind::ParamIn => {
                    let site = match &sdg.vertex(u).kind {
                        VertexKind::ActualIn { site, .. } => *site,
                        _ => unreachable!("param-in edge from non-actual-in"),
                    };
                    pds.add_push(
                        MAIN_CONTROL,
                        enc_sym(u),
                        MAIN_CONTROL,
                        enc_sym(v),
                        enc_call(site),
                    );
                }
                EdgeKind::ParamOut => {
                    let site = match &sdg.vertex(v).kind {
                        VertexKind::ActualOut { site, .. } => *site,
                        _ => unreachable!("param-out edge to non-actual-out"),
                    };
                    let pfo = fo_controls[&u];
                    // The pop rule is added once per formal-out (below);
                    // the internal rule once per (fo, site) pair.
                    pds.add_internal(pfo, enc_call(site), MAIN_CONTROL, enc_sym(v));
                }
                // Added by the pass above, so every intraprocedural rule
                // precedes every interprocedural one.
                EdgeKind::Flow | EdgeKind::Control | EdgeKind::LibActual => {}
            }
        }
    }
    // Pop rules ⟨p, fo⟩ ↪ ⟨p_fo, ε⟩, one per formal-out vertex that has at
    // least one parameter-out edge — in vertex order, so the rule list (and
    // with it every order-sensitive saturation *counter*, like peak
    // worklist depth) is identical from process to process. Iterating the
    // randomly-seeded `fo_controls` map here used to vary the rule order
    // per run; results were unaffected (saturation is confluent) but the
    // benchmark's deterministic-counter gate would have tripped on noise.
    for v in sdg.vertex_ids() {
        let Some(&pfo) = fo_controls.get(&v) else {
            continue;
        };
        let has_param_out = sdg
            .successors(v)
            .iter()
            .any(|&(_, k)| k == EdgeKind::ParamOut);
        if has_param_out {
            pds.add_pop(MAIN_CONTROL, enc_sym(v), pfo);
        }
    }

    let index = RuleIndex::new(&pds);
    Encoded {
        pds,
        index,
        n_vertices,
        n_call_sites,
        fo_controls,
    }
}

/// Pretty-prints the PDS rules in the style of the paper's Tab. I (used by
/// the `tab1` experiment).
pub fn dump_rules(sdg: &Sdg, enc: &Encoded) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let sym_name = |s: Symbol| -> String {
        if let Some(v) = enc.symbol_vertex(s) {
            sdg.label(v)
        } else if let Some(c) = enc.symbol_call_site(s) {
            format!("C{}", c.0 + 1)
        } else {
            format!("{s}")
        }
    };
    let loc_name = |l: ControlLoc| -> String {
        if l == MAIN_CONTROL {
            "p".into()
        } else {
            let fo = enc
                .fo_controls
                .iter()
                .find(|(_, &c)| c == l)
                .map(|(&v, _)| v)
                .expect("control maps to a formal-out");
            format!("p_{}", sdg.label(fo))
        }
    };
    for (i, r) in enc.pds.rules().iter().enumerate() {
        let rhs = match r.rhs {
            specslice_pds::Rhs::Pop => "ε".to_string(),
            specslice_pds::Rhs::Internal(g) => sym_name(g),
            specslice_pds::Rhs::Push(a, b) => format!("{} {}", sym_name(a), sym_name(b)),
        };
        let _ = writeln!(
            out,
            "{:>4}. ⟨{}, {}⟩ ↪ ⟨{}, {}⟩",
            i + 1,
            loc_name(r.from_loc),
            sym_name(r.from_sym),
            loc_name(r.to_loc),
            rhs
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use specslice_lang::frontend;
    use specslice_pds::Rhs;
    use specslice_sdg::build::build_sdg;

    const FIG1: &str = r#"
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

    #[test]
    fn fig1_rule_inventory_matches_table1_shape() {
        let sdg = build_sdg(&frontend(FIG1).unwrap()).unwrap();
        let enc = encode_sdg(&sdg);
        let rules = enc.pds.rules();
        let pops = rules.iter().filter(|r| r.rhs == Rhs::Pop).count();
        let pushes = rules
            .iter()
            .filter(|r| matches!(r.rhs, Rhs::Push(..)))
            .count();
        // Tab. I: 3 call edges + 6 parameter-in edges = 9 push rules;
        // 3 formal-outs → 3 pop rules; 9 parameter-out internal rules.
        assert_eq!(pops, 3, "one pop rule per formal-out of p");
        assert_eq!(pushes, 9, "3 call + 6 param-in push rules");
        let pout_internals = rules.iter().filter(|r| r.from_loc != MAIN_CONTROL).count();
        assert_eq!(pout_internals, 9, "3 formal-outs × 3 call sites");
    }

    #[test]
    fn symbols_roundtrip() {
        let sdg = build_sdg(&frontend(FIG1).unwrap()).unwrap();
        let enc = encode_sdg(&sdg);
        for v in sdg.vertex_ids() {
            assert_eq!(enc.symbol_vertex(enc.vertex_symbol(v)), Some(v));
            assert_eq!(enc.symbol_call_site(enc.vertex_symbol(v)), None);
        }
        for c in &sdg.call_sites {
            assert_eq!(enc.symbol_call_site(enc.call_symbol(c.id)), Some(c.id));
            assert_eq!(enc.symbol_vertex(enc.call_symbol(c.id)), None);
        }
    }

    #[test]
    fn unrolling_simulates_dependences() {
        // In the PDS, an internal dependence edge u→v lets (u, w) ⇒ (v, w).
        let sdg = build_sdg(&frontend(FIG1).unwrap()).unwrap();
        let enc = encode_sdg(&sdg);
        let p = sdg.proc_named("p").unwrap();
        // p entry has a control edge to its statements; take the first one.
        let entry_sym = enc.vertex_symbol(p.entry);
        let succs = enc.pds.step(MAIN_CONTROL, &[entry_sym]);
        assert!(!succs.is_empty());
        for (loc, stack) in &succs {
            assert_eq!(*loc, MAIN_CONTROL);
            assert_eq!(stack.len(), 1);
        }
    }

    #[test]
    fn dump_is_readable() {
        let sdg = build_sdg(&frontend(FIG1).unwrap()).unwrap();
        let enc = encode_sdg(&sdg);
        let text = dump_rules(&sdg, &enc);
        assert!(text.contains("↪"));
        assert!(text.contains("p:entry") || text.contains("main:entry"));
    }
}
