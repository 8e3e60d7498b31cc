//! Summary edges on demand (Horwitz–Reps–Binkley / RHSR worklist).
//!
//! A summary edge `actual-in → actual-out` at a call site records that the
//! callee can transmit a dependence from that input to that output along a
//! *same-level* realizable path. Summary edges make the two-phase closure
//! slicer context-sensitive. Alg. 1 of the paper does not need them — the
//! PDS encoding has no rule for them — so the SDG does not carry them: the
//! closure and Binkley baselines compute the relation here as a value of
//! their own, once per call, or once per SDG through their `_with`
//! variants and a [`Summaries`] handle.
//!
//! The worklist deliberately reads only SDG edges, not the `specslice`
//! session's `pre*` base: the closure slice is the independent reference
//! the PDS pipeline is tested against, and deriving one from the other
//! would make that check circular.

use crate::model::*;
use std::collections::{HashMap, HashSet};

/// Path edges `(v, fo)`: `v` reaches formal-out `fo` along a same-level
/// path.
struct PathEdges {
    seen: HashSet<(VertexId, VertexId)>,
    /// `from[v]`: every `fo` with a path edge `(v, fo)`.
    from: Vec<Vec<VertexId>>,
    work: Vec<(VertexId, VertexId)>,
}

impl PathEdges {
    fn push(&mut self, v: VertexId, fo: VertexId) {
        if self.seen.insert((v, fo)) {
            self.from[v.index()].push(fo);
            self.work.push((v, fo));
        }
    }
}

/// The summary relation of one SDG, indexed both ways: an opaque handle a
/// caller derives once ([`Summaries::of`]) and passes to
/// [`crate::slice::backward_closure_slice_with`] and
/// [`crate::binkley::monovariant_executable_slice_with`] for any number of
/// criteria over that SDG.
#[derive(Debug)]
pub struct Summaries {
    /// `preds[ao]`: the actual-ins with a summary edge into actual-out `ao`.
    preds: Vec<Vec<VertexId>>,
    /// `succs[ai]`: the actual-outs with a summary edge from actual-in `ai`.
    succs: Vec<Vec<VertexId>>,
}

impl Summaries {
    /// Computes every summary edge of `sdg`.
    pub fn of(sdg: &Sdg) -> Summaries {
        let n = sdg.vertex_count();
        let mut s = Summaries {
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
        };
        let mut paths = PathEdges {
            seen: HashSet::new(),
            from: vec![Vec::new(); n],
            work: Vec::new(),
        };
        for proc in &sdg.procs {
            for &fo in &proc.formal_outs {
                paths.push(fo, fo);
            }
        }

        // Call sites indexed by callee for the formal-in step.
        let mut sites_by_callee: HashMap<ProcId, Vec<&CallSite>> = HashMap::new();
        for site in &sdg.call_sites {
            if let CalleeKind::User(p) = site.callee {
                sites_by_callee.entry(p).or_default().push(site);
            }
        }

        while let Some((v, fo)) = paths.work.pop() {
            let vertex = sdg.vertex(v);
            if let VertexKind::FormalIn { slot } = &vertex.kind {
                let oslot = sdg.out_slot(fo).expect("fo is a formal-out");
                for site in sites_by_callee.get(&vertex.proc).into_iter().flatten() {
                    let (Some(ai), Some(ao)) = (
                        sdg.actual_in_for_slot(site, slot),
                        sdg.actual_out_for_slot(site, oslot),
                    ) else {
                        continue;
                    };
                    if s.preds[ao.index()].contains(&ai) {
                        continue;
                    }
                    s.preds[ao.index()].push(ai);
                    s.succs[ai.index()].push(ao);
                    // Propagate existing path edges across the new summary.
                    for i in 0..paths.from[ao.index()].len() {
                        paths.push(ai, paths.from[ao.index()][i]);
                    }
                }
            }
            for &(u, k) in sdg.predecessors(v) {
                if matches!(k, EdgeKind::Control | EdgeKind::Flow | EdgeKind::LibActual) {
                    paths.push(u, fo);
                }
            }
            for &ai in &s.preds[v.index()] {
                paths.push(ai, fo);
            }
        }
        s
    }

    /// The actual-ins with a summary edge into `v`.
    pub(crate) fn preds(&self, v: VertexId) -> &[VertexId] {
        &self.preds[v.index()]
    }

    /// The actual-outs with a summary edge from `v`.
    pub(crate) fn succs(&self, v: VertexId) -> &[VertexId] {
        &self.succs[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_sdg;
    use specslice_lang::frontend;

    fn sdg_of(src: &str) -> Sdg {
        build_sdg(&frontend(src).unwrap()).unwrap()
    }

    fn summary_edges(sdg: &Sdg) -> Vec<(VertexId, VertexId)> {
        let s = Summaries::of(sdg);
        let mut out = Vec::new();
        for v in sdg.vertex_ids() {
            for &t in s.succs(v) {
                out.push((v, t));
            }
        }
        out
    }

    #[test]
    fn direct_transmission() {
        let sdg = sdg_of(
            r#"
            int g;
            void set(int a) { g = a; }
            int main() { set(3); printf("%d", g); return 0; }
            "#,
        );
        // set: formal-in a reaches formal-out g ⇒ summary ai(a) → ao(g).
        let es = summary_edges(&sdg);
        assert_eq!(es.len(), 1);
        let (ai, ao) = es[0];
        assert!(matches!(
            sdg.vertex(ai).kind,
            VertexKind::ActualIn {
                slot: InSlot::Param(0),
                ..
            }
        ));
        assert!(matches!(
            &sdg.vertex(ao).kind,
            VertexKind::ActualOut {
                slot: OutSlot::Global(g),
                ..
            } if g == "g"
        ));
    }

    #[test]
    fn no_summary_without_dependence() {
        let sdg = sdg_of(
            r#"
            int g;
            void noop(int a) { int x; x = a; }
            int main() { g = 1; noop(5); printf("%d", g); return 0; }
            "#,
        );
        assert!(summary_edges(&sdg).is_empty());
    }

    #[test]
    fn transitive_through_nested_calls() {
        let sdg = sdg_of(
            r#"
            int g;
            void inner(int x) { g = x; }
            void outer(int y) { inner(y + 1); }
            int main() { outer(2); printf("%d", g); return 0; }
            "#,
        );
        let es = summary_edges(&sdg);
        // inner's site in outer AND outer's site in main both get a → g edges.
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn recursive_summaries_converge() {
        let sdg = sdg_of(
            r#"
            int g;
            void r(int k) {
                if (k > 0) { r(k - 1); }
                g = k;
            }
            int main() { r(3); printf("%d", g); return 0; }
            "#,
        );
        let es = summary_edges(&sdg);
        // At the recursive site and the main site: k → g.
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn preds_mirror_succs() {
        let sdg = sdg_of(
            r#"
            int g, h;
            void set(int a, int b) { g = a; h = a + b; }
            int main() { set(3, 4); set(g, 5); printf("%d", g + h); return 0; }
            "#,
        );
        let s = Summaries::of(&sdg);
        let mut backward = Vec::new();
        for ao in sdg.vertex_ids() {
            for &ai in s.preds(ao) {
                backward.push((ai, ao));
            }
        }
        let mut forward = summary_edges(&sdg);
        backward.sort();
        forward.sort();
        // a → g, a → h, b → h at each of the two sites.
        assert_eq!(forward.len(), 6);
        assert_eq!(backward, forward);
    }
}
