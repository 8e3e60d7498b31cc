//! The saturation procedures `Prestar` (Defn. 3.6; Esparza et al. 2000)
//! and `Poststar` (Defn. 3.7; Schwoon 2002, Alg. 2): one engine per
//! [`Direction`], and the two entries every client goes through.
//!
//! Given PDS `P` and P-automaton `A` accepting configuration set `C`,
//! `pre*` adds transitions until saturation:
//!
//! ```text
//! ⟨p, γ⟩ ↪ ⟨p', w⟩ ∈ Δ     p' –w→* q in A_pre*
//! ─────────────────────────────────────────────
//!              p –γ→ q in A_pre*
//! ```
//!
//! and `post*` computes every configuration reachable from `C`, adding one
//! Phase-I state per distinct push-rule target pair and ε-transitions via
//! pop rules (`pre*` does neither, so a backward run never adds states).
//! Both are the same worklist algorithm — seed a transition relation, fire
//! PDS rules against transitions out of control states until nothing new
//! appears — on dense structures: rules are matched through a prebuilt
//! [`RuleIndex`] (two array reads per lookup, shared across every query
//! over one PDS), and the growing relation lives in bitset-deduped
//! per-`(state, symbol)` rows inside a reusable [`SaturationScratch`].
//! Saturation is confluent — the result is the unique least fixpoint over
//! the query's state set — so none of this changes the answer, only how
//! fast it arrives.
//!
//! [`saturate_a1_with_stats`] is the query path: it reads the query
//! pipeline's `A1` straight from the rows. [`saturate_indexed_with_stats`]
//! materializes the whole saturated relation as a [`PAutomaton`].
//!
//! Each engine saturates a query *against* a frozen [`SaturationBase`] of
//! its direction, keeping only the query's own transitions in the scratch
//! overlay: backward, rule matching reads base ∪ overlay rows and
//! waiters; forward, the base already holds every push's first hop and
//! the closure of its Phase-I state. An empty base makes either the
//! textbook engine over the whole relation, and a base is that same
//! engine run on no query — there is one engine per direction.
//!
//! Labels are stored encoded as `u32`: `0` is ε, a stack symbol `γ` is
//! `γ + 1`. The backward engines never produce label `0`.

use crate::automaton::{PAutomaton, PState};
use crate::base::SaturationBase;
use crate::index::RuleIndex;
use crate::scratch::{decode_label, Relation, SaturationScratch};
use crate::system::{ControlLoc, Rhs};
use crate::PdsError;
use specslice_fsa::mrd::TransposedNfa;
use specslice_fsa::Symbol;
use std::fmt;

/// Which reachability closure a saturation computes.
///
/// [`Direction::Backward`] is `pre*` (Defn. 3.6): the configurations that
/// can *reach* the query set — backward slicing. [`Direction::Forward`] is
/// `post*` (Defn. 3.7): the configurations *reachable from* the query set —
/// forward slicing. Everything downstream of saturation (the automaton
/// chain, read-out, memoization, the wire protocol) is parameterized by
/// this enum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// `pre*`: backward reachability (backward slicing).
    #[default]
    Backward,
    /// `post*`: forward reachability (forward slicing).
    Forward,
}

impl Direction {
    /// Stable lowercase name, used in wire payloads and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Backward => "backward",
            Direction::Forward => "forward",
        }
    }

    /// Parses [`Direction::as_str`]'s output back.
    pub fn parse(s: &str) -> Option<Direction> {
        match s {
            "backward" => Some(Direction::Backward),
            "forward" => Some(Direction::Forward),
            _ => None,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Statistics from one saturation run, either direction. Sizes feed the
/// Fig. 22 memory accounting; the counters feed the query benchmark's
/// deterministic drift gate.
///
/// For a run over a [`SaturationBase`], `transitions` is base + overlay:
/// the relation the query reads (backward, the exact `pre*`; forward, it
/// also counts the closures of Phase-I states the query never triggers).
/// The work fields (`rule_applications`, `peak_worklist`, `peak_bytes`)
/// count only the run's own work beyond the base; the base reports its
/// own work once, in [`SaturationBase::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SaturationStats {
    /// Transitions in the saturated automaton (including ε for `post*`).
    pub transitions: usize,
    /// Transitions of the input query automaton.
    pub query_transitions: usize,
    /// States added in Phase I — always 0 for `pre*`, one per distinct
    /// push-rule target pair for `post*`.
    pub phase1_states: usize,
    /// Approximate peak bytes retained by the saturation data structures.
    pub peak_bytes: usize,
    /// Saturation firings: every time a PDS rule (or ε-combination) matched
    /// transitions and produced a candidate, counting duplicates. A pure
    /// function of the PDS + query for a given engine build — identical on
    /// every machine and at every thread count, which is what lets the
    /// query benchmark gate on it.
    pub rule_applications: usize,
    /// Deepest the worklist ever got (measured at the top of each
    /// iteration).
    pub peak_worklist: usize,
}

/// Validates the standard P-automaton preconditions for one query.
///
/// Both directions require control-state coverage and ε-freedom; `post*`
/// additionally requires control states to be pure sources (Schwoon 2002).
/// The check order (missing controls, then ε, then into-control) mirrors
/// the historical assertion order so diagnostics stay stable.
fn validate_query(idx: &RuleIndex, query: &PAutomaton, dir: Direction) -> Result<(), PdsError> {
    if query.control_count() < idx.control_count() {
        return Err(PdsError::MissingControls {
            query: query.control_count(),
            pds: idx.control_count(),
        });
    }
    let epsilon_count = query.transitions().filter(|(_, l, _)| l.is_none()).count();
    if epsilon_count > 0 {
        return Err(PdsError::EpsilonInQuery {
            count: epsilon_count,
        });
    }
    if dir == Direction::Forward {
        let into_control = query
            .transitions()
            .filter(|&(_, _, t)| query.is_control_state(t))
            .count();
        if into_control > 0 {
            return Err(PdsError::TransitionIntoControl {
                count: into_control,
            });
        }
    }
    Ok(())
}

/// Computes the saturation of `query` in `dir` (`pre*` or `post*` of its
/// language) against a prebuilt rule index and caller-owned scratch,
/// materialized as a [`PAutomaton`], for callers that need the whole
/// saturated relation. A `post*` result may contain ε-transitions.
///
/// # Errors
///
/// [`PdsError::MissingControls`] if `query` has fewer control states than
/// the PDS has control locations, [`PdsError::EpsilonInQuery`] if it has
/// ε-transitions, and (`post*` only) [`PdsError::TransitionIntoControl`]
/// if it has transitions *into* control states — the standard P-automaton
/// preconditions, returned as values so batch workers stay alive.
pub fn saturate_indexed_with_stats(
    dir: Direction,
    idx: &RuleIndex,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> Result<(PAutomaton, SaturationStats), PdsError> {
    let stats = saturate_rows(dir, idx, SaturationBase::empty(), query, scratch)?;
    Ok((
        materialize(query, stats.phase1_states, &scratch.rel.out),
        stats,
    ))
}

/// The session hot path: runs the same engine as
/// [`saturate_indexed_with_stats`], against `base`, then builds the query
/// pipeline's `A1` (the saturated language read from control location
/// `p`, trimmed) straight from base + overlay rows into `scratch`,
/// without materializing the saturated automaton.
///
/// `base` must be [`SaturationBase::empty`] or built in `dir` over `idx`
/// ([`SaturationBase::backward`], [`SaturationBase::forward`]). Either
/// gives the same `A1`. The result is
/// `to_nfa(p).trimmed().0` of what [`saturate_indexed_with_stats`]
/// returns, in the transposed form
/// [`specslice_fsa::mrd::mrd_of_transposed`] reads, with the same state
/// numbering: 0 is the copy of `p`, then the kept states in ascending
/// order. It lives in `scratch` until the next query.
///
/// # Panics
///
/// When a non-empty `base` was built over a rule index of another shape
/// or in the other direction.
pub fn saturate_a1_with_stats<'s>(
    dir: Direction,
    idx: &RuleIndex,
    base: &SaturationBase,
    query: &PAutomaton,
    p: ControlLoc,
    scratch: &'s mut SaturationScratch,
) -> Result<(&'s TransposedNfa, SaturationStats), PdsError> {
    base.check(idx, dir);
    let stats = saturate_rows(dir, idx, base, query, scratch)?;
    let p = query.control_state(p).0;
    let base = base.view(query.state_count() as u32);
    let SaturationScratch { rel, a1, .. } = scratch;
    Ok((a1.build(base, rel, query.finals(), p), stats))
}

/// Validates `query` and saturates it into `scratch`'s rows: the overlay
/// over `base`.
fn saturate_rows(
    dir: Direction,
    idx: &RuleIndex,
    base: &SaturationBase,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> Result<SaturationStats, PdsError> {
    validate_query(idx, query, dir)?;
    Ok(match dir {
        Direction::Backward => backward_solo(idx, base, query, scratch),
        Direction::Forward => forward_solo(idx, base, query, scratch),
    })
}

/// The saturated automaton: the query's states and finals,
/// `phase1_states` fresh states, then every transition in `out`'s rows in
/// deterministic (state-major, insertion) order. The rows are unique and
/// hold the query's own transitions too, so they are pushed without dedup.
fn materialize(
    query: &PAutomaton,
    phase1_states: usize,
    out: &crate::arena::BumpLists<(u32, u32)>,
) -> PAutomaton {
    let mut aut = PAutomaton::new(query.control_count());
    for _ in query.control_count() as usize..query.state_count() + phase1_states {
        aut.add_state();
    }
    for &f in query.finals() {
        aut.set_final(f);
    }
    for state in 0..out.n_lists() as u32 {
        for (label, to) in out.iter(state) {
            aut.push_unique(PState(state), decode_label(label), PState(to));
        }
    }
    aut
}

/// The `pre*` worklist engine (Esparza et al. 2000) on a validated query,
/// run against `base`: rule matching reads base ∪ overlay, and only
/// transitions the base lacks enter the overlay (`scratch`'s rows) and
/// the worklist. The base is closed under the rules, so only overlay
/// transitions can derive anything new. With the empty base this is the
/// engine over the whole relation, pop-rule seeds included.
pub(crate) fn backward_solo(
    idx: &RuleIndex,
    base: &SaturationBase,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> SaturationStats {
    let n_states = query.state_count() as u32;
    scratch.reset(n_states);
    let SaturationScratch {
        rel,
        worklist,
        pending,
        tmp,
        tmp_pairs,
        ..
    } = scratch;

    // A transition enters the worklist exactly once: when its target first
    // enters its `(state, symbol)` row, unless the base already holds it.
    fn add(
        base: &SaturationBase,
        rel: &mut Relation,
        worklist: &mut Vec<(u32, u32, u32)>,
        from: u32,
        sym: Symbol,
        to: u32,
    ) {
        debug_assert!(sym.0 < u32::MAX, "symbol id overflows the ε encoding");
        let label = sym.0 + 1;
        if !base.contains(from, label, to) && rel.insert(from, label, to) {
            worklist.push((from, label, to));
        }
    }

    // Seeds: the query's transitions, then the pop rules (which fire
    // unconditionally: ⟨p, γ⟩ ↪ ⟨p', ε⟩ gives p –γ→ p'). A pop whose
    // transition the base holds is the base's work, not this run's.
    for (f, l, t) in query.transitions() {
        let sym = l.expect("ε-freedom checked above");
        add(base, rel, worklist, f.0, sym, t.0);
    }
    let mut rule_applications = 0usize;
    for &(p, gamma, p2) in idx.pops() {
        if !base.contains(p.0, gamma.0 + 1, p2.0) {
            rule_applications += 1;
            add(base, rel, worklist, p.0, gamma, p2.0);
        }
    }

    let n_controls = idx.control_count();
    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        let sym = Symbol(label - 1);
        // Rules match transitions out of control states only — states
        // `0..n_controls` coincide with control locations, so one compare
        // skips the rule tables entirely for interior states.
        if f < n_controls {
            // Internal rules ⟨p,γ⟩ ↪ ⟨p',γ'⟩ with (p', γ') = (f, sym):
            for m in idx.internal_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                rule_applications += 1;
                add(base, rel, worklist, m.from_loc.0, m.from_sym, t);
            }
            // Push rules ⟨p,γ⟩ ↪ ⟨p',γ'γ''⟩ with (p', γ') = (f, sym): we
            // have the first hop p' –γ'→ t; need t –γ''→ q2 (now or later).
            for m in idx.push_by_rhs(sym) {
                if m.to_loc.0 != f {
                    continue;
                }
                debug_assert!(m.below.0 < u32::MAX);
                let below = m.below.0 + 1;
                tmp.clear();
                tmp.extend_from_slice(base.targets(t, below));
                tmp.extend_from_slice(rel.rows.targets(t, below));
                for &q2 in tmp.iter() {
                    rule_applications += 1;
                    add(base, rel, worklist, m.from_loc.0, m.from_sym, q2);
                }
                pending.push(t, below, (m.from_loc.0, m.from_sym.0));
            }
        }
        // Complete earlier partial matches waiting on (f, sym): the base's
        // and this run's.
        tmp_pairs.clear();
        tmp_pairs.extend_from_slice(base.waiters(f, label));
        tmp_pairs.extend_from_slice(pending.waiters(f, label));
        for &(p, gamma) in tmp_pairs.iter() {
            rule_applications += 1;
            add(base, rel, worklist, p, Symbol(gamma), t);
        }
    }

    // The structures only grow during saturation, so the peak is the final
    // footprint plus the deepest worklist. The rows hold the query's
    // transitions too; with the base's, they make up the saturated
    // automaton.
    let overlay = rel.out.item_count();
    SaturationStats {
        transitions: base.transition_count() + overlay,
        query_transitions: query.transition_count(),
        phase1_states: 0,
        peak_bytes: overlay * 40
            + rel.rows.len() * 48
            + pending.len() * 48
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    }
}

/// The `post*` worklist engine (Schwoon 2002, Alg. 2) on a validated
/// query, run against `base`.
fn forward_solo(
    idx: &RuleIndex,
    base: &SaturationBase,
    query: &PAutomaton,
    scratch: &mut SaturationScratch,
) -> SaturationStats {
    let seeds = query.transitions().map(|(f, l, t)| {
        let sym = l.expect("ε-freedom checked above");
        debug_assert!(sym.0 < u32::MAX, "symbol id overflows the ε encoding");
        (f.0, sym.0 + 1, t.0)
    });
    let mut stats = forward_engine(idx, base, query.state_count() as u32, seeds, scratch);
    stats.query_transitions = query.transition_count();
    stats
}

/// The `post*` engine over `n_query_states` states (controls first) plus
/// one Phase-I state per push pair, numbered densely after them (the
/// numbering lives in the rule index, so pairs are looked up without
/// hashing), saturating the encoded `seeds`.
///
/// With a forward `base` (see `crate::base`), the run is an overlay: every
/// transition it adds targets one of the query's states. A push's first
/// hop is the base's, so it is not added again, and ε-combination on a
/// Phase-I state reads the base's ε-predecessors. The base's own edges
/// need no other visit: they all target Phase-I states, so nothing the
/// overlay adds can combine with them except through those two reads.
/// With the empty base this is the engine over the whole relation.
pub(crate) fn forward_engine(
    idx: &RuleIndex,
    base: &SaturationBase,
    n_query_states: u32,
    seeds: impl Iterator<Item = (u32, u32, u32)>,
    scratch: &mut SaturationScratch,
) -> SaturationStats {
    let phase1_states = idx.push_pairs().len();
    scratch.reset(n_query_states + phase1_states as u32);
    let SaturationScratch {
        rel,
        worklist,
        eps_into,
        tmp_pairs,
        ..
    } = scratch;
    let first_hops_in_base = !base.is_empty();
    let view = base.view(n_query_states);

    fn add(
        rel: &mut Relation,
        worklist: &mut Vec<(u32, u32, u32)>,
        from: u32,
        label: u32,
        to: u32,
    ) {
        if rel.insert(from, label, to) {
            worklist.push((from, label, to));
        }
    }
    let enc = |sym: Symbol| {
        debug_assert!(sym.0 < u32::MAX, "symbol id overflows the ε encoding");
        sym.0 + 1
    };

    for (f, label, t) in seeds {
        add(rel, worklist, f, label, t);
    }

    let n_controls = idx.control_count();
    let mut rule_applications = 0usize;
    let mut peak_worklist = 0usize;
    while let Some((f, label, t)) = {
        peak_worklist = peak_worklist.max(worklist.len());
        worklist.pop()
    } {
        if label != 0 {
            let sym = Symbol(label - 1);
            // Rules fire on transitions out of control states.
            if f < n_controls {
                for r in idx.rules_for_lhs(sym) {
                    if r.from_loc.0 != f {
                        continue;
                    }
                    rule_applications += 1;
                    match r.rhs {
                        Rhs::Pop => add(rel, worklist, r.to_loc.0, 0, t),
                        Rhs::Internal(g2) => add(rel, worklist, r.to_loc.0, enc(g2), t),
                        Rhs::Push(g1, g2) => {
                            let mid = n_query_states + r.push_pair;
                            if !first_hops_in_base {
                                add(rel, worklist, r.to_loc.0, enc(g1), mid);
                            }
                            add(rel, worklist, mid, enc(g2), t);
                        }
                    }
                }
            }
            // ε-combination: q' –ε→ f plus f –sym→ t gives q' –sym→ t.
            // `add` never touches `eps_into`, so the row is iterated in
            // place (unlike the ε-branch below, which snapshots `out[t]`
            // because `add` appends to `out`).
            for q2 in view.eps_preds(f).chain(eps_into.iter(f)) {
                rule_applications += 1;
                add(rel, worklist, q2, label, t);
            }
        } else {
            // f –ε→ t: combine with all labeled t –sym→ u. An overlay ε
            // targets a query state, which has no base out-edges.
            eps_into.push(t, f);
            tmp_pairs.clear();
            tmp_pairs.extend(rel.out.iter(t).filter(|&(l2, _)| l2 != 0));
            for &(l2, u) in tmp_pairs.iter() {
                rule_applications += 1;
                add(rel, worklist, f, l2, u);
            }
        }
    }

    let overlay = rel.out.item_count();
    SaturationStats {
        transitions: base.transition_count() + overlay,
        query_transitions: 0,
        phase1_states,
        peak_bytes: overlay * 40
            + rel.rows.len() * 48
            + eps_into.live_bytes()
            + peak_worklist * std::mem::size_of::<(u32, u32, u32)>(),
        rule_applications,
        peak_worklist,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Pds;

    fn sym(i: u32) -> Symbol {
        Symbol(i)
    }

    /// One-shot saturation with its statistics: a fresh rule index and
    /// scratch for this single call.
    fn run_with_stats(
        dir: Direction,
        pds: &Pds,
        query: &PAutomaton,
    ) -> Result<(PAutomaton, SaturationStats), PdsError> {
        let idx = RuleIndex::new(pds);
        saturate_indexed_with_stats(dir, &idx, query, &mut SaturationScratch::default())
    }

    /// [`run_with_stats`] without the statistics.
    fn run(dir: Direction, pds: &Pds, query: &PAutomaton) -> Result<PAutomaton, PdsError> {
        run_with_stats(dir, pds, query).map(|(aut, _)| aut)
    }

    /// `pre*` (Defn. 3.6).
    mod backward {
        use super::*;

        const DIR: Direction = Direction::Backward;

        /// A query with an ε-transition must be rejected with a structured
        /// error, not a panic (this used to crash batch worker threads).
        #[test]
        fn epsilon_query_is_a_structured_error() {
            let p = ControlLoc(0);
            let mut pds = Pds::new(1);
            pds.add_pop(p, sym(0), p);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), None, f);
            query.set_final(f);
            let err = run(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
            assert!(err.to_string().contains("ε-free"), "{err}");
        }

        /// A query lacking control states is likewise a structured error.
        #[test]
        fn missing_controls_is_a_structured_error() {
            let pds = Pds::new(3);
            let query = PAutomaton::new(1);
            let err = run_with_stats(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::MissingControls { query: 1, pds: 3 });
        }

        /// pre* on the "unbounded pop" PDS: rules ⟨p,a⟩↪⟨p,ε⟩;
        /// pre*{(p,ε)} = (p, a*).
        #[test]
        fn pop_star() {
            let p = ControlLoc(0);
            let a = sym(0);
            let mut pds = Pds::new(1);
            pds.add_pop(p, a, p);
            let mut query = PAutomaton::new(1);
            query.set_final(query.control_state(p));
            let res = run(DIR, &pds, &query).unwrap();
            for n in 0..5 {
                assert!(res.accepts(p, &vec![a; n]), "a^{n}");
            }
            assert!(!res.accepts(p, &[sym(1)]));
        }

        /// Internal chain: ⟨p,a⟩↪⟨p,b⟩, ⟨p,b⟩↪⟨p,c⟩; pre*{(p,c)} ⊇ (p,a),(p,b).
        #[test]
        fn internal_chain() {
            let p = ControlLoc(0);
            let (a, b, c) = (sym(0), sym(1), sym(2));
            let mut pds = Pds::new(1);
            pds.add_internal(p, a, p, b);
            pds.add_internal(p, b, p, c);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(c), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            assert!(res.accepts(p, &[a]));
            assert!(res.accepts(p, &[b]));
            assert!(res.accepts(p, &[c]));
            assert!(!res.accepts(p, &[a, a]));
        }

        /// Push matching: ⟨p,a⟩↪⟨p, b c⟩ and ⟨p,b⟩↪⟨p,ε⟩.
        /// Then (p, a) ⇒ (p, b c) ⇒ (p, c), so (p,a) ∈ pre*{(p, c)}.
        #[test]
        fn push_then_pop() {
            let p = ControlLoc(0);
            let (a, b, c) = (sym(0), sym(1), sym(2));
            let mut pds = Pds::new(1);
            pds.add_push(p, a, p, b, c);
            pds.add_pop(p, b, p);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(c), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            assert!(res.accepts(p, &[a]));
            assert!(res.accepts(p, &[b, c]));
            assert!(res.accepts(p, &[c]));
            assert!(!res.accepts(p, &[b]));
        }

        /// The recursion-shaped language of §2.3: rules produce contexts
        /// (C C)* at a vertex. PDS: ⟨p,r⟩↪⟨p,r C⟩ models "r depends on r at
        /// call-site C deeper"; slicing from (p, r) with even unwinding.
        #[test]
        fn recursive_context_language() {
            let p = ControlLoc(0);
            let r = sym(0);
            let s = sym(1);
            let c = sym(10);
            let d = sym(11);
            // s at context ε depends on r two frames down: ⟨p,s⟩↪⟨p, r C⟩ then
            // ⟨p,r⟩↪⟨p, s D⟩ — alternating pushes.
            let mut pds = Pds::new(1);
            pds.add_push(p, s, p, r, c);
            pds.add_push(p, r, p, s, d);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(r), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            // (p, r) is the criterion itself.
            assert!(res.accepts(p, &[r]));
            // (p, s) ⇒ (p, r C): reaches criterion configurations only if the
            // stack below matches; (s) alone: (p, s) ⇒ (p, r C) ≠ (p, r)… but
            // pre* is about reaching *some* accepted configuration, and only
            // (p, r) with empty rest is accepted: so (p, s) is NOT in pre*.
            assert!(!res.accepts(p, &[s]));
            // However (p, r) itself and nothing deeper:
            assert!(!res.accepts(p, &[r, c]));
        }

        /// Cross-check against concrete exploration on a small random-ish PDS:
        /// every configuration the symbolic engine claims must concretely reach
        /// an accepted configuration, and vice versa for enumerable ones.
        #[test]
        fn agrees_with_concrete_search() {
            let p = ControlLoc(0);
            let q = ControlLoc(1);
            let (a, b) = (sym(0), sym(1));
            let mut pds = Pds::new(2);
            pds.add_push(p, a, p, b, a);
            pds.add_internal(p, b, q, a);
            pds.add_pop(q, a, p);
            // Criterion: {(q, a)}.
            let mut query = PAutomaton::new(2);
            let f = query.add_state();
            query.add_transition(query.control_state(q), Some(a), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();

            // Concrete bounded search.
            let reaches = |loc: ControlLoc, stack: &[Symbol]| -> bool {
                let mut seen = std::collections::HashSet::new();
                let mut work = vec![(loc, stack.to_vec())];
                while let Some((l, st)) = work.pop() {
                    if l == q && st == vec![a] {
                        return true;
                    }
                    if st.len() > 6 || !seen.insert((l, st.clone())) {
                        continue;
                    }
                    work.extend(pds.step(l, &st));
                }
                false
            };
            for loc in [p, q] {
                for stack in [
                    vec![],
                    vec![a],
                    vec![b],
                    vec![a, a],
                    vec![b, a],
                    vec![a, b],
                    vec![b, b],
                ] {
                    assert_eq!(
                        res.accepts(loc, &stack),
                        reaches(loc, &stack),
                        "mismatch at ({loc:?}, {stack:?})"
                    );
                }
            }
        }

        /// The indexed entry point with a reused scratch answers a sequence of
        /// different queries identically to the one-shot wrapper — the property
        /// the session hot path relies on.
        #[test]
        fn scratch_reuse_is_invisible() {
            let p = ControlLoc(0);
            let (a, b, c) = (sym(0), sym(1), sym(2));
            let mut pds = Pds::new(1);
            pds.add_push(p, a, p, b, c);
            pds.add_pop(p, b, p);
            pds.add_internal(p, c, p, a);
            let idx = RuleIndex::new(&pds);
            let mut scratch = SaturationScratch::default();
            for target in [a, b, c, a, c] {
                let mut query = PAutomaton::new(1);
                let f = query.add_state();
                query.add_transition(query.control_state(p), Some(target), f);
                query.set_final(f);
                let (fresh, fresh_stats) = run_with_stats(DIR, &pds, &query).unwrap();
                let (reused, reused_stats) =
                    saturate_indexed_with_stats(DIR, &idx, &query, &mut scratch).unwrap();
                for word in [
                    vec![],
                    vec![a],
                    vec![b],
                    vec![c],
                    vec![a, c],
                    vec![b, c],
                    vec![c, c],
                ] {
                    assert_eq!(
                        fresh.accepts(p, &word),
                        reused.accepts(p, &word),
                        "target {target:?}, word {word:?}"
                    );
                }
                assert_eq!(fresh_stats.transitions, reused_stats.transitions);
                assert_eq!(
                    fresh_stats.rule_applications,
                    reused_stats.rule_applications
                );
            }
        }
    }

    /// `post*` (Defn. 3.7).
    mod forward {
        use super::*;

        const DIR: Direction = Direction::Forward;

        /// Rules: ⟨p,a⟩↪⟨p, a b⟩. post*{(p, a)} = (p, a b*).
        #[test]
        fn push_star() {
            let p = ControlLoc(0);
            let (a, b) = (sym(0), sym(1));
            let mut pds = Pds::new(1);
            pds.add_push(p, a, p, a, b);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(a), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            assert!(res.accepts(p, &[a]));
            assert!(res.accepts(p, &[a, b]));
            assert!(res.accepts(p, &[a, b, b, b]));
            assert!(!res.accepts(p, &[b]));
            assert!(!res.accepts(p, &[a, a]));
        }

        /// Pop to a different control location: ⟨p,a⟩↪⟨q,ε⟩.
        /// post*{(p, a b)} ∋ (q, b).
        #[test]
        fn pop_moves_control() {
            let p = ControlLoc(0);
            let q = ControlLoc(1);
            let (a, b) = (sym(0), sym(1));
            let mut pds = Pds::new(2);
            pds.add_pop(p, a, q);
            let mut query = PAutomaton::new(2);
            let m1 = query.add_state();
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(a), m1);
            query.add_transition(m1, Some(b), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            assert!(res.accepts(p, &[a, b]));
            assert!(res.accepts(q, &[b]));
            assert!(!res.accepts(q, &[a]));
            assert!(!res.accepts(p, &[b]));
        }

        /// Pop then continue: push and pop interplay.
        /// Rules: ⟨p,a⟩↪⟨p,b c⟩, ⟨p,b⟩↪⟨q,ε⟩, ⟨q,c⟩↪⟨q,d⟩.
        /// (p,a) ⇒ (p,bc) ⇒ (q,c) ⇒ (q,d).
        #[test]
        fn chained_reachability() {
            let p = ControlLoc(0);
            let q = ControlLoc(1);
            let (a, b, c, d) = (sym(0), sym(1), sym(2), sym(3));
            let mut pds = Pds::new(2);
            pds.add_push(p, a, p, b, c);
            pds.add_pop(p, b, q);
            pds.add_internal(q, c, q, d);
            let mut query = PAutomaton::new(2);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(a), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();
            for (loc, stack) in [(p, vec![a]), (p, vec![b, c]), (q, vec![c]), (q, vec![d])] {
                assert!(res.accepts(loc, &stack), "({loc:?}, {stack:?})");
            }
            assert!(!res.accepts(p, &[c]));
            assert!(!res.accepts(q, &[a]));
        }

        /// Cross-check with concrete exploration.
        #[test]
        fn agrees_with_concrete_search() {
            let p = ControlLoc(0);
            let q = ControlLoc(1);
            let (a, b) = (sym(0), sym(1));
            let mut pds = Pds::new(2);
            pds.add_push(p, a, p, b, a);
            pds.add_internal(p, b, q, a);
            pds.add_pop(q, a, p);
            // Start set: {(p, a)}.
            let mut query = PAutomaton::new(2);
            let f = query.add_state();
            query.add_transition(query.control_state(p), Some(a), f);
            query.set_final(f);
            let res = run(DIR, &pds, &query).unwrap();

            // Concrete BFS from (p, [a]) bounded by stack depth.
            let mut reachable = std::collections::HashSet::new();
            let mut work = vec![(p, vec![a])];
            while let Some((l, st)) = work.pop() {
                if st.len() > 5 || !reachable.insert((l, st.clone())) {
                    continue;
                }
                work.extend(pds.step(l, &st));
            }
            for loc in [p, q] {
                for stack in [
                    vec![],
                    vec![a],
                    vec![b],
                    vec![a, a],
                    vec![b, a],
                    vec![a, b],
                    vec![b, a, a],
                ] {
                    let concrete = reachable.contains(&(loc, stack.clone()));
                    assert_eq!(
                        res.accepts(loc, &stack),
                        concrete,
                        "mismatch at ({loc:?}, {stack:?})"
                    );
                }
            }
        }

        /// pre* and post* are adjoint: c' ∈ pre*({c}) iff c ∈ post*({c'}).
        #[test]
        fn backward_forward_duality() {
            let p = ControlLoc(0);
            let (a, b, c) = (sym(0), sym(1), sym(2));
            let mut pds = Pds::new(1);
            pds.add_push(p, a, p, b, c);
            pds.add_pop(p, b, p);
            pds.add_internal(p, c, p, a);

            // c' = (p, [a]); c = (p, [c]).
            let mut from_cp = PAutomaton::new(1);
            let f1 = from_cp.add_state();
            from_cp.add_transition(from_cp.control_state(p), Some(a), f1);
            from_cp.set_final(f1);
            let post = run(DIR, &pds, &from_cp).unwrap();

            let mut from_c = PAutomaton::new(1);
            let f2 = from_c.add_state();
            from_c.add_transition(from_c.control_state(p), Some(c), f2);
            from_c.set_final(f2);
            let pre = run(Direction::Backward, &pds, &from_c).unwrap();

            assert_eq!(post.accepts(p, &[c]), pre.accepts(p, &[a]));
            assert!(post.accepts(p, &[c]));
        }

        /// Malformed queries surface as structured errors, never as panics —
        /// the same contract the backward engine has had since the batch-worker fixes
        /// (mirrors `tests/malformed_criteria.rs` at the PDS layer).
        #[test]
        fn epsilon_query_is_a_structured_error() {
            let p = ControlLoc(0);
            let mut pds = Pds::new(1);
            pds.add_pop(p, sym(0), p);
            let mut query = PAutomaton::new(1);
            let f = query.add_state();
            query.add_transition(query.control_state(p), None, f);
            query.set_final(f);
            let err = run(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
            assert!(err.to_string().contains("ε-free"), "{err}");
        }

        #[test]
        fn missing_controls_is_a_structured_error() {
            let pds = Pds::new(3);
            let query = PAutomaton::new(1);
            let err = run_with_stats(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::MissingControls { query: 1, pds: 3 });
        }

        #[test]
        fn transition_into_control_state_is_a_structured_error() {
            let p = ControlLoc(0);
            let q = ControlLoc(1);
            let mut pds = Pds::new(2);
            pds.add_pop(p, sym(0), q);
            // Two offending transitions: control → control, and interior →
            // control.
            let mut query = PAutomaton::new(2);
            let m = query.add_state();
            query.add_transition(query.control_state(p), Some(sym(0)), query.control_state(q));
            query.add_transition(query.control_state(p), Some(sym(1)), m);
            query.add_transition(m, Some(sym(2)), query.control_state(q));
            query.set_final(m);
            let err = run(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::TransitionIntoControl { count: 2 });
            assert!(err.to_string().contains("control"), "{err}");
        }

        /// Error precedence mirrors the old assertion order (ε before
        /// into-control), so diagnostics stay stable.
        #[test]
        fn epsilon_reported_before_into_control() {
            let p = ControlLoc(0);
            let pds = Pds::new(1);
            let mut query = PAutomaton::new(1);
            query.add_transition(query.control_state(p), None, query.control_state(p));
            let err = run(DIR, &pds, &query).unwrap_err();
            assert_eq!(err, PdsError::EpsilonInQuery { count: 1 });
        }
    }
}
