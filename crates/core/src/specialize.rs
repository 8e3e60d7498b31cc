//! Whole-program specialization: one merged output for many criteria
//! (Alg. 1 step 5 / §5, lifted from one criterion to a criterion *set*).
//!
//! The paper's end product is not a slice but a *specialized program*.
//! [`Slicer::specialize_program`] finishes the pipeline for a whole
//! criterion set at once:
//!
//! 1. every criterion is sliced through the session's batch path (fanned
//!    over the worker pool; per-criterion results are byte-identical to
//!    solo [`Slicer::slice`] calls at every thread count);
//! 2. variants are unioned across criteria and deduplicated *by interning*:
//!    two variants merge exactly when their interned content
//!    ([`VariantId`]) agrees and their call sites resolve (recursively) to
//!    merging callees — a partition refinement over the slices' MRD-chosen
//!    call targets, so the merged program keeps each procedure as the
//!    minimal set of variants all criteria demand together;
//! 3. the merged variant set is emitted as one executable program — each
//!    deduplicated variant pretty-printed once — with provenance maps
//!    (criterion → merged functions, merged function → origin procedure and
//!    demanding criteria). When the criteria disagree about `main`, the
//!    per-criterion `main` variants become `main__k` functions and a
//!    synthesized `main` drives them in criterion order.

use crate::readout::SpecSlice;
use crate::regen::{self, EmitFn, EmitMain, RegenOutput};
use crate::slicer::{Distinct, Slicer};
use crate::store::VariantId;
use crate::{Criterion, SpecError};
use specslice_fsa::FxHashMap;
use specslice_pds::Direction;
use specslice_sdg::ProcId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// One function of a [`SpecializedProgram`]: a deduplicated variant shared
/// by every criterion that demands it.
#[derive(Clone, Debug)]
pub struct MergedFunction {
    /// The emitted function's name in the merged program.
    pub name: String,
    /// The interned content id (in the session's
    /// [`crate::VariantStore`]) of the variant this function realizes.
    pub variant: VariantId,
    /// The original procedure it specializes.
    pub proc: ProcId,
    /// The original procedure's name.
    pub origin: String,
    /// Indices (into the input criterion list) of the criteria whose slices
    /// demand this variant, ascending.
    pub demanded_by: Vec<usize>,
}

/// The merged, executable output of [`Slicer::specialize_program`].
#[derive(Clone, Debug)]
pub struct SpecializedProgram {
    /// The merged program: normalized, semantically checked, runnable.
    pub regen: RegenOutput,
    /// The merged functions (the deduplicated variant set), in emission
    /// order. The synthesized driver `main` (when present) is *not* listed
    /// here — it realizes no variant.
    pub functions: Vec<MergedFunction>,
    /// Criterion index → indices into [`SpecializedProgram::functions`] of
    /// the merged functions realizing that criterion's slice, ascending.
    pub per_criterion: Vec<Vec<usize>>,
    /// The per-criterion slices the merge was built from, in input order —
    /// each byte-identical to a solo [`Slicer::slice`] call, so projections
    /// can be regenerated and checked independently.
    pub criterion_slices: Vec<SpecSlice>,
    /// Total variants across the per-criterion slices (before dedup).
    pub total_criterion_variants: usize,
    /// Variants saved by cross-criterion dedup:
    /// `total_criterion_variants − functions.len()`.
    pub reused_variants: usize,
    /// `true` when the criteria demanded different `main` variants and a
    /// driver `main` was synthesized.
    pub driver_main: bool,
}

impl SpecializedProgram {
    /// The merged program's source text.
    pub fn source(&self) -> &str {
        &self.regen.source
    }

    /// Number of merged (deduplicated) variants emitted.
    pub fn merged_variant_count(&self) -> usize {
        self.functions.len()
    }

    /// Runs the merged program on `input` through the reference interpreter
    /// ([`crate::exec::run`]) with the default budgets — the one-call way to validate that a
    /// specialization agrees with its original on the criterion.
    ///
    /// For custom budgets or an explicit backend, build a
    /// [`crate::exec::ExecRequest`] over [`Self::source`]'s program
    /// (`self.regen.program`) directly.
    ///
    /// # Errors
    ///
    /// See [`crate::exec::ExecBackend::exec`].
    pub fn run(&self, input: &[i64]) -> Result<crate::exec::ExecOutcome, crate::exec::ExecError> {
        crate::exec::run(&crate::exec::ExecRequest::new(&self.regen.program).with_input(input))
    }
}

impl Slicer {
    /// Specializes this session's program with respect to a whole criterion
    /// set, producing one merged executable program in which each procedure
    /// appears as exactly the set of variants the criteria demand together
    /// (deduplicated across criteria by content interning).
    ///
    /// Per-criterion slices are answered through the session's batch path
    /// (memo, worker pool, input-order adoption), so each one — and the
    /// merged output — is byte-identical at every
    /// [`crate::SlicerConfig::num_threads`] setting.
    ///
    /// ```
    /// use specslice::{Criterion, Slicer};
    ///
    /// let slicer = Slicer::from_source(
    ///     r#"
    ///     int g1, g2;
    ///     void p(int a, int b) { g1 = a; g2 = b; }
    ///     int main() { p(1, 2); printf("%d", g1); printf("%d", g2); }
    ///     "#,
    /// )?;
    /// // One criterion per printf: each demands its own projection of p.
    /// let criteria: Vec<Criterion> = slicer
    ///     .sdg()
    ///     .printf_call_sites()
    ///     .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
    ///     .collect();
    /// let spec = slicer.specialize_program(&criteria)?;
    /// assert!(spec.merged_variant_count() <= spec.total_criterion_variants);
    /// assert!(spec.source().contains("int main"));
    /// # Ok::<(), specslice::SpecError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SpecError::BadCriterion`] when the criterion list is empty (a
    /// silent empty program would hide the caller's mistake) or contains
    /// duplicate criteria (detected canonically — order and repetition
    /// inside one criterion do not matter; raw-automaton criteria have no
    /// cheap canonical form and are exempt from the duplicate check), and
    /// for any malformed member criterion (annotated with its index).
    /// [`SpecError::Internal`] for sessions built with
    /// [`Slicer::from_sdg`], which carry no program to regenerate.
    pub fn specialize_program(
        &self,
        criteria: &[Criterion],
    ) -> Result<SpecializedProgram, SpecError> {
        self.specialize_program_directed(Direction::Backward, criteria)
    }

    /// [`specialize_program`](Slicer::specialize_program) generic over the
    /// query [`Direction`]: with [`Direction::Forward`] the merge consumes
    /// **forward** slices — each criterion's `post*` projection — instead
    /// of backward specialization slices. The union/dedup machinery is
    /// direction-agnostic (it operates on interned variant content and
    /// MRD-chosen call targets), so forward variants merge across criteria
    /// under exactly the same partition refinement. Forward slices carry a
    /// weaker parameter-completeness guarantee than backward ones (see
    /// [`crate::QueryKind::Forward`]); the merged program is still emitted
    /// and re-checked semantically, and an emission failure surfaces as a
    /// structured error rather than an invalid program.
    pub fn specialize_program_directed(
        &self,
        dir: Direction,
        criteria: &[Criterion],
    ) -> Result<SpecializedProgram, SpecError> {
        let program = self.program.as_ref().ok_or_else(|| {
            SpecError::internal(
                "specialize",
                "session was built from an SDG only; use Slicer::from_source / \
                 from_program to enable whole-program specialization",
            )
        })?;
        if criteria.is_empty() {
            return Err(SpecError::bad_criterion(
                "specialize_program requires at least one criterion \
                 (an empty criterion list would silently produce an empty program)",
            ));
        }
        if let Some((i, j)) = Distinct::of(dir, criteria).first_duplicate() {
            return Err(SpecError::bad_criterion(format!(
                "duplicate criteria: #{i} repeats #{j} \
                 (each criterion contributes once to the merged program)"
            )));
        }

        let slices = self.directed_batch(dir, criteria)?.slices;

        // ---- Union + dedup-by-interning (partition refinement). ----
        //
        // Nodes are (slice, variant) pairs. The initial partition groups
        // nodes by interned content id; each round refines by the partition
        // classes of the MRD-chosen callees. Classes only ever split, so
        // the loop terminates; the fixpoint merges two variants exactly
        // when their whole call trees agree by content (recursion included
        // — a variant calling itself merges with a content-equal variant
        // calling *its* self).
        let mut node_at: Vec<(usize, usize)> = Vec::new(); // node → (slice, variant)
        let mut node_of: Vec<Vec<usize>> = Vec::with_capacity(slices.len());
        for (s, slice) in slices.iter().enumerate() {
            let base = node_at.len();
            node_of.push((0..slice.variant_count()).map(|v| base + v).collect());
            node_at.extend((0..slice.variant_count()).map(|v| (s, v)));
        }
        let n = node_at.len();
        let cid: Vec<u32> = node_at
            .iter()
            .map(|&(s, v)| slices[s].variant_ids()[v].0)
            .collect();

        // Initial classes: first-encounter numbering of content ids.
        let mut class_of: Vec<u32> = Vec::with_capacity(n);
        {
            let mut first: FxHashMap<u32, u32> = FxHashMap::default();
            let mut next = 0u32;
            for &c in &cid {
                let id = *first.entry(c).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                });
                class_of.push(id);
            }
        }
        loop {
            let mut sig_of: HashMap<(u32, Vec<(u32, u32)>), u32> = HashMap::new();
            let mut next: Vec<u32> = Vec::with_capacity(n);
            for (node, &(s, v)) in node_at.iter().enumerate() {
                let calls: Vec<(u32, u32)> = slices[s]
                    .meta(v)
                    .calls
                    .iter()
                    .map(|(&site, &cv)| (site.0, class_of[node_of[s][cv]]))
                    .collect();
                let fresh = sig_of.len() as u32;
                let id = *sig_of.entry((cid[node], calls)).or_insert(fresh);
                next.push(id);
            }
            let stable = next == class_of;
            class_of = next;
            if stable {
                break;
            }
        }

        // ---- Classes → merged functions, in deterministic order. ----
        let n_classes = class_of.iter().copied().max().map_or(0, |m| m as usize + 1);
        // First-encounter numbering means class k's representative is the
        // first node carrying k.
        let mut rep: Vec<usize> = vec![usize::MAX; n_classes];
        for (node, &c) in class_of.iter().enumerate() {
            if rep[c as usize] == usize::MAX {
                rep[c as usize] = node;
            }
        }
        let class_proc =
            |c: usize| -> ProcId { slices[node_at[rep[c]].0].meta(node_at[rep[c]].1).proc };
        // Emission order: group by original procedure, then by first demand.
        let mut class_order: Vec<usize> = (0..n_classes).collect();
        class_order.sort_by_key(|&c| (class_proc(c).0, rep[c]));
        let mut merged_idx: Vec<usize> = vec![0; n_classes];
        for (m, &c) in class_order.iter().enumerate() {
            merged_idx[c] = m;
        }

        // Demanding criteria per class.
        let mut demanded: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n_classes];
        for (node, &c) in class_of.iter().enumerate() {
            demanded[c as usize].insert(node_at[node].0);
        }

        // ---- Naming (same rules as single-slice regeneration). ----
        let addr_taken = regen::address_taken(program);
        let mut per_proc_count: BTreeMap<ProcId, usize> = BTreeMap::new();
        for &c in &class_order {
            *per_proc_count.entry(class_proc(c)).or_insert(0) += 1;
        }
        let main_classes: Vec<usize> = class_order
            .iter()
            .copied()
            .filter(|&c| class_proc(c) == self.sdg.main)
            .collect();
        let driver = main_classes.len() > 1;
        let mut per_proc_seen: BTreeMap<ProcId, usize> = BTreeMap::new();
        let mut functions: Vec<MergedFunction> = Vec::with_capacity(n_classes);
        let mut fns: Vec<EmitFn> = Vec::with_capacity(n_classes);
        for &c in &class_order {
            let proc = class_proc(c);
            let base = &self.sdg.proc(proc).name;
            let k = per_proc_seen.entry(proc).or_insert(0);
            *k += 1;
            let suffix_main = proc == self.sdg.main && driver;
            let name = crate::readout::variant_name(
                base,
                per_proc_count[&proc],
                *k,
                addr_taken.contains(base) || suffix_main,
            );
            let (s, v) = node_at[rep[c]];
            let calls = slices[s]
                .meta(v)
                .calls
                .iter()
                .map(|(&site, &cv)| (site, merged_idx[class_of[node_of[s][cv]] as usize]))
                .collect();
            let id = slices[s].variant_ids()[v];
            functions.push(MergedFunction {
                name: name.clone(),
                variant: id,
                proc,
                origin: base.clone(),
                demanded_by: demanded[c].iter().copied().collect(),
            });
            fns.push(EmitFn {
                name,
                proc,
                row: self.store.row_dense(id),
                calls,
            });
        }

        let main = if main_classes.is_empty() {
            EmitMain::Empty
        } else if driver {
            EmitMain::Driver(main_classes.iter().map(|&c| merged_idx[c]).collect())
        } else {
            EmitMain::Single(merged_idx[main_classes[0]])
        };
        let regen = regen::emit_program(&self.sdg, program, &fns, &main)?;

        let per_criterion: Vec<Vec<usize>> = (0..slices.len())
            .map(|s| {
                let set: BTreeSet<usize> = node_of[s]
                    .iter()
                    .map(|&node| merged_idx[class_of[node] as usize])
                    .collect();
                set.into_iter().collect()
            })
            .collect();

        let total_criterion_variants: usize = slices.iter().map(|s| s.variant_count()).sum();
        Ok(SpecializedProgram {
            regen,
            functions,
            per_criterion,
            criterion_slices: slices,
            total_criterion_variants,
            reused_variants: total_criterion_variants - n_classes,
            driver_main: driver,
        })
    }
}
