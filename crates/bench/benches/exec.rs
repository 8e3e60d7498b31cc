//! The execution-backend benchmark: every corpus/grid workload's original
//! program *and* its specialized program, run through both execution
//! backends — the first direct measurement of the paper's headline claim
//! that specialization slices are executable programs that do strictly
//! less work than their originals (§5: the executable `wc` slice runs in
//! 32.5% of the original's time).
//!
//! Run with: `cargo bench -p specslice-bench --bench exec`
//!
//! Per workload: specialize against the *first* `printf` call site (the
//! single-criterion shape is where specialization pays — the all-printfs
//! union keeps everything), run original and specialized programs through
//! the tree-walking interpreter and the bytecode VM, and check on the spot
//! that the two backends agree outcome-for-outcome and that the
//! specialized program's criterion output stream matches the original's.
//!
//! The JSON report (`$BENCH_EXEC_JSON`; the committed snapshot is
//! `BENCH_exec.json` at the repository root) follows the `BENCH_query.json`
//! contract:
//!
//! * **deterministic counters** (`"counters"`): interpreter step counts for
//!   the original and specialized programs (identical across backends by
//!   the parity contract — the VM run *asserts* it), VM instruction counts,
//!   and linked code sizes. Pure functions of the workload, diffed against
//!   the committed snapshot by CI's `bench-gate` job. On the grid
//!   workloads the bench additionally asserts `spec_steps <= orig_steps` —
//!   the ≤-work direction of the paper's claim, gated on every run;
//! * **wall-clock** (`"interp_us"`, `"vm_us"`, medians of the specialized
//!   program on each backend; the VM runs a precompiled module, its
//!   steady-state shape) and the derived `"steps_ratio"`: recorded for the
//!   trajectory, never gated.
//!
//! `BENCH_EXEC_SMOKE=1` runs one wall-clock sample per workload (counters
//! are sample-independent, so they still match the snapshot).

use specslice::exec::{ExecBackend, ExecOutcome, ExecRequest, Interp, Module};
use specslice::{Criterion, Slicer, SlicerConfig};
use specslice_bench::{geometric_mean, timer};
use std::fmt::Write as _;
use std::time::Duration;

fn smoke() -> bool {
    std::env::var("BENCH_EXEC_SMOKE").is_ok()
}

fn samples() -> usize {
    if smoke() {
        1
    } else {
        10
    }
}

fn config() -> SlicerConfig {
    SlicerConfig {
        memoize: false,
        num_threads: 1,
    }
}

/// The deterministic per-workload counters the CI bench-gate compares.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    /// Interpreter statement ticks for the original program (the VM run is
    /// asserted to report the identical count).
    orig_steps: u64,
    /// Statement ticks for the first-printf specialized program.
    spec_steps: u64,
    /// VM instructions dispatched running the original / specialized
    /// program (expression and jump instructions included, so this is the
    /// machine-level work measure the step counter abstracts).
    orig_vm_instructions: u64,
    spec_vm_instructions: u64,
    /// Linked code-segment sizes in instructions.
    orig_code_words: usize,
    spec_code_words: usize,
}

struct WorkloadRow {
    name: String,
    counters: Counters,
    median_interp: Duration,
    median_vm: Duration,
}

/// Corpus programs with their sample inputs, plus the three feature grids
/// (which take no input).
fn workloads() -> Vec<(String, String, Vec<i64>)> {
    let mut out: Vec<(String, String, Vec<i64>)> = specslice_corpus::programs()
        .into_iter()
        .map(|p| {
            (
                p.name.to_string(),
                p.source.to_string(),
                p.sample_input.to_vec(),
            )
        })
        .collect();
    for n in [12, 24, 40] {
        out.push((
            format!("grid{n}"),
            specslice_corpus::feature_grid(n),
            vec![],
        ));
    }
    out
}

/// Runs a request through both backends, asserts byte-identical outcomes,
/// and returns the outcome plus the VM's instruction count.
fn run_both(name: &str, what: &str, module: &Module, req: &ExecRequest<'_>) -> (ExecOutcome, u64) {
    let interp = Interp
        .exec(req)
        .unwrap_or_else(|e| panic!("{name}: {what} failed on interp: {e}"));
    let (vm, stats) = module.exec_with_stats(req.input, req.fuel, req.recursion_limit);
    let vm = vm.unwrap_or_else(|e| panic!("{name}: {what} failed on vm: {e}"));
    assert_eq!(interp, vm, "{name}: backends diverged on {what}");
    (vm, stats.instructions)
}

fn main() {
    let samples = samples();
    let host = specslice_exec::available_parallelism();
    println!(
        "exec-backend bench, original vs first-printf specialization, interp vs vm, \
         {samples} sample(s), host parallelism = {host}"
    );
    println!("{}", timer::header());

    let mut rows: Vec<WorkloadRow> = Vec::new();
    for (name, source, input) in workloads() {
        let slicer = Slicer::from_source_with(&source, config()).expect("workload program");
        let Some(first_printf) = slicer
            .sdg()
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .next()
        else {
            continue;
        };
        let spec = slicer
            .specialize_program(&[first_printf])
            .expect("specialize_program");
        let original = slicer.program().expect("from source");

        let orig_module = Module::compile(original)
            .unwrap_or_else(|e| panic!("{name}: original failed to compile: {e}"));
        let spec_module = Module::compile(&spec.regen.program)
            .unwrap_or_else(|e| panic!("{name}: specialized program failed to compile: {e}"));

        let orig_req = ExecRequest::new(original)
            .with_input(&input)
            .with_fuel(ExecRequest::DEEP_FUEL);
        let spec_req = ExecRequest::new(&spec.regen.program)
            .with_input(&input)
            .with_fuel(ExecRequest::DEEP_FUEL);

        let (orig_out, orig_instr) = run_both(&name, "original", &orig_module, &orig_req);
        let (spec_out, spec_instr) = run_both(&name, "specialized", &spec_module, &spec_req);

        // Semantic guarantee, checked where it is measured: the
        // specialized program reproduces the original's output stream at
        // the criterion printf (regeneration preserves source lines, so
        // the streams align by line).
        let spec_lines: std::collections::BTreeSet<u32> =
            spec_out.output_sites.iter().copied().collect();
        let orig_stream: Vec<i64> = orig_out
            .output
            .iter()
            .zip(&orig_out.output_sites)
            .filter(|&(_, l)| spec_lines.contains(l))
            .map(|(&v, _)| v)
            .collect();
        assert_eq!(
            spec_out.output, orig_stream,
            "{name}: specialized program diverged from the original at the criterion"
        );

        // The ≤-work direction of the paper's claim, gated on the grids
        // (share-nothing features: dropping all but one must drop work).
        if name.starts_with("grid") {
            assert!(
                spec_out.steps <= orig_out.steps,
                "{name}: specialized program did more work ({} > {} steps)",
                spec_out.steps,
                orig_out.steps
            );
        }

        let counters = Counters {
            orig_steps: orig_out.steps,
            spec_steps: spec_out.steps,
            orig_vm_instructions: orig_instr,
            spec_vm_instructions: spec_instr,
            orig_code_words: orig_module.code_words(),
            spec_code_words: spec_module.code_words(),
        };

        // Wall-clock: the specialized program on each backend. The VM side
        // runs the precompiled module — the steady-state shape validation
        // sweeps use; compilation cost is amortized away by design.
        let s_interp = timer::run(&format!("exec/{name}-spec-interp"), samples, || {
            Interp.exec(&spec_req).unwrap()
        });
        println!("{}", s_interp.row());
        let s_vm = timer::run(&format!("exec/{name}-spec-vm"), samples, || {
            spec_module
                .exec(spec_req.input, spec_req.fuel, spec_req.recursion_limit)
                .unwrap()
        });
        println!("{}", s_vm.row());

        rows.push(WorkloadRow {
            name,
            counters,
            median_interp: s_interp.median,
            median_vm: s_vm.median,
        });
    }

    let geomean_ratio = geometric_mean(
        rows.iter()
            .map(|r| r.counters.spec_steps as f64 / r.counters.orig_steps.max(1) as f64),
    );
    println!("geomean specialized/original step ratio: {geomean_ratio:.3}");

    let json = render_json(samples, host, &rows, geomean_ratio);
    println!("\n--- JSON report ---\n{json}");
    if let Ok(path) = std::env::var("BENCH_EXEC_JSON") {
        // Cargo runs bench binaries with cwd = the *package* directory;
        // relative paths are meant against the workspace root (where the
        // committed snapshot lives), so anchor them there.
        let path = {
            let p = std::path::PathBuf::from(&path);
            if p.is_absolute() {
                p
            } else {
                std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../..")
                    .join(p)
            }
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("create snapshot directory");
        }
        std::fs::write(&path, &json).expect("write JSON snapshot");
        eprintln!("wrote {}", path.display());
    }
}

/// Hand-rolled JSON (the workspace is dependency-free — no serde). The
/// `"counters"` objects hold only deterministic execution counts in fixed
/// key order; wall-clock and the derived ratio live outside them so the CI
/// counter diff never sees a machine-dependent byte.
fn render_json(samples: usize, host: usize, rows: &[WorkloadRow], geomean_ratio: f64) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"exec\",");
    let _ = writeln!(
        s,
        "  \"workload\": \"original vs first-printf specialization, interp vs vm\","
    );
    let _ = writeln!(s, "  \"samples\": {samples},");
    let _ = writeln!(s, "  \"host_parallelism\": {host},");
    let _ = writeln!(s, "  \"workloads\": [");
    for (i, r) in rows.iter().enumerate() {
        let c = &r.counters;
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(s, "    {{");
        let _ = writeln!(s, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(s, "      \"counters\": {{");
        let _ = writeln!(s, "        \"orig_steps\": {},", c.orig_steps);
        let _ = writeln!(s, "        \"spec_steps\": {},", c.spec_steps);
        let _ = writeln!(
            s,
            "        \"orig_vm_instructions\": {},",
            c.orig_vm_instructions
        );
        let _ = writeln!(
            s,
            "        \"spec_vm_instructions\": {},",
            c.spec_vm_instructions
        );
        let _ = writeln!(s, "        \"orig_code_words\": {},", c.orig_code_words);
        let _ = writeln!(s, "        \"spec_code_words\": {}", c.spec_code_words);
        let _ = writeln!(s, "      }},");
        let _ = writeln!(
            s,
            "      \"steps_ratio\": {:.4},",
            c.spec_steps as f64 / c.orig_steps.max(1) as f64
        );
        let _ = writeln!(
            s,
            "      \"interp_us\": {:.1},",
            r.median_interp.as_secs_f64() * 1e6
        );
        let _ = writeln!(s, "      \"vm_us\": {:.1}", r.median_vm.as_secs_f64() * 1e6);
        let _ = writeln!(s, "    }}{comma}");
    }
    let _ = writeln!(s, "  ],");
    let _ = writeln!(s, "  \"geomean_steps_ratio\": {geomean_ratio:.4}");
    let _ = writeln!(s, "}}");
    s
}
