//! Differential testing of the two execution backends: the bytecode VM
//! must be observationally identical to the tree-walking interpreter —
//! same output vector, same output sites, same exit code, same step count,
//! same `ExecError` variant — on every program the project can produce.
//!
//! Coverage: all twelve corpus programs and the grid12/24/40 feature
//! grids, as originals, as per-printf specialized programs, and as the
//! whole-criterion-set merged program; a fuel-boundary sweep (the exact
//! step at which `OutOfFuel` fires is part of the contract); targeted
//! error-path programs (recursion limit, division by zero in statement and
//! loop-condition position, null/garbage function pointers, `exit`
//! unwinding, scanf exhaustion, uninitialized reads); and a seeded
//! random-program sweep via `corpus::generate`.

use specslice::exec::{ExecBackend, ExecError, ExecOutcome, ExecRequest, Interp, Vm};
use specslice::{Criterion, Program, Slicer};
use specslice_corpus::{random_program, GenConfig};

/// Runs the request on both backends and asserts full-`Result` equality
/// (outcome fields *and* error variants with payloads).
fn differential(program: &Program, input: &[i64], label: &str) -> Result<ExecOutcome, ExecError> {
    let req = ExecRequest::new(program)
        .with_input(input)
        .with_fuel(ExecRequest::DEEP_FUEL);
    differential_req(&req, label)
}

fn differential_req(req: &ExecRequest<'_>, label: &str) -> Result<ExecOutcome, ExecError> {
    let a = Interp.exec(req);
    let b = Vm.exec(req);
    assert_eq!(a, b, "{label}: backends diverged");
    b
}

/// Every workload program: the original, each per-printf specialization,
/// and the merged whole-criterion-set program, through both backends.
#[test]
fn corpus_and_grids_original_and_specialized() {
    let mut workloads: Vec<(String, String, Vec<i64>)> = specslice_corpus::programs()
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
        workloads.push((
            format!("grid{n}"),
            specslice_corpus::feature_grid(n),
            vec![],
        ));
    }

    for (name, source, input) in workloads {
        let slicer = Slicer::from_source(&source).unwrap();
        let original = slicer.program().unwrap();
        let orig = differential(original, &input, &format!("{name} (original)")).unwrap();

        let criteria: Vec<Criterion> = slicer
            .sdg()
            .printf_call_sites()
            .map(|c| Criterion::AllContexts(c.actual_ins.clone()))
            .collect();
        for (i, criterion) in criteria.iter().enumerate() {
            let slice = slicer.slice(criterion).unwrap();
            let regen = slicer.regenerate(&slice).unwrap();
            let spec = differential(
                &regen.program,
                &input,
                &format!("{name} (specialized #{i})"),
            )
            .unwrap();
            assert!(
                spec.steps <= orig.steps,
                "{name} #{i}: specialization did more work"
            );
        }

        // The merged program (driver main when several criteria demand
        // different main variants; drivers re-run main per criterion, so
        // feed the input once per criterion).
        if !criteria.is_empty() {
            let spec = slicer.specialize_program(&criteria).unwrap();
            let mut driver_input = Vec::new();
            for _ in 0..criteria.len() {
                driver_input.extend_from_slice(&input);
            }
            differential(
                &spec.regen.program,
                &driver_input,
                &format!("{name} (merged)"),
            )
            .unwrap();
        }
    }
}

/// `OutOfFuel` must fire at the same step with the same payload: run to
/// completion to learn the true cost S, then re-run at fuel S (succeeds on
/// the boundary) and S-1 (both fail with `steps: S` — the first uncovered
/// tick).
#[test]
fn fuel_boundary_is_exact() {
    let wc = specslice_corpus::by_name("wc").unwrap();
    let cases: [(&str, String, Vec<i64>); 2] = [
        ("wc", wc.source.to_string(), vec![1, 1, 0, 2, 1]),
        ("grid12", specslice_corpus::feature_grid(12), vec![]),
    ];
    for (name, src, input) in cases {
        let program = specslice_lang::frontend(&src).unwrap();
        let full = differential(&program, &input, name).unwrap();
        let s = full.steps;
        assert!(s > 1, "{name}: trivially short run");

        let exact = ExecRequest::new(&program).with_input(&input).with_fuel(s);
        let at = differential_req(&exact, &format!("{name} (fuel=S)")).unwrap();
        assert_eq!(at.steps, s);

        let starved = ExecRequest::new(&program)
            .with_input(&input)
            .with_fuel(s - 1);
        let err = differential_req(&starved, &format!("{name} (fuel=S-1)")).unwrap_err();
        assert_eq!(err, ExecError::OutOfFuel { steps: s });
    }
}

#[test]
fn recursion_limit_parity() {
    let program = specslice_lang::frontend(
        r#"
        int f(int n) { int r; r = f(n + 1); return r; }
        int main() { int x; x = f(0); printf("%d", x); return 0; }
        "#,
    )
    .unwrap();
    for limit in [0u32, 1, 7, 192] {
        let req = ExecRequest::new(&program).with_recursion_limit(limit);
        let err = differential_req(&req, &format!("recursion limit {limit}")).unwrap_err();
        assert_eq!(err, ExecError::RecursionLimit);
    }
    // A program that recurses to depth d succeeds at limit d, fails at d-1.
    let bounded = specslice_lang::frontend(
        r#"
        int f(int n) { int r; if (n <= 0) { return 0; } r = f(n - 1); return r + 1; }
        int main() { int x; x = f(5); printf("%d", x); return 0; }
        "#,
    )
    .unwrap();
    // f(5) nests 6 calls below main: depth 6.
    let ok = differential_req(
        &ExecRequest::new(&bounded).with_recursion_limit(6),
        "depth 6 at limit 6",
    )
    .unwrap();
    assert_eq!(ok.output, vec![5]);
    let err = differential_req(
        &ExecRequest::new(&bounded).with_recursion_limit(5),
        "depth 6 at limit 5",
    )
    .unwrap_err();
    assert_eq!(err, ExecError::RecursionLimit);
}

/// Division by zero reports the enclosing statement's line — including the
/// `while` condition case, where the walker charges the `while`'s own line.
#[test]
fn division_by_zero_line_parity() {
    let cases = [
        (
            "int main() {\nint d;\nd = 0;\nint x;\nx = 1 / d;\nreturn x; }",
            5u32,
        ),
        (
            "int main() {\nint d;\nd = 0;\nwhile (10 / d) { d = 1; }\nreturn 0; }",
            4,
        ),
        (
            "int main() {\nint d;\nd = 0;\nif (10 % d) { d = 1; }\nreturn 0; }",
            4,
        ),
    ];
    for (src, line) in cases {
        let program = specslice_lang::frontend(src).unwrap();
        let err = differential(&program, &[], src).unwrap_err();
        assert_eq!(err, ExecError::DivisionByZero { line }, "{src}");
    }
}

#[test]
fn bad_function_pointer_parity() {
    // The only bad pointer a *checked* program can produce is null (an
    // uninitialized function pointer reads 0); both backends must report
    // the call statement's line.
    let src = "int f(int a) { return a; }\nint main() { int (*p)(int); int r;\nr = p(1);\nprintf(\"%d\", r); return 0; }";
    let program = specslice_lang::frontend(src).unwrap();
    let err = differential(&program, &[], "null fnptr").unwrap_err();
    assert_eq!(err, ExecError::BadFunctionPointer { line: 3 });
}

/// Exit paths: `exit(n)` from nested calls halts both backends with the
/// same code, output, and step count; `main`'s return value is the exit
/// code; fall-through is 0.
#[test]
fn exit_path_parity() {
    let cases = [
        (
            "exit unwinds",
            r#"
            int g;
            void die(int c) { g = c; exit(g + 1); }
            void mid(int c) { die(c); printf("%d", 111); }
            int main() { mid(41); printf("%d", 222); return 9; }
            "#,
            42i64,
        ),
        (
            "main return",
            r#"int main() { printf("%d", 1); return 7; }"#,
            7,
        ),
        ("fall-through", r#"int main() { printf("%d", 1); }"#, 0),
        (
            "exit in main",
            r#"int main() { exit(3); printf("%d", 1); return 0; }"#,
            3,
        ),
    ];
    for (label, src, code) in cases {
        let program = specslice_lang::frontend(src).unwrap();
        let out = differential(&program, &[], label).unwrap();
        assert_eq!(out.exit_code, code, "{label}");
    }
}

/// Exhausted scanf reads 0 without counting; uninitialized variables read
/// 0; bare declarations re-zero in loops. All observable, all identical.
#[test]
fn input_and_zero_semantics_parity() {
    let program = specslice_lang::frontend(
        r#"
        int main() {
            int a; int b; int n; int i;
            n = scanf("%d %d", &a, &b);
            printf("%d %d %d", n, a, b);
            i = 0;
            while (i < 2) {
                int fresh;
                printf("%d", fresh);
                fresh = 77;
                i = i + 1;
            }
            n = scanf("%d", &a);
            printf("%d %d", n, a);
            return 0;
        }
        "#,
    )
    .unwrap();
    let out = differential(&program, &[9], "zero semantics").unwrap();
    assert_eq!(out.output, vec![1, 9, 0, 0, 0, 0, 0]);
    assert_eq!(out.inputs_consumed, 1);
}

/// Seeded random-program sweep: full-`Result` agreement (success fields or
/// error variants) on generated programs, original and specialized, over
/// several input streams.
#[test]
fn random_program_sweep() {
    let cfg = || GenConfig {
        n_globals: 3,
        n_funcs: 4,
        max_stmts: 6,
        recursion: true,
    };
    for i in 0..60u64 {
        let seed = (i * 131 + 7) % 10_000;
        let src = random_program(seed, cfg());
        let program = specslice_lang::frontend(&src)
            .unwrap_or_else(|e| panic!("seed {seed}: generator emitted invalid program: {e}"));
        let x = (seed % 100) as i64;
        for input in [vec![], vec![x], vec![x, -x, x + 1]] {
            // Small fuel on purpose: some generated programs loop, and the
            // OutOfFuel boundary is part of the differential contract.
            let req = ExecRequest::new(&program)
                .with_input(&input)
                .with_fuel(200_000);
            let _ = differential_req(&req, &format!("seed {seed}, input {input:?}\n{src}"));
        }
        // And the all-printfs specialization, when the program prints.
        let slicer = Slicer::from_source(&src).unwrap();
        if slicer.sdg().printf_call_sites().next().is_none() {
            continue;
        }
        let slice = slicer
            .slice(&Criterion::printf_actuals(slicer.sdg()))
            .unwrap();
        let regen = slicer.regenerate(&slice).unwrap();
        let spec_input = [x];
        let req = ExecRequest::new(&regen.program)
            .with_input(&spec_input)
            .with_fuel(200_000);
        let _ = differential_req(&req, &format!("seed {seed} (specialized)\n{src}"));
    }
}

/// The crate-level backend registry answers by kind, each backend under
/// its kind's name, and `exec::run` is the reference interpreter.
#[test]
fn backend_registry_round_trip() {
    use specslice::exec::{backend, BackendKind};
    for kind in [BackendKind::Interp, BackendKind::Vm] {
        let b = backend(kind);
        assert_eq!(b.name(), kind.name());
        assert_eq!(kind.to_string(), kind.name());
    }
    let program = specslice_lang::frontend(r#"int main() { printf("%d", 5); return 0; }"#).unwrap();
    let req = ExecRequest::new(&program);
    let interp = backend(BackendKind::Interp).exec(&req);
    assert_eq!(interp, backend(BackendKind::Vm).exec(&req));
    assert_eq!(interp, specslice::exec::run(&req));
}
