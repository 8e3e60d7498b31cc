//! Bytecode compiler + fuel-bounded virtual machine for MiniC — the second
//! [`ExecBackend`] behind the unified execution API.
//!
//! The tree-walking `specslice-interp` is the semantic reference; this
//! crate compiles a checked [`Program`] (including programs regenerated by
//! `specialize_program`) to a compact stack bytecode ([`isa`]), links the
//! per-function code into one segment (`linker`), and runs it on a flat
//! dispatch loop (`machine`). The contract — enforced across the corpus,
//! the feature grids, specialized programs, and a seeded random sweep by
//! `tests/vm_differential.rs` — is *observational equality*: same output
//! vector, same output sites, same exit code, same step count, same
//! `ExecError` variant, for every request.
//!
//! Because compilation resolves all names to slot indices once, repeated
//! runs of the same program (validation sweeps, benches) skip the walker's
//! per-step hash lookups: compile once with [`Module::compile`], execute
//! many times with [`Module::exec`].
//!
//! Backend selection lives here (the crate that can name both backends):
//! [`backend`] maps a [`BackendKind`] to a static instance.
//!
//! ```
//! use specslice_interp::ExecRequest;
//!
//! let program = specslice_lang::frontend(
//!     "int main() { int x; scanf(\"%d\", &x); printf(\"%d\", x * 2); return 0; }",
//! )?;
//! let module = specslice_vm::Module::compile(&program)?;
//! let out = module.exec(&[21], ExecRequest::DEFAULT_FUEL, 192)?;
//! assert_eq!(out.output, vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod encoder;
pub mod isa;
mod linker;
mod machine;

pub use machine::VmStats;

use isa::{CallSite, Op, Proc, ScanfSite};
use specslice_interp::{BackendKind, ExecBackend, ExecError, ExecOutcome, ExecRequest, Interp};
use specslice_lang::ast::Program;

/// A compiled, linked, directly executable program image.
#[derive(Clone, Debug)]
pub struct Module {
    pub(crate) code: Vec<Op>,
    pub(crate) lines: Vec<u32>,
    pub(crate) pool: Vec<i64>,
    pub(crate) procs: Vec<Proc>,
    pub(crate) call_sites: Vec<CallSite>,
    pub(crate) scanf_sites: Vec<ScanfSite>,
    pub(crate) n_globals: u32,
    pub(crate) main: u32,
}

impl Module {
    /// Compiles and links a checked program.
    ///
    /// # Errors
    ///
    /// [`ExecError::Internal`] on ASTs that violate the checker's
    /// guarantees (no `main`, unknown callees, calls in expressions) —
    /// `specslice_lang::frontend` output cannot trigger these.
    pub fn compile(program: &Program) -> Result<Module, ExecError> {
        let c = encoder::Encoder::compile(program)?;
        let (code, lines, procs) = linker::link(c.funcs);
        Ok(Module {
            code,
            lines,
            pool: c.pool,
            procs,
            call_sites: c.call_sites,
            scanf_sites: c.scanf_sites,
            n_globals: c.n_globals,
            main: c.main,
        })
    }

    /// Runs the module.
    ///
    /// # Errors
    ///
    /// The same [`ExecError`] variants, on the same programs and inputs,
    /// as the tree-walking interpreter.
    pub fn exec(
        &self,
        input: &[i64],
        fuel: u64,
        recursion_limit: u32,
    ) -> Result<ExecOutcome, ExecError> {
        let mut stats = VmStats::default();
        machine::run(self, input, fuel, recursion_limit, &mut stats)
    }

    /// Runs the module and reports deterministic machine counters
    /// alongside the outcome (the bench snapshots these).
    pub fn exec_with_stats(
        &self,
        input: &[i64],
        fuel: u64,
        recursion_limit: u32,
    ) -> (Result<ExecOutcome, ExecError>, VmStats) {
        let mut stats = VmStats::default();
        let r = machine::run(self, input, fuel, recursion_limit, &mut stats);
        (r, stats)
    }

    /// Size of the linked code segment in instructions ("code words":
    /// every instruction is one fixed-width word).
    pub fn code_words(&self) -> usize {
        self.code.len()
    }
}

/// The bytecode VM backend: compiles the request's program, then runs it.
///
/// For run-many workloads prefer compiling once via [`Module::compile`];
/// this impl recompiles per request because the [`ExecBackend`] contract is
/// stateless.
pub struct Vm;

impl ExecBackend for Vm {
    fn name(&self) -> &'static str {
        "vm"
    }

    fn exec(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        Module::compile(req.program)?.exec(req.input, req.fuel, req.recursion_limit)
    }
}

/// The static backend instance for `kind`.
pub fn backend(kind: BackendKind) -> &'static dyn ExecBackend {
    match kind {
        BackendKind::Interp => &Interp,
        BackendKind::Vm => &Vm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specslice_lang::frontend;

    fn both(src: &str, input: &[i64]) -> ExecOutcome {
        let p = frontend(src).unwrap();
        let req = ExecRequest::new(&p).with_input(input);
        let i = Interp.exec(&req).unwrap();
        let v = Vm.exec(&req).unwrap();
        assert_eq!(i, v, "backend divergence on:\n{src}");
        v
    }

    #[test]
    fn arithmetic_and_locals() {
        let r = both(
            r#"int main() { int x; x = 6; printf("%d %d", x * 7, -x); return 0; }"#,
            &[],
        );
        assert_eq!(r.output, vec![42, -6]);
    }

    #[test]
    fn while_step_parity() {
        // while ticks once at entry plus once per condition evaluation;
        // the step counter is part of the backend contract.
        let r = both(
            r#"
            int main() {
                int i;
                i = 0;
                while (i < 3) { i = i + 1; }
                printf("%d", i);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![3]);
    }

    #[test]
    fn bare_decl_rezeroes_without_ticking() {
        let r = both(
            r#"
            int main() {
                int i;
                i = 0;
                while (i < 3) {
                    int x;
                    printf("%d", x);
                    x = 9;
                    i = i + 1;
                }
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![0, 0, 0]); // re-zeroed each iteration
    }

    #[test]
    fn ref_params_copy_back() {
        let r = both(
            r#"
            int swapped;
            void swap(int& a, int& b) { int t; t = a; a = b; b = t; swapped = 1; }
            int main() {
                int x; int y;
                x = 1; y = 2;
                swap(x, y);
                printf("%d %d %d", x, y, swapped);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![2, 1, 1]);
    }

    #[test]
    fn indirect_calls_and_null_pointer() {
        let r = both(
            r#"
            int twice(int a) { return a * 2; }
            int main() {
                int (*p)(int);
                int r;
                p = twice;
                r = p(21);
                printf("%d", r);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![42]);
        // Null / bad pointers: same variant, same line, both backends.
        let p = frontend(
            "int f(int a) { return a; }\nint main() { int (*q)(int); int r;\nr = q(1); return r; }",
        )
        .unwrap();
        let req = ExecRequest::new(&p);
        let i = Interp.exec(&req);
        let v = Vm.exec(&req);
        assert_eq!(i, v);
        assert!(matches!(v, Err(ExecError::BadFunctionPointer { .. })));
    }

    #[test]
    fn fuel_and_recursion_errors_match() {
        let p = frontend("int main() { while (1) { } return 0; }").unwrap();
        let req = ExecRequest::new(&p).with_fuel(100);
        assert_eq!(Vm.exec(&req), Err(ExecError::OutOfFuel { steps: 101 }));
        assert_eq!(Interp.exec(&req), Vm.exec(&req));

        let p = frontend(
            "int f(int n) { int r; r = f(n); return r; }\nint main() { int x; x = f(0); return x; }",
        )
        .unwrap();
        let req = ExecRequest::new(&p).with_recursion_limit(16);
        assert_eq!(Vm.exec(&req), Err(ExecError::RecursionLimit));
        assert_eq!(Interp.exec(&req), Vm.exec(&req));
    }

    #[test]
    fn scanf_eof_and_read_counts() {
        let r = both(
            r#"
            int main() {
                int a; int b; int n;
                n = scanf("%d %d", &a, &b);
                printf("%d %d %d", n, a, b);
                n = scanf("%d", &a);
                printf("%d %d", n, a);
                return 0;
            }
            "#,
            &[5],
        );
        assert_eq!(r.output, vec![1, 5, 0, 0, 0]);
        assert_eq!(r.inputs_consumed, 1);
    }

    #[test]
    fn exit_from_nested_call() {
        let r = both(
            r#"
            void inner(int c) { exit(c + 1); }
            void outer(int c) { inner(c); printf("%d", 99); }
            int main() { outer(41); printf("%d", 100); return 0; }
            "#,
            &[],
        );
        assert_eq!(r.exit_code, 42);
        assert!(r.output.is_empty());
    }

    #[test]
    fn division_by_zero_line_in_while_cond() {
        let p = frontend("int main() {\nint d;\nd = 0;\nwhile (1 / d) { d = 1; }\nreturn 0; }")
            .unwrap();
        let req = ExecRequest::new(&p);
        let i = Interp.exec(&req);
        let v = Vm.exec(&req);
        assert_eq!(i, v);
        assert_eq!(v, Err(ExecError::DivisionByZero { line: 4 }));
    }

    #[test]
    fn stats_are_deterministic() {
        let p = frontend(
            r#"
            int main() {
                int i; int s;
                i = 0; s = 0;
                while (i < 10) { s = s + i; i = i + 1; }
                printf("%d", s);
                return 0;
            }
            "#,
        )
        .unwrap();
        let m = Module::compile(&p).unwrap();
        let (r1, s1) = m.exec_with_stats(&[], 100_000, 192);
        let (r2, s2) = m.exec_with_stats(&[], 100_000, 192);
        assert_eq!(r1.unwrap().output, vec![45]);
        assert_eq!(r2.unwrap().output, vec![45]);
        assert_eq!(s1, s2);
        assert!(s1.instructions as usize >= m.code_words() / 2);
    }

    #[test]
    fn backend_selection() {
        assert_eq!(backend(BackendKind::Interp).name(), "interp");
        assert_eq!(backend(BackendKind::Vm).name(), "vm");
        let p = frontend(r#"int main() { printf("%d", 7); return 0; }"#).unwrap();
        for kind in [BackendKind::Interp, BackendKind::Vm] {
            let out = backend(kind).exec(&ExecRequest::new(&p)).unwrap();
            assert_eq!(out.output, vec![7]);
        }
    }
}
