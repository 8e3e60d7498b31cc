//! The unified execution API: [`ExecRequest`] in, [`ExecOutcome`] out,
//! behind the [`ExecBackend`] trait.
//!
//! Historically the only way to run a MiniC program was a bare
//! `run(&program, &input, fuel)` entry point, called directly from
//! validation, tests, and benches (removed after a deprecation release).
//! This module replaced that signature with a request/outcome pair so
//! callers *select a backend*
//! (the tree-walking interpreter, or the `specslice-vm` bytecode machine)
//! instead of hard-coding one — the contract is that every backend produces
//! the **same** [`ExecOutcome`] (output vector, step accounting, exit path)
//! and the **same** [`ExecError`] variants for the same request.
//! `specslice-vm`'s `backend()` maps a [`BackendKind`] to either one.

use crate::{ExecError, ExecOutcome};
use specslice_lang::ast::Program;
use std::fmt;

/// A single program execution: what to run, on which input stream, and
/// under which resource bounds.
///
/// The defaults ([`ExecRequest::DEFAULT_FUEL`],
/// [`ExecRequest::DEFAULT_RECURSION_LIMIT`]) are the named versions of the
/// magic numbers that used to be scattered across tests and benches; use
/// [`ExecRequest::DEEP_FUEL`] for long-running bench workloads.
///
/// ```
/// let program = specslice_lang::frontend(
///     "int main() { int x; scanf(\"%d\", &x); printf(\"%d\", x + 1); return 0; }",
/// )?;
/// let req = specslice_interp::ExecRequest::new(&program).with_input(&[41]);
/// let out = specslice_interp::exec(&req)?;
/// assert_eq!(out.output, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExecRequest<'a> {
    /// The (checked, normalized) program to run.
    pub program: &'a Program,
    /// The input stream `scanf` reads from; exhausted reads yield 0.
    pub input: &'a [i64],
    /// Statement budget: execution fails with [`ExecError::OutOfFuel`]
    /// once more than `fuel` statements have been executed.
    pub fuel: u64,
    /// Call-depth budget: a call that would exceed this depth fails with
    /// [`ExecError::RecursionLimit`] (`main` runs at depth 0).
    pub recursion_limit: u32,
}

impl<'a> ExecRequest<'a> {
    /// The default statement budget: ample for every corpus program and
    /// grid workload, small enough that an accidental infinite loop fails
    /// in well under a second.
    pub const DEFAULT_FUEL: u64 = 5_000_000;

    /// A deep statement budget for bench workloads that intentionally run
    /// long (merged grid programs, the §5 step-count experiments).
    pub const DEEP_FUEL: u64 = 50_000_000;

    /// The default call-depth budget (keeps runaway recursion off the host
    /// stack in every backend).
    pub const DEFAULT_RECURSION_LIMIT: u32 = 192;

    /// A request for `program` with empty input and the default budgets.
    pub fn new(program: &'a Program) -> Self {
        ExecRequest {
            program,
            input: &[],
            fuel: Self::DEFAULT_FUEL,
            recursion_limit: Self::DEFAULT_RECURSION_LIMIT,
        }
    }

    /// Replaces the input stream.
    #[must_use]
    pub fn with_input(mut self, input: &'a [i64]) -> Self {
        self.input = input;
        self
    }

    /// Replaces the statement budget.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Replaces the call-depth budget.
    #[must_use]
    pub fn with_recursion_limit(mut self, limit: u32) -> Self {
        self.recursion_limit = limit;
        self
    }
}

/// An execution engine for MiniC programs.
///
/// Implementations must be observationally interchangeable: for any checked
/// program and request, every backend returns the same [`ExecOutcome`]
/// (including the deterministic step count) or the same [`ExecError`]
/// variant. `tests/vm_differential.rs` enforces this across the corpus, the
/// feature grids, specialized programs, and a seeded random sweep.
pub trait ExecBackend: Sync {
    /// Stable backend name (`"interp"`, `"vm"`; see [`BackendKind::name`]).
    fn name(&self) -> &'static str;

    /// Runs the request to completion or to a structured failure.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfFuel`] / [`ExecError::RecursionLimit`] when a
    /// budget is exhausted, and arithmetic/pointer errors as they occur.
    fn exec(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError>;
}

/// The available execution backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The tree-walking interpreter ([`crate::Interp`]).
    #[default]
    Interp,
    /// The `specslice-vm` bytecode machine.
    Vm,
}

impl BackendKind {
    /// The backend's stable name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Interp => "interp",
            BackendKind::Vm => "vm",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_defaults_and_builders() {
        let program = specslice_lang::frontend("int main() { return 0; }").unwrap();
        let req = ExecRequest::new(&program);
        assert_eq!(req.fuel, ExecRequest::DEFAULT_FUEL);
        assert_eq!(req.recursion_limit, ExecRequest::DEFAULT_RECURSION_LIMIT);
        assert!(req.input.is_empty());
        let req = req
            .with_input(&[1, 2])
            .with_fuel(10)
            .with_recursion_limit(3);
        assert_eq!(
            (req.input, req.fuel, req.recursion_limit),
            (&[1i64, 2][..], 10, 3)
        );
    }
}
