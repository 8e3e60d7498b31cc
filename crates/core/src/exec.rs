//! The unified execution API, re-exported — run original and specialized
//! programs through an interchangeable backend.
//!
//! Slicing's output is *programs*: the semantic guarantee of the paper is
//! that a specialization slice, run on the same input as the original,
//! agrees with it on the slicing criterion. Validating that — and
//! measuring the §5 claim that specialized programs do strictly less work —
//! means executing MiniC a lot, so execution goes through one API with two
//! observationally identical backends:
//!
//! * [`Interp`] — the tree-walking reference interpreter
//!   (`specslice-interp`);
//! * [`Vm`] — the compile-once bytecode machine (`specslice-vm`).
//!
//! Build an [`ExecRequest`] (named budget defaults replace the magic fuel
//! numbers that used to be scattered around), then either pick a backend
//! explicitly with [`backend`] or call [`run`], which runs the reference
//! interpreter:
//!
//! ```
//! use specslice::exec::{self, ExecRequest};
//!
//! let program = specslice_lang::frontend(
//!     "int main() { int x; scanf(\"%d\", &x); printf(\"%d\", x + 1); return 0; }",
//! )?;
//! let out = exec::run(&ExecRequest::new(&program).with_input(&[41]))?;
//! assert_eq!(out.output, vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`crate::SpecializedProgram::run`] is the one-call version for slicer
//! output.

pub use specslice_interp::{
    exec as run, BackendKind, ExecBackend, ExecError, ExecOutcome, ExecRequest, Interp,
};
pub use specslice_vm::{backend, Module, Vm, VmStats};
