//! The deterministic MiniC tree-walking interpreter, and the home of the
//! **unified execution API** ([`ExecRequest`] / [`ExecOutcome`] /
//! [`ExecBackend`]).
//!
//! Execution is used to *validate executability*: the paper's central claim
//! is that specialization slices are runnable programs that agree with the
//! original on the slicing criterion. Callers run both against the same
//! input stream and compare outputs; the step counter backs the §5
//! "executable `wc` slices run in 32.5% of the original's time" experiment.
//!
//! Two backends implement the API: the tree-walker in this crate
//! ([`Interp`]) and the `specslice-vm` bytecode machine. Their observable
//! behavior is identical by contract:
//!
//! * `scanf` pops values from a caller-supplied input vector (exhausted
//!   input yields 0, like EOF with an unset variable — deterministic);
//! * `printf` appends each formatted argument to the output vector;
//! * execution is fuel-bounded so non-terminating slices fail cleanly
//!   ([`ExecError::OutOfFuel`] reports the step at which fuel ran out);
//! * uninitialized variables read as 0 (MiniC has no trap representation —
//!   this matches what slicing's semantic guarantee needs: criterion values
//!   agree; junk values may differ elsewhere).
//!
//! # Example
//!
//! ```
//! use specslice_interp::{ExecBackend, ExecRequest, Interp};
//!
//! let program = specslice_lang::frontend(
//!     "int main() { int x; scanf(\"%d\", &x); printf(\"%d\", x + 1); return 0; }",
//! )?;
//! let out = Interp.exec(&ExecRequest::new(&program).with_input(&[41]))?;
//! assert_eq!(out.output, vec![42]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod api;

pub use api::{BackendKind, ExecBackend, ExecRequest};

use specslice_lang::ast::{BinOp, Callee, Expr, Function, Program, StmtKind, UnOp};
use specslice_lang::Block;
use std::collections::HashMap;
use std::fmt;

/// Errors during execution (any backend).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// The step budget was exhausted (possible non-termination).
    OutOfFuel {
        /// The step count at which fuel ran out (always `fuel + 1`: the
        /// first statement the budget no longer covers).
        steps: u64,
    },
    /// The call-depth limit was exceeded (runaway recursion).
    RecursionLimit,
    /// Division or remainder by zero.
    DivisionByZero {
        /// Source line.
        line: u32,
    },
    /// Call through a pointer value that is not a function.
    BadFunctionPointer {
        /// Source line.
        line: u32,
    },
    /// Internal error (should not happen on checked programs).
    Internal(String),
}

/// The execution API's error type — shared by every [`ExecBackend`].
/// (`InterpError` is the historical name; new code should say `ExecError`.)
pub type ExecError = InterpError;

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::OutOfFuel { steps } => write!(f, "out of fuel at step {steps}"),
            InterpError::RecursionLimit => write!(f, "recursion limit exceeded"),
            InterpError::DivisionByZero { line } => write!(f, "line {line}: division by zero"),
            InterpError::BadFunctionPointer { line } => {
                write!(f, "line {line}: bad function pointer")
            }
            InterpError::Internal(m) => write!(f, "internal interpreter error: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The observable result of a run — identical across backends by contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Values printed by `printf`, in order (one entry per argument).
    pub output: Vec<i64>,
    /// Source line of the `printf` that produced each output entry
    /// (parallel to `output`; regenerated slices preserve original lines,
    /// so per-criterion output streams can be compared across programs).
    pub output_sites: Vec<u32>,
    /// Exit code (`exit(n)`, or `main`'s return value, or 0).
    pub exit_code: i64,
    /// Number of statements executed — the deterministic work measure the
    /// §5 speed-up experiment compares (identical across backends).
    pub steps: u64,
    /// Number of input values consumed.
    pub inputs_consumed: usize,
}

/// The tree-walking interpreter backend.
pub struct Interp;

impl ExecBackend for Interp {
    fn name(&self) -> &'static str {
        "interp"
    }

    fn exec(&self, req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        exec(req)
    }
}

/// Values: MiniC ints double as function pointers (index+1 of the function;
/// 0 is the null pointer).
type Value = i64;

enum Flow {
    Normal,
    Return(Option<Value>),
    Break,
    Continue,
    Exit(Value),
}

struct Walker<'p> {
    program: &'p Program,
    fn_index: HashMap<&'p str, usize>,
    globals: HashMap<String, Value>,
    input: &'p [Value],
    input_pos: usize,
    output: Vec<Value>,
    output_sites: Vec<u32>,
    steps: u64,
    fuel: u64,
    depth: u32,
    recursion_limit: u32,
}

/// Runs `req` on the tree-walking interpreter.
///
/// # Errors
///
/// Returns [`ExecError::OutOfFuel`] if the budget is exhausted, and
/// arithmetic/pointer errors as they occur.
pub fn exec(req: &ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
    let program = req.program;
    let main = program
        .main()
        .ok_or_else(|| InterpError::Internal("no main".into()))?;
    let mut interp = Walker {
        program,
        fn_index: program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect(),
        globals: program.globals.iter().map(|g| (g.clone(), 0)).collect(),
        input: req.input,
        input_pos: 0,
        output: Vec::new(),
        output_sites: Vec::new(),
        steps: 0,
        fuel: req.fuel,
        depth: 0,
        recursion_limit: req.recursion_limit,
    };
    let mut frame: HashMap<String, Value> = HashMap::new();
    let flow = interp.exec_block(&main.body, &mut frame)?;
    let exit_code = match flow {
        Flow::Exit(c) => c,
        Flow::Return(Some(v)) => v,
        _ => 0,
    };
    Ok(ExecOutcome {
        output: interp.output,
        output_sites: interp.output_sites,
        exit_code,
        steps: interp.steps,
        inputs_consumed: interp.input_pos,
    })
}

impl<'p> Walker<'p> {
    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.fuel {
            Err(InterpError::OutOfFuel { steps: self.steps })
        } else {
            Ok(())
        }
    }

    fn read_var(&self, name: &str, frame: &HashMap<String, Value>) -> Value {
        frame
            .get(name)
            .or_else(|| self.globals.get(name))
            .copied()
            .unwrap_or(0)
    }

    fn write_var(&mut self, name: &str, v: Value, frame: &mut HashMap<String, Value>) {
        if frame.contains_key(name) || !self.globals.contains_key(name) {
            frame.insert(name.to_string(), v);
        } else {
            self.globals.insert(name.to_string(), v);
        }
    }

    fn eval(
        &mut self,
        e: &Expr,
        frame: &HashMap<String, Value>,
        line: u32,
    ) -> Result<Value, InterpError> {
        Ok(match e {
            Expr::Int(n) => *n,
            Expr::Var(v) => self.read_var(v, frame),
            Expr::FuncRef(f) => {
                *self
                    .fn_index
                    .get(f.as_str())
                    .ok_or_else(|| InterpError::Internal(format!("unknown fn {f}")))?
                    as i64
                    + 1
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, frame, line)?;
                match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => i64::from(v == 0),
                }
            }
            Expr::Binary(op, a, b) => {
                // Short-circuit logical operators.
                match op {
                    BinOp::And => {
                        let va = self.eval(a, frame, line)?;
                        if va == 0 {
                            return Ok(0);
                        }
                        return Ok(i64::from(self.eval(b, frame, line)? != 0));
                    }
                    BinOp::Or => {
                        let va = self.eval(a, frame, line)?;
                        if va != 0 {
                            return Ok(1);
                        }
                        return Ok(i64::from(self.eval(b, frame, line)? != 0));
                    }
                    _ => {}
                }
                let va = self.eval(a, frame, line)?;
                let vb = self.eval(b, frame, line)?;
                match op {
                    BinOp::Add => va.wrapping_add(vb),
                    BinOp::Sub => va.wrapping_sub(vb),
                    BinOp::Mul => va.wrapping_mul(vb),
                    BinOp::Div => {
                        if vb == 0 {
                            return Err(InterpError::DivisionByZero { line });
                        }
                        va.wrapping_div(vb)
                    }
                    BinOp::Rem => {
                        if vb == 0 {
                            return Err(InterpError::DivisionByZero { line });
                        }
                        va.wrapping_rem(vb)
                    }
                    BinOp::Lt => i64::from(va < vb),
                    BinOp::Le => i64::from(va <= vb),
                    BinOp::Gt => i64::from(va > vb),
                    BinOp::Ge => i64::from(va >= vb),
                    BinOp::Eq => i64::from(va == vb),
                    BinOp::Ne => i64::from(va != vb),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
            Expr::Call(_) => {
                return Err(InterpError::Internal(
                    "call in expression after normalization".into(),
                ))
            }
        })
    }

    fn call(
        &mut self,
        func: &'p Function,
        args: &[Value],
        ref_backs: &[Option<String>],
        caller_frame: &mut HashMap<String, Value>,
    ) -> Result<Option<Value>, InterpError> {
        self.depth += 1;
        if self.depth > self.recursion_limit {
            return Err(InterpError::RecursionLimit);
        }
        let mut frame: HashMap<String, Value> = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            frame.insert(p.name.clone(), *v);
        }
        let flow = self.exec_block(&func.body, &mut frame);
        self.depth -= 1;
        let flow = flow?;
        // Copy back by-reference parameters.
        for (p, back) in func.params.iter().zip(ref_backs) {
            if let Some(target) = back {
                let v = self.read_var(&p.name, &frame);
                self.write_var(target, v, caller_frame);
            }
        }
        match flow {
            Flow::Exit(c) => Err(InterpError::Internal(format!("__exit:{c}"))), // unwound below
            Flow::Return(v) => Ok(v),
            _ => Ok(None),
        }
    }

    fn exec_block(
        &mut self,
        block: &'p Block,
        frame: &mut HashMap<String, Value>,
    ) -> Result<Flow, InterpError> {
        for s in &block.stmts {
            // Bare declarations are storage, not work: they do not count as
            // execution steps (regenerated slices relocate declarations, and
            // the §5 speed-up experiment compares real work).
            if !matches!(s.kind, StmtKind::Decl { init: None, .. }) {
                self.tick()?;
            }
            let line = s.line;
            match &s.kind {
                StmtKind::Decl { name, init, .. } => {
                    let v = match init {
                        Some(e) => self.eval(e, frame, line)?,
                        None => 0,
                    };
                    frame.insert(name.clone(), v);
                }
                StmtKind::Assign { name, value } => {
                    let v = self.eval(value, frame, line)?;
                    self.write_var(name, v, frame);
                }
                StmtKind::Call(c) => {
                    let fname: String = match &c.callee {
                        Callee::Named(n) => n.clone(),
                        Callee::Indirect(ptr) => {
                            let v = self.read_var(ptr, frame);
                            let idx = v - 1;
                            if idx < 0 || idx as usize >= self.program.functions.len() {
                                return Err(InterpError::BadFunctionPointer { line });
                            }
                            self.program.functions[idx as usize].name.clone()
                        }
                    };
                    let func = self
                        .program
                        .function(&fname)
                        .ok_or_else(|| InterpError::Internal(format!("unknown fn {fname}")))?;
                    let mut args = Vec::with_capacity(c.args.len());
                    let mut ref_backs = Vec::with_capacity(c.args.len());
                    for (p, a) in func.params.iter().zip(&c.args) {
                        args.push(self.eval(a, frame, line)?);
                        ref_backs.push(match (p.mode, a) {
                            (specslice_lang::ast::ParamMode::Ref, Expr::Var(v)) => Some(v.clone()),
                            _ => None,
                        });
                    }
                    match self.call(func, &args, &ref_backs, frame) {
                        Ok(ret) => {
                            if let (Some(t), Some(v)) = (&c.assign_to, ret) {
                                self.write_var(t, v, frame);
                            }
                        }
                        Err(InterpError::Internal(m)) if m.starts_with("__exit:") => {
                            let code: i64 = m[7..].parse().unwrap_or(0);
                            return Ok(Flow::Exit(code));
                        }
                        Err(e) => return Err(e),
                    }
                }
                StmtKind::Printf { args, .. } => {
                    for a in args {
                        let v = self.eval(a, frame, line)?;
                        self.output.push(v);
                        self.output_sites.push(line);
                    }
                }
                StmtKind::Scanf {
                    targets, assign_to, ..
                } => {
                    let mut read = 0i64;
                    for t in targets {
                        let v = if self.input_pos < self.input.len() {
                            let v = self.input[self.input_pos];
                            self.input_pos += 1;
                            read += 1;
                            v
                        } else {
                            0
                        };
                        self.write_var(t, v, frame);
                    }
                    if let Some(t) = assign_to {
                        self.write_var(t, read, frame);
                    }
                }
                StmtKind::Exit { code } => {
                    let v = self.eval(code, frame, line)?;
                    return Ok(Flow::Exit(v));
                }
                StmtKind::If {
                    cond,
                    then_block,
                    else_block,
                } => {
                    let v = self.eval(cond, frame, line)?;
                    let flow = if v != 0 {
                        self.exec_block(then_block, frame)?
                    } else if let Some(e) = else_block {
                        self.exec_block(e, frame)?
                    } else {
                        Flow::Normal
                    };
                    match flow {
                        Flow::Normal => {}
                        other => return Ok(other),
                    }
                }
                StmtKind::While { cond, body } => loop {
                    self.tick()?;
                    let v = self.eval(cond, frame, line)?;
                    if v == 0 {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        other => return Ok(other),
                    }
                },
                StmtKind::Return { value } => {
                    let v = match value {
                        Some(e) => Some(self.eval(e, frame, line)?),
                        None => None,
                    };
                    return Ok(Flow::Return(v));
                }
                StmtKind::Break => return Ok(Flow::Break),
                StmtKind::Continue => return Ok(Flow::Continue),
            }
        }
        Ok(Flow::Normal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specslice_lang::frontend;

    fn go(src: &str, input: &[i64]) -> ExecOutcome {
        exec(&ExecRequest::new(&frontend(src).unwrap()).with_input(input)).unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let r = go(
            r#"int main() { printf("%d %d", 2 + 3 * 4, (2 + 3) * 4); return 0; }"#,
            &[],
        );
        assert_eq!(r.output, vec![14, 20]);
    }

    #[test]
    fn globals_params_and_refs() {
        let r = go(
            r#"
            int g;
            void bump(int& x, int by) { x = x + by; g = g + 1; }
            int main() {
                int v;
                v = 10;
                bump(v, 5);
                bump(v, 5);
                printf("%d %d", v, g);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![20, 2]);
    }

    #[test]
    fn recursion_factorial() {
        let r = go(
            r#"
            int fact(int n) {
                if (n <= 1) { return 1; }
                int rest;
                rest = fact(n - 1);
                return n * rest;
            }
            int main() { printf("%d", fact(6)); return 0; }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![720]);
    }

    #[test]
    fn loops_break_continue() {
        let r = go(
            r#"
            int main() {
                int i;
                int sum;
                i = 0;
                sum = 0;
                while (1) {
                    i = i + 1;
                    if (i > 10) { break; }
                    if (i % 2 == 0) { continue; }
                    sum = sum + i;
                }
                printf("%d", sum);
                return 0;
            }
            "#,
            &[],
        );
        assert_eq!(r.output, vec![25]); // 1+3+5+7+9
    }

    #[test]
    fn scanf_consumes_input_in_order() {
        let r = go(
            r#"
            int main() {
                int a;
                int b;
                scanf("%d", &a);
                scanf("%d", &b);
                printf("%d", a - b);
                return 0;
            }
            "#,
            &[10, 4],
        );
        assert_eq!(r.output, vec![6]);
        assert_eq!(r.inputs_consumed, 2);
    }

    #[test]
    fn scanf_returns_read_count_and_eof_zeroes() {
        let r = go(
            r#"
            int main() {
                int a;
                int n;
                n = scanf("%d", &a);
                printf("%d %d", n, a);
                n = scanf("%d", &a);
                printf("%d %d", n, a);
                return 0;
            }
            "#,
            &[7],
        );
        assert_eq!(r.output, vec![1, 7, 0, 0]);
    }

    #[test]
    fn exit_unwinds_from_callee() {
        let r = go(
            r#"
            int g;
            void die(int c) { exit(c); }
            int main() { g = 1; die(3); g = 2; printf("%d", g); return 0; }
            "#,
            &[],
        );
        assert_eq!(r.exit_code, 3);
        assert!(r.output.is_empty());
    }

    #[test]
    fn function_pointers_dispatch() {
        let r = go(
            r#"
            int add(int a, int b) { return a + b; }
            int sub(int a, int b) { return a - b; }
            int main() {
                int (*p)(int, int);
                int x;
                int which;
                scanf("%d", &which);
                if (which == 1) { p = add; } else { p = sub; }
                x = p(10, 3);
                printf("%d", x);
                return 0;
            }
            "#,
            &[1],
        );
        assert_eq!(r.output, vec![13]);
        let r2 = go(
            r#"
            int add(int a, int b) { return a + b; }
            int sub(int a, int b) { return a - b; }
            int main() {
                int (*p)(int, int);
                int x;
                int which;
                scanf("%d", &which);
                if (which == 1) { p = add; } else { p = sub; }
                x = p(10, 3);
                printf("%d", x);
                return 0;
            }
            "#,
            &[2],
        );
        assert_eq!(r2.output, vec![7]);
    }

    #[test]
    fn fuel_limit_detects_infinite_loops() {
        let p = frontend("int main() { while (1) { } return 0; }").unwrap();
        assert_eq!(
            exec(&ExecRequest::new(&p).with_fuel(1000)),
            Err(InterpError::OutOfFuel { steps: 1001 })
        );
    }

    #[test]
    fn recursion_limit_is_configurable() {
        let p = frontend(
            r#"
            int f(int n) { int r; r = f(n + 1); return r; }
            int main() { printf("%d", f(0)); return 0; }
            "#,
        )
        .unwrap();
        assert_eq!(
            exec(&ExecRequest::new(&p).with_recursion_limit(8)),
            Err(InterpError::RecursionLimit)
        );
    }

    #[test]
    fn division_by_zero_reported() {
        let p = frontend("int main() { int x; x = 1 / 0; return x; }").unwrap();
        assert!(matches!(
            exec(&ExecRequest::new(&p).with_fuel(1000)),
            Err(InterpError::DivisionByZero { .. })
        ));
    }

    #[test]
    fn short_circuit_evaluation() {
        // 1 || (1/0) must not divide; 0 && (1/0) must not divide.
        let r = go(
            r#"int main() { printf("%d %d", 1 || (1 / 0), 0 && (1 / 0)); return 0; }"#,
            &[],
        );
        assert_eq!(r.output, vec![1, 0]);
    }

    #[test]
    fn fig1_program_behavior() {
        let r = go(
            r#"
            int g1, g2, g3;
            void p(int a, int b) { g1 = a; g2 = b; g3 = g2; }
            int main() {
                g2 = 100;
                p(g2, 2);
                p(g2, 3);
                p(4, g1 + g2);
                printf("%d", g2);
            }
            "#,
            &[],
        );
        // p(g2,2): g1=100,g2=2; p(g2,3): g1=2,g2=3; p(4,g1+g2)=p(4,5): g2=5.
        assert_eq!(r.output, vec![5]);
    }
}
