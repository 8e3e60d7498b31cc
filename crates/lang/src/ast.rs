//! Abstract syntax tree for MiniC.
//!
//! Statements carry a program-wide dense [`StmtId`] (assigned by
//! [`crate::normalize::normalize`] / [`Program::renumber`]); the dependence
//! graph layer uses these ids to key PDG vertices back to syntax.

use std::fmt;

/// Dense, program-wide statement identifier.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub u32);

impl StmtId {
    /// Sentinel for freshly-built statements that have not been renumbered.
    pub const UNASSIGNED: StmtId = StmtId(u32::MAX);

    /// The dense index of this statement.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// The type of a variable or parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Type {
    /// A machine integer.
    Int,
    /// A pointer to a function taking `arity` `int` parameters.
    FnPtr {
        /// Number of `int` parameters of the pointed-to function type.
        arity: usize,
    },
}

/// How a parameter is passed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamMode {
    /// `int x` — by value.
    Value,
    /// `int& x` — by reference (callee writes propagate to the actual).
    Ref,
    /// `int (*p)(int, ...)` — a function pointer, by value.
    FnPtr {
        /// Arity of the pointed-to function type.
        arity: usize,
    },
}

/// A formal parameter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Passing mode.
    pub mode: ParamMode,
}

/// Return kind of a function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RetKind {
    /// `void f(...)`.
    Void,
    /// `int f(...)`.
    Int,
}

/// A whole MiniC program: globals plus functions.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Program {
    /// Global `int` variable names, in declaration order.
    pub globals: Vec<String>,
    /// Functions, in declaration order (`main` must be among them for
    /// whole-program analyses).
    pub functions: Vec<Function>,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Return kind.
    pub ret: RetKind,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Body.
    pub body: Block,
    /// 1-based line of the definition.
    pub line: u32,
}

/// A `{ ... }` statement sequence.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

/// A statement with identity and location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    /// Program-wide id (see [`Program::renumber`]).
    pub id: StmtId,
    /// 1-based source line.
    pub line: u32,
    /// The statement proper.
    pub kind: StmtKind,
}

impl Stmt {
    /// Builds an unnumbered statement.
    pub fn new(line: u32, kind: StmtKind) -> Stmt {
        Stmt {
            id: StmtId::UNASSIGNED,
            line,
            kind,
        }
    }
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// Local declaration `int x;` / `int x = e;` / `int (*p)(int,int);`.
    Decl {
        /// Variable name.
        name: String,
        /// Declared type.
        ty: Type,
        /// Optional initializer (a defining occurrence when present).
        init: Option<Expr>,
    },
    /// Assignment `x = e;` (no calls in `e` after normalization).
    Assign {
        /// Target variable.
        name: String,
        /// Right-hand side.
        value: Expr,
    },
    /// A direct or indirect call, possibly with an assigned result.
    Call(CallStmt),
    /// `printf("fmt", args...);` — a library output call.
    Printf {
        /// Format string (uninterpreted).
        format: String,
        /// Arguments (values printed).
        args: Vec<Expr>,
    },
    /// `scanf("fmt", &a, &b);` or `x = scanf("fmt", &a);` — library input.
    Scanf {
        /// Format string (uninterpreted; each `&var` receives one input).
        format: String,
        /// Variables written by the read.
        targets: Vec<String>,
        /// Optional variable receiving `scanf`'s return value.
        assign_to: Option<String>,
    },
    /// `exit(e);` — terminates the program (a jump to program exit).
    Exit {
        /// Exit code expression.
        code: Expr,
    },
    /// `if (cond) { .. } else { .. }`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
    },
    /// `while (cond) { .. }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `return;` / `return e;`.
    Return {
        /// Optional returned value.
        value: Option<Expr>,
    },
    /// `break;` (innermost loop).
    Break,
    /// `continue;` (innermost loop).
    Continue,
}

/// A call together with its destination, e.g. `x = f(a, b);` or `g(a);`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallStmt {
    /// Who is being called.
    pub callee: Callee,
    /// Actual arguments, in order.
    pub args: Vec<Expr>,
    /// Variable receiving the return value, if any.
    pub assign_to: Option<String>,
}

/// Call target: a named function or a function-pointer variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call `f(...)`.
    Named(String),
    /// Indirect call `p(...)` through function-pointer variable `p`.
    Indirect(String),
}

impl Callee {
    /// The textual name of the call target (function or pointer variable).
    pub fn name(&self) -> &str {
        match self {
            Callee::Named(s) | Callee::Indirect(s) => s,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl BinOp {
    /// C-style operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// Expressions. After normalization no [`Expr::Call`] remains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Variable read.
    Var(String),
    /// Reference to a function by name (function-pointer value), e.g. in
    /// `p = f;` or `p == f`.
    FuncRef(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Call used as a value — removed by [`crate::normalize::normalize`].
    Call(Box<CallStmt>),
}

impl Expr {
    /// Appends every variable read by this expression to `out` (duplicates
    /// kept; function references are not variable reads).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) | Expr::FuncRef(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(c) => {
                for a in &c.args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Variables read by this expression, deduplicated, in first-use order.
    pub fn vars(&self) -> Vec<String> {
        let mut raw = Vec::new();
        self.collect_vars(&mut raw);
        let mut seen = std::collections::HashSet::new();
        raw.retain(|v| seen.insert(v.clone()));
        raw
    }

    /// Whether the expression contains any call.
    pub fn contains_call(&self) -> bool {
        match self {
            Expr::Int(_) | Expr::Var(_) | Expr::FuncRef(_) => false,
            Expr::Unary(_, e) => e.contains_call(),
            Expr::Binary(_, a, b) => a.contains_call() || b.contains_call(),
            Expr::Call(_) => true,
        }
    }
}

impl Block {
    /// Visits every statement in the block, recursing into nested blocks.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for s in &self.stmts {
            f(s);
            match &s.kind {
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    then_block.visit(f);
                    if let Some(e) = else_block {
                        e.visit(f);
                    }
                }
                StmtKind::While { body, .. } => body.visit(f),
                _ => {}
            }
        }
    }

    /// Mutable variant of [`Block::visit`].
    pub fn visit_mut(&mut self, f: &mut impl FnMut(&mut Stmt)) {
        for s in &mut self.stmts {
            f(s);
            match &mut s.kind {
                StmtKind::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    then_block.visit_mut(f);
                    if let Some(e) = else_block {
                        e.visit_mut(f);
                    }
                }
                StmtKind::While { body, .. } => body.visit_mut(f),
                _ => {}
            }
        }
    }
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The `main` function, if present.
    pub fn main(&self) -> Option<&Function> {
        self.function("main")
    }

    /// Returns `true` if `name` is a global variable.
    pub fn is_global(&self, name: &str) -> bool {
        self.globals.iter().any(|g| g == name)
    }

    /// Assigns dense [`StmtId`]s to every statement (in function order, then
    /// lexical order within each function). Returns the number of statements.
    pub fn renumber(&mut self) -> usize {
        let mut next = 0u32;
        for f in &mut self.functions {
            f.body.visit_mut(&mut |s| {
                s.id = StmtId(next);
                next += 1;
            });
        }
        next as usize
    }

    /// Visits every statement together with the name of its enclosing
    /// function.
    pub fn visit_all<'a>(&'a self, mut f: impl FnMut(&'a str, &'a Stmt)) {
        for func in &self.functions {
            func.body.visit(&mut |s| f(&func.name, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> Expr {
        Expr::Var(n.into())
    }

    #[test]
    fn expr_vars_dedup_in_order() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(var("b")),
                Box::new(var("a")),
            )),
            Box::new(var("b")),
        );
        assert_eq!(e.vars(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn funcref_is_not_a_var() {
        let e = Expr::Binary(
            BinOp::Eq,
            Box::new(var("p")),
            Box::new(Expr::FuncRef("f".into())),
        );
        assert_eq!(e.vars(), vec!["p".to_string()]);
    }

    #[test]
    fn contains_call_detects_nesting() {
        let call = Expr::Call(Box::new(CallStmt {
            callee: Callee::Named("f".into()),
            args: vec![],
            assign_to: None,
        }));
        let e = Expr::Unary(UnOp::Neg, Box::new(call));
        assert!(e.contains_call());
        assert!(!var("x").contains_call());
    }

    #[test]
    fn renumber_assigns_dense_ids() {
        let mut p = Program {
            globals: vec![],
            functions: vec![Function {
                name: "main".into(),
                ret: RetKind::Int,
                params: vec![],
                line: 1,
                body: Block {
                    stmts: vec![
                        Stmt::new(1, StmtKind::Break),
                        Stmt::new(
                            2,
                            StmtKind::While {
                                cond: Expr::Int(1),
                                body: Block {
                                    stmts: vec![Stmt::new(3, StmtKind::Continue)],
                                },
                            },
                        ),
                    ],
                },
            }],
        };
        assert_eq!(p.renumber(), 3);
        let mut ids = Vec::new();
        p.functions[0].body.visit(&mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
