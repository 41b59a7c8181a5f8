//! The driver IR: a miniature C-like AST for ioctl handlers.
//!
//! Real Paradice parses driver C source with Clang; our drivers instead
//! *describe* their ioctl handlers in this IR, which captures exactly the
//! constructs the analysis cares about: copies to/from user space, field
//! reads of previously-copied structures (the source of nested copies),
//! command dispatch, conditionals, bounded loops, and helper-function calls.
//!
//! A driver is honest about its IR in the same way a real driver is honest
//! about its source code: the integration tests execute the *actual* driver
//! and cross-check that it performs exactly the operations its IR declares.

use std::collections::BTreeMap;
use std::fmt;

/// A local variable slot in a handler (kernel stack variable or buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A compile-time constant.
    Const(u64),
    /// The ioctl's untyped pointer/scalar argument.
    Arg,
    /// The ioctl command number.
    Cmd,
    /// A scalar variable's value.
    Var(VarId),
    /// A little-endian field of `width` bytes at `offset` inside the buffer
    /// variable `base` (which must have been filled by a
    /// [`Stmt::CopyFromUser`]). This is where nested copies come from.
    Field {
        /// The buffer variable.
        base: VarId,
        /// Byte offset of the field.
        offset: u64,
        /// Field width in bytes (1, 2, 4 or 8).
        width: u8,
    },
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// `a + b` without the `Box` noise.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a * b` without the `Box` noise.
    #[allow(clippy::should_implement_trait)] // constructor, not arithmetic
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// Field read helper.
    pub fn field(base: VarId, offset: u64, width: u8) -> Expr {
        Expr::Field {
            base,
            offset,
            width,
        }
    }

    /// Calls `visit(base, offset, width)` for every [`Expr::Field`] the
    /// expression reads. The lint passes' consumption signal and the JIT's
    /// fetch extent are both folds over this one traversal.
    pub fn for_each_field(&self, visit: &mut impl FnMut(VarId, u64, u8)) {
        match self {
            Expr::Field {
                base,
                offset,
                width,
            } => visit(*base, *offset, *width),
            Expr::Add(a, b) | Expr::Mul(a, b) => {
                a.for_each_field(visit);
                b.for_each_field(visit);
            }
            Expr::Const(_) | Expr::Arg | Expr::Cmd | Expr::Var(_) => {}
        }
    }
}

/// Branch conditions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `a == b`.
    Eq(Expr, Expr),
    /// `a != b`.
    Ne(Expr, Expr),
    /// `a < b` (unsigned).
    Lt(Expr, Expr),
    /// `a > b` (unsigned).
    Gt(Expr, Expr),
}

impl Cond {
    /// [`Expr::for_each_field`] over both sides of the comparison.
    pub fn for_each_field(&self, visit: &mut impl FnMut(VarId, u64, u8)) {
        let (a, b) = match self {
            Cond::Eq(a, b) | Cond::Ne(a, b) | Cond::Lt(a, b) | Cond::Gt(a, b) => (a, b),
        };
        a.for_each_field(visit);
        b.for_each_field(visit);
    }
}

/// Direction of a user-memory operation (named from the driver's view).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `copy_from_user`: driver reads process memory.
    CopyFromUser,
    /// `copy_to_user`: driver writes process memory.
    CopyToUser,
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `var = value;` (scalar).
    Assign {
        /// Destination variable.
        var: VarId,
        /// Value expression.
        value: Expr,
    },
    /// `copy_from_user(dst_buffer, (void __user *)src, len)`.
    CopyFromUser {
        /// Kernel buffer variable receiving the bytes.
        dst: VarId,
        /// User-space source address.
        src: Expr,
        /// Byte length.
        len: Expr,
    },
    /// `copy_to_user((void __user *)dst, src_buffer, len)`.
    ///
    /// The source buffer is driver data; only the *user address and length*
    /// matter to the analysis.
    CopyToUser {
        /// User-space destination address.
        dst: Expr,
        /// Byte length.
        len: Expr,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// The condition.
        cond: Cond,
        /// Taken branch.
        then: Vec<Stmt>,
        /// Fallthrough branch.
        els: Vec<Stmt>,
    },
    /// `switch (cmd) { case …: … }` — the canonical ioctl dispatcher.
    SwitchCmd {
        /// `(command number, body)` arms.
        arms: Vec<(u32, Vec<Stmt>)>,
        /// `default:` body (usually `return -ENOTTY`).
        default: Vec<Stmt>,
    },
    /// `for (i = 0; i < count; i++) { body }`; `i` is bound to `var`.
    ForRange {
        /// Loop counter variable.
        var: VarId,
        /// Trip count expression (often a copied field — nested copies).
        count: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Call a helper function by name.
    Call(String),
    /// Early return (value irrelevant to the analysis).
    Return,
}

impl Stmt {
    /// [`Expr::for_each_field`] over the statement's own operands — value,
    /// address and length, condition, trip count — not its nested bodies.
    pub fn for_each_field(&self, visit: &mut impl FnMut(VarId, u64, u8)) {
        match self {
            Stmt::Assign { value, .. } => value.for_each_field(visit),
            Stmt::CopyFromUser { src: addr, len, .. } | Stmt::CopyToUser { dst: addr, len } => {
                addr.for_each_field(visit);
                len.for_each_field(visit);
            }
            Stmt::If { cond, .. } => cond.for_each_field(visit),
            Stmt::ForRange { count, .. } => count.for_each_field(visit),
            Stmt::SwitchCmd { .. } | Stmt::Call(_) | Stmt::Return => {}
        }
    }
}

/// A named function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Statements, in order.
    pub body: Vec<Stmt>,
}

/// A driver's ioctl handler: an entry function plus helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Handler {
    functions: BTreeMap<String, Function>,
    entry: String,
}

impl Handler {
    /// Creates a handler with entry function `entry`.
    ///
    /// # Panics
    ///
    /// Panics if `entry` is not among `functions` — a driver-definition bug.
    pub fn new(entry: &str, functions: BTreeMap<String, Function>) -> Self {
        assert!(
            functions.contains_key(entry),
            "entry function {entry:?} missing"
        );
        Handler {
            functions,
            entry: entry.to_owned(),
        }
    }

    /// Convenience constructor for a single-function handler.
    pub fn single(body: Vec<Stmt>) -> Self {
        let mut functions = BTreeMap::new();
        functions.insert("ioctl".to_owned(), Function { body });
        Handler::new("ioctl", functions)
    }

    /// The entry function's name.
    pub fn entry(&self) -> &str {
        &self.entry
    }

    /// Looks up a function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get(name)
    }

    /// All command numbers appearing in `SwitchCmd` arms anywhere in the
    /// handler — the analyzer's work list.
    pub fn commands(&self) -> Vec<u32> {
        fn visit(stmts: &[Stmt], out: &mut Vec<u32>) {
            for stmt in stmts {
                match stmt {
                    Stmt::SwitchCmd { arms, default } => {
                        for (cmd, body) in arms {
                            out.push(*cmd);
                            visit(body, out);
                        }
                        visit(default, out);
                    }
                    Stmt::If { then, els, .. } => {
                        visit(then, out);
                        visit(els, out);
                    }
                    Stmt::ForRange { body, .. } => visit(body, out),
                    _ => {}
                }
            }
        }
        let mut out = Vec::new();
        for function in self.functions.values() {
            visit(&function.body, &mut out);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total statement count (the analyzer's "lines of code" metric for
    /// extracted slices, cf. the paper's ~760 generated lines).
    pub fn statement_count(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|stmt| {
                    1 + match stmt {
                        Stmt::If { then, els, .. } => count(then) + count(els),
                        Stmt::SwitchCmd { arms, default } => {
                            arms.iter().map(|(_, b)| count(b)).sum::<usize>() + count(default)
                        }
                        Stmt::ForRange { body, .. } => count(body),
                        _ => 0,
                    }
                })
                .sum()
        }
        self.functions.values().map(|f| count(&f.body)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_handler() -> Handler {
        // switch (cmd) {
        //   case 7: copy_from_user(v0, arg, 16); break;
        //   case 9: helper(); break;
        // }
        let mut functions = BTreeMap::new();
        functions.insert(
            "ioctl".to_owned(),
            Function {
                body: vec![Stmt::SwitchCmd {
                    arms: vec![
                        (
                            7,
                            vec![Stmt::CopyFromUser {
                                dst: VarId(0),
                                src: Expr::Arg,
                                len: Expr::Const(16),
                            }],
                        ),
                        (9, vec![Stmt::Call("helper".to_owned())]),
                    ],
                    default: vec![Stmt::Return],
                }],
            },
        );
        functions.insert(
            "helper".to_owned(),
            Function {
                body: vec![Stmt::CopyToUser {
                    dst: Expr::Arg,
                    len: Expr::Const(8),
                }],
            },
        );
        Handler::new("ioctl", functions)
    }

    #[test]
    fn commands_are_discovered() {
        assert_eq!(sample_handler().commands(), vec![7, 9]);
    }

    #[test]
    fn statement_count_recurses() {
        // switch(1) + copy(1) + call(1) + return(1) + helper copy(1) = 5.
        assert_eq!(sample_handler().statement_count(), 5);
    }

    #[test]
    fn function_lookup() {
        let handler = sample_handler();
        assert!(handler.function("helper").is_some());
        assert!(handler.function("nope").is_none());
        assert_eq!(handler.entry(), "ioctl");
    }

    #[test]
    #[should_panic(expected = "missing")]
    fn bad_entry_panics() {
        Handler::new("missing", BTreeMap::new());
    }

    #[test]
    fn expr_helpers() {
        let e = Expr::add(Expr::Arg, Expr::mul(Expr::Const(4), Expr::Var(VarId(1))));
        assert!(matches!(e, Expr::Add(_, _)));
        let f = Expr::field(VarId(0), 8, 4);
        assert_eq!(
            f,
            Expr::Field {
                base: VarId(0),
                offset: 8,
                width: 4
            }
        );
    }
}
