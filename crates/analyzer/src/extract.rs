//! The extraction pass: specialization + symbolic execution per command.
//!
//! For each ioctl command number, the analyzer first *specializes* the
//! handler to it ([`specialize_command`]: `switch (cmd)` resolved, helper
//! calls inlined — the only place either happens), then symbolically
//! executes that slice with the command known and the pointer argument
//! symbolic, over the analyzer's one abstract value [`SymVal`] and
//! environment [`SymEnv`] (the lint passes read the same two types):
//!
//! * If every memory operation's address/length is constant or linear in the
//!   argument, and all control flow resolves statically, the command gets a
//!   [`Extraction::Static`] entry — the paper's offline-executed case, where
//!   "the CVD frontend can look up these entries to find the legitimate
//!   operations".
//! * Otherwise the command needs runtime information (most often **nested
//!   copies**, where a copied struct's fields feed the next copy's
//!   arguments) and gets an [`Extraction::Jit`] entry carrying the slice,
//!   which the frontend evaluates just-in-time against the caller's memory
//!   (§4.1).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ir::{Cond, Expr, Handler, OpKind, Stmt, VarId};

/// Maximum loop unrolling during static extraction; larger constant trip
/// counts fall back to JIT (still correct, just not precomputed). Public so
/// the lint suite can warn about loops that silently forfeit static entries.
pub const MAX_UNROLL: u64 = 64;

/// Maximum call-inlining depth (recursion guard). Public for the lint suite.
pub const MAX_CALL_DEPTH: usize = 16;

/// Errors from extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractionError {
    /// A `Call` referenced an unknown function.
    UnknownFunction {
        /// The missing name.
        name: String,
    },
    /// Call nesting exceeded the inlining depth limit (likely recursion).
    CallDepthExceeded,
}

impl fmt::Display for ExtractionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractionError::UnknownFunction { name } => {
                write!(f, "handler calls unknown function {name:?}")
            }
            ExtractionError::CallDepthExceeded => {
                f.write_str("call depth exceeded during extraction (recursive driver?)")
            }
        }
    }
}

impl std::error::Error for ExtractionError {}

/// Address template of a statically-extracted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddrTemplate {
    /// A fixed address (rare; fixed mappings).
    Abs(u64),
    /// The ioctl argument plus a constant offset — the common case, since
    /// the untyped pointer "holds the address of this data structure in the
    /// process memory" (§4.1).
    ArgPlus(u64),
}

impl AddrTemplate {
    /// Resolves the template against a concrete ioctl argument.
    pub fn resolve(self, arg: u64) -> u64 {
        match self {
            AddrTemplate::Abs(addr) => addr,
            AddrTemplate::ArgPlus(offset) => arg.wrapping_add(offset),
        }
    }
}

/// One statically-extracted memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpTemplate {
    /// Copy direction.
    pub kind: OpKind,
    /// Where in user memory.
    pub addr: AddrTemplate,
    /// How many bytes.
    pub len: u64,
}

/// The analyzer's verdict for one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extraction {
    /// All operations are known offline; the frontend looks them up.
    Static(Vec<OpTemplate>),
    /// Runtime data is needed; the frontend evaluates this specialized slice
    /// just-in-time (nested copies and data-dependent control flow).
    Jit {
        /// The handler body specialized to the command (calls inlined,
        /// dispatch resolved).
        slice: Vec<Stmt>,
        /// Whether the dynamic behaviour stems from *nested copies*
        /// (user-data-dependent copy arguments), the case the paper calls
        /// out for the Radeon driver.
        nested_copies: bool,
    },
}

impl Extraction {
    /// Whether this command could be fully resolved offline.
    pub fn is_static(&self) -> bool {
        matches!(self, Extraction::Static(_))
    }

    /// Whether this command exhibits nested copies.
    pub fn has_nested_copies(&self) -> bool {
        matches!(
            self,
            Extraction::Jit {
                nested_copies: true,
                ..
            }
        )
    }
}

/// What a scalar — an address, a length, a trip count, a branch operand —
/// is relative to the ioctl argument. The one abstract value of the
/// analyzer: extraction classifies commands with it and the lint passes
/// read the same values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymVal {
    /// A known constant (absolute address or literal length).
    Const(u64),
    /// `arg + k`: the declared-envelope case.
    ArgPlus(u64),
    /// Derived from bytes copied in from user space: the nested-copy
    /// signal, granted exactly by the JIT at runtime.
    UserData,
    /// Nothing useful is known (unbound variable, nonlinear arithmetic).
    Opaque,
}

impl SymVal {
    /// Whether an access at this address escapes static reasoning.
    pub fn is_dynamic(self) -> bool {
        matches!(self, SymVal::UserData | SymVal::Opaque)
    }
}

/// The symbolic environment at one program point of a specialized slice.
#[derive(Debug, Clone, Default)]
pub struct SymEnv {
    /// Scalar bindings; an unbound variable reads as [`SymVal::Opaque`].
    pub vars: BTreeMap<VarId, SymVal>,
    /// Variables holding bytes copied from user space.
    pub buffers: BTreeSet<VarId>,
}

impl SymEnv {
    /// Evaluates `expr`. `Cmd` is the command the slice is specialized to,
    /// opaque when there is none (the wire-protocol IR).
    pub fn eval(&self, cmd: Option<u32>, expr: &Expr) -> SymVal {
        match expr {
            Expr::Const(value) => SymVal::Const(*value),
            Expr::Arg => SymVal::ArgPlus(0),
            Expr::Cmd => cmd.map_or(SymVal::Opaque, |cmd| SymVal::Const(u64::from(cmd))),
            Expr::Var(var) => self.vars.get(var).copied().unwrap_or(SymVal::Opaque),
            Expr::Field { base, .. } if self.buffers.contains(base) => SymVal::UserData,
            Expr::Field { .. } => SymVal::Opaque,
            Expr::Add(a, b) => match (self.eval(cmd, a), self.eval(cmd, b)) {
                (SymVal::Const(x), SymVal::Const(y)) => SymVal::Const(x.wrapping_add(y)),
                (SymVal::ArgPlus(x), SymVal::Const(y)) | (SymVal::Const(y), SymVal::ArgPlus(x)) => {
                    SymVal::ArgPlus(x.wrapping_add(y))
                }
                (SymVal::UserData, _) | (_, SymVal::UserData) => SymVal::UserData,
                _ => SymVal::Opaque,
            },
            Expr::Mul(a, b) => match (self.eval(cmd, a), self.eval(cmd, b)) {
                (SymVal::Const(x), SymVal::Const(y)) => SymVal::Const(x.wrapping_mul(y)),
                (SymVal::UserData, _) | (_, SymVal::UserData) => SymVal::UserData,
                _ => SymVal::Opaque,
            },
        }
    }

    /// The branch taken when both operands are constants. Otherwise the
    /// reason it is unknown: `UserData` when an operand derives from
    /// user-copied bytes, `Opaque` when not.
    pub fn eval_cond(&self, cmd: Option<u32>, cond: &Cond) -> Result<bool, SymVal> {
        let (a, b, op): (&Expr, &Expr, fn(u64, u64) -> bool) = match cond {
            Cond::Eq(a, b) => (a, b, |x, y| x == y),
            Cond::Ne(a, b) => (a, b, |x, y| x != y),
            Cond::Lt(a, b) => (a, b, |x, y| x < y),
            Cond::Gt(a, b) => (a, b, |x, y| x > y),
        };
        match (self.eval(cmd, a), self.eval(cmd, b)) {
            (SymVal::Const(x), SymVal::Const(y)) => Ok(op(x, y)),
            (SymVal::UserData, _) | (_, SymVal::UserData) => Err(SymVal::UserData),
            _ => Err(SymVal::Opaque),
        }
    }

    /// A `copy_from_user` into `dst`: it now holds user bytes, and the
    /// scalar it held is gone.
    pub fn fetch_into(&mut self, dst: VarId) {
        self.buffers.insert(dst);
        self.vars.remove(&dst);
    }

    /// Joins the environment of another path into this one: bindings that
    /// agree survive, the rest become [`SymVal::Opaque`], buffers are the
    /// union. Returns whether anything changed.
    pub fn join(&mut self, other: &SymEnv) -> bool {
        let mut changed = false;
        for (var, value) in &other.vars {
            match self.vars.get(var) {
                Some(mine) if mine == value || *mine == SymVal::Opaque => {}
                _ => {
                    self.vars.insert(*var, SymVal::Opaque);
                    changed = true;
                }
            }
        }
        for (var, value) in self.vars.iter_mut() {
            if *value != SymVal::Opaque && !other.vars.contains_key(var) {
                *value = SymVal::Opaque;
                changed = true;
            }
        }
        let buffers = self.buffers.len();
        self.buffers.extend(other.buffers.iter().copied());
        changed || self.buffers.len() != buffers
    }
}

enum Flow {
    Continue,
    Return,
    /// Static extraction impossible; the command goes to the JIT.
    /// `nested` when user-copied data made it so.
    Dynamic {
        nested: bool,
    },
}

/// Appends the static template of one copy to `ops`, or returns the JIT
/// verdict when its address or length is not statically known.
fn push_op(ops: &mut Vec<OpTemplate>, kind: OpKind, addr: SymVal, len: SymVal) -> Flow {
    let (addr, len) = match (addr, len) {
        (SymVal::Const(a), SymVal::Const(n)) => (AddrTemplate::Abs(a), n),
        (SymVal::ArgPlus(k), SymVal::Const(n)) => (AddrTemplate::ArgPlus(k), n),
        _ => {
            let nested = addr == SymVal::UserData || len == SymVal::UserData;
            return Flow::Dynamic { nested };
        }
    };
    ops.push(OpTemplate { kind, addr, len });
    Flow::Continue
}

/// Path-sensitive symbolic execution of a specialized slice: constant
/// branches are resolved, constant loops unrolled, and every copy becomes
/// an [`OpTemplate`] until the first one that needs runtime data.
fn exec(cmd: Option<u32>, stmts: &[Stmt], env: &mut SymEnv, ops: &mut Vec<OpTemplate>) -> Flow {
    for stmt in stmts {
        let flow = match stmt {
            Stmt::Assign { var, value } => {
                let value = env.eval(cmd, value);
                env.vars.insert(*var, value);
                Flow::Continue
            }
            Stmt::CopyFromUser { dst, src, len } => {
                let (addr, len) = (env.eval(cmd, src), env.eval(cmd, len));
                env.fetch_into(*dst);
                push_op(ops, OpKind::CopyFromUser, addr, len)
            }
            Stmt::CopyToUser { dst, len } => {
                let (addr, len) = (env.eval(cmd, dst), env.eval(cmd, len));
                push_op(ops, OpKind::CopyToUser, addr, len)
            }
            Stmt::If { cond, then, els } => match env.eval_cond(cmd, cond) {
                Ok(taken) => exec(cmd, if taken { then } else { els }, env, ops),
                Err(why) => Flow::Dynamic {
                    nested: why == SymVal::UserData,
                },
            },
            Stmt::ForRange { var, count, body } => match env.eval(cmd, count) {
                SymVal::Const(n) if n <= MAX_UNROLL => {
                    let mut flow = Flow::Continue;
                    for i in 0..n {
                        env.vars.insert(*var, SymVal::Const(i));
                        flow = exec(cmd, body, env, ops);
                        if !matches!(flow, Flow::Continue) {
                            break;
                        }
                    }
                    flow
                }
                count => Flow::Dynamic {
                    nested: count == SymVal::UserData,
                },
            },
            Stmt::Return => Flow::Return,
            // `specialize` resolved every dispatch and inlined every call.
            Stmt::SwitchCmd { .. } | Stmt::Call(_) => Flow::Continue,
        };
        if !matches!(flow, Flow::Continue) {
            return flow;
        }
    }
    Flow::Continue
}

/// Specializes the handler body to one command: `switch (cmd)` resolved,
/// calls inlined. This is the "extracted code" shipped to the CVD frontend
/// for JIT evaluation.
fn specialize(
    handler: &Handler,
    cmd: u32,
    stmts: &[Stmt],
    depth: usize,
) -> Result<Vec<Stmt>, ExtractionError> {
    if depth > MAX_CALL_DEPTH {
        return Err(ExtractionError::CallDepthExceeded);
    }
    let mut out = Vec::new();
    for stmt in stmts {
        match stmt {
            Stmt::SwitchCmd { arms, default } => {
                let body = arms
                    .iter()
                    .find(|(arm_cmd, _)| *arm_cmd == cmd)
                    .map(|(_, body)| body)
                    .unwrap_or(default);
                out.extend(specialize(handler, cmd, body, depth)?);
            }
            Stmt::Call(name) => {
                let function =
                    handler
                        .function(name)
                        .ok_or_else(|| ExtractionError::UnknownFunction {
                            name: name.clone(),
                        })?;
                out.extend(specialize(handler, cmd, &function.body, depth + 1)?);
            }
            Stmt::If { cond, then, els } => out.push(Stmt::If {
                cond: cond.clone(),
                then: specialize(handler, cmd, then, depth)?,
                els: specialize(handler, cmd, els, depth)?,
            }),
            Stmt::ForRange { var, count, body } => out.push(Stmt::ForRange {
                var: *var,
                count: count.clone(),
                body: specialize(handler, cmd, body, depth)?,
            }),
            other => out.push(other.clone()),
        }
    }
    Ok(out)
}

/// Specializes a whole handler to one command without classifying it:
/// `switch (cmd)` resolved and helper calls inlined, exactly the slice a
/// JIT entry would carry. The lint passes walk this linearized form so they
/// see the same code for static and JIT commands alike.
///
/// # Errors
///
/// Malformed handlers (unknown helper functions, unbounded call nesting).
pub fn specialize_command(handler: &Handler, cmd: u32) -> Result<Vec<Stmt>, ExtractionError> {
    let entry = handler
        .function(handler.entry())
        .expect("entry checked at construction");
    specialize(handler, cmd, &entry.body, 0)
}

/// Analyzes one command of a handler: specializes it once, then executes
/// the slice symbolically.
///
/// # Errors
///
/// Malformed handlers (unknown helper functions, unbounded call nesting).
pub fn extract_command(handler: &Handler, cmd: u32) -> Result<Extraction, ExtractionError> {
    let slice = specialize_command(handler, cmd)?;
    let mut ops = Vec::new();
    let flow = exec(Some(cmd), &slice, &mut SymEnv::default(), &mut ops);
    Ok(match flow {
        Flow::Dynamic { nested } => Extraction::Jit {
            slice,
            nested_copies: nested,
        },
        Flow::Continue | Flow::Return => Extraction::Static(ops),
    })
}

/// Whole-handler analysis report, the analogue of running the paper's Clang
/// tool over a driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandlerReport {
    /// Per-command verdicts.
    pub commands: BTreeMap<u32, Extraction>,
}

impl HandlerReport {
    /// Commands resolvable entirely offline.
    pub fn static_commands(&self) -> usize {
        self.commands.values().filter(|e| e.is_static()).count()
    }

    /// Commands requiring JIT evaluation.
    pub fn jit_commands(&self) -> usize {
        self.commands.values().filter(|e| !e.is_static()).count()
    }

    /// Commands whose dynamism comes from nested copies (the paper counts 14
    /// in the Radeon driver).
    pub fn nested_copy_commands(&self) -> usize {
        self.commands
            .values()
            .filter(|e| e.has_nested_copies())
            .count()
    }

    /// Total statements across all JIT slices — the "extracted code" size
    /// (the paper reports ~760 generated lines for Radeon).
    pub fn extracted_statements(&self) -> usize {
        fn count(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|stmt| {
                    1 + match stmt {
                        Stmt::If { then, els, .. } => count(then) + count(els),
                        Stmt::ForRange { body, .. } => count(body),
                        Stmt::SwitchCmd { arms, default } => {
                            arms.iter().map(|(_, b)| count(b)).sum::<usize>() + count(default)
                        }
                        _ => 0,
                    }
                })
                .sum()
        }
        self.commands
            .values()
            .map(|e| match e {
                Extraction::Jit { slice, .. } => count(slice),
                Extraction::Static(_) => 0,
            })
            .sum()
    }
}

/// Runs [`extract_command`] for every command the handler dispatches on.
///
/// # Errors
///
/// Propagates extraction failures.
pub fn analyze_handler(handler: &Handler) -> Result<HandlerReport, ExtractionError> {
    let mut commands = BTreeMap::new();
    for cmd in handler.commands() {
        commands.insert(cmd, extract_command(handler, cmd)?);
    }
    Ok(HandlerReport { commands })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, Function, VarId};

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    /// A simple driver: cmd 1 copies a 24-byte struct in, cmd 2 copies one
    /// out, cmd 3 does both (IOWR-style), cmd 4 nothing.
    fn simple_handler() -> Handler {
        Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![
                (
                    1,
                    vec![Stmt::CopyFromUser {
                        dst: v(0),
                        src: Expr::Arg,
                        len: Expr::Const(24),
                    }],
                ),
                (
                    2,
                    vec![Stmt::CopyToUser {
                        dst: Expr::Arg,
                        len: Expr::Const(16),
                    }],
                ),
                (
                    3,
                    vec![
                        Stmt::CopyFromUser {
                            dst: v(0),
                            src: Expr::Arg,
                            len: Expr::Const(32),
                        },
                        Stmt::CopyToUser {
                            dst: Expr::Arg,
                            len: Expr::Const(32),
                        },
                    ],
                ),
                (4, vec![Stmt::Return]),
            ],
            default: vec![Stmt::Return],
        }])
    }

    /// A Radeon-CS-like nested-copy driver: copy a header, then copy a
    /// buffer whose address and length come from header fields.
    fn nested_handler() -> Handler {
        Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![(
                0x66,
                vec![
                    Stmt::CopyFromUser {
                        dst: v(0),
                        src: Expr::Arg,
                        len: Expr::Const(16),
                    },
                    Stmt::CopyFromUser {
                        dst: v(1),
                        src: Expr::field(v(0), 0, 8),
                        len: Expr::field(v(0), 8, 4),
                    },
                ],
            )],
            default: vec![Stmt::Return],
        }])
    }

    #[test]
    fn simple_commands_are_static() {
        let report = analyze_handler(&simple_handler()).unwrap();
        assert_eq!(report.static_commands(), 4);
        assert_eq!(report.jit_commands(), 0);
        let ops = match &report.commands[&3] {
            Extraction::Static(ops) => ops,
            other => panic!("expected static, got {other:?}"),
        };
        assert_eq!(
            ops,
            &vec![
                OpTemplate {
                    kind: OpKind::CopyFromUser,
                    addr: AddrTemplate::ArgPlus(0),
                    len: 32,
                },
                OpTemplate {
                    kind: OpKind::CopyToUser,
                    addr: AddrTemplate::ArgPlus(0),
                    len: 32,
                },
            ]
        );
    }

    #[test]
    fn command_with_no_ops_is_empty_static() {
        let report = analyze_handler(&simple_handler()).unwrap();
        assert_eq!(report.commands[&4], Extraction::Static(vec![]));
    }

    #[test]
    fn nested_copies_detected_and_sliced() {
        let report = analyze_handler(&nested_handler()).unwrap();
        assert_eq!(report.nested_copy_commands(), 1);
        let extraction = &report.commands[&0x66];
        assert!(extraction.has_nested_copies());
        match extraction {
            Extraction::Jit { slice, .. } => {
                // The slice is the arm body: two copies, dispatch resolved.
                assert_eq!(slice.len(), 2);
                assert!(matches!(slice[0], Stmt::CopyFromUser { .. }));
            }
            Extraction::Static(_) => panic!("nested command cannot be static"),
        }
        assert!(report.extracted_statements() >= 2);
    }

    #[test]
    fn arg_offset_arithmetic_stays_static() {
        let handler = Handler::single(vec![Stmt::CopyToUser {
            dst: Expr::add(Expr::Arg, Expr::Const(8)),
            len: Expr::Const(4),
        }]);
        match extract_command(&handler, 0).unwrap() {
            Extraction::Static(ops) => {
                assert_eq!(ops[0].addr, AddrTemplate::ArgPlus(8));
                assert_eq!(ops[0].addr.resolve(0x1000), 0x1008);
            }
            other => panic!("expected static, got {other:?}"),
        }
    }

    #[test]
    fn constant_loops_unroll() {
        let handler = Handler::single(vec![Stmt::ForRange {
            var: v(9),
            count: Expr::Const(3),
            body: vec![Stmt::CopyToUser {
                dst: Expr::add(Expr::Arg, Expr::mul(Expr::Var(v(9)), Expr::Const(16))),
                len: Expr::Const(16),
            }],
        }]);
        match extract_command(&handler, 0).unwrap() {
            Extraction::Static(ops) => {
                assert_eq!(ops.len(), 3);
                assert_eq!(ops[2].addr, AddrTemplate::ArgPlus(32));
            }
            other => panic!("expected static, got {other:?}"),
        }
    }

    #[test]
    fn data_dependent_loop_goes_jit() {
        let handler = Handler::single(vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::ForRange {
                var: v(1),
                count: Expr::field(v(0), 0, 4),
                body: vec![Stmt::CopyToUser {
                    dst: Expr::add(Expr::Arg, Expr::Const(8)),
                    len: Expr::Const(8),
                }],
            },
        ]);
        let extraction = extract_command(&handler, 0).unwrap();
        assert!(extraction.has_nested_copies());
    }

    #[test]
    fn static_branches_resolve_on_cmd() {
        let handler = Handler::single(vec![Stmt::If {
            cond: Cond::Eq(Expr::Cmd, Expr::Const(5)),
            then: vec![Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::Const(64),
            }],
            els: vec![],
        }]);
        match extract_command(&handler, 5).unwrap() {
            Extraction::Static(ops) => assert_eq!(ops.len(), 1),
            other => panic!("expected static, got {other:?}"),
        }
        match extract_command(&handler, 6).unwrap() {
            Extraction::Static(ops) => assert!(ops.is_empty()),
            other => panic!("expected static, got {other:?}"),
        }
    }

    #[test]
    fn helper_calls_inline() {
        let mut functions = BTreeMap::new();
        functions.insert(
            "ioctl".to_owned(),
            Function {
                body: vec![Stmt::Call("do_copy".to_owned())],
            },
        );
        functions.insert(
            "do_copy".to_owned(),
            Function {
                body: vec![Stmt::CopyFromUser {
                    dst: v(0),
                    src: Expr::Arg,
                    len: Expr::Const(12),
                }],
            },
        );
        let handler = Handler::new("ioctl", functions);
        match extract_command(&handler, 0).unwrap() {
            Extraction::Static(ops) => assert_eq!(ops[0].len, 12),
            other => panic!("expected static, got {other:?}"),
        }
    }

    #[test]
    fn unknown_function_is_error() {
        let handler = Handler::single(vec![Stmt::Call("missing".to_owned())]);
        assert_eq!(
            extract_command(&handler, 0),
            Err(ExtractionError::UnknownFunction {
                name: "missing".to_owned()
            })
        );
    }

    #[test]
    fn recursion_detected() {
        let mut functions = BTreeMap::new();
        functions.insert(
            "ioctl".to_owned(),
            Function {
                body: vec![Stmt::Call("ioctl".to_owned())],
            },
        );
        let handler = Handler::new("ioctl", functions);
        assert_eq!(
            extract_command(&handler, 0),
            Err(ExtractionError::CallDepthExceeded)
        );
    }

    #[test]
    fn sym_env_join_keeps_agreement_only() {
        let env = |bindings: &[(u32, SymVal)]| SymEnv {
            vars: bindings.iter().map(|(var, val)| (v(*var), *val)).collect(),
            buffers: BTreeSet::new(),
        };
        let mut a = env(&[(0, SymVal::Const(1)), (1, SymVal::Const(2)), (3, SymVal::Const(5))]);
        let b = env(&[(0, SymVal::Const(1)), (1, SymVal::Const(3)), (2, SymVal::Const(4))]);
        assert!(a.join(&b));
        assert_eq!(a.vars[&v(0)], SymVal::Const(1));
        assert_eq!(a.vars[&v(1)], SymVal::Opaque);
        assert_eq!(a.vars[&v(2)], SymVal::Opaque);
        assert_eq!(a.vars[&v(3)], SymVal::Opaque);
        // Joining the same path again changes nothing: the fixpoint stops.
        assert!(!a.join(&b));
        let mut with_buffer = a.clone();
        with_buffer.fetch_into(v(0));
        assert!(a.join(&with_buffer));
        assert!(a.buffers.contains(&v(0)));
    }
}
