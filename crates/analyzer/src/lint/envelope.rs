//! The all-branches reading of a specialized slice, shared by the lint
//! passes.
//!
//! Extraction follows one path: it resolves constant branches and stops at
//! the first copy that needs runtime data. A lint pass must instead see
//! everything a command *can* do. [`Envelope::of`] walks every arm of every
//! `If` and every loop body once, over the analyzer's one abstract value
//! ([`SymVal`]) and environment ([`SymEnv`]), joining the two arms'
//! environments where they meet. It records each user-memory access, which
//! [`over_grant`](super::over_grant) reads, and each loop's trip count,
//! which [`loops`](super::loops) reads. [`interval`] is the one place a
//! static access becomes a byte range, for those passes and
//! [`double_fetch`](super::double_fetch) alike.

use std::collections::BTreeSet;

use crate::extract::{SymEnv, SymVal};
use crate::ir::{Cond, Expr, OpKind, Stmt, VarId};

/// Collects every buffer variable whose *fields* an expression reads — the
/// consumption signal the double-fetch pass keys on.
pub fn field_bases(expr: &Expr, out: &mut BTreeSet<VarId>) {
    expr.for_each_field(&mut |base, _, _| {
        out.insert(base);
    });
}

/// [`field_bases`] over a condition's both sides.
pub fn cond_field_bases(cond: &Cond, out: &mut BTreeSet<VarId>) {
    cond.for_each_field(&mut |base, _, _| {
        out.insert(base);
    });
}

/// [`field_bases`] over a statement's own operands (not its nested bodies).
pub fn stmt_field_bases(stmt: &Stmt, out: &mut BTreeSet<VarId>) {
    stmt.for_each_field(&mut |base, _, _| {
        out.insert(base);
    });
}

/// The `[start, end)` byte range of a `len`-byte access at a constant or
/// `arg + k` address, relative to its base. `None` for a dynamic address,
/// and for a range whose end overflows `u64`: that access is not
/// statically bounded.
pub fn interval(addr: SymVal, len: u64) -> Option<(u64, u64)> {
    match addr {
        SymVal::Const(start) | SymVal::ArgPlus(start) => Some((start, start.checked_add(len)?)),
        SymVal::UserData | SymVal::Opaque => None,
    }
}

/// One user-memory access observed while walking a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Copy direction.
    pub kind: OpKind,
    /// Symbolic address.
    pub addr: SymVal,
    /// Constant byte length, if statically known.
    pub len: Option<u64>,
}

impl Access {
    /// The `[offset, offset+len)` interval inside the declared `arg`
    /// envelope, when the access is statically bounded there.
    pub fn arg_interval(&self) -> Option<(u64, u64)> {
        match self.addr {
            SymVal::ArgPlus(_) => interval(self.addr, self.len?),
            _ => None,
        }
    }
}

/// What one all-branches walk of a specialized slice observes.
#[derive(Debug, Default)]
pub struct Envelope {
    /// Every user-memory access the slice can perform, in statement order.
    pub accesses: Vec<Access>,
    /// Every loop's symbolic trip count, in statement order.
    pub trip_counts: Vec<SymVal>,
}

impl Envelope {
    /// Walks `slice`, specialized to `cmd`, over all branches: both arms of
    /// each `If`, each loop body once with its counter opaque.
    pub fn of(cmd: u32, slice: &[Stmt]) -> Envelope {
        let mut out = Envelope::default();
        out.walk(Some(cmd), slice, &mut SymEnv::default());
        out
    }

    fn record(&mut self, kind: OpKind, addr: SymVal, len: SymVal) {
        let len = match len {
            SymVal::Const(n) => Some(n),
            _ => None,
        };
        self.accesses.push(Access { kind, addr, len });
    }

    fn walk(&mut self, cmd: Option<u32>, stmts: &[Stmt], env: &mut SymEnv) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { var, value } => {
                    let value = env.eval(cmd, value);
                    env.vars.insert(*var, value);
                }
                Stmt::CopyFromUser { dst, src, len } => {
                    let (addr, len) = (env.eval(cmd, src), env.eval(cmd, len));
                    self.record(OpKind::CopyFromUser, addr, len);
                    env.fetch_into(*dst);
                }
                Stmt::CopyToUser { dst, len } => {
                    let (addr, len) = (env.eval(cmd, dst), env.eval(cmd, len));
                    self.record(OpKind::CopyToUser, addr, len);
                }
                Stmt::If { then, els, .. } => {
                    let mut then_env = env.clone();
                    self.walk(cmd, then, &mut then_env);
                    self.walk(cmd, els, env);
                    env.join(&then_env);
                }
                Stmt::ForRange { var, count, body } => {
                    // One conservative pass with the counter opaque: accesses
                    // whose address depends on it surface as dynamic, which
                    // is exactly how the grant machinery must treat them.
                    self.trip_counts.push(env.eval(cmd, count));
                    env.vars.insert(*var, SymVal::Opaque);
                    self.walk(cmd, body, env);
                }
                Stmt::Return => return,
                // Slices are specialized; anything left is malformed and the
                // orchestrator reports it before the passes run.
                Stmt::SwitchCmd { .. } | Stmt::Call(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Expr;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    #[test]
    fn accesses_collected_across_branches() {
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(16),
            },
            Stmt::If {
                cond: Cond::Ne(Expr::field(v(0), 0, 4), Expr::Const(0)),
                then: vec![Stmt::CopyToUser {
                    dst: Expr::add(Expr::Arg, Expr::Const(8)),
                    len: Expr::Const(8),
                }],
                els: vec![Stmt::CopyToUser {
                    dst: Expr::Arg,
                    len: Expr::Const(4),
                }],
            },
        ];
        let accesses = Envelope::of(0, &slice).accesses;
        assert_eq!(accesses.len(), 3);
        assert_eq!(accesses[1].arg_interval(), Some((8, 16)));
        assert_eq!(accesses[2].arg_interval(), Some((0, 4)));
    }

    #[test]
    fn loop_counter_is_opaque() {
        let slice = vec![Stmt::ForRange {
            var: v(1),
            count: Expr::Const(4),
            body: vec![Stmt::CopyToUser {
                dst: Expr::add(Expr::Arg, Expr::mul(Expr::Var(v(1)), Expr::Const(16))),
                len: Expr::Const(16),
            }],
        }];
        let accesses = Envelope::of(0, &slice).accesses;
        assert_eq!(accesses.len(), 1);
        assert!(accesses[0].addr.is_dynamic());
    }

    #[test]
    fn nested_copy_addresses_are_user_data() {
        let slice = vec![
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
        ];
        let accesses = Envelope::of(0, &slice).accesses;
        assert_eq!(accesses[1].addr, SymVal::UserData);
        assert_eq!(accesses[1].len, None);
    }

    #[test]
    fn field_bases_found_in_nested_arithmetic() {
        let expr = Expr::add(
            Expr::field(v(3), 0, 8),
            Expr::mul(Expr::Var(v(9)), Expr::field(v(4), 4, 4)),
        );
        let mut bases = BTreeSet::new();
        field_bases(&expr, &mut bases);
        assert_eq!(bases.into_iter().collect::<Vec<_>>(), vec![v(3), v(4)]);
    }

    #[test]
    fn trip_counts_are_read_after_joining_both_arms() {
        let assign = |var: u32, n: u64| Stmt::Assign {
            var: v(var),
            value: Expr::Const(n),
        };
        let count = |var: u32| Stmt::ForRange {
            var: v(9),
            count: Expr::Var(v(var)),
            body: vec![],
        };
        let slice = vec![
            Stmt::If {
                cond: Cond::Eq(Expr::Arg, Expr::Const(0)),
                then: vec![assign(1, 4), assign(2, 4)],
                els: vec![assign(1, 4), assign(2, 8), count(2)],
            },
            count(1),
            count(2),
        ];
        // The else arm sees its own binding, not the then arm's; after the
        // join only the agreeing binding survives.
        assert_eq!(
            Envelope::of(0, &slice).trip_counts,
            vec![SymVal::Const(8), SymVal::Const(4), SymVal::Opaque]
        );
    }
}
