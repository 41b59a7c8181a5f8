//! Shared symbolic machinery for the lint passes.
//!
//! Every pass walks a *specialized slice* (see
//! [`specialize_command`](crate::extract::specialize_command)) and needs the
//! same question answered: "what does this address/length expression look
//! like relative to the ioctl argument?". [`SymScalar`] is the lint suite's
//! slightly coarser cousin of the extractor's internal lattice — it keeps
//! the distinction between *user-data-derived* values (nested copies; fine,
//! the JIT grants them precisely) and *opaque* values (unbound variables,
//! nonlinear arithmetic; the analyzer can say nothing about them).

use std::collections::{BTreeMap, BTreeSet};

use crate::ir::{Cond, Expr, OpKind, Stmt, VarId};

/// Symbolic value of a scalar expression in a specialized slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymScalar {
    /// A compile-time constant (absolute address or literal length).
    Const(u64),
    /// The ioctl argument plus a constant offset — the declared-envelope
    /// case.
    ArgPlus(u64),
    /// Derived from bytes copied in from user space (nested-copy data; the
    /// JIT path grants these exactly at runtime).
    UserData,
    /// Nothing useful is known (unbound variable, nonlinear arithmetic).
    Opaque,
}

impl SymScalar {
    /// Whether a memory access at this address can escape static reasoning.
    pub fn is_dynamic(self) -> bool {
        matches!(self, SymScalar::UserData | SymScalar::Opaque)
    }
}

/// Evaluates an expression against an environment of scalar bindings and a
/// set of variables known to hold user-copied buffers.
pub fn eval_expr(
    env: &BTreeMap<VarId, SymScalar>,
    buffers: &BTreeSet<VarId>,
    expr: &Expr,
) -> SymScalar {
    match expr {
        Expr::Const(value) => SymScalar::Const(*value),
        Expr::Arg => SymScalar::ArgPlus(0),
        // Slices are specialized to one command, but the constant is not
        // threaded here; `Cmd` in address math is driver-defined weirdness.
        Expr::Cmd => SymScalar::Opaque,
        Expr::Var(var) => env.get(var).copied().unwrap_or(SymScalar::Opaque),
        Expr::Field { base, .. } => {
            if buffers.contains(base) {
                SymScalar::UserData
            } else {
                SymScalar::Opaque
            }
        }
        Expr::Add(a, b) => match (eval_expr(env, buffers, a), eval_expr(env, buffers, b)) {
            (SymScalar::Const(x), SymScalar::Const(y)) => SymScalar::Const(x.wrapping_add(y)),
            (SymScalar::ArgPlus(x), SymScalar::Const(y))
            | (SymScalar::Const(y), SymScalar::ArgPlus(x)) => {
                SymScalar::ArgPlus(x.wrapping_add(y))
            }
            (SymScalar::UserData, _) | (_, SymScalar::UserData) => SymScalar::UserData,
            _ => SymScalar::Opaque,
        },
        Expr::Mul(a, b) => match (eval_expr(env, buffers, a), eval_expr(env, buffers, b)) {
            (SymScalar::Const(x), SymScalar::Const(y)) => SymScalar::Const(x.wrapping_mul(y)),
            (SymScalar::UserData, _) | (_, SymScalar::UserData) => SymScalar::UserData,
            _ => SymScalar::Opaque,
        },
    }
}

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

/// Merges the variable environments of two exclusive branches: bindings that
/// agree survive, everything else degrades to [`SymScalar::Opaque`].
pub fn merge_env(
    mut then_env: BTreeMap<VarId, SymScalar>,
    els_env: &BTreeMap<VarId, SymScalar>,
) -> BTreeMap<VarId, SymScalar> {
    for (var, value) in els_env {
        match then_env.get(var) {
            Some(existing) if existing == value => {}
            _ => {
                then_env.insert(*var, SymScalar::Opaque);
            }
        }
    }
    let stale: Vec<VarId> = then_env
        .keys()
        .filter(|var| !els_env.contains_key(*var))
        .copied()
        .collect();
    for var in stale {
        then_env.insert(var, SymScalar::Opaque);
    }
    then_env
}

/// One user-memory access observed while walking a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Copy direction.
    pub kind: OpKind,
    /// Symbolic address.
    pub addr: SymScalar,
    /// Constant byte length, if statically known.
    pub len: Option<u64>,
    /// Whether the access sits inside a `ForRange` body.
    pub in_loop: bool,
}

impl Access {
    /// The `[offset, offset+len)` interval inside the declared `arg`
    /// envelope, when both ends are statically known.
    pub fn arg_interval(&self) -> Option<(u64, u64)> {
        match (self.addr, self.len) {
            (SymScalar::ArgPlus(offset), Some(len)) => Some((offset, offset + len)),
            _ => None,
        }
    }
}

fn walk(
    stmts: &[Stmt],
    env: &mut BTreeMap<VarId, SymScalar>,
    buffers: &mut BTreeSet<VarId>,
    in_loop: bool,
    out: &mut Vec<Access>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value } => {
                let value = eval_expr(env, buffers, value);
                env.insert(*var, value);
            }
            Stmt::CopyFromUser { dst, src, len } => {
                let addr = eval_expr(env, buffers, src);
                let len = match eval_expr(env, buffers, len) {
                    SymScalar::Const(n) => Some(n),
                    _ => None,
                };
                out.push(Access {
                    kind: OpKind::CopyFromUser,
                    addr,
                    len,
                    in_loop,
                });
                buffers.insert(*dst);
                env.remove(dst);
            }
            Stmt::CopyToUser { dst, len } => {
                let addr = eval_expr(env, buffers, dst);
                let len = match eval_expr(env, buffers, len) {
                    SymScalar::Const(n) => Some(n),
                    _ => None,
                };
                out.push(Access {
                    kind: OpKind::CopyToUser,
                    addr,
                    len,
                    in_loop,
                });
            }
            Stmt::If { then, els, .. } => {
                let mut then_env = env.clone();
                let mut then_buffers = buffers.clone();
                walk(then, &mut then_env, &mut then_buffers, in_loop, out);
                walk(els, env, buffers, in_loop, out);
                *env = merge_env(then_env, env);
                buffers.extend(then_buffers);
            }
            Stmt::ForRange { var, body, .. } => {
                // One conservative pass with the counter opaque: accesses
                // whose address depends on it surface as dynamic, which is
                // exactly how the grant machinery must treat them.
                env.insert(*var, SymScalar::Opaque);
                walk(body, env, buffers, true, out);
            }
            Stmt::Return => return,
            // Slices are specialized; anything left is malformed and the
            // orchestrator reports it before the passes run.
            Stmt::SwitchCmd { .. } | Stmt::Call(_) => {}
        }
    }
}

/// Collects every user-memory access a specialized slice can perform, over
/// *all* branches (both arms of each `If`, loop bodies once).
pub fn collect_accesses(slice: &[Stmt]) -> Vec<Access> {
    let mut env = BTreeMap::new();
    let mut buffers = BTreeSet::new();
    let mut out = Vec::new();
    walk(slice, &mut env, &mut buffers, false, &mut out);
    out
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
        let accesses = collect_accesses(&slice);
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
        let accesses = collect_accesses(&slice);
        assert_eq!(accesses.len(), 1);
        assert!(accesses[0].in_loop);
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
        let accesses = collect_accesses(&slice);
        assert_eq!(accesses[1].addr, SymScalar::UserData);
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
    fn merge_env_keeps_agreement_only() {
        let mut a = BTreeMap::new();
        a.insert(v(0), SymScalar::Const(1));
        a.insert(v(1), SymScalar::Const(2));
        let mut b = BTreeMap::new();
        b.insert(v(0), SymScalar::Const(1));
        b.insert(v(1), SymScalar::Const(3));
        b.insert(v(2), SymScalar::Const(4));
        let merged = merge_env(a, &b);
        assert_eq!(merged[&v(0)], SymScalar::Const(1));
        assert_eq!(merged[&v(1)], SymScalar::Opaque);
        assert_eq!(merged[&v(2)], SymScalar::Opaque);
    }
}
