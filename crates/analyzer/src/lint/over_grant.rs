//! Over-grant detection — `OG001`/`OG002`/`OG003`.
//!
//! The CVD frontend derives the grant envelope for simple commands straight
//! from the `_IOC` encoding: direction and parameter-struct size "embed the
//! size of these data structures and the direction of the copy" (paper
//! §4.1). Least privilege then demands the envelope match what the handler
//! actually does:
//!
//! * **OG001** (error): the declared envelope is *provably wider* than
//!   every operation the handler can perform in that direction — the grant
//!   exposes process memory the driver never touches.
//! * **OG002** (error): a declared direction is never performed at all
//!   (e.g. `_IOWR` but the handler never copies back). The whole
//!   direction's grant is dead weight.
//! * **OG003** (warning): the handler reaches *outside* the declared
//!   envelope with a statically-concrete access — under Paradice the
//!   hypervisor would block it at runtime; natively it is an ABI lie.
//!
//! Accesses at user-data-derived or opaque addresses (nested copies) are
//! granted precisely by the JIT path and suppress OG001/OG002 for their
//! direction — the pass only claims what it can prove. So does an access
//! whose end would pass `u64::MAX`: it has no interval to compare.
//! The accesses come from the shared all-branches walk ([`Envelope`]).

use paradice_devfs::ioc::IoctlCmd;

use crate::extract::SymVal;
use crate::ir::OpKind;
use crate::lint::envelope::{Access, Envelope};
use crate::lint::{DiagCode, Diagnostic};

fn direction_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::CopyFromUser => "from-user",
        OpKind::CopyToUser => "to-user",
    }
}

fn check_direction(
    driver: &str,
    cmd: u32,
    accesses: &[Access],
    kind: OpKind,
    declared: bool,
    declared_size: u64,
    diags: &mut Vec<Diagnostic>,
) {
    // Absolute-address accesses don't participate in the arg envelope; they
    // are rare (fixed mappings) and granted as absolute static templates.
    let of_kind: Vec<&Access> = accesses
        .iter()
        .filter(|a| a.kind == kind && !matches!(a.addr, SymVal::Const(_)))
        .collect();
    let arg_intervals: Vec<(u64, u64)> = of_kind.iter().filter_map(|a| a.arg_interval()).collect();
    // An access with no interval (a dynamic address or length, or an end
    // past `u64::MAX`) is not statically bounded: the JIT grants it.
    let has_dynamic = arg_intervals.len() < of_kind.len();
    let max_extent = arg_intervals.iter().map(|(_, end)| *end).max().unwrap_or(0);

    if declared && declared_size > 0 {
        if of_kind.is_empty() {
            diags.push(Diagnostic::new(
                DiagCode::Og002,
                driver,
                Some(cmd),
                format!(
                    "command declares a {}-byte {} envelope but the handler never copies \
                     in that direction; the grant is pure over-exposure",
                    declared_size,
                    direction_name(kind),
                ),
            ));
        } else if !has_dynamic && max_extent < declared_size {
            // Grant-width minimization hint: re-encode the command with the
            // size the handler provably needs, so the frontend's `_IOC`
            // fallback would derive the tight envelope.
            let ioc = IoctlCmd(cmd);
            let tight = IoctlCmd::new(ioc.dir(), ioc.ty(), ioc.nr(), max_extent as u32);
            diags.push(Diagnostic::new(
                DiagCode::Og001,
                driver,
                Some(cmd),
                format!(
                    "command declares a {}-byte {} envelope but the handler provably \
                     touches at most {} bytes of it; the grant should shrink to match \
                     (tight encoding: {tight})",
                    declared_size,
                    direction_name(kind),
                    max_extent,
                ),
            ));
        }
    }

    // Escapes: concrete accesses beyond the declared envelope (or in an
    // undeclared direction). Dynamic accesses are the JIT's to grant.
    for (start, end) in &arg_intervals {
        if !declared {
            diags.push(Diagnostic::new(
                DiagCode::Og003,
                driver,
                Some(cmd),
                format!(
                    "handler performs a {} copy of [arg+{}, arg+{}) but the command \
                     number declares no {} direction; the hypervisor would block it",
                    direction_name(kind),
                    start,
                    end,
                    direction_name(kind),
                ),
            ));
        } else if *end > declared_size {
            diags.push(Diagnostic::new(
                DiagCode::Og003,
                driver,
                Some(cmd),
                format!(
                    "handler {} copy of [arg+{}, arg+{}) runs past the declared \
                     {}-byte envelope",
                    direction_name(kind),
                    start,
                    end,
                    declared_size,
                ),
            ));
        }
    }
}

/// Runs the over-grant pass over one command's all-branches envelope.
pub fn check(driver: &str, cmd: u32, envelope: &Envelope, diags: &mut Vec<Diagnostic>) {
    let ioc = IoctlCmd(cmd);
    let size = u64::from(ioc.size());
    for (kind, declared) in [
        (OpKind::CopyFromUser, ioc.dir().copies_from_user()),
        (OpKind::CopyToUser, ioc.dir().copies_to_user()),
    ] {
        check_direction(driver, cmd, &envelope.accesses, kind, declared, size, diags);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, Stmt, VarId};
    use paradice_devfs::ioc::{io, ior, iow, iowr};

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    fn inout(len: u64) -> Vec<Stmt> {
        vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(len),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::Const(len),
            },
        ]
    }

    fn run(cmd: u32, slice: &[Stmt]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check("test", cmd, &Envelope::of(cmd, slice), &mut diags);
        diags
    }

    #[test]
    fn matching_envelope_is_clean() {
        assert!(run(iowr(b'X', 1, 16).raw(), &inout(16)).is_empty());
    }

    #[test]
    fn wider_declaration_is_og001_per_direction() {
        let diags = run(iowr(b'X', 2, 64).raw(), &inout(8));
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == DiagCode::Og001));
    }

    #[test]
    fn og001_suggests_the_tight_encoding() {
        let diags = run(iowr(b'X', 2, 64).raw(), &inout(8));
        let tight = iowr(b'X', 2, 8);
        assert!(
            diags
                .iter()
                .all(|d| d.message.contains(&format!("tight encoding: {tight}"))),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_direction_is_og002() {
        // _IOWR declared, handler only copies in.
        let slice = vec![Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(4),
        }];
        let diags = run(iowr(b'X', 3, 4).raw(), &slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Og002);
    }

    #[test]
    fn escape_past_envelope_is_og003() {
        let slice = vec![Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::add(Expr::Arg, Expr::Const(8)),
            len: Expr::Const(16),
        }];
        let diags = run(iow(b'X', 4, 16).raw(), &slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Og003);
    }

    #[test]
    fn undeclared_direction_is_og003() {
        // _IOR declared (to-user only) but the handler also reads.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::Const(8),
            },
        ];
        let diags = run(ior(b'X', 5, 8).raw(), &slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Og003);
    }

    #[test]
    fn nested_copies_suppress_og001() {
        // PWRITE shape: declared 32, concrete fetch covers 32, second fetch
        // dynamic. No over-grant provable.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(32),
            },
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::field(v(0), 24, 8),
                len: Expr::field(v(0), 16, 8),
            },
        ];
        assert!(run(iow(b'X', 6, 32).raw(), &slice).is_empty());
    }

    #[test]
    fn io_command_with_no_ops_is_clean() {
        assert!(run(io(b'X', 7).raw(), &[Stmt::Return]).is_empty());
    }

    #[test]
    fn io_command_with_ops_is_og003() {
        let slice = vec![Stmt::CopyToUser {
            dst: Expr::Arg,
            len: Expr::Const(4),
        }];
        let diags = run(io(b'X', 8).raw(), &slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Og003);
    }

    #[test]
    fn an_access_whose_end_wraps_is_not_statically_bounded() {
        // `arg + u64::MAX` is `arg - 1`: the 8 bytes straddle the argument,
        // so no interval inside the envelope describes them. The to-user
        // direction is dynamic, not a 7-byte over-grant.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(16),
            },
            Stmt::CopyToUser {
                dst: Expr::add(Expr::Arg, Expr::Const(u64::MAX)),
                len: Expr::Const(8),
            },
        ];
        assert!(run(iowr(b'T', 1, 16).raw(), &slice).is_empty());
    }
}
