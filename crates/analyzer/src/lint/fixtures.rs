//! Seeded-bug fixture handler.
//!
//! A deliberately buggy driver IR that trips every static pass with a known
//! diagnostic code — the lint suite's ground truth. The integration tests
//! (and `paradice-lint --fixtures`) assert that each seeded bug fires with
//! *exactly* its expected code; a pass that goes quiet on its fixture is
//! broken, not clean.

use std::collections::BTreeMap;

use paradice_devfs::ioc::{io, iow, iowr, IoctlCmd};

use crate::extract::MAX_UNROLL;
use crate::ir::{Cond, Expr, Function, Handler, Stmt, VarId};

/// Double fetch with consumption in between → `DF001`.
pub const FIX_DOUBLE_FETCH: IoctlCmd = iowr(b'!', 1, 16);
/// Overlapping re-fetch without consumption → `DF002`.
pub const FIX_REFETCH: IoctlCmd = iow(b'!', 2, 8);
/// Declared 64-byte envelope, handler touches 8 → `OG001` (both directions).
pub const FIX_OVER_GRANT: IoctlCmd = iowr(b'!', 3, 64);
/// `_IOWR` declared but the handler never copies back → `OG002`.
pub const FIX_DEAD_DIR: IoctlCmd = iowr(b'!', 4, 16);
/// Constant loop past the unroll limit → `SH001`.
pub const FIX_BIG_LOOP: IoctlCmd = iow(b'!', 5, 4);
/// Opaque loop trip count → `SH002`.
pub const FIX_OPAQUE_LOOP: IoctlCmd = io(b'!', 6);
/// Nested-copy chain past the depth limit → `SH005`.
pub const FIX_DEEP_CHAIN: IoctlCmd = iow(b'!', 7, 16);
/// Calls a helper that does not exist → `SH006`.
pub const FIX_UNKNOWN_FN: IoctlCmd = io(b'!', 8);
/// Recursive helper → `SH003`.
pub const FIX_RECURSION: IoctlCmd = io(b'!', 9);
/// Cross-helper double fetch: one helper re-fetches, another consumes the
/// first copy *after* the re-fetch → `DF001` (flow pass only; the syntactic
/// walker, which classifies at fetch time, sees a harmless `DF002`).
pub const FIX_XHELPER_DF: IoctlCmd = iowr(b'!', 10, 16);
/// Fixed twin of [`FIX_XHELPER_DF`]: fetches once, helpers consume that one
/// copy → clean.
pub const FIX_XHELPER_DF_FIXED: IoctlCmd = iowr(b'!', 11, 16);
/// Nested copy sized `field * const` with no bounds check → `TA001`.
pub const FIX_OVERFLOW_LEN: IoctlCmd = iow(b'!', 12, 16);
/// Fixed twin of [`FIX_OVERFLOW_LEN`]: a dominating `if (count > max)
/// return;` guard before the sized copy → clean.
pub const FIX_OVERFLOW_LEN_FIXED: IoctlCmd = iow(b'!', 13, 16);

/// The fixture driver's name as reported in diagnostics.
pub const FIXTURE_DRIVER: &str = "fixture-buggy";

fn v(n: u32) -> VarId {
    VarId(n)
}

fn fetch(dst: u32, len: u64) -> Stmt {
    Stmt::CopyFromUser {
        dst: v(dst),
        src: Expr::Arg,
        len: Expr::Const(len),
    }
}

fn writeback(len: u64) -> Stmt {
    Stmt::CopyToUser {
        dst: Expr::Arg,
        len: Expr::Const(len),
    }
}

/// Builds the seeded-bug handler. Every arm trips exactly the pass named in
/// its command constant's docs; the duplicate `FIX_DOUBLE_FETCH` arm
/// additionally trips `SH004`.
pub fn buggy_handler() -> Handler {
    let deep_chain = {
        let mut body = vec![fetch(0, 16)];
        for i in 1..=5u32 {
            body.push(Stmt::CopyFromUser {
                dst: v(i),
                src: Expr::field(v(i - 1), 0, 8),
                len: Expr::Const(16),
            });
        }
        body
    };
    let entry = vec![Stmt::SwitchCmd {
        arms: vec![
            (
                FIX_DOUBLE_FETCH.raw(),
                vec![
                    fetch(0, 16),
                    // Consume a field of the first copy (a "validated" size)…
                    Stmt::Assign {
                        var: v(5),
                        value: Expr::field(v(0), 0, 4),
                    },
                    // …then fetch the same region again and use *that*.
                    fetch(1, 16),
                    writeback(16),
                ],
            ),
            (FIX_REFETCH.raw(), vec![fetch(0, 8), fetch(1, 8)]),
            (FIX_OVER_GRANT.raw(), vec![fetch(0, 8), writeback(8)]),
            (FIX_DEAD_DIR.raw(), vec![fetch(0, 16)]),
            (
                FIX_BIG_LOOP.raw(),
                vec![
                    fetch(0, 4),
                    Stmt::ForRange {
                        var: v(9),
                        count: Expr::Const(MAX_UNROLL * 2),
                        body: vec![Stmt::Assign {
                            var: v(3),
                            value: Expr::Var(v(9)),
                        }],
                    },
                ],
            ),
            (
                FIX_OPAQUE_LOOP.raw(),
                vec![Stmt::ForRange {
                    var: v(9),
                    count: Expr::Var(v(99)),
                    body: vec![],
                }],
            ),
            (FIX_DEEP_CHAIN.raw(), deep_chain),
            (FIX_UNKNOWN_FN.raw(), vec![Stmt::Call("missing_helper".to_owned())]),
            (FIX_RECURSION.raw(), vec![Stmt::Call("recurse".to_owned())]),
            (
                FIX_XHELPER_DF.raw(),
                vec![
                    fetch(0, 16),
                    // One helper re-fetches the same region…
                    Stmt::Call("xh_refetch".to_owned()),
                    // …another still consumes the *first* copy afterwards:
                    // the decision is split across two copies.
                    Stmt::Call("xh_commit".to_owned()),
                    writeback(16),
                ],
            ),
            (
                FIX_XHELPER_DF_FIXED.raw(),
                vec![
                    fetch(0, 16),
                    Stmt::Call("xh_commit_fixed".to_owned()),
                    writeback(16),
                ],
            ),
            (
                FIX_OVERFLOW_LEN.raw(),
                vec![
                    fetch(0, 16),
                    Stmt::CopyFromUser {
                        dst: v(1),
                        src: Expr::field(v(0), 8, 8),
                        len: Expr::mul(Expr::field(v(0), 0, 4), Expr::Const(16)),
                    },
                ],
            ),
            (
                FIX_OVERFLOW_LEN_FIXED.raw(),
                vec![
                    fetch(0, 16),
                    Stmt::If {
                        cond: Cond::Gt(Expr::field(v(0), 0, 4), Expr::Const(64)),
                        then: vec![Stmt::Return],
                        els: vec![],
                    },
                    Stmt::CopyFromUser {
                        dst: v(1),
                        src: Expr::field(v(0), 8, 8),
                        len: Expr::mul(Expr::field(v(0), 0, 4), Expr::Const(16)),
                    },
                ],
            ),
            // Duplicate arm: unreachable, `SH004`.
            (FIX_DOUBLE_FETCH.raw(), vec![Stmt::Return]),
        ],
        default: vec![Stmt::Return],
    }];
    let mut functions = BTreeMap::new();
    functions.insert("ioctl".to_owned(), Function { body: entry });
    functions.insert(
        "recurse".to_owned(),
        Function {
            body: vec![Stmt::Call("recurse".to_owned())],
        },
    );
    functions.insert(
        "xh_refetch".to_owned(),
        Function {
            body: vec![fetch(1, 16)],
        },
    );
    functions.insert(
        "xh_commit".to_owned(),
        Function {
            body: vec![
                Stmt::Assign {
                    var: v(5),
                    value: Expr::field(v(0), 0, 4),
                },
                Stmt::Assign {
                    var: v(6),
                    value: Expr::field(v(1), 4, 4),
                },
            ],
        },
    );
    functions.insert(
        "xh_commit_fixed".to_owned(),
        Function {
            body: vec![Stmt::Assign {
                var: v(5),
                value: Expr::field(v(0), 0, 4),
            }],
        },
    );
    Handler::new("ioctl", functions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::{lint_handler, DiagCode};

    #[test]
    fn every_seeded_bug_fires_with_its_code() {
        let diags = lint_handler(FIXTURE_DRIVER, &buggy_handler());
        let fired = |code: DiagCode, cmd: IoctlCmd| {
            diags
                .iter()
                .any(|d| d.code == code && d.command == Some(cmd.raw()))
        };
        assert!(fired(DiagCode::Df001, FIX_DOUBLE_FETCH));
        assert!(fired(DiagCode::Df002, FIX_REFETCH));
        assert!(fired(DiagCode::Og001, FIX_OVER_GRANT));
        assert!(fired(DiagCode::Og002, FIX_DEAD_DIR));
        assert!(fired(DiagCode::Sh001, FIX_BIG_LOOP));
        assert!(fired(DiagCode::Sh002, FIX_OPAQUE_LOOP));
        assert!(fired(DiagCode::Sh004, FIX_DOUBLE_FETCH));
        assert!(fired(DiagCode::Sh005, FIX_DEEP_CHAIN));
        assert!(fired(DiagCode::Sh006, FIX_UNKNOWN_FN));
        assert!(fired(DiagCode::Sh003, FIX_RECURSION));
        assert!(fired(DiagCode::Df001, FIX_XHELPER_DF));
        assert!(fired(DiagCode::Ta001, FIX_OVERFLOW_LEN));
    }

    #[test]
    fn fixed_twins_are_clean() {
        let diags = lint_handler(FIXTURE_DRIVER, &buggy_handler());
        for cmd in [FIX_XHELPER_DF_FIXED, FIX_OVERFLOW_LEN_FIXED] {
            let on_cmd: Vec<_> = diags
                .iter()
                .filter(|d| d.command == Some(cmd.raw()))
                .collect();
            assert!(on_cmd.is_empty(), "{on_cmd:?}");
        }
    }

    #[test]
    fn cross_helper_double_fetch_upgrades_past_the_syntactic_pass() {
        // The syntactic walker classified at fetch time: when the helper
        // re-fetched, nothing was consumed yet, so it reported only DF002
        // (its frozen findings). The flow pass sees the post-re-fetch
        // consumption via the backward summary and upgrades to DF001.
        let frozen = include_str!("../../../../tests/fixtures/syntactic_double_fetch.expected");
        let cmd = FIX_XHELPER_DF.raw();
        let line = format!("{FIXTURE_DRIVER} {cmd:#010x} DF002");
        assert!(frozen.lines().any(|l| l == line), "{frozen}");
        let diags = lint_handler(FIXTURE_DRIVER, &buggy_handler());
        assert!(
            diags
                .iter()
                .any(|d| d.code == DiagCode::Df001 && d.command == Some(cmd)),
            "{diags:?}"
        );
    }

    #[test]
    fn no_cross_contamination() {
        // The clean-by-construction arms must not pick up each other's
        // codes: the refetch arm must not be DF001, the over-grant arm must
        // not double-fetch.
        let diags = lint_handler(FIXTURE_DRIVER, &buggy_handler());
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagCode::Df001 && d.command == Some(FIX_REFETCH.raw())));
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagCode::Df001 && d.command == Some(FIX_OVER_GRANT.raw())));
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagCode::Og001 && d.command == Some(FIX_DOUBLE_FETCH.raw())));
        // The taint fixture must not also double-fetch, and vice versa.
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagCode::Df001 && d.command == Some(FIX_OVERFLOW_LEN.raw())));
        assert!(!diags
            .iter()
            .any(|d| d.code == DiagCode::Ta001 && d.command == Some(FIX_XHELPER_DF.raw())));
    }
}
