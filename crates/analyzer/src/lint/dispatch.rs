//! Dispatch-structure hazards — `SH004`/`SH005`.
//!
//! * **SH004** (warning): a dead `switch (cmd)` arm — either a duplicate of
//!   an earlier arm in the same switch (first match wins, so the second body
//!   is unreachable) or an inner switch arm that can never match because an
//!   enclosing arm already pinned the command to a different value. Dead
//!   arms are how handlers drift out of sync with their command tables.
//! * **SH005** (warning): a nested-copy chain deeper than
//!   [`NESTED_CHAIN_LIMIT`] — fetch → field → fetch → field → … Each level
//!   multiplies the JIT's runtime work and widens the surface a malicious
//!   process can steer; real drivers (Radeon CS, i915 EXECBUFFER2) stop at
//!   depth 3.

use std::collections::{BTreeMap, BTreeSet};

use crate::ir::{Handler, Stmt, VarId};
use crate::lint::{DiagCode, Diagnostic};

/// Deepest fetch-field-fetch chain considered reasonable.
pub const NESTED_CHAIN_LIMIT: usize = 4;

fn check_switches(stmts: &[Stmt], pinned: Option<u32>, driver: &str, diags: &mut Vec<Diagnostic>) {
    for stmt in stmts {
        match stmt {
            Stmt::SwitchCmd { arms, default } => {
                let mut seen: BTreeSet<u32> = BTreeSet::new();
                for (cmd, body) in arms {
                    if !seen.insert(*cmd) {
                        diags.push(Diagnostic::new(
                            DiagCode::Sh004,
                            driver,
                            Some(*cmd),
                            format!(
                                "duplicate switch arm for command {cmd:#010x}; dispatch \
                                 takes the first match, this body is unreachable",
                            ),
                        ));
                    } else if let Some(outer) = pinned {
                        if outer != *cmd {
                            diags.push(Diagnostic::new(
                                DiagCode::Sh004,
                                driver,
                                Some(*cmd),
                                format!(
                                    "switch arm for command {cmd:#010x} is nested under \
                                     an arm that already pinned the command to \
                                     {outer:#010x}; it can never match",
                                ),
                            ));
                        }
                    }
                    check_switches(body, Some(*cmd), driver, diags);
                }
                check_switches(default, pinned, driver, diags);
            }
            Stmt::If { then, els, .. } => {
                check_switches(then, pinned, driver, diags);
                check_switches(els, pinned, driver, diags);
            }
            Stmt::ForRange { body, .. } => check_switches(body, pinned, driver, diags),
            _ => {}
        }
    }
}

/// Handler-level dispatch check (`SH004`), walked over every function body.
pub fn check_handler(driver: &str, handler: &Handler, diags: &mut Vec<Diagnostic>) {
    let entry = handler
        .function(handler.entry())
        .expect("entry checked at construction");
    check_switches(&entry.body, None, driver, diags);
}

fn chain_walk(
    stmts: &[Stmt],
    depth: &mut BTreeMap<VarId, usize>,
    deepest: &mut usize,
) {
    for stmt in stmts {
        match stmt {
            Stmt::CopyFromUser { dst, .. } => {
                let mut feeding = 0;
                stmt.for_each_field(&mut |base, _, _| {
                    feeding = feeding.max(depth.get(&base).copied().unwrap_or(0));
                });
                let this = feeding + 1;
                depth.insert(*dst, this);
                *deepest = (*deepest).max(this);
            }
            Stmt::If { then, els, .. } => {
                chain_walk(then, depth, deepest);
                chain_walk(els, depth, deepest);
            }
            Stmt::ForRange { body, .. } => chain_walk(body, depth, deepest),
            _ => {}
        }
    }
}

/// Per-command nested-copy chain-depth check (`SH005`).
pub fn check_chain_depth(driver: &str, cmd: u32, slice: &[Stmt], diags: &mut Vec<Diagnostic>) {
    let mut depth = BTreeMap::new();
    let mut deepest = 0;
    chain_walk(slice, &mut depth, &mut deepest);
    if deepest > NESTED_CHAIN_LIMIT {
        diags.push(Diagnostic::new(
            DiagCode::Sh005,
            driver,
            Some(cmd),
            format!(
                "nested-copy chain reaches depth {deepest} (limit \
                 {NESTED_CHAIN_LIMIT}); each level is a user-steered fetch the JIT \
                 must chase at runtime",
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Expr;

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    fn arm(cmd: u32) -> (u32, Vec<Stmt>) {
        (cmd, vec![Stmt::Return])
    }

    #[test]
    fn duplicate_arm_is_sh004() {
        let handler = Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![arm(1), arm(2), arm(1)],
            default: vec![],
        }]);
        let mut diags = Vec::new();
        check_handler("test", &handler, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Sh004);
        assert_eq!(diags[0].command, Some(1));
    }

    #[test]
    fn pinned_inner_arm_is_sh004() {
        let handler = Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![(
                1,
                vec![Stmt::SwitchCmd {
                    arms: vec![arm(1), arm(2)],
                    default: vec![],
                }],
            )],
            default: vec![],
        }]);
        let mut diags = Vec::new();
        check_handler("test", &handler, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].command, Some(2));
    }

    #[test]
    fn distinct_arms_are_clean() {
        let handler = Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![arm(1), arm(2), arm(3)],
            default: vec![],
        }]);
        let mut diags = Vec::new();
        check_handler("test", &handler, &mut diags);
        assert!(diags.is_empty());
    }

    fn chained_fetch(dst: u32, from: u32) -> Stmt {
        Stmt::CopyFromUser {
            dst: v(dst),
            src: Expr::field(v(from), 0, 8),
            len: Expr::Const(16),
        }
    }

    #[test]
    fn shallow_chain_is_clean() {
        // Radeon CS depth: 3.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(16),
            },
            chained_fetch(1, 0),
            chained_fetch(2, 1),
        ];
        let mut diags = Vec::new();
        check_chain_depth("test", 0, &slice, &mut diags);
        assert!(diags.is_empty());
    }

    #[test]
    fn deep_chain_is_sh005() {
        let mut slice = vec![Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(16),
        }];
        for i in 1..=(NESTED_CHAIN_LIMIT as u32) {
            slice.push(chained_fetch(i, i - 1));
        }
        let mut diags = Vec::new();
        check_chain_depth("test", 0, &slice, &mut diags);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Sh005);
    }
}
