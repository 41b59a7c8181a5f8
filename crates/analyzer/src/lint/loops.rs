//! Structural loop hazards — `SH001`/`SH002`.
//!
//! * **SH001** (warning): a constant trip count above
//!   [`MAX_UNROLL`]. The extractor refuses to
//!   unroll it, so a command that could have had a static grant-table entry
//!   silently pays the JIT path on every call.
//! * **SH002** (warning): an *opaque* trip count — not constant, not the
//!   argument, not derived from user-copied data. The JIT can still bound
//!   it at runtime (the iteration valve), but the analyzer can say nothing
//!   about the command's operations, which usually means the IR lost
//!   information the real driver had.
//!
//! User-data-derived counts (`hdr.count`-style) are the normal nested-copy
//! shape and are not reported. The trip counts come from the shared
//! all-branches walk ([`Envelope`]), which joins the environments of a
//! branch's two arms where they meet.

use crate::extract::{SymVal, MAX_UNROLL};
use crate::lint::envelope::Envelope;
use crate::lint::{DiagCode, Diagnostic};

/// Runs the loop-hazard pass over the trip counts of one command's
/// all-branches envelope.
pub fn check(driver: &str, cmd: u32, envelope: &Envelope, diags: &mut Vec<Diagnostic>) {
    for count in &envelope.trip_counts {
        match *count {
            SymVal::Const(n) if n > MAX_UNROLL => diags.push(Diagnostic::new(
                DiagCode::Sh001,
                driver,
                Some(cmd),
                format!(
                    "loop with constant trip count {n} exceeds the static \
                     unroll limit ({MAX_UNROLL}); the command forfeits its \
                     static grant-table entry and JITs on every call",
                ),
            )),
            SymVal::Opaque => diags.push(Diagnostic::new(
                DiagCode::Sh002,
                driver,
                Some(cmd),
                "loop trip count is opaque to the analyzer (not constant, not \
                 argument-derived, not user-copied data); its operations cannot \
                 be predicted"
                    .to_owned(),
            )),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Expr, Stmt, VarId};

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    fn run(slice: &[Stmt]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check("test", 0, &Envelope::of(0, slice), &mut diags);
        diags
    }

    #[test]
    fn oversized_constant_loop_is_sh001() {
        let slice = vec![Stmt::ForRange {
            var: v(0),
            count: Expr::Const(MAX_UNROLL + 1),
            body: vec![],
        }];
        let diags = run(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Sh001);
    }

    #[test]
    fn small_constant_loop_is_clean() {
        let slice = vec![Stmt::ForRange {
            var: v(0),
            count: Expr::Const(MAX_UNROLL),
            body: vec![],
        }];
        assert!(run(&slice).is_empty());
    }

    #[test]
    fn opaque_count_is_sh002() {
        let slice = vec![Stmt::ForRange {
            var: v(0),
            count: Expr::Var(v(99)),
            body: vec![],
        }];
        let diags = run(&slice);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::Sh002);
    }

    #[test]
    fn user_data_count_is_clean() {
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(16),
            },
            Stmt::ForRange {
                var: v(1),
                count: Expr::field(v(0), 8, 4),
                body: vec![],
            },
        ];
        assert!(run(&slice).is_empty());
    }

    #[test]
    fn nested_loops_both_checked() {
        let slice = vec![Stmt::ForRange {
            var: v(0),
            count: Expr::Const(MAX_UNROLL + 5),
            body: vec![Stmt::ForRange {
                var: v(1),
                count: Expr::Var(v(98)),
                body: vec![],
            }],
        }];
        let diags = run(&slice);
        assert_eq!(diags.len(), 2);
    }
}
