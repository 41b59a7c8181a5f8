//! JIT snapshot property: every byte that feeds grant derivation is pinned
//! to its first-read value, and to nothing an earlier op read.
//!
//! The frontend derives grants by running an extracted slice over the
//! calling process's memory ([`paradice_analyzer::jit`]). That memory is the
//! process's to rewrite at any moment, so the evaluator pins what it
//! fetches: a later fetch overlapping an earlier one must see the earlier
//! bytes, byte-exact, or one decision is split across two copies of the
//! same bytes — the double fetch of [`Mutant::JitRefetchUnsnapshotted`].
//! The shipped evaluator keeps the fetched *ranges* and fetches only
//! the prefix of each copy the slice consumes; the specification here is the
//! obvious one it replaced — a map from address to the first byte read
//! there. The frontend compiles each slice once and runs it per op on one
//! reused scratch, so the pins must also die with their run: a pin one op
//! left behind would answer for the next op's fetch of the same bytes —
//! [`Mutant::JitScratchKeepsPins`].
//!
//! `jit-snapshot` is exhaustive within its bounds: every script of ≤ 3
//! fetches whose ranges start in a 3-byte window and are 0–3 bytes long
//! (which is every overlap shape: equal, nested, partial left and right,
//! adjacent, disjoint), each with every consumed prefix from nothing to all
//! of it, at a low window and at one whose last byte is `u64::MAX` (ranges
//! past it wrap and must be refused), against a reader that returns
//! different bytes on every call. Each script is compiled once and run
//! twice on one scratch, the reader moving on between the runs; each run of
//! [`JitProgram::run`] must yield the model's [`ResolvedOp`]s for that run
//! alone — field values included, since each consumed byte is surfaced as
//! the length of a `CopyToUser`.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};

use paradice_analyzer::ir::{Expr, OpKind, Stmt, VarId};
use paradice_analyzer::jit::{JitError, JitProgram, JitScratch, ResolvedOp, UserReader};
use paradice_analyzer::lint::{DiagCode, Diagnostic};

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

const NAME: &str = "jit-snapshot";
const DESC: &str =
    "JIT double-fetch defense: over every script of ≤ 3 overlapping fetches with every \
     consumed prefix, compiled once and run twice on one scratch under a reader that changes \
     its answer on every call, each run yields the ops and field values of a per-byte \
     first-read-wins model of that run alone";

/// Ranges start at `base + 0..WINDOW` and are `0..=WINDOW` bytes long.
const WINDOW: u64 = 3;
const MAX_FETCHES: usize = 3;
/// The low window, and the one whose last start address is `u64::MAX`.
const BASES: [u64; 2] = [0x1000, u64::MAX - (WINDOW - 1)];

/// One `CopyFromUser` of `len` bytes at `base + start` into a buffer of its
/// own, of which the slice reads the first `consumed` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fetch {
    start: u64,
    len: u64,
    consumed: u64,
}

/// The process racing the frontend: call `n` answers `n` in the high nibble
/// and the address in the low one, so no two calls and no two addresses
/// read alike.
#[derive(Default)]
struct FlippingUser {
    calls: u8,
}

impl UserReader for FlippingUser {
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        self.calls += 1;
        for (i, byte) in buf.iter_mut().enumerate() {
            *byte = self.calls << 4 | (addr.wrapping_add(i as u64) & 0xf) as u8;
        }
        Ok(())
    }
}

/// The slice a script stands for: the fetches in order, then one byte-wide
/// field read per consumed byte, surfaced as a `CopyToUser` length.
fn slice_of(base: u64, script: &[Fetch]) -> Vec<Stmt> {
    let var = |i: usize| VarId(i as u32);
    let fetches = script.iter().enumerate().map(|(i, fetch)| Stmt::CopyFromUser {
        dst: var(i),
        src: Expr::Const(base.wrapping_add(fetch.start)),
        len: Expr::Const(fetch.len),
    });
    let reads = script.iter().enumerate().flat_map(|(i, fetch)| {
        (0..fetch.consumed).map(move |offset| Stmt::CopyToUser {
            dst: Expr::Const(i as u64),
            len: Expr::field(var(i), offset, 1),
        })
    });
    fetches.chain(reads).collect()
}

/// The specification: what the script resolves to when every fetched byte is
/// pinned, individually, to the first value `user` returns at its address
/// in this run — `first_read` holds those, and starts every run empty. With
/// `pin == false` it is the seeded double-fetch bug instead — an evaluator
/// that believes whatever the latest fetch returned — and a `first_read`
/// carried over from an earlier run is the seeded stale-scratch bug.
fn model(
    base: u64,
    script: &[Fetch],
    pin: bool,
    user: &mut FlippingUser,
    first_read: &mut BTreeMap<u64, u8>,
) -> Result<Vec<ResolvedOp>, JitError> {
    let mut ops = Vec::new();
    let mut reads = Vec::new();
    for (i, fetch) in script.iter().enumerate() {
        let addr = base.wrapping_add(fetch.start);
        if addr.checked_add(fetch.len).is_none() {
            return Err(JitError::BadUserRead {
                addr,
                len: fetch.len,
            });
        }
        ops.push(ResolvedOp {
            kind: OpKind::CopyFromUser,
            addr,
            len: fetch.len,
        });
        // An unconsumed copy is granted, not read.
        let mut bytes = vec![0u8; fetch.consumed as usize];
        if !bytes.is_empty() {
            user.read_user(addr, &mut bytes).expect("total reader");
        }
        for (offset, byte) in bytes.into_iter().enumerate() {
            let pinned = *first_read.entry(addr + offset as u64).or_insert(byte);
            reads.push(ResolvedOp {
                kind: OpKind::CopyToUser,
                addr: i as u64,
                len: u64::from(if pin { pinned } else { byte }),
            });
        }
    }
    ops.extend(reads);
    Ok(ops)
}

/// The first op where `actual` and `expected` part.
fn disagreement(
    actual: &Result<Vec<ResolvedOp>, JitError>,
    expected: &Result<Vec<ResolvedOp>, JitError>,
) -> String {
    match (actual, expected) {
        (Ok(actual), Ok(expected)) => actual
            .iter()
            .zip(expected)
            .find(|(a, e)| a != e)
            .map(|(a, e)| {
                format!(
                    "op ({:?}, {:#x}) resolved to {:#x}, first-read-wins pins {:#x}",
                    a.kind, a.addr, a.len, e.len,
                )
            })
            .unwrap_or_else(|| format!("{} ops, the model has {}", actual.len(), expected.len())),
        _ => format!("{actual:?}, the model says {expected:?}"),
    }
}

/// Checks one script, run twice through one compiled program and one
/// scratch while the reader's answers move on; `Err` describes the first
/// disagreement.
fn check_script(base: u64, script: &[Fetch], mutant: Option<Mutant>) -> Result<usize, String> {
    let program = JitProgram::compile(&slice_of(base, script));
    let mut scratch = JitScratch::default();
    let (mut user, mut model_user) = (FlippingUser::default(), FlippingUser::default());
    let mut carried = BTreeMap::new();
    let mut compared = 0;
    for run in 0..2 {
        let expected = model(base, script, true, &mut model_user, &mut BTreeMap::new());
        let actual = match mutant {
            Some(Mutant::JitRefetchUnsnapshotted) => {
                model(base, script, false, &mut user, &mut BTreeMap::new())
            }
            Some(Mutant::JitScratchKeepsPins) => model(base, script, true, &mut user, &mut carried),
            _ => {
                // A scratch left stale by the run before can make the
                // evaluator panic: that is a disproof too, not a crash.
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    let mut ops = Vec::new();
                    program
                        .run(&mut scratch, 0, 0, &mut user, &mut |op| ops.push(op))
                        .map(|()| ops)
                }));
                outcome.map_err(|_| format!("the program panicked in run {} of 2", run + 1))?
            }
        };
        if actual != expected {
            let detail = disagreement(&actual, &expected);
            return Err(if run == 0 {
                format!(
                    "a value feeding grant derivation changed between two fetches of the same \
                     bytes: {detail}"
                )
            } else {
                format!("a run of the program saw bytes pinned by the run before it: {detail}")
            });
        }
        compared += expected.map_or(1, |ops| ops.len());
    }
    Ok(compared)
}

fn fixture_of(base: u64, script: &[Fetch], mutant: Option<Mutant>, reason: &str) -> Fixture {
    let mut fixture = Fixture::new(NAME, mutant.map(Mutant::name), reason);
    fixture.push_data("base", base.to_string());
    for fetch in script {
        fixture.push_data(
            "fetch",
            format!("{}:{}:{}", fetch.start, fetch.len, fetch.consumed),
        );
    }
    fixture
}

/// `jit-snapshot`: the exhaustive sweep described in the module docs.
pub fn check_snapshot(mutant: Option<Mutant>) -> PropertyReport {
    let mut shapes = Vec::new();
    for start in 0..WINDOW {
        for len in 0..=WINDOW {
            for consumed in 0..=len {
                shapes.push(Fetch {
                    start,
                    len,
                    consumed,
                });
            }
        }
    }
    let mut scripts = 0usize;
    let mut checks = 0usize;
    for base in BASES {
        // Odometer over shape indices, shortest scripts first, so the first
        // counterexample is a minimal one.
        for fetches in 1..=MAX_FETCHES {
            let mut pick = vec![0usize; fetches];
            loop {
                let script: Vec<Fetch> = pick.iter().map(|&i| shapes[i]).collect();
                scripts += 1;
                match check_script(base, &script, mutant) {
                    Ok(compared) => checks += compared,
                    Err(reason) => {
                        let finding = Diagnostic::new(DiagCode::Vp004, "jit", None, reason.clone());
                        let fixture = fixture_of(base, &script, mutant, &reason);
                        return PropertyReport::disproved(
                            NAME,
                            DESC,
                            scripts,
                            checks,
                            vec![finding],
                            Some(fixture),
                        );
                    }
                }
                let Some(digit) = pick.iter().rposition(|&i| i + 1 < shapes.len()) else {
                    break;
                };
                pick[digit] += 1;
                pick[digit + 1..].fill(0);
            }
        }
    }
    PropertyReport::proved(NAME, DESC, scripts, checks)
}

/// Replays a `jit-snapshot` fixture (`base=`, then one `fetch=start:len:consumed`
/// line per fetch) under `mutant`.
///
/// # Errors
///
/// `Err(reason)` when the recorded disagreement reproduces, or the fixture
/// is malformed.
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    let number = |text: &str| {
        text.parse::<u64>()
            .map_err(|_| format!("bad number {text:?} in jit-snapshot fixture"))
    };
    let base = number(fixture.value("base").ok_or("fixture has no base= line")?)?;
    let mut script = Vec::new();
    for line in fixture.values("fetch") {
        let fields: Vec<&str> = line.split(':').collect();
        let [start, len, consumed] = fields[..] else {
            return Err(format!("bad fetch line {line:?}: want start:len:consumed"));
        };
        script.push(Fetch {
            start: number(start)?,
            len: number(len)?,
            consumed: number(consumed)?.min(number(len)?),
        });
    }
    check_script(base, &script, mutant).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shipped_evaluator_proves_over_every_overlap_shape() {
        let report = check_snapshot(None);
        assert!(report.proved, "{:?}", report.findings);
        // 30 shapes; 30 + 30² + 30³ scripts at each of the two windows.
        assert_eq!(report.states, 2 * (30 + 900 + 27_000));
        assert!(report.transitions > report.states);
    }

    #[test]
    fn an_unpinned_refetch_is_disproved_with_a_minimal_replayable_script() {
        let report = check_snapshot(Some(Mutant::JitRefetchUnsnapshotted));
        assert!(!report.proved);
        let fixture = report.counterexample.expect("fixture emitted");
        // Two consumed fetches of one byte are enough.
        assert_eq!(fixture.values("fetch").len(), 2);
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::JitRefetchUnsnapshotted)).is_err());
    }

    #[test]
    fn a_scratch_that_keeps_pins_is_disproved_by_one_consumed_fetch() {
        let report = check_snapshot(Some(Mutant::JitScratchKeepsPins));
        assert!(!report.proved);
        let fixture = report.counterexample.expect("fixture emitted");
        assert_eq!(fixture.values("fetch"), ["0:1:1"]);
        assert!(replay(&fixture, None).is_ok());
        assert!(replay(&fixture, Some(Mutant::JitScratchKeepsPins)).is_err());
    }

    #[test]
    fn the_model_refuses_what_wraps_and_skips_what_is_unconsumed() {
        let top = BASES[1];
        let wraps = [Fetch {
            start: 1,
            len: 3,
            consumed: 0,
        }];
        let run = |base, script: &[Fetch]| {
            model(base, script, true, &mut FlippingUser::default(), &mut BTreeMap::new())
        };
        assert!(matches!(
            run(top, &wraps),
            Err(JitError::BadUserRead { len: 3, .. })
        ));
        assert!(check_script(top, &wraps, None).is_ok());
        // The unconsumed first fetch makes no call: the second one's byte is
        // call 1's.
        let script = [
            Fetch {
                start: 0,
                len: 3,
                consumed: 0,
            },
            Fetch {
                start: 0,
                len: 1,
                consumed: 1,
            },
        ];
        let ops = run(0x1000, &script).unwrap();
        assert_eq!(ops[2].len, 0x10);
    }
}
