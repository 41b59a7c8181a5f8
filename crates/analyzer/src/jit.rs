//! Just-in-time evaluation of extracted slices.
//!
//! "Offline execution is impossible for some memory operations, such as the
//! nested copies mentioned above. In this case, the CVD frontend identifies
//! the memory operation arguments just-in-time by executing the extracted
//! code at runtime" (paper §4.1).
//!
//! [`evaluate_slice`] interprets a specialized slice with the concrete ioctl
//! argument. Reads of user memory go through a [`UserReader`] — the frontend
//! reads the *calling process's own* memory, so this step needs no special
//! privileges — and produce the concrete operation list the frontend then
//! declares in the grant table.
//!
//! # What is fetched, and why it is pinned
//!
//! The slice is *extracted* code: user bytes feed an address, length, branch
//! or trip count only through an [`Expr::Field`] read. So a `CopyFromUser`
//! into `dst` fetches `min(len, extent(dst))` bytes — `extent(dst)` is the
//! highest `offset + width` the slice reads from `dst`, 0 if none — and
//! records the operation with its full `len`: a header is read, a 16-MiB
//! `GEM_PWRITE` payload is granted without being allocated or touched, and
//! memory is a function of IR constants, never of a user-supplied length.
//!
//! A process could change a buffer between two fetches of the same address
//! (the double-fetch/TOCTOU hazard of every cross-domain copy boundary), so
//! what is fetched is pinned in a per-evaluation **consumed-range
//! snapshot**: a later fetch is overlaid with the first-read bytes wherever
//! it overlaps an earlier one, byte-exact. Bytes never fetched need no
//! pinning — nothing that decides a grant depends on them, and the driver
//! reads them once, through the grant, as a native `copy_from_user` would.
//! (The static half of the defense is the `DF*` passes in [`crate::lint`].)

use std::collections::BTreeMap;
use std::fmt;

use crate::ir::{Cond, Expr, OpKind, Stmt, VarId};

/// Iteration safety valve for runtime loops (a malicious process could claim
/// a huge chunk count; the frontend refuses rather than spins).
const MAX_JIT_ITERATIONS: u64 = 1 << 20;

/// How the JIT reads the calling process's memory.
pub trait UserReader {
    /// Reads `buf.len()` bytes of user memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns `Err(())` for unmapped addresses; the JIT surfaces it as
    /// [`JitError::BadUserRead`] and the ioctl fails with `EFAULT` before
    /// ever reaching the driver. Only consumed bytes (headers) are read: an
    /// unmapped payload is forwarded with its grant and faults in the
    /// driver's own `copy_from_user`, as it does natively.
    #[allow(clippy::result_unit_err)] // the only failure is EFAULT; callers map it
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()>;
}

/// Errors during JIT evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// A user-memory read failed, or the range wraps the address space.
    BadUserRead {
        /// The faulting address.
        addr: u64,
        /// The length requested.
        len: u64,
    },
    /// An expression referenced a variable that was never assigned.
    UnboundVariable {
        /// The variable.
        var: VarId,
    },
    /// A field read targeted a variable that is not a copied buffer, ran
    /// past its end, or is malformed (width not 1, 2, 4 or 8; `offset +
    /// width` overflows).
    BadFieldRead {
        /// The buffer variable.
        var: VarId,
    },
    /// A loop exceeded the iteration safety valve.
    IterationLimit,
    /// A `SwitchCmd` or `Call` survived specialization — slice corrupt.
    UnspecializedStatement,
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::BadUserRead { addr, len } => {
                write!(f, "user read of {len} bytes at {addr:#x} failed")
            }
            JitError::UnboundVariable { var } => write!(f, "unbound variable {var}"),
            JitError::BadFieldRead { var } => write!(f, "bad field read from {var}"),
            JitError::IterationLimit => f.write_str("JIT iteration limit exceeded"),
            JitError::UnspecializedStatement => {
                f.write_str("slice contains unspecialized dispatch")
            }
        }
    }
}

impl std::error::Error for JitError {}

/// A fully concrete memory operation produced by JIT evaluation (or by
/// resolving a static template).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResolvedOp {
    /// Copy direction.
    pub kind: OpKind,
    /// User-space address.
    pub addr: u64,
    /// Byte length.
    pub len: u64,
}

#[derive(Debug, Clone)]
enum RtVal {
    Scalar(u64),
    Buffer(Vec<u8>),
}

struct JitState<'a> {
    arg: u64,
    cmd: u32,
    env: BTreeMap<VarId, RtVal>,
    ops: Vec<ResolvedOp>,
    reader: &'a mut dyn UserReader,
    iterations: u64,
    /// `extent(dst)` of every buffer variable the slice reads fields of.
    extents: BTreeMap<VarId, u64>,
    /// The largest extent: no pinned range is longer than this.
    max_extent: u64,
    /// First-read-wins snapshot (double-fetch defense): every fetched range
    /// by start address, pinned to the bytes the evaluation saw there
    /// whatever the [`UserReader`] would return now. Ranges are stored
    /// *after* overlay, so any two agree where they overlap.
    pinned: BTreeMap<u64, Vec<u8>>,
}

/// One walk of the slice: validates every field read (`width` 1, 2, 4 or 8,
/// `offset + width` representable) and returns each buffer variable's
/// highest `offset + width` — all a fetch into it has to cover.
fn field_extents(slice: &[Stmt]) -> Result<BTreeMap<VarId, u64>, JitError> {
    fn walk(stmts: &[Stmt], visit: &mut impl FnMut(VarId, u64, u8)) {
        for stmt in stmts {
            stmt.for_each_field(visit);
            match stmt {
                Stmt::If { then, els, .. } => {
                    walk(then, visit);
                    walk(els, visit);
                }
                Stmt::ForRange { body, .. } => walk(body, visit),
                // Unspecialized dispatch is refused when execution gets there.
                _ => {}
            }
        }
    }
    let mut extents = BTreeMap::new();
    let mut malformed = None;
    walk(slice, &mut |base, offset, width| {
        let end = offset.checked_add(u64::from(width));
        match end.filter(|_| matches!(width, 1 | 2 | 4 | 8)) {
            Some(end) => {
                let extent = extents.entry(base).or_insert(0);
                *extent = end.max(*extent);
            }
            None => malformed = malformed.or(Some(base)),
        }
    });
    malformed.map_or(Ok(extents), |var| Err(JitError::BadFieldRead { var }))
}

/// Reads `[addr, addr + n)` through the reader and pins it. Bytes an earlier
/// fetch already saw keep their first-read value; `addr + n` must not wrap.
fn fetch(state: &mut JitState<'_>, addr: u64, n: u64) -> Result<Vec<u8>, ()> {
    let mut bytes = vec![0u8; n as usize];
    if n == 0 {
        return Ok(bytes);
    }
    state.reader.read_user(addr, &mut bytes)?;
    let end = addr + n;
    // Only ranges starting less than `max_extent` below `addr` reach it: the
    // overlay costs IR constants, however many fetches a loop has made.
    let reach = addr.saturating_sub(state.max_extent);
    for (&start, seen) in state.pinned.range(reach..end) {
        let (lo, hi) = (addr.max(start), end.min(start + seen.len() as u64));
        if lo < hi {
            bytes[(lo - addr) as usize..(hi - addr) as usize]
                .copy_from_slice(&seen[(lo - start) as usize..(hi - start) as usize]);
        }
    }
    // Same start: the longer post-overlay range subsumes the shorter.
    let slot = state.pinned.entry(addr).or_default();
    if slot.len() < bytes.len() {
        slot.clone_from(&bytes);
    }
    Ok(bytes)
}

fn eval(state: &JitState<'_>, expr: &Expr) -> Result<u64, JitError> {
    match expr {
        Expr::Const(value) => Ok(*value),
        Expr::Arg => Ok(state.arg),
        Expr::Cmd => Ok(u64::from(state.cmd)),
        Expr::Var(var) => match state.env.get(var) {
            Some(RtVal::Scalar(value)) => Ok(*value),
            Some(RtVal::Buffer(_)) => Err(JitError::BadFieldRead { var: *var }),
            None => Err(JitError::UnboundVariable { var: *var }),
        },
        Expr::Field {
            base,
            offset,
            width,
        } => {
            let bytes = match state.env.get(base) {
                Some(RtVal::Buffer(bytes)) => bytes,
                _ => return Err(JitError::BadFieldRead { var: *base }),
            };
            // `field_extents` checked the width and that this cannot wrap.
            let start = *offset as usize;
            let slice = bytes
                .get(start..start + *width as usize)
                .ok_or(JitError::BadFieldRead { var: *base })?;
            let mut raw = [0u8; 8];
            raw[..slice.len()].copy_from_slice(slice);
            Ok(u64::from_le_bytes(raw))
        }
        Expr::Add(a, b) => Ok(eval(state, a)?.wrapping_add(eval(state, b)?)),
        Expr::Mul(a, b) => Ok(eval(state, a)?.wrapping_mul(eval(state, b)?)),
    }
}

fn eval_cond(state: &JitState<'_>, cond: &Cond) -> Result<bool, JitError> {
    Ok(match cond {
        Cond::Eq(a, b) => eval(state, a)? == eval(state, b)?,
        Cond::Ne(a, b) => eval(state, a)? != eval(state, b)?,
        Cond::Lt(a, b) => eval(state, a)? < eval(state, b)?,
        Cond::Gt(a, b) => eval(state, a)? > eval(state, b)?,
    })
}

enum Flow {
    Continue,
    Return,
}

fn exec(stmts: &[Stmt], state: &mut JitState<'_>) -> Result<Flow, JitError> {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value } => {
                let value = eval(state, value)?;
                state.env.insert(*var, RtVal::Scalar(value));
            }
            Stmt::CopyFromUser { dst, src, len } => {
                let addr = eval(state, src)?;
                let len = eval(state, len)?;
                let bad_read = JitError::BadUserRead { addr, len };
                // No mapping can satisfy a range that wraps the address space.
                if addr.checked_add(len).is_none() {
                    return Err(bad_read);
                }
                // The payload beyond what the slice consumes feeds nothing.
                let consumed = state.extents.get(dst).map_or(0, |extent| len.min(*extent));
                let bytes = fetch(state, addr, consumed).map_err(|()| bad_read)?;
                state.ops.push(ResolvedOp {
                    kind: OpKind::CopyFromUser,
                    addr,
                    len,
                });
                state.env.insert(*dst, RtVal::Buffer(bytes));
            }
            Stmt::CopyToUser { dst, len } => {
                let addr = eval(state, dst)?;
                let len = eval(state, len)?;
                state.ops.push(ResolvedOp {
                    kind: OpKind::CopyToUser,
                    addr,
                    len,
                });
            }
            Stmt::If { cond, then, els } => {
                let taken = eval_cond(state, cond)?;
                let body = if taken { then } else { els };
                match exec(body, state)? {
                    Flow::Continue => {}
                    Flow::Return => return Ok(Flow::Return),
                }
            }
            Stmt::ForRange { var, count, body } => {
                let count = eval(state, count)?;
                for i in 0..count {
                    state.iterations += 1;
                    if state.iterations > MAX_JIT_ITERATIONS {
                        return Err(JitError::IterationLimit);
                    }
                    state.env.insert(*var, RtVal::Scalar(i));
                    match exec(body, state)? {
                        Flow::Continue => {}
                        Flow::Return => return Ok(Flow::Return),
                    }
                }
            }
            Stmt::Return => return Ok(Flow::Return),
            Stmt::SwitchCmd { .. } | Stmt::Call(_) => {
                return Err(JitError::UnspecializedStatement)
            }
        }
    }
    Ok(Flow::Continue)
}

/// Evaluates a specialized slice against the concrete ioctl `arg`, reading
/// the caller's memory through `reader`, and returns the concrete operation
/// list to declare as grants.
///
/// # Errors
///
/// Propagates bad user reads, malformed slices and runaway loops.
pub fn evaluate_slice(
    slice: &[Stmt],
    cmd: u32,
    arg: u64,
    reader: &mut dyn UserReader,
) -> Result<Vec<ResolvedOp>, JitError> {
    let extents = field_extents(slice)?;
    let mut state = JitState {
        arg,
        cmd,
        env: BTreeMap::new(),
        ops: Vec::new(),
        reader,
        iterations: 0,
        max_extent: extents.values().copied().max().unwrap_or(0),
        extents,
        pinned: BTreeMap::new(),
    };
    exec(slice, &mut state)?;
    Ok(state.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{extract_command, Extraction};
    use crate::ir::{Expr, Handler, VarId};

    /// User memory backed by a flat buffer starting at address 0x1000.
    struct FlatUser {
        base: u64,
        bytes: Vec<u8>,
    }

    impl UserReader for FlatUser {
        fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
            let start = addr.checked_sub(self.base).ok_or(())? as usize;
            let end = start.checked_add(buf.len()).ok_or(())?;
            let slice = self.bytes.get(start..end).ok_or(())?;
            buf.copy_from_slice(slice);
            Ok(())
        }
    }

    fn v(n: u32) -> VarId {
        VarId(n)
    }

    #[test]
    fn nested_copy_resolves_against_user_data() {
        // Header at arg: { u64 buf_ptr; u32 buf_len; }. The JIT must read
        // the header to learn the second copy's arguments.
        let handler = Handler::single(vec![Stmt::SwitchCmd {
            arms: vec![(
                0x66,
                vec![
                    Stmt::CopyFromUser {
                        dst: v(0),
                        src: Expr::Arg,
                        len: Expr::Const(12),
                    },
                    Stmt::CopyFromUser {
                        dst: v(1),
                        src: Expr::field(v(0), 0, 8),
                        len: Expr::field(v(0), 8, 4),
                    },
                ],
            )],
            default: vec![Stmt::Return],
        }]);
        let slice = match extract_command(&handler, 0x66).unwrap() {
            Extraction::Jit { slice, .. } => slice,
            Extraction::Static(_) => panic!("nested command must be JIT"),
        };
        // User memory: header at 0x1000 pointing at 0x2000 with length 40.
        let mut header = Vec::new();
        header.extend_from_slice(&0x2000u64.to_le_bytes());
        header.extend_from_slice(&40u32.to_le_bytes());
        let mut user = FlatUser {
            base: 0x1000,
            bytes: {
                let mut bytes = vec![0u8; 0x2000];
                bytes[..12].copy_from_slice(&header);
                bytes
            },
        };
        let ops = evaluate_slice(&slice, 0x66, 0x1000, &mut user).unwrap();
        assert_eq!(
            ops,
            vec![
                ResolvedOp {
                    kind: OpKind::CopyFromUser,
                    addr: 0x1000,
                    len: 12,
                },
                ResolvedOp {
                    kind: OpKind::CopyFromUser,
                    addr: 0x2000,
                    len: 40,
                },
            ]
        );
    }

    #[test]
    fn data_dependent_branch_resolves_concretely() {
        // if (hdr.flag != 0) copy_to_user(arg+8, 64) else nothing.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(4),
            },
            Stmt::If {
                cond: Cond::Ne(Expr::field(v(0), 0, 4), Expr::Const(0)),
                then: vec![Stmt::CopyToUser {
                    dst: Expr::add(Expr::Arg, Expr::Const(8)),
                    len: Expr::Const(64),
                }],
                els: vec![],
            },
        ];
        let mut on = FlatUser {
            base: 0,
            bytes: vec![1, 0, 0, 0],
        };
        let ops = evaluate_slice(&slice, 0, 0, &mut on).unwrap();
        assert_eq!(ops.len(), 2);
        let mut off = FlatUser {
            base: 0,
            bytes: vec![0, 0, 0, 0],
        };
        let ops = evaluate_slice(&slice, 0, 0, &mut off).unwrap();
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn data_dependent_loop_generates_per_chunk_ops() {
        // count at arg; then per-chunk copies at arg+8+i*16.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(4),
            },
            Stmt::ForRange {
                var: v(1),
                count: Expr::field(v(0), 0, 4),
                body: vec![Stmt::CopyFromUser {
                    dst: v(2),
                    src: Expr::add(
                        Expr::Arg,
                        Expr::add(Expr::Const(8), Expr::mul(Expr::Var(v(1)), Expr::Const(16))),
                    ),
                    len: Expr::Const(16),
                }],
            },
        ];
        let mut user = FlatUser {
            base: 0x100,
            bytes: {
                let mut bytes = vec![0u8; 256];
                bytes[..4].copy_from_slice(&3u32.to_le_bytes());
                bytes
            },
        };
        let ops = evaluate_slice(&slice, 0, 0x100, &mut user).unwrap();
        assert_eq!(ops.len(), 4); // header + 3 chunks
        assert_eq!(ops[3].addr, 0x100 + 8 + 2 * 16);
    }

    #[test]
    fn bad_user_read_surfaces() {
        // The header's last field sizes a copy, so all 64 bytes are consumed
        // and the unmapped tail faults here, before the driver.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(64),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(0), 56, 8),
            },
        ];
        let mut tiny = FlatUser {
            base: 0,
            bytes: vec![0u8; 8],
        };
        assert_eq!(
            evaluate_slice(&slice, 0, 0, &mut tiny),
            Err(JitError::BadUserRead { addr: 0, len: 64 })
        );
    }

    /// Logs every `(addr, len)` the JIT requests of the wrapped reader.
    struct Recording<R> {
        inner: R,
        reads: Vec<(u64, usize)>,
    }

    impl<R: UserReader> UserReader for Recording<R> {
        fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
            self.reads.push((addr, buf.len()));
            self.inner.read_user(addr, buf)
        }
    }

    #[test]
    fn unconsumed_payload_is_never_fetched() {
        // PWRITE shape: a 32-byte header names a 16-MiB payload at an
        // address the reader cannot serve. Nothing reads the payload's
        // fields, so it is granted in full and never touched.
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
        let mut header = vec![0u8; 32];
        header[16..24].copy_from_slice(&(16u64 << 20).to_le_bytes());
        header[24..32].copy_from_slice(&0xdead_0000u64.to_le_bytes());
        let mut user = Recording {
            inner: FlatUser {
                base: 0x1000,
                bytes: header,
            },
            reads: Vec::new(),
        };
        let ops = evaluate_slice(&slice, 0, 0x1000, &mut user).unwrap();
        assert_eq!(user.reads, vec![(0x1000, 32)]);
        assert_eq!(
            ops[1],
            ResolvedOp {
                kind: OpKind::CopyFromUser,
                addr: 0xdead_0000,
                len: 16 << 20,
            }
        );
    }

    #[test]
    fn consumed_prefix_only_is_fetched() {
        // A 64-byte struct of which only a u32 at offset 8 is read: the
        // fetch stops at byte 12 (which is all that is mapped here), the
        // grant covers all 64.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(64),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(0), 8, 4),
            },
        ];
        let mut bytes = vec![0u8; 12];
        bytes[8..12].copy_from_slice(&7u32.to_le_bytes());
        let mut user = Recording {
            inner: FlatUser { base: 0x40, bytes },
            reads: Vec::new(),
        };
        let ops = evaluate_slice(&slice, 0, 0x40, &mut user).unwrap();
        assert_eq!(user.reads, vec![(0x40, 12)]);
        assert_eq!((ops[0].addr, ops[0].len), (0x40, 64));
        assert_eq!(ops[1].len, 7);
    }

    #[test]
    fn malformed_field_is_an_error_not_a_panic() {
        for (offset, width) in [(0, 16), (0, 3), (0, 0), (u64::MAX - 3, 8)] {
            let slice = vec![
                Stmt::CopyFromUser {
                    dst: v(0),
                    src: Expr::Arg,
                    len: Expr::Const(32),
                },
                Stmt::CopyToUser {
                    dst: Expr::Arg,
                    len: Expr::field(v(0), offset, width),
                },
            ];
            let mut user = FlatUser {
                base: 0,
                bytes: vec![0u8; 32],
            };
            assert_eq!(
                evaluate_slice(&slice, 0, 0, &mut user),
                Err(JitError::BadFieldRead { var: v(0) }),
                "field({offset}, {width})"
            );
        }
    }

    #[test]
    fn a_range_that_wraps_the_address_space_is_a_bad_read() {
        let fetch_at = |addr: u64| {
            let slice = vec![Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Const(addr),
                len: Expr::Const(8),
            }];
            let mut user = Recording {
                inner: MutatingUser { calls: 0 },
                reads: Vec::new(),
            };
            (evaluate_slice(&slice, 0, 0, &mut user), user.reads)
        };
        // Consumed or not, `addr + len` past 2^64 names no memory.
        let addr = u64::MAX - 3;
        assert_eq!(
            fetch_at(addr),
            (Err(JitError::BadUserRead { addr, len: 8 }), vec![])
        );
        // The last range that still fits is an ordinary operation.
        assert_eq!(fetch_at(u64::MAX - 8).0.unwrap()[0].len, 8);
    }

    #[test]
    fn runaway_loop_capped() {
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::ForRange {
                var: v(1),
                count: Expr::field(v(0), 0, 8),
                body: vec![Stmt::Assign {
                    var: v(2),
                    value: Expr::Const(0),
                }],
            },
        ];
        let mut user = FlatUser {
            base: 0,
            bytes: u64::MAX.to_le_bytes().to_vec(),
        };
        assert_eq!(
            evaluate_slice(&slice, 0, 0, &mut user),
            Err(JitError::IterationLimit)
        );
    }

    #[test]
    fn unspecialized_slice_rejected() {
        let slice = vec![Stmt::Call("helper".to_owned())];
        let mut user = FlatUser {
            base: 0,
            bytes: vec![],
        };
        assert_eq!(
            evaluate_slice(&slice, 0, 0, &mut user),
            Err(JitError::UnspecializedStatement)
        );
    }

    /// A hostile reader that returns *different* bytes every call — models a
    /// second thread flipping the buffer between fetches.
    struct MutatingUser {
        calls: u8,
    }

    impl UserReader for MutatingUser {
        fn read_user(&mut self, _addr: u64, buf: &mut [u8]) -> Result<(), ()> {
            self.calls = self.calls.wrapping_add(1);
            for byte in buf.iter_mut() {
                *byte = self.calls;
            }
            Ok(())
        }
    }

    #[test]
    fn repeated_reads_are_snapshotted() {
        // Fetch the same 8 bytes twice; a size field drawn from each copy
        // sizes a copy_to_user. Without the snapshot cache the second fetch
        // would observe mutated bytes and the two ops would disagree —
        // exactly the TOCTOU window the cache closes.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(0), 0, 4),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(1), 0, 4),
            },
        ];
        let mut user = MutatingUser { calls: 0 };
        let ops = evaluate_slice(&slice, 0, 0x1000, &mut user).unwrap();
        assert!(user.calls >= 2, "both fetches must hit the reader");
        // Both CopyToUser lengths derive from what should be identical data.
        assert_eq!(
            ops[2], ops[3],
            "snapshot cache must pin repeated reads to the first-fetched bytes"
        );
        // And the pinned value is the FIRST read's (calls == 1 → 0x01010101).
        assert_eq!(ops[2].len, 0x0101_0101);
    }

    #[test]
    fn overlapping_reads_are_snapshotted_bytewise() {
        // Second fetch overlaps the first by 4 bytes and extends past it.
        // The overlap must come from the snapshot; the extension is fresh.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(8),
            },
            Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::add(Expr::Arg, Expr::Const(4)),
                len: Expr::Const(8),
            },
            // The first copy's upper half is consumed — that pins it.
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(0), 4, 4),
            },
            // Overlapped half: must equal the first fetch's bytes (0x01s).
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(1), 0, 4),
            },
            // Fresh half: first read of those addresses (second call → 0x02s).
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(1), 4, 4),
            },
        ];
        let mut user = MutatingUser { calls: 0 };
        let ops = evaluate_slice(&slice, 0, 0x1000, &mut user).unwrap();
        assert_eq!(ops[2].len, 0x0101_0101);
        assert_eq!(ops[3].len, 0x0101_0101);
        assert_eq!(ops[4].len, 0x0202_0202);
    }

    #[test]
    fn unbound_variable_rejected() {
        let slice = vec![Stmt::CopyToUser {
            dst: Expr::Var(v(42)),
            len: Expr::Const(1),
        }];
        let mut user = FlatUser {
            base: 0,
            bytes: vec![],
        };
        assert_eq!(
            evaluate_slice(&slice, 0, 0, &mut user),
            Err(JitError::UnboundVariable { var: v(42) })
        );
    }
}
