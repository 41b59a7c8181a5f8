//! Just-in-time evaluation of extracted slices.
//!
//! "Offline execution is impossible for some memory operations, such as the
//! nested copies mentioned above. In this case, the CVD frontend identifies
//! the memory operation arguments just-in-time by executing the extracted
//! code at runtime" (paper §4.1).
//!
//! Only the runtime part is done per op. Everything that depends on the
//! slice alone — renumbering its variables to dense slots, validating its
//! field reads, each buffer's extent (below) — is done once, when the
//! frontend's knowledge of a command is built: [`JitProgram::compile`].
//! [`JitProgram::run`] then interprets the program with the concrete ioctl
//! argument on a [`JitScratch`] the frontend reuses from op to op, and hands
//! each concrete operation to the caller as it is found (the frontend
//! writes it straight into its grant buffer). Reads of user memory go
//! through a [`UserReader`] — the frontend reads the *calling process's own*
//! memory, so this step needs no special privileges.
//! [`evaluate_slice`] is the one-shot form: compile, then run on a fresh
//! scratch.
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
//! what is fetched is pinned in a per-run **consumed-range snapshot**: a
//! later fetch is overlaid with the first-read bytes wherever it overlaps an
//! earlier one, byte-exact. Every run ends by clearing the scratch, so no
//! pin outlives its run. Bytes never fetched need no pinning — nothing that
//! decides a grant depends on them, and the driver reads them once, through
//! the grant, as a native `copy_from_user` would; nor does a program that
//! can make only one consumed fetch per run (a `GEM_PWRITE` header), since
//! no later fetch could consult the pin. Such a program's warm run
//! allocates nothing; a program that pins keeps its pins in a map whose
//! nodes each run allocates afresh. (The static half of the defense is the
//! `DF*` passes in [`crate::lint`].)

use std::collections::BTreeMap;
use std::fmt;

use crate::extract::{Extraction, OpTemplate};
use crate::ir::{Cond, Expr, OpKind, Stmt, VarId};

/// Iteration safety valve for runtime loops (a malicious process could claim
/// a huge chunk count; the frontend refuses rather than spins).
const MAX_JIT_ITERATIONS: u64 = 1 << 20;

/// Fetched bytes whose capacity a [`JitScratch`] keeps from one run to the
/// next.
const SCRATCH_RETAIN: usize = 4096;

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

/// A specialized slice compiled once, when the frontend's knowledge of its
/// command is built; [`JitProgram::run`] then evaluates it per op.
///
/// Compiling renumbers the slice's variables to dense slots and validates
/// every field read once (`width` 1, 2, 4 or 8, `offset + width`
/// representable), recording each slot's **extent** — the highest `offset +
/// width` the slice reads from it, 0 if none: all a fetch into it has to
/// cover. A malformed slice still compiles: its error is kept and returned
/// by every run, so its command fails every call.
#[derive(Debug, Clone)]
pub struct JitProgram {
    /// The slice, each variable renumbered to its slot.
    slice: Vec<Stmt>,
    /// The slice's own name of each slot, for error reports.
    names: Vec<VarId>,
    /// `extent` of each slot, or the malformed field read that fails every run.
    extents: Result<Vec<u64>, JitError>,
    /// The largest extent: no fetch, and so no pinned range, is longer.
    max_extent: u64,
    /// Whether a run can make two consumed fetches: only then can a pin
    /// answer for a later fetch, so only then does a run keep any.
    pins: bool,
}

/// How a command's grants are derived per op: from the templates the
/// analyzer resolved offline, or by running its slice, compiled once.
#[derive(Debug, Clone)]
pub enum Derivation {
    /// Every operation known offline.
    Static(Vec<OpTemplate>),
    /// Runtime data is needed: the slice's program (boxed, so a map of
    /// derivations stays as compact as the analyzer's report).
    Jit(Box<JitProgram>),
}

impl From<Extraction> for Derivation {
    fn from(extraction: Extraction) -> Self {
        match extraction {
            Extraction::Static(templates) => Derivation::Static(templates),
            Extraction::Jit { slice, .. } => Derivation::Jit(Box::new(JitProgram::compile(&slice))),
        }
    }
}

/// Where one run of a [`JitProgram`] keeps its state, reused from run to
/// run. A run ends by clearing it: no variable, fetched byte or pin
/// survives into the next run.
#[derive(Debug, Clone, Default)]
pub struct JitScratch {
    vars: Vec<Slot>,
    /// The post-overlay bytes of the run's fetches, end to end; a buffer
    /// slot and a pin each name a span of them.
    bytes: Vec<u8>,
    /// First-read-wins snapshot (double-fetch defense): every fetched range,
    /// as its span of `bytes`, keyed by its start address and pinned to the
    /// bytes the run saw there whatever the [`UserReader`] would return now.
    /// Ranges are stored *after* overlay, so any two agree where they
    /// overlap, and one range is kept per start address.
    pins: BTreeMap<u64, (usize, usize)>,
}

impl JitScratch {
    /// Clears every variable, fetched byte and pin. Byte capacity beyond
    /// [`SCRATCH_RETAIN`] is given back: one run through a long loop must
    /// not keep its peak.
    fn clear(&mut self) {
        self.vars.clear();
        self.bytes.clear();
        self.bytes.shrink_to(SCRATCH_RETAIN);
        self.pins.clear();
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Unbound,
    Scalar(u64),
    /// `len` fetched bytes at `bytes[at..]`.
    Buffer {
        at: usize,
        len: usize,
    },
}

/// Calls `visit` on every variable the slice names, nested bodies included
/// (unspecialized dispatch is refused when execution gets there).
fn for_each_var(stmts: &mut [Stmt], visit: &mut impl FnMut(&mut VarId)) {
    fn expr(e: &mut Expr, visit: &mut impl FnMut(&mut VarId)) {
        match e {
            Expr::Var(var) | Expr::Field { base: var, .. } => visit(var),
            Expr::Add(a, b) | Expr::Mul(a, b) => {
                expr(a, visit);
                expr(b, visit);
            }
            Expr::Const(_) | Expr::Arg | Expr::Cmd => {}
        }
    }
    for stmt in stmts {
        match stmt {
            Stmt::Assign { var, value } => {
                visit(var);
                expr(value, visit);
            }
            Stmt::CopyFromUser { dst, src, len } => {
                visit(dst);
                expr(src, visit);
                expr(len, visit);
            }
            Stmt::CopyToUser { dst, len } => {
                expr(dst, visit);
                expr(len, visit);
            }
            Stmt::If { cond, then, els } => {
                let (Cond::Eq(a, b) | Cond::Ne(a, b) | Cond::Lt(a, b) | Cond::Gt(a, b)) = cond;
                expr(a, visit);
                expr(b, visit);
                for_each_var(then, visit);
                for_each_var(els, visit);
            }
            Stmt::ForRange { var, count, body } => {
                visit(var);
                expr(count, visit);
                for_each_var(body, visit);
            }
            Stmt::SwitchCmd { .. } | Stmt::Call(_) | Stmt::Return => {}
        }
    }
}

/// One walk of the renumbered slice: validates every field read and returns
/// each slot's extent. An error names the slice's own variable.
fn field_extents(slice: &[Stmt], names: &[VarId]) -> Result<Vec<u64>, JitError> {
    fn walk(stmts: &[Stmt], visit: &mut impl FnMut(VarId, u64, u8)) {
        for stmt in stmts {
            stmt.for_each_field(visit);
            match stmt {
                Stmt::If { then, els, .. } => {
                    walk(then, visit);
                    walk(els, visit);
                }
                Stmt::ForRange { body, .. } => walk(body, visit),
                _ => {}
            }
        }
    }
    let mut extents = vec![0; names.len()];
    let mut malformed = None;
    walk(slice, &mut |base, offset, width| {
        let end = offset.checked_add(u64::from(width));
        match end.filter(|_| matches!(width, 1 | 2 | 4 | 8)) {
            Some(end) => {
                let extent = &mut extents[base.0 as usize];
                *extent = end.max(*extent);
            }
            None => malformed = malformed.or(Some(base)),
        }
    });
    match malformed {
        Some(slot) => Err(JitError::BadFieldRead {
            var: names[slot.0 as usize],
        }),
        None => Ok(extents),
    }
}

/// Consumed fetch sites of `stmts`, a site in a loop counting twice.
fn consumed_fetches(stmts: &[Stmt], extents: &[u64]) -> u64 {
    let count = |stmt: &Stmt| match stmt {
        Stmt::CopyFromUser { dst, .. } => u64::from(extents[dst.0 as usize] > 0),
        Stmt::If { then, els, .. } => {
            consumed_fetches(then, extents).saturating_add(consumed_fetches(els, extents))
        }
        Stmt::ForRange { body, .. } => consumed_fetches(body, extents).saturating_mul(2),
        _ => 0,
    };
    stmts.iter().map(count).fold(0, u64::saturating_add)
}

impl JitProgram {
    /// Compiles `slice`: the work that depends only on the slice, done once.
    pub fn compile(slice: &[Stmt]) -> JitProgram {
        let mut slice = slice.to_vec();
        let mut names = Vec::new();
        for_each_var(&mut slice, &mut |var| names.push(*var));
        names.sort_unstable();
        names.dedup();
        for_each_var(&mut slice, &mut |var| {
            *var = VarId(names.binary_search(var).expect("collected above") as u32);
        });
        let extents = field_extents(&slice, &names);
        let max_extent = extents
            .as_ref()
            .map_or(0, |e| e.iter().copied().max().unwrap_or(0));
        let pins = extents
            .as_ref()
            .is_ok_and(|e| consumed_fetches(&slice, e) > 1);
        JitProgram {
            slice,
            names,
            extents,
            max_extent,
            pins,
        }
    }

    /// Evaluates the program against the concrete ioctl `arg`, reading the
    /// caller's memory through `reader`, and hands `emit` each concrete
    /// operation to declare as a grant, in order. A run that fails may have
    /// emitted some operations first.
    ///
    /// # Errors
    ///
    /// The slice's compile error, bad user reads, unbound variables and
    /// runaway loops.
    pub fn run(
        &self,
        scratch: &mut JitScratch,
        cmd: u32,
        arg: u64,
        reader: &mut dyn UserReader,
        emit: &mut dyn FnMut(ResolvedOp),
    ) -> Result<(), JitError> {
        let extents = self.extents.as_ref().map_err(Clone::clone)?;
        scratch.vars.resize(self.names.len(), Slot::Unbound);
        let mut run = Run {
            program: self,
            extents,
            scratch,
            reader,
            emit,
            cmd,
            arg,
            iterations: 0,
        };
        let flow = run.exec(&self.slice);
        scratch.clear();
        flow.map(drop)
    }
}

/// One run in progress.
struct Run<'a> {
    program: &'a JitProgram,
    extents: &'a [u64],
    scratch: &'a mut JitScratch,
    reader: &'a mut dyn UserReader,
    emit: &'a mut dyn FnMut(ResolvedOp),
    cmd: u32,
    arg: u64,
    iterations: u64,
}

enum Flow {
    Continue,
    Return,
}

impl Run<'_> {
    fn name(&self, slot: VarId) -> VarId {
        self.program.names[slot.0 as usize]
    }

    /// Reads `[addr, addr + n)` through the reader and pins it, returning
    /// where its bytes start in the scratch. Bytes an earlier fetch already
    /// saw keep their first-read value; `addr + n` must not wrap.
    fn fetch(&mut self, addr: u64, n: usize) -> Result<usize, ()> {
        let JitScratch { bytes, pins, .. } = &mut *self.scratch;
        let at = bytes.len();
        if n == 0 {
            return Ok(at);
        }
        bytes.resize(at + n, 0);
        self.reader.read_user(addr, &mut bytes[at..])?;
        if !self.program.pins {
            return Ok(at);
        }
        let end = addr + n as u64;
        // Only ranges starting less than `max_extent` below `addr` reach it: the
        // overlay costs IR constants, however many fetches a loop has made.
        let reach = addr.saturating_sub(self.program.max_extent);
        for (&start, &(from, len)) in pins.range(reach..end) {
            let (lo, hi) = (addr.max(start), end.min(start + len as u64));
            if lo < hi {
                let from = from + (lo - start) as usize;
                bytes.copy_within(from..from + (hi - lo) as usize, at + (lo - addr) as usize);
            }
        }
        // Same start: the longer post-overlay range subsumes the shorter, so
        // a range already pinned at least as long is kept once, however
        // often a loop re-reads it.
        let pin = pins.entry(addr).or_insert((at, 0));
        if pin.1 >= n {
            bytes.truncate(at);
            return Ok(pin.0);
        }
        *pin = (at, n);
        Ok(at)
    }

    fn eval(&self, expr: &Expr) -> Result<u64, JitError> {
        match expr {
            Expr::Const(value) => Ok(*value),
            Expr::Arg => Ok(self.arg),
            Expr::Cmd => Ok(u64::from(self.cmd)),
            Expr::Var(var) => match self.scratch.vars[var.0 as usize] {
                Slot::Scalar(value) => Ok(value),
                Slot::Buffer { .. } => Err(JitError::BadFieldRead {
                    var: self.name(*var),
                }),
                Slot::Unbound => Err(JitError::UnboundVariable {
                    var: self.name(*var),
                }),
            },
            Expr::Field {
                base,
                offset,
                width,
            } => {
                // Compiling checked the width and that this cannot wrap.
                let (start, end) = (*offset as usize, (offset + u64::from(*width)) as usize);
                match self.scratch.vars[base.0 as usize] {
                    Slot::Buffer { at, len } if end <= len => {
                        let field = &self.scratch.bytes[at + start..at + end];
                        Ok(field
                            .iter()
                            .rev()
                            .fold(0, |value, &byte| value << 8 | u64::from(byte)))
                    }
                    _ => Err(JitError::BadFieldRead {
                        var: self.name(*base),
                    }),
                }
            }
            Expr::Add(a, b) => Ok(self.eval(a)?.wrapping_add(self.eval(b)?)),
            Expr::Mul(a, b) => Ok(self.eval(a)?.wrapping_mul(self.eval(b)?)),
        }
    }

    fn eval_cond(&self, cond: &Cond) -> Result<bool, JitError> {
        Ok(match cond {
            Cond::Eq(a, b) => self.eval(a)? == self.eval(b)?,
            Cond::Ne(a, b) => self.eval(a)? != self.eval(b)?,
            Cond::Lt(a, b) => self.eval(a)? < self.eval(b)?,
            Cond::Gt(a, b) => self.eval(a)? > self.eval(b)?,
        })
    }

    fn exec(&mut self, stmts: &[Stmt]) -> Result<Flow, JitError> {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { var, value } => {
                    self.scratch.vars[var.0 as usize] = Slot::Scalar(self.eval(value)?);
                }
                Stmt::CopyFromUser { dst, src, len } => {
                    let addr = self.eval(src)?;
                    let len = self.eval(len)?;
                    let bad_read = JitError::BadUserRead { addr, len };
                    // No mapping can satisfy a range that wraps the address space.
                    if addr.checked_add(len).is_none() {
                        return Err(bad_read);
                    }
                    // The payload beyond what the slice consumes feeds nothing.
                    let consumed = len.min(self.extents[dst.0 as usize]) as usize;
                    let at = self.fetch(addr, consumed).map_err(|()| bad_read)?;
                    (self.emit)(ResolvedOp {
                        kind: OpKind::CopyFromUser,
                        addr,
                        len,
                    });
                    self.scratch.vars[dst.0 as usize] = Slot::Buffer { at, len: consumed };
                }
                Stmt::CopyToUser { dst, len } => {
                    let addr = self.eval(dst)?;
                    let len = self.eval(len)?;
                    (self.emit)(ResolvedOp {
                        kind: OpKind::CopyToUser,
                        addr,
                        len,
                    });
                }
                Stmt::If { cond, then, els } => {
                    let body = if self.eval_cond(cond)? { then } else { els };
                    if let Flow::Return = self.exec(body)? {
                        return Ok(Flow::Return);
                    }
                }
                Stmt::ForRange { var, count, body } => {
                    let count = self.eval(count)?;
                    for i in 0..count {
                        self.iterations += 1;
                        if self.iterations > MAX_JIT_ITERATIONS {
                            return Err(JitError::IterationLimit);
                        }
                        self.scratch.vars[var.0 as usize] = Slot::Scalar(i);
                        if let Flow::Return = self.exec(body)? {
                            return Ok(Flow::Return);
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
}

/// Evaluates a specialized slice against the concrete ioctl `arg`, reading
/// the caller's memory through `reader`, and returns the concrete operation
/// list to declare as grants: [`JitProgram::compile`], then one
/// [`JitProgram::run`] on a fresh scratch.
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
    let mut ops = Vec::new();
    JitProgram::compile(slice).run(
        &mut JitScratch::default(),
        cmd,
        arg,
        reader,
        &mut |op| ops.push(op),
    )?;
    Ok(ops)
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

    /// One run of `program` on `scratch`, its operations collected.
    fn run_ops(
        program: &JitProgram,
        scratch: &mut JitScratch,
        arg: u64,
        reader: &mut dyn UserReader,
    ) -> Result<Vec<ResolvedOp>, JitError> {
        let mut ops = Vec::new();
        program.run(scratch, 0, arg, reader, &mut |op| ops.push(op))?;
        Ok(ops)
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
    fn one_program_run_again_and_again_equals_fresh_evaluations() {
        // A header byte counts chunks one byte apart whose first two bytes
        // each size a write-back, so every fetch overlaps the one before
        // it; sparse variable names exercise the renumbering. Under a
        // reader whose bytes change on every call, every run of the one
        // program on the one scratch must see only its own fetches.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(7),
                src: Expr::Arg,
                len: Expr::Const(4),
            },
            Stmt::ForRange {
                var: v(3),
                count: Expr::field(v(7), 0, 1),
                body: vec![
                    Stmt::CopyFromUser {
                        dst: v(900),
                        src: Expr::add(Expr::Arg, Expr::Var(v(3))),
                        len: Expr::Const(4),
                    },
                    Stmt::CopyToUser {
                        dst: Expr::Var(v(3)),
                        len: Expr::field(v(900), 0, 2),
                    },
                ],
            },
        ];
        let program = JitProgram::compile(&slice);
        let mut scratch = JitScratch::default();
        for run in 0..8u8 {
            // A reader that has made `calls` calls answers `calls + 1` next.
            let reader = |calls| MutatingUser { calls };
            let arg = 0x1000 + u64::from(run % 3) * 6;
            let mut user = reader(0);
            let expected = evaluate_slice(&slice, 0, arg, &mut user);
            let mut user = reader(0);
            let actual = run_ops(&program, &mut scratch, arg, &mut user);
            assert_eq!(actual, expected, "run {run}");
            // A fresh scratch and a warm one agree with a reader that has
            // moved on, too: no pin of an earlier run answers for it.
            let mut moved_on = reader(run);
            let fresh = evaluate_slice(&slice, 0, arg, &mut moved_on);
            let mut moved_on = reader(run);
            let warm = run_ops(&program, &mut scratch, arg, &mut moved_on);
            assert_eq!(warm, fresh, "run {run}");
        }
    }

    #[test]
    fn a_long_run_does_not_keep_its_peak() {
        // 10 000 overlapping one-byte fetches: the run pins each one, and
        // gives back what it held when it ends.
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(2),
            },
            Stmt::ForRange {
                var: v(1),
                count: Expr::field(v(0), 0, 2),
                body: vec![
                    Stmt::CopyFromUser {
                        dst: v(2),
                        src: Expr::add(Expr::Arg, Expr::Var(v(1))),
                        len: Expr::Const(1),
                    },
                    Stmt::CopyToUser {
                        dst: Expr::Arg,
                        len: Expr::field(v(2), 0, 1),
                    },
                ],
            },
        ];
        let mut bytes = vec![0u8; 10_002];
        bytes[..2].copy_from_slice(&10_000u16.to_le_bytes());
        let mut user = FlatUser { base: 0, bytes };
        let program = JitProgram::compile(&slice);
        let mut scratch = JitScratch::default();
        let ops = run_ops(&program, &mut scratch, 0, &mut user).unwrap();
        assert_eq!(ops.len(), 20_001);
        assert!(scratch.vars.is_empty() && scratch.pins.is_empty());
        assert!(scratch.bytes.is_empty() && scratch.bytes.capacity() <= SCRATCH_RETAIN);
    }

    #[test]
    fn a_malformed_slice_fails_every_run() {
        let slice = vec![
            Stmt::CopyFromUser {
                dst: v(5),
                src: Expr::Arg,
                len: Expr::Const(32),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::field(v(5), 0, 3),
            },
        ];
        let program = JitProgram::compile(&slice);
        let mut scratch = JitScratch::default();
        for _ in 0..3 {
            let mut user = MutatingUser { calls: 0 };
            assert_eq!(
                run_ops(&program, &mut scratch, 0, &mut user),
                Err(JitError::BadFieldRead { var: v(5) })
            );
            assert_eq!(user.calls, 0, "nothing is read for a malformed slice");
        }
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
