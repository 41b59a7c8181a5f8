//! Wire format for file operations on the shared page.
//!
//! "The frontend puts the file operation arguments in a shared page, and
//! uses an interrupt to inform the backend to read them. The backend
//! communicates the return values of the file operation in a similar way"
//! (paper §5.1). Only *descriptors* travel: buffer contents move through
//! hypervisor-executed memory operations, never through the channel.
//!
//! Every request carries the calling task, the process page-table root (the
//! CR3 the hypervisor walks, §5.2), the open-file handle, and the grant
//! reference covering the operation's declared memory operations (§4.1).

use paradice_devfs::ioc::IoctlCmd;
use paradice_devfs::{Errno, OpenFlags, PollEvents};
use paradice_hypervisor::{Channel, GrantRef, WireCodec, ARING_SLOT_BYTES};
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};
use paradice_trace::TraceOpKind;

/// The CVD transport: a typed [`Channel`] that encodes/decodes the three
/// wire types at the channel boundary. Frontend and backend exchange
/// [`WireRequest`]/[`WireResponse`]/[`WireSignal`] values directly and
/// never touch raw bytes.
pub type CvdChannel = Channel<WireRequest, WireResponse, WireSignal>;

/// Bytes of a grant-present `Open` request before its path: opcode, task,
/// page-table root, handle, span, grant flag and reference, open flags,
/// and the path length word (the decode IR's `[0, 43)`).
const OPEN_PATH_AT: usize = 1 + 8 + 8 + 8 + 8 + 1 + 4 + 1 + 4;

/// Maximum device path length on the wire: the longest `Open` request
/// fills one shared-page slot exactly, so every request the frontend
/// builds fits the ring it is posted on.
pub const MAX_PATH: usize = ARING_SLOT_BYTES - OPEN_PATH_AT;

const _: () = assert!(OPEN_PATH_AT == 43 && OPEN_PATH_AT + MAX_PATH == ARING_SLOT_BYTES);

/// Bytes of the longest response: a tag and an `i64`
/// ([`WireResponse::Value`]); an errno or a poll mask is a tag and a `u32`.
const LONGEST_RESPONSE: usize = 1 + 8;

/// Payload bytes of a response slot on the multi-guest engine's response
/// rings: the longest response, rounded up so that a slot with its 8 bytes
/// of sequence and length words is 32 bytes, two per cache line. The
/// virtual [`Channel`] keeps page-sized slots in both directions.
pub const RESPONSE_SLOT_BYTES: usize = 24;

const _: () = assert!((LONGEST_RESPONSE + 8).next_power_of_two() == RESPONSE_SLOT_BYTES + 8);

/// A file operation as transmitted frontend → backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireOp {
    /// Open the device file at `path`.
    Open {
        /// Device path in the driver VM's devfs.
        path: String,
        /// Open flags.
        flags: OpenFlags,
    },
    /// Close the (backend) handle.
    Release,
    /// `read(buf, len)`.
    Read {
        /// User buffer start.
        addr: GuestVirtAddr,
        /// Buffer length.
        len: u64,
    },
    /// `write(buf, len)`.
    Write {
        /// User buffer start.
        addr: GuestVirtAddr,
        /// Buffer length.
        len: u64,
    },
    /// `ioctl(cmd, arg)`.
    Ioctl {
        /// Command number.
        cmd: IoctlCmd,
        /// Untyped argument.
        arg: u64,
    },
    /// `mmap(va, len, offset, access)`.
    Mmap {
        /// Target process address (page-aligned).
        va: GuestVirtAddr,
        /// Mapping length.
        len: u64,
        /// Device offset cookie.
        offset: u64,
        /// Requested access.
        access: Access,
    },
    /// `munmap(va, len)` notification.
    Munmap {
        /// Mapped range start.
        va: GuestVirtAddr,
        /// Range length.
        len: u64,
    },
    /// A page fault in a lazily-populated device mapping: the supporting
    /// page-fault handler of `mmap` (paper §2.1).
    Fault {
        /// The faulting address.
        va: GuestVirtAddr,
    },
    /// `poll()`.
    Poll,
    /// `fasync(on)`.
    Fasync {
        /// Subscribe or unsubscribe.
        on: bool,
    },
}

impl WireOp {
    /// The operation's wire name, used for fault-plan triggers and trace
    /// events (stable, lowercase, matches the devfs file-operation names):
    /// the name of its span kind.
    pub fn name(&self) -> &'static str {
        self.span_labels().0.as_str()
    }

    /// Whether the frontend may post this operation to the ring without
    /// waiting for its response (the pipelined fast path). Only operations
    /// whose responses are plain `Value`s and whose effects are confined to
    /// their declared grant envelope qualify: `Open`/`Release` mutate handle
    /// lifetime the frontend must observe before issuing the next op, `Mmap`/
    /// `Munmap`/`Fault` change address-space shape, and `Poll`/`Fasync`
    /// return event masks the caller consumes synchronously.
    pub const fn is_pipelineable(&self) -> bool {
        matches!(
            self,
            WireOp::Read { .. } | WireOp::Write { .. } | WireOp::Ioctl { .. }
        )
    }

    /// The labels this operation's trace span carries — `(kind, cmd, addr,
    /// len)` — for every substrate that opens a span. The range is the user
    /// memory the operation names: its buffer, the `_IOC`-encoded parameter
    /// struct at `arg`, the mapping, or the one faulting page.
    pub fn span_labels(&self) -> (TraceOpKind, Option<u32>, Option<u64>, Option<u64>) {
        match *self {
            WireOp::Open { .. } => (TraceOpKind::Open, None, None, None),
            WireOp::Release => (TraceOpKind::Release, None, None, None),
            WireOp::Read { addr, len } => (TraceOpKind::Read, None, Some(addr.raw()), Some(len)),
            WireOp::Write { addr, len } => (TraceOpKind::Write, None, Some(addr.raw()), Some(len)),
            WireOp::Ioctl { cmd, arg } => (
                TraceOpKind::Ioctl,
                Some(cmd.raw()),
                Some(arg),
                Some(u64::from(cmd.size())),
            ),
            WireOp::Mmap { va, len, .. } => (TraceOpKind::Mmap, None, Some(va.raw()), Some(len)),
            WireOp::Munmap { va, len } => (TraceOpKind::Munmap, None, Some(va.raw()), Some(len)),
            WireOp::Fault { va } => (TraceOpKind::Fault, None, Some(va.raw()), Some(PAGE_SIZE)),
            WireOp::Poll => (TraceOpKind::Poll, None, None, None),
            WireOp::Fasync { .. } => (TraceOpKind::Fasync, None, None, None),
        }
    }

    const fn opcode(&self) -> u8 {
        match self {
            WireOp::Open { .. } => 1,
            WireOp::Release => 2,
            WireOp::Read { .. } => 3,
            WireOp::Write { .. } => 4,
            WireOp::Ioctl { .. } => 5,
            WireOp::Mmap { .. } => 6,
            WireOp::Munmap { .. } => 7,
            WireOp::Poll => 8,
            WireOp::Fasync { .. } => 9,
            WireOp::Fault { .. } => 10,
        }
    }
}

/// A full request: header plus operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Calling task (globally unique in the machine).
    pub task: u64,
    /// Root of the calling process's page tables.
    pub pt_root: GuestPhysAddr,
    /// Backend file handle (0 for `Open`).
    pub handle: u64,
    /// Trace span stamped by the frontend (0 = untraced): lets the backend
    /// and hypervisor attribute their work to this operation's span.
    pub span: u64,
    /// Grant reference covering this operation's memory operations, if any.
    pub grant: Option<GrantRef>,
    /// The operation.
    pub op: WireOp,
}

/// Decoding errors: a malformed shared page (a buggy or malicious frontend).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("malformed shared-page message")
    }
}

impl std::error::Error for WireError {}

/// Writes a frame into a caller's buffer and counts every byte, including
/// those that did not fit, so an overlong message reports the length it
/// needs.
struct Writer<'a> {
    out: &'a mut [u8],
    len: usize,
}

impl Writer<'_> {
    fn bytes(&mut self, bytes: &[u8]) {
        if let Some(at) = self.out.get_mut(self.len..self.len + bytes.len()) {
            at.copy_from_slice(bytes);
        }
        self.len += bytes.len();
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// [`WireCodec::encode_into`]'s answer.
    fn finish(self) -> Result<usize, usize> {
        (self.len <= self.out.len()).then_some(self.len).ok_or(self.len)
    }
}

/// A message's frame as an owned `Vec`, for callers that keep frames (the
/// engines' queues, tests, probes): encoded on the stack when it fits a
/// slot, otherwise at its own length.
fn owned_frame(message: &impl WireCodec) -> Vec<u8> {
    let mut slot = [0u8; ARING_SLOT_BYTES];
    match message.encode_into(&mut slot) {
        Ok(len) => slot[..len].to_vec(),
        Err(len) => {
            let mut frame = vec![0; len];
            let _ = message.encode_into(&mut frame);
            frame
        }
    }
}

/// Observes every byte-range read a wire decoder performs against the
/// shared page. The shared page is writable by the peer at any time, so
/// the decoders must read each byte *at most once* (the WP001 single-read
/// discipline) — a re-read is a TOCTOU window. The `crates/verify` model
/// checker proves that property on the *real* decoders by running them
/// under a counting probe; production decoding uses [`NoProbe`], which
/// inlines to nothing.
pub trait ReadProbe {
    /// Called once per successful field read of `bytes[at..at + len)`.
    fn on_read(&mut self, at: usize, len: usize);
}

/// The zero-cost probe the production decode paths use.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoProbe;

impl ReadProbe for NoProbe {
    #[inline(always)]
    fn on_read(&mut self, _at: usize, _len: usize) {}
}

struct Reader<'a, 'p, P: ReadProbe> {
    bytes: &'a [u8],
    at: usize,
    probe: &'p mut P,
}

impl<'a, P: ReadProbe> Reader<'a, '_, P> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.bytes.get(self.at).ok_or(WireError)?;
        self.probe.on_read(self.at, 1);
        self.at += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let slice = self.bytes.get(self.at..self.at + 4).ok_or(WireError)?;
        self.probe.on_read(self.at, 4);
        self.at += 4;
        Ok(u32::from_le_bytes(slice.try_into().expect("len 4")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let slice = self.bytes.get(self.at..self.at + 8).ok_or(WireError)?;
        self.probe.on_read(self.at, 8);
        self.at += 8;
        Ok(u64::from_le_bytes(slice.try_into().expect("len 8")))
    }

    fn bytes(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let slice = self.bytes.get(self.at..self.at + len).ok_or(WireError)?;
        if len > 0 {
            self.probe.on_read(self.at, len);
        }
        self.at += len;
        Ok(slice)
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError)
        }
    }
}

fn encode_flags(flags: OpenFlags) -> u8 {
    u8::from(flags.read) | (u8::from(flags.write) << 1) | (u8::from(flags.nonblock) << 2)
}

fn decode_flags(raw: u8) -> OpenFlags {
    OpenFlags {
        read: raw & 1 != 0,
        write: raw & 2 != 0,
        nonblock: raw & 4 != 0,
    }
}

impl WireRequest {
    /// Serializes the request into an owned frame;
    /// [`WireCodec::encode_into`] writes the same bytes into a caller's buffer.
    pub fn encode(&self) -> Vec<u8> {
        owned_frame(self)
    }

    /// Parses a request from the shared page.
    ///
    /// # Errors
    ///
    /// [`WireError`] for truncated, oversized or trailing-garbage messages.
    pub fn decode(bytes: &[u8]) -> Result<WireRequest, WireError> {
        WireRequest::decode_probed(bytes, &mut NoProbe)
    }

    /// [`WireRequest::decode`] with every field read reported to `probe`.
    /// This is the *same* decode path production uses (with [`NoProbe`]);
    /// the verify crate runs it under a counting probe to prove the
    /// single-read property on the real codec.
    ///
    /// # Errors
    ///
    /// Exactly as [`WireRequest::decode`].
    pub fn decode_probed<P: ReadProbe>(
        bytes: &[u8],
        probe: &mut P,
    ) -> Result<WireRequest, WireError> {
        let mut r = Reader { bytes, at: 0, probe };
        let opcode = r.u8()?;
        let task = r.u64()?;
        let pt_root = GuestPhysAddr::new(r.u64()?);
        let handle = r.u64()?;
        let span = r.u64()?;
        let grant = if r.u8()? == 1 {
            Some(GrantRef(r.u32()?))
        } else {
            None
        };
        let op = match opcode {
            1 => {
                let flags = decode_flags(r.u8()?);
                let len = r.u32()? as usize;
                if len > MAX_PATH {
                    return Err(WireError);
                }
                let path =
                    String::from_utf8(r.bytes(len)?.to_vec()).map_err(|_| WireError)?;
                WireOp::Open { path, flags }
            }
            2 => WireOp::Release,
            3 => WireOp::Read {
                addr: GuestVirtAddr::new(r.u64()?),
                len: r.u64()?,
            },
            4 => WireOp::Write {
                addr: GuestVirtAddr::new(r.u64()?),
                len: r.u64()?,
            },
            5 => WireOp::Ioctl {
                cmd: IoctlCmd(r.u32()?),
                arg: r.u64()?,
            },
            6 => WireOp::Mmap {
                va: GuestVirtAddr::new(r.u64()?),
                len: r.u64()?,
                offset: r.u64()?,
                access: Access::from_bits(r.u8()?),
            },
            7 => WireOp::Munmap {
                va: GuestVirtAddr::new(r.u64()?),
                len: r.u64()?,
            },
            8 => WireOp::Poll,
            9 => WireOp::Fasync { on: r.u8()? == 1 },
            10 => WireOp::Fault {
                va: GuestVirtAddr::new(r.u64()?),
            },
            _ => return Err(WireError),
        };
        r.done()?;
        Ok(WireRequest {
            task,
            pt_root,
            handle,
            span,
            grant,
            op,
        })
    }
}

/// A response, tagged by what the operation returned.
///
/// Poll readiness is its own variant: the old API smuggled `PollEvents`
/// through an `i64` (`from_poll`/`to_poll`), so nothing stopped a caller
/// from misreading a byte count as a readiness mask. Now the type says
/// which it is, and the frontend rejects a mismatched variant outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireResponse {
    /// A non-negative result value (byte count, handle, 0-for-success).
    Value(i64),
    /// `poll()` readiness events.
    Poll(PollEvents),
    /// The operation failed with an errno.
    Err(Errno),
}

impl WireResponse {
    /// Collapses to a classic `Result`. Poll readiness degrades to its raw
    /// bits — callers that expect poll events should match
    /// [`WireResponse::Poll`] instead.
    pub fn result(self) -> Result<i64, Errno> {
        match self {
            WireResponse::Value(value) => Ok(value),
            WireResponse::Poll(events) => Ok(i64::from(events.bits())),
            WireResponse::Err(errno) => Err(errno),
        }
    }

    /// Serializes the response into an owned frame;
    /// [`WireCodec::encode_into`] writes the same bytes into a caller's buffer.
    pub fn encode(&self) -> Vec<u8> {
        owned_frame(self)
    }

    /// Parses a response.
    ///
    /// # Errors
    ///
    /// [`WireError`] for malformed bytes, trailing bytes, unknown errno
    /// codes, or poll bits outside the `PollEvents` domain.
    pub fn decode(bytes: &[u8]) -> Result<WireResponse, WireError> {
        WireResponse::decode_probed(bytes, &mut NoProbe)
    }

    /// [`WireResponse::decode`] with every field read reported to `probe`
    /// (see [`WireRequest::decode_probed`]).
    ///
    /// # Errors
    ///
    /// Exactly as [`WireResponse::decode`].
    pub fn decode_probed<P: ReadProbe>(
        bytes: &[u8],
        probe: &mut P,
    ) -> Result<WireResponse, WireError> {
        let mut r = Reader { bytes, at: 0, probe };
        let tag = r.u8()?;
        let response = match tag {
            0 => WireResponse::Value(r.u64()? as i64),
            1 => WireResponse::Err(Errno::from_code(r.u32()? as i32).ok_or(WireError)?),
            2 => {
                let raw = r.u32()?;
                let bits = u16::try_from(raw).map_err(|_| WireError)?;
                WireResponse::Poll(PollEvents::from_bits(bits))
            }
            _ => return Err(WireError),
        };
        r.done()?;
        Ok(response)
    }
}

/// A forwarded asynchronous notification (backend → frontend, §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSignal {
    /// The task to notify.
    pub task: u64,
    /// The guest-local handle the notification is for.
    pub handle: u64,
}

impl WireSignal {
    /// Serializes the signal into an owned frame;
    /// [`WireCodec::encode_into`] writes the same bytes into a caller's buffer.
    pub fn encode(&self) -> Vec<u8> {
        owned_frame(self)
    }

    /// Parses a signal.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation.
    pub fn decode(bytes: &[u8]) -> Result<WireSignal, WireError> {
        WireSignal::decode_probed(bytes, &mut NoProbe)
    }

    /// [`WireSignal::decode`] with every field read reported to `probe`
    /// (see [`WireRequest::decode_probed`]).
    ///
    /// # Errors
    ///
    /// Exactly as [`WireSignal::decode`].
    pub fn decode_probed<P: ReadProbe>(
        bytes: &[u8],
        probe: &mut P,
    ) -> Result<WireSignal, WireError> {
        let mut r = Reader { bytes, at: 0, probe };
        let signal = WireSignal {
            task: r.u64()?,
            handle: r.u64()?,
        };
        r.done()?;
        Ok(signal)
    }
}

// ---------------------------------------------------------------------------
// Decode-as-IR: the wire protocol through the analyzer's eyes
// ---------------------------------------------------------------------------

/// [`WireRequest::decode`] modeled in the analyzer's driver IR, so the
/// dataflow lint suite (`WP001`, `TA00x`) covers the shared page the same
/// way it covers ioctl handlers. The shared page *is* a user-controlled
/// buffer: the frontend can rewrite it between the backend's reads, which
/// is exactly the double-fetch threat model with "process" replaced by
/// "guest".
///
/// The model follows the length-word-then-payload path ([`WireOp::Open`],
/// the only variable-length request) on the grant-present layout, where the
/// fixed prefix — opcode, task, pt_root, handle, span, grant flag, grant
/// ref, open flags — spans bytes `[0, 39)`, the path length word sits at
/// `[39, 43)`, and the path bytes follow. Fixed-size opcodes decode from
/// the same prefix and are subsumed by it. Mirrored by
/// `decode_ir_matches_decoder` below: the IR is kept honest against the
/// real `Reader` offsets.
pub fn wire_request_decode_ir() -> paradice_analyzer::ir::Handler {
    use paradice_analyzer::ir::{Cond, Expr, Function, Stmt, VarId};
    let v = VarId;
    let body = vec![
        // Fixed prefix: everything up to and including the open flags.
        Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(39),
        },
        // The decoder dispatches on the opcode byte.
        Stmt::Assign {
            var: v(5),
            value: Expr::field(v(0), 0, 1),
        },
        // Path length word.
        Stmt::CopyFromUser {
            dst: v(1),
            src: Expr::add(Expr::Arg, Expr::Const(39)),
            len: Expr::Const(4),
        },
        // `if len > MAX_PATH { return Err(WireError) }`.
        Stmt::If {
            cond: Cond::Gt(
                Expr::field(v(1), 0, 4),
                Expr::Const(MAX_PATH as u64),
            ),
            then: vec![Stmt::Return],
            els: vec![],
        },
        // Path bytes, sized by the validated length word.
        Stmt::CopyFromUser {
            dst: v(2),
            src: Expr::add(Expr::Arg, Expr::Const(43)),
            len: Expr::field(v(1), 0, 4),
        },
        Stmt::Return,
    ];
    let mut functions = std::collections::BTreeMap::new();
    functions.insert("decode_request".to_owned(), Function { body });
    paradice_analyzer::ir::Handler::new("decode_request", functions)
}

/// [`WireResponse::decode`] in driver IR: a tag byte selects how wide the
/// value word is (`Value` reads 8 bytes, `Err`/`Poll` read 4). The two
/// reads overlap but sit on exclusive branches — a shape only a
/// branch-sensitive pass can prove clean.
pub fn wire_response_decode_ir() -> paradice_analyzer::ir::Handler {
    use paradice_analyzer::ir::{Cond, Expr, Function, Stmt, VarId};
    let v = VarId;
    let body = vec![
        Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(1),
        },
        Stmt::If {
            cond: Cond::Eq(Expr::field(v(0), 0, 1), Expr::Const(0)),
            then: vec![Stmt::CopyFromUser {
                dst: v(1),
                src: Expr::add(Expr::Arg, Expr::Const(1)),
                len: Expr::Const(8),
            }],
            els: vec![Stmt::CopyFromUser {
                dst: v(2),
                src: Expr::add(Expr::Arg, Expr::Const(1)),
                len: Expr::Const(4),
            }],
        },
        Stmt::Return,
    ];
    let mut functions = std::collections::BTreeMap::new();
    functions.insert("decode_response".to_owned(), Function { body });
    paradice_analyzer::ir::Handler::new("decode_response", functions)
}

/// A deliberately broken request decoder: it re-reads the path length word
/// *after* validating it, then sizes the payload read from the second copy
/// — the classic TOCTOU a malicious frontend exploits by growing the length
/// between the two reads. Exists so the wire lint (`WP001`) has a known-bad
/// fixture; `paradice-lint --fixtures` must flag it and must *not* flag the
/// real [`wire_request_decode_ir`].
pub fn doctored_wire_request_decode_ir() -> paradice_analyzer::ir::Handler {
    use paradice_analyzer::ir::{Cond, Expr, Function, Stmt, VarId};
    let v = VarId;
    let body = vec![
        Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(39),
        },
        Stmt::CopyFromUser {
            dst: v(1),
            src: Expr::add(Expr::Arg, Expr::Const(39)),
            len: Expr::Const(4),
        },
        Stmt::If {
            cond: Cond::Gt(
                Expr::field(v(1), 0, 4),
                Expr::Const(MAX_PATH as u64),
            ),
            then: vec![Stmt::Return],
            els: vec![],
        },
        // The bug: the length word is fetched again after the check…
        Stmt::CopyFromUser {
            dst: v(3),
            src: Expr::add(Expr::Arg, Expr::Const(39)),
            len: Expr::Const(4),
        },
        // …and the unvalidated second copy sizes the payload read.
        Stmt::CopyFromUser {
            dst: v(2),
            src: Expr::add(Expr::Arg, Expr::Const(43)),
            len: Expr::field(v(3), 0, 4),
        },
        Stmt::Return,
    ];
    let mut functions = std::collections::BTreeMap::new();
    functions.insert("decode_request".to_owned(), Function { body });
    paradice_analyzer::ir::Handler::new("decode_request", functions)
}

// The typed-channel boundary: [`CvdChannel`] serializes each message type
// through these impls, so encode/decode happens in exactly one place.

impl WireCodec for WireRequest {
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
        let mut w = Writer { out, len: 0 };
        w.u8(self.op.opcode());
        w.u64(self.task);
        w.u64(self.pt_root.raw());
        w.u64(self.handle);
        w.u64(self.span);
        match self.grant {
            Some(grant) => {
                w.u8(1);
                w.u32(grant.0);
            }
            None => w.u8(0),
        }
        match &self.op {
            WireOp::Open { path, flags } => {
                w.u8(encode_flags(*flags));
                let bytes = path.as_bytes();
                w.u32(bytes.len() as u32);
                w.bytes(bytes);
            }
            WireOp::Release | WireOp::Poll => {}
            WireOp::Read { addr, len } | WireOp::Write { addr, len } => {
                w.u64(addr.raw());
                w.u64(*len);
            }
            WireOp::Ioctl { cmd, arg } => {
                w.u32(cmd.raw());
                w.u64(*arg);
            }
            WireOp::Mmap {
                va,
                len,
                offset,
                access,
            } => {
                w.u64(va.raw());
                w.u64(*len);
                w.u64(*offset);
                w.u8(access.bits());
            }
            WireOp::Munmap { va, len } => {
                w.u64(va.raw());
                w.u64(*len);
            }
            WireOp::Fault { va } => w.u64(va.raw()),
            WireOp::Fasync { on } => w.u8(u8::from(*on)),
        }
        w.finish()
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        WireRequest::decode(bytes).ok()
    }
}

impl WireCodec for WireResponse {
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
        let mut w = Writer { out, len: 0 };
        match self {
            WireResponse::Value(value) => {
                w.u8(0);
                w.u64(*value as u64);
            }
            WireResponse::Err(errno) => {
                w.u8(1);
                w.u32(errno.code() as u32);
            }
            WireResponse::Poll(events) => {
                w.u8(2);
                w.u32(u32::from(events.bits()));
            }
        }
        w.finish()
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        WireResponse::decode(bytes).ok()
    }
}

impl WireCodec for WireSignal {
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
        let mut w = Writer { out, len: 0 };
        w.u64(self.task);
        w.u64(self.handle);
        w.finish()
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        WireSignal::decode(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::ioc::iowr;

    fn roundtrip(req: WireRequest) {
        let bytes = req.encode();
        assert_eq!(WireRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn every_op_labels_its_own_span() {
        let va = GuestVirtAddr::new(0x4000);
        let cmd = iowr(b'd', 0x26, 16);
        let open = WireOp::Open {
            path: "/dev/dri/card0".to_owned(),
            flags: OpenFlags::RDWR,
        };
        let mmap = WireOp::Mmap {
            va,
            len: 8192,
            offset: 1 << 28,
            access: Access::RW,
        };
        use TraceOpKind as K;
        let table = [
            (open, (K::Open, None, None, None)),
            (WireOp::Release, (K::Release, None, None, None)),
            (WireOp::Read { addr: va, len: 512 }, (K::Read, None, Some(0x4000), Some(512))),
            (WireOp::Write { addr: va, len: 16 }, (K::Write, None, Some(0x4000), Some(16))),
            // An ioctl names the `_IOC`-sized parameter struct at `arg`.
            (WireOp::Ioctl { cmd, arg: 0xbeef }, (K::Ioctl, Some(cmd.raw()), Some(0xbeef), Some(16))),
            (mmap, (K::Mmap, None, Some(0x4000), Some(8192))),
            (WireOp::Munmap { va, len: 8192 }, (K::Munmap, None, Some(0x4000), Some(8192))),
            // A fault names the one page it asks the driver to populate.
            (WireOp::Fault { va }, (K::Fault, None, Some(0x4000), Some(PAGE_SIZE))),
            (WireOp::Poll, (K::Poll, None, None, None)),
            (WireOp::Fasync { on: true }, (K::Fasync, None, None, None)),
        ];
        for (op, labels) in table {
            assert_eq!(op.span_labels(), labels, "{}", op.name());
        }
    }

    #[test]
    fn all_ops_roundtrip() {
        let header = |op| WireRequest {
            task: 42,
            pt_root: GuestPhysAddr::new(0x7000),
            handle: 9,
            span: 1234,
            grant: Some(GrantRef(17)),
            op,
        };
        roundtrip(header(WireOp::Open {
            path: "/dev/dri/card0".to_owned(),
            flags: OpenFlags::RDWR.nonblocking(),
        }));
        roundtrip(header(WireOp::Release));
        roundtrip(header(WireOp::Read {
            addr: GuestVirtAddr::new(0x1234),
            len: 4096,
        }));
        roundtrip(header(WireOp::Write {
            addr: GuestVirtAddr::new(0x1234),
            len: 16,
        }));
        roundtrip(header(WireOp::Ioctl {
            cmd: iowr(b'd', 0x26, 16),
            arg: 0xdead_beef,
        }));
        roundtrip(header(WireOp::Mmap {
            va: GuestVirtAddr::new(0x10000),
            len: 8192,
            offset: 1 << 28,
            access: Access::RW,
        }));
        roundtrip(header(WireOp::Munmap {
            va: GuestVirtAddr::new(0x10000),
            len: 8192,
        }));
        roundtrip(header(WireOp::Poll));
        roundtrip(header(WireOp::Fasync { on: true }));
        roundtrip(header(WireOp::Fault {
            va: GuestVirtAddr::new(0x7fff_0000),
        }));
    }

    #[test]
    fn decode_ir_matches_decoder() {
        // The IR's hardcoded offsets (fixed prefix [0, 39), length word
        // [39, 43), path at 43) must match what the real codec produces on
        // the grant-present Open path it models.
        let path = "/dev/dri/card0";
        let req = WireRequest {
            task: 42,
            pt_root: GuestPhysAddr::new(0x7000),
            handle: 9,
            span: 1234,
            grant: Some(GrantRef(17)),
            op: WireOp::Open {
                path: path.to_owned(),
                flags: OpenFlags::RDWR,
            },
        };
        let bytes = req.encode();
        assert_eq!(bytes.len(), 43 + path.len());
        assert_eq!(
            u32::from_le_bytes(bytes[39..43].try_into().unwrap()) as usize,
            path.len()
        );
        assert_eq!(&bytes[43..], path.as_bytes());
    }

    #[test]
    fn shipped_decode_irs_lint_clean() {
        use paradice_analyzer::lint::wire::check_wire;
        for (name, handler) in [
            ("cvd-wire-request", wire_request_decode_ir()),
            ("cvd-wire-response", wire_response_decode_ir()),
        ] {
            let mut diags = Vec::new();
            check_wire(name, &handler, &mut diags);
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    #[test]
    fn doctored_decode_ir_fires_wp001() {
        use paradice_analyzer::lint::wire::check_wire;
        use paradice_analyzer::lint::{has_errors, DiagCode};
        let mut diags = Vec::new();
        check_wire("cvd-wire-doctored", &doctored_wire_request_decode_ir(), &mut diags);
        assert!(
            diags.iter().any(|d| d.code == DiagCode::Wp001),
            "{diags:?}"
        );
        assert!(has_errors(&diags));
    }

    #[test]
    fn grantless_request_roundtrips() {
        roundtrip(WireRequest {
            task: 1,
            pt_root: GuestPhysAddr::new(0),
            handle: 0,
            span: 0,
            grant: None,
            op: WireOp::Poll,
        });
    }

    #[test]
    fn truncated_request_rejected() {
        let req = WireRequest {
            task: 1,
            pt_root: GuestPhysAddr::new(0),
            handle: 0,
            span: 0,
            grant: None,
            op: WireOp::Read {
                addr: GuestVirtAddr::new(0),
                len: 10,
            },
        };
        let bytes = req.encode();
        assert_eq!(WireRequest::decode(&bytes[..bytes.len() - 1]), Err(WireError));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = WireRequest {
            task: 1,
            pt_root: GuestPhysAddr::new(0),
            handle: 0,
            span: 0,
            grant: None,
            op: WireOp::Poll,
        }
        .encode();
        bytes.push(0xff);
        assert_eq!(WireRequest::decode(&bytes), Err(WireError));
    }

    #[test]
    fn bogus_opcode_rejected() {
        let mut bytes = WireRequest {
            task: 1,
            pt_root: GuestPhysAddr::new(0),
            handle: 0,
            span: 0,
            grant: None,
            op: WireOp::Poll,
        }
        .encode();
        bytes[0] = 0x7f;
        assert_eq!(WireRequest::decode(&bytes), Err(WireError));
    }

    /// `MAX_PATH` is the longest path whose request fits one shared-page
    /// slot: with every header field at its widest, a `MAX_PATH` request
    /// fills the slot exactly and round-trips; one byte more is refused.
    #[test]
    fn oversized_path_rejected() {
        let open = |len| WireRequest {
            task: u64::MAX,
            pt_root: GuestPhysAddr::new(u64::MAX),
            handle: u64::MAX,
            span: u64::MAX,
            grant: Some(GrantRef(u32::MAX)),
            op: WireOp::Open {
                path: "x".repeat(len),
                flags: OpenFlags::RDWR.nonblocking(),
            },
        };
        let longest = open(MAX_PATH);
        assert_eq!(longest.encode().len(), ARING_SLOT_BYTES);
        assert_eq!(WireRequest::decode(&longest.encode()), Ok(longest));
        assert_eq!(
            WireRequest::decode(&open(MAX_PATH + 1).encode()),
            Err(WireError)
        );
    }

    /// `encode_into` writes the frame `encode` returns; a buffer one byte
    /// short gets nothing usable and the length the message needs.
    #[test]
    fn encode_into_reports_the_length_a_short_buffer_lacks() {
        let request = WireRequest {
            task: 3,
            pt_root: GuestPhysAddr::new(0x7000),
            handle: 2,
            span: 0,
            grant: Some(GrantRef(5)),
            op: WireOp::Ioctl {
                cmd: iowr(b'd', 0x26, 16),
                arg: 0x1000,
            },
        };
        let frame = request.encode();
        let mut out = [0u8; ARING_SLOT_BYTES];
        assert_eq!(request.encode_into(&mut out), Ok(frame.len()));
        assert_eq!(&out[..frame.len()], &frame[..]);
        assert_eq!(request.encode_into(&mut out[..frame.len() - 1]), Err(frame.len()));
        assert_eq!(WireResponse::Value(7).encode_into(&mut []), Err(9));
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            WireResponse::Value(0),
            WireResponse::Value(i64::MAX),
            WireResponse::Value(-1),
            WireResponse::Poll(PollEvents::IN | PollEvents::ERR),
            WireResponse::Err(Errno::Efault),
            WireResponse::Err(Errno::Edquot),
        ] {
            assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    /// Every response, at its widest, fits a response slot.
    #[test]
    fn every_response_fits_a_response_slot() {
        let errnos: Vec<Errno> = (0..=255).filter_map(Errno::from_code).collect();
        assert_eq!(errnos.len(), 17, "every errno the wire knows");
        let all_events = PollEvents::IN | PollEvents::OUT | PollEvents::ERR | PollEvents::HUP;
        let responses = [i64::MIN, -1, 0, i64::MAX]
            .map(WireResponse::Value)
            .into_iter()
            .chain([all_events, PollEvents::from_bits(u16::MAX)].map(WireResponse::Poll))
            .chain(errnos.into_iter().map(WireResponse::Err));
        let mut slot = [0u8; RESPONSE_SLOT_BYTES];
        for response in responses {
            let len = response.encode_into(&mut slot).expect("fits a response slot");
            assert!(len <= LONGEST_RESPONSE, "{response:?} is {len} bytes");
            assert_eq!(WireResponse::decode(&slot[..len]), Ok(response));
        }
    }

    #[test]
    fn poll_events_are_a_distinct_variant() {
        let events = PollEvents::IN | PollEvents::ERR;
        let resp = WireResponse::Poll(events);
        // The wire tag distinguishes poll readiness from a value that
        // happens to share the bit pattern.
        let as_value = WireResponse::Value(i64::from(events.bits()));
        assert_ne!(resp.encode(), as_value.encode());
        assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
        // `result()` still collapses for legacy-style callers.
        assert_eq!(resp.result(), Ok(i64::from(events.bits())));
    }

    #[test]
    fn response_trailing_and_bogus_bytes_rejected() {
        let mut bytes = WireResponse::Value(7).encode();
        bytes.push(0);
        assert_eq!(WireResponse::decode(&bytes), Err(WireError));
        assert_eq!(WireResponse::decode(&[3, 0, 0, 0, 0]), Err(WireError));
        // Poll bits beyond u16 are not representable events.
        assert_eq!(WireResponse::decode(&[2, 0, 0, 1, 0]), Err(WireError));
    }

    impl WireResponse {
        /// Wraps a classic `Result` (non-poll operations).
        fn from_result(result: Result<i64, Errno>) -> WireResponse {
            match result {
                Ok(value) => WireResponse::Value(value),
                Err(errno) => WireResponse::Err(errno),
            }
        }
    }

    #[test]
    fn from_result_and_result_are_inverse_for_non_poll() {
        for result in [Ok(17), Ok(-1), Err(Errno::Eio)] {
            assert_eq!(WireResponse::from_result(result).result(), result);
        }
    }

    #[test]
    fn signals_roundtrip() {
        let signal = WireSignal { task: 7, handle: 3 };
        assert_eq!(WireSignal::decode(&signal.encode()).unwrap(), signal);
        assert_eq!(WireSignal::decode(&[1, 2, 3]), Err(WireError));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use paradice_devfs::Errno;
    use proptest::prelude::*;

    fn arbitrary_op(pick: u8, a: u64, b: u64, c: u64) -> WireOp {
        match pick % 10 {
            0 => WireOp::Open {
                path: format!("/dev/fuzz{}", a % 1000),
                flags: OpenFlags {
                    read: a & 1 != 0,
                    write: b & 1 != 0,
                    nonblock: c & 1 != 0,
                },
            },
            1 => WireOp::Release,
            2 => WireOp::Read {
                addr: GuestVirtAddr::new(a),
                len: b,
            },
            3 => WireOp::Write {
                addr: GuestVirtAddr::new(a),
                len: b,
            },
            4 => WireOp::Ioctl {
                cmd: IoctlCmd(a as u32),
                arg: b,
            },
            5 => WireOp::Mmap {
                va: GuestVirtAddr::new(a),
                len: b,
                offset: c,
                access: Access::from_bits((a % 8) as u8),
            },
            6 => WireOp::Munmap {
                va: GuestVirtAddr::new(a),
                len: b,
            },
            7 => WireOp::Poll,
            8 => WireOp::Fasync { on: a & 1 != 0 },
            _ => WireOp::Fault {
                va: GuestVirtAddr::new(a),
            },
        }
    }

    proptest! {
        /// Every representable request survives the wire round trip, and
        /// the decoder rejects any truncation of it.
        #[test]
        fn requests_roundtrip_and_reject_truncation(
            pick in 0u8..10,
            fields in (any::<u64>(), any::<u64>(), any::<u64>()),
            header in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            grant in (any::<bool>(), any::<u32>()),
        ) {
            let (a, b, c) = fields;
            let (task, pt_root, handle, span) = header;
            let request = WireRequest {
                task,
                pt_root: GuestPhysAddr::new(pt_root),
                handle,
                span,
                grant: grant.0.then_some(GrantRef(grant.1)),
                op: arbitrary_op(pick, a, b, c),
            };
            let bytes = request.encode();
            prop_assert_eq!(WireRequest::decode(&bytes).unwrap(), request.clone());
            prop_assert_eq!(
                <WireRequest as WireCodec>::decode_wire(&bytes),
                Some(request)
            );
            for cut in 0..bytes.len() {
                prop_assert_eq!(WireRequest::decode(&bytes[..cut]), Err(WireError));
            }
        }

        /// Responses round-trip through all three variants.
        #[test]
        fn responses_roundtrip(tag in 0u8..3, value in any::<i64>(), errno_pick in 0u8..8) {
            let response = match tag {
                0 => WireResponse::Value(value),
                1 => WireResponse::Poll(PollEvents::from_bits(value as u16)),
                _ => WireResponse::Err(
                    [
                        Errno::Eperm,
                        Errno::Eio,
                        Errno::Efault,
                        Errno::Einval,
                        Errno::Enoent,
                        Errno::Ebusy,
                        Errno::Enodev,
                        Errno::Edquot,
                    ][errno_pick as usize % 8],
                ),
            };
            let bytes = response.encode();
            prop_assert_eq!(WireResponse::decode(&bytes).unwrap(), response);
            let mut padded = bytes;
            padded.push(0);
            prop_assert_eq!(WireResponse::decode(&padded), Err(WireError));
        }

        /// Signals round-trip and reject trailing bytes.
        #[test]
        fn signals_roundtrip(task in any::<u64>(), handle in any::<u64>()) {
            let signal = WireSignal { task, handle };
            let bytes = signal.encode();
            prop_assert_eq!(WireSignal::decode(&bytes).unwrap(), signal);
            let mut padded = bytes;
            padded.push(9);
            prop_assert_eq!(WireSignal::decode(&padded), Err(WireError));
        }
    }
}
