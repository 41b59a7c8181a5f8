//! paradice-trace — the span/event model threaded through the forwarding path.
//!
//! Every guest file operation forwarded by the CVD frontend opens a **span**:
//! a trace id stamped into the wire request and carried through the backend
//! dispatch and the hypervisor's memory-operation hypercalls, so that one
//! operation's full lifecycle — declared grants, wire bytes, channel stats
//! deltas, every grant-checked memory operation, and the final result — can
//! be reconstructed from a flat event log.
//!
//! The crate is dependency-free by design: the analyzer's replay lint
//! (`paradice-lint --replay`) consumes traces without pulling in the driver
//! or device crates, and the hypervisor/cvd crates record into it without a
//! cycle. Addresses, lengths, and access bits are plain integers here;
//! producers translate their typed values at the recording boundary.
//!
//! Traces serialize to JSONL (one event object per line) via
//! [`Tracer::to_jsonl`] / [`TraceEvent::to_json`] and parse back with
//! [`parse_jsonl`]. No serde: the JSON writer mirrors the hand-rolled
//! `Diagnostic::to_json` idiom used by the lint suite, and the reader is a
//! small recursive-descent parser sufficient for the schema (objects,
//! arrays, strings, integers, booleans, null).
//!
//! **Zero-cost disabled path:** a [`Tracer`] constructed with
//! [`Tracer::disabled`] holds no buffer; [`Tracer::begin_span`] returns
//! [`SpanId::NONE`] and every `record` call is a branch on an `Option` that
//! is `None` — no allocation, no formatting. Tracing never advances the
//! simulated clock, so enabling it cannot perturb virtual-time measurements
//! either.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Identifier of one traced file operation's span.
///
/// `SpanId::NONE` (zero) means "untraced": it is what a disabled tracer
/// hands out, what untraced wire requests carry, and what recording
/// functions silently ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: events attributed to it are dropped.
    pub const NONE: SpanId = SpanId(0);

    /// Returns `true` for any real (non-null) span.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span#{}", self.0)
    }
}

/// The file operation a span covers (mirrors the wire opcode set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceOpKind {
    /// `open(2)` on the virtual device file.
    Open,
    /// `close(2)` / release.
    Release,
    /// `read(2)`.
    Read,
    /// `write(2)`.
    Write,
    /// `ioctl(2)`.
    Ioctl,
    /// `mmap(2)`.
    Mmap,
    /// `munmap(2)`.
    Munmap,
    /// Page fault on a device mapping.
    Fault,
    /// `poll(2)`.
    Poll,
    /// `fcntl(F_SETFL, FASYNC)` signal registration.
    Fasync,
}

impl TraceOpKind {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceOpKind::Open => "open",
            TraceOpKind::Release => "release",
            TraceOpKind::Read => "read",
            TraceOpKind::Write => "write",
            TraceOpKind::Ioctl => "ioctl",
            TraceOpKind::Mmap => "mmap",
            TraceOpKind::Munmap => "munmap",
            TraceOpKind::Fault => "fault",
            TraceOpKind::Poll => "poll",
            TraceOpKind::Fasync => "fasync",
        }
    }

    /// Inverse of [`TraceOpKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "open" => TraceOpKind::Open,
            "release" => TraceOpKind::Release,
            "read" => TraceOpKind::Read,
            "write" => TraceOpKind::Write,
            "ioctl" => TraceOpKind::Ioctl,
            "mmap" => TraceOpKind::Mmap,
            "munmap" => TraceOpKind::Munmap,
            "fault" => TraceOpKind::Fault,
            "poll" => TraceOpKind::Poll,
            "fasync" => TraceOpKind::Fasync,
            _ => return None,
        })
    }
}

/// A declared grant, as recorded in the trace (untyped mirror of the
/// hypervisor's `MemOpGrant`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceGrant {
    /// Driver may read `[addr, addr+len)` of process memory.
    CopyFromGuest {
        /// Start of the readable range.
        addr: u64,
        /// Byte length.
        len: u64,
    },
    /// Driver may write `[addr, addr+len)` of process memory.
    CopyToGuest {
        /// Start of the writable range.
        addr: u64,
        /// Byte length.
        len: u64,
    },
    /// Driver may map pages into `[va, va + pages·4K)`.
    MapPages {
        /// Page-aligned window start.
        va: u64,
        /// Number of pages.
        pages: u64,
        /// Maximum access bits (READ=1, WRITE=2, EXEC=4).
        access: u8,
    },
    /// Driver may unmap pages in `[va, va + pages·4K)`.
    UnmapPages {
        /// Page-aligned window start.
        va: u64,
        /// Number of pages.
        pages: u64,
    },
}

/// The kind of a hypervisor-validated memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceMemOpKind {
    /// `copy_from_user` — driver reads process memory.
    CopyFromGuest,
    /// `copy_to_user` — driver writes process memory.
    CopyToGuest,
    /// `vm_insert_pfn` — driver maps one page.
    MapPage,
    /// `zap_vma_ptes` — driver unmaps one page.
    UnmapPage,
}

impl TraceMemOpKind {
    /// Stable lowercase name used in the JSONL schema.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMemOpKind::CopyFromGuest => "copy_from_guest",
            TraceMemOpKind::CopyToGuest => "copy_to_guest",
            TraceMemOpKind::MapPage => "map_page",
            TraceMemOpKind::UnmapPage => "unmap_page",
        }
    }

    /// Inverse of [`TraceMemOpKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "copy_from_guest" => TraceMemOpKind::CopyFromGuest,
            "copy_to_guest" => TraceMemOpKind::CopyToGuest,
            "map_page" => TraceMemOpKind::MapPage,
            "unmap_page" => TraceMemOpKind::UnmapPage,
            _ => return None,
        })
    }
}

/// Channel activity attributed to one span: wire bytes and delivery counts,
/// measured as stats deltas around the request/response exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WireDelta {
    /// Encoded request bytes sent frontend → backend.
    pub bytes_out: u64,
    /// Encoded response bytes received backend → frontend.
    pub bytes_in: u64,
    /// Channel deliveries (requests + responses + notifications) charged.
    pub deliveries: u64,
}

/// One event in a trace. Events sharing a `span` describe one file
/// operation's lifecycle; a well-formed span is `OpStart`, optionally
/// `Grants`, zero or more `MemOp`s, then `OpEnd`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The frontend is about to forward a file operation.
    OpStart {
        /// Span id stamped into the wire request.
        span: SpanId,
        /// Simulated time at forward, in nanoseconds.
        t_ns: u64,
        /// Originating guest VM id.
        guest: u64,
        /// Guest task issuing the operation.
        task: u64,
        /// Backend file handle (0 for `open`).
        handle: u64,
        /// Device file path, e.g. `/dev/dri/card0`.
        device: String,
        /// Which file operation.
        op: TraceOpKind,
        /// Ioctl command number (ioctl spans only).
        cmd: Option<u32>,
        /// Primary user pointer / offset argument, if the op has one.
        addr: Option<u64>,
        /// Byte length argument, if the op has one.
        len: Option<u64>,
    },
    /// The grants the frontend declared for the span's operation.
    Grants {
        /// Owning span.
        span: SpanId,
        /// Declared-legitimate memory operations.
        grants: Vec<TraceGrant>,
    },
    /// The frontend's grant-declaration cache resolved this span's grant
    /// reference: `hit` means an earlier declaration was reused (no declare
    /// hypercall), `!hit` means a cold declare populated the cache. Always
    /// accompanied by a [`TraceEvent::Grants`] event carrying the (cached or
    /// fresh) declared set, so the replay lint's used ⊆ declared ⊆ envelope
    /// check is oblivious to caching.
    GrantCache {
        /// Owning span.
        span: SpanId,
        /// `true` when a previously declared reference was reused.
        hit: bool,
    },
    /// The hypervisor validated (or blocked) one driver memory operation.
    MemOp {
        /// Owning span (`SpanId::NONE` events are never recorded).
        span: SpanId,
        /// Simulated time of the hypercall.
        t_ns: u64,
        /// Operation kind.
        kind: TraceMemOpKind,
        /// Target process virtual address.
        addr: u64,
        /// Byte length (`PAGE_SIZE` for map/unmap).
        len: u64,
        /// `true` if the grant check admitted the operation.
        ok: bool,
    },
    /// The frontend received the operation's response.
    OpEnd {
        /// Owning span.
        span: SpanId,
        /// Simulated time at completion.
        t_ns: u64,
        /// `true` when the operation succeeded.
        ok: bool,
        /// Return value on success; negated errno magnitude on failure.
        value: i64,
        /// Virtual time the whole round trip took.
        duration_ns: u64,
        /// Channel bytes/deliveries attributed to this span.
        wire: WireDelta,
    },
    /// A fault was injected into the driver VM (fault campaigns, §7.1).
    FaultInjected {
        /// The span being dispatched when the fault fired
        /// ([`SpanId::NONE`] when injected outside any traced operation).
        span: SpanId,
        /// Simulated time of the injection.
        t_ns: u64,
        /// Stable fault-kind name (`"driver-panic"`, `"hang"`, …).
        kind: String,
        /// The operation being dispatched when the fault fired.
        op: String,
    },
    /// An adversary (or fault hook) mutated this span's wire bytes in
    /// flight. A span carrying this marker must not complete with a
    /// successful `OpEnd`: the replay lint flags that as RP006, because a
    /// `WireResponse::Value` served for a tampered request means the
    /// backend acted on bytes the frontend never sent.
    WireTampered {
        /// The span whose shared-page bytes were mutated.
        span: SpanId,
        /// Simulated time of the mutation.
        t_ns: u64,
        /// Which direction was tampered: `"request"` or `"response"`.
        direction: String,
    },
    /// The hypervisor declared a driver VM failed: its grants were revoked
    /// and its hypercalls are refused until recovery.
    DriverVmFailed {
        /// The span whose operation exposed the failure, if any.
        span: SpanId,
        /// Simulated time of the declaration.
        t_ns: u64,
        /// The failed driver VM's id.
        vm: u64,
        /// Outstanding grant declarations revoked at failure time.
        revoked_grants: u64,
    },
    /// The driver VM was rebooted and its hypervisor state rebuilt.
    DriverVmRecovered {
        /// Usually [`SpanId::NONE`]: recovery runs outside guest operations.
        span: SpanId,
        /// Simulated time recovery completed.
        t_ns: u64,
        /// The recovered driver VM's id.
        vm: u64,
    },
}

impl TraceEvent {
    /// The span this event belongs to.
    pub fn span(&self) -> SpanId {
        match self {
            TraceEvent::OpStart { span, .. }
            | TraceEvent::Grants { span, .. }
            | TraceEvent::GrantCache { span, .. }
            | TraceEvent::MemOp { span, .. }
            | TraceEvent::OpEnd { span, .. }
            | TraceEvent::FaultInjected { span, .. }
            | TraceEvent::WireTampered { span, .. }
            | TraceEvent::DriverVmFailed { span, .. }
            | TraceEvent::DriverVmRecovered { span, .. } => *span,
        }
    }

    /// Driver-VM lifecycle events are machine-global, not per-operation:
    /// they are meaningful (and recorded) even with a [`SpanId::NONE`] span.
    pub fn is_lifecycle(&self) -> bool {
        matches!(
            self,
            TraceEvent::FaultInjected { .. }
                | TraceEvent::WireTampered { .. }
                | TraceEvent::DriverVmFailed { .. }
                | TraceEvent::DriverVmRecovered { .. }
        )
    }

    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        match self {
            TraceEvent::OpStart {
                span,
                t_ns,
                guest,
                task,
                handle,
                device,
                op,
                cmd,
                addr,
                len,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"op_start\",\"span\":{},\"t_ns\":{},\"guest\":{},\
                     \"task\":{},\"handle\":{},\"device\":\"{}\",\"op\":\"{}\"",
                    span.0,
                    t_ns,
                    guest,
                    task,
                    handle,
                    json_escape(device),
                    op.as_str(),
                ));
                if let Some(cmd) = cmd {
                    out.push_str(&format!(",\"cmd\":{cmd}"));
                }
                if let Some(addr) = addr {
                    out.push_str(&format!(",\"addr\":{addr}"));
                }
                if let Some(len) = len {
                    out.push_str(&format!(",\"len\":{len}"));
                }
                out.push('}');
            }
            TraceEvent::Grants { span, grants } => {
                out.push_str(&format!("{{\"type\":\"grants\",\"span\":{},\"grants\":[", span.0));
                for (i, g) in grants.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    match g {
                        TraceGrant::CopyFromGuest { addr, len } => out.push_str(&format!(
                            "{{\"kind\":\"copy_from_guest\",\"addr\":{addr},\"len\":{len}}}"
                        )),
                        TraceGrant::CopyToGuest { addr, len } => out.push_str(&format!(
                            "{{\"kind\":\"copy_to_guest\",\"addr\":{addr},\"len\":{len}}}"
                        )),
                        TraceGrant::MapPages { va, pages, access } => out.push_str(&format!(
                            "{{\"kind\":\"map_pages\",\"va\":{va},\"pages\":{pages},\
                             \"access\":{access}}}"
                        )),
                        TraceGrant::UnmapPages { va, pages } => out.push_str(&format!(
                            "{{\"kind\":\"unmap_pages\",\"va\":{va},\"pages\":{pages}}}"
                        )),
                    }
                }
                out.push_str("]}");
            }
            TraceEvent::GrantCache { span, hit } => {
                out.push_str(&format!(
                    "{{\"type\":\"grant_cache\",\"span\":{},\"hit\":{}}}",
                    span.0, hit,
                ));
            }
            TraceEvent::MemOp {
                span,
                t_ns,
                kind,
                addr,
                len,
                ok,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"mem_op\",\"span\":{},\"t_ns\":{},\"kind\":\"{}\",\
                     \"addr\":{},\"len\":{},\"ok\":{}}}",
                    span.0,
                    t_ns,
                    kind.as_str(),
                    addr,
                    len,
                    ok,
                ));
            }
            TraceEvent::OpEnd {
                span,
                t_ns,
                ok,
                value,
                duration_ns,
                wire,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"op_end\",\"span\":{},\"t_ns\":{},\"ok\":{},\
                     \"value\":{},\"duration_ns\":{},\"bytes_out\":{},\"bytes_in\":{},\
                     \"deliveries\":{}}}",
                    span.0,
                    t_ns,
                    ok,
                    value,
                    duration_ns,
                    wire.bytes_out,
                    wire.bytes_in,
                    wire.deliveries,
                ));
            }
            TraceEvent::FaultInjected {
                span,
                t_ns,
                kind,
                op,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"fault_injected\",\"span\":{},\"t_ns\":{},\
                     \"kind\":\"{}\",\"op\":\"{}\"}}",
                    span.0,
                    t_ns,
                    json_escape(kind),
                    json_escape(op),
                ));
            }
            TraceEvent::WireTampered { span, t_ns, direction } => {
                out.push_str(&format!(
                    "{{\"type\":\"wire_tampered\",\"span\":{},\"t_ns\":{},\
                     \"direction\":\"{}\"}}",
                    span.0,
                    t_ns,
                    json_escape(direction),
                ));
            }
            TraceEvent::DriverVmFailed {
                span,
                t_ns,
                vm,
                revoked_grants,
            } => {
                out.push_str(&format!(
                    "{{\"type\":\"driver_vm_failed\",\"span\":{},\"t_ns\":{},\
                     \"vm\":{},\"revoked_grants\":{}}}",
                    span.0, t_ns, vm, revoked_grants,
                ));
            }
            TraceEvent::DriverVmRecovered { span, t_ns, vm } => {
                out.push_str(&format!(
                    "{{\"type\":\"driver_vm_recovered\",\"span\":{},\"t_ns\":{},\"vm\":{}}}",
                    span.0, t_ns, vm,
                ));
            }
        }
        out
    }
}

/// Escapes `s` for a JSON string literal: quote, backslash, `\n`, `\r`
/// and `\t` by name, other control characters as `\u00XX`. The one
/// escaper every JSON emitter in the workspace uses.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[derive(Debug, Default)]
struct TraceLog {
    next_span: u64,
    events: Vec<TraceEvent>,
}

/// Handle to a trace buffer, shared by every component on the forwarding
/// path (frontends, backend, hypervisor). Cloning is cheap; all clones feed
/// the same buffer.
///
/// # Example
///
/// ```
/// use paradice_trace::{TraceEvent, TraceMemOpKind, Tracer};
///
/// let tracer = Tracer::enabled();
/// let span = tracer.begin_span();
/// tracer.mem_op(span, 10, TraceMemOpKind::CopyFromGuest, 0x1000, 8, true);
/// assert_eq!(tracer.events().len(), 1);
///
/// let off = Tracer::disabled();
/// assert!(!off.begin_span().is_some());
/// off.mem_op(off.begin_span(), 10, TraceMemOpKind::CopyFromGuest, 0, 8, true);
/// assert!(off.events().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceLog>>>,
}

impl Tracer {
    /// A tracer that records nothing and allocates nothing.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A live tracer with an empty buffer.
    pub fn enabled() -> Self {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceLog::default()))),
        }
    }

    /// `true` when events will actually be recorded. Producers use this to
    /// skip building event payloads on the disabled path.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocates the next span id, or [`SpanId::NONE`] when disabled.
    pub fn begin_span(&self) -> SpanId {
        match &self.inner {
            Some(log) => {
                let mut log = log.borrow_mut();
                log.next_span += 1;
                SpanId(log.next_span)
            }
            None => SpanId::NONE,
        }
    }

    /// Appends `event` to the buffer. Dropped when the tracer is disabled
    /// or the event belongs to [`SpanId::NONE`] — except driver-VM
    /// lifecycle events ([`TraceEvent::is_lifecycle`]), which are recorded
    /// regardless of span: faults and recoveries are machine-global.
    pub fn record(&self, event: TraceEvent) {
        if let Some(log) = &self.inner {
            if event.span().is_some() || event.is_lifecycle() {
                log.borrow_mut().events.push(event);
            }
        }
    }

    /// Convenience for the hypervisor's hypercall paths: records a
    /// [`TraceEvent::MemOp`] without the caller building the variant.
    pub fn mem_op(
        &self,
        span: SpanId,
        t_ns: u64,
        kind: TraceMemOpKind,
        addr: u64,
        len: u64,
        ok: bool,
    ) {
        if self.inner.is_some() && span.is_some() {
            self.record(TraceEvent::MemOp {
                span,
                t_ns,
                kind,
                addr,
                len,
                ok,
            });
        }
    }

    /// Snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(log) => log.borrow().events.clone(),
            None => Vec::new(),
        }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(log) => log.borrow().events.len(),
            None => 0,
        }
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serializes the whole buffer as JSONL (one event per line, trailing
    /// newline included when nonempty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(log) = &self.inner {
            for event in &log.borrow().events {
                out.push_str(&event.to_json());
                out.push('\n');
            }
        }
        out
    }
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// Parses a JSONL trace produced by [`Tracer::to_jsonl`]. Blank lines are
/// skipped; any malformed line is an error.
///
/// # Errors
///
/// [`TraceParseError`] naming the first offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = json::parse(line).map_err(|message| TraceParseError {
            line: idx + 1,
            message,
        })?;
        events.push(event_from_value(&value).map_err(|message| TraceParseError {
            line: idx + 1,
            message,
        })?);
    }
    Ok(events)
}

fn event_from_value(value: &json::Value) -> Result<TraceEvent, String> {
    let obj = value.as_object().ok_or("event is not a JSON object")?;
    let ty = get_str(obj, "type")?;
    let span = SpanId(get_u64(obj, "span")?);
    match ty {
        "op_start" => Ok(TraceEvent::OpStart {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            guest: get_u64(obj, "guest")?,
            task: get_u64(obj, "task")?,
            handle: get_u64(obj, "handle")?,
            device: get_str(obj, "device")?.to_owned(),
            op: TraceOpKind::parse(get_str(obj, "op")?)
                .ok_or_else(|| format!("unknown op kind {:?}", get_str(obj, "op")))?,
            cmd: opt_u64(obj, "cmd")?.map(|v| v as u32),
            addr: opt_u64(obj, "addr")?,
            len: opt_u64(obj, "len")?,
        }),
        "grants" => {
            let arr = obj
                .get("grants")
                .and_then(json::Value::as_array)
                .ok_or("grants event without grants array")?;
            let mut grants = Vec::with_capacity(arr.len());
            for g in arr {
                let g = g.as_object().ok_or("grant entry is not an object")?;
                grants.push(match get_str(g, "kind")? {
                    "copy_from_guest" => TraceGrant::CopyFromGuest {
                        addr: get_u64(g, "addr")?,
                        len: get_u64(g, "len")?,
                    },
                    "copy_to_guest" => TraceGrant::CopyToGuest {
                        addr: get_u64(g, "addr")?,
                        len: get_u64(g, "len")?,
                    },
                    "map_pages" => TraceGrant::MapPages {
                        va: get_u64(g, "va")?,
                        pages: get_u64(g, "pages")?,
                        access: get_u64(g, "access")? as u8,
                    },
                    "unmap_pages" => TraceGrant::UnmapPages {
                        va: get_u64(g, "va")?,
                        pages: get_u64(g, "pages")?,
                    },
                    other => return Err(format!("unknown grant kind {other:?}")),
                });
            }
            Ok(TraceEvent::Grants { span, grants })
        }
        "grant_cache" => Ok(TraceEvent::GrantCache {
            span,
            hit: get_bool(obj, "hit")?,
        }),
        "mem_op" => Ok(TraceEvent::MemOp {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            kind: TraceMemOpKind::parse(get_str(obj, "kind")?)
                .ok_or_else(|| format!("unknown mem-op kind {:?}", get_str(obj, "kind")))?,
            addr: get_u64(obj, "addr")?,
            len: get_u64(obj, "len")?,
            ok: get_bool(obj, "ok")?,
        }),
        "op_end" => Ok(TraceEvent::OpEnd {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            ok: get_bool(obj, "ok")?,
            value: get_i64(obj, "value")?,
            duration_ns: get_u64(obj, "duration_ns")?,
            wire: WireDelta {
                bytes_out: get_u64(obj, "bytes_out")?,
                bytes_in: get_u64(obj, "bytes_in")?,
                deliveries: get_u64(obj, "deliveries")?,
            },
        }),
        "fault_injected" => Ok(TraceEvent::FaultInjected {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            kind: get_str(obj, "kind")?.to_owned(),
            op: get_str(obj, "op")?.to_owned(),
        }),
        "wire_tampered" => Ok(TraceEvent::WireTampered {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            direction: get_str(obj, "direction")?.to_owned(),
        }),
        "driver_vm_failed" => Ok(TraceEvent::DriverVmFailed {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            vm: get_u64(obj, "vm")?,
            revoked_grants: get_u64(obj, "revoked_grants")?,
        }),
        "driver_vm_recovered" => Ok(TraceEvent::DriverVmRecovered {
            span,
            t_ns: get_u64(obj, "t_ns")?,
            vm: get_u64(obj, "vm")?,
        }),
        other => Err(format!("unknown event type {other:?}")),
    }
}

fn get_str<'a>(obj: &'a BTreeMap<String, json::Value>, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(json::Value::as_str)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn get_u64(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<u64, String> {
    opt_u64(obj, key)?.ok_or_else(|| format!("missing field {key:?}"))
}

fn opt_u64(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_i128()
            .and_then(|n| u64::try_from(n).ok())
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a u64")),
    }
}

fn get_i64(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<i64, String> {
    obj.get(key)
        .and_then(json::Value::as_i128)
        .and_then(|n| i64::try_from(n).ok())
        .ok_or_else(|| format!("missing or non-i64 field {key:?}"))
}

fn get_bool(obj: &BTreeMap<String, json::Value>, key: &str) -> Result<bool, String> {
    obj.get(key)
        .and_then(json::Value::as_bool)
        .ok_or_else(|| format!("missing or non-bool field {key:?}"))
}

/// Minimal JSON reader sufficient for the trace schema. Integers are kept
/// as `i128` so the full `u64` address range survives the round trip
/// (floats are rejected — the schema never emits them).
mod json {
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Value {
        Null,
        Bool(bool),
        Int(i128),
        Str(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(map) => Some(map),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_i128(&self) -> Option<i128> {
            match self {
                Value::Int(n) => Some(*n),
                _ => None,
            }
        }

        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
            Some(c) => Err(format!("unexpected byte {c:#04x} at offset {pos}")),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("malformed literal at offset {pos}"))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if matches!(bytes.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
            return Err(format!("float at offset {start} (schema is integer-only)"));
        }
        let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii digits");
        text.parse::<i128>()
            .map(Value::Int)
            .map_err(|e| format!("bad number at offset {start}: {e}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(bytes[*pos], b'"');
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            *pos += 4;
                        }
                        _ => return Err("bad escape".to_owned()),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 scalar at a time.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| "invalid UTF-8 in string")?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '['
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {pos}")),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // consume '{'
        let mut map = BTreeMap::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b'"') {
                return Err(format!("expected string key at offset {pos}"));
            }
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            if bytes.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at offset {pos}"));
            }
            *pos += 1;
            let value = parse_value(bytes, pos)?;
            map.insert(key, value);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::OpStart {
                span: SpanId(1),
                t_ns: 100,
                guest: 1,
                task: 7,
                handle: 3,
                device: "/dev/dri/card0".to_owned(),
                op: TraceOpKind::Ioctl,
                cmd: Some(0xC010_6444),
                addr: Some(0x7fff_0000),
                len: Some(24),
            },
            TraceEvent::Grants {
                span: SpanId(1),
                grants: vec![
                    TraceGrant::CopyFromGuest {
                        addr: 0x7fff_0000,
                        len: 24,
                    },
                    TraceGrant::MapPages {
                        va: 0x1000,
                        pages: 2,
                        access: 3,
                    },
                ],
            },
            TraceEvent::GrantCache {
                span: SpanId(1),
                hit: true,
            },
            TraceEvent::MemOp {
                span: SpanId(1),
                t_ns: 120,
                kind: TraceMemOpKind::CopyFromGuest,
                addr: 0x7fff_0000,
                len: 24,
                ok: true,
            },
            TraceEvent::OpEnd {
                span: SpanId(1),
                t_ns: 150,
                ok: false,
                value: -22,
                duration_ns: 50,
                wire: WireDelta {
                    bytes_out: 38,
                    bytes_in: 9,
                    deliveries: 2,
                },
            },
        ]
    }

    #[test]
    fn jsonl_roundtrip() {
        let tracer = Tracer::enabled();
        for event in sample_events() {
            tracer.record(event);
        }
        let text = tracer.to_jsonl();
        assert_eq!(text.lines().count(), 5);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn full_u64_addresses_survive() {
        let tracer = Tracer::enabled();
        tracer.record(TraceEvent::MemOp {
            span: SpanId(9),
            t_ns: 0,
            kind: TraceMemOpKind::CopyToGuest,
            addr: u64::MAX,
            len: u64::MAX,
            ok: false,
        });
        let parsed = parse_jsonl(&tracer.to_jsonl()).unwrap();
        match parsed[0] {
            TraceEvent::MemOp { addr, len, ok, .. } => {
                assert_eq!(addr, u64::MAX);
                assert_eq!(len, u64::MAX);
                assert!(!ok);
            }
            _ => panic!("wrong event"),
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        assert_eq!(tracer.begin_span(), SpanId::NONE);
        tracer.mem_op(SpanId(1), 0, TraceMemOpKind::MapPage, 0, 4096, true);
        assert!(tracer.is_empty());
        assert_eq!(tracer.to_jsonl(), "");
    }

    #[test]
    fn none_span_events_are_dropped() {
        let tracer = Tracer::enabled();
        tracer.mem_op(SpanId::NONE, 0, TraceMemOpKind::MapPage, 0, 4096, true);
        assert!(tracer.is_empty());
    }

    #[test]
    fn lifecycle_events_survive_none_span() {
        let tracer = Tracer::enabled();
        tracer.record(TraceEvent::FaultInjected {
            span: SpanId::NONE,
            t_ns: 5,
            kind: "driver-panic".to_owned(),
            op: "ioctl".to_owned(),
        });
        tracer.record(TraceEvent::DriverVmFailed {
            span: SpanId::NONE,
            t_ns: 6,
            vm: 3,
            revoked_grants: 2,
        });
        tracer.record(TraceEvent::DriverVmRecovered {
            span: SpanId::NONE,
            t_ns: 7,
            vm: 3,
        });
        assert_eq!(tracer.len(), 3);
    }

    #[test]
    fn lifecycle_events_roundtrip() {
        let events = vec![
            TraceEvent::FaultInjected {
                span: SpanId(4),
                t_ns: 100,
                kind: "malformed-response".to_owned(),
                op: "read".to_owned(),
            },
            TraceEvent::DriverVmFailed {
                span: SpanId(4),
                t_ns: 110,
                vm: 9,
                revoked_grants: 17,
            },
            TraceEvent::DriverVmRecovered {
                span: SpanId::NONE,
                t_ns: 200,
                vm: 9,
            },
        ];
        let tracer = Tracer::enabled();
        for event in events.clone() {
            tracer.record(event);
        }
        let parsed = parse_jsonl(&tracer.to_jsonl()).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn span_ids_are_sequential_and_shared() {
        let tracer = Tracer::enabled();
        let clone = tracer.clone();
        assert_eq!(tracer.begin_span(), SpanId(1));
        assert_eq!(clone.begin_span(), SpanId(2));
        assert_eq!(tracer.begin_span(), SpanId(3));
    }

    #[test]
    fn device_paths_with_escapes_roundtrip() {
        let tracer = Tracer::enabled();
        tracer.record(TraceEvent::OpStart {
            span: SpanId(2),
            t_ns: 1,
            guest: 2,
            task: 3,
            handle: 0,
            device: "weird\"path\\with\nnewline".to_owned(),
            op: TraceOpKind::Open,
            cmd: None,
            addr: None,
            len: None,
        });
        let parsed = parse_jsonl(&tracer.to_jsonl()).unwrap();
        match &parsed[0] {
            TraceEvent::OpStart { device, .. } => {
                assert_eq!(device, "weird\"path\\with\nnewline");
            }
            _ => panic!("wrong event"),
        }
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        let err = parse_jsonl("{\"type\":\"op_end\"}\nnot json\n").unwrap_err();
        assert_eq!(err.line, 1); // missing fields already fails line 1
        let err = parse_jsonl("\n{oops\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_jsonl("{\"type\":\"mystery\",\"span\":1}").is_err());
        // Trailing bytes after a valid object are malformed.
        assert!(parse_jsonl("{\"type\":\"grants\",\"span\":1,\"grants\":[]} x").is_err());
    }

    #[test]
    fn blank_lines_are_skipped() {
        assert!(parse_jsonl("\n\n  \n").unwrap().is_empty());
    }
}
