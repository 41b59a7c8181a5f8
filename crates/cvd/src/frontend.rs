//! The CVD frontend: the guest-side virtual device file.
//!
//! "We create a virtual device file inside the guest VM that mirrors the
//! actual device file. Applications in the guest VM issue file operations to
//! this virtual device file as if it were the real one" (paper §3.1). Before
//! forwarding each operation, the frontend *declares its legitimate memory
//! operations* in the grant table (§4.1):
//!
//! * `read`/`write` — directly from the buffer arguments;
//! * `ioctl` — from the analyzer's static entries, by JIT-evaluating the
//!   extracted slice against the caller's own memory (nested copies), or —
//!   for commands absent from the table — from the `_IOC` command encoding;
//! * `mmap` — a `MapPages` window; the frontend also pre-creates all guest
//!   page-table levels except the last (§5.2);
//! * `munmap` — the guest kernel destroys its own leaf mappings first, then
//!   declares an `UnmapPages` window.
//!
//! OS personalities capture the paper's cross-OS result (§3.2.2/§5.1): the
//! file-operation list differs slightly per kernel (14 LoC to support a new
//! Linux), and FreeBSD needs a 12-LoC hook to pass the `mmap` address range
//! to the frontend.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use paradice_analyzer::extract::HandlerReport;
use paradice_analyzer::ir::OpKind;
use paradice_analyzer::jit::{Derivation, JitScratch, ResolvedOp, UserReader};
use paradice_devfs::fileops::{FileOpKind, OpenFlags, PollEvents, TaskId};
use paradice_devfs::ioc::IoctlCmd;
use paradice_devfs::Errno;
use paradice_hypervisor::{ChannelError, ChannelStats, GrantRef, MemOpGrant, SharedHypervisor, VmId};
use paradice_mem::pagetable::GuestPageTables;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};
use paradice_trace::{SpanId, TraceEvent, TraceGrant, Tracer, WireDelta};

use crate::backend::SharedBackend;
use crate::cache::{Eviction, GrantCache, GrantCacheKey};
use crate::proto::{CvdChannel, WireOp, WireRequest, WireResponse, MAX_PATH};

/// Default per-operation watchdog deadline on the virtual clock (50 ms).
///
/// Far above any legitimate forwarding cost (an interrupt round trip is
/// ~35 µs, §6.2) yet short enough that a guest process blocked on a dead
/// driver unblocks promptly with `ETIMEDOUT` (§7.1).
pub const DEFAULT_OP_DEADLINE_NS: u64 = 50_000_000;

/// The guest OS flavor a frontend is built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsPersonality {
    /// Linux with the given kernel version.
    Linux {
        /// Major version (2 or 3 in the paper's deployment).
        major: u8,
        /// Minor version.
        minor: u8,
        /// Patch level.
        patch: u8,
    },
    /// FreeBSD 9-era.
    FreeBsd,
}

impl OsPersonality {
    /// The paper's Linux 2.6.35 guest.
    pub const LINUX_2_6_35: OsPersonality = OsPersonality::Linux {
        major: 2,
        minor: 6,
        patch: 35,
    };
    /// The paper's Linux 3.2.0 guest/driver VM.
    pub const LINUX_3_2_0: OsPersonality = OsPersonality::Linux {
        major: 3,
        minor: 2,
        patch: 0,
    };

    /// The kernel's possible file operations — "we added only 14 LoC to the
    /// CVD to update the list of all possible file operations based on the
    /// new kernel" (§5.1). The core set used by device drivers is identical
    /// everywhere; 3.x adds `fallocate` to `file_operations`.
    pub fn supported_ops(self) -> Vec<FileOpKind> {
        let mut ops = vec![
            FileOpKind::Open,
            FileOpKind::Release,
            FileOpKind::Read,
            FileOpKind::Write,
            FileOpKind::Ioctl,
            FileOpKind::Mmap,
            FileOpKind::Fault,
            FileOpKind::Poll,
            FileOpKind::Fasync,
            FileOpKind::Llseek,
            FileOpKind::Flush,
            FileOpKind::Fsync,
        ];
        match self {
            OsPersonality::Linux { major, .. } if major >= 3 => {
                ops.push(FileOpKind::CompatIoctl);
                ops.push(FileOpKind::Fallocate);
            }
            OsPersonality::Linux { .. } => ops.push(FileOpKind::CompatIoctl),
            OsPersonality::FreeBsd => {}
        }
        ops
    }

    /// Whether this kernel passes the `mmap` range implicitly (Linux) or
    /// needs the explicit 12-LoC hook (FreeBSD, §5.1).
    pub fn needs_mmap_hook(self) -> bool {
        self == OsPersonality::FreeBsd
    }
}

/// What the frontend knows about a device's ioctl commands: the analyzer's
/// per-command extraction ("static entries in a source file that is included
/// in the CVD frontend", §4.1), with every JIT slice compiled once, here.
#[derive(Debug, Clone, Default)]
pub struct IoctlKnowledge {
    /// Analyzed commands; any other falls back to `_IOC` parsing.
    commands: BTreeMap<u32, Derivation>,
    /// The one scratch every JIT run of these commands reuses.
    scratch: RefCell<JitScratch>,
}

impl IoctlKnowledge {
    /// Knowledge from an analyzer report.
    pub fn from_report(report: HandlerReport) -> Self {
        let commands = report.commands.into_iter().map(|(cmd, e)| (cmd, e.into())).collect();
        IoctlKnowledge {
            commands,
            ..Self::default()
        }
    }

    /// No analysis available: fall back to `_IOC` parsing for every command
    /// (sufficient for drivers whose ioctls only copy their parameter
    /// struct, like UVC, §4.1).
    pub fn ioc_only() -> Self {
        Self::default()
    }

    /// Whether `cmd`'s grants come from JIT evaluation.
    fn is_jit(&self, cmd: IoctlCmd) -> bool {
        matches!(self.commands.get(&cmd.raw()), Some(Derivation::Jit(_)))
    }

    /// Derives the legitimate memory operations of `ioctl(cmd, arg)`.
    ///
    /// # Errors
    ///
    /// As [`IoctlKnowledge::grants_into`].
    pub fn grants_for(
        &self,
        cmd: IoctlCmd,
        arg: u64,
        reader: &mut dyn UserReader,
    ) -> Result<Vec<MemOpGrant>, Errno> {
        let mut grants = Vec::new();
        self.grants_into(cmd, arg, reader, &mut grants)?;
        Ok(grants)
    }

    /// Derives the legitimate memory operations of `ioctl(cmd, arg)` into
    /// `grants`, replacing its contents: a caller that keeps one buffer
    /// derives grants without allocating, but for the pins of a JIT command
    /// whose slice can make two consumed fetches.
    ///
    /// # Errors
    ///
    /// `EFAULT` if JIT evaluation cannot read the caller's memory (the
    /// operation would fault in the driver anyway) or the command's slice is
    /// malformed.
    pub fn grants_into(
        &self,
        cmd: IoctlCmd,
        arg: u64,
        reader: &mut dyn UserReader,
        grants: &mut Vec<MemOpGrant>,
    ) -> Result<(), Errno> {
        grants.clear();
        match self.commands.get(&cmd.raw()) {
            Some(Derivation::Static(templates)) => {
                grants.extend(templates.iter().map(|t| grant(t.kind, t.addr.resolve(arg), t.len)));
            }
            Some(Derivation::Jit(program)) => {
                let mut emit = |op: ResolvedOp| grants.push(grant(op.kind, op.addr, op.len));
                program
                    .run(&mut self.scratch.borrow_mut(), cmd.raw(), arg, reader, &mut emit)
                    .map_err(|_| Errno::Efault)?;
            }
            // Fallback: the `_IOC` encoding embeds size and direction (§4.1).
            None => {
                let size = u64::from(cmd.size());
                let addr = GuestVirtAddr::new(arg);
                if size > 0 && cmd.dir().copies_from_user() {
                    grants.push(MemOpGrant::CopyFromGuest { addr, len: size });
                }
                if size > 0 && cmd.dir().copies_to_user() {
                    grants.push(MemOpGrant::CopyToGuest { addr, len: size });
                }
            }
        }
        Ok(())
    }
}

/// The grant a driver-side copy of `len` bytes at user address `addr` needs.
fn grant(kind: OpKind, addr: u64, len: u64) -> MemOpGrant {
    let addr = GuestVirtAddr::new(addr);
    match kind {
        OpKind::CopyFromUser => MemOpGrant::CopyFromGuest { addr, len },
        OpKind::CopyToUser => MemOpGrant::CopyToGuest { addr, len },
    }
}

/// Reads the calling process's own memory for JIT grant derivation.
struct ProcessReader {
    hv: SharedHypervisor,
    guest: VmId,
    pt_root: GuestPhysAddr,
}

impl UserReader for ProcessReader {
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        self.hv
            .borrow_mut()
            .process_read(self.guest, self.pt_root, GuestVirtAddr::new(addr), buf)
            .map_err(|_| ())
    }
}

#[derive(Debug, Clone)]
struct OpenFile {
    backend_handle: u64,
    path: String,
}

/// Mirrors a declared grant into its trace representation.
pub(crate) fn trace_grant(grant: &MemOpGrant) -> TraceGrant {
    match *grant {
        MemOpGrant::CopyFromGuest { addr, len } => TraceGrant::CopyFromGuest {
            addr: addr.raw(),
            len,
        },
        MemOpGrant::CopyToGuest { addr, len } => TraceGrant::CopyToGuest {
            addr: addr.raw(),
            len,
        },
        MemOpGrant::MapPages { va, pages, access } => TraceGrant::MapPages {
            va: va.raw(),
            pages,
            access: access.bits(),
        },
        MemOpGrant::UnmapPages { va, pages } => TraceGrant::UnmapPages {
            va: va.raw(),
            pages,
        },
    }
}

/// A device mapping the frontend has forwarded: needed to derive grants for
/// page faults in lazily-populated mappings (§2.1's "supporting page fault
/// handler").
#[derive(Debug, Clone, Copy)]
struct Vma {
    fd: u64,
    va: GuestVirtAddr,
    len: u64,
    access: Access,
}

/// Frontend statistics (development-effort and overhead reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontendStats {
    /// File operations forwarded.
    pub ops_forwarded: u64,
    /// Grants declared.
    pub grants_declared: u64,
    /// Ioctls whose grants came from JIT evaluation.
    pub jit_evaluations: u64,
    /// Declare hypercalls skipped because the grant-declaration cache held
    /// a live reference for the identical op shape (fast path).
    pub grant_cache_hits: u64,
}

/// Capacity of the grant-declaration cache, comfortably under the
/// hypervisor's per-guest grant-table capacity so transient per-op
/// declarations always have room. Public so eviction tests can fill the
/// cache to exactly this many shapes.
pub const GRANT_CACHE_CAP: usize = 64;

/// Ring depth the fast path asks of the channel (clamped by the channel to
/// what the shared page supports).
const FASTPATH_RING_DEPTH: usize = 8;

/// First half-open retry window after the breaker trips (virtual ns).
/// Four watchdog deadlines: long enough that a freshly-contained driver VM
/// is never probed while the guest is still timing out, short enough that a
/// recovered VM is rediscovered without an explicit frontend reset.
pub const BREAKER_BASE_BACKOFF_NS: u64 = 4 * DEFAULT_OP_DEADLINE_NS;

/// Ceiling on the exponential backoff (16× the base window).
pub const BREAKER_MAX_BACKOFF_NS: u64 = 16 * BREAKER_BASE_BACKOFF_NS;

/// The watchdog circuit breaker (§7.1) as a half-open state machine.
///
/// `Closed` forwards normally. A trip opens the breaker for an
/// exponentially growing backoff window on the virtual clock: inside the
/// window every op fails fast (`EIO`, nothing forwarded). At expiry, if the
/// hypervisor still reports the driver VM failed the breaker re-opens with
/// a doubled window (probing a known-dead VM cannot succeed — its
/// hypercalls are refused); otherwise the next synchronous op runs as the
/// `HalfOpen` probe, whose outcome closes the breaker (and resets the
/// backoff) or re-trips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Forwarding normally.
    Closed,
    /// Failing fast until `until_ns` on the virtual clock.
    Open {
        /// End of the current backoff window.
        until_ns: u64,
    },
    /// One probe op is in flight; its outcome settles the breaker.
    HalfOpen,
}

/// An operation posted to the ring whose response has not been taken yet.
#[derive(Debug)]
struct PendingOp {
    task: TaskId,
    span: SpanId,
    /// Span start; the hang watchdog also measures its wait from here.
    start_ns: u64,
    stats_before: ChannelStats,
    grant: Option<GrantRef>,
    /// `true` when the grant reference lives in the cache and must survive
    /// this op's completion; `false` means per-op declare → revoke.
    cache_owned: bool,
    /// The calling task when the op is an `open`: one that succeeds after
    /// its caller timed out leaves a backend handle nobody holds, which
    /// [`Frontend::complete`] releases.
    opener: Option<u64>,
}

/// The CVD frontend for one guest VM.
pub struct Frontend {
    hv: SharedHypervisor,
    guest: VmId,
    personality: OsPersonality,
    channel: Rc<RefCell<CvdChannel>>,
    backend: SharedBackend,
    knowledge: BTreeMap<String, Rc<IoctlKnowledge>>,
    open: BTreeMap<u64, OpenFile>,
    backend_to_local: BTreeMap<u64, u64>,
    next_fd: u64,
    /// The FreeBSD 12-LoC hook's state: the VA range of the next `mmap`.
    pending_mmap_range: Option<(GuestVirtAddr, u64)>,
    /// Forwarded device mappings, for fault-grant derivation.
    vmas: Vec<Vma>,
    stats: FrontendStats,
    /// paradice-trace sink; disabled by default (zero-cost path).
    tracer: Tracer,
    /// Circuit breaker: once the watchdog declares the driver VM dead,
    /// operations fail fast without forwarding until a half-open probe
    /// succeeds or the machine recovers the driver VM (§7.1).
    breaker: BreakerState,
    /// Current backoff window width; 0 while the breaker has never tripped
    /// since the last close, then doubling per re-trip up to the cap.
    breaker_backoff_ns: u64,
    /// Fast path enabled: grant-declaration cache + pipelined ring.
    fastpath: bool,
    /// Memoized grant declarations (fast path): op shape → live reference,
    /// with explicit ownership handoff on eviction (see [`crate::cache`]).
    grant_cache: GrantCache,
    /// The current op's cache key, refilled in place for every lookup and
    /// copied only into a cold insert.
    cache_key: GrantCacheKey,
    /// The current ioctl's derived grants, refilled in place for every op.
    grant_buf: Vec<MemOpGrant>,
    /// Requests posted to the ring, awaiting their FIFO-ordered responses.
    pipeline: Vec<PendingOp>,
    /// Results of completed pipelined ops, each handed out by its task's
    /// `flush_pipeline`.
    completed: Vec<(TaskId, Result<i64, Errno>)>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("guest", &self.guest)
            .field("personality", &self.personality)
            .field("open_files", &self.open.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Frontend {
    /// Creates a frontend for `guest` speaking to `backend` over `channel`.
    pub fn new(
        hv: SharedHypervisor,
        guest: VmId,
        personality: OsPersonality,
        channel: Rc<RefCell<CvdChannel>>,
        backend: SharedBackend,
    ) -> Self {
        Frontend {
            hv,
            guest,
            personality,
            channel,
            backend,
            knowledge: BTreeMap::new(),
            open: BTreeMap::new(),
            backend_to_local: BTreeMap::new(),
            next_fd: 3, // after stdio, for verisimilitude
            pending_mmap_range: None,
            vmas: Vec::new(),
            stats: FrontendStats::default(),
            tracer: Tracer::disabled(),
            breaker: BreakerState::Closed,
            breaker_backoff_ns: 0,
            fastpath: false,
            grant_cache: GrantCache::new(GRANT_CACHE_CAP),
            cache_key: GrantCacheKey::default(),
            grant_buf: Vec::new(),
            pipeline: Vec::new(),
            completed: Vec::new(),
        }
    }

    /// Enables or disables the fast path: the grant-declaration cache plus
    /// a multi-entry ring on the channel (one doorbell per batch). Turning
    /// it off revokes every cached declaration and restores the paper's
    /// single bounded slot.
    pub fn set_fastpath(&mut self, on: bool) {
        if self.fastpath && !on {
            // In-flight pipelined ops may still carry cache-owned refs;
            // complete them before revoking the cache, or the backend's
            // hypercalls for those ops would fail validation spuriously.
            // (The bounded-model checker's revocation model caught the
            // revoke-before-drain ordering; see `crates/verify`.)
            self.drain_pipeline();
            self.purge_grant_cache(true);
        }
        self.fastpath = on;
        self.channel
            .borrow_mut()
            .set_ring_depth(if on { FASTPATH_RING_DEPTH } else { 1 });
    }

    /// Live grant-cache entries (tests and overhead accounting).
    pub fn grant_cache_len(&self) -> usize {
        self.grant_cache.len()
    }

    /// Snapshot of this guest's channel statistics (bench reporting).
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel.borrow().stats()
    }

    /// Drops every cached declaration. `revoke` issues the revoke
    /// hypercalls; failure/recovery paths pass `false` because
    /// `mark_driver_vm_failed` already revoked everything server-side and
    /// the cached references are stale.
    fn purge_grant_cache(&mut self, revoke: bool) {
        let refs = self.grant_cache.purge();
        if revoke {
            let mut hv = self.hv.borrow_mut();
            for grant in refs {
                let _ = hv.revoke_grant(self.guest, grant);
            }
        }
    }

    /// Trips the circuit breaker after driver-VM containment: cached grant
    /// references died with the VM's grant table, so the cache empties
    /// without revoke hypercalls. Each trip doubles the half-open backoff
    /// window (capped), starting from [`BREAKER_BASE_BACKOFF_NS`].
    fn trip_breaker(&mut self) {
        self.breaker_backoff_ns = match self.breaker_backoff_ns {
            0 => BREAKER_BASE_BACKOFF_NS,
            backoff => (backoff * 2).min(BREAKER_MAX_BACKOFF_NS),
        };
        let until_ns = self.now_ns().saturating_add(self.breaker_backoff_ns);
        self.breaker = BreakerState::Open { until_ns };
        self.purge_grant_cache(false);
    }

    /// Closes the breaker after a successful half-open probe (or recovery):
    /// forwarding resumes and the backoff resets to the base window.
    fn close_breaker(&mut self) {
        self.breaker = BreakerState::Closed;
        self.breaker_backoff_ns = 0;
    }

    /// Admission control for one op: `Ok(false)` to forward normally,
    /// `Ok(true)` when this op is the half-open probe, `Err` to fail fast
    /// while the breaker holds. Only a synchronous op may probe
    /// (`may_probe`): the retry must be a single op whose outcome is
    /// attributable, so a pipelined submission fails fast until one has.
    fn admit_op(&mut self, may_probe: bool) -> Result<bool, Errno> {
        let failed = self
            .hv
            .borrow()
            .driver_vm_failed(self.backend.borrow().driver_vm());
        match self.breaker {
            BreakerState::Closed => {
                if failed {
                    // The hypervisor learned of the failure first (another
                    // guest's watchdog, or a direct containment): trip
                    // without forwarding.
                    self.trip_breaker();
                    return Err(Errno::Eio);
                }
                Ok(false)
            }
            BreakerState::Open { until_ns } => {
                if !may_probe || self.now_ns() < until_ns {
                    return Err(Errno::Eio);
                }
                if failed {
                    // Backoff expired but the driver VM is still contained:
                    // a probe cannot succeed (its hypercalls are refused),
                    // so stay open with a doubled window.
                    self.trip_breaker();
                    return Err(Errno::Eio);
                }
                self.breaker = BreakerState::HalfOpen;
                Ok(true)
            }
            // Single-threaded frontends never re-enter here mid-probe, but
            // treat it as the probe if they do.
            BreakerState::HalfOpen if may_probe => Ok(true),
            BreakerState::HalfOpen => Err(Errno::Eio),
        }
    }


    /// Whether the circuit breaker has tripped (operations fail fast).
    pub fn breaker_open(&self) -> bool {
        self.breaker != BreakerState::Closed
    }

    /// The current half-open backoff window width (0 = never tripped since
    /// the last close). Tests pin the exponential schedule through this.
    pub fn breaker_backoff_ns(&self) -> u64 {
        self.breaker_backoff_ns
    }

    /// Rebinds the frontend to a recovered driver VM: every guest-local
    /// descriptor is invalidated (backend handles died with the VM, so the
    /// guest must reopen, §7.1), device mappings are forgotten, the channel
    /// slots are cleared of stale bytes, and the circuit breaker closes.
    pub fn reset_after_recovery(&mut self) {
        self.open.clear();
        self.backend_to_local.clear();
        self.vmas.clear();
        self.pending_mmap_range = None;
        self.close_breaker();
        // Cached references died with the old driver VM's grant table; no
        // stale ref may survive recovery, and no revoke hypercalls are owed.
        self.purge_grant_cache(false);
        self.pipeline.clear();
        self.completed.clear();
        self.channel.borrow_mut().reset();
    }

    /// Installs the trace sink (shared with the hypervisor and the other
    /// frontends; see `Machine::enable_tracing`).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The guest this frontend serves.
    pub fn guest(&self) -> VmId {
        self.guest
    }

    /// Statistics so far.
    pub fn stats(&self) -> FrontendStats {
        self.stats
    }

    /// Installs analyzer knowledge for the device at `path` (the generated
    /// source file of §4.1).
    pub fn install_knowledge(&mut self, path: &str, knowledge: IoctlKnowledge) {
        self.knowledge.insert(path.to_owned(), Rc::new(knowledge));
    }

    /// The FreeBSD hook (§5.1): records the VA range of the upcoming `mmap`
    /// "since these addresses are needed by the Linux device driver and by
    /// the Paradice hypervisor API".
    pub fn freebsd_set_mmap_range(&mut self, va: GuestVirtAddr, len: u64) {
        self.pending_mmap_range = Some((va, len));
    }

    fn declare(&mut self, ops: &[MemOpGrant]) -> Result<GrantRef, Errno> {
        self.stats.grants_declared += 1;
        self.hv
            .borrow_mut()
            .declare_grants(self.guest, ops)
            .map_err(|_| Errno::Enomem)
    }

    fn revoke(&mut self, grant: GrantRef) {
        let _ = self.hv.borrow_mut().revoke_grant(self.guest, grant);
    }

    fn now_ns(&self) -> u64 {
        self.hv.borrow().clock().now_ns()
    }

    /// One file operation, start to finish: a pipeline of one. Both halves
    /// of the lifecycle — [`Frontend::post`] and [`Frontend::complete`] —
    /// are the ones a pipelined submission goes through; only the half-open
    /// probe around them is a synchronous-only policy.
    ///
    /// `grants: Some(ops)` declares `ops` (even when empty — a grant
    /// reference is still allocated, matching the paper's per-operation
    /// grant lifecycle) and attaches the reference to the request;
    /// `None` forwards grant-free (open/release/poll/fasync).
    fn run_op(
        &mut self,
        task: TaskId,
        pt_root: GuestPhysAddr,
        handle: u64,
        grants: Option<&[MemOpGrant]>,
        op: WireOp,
    ) -> Result<WireResponse, Errno> {
        // Responses are FIFO-matched on the ring: any pipelined submissions
        // must complete before a synchronous op shares the channel.
        self.drain_pipeline();
        // Circuit breaker (§7.1): while the driver VM is down, fail fast —
        // no grant, no forwarding, no deadline wait — until a half-open
        // probe succeeds or the machine recovers the driver VM.
        let probing = self.admit_op(true)?;
        let result = self.post(task, pt_root, handle, grants, op).and_then(|pending| {
            let mut served = self.backend.borrow_mut().handle_request(self.guest);
            self.complete(&pending, &mut served)
        });
        if probing {
            match (&result, self.breaker) {
                // Any answer — even an errno from the driver — proves the
                // driver VM is serving again: close and reset the backoff.
                (Ok(_), _) => self.close_breaker(),
                // The probe failed without containment (e.g. delivery past
                // the deadline): re-trip with a doubled window. A probe
                // that *did* contain already re-tripped inside `complete`.
                (Err(_), BreakerState::HalfOpen) => self.trip_breaker(),
                (Err(_), _) => {}
            }
        }
        result
    }

    /// First half of the op lifecycle: open the span, resolve the grant and
    /// put the request on the ring. On any failure the span is closed and a
    /// per-op grant revoked before the errno is returned.
    fn post(
        &mut self,
        task: TaskId,
        pt_root: GuestPhysAddr,
        handle: u64,
        grants: Option<&[MemOpGrant]>,
        op: WireOp,
    ) -> Result<PendingOp, Errno> {
        let pending = self.begin_op(task, handle, grants, &op)?;
        self.stats.ops_forwarded += 1;
        let request = WireRequest {
            task: task.0,
            pt_root,
            handle,
            span: pending.span.0,
            grant: pending.grant,
            op,
        };
        // Only a pipelined submission can meet a full ring — a synchronous
        // op starts on a drained one: complete the
        // accumulated batch, then retry.
        let retry = (!self.pipeline.is_empty()).then(|| request.clone());
        let mut sent = self.channel.borrow_mut().send_request(request);
        if let (Err(ChannelError::SlotBusy), Some(request)) = (sent, retry) {
            self.drain_pipeline();
            sent = self.channel.borrow_mut().send_request(request);
        }
        if sent.is_err() {
            self.finish(&pending, Err(Errno::Eagain));
            return Err(Errno::Eagain);
        }
        Ok(pending)
    }

    /// Opens an op's span and resolves its grant.
    fn begin_op(
        &mut self,
        task: TaskId,
        handle: u64,
        grants: Option<&[MemOpGrant]>,
        op: &WireOp,
    ) -> Result<PendingOp, Errno> {
        let enabled = self.tracer.is_enabled();
        let span = self.tracer.begin_span();
        let start_ns = self.now_ns();
        let stats_before = if enabled {
            let (kind, cmd, addr, len) = op.span_labels();
            self.tracer.record(TraceEvent::OpStart {
                span,
                t_ns: start_ns,
                guest: u64::from(self.guest.0),
                task: task.0,
                handle,
                device: self.device_of(handle, op),
                op: kind,
                cmd,
                addr,
                len,
            });
            self.channel.borrow().stats()
        } else {
            ChannelStats::default()
        };
        let mut pending = PendingOp {
            task,
            span,
            start_ns,
            stats_before,
            grant: None,
            cache_owned: false,
            opener: matches!(op, WireOp::Open { .. }).then_some(task.0),
        };
        if let Some(ops) = grants {
            if enabled {
                self.tracer.record(TraceEvent::Grants {
                    span,
                    grants: ops.iter().map(trace_grant).collect(),
                });
            }
            match self.resolve_grant(handle, op, ops, span, enabled) {
                Ok((grant, cache_owned)) => {
                    pending.grant = Some(grant);
                    pending.cache_owned = cache_owned;
                }
                Err(errno) => {
                    self.finish(&pending, Err(errno));
                    return Err(errno);
                }
            }
        }
        Ok(pending)
    }

    /// The device path a span is labelled with: the op's own for `open`,
    /// otherwise the one its handle was opened with.
    fn device_of(&self, handle: u64, op: &WireOp) -> String {
        match op {
            WireOp::Open { path, .. } => path.clone(),
            _ => self
                .backend_to_local
                .get(&handle)
                .and_then(|fd| self.open.get(fd))
                .map_or_else(String::new, |file| file.path.clone()),
        }
    }

    /// Resolves the grant reference for one op: on the fast path, cacheable
    /// shapes (`read`/`write`/`ioctl`) reuse a memoized declaration when the
    /// full grant set matches — skipping the declare hypercall —
    /// and a cold declare populates the cache (skipping the revoke). Every
    /// cached reference is still strictly validated by the hypervisor on
    /// each use. Returns `(grant, cache_owned)`.
    fn resolve_grant(
        &mut self,
        handle: u64,
        op: &WireOp,
        ops: &[MemOpGrant],
        span: SpanId,
        enabled: bool,
    ) -> Result<(GrantRef, bool), Errno> {
        if self.fastpath && self.cache_key.refill(self.guest.0, handle, op, ops) {
            if let Some(grant) = self.grant_cache.lookup(&self.cache_key) {
                self.stats.grant_cache_hits += 1;
                if enabled {
                    self.tracer.record(TraceEvent::GrantCache { span, hit: true });
                }
                return Ok((grant, true));
            }
            let grant = self.declare(ops)?;
            let pipeline = &self.pipeline;
            let eviction = self.grant_cache.insert(&self.cache_key, grant, |evicted| {
                pipeline.iter().any(|p| p.grant == Some(evicted))
            });
            match eviction {
                Eviction::None => {}
                Eviction::Revoke(evicted) => self.revoke(evicted),
                // The evicted ref is still attached to in-flight
                // pipelined ops: revoking now would fail their
                // hypercalls mid-flight. Hand ownership to the *last*
                // pending op using it — `drain_pipeline` revokes
                // non-cache-owned grants after completion, and earlier
                // ops sharing the ref stay `cache_owned` so only the
                // final use revokes.
                Eviction::Transfer(evicted) => {
                    if let Some(entry) = self
                        .pipeline
                        .iter_mut()
                        .rev()
                        .find(|p| p.grant == Some(evicted))
                    {
                        entry.cache_owned = false;
                    }
                }
            }
            if enabled {
                self.tracer.record(TraceEvent::GrantCache { span, hit: false });
            }
            return Ok((grant, true));
        }
        self.declare(ops).map(|grant| (grant, false))
    }

    /// Second half of the op lifecycle: take the response and judge it.
    ///
    /// `served` is what the backend made of the batch this op was posted
    /// in; containment overwrites it, because the responses still on the
    /// ring can no longer be attributed to the ops waiting for them — the
    /// rest of a pipelined batch then fails wholesale without touching the
    /// ring. Every way out closes the span and revokes a per-op grant.
    fn complete(
        &mut self,
        op: &PendingOp,
        served: &mut Result<(), Errno>,
    ) -> Result<WireResponse, Errno> {
        let outcome = served.and_then(|()| {
            let taken = self.channel.borrow_mut().take_response();
            match taken {
                Ok(response) => {
                    // The watchdog measures *delivery* lag — time the
                    // response sat on the ring after the backend's last
                    // post — not total execution time: blocking operations
                    // (a GEM wait-idle, a read on an idle device) may
                    // legitimately run longer than any fixed deadline. A
                    // wedged driver never posts at all and is caught by the
                    // `Empty` arm below.
                    let lag = self
                        .now_ns()
                        .saturating_sub(self.backend.borrow().last_post_ns());
                    if lag <= DEFAULT_OP_DEADLINE_NS {
                        return Ok(response);
                    }
                    // The response arrived, but the guest kernel has
                    // already timed the call out. The driver is
                    // demonstrably alive (it answered), so no containment —
                    // just the errno, and for an `open` that succeeded
                    // after its caller gave up, the release of the orphaned
                    // backend handle so exclusive devices don't stay wedged.
                    if let (Some(task), WireResponse::Value(handle @ 0..)) = (op.opener, response) {
                        let release = WireRequest {
                            task,
                            pt_root: GuestPhysAddr::new(0),
                            handle: handle as u64,
                            span: 0,
                            grant: None,
                            op: WireOp::Release,
                        };
                        if self.channel.borrow_mut().send_request(release).is_ok() {
                            let _ = self.backend.borrow_mut().handle_request(self.guest);
                            let _ = self.channel.borrow_mut().take_response();
                        }
                    }
                    Err(Errno::Etimedout)
                }
                // A paused backend is a test/diagnostic state queueing
                // requests on purpose, not a dead driver: do not trip the
                // watchdog.
                Err(ChannelError::Empty) if self.backend.borrow().is_paused() => Err(Errno::Eio),
                Err(ChannelError::Empty) => {
                    // No response and the backend is live: a hung or dead
                    // driver. Model the guest blocking until the watchdog
                    // deadline on the virtual clock, then contain the driver
                    // VM and unblock the caller with ETIMEDOUT (§7.1).
                    let waited = self.now_ns().saturating_sub(op.start_ns);
                    self.hv
                        .borrow()
                        .clock()
                        .advance(DEFAULT_OP_DEADLINE_NS.saturating_sub(waited));
                    *served = self.contain();
                    Err(Errno::Etimedout)
                }
                Err(_) => {
                    // Garbage on the response ring: the driver VM is
                    // corrupted. Contain it before its next move.
                    *served = self.contain();
                    Err(Errno::Eio)
                }
            }
        });
        self.finish(op, outcome);
        outcome
    }

    /// Contains the driver VM — grants revoked, further hypercalls refused —
    /// and trips the breaker. Returns what every op still waiting on the
    /// ring gets.
    fn contain(&mut self) -> Result<(), Errno> {
        let driver_vm = self.backend.borrow().driver_vm();
        let _ = self.hv.borrow_mut().mark_driver_vm_failed(driver_vm);
        self.trip_breaker();
        Err(Errno::Eio)
    }

    /// Ends an op whichever way it went: close the span — final result,
    /// duration, and the channel-stats delta the operation was responsible
    /// for — then revoke a grant only this op owns.
    fn finish(&mut self, op: &PendingOp, outcome: Result<WireResponse, Errno>) {
        if self.tracer.is_enabled() {
            let end_ns = self.now_ns();
            let after = self.channel.borrow().stats();
            let before = &op.stats_before;
            let (ok, value) = match outcome {
                Ok(WireResponse::Value(value)) => (true, value),
                Ok(WireResponse::Poll(events)) => (true, i64::from(events.bits())),
                Ok(WireResponse::Err(errno)) | Err(errno) => (false, -i64::from(errno.code())),
            };
            self.tracer.record(TraceEvent::OpEnd {
                span: op.span,
                t_ns: end_ns,
                ok,
                value,
                duration_ns: end_ns.saturating_sub(op.start_ns),
                wire: WireDelta {
                    bytes_out: after.request_bytes - before.request_bytes,
                    bytes_in: (after.response_bytes + after.notification_bytes)
                        - (before.response_bytes + before.notification_bytes),
                    deliveries: after.deliveries() - before.deliveries(),
                },
            });
        }
        if let (Some(grant), false) = (op.grant, op.cache_owned) {
            self.revoke(grant);
        }
    }

    /// Opens the virtual device file mirroring `path`; returns a guest-local
    /// descriptor.
    ///
    /// # Errors
    ///
    /// `EINVAL`, before anything is posted, for a path longer than
    /// [`MAX_PATH`] (its request would not fit a shared-page slot; the
    /// backend refuses such a path with the same errno); otherwise
    /// whatever the real driver/devfs returns (`ENOENT`, `EBUSY`, …).
    pub fn open(&mut self, task: TaskId, path: &str, flags: OpenFlags) -> Result<u64, Errno> {
        if path.len() > MAX_PATH {
            return Err(Errno::Einval);
        }
        let op = WireOp::Open {
            path: path.to_owned(),
            flags,
        };
        let backend_handle = self
            .run_op(task, GuestPhysAddr::new(0), 0, None, op)?
            .result()? as u64;
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open.insert(
            fd,
            OpenFile {
                backend_handle,
                path: path.to_owned(),
            },
        );
        self.backend_to_local.insert(backend_handle, fd);
        Ok(fd)
    }

    /// The backend handle behind a guest-local descriptor.
    fn handle(&self, fd: u64) -> Result<u64, Errno> {
        self.open
            .get(&fd)
            .map(|file| file.backend_handle)
            .ok_or(Errno::Ebadf)
    }

    /// Closes a guest-local descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn release(&mut self, task: TaskId, fd: u64) -> Result<(), Errno> {
        let handle = self.handle(fd)?;
        self.run_op(task, GuestPhysAddr::new(0), handle, None, WireOp::Release)?
            .result()?;
        self.open.remove(&fd);
        self.backend_to_local.remove(&handle);
        // The handle is gone: any cached declarations for its op shapes are
        // dead weight — revoke and forget them. (`run_op` drained the
        // pipeline above, so none of these refs is in flight.)
        let stale = self.grant_cache.remove_matching(|key| key.handle == handle);
        for grant in stale {
            self.revoke(grant);
        }
        Ok(())
    }

    /// Forwards `read`: declares the buffer as a `CopyToGuest` grant first.
    ///
    /// # Errors
    ///
    /// Driver errors, or `EFAULT` if the driver strayed outside the grant.
    pub fn read(
        &mut self,
        task: TaskId,
        pt: GuestPageTables,
        fd: u64,
        addr: GuestVirtAddr,
        len: u64,
    ) -> Result<u64, Errno> {
        let handle = self.handle(fd)?;
        let grants = [MemOpGrant::CopyToGuest { addr, len }];
        self.run_op(task, pt.root(), handle, Some(&grants), WireOp::Read { addr, len })
            .and_then(WireResponse::result)
            .map(|n| n as u64)
    }

    /// Forwards `write`: declares the buffer as a `CopyFromGuest` grant.
    ///
    /// # Errors
    ///
    /// Driver errors or grant violations.
    pub fn write(
        &mut self,
        task: TaskId,
        pt: GuestPageTables,
        fd: u64,
        addr: GuestVirtAddr,
        len: u64,
    ) -> Result<u64, Errno> {
        let handle = self.handle(fd)?;
        let grants = [MemOpGrant::CopyFromGuest { addr, len }];
        self.run_op(task, pt.root(), handle, Some(&grants), WireOp::Write { addr, len })
            .and_then(WireResponse::result)
            .map(|n| n as u64)
    }

    /// What [`Frontend::ioctl`] and [`Frontend::ioctl_pipelined`] share:
    /// resolve the descriptor, derive the op's grants from the device's
    /// [`IoctlKnowledge`] into the frontend's one buffer — reading the
    /// caller's memory where the command needs JIT evaluation — and hand
    /// them to `submit` with the backend handle.
    fn with_ioctl_grants<T>(
        &mut self,
        pt: GuestPageTables,
        fd: u64,
        cmd: IoctlCmd,
        arg: u64,
        submit: impl FnOnce(&mut Self, u64, &[MemOpGrant]) -> Result<T, Errno>,
    ) -> Result<T, Errno> {
        let file = self.open.get(&fd).ok_or(Errno::Ebadf)?;
        let handle = file.backend_handle;
        let knowledge = self
            .knowledge
            .get(&file.path)
            .cloned()
            .unwrap_or_else(|| Rc::new(IoctlKnowledge::ioc_only()));
        self.stats.jit_evaluations += u64::from(knowledge.is_jit(cmd));
        let mut reader = ProcessReader {
            hv: self.hv.clone(),
            guest: self.guest,
            pt_root: pt.root(),
        };
        let mut grants = std::mem::take(&mut self.grant_buf);
        let result = knowledge
            .grants_into(cmd, arg, &mut reader, &mut grants)
            .and_then(|()| submit(self, handle, &grants));
        self.grant_buf = grants;
        result
    }

    /// Forwards `ioctl`: grants derived from the analyzer table (static or
    /// JIT) or the `_IOC` encoding (§4.1).
    ///
    /// # Errors
    ///
    /// Driver errors or grant violations.
    pub fn ioctl(
        &mut self,
        task: TaskId,
        pt: GuestPageTables,
        fd: u64,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<i64, Errno> {
        self.with_ioctl_grants(pt, fd, cmd, arg, |this, handle, ops| {
            this.run_op(task, pt.root(), handle, Some(ops), WireOp::Ioctl { cmd, arg })
        })
        .and_then(WireResponse::result)
    }

    /// Posts an `ioctl` to the ring **without waiting for its response**
    /// (fast path): grants are derived and declared (or served from the
    /// cache) exactly as [`Frontend::ioctl`], but the request only rides the
    /// doorbell of the batch it lands in. Collect results — FIFO-ordered —
    /// with [`Frontend::flush_pipeline`]. When the ring (or the shared
    /// page's byte budget) is full, the accumulated batch is flushed first.
    ///
    /// # Errors
    ///
    /// Submission errors only; per-op driver errors surface at flush.
    pub fn ioctl_pipelined(
        &mut self,
        task: TaskId,
        pt: GuestPageTables,
        fd: u64,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<(), Errno> {
        self.with_ioctl_grants(pt, fd, cmd, arg, |this, handle, ops| {
            this.submit_op(task, pt.root(), handle, Some(ops), WireOp::Ioctl { cmd, arg })
        })
    }

    /// Completes every pipelined submission: the backend drains the request
    /// ring (one interrupt for the whole batch), then responses are matched
    /// FIFO to their submissions, each with its own watchdog delivery-lag
    /// check. Returns `task`'s per-op results in submission order,
    /// including any completed by an intermediate auto-flush; other tasks'
    /// results wait for their own flush.
    ///
    /// # Errors
    ///
    /// None today: a transport-level failure (hung/corrupted driver VM)
    /// runs containment and fails the remaining entries wholesale, each in
    /// its own slot of the returned vector.
    pub fn flush_pipeline(&mut self, task: TaskId) -> Result<Vec<Result<i64, Errno>>, Errno> {
        self.drain_pipeline();
        let mut results = Vec::with_capacity(self.completed.len());
        let mine = self.completed.extract_if(.., |&mut (t, _)| t == task);
        results.extend(mine.map(|(_, result)| result));
        Ok(results)
    }

    /// Queues one op on the ring without taking its response: the first
    /// half of the lifecycle now, the second at the next drain.
    fn submit_op(
        &mut self,
        task: TaskId,
        pt_root: GuestPhysAddr,
        handle: u64,
        grants: Option<&[MemOpGrant]>,
        op: WireOp,
    ) -> Result<(), Errno> {
        debug_assert!(op.is_pipelineable(), "op {} cannot be pipelined", op.name());
        self.admit_op(false)?;
        let pending = self.post(task, pt_root, handle, grants, op)?;
        self.pipeline.push(pending);
        Ok(())
    }

    /// Completes every pending op: the backend drains the whole request
    /// backlog under one doorbell — each dispatch posts its response onto
    /// the response ring, where only the first delivery charges a full
    /// interrupt/poll — then each queued entry goes through the same
    /// [`Frontend::complete`] a synchronous op does.
    fn drain_pipeline(&mut self) {
        if self.pipeline.is_empty() {
            return;
        }
        let mut served = Ok(());
        while served.is_ok() && self.channel.borrow().request_backlog() > 0 {
            served = self.backend.borrow_mut().handle_request(self.guest);
        }
        // Taken and put back, so the queue keeps its capacity: completing
        // an op never posts another.
        let mut pipeline = std::mem::take(&mut self.pipeline);
        for op in pipeline.drain(..) {
            let outcome = self.complete(&op, &mut served);
            self.completed
                .push((op.task, outcome.and_then(WireResponse::result)));
        }
        self.pipeline = pipeline;
    }

    /// Forwards `mmap`: pre-creates the intermediate page-table levels for
    /// the whole range (§5.2) and declares a `MapPages` grant.
    ///
    /// # Errors
    ///
    /// `EINVAL` for misaligned ranges or a missing FreeBSD hook call;
    /// driver errors otherwise.
    #[allow(clippy::too_many_arguments)]
    pub fn mmap(
        &mut self,
        task: TaskId,
        mut pt: GuestPageTables,
        fd: u64,
        va: GuestVirtAddr,
        len: u64,
        offset: u64,
        access: Access,
    ) -> Result<(), Errno> {
        if !va.is_page_aligned() || len == 0 {
            return Err(Errno::Einval);
        }
        if self.personality.needs_mmap_hook() {
            // FreeBSD's kernel does not hand the VA range to character-
            // device pagers the way Linux's `vm_area_struct` does; the
            // 12-LoC kernel hook must have recorded it (§5.1).
            match self.pending_mmap_range.take() {
                Some((hook_va, hook_len)) if hook_va == va && hook_len == len => {}
                _ => return Err(Errno::Einval),
            }
        }
        let handle = self.handle(fd)?;
        let pages = len.div_ceil(PAGE_SIZE);
        pt.ensure_range(&mut self.hv.borrow_mut().gpa_space(self.guest), va, pages)
            .map_err(|_| Errno::Enomem)?;
        let result = self
            .run_op(
                task,
                pt.root(),
                handle,
                Some(&[MemOpGrant::MapPages { va, pages, access }]),
                WireOp::Mmap {
                    va,
                    len,
                    offset,
                    access,
                },
            )
            .and_then(WireResponse::result);
        if result.is_ok() {
            self.vmas.push(Vma {
                fd,
                va,
                len,
                access,
            });
        }
        result.map(|_| ())
    }

    /// Forwards a page fault in a device mapping: the guest kernel's fault
    /// handler asks the driver to populate the faulting page (§2.1). The
    /// grant covers exactly the one page, with the access the original
    /// `mmap` was granted.
    ///
    /// # Errors
    ///
    /// `EFAULT` if the address is not inside a forwarded mapping; driver
    /// errors otherwise.
    pub fn fault(
        &mut self,
        task: TaskId,
        mut pt: GuestPageTables,
        fd: u64,
        va: GuestVirtAddr,
    ) -> Result<(), Errno> {
        let handle = self.handle(fd)?;
        let vma = self
            .vmas
            .iter()
            .find(|vma| {
                vma.fd == fd && va.raw() >= vma.va.raw() && va.raw() < vma.va.raw() + vma.len
            })
            .copied()
            .ok_or(Errno::Efault)?;
        let page = va.page_base();
        pt.ensure_range(&mut self.hv.borrow_mut().gpa_space(self.guest), page, 1)
            .map_err(|_| Errno::Enomem)?;
        self.run_op(
            task,
            pt.root(),
            handle,
            Some(&[MemOpGrant::MapPages {
                va: page,
                pages: 1,
                access: vma.access,
            }]),
            WireOp::Fault { va },
        )
        .and_then(WireResponse::result)
        .map(|_| ())
    }

    /// Forwards `munmap`: the guest kernel destroys its own leaf mappings
    /// first, then the driver zaps; the hypervisor only tears down EPT state
    /// (§5.2).
    ///
    /// # Errors
    ///
    /// Driver errors or grant violations.
    pub fn munmap(
        &mut self,
        task: TaskId,
        pt: GuestPageTables,
        fd: u64,
        va: GuestVirtAddr,
        len: u64,
    ) -> Result<(), Errno> {
        let handle = self.handle(fd)?;
        let pages = len.div_ceil(PAGE_SIZE);
        pt.unmap_range(&mut self.hv.borrow_mut().gpa_space(self.guest), va, pages)
            .map_err(|_| Errno::Efault)?;
        let result = self
            .run_op(
                task,
                pt.root(),
                handle,
                Some(&[MemOpGrant::UnmapPages { va, pages }]),
                WireOp::Munmap { va, len },
            )
            .and_then(WireResponse::result);
        if result.is_ok() {
            self.vmas
                .retain(|vma| !(vma.fd == fd && vma.va == va && vma.len == len));
        }
        result.map(|_| ())
    }

    /// Forwards `poll`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn poll(&mut self, task: TaskId, fd: u64) -> Result<PollEvents, Errno> {
        let handle = self.handle(fd)?;
        match self.run_op(task, GuestPhysAddr::new(0), handle, None, WireOp::Poll)? {
            WireResponse::Poll(events) => Ok(events),
            WireResponse::Err(errno) => Err(errno),
            // A conforming backend answers `poll` with the dedicated
            // variant; anything else is a protocol violation.
            WireResponse::Value(_) => Err(Errno::Eio),
        }
    }

    /// Forwards `fasync`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn fasync(&mut self, task: TaskId, fd: u64, on: bool) -> Result<(), Errno> {
        let handle = self.handle(fd)?;
        self.run_op(task, GuestPhysAddr::new(0), handle, None, WireOp::Fasync { on })
            .and_then(WireResponse::result)
            .map(|_| ())
    }

    /// Drains forwarded asynchronous notifications: `(task, guest-local fd)`
    /// pairs ready for signal delivery.
    pub fn drain_notifications(&mut self) -> Vec<(TaskId, u64)> {
        let mut out = Vec::new();
        while let Some(signal) = self.channel.borrow_mut().take_notification() {
            if let Some(&fd) = self.backend_to_local.get(&signal.handle) {
                out.push((TaskId(signal.task), fd));
            }
        }
        out
    }
}
