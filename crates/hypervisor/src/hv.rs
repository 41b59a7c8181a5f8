//! The [`Hypervisor`]: VM lifecycle, device assignment, and the hypercall API.
//!
//! This is Paradice's trusted computing base. It implements:
//!
//! * **VM creation** with identity-mapped RAM behind per-VM EPTs;
//! * **device assignment** (§3.1): device BARs mapped into the driver VM,
//!   DMA confined to driver-VM memory by the IOMMU;
//! * the **hypercall API for driver memory operations** (§5.2), one entry
//!   point ([`Hypervisor::hc_memops`]) for a slice of [`MemOp`]s: cross-VM
//!   copies via two-stage software page-table walks — between a guest
//!   process and a driver buffer, or straight between a guest process and
//!   the driver VM's own memory (a BAR range or a list of pages) — and
//!   `mmap` fix-ups that pick an unused guest-physical page, edit the
//!   guest's EPT, and fix the last level of the guest's page tables;
//! * **strict runtime checks**: every memory operation requested by the
//!   (untrusted) driver VM is validated against the target guest's shard of
//!   the one grant store, [`ShardedGrantTable`] (§4.1) — violations are
//!   refused and audited;
//! * **device data isolation** (§4.2, §5.3): protected regions, EPT
//!   permission stripping, region-tagged IOMMU mappings with one active
//!   region, device-memory aperture bounds behind protected MMIO.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use paradice_devfs::DriverSpan;
use paradice_mem::addr::page_chunks;
use paradice_mem::ept::EptMapError;
use paradice_mem::iommu::DomainId;
use paradice_mem::layout::GpaExhausted;
use paradice_mem::pagetable::{GpaSpace, GuestPageTables, PtWalkError};
use paradice_mem::{
    Access, DmaAddr, EptViolation, GuestPhysAddr, GuestVirtAddr, Iommu, IommuDomain, IommuFault,
    MemError, PhysAddr, RegionId, SystemMemory, PAGE_SIZE,
};
use paradice_trace::{SpanId, TraceEvent, TraceMemOpKind, Tracer};

use crate::audit::{AuditEvent, AuditLog};
use crate::clock::{CostModel, SimClock};
use crate::grants::{GrantError, GrantRef, MemOpGrant, MemOpRequest};
use crate::regions::{DevMemRange, RegionError, RegionManager};
use crate::shards::ShardedGrantTable;
use crate::vm::{Vm, VmId, VmRole};

/// Errors surfaced by hypervisor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HvError {
    /// The caller is not the driver VM but invoked a driver-only hypercall.
    NotDriverVm {
        /// The offending caller.
        caller: VmId,
    },
    /// Unknown VM id.
    UnknownVm {
        /// The offending id.
        vm: VmId,
    },
    /// Grant validation failed — the request was refused and audited.
    Grant(GrantError),
    /// A guest page-table walk failed.
    Pt(PtWalkError),
    /// An EPT permission check failed.
    Ept(EptViolation),
    /// An EPT edit was malformed (e.g. write-only permissions).
    EptMap(EptMapError),
    /// Physical memory access failed.
    Mem(MemError),
    /// The IOMMU blocked a DMA or mapping operation.
    Iommu(IommuFault),
    /// Region bookkeeping failed.
    Region(RegionError),
    /// The guest's unused-GPA window is exhausted.
    GpaWindowExhausted,
    /// Data isolation is enabled but the driver omitted a region tag.
    RegionRequired,
    /// The page belongs to another guest's protected region.
    ForeignRegionPage {
        /// The region that owns the page.
        owner: RegionId,
    },
    /// A device access fell outside the active device-memory aperture.
    ApertureViolation {
        /// The device-memory offset of the access.
        offset: u64,
    },
    /// The driver VM touched a hypervisor-protected MMIO register.
    ProtectedMmio {
        /// The register offset.
        offset: u64,
    },
    /// The guest's page permissions forbid the access (its own mapping).
    GuestPagePerms {
        /// The faulting virtual address.
        va: GuestVirtAddr,
    },
    /// No such IOMMU mapping to unmap.
    NoSuchMapping {
        /// The bus address.
        dma: DmaAddr,
    },
    /// The driver VM was declared failed (crash/watchdog); its hypercalls
    /// are refused until it is recovered (§7.1 fault containment).
    DriverVmFailed {
        /// The failed driver VM.
        vm: VmId,
    },
}

impl fmt::Display for HvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HvError::NotDriverVm { caller } => {
                write!(f, "{caller} is not the driver VM")
            }
            HvError::UnknownVm { vm } => write!(f, "unknown {vm}"),
            HvError::Grant(e) => write!(f, "grant check failed: {e}"),
            HvError::Pt(e) => write!(f, "guest page-table walk failed: {e}"),
            HvError::Ept(e) => write!(f, "{e}"),
            HvError::EptMap(e) => write!(f, "{e}"),
            HvError::Mem(e) => write!(f, "{e}"),
            HvError::Iommu(e) => write!(f, "{e}"),
            HvError::Region(e) => write!(f, "{e}"),
            HvError::GpaWindowExhausted => f.write_str("guest unused-GPA window exhausted"),
            HvError::RegionRequired => {
                f.write_str("data isolation enabled: IOMMU mappings require a region tag")
            }
            HvError::ForeignRegionPage { owner } => {
                write!(f, "page belongs to foreign protected {owner}")
            }
            HvError::ApertureViolation { offset } => {
                write!(f, "device access at offset {offset:#x} outside aperture")
            }
            HvError::ProtectedMmio { offset } => {
                write!(f, "protected MMIO register {offset:#x}")
            }
            HvError::GuestPagePerms { va } => {
                write!(f, "guest page permissions forbid access at {va}")
            }
            HvError::NoSuchMapping { dma } => write!(f, "no IOMMU mapping at {dma}"),
            HvError::DriverVmFailed { vm } => {
                write!(f, "driver {vm} is marked failed; awaiting recovery")
            }
        }
    }
}

impl std::error::Error for HvError {}

impl From<GrantError> for HvError {
    fn from(e: GrantError) -> Self {
        HvError::Grant(e)
    }
}

impl From<PtWalkError> for HvError {
    fn from(e: PtWalkError) -> Self {
        HvError::Pt(e)
    }
}

impl From<EptViolation> for HvError {
    fn from(e: EptViolation) -> Self {
        HvError::Ept(e)
    }
}

impl From<EptMapError> for HvError {
    fn from(e: EptMapError) -> Self {
        HvError::EptMap(e)
    }
}

impl From<MemError> for HvError {
    fn from(e: MemError) -> Self {
        HvError::Mem(e)
    }
}

impl From<IommuFault> for HvError {
    fn from(e: IommuFault) -> Self {
        HvError::Iommu(e)
    }
}

impl From<RegionError> for HvError {
    fn from(e: RegionError) -> Self {
        HvError::Region(e)
    }
}

impl From<GpaExhausted> for HvError {
    fn from(_: GpaExhausted) -> Self {
        HvError::GpaWindowExhausted
    }
}

/// Data-isolation configuration of an assigned device (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataIsolation {
    /// Plain device assignment: DMA may reach all driver-VM memory.
    Disabled,
    /// Hypervisor-enforced protected regions; IOMMU starts empty.
    Enabled,
}

/// Per-assigned-device hypervisor state.
#[derive(Debug)]
struct DomainState {
    driver_vm: VmId,
    isolation: DataIsolation,
    regions: RegionManager,
    /// Active device-memory aperture (hypervisor-owned MC bound registers).
    aperture: Option<DevMemRange>,
    /// Whether the MC register page has been unmapped from the driver VM
    /// (§5.3(iii)); set during trusted driver initialization.
    mmio_protected: bool,
    /// Device BAR: VRAM frames exposed in driver-VM guest-physical space at
    /// `bar_base`.
    bar_base: Option<GuestPhysAddr>,
    bar_pages: u64,
}

/// Register offsets of the GPU memory-controller aperture bounds within the
/// protected MMIO page (modeled after Evergreen's `MC_VM_*` pair, §4.2).
pub const MC_APERTURE_LO: u64 = 0x00;
/// Upper-bound register offset.
pub const MC_APERTURE_HI: u64 = 0x08;

/// Key identifying one hypervisor-installed `mmap` fix-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FixupKey {
    guest: VmId,
    pt_root: u64,
    va_page: u64,
}

impl FixupKey {
    fn new(guest: VmId, pt_root: GuestPhysAddr, va: GuestVirtAddr) -> Self {
        FixupKey {
            guest,
            pt_root: pt_root.raw(),
            va_page: va.page_number(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    claimed_gpa: GuestPhysAddr,
}

/// One driver memory operation of a [`Hypervisor::hc_memops`] hypercall
/// (§5.2). A scalar hypercall is a slice of one; the fast path flushes a
/// whole dispatch's operations as one slice.
#[derive(Debug)]
pub enum MemOp<'a> {
    /// Copy `buf.len()` bytes from guest process memory at `src` into `buf`.
    CopyFromGuest {
        /// Source address in the guest process.
        src: GuestVirtAddr,
        /// The driver's buffer, filled in place.
        buf: &'a mut [u8],
    },
    /// Copy `data` into guest process memory at `dst`.
    CopyToGuest {
        /// Destination address in the guest process.
        dst: GuestVirtAddr,
        /// The driver's bytes.
        data: &'a [u8],
    },
    /// Map driver-physical page `driver_pfn` at guest `va`
    /// (the `vm_insert_pfn` wrapper-stub path).
    InsertPfn {
        /// Guest virtual address of the mapping.
        va: GuestVirtAddr,
        /// Driver-VM page frame number backing it.
        driver_pfn: u64,
        /// Mapping permissions.
        access: Access,
    },
    /// Tear down a mapping previously installed by `InsertPfn`.
    ZapPage {
        /// Guest virtual address of the mapping.
        va: GuestVirtAddr,
    },
    /// Copy `len` bytes from guest process memory at `src` straight into
    /// the calling driver VM's memory at `dst` (a BAR range or a GTT
    /// object's pages), with no driver buffer in between. Granted, traced
    /// and charged as the `CopyFromGuest` of `(src, len)`.
    CopyFromGuestToDriver {
        /// Source address in the guest process.
        src: GuestVirtAddr,
        /// Destination in the driver VM's physical address space.
        dst: DriverSpan<'a>,
        /// Bytes to copy.
        len: u64,
    },
    /// Copy `len` bytes of the calling driver VM's memory at `src` straight
    /// into guest process memory at `dst`. Granted, traced and charged as
    /// the `CopyToGuest` of `(dst, len)`.
    CopyToGuestFromDriver {
        /// Destination address in the guest process.
        dst: GuestVirtAddr,
        /// Source in the driver VM's physical address space.
        src: DriverSpan<'a>,
        /// Bytes to copy.
        len: u64,
    },
}

impl MemOp<'_> {
    /// The grant-table request this operation must satisfy.
    fn request(&self) -> MemOpRequest {
        match *self {
            MemOp::CopyFromGuest { src, ref buf } => MemOpRequest::CopyFromGuest {
                addr: src,
                len: buf.len() as u64,
            },
            MemOp::CopyToGuest { dst, data } => MemOpRequest::CopyToGuest {
                addr: dst,
                len: data.len() as u64,
            },
            MemOp::InsertPfn { va, access, .. } => MemOpRequest::MapPage { va, access },
            MemOp::ZapPage { va } => MemOpRequest::UnmapPage { va },
            MemOp::CopyFromGuestToDriver { src, len, .. } => {
                MemOpRequest::CopyFromGuest { addr: src, len }
            }
            MemOp::CopyToGuestFromDriver { dst, len, .. } => {
                MemOpRequest::CopyToGuest { addr: dst, len }
            }
        }
    }
}

/// `(kind, addr, len)` of a request's trace event, and the modelled cost of
/// its work *including* one hypercall crossing (what a lone call pays).
fn shape_and_cost(request: MemOpRequest, cost: &CostModel) -> (TraceMemOpKind, u64, u64, u64) {
    let copy = |kind, addr: GuestVirtAddr, len| {
        let pages = paradice_mem::addr::page_span(addr, len);
        (kind, addr.raw(), len, cost.copy_cost_ns(len, pages))
    };
    match request {
        MemOpRequest::CopyFromGuest { addr, len } => copy(TraceMemOpKind::CopyFromGuest, addr, len),
        MemOpRequest::CopyToGuest { addr, len } => copy(TraceMemOpKind::CopyToGuest, addr, len),
        MemOpRequest::MapPage { va, .. } => (
            TraceMemOpKind::MapPage,
            va.raw(),
            PAGE_SIZE,
            cost.map_page_ns,
        ),
        MemOpRequest::UnmapPage { va } => (
            TraceMemOpKind::UnmapPage,
            va.raw(),
            PAGE_SIZE,
            cost.map_page_ns,
        ),
    }
}

/// The direction of a chunked copy between a caller's buffer and memory.
enum Transfer<'b> {
    /// Memory → buffer.
    Read(&'b mut [u8]),
    /// Buffer → memory.
    Write(&'b [u8]),
}

/// The error for an access to a guest-physical page no EPT entry backs.
fn unmapped(gpa: GuestPhysAddr, attempted: Access) -> HvError {
    HvError::Ept(EptViolation {
        gpa,
        attempted,
        allowed: Access::NONE,
        mapped: false,
    })
}

/// The simulated hypervisor.
pub struct Hypervisor {
    clock: SimClock,
    cost: CostModel,
    mem: SystemMemory,
    vms: Vec<Vm>,
    iommu: Iommu,
    /// One shard per VM, indexed by VM id.
    grants: ShardedGrantTable,
    domains: BTreeMap<usize, DomainState>,
    fixups: BTreeMap<FixupKey, Fixup>,
    audit: AuditLog,
    /// When false, driver memory operations skip grant validation — the
    /// *devirtualization* predecessor design (paper Figure 1(b)), kept as a
    /// security ablation. Never disable outside experiments.
    grant_validation: bool,
    /// The paradice-trace sink. Disabled by default: the hypercall paths
    /// check [`Tracer::is_enabled`] before building any event payload, so
    /// the untraced hot path costs one branch.
    tracer: Tracer,
    /// The span of the file operation the backend is currently dispatching
    /// (set around dispatch, like the driver-env current-guest marking).
    /// Memory operations recorded while it is [`SpanId::NONE`] are dropped.
    current_span: SpanId,
    /// Driver VMs declared failed (crash or watchdog timeout, §7.1). A
    /// failed driver VM's hypercalls are refused — a compromised-after-crash
    /// driver can touch nothing — until `clear_driver_vm_failed` at reboot.
    failed_driver_vms: BTreeSet<u32>,
    /// Count of hypercalls issued (grant declares/revokes plus the driver
    /// memory-operation calls). Boundary crossings, not copied bytes, are
    /// what separates paravirtual from native — the fast-path evaluation
    /// reports this counter per workload.
    hypercalls: u64,
    /// The `(system-physical address, length)` page chunks of the copy in
    /// progress — both sides of a two-sided one — kept between calls so a
    /// warm copy allocates nothing.
    plan: Vec<(PhysAddr, u64)>,
}

impl fmt::Debug for Hypervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypervisor")
            .field("vms", &self.vms.len())
            .field("domains", &self.domains.len())
            .field("clock", &self.clock)
            .finish()
    }
}

/// A [`GpaSpace`] view of one VM: reads and writes go through the VM's EPT
/// into system memory; table pages come from the VM's kernel allocator.
pub struct VmGpaSpace<'a> {
    vm: &'a mut Vm,
    mem: &'a mut SystemMemory,
}

impl GpaSpace for VmGpaSpace<'_> {
    fn read_u64(&self, gpa: GuestPhysAddr) -> Result<u64, PtWalkError> {
        let pa = self.vm.ept().translate_unchecked(gpa);
        let value = pa.and_then(|pa| self.mem.read_u64(pa).ok());
        value.ok_or(PtWalkError::Backing { gpa })
    }

    fn write_u64(&mut self, gpa: GuestPhysAddr, value: u64) -> Result<(), PtWalkError> {
        let pa = self.vm.ept().translate_unchecked(gpa);
        let written = pa.and_then(|pa| self.mem.write_u64(pa, value).ok());
        written.ok_or(PtWalkError::Backing { gpa })
    }

    fn alloc_table_page(&mut self) -> Result<GuestPhysAddr, PtWalkError> {
        self.vm.alloc_kernel_page().ok_or(PtWalkError::NoTablePages)
    }
}

impl Hypervisor {
    /// Boots a hypervisor managing `total_frames` frames of physical memory,
    /// charging the cost model on the deterministic virtual `clock`.
    pub fn new(total_frames: usize, clock: SimClock, cost: CostModel) -> Self {
        Hypervisor {
            clock,
            cost,
            mem: SystemMemory::new(total_frames),
            vms: Vec::new(),
            iommu: Iommu::new(),
            grants: ShardedGrantTable::empty(),
            domains: BTreeMap::new(),
            fixups: BTreeMap::new(),
            audit: AuditLog::new(),
            grant_validation: true,
            tracer: Tracer::disabled(),
            current_span: SpanId::NONE,
            failed_driver_vms: BTreeSet::new(),
            hypercalls: 0,
            plan: Vec::new(),
        }
    }

    /// Installs the trace sink shared with the CVD frontends (see
    /// `Machine::enable_tracing`).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Marks the span whose file operation the backend is dispatching; the
    /// hypercall paths attribute memory-operation events to it. Pass
    /// [`SpanId::NONE`] when dispatch completes.
    pub fn set_current_span(&mut self, span: SpanId) {
        self.current_span = span;
    }

    /// Records the memory operations one hypercall checked against the
    /// current span: up to and including the first violator, which is
    /// recorded with `granted: false`. Execution failures past the check
    /// (e.g. an unmapped guest page) do not rewrite the events.
    fn trace_mem_op(&self, ops: &[MemOp<'_>], first_bad: Option<usize>) {
        if !(self.tracer.is_enabled() && self.current_span.is_some()) {
            return;
        }
        let checked = first_bad.map_or(ops.len(), |bad| bad + 1);
        for (i, op) in ops[..checked].iter().enumerate() {
            let (kind, addr, len, _) = shape_and_cost(op.request(), &self.cost);
            let granted = Some(i) != first_bad;
            self.tracer
                .mem_op(self.current_span, self.clock.now_ns(), kind, addr, len, granted);
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The cost model in effect.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The isolation audit log.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Total hypercalls issued so far (declares, revokes, and driver memory
    /// operations). The fast-path experiments report deltas of this counter.
    pub fn hypercall_count(&self) -> u64 {
        self.hypercalls
    }

    /// Direct access to system memory (device models and tests).
    pub fn mem(&self) -> &SystemMemory {
        &self.mem
    }

    // ------------------------------------------------------------------
    // VM lifecycle
    // ------------------------------------------------------------------

    /// Creates a VM with `ram_bytes` of RAM, mapped from guest-physical 0
    /// as one run of fresh frames, and its shard of the grant store.
    ///
    /// # Errors
    ///
    /// Fails, taking no frame, if physical memory cannot hold the RAM.
    ///
    /// # Panics
    ///
    /// Past [`MAX_GUESTS`](crate::grants::MAX_GUESTS) VMs: a grant
    /// reference carries no larger VM id.
    pub fn create_vm(&mut self, role: VmRole, ram_bytes: u64) -> Result<VmId, HvError> {
        let id = VmId(self.vms.len() as u32);
        let mut vm = Vm::new(id, role, ram_bytes);
        let frames = self.mem.alloc_frames(vm.ram_pages() as usize)?;
        vm.ept_mut()
            .map_run(GuestPhysAddr::new(0), Vm::ram_access(), frames)?;
        self.grants.add_guest();
        self.vms.push(vm);
        Ok(id)
    }

    /// Shared access to a VM.
    ///
    /// # Errors
    ///
    /// [`HvError::UnknownVm`].
    pub fn vm(&self, id: VmId) -> Result<&Vm, HvError> {
        self.vms
            .get(id.0 as usize)
            .ok_or(HvError::UnknownVm { vm: id })
    }

    /// Mutable access to a VM.
    ///
    /// # Errors
    ///
    /// [`HvError::UnknownVm`].
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm, HvError> {
        self.vms
            .get_mut(id.0 as usize)
            .ok_or(HvError::UnknownVm { vm: id })
    }

    /// A [`GpaSpace`] view of `vm` for page-table construction and walks.
    ///
    /// # Panics
    ///
    /// Panics on an unknown VM id — a simulation bug.
    pub fn gpa_space(&mut self, vm: VmId) -> VmGpaSpace<'_> {
        let Hypervisor { vms, mem, .. } = self;
        VmGpaSpace {
            vm: vms.get_mut(vm.0 as usize).expect("unknown VM"),
            mem,
        }
    }

    fn is_driver_vm(&self, vm: VmId) -> bool {
        matches!(self.vm(vm), Ok(v) if v.role() == VmRole::Driver)
    }

    fn require_driver(&self, caller: VmId) -> Result<(), HvError> {
        if !self.is_driver_vm(caller) {
            return Err(HvError::NotDriverVm { caller });
        }
        // A failed driver VM loses its hypercall privileges wholesale: even
        // a grant-covered request is refused until recovery re-admits it.
        if self.failed_driver_vms.contains(&caller.0) {
            return Err(HvError::DriverVmFailed { vm: caller });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Driver-VM failure containment and recovery (paper §7.1)
    // ------------------------------------------------------------------

    /// Declares a driver VM failed (panic, watchdog timeout, or a wild
    /// memory operation): revokes **every** outstanding grant declaration in
    /// every guest's table and tears down all live `mmap` fix-ups, so a
    /// compromised-after-crash driver retains no authority over guest
    /// memory. Idempotent — marking an already-failed VM returns `Ok(0)`.
    ///
    /// Returns the number of grant declarations revoked.
    ///
    /// # Errors
    ///
    /// [`HvError::NotDriverVm`] when `vm` is not a driver VM.
    pub fn mark_driver_vm_failed(&mut self, vm: VmId) -> Result<usize, HvError> {
        if !self.is_driver_vm(vm) {
            return Err(HvError::NotDriverVm { caller: vm });
        }
        if !self.failed_driver_vms.insert(vm.0) {
            return Ok(0);
        }
        let revoked = self.grants.revoke_all();
        // Tear down hypervisor-installed mmap fix-ups: the frames behind
        // them are driver-VM pages that the rebooted driver will reuse.
        let fixups = std::mem::take(&mut self.fixups);
        for (key, fixup) in fixups {
            let _ = self.release_claimed(key.guest, fixup.claimed_gpa);
        }
        if self.tracer.is_enabled() {
            self.tracer.record(TraceEvent::DriverVmFailed {
                span: self.current_span,
                t_ns: self.clock.now_ns(),
                vm: vm.0 as u64,
                revoked_grants: revoked as u64,
            });
        }
        Ok(revoked)
    }

    /// Whether `vm` is currently marked failed.
    pub fn driver_vm_failed(&self, vm: VmId) -> bool {
        self.failed_driver_vms.contains(&vm.0)
    }

    /// Clears the failed mark after the driver VM reboots (recovery). The
    /// caller must have rebuilt the VM's protected state first. No-op when
    /// the VM was not failed.
    pub fn clear_driver_vm_failed(&mut self, vm: VmId) {
        if self.failed_driver_vms.remove(&vm.0) && self.tracer.is_enabled() {
            self.tracer.record(TraceEvent::DriverVmRecovered {
                span: SpanId::NONE,
                t_ns: self.clock.now_ns(),
                vm: vm.0 as u64,
            });
        }
    }

    /// Records a fault-injection trace event against the current span (the
    /// CVD backend calls this at the dispatch boundary when a `FaultPlan`
    /// fires).
    pub fn trace_fault_injected(&self, kind: &str, op: &str) {
        if self.tracer.is_enabled() {
            self.tracer.record(TraceEvent::FaultInjected {
                span: self.current_span,
                t_ns: self.clock.now_ns(),
                kind: kind.to_owned(),
                op: op.to_owned(),
            });
        }
    }

    /// Resets every device domain assigned to `driver_vm` for recovery:
    /// restores the driver VM's EPT access to formerly protected pages,
    /// clears all IOMMU mappings, discards region/aperture/protected-MMIO
    /// state, and (without data isolation) rebuilds the identity DMA map.
    /// The rebooted driver then re-runs its trusted initialization phase
    /// from a clean slate, exactly as on first assignment.
    ///
    /// # Errors
    ///
    /// Propagates EPT bookkeeping failures (simulation bugs).
    pub fn reset_domains_of(&mut self, driver_vm: VmId) -> Result<(), HvError> {
        let domains: Vec<usize> = self
            .domains
            .iter()
            .filter(|(_, state)| state.driver_vm == driver_vm)
            .map(|(idx, _)| *idx)
            .collect();
        for idx in domains {
            let domain = DomainId::from_index(idx);
            // Restore driver access to every protected system page (BAR
            // pages included: hc_protect_bar_range stripped them too).
            let mut protected: Vec<GuestPhysAddr> = Vec::new();
            {
                let state = self.domains.get(&idx).expect("domain listed above");
                for region in state.regions.iter_ids() {
                    if let Ok(pages) = state.regions.sys_pages_of(region) {
                        protected.extend_from_slice(pages);
                    }
                }
            }
            for gpa in protected {
                // Pages may have been BAR frames or RAM; both were RW
                // before protection.
                self.vm_mut(driver_vm)?.ept_mut().set_access(gpa, Access::RW)?;
            }
            // Drop every IOMMU mapping (stale DMA authority dies with the
            // crashed driver).
            let mapped: Vec<DmaAddr> = self
                .iommu
                .domain(domain)
                .iter()
                .map(|(dma, _, _, _)| dma)
                .collect();
            for dma in mapped {
                self.iommu.domain_mut(domain).unmap(dma);
            }
            self.iommu.domain_mut(domain).switch_region(None);
            // Reset per-domain bookkeeping; keep the BAR placement — the
            // frames are still mapped in the driver VM's EPT.
            let state = self.domains.get_mut(&idx).expect("domain listed above");
            state.regions = RegionManager::new();
            state.aperture = None;
            state.mmio_protected = false;
            let isolation = state.isolation;
            // Without data isolation the identity DMA map must come back.
            if isolation == DataIsolation::Disabled {
                self.map_identity_dma(driver_vm, domain)?;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Grant management (called by the guest-side CVD frontend)
    // ------------------------------------------------------------------

    /// Declares the legitimate memory operations of a file operation for
    /// `guest` (the frontend writes them into its grant table, §4.1/§5.1).
    ///
    /// # Errors
    ///
    /// Unknown VM or full grant table.
    pub fn declare_grants(
        &mut self,
        guest: VmId,
        ops: impl AsRef<[MemOpGrant]>,
    ) -> Result<GrantRef, HvError> {
        self.vm(guest)?;
        self.hypercalls += 1;
        Ok(self.grants.declare(guest.0, ops)?)
    }

    /// Revokes a grant after the file operation completes.
    ///
    /// # Errors
    ///
    /// Unknown VM.
    pub fn revoke_grant(&mut self, guest: VmId, grant: GrantRef) -> Result<bool, HvError> {
        self.vm(guest)?;
        self.hypercalls += 1;
        Ok(self.grants.revoke(guest.0, grant))
    }

    /// Outstanding declarations for a guest (tests and overhead accounting);
    /// 0 for an id that names no VM.
    pub fn outstanding_grants(&self, guest: VmId) -> usize {
        self.vm(guest).map_or(0, |_| self.grants.outstanding_of(guest.0))
    }

    /// Disables or re-enables grant validation: the devirtualization
    /// ablation (Figure 1(b)), in which driver memory operations execute
    /// unchecked. Exists so experiments can demonstrate *why* the checks
    /// matter; isolation guarantees are void while disabled.
    pub fn set_grant_validation(&mut self, enabled: bool) {
        self.grant_validation = enabled;
    }

    /// Validates one hypercall's memory operations against `grant` through
    /// [`ShardedGrantTable::validate_batch`] (the phase-1 half of the
    /// all-or-nothing split that `crates/verify` proves). Exactly one audit
    /// entry is recorded, for the first violating request. The guest id
    /// comes from the driver VM, so one that names no VM fails on index 0
    /// without an audit entry, before it indexes a shard.
    fn validate_grant_batch(
        &mut self,
        caller: VmId,
        guest: VmId,
        grant: GrantRef,
        ops: &[MemOp<'_>],
    ) -> Result<(), (usize, HvError)> {
        if !self.grant_validation || ops.is_empty() {
            return Ok(());
        }
        self.vm(guest).map_err(|e| (0, e))?;
        // A scalar call validates from the stack: no allocation per op.
        let verdict = match ops {
            [op] => self.grants.validate_batch(guest.0, grant, &[op.request()]),
            _ => {
                let requests: Vec<_> = ops.iter().map(MemOp::request).collect();
                self.grants.validate_batch(guest.0, grant, &requests)
            }
        };
        verdict.map_err(|(index, e)| {
            self.audit.record(
                self.clock.now_ns(),
                AuditEvent::UngrantedMemOp {
                    caller,
                    target: guest,
                    grant: Some(grant),
                    description: format!("{:?}", ops[index].request()),
                },
            );
            (index, e.into())
        })
    }

    // ------------------------------------------------------------------
    // Two-stage translation and process memory access
    // ------------------------------------------------------------------

    /// Translates a guest-virtual address to system-physical by walking the
    /// process page tables in software and then the VM's EPT (paper §5.2).
    ///
    /// `need` is checked against the *leaf* guest page permissions: the
    /// hypervisor must not write through read-only guest mappings.
    ///
    /// # Errors
    ///
    /// Walk failures and permission mismatches.
    pub fn translate_gva(
        &mut self,
        vm: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
        need: Access,
    ) -> Result<PhysAddr, HvError> {
        // No clock charge here: ordinary process accesses ride the hardware
        // MMU. The hypervisor's *software* walks during cross-VM copies are
        // charged by the hypercalls via `CostModel::copy_cost_ns`.
        let tables = GuestPageTables::from_root(pt_root);
        let space = self.gpa_space(vm);
        let mapping = tables.walk(&space, va.page_base())?;
        if !mapping.access.contains(need) {
            return Err(HvError::GuestPagePerms { va });
        }
        self.translate_unchecked(vm, mapping.gpa.add(va.page_offset()), need)
    }

    /// `gpa`'s system-physical address in `vm`, ignoring EPT permissions.
    fn translate_unchecked(
        &self,
        vm: VmId,
        gpa: GuestPhysAddr,
        need: Access,
    ) -> Result<PhysAddr, HvError> {
        let pa = self.vm(vm)?.ept().translate_unchecked(gpa);
        pa.ok_or_else(|| unmapped(gpa, need))
    }

    /// The system frame backing `vm`'s guest-physical page `gpa`.
    fn frame_of(&self, vm: VmId, gpa: GuestPhysAddr) -> Result<PhysAddr, HvError> {
        let pa = self.vm(vm)?.ept().frame_of(gpa);
        pa.ok_or_else(|| unmapped(gpa, Access::READ))
    }

    /// The one page-chunk walker under every byte-copy path: translates
    /// every page of the buffer's range into the kept plan with
    /// `translate` (each path's own checks and audit record live there;
    /// `need` follows the direction), then copies. A refused page moves no
    /// byte.
    fn copy_chunks<A>(
        &mut self,
        start: A,
        mut transfer: Transfer<'_>,
        translate: impl FnMut(&mut Self, A, Access) -> Result<PhysAddr, HvError>,
    ) -> Result<(), HvError>
    where
        A: Copy + Into<u64> + From<u64>,
    {
        let (len, need) = match &transfer {
            Transfer::Read(buf) => (buf.len(), Access::READ),
            Transfer::Write(buf) => (buf.len(), Access::WRITE),
        };
        self.plan.clear();
        let first = GuestPhysAddr::new(start.into());
        self.plan_range((first, page_chunks(start, len as u64)), need, translate)?;
        let mut done = 0usize;
        for &(pa, n) in &self.plan {
            let range = done..done + n as usize;
            match &mut transfer {
                Transfer::Read(buf) => self.mem.read(pa, &mut buf[range])?,
                Transfer::Write(buf) => self.mem.write(pa, &buf[range])?,
            }
            done += n as usize;
        }
        Ok(())
    }

    /// Appends the `(system-physical address, length)` of every page
    /// chunk to the plan, each translated by `translate`, and returns the
    /// plan's length. No chunks — a range past the top of the address
    /// space, or past the end of its pages — is refused as an access to
    /// the unmapped page `start`.
    fn plan_range<A>(
        &mut self,
        (start, chunks): (GuestPhysAddr, Option<impl Iterator<Item = (A, u64)>>),
        need: Access,
        mut translate: impl FnMut(&mut Self, A, Access) -> Result<PhysAddr, HvError>,
    ) -> Result<usize, HvError> {
        for (chunk, n) in chunks.ok_or_else(|| unmapped(start, need))? {
            let pa = translate(self, chunk, need)?;
            self.plan.push((pa, n));
        }
        Ok(self.plan.len())
    }

    /// The copy under [`MemOp::CopyFromGuestToDriver`] and
    /// [`MemOp::CopyToGuestFromDriver`], and their trusted native
    /// counterpart: `len` bytes between `vm`'s process at `va` and
    /// `driver`'s own memory at `span`, toward the driver when
    /// `to_driver`. The process side is walked in software. Under
    /// `regions` — the grant the copy runs under and the device domain of
    /// its protected regions — a driver page of `vm`'s own region is
    /// reached through its frame, never through the driver VM's EPT, and a
    /// page of another guest's region is refused and audited as an
    /// `InsertPfn` of it is. Any other driver page goes through the driver
    /// VM's EPT with the access the direction needs, a refusal audited as a
    /// protected-region access — the check `vm_mem_read`/`vm_mem_write`
    /// make. Every page of both sides is planned before a byte moves, so a
    /// fault on either side moves nothing; then the bytes go frame to frame
    /// with no buffer in between.
    ///
    /// # Errors
    ///
    /// Walk, permission, EPT and foreign-region failures (the last two
    /// audited).
    pub fn process_copy_driver(
        &mut self,
        (vm, pt_root, va): (VmId, GuestPhysAddr, GuestVirtAddr),
        (driver, span): (VmId, DriverSpan<'_>),
        len: u64,
        to_driver: bool,
        regions: Option<(GrantRef, DomainId)>,
    ) -> Result<(), HvError> {
        let walk = |hv: &mut Self, chunk, need| hv.translate_gva(vm, pt_root, chunk, need);
        let driver_page = |hv: &mut Self, gpa, need| match regions {
            Some((grant, domain))
                if hv.check_region_owner(driver, vm, grant, Some(domain), gpa)? =>
            {
                hv.translate_unchecked(driver, gpa, need)
            }
            _ => hv.ept_translate(driver, gpa, need),
        };
        let need = |source| if source { Access::READ } else { Access::WRITE };
        self.plan.clear();
        let process = (GuestPhysAddr::new(va.raw()), page_chunks(va, len));
        let split = self.plan_range(process, need(to_driver), walk)?;
        self.plan_range((span.base(), span.chunks(len)), need(!to_driver), driver_page)?;
        let (process, driver) = self.plan.split_at(split);
        let (from, to) = if to_driver { (process, driver) } else { (driver, process) };
        Ok(self.mem.copy(from, to)?)
    }

    /// Reads `buf.len()` bytes of process memory (the process's own access
    /// path; not grant-checked — the MMU enforces the process's own page
    /// permissions).
    ///
    /// # Errors
    ///
    /// Walk or permission failures.
    pub fn process_read(
        &mut self,
        vm: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(va, Transfer::Read(buf), |hv, chunk, need| {
            hv.translate_gva(vm, pt_root, chunk, need)
        })
    }

    /// Writes `buf` into process memory (the process's own access path).
    ///
    /// # Errors
    ///
    /// Walk or permission failures.
    pub fn process_write(
        &mut self,
        vm: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
        buf: &[u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(va, Transfer::Write(buf), |hv, chunk, need| {
            hv.translate_gva(vm, pt_root, chunk, need)
        })
    }

    // ------------------------------------------------------------------
    // Hypercall API: driver memory operations (paper §5.2)
    // ------------------------------------------------------------------

    /// A no-op hypercall (overhead microbenchmarks).
    pub fn hc_noop(&mut self, _caller: VmId) {
        self.hypercalls += 1;
        self.clock.advance(self.cost.hypercall_ns);
    }

    /// Hypercall: the driver VM's memory operations on a guest process
    /// (§5.2) — copies in either direction and the `vm_insert_pfn` / zap
    /// fix-ups — each checked against the guest's grant `grant` (§4.1). A
    /// scalar operation is a slice of one; the fast path passes a whole
    /// dispatch's operations so they cross the boundary once.
    ///
    /// Every operation is validated and traced before any is applied, with
    /// one audit entry for the first violation: a refused call charges
    /// nothing and applies nothing, so a compromised driver posting a wild
    /// slice cannot leak its first k operations. An admitted call charges
    /// one `hypercall_ns` crossing, then applies the operations in order,
    /// each charging its work minus its own crossing — a one-op call costs
    /// exactly its work. A fault during apply (e.g. an unmapped guest page)
    /// moves nothing of its op and aborts the rest; such faults are the
    /// guest's own mapping state, not an isolation boundary, except a
    /// refused driver page of a two-sided copy, which is audited.
    ///
    /// `CopyFromGuest` fills its buffer in place. `CopyFromGuestToDriver`
    /// and `CopyToGuestFromDriver` copy between the guest range and the
    /// caller's own memory in one copy (see `process_copy_driver`): checked
    /// against the grant as the plain copy of the same guest range, and on
    /// the driver side against `domain`'s protected regions and the
    /// caller's EPT. `InsertPfn` maps the driver frame through a fix-up
    /// (see `install_fixup`); with data isolation, `domain` confines
    /// protected pages to the owning guest's region. `ZapPage` destroys
    /// only the EPT side: "the hypervisor only needs to destroy the
    /// mappings in the EPTs" (§5.2).
    ///
    /// # Errors
    ///
    /// Role violations; grant violations (audited, nothing applied); walk,
    /// mapping and foreign-region failures (audited) during apply.
    pub fn hc_memops(
        &mut self,
        caller: VmId,
        guest: VmId,
        pt_root: GuestPhysAddr,
        grant: GrantRef,
        domain: Option<DomainId>,
        ops: &mut [MemOp<'_>],
    ) -> Result<(), HvError> {
        self.require_driver(caller)?;
        self.hypercalls += 1;
        let verdict = self.validate_grant_batch(caller, guest, grant, ops);
        self.trace_mem_op(ops, verdict.as_ref().err().map(|(bad, _)| *bad));
        verdict.map_err(|(_, e)| e)?;
        self.clock.advance(self.cost.hypercall_ns);
        let regions = domain.map(|domain| (grant, domain));
        for op in ops {
            let (.., work_ns) = shape_and_cost(op.request(), &self.cost);
            self.clock
                .advance(work_ns.saturating_sub(self.cost.hypercall_ns));
            match op {
                MemOp::CopyFromGuest { src, buf } => {
                    self.process_read(guest, pt_root, *src, buf)?;
                }
                MemOp::CopyToGuest { dst, data } => {
                    self.process_write(guest, pt_root, *dst, data)?;
                }
                MemOp::InsertPfn {
                    va,
                    driver_pfn,
                    access,
                } => {
                    let driver_gpa = GuestPhysAddr::new(*driver_pfn * PAGE_SIZE);
                    let pa = self.frame_of(caller, driver_gpa)?;
                    self.check_region_owner(caller, guest, grant, domain, driver_gpa)?;
                    self.install_fixup(guest, pt_root, *va, pa, *access)?;
                }
                MemOp::ZapPage { va } => self.remove_fixup(guest, pt_root, *va)?,
                MemOp::CopyFromGuestToDriver { src, dst, len } => {
                    let process = (guest, pt_root, *src);
                    self.process_copy_driver(process, (caller, *dst), *len, true, regions)?;
                }
                MemOp::CopyToGuestFromDriver { dst, src, len } => {
                    let process = (guest, pt_root, *dst);
                    self.process_copy_driver(process, (caller, *src), *len, false, regions)?;
                }
            }
        }
        Ok(())
    }

    /// Data isolation (§4.2 — "each guest VM has access to its own memory
    /// region only"): a protected page may be mapped into, or copied to or
    /// from, only the guest whose region owns it. A foreign page is refused
    /// and audited. Whether `driver_gpa` is a page of `guest`'s own region.
    fn check_region_owner(
        &mut self,
        caller: VmId,
        guest: VmId,
        grant: GrantRef,
        domain: Option<DomainId>,
        driver_gpa: GuestPhysAddr,
    ) -> Result<bool, HvError> {
        let Some(state) = domain.and_then(|d| self.domains.get(&d.index())) else {
            return Ok(false);
        };
        let Some(owner) = state.regions.owner_of_page(driver_gpa) else {
            return Ok(false);
        };
        if state.regions.guest_of(owner)? == guest {
            return Ok(true);
        }
        self.audit.record(
            self.clock.now_ns(),
            AuditEvent::UngrantedMemOp {
                caller,
                target: guest,
                grant: Some(grant),
                description: format!("foreign region page {driver_gpa} for {guest}"),
            },
        );
        Err(HvError::ForeignRegionPage { owner })
    }

    /// Installs one `mmap` fix-up, for the grant-checked hypercall and the
    /// trusted kernel map alike: claims an unused guest-physical page of
    /// `guest`, points its EPT entry at frame `pa`, and sets the *last
    /// level* of the process page tables (the intermediate levels must
    /// already exist — the hypervisor does not create them).
    fn install_fixup(
        &mut self,
        guest: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
        pa: PhysAddr,
        access: Access,
    ) -> Result<(), HvError> {
        let claimed = self.vm_mut(guest)?.gpa_window_mut().claim()?;
        self.vm_mut(guest)?.ept_mut().map(claimed, pa, access)?;
        let tables = GuestPageTables::from_root(pt_root);
        if let Err(e) = tables.set_leaf(&mut self.gpa_space(guest), va, claimed, access) {
            // Roll back the claim so a frontend bug cannot leak window pages.
            self.release_claimed(guest, claimed)?;
            return Err(e.into());
        }
        self.fixups.insert(
            FixupKey::new(guest, pt_root, va),
            Fixup {
                claimed_gpa: claimed,
            },
        );
        Ok(())
    }

    /// Tears down the fix-up at `va` (the EPT side; the guest kernel has
    /// already cleared its own leaf).
    fn remove_fixup(
        &mut self,
        guest: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
    ) -> Result<(), HvError> {
        let fixup = self
            .fixups
            .remove(&FixupKey::new(guest, pt_root, va))
            .ok_or(HvError::NoSuchMapping {
                dma: DmaAddr::new(va.raw()),
            })?;
        self.release_claimed(guest, fixup.claimed_gpa)
    }

    /// Unmaps a claimed window page from `vm`'s EPT and returns it to the
    /// window.
    fn release_claimed(&mut self, vm: VmId, gpa: GuestPhysAddr) -> Result<(), HvError> {
        let vm = self.vm_mut(vm)?;
        vm.ept_mut().unmap(gpa);
        vm.gpa_window_mut().release(gpa);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Device assignment and data isolation
    // ------------------------------------------------------------------

    /// Assigns a device to `driver_vm` (§3.1): creates its IOMMU domain and,
    /// without data isolation, lets DMA reach all of the driver VM's RAM.
    /// With [`DataIsolation::Enabled`] the IOMMU starts empty (§4.2).
    ///
    /// # Errors
    ///
    /// Unknown VM.
    pub fn assign_device(
        &mut self,
        driver_vm: VmId,
        isolation: DataIsolation,
    ) -> Result<DomainId, HvError> {
        self.vm(driver_vm)?;
        let domain = self.iommu.create_domain();
        if isolation == DataIsolation::Disabled {
            self.map_identity_dma(driver_vm, domain)?;
        }
        self.domains.insert(
            domain.index(),
            DomainState {
                driver_vm,
                isolation,
                regions: RegionManager::new(),
                aperture: None,
                mmio_protected: false,
                bar_base: None,
                bar_pages: 0,
            },
        );
        Ok(domain)
    }

    /// Lets DMA reach all of `driver_vm`'s RAM: the domain's bus addresses
    /// mirror the VM's guest-physical space, mapped as one run.
    fn map_identity_dma(&mut self, driver_vm: VmId, domain: DomainId) -> Result<(), HvError> {
        let vm = self
            .vms
            .get(driver_vm.0 as usize)
            .ok_or(HvError::UnknownVm { vm: driver_vm })?;
        // `create_vm` maps all of RAM and nothing unmaps a page of it.
        let frames = (0..vm.ram_pages() as usize).map(|page| {
            let gpa = GuestPhysAddr::new(page as u64 * PAGE_SIZE);
            vm.ept().frame_of(gpa).expect("RAM is mapped")
        });
        let dom = self.iommu.domain_mut(domain);
        Ok(dom.map_run(DmaAddr::new(0), Access::RW, RegionId::GLOBAL, frames)?)
    }

    fn domain_state(&self, domain: DomainId) -> &DomainState {
        self.domains.get(&domain.index()).expect("unknown domain")
    }

    fn domain_state_mut(&mut self, domain: DomainId) -> &mut DomainState {
        self.domains
            .get_mut(&domain.index())
            .expect("unknown domain")
    }

    /// Whether data isolation is enabled for this device.
    pub fn data_isolation(&self, domain: DomainId) -> bool {
        self.domain_state(domain).isolation == DataIsolation::Enabled
    }

    /// Allocates `pages` frames of *device memory* (VRAM) and maps them as a
    /// BAR into the driver VM's guest-physical space above its RAM + `mmap`
    /// window. Returns the BAR base. Device memory lives in system physical
    /// address space, exactly like a real BAR-mapped aperture.
    ///
    /// # Errors
    ///
    /// Out of frames; nothing is allocated or mapped then.
    pub fn map_device_bar(
        &mut self,
        domain: DomainId,
        pages: u64,
    ) -> Result<GuestPhysAddr, HvError> {
        let driver_vm = self.domain_state(domain).driver_vm;
        let Hypervisor { vms, mem, .. } = self;
        let vm = vms
            .get_mut(driver_vm.0 as usize)
            .ok_or(HvError::UnknownVm { vm: driver_vm })?;
        // Place the BAR well above RAM and the unused-GPA window.
        let base_page = vm.ram_pages() + 2 * (crate::vm::GPA_WINDOW_BYTES / PAGE_SIZE);
        let bar_base = GuestPhysAddr::new(base_page * PAGE_SIZE);
        vm.ept_mut()
            .map_run(bar_base, Access::RW, mem.alloc_frames(pages as usize)?)?;
        let state = self.domain_state_mut(domain);
        state.bar_base = Some(bar_base);
        state.bar_pages = pages;
        Ok(bar_base)
    }

    /// The BAR placement of a device, if one was mapped.
    pub fn device_bar(&self, domain: DomainId) -> Option<(GuestPhysAddr, u64)> {
        let state = self.domain_state(domain);
        state.bar_base.map(|base| (base, state.bar_pages))
    }

    /// Creates a protected region for `guest` (driver initialization phase,
    /// which the paper trusts: "we assume that the driver is not malicious in
    /// this phase", §5.3).
    ///
    /// # Errors
    ///
    /// Role and overlap violations.
    pub fn hc_create_region(
        &mut self,
        caller: VmId,
        domain: DomainId,
        guest: VmId,
        dev_mem: Option<DevMemRange>,
    ) -> Result<RegionId, HvError> {
        self.require_driver(caller)?;
        self.vm(guest)?;
        self.clock.advance(self.cost.hypercall_ns);
        Ok(self
            .domain_state_mut(domain)
            .regions
            .create_region(guest, dev_mem)?)
    }

    /// Hypercall: add `driver_gpa` to `region`'s protected pool and map it in
    /// the IOMMU at `dma` (§5.3(i)). The hypervisor strips the driver VM's
    /// EPT permissions for the page — the driver can no longer read it.
    ///
    /// Without data isolation, `region` is ignored and the page is mapped
    /// globally.
    ///
    /// # Errors
    ///
    /// Role violations, missing region tag under isolation, bookkeeping
    /// failures; a `dma` beyond the IOMMU's 39-bit address width is
    /// refused as [`IommuFault::Unmapped`].
    #[allow(clippy::too_many_arguments)]
    pub fn hc_iommu_map(
        &mut self,
        caller: VmId,
        domain: DomainId,
        dma: DmaAddr,
        driver_gpa: GuestPhysAddr,
        access: Access,
        region: Option<RegionId>,
    ) -> Result<(), HvError> {
        self.require_driver(caller)?;
        self.clock
            .advance(self.cost.hypercall_ns + self.cost.iommu_map_ns);
        let driver_vm = self.domain_state(domain).driver_vm;
        let pa = self.frame_of(driver_vm, driver_gpa)?;
        if !IommuDomain::addressable(dma) {
            return Err(IommuFault::Unmapped { dma }.into());
        }
        let region = if self.data_isolation(domain) {
            let region = region.ok_or(HvError::RegionRequired)?;
            self.domain_state_mut(domain)
                .regions
                .add_sys_page(region, driver_gpa)?;
            // x86 cannot express write-only: protected pages lose both read
            // and write from the driver VM (§5.3(iv)).
            self.vm_mut(driver_vm)?
                .ept_mut()
                .set_access(driver_gpa, Access::NONE)?;
            region
        } else {
            RegionId::GLOBAL
        };
        // `pa` came out of an EPT and `dma` is addressable: the entry fits.
        Ok(self.iommu.domain_mut(domain).map(dma, pa, access, region)?)
    }

    /// Hypercall: make the device work with `region`'s data — switch the
    /// IOMMU's active region and reprogram the device-memory aperture
    /// (§4.2). Charges per-page remap cost.
    ///
    /// # Errors
    ///
    /// Role violations or unknown regions.
    pub fn hc_switch_region(
        &mut self,
        caller: VmId,
        domain: DomainId,
        region: Option<RegionId>,
    ) -> Result<(), HvError> {
        self.require_driver(caller)?;
        let aperture = match region {
            Some(r) => self.domain_state(domain).regions.dev_mem_of(r)?,
            None => None,
        };
        let pages = self.iommu.domain_mut(domain).switch_region(region);
        self.clock.advance(
            self.cost.hypercall_ns + pages as u64 * self.cost.region_switch_page_ns,
        );
        self.domain_state_mut(domain).aperture = aperture;
        Ok(())
    }

    /// The active region of a device's IOMMU domain.
    pub fn active_region(&self, domain: DomainId) -> Option<RegionId> {
        self.iommu.domain(domain).active_region()
    }

    /// The region belonging to `guest` on this device, if any.
    pub fn region_of_guest(&self, domain: DomainId, guest: VmId) -> Option<RegionId> {
        self.domain_state(domain).regions.region_of_guest(guest)
    }

    // ------------------------------------------------------------------
    // Protected MMIO (the GPU memory controller, §4.2/§5.3(iii))
    // ------------------------------------------------------------------

    /// Unmaps the MC register page from the driver VM (trusted driver
    /// initialization). After this, direct driver writes to the page are
    /// blocked and audited. The §5.3(iii) hypercall proxy for the page's
    /// other registers is not modelled: no driver uses them.
    ///
    /// # Errors
    ///
    /// Role violations.
    pub fn hc_protect_mmio(&mut self, caller: VmId, domain: DomainId) -> Result<(), HvError> {
        self.require_driver(caller)?;
        self.clock.advance(self.cost.hypercall_ns);
        self.domain_state_mut(domain).mmio_protected = true;
        Ok(())
    }

    /// A *direct* driver-VM write to the MC register page — the attack path.
    /// Succeeds only while the page is still mapped (no protection); once
    /// protected it is blocked and audited.
    ///
    /// # Errors
    ///
    /// [`HvError::ProtectedMmio`] after protection.
    pub fn mc_write_direct(
        &mut self,
        caller: VmId,
        domain: DomainId,
        offset: u64,
        value: u64,
    ) -> Result<(), HvError> {
        self.require_driver(caller)?;
        if self.domain_state(domain).mmio_protected {
            self.audit.record(
                self.clock.now_ns(),
                AuditEvent::ProtectedMmioWrite { offset },
            );
            return Err(HvError::ProtectedMmio { offset });
        }
        match offset {
            MC_APERTURE_LO => {
                let hi = self
                    .domain_state(domain)
                    .aperture
                    .map_or(u64::MAX, |a| a.hi);
                self.domain_state_mut(domain).aperture = Some(DevMemRange::new(value, hi));
            }
            MC_APERTURE_HI => {
                let lo = self.domain_state(domain).aperture.map_or(0, |a| a.lo);
                self.domain_state_mut(domain).aperture = Some(DevMemRange::new(lo, value));
            }
            // The page's other registers are not modelled.
            _ => {}
        }
        Ok(())
    }

    /// Checks a device-memory access against the active aperture, recording
    /// violations (§4.2: "if the GPU tries to access memory outside these
    /// bounds, it will not succeed").
    ///
    /// # Errors
    ///
    /// [`HvError::ApertureViolation`].
    pub fn check_aperture(&mut self, domain: DomainId, offset: u64, len: u64) -> Result<(), HvError> {
        let Some(aperture) = self.domain_state(domain).aperture else {
            return Ok(());
        };
        let end = offset.saturating_add(len.saturating_sub(1));
        if aperture.contains(offset) && aperture.contains(end) {
            Ok(())
        } else {
            self.audit
                .record(self.clock.now_ns(), AuditEvent::ApertureViolation { offset });
            Err(HvError::ApertureViolation { offset })
        }
    }

    /// The currently programmed device-memory aperture, if any.
    pub fn aperture(&self, domain: DomainId) -> Option<DevMemRange> {
        self.domain_state(domain).aperture
    }

    // ------------------------------------------------------------------
    // CPU accesses from inside a VM (EPT-checked) and device DMA
    // ------------------------------------------------------------------

    /// A CPU read from inside `vm` at guest-physical `gpa`, subject to the
    /// VM's EPT permissions. This is how the (possibly compromised) driver VM
    /// touches its own memory; reads of protected regions are blocked and
    /// audited (§4.2).
    ///
    /// # Errors
    ///
    /// EPT violations.
    pub fn vm_mem_read(
        &mut self,
        vm: VmId,
        gpa: GuestPhysAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(gpa, Transfer::Read(buf), |hv, chunk, need| {
            hv.ept_translate(vm, chunk, need)
        })
    }

    /// A CPU write from inside `vm`, subject to EPT permissions.
    ///
    /// # Errors
    ///
    /// EPT violations (audited).
    pub fn vm_mem_write(
        &mut self,
        vm: VmId,
        gpa: GuestPhysAddr,
        buf: &[u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(gpa, Transfer::Write(buf), |hv, chunk, need| {
            hv.ept_translate(vm, chunk, need)
        })
    }

    /// One page of a CPU access from inside `vm`: EPT-checked, a refusal
    /// audited as a protected-region access.
    fn ept_translate(
        &mut self,
        vm: VmId,
        gpa: GuestPhysAddr,
        need: Access,
    ) -> Result<PhysAddr, HvError> {
        let translated = self.vm(vm)?.ept().translate(gpa, need);
        translated.map_err(|violation| {
            self.audit.record(
                self.clock.now_ns(),
                AuditEvent::ProtectedRegionAccess {
                    caller: vm,
                    gpa: gpa.page_base(),
                },
            );
            violation.into()
        })
    }

    /// Device DMA read through the IOMMU (region-gated under isolation).
    ///
    /// # Errors
    ///
    /// IOMMU faults (audited).
    pub fn device_dma_read(
        &mut self,
        domain: DomainId,
        dma: DmaAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(dma, Transfer::Read(buf), |hv, chunk, need| {
            hv.iommu_translate(domain, chunk, need)
        })
    }

    /// Device DMA write through the IOMMU.
    ///
    /// # Errors
    ///
    /// IOMMU faults (audited).
    pub fn device_dma_write(
        &mut self,
        domain: DomainId,
        dma: DmaAddr,
        buf: &[u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(dma, Transfer::Write(buf), |hv, chunk, need| {
            hv.iommu_translate(domain, chunk, need)
        })
    }

    /// One page of a device DMA: IOMMU-checked, a refusal audited as a
    /// blocked DMA (naming the inactive region, if that is why).
    fn iommu_translate(
        &mut self,
        domain: DomainId,
        dma: DmaAddr,
        need: Access,
    ) -> Result<PhysAddr, HvError> {
        let translated = self.iommu.domain(domain).translate(dma, need);
        translated.map_err(|fault| {
            let region = match fault {
                IommuFault::RegionInactive { region, .. } => Some(region),
                _ => None,
            };
            self.audit
                .record(self.clock.now_ns(), AuditEvent::DmaBlocked { dma, region });
            fault.into()
        })
    }

    /// Records an externally detected audit event (wait-queue overflows from
    /// the CVD backend, etc.).
    pub fn record_audit(&mut self, event: AuditEvent) {
        self.audit.record(self.clock.now_ns(), event);
    }

    /// Privileged read of a VM's guest-physical memory, bypassing EPT
    /// permissions. This is the *device-side* path to its own BAR-backed
    /// memory (a device is not subject to the CPU's EPT) and the attack
    /// harness's ground-truth probe. Regular VM code must use
    /// [`Hypervisor::vm_mem_read`].
    ///
    /// # Errors
    ///
    /// Fails only for unmapped guest-physical pages.
    pub fn gpa_read_privileged(
        &mut self,
        vm: VmId,
        gpa: GuestPhysAddr,
        buf: &mut [u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(gpa, Transfer::Read(buf), |hv, chunk, need| {
            hv.translate_unchecked(vm, chunk, need)
        })
    }

    /// Privileged write counterpart of [`Hypervisor::gpa_read_privileged`].
    ///
    /// # Errors
    ///
    /// Fails only for unmapped guest-physical pages.
    pub fn gpa_write_privileged(
        &mut self,
        vm: VmId,
        gpa: GuestPhysAddr,
        buf: &[u8],
    ) -> Result<(), HvError> {
        self.copy_chunks(gpa, Transfer::Write(buf), |hv, chunk, need| {
            hv.translate_unchecked(vm, chunk, need)
        })
    }

    /// The *native/assignment* mapping path: the kernel maps a local frame
    /// into one of its own processes — the same fix-up as a
    /// [`MemOp::InsertPfn`] but trusted (no grant check), since driver and
    /// process share a kernel. Used by the machine's native and
    /// device-assignment modes.
    ///
    /// # Errors
    ///
    /// Missing intermediates, unmapped frames, exhausted GPA window.
    pub fn kernel_map_into_process(
        &mut self,
        vm: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
        pfn: u64,
        access: Access,
    ) -> Result<(), HvError> {
        self.clock.advance(self.cost.map_page_ns);
        let pa = self.frame_of(vm, GuestPhysAddr::new(pfn * PAGE_SIZE))?;
        self.install_fixup(vm, pt_root, va, pa, access)
    }

    /// Trusted unmap counterpart of
    /// [`Hypervisor::kernel_map_into_process`].
    ///
    /// # Errors
    ///
    /// Unknown mappings.
    pub fn kernel_unmap_from_process(
        &mut self,
        vm: VmId,
        pt_root: GuestPhysAddr,
        va: GuestVirtAddr,
    ) -> Result<(), HvError> {
        self.clock.advance(self.cost.map_page_ns);
        self.remove_fixup(vm, pt_root, va)
    }

    /// Hypercall (trusted driver initialization): place a range of the
    /// device BAR under `region`'s protection — the driver VM loses EPT
    /// access to those VRAM pages, and mapping them into any other guest is
    /// refused (§4.2: protected regions span driver-VM system memory *and*
    /// device memory).
    ///
    /// # Errors
    ///
    /// Role violations, missing BAR, or pages already owned by a region.
    pub fn hc_protect_bar_range(
        &mut self,
        caller: VmId,
        domain: DomainId,
        region: RegionId,
        bar_offset: u64,
        len: u64,
    ) -> Result<(), HvError> {
        self.require_driver(caller)?;
        self.clock.advance(self.cost.hypercall_ns);
        let (bar_base, bar_pages) = self
            .device_bar(domain)
            .ok_or(HvError::NoSuchMapping {
                dma: DmaAddr::new(bar_offset),
            })?;
        let first = bar_offset / PAGE_SIZE;
        let pages = len.div_ceil(PAGE_SIZE);
        if first + pages > bar_pages {
            return Err(HvError::NoSuchMapping {
                dma: DmaAddr::new(bar_offset + len),
            });
        }
        let driver_vm = self.domain_state(domain).driver_vm;
        for page in first..first + pages {
            let gpa = bar_base.add(page * PAGE_SIZE);
            self.domain_state_mut(domain)
                .regions
                .add_sys_page(region, gpa)?;
            self.vm_mut(driver_vm)?
                .ept_mut()
                .set_access(gpa, Access::NONE)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::vm::VmRole;

    fn boot() -> Hypervisor {
        Hypervisor::new(4096, SimClock::new(), CostModel::default())
    }

    fn guest_with_process(hv: &mut Hypervisor) -> (VmId, GuestPageTables) {
        let guest = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
        let mut space = hv.gpa_space(guest);
        let mut pt = GuestPageTables::new(&mut space).unwrap();
        // Map a small user heap: VA 0x10000..0x18000 → GPA 0x1000..0x9000.
        for i in 0..8u64 {
            pt.map(
                &mut space,
                GuestVirtAddr::new(0x10000 + i * PAGE_SIZE),
                GuestPhysAddr::new(0x1000 + i * PAGE_SIZE),
                Access::RW,
            )
            .unwrap();
        }
        (guest, pt)
    }

    #[test]
    fn vm_creation_maps_ram() {
        let mut hv = boot();
        let vm = hv.create_vm(VmRole::Guest, 16 * PAGE_SIZE).unwrap();
        assert_eq!(hv.vm(vm).unwrap().ept().len(), 16);
        assert_eq!(hv.mem().allocated_frames(), 16);
    }

    #[test]
    fn process_rw_roundtrip_through_two_stage_walk() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let va = GuestVirtAddr::new(0x10010);
        hv.process_write(guest, pt.root(), va, b"paradice").unwrap();
        let mut buf = [0u8; 8];
        hv.process_read(guest, pt.root(), va, &mut buf).unwrap();
        assert_eq!(&buf, b"paradice");
    }

    #[test]
    fn granted_copy_executes() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let dst = GuestVirtAddr::new(0x10100);
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: dst,
                    len: 64,
                }],
            )
            .unwrap();
        let op = MemOp::CopyToGuest {
            dst,
            data: b"result!",
        };
        hv.hc_memops(driver, guest, pt.root(), grant, None, &mut [op])
            .unwrap();
        let mut buf = [0u8; 7];
        hv.process_read(guest, pt.root(), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"result!");
        assert!(hv.audit().is_empty());
    }

    #[test]
    fn ungranted_copy_blocked_and_audited() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0x10100),
                    len: 64,
                }],
            )
            .unwrap();
        // The attack: write outside the granted range ("some sensitive
        // memory location inside a guest VM kernel", §4.1).
        let op = MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0x17000),
            data: b"evil",
        };
        let err = hv
            .hc_memops(driver, guest, pt.root(), grant, None, &mut [op])
            .unwrap_err();
        assert!(matches!(err, HvError::Grant(_)));
        assert_eq!(
            hv.audit()
                .count_blocked_by(crate::audit::BlockedBy::GrantCheck),
            1
        );
    }

    #[test]
    fn memops_batch_is_one_hypercall_and_matches_singles() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let src = GuestVirtAddr::new(0x10000);
        let dst = GuestVirtAddr::new(0x10100);
        hv.process_write(guest, pt.root(), src, b"input-bytes").unwrap();
        let grant = hv
            .declare_grants(
                guest,
                vec![
                    MemOpGrant::CopyFromGuest { addr: src, len: 64 },
                    MemOpGrant::CopyToGuest { addr: dst, len: 64 },
                ],
            )
            .unwrap();
        let before = hv.hypercall_count();
        let mut input = [0u8; 11];
        hv.hc_memops(
            driver,
            guest,
            pt.root(),
            grant,
            None,
            &mut [
                MemOp::CopyFromGuest {
                    src,
                    buf: &mut input,
                },
                MemOp::CopyToGuest { dst, data: b"out" },
            ],
        )
        .unwrap();
        assert_eq!(hv.hypercall_count() - before, 1, "one crossing for the batch");
        assert_eq!(&input, b"input-bytes");
        let mut buf = [0u8; 3];
        hv.process_read(guest, pt.root(), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"out");
        assert!(hv.audit().is_empty());
    }

    #[test]
    fn memops_batch_is_all_or_nothing_on_a_grant_violation() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let dst = GuestVirtAddr::new(0x10100);
        hv.process_write(guest, pt.root(), dst, b"untouched").unwrap();
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest { addr: dst, len: 64 }],
            )
            .unwrap();
        // First entry is granted, second is wild: the batch must be refused
        // wholesale — the granted first write must NOT have been applied.
        let err = hv
            .hc_memops(
                driver,
                guest,
                pt.root(),
                grant,
                None,
                &mut [
                    MemOp::CopyToGuest {
                        dst,
                        data: b"leaked!!!",
                    },
                    MemOp::CopyToGuest {
                        dst: GuestVirtAddr::new(0x17000),
                        data: b"evil",
                    },
                ],
            )
            .unwrap_err();
        assert!(matches!(err, HvError::Grant(_)));
        let mut buf = [0u8; 9];
        hv.process_read(guest, pt.root(), dst, &mut buf).unwrap();
        assert_eq!(&buf, b"untouched", "no entry of a refused batch applies");
        assert_eq!(
            hv.audit()
                .count_blocked_by(crate::audit::BlockedBy::GrantCheck),
            1
        );
    }

    /// The guest id of a memory operation comes from the driver VM, and the
    /// grant store indexes its shards by it: an id past the last VM is
    /// refused before any shard is touched.
    #[test]
    fn memops_naming_an_unknown_guest_are_refused_without_an_audit_entry() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let window = vec![MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(0x10000), len: 16 }];
        let grant = hv.declare_grants(guest, window).unwrap();
        for unknown in [VmId(driver.0 + 1), VmId(u32::MAX)] {
            let op = MemOp::CopyToGuest { dst: GuestVirtAddr::new(0x10000), data: b"x" };
            let err = hv
                .hc_memops(driver, unknown, pt.root(), grant, None, &mut [op])
                .unwrap_err();
            assert_eq!(err, HvError::UnknownVm { vm: unknown });
            assert_eq!(hv.outstanding_grants(unknown), 0);
        }
        assert!(hv.audit().is_empty());
        assert_eq!(hv.outstanding_grants(guest), 1);
    }

    #[test]
    fn memops_batch_refuses_a_failed_driver_vm() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        hv.mark_driver_vm_failed(driver).unwrap();
        let err = hv
            .hc_memops(driver, guest, pt.root(), GrantRef(u32::MAX), None, &mut [])
            .unwrap_err();
        assert!(matches!(err, HvError::DriverVmFailed { .. }));
    }

    #[test]
    fn guest_cannot_pose_as_driver() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let other = hv.create_vm(VmRole::Guest, 16 * PAGE_SIZE).unwrap();
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0x10000),
                    len: 16,
                }],
            )
            .unwrap();
        let op = MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0x10000),
            data: b"x",
        };
        let err = hv
            .hc_memops(other, guest, pt.root(), grant, None, &mut [op])
            .unwrap_err();
        assert_eq!(err, HvError::NotDriverVm { caller: other });
    }

    #[test]
    fn insert_pfn_full_protocol() {
        let mut hv = boot();
        let (guest, mut pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 32 * PAGE_SIZE).unwrap();
        // Driver writes a recognizable pattern into one of its own pages.
        let driver_page = GuestPhysAddr::new(5 * PAGE_SIZE);
        hv.vm_mem_write(driver, driver_page, b"device-frame").unwrap();

        let map_va = GuestVirtAddr::new(0x4000_0000);
        // Frontend half: pre-create intermediate levels + declare the grant.
        {
            let mut space = hv.gpa_space(guest);
            pt.ensure_intermediate(&mut space, map_va).unwrap();
        }
        let grant = hv
            .declare_grants(
                guest,
                vec![
                    MemOpGrant::MapPages {
                        va: map_va,
                        pages: 1,
                        access: Access::RW,
                    },
                    MemOpGrant::UnmapPages {
                        va: map_va,
                        pages: 1,
                    },
                ],
            )
            .unwrap();
        // Backend half: the driver's insert_pfn redirected to the hypervisor.
        let op = MemOp::InsertPfn {
            va: map_va,
            driver_pfn: driver_page.page_number(),
            access: Access::RW,
        };
        hv.hc_memops(driver, guest, pt.root(), grant, None, &mut [op])
            .unwrap();
        assert_eq!(hv.fixups.len(), 1);

        // The guest process can now read the device frame through its own
        // address space.
        let mut buf = [0u8; 12];
        hv.process_read(guest, pt.root(), map_va, &mut buf).unwrap();
        assert_eq!(&buf, b"device-frame");

        // Unmap: guest kernel clears its leaf, then the driver zaps.
        {
            let mut space = hv.gpa_space(guest);
            pt.unmap(&mut space, map_va).unwrap();
        }
        let op = MemOp::ZapPage { va: map_va };
        hv.hc_memops(driver, guest, pt.root(), grant, None, &mut [op])
            .unwrap();
        assert_eq!(hv.fixups.len(), 0);
        assert!(hv.process_read(guest, pt.root(), map_va, &mut buf).is_err());
    }

    #[test]
    fn insert_pfn_requires_grant_and_intermediates() {
        let mut hv = boot();
        let (guest, pt) = guest_with_process(&mut hv);
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let va = GuestVirtAddr::new(0x5000_0000);
        let grant = hv.declare_grants(guest, vec![]).unwrap();
        let insert = || MemOp::InsertPfn {
            va,
            driver_pfn: 1,
            access: Access::RW,
        };
        // No grant coverage.
        let err = hv
            .hc_memops(driver, guest, pt.root(), grant, None, &mut [insert()])
            .unwrap_err();
        assert!(matches!(err, HvError::Grant(_)));
        // Grant but missing intermediates: hypervisor refuses to create them.
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::MapPages {
                    va,
                    pages: 1,
                    access: Access::RW,
                }],
            )
            .unwrap();
        let err = hv
            .hc_memops(driver, guest, pt.root(), grant, None, &mut [insert()])
            .unwrap_err();
        assert!(matches!(
            err,
            HvError::Pt(PtWalkError::MissingIntermediate { .. })
        ));
        // The failed fix-up must not leak window pages.
        assert_eq!(hv.vm(guest).unwrap().ept().len(), 64);
    }

    #[test]
    fn device_assignment_restricts_dma_to_driver_vm() {
        let mut hv = boot();
        let driver = hv.create_vm(VmRole::Driver, 8 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Disabled).unwrap();
        // DMA within driver RAM works.
        hv.device_dma_write(domain, DmaAddr::new(0x2000), b"pkt")
            .unwrap();
        let mut buf = [0u8; 3];
        hv.device_dma_read(domain, DmaAddr::new(0x2000), &mut buf)
            .unwrap();
        assert_eq!(&buf, b"pkt");
        // DMA outside driver RAM faults and is audited.
        let err = hv
            .device_dma_read(domain, DmaAddr::new(64 * PAGE_SIZE), &mut buf)
            .unwrap_err();
        assert!(matches!(err, HvError::Iommu(IommuFault::Unmapped { .. })));
        assert_eq!(
            hv.audit()
                .count_blocked_by(crate::audit::BlockedBy::IommuRegion),
            1
        );
    }

    #[test]
    fn a_bus_address_beyond_the_iommu_width_is_refused_not_mapped() {
        let mut hv = boot();
        let driver = hv.create_vm(VmRole::Driver, 8 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Disabled).unwrap();
        let before = hv.iommu.domain(domain).mapped_pages();
        for dma in [DmaAddr::new(1 << 39), DmaAddr::new(u64::MAX)] {
            let page = GuestPhysAddr::new(PAGE_SIZE);
            let err = hv
                .hc_iommu_map(driver, domain, dma, page, Access::RW, None)
                .unwrap_err();
            assert_eq!(err, HvError::Iommu(IommuFault::Unmapped { dma }));
        }
        assert_eq!(hv.iommu.domain(domain).mapped_pages(), before);
        let top = DmaAddr::new((1 << 39) - PAGE_SIZE);
        hv.hc_iommu_map(driver, domain, top, GuestPhysAddr::new(0), Access::RW, None)
            .unwrap();
        assert_eq!(hv.iommu.domain(domain).mapped_pages(), before + 1);
    }

    #[test]
    fn data_isolation_protects_pages_from_driver_and_gates_dma() {
        let mut hv = boot();
        let guest1 = hv.create_vm(VmRole::Guest, 8 * PAGE_SIZE).unwrap();
        let guest2 = hv.create_vm(VmRole::Guest, 8 * PAGE_SIZE).unwrap();
        let driver = hv.create_vm(VmRole::Driver, 32 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Enabled).unwrap();

        let r1 = hv
            .hc_create_region(driver, domain, guest1, Some(DevMemRange::new(0, 512)))
            .unwrap();
        let r2 = hv
            .hc_create_region(driver, domain, guest2, Some(DevMemRange::new(512, 1024)))
            .unwrap();

        // Driver maps one pool page per region.
        let page1 = GuestPhysAddr::new(10 * PAGE_SIZE);
        let page2 = GuestPhysAddr::new(11 * PAGE_SIZE);
        hv.hc_iommu_map(
            driver,
            domain,
            DmaAddr::new(page1.raw()),
            page1,
            Access::RW,
            Some(r1),
        )
        .unwrap();
        hv.hc_iommu_map(
            driver,
            domain,
            DmaAddr::new(page2.raw()),
            page2,
            Access::RW,
            Some(r2),
        )
        .unwrap();

        // The driver VM can no longer read the protected pages.
        let mut buf = [0u8; 4];
        let err = hv.vm_mem_read(driver, page1, &mut buf).unwrap_err();
        assert!(matches!(err, HvError::Ept(_)));
        assert_eq!(
            hv.audit()
                .count_blocked_by(crate::audit::BlockedBy::EptProtection),
            1
        );

        // With region 1 active, DMA to region 2's page is blocked.
        hv.hc_switch_region(driver, domain, Some(r1)).unwrap();
        hv.device_dma_write(domain, DmaAddr::new(page1.raw()), b"ok!!")
            .unwrap();
        let err = hv
            .device_dma_write(domain, DmaAddr::new(page2.raw()), b"evil")
            .unwrap_err();
        assert!(matches!(
            err,
            HvError::Iommu(IommuFault::RegionInactive { .. })
        ));

        // Aperture follows the active region.
        assert_eq!(hv.aperture(domain), Some(DevMemRange::new(0, 512)));
        assert!(hv.check_aperture(domain, 100, 16).is_ok());
        let err = hv.check_aperture(domain, 600, 16).unwrap_err();
        assert!(matches!(err, HvError::ApertureViolation { .. }));

        // Switching regions flips everything.
        hv.hc_switch_region(driver, domain, Some(r2)).unwrap();
        assert!(hv
            .device_dma_write(domain, DmaAddr::new(page2.raw()), b"ok!!")
            .is_ok());
        assert!(hv.check_aperture(domain, 600, 16).is_ok());
    }

    #[test]
    fn foreign_region_page_cannot_be_mapped_into_other_guest() {
        let mut hv = boot();
        let (guest1, _pt1) = guest_with_process(&mut hv);
        let guest2 = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
        let mut pt2 = {
            let mut space = hv.gpa_space(guest2);
            GuestPageTables::new(&mut space).unwrap()
        };
        let driver = hv.create_vm(VmRole::Driver, 32 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Enabled).unwrap();
        let r1 = hv.hc_create_region(driver, domain, guest1, None).unwrap();
        let page = GuestPhysAddr::new(12 * PAGE_SIZE);
        hv.hc_iommu_map(
            driver,
            domain,
            DmaAddr::new(page.raw()),
            page,
            Access::RW,
            Some(r1),
        )
        .unwrap();

        // The compromised driver tries to map guest1's protected page into
        // guest2 (with guest2's cooperation — it granted the window).
        let va = GuestVirtAddr::new(0x4000_0000);
        {
            let mut space = hv.gpa_space(guest2);
            pt2.ensure_intermediate(&mut space, va).unwrap();
        }
        let grant = hv
            .declare_grants(
                guest2,
                vec![MemOpGrant::MapPages {
                    va,
                    pages: 1,
                    access: Access::RW,
                }],
            )
            .unwrap();
        let op = MemOp::InsertPfn {
            va,
            driver_pfn: page.page_number(),
            access: Access::RW,
        };
        let err = hv
            .hc_memops(driver, guest2, pt2.root(), grant, Some(domain), &mut [op])
            .unwrap_err();
        assert_eq!(err, HvError::ForeignRegionPage { owner: r1 });
    }

    #[test]
    fn protected_mmio_blocks_direct_aperture_writes() {
        let mut hv = boot();
        let driver = hv.create_vm(VmRole::Driver, 8 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Enabled).unwrap();
        // Before protection (trusted init), direct writes work.
        hv.mc_write_direct(driver, domain, MC_APERTURE_LO, 0).unwrap();
        hv.mc_write_direct(driver, domain, MC_APERTURE_HI, 4096)
            .unwrap();
        assert_eq!(hv.aperture(domain), Some(DevMemRange::new(0, 4096)));
        // Init done: MMIO page unmapped from the driver VM.
        hv.hc_protect_mmio(driver, domain).unwrap();
        let err = hv
            .mc_write_direct(driver, domain, MC_APERTURE_LO, u64::MAX)
            .unwrap_err();
        assert!(matches!(err, HvError::ProtectedMmio { .. }));
        // Aperture unchanged by the attack.
        assert_eq!(hv.aperture(domain), Some(DevMemRange::new(0, 4096)));
        assert_eq!(
            hv.audit()
                .count_blocked_by(crate::audit::BlockedBy::ProtectedMmio),
            1
        );
    }

    #[test]
    fn device_bar_mapping() {
        let mut hv = boot();
        let driver = hv.create_vm(VmRole::Driver, 8 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Disabled).unwrap();
        let bar = hv.map_device_bar(domain, 4).unwrap();
        assert!(bar.page_number() >= 8);
        assert_eq!(hv.device_bar(domain), Some((bar, 4)));
        // The driver VM can access VRAM through the BAR.
        hv.vm_mem_write(driver, bar, b"vram").unwrap();
        let mut buf = [0u8; 4];
        hv.vm_mem_read(driver, bar, &mut buf).unwrap();
        assert_eq!(&buf, b"vram");
    }

    #[test]
    fn a_vm_or_bar_too_big_for_memory_takes_no_frame_and_maps_nothing() {
        let mut hv = Hypervisor::new(100, SimClock::new(), CostModel::default());
        assert_eq!(
            hv.create_vm(VmRole::Guest, 200 * PAGE_SIZE),
            Err(HvError::Mem(MemError::OutOfFrames))
        );
        assert_eq!(hv.mem().free_frames(), 100);
        assert_eq!(hv.mem().allocated_frames(), 0);
        assert!(hv.vm(VmId(0)).is_err(), "a refused VM is not created");
        let driver = hv.create_vm(VmRole::Driver, 60 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Disabled).unwrap();
        let mapped = hv.vm(driver).unwrap().ept().len();
        assert_eq!(
            hv.map_device_bar(domain, 41),
            Err(HvError::Mem(MemError::OutOfFrames))
        );
        assert_eq!(hv.mem().free_frames(), 40);
        assert_eq!(hv.vm(driver).unwrap().ept().len(), mapped);
        assert_eq!(hv.device_bar(domain), None);
        // The last 40 frames still make a whole BAR, and then a VM of no
        // RAM is all that fits.
        let bar = hv.map_device_bar(domain, 40).unwrap();
        assert_eq!(hv.mem().free_frames(), 0);
        assert_eq!(hv.vm(driver).unwrap().ept().len(), mapped + 40);
        hv.vm_mem_write(driver, bar.add(39 * PAGE_SIZE), b"top")
            .unwrap();
        assert_eq!(
            hv.create_vm(VmRole::Guest, PAGE_SIZE),
            Err(HvError::Mem(MemError::OutOfFrames))
        );
        hv.create_vm(VmRole::Guest, 0).unwrap();
    }

    #[test]
    fn identity_dma_reaches_every_ram_page_through_its_own_frame() {
        let mut hv = boot();
        let guest = hv.create_vm(VmRole::Guest, 3 * PAGE_SIZE).unwrap();
        let driver = hv.create_vm(VmRole::Driver, 600 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(driver, DataIsolation::Disabled).unwrap();
        let dom = hv.iommu.domain(domain);
        assert_eq!(dom.mapped_pages(), 600);
        let ept = hv.vm(driver).unwrap().ept();
        for (dma, frame, access, region) in dom.iter() {
            let gpa = GuestPhysAddr::new(dma.raw());
            assert_eq!(ept.frame_of(gpa), Some(frame), "{dma}");
            assert_eq!((access, region), (Access::RW, RegionId::GLOBAL));
        }
        let guest_frame = hv.vm(guest).unwrap().ept().frame_of(GuestPhysAddr::new(0));
        assert!(dom.iter().all(|(_, frame, ..)| Some(frame) != guest_frame));
    }

    #[test]
    fn kernel_map_path_mirrors_the_hypercall_path_without_grants() {
        // The native/assignment mapping route: same mechanics, trusted
        // caller, no grant table involved.
        let mut hv = boot();
        let (vm, mut pt) = guest_with_process(&mut hv);
        let va = GuestVirtAddr::new(0x6000_0000);
        {
            let mut space = hv.gpa_space(vm);
            pt.ensure_intermediate(&mut space, va).unwrap();
        }
        // Map the VM's own page 3 into the process.
        hv.vm_mem_write(vm, GuestPhysAddr::new(3 * PAGE_SIZE), b"local-frame")
            .unwrap();
        hv.kernel_map_into_process(vm, pt.root(), va, 3, Access::RW)
            .unwrap();
        let mut buf = [0u8; 11];
        hv.process_read(vm, pt.root(), va, &mut buf).unwrap();
        assert_eq!(&buf, b"local-frame");
        // Teardown mirrors the hypercall path: guest PT leaf first, then
        // the kernel unmap.
        {
            let mut space = hv.gpa_space(vm);
            pt.unmap(&mut space, va).unwrap();
        }
        hv.kernel_unmap_from_process(vm, pt.root(), va).unwrap();
        assert_eq!(hv.fixups.len(), 0);
        assert!(hv
            .kernel_unmap_from_process(vm, pt.root(), va)
            .is_err());
    }

    #[test]
    fn clock_charges_for_hypercalls() {
        let mut hv = boot();
        let driver = hv.create_vm(VmRole::Driver, 8 * PAGE_SIZE).unwrap();
        let before = hv.clock().now_ns();
        hv.hc_noop(driver);
        assert_eq!(
            hv.clock().now_ns() - before,
            hv.cost().hypercall_ns
        );
    }
}
