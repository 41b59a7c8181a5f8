//! The machine: VMs, devices, processes, and the three execution modes.
//!
//! A [`Machine`] is the whole physical box of the paper's evaluation (§6):
//! the hypervisor, a driver VM (or, natively, "the host OS"), guest VMs,
//! the attached devices with their drivers, and the processes that issue
//! file operations. The same application code runs in every
//! [`ExecMode`] — that is precisely the device-file boundary's promise.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use paradice_analyzer::extract::analyze_handler;
use paradice_cvd::backend::{Backend, SharedBackend, DEFAULT_QUEUE_CAP};
use paradice_cvd::devices::DeviceTable;
use paradice_cvd::frontend::{Frontend, IoctlKnowledge};
use paradice_cvd::info::{DeviceInfoModule, VirtualPciBus};
use paradice_cvd::proto::{CvdChannel, WireOp, WireResponse};
use paradice_cvd::sharing::{SharingPolicy, VirtualTerminals};
pub use paradice_cvd::OsPersonality;
use paradice_devfs::fileops::{FileOps, PollEvents, TaskId};
use paradice_devfs::ioc::IoctlCmd;
use paradice_devfs::registry::{DeviceId, FileHandleId, OpenPolicy};
use paradice_devfs::sysinfo::{known, DeviceClass};
use paradice_devfs::{DriverSpan, Errno, MemOps, OpenFlags};
use paradice_drivers::audio::PcmDriver;
use paradice_drivers::camera::UvcDriver;
use paradice_drivers::env::KernelEnv;
use paradice_drivers::evdev::{EvdevDriver, EventKind, InputEvent};
use paradice_drivers::gpu::driver::{DriverVersion, RadeonDriver};
use paradice_drivers::gpu::i915::{i915_handler_ir, I915Driver};
use paradice_drivers::gpu::ir::radeon_handler_3_2_0;
use paradice_drivers::gpu::isolation::IsolationState;
use paradice_drivers::gpu::model::RadeonGpu;
use paradice_drivers::netmap::NetmapDriver;
use paradice_faults::FaultPlan;
use paradice_hypervisor::hv::{DataIsolation, HvError, Hypervisor};
use paradice_hypervisor::vm::VmRole;
use paradice_hypervisor::{
    ChannelStats, ClockSource, CostModel, EngineKind, SharedHypervisor, TransportMode, VmId,
};
use paradice_mem::pagetable::GuestPageTables;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};
use paradice_trace::Tracer;

/// Virtual time a driver-VM reboot costs during recovery (§7.1). The paper
/// reports "about one minute" wall clock for a full reboot; a stripped-down
/// driver VM restoring from a snapshot is modelled at one second.
pub const DRIVER_VM_REBOOT_NS: u64 = 1_000_000_000;

/// How the machine virtualizes I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No virtualization: applications and drivers share the host kernel.
    Native,
    /// Direct device assignment: applications run inside the VM that owns
    /// the device (§7.1 — high performance, no sharing).
    DeviceAssignment,
    /// Paradice (§3): guests forward file operations to the driver VM.
    Paradice {
        /// Channel signaling: interrupts or shared-page polling (§5.1).
        transport: TransportMode,
        /// Whether hypervisor-enforced device data isolation is on (§4.2).
        data_isolation: bool,
    },
}

/// A device to attach at build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceSpec {
    /// The Radeon HD 6450 (Table 1).
    Gpu {
        /// Simulated VRAM pages (scaled down from the card's 1 GiB; see
        /// DESIGN.md on scaling).
        vram_pages: u64,
        /// Driver generation.
        version: DriverVersion,
    },
    /// Dell USB mouse.
    Mouse,
    /// Dell USB keyboard.
    Keyboard,
    /// Logitech C920 camera.
    Camera,
    /// Intel HDA speaker.
    Audio,
    /// Intel Gigabit adapter in netmap mode.
    Netmap,
    /// The integrated Intel GM965 GPU (Table 1's second GPU make), behind
    /// the very same class-agnostic CVD as the Radeon.
    IntelGpu {
        /// Simulated aperture ("stolen memory") pages.
        vram_pages: u64,
    },
}

impl DeviceSpec {
    /// The default GPU: 1024 pages (4 MiB) of simulated VRAM, 3.2.0 driver.
    pub fn gpu() -> DeviceSpec {
        DeviceSpec::Gpu {
            vram_pages: 1024,
            version: DriverVersion::V3_2_0,
        }
    }

    /// The default Intel GPU: 512 pages of aperture.
    pub fn intel_gpu() -> DeviceSpec {
        DeviceSpec::IntelGpu { vram_pages: 512 }
    }

    /// The device-file path the device registers at.
    pub fn path(&self) -> &'static str {
        match self {
            DeviceSpec::Gpu { .. } => "/dev/dri/card0",
            DeviceSpec::IntelGpu { .. } => "/dev/dri/card1",
            DeviceSpec::Mouse => "/dev/input/event0",
            DeviceSpec::Keyboard => "/dev/input/event1",
            DeviceSpec::Camera => "/dev/video0",
            DeviceSpec::Audio => "/dev/snd/pcmC0D0p",
            DeviceSpec::Netmap => "/dev/netmap",
        }
    }

    fn class(&self) -> DeviceClass {
        match self {
            DeviceSpec::Gpu { .. } | DeviceSpec::IntelGpu { .. } => DeviceClass::Gpu,
            DeviceSpec::Mouse | DeviceSpec::Keyboard => DeviceClass::Input,
            DeviceSpec::Camera => DeviceClass::Camera,
            DeviceSpec::Audio => DeviceClass::Audio,
            DeviceSpec::Netmap => DeviceClass::Net,
        }
    }

    fn open_policy(&self) -> OpenPolicy {
        match self {
            // Camera and netmap drivers are single-open (§5.1).
            DeviceSpec::Camera | DeviceSpec::Netmap => OpenPolicy::Exclusive,
            _ => OpenPolicy::Shared,
        }
    }

    fn sharing(&self) -> SharingPolicy {
        match self {
            DeviceSpec::Gpu { .. } | DeviceSpec::IntelGpu { .. } => {
                SharingPolicy::ForegroundBackground
            }
            DeviceSpec::Mouse | DeviceSpec::Keyboard => SharingPolicy::ForegroundInput,
            DeviceSpec::Camera | DeviceSpec::Netmap => SharingPolicy::Exclusive,
            DeviceSpec::Audio => SharingPolicy::Concurrent,
        }
    }

    fn pci_info(&self) -> paradice_devfs::PciDeviceInfo {
        match self {
            DeviceSpec::Gpu { .. } => known::radeon_hd6450(),
            DeviceSpec::IntelGpu { .. } => known::intel_gm965(),
            DeviceSpec::Mouse => known::dell_usb_mouse(),
            DeviceSpec::Keyboard => known::dell_usb_keyboard(),
            DeviceSpec::Camera => known::logitech_c920(),
            DeviceSpec::Audio => known::intel_hda(),
            DeviceSpec::Netmap => known::intel_gigabit(),
        }
    }

    /// The pages of device memory behind the device's BAR: the GPUs' VRAM
    /// or aperture, `None` for a device without one.
    fn vram_pages(&self) -> Option<u64> {
        match *self {
            DeviceSpec::Gpu { vram_pages, .. } | DeviceSpec::IntelGpu { vram_pages } => {
                Some(vram_pages)
            }
            _ => None,
        }
    }

    /// Builds one incarnation of the device's driver on its attached
    /// hardware: `env` and `bar` (mapped once, for the pages of
    /// [`DeviceSpec::vram_pages`]) outlive every incarnation. Attach and
    /// each driver-VM reboot call this, so a rebooted driver is built
    /// exactly as the first one was.
    fn incarnate(
        self,
        env: &Rc<KernelEnv>,
        bar: Option<GuestPhysAddr>,
        guests: &[VmId],
    ) -> Result<DriverHandle, MachineError> {
        let gpu = |vram_pages: u64| {
            let bar = bar.expect("a GPU's BAR is mapped at attach");
            RadeonGpu::new(env.clone(), bar, vram_pages * PAGE_SIZE)
        };
        Ok(match self {
            DeviceSpec::Gpu {
                vram_pages,
                version,
            } => {
                let mut gpu = gpu(vram_pages);
                let driver = if env.data_isolation() {
                    let isolation = IsolationState::setup(env, &gpu, guests, 64)
                        .map_err(MachineError::Errno)?;
                    RadeonDriver::new_isolated(env.clone(), gpu, version, isolation)
                } else {
                    // Without isolation the driver allocates and reads the
                    // interrupt status ring in system memory (the §5.3
                    // behaviour that data isolation forbids).
                    let irq_page = env.alloc_kernel_page()?;
                    gpu.set_irq_status_page(irq_page);
                    RadeonDriver::new(env.clone(), gpu, version)
                };
                DriverHandle::Gpu(Rc::new(RefCell::new(driver)))
            }
            DeviceSpec::IntelGpu { vram_pages } => {
                DriverHandle::IntelGpu(Rc::new(RefCell::new(I915Driver::new(gpu(vram_pages)))))
            }
            DeviceSpec::Mouse => {
                DriverHandle::Input(Rc::new(RefCell::new(EvdevDriver::usb_mouse(env.clone()))))
            }
            DeviceSpec::Keyboard => DriverHandle::Input(Rc::new(RefCell::new(
                EvdevDriver::usb_keyboard(env.clone()),
            ))),
            DeviceSpec::Camera => {
                DriverHandle::Camera(Rc::new(RefCell::new(UvcDriver::new(env.clone()))))
            }
            DeviceSpec::Audio => {
                DriverHandle::Audio(Rc::new(RefCell::new(PcmDriver::new(env.clone()))))
            }
            DeviceSpec::Netmap => {
                DriverHandle::Netmap(Rc::new(RefCell::new(NetmapDriver::new(env.clone()))))
            }
        })
    }
}

/// A guest VM to create at build time (Paradice mode only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestSpec {
    /// The guest's OS.
    pub personality: OsPersonality,
    /// Guest RAM in bytes.
    pub ram_bytes: u64,
}

impl GuestSpec {
    /// A Linux 3.2.0 guest with 4 MiB of simulated RAM (scaled from the
    /// paper's 1 GiB VMs; only the working set matters to the simulation).
    pub fn linux() -> GuestSpec {
        GuestSpec {
            personality: OsPersonality::LINUX_3_2_0,
            ram_bytes: 1024 * PAGE_SIZE,
        }
    }

    /// A Linux 2.6.35 guest (the paper's cross-version deployment, §5.1).
    pub fn linux_2_6_35() -> GuestSpec {
        GuestSpec {
            personality: OsPersonality::LINUX_2_6_35,
            ram_bytes: 1024 * PAGE_SIZE,
        }
    }

    /// A FreeBSD guest (§5.1).
    pub fn freebsd() -> GuestSpec {
        GuestSpec {
            personality: OsPersonality::FreeBsd,
            ram_bytes: 1024 * PAGE_SIZE,
        }
    }
}

/// Errors from machine construction and operation.
#[derive(Debug)]
pub enum MachineError {
    /// A configuration contradiction (e.g. guests in native mode).
    Config(String),
    /// The hypervisor refused an operation.
    Hv(HvError),
    /// A file-operation-level error.
    Errno(Errno),
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::Config(msg) => write!(f, "machine configuration: {msg}"),
            MachineError::Hv(e) => write!(f, "hypervisor: {e}"),
            MachineError::Errno(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MachineError {}

impl From<HvError> for MachineError {
    fn from(e: HvError) -> Self {
        MachineError::Hv(e)
    }
}

impl From<Errno> for MachineError {
    fn from(e: Errno) -> Self {
        MachineError::Errno(e)
    }
}

/// Typed handles to attached drivers (device models need poking from
/// workloads: injecting events, reading NIC counters, …).
#[derive(Clone)]
pub enum DriverHandle {
    /// The Radeon GPU.
    Gpu(Rc<RefCell<RadeonDriver>>),
    /// The Intel GPU.
    IntelGpu(Rc<RefCell<I915Driver>>),
    /// An input device.
    Input(Rc<RefCell<EvdevDriver>>),
    /// The camera.
    Camera(Rc<RefCell<UvcDriver>>),
    /// The speaker.
    Audio(Rc<RefCell<PcmDriver>>),
    /// The NIC.
    Netmap(Rc<RefCell<NetmapDriver>>),
}

impl fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DriverHandle::Gpu(_) => "Gpu",
            DriverHandle::IntelGpu(_) => "IntelGpu",
            DriverHandle::Input(_) => "Input",
            DriverHandle::Camera(_) => "Camera",
            DriverHandle::Audio(_) => "Audio",
            DriverHandle::Netmap(_) => "Netmap",
        };
        write!(f, "DriverHandle::{name}")
    }
}

impl DriverHandle {
    fn fileops(&self) -> Rc<RefCell<dyn FileOps>> {
        match self {
            DriverHandle::Gpu(d) => d.clone(),
            DriverHandle::IntelGpu(d) => d.clone(),
            DriverHandle::Input(d) => d.clone(),
            DriverHandle::Camera(d) => d.clone(),
            DriverHandle::Audio(d) => d.clone(),
            DriverHandle::Netmap(d) => d.clone(),
        }
    }

    /// Moves `fresh`'s driver into this handle's cell, so every holder of
    /// the cell — the device table's `FileOps`, [`Machine::driver`] —
    /// serves the new incarnation. The old driver drops with `fresh`.
    fn replace_with(&self, fresh: DriverHandle) {
        match (self, fresh) {
            (DriverHandle::Gpu(cell), DriverHandle::Gpu(new)) => cell.swap(&new),
            (DriverHandle::IntelGpu(cell), DriverHandle::IntelGpu(new)) => cell.swap(&new),
            (DriverHandle::Input(cell), DriverHandle::Input(new)) => cell.swap(&new),
            (DriverHandle::Camera(cell), DriverHandle::Camera(new)) => cell.swap(&new),
            (DriverHandle::Audio(cell), DriverHandle::Audio(new)) => cell.swap(&new),
            (DriverHandle::Netmap(cell), DriverHandle::Netmap(new)) => cell.swap(&new),
            (old, new) => unreachable!("{old:?} reincarnated as {new:?}"),
        }
    }
}

struct AttachedDevice {
    spec: DeviceSpec,
    handle: DriverHandle,
    env: Rc<KernelEnv>,
    /// The device memory BAR mapped at attach (the two GPU kinds).
    bar: Option<GuestPhysAddr>,
    /// The device's id in the one device table that serves it.
    id: DeviceId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FdInner {
    Host(FileHandleId),
    Guest(u64),
}

struct Process {
    vm: VmId,
    guest_index: Option<usize>,
    pt: GuestPageTables,
    next_va: u64,
    fds: BTreeMap<u64, FdInner>,
    next_fd: u64,
    pending_events: Vec<u64>, // fds with pending notifications (host path)
}

/// Builds a [`Machine`]: virtualization mode, execution substrate,
/// devices, guests and cost model. The cross-cutting switches are
/// [`Machine::enable_fastpath`], [`Machine::enable_tracing`] and
/// [`Machine::arm_faults`] on the built machine.
#[derive(Debug)]
pub struct MachineBuilder {
    mode: ExecMode,
    engine: EngineKind,
    devices: Vec<DeviceSpec>,
    guests: Vec<GuestSpec>,
    driver_ram_pages: u64,
    cost: CostModel,
}

impl Default for MachineBuilder {
    fn default() -> Self {
        MachineBuilder {
            mode: ExecMode::Native,
            engine: EngineKind::Virtual,
            devices: Vec::new(),
            guests: Vec::new(),
            driver_ram_pages: 8192, // 32 MiB of simulated driver-VM RAM
            cost: CostModel::default(),
        }
    }
}

impl MachineBuilder {
    /// Selects the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the execution substrate: [`EngineKind::Virtual`] (the
    /// default — deterministic virtual time, the correctness oracle) or
    /// [`EngineKind::Wall`] (real time: the machine's clock reads the
    /// hardware, costs charged by the model are ignored).
    pub fn engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a device.
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Adds a guest VM (Paradice mode).
    pub fn guest(mut self, spec: GuestSpec) -> Self {
        self.guests.push(spec);
        self
    }

    /// Adds several guest VMs at once (Paradice mode).
    pub fn guests(mut self, specs: impl IntoIterator<Item = GuestSpec>) -> Self {
        self.guests.extend(specs);
        self
    }

    /// Overrides the cost model (experiments with ablated constants).
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Constructs the machine.
    ///
    /// # Errors
    ///
    /// Configuration contradictions and resource exhaustion.
    pub fn build(self) -> Result<Machine, MachineError> {
        let paradice = matches!(self.mode, ExecMode::Paradice { .. });
        if paradice && self.guests.is_empty() {
            return Err(MachineError::Config(
                "Paradice mode needs at least one guest VM".into(),
            ));
        }
        if !paradice && !self.guests.is_empty() {
            return Err(MachineError::Config(
                "guest VMs only exist in Paradice mode".into(),
            ));
        }
        let (transport, data_isolation) = match self.mode {
            ExecMode::Paradice {
                transport,
                data_isolation,
            } => (transport, data_isolation),
            _ => (TransportMode::Interrupts, false),
        };

        // Size physical memory: driver RAM + guests + VRAM + slack.
        let vram_pages: u64 = self.devices.iter().filter_map(DeviceSpec::vram_pages).sum();
        let guest_pages: u64 = self.guests.iter().map(|g| g.ram_bytes / PAGE_SIZE).sum();
        let total_frames =
            (self.driver_ram_pages + guest_pages + vram_pages + 4096) as usize;

        let clock = self.engine.clock();
        let mut hv = Hypervisor::new(total_frames, clock.clone(), self.cost.clone());

        // Guest VMs first (Paradice), then the driver VM / host.
        let mut guest_vms = Vec::new();
        for guest in &self.guests {
            guest_vms.push(hv.create_vm(VmRole::Guest, guest.ram_bytes)?);
        }
        let driver_vm = hv.create_vm(VmRole::Driver, self.driver_ram_pages * PAGE_SIZE)?;
        let hv: SharedHypervisor = Rc::new(RefCell::new(hv));

        let mut machine = Machine {
            hv: hv.clone(),
            clock,
            mode: self.mode,
            driver_vm,
            guest_vms: guest_vms.clone(),
            guest_specs: self.guests.clone(),
            devices: Vec::new(),
            host_devices: (!paradice).then(DeviceTable::default),
            backend: None,
            frontends: Vec::new(),
            terminals: None,
            buses: Vec::new(),
            processes: BTreeMap::new(),
            next_task: 1,
            next_user_page: BTreeMap::new(),
            tracer: None,
        };

        // CVD plumbing (Paradice).
        if paradice {
            let backend = Backend::new(hv.clone(), driver_vm);
            let terminals = Rc::new(RefCell::new(VirtualTerminals::new(guest_vms.clone())));
            backend.borrow_mut().set_terminals(terminals.clone());
            let mut frontends = Vec::new();
            for (i, &guest) in guest_vms.iter().enumerate() {
                let channel = Rc::new(RefCell::new(CvdChannel::new(
                    transport,
                    machine.clock.clone(),
                    self.cost.clone(),
                )));
                backend
                    .borrow_mut()
                    .attach_guest(guest, channel.clone(), DEFAULT_QUEUE_CAP);
                frontends.push(Rc::new(RefCell::new(Frontend::new(
                    hv.clone(),
                    guest,
                    self.guests[i].personality,
                    channel,
                    backend.clone(),
                ))));
            }
            machine.backend = Some(backend);
            machine.frontends = frontends;
            machine.terminals = Some(terminals);
            machine.buses = (0..guest_vms.len()).map(|_| VirtualPciBus::new()).collect();
        }

        // Attach devices.
        for spec in &self.devices {
            machine.attach_device(*spec, data_isolation)?;
        }

        Ok(machine)
    }
}

/// The assembled machine.
pub struct Machine {
    hv: SharedHypervisor,
    clock: ClockSource,
    mode: ExecMode,
    driver_vm: VmId,
    guest_vms: Vec<VmId>,
    guest_specs: Vec<GuestSpec>,
    devices: Vec<AttachedDevice>,
    /// The host kernel's device table (native and device-assignment
    /// modes). Under Paradice the backend holds the one table.
    host_devices: Option<DeviceTable>,
    backend: Option<SharedBackend>,
    frontends: Vec<Rc<RefCell<Frontend>>>,
    terminals: Option<Rc<RefCell<VirtualTerminals>>>,
    buses: Vec<VirtualPciBus>,
    processes: BTreeMap<u64, Process>,
    next_task: u64,
    /// Per-VM cursor for user-page allocation (bottom-up; kernel pages come
    /// top-down from [`paradice_hypervisor::Vm::alloc_kernel_page`]).
    next_user_page: BTreeMap<u32, u64>,
    tracer: Option<Tracer>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("mode", &self.mode)
            .field("guests", &self.guest_vms.len())
            .field("devices", &self.devices.len())
            .field("processes", &self.processes.len())
            .finish()
    }
}

/// The native/assignment [`MemOps`]: direct kernel access to the local
/// process (the paper's unmodified `copy_to_user`/`vm_insert_pfn`).
///
/// The three execution modes differ at the driver only in this binding and
/// the thread mark: every file operation runs through
/// [`DeviceTable::serve`], bound here to `DirectMemOps` with no mark
/// (native, device assignment) or in the backend to
/// `paradice_cvd::memops::HypercallMemOps` marked with the calling guest
/// (Paradice). [`paradice_devfs::BufferMemOps`] (plain in-memory buffers)
/// serves driver unit tests.
pub struct DirectMemOps {
    hv: SharedHypervisor,
    vm: VmId,
    pt_root: GuestPhysAddr,
}

impl DirectMemOps {
    /// Direct access to `vm`'s process rooted at `pt_root`.
    pub fn new(hv: SharedHypervisor, vm: VmId, pt_root: GuestPhysAddr) -> Self {
        DirectMemOps { hv, vm, pt_root }
    }
}

impl MemOps for DirectMemOps {
    fn copy_from_user(&mut self, src: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .process_read(self.vm, self.pt_root, src, buf)
            .map_err(|_| Errno::Efault)
    }

    fn copy_to_user(&mut self, dst: GuestVirtAddr, buf: &[u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .process_write(self.vm, self.pt_root, dst, buf)
            .map_err(|_| Errno::Efault)
    }

    /// The kernel and the process share a VM here, with no protected
    /// regions: the driver side is checked against that VM's EPT, as the
    /// driver's own write would be.
    fn copy_from_user_to_phys(
        &mut self,
        src: GuestVirtAddr,
        dst: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .process_copy_driver((self.vm, self.pt_root, src), (self.vm, dst), len, true, None)
            .map_err(|_| Errno::Efault)
    }

    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .process_copy_driver((self.vm, self.pt_root, dst), (self.vm, src), len, false, None)
            .map_err(|_| Errno::Efault)
    }

    fn insert_pfn(&mut self, va: GuestVirtAddr, pfn: u64, access: Access) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .kernel_map_into_process(self.vm, self.pt_root, va, pfn, access)
            .map_err(|_| Errno::Efault)
    }

    fn zap_pfn(&mut self, va: GuestVirtAddr) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .kernel_unmap_from_process(self.vm, self.pt_root, va)
            .map_err(|_| Errno::Efault)
    }
}

impl Machine {
    /// Starts building a machine.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    fn attach_device(
        &mut self,
        spec: DeviceSpec,
        data_isolation: bool,
    ) -> Result<(), MachineError> {
        // GPU is the only device with data-isolation support (§5.3); other
        // devices are assigned without it.
        let di = data_isolation && matches!(spec, DeviceSpec::Gpu { .. });
        let isolation_mode = if di {
            DataIsolation::Enabled
        } else {
            DataIsolation::Disabled
        };
        let domain = self
            .hv
            .borrow_mut()
            .assign_device(self.driver_vm, isolation_mode)?;
        let env = KernelEnv::new(self.hv.clone(), self.driver_vm, domain, di);
        let bar = spec
            .vram_pages()
            .map(|pages| self.hv.borrow_mut().map_device_bar(domain, pages))
            .transpose()?;
        let handle = spec.incarnate(&env, bar, &self.guest_vms)?;

        let (path, class, policy) = (spec.path(), spec.class(), spec.open_policy());
        let (sharing, ops, driver_env) = (spec.sharing(), handle.fileops(), env.clone());
        let id = match (&self.backend, &mut self.host_devices) {
            (Some(b), _) => b
                .borrow_mut()
                .register_device(path, class, policy, sharing, ops, driver_env)?,
            (None, Some(table)) => table.register(path, class, policy, sharing, ops, driver_env)?,
            (None, None) => unreachable!("a machine without a backend has a host table"),
        };
        if self.backend.is_some() {
            // Install analyzer knowledge, analyzed once per device, and plug
            // the device info module into every guest (§5.1).
            let ir = match spec {
                DeviceSpec::Gpu { .. } => Some(radeon_handler_3_2_0()),
                DeviceSpec::IntelGpu { .. } => Some(i915_handler_ir()),
                _ => None,
            };
            let report = ir.map(|ir| analyze_handler(&ir)).transpose();
            let report = report.map_err(|e| MachineError::Config(e.to_string()))?;
            let knowledge = report.map(|report| Rc::new(IoctlKnowledge::from_report(report)));
            for (frontend, bus) in self.frontends.iter().zip(&mut self.buses) {
                if let Some(knowledge) = &knowledge {
                    frontend
                        .borrow_mut()
                        .install_knowledge(spec.path(), knowledge.clone());
                }
                bus.plug(DeviceInfoModule::new(spec.pci_info(), spec.path()));
            }
        }
        self.devices.push(AttachedDevice {
            spec,
            handle,
            env,
            bar,
            id,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The shared hypervisor (attack harness, experiments).
    pub fn hv(&self) -> &SharedHypervisor {
        &self.hv
    }

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// The machine's time source: virtual under [`EngineKind::Virtual`]
    /// (deterministic, cost-charged), real under [`EngineKind::Wall`].
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// The tracer recording this machine's operation spans, if tracing
    /// was enabled (via [`MachineBuilder::tracing`] or
    /// [`Machine::enable_tracing`]).
    pub fn tracer(&self) -> Option<Tracer> {
        self.tracer.clone()
    }

    /// The execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The guest VMs (empty outside Paradice mode).
    pub fn guest_vms(&self) -> &[VmId] {
        &self.guest_vms
    }

    /// The driver VM (or host kernel's VM container).
    pub fn driver_vm(&self) -> VmId {
        self.driver_vm
    }

    /// The kernel environment of an attached device (its IOMMU domain,
    /// data-isolation flag, thread mark) — used by the attack harness and
    /// experiments.
    pub fn device_env(&self, path: &str) -> Option<Rc<KernelEnv>> {
        self.devices
            .iter()
            .find(|d| d.spec.path() == path)
            .map(|d| d.env.clone())
    }

    /// Typed access to an attached driver by path.
    pub fn driver(&self, path: &str) -> Option<DriverHandle> {
        self.devices
            .iter()
            .find(|d| d.spec.path() == path)
            .map(|d| d.handle.clone())
    }

    /// The virtual PCI bus exported into guest `index` (Paradice).
    pub fn bus(&self, index: usize) -> Option<&VirtualPciBus> {
        self.buses.get(index)
    }

    /// The frontend of guest `index` (tests and experiments).
    pub fn frontend(&self, index: usize) -> Option<Rc<RefCell<Frontend>>> {
        self.frontends.get(index).cloned()
    }

    /// The CVD backend (Paradice).
    pub fn backend(&self) -> Option<SharedBackend> {
        self.backend.clone()
    }

    fn charge_syscall(&self) {
        self.clock
            .advance(self.hv.borrow().cost().syscall_ns);
    }

    // ------------------------------------------------------------------
    // Processes and memory
    // ------------------------------------------------------------------

    /// Spawns a process: in guest `index` under Paradice, or on the host
    /// (`None`) in native/assignment modes.
    ///
    /// # Errors
    ///
    /// Configuration mismatches and memory exhaustion.
    pub fn spawn_process(&mut self, guest: Option<usize>) -> Result<TaskId, MachineError> {
        let (vm, guest_index) = match (self.mode, guest) {
            (ExecMode::Paradice { .. }, Some(i)) => {
                let vm = *self
                    .guest_vms
                    .get(i)
                    .ok_or_else(|| MachineError::Config(format!("no guest {i}")))?;
                (vm, Some(i))
            }
            (ExecMode::Paradice { .. }, None) => {
                return Err(MachineError::Config(
                    "Paradice processes live in guest VMs".into(),
                ))
            }
            (_, Some(_)) => {
                return Err(MachineError::Config(
                    "native/assignment processes live on the host".into(),
                ))
            }
            (_, None) => (self.driver_vm, None),
        };
        let pt = {
            let mut hv = self.hv.borrow_mut();
            let mut space = hv.gpa_space(vm);
            GuestPageTables::new(&mut space).map_err(|_| MachineError::Errno(Errno::Enomem))?
        };
        let task = TaskId(self.next_task);
        self.next_task += 1;
        self.processes.insert(
            task.0,
            Process {
                vm,
                guest_index,
                pt,
                next_va: 0x0001_0000,
                fds: BTreeMap::new(),
                next_fd: 3,
                pending_events: Vec::new(),
            },
        );
        if let (Some(backend), Some(_)) = (&self.backend, guest_index) {
            backend.borrow_mut().register_task(task, vm);
        }
        Ok(task)
    }

    fn process(&self, task: TaskId) -> Result<&Process, Errno> {
        self.processes.get(&task.0).ok_or(Errno::Einval)
    }

    fn process_mut(&mut self, task: TaskId) -> Result<&mut Process, Errno> {
        self.processes.get_mut(&task.0).ok_or(Errno::Einval)
    }

    /// Allocates and maps `len` bytes of anonymous process memory; returns
    /// the virtual address (page-aligned, with a guard page after).
    ///
    /// # Errors
    ///
    /// `ENOMEM` when the VM's RAM is exhausted.
    pub fn alloc_buffer(&mut self, task: TaskId, len: u64) -> Result<GuestVirtAddr, Errno> {
        let (vm, pt_root, va) = {
            let process = self.process_mut(task)?;
            let va = process.next_va;
            let pages = len.div_ceil(PAGE_SIZE).max(1);
            process.next_va += (pages + 1) * PAGE_SIZE;
            (process.vm, process.pt, GuestVirtAddr::new(va))
        };
        let pages = len.div_ceil(PAGE_SIZE).max(1);
        let cursor = self.next_user_page.entry(vm.0).or_insert(16);
        let ram_pages = self.hv.borrow().vm(vm).map_err(|_| Errno::Einval)?.ram_pages();
        let mut pt = pt_root;
        for i in 0..pages {
            if *cursor >= ram_pages {
                return Err(Errno::Enomem);
            }
            let gpa = GuestPhysAddr::new(*cursor * PAGE_SIZE);
            *cursor += 1;
            let mut hv = self.hv.borrow_mut();
            let mut space = hv.gpa_space(vm);
            pt.map(&mut space, va.add(i * PAGE_SIZE), gpa, Access::RW)
                .map_err(|_| Errno::Enomem)?;
        }
        // Persist the (possibly updated) root.
        self.process_mut(task)?.pt = pt;
        Ok(va)
    }

    /// Writes into process memory (simulating the application's own store).
    ///
    /// # Errors
    ///
    /// `EFAULT` for unmapped ranges.
    pub fn write_mem(&mut self, task: TaskId, va: GuestVirtAddr, bytes: &[u8]) -> Result<(), Errno> {
        let (vm, root) = {
            let p = self.process(task)?;
            (p.vm, p.pt.root())
        };
        self.hv
            .borrow_mut()
            .process_write(vm, root, va, bytes)
            .map_err(|_| Errno::Efault)
    }

    /// Reads process memory (the application's own load).
    ///
    /// # Errors
    ///
    /// `EFAULT` for unmapped ranges.
    pub fn read_mem(&mut self, task: TaskId, va: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno> {
        let (vm, root) = {
            let p = self.process(task)?;
            (p.vm, p.pt.root())
        };
        self.hv
            .borrow_mut()
            .process_read(vm, root, va, buf)
            .map_err(|_| Errno::Efault)
    }

    // ------------------------------------------------------------------
    // File operations (mode-dispatched)
    // ------------------------------------------------------------------

    /// Opens a device file for `task` (read-write).
    ///
    /// # Errors
    ///
    /// `ENOENT`/`EBUSY`/driver errors.
    pub fn open(&mut self, task: TaskId, path: &str) -> Result<u64, Errno> {
        self.open_with(task, path, OpenFlags::RDWR)
    }

    /// Opens a device file with explicit flags.
    ///
    /// # Errors
    ///
    /// `ENOENT`/`EBUSY`/driver errors.
    pub fn open_with(
        &mut self,
        task: TaskId,
        path: &str,
        flags: OpenFlags,
    ) -> Result<u64, Errno> {
        self.charge_syscall();
        let guest_index = self.process(task)?.guest_index;
        let inner = match guest_index {
            None => {
                let open = WireOp::Open {
                    path: path.to_owned(),
                    flags,
                };
                let handle = self.host_call(task, 0, open)?.result()?;
                FdInner::Host(FileHandleId(handle as u64))
            }
            Some(i) => {
                let frontend = self.frontends[i].clone();
                let fd = frontend.borrow_mut().open(task, path, flags)?;
                FdInner::Guest(fd)
            }
        };
        let process = self.process_mut(task)?;
        let fd = process.next_fd;
        process.next_fd += 1;
        process.fds.insert(fd, inner);
        Ok(fd)
    }

    fn fd_of(&self, task: TaskId, fd: u64) -> Result<FdInner, Errno> {
        let process = self.process(task)?;
        process.fds.get(&fd).copied().ok_or(Errno::Ebadf)
    }

    /// The frontend and page tables a guest process's operation runs with.
    fn guest_side(&self, task: TaskId) -> Result<(&RefCell<Frontend>, GuestPageTables), Errno> {
        let p = self.process(task)?;
        let i = p.guest_index.ok_or(Errno::Ebadf)?;
        Ok((&self.frontends[i], p.pt))
    }

    /// The host kernel's half of a native or device-assignment file
    /// operation: `op` runs on `handle` through the host device table's
    /// serve step, with direct access to `task`'s memory and no thread
    /// mark.
    fn host_call(&mut self, task: TaskId, handle: u64, op: WireOp) -> Result<WireResponse, Errno> {
        let process = self.process(task)?;
        let mem = DirectMemOps::new(self.hv.clone(), process.vm, process.pt.root());
        let table = self.host_devices.as_mut().ok_or(Errno::Ebadf)?;
        table.serve(None, task, handle, &op, |_| mem)
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// `EBADF` for unknown descriptors.
    pub fn close(&mut self, task: TaskId, fd: u64) -> Result<(), Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => {
                self.host_call(task, handle.0, WireOp::Release)?;
            }
            FdInner::Guest(gfd) => {
                let i = self.process(task)?.guest_index.ok_or(Errno::Ebadf)?;
                self.frontends[i].borrow_mut().release(task, gfd)?;
            }
        }
        self.process_mut(task)?.fds.remove(&fd);
        Ok(())
    }

    /// `read(fd, buf, len)`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn read(
        &mut self,
        task: TaskId,
        fd: u64,
        addr: GuestVirtAddr,
        len: u64,
    ) -> Result<u64, Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => self
                .host_call(task, handle.0, WireOp::Read { addr, len })?
                .result()
                .map(|n| n as u64),
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend.borrow_mut().read(task, pt, gfd, addr, len)
            }
        }
    }

    /// `write(fd, buf, len)`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn write(
        &mut self,
        task: TaskId,
        fd: u64,
        addr: GuestVirtAddr,
        len: u64,
    ) -> Result<u64, Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => self
                .host_call(task, handle.0, WireOp::Write { addr, len })?
                .result()
                .map(|n| n as u64),
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend.borrow_mut().write(task, pt, gfd, addr, len)
            }
        }
    }

    /// `ioctl(fd, cmd, arg)`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn ioctl(
        &mut self,
        task: TaskId,
        fd: u64,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<i64, Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => self
                .host_call(task, handle.0, WireOp::Ioctl { cmd, arg })?
                .result(),
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend.borrow_mut().ioctl(task, pt, gfd, cmd, arg)
            }
        }
    }

    /// `mmap(fd, len, offset)`: the machine picks the process VA.
    ///
    /// # Errors
    ///
    /// Driver errors; `EINVAL` for zero-length maps.
    pub fn mmap(
        &mut self,
        task: TaskId,
        fd: u64,
        len: u64,
        offset: u64,
        access: Access,
    ) -> Result<GuestVirtAddr, Errno> {
        self.charge_syscall();
        if len == 0 {
            return Err(Errno::Einval);
        }
        let va = {
            let process = self.process_mut(task)?;
            let va = process.next_va;
            let pages = len.div_ceil(PAGE_SIZE);
            process.next_va += (pages + 1) * PAGE_SIZE;
            GuestVirtAddr::new(va)
        };
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => {
                let (vm, mut pt) = self.process(task).map(|p| (p.vm, p.pt))?;
                // The host kernel creates the intermediate levels, as the
                // guest kernel does under Paradice (§5.2).
                let pages = len.div_ceil(PAGE_SIZE);
                pt.ensure_range(&mut self.hv.borrow_mut().gpa_space(vm), va, pages)
                    .map_err(|_| Errno::Enomem)?;
                self.process_mut(task)?.pt = pt;
                let op = WireOp::Mmap {
                    va,
                    len,
                    offset,
                    access,
                };
                self.host_call(task, handle.0, op)?;
            }
            FdInner::Guest(gfd) => {
                let p = self.process(task)?;
                let (i, pt, personality) = (
                    p.guest_index.ok_or(Errno::Ebadf)?,
                    p.pt,
                    self.guest_specs[p.guest_index.unwrap_or(0)].personality,
                );
                let frontend = self.frontends[i].clone();
                if personality.needs_mmap_hook() {
                    // The 12-LoC FreeBSD kernel hook (§5.1), invoked by the
                    // guest kernel on the process's behalf.
                    frontend.borrow_mut().freebsd_set_mmap_range(va, len);
                }
                frontend
                    .borrow_mut()
                    .mmap(task, pt, gfd, va, len, offset, access)?;
            }
        }
        Ok(va)
    }

    /// `munmap(va, len)` on a device mapping.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn munmap(
        &mut self,
        task: TaskId,
        fd: u64,
        va: GuestVirtAddr,
        len: u64,
    ) -> Result<(), Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => {
                let (vm, pt) = self.process(task).map(|p| (p.vm, p.pt))?;
                // Kernel clears the leaf entries first (§5.2)…
                let pages = len.div_ceil(PAGE_SIZE);
                pt.unmap_range(&mut self.hv.borrow_mut().gpa_space(vm), va, pages)
                    .map_err(|_| Errno::Efault)?;
                self.host_call(task, handle.0, WireOp::Munmap { va, len })
                    .map(|_| ())
            }
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend.borrow_mut().munmap(task, pt, gfd, va, len)
            }
        }
    }

    /// A page fault in a lazily-populated device mapping: the kernel's
    /// fault handler routes it to the driver's `fault` file operation
    /// (§2.1), which installs exactly the faulting page.
    ///
    /// # Errors
    ///
    /// `EFAULT` outside any device mapping; driver errors otherwise.
    pub fn fault_page(&mut self, task: TaskId, fd: u64, va: GuestVirtAddr) -> Result<(), Errno> {
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => {
                // The host kernel creates the intermediates for the faulting
                // page before asking the driver to fill the leaf.
                let (vm, mut pt) = self.process(task).map(|p| (p.vm, p.pt))?;
                pt.ensure_range(&mut self.hv.borrow_mut().gpa_space(vm), va.page_base(), 1)
                    .map_err(|_| Errno::Enomem)?;
                self.process_mut(task)?.pt = pt;
                let fault = WireOp::Fault { va };
                self.host_call(task, handle.0, fault).map(|_| ())
            }
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend.borrow_mut().fault(task, pt, gfd, va)
            }
        }
    }

    /// `poll(fd)`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn poll(&mut self, task: TaskId, fd: u64) -> Result<PollEvents, Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            // The serve step answers `poll` with the dedicated variant.
            FdInner::Host(handle) => match self.host_call(task, handle.0, WireOp::Poll)? {
                WireResponse::Poll(events) => Ok(events),
                _ => Err(Errno::Eio),
            },
            FdInner::Guest(gfd) => {
                let i = self.process(task)?.guest_index.ok_or(Errno::Ebadf)?;
                self.frontends[i].borrow_mut().poll(task, gfd)
            }
        }
    }

    /// `fasync(fd, on)`.
    ///
    /// # Errors
    ///
    /// Driver errors.
    pub fn fasync(&mut self, task: TaskId, fd: u64, on: bool) -> Result<(), Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(handle) => self
                .host_call(task, handle.0, WireOp::Fasync { on })
                .map(|_| ()),
            FdInner::Guest(gfd) => {
                let i = self.process(task)?.guest_index.ok_or(Errno::Ebadf)?;
                self.frontends[i].borrow_mut().fasync(task, gfd, on)
            }
        }
    }

    // ------------------------------------------------------------------
    // Events, signals, sharing
    // ------------------------------------------------------------------

    /// Injects a mouse movement; routes `fasync` notifications per mode.
    pub fn mouse_move(&mut self, dx: i32, dy: i32) {
        self.inject_input("/dev/input/event0", EventKind::Relative, 0, dx);
        if dy != 0 {
            self.inject_input("/dev/input/event0", EventKind::Relative, 1, dy);
        }
    }

    /// Injects a key press on the keyboard.
    pub fn key_press(&mut self, code: u16) {
        self.inject_input("/dev/input/event1", EventKind::Key, code, 1);
    }

    fn inject_input(&mut self, path: &str, kind: EventKind, code: u16, value: i32) {
        let Some(device) = self.devices.iter().find(|d| d.spec.path() == path) else {
            return;
        };
        let DriverHandle::Input(driver) = &device.handle else {
            return;
        };
        let event = InputEvent {
            time_us: self.clock.now_ns() / 1_000,
            kind,
            code,
            value,
        };
        let signals = driver.borrow_mut().report_event(event);
        match &self.backend {
            Some(backend) => {
                backend.borrow_mut().deliver_signals(device.id, &signals);
            }
            None => {
                // Host path: queue signals on the subscribing processes.
                for signal in signals {
                    if let Some(process) = self.processes.get_mut(&signal.task.0) {
                        // Host fds map 1:1 onto devfs handles; find the fd.
                        let fd = process
                            .fds
                            .iter()
                            .find(|(_, inner)| matches!(inner, FdInner::Host(h) if *h == signal.handle))
                            .map(|(&fd, _)| fd);
                        if let Some(fd) = fd {
                            process.pending_events.push(fd);
                        }
                    }
                }
            }
        }
    }

    /// Blocks the process until an asynchronous notification arrives;
    /// returns the fd it was for. Charges the wakeup path (the §6.1.5
    /// scheduling latency: native wakeup plus, inside a VM, the
    /// virtualization scheduling penalty).
    pub fn wait_event(&mut self, task: TaskId) -> Option<u64> {
        let cost = {
            let hv = self.hv.borrow();
            let cost = hv.cost();
            cost.process_wakeup_ns
                + if self.mode == ExecMode::Native {
                    0
                } else {
                    cost.vm_sched_penalty_ns
                }
        };
        let guest_index = self.processes.get(&task.0)?.guest_index;
        match guest_index {
            None => {
                let process = self.processes.get_mut(&task.0)?;
                if process.pending_events.is_empty() {
                    return None;
                }
                let fd = process.pending_events.remove(0);
                self.clock.advance(cost);
                Some(fd)
            }
            Some(i) => {
                let notifications = self.frontends[i].borrow_mut().drain_notifications();
                let (sig_task, gfd) = notifications.into_iter().find(|(t, _)| *t == task)?;
                debug_assert_eq!(sig_task, task);
                // Translate the guest-frontend fd to the process fd.
                let process = self.processes.get(&task.0)?;
                let fd = process
                    .fds
                    .iter()
                    .find(|(_, inner)| matches!(inner, FdInner::Guest(g) if *g == gfd))
                    .map(|(&fd, _)| fd)?;
                self.clock.advance(cost);
                Some(fd)
            }
        }
    }

    /// Switches the foreground virtual terminal to guest `index` (§5.1).
    pub fn switch_foreground(&mut self, index: usize) -> bool {
        match (&self.terminals, self.guest_vms.get(index)) {
            (Some(terminals), Some(&guest)) => terminals.borrow_mut().switch_to(guest),
            _ => false,
        }
    }

    /// Whether guest `index` holds the foreground (renders to the GPU).
    pub fn is_foreground(&self, index: usize) -> bool {
        match (&self.terminals, self.guest_vms.get(index)) {
            (Some(terminals), Some(&guest)) => terminals.borrow().is_foreground(guest),
            (None, _) => true, // no terminals: single tenant
            _ => false,
        }
    }

    /// Paces the caller to the next 60-Hz vertical blank — the paper's
    /// proposed *software VSync emulation* for data-isolated GPUs (§5.3).
    pub fn vblank_pace(&self) {
        let period = paradice_drivers::gpu::model::VSYNC_PERIOD_NS;
        let now = self.clock.now_ns();
        let next = now.div_ceil(period) * period;
        self.clock.advance_to(next.max(now + 1));
    }

    /// Restarts the driver VM after a crash (or preventively): the paper's
    /// §7.1 fault-isolation experiment — "we reboot the driver VM and
    /// resume", while guests keep running.
    ///
    /// The sequence models the reboot end to end:
    ///
    /// 1. **Contain** (idempotent if the frontend watchdog already did):
    ///    the VM is marked failed, every outstanding grant is revoked, and
    ///    page-fault fixups are zapped, so nothing the crashed VM left
    ///    behind can touch guest memory.
    /// 2. **Reset isolation state**: the VM's IOMMU domains are emptied and
    ///    their protected-region bookkeeping cleared, so data isolation can
    ///    be re-established from scratch (works with isolation *enabled*).
    /// 3. The virtual clock pays the reboot cost, then the failure mark is
    ///    lifted (recorded as a `driver_vm_recovered` trace event).
    /// 4. **Reboot**: every driver is re-incarnated by the one function
    ///    attach builds it with (`DeviceSpec::incarnate`, on the device's
    ///    kept kernel environment and BAR) — the data-isolated GPU re-runs
    ///    its protected-region setup, the plain GPU re-allocates its
    ///    interrupt status page — and moved into the cell the device table
    ///    serves.
    /// 5. Backend handle tables and wait queues reset; each frontend
    ///    invalidates its descriptors, clears stale channel slots, and
    ///    closes its circuit breaker. All open handles die (`EBADF`);
    ///    guests reopen and resume.
    ///
    /// # Errors
    ///
    /// `ENOTSUP` outside Paradice mode; hypervisor errors if the isolation
    /// state cannot be re-created.
    pub fn recover_driver_vm(&mut self) -> Result<(), MachineError> {
        if !matches!(self.mode, ExecMode::Paradice { .. }) {
            return Err(MachineError::Errno(Errno::Enotsup));
        }
        // 1. Containment (a no-op when the watchdog got there first).
        let _ = self.hv.borrow_mut().mark_driver_vm_failed(self.driver_vm);
        // 2. Clean-slate isolation state for every domain the VM owns.
        self.hv.borrow_mut().reset_domains_of(self.driver_vm)?;
        // 3. The reboot takes (virtual) time; then the VM is trusted again.
        //    Re-instantiation below issues hypercalls that a failed VM is
        //    refused, so the mark must lift first.
        self.clock.advance(DRIVER_VM_REBOOT_NS);
        self.hv.borrow_mut().clear_driver_vm_failed(self.driver_vm);
        // 4. Re-incarnate every driver through the function attach used, and
        //    move it into the cell the device table registered, so the
        //    fresh driver serves the already-registered devfs path.
        for device in &self.devices {
            let fresh = device.spec.incarnate(&device.env, device.bar, &self.guest_vms)?;
            device.handle.replace_with(fresh);
        }
        // 5. Flush CVD state on both sides of the wire.
        if let Some(backend) = &self.backend {
            backend.borrow_mut().reset_for_recovery();
        }
        for frontend in &self.frontends {
            frontend.borrow_mut().reset_after_recovery();
        }
        // All guest descriptors are now dangling; drop them so subsequent
        // use fails with EBADF, and reset frontends' handle maps by
        // clearing process fd tables pointing at guests.
        for process in self.processes.values_mut() {
            process
                .fds
                .retain(|_, inner| !matches!(inner, FdInner::Guest(_)));
        }
        Ok(())
    }

    /// Arms a fault plan on the backend: faults fire at dispatch and
    /// channel boundaries per the plan's triggers (§7.1 experiments).
    /// Returns `false` outside Paradice mode.
    pub fn arm_faults(&mut self, plan: Rc<RefCell<FaultPlan>>) -> bool {
        match &self.backend {
            Some(backend) => {
                backend.borrow_mut().arm_faults(plan);
                true
            }
            None => false,
        }
    }

    /// Whether the driver VM is currently marked failed (watchdog fired or
    /// containment was invoked); [`Machine::recover_driver_vm`] clears it.
    pub fn driver_vm_failed(&self) -> bool {
        self.hv.borrow().driver_vm_failed(self.driver_vm)
    }

    /// Disables grant validation: the machine degenerates to the paper's
    /// *devirtualization* predecessor (Figure 1(b)), in which a compromised
    /// driver can reach arbitrary guest memory. Exists purely as the
    /// security ablation demonstrating why Paradice's strict runtime checks
    /// matter (§3.1: "this important flaw led us to the design of
    /// Paradice").
    pub fn enable_devirtualization_ablation(&mut self) {
        self.hv.borrow_mut().set_grant_validation(false);
    }

    /// Turns on paradice-trace: every forwarded file operation from now on
    /// records an `OpStart`/`Grants`/`MemOp`.../`OpEnd` span across the
    /// frontend, the wire, and the hypervisor's grant checks. Returns the
    /// shared [`Tracer`] whose event log accumulates the spans.
    ///
    /// Tracing is recording-only: it never advances the virtual clock, so
    /// traced runs keep the exact timing of untraced ones.
    pub fn enable_tracing(&mut self) -> Tracer {
        let tracer = Tracer::enabled();
        self.hv.borrow_mut().set_tracer(tracer.clone());
        for frontend in &self.frontends {
            frontend.borrow_mut().set_tracer(tracer.clone());
        }
        self.tracer = Some(tracer.clone());
        tracer
    }

    /// Enables the cross-layer fast path: the grant-declaration cache and
    /// pipelined ring on every frontend, plus vectored-hypercall dispatch
    /// in the backend. Semantics are unchanged — cached grant references
    /// are still validated per use, batches are all-or-nothing on a grant
    /// violation, and the watchdog/containment behaviour is identical.
    pub fn enable_fastpath(&mut self) {
        for frontend in &self.frontends {
            frontend.borrow_mut().set_fastpath(true);
        }
        if let Some(backend) = &self.backend {
            backend.borrow_mut().set_fastpath_batch(true);
        }
    }

    /// Total hypercalls the hypervisor has served (fast-path accounting).
    pub fn hypercall_count(&self) -> u64 {
        self.hv.borrow().hypercall_count()
    }

    /// Channel statistics of guest `index` (delivery/interrupt accounting).
    pub fn channel_stats(&self, guest_index: usize) -> Option<ChannelStats> {
        self.frontends
            .get(guest_index)
            .map(|f| f.borrow().channel_stats())
    }

    /// Posts an `ioctl` to the ring without waiting for its response
    /// (fast path). Results are collected by [`Machine::flush_pipeline`].
    ///
    /// # Errors
    ///
    /// Submission errors; per-op driver errors surface at flush. Host fds
    /// (native/assignment modes) have no forwarding channel to pipeline.
    pub fn ioctl_pipelined(
        &mut self,
        task: TaskId,
        fd: u64,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<(), Errno> {
        self.charge_syscall();
        match self.fd_of(task, fd)? {
            FdInner::Host(_) => Err(Errno::Einval),
            FdInner::Guest(gfd) => {
                let (frontend, pt) = self.guest_side(task)?;
                frontend
                    .borrow_mut()
                    .ioctl_pipelined(task, pt, gfd, cmd, arg)
            }
        }
    }

    /// Completes the pipelined submissions of `task`'s guest, returning
    /// `task`'s per-op results in submission order. Results are per task:
    /// another task's results wait for its own flush.
    ///
    /// # Errors
    ///
    /// Transport-level failure (containment has run).
    pub fn flush_pipeline(&mut self, task: TaskId) -> Result<Vec<Result<i64, Errno>>, Errno> {
        let p = self.process(task)?;
        let i = p.guest_index.ok_or(Errno::Ebadf)?;
        self.frontends[i].borrow_mut().flush_pipeline(task)
    }

    /// Drains a paused backend queue (test/diagnostic pass-through).
    pub fn resume_backend(&mut self, guest_index: usize) -> Vec<WireResponse> {
        match (&self.backend, self.guest_vms.get(guest_index)) {
            (Some(backend), Some(&guest)) => backend.borrow_mut().resume(guest),
            _ => Vec::new(),
        }
    }

    /// The per-guest wait-queue cap (experiments).
    pub fn queue_cap(&self) -> usize {
        DEFAULT_QUEUE_CAP
    }
}
