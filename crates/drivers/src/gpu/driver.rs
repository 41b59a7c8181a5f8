//! The DRM/Radeon device driver.
//!
//! A scaled-down but structurally faithful Radeon driver: GEM buffer
//! objects in VRAM or GTT, `mmap` of buffer objects into the process,
//! `PREAD`/`PWRITE` uploads (nested copies!), and the command-submission
//! (`CS`) ioctl whose chunk lists are the paper's canonical nested-copy case
//! (§4.1: "for some Radeon driver ioctl commands, the driver performs nested
//! copies, in which the data from one copy operation is used as the input
//! arguments for the next one").
//!
//! Two driver *versions* are modeled, mirroring the paper's Linux 2.6.35 vs
//! 3.2.0 comparison: [`DriverVersion::V2_6_35`] lacks the four newer
//! commands (`GEM_BUSY`, `GEM_SET_TILING`, `GEM_GET_TILING`, `GEM_VA`).
//!
//! All process-memory access goes through [`MemOps`]; the driver is
//! unmodified between native and Paradice operation. The data-isolation
//! patch set lives in [`super::isolation`] and is only active when the
//! machine enables it (§5.3).

use std::collections::BTreeMap;
use std::rc::Rc;

use paradice_devfs::fileops::{FileOps, MmapRange, OpenContext, PollEvents, TaskId};
use paradice_devfs::ioc::{iow, iowr, IoctlCmd};
use paradice_devfs::{DriverSpan, Errno, MemOps};
use paradice_mem::{DmaAddr, GuestPhysAddr, GuestVirtAddr, RegionId, PAGE_SIZE};

use crate::env::KernelEnv;
use crate::gpu::bo::{BoDomain, BufferObject, VramAllocator};
use crate::gpu::isolation::IsolationState;
use crate::gpu::model::{GpuCommand, RadeonGpu};

/// `DRM_IOCTL_RADEON_INFO`: `{u32 request, u32 pad, u64 value}`.
pub const RADEON_INFO: IoctlCmd = iowr(b'd', 0x27, 16);
/// `DRM_IOCTL_RADEON_GEM_CREATE`: `{u64 size, u32 domain, u32 flags, u32 handle, u32 pad}`.
pub const RADEON_GEM_CREATE: IoctlCmd = iowr(b'd', 0x1d, 24);
/// `DRM_IOCTL_RADEON_GEM_MMAP`: `{u32 handle, u32 pad, u64 offset}`.
pub const RADEON_GEM_MMAP: IoctlCmd = iowr(b'd', 0x1e, 16);
/// `DRM_IOCTL_RADEON_GEM_PREAD`: `{u32 handle, u32 pad, u64 offset, u64 size, u64 data_ptr}`.
pub const RADEON_GEM_PREAD: IoctlCmd = iow(b'd', 0x20, 32);
/// `DRM_IOCTL_RADEON_GEM_PWRITE`: same layout as PREAD.
pub const RADEON_GEM_PWRITE: IoctlCmd = iow(b'd', 0x21, 32);
/// `DRM_IOCTL_RADEON_GEM_WAIT_IDLE`: `{u32 handle, u32 pad}`.
pub const RADEON_GEM_WAIT_IDLE: IoctlCmd = iow(b'd', 0x24, 8);
/// `DRM_IOCTL_RADEON_CS`: `{u64 chunks_ptr, u32 num_chunks, u32 fence_out}`.
pub const RADEON_CS: IoctlCmd = iowr(b'd', 0x26, 16);
/// `DRM_IOCTL_GEM_CLOSE`: `{u32 handle, u32 pad}`.
pub const GEM_CLOSE: IoctlCmd = iow(b'd', 0x09, 8);
/// Custom: enable/disable VSync pacing (`{u32 enabled}`).
pub const RADEON_SET_VSYNC: IoctlCmd = iow(b'd', 0x50, 4);

// Commands added in the 3.2.0-era driver (the analyzer's "four new ioctl
// commands", §4.1).
/// `DRM_IOCTL_RADEON_GEM_BUSY`: `{u32 handle, u32 busy}`.
pub const RADEON_GEM_BUSY: IoctlCmd = iowr(b'd', 0x1a, 8);
/// `DRM_IOCTL_RADEON_GEM_SET_TILING`: `{u32 handle, u32 tiling, u32 pitch}`.
pub const RADEON_GEM_SET_TILING: IoctlCmd = iowr(b'd', 0x38, 12);
/// `DRM_IOCTL_RADEON_GEM_GET_TILING`: same layout.
pub const RADEON_GEM_GET_TILING: IoctlCmd = iowr(b'd', 0x39, 12);
/// `DRM_IOCTL_RADEON_GEM_VA`: `{u32 handle, u32 op, u64 va}`.
pub const RADEON_GEM_VA: IoctlCmd = iowr(b'd', 0x2b, 16);

/// `RADEON_INFO` request codes.
pub mod info {
    /// PCI device id.
    pub const DEVICE_ID: u32 = 0;
    /// VRAM size in bytes.
    pub const VRAM_SIZE: u32 = 1;
    /// Accelerator family (Evergreen = 0x45).
    pub const FAMILY: u32 = 2;
}

/// `GEM_CREATE` flag: mappings populate lazily through the page-fault
/// handler.
pub const GEM_CREATE_LAZY_MAP: u32 = 1 << 0;

/// GEM placement domains.
pub mod gem_domain {
    /// Device memory.
    pub const VRAM: u32 = 1;
    /// System memory reachable by the GPU (GTT).
    pub const GTT: u32 = 2;
}

/// CS chunk kinds.
pub mod chunk {
    /// An indirect buffer of command dwords.
    pub const IB: u32 = 1;
    /// Relocation list: `u32` buffer handles the IB references.
    pub const RELOCS: u32 = 2;
}

/// IB opcodes (6 dwords per command: `opcode, p0..p4`).
pub mod opcode {
    /// `p0` = engine cost in µs, `p1` = render-target handle.
    pub const RENDER: u32 = 1;
    /// `p0` = matrix order.
    pub const COMPUTE: u32 = 2;
    /// `p0` = source GTT handle, `p1` = destination VRAM handle,
    /// `p2` = byte length.
    pub const UPLOAD: u32 = 3;
}

/// Dwords per IB command.
pub const IB_CMD_DWORDS: usize = 6;

/// Driver generations modeled for the cross-version experiment (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum DriverVersion {
    /// The Linux 2.6.35-era driver.
    V2_6_35,
    /// The Linux 3.2.0-era driver: adds `GEM_BUSY`, `GEM_SET_TILING`,
    /// `GEM_GET_TILING` and `GEM_VA`.
    V3_2_0,
}

/// Static device information the driver reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadeonInfo {
    /// PCI device id (0x6779 = HD 6450).
    pub device_id: u16,
    /// Accelerator family code.
    pub family: u16,
}

impl Default for RadeonInfo {
    fn default() -> Self {
        RadeonInfo {
            device_id: 0x6779,
            family: 0x45,
        }
    }
}

/// The DRM/Radeon driver.
pub struct RadeonDriver {
    env: Rc<KernelEnv>,
    gpu: RadeonGpu,
    info: RadeonInfo,
    version: DriverVersion,
    bos: BTreeMap<u32, BufferObject>,
    next_handle: u32,
    tiling: BTreeMap<u32, (u32, u32)>,
    va_map: BTreeMap<u32, u64>,
    /// VRAM allocator when data isolation is off.
    global_vram: Option<VramAllocator>,
    /// Data-isolation state (per-region allocators and pools).
    isolation: Option<IsolationState>,
    /// GTT pages when data isolation is off.
    global_gtt: Option<crate::env::DmaPool>,
    /// Lazily-populated mappings awaiting faults: `(task, va, len, handle)`.
    lazy_vmas: Vec<(TaskId, GuestVirtAddr, u64, u32)>,
    open_count: u32,
}

impl std::fmt::Debug for RadeonDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RadeonDriver")
            .field("version", &self.version)
            .field("bos", &self.bos.len())
            .field("isolated", &self.isolation.is_some())
            .finish()
    }
}

/// GTT pool size without isolation, in pages.
const GLOBAL_GTT_PAGES: usize = 512;

impl RadeonDriver {
    /// Creates the driver atop an initialized GPU model. Without data
    /// isolation the whole VRAM is one allocation arena and the GTT pool is
    /// global; the isolation variant is built via
    /// [`RadeonDriver::new_isolated`].
    pub fn new(env: Rc<KernelEnv>, gpu: RadeonGpu, version: DriverVersion) -> Self {
        let vram = VramAllocator::new(0, gpu.vram_bytes());
        RadeonDriver {
            env,
            gpu,
            info: RadeonInfo::default(),
            version,
            bos: BTreeMap::new(),
            next_handle: 1,
            tiling: BTreeMap::new(),
            va_map: BTreeMap::new(),
            global_vram: Some(vram),
            isolation: None,
            global_gtt: None,
            lazy_vmas: Vec::new(),
            open_count: 0,
        }
    }

    /// Creates the driver with the data-isolation patch set active
    /// (§5.3): per-guest regions already created by [`IsolationState`].
    pub fn new_isolated(
        env: Rc<KernelEnv>,
        gpu: RadeonGpu,
        version: DriverVersion,
        isolation: IsolationState,
    ) -> Self {
        RadeonDriver {
            env,
            gpu,
            info: RadeonInfo::default(),
            version,
            bos: BTreeMap::new(),
            next_handle: 1,
            tiling: BTreeMap::new(),
            va_map: BTreeMap::new(),
            global_vram: None,
            isolation: Some(isolation),
            global_gtt: None,
            lazy_vmas: Vec::new(),
            open_count: 0,
        }
    }

    /// The underlying GPU model (experiments inspect fences/engine time).
    pub fn gpu(&self) -> &RadeonGpu {
        &self.gpu
    }

    /// Mutable access to the GPU model (machine wiring).
    pub fn gpu_mut(&mut self) -> &mut RadeonGpu {
        &mut self.gpu
    }

    /// Live buffer objects (tests).
    pub fn bo_count(&self) -> usize {
        self.bos.len()
    }

    fn current_region(&self) -> Option<RegionId> {
        let guest = self.env.current_guest()?;
        self.env.region_of_guest(guest)
    }

    /// The data-isolation variant of "whenever the device needs to work with
    /// the data of one guest VM, the driver asks the hypervisor to switch to
    /// the corresponding memory region" (§4.2).
    fn ensure_region_active(&mut self) -> Result<(), Errno> {
        if self.isolation.is_none() {
            return Ok(());
        }
        let region = self.current_region().ok_or(Errno::Eperm)?;
        let active = {
            let hv = self.env.hv().borrow();
            hv.active_region(self.env.domain())
        };
        if active != Some(region) {
            self.env.switch_region(Some(region))?;
        }
        Ok(())
    }

    fn alloc_vram(&mut self, size: u64) -> Result<u64, Errno> {
        match (&mut self.global_vram, &mut self.isolation) {
            (Some(vram), _) => vram.alloc(size),
            (None, Some(isolation)) => {
                let region = self
                    .env
                    .current_guest()
                    .and_then(|guest| self.env.region_of_guest(guest))
                    .ok_or(Errno::Eperm)?;
                isolation.vram_for(region)?.alloc(size)
            }
            (None, None) => Err(Errno::Enodev),
        }
    }

    fn free_vram(&mut self, offset: u64) -> Result<(), Errno> {
        if let Some(vram) = &mut self.global_vram {
            return vram.free(offset);
        }
        if let Some(isolation) = &mut self.isolation {
            return isolation.free_vram(offset);
        }
        Err(Errno::Enodev)
    }

    fn alloc_gtt_pages(&mut self, pages: u64) -> Result<Vec<GuestPhysAddr>, Errno> {
        if let Some(isolation) = &mut self.isolation {
            let region = self
                .env
                .current_guest()
                .and_then(|guest| self.env.region_of_guest(guest))
                .ok_or(Errno::Eperm)?;
            return isolation.take_gtt_pages(region, pages as usize);
        }
        if self.global_gtt.is_none() {
            self.global_gtt = Some(crate::env::DmaPool::new(
                &self.env,
                GLOBAL_GTT_PAGES,
                paradice_mem::Access::RW,
                None,
            )?);
        }
        let pool = self.global_gtt.as_mut().expect("just created");
        (0..pages).map(|_| pool.take()).collect()
    }

    fn bo(&self, handle: u32) -> Result<&BufferObject, Errno> {
        self.bos.get(&handle).ok_or(Errno::Enoent)
    }

    /// Resolves a CS command into a device command, translating handles to
    /// addresses.
    fn resolve_command(&self, dwords: &[u32]) -> Result<GpuCommand, Errno> {
        match dwords[0] {
            opcode::RENDER => {
                let cost_us = u64::from(dwords[1]);
                let target = self.bo(dwords[2])?;
                let BoDomain::Vram { offset } = &target.domain else {
                    return Err(Errno::Einval);
                };
                Ok(GpuCommand::Render {
                    cost_ns: cost_us * 1_000,
                    target_offset: *offset,
                    target_len: target.size,
                })
            }
            opcode::COMPUTE => Ok(GpuCommand::Compute {
                order: u64::from(dwords[1]),
            }),
            opcode::UPLOAD => {
                let src = self.bo(dwords[1])?;
                let BoDomain::Gtt { pages } = &src.domain else {
                    return Err(Errno::Einval);
                };
                let dst = self.bo(dwords[2])?;
                let BoDomain::Vram { offset } = &dst.domain else {
                    return Err(Errno::Einval);
                };
                let len = u64::from(dwords[3]).min(src.size).min(dst.size);
                Ok(GpuCommand::Upload {
                    src: DmaAddr::new(pages.first().ok_or(Errno::Einval)?.raw()),
                    dst_offset: *offset,
                    len,
                })
            }
            _ => Err(Errno::Einval),
        }
    }

    /// The CS ioctl body: the nested-copy pattern. Copies the args struct,
    /// then the chunk headers (address from the struct), then each chunk's
    /// data (addresses and lengths from the headers).
    fn ioctl_cs(
        &mut self,
        _ctx: OpenContext,
        mem: &mut dyn MemOps,
        arg: u64,
    ) -> Result<i64, Errno> {
        self.ensure_region_active()?;
        let arg_ptr = GuestVirtAddr::new(arg);
        let mut args = [0u8; 16];
        mem.copy_from_user(arg_ptr, &mut args)?;
        let chunks_ptr = u64::from_le_bytes(args[0..8].try_into().expect("len 8"));
        let num_chunks = u32::from_le_bytes(args[8..12].try_into().expect("len 4"));
        if num_chunks == 0 || num_chunks > 16 {
            return Err(Errno::Einval);
        }

        let mut relocs: Vec<u32> = Vec::new();
        let mut commands: Vec<GpuCommand> = Vec::new();
        for i in 0..u64::from(num_chunks) {
            // Nested copy #1: the i-th chunk header, at an address taken
            // from the args struct.
            let mut header = [0u8; 16];
            mem.copy_from_user(GuestVirtAddr::new(chunks_ptr + i * 16), &mut header)?;
            let data_ptr = u64::from_le_bytes(header[0..8].try_into().expect("len 8"));
            let length_dw = u32::from_le_bytes(header[8..12].try_into().expect("len 4"));
            let kind = u32::from_le_bytes(header[12..16].try_into().expect("len 4"));
            if length_dw == 0 || length_dw > 16_384 {
                return Err(Errno::Einval);
            }
            // Nested copy #2: the chunk's payload, whose address and length
            // came from the header just copied.
            let mut data = vec![0u8; length_dw as usize * 4];
            mem.copy_from_user(GuestVirtAddr::new(data_ptr), &mut data)?;
            let dwords: Vec<u32> = data
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("len 4")))
                .collect();
            match kind {
                chunk::IB => {
                    if !dwords.len().is_multiple_of(IB_CMD_DWORDS) {
                        return Err(Errno::Einval);
                    }
                    for cmd in dwords.chunks_exact(IB_CMD_DWORDS) {
                        commands.push(self.resolve_command(cmd)?);
                    }
                }
                chunk::RELOCS => relocs.extend_from_slice(&dwords),
                _ => return Err(Errno::Einval),
            }
        }
        // Validate relocations: every referenced handle must exist.
        for &handle in &relocs {
            self.bo(handle)?;
        }
        let mut fence = 0u64;
        for command in commands {
            fence = self.gpu.submit(command)?;
        }
        // Return the fence in the args struct (IOWR: copy back).
        args[12..16].copy_from_slice(&(fence as u32).to_le_bytes());
        mem.copy_to_user(arg_ptr, &args)?;
        Ok(0)
    }

    /// `GEM_PWRITE` (`write`) or `GEM_PREAD`: a nested copy whose payload
    /// address and length come from the args struct. The payload crosses
    /// once, straight between the process and the object — a VRAM object's
    /// range behind the BAR or a GTT object's pages — in every mode; under
    /// data isolation the hypervisor makes that copy into the caller's own
    /// region, which the driver never reads (§4.2).
    fn ioctl_transfer(
        &mut self,
        mem: &mut dyn MemOps,
        arg: u64,
        write: bool,
    ) -> Result<i64, Errno> {
        let mut args = [0u8; 32];
        mem.copy_from_user(GuestVirtAddr::new(arg), &mut args)?;
        let handle = u32::from_le_bytes(args[0..4].try_into().expect("len 4"));
        let offset = u64::from_le_bytes(args[8..16].try_into().expect("len 8"));
        let size = u64::from_le_bytes(args[16..24].try_into().expect("len 8"));
        let data_ptr = u64::from_le_bytes(args[24..32].try_into().expect("len 8"));
        if size > 16 * 1024 * 1024 {
            return Err(Errno::Einval);
        }
        let bo = self.bo(handle)?;
        if offset.checked_add(size).is_none_or(|end| end > bo.size) {
            return Err(Errno::Einval);
        }
        let span = match &bo.domain {
            BoDomain::Vram { offset: vram_off } => {
                DriverSpan::Contiguous(self.gpu.bar_base().add(vram_off + offset))
            }
            BoDomain::Gtt { pages } => DriverSpan::Pages { pages, offset },
        };
        let data_ptr = GuestVirtAddr::new(data_ptr);
        match write {
            true => mem.copy_from_user_to_phys(data_ptr, span, size)?,
            false => mem.copy_to_user_from_phys(data_ptr, span, size)?,
        }
        Ok(0)
    }

    /// The driver-physical page number backing page `index` of a buffer
    /// object (VRAM pages live behind the BAR; GTT pages are pool pages).
    fn bo_pfn(&self, bo: &BufferObject, index: u64) -> Result<u64, Errno> {
        if index >= bo.pages() {
            return Err(Errno::Einval);
        }
        match &bo.domain {
            BoDomain::Vram { offset } => {
                Ok((self.gpu.bar_base().raw() + offset) / PAGE_SIZE + index)
            }
            BoDomain::Gtt { pages } => Ok(pages
                .get(index as usize)
                .ok_or(Errno::Einval)?
                .page_number()),
        }
    }
}

impl FileOps for RadeonDriver {
    fn open(&mut self, _ctx: OpenContext) -> Result<(), Errno> {
        // The DRM node is multi-open (GPUs are shared, §3.2.3).
        self.open_count += 1;
        Ok(())
    }

    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        self.open_count = self.open_count.saturating_sub(1);
        // Free buffer objects owned by the departing task.
        let doomed: Vec<u32> = self
            .bos
            .iter()
            .filter(|(_, bo)| bo.owner == ctx.task)
            .map(|(&handle, _)| handle)
            .collect();
        for handle in doomed {
            if let Some(bo) = self.bos.remove(&handle) {
                if let BoDomain::Vram { offset } = bo.domain {
                    let _ = self.free_vram(offset);
                }
            }
            self.tiling.remove(&handle);
            self.va_map.remove(&handle);
        }
        self.lazy_vmas.retain(|(task, ..)| *task != ctx.task);
        Ok(())
    }

    fn ioctl(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<i64, Errno> {
        let arg_ptr = GuestVirtAddr::new(arg);
        match cmd {
            RADEON_INFO => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let request = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let value: u64 = match request {
                    info::DEVICE_ID => u64::from(self.info.device_id),
                    info::VRAM_SIZE => self.gpu.vram_bytes(),
                    info::FAMILY => u64::from(self.info.family),
                    _ => return Err(Errno::Einval),
                };
                req[8..16].copy_from_slice(&value.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            RADEON_GEM_CREATE => {
                let mut req = [0u8; 24];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let size = u64::from_le_bytes(req[0..8].try_into().expect("len 8"));
                let domain_code = u32::from_le_bytes(req[8..12].try_into().expect("len 4"));
                let flags = u32::from_le_bytes(req[12..16].try_into().expect("len 4"));
                if size == 0 || size > 256 * 1024 * 1024 {
                    return Err(Errno::Einval);
                }
                let domain = match domain_code {
                    gem_domain::VRAM => BoDomain::Vram {
                        offset: self.alloc_vram(size)?,
                    },
                    gem_domain::GTT => BoDomain::Gtt {
                        pages: self.alloc_gtt_pages(size.div_ceil(PAGE_SIZE))?,
                    },
                    _ => return Err(Errno::Einval),
                };
                let handle = self.next_handle;
                self.next_handle += 1;
                self.bos.insert(
                    handle,
                    BufferObject {
                        handle,
                        size: size.div_ceil(PAGE_SIZE) * PAGE_SIZE,
                        domain,
                        owner: ctx.task,
                        lazy: flags & GEM_CREATE_LAZY_MAP != 0,
                    },
                );
                req[16..20].copy_from_slice(&handle.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            RADEON_GEM_MMAP => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                // The fake mmap offset: handle-indexed 256-MiB spans.
                let offset = u64::from(handle) << 28;
                req[8..16].copy_from_slice(&offset.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            RADEON_GEM_PREAD => self.ioctl_transfer(mem, arg, false),
            RADEON_GEM_PWRITE => self.ioctl_transfer(mem, arg, true),
            RADEON_CS => self.ioctl_cs(ctx, mem, arg),
            RADEON_GEM_WAIT_IDLE => {
                let mut req = [0u8; 8];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                self.gpu.wait_idle();
                Ok(0)
            }
            GEM_CLOSE => {
                let mut req = [0u8; 8];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let bo = self.bos.remove(&handle).ok_or(Errno::Enoent)?;
                if let BoDomain::Vram { offset } = bo.domain {
                    self.free_vram(offset)?;
                }
                self.tiling.remove(&handle);
                self.va_map.remove(&handle);
                Ok(0)
            }
            RADEON_SET_VSYNC => {
                if self.isolation.is_some() {
                    // Hardware VSync interrupts are lost under data
                    // isolation (§5.3); the machine layer may install the
                    // software emulation instead.
                    return Err(Errno::Enotsup);
                }
                let enabled = mem.read_user_u32(arg_ptr)?;
                self.gpu.set_vsync(enabled != 0);
                Ok(0)
            }
            RADEON_GEM_BUSY if self.version == DriverVersion::V3_2_0 => {
                let mut req = [0u8; 8];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                let _ = self.gpu.process_completions();
                let busy = u32::from(self.gpu.completed_fence() < self.gpu.issued_fence());
                req[4..8].copy_from_slice(&busy.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            RADEON_GEM_SET_TILING if self.version == DriverVersion::V3_2_0 => {
                let mut req = [0u8; 12];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                let tiling = u32::from_le_bytes(req[4..8].try_into().expect("len 4"));
                let pitch = u32::from_le_bytes(req[8..12].try_into().expect("len 4"));
                self.tiling.insert(handle, (tiling, pitch));
                Ok(0)
            }
            RADEON_GEM_GET_TILING if self.version == DriverVersion::V3_2_0 => {
                let mut req = [0u8; 12];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let (tiling, pitch) = self.tiling.get(&handle).copied().unwrap_or((0, 0));
                req[4..8].copy_from_slice(&tiling.to_le_bytes());
                req[8..12].copy_from_slice(&pitch.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            RADEON_GEM_VA if self.version == DriverVersion::V3_2_0 => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                let op = u32::from_le_bytes(req[4..8].try_into().expect("len 4"));
                let va = u64::from_le_bytes(req[8..16].try_into().expect("len 8"));
                match op {
                    1 => {
                        self.va_map.insert(handle, va);
                    }
                    2 => {
                        self.va_map.remove(&handle);
                    }
                    _ => return Err(Errno::Einval),
                }
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            _ => Err(Errno::Enotty),
        }
    }

    fn mmap(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        range: MmapRange,
    ) -> Result<(), Errno> {
        let handle = (range.offset >> 28) as u32;
        let bo = self.bo(handle)?.clone();
        let pages_needed = range.len.div_ceil(PAGE_SIZE);
        if pages_needed > bo.pages() {
            return Err(Errno::Einval);
        }
        if bo.lazy {
            // Fault-driven population: record the VMA; pages arrive one at
            // a time through `fault` (§2.1's "supporting page fault
            // handler").
            self.lazy_vmas.push((ctx.task, range.va, range.len, handle));
            return Ok(());
        }
        for i in 0..pages_needed {
            let pfn = self.bo_pfn(&bo, i)?;
            mem.insert_pfn(range.va.add(i * PAGE_SIZE), pfn, range.access)?;
        }
        Ok(())
    }

    fn fault(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        va: GuestVirtAddr,
    ) -> Result<(), Errno> {
        let (vma_va, handle) = self
            .lazy_vmas
            .iter()
            .find(|(task, start, len, _)| {
                *task == ctx.task && va.raw() >= start.raw() && va.raw() < start.raw() + len
            })
            .map(|(_, start, _, handle)| (*start, *handle))
            .ok_or(Errno::Efault)?;
        let bo = self.bo(handle)?.clone();
        let page_index = (va.raw() - vma_va.raw()) / PAGE_SIZE;
        let pfn = self.bo_pfn(&bo, page_index)?;
        mem.insert_pfn(va.page_base(), pfn, paradice_mem::Access::RW)
    }

    fn munmap(
        &mut self,
        _ctx: OpenContext,
        mem: &mut dyn MemOps,
        va: GuestVirtAddr,
        len: u64,
    ) -> Result<(), Errno> {
        for i in 0..len.div_ceil(PAGE_SIZE) {
            mem.zap_pfn(va.add(i * PAGE_SIZE))?;
        }
        Ok(())
    }

    fn poll(&mut self, _ctx: OpenContext) -> Result<PollEvents, Errno> {
        let _ = self.gpu.process_completions();
        Ok(
            if self.gpu.completed_fence() == self.gpu.issued_fence() {
                PollEvents::IN | PollEvents::OUT
            } else {
                PollEvents::OUT
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::fileops::{OpenFlags, TaskId};
    use paradice_devfs::memops::BufferMemOps;
    use paradice_devfs::registry::FileHandleId;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SharedHypervisor, SimClock};
    use std::cell::RefCell;
    use std::rc::Rc;

    const VRAM_PAGES: u64 = 256;

    fn native_driver() -> RadeonDriver {
        let mut hv = Hypervisor::new(16384, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 1024 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let bar = hv.map_device_bar(domain, VRAM_PAGES).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        let gpu = RadeonGpu::new(env.clone(), bar, VRAM_PAGES * PAGE_SIZE);
        RadeonDriver::new(env, gpu, DriverVersion::V3_2_0)
    }

    fn isolated_driver() -> (RadeonDriver, Vec<paradice_hypervisor::VmId>, SharedHypervisor) {
        let mut hv = Hypervisor::new(16384, SimClock::new(), CostModel::default());
        let g1 = hv.create_vm(VmRole::Guest, 8 * PAGE_SIZE).unwrap();
        let g2 = hv.create_vm(VmRole::Guest, 8 * PAGE_SIZE).unwrap();
        let vm = hv.create_vm(VmRole::Driver, 1024 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Enabled).unwrap();
        let bar = hv.map_device_bar(domain, VRAM_PAGES).unwrap();
        let shared = Rc::new(RefCell::new(hv));
        let env = KernelEnv::new(shared.clone(), vm, domain, true);
        let gpu = RadeonGpu::new(env.clone(), bar, VRAM_PAGES * PAGE_SIZE);
        let isolation =
            crate::gpu::isolation::IsolationState::setup(&env, &gpu, &[g1, g2], 16).unwrap();
        let driver = RadeonDriver::new_isolated(env, gpu, DriverVersion::V3_2_0, isolation);
        (driver, vec![g1, g2], shared)
    }

    fn ctx(task: u64) -> OpenContext {
        OpenContext {
            handle: FileHandleId(task),
            task: TaskId(task),
            flags: OpenFlags::RDWR,
        }
    }

    fn gem_create(
        drv: &mut RadeonDriver,
        mem: &mut BufferMemOps,
        task: u64,
        size: u64,
        domain: u32,
    ) -> Result<u32, Errno> {
        let mut req = [0u8; 24];
        req[0..8].copy_from_slice(&size.to_le_bytes());
        req[8..12].copy_from_slice(&domain.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &req).unwrap();
        drv.ioctl(ctx(task), mem, RADEON_GEM_CREATE, 0)?;
        Ok(mem.read_user_u32(GuestVirtAddr::new(16)).unwrap())
    }

    /// Builds a CS submission at user address 0x400: args at 0x400, one
    /// chunk header at 0x500, IB payload at 0x600.
    fn submit_cs(
        drv: &mut RadeonDriver,
        mem: &mut BufferMemOps,
        task: u64,
        dwords: &[u32],
    ) -> Result<u32, Errno> {
        let mut payload = Vec::new();
        for d in dwords {
            payload.extend_from_slice(&d.to_le_bytes());
        }
        mem.copy_to_user(GuestVirtAddr::new(0x600), &payload).unwrap();
        let mut header = [0u8; 16];
        header[0..8].copy_from_slice(&0x600u64.to_le_bytes());
        header[8..12].copy_from_slice(&(dwords.len() as u32).to_le_bytes());
        header[12..16].copy_from_slice(&chunk::IB.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x500), &header).unwrap();
        let mut args = [0u8; 16];
        args[0..8].copy_from_slice(&0x500u64.to_le_bytes());
        args[8..12].copy_from_slice(&1u32.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x400), &args).unwrap();
        drv.ioctl(ctx(task), mem, RADEON_CS, 0x400)?;
        Ok(mem.read_user_u32(GuestVirtAddr::new(0x40c)).unwrap())
    }

    #[test]
    fn info_reports_identity() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(4096);
        for (request, expected) in [
            (info::DEVICE_ID, 0x6779u64),
            (info::VRAM_SIZE, VRAM_PAGES * PAGE_SIZE),
            (info::FAMILY, 0x45),
        ] {
            mem.write_user_u32(GuestVirtAddr::new(0), request).unwrap();
            drv.ioctl(ctx(1), &mut mem, RADEON_INFO, 0).unwrap();
            assert_eq!(mem.read_user_u64(GuestVirtAddr::new(8)).unwrap(), expected);
        }
    }

    #[test]
    fn gem_lifecycle_vram_and_gtt() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(4096);
        let vram_bo = gem_create(&mut drv, &mut mem, 1, 8192, gem_domain::VRAM).unwrap();
        let gtt_bo = gem_create(&mut drv, &mut mem, 1, 4096, gem_domain::GTT).unwrap();
        assert_ne!(vram_bo, gtt_bo);
        assert_eq!(drv.bo_count(), 2);
        // Close frees VRAM for reuse.
        let mut req = [0u8; 8];
        req[0..4].copy_from_slice(&vram_bo.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(64), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, GEM_CLOSE, 64).unwrap();
        assert_eq!(drv.bo_count(), 1);
        // Double close is ENOENT.
        assert_eq!(drv.ioctl(ctx(1), &mut mem, GEM_CLOSE, 64), Err(Errno::Enoent));
    }

    #[test]
    fn gem_mmap_installs_pages() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(4096);
        let bo = gem_create(&mut drv, &mut mem, 1, 2 * PAGE_SIZE, gem_domain::VRAM).unwrap();
        let mut req = [0u8; 16];
        req[0..4].copy_from_slice(&bo.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(32), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, RADEON_GEM_MMAP, 32).unwrap();
        let offset = mem.read_user_u64(GuestVirtAddr::new(40)).unwrap();
        assert_eq!(offset, u64::from(bo) << 28);
        drv.mmap(
            ctx(1),
            &mut mem,
            MmapRange {
                va: GuestVirtAddr::new(0x10_0000),
                len: 2 * PAGE_SIZE,
                offset,
                access: paradice_mem::Access::RW,
            },
        )
        .unwrap();
        assert_eq!(mem.mappings().len(), 2);
    }

    #[test]
    fn cs_render_and_wait() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(8192);
        let fb = gem_create(&mut drv, &mut mem, 1, 16 * PAGE_SIZE, gem_domain::VRAM).unwrap();
        let t0 = drv.env.now_ns();
        let fence = submit_cs(&mut drv, &mut mem, 1, &[opcode::RENDER, 5_000, fb, 0, 0, 0])
            .unwrap();
        assert_eq!(fence, 1);
        // Wait idle advances the clock by the render cost (5 ms).
        let mut req = [0u8; 8];
        req[0..4].copy_from_slice(&fb.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x700), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, RADEON_GEM_WAIT_IDLE, 0x700).unwrap();
        assert_eq!(drv.env.now_ns() - t0, 5_000_000);
    }

    #[test]
    fn cs_compute_cost_is_cubic() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(8192);
        let bo = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        let t0 = drv.env.now_ns();
        submit_cs(&mut drv, &mut mem, 1, &[opcode::COMPUTE, 200, 0, 0, 0, 0]).unwrap();
        let mut req = [0u8; 8];
        req[0..4].copy_from_slice(&bo.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x700), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, RADEON_GEM_WAIT_IDLE, 0x700).unwrap();
        assert_eq!(
            drv.env.now_ns() - t0,
            200 * 200 * 200 * crate::gpu::model::COMPUTE_NS_PER_ELEMENT_OP
        );
    }

    #[test]
    fn cs_rejects_malformed_chunks() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(8192);
        // Zero chunks.
        let mut args = [0u8; 16];
        mem.copy_to_user(GuestVirtAddr::new(0x400), &args).unwrap();
        assert_eq!(drv.ioctl(ctx(1), &mut mem, RADEON_CS, 0x400), Err(Errno::Einval));
        // Bad opcode.
        assert_eq!(
            submit_cs(&mut drv, &mut mem, 1, &[99, 0, 0, 0, 0, 0]),
            Err(Errno::Einval)
        );
        // Ragged IB (not a multiple of 6 dwords).
        assert_eq!(
            submit_cs(&mut drv, &mut mem, 1, &[opcode::COMPUTE, 10, 0, 0]),
            Err(Errno::Einval)
        );
        args[8..12].copy_from_slice(&17u32.to_le_bytes()); // too many chunks
        mem.copy_to_user(GuestVirtAddr::new(0x400), &args).unwrap();
        assert_eq!(drv.ioctl(ctx(1), &mut mem, RADEON_CS, 0x400), Err(Errno::Einval));
    }

    #[test]
    fn pwrite_then_pread_roundtrip_native() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(16384).with_driver_memory(drv.env.clone());
        for domain in [gem_domain::VRAM, gem_domain::GTT] {
            let bo = gem_create(&mut drv, &mut mem, 1, 2 * PAGE_SIZE, domain).unwrap();
            // Data at user 0x2000, written across the object's page edge.
            mem.copy_to_user(GuestVirtAddr::new(0x2000), b"texels!!").unwrap();
            let mut args = [0u8; 32];
            args[0..4].copy_from_slice(&bo.to_le_bytes());
            args[8..16].copy_from_slice(&(PAGE_SIZE - 3).to_le_bytes()); // offset
            args[16..24].copy_from_slice(&8u64.to_le_bytes()); // size
            args[24..32].copy_from_slice(&0x2000u64.to_le_bytes());
            mem.copy_to_user(GuestVirtAddr::new(0x100), &args).unwrap();
            drv.ioctl(ctx(1), &mut mem, RADEON_GEM_PWRITE, 0x100).unwrap();
            // Read back to user 0x3000.
            args[24..32].copy_from_slice(&0x3000u64.to_le_bytes());
            mem.copy_to_user(GuestVirtAddr::new(0x100), &args).unwrap();
            drv.ioctl(ctx(1), &mut mem, RADEON_GEM_PREAD, 0x100).unwrap();
            let mut back = [0u8; 8];
            mem.copy_from_user(GuestVirtAddr::new(0x3000), &mut back).unwrap();
            assert_eq!(&back, b"texels!!", "domain {domain}");
        }
    }

    /// Stages `{bo, offset, size, data_ptr}` at user 0x100 and issues `cmd`.
    fn transfer(
        drv: &mut RadeonDriver,
        mem: &mut BufferMemOps,
        cmd: IoctlCmd,
        bo: u32,
        size: u64,
        data_ptr: u64,
    ) -> Result<i64, Errno> {
        let mut args = [0u8; 32];
        args[0..4].copy_from_slice(&bo.to_le_bytes());
        args[16..24].copy_from_slice(&size.to_le_bytes());
        args[24..32].copy_from_slice(&data_ptr.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x100), &args).unwrap();
        drv.ioctl(ctx(1), mem, cmd, 0x100)
    }

    /// A 4-KiB object holding 0x33 and a 16-KiB one just written with 0xaa;
    /// user memory is 64 KiB.
    fn staged_pair() -> (RadeonDriver, BufferMemOps, u32, u32) {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(0x10000).with_driver_memory(drv.env.clone());
        let small = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        let big = gem_create(&mut drv, &mut mem, 1, 4 * PAGE_SIZE, gem_domain::VRAM).unwrap();
        mem.copy_to_user(GuestVirtAddr::new(0x1000), &[0x33; 4096]).unwrap();
        transfer(&mut drv, &mut mem, RADEON_GEM_PWRITE, small, 4096, 0x1000).unwrap();
        mem.copy_to_user(GuestVirtAddr::new(0x1000), &[0xaa; 16384]).unwrap();
        transfer(&mut drv, &mut mem, RADEON_GEM_PWRITE, big, 16384, 0x1000).unwrap();
        (drv, mem, small, big)
    }

    #[test]
    fn a_short_pread_after_a_long_pwrite_returns_only_the_objects_bytes() {
        let (mut drv, mut mem, small, _) = staged_pair();
        mem.copy_to_user(GuestVirtAddr::new(0x8000), &[0x77; 16384]).unwrap();
        transfer(&mut drv, &mut mem, RADEON_GEM_PREAD, small, 4096, 0x8000).unwrap();
        let landed = &mem.bytes()[0x8000..0x8000 + 16384];
        assert!(landed[..4096].iter().all(|&b| b == 0x33), "the object's bytes");
        assert!(landed[4096..].iter().all(|&b| b == 0x77), "no stale staged tail");
    }

    #[test]
    fn a_pwrite_whose_payload_faults_leaves_vram_untouched() {
        let (mut drv, mut mem, small, _) = staged_pair();
        // The payload runs past the end of user memory: none of it, and
        // none of the earlier 0xaa transfer, may reach the object.
        assert_eq!(
            transfer(&mut drv, &mut mem, RADEON_GEM_PWRITE, small, 4096, 0xf800),
            Err(Errno::Efault)
        );
        transfer(&mut drv, &mut mem, RADEON_GEM_PREAD, small, 4096, 0x8000).unwrap();
        assert!(mem.bytes()[0x8000..0x9000].iter().all(|&b| b == 0x33));
    }

    #[test]
    fn v2_6_35_lacks_new_commands() {
        let mut hv = Hypervisor::new(16384, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 1024 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let bar = hv.map_device_bar(domain, VRAM_PAGES).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        let gpu = RadeonGpu::new(env.clone(), bar, VRAM_PAGES * PAGE_SIZE);
        let mut drv = RadeonDriver::new(env, gpu, DriverVersion::V2_6_35);
        let mut mem = BufferMemOps::new(4096);
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, RADEON_GEM_BUSY, 0),
            Err(Errno::Enotty)
        );
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, RADEON_GEM_VA, 0),
            Err(Errno::Enotty)
        );
    }

    #[test]
    fn tiling_roundtrip() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(4096);
        let bo = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        let mut req = [0u8; 12];
        req[0..4].copy_from_slice(&bo.to_le_bytes());
        req[4..8].copy_from_slice(&2u32.to_le_bytes());
        req[8..12].copy_from_slice(&512u32.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, RADEON_GEM_SET_TILING, 0).unwrap();
        // Clear the user struct and read back.
        let mut query = [0u8; 12];
        query[0..4].copy_from_slice(&bo.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &query).unwrap();
        drv.ioctl(ctx(1), &mut mem, RADEON_GEM_GET_TILING, 0).unwrap();
        assert_eq!(mem.read_user_u32(GuestVirtAddr::new(4)).unwrap(), 2);
        assert_eq!(mem.read_user_u32(GuestVirtAddr::new(8)).unwrap(), 512);
    }

    #[test]
    fn release_frees_task_objects() {
        let mut drv = native_driver();
        let mut mem = BufferMemOps::new(4096);
        gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        gem_create(&mut drv, &mut mem, 2, PAGE_SIZE, gem_domain::VRAM).unwrap();
        drv.release(ctx(1)).unwrap();
        assert_eq!(drv.bo_count(), 1);
    }

    #[test]
    fn isolated_alloc_requires_guest_context() {
        let (mut drv, guests, _hv) = isolated_driver();
        let mut mem = BufferMemOps::new(4096);
        // No guest mark: EPERM.
        assert_eq!(
            gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM),
            Err(Errno::Eperm)
        );
        // Marked as guest 1: allocation lands in its region's VRAM slice.
        drv.env.set_current_guest(Some(guests[0]));
        let bo = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        let BoDomain::Vram { offset } = drv.bo(bo).unwrap().domain else {
            panic!("expected VRAM bo");
        };
        let half = VRAM_PAGES * PAGE_SIZE / 2;
        assert!(offset < half, "guest 1 allocates in the lower half");
        drv.env.set_current_guest(Some(guests[1]));
        let bo2 = gem_create(&mut drv, &mut mem, 2, PAGE_SIZE, gem_domain::VRAM).unwrap();
        let BoDomain::Vram { offset: offset2 } = drv.bo(bo2).unwrap().domain else {
            panic!("expected VRAM bo");
        };
        assert!(offset2 >= half, "guest 2 allocates in the upper half");
    }

    #[test]
    fn an_isolated_transfer_is_left_to_the_hypervisor() {
        // Under isolation a transfer names the object's protected pages;
        // the driver's own CPU may not touch them, so a binding that copies
        // through the driver's memory accesses is refused either way, moves
        // nothing and switches no region. Under Paradice the hypervisor
        // makes the copy (`tests/isolation.rs`).
        let (mut drv, guests, hv) = isolated_driver();
        let mut mem = BufferMemOps::new(16384).with_driver_memory(drv.env.clone());
        drv.env.set_current_guest(Some(guests[0]));
        let driver_vm = drv.env.vm();
        for domain in [gem_domain::VRAM, gem_domain::GTT] {
            let bo = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, domain).unwrap();
            mem.copy_to_user(GuestVirtAddr::new(0x2000), b"isolated").unwrap();
            for cmd in [RADEON_GEM_PWRITE, RADEON_GEM_PREAD] {
                let target = if cmd == RADEON_GEM_PWRITE { 0x2000 } else { 0x3000 };
                assert_eq!(transfer(&mut drv, &mut mem, cmd, bo, 8, target), Err(Errno::Efault));
            }
            assert_eq!(&mem.bytes()[0x3000..0x3008], &[0; 8], "domain {domain}");
            let gpa = GuestPhysAddr::new(drv.bo_pfn(drv.bo(bo).unwrap(), 0).unwrap() * PAGE_SIZE);
            let mut probe = [0u8; 8];
            hv.borrow_mut().gpa_read_privileged(driver_vm, gpa, &mut probe).unwrap();
            assert_eq!(probe, [0; 8], "domain {domain}: nothing landed");
        }
        assert_eq!(hv.borrow().active_region(drv.env.domain()), None);
    }

    #[test]
    fn isolated_cs_switches_region() {
        let (mut drv, guests, hv) = isolated_driver();
        let mut mem = BufferMemOps::new(16384);
        drv.env.set_current_guest(Some(guests[0]));
        let fb1 = gem_create(&mut drv, &mut mem, 1, PAGE_SIZE, gem_domain::VRAM).unwrap();
        submit_cs(&mut drv, &mut mem, 1, &[opcode::RENDER, 100, fb1, 0, 0, 0]).unwrap();
        let r1 = drv.env.region_of_guest(guests[0]).unwrap();
        assert_eq!(hv.borrow().active_region(drv.env.domain()), Some(r1));
        // Guest 2 renders: region switches, and its framebuffer is in its
        // own aperture.
        drv.gpu_mut().wait_idle();
        drv.env.set_current_guest(Some(guests[1]));
        let fb2 = gem_create(&mut drv, &mut mem, 2, PAGE_SIZE, gem_domain::VRAM).unwrap();
        submit_cs(&mut drv, &mut mem, 2, &[opcode::RENDER, 100, fb2, 0, 0, 0]).unwrap();
        let r2 = drv.env.region_of_guest(guests[1]).unwrap();
        assert_eq!(hv.borrow().active_region(drv.env.domain()), Some(r2));
        // Rendering to guest 1's framebuffer while guest 2's region is
        // active violates the aperture.
        drv.gpu_mut().wait_idle();
        assert_eq!(
            submit_cs(&mut drv, &mut mem, 2, &[opcode::RENDER, 100, fb1, 0, 0, 0]),
            Err(Errno::Eio)
        );
    }

    #[test]
    fn isolated_vsync_ioctl_refused() {
        let (mut drv, guests, _hv) = isolated_driver();
        let mut mem = BufferMemOps::new(4096);
        drv.env.set_current_guest(Some(guests[0]));
        mem.write_user_u32(GuestVirtAddr::new(0), 1).unwrap();
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, RADEON_SET_VSYNC, 0),
            Err(Errno::Enotsup)
        );
    }
}
