//! The DRM/i915 device driver: a second GPU make behind the same CVD.
//!
//! Table 1 lists an "Int. Intel Mobile GM965/GL960" driven by DRM/i915 —
//! the paper's point being that the device-file boundary virtualizes "GPUs
//! of various makes and models with full functionality" without any
//! class-specific paravirtual driver work. This driver shares *nothing*
//! driver-level with the Radeon one: different ioctl numbers, different
//! struct layouts, a different submission model (`EXECBUFFER2` with an
//! exec-object list instead of CS chunk lists), and a UMA memory model
//! (one "GTT aperture" arena instead of VRAM/GTT domains). What it *does*
//! share is the engine/fence model underneath — faithful to reality, where
//! both drivers program very different hardware through the same kernel
//! abstractions.

use std::collections::BTreeMap;

use paradice_devfs::fileops::{FileOps, MmapRange, OpenContext, PollEvents, TaskId};
use paradice_devfs::ioc::{iow, iowr, IoctlCmd};
use paradice_devfs::{DriverSpan, Errno, MemOps};
use paradice_mem::{GuestVirtAddr, PAGE_SIZE};

use crate::gpu::bo::VramAllocator;
use crate::gpu::model::{GpuCommand, RadeonGpu as GpuEngine};

/// `DRM_IOCTL_I915_GETPARAM`: `{u32 param, u32 pad, u64 value}`.
pub const I915_GETPARAM: IoctlCmd = iowr(b'd', 0x46, 16);
/// `DRM_IOCTL_I915_GEM_CREATE`: `{u64 size, u32 handle, u32 pad}`.
pub const I915_GEM_CREATE: IoctlCmd = iowr(b'd', 0x5b, 16);
/// `DRM_IOCTL_I915_GEM_PWRITE`: `{u32 handle, u32 pad, u64 offset, u64 size, u64 data_ptr}`.
pub const I915_GEM_PWRITE: IoctlCmd = iow(b'd', 0x5d, 32);
/// `DRM_IOCTL_I915_GEM_MMAP_GTT`: `{u32 handle, u32 pad, u64 offset}`.
pub const I915_GEM_MMAP_GTT: IoctlCmd = iowr(b'd', 0x64, 16);
/// `DRM_IOCTL_I915_GEM_EXECBUFFER2`:
/// `{u64 buffers_ptr, u32 buffer_count, u32 batch_dw, u64 batch_ptr}`.
pub const I915_GEM_EXECBUFFER2: IoctlCmd = iow(b'd', 0x69, 24);
/// `DRM_IOCTL_I915_GEM_BUSY`: `{u32 handle, u32 busy}`.
pub const I915_GEM_BUSY: IoctlCmd = iowr(b'd', 0x57, 8);
/// `DRM_IOCTL_I915_GEM_WAIT`: `{u32 handle, u32 pad, u64 timeout}`.
pub const I915_GEM_WAIT: IoctlCmd = iow(b'd', 0x6c, 16);
/// `DRM_IOCTL_GEM_CLOSE` (generic DRM): `{u32 handle, u32 pad}`.
pub const I915_GEM_CLOSE: IoctlCmd = iow(b'd', 0x09, 8);

/// `GETPARAM` parameter codes.
pub mod param {
    /// PCI chipset id (0x2a02 = GM965).
    pub const CHIPSET_ID: u32 = 4;
    /// Aperture size in bytes.
    pub const APERTURE_SIZE: u32 = 998;
    /// Whether the GPU supports execbuffer2 (always 1 here).
    pub const HAS_EXECBUF2: u32 = 30;
}

/// Batch-buffer opcodes (same encoding scheme as the Radeon IB in this
/// simulation: 6 dwords per command).
pub mod batch_op {
    /// `p0` = engine cost in µs, `p1` = render-target handle.
    pub const RENDER: u32 = 1;
    /// `p0` = matrix order.
    pub const COMPUTE: u32 = 2;
}

/// One exec object entry on the wire: `{u32 handle, u32 pad, u64 offset}`.
pub const EXEC_OBJECT_BYTES: u64 = 16;

#[derive(Debug, Clone)]
struct I915Bo {
    size: u64,
    /// Offset in the GTT aperture (UMA: one arena for everything).
    offset: u64,
    owner: TaskId,
}

/// The DRM/i915 driver.
pub struct I915Driver {
    gpu: GpuEngine,
    bos: BTreeMap<u32, I915Bo>,
    next_handle: u32,
    aperture: VramAllocator,
}

impl std::fmt::Debug for I915Driver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("I915Driver")
            .field("bos", &self.bos.len())
            .finish()
    }
}

impl I915Driver {
    /// Creates the driver atop an initialized engine (the GM965's "stolen
    /// memory" aperture is the engine's device memory).
    pub fn new(gpu: GpuEngine) -> Self {
        let aperture = VramAllocator::new(0, gpu.vram_bytes());
        I915Driver {
            gpu,
            bos: BTreeMap::new(),
            next_handle: 1,
            aperture,
        }
    }

    /// Live buffer objects.
    pub fn bo_count(&self) -> usize {
        self.bos.len()
    }

    fn bo(&self, handle: u32) -> Result<&I915Bo, Errno> {
        self.bos.get(&handle).ok_or(Errno::Enoent)
    }

    fn resolve_batch_command(&self, dwords: &[u32]) -> Result<GpuCommand, Errno> {
        match dwords[0] {
            batch_op::RENDER => {
                let target = self.bo(dwords[2])?;
                Ok(GpuCommand::Render {
                    cost_ns: u64::from(dwords[1]) * 1_000,
                    target_offset: target.offset,
                    target_len: target.size,
                })
            }
            batch_op::COMPUTE => Ok(GpuCommand::Compute {
                order: u64::from(dwords[1]),
            }),
            _ => Err(Errno::Einval),
        }
    }
}

impl FileOps for I915Driver {
    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        let doomed: Vec<u32> = self
            .bos
            .iter()
            .filter(|(_, bo)| bo.owner == ctx.task)
            .map(|(&handle, _)| handle)
            .collect();
        for handle in doomed {
            if let Some(bo) = self.bos.remove(&handle) {
                let _ = self.aperture.free(bo.offset);
            }
        }
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
            I915_GETPARAM => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let code = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let value: u64 = match code {
                    param::CHIPSET_ID => 0x2a02,
                    param::APERTURE_SIZE => self.gpu.vram_bytes(),
                    param::HAS_EXECBUF2 => 1,
                    _ => return Err(Errno::Einval),
                };
                req[8..16].copy_from_slice(&value.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            I915_GEM_CREATE => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let size = u64::from_le_bytes(req[0..8].try_into().expect("len 8"));
                if size == 0 || size > 128 * 1024 * 1024 {
                    return Err(Errno::Einval);
                }
                let offset = self.aperture.alloc(size)?;
                let handle = self.next_handle;
                self.next_handle += 1;
                self.bos.insert(
                    handle,
                    I915Bo {
                        size: size.div_ceil(PAGE_SIZE) * PAGE_SIZE,
                        offset,
                        owner: ctx.task,
                    },
                );
                req[8..12].copy_from_slice(&handle.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            I915_GEM_MMAP_GTT => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                let offset = u64::from(handle) << 28;
                req[8..16].copy_from_slice(&offset.to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            I915_GEM_PWRITE => {
                let mut req = [0u8; 32];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let offset = u64::from_le_bytes(req[8..16].try_into().expect("len 8"));
                let size = u64::from_le_bytes(req[16..24].try_into().expect("len 8"));
                let data_ptr = u64::from_le_bytes(req[24..32].try_into().expect("len 8"));
                let bo = self.bo(handle)?.clone();
                if size > 16 * 1024 * 1024
                    || offset.checked_add(size).is_none_or(|end| end > bo.size)
                {
                    return Err(Errno::Einval);
                }
                // Nested copy, straight into the aperture: the payload
                // address and length come from the just-copied struct.
                let bar = DriverSpan::Contiguous(self.gpu.bar_base().add(bo.offset + offset));
                mem.copy_from_user_to_phys(GuestVirtAddr::new(data_ptr), bar, size)?;
                Ok(0)
            }
            I915_GEM_EXECBUFFER2 => {
                let mut req = [0u8; 24];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let buffers_ptr = u64::from_le_bytes(req[0..8].try_into().expect("len 8"));
                let buffer_count = u32::from_le_bytes(req[8..12].try_into().expect("len 4"));
                let batch_dw = u32::from_le_bytes(req[12..16].try_into().expect("len 4"));
                let batch_ptr = u64::from_le_bytes(req[16..24].try_into().expect("len 8"));
                if buffer_count == 0 || buffer_count > 64 || batch_dw == 0 || batch_dw > 16_384
                {
                    return Err(Errno::Einval);
                }
                // Nested copy #1: the exec-object list — every referenced
                // buffer must exist.
                for i in 0..u64::from(buffer_count) {
                    let mut object = [0u8; EXEC_OBJECT_BYTES as usize];
                    mem.copy_from_user(
                        GuestVirtAddr::new(buffers_ptr + i * EXEC_OBJECT_BYTES),
                        &mut object,
                    )?;
                    let handle = u32::from_le_bytes(object[0..4].try_into().expect("len 4"));
                    self.bo(handle)?;
                }
                // Nested copy #2: the batch buffer itself.
                let mut batch = vec![0u8; batch_dw as usize * 4];
                mem.copy_from_user(GuestVirtAddr::new(batch_ptr), &mut batch)?;
                let dwords: Vec<u32> = batch
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("len 4")))
                    .collect();
                if !dwords.len().is_multiple_of(6) {
                    return Err(Errno::Einval);
                }
                let mut fence = 0;
                for command in dwords.chunks_exact(6) {
                    let resolved = self.resolve_batch_command(command)?;
                    fence = self.gpu.submit(resolved)?;
                }
                Ok(fence as i64)
            }
            I915_GEM_BUSY => {
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
            I915_GEM_WAIT => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                self.bo(handle)?;
                self.gpu.wait_idle();
                Ok(0)
            }
            I915_GEM_CLOSE => {
                let mut req = [0u8; 8];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let handle = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let bo = self.bos.remove(&handle).ok_or(Errno::Enoent)?;
                self.aperture.free(bo.offset)?;
                Ok(0)
            }
            _ => Err(Errno::Enotty),
        }
    }

    fn mmap(
        &mut self,
        _ctx: OpenContext,
        mem: &mut dyn MemOps,
        range: MmapRange,
    ) -> Result<(), Errno> {
        let handle = (range.offset >> 28) as u32;
        let bo = self.bo(handle)?.clone();
        let pages_needed = range.len.div_ceil(PAGE_SIZE);
        if pages_needed > bo.size.div_ceil(PAGE_SIZE) {
            return Err(Errno::Einval);
        }
        let first_pfn = (self.gpu.bar_base().raw() + bo.offset) / PAGE_SIZE;
        for i in 0..pages_needed {
            mem.insert_pfn(range.va.add(i * PAGE_SIZE), first_pfn + i, range.access)?;
        }
        Ok(())
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

/// The i915 driver's ioctl-handler IR for the static analyzer (§4.1): a
/// *different* driver with a different nested-copy structure, analyzed by
/// the same tool.
pub fn i915_handler_ir() -> paradice_analyzer::ir::Handler {
    use paradice_analyzer::ir::{Cond, Expr, Stmt, VarId};
    let v = VarId;
    let inout = |len: u64| {
        vec![
            Stmt::CopyFromUser {
                dst: v(0),
                src: Expr::Arg,
                len: Expr::Const(len),
            },
            Stmt::CopyToUser {
                dst: Expr::Arg,
                len: Expr::Const(len),
            },
        ]
    };
    let input_only = |len: u64| {
        vec![Stmt::CopyFromUser {
            dst: v(0),
            src: Expr::Arg,
            len: Expr::Const(len),
        }]
    };
    paradice_analyzer::ir::Handler::single(vec![Stmt::SwitchCmd {
        arms: vec![
            (I915_GETPARAM.raw(), inout(16)),
            (I915_GEM_CREATE.raw(), inout(16)),
            (I915_GEM_MMAP_GTT.raw(), inout(16)),
            (
                I915_GEM_PWRITE.raw(),
                vec![
                    Stmt::CopyFromUser {
                        dst: v(0),
                        src: Expr::Arg,
                        len: Expr::Const(32),
                    },
                    // `if (size > 16 MiB) return -EINVAL;` (above).
                    Stmt::If {
                        cond: Cond::Gt(
                            Expr::field(v(0), 16, 8),
                            Expr::Const(16 * 1024 * 1024),
                        ),
                        then: vec![Stmt::Return],
                        els: vec![],
                    },
                    Stmt::CopyFromUser {
                        dst: v(1),
                        src: Expr::field(v(0), 24, 8),
                        len: Expr::field(v(0), 16, 8),
                    },
                ],
            ),
            (
                I915_GEM_EXECBUFFER2.raw(),
                vec![
                    Stmt::CopyFromUser {
                        dst: v(0),
                        src: Expr::Arg,
                        len: Expr::Const(24),
                    },
                    // `if (buffer_count > 64 || batch_dw > 16384)
                    //      return -EINVAL;` (above).
                    Stmt::If {
                        cond: Cond::Gt(Expr::field(v(0), 8, 4), Expr::Const(64)),
                        then: vec![Stmt::Return],
                        els: vec![],
                    },
                    Stmt::If {
                        cond: Cond::Gt(Expr::field(v(0), 12, 4), Expr::Const(16_384)),
                        then: vec![Stmt::Return],
                        els: vec![],
                    },
                    Stmt::ForRange {
                        var: v(9),
                        count: Expr::field(v(0), 8, 4),
                        body: vec![Stmt::CopyFromUser {
                            dst: v(1),
                            src: Expr::add(
                                Expr::field(v(0), 0, 8),
                                Expr::mul(Expr::Var(v(9)), Expr::Const(EXEC_OBJECT_BYTES)),
                            ),
                            len: Expr::Const(EXEC_OBJECT_BYTES),
                        }],
                    },
                    Stmt::CopyFromUser {
                        dst: v(2),
                        src: Expr::field(v(0), 16, 8),
                        len: Expr::mul(Expr::field(v(0), 12, 4), Expr::Const(4)),
                    },
                ],
            ),
            (I915_GEM_BUSY.raw(), inout(8)),
            (I915_GEM_WAIT.raw(), input_only(16)),
            (I915_GEM_CLOSE.raw(), input_only(8)),
        ],
        default: vec![Stmt::Return],
    }])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::KernelEnv;
    use paradice_analyzer::extract::analyze_handler;
    use paradice_devfs::fileops::OpenFlags;
    use paradice_devfs::memops::BufferMemOps;
    use paradice_devfs::registry::FileHandleId;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SimClock};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The driver and the kernel environment its engine runs in.
    fn driver() -> (I915Driver, Rc<KernelEnv>) {
        let mut hv = Hypervisor::new(8192, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 256 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let bar = hv.map_device_bar(domain, 256).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        let gpu = GpuEngine::new(env.clone(), bar, 256 * PAGE_SIZE);
        (I915Driver::new(gpu), env)
    }

    fn ctx() -> OpenContext {
        OpenContext {
            handle: FileHandleId(1),
            task: TaskId(1),
            flags: OpenFlags::RDWR,
        }
    }

    fn create_bo(drv: &mut I915Driver, mem: &mut BufferMemOps, size: u64) -> u32 {
        let mut req = [0u8; 16];
        req[0..8].copy_from_slice(&size.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &req).unwrap();
        drv.ioctl(ctx(), mem, I915_GEM_CREATE, 0).unwrap();
        mem.read_user_u32(GuestVirtAddr::new(8)).unwrap()
    }

    #[test]
    fn getparam_reports_gm965() {
        let (mut drv, _) = driver();
        let mut mem = BufferMemOps::new(4096);
        let mut req = [0u8; 16];
        req[0..4].copy_from_slice(&param::CHIPSET_ID.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &req).unwrap();
        drv.ioctl(ctx(), &mut mem, I915_GETPARAM, 0).unwrap();
        assert_eq!(mem.read_user_u64(GuestVirtAddr::new(8)).unwrap(), 0x2a02);
    }

    #[test]
    fn execbuffer2_renders_and_fences() {
        let (mut drv, env) = driver();
        let mut mem = BufferMemOps::new(16384);
        let fb = create_bo(&mut drv, &mut mem, 4 * PAGE_SIZE);
        // Exec-object list at 0x400 (one entry), batch at 0x500.
        let mut object = [0u8; 16];
        object[0..4].copy_from_slice(&fb.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x400), &object).unwrap();
        let batch: Vec<u8> = [batch_op::RENDER, 2_000, fb, 0, 0, 0]
            .iter()
            .flat_map(|d| d.to_le_bytes())
            .collect();
        mem.copy_to_user(GuestVirtAddr::new(0x500), &batch).unwrap();
        let mut req = [0u8; 24];
        req[0..8].copy_from_slice(&0x400u64.to_le_bytes());
        req[8..12].copy_from_slice(&1u32.to_le_bytes());
        req[12..16].copy_from_slice(&6u32.to_le_bytes());
        req[16..24].copy_from_slice(&0x500u64.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x600), &req).unwrap();
        let t0 = env.now_ns();
        let fence = drv
            .ioctl(ctx(), &mut mem, I915_GEM_EXECBUFFER2, 0x600)
            .unwrap();
        assert_eq!(fence, 1);
        // WAIT drains the 2 ms render.
        let mut wait = [0u8; 16];
        wait[0..4].copy_from_slice(&fb.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x700), &wait).unwrap();
        drv.ioctl(ctx(), &mut mem, I915_GEM_WAIT, 0x700).unwrap();
        assert_eq!(env.now_ns() - t0, 2_000_000);
    }

    #[test]
    fn execbuffer2_rejects_unknown_buffers() {
        let (mut drv, _) = driver();
        let mut mem = BufferMemOps::new(16384);
        let mut object = [0u8; 16];
        object[0..4].copy_from_slice(&77u32.to_le_bytes()); // no such bo
        mem.copy_to_user(GuestVirtAddr::new(0x400), &object).unwrap();
        let mut req = [0u8; 24];
        req[0..8].copy_from_slice(&0x400u64.to_le_bytes());
        req[8..12].copy_from_slice(&1u32.to_le_bytes());
        req[12..16].copy_from_slice(&6u32.to_le_bytes());
        req[16..24].copy_from_slice(&0x500u64.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x600), &req).unwrap();
        assert_eq!(
            drv.ioctl(ctx(), &mut mem, I915_GEM_EXECBUFFER2, 0x600),
            Err(Errno::Enoent)
        );
    }

    #[test]
    fn pwrite_then_mmap_roundtrip() {
        let (mut drv, env) = driver();
        let mut mem = BufferMemOps::new(16384).with_driver_memory(env.clone());
        let bo = create_bo(&mut drv, &mut mem, PAGE_SIZE);
        mem.copy_to_user(GuestVirtAddr::new(0x2000), b"intel-bytes").unwrap();
        let mut req = [0u8; 32];
        req[0..4].copy_from_slice(&bo.to_le_bytes());
        req[16..24].copy_from_slice(&11u64.to_le_bytes());
        req[24..32].copy_from_slice(&0x2000u64.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0x100), &req).unwrap();
        drv.ioctl(ctx(), &mut mem, I915_GEM_PWRITE, 0x100).unwrap();
        // mmap installs the aperture pages.
        drv.mmap(
            ctx(),
            &mut mem,
            MmapRange {
                va: GuestVirtAddr::new(0x10_0000),
                len: PAGE_SIZE,
                offset: u64::from(bo) << 28,
                access: paradice_mem::Access::RW,
            },
        )
        .unwrap();
        assert_eq!(mem.mappings().len(), 1);
        // The data is in the aperture (read through the BAR alias).
        let offset = drv.bo(bo).unwrap().offset;
        let mut seen = [0u8; 11];
        env.kernel_read(drv.gpu.bar_base().add(offset), &mut seen)
            .unwrap();
        assert_eq!(&seen, b"intel-bytes");
    }

    #[test]
    fn close_frees_aperture() {
        let (mut drv, _) = driver();
        let mut mem = BufferMemOps::new(4096);
        let before = drv.aperture.free_bytes();
        let bo = create_bo(&mut drv, &mut mem, 8 * PAGE_SIZE);
        assert_eq!(drv.aperture.free_bytes(), before - 8 * PAGE_SIZE);
        let mut req = [0u8; 8];
        req[0..4].copy_from_slice(&bo.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &req).unwrap();
        drv.ioctl(ctx(), &mut mem, I915_GEM_CLOSE, 0).unwrap();
        assert_eq!(drv.aperture.free_bytes(), before);
        assert_eq!(drv.bo_count(), 0);
    }

    #[test]
    fn analyzer_handles_the_second_driver() {
        // The same tool analyzes a structurally different driver: PWRITE
        // and EXECBUFFER2 are its nested-copy commands.
        let report = analyze_handler(&i915_handler_ir()).unwrap();
        assert_eq!(report.commands.len(), 8);
        assert_eq!(report.nested_copy_commands(), 2);
        assert!(report.commands[&I915_GEM_EXECBUFFER2.raw()].has_nested_copies());
        assert!(report.commands[&I915_GEM_PWRITE.raw()].has_nested_copies());
        assert!(report.commands[&I915_GETPARAM.raw()].is_static());
    }
}
