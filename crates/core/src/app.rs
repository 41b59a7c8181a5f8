//! Userspace device libraries: the application side of the stack.
//!
//! Applications do not speak raw ioctls; they use libraries — "the Direct
//! Rendering Manager (DRM) libraries for graphics … usually available for
//! different Unix-like OSes" (paper §3.1). This module provides miniature
//! equivalents of libdrm ([`drm`]), libv4l ([`v4l`]), ALSA ([`pcm`]) and
//! the netmap API ([`netmap`]), all written against the [`Machine`] process
//! API — so the *same application code* runs natively, under device
//! assignment, and in a Paradice guest.

use paradice_devfs::{Errno, PollEvents};
use paradice_devfs::fileops::TaskId;
use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};

use crate::machine::Machine;

/// Copies a fixed-size struct into process memory and returns the address
/// it was staged at.
fn stage(
    machine: &mut Machine,
    task: TaskId,
    va: GuestVirtAddr,
    bytes: &[u8],
) -> Result<(), Errno> {
    machine.write_mem(task, va, bytes)
}

/// A miniature libdrm.
pub mod drm {
    use super::*;
    use crate::gpu_ioctl::*;

    /// Chunk kind and opcode constants re-exported for IB construction.
    pub use paradice_drivers::gpu::driver::{chunk, IB_CMD_DWORDS};

    /// An open DRM device plus scratch memory for ioctl structs.
    #[derive(Debug, Clone, Copy)]
    pub struct DrmClient {
        /// The owning task.
        pub task: TaskId,
        /// The device descriptor.
        pub fd: u64,
        scratch: GuestVirtAddr,
        ib: GuestVirtAddr,
    }

    /// Scratch layout offsets.
    const ARGS_OFF: u64 = 0;
    const HEADER_OFF: u64 = 256;
    const DATA_OFF: u64 = 512;

    impl DrmClient {
        /// Opens `/dev/dri/card0` and allocates scratch buffers.
        ///
        /// # Errors
        ///
        /// Open or allocation failures.
        pub fn open(machine: &mut Machine, task: TaskId) -> Result<DrmClient, Errno> {
            let fd = machine.open(task, "/dev/dri/card0")?;
            let scratch = machine.alloc_buffer(task, 4096).map_err(|_| Errno::Enomem)?;
            let ib = machine.alloc_buffer(task, 16384).map_err(|_| Errno::Enomem)?;
            Ok(DrmClient {
                task,
                fd,
                scratch,
                ib,
            })
        }

        /// `RADEON_INFO`: queries a device attribute.
        ///
        /// # Errors
        ///
        /// `EINVAL` for unknown requests.
        pub fn info(&self, machine: &mut Machine, request: u32) -> Result<u64, Errno> {
            let mut req = [0u8; 16];
            req[0..4].copy_from_slice(&request.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, RADEON_INFO, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok(u64::from_le_bytes(out[8..16].try_into().expect("len 8")))
        }

        /// `GEM_CREATE`: allocates a buffer object.
        ///
        /// # Errors
        ///
        /// `ENOMEM` when VRAM/GTT is exhausted.
        pub fn gem_create(
            &self,
            machine: &mut Machine,
            size: u64,
            domain: u32,
        ) -> Result<u32, Errno> {
            self.gem_create_with_flags(machine, size, domain, 0)
        }

        /// `GEM_CREATE` with explicit flags (e.g.
        /// [`paradice_drivers::gpu::driver::GEM_CREATE_LAZY_MAP`]).
        ///
        /// # Errors
        ///
        /// `ENOMEM` when VRAM/GTT is exhausted.
        pub fn gem_create_with_flags(
            &self,
            machine: &mut Machine,
            size: u64,
            domain: u32,
            flags: u32,
        ) -> Result<u32, Errno> {
            let mut req = [0u8; 24];
            req[0..8].copy_from_slice(&size.to_le_bytes());
            req[8..12].copy_from_slice(&domain.to_le_bytes());
            req[12..16].copy_from_slice(&flags.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, RADEON_GEM_CREATE, self.scratch.raw())?;
            let mut out = [0u8; 24];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok(u32::from_le_bytes(out[16..20].try_into().expect("len 4")))
        }

        /// `GEM_MMAP` + `mmap`: maps a buffer object into the process.
        ///
        /// # Errors
        ///
        /// Driver/mapping failures.
        pub fn gem_map(
            &self,
            machine: &mut Machine,
            handle: u32,
            len: u64,
        ) -> Result<GuestVirtAddr, Errno> {
            let mut req = [0u8; 16];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, RADEON_GEM_MMAP, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            let offset = u64::from_le_bytes(out[8..16].try_into().expect("len 8"));
            machine.mmap(self.task, self.fd, len, offset, Access::RW)
        }

        /// `GEM_PWRITE`: uploads bytes already staged in process memory at
        /// `data_va` into a buffer object.
        ///
        /// # Errors
        ///
        /// Driver failures (`EPERM` for PREAD-style reads under isolation).
        pub fn gem_pwrite(
            &self,
            machine: &mut Machine,
            handle: u32,
            offset: u64,
            data_va: GuestVirtAddr,
            size: u64,
        ) -> Result<(), Errno> {
            let mut req = [0u8; 32];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            req[8..16].copy_from_slice(&offset.to_le_bytes());
            req[16..24].copy_from_slice(&size.to_le_bytes());
            req[24..32].copy_from_slice(&data_va.raw().to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, RADEON_GEM_PWRITE, self.scratch.raw())?;
            Ok(())
        }

        /// `GEM_PREAD`: reads a buffer object back into process memory.
        ///
        /// # Errors
        ///
        /// `EPERM` under data isolation (§4.2).
        pub fn gem_pread(
            &self,
            machine: &mut Machine,
            handle: u32,
            offset: u64,
            data_va: GuestVirtAddr,
            size: u64,
        ) -> Result<(), Errno> {
            let mut req = [0u8; 32];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            req[8..16].copy_from_slice(&offset.to_le_bytes());
            req[16..24].copy_from_slice(&size.to_le_bytes());
            req[24..32].copy_from_slice(&data_va.raw().to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, RADEON_GEM_PREAD, self.scratch.raw())?;
            Ok(())
        }

        /// Submits one IB of raw command dwords via `CS`; returns the fence.
        ///
        /// # Errors
        ///
        /// Malformed IBs (`EINVAL`) or isolation refusals.
        pub fn submit_ib(&self, machine: &mut Machine, dwords: &[u32]) -> Result<u32, Errno> {
            let mut payload = Vec::with_capacity(dwords.len() * 4);
            for d in dwords {
                payload.extend_from_slice(&d.to_le_bytes());
            }
            stage(machine, self.task, self.ib, &payload)?;
            let mut header = [0u8; 16];
            header[0..8].copy_from_slice(&self.ib.raw().to_le_bytes());
            header[8..12].copy_from_slice(&(dwords.len() as u32).to_le_bytes());
            header[12..16].copy_from_slice(&chunk::IB.to_le_bytes());
            stage(
                machine,
                self.task,
                self.scratch.add(HEADER_OFF),
                &header,
            )?;
            let mut args = [0u8; 16];
            args[0..8]
                .copy_from_slice(&self.scratch.add(HEADER_OFF).raw().to_le_bytes());
            args[8..12].copy_from_slice(&1u32.to_le_bytes());
            stage(machine, self.task, self.scratch.add(ARGS_OFF), &args)?;
            machine.ioctl(
                self.task,
                self.fd,
                RADEON_CS,
                self.scratch.add(ARGS_OFF).raw(),
            )?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch.add(ARGS_OFF), &mut out)?;
            Ok(u32::from_le_bytes(out[12..16].try_into().expect("len 4")))
        }

        /// Submits a render command (`cost_us` of GPU time onto `target`).
        ///
        /// # Errors
        ///
        /// As [`DrmClient::submit_ib`].
        pub fn submit_render(
            &self,
            machine: &mut Machine,
            cost_us: u32,
            target: u32,
        ) -> Result<u32, Errno> {
            self.submit_ib(machine, &[opcode::RENDER, cost_us, target, 0, 0, 0])
        }

        /// Submits a GEMM dispatch of the given order.
        ///
        /// # Errors
        ///
        /// As [`DrmClient::submit_ib`].
        pub fn submit_compute(&self, machine: &mut Machine, order: u32) -> Result<u32, Errno> {
            self.submit_ib(machine, &[opcode::COMPUTE, order, 0, 0, 0, 0])
        }

        /// `GEM_WAIT_IDLE`: blocks until the GPU drains.
        ///
        /// # Errors
        ///
        /// Unknown handles.
        pub fn wait_idle(&self, machine: &mut Machine, handle: u32) -> Result<(), Errno> {
            let mut req = [0u8; 8];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            stage(machine, self.task, self.scratch.add(DATA_OFF), &req)?;
            machine.ioctl(
                self.task,
                self.fd,
                RADEON_GEM_WAIT_IDLE,
                self.scratch.add(DATA_OFF).raw(),
            )?;
            Ok(())
        }

        /// `GEM_CLOSE`: frees a buffer object.
        ///
        /// # Errors
        ///
        /// Unknown handles.
        pub fn gem_close(&self, machine: &mut Machine, handle: u32) -> Result<(), Errno> {
            let mut req = [0u8; 8];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            stage(machine, self.task, self.scratch.add(DATA_OFF), &req)?;
            machine.ioctl(
                self.task,
                self.fd,
                GEM_CLOSE,
                self.scratch.add(DATA_OFF).raw(),
            )?;
            Ok(())
        }
    }
}

/// A miniature libdrm for the Intel GPU (different make, same CVD).
pub mod i915 {
    use super::*;
    pub use paradice_drivers::gpu::i915::{batch_op, param};
    use paradice_drivers::gpu::i915::{
        I915_GEM_CREATE, I915_GEM_EXECBUFFER2, I915_GEM_MMAP_GTT, I915_GEM_PWRITE,
        I915_GEM_WAIT, I915_GETPARAM,
    };

    /// An open i915 device plus scratch memory.
    #[derive(Debug, Clone, Copy)]
    pub struct IntelClient {
        /// The owning task.
        pub task: TaskId,
        /// The device descriptor.
        pub fd: u64,
        scratch: GuestVirtAddr,
        batch: GuestVirtAddr,
    }

    impl IntelClient {
        /// Opens `/dev/dri/card1`.
        ///
        /// # Errors
        ///
        /// Open or allocation failures.
        pub fn open(machine: &mut Machine, task: TaskId) -> Result<IntelClient, Errno> {
            let fd = machine.open(task, "/dev/dri/card1")?;
            let scratch = machine.alloc_buffer(task, 4096).map_err(|_| Errno::Enomem)?;
            let batch = machine.alloc_buffer(task, 8192).map_err(|_| Errno::Enomem)?;
            Ok(IntelClient {
                task,
                fd,
                scratch,
                batch,
            })
        }

        /// `GETPARAM`.
        ///
        /// # Errors
        ///
        /// `EINVAL` for unknown parameters.
        pub fn getparam(&self, machine: &mut Machine, code: u32) -> Result<u64, Errno> {
            let mut req = [0u8; 16];
            req[0..4].copy_from_slice(&code.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GETPARAM, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok(u64::from_le_bytes(out[8..16].try_into().expect("len 8")))
        }

        /// `GEM_CREATE`.
        ///
        /// # Errors
        ///
        /// `ENOMEM` when the aperture is exhausted.
        pub fn gem_create(&self, machine: &mut Machine, size: u64) -> Result<u32, Errno> {
            let mut req = [0u8; 16];
            req[0..8].copy_from_slice(&size.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GEM_CREATE, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok(u32::from_le_bytes(out[8..12].try_into().expect("len 4")))
        }

        /// `GEM_PWRITE` of bytes staged at `data_va`.
        ///
        /// # Errors
        ///
        /// Driver failures.
        pub fn gem_pwrite(
            &self,
            machine: &mut Machine,
            handle: u32,
            offset: u64,
            data_va: GuestVirtAddr,
            size: u64,
        ) -> Result<(), Errno> {
            let mut req = [0u8; 32];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            req[8..16].copy_from_slice(&offset.to_le_bytes());
            req[16..24].copy_from_slice(&size.to_le_bytes());
            req[24..32].copy_from_slice(&data_va.raw().to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GEM_PWRITE, self.scratch.raw())?;
            Ok(())
        }

        /// `GEM_MMAP_GTT` + `mmap`.
        ///
        /// # Errors
        ///
        /// Driver/mapping failures.
        pub fn gem_map(
            &self,
            machine: &mut Machine,
            handle: u32,
            len: u64,
        ) -> Result<GuestVirtAddr, Errno> {
            let mut req = [0u8; 16];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GEM_MMAP_GTT, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            let offset = u64::from_le_bytes(out[8..16].try_into().expect("len 8"));
            machine.mmap(self.task, self.fd, len, offset, Access::RW)
        }

        /// `EXECBUFFER2`: submits one render batch over `targets`.
        ///
        /// # Errors
        ///
        /// Malformed batches or unknown handles.
        pub fn exec_render(
            &self,
            machine: &mut Machine,
            cost_us: u32,
            target: u32,
        ) -> Result<i64, Errno> {
            // Exec-object list: one entry.
            let mut object = [0u8; 16];
            object[0..4].copy_from_slice(&target.to_le_bytes());
            stage(machine, self.task, self.batch, &object)?;
            // Batch: one RENDER command at batch+256.
            let dwords = [batch_op::RENDER, cost_us, target, 0, 0, 0];
            let mut payload = Vec::new();
            for d in dwords {
                payload.extend_from_slice(&d.to_le_bytes());
            }
            stage(machine, self.task, self.batch.add(256), &payload)?;
            let mut req = [0u8; 24];
            req[0..8].copy_from_slice(&self.batch.raw().to_le_bytes());
            req[8..12].copy_from_slice(&1u32.to_le_bytes());
            req[12..16].copy_from_slice(&(dwords.len() as u32).to_le_bytes());
            req[16..24].copy_from_slice(&self.batch.add(256).raw().to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GEM_EXECBUFFER2, self.scratch.raw())
        }

        /// `GEM_WAIT`: blocks until the engine drains.
        ///
        /// # Errors
        ///
        /// Unknown handles.
        pub fn wait(&self, machine: &mut Machine, handle: u32) -> Result<(), Errno> {
            let mut req = [0u8; 16];
            req[0..4].copy_from_slice(&handle.to_le_bytes());
            stage(machine, self.task, self.scratch, &req)?;
            machine.ioctl(self.task, self.fd, I915_GEM_WAIT, self.scratch.raw())?;
            Ok(())
        }
    }
}

/// A miniature libv4l.
pub mod v4l {
    use super::*;
    use crate::camera_ioctl::*;

    /// An open camera plus its streaming state.
    #[derive(Debug)]
    pub struct CameraClient {
        /// The owning task.
        pub task: TaskId,
        /// The device descriptor.
        pub fd: u64,
        scratch: GuestVirtAddr,
        /// Mapped frame buffers: `(va, length)` per buffer index.
        pub buffers: Vec<(GuestVirtAddr, u64)>,
    }

    impl CameraClient {
        /// Opens `/dev/video0`.
        ///
        /// # Errors
        ///
        /// `EBUSY` if another process holds the camera.
        pub fn open(machine: &mut Machine, task: TaskId) -> Result<CameraClient, Errno> {
            let fd = machine.open(task, "/dev/video0")?;
            let scratch = machine.alloc_buffer(task, 4096).map_err(|_| Errno::Enomem)?;
            Ok(CameraClient {
                task,
                fd,
                scratch,
                buffers: Vec::new(),
            })
        }

        /// Negotiates an MJPG format; returns the image size.
        ///
        /// # Errors
        ///
        /// `EINVAL` for unsupported resolutions.
        pub fn set_format(
            &mut self,
            machine: &mut Machine,
            width: u32,
            height: u32,
        ) -> Result<u32, Errno> {
            let mut fmt = [0u8; 16];
            fmt[0..4].copy_from_slice(&width.to_le_bytes());
            fmt[4..8].copy_from_slice(&height.to_le_bytes());
            stage(machine, self.task, self.scratch, &fmt)?;
            machine.ioctl(self.task, self.fd, VIDIOC_S_FMT, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok(u32::from_le_bytes(out[12..16].try_into().expect("len 4")))
        }

        /// Requests and `mmap`s `count` frame buffers.
        ///
        /// # Errors
        ///
        /// Allocation or mapping failures.
        pub fn setup_buffers(&mut self, machine: &mut Machine, count: u32) -> Result<(), Errno> {
            machine.write_mem(self.task, self.scratch, &count.to_le_bytes())?;
            machine.ioctl(self.task, self.fd, VIDIOC_REQBUFS, self.scratch.raw())?;
            let mut raw = [0u8; 4];
            machine.read_mem(self.task, self.scratch, &mut raw)?;
            let granted = u32::from_le_bytes(raw);
            self.buffers.clear();
            for index in 0..granted {
                let mut req = [0u8; 16];
                req[0..4].copy_from_slice(&index.to_le_bytes());
                stage(machine, self.task, self.scratch, &req)?;
                machine.ioctl(self.task, self.fd, VIDIOC_QUERYBUF, self.scratch.raw())?;
                let mut out = [0u8; 16];
                machine.read_mem(self.task, self.scratch, &mut out)?;
                let length =
                    u64::from(u32::from_le_bytes(out[4..8].try_into().expect("len 4")));
                let offset = u64::from_le_bytes(out[8..16].try_into().expect("len 8"));
                let va = machine.mmap(self.task, self.fd, length, offset, Access::RW)?;
                self.buffers.push((va, length));
            }
            Ok(())
        }

        /// Queues buffer `index` for capture.
        ///
        /// # Errors
        ///
        /// `EINVAL` for bad indices.
        pub fn qbuf(&self, machine: &mut Machine, index: u32) -> Result<(), Errno> {
            machine.write_mem(self.task, self.scratch, &index.to_le_bytes())?;
            machine.ioctl(self.task, self.fd, VIDIOC_QBUF, self.scratch.raw())?;
            Ok(())
        }

        /// Dequeues the next filled buffer; returns `(index, bytesused)`.
        ///
        /// # Errors
        ///
        /// `EINVAL` if not streaming or nothing is queued.
        pub fn dqbuf(&self, machine: &mut Machine) -> Result<(u32, u32), Errno> {
            machine.ioctl(self.task, self.fd, VIDIOC_DQBUF, self.scratch.raw())?;
            let mut out = [0u8; 16];
            machine.read_mem(self.task, self.scratch, &mut out)?;
            Ok((
                u32::from_le_bytes(out[0..4].try_into().expect("len 4")),
                u32::from_le_bytes(out[4..8].try_into().expect("len 4")),
            ))
        }

        /// Starts streaming.
        ///
        /// # Errors
        ///
        /// `EINVAL` without buffers.
        pub fn stream_on(&self, machine: &mut Machine) -> Result<(), Errno> {
            machine.ioctl(self.task, self.fd, VIDIOC_STREAMON, 0)?;
            Ok(())
        }
    }
}

/// A miniature ALSA.
pub mod pcm {
    use super::*;
    use crate::audio_ioctl::*;

    /// An open PCM playback stream.
    #[derive(Debug, Clone, Copy)]
    pub struct AudioClient {
        /// The owning task.
        pub task: TaskId,
        /// The device descriptor.
        pub fd: u64,
        scratch: GuestVirtAddr,
        sample_buf: GuestVirtAddr,
    }

    impl AudioClient {
        /// Opens the speaker and stages a 4-KiB sample buffer.
        ///
        /// # Errors
        ///
        /// Open failures.
        pub fn open(machine: &mut Machine, task: TaskId) -> Result<AudioClient, Errno> {
            let fd = machine.open(task, "/dev/snd/pcmC0D0p")?;
            let scratch = machine.alloc_buffer(task, 64).map_err(|_| Errno::Enomem)?;
            let sample_buf = machine
                .alloc_buffer(task, 4096)
                .map_err(|_| Errno::Enomem)?;
            Ok(AudioClient {
                task,
                fd,
                scratch,
                sample_buf,
            })
        }

        /// Negotiates `rate`/`channels`/`bits` and prepares the stream.
        ///
        /// # Errors
        ///
        /// `EINVAL` for unsupported parameters.
        pub fn configure(
            &self,
            machine: &mut Machine,
            rate: u32,
            channels: u32,
            bits: u32,
        ) -> Result<(), Errno> {
            let mut params = [0u8; 12];
            params[0..4].copy_from_slice(&rate.to_le_bytes());
            params[4..8].copy_from_slice(&channels.to_le_bytes());
            params[8..12].copy_from_slice(&bits.to_le_bytes());
            stage(machine, self.task, self.scratch, &params)?;
            machine.ioctl(self.task, self.fd, PCM_HW_PARAMS, self.scratch.raw())?;
            machine.ioctl(self.task, self.fd, PCM_PREPARE, 0)?;
            Ok(())
        }

        /// Plays `total_bytes` of audio in 4-KiB writes; returns the virtual
        /// time consumed.
        ///
        /// # Errors
        ///
        /// `EIO` if the stream is unprepared.
        pub fn play(&self, machine: &mut Machine, total_bytes: u64) -> Result<u64, Errno> {
            let start = machine.now_ns();
            let mut sent = 0u64;
            while sent < total_bytes {
                let chunk = 4096.min(total_bytes - sent);
                let n = machine.write(self.task, self.fd, self.sample_buf, chunk)?;
                sent += n;
            }
            Ok(machine.now_ns() - start)
        }
    }
}

/// A miniature netmap API.
pub mod netmap {
    use super::*;
    use crate::netmap_ioctl::*;
    pub use paradice_drivers::netmap::{line_rate_pps, wire_ns, BUF_SIZE, NUM_SLOTS};

    const RING_HEAD_OFF: u64 = 0;
    const RING_TAIL_OFF: u64 = 4;
    const RING_SLOTS_OFF: u64 = 16;

    /// A netmap-mode interface handle: mapped TX ring + buffers.
    #[derive(Debug)]
    pub struct NetmapClient {
        /// The owning task.
        pub task: TaskId,
        /// The device descriptor.
        pub fd: u64,
        /// Mapped TX ring page.
        pub tx_ring: GuestVirtAddr,
        /// Mapped TX buffer pages (one per slot).
        pub tx_bufs: GuestVirtAddr,
        head: u32,
    }

    impl NetmapClient {
        /// Opens `/dev/netmap`, registers the interface, and maps the TX
        /// ring plus all TX buffers.
        ///
        /// # Errors
        ///
        /// `EBUSY` if another process holds the NIC.
        pub fn open(machine: &mut Machine, task: TaskId) -> Result<NetmapClient, Errno> {
            let fd = machine.open(task, "/dev/netmap")?;
            let scratch = machine.alloc_buffer(task, 64).map_err(|_| Errno::Enomem)?;
            machine.ioctl(task, fd, NIOCREGIF, scratch.raw())?;
            let _ = scratch;
            let tx_ring = machine.mmap(task, fd, PAGE_SIZE, 0, Access::RW)?;
            let tx_bufs = machine.mmap(
                task,
                fd,
                u64::from(NUM_SLOTS) * PAGE_SIZE,
                2 * PAGE_SIZE,
                Access::RW,
            )?;
            Ok(NetmapClient {
                task,
                fd,
                tx_ring,
                tx_bufs,
                head: 0,
            })
        }

        /// Reads the ring's consumer tail through the mapping.
        ///
        /// # Errors
        ///
        /// Mapping faults.
        pub fn tail(&self, machine: &mut Machine) -> Result<u32, Errno> {
            let mut raw = [0u8; 4];
            machine.read_mem(self.task, self.tx_ring.add(RING_TAIL_OFF), &mut raw)?;
            Ok(u32::from_le_bytes(raw))
        }

        /// Free TX slots from the application's view.
        ///
        /// # Errors
        ///
        /// Mapping faults.
        pub fn free_slots(&self, machine: &mut Machine) -> Result<u32, Errno> {
            let tail = self.tail(machine)?;
            let used = (self.head + NUM_SLOTS - tail) % NUM_SLOTS;
            Ok(NUM_SLOTS - 1 - used)
        }

        /// Writes `count` packets of `len` bytes into consecutive slots and
        /// advances the ring head — all through the shared mapping, exactly
        /// like netmap's pkt-gen. Charges `per_pkt_cpu_ns` of application
        /// CPU time per packet.
        ///
        /// # Errors
        ///
        /// Mapping faults.
        pub fn produce(
            &mut self,
            machine: &mut Machine,
            count: u32,
            len: u32,
            per_pkt_cpu_ns: u64,
        ) -> Result<(), Errno> {
            for i in 0..count {
                let slot = (self.head + i) % NUM_SLOTS;
                let slot_off = RING_SLOTS_OFF + u64::from(slot) * 8;
                machine.write_mem(
                    self.task,
                    self.tx_ring.add(slot_off),
                    &len.to_le_bytes(),
                )?;
                // First bytes of the frame: a sequence stamp.
                machine.write_mem(
                    self.task,
                    self.tx_bufs.add(u64::from(slot) * PAGE_SIZE),
                    &u64::from(self.head + i).to_le_bytes(),
                )?;
            }
            self.head = (self.head + count) % NUM_SLOTS;
            machine.write_mem(
                self.task,
                self.tx_ring.add(RING_HEAD_OFF),
                &self.head.to_le_bytes(),
            )?;
            machine.clock().advance(u64::from(count) * per_pkt_cpu_ns);
            Ok(())
        }

        /// `NIOCTXSYNC`: tells the kernel to pick up new packets.
        ///
        /// # Errors
        ///
        /// Ring validation failures.
        pub fn txsync(&self, machine: &mut Machine) -> Result<(), Errno> {
            machine.ioctl(self.task, self.fd, NIOCTXSYNC, 0)?;
            Ok(())
        }

        /// `poll`: blocks until the ring has space (and syncs).
        ///
        /// # Errors
        ///
        /// Driver failures.
        pub fn poll(&self, machine: &mut Machine) -> Result<PollEvents, Errno> {
            machine.poll(self.task, self.fd)
        }
    }
}
