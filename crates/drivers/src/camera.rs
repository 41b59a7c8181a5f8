//! Camera: a UVC-style sensor behind a V4L2-style driver.
//!
//! The paper virtualizes a Logitech HD Pro Webcam C920 through the V4L2/UVC
//! stack and finds that "for all the resolutions, native, device assignment,
//! and Paradice achieve about 29.5 FPS" (§6.1.6) — the sensor's frame period
//! dominates the per-frame file-operation overhead. The driver here follows
//! the V4L2 streaming-I/O shape: format negotiation, buffer request,
//! `mmap`'d frame buffers, a QBUF/DQBUF rotation, and stream on/off. The
//! camera driver "only allow\[s\] one process at a time" (§5.1): the devfs
//! registration is exclusive-open, and the driver itself guards too.

use std::collections::VecDeque;
use std::rc::Rc;

use paradice_devfs::fileops::{FileOps, MmapRange, OpenContext, PollEvents};
use paradice_devfs::ioc::{io, ior, iowr, IoctlCmd};
use paradice_devfs::registry::FileHandleId;
use paradice_devfs::{Errno, MemOps};
use paradice_mem::{DmaAddr, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

use crate::env::{DmaPool, KernelEnv};

/// `VIDIOC_QUERYCAP`: 32-byte card name out.
pub const VIDIOC_QUERYCAP: IoctlCmd = ior(b'V', 0, 32);
/// `VIDIOC_S_FMT`: `{u32 width, u32 height, u32 fourcc, u32 sizeimage}`.
pub const VIDIOC_S_FMT: IoctlCmd = iowr(b'V', 5, 16);
/// `VIDIOC_REQBUFS`: `{u32 count}` in/out.
pub const VIDIOC_REQBUFS: IoctlCmd = iowr(b'V', 8, 4);
/// `VIDIOC_QUERYBUF`: `{u32 index, u32 length, u64 offset}`.
pub const VIDIOC_QUERYBUF: IoctlCmd = iowr(b'V', 9, 16);
/// `VIDIOC_QBUF`: `{u32 index}`.
pub const VIDIOC_QBUF: IoctlCmd = iowr(b'V', 15, 4);
/// `VIDIOC_DQBUF`: `{u32 index, u32 bytesused, u64 sequence}`.
pub const VIDIOC_DQBUF: IoctlCmd = ior(b'V', 17, 16);
/// `VIDIOC_STREAMON`.
pub const VIDIOC_STREAMON: IoctlCmd = io(b'V', 18);
/// `VIDIOC_STREAMOFF`.
pub const VIDIOC_STREAMOFF: IoctlCmd = io(b'V', 19);

/// The sensor's frame period: 29.5 frames per second (§6.1.6).
pub const SENSOR_PERIOD_NS: u64 = 1_000_000_000 / 295 * 10; // 33_898_300 ns

/// Resolutions the paper tests ("the three highest video resolutions
/// supported by our test camera for MJPG output", §6.1.6).
pub const MJPG_RESOLUTIONS: [(u32, u32); 3] = [(1280, 720), (1600, 896), (1920, 1080)];

/// Compressed MJPG frame size model: about a tenth of the raw frame.
pub fn mjpg_frame_bytes(width: u32, height: u32) -> u64 {
    (u64::from(width) * u64::from(height)) / 10
}

/// Maximum frame buffers a client may request.
const MAX_BUFFERS: u32 = 8;

#[derive(Debug, Clone)]
struct FrameBuffer {
    pages: Vec<GuestPhysAddr>,
    length: u64,
    bytesused: u64,
}

/// The UVC camera driver plus its sensor model.
pub struct UvcDriver {
    env: Rc<KernelEnv>,
    owner: Option<FileHandleId>,
    width: u32,
    height: u32,
    buffers: Vec<FrameBuffer>,
    /// Indices of buffers queued for the sensor to fill, in order.
    incoming: VecDeque<u32>,
    /// Indices of filled buffers awaiting DQBUF.
    outgoing: VecDeque<u32>,
    streaming: bool,
    next_frame_ns: u64,
    sequence: u64,
}

impl std::fmt::Debug for UvcDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UvcDriver")
            .field("format", &(self.width, self.height))
            .field("buffers", &self.buffers.len())
            .field("streaming", &self.streaming)
            .field("sequence", &self.sequence)
            .finish()
    }
}

impl UvcDriver {
    /// Creates the driver for the Logitech C920 of Table 1.
    pub fn new(env: Rc<KernelEnv>) -> Self {
        UvcDriver {
            env,
            owner: None,
            width: 1280,
            height: 720,
            buffers: Vec::new(),
            incoming: VecDeque::new(),
            outgoing: VecDeque::new(),
            streaming: false,
            next_frame_ns: 0,
            sequence: 0,
        }
    }

    fn check_owner(&self, ctx: OpenContext) -> Result<(), Errno> {
        match self.owner {
            Some(owner) if owner == ctx.handle => Ok(()),
            Some(_) => Err(Errno::Ebusy),
            None => Err(Errno::Ebadf),
        }
    }

    fn frame_bytes(&self) -> u64 {
        mjpg_frame_bytes(self.width, self.height)
    }

    fn pages_per_buffer(&self) -> u64 {
        self.frame_bytes().div_ceil(PAGE_SIZE)
    }

    /// The sensor fills the next queued buffer. Advances the clock to the
    /// frame's arrival and DMA-writes a frame header into the buffer —
    /// exercising the IOMMU path a real UVC transfer would take.
    fn capture_frame(&mut self) -> Result<u32, Errno> {
        let index = self.incoming.pop_front().ok_or(Errno::Einval)?;
        self.env
            .hv()
            .borrow()
            .clock()
            .advance_to(self.next_frame_ns);
        self.next_frame_ns = self.env.now_ns() + SENSOR_PERIOD_NS;
        self.sequence += 1;
        let frame_len = self.frame_bytes();
        {
            let buffer = &self.buffers[index as usize];
            // The device deposits an MJPG header + sequence stamp.
            let mut header = [0u8; 16];
            header[0..4].copy_from_slice(&0xffd8_ffe0u32.to_le_bytes()); // JPEG SOI/APP0
            header[4..12].copy_from_slice(&self.sequence.to_le_bytes());
            header[12..16].copy_from_slice(&(frame_len as u32).to_le_bytes());
            self.env
                .device_dma_write(DmaAddr::new(buffer.pages[0].raw()), &header)?;
        }
        self.buffers[index as usize].bytesused = frame_len;
        self.outgoing.push_back(index);
        Ok(index)
    }
}

impl FileOps for UvcDriver {
    fn open(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        if self.owner.is_some() {
            return Err(Errno::Ebusy);
        }
        self.owner = Some(ctx.handle);
        Ok(())
    }

    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        if self.owner == Some(ctx.handle) {
            self.owner = None;
            self.streaming = false;
            self.buffers.clear();
            self.incoming.clear();
            self.outgoing.clear();
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
        self.check_owner(ctx)?;
        let arg_ptr = GuestVirtAddr::new(arg);
        match cmd {
            VIDIOC_QUERYCAP => {
                let mut card = [0u8; 32];
                card[..28].copy_from_slice(b"Logitech HD Pro Webcam C920\0");
                mem.copy_to_user(arg_ptr, &card)?;
                Ok(0)
            }
            VIDIOC_S_FMT => {
                if self.streaming {
                    return Err(Errno::Ebusy);
                }
                let mut fmt = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut fmt)?;
                let width = u32::from_le_bytes(fmt[0..4].try_into().expect("len 4"));
                let height = u32::from_le_bytes(fmt[4..8].try_into().expect("len 4"));
                if !MJPG_RESOLUTIONS.contains(&(width, height)) {
                    return Err(Errno::Einval);
                }
                self.width = width;
                self.height = height;
                self.buffers.clear();
                // Report the negotiated sizeimage back.
                fmt[12..16].copy_from_slice(&(self.frame_bytes() as u32).to_le_bytes());
                mem.copy_to_user(arg_ptr, &fmt)?;
                Ok(0)
            }
            VIDIOC_REQBUFS => {
                if self.streaming {
                    return Err(Errno::Ebusy);
                }
                let count = mem.read_user_u32(arg_ptr)?.min(MAX_BUFFERS);
                if count == 0 {
                    return Err(Errno::Einval);
                }
                self.buffers.clear();
                self.incoming.clear();
                self.outgoing.clear();
                let pages = self.pages_per_buffer() as usize;
                let region = self
                    .env
                    .current_guest()
                    .and_then(|guest| self.env.region_of_guest(guest));
                for _ in 0..count {
                    let mut pool =
                        DmaPool::new(&self.env, pages, paradice_mem::Access::RW, region)?;
                    let mut buffer_pages = Vec::with_capacity(pages);
                    for _ in 0..pages {
                        buffer_pages.push(pool.take()?);
                    }
                    self.buffers.push(FrameBuffer {
                        pages: buffer_pages,
                        length: self.frame_bytes(),
                        bytesused: 0,
                    });
                }
                mem.write_user_u32(arg_ptr, count)?;
                Ok(0)
            }
            VIDIOC_QUERYBUF => {
                let mut req = [0u8; 16];
                mem.copy_from_user(arg_ptr, &mut req)?;
                let index = u32::from_le_bytes(req[0..4].try_into().expect("len 4"));
                let buffer = self
                    .buffers
                    .get(index as usize)
                    .ok_or(Errno::Einval)?;
                let span = self.pages_per_buffer() * PAGE_SIZE;
                req[4..8].copy_from_slice(&(buffer.length as u32).to_le_bytes());
                req[8..16].copy_from_slice(&(u64::from(index) * span).to_le_bytes());
                mem.copy_to_user(arg_ptr, &req)?;
                Ok(0)
            }
            VIDIOC_QBUF => {
                let index = mem.read_user_u32(arg_ptr)?;
                if index as usize >= self.buffers.len() {
                    return Err(Errno::Einval);
                }
                if self.incoming.contains(&index) || self.outgoing.contains(&index) {
                    return Err(Errno::Einval);
                }
                self.incoming.push_back(index);
                Ok(0)
            }
            VIDIOC_DQBUF => {
                if !self.streaming {
                    return Err(Errno::Einval);
                }
                // If no frame is ready yet, the caller blocks until the
                // sensor fills the next queued buffer.
                if self.outgoing.is_empty() {
                    self.capture_frame()?;
                }
                let index = self.outgoing.pop_front().expect("just captured");
                let buffer = &self.buffers[index as usize];
                let mut out = [0u8; 16];
                out[0..4].copy_from_slice(&index.to_le_bytes());
                out[4..8].copy_from_slice(&(buffer.bytesused as u32).to_le_bytes());
                out[8..16].copy_from_slice(&self.sequence.to_le_bytes());
                mem.copy_to_user(arg_ptr, &out)?;
                Ok(0)
            }
            VIDIOC_STREAMON => {
                if self.buffers.is_empty() {
                    return Err(Errno::Einval);
                }
                self.streaming = true;
                self.next_frame_ns = self.env.now_ns() + SENSOR_PERIOD_NS;
                Ok(0)
            }
            VIDIOC_STREAMOFF => {
                self.streaming = false;
                self.incoming.clear();
                self.outgoing.clear();
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
        self.check_owner(ctx)?;
        let span = self.pages_per_buffer() * PAGE_SIZE;
        if span == 0 || !range.offset.is_multiple_of(span) {
            return Err(Errno::Einval);
        }
        let index = (range.offset / span) as usize;
        let buffer = self.buffers.get(index).ok_or(Errno::Einval)?;
        let pages_needed = range.len.div_ceil(PAGE_SIZE) as usize;
        if pages_needed > buffer.pages.len() {
            return Err(Errno::Einval);
        }
        for (i, page) in buffer.pages.iter().take(pages_needed).enumerate() {
            mem.insert_pfn(
                range.va.add(i as u64 * PAGE_SIZE),
                page.page_number(),
                range.access,
            )?;
        }
        Ok(())
    }

    fn poll(&mut self, ctx: OpenContext) -> Result<PollEvents, Errno> {
        self.check_owner(ctx)?;
        Ok(if self.outgoing.is_empty() {
            PollEvents::NONE
        } else {
            PollEvents::IN
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::fileops::{OpenFlags, TaskId};
    use paradice_devfs::memops::BufferMemOps;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SimClock};
    use std::cell::RefCell;

    fn driver() -> UvcDriver {
        let mut hv = Hypervisor::new(4096, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 512 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        UvcDriver::new(env)
    }

    fn ctx(handle: u64) -> OpenContext {
        OpenContext {
            handle: FileHandleId(handle),
            task: TaskId(1),
            flags: OpenFlags::RDWR,
        }
    }

    fn set_format(drv: &mut UvcDriver, mem: &mut BufferMemOps, w: u32, h: u32) {
        let mut fmt = [0u8; 16];
        fmt[0..4].copy_from_slice(&w.to_le_bytes());
        fmt[4..8].copy_from_slice(&h.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &fmt).unwrap();
        drv.ioctl(ctx(1), mem, VIDIOC_S_FMT, 0).unwrap();
    }

    fn reqbufs(drv: &mut UvcDriver, mem: &mut BufferMemOps, count: u32) -> u32 {
        mem.write_user_u32(GuestVirtAddr::new(64), count).unwrap();
        drv.ioctl(ctx(1), mem, VIDIOC_REQBUFS, 64).unwrap();
        mem.read_user_u32(GuestVirtAddr::new(64)).unwrap()
    }

    fn qbuf(drv: &mut UvcDriver, mem: &mut BufferMemOps, index: u32) {
        mem.write_user_u32(GuestVirtAddr::new(96), index).unwrap();
        drv.ioctl(ctx(1), mem, VIDIOC_QBUF, 96).unwrap();
    }

    fn dqbuf(drv: &mut UvcDriver, mem: &mut BufferMemOps) -> (u32, u32) {
        drv.ioctl(ctx(1), mem, VIDIOC_DQBUF, 128).unwrap();
        let mut out = [0u8; 16];
        mem.copy_from_user(GuestVirtAddr::new(128), &mut out).unwrap();
        (
            u32::from_le_bytes(out[0..4].try_into().unwrap()),
            u32::from_le_bytes(out[4..8].try_into().unwrap()),
        )
    }

    #[test]
    fn exclusive_open() {
        let mut drv = driver();
        drv.open(ctx(1)).unwrap();
        assert_eq!(drv.open(ctx(2)), Err(Errno::Ebusy));
        drv.release(ctx(1)).unwrap();
        assert!(drv.open(ctx(2)).is_ok());
    }

    #[test]
    fn format_negotiation() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1920, 1080);
        assert_eq!((drv.width, drv.height), (1920, 1080));
        // sizeimage reported back.
        let size = mem.read_user_u32(GuestVirtAddr::new(12)).unwrap();
        assert_eq!(u64::from(size), mjpg_frame_bytes(1920, 1080));
        // Unsupported resolution rejected.
        let mut fmt = [0u8; 16];
        fmt[0..4].copy_from_slice(&640u32.to_le_bytes());
        fmt[4..8].copy_from_slice(&480u32.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &fmt).unwrap();
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, VIDIOC_S_FMT, 0),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn streaming_delivers_at_sensor_rate() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1280, 720);
        let granted = reqbufs(&mut drv, &mut mem, 4);
        assert_eq!(granted, 4);
        for i in 0..4 {
            qbuf(&mut drv, &mut mem, i);
        }
        drv.ioctl(ctx(1), &mut mem, VIDIOC_STREAMON, 0).unwrap();
        let start = drv.env.now_ns();
        let mut frames = 0u64;
        for _ in 0..30 {
            let (index, bytesused) = dqbuf(&mut drv, &mut mem);
            assert_eq!(u64::from(bytesused), mjpg_frame_bytes(1280, 720));
            frames += 1;
            qbuf(&mut drv, &mut mem, index);
        }
        let elapsed = drv.env.now_ns() - start;
        let fps = frames as f64 / (elapsed as f64 / 1e9);
        assert!((29.0..30.0).contains(&fps), "fps = {fps}");
    }

    #[test]
    fn dqbuf_requires_streaming_and_queued_buffers() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1280, 720);
        reqbufs(&mut drv, &mut mem, 2);
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, VIDIOC_DQBUF, 128),
            Err(Errno::Einval)
        );
        drv.ioctl(ctx(1), &mut mem, VIDIOC_STREAMON, 0).unwrap();
        // Streaming but nothing queued: still EINVAL.
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, VIDIOC_DQBUF, 128),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn double_qbuf_rejected() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1280, 720);
        reqbufs(&mut drv, &mut mem, 2);
        qbuf(&mut drv, &mut mem, 0);
        mem.write_user_u32(GuestVirtAddr::new(96), 0).unwrap();
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, VIDIOC_QBUF, 96),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn mmap_installs_buffer_pages() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1280, 720);
        reqbufs(&mut drv, &mut mem, 2);
        // QUERYBUF for index 1 to get the mmap offset.
        let mut req = [0u8; 16];
        req[0..4].copy_from_slice(&1u32.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(160), &req).unwrap();
        drv.ioctl(ctx(1), &mut mem, VIDIOC_QUERYBUF, 160).unwrap();
        let mut out = [0u8; 16];
        mem.copy_from_user(GuestVirtAddr::new(160), &mut out).unwrap();
        let offset = u64::from_le_bytes(out[8..16].try_into().unwrap());
        let len = u64::from(u32::from_le_bytes(out[4..8].try_into().unwrap()));
        drv.mmap(
            ctx(1),
            &mut mem,
            MmapRange {
                va: GuestVirtAddr::new(0x10_0000),
                len,
                offset,
                access: paradice_mem::Access::RW,
            },
        )
        .unwrap();
        let expected_pages = mjpg_frame_bytes(1280, 720).div_ceil(PAGE_SIZE) as usize;
        assert_eq!(mem.mappings().len(), expected_pages);
    }

    #[test]
    fn frame_header_reaches_buffer_via_dma() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        set_format(&mut drv, &mut mem, 1280, 720);
        reqbufs(&mut drv, &mut mem, 1);
        qbuf(&mut drv, &mut mem, 0);
        drv.ioctl(ctx(1), &mut mem, VIDIOC_STREAMON, 0).unwrap();
        let (index, _) = dqbuf(&mut drv, &mut mem);
        let page = drv.buffers[index as usize].pages[0];
        let mut header = [0u8; 4];
        drv.env.kernel_read(page, &mut header).unwrap();
        assert_eq!(u32::from_le_bytes(header), 0xffd8_ffe0);
    }

    #[test]
    fn non_owner_calls_rejected() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        drv.open(ctx(1)).unwrap();
        assert_eq!(
            drv.ioctl(ctx(9), &mut mem, VIDIOC_STREAMON, 0),
            Err(Errno::Ebusy)
        );
    }
}
