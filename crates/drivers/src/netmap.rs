//! Ethernet for the netmap framework: an e1000-style NIC with netmap rings.
//!
//! netmap [Rizzo, USENIX ATC'12] maps NIC descriptor rings and packet
//! buffers straight into the application, which then sends "packets at the
//! line rate" using one `poll`/`NIOCTXSYNC` per *batch*. The paper uses this
//! as its highest-rate stress test (Figure 2): per-batch forwarding overhead
//! is Paradice's only cost, so the transmit rate converges to native as the
//! batch grows — with polling mode converging at a batch of ~4 and interrupt
//! mode needing tens of packets per batch (§6.1.2).
//!
//! Layout of the `mmap`'d region (offsets in bytes):
//!
//! ```text
//! 0                .. PAGE     TX ring page (head/tail/nslots + slots)
//! PAGE             .. 2·PAGE   RX ring page
//! 2·PAGE           .. +N·PAGE  TX packet buffers (one page each)
//! 2·PAGE + N·PAGE  .. +N·PAGE  RX packet buffers
//! ```
//!
//! Ring page layout: `u32 head, u32 tail, u32 num_slots, u32 pad`, then
//! `num_slots` slots of `{u32 len, u32 buf_index}`. The producer (app for
//! TX) advances `head`; the consumer (NIC) advances `tail`; the ring is full
//! when `(head + 1) % N == tail` (a simplified-but-faithful SPSC contract).

use std::collections::VecDeque;
use std::rc::Rc;

use paradice_devfs::fileops::{FileOps, MmapRange, OpenContext, PollEvents};
use paradice_devfs::ioc::{io, iowr, IoctlCmd};
use paradice_devfs::registry::FileHandleId;
use paradice_devfs::{Errno, MemOps};
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

use crate::env::{DmaPool, KernelEnv};

/// `NIOCGINFO`: `{u32 num_slots, u32 buf_size}` out.
pub const NIOCGINFO: IoctlCmd = iowr(b'i', 145, 8);
/// `NIOCREGIF`: `{u32 num_slots, u32 buf_size, u64 memsize}` out.
pub const NIOCREGIF: IoctlCmd = iowr(b'i', 146, 16);
/// `NIOCTXSYNC`.
pub const NIOCTXSYNC: IoctlCmd = io(b'i', 148);
/// `NIOCRXSYNC`.
pub const NIOCRXSYNC: IoctlCmd = io(b'i', 149);

/// Slots per ring (netmap's default for e1000 is 256).
pub const NUM_SLOTS: u32 = 256;

/// Maximum packet bytes per buffer (netmap's default buffer is 2048).
pub const BUF_SIZE: u32 = 2048;

/// Nanoseconds on a 1 Gbps wire for a frame of `len` payload bytes:
/// Ethernet pads to 60 bytes and adds 4 CRC + 8 preamble + 12 IFG.
pub fn wire_ns(len: u32) -> u64 {
    let on_wire = u64::from(len.max(60)) + 4 + 8 + 12;
    on_wire * 8 // 1 Gbps = 1 bit/ns
}

/// Line rate in packets/s for 64-byte packets: the 1.488 Mpps of Figure 2.
pub fn line_rate_pps(len: u32) -> f64 {
    1e9 / wire_ns(len) as f64
}

const RING_HEAD_OFF: u64 = 0;
const RING_TAIL_OFF: u64 = 4;
const RING_NSLOTS_OFF: u64 = 8;
const RING_SLOTS_OFF: u64 = 16;

/// The netmap-mode NIC driver plus its link model.
pub struct NetmapDriver {
    env: Rc<KernelEnv>,
    owner: Option<FileHandleId>,
    registered: bool,
    tx_ring: Option<GuestPhysAddr>,
    rx_ring: Option<GuestPhysAddr>,
    tx_bufs: Vec<GuestPhysAddr>,
    rx_bufs: Vec<GuestPhysAddr>,
    /// TX slots handed to the NIC: `(finish_ns, slot_index)` in wire order.
    inflight: VecDeque<(u64, u32)>,
    /// When the transmitter finishes everything queued so far.
    nic_busy_until_ns: u64,
    last_tx_head: u32,
    tx_tail: u32,
    tx_packets: u64,
    /// RX generator: when enabled, frames of `rx_frame_len` arrive back to
    /// back at line rate.
    rx_enabled: bool,
    rx_frame_len: u32,
    rx_next_arrival_ns: u64,
    rx_head: u32,
    rx_packets: u64,
}

impl std::fmt::Debug for NetmapDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetmapDriver")
            .field("registered", &self.registered)
            .field("tx_packets", &self.tx_packets)
            .field("rx_packets", &self.rx_packets)
            .field("nic_busy_until_ns", &self.nic_busy_until_ns)
            .finish()
    }
}

impl NetmapDriver {
    /// Creates the driver for the Intel Gigabit Adapter of Table 1.
    pub fn new(env: Rc<KernelEnv>) -> Self {
        NetmapDriver {
            env,
            owner: None,
            registered: false,
            tx_ring: None,
            rx_ring: None,
            tx_bufs: Vec::new(),
            rx_bufs: Vec::new(),
            inflight: VecDeque::new(),
            nic_busy_until_ns: 0,
            last_tx_head: 0,
            tx_tail: 0,
            tx_packets: 0,
            rx_enabled: false,
            rx_frame_len: 64,
            rx_next_arrival_ns: 0,
            rx_head: 0,
            rx_packets: 0,
        }
    }

    /// Total packets handed to the wire.
    pub fn tx_packets(&self) -> u64 {
        self.tx_packets
    }

    /// Total packets delivered to the RX ring.
    pub fn rx_packets(&self) -> u64 {
        self.rx_packets
    }

    /// When the transmitter will drain everything queued so far.
    pub fn nic_busy_until_ns(&self) -> u64 {
        self.nic_busy_until_ns
    }

    /// Enables the RX traffic generator: `frame_len`-byte frames arriving
    /// back to back at line rate (for receive-path experiments).
    pub fn enable_rx_generator(&mut self, frame_len: u32) {
        self.rx_enabled = true;
        self.rx_frame_len = frame_len.clamp(60, BUF_SIZE);
        self.rx_next_arrival_ns = self.env.now_ns() + wire_ns(self.rx_frame_len);
    }

    fn check_owner(&self, ctx: OpenContext) -> Result<(), Errno> {
        match self.owner {
            Some(owner) if owner == ctx.handle => Ok(()),
            Some(_) => Err(Errno::Ebusy),
            None => Err(Errno::Ebadf),
        }
    }

    fn ring_read_u32(&self, ring: GuestPhysAddr, off: u64) -> Result<u32, Errno> {
        let mut raw = [0u8; 4];
        self.env.kernel_read(ring.add(off), &mut raw)?;
        Ok(u32::from_le_bytes(raw))
    }

    fn ring_write_u32(&self, ring: GuestPhysAddr, off: u64, value: u32) -> Result<(), Errno> {
        self.env.kernel_write(ring.add(off), &value.to_le_bytes())
    }

    fn slot_len(&self, ring: GuestPhysAddr, slot: u32) -> Result<u32, Errno> {
        self.ring_read_u32(ring, RING_SLOTS_OFF + u64::from(slot) * 8)
    }

    /// Retires completed transmissions: slots whose wire time has passed
    /// free up, advancing `tail`.
    fn reap_tx(&mut self) -> Result<(), Errno> {
        let now = self.env.now_ns();
        while let Some(&(finish, _slot)) = self.inflight.front() {
            if finish > now {
                break;
            }
            self.inflight.pop_front();
            self.tx_tail = (self.tx_tail + 1) % NUM_SLOTS;
        }
        if let Some(ring) = self.tx_ring {
            self.ring_write_u32(ring, RING_TAIL_OFF, self.tx_tail)?;
        }
        Ok(())
    }

    fn tx_free_slots(&self) -> u32 {
        let used = (self.last_tx_head + NUM_SLOTS - self.tx_tail) % NUM_SLOTS;
        NUM_SLOTS - 1 - used
    }

    /// The TX half of `NIOCTXSYNC`: pick up new slots `[last_head, head)`,
    /// validate them, and queue them on the wire.
    fn txsync(&mut self) -> Result<(), Errno> {
        let ring = self.tx_ring.ok_or(Errno::Einval)?;
        self.reap_tx()?;
        let head = self.ring_read_u32(ring, RING_HEAD_OFF)? % NUM_SLOTS;
        let mut cursor = self.last_tx_head;
        let now = self.env.now_ns();
        let mut busy = self.nic_busy_until_ns.max(now);
        while cursor != head {
            let len = self.slot_len(ring, cursor)?;
            if len == 0 || len > BUF_SIZE {
                return Err(Errno::Einval);
            }
            // The NIC DMA-reads the frame from its buffer page (probe the
            // first bytes to exercise the IOMMU path).
            let buf = self.tx_bufs[cursor as usize];
            let mut probe = [0u8; 16];
            self.env
                .device_dma_read(paradice_mem::DmaAddr::new(buf.raw()), &mut probe)?;
            busy += wire_ns(len);
            self.inflight.push_back((busy, cursor));
            self.tx_packets += 1;
            cursor = (cursor + 1) % NUM_SLOTS;
        }
        self.nic_busy_until_ns = busy;
        self.last_tx_head = head;
        self.reap_tx()
    }

    /// The RX half of `NIOCRXSYNC`: deliver generated frames that have
    /// arrived since the last sync into free RX slots.
    fn rxsync(&mut self) -> Result<u32, Errno> {
        let ring = self.rx_ring.ok_or(Errno::Einval)?;
        if !self.rx_enabled {
            return Ok(0);
        }
        let now = self.env.now_ns();
        let consumer_tail = self.ring_read_u32(ring, RING_TAIL_OFF)? % NUM_SLOTS;
        let mut delivered = 0u32;
        while self.rx_next_arrival_ns <= now {
            let next_head = (self.rx_head + 1) % NUM_SLOTS;
            if next_head == consumer_tail {
                break; // ring full; the generator drops (like real traffic)
            }
            let slot = self.rx_head;
            let buf = self.rx_bufs[slot as usize];
            let mut frame_header = [0u8; 16];
            frame_header[0..8].copy_from_slice(&self.rx_packets.to_le_bytes());
            frame_header[8..12].copy_from_slice(&self.rx_frame_len.to_le_bytes());
            self.env
                .device_dma_write(paradice_mem::DmaAddr::new(buf.raw()), &frame_header)?;
            self.ring_write_u32(
                ring,
                RING_SLOTS_OFF + u64::from(slot) * 8,
                self.rx_frame_len,
            )?;
            self.rx_head = next_head;
            self.rx_packets += 1;
            delivered += 1;
            self.rx_next_arrival_ns += wire_ns(self.rx_frame_len);
        }
        self.ring_write_u32(ring, RING_HEAD_OFF, self.rx_head)?;
        Ok(delivered)
    }
}

impl FileOps for NetmapDriver {
    fn open(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        if self.owner.is_some() {
            // netmap's driver "only allow[s] access from one guest VM at a
            // time" (§5.1).
            return Err(Errno::Ebusy);
        }
        self.owner = Some(ctx.handle);
        Ok(())
    }

    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        if self.owner == Some(ctx.handle) {
            self.owner = None;
            self.registered = false;
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
            NIOCGINFO => {
                let mut info = [0u8; 8];
                info[0..4].copy_from_slice(&NUM_SLOTS.to_le_bytes());
                info[4..8].copy_from_slice(&BUF_SIZE.to_le_bytes());
                mem.copy_to_user(arg_ptr, &info)?;
                Ok(0)
            }
            NIOCREGIF => {
                if !self.registered {
                    let mut pool = DmaPool::new(
                        &self.env,
                        2 + 2 * NUM_SLOTS as usize,
                        Access::RW,
                        None,
                    )?;
                    let tx_ring = pool.take()?;
                    let rx_ring = pool.take()?;
                    self.tx_bufs = (0..NUM_SLOTS).map(|_| pool.take()).collect::<Result<_, _>>()?;
                    self.rx_bufs = (0..NUM_SLOTS).map(|_| pool.take()).collect::<Result<_, _>>()?;
                    self.ring_write_u32(tx_ring, RING_NSLOTS_OFF, NUM_SLOTS)?;
                    self.ring_write_u32(rx_ring, RING_NSLOTS_OFF, NUM_SLOTS)?;
                    self.tx_ring = Some(tx_ring);
                    self.rx_ring = Some(rx_ring);
                    self.registered = true;
                }
                let memsize = (2 + 2 * u64::from(NUM_SLOTS)) * PAGE_SIZE;
                let mut reg = [0u8; 16];
                reg[0..4].copy_from_slice(&NUM_SLOTS.to_le_bytes());
                reg[4..8].copy_from_slice(&BUF_SIZE.to_le_bytes());
                reg[8..16].copy_from_slice(&memsize.to_le_bytes());
                mem.copy_to_user(arg_ptr, &reg)?;
                Ok(0)
            }
            NIOCTXSYNC => {
                self.txsync()?;
                Ok(0)
            }
            NIOCRXSYNC => {
                let delivered = self.rxsync()?;
                Ok(i64::from(delivered))
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
        if !self.registered {
            return Err(Errno::Einval);
        }
        if !range.va.is_page_aligned() || !range.offset.is_multiple_of(PAGE_SIZE) {
            return Err(Errno::Einval);
        }
        let pages = range.len.div_ceil(PAGE_SIZE);
        let layout: Vec<GuestPhysAddr> = {
            let mut all = Vec::with_capacity(2 + 2 * NUM_SLOTS as usize);
            all.push(self.tx_ring.expect("registered"));
            all.push(self.rx_ring.expect("registered"));
            all.extend_from_slice(&self.tx_bufs);
            all.extend_from_slice(&self.rx_bufs);
            all
        };
        let first = (range.offset / PAGE_SIZE) as usize;
        for i in 0..pages as usize {
            let page = layout.get(first + i).ok_or(Errno::Einval)?;
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
        if !self.registered {
            return Ok(PollEvents::ERR);
        }
        // netmap's poll performs the syncs itself; the TX side blocks until
        // ring space is available.
        self.txsync()?;
        if self.tx_free_slots() == 0 {
            if let Some(&(finish, _)) = self.inflight.front() {
                self.env.hv().borrow().clock().advance_to(finish);
            }
            self.reap_tx()?;
        }
        let mut events = PollEvents::NONE;
        if self.tx_free_slots() > 0 {
            events = events | PollEvents::OUT;
        }
        if self.rxsync()? > 0 {
            events = events | PollEvents::IN;
        }
        Ok(events)
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

    fn driver() -> NetmapDriver {
        let mut hv = Hypervisor::new(8192, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 2048 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        NetmapDriver::new(env)
    }

    fn ctx(handle: u64) -> OpenContext {
        OpenContext {
            handle: FileHandleId(handle),
            task: TaskId(1),
            flags: OpenFlags::RDWR,
        }
    }

    fn register(drv: &mut NetmapDriver, mem: &mut BufferMemOps) {
        drv.open(ctx(1)).unwrap();
        drv.ioctl(ctx(1), mem, NIOCREGIF, 0).unwrap();
    }

    /// Simulates the application writing `n` packets of `len` bytes through
    /// its mapped ring (the mapped page *is* the ring page, so writing via
    /// the kernel alias is the same memory).
    fn produce(drv: &mut NetmapDriver, n: u32, len: u32) {
        let ring = drv.tx_ring.unwrap();
        let head = drv.ring_read_u32(ring, RING_HEAD_OFF).unwrap();
        for i in 0..n {
            let slot = (head + i) % NUM_SLOTS;
            drv.ring_write_u32(ring, RING_SLOTS_OFF + u64::from(slot) * 8, len)
                .unwrap();
        }
        drv.ring_write_u32(ring, RING_HEAD_OFF, (head + n) % NUM_SLOTS)
            .unwrap();
    }

    #[test]
    fn wire_time_matches_line_rate() {
        assert_eq!(wire_ns(64), (64 + 24) * 8);
        let pps = line_rate_pps(64);
        assert!((1.40e6..1.45e6).contains(&pps), "pps = {pps}");
        // Short frames pad to 60 bytes.
        assert_eq!(wire_ns(1), wire_ns(60));
    }

    #[test]
    fn registration_reports_geometry() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        let slots = mem.read_user_u32(GuestVirtAddr::new(0)).unwrap();
        assert_eq!(slots, NUM_SLOTS);
        let memsize = mem.read_user_u64(GuestVirtAddr::new(8)).unwrap();
        assert_eq!(memsize, (2 + 2 * u64::from(NUM_SLOTS)) * PAGE_SIZE);
    }

    #[test]
    fn txsync_transmits_produced_packets() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        produce(&mut drv, 10, 64);
        drv.ioctl(ctx(1), &mut mem, NIOCTXSYNC, 0).unwrap();
        assert_eq!(drv.tx_packets(), 10);
        assert_eq!(
            drv.nic_busy_until_ns(),
            drv.env.now_ns() + 10 * wire_ns(64)
        );
    }

    #[test]
    fn invalid_slot_length_rejected() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        produce(&mut drv, 1, BUF_SIZE + 1);
        assert_eq!(
            drv.ioctl(ctx(1), &mut mem, NIOCTXSYNC, 0),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn ring_full_poll_blocks_until_drain() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        // Fill the ring completely (255 usable slots).
        produce(&mut drv, NUM_SLOTS - 1, 64);
        drv.ioctl(ctx(1), &mut mem, NIOCTXSYNC, 0).unwrap();
        assert_eq!(drv.tx_free_slots(), 0);
        let before = drv.env.now_ns();
        let events = drv.poll(ctx(1)).unwrap();
        assert!(events.contains(PollEvents::OUT));
        assert!(drv.env.now_ns() > before, "poll had to wait for the wire");
    }

    #[test]
    fn sustained_tx_hits_line_rate() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        let start = drv.env.now_ns();
        let total = 100_000u64;
        let batch = 64u32;
        let mut sent = 0u64;
        while sent < total {
            // Wait for space, then produce a batch.
            let events = drv.poll(ctx(1)).unwrap();
            assert!(events.contains(PollEvents::OUT));
            let n = batch.min(drv.tx_free_slots()).min((total - sent) as u32);
            produce(&mut drv, n, 64);
            drv.ioctl(ctx(1), &mut mem, NIOCTXSYNC, 0).unwrap();
            sent += u64::from(n);
        }
        let end = drv.nic_busy_until_ns().max(drv.env.now_ns());
        let pps = sent as f64 / ((end - start) as f64 / 1e9);
        let line = line_rate_pps(64);
        assert!(
            pps > 0.99 * line && pps <= line * 1.01,
            "pps = {pps}, line = {line}"
        );
    }

    #[test]
    fn rx_generator_delivers_frames() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        drv.enable_rx_generator(64);
        // Let 100 frames' worth of wire time pass.
        drv.env.hv().borrow().clock().advance(100 * wire_ns(64));
        let delivered = drv.ioctl(ctx(1), &mut mem, NIOCRXSYNC, 0).unwrap();
        assert_eq!(delivered, 100);
        assert_eq!(drv.rx_packets(), 100);
        // The first frame's header landed in the first RX buffer.
        let buf = drv.rx_bufs[0];
        let mut header = [0u8; 8];
        drv.env.kernel_read(buf, &mut header).unwrap();
        assert_eq!(u64::from_le_bytes(header), 0);
    }

    #[test]
    fn rx_ring_overflow_drops() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        drv.enable_rx_generator(64);
        // Far more arrivals than ring capacity.
        drv.env.hv().borrow().clock().advance(1_000 * wire_ns(64));
        let delivered = drv.ioctl(ctx(1), &mut mem, NIOCRXSYNC, 0).unwrap();
        assert_eq!(delivered, i64::from(NUM_SLOTS) - 1);
    }

    #[test]
    fn mmap_layout() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        register(&mut drv, &mut mem);
        // Map the TX ring page and the first two TX buffers.
        drv.mmap(
            ctx(1),
            &mut mem,
            MmapRange {
                va: GuestVirtAddr::new(0x100000),
                len: PAGE_SIZE,
                offset: 0,
                access: Access::RW,
            },
        )
        .unwrap();
        drv.mmap(
            ctx(1),
            &mut mem,
            MmapRange {
                va: GuestVirtAddr::new(0x200000),
                len: 2 * PAGE_SIZE,
                offset: 2 * PAGE_SIZE,
                access: Access::RW,
            },
        )
        .unwrap();
        assert_eq!(mem.mappings().len(), 3);
        assert_eq!(mem.mappings()[0].1, drv.tx_ring.unwrap().page_number());
        assert_eq!(mem.mappings()[1].1, drv.tx_bufs[0].page_number());
        // Out-of-range offset rejected.
        assert_eq!(
            drv.mmap(
                ctx(1),
                &mut mem,
                MmapRange {
                    va: GuestVirtAddr::new(0x300000),
                    len: PAGE_SIZE,
                    offset: (2 + 2 * u64::from(NUM_SLOTS)) * PAGE_SIZE,
                    access: Access::RW,
                },
            ),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn exclusive_open() {
        let mut drv = driver();
        drv.open(ctx(1)).unwrap();
        assert_eq!(drv.open(ctx(2)), Err(Errno::Ebusy));
    }
}
