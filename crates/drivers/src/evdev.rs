//! Input devices: evdev-style mouse and keyboard.
//!
//! The input path exercises the paper's *asynchronous notification* plumbing
//! (§2.1, §5.1): the device reports an event, the driver queues it per
//! client and fires `fasync`; under Paradice the CVD backend forwards the
//! signal to the frontend over the shared-page channel, and the application's
//! subsequent `read` is forwarded back. §6.1.5 measures exactly this path
//! for the mouse (39/55/296/179 µs for native / assignment / Paradice /
//! Paradice-polling).

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use paradice_devfs::fasync::{FasyncRegistry, Signal};
use paradice_devfs::fileops::{FileOps, OpenContext, PollEvents, UserBuffer};
use paradice_devfs::registry::FileHandleId;
use paradice_devfs::{Errno, MemOps};

use crate::env::KernelEnv;

/// Size of one serialized input event: 8-byte timestamp (µs), 2-byte type,
/// 2-byte code, 4-byte value (the 32-bit `struct input_event` layout).
pub const EVENT_BYTES: u64 = 16;

/// Event types (Linux `EV_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// Relative axis (mouse motion), `EV_REL`.
    Relative,
    /// Key/button, `EV_KEY`.
    Key,
    /// Synchronization marker, `EV_SYN`.
    Sync,
}

impl EventKind {
    const fn code(self) -> u16 {
        match self {
            EventKind::Sync => 0,
            EventKind::Key => 1,
            EventKind::Relative => 2,
        }
    }

    fn from_code(code: u16) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Sync),
            1 => Some(EventKind::Key),
            2 => Some(EventKind::Relative),
            _ => None,
        }
    }
}

/// One input event as reported by the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputEvent {
    /// Device timestamp in microseconds of virtual time.
    pub time_us: u64,
    /// Event type.
    pub kind: EventKind,
    /// Event code (`REL_X`, `KEY_A`, …).
    pub code: u16,
    /// Event value (relative delta, key state).
    pub value: i32,
}

impl InputEvent {
    /// Serializes to the 16-byte wire layout.
    pub fn to_bytes(&self) -> [u8; EVENT_BYTES as usize] {
        let mut bytes = [0u8; EVENT_BYTES as usize];
        bytes[0..8].copy_from_slice(&self.time_us.to_le_bytes());
        bytes[8..10].copy_from_slice(&self.kind.code().to_le_bytes());
        bytes[10..12].copy_from_slice(&self.code.to_le_bytes());
        bytes[12..16].copy_from_slice(&self.value.to_le_bytes());
        bytes
    }

    /// Parses the 16-byte wire layout.
    pub fn from_bytes(bytes: &[u8; EVENT_BYTES as usize]) -> Option<InputEvent> {
        Some(InputEvent {
            time_us: u64::from_le_bytes(bytes[0..8].try_into().expect("len 8")),
            kind: EventKind::from_code(u16::from_le_bytes(
                bytes[8..10].try_into().expect("len 2"),
            ))?,
            code: u16::from_le_bytes(bytes[10..12].try_into().expect("len 2")),
            value: i32::from_le_bytes(bytes[12..16].try_into().expect("len 4")),
        })
    }
}

/// Per-client event queue capacity.
const CLIENT_QUEUE_CAP: usize = 256;

/// The evdev driver: queues device events per client, supports `read`,
/// `poll` and `fasync`.
pub struct EvdevDriver {
    env: Rc<KernelEnv>,
    name: &'static str,
    queues: BTreeMap<FileHandleId, VecDeque<InputEvent>>,
    fasync: FasyncRegistry,
    /// Virtual time the most recent event was reported to the driver — the
    /// start of the §6.1.5 latency measurement.
    last_report_ns: Option<u64>,
    /// Virtual time the most recent `read` reached the driver — the end of
    /// the §6.1.5 latency measurement.
    last_read_arrival_ns: Option<u64>,
    dropped_events: u64,
}

impl std::fmt::Debug for EvdevDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvdevDriver")
            .field("name", &self.name)
            .field("clients", &self.queues.len())
            .field("dropped_events", &self.dropped_events)
            .finish()
    }
}

impl EvdevDriver {
    /// Creates the driver (e.g. `"evdev/usbmouse"`).
    pub fn new(env: Rc<KernelEnv>, name: &'static str) -> Self {
        EvdevDriver {
            env,
            name,
            queues: BTreeMap::new(),
            fasync: FasyncRegistry::new(),
            last_report_ns: None,
            last_read_arrival_ns: None,
            dropped_events: 0,
        }
    }

    /// The Dell USB mouse of Table 1.
    pub fn usb_mouse(env: Rc<KernelEnv>) -> Self {
        EvdevDriver::new(env, "evdev/usbmouse")
    }

    /// The Dell USB keyboard of Table 1.
    pub fn usb_keyboard(env: Rc<KernelEnv>) -> Self {
        EvdevDriver::new(env, "evdev/usbkbd")
    }

    /// The device interrupt handler: the hardware reported `event`. Queues
    /// it for every client and returns the `fasync` signals to deliver
    /// (which the kernel — or the CVD backend — routes to subscribers).
    pub fn report_event(&mut self, event: InputEvent) -> Vec<Signal> {
        self.last_report_ns = Some(self.env.now_ns());
        for queue in self.queues.values_mut() {
            if queue.len() >= CLIENT_QUEUE_CAP {
                queue.pop_front();
                self.dropped_events += 1;
            }
            queue.push_back(event);
        }
        self.fasync.signals()
    }

    /// Start of the latest event's latency measurement (§6.1.5).
    pub fn last_report_ns(&self) -> Option<u64> {
        self.last_report_ns
    }

    /// When the latest `read` reached the driver (§6.1.5: "we measure the
    /// time from when the mouse event is reported to the device driver to
    /// when the read operation issued by the application reaches the
    /// driver").
    pub fn last_read_arrival_ns(&self) -> Option<u64> {
        self.last_read_arrival_ns
    }

    /// Events dropped to queue overflow.
    pub fn dropped_events(&self) -> u64 {
        self.dropped_events
    }

    /// Pending events for a client (tests).
    pub fn pending(&self, handle: FileHandleId) -> usize {
        self.queues.get(&handle).map_or(0, |q| q.len())
    }
}

impl FileOps for EvdevDriver {
    fn open(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        self.queues.insert(ctx.handle, VecDeque::new());
        Ok(())
    }

    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        self.queues.remove(&ctx.handle);
        self.fasync.drop_handle(ctx.handle);
        Ok(())
    }

    fn read(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        buf: UserBuffer,
    ) -> Result<u64, Errno> {
        self.last_read_arrival_ns = Some(self.env.now_ns());
        let queue = self.queues.get_mut(&ctx.handle).ok_or(Errno::Ebadf)?;
        if buf.len < EVENT_BYTES {
            return Err(Errno::Einval);
        }
        if queue.is_empty() {
            return Err(Errno::Eagain);
        }
        let max_events = (buf.len / EVENT_BYTES) as usize;
        let mut written = 0u64;
        let mut cursor = buf.addr;
        for _ in 0..max_events {
            let Some(event) = queue.pop_front() else {
                break;
            };
            mem.copy_to_user(cursor, &event.to_bytes())?;
            cursor = cursor.add(EVENT_BYTES);
            written += EVENT_BYTES;
        }
        Ok(written)
    }

    fn poll(&mut self, ctx: OpenContext) -> Result<PollEvents, Errno> {
        let queue = self.queues.get(&ctx.handle).ok_or(Errno::Ebadf)?;
        Ok(if queue.is_empty() {
            PollEvents::NONE
        } else {
            PollEvents::IN
        })
    }

    fn fasync(&mut self, ctx: OpenContext, on: bool) -> Result<(), Errno> {
        self.fasync.set(ctx.task, ctx.handle, on);
        Ok(())
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
    use paradice_mem::{GuestVirtAddr, PAGE_SIZE};
    use std::cell::RefCell;

    fn driver() -> EvdevDriver {
        let mut hv = Hypervisor::new(256, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        EvdevDriver::usb_mouse(env)
    }

    fn ctx(handle: u64, task: u64) -> OpenContext {
        OpenContext {
            handle: FileHandleId(handle),
            task: TaskId(task),
            flags: OpenFlags::RDONLY.nonblocking(),
        }
    }

    fn motion(dx: i32) -> InputEvent {
        InputEvent {
            time_us: 0,
            kind: EventKind::Relative,
            code: 0, // REL_X
            value: dx,
        }
    }

    #[test]
    fn event_wire_roundtrip() {
        let event = InputEvent {
            time_us: 123_456,
            kind: EventKind::Key,
            code: 30,
            value: 1,
        };
        assert_eq!(InputEvent::from_bytes(&event.to_bytes()), Some(event));
    }

    #[test]
    fn read_returns_queued_events() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(256);
        drv.open(ctx(1, 1)).unwrap();
        drv.report_event(motion(5));
        drv.report_event(motion(-3));
        let n = drv
            .read(ctx(1, 1), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 64))
            .unwrap();
        assert_eq!(n, 2 * EVENT_BYTES);
        let first = InputEvent::from_bytes(mem.bytes()[0..16].try_into().unwrap()).unwrap();
        assert_eq!(first.value, 5);
        let second = InputEvent::from_bytes(mem.bytes()[16..32].try_into().unwrap()).unwrap();
        assert_eq!(second.value, -3);
    }

    #[test]
    fn empty_queue_is_eagain() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(64);
        drv.open(ctx(1, 1)).unwrap();
        assert_eq!(
            drv.read(ctx(1, 1), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 16)),
            Err(Errno::Eagain)
        );
    }

    #[test]
    fn tiny_buffer_is_einval() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(64);
        drv.open(ctx(1, 1)).unwrap();
        assert_eq!(
            drv.read(ctx(1, 1), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 8)),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn poll_reflects_queue() {
        let mut drv = driver();
        drv.open(ctx(1, 1)).unwrap();
        assert_eq!(drv.poll(ctx(1, 1)).unwrap(), PollEvents::NONE);
        drv.report_event(motion(1));
        assert_eq!(drv.poll(ctx(1, 1)).unwrap(), PollEvents::IN);
    }

    #[test]
    fn fasync_signals_on_event() {
        let mut drv = driver();
        drv.open(ctx(1, 7)).unwrap();
        drv.fasync(ctx(1, 7), true).unwrap();
        let signals = drv.report_event(motion(1));
        assert_eq!(signals.len(), 1);
        assert_eq!(signals[0].task, TaskId(7));
        drv.fasync(ctx(1, 7), false).unwrap();
        assert!(drv.report_event(motion(1)).is_empty());
    }

    #[test]
    fn each_client_gets_every_event() {
        let mut drv = driver();
        drv.open(ctx(1, 1)).unwrap();
        drv.open(ctx(2, 2)).unwrap();
        drv.report_event(motion(9));
        assert_eq!(drv.pending(FileHandleId(1)), 1);
        assert_eq!(drv.pending(FileHandleId(2)), 1);
    }

    #[test]
    fn queue_overflow_drops_oldest() {
        let mut drv = driver();
        drv.open(ctx(1, 1)).unwrap();
        for i in 0..(CLIENT_QUEUE_CAP as i32 + 10) {
            drv.report_event(motion(i));
        }
        assert_eq!(drv.pending(FileHandleId(1)), CLIENT_QUEUE_CAP);
        assert_eq!(drv.dropped_events(), 10);
    }

    #[test]
    fn release_cleans_up() {
        let mut drv = driver();
        drv.open(ctx(1, 1)).unwrap();
        drv.fasync(ctx(1, 1), true).unwrap();
        drv.release(ctx(1, 1)).unwrap();
        assert!(drv.report_event(motion(1)).is_empty());
        let mut mem = BufferMemOps::new(64);
        assert_eq!(
            drv.read(ctx(1, 1), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 16)),
            Err(Errno::Ebadf)
        );
    }

    #[test]
    fn latency_probes_record_times() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(64);
        drv.open(ctx(1, 1)).unwrap();
        drv.env.hv().borrow().clock().advance(1_000);
        drv.report_event(motion(2));
        assert_eq!(drv.last_report_ns(), Some(1_000));
        drv.env.hv().borrow().clock().advance(39_000);
        drv.read(ctx(1, 1), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 16))
            .unwrap();
        assert_eq!(drv.last_read_arrival_ns(), Some(40_000));
    }
}
