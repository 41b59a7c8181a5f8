//! CVD pair contract tests: frontend + backend + a real driver, assembled
//! by hand (no machine facade). Pins the layer's own behaviour: handle
//! mapping, grant lifecycle, notification routing, queue caps, and the
//! transport statistics.

use std::cell::RefCell;
use std::rc::Rc;

use paradice_cvd::backend::{Backend, DEFAULT_QUEUE_CAP};
use paradice_cvd::frontend::{Frontend, OsPersonality};
use paradice_cvd::sharing::{SharingPolicy, VirtualTerminals};
use paradice_devfs::fileops::{OpenFlags, TaskId};
use paradice_devfs::registry::OpenPolicy;
use paradice_devfs::sysinfo::DeviceClass;
use paradice_devfs::Errno;
use paradice_drivers::env::KernelEnv;
use paradice_drivers::evdev::{EvdevDriver, EventKind, InputEvent};
use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
use paradice_hypervisor::vm::VmRole;
use paradice_cvd::proto::CvdChannel;
use paradice_hypervisor::{CostModel, SimClock, TransportMode, VmId};
use paradice_mem::pagetable::GuestPageTables;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

struct Rig {
    hv: paradice_hypervisor::SharedHypervisor,
    guest: VmId,
    frontend: Frontend,
    backend: paradice_cvd::backend::SharedBackend,
    mouse: Rc<RefCell<EvdevDriver>>,
    mouse_id: paradice_devfs::DeviceId,
    pt: GuestPageTables,
    channel: Rc<RefCell<CvdChannel>>,
}

fn rig(transport: TransportMode) -> Rig {
    let mut hv = Hypervisor::new(2048, SimClock::new(), CostModel::default());
    let guest = hv.create_vm(VmRole::Guest, 256 * PAGE_SIZE).unwrap();
    let driver_vm = hv.create_vm(VmRole::Driver, 256 * PAGE_SIZE).unwrap();
    let domain = hv.assign_device(driver_vm, DataIsolation::Disabled).unwrap();
    let pt = {
        let mut space = hv.gpa_space(guest);
        let mut pt = GuestPageTables::new(&mut space).unwrap();
        // A small user buffer at 0x10000.
        for i in 0..4u64 {
            pt.map(
                &mut space,
                GuestVirtAddr::new(0x10000 + i * PAGE_SIZE),
                paradice_mem::GuestPhysAddr::new(0x1000 + i * PAGE_SIZE),
                Access::RW,
            )
            .unwrap();
        }
        pt
    };
    let hv = Rc::new(RefCell::new(hv));
    let env = KernelEnv::new(hv.clone(), driver_vm, domain, false);
    let mouse = Rc::new(RefCell::new(EvdevDriver::usb_mouse(env.clone())));

    let backend = Backend::new(hv.clone(), driver_vm);
    let mouse_id = backend
        .borrow_mut()
        .register_device(
            "/dev/input/event0",
            DeviceClass::Input,
            OpenPolicy::Shared,
            SharingPolicy::ForegroundInput,
            mouse.clone(),
            env,
        )
        .unwrap();
    let clock = hv.borrow().clock().clone();
    let channel = Rc::new(RefCell::new(CvdChannel::new(
        transport,
        clock,
        CostModel::default(),
    )));
    backend
        .borrow_mut()
        .attach_guest(guest, channel.clone(), DEFAULT_QUEUE_CAP);
    backend.borrow_mut().register_task(TaskId(1), guest);
    backend
        .borrow_mut()
        .set_terminals(Rc::new(RefCell::new(VirtualTerminals::new(vec![guest]))));
    let frontend = Frontend::new(
        hv.clone(),
        guest,
        OsPersonality::LINUX_3_2_0,
        channel.clone(),
        backend.clone(),
    );
    Rig {
        hv,
        guest,
        frontend,
        backend,
        mouse,
        mouse_id,
        pt,
        channel,
    }
}

#[test]
fn open_read_poll_release_through_the_pair() {
    let mut r = rig(TransportMode::Interrupts);
    let task = TaskId(1);
    let fd = r
        .frontend
        .open(task, "/dev/input/event0", OpenFlags::RDWR)
        .unwrap();
    // Queue an event at the device, then read it through the pair: the
    // driver's copy_to_user becomes a grant-checked hypercall landing in
    // the guest's buffer.
    r.mouse.borrow_mut().report_event(InputEvent {
        time_us: 1,
        kind: EventKind::Relative,
        code: 0,
        value: 42,
    });
    let n = r
        .frontend
        .read(task, r.pt, fd, GuestVirtAddr::new(0x10000), 64)
        .unwrap();
    assert_eq!(n, 16);
    // The event bytes are in guest memory (value field = 42).
    let mut raw = [0u8; 16];
    r.hv
        .borrow_mut()
        .process_read(r.guest, r.pt.root(), GuestVirtAddr::new(0x10000), &mut raw)
        .unwrap();
    assert_eq!(i32::from_le_bytes(raw[12..16].try_into().unwrap()), 42);
    // Poll: empty again.
    let events = r.frontend.poll(task, fd).unwrap();
    assert!(events.is_empty());
    // Grants all revoked.
    assert_eq!(r.hv.borrow().outstanding_grants(r.guest), 0);
    r.frontend.release(task, fd).unwrap();
    assert_eq!(r.frontend.poll(task, fd), Err(Errno::Ebadf));
}

#[test]
fn notifications_map_backend_handles_to_local_fds() {
    let mut r = rig(TransportMode::Interrupts);
    let task = TaskId(1);
    let fd = r
        .frontend
        .open(task, "/dev/input/event0", OpenFlags::RDWR)
        .unwrap();
    r.frontend.fasync(task, fd, true).unwrap();
    let signals = r.mouse.borrow_mut().report_event(InputEvent {
        time_us: 0,
        kind: EventKind::Key,
        code: 1,
        value: 1,
    });
    let forwarded = r
        .backend
        .borrow_mut()
        .deliver_signals(r.mouse_id, &signals);
    assert_eq!(forwarded, 1);
    let delivered = r.frontend.drain_notifications();
    assert_eq!(delivered, vec![(task, fd)]);
    // Unsubscribe: nothing flows.
    r.frontend.fasync(task, fd, false).unwrap();
    let signals = r.mouse.borrow_mut().report_event(InputEvent {
        time_us: 0,
        kind: EventKind::Key,
        code: 1,
        value: 0,
    });
    assert!(signals.is_empty());
}

#[test]
fn transport_stats_count_deliveries() {
    let mut r = rig(TransportMode::polling_default());
    let task = TaskId(1);
    let fd = r
        .frontend
        .open(task, "/dev/input/event0", OpenFlags::RDWR)
        .unwrap();
    for _ in 0..10 {
        r.frontend.poll(task, fd).unwrap();
    }
    // 11 ops (open + 10 polls) × 2 deliveries; back-to-back ops keep the
    // shared page hot, so everything after boot polls.
    let stats = r.channel.borrow().stats();
    assert_eq!(stats.requests, 11);
    assert_eq!(stats.responses, 11);
    assert_eq!(stats.interrupt_deliveries + stats.polling_deliveries, 22);
    assert!(stats.polling_deliveries >= 21, "stats: {stats:?}");
}

#[test]
fn per_guest_isolation_of_backend_handles() {
    // A second guest cannot drive the first guest's backend handle even if
    // it forges the number.
    let mut hv = Hypervisor::new(2048, SimClock::new(), CostModel::default());
    let guest_a = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
    let guest_b = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
    let driver_vm = hv.create_vm(VmRole::Driver, 128 * PAGE_SIZE).unwrap();
    let domain = hv.assign_device(driver_vm, DataIsolation::Disabled).unwrap();
    let hv = Rc::new(RefCell::new(hv));
    let env = KernelEnv::new(hv.clone(), driver_vm, domain, false);
    let mouse: Rc<RefCell<EvdevDriver>> =
        Rc::new(RefCell::new(EvdevDriver::usb_mouse(env.clone())));
    let backend = Backend::new(hv.clone(), driver_vm);
    backend
        .borrow_mut()
        .register_device(
            "/dev/input/event0",
            DeviceClass::Input,
            OpenPolicy::Shared,
            SharingPolicy::ForegroundInput,
            mouse,
            env,
        )
        .unwrap();
    let clock = hv.borrow().clock().clone();
    let chan_a = Rc::new(RefCell::new(CvdChannel::new(
        TransportMode::Interrupts,
        clock.clone(),
        CostModel::default(),
    )));
    let chan_b = Rc::new(RefCell::new(CvdChannel::new(
        TransportMode::Interrupts,
        clock,
        CostModel::default(),
    )));
    backend.borrow_mut().attach_guest(guest_a, chan_a.clone(), 100);
    backend.borrow_mut().attach_guest(guest_b, chan_b.clone(), 100);
    let mut front_a = Frontend::new(
        hv.clone(),
        guest_a,
        OsPersonality::LINUX_3_2_0,
        chan_a,
        backend.clone(),
    );
    let fd_a = front_a
        .open(TaskId(1), "/dev/input/event0", OpenFlags::RDWR)
        .unwrap();
    let _ = fd_a;
    // Guest B forges a request against backend handle 0 (guest A's open).
    use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
    let forged = WireRequest {
        task: 99,
        pt_root: GuestPhysAddr::new(0).raw().into(),
        handle: 0,
        span: 0,
        grant: None,
        op: WireOp::Poll,
    };
    chan_b.borrow_mut().send_request(forged).unwrap();
    backend.borrow_mut().handle_request(guest_b).unwrap();
    let response = chan_b.borrow_mut().take_response().unwrap();
    assert_eq!(response, WireResponse::Err(Errno::Eperm));
}

#[test]
fn remote_transport_works_and_costs_the_network() {
    let mut r = rig(TransportMode::remote_default());
    let task = TaskId(1);
    let fd = r
        .frontend
        .open(task, "/dev/input/event0", OpenFlags::RDWR)
        .unwrap();
    let clock = r.hv.borrow().clock().clone();
    let before = clock.now_ns();
    r.frontend.poll(task, fd).unwrap();
    let elapsed = clock.now_ns() - before;
    // Request + response: two 25 µs network hops plus marshalling/dispatch.
    assert!(
        (50_000..53_000).contains(&elapsed),
        "remote round trip {elapsed} ns"
    );
}

#[test]
fn unknown_device_open_fails_cleanly() {
    let mut r = rig(TransportMode::Interrupts);
    assert_eq!(
        r.frontend.open(TaskId(1), "/dev/nope", OpenFlags::RDWR),
        Err(Errno::Enoent)
    );
}

#[test]
fn an_overlong_path_is_einval_before_anything_is_posted() {
    use paradice_cvd::proto::MAX_PATH;
    let mut r = rig(TransportMode::Interrupts);
    let path = format!("/dev/{}", "p".repeat(MAX_PATH - 5));
    assert_eq!(
        r.frontend.open(TaskId(1), &path, OpenFlags::RDWR),
        Err(Errno::Enoent)
    );
    let forwarded = r.channel.borrow().stats();
    assert_eq!(forwarded.requests, 1, "a MAX_PATH path fits its slot");
    assert_eq!(
        r.frontend
            .open(TaskId(1), &format!("{path}p"), OpenFlags::RDWR),
        Err(Errno::Einval)
    );
    assert_eq!(
        r.channel.borrow().stats(),
        forwarded,
        "nothing crossed the channel"
    );
}
