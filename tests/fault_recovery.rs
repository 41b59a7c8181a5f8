//! Driver-VM fault injection, watchdog detection, crash containment, and
//! recovery (paper §7.1, Table 3): "we injected faults in the device
//! drivers running inside the driver VM … the driver VM crashed but the
//! guest VMs continued to run. We then simply rebooted the driver VM and
//! resumed."

use std::cell::RefCell;
use std::rc::Rc;

use paradice::app::drm::DrmClient;
use paradice::app::i915::{param, IntelClient};
use paradice::app::pcm::AudioClient;
use paradice::app::v4l::CameraClient;
use paradice::camera_ioctl::VIDIOC_QUERYCAP;
use paradice::gpu_ioctl::{gem_domain, info, RADEON_INFO};
use paradice::netmap_ioctl::{NIOCGINFO, NIOCREGIF, NIOCTXSYNC};
use paradice::prelude::*;
use paradice_cvd::frontend::DEFAULT_OP_DEADLINE_NS;
use paradice_drivers::evdev::{InputEvent, EVENT_BYTES};
use paradice_faults::{FaultKind, FaultPlan, Trigger};
use paradice_hypervisor::audit::BlockedBy;
use paradice_hypervisor::hv::HvError;
use paradice_hypervisor::{GrantRef, MemOp};

fn plain_machine(devices: &[DeviceSpec]) -> Machine {
    let mut builder = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux());
    for &spec in devices {
        builder = builder.device(spec);
    }
    builder.build().expect("machine builds")
}

/// Arms a single-shot fault on the `nth` dispatch of `op`.
fn armed(m: &mut Machine, kind: FaultKind, op: &str, nth: u64) -> Rc<RefCell<FaultPlan>> {
    let mut plan = FaultPlan::new();
    plan.arm(kind, Trigger::OnOp { op: op.to_owned(), nth });
    let plan = Rc::new(RefCell::new(plan));
    assert!(m.arm_faults(plan.clone()), "Paradice mode arms faults");
    plan
}

#[test]
fn a_hung_driver_times_out_instead_of_wedging_the_guest() {
    let mut m = plain_machine(&[DeviceSpec::Mouse]);
    armed(&mut m, FaultKind::Hang, "read", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    let buf = m.alloc_buffer(task, 64).unwrap();
    let t0 = m.now_ns();
    // The guest process unblocks with an errno — never a hang.
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Etimedout));
    assert!(
        m.now_ns() - t0 >= DEFAULT_OP_DEADLINE_NS,
        "the watchdog waits out its deadline on the virtual clock"
    );
    assert!(m.driver_vm_failed(), "the watchdog marks the driver VM");
}

#[test]
fn the_circuit_breaker_fails_fast_after_detection() {
    let mut m = plain_machine(&[DeviceSpec::Mouse]);
    armed(&mut m, FaultKind::Hang, "read", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    let buf = m.alloc_buffer(task, 64).unwrap();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Etimedout));
    // Later operations do not forward, do not wait, do not hang.
    let forwarded = m.frontend(0).unwrap().borrow().stats().ops_forwarded;
    let t1 = m.now_ns();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Eio));
    assert_eq!(
        m.frontend(0).unwrap().borrow().stats().ops_forwarded,
        forwarded,
        "fail-fast must not touch the wire"
    );
    assert!(
        m.now_ns() - t1 < DEFAULT_OP_DEADLINE_NS,
        "fail-fast must not wait out another deadline"
    );
}

/// The breaker is half-open, not latched: after containment it fails fast
/// through an exponentially growing backoff window on the virtual clock,
/// re-arms (doubled) while the driver VM stays contained, and closes again
/// on the first successful probe once the VM is back — without an explicit
/// `recover_driver_vm`/frontend reset.
#[test]
fn the_breaker_half_opens_with_exponential_backoff() {
    use paradice_cvd::frontend::BREAKER_BASE_BACKOFF_NS;
    let mut m = plain_machine(&[DeviceSpec::Mouse]);
    armed(&mut m, FaultKind::MalformedResponse, "read", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    let buf = m.alloc_buffer(task, 64).unwrap();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Eio));
    assert!(m.driver_vm_failed());
    let fe = m.frontend(0).unwrap();
    assert!(fe.borrow().breaker_open());
    assert_eq!(fe.borrow().breaker_backoff_ns(), BREAKER_BASE_BACKOFF_NS);

    // Inside the backoff window: fail fast, nothing on the wire.
    let forwarded = fe.borrow().stats().ops_forwarded;
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Eio));
    assert_eq!(fe.borrow().stats().ops_forwarded, forwarded);

    // The window expires while the VM is still contained: a probe cannot
    // succeed, so the breaker stays open — still fast, still off the
    // wire — and the window doubles.
    m.clock().advance(BREAKER_BASE_BACKOFF_NS + 1);
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Eio));
    assert_eq!(fe.borrow().stats().ops_forwarded, forwarded);
    assert_eq!(fe.borrow().breaker_backoff_ns(), 2 * BREAKER_BASE_BACKOFF_NS);

    // The containment clears out-of-band (the single-shot corruption is
    // spent; the hypervisor re-admits the VM) and the doubled window
    // expires: the next op runs as the half-open probe, succeeds, and
    // closes the breaker with the backoff reset.
    m.hv().borrow_mut().clear_driver_vm_failed(m.driver_vm());
    m.clock().advance(2 * BREAKER_BASE_BACKOFF_NS + 1);
    assert!(m.poll(task, fd).is_ok(), "probe must reach the driver");
    assert!(!fe.borrow().breaker_open());
    assert_eq!(fe.borrow().breaker_backoff_ns(), 0);
    assert!(fe.borrow().stats().ops_forwarded > forwarded);
    // Closed means closed: the next op forwards normally too.
    assert!(m.poll(task, fd).is_ok());
}

#[test]
fn a_driver_panic_revokes_grants_and_refuses_the_dead_vm() {
    let mut m = plain_machine(&[DeviceSpec::gpu()]);
    armed(&mut m, FaultKind::DriverPanic, "ioctl", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let arg = m.alloc_buffer(task, 4096).unwrap();
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    assert_eq!(
        m.ioctl(task, fd, paradice::gpu_ioctl::RADEON_INFO, arg.raw()),
        Err(Errno::Etimedout)
    );
    assert!(m.driver_vm_failed());
    // Containment: no grant survives the crash …
    let guest = m.guest_vms()[0];
    assert_eq!(m.hv().borrow().outstanding_grants(guest), 0);
    // … and the dead VM's hypercalls are refused before any grant logic.
    let err = m.hv().borrow_mut().hc_memops(
        m.driver_vm(),
        guest,
        paradice_mem::GuestPhysAddr::new(0),
        GrantRef(u32::MAX),
        None,
        &mut [MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0x4000),
            data: b"x",
        }],
    );
    assert!(
        matches!(err, Err(HvError::DriverVmFailed { .. })),
        "{err:?}"
    );
}

#[test]
fn a_driver_oops_fails_one_op_but_the_vm_survives() {
    let mut m = plain_machine(&[DeviceSpec::gpu()]);
    armed(&mut m, FaultKind::DriverOops, "ioctl", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let arg = m.alloc_buffer(task, 4096).unwrap();
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    let cmd = paradice::gpu_ioctl::RADEON_INFO;
    assert_eq!(m.ioctl(task, fd, cmd, arg.raw()), Err(Errno::Eio));
    assert!(!m.driver_vm_failed(), "an oops kills the thread, not the VM");
    // The very next operation succeeds without any recovery.
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    assert!(m.ioctl(task, fd, cmd, arg.raw()).is_ok());
}

#[test]
fn a_wild_memory_op_is_blocked_audited_and_contained() {
    let mut m = plain_machine(&[DeviceSpec::gpu()]);
    armed(&mut m, FaultKind::WildMemOp, "ioctl", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let arg = m.alloc_buffer(task, 4096).unwrap();
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    let before = m.hv().borrow().audit().count_blocked_by(BlockedBy::GrantCheck);
    assert_eq!(
        m.ioctl(task, fd, paradice::gpu_ioctl::RADEON_INFO, arg.raw()),
        Err(Errno::Etimedout)
    );
    assert!(
        m.hv().borrow().audit().count_blocked_by(BlockedBy::GrantCheck) > before,
        "the ungranted access must be audited"
    );
    assert!(m.driver_vm_failed());
}

#[test]
fn corrupted_responses_fail_the_op_and_contain_the_vm() {
    for kind in [FaultKind::MalformedResponse, FaultKind::TruncatedResponse] {
        let mut m = plain_machine(&[DeviceSpec::gpu()]);
        armed(&mut m, kind, "ioctl", 0);
        let task = m.spawn_process(Some(0)).unwrap();
        let fd = m.open(task, "/dev/dri/card0").unwrap();
        let arg = m.alloc_buffer(task, 4096).unwrap();
        m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
        assert_eq!(
            m.ioctl(task, fd, paradice::gpu_ioctl::RADEON_INFO, arg.raw()),
            Err(Errno::Eio),
            "{kind}"
        );
        assert!(m.driver_vm_failed(), "{kind}: garbage on the wire = corrupt VM");
    }
}

#[test]
fn a_delayed_response_times_out_without_killing_the_driver() {
    let mut m = plain_machine(&[DeviceSpec::gpu()]);
    armed(&mut m, FaultKind::DelayDelivery, "ioctl", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let arg = m.alloc_buffer(task, 4096).unwrap();
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    let cmd = paradice::gpu_ioctl::RADEON_INFO;
    assert_eq!(m.ioctl(task, fd, cmd, arg.raw()), Err(Errno::Etimedout));
    // The response did arrive (late): the driver is alive, no containment.
    assert!(!m.driver_vm_failed());
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    assert!(m.ioctl(task, fd, cmd, arg.raw()).is_ok());
}

#[test]
fn a_dropped_response_is_indistinguishable_from_a_hang() {
    let mut m = plain_machine(&[DeviceSpec::gpu()]);
    armed(&mut m, FaultKind::DropDelivery, "ioctl", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let arg = m.alloc_buffer(task, 4096).unwrap();
    m.write_mem(task, arg, &1u32.to_le_bytes()).unwrap();
    assert_eq!(
        m.ioctl(task, fd, paradice::gpu_ioctl::RADEON_INFO, arg.raw()),
        Err(Errno::Etimedout)
    );
    // The frontend cannot tell a dropped delivery from a wedged driver;
    // the conservative answer is containment plus recovery.
    assert!(m.driver_vm_failed());
    m.recover_driver_vm().unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    m.close(task, fd).unwrap();
}

#[test]
fn recovery_restores_service_for_every_device_class() {
    let mut m = plain_machine(&[
        DeviceSpec::gpu(),
        DeviceSpec::Mouse,
        DeviceSpec::Camera,
        DeviceSpec::Audio,
        DeviceSpec::Netmap,
    ]);
    armed(&mut m, FaultKind::DriverPanic, "poll", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    assert_eq!(m.poll(task, fd), Err(Errno::Etimedout));
    assert!(m.driver_vm_failed());

    m.recover_driver_vm().expect("driver VM reboots");
    assert!(!m.driver_vm_failed());
    // Handles from before the crash died with the VM.
    assert_eq!(m.poll(task, fd), Err(Errno::Ebadf));
    // Every device class opens and closes again — full service.
    for path in [
        "/dev/dri/card0",
        "/dev/input/event0",
        "/dev/video0",
        "/dev/snd/pcmC0D0p",
        "/dev/netmap",
    ] {
        let fd = m.open(task, path).unwrap_or_else(|e| panic!("{path}: {e:?}"));
        m.close(task, fd).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    }
    // And the other guest was never disturbed in the first place.
    let task1 = m.spawn_process(Some(1)).unwrap();
    let fd1 = m.open(task1, "/dev/video0").unwrap();
    m.close(task1, fd1).unwrap();
}

#[test]
fn recovery_works_with_data_isolation_enabled() {
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: true,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .unwrap();
    // Guest 0 renders before the crash.
    let t0 = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, t0).unwrap();
    let fb = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    drm.submit_render(&mut m, 100, fb).unwrap();
    drm.wait_idle(&mut m, fb).unwrap();

    armed(&mut m, FaultKind::DriverPanic, "ioctl", 0);
    assert!(drm.submit_render(&mut m, 100, fb).is_err());
    assert!(m.driver_vm_failed());

    // §7.1 with §4.2 both on: protected regions are re-created.
    m.recover_driver_vm()
        .expect("recovery must work with data isolation enabled");
    assert!(!m.driver_vm_failed());

    // Both guests get full GPU service on the rebooted driver VM.
    for g in 0..2 {
        let task = m.spawn_process(Some(g)).unwrap();
        let drm = DrmClient::open(&mut m, task).unwrap();
        let fb = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
        drm.submit_render(&mut m, 100, fb).unwrap();
        drm.wait_idle(&mut m, fb).unwrap();
    }
}

/// Every device kind, on a two-guest machine.
fn every_device_machine(data_isolation: bool) -> Machine {
    let mut builder = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation,
        })
        .guests([GuestSpec::linux(), GuestSpec::linux()]);
    for spec in [
        DeviceSpec::gpu(),
        DeviceSpec::intel_gpu(),
        DeviceSpec::Mouse,
        DeviceSpec::Keyboard,
        DeviceSpec::Camera,
        DeviceSpec::Audio,
        DeviceSpec::Netmap,
    ] {
        builder = builder.device(spec);
    }
    builder.build().expect("machine builds")
}

/// Reads the next input event on `fd` as `(kind, code, value)`; its
/// timestamp is left out.
fn next_event(m: &mut Machine, task: TaskId, fd: u64) -> String {
    let buf = m.alloc_buffer(task, EVENT_BYTES).unwrap();
    assert_eq!(m.read(task, fd, buf, EVENT_BYTES), Ok(EVENT_BYTES));
    let mut raw = [0u8; EVENT_BYTES as usize];
    m.read_mem(task, buf, &mut raw).unwrap();
    let event = InputEvent::from_bytes(&raw).expect("a well-formed event");
    format!("{:?} {} {}", event.kind, event.code, event.value)
}

/// Runs `cmd` on `fd` with a `len`-byte argument buffer; returns the
/// result and the buffer's bytes after the call.
fn ioctl_bytes(m: &mut Machine, task: TaskId, fd: u64, cmd: IoctlCmd, len: u64) -> String {
    let arg = m.alloc_buffer(task, len).unwrap();
    let result = m.ioctl(task, fd, cmd, arg.raw());
    let mut out = vec![0u8; len as usize];
    m.read_mem(task, arg, &mut out).unwrap();
    format!("{result:?} {out:?}")
}

/// A fixed script over every device from a new process in guest 0: what
/// each driver answers, as one line per step. A driver built afresh
/// answers the same on a rebooted machine as on a new one.
fn device_script(m: &mut Machine) -> Vec<String> {
    let task = m.spawn_process(Some(0)).unwrap();
    let mut lines = Vec::new();

    let drm = DrmClient::open(m, task).unwrap();
    for request in [info::DEVICE_ID, info::VRAM_SIZE, info::FAMILY] {
        lines.push(format!("RADEON_INFO {request}: {:?}", drm.info(m, request)));
    }
    let bo = drm.gem_create(m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    lines.push(format!("radeon first GEM handle: {bo}"));
    let data = m.alloc_buffer(task, 64).unwrap();
    m.write_mem(task, data, &[0xa5; 64]).unwrap();
    drm.gem_pwrite(m, bo, 128, data, 64).unwrap();
    m.write_mem(task, data, &[0; 64]).unwrap();
    // The read-back starts eight bytes before the upload. With or without
    // data isolation it returns eight zeros and then the guest's own
    // bytes: the hypervisor copies out of the guest's own VRAM either way.
    let pread = drm.gem_pread(m, bo, 120, data, 64);
    let mut back = [0u8; 64];
    m.read_mem(task, data, &mut back).unwrap();
    lines.push(format!("radeon GEM_PREAD: {pread:?} {back:?}"));
    lines.push(format!("radeon fence: {:?}", drm.submit_render(m, 100, bo)));
    drm.wait_idle(m, bo).unwrap();
    m.close(task, drm.fd).unwrap();

    let intel = IntelClient::open(m, task).unwrap();
    for code in [param::CHIPSET_ID, param::APERTURE_SIZE, param::HAS_EXECBUF2] {
        lines.push(format!(
            "i915 GETPARAM {code}: {:?}",
            intel.getparam(m, code)
        ));
    }
    lines.push(format!(
        "i915 first GEM handle: {:?}",
        intel.gem_create(m, PAGE_SIZE)
    ));
    m.close(task, intel.fd).unwrap();

    let mouse = m.open(task, "/dev/input/event0").unwrap();
    m.mouse_move(3, -2);
    lines.push(format!("mouse: {}", next_event(m, task, mouse)));
    m.close(task, mouse).unwrap();
    let keyboard = m.open(task, "/dev/input/event1").unwrap();
    m.key_press(30);
    lines.push(format!("keyboard: {}", next_event(m, task, keyboard)));
    m.close(task, keyboard).unwrap();

    let mut camera = CameraClient::open(m, task).unwrap();
    let querycap = ioctl_bytes(m, task, camera.fd, VIDIOC_QUERYCAP, 32);
    lines.push(format!("VIDIOC_QUERYCAP: {querycap}"));
    lines.push(format!(
        "camera format: {:?}",
        camera.set_format(m, 1280, 720)
    ));
    m.close(task, camera.fd).unwrap();

    let audio = AudioClient::open(m, task).unwrap();
    audio.configure(m, 48_000, 2, 16).unwrap();
    let samples = m.alloc_buffer(task, 4096).unwrap();
    lines.push(format!(
        "pcm write: {:?}",
        m.write(task, audio.fd, samples, 4096)
    ));
    m.close(task, audio.fd).unwrap();

    let nic = m.open(task, "/dev/netmap").unwrap();
    lines.push(format!(
        "NIOCREGIF: {}",
        ioctl_bytes(m, task, nic, NIOCREGIF, 16)
    ));
    lines.push(format!(
        "NIOCGINFO: {}",
        ioctl_bytes(m, task, nic, NIOCGINFO, 8)
    ));
    lines.push(format!(
        "NIOCTXSYNC: {:?}",
        m.ioctl(task, nic, NIOCTXSYNC, 0)
    ));
    m.close(task, nic).unwrap();
    lines
}

#[test]
fn every_device_kind_reboots_as_itself_ten_times_under_two_guests() {
    for data_isolation in [false, true] {
        let expected = device_script(&mut every_device_machine(data_isolation));
        let mut m = every_device_machine(data_isolation);
        let (t0, t1) = (
            m.spawn_process(Some(0)).unwrap(),
            m.spawn_process(Some(1)).unwrap(),
        );
        for round in 0..10 {
            // Different histories: guest 0 renders and keeps its object,
            // guest 1 holds the two single-open devices.
            let drm = DrmClient::open(&mut m, t0).unwrap();
            let fb = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
            drm.submit_render(&mut m, 100, fb).unwrap();
            drm.wait_idle(&mut m, fb).unwrap();
            let camera = m.open(t1, "/dev/video0").unwrap();
            m.open(t1, "/dev/netmap").unwrap();

            m.recover_driver_vm()
                .unwrap_or_else(|e| panic!("isolation {data_isolation}, reboot {round}: {e}"));
            assert!(!m.driver_vm_failed());
            assert_eq!(
                m.poll(t1, camera),
                Err(Errno::Ebadf),
                "handles die with the VM"
            );
            assert_eq!(
                device_script(&mut m),
                expected,
                "isolation {data_isolation}, after reboot {round}"
            );
        }
    }
}

#[test]
fn fault_and_recovery_are_visible_in_the_trace() {
    let mut m = plain_machine(&[DeviceSpec::Mouse]);
    let tracer = m.enable_tracing();
    armed(&mut m, FaultKind::Hang, "read", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    let buf = m.alloc_buffer(task, 64).unwrap();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Etimedout));
    m.recover_driver_vm().unwrap();
    let jsonl = tracer.to_jsonl();
    assert!(jsonl.contains("\"type\":\"fault_injected\""), "{jsonl}");
    assert!(jsonl.contains("\"kind\":\"hang\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"driver_vm_failed\""), "{jsonl}");
    assert!(jsonl.contains("\"type\":\"driver_vm_recovered\""), "{jsonl}");
}

/// Tracing records the virtual clock, it never moves it: a hung pipelined
/// ioctl waits out the same deadline traced and untraced.
#[test]
fn a_pipelined_hang_waits_out_the_deadline_traced_or_not() {
    let elapsed_ns = |traced: bool| {
        let mut m = plain_machine(&[DeviceSpec::gpu()]);
        m.enable_fastpath();
        if traced {
            m.enable_tracing();
        }
        let task = m.spawn_process(Some(0)).unwrap();
        let fd = m.open(task, "/dev/dri/card0").unwrap();
        let scratch = m.alloc_buffer(task, 256).unwrap();
        let mut req = [0u8; 16];
        req[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
        m.write_mem(task, scratch, &req).unwrap();
        armed(&mut m, FaultKind::Hang, "ioctl", 0);
        let t0 = m.now_ns();
        m.ioctl_pipelined(task, fd, RADEON_INFO, scratch.raw()).unwrap();
        let results = m.flush_pipeline(task).expect("containment, not transport failure");
        assert_eq!(results, vec![Err(Errno::Etimedout)]);
        assert!(m.driver_vm_failed());
        m.now_ns() - t0
    };
    let untraced = elapsed_ns(false);
    assert!(
        untraced >= DEFAULT_OP_DEADLINE_NS,
        "the pipelined watchdog waited only {untraced} ns"
    );
    assert_eq!(elapsed_ns(true), untraced);
}
