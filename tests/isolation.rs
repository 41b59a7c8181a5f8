//! The isolation evaluation (paper §4, §6): every attack the design claims
//! to stop is exercised against a live machine and must be blocked, with
//! the audit log crediting the right mechanism.

use paradice::app::drm::DrmClient;
use paradice::attack;
use paradice::gpu_ioctl::gem_domain;
use paradice::prelude::*;
use paradice_hypervisor::audit::BlockedBy;
use paradice_hypervisor::hv::HvError;
use paradice_hypervisor::{AuditEvent, Hypervisor, MemOp, MemOpGrant, VmId};
use paradice_devfs::DriverSpan;
use paradice_mem::pagetable::GuestPageTables;
use paradice_mem::GuestPhysAddr;

fn isolated_machine() -> Machine {
    Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: true,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .device(DeviceSpec::Mouse)
        .build()
        .expect("isolated machine builds")
}

#[test]
fn the_full_attack_suite_is_blocked() {
    let mut m = isolated_machine();
    let outcomes = attack::run_all(&mut m);
    assert_eq!(outcomes.len(), 6);
    for outcome in &outcomes {
        assert!(
            outcome.blocked,
            "attack {:?} was NOT blocked: {}",
            outcome.name, outcome.detail
        );
        assert!(
            outcome.blocked_by.is_some(),
            "attack {:?} blocked but not attributed in the audit log",
            outcome.name
        );
    }
    // Each of the distinct mechanisms fired at least once.
    let audit = m.hv().borrow();
    for mechanism in [
        BlockedBy::GrantCheck,
        BlockedBy::EptProtection,
        BlockedBy::IommuRegion,
        BlockedBy::ProtectedMmio,
        BlockedBy::WaitQueueCap,
    ] {
        assert!(
            audit.audit().count_blocked_by(mechanism) > 0,
            "{mechanism} never fired"
        );
    }
}

/// A fresh page of `guest`'s memory mapped read-write at `va` in page
/// tables of its own: the root a driver VM's `hc_memops` walks.
fn guest_page(m: &Machine, guest: VmId, va: GuestVirtAddr) -> GuestPhysAddr {
    let mut hv = m.hv().borrow_mut();
    let gpa = hv.vm_mut(guest).unwrap().alloc_kernel_page().unwrap();
    let mut space = hv.gpa_space(guest);
    let mut tables = GuestPageTables::new(&mut space).unwrap();
    tables.map(&mut space, va, gpa, Access::RW).unwrap();
    tables.root()
}

#[test]
fn the_one_copy_checks_the_driver_side_against_the_driver_vms_ept() {
    let m = isolated_machine();
    let domain = m.device_env("/dev/dri/card0").expect("gpu").domain();
    let (driver_vm, guest) = (m.driver_vm(), m.guest_vms()[0]);
    let va = GuestVirtAddr::new(0x4000_0000);
    let root = guest_page(&m, guest, va);
    let mut hv = m.hv().borrow_mut();
    // Page 0 of the BAR lies in guest 0's VRAM slice, and the protected
    // pool page at the top of driver RAM is guest 0's too. Neither is the
    // driver CPU's to touch; the hypervisor copies to and from both for
    // guest 0 itself.
    let (bar, _) = hv.device_bar(domain).expect("bar");
    let ram_pages = hv.vm(driver_vm).unwrap().ram_pages();
    let pool_page = (0..ram_pages)
        .rev()
        .map(|page| GuestPhysAddr::new(page * PAGE_SIZE))
        .find(|&gpa| hv.vm(driver_vm).unwrap().ept().translate(gpa, Access::READ).is_err())
        .expect("a protected pool page");
    hv.process_write(guest, root, va, &[0x77; 64]).unwrap();
    let window = |len| {
        vec![
            MemOpGrant::CopyToGuest { addr: va, len },
            MemOpGrant::CopyFromGuest { addr: va, len },
        ]
    };
    let grant = hv.declare_grants(guest, window(64)).unwrap();
    let guest_bytes = |hv: &mut Hypervisor| {
        let mut seen = [0u8; 64];
        hv.process_read(guest, root, va, &mut seen).unwrap();
        seen
    };
    for own in [bar, pool_page] {
        let audited = hv.audit().len();
        hv.gpa_write_privileged(driver_vm, own, &[0x5e; 64]).unwrap();
        let op = MemOp::CopyToGuestFromDriver { dst: va, src: DriverSpan::Contiguous(own), len: 64 };
        hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut [op]).unwrap();
        assert_eq!(guest_bytes(&mut hv), [0x5e; 64], "{own}: read for its own guest");
        hv.process_write(guest, root, va, &[0x77; 64]).unwrap();
        let op = MemOp::CopyFromGuestToDriver { src: va, dst: DriverSpan::Contiguous(own), len: 64 };
        hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut [op]).unwrap();
        let mut landed = [0u8; 64];
        hv.gpa_read_privileged(driver_vm, own, &mut landed).unwrap();
        assert_eq!(landed, [0x77; 64], "{own}: written for its own guest");
        assert_eq!(hv.audit().len(), audited, "{own}: nothing refused");
        assert!(hv.vm_mem_read(driver_vm, own, &mut landed).is_err(), "{own}: still protected");
    }
    // A page outside every region goes through the driver VM's EPT: one
    // it does not map is refused on either side and audited once.
    let unmapped = GuestPhysAddr::new(1 << 38);
    let span = DriverSpan::Contiguous(unmapped);
    for op in [
        MemOp::CopyToGuestFromDriver { dst: va, src: span, len: 64 },
        MemOp::CopyFromGuestToDriver { src: va, dst: span, len: 64 },
    ] {
        let audited = hv.audit().len();
        let result = hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut [op]);
        assert!(matches!(result, Err(HvError::Ept(_))), "{result:?}");
        let records = &hv.audit().records()[audited..];
        assert_eq!(records.len(), 1, "audited once");
        assert_eq!(
            records[0].event,
            AuditEvent::ProtectedRegionAccess { caller: driver_vm, gpa: unmapped }
        );
        assert_eq!(guest_bytes(&mut hv), [0x77; 64], "no byte reached the guest");
    }
    // A guest range one byte longer than the grant refuses its whole call,
    // the granted write queued in front of it included.
    let scratch = hv.vm_mut(driver_vm).unwrap().alloc_kernel_page().unwrap();
    hv.gpa_write_privileged(driver_vm, scratch, &[0x33; 65]).unwrap();
    let scratch_span = DriverSpan::Contiguous(scratch);
    for wild in [
        MemOp::CopyToGuestFromDriver { dst: va, src: scratch_span, len: 65 },
        MemOp::CopyFromGuestToDriver { src: va, dst: scratch_span, len: 65 },
    ] {
        let audited = hv.audit().len();
        let mut ops = [MemOp::CopyToGuest { dst: va, data: b"granted" }, wild];
        let result = hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut ops);
        assert!(matches!(result, Err(HvError::Grant(_))), "{result:?}");
        let records = &hv.audit().records()[audited..];
        assert_eq!(records.len(), 1);
        assert!(matches!(records[0].event, AuditEvent::UngrantedMemOp { .. }));
        assert_eq!(guest_bytes(&mut hv), [0x77; 64], "nothing was applied");
        let mut kept = [0u8; 65];
        hv.gpa_read_privileged(driver_vm, scratch, &mut kept).unwrap();
        assert_eq!(kept, [0x33; 65]);
    }
    // Within the grant, an unprotected driver page crosses as usual.
    let op = MemOp::CopyToGuestFromDriver { dst: va, src: scratch_span, len: 64 };
    hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut [op]).unwrap();
    assert_eq!(guest_bytes(&mut hv), [0x33; 64]);
}

#[test]
fn guests_cannot_see_each_others_framebuffers() {
    let mut m = isolated_machine();
    // Guest 0 renders a "secret" into its framebuffer.
    let t0 = m.spawn_process(Some(0)).unwrap();
    let drm0 = DrmClient::open(&mut m, t0).unwrap();
    let fb0 = drm0.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    let secret_va = m.alloc_buffer(t0, 64).unwrap();
    m.write_mem(t0, secret_va, b"launch-codes").unwrap();
    drm0.gem_pwrite(&mut m, fb0, 0, secret_va, 12).unwrap();

    // Guest 1 creates its own object and maps it: its pages must be from
    // its own region, never guest 0's.
    let t1 = m.spawn_process(Some(1)).unwrap();
    let drm1 = DrmClient::open(&mut m, t1).unwrap();
    let fb1 = drm1.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    let map1 = drm1.gem_map(&mut m, fb1, PAGE_SIZE).unwrap();
    let mut peek = [0u8; 12];
    m.read_mem(t1, map1, &mut peek).unwrap();
    assert_ne!(&peek, b"launch-codes", "guest 1 must not see guest 0's data");

    // Ground truth: the secret IS in guest 0's protected VRAM (device-side
    // probe) and the driver VM cannot read it.
    let driver_vm = m.driver_vm();
    let hv = m.hv().clone();
    let bar = {
        let handle = m.driver("/dev/dri/card0").unwrap();
        match handle {
            paradice::machine::DriverHandle::Gpu(gpu) => gpu.borrow().gpu().bar_base(),
            _ => unreachable!("card0 is the GPU"),
        }
    };
    // Guest 0's region starts at VRAM offset 0 and its first allocation is
    // the region's GART page, so fb0 is the second page of the lower half.
    let mut found = false;
    for page in 0..512u64 {
        let mut probe = [0u8; 12];
        if hv
            .borrow_mut()
            .gpa_read_privileged(driver_vm, bar.add(page * PAGE_SIZE), &mut probe)
            .is_ok()
            && &probe == b"launch-codes"
        {
            found = true;
            // The driver VM's own read of that page must fault.
            let mut blocked = [0u8; 12];
            assert!(hv
                .borrow_mut()
                .vm_mem_read(driver_vm, bar.add(page * PAGE_SIZE), &mut blocked)
                .is_err());
            break;
        }
    }
    assert!(found, "the secret should exist in protected VRAM");
}

#[test]
fn data_isolation_does_not_break_functionality() {
    // §6: "data isolation has no noticeable impact on performance" — and
    // none on correctness: both guests render and compute concurrently.
    let mut m = isolated_machine();
    for guest in 0..2 {
        let task = m.spawn_process(Some(guest)).unwrap();
        let drm = DrmClient::open(&mut m, task).unwrap();
        let fb = drm.gem_create(&mut m, 4 * PAGE_SIZE, gem_domain::VRAM).unwrap();
        drm.submit_render(&mut m, 1_000, fb).unwrap();
        drm.wait_idle(&mut m, fb).unwrap();
        drm.submit_compute(&mut m, 50).unwrap();
        drm.wait_idle(&mut m, fb).unwrap();
    }
    // No isolation violations in a clean run: grant checks all passed.
    assert_eq!(
        m.hv().borrow().audit().count_blocked_by(BlockedBy::GrantCheck),
        0
    );
}

#[test]
fn vram_partitioning_limits_each_guest() {
    // §4.2: "this solution partitions and shares the GPU memory between
    // guest VMs and can affect … applications that require more memory than
    // their share." Each guest gets half of the 1024-page VRAM.
    let mut m = isolated_machine();
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    // 511 pages fit (one page of the half went to the region's GART buffer)…
    let big = drm.gem_create(&mut m, 511 * PAGE_SIZE, gem_domain::VRAM);
    assert!(big.is_ok(), "allocation within the share must work");
    // …but nothing more.
    assert_eq!(
        drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM),
        Err(Errno::Enomem)
    );
    // Without isolation, the same process could take nearly all of VRAM.
    let mut m2 = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .unwrap();
    let task2 = m2.spawn_process(Some(0)).unwrap();
    let drm2 = DrmClient::open(&mut m2, task2).unwrap();
    assert!(drm2
        .gem_create(&mut m2, 1000 * PAGE_SIZE, gem_domain::VRAM)
        .is_ok());
}

/// A marker no page holds by chance.
const MARKER: &[u8] = b"region-copy marker 7f3a";

/// The driver-physical pages holding `marker` among those `read` accepts:
/// every page of the driver VM's RAM and of the GPU's BAR.
fn pages_holding(
    m: &Machine,
    marker: &[u8],
    read: fn(&mut Hypervisor, VmId, GuestPhysAddr, &mut [u8]) -> Result<(), HvError>,
) -> Vec<GuestPhysAddr> {
    let domain = m.device_env("/dev/dri/card0").expect("gpu").domain();
    let driver_vm = m.driver_vm();
    let mut hv = m.hv().borrow_mut();
    let ram_pages = hv.vm(driver_vm).unwrap().ram_pages();
    let (bar, bar_pages) = hv.device_bar(domain).expect("bar");
    let ram = (0..ram_pages).map(|page| GuestPhysAddr::new(page * PAGE_SIZE));
    let bar = (0..bar_pages).map(|page| bar.add(page * PAGE_SIZE));
    let mut bytes = vec![0u8; PAGE_SIZE as usize];
    ram.chain(bar)
        .filter(|&gpa| {
            read(&mut hv, driver_vm, gpa, &mut bytes).is_ok()
                && bytes.windows(marker.len()).any(|window| window == marker)
        })
        .collect()
}

#[test]
fn an_isolated_upload_leaves_no_driver_readable_copy() {
    // §4.2: the driver VM never reads a protected region. An upload into a
    // VRAM or a GTT object lands in the guest's region and nowhere the
    // driver VM's CPU can read, in RAM or through the BAR.
    let mut m = isolated_machine();
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    let va = m.alloc_buffer(task, PAGE_SIZE).unwrap();
    m.write_mem(task, va, MARKER).unwrap();
    for domain in [gem_domain::VRAM, gem_domain::GTT] {
        let bo = drm.gem_create(&mut m, PAGE_SIZE, domain).unwrap();
        drm.gem_pwrite(&mut m, bo, 0, va, MARKER.len() as u64).unwrap();
        let readable = pages_holding(&m, MARKER, Hypervisor::vm_mem_read);
        assert_eq!(readable, [], "domain {domain}: the driver VM reads the upload");
        let landed = pages_holding(&m, MARKER, Hypervisor::gpa_read_privileged);
        assert!(!landed.is_empty(), "domain {domain}: the upload landed nowhere");
    }
}

#[test]
fn an_isolated_pread_returns_the_guests_own_bytes() {
    let mut m = isolated_machine();
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    let va = m.alloc_buffer(task, 2 * PAGE_SIZE).unwrap();
    let payload: Vec<u8> = (0..PAGE_SIZE + 100).map(|i| (i * 7 + 3) as u8).collect();
    for domain in [gem_domain::VRAM, gem_domain::GTT] {
        let bo = drm.gem_create(&mut m, 2 * PAGE_SIZE, domain).unwrap();
        m.write_mem(task, va, &payload).unwrap();
        drm.gem_pwrite(&mut m, bo, 50, va, payload.len() as u64).unwrap();
        m.write_mem(task, va, &vec![0u8; payload.len()]).unwrap();
        drm.gem_pread(&mut m, bo, 50, va, payload.len() as u64).unwrap();
        let mut back = vec![0u8; payload.len()];
        m.read_mem(task, va, &mut back).unwrap();
        assert_eq!(back, payload, "domain {domain}");
    }
    assert_eq!(m.hv().borrow().audit().len(), 0, "an honest transfer is never refused");
}

#[test]
fn a_copy_naming_another_guests_region_page_is_refused() {
    // Guest 0 uploads into a GTT object; guest 1's grant then names guest
    // 0's pool page and guest 0's first BAR page as the driver side of a
    // copy. Each is refused before a byte moves and credited to the grant
    // check, like an InsertPfn of a foreign region page.
    let mut m = isolated_machine();
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    let va0 = m.alloc_buffer(task, PAGE_SIZE).unwrap();
    m.write_mem(task, va0, MARKER).unwrap();
    let bo = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::GTT).unwrap();
    drm.gem_pwrite(&mut m, bo, 0, va0, MARKER.len() as u64).unwrap();
    let [pool_page] = pages_holding(&m, MARKER, Hypervisor::gpa_read_privileged)[..] else {
        panic!("the upload lands in one pool page");
    };
    let domain = m.device_env("/dev/dri/card0").expect("gpu").domain();
    let (driver_vm, guest) = (m.driver_vm(), m.guest_vms()[1]);
    let va = GuestVirtAddr::new(0x4000_0000);
    let root = guest_page(&m, guest, va);
    let mut hv = m.hv().borrow_mut();
    let (bar, _) = hv.device_bar(domain).expect("bar");
    hv.gpa_write_privileged(driver_vm, bar, MARKER).unwrap();
    hv.process_write(guest, root, va, &[0x77; 64]).unwrap();
    let grant = hv
        .declare_grants(
            guest,
            vec![
                MemOpGrant::CopyToGuest { addr: va, len: 64 },
                MemOpGrant::CopyFromGuest { addr: va, len: 64 },
            ],
        )
        .unwrap();
    for foreign in [pool_page, bar] {
        let span = DriverSpan::Contiguous(foreign);
        for op in [
            MemOp::CopyToGuestFromDriver { dst: va, src: span, len: 64 },
            MemOp::CopyFromGuestToDriver { src: va, dst: span, len: 64 },
        ] {
            let audited = hv.audit().len();
            let result = hv.hc_memops(driver_vm, guest, root, grant, Some(domain), &mut [op]);
            assert!(matches!(result, Err(HvError::ForeignRegionPage { .. })), "{result:?}");
            let records = &hv.audit().records()[audited..];
            assert_eq!(records.len(), 1, "{foreign}: audited once");
            assert!(matches!(records[0].event, AuditEvent::UngrantedMemOp { .. }));
            assert_eq!(records[0].event.blocked_by(), BlockedBy::GrantCheck);
            let mut seen = [0u8; 64];
            hv.process_read(guest, root, va, &mut seen).unwrap();
            assert_eq!(seen, [0x77; 64], "{foreign}: no byte reached guest 1");
            let mut kept = [0u8; MARKER.len()];
            hv.gpa_read_privileged(driver_vm, foreign, &mut kept).unwrap();
            assert_eq!(kept, MARKER, "{foreign}: no byte reached guest 0's page");
        }
    }
}

#[test]
fn hardware_vsync_is_lost_under_isolation_but_emulation_paces() {
    // §5.3: "we cannot support the VSync interrupts … As a possible
    // solution, we are thinking of emulating the VSync interrupts in
    // software." The SET_VSYNC ioctl fails; the software pacer works.
    let mut m = isolated_machine();
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    let scratch = m.alloc_buffer(task, 16).unwrap();
    m.write_mem(task, scratch, &1u32.to_le_bytes()).unwrap();
    assert_eq!(
        m.ioctl(task, drm.fd, paradice::gpu_ioctl::RADEON_SET_VSYNC, scratch.raw()),
        Err(Errno::Enotsup)
    );
    // Software emulation: pace 30 frames at 60 Hz.
    let fb = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    let t0 = m.now_ns();
    for _ in 0..30 {
        drm.submit_render(&mut m, 1_000, fb).unwrap();
        drm.wait_idle(&mut m, fb).unwrap();
        m.vblank_pace();
    }
    let fps = 30.0 / ((m.now_ns() - t0) as f64 / 1e9);
    assert!((55.0..62.5).contains(&fps), "paced fps = {fps}");
}

#[test]
fn queue_cap_is_tunable_per_guest() {
    // §5.1: "we can modify this cap for different queues for better load
    // balancing or enforcing priorities between guest VMs."
    let mut m = isolated_machine();
    let backend = m.backend().unwrap();
    backend
        .borrow_mut()
        .set_queue_cap(m.guest_vms()[1], 10)
        .unwrap();
    let (outcome, accepted) = attack::wait_queue_flood(&mut m, 1, 50);
    assert!(outcome.blocked);
    assert_eq!(accepted, 10);
}

#[test]
fn fault_isolation_holds_without_data_isolation() {
    // Fault isolation needs no driver changes and is always on (§4.1).
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .unwrap();
    let outcome = attack::ungranted_copy(&mut m, 0);
    assert!(outcome.blocked);
    assert_eq!(outcome.blocked_by, Some(BlockedBy::GrantCheck));
    let outcome = attack::grant_overflow(&mut m, 0);
    assert!(outcome.blocked);
}

#[test]
fn devirtualization_ablation_shows_why_grant_checks_matter() {
    // Figure 1(b): the predecessor design ran drivers without runtime
    // checks — "a malicious guest VM application can use the driver bugs to
    // compromise the whole system." With validation ablated, the attack
    // Paradice blocks is no longer refused by any security mechanism.
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .unwrap();

    // Under Paradice, the ungranted copy is blocked by the grant check.
    let outcome = attack::ungranted_copy(&mut m, 0);
    assert!(outcome.blocked);
    assert_eq!(outcome.blocked_by, Some(BlockedBy::GrantCheck));

    // Ablate the checks (devirtualization) and replay the attack.
    m.enable_devirtualization_ablation();
    let audit_before = m.hv().borrow().audit().len();
    let driver_vm = m.driver_vm();
    let guest = m.guest_vms()[0];
    let bogus_grant = paradice_hypervisor::GrantRef(u32::MAX);
    let result = m.hv().borrow_mut().hc_memops(
        driver_vm,
        guest,
        paradice_mem::GuestPhysAddr::new(0),
        bogus_grant,
        None,
        &mut [MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0xc000_0000),
            data: b"rootkit",
        }],
    );
    // No grant refusal and no audit record: the only thing that stops the
    // copy is that the target happens to be unmapped — security by
    // accident, exactly the flaw that motivated Paradice (§3.1).
    assert!(
        !matches!(result, Err(paradice_hypervisor::hv::HvError::Grant(_))),
        "grant check should be ablated: {result:?}"
    );
    assert_eq!(m.hv().borrow().audit().len(), audit_before);
}

#[test]
fn guest_recovers_after_a_queue_flood() {
    // A flooding guest hits EDQUOT; once the backend drains, the same guest
    // operates normally again — the cap is backpressure, not a ban.
    let mut m = isolated_machine();
    let (outcome, accepted) = attack::wait_queue_flood(&mut m, 0, 200);
    assert!(outcome.blocked);
    assert_eq!(accepted, m.queue_cap());
    // resume_backend ran inside the attack; normal service resumes.
    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).expect("post-flood open");
    let fb = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).unwrap();
    drm.submit_render(&mut m, 100, fb).unwrap();
    drm.wait_idle(&mut m, fb).unwrap();
}

#[test]
fn the_attack_suite_is_still_blocked_after_crash_and_recovery() {
    // §7.1 meets §4: a driver-VM crash followed by recovery must not leave
    // any isolation mechanism degraded — stale grants, leftover IOMMU
    // mappings, or unprotected regions would all show up here.
    use std::cell::RefCell;
    use std::rc::Rc;
    use paradice_faults::{FaultKind, FaultPlan, Trigger};

    let mut m = isolated_machine();
    let mut plan = FaultPlan::new();
    plan.arm(
        FaultKind::DriverPanic,
        Trigger::OnOp { op: "ioctl".to_owned(), nth: 0 },
    );
    assert!(m.arm_faults(Rc::new(RefCell::new(plan))));

    let task = m.spawn_process(Some(0)).unwrap();
    let drm = DrmClient::open(&mut m, task).unwrap();
    assert!(drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).is_err());
    assert!(m.driver_vm_failed());
    m.recover_driver_vm().expect("driver VM reboots");

    let outcomes = attack::run_all(&mut m);
    assert_eq!(outcomes.len(), 6);
    for outcome in &outcomes {
        assert!(
            outcome.blocked,
            "post-recovery attack {:?} was NOT blocked: {}",
            outcome.name, outcome.detail
        );
    }
}
