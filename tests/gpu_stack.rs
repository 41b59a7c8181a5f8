//! Full-stack GPU integration: the same application code runs natively,
//! under device assignment, and in a Paradice guest (the paper's central
//! claim — the device file boundary is class-agnostic and mode-agnostic).

use paradice::app::drm::DrmClient;
use paradice::gpu_ioctl::{gem_domain, info, RADEON_GEM_PREAD, RADEON_GEM_PWRITE};
use paradice::prelude::*;

fn machine(mode: ExecMode) -> Machine {
    let mut builder = Machine::builder().mode(mode).device(DeviceSpec::gpu());
    if matches!(mode, ExecMode::Paradice { .. }) {
        builder = builder.guest(GuestSpec::linux());
    }
    builder.build().expect("machine builds")
}

fn spawn(machine: &mut Machine) -> TaskId {
    let guest = matches!(machine.mode(), ExecMode::Paradice { .. }).then_some(0);
    machine.spawn_process(guest).expect("process spawns")
}

fn all_modes() -> Vec<ExecMode> {
    vec![
        ExecMode::Native,
        ExecMode::DeviceAssignment,
        ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        },
        ExecMode::Paradice {
            transport: TransportMode::polling_default(),
            data_isolation: false,
        },
    ]
}

#[test]
fn info_ioctl_works_in_every_mode() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        assert_eq!(drm.info(&mut m, info::DEVICE_ID).unwrap(), 0x6779, "{mode:?}");
        assert_eq!(
            drm.info(&mut m, info::VRAM_SIZE).unwrap(),
            1024 * PAGE_SIZE,
            "{mode:?}"
        );
        assert_eq!(drm.info(&mut m, info::FAMILY).unwrap(), 0x45, "{mode:?}");
    }
}

#[test]
fn render_loop_works_in_every_mode() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let fb = drm
            .gem_create(&mut m, 64 * PAGE_SIZE, gem_domain::VRAM)
            .expect("framebuffer");
        let t0 = m.now_ns();
        for _ in 0..10 {
            drm.submit_render(&mut m, 2_000, fb).expect("render");
            drm.wait_idle(&mut m, fb).expect("wait");
        }
        let elapsed = m.now_ns() - t0;
        // 10 frames × 2 ms of GPU time: the floor is 20 ms in every mode.
        assert!(elapsed >= 20_000_000, "{mode:?}: {elapsed} ns");
        // …and even interrupt-mode forwarding adds well under 10%.
        assert!(elapsed < 22_000_000, "{mode:?}: {elapsed} ns");
    }
}

#[test]
fn pwrite_data_lands_in_vram_and_reads_back() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        let data_va = m.alloc_buffer(task, 4096).expect("staging");
        m.write_mem(task, data_va, b"through-the-whole-stack")
            .expect("stage");
        drm.gem_pwrite(&mut m, bo, 0, data_va, 23).expect("pwrite");
        let read_va = m.alloc_buffer(task, 4096).expect("readback");
        drm.gem_pread(&mut m, bo, 0, read_va, 23).expect("pread");
        let mut back = [0u8; 23];
        m.read_mem(task, read_va, &mut back).expect("read");
        assert_eq!(&back, b"through-the-whole-stack", "{mode:?}");
    }
}

#[test]
fn gem_mmap_gives_the_process_a_window_into_vram() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, 2 * PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        // Upload via PWRITE, observe through the mapping.
        let data_va = m.alloc_buffer(task, 64).expect("staging");
        m.write_mem(task, data_va, b"mapped!").expect("stage");
        drm.gem_pwrite(&mut m, bo, 0, data_va, 7).expect("pwrite");
        let map = drm.gem_map(&mut m, bo, 2 * PAGE_SIZE).expect("map");
        let mut through_map = [0u8; 7];
        m.read_mem(task, map, &mut through_map).expect("read map");
        assert_eq!(&through_map, b"mapped!", "{mode:?}");
        // Writes through the mapping are visible via PREAD.
        m.write_mem(task, map, b"texels^").expect("write map");
        let back_va = m.alloc_buffer(task, 64).expect("back");
        drm.gem_pread(&mut m, bo, 0, back_va, 7).expect("pread");
        let mut back = [0u8; 7];
        m.read_mem(task, back_va, &mut back).expect("read");
        assert_eq!(&back, b"texels^", "{mode:?}");
        // Unmap tears the window down.
        m.munmap(task, drm.fd, map, 2 * PAGE_SIZE).expect("munmap");
        assert!(m.read_mem(task, map, &mut through_map).is_err(), "{mode:?}");
    }
}

#[test]
fn gtt_objects_work_too() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, PAGE_SIZE, gem_domain::GTT)
            .expect("gtt bo");
        let data_va = m.alloc_buffer(task, 64).expect("staging");
        m.write_mem(task, data_va, b"gtt-bytes").expect("stage");
        drm.gem_pwrite(&mut m, bo, 0, data_va, 9).expect("pwrite");
        let map = drm.gem_map(&mut m, bo, PAGE_SIZE).expect("map");
        let mut seen = [0u8; 9];
        m.read_mem(task, map, &mut seen).expect("read");
        assert_eq!(&seen, b"gtt-bytes", "{mode:?}");
    }
}

#[test]
fn compute_time_is_identical_across_modes_modulo_forwarding() {
    let mut times = Vec::new();
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        let t0 = m.now_ns();
        drm.submit_compute(&mut m, 100).expect("dispatch");
        drm.wait_idle(&mut m, bo).expect("wait");
        times.push((mode, m.now_ns() - t0));
    }
    let native = times[0].1 as f64;
    for (mode, t) in &times {
        let ratio = *t as f64 / native;
        assert!(
            (0.99..1.05).contains(&ratio),
            "{mode:?}: ratio {ratio} (t = {t})"
        );
    }
}

#[test]
fn grant_lifecycle_is_clean_after_operations() {
    let mut m = machine(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: false,
    });
    let task = spawn(&mut m);
    let drm = DrmClient::open(&mut m, task).expect("open card0");
    let bo = drm
        .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
        .expect("bo");
    drm.submit_render(&mut m, 100, bo).expect("render");
    drm.wait_idle(&mut m, bo).expect("wait");
    // Every declared grant was revoked once its operation finished (§5.1).
    let guest = m.guest_vms()[0];
    assert_eq!(m.hv().borrow().outstanding_grants(guest), 0);
    // And nothing tripped the audit log in a clean run.
    assert!(m.hv().borrow().audit().is_empty());
}

#[test]
fn nested_copy_cs_goes_through_jit_grant_derivation() {
    let mut m = machine(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: false,
    });
    let task = spawn(&mut m);
    let drm = DrmClient::open(&mut m, task).expect("open card0");
    let bo = drm
        .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
        .expect("bo");
    drm.submit_render(&mut m, 50, bo).expect("render");
    let frontend = m.frontend(0).expect("frontend");
    let stats = frontend.borrow().stats();
    // GEM_CREATE is static; CS requires JIT evaluation (§4.1).
    assert!(stats.jit_evaluations >= 1, "stats: {stats:?}");
    assert!(stats.grants_declared >= 2);
}

#[test]
fn close_releases_driver_state() {
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        drm.gem_close(&mut m, bo).expect("close bo");
        m.close(task, drm.fd).expect("close fd");
        // Using the stale descriptor fails.
        assert!(drm.info(&mut m, info::DEVICE_ID).is_err(), "{mode:?}");
    }
}

#[test]
fn lazy_mappings_populate_through_the_fault_handler() {
    // §2.1: mapping "is mainly used by the mmap file operation and its
    // supporting page fault handler." A LAZY_MAP object installs no pages
    // at mmap time; each fault maps exactly one page.
    use paradice_drivers::gpu::driver::GEM_CREATE_LAZY_MAP;
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create_with_flags(&mut m, 2 * PAGE_SIZE, gem_domain::VRAM, GEM_CREATE_LAZY_MAP)
            .expect("lazy bo");
        // Put data in via PWRITE so the fault-mapped page has content.
        let data = m.alloc_buffer(task, 64).expect("staging");
        m.write_mem(task, data, b"lazy-page").expect("stage");
        drm.gem_pwrite(&mut m, bo, PAGE_SIZE, data, 9).expect("pwrite page 1");
        let map = drm.gem_map(&mut m, bo, 2 * PAGE_SIZE).expect("map");
        // Nothing is mapped yet: the access faults.
        let mut probe = [0u8; 9];
        assert!(m.read_mem(task, map.add(PAGE_SIZE), &mut probe).is_err(), "{mode:?}");
        // The kernel routes the fault to the driver, which installs the one
        // page…
        m.fault_page(task, drm.fd, map.add(PAGE_SIZE)).expect("fault");
        m.read_mem(task, map.add(PAGE_SIZE), &mut probe).expect("read after fault");
        assert_eq!(&probe, b"lazy-page", "{mode:?}");
        // …and only that page: page 0 still faults.
        assert!(m.read_mem(task, map, &mut probe).is_err(), "{mode:?}");
        // Faults outside any mapping are refused.
        assert_eq!(
            m.fault_page(task, drm.fd, GuestVirtAddr::new(0x7777_0000)),
            Err(Errno::Efault),
            "{mode:?}"
        );
    }
}

#[test]
fn two_gpu_makes_share_one_cvd() {
    // Table 1's point: a Radeon and an Intel GPU — different drivers,
    // different ioctl surfaces — both behind the very same CVD pair.
    use paradice::app::i915::{param, IntelClient};
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .device(DeviceSpec::intel_gpu())
        .build()
        .expect("two-GPU machine builds");
    let task = m.spawn_process(Some(0)).unwrap();

    // The guest sees both on its virtual PCI bus.
    let bus = m.bus(0).unwrap();
    assert_eq!(bus.len(), 2);
    assert!(bus.scan().iter().any(|l| l.contains("8086:2a02")));

    // Radeon path.
    let radeon = DrmClient::open(&mut m, task).expect("open radeon");
    assert_eq!(radeon.info(&mut m, info::DEVICE_ID).unwrap(), 0x6779);
    let rfb = radeon
        .gem_create(&mut m, 4 * PAGE_SIZE, gem_domain::VRAM)
        .unwrap();
    radeon.submit_render(&mut m, 1_000, rfb).unwrap();

    // Intel path, concurrently, through the same backend.
    let intel = IntelClient::open(&mut m, task).expect("open i915");
    assert_eq!(intel.getparam(&mut m, param::CHIPSET_ID).unwrap(), 0x2a02);
    let ifb = intel.gem_create(&mut m, 4 * PAGE_SIZE).unwrap();
    let fence = intel.exec_render(&mut m, 2_000, ifb).unwrap();
    assert_eq!(fence, 1);
    // PWRITE through the i915's own nested-copy path, read back via mmap.
    let data = m.alloc_buffer(task, 64).unwrap();
    m.write_mem(task, data, b"two-makes").unwrap();
    intel.gem_pwrite(&mut m, ifb, 0, data, 9).unwrap();
    let map = intel.gem_map(&mut m, ifb, PAGE_SIZE).unwrap();
    let mut seen = [0u8; 9];
    m.read_mem(task, map, &mut seen).unwrap();
    assert_eq!(&seen, b"two-makes");

    intel.wait(&mut m, ifb).unwrap();
    radeon.wait_idle(&mut m, rfb).unwrap();
    // Clean run: no isolation violations despite two drivers multiplexed
    // over one backend.
    assert!(m.hv().borrow().audit().is_empty());
}

#[test]
fn malformed_cs_pointers_fail_in_the_frontend_before_the_driver() {
    // Fault isolation has a side benefit: the frontend's JIT grant
    // derivation reads the chunk list itself, so a CS pointing at unmapped
    // memory dies with EFAULT in the *guest* — the driver VM never sees it.
    let mut m = machine(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: false,
    });
    let task = spawn(&mut m);
    let drm = DrmClient::open(&mut m, task).expect("open");
    let ops_before = m.backend().unwrap().borrow().ops_executed();
    // CS args whose chunks_ptr points into the void.
    let scratch = m.alloc_buffer(task, 64).expect("scratch");
    let mut args = [0u8; 16];
    args[0..8].copy_from_slice(&0xdead_0000u64.to_le_bytes());
    args[8..12].copy_from_slice(&1u32.to_le_bytes());
    m.write_mem(task, scratch, &args).expect("stage");
    assert_eq!(
        m.ioctl(task, drm.fd, paradice::gpu_ioctl::RADEON_CS, scratch.raw()),
        Err(Errno::Efault)
    );
    // The backend never executed the operation.
    assert_eq!(m.backend().unwrap().borrow().ops_executed(), ops_before);
    // And no grants leaked.
    assert_eq!(m.hv().borrow().outstanding_grants(m.guest_vms()[0]), 0);
}

#[test]
fn pwrite_from_an_unmapped_payload_faults_in_every_mode() {
    // PWRITE's slice consumes only the 32-byte header, so the frontend never
    // reads the payload: an unmapped one is granted and forwarded, and the
    // driver's own copy_from_user fails the hypervisor's walk — the errno
    // the native machine returns, with nothing else disturbed.
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm
            .gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        let data_va = m.alloc_buffer(task, PAGE_SIZE).expect("staging");
        let read_va = m.alloc_buffer(task, PAGE_SIZE).expect("readback");
        m.write_mem(task, data_va, &[0x5a; 64]).expect("stage");
        drm.gem_pwrite(&mut m, bo, 0, data_va, 64).expect("seed the bo");
        m.write_mem(task, data_va, &[0xa5; PAGE_SIZE as usize])
            .expect("restage");
        // Wholly unmapped, then straddling the staging buffer's last mapped
        // page into the guard page behind it.
        for payload in [GuestVirtAddr::new(0xdead_0000), data_va.add(PAGE_SIZE - 32)] {
            let forwarded = m.backend().map(|b| b.borrow().ops_executed());
            assert_eq!(
                drm.gem_pwrite(&mut m, bo, 0, payload, 64),
                Err(Errno::Efault),
                "{mode:?} {payload:?}"
            );
            drm.gem_pread(&mut m, bo, 0, read_va, 64).expect("pread");
            let mut back = [0u8; 64];
            m.read_mem(task, read_va, &mut back).expect("read");
            assert_eq!(back, [0x5a; 64], "{mode:?}: the bo must be untouched");
            assert!(!m.driver_vm_failed(), "{mode:?}");
            if let Some(frontend) = m.frontend(0) {
                assert!(!frontend.borrow().breaker_open(), "{mode:?}");
            }
            if let Some(backend) = m.backend() {
                // The faulting op and the PREAD both reached the driver, and
                // the refusal was a failed walk under a valid grant: the
                // audit log has no violation to report.
                assert_eq!(backend.borrow().ops_executed(), forwarded.unwrap() + 2);
                assert!(m.hv().borrow().audit().is_empty(), "{mode:?}");
                assert_eq!(m.hv().borrow().outstanding_grants(m.guest_vms()[0]), 0);
            }
        }
        drm.gem_pwrite(&mut m, bo, 0, data_va, 64)
            .expect("a mapped payload is served as before");
        drm.gem_pread(&mut m, bo, 0, read_va, 64).expect("pread");
        let mut back = [0u8; 64];
        m.read_mem(task, read_va, &mut back).expect("read");
        assert_eq!(back, [0xa5; 64], "{mode:?}");
    }
}

#[test]
fn a_transfer_whose_end_wraps_is_refused_in_every_mode() {
    // `offset + size` past 2^64 must not wrap to a small end that passes the
    // bounds check and moves the copy into the neighbouring object.
    let wrapping = u64::MAX - PAGE_SIZE + 1;
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo0 = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).expect("bo 0");
        let bo1 = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).expect("bo 1");
        let data_va = m.alloc_buffer(task, PAGE_SIZE).expect("staging");
        let read_va = m.alloc_buffer(task, PAGE_SIZE).expect("readback");
        m.write_mem(task, data_va, &[0x11; PAGE_SIZE as usize]).expect("stage");
        drm.gem_pwrite(&mut m, bo0, 0, data_va, PAGE_SIZE).expect("seed bo 0");
        m.write_mem(task, data_va, &[0x99; PAGE_SIZE as usize]).expect("restage");
        m.write_mem(task, read_va, &[0x77; PAGE_SIZE as usize]).expect("mark");
        assert_eq!(
            drm.gem_pread(&mut m, bo1, wrapping, read_va, PAGE_SIZE),
            Err(Errno::Einval),
            "{mode:?}"
        );
        let mut back = [0u8; PAGE_SIZE as usize];
        m.read_mem(task, read_va, &mut back).expect("read");
        assert!(back.iter().all(|&b| b == 0x77), "{mode:?}: bo 0 was read");
        assert_eq!(
            drm.gem_pwrite(&mut m, bo1, wrapping, data_va, PAGE_SIZE),
            Err(Errno::Einval),
            "{mode:?}"
        );
        drm.gem_pread(&mut m, bo0, 0, read_va, PAGE_SIZE).expect("pread bo 0");
        m.read_mem(task, read_va, &mut back).expect("read");
        assert!(back.iter().all(|&b| b == 0x11), "{mode:?}: bo 0 was overwritten");
    }
}

#[test]
fn a_range_past_the_top_of_the_address_space_faults_in_every_mode() {
    // The args struct or the payload runs past 2^64 (or ends exactly at
    // it): refused as an unmapped page before the range is split into
    // pages, never wrapped round to address 0.
    let (past, ending) = (u64::MAX - 15, u64::MAX - 31);
    for mode in all_modes() {
        let mut m = machine(mode);
        let task = spawn(&mut m);
        let drm = DrmClient::open(&mut m, task).expect("open card0");
        let bo = drm.gem_create(&mut m, PAGE_SIZE, gem_domain::VRAM).expect("bo");
        for arg in [past, ending] {
            for cmd in [RADEON_GEM_PWRITE, RADEON_GEM_PREAD] {
                assert_eq!(m.ioctl(task, drm.fd, cmd, arg), Err(Errno::Efault), "{mode:?}");
            }
        }
        for payload in [past, ending].map(GuestVirtAddr::new) {
            assert_eq!(
                drm.gem_pwrite(&mut m, bo, 0, payload, 32),
                Err(Errno::Efault),
                "{mode:?}"
            );
            assert_eq!(
                drm.gem_pread(&mut m, bo, 0, payload, 32),
                Err(Errno::Efault),
                "{mode:?}"
            );
        }
        assert!(!m.driver_vm_failed(), "{mode:?}");
    }
}

#[test]
fn machine_configuration_errors_are_reported() {
    // Guests in native mode.
    assert!(Machine::builder()
        .mode(ExecMode::Native)
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .is_err());
    // Paradice without guests.
    assert!(Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .device(DeviceSpec::gpu())
        .build()
        .is_err());
    // Process placement must match the mode.
    let mut native = Machine::builder()
        .mode(ExecMode::Native)
        .device(DeviceSpec::gpu())
        .build()
        .unwrap();
    assert!(native.spawn_process(Some(0)).is_err());
    let mut paradice = machine(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: false,
    });
    assert!(paradice.spawn_process(None).is_err());
    assert!(paradice.spawn_process(Some(7)).is_err());
}

#[test]
fn descriptor_misuse_is_rejected() {
    let mut m = machine(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: false,
    });
    let task = spawn(&mut m);
    // Unknown fd.
    assert_eq!(m.poll(task, 42), Err(Errno::Ebadf));
    // Double close.
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    m.close(task, fd).unwrap();
    assert_eq!(m.close(task, fd), Err(Errno::Ebadf));
    // Unknown task.
    assert_eq!(
        m.open(TaskId(9999), "/dev/dri/card0"),
        Err(Errno::Einval)
    );
    // Zero-length mmap.
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    assert_eq!(
        m.mmap(task, fd, 0, 0, Access::RW),
        Err(Errno::Einval)
    );
}
