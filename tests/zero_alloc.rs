//! Zero-allocation witness for the `Machine` op path.
//!
//! A steady-state blocking `RADEON_INFO` crosses every layer — frontend,
//! `Channel`, backend, driver, `hc_memops`, grant page — and allocates
//! nothing: frames are encoded into stack slot-frames, the frontend derives
//! grants into one reused buffer, and a grant declaration is a recycled
//! block. So does a netmap `NIOCTXSYNC`, whose device has no analyzer
//! knowledge: its grants come from the `_IOC` encoding. So does a 16-KiB `GEM_PWRITE` / `GEM_PREAD`: its JIT program runs
//! on a reused scratch, and the hypervisor copies the payload straight
//! between the process pages and the BAR through the page plan it keeps.
//! Under data isolation a `GEM_PWRITE` stages through the driver's kept
//! buffer, and the device copy bounces each page through one stack page:
//! it allocates nothing either. A pipelined round allocates only the
//! results `Vec` it returns: the backend lends one deferred batch to every
//! dispatch. A counting global allocator pins these counts down, so a new
//! per-op allocation on any path fails here instead of showing up as a
//! slower benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paradice::app::netmap::NetmapClient;
use paradice::gpu_ioctl::{
    gem_domain, info, RADEON_GEM_CREATE, RADEON_GEM_PREAD, RADEON_GEM_PWRITE, RADEON_INFO,
};
use paradice::netmap_ioctl::NIOCTXSYNC;
use paradice::prelude::*;

/// Forwards to the system allocator, counting the calls that hand out a
/// block (`alloc`, `alloc_zeroed` through it, and `realloc`) per thread, so
/// tests running in parallel do not see each other's allocations.
struct Counting;

thread_local! {
    static BLOCKS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = BLOCKS.try_with(|blocks| blocks.set(blocks.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its output and the blocks it allocated.
fn blocks_allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

/// Argument slots the ops cycle through, as the benchmark's workloads do.
const SLOTS: u64 = 8;
/// Pipelined ioctls per flush on the fast path.
const ROUND: usize = 8;
const WARM_UP: usize = 1_000;

/// A Paradice machine with the GPU open in guest 0 and `SLOTS` 16-byte
/// `RADEON_INFO(DEVICE_ID)` requests staged: `(machine, task, fd, args)`.
fn gpu_rig(fastpath: bool) -> (Machine, TaskId, u64, Vec<u64>) {
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .expect("machine builds");
    if fastpath {
        m.enable_fastpath();
    }
    let task = m.spawn_process(Some(0)).expect("spawn");
    let fd = m.open(task, "/dev/dri/card0").expect("open card0");
    let base = m.alloc_buffer(task, 4096).expect("args");
    let mut request = [0u8; 16];
    request[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
    let args = (0..SLOTS)
        .map(|slot| {
            let arg = base.add(slot * 16);
            m.write_mem(task, arg, &request).expect("stage RADEON_INFO");
            arg.raw()
        })
        .collect();
    (m, task, fd, args)
}

/// A Paradice machine with the netmap NIC open and registered in guest 0:
/// `(machine, task, fd)`.
fn netmap_rig() -> (Machine, TaskId, u64) {
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::Netmap)
        .build()
        .expect("machine builds");
    let task = m.spawn_process(Some(0)).expect("spawn");
    let nic = NetmapClient::open(&mut m, task).expect("open and register netmap");
    (m, task, nic.fd)
}

/// Warms `call` up, then asserts that 10 000 more calls allocate nothing.
fn assert_steady_state_allocates_nothing(
    name: &str,
    mut call: impl FnMut(usize) -> Result<i64, Errno>,
) {
    for i in 0..WARM_UP {
        call(i).unwrap_or_else(|e| panic!("warm-up {name}: {e:?}"));
    }
    let (failed, blocks) = blocks_allocated(|| (0..10_000).filter(|&i| call(i).is_err()).count());
    assert_eq!(failed, 0, "{name}");
    assert_eq!(
        blocks, 0,
        "10 000 blocking {name} allocated {blocks} blocks"
    );
}

#[test]
fn a_blocking_ioctl_allocates_nothing_in_steady_state() {
    let (mut m, task, fd, args) = gpu_rig(false);
    assert_steady_state_allocates_nothing("RADEON_INFO", |i| {
        m.ioctl(task, fd, RADEON_INFO, args[i % args.len()])
    });
    let (mut m, task, fd) = netmap_rig();
    assert_steady_state_allocates_nothing("NIOCTXSYNC", |_| m.ioctl(task, fd, NIOCTXSYNC, 0));
}

/// A fast-path round allocates exactly one block: the results `Vec` that
/// `Machine::flush_pipeline` must return, sized to the round. Everything
/// else is kept from round to round — the grant cache's entries, the
/// frontend's completed list, and the backend's one deferred batch, whose
/// queue, byte arena and issue slice (re-typed per issue by an in-place
/// `collect` that keeps its allocation) each keep their capacity.
const BLOCKS_PER_ROUND: usize = 1;

#[test]
fn a_pipelined_round_allocates_only_its_results() {
    let (mut m, task, fd, args) = gpu_rig(true);
    let mut round = |r: usize| {
        for i in 0..ROUND {
            m.ioctl_pipelined(task, fd, RADEON_INFO, args[(r * ROUND + i) % args.len()])
                .expect("submit");
        }
        m.flush_pipeline(task).expect("flush")
    };
    for r in 0..WARM_UP / ROUND {
        assert!(round(r).iter().all(Result::is_ok));
    }
    let rounds = 1_000;
    let (results, blocks) = blocks_allocated(|| {
        (0..rounds)
            .map(|r| round(r).iter().filter(|result| result.is_ok()).count())
            .sum::<usize>()
    });
    assert_eq!(results, rounds * ROUND);
    assert_eq!(
        blocks,
        rounds * BLOCKS_PER_ROUND,
        "{rounds} pipelined rounds of {ROUND} allocated {blocks} blocks"
    );
}

/// Bytes per bulk transfer, as the benchmark's bulk workload moves them.
const BULK: u64 = 16 * 1024;

/// A machine in `mode` with the GPU open, a 16-KiB VRAM buffer object and
/// one staged `{handle, offset, size, data_ptr}` struct per direction:
/// `(machine, task, fd, pwrite_arg, pread_arg)`.
fn bulk_rig(mode: ExecMode) -> (Machine, TaskId, u64, u64, u64) {
    let mut builder = Machine::builder().mode(mode).device(DeviceSpec::gpu());
    if matches!(mode, ExecMode::Paradice { .. }) {
        builder = builder.guest(GuestSpec::linux());
    }
    let mut m = builder.build().expect("machine builds");
    let guest = matches!(mode, ExecMode::Paradice { .. }).then_some(0);
    let task = m.spawn_process(guest).expect("spawn");
    let fd = m.open(task, "/dev/dri/card0").expect("open card0");
    let args = m.alloc_buffer(task, 4096).expect("args");
    let mut create = [0u8; 24];
    create[0..8].copy_from_slice(&BULK.to_le_bytes());
    create[8..12].copy_from_slice(&gem_domain::VRAM.to_le_bytes());
    m.write_mem(task, args, &create).expect("stage GEM_CREATE");
    m.ioctl(task, fd, RADEON_GEM_CREATE, args.raw()).expect("GEM_CREATE");
    m.read_mem(task, args, &mut create).expect("read GEM_CREATE");
    let handle = u32::from_le_bytes(create[16..20].try_into().expect("len 4"));
    let transfer_at = |m: &mut Machine, slot: u64| {
        let data = m.alloc_buffer(task, BULK).expect("payload");
        m.write_mem(task, data, &[0x5a; BULK as usize]).expect("stage payload");
        let mut transfer = [0u8; 32];
        transfer[0..4].copy_from_slice(&handle.to_le_bytes());
        transfer[16..24].copy_from_slice(&BULK.to_le_bytes());
        transfer[24..32].copy_from_slice(&data.raw().to_le_bytes());
        let arg = args.add(slot * 32);
        m.write_mem(task, arg, &transfer).expect("stage transfer");
        arg.raw()
    };
    let pwrite = transfer_at(&mut m, 0);
    let pread = transfer_at(&mut m, 1);
    (m, task, fd, pwrite, pread)
}

#[test]
fn a_bulk_write_and_read_allocate_nothing_in_steady_state() {
    for mode in [
        ExecMode::Native,
        ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        },
    ] {
        let (mut m, task, fd, pwrite, pread) = bulk_rig(mode);
        let mut call = |i: usize| {
            let (cmd, arg) = if i.is_multiple_of(2) {
                (RADEON_GEM_PWRITE, pwrite)
            } else {
                (RADEON_GEM_PREAD, pread)
            };
            m.ioctl(task, fd, cmd, arg)
        };
        for i in 0..WARM_UP {
            call(i).expect("warm-up transfer");
        }
        let (failed, blocks) =
            blocks_allocated(|| (0..2_000).filter(|&i| call(i).is_err()).count());
        assert_eq!(failed, 0, "{mode:?}");
        assert_eq!(
            blocks, 0,
            "{mode:?}: 1 000 16-KiB GEM_PWRITE + GEM_PREAD pairs allocated {blocks} blocks"
        );
    }
}

#[test]
fn an_isolated_bulk_write_allocates_nothing_in_steady_state() {
    // Under data isolation the payload stages through the driver's kept
    // buffer and the region's staging page, and the device's copy engine
    // bounces each page through one stack page.
    let (mut m, task, fd, pwrite, _) = bulk_rig(ExecMode::Paradice {
        transport: TransportMode::Interrupts,
        data_isolation: true,
    });
    let mut call = || m.ioctl(task, fd, RADEON_GEM_PWRITE, pwrite);
    for _ in 0..WARM_UP {
        call().expect("warm-up transfer");
    }
    let (failed, blocks) = blocks_allocated(|| (0..1_000).filter(|_| call().is_err()).count());
    assert_eq!(failed, 0);
    assert_eq!(
        blocks, 0,
        "1 000 isolated 16-KiB GEM_PWRITEs allocated {blocks} blocks"
    );
}
