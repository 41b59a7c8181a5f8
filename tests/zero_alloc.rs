//! Zero-allocation witness for the `Machine` op path.
//!
//! A steady-state blocking `RADEON_INFO` crosses every layer — frontend,
//! `Channel`, backend, driver, `hc_memops`, grant page — and allocates
//! nothing: frames are encoded into stack slot-frames, the frontend derives
//! grants into one reused buffer, and a grant declaration is a recycled
//! block. A counting global allocator pins that down, and pins the
//! pipelined fast path's count too, so a new per-op allocation on either
//! path fails here instead of showing up as a slower benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paradice::gpu_ioctl::{info, RADEON_INFO};
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

#[test]
fn a_blocking_ioctl_allocates_nothing_in_steady_state() {
    let (mut m, task, fd, args) = gpu_rig(false);
    let mut call = |i: usize| m.ioctl(task, fd, RADEON_INFO, args[i % args.len()]);
    for i in 0..WARM_UP {
        call(i).expect("warm-up RADEON_INFO");
    }
    let (failed, blocks) = blocks_allocated(|| (0..10_000).filter(|&i| call(i).is_err()).count());
    assert_eq!(failed, 0);
    assert_eq!(
        blocks, 0,
        "10 000 blocking RADEON_INFO allocated {blocks} blocks"
    );
}

/// The fast path's rounds allocate exactly this many blocks each:
/// - the per-op results `flush_pipeline` hands back are a fresh `Vec`,
///   grown to hold a round (two blocks);
/// - each op's deferred mem-op batch queues its `copy_to_user` bytes in a
///   `Vec` of their own, in a queue of its own, and issues them through a
///   collected slice (three blocks per op).
const BLOCKS_PER_ROUND: usize = 2 + 3 * ROUND;

#[test]
fn a_pipelined_round_allocates_only_its_results_and_deferred_writes() {
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
