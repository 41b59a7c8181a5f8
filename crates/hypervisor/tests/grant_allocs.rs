//! Allocation regression test for the grant page.
//!
//! A shard publishes one declaration per `declare` and retires one per
//! `revoke`; nothing else on the page is copied. A counting global
//! allocator pins that down: on a warmed shard, `revoke` allocates
//! nothing, and `declare` allocates the declaration's box plus one block
//! per non-empty range index — three for an ioctl that copies in and out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paradice_hypervisor::{MemOpGrant, ShardedGrantTable};
use paradice_mem::GuestVirtAddr;

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

/// The wall workloads' ioctl grant: copy the argument in and back out.
fn ioctl(slot: u64) -> Vec<MemOpGrant> {
    let addr = GuestVirtAddr::new(0x10_0000 + slot * 16);
    vec![
        MemOpGrant::CopyFromGuest { addr, len: 8 },
        MemOpGrant::CopyToGuest { addr, len: 8 },
    ]
}

#[test]
fn revoke_allocates_nothing_and_declare_one_block_per_index() {
    let table = ShardedGrantTable::with_guests(2);
    // Warm-up: the writer's retired list gets its capacity.
    for slot in 0..4 {
        let grant = table.declare(1, ioctl(slot)).expect("declare");
        assert!(table.revoke(1, grant));
    }
    // Three laps of the page, with one long-lived declaration holding a
    // home slot so later references probe past it.
    let resident = table.declare(1, ioctl(9999)).expect("declare");
    for slot in 0..384 {
        let ops = ioctl(slot);
        let (grant, declared) = blocks_allocated(|| table.declare(1, ops));
        let grant = grant.expect("declare");
        assert!(declared <= 3, "declare {slot} allocated {declared} blocks, expected ≤ 1 + 2");
        let (live, revoked) = blocks_allocated(|| table.revoke(1, grant));
        assert!(live);
        assert_eq!(revoked, 0, "revoke {slot} allocated");
    }
    // A declaration with no operations is the box alone.
    let (grant, declared) = blocks_allocated(|| table.declare(1, Vec::new()));
    assert_eq!(declared, 1);
    let (_, revoked) = blocks_allocated(|| table.revoke(1, grant.expect("declare")));
    assert_eq!(revoked, 0);
    assert!(table.revoke(1, resident));
}
