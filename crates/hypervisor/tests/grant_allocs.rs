//! Allocation regression test for the grant page.
//!
//! A shard publishes one declaration per `declare` and retires one per
//! `revoke`; nothing else on the page is copied, and a retired declaration
//! is recycled, not freed. A counting global allocator pins that down: on a
//! warmed shard neither `declare` nor `revoke` allocates, and the boxes a
//! shard keeps for recycling never outnumber the declarations it had live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paradice_hypervisor::{GrantRef, MemOpGrant, ShardedGrantTable};
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
fn ioctl(slot: u64) -> [MemOpGrant; 2] {
    let addr = GuestVirtAddr::new(0x10_0000 + slot * 16);
    [
        MemOpGrant::CopyFromGuest { addr, len: 8 },
        MemOpGrant::CopyToGuest { addr, len: 8 },
    ]
}

#[test]
fn a_warm_shard_declares_and_revokes_without_allocating() {
    let table = ShardedGrantTable::with_guests(2);
    // Warm-up: the writer's lists get their capacity, and four boxes
    // their blocks of windows.
    let warm: Vec<GrantRef> = (0..4)
        .map(|slot| table.declare(1, ioctl(slot)).expect("declare"))
        .collect();
    for grant in warm {
        assert!(table.revoke(1, grant));
    }
    // Three laps of the page, with one long-lived declaration holding a
    // home slot so later references probe past it.
    let resident = table.declare(1, ioctl(9999)).expect("declare");
    for slot in 0..384 {
        let ops = ioctl(slot);
        let (grant, declared) = blocks_allocated(|| table.declare(1, ops));
        let grant = grant.expect("declare");
        assert_eq!(declared, 0, "declare {slot} allocated");
        let (live, revoked) = blocks_allocated(|| table.revoke(1, grant));
        assert!(live);
        assert_eq!(revoked, 0, "revoke {slot} allocated");
    }
    // A declaration with no operations recycles a box too.
    let (grant, declared) = blocks_allocated(|| table.declare(1, []));
    assert_eq!(declared, 0);
    let (_, revoked) = blocks_allocated(|| table.revoke(1, grant.expect("declare")));
    assert_eq!(revoked, 0);
    assert!(table.revoke(1, resident));
}

#[test]
fn a_shard_keeps_at_most_one_spare_box_per_revoked_declaration() {
    let table = ShardedGrantTable::with_guests(2);
    assert_eq!(table.spare_declarations(), 0);
    for k in [1usize, 5, 40, 128] {
        let live: Vec<GrantRef> = (0..k as u64)
            .map(|slot| table.declare(1, ioctl(slot)).expect("declare"))
            .collect();
        // Every earlier spare box is live again before a new one is built.
        assert_eq!(table.spare_declarations(), 0, "{k} live declarations");
        for grant in live {
            assert!(table.revoke(1, grant));
        }
        assert_eq!(
            table.retired_declarations(),
            0,
            "a quiescent shard recycles eagerly"
        );
        assert_eq!(
            table.spare_declarations(),
            k,
            "after revoking {k} live declarations"
        );
    }
    // Revoking everything at once recycles the same way, and a neighbour's
    // churn touches only its own shard's spares.
    for slot in 0..10 {
        table.declare(1, ioctl(slot)).expect("declare");
    }
    assert_eq!(table.revoke_guest(1), 10);
    let neighbour = table.declare(0, ioctl(0)).expect("declare");
    assert!(table.revoke(0, neighbour));
    assert_eq!(table.spare_declarations(), 128 + 1);
}
