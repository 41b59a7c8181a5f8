//! The multi-tenant grant table: per-guest shards with lock-free reads.
//!
//! A shard is one guest's [`GrantTable`] — the same kernel the virtual-time
//! hypervisor steps under `RefCell` borrows — published for threads. On the
//! wall-clock engine the *backend* thread validates every memory operation
//! while the *frontend* thread declares and revokes, so `check` must stay
//! off any contended path: a frame's grant check sits on the per-op
//! critical path exactly as the paper's hypercall validation does (§4.1),
//! and a mutex there would serialize the two sides the engine exists to
//! overlap. This module owns only that publication protocol; reference
//! lookup, capacity and sequence allocation are the kernel's
//! ([`crate::grants`]).
//!
//! # Per-guest sharding
//!
//! Every [`GrantRef`] a shard issues is qualified with its owning guest in
//! the reference's high bits ([`GUEST_BITS`]); the low [`SEQ_BITS`] are the
//! kernel's per-guest monotonic sequence
//! ([`GrantTable::for_guest`]). Two consequences, both load-bearing for
//! multi-tenancy:
//!
//! * **Isolation of contention.** One guest's grant churn mutates only its
//!   own shard (own snapshot pointer, own writer mutex, own table), so a
//!   noisy neighbor never contends on another guest's validation fast
//!   path. This is the shared-metadata separation Kedia & Bansal identify
//!   as the scale separator.
//! * **Attribution before access.** A reference forged to name another
//!   guest's shard fails the guest-bits comparison in [`validate`]
//!   (`GrantError::ForeignGuest`) before the owner's shard is even
//!   touched — cross-guest probing cannot generate load on the victim.
//!
//! Capacity is the kernel's, hence per guest ([`GRANT_TABLE_CAPACITY`]
//! outstanding declarations each — the paper's one shared table page *per
//! guest pair*, §5.1), so a guest flooding declarations exhausts only its
//! own table.
//!
//! [`validate`]: ShardedGrantTable::validate
//! [`GUEST_BITS`]: crate::grants::GUEST_BITS
//! [`GRANT_TABLE_CAPACITY`]: crate::grants::GRANT_TABLE_CAPACITY
//!
//! # Read/write protocol (the race-checked design)
//!
//! Each shard publishes an immutable snapshot of its table through an
//! `AtomicPtr`; readers announce themselves on a per-shard `in_flight`
//! gate, load the pointer once, and look up — no lock, no waiting. Writers
//! (declare/revoke) take the shard's writer mutex, clone the table
//! (`(ref, Arc)` pairs, never the range indexes), apply the kernel
//! operation to the copy, swap the pointer, and *retire* the old snapshot
//! into the shard. The writer mutex is the only thing ordering writers, so
//! the kernel's sequence and capacity need no atomics of their own. An
//! operation that leaves the table as it was — a refused declare, a revoke
//! of an unknown reference — drops the copy and publishes nothing.
//!
//! # Bounded reclamation (DESIGN.md §14)
//!
//! Retired snapshots are reclaimed once a shard holds more than
//! [`RETIRED_CAP`] of them. The writer (still under its mutex) spins until
//! it observes `in_flight == 0`, then frees the whole retired list.
//! Soundness is a sequential-consistency argument, which is why the
//! pointer swap, the reader's gate enter, the reader's pointer load, and
//! the writer's gate check are all declared `SeqCst` ([`Edge::Gate`] in
//! [`ATOMIC_SITES`], lint rule `MO005`):
//!
//! * a reader counted in `in_flight` finished its scan before its gate
//!   exit, and the exit precedes the writer's `0` observation in the SC
//!   total order — scan happens-before free;
//! * a reader *not* counted entered the gate SC-after the writer's `0`
//!   observation, hence SC-after every pointer swap that retired the
//!   snapshots being freed; its SeqCst pointer load therefore returns
//!   the current (or a newer) snapshot, never a freed one — the
//!   store-load shape release/acquire cannot order (the
//!   `shard-retire-unfenced` mutant in `paradice-verify` exhibits the
//!   torn read a weaker gate admits).
//!
//! Readers stay wait-free (two uncontended-in-the-common-case RMWs per
//! validate or batch); the writer blocks only on overflow, amortized over
//! [`RETIRED_CAP`] mutations. The per-shard bound makes total retired
//! memory `O(guests * RETIRED_CAP)` instead of `O(mutations)`. The
//! per-guest protocol instances all execute the orderings declared once
//! in [`ATOMIC_SITES`] — one logical site, many instances — so the MO/RC
//! lint and the `race-shards` interleaving model cover every guest's
//! shard with the same proof.

use std::fmt;
use std::sync::Mutex;

use crate::atomic::{Access, AccessKind, AtomicPtr, AtomicUsize, Edge, MemOrder, Role, SiteSpec};
use crate::grants::{
    GrantError, GrantRef, GrantTable, MemOpGrant, MemOpRequest, MAX_GUESTS, SEQ_BITS, SEQ_MASK,
};

/// Per-shard cap on retired snapshots before the writer reclaims them.
pub const RETIRED_CAP: usize = 32;

// --- Declared atomic sites (the model the lint and checker consume). ---

static PTR_WRITER_LOAD: Access =
    Access::new("writer-load", AccessKind::Load, MemOrder::Relaxed, Edge::OwnerLocal);
static PTR_PUBLISH_SWAP: Access =
    Access::new("publish-swap", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static PTR_READER_LOAD: Access =
    Access::new("reader-load", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
static PTR_TEARDOWN_SWAP: Access =
    Access::new("teardown-swap", AccessKind::Rmw, MemOrder::Relaxed, Edge::OwnerLocal);
static PTR_ACCESSES: [&Access; 4] = [
    &PTR_WRITER_LOAD,
    &PTR_PUBLISH_SWAP,
    &PTR_READER_LOAD,
    &PTR_TEARDOWN_SWAP,
];
static PTR_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::shards",
    name: "current",
    group: "shards.snapshot",
    role: Role::SnapshotPtr,
    accesses: &PTR_ACCESSES,
};

static INFLIGHT_ENTER: Access =
    Access::new("enter", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_EXIT: Access =
    Access::new("exit", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_WRITER_CHECK: Access =
    Access::new("writer-check", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_ACCESSES: [&Access; 3] =
    [&INFLIGHT_ENTER, &INFLIGHT_EXIT, &INFLIGHT_WRITER_CHECK];
static INFLIGHT_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::shards",
    name: "in_flight",
    group: "shards.snapshot",
    role: Role::Counter,
    accesses: &INFLIGHT_ACCESSES,
};

/// This module's declared atomic-site table, aggregated by
/// [`crate::atomic::all_sites`] for the MO/RC lint passes and the
/// `paradice-verify` interleaving checker. The guest shards are
/// *instances* of the same two logical sites, executing the identical
/// declared orderings.
pub static ATOMIC_SITES: [&SiteSpec; 2] = [&PTR_SITE, &INFLIGHT_SITE];

/// One guest's shard: the published table, the reclamation gate, and the
/// writer mutex. Nothing in here is shared with any other guest.
struct Shard {
    /// The current snapshot. Readers: one gate enter + one pointer load.
    current: AtomicPtr<GrantTable>,
    /// Readers inside [`Shard::with_snapshot`] right now — the
    /// reclamation gate the writer waits on before freeing retired
    /// snapshots.
    in_flight: AtomicUsize,
    /// Serializes writers and owns the retired snapshots' lifetimes.
    /// The boxes are load-bearing, not redundant: readers hold
    /// `&GrantTable` references into the box allocations, which must stay
    /// pinned while retired.
    #[allow(clippy::vec_box)]
    writer: Mutex<Vec<Box<GrantTable>>>,
}

/// Decrements the reader gate even if the scan closure panics — a stuck
/// gate would spin the next reclaiming writer forever.
struct GateGuard<'a>(&'a AtomicUsize);

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, &INFLIGHT_EXIT);
    }
}

impl Shard {
    fn new(guest: u32) -> Self {
        Shard {
            current: AtomicPtr::new(Box::into_raw(Box::new(GrantTable::for_guest(guest)))),
            in_flight: AtomicUsize::new(0),
            writer: Mutex::new(Vec::new()),
        }
    }

    /// Copy-on-write mutation: apply `edit` to a copy of the current
    /// table and, if `changed` says its output altered the table, publish
    /// the copy and retire the old snapshot — reclaiming the retired list
    /// once it exceeds [`RETIRED_CAP`] (see the module docs for the
    /// soundness argument). An unchanged copy is dropped unpublished.
    /// Returns `edit`'s output.
    fn mutate<T>(
        &self,
        edit: impl FnOnce(&mut GrantTable) -> T,
        changed: impl FnOnce(&T) -> bool,
    ) -> T {
        let mut retired = self.writer.lock().expect("grant shard writer poisoned");
        // Safe to dereference: the pointer was published by us (or by
        // `Shard::new`) and we hold the writer mutex, so it cannot be
        // retired-and-freed underneath us.
        let current = unsafe { &*self.current.load(&PTR_WRITER_LOAD) };
        let mut next = current.clone();
        let out = edit(&mut next);
        if !changed(&out) {
            return out;
        }
        let fresh = Box::into_raw(Box::new(next));
        let old = self.current.swap(fresh, &PTR_PUBLISH_SWAP);
        // SAFETY: `old` came from `Box::into_raw` and is now unpublished;
        // retiring (not dropping) it keeps any in-flight reader's borrow
        // alive until the gate below proves no reader remains.
        retired.push(unsafe { Box::from_raw(old) });
        if retired.len() > RETIRED_CAP {
            // Wait for a moment with no reader inside the gate. Reader
            // critical sections are a pointer load plus one snapshot
            // lookup, so a zero observation arrives quickly; yield after a
            // bounded spin to stay polite under oversubscription.
            let mut spins = 0u32;
            while self.in_flight.load(&INFLIGHT_WRITER_CHECK) != 0 {
                spins += 1;
                if spins.is_multiple_of(128) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            // SC argument (module docs): readers gated in after the zero
            // observation cannot load any pointer retired before it.
            retired.clear();
        }
        out
    }

    /// Wait-free read of the published snapshot under the reclamation
    /// gate: the snapshot is pinned for exactly the closure's duration.
    fn with_snapshot<T>(&self, read: impl FnOnce(&GrantTable) -> T) -> T {
        self.in_flight.fetch_add(1, &INFLIGHT_ENTER);
        let _gate = GateGuard(&self.in_flight);
        // SAFETY: the gate entry above precedes this load in program
        // order and both are SeqCst, so any writer that observes the
        // gate at zero and frees retired snapshots did so before we
        // could have loaded one of them (module docs).
        let snapshot = unsafe { &*self.current.load(&PTR_READER_LOAD) };
        read(snapshot)
    }
}

/// A multi-tenant grant table: per-guest shards, wait-free validation,
/// safe to share across the wall-clock engine's threads (`Sync` by
/// construction: atomics plus per-shard writer mutexes).
pub struct ShardedGrantTable {
    shards: Vec<Shard>,
}

impl ShardedGrantTable {
    /// An empty table for guests `0..guests` (at least one, at most
    /// [`MAX_GUESTS`]), each with an exclusive shard.
    pub fn with_guests(guests: usize) -> Self {
        let guests = guests.clamp(1, MAX_GUESTS as usize) as u32;
        ShardedGrantTable {
            shards: (0..guests).map(Shard::new).collect(),
        }
    }

    /// The guest id a reference is qualified with.
    pub fn guest_of(grant: GrantRef) -> u32 {
        grant.0 >> SEQ_BITS
    }

    /// Composes a guest-qualified reference (test/adversary helper; the
    /// table itself allocates via [`declare`](Self::declare)).
    pub fn compose_ref(guest: u32, seq: u32) -> GrantRef {
        debug_assert!(guest < MAX_GUESTS && seq <= SEQ_MASK);
        GrantRef((guest << SEQ_BITS) | (seq & SEQ_MASK))
    }

    /// `guest`'s shard. Guest ids are host-assigned, so one the table was
    /// not sized for is a programming error (index panic), not hostile
    /// input.
    fn shard_of(&self, guest: u32) -> &Shard {
        &self.shards[guest as usize]
    }

    /// `guest`'s shard, if `grant` is `guest`'s to spend: a reference
    /// whose guest bits disagree is refused before the owning shard is
    /// touched.
    fn owner_shard(&self, guest: u32, grant: GrantRef) -> Result<&Shard, GrantError> {
        if Self::guest_of(grant) != guest {
            return Err(GrantError::ForeignGuest { grant, caller: guest });
        }
        Ok(self.shard_of(guest))
    }

    /// Declares the legitimate operations of one file operation on behalf
    /// of `guest`: [`GrantTable::declare`] on the guest's own table
    /// (per-guest capacity, per-guest monotonically increasing references
    /// with the guest id in the high bits).
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] at [`GRANT_TABLE_CAPACITY`] outstanding
    /// declarations *for this guest* (neighbors are unaffected), or when
    /// the guest's [`SEQ_BITS`]-wide reference space is exhausted.
    ///
    /// [`GRANT_TABLE_CAPACITY`]: crate::grants::GRANT_TABLE_CAPACITY
    pub fn declare(&self, guest: u32, ops: Vec<MemOpGrant>) -> Result<GrantRef, GrantError> {
        self.shard_of(guest)
            .mutate(|table| table.declare(ops), Result::is_ok)
    }

    /// Validates `request` against the declarations of `grant` without
    /// taking any lock — the engine's per-op hot path.
    ///
    /// # Errors
    ///
    /// [`GrantError::ForeignGuest`], [`GrantError::UnknownRef`] or
    /// [`GrantError::NotCovered`].
    pub fn validate(
        &self,
        guest: u32,
        grant: GrantRef,
        request: &MemOpRequest,
    ) -> Result<(), GrantError> {
        self.owner_shard(guest, grant)?
            .with_snapshot(|table| table.validate(grant, request))
    }

    /// All-or-nothing batch validation ([`GrantTable::validate_batch`])
    /// against one snapshot: the reader gate is entered once per batch.
    ///
    /// # Errors
    ///
    /// `(index, error)` for the first refused request.
    pub fn validate_batch(
        &self,
        guest: u32,
        grant: GrantRef,
        requests: &[MemOpRequest],
    ) -> Result<(), (usize, GrantError)> {
        if requests.is_empty() {
            // No request to refuse, whoever the reference belongs to.
            return Ok(());
        }
        self.owner_shard(guest, grant)
            .map_err(|err| (0, err))?
            .with_snapshot(|table| table.validate_batch(grant, requests))
    }

    /// Revokes a declaration; `true` if the reference was live. Foreign
    /// references (guest bits ≠ `guest`) are inert, exactly like revoking
    /// a reference that was never issued.
    pub fn revoke(&self, guest: u32, grant: GrantRef) -> bool {
        self.owner_shard(guest, grant)
            .is_ok_and(|shard| shard.mutate(|table| table.revoke(grant), |&live| live))
    }

    /// Revokes everything one guest declared (guest teardown / flood
    /// containment) without touching any neighbor's shard. Returns the
    /// number of declarations revoked; the guest's reference numbering
    /// continues so stale references can never alias new ones.
    pub fn revoke_guest(&self, guest: u32) -> usize {
        self.shard_of(guest)
            .mutate(GrantTable::revoke_all, |&revoked| revoked > 0)
    }

    /// Revokes everything (driver-VM failure containment). Returns the
    /// number of declarations revoked.
    pub fn revoke_all(&self) -> usize {
        (0..self.shards.len() as u32)
            .map(|guest| self.revoke_guest(guest))
            .sum()
    }

    /// Outstanding declarations across all guests (racy snapshot, exact
    /// when quiescent).
    pub fn outstanding(&self) -> usize {
        (0..self.shards.len() as u32)
            .map(|guest| self.outstanding_of(guest))
            .sum()
    }

    /// Outstanding declarations of one guest (racy snapshot, exact when
    /// quiescent).
    pub fn outstanding_of(&self, guest: u32) -> usize {
        self.shard_of(guest).with_snapshot(GrantTable::outstanding)
    }

    /// Retired snapshots currently held alive for in-flight readers —
    /// the memory cost of reclamation, surfaced for tests and capacity
    /// planning. Bounded: at most [`RETIRED_CAP`] per shard.
    pub fn retired_snapshots(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.writer.lock().expect("grant shard writer poisoned").len())
            .sum()
    }
}

impl Drop for ShardedGrantTable {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let current = shard.current.swap(std::ptr::null_mut(), &PTR_TEARDOWN_SWAP);
            if !current.is_null() {
                // SAFETY: `&mut self` proves no reader exists; the pointer
                // came from `Box::into_raw` and is dropped exactly once.
                drop(unsafe { Box::from_raw(current) });
            }
            // Retired snapshots drop with their Vec<Box<_>>.
        }
    }
}

impl fmt::Debug for ShardedGrantTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedGrantTable")
            .field("guests", &self.shards.len())
            .field("outstanding", &self.outstanding())
            .field("retired_snapshots", &self.retired_snapshots())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grants::GRANT_TABLE_CAPACITY;
    use paradice_mem::GuestVirtAddr;
    use std::sync::Arc;

    fn va(x: u64) -> GuestVirtAddr {
        GuestVirtAddr::new(x)
    }

    fn read_grant(addr: u64, len: u64) -> MemOpGrant {
        MemOpGrant::CopyFromGuest { addr: va(addr), len }
    }

    fn read_req(addr: u64, len: u64) -> MemOpRequest {
        MemOpRequest::CopyFromGuest { addr: va(addr), len }
    }

    #[test]
    fn declare_validate_revoke_matches_the_flat_table() {
        let table = ShardedGrantTable::with_guests(2);
        let grant = table.declare(1, vec![read_grant(0x1000, 64)]).expect("declare");
        assert_eq!(table.outstanding(), 1);
        table.validate(1, grant, &read_req(0x1000, 64)).expect("covered");
        table.validate(1, grant, &read_req(0x1020, 32)).expect("sub-range");
        assert_eq!(
            table.validate(1, grant, &read_req(0x1000, 65)),
            Err(GrantError::NotCovered { grant })
        );
        assert!(table.revoke(1, grant));
        assert!(!table.revoke(1, grant), "double revoke is inert");
        assert_eq!(
            table.validate(1, grant, &read_req(0x1000, 64)),
            Err(GrantError::UnknownRef { grant })
        );
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let table = ShardedGrantTable::with_guests(2);
        let grant = table.declare(1, vec![read_grant(0x1000, 64)]).expect("declare");
        table
            .validate_batch(1, grant, &[read_req(0x1000, 8), read_req(0x1008, 8)])
            .expect("both covered");
        let err = table
            .validate_batch(1, grant, &[read_req(0x1000, 8), read_req(0x2000, 8)])
            .expect_err("second not covered");
        assert_eq!(err, (1, GrantError::NotCovered { grant }));
    }

    #[test]
    fn capacity_is_per_guest() {
        let table = ShardedGrantTable::with_guests(4);
        let refs: Vec<_> = (0..GRANT_TABLE_CAPACITY)
            .map(|i| {
                table
                    .declare(1, vec![read_grant(i as u64 * 0x1000, 16)])
                    .expect("fits")
            })
            .collect();
        assert_eq!(
            table.declare(1, vec![read_grant(0, 1)]),
            Err(GrantError::TableFull)
        );
        // A flooding neighbor exhausts only its own table: guest 2 still
        // has its full capacity.
        table.declare(2, vec![read_grant(0, 1)]).expect("neighbor unaffected");
        assert!(table.revoke(1, refs[7]));
        table.declare(1, vec![read_grant(0, 1)]).expect("slot freed");
    }

    #[test]
    fn cross_guest_references_are_foreign_before_the_shard_is_touched() {
        let table = ShardedGrantTable::with_guests(4);
        let owner_ref = table.declare(2, vec![read_grant(0x1000, 64)]).expect("declare");
        // Guest 1 spends guest 2's (perfectly valid) reference: refused
        // with attribution, not UnknownRef.
        assert_eq!(
            table.validate(1, owner_ref, &read_req(0x1000, 8)),
            Err(GrantError::ForeignGuest { grant: owner_ref, caller: 1 })
        );
        // A forged reference naming guest 2's shard from guest 1 is
        // equally foreign; and revoke is inert.
        let forged = ShardedGrantTable::compose_ref(2, 0);
        assert_eq!(
            table.validate(1, forged, &read_req(0x1000, 8)),
            Err(GrantError::ForeignGuest { grant: forged, caller: 1 })
        );
        assert!(!table.revoke(1, forged));
        // The owner is untouched throughout.
        table.validate(2, owner_ref, &read_req(0x1000, 8)).expect("owner fine");
        assert_eq!(table.outstanding_of(2), 1);
    }

    #[test]
    fn guest_ids_ride_in_the_reference_high_bits() {
        let table = ShardedGrantTable::with_guests(1024);
        for guest in [0u32, 1, 63, 64, 999] {
            let r = table.declare(guest, vec![read_grant(0, 8)]).expect("declare");
            assert_eq!(ShardedGrantTable::guest_of(r), guest);
        }
    }

    #[test]
    fn revoke_guest_clears_only_that_guest() {
        let table = ShardedGrantTable::with_guests(8);
        for i in 0..5u64 {
            table.declare(1, vec![read_grant(i * 0x100, 8)]).expect("declare");
        }
        let neighbor = table.declare(2, vec![read_grant(0x9000, 8)]).expect("declare");
        assert_eq!(table.revoke_guest(1), 5);
        assert_eq!(table.outstanding_of(1), 0);
        table.validate(2, neighbor, &read_req(0x9000, 8)).expect("neighbor live");
        assert_eq!(table.outstanding(), 1);
    }

    #[test]
    fn revoke_all_empties_every_shard_without_reusing_refs() {
        let table = ShardedGrantTable::with_guests(4);
        let first = table.declare(1, vec![read_grant(0, 8)]).expect("declare");
        for i in 1..20u64 {
            table
                .declare(1 + (i as u32 % 3), vec![read_grant(i * 0x100, 8)])
                .expect("declare");
        }
        assert_eq!(table.revoke_all(), 20);
        assert_eq!(table.outstanding(), 0);
        let fresh = table.declare(1, vec![read_grant(0, 8)]).expect("declare");
        assert!(fresh.0 > first.0, "references never restart");
    }

    /// Same-shard declares from several threads serialize on the writer
    /// mutex, so the kernel still issues distinct, ascending references
    /// and every one of them resolves.
    #[test]
    fn concurrent_same_shard_declares_stay_searchable() {
        let table = Arc::new(ShardedGrantTable::with_guests(4));
        let mut workers = Vec::new();
        for t in 0..4u64 {
            let table = Arc::clone(&table);
            workers.push(std::thread::spawn(move || {
                (0..24u64)
                    .map(|i| {
                        let addr = (t * 24 + i) * 0x100;
                        let r = table.declare(1, vec![read_grant(addr, 16)]).expect("declare");
                        (r, addr)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        let mut issued = Vec::new();
        for worker in workers {
            issued.extend(worker.join().expect("worker"));
        }
        assert_eq!(issued.len(), 96);
        for (r, addr) in issued {
            table
                .validate(1, r, &read_req(addr, 16))
                .expect("every issued reference resolves");
        }
        assert_eq!(table.outstanding_of(1), 96);
    }

    #[test]
    fn retired_snapshots_track_mutations() {
        let table = ShardedGrantTable::with_guests(2);
        assert_eq!(table.retired_snapshots(), 0);
        let grant = table.declare(1, vec![read_grant(0, 8)]).expect("declare");
        assert_eq!(table.retired_snapshots(), 1);
        table.revoke(1, grant);
        assert_eq!(table.retired_snapshots(), 2);
    }

    /// An operation that leaves the table as it was publishes nothing, so
    /// it retires nothing either.
    #[test]
    fn refused_mutations_publish_nothing() {
        let table = ShardedGrantTable::with_guests(2);
        for i in 0..GRANT_TABLE_CAPACITY as u64 {
            table.declare(1, vec![read_grant(i * 0x10, 8)]).expect("fits");
        }
        let retired = table.retired_snapshots();
        assert_eq!(table.declare(1, vec![read_grant(0, 8)]), Err(GrantError::TableFull));
        assert!(!table.revoke(1, ShardedGrantTable::compose_ref(1, SEQ_MASK)), "never issued");
        assert!(!table.revoke(1, ShardedGrantTable::compose_ref(0, 0)), "foreign");
        assert_eq!(table.revoke_guest(0), 0, "nothing to revoke");
        assert_eq!(table.retired_snapshots(), retired);
    }

    /// ISSUE 9 satellite: the retired list used to grow with every
    /// mutation until table drop; it is now reclaimed past
    /// [`RETIRED_CAP`] per shard — and since ISSUE 10 a single guest's
    /// churn is confined to a single shard's bound.
    #[test]
    fn retired_snapshots_are_bounded_under_churn() {
        let table = ShardedGrantTable::with_guests(2);
        for i in 0..10_000u64 {
            let g = table.declare(1, vec![read_grant(i * 0x10, 8)]).expect("declare");
            assert!(table.revoke(1, g));
            assert!(
                table.retired_snapshots() <= RETIRED_CAP + 1,
                "retired list escaped the single-shard bound at mutation {i}"
            );
        }
    }

    #[test]
    fn concurrent_readers_never_block_or_misjudge() {
        let table = Arc::new(ShardedGrantTable::with_guests(8));
        let stable = table
            .declare(1, vec![read_grant(0x9000, 4096)])
            .expect("declare");
        let mut readers = Vec::new();
        for _ in 0..4 {
            let table = Arc::clone(&table);
            readers.push(std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    // The stable grant must always validate, regardless of
                    // the churn the writer thread is causing — here the
                    // churn even lives in the same guest's shard.
                    table
                        .validate(1, stable, &read_req(0x9000 + (i % 4000), 16))
                        .expect("stable grant always covered");
                }
            }));
        }
        let writer = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let g = table
                        .declare(1, vec![read_grant(i * 0x10, 8)])
                        .expect("churn declare");
                    assert!(table.revoke(1, g));
                    // The reclamation bound must hold *during* the churn,
                    // with readers pinning snapshots the whole time.
                    if i.is_multiple_of(128) {
                        assert!(
                            table.retired_snapshots() <= 8 * RETIRED_CAP,
                            "retired list escaped the bound mid-churn"
                        );
                    }
                }
            })
        };
        for reader in readers {
            reader.join().expect("reader");
        }
        writer.join().expect("writer");
        assert_eq!(table.outstanding(), 1);
        assert!(
            table.retired_snapshots() <= 8 * RETIRED_CAP,
            "retired list escaped the bound after churn"
        );
    }

    /// A heavy neighbor's churn must not grow the victim's shard
    /// metadata: with exact sizing the two guests share nothing.
    #[test]
    fn neighbor_churn_leaves_the_victim_shard_untouched() {
        let table = Arc::new(ShardedGrantTable::with_guests(2));
        let victim = table.declare(0, vec![read_grant(0x4000, 64)]).expect("declare");
        let churner = {
            let table = Arc::clone(&table);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let g = table.declare(1, vec![read_grant(i * 8, 8)]).expect("declare");
                    table.revoke(1, g);
                }
            })
        };
        for i in 0..20_000u64 {
            table
                .validate(0, victim, &read_req(0x4000 + (i % 60), 4))
                .expect("victim validate never disturbed");
        }
        churner.join().expect("churner");
        assert_eq!(table.outstanding_of(0), 1);
    }
}
