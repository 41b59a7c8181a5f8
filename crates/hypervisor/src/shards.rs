//! The multi-tenant grant table: per-guest shards with lock-free reads.
//!
//! This is the one grant store. A shard *is* one guest's grant page — the
//! [`GrantTable`] kernel of [`crate::grants`] — published for threads; the
//! virtual-time [`Hypervisor`](crate::hv::Hypervisor) owns one table and
//! gains a shard per `create_vm`, and each multi-guest engine owns one
//! sized for its guests. On the wall-clock engine the *backend* thread
//! validates every memory operation while the *frontend* thread declares
//! and revokes, so `check` must stay off any contended path: a frame's
//! grant check sits on the per-op critical path exactly as the paper's
//! hypercall validation does (§4.1), and a mutex there would serialize
//! the two sides the engine exists to overlap. This module owns only that
//! publication protocol; reference lookup (the home slot), capacity and
//! sequence allocation are the kernel's.
//!
//! # Per-guest sharding
//!
//! Every [`GrantRef`] a shard issues is qualified with its owning guest in
//! the reference's high bits ([`GUEST_BITS`]); the low [`SEQ_BITS`] are the
//! kernel's per-guest sequence, which wraps inside the guest's range. Two
//! consequences, both load-bearing for multi-tenancy:
//!
//! * **Isolation of contention.** One guest's grant churn touches only its
//!   own shard (own page, own writer mutex, own reader gate), so a noisy
//!   neighbor never contends on another guest's validation fast path. This
//!   is the shared-metadata separation Kedia & Bansal identify as the
//!   scale separator.
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
//! Each slot of a shard's page is an `AtomicPtr` to one boxed declaration
//! (null when empty). Readers announce themselves on the shard's
//! `in_flight` gate, then look the reference up — load its home slot,
//! compare the declaration's reference, scan its range index — and exit:
//! no lock, no waiting. Writers take the shard's writer mutex, which owns the
//! reference sequence, so the kernel's sequence needs no atomics of its
//! own:
//!
//! * `declare` builds one box and publishes it into the empty home slot
//!   the kernel picked — one pointer store;
//! * `revoke` unpublishes that one box (swaps its slot to null) and
//!   *retires* it into the writer's list; nothing else on the page moves.
//!
//! An operation that leaves the page as it was — a refused declare, a
//! revoke of an unknown reference — publishes and retires nothing.
//!
//! # Eager, bounded reclamation (DESIGN.md §14)
//!
//! After every retirement the writer (still under its mutex) reads the
//! gate: at `in_flight == 0` it frees the whole retired list at once, so a
//! shard no reader is probing holds no retired box at all. Otherwise the
//! boxes wait for a later retirement — unless more than [`RETIRED_CAP`]
//! are waiting, in which case the writer spins until it reads zero.
//! Soundness is a sequential-consistency argument, which is why the
//! publish and unpublish swaps, the reader's gate enter, the reader's slot
//! load, and the writer's gate check are all declared `SeqCst`
//! ([`Edge::Gate`] in [`ATOMIC_SITES`], lint rule `MO005`):
//!
//! * a reader counted in `in_flight` finished its lookup before its gate
//!   exit, and the exit precedes the writer's `0` observation in the SC
//!   total order — lookup happens-before free;
//! * a reader *not* counted entered the gate SC-after the writer's `0`
//!   observation, hence SC-after every unpublish that retired the boxes
//!   being freed; its SeqCst slot loads therefore return null or a newer
//!   box, never a freed one — the store-load shape release/acquire cannot
//!   order (the `shard-retire-unfenced` mutant in `paradice-verify`
//!   exhibits the use-after-free a weaker gate admits).
//!
//! Readers stay wait-free (two uncontended-in-the-common-case RMWs per
//! validate or batch); the writer blocks only past [`RETIRED_CAP`] boxes
//! retired while readers kept the gate busy, so retired memory is
//! `O(guests * RETIRED_CAP)` declarations at worst. The per-guest protocol
//! instances all execute the orderings declared once in [`ATOMIC_SITES`] —
//! one logical site, many instances — so the MO/RC lint and the
//! `race-shards` interleaving model cover every guest's shard with the
//! same proof.

use std::fmt;
use std::sync::{Mutex, MutexGuard};

use crate::atomic::{Access, AccessKind, AtomicPtr, AtomicUsize, Edge, MemOrder, Role, SiteSpec};
use crate::grants::{
    Declaration, GrantError, GrantRef, GrantTable, MemOpGrant, MemOpRequest, Sequence,
    GRANT_TABLE_CAPACITY, MAX_GUESTS, SEQ_BITS, SEQ_MASK,
};

/// Per-shard cap on retired declarations the writer leaves for a later
/// retirement while readers keep the gate busy; past it the writer waits
/// for the gate to clear.
pub const RETIRED_CAP: usize = 32;

// --- Declared atomic sites (the model the lint and checker consume). ---

static SLOT_PUBLISH: Access = Access::new("publish", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static SLOT_UNPUBLISH: Access =
    Access::new("unpublish", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static SLOT_LOAD: Access = Access::new("load", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
static SLOT_ACCESSES: [&Access; 3] = [&SLOT_PUBLISH, &SLOT_UNPUBLISH, &SLOT_LOAD];
static SLOT_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::shards",
    name: "page_slot",
    group: "shards.page",
    role: Role::SnapshotPtr,
    accesses: &SLOT_ACCESSES,
};

static INFLIGHT_ENTER: Access = Access::new("enter", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_EXIT: Access = Access::new("exit", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_WRITER_CHECK: Access =
    Access::new("writer-check", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
static INFLIGHT_ACCESSES: [&Access; 3] = [&INFLIGHT_ENTER, &INFLIGHT_EXIT, &INFLIGHT_WRITER_CHECK];
static INFLIGHT_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::shards",
    name: "in_flight",
    group: "shards.page",
    role: Role::Counter,
    accesses: &INFLIGHT_ACCESSES,
};

/// This module's declared atomic-site table, aggregated by
/// [`crate::atomic::all_sites`] for the MO/RC lint passes and the
/// `paradice-verify` interleaving checker. Every slot of every guest's
/// page is an *instance* of the one slot site, and every shard's gate of
/// the one gate site, executing the identical declared orderings.
pub static ATOMIC_SITES: [&SiteSpec; 2] = [&SLOT_SITE, &INFLIGHT_SITE];

/// One slot of a shard's page: a pointer to a boxed declaration, null
/// when empty.
#[derive(Default)]
pub(crate) struct AtomicSlot(AtomicPtr<Declaration>);

impl AtomicSlot {
    /// The declaration in this slot, if any.
    pub(crate) fn get(&self) -> Option<&Declaration> {
        // SAFETY: this module loads a slot only inside the reader gate
        // (`Shard::read`) or under the writer mutex, and the box a load
        // returns is freed only by the writer, behind a zero gate reading
        // that follows its unpublish (module docs).
        unsafe { self.0.load(&SLOT_LOAD).as_ref() }
    }

    /// Unpublishes this slot's declaration, if any. Writer only; the box
    /// must be retired, not dropped, while a reader may still hold it
    /// (the slot's own drop excepted: `&mut self` proves no reader).
    fn unpublish(&self) -> Option<Box<Declaration>> {
        let old = self.0.swap(std::ptr::null_mut(), &SLOT_UNPUBLISH);
        // SAFETY: a non-null slot pointer came from `Box::into_raw` in
        // `Shard::declare`, and the swap above removed the only copy of it.
        (!old.is_null()).then(|| unsafe { Box::from_raw(old) })
    }
}

impl Drop for AtomicSlot {
    fn drop(&mut self) {
        drop(self.unpublish());
    }
}

/// A shard's writer state, behind its mutex.
struct Writer {
    /// The guest's reference sequence.
    sequence: Sequence,
    /// Declarations unpublished but not yet freed. The boxes are
    /// load-bearing, not redundant: readers hold `&Declaration`
    /// references into the box allocations, which must stay pinned while
    /// retired.
    #[allow(clippy::vec_box)]
    retired: Vec<Box<Declaration>>,
}

/// One guest's shard: the page, the reclamation gate, and the writer
/// mutex. Nothing in here is shared with any other guest.
struct Shard {
    page: GrantTable,
    /// Readers inside [`Shard::read`] right now — the reclamation gate
    /// the writer reads before freeing retired declarations.
    in_flight: AtomicUsize,
    writer: Mutex<Writer>,
}

/// Decrements the reader gate even if the read closure panics — a stuck
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
            page: GrantTable::empty(),
            in_flight: AtomicUsize::new(0),
            writer: Mutex::new(Writer {
                sequence: Sequence::for_guest(guest),
                retired: Vec::new(),
            }),
        }
    }

    fn writer(&self) -> MutexGuard<'_, Writer> {
        self.writer.lock().expect("grant shard writer poisoned")
    }

    /// Declares into the empty home slot the kernel picks: one box, one
    /// publish.
    fn declare(&self, ops: Vec<MemOpGrant>) -> Result<GrantRef, GrantError> {
        let mut writer = self.writer();
        let (index, declaration) = writer.sequence.declare(&self.page, &ops)?;
        let grant = declaration.grant;
        let old = self.page.slots()[index].0.swap(Box::into_raw(declaration), &SLOT_PUBLISH);
        debug_assert!(old.is_null(), "the kernel picked an occupied slot");
        Ok(grant)
    }

    /// Unpublishes and retires the declarations in the slots `pick`
    /// chooses under the writer mutex, then reclaims; returns how many.
    fn retire<I: Iterator<Item = usize>>(&self, pick: impl FnOnce(&GrantTable) -> I) -> usize {
        let mut writer = self.writer();
        let before = writer.retired.len();
        let picked = pick(&self.page);
        writer.retired.extend(picked.filter_map(|index| self.page.slots()[index].unpublish()));
        let retired = writer.retired.len() - before;
        if retired > 0 {
            self.reclaim(&mut writer);
        }
        retired
    }

    /// Frees the retired list as soon as the gate reads zero; leaves it
    /// for a later retirement while readers are inside, unless more than
    /// [`RETIRED_CAP`] boxes are waiting (module docs for the soundness
    /// argument).
    fn reclaim(&self, writer: &mut Writer) {
        while self.in_flight.load(&INFLIGHT_WRITER_CHECK) != 0 {
            if writer.retired.len() <= RETIRED_CAP {
                return;
            }
            // Reader critical sections are one lookup, so a zero reading
            // arrives quickly; yielding stays polite under
            // oversubscription.
            std::thread::yield_now();
        }
        writer.retired.clear();
    }

    /// Wait-free read of the page under the reclamation gate: every
    /// declaration the closure reaches stays alive for its duration, and
    /// no reference to one can outlive it.
    fn read<T>(&self, read: impl FnOnce(&GrantTable) -> T) -> T {
        self.in_flight.fetch_add(1, &INFLIGHT_ENTER);
        let _gate = GateGuard(&self.in_flight);
        read(&self.page)
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

    /// A table with no guests yet, for the hypervisor, which adds one
    /// shard per VM.
    pub(crate) fn empty() -> Self {
        ShardedGrantTable { shards: Vec::new() }
    }

    /// Adds the shard of the next guest id (the hypervisor's
    /// `create_vm`).
    pub(crate) fn add_guest(&mut self) {
        self.shards.push(Shard::new(self.shards.len() as u32));
    }

    /// Checker hook: spends `count` of `guest`'s sequence numbers without
    /// issuing them, as if they had been declared and revoked, so slot
    /// reuse and the wrap are reachable without 2^20 declares. The
    /// sequence still skips every live reference's number.
    #[doc(hidden)]
    pub fn with_refs_spent(self, guest: u32, count: u32) -> Self {
        self.shard_of(guest).writer().sequence.spend(count);
        self
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
    /// of `guest` on the guest's own page (per-guest capacity, per-guest
    /// references with the guest id in the high bits).
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] at [`GRANT_TABLE_CAPACITY`] outstanding
    /// declarations *for this guest* (neighbors are unaffected).
    ///
    /// [`GRANT_TABLE_CAPACITY`]: crate::grants::GRANT_TABLE_CAPACITY
    pub fn declare(&self, guest: u32, ops: Vec<MemOpGrant>) -> Result<GrantRef, GrantError> {
        self.shard_of(guest).declare(ops)
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
        self.owner_shard(guest, grant)?.read(|page| {
            page.validate_batch(grant, std::slice::from_ref(request)).map_err(|(_, error)| error)
        })
    }

    /// All-or-nothing batch validation under one gate entry: `Ok` iff
    /// every request is covered by `grant`'s declaration.
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
            .read(|page| page.validate_batch(grant, requests))
    }

    /// Revokes a declaration; `true` if the reference was live. Foreign
    /// references (guest bits ≠ `guest`) are inert, exactly like revoking
    /// a reference that was never issued.
    pub fn revoke(&self, guest: u32, grant: GrantRef) -> bool {
        self.owner_shard(guest, grant).is_ok_and(|shard| {
            shard.retire(|page| page.find(grant).map(|(index, _)| index).into_iter()) == 1
        })
    }

    /// Revokes everything one guest declared (guest teardown / flood
    /// containment) without touching any neighbor's shard. Returns the
    /// number of declarations revoked; the guest's reference numbering
    /// continues, so a revoked reference returns only after a full lap.
    pub fn revoke_guest(&self, guest: u32) -> usize {
        self.shard_of(guest).retire(|_| 0..GRANT_TABLE_CAPACITY)
    }

    /// Revokes everything (driver-VM failure containment). Returns the
    /// number of declarations revoked.
    pub fn revoke_all(&self) -> usize {
        self.shards.iter().map(|shard| shard.retire(|_| 0..GRANT_TABLE_CAPACITY)).sum()
    }

    /// Outstanding declarations across all guests (racy snapshot, exact
    /// when quiescent).
    pub fn outstanding(&self) -> usize {
        self.shards.iter().map(|shard| shard.read(GrantTable::outstanding)).sum()
    }

    /// Outstanding declarations of one guest (racy snapshot, exact when
    /// quiescent).
    pub fn outstanding_of(&self, guest: u32) -> usize {
        self.shard_of(guest).read(GrantTable::outstanding)
    }

    /// Retired declarations currently held alive for in-flight readers —
    /// the memory cost of reclamation, surfaced for tests and capacity
    /// planning. Zero on a shard no reader is probing; at most
    /// [`RETIRED_CAP`] per shard otherwise.
    pub fn retired_declarations(&self) -> usize {
        self.shards.iter().map(|shard| shard.writer().retired.len()).sum()
    }
}

impl fmt::Debug for ShardedGrantTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedGrantTable")
            .field("guests", &self.shards.len())
            .field("outstanding", &self.outstanding())
            .field("retired_declarations", &self.retired_declarations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A declare publishes one box and retires nothing; a revoke retires
    /// one box, which a shard no reader is probing frees at once.
    #[test]
    fn retired_snapshots_track_mutations() {
        let table = ShardedGrantTable::with_guests(2);
        assert_eq!(table.retired_declarations(), 0);
        let grant = table.declare(1, vec![read_grant(0, 8)]).expect("declare");
        assert_eq!(table.retired_declarations(), 0);
        assert!(table.revoke(1, grant));
        assert_eq!(table.retired_declarations(), 0, "a quiescent shard frees eagerly");
        for i in 0..5u64 {
            table.declare(1, vec![read_grant(i * 0x10, 8)]).expect("declare");
        }
        assert_eq!(table.revoke_guest(1), 5);
        assert_eq!(table.retired_declarations(), 0);
    }

    /// An operation that leaves the page as it was publishes nothing, so
    /// it retires nothing either.
    #[test]
    fn refused_mutations_publish_nothing() {
        let table = ShardedGrantTable::with_guests(2);
        for i in 0..GRANT_TABLE_CAPACITY as u64 {
            table.declare(1, vec![read_grant(i * 0x10, 8)]).expect("fits");
        }
        assert_eq!(table.declare(1, vec![read_grant(0, 8)]), Err(GrantError::TableFull));
        assert!(!table.revoke(1, ShardedGrantTable::compose_ref(1, SEQ_MASK)), "never issued");
        assert!(!table.revoke(1, ShardedGrantTable::compose_ref(0, 0)), "foreign");
        assert_eq!(table.revoke_guest(0), 0, "nothing to revoke");
        assert_eq!(table.outstanding_of(1), GRANT_TABLE_CAPACITY);
        assert_eq!(table.retired_declarations(), 0);
    }

    /// The retired list never outlives a mutation on a quiescent shard,
    /// however long the churn — and a single guest's churn stays confined
    /// to its own shard's list.
    #[test]
    fn retired_snapshots_are_bounded_under_churn() {
        let table = ShardedGrantTable::with_guests(2);
        for i in 0..10_000u64 {
            let g = table.declare(1, vec![read_grant(i * 0x10, 8)]).expect("declare");
            assert!(table.revoke(1, g));
            assert_eq!(
                table.retired_declarations(),
                0,
                "a quiescent shard kept a retired box at mutation {i}"
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
                    // churn even lives in the same guest's shard, and every
                    // home slot is reused many times over.
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
                    // with readers inside the gate the whole time.
                    assert!(
                        table.retired_declarations() <= RETIRED_CAP + 1,
                        "retired list escaped the bound mid-churn"
                    );
                }
            })
        };
        for reader in readers {
            reader.join().expect("reader");
        }
        writer.join().expect("writer");
        assert_eq!(table.outstanding(), 1);
        assert!(
            table.retired_declarations() <= RETIRED_CAP + 1,
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
