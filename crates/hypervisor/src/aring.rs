//! The shared ring page: the one ring kernel of both substrates.
//!
//! One direction of a frontend↔backend channel is one 4-KiB page of 16
//! slots. The virtual [`Channel`](crate::channel::Channel) owns one
//! [`AtomicRing`] per direction and drives it from its one thread under
//! the cost model; the wall-clock engine shares one between a frontend
//! thread and a backend thread. Either way the head/tail cursors and
//! per-slot ownership are published with acquire/release atomics, so the
//! same code is correct concurrently, and on real threads the doorbell is
//! a park/unpark handoff instead of a virtual-time spin budget.
//!
//! # Memory-ordering argument (DESIGN.md §14/§15.7 carry the prose version)
//!
//! The ring is single-producer single-consumer. Each slot carries a
//! free-running sequence number in the style of Vyukov's bounded queue:
//!
//! * slot `i` starts at `seq = i` — "free, awaiting push number `i`";
//! * the producer, at free-running cursor `t`, claims slot `t % N` iff
//!   `seq == t`, writes the payload, then publishes with
//!   `seq.store(t + 1, Release)` — the payload write *happens-before* any
//!   consumer that observes `t + 1` with an `Acquire` load;
//! * the consumer, at cursor `h`, pops slot `h % N` iff
//!   `seq == h + 1` (`Acquire` — synchronizes with the producer's
//!   release), reads the payload, then recycles with
//!   `seq.store(h + N, Release)` — the payload *read* happens-before the
//!   producer's next claim of the same slot (push number `h + N`).
//!
//! Cursors themselves are only ever written by their owning side, so the
//! slot sequence is the sole synchronization edge for payload bytes, and a
//! full ring is seen through it too: a push reads nothing the consumer
//! writes but the sequence word of the slot it claims. The `tail`/`head`
//! stores exist only for [`len`](FrameRing::len) and
//! [`is_empty`](FrameRing::is_empty) — the engine's wait predicates and
//! the virtual channel's depth check — and are published with `Release`
//! and read with `Acquire` for a conservative view. `N` divides `2^32`,
//! so wrapping `u32` arithmetic never aliases two in-flight pushes.
//!
//! Every ordering above is *declared*, not sprinkled: the atomics are
//! [`crate::atomic`] shim types and each operation names an access in
//! [`ATOMIC_SITES`], the table `paradice-lint`'s MO/RC passes check and
//! `paradice-verify`'s interleaving checker interprets. The doorbell's
//! `rung`/`parked` pair is a Dekker-style store-load protocol — release/
//! acquire is NOT sufficient there (both sides' flag stores can be
//! delayed past the other side's load, losing the wakeup), so those
//! accesses are declared `SeqCst` (`Edge::Gate`, rule `MO005`) and the
//! checker proves the pure park/unpark protocol lossless.
//!
//! The whole structure — both cursors (cache-line padded) plus 16 slots of
//! 240 payload bytes — is laid out `repr(C)` in exactly one 4-KiB page,
//! mirroring the paper's shared-page channel (§5.1).
//!
//! # Frame rings of a chosen slot size, plus the id ring
//!
//! The push/pop protocol lives once, in [`Cursors::push`] / [`Cursors::pop`],
//! generic over the slot type. [`FrameRing`] carries 16 frames of at most
//! `SLOT_BYTES` bytes each; [`AtomicRing`] is its one-page, 240-byte size
//! above, and a direction whose frames are known to be short picks a smaller
//! size (the multi-guest engine's response rings: 32-byte slots, two per
//! cache line, 640 bytes a ring; its request rings: one-line slots that a
//! long frame crosses as chunks, 1 152 bytes a ring). [`IdRing`] is the *ready ring* — one `u32`
//! guest id per slot, capacity chosen at construction — through which a
//! producer tells its consumer *which* guest's frame ring just gained a
//! frame (DESIGN.md §15). All execute the same declared accesses, so the
//! MO/RC lint and the `race-ring` proof cover them alike; `race-ready`
//! proves the composition (frame push → id publish against id consume →
//! frame pop).

use std::cell::UnsafeCell;
use std::fmt;
use std::sync::Mutex;
use std::thread::Thread;
use std::time::Duration;

use crate::atomic::{Access, AccessKind, AtomicBool, AtomicU32, Edge, MemOrder, Role, SiteSpec};

/// Slots in the ring, and so the deepest a
/// [`Channel`](crate::channel::Channel) direction can be; must divide
/// `2^32`.
pub const ARING_CAPACITY: usize = 16;

/// Payload bytes per slot: `(4096 - 2*64) / 16` minus the 8 bytes of
/// per-slot sequence + length. The largest frame the CVD encodes is an
/// `Open` request with a path of `proto::MAX_PATH` bytes, which fills a
/// slot exactly; a longer frame is [`ARingError::Oversize`] here and
/// [`ChannelError::TooLarge`](crate::channel::ChannelError::TooLarge) on
/// the channel. Sixteen full slots fit the page, so no byte budget is
/// kept beside the slot count.
pub const ARING_SLOT_BYTES: usize = 240;

const MASK: u32 = ARING_CAPACITY as u32 - 1;

// --- Declared atomic sites (the model the lint and checker consume). ---

static TAIL_OWNER: Access =
    Access::new("owner-load", AccessKind::Load, MemOrder::Relaxed, Edge::OwnerLocal);
static TAIL_ADVANCE: Access =
    Access::pre_doorbell("advance", AccessKind::Store, MemOrder::Release, Edge::Publish);
static TAIL_OCCUPANCY: Access =
    Access::new("occupancy", AccessKind::Load, MemOrder::Acquire, Edge::Consume);
static TAIL_ACCESSES: [&Access; 3] = [&TAIL_OWNER, &TAIL_ADVANCE, &TAIL_OCCUPANCY];
static TAIL_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "tail",
    group: "aring.cursor",
    role: Role::Cursor,
    accesses: &TAIL_ACCESSES,
};

static HEAD_OWNER: Access =
    Access::new("owner-load", AccessKind::Load, MemOrder::Relaxed, Edge::OwnerLocal);
static HEAD_ADVANCE: Access =
    Access::new("advance", AccessKind::Store, MemOrder::Release, Edge::Publish);
static HEAD_OCCUPANCY: Access =
    Access::new("occupancy", AccessKind::Load, MemOrder::Acquire, Edge::Consume);
static HEAD_ACCESSES: [&Access; 3] = [&HEAD_OWNER, &HEAD_ADVANCE, &HEAD_OCCUPANCY];
static HEAD_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "head",
    group: "aring.cursor",
    role: Role::Cursor,
    accesses: &HEAD_ACCESSES,
};

static SEQ_CLAIM_CHECK: Access =
    Access::new("claim-check", AccessKind::Load, MemOrder::Acquire, Edge::Consume);
static SEQ_PUBLISH: Access =
    Access::pre_doorbell("publish", AccessKind::Store, MemOrder::Release, Edge::Publish);
static SEQ_CONSUME: Access =
    Access::new("consume", AccessKind::Load, MemOrder::Acquire, Edge::Consume);
static SEQ_RECYCLE: Access =
    Access::new("recycle", AccessKind::Store, MemOrder::Release, Edge::Recycle);
static SEQ_CORRUPT_LOAD: Access =
    Access::new("corrupt-load", AccessKind::Load, MemOrder::Acquire, Edge::Observe);
static SEQ_CORRUPT_STORE: Access =
    Access::new("corrupt-store", AccessKind::Store, MemOrder::Release, Edge::Observe);
static SEQ_ACCESSES: [&Access; 6] = [
    &SEQ_CLAIM_CHECK,
    &SEQ_PUBLISH,
    &SEQ_CONSUME,
    &SEQ_RECYCLE,
    &SEQ_CORRUPT_LOAD,
    &SEQ_CORRUPT_STORE,
];
static SEQ_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "slot_seq",
    group: "aring.slot",
    role: Role::SlotSeq,
    accesses: &SEQ_ACCESSES,
};

static LEN_WRITE: Access =
    Access::new("write", AccessKind::Store, MemOrder::Relaxed, Edge::Payload);
static LEN_READ: Access =
    Access::new("read", AccessKind::Load, MemOrder::Relaxed, Edge::Payload);
static LEN_CORRUPT_STORE: Access =
    Access::new("corrupt-store", AccessKind::Store, MemOrder::Release, Edge::Observe);
static LEN_ACCESSES: [&Access; 3] = [&LEN_WRITE, &LEN_READ, &LEN_CORRUPT_STORE];
static LEN_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "slot_len",
    group: "aring.slot",
    role: Role::SlotLen,
    accesses: &LEN_ACCESSES,
};

static RUNG_RING: Access =
    Access::new("ring", AccessKind::Store, MemOrder::SeqCst, Edge::Gate);
static RUNG_DRAIN: Access =
    Access::new("drain", AccessKind::Rmw, MemOrder::SeqCst, Edge::Gate);
static RUNG_ACCESSES: [&Access; 2] = [&RUNG_RING, &RUNG_DRAIN];
static RUNG_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "rung",
    group: "aring.doorbell",
    role: Role::Flag,
    accesses: &RUNG_ACCESSES,
};

static PARKED_PARK: Access =
    Access::new("park", AccessKind::Store, MemOrder::SeqCst, Edge::Gate);
static PARKED_CHECK: Access =
    Access::new("unpark-check", AccessKind::Load, MemOrder::SeqCst, Edge::Gate);
static PARKED_CLEAR: Access =
    Access::new("clear", AccessKind::Store, MemOrder::SeqCst, Edge::Gate);
static PARKED_ACCESSES: [&Access; 3] = [&PARKED_PARK, &PARKED_CHECK, &PARKED_CLEAR];
static PARKED_SITE: SiteSpec = SiteSpec {
    module: "hypervisor::aring",
    name: "parked",
    group: "aring.doorbell",
    role: Role::Flag,
    accesses: &PARKED_ACCESSES,
};

/// This module's declared atomic-site table, aggregated by
/// [`crate::atomic::all_sites`] for the MO/RC lint passes and the
/// `paradice-verify` interleaving checker.
pub static ATOMIC_SITES: [&SiteSpec; 6] = [
    &TAIL_SITE,
    &HEAD_SITE,
    &SEQ_SITE,
    &LEN_SITE,
    &RUNG_SITE,
    &PARKED_SITE,
];

/// Why a push or pop did not happen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ARingError {
    /// All slots are occupied: the consumer has fallen behind.
    Full,
    /// The frame exceeds the ring's slot size.
    Oversize {
        /// Offending length.
        len: usize,
    },
}

impl fmt::Display for ARingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ARingError::Full => f.write_str("atomic ring full"),
            ARingError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds an atomic ring slot")
            }
        }
    }
}

impl std::error::Error for ARingError {}

/// A slot of any ring, as the kernel sees it: the sequence word the two
/// sides synchronize on.
trait SeqSlot {
    fn seq(&self) -> &AtomicU32;
}

/// Both free-running cursors, each on its own cache line, plus the one
/// Vyukov push/pop kernel every ring geometry runs (module docs).
#[repr(C, align(64))]
struct Cursors {
    /// Producer cursor (free-running). Written only by the producer.
    tail: AtomicU32,
    _pad0: [u8; 60],
    /// Consumer cursor (free-running). Written only by the consumer.
    head: AtomicU32,
    _pad1: [u8; 60],
}

impl Cursors {
    fn new() -> Cursors {
        Cursors {
            tail: AtomicU32::new(0),
            _pad0: [0; 60],
            head: AtomicU32::new(0),
            _pad1: [0; 60],
        }
    }

    /// Producer side: claims the slot for the next push, lets `fill` write
    /// its payload, publishes it. Reads no cursor the consumer writes: a
    /// full ring shows in the claimed slot's sequence. `slots.len()` is a
    /// power of two ≥ 2.
    #[inline(always)]
    fn push<S: SeqSlot>(&self, slots: &[S], fill: impl FnOnce(&S)) -> Result<(), ARingError> {
        let tail = self.tail.load(&TAIL_OWNER); // sole writer: us
        let slot = &slots[tail as usize & (slots.len() - 1)];
        // Acquire: synchronizes with the consumer's recycling store, so
        // our payload write cannot be reordered before the consumer is
        // done reading the previous occupant.
        if slot.seq().load(&SEQ_CLAIM_CHECK) != tail {
            return Err(ARingError::Full);
        }
        fill(slot);
        // Release: the payload happens-before any consumer that sees
        // seq == tail + 1.
        slot.seq().store(tail.wrapping_add(1), &SEQ_PUBLISH);
        self.tail.store(tail.wrapping_add(1), &TAIL_ADVANCE);
        Ok(())
    }

    /// Consumer side: if the oldest slot is published, lets `take` read
    /// its payload, then recycles it.
    #[inline(always)]
    fn pop<S: SeqSlot, T>(&self, slots: &[S], take: impl FnOnce(&S) -> T) -> Option<T> {
        let head = self.head.load(&HEAD_OWNER); // sole writer: us
        let slot = &slots[head as usize & (slots.len() - 1)];
        // Acquire: pairs with the producer's publishing Release.
        if slot.seq().load(&SEQ_CONSUME) != head.wrapping_add(1) {
            return None;
        }
        let taken = take(slot);
        // Release: our payload read happens-before the producer's next
        // claim of this slot (push number head + N).
        slot.seq()
            .store(head.wrapping_add(slots.len() as u32), &SEQ_RECYCLE);
        self.head.store(head.wrapping_add(1), &HEAD_ADVANCE);
        Some(taken)
    }

    /// Occupied slots, as a conservative cross-thread observation.
    fn len(&self) -> usize {
        let tail = self.tail.load(&TAIL_OCCUPANCY);
        let head = self.head.load(&HEAD_OCCUPANCY);
        tail.wrapping_sub(head) as usize
    }
}

#[repr(C)]
struct Slot<const SLOT_BYTES: usize> {
    /// Free-running push number this slot is ready for (see module docs).
    seq: AtomicU32,
    /// Valid payload bytes, written before `seq` publishes them.
    len: AtomicU32,
    data: UnsafeCell<[u8; SLOT_BYTES]>,
}

impl<const SLOT_BYTES: usize> SeqSlot for Slot<SLOT_BYTES> {
    fn seq(&self) -> &AtomicU32 {
        &self.seq
    }
}

/// One direction of a shared ring: [`ARING_CAPACITY`] frames of at most
/// `SLOT_BYTES` bytes each, concurrency-safe.
///
/// Single-producer single-consumer: exactly one thread may call
/// [`push`](FrameRing::push) and exactly one may call
/// [`try_pop`](FrameRing::try_pop). The type is `Sync` so both sides can
/// share it behind an `Arc`; the SPSC discipline is the caller's contract
/// (the engine owns one thread per side by construction). A
/// [`Channel`](crate::channel::Channel) owns its rings by value and is both
/// sides on one thread; only such an owner can reach the `&mut self` fault
/// hooks.
#[repr(C)]
pub struct FrameRing<const SLOT_BYTES: usize> {
    cursors: Cursors,
    slots: [Slot<SLOT_BYTES>; ARING_CAPACITY],
}

/// The one-page frame ring: each direction of a
/// [`Channel`](crate::channel::Channel).
pub type AtomicRing = FrameRing<ARING_SLOT_BYTES>;

// One page, like the virtual channel's shared page (paper §5.1). The
// instrumented shim types are `repr(transparent)` — this assert is also
// the proof they add zero bytes to the wire layout.
const _: () = assert!(std::mem::size_of::<AtomicRing>() == 4096);
const _: () = assert!(ARING_CAPACITY.is_power_of_two());
const _: () = assert!((u32::MAX as u64 + 1).is_multiple_of(ARING_CAPACITY as u64));

// SAFETY: the payload `UnsafeCell`s are only touched under the slot-seq
// protocol documented on the module: a slot's bytes are written by the
// single producer strictly before the `Release` store that hands the slot
// to the consumer, and read by the single consumer strictly before the
// `Release` store that hands it back. No two threads ever access a slot's
// payload concurrently.
unsafe impl<const SLOT_BYTES: usize> Sync for FrameRing<SLOT_BYTES> {}
unsafe impl<const SLOT_BYTES: usize> Send for FrameRing<SLOT_BYTES> {}

impl<const SLOT_BYTES: usize> Default for FrameRing<SLOT_BYTES> {
    fn default() -> Self {
        FrameRing::new()
    }
}

impl<const SLOT_BYTES: usize> FrameRing<SLOT_BYTES> {
    /// An empty ring: slot `i` awaits push number `i`.
    pub fn new() -> Self {
        FrameRing {
            cursors: Cursors::new(),
            slots: std::array::from_fn(|i| Slot {
                seq: AtomicU32::new(i as u32),
                len: AtomicU32::new(0),
                data: UnsafeCell::new([0; SLOT_BYTES]),
            }),
        }
    }

    /// Producer side: publishes one frame.
    pub fn push(&self, frame: &[u8]) -> Result<(), ARingError> {
        if frame.len() > SLOT_BYTES {
            return Err(ARingError::Oversize { len: frame.len() });
        }
        self.cursors.push(&self.slots, |slot| {
            // SAFETY: the kernel calls `fill` only once seq == tail, which
            // means the slot is ours (module protocol).
            unsafe {
                (&mut *slot.data.get())[..frame.len()].copy_from_slice(frame);
            }
            slot.len.store(frame.len() as u32, &LEN_WRITE);
        })
    }

    /// [`push`](FrameRing::push), plus whether the ring looked empty just
    /// before it. Only the benchmark's probes read that view, and
    /// ROADMAP [bench-debt] deletes this wrapper. The view is stale by the
    /// time the frame is published, so a caller that skips
    /// [`Doorbell::ring`] on `false` can lose a wake-up to a concurrent
    /// drain; ringing after every push cannot.
    pub fn try_push(&self, frame: &[u8]) -> Result<bool, ARingError> {
        let was_empty = self.is_empty();
        self.push(frame).map(|()| was_empty)
    }

    /// Consumer side: takes the oldest frame, if any, as an owned copy.
    pub fn try_pop(&self) -> Option<Vec<u8>> {
        self.try_pop_with(<[u8]>::to_vec)
    }

    /// Consumer side: hands the oldest frame, if any, to `take` in place
    /// (the slot is recycled once `take` returns), so a decoder reads the
    /// shared page without copying it out first.
    pub fn try_pop_with<T>(&self, take: impl FnOnce(&[u8]) -> T) -> Option<T> {
        self.cursors.pop(&self.slots, |slot| {
            // Clamp: `len` lives in shared memory, so a hostile or
            // corrupted producer can store any value. Truncated garbage
            // fails to decode (EINVAL) downstream; an unclamped length
            // would walk off the slot.
            let len = (slot.len.load(&LEN_READ) as usize).min(SLOT_BYTES);
            // SAFETY: the kernel calls `take` only once seq == head + 1:
            // the slot holds a published frame and the producer will not
            // touch it until we recycle it.
            take(unsafe { &(&*slot.data.get())[..len] })
        })
    }

    /// The push number of the newest published frame, for the fault hooks.
    fn newest(&self) -> Option<u32> {
        let tail = self.cursors.tail.load(&TAIL_OCCUPANCY);
        (tail != self.cursors.head.load(&HEAD_OCCUPANCY)).then(|| tail.wrapping_sub(1))
    }

    /// Fault hook for the ring's sole owner: rewrites the newest published
    /// frame in place (a corrupted or partial shared-page write). `rewrite`
    /// gets the slot's payload area and the frame's length and returns the
    /// new length, clamped to the slot. `false` when nothing is published.
    pub fn rewrite_newest(
        &mut self,
        rewrite: impl FnOnce(&mut [u8; SLOT_BYTES], usize) -> usize,
    ) -> bool {
        let Some(newest) = self.newest() else {
            return false;
        };
        let slot = &mut self.slots[(newest & MASK) as usize];
        let len = (*slot.len.get_mut() as usize).min(SLOT_BYTES);
        let len = rewrite(slot.data.get_mut(), len).min(SLOT_BYTES);
        *slot.len.get_mut() = len as u32;
        true
    }

    /// Fault hook for the ring's sole owner: takes back the newest
    /// published frame (a lost delivery), freeing its slot for the next
    /// push. `false` when nothing is published.
    pub fn unpush_newest(&mut self) -> bool {
        let Some(newest) = self.newest() else {
            return false;
        };
        *self.slots[(newest & MASK) as usize].seq.get_mut() = newest;
        *self.cursors.tail.get_mut() = newest;
        true
    }

    /// Adversarial injection: bumps the newest published slot's sequence
    /// word by `delta`, simulating a malicious VM scribbling on the shared
    /// page's control words. Returns `false` (no-op) when nothing is
    /// published. Sound under concurrency: `seq` is an atomic, so this is
    /// a data race with nobody — the consumer simply observes a sequence
    /// that never matches and treats the slot as not-yet-published.
    pub fn corrupt_newest_seq(&self, delta: u32) -> bool {
        let Some(newest) = self.newest() else {
            return false;
        };
        let slot = &self.slots[(newest & MASK) as usize];
        let seq = slot.seq.load(&SEQ_CORRUPT_LOAD);
        slot.seq.store(seq.wrapping_add(delta), &SEQ_CORRUPT_STORE);
        true
    }

    /// Adversarial injection: overwrites the newest published slot's
    /// length word (e.g. with a value far beyond the slot size).
    /// The consumer must clamp — see [`FrameRing::try_pop`] — so the
    /// worst a hostile length can do is truncate the frame into a decode
    /// error. Returns `false` when nothing is published.
    pub fn corrupt_newest_len(&self, len: u32) -> bool {
        let Some(newest) = self.newest() else {
            return false;
        };
        let slot = &self.slots[(newest & MASK) as usize];
        slot.len.store(len, &LEN_CORRUPT_STORE);
        true
    }

    /// Occupied slots, as a conservative cross-thread observation.
    pub fn len(&self) -> usize {
        self.cursors.len()
    }

    /// Whether the ring appears empty (conservative, racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<const SLOT_BYTES: usize> fmt::Debug for FrameRing<SLOT_BYTES> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameRing")
            .field("capacity", &ARING_CAPACITY)
            .field("len", &self.len())
            .finish()
    }
}

#[repr(C)]
struct IdSlot {
    seq: AtomicU32,
    /// The payload word: one guest id, written before `seq` publishes it
    /// (the `slot_len` site's payload accesses, like a frame's length).
    id: AtomicU32,
}

impl SeqSlot for IdSlot {
    fn seq(&self) -> &AtomicU32 {
        &self.seq
    }
}

/// The ready-ring geometry of the kernel: a single-producer
/// single-consumer ring of `u32` guest ids, sized at construction.
///
/// A producer that has just pushed a frame into one guest's
/// [`FrameRing`] publishes that guest's id here, so the consumer learns
/// *which* ring to pop instead of scanning all of them. The id slot's
/// publishing `Release` is program-ordered after the frame's, and the
/// consumer's `Acquire` on the id slot precedes its frame pop, so a
/// consumed id always finds its frame (`race-ready`). Ids are plain
/// shared-memory words: the consumer must bounds-check them.
pub struct IdRing {
    cursors: Cursors,
    slots: Box<[IdSlot]>,
}

impl IdRing {
    /// An empty ring holding at least `min_slots` ids (rounded up to a
    /// power of two, and to two slots — with one, "published push `k`"
    /// and "free for push `k + 1`" would be the same sequence value).
    ///
    /// # Panics
    ///
    /// If the rounded capacity does not divide `2^32`.
    pub fn with_capacity(min_slots: usize) -> Self {
        let capacity = min_slots.max(2).next_power_of_two();
        assert!(capacity <= 1 << 31, "id ring capacity must divide 2^32");
        IdRing {
            cursors: Cursors::new(),
            slots: (0..capacity as u32)
                .map(|i| IdSlot {
                    seq: AtomicU32::new(i),
                    id: AtomicU32::new(0),
                })
                .collect(),
        }
    }

    /// Slots in this ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Producer side: publishes one id; the only error is
    /// [`ARingError::Full`].
    pub fn push(&self, id: u32) -> Result<(), ARingError> {
        self.cursors
            .push(&self.slots, |slot| slot.id.store(id, &LEN_WRITE))
    }

    /// Consumer side: takes the oldest id, if any.
    pub fn try_pop(&self) -> Option<u32> {
        self.cursors.pop(&self.slots, |slot| slot.id.load(&LEN_READ))
    }

    /// Occupied slots, as a conservative cross-thread observation.
    pub fn len(&self) -> usize {
        self.cursors.len()
    }

    /// Whether the ring appears empty (conservative, racy by nature).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for IdRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

/// The inter-VM interrupt line of the wall-clock engine.
///
/// Virtual-time polling burns a spin budget on the virtual clock; on real
/// threads the idle side parks itself and the producer un-parks it after
/// publishing work.
///
/// `rung`/`parked` form a Dekker-style store-load protocol: the producer
/// stores `rung` then loads `parked`; the consumer stores `parked` then
/// loads (swaps) `rung`. Under release/acquire *both* flag stores may be
/// delayed past the other side's load — producer sees `parked == false`,
/// consumer sees `rung == false`, and the wakeup is lost (the shape
/// `paradice-verify`'s `race-doorbell` property exhibits under the
/// `doorbell-check-before-publish` mutant). All four accesses are
/// therefore declared `SeqCst` ([`Edge::Gate`], lint rule `MO005`): in
/// the single total order of SeqCst operations one side's store precedes
/// the other side's load, so at least one side observes the handoff. The
/// bounded `park_timeout` is kept as defense in depth (e.g. against a
/// producer dying mid-ring), not as a correctness crutch.
#[derive(Debug, Default)]
pub struct Doorbell {
    rung: AtomicBool,
    parked: AtomicBool,
    sleeper: Mutex<Option<Thread>>,
}

impl Doorbell {
    /// A doorbell nobody is waiting on.
    pub fn new() -> Self {
        Doorbell::default()
    }

    /// Registers the calling thread as the (single) waiter. Called once,
    /// from the consumer thread, before its first [`wait`](Doorbell::wait).
    pub fn register(&self) {
        *self.sleeper.lock().expect("doorbell sleeper poisoned") = Some(std::thread::current());
    }

    /// Rings: wakes the registered waiter if it is parked. Call it after
    /// *every* publication the waiter's `ready()` predicate observes —
    /// that per-publication protocol is what `race-doorbell` proves
    /// lossless; gating it on an occupancy view taken before publishing
    /// is not (the `doorbell-coalesce-on-stale-empty` mutant).
    pub fn ring(&self) {
        self.rung.store(true, &RUNG_RING);
        if self.parked.load(&PARKED_CHECK) {
            if let Some(thread) = &*self.sleeper.lock().expect("doorbell sleeper poisoned") {
                thread.unpark();
            }
        }
    }

    /// Blocks the registered waiter until the bell has rung since the last
    /// wait (consuming the ring), or `ready()` reports work.
    pub fn wait(&self, mut ready: impl FnMut() -> bool) {
        if self.rung.swap(false, &RUNG_DRAIN) || ready() {
            return;
        }
        self.parked.store(true, &PARKED_PARK);
        while !self.rung.swap(false, &RUNG_DRAIN) && !ready() {
            std::thread::park_timeout(Duration::from_millis(1));
        }
        self.parked.store(false, &PARKED_CLEAR);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip_preserves_bytes() {
        let ring = AtomicRing::new();
        assert!(ring.is_empty());
        ring.push(b"hello").expect("push");
        assert_eq!(ring.len(), 1);
        ring.push(b"world").expect("push");
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.try_pop().as_deref(), Some(&b"hello"[..]));
        assert_eq!(ring.try_pop().as_deref(), Some(&b"world"[..]));
        assert_eq!(ring.try_pop(), None);
    }

    #[test]
    fn fills_at_capacity_and_recovers() {
        let ring = AtomicRing::new();
        for i in 0..ARING_CAPACITY {
            ring.push(&[i as u8]).expect("push below capacity");
        }
        assert_eq!(ring.push(b"x"), Err(ARingError::Full));
        assert_eq!(ring.try_pop().as_deref(), Some(&[0u8][..]));
        ring.push(b"y").expect("freed slot re-usable");
        for i in 1..ARING_CAPACITY {
            assert_eq!(ring.try_pop().as_deref(), Some(&[i as u8][..]));
        }
        assert_eq!(ring.try_pop().as_deref(), Some(&b"y"[..]));
    }

    #[test]
    fn oversize_frames_are_rejected_like_the_virtual_channel() {
        let ring = AtomicRing::new();
        let frame = [0u8; ARING_SLOT_BYTES + 1];
        assert_eq!(
            ring.push(&frame),
            Err(ARingError::Oversize {
                len: ARING_SLOT_BYTES + 1
            })
        );
        ring.push(&[0u8; ARING_SLOT_BYTES]).expect("exact fit");
    }

    #[test]
    fn wraparound_many_times_stays_fifo() {
        let ring = AtomicRing::new();
        let mut next_pop = 0u32;
        for round in 0..64u32 {
            for lap in 0..ARING_CAPACITY as u32 {
                let value = round * ARING_CAPACITY as u32 + lap;
                ring.push(&value.to_le_bytes()).expect("push");
            }
            for _ in 0..ARING_CAPACITY {
                let frame = ring.try_pop().expect("pop");
                let got = u32::from_le_bytes(frame.try_into().expect("4 bytes"));
                assert_eq!(got, next_pop);
                next_pop += 1;
            }
        }
    }

    /// The owner's fault hooks at a cursor offset past one lap: a rewrite
    /// clamps to the slot, and an unpushed slot takes the next push.
    #[test]
    fn the_owner_rewrites_and_unpushes_the_newest_frame() {
        let mut ring = AtomicRing::new();
        assert!(!ring.rewrite_newest(|_, len| len) && !ring.unpush_newest());
        for i in 0..ARING_CAPACITY + 3 {
            ring.push(&[i as u8]).expect("push");
            assert_eq!(ring.try_pop_with(|frame| frame[0]), Some(i as u8));
        }
        ring.push(b"old").expect("push");
        ring.push(b"lost").expect("push");
        assert!(ring.unpush_newest());
        ring.push(b"next").expect("the freed slot");
        assert!(ring.rewrite_newest(|_, _| usize::MAX));
        assert_eq!(ring.try_pop().as_deref(), Some(&b"old"[..]));
        assert_eq!(
            ring.try_pop().map(|frame| frame.len()),
            Some(ARING_SLOT_BYTES)
        );
        assert_eq!(ring.try_pop(), None);
    }

    /// The probes' wrapper keeps its meaning: the view before the push,
    /// and the push itself, refusals included.
    #[test]
    fn try_push_reports_the_view_before_the_push() {
        let ring = AtomicRing::new();
        let views: Vec<bool> = (0..4u8)
            .map(|i| ring.try_push(&[i]).expect("push"))
            .collect();
        assert_eq!(views, [true, false, false, false]);
        assert_eq!(ring.len(), 4);
        while ring.try_pop().is_some() {}
        assert_eq!(ring.try_push(b"b"), Ok(true), "empty again");
        while ring.push(b"f").is_ok() {}
        assert_eq!(ring.try_push(b"x"), Err(ARingError::Full));
        assert_eq!(ring.len(), ARING_CAPACITY);
    }

    #[test]
    fn two_threads_transfer_everything_in_order() {
        let ring = Arc::new(AtomicRing::new());
        let total: u32 = 40_000;
        let producer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..total {
                    loop {
                        match ring.push(&i.to_le_bytes()) {
                            Ok(_) => break,
                            Err(ARingError::Full) => std::hint::spin_loop(),
                            Err(e) => panic!("unexpected push error: {e}"),
                        }
                    }
                }
            })
        };
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut expected = 0u32;
                while expected < total {
                    if let Some(frame) = ring.try_pop() {
                        let got = u32::from_le_bytes(frame.try_into().expect("4 bytes"));
                        assert_eq!(got, expected, "FIFO order violated");
                        expected += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        producer.join().expect("producer");
        consumer.join().expect("consumer");
        assert!(ring.is_empty());
    }

    /// At the page size and at the multi-guest engine's 24-byte response
    /// size alike.
    #[test]
    fn a_hostile_length_word_is_clamped_not_overread() {
        fn clamped<const SLOT_BYTES: usize>() {
            let ring = FrameRing::<SLOT_BYTES>::new();
            ring.push(b"short frame").expect("push");
            assert!(ring.corrupt_newest_len(u32::MAX), "slot is published");
            // The consumer must clamp to the slot size instead of slicing
            // past the payload: a truncated-garbage frame, never a panic.
            let frame = ring.try_pop().expect("still poppable");
            assert_eq!(frame.len(), SLOT_BYTES);
            assert_eq!(&frame[..11], b"short frame");
        }
        clamped::<ARING_SLOT_BYTES>();
        clamped::<24>();
    }

    #[test]
    fn a_corrupted_seq_word_hides_the_slot_but_cannot_corrupt_fifo() {
        let ring = AtomicRing::new();
        ring.push(b"first").expect("push");
        ring.push(b"second").expect("push");
        assert!(ring.corrupt_newest_seq(7));
        // The older slot is untouched; the corrupted one reads as
        // not-yet-published, so the consumer stalls instead of handing out
        // a torn frame.
        assert_eq!(ring.try_pop().as_deref(), Some(&b"first"[..]));
        assert_eq!(ring.try_pop(), None, "corrupted slot must not pop");
        // The producer eventually observes the stuck slot as Full — loss
        // is detected as backpressure, never silent reuse.
        for _ in 0..ARING_CAPACITY {
            let _ = ring.push(b"fill");
        }
        assert_eq!(ring.push(b"x"), Err(ARingError::Full));
    }

    #[test]
    fn corruption_on_an_empty_ring_is_a_noop() {
        let ring = AtomicRing::new();
        assert!(!ring.corrupt_newest_seq(1));
        assert!(!ring.corrupt_newest_len(9999));
        ring.push(b"ok").expect("push");
        assert_eq!(ring.try_pop().as_deref(), Some(&b"ok"[..]));
    }

    #[test]
    fn doorbell_wakes_a_parked_waiter() {
        let bell = Arc::new(Doorbell::new());
        let ring = Arc::new(AtomicRing::new());
        let waiter = {
            let (bell, ring) = (Arc::clone(&bell), Arc::clone(&ring));
            std::thread::spawn(move || {
                bell.register();
                bell.wait(|| !ring.is_empty());
                ring.try_pop().expect("frame present after wakeup")
            })
        };
        std::thread::sleep(Duration::from_millis(5));
        ring.push(b"ding").expect("push");
        bell.ring();
        let frame = waiter.join().expect("waiter");
        assert_eq!(frame, b"ding");
    }

    /// Real-thread stress of the publish → ring / wait → pop hand-off:
    /// every round forces an empty→non-empty publication to race the
    /// consumer's park decision — the Dekker interleaving `race-doorbell`
    /// proves safe under SeqCst. Asserts completion, order and an empty
    /// ring only; the lost-wakeup regression itself is carried by the
    /// `doorbell-check-before-publish` mutant fixture, not by a stopwatch.
    #[test]
    fn doorbell_never_loses_the_empty_to_nonempty_wakeup() {
        const ROUNDS: u32 = 4_000;
        let bell = Arc::new(Doorbell::new());
        let ring = Arc::new(AtomicRing::new());
        let consumer = {
            let (bell, ring) = (Arc::clone(&bell), Arc::clone(&ring));
            std::thread::spawn(move || {
                bell.register();
                let mut got = 0u32;
                while got < ROUNDS {
                    if let Some(frame) = ring.try_pop() {
                        assert_eq!(frame, got.to_le_bytes(), "hand-off out of order");
                        got += 1;
                    } else {
                        bell.wait(|| !ring.is_empty());
                    }
                }
            })
        };
        let producer = {
            let (bell, ring) = (Arc::clone(&bell), Arc::clone(&ring));
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    // Wait for the consumer to drain so *every* push is an
                    // empty→non-empty transition racing a potential park.
                    while !ring.is_empty() {
                        std::hint::spin_loop();
                    }
                    ring.push(&i.to_le_bytes()).expect("a drained ring has room");
                    bell.ring();
                }
            })
        };
        producer.join().expect("producer");
        consumer.join().expect("consumer");
        assert!(ring.is_empty());
    }

    #[test]
    fn id_ring_rounds_its_capacity_and_stays_fifo_across_wraps() {
        assert_eq!(IdRing::with_capacity(0).capacity(), 2);
        assert_eq!(IdRing::with_capacity(1_000 * ARING_CAPACITY).capacity(), 16_384);
        let ring = IdRing::with_capacity(3);
        assert_eq!(ring.capacity(), 4);
        let mut next = 0u32;
        for round in 0..64u32 {
            for lap in 0..4 {
                ring.push(round * 4 + lap).expect("push below capacity");
                assert_eq!(ring.len(), lap as usize + 1);
            }
            assert_eq!(ring.push(u32::MAX), Err(ARingError::Full));
            assert_eq!(ring.len(), 4);
            while let Some(id) = ring.try_pop() {
                assert_eq!(id, next);
                next += 1;
            }
            assert!(ring.is_empty());
        }
        assert_eq!(next, 256);
    }

    /// The composition `race-ready` proves, on real threads: a frame is
    /// pushed, then its guest's id published; whoever consumes an id
    /// finds that guest's frame already there, every time.
    #[test]
    fn a_consumed_id_always_finds_its_frame() {
        const ROUNDS: u32 = 20_000;
        let frames: Arc<[AtomicRing; 2]> = Arc::new([AtomicRing::new(), AtomicRing::new()]);
        let ready = Arc::new(IdRing::with_capacity(2 * ARING_CAPACITY));
        let producer = {
            let (frames, ready) = (Arc::clone(&frames), Arc::clone(&ready));
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let guest = (i % 3 == 0) as usize;
                    while frames[guest].push(&i.to_le_bytes()).is_err() {
                        std::hint::spin_loop();
                    }
                    ready.push(guest as u32).expect("bounded by the frame rings");
                }
            })
        };
        let mut served = 0u32;
        while served < ROUNDS {
            let Some(guest) = ready.try_pop() else {
                std::hint::spin_loop();
                continue;
            };
            let frame = frames[guest as usize].try_pop().expect("id without a frame");
            assert_eq!(frame, served.to_le_bytes(), "global order is publication order");
            served += 1;
        }
        producer.join().expect("producer");
        assert!(ready.is_empty() && frames.iter().all(AtomicRing::is_empty));
    }

    /// In debug builds the shim records which declared accesses actually
    /// executed; the ring's hot-path accesses must all be live (a declared
    /// access nothing executes is model rot).
    #[test]
    fn hot_path_accesses_are_observed() {
        if !cfg!(debug_assertions) {
            return;
        }
        let ring = AtomicRing::new();
        ring.push(b"x").expect("push");
        // The engine's wait predicates read occupancy through is_empty().
        assert!(!ring.is_empty());
        ring.try_pop().expect("pop");
        let bell = Doorbell::new();
        bell.register();
        bell.ring();
        bell.wait(|| true);
        for access in [
            &TAIL_OWNER,
            &TAIL_ADVANCE,
            &HEAD_OWNER,
            &HEAD_ADVANCE,
            &HEAD_OCCUPANCY,
            &SEQ_CLAIM_CHECK,
            &SEQ_PUBLISH,
            &SEQ_CONSUME,
            &SEQ_RECYCLE,
            &LEN_WRITE,
            &LEN_READ,
            &RUNG_RING,
            &RUNG_DRAIN,
            &PARKED_CHECK,
        ] {
            assert!(
                crate::atomic::was_observed(access),
                "declared access {:?} never executed",
                access.name
            );
        }
    }
}
