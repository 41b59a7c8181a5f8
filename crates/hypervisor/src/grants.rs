//! Grant tables: declared-legitimate memory operations.
//!
//! Fault isolation's second technique (paper §4.1): the hypervisor performs
//! "strict runtime checks … to validate the memory operations requested by
//! the driver VM, making sure that they cannot be abused by the compromised
//! driver VM to compromise other guest VMs, e.g., by asking the hypervisor to
//! copy data to some sensitive memory location inside a guest VM kernel."
//!
//! Before forwarding a file operation, the CVD frontend *declares* the
//! operation's legitimate memory operations in a grant table (one shared page
//! between the frontend VM and the hypervisor, §5.1), obtaining a
//! [`GrantRef`] that the backend must attach to every hypercall for that file
//! operation. The reference "acts as an index and helps the hypervisor
//! validate the operation with minimal overhead."
//!
//! Validation is *subset* matching: a requested operation must lie entirely
//! within a declared grant of the same kind.
//!
//! [`GrantTable`] is that page: [`GRANT_TABLE_CAPACITY`] atomic slots,
//! each holding at most one boxed declaration, and a reference is its
//! slot's index — a declaration lives only in its home slot, the
//! reference's sequence number modulo the capacity. There is one store:
//! each [`crate::shards`] shard is one guest's page, and the virtual-time
//! [`Hypervisor`](crate::hv::Hypervisor) validates against the same
//! [`ShardedGrantTable`](crate::shards::ShardedGrantTable) the engines do.
//! Reference lookup, capacity and sequence allocation live here only.
//!
//! A guest's sequence wraps. `declare` issues the next sequence number
//! whose home slot is empty, so a live reference is never issued twice
//! (its slot is occupied), and a revoked one comes back only after a full
//! lap of the guest's sequence. Even then it names only that guest's live
//! declaration, which a compromised driver VM could name by forging the
//! number anyway: coverage of the declaration, not secrecy of the number,
//! is the check. [`GrantError::TableFull`] means exactly that
//! [`GRANT_TABLE_CAPACITY`] references are live.

use std::fmt;

use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};

use crate::shards::AtomicSlot;

/// Index of a declaration in a guest's grant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GrantRef(pub u32);

impl fmt::Display for GrantRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "grant#{}", self.0)
    }
}

/// High bits of a guest-qualified [`GrantRef`] carrying the owning guest id.
pub const GUEST_BITS: u32 = 12;
/// Low bits of a guest-qualified [`GrantRef`] carrying the per-guest
/// sequence number.
pub const SEQ_BITS: u32 = 32 - GUEST_BITS;
/// Exclusive upper bound on guest ids a reference can carry (4096).
pub const MAX_GUESTS: u32 = 1 << GUEST_BITS;
/// Mask extracting the per-guest sequence from a reference.
pub const SEQ_MASK: u32 = (1 << SEQ_BITS) - 1;

/// One legitimate memory operation declared by the CVD frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpGrant {
    /// The driver may read `[addr, addr+len)` of process memory
    /// (`copy_from_user`).
    CopyFromGuest {
        /// Start of the readable range.
        addr: GuestVirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// The driver may write `[addr, addr+len)` of process memory
    /// (`copy_to_user`).
    CopyToGuest {
        /// Start of the writable range.
        addr: GuestVirtAddr,
        /// Length in bytes.
        len: u64,
    },
    /// The driver may map pages into `[va, va + pages·4K)` with at most
    /// `access` rights (`mmap`/fault path).
    MapPages {
        /// Page-aligned start of the mappable window.
        va: GuestVirtAddr,
        /// Number of pages.
        pages: u64,
        /// Maximum access the mapping may carry.
        access: Access,
    },
    /// The driver may tear down mappings in `[va, va + pages·4K)`.
    UnmapPages {
        /// Page-aligned start of the window.
        va: GuestVirtAddr,
        /// Number of pages.
        pages: u64,
    },
}

/// A memory operation the driver VM is requesting via hypercall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOpRequest {
    /// Read `len` bytes of process memory at `addr`.
    CopyFromGuest {
        /// Start address.
        addr: GuestVirtAddr,
        /// Byte length.
        len: u64,
    },
    /// Write `len` bytes of process memory at `addr`.
    CopyToGuest {
        /// Start address.
        addr: GuestVirtAddr,
        /// Byte length.
        len: u64,
    },
    /// Map one page at `va` with `access`.
    MapPage {
        /// Page-aligned target address.
        va: GuestVirtAddr,
        /// Requested rights.
        access: Access,
    },
    /// Unmap one page at `va`.
    UnmapPage {
        /// Page-aligned target address.
        va: GuestVirtAddr,
    },
}

fn range_within(addr: u64, len: u64, start: u64, grant_len: u64) -> bool {
    // Empty requests are trivially within any grant starting at or before.
    match addr.checked_add(len) {
        Some(end) => addr >= start && end <= start.saturating_add(grant_len),
        None => false,
    }
}

impl MemOpGrant {
    /// Returns `true` if `request` lies entirely within this grant.
    pub fn covers(&self, request: &MemOpRequest) -> bool {
        match (self, request) {
            (
                MemOpGrant::CopyFromGuest { addr, len },
                MemOpRequest::CopyFromGuest {
                    addr: req_addr,
                    len: req_len,
                },
            ) => range_within(req_addr.raw(), *req_len, addr.raw(), *len),
            (
                MemOpGrant::CopyToGuest { addr, len },
                MemOpRequest::CopyToGuest {
                    addr: req_addr,
                    len: req_len,
                },
            ) => range_within(req_addr.raw(), *req_len, addr.raw(), *len),
            (
                MemOpGrant::MapPages { va, pages, access },
                MemOpRequest::MapPage {
                    va: req_va,
                    access: req_access,
                },
            ) => {
                range_within(
                    req_va.raw(),
                    paradice_mem::PAGE_SIZE,
                    va.raw(),
                    pages * paradice_mem::PAGE_SIZE,
                ) && access.contains(*req_access)
            }
            (
                MemOpGrant::UnmapPages { va, pages },
                MemOpRequest::UnmapPage { va: req_va },
            ) => range_within(
                req_va.raw(),
                paradice_mem::PAGE_SIZE,
                va.raw(),
                pages * paradice_mem::PAGE_SIZE,
            ),
            _ => false,
        }
    }
}

/// Why a grant check rejected a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrantError {
    /// The reference does not name a live declaration.
    UnknownRef {
        /// The offending reference.
        grant: GrantRef,
    },
    /// No declared operation covers the request.
    NotCovered {
        /// The reference whose declarations were consulted.
        grant: GrantRef,
    },
    /// Every slot of the page holds a live declaration (fixed capacity,
    /// one shared page).
    TableFull,
    /// The reference names another guest's shard (multi-tenant tables
    /// qualify every reference with its owning guest; spending a foreign
    /// reference is refused before the owner's shard is even touched).
    ForeignGuest {
        /// The offending reference.
        grant: GrantRef,
        /// The guest that tried to spend it.
        caller: u32,
    },
}

impl fmt::Display for GrantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrantError::UnknownRef { grant } => write!(f, "unknown grant reference {grant}"),
            GrantError::NotCovered { grant } => {
                write!(f, "memory operation not covered by {grant}")
            }
            GrantError::TableFull => f.write_str("grant table full"),
            GrantError::ForeignGuest { grant, caller } => {
                write!(f, "grant reference {grant} belongs to another guest (caller {caller})")
            }
        }
    }
}

impl std::error::Error for GrantError {}

/// Maximum simultaneous declarations: the table is one shared 4-KiB page
/// (paper §5.1); with a few dozen bytes per operation entry and a handful of
/// operations per file operation, 128 in-flight declarations is a faithful
/// capacity.
pub const GRANT_TABLE_CAPACITY: usize = 128;

/// Sorted-range index over the declared windows of one grant kind: one
/// block of `(start, prefix_max_end)` pairs, ascending by start, where
/// `prefix_max_end` is the largest end among this range and every range
/// before it. A request `[addr, addr+len)` is covered by *some single*
/// declared range iff a range starting at or before `addr` ends at or after
/// `addr+len` — which the prefix maximum answers after one binary search.
#[derive(Default)]
struct RangeIndex(Vec<(u64, u64)>);

impl RangeIndex {
    /// Sorts the `(start, end)` windows pushed in and turns each end into
    /// the prefix maximum.
    fn seal(&mut self) {
        self.0.sort_unstable();
        let mut max_end = 0u64;
        for (_, end) in &mut self.0 {
            max_end = max_end.max(*end);
            *end = max_end;
        }
    }

    /// Exactly [`MemOpGrant::covers`]'s arithmetic: the request end is
    /// computed with `checked_add` (overflow is never covered) and compared
    /// against grant ends that were saturated at build time.
    fn covers(&self, addr: u64, len: u64) -> bool {
        let idx = self.0.partition_point(|&(start, _)| start <= addr);
        addr.checked_add(len).is_some_and(|end| idx > 0 && self.0[idx - 1].1 >= end)
    }
}

/// Range indexes of one declaration: copy-from, copy-to and unmap windows,
/// then one index of map windows per access value (a map request is
/// checked against every access that contains the requested rights).
const COPY_FROM: usize = 0;
const COPY_TO: usize = 1;
const UNMAP: usize = 2;
const MAP: usize = 3;
const INDEXES: usize = MAP + 8;

/// The index a declared operation's window belongs to, and the window as
/// `(start, end)` with its end saturated.
fn window(op: &MemOpGrant) -> (usize, (u64, u64)) {
    let span = |start: GuestVirtAddr, len: u64| (start.raw(), start.raw().saturating_add(len));
    let paged = |va, pages: u64| span(va, pages.saturating_mul(PAGE_SIZE));
    match *op {
        MemOpGrant::CopyFromGuest { addr, len } => (COPY_FROM, span(addr, len)),
        MemOpGrant::CopyToGuest { addr, len } => (COPY_TO, span(addr, len)),
        MemOpGrant::UnmapPages { va, pages } => (UNMAP, paged(va, pages)),
        MemOpGrant::MapPages { va, pages, access } => {
            (MAP + usize::from(access.bits()), paged(va, pages))
        }
    }
}

/// One declaration as it sits in a page slot: the reference that owns the
/// slot and the validation index of its operations, built once at declare
/// time in one pass — one block per non-empty index (its first four
/// windows fit the first block).
pub(crate) struct Declaration {
    pub(crate) grant: GrantRef,
    index: [RangeIndex; INDEXES],
}

impl Declaration {
    fn build(grant: GrantRef, ops: &[MemOpGrant]) -> Declaration {
        let mut index: [RangeIndex; INDEXES] = Default::default();
        for (kind, range) in ops.iter().map(window) {
            index[kind].0.push(range);
        }
        index.iter_mut().for_each(RangeIndex::seal);
        Declaration { grant, index }
    }

    fn covers(&self, request: &MemOpRequest) -> bool {
        match *request {
            MemOpRequest::CopyFromGuest { addr, len } => {
                self.index[COPY_FROM].covers(addr.raw(), len)
            }
            MemOpRequest::CopyToGuest { addr, len } => self.index[COPY_TO].covers(addr.raw(), len),
            MemOpRequest::MapPage { va, access } => (0..8u8)
                .filter(|&bits| Access::from_bits(bits).contains(access))
                .any(|bits| self.index[MAP + usize::from(bits)].covers(va.raw(), PAGE_SIZE)),
            MemOpRequest::UnmapPage { va } => self.index[UNMAP].covers(va.raw(), PAGE_SIZE),
        }
    }
}

/// A reference's (or a sequence number's) slot: its sequence number
/// modulo the capacity. The guest bits sit at `2^SEQ_BITS` and above, a
/// multiple of the capacity, so they never move the slot.
fn home(reference: u32) -> usize {
    reference as usize % GRANT_TABLE_CAPACITY
}

/// One guest's reference sequence: `guest << SEQ_BITS | seq` for `seq` in
/// `0..=SEQ_MASK`, issued in increasing order, wrapping inside the guest's
/// range after `SEQ_MASK`. A number whose home slot is occupied is
/// skipped, so a live reference is never issued twice.
pub(crate) struct Sequence {
    /// The owning guest, already shifted into the high [`GUEST_BITS`].
    guest: u32,
    /// The next sequence number to try.
    next: u32,
}

impl Sequence {
    /// References qualified with `guest` in their high [`GUEST_BITS`].
    ///
    /// `guest` must be below [`MAX_GUESTS`] — ids are host-assigned, so a
    /// larger one is a programming error, not hostile input.
    pub(crate) fn for_guest(guest: u32) -> Self {
        assert!(guest < MAX_GUESTS, "guest id {guest} exceeds MAX_GUESTS");
        Sequence { guest: guest << SEQ_BITS, next: 0 }
    }

    /// Moves the sequence `count` numbers on, wrapping inside the guest's
    /// range, as if they had been declared and revoked.
    pub(crate) fn spend(&mut self, count: u32) {
        self.next = (self.next + (count & SEQ_MASK)) & SEQ_MASK;
    }

    /// Declares `ops` into `page`: issues the next sequence number whose
    /// home slot is empty — skipping at most `GRANT_TABLE_CAPACITY - 1`,
    /// whose homes are every other slot — and returns that slot with the
    /// declaration. The caller publishes it there before anything else
    /// touches the page.
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] when every slot holds a live declaration;
    /// it issues no reference.
    pub(crate) fn declare(
        &mut self,
        page: &GrantTable,
        ops: &[MemOpGrant],
    ) -> Result<(usize, Box<Declaration>), GrantError> {
        let seq = (self.next..self.next + GRANT_TABLE_CAPACITY as u32)
            .map(|seq| seq & SEQ_MASK)
            .find(|&seq| page.slots[home(seq)].get().is_none())
            .ok_or(GrantError::TableFull)?;
        self.next = (seq + 1) & SEQ_MASK;
        Ok((home(seq), Box::new(Declaration::build(GrantRef(self.guest | seq), ops))))
    }
}

/// One guest VM's grant table — the shared page of paper §5.1:
/// [`GRANT_TABLE_CAPACITY`] atomic slots, each holding at most one
/// declaration, in its reference's home slot. Lookup is one slot load and
/// a reference compare: a slot may hold a later reference with the same
/// home once the earlier one is revoked. The [`crate::shards`] shard that
/// owns the page keeps the guest's [`Sequence`] behind its writer mutex,
/// and owns the slots' publication protocol.
pub(crate) struct GrantTable {
    slots: [AtomicSlot; GRANT_TABLE_CAPACITY],
}

impl GrantTable {
    /// An empty page.
    pub(crate) fn empty() -> Self {
        GrantTable { slots: std::array::from_fn(|_| AtomicSlot::default()) }
    }

    /// The slots, in index order.
    pub(crate) fn slots(&self) -> &[AtomicSlot; GRANT_TABLE_CAPACITY] {
        &self.slots
    }

    /// The one reference lookup: `grant`'s home slot, if it holds
    /// `grant`'s declaration.
    pub(crate) fn find(&self, grant: GrantRef) -> Option<(usize, &Declaration)> {
        let index = home(grant.0);
        let declaration = self.slots[index].get()?;
        (declaration.grant == grant).then_some((index, declaration))
    }

    /// Validates a whole hypercall batch against one grant, all-or-nothing:
    /// `Ok` iff *every* request is covered; otherwise the index of the
    /// first violating request and its error, with no judgement about later
    /// requests. This is the pure phase-1 kernel of `Hypervisor::hc_memops`
    /// — the hypervisor applies nothing unless this accepts the batch — and
    /// the `crates/verify` checker proves it equivalent to per-request
    /// validation at the checked bounds.
    ///
    /// # Errors
    ///
    /// `(index, error)` for the first request that fails validation:
    /// [`GrantError::UnknownRef`] or [`GrantError::NotCovered`].
    // Inlined into the shard's reader: out of line, every validate pays a
    // call across codegen units (+5 ns on a 17-ns check, x86-64).
    #[inline]
    pub(crate) fn validate_batch(
        &self,
        grant: GrantRef,
        requests: &[MemOpRequest],
    ) -> Result<(), (usize, GrantError)> {
        let (_, declaration) = self.find(grant).ok_or((0, GrantError::UnknownRef { grant }))?;
        match requests.iter().position(|request| !declaration.covers(request)) {
            Some(index) => Err((index, GrantError::NotCovered { grant })),
            None => Ok(()),
        }
    }

    /// Number of outstanding declarations.
    pub(crate) fn outstanding(&self) -> usize {
        self.slots.iter().filter(|slot| slot.get().is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shards::ShardedGrantTable;
    use paradice_mem::PAGE_SIZE;

    const CAP: u32 = GRANT_TABLE_CAPACITY as u32;

    fn va(x: u64) -> GuestVirtAddr {
        GuestVirtAddr::new(x)
    }

    /// One guest's store; its references start at `GrantRef(0)`.
    fn table() -> ShardedGrantTable {
        ShardedGrantTable::with_guests(1)
    }

    #[test]
    fn declare_validate_revoke_lifecycle() {
        let table = table();
        let grant = table
            .declare(
                0,
                vec![MemOpGrant::CopyToGuest {
                    addr: va(0x1000),
                    len: 256,
                }],
            )
            .unwrap();
        let ok = MemOpRequest::CopyToGuest {
            addr: va(0x1000),
            len: 256,
        };
        assert!(table.validate(0, grant, &ok).is_ok());
        assert!(table.revoke(0, grant));
        assert_eq!(
            table.validate(0, grant, &ok),
            Err(GrantError::UnknownRef { grant })
        );
        assert!(!table.revoke(0, grant));
    }

    #[test]
    fn subset_requests_allowed() {
        let grant = MemOpGrant::CopyFromGuest {
            addr: va(0x2000),
            len: 1024,
        };
        assert!(grant.covers(&MemOpRequest::CopyFromGuest {
            addr: va(0x2100),
            len: 128,
        }));
        assert!(grant.covers(&MemOpRequest::CopyFromGuest {
            addr: va(0x2000),
            len: 1024,
        }));
    }

    #[test]
    fn escaping_requests_rejected() {
        let grant = MemOpGrant::CopyToGuest {
            addr: va(0x2000),
            len: 1024,
        };
        // Before the range.
        assert!(!grant.covers(&MemOpRequest::CopyToGuest {
            addr: va(0x1fff),
            len: 8,
        }));
        // Runs past the end.
        assert!(!grant.covers(&MemOpRequest::CopyToGuest {
            addr: va(0x23ff),
            len: 8,
        }));
        // The classic attack: copy into a kernel address far away.
        assert!(!grant.covers(&MemOpRequest::CopyToGuest {
            addr: va(0xc000_0000),
            len: 8,
        }));
    }

    #[test]
    fn direction_is_part_of_the_grant() {
        // A read grant must not authorize writes, else a compromised driver
        // VM could corrupt guest memory it was only allowed to read.
        let grant = MemOpGrant::CopyFromGuest {
            addr: va(0x3000),
            len: 64,
        };
        assert!(!grant.covers(&MemOpRequest::CopyToGuest {
            addr: va(0x3000),
            len: 64,
        }));
    }

    #[test]
    fn map_grants_check_access_and_range() {
        let grant = MemOpGrant::MapPages {
            va: va(0x10000),
            pages: 4,
            access: Access::RW,
        };
        assert!(grant.covers(&MemOpRequest::MapPage {
            va: va(0x12000),
            access: Access::READ,
        }));
        assert!(grant.covers(&MemOpRequest::MapPage {
            va: va(0x13000),
            access: Access::RW,
        }));
        // Fifth page is outside.
        assert!(!grant.covers(&MemOpRequest::MapPage {
            va: va(0x14000),
            access: Access::READ,
        }));
        // Escalating to executable is refused.
        assert!(!grant.covers(&MemOpRequest::MapPage {
            va: va(0x10000),
            access: Access::RWX,
        }));
    }

    #[test]
    fn unmap_grants() {
        let grant = MemOpGrant::UnmapPages {
            va: va(0x10000),
            pages: 2,
        };
        assert!(grant.covers(&MemOpRequest::UnmapPage { va: va(0x11000) }));
        assert!(!grant.covers(&MemOpRequest::UnmapPage { va: va(0x12000) }));
    }

    #[test]
    fn multiple_ops_per_declaration() {
        let table = table();
        let grant = table
            .declare(
                0,
                vec![
                    MemOpGrant::CopyFromGuest {
                        addr: va(0x1000),
                        len: 64,
                    },
                    MemOpGrant::CopyToGuest {
                        addr: va(0x1000),
                        len: 64,
                    },
                ],
            )
            .unwrap();
        assert!(table
            .validate(
                0,
                grant,
                &MemOpRequest::CopyFromGuest {
                    addr: va(0x1000),
                    len: 64
                }
            )
            .is_ok());
        assert!(table
            .validate(
                0,
                grant,
                &MemOpRequest::CopyToGuest {
                    addr: va(0x1020),
                    len: 32
                }
            )
            .is_ok());
    }

    #[test]
    fn revoke_all_clears_but_keeps_numbering() {
        let table = table();
        let first = table.declare(0, vec![]).unwrap();
        table.declare(0, vec![]).unwrap();
        assert_eq!(table.revoke_all(), 2);
        assert_eq!(table.outstanding(), 0);
        // Stale references are dead...
        assert!(!table.revoke(0, first));
        // ...and fresh declarations do not reuse their numbers.
        let next = table.declare(0, vec![]).unwrap();
        assert!(next.0 > first.0 + 1);
        assert_eq!(table.revoke_all(), 1);
    }

    /// Ref `r` revoked, then `r + CAP` declared into the same home slot:
    /// the slot's new occupant never answers for `r`.
    #[test]
    fn a_reused_home_slot_never_answers_for_its_previous_owner() {
        let window = vec![MemOpGrant::CopyFromGuest { addr: va(0x1000), len: 0x100 }];
        let request = MemOpRequest::CopyFromGuest { addr: va(0x1000), len: 8 };
        let table = table();
        let stale = table.declare(0, window.clone()).unwrap();
        assert!(table.revoke(0, stale));
        let table = table.with_refs_spent(0, CAP - 1);
        let fresh = table.declare(0, window).unwrap();
        assert_eq!(fresh.0, stale.0 + CAP, "stale's home slot");
        let unknown = Err(GrantError::UnknownRef { grant: stale });
        assert_eq!(table.validate(0, stale, &request), unknown);
        assert!(!table.revoke(0, stale));
        table.validate(0, fresh, &request).expect("the occupant is live");
    }

    /// A live declaration keeps its slot: the sequence skips the numbers
    /// whose home it occupies, and every reference validates its own
    /// window only.
    #[test]
    fn a_live_home_slot_is_skipped_not_reissued() {
        let window = |addr| vec![MemOpGrant::CopyFromGuest { addr: va(addr), len: 8 }];
        let request = |addr| MemOpRequest::CopyFromGuest { addr: va(addr), len: 8 };
        let table = table();
        let resident = table.declare(0, window(0x1000)).unwrap();
        let table = table.with_refs_spent(0, CAP - 1);
        let skipped = table.declare(0, window(0x2000)).unwrap();
        assert_eq!(skipped.0, CAP + 1, "CAP's home is the resident's slot");
        let next = table.declare(0, window(0x3000)).unwrap();
        assert_eq!(next.0, CAP + 2);
        assert_eq!(
            table.validate(0, skipped, &request(0x1000)),
            Err(GrantError::NotCovered { grant: skipped })
        );
        table.validate(0, resident, &request(0x1000)).expect("resident");
        assert!(table.revoke(0, resident));
        table.validate(0, skipped, &request(0x2000)).expect("skipped");
        table.validate(0, next, &request(0x3000)).expect("next");
        assert!(table.revoke(0, skipped) && table.revoke(0, next));
        assert_eq!(table.outstanding(), 0);
    }

    /// After `SEQ_MASK` the sequence wraps to the guest's first reference,
    /// past the ones still live, and never into another guest's range.
    #[test]
    fn the_sequence_wraps_past_live_references() {
        let window = |addr| vec![MemOpGrant::CopyFromGuest { addr: va(addr), len: 8 }];
        let request = |addr| MemOpRequest::CopyFromGuest { addr: va(addr), len: 8 };
        let table = ShardedGrantTable::with_guests(3);
        let first = ShardedGrantTable::compose_ref(2, 0);
        let live = table.declare(2, window(0x1000)).unwrap();
        assert_eq!(live, first);
        let table = table.with_refs_spent(2, SEQ_MASK - 2);
        let penultimate = table.declare(2, window(0x2000)).unwrap();
        assert_eq!(penultimate, ShardedGrantTable::compose_ref(2, SEQ_MASK - 1));
        let last = table.declare(2, window(0x2000)).unwrap();
        assert_eq!(last, ShardedGrantTable::compose_ref(2, SEQ_MASK));
        let wrapped = table.declare(2, window(0x3000)).unwrap();
        assert_eq!(wrapped, ShardedGrantTable::compose_ref(2, 1), "seq 0 is live");
        table.validate(2, live, &request(0x1000)).expect("live across the wrap");
        assert!(table.validate(2, live, &request(0x3000)).is_err());
        assert!(table.validate(2, wrapped, &request(0x1000)).is_err());
        // A revoked reference comes back only after a full lap.
        assert!(table.revoke(2, live));
        let table = table.with_refs_spent(2, SEQ_MASK - 1);
        assert_eq!(table.declare(2, window(0x4000)), Ok(first));
    }

    #[test]
    fn table_capacity_enforced() {
        let table = table();
        for _ in 0..GRANT_TABLE_CAPACITY {
            table.declare(0, vec![]).unwrap();
        }
        assert_eq!(table.declare(0, vec![]), Err(GrantError::TableFull));
        assert_eq!(table.outstanding(), GRANT_TABLE_CAPACITY);
    }

    #[test]
    fn overflow_addresses_never_covered() {
        let grant = MemOpGrant::CopyToGuest {
            addr: va(0x1000),
            len: u64::MAX,
        };
        assert!(!grant.covers(&MemOpRequest::CopyToGuest {
            addr: va(u64::MAX - 4),
            len: 8,
        }));
    }

    #[test]
    fn indexed_validation_matches_the_linear_scan() {
        // The sorted-range index must answer exactly like the reference
        // `any(covers)` scan, including for overlapping windows where a
        // request fits no single grant even though the union covers it.
        let ops: Vec<MemOpGrant> = (0..64)
            .map(|i| MemOpGrant::CopyToGuest {
                addr: va(0x1000 + i * 0x80),
                len: 0x100, // every window overlaps its successor
            })
            .collect();
        let table = table();
        let grant = table.declare(0, ops.clone()).unwrap();
        let mut probes = Vec::new();
        for addr in (0x0f00..0x5200u64).step_by(0x40) {
            for len in [0u64, 1, 0x40, 0x100, 0x101, 0x200] {
                probes.push(MemOpRequest::CopyToGuest { addr: va(addr), len });
            }
        }
        probes.push(MemOpRequest::CopyToGuest { addr: va(u64::MAX - 4), len: 8 });
        for request in &probes {
            let linear = ops.iter().any(|op| op.covers(request));
            let indexed = table.validate(0, grant, request).is_ok();
            assert_eq!(indexed, linear, "divergence on {request:?}");
        }
    }

    #[test]
    fn spanning_two_abutting_grants_is_still_rejected() {
        // Coverage is per single declaration: two back-to-back windows do
        // not merge into one. The prefix-max index preserves this.
        let table = table();
        let grant = table
            .declare(
                0,
                vec![
                    MemOpGrant::CopyFromGuest { addr: va(0x1000), len: 0x100 },
                    MemOpGrant::CopyFromGuest { addr: va(0x1100), len: 0x100 },
                ],
            )
            .unwrap();
        assert!(table
            .validate(0, grant, &MemOpRequest::CopyFromGuest { addr: va(0x1080), len: 0x100 })
            .is_err());
        assert!(table
            .validate(0, grant, &MemOpRequest::CopyFromGuest { addr: va(0x1100), len: 0x100 })
            .is_ok());
    }

    #[test]
    fn map_buckets_split_by_access() {
        let table = table();
        let grant = table
            .declare(
                0,
                vec![
                    MemOpGrant::MapPages { va: va(0x10000), pages: 1, access: Access::READ },
                    MemOpGrant::MapPages { va: va(0x20000), pages: 1, access: Access::RW },
                ],
            )
            .unwrap();
        // RW on the READ-only window is refused even though an RW bucket
        // exists elsewhere.
        assert!(table
            .validate(0, grant, &MemOpRequest::MapPage { va: va(0x10000), access: Access::RW })
            .is_err());
        // READ is satisfied by either bucket's window.
        assert!(table
            .validate(0, grant, &MemOpRequest::MapPage { va: va(0x10000), access: Access::READ })
            .is_ok());
        assert!(table
            .validate(0, grant, &MemOpRequest::MapPage { va: va(0x20000), access: Access::READ })
            .is_ok());
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let table = table();
        let grant = table
            .declare(
                0,
                vec![MemOpGrant::CopyToGuest {
                    addr: va(0x1000),
                    len: 0x100,
                }],
            )
            .unwrap();
        let ok = MemOpRequest::CopyToGuest {
            addr: va(0x1000),
            len: 0x80,
        };
        let bad = MemOpRequest::CopyToGuest {
            addr: va(0x2000),
            len: 8,
        };
        assert!(table.validate_batch(0, grant, &[ok, ok]).is_ok());
        assert!(table.validate_batch(0, grant, &[]).is_ok());
        // First violation wins, by index.
        assert_eq!(
            table.validate_batch(0, grant, &[ok, bad, bad]),
            Err((1, GrantError::NotCovered { grant }))
        );
        let stale = GrantRef(99);
        assert_eq!(
            table.validate_batch(0, stale, &[ok]),
            Err((0, GrantError::UnknownRef { grant: stale }))
        );
    }

    #[test]
    fn map_page_size_constant_consistency() {
        // MapPages windows are measured in pages; make sure the constant
        // used for coverage matches the mem crate.
        let grant = MemOpGrant::MapPages {
            va: va(0),
            pages: 1,
            access: Access::RW,
        };
        assert!(grant.covers(&MemOpRequest::MapPage {
            va: va(0),
            access: Access::RW,
        }));
        assert!(!grant.covers(&MemOpRequest::MapPage {
            va: va(PAGE_SIZE),
            access: Access::RW,
        }));
    }
}
