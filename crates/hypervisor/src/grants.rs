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
//! [`GrantTable`] is that page: [`GRANT_TABLE_CAPACITY`] slots, each
//! holding at most one boxed declaration. Both substrates run it: the
//! virtual-time [`Hypervisor`](crate::hv::Hypervisor) steps one per VM
//! under its `RefCell`, and each [`crate::shards`] shard is one with
//! atomic slots, publishing one declaration at a time. Reference lookup,
//! capacity and sequence allocation live here only — and so do the
//! `crates/verify` `grant-*` proofs.

use std::fmt;

use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};

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
    /// The table page is full (fixed capacity, one shared page).
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
#[derive(Debug, Default)]
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
#[derive(Debug)]
pub struct Declaration {
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

/// How one slot of a [`GrantTable`] holds its declaration: the
/// virtual-time hypervisor's table owns an `Option<Box<Declaration>>` per
/// slot, a [`crate::shards`] shard an atomic pointer its readers load
/// without a lock.
pub trait PageSlot {
    /// The declaration in this slot, if any.
    fn get(&self) -> Option<&Declaration>;
}

impl PageSlot for Option<Box<Declaration>> {
    fn get(&self) -> Option<&Declaration> {
        self.as_deref()
    }
}

/// `grant`'s probe sequence: its home slot — the sequence number modulo
/// the capacity — then every other slot, in order, wrapping once.
fn probe(grant: GrantRef) -> impl Iterator<Item = usize> {
    let home = grant.0 as usize % GRANT_TABLE_CAPACITY;
    (home..GRANT_TABLE_CAPACITY).chain(0..home)
}

/// A grant table's reference sequence.
///
/// Two layouts: [`GrantTable::new`] issues the unqualified 32-bit
/// references `0..=u32::MAX`, [`GrantTable::for_guest`] issues
/// `guest << SEQ_BITS | seq` for `seq` in `0..=SEQ_MASK`. References are
/// issued in increasing order and never reissued; under both layouts the
/// sequence fails closed once its last reference is out: a reference that
/// restarted would alias one a stale holder may still name.
#[derive(Debug)]
pub struct Sequence {
    /// The next reference to issue; `None` once `last` has been issued.
    next: Option<u32>,
    /// The last reference this layout can issue.
    last: u32,
}

impl Sequence {
    /// References qualified with `guest` in their high [`GUEST_BITS`].
    ///
    /// `guest` must be below [`MAX_GUESTS`] — ids are host-assigned, so a
    /// larger one is a programming error, not hostile input.
    pub(crate) fn for_guest(guest: u32) -> Self {
        assert!(guest < MAX_GUESTS, "guest id {guest} exceeds MAX_GUESTS");
        let first = guest << SEQ_BITS;
        Sequence {
            next: Some(first),
            last: first | SEQ_MASK,
        }
    }

    /// Declares `ops` into `slots`: issues the next reference and picks
    /// the free slot its declaration goes to — the first on the
    /// reference's probe sequence. The caller publishes the declaration in
    /// that slot before anything else touches the page.
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] when every slot holds a declaration, or
    /// when the reference space is spent; neither issues a reference.
    pub(crate) fn declare<S: PageSlot>(
        &mut self,
        slots: &[S; GRANT_TABLE_CAPACITY],
        ops: &[MemOpGrant],
    ) -> Result<(usize, Box<Declaration>), GrantError> {
        let grant = GrantRef(self.next.ok_or(GrantError::TableFull)?);
        let index = probe(grant)
            .find(|&index| slots[index].get().is_none())
            .ok_or(GrantError::TableFull)?;
        self.next = (grant.0 < self.last).then(|| grant.0 + 1);
        Ok((index, Box::new(Declaration::build(grant, ops))))
    }
}

/// One guest VM's grant table — the shared page of paper §5.1:
/// [`GRANT_TABLE_CAPACITY`] slots, each holding at most one declaration,
/// plus the reference sequence.
///
/// A declaration goes to the first free slot on its reference's probe
/// sequence and never moves, so lookup walks the same sequence and
/// compares references: a home slot may hold a later reference with the
/// same home, or an earlier one displaced into it.
///
/// `S` is how a slot holds its declaration and `Q` where the sequence
/// lives. The virtual-time hypervisor's table owns both (the defaults); a
/// [`crate::shards`] shard's page is a `GrantTable<_, ()>` of atomic slots
/// whose sequence sits behind the shard's writer mutex instead.
#[derive(Debug)]
pub struct GrantTable<S = Option<Box<Declaration>>, Q = Sequence> {
    slots: [S; GRANT_TABLE_CAPACITY],
    sequence: Q,
}

impl<S: Default, Q> GrantTable<S, Q> {
    /// An empty page with `sequence`.
    pub(crate) fn with_sequence(sequence: Q) -> Self {
        GrantTable { slots: std::array::from_fn(|_| S::default()), sequence }
    }
}

impl<S: PageSlot, Q> GrantTable<S, Q> {
    /// The slots, in index order.
    pub(crate) fn slots(&self) -> &[S; GRANT_TABLE_CAPACITY] {
        &self.slots
    }

    /// The one reference lookup: the slot holding `grant`'s declaration.
    pub(crate) fn find(&self, grant: GrantRef) -> Option<(usize, &Declaration)> {
        probe(grant).find_map(|index| {
            self.slots[index]
                .get()
                .filter(|declaration| declaration.grant == grant)
                .map(|declaration| (index, declaration))
        })
    }

    /// Validates `request` against the declarations of `grant`.
    ///
    /// # Errors
    ///
    /// [`GrantError::UnknownRef`] or [`GrantError::NotCovered`].
    pub fn validate(&self, grant: GrantRef, request: &MemOpRequest) -> Result<(), GrantError> {
        self.validate_batch(grant, std::slice::from_ref(request))
            .map_err(|(_, error)| error)
    }

    /// Validates a whole hypercall batch against one grant, all-or-nothing:
    /// `Ok` iff *every* request is covered; otherwise the index of the
    /// first violating request and its error, with no judgement about later
    /// requests. This is the pure phase-1 kernel of `Hypervisor::hc_memops`
    /// — the hypervisor applies nothing unless this accepts the batch — and
    /// the `crates/verify` checker proves it equivalent to per-request
    /// [`GrantTable::validate`] at the checked bounds.
    ///
    /// # Errors
    ///
    /// `(index, error)` for the first request that fails validation.
    pub fn validate_batch(
        &self,
        grant: GrantRef,
        requests: &[MemOpRequest],
    ) -> Result<(), (usize, GrantError)> {
        if requests.is_empty() {
            return Ok(());
        }
        let (_, declaration) = self.find(grant).ok_or((0, GrantError::UnknownRef { grant }))?;
        match requests.iter().position(|request| !declaration.covers(request)) {
            Some(index) => Err((index, GrantError::NotCovered { grant })),
            None => Ok(()),
        }
    }

    /// Number of outstanding declarations.
    pub fn outstanding(&self) -> usize {
        self.slots.iter().filter(|slot| slot.get().is_some()).count()
    }
}

impl GrantTable {
    /// Creates an empty table issuing unqualified 32-bit references.
    pub fn new() -> Self {
        GrantTable::with_sequence(Sequence {
            next: Some(0),
            last: u32::MAX,
        })
    }

    /// Creates an empty table issuing references qualified with `guest` in
    /// their high [`GUEST_BITS`].
    pub fn for_guest(guest: u32) -> Self {
        GrantTable::with_sequence(Sequence::for_guest(guest))
    }

    /// Checker hook: spends `count` references without issuing them, as if
    /// they had been declared and revoked, so the exhaustion edge and slot
    /// reuse are reachable without 2³² declares. Only ever moves the
    /// sequence forward, so it cannot make a reference alias.
    #[doc(hidden)]
    pub fn with_refs_spent(mut self, count: u32) -> Self {
        let sequence = &mut self.sequence;
        sequence.next = sequence
            .next
            .and_then(|next| next.checked_add(count))
            .filter(|&next| next <= sequence.last);
        self
    }

    /// Declares the legitimate operations of one file operation, returning
    /// the reference the backend must attach to its hypercalls.
    ///
    /// # Errors
    ///
    /// [`GrantError::TableFull`] when [`GRANT_TABLE_CAPACITY`] declarations
    /// are already outstanding, or when the table's reference space is
    /// spent (references never restart, so stale ones can never alias).
    pub fn declare(&mut self, ops: Vec<MemOpGrant>) -> Result<GrantRef, GrantError> {
        let (index, declaration) = self.sequence.declare(&self.slots, &ops)?;
        let grant = declaration.grant;
        self.slots[index] = Some(declaration);
        Ok(grant)
    }

    /// Revokes a declaration once its file operation completes.
    ///
    /// Returns `true` if the reference was live.
    pub fn revoke(&mut self, grant: GrantRef) -> bool {
        let found = self.find(grant).map(|(index, _)| index);
        found.is_some_and(|index| self.slots[index].take().is_some())
    }

    /// Revokes every outstanding declaration (driver-VM failure: a
    /// compromised-after-crash driver must not retain any authority).
    /// Returns the number of declarations revoked. Reference numbering
    /// continues where it left off so stale refs can never alias new ones.
    pub fn revoke_all(&mut self) -> usize {
        self.slots.iter_mut().filter_map(Option::take).count()
    }
}

impl Default for GrantTable {
    fn default() -> Self {
        GrantTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_mem::PAGE_SIZE;

    fn va(x: u64) -> GuestVirtAddr {
        GuestVirtAddr::new(x)
    }

    #[test]
    fn declare_validate_revoke_lifecycle() {
        let mut table = GrantTable::new();
        let grant = table
            .declare(vec![MemOpGrant::CopyToGuest {
                addr: va(0x1000),
                len: 256,
            }])
            .unwrap();
        let ok = MemOpRequest::CopyToGuest {
            addr: va(0x1000),
            len: 256,
        };
        assert!(table.validate(grant, &ok).is_ok());
        assert!(table.revoke(grant));
        assert_eq!(
            table.validate(grant, &ok),
            Err(GrantError::UnknownRef { grant })
        );
        assert!(!table.revoke(grant));
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
        let mut table = GrantTable::new();
        let grant = table
            .declare(vec![
                MemOpGrant::CopyFromGuest {
                    addr: va(0x1000),
                    len: 64,
                },
                MemOpGrant::CopyToGuest {
                    addr: va(0x1000),
                    len: 64,
                },
            ])
            .unwrap();
        assert!(table
            .validate(
                grant,
                &MemOpRequest::CopyFromGuest {
                    addr: va(0x1000),
                    len: 64
                }
            )
            .is_ok());
        assert!(table
            .validate(
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
        let mut table = GrantTable::new();
        let first = table.declare(vec![]).unwrap();
        table.declare(vec![]).unwrap();
        assert_eq!(table.revoke_all(), 2);
        assert_eq!(table.outstanding(), 0);
        // Stale references are dead...
        assert!(!table.revoke(first));
        // ...and fresh declarations never reuse their numbers.
        let next = table.declare(vec![]).unwrap();
        assert!(next.0 > first.0 + 1);
        assert_eq!(table.revoke_all(), 1);
    }

    /// Ref `r` revoked, then `r + CAP` declared into the same home slot:
    /// the slot's new occupant never answers for `r`.
    #[test]
    fn a_reused_home_slot_never_answers_for_its_previous_owner() {
        let window = vec![MemOpGrant::CopyFromGuest { addr: va(0x1000), len: 0x100 }];
        let probe = MemOpRequest::CopyFromGuest { addr: va(0x1000), len: 8 };
        let mut table = GrantTable::new();
        let stale = table.declare(window.clone()).unwrap();
        assert!(table.revoke(stale));
        let mut table = table.with_refs_spent(GRANT_TABLE_CAPACITY as u32 - 1);
        let fresh = table.declare(window).unwrap();
        assert_eq!(fresh.0, stale.0 + GRANT_TABLE_CAPACITY as u32);
        assert_eq!(table.find(fresh).map(|(index, _)| index), Some(0), "stale's home slot");
        assert_eq!(table.validate(stale, &probe), Err(GrantError::UnknownRef { grant: stale }));
        assert!(!table.revoke(stale));
        table.validate(fresh, &probe).expect("the occupant is live");
    }

    /// A live declaration keeps its slot; later references with the same
    /// home probe past it, and every one resolves whatever is revoked
    /// around it.
    #[test]
    fn displaced_declarations_stay_findable() {
        let window = |addr| vec![MemOpGrant::CopyFromGuest { addr: va(addr), len: 8 }];
        let probe = |addr| MemOpRequest::CopyFromGuest { addr: va(addr), len: 8 };
        let mut table = GrantTable::new();
        let resident = table.declare(window(0x1000)).unwrap();
        let mut table = table.with_refs_spent(GRANT_TABLE_CAPACITY as u32 - 1);
        let displaced = table.declare(window(0x2000)).unwrap();
        assert_eq!(table.find(displaced).map(|(index, _)| index), Some(1));
        // The next reference's home is the slot `displaced` took.
        let next = table.declare(window(0x3000)).unwrap();
        assert_eq!(table.find(next).map(|(index, _)| index), Some(2));
        assert_eq!(
            table.validate(displaced, &probe(0x1000)),
            Err(GrantError::NotCovered { grant: displaced })
        );
        assert!(table.revoke(resident));
        table.validate(displaced, &probe(0x2000)).expect("displaced");
        table.validate(next, &probe(0x3000)).expect("displaced twice");
        assert!(table.revoke(displaced) && table.revoke(next));
        assert_eq!(table.outstanding(), 0);
    }

    #[test]
    fn table_capacity_enforced() {
        let mut table = GrantTable::new();
        for _ in 0..GRANT_TABLE_CAPACITY {
            table.declare(vec![]).unwrap();
        }
        assert_eq!(table.declare(vec![]), Err(GrantError::TableFull));
        assert_eq!(table.outstanding(), GRANT_TABLE_CAPACITY);
    }

    /// After the reference space is spent the table fails closed forever
    /// instead of restarting at a reference a stale holder may still name;
    /// `table` arrives two references short of `last_ref`.
    fn exhaustion_edge(mut table: GrantTable, last_ref: u32) {
        let window = |addr| vec![MemOpGrant::CopyFromGuest { addr: va(addr), len: 8 }];
        let probe = |addr| MemOpRequest::CopyFromGuest { addr: va(addr), len: 8 };
        let penultimate = table.declare(window(0x1000)).expect("declare");
        let last = table.declare(window(0x2000)).expect("last reference");
        assert_eq!((penultimate.0, last.0), (last_ref - 1, last_ref));
        for _ in 0..64 {
            assert_eq!(
                table.declare(window(0x3000)),
                Err(GrantError::TableFull),
                "exhausted table must fail closed"
            );
        }
        // Live references keep validating, and revoking reopens nothing.
        table.validate(penultimate, &probe(0x1000)).expect("live");
        table.validate(last, &probe(0x2000)).expect("live");
        assert!(table.revoke(last));
        assert_eq!(table.declare(window(0x3000)), Err(GrantError::TableFull));
        assert_eq!(table.revoke_all(), 1);
        assert_eq!(table.declare(window(0x3000)), Err(GrantError::TableFull));
    }

    #[test]
    fn sequence_exhaustion_pins_closed_without_aliasing() {
        let last_ref = (1 << SEQ_BITS) | SEQ_MASK;
        exhaustion_edge(GrantTable::for_guest(1).with_refs_spent(SEQ_MASK - 1), last_ref);
        // Spending past the edge exhausts the table; it never spills into
        // the next guest's reference range.
        let mut spent = GrantTable::for_guest(1).with_refs_spent(SEQ_MASK + 1);
        assert_eq!(spent.declare(vec![]), Err(GrantError::TableFull));
    }

    #[test]
    fn sequence_exhaustion_pins_closed_without_wrapping_32bit() {
        exhaustion_edge(GrantTable::new().with_refs_spent(u32::MAX - 1), u32::MAX);
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
        let mut table = GrantTable::new();
        let grant = table.declare(ops.clone()).unwrap();
        let mut probes = Vec::new();
        for addr in (0x0f00..0x5200u64).step_by(0x40) {
            for len in [0u64, 1, 0x40, 0x100, 0x101, 0x200] {
                probes.push(MemOpRequest::CopyToGuest { addr: va(addr), len });
            }
        }
        probes.push(MemOpRequest::CopyToGuest { addr: va(u64::MAX - 4), len: 8 });
        for request in &probes {
            let linear = ops.iter().any(|op| op.covers(request));
            let indexed = table.validate(grant, request).is_ok();
            assert_eq!(indexed, linear, "divergence on {request:?}");
        }
    }

    #[test]
    fn spanning_two_abutting_grants_is_still_rejected() {
        // Coverage is per single declaration: two back-to-back windows do
        // not merge into one. The prefix-max index preserves this.
        let mut table = GrantTable::new();
        let grant = table
            .declare(vec![
                MemOpGrant::CopyFromGuest { addr: va(0x1000), len: 0x100 },
                MemOpGrant::CopyFromGuest { addr: va(0x1100), len: 0x100 },
            ])
            .unwrap();
        assert!(table
            .validate(grant, &MemOpRequest::CopyFromGuest { addr: va(0x1080), len: 0x100 })
            .is_err());
        assert!(table
            .validate(grant, &MemOpRequest::CopyFromGuest { addr: va(0x1100), len: 0x100 })
            .is_ok());
    }

    #[test]
    fn map_buckets_split_by_access() {
        let mut table = GrantTable::new();
        let grant = table
            .declare(vec![
                MemOpGrant::MapPages { va: va(0x10000), pages: 1, access: Access::READ },
                MemOpGrant::MapPages { va: va(0x20000), pages: 1, access: Access::RW },
            ])
            .unwrap();
        // RW on the READ-only window is refused even though an RW bucket
        // exists elsewhere.
        assert!(table
            .validate(grant, &MemOpRequest::MapPage { va: va(0x10000), access: Access::RW })
            .is_err());
        // READ is satisfied by either bucket's window.
        assert!(table
            .validate(grant, &MemOpRequest::MapPage { va: va(0x10000), access: Access::READ })
            .is_ok());
        assert!(table
            .validate(grant, &MemOpRequest::MapPage { va: va(0x20000), access: Access::READ })
            .is_ok());
    }

    #[test]
    fn batch_validation_is_all_or_nothing() {
        let mut table = GrantTable::new();
        let grant = table
            .declare(vec![MemOpGrant::CopyToGuest {
                addr: va(0x1000),
                len: 0x100,
            }])
            .unwrap();
        let ok = MemOpRequest::CopyToGuest {
            addr: va(0x1000),
            len: 0x80,
        };
        let bad = MemOpRequest::CopyToGuest {
            addr: va(0x2000),
            len: 8,
        };
        assert!(table.validate_batch(grant, &[ok, ok]).is_ok());
        assert!(table.validate_batch(grant, &[]).is_ok());
        // First violation wins, by index.
        assert_eq!(
            table.validate_batch(grant, &[ok, bad, bad]),
            Err((1, GrantError::NotCovered { grant }))
        );
        let stale = GrantRef(99);
        assert_eq!(
            table.validate_batch(stale, &[ok]),
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

/// Kani proof harnesses (run via `cargo kani`; absent from normal builds).
///
/// Symbolic counterparts of the `crates/verify` grant properties: the
/// exhaustive checker sweeps boundary-value domains; these prove the same
/// coverage arithmetic for *every* `u64` address and length at once, on one
/// declaration (the indexed path degenerates to the single-range check
/// there, so the interesting symbolic surface is the overflow-safe range
/// arithmetic itself).
#[cfg(kani)]
mod kani_proofs {
    use super::*;
    use paradice_mem::GuestVirtAddr;

    /// The intended coverage semantics in exact `u128` arithmetic: request
    /// `[addr, addr+len)` within grant `[start, min(start+glen, 2⁶⁴−1))`,
    /// with any request end past `u64::MAX` rejected (the last byte of the
    /// address space is unaddressable by construction).
    fn model_within(addr: u64, len: u64, start: u64, glen: u64) -> bool {
        let req_end = addr as u128 + len as u128;
        let grant_end = (start as u128 + glen as u128).min(u64::MAX as u128);
        req_end <= u64::MAX as u128 && addr >= start && req_end <= grant_end
    }

    #[kani::proof]
    fn range_arithmetic_matches_exact_model() {
        let addr: u64 = kani::any();
        let len: u64 = kani::any();
        let start: u64 = kani::any();
        let glen: u64 = kani::any();
        assert!(range_within(addr, len, start, glen) == model_within(addr, len, start, glen));
    }

    #[kani::proof]
    fn indexed_single_grant_matches_linear_covers() {
        let g_addr: u64 = kani::any();
        let g_len: u64 = kani::any();
        let addr: u64 = kani::any();
        let len: u64 = kani::any();
        let grant = MemOpGrant::CopyToGuest {
            addr: GuestVirtAddr::new(g_addr),
            len: g_len,
        };
        let request = MemOpRequest::CopyToGuest {
            addr: GuestVirtAddr::new(addr),
            len,
        };
        let entry = Declaration::build(GrantRef(0), &[grant]);
        assert!(entry.covers(&request) == grant.covers(&request));
    }
}
