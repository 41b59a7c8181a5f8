//! Guest page tables: PAE-style, three levels, stored in guest memory.
//!
//! The paper targets 32-bit x86 with Physical Address Extension (§5), whose
//! page tables have three levels: a 4-entry page-directory-pointer table
//! (PDPT), 512-entry page directories and 512-entry page tables, all holding
//! 64-bit entries. We reproduce that geometry. The tables live in *guest
//! physical memory*: the walker reads entries through a [`GpaSpace`], so the
//! hypervisor's software walk (guest virtual → guest physical, paper §5.2)
//! really does traverse memory the guest owns.
//!
//! Two construction paths mirror the paper's split of responsibilities for
//! `mmap`:
//!
//! * the guest kernel (CVD frontend) pre-creates *all levels except the last*
//!   with [`GuestPageTables::ensure_intermediate`];
//! * the hypervisor later fixes only the leaf entry with
//!   [`GuestPageTables::set_leaf`], which refuses to create intermediate
//!   levels — exactly the compatibility-driven division of §5.2.

use std::fmt;

use crate::addr::{GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};
use crate::perms::Access;

/// Entry bit: the entry is present/valid.
const PTE_PRESENT: u64 = 1 << 0;
/// Entry bit: writable.
const PTE_WRITE: u64 = 1 << 1;
/// Entry bit: user accessible (all process mappings here are user pages).
const PTE_USER: u64 = 1 << 2;
/// Entry bit: no-execute (stored at bit 63 like x86 PAE/NX).
const PTE_NX: u64 = 1 << 63;
/// Mask of the physical frame number bits (bits 12..52).
const PTE_ADDR_MASK: u64 = 0x000f_ffff_ffff_f000;

/// Highest guest-virtual address + 1 expressible by the 32-bit PAE layout.
pub const GVA_SPACE: u64 = 1 << 32;

/// Errors produced when walking or editing guest page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PtWalkError {
    /// A referenced table entry was not present.
    NotMapped {
        /// The faulting guest-virtual address.
        va: GuestVirtAddr,
        /// Which level lacked the entry: 0 = PDPT, 1 = PD, 2 = PT (leaf).
        level: u8,
    },
    /// The address is outside the 32-bit guest-virtual space.
    VaOutOfRange {
        /// The offending address.
        va: GuestVirtAddr,
    },
    /// The backing [`GpaSpace`] failed to read or write a table page.
    Backing {
        /// The guest-physical address that could not be accessed.
        gpa: GuestPhysAddr,
    },
    /// A leaf fix-up was requested but an intermediate level is missing.
    ///
    /// The hypervisor only edits the last level; missing intermediates are
    /// the guest kernel's job (paper §5.2).
    MissingIntermediate {
        /// The faulting guest-virtual address.
        va: GuestVirtAddr,
        /// The level (0 or 1) that was absent.
        level: u8,
    },
    /// The guest kernel's table-page allocator is out of memory.
    NoTablePages,
}

impl fmt::Display for PtWalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtWalkError::NotMapped { va, level } => {
                write!(f, "guest page table walk failed at level {level} for {va}")
            }
            PtWalkError::VaOutOfRange { va } => {
                write!(f, "guest virtual address {va} outside 32-bit space")
            }
            PtWalkError::Backing { gpa } => {
                write!(f, "could not access guest table page at {gpa}")
            }
            PtWalkError::MissingIntermediate { va, level } => {
                write!(
                    f,
                    "intermediate table level {level} missing for {va}; guest must create it"
                )
            }
            PtWalkError::NoTablePages => f.write_str("guest table-page allocator exhausted"),
        }
    }
}

impl std::error::Error for PtWalkError {}

/// Access to guest physical memory, as needed by the table walker.
///
/// Implemented by the hypervisor (EPT + system memory) and, for unit tests,
/// by a plain in-process array. `alloc_table_page` models the guest kernel
/// allocating a zeroed page for a new table level.
pub trait GpaSpace {
    /// Reads a 64-bit little-endian value at `gpa`.
    ///
    /// # Errors
    ///
    /// Returns [`PtWalkError::Backing`] if the page is inaccessible.
    fn read_u64(&self, gpa: GuestPhysAddr) -> Result<u64, PtWalkError>;

    /// Writes a 64-bit little-endian value at `gpa`.
    ///
    /// # Errors
    ///
    /// Returns [`PtWalkError::Backing`] if the page is inaccessible.
    fn write_u64(&mut self, gpa: GuestPhysAddr, value: u64) -> Result<(), PtWalkError>;

    /// Allocates a zeroed guest-physical page to hold a page-table level.
    ///
    /// # Errors
    ///
    /// Returns [`PtWalkError::NoTablePages`] when guest memory is exhausted.
    fn alloc_table_page(&mut self) -> Result<GuestPhysAddr, PtWalkError>;
}

/// A translated leaf mapping, as returned by [`GuestPageTables::walk`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PtMapping {
    /// Guest-physical page the leaf points at (page base).
    pub gpa: GuestPhysAddr,
    /// Access rights encoded in the leaf entry.
    pub access: Access,
}

/// One guest process's page-table hierarchy.
///
/// Holds only the root (PDPT) address; every entry lives in guest memory and
/// is accessed through a [`GpaSpace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GuestPageTables {
    root: GuestPhysAddr,
}

fn indices(va: GuestVirtAddr) -> Result<[u64; 3], PtWalkError> {
    if va.raw() >= GVA_SPACE {
        return Err(PtWalkError::VaOutOfRange { va });
    }
    let raw = va.raw();
    Ok([
        (raw >> 30) & 0x3,   // PDPT: 4 entries
        (raw >> 21) & 0x1ff, // PD: 512 entries
        (raw >> 12) & 0x1ff, // PT: 512 entries
    ])
}

fn encode_entry(gpa: GuestPhysAddr, access: Access) -> u64 {
    let mut entry = (gpa.raw() & PTE_ADDR_MASK) | PTE_PRESENT | PTE_USER;
    if access.writable() {
        entry |= PTE_WRITE;
    }
    if !access.executable() {
        entry |= PTE_NX;
    }
    entry
}

fn decode_access(entry: u64) -> Access {
    let mut access = Access::READ;
    if entry & PTE_WRITE != 0 {
        access |= Access::WRITE;
    }
    if entry & PTE_NX == 0 {
        access |= Access::EXEC;
    }
    access
}

impl GuestPageTables {
    /// Creates a fresh hierarchy, allocating the root PDPT page.
    ///
    /// # Errors
    ///
    /// Fails if the guest cannot allocate the root table page.
    pub fn new(space: &mut dyn GpaSpace) -> Result<Self, PtWalkError> {
        let root = space.alloc_table_page()?;
        Ok(GuestPageTables { root })
    }

    /// Wraps an existing root (used when re-attaching to a saved process).
    pub fn from_root(root: GuestPhysAddr) -> Self {
        GuestPageTables { root }
    }

    /// The guest-physical address of the root PDPT page.
    pub fn root(&self) -> GuestPhysAddr {
        self.root
    }

    fn entry_addr(table: GuestPhysAddr, index: u64) -> GuestPhysAddr {
        table.add(index * 8)
    }

    fn read_entry(
        space: &dyn GpaSpace,
        table: GuestPhysAddr,
        index: u64,
    ) -> Result<u64, PtWalkError> {
        space.read_u64(Self::entry_addr(table, index))
    }

    /// Translates a guest-virtual address to its leaf mapping.
    ///
    /// This is the software walk the hypervisor performs for every page of a
    /// cross-VM copy (paper §5.2). The returned mapping describes the *page*;
    /// combine with [`GuestVirtAddr::page_offset`] for byte addresses.
    ///
    /// # Errors
    ///
    /// Fails with [`PtWalkError::NotMapped`] at the first non-present level.
    pub fn walk(
        &self,
        space: &dyn GpaSpace,
        va: GuestVirtAddr,
    ) -> Result<PtMapping, PtWalkError> {
        let idx = indices(va)?;
        let mut table = self.root;
        for (level, &index) in idx.iter().enumerate().take(2) {
            let entry = Self::read_entry(space, table, index)?;
            if entry & PTE_PRESENT == 0 {
                return Err(PtWalkError::NotMapped {
                    va,
                    level: level as u8,
                });
            }
            table = GuestPhysAddr::new(entry & PTE_ADDR_MASK);
        }
        let leaf = Self::read_entry(space, table, idx[2])?;
        if leaf & PTE_PRESENT == 0 {
            return Err(PtWalkError::NotMapped { va, level: 2 });
        }
        Ok(PtMapping {
            gpa: GuestPhysAddr::new(leaf & PTE_ADDR_MASK),
            access: decode_access(leaf),
        })
    }

    /// Translates an arbitrary (unaligned) address to its guest-physical
    /// counterpart, preserving the page offset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GuestPageTables::walk`].
    pub fn translate(
        &self,
        space: &dyn GpaSpace,
        va: GuestVirtAddr,
    ) -> Result<GuestPhysAddr, PtWalkError> {
        let mapping = self.walk(space, va.page_base())?;
        Ok(mapping.gpa.add(va.page_offset()))
    }

    fn descend_or_create(
        space: &mut dyn GpaSpace,
        table: GuestPhysAddr,
        index: u64,
    ) -> Result<GuestPhysAddr, PtWalkError> {
        let entry = Self::read_entry(space, table, index)?;
        if entry & PTE_PRESENT != 0 {
            return Ok(GuestPhysAddr::new(entry & PTE_ADDR_MASK));
        }
        let page = space.alloc_table_page()?;
        // Intermediate levels are writable+user so leaf permissions govern.
        let entry = (page.raw() & PTE_ADDR_MASK) | PTE_PRESENT | PTE_WRITE | PTE_USER;
        space.write_u64(Self::entry_addr(table, index), entry)?;
        Ok(page)
    }

    /// Creates all intermediate levels for `va`, leaving the leaf untouched.
    ///
    /// The CVD frontend calls this for the whole `mmap` range *before*
    /// forwarding the operation, so the hypervisor never has to allocate
    /// guest table pages (paper §5.2). Returns the guest-physical address of
    /// the leaf page table so callers can verify placement.
    ///
    /// # Errors
    ///
    /// Fails if the allocator is exhausted or a table page is inaccessible.
    pub fn ensure_intermediate(
        &mut self,
        space: &mut dyn GpaSpace,
        va: GuestVirtAddr,
    ) -> Result<GuestPhysAddr, PtWalkError> {
        let idx = indices(va)?;
        let pd = Self::descend_or_create(space, self.root, idx[0])?;
        Self::descend_or_create(space, pd, idx[1])
    }

    /// [`GuestPageTables::ensure_intermediate`] for each of the `pages`
    /// pages from `va` on, in order: the kernel's half of `mmap` and of a
    /// device-mapping page fault.
    ///
    /// # Errors
    ///
    /// Stops at the first page that fails, as `ensure_intermediate`.
    pub fn ensure_range(
        &mut self,
        space: &mut dyn GpaSpace,
        va: GuestVirtAddr,
        pages: u64,
    ) -> Result<(), PtWalkError> {
        for i in 0..pages {
            self.ensure_intermediate(space, va.add(i * PAGE_SIZE))?;
        }
        Ok(())
    }

    /// [`GuestPageTables::unmap`] for each of the `pages` pages from `va`
    /// on, in order: the kernel's half of `munmap`.
    ///
    /// # Errors
    ///
    /// Stops at the first page that fails, as `unmap`.
    pub fn unmap_range(
        &self,
        space: &mut dyn GpaSpace,
        va: GuestVirtAddr,
        pages: u64,
    ) -> Result<(), PtWalkError> {
        for i in 0..pages {
            self.unmap(space, va.add(i * PAGE_SIZE))?;
        }
        Ok(())
    }

    /// Fixes only the *leaf* entry for `va`, the hypervisor's half of `mmap`.
    ///
    /// # Errors
    ///
    /// Returns [`PtWalkError::MissingIntermediate`] if the guest kernel has
    /// not pre-created the upper levels — the hypervisor deliberately never
    /// creates them (paper §5.2).
    pub fn set_leaf(
        &self,
        space: &mut dyn GpaSpace,
        va: GuestVirtAddr,
        gpa: GuestPhysAddr,
        access: Access,
    ) -> Result<(), PtWalkError> {
        let idx = indices(va)?;
        let mut table = self.root;
        for (level, &index) in idx.iter().enumerate().take(2) {
            let entry = Self::read_entry(space, table, index)?;
            if entry & PTE_PRESENT == 0 {
                return Err(PtWalkError::MissingIntermediate {
                    va,
                    level: level as u8,
                });
            }
            table = GuestPhysAddr::new(entry & PTE_ADDR_MASK);
        }
        space.write_u64(
            Self::entry_addr(table, idx[2]),
            encode_entry(gpa.page_base(), access),
        )
    }

    /// Fully maps `va → gpa`, creating intermediate levels as needed.
    ///
    /// This is the guest kernel's ordinary mapping path (anonymous memory,
    /// stacks, the process heap).
    ///
    /// # Errors
    ///
    /// Fails if allocation or backing access fails.
    pub fn map(
        &mut self,
        space: &mut dyn GpaSpace,
        va: GuestVirtAddr,
        gpa: GuestPhysAddr,
        access: Access,
    ) -> Result<(), PtWalkError> {
        self.ensure_intermediate(space, va)?;
        self.set_leaf(space, va, gpa, access)
    }

    /// Clears the leaf entry for `va`.
    ///
    /// The guest kernel destroys its own leaf mappings before telling the
    /// driver about an unmap; the hypervisor then only tears down EPT state
    /// (paper §5.2). Unmapping an absent leaf is a no-op.
    ///
    /// # Errors
    ///
    /// Fails only if a table page is inaccessible.
    pub fn unmap(&self, space: &mut dyn GpaSpace, va: GuestVirtAddr) -> Result<(), PtWalkError> {
        let idx = indices(va)?;
        let mut table = self.root;
        for &index in idx.iter().take(2) {
            let entry = Self::read_entry(space, table, index)?;
            if entry & PTE_PRESENT == 0 {
                return Ok(());
            }
            table = GuestPhysAddr::new(entry & PTE_ADDR_MASK);
        }
        space.write_u64(Self::entry_addr(table, idx[2]), 0)
    }

    /// Returns `true` if `va`'s page has a present leaf mapping.
    pub fn is_mapped(&self, space: &dyn GpaSpace, va: GuestVirtAddr) -> bool {
        self.walk(space, va.page_base()).is_ok()
    }
}

/// A trivially-backed [`GpaSpace`] for tests: a flat vector of guest memory
/// with a bump allocator for table pages starting at the top.
#[derive(Debug)]
pub struct FlatGpaSpace {
    bytes: Vec<u8>,
    next_table_page: u64,
}

impl FlatGpaSpace {
    /// Creates a flat guest-physical space of `frames` pages; table pages are
    /// carved from the top of the range downwards.
    pub fn new(frames: u64) -> Self {
        FlatGpaSpace {
            bytes: vec![0u8; (frames * PAGE_SIZE) as usize],
            next_table_page: frames,
        }
    }
}

impl GpaSpace for FlatGpaSpace {
    fn read_u64(&self, gpa: GuestPhysAddr) -> Result<u64, PtWalkError> {
        let start = gpa.raw() as usize;
        let bytes = self
            .bytes
            .get(start..start + 8)
            .ok_or(PtWalkError::Backing { gpa })?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("slice len 8")))
    }

    fn write_u64(&mut self, gpa: GuestPhysAddr, value: u64) -> Result<(), PtWalkError> {
        let start = gpa.raw() as usize;
        let bytes = self
            .bytes
            .get_mut(start..start + 8)
            .ok_or(PtWalkError::Backing { gpa })?;
        bytes.copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn alloc_table_page(&mut self) -> Result<GuestPhysAddr, PtWalkError> {
        if self.next_table_page == 0 {
            return Err(PtWalkError::NoTablePages);
        }
        self.next_table_page -= 1;
        Ok(GuestPhysAddr::new(self.next_table_page * PAGE_SIZE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (FlatGpaSpace, GuestPageTables) {
        let mut space = FlatGpaSpace::new(64);
        let tables = GuestPageTables::new(&mut space).unwrap();
        (space, tables)
    }

    #[test]
    fn map_then_walk() {
        let (mut space, mut pt) = setup();
        let va = GuestVirtAddr::new(0x40001000);
        let gpa = GuestPhysAddr::new(0x5000);
        pt.map(&mut space, va, gpa, Access::RW).unwrap();
        let mapping = pt.walk(&space, va).unwrap();
        assert_eq!(mapping.gpa, gpa);
        assert_eq!(mapping.access, Access::RW);
    }

    #[test]
    fn translate_preserves_offset() {
        let (mut space, mut pt) = setup();
        let va = GuestVirtAddr::new(0x1000);
        pt.map(&mut space, va, GuestPhysAddr::new(0x7000), Access::READ)
            .unwrap();
        let gpa = pt.translate(&space, GuestVirtAddr::new(0x1234)).unwrap();
        assert_eq!(gpa, GuestPhysAddr::new(0x7234));
    }

    #[test]
    fn walk_unmapped_reports_level() {
        let (space, pt) = setup();
        let err = pt.walk(&space, GuestVirtAddr::new(0x1000)).unwrap_err();
        assert_eq!(
            err,
            PtWalkError::NotMapped {
                va: GuestVirtAddr::new(0x1000),
                level: 0
            }
        );
    }

    #[test]
    fn leaf_missing_after_intermediate() {
        let (mut space, mut pt) = setup();
        let va = GuestVirtAddr::new(0x2000);
        pt.ensure_intermediate(&mut space, va).unwrap();
        let err = pt.walk(&space, va).unwrap_err();
        assert_eq!(err, PtWalkError::NotMapped { va, level: 2 });
    }

    #[test]
    fn hypervisor_leaf_fix_requires_intermediates() {
        let (mut space, pt) = setup();
        let va = GuestVirtAddr::new(0x80000000);
        let err = pt
            .set_leaf(&mut space, va, GuestPhysAddr::new(0x9000), Access::RW)
            .unwrap_err();
        assert_eq!(err, PtWalkError::MissingIntermediate { va, level: 0 });
    }

    #[test]
    fn frontend_plus_hypervisor_mmap_protocol() {
        // The paper's split: frontend creates intermediates, hypervisor the
        // leaf.
        let (mut space, mut pt) = setup();
        let va = GuestVirtAddr::new(0xbeef_d000 & 0xffff_f000);
        pt.ensure_intermediate(&mut space, va).unwrap();
        pt.set_leaf(&mut space, va, GuestPhysAddr::new(0xa000), Access::RW)
            .unwrap();
        assert_eq!(
            pt.walk(&space, va).unwrap().gpa,
            GuestPhysAddr::new(0xa000)
        );
    }

    #[test]
    fn unmap_clears_leaf_only() {
        let (mut space, mut pt) = setup();
        let va1 = GuestVirtAddr::new(0x1000);
        let va2 = GuestVirtAddr::new(0x2000);
        pt.map(&mut space, va1, GuestPhysAddr::new(0x5000), Access::RW)
            .unwrap();
        pt.map(&mut space, va2, GuestPhysAddr::new(0x6000), Access::RW)
            .unwrap();
        pt.unmap(&mut space, va1).unwrap();
        assert!(!pt.is_mapped(&space, va1));
        assert!(pt.is_mapped(&space, va2));
    }

    #[test]
    fn ranges_cover_every_page_and_only_those() {
        // Three pages straddling a leaf-table boundary (512 pages apart).
        let (mut space, mut pt) = setup();
        let va = GuestVirtAddr::new(511 * PAGE_SIZE);
        pt.ensure_range(&mut space, va, 3).unwrap();
        for i in 0..3 {
            let page = va.add(i * PAGE_SIZE);
            pt.set_leaf(&mut space, page, GuestPhysAddr::new(0x5000), Access::RW)
                .unwrap();
        }
        let past = va.add(3 * PAGE_SIZE);
        pt.map(&mut space, past, GuestPhysAddr::new(0x6000), Access::RW)
            .unwrap();
        pt.unmap_range(&mut space, va, 3).unwrap();
        assert!((0..3).all(|i| !pt.is_mapped(&space, va.add(i * PAGE_SIZE))));
        assert!(pt.is_mapped(&space, past));
    }

    #[test]
    fn unmap_absent_is_noop() {
        let (mut space, pt) = setup();
        pt.unmap(&mut space, GuestVirtAddr::new(0x12345000)).unwrap();
    }

    #[test]
    fn va_out_of_range_rejected() {
        let (space, pt) = setup();
        let va = GuestVirtAddr::new(GVA_SPACE);
        assert_eq!(
            pt.walk(&space, va).unwrap_err(),
            PtWalkError::VaOutOfRange { va }
        );
    }

    #[test]
    fn permissions_roundtrip() {
        let (mut space, mut pt) = setup();
        for access in [Access::READ, Access::RW, Access::RWX, Access::READ | Access::EXEC] {
            let va = GuestVirtAddr::new(0x10_0000 + access.bits() as u64 * PAGE_SIZE);
            pt.map(&mut space, va, GuestPhysAddr::new(0x8000), access)
                .unwrap();
            assert_eq!(pt.walk(&space, va).unwrap().access, access);
        }
    }

    #[test]
    fn distinct_vas_in_same_table_coexist() {
        let (mut space, mut pt) = setup();
        for i in 0..16u64 {
            pt.map(
                &mut space,
                GuestVirtAddr::new(i * PAGE_SIZE),
                GuestPhysAddr::new(0x10000 + i * PAGE_SIZE),
                Access::RW,
            )
            .unwrap();
        }
        for i in 0..16u64 {
            let mapping = pt.walk(&space, GuestVirtAddr::new(i * PAGE_SIZE)).unwrap();
            assert_eq!(mapping.gpa, GuestPhysAddr::new(0x10000 + i * PAGE_SIZE));
        }
    }

    #[test]
    fn allocator_exhaustion_surfaces() {
        let mut space = FlatGpaSpace::new(1);
        let mut pt = GuestPageTables::new(&mut space).unwrap();
        // Root consumed the only page; next level allocation must fail.
        let err = pt
            .map(
                &mut space,
                GuestVirtAddr::new(0),
                GuestPhysAddr::new(0),
                Access::READ,
            )
            .unwrap_err();
        assert_eq!(err, PtWalkError::NoTablePages);
    }
}
