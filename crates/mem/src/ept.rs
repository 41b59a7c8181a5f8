//! Extended page tables: the hypervisor-owned second translation stage.
//!
//! Each VM has one [`Ept`] mapping guest-physical pages to system-physical
//! frames with access permissions. Two Paradice mechanisms live here:
//!
//! * the hypervisor's software walk for cross-VM copies and `mmap`
//!   (paper §5.2) uses [`Ept::translate`];
//! * device data isolation strips permissions from the *driver VM's* EPT
//!   entries covering protected memory regions (paper §4.2/§5.3) via
//!   [`Ept::set_access`], and the walker reports an [`EptViolation`] when the
//!   compromised driver VM touches them anyway.
//!
//! The entries live in a `PageMap`, the two-level radix the IOMMU uses
//! too. Its leaves are a hardware EPT table page: 512 entries of 8 bytes,
//! each the frame, the rights and a present bit packed into one word. A
//! lookup is two indexed loads; no guest ever sees the table's structure,
//! so the hardware's upper levels would only add loads. The x86 restriction
//! that write-only encodings do not exist is enforced at
//! [`Ept::map`]/[`Ept::set_access`] (paper §5.3(iv)), and a frame the word
//! cannot hold (at or above 2^39) is refused at [`Ept::map`].
//!
//! [`Ept::map_run`] maps a run of pages to frames fresh from the
//! allocator a table page at a time: how the hypervisor lays out a VM's RAM
//! and a device's BAR.

use std::fmt;
use std::num::NonZeroU64;

use crate::addr::{Frame, GuestPhysAddr, PhysAddr, PAGE_SIZE};
use crate::pagemap::{frame_word, with_access, word_frame, Entry, PageMap};
use crate::perms::Access;

/// A permission violation or missing-mapping fault during an EPT access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EptViolation {
    /// The guest-physical address of the faulting access.
    pub gpa: GuestPhysAddr,
    /// The rights the access needed.
    pub attempted: Access,
    /// The rights the entry granted (`Access::NONE` if unmapped).
    pub allowed: Access,
    /// Whether any mapping existed at all.
    pub mapped: bool,
}

impl fmt::Display for EptViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mapped {
            write!(
                f,
                "EPT violation at {}: attempted {} but entry allows {}",
                self.gpa, self.attempted, self.allowed
            )
        } else {
            write!(f, "EPT violation at {}: page not mapped", self.gpa)
        }
    }
}

impl std::error::Error for EptViolation {}

/// Error returned when a mapping request is itself malformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EptMapError {
    /// x86 EPTs cannot express write-without-read permissions (§5.3(iv)).
    WriteOnlyUnsupported {
        /// The requested (inexpressible) permission set.
        requested: Access,
    },
    /// Attempted to change permissions of an unmapped page.
    NotMapped {
        /// The guest-physical page in question.
        gpa: GuestPhysAddr,
    },
    /// The frame lies at or above 2^39, beyond what an entry can name.
    FrameBeyondWidth {
        /// The refused frame address.
        frame: PhysAddr,
    },
}

impl fmt::Display for EptMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EptMapError::WriteOnlyUnsupported { requested } => write!(
                f,
                "x86 EPT cannot encode {requested}: writable requires readable"
            ),
            EptMapError::NotMapped { gpa } => {
                write!(f, "no EPT entry for guest-physical page {gpa}")
            }
            EptMapError::FrameBeyondWidth { frame } => {
                write!(
                    f,
                    "frame {frame} lies beyond the EPT's 39-bit address width"
                )
            }
        }
    }
}

impl std::error::Error for EptMapError {}

/// One EPT entry, packed: [`frame_word`]'s frame, rights and present bit.
#[derive(Clone, Copy)]
struct EptEntry(NonZeroU64);

impl EptEntry {
    /// The entry mapping to `frame`'s page base with `access`, if `frame`
    /// lies below 2^39.
    fn new(frame: PhysAddr, access: Access) -> Option<EptEntry> {
        frame_word(frame, access).map(EptEntry)
    }

    fn with_access(self, access: Access) -> EptEntry {
        EptEntry(with_access(self.0, access))
    }

    #[inline]
    fn frame(self) -> PhysAddr {
        word_frame(self.0).0
    }

    #[inline]
    fn access(self) -> Access {
        word_frame(self.0).1
    }
}

impl Entry for EptEntry {
    #[inline]
    fn word(self) -> NonZeroU64 {
        self.0
    }

    #[inline]
    fn from_word(word: NonZeroU64) -> Self {
        EptEntry(word)
    }
}

impl fmt::Debug for EptEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.frame(), self.access())
    }
}

/// One VM's extended page table.
///
/// Keys are guest-physical *page numbers*; values carry the backing frame and
/// the permission set.
#[derive(Debug, Default)]
pub struct Ept {
    entries: PageMap<EptEntry>,
}

impl Ept {
    /// Creates an empty EPT.
    pub fn new() -> Self {
        Ept::default()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no pages are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maps the page containing `gpa` to the frame containing `pa`.
    ///
    /// Both addresses are truncated to their page bases. Remapping an
    /// existing page silently replaces it (the hypervisor is trusted).
    ///
    /// # Errors
    ///
    /// Returns [`EptMapError::WriteOnlyUnsupported`] for permission sets x86
    /// cannot encode and [`EptMapError::FrameBeyondWidth`] for a frame at or
    /// above 2^39; nothing is mapped then.
    ///
    /// # Panics
    ///
    /// Panics if `gpa` is not below 2^39, the page map's address width.
    pub fn map(
        &mut self,
        gpa: GuestPhysAddr,
        pa: PhysAddr,
        access: Access,
    ) -> Result<(), EptMapError> {
        if !access.is_ept_expressible() {
            return Err(EptMapError::WriteOnlyUnsupported { requested: access });
        }
        let entry = EptEntry::new(pa, access).ok_or(EptMapError::FrameBeyondWidth { frame: pa })?;
        self.entries.insert(gpa.page_number(), entry);
        Ok(())
    }

    /// Maps the pages from the one containing `first` onward, one per frame
    /// of `frames` in order, all with `access`, a table page at a time.
    /// `frames` is read only after the checks, so a refused run takes no
    /// frame from a lazy allocator such as [`crate::SystemMemory::alloc_frames`].
    ///
    /// # Errors
    ///
    /// Returns [`EptMapError::WriteOnlyUnsupported`] for permission sets x86
    /// cannot encode; nothing is mapped then.
    ///
    /// # Panics
    ///
    /// Panics, mapping nothing, if the run does not end at or below 2^39.
    /// Panics if a frame lies at or above 2^39, which no frame of a
    /// [`crate::SystemMemory`] does, or if `frames` yields fewer frames
    /// than its length.
    pub fn map_run(
        &mut self,
        first: GuestPhysAddr,
        access: Access,
        frames: impl ExactSizeIterator<Item = Frame>,
    ) -> Result<(), EptMapError> {
        if !access.is_ept_expressible() {
            return Err(EptMapError::WriteOnlyUnsupported { requested: access });
        }
        let count = frames.len() as u64;
        let mut frames = frames.map(|frame| {
            EptEntry::new(frame.base(), access).expect("a frame of SystemMemory lies below 2^39")
        });
        self.entries.insert_run(first.page_number(), count, |_| {
            frames.next().expect("an exact-size run of frames")
        });
        Ok(())
    }

    /// Removes the mapping for the page containing `gpa`.
    ///
    /// Returns the frame that was mapped, if any. Used both for ordinary
    /// teardown and for the hypervisor-side half of `munmap` (paper §5.2:
    /// "upon unmapping … the hypervisor only needs to destroy the mappings in
    /// the EPTs").
    pub fn unmap(&mut self, gpa: GuestPhysAddr) -> Option<PhysAddr> {
        self.entries.remove(gpa.page_number()).map(EptEntry::frame)
    }

    /// Changes the permissions of an existing mapping (data isolation's
    /// permission stripping and restoration).
    ///
    /// # Errors
    ///
    /// Fails if the page is unmapped or the set is not EPT-expressible.
    pub fn set_access(
        &mut self,
        gpa: GuestPhysAddr,
        access: Access,
    ) -> Result<(), EptMapError> {
        if !access.is_ept_expressible() {
            return Err(EptMapError::WriteOnlyUnsupported { requested: access });
        }
        if self
            .entries
            .update(gpa.page_number(), |e| e.with_access(access))
        {
            Ok(())
        } else {
            Err(EptMapError::NotMapped {
                gpa: gpa.page_base(),
            })
        }
    }

    /// Translates `gpa` to a system-physical address, checking `attempted`
    /// rights; offsets within the page are preserved.
    ///
    /// # Errors
    ///
    /// Returns an [`EptViolation`] if the page is unmapped or lacks rights.
    #[inline]
    pub fn translate(
        &self,
        gpa: GuestPhysAddr,
        attempted: Access,
    ) -> Result<PhysAddr, EptViolation> {
        match self.entries.get(gpa.page_number()) {
            Some(entry) if entry.access().contains(attempted) => {
                Ok(entry.frame().add(gpa.page_offset()))
            }
            Some(entry) => Err(EptViolation {
                gpa,
                attempted,
                allowed: entry.access(),
                mapped: true,
            }),
            None => Err(EptViolation {
                gpa,
                attempted,
                allowed: Access::NONE,
                mapped: false,
            }),
        }
    }

    /// Translates without a permission check — the hypervisor's own accesses
    /// (e.g. reading guest page tables during a walk) are not subject to the
    /// guest-visible permissions.
    #[inline]
    pub fn translate_unchecked(&self, gpa: GuestPhysAddr) -> Option<PhysAddr> {
        self.entries
            .get(gpa.page_number())
            .map(|e| e.frame().add(gpa.page_offset()))
    }

    /// Returns the frame backing `gpa`'s page without permission checks.
    #[inline]
    pub fn frame_of(&self, gpa: GuestPhysAddr) -> Option<PhysAddr> {
        self.entries.get(gpa.page_number()).map(EptEntry::frame)
    }

    /// Iterates over `(guest-physical page base, frame base, access)`.
    pub fn iter(&self) -> impl Iterator<Item = (GuestPhysAddr, PhysAddr, Access)> + '_ {
        self.entries.iter().map(|(gpn, entry)| {
            (
                GuestPhysAddr::new(gpn * PAGE_SIZE),
                entry.frame(),
                entry.access(),
            )
        })
    }

    /// Applies `access` to every mapped page in `[start, start + len)`,
    /// returning how many pages were changed. Unmapped pages in the range are
    /// skipped (they have no rights to strip).
    ///
    /// # Errors
    ///
    /// Fails if `access` is not EPT-expressible; no pages are modified then.
    pub fn set_access_range(
        &mut self,
        start: GuestPhysAddr,
        len: u64,
        access: Access,
    ) -> Result<usize, EptMapError> {
        if !access.is_ept_expressible() {
            return Err(EptMapError::WriteOnlyUnsupported { requested: access });
        }
        let first = start.page_number();
        let last = start.add(len.saturating_sub(1)).page_number();
        Ok(self
            .entries
            .update_range(first..=last, |e| e.with_access(access)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_roundtrip() {
        let mut ept = Ept::new();
        ept.map(
            GuestPhysAddr::new(0x2000),
            PhysAddr::new(0x9000),
            Access::RW,
        )
        .unwrap();
        let pa = ept
            .translate(GuestPhysAddr::new(0x2345), Access::READ)
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x9345));
    }

    #[test]
    fn unmapped_translation_faults() {
        let ept = Ept::new();
        let err = ept
            .translate(GuestPhysAddr::new(0x1000), Access::READ)
            .unwrap_err();
        assert!(!err.mapped);
        assert_eq!(err.allowed, Access::NONE);
    }

    #[test]
    fn permission_violation_reports_rights() {
        let mut ept = Ept::new();
        ept.map(
            GuestPhysAddr::new(0x1000),
            PhysAddr::new(0x4000),
            Access::READ,
        )
        .unwrap();
        let err = ept
            .translate(GuestPhysAddr::new(0x1000), Access::WRITE)
            .unwrap_err();
        assert!(err.mapped);
        assert_eq!(err.allowed, Access::READ);
        assert_eq!(err.attempted, Access::WRITE);
    }

    #[test]
    fn write_only_mapping_rejected() {
        let mut ept = Ept::new();
        let err = ept
            .map(
                GuestPhysAddr::new(0),
                PhysAddr::new(0),
                Access::WRITE,
            )
            .unwrap_err();
        assert_eq!(
            err,
            EptMapError::WriteOnlyUnsupported {
                requested: Access::WRITE
            }
        );
    }

    #[test]
    fn strip_and_restore_access() {
        let mut ept = Ept::new();
        let gpa = GuestPhysAddr::new(0x5000);
        ept.map(gpa, PhysAddr::new(0x8000), Access::RW).unwrap();
        ept.set_access(gpa, Access::NONE).unwrap();
        assert!(ept.translate(gpa, Access::READ).is_err());
        // translate_unchecked still works: the hypervisor itself can access.
        assert_eq!(
            ept.translate_unchecked(gpa),
            Some(PhysAddr::new(0x8000))
        );
        ept.set_access(gpa, Access::RW).unwrap();
        assert!(ept.translate(gpa, Access::WRITE).is_ok());
    }

    #[test]
    fn set_access_on_unmapped_fails() {
        let mut ept = Ept::new();
        assert!(matches!(
            ept.set_access(GuestPhysAddr::new(0x1000), Access::READ),
            Err(EptMapError::NotMapped { .. })
        ));
    }

    #[test]
    fn unmap_returns_frame() {
        let mut ept = Ept::new();
        ept.map(
            GuestPhysAddr::new(0x3000),
            PhysAddr::new(0x6000),
            Access::RW,
        )
        .unwrap();
        assert_eq!(
            ept.unmap(GuestPhysAddr::new(0x3000)),
            Some(PhysAddr::new(0x6000))
        );
        assert_eq!(ept.unmap(GuestPhysAddr::new(0x3000)), None);
        assert!(ept.is_empty());
    }

    #[test]
    fn range_stripping_covers_exactly_the_range() {
        let mut ept = Ept::new();
        for i in 0..8u64 {
            ept.map(
                GuestPhysAddr::new(i * PAGE_SIZE),
                PhysAddr::new(0x10_0000 + i * PAGE_SIZE),
                Access::RW,
            )
            .unwrap();
        }
        let changed = ept
            .set_access_range(GuestPhysAddr::new(2 * PAGE_SIZE), 3 * PAGE_SIZE, Access::NONE)
            .unwrap();
        assert_eq!(changed, 3);
        for i in 0..8u64 {
            let ok = ept
                .translate(GuestPhysAddr::new(i * PAGE_SIZE), Access::READ)
                .is_ok();
            assert_eq!(ok, !(2..5).contains(&i), "page {i}");
        }
    }

    #[test]
    fn range_stripping_rejects_write_only() {
        let mut ept = Ept::new();
        assert!(ept
            .set_access_range(GuestPhysAddr::new(0), PAGE_SIZE, Access::WRITE)
            .is_err());
    }

    #[test]
    fn a_frame_beyond_the_width_is_refused_not_truncated() {
        let mut ept = Ept::new();
        let gpa = GuestPhysAddr::new(0x1000);
        for frame in [PhysAddr::new(1 << 39), PhysAddr::new(u64::MAX)] {
            assert_eq!(
                ept.map(gpa, frame, Access::RW),
                Err(EptMapError::FrameBeyondWidth { frame })
            );
        }
        assert!(ept.is_empty());
        let top = PhysAddr::new((1 << 39) - PAGE_SIZE);
        ept.map(gpa, top.add(9), Access::RWX).unwrap();
        assert_eq!(ept.iter().collect::<Vec<_>>(), [(gpa, top, Access::RWX)]);
        ept.set_access(gpa, Access::NONE).unwrap();
        assert_eq!(ept.iter().collect::<Vec<_>>(), [(gpa, top, Access::NONE)]);
    }

    #[test]
    fn a_run_maps_the_frames_in_order_and_a_refused_run_takes_none() {
        let mut mem = crate::SystemMemory::new(1100);
        let mut ept = Ept::new();
        let frames = mem.alloc_frames(4).unwrap();
        assert!(ept
            .map_run(GuestPhysAddr::new(0), Access::WRITE, frames)
            .is_err());
        assert_eq!(mem.allocated_frames(), 0);
        // From the middle of one table page, over a whole one, into a third.
        let first = GuestPhysAddr::new(500 * PAGE_SIZE);
        let frames = mem.alloc_frames(600).unwrap();
        ept.map_run(first, Access::RW, frames).unwrap();
        assert_eq!(mem.allocated_frames(), 600);
        assert_eq!(ept.len(), 600);
        for (i, (gpa, frame, access)) in ept.iter().enumerate() {
            let i = i as u64;
            assert_eq!(gpa, first.add(i * PAGE_SIZE));
            assert_eq!(frame, PhysAddr::new(i * PAGE_SIZE));
            assert_eq!(access, Access::RW);
        }
    }

    #[test]
    fn iteration_is_sorted() {
        let mut ept = Ept::new();
        for gpn in [5u64, 1, 3] {
            ept.map(
                GuestPhysAddr::new(gpn * PAGE_SIZE),
                PhysAddr::new(gpn * PAGE_SIZE),
                Access::READ,
            )
            .unwrap();
        }
        let pages: Vec<u64> = ept.iter().map(|(gpa, _, _)| gpa.page_number()).collect();
        assert_eq!(pages, vec![1, 3, 5]);
    }
}
