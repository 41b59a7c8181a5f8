//! IOMMU model: region-tagged DMA translation.
//!
//! Paradice uses the IOMMU twice (paper §3.1, §4.2):
//!
//! 1. **Device assignment** — the device's DMA is restricted to the driver
//!    VM's memory. We model this as a *global* bulk mapping installed by the
//!    hypervisor at assignment time.
//! 2. **Device data isolation** — the hypervisor installs *no* initial
//!    mappings; the driver must ask for every page, attaching a
//!    [`RegionId`]. Only one region is active at a time, so the device can
//!    never DMA another guest's data. Switching regions remaps the active
//!    page set (a cost the hypervisor's cost model charges).
//!
//! We keep all mappings resident and gate translation on the active region;
//! this is observationally identical to the paper's unmap-all/remap-all
//! switch and lets [`IommuDomain::switch_region`] report how many pages a
//! real switch would touch.
//!
//! A domain's mappings live in a `PageMap`, the two-level radix the EPT
//! uses too: leaves of 512 8-byte entries, a VT-d page table page, and a
//! lookup of two indexed loads. An entry packs the frame, the rights and a
//! present bit as the EPT's do, and the region tag in its high 32 bits, so
//! every [`RegionId`] fits. It covers 39-bit bus addresses and frames
//! (three-level VT-d): [`IommuDomain::addressable`] says whether a bus
//! address lies inside, and [`IommuDomain::map`] refuses a page or a frame
//! outside.

use std::fmt;
use std::num::NonZeroU64;

use crate::addr::{DmaAddr, PhysAddr, PAGE_SIZE};
use crate::pagemap::{frame_word, word_frame, Entry, PageMap, PAGE_LIMIT};
use crate::perms::Access;

/// Identifier of a protected memory region (one per guest VM, paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The pseudo-region for global mappings (device assignment without data
    /// isolation): always active.
    pub const GLOBAL: RegionId = RegionId(u32::MAX);
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == RegionId::GLOBAL {
            f.write_str("region(global)")
        } else {
            write!(f, "region({})", self.0)
        }
    }
}

/// A blocked or failed DMA access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IommuFault {
    /// No mapping exists for the bus address.
    Unmapped {
        /// The faulting bus address.
        dma: DmaAddr,
    },
    /// A mapping exists but belongs to a region that is not active.
    RegionInactive {
        /// The faulting bus address.
        dma: DmaAddr,
        /// The region the mapping belongs to.
        region: RegionId,
        /// The currently active region, if any.
        active: Option<RegionId>,
    },
    /// The mapping lacks the attempted rights (e.g. a device write to a
    /// page mapped read-only).
    InsufficientRights {
        /// The faulting bus address.
        dma: DmaAddr,
        /// Rights the access needed.
        attempted: Access,
        /// Rights the mapping grants.
        allowed: Access,
    },
}

impl fmt::Display for IommuFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IommuFault::Unmapped { dma } => write!(f, "IOMMU fault: {dma} not mapped"),
            IommuFault::RegionInactive {
                dma,
                region,
                active,
            } => write!(
                f,
                "IOMMU fault: {dma} belongs to {region} but active region is {}",
                match active {
                    Some(r) => r.to_string(),
                    None => "none".to_owned(),
                }
            ),
            IommuFault::InsufficientRights {
                dma,
                attempted,
                allowed,
            } => write!(
                f,
                "IOMMU fault: {dma} attempted {attempted}, mapping allows {allowed}"
            ),
        }
    }
}

impl std::error::Error for IommuFault {}

/// One IOMMU entry, packed: [`frame_word`]'s frame, rights and present bit,
/// and the region in bits 32–63.
#[derive(Clone, Copy)]
struct DmaEntry(NonZeroU64);

impl DmaEntry {
    /// The entry mapping to `frame`'s page base with `access` in `region`,
    /// if `frame` lies below 2^39.
    fn new(frame: PhysAddr, access: Access, region: RegionId) -> Option<DmaEntry> {
        Some(DmaEntry(
            frame_word(frame, access)? | u64::from(region.0) << 32,
        ))
    }

    #[inline]
    fn frame(self) -> PhysAddr {
        word_frame(self.0).0
    }

    #[inline]
    fn access(self) -> Access {
        word_frame(self.0).1
    }

    #[inline]
    fn region(self) -> RegionId {
        RegionId((self.0.get() >> 32) as u32)
    }
}

impl Entry for DmaEntry {
    #[inline]
    fn word(self) -> NonZeroU64 {
        self.0
    }

    #[inline]
    fn from_word(word: NonZeroU64) -> Self {
        DmaEntry(word)
    }
}

impl fmt::Debug for DmaEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.frame(), self.access(), self.region())
    }
}

/// The translation domain of one assigned device.
#[derive(Debug, Default)]
pub struct IommuDomain {
    entries: PageMap<DmaEntry>,
    active: Option<RegionId>,
}

impl IommuDomain {
    /// Creates an empty domain with no active region.
    pub fn new() -> Self {
        IommuDomain::default()
    }

    /// Whether `dma` lies inside the domain's 39-bit bus address space, so
    /// that [`IommuDomain::map`] can map it.
    pub fn addressable(dma: DmaAddr) -> bool {
        dma.page_number() < PAGE_LIMIT
    }

    /// Maps the page containing `dma` to the frame containing `pa`, tagged
    /// with `region`. Pass [`RegionId::GLOBAL`] for always-active mappings.
    ///
    /// # Errors
    ///
    /// Refuses, as [`IommuFault::Unmapped`] at `dma`, a `dma` that is not
    /// [`IommuDomain::addressable`] or a `pa` at or above 2^39: an entry
    /// cannot hold either. Nothing is mapped then.
    pub fn map(
        &mut self,
        dma: DmaAddr,
        pa: PhysAddr,
        access: Access,
        region: RegionId,
    ) -> Result<(), IommuFault> {
        let entry = DmaEntry::new(pa, access, region)
            .filter(|_| IommuDomain::addressable(dma))
            .ok_or(IommuFault::Unmapped { dma })?;
        self.entries.insert(dma.page_number(), entry);
        Ok(())
    }

    /// Maps the pages from the one containing `first` onward, one per frame
    /// of `frames` in order, all with `access` in `region`, a table page at
    /// a time: plain device assignment's identity map of the driver VM's
    /// RAM. `frames` is read only after the run is checked.
    ///
    /// # Errors
    ///
    /// Refuses, as [`IommuFault::Unmapped`] at `first`, a run that does not
    /// end inside the 39-bit bus address space; nothing is mapped then.
    ///
    /// # Panics
    ///
    /// Panics if a frame lies at or above 2^39, which no frame an EPT maps
    /// does, or if `frames` yields fewer frames than its length.
    pub fn map_run(
        &mut self,
        first: DmaAddr,
        access: Access,
        region: RegionId,
        frames: impl ExactSizeIterator<Item = PhysAddr>,
    ) -> Result<(), IommuFault> {
        let count = frames.len() as u64;
        if first.page_number().saturating_add(count) > PAGE_LIMIT {
            return Err(IommuFault::Unmapped { dma: first });
        }
        let mut frames = frames.map(|frame| {
            DmaEntry::new(frame, access, region).expect("an EPT's frames lie below 2^39")
        });
        self.entries.insert_run(first.page_number(), count, |_| {
            frames.next().expect("an exact-size run of frames")
        });
        Ok(())
    }

    /// Removes a mapping, returning the frame it pointed at.
    pub fn unmap(&mut self, dma: DmaAddr) -> Option<PhysAddr> {
        self.entries.remove(dma.page_number()).map(DmaEntry::frame)
    }

    /// The currently active protected region, if any.
    pub fn active_region(&self) -> Option<RegionId> {
        self.active
    }

    /// Activates `region`, deactivating any previous one.
    ///
    /// Returns the number of page mappings a hardware IOMMU would have had to
    /// unmap + map for this switch (pages of the old region plus pages of the
    /// new), which the hypervisor uses for cost accounting.
    pub fn switch_region(&mut self, region: Option<RegionId>) -> usize {
        let count_of = |r: Option<RegionId>| -> usize {
            match r {
                Some(r) if r != RegionId::GLOBAL => self.pages_in_region(r),
                _ => 0,
            }
        };
        let work = count_of(self.active) + count_of(region);
        self.active = region;
        work
    }

    /// Number of pages currently mapped for `region`.
    pub fn pages_in_region(&self, region: RegionId) -> usize {
        self.entries
            .iter()
            .filter(|(_, e)| e.region() == region)
            .count()
    }

    /// Total mapped pages across all regions.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Translates a device access at `dma` needing `attempted` rights.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped, tagged with an inactive region, or
    /// mapped with insufficient rights.
    #[inline]
    pub fn translate(&self, dma: DmaAddr, attempted: Access) -> Result<PhysAddr, IommuFault> {
        let entry = self
            .entries
            .get(dma.page_number())
            .ok_or(IommuFault::Unmapped { dma })?;
        let region = entry.region();
        if region != RegionId::GLOBAL && Some(region) != self.active {
            return Err(IommuFault::RegionInactive {
                dma,
                region,
                active: self.active,
            });
        }
        if !entry.access().contains(attempted) {
            return Err(IommuFault::InsufficientRights {
                dma,
                attempted,
                allowed: entry.access(),
            });
        }
        Ok(entry.frame().add(dma.page_offset()))
    }

    /// Iterates over `(dma page base, frame, access, region)`.
    pub fn iter(&self) -> impl Iterator<Item = (DmaAddr, PhysAddr, Access, RegionId)> + '_ {
        self.entries.iter().map(|(pn, e)| {
            (
                DmaAddr::new(pn * PAGE_SIZE),
                e.frame(),
                e.access(),
                e.region(),
            )
        })
    }
}

/// The machine's IOMMU: one translation domain per assigned device.
#[derive(Debug, Default)]
pub struct Iommu {
    domains: Vec<IommuDomain>,
}

/// Handle to a device's translation domain within the [`Iommu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainId(usize);

impl DomainId {
    /// The domain's index, usable as a map key by higher layers.
    pub const fn index(self) -> usize {
        self.0
    }

    /// Rebuilds a `DomainId` from an index previously obtained via
    /// [`DomainId::index`] (higher layers key their per-domain state by it).
    pub const fn from_index(index: usize) -> Self {
        DomainId(index)
    }
}

impl Iommu {
    /// Creates an IOMMU with no domains.
    pub fn new() -> Self {
        Iommu::default()
    }

    /// Allocates a fresh, empty domain (done at device assignment).
    pub fn create_domain(&mut self) -> DomainId {
        self.domains.push(IommuDomain::new());
        DomainId(self.domains.len() - 1)
    }

    /// Shared access to a domain.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this IOMMU — a simulation bug.
    pub fn domain(&self, id: DomainId) -> &IommuDomain {
        &self.domains[id.0]
    }

    /// Exclusive access to a domain.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this IOMMU — a simulation bug.
    pub fn domain_mut(&mut self, id: DomainId) -> &mut IommuDomain {
        &mut self.domains[id.0]
    }

    /// Number of domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_mapping_translates_without_active_region() {
        let mut dom = IommuDomain::new();
        dom.map(
            DmaAddr::new(0x1000),
            PhysAddr::new(0x8000),
            Access::RW,
            RegionId::GLOBAL,
        )
        .unwrap();
        assert_eq!(
            dom.translate(DmaAddr::new(0x1004), Access::WRITE).unwrap(),
            PhysAddr::new(0x8004)
        );
    }

    #[test]
    fn unmapped_dma_faults() {
        let dom = IommuDomain::new();
        assert_eq!(
            dom.translate(DmaAddr::new(0x2000), Access::READ),
            Err(IommuFault::Unmapped {
                dma: DmaAddr::new(0x2000)
            })
        );
    }

    #[test]
    fn region_gating_blocks_inactive_regions() {
        let mut dom = IommuDomain::new();
        let r1 = RegionId(1);
        let r2 = RegionId(2);
        dom.map(DmaAddr::new(0x1000), PhysAddr::new(0xa000), Access::RW, r1)
            .unwrap();
        dom.map(DmaAddr::new(0x2000), PhysAddr::new(0xb000), Access::RW, r2)
            .unwrap();

        dom.switch_region(Some(r1));
        assert!(dom.translate(DmaAddr::new(0x1000), Access::READ).is_ok());
        assert_eq!(
            dom.translate(DmaAddr::new(0x2000), Access::READ),
            Err(IommuFault::RegionInactive {
                dma: DmaAddr::new(0x2000),
                region: r2,
                active: Some(r1),
            })
        );

        dom.switch_region(Some(r2));
        assert!(dom.translate(DmaAddr::new(0x2000), Access::READ).is_ok());
        assert!(dom.translate(DmaAddr::new(0x1000), Access::READ).is_err());
    }

    #[test]
    fn switch_cost_counts_both_regions() {
        let mut dom = IommuDomain::new();
        let r1 = RegionId(1);
        let r2 = RegionId(2);
        for i in 0..3 {
            dom.map(
                DmaAddr::new(i * PAGE_SIZE),
                PhysAddr::new(i * PAGE_SIZE),
                Access::RW,
                r1,
            )
            .unwrap();
        }
        for i in 3..8 {
            dom.map(
                DmaAddr::new(i * PAGE_SIZE),
                PhysAddr::new(i * PAGE_SIZE),
                Access::RW,
                r2,
            )
            .unwrap();
        }
        assert_eq!(dom.switch_region(Some(r1)), 3); // map r1
        assert_eq!(dom.switch_region(Some(r2)), 8); // unmap r1 + map r2
        assert_eq!(dom.switch_region(None), 5); // unmap r2
    }

    #[test]
    fn a_read_only_mapping_refuses_device_writes() {
        let mut dom = IommuDomain::new();
        dom.map(
            DmaAddr::new(0x3000),
            PhysAddr::new(0xc000),
            Access::READ,
            RegionId::GLOBAL,
        )
        .unwrap();
        assert!(dom.translate(DmaAddr::new(0x3000), Access::READ).is_ok());
        assert_eq!(
            dom.translate(DmaAddr::new(0x3000), Access::WRITE),
            Err(IommuFault::InsufficientRights {
                dma: DmaAddr::new(0x3000),
                attempted: Access::WRITE,
                allowed: Access::READ,
            })
        );
    }

    #[test]
    fn contiguous_bulk_map() {
        let mut dom = IommuDomain::new();
        let frames = (0..4u32).map(|i| PhysAddr::new(0x10000 + u64::from(i) * PAGE_SIZE));
        let run = dom.map_run(DmaAddr::new(0), Access::RW, RegionId::GLOBAL, frames);
        assert_eq!(run, Ok(()));
        assert_eq!(dom.mapped_pages(), 4);
        assert_eq!(
            dom.translate(DmaAddr::new(3 * PAGE_SIZE + 5), Access::READ)
                .unwrap(),
            PhysAddr::new(0x10000 + 3 * PAGE_SIZE + 5)
        );
        // A run that would end past the bus address width maps nothing.
        let top = DmaAddr::new((PAGE_LIMIT - 1) * PAGE_SIZE);
        let frames = (0..2u32).map(|i| PhysAddr::new(u64::from(i) * PAGE_SIZE));
        assert_eq!(
            dom.map_run(top, Access::RW, RegionId::GLOBAL, frames),
            Err(IommuFault::Unmapped { dma: top })
        );
        assert_eq!(dom.mapped_pages(), 4);
    }

    #[test]
    fn an_entry_the_word_cannot_hold_is_refused() {
        let mut dom = IommuDomain::new();
        let high = PhysAddr::new(PAGE_LIMIT * PAGE_SIZE);
        let dma = DmaAddr::new(0x1000);
        assert_eq!(
            dom.map(dma, high, Access::RW, RegionId::GLOBAL),
            Err(IommuFault::Unmapped { dma })
        );
        let far = DmaAddr::new(PAGE_LIMIT * PAGE_SIZE);
        assert_eq!(
            dom.map(far, PhysAddr::new(0), Access::RW, RegionId::GLOBAL),
            Err(IommuFault::Unmapped { dma: far })
        );
        assert_eq!(dom.mapped_pages(), 0);
        // The highest frame and both ends of the region field round-trip.
        let top = PhysAddr::new((PAGE_LIMIT - 1) * PAGE_SIZE);
        let largest = RegionId(u32::MAX - 1);
        for (page, region) in [(1, RegionId(0)), (2, largest), (3, RegionId::GLOBAL)] {
            dom.map(DmaAddr::new(page * PAGE_SIZE), top, Access::RWX, region)
                .unwrap();
        }
        let entries: Vec<_> = dom.iter().collect();
        assert_eq!(
            entries,
            [RegionId(0), largest, RegionId::GLOBAL]
                .into_iter()
                .zip(1..)
                .map(|(region, page)| (DmaAddr::new(page * PAGE_SIZE), top, Access::RWX, region))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unmap_returns_frame_and_forgets() {
        let mut dom = IommuDomain::new();
        dom.map(
            DmaAddr::new(0x4000),
            PhysAddr::new(0x5000),
            Access::RW,
            RegionId(7),
        )
        .unwrap();
        assert_eq!(dom.unmap(DmaAddr::new(0x4000)), Some(PhysAddr::new(0x5000)));
        assert_eq!(dom.unmap(DmaAddr::new(0x4000)), None);
        assert_eq!(dom.pages_in_region(RegionId(7)), 0);
    }

    #[test]
    fn iommu_manages_multiple_domains() {
        let mut iommu = Iommu::new();
        let gpu = iommu.create_domain();
        let nic = iommu.create_domain();
        assert_ne!(gpu, nic);
        iommu
            .domain_mut(gpu)
            .map(
                DmaAddr::new(0),
                PhysAddr::new(0x1000),
                Access::RW,
                RegionId::GLOBAL,
            )
            .unwrap();
        assert_eq!(iommu.domain(gpu).mapped_pages(), 1);
        assert_eq!(iommu.domain(nic).mapped_pages(), 0);
        assert_eq!(iommu.domain_count(), 2);
    }
}
