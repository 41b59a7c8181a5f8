//! Protected memory regions for device data isolation.
//!
//! "We enforce device data isolation in the hypervisor by allocating
//! non-overlapping protected memory regions on the driver VM memory and on
//! the device memory for each guest VM's data and assigning appropriate
//! access permissions to these regions" (paper §4.2, Figure 1(d)). The
//! permission set is:
//!
//! * driver-VM CPU code (including the driver): **no read** — enforced by
//!   stripping EPT permissions (and, since x86 cannot express write-only,
//!   stripping write too, §5.3(iv));
//! * each guest VM: access to **its own** region only, through
//!   hypervisor-executed memory operations;
//! * the device: access to **one region at a time** — IOMMU gating for
//!   system memory, memory-controller aperture bounds for device memory.
//!
//! [`RegionManager`] is the hypervisor's bookkeeping for this: which pages
//! and device-memory ranges belong to which guest's region, with the
//! non-overlap invariant enforced at registration time.

use std::collections::BTreeMap;
use std::fmt;

use paradice_mem::{GuestPhysAddr, RegionId};

use crate::vm::VmId;

/// A half-open range `[lo, hi)` of device-memory offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DevMemRange {
    /// Inclusive lower bound (byte offset into device memory).
    pub lo: u64,
    /// Exclusive upper bound.
    pub hi: u64,
}

impl DevMemRange {
    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` — a configuration bug.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted device-memory range");
        DevMemRange { lo, hi }
    }

    /// Whether `offset` lies in the range.
    pub fn contains(&self, offset: u64) -> bool {
        (self.lo..self.hi).contains(&offset)
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &DevMemRange) -> bool {
        self.lo < other.hi && other.lo < self.hi
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.hi - self.lo
    }

    /// Whether the range is empty.
    pub fn is_empty(&self) -> bool {
        self.lo == self.hi
    }
}

/// Errors from region registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionError {
    /// The device-memory range overlaps another region's.
    DevMemOverlap {
        /// The region already owning the overlapping range.
        existing: RegionId,
    },
    /// The system-memory page already belongs to a region.
    SysPageTaken {
        /// The page in question (driver-VM guest-physical).
        gpa: GuestPhysAddr,
        /// Its owner.
        existing: RegionId,
    },
    /// Unknown region.
    UnknownRegion {
        /// The offending id.
        region: RegionId,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::DevMemOverlap { existing } => {
                write!(f, "device-memory range overlaps {existing}")
            }
            RegionError::SysPageTaken { gpa, existing } => {
                write!(f, "system page {gpa} already protected for {existing}")
            }
            RegionError::UnknownRegion { region } => write!(f, "unknown {region}"),
        }
    }
}

impl std::error::Error for RegionError {}

#[derive(Debug)]
struct Region {
    guest: VmId,
    dev_mem: Option<DevMemRange>,
    sys_pages: Vec<GuestPhysAddr>,
}

/// The hypervisor's protected-region bookkeeping for one device.
#[derive(Debug, Default)]
pub struct RegionManager {
    regions: BTreeMap<u32, Region>,
    /// Reverse map: protected driver-VM page → owning region.
    page_owner: BTreeMap<u64, RegionId>,
    next_id: u32,
}

impl RegionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        RegionManager::default()
    }

    /// Creates a region for `guest`, optionally claiming a device-memory
    /// range (e.g. half of the GPU's VRAM, §6: "we split the 1GB GPU memory
    /// between two memory regions").
    ///
    /// # Errors
    ///
    /// [`RegionError::DevMemOverlap`] if the range collides with another
    /// region — regions must be non-overlapping by construction.
    pub fn create_region(
        &mut self,
        guest: VmId,
        dev_mem: Option<DevMemRange>,
    ) -> Result<RegionId, RegionError> {
        if let Some(range) = &dev_mem {
            for (&id, region) in &self.regions {
                if let Some(existing) = &region.dev_mem {
                    if existing.overlaps(range) {
                        return Err(RegionError::DevMemOverlap {
                            existing: RegionId(id),
                        });
                    }
                }
            }
        }
        let id = RegionId(self.next_id);
        self.next_id += 1;
        self.regions.insert(
            id.0,
            Region {
                guest,
                dev_mem,
                sys_pages: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Adds a driver-VM system-memory page to a region's protected pool
    /// (§5.3(i): "we allocate a pool of pages for each memory region").
    ///
    /// # Errors
    ///
    /// Fails if the region is unknown or the page already belongs to one.
    pub fn add_sys_page(
        &mut self,
        region: RegionId,
        gpa: GuestPhysAddr,
    ) -> Result<(), RegionError> {
        if let Some(&existing) = self.page_owner.get(&gpa.page_number()) {
            return Err(RegionError::SysPageTaken { gpa, existing });
        }
        let entry = self
            .regions
            .get_mut(&region.0)
            .ok_or(RegionError::UnknownRegion { region })?;
        entry.sys_pages.push(gpa.page_base());
        self.page_owner.insert(gpa.page_number(), region);
        Ok(())
    }

    /// The region owning a protected driver-VM page, if any.
    pub fn owner_of_page(&self, gpa: GuestPhysAddr) -> Option<RegionId> {
        self.page_owner.get(&gpa.page_number()).copied()
    }

    /// The guest a region belongs to.
    ///
    /// # Errors
    ///
    /// [`RegionError::UnknownRegion`].
    pub fn guest_of(&self, region: RegionId) -> Result<VmId, RegionError> {
        self.regions
            .get(&region.0)
            .map(|r| r.guest)
            .ok_or(RegionError::UnknownRegion { region })
    }

    /// The device-memory aperture of a region.
    ///
    /// # Errors
    ///
    /// [`RegionError::UnknownRegion`].
    pub fn dev_mem_of(&self, region: RegionId) -> Result<Option<DevMemRange>, RegionError> {
        self.regions
            .get(&region.0)
            .map(|r| r.dev_mem)
            .ok_or(RegionError::UnknownRegion { region })
    }

    /// The protected system pages of a region.
    ///
    /// # Errors
    ///
    /// [`RegionError::UnknownRegion`].
    pub fn sys_pages_of(&self, region: RegionId) -> Result<&[GuestPhysAddr], RegionError> {
        self.regions
            .get(&region.0)
            .map(|r| r.sys_pages.as_slice())
            .ok_or(RegionError::UnknownRegion { region })
    }

    /// The region belonging to `guest`, if one exists.
    pub fn region_of_guest(&self, guest: VmId) -> Option<RegionId> {
        self.regions
            .iter()
            .find(|(_, r)| r.guest == guest)
            .map(|(&id, _)| RegionId(id))
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether no regions exist (data isolation disabled or unused).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Iterates over region ids.
    pub fn iter_ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.regions.keys().map(|&id| RegionId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_mem::PAGE_SIZE;

    #[test]
    fn non_overlapping_dev_mem_enforced() {
        let mut mgr = RegionManager::new();
        let r1 = mgr
            .create_region(VmId(1), Some(DevMemRange::new(0, 512 << 20)))
            .unwrap();
        // Overlap with r1 rejected.
        let err = mgr
            .create_region(VmId(2), Some(DevMemRange::new(256 << 20, 768 << 20)))
            .unwrap_err();
        assert_eq!(err, RegionError::DevMemOverlap { existing: r1 });
        // Disjoint range accepted.
        let r2 = mgr
            .create_region(VmId(2), Some(DevMemRange::new(512 << 20, 1 << 30)))
            .unwrap();
        assert_ne!(r1, r2);
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn sys_pages_belong_to_one_region() {
        let mut mgr = RegionManager::new();
        let r1 = mgr.create_region(VmId(1), None).unwrap();
        let r2 = mgr.create_region(VmId(2), None).unwrap();
        let page = GuestPhysAddr::new(5 * PAGE_SIZE);
        mgr.add_sys_page(r1, page).unwrap();
        assert_eq!(
            mgr.add_sys_page(r2, page),
            Err(RegionError::SysPageTaken {
                gpa: page,
                existing: r1
            })
        );
        assert_eq!(mgr.owner_of_page(page.add(123)), Some(r1));
        assert_eq!(mgr.owner_of_page(GuestPhysAddr::new(0)), None);
    }

    #[test]
    fn region_lookups() {
        let mut mgr = RegionManager::new();
        let range = DevMemRange::new(0, 1024);
        let r = mgr.create_region(VmId(9), Some(range)).unwrap();
        assert_eq!(mgr.guest_of(r).unwrap(), VmId(9));
        assert_eq!(mgr.dev_mem_of(r).unwrap(), Some(range));
        assert_eq!(mgr.region_of_guest(VmId(9)), Some(r));
        assert_eq!(mgr.region_of_guest(VmId(10)), None);
        let bogus = RegionId(99);
        assert!(mgr.guest_of(bogus).is_err());
    }

    #[test]
    fn dev_mem_range_geometry() {
        let a = DevMemRange::new(0, 100);
        let b = DevMemRange::new(100, 200);
        assert!(!a.overlaps(&b));
        assert!(a.contains(99));
        assert!(!a.contains(100));
        assert_eq!(b.len(), 100);
        assert!(!a.is_empty());
        assert!(DevMemRange::new(5, 5).is_empty());
    }

    #[test]
    fn iter_ids_sorted() {
        let mut mgr = RegionManager::new();
        let r1 = mgr.create_region(VmId(1), None).unwrap();
        let r2 = mgr.create_region(VmId(2), None).unwrap();
        let ids: Vec<RegionId> = mgr.iter_ids().collect();
        assert_eq!(ids, vec![r1, r2]);
    }
}
