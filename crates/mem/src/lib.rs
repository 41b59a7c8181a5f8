//! Memory-system substrate for the Paradice simulation.
//!
//! The Paradice paper (ASPLOS 2014) executes driver memory operations in the
//! hypervisor by *walking page tables in software*: a guest virtual address is
//! first translated through the guest's own page tables (which live in guest
//! physical memory) and then through the per-VM extended page tables (EPTs)
//! maintained by the hypervisor (§5.2 of the paper). Device DMA is confined by
//! an IOMMU, and device-data isolation additionally tags IOMMU mappings with
//! per-guest *memory region* identifiers (§4.2).
//!
//! This crate provides exactly those building blocks as deterministic,
//! fully-software models:
//!
//! * [`addr`] — strongly-typed addresses ([`PhysAddr`], [`GuestPhysAddr`],
//!   [`GuestVirtAddr`], [`DmaAddr`]) and page arithmetic.
//! * [`perms`] — access-permission sets, including the x86 quirk that
//!   *write-only* mappings are unsupported (paper §5.3(iv)).
//! * [`sysmem`] — [`SystemMemory`], the machine's physical frame arena plus a
//!   frame allocator: an allocated frame reads as zeros until first written;
//!   freeing drops its bytes.
//! * [`pagetable`] — PAE-style 3-level guest page tables stored *inside*
//!   guest physical memory, with a software walker.
//! * `pagemap` — `PageMap`, the two-level radix whose leaves are table pages
//!   of 512 packed 8-byte entries; it stores both second-stage translations
//!   below.
//! * [`ept`] — per-VM extended page tables with permission enforcement and
//!   violation reporting.
//! * [`iommu`] — region-tagged DMA translation with a single active region,
//!   the mechanism behind device data isolation.
//! * [`layout`] — helpers for finding unused guest-physical pages, used when
//!   the hypervisor services `mmap` (paper §5.2).
//!
//! # Example
//!
//! ```
//! use paradice_mem::{SystemMemory, PhysAddr};
//!
//! # fn main() -> Result<(), paradice_mem::MemError> {
//! let mut mem = SystemMemory::new(64); // 64 frames = 256 KiB
//! let frame = mem.alloc_frame()?;
//! mem.write(frame.base(), b"paradice")?;
//! let mut buf = [0u8; 8];
//! mem.read(frame.base(), &mut buf)?;
//! assert_eq!(&buf, b"paradice");
//! # Ok(())
//! # }
//! ```

pub mod addr;
pub mod ept;
pub mod iommu;
pub mod layout;
mod pagemap;
pub mod pagetable;
pub mod perms;
pub mod sysmem;

pub use addr::{DmaAddr, Frame, GuestPhysAddr, GuestVirtAddr, PhysAddr, PAGE_MASK, PAGE_SIZE};
pub use ept::{Ept, EptViolation};
pub use iommu::{DomainId, Iommu, IommuDomain, IommuFault, RegionId};
pub use pagetable::{GuestPageTables, PtWalkError};
pub use perms::Access;
pub use sysmem::{MemError, SystemMemory};
