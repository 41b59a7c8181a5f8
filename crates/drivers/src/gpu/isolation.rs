//! The Radeon data-isolation patch set (paper §5.3, ~400 LoC in the real
//! driver).
//!
//! The paper makes four sets of changes. The first three are mirrored here
//! one-for-one:
//!
//! 1. **Explicit IOMMU management** — "we allocate a pool of pages for each
//!    memory region and map them in IOMMU in the initialization phase."
//!    ([`IsolationState::setup`] builds a per-region [`DmaPool`].)
//! 2. **Per-region device buffers** — "the driver normally creates some data
//!    buffers on the device memory that are used by the GPU, such as the GPU
//!    address translations buffer. We create these buffers on all memory
//!    regions so that the GPU has access to them regardless of the active
//!    memory region." (One GART page is reserved in each region's VRAM
//!    slice.)
//! 3. **Protected MMIO** — "we unmap from the driver VM the MMIO page that
//!    contains the GPU memory controller registers … If the driver needs to
//!    read/write to other registers in the same MMIO page, it issues a
//!    hypercall." ([`IsolationState::setup`] calls `hc_protect_mmio`.)
//!
//! The paper's fourth change, **write-only emulation** (§5.3(iv)), is not
//! needed here. x86 has no write-only EPT encoding, so the paper left a
//! staging buffer readable and writable to the driver VM for the driver to
//! copy uploads into. Here the driver never copies a payload: `GEM_PWRITE`
//! and `GEM_PREAD` name the buffer object's pages, and the hypervisor
//! copies between the guest process and those pages itself once it has
//! checked that they belong to the calling guest's region. So an upload
//! never rests in memory the driver VM can read, and §4.2's invariant —
//! the driver VM never reads a protected region — holds for every byte.

use paradice_devfs::Errno;
use paradice_hypervisor::regions::DevMemRange;
use paradice_hypervisor::VmId;
use paradice_mem::{Access, GuestPhysAddr, RegionId, PAGE_SIZE};

use crate::env::{hv_to_errno, DmaPool, KernelEnv};
use crate::gpu::bo::VramAllocator;
use crate::gpu::model::RadeonGpu;

/// Per-guest isolation resources.
#[derive(Debug)]
struct RegionState {
    region: RegionId,
    guest: VmId,
    /// This region's slice of VRAM.
    vram: VramAllocator,
    /// Pre-mapped protected page pool for GTT objects (§5.3(i)).
    gtt: DmaPool,
    /// The per-region GART page reserved in device memory (§5.3(ii)).
    gart_offset: u64,
}

/// All data-isolation state of the Radeon driver.
#[derive(Debug)]
pub struct IsolationState {
    regions: Vec<RegionState>,
}

impl IsolationState {
    /// Runs the trusted driver-initialization phase: creates one protected
    /// region per guest (VRAM split evenly), builds the per-region GTT
    /// pools, reserves the per-region GART pages, and confiscates the MC
    /// MMIO page.
    ///
    /// # Errors
    ///
    /// Propagates hypervisor refusals and allocation failures.
    pub fn setup(
        env: &KernelEnv,
        gpu: &RadeonGpu,
        guests: &[VmId],
        gtt_pool_pages: usize,
    ) -> Result<IsolationState, Errno> {
        if guests.is_empty() {
            return Err(Errno::Einval);
        }
        let slice_bytes =
            (gpu.vram_bytes() / guests.len() as u64) / PAGE_SIZE * PAGE_SIZE;
        let mut regions = Vec::with_capacity(guests.len());
        for (i, &guest) in guests.iter().enumerate() {
            let lo = i as u64 * slice_bytes;
            let hi = lo + slice_bytes;
            // Region creation: non-overlapping device-memory range (§4.2).
            let region = env
                .hv()
                .borrow_mut()
                .hc_create_region(
                    env.vm(),
                    env.domain(),
                    guest,
                    Some(DevMemRange::new(lo, hi)),
                )
                .map_err(|e| hv_to_errno(&e))?;
            // The driver VM loses CPU access to this VRAM slice.
            env.hv()
                .borrow_mut()
                .hc_protect_bar_range(env.vm(), env.domain(), region, lo, slice_bytes)
                .map_err(|e| hv_to_errno(&e))?;
            // (i) The protected GTT page pool, IOMMU-mapped up front.
            let gtt = DmaPool::new(env, gtt_pool_pages, Access::RW, Some(region))?;
            // (ii) Reserve the per-region GART page in device memory.
            let mut vram = VramAllocator::new(lo, hi);
            let gart_offset = vram.alloc(PAGE_SIZE)?;
            regions.push(RegionState {
                region,
                guest,
                vram,
                gtt,
                gart_offset,
            });
        }
        // (iii) Confiscate the memory-controller MMIO page.
        env.hv()
            .borrow_mut()
            .hc_protect_mmio(env.vm(), env.domain())
            .map_err(|e| hv_to_errno(&e))?;
        Ok(IsolationState { regions })
    }

    fn state_of(&mut self, region: RegionId) -> Result<&mut RegionState, Errno> {
        self.regions
            .iter_mut()
            .find(|state| state.region == region)
            .ok_or(Errno::Eperm)
    }

    /// The region configured for `guest`, if any.
    pub fn region_of_guest(&self, guest: VmId) -> Option<RegionId> {
        self.regions
            .iter()
            .find(|state| state.guest == guest)
            .map(|state| state.region)
    }

    /// The per-region GART page offset in device memory (§5.3(ii)).
    pub fn gart_offset(&self, region: RegionId) -> Option<u64> {
        self.regions
            .iter()
            .find(|state| state.region == region)
            .map(|state| state.gart_offset)
    }

    /// The VRAM allocator of a region.
    ///
    /// # Errors
    ///
    /// `EPERM` for unknown regions.
    pub fn vram_for(&mut self, region: RegionId) -> Result<&mut VramAllocator, Errno> {
        Ok(&mut self.state_of(region)?.vram)
    }

    /// Frees a VRAM allocation, finding the owning region by offset.
    ///
    /// # Errors
    ///
    /// `EINVAL` if no region owns the offset.
    pub fn free_vram(&mut self, offset: u64) -> Result<(), Errno> {
        for state in &mut self.regions {
            if state.vram.contains(offset, 1) {
                return state.vram.free(offset);
            }
        }
        Err(Errno::Einval)
    }

    /// Takes `n` pages from a region's protected GTT pool.
    ///
    /// # Errors
    ///
    /// `ENOMEM` when the pool is exhausted.
    pub fn take_gtt_pages(
        &mut self,
        region: RegionId,
        n: usize,
    ) -> Result<Vec<GuestPhysAddr>, Errno> {
        let state = self.state_of(region)?;
        (0..n).map(|_| state.gtt.take()).collect()
    }
}
