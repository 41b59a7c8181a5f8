//! The Radeon data-isolation patch set (paper §5.3, ~400 LoC in the real
//! driver).
//!
//! Four sets of changes, mirrored here one-for-one:
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
//! 4. **Write-only emulation** — x86 has no write-only EPT encoding, so
//!    driver-writable staging buffers are made read-only to the *device*
//!    through the IOMMU while the driver VM keeps read/write
//!    (`hc_emulate_write_only`); uploads then flow driver → staging page →
//!    device copy engine → protected destination.

use paradice_devfs::Errno;
use paradice_hypervisor::regions::DevMemRange;
use paradice_hypervisor::VmId;
use paradice_mem::{Access, DmaAddr, GuestPhysAddr, RegionId, PAGE_SIZE};

use crate::env::{hv_to_errno, DmaPool, KernelEnv};
use crate::gpu::bo::VramAllocator;
use crate::gpu::model::RadeonGpu;

/// Effective copy-engine rate for staged uploads, bytes per nanosecond⁻¹
/// denominator (8 B/ns ≈ 8 GB/s).
const COPY_ENGINE_BYTES_PER_NS: u64 = 8;

/// Per-guest isolation resources.
#[derive(Debug)]
struct RegionState {
    region: RegionId,
    guest: VmId,
    /// This region's slice of VRAM.
    vram: VramAllocator,
    /// Pre-mapped protected page pool for GTT objects (§5.3(i)).
    gtt: DmaPool,
    /// Driver-writable, device-readable staging page (§5.3(iv)).
    staging: GuestPhysAddr,
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
    /// pools and staging pages, reserves the per-region GART pages, and
    /// confiscates the MC MMIO page.
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
            // (iv) The staging page: protected, then write-only-emulated so
            // the driver can fill it and only the device can read it.
            let staging = env.alloc_kernel_page()?;
            env.iommu_map(
                DmaAddr::new(staging.raw()),
                staging,
                Access::RW,
                Some(region),
            )?;
            env.hv()
                .borrow_mut()
                .hc_emulate_write_only(env.vm(), env.domain(), DmaAddr::new(staging.raw()))
                .map_err(|e| hv_to_errno(&e))?;
            // (ii) Reserve the per-region GART page in device memory.
            let mut vram = VramAllocator::new(lo, hi);
            let gart_offset = vram.alloc(PAGE_SIZE)?;
            regions.push(RegionState {
                region,
                guest,
                vram,
                gtt,
                staging,
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

    /// Stages `data` through the region's write-only-emulated page and has
    /// the device's copy engine move it into protected VRAM at
    /// `vram_offset` (§5.3(iv)). The region must already be active.
    ///
    /// # Errors
    ///
    /// IOMMU/aperture faults surface as `EIO`.
    pub fn stage_to_vram(
        &mut self,
        env: &KernelEnv,
        region: RegionId,
        gpu: &mut RadeonGpu,
        vram_offset: u64,
        data: &[u8],
    ) -> Result<(), Errno> {
        let staging = self.state_of(region)?.staging;
        let mut bounce = [0u8; PAGE_SIZE as usize];
        let mut written = 0usize;
        while written < data.len() {
            let chunk = (data.len() - written).min(PAGE_SIZE as usize);
            // Driver writes the staging page (write-only emulation keeps the
            // driver's EPT access).
            env.kernel_write(staging, &data[written..written + chunk])?;
            // Device copy engine: DMA-read staging (read-only to the
            // device), write VRAM (aperture-checked).
            let bounce = &mut bounce[..chunk];
            env.device_dma_read(DmaAddr::new(staging.raw()), bounce)?;
            gpu.vram_write(vram_offset + written as u64, bounce)?;
            env.advance_ns(chunk as u64 / COPY_ENGINE_BYTES_PER_NS);
            written += chunk;
        }
        Ok(())
    }

    /// Stages `data` into a protected *system-memory* page (GTT object)
    /// through the staging page and a device copy (§5.3(iv)).
    ///
    /// # Errors
    ///
    /// IOMMU faults surface as `EIO`; `EINVAL` for out-of-page writes.
    pub fn stage_to_page(
        &mut self,
        env: &KernelEnv,
        region: RegionId,
        _gpu: &mut RadeonGpu,
        dst_page: GuestPhysAddr,
        page_offset: u64,
        data: &[u8],
    ) -> Result<(), Errno> {
        if page_offset + data.len() as u64 > PAGE_SIZE {
            return Err(Errno::Einval);
        }
        let staging = self.state_of(region)?.staging;
        env.kernel_write(staging, data)?;
        let mut bounce = [0u8; PAGE_SIZE as usize];
        let bounce = &mut bounce[..data.len()];
        env.device_dma_read(DmaAddr::new(staging.raw()), bounce)?;
        env.device_dma_write(DmaAddr::new(dst_page.raw() + page_offset), bounce)?;
        env.advance_ns(data.len() as u64 / COPY_ENGINE_BYTES_PER_NS);
        Ok(())
    }
}
