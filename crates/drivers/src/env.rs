//! The kernel environment a driver runs inside.
//!
//! A real driver lives in a kernel that gives it page allocation, DMA
//! mapping, MMIO access and interrupt plumbing. [`KernelEnv`] bundles the
//! simulation's equivalents: a shared hypervisor handle, the identity of the
//! VM hosting the driver, the assigned device's IOMMU domain, and the
//! *thread mark* the CVD backend sets while it executes a guest's file
//! operation (the paper's `task_struct` flag, §5.2), which data-isolation
//! code uses to find the active guest's protected region.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

use paradice_devfs::memops::DriverMemory;
use paradice_devfs::Errno;
use paradice_hypervisor::hv::HvError;
use paradice_hypervisor::{SharedHypervisor, VmId};
use paradice_mem::iommu::DomainId;
use paradice_mem::{Access, DmaAddr, GuestPhysAddr, RegionId};

/// Converts hypervisor failures into the errno a driver would observe.
pub fn hv_to_errno(err: &HvError) -> Errno {
    match err {
        HvError::Grant(_) | HvError::GuestPagePerms { .. } | HvError::Pt(_) => Errno::Efault,
        HvError::Ept(_) | HvError::EptMap(_) => Errno::Efault,
        HvError::Mem(_) => Errno::Enomem,
        HvError::Iommu(_) | HvError::ApertureViolation { .. } => Errno::Eio,
        HvError::ProtectedMmio { .. } => Errno::Eperm,
        HvError::GpaWindowExhausted => Errno::Enomem,
        HvError::DriverVmFailed { .. } => Errno::Eio,
        _ => Errno::Einval,
    }
}

/// The surroundings of a driver: its kernel, its device's IOMMU domain, and
/// the Paradice thread mark.
pub struct KernelEnv {
    hv: SharedHypervisor,
    vm: VmId,
    domain: DomainId,
    data_isolation: bool,
    /// The guest VM whose file operation the current "thread" is executing;
    /// set by the CVD backend before dispatching (the paper's marked
    /// threads). `None` means a host/driver-VM-local caller.
    current_guest: Cell<Option<VmId>>,
}

impl fmt::Debug for KernelEnv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelEnv")
            .field("vm", &self.vm)
            .field("domain", &self.domain)
            .field("data_isolation", &self.data_isolation)
            .field("current_guest", &self.current_guest.get())
            .finish()
    }
}

impl KernelEnv {
    /// Creates the environment for a driver hosted in `vm` driving the
    /// device behind `domain`.
    pub fn new(
        hv: SharedHypervisor,
        vm: VmId,
        domain: DomainId,
        data_isolation: bool,
    ) -> Rc<Self> {
        Rc::new(KernelEnv {
            hv,
            vm,
            domain,
            data_isolation,
            current_guest: Cell::new(None),
        })
    }

    /// The shared hypervisor handle.
    pub fn hv(&self) -> &SharedHypervisor {
        &self.hv
    }

    /// The VM hosting the driver.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The assigned device's IOMMU domain.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Whether device data isolation is enabled for this device.
    pub fn data_isolation(&self) -> bool {
        self.data_isolation
    }

    /// Marks the current "thread" as executing `guest`'s file operation
    /// (CVD backend) or clears the mark (`None`).
    pub fn set_current_guest(&self, guest: Option<VmId>) {
        self.current_guest.set(guest);
    }

    /// The guest whose operation is currently executing, if any.
    pub fn current_guest(&self) -> Option<VmId> {
        self.current_guest.get()
    }

    /// Current virtual time, ns.
    pub fn now_ns(&self) -> u64 {
        self.hv.borrow().clock().now_ns()
    }

    /// Allocates one kernel page in the driver VM, returning its
    /// driver-physical (guest-physical) address.
    ///
    /// # Errors
    ///
    /// `ENOMEM` when the driver VM's kernel memory is exhausted.
    pub fn alloc_kernel_page(&self) -> Result<GuestPhysAddr, Errno> {
        self.hv
            .borrow_mut()
            .vm_mut(self.vm)
            .map_err(|e| hv_to_errno(&e))?
            .alloc_kernel_page()
            .ok_or(Errno::Enomem)
    }

    /// Driver CPU read of its own memory (EPT-checked: protected-region
    /// pages fault, §4.2).
    ///
    /// # Errors
    ///
    /// `EFAULT` on EPT violations.
    pub fn kernel_read(&self, gpa: GuestPhysAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .vm_mem_read(self.vm, gpa, buf)
            .map_err(|e| hv_to_errno(&e))
    }

    /// Driver CPU write of its own memory (EPT-checked).
    ///
    /// # Errors
    ///
    /// `EFAULT` on EPT violations.
    pub fn kernel_write(&self, gpa: GuestPhysAddr, buf: &[u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .vm_mem_write(self.vm, gpa, buf)
            .map_err(|e| hv_to_errno(&e))
    }

    /// Asks the hypervisor to map a driver page into the device's IOMMU
    /// domain at `dma` (with the region tag under data isolation, §5.3(i)).
    ///
    /// # Errors
    ///
    /// `EIO`/`EINVAL` on hypervisor refusal.
    pub fn iommu_map(
        &self,
        dma: DmaAddr,
        page: GuestPhysAddr,
        access: Access,
        region: Option<RegionId>,
    ) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .hc_iommu_map(self.vm, self.domain, dma, page, access, region)
            .map_err(|e| hv_to_errno(&e))
    }

    /// Asks the hypervisor to make the device work with `region`'s data.
    ///
    /// # Errors
    ///
    /// `EINVAL` for unknown regions.
    pub fn switch_region(&self, region: Option<RegionId>) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .hc_switch_region(self.vm, self.domain, region)
            .map_err(|e| hv_to_errno(&e))
    }

    /// The protected region of `guest` on this device, if any.
    pub fn region_of_guest(&self, guest: VmId) -> Option<RegionId> {
        self.hv.borrow().region_of_guest(self.domain, guest)
    }

    /// A DMA write performed by the *device* (IOMMU-translated, region-gated
    /// under data isolation). Device models use this to deposit sensor
    /// frames, RX packets, fence values, etc.
    ///
    /// # Errors
    ///
    /// `EIO` on IOMMU faults (which are audited by the hypervisor).
    pub fn device_dma_write(&self, dma: DmaAddr, buf: &[u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .device_dma_write(self.domain, dma, buf)
            .map_err(|e| hv_to_errno(&e))
    }

    /// A DMA read performed by the *device* (IOMMU-translated).
    ///
    /// # Errors
    ///
    /// `EIO` on IOMMU faults.
    pub fn device_dma_read(&self, dma: DmaAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .device_dma_read(self.domain, dma, buf)
            .map_err(|e| hv_to_errno(&e))
    }

    /// Checks a device-memory access against the active aperture (§4.2).
    ///
    /// # Errors
    ///
    /// `EIO` outside the aperture (audited).
    pub fn check_aperture(&self, offset: u64, len: u64) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .check_aperture(self.domain, offset, len)
            .map_err(|e| hv_to_errno(&e))
    }

    /// The *device's* access to its own BAR-backed memory (VRAM): bypasses
    /// the driver VM's EPT (a device is not subject to the CPU's page
    /// tables). Aperture enforcement is the device model's job before
    /// calling this.
    ///
    /// # Errors
    ///
    /// `EFAULT` for unmapped BAR addresses.
    pub fn device_local_write(&self, gpa: GuestPhysAddr, buf: &[u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .gpa_write_privileged(self.vm, gpa, buf)
            .map_err(|e| hv_to_errno(&e))
    }

    /// Device-side read counterpart of [`KernelEnv::device_local_write`].
    ///
    /// # Errors
    ///
    /// `EFAULT` for unmapped BAR addresses.
    pub fn device_local_read(&self, gpa: GuestPhysAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .gpa_read_privileged(self.vm, gpa, buf)
            .map_err(|e| hv_to_errno(&e))
    }
}

/// The driver's CPU accesses, the driver side of a
/// [`paradice_devfs::memops::BufferMemOps`] two-sided copy.
impl DriverMemory for KernelEnv {
    fn read(&self, gpa: GuestPhysAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.kernel_read(gpa, buf)
    }

    fn write(&self, gpa: GuestPhysAddr, buf: &[u8]) -> Result<(), Errno> {
        self.kernel_write(gpa, buf)
    }
}

/// A pre-allocated pool of DMA-able driver pages.
///
/// The isolation patch set "allocate\[s\] a pool of pages for each memory
/// region and map\[s\] them in IOMMU in the initialization phase" for
/// efficiency (§5.3(i)); without isolation the same pool provides ordinary
/// DMA buffers (rings, frame buffers).
#[derive(Debug)]
pub struct DmaPool {
    pages: Vec<GuestPhysAddr>,
    next: usize,
}

impl DmaPool {
    /// Allocates `pages` kernel pages and maps each in the device's IOMMU at
    /// a DMA address equal to its driver-physical address (the natural
    /// layout when DMA space mirrors driver-physical space).
    ///
    /// # Errors
    ///
    /// `ENOMEM` or hypervisor refusal.
    pub fn new(
        env: &KernelEnv,
        pages: usize,
        access: Access,
        region: Option<RegionId>,
    ) -> Result<Self, Errno> {
        let mut pool = Vec::with_capacity(pages);
        for _ in 0..pages {
            let page = env.alloc_kernel_page()?;
            env.iommu_map(DmaAddr::new(page.raw()), page, access, region)?;
            pool.push(page);
        }
        Ok(DmaPool {
            pages: pool,
            next: 0,
        })
    }

    /// Takes the next unused page from the pool.
    ///
    /// # Errors
    ///
    /// `ENOMEM` when the pool is exhausted.
    pub fn take(&mut self) -> Result<GuestPhysAddr, Errno> {
        let page = self.pages.get(self.next).copied().ok_or(Errno::Enomem)?;
        self.next += 1;
        Ok(page)
    }

    /// Pages handed out so far.
    pub fn used(&self) -> usize {
        self.next
    }

    /// Total pool size.
    pub fn capacity(&self) -> usize {
        self.pages.len()
    }

    /// All pages in the pool (used and unused).
    pub fn pages(&self) -> &[GuestPhysAddr] {
        &self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SimClock};
    use paradice_mem::PAGE_SIZE;
    use std::cell::RefCell;

    fn setup(di: bool) -> Rc<KernelEnv> {
        let mut hv = Hypervisor::new(1024, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 64 * PAGE_SIZE).unwrap();
        let isolation = if di {
            DataIsolation::Enabled
        } else {
            DataIsolation::Disabled
        };
        let domain = hv.assign_device(vm, isolation).unwrap();
        KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, di)
    }

    #[test]
    fn kernel_page_allocation_and_rw() {
        let env = setup(false);
        let page = env.alloc_kernel_page().unwrap();
        env.kernel_write(page, b"ring").unwrap();
        let mut buf = [0u8; 4];
        env.kernel_read(page, &mut buf).unwrap();
        assert_eq!(&buf, b"ring");
    }

    #[test]
    fn thread_mark_roundtrip() {
        let env = setup(false);
        assert_eq!(env.current_guest(), None);
        env.set_current_guest(Some(VmId(3)));
        assert_eq!(env.current_guest(), Some(VmId(3)));
        env.set_current_guest(None);
        assert_eq!(env.current_guest(), None);
    }

    #[test]
    fn dma_pool_without_isolation() {
        let env = setup(false);
        let mut pool = DmaPool::new(&env, 4, Access::RW, None).unwrap();
        assert_eq!(pool.capacity(), 4);
        let a = pool.take().unwrap();
        let b = pool.take().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.used(), 2);
    }

    #[test]
    fn dma_pool_with_isolation_requires_region() {
        let env = setup(true);
        // Without a region tag the hypervisor refuses (EIO path).
        assert!(DmaPool::new(&env, 1, Access::RW, None).is_err());
        // With a region it succeeds, and the pages become unreadable to the
        // driver VM.
        let guest = {
            let mut hv = env.hv().borrow_mut();
            hv.create_vm(VmRole::Guest, 4 * PAGE_SIZE).unwrap()
        };
        let region = {
            let mut hv = env.hv().borrow_mut();
            hv.hc_create_region(env.vm(), env.domain(), guest, None)
                .unwrap()
        };
        let pool = DmaPool::new(&env, 2, Access::RW, Some(region)).unwrap();
        let page = pool.pages()[0];
        let mut buf = [0u8; 1];
        assert_eq!(env.kernel_read(page, &mut buf), Err(Errno::Efault));
    }

    #[test]
    fn pool_exhaustion() {
        let env = setup(false);
        let mut pool = DmaPool::new(&env, 1, Access::RW, None).unwrap();
        pool.take().unwrap();
        assert_eq!(pool.take(), Err(Errno::Enomem));
    }

    #[test]
    fn clock_helpers() {
        let env = setup(false);
        let t0 = env.now_ns();
        env.hv().borrow().clock().advance(500);
        assert_eq!(env.now_ns(), t0 + 500);
    }
}
