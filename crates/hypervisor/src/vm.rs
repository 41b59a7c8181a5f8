//! Virtual machine containers.
//!
//! Each [`Vm`] owns its guest-physical RAM (frames in system memory mapped by
//! an EPT), a simple kernel page allocator (page tables and kernel buffers
//! are carved from the top of RAM), and the unused-GPA window the hypervisor
//! draws from when it services `mmap` (paper §5.2).

use std::fmt;

use paradice_mem::layout::GpaAllocator;
use paradice_mem::{Access, Ept, GuestPhysAddr, PAGE_SIZE};

/// Identifies a VM within the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// The role a VM plays in the Paradice topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VmRole {
    /// A guest VM running applications.
    Guest,
    /// The driver VM: hosts the device driver and the assigned device.
    /// Untrusted — a malicious guest may compromise it through the device
    /// file interface (paper §4).
    Driver,
}

/// One virtual machine.
pub struct Vm {
    id: VmId,
    role: VmRole,
    ram_pages: u64,
    ept: Ept,
    /// Kernel page allocator: page-table pages and kernel buffers are carved
    /// from the top of RAM downward.
    next_kernel_page: u64,
    /// Window of unused guest-physical pages for hypervisor `mmap` fix-ups.
    gpa_window: GpaAllocator,
    /// Whether the VM has been marked compromised by the attack harness
    /// (affects nothing mechanically — isolation must hold regardless — but
    /// lets tests assert the *assumed* threat model).
    compromised: bool,
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("id", &self.id)
            .field("role", &self.role)
            .field("ram_pages", &self.ram_pages)
            .field("ept_pages", &self.ept.len())
            .field("compromised", &self.compromised)
            .finish()
    }
}

/// Size of the unused-GPA window reserved above each VM's RAM for `mmap`
/// fix-ups (64 MiB of page addresses — addresses only, no frames).
pub const GPA_WINDOW_BYTES: u64 = 64 * 1024 * 1024;

impl Vm {
    /// Creates a VM shell; the hypervisor populates its EPT with RAM frames.
    pub(crate) fn new(id: VmId, role: VmRole, ram_bytes: u64) -> Self {
        let ram_pages = ram_bytes / PAGE_SIZE;
        Vm {
            id,
            role,
            ram_pages,
            ept: Ept::new(),
            next_kernel_page: ram_pages,
            gpa_window: GpaAllocator::new(ram_pages * PAGE_SIZE, GPA_WINDOW_BYTES),
            compromised: false,
        }
    }

    /// The VM's role.
    pub fn role(&self) -> VmRole {
        self.role
    }

    /// RAM size in pages.
    pub fn ram_pages(&self) -> u64 {
        self.ram_pages
    }

    /// The VM's extended page table.
    pub fn ept(&self) -> &Ept {
        &self.ept
    }

    /// Mutable access to the EPT (hypervisor-internal).
    pub(crate) fn ept_mut(&mut self) -> &mut Ept {
        &mut self.ept
    }

    /// The unused-GPA window allocator (hypervisor-internal).
    pub(crate) fn gpa_window_mut(&mut self) -> &mut GpaAllocator {
        &mut self.gpa_window
    }

    /// Allocates one kernel page (guest-physical) from the top of RAM.
    ///
    /// Returns `None` when kernel memory collides with the bottom of RAM —
    /// the guest is out of memory.
    pub fn alloc_kernel_page(&mut self) -> Option<GuestPhysAddr> {
        if self.next_kernel_page == 0 {
            return None;
        }
        self.next_kernel_page -= 1;
        Some(GuestPhysAddr::new(self.next_kernel_page * PAGE_SIZE))
    }

    /// Marks the VM compromised (attack harness bookkeeping).
    pub fn mark_compromised(&mut self) {
        self.compromised = true;
    }

    /// Whether the attack harness marked this VM compromised.
    pub fn is_compromised(&self) -> bool {
        self.compromised
    }

    /// Verifies that `gpa` lies within the VM's RAM.
    pub fn owns_gpa(&self, gpa: GuestPhysAddr) -> bool {
        gpa.page_number() < self.ram_pages
    }

    /// Default access for RAM mappings.
    pub(crate) fn ram_access() -> Access {
        Access::RWX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_pages_come_from_top_of_ram() {
        let mut vm = Vm::new(VmId(0), VmRole::Guest, 16 * PAGE_SIZE);
        let a = vm.alloc_kernel_page().unwrap();
        let b = vm.alloc_kernel_page().unwrap();
        assert_eq!(a.page_number(), 15);
        assert_eq!(b.page_number(), 14);
    }

    #[test]
    fn kernel_allocator_exhausts() {
        let mut vm = Vm::new(VmId(0), VmRole::Guest, 2 * PAGE_SIZE);
        assert!(vm.alloc_kernel_page().is_some());
        assert!(vm.alloc_kernel_page().is_some());
        assert!(vm.alloc_kernel_page().is_none());
    }

    #[test]
    fn gpa_ownership() {
        let vm = Vm::new(VmId(1), VmRole::Driver, 4 * PAGE_SIZE);
        assert!(vm.owns_gpa(GuestPhysAddr::new(3 * PAGE_SIZE)));
        assert!(!vm.owns_gpa(GuestPhysAddr::new(4 * PAGE_SIZE)));
        assert_eq!(vm.role(), VmRole::Driver);
    }

    #[test]
    fn compromise_flag() {
        let mut vm = Vm::new(VmId(2), VmRole::Driver, PAGE_SIZE);
        assert!(!vm.is_compromised());
        vm.mark_compromised();
        assert!(vm.is_compromised());
    }
}
