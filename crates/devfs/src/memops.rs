//! Driver memory operations on process memory — the wrapper-stub seam.
//!
//! When servicing a file operation, a driver performs two kinds of memory
//! operations on the calling process (paper §2.1): *copying* a kernel buffer
//! to/from process memory (`copy_to_user`/`copy_from_user`) and *mapping* a
//! system or device page into the process address space (`vm_insert_pfn` and
//! friends, used by `mmap` and its page-fault handler).
//!
//! Paradice supports **unmodified drivers** by intercepting exactly these
//! kernel functions with wrapper stubs and redirecting them to the hypervisor
//! when the current thread is executing a guest's file operation (paper §3.1,
//! §5.2 — 13 wrapped Linux kernel functions). Our equivalent of that seam is
//! the [`MemOps`] trait: drivers only ever touch process memory through it.
//!
//! * In **native** and **device-assignment** modes it is bound to the local
//!   process address space (plain memory access).
//! * In **Paradice** mode the CVD backend binds it to hypercalls, where every
//!   operation is validated against the grants declared by the frontend
//!   (§4.1) before it executes.
//!
//! A bulk transfer between process memory and a contiguous range of the
//! driver's own memory (a `GEM_PWRITE` into the BAR) crosses in one copy:
//! [`MemOps::copy_from_user_to_phys`] and [`MemOps::copy_to_user_from_phys`]
//! name the driver-physical range instead of a kernel buffer, and the
//! hypervisor copies between the two with no staging copy in the driver.

use std::fmt;
use std::rc::Rc;

use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr};

use crate::errno::Errno;

/// Process-memory operations available to a driver while it services a file
/// operation.
///
/// The physical frame numbers passed to [`MemOps::insert_pfn`] are in the
/// *caller's* physical address space: host-physical in native mode,
/// driver-VM-physical under Paradice (the hypervisor translates).
pub trait MemOps {
    /// Copies `buf.len()` bytes from process memory at `src` into `buf`.
    ///
    /// # Errors
    ///
    /// `EFAULT` if `src` is unmapped, or (under Paradice) if the operation
    /// was not declared in the grant table.
    fn copy_from_user(&mut self, src: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno>;

    /// Copies `buf` into process memory at `dst`.
    ///
    /// # Errors
    ///
    /// `EFAULT` if `dst` is unmapped or the operation is ungranted.
    fn copy_to_user(&mut self, dst: GuestVirtAddr, buf: &[u8]) -> Result<(), Errno>;

    /// Copies `len` bytes from process memory at `src` straight into the
    /// driver's own memory at caller-physical `dst` — a `copy_from_user`
    /// whose destination is a mapped BAR range. The destination is checked
    /// as the driver's own CPU write would be.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_from_user`], and `EFAULT` if the driver may not
    /// write `dst`. A refused copy moves no byte.
    fn copy_from_user_to_phys(
        &mut self,
        src: GuestVirtAddr,
        dst: GuestPhysAddr,
        len: u64,
    ) -> Result<(), Errno>;

    /// Copies `len` bytes of the driver's own memory at caller-physical
    /// `src` straight into process memory at `dst`; issued when called,
    /// never deferred, since the driver could change `src` afterwards.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_to_user`], and `EFAULT` if the driver may not read
    /// `src`. A refused copy moves no byte.
    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: GuestPhysAddr,
        len: u64,
    ) -> Result<(), Errno>;

    /// Maps the caller-physical frame `pfn` into the process address space at
    /// `va` — the `vm_insert_pfn` wrapper stub.
    ///
    /// # Errors
    ///
    /// `EFAULT` if the mapping is ungranted or the page tables cannot be
    /// fixed; `EINVAL` for a misaligned `va`.
    fn insert_pfn(&mut self, va: GuestVirtAddr, pfn: u64, access: Access) -> Result<(), Errno>;

    /// Removes a mapping previously installed with [`MemOps::insert_pfn`] —
    /// the `zap_vma_ptes` wrapper stub.
    ///
    /// # Errors
    ///
    /// `EFAULT` if the teardown fails.
    fn zap_pfn(&mut self, va: GuestVirtAddr) -> Result<(), Errno>;

    /// Lands every operation the binding deferred. The dispatcher calls it
    /// once the file operation returns, before the result is answered; a
    /// binding that defers nothing has nothing to flush.
    ///
    /// # Errors
    ///
    /// `EFAULT` if a deferred operation is refused (then none is applied).
    fn flush(&mut self) -> Result<(), Errno> {
        Ok(())
    }

    /// Convenience: copies a little-endian `u64` from process memory.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_from_user`].
    fn read_user_u64(&mut self, src: GuestVirtAddr) -> Result<u64, Errno> {
        let mut buf = [0u8; 8];
        self.copy_from_user(src, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Convenience: copies a little-endian `u64` into process memory.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_to_user`].
    fn write_user_u64(&mut self, dst: GuestVirtAddr, value: u64) -> Result<(), Errno> {
        self.copy_to_user(dst, &value.to_le_bytes())
    }

    /// Convenience: copies a little-endian `u32` from process memory.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_from_user`].
    fn read_user_u32(&mut self, src: GuestVirtAddr) -> Result<u32, Errno> {
        let mut buf = [0u8; 4];
        self.copy_from_user(src, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Convenience: copies a little-endian `u32` into process memory.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_to_user`].
    fn write_user_u32(&mut self, dst: GuestVirtAddr, value: u32) -> Result<(), Errno> {
        self.copy_to_user(dst, &value.to_le_bytes())
    }
}

/// The driver's own memory as its CPU reaches it, at driver-physical
/// addresses: the other side of a [`BufferMemOps`] two-sided copy.
pub trait DriverMemory: fmt::Debug {
    /// Reads `buf.len()` bytes at `gpa`.
    ///
    /// # Errors
    ///
    /// `EFAULT` where the driver may not read; then `buf` is untouched.
    fn read(&self, gpa: GuestPhysAddr, buf: &mut [u8]) -> Result<(), Errno>;

    /// Writes `buf` at `gpa`.
    ///
    /// # Errors
    ///
    /// `EFAULT` where the driver may not write; then nothing is written.
    fn write(&self, gpa: GuestPhysAddr, buf: &[u8]) -> Result<(), Errno>;
}

/// A flat-buffer [`MemOps`] for driver unit tests: "process memory" is a
/// plain byte vector starting at virtual address 0, and `insert_pfn` records
/// the mappings it was asked for. It is also the reference for the
/// two-sided copies: with [`BufferMemOps::with_driver_memory`], each one
/// goes through the driver's own memory accesses — the path a driver took
/// before the hypervisor copied for it; without, it fails with `EFAULT`.
///
/// # Example
///
/// ```
/// use paradice_devfs::memops::{BufferMemOps, MemOps};
/// use paradice_mem::GuestVirtAddr;
///
/// # fn main() -> Result<(), paradice_devfs::Errno> {
/// let mut mem = BufferMemOps::new(4096);
/// mem.write_user_u64(GuestVirtAddr::new(16), 7)?;
/// assert_eq!(mem.read_user_u64(GuestVirtAddr::new(16))?, 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct BufferMemOps {
    bytes: Vec<u8>,
    mappings: Vec<(GuestVirtAddr, u64, Access)>,
    driver: Option<Rc<dyn DriverMemory>>,
}

impl BufferMemOps {
    /// Creates a buffer-backed process space of `len` bytes.
    pub fn new(len: usize) -> Self {
        BufferMemOps {
            bytes: vec![0u8; len],
            mappings: Vec::new(),
            driver: None,
        }
    }

    /// Reaches the driver's own memory through `driver` for the two-sided
    /// copies.
    pub fn with_driver_memory(mut self, driver: Rc<dyn DriverMemory>) -> Self {
        self.driver = Some(driver);
        self
    }

    /// The `insert_pfn` calls recorded so far, in order.
    pub fn mappings(&self) -> &[(GuestVirtAddr, u64, Access)] {
        &self.mappings
    }

    /// Direct access to the underlying bytes (test assertions).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    fn range(&self, addr: GuestVirtAddr, len: usize) -> Result<std::ops::Range<usize>, Errno> {
        let start = addr.raw() as usize;
        let end = start.checked_add(len).ok_or(Errno::Efault)?;
        if end > self.bytes.len() {
            return Err(Errno::Efault);
        }
        Ok(start..end)
    }

    /// The process range of a two-sided copy, and the driver memory on its
    /// other side.
    fn two_sided(
        &self,
        addr: GuestVirtAddr,
        len: u64,
    ) -> Result<(std::ops::Range<usize>, Rc<dyn DriverMemory>), Errno> {
        let len = usize::try_from(len).map_err(|_| Errno::Efault)?;
        let driver = self.driver.clone().ok_or(Errno::Efault)?;
        Ok((self.range(addr, len)?, driver))
    }
}

impl MemOps for BufferMemOps {
    fn copy_from_user(&mut self, src: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno> {
        let range = self.range(src, buf.len())?;
        buf.copy_from_slice(&self.bytes[range]);
        Ok(())
    }

    fn copy_to_user(&mut self, dst: GuestVirtAddr, buf: &[u8]) -> Result<(), Errno> {
        let range = self.range(dst, buf.len())?;
        self.bytes[range].copy_from_slice(buf);
        Ok(())
    }

    fn copy_from_user_to_phys(
        &mut self,
        src: GuestVirtAddr,
        dst: GuestPhysAddr,
        len: u64,
    ) -> Result<(), Errno> {
        let (range, driver) = self.two_sided(src, len)?;
        driver.write(dst, &self.bytes[range])
    }

    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: GuestPhysAddr,
        len: u64,
    ) -> Result<(), Errno> {
        let (range, driver) = self.two_sided(dst, len)?;
        driver.read(src, &mut self.bytes[range])
    }

    fn insert_pfn(&mut self, va: GuestVirtAddr, pfn: u64, access: Access) -> Result<(), Errno> {
        if !va.is_page_aligned() {
            return Err(Errno::Einval);
        }
        self.mappings.push((va, pfn, access));
        Ok(())
    }

    fn zap_pfn(&mut self, va: GuestVirtAddr) -> Result<(), Errno> {
        let before = self.mappings.len();
        self.mappings.retain(|&(mapped, _, _)| mapped != va);
        if self.mappings.len() == before {
            return Err(Errno::Efault);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_roundtrip() {
        let mut mem = BufferMemOps::new(128);
        mem.copy_to_user(GuestVirtAddr::new(10), b"abc").unwrap();
        let mut buf = [0u8; 3];
        mem.copy_from_user(GuestVirtAddr::new(10), &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn out_of_range_is_efault() {
        let mut mem = BufferMemOps::new(16);
        assert_eq!(
            mem.copy_to_user(GuestVirtAddr::new(15), &[0, 0]),
            Err(Errno::Efault)
        );
        let mut buf = [0u8; 1];
        assert_eq!(
            mem.copy_from_user(GuestVirtAddr::new(16), &mut buf),
            Err(Errno::Efault)
        );
    }

    #[test]
    fn scalar_helpers() {
        let mut mem = BufferMemOps::new(64);
        mem.write_user_u32(GuestVirtAddr::new(0), 0x1234_5678).unwrap();
        assert_eq!(mem.read_user_u32(GuestVirtAddr::new(0)).unwrap(), 0x1234_5678);
        mem.write_user_u64(GuestVirtAddr::new(8), u64::MAX).unwrap();
        assert_eq!(mem.read_user_u64(GuestVirtAddr::new(8)).unwrap(), u64::MAX);
    }

    #[test]
    fn insert_and_zap_pfn() {
        let mut mem = BufferMemOps::new(0);
        let va = GuestVirtAddr::new(0x1000);
        mem.insert_pfn(va, 42, Access::RW).unwrap();
        assert_eq!(mem.mappings(), &[(va, 42, Access::RW)]);
        mem.zap_pfn(va).unwrap();
        assert!(mem.mappings().is_empty());
        assert_eq!(mem.zap_pfn(va), Err(Errno::Efault));
    }

    /// Driver memory over a flat vector, refusing the top page as a
    /// protected one.
    #[derive(Debug)]
    struct FlatDriver(std::cell::RefCell<Vec<u8>>);

    impl FlatDriver {
        fn range(&self, gpa: GuestPhysAddr, len: usize) -> Result<std::ops::Range<usize>, Errno> {
            let start = gpa.raw() as usize;
            let writable = self.0.borrow().len() - 4096;
            (start + len <= writable)
                .then_some(start..start + len)
                .ok_or(Errno::Efault)
        }
    }

    impl DriverMemory for FlatDriver {
        fn read(&self, gpa: GuestPhysAddr, buf: &mut [u8]) -> Result<(), Errno> {
            buf.copy_from_slice(&self.0.borrow()[self.range(gpa, buf.len())?]);
            Ok(())
        }

        fn write(&self, gpa: GuestPhysAddr, buf: &[u8]) -> Result<(), Errno> {
            let range = self.range(gpa, buf.len())?;
            self.0.borrow_mut()[range].copy_from_slice(buf);
            Ok(())
        }
    }

    #[test]
    fn two_sided_copies_go_through_driver_memory() {
        let driver = Rc::new(FlatDriver(std::cell::RefCell::new(vec![0u8; 8192])));
        let mut mem = BufferMemOps::new(64);
        let (va, gpa) = (GuestVirtAddr::new(8), GuestPhysAddr::new(100));
        assert_eq!(mem.copy_from_user_to_phys(va, gpa, 4), Err(Errno::Efault), "no driver memory");
        let mut mem = mem.with_driver_memory(driver.clone());
        mem.copy_to_user(va, b"bulk").unwrap();
        mem.copy_from_user_to_phys(va, gpa, 4).unwrap();
        assert_eq!(&driver.0.borrow()[100..104], b"bulk");
        mem.copy_to_user_from_phys(GuestVirtAddr::new(32), gpa, 4).unwrap();
        assert_eq!(&mem.bytes()[32..36], b"bulk");
        // A refused side moves no byte.
        assert_eq!(
            mem.copy_to_user_from_phys(GuestVirtAddr::new(62), gpa, 4),
            Err(Errno::Efault)
        );
        let protected = GuestPhysAddr::new(4094);
        assert_eq!(mem.copy_to_user_from_phys(va, protected, 4), Err(Errno::Efault));
        assert_eq!(mem.copy_from_user_to_phys(va, protected, 4), Err(Errno::Efault));
        assert_eq!(&mem.bytes()[8..12], b"bulk");
        assert_eq!(&driver.0.borrow()[4094..4096], &[0, 0]);
    }

    #[test]
    fn misaligned_insert_rejected() {
        let mut mem = BufferMemOps::new(0);
        assert_eq!(
            mem.insert_pfn(GuestVirtAddr::new(0x1001), 1, Access::READ),
            Err(Errno::Einval)
        );
    }
}
