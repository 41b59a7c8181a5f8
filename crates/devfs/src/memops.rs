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
//! A bulk transfer between process memory and the driver's own memory (a
//! `GEM_PWRITE` into a buffer object) crosses in one copy:
//! [`MemOps::copy_from_user_to_phys`] and [`MemOps::copy_to_user_from_phys`]
//! name the driver's side as a [`DriverSpan`] instead of a kernel buffer,
//! and the hypervisor copies between the two with no staging copy in the
//! driver.

use std::fmt;
use std::rc::Rc;

use paradice_mem::addr::page_chunks;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

use crate::errno::Errno;

/// The driver's side of a two-sided copy, in driver-physical addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverSpan<'a> {
    /// A contiguous range from this address: a VRAM object behind the BAR.
    Contiguous(GuestPhysAddr),
    /// A GTT object: its backing pages, from byte `offset` of the first.
    Pages {
        /// The object's pages, in order.
        pages: &'a [GuestPhysAddr],
        /// Byte offset into the object.
        offset: u64,
    },
}

impl<'a> DriverSpan<'a> {
    /// The `(driver-physical address, length)` chunks of the span's first
    /// `len` bytes, each inside one page; `None` if the span ends first:
    /// past the top of the address space or past its last page.
    pub fn chunks(self, len: u64) -> Option<impl Iterator<Item = (GuestPhysAddr, u64)> + 'a> {
        let start = match self {
            DriverSpan::Contiguous(base) => base.raw(),
            DriverSpan::Pages { pages, offset } => {
                let end = offset.checked_add(len)?;
                (end <= pages.len() as u64 * PAGE_SIZE).then_some(offset)?
            }
        };
        Some(page_chunks(start, len)?.map(move |(at, n)| match self {
            DriverSpan::Contiguous(_) => (GuestPhysAddr::new(at), n),
            DriverSpan::Pages { pages, .. } => {
                (pages[(at / PAGE_SIZE) as usize].add(at % PAGE_SIZE), n)
            }
        }))
    }

    /// The address the span starts from: the range's first byte, or the
    /// first page of the list (page 0 for an empty one).
    pub fn base(&self) -> GuestPhysAddr {
        match *self {
            DriverSpan::Contiguous(base) => base,
            DriverSpan::Pages { pages, .. } => {
                pages.first().copied().unwrap_or(GuestPhysAddr::new(0))
            }
        }
    }
}

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
    /// driver's own memory at `dst` (caller-physical) — a `copy_from_user`
    /// whose destination is a buffer object. Under Paradice a page of the
    /// calling guest's protected region is written by the hypervisor, never
    /// by the driver; any other page is checked as the driver's own CPU
    /// write would be.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_from_user`], and `EFAULT` (`EINVAL` for another
    /// guest's region page) if the driver may not write `dst`. A refused
    /// copy moves no byte.
    fn copy_from_user_to_phys(
        &mut self,
        src: GuestVirtAddr,
        dst: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno>;

    /// Copies `len` bytes of the driver's own memory at `src` straight into
    /// process memory at `dst`, `src` checked as
    /// [`MemOps::copy_from_user_to_phys`] checks its `dst`; issued when
    /// called, never deferred, since the driver could change `src`
    /// afterwards.
    ///
    /// # Errors
    ///
    /// As [`MemOps::copy_to_user`], and as
    /// [`MemOps::copy_from_user_to_phys`] for `src`. A refused copy moves no
    /// byte.
    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: DriverSpan<'_>,
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
/// goes through the driver's own memory accesses, one page chunk at a time
/// — the path a driver took before the hypervisor copied for it, so a
/// refused chunk leaves the chunks before it moved; without, it fails with
/// `EFAULT`.
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

    /// A two-sided copy of `len` bytes between the process at `addr` and
    /// the driver's memory at `span`: `chunk` moves each driver page chunk
    /// and its slice of the process bytes.
    fn two_sided(
        &mut self,
        addr: GuestVirtAddr,
        span: DriverSpan<'_>,
        len: u64,
        mut chunk: impl FnMut(&dyn DriverMemory, GuestPhysAddr, &mut [u8]) -> Result<(), Errno>,
    ) -> Result<(), Errno> {
        let driver = self.driver.clone().ok_or(Errno::Efault)?;
        let range = self.range(addr, usize::try_from(len).map_err(|_| Errno::Efault)?)?;
        let mut at = range.start;
        for (gpa, n) in span.chunks(len).ok_or(Errno::Efault)? {
            chunk(driver.as_ref(), gpa, &mut self.bytes[at..at + n as usize])?;
            at += n as usize;
        }
        Ok(())
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
        dst: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.two_sided(src, dst, len, |driver, gpa, bytes| driver.write(gpa, bytes))
    }

    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.two_sided(dst, src, len, |driver, gpa, bytes| driver.read(gpa, bytes))
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
        let (va, gpa) = (GuestVirtAddr::new(8), DriverSpan::Contiguous(GuestPhysAddr::new(100)));
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
        let protected = DriverSpan::Contiguous(GuestPhysAddr::new(4096));
        assert_eq!(mem.copy_to_user_from_phys(va, protected, 4), Err(Errno::Efault));
        assert_eq!(mem.copy_from_user_to_phys(va, protected, 4), Err(Errno::Efault));
        assert_eq!(&mem.bytes()[8..12], b"bulk");
        assert_eq!(&driver.0.borrow()[4096..4100], &[0; 4]);
        // A page list is walked in its own order, from its offset, and a
        // span shorter than the copy is refused.
        let pages = [GuestPhysAddr::new(0), GuestPhysAddr::new(0)];
        let split = DriverSpan::Pages { pages: &pages, offset: 4094 };
        mem.copy_from_user_to_phys(va, split, 4).unwrap();
        assert_eq!(&driver.0.borrow()[4094..4096], b"bu");
        assert_eq!(&driver.0.borrow()[0..2], b"lk");
        let short = DriverSpan::Pages { pages: &pages, offset: 2 * 4096 - 2 };
        assert_eq!(mem.copy_from_user_to_phys(va, short, 4), Err(Errno::Efault));
    }

    #[test]
    fn a_span_is_chunked_at_its_pages_and_ends_where_they_end() {
        let base = GuestPhysAddr::new(0x1ff0);
        let contiguous: Vec<_> = DriverSpan::Contiguous(base).chunks(0x20).unwrap().collect();
        assert_eq!(contiguous, [(base, 0x10), (GuestPhysAddr::new(0x2000), 0x10)]);
        assert!(DriverSpan::Contiguous(GuestPhysAddr::new(u64::MAX - 15)).chunks(17).is_none());
        let pages = [GuestPhysAddr::new(0x9000), GuestPhysAddr::new(0x3000)];
        let span = DriverSpan::Pages { pages: &pages, offset: 0xff8 };
        let chunks: Vec<_> = span.chunks(0x10).unwrap().collect();
        assert_eq!(chunks, [(GuestPhysAddr::new(0x9ff8), 8), (GuestPhysAddr::new(0x3000), 8)]);
        assert!(span.chunks(0x1009).is_none(), "one byte past the last page");
        assert_eq!(span.chunks(0x1008).unwrap().count(), 2);
        assert_eq!(span.base(), GuestPhysAddr::new(0x9000));
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
