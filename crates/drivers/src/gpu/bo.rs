//! GEM buffer objects and the VRAM allocator.
//!
//! Applications move data to the GPU through *buffer objects* in either
//! VRAM (render targets, textures) or GTT — system memory pages the GPU
//! reaches through DMA. "Applications only use mmap to move graphics
//! textures and GPGPU input data to the device" (§4.2), which is why
//! Paradice's data-isolation policy protects exactly the mmap'd buffers:
//! VRAM objects live inside the guest's device-memory region and GTT
//! objects come from the guest's protected page pool.

use std::collections::BTreeMap;
use std::fmt;

use paradice_devfs::fileops::TaskId;
use paradice_devfs::Errno;
use paradice_mem::{GuestPhysAddr, PAGE_SIZE};

/// Where a buffer object lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoDomain {
    /// Device memory: `[offset, offset + len)` of VRAM.
    Vram {
        /// Byte offset into VRAM.
        offset: u64,
    },
    /// GTT: driver system-memory pages the device DMAs to.
    Gtt {
        /// Backing pages (driver-physical).
        pages: Vec<GuestPhysAddr>,
    },
}

/// One GEM buffer object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferObject {
    /// GEM handle.
    pub handle: u32,
    /// Size in bytes (page-aligned allocation).
    pub size: u64,
    /// Placement.
    pub domain: BoDomain,
    /// The task that created it.
    pub owner: TaskId,
    /// Whether mappings of this object populate lazily through the page
    /// fault handler instead of eagerly at `mmap` time (§2.1).
    pub lazy: bool,
}

impl BufferObject {
    /// Number of whole pages backing the object.
    pub fn pages(&self) -> u64 {
        self.size.div_ceil(PAGE_SIZE)
    }
}

/// Bytes of staging capacity a driver keeps between transfers: one larger
/// transfer must not pin its size in the driver for good.
pub(crate) const STAGING_RETAIN: usize = 1 << 20;

/// The one buffer a GPU driver stages `GEM_PWRITE`/`GEM_PREAD` payloads
/// through. It keeps its capacity from transfer to transfer, up to
/// [`STAGING_RETAIN`], and is not zero-filled: a transfer overwrites every
/// byte it stages — by `copy_from_user` or `kernel_read` — before it reads
/// any.
#[derive(Debug, Default)]
pub(crate) struct Staging(Vec<u8>);

impl Staging {
    /// Lends the buffer out, at least `len` bytes long, holding whatever an
    /// earlier transfer left in it.
    pub(crate) fn lend(&mut self, len: usize) -> Vec<u8> {
        let mut buf = std::mem::take(&mut self.0);
        if buf.len() < len {
            buf.resize(len, 0);
        }
        buf
    }

    /// Takes the buffer back, unless it outgrew [`STAGING_RETAIN`].
    pub(crate) fn give_back(&mut self, buf: Vec<u8>) {
        if buf.capacity() <= STAGING_RETAIN {
            self.0 = buf;
        }
    }
}

/// A first-fit free-list allocator over a VRAM range.
///
/// Under data isolation each guest's region gets its own allocator over its
/// slice of VRAM; without isolation one allocator spans the whole memory.
pub struct VramAllocator {
    range_lo: u64,
    range_hi: u64,
    /// Sorted, coalesced free extents `(offset, len)`.
    free: Vec<(u64, u64)>,
    allocated: BTreeMap<u64, u64>,
}

impl fmt::Debug for VramAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VramAllocator")
            .field("range", &(self.range_lo..self.range_hi))
            .field("free_extents", &self.free.len())
            .field("live_allocations", &self.allocated.len())
            .finish()
    }
}

impl VramAllocator {
    /// Creates an allocator over `[lo, hi)` of VRAM.
    ///
    /// # Panics
    ///
    /// Panics if the range is inverted — a configuration bug.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "inverted VRAM range");
        VramAllocator {
            range_lo: lo,
            range_hi: hi,
            free: vec![(lo, hi - lo)],
            allocated: BTreeMap::new(),
        }
    }

    /// The managed range.
    pub fn range(&self) -> (u64, u64) {
        (self.range_lo, self.range_hi)
    }

    /// Bytes currently free.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|&(_, len)| len).sum()
    }

    /// Allocates `size` bytes (rounded up to pages), first-fit.
    ///
    /// # Errors
    ///
    /// `ENOMEM` when no extent fits — the paper notes that partitioning
    /// VRAM between regions "can affect the performance of guest
    /// applications that require more memory than their share" (§4.2); this
    /// is where that bites.
    pub fn alloc(&mut self, size: u64) -> Result<u64, Errno> {
        let size = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if size == 0 {
            return Err(Errno::Einval);
        }
        for i in 0..self.free.len() {
            let (offset, len) = self.free[i];
            if len >= size {
                if len == size {
                    self.free.remove(i);
                } else {
                    self.free[i] = (offset + size, len - size);
                }
                self.allocated.insert(offset, size);
                return Ok(offset);
            }
        }
        Err(Errno::Enomem)
    }

    /// Frees the allocation at `offset`, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// `EINVAL` for unknown offsets.
    pub fn free(&mut self, offset: u64) -> Result<(), Errno> {
        let len = self.allocated.remove(&offset).ok_or(Errno::Einval)?;
        let pos = self
            .free
            .binary_search_by_key(&offset, |&(o, _)| o)
            .unwrap_err();
        self.free.insert(pos, (offset, len));
        // Coalesce around `pos`.
        if pos + 1 < self.free.len() {
            let (next_off, next_len) = self.free[pos + 1];
            let (cur_off, cur_len) = self.free[pos];
            if cur_off + cur_len == next_off {
                self.free[pos] = (cur_off, cur_len + next_len);
                self.free.remove(pos + 1);
            }
        }
        if pos > 0 {
            let (prev_off, prev_len) = self.free[pos - 1];
            let (cur_off, cur_len) = self.free[pos];
            if prev_off + prev_len == cur_off {
                self.free[pos - 1] = (prev_off, prev_len + cur_len);
                self.free.remove(pos);
            }
        }
        Ok(())
    }

    /// Whether `[offset, offset+len)` lies inside this allocator's range.
    pub fn contains(&self, offset: u64, len: u64) -> bool {
        offset >= self.range_lo && offset.saturating_add(len) <= self.range_hi
    }
}

#[cfg(test)]
impl Staging {
    /// Bytes kept for the next transfer.
    pub(crate) fn retained(&self) -> usize {
        self.0.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut vram = VramAllocator::new(0, 64 * PAGE_SIZE);
        let a = vram.alloc(PAGE_SIZE).unwrap();
        let b = vram.alloc(3 * PAGE_SIZE).unwrap();
        assert_ne!(a, b);
        assert_eq!(vram.free_bytes(), 60 * PAGE_SIZE);
        vram.free(a).unwrap();
        vram.free(b).unwrap();
        assert_eq!(vram.free_bytes(), 64 * PAGE_SIZE);
        // Fully coalesced: one extent again.
        assert_eq!(vram.free.len(), 1);
    }

    #[test]
    fn sizes_round_to_pages() {
        let mut vram = VramAllocator::new(0, 4 * PAGE_SIZE);
        let a = vram.alloc(1).unwrap();
        assert_eq!(vram.free_bytes(), 3 * PAGE_SIZE);
        vram.free(a).unwrap();
    }

    #[test]
    fn exhaustion_is_enomem() {
        let mut vram = VramAllocator::new(0, 2 * PAGE_SIZE);
        vram.alloc(PAGE_SIZE).unwrap();
        vram.alloc(PAGE_SIZE).unwrap();
        assert_eq!(vram.alloc(PAGE_SIZE), Err(Errno::Enomem));
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut vram = VramAllocator::new(0, 8 * PAGE_SIZE);
        let a = vram.alloc(2 * PAGE_SIZE).unwrap();
        let b = vram.alloc(2 * PAGE_SIZE).unwrap();
        let c = vram.alloc(2 * PAGE_SIZE).unwrap();
        vram.free(b).unwrap();
        // A 4-page allocation must not fit in the 2-page hole…
        assert!(vram.alloc(4 * PAGE_SIZE).is_err());
        // …until the hole coalesces with its neighbour.
        vram.free(c).unwrap();
        let d = vram.alloc(4 * PAGE_SIZE).unwrap();
        assert_eq!(d, b);
        vram.free(a).unwrap();
        vram.free(d).unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let mut vram = VramAllocator::new(0, 4 * PAGE_SIZE);
        let a = vram.alloc(PAGE_SIZE).unwrap();
        vram.free(a).unwrap();
        assert_eq!(vram.free(a), Err(Errno::Einval));
    }

    #[test]
    fn regioned_allocator_respects_bounds() {
        // A region covering the upper half of an 8-page VRAM.
        let mut region = VramAllocator::new(4 * PAGE_SIZE, 8 * PAGE_SIZE);
        let offset = region.alloc(PAGE_SIZE).unwrap();
        assert!(offset >= 4 * PAGE_SIZE);
        assert!(region.contains(offset, PAGE_SIZE));
        assert!(!region.contains(0, PAGE_SIZE));
    }

    #[test]
    fn zero_sized_alloc_rejected() {
        let mut vram = VramAllocator::new(0, PAGE_SIZE);
        assert_eq!(vram.alloc(0), Err(Errno::Einval));
    }

    #[test]
    fn buffer_object_pages() {
        let bo = BufferObject {
            handle: 1,
            size: PAGE_SIZE + 1,
            domain: BoDomain::Vram { offset: 0 },
            owner: TaskId(1),
            lazy: false,
        };
        assert_eq!(bo.pages(), 2);
    }
}
