//! The machine's physical memory: a frame arena plus a frame allocator.
//!
//! Everything that "exists in RAM" in the simulation — guest memory, guest
//! page tables, shared communication pages, netmap rings, DMA buffers — lives
//! in one [`SystemMemory`] instance, addressed by [`PhysAddr`]. The
//! hypervisor's copy API, the IOMMU-translated device DMA and the guest
//! page-table walker all bottom out here, exactly as all of them bottom out
//! in host DRAM on the real system.

use std::fmt;

use crate::addr::{page_chunks, Frame, PageChunks, PhysAddr, PAGE_SIZE};
use crate::pagemap::PAGE_LIMIT;

/// Errors reported by [`SystemMemory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemError {
    /// An access touched a frame that was never allocated.
    Unallocated {
        /// The physical address of the offending access.
        addr: PhysAddr,
    },
    /// An access ran past the end of physical memory.
    OutOfBounds {
        /// The physical address of the offending access.
        addr: PhysAddr,
    },
    /// The frame allocator has no free frames left.
    OutOfFrames,
    /// A frame was freed twice or freed without being allocated.
    BadFree {
        /// Base address of the offending frame.
        addr: PhysAddr,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unallocated { addr } => {
                write!(f, "access to unallocated physical frame at {addr}")
            }
            MemError::OutOfBounds { addr } => {
                write!(f, "physical access out of bounds at {addr}")
            }
            MemError::OutOfFrames => f.write_str("physical frame allocator exhausted"),
            MemError::BadFree { addr } => write!(f, "double or foreign free of frame {addr}"),
        }
    }
}

impl std::error::Error for MemError {}

/// The bytes of one frame.
type Page = [u8; PAGE_SIZE as usize];

/// State of one physical frame: 16 bytes, a tag and a thin pointer.
#[derive(Debug)]
enum FrameSlot {
    Free,
    /// Allocated and never written since: reads as [`ZERO_PAGE`] and holds
    /// no bytes of its own.
    Zero,
    /// Allocated and written.
    Backed(Box<Page>),
}

const _: () = assert!(std::mem::size_of::<FrameSlot>() <= 16);

/// What every allocated, never-written frame reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

impl FrameSlot {
    /// The bytes of an allocated frame; `None` when it is free.
    #[inline]
    fn bytes(&self) -> Option<&[u8]> {
        match self {
            FrameSlot::Backed(bytes) => Some(&bytes[..]),
            FrameSlot::Zero => Some(&ZERO_PAGE),
            FrameSlot::Free => None,
        }
    }

    /// The bytes of an allocated frame for writing, backing a never-written
    /// one with a zeroed page first (counted in `backed`); `None` when it is
    /// free.
    #[inline]
    fn bytes_mut(&mut self, backed: &mut usize) -> Option<&mut [u8]> {
        match self {
            FrameSlot::Backed(bytes) => Some(&mut bytes[..]),
            FrameSlot::Zero => Some(self.back(backed)),
            FrameSlot::Free => None,
        }
    }

    /// Gives a never-written frame a zeroed page of its own.
    #[cold]
    fn back(&mut self, backed: &mut usize) -> &mut [u8] {
        *backed += 1;
        // `vec!` of zeros asks the allocator for zeroed memory.
        let Ok(page) = vec![0u8; PAGE_SIZE as usize].into_boxed_slice().try_into() else {
            unreachable!("a vector of PAGE_SIZE bytes is a page")
        };
        *self = FrameSlot::Backed(page);
        match self {
            FrameSlot::Backed(bytes) => &mut bytes[..],
            _ => unreachable!("just backed"),
        }
    }
}

/// The simulated physical memory of the whole machine.
///
/// Frames are 4 KiB and allocated through [`SystemMemory::alloc_frame`]. An
/// allocated frame reads as zeros until first written; freeing drops its
/// bytes. So a frame holds memory only once something writes to it, and
/// stale guest data can never leak through reallocation, as in the paper's
/// hypervisor, which zeroes pages before unmapping them from an IOMMU region
/// (§5.3(i)).
///
/// # Example
///
/// ```
/// use paradice_mem::{SystemMemory, PhysAddr};
///
/// # fn main() -> Result<(), paradice_mem::MemError> {
/// let mut mem = SystemMemory::new(16);
/// let f = mem.alloc_frame()?;
/// assert_eq!(mem.read_u64(f.base())?, 0);
/// assert_eq!(mem.backed_frames(), 0);
/// mem.write_u64(f.base(), 0xdead_beef)?;
/// assert_eq!(mem.read_u64(f.base())?, 0xdead_beef);
/// assert_eq!(mem.backed_frames(), 1);
/// # Ok(())
/// # }
/// ```
pub struct SystemMemory {
    /// Every frame below the high-water mark, by number: frames at and
    /// above `frames.len()` have never been allocated.
    frames: Vec<FrameSlot>,
    total: usize,
    /// Freed frames below the high-water mark, the most recent on top.
    freed: Vec<u64>,
    allocated: usize,
    backed: usize,
}

impl fmt::Debug for SystemMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemMemory")
            .field("total_frames", &self.total)
            .field("allocated_frames", &self.allocated)
            .field("backed_frames", &self.backed)
            .finish()
    }
}

impl SystemMemory {
    /// Creates a machine memory of `total_frames` 4-KiB frames.
    ///
    /// # Panics
    ///
    /// Panics if the frames would reach 2^39 bytes: every frame lies inside
    /// the 39-bit address width of the EPT's and the IOMMU's entries, so
    /// either can map any frame.
    pub fn new(total_frames: usize) -> Self {
        assert!(
            total_frames as u64 <= PAGE_LIMIT,
            "{total_frames} frames reach past the 39-bit physical address width"
        );
        SystemMemory {
            frames: Vec::with_capacity(total_frames),
            total: total_frames,
            freed: Vec::new(),
            allocated: 0,
            backed: 0,
        }
    }

    /// Number of currently allocated frames.
    pub fn allocated_frames(&self) -> usize {
        self.allocated
    }

    /// Number of frames still available.
    pub fn free_frames(&self) -> usize {
        self.total - self.frames.len() + self.freed.len()
    }

    /// Number of allocated frames that hold bytes of their own: those
    /// written since they were allocated.
    pub fn backed_frames(&self) -> usize {
        self.backed
    }

    /// Allocates one frame, which reads as zeros: the most recently freed
    /// frame, else the lowest never-allocated one.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] when physical memory is exhausted.
    pub fn alloc_frame(&mut self) -> Result<Frame, MemError> {
        let number = match self.freed.pop() {
            Some(number) => {
                self.frames[number as usize] = FrameSlot::Zero;
                number
            }
            None if self.frames.len() < self.total => {
                self.frames.push(FrameSlot::Zero);
                self.frames.len() as u64 - 1
            }
            None => return Err(MemError::OutOfFrames),
        };
        self.allocated += 1;
        Ok(Frame::from_base(PhysAddr::new(number * PAGE_SIZE)))
    }

    /// Allocates a run of `n` frames, each reading as zeros, or none: the
    /// count is checked now, and each frame is allocated, in
    /// [`SystemMemory::alloc_frame`]'s order, as the run is read. A frame
    /// the run never yields stays free. Callers map the run into a page
    /// map without collecting it first.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfFrames`] if fewer than `n` frames remain; in
    /// that case no frames are allocated.
    pub fn alloc_frames(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = Frame> + '_, MemError> {
        if self.free_frames() < n {
            return Err(MemError::OutOfFrames);
        }
        Ok((0..n).map(|_| self.alloc_frame().expect("free frames counted up front")))
    }

    /// Frees a frame, dropping its bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::BadFree`] if the frame is not currently allocated.
    pub fn free_frame(&mut self, frame: Frame) -> Result<(), MemError> {
        let number = frame.number() as usize;
        match self.frames.get_mut(number) {
            Some(FrameSlot::Free) => Err(MemError::BadFree { addr: frame.base() }),
            Some(slot) => {
                if let FrameSlot::Backed(_) = slot {
                    self.backed -= 1;
                }
                *slot = FrameSlot::Free;
                self.freed.push(number as u64);
                self.allocated -= 1;
                Ok(())
            }
            None if number < self.total => Err(MemError::BadFree { addr: frame.base() }),
            None => Err(MemError::OutOfBounds { addr: frame.base() }),
        }
    }

    #[inline]
    fn frame_bytes(&self, addr: PhysAddr) -> Result<&[u8], MemError> {
        self.frames
            .get(addr.page_number() as usize)
            .and_then(FrameSlot::bytes)
            .ok_or_else(|| fault(addr, self.total))
    }

    /// The bytes of the frame holding `addr`, backed if they were not.
    #[inline]
    fn frame_bytes_mut(&mut self, addr: PhysAddr) -> Result<&mut [u8], MemError> {
        let total = self.total;
        self.frames
            .get_mut(addr.page_number() as usize)
            .and_then(|slot| slot.bytes_mut(&mut self.backed))
            .ok_or_else(|| fault(addr, total))
    }

    /// Reads `buf.len()` bytes starting at `addr`, crossing frame boundaries
    /// as needed.
    ///
    /// # Errors
    ///
    /// Fails if any touched frame is unallocated or out of bounds.
    pub fn read(&self, addr: PhysAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let mut done = 0usize;
        for (chunk_addr, len) in chunks(addr, buf.len() as u64)? {
            let frame = self.frame_bytes(chunk_addr)?;
            let off = chunk_addr.page_offset() as usize;
            buf[done..done + len as usize].copy_from_slice(&frame[off..off + len as usize]);
            done += len as usize;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, crossing frame boundaries as needed.
    ///
    /// # Errors
    ///
    /// Fails if any touched frame is unallocated or out of bounds.
    pub fn write(&mut self, addr: PhysAddr, buf: &[u8]) -> Result<(), MemError> {
        // Validate the whole range first so a failing write is all-or-nothing.
        for (chunk_addr, _) in chunks(addr, buf.len() as u64)? {
            self.frame_bytes(chunk_addr)?;
        }
        let mut done = 0usize;
        for (chunk_addr, len) in chunks(addr, buf.len() as u64)? {
            let frame = self.frame_bytes_mut(chunk_addr)?;
            let off = chunk_addr.page_offset() as usize;
            frame[off..off + len as usize].copy_from_slice(&buf[done..done + len as usize]);
            done += len as usize;
        }
        Ok(())
    }

    /// Reads `N` bytes at `addr`: in place when they lie inside one frame
    /// (every page-table entry), through [`SystemMemory::read`] when they
    /// straddle two.
    #[inline]
    fn read_array<const N: usize>(&self, addr: PhysAddr) -> Result<[u8; N], MemError> {
        let off = addr.page_offset() as usize;
        let mut bytes = [0u8; N];
        match self.frame_bytes(addr)?.get(off..off + N) {
            Some(inside) => bytes.copy_from_slice(inside),
            None => self.read(addr, &mut bytes)?,
        }
        Ok(bytes)
    }

    /// Writes `bytes` at `addr`: in place when they lie inside one frame,
    /// through [`SystemMemory::write`] (all or nothing, so a failing write
    /// backs neither frame) when they straddle two.
    #[inline]
    fn write_array<const N: usize>(
        &mut self,
        addr: PhysAddr,
        bytes: [u8; N],
    ) -> Result<(), MemError> {
        let off = addr.page_offset() as usize;
        if off + N <= PAGE_SIZE as usize {
            self.frame_bytes_mut(addr)?[off..off + N].copy_from_slice(&bytes);
        } else {
            self.write(addr, &bytes)?;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr` (page-table entries, ring
    /// pointers, registers-in-memory).
    ///
    /// # Errors
    ///
    /// Fails if the touched frames are unallocated or out of bounds.
    #[inline]
    pub fn read_u64(&self, addr: PhysAddr) -> Result<u64, MemError> {
        self.read_array(addr).map(u64::from_le_bytes)
    }

    /// Writes a little-endian `u64` at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the touched frames are unallocated or out of bounds.
    #[inline]
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) -> Result<(), MemError> {
        self.write_array(addr, value.to_le_bytes())
    }

    /// Reads a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the touched frames are unallocated or out of bounds.
    pub fn read_u32(&self, addr: PhysAddr) -> Result<u32, MemError> {
        self.read_array(addr).map(u32::from_le_bytes)
    }

    /// Writes a little-endian `u32` at `addr`.
    ///
    /// # Errors
    ///
    /// Fails if the touched frames are unallocated or out of bounds.
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) -> Result<(), MemError> {
        self.write_array(addr, value.to_le_bytes())
    }

    /// Copies bytes frame to frame with no buffer in between: `from` and
    /// `to` list the same number of bytes as `(address, length)` chunks,
    /// each inside one frame (callers split at page boundaries), and the
    /// bytes of `from` land in `to` in order. Two chunks in one frame may
    /// overlap.
    ///
    /// # Errors
    ///
    /// Fails, copying nothing, if a touched frame is unallocated or out of
    /// bounds, or a chunk leaves its frame.
    ///
    /// # Panics
    ///
    /// If the two lists hold different numbers of bytes.
    pub fn copy(
        &mut self,
        from: &[(PhysAddr, u64)],
        to: &[(PhysAddr, u64)],
    ) -> Result<(), MemError> {
        let bytes = |chunks: &[(PhysAddr, u64)]| chunks.iter().map(|&(_, n)| n).sum::<u64>();
        assert_eq!(bytes(from), bytes(to), "copy between ranges of different lengths");
        for &(addr, n) in from.iter().chain(to) {
            if n > PAGE_SIZE - addr.page_offset() {
                return Err(MemError::OutOfBounds { addr });
            }
            self.frame_bytes(addr)?;
        }
        let (mut from, mut to) = (from.iter().copied(), to.iter().copied());
        let (mut src, mut dst) = (from.next(), to.next());
        while let (Some((s, sn)), Some((d, dn))) = (src, dst) {
            let n = sn.min(dn);
            self.copy_in_frames(s, d, n as usize);
            src = if n < sn { Some((s.add(n), sn - n)) } else { from.next() };
            dst = if n < dn { Some((d.add(n), dn - n)) } else { to.next() };
        }
        Ok(())
    }

    /// Copies `n` bytes from `src` to `dst`, both checked to lie inside
    /// allocated frames. Bytes out of a never-written frame are zeros:
    /// moving them inside it, or into another never-written frame, changes
    /// nothing and backs nothing.
    fn copy_in_frames(&mut self, src: PhysAddr, dst: PhysAddr, n: usize) {
        let (from, to) = (src.page_offset() as usize, dst.page_offset() as usize);
        let frames = [src.page_number() as usize, dst.page_number() as usize];
        if frames[0] == frames[1] {
            if let Some(FrameSlot::Backed(frame)) = self.frames.get_mut(frames[0]) {
                frame.copy_within(from..from + n, to);
            }
            return;
        }
        let Ok([s, d]) = self.frames.get_disjoint_mut(frames) else {
            return;
        };
        let bytes = match s {
            FrameSlot::Backed(s) => &s[from..from + n],
            _ if matches!(d, FrameSlot::Zero) => return,
            _ => &ZERO_PAGE[..n],
        };
        if let Some(d) = d.bytes_mut(&mut self.backed) {
            d[to..to + n].copy_from_slice(bytes);
        }
    }
}

/// Why the frame holding `addr` cannot be accessed, in a memory of `total`
/// frames.
#[cold]
fn fault(addr: PhysAddr, total: usize) -> MemError {
    if addr.page_number() < total as u64 {
        MemError::Unallocated { addr }
    } else {
        MemError::OutOfBounds { addr }
    }
}

/// The page chunks of `[addr, addr + len)`; a range past the top of
/// physical address space is out of bounds.
fn chunks(addr: PhysAddr, len: u64) -> Result<PageChunks<PhysAddr>, MemError> {
    page_chunks(addr, len).ok_or(MemError::OutOfBounds { addr })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_moves_bytes_between_and_within_frames() {
        let mut mem = SystemMemory::new(4);
        let a = mem.alloc_frame().unwrap().base();
        let b = mem.alloc_frame().unwrap().base();
        mem.write(a, b"abcdef").unwrap();
        // Five bytes out of `a` land split across the end of `b` and the
        // start of `a`'s second half.
        let to = [(b.add(PAGE_SIZE - 2), 2), (a.add(2048), 3)];
        mem.copy(&[(a.add(1), 5)], &to).unwrap();
        let mut out = [0u8; 3];
        mem.read(b.add(PAGE_SIZE - 2), &mut out[..2]).unwrap();
        assert_eq!(&out[..2], b"bc");
        mem.read(a.add(2048), &mut out).unwrap();
        assert_eq!(&out, b"def");
        // Overlapping, inside one frame: memmove semantics.
        mem.copy(&[(a, 4)], &[(a.add(2), 4)]).unwrap();
        let mut out = [0u8; 6];
        mem.read(a, &mut out).unwrap();
        assert_eq!(&out, b"ababcd");
        // A chunk leaving its frame, or in an unallocated frame, copies
        // nothing — not even the chunks before it.
        let unallocated = PhysAddr::new(3 * PAGE_SIZE);
        for to in [
            [(b, 2), (b.add(PAGE_SIZE - 1), 2)],
            [(b, 2), (unallocated, 2)],
        ] {
            assert!(mem.copy(&[(a, 4)], &to).is_err());
            mem.read(b, &mut out[..2]).unwrap();
            assert_eq!(&out[..2], &[0, 0]);
        }
    }

    #[test]
    fn a_range_past_the_top_of_physical_memory_is_out_of_bounds() {
        let mut mem = SystemMemory::new(1);
        let top = PhysAddr::new(u64::MAX - 7);
        assert_eq!(mem.write(top, &[0; 9]), Err(MemError::OutOfBounds { addr: top }));
        assert_eq!(mem.read(top, &mut [0; 9]), Err(MemError::OutOfBounds { addr: top }));
    }

    #[test]
    fn alloc_and_rw_roundtrip() {
        let mut mem = SystemMemory::new(4);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base().add(100), b"hello").unwrap();
        let mut buf = [0u8; 5];
        mem.read(f.base().add(100), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cross_frame_rw() {
        let mut mem = SystemMemory::new(4);
        let a = mem.alloc_frame().unwrap();
        let b = mem.alloc_frame().unwrap();
        // Allocation order gives consecutive frames 0 and 1.
        assert_eq!(b.base().raw(), a.base().raw() + PAGE_SIZE);
        let addr = a.base().add(PAGE_SIZE - 2);
        mem.write(addr, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        mem.read(addr, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn unallocated_access_fails() {
        let mem = SystemMemory::new(4);
        let mut buf = [0u8; 1];
        assert_eq!(
            mem.read(PhysAddr::new(0), &mut buf),
            Err(MemError::Unallocated {
                addr: PhysAddr::new(0)
            })
        );
    }

    #[test]
    fn out_of_bounds_access_fails() {
        let mut mem = SystemMemory::new(1);
        let _ = mem.alloc_frame().unwrap();
        let far = PhysAddr::new(10 * PAGE_SIZE);
        assert_eq!(
            mem.write(far, &[0]),
            Err(MemError::OutOfBounds { addr: far })
        );
    }

    #[test]
    fn partial_write_does_not_happen() {
        let mut mem = SystemMemory::new(4);
        let f = mem.alloc_frame().unwrap();
        // Frame after `f` (frame 1) is unallocated, so the cross-frame write
        // must fail without mutating frame 0.
        let addr = f.base().add(PAGE_SIZE - 2);
        mem.write(addr, b"XX").unwrap();
        assert!(mem.write(addr, &[9, 9, 9, 9]).is_err());
        let mut buf = [0u8; 2];
        mem.read(addr, &mut buf).unwrap();
        assert_eq!(&buf, b"XX");
    }

    #[test]
    fn exhaustion_and_free() {
        let mut mem = SystemMemory::new(2);
        let a = mem.alloc_frame().unwrap();
        let _b = mem.alloc_frame().unwrap();
        assert_eq!(mem.alloc_frame(), Err(MemError::OutOfFrames));
        mem.free_frame(a).unwrap();
        assert_eq!(mem.free_frames(), 1);
        let c = mem.alloc_frame().unwrap();
        assert_eq!(c.number(), 0);
    }

    #[test]
    fn freed_frames_are_zeroed() {
        let mut mem = SystemMemory::new(1);
        let f = mem.alloc_frame().unwrap();
        mem.write(f.base(), b"secret").unwrap();
        let base = f.base();
        mem.free_frame(f).unwrap();
        let f2 = mem.alloc_frame().unwrap();
        assert_eq!(f2.base(), base);
        let mut buf = [0u8; 6];
        mem.read(f2.base(), &mut buf).unwrap();
        assert_eq!(buf, [0; 6]);
    }

    #[test]
    fn double_free_detected() {
        let mut mem = SystemMemory::new(1);
        let f = mem.alloc_frame().unwrap();
        let dup = Frame::from_base(f.base());
        mem.free_frame(f).unwrap();
        assert_eq!(
            mem.free_frame(dup),
            Err(MemError::BadFree {
                addr: PhysAddr::new(0)
            })
        );
    }

    #[test]
    fn bulk_alloc_is_all_or_nothing() {
        let mut mem = SystemMemory::new(3);
        assert!(matches!(mem.alloc_frames(4), Err(MemError::OutOfFrames)));
        assert_eq!(mem.allocated_frames(), 0);
        let frames = mem.alloc_frames(3).unwrap();
        assert_eq!(frames.len(), 3);
        let numbers: Vec<u64> = frames.map(|frame| frame.number()).collect();
        assert_eq!(numbers, [0, 1, 2]);
        assert_eq!(mem.free_frames(), 0);
        // Freed frames come back first, the most recent on top; a run read
        // only in part allocates only what it yielded.
        mem.free_frame(Frame::from_base(PhysAddr::new(PAGE_SIZE)))
            .unwrap();
        mem.free_frame(Frame::from_base(PhysAddr::new(0))).unwrap();
        let first = mem.alloc_frames(2).unwrap().next().unwrap();
        assert_eq!(first.number(), 0);
        assert_eq!(mem.allocated_frames(), 2);
        assert_eq!(mem.free_frames(), 1);
    }

    #[test]
    fn u64_and_u32_accessors() {
        let mut mem = SystemMemory::new(1);
        let f = mem.alloc_frame().unwrap();
        mem.write_u64(f.base(), 0x0102_0304_0506_0708).unwrap();
        assert_eq!(mem.read_u64(f.base()).unwrap(), 0x0102_0304_0506_0708);
        mem.write_u32(f.base().add(8), 0xaabb_ccdd).unwrap();
        assert_eq!(mem.read_u32(f.base().add(8)).unwrap(), 0xaabb_ccdd);
    }

    #[test]
    fn a_straddling_u64_round_trips() {
        let mut mem = SystemMemory::new(2);
        let a = mem.alloc_frame().unwrap();
        let _b = mem.alloc_frame().unwrap();
        let addr = a.base().add(PAGE_SIZE - 4);
        mem.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), 0x0102_0304_0506_0708);
        let mut halves = [0u8; 8];
        mem.read(addr, &mut halves).unwrap();
        assert_eq!(halves, 0x0102_0304_0506_0708u64.to_le_bytes());
        mem.write_u32(addr.add(2), 0xaabb_ccdd).unwrap();
        assert_eq!(mem.read_u32(addr.add(2)).unwrap(), 0xaabb_ccdd);
    }

    #[test]
    fn a_straddling_u64_into_an_unallocated_frame_writes_nothing() {
        let mut mem = SystemMemory::new(2);
        let a = mem.alloc_frame().unwrap();
        let addr = a.base().add(PAGE_SIZE - 4);
        mem.write_u32(addr, 0x5a5a_5a5a).unwrap();
        let next = a.base().add(PAGE_SIZE);
        assert_eq!(
            mem.write_u64(addr, u64::MAX),
            Err(MemError::Unallocated { addr: next })
        );
        assert_eq!(
            mem.read_u64(addr),
            Err(MemError::Unallocated { addr: next })
        );
        assert_eq!(mem.read_u32(addr).unwrap(), 0x5a5a_5a5a);
    }

    #[test]
    fn a_frame_holds_bytes_only_once_written() {
        let mut mem = SystemMemory::new(2);
        let f = mem.alloc_frame().unwrap();
        let mut buf = [0xffu8; 16];
        mem.read(f.base().add(100), &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
        assert_eq!(mem.read_u64(f.base().add(PAGE_SIZE - 8)).unwrap(), 0);
        assert_eq!(mem.backed_frames(), 0);
        mem.write_u32(f.base().add(8), 7).unwrap();
        mem.write(f.base(), b"ab").unwrap();
        assert_eq!(mem.backed_frames(), 1);
        let base = f.base();
        mem.free_frame(f).unwrap();
        assert_eq!(mem.backed_frames(), 0);
        let again = mem.alloc_frame().unwrap();
        assert_eq!(again.base(), base);
        assert_eq!(mem.read_u64(base.add(8)).unwrap(), 0);
        assert_eq!(mem.backed_frames(), 0);
    }

    #[test]
    fn a_failed_access_backs_no_frame() {
        let mut mem = SystemMemory::new(3);
        let a = mem.alloc_frame().unwrap().base();
        let next = a.add(PAGE_SIZE);
        assert!(mem.write(a.add(PAGE_SIZE - 2), &[1; 4]).is_err());
        assert!(mem.write_u64(a.add(PAGE_SIZE - 4), u64::MAX).is_err());
        assert!(mem.copy(&[(a, 4)], &[(a.add(8), 2), (next, 2)]).is_err());
        assert!(mem.copy(&[(next, 4)], &[(a, 4)]).is_err());
        assert_eq!(mem.backed_frames(), 0);
    }

    #[test]
    fn a_copy_backs_only_a_frame_it_moves_bytes_into() {
        let mut mem = SystemMemory::new(4);
        let [written, zero, other_zero, other_written] =
            [(); 4].map(|()| mem.alloc_frame().unwrap().base());
        mem.write(written, b"abcd").unwrap();
        mem.write(other_written, b"wxyz").unwrap();
        assert_eq!(mem.backed_frames(), 2);
        // Unbacked to unbacked, and inside one unbacked frame: nothing moves.
        mem.copy(&[(zero, 8)], &[(other_zero, 8)]).unwrap();
        mem.copy(&[(zero, 8)], &[(zero.add(4), 8)]).unwrap();
        assert_eq!(mem.backed_frames(), 2);
        // Unbacked to backed: the destination reads zeros.
        mem.copy(&[(zero, 2)], &[(other_written.add(1), 2)]).unwrap();
        let mut out = [0u8; 4];
        mem.read(other_written, &mut out).unwrap();
        assert_eq!(&out, b"w\0\0z");
        assert_eq!(mem.backed_frames(), 2);
        // Backed to unbacked: the destination is backed.
        mem.copy(&[(written.add(1), 3)], &[(zero.add(10), 3)]).unwrap();
        mem.read(zero.add(9), &mut out).unwrap();
        assert_eq!(&out, b"\0bcd");
        assert_eq!(mem.backed_frames(), 3);
        mem.read(other_zero, &mut out).unwrap();
        assert_eq!(out, [0; 4]);
    }
}
