//! Strongly-typed addresses and page arithmetic.
//!
//! The simulation distinguishes four address spaces, mirroring the paper's
//! two-stage translation (guest virtual → guest physical → system physical)
//! plus the device-side DMA space translated by the IOMMU:
//!
//! * [`GuestVirtAddr`] — an address in a guest *process* address space.
//! * [`GuestPhysAddr`] — an address in a VM's physical address space.
//! * [`PhysAddr`] — a system (host) physical address.
//! * [`DmaAddr`] — a bus address emitted by a device, translated by the IOMMU.
//!
//! Newtypes keep the four spaces from being mixed up at compile time
//! (a real bug class in hypervisor code).

use std::fmt;

/// Size of a memory page/frame in bytes (4 KiB, as on x86).
pub const PAGE_SIZE: u64 = 4096;

/// Mask selecting the offset-within-page bits of an address.
pub const PAGE_MASK: u64 = PAGE_SIZE - 1;

macro_rules! addr_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl $name {
            /// Creates an address from a raw value.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value.
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the address rounded down to its page boundary.
            pub const fn page_base(self) -> Self {
                Self(self.0 & !PAGE_MASK)
            }

            /// Returns the offset of this address within its page.
            pub const fn page_offset(self) -> u64 {
                self.0 & PAGE_MASK
            }

            /// Returns the zero-based page number containing this address.
            pub const fn page_number(self) -> u64 {
                self.0 / PAGE_SIZE
            }

            /// Returns `true` if the address is page-aligned.
            pub const fn is_page_aligned(self) -> bool {
                self.0 & PAGE_MASK == 0
            }

            /// Returns the address advanced by `delta` bytes.
            ///
            /// # Panics
            ///
            /// Panics on overflow, which indicates a simulation bug.
            #[allow(clippy::should_implement_trait)] // pointer-style arith
            pub fn add(self, delta: u64) -> Self {
                Self(self.0.checked_add(delta).expect("address overflow"))
            }

            /// Byte distance from `self` to `other`.
            ///
            /// # Panics
            ///
            /// Panics if `other` is below `self`.
            pub fn offset_to(self, other: Self) -> u64 {
                other
                    .0
                    .checked_sub(self.0)
                    .expect("negative address distance")
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u64 {
            fn from(addr: $name) -> u64 {
                addr.0
            }
        }
    };
}

addr_type! {
    /// A system (host) physical address: the final output of every
    /// translation stage and the index into [`crate::SystemMemory`].
    PhysAddr
}

addr_type! {
    /// A guest-physical address: what a VM believes is physical memory.
    /// Translated to [`PhysAddr`] by the VM's [`crate::Ept`].
    GuestPhysAddr
}

addr_type! {
    /// A guest-virtual address in some guest process address space.
    /// Translated to [`GuestPhysAddr`] by the process's
    /// [`crate::GuestPageTables`].
    GuestVirtAddr
}

addr_type! {
    /// A bus address emitted by a DMA-capable device, translated to
    /// [`PhysAddr`] by the [`crate::Iommu`].
    DmaAddr
}

/// An owned, allocated physical frame handle returned by the frame allocator.
///
/// The handle is deliberately *not* `Copy`: the allocator hands out each
/// frame once, and [`crate::SystemMemory::free_frame`] consumes the handle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    base: PhysAddr,
}

impl Frame {
    /// Creates a frame handle for the page containing `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page-aligned; frames always start at a page
    /// boundary.
    pub fn from_base(base: PhysAddr) -> Self {
        assert!(base.is_page_aligned(), "frame base must be page-aligned");
        Self { base }
    }

    /// The first byte of the frame.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// The zero-based frame number.
    pub fn number(&self) -> u64 {
        self.base.page_number()
    }
}

/// Splits the byte range `[addr, addr + len)` into per-page chunks, or
/// `None` when the range runs past the top of the address space (a range
/// that ends exactly at 2^64 is split like any other).
///
/// Cross-page accesses must be translated page-by-page because contiguous
/// guest pages need not be contiguous in system physical memory (paper §5.2).
/// Each yielded item is `(page_start_address, length_within_page)`.
///
/// # Example
///
/// ```
/// use paradice_mem::addr::{page_chunks, PAGE_SIZE};
/// use paradice_mem::GuestVirtAddr;
///
/// let chunks: Vec<_> = page_chunks(GuestVirtAddr::new(PAGE_SIZE - 8), 24)
///     .unwrap()
///     .collect();
/// assert_eq!(chunks.len(), 2);
/// assert_eq!(chunks[0].1, 8);
/// assert_eq!(chunks[1].1, 16);
/// assert!(page_chunks(GuestVirtAddr::new(u64::MAX - 15), 17).is_none());
/// ```
pub fn page_chunks<A>(addr: A, len: u64) -> Option<PageChunks<A>>
where
    A: Copy + Into<u64> + From<u64>,
{
    let cursor = addr.into();
    if len > 0 && cursor.checked_add(len - 1).is_none() {
        return None;
    }
    Some(PageChunks {
        cursor,
        remaining: len,
        _marker: std::marker::PhantomData,
    })
}

/// Iterator returned by [`page_chunks`].
#[derive(Debug, Clone)]
pub struct PageChunks<A> {
    cursor: u64,
    remaining: u64,
    _marker: std::marker::PhantomData<A>,
}

impl<A> Iterator for PageChunks<A>
where
    A: Copy + Into<u64> + From<u64>,
{
    type Item = (A, u64);

    fn next(&mut self) -> Option<(A, u64)> {
        if self.remaining == 0 {
            return None;
        }
        let offset = self.cursor & PAGE_MASK;
        let in_page = (PAGE_SIZE - offset).min(self.remaining);
        let item = (A::from(self.cursor), in_page);
        // The last chunk of a range ending at 2^64 wraps the cursor to 0,
        // which is never read again.
        self.cursor = self.cursor.wrapping_add(in_page);
        self.remaining -= in_page;
        Some(item)
    }
}

/// Rounds `len` up to a whole number of pages.
pub const fn pages_for(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE)
}

/// Number of distinct pages the byte range `[addr, addr + len)` touches —
/// `page_chunks(addr, len).count()` in O(1), for hot-path cost accounting
/// (every grant-checked copy hypercall sizes its walk charge by this).
/// Zero-length ranges touch no page. Saturates instead of wrapping when
/// `addr + len` overflows.
pub fn page_span<A>(addr: A, len: u64) -> u64
where
    A: Copy + Into<u64>,
{
    if len == 0 {
        return 0;
    }
    let start: u64 = addr.into();
    let end = start.saturating_add(len - 1);
    (end / PAGE_SIZE) - (start / PAGE_SIZE) + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_arithmetic() {
        let a = GuestVirtAddr::new(0x1234);
        assert_eq!(a.page_base(), GuestVirtAddr::new(0x1000));
        assert_eq!(a.page_offset(), 0x234);
        assert_eq!(a.page_number(), 1);
        assert!(!a.is_page_aligned());
        assert!(a.page_base().is_page_aligned());
    }

    #[test]
    fn page_span_matches_page_chunks_count() {
        for (addr, len) in [
            (0u64, 0u64),
            (0, 1),
            (0, PAGE_SIZE),
            (0, PAGE_SIZE + 1),
            (PAGE_SIZE - 8, 24),
            (0x1234, 3 * PAGE_SIZE),
            (PAGE_SIZE - 1, 1),
            (PAGE_SIZE - 1, 2),
        ] {
            let a = GuestVirtAddr::new(addr);
            assert_eq!(
                page_span(a, len),
                page_chunks(a, len).unwrap().count() as u64,
                "addr {addr:#x} len {len}"
            );
        }
        // A range whose end would overflow saturates instead of panicking.
        let top = GuestVirtAddr::new(u64::MAX - 16);
        assert_eq!(page_span(top, u64::MAX), u64::MAX / PAGE_SIZE + 1 - top.page_number());
    }

    #[test]
    fn add_and_distance() {
        let a = PhysAddr::new(0x1000);
        let b = a.add(0x500);
        assert_eq!(a.offset_to(b), 0x500);
    }

    #[test]
    #[should_panic(expected = "negative address distance")]
    fn negative_distance_panics() {
        let a = PhysAddr::new(0x2000);
        let _ = a.offset_to(PhysAddr::new(0x1000));
    }

    #[test]
    fn chunks_within_one_page() {
        let chunks: Vec<_> = page_chunks(GuestVirtAddr::new(0x100), 0x200)
            .unwrap()
            .collect();
        assert_eq!(chunks, vec![(GuestVirtAddr::new(0x100), 0x200)]);
    }

    #[test]
    fn chunks_spanning_pages() {
        let chunks: Vec<_> = page_chunks(GuestVirtAddr::new(0xff0), 0x20)
            .unwrap()
            .collect();
        assert_eq!(
            chunks,
            vec![
                (GuestVirtAddr::new(0xff0), 0x10),
                (GuestVirtAddr::new(0x1000), 0x10),
            ]
        );
    }

    #[test]
    fn chunks_exact_pages() {
        let chunks: Vec<_> = page_chunks(PhysAddr::new(0x2000), 2 * PAGE_SIZE)
            .unwrap()
            .collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|&(_, len)| len == PAGE_SIZE));
    }

    #[test]
    fn chunks_zero_len() {
        assert_eq!(page_chunks(PhysAddr::new(0), 0).unwrap().count(), 0);
    }

    #[test]
    fn a_range_ending_at_the_top_is_split_and_one_past_it_is_refused() {
        let top = GuestVirtAddr::new(u64::MAX - 15);
        let chunks: Vec<_> = page_chunks(top, 16).unwrap().collect();
        assert_eq!(chunks, vec![(top, 16)]);
        let last_page = GuestVirtAddr::new(u64::MAX - PAGE_SIZE + 1);
        assert_eq!(page_chunks(last_page, PAGE_SIZE).unwrap().count(), 1);
        assert!(page_chunks(top, 17).is_none());
        assert!(page_chunks(top, u64::MAX).is_none());
        assert_eq!(page_chunks(GuestVirtAddr::new(u64::MAX), 0).unwrap().count(), 0);
    }

    #[test]
    fn pages_for_rounding() {
        assert_eq!(pages_for(0), 0);
        assert_eq!(pages_for(1), 1);
        assert_eq!(pages_for(PAGE_SIZE), 1);
        assert_eq!(pages_for(PAGE_SIZE + 1), 2);
    }

    #[test]
    fn frame_handle() {
        let f = Frame::from_base(PhysAddr::new(0x3000));
        assert_eq!(f.number(), 3);
        assert_eq!(f.base(), PhysAddr::new(0x3000));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn misaligned_frame_panics() {
        let _ = Frame::from_base(PhysAddr::new(0x3001));
    }

    #[test]
    fn debug_formatting_nonempty() {
        assert_eq!(format!("{:?}", PhysAddr::new(0x10)), "PhysAddr(0x10)");
        assert_eq!(format!("{}", DmaAddr::new(0x10)), "0x10");
    }
}
