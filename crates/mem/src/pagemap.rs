//! The page map under both second translation stages: the EPT and the
//! IOMMU.
//!
//! A [`PageMap`] is a two-level radix keyed by page number, in the geometry
//! of x86's second-stage tables: a leaf holds [`LEAF_ENTRIES`] = 512 entries
//! (one 4-KiB table page of 8-byte entries), and the top level is a vector
//! of optional leaves indexed by `page >> 9`. A lookup is two indexed loads
//! and no key comparison. That matters because the hypervisor's software
//! walk for its copy API (paper §5.2) looks up four pages per guest-virtual
//! translation: three guest page-table levels and the leaf.
//!
//! A leaf is allocated by the first insert into it and kept after its last
//! removal. Iteration and range updates visit allocated leaves only, in
//! ascending page order. The map covers pages below [`PAGE_LIMIT`], so its
//! top level never holds more than 2^18 pointers.

use std::fmt;
use std::ops::RangeInclusive;

/// log2 of [`LEAF_ENTRIES`].
const LEAF_BITS: u32 = 9;

/// Entries per leaf: one 4-KiB table page of 8-byte entries.
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;

/// Pages a map can hold: 39-bit addresses, the narrowest address width of
/// x86 second-stage tables (three-level VT-d). Every guest-physical and bus
/// address the hypervisor maps lies far below it.
pub(crate) const PAGE_LIMIT: u64 = 1 << (39 - 12);

type Leaf<E> = [Option<E>; LEAF_ENTRIES];

/// A map from page number to `E`, stored as a two-level radix.
pub(crate) struct PageMap<E> {
    leaves: Vec<Option<Box<Leaf<E>>>>,
    len: usize,
}

/// The (leaf, slot) indices of `page`.
fn split(page: u64) -> (usize, usize) {
    (
        usize::try_from(page >> LEAF_BITS).unwrap_or(usize::MAX),
        page as usize & (LEAF_ENTRIES - 1),
    )
}

/// The page number at slot `slot` of leaf `leaf`.
fn join(leaf: usize, slot: usize) -> u64 {
    ((leaf as u64) << LEAF_BITS) | slot as u64
}

impl<E> Default for PageMap<E> {
    fn default() -> Self {
        PageMap {
            leaves: Vec::new(),
            len: 0,
        }
    }
}

impl<E: Copy> PageMap<E> {
    /// Number of present entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no entry is present.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entry for `page`, if present.
    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<&E> {
        let (leaf, slot) = split(page);
        self.leaves.get(leaf)?.as_ref()?[slot].as_ref()
    }

    /// The entry for `page`, mutably, if present.
    #[inline]
    pub(crate) fn get_mut(&mut self, page: u64) -> Option<&mut E> {
        let (leaf, slot) = split(page);
        self.leaves.get_mut(leaf)?.as_mut()?[slot].as_mut()
    }

    /// Sets the entry for `page`, returning the one it replaced.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below [`PAGE_LIMIT`].
    pub(crate) fn insert(&mut self, page: u64, entry: E) -> Option<E> {
        assert!(
            page < PAGE_LIMIT,
            "page {page:#x} lies beyond the page map's 39-bit address width"
        );
        let (leaf, slot) = split(page);
        if self.leaves.len() <= leaf {
            self.leaves.resize_with(leaf + 1, || None);
        }
        let leaf = self.leaves[leaf].get_or_insert_with(|| Box::new([None; LEAF_ENTRIES]));
        let old = leaf[slot].replace(entry);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Removes the entry for `page`, returning it.
    pub(crate) fn remove(&mut self, page: u64) -> Option<E> {
        let (leaf, slot) = split(page);
        let old = self.leaves.get_mut(leaf)?.as_mut()?[slot].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Iterates over `(page, entry)` in ascending page order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &E)> + '_ {
        self.leaves
            .iter()
            .enumerate()
            .filter_map(|(i, leaf)| Some((i, leaf.as_deref()?)))
            .flat_map(|(i, leaf)| {
                leaf.iter()
                    .enumerate()
                    .filter_map(move |(j, entry)| Some((join(i, j), entry.as_ref()?)))
            })
    }

    /// Iterates mutably over the present entries whose page lies in
    /// `pages`, in ascending page order.
    pub(crate) fn range_mut(
        &mut self,
        pages: RangeInclusive<u64>,
    ) -> impl Iterator<Item = (u64, &mut E)> + '_ {
        let (first, last) = pages.into_inner();
        let last_leaf = split(last).0;
        self.leaves
            .iter_mut()
            .enumerate()
            .skip(split(first).0)
            .take_while(move |&(i, _)| i <= last_leaf)
            .filter_map(|(i, leaf)| Some((i, leaf.as_deref_mut()?)))
            .flat_map(move |(i, leaf)| {
                leaf.iter_mut().enumerate().filter_map(move |(j, entry)| {
                    let page = join(i, j);
                    (first..=last)
                        .contains(&page)
                        .then_some((page, entry.as_mut()?))
                })
            })
    }
}

impl<E: Copy + fmt::Debug> fmt::Debug for PageMap<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_cross_leaf_edges() {
        let mut map = PageMap::default();
        for page in [0u64, 511, 512, 1023, 1024, PAGE_LIMIT - 1] {
            assert_eq!(map.insert(page, page * 2), None);
        }
        assert_eq!(map.len(), 6);
        assert_eq!(map.get(511), Some(&1022));
        assert_eq!(map.get(512), Some(&1024));
        assert_eq!(map.get(513), None);
        assert_eq!(map.get(PAGE_LIMIT), None);
        assert_eq!(map.get(u64::MAX), None);
        assert_eq!(map.insert(512, 7), Some(1024));
        assert_eq!(map.len(), 6);
        assert_eq!(map.remove(512), Some(7));
        assert_eq!(map.remove(512), None);
        assert_eq!(map.remove(u64::MAX), None);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn range_updates_touch_exactly_the_range() {
        let mut map = PageMap::default();
        for page in 500u64..1100 {
            map.insert(page, false);
        }
        let touched: Vec<u64> = map
            .range_mut(510..=1030)
            .map(|(page, entry)| {
                *entry = true;
                page
            })
            .collect();
        assert_eq!(touched, (510..=1030).collect::<Vec<_>>());
        for (page, &set) in map.iter() {
            assert_eq!(set, (510..=1030).contains(&page), "page {page}");
        }
        assert_eq!(map.range_mut(2000..=u64::MAX).count(), 0);
    }

    #[test]
    #[should_panic(expected = "39-bit address width")]
    fn pages_beyond_the_address_width_are_refused() {
        PageMap::default().insert(PAGE_LIMIT, ());
    }
}
