//! The page map under both second translation stages: the EPT and the
//! IOMMU.
//!
//! A [`PageMap`] is a two-level radix keyed by page number, in the geometry
//! of x86's second-stage tables: a leaf holds [`LEAF_ENTRIES`] = 512 entries
//! of one 8-byte word each, so a leaf is one 4-KiB table page, and the top
//! level is a vector of optional leaves indexed by `page >> 9`. A lookup is
//! two indexed loads and no key comparison. That matters because the
//! hypervisor's software walk for its copy API (paper §5.2) looks up four
//! pages per guest-virtual translation: three guest page-table levels and
//! the leaf.
//!
//! The map stores words, not entries: each [`Entry`] type packs itself into
//! one nonzero `u64` and unpacks itself from it, as a hardware table entry
//! holds a frame, its rights and a present bit. [`frame_word`] is the part
//! the EPT and the IOMMU share. A value a word cannot hold is refused where
//! the entry is made, so the map never truncates one.
//!
//! A run of pages is filled a leaf at a time by [`PageMap::insert_run`]: one
//! top-level lookup per 512 pages rather than one per page. A single insert
//! is the run of one, so every entry is stored by the same loop.
//!
//! A leaf is allocated by the first insert into it and kept after its last
//! removal. Iteration and range updates visit allocated leaves only, in
//! ascending page order. The map covers pages below [`PAGE_LIMIT`], so its
//! top level never holds more than 2^18 pointers.

use std::fmt;
use std::marker::PhantomData;
use std::num::NonZeroU64;
use std::ops::RangeInclusive;

use crate::addr::{PhysAddr, PAGE_SIZE};
use crate::perms::Access;

/// log2 of [`LEAF_ENTRIES`].
const LEAF_BITS: u32 = 9;

/// Entries per leaf: one 4-KiB table page of 8-byte entries.
const LEAF_ENTRIES: usize = 1 << LEAF_BITS;

/// Pages a map can hold: 39-bit addresses, the narrowest address width of
/// x86 second-stage tables (three-level VT-d). Every guest-physical and bus
/// address the hypervisor maps lies far below it, and so does every frame
/// an entry can name.
pub(crate) const PAGE_LIMIT: u64 = 1 << (39 - 12);

/// One leaf: a table page of packed entries. `None` is the zero word.
type Leaf = [Option<NonZeroU64>; LEAF_ENTRIES];

const _: () = assert!(std::mem::size_of::<Leaf>() == PAGE_SIZE as usize);

/// A value a [`PageMap`] stores as one nonzero word.
pub(crate) trait Entry: Copy {
    /// The entry's word.
    fn word(self) -> NonZeroU64;

    /// The entry `word` packs.
    fn from_word(word: NonZeroU64) -> Self;
}

/// Bits 0–30 of an entry's word: the present bit 0 (so that the word of a
/// page mapped to frame 0 with no rights is not zero), `access` in bits
/// 1–3, and the frame number of `frame` in bits 4–30. `None` for a frame at
/// or above 2^39, which those 27 bits cannot hold. Bits 31–63 are the
/// entry type's own.
pub(crate) fn frame_word(frame: PhysAddr, access: Access) -> Option<NonZeroU64> {
    let number = frame.page_number();
    (number < PAGE_LIMIT).then(|| NonZeroU64::MIN | (number << 4 | u64::from(access.bits()) << 1))
}

/// `word` with its rights (bits 1–3) replaced by `access`.
pub(crate) fn with_access(word: NonZeroU64, access: Access) -> NonZeroU64 {
    NonZeroU64::MIN | (word.get() & !0b1110 | u64::from(access.bits()) << 1)
}

/// The frame base and the rights in `word`'s low bits ([`frame_word`]).
pub(crate) fn word_frame(word: NonZeroU64) -> (PhysAddr, Access) {
    let word = word.get();
    (
        PhysAddr::new((word >> 4 & (PAGE_LIMIT - 1)) * PAGE_SIZE),
        Access::from_bits((word >> 1) as u8),
    )
}

/// A map from page number to `E`, stored as a two-level radix of packed
/// words.
pub(crate) struct PageMap<E> {
    leaves: Vec<Option<Box<Leaf>>>,
    len: usize,
    entries: PhantomData<E>,
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

/// Leaf `index` of `leaves`, allocated (all `None`) if it was not.
fn leaf_mut(leaves: &mut Vec<Option<Box<Leaf>>>, index: usize) -> &mut Leaf {
    if leaves.len() <= index {
        leaves.resize_with(index + 1, || None);
    }
    leaves[index].get_or_insert_with(|| {
        // `vec!` of zero words asks the allocator for zeroed memory, so a
        // leaf costs no page touches until its entries are written.
        let Ok(leaf) = vec![None; LEAF_ENTRIES].into_boxed_slice().try_into() else {
            unreachable!("a vector of LEAF_ENTRIES words is a leaf")
        };
        leaf
    })
}

impl<E> Default for PageMap<E> {
    fn default() -> Self {
        PageMap {
            leaves: Vec::new(),
            len: 0,
            entries: PhantomData,
        }
    }
}

impl<E: Entry> PageMap<E> {
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
    pub(crate) fn get(&self, page: u64) -> Option<E> {
        let (leaf, slot) = split(page);
        self.leaves.get(leaf)?.as_ref()?[slot].map(E::from_word)
    }

    /// Sets the entry for `page`: the run of one.
    ///
    /// # Panics
    ///
    /// Panics if `page` is not below [`PAGE_LIMIT`].
    pub(crate) fn insert(&mut self, page: u64, entry: E) {
        self.insert_run(page, 1, |_| entry);
    }

    /// Sets the entries for the `count` pages from `first` to `entry(page)`,
    /// a leaf at a time, in ascending page order.
    ///
    /// # Panics
    ///
    /// Panics, before storing anything, if the run does not end at or below
    /// [`PAGE_LIMIT`].
    pub(crate) fn insert_run(&mut self, first: u64, count: u64, mut entry: impl FnMut(u64) -> E) {
        let end = first.checked_add(count).filter(|&end| end <= PAGE_LIMIT);
        let Some(end) = end else {
            panic!("pages {first:#x} + {count} lie beyond the page map's 39-bit address width");
        };
        let mut page = first;
        while page < end {
            let (leaf, slot) = split(page);
            let take = (LEAF_ENTRIES - slot).min((end - page) as usize);
            for word in &mut leaf_mut(&mut self.leaves, leaf)[slot..slot + take] {
                if word.replace(entry(page).word()).is_none() {
                    self.len += 1;
                }
                page += 1;
            }
        }
    }

    /// Removes the entry for `page`, returning it.
    pub(crate) fn remove(&mut self, page: u64) -> Option<E> {
        let (leaf, slot) = split(page);
        let old = self.leaves.get_mut(leaf)?.as_mut()?[slot].take();
        if old.is_some() {
            self.len -= 1;
        }
        old.map(E::from_word)
    }

    /// Replaces the entry for `page`, if present, with `f` of it. Returns
    /// whether it was present.
    pub(crate) fn update(&mut self, page: u64, f: impl FnOnce(E) -> E) -> bool {
        let (leaf, slot) = split(page);
        let word = self
            .leaves
            .get_mut(leaf)
            .and_then(|leaf| leaf.as_mut()?[slot].as_mut());
        let Some(word) = word else { return false };
        *word = f(E::from_word(*word)).word();
        true
    }

    /// Replaces every present entry whose page lies in `pages` with `f` of
    /// it, in ascending page order. Returns how many were present.
    pub(crate) fn update_range(
        &mut self,
        pages: RangeInclusive<u64>,
        mut f: impl FnMut(E) -> E,
    ) -> usize {
        let (first, last) = pages.into_inner();
        if first > last {
            return 0;
        }
        let ((first_leaf, first_slot), (last_leaf, last_slot)) = (split(first), split(last));
        let mut updated = 0;
        let leaves = self.leaves.iter_mut().enumerate();
        for (i, leaf) in leaves.skip(first_leaf).take_while(|&(i, _)| i <= last_leaf) {
            let Some(leaf) = leaf else { continue };
            let from = if i == first_leaf { first_slot } else { 0 };
            let to = if i == last_leaf {
                last_slot
            } else {
                LEAF_ENTRIES - 1
            };
            for word in leaf[from..=to].iter_mut().flatten() {
                *word = f(E::from_word(*word)).word();
                updated += 1;
            }
        }
        updated
    }

    /// Iterates over `(page, entry)` in ascending page order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, E)> + '_ {
        self.leaves
            .iter()
            .enumerate()
            .filter_map(|(i, leaf)| Some((i, leaf.as_deref()?)))
            .flat_map(|(i, leaf)| {
                leaf.iter()
                    .enumerate()
                    .filter_map(move |(j, word)| Some((join(i, j), E::from_word((*word)?))))
            })
    }
}

impl<E: Entry + fmt::Debug> fmt::Debug for PageMap<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test entry: any nonzero word, unpacked as itself.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Word(u64);

    impl Entry for Word {
        fn word(self) -> NonZeroU64 {
            NonZeroU64::new(self.0).expect("test words are nonzero")
        }

        fn from_word(word: NonZeroU64) -> Self {
            Word(word.get())
        }
    }

    fn contents(map: &PageMap<Word>) -> Vec<(u64, u64)> {
        map.iter().map(|(page, Word(w))| (page, w)).collect()
    }

    #[test]
    fn lookups_cross_leaf_edges() {
        let mut map = PageMap::default();
        for page in [0u64, 511, 512, 1023, 1024, PAGE_LIMIT - 1] {
            map.insert(page, Word(page * 2 + 1));
        }
        assert_eq!(map.len(), 6);
        assert_eq!(map.get(511), Some(Word(1023)));
        assert_eq!(map.get(512), Some(Word(1025)));
        assert_eq!(map.get(513), None);
        assert_eq!(map.get(PAGE_LIMIT), None);
        assert_eq!(map.get(u64::MAX), None);
        map.insert(512, Word(7));
        assert_eq!(map.len(), 6);
        assert_eq!(map.remove(512), Some(Word(7)));
        assert_eq!(map.remove(512), None);
        assert_eq!(map.remove(u64::MAX), None);
        assert_eq!(map.len(), 5);
    }

    #[test]
    fn a_run_crosses_leaf_edges_and_fills_partial_leaves() {
        let mut map = PageMap::default();
        // Starts in the middle of leaf 0, fills leaf 1 whole and ends in
        // the middle of leaf 2.
        map.insert_run(500, 600, |page| Word(page + 1));
        assert_eq!(map.len(), 600);
        let expected: Vec<(u64, u64)> = (500..1100).map(|page| (page, page + 1)).collect();
        assert_eq!(contents(&map), expected);
        assert_eq!(map.get(499), None);
        assert_eq!(map.get(1100), None);
        // A run of zero pages stores nothing, even at the limit.
        map.insert_run(PAGE_LIMIT, 0, |_| unreachable!());
        assert_eq!(map.len(), 600);
        // A run ending exactly at the limit fits.
        map.insert_run(PAGE_LIMIT - 3, 3, Word);
        assert_eq!(map.len(), 603);
        assert_eq!(map.get(PAGE_LIMIT - 1), Some(Word(PAGE_LIMIT - 1)));
    }

    #[test]
    fn a_run_over_present_entries_counts_only_new_ones() {
        let mut map = PageMap::default();
        for page in [10u64, 511, 512, 700] {
            map.insert(page, Word(1));
        }
        map.insert(511, Word(2));
        assert_eq!(map.len(), 4);
        // 0..=1023 covers all four present pages: 1024 − 4 new entries.
        map.insert_run(0, 1024, |page| Word(page + 100));
        assert_eq!(map.len(), 1024);
        assert_eq!(map.get(511), Some(Word(611)));
        assert_eq!(map.get(700), Some(Word(800)));
        // A second pass over part of it replaces, adding nothing.
        map.insert_run(400, 300, |_| Word(9));
        assert_eq!(map.len(), 1024);
        assert_eq!(map.get(400), Some(Word(9)));
        assert_eq!(map.get(700), Some(Word(800)));
        assert_eq!(map.remove(0), Some(Word(100)));
        map.insert_run(0, 2, |_| Word(3));
        assert_eq!(map.len(), 1024);
    }

    #[test]
    fn range_updates_touch_exactly_the_range() {
        let mut map = PageMap::default();
        map.insert_run(500, 600, |_| Word(1));
        map.remove(600);
        let updated = map.update_range(510..=1030, |Word(w)| Word(w + 1));
        assert_eq!(updated, 1030 - 510 + 1 - 1);
        for (page, Word(w)) in map.iter() {
            let inside = (510..=1030).contains(&page);
            assert_eq!(w, if inside { 2 } else { 1 }, "page {page}");
        }
        assert_eq!(map.update_range(2000..=u64::MAX, |_| unreachable!()), 0);
        assert_eq!(
            map.update_range(RangeInclusive::new(900, 800), |_| unreachable!()),
            0
        );
        assert!(map.update(500, |_| Word(5)));
        assert!(!map.update(600, |_| unreachable!()));
        assert!(!map.update(u64::MAX, |_| unreachable!()));
        assert_eq!(map.get(500), Some(Word(5)));
        assert_eq!(map.len(), 599);
    }

    #[test]
    fn frame_words_round_trip_up_to_the_width() {
        let top = PhysAddr::new((PAGE_LIMIT - 1) * PAGE_SIZE);
        for frame in [PhysAddr::new(0), PhysAddr::new(PAGE_SIZE + 5), top] {
            for bits in 0..8 {
                let access = Access::from_bits(bits);
                let word = frame_word(frame, access).unwrap();
                assert!(word.get() < 1 << 31, "{word:#x} leaves bits 31-63 free");
                assert_eq!(word_frame(word), (frame.page_base(), access));
                let other = Access::from_bits(!bits);
                let high = word | 0xdead << 40;
                assert_eq!(
                    word_frame(with_access(high, other)),
                    (frame.page_base(), other)
                );
                assert_eq!(with_access(high, other).get() >> 31, high.get() >> 31);
            }
        }
        assert_eq!(
            frame_word(PhysAddr::new(PAGE_LIMIT * PAGE_SIZE), Access::RW),
            None
        );
        assert_eq!(frame_word(PhysAddr::new(u64::MAX), Access::NONE), None);
    }

    #[test]
    #[should_panic(expected = "39-bit address width")]
    fn pages_beyond_the_address_width_are_refused() {
        PageMap::default().insert(PAGE_LIMIT, Word(1));
    }

    #[test]
    fn a_run_past_the_address_width_stores_nothing() {
        let mut map = PageMap::default();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.insert_run(PAGE_LIMIT - 2, 3, |_| Word(1));
        }));
        assert!(run.is_err());
        assert!(map.is_empty());
        let wrap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map.insert_run(u64::MAX, 2, |_| Word(1));
        }));
        assert!(wrap.is_err());
        assert!(map.is_empty());
    }
}
