//! Property tests for the memory substrate: the translation and permission
//! invariants everything above relies on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use paradice_mem::addr::{page_chunks, pages_for};
use paradice_mem::ept::EptMapError;
use paradice_mem::iommu::IommuDomain;
use paradice_mem::{
    Access, DmaAddr, Ept, EptViolation, Frame, GuestPhysAddr, IommuFault, MemError, PhysAddr,
    RegionId, SystemMemory, PAGE_SIZE,
};

/// Pages on both sides of the first two leaf edges of a page map.
const LEAF_EDGES: [u64; 8] = [0, 1, 511, 512, 513, 1023, 1024, 1025];

/// The driver VM's BAR placement, `ram_pages + 2 × GPA_WINDOW_BYTES /
/// PAGE_SIZE`, for 8 192 RAM pages and the hypervisor's 64-MiB window.
const BAR_PAGE: u64 = 8192 + 2 * (64 << 20) / PAGE_SIZE;

/// A page number from one of four pools, so that operations collide: the
/// leaf edges, the eight pages around the BAR base, the first two leaves,
/// and anywhere below 2^20.
fn page_of(pick: u64) -> u64 {
    let n = pick / 4;
    match pick % 4 {
        0 => LEAF_EDGES[(n % 8) as usize],
        1 => BAR_PAGE - 4 + n % 8,
        2 => n % 1024,
        _ => n % (1 << 20),
    }
}

/// Region tags, the two ends of an entry's region field among them.
const REGIONS: [RegionId; 4] = [
    RegionId::GLOBAL,
    RegionId(0),
    RegionId(2),
    RegionId(u32::MAX - 1),
];

/// Frames an entry can name: system-physical addresses below 2^39.
const FRAME_LIMIT: u64 = 1 << (39 - 12);

/// A frame number from one of three pools: anywhere below 2^20, the
/// highest frames an entry can hold, and the first ones it cannot.
fn frame_of(pick: u64) -> u64 {
    let n = pick / 3;
    match pick % 3 {
        0 => n % (1 << 20),
        1 => FRAME_LIMIT - 1 - n % 4,
        _ => FRAME_LIMIT + n % 4,
    }
}

/// What the EPT must answer for `gpa`, read off the model.
fn ept_expect(
    model: &BTreeMap<u64, (u64, Access)>,
    gpa: GuestPhysAddr,
    attempted: Access,
) -> Result<PhysAddr, EptViolation> {
    let (mapped, allowed) = match model.get(&gpa.page_number()) {
        Some(&(frame, access)) if access.contains(attempted) => {
            return Ok(PhysAddr::new(frame * PAGE_SIZE + gpa.page_offset()));
        }
        Some(&(_, access)) => (true, access),
        None => (false, Access::NONE),
    };
    Err(EptViolation {
        gpa,
        attempted,
        allowed,
        mapped,
    })
}

/// What the IOMMU domain must answer for `dma`, read off the model.
fn iommu_expect(
    model: &BTreeMap<u64, (u64, Access, RegionId)>,
    active: Option<RegionId>,
    dma: DmaAddr,
    attempted: Access,
) -> Result<PhysAddr, IommuFault> {
    let &(frame, allowed, region) = model
        .get(&dma.page_number())
        .ok_or(IommuFault::Unmapped { dma })?;
    if region != RegionId::GLOBAL && Some(region) != active {
        return Err(IommuFault::RegionInactive {
            dma,
            region,
            active,
        });
    }
    if !allowed.contains(attempted) {
        return Err(IommuFault::InsufficientRights {
            dma,
            attempted,
            allowed,
        });
    }
    Ok(PhysAddr::new(frame * PAGE_SIZE + dma.page_offset()))
}

fn region_pages(model: &BTreeMap<u64, (u64, Access, RegionId)>, region: RegionId) -> usize {
    model.values().filter(|&&(_, _, r)| r == region).count()
}

/// Frames in the differential test: few, so frees and reallocations are
/// frequent and ranges often reach an unallocated or a missing frame.
const FLAT_FRAMES: u64 = 6;

/// The reference [`SystemMemory`]: every frame a flat page of bytes plus an
/// allocated flag, handed out most recently freed first, then lowest first.
struct FlatMemory {
    frames: Vec<(bool, Vec<u8>)>,
    freed: Vec<u64>,
    used: u64,
}

impl FlatMemory {
    fn new() -> Self {
        FlatMemory {
            frames: (0..FLAT_FRAMES)
                .map(|_| (false, vec![0; PAGE_SIZE as usize]))
                .collect(),
            freed: Vec::new(),
            used: 0,
        }
    }

    fn alloc(&mut self) -> Result<u64, MemError> {
        let number = match self.freed.pop() {
            Some(number) => number,
            None if self.used < FLAT_FRAMES => {
                self.used += 1;
                self.used - 1
            }
            None => return Err(MemError::OutOfFrames),
        };
        self.frames[number as usize] = (true, vec![0; PAGE_SIZE as usize]);
        Ok(number)
    }

    fn free(&mut self, number: u64) -> Result<(), MemError> {
        let addr = PhysAddr::new(number * PAGE_SIZE);
        match self.frames.get_mut(number as usize) {
            None => Err(MemError::OutOfBounds { addr }),
            Some((false, _)) => Err(MemError::BadFree { addr }),
            Some((allocated, _)) => {
                *allocated = false;
                self.freed.push(number);
                Ok(())
            }
        }
    }

    /// The first error an access to `[addr, addr + len)` meets.
    fn check(&self, addr: PhysAddr, len: u64) -> Result<(), MemError> {
        for (chunk, _) in page_chunks(addr, len).unwrap() {
            match self.frames.get(chunk.page_number() as usize) {
                None => return Err(MemError::OutOfBounds { addr: chunk }),
                Some((false, _)) => return Err(MemError::Unallocated { addr: chunk }),
                Some(_) => {}
            }
        }
        Ok(())
    }

    fn read(&self, addr: PhysAddr, len: u64) -> Result<Vec<u8>, MemError> {
        self.check(addr, len)?;
        let mut out = Vec::new();
        for (chunk, n) in page_chunks(addr, len).unwrap() {
            let off = chunk.page_offset() as usize;
            out.extend_from_slice(
                &self.frames[chunk.page_number() as usize].1[off..off + n as usize],
            );
        }
        Ok(out)
    }

    fn write(&mut self, addr: PhysAddr, bytes: &[u8]) -> Result<(), MemError> {
        self.check(addr, bytes.len() as u64)?;
        let mut done = 0;
        for (chunk, n) in page_chunks(addr, bytes.len() as u64).unwrap() {
            let off = chunk.page_offset() as usize;
            let frame = &mut self.frames[chunk.page_number() as usize].1;
            frame[off..off + n as usize].copy_from_slice(&bytes[done..done + n as usize]);
            done += n as usize;
        }
        Ok(())
    }

    /// A copy between chunk lists: every chunk checked in order, then the
    /// source read whole and written whole (callers' ranges here do not
    /// overlap across chunks).
    fn copy(&mut self, from: &[(PhysAddr, u64)], to: &[(PhysAddr, u64)]) -> Result<(), MemError> {
        for &(addr, n) in from.iter().chain(to) {
            if n > PAGE_SIZE - addr.page_offset() {
                return Err(MemError::OutOfBounds { addr });
            }
            self.check(addr, n)?;
        }
        let mut bytes = Vec::new();
        for &(addr, n) in from {
            bytes.extend(self.read(addr, n)?);
        }
        let mut done = 0;
        for &(addr, n) in to {
            self.write(addr, &bytes[done..done + n as usize])?;
            done += n as usize;
        }
        Ok(())
    }

    fn allocated(&self) -> usize {
        self.frames
            .iter()
            .filter(|(allocated, _)| *allocated)
            .count()
    }

    /// Allocated frames holding a nonzero byte: a lower bound on the
    /// frames the real memory must have backed.
    fn written(&self) -> usize {
        self.frames
            .iter()
            .filter(|(allocated, bytes)| *allocated && bytes.iter().any(|&b| b != 0))
            .count()
    }
}

/// An address in or just past the differential test's memory, near a frame
/// edge half the time.
fn flat_addr(pick: u64) -> PhysAddr {
    let page = (pick >> 1) % (FLAT_FRAMES + 1);
    let offset = if pick & 1 == 0 {
        (pick >> 8) % PAGE_SIZE
    } else {
        PAGE_SIZE - 1 - (pick >> 8) % 16
    };
    PhysAddr::new(page * PAGE_SIZE + offset)
}

proptest! {
    /// `page_chunks` covers the range exactly once, in order, without
    /// crossing page boundaries.
    #[test]
    fn page_chunks_partition_the_range(addr in 0u64..1 << 40, len in 0u64..1 << 16) {
        let chunks: Vec<(PhysAddr, u64)> = page_chunks(PhysAddr::new(addr), len).unwrap().collect();
        // Total length matches.
        let total: u64 = chunks.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, len);
        // Contiguous and within-page.
        let mut cursor = addr;
        for (start, chunk_len) in chunks {
            prop_assert_eq!(start.raw(), cursor);
            prop_assert!(chunk_len > 0);
            let end = start.raw() + chunk_len - 1;
            prop_assert_eq!(start.raw() / PAGE_SIZE, end / PAGE_SIZE, "chunk crosses a page");
            cursor += chunk_len;
        }
        prop_assert_eq!(pages_for(len) >= len.div_ceil(PAGE_SIZE), true);
    }

    /// EPT mappings translate exactly what was mapped, with offsets
    /// preserved, and permission checks are monotone: granting more rights
    /// never breaks an access that worked.
    #[test]
    fn ept_translation_and_permission_monotonicity(
        pages in proptest::collection::btree_map(0u64..4096, (0u64..4096, 0u8..3), 1..32),
        probe_offset in 0u64..4096,
    ) {
        let mut ept = Ept::new();
        for (&gpn, &(pfn, access_pick)) in &pages {
            let access = match access_pick {
                0 => Access::READ,
                1 => Access::RW,
                _ => Access::RWX,
            };
            ept.map(
                GuestPhysAddr::new(gpn * PAGE_SIZE),
                PhysAddr::new(pfn * PAGE_SIZE),
                access,
            ).unwrap();
        }
        for (&gpn, &(pfn, access_pick)) in &pages {
            let gpa = GuestPhysAddr::new(gpn * PAGE_SIZE + probe_offset);
            // Reads always work on mapped pages (every pick includes READ).
            let pa = ept.translate(gpa, Access::READ).unwrap();
            prop_assert_eq!(pa.raw(), pfn * PAGE_SIZE + probe_offset);
            // Writes work iff the pick included WRITE.
            let writable = access_pick >= 1;
            prop_assert_eq!(ept.translate(gpa, Access::WRITE).is_ok(), writable);
            // Execute works iff RWX.
            prop_assert_eq!(ept.translate(gpa, Access::EXEC).is_ok(), access_pick == 2);
        }
    }

    /// IOMMU region gating: a mapping translates iff its region is active
    /// or global, regardless of the history of switches.
    #[test]
    fn iommu_region_gating_is_exact(
        mappings in proptest::collection::vec((0u64..256, 0u64..256, 0u8..3), 1..24),
        switches in proptest::collection::vec(0u8..3, 0..8),
    ) {
        let mut dom = IommuDomain::new();
        // Three regions: GLOBAL, r1, r2. Last write to a DMA page wins.
        let r = [RegionId::GLOBAL, RegionId(1), RegionId(2)];
        let mut last: std::collections::BTreeMap<u64, u8> = Default::default();
        for &(dma_pn, pfn, region_pick) in &mappings {
            dom.map(
                DmaAddr::new(dma_pn * PAGE_SIZE),
                PhysAddr::new(pfn * PAGE_SIZE),
                Access::RW,
                r[region_pick as usize],
            ).unwrap();
            last.insert(dma_pn, region_pick);
        }
        let mut active: Option<RegionId> = None;
        for &pick in &switches {
            active = if pick == 0 { None } else { Some(r[pick as usize]) };
            dom.switch_region(active);
        }
        for (&dma_pn, &region_pick) in &last {
            let ok = dom
                .translate(DmaAddr::new(dma_pn * PAGE_SIZE), Access::READ)
                .is_ok();
            let expected = region_pick == 0 || Some(r[region_pick as usize]) == active;
            prop_assert_eq!(ok, expected, "dma page {}", dma_pn);
        }
    }

    /// The EPT and an IOMMU domain, driven side by side through one random
    /// history, answer exactly what a sorted map of their entries says:
    /// every translation and its error, every edit's result, the sizes,
    /// the per-region counts, the region-switch work and the iteration
    /// order. Pages straddle leaf edges, sit at the BAR and reach 2^20;
    /// runs of up to 1 100 pages cross whole leaves. Every entry packs into
    /// one word, so every access set, both ends of the region field and
    /// the highest frame come back unchanged, and a frame past 2^39 is
    /// refused with nothing mapped.
    #[test]
    fn ept_and_iommu_agree_with_a_sorted_map(
        ops in proptest::collection::vec(
            (0u8..7, any::<u64>(), any::<u64>(), 0u8..8, any::<u64>()),
            1..160,
        ),
    ) {
        let mut ept = Ept::new();
        let mut dom = IommuDomain::new();
        let mut ept_model: BTreeMap<u64, (u64, Access)> = BTreeMap::new();
        let mut dom_model: BTreeMap<u64, (u64, Access, RegionId)> = BTreeMap::new();
        let mut active: Option<RegionId> = None;
        for &(kind, pick, frame_pick, bits, aux) in &ops {
            let page = page_of(pick);
            let frame = frame_of(frame_pick);
            let access = Access::from_bits(bits);
            let region = REGIONS[(aux % 4) as usize];
            let (gpa, dma) = (GuestPhysAddr::new(page * PAGE_SIZE), DmaAddr::new(page * PAGE_SIZE));
            let pa = PhysAddr::new(frame * PAGE_SIZE);
            let mut end = page + 1;
            match kind {
                0 => {
                    let ept_result = ept.map(gpa, pa.add(7), access);
                    if !access.is_ept_expressible() {
                        prop_assert_eq!(
                            ept_result,
                            Err(EptMapError::WriteOnlyUnsupported { requested: access })
                        );
                    } else if frame >= FRAME_LIMIT {
                        prop_assert_eq!(ept_result, Err(EptMapError::FrameBeyondWidth { frame: pa.add(7) }));
                    } else {
                        prop_assert_eq!(ept_result, Ok(()));
                        ept_model.insert(page, (frame, access));
                    }
                    let dom_result = dom.map(dma.add(9), pa, access, region);
                    if frame >= FRAME_LIMIT {
                        prop_assert_eq!(dom_result, Err(IommuFault::Unmapped { dma: dma.add(9) }));
                    } else {
                        prop_assert_eq!(dom_result, Ok(()));
                        dom_model.insert(page, (frame, access, region));
                    }
                }
                1 => {
                    let ept_frame = ept_model.remove(&page).map(|(f, _)| PhysAddr::new(f * PAGE_SIZE));
                    prop_assert_eq!(ept.unmap(gpa.add(aux % PAGE_SIZE)), ept_frame);
                    let dom_frame = dom_model.remove(&page).map(|(f, ..)| PhysAddr::new(f * PAGE_SIZE));
                    prop_assert_eq!(dom.unmap(dma), dom_frame);
                }
                2 => {
                    let expected = match ept_model.get_mut(&page) {
                        _ if !access.is_ept_expressible() => {
                            Err(EptMapError::WriteOnlyUnsupported { requested: access })
                        }
                        Some(entry) => {
                            entry.1 = access;
                            Ok(())
                        }
                        None => Err(EptMapError::NotMapped { gpa }),
                    };
                    prop_assert_eq!(ept.set_access(gpa.add(aux % PAGE_SIZE), access), expected);
                }
                3 => {
                    // Up to ~27 pages from an unaligned start, so a range
                    // crosses a leaf edge whenever it starts near one.
                    let start = gpa.add(frame_pick % PAGE_SIZE);
                    let len = aux % (27 * PAGE_SIZE);
                    let (first, last) = (start.page_number(), start.add(len.saturating_sub(1)).page_number());
                    let expected = if access.is_ept_expressible() {
                        let mut changed = 0;
                        for (_, entry) in ept_model.range_mut(first..=last) {
                            entry.1 = access;
                            changed += 1;
                        }
                        Ok(changed)
                    } else {
                        Err(EptMapError::WriteOnlyUnsupported { requested: access })
                    };
                    prop_assert_eq!(ept.set_access_range(start, len, access), expected);
                }
                4 => {
                    let next = [None, Some(RegionId::GLOBAL), Some(RegionId(0)), Some(RegionId(u32::MAX - 1))]
                        [(aux % 4) as usize];
                    let work_of = |r: Option<RegionId>| match r {
                        Some(r) if r != RegionId::GLOBAL => region_pages(&dom_model, r),
                        _ => 0,
                    };
                    let expected = work_of(active) + work_of(next);
                    prop_assert_eq!(dom.switch_region(next), expected);
                    active = next;
                    prop_assert_eq!(dom.active_region(), active);
                }
                5 => {
                    // A run of consecutive frames, the highest ones among
                    // them, from anywhere in a leaf: short ones often, up
                    // to two whole leaves and a part one time in eight.
                    let longest = if (aux >> 40) % 8 == 0 { 1100 } else { 40 };
                    let count = (aux >> 3) % longest;
                    let first_frame = frame.min(FRAME_LIMIT - count);
                    end = page + count;
                    let frames: Vec<u64> = (first_frame..first_frame + count).collect();
                    let run = frames.iter().map(|&f| Frame::from_base(PhysAddr::new(f * PAGE_SIZE)));
                    let ept_result = ept.map_run(gpa.add(aux % PAGE_SIZE), access, run);
                    if access.is_ept_expressible() {
                        prop_assert_eq!(ept_result, Ok(()));
                        ept_model.extend((page..end).zip(&frames).map(|(p, &f)| (p, (f, access))));
                    } else {
                        prop_assert_eq!(
                            ept_result,
                            Err(EptMapError::WriteOnlyUnsupported { requested: access })
                        );
                    }
                    let run = frames.iter().map(|&f| PhysAddr::new(f * PAGE_SIZE));
                    prop_assert_eq!(dom.map_run(dma, access, region, run), Ok(()));
                    dom_model.extend((page..end).zip(&frames).map(|(p, &f)| (p, (f, access, region))));
                }
                _ => {}
            }
            // Probe the operation's first and last pages and their
            // neighbours.
            for probe in [page.saturating_sub(1), page, page + 1, end.saturating_sub(1), end] {
                let offset = (aux >> 8) % PAGE_SIZE;
                let attempted = Access::from_bits((aux >> 20) as u8);
                let gpa = GuestPhysAddr::new(probe * PAGE_SIZE + offset);
                prop_assert_eq!(ept.translate(gpa, attempted), ept_expect(&ept_model, gpa, attempted));
                let frame = ept_model.get(&probe).map(|&(f, _)| PhysAddr::new(f * PAGE_SIZE));
                prop_assert_eq!(ept.frame_of(gpa), frame);
                prop_assert_eq!(ept.translate_unchecked(gpa), frame.map(|f| f.add(offset)));
                let dma = DmaAddr::new(probe * PAGE_SIZE + offset);
                prop_assert_eq!(
                    dom.translate(dma, attempted),
                    iommu_expect(&dom_model, active, dma, attempted)
                );
            }
            prop_assert_eq!(ept.len(), ept_model.len());
            prop_assert_eq!(ept.is_empty(), ept_model.is_empty());
            prop_assert_eq!(dom.mapped_pages(), dom_model.len());
            for region in REGIONS {
                prop_assert_eq!(dom.pages_in_region(region), region_pages(&dom_model, region));
            }
        }
        let ept_order: Vec<(GuestPhysAddr, PhysAddr, Access)> = ept.iter().collect();
        let ept_expected: Vec<(GuestPhysAddr, PhysAddr, Access)> = ept_model
            .iter()
            .map(|(&page, &(frame, access))| {
                (GuestPhysAddr::new(page * PAGE_SIZE), PhysAddr::new(frame * PAGE_SIZE), access)
            })
            .collect();
        prop_assert_eq!(ept_order, ept_expected);
        let dom_order: Vec<(DmaAddr, PhysAddr, Access, RegionId)> = dom.iter().collect();
        let dom_expected: Vec<(DmaAddr, PhysAddr, Access, RegionId)> = dom_model
            .iter()
            .map(|(&page, &(frame, access, region))| {
                (DmaAddr::new(page * PAGE_SIZE), PhysAddr::new(frame * PAGE_SIZE), access, region)
            })
            .collect();
        prop_assert_eq!(dom_order, dom_expected);
    }

    /// System memory: reads observe the latest write, across arbitrary
    /// cross-frame offsets.
    #[test]
    fn sysmem_read_your_writes(
        writes in proptest::collection::vec((0u64..31 * 4096, proptest::collection::vec(any::<u8>(), 1..64)), 1..16),
    ) {
        let mut mem = SystemMemory::new(32);
        let frames: Vec<Frame> = mem.alloc_frames(32).unwrap().collect();
        let base = frames[0].base();
        // Model: a shadow buffer.
        let mut shadow = vec![0u8; 32 * 4096];
        for (offset, bytes) in &writes {
            let offset = (*offset).min(32 * 4096 - bytes.len() as u64);
            mem.write(base.add(offset), bytes).unwrap();
            shadow[offset as usize..offset as usize + bytes.len()].copy_from_slice(bytes);
        }
        let mut out = vec![0u8; 32 * 4096];
        mem.read(base, &mut out).unwrap();
        prop_assert_eq!(out, shadow);
    }

    /// `SystemMemory` and a flat reference model, driven through one random
    /// history of allocations, frees, reallocations, reads and writes (of
    /// bytes and of `u64`s, straddling frames and reaching unallocated and
    /// missing ones) and copies (between any mix of written and
    /// never-written frames, and overlapping inside one frame), return the
    /// same bytes and the same errors for every operation. Frames hold
    /// bytes only once written: a read or a failed operation backs none.
    #[test]
    fn sysmem_agrees_with_a_flat_model(
        ops in proptest::collection::vec((0u8..9, any::<u64>(), any::<u64>(), 0u64..6000), 1..120),
    ) {
        let mut mem = SystemMemory::new(FLAT_FRAMES as usize);
        let mut flat = FlatMemory::new();
        for (kind, a, b, len) in ops {
            let (at, to) = (flat_addr(a), flat_addr(b));
            let bytes: Vec<u8> = (0..len).map(|i| (b >> (i % 8 * 8)) as u8 | 1).collect();
            let backed = mem.backed_frames();
            let result = match kind {
                0 => {
                    let frame = mem.alloc_frame().map(|f| f.number());
                    prop_assert_eq!(frame, flat.alloc());
                    frame.map(drop)
                }
                1 => {
                    let number = (a >> 1) % (FLAT_FRAMES + 1);
                    let result = mem.free_frame(Frame::from_base(PhysAddr::new(number * PAGE_SIZE)));
                    prop_assert_eq!(result, flat.free(number));
                    result
                }
                2 => {
                    let mut out = vec![0u8; len as usize];
                    let result = mem.read(at, &mut out);
                    let expected = flat.read(at, len);
                    prop_assert_eq!(result.map(|()| out), expected.clone());
                    prop_assert_eq!(mem.backed_frames(), backed);
                    expected.map(drop)
                }
                3 => {
                    let result = mem.write(at, &bytes);
                    prop_assert_eq!(result, flat.write(at, &bytes));
                    result
                }
                4 => {
                    let result = mem.read_u64(at);
                    let expected = flat.read(at, 8).map(|v| u64::from_le_bytes(v.try_into().unwrap()));
                    prop_assert_eq!(result, expected);
                    prop_assert_eq!(mem.backed_frames(), backed);
                    result.map(drop)
                }
                5 => {
                    let result = mem.write_u64(at, b);
                    prop_assert_eq!(result, flat.write(at, &b.to_le_bytes()));
                    result
                }
                6 | 7 => {
                    // Two ranges that share no byte, split at page edges;
                    // kind 7 hands the destination over as one chunk, which
                    // leaves its frame when it straddles an edge.
                    let len = len.min(2 * PAGE_SIZE);
                    if at.raw() < to.raw() + len && to.raw() < at.raw() + len {
                        continue;
                    }
                    let from: Vec<_> = page_chunks(at, len).unwrap().collect();
                    let to: Vec<_> = if kind == 6 {
                        page_chunks(to, len).unwrap().collect()
                    } else {
                        vec![(to, len)]
                    };
                    let result = mem.copy(&from, &to);
                    prop_assert_eq!(result, flat.copy(&from, &to));
                    result
                }
                _ => {
                    // Overlapping, inside one frame: memmove semantics.
                    let frame = at.page_number() * PAGE_SIZE;
                    let len = len % PAGE_SIZE;
                    let (src, dst) = (a % (PAGE_SIZE - len + 1), b % (PAGE_SIZE - len + 1));
                    let (from, to) = (PhysAddr::new(frame + src), PhysAddr::new(frame + dst));
                    let result = mem.copy(&[(from, len)], &[(to, len)]);
                    prop_assert_eq!(result, flat.copy(&[(from, len)], &[(to, len)]));
                    result
                }
            };
            if result.is_err() {
                prop_assert_eq!(mem.backed_frames(), backed);
            }
            prop_assert_eq!(mem.allocated_frames(), flat.allocated());
            prop_assert_eq!(mem.free_frames(), FLAT_FRAMES as usize - flat.allocated());
            prop_assert!(mem.backed_frames() <= mem.allocated_frames());
            prop_assert!(mem.backed_frames() >= flat.written());
        }
        for number in 0..FLAT_FRAMES {
            let addr = PhysAddr::new(number * PAGE_SIZE);
            let mut out = vec![0u8; PAGE_SIZE as usize];
            let result = mem.read(addr, &mut out);
            prop_assert_eq!(result.map(|()| out), flat.read(addr, PAGE_SIZE));
        }
    }

    /// Frame allocator: handles are unique, frees are reusable, and the
    /// free count is conserved.
    #[test]
    fn frame_allocator_conservation(ops in proptest::collection::vec(any::<bool>(), 1..64)) {
        let total = 16usize;
        let mut mem = SystemMemory::new(total);
        let mut live = Vec::new();
        for op in ops {
            if op || live.is_empty() {
                match mem.alloc_frame() {
                    Ok(frame) => {
                        prop_assert!(
                            live.iter().all(|f: &paradice_mem::Frame| f.base() != frame.base())
                        );
                        live.push(frame);
                    }
                    Err(_) => prop_assert_eq!(live.len(), total),
                }
            } else {
                let frame = live.pop().unwrap();
                mem.free_frame(frame).unwrap();
            }
            prop_assert_eq!(mem.allocated_frames() + mem.free_frames(), total);
            prop_assert_eq!(mem.allocated_frames(), live.len());
        }
    }
}
