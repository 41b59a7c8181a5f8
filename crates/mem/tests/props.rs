//! Property tests for the memory substrate: the translation and permission
//! invariants everything above relies on.

use std::collections::BTreeMap;

use proptest::prelude::*;

use paradice_mem::addr::{page_chunks, pages_for};
use paradice_mem::ept::EptMapError;
use paradice_mem::iommu::IommuDomain;
use paradice_mem::{
    Access, DmaAddr, Ept, EptViolation, GuestPhysAddr, IommuFault, PhysAddr, RegionId,
    SystemMemory, PAGE_SIZE,
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

const REGIONS: [RegionId; 3] = [RegionId::GLOBAL, RegionId(1), RegionId(2)];

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
            );
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
    /// order. Pages straddle leaf edges, sit at the BAR and reach 2^20.
    #[test]
    fn ept_and_iommu_agree_with_a_sorted_map(
        ops in proptest::collection::vec(
            (0u8..6, any::<u64>(), 0u64..1 << 20, 0u8..8, any::<u64>()),
            1..160,
        ),
    ) {
        let mut ept = Ept::new();
        let mut dom = IommuDomain::new();
        let mut ept_model: BTreeMap<u64, (u64, Access)> = BTreeMap::new();
        let mut dom_model: BTreeMap<u64, (u64, Access, RegionId)> = BTreeMap::new();
        let mut active: Option<RegionId> = None;
        for &(kind, pick, frame, bits, aux) in &ops {
            let page = page_of(pick);
            let access = Access::from_bits(bits);
            let region = REGIONS[(aux % 3) as usize];
            let (gpa, dma) = (GuestPhysAddr::new(page * PAGE_SIZE), DmaAddr::new(page * PAGE_SIZE));
            match kind {
                0 => {
                    let ept_result = ept.map(gpa, PhysAddr::new(frame * PAGE_SIZE + 7), access);
                    if access.is_ept_expressible() {
                        prop_assert_eq!(ept_result, Ok(()));
                        ept_model.insert(page, (frame, access));
                    } else {
                        prop_assert_eq!(
                            ept_result,
                            Err(EptMapError::WriteOnlyUnsupported { requested: access })
                        );
                    }
                    dom.map(dma.add(9), PhysAddr::new(frame * PAGE_SIZE), access, region);
                    dom_model.insert(page, (frame, access, region));
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
                    let present = dom_model.get_mut(&page).map(|entry| entry.1 = access).is_some();
                    prop_assert_eq!(dom.set_access(dma, access), present);
                }
                3 => {
                    // Up to ~27 pages from an unaligned start, so a range
                    // crosses a leaf edge whenever it starts near one.
                    let start = gpa.add(frame % PAGE_SIZE);
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
                    let next = [None, Some(RegionId::GLOBAL), Some(RegionId(1)), Some(RegionId(2))]
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
                _ => {}
            }
            // Probe the operation's page and its two neighbours.
            for probe in [page.saturating_sub(1), page, page + 1] {
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
        let frames = mem.alloc_frames(32).unwrap();
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
