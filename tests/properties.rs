//! Property-based tests on the core invariants.
//!
//! The load-bearing properties of the paper's design, checked under
//! randomized inputs:
//!
//! * grant validation is *sound*: no request outside a declared grant ever
//!   validates (fault isolation, §4.1);
//! * the sharded table is the grant kernel published, nothing more: the two
//!   agree on every reference, verdict and count;
//! * the analyzer's extraction *agrees with the driver*: the operations the
//!   JIT predicts are exactly the operations the driver performs (§4.1);
//! * two-stage translation round-trips;
//! * `_IOC` encode/decode round-trips;
//! * the VRAM allocator never double-allocates or leaks.

use proptest::prelude::*;

use paradice_devfs::ioc::{IoctlCmd, IoctlDir, MAX_IOC_SIZE};
use paradice_hypervisor::grants::{GrantTable, MemOpGrant, MemOpRequest, GRANT_TABLE_CAPACITY};
use paradice_hypervisor::ShardedGrantTable;
use paradice_mem::pagetable::{FlatGpaSpace, GuestPageTables};
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

proptest! {
    /// Soundness: a copy request validates only if some declared grant of
    /// the same direction fully contains it.
    #[test]
    fn grant_validation_is_sound(
        grant_addr in 0u64..1 << 32,
        grant_len in 0u64..1 << 16,
        req_addr in 0u64..1 << 32,
        req_len in 0u64..1 << 16,
        to_guest in any::<bool>(),
        req_to_guest in any::<bool>(),
    ) {
        let mut table = GrantTable::new();
        let grant_op = if to_guest {
            MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(grant_addr), len: grant_len }
        } else {
            MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(grant_addr), len: grant_len }
        };
        let reference = table.declare(vec![grant_op]).unwrap();
        let request = if req_to_guest {
            MemOpRequest::CopyToGuest { addr: GuestVirtAddr::new(req_addr), len: req_len }
        } else {
            MemOpRequest::CopyFromGuest { addr: GuestVirtAddr::new(req_addr), len: req_len }
        };
        let allowed = table.validate(reference, &request).is_ok();
        let contained = to_guest == req_to_guest
            && req_addr >= grant_addr
            && req_addr.checked_add(req_len)
                .is_some_and(|end| end <= grant_addr.saturating_add(grant_len));
        prop_assert_eq!(allowed, contained);
    }

    /// Revoked grants never validate anything.
    #[test]
    fn revoked_grants_are_dead(addr in 0u64..1 << 30, len in 1u64..4096) {
        let mut table = GrantTable::new();
        let reference = table
            .declare(vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            }])
            .unwrap();
        table.revoke(reference);
        let request = MemOpRequest::CopyToGuest { addr: GuestVirtAddr::new(addr), len };
        prop_assert!(table.validate(reference, &request).is_err());
    }

    /// One kernel, two substrates: any declare / validate / validate_batch /
    /// revoke / revoke_all script yields identical references, verdicts and
    /// outstanding counts on a guest-qualified `GrantTable` and on that
    /// guest's shard of a `ShardedGrantTable`. The prefill makes
    /// `TableFull` reachable.
    #[test]
    fn sharded_table_agrees_with_the_kernel(
        prefill in 0usize..=GRANT_TABLE_CAPACITY,
        script in proptest::collection::vec((0u8..16, 0u32..300, 0u64..0x100), 1..120),
    ) {
        const GUEST: u32 = 3;
        let mut kernel = GrantTable::for_guest(GUEST);
        let sharded = ShardedGrantTable::with_guests(GUEST as usize + 1);
        // The n-th issued reference grants [n·4K, n·4K + 0x80).
        let window = |seq: u64| vec![MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(seq * 0x1000),
            len: 0x80,
        }];
        let mut issued = 0u64;
        let declares = std::iter::repeat_n((0u8, 0u32, 0u64), prefill);
        for (kind, seq, offset) in declares.chain(script) {
            // `seq` names a live, revoked or never-issued reference.
            let target = ShardedGrantTable::compose_ref(GUEST, seq);
            let request = |offset: u64| MemOpRequest::CopyFromGuest {
                addr: GuestVirtAddr::new(u64::from(seq) * 0x1000 + offset),
                len: 0x20,
            };
            match kind {
                0..=6 => {
                    let declared = kernel.declare(window(issued));
                    prop_assert_eq!(sharded.declare(GUEST, window(issued)), declared);
                    issued += u64::from(declared.is_ok());
                }
                7..=9 => prop_assert_eq!(
                    sharded.validate(GUEST, target, &request(offset)),
                    kernel.validate(target, &request(offset))
                ),
                10..=11 => {
                    let batch = [request(0), request(offset), request(0x60)];
                    prop_assert_eq!(
                        sharded.validate_batch(GUEST, target, &batch),
                        kernel.validate_batch(target, &batch)
                    );
                }
                12..=14 => prop_assert_eq!(sharded.revoke(GUEST, target), kernel.revoke(target)),
                _ => prop_assert_eq!(sharded.revoke_all(), kernel.revoke_all()),
            }
            prop_assert_eq!(sharded.outstanding_of(GUEST), kernel.outstanding());
            prop_assert_eq!(sharded.outstanding(), kernel.outstanding());
        }
    }

    /// `_IOC` fields survive the 32-bit encoding.
    #[test]
    fn ioc_roundtrip(
        dir in 0u8..4,
        ty in any::<u8>(),
        nr in any::<u8>(),
        size in 0u32..=MAX_IOC_SIZE,
    ) {
        let dir = match dir {
            0 => IoctlDir::None,
            1 => IoctlDir::Read,
            2 => IoctlDir::Write,
            _ => IoctlDir::ReadWrite,
        };
        let cmd = IoctlCmd::new(dir, ty, nr, size);
        prop_assert_eq!(cmd.dir(), dir);
        prop_assert_eq!(cmd.ty(), ty);
        prop_assert_eq!(cmd.nr(), nr);
        prop_assert_eq!(cmd.size(), size);
        prop_assert_eq!(IoctlCmd(cmd.raw()), cmd);
    }

    /// Guest page tables: whatever is mapped translates back exactly, and
    /// unmapped neighbours stay unmapped.
    #[test]
    fn page_table_roundtrip(pages in proptest::collection::btree_map(0u64..512, 0u64..4096, 1..40)) {
        let mut space = FlatGpaSpace::new(4096);
        let mut pt = GuestPageTables::new(&mut space).unwrap();
        for (&vpage, &ppage) in &pages {
            pt.map(
                &mut space,
                GuestVirtAddr::new(vpage * PAGE_SIZE),
                GuestPhysAddr::new(ppage * PAGE_SIZE),
                Access::RW,
            )
            .unwrap();
        }
        for (&vpage, &ppage) in &pages {
            let mapping = pt.walk(&space, GuestVirtAddr::new(vpage * PAGE_SIZE)).unwrap();
            prop_assert_eq!(mapping.gpa.page_number(), ppage);
        }
        // A page just past the mapped set is unmapped (unless it happens to
        // be in the set).
        let probe = pages.keys().max().unwrap() + 1;
        if !pages.contains_key(&probe) {
            prop_assert!(pt.walk(&space, GuestVirtAddr::new(probe * PAGE_SIZE)).is_err());
        }
    }

    /// The VRAM allocator hands out disjoint, in-range extents and frees
    /// them fully.
    #[test]
    fn vram_allocator_invariants(sizes in proptest::collection::vec(1u64..64 * 1024, 1..20)) {
        use paradice_drivers::gpu::bo::VramAllocator;
        let total = 16 * 1024 * 1024u64;
        let mut vram = VramAllocator::new(0, total);
        let mut live: Vec<(u64, u64)> = Vec::new();
        for &size in &sizes {
            if let Ok(offset) = vram.alloc(size) {
                let span = size.div_ceil(PAGE_SIZE) * PAGE_SIZE;
                // In range.
                prop_assert!(offset + span <= total);
                // Disjoint from everything live.
                for &(o, s) in &live {
                    prop_assert!(offset + span <= o || o + s <= offset);
                }
                live.push((offset, span));
            } // exhaustion is legal
        }
        let free_before = vram.free_bytes();
        let allocated: u64 = live.iter().map(|&(_, s)| s).sum();
        prop_assert_eq!(free_before + allocated, total);
        for (offset, _) in live {
            vram.free(offset).unwrap();
        }
        prop_assert_eq!(vram.free_bytes(), total);
    }

    /// The analyzer's JIT prediction matches the driver's actual memory
    /// operations for randomized CS submissions (the §4.1 ground truth).
    #[test]
    fn analyzer_predicts_cs_ops(
        num_chunks in 1u32..5,
        lens in proptest::collection::vec(1u32..64, 5),
    ) {
        use paradice_analyzer::extract::{extract_command, Extraction};
        use paradice_analyzer::jit::{evaluate_slice, UserReader};
        use paradice_drivers::gpu::driver::RADEON_CS;
        use paradice_drivers::gpu::ir::radeon_handler_3_2_0;

        // A synthetic user memory with CS args at 0x100, headers at 0x200,
        // chunk data high up.
        struct Flat(Vec<u8>);
        impl UserReader for Flat {
            fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
                let start = addr as usize;
                let end = start.checked_add(buf.len()).ok_or(())?;
                buf.copy_from_slice(self.0.get(start..end).ok_or(())?);
                Ok(())
            }
        }
        let mut mem = vec![0u8; 1 << 16];
        let args_at = 0x100u64;
        let headers_at = 0x200u64;
        mem[args_at as usize..args_at as usize + 8]
            .copy_from_slice(&headers_at.to_le_bytes());
        mem[args_at as usize + 8..args_at as usize + 12]
            .copy_from_slice(&num_chunks.to_le_bytes());
        for (i, &length_dw) in lens.iter().enumerate().take(num_chunks as usize) {
            let header = headers_at as usize + i * 16;
            let data_ptr = 0x1000u64 + i as u64 * 0x400;
            mem[header..header + 8].copy_from_slice(&data_ptr.to_le_bytes());
            mem[header + 8..header + 12].copy_from_slice(&length_dw.to_le_bytes());
            mem[header + 12..header + 16].copy_from_slice(&1u32.to_le_bytes()); // IB
        }

        let extraction = extract_command(&radeon_handler_3_2_0(), RADEON_CS.raw()).unwrap();
        let Extraction::Jit { slice, .. } = extraction else {
            panic!("CS must be a JIT command");
        };
        let ops = evaluate_slice(&slice, RADEON_CS.raw(), args_at, &mut Flat(mem)).unwrap();
        // Expected: args-in + per-chunk (header + data) + args-out.
        prop_assert_eq!(ops.len(), 1 + 2 * num_chunks as usize + 1);
        prop_assert_eq!(ops[0].addr, args_at);
        prop_assert_eq!(ops[0].len, 16);
        for i in 0..num_chunks as usize {
            let header_op = &ops[1 + 2 * i];
            prop_assert_eq!(header_op.addr, headers_at + i as u64 * 16);
            prop_assert_eq!(header_op.len, 16);
            let data_op = &ops[2 + 2 * i];
            prop_assert_eq!(data_op.addr, 0x1000 + i as u64 * 0x400);
            prop_assert_eq!(data_op.len, u64::from(lens[i]) * 4);
        }
    }

    /// netmap ring arithmetic: free slots + used slots == capacity − 1.
    #[test]
    fn ring_accounting(head in 0u32..256, tail in 0u32..256) {
        use paradice_drivers::netmap::NUM_SLOTS;
        let used = (head + NUM_SLOTS - tail) % NUM_SLOTS;
        let free = NUM_SLOTS - 1 - used;
        prop_assert!(used < NUM_SLOTS);
        prop_assert_eq!(used + free, NUM_SLOTS - 1);
    }
}

// Deterministic companion: the wire protocol fuzz (decode never panics and
// encode∘decode is identity — exercised with random bytes).
proptest! {
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = paradice_cvd::proto::WireRequest::decode(&bytes);
        let _ = paradice_cvd::proto::WireResponse::decode(&bytes);
        let _ = paradice_cvd::proto::WireSignal::decode(&bytes);
    }
}
