//! Property-based tests on the core invariants.
//!
//! The load-bearing properties of the paper's design, checked under
//! randomized inputs:
//!
//! * grant validation is *sound*: no request outside a declared grant ever
//!   validates (fault isolation, §4.1);
//! * the one grant store agrees with an independent model of live
//!   declarations on every verdict and count, and never issues a live
//!   reference again, also across the wrap of a guest's sequence;
//! * the analyzer's extraction *agrees with the driver*: the operations the
//!   JIT predicts are exactly the operations the driver performs (§4.1);
//! * two-stage translation round-trips;
//! * `_IOC` encode/decode round-trips;
//! * the VRAM allocator never double-allocates or leaks;
//! * a driver's memory operations cost the same work whether issued one
//!   hypercall each or deferred into one hypercall per flush, and a grant
//!   refusal applies nothing of its hypercall.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use paradice_cvd::HypercallMemOps;
use paradice_devfs::ioc::{IoctlCmd, IoctlDir, MAX_IOC_SIZE};
use paradice_devfs::{Errno, MemOps};
use paradice_hypervisor::grants::{
    GrantError, MemOpGrant, MemOpRequest, GRANT_TABLE_CAPACITY, SEQ_MASK,
};
use paradice_hypervisor::vm::VmRole;
use paradice_hypervisor::{BlockedBy, CostModel, Hypervisor, ShardedGrantTable, SimClock};
use paradice_mem::pagetable::{FlatGpaSpace, GuestPageTables};
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

/// The granted copy window of the mem-op rig's guest process.
const DATA_VA: u64 = 0x10000;
const DATA_LEN: u64 = 4 * PAGE_SIZE;
/// A mapped page of the same process that no grant covers.
const WILD_VA: u64 = 0x20000;
/// Two granted `mmap` slots.
const MAP_VA: u64 = 0x4000_0000;
const GUEST_RAM: u64 = 64 * PAGE_SIZE;

/// One driver memory operation of a mem-op script.
#[derive(Debug, Clone, Copy)]
enum Step {
    Write {
        at: u64,
        len: usize,
        byte: u8,
    },
    Read {
        at: u64,
        len: usize,
    },
    /// `insert_pfn` into the slot when it is empty, `zap_pfn` when mapped.
    Toggle {
        slot: u64,
    },
    /// An ungranted copy (into or out of `WILD_VA`).
    Wild {
        read: bool,
    },
}

/// What one run of a script leaves behind.
#[derive(Debug)]
struct MemOpRun {
    result: Result<(), Errno>,
    reads: Vec<Vec<u8>>,
    guest_ram: Vec<u8>,
    guest_ept_entries: usize,
    hypercalls: u64,
    clock_ns: u64,
    grant_refusals: usize,
}

/// Runs `script` through one [`HypercallMemOps`] on a fresh hypervisor,
/// immediate or deferred, the way a driver does: it stops at the first
/// refused operation, else flushes when the file operation returns.
fn run_memops(script: &[Step], defer: bool) -> MemOpRun {
    let mut hv = Hypervisor::new(256, SimClock::new(), CostModel::default());
    let guest = hv.create_vm(VmRole::Guest, GUEST_RAM).unwrap();
    let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
    let mut pt = GuestPageTables::new(&mut hv.gpa_space(guest)).unwrap();
    for (va, gpa) in (0..DATA_LEN / PAGE_SIZE)
        .map(|i| (DATA_VA + i * PAGE_SIZE, PAGE_SIZE + i * PAGE_SIZE))
        .chain([(WILD_VA, 8 * PAGE_SIZE)])
    {
        let (va, gpa) = (GuestVirtAddr::new(va), GuestPhysAddr::new(gpa));
        pt.map(&mut hv.gpa_space(guest), va, gpa, Access::RW)
            .unwrap();
    }
    for slot in 0..2 {
        let va = GuestVirtAddr::new(MAP_VA + slot * PAGE_SIZE);
        pt.ensure_intermediate(&mut hv.gpa_space(guest), va)
            .unwrap();
    }
    let data = GuestVirtAddr::new(DATA_VA);
    let map = GuestVirtAddr::new(MAP_VA);
    let grant = hv
        .declare_grants(
            guest,
            vec![
                MemOpGrant::CopyToGuest {
                    addr: data,
                    len: DATA_LEN,
                },
                MemOpGrant::CopyFromGuest {
                    addr: data,
                    len: DATA_LEN,
                },
                MemOpGrant::MapPages {
                    va: map,
                    pages: 2,
                    access: Access::RW,
                },
                MemOpGrant::UnmapPages { va: map, pages: 2 },
            ],
        )
        .unwrap();
    let (hypercalls, clock_ns) = (hv.hypercall_count(), hv.clock().now_ns());
    let hv = Rc::new(RefCell::new(hv));
    let mut mem = HypercallMemOps::new(hv.clone(), driver, guest, pt.root(), grant, None, defer);
    let mut mapped = [false; 2];
    let mut reads = Vec::new();
    let mut result = Ok(());
    for &step in script {
        let va = |at: u64| GuestVirtAddr::new(DATA_VA + at);
        result = match step {
            Step::Write { at, len, byte } => mem.copy_to_user(va(at), &vec![byte; len]),
            Step::Read { at, len } => {
                let mut buf = vec![0u8; len];
                let read = mem.copy_from_user(va(at), &mut buf);
                reads.push(buf);
                read
            }
            Step::Toggle { slot } => {
                let va = GuestVirtAddr::new(MAP_VA + slot * PAGE_SIZE);
                let was_mapped = mapped[slot as usize];
                mapped[slot as usize] = !was_mapped;
                if was_mapped {
                    mem.zap_pfn(va)
                } else {
                    mem.insert_pfn(va, 1 + slot, Access::RW)
                }
            }
            Step::Wild { read: true } => {
                mem.copy_from_user(GuestVirtAddr::new(WILD_VA), &mut [0; 8])
            }
            Step::Wild { read: false } => {
                mem.copy_to_user(GuestVirtAddr::new(WILD_VA), b"wild!!!!")
            }
        };
        if result.is_err() {
            break;
        }
    }
    if result.is_ok() {
        result = mem.flush();
    }
    drop(mem);
    let mut hv = hv.borrow_mut();
    let mut guest_ram = vec![0u8; GUEST_RAM as usize];
    hv.gpa_read_privileged(guest, GuestPhysAddr::new(0), &mut guest_ram)
        .unwrap();
    MemOpRun {
        result,
        reads,
        guest_ram,
        guest_ept_entries: hv.vm(guest).unwrap().ept().len(),
        hypercalls: hv.hypercall_count() - hypercalls,
        clock_ns: hv.clock().now_ns() - clock_ns,
        grant_refusals: hv.audit().count_blocked_by(BlockedBy::GrantCheck),
    }
}

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
        let table = ShardedGrantTable::with_guests(1);
        let grant_op = if to_guest {
            MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(grant_addr), len: grant_len }
        } else {
            MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(grant_addr), len: grant_len }
        };
        let reference = table.declare(0, vec![grant_op]).unwrap();
        let request = if req_to_guest {
            MemOpRequest::CopyToGuest { addr: GuestVirtAddr::new(req_addr), len: req_len }
        } else {
            MemOpRequest::CopyFromGuest { addr: GuestVirtAddr::new(req_addr), len: req_len }
        };
        let allowed = table.validate(0, reference, &request).is_ok();
        let contained = to_guest == req_to_guest
            && req_addr >= grant_addr
            && req_addr.checked_add(req_len)
                .is_some_and(|end| end <= grant_addr.saturating_add(grant_len));
        prop_assert_eq!(allowed, contained);
    }

    /// Revoked grants never validate anything.
    #[test]
    fn revoked_grants_are_dead(addr in 0u64..1 << 30, len in 1u64..4096) {
        let table = ShardedGrantTable::with_guests(1);
        let reference = table
            .declare(0, vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len,
            }])
            .unwrap();
        table.revoke(0, reference);
        let request = MemOpRequest::CopyToGuest { addr: GuestVirtAddr::new(addr), len };
        prop_assert!(table.validate(0, reference, &request).is_err());
    }

    /// The one grant store against an independent model: a map of the live
    /// declarations, checked with linear `MemOpGrant::covers`. Any
    /// declare / validate / validate_batch / revoke / revoke_all script
    /// yields the verdicts and counts the model predicts, and no issued
    /// reference equals a live one. The prefill keeps up to 127 references
    /// live; the churn then issues two pages' worth, each revoked at once,
    /// so every home slot is reused — past live residents, too — before the
    /// script probes live, stale and never-issued references. The prefill
    /// makes `TableFull` reachable, and half the cases start one page short
    /// of the wrap, so the sequence wraps while references are live.
    #[test]
    fn sharded_table_agrees_with_a_model_of_live_declarations(
        prefill in 0usize..GRANT_TABLE_CAPACITY,
        near_wrap in any::<bool>(),
        script in proptest::collection::vec((0u8..16, 0u32..640, 0u64..0x100), 1..120),
    ) {
        const GUEST: u32 = 0;
        const CHURN: usize = 2 * GRANT_TABLE_CAPACITY;
        let start = if near_wrap { SEQ_MASK + 1 - GRANT_TABLE_CAPACITY as u32 } else { 0 };
        // A neighbour shard that the script never touches.
        let table = ShardedGrantTable::with_guests(2).with_refs_spent(GUEST, start);
        let mut live: BTreeMap<_, Vec<MemOpGrant>> = BTreeMap::new();
        // The n-th issued reference grants [n·4K, n·4K + 0x80).
        let window = |n: u64| vec![MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(n * 0x1000),
            len: 0x80,
        }];
        let mut issued = 0u64;
        // Declares the next window; `TableFull` exactly when the page is.
        let mut declare = |live: &mut BTreeMap<_, _>| match table.declare(GUEST, window(issued)) {
            Ok(grant) => {
                prop_assert_eq!(ShardedGrantTable::guest_of(grant), GUEST);
                prop_assert!(!live.contains_key(&grant), "{} issued while live", grant);
                live.insert(grant, window(issued));
                issued += 1;
                Ok(Some(grant))
            }
            Err(e) => {
                prop_assert_eq!((e, live.len()), (GrantError::TableFull, GRANT_TABLE_CAPACITY));
                Ok(None)
            }
        };
        for _ in 0..prefill {
            declare(&mut live)?;
        }
        for _ in 0..CHURN {
            let grant = declare(&mut live)?.expect("a free slot remains");
            prop_assert!(table.revoke(GUEST, grant));
            live.remove(&grant);
        }
        for (kind, seq, offset) in script {
            // `seq` names a live, revoked or never-issued reference.
            let target = ShardedGrantTable::compose_ref(GUEST, (start + seq) & SEQ_MASK);
            let base = match live.get(&target).map(Vec::as_slice) {
                Some([MemOpGrant::CopyFromGuest { addr, .. }]) => addr.raw(),
                _ => u64::from(seq) * 0x1000,
            };
            let request = |offset: u64| MemOpRequest::CopyFromGuest {
                addr: GuestVirtAddr::new(base + offset),
                len: 0x20,
            };
            // The model's verdict on `requests`: the first one no window of
            // `target`'s live declaration covers.
            let expected = |requests: &[MemOpRequest]| {
                let Some(ops) = live.get(&target) else {
                    return Err((0, GrantError::UnknownRef { grant: target }));
                };
                match requests.iter().position(|r| !ops.iter().any(|op| op.covers(r))) {
                    Some(index) => Err((index, GrantError::NotCovered { grant: target })),
                    None => Ok(()),
                }
            };
            match kind {
                0..=6 => {
                    declare(&mut live)?;
                }
                7..=9 => prop_assert_eq!(
                    table.validate(GUEST, target, &request(offset)),
                    expected(&[request(offset)]).map_err(|(_, e)| e)
                ),
                10..=11 => {
                    let batch = [request(0), request(offset), request(0x60)];
                    prop_assert_eq!(table.validate_batch(GUEST, target, &batch), expected(&batch));
                }
                12..=14 => {
                    prop_assert_eq!(table.revoke(GUEST, target), live.remove(&target).is_some());
                }
                _ => {
                    prop_assert_eq!(table.revoke_all(), live.len());
                    live.clear();
                }
            }
            prop_assert_eq!(table.outstanding_of(GUEST), live.len());
            prop_assert_eq!(table.outstanding(), live.len());
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

    /// The charge rule of `Hypervisor::hc_memops`, pinned end to end: the
    /// same script of granted copies and maps leaves the same guest memory
    /// whether each operation is its own hypercall or writes are deferred
    /// to the next read or the final flush; deferral saves exactly one
    /// `hypercall_ns` per operation it folds into another's crossing. One
    /// ungranted operation at position k is audited once and refuses its
    /// whole hypercall: immediately, the operations before k stand;
    /// deferred, nothing of k's flush lands.
    #[test]
    fn memops_charge_rule_immediate_vs_deferred(
        raw in proptest::collection::vec(
            (0u8..4, 0u64..DATA_LEN - 64, 1usize..64, any::<u8>(), 0u64..2),
            1..=8,
        ),
        wild_at in 0usize..=8,
        wild_read in any::<bool>(),
    ) {
        let script: Vec<Step> = raw
            .iter()
            .map(|&(kind, at, len, byte, slot)| match kind {
                0 | 1 => Step::Write { at, len, byte },
                2 => Step::Read { at, len },
                _ => Step::Toggle { slot },
            })
            .collect();
        let immediate = run_memops(&script, false);
        let deferred = run_memops(&script, true);
        prop_assert_eq!(&immediate.result, &Ok(()));
        prop_assert_eq!(&deferred.result, &Ok(()));
        prop_assert_eq!(&immediate.guest_ram, &deferred.guest_ram);
        prop_assert_eq!(immediate.guest_ept_entries, deferred.guest_ept_entries);
        prop_assert_eq!(&immediate.reads, &deferred.reads);
        // A deferred run crosses once per read (carrying the writes queued
        // before it) and once more for writes left at the end.
        let ops = script.len() as u64;
        let reads = script.iter().filter(|s| matches!(s, Step::Read { .. })).count() as u64;
        let trailing = !matches!(script.last(), Some(Step::Read { .. }));
        let flushes = reads + u64::from(trailing);
        prop_assert_eq!(immediate.hypercalls, ops);
        prop_assert_eq!(deferred.hypercalls, flushes);
        // One operation per hypercall costs exactly its work.
        let cost = CostModel::default();
        let work: u64 = script
            .iter()
            .map(|step| match *step {
                Step::Write { at, len, .. } | Step::Read { at, len } => {
                    let pages = paradice_mem::addr::page_span(DATA_VA + at, len as u64);
                    cost.copy_cost_ns(len as u64, pages)
                }
                _ => cost.map_page_ns,
            })
            .sum();
        prop_assert_eq!(immediate.clock_ns, work);
        prop_assert_eq!(
            immediate.clock_ns - deferred.clock_ns,
            (ops - flushes) * cost.hypercall_ns
        );

        let k = wild_at.min(script.len());
        let mut wild = script.clone();
        wild.insert(k, Step::Wild { read: wild_read });
        let flush_start = script[..k]
            .iter()
            .rposition(|s| matches!(s, Step::Read { .. }))
            .map_or(0, |i| i + 1);
        for (defer, applied) in [(false, k), (true, flush_start)] {
            let refused = run_memops(&wild, defer);
            let expected = run_memops(&script[..applied], defer);
            prop_assert_eq!(&refused.result, &Err(Errno::Efault));
            prop_assert_eq!(&refused.guest_ram, &expected.guest_ram);
            prop_assert_eq!(refused.guest_ept_entries, expected.guest_ept_entries);
            prop_assert_eq!(refused.grant_refusals, 1);
            // The refused hypercall is counted but charges nothing.
            prop_assert_eq!(refused.hypercalls, expected.hypercalls + 1);
            prop_assert_eq!(refused.clock_ns, expected.clock_ns);
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
