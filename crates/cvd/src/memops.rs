//! The backend's [`MemOps`] binding: driver memory operations become
//! grant-checked hypercalls.
//!
//! "To support unmodified drivers, we provide wrapper stubs in the driver VM
//! kernel that intercept the driver's kernel function invocations for memory
//! operations and redirect them to the hypervisor through the aforementioned
//! API. … The backend then needs to attach the \[grant\] reference to every
//! request for the memory operations of that file operation" (paper §3.1,
//! §5.1). [`HypercallMemOps`] is that binding: one instance is constructed
//! per dispatched file operation, carrying the target guest, the process
//! page-table root, the grant reference, and the device's IOMMU domain (for
//! the data-isolation foreign-page check).

use std::ops::Range;

use paradice_devfs::{DriverSpan, Errno, MemOps};
use paradice_drivers::env::hv_to_errno;
use paradice_hypervisor::{GrantRef, MemOp, SharedHypervisor, VmId};
use paradice_mem::iommu::DomainId;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr};

/// Bytes of arena capacity a batch keeps between issues: one large
/// `copy_to_user` must not pin its size in the backend for good.
const ARENA_RETAIN: usize = 1 << 20;

/// A guest-visible write held for the next issue: a `copy_to_user`, whose
/// bytes the batch's arena holds (the driver's buffer is only borrowed for
/// the call), or an `insert_pfn`/`zap_pfn` as it will be issued.
#[derive(Debug)]
enum Queued {
    Copy {
        dst: GuestVirtAddr,
        bytes: Range<usize>,
    },
    Op(MemOp<'static>),
}

impl Queued {
    fn op(self, arena: &[u8]) -> MemOp<'_> {
        match self {
            Queued::Copy { dst, bytes } => MemOp::CopyToGuest {
                dst,
                data: &arena[bytes],
            },
            Queued::Op(op) => op,
        }
    }
}

/// The backend's one deferred batch, lent to each dispatch's
/// [`HypercallMemOps`] on the fast path: the queued writes, the byte arena
/// their copies point into, and the slice the batch is issued through. All
/// three keep their capacity from op to op (the arena up to
/// [`ARENA_RETAIN`]), so a warm batch allocates nothing.
#[derive(Debug, Default)]
pub struct DeferredBatch {
    queued: Vec<Queued>,
    arena: Vec<u8>,
    /// Empty between issues; only its allocation is kept.
    ops: Vec<MemOp<'static>>,
}

/// Re-types an empty slice buffer for another borrow of the batch, keeping
/// its allocation: an element-for-element `collect` reuses it in place
/// (`tests/zero_alloc.rs` pins that it does).
fn recycle<'a>(ops: Vec<MemOp<'_>>) -> Vec<MemOp<'a>> {
    ops.into_iter()
        .map(|_| unreachable!("recycled empty"))
        .collect()
}

/// The Paradice [`MemOps`]: every memory operation goes through
/// `Hypervisor::hc_memops`, validated against the guest's grant table
/// (§4.1).
///
/// Without a batch (the paper's baseline), each operation is its own
/// hypercall. With one (the fast path), guest-visible writes
/// (`copy_to_user`, `insert_pfn`, `zap_pfn`) are queued in it; a
/// `copy_from_user` appends the read to the queue and issues the whole
/// queue as one hypercall, applied in order, so the read observes the
/// queued writes. The dispatcher must call [`MemOps::flush`] when the file
/// operation returns so trailing writes land before the response is posted.
/// One ungranted operation refuses its whole hypercall — with a batch,
/// every write queued with it — so a partially applied wild batch never
/// reaches the guest. The two-sided copies issue like a `copy_from_user`:
/// at the call, with the queue in front of them.
pub struct HypercallMemOps<'b> {
    hv: SharedHypervisor,
    driver_vm: VmId,
    guest: VmId,
    pt_root: GuestPhysAddr,
    grant: GrantRef,
    domain: Option<DomainId>,
    batch: Option<&'b mut DeferredBatch>,
}

impl std::fmt::Debug for HypercallMemOps<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HypercallMemOps")
            .field("driver_vm", &self.driver_vm)
            .field("guest", &self.guest)
            .field("grant", &self.grant)
            .field("batched", &self.batch.is_some())
            .finish()
    }
}

impl<'b> HypercallMemOps<'b> {
    /// Binds one file operation's memory-operation context; with a `batch`,
    /// guest-visible writes queue in it until the next read or
    /// [`MemOps::flush`]. The lent batch starts empty: whatever a binding
    /// dropped without a flush left queued was under another op's grant.
    pub fn new(
        hv: SharedHypervisor,
        driver_vm: VmId,
        guest: VmId,
        pt_root: GuestPhysAddr,
        grant: GrantRef,
        domain: Option<DomainId>,
        mut batch: Option<&'b mut DeferredBatch>,
    ) -> Self {
        if let Some(batch) = batch.as_deref_mut() {
            batch.queued.clear();
            batch.arena.clear();
        }
        HypercallMemOps {
            hv,
            driver_vm,
            guest,
            pt_root,
            grant,
            domain,
            batch,
        }
    }

    /// Issues everything queued, then `last`, as one hypercall.
    fn issue(&mut self, last: Option<MemOp<'_>>) -> Result<(), Errno> {
        let Some(batch) = self.batch.take_if(|batch| !batch.queued.is_empty()) else {
            return last.map_or(Ok(()), |op| self.call(&mut [op]));
        };
        let mut ops = recycle(std::mem::take(&mut batch.ops));
        ops.extend(batch.queued.drain(..).map(|queued| queued.op(&batch.arena)));
        ops.extend(last);
        let result = self.call(&mut ops);
        ops.clear();
        batch.ops = recycle(ops);
        batch.arena.clear();
        batch.arena.shrink_to(ARENA_RETAIN);
        self.batch = Some(batch);
        result
    }

    fn call(&self, ops: &mut [MemOp<'_>]) -> Result<(), Errno> {
        self.hv
            .borrow_mut()
            .hc_memops(
                self.driver_vm,
                self.guest,
                self.pt_root,
                self.grant,
                self.domain,
                ops,
            )
            .map_err(|e| hv_to_errno(&e))
    }

    /// Issues an `insert_pfn`/`zap_pfn` now, or queues it in the batch.
    fn write(&mut self, op: MemOp<'static>) -> Result<(), Errno> {
        match self.batch.as_deref_mut() {
            Some(batch) => {
                batch.queued.push(Queued::Op(op));
                Ok(())
            }
            None => self.call(&mut [op]),
        }
    }
}

impl MemOps for HypercallMemOps<'_> {
    fn copy_from_user(&mut self, src: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.issue(Some(MemOp::CopyFromGuest { src, buf }))
    }

    fn copy_to_user(&mut self, dst: GuestVirtAddr, buf: &[u8]) -> Result<(), Errno> {
        let Some(batch) = self.batch.as_deref_mut() else {
            return self.call(&mut [MemOp::CopyToGuest { dst, data: buf }]);
        };
        let at = batch.arena.len();
        batch.arena.extend_from_slice(buf);
        let bytes = at..batch.arena.len();
        batch.queued.push(Queued::Copy { dst, bytes });
        Ok(())
    }

    fn copy_from_user_to_phys(
        &mut self,
        src: GuestVirtAddr,
        dst: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.issue(Some(MemOp::CopyFromGuestToDriver { src, dst, len }))
    }

    /// Issued at the call with whatever is queued, never deferred: it reads
    /// driver memory the driver could change before a flush.
    fn copy_to_user_from_phys(
        &mut self,
        dst: GuestVirtAddr,
        src: DriverSpan<'_>,
        len: u64,
    ) -> Result<(), Errno> {
        self.issue(Some(MemOp::CopyToGuestFromDriver { dst, src, len }))
    }

    fn insert_pfn(&mut self, va: GuestVirtAddr, pfn: u64, access: Access) -> Result<(), Errno> {
        self.write(MemOp::InsertPfn {
            va,
            driver_pfn: pfn,
            access,
        })
    }

    fn zap_pfn(&mut self, va: GuestVirtAddr) -> Result<(), Errno> {
        self.write(MemOp::ZapPage { va })
    }

    /// Issues every queued operation as one hypercall; must run before the
    /// dispatch's response is posted. All-or-nothing on a grant violation.
    fn flush(&mut self) -> Result<(), Errno> {
        self.issue(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_hypervisor::hv::Hypervisor;
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, MemOpGrant, SimClock};
    use paradice_mem::pagetable::GuestPageTables;
    use paradice_mem::PAGE_SIZE;
    use std::cell::RefCell;
    use std::rc::Rc;

    impl HypercallMemOps<'_> {
        /// Number of queued, not-yet-issued operations.
        fn pending_len(&self) -> usize {
            self.batch.as_ref().map_or(0, |batch| batch.queued.len())
        }
    }

    #[test]
    fn granted_ops_execute_and_ungranted_fail() {
        let mut hv = Hypervisor::new(1024, SimClock::new(), CostModel::default());
        let guest = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let mut pt = {
            let mut space = hv.gpa_space(guest);
            GuestPageTables::new(&mut space).unwrap()
        };
        {
            let mut space = hv.gpa_space(guest);
            pt.map(
                &mut space,
                GuestVirtAddr::new(0x1000),
                paradice_mem::GuestPhysAddr::new(0x1000),
                Access::RW,
            )
            .unwrap();
        }
        let grant = hv
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0x1000),
                    len: 64,
                }],
            )
            .unwrap();
        let shared = Rc::new(RefCell::new(hv));
        let mut memops =
            HypercallMemOps::new(shared.clone(), driver, guest, pt.root(), grant, None, None);
        memops
            .copy_to_user(GuestVirtAddr::new(0x1000), b"ok")
            .unwrap();
        // Reads were never granted.
        let mut buf = [0u8; 2];
        assert_eq!(
            memops.copy_from_user(GuestVirtAddr::new(0x1000), &mut buf),
            Err(Errno::Efault)
        );
        // The violation was audited.
        assert_eq!(shared.borrow().audit().len(), 1);
    }

    fn batched_fixture() -> (SharedHypervisor, VmId, VmId, GuestPageTables) {
        let mut hv = Hypervisor::new(1024, SimClock::new(), CostModel::default());
        let guest = hv.create_vm(VmRole::Guest, 64 * PAGE_SIZE).unwrap();
        let driver = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let mut pt = {
            let mut space = hv.gpa_space(guest);
            GuestPageTables::new(&mut space).unwrap()
        };
        {
            let mut space = hv.gpa_space(guest);
            pt.map(
                &mut space,
                GuestVirtAddr::new(0x1000),
                paradice_mem::GuestPhysAddr::new(0x1000),
                Access::RW,
            )
            .unwrap();
        }
        (Rc::new(RefCell::new(hv)), guest, driver, pt)
    }

    #[test]
    fn batched_writes_defer_until_flush_and_cost_one_hypercall() {
        let (shared, guest, driver, pt) = batched_fixture();
        let grant = shared
            .borrow_mut()
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0x1000),
                    len: 64,
                }],
            )
            .unwrap();
        let mut batch = DeferredBatch::default();
        let mut memops = HypercallMemOps::new(
            shared.clone(),
            driver,
            guest,
            pt.root(),
            grant,
            None,
            Some(&mut batch),
        );
        memops.copy_to_user(GuestVirtAddr::new(0x1000), b"aa").unwrap();
        memops.copy_to_user(GuestVirtAddr::new(0x1010), b"bb").unwrap();
        assert_eq!(memops.pending_len(), 2);
        // Nothing reached guest memory yet.
        let mut probe = [0u8; 2];
        shared
            .borrow_mut()
            .process_read(guest, pt.root(), GuestVirtAddr::new(0x1000), &mut probe)
            .unwrap();
        assert_eq!(&probe, &[0, 0]);
        let before = shared.borrow().hypercall_count();
        memops.flush().unwrap();
        assert_eq!(shared.borrow().hypercall_count() - before, 1);
        shared
            .borrow_mut()
            .process_read(guest, pt.root(), GuestVirtAddr::new(0x1010), &mut probe)
            .unwrap();
        assert_eq!(&probe, b"bb");
        // An empty flush is free.
        memops.flush().unwrap();
        assert_eq!(shared.borrow().hypercall_count() - before, 1);
    }

    #[test]
    fn batched_read_observes_queued_writes_in_the_same_hypercall() {
        let (shared, guest, driver, pt) = batched_fixture();
        let grant = shared
            .borrow_mut()
            .declare_grants(
                guest,
                vec![
                    MemOpGrant::CopyToGuest {
                        addr: GuestVirtAddr::new(0x1000),
                        len: 64,
                    },
                    MemOpGrant::CopyFromGuest {
                        addr: GuestVirtAddr::new(0x1000),
                        len: 64,
                    },
                ],
            )
            .unwrap();
        let mut batch = DeferredBatch::default();
        let mut memops = HypercallMemOps::new(
            shared.clone(),
            driver,
            guest,
            pt.root(),
            grant,
            None,
            Some(&mut batch),
        );
        memops
            .copy_to_user(GuestVirtAddr::new(0x1000), b"ordered")
            .unwrap();
        let before = shared.borrow().hypercall_count();
        let mut buf = [0u8; 7];
        memops.copy_from_user(GuestVirtAddr::new(0x1000), &mut buf).unwrap();
        assert_eq!(&buf, b"ordered", "read-after-write within one batch");
        assert_eq!(shared.borrow().hypercall_count() - before, 1);
        assert_eq!(memops.pending_len(), 0);
    }

    #[test]
    fn batched_flush_is_all_or_nothing_on_violation() {
        let (shared, guest, driver, pt) = batched_fixture();
        let grant = shared
            .borrow_mut()
            .declare_grants(
                guest,
                vec![MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(0x1000),
                    len: 8,
                }],
            )
            .unwrap();
        let mut batch = DeferredBatch::default();
        let mut memops = HypercallMemOps::new(
            shared.clone(),
            driver,
            guest,
            pt.root(),
            grant,
            None,
            Some(&mut batch),
        );
        memops.copy_to_user(GuestVirtAddr::new(0x1000), b"ok").unwrap();
        // Out of envelope: poisons the whole batch.
        memops.copy_to_user(GuestVirtAddr::new(0x1800), b"wild").unwrap();
        assert_eq!(memops.flush(), Err(Errno::Efault));
        let mut probe = [0u8; 2];
        shared
            .borrow_mut()
            .process_read(guest, pt.root(), GuestVirtAddr::new(0x1000), &mut probe)
            .unwrap();
        assert_eq!(&probe, &[0, 0], "granted sibling write must not apply");
        assert_eq!(shared.borrow().audit().len(), 1);
    }

    /// A batched binding over `grant` lent `batch`.
    fn lend<'b>(
        shared: &SharedHypervisor,
        (guest, driver, pt): (VmId, VmId, &GuestPageTables),
        grant: GrantRef,
        batch: &'b mut DeferredBatch,
    ) -> HypercallMemOps<'b> {
        HypercallMemOps::new(
            shared.clone(),
            driver,
            guest,
            pt.root(),
            grant,
            None,
            Some(batch),
        )
    }

    #[test]
    fn an_abandoned_binding_never_issues_under_the_next_grant() {
        let (shared, guest, driver, pt) = batched_fixture();
        let to_guest = |addr: u64| {
            vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(addr),
                len: 16,
            }]
        };
        let first = shared
            .borrow_mut()
            .declare_grants(guest, to_guest(0x1000))
            .unwrap();
        let next = shared
            .borrow_mut()
            .declare_grants(guest, to_guest(0x1800))
            .unwrap();
        let mut batch = DeferredBatch::default();
        let mut abandoned = lend(&shared, (guest, driver, &pt), first, &mut batch);
        abandoned
            .copy_to_user(GuestVirtAddr::new(0x1000), b"stale")
            .unwrap();
        assert_eq!(abandoned.pending_len(), 1);
        drop(abandoned);
        // `next` does not cover 0x1000: issuing the stale write under it
        // would refuse this op and audit a violation.
        let mut memops = lend(&shared, (guest, driver, &pt), next, &mut batch);
        assert_eq!(memops.pending_len(), 0, "a lent batch starts empty");
        memops
            .copy_to_user(GuestVirtAddr::new(0x1800), b"fresh")
            .unwrap();
        memops.flush().unwrap();
        let mut probe = [0u8; 5];
        for (at, expected) in [(0x1000, [0; 5]), (0x1800, *b"fresh")] {
            shared
                .borrow_mut()
                .process_read(guest, pt.root(), GuestVirtAddr::new(at), &mut probe)
                .unwrap();
            assert_eq!(probe, expected, "bytes at {at:#x}");
        }
        assert_eq!(shared.borrow().audit().len(), 0);
    }

    #[test]
    fn a_copy_above_the_retention_bound_gives_its_capacity_back() {
        let (shared, guest, driver, pt) = batched_fixture();
        let grant = shared
            .borrow_mut()
            .declare_grants(guest, Vec::new())
            .unwrap();
        let mut batch = DeferredBatch::default();
        let mut memops = lend(&shared, (guest, driver, &pt), grant, &mut batch);
        let big = vec![0x5a; ARENA_RETAIN + 4096];
        memops
            .copy_to_user(GuestVirtAddr::new(0x1000), &big)
            .unwrap();
        // Ungranted, so refused, but issued all the same.
        assert_eq!(memops.flush(), Err(Errno::Efault));
        drop(memops);
        assert!(batch.arena.is_empty());
        assert!(
            batch.arena.capacity() <= ARENA_RETAIN,
            "{}",
            batch.arena.capacity()
        );
    }
}
