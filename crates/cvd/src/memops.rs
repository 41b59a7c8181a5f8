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

use paradice_devfs::{Errno, MemOps};
use paradice_drivers::env::hv_to_errno;
use paradice_hypervisor::{GrantRef, MemOp, SharedHypervisor, VmId};
use paradice_mem::iommu::DomainId;
use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr};

/// A guest-visible write held for the next flush (it owns its bytes: the
/// driver's buffer is only borrowed for the call).
#[derive(Debug)]
enum Deferred {
    CopyToGuest {
        dst: GuestVirtAddr,
        data: Vec<u8>,
    },
    InsertPfn {
        va: GuestVirtAddr,
        pfn: u64,
        access: Access,
    },
    ZapPage {
        va: GuestVirtAddr,
    },
}

impl Deferred {
    fn op(&self) -> MemOp<'_> {
        match *self {
            Deferred::CopyToGuest { dst, ref data } => MemOp::CopyToGuest { dst, data },
            Deferred::InsertPfn { va, pfn, access } => MemOp::InsertPfn {
                va,
                driver_pfn: pfn,
                access,
            },
            Deferred::ZapPage { va } => MemOp::ZapPage { va },
        }
    }
}

/// The Paradice [`MemOps`]: every memory operation goes through
/// `Hypervisor::hc_memops`, validated against the guest's grant table
/// (§4.1).
///
/// Immediately (the paper's baseline), each operation is its own
/// hypercall. Deferred (the fast path), guest-visible writes
/// (`copy_to_user`, `insert_pfn`, `zap_pfn`) are queued; a `copy_from_user`
/// appends the read to the queue and issues the whole queue as one
/// hypercall, applied in order, so the read observes the queued writes. The
/// dispatcher must call [`HypercallMemOps::flush`] when the file operation
/// returns so trailing writes land before the response is posted. One
/// ungranted operation refuses its whole hypercall — in deferred mode, every
/// write queued with it — so a partially applied wild batch never reaches
/// the guest.
pub struct HypercallMemOps {
    hv: SharedHypervisor,
    driver_vm: VmId,
    guest: VmId,
    pt_root: GuestPhysAddr,
    grant: GrantRef,
    domain: Option<DomainId>,
    defer: bool,
    pending: Vec<Deferred>,
}

impl std::fmt::Debug for HypercallMemOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HypercallMemOps")
            .field("driver_vm", &self.driver_vm)
            .field("guest", &self.guest)
            .field("grant", &self.grant)
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl HypercallMemOps {
    /// Binds one file operation's memory-operation context; `defer` queues
    /// guest-visible writes until the next read or [`Self::flush`].
    pub fn new(
        hv: SharedHypervisor,
        driver_vm: VmId,
        guest: VmId,
        pt_root: GuestPhysAddr,
        grant: GrantRef,
        domain: Option<DomainId>,
        defer: bool,
    ) -> Self {
        HypercallMemOps {
            hv,
            driver_vm,
            guest,
            pt_root,
            grant,
            domain,
            defer,
            pending: Vec::new(),
        }
    }

    /// Number of queued, not-yet-issued operations.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Issues everything queued, then `last`, as one hypercall.
    fn issue(&mut self, last: Option<MemOp<'_>>) -> Result<(), Errno> {
        if self.pending.is_empty() {
            return last.map_or(Ok(()), |op| self.call(&mut [op]));
        }
        let pending = std::mem::take(&mut self.pending);
        let mut ops: Vec<MemOp<'_>> = pending.iter().map(Deferred::op).chain(last).collect();
        self.call(&mut ops)
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

    /// Issues a guest-visible write now, or queues it when deferring.
    fn write(&mut self, op: MemOp<'_>) -> Result<(), Errno> {
        if !self.defer {
            return self.call(&mut [op]);
        }
        self.pending.push(match op {
            MemOp::CopyToGuest { dst, data } => Deferred::CopyToGuest {
                dst,
                data: data.to_vec(),
            },
            MemOp::InsertPfn {
                va,
                driver_pfn,
                access,
            } => Deferred::InsertPfn {
                va,
                pfn: driver_pfn,
                access,
            },
            MemOp::ZapPage { va } => Deferred::ZapPage { va },
            MemOp::CopyFromGuest { .. } => unreachable!("a read is issued, never queued"),
        });
        Ok(())
    }

    /// Flushes all queued operations; must run before the dispatch's
    /// response is posted. All-or-nothing on a grant violation.
    pub fn flush(&mut self) -> Result<(), Errno> {
        self.issue(None)
    }
}

impl MemOps for HypercallMemOps {
    fn copy_from_user(&mut self, src: GuestVirtAddr, buf: &mut [u8]) -> Result<(), Errno> {
        self.issue(Some(MemOp::CopyFromGuest { src, buf }))
    }

    fn copy_to_user(&mut self, dst: GuestVirtAddr, buf: &[u8]) -> Result<(), Errno> {
        self.write(MemOp::CopyToGuest { dst, data: buf })
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
            HypercallMemOps::new(shared.clone(), driver, guest, pt.root(), grant, None, false);
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
        let mut memops =
            HypercallMemOps::new(shared.clone(), driver, guest, pt.root(), grant, None, true);
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
        let mut memops =
            HypercallMemOps::new(shared.clone(), driver, guest, pt.root(), grant, None, true);
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
        let mut memops =
            HypercallMemOps::new(shared.clone(), driver, guest, pt.root(), grant, None, true);
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
}
