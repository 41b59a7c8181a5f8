//! The attack harness: exercises every isolation mechanism with the attacks
//! the paper's design defends against (§4).
//!
//! The threat model: "a malicious guest VM can compromise the driver VM, but
//! not the hypervisor. Therefore … we assume that the driver VM is
//! controlled by a malicious guest VM and cannot be trusted" (§4.1). Each
//! attack here acts with the compromised driver VM's (or malicious guest's)
//! authority and reports what — if anything — stopped it. The isolation
//! integration tests assert that *every* attack is blocked and that the
//! audit log attributes the block to the right mechanism.

use paradice_devfs::Errno;
use paradice_hypervisor::audit::BlockedBy;
use paradice_hypervisor::hv::HvError;
use paradice_hypervisor::{GrantRef, MemOp, MemOpGrant};
use paradice_mem::{DmaAddr, GuestPhysAddr, GuestVirtAddr, PAGE_SIZE};

use crate::machine::Machine;

/// The result of one attempted attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// A short name for reporting.
    pub name: &'static str,
    /// Whether the attack was stopped.
    pub blocked: bool,
    /// The mechanism the audit log credits, when blocked.
    pub blocked_by: Option<BlockedBy>,
    /// Human-readable detail.
    pub detail: String,
}

fn outcome(
    machine: &Machine,
    name: &'static str,
    result: Result<(), HvError>,
    expect: BlockedBy,
) -> AttackOutcome {
    match result {
        Ok(()) => AttackOutcome {
            name,
            blocked: false,
            blocked_by: None,
            detail: "attack SUCCEEDED — isolation hole".to_owned(),
        },
        Err(e) => {
            let attributed = machine.hv().borrow().audit().count_blocked_by(expect) > 0;
            AttackOutcome {
                name,
                blocked: true,
                blocked_by: attributed.then_some(expect),
                detail: format!("refused: {e}"),
            }
        }
    }
}

/// Attack 1 — the compromised driver VM asks the hypervisor to copy data
/// into a guest kernel address that was never granted ("asking the
/// hypervisor to copy data to some sensitive memory location inside a guest
/// VM kernel", §4.1).
pub fn ungranted_copy(machine: &mut Machine, victim_index: usize) -> AttackOutcome {
    let driver_vm = machine.driver_vm();
    let victim = machine.guest_vms()[victim_index];
    let bogus_grant = GrantRef(u32::MAX);
    let result = machine.hv().borrow_mut().hc_memops(
        driver_vm,
        victim,
        GuestPhysAddr::new(0),
        bogus_grant,
        None,
        &mut [MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0xc000_0000), // "kernel" address
            data: b"rootkit",
        }],
    );
    outcome(machine, "ungranted-copy", result.map(|_| ()), BlockedBy::GrantCheck)
}

/// Attack 2 — a granted operation is replayed with inflated bounds: the
/// guest granted a 16-byte window, the driver VM asks for 4 KiB.
pub fn grant_overflow(machine: &mut Machine, victim_index: usize) -> AttackOutcome {
    let driver_vm = machine.driver_vm();
    let victim = machine.guest_vms()[victim_index];
    let grant = machine
        .hv()
        .borrow_mut()
        .declare_grants(
            victim,
            vec![MemOpGrant::CopyToGuest {
                addr: GuestVirtAddr::new(0x1_0000),
                len: 16,
            }],
        )
        .expect("declaring is the victim's own action");
    let result = machine.hv().borrow_mut().hc_memops(
        driver_vm,
        victim,
        GuestPhysAddr::new(0),
        grant,
        None,
        &mut [MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0x1_0000),
            data: &[0u8; 4096],
        }],
    );
    let _ = machine.hv().borrow_mut().revoke_grant(victim, grant);
    outcome(machine, "grant-overflow", result.map(|_| ()), BlockedBy::GrantCheck)
}

/// Attack 3 — the compromised driver VM's CPU reads a protected-region page
/// directly (device data isolation, §4.2: the driver VM "does not have read
/// permission to the memory regions").
pub fn protected_region_read(machine: &mut Machine, gpu_path: &str) -> AttackOutcome {
    let Some(env) = machine.device_env(gpu_path) else {
        return AttackOutcome {
            name: "protected-region-read",
            blocked: false,
            blocked_by: None,
            detail: "no GPU attached".to_owned(),
        };
    };
    if !env.data_isolation() {
        return AttackOutcome {
            name: "protected-region-read",
            blocked: false,
            blocked_by: None,
            detail: "data isolation disabled: nothing to attack".to_owned(),
        };
    }
    // Find any page of guest 0's region: the region's GART page in VRAM is
    // always present; use a GTT pool page instead via the region manager.
    let driver_vm = machine.driver_vm();
    let guest = machine.guest_vms()[0];
    let domain = env.domain();
    let hv = machine.hv().clone();
    let region = hv
        .borrow()
        .region_of_guest(domain, guest)
        .expect("isolated GPU has regions");
    // Probe driver-VM pages until we hit one the EPT refuses: scan the top
    // of driver RAM where the pools were allocated.
    let ram_pages = hv.borrow().vm(driver_vm).expect("driver VM").ram_pages();
    let mut buf = [0u8; 8];
    for page in (ram_pages.saturating_sub(512)..ram_pages).rev() {
        let gpa = GuestPhysAddr::new(page * PAGE_SIZE);
        let result = hv.borrow_mut().vm_mem_read(driver_vm, gpa, &mut buf);
        if result.is_err() {
            return outcome(
                machine,
                "protected-region-read",
                result,
                BlockedBy::EptProtection,
            );
        }
    }
    let _ = region;
    AttackOutcome {
        name: "protected-region-read",
        blocked: false,
        blocked_by: None,
        detail: "no protected page rejected the read".to_owned(),
    }
}

/// Attack 4 — the compromised driver programs the *device* to DMA another
/// guest's region while a different region is active ("the malicious VM
/// cannot program the device to copy the buffer outside a memory region",
/// §4.2).
pub fn dma_cross_region(machine: &mut Machine, gpu_path: &str) -> AttackOutcome {
    let Some(env) = machine.device_env(gpu_path) else {
        return AttackOutcome {
            name: "dma-cross-region",
            blocked: false,
            blocked_by: None,
            detail: "no GPU attached".to_owned(),
        };
    };
    let hv = machine.hv().clone();
    let domain = env.domain();
    let guests = machine.guest_vms().to_vec();
    if guests.len() < 2 || !env.data_isolation() {
        return AttackOutcome {
            name: "dma-cross-region",
            blocked: false,
            blocked_by: None,
            detail: "needs two guests and data isolation".to_owned(),
        };
    }
    let driver_vm = machine.driver_vm();
    let r0 = hv.borrow().region_of_guest(domain, guests[0]).expect("region 0");
    let r1 = hv.borrow().region_of_guest(domain, guests[1]).expect("region 1");
    // Find a DMA address mapped for region 1: the iommu domain's pages.
    let victim_dma = {
        let hv_ref = hv.borrow();
        let vm = hv_ref.vm(driver_vm).expect("driver VM");
        let _ = vm;
        drop(hv_ref);
        // The region pools mirror driver-physical addresses; probe for one
        // accepted while r1 is active but not while r0 is.
        let mut found = None;
        hv.borrow_mut()
            .hc_switch_region(driver_vm, domain, Some(r1))
            .expect("switch to victim region");
        let ram_pages = hv.borrow().vm(driver_vm).expect("driver").ram_pages();
        let mut probe = [0u8; 1];
        for page in (ram_pages.saturating_sub(512)..ram_pages).rev() {
            let dma = DmaAddr::new(page * PAGE_SIZE);
            if hv.borrow_mut().device_dma_read(domain, dma, &mut probe).is_ok() {
                found = Some(dma);
                break;
            }
        }
        found
    };
    let Some(victim_dma) = victim_dma else {
        return AttackOutcome {
            name: "dma-cross-region",
            blocked: false,
            blocked_by: None,
            detail: "could not locate a victim page".to_owned(),
        };
    };
    // Switch to the attacker's region, then DMA the victim's page.
    hv.borrow_mut()
        .hc_switch_region(driver_vm, domain, Some(r0))
        .expect("switch to attacker region");
    let mut stolen = [0u8; 8];
    let result = hv.borrow_mut().device_dma_read(domain, victim_dma, &mut stolen);
    outcome(machine, "dma-cross-region", result, BlockedBy::IommuRegion)
}

/// Attack 5 — the compromised driver rewrites the GPU memory-controller
/// aperture registers to widen the device-memory window (§5.3(iii)).
pub fn mc_register_rewrite(machine: &mut Machine, gpu_path: &str) -> AttackOutcome {
    let Some(env) = machine.device_env(gpu_path) else {
        return AttackOutcome {
            name: "mc-register-rewrite",
            blocked: false,
            blocked_by: None,
            detail: "no GPU attached".to_owned(),
        };
    };
    let driver_vm = machine.driver_vm();
    let domain = env.domain();
    let result = machine.hv().borrow_mut().mc_write_direct(
        driver_vm,
        domain,
        paradice_hypervisor::hv::MC_APERTURE_HI,
        u64::MAX,
    );
    outcome(
        machine,
        "mc-register-rewrite",
        result,
        BlockedBy::ProtectedMmio,
    )
}

/// Attack 6 — a malicious guest floods its wait queue with file operations
/// (the DoS the 100-op cap prevents, §5.1). Returns the outcome plus how
/// many operations were accepted before the cap bit.
pub fn wait_queue_flood(
    machine: &mut Machine,
    guest_index: usize,
    attempts: usize,
) -> (AttackOutcome, usize) {
    let Some(backend) = machine.backend() else {
        return (
            AttackOutcome {
                name: "wait-queue-flood",
                blocked: false,
                blocked_by: None,
                detail: "not in Paradice mode".to_owned(),
            },
            0,
        );
    };
    let task = machine
        .spawn_process(Some(guest_index))
        .expect("spawn flooder");
    let fd = match machine.open(task, "/dev/input/event0") {
        Ok(fd) => fd,
        Err(e) => {
            return (
                AttackOutcome {
                    name: "wait-queue-flood",
                    blocked: false,
                    blocked_by: None,
                    detail: format!("no input device to flood: {e}"),
                },
                0,
            )
        }
    };
    // Stall the backend (a slow driver / scheduling gap), then flood.
    backend.borrow_mut().pause();
    let mut accepted = 0usize;
    let mut saw_edquot = false;
    for _ in 0..attempts {
        match machine.poll(task, fd) {
            // A paused backend queues the op without responding; the
            // flooder doesn't care about responses and keeps going.
            Ok(_) | Err(Errno::Eio) => accepted += 1,
            Err(Errno::Edquot) => {
                saw_edquot = true;
                break;
            }
            Err(_) => break,
        }
    }
    let blocked_by = (machine
        .hv()
        .borrow()
        .audit()
        .count_blocked_by(BlockedBy::WaitQueueCap)
        > 0)
    .then_some(BlockedBy::WaitQueueCap);
    let _ = machine.resume_backend(guest_index);
    (
        AttackOutcome {
            name: "wait-queue-flood",
            blocked: saw_edquot,
            blocked_by,
            detail: format!("{accepted} operations queued before the cap"),
        },
        accepted,
    )
}

/// Runs the full suite against a machine (two guests, isolated GPU, input
/// device expected) and returns every outcome.
pub fn run_all(machine: &mut Machine) -> Vec<AttackOutcome> {
    let mut outcomes = vec![
        ungranted_copy(machine, 0),
        grant_overflow(machine, 0),
        protected_region_read(machine, "/dev/dri/card0"),
        dma_cross_region(machine, "/dev/dri/card0"),
        mc_register_rewrite(machine, "/dev/dri/card0"),
    ];
    let (flood, _) = wait_queue_flood(machine, 0, 200);
    outcomes.push(flood);
    outcomes
}
