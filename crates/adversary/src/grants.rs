//! The grant-replay family: the compromised driver VM replays, forges,
//! and cross-wires grant references against the live hypervisor — and,
//! since the multi-tenant refactor, against the live sharded multi-guest
//! engine on the same substrate.
//!
//! Each hypervisor step acts with the driver VM's authority (paper §4.1:
//! the driver VM is assumed compromised) and checks *attributed*
//! containment: the hypercall must fail **and** the audit log must credit
//! the grant check. A refusal that never reached the grant check — or,
//! under the seeded bypass, a copy that sailed through — is a breach. A
//! legitimate control operation runs periodically to pin the
//! correct-service half of the invariant: containment must not degrade
//! into refusing everything.
//!
//! The cross-guest-shard steps attack the [`ShardedGrantTable`] through
//! a live [`MultiEngine`]: references forged or stolen to name another
//! guest's shard must be refused by the per-guest qualifier itself
//! ([`GrantError::ForeignGuest`], before the owner's shard is read) and
//! surface as `EFAULT` on the wire; a flood driven past one guest's
//! wait-queue cap must come back as backpressure with nothing dropped or
//! reordered and the neighbor guest still served mid-flood.

use std::collections::VecDeque;

use paradice::{DeviceSpec, ExecMode, GuestSpec, Machine};
use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_cvd::{build_multi, MultiEngine, SchedPolicy, ScriptedService, MULTI_QUEUE_CAP};
use paradice_devfs::ioc::io;
use paradice_devfs::Errno;
use paradice_faults::SplitMix64;
use paradice_hypervisor::audit::BlockedBy;
use paradice_hypervisor::engine::EngineError;
use paradice_hypervisor::{
    EngineKind, GrantError, GrantRef, MemOp, MemOpGrant, MemOpRequest, ShardedGrantTable,
    TransportMode, MAX_GUESTS, SEQ_BITS,
};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::{AttackFamily, FamilyOutcome};

/// The multi-guest rig's cast: guest 0 is the hostile caller, guest 1
/// the shard whose references get stolen, guest 2 the flood target,
/// guest 3 the neighbor that must stay serviceable throughout.
const RIG_GUESTS: usize = 4;
const CALLER: u32 = 0;
const OWNER: u32 = 1;
const FLOODED: u32 = 2;
const NEIGHBOR: u32 = 3;

/// The interactive-ioctl frame the rig attacks ride on (the
/// [`ScriptedService`] `RADEON_INFO` shape: 8 bytes read + written at
/// `arg`).
fn rig_ioctl_frame(guest: u32, grant: Option<GrantRef>, arg: u64) -> Vec<u8> {
    WireRequest {
        task: u64::from(guest) + 1,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 1,
        span: 0,
        grant,
        op: WireOp::Ioctl { cmd: io(b'T', 1), arg },
    }
    .encode()
}

/// Cross-guest-shard forgery: a reference pinned to another guest's
/// shard — live and covering (stolen), or composed from whole cloth
/// (forged) — is spent by the caller through the live multi-guest
/// engine. Containment must be attributed: the shard qualifier itself
/// refuses the reference ([`GrantError::ForeignGuest`]) and the wire
/// answer is `EFAULT`.
fn foreign_shard_attack(
    rig: &mut dyn MultiEngine,
    rng: &mut SplitMix64,
    outcome: &mut FamilyOutcome,
    engine: EngineKind,
) {
    let arg = 0x2_0000 + (rng.gen_range(64) << 6);
    let (attack, grant, live) = if rng.gen_range(2) == 0 {
        let window = vec![
            MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(arg), len: 8 },
            MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(arg), len: 8 },
        ];
        let grant = rig
            .grants()
            .declare(OWNER, window)
            .expect("declare on the owner's shard");
        ("stolen-shard-ref", grant, true)
    } else {
        // Any shard but the caller's own, including ids far outside the
        // rig's population (the qualifier must not index out of bounds).
        let shard = 1 + rng.gen_range(u64::from(MAX_GUESTS) - 1) as u32;
        let seq = rng.gen_range(1 << SEQ_BITS) as u32;
        ("forged-shard-ref", ShardedGrantTable::compose_ref(shard, seq), false)
    };
    let probe = MemOpRequest::CopyToGuest { addr: GuestVirtAddr::new(arg), len: 8 };
    let attributed = matches!(
        rig.grants().validate(CALLER, grant, &probe),
        Err(GrantError::ForeignGuest { .. })
    );
    rig.submit(CALLER, &rig_ioctl_frame(CALLER, Some(grant), arg))
        .expect("submit the foreign-shard ioctl");
    let (guest, frame) = rig.complete_blocking().expect("complete the foreign-shard ioctl");
    let faulted = guest == CALLER
        && WireResponse::decode(&frame) == Ok(WireResponse::Err(Errno::Efault));
    if live {
        rig.grants().revoke(OWNER, grant);
    }
    match (faulted, attributed) {
        (true, true) => outcome.detected(),
        (true, false) => outcome.breach(format!(
            "[{}] {attack}: refused, but not by the shard qualifier — \
             containment by accident, not per-guest isolation",
            engine.name(),
        )),
        (false, _) => outcome.breach(format!(
            "[{}] {attack}: a reference naming guest {}'s shard moved data for guest {CALLER}",
            engine.name(),
            ShardedGrantTable::guest_of(grant),
        )),
    }
}

/// Wait-queue-cap flood: the flooded guest's own queue is driven past
/// its cap with distinct-length netmap-style writes. Every overflow
/// must surface as [`EngineError::Backpressure`] (the guest's own
/// `EAGAIN`), every accepted op must complete with its length echoed in
/// submission order (nothing dropped, nothing reordered), and the
/// neighbor guest must be served mid-flood — the cap bounds the
/// flooder, never the neighbors.
fn cap_flood_attack(rig: &mut dyn MultiEngine, outcome: &mut FamilyOutcome, engine: EngineKind) {
    let mut accepted: Vec<i64> = Vec::new();
    let mut accepted_grants: VecDeque<GrantRef> = VecDeque::new();
    let mut backpressured = 0u64;
    for i in 0..(MULTI_QUEUE_CAP + 8) as u64 {
        let len = i + 1;
        let addr = GuestVirtAddr::new(0x4_0000 + i * 0x1000);
        let grant = rig
            .grants()
            .declare(FLOODED, vec![MemOpGrant::CopyFromGuest { addr, len }])
            .expect("declare the flood write");
        let frame = WireRequest {
            task: u64::from(FLOODED) + 1,
            pt_root: GuestPhysAddr::new(0x4000),
            handle: 1,
            span: 0,
            grant: Some(grant),
            op: WireOp::Write { addr, len },
        }
        .encode();
        match rig.submit(FLOODED, &frame) {
            Ok(()) => {
                accepted.push(len as i64);
                accepted_grants.push_back(grant);
            }
            Err(EngineError::Backpressure) => {
                backpressured += 1;
                rig.grants().revoke(FLOODED, grant);
            }
            Err(e) => {
                rig.grants().revoke(FLOODED, grant);
                outcome.breach(format!(
                    "[{}] cap-flood: overflow surfaced as {e:?}, not backpressure",
                    engine.name(),
                ));
                return;
            }
        }
    }
    // The neighbor submits one light granted ioctl mid-flood.
    let arg = 0x9000;
    let neighbor_grant = rig
        .grants()
        .declare(
            NEIGHBOR,
            vec![
                MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(arg), len: 8 },
                MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(arg), len: 8 },
            ],
        )
        .expect("declare the neighbor's ioctl");
    if let Err(e) = rig.submit(NEIGHBOR, &rig_ioctl_frame(NEIGHBOR, Some(neighbor_grant), arg)) {
        rig.grants().revoke(NEIGHBOR, neighbor_grant);
        outcome.breach(format!(
            "[{}] cap-flood: the flooded cap blocked the neighbor's submit: {e:?}",
            engine.name(),
        ));
        return;
    }
    // Drain everything: flooded completions must echo their lengths in
    // submission order; the neighbor's ioctl must succeed.
    let mut echoed: Vec<i64> = Vec::new();
    let mut neighbor_ok = false;
    for _ in 0..accepted.len() + 1 {
        let (guest, frame) = rig.complete_blocking().expect("drain the flood");
        let response = WireResponse::decode(&frame);
        if guest == FLOODED {
            let grant = accepted_grants
                .pop_front()
                .expect("one completion per accepted flood op");
            rig.grants().revoke(FLOODED, grant);
            if let Ok(WireResponse::Value(v)) = response {
                echoed.push(v);
            }
        } else if guest == NEIGHBOR && response == Ok(WireResponse::Value(0)) {
            neighbor_ok = true;
        }
    }
    rig.grants().revoke(NEIGHBOR, neighbor_grant);
    let drained_dry = matches!(rig.complete(), Ok(None));
    if backpressured > 0 && echoed == accepted && neighbor_ok && drained_dry {
        outcome.detected();
    } else {
        outcome.breach(format!(
            "[{}] cap-flood: backpressured {backpressured}, echoed {} of {} in order: {}, \
             neighbor served: {neighbor_ok}, drained dry: {drained_dry}",
            engine.name(),
            echoed.len(),
            accepted.len(),
            echoed == accepted,
        ));
    }
}

fn grant_check_count(machine: &Machine) -> u64 {
    machine
        .hv()
        .borrow()
        .audit()
        .count_blocked_by(BlockedBy::GrantCheck) as u64
}

/// Runs the grant-replay campaign on one substrate: the cross-guest-shard
/// steps on an `engine` multi-guest engine, the hypervisor steps on a
/// `Machine`, which runs on the virtual clock in either cell. `bypass` disables
/// grant validation (the devirtualization ablation) — every hypervisor
/// attack must then surface as a breach, because nothing audits or
/// refuses it. The cross-guest-shard steps attack the sharded engine
/// path, which has no bypass knob by construction: they stay contained
/// and keep the campaign's correct-service half honest under the mutant.
pub fn run(engine: EngineKind, seed: u64, steps: u32, bypass: bool) -> FamilyOutcome {
    let mut outcome = FamilyOutcome::new(AttackFamily::GrantReplay, engine);
    let mut rng = SplitMix64::new(seed);
    let (rig_service, _) = ScriptedService::new();
    let mut rig = build_multi(engine, rig_service, RIG_GUESTS, SchedPolicy::FairShare);
    let mut machine = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::polling_default(),
            data_isolation: false,
        })
        .device(DeviceSpec::Mouse)
        .guests([GuestSpec::linux(), GuestSpec::linux()])
        .build()
        .expect("build attack machine");
    if bypass {
        machine.hv().borrow_mut().set_grant_validation(false);
    }
    let driver = machine.driver_vm();
    let guests = machine.guest_vms().to_vec();
    let task = machine.spawn_process(Some(0)).expect("spawn victim task");
    let mut fd = machine
        .open(task, "/dev/input/event0")
        .expect("open input device");

    for step in 0..steps {
        // The correct-service control: a legitimate op must still work.
        if step % 8 == 7 {
            match machine.poll(task, fd) {
                Ok(_) => outcome.served(),
                Err(e) => outcome.breach(format!(
                    "[{}] legitimate poll refused during the campaign: {e}",
                    engine.name(),
                )),
            }
            continue;
        }

        // Variants 5 and 6 attack the sharded multi-guest engine; the
        // rest attack the hypervisor's per-VM tables directly.
        let variant = rng.gen_range(7);
        if variant == 5 {
            foreign_shard_attack(rig.as_mut(), &mut rng, &mut outcome, engine);
            continue;
        }
        if variant == 6 {
            cap_flood_attack(rig.as_mut(), &mut outcome, engine);
            continue;
        }

        let addr = GuestVirtAddr::new(0x1_0000 + (rng.gen_range(64) << 12));
        let len = 1 + rng.gen_range(128);
        let window = vec![MemOpGrant::CopyToGuest { addr, len }];
        let payload = vec![0u8; len as usize];
        let before = grant_check_count(&machine);
        let hv = machine.hv().clone();

        let (attack, result) = match variant {
            // A reference that was never declared.
            0 => {
                let forged = GrantRef(0x8000_0000 | rng.next_u64() as u32);
                let result = hv.borrow_mut().hc_memops(
                    driver,
                    guests[0],
                    GuestPhysAddr::new(0),
                    forged,
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: addr,
                        data: &payload,
                    }],
                );
                ("forged-ref", result)
            }
            // Replay after revocation.
            1 => {
                let grant = hv
                    .borrow_mut()
                    .declare_grants(guests[0], window)
                    .expect("declare");
                let _ = hv.borrow_mut().revoke_grant(guests[0], grant);
                let result = hv.borrow_mut().hc_memops(
                    driver,
                    guests[0],
                    GuestPhysAddr::new(0),
                    grant,
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: addr,
                        data: &payload,
                    }],
                );
                ("replayed-ref", result)
            }
            // A reference declared by one guest, spent against another.
            2 => {
                let grant = hv
                    .borrow_mut()
                    .declare_grants(guests[0], window)
                    .expect("declare");
                let result = hv.borrow_mut().hc_memops(
                    driver,
                    guests[1],
                    GuestPhysAddr::new(0),
                    grant,
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: addr,
                        data: &payload,
                    }],
                );
                let _ = hv.borrow_mut().revoke_grant(guests[0], grant);
                ("cross-guest-ref", result)
            }
            // A reference surviving driver-VM failure and recovery.
            3 => {
                let grant = hv
                    .borrow_mut()
                    .declare_grants(guests[0], window)
                    .expect("declare");
                let _ = hv.borrow_mut().mark_driver_vm_failed(driver);
                machine.recover_driver_vm().expect("recovery succeeds");
                let result = hv.borrow_mut().hc_memops(
                    driver,
                    guests[0],
                    GuestPhysAddr::new(0),
                    grant,
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: addr,
                        data: &payload,
                    }],
                );
                ("recovery-survivor-ref", result)
            }
            // A live reference replayed with inflated bounds.
            _ => {
                let grant = hv
                    .borrow_mut()
                    .declare_grants(
                        guests[0],
                        vec![MemOpGrant::CopyToGuest { addr, len: 16 }],
                    )
                    .expect("declare");
                let oversized = vec![0u8; 4096];
                let result = hv.borrow_mut().hc_memops(
                    driver,
                    guests[0],
                    GuestPhysAddr::new(0),
                    grant,
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: addr,
                        data: &oversized,
                    }],
                );
                let _ = hv.borrow_mut().revoke_grant(guests[0], grant);
                ("grant-overflow", result)
            }
        };

        // Recovery closes every open handle (EBADF by design); the guest
        // reopens, so the control op keeps measuring service — not the
        // recovery's intended handle invalidation.
        if attack == "recovery-survivor-ref" {
            fd = machine
                .open(task, "/dev/input/event0")
                .expect("reopen after recovery");
        }

        let audited = grant_check_count(&machine) > before;
        match (result, audited) {
            (Err(_), true) => outcome.detected(),
            (Err(e), false) => outcome.breach(format!(
                "[{}] {attack}: refused ({e}) but the grant check never engaged — \
                 containment by accident, not enforcement",
                engine.name(),
            )),
            (Ok(()), _) => outcome.breach(format!(
                "[{}] {attack}: the hypervisor moved the buffer; grant bypass",
                engine.name(),
            )),
        }
    }
    // Recovery steps close all handles (EBADF by design); reopening is the
    // guest's job, and the campaign does it so late control ops stay
    // meaningful — but the final machine must still be serviceable.
    rig.finish();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_replay_attack_is_attributed_to_the_grant_check() {
        let outcome = run(EngineKind::Virtual, 5, 60, false);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0);
        assert!(outcome.served > 0, "control ops must keep working");
    }

    #[test]
    fn disabling_validation_turns_every_attack_into_a_breach() {
        let outcome = run(EngineKind::Virtual, 5, 24, true);
        assert!(
            !outcome.breaches.is_empty(),
            "the ablation must be caught: {outcome:?}"
        );
    }

    #[test]
    fn foreign_shard_refs_are_contained_on_both_substrates() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let mut outcome = FamilyOutcome::new(AttackFamily::GrantReplay, kind);
            let mut rng = SplitMix64::new(21);
            let (service, _) = ScriptedService::new();
            let mut rig = build_multi(kind, service, RIG_GUESTS, SchedPolicy::FairShare);
            for _ in 0..16 {
                foreign_shard_attack(rig.as_mut(), &mut rng, &mut outcome, kind);
            }
            rig.finish();
            assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
            assert_eq!(outcome.detected, 16);
        }
    }

    #[test]
    fn the_cap_flood_backpressures_without_touching_the_neighbor() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let mut outcome = FamilyOutcome::new(AttackFamily::GrantReplay, kind);
            let (service, _) = ScriptedService::new();
            let mut rig = build_multi(kind, service, RIG_GUESTS, SchedPolicy::FairShare);
            for _ in 0..4 {
                cap_flood_attack(rig.as_mut(), &mut outcome, kind);
            }
            rig.finish();
            assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
            assert_eq!(outcome.detected, 4);
        }
    }
}
