//! The flood family: resource-exhaustion attacks on the forwarding path.
//!
//! Four storm shapes per campaign, seed-interleaved: request bursts past
//! the wait-queue cap (must surface as [`EngineError::Backpressure`],
//! never a lost slot), malformed-frame floods (every garbage frame must
//! come back `EINVAL`), oversize frames plus doorbell storms (admission
//! rejection, and a rung-to-death doorbell must still deliver its next
//! wakeup), and hypercall storms against the live hypervisor (absorbed
//! without granting the flooder any privilege).
//!
//! Containment for a flood is *conservation*: every accepted frame
//! produces exactly one response, every refused frame is refused loudly,
//! and the stack afterwards still serves. A flood that loses work — or
//! wedges the frontend — is a breach even though no memory moved.

use paradice::{DeviceSpec, ExecMode, GuestSpec, Machine};
use paradice_cvd::multi::{MultiEngine, MULTI_QUEUE_CAP};
use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_devfs::Errno;
use paradice_faults::SplitMix64;
use paradice_hypervisor::{
    Doorbell, EngineError, EngineKind, GrantRef, MemOp, MemOpRequest, TransportMode,
    ARING_SLOT_BYTES,
};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::{attacker_engine, receive, AttackFamily, FamilyOutcome, ATTACKER};

/// A benign no-memop request: floods measure conservation, not grants.
fn poll_frame(rng: &mut SplitMix64) -> Vec<u8> {
    WireRequest {
        task: rng.gen_range(16),
        pt_root: GuestPhysAddr::new(0x4000),
        handle: rng.gen_range(8),
        span: 0,
        grant: None,
        op: WireOp::Poll,
    }
    .encode()
}

fn flood_service(req: &WireRequest) -> (WireResponse, Vec<MemOpRequest>) {
    let _ = req;
    (WireResponse::Value(0), Vec::new())
}

/// A request burst past the wait-queue cap: refusals must be loud
/// backpressure and every accepted frame must come back exactly once.
fn burst_step(outcome: &mut FamilyOutcome, rng: &mut SplitMix64, engine: EngineKind) {
    let mut exec = attacker_engine(engine, flood_service);
    let burst = MULTI_QUEUE_CAP + 4 + rng.gen_range(12) as usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for _ in 0..burst {
        match exec.submit(ATTACKER, &poll_frame(rng)) {
            Ok(()) => accepted += 1,
            Err(EngineError::Backpressure) => rejected += 1,
            Err(e) => {
                outcome.breach(format!(
                    "[{}] flood refused with {e} instead of backpressure",
                    engine.name(),
                ));
                return;
            }
        }
    }
    for _ in 0..accepted {
        let frame = match receive(exec.as_mut()) {
            Ok(frame) => frame,
            Err(reason) => {
                outcome.breach(format!("[{}] {reason}", engine.name()));
                return;
            }
        };
        match WireResponse::decode(&frame) {
            Ok(WireResponse::Err(errno)) => {
                outcome.breach(format!(
                    "[{}] benign flood frame refused with {errno:?}",
                    engine.name(),
                ));
                return;
            }
            Ok(_) => {}
            Err(e) => {
                outcome.breach(format!(
                    "[{}] flood response undecodable: {e:?}",
                    engine.name(),
                ));
                return;
            }
        }
    }
    // One extra completion must report empty, not invent a frame.
    if let Ok(Some(_)) = exec.complete() {
        outcome.breach(format!(
            "[{}] ring produced more responses than accepted requests",
            engine.name(),
        ));
        return;
    }
    if rejected > 0 {
        outcome.detected();
    } else {
        outcome.served();
    }
}

/// A malformed-frame flood: every garbage frame must come back `EINVAL`.
/// A long frame takes several of the guest's request slots, so a volley
/// can fill the ring below the queue cap: a frame refused with
/// backpressure is submitted again after one response is taken.
fn malformed_step(outcome: &mut FamilyOutcome, rng: &mut SplitMix64, engine: EngineKind) {
    let mut exec = attacker_engine(engine, flood_service);
    let volley = 1 + rng.gen_range(MULTI_QUEUE_CAP as u64 - 1) as usize;
    let mut answered = 0;
    for _ in 0..volley {
        let frame: Vec<u8> = (0..rng.gen_range(ARING_SLOT_BYTES as u64))
            .map(|_| rng.next_u64() as u8)
            .collect();
        loop {
            match exec.submit(ATTACKER, &frame) {
                Ok(()) => break,
                Err(EngineError::Backpressure) if answered < volley => {
                    if let Err(breach) = take_einval(exec.as_mut(), engine) {
                        outcome.breach(breach);
                        return;
                    }
                    answered += 1;
                }
                Err(e) => {
                    outcome.breach(format!(
                        "[{}] garbage under the queue cap was refused at submit: {e}",
                        engine.name(),
                    ));
                    return;
                }
            }
        }
    }
    for _ in answered..volley {
        if let Err(breach) = take_einval(exec.as_mut(), engine) {
            outcome.breach(breach);
            return;
        }
    }
    outcome.detected();
}

/// Takes one response to a garbage frame, which must be `EINVAL`.
fn take_einval(exec: &mut dyn MultiEngine, engine: EngineKind) -> Result<(), String> {
    match receive(exec).map(|f| WireResponse::decode(&f)) {
        Ok(Ok(WireResponse::Err(Errno::Einval))) => Ok(()),
        // A garbage frame decoding into a servable request is
        // astronomically unlikely under the codec's tag checks;
        // anything but EINVAL means the decoder guessed.
        Ok(Ok(other)) => Err(format!(
            "[{}] garbage frame was answered with {other:?}",
            engine.name(),
        )),
        Ok(Err(e)) => Err(format!(
            "[{}] response to garbage was itself undecodable: {e:?}",
            engine.name(),
        )),
        Err(reason) => Err(format!("[{}] {reason}", engine.name())),
    }
}

/// Oversize admission plus a doorbell storm: the fat frame must be
/// refused at the slot boundary, and a doorbell rung far faster than
/// anyone waits must neither panic nor eat the next genuine wakeup.
fn oversize_and_doorbell_step(
    outcome: &mut FamilyOutcome,
    rng: &mut SplitMix64,
    engine: EngineKind,
) {
    let mut exec = attacker_engine(engine, flood_service);
    let fat = vec![0u8; ARING_SLOT_BYTES + 1 + rng.gen_range(64) as usize];
    match exec.submit(ATTACKER, &fat) {
        Err(EngineError::Oversize { len }) if len == fat.len() => {}
        other => {
            outcome.breach(format!(
                "[{}] oversize frame got {other:?} instead of admission rejection",
                engine.name(),
            ));
            return;
        }
    }
    let bell = Doorbell::new();
    for _ in 0..64 {
        bell.ring(); // no waiter: the storm must be absorbed
    }
    bell.register();
    bell.wait(|| true); // the storm must not have wedged delivery
    outcome.detected();
}

/// A hypercall storm: the flooding guest burns cycles but gains nothing —
/// privileged hypercalls stay refused mid-storm.
fn hypercall_step(outcome: &mut FamilyOutcome, rng: &mut SplitMix64, machine: &Machine) {
    let hv = machine.hv().clone();
    let guest = machine.guest_vms()[0];
    for _ in 0..32 + rng.gen_range(32) {
        hv.borrow_mut().hc_noop(guest);
    }
    let result = hv.borrow_mut().hc_memops(
        guest, // a guest, not the driver VM: role check must refuse it
        guest,
        GuestPhysAddr::new(0),
        GrantRef(rng.next_u64() as u32),
        None,
        &mut [MemOp::CopyToGuest {
            dst: GuestVirtAddr::new(0x1_0000),
            data: &[0u8; 16],
        }],
    );
    match result {
        Err(_) => outcome.detected(),
        Ok(()) => outcome.breach(
            "a flooding guest's privileged hypercall was served mid-storm".into(),
        ),
    }
}

/// Runs the flood campaign on one substrate. The engine steps run on
/// `engine`; the hypercall storm hits a `Machine`, which runs on the
/// virtual clock in either cell.
pub fn run(engine: EngineKind, seed: u64, steps: u32) -> FamilyOutcome {
    let mut outcome = FamilyOutcome::new(AttackFamily::Flood, engine);
    let mut rng = SplitMix64::new(seed);
    let machine = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::polling_default(),
            data_isolation: false,
        })
        .device(DeviceSpec::Mouse)
        .guests([GuestSpec::linux()])
        .build()
        .expect("build flood machine");
    for _ in 0..steps {
        match rng.gen_range(4) {
            0 => burst_step(&mut outcome, &mut rng, engine),
            1 => malformed_step(&mut outcome, &mut rng, engine),
            2 => oversize_and_doorbell_step(&mut outcome, &mut rng, engine),
            _ => hypercall_step(&mut outcome, &mut rng, &machine),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floods_are_contained_on_the_virtual_substrate() {
        let outcome = run(EngineKind::Virtual, 21, 80);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0, "bursts past the cap must backpressure");
    }

    #[test]
    fn floods_are_contained_on_the_wall_substrate() {
        let outcome = run(EngineKind::Wall, 21, 80);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0, "malformed and oversize floods detect");
    }
}
