//! The ring-corruption family: a hostile VM scribbling on the shared
//! ring pages of both substrates.
//!
//! * **Virtual** — the typed depth-8 [`CvdChannel`]: the adversary
//!   scrambles, truncates, and drops posted slots through the channel's
//!   fault hooks (a malicious guest rewriting the shared page after
//!   ringing the doorbell). Containment means every corrupted slot is
//!   surfaced as [`ChannelError::Malformed`] (and counted in
//!   `malformed_count`) or as a detectable loss — never a silently
//!   different message, never a lost slot that also goes uncounted.
//! * **Wall** — the lock-free [`AtomicRing`]: the adversary corrupts the
//!   published sequence and length words (the only fields a hostile
//!   peer can hit without a data race — they are atomics in shared
//!   memory). A corrupted length must clamp into a truncated frame, a
//!   corrupted sequence must hide the slot and surface as producer
//!   backpressure; neither may panic, over-read, or reorder survivors.

use paradice_cvd::proto::{CvdChannel, WireOp, WireRequest, WireResponse};
use paradice_devfs::Errno;
use paradice_faults::SplitMix64;
use paradice_hypervisor::{
    ARingError, AtomicRing, Channel, ChannelError, CostModel, EngineKind, SimClock,
    TransportMode, ARING_CAPACITY, ARING_SLOT_BYTES,
};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::{AttackFamily, FamilyOutcome};

fn request(rng: &mut SplitMix64) -> WireRequest {
    WireRequest {
        task: rng.gen_range(16),
        pt_root: GuestPhysAddr::new(0x4000),
        handle: rng.gen_range(8),
        span: 0,
        grant: None,
        op: WireOp::Read {
            addr: GuestVirtAddr::new(0x1000 + (rng.gen_range(64) << 12)),
            len: 1 + rng.gen_range(256),
        },
    }
}

/// One step against the virtual channel: post a burst, corrupt the
/// newest slot, and drain — accounting for every posted entry.
fn virtual_step(outcome: &mut FamilyOutcome, rng: &mut SplitMix64, engine: EngineKind) {
    let mut channel: CvdChannel = Channel::new(
        TransportMode::polling_default(),
        SimClock::new(),
        CostModel::default(),
    );
    channel.set_ring_depth(8);
    let burst = 1 + rng.gen_range(6) as usize;
    for _ in 0..burst {
        channel.send_request(request(rng)).expect("ring has room");
    }
    let corrupted = match rng.gen_range(3) {
        0 => channel.scramble_request_slot(),
        1 => channel.truncate_request_slot(),
        _ => false,
    };
    let mut delivered = 0usize;
    let mut malformed = 0usize;
    loop {
        match channel.take_request() {
            Ok(_) => delivered += 1,
            Err(ChannelError::Malformed) => malformed += 1,
            Err(ChannelError::Empty) => break,
            Err(e) => {
                outcome.breach(format!(
                    "[{}] virtual ring drain failed unexpectedly: {e}",
                    engine.name(),
                ));
                return;
            }
        }
    }
    let stats = channel.stats();
    if delivered + malformed != burst {
        outcome.breach(format!(
            "[{}] lost ring slot: {burst} posted, {delivered} delivered + \
             {malformed} malformed",
            engine.name(),
        ));
    } else if corrupted && malformed == 0 && delivered == burst {
        // The corrupted slot decoded anyway — possible in principle, but
        // the scramble/truncate patterns always break the codec today, so
        // a silent decode means the detection stat lost an event.
        outcome.breach(format!(
            "[{}] corrupted slot delivered as a well-formed request",
            engine.name(),
        ));
    } else if stats.malformed_count != malformed as u64 {
        outcome.breach(format!(
            "[{}] malformed_count says {} but the drain saw {malformed}: \
             detection went uncounted",
            engine.name(),
            stats.malformed_count,
        ));
    } else if corrupted {
        outcome.detected();
    } else {
        outcome.served();
    }
}

/// One step against the virtual channel's *response* direction,
/// including the dropped-slot (lost completion) case: the loss must be
/// visible as an empty ring, which is what arms the frontend watchdog.
fn virtual_response_step(
    outcome: &mut FamilyOutcome,
    rng: &mut SplitMix64,
    engine: EngineKind,
) {
    let mut channel: CvdChannel = Channel::new(
        TransportMode::polling_default(),
        SimClock::new(),
        CostModel::default(),
    );
    channel.set_ring_depth(8);
    channel
        .send_response(WireResponse::Err(Errno::Eio))
        .expect("ring has room");
    match rng.gen_range(3) {
        0 => {
            channel.scramble_response_slot();
            match channel.take_response() {
                Err(ChannelError::Malformed) => outcome.detected(),
                other => outcome.breach(format!(
                    "[{}] scrambled response surfaced as {other:?}",
                    engine.name(),
                )),
            }
        }
        1 => {
            channel.truncate_response_slot();
            match channel.take_response() {
                Err(ChannelError::Malformed) => outcome.detected(),
                other => outcome.breach(format!(
                    "[{}] truncated response surfaced as {other:?}",
                    engine.name(),
                )),
            }
        }
        _ => {
            channel.drop_response_slot();
            match channel.take_response() {
                Err(ChannelError::Empty) => outcome.detected(),
                other => outcome.breach(format!(
                    "[{}] dropped response surfaced as {other:?} instead of a \
                     watchdog-visible empty ring",
                    engine.name(),
                )),
            }
        }
    }
}

/// One step against the atomic ring: publish frames, corrupt a control
/// word, and check clamp/hiding/backpressure semantics.
fn aring_step(outcome: &mut FamilyOutcome, rng: &mut SplitMix64, engine: EngineKind) {
    let ring = AtomicRing::new();
    let burst = 2 + rng.gen_range(6) as usize;
    let frames: Vec<Vec<u8>> = (0..burst).map(|i| request(rng).encode_with_tag(i)).collect();
    for frame in &frames {
        ring.try_push(frame).expect("ring has room");
    }
    if rng.gen_range(2) == 0 {
        // Length-word corruption: the consumer must clamp, returning a
        // truncated (undecodable) frame rather than over-reading.
        assert!(ring.corrupt_newest_len(ARING_SLOT_BYTES as u32 + 1 + rng.next_u64() as u32));
        let mut clamped = false;
        for (index, expected) in frames.iter().enumerate() {
            let Some(frame) = ring.try_pop() else {
                outcome.breach(format!(
                    "[{}] lost atomic-ring slot {index} after length corruption",
                    engine.name(),
                ));
                return;
            };
            if frame.len() > ARING_SLOT_BYTES {
                outcome.breach(format!(
                    "[{}] consumer over-read a corrupted length: {} bytes",
                    engine.name(),
                    frame.len(),
                ));
                return;
            }
            if index + 1 == burst {
                clamped = frame.len() == ARING_SLOT_BYTES
                    && WireRequest::decode(&frame).is_err();
            } else if frame != *expected {
                outcome.breach(format!(
                    "[{}] survivor frame {index} was altered by a corruption \
                     targeting another slot",
                    engine.name(),
                ));
                return;
            }
        }
        if clamped {
            outcome.detected();
        } else {
            outcome.breach(format!(
                "[{}] hostile length word neither clamped nor rejected",
                engine.name(),
            ));
        }
    } else {
        // Sequence-word corruption: the slot must vanish from the
        // consumer's view and the loss must surface as backpressure.
        assert!(ring.corrupt_newest_seq(1 + rng.gen_range(u32::MAX as u64 - 1) as u32));
        for (index, expected) in frames.iter().enumerate().take(burst - 1) {
            match ring.try_pop() {
                Some(frame) if &frame == expected => {}
                other => {
                    outcome.breach(format!(
                        "[{}] survivor frame {index} misdelivered after seq \
                         corruption: {other:?}",
                        engine.name(),
                    ));
                    return;
                }
            }
        }
        if ring.try_pop().is_some() {
            outcome.breach(format!(
                "[{}] a seq-corrupted slot was still handed to the consumer",
                engine.name(),
            ));
            return;
        }
        let mut full = false;
        for i in 0..=ARING_CAPACITY {
            match ring.try_push(&[i as u8]) {
                Ok(_) => {}
                Err(ARingError::Full) => {
                    full = true;
                    break;
                }
                Err(e) => {
                    outcome.breach(format!("[{}] refill failed oddly: {e}", engine.name()));
                    return;
                }
            }
        }
        if full {
            outcome.detected();
        } else {
            outcome.breach(format!(
                "[{}] the stuck slot never surfaced as backpressure: silent loss",
                engine.name(),
            ));
        }
    }
}

trait TaggedEncode {
    fn encode_with_tag(&self, tag: usize) -> Vec<u8>;
}

impl TaggedEncode for WireRequest {
    fn encode_with_tag(&self, tag: usize) -> Vec<u8> {
        let mut request = self.clone();
        request.task = tag as u64;
        request.encode()
    }
}

/// Runs the ring-corruption campaign: the virtual channel's fault hooks
/// on the virtual substrate, the atomic ring's control words on the wall
/// substrate (each engine attacks the ring the way it drives it: owned by
/// one thread, or shared between two).
pub fn run(engine: EngineKind, seed: u64, steps: u32) -> FamilyOutcome {
    let mut outcome = FamilyOutcome::new(AttackFamily::RingCorruption, engine);
    let mut rng = SplitMix64::new(seed);
    for _ in 0..steps {
        match engine {
            EngineKind::Virtual => {
                if rng.gen_range(2) == 0 {
                    virtual_step(&mut outcome, &mut rng, engine);
                } else {
                    virtual_response_step(&mut outcome, &mut rng, engine);
                }
            }
            EngineKind::Wall => aring_step(&mut outcome, &mut rng, engine),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_ring_corruption_is_always_detected() {
        let outcome = run(EngineKind::Virtual, 13, 200);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0);
    }

    #[test]
    fn atomic_ring_corruption_clamps_hides_or_backpressures() {
        let outcome = run(EngineKind::Wall, 13, 200);
        assert!(outcome.breaches.is_empty(), "{:?}", outcome.breaches);
        assert!(outcome.detected > 0);
        assert_eq!(outcome.served, 0, "every wall step corrupts something");
    }
}
