//! Multi-tenant scale-out gates: the fairness regression and the
//! wait-queue-cap contract on both substrates.
//!
//! ISSUE 10's two scale-out promises, pinned as tests rather than bench
//! numbers:
//!
//! 1. **Fairness** — one light interactive guest beside 99 heavy
//!    neighbors holding their wait queues at the cap, under the default
//!    fair-share policy, on both substrates. Only deterministic facts are
//!    asserted: the flood hits the cap (backpressure observed) and keeps
//!    progressing (fair share never starves the heavies), every guest's
//!    completions arrive in its submission order, and every accepted op
//!    completes exactly once. On the deterministic virtual substrate the
//!    light op is additionally never more than one op per neighbor behind
//!    in service order and its virtual-time p99 stays bounded. The
//!    *wall-clock* latency of the light guest is a measurement, not a
//!    test: `BENCHMARK.json` gates it (`host_p50_us` on
//!    `wall_flood_100g`).
//! 2. **The cap** — driving one guest's queue past its cap surfaces as
//!    `EngineError::Backpressure` (the guest's own `EAGAIN`) and nothing
//!    else: every accepted op completes exactly once, in submission
//!    order, and the queue is usable again once drained.

use std::collections::VecDeque;

use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_cvd::{build_multi, MultiEngine, SchedPolicy, ScriptedService, MULTI_QUEUE_CAP};
use paradice_devfs::ioc::io;
use paradice_hypervisor::{EngineError, EngineKind, GrantRef, MemOpGrant};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

/// Modeled virtual time is deterministic, so this bound is exact, not a
/// tolerance: the light op waits for at most one op per neighbor.
const VIRTUAL_FLOOD_P99_BOUND_NS: u64 = 10_000_000;

/// What one flood run observed. FIFO and conservation are asserted
/// inside [`flood`] itself, on every completion.
struct Flood {
    /// Heavy submissions the engine refused with `Backpressure`.
    backpressured: u64,
    /// Heavy completions while the light guest was still issuing ops.
    heavy_done: u64,
    /// The light guest's per-op latency on the engine's own clock, sorted.
    light_latencies_ns: Vec<u64>,
    /// Most heavy completions between one light submit and its completion.
    max_heavies_ahead: usize,
}

/// Guest 0 issues `light_ops` interactive ioctls one at a time while
/// guests `1..guests` keep 512-byte-and-up writes queued to the cap.
fn flood(kind: EngineKind, guests: usize, light_ops: usize) -> Flood {
    let (service, _) = ScriptedService::new();
    let mut engine = build_multi(kind, service, guests, SchedPolicy::FairShare);
    // Per guest, in submission order: the value the response must carry
    // and the grant to revoke on completion.
    let mut pending: Vec<VecDeque<(i64, GrantRef)>> = vec![VecDeque::new(); guests];
    let mut heavy_seq = vec![0u64; guests];
    let mut run = Flood {
        backpressured: 0,
        heavy_done: 0,
        light_latencies_ns: Vec::with_capacity(light_ops),
        max_heavies_ahead: 0,
    };
    // Takes one completion and checks it is the oldest pending op of the
    // guest it names (per-guest FIFO, nothing invented).
    let complete_one = |engine: &mut dyn MultiEngine,
                        pending: &mut Vec<VecDeque<(i64, GrantRef)>>|
     -> u32 {
        let (guest, frame) = engine.complete_blocking().expect("engine healthy");
        let (tag, grant) = pending[guest as usize]
            .pop_front()
            .expect("completion matches a pending op");
        assert_eq!(
            WireResponse::decode(&frame).expect("decodes"),
            WireResponse::Value(tag),
            "{kind}: guest {guest} completed out of submission order"
        );
        engine.grants().revoke(guest, grant);
        guest
    };
    for index in 0..light_ops as u64 {
        // Top every heavy neighbor up until the *engine* refuses: each
        // round ends on a real `Backpressure` from the submit path.
        for guest in 1..guests {
            loop {
                let (frame, grant, tag) =
                    tagged_write(engine.as_mut(), guest as u32, 511 + heavy_seq[guest]);
                match engine.submit(guest as u32, &frame) {
                    Ok(()) => {
                        pending[guest].push_back((tag, grant));
                        heavy_seq[guest] += 1;
                    }
                    Err(EngineError::Backpressure) => {
                        engine.grants().revoke(guest as u32, grant);
                        run.backpressured += 1;
                        break;
                    }
                    Err(e) => panic!("{kind}: heavy submit failed: {e}"),
                }
            }
        }
        // The light guest's single interactive op, followed to completion.
        let (frame, grant) = granted_ioctl(engine.as_mut(), 0, 0x9000 + index % 64 * 16);
        engine.submit(0, &frame).expect("light queue has room");
        pending[0].push_back((0, grant));
        let submitted_ns = engine.clock().now_ns();
        let mut heavies_ahead = 0;
        while complete_one(engine.as_mut(), &mut pending) != 0 {
            heavies_ahead += 1;
        }
        run.light_latencies_ns
            .push(engine.clock().now_ns().saturating_sub(submitted_ns));
        run.heavy_done += heavies_ahead as u64;
        run.max_heavies_ahead = run.max_heavies_ahead.max(heavies_ahead);
    }
    // Conservation: everything accepted comes back, and nothing more.
    while pending.iter().any(|queue| !queue.is_empty()) {
        complete_one(engine.as_mut(), &mut pending);
    }
    assert!(matches!(engine.complete(), Ok(None)), "{kind}: drained dry");
    engine.finish();
    run.light_latencies_ns.sort_unstable();
    run
}

#[test]
fn the_light_guest_p99_stays_bounded_under_a_99_guest_flood_virtual() {
    let run = flood(EngineKind::Virtual, 100, 50);
    assert!(run.backpressured > 0, "the flood must hit the cap");
    assert!(run.heavy_done > 0, "the heavies must keep progressing");
    assert!(
        run.max_heavies_ahead <= 99,
        "the light op waited behind {} heavy ops — more than one per neighbor",
        run.max_heavies_ahead,
    );
    let p99 = run.light_latencies_ns[(run.light_latencies_ns.len() - 1) * 99 / 100];
    assert!(
        p99 < VIRTUAL_FLOOD_P99_BOUND_NS,
        "virtual light-guest p99 {p99} ns breached the {VIRTUAL_FLOOD_P99_BOUND_NS} ns bound",
    );
}

/// The wall-clock twin asserts no latency: real time on a loaded 2-core
/// box is a measurement (`BENCHMARK.json`, `wall_flood_100g`), and the
/// service order depends on real service times. What must hold on real
/// threads is what [`flood`] checks on every completion — per-guest FIFO
/// and conservation — plus backpressure and progress.
#[test]
fn the_light_guest_p99_stays_bounded_under_a_99_guest_flood_wall() {
    let run = flood(EngineKind::Wall, 100, 50);
    assert!(run.backpressured > 0, "the flood must hit the cap");
    assert!(run.heavy_done > 0, "the heavies must keep progressing");
}

/// A netmap-style granted write whose echoed `Value(len)` tags it, so
/// completion order is checkable against submission order.
fn tagged_write(engine: &mut dyn MultiEngine, guest: u32, index: u64) -> (Vec<u8>, GrantRef, i64) {
    let len = index + 1;
    let addr = GuestVirtAddr::new(0x4_0000 + index * 0x1000);
    let grant = engine
        .grants()
        .declare(guest, vec![MemOpGrant::CopyFromGuest { addr, len }])
        .expect("declare");
    let frame = WireRequest {
        task: u64::from(guest) + 1,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 1,
        span: 0,
        grant: Some(grant),
        op: WireOp::Write { addr, len },
    }
    .encode();
    (frame, grant, len as i64)
}

#[test]
fn cap_overflow_is_clean_backpressure_with_fifo_preserved_on_both_substrates() {
    for kind in [EngineKind::Virtual, EngineKind::Wall] {
        let (service, _) = ScriptedService::new();
        let mut engine = build_multi(kind, service, 2, SchedPolicy::FairShare);
        let mut expected: Vec<i64> = Vec::new();
        let mut grants: Vec<GrantRef> = Vec::new();
        let mut backpressured = 0usize;
        for i in 0..(MULTI_QUEUE_CAP + 8) as u64 {
            let (frame, grant, tag) = tagged_write(engine.as_mut(), 0, i);
            match engine.submit(0, &frame) {
                Ok(()) => {
                    expected.push(tag);
                    grants.push(grant);
                }
                Err(EngineError::Backpressure) => {
                    backpressured += 1;
                    engine.grants().revoke(0, grant);
                }
                Err(e) => panic!("{kind}: overflow surfaced as {e:?}, not backpressure"),
            }
        }
        // The cap is the frontend's in-flight bound on both substrates.
        assert_eq!(expected.len(), MULTI_QUEUE_CAP, "{kind}: accepted to the cap");
        assert_eq!(backpressured, 8, "{kind}: every overflow backpressured");
        // Every accepted op completes exactly once, in submission order.
        let mut echoed: Vec<i64> = Vec::new();
        for grant in &grants {
            let (guest, frame) = engine.complete_blocking().expect("drain");
            assert_eq!(guest, 0, "{kind}: completions belong to the flooder");
            match WireResponse::decode(&frame).expect("decodes") {
                WireResponse::Value(v) => echoed.push(v),
                other => panic!("{kind}: accepted write answered {other:?}"),
            }
            engine.grants().revoke(0, *grant);
        }
        assert_eq!(echoed, expected, "{kind}: FIFO preserved, nothing dropped");
        assert!(matches!(engine.complete(), Ok(None)), "{kind}: drained dry");
        // Backpressure is transient: the drained queue accepts again.
        let (frame, grant, tag) = tagged_write(engine.as_mut(), 0, 99);
        engine.submit(0, &frame).expect("drained queue accepts");
        let (_, frame) = engine.complete_blocking().expect("post-drain completion");
        assert_eq!(
            WireResponse::decode(&frame).expect("decodes"),
            WireResponse::Value(tag),
            "{kind}: the queue works normally after the flood"
        );
        engine.grants().revoke(0, grant);
        engine.finish();
    }
}

/// An interactive ioctl (8 bytes in, 8 bytes out at `arg`) with its grant
/// pair declared; `ScriptedService` answers it `Value(0)`.
fn granted_ioctl(engine: &mut dyn MultiEngine, guest: u32, arg: u64) -> (Vec<u8>, GrantRef) {
    let addr = GuestVirtAddr::new(arg);
    let grant = engine
        .grants()
        .declare(
            guest,
            vec![
                MemOpGrant::CopyFromGuest { addr, len: 8 },
                MemOpGrant::CopyToGuest { addr, len: 8 },
            ],
        )
        .expect("declare");
    let frame = WireRequest {
        task: u64::from(guest) + 1,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 1,
        span: 0,
        grant: Some(grant),
        op: WireOp::Ioctl { cmd: io(b'T', 1), arg },
    }
    .encode();
    (frame, grant)
}

/// The light guest's end-to-end virtual latency behind 7 flooding
/// neighbors, under `policy`.
fn light_latency_ns(policy: SchedPolicy) -> u64 {
    let (service, _) = ScriptedService::new();
    let mut engine = build_multi(EngineKind::Virtual, service, 8, policy);
    for guest in 0..7u32 {
        for i in 0..8u64 {
            let addr = GuestVirtAddr::new(0x10_0000 + u64::from(guest) * 0x10_000 + i * 0x1000);
            let grant = engine
                .grants()
                .declare(guest, vec![MemOpGrant::CopyFromGuest { addr, len: 4096 }])
                .expect("declare heavy");
            let frame = WireRequest {
                task: u64::from(guest) + 1,
                pt_root: GuestPhysAddr::new(0x4000),
                handle: 1,
                span: 0,
                grant: Some(grant),
                op: WireOp::Write { addr, len: 4096 },
            }
            .encode();
            engine.submit(guest, &frame).expect("submit heavy");
        }
    }
    let (frame, _) = granted_ioctl(engine.as_mut(), 7, 0x9000);
    engine.submit(7, &frame).expect("submit light");
    loop {
        let (guest, response) = engine.complete_blocking().expect("serve");
        if guest == 7 {
            assert_eq!(
                WireResponse::decode(&response).expect("decodes"),
                WireResponse::Value(0),
                "the light ioctl must succeed"
            );
            return engine.clock().now_ns();
        }
    }
}

#[test]
fn fair_share_beats_fifo_for_the_light_guest_on_the_virtual_oracle() {
    // Same backlog, same arrival order; only the policy differs. Under
    // FIFO the light ioctl waits out all 56 heavy writes; under the
    // default fair share it is served within a couple of picks.
    let fifo = light_latency_ns(SchedPolicy::Fifo);
    let fair = light_latency_ns(SchedPolicy::FairShare);
    assert!(
        fair * 4 < fifo,
        "fair share must cut the light guest's latency well below FIFO's \
         (fair {fair} ns vs fifo {fifo} ns)"
    );
}
