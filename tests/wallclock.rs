//! The cross-mode differential gate.
//!
//! The wall-clock substrate (real threads, atomic rings, lock-free grant
//! reads) is only trustworthy if it computes *exactly* what the
//! deterministic virtual substrate computes — the virtual clock stays the
//! correctness oracle, the wall clock only changes how long things take.
//! These tests pin that equivalence at three levels:
//!
//! 1. **Bytes** — the same workload through both engines yields
//!    byte-identical encoded responses, in the same order.
//! 2. **Replay lints** — both engines' assembled traces pass the
//!    `RP001`–`RP006` replay checks with zero error-class findings, and a
//!    rogue workload fires `RP001` identically in both.
//! 3. **Interleavings** — the atomic ring behaves FIFO at pipeline depth
//!    1 and at the fast path's depth 8, including under a saturating
//!    producer.
//! 4. **N = 1** — a single guest is the one-guest case of the multi-guest
//!    engine: the same workload as the only guest and as one guest among
//!    idle neighbours yields the same bytes on both substrates.

use paradice_analyzer::lint::{replay, DiagCode, Diagnostic, Severity};
use paradice_cvd::exec::{run_workload, ExecRun, ScriptedService, WorkloadOp};
use paradice_cvd::multi::{build_multi, MultiEngine};
use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_cvd::SchedPolicy;
use paradice_devfs::ioc::{iowr, IoctlCmd};
use paradice_devfs::Errno;
use paradice_hypervisor::{EngineError, EngineKind, MemOpGrant};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

const DEVICE: &str = "/dev/exec0";

/// The interactive ioctl: `RADEON_INFO`-shaped — 8 bytes in, 8 bytes out,
/// one grant pair per call.
const INTERACTIVE_CMD: IoctlCmd = iowr(b'd', 0x27, 16);

/// The mixed reference workload: interactive ioctls (grant pair each),
/// netmap-style writes (one wide grant), and grantless polls.
fn reference_ops() -> Vec<WorkloadOp> {
    let mut ops = Vec::new();
    for i in 0..60u64 {
        let arg = 0x10_0000 + (i % 32) * 16;
        ops.push(WorkloadOp {
            op: WireOp::Ioctl {
                cmd: INTERACTIVE_CMD,
                arg,
            },
            grants: vec![
                MemOpGrant::CopyFromGuest {
                    addr: GuestVirtAddr::new(arg),
                    len: 8,
                },
                MemOpGrant::CopyToGuest {
                    addr: GuestVirtAddr::new(arg),
                    len: 8,
                },
            ],
        });
        if i % 3 == 0 {
            ops.push(WorkloadOp {
                op: WireOp::Write {
                    addr: GuestVirtAddr::new(0x20_0000 + i * 512),
                    len: 512,
                },
                grants: vec![MemOpGrant::CopyFromGuest {
                    addr: GuestVirtAddr::new(0x20_0000 + i * 512),
                    len: 512,
                }],
            });
        }
        if i % 5 == 0 {
            ops.push(WorkloadOp {
                op: WireOp::Poll,
                grants: Vec::new(),
            });
        }
    }
    ops
}

/// Runs `ops` as `guest` of a `guests`-guest engine (the others idle).
fn run_as(kind: EngineKind, guests: usize, guest: u32, ops: &[WorkloadOp]) -> ExecRun {
    let (service, _) = ScriptedService::new();
    let mut engine = build_multi(kind, service, guests, SchedPolicy::FairShare);
    run_workload(engine.as_mut(), guest, DEVICE, ops).expect("run")
}

fn run(kind: EngineKind, ops: &[WorkloadOp]) -> ExecRun {
    run_as(kind, 1, 0, ops)
}

fn errors(diags: &[Diagnostic]) -> Vec<&Diagnostic> {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

#[test]
fn both_modes_compute_identical_op_semantics() {
    let ops = reference_ops();
    let virt = run(EngineKind::Virtual, &ops);
    let wall = run(EngineKind::Wall, &ops);
    assert_eq!(virt.responses.len(), ops.len());
    // Level 1: byte identity, response for response.
    assert_eq!(
        virt.responses, wall.responses,
        "substrates must agree byte-for-byte"
    );
    // And the decoded op-level view agrees too (no compensating encode
    // bugs): every pair decodes to the same success value.
    for (v, w) in virt.responses.iter().zip(&wall.responses) {
        let v = WireResponse::decode(v).expect("virtual response decodes");
        let w = WireResponse::decode(w).expect("wall response decodes");
        assert_eq!(v, w);
        assert!(!matches!(v, WireResponse::Err(_)), "reference ops succeed");
    }
}

#[test]
fn both_modes_replay_lint_clean() {
    let ops = reference_ops();
    for kind in [EngineKind::Virtual, EngineKind::Wall] {
        let result = run(kind, &ops);
        let mut diags = Vec::new();
        let summary = replay::check_trace(&result.trace, &mut diags);
        assert_eq!(summary.spans, ops.len(), "{kind}: one span per op");
        assert!(summary.mem_ops > 0, "{kind}: memops recorded");
        assert!(
            errors(&diags).is_empty(),
            "{kind}: replay must be clean, got {:?}",
            errors(&diags)
        );
    }
}

#[test]
fn a_single_guest_is_the_one_guest_case_of_the_multi_engine() {
    // The only guest of a 1-guest engine vs. guest 3 of a 4-guest engine
    // with three idle neighbours: the requests differ (guest-qualified
    // grant refs) but every response byte must not, on either substrate.
    let ops = reference_ops();
    for kind in [EngineKind::Virtual, EngineKind::Wall] {
        let alone = run_as(kind, 1, 0, &ops);
        let among = run_as(kind, 4, 3, &ops);
        assert_eq!(
            alone.responses, among.responses,
            "{kind}: idle neighbours must not change a response byte"
        );
        for result in [&alone, &among] {
            let mut diags = Vec::new();
            let summary = replay::check_trace(&result.trace, &mut diags);
            assert_eq!(summary.spans, ops.len(), "{kind}: one span per op");
            assert!(
                errors(&diags).is_empty(),
                "{kind}: replay must be clean, got {:?}",
                errors(&diags)
            );
        }
    }
}

#[test]
fn rogue_memop_fires_rp001_identically_in_both_modes() {
    // arg == u64::MAX makes ScriptedService read outside the declared
    // grant — the wall substrate must refuse it exactly like the oracle.
    let rogue = vec![WorkloadOp {
        op: WireOp::Ioctl {
            cmd: INTERACTIVE_CMD,
            arg: u64::MAX,
        },
        grants: vec![MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(0x1000),
            len: 8,
        }],
    }];
    let mut per_mode = Vec::new();
    for kind in [EngineKind::Virtual, EngineKind::Wall] {
        let result = run(kind, &rogue);
        assert_eq!(
            WireResponse::decode(&result.responses[0]).expect("decodes"),
            WireResponse::Err(Errno::Efault),
            "{kind}: blocked memop must fail the op"
        );
        let mut diags = Vec::new();
        replay::check_trace(&result.trace, &mut diags);
        let rp001: Vec<String> = diags
            .iter()
            .filter(|d| d.code == DiagCode::Rp001 && d.severity == Severity::Error)
            .map(|d| d.message.clone())
            .collect();
        assert!(!rp001.is_empty(), "{kind}: RP001 must fire");
        per_mode.push((result.responses, rp001));
    }
    let (virt_responses, virt_rp001) = &per_mode[0];
    let (wall_responses, wall_rp001) = &per_mode[1];
    assert_eq!(virt_responses, wall_responses);
    assert_eq!(virt_rp001, wall_rp001, "same finding, same wording");
}

/// Encodes a minimal grantless request whose response value identifies it
/// (the echo service answers `Write` with `Value(len)`, so `len` is the
/// tag).
fn tagged_write(span: u64, tag: u64) -> (Vec<u8>, i64) {
    let request = WireRequest {
        task: 1,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 1,
        span,
        grant: None,
        op: WireOp::Write {
            addr: GuestVirtAddr::new(0),
            len: tag,
        },
    };
    (request.encode(), tag as i64)
}

/// A 1-guest wall engine whose service performs no memory operations, so
/// grantless requests succeed: pure ring-interleaving pressure.
fn echo_engine() -> Box<dyn MultiEngine> {
    let echo = |req: &WireRequest| {
        let value = match &req.op {
            WireOp::Write { len, .. } => *len as i64,
            _ => 0,
        };
        (WireResponse::Value(value), Vec::new())
    };
    build_multi(EngineKind::Wall, echo, 1, SchedPolicy::FairShare)
}

#[test]
fn atomic_ring_is_fifo_at_depth_1() {
    let mut engine = echo_engine();
    for i in 0..200u64 {
        let (frame, expect) = tagged_write(i + 1, i);
        engine.submit(0, &frame).expect("submit");
        let (_, response) = engine.complete_blocking().expect("complete");
        assert_eq!(
            WireResponse::decode(&response).expect("decodes"),
            WireResponse::Value(expect),
            "depth-1 round trip {i}"
        );
    }
    engine.finish();
}

#[test]
fn atomic_ring_is_fifo_at_depth_8() {
    let mut engine = echo_engine();
    let mut next = 0u64;
    let mut drained = 0u64;
    // Keep exactly 8 in flight; completions must arrive in submit order
    // even though the backend races ahead on its own thread.
    while drained < 2_000 {
        while next - drained < 8 && next < 2_000 {
            let (frame, _) = tagged_write(next + 1, next);
            match engine.submit(0, &frame) {
                Ok(()) => next += 1,
                Err(EngineError::Backpressure) => break,
                Err(e) => panic!("submit: {e}"),
            }
        }
        let (_, response) = engine.complete_blocking().expect("complete");
        assert_eq!(
            WireResponse::decode(&response).expect("decodes"),
            WireResponse::Value(drained as i64),
            "completion order must be submission order"
        );
        drained += 1;
    }
    engine.finish();
}

#[test]
fn saturating_producer_never_loses_or_reorders_frames() {
    // Push as hard as the ring allows (backpressure-drain loop) and let
    // the backend thread race: every frame must come back exactly once,
    // in order.
    let mut engine = echo_engine();
    let total = 5_000u64;
    let mut submitted = 0u64;
    let mut drained = 0u64;
    while drained < total {
        if submitted < total {
            let (frame, _) = tagged_write(submitted + 1, submitted);
            match engine.submit(0, &frame) {
                Ok(()) => {
                    submitted += 1;
                    continue;
                }
                Err(EngineError::Backpressure) => {}
                Err(e) => panic!("submit: {e}"),
            }
        }
        let (_, response) = engine.complete_blocking().expect("complete");
        assert_eq!(
            WireResponse::decode(&response).expect("decodes"),
            WireResponse::Value(drained as i64)
        );
        drained += 1;
    }
    engine.finish();
}

#[test]
fn survival_matrix_is_identical_on_the_wall_substrate() {
    // The PR-3 fault campaign (seed 42, 50 campaigns) on the wall clock:
    // fault selection derives only from the seed and the matrix carries
    // no timestamps, so the real-time substrate must reproduce the
    // virtual oracle's survival matrix exactly — including all 35 of 35
    // driver-VM deaths recovering.
    let virt = paradice_bench::faults::run_campaigns_on(EngineKind::Virtual, 42, 50);
    let wall = paradice_bench::faults::run_campaigns_on(EngineKind::Wall, 42, 50);
    assert_eq!(
        virt.matrix().render(),
        wall.matrix().render(),
        "wall substrate must reproduce the virtual survival matrix"
    );
    assert_eq!(virt.recovery_counts(), (35, 35));
    assert_eq!(wall.recovery_counts(), (35, 35));
    assert!(wall.pass(), "{}", wall.render());
    assert_eq!(wall.guest_failures(), 0);
}
