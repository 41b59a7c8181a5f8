//! One op lifecycle, two drivers of it. `Machine::ioctl` is `post` + one
//! backend step + `complete`; `ioctl_pipelined` + `flush_pipeline` is
//! `post` × n, the backend step × n, `complete` × n — the same two halves
//! of `cvd::frontend`. This test drives one seeded sequence of
//! `RADEON_INFO` / `GEM_PWRITE` ioctls through both, with the fast path
//! off (ring depth 1) and on (depth 8, one batch), under no fault and under
//! every `FaultKind` armed on the first, a middle and the last op, and
//! pins what must agree and exactly where a batch legitimately differs.

use std::cell::RefCell;
use std::rc::Rc;

use paradice::app::drm::DrmClient;
use paradice::gpu_ioctl::{gem_domain, info, RADEON_GEM_PWRITE, RADEON_INFO};
use paradice::prelude::*;
use paradice_cvd::exec::{run_workload, ScriptedService, WorkloadOp};
use paradice_cvd::frontend::BREAKER_BASE_BACKOFF_NS;
use paradice_cvd::multi::build_multi;
use paradice_cvd::{SchedPolicy, WireOp};
use paradice_devfs::ioc::IoctlCmd;
use paradice_drivers::gpu::driver::GEM_CREATE_LAZY_MAP;
use paradice_faults::{FaultKind, FaultPlan, Trigger};
use paradice_hypervisor::engine::EngineKind;
use paradice_hypervisor::MemOpGrant;
use paradice_mem::{GuestVirtAddr, PAGE_SIZE};
use paradice_trace::{TraceEvent, TraceOpKind};

/// Ops per run: one batch at ring depth 8.
const OPS: usize = 6;
const SEED: u64 = 0x5eed_0024;

fn gpu_machine(fastpath: bool) -> Machine {
    let mut m = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .build()
        .expect("machine builds");
    if fastpath {
        m.enable_fastpath();
    }
    m
}

/// Stages a `RADEON_INFO(DEVICE_ID)` request in a buffer of its own.
fn stage_info(m: &mut Machine, task: TaskId) -> u64 {
    let arg = m.alloc_buffer(task, 64).expect("arg");
    let mut req = [0u8; 16];
    req[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
    m.write_mem(task, arg, &req).expect("stage info");
    arg.raw()
}

/// Stages the seeded sequence: each op gets its own argument buffer, so a
/// batch in flight never overwrites a neighbour's request.
fn stage_ops(m: &mut Machine, drm: &DrmClient) -> Vec<(IoctlCmd, u64)> {
    let bo = drm.gem_create(m, PAGE_SIZE, gem_domain::VRAM).expect("bo");
    let payload = m.alloc_buffer(drm.task, 256).expect("payload");
    m.write_mem(drm.task, payload, &[0xab; 256]).expect("stage payload");
    let mut rng = SEED;
    (0..OPS)
        .map(|_| {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if rng >> 63 == 0 {
                return (RADEON_INFO, stage_info(m, drm.task));
            }
            let mut req = [0u8; 32];
            req[0..4].copy_from_slice(&bo.to_le_bytes());
            req[16..24].copy_from_slice(&256u64.to_le_bytes());
            req[24..32].copy_from_slice(&payload.raw().to_le_bytes());
            let arg = m.alloc_buffer(drm.task, 64).expect("arg");
            m.write_mem(drm.task, arg, &req).expect("stage pwrite");
            (RADEON_GEM_PWRITE, arg.raw())
        })
        .collect()
}

/// What one run of the sequence left behind.
struct Outcome {
    results: Vec<Result<i64, Errno>>,
    driver_vm_failed: bool,
    breaker_open: bool,
    backoff_ns: u64,
    outstanding_grants: usize,
    elapsed_ns: u64,
    hypercalls: u64,
    interrupts: u64,
    /// The cost model's charge for one inter-VM interrupt.
    interrupt_ns: u64,
}

fn run(pipelined: bool, fastpath: bool, fault: Option<(FaultKind, usize)>) -> Outcome {
    let mut m = gpu_machine(fastpath);
    let task = m.spawn_process(Some(0)).expect("task");
    let drm = DrmClient::open(&mut m, task).expect("open card0");
    let ops = stage_ops(&mut m, &drm);
    if let Some((kind, nth)) = fault {
        let mut plan = FaultPlan::new();
        let op = "ioctl".to_owned();
        plan.arm(kind, Trigger::OnOp { op, nth: nth as u64 });
        assert!(m.arm_faults(Rc::new(RefCell::new(plan))));
    }
    let (t0, h0) = (m.now_ns(), m.hypercall_count());
    let i0 = m.channel_stats(0).expect("stats").interrupt_deliveries;
    let results = if pipelined {
        // A refused submission is that op's result; the rest surface at
        // the flush, in submission order.
        let submitted: Vec<_> = ops
            .iter()
            .map(|&(cmd, arg)| m.ioctl_pipelined(task, drm.fd, cmd, arg))
            .collect();
        let mut flushed = m.flush_pipeline(task).expect("flush").into_iter();
        let results: Vec<_> = submitted
            .into_iter()
            .map(|s| s.map_or_else(Err, |()| flushed.next().expect("one result per submission")))
            .collect();
        assert_eq!(flushed.next(), None, "no result without a submission");
        results
    } else {
        ops.iter().map(|&(cmd, arg)| m.ioctl(task, drm.fd, cmd, arg)).collect()
    };
    let frontend = m.frontend(0).expect("frontend");
    let outcome = Outcome {
        results,
        driver_vm_failed: m.driver_vm_failed(),
        breaker_open: frontend.borrow().breaker_open(),
        backoff_ns: frontend.borrow().breaker_backoff_ns(),
        outstanding_grants: m.hv().borrow().outstanding_grants(m.guest_vms()[0]),
        elapsed_ns: m.now_ns() - t0,
        hypercalls: m.hypercall_count() - h0,
        interrupts: m.channel_stats(0).expect("stats").interrupt_deliveries - i0,
        interrupt_ns: m.hv().borrow().cost().intervm_interrupt_ns,
    };
    // Whatever the run did, the guest gets a working device back.
    let (cmd, arg) = ops[0];
    let fd = if outcome.driver_vm_failed {
        m.recover_driver_vm().expect("driver VM reboots");
        assert_eq!(m.ioctl(task, drm.fd, cmd, arg), Err(Errno::Ebadf), "old handles died");
        m.open(task, "/dev/dri/card0").expect("reopen")
    } else {
        drm.fd
    };
    assert!(!frontend.borrow().breaker_open());
    let arg = stage_info(&mut m, task);
    assert_eq!(m.ioctl(task, fd, RADEON_INFO, arg), Ok(0));
    outcome
}

/// The per-op results the lifecycle owes for `fault`. `batched`: the ops
/// were one pipelined batch (all posted, then all served, then all
/// completed) rather than posted and completed one at a time.
fn expected_results(batched: bool, fault: Option<(FaultKind, usize)>) -> Vec<Result<i64, Errno>> {
    use FaultKind::*;
    let mut want = vec![Ok(0); OPS];
    let Some((kind, k)) = fault else {
        return want;
    };
    let last = OPS - 1;
    match kind {
        DriverOops => want[k] = Err(Errno::Eio),
        DelayDelivery if !batched => want[k] = Err(Errno::Etimedout),
        // A batch measures delivery lag against its *last* post: a delay
        // before it is indistinguishable from a slow op, a delay after it
        // makes the whole batch late. Neither contains.
        DelayDelivery if k == last => want.fill(Err(Errno::Etimedout)),
        DelayDelivery => {}
        // Garbage is found at the op it was posted for; containment fails
        // everything behind it — by the breaker or wholesale in the batch.
        MalformedResponse | TruncatedResponse => want[k..].fill(Err(Errno::Eio)),
        DriverPanic | Hang | WildMemOp | DropDelivery if !batched || k == last => {
            want[k] = Err(Errno::Etimedout);
            want[k + 1..].fill(Err(Errno::Eio));
        }
        // A missing response inside a batch shifts the FIFO match: every
        // later op takes its successor's response, and the shortfall
        // surfaces — and is contained — at the last entry. After a panic
        // or wild access the successors' responses are the dead VM's EIO
        // refusals.
        Hang | DropDelivery => want[last] = Err(Errno::Etimedout),
        DriverPanic | WildMemOp => {
            want[k..last].fill(Err(Errno::Eio));
            want[last] = Err(Errno::Etimedout);
        }
    }
    want
}

#[test]
fn sync_and_pipelined_ops_are_one_lifecycle() {
    let faults = FaultKind::ALL
        .into_iter()
        .flat_map(|kind| [0, OPS / 2, OPS - 1].map(|k| Some((kind, k))));
    for fault in std::iter::once(None).chain(faults) {
        for fastpath in [false, true] {
            let ctx = format!("fault {fault:?}, fast path {fastpath}");
            let sync = run(false, fastpath, fault);
            let pipe = run(true, fastpath, fault);
            assert_eq!(sync.results, expected_results(false, fault), "sync, {ctx}");
            assert_eq!(pipe.results, expected_results(fastpath, fault), "pipelined, {ctx}");

            // Containment is the lifecycle's, not the driver's: same
            // verdict, one breaker trip, every grant gone.
            let contains = !matches!(
                fault,
                None | Some((FaultKind::DriverOops | FaultKind::DelayDelivery, _))
            );
            let backoff_ns = if contains { BREAKER_BASE_BACKOFF_NS } else { 0 };
            for (who, run) in [("sync", &sync), ("pipelined", &pipe)] {
                assert_eq!(run.driver_vm_failed, contains, "{who}, {ctx}");
                assert_eq!(run.breaker_open, contains, "{who}, {ctx}");
                assert_eq!(run.backoff_ns, backoff_ns, "{who}, {ctx}");
            }
            assert_eq!(sync.outstanding_grants, pipe.outstanding_grants, "{ctx}");
            if contains {
                assert_eq!(sync.outstanding_grants, 0, "{ctx}");
                // No cost comparison here: a batch's backend service
                // overlaps the watchdog wait a synchronous op spends
                // alone, so the two clocks part by that service time.
                continue;
            }
            // Without containment both drivers do the same work; a batch
            // only rides one doorbell each way where one-at-a-time ops
            // ring one per op.
            let doorbells_saved = if fastpath { 2 * (OPS as u64 - 1) } else { 0 };
            assert_eq!(sync.hypercalls, pipe.hypercalls, "{ctx}");
            assert_eq!(sync.interrupts - pipe.interrupts, doorbells_saved, "{ctx}");
            assert_eq!(
                sync.elapsed_ns - pipe.elapsed_ns,
                doorbells_saved * sync.interrupt_ns,
                "{ctx}"
            );
        }
    }
}

/// What `WireOp::span_labels` returns.
type SpanLabels = (TraceOpKind, Option<u32>, Option<u64>, Option<u64>);

/// `OpStart` labels of every span in `events`.
fn span_labels(events: &[TraceEvent]) -> Vec<SpanLabels> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::OpStart { op, cmd, addr, len, .. } => Some((*op, *cmd, *addr, *len)),
            _ => None,
        })
        .collect()
}

#[test]
fn the_engine_seam_labels_spans_as_the_frontend_does() {
    // The frontend's record of an ioctl and a fault …
    let mut m = gpu_machine(false);
    let task = m.spawn_process(Some(0)).expect("task");
    let drm = DrmClient::open(&mut m, task).expect("open card0");
    let bo = drm
        .gem_create_with_flags(&mut m, PAGE_SIZE, gem_domain::VRAM, GEM_CREATE_LAZY_MAP)
        .expect("lazy bo");
    let va = drm.gem_map(&mut m, bo, PAGE_SIZE).expect("map");
    let arg = stage_info(&mut m, task);
    let tracer = m.enable_tracing();
    m.ioctl(task, drm.fd, RADEON_INFO, arg).expect("info");
    m.fault_page(task, drm.fd, va).expect("fault");
    let frontend = span_labels(&tracer.events());
    assert_eq!(
        frontend,
        [
            (TraceOpKind::Ioctl, Some(RADEON_INFO.raw()), Some(arg), Some(16)),
            (TraceOpKind::Fault, None, Some(va.raw()), Some(PAGE_SIZE)),
        ]
    );

    // … is what `run_workload` records for the same two ops.
    let ops = [
        WorkloadOp {
            op: WireOp::Ioctl { cmd: RADEON_INFO, arg },
            grants: vec![MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(arg), len: 16 }],
        },
        WorkloadOp {
            op: WireOp::Fault { va },
            grants: Vec::new(),
        },
    ];
    let (service, _) = ScriptedService::new();
    let mut engine = build_multi(EngineKind::Virtual, service, 1, SchedPolicy::FairShare);
    let run = run_workload(engine.as_mut(), 0, "/dev/dri/card0", &ops).expect("run");
    assert_eq!(span_labels(&run.trace), frontend);
}
