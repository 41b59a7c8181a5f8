//! Fast path × failure: the cross-layer fast path (grant-declaration
//! cache, vectored hypercalls, pipelined ring) must change performance
//! only, never semantics. These tests pin the interaction with §7.1
//! fault injection — cached grant references die with the driver VM, no
//! stale reference survives recovery, a faulted op mid-batch applies
//! none of its memory ops — and replay the lint gate over a traced
//! fast-path run: cached-grant runs still satisfy
//! used ⊆ declared ⊆ envelope.

use std::cell::RefCell;
use std::rc::Rc;

use paradice::gpu_ioctl::{info, RADEON_INFO};
use paradice::prelude::*;
use paradice_analyzer::lint::conformance::{self, ObservedIoctl};
use paradice_analyzer::lint::{replay, Diagnostic, Severity};
use paradice_bench::tracing::record_fastpath_workload_trace;
use paradice_cvd::frontend::DEFAULT_OP_DEADLINE_NS;
use paradice_drivers::all_handlers;
use paradice_faults::{FaultKind, FaultPlan, Trigger};
use paradice_hypervisor::audit::BlockedBy;
use paradice_trace::{parse_jsonl, TraceEvent};

fn fast_machine(devices: &[DeviceSpec]) -> Machine {
    let mut builder = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guests([GuestSpec::linux(), GuestSpec::linux()]);
    for &spec in devices {
        builder = builder.device(spec);
    }
    let mut machine = builder.build().expect("machine builds");
    machine.enable_fastpath();
    machine
}

/// Arms a single-shot fault on the `nth` dispatch of `op` *from now on*.
fn armed(m: &mut Machine, kind: FaultKind, op: &str, nth: u64) -> Rc<RefCell<FaultPlan>> {
    let mut plan = FaultPlan::new();
    plan.arm(kind, Trigger::OnOp { op: op.to_owned(), nth });
    let plan = Rc::new(RefCell::new(plan));
    assert!(m.arm_faults(plan.clone()), "Paradice mode arms faults");
    plan
}

/// Stages a 16-byte `RADEON_INFO(DEVICE_ID)` request at a fresh buffer;
/// the response bytes (8..16) start zeroed.
fn stage_info(m: &mut Machine, task: TaskId) -> paradice_mem::GuestVirtAddr {
    let scratch = m.alloc_buffer(task, 256).expect("scratch");
    let mut req = [0u8; 16];
    req[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
    m.write_mem(task, scratch, &req).expect("stage request");
    scratch
}

fn info_result(m: &mut Machine, task: TaskId, scratch: paradice_mem::GuestVirtAddr) -> u64 {
    let mut out = [0u8; 16];
    m.read_mem(task, scratch, &mut out).expect("read result");
    u64::from_le_bytes(out[8..16].try_into().expect("len 8"))
}

fn cache_len(m: &Machine) -> usize {
    m.frontend(0).expect("frontend").borrow().grant_cache_len()
}

fn cache_hits(m: &Machine) -> u64 {
    m.frontend(0).expect("frontend").borrow().stats().grant_cache_hits
}

#[test]
fn cached_grant_refs_are_revoked_when_the_driver_vm_fails() {
    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let scratch = stage_info(&mut m, task);
    for _ in 0..5 {
        m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    }
    // The cache holds a live declaration between ops …
    assert!(cache_len(&m) >= 1, "warm-up must populate the grant cache");
    let guest = m.guest_vms()[0];
    assert!(
        m.hv().borrow().outstanding_grants(guest) >= 1,
        "a cached declaration stays outstanding between ops"
    );
    // … until the watchdog marks the driver VM failed.
    armed(&mut m, FaultKind::Hang, "ioctl", 0);
    assert_eq!(m.ioctl(task, fd, RADEON_INFO, scratch.raw()), Err(Errno::Etimedout));
    assert!(m.driver_vm_failed());
    assert_eq!(
        m.hv().borrow().outstanding_grants(guest),
        0,
        "containment must revoke cached grant refs with everything else"
    );
    assert_eq!(cache_len(&m), 0, "the frontend cache must not hold dead refs");
}

#[test]
fn no_stale_cached_ref_survives_driver_vm_recovery() {
    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let scratch = stage_info(&mut m, task);
    for _ in 0..3 {
        m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    }
    armed(&mut m, FaultKind::DriverPanic, "ioctl", 0);
    assert_eq!(m.ioctl(task, fd, RADEON_INFO, scratch.raw()), Err(Errno::Etimedout));
    assert!(m.driver_vm_failed());

    m.recover_driver_vm().expect("driver VM reboots");
    assert_eq!(cache_len(&m), 0, "recovery must start from an empty cache");
    // The pre-crash handle died with the VM; nothing it cached may serve.
    assert_eq!(m.ioctl(task, fd, RADEON_INFO, scratch.raw()), Err(Errno::Ebadf));
    // A fresh session works and re-populates the cache from cold.
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let scratch = stage_info(&mut m, task);
    let hits = cache_hits(&m);
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    assert_eq!(cache_hits(&m), hits, "first post-recovery op is a cold declare");
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    assert_eq!(cache_hits(&m), hits + 1, "second op hits the rebuilt cache");
    // Every outstanding grant is accounted for by the live cache — no
    // stale pre-crash reference lingers in the hypervisor.
    let guest = m.guest_vms()[0];
    assert_eq!(m.hv().borrow().outstanding_grants(guest), cache_len(&m));
}

#[test]
fn a_faulted_op_mid_batch_applies_none_of_its_memory_ops() {
    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    // Control: a successful op writes the device id into bytes 8..16.
    let control = stage_info(&mut m, task);
    m.ioctl(task, fd, RADEON_INFO, control.raw()).unwrap();
    assert_ne!(info_result(&mut m, task, control), 0, "control op must write its result");

    // Four pipelined ops, each with its own result buffer; the wild
    // memory op fires on the third dispatch of the batch.
    let buffers: Vec<_> = (0..4).map(|_| stage_info(&mut m, task)).collect();
    armed(&mut m, FaultKind::WildMemOp, "ioctl", 2);
    let before = m.hv().borrow().audit().count_blocked_by(BlockedBy::GrantCheck);
    for buffer in &buffers {
        m.ioctl_pipelined(task, fd, RADEON_INFO, buffer.raw()).unwrap();
    }
    let results = m.flush_pipeline(task).expect("drain runs containment, not transport failure");
    assert_eq!(results.len(), buffers.len(), "every submission gets a result");
    assert!(results[0].is_ok() && results[1].is_ok(), "{results:?}");
    assert!(results[2].is_err() && results[3].is_err(), "{results:?}");

    // The ungranted access was blocked and audited, the VM contained.
    assert!(m.hv().borrow().audit().count_blocked_by(BlockedBy::GrantCheck) > before);
    assert!(m.driver_vm_failed());
    // All-or-nothing: the faulted op's buffer saw none of its memory ops,
    // and the op queued behind it was refused before dispatch.
    assert_eq!(info_result(&mut m, task, buffers[2]), 0, "faulted op must apply nothing");
    assert_eq!(info_result(&mut m, task, buffers[3]), 0, "queued op must apply nothing");
    assert_ne!(info_result(&mut m, task, buffers[0]), 0, "pre-fault entries completed");
    // And no grant — cached or batch-scoped — survives containment.
    let guest = m.guest_vms()[0];
    assert_eq!(m.hv().borrow().outstanding_grants(guest), 0);
    assert_eq!(cache_len(&m), 0);
}

#[test]
fn hang_detection_and_fail_fast_are_unchanged_by_the_fast_path() {
    let mut m = fast_machine(&[DeviceSpec::Mouse]);
    armed(&mut m, FaultKind::Hang, "read", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    let buf = m.alloc_buffer(task, 64).unwrap();
    let t0 = m.now_ns();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Etimedout));
    assert!(
        m.now_ns() - t0 >= DEFAULT_OP_DEADLINE_NS,
        "the watchdog still waits out its deadline with the fast path on"
    );
    assert!(m.driver_vm_failed());
    // Fail-fast: no forwarding, no second deadline.
    let forwarded = m.frontend(0).unwrap().borrow().stats().ops_forwarded;
    let t1 = m.now_ns();
    assert_eq!(m.read(task, fd, buf, 16), Err(Errno::Eio));
    assert_eq!(m.frontend(0).unwrap().borrow().stats().ops_forwarded, forwarded);
    assert!(m.now_ns() - t1 < DEFAULT_OP_DEADLINE_NS);
}

#[test]
fn a_driver_oops_fails_one_op_but_cached_grants_stay_valid() {
    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let scratch = stage_info(&mut m, task);
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    let len = cache_len(&m);
    assert!(len >= 1);
    // An oops kills the faulting thread, not the VM: the cache keeps its
    // declarations and the very next op is served from it.
    armed(&mut m, FaultKind::DriverOops, "ioctl", 0);
    assert_eq!(m.ioctl(task, fd, RADEON_INFO, scratch.raw()), Err(Errno::Eio));
    assert!(!m.driver_vm_failed(), "an oops kills the thread, not the VM");
    assert_eq!(cache_len(&m), len, "no containment, no purge");
    let hits = cache_hits(&m);
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    assert_eq!(cache_hits(&m), hits + 1, "the surviving cache serves the retry");
}

#[test]
fn recovery_restores_service_for_every_device_class_with_the_fast_path_on() {
    let mut m = fast_machine(&[
        DeviceSpec::gpu(),
        DeviceSpec::Mouse,
        DeviceSpec::Camera,
        DeviceSpec::Audio,
        DeviceSpec::Netmap,
    ]);
    armed(&mut m, FaultKind::DriverPanic, "poll", 0);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/input/event0").unwrap();
    assert_eq!(m.poll(task, fd), Err(Errno::Etimedout));
    assert!(m.driver_vm_failed());

    m.recover_driver_vm().expect("driver VM reboots");
    assert!(!m.driver_vm_failed());
    assert_eq!(m.poll(task, fd), Err(Errno::Ebadf), "pre-crash handles are dead");
    for path in [
        "/dev/dri/card0",
        "/dev/input/event0",
        "/dev/video0",
        "/dev/snd/pcmC0D0p",
        "/dev/netmap",
    ] {
        let fd = m.open(task, path).unwrap_or_else(|e| panic!("{path}: {e:?}"));
        m.close(task, fd).unwrap_or_else(|e| panic!("{path}: {e:?}"));
    }
    // The cached-grant path works end to end on the rebooted VM.
    let fd = m.open(task, "/dev/dri/card0").unwrap();
    let scratch = stage_info(&mut m, task);
    let hits = cache_hits(&m);
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    assert_eq!(cache_hits(&m), hits + 1);
    // The other guest was never disturbed.
    let task1 = m.spawn_process(Some(1)).unwrap();
    let fd1 = m.open(task1, "/dev/video0").unwrap();
    m.close(task1, fd1).unwrap();
}

/// Replays a JSONL trace through the span checks plus the per-device
/// static-envelope check, mirroring `paradice-lint --replay`.
fn replay_trace(text: &str) -> Vec<Diagnostic> {
    let events = parse_jsonl(text).expect("trace parses");
    let mut diags = Vec::new();
    let summary = replay::check_trace(&events, &mut diags);
    let handlers = all_handlers();
    let mut by_driver: Vec<(&str, Vec<ObservedIoctl>)> = Vec::new();
    for (device, obs) in summary.ioctls {
        let name = match device.as_str() {
            "/dev/dri/card0" => "radeon-3.2.0",
            "/dev/input/event0" | "/dev/input/event1" => "evdev",
            other => panic!("fast-path workload touched unexpected device {other}"),
        };
        match by_driver.iter_mut().find(|(n, _)| *n == name) {
            Some((_, list)) => list.push(obs),
            None => by_driver.push((name, vec![obs])),
        }
    }
    for (name, observed) in &by_driver {
        let (_, handler) = handlers
            .iter()
            .find(|(n, _)| n == name)
            .expect("registered handler");
        conformance::check_replay(name, handler, observed, &mut diags);
    }
    diags
}

#[test]
fn a_traced_fastpath_run_replays_with_zero_error_class_findings() {
    let jsonl = record_fastpath_workload_trace();
    let events = parse_jsonl(&jsonl).expect("trace parses");
    // The run actually exercised the cache: one cold declare, then hits.
    let hits = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GrantCache { hit: true, .. }))
        .count();
    let cold = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GrantCache { hit: false, .. }))
        .count();
    assert!(hits >= 4, "expected cache hits in the trace, got {hits}");
    assert!(cold >= 1, "expected a cold declare in the trace, got {cold}");
    // The lint gate is caching-oblivious: cached-grant spans still satisfy
    // used ⊆ declared ⊆ envelope, so no error-class finding fires.
    let diags = replay_trace(&jsonl);
    let errors: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .collect();
    assert!(errors.is_empty(), "fast-path trace must replay clean: {errors:?}");
}

#[test]
fn evicting_a_cached_shape_with_an_op_in_flight_defers_the_revoke() {
    // The scenario the bounded-model checker's `cache-revocation` property
    // flagged (and `tests/fixtures/verify/cache-evict-inflight.fixture`
    // pins): fill the cache to capacity, put an op in flight on the
    // FIFO-oldest shape, then declare one more shape so the cache evicts
    // the oldest entry. The evicted ref is attached to the pipelined op —
    // ownership must transfer to that op (revoke at completion), never
    // revoke mid-flight.
    use paradice_cvd::frontend::GRANT_CACHE_CAP;

    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let task = m.spawn_process(Some(0)).unwrap();
    let fd = m.open(task, "/dev/dri/card0").unwrap();

    // Fill the cache with GRANT_CACHE_CAP distinct op shapes (one scratch
    // buffer each). Shape 0 is the FIFO-oldest entry afterwards.
    let mut scratches = Vec::with_capacity(GRANT_CACHE_CAP + 1);
    for _ in 0..=GRANT_CACHE_CAP {
        scratches.push(stage_info(&mut m, task));
    }
    for scratch in &scratches[..GRANT_CACHE_CAP] {
        m.ioctl(task, fd, RADEON_INFO, scratch.raw()).unwrap();
    }
    assert_eq!(cache_len(&m), GRANT_CACHE_CAP, "cache filled to capacity");
    let guest = m.guest_vms()[0];
    assert_eq!(m.hv().borrow().outstanding_grants(guest), GRANT_CACHE_CAP);

    // An op on the oldest shape rides the pipeline (cache hit: it borrows
    // the cached ref), then one more *new* shape forces the eviction of
    // exactly that entry while the op is still in flight.
    m.ioctl_pipelined(task, fd, RADEON_INFO, scratches[0].raw()).unwrap();
    m.ioctl_pipelined(task, fd, RADEON_INFO, scratches[GRANT_CACHE_CAP].raw()).unwrap();
    assert_eq!(cache_len(&m), GRANT_CACHE_CAP, "eviction kept the cache at capacity");
    assert_eq!(
        m.hv().borrow().outstanding_grants(guest),
        GRANT_CACHE_CAP + 1,
        "the evicted ref must stay outstanding while its op is in flight"
    );

    // Both ops complete: the hit on the evicted shape validated against a
    // still-live ref, and the transferred ref is revoked at completion.
    let results = m.flush_pipeline(task).expect("transport stays up");
    assert_eq!(results.len(), 2);
    for result in &results {
        assert!(result.is_ok(), "pipelined op failed after eviction: {result:?}");
    }
    assert_eq!(
        m.hv().borrow().outstanding_grants(guest),
        cache_len(&m),
        "after the flush every outstanding grant is a live cache entry"
    );
    assert_eq!(cache_len(&m), GRANT_CACHE_CAP);
}

#[test]
fn a_flush_returns_only_the_calling_tasks_results() {
    let mut m = fast_machine(&[DeviceSpec::gpu()]);
    let (a, b) = (
        m.spawn_process(Some(0)).unwrap(),
        m.spawn_process(Some(0)).unwrap(),
    );
    let (fd_a, fd_b) = (
        m.open(a, "/dev/dri/card0").unwrap(),
        m.open(b, "/dev/dri/card0").unwrap(),
    );
    let (good_a, good_b) = (stage_info(&mut m, a), stage_info(&mut m, b));
    // A request id the driver refuses, so A's two results differ in order.
    let bad_a = m.alloc_buffer(a, 256).unwrap();
    m.write_mem(a, bad_a, &[0xff; 16]).unwrap();
    m.ioctl_pipelined(a, fd_a, RADEON_INFO, good_a.raw())
        .unwrap();
    m.ioctl_pipelined(b, fd_b, RADEON_INFO, good_b.raw())
        .unwrap();
    m.ioctl_pipelined(a, fd_a, RADEON_INFO, bad_a.raw())
        .unwrap();
    let for_a = m.flush_pipeline(a).expect("flush A");
    assert_eq!(for_a.len(), 2, "A submitted two ops: {for_a:?}");
    assert!(
        for_a[0].is_ok() && for_a[1] == Err(Errno::Einval),
        "{for_a:?}"
    );
    // B's op completed in A's flush; its result waits for B's.
    assert_ne!(info_result(&mut m, b, good_b), 0, "B's op ran");
    assert_eq!(m.flush_pipeline(b).expect("flush B"), vec![Ok(0)]);
    assert!(m.flush_pipeline(a).expect("flush A again").is_empty());
}
