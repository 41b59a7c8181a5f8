//! What sits on either side of the engine seam: the device-model
//! contract, the server's device step, and the differential harness.
//!
//! The engine itself lives in [`crate::multi`] — a single guest is the
//! N = 1 case of [`MultiEngine`]. This module holds [`DeviceService`]
//! (what the engine's server serves), `dispatch` (serve, validate every
//! memory operation against the [`ShardedGrantTable`]) and
//! [`run_workload`], which drives one guest's workload through an engine
//! of either kind and assembles the artifacts the cross-mode differential
//! gate (`tests/wallclock.rs`) compares: for one workload, both
//! substrates must produce byte-identical encoded responses and
//! replay-lint-clean traces.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use paradice_devfs::Errno;
use paradice_hypervisor::engine::{EngineError, EngineKind};
use paradice_hypervisor::{Clock, GrantRef, MemOpGrant, MemOpRequest, ShardedGrantTable};
use paradice_mem::GuestPhysAddr;
use paradice_trace::{SpanId, TraceEvent, TraceMemOpKind, WireDelta};

use crate::frontend::trace_grant;
use crate::multi::MultiEngine;
use crate::proto::{WireOp, WireRequest, WireResponse};

/// A deterministic device model serving decoded wire requests.
///
/// `serve` returns the response *and* the memory operations the driver
/// performed for this request; the engine validates each against the
/// grant table (blocked operations turn the response into `EFAULT`,
/// mirroring the hypervisor refusing the hypercall). Must be `Send`: the
/// wall substrate runs it on the backend thread.
pub trait DeviceService: Send + 'static {
    /// Serves one request.
    fn serve(&mut self, req: &WireRequest) -> (WireResponse, Vec<MemOpRequest>);
}

impl<F> DeviceService for F
where
    F: FnMut(&WireRequest) -> (WireResponse, Vec<MemOpRequest>) + Send + 'static,
{
    fn serve(&mut self, req: &WireRequest) -> (WireResponse, Vec<MemOpRequest>) {
        self(req)
    }
}

fn memop_trace_fields(request: &MemOpRequest) -> (TraceMemOpKind, u64, u64) {
    match *request {
        MemOpRequest::CopyFromGuest { addr, len } => {
            (TraceMemOpKind::CopyFromGuest, addr.raw(), len)
        }
        MemOpRequest::CopyToGuest { addr, len } => (TraceMemOpKind::CopyToGuest, addr.raw(), len),
        MemOpRequest::MapPage { va, .. } => {
            (TraceMemOpKind::MapPage, va.raw(), paradice_mem::PAGE_SIZE)
        }
        MemOpRequest::UnmapPage { va } => {
            (TraceMemOpKind::UnmapPage, va.raw(), paradice_mem::PAGE_SIZE)
        }
    }
}

/// The engine server's device step: serve a decoded request (`None`: the
/// frame did not decode, `EINVAL`), validate every memory operation
/// against the grant table, record the outcome — a traced request's
/// memory operations as events stamped on `clock`, read only for them.
/// A blocked operation (no grant attached, or the grant does not cover
/// it) turns the response into `EFAULT` — the hypervisor refused the
/// hypercall, so the driver's operation failed. The caller encodes the
/// response where it keeps it.
pub(crate) fn dispatch<C: Clock>(
    guest: u32,
    request: Option<&WireRequest>,
    service: &mut dyn DeviceService,
    grants: &ShardedGrantTable,
    clock: &C,
    events: &mut Vec<TraceEvent>,
) -> WireResponse {
    let Some(request) = request else {
        return WireResponse::Err(Errno::Einval);
    };
    let (response, memops) = service.serve(request);
    let mut blocked = false;
    for memop in &memops {
        let ok = match request.grant {
            Some(grant) => grants.validate(guest, grant, memop).is_ok(),
            None => false,
        };
        blocked |= !ok;
        if request.span != 0 {
            let (kind, addr, len) = memop_trace_fields(memop);
            events.push(TraceEvent::MemOp {
                span: SpanId(request.span),
                t_ns: clock.now_ns(),
                kind,
                addr,
                len,
                ok,
            });
        }
    }
    if blocked {
        WireResponse::Err(Errno::Efault)
    } else {
        response
    }
}

/// One workload item: a wire operation plus the grants its frontend
/// declares for it (empty for operations touching no process memory).
#[derive(Debug, Clone)]
pub struct WorkloadOp {
    /// The file operation to forward.
    pub op: WireOp,
    /// Grants covering the memory operations the driver will perform.
    pub grants: Vec<MemOpGrant>,
}

/// What one engine produced for one workload.
#[derive(Debug)]
pub struct ExecRun {
    /// Which substrate ran.
    pub kind: EngineKind,
    /// Encoded response frames, in submission order — the byte-identity
    /// side of the differential gate.
    pub responses: Vec<Vec<u8>>,
    /// The assembled per-span trace (frontend `OpStart`/`Grants`/`OpEnd`
    /// around the backend's `MemOp`s) — the replay-lint side of the gate.
    pub trace: Vec<TraceEvent>,
    /// Total time on the engine's own clock: modeled ns on the virtual
    /// substrate, real ns on the wall substrate.
    pub elapsed_ns: u64,
}

fn op_start(span: u64, t_ns: u64, guest: u32, device: &str, op: &WireOp) -> TraceEvent {
    let (kind, cmd, addr, len) = op.span_labels();
    TraceEvent::OpStart {
        span: SpanId(span),
        t_ns,
        guest: u64::from(guest),
        task: 1,
        handle: 1,
        device: device.to_string(),
        op: kind,
        cmd,
        addr,
        len,
    }
}

/// Drives `ops` through `engine` as `guest`, pipelined to the guest's
/// wait-queue cap, and assembles the differential artifacts: ordered
/// encoded responses plus a replayable trace. `guest` must be the only
/// guest submitting; the engine is finished (backend stopped) on return.
///
/// # Errors
///
/// Propagates engine failures ([`EngineError::Dead`] et al.); a healthy
/// run never errors.
pub fn run_workload(
    engine: &mut dyn MultiEngine,
    guest: u32,
    device: &str,
    ops: &[WorkloadOp],
) -> Result<ExecRun, EngineError> {
    struct SpanLog {
        start: TraceEvent,
        grants: Option<TraceEvent>,
        end: Option<TraceEvent>,
        started_ns: u64,
        request_bytes: u64,
    }

    let clock = engine.clock();
    let started_ns = clock.now_ns();
    let mut spans: Vec<SpanLog> = Vec::with_capacity(ops.len());
    let mut pending: VecDeque<(usize, Option<GrantRef>)> = VecDeque::new();
    let mut responses: Vec<Vec<u8>> = Vec::with_capacity(ops.len());

    let drain_one = |engine: &mut dyn MultiEngine,
                         pending: &mut VecDeque<(usize, Option<GrantRef>)>,
                         spans: &mut Vec<SpanLog>,
                         responses: &mut Vec<Vec<u8>>|
     -> Result<(), EngineError> {
        let (owner, frame) = engine.complete_blocking()?;
        assert_eq!(owner, guest, "only the driven guest has ops in flight");
        let (index, grant) = pending
            .pop_front()
            .expect("completion without a pending span");
        if let Some(grant) = grant {
            engine.grants().revoke(guest, grant);
        }
        let now = engine.clock().now_ns();
        let (ok, value) = match WireResponse::decode(&frame) {
            Ok(WireResponse::Value(v)) => (true, v),
            Ok(WireResponse::Poll(events)) => (true, i64::from(events.bits())),
            Ok(WireResponse::Err(errno)) => (false, -i64::from(errno.code())),
            Err(_) => (false, -i64::from(Errno::Einval.code())),
        };
        let log = &mut spans[index];
        log.end = Some(TraceEvent::OpEnd {
            span: SpanId(index as u64 + 1),
            t_ns: now,
            ok,
            value,
            duration_ns: now.saturating_sub(log.started_ns),
            wire: WireDelta {
                bytes_out: log.request_bytes,
                bytes_in: frame.len() as u64,
                deliveries: 2,
            },
        });
        responses.push(frame);
        Ok(())
    };

    for (index, item) in ops.iter().enumerate() {
        let span = index as u64 + 1;
        let grant = if item.grants.is_empty() {
            None
        } else {
            Some(
                engine
                    .grants()
                    .declare(guest, &item.grants)
                    .expect("workload stays under grant capacity"),
            )
        };
        let request = WireRequest {
            task: 1,
            pt_root: GuestPhysAddr::new(0x4000),
            handle: 1,
            span,
            grant,
            op: item.op.clone(),
        };
        let frame = request.encode();
        let now = clock.now_ns();
        spans.push(SpanLog {
            start: op_start(span, now, guest, device, &item.op),
            grants: (!item.grants.is_empty()).then(|| TraceEvent::Grants {
                span: SpanId(span),
                grants: item.grants.iter().map(trace_grant).collect(),
            }),
            end: None,
            started_ns: now,
            request_bytes: frame.len() as u64,
        });
        loop {
            match engine.submit(guest, &frame) {
                Ok(()) => break,
                Err(EngineError::Backpressure) => {
                    drain_one(engine, &mut pending, &mut spans, &mut responses)?;
                }
                Err(e) => return Err(e),
            }
        }
        pending.push_back((index, grant));
    }
    while !pending.is_empty() {
        drain_one(engine, &mut pending, &mut spans, &mut responses)?;
    }
    let elapsed_ns = engine.clock().now_ns().saturating_sub(started_ns);

    // Backend MemOp events, grouped per span for the assembled trace.
    let backend = engine.finish();
    let mut by_span: Vec<Vec<TraceEvent>> = vec![Vec::new(); ops.len()];
    for event in backend {
        if let TraceEvent::MemOp { span, .. } = &event {
            let index = (span.0 - 1) as usize;
            if index < by_span.len() {
                by_span[index].push(event);
            }
        }
    }
    let mut trace = Vec::new();
    for (index, log) in spans.into_iter().enumerate() {
        trace.push(log.start);
        if let Some(grants) = log.grants {
            trace.push(grants);
        }
        trace.append(&mut by_span[index]);
        trace.push(log.end.expect("all spans drained"));
    }

    Ok(ExecRun {
        kind: engine.kind(),
        responses,
        trace,
        elapsed_ns,
    })
}

/// Shared scripted device model for benches and the differential test: a
/// deterministic function of the request, so both substrates must agree.
///
/// * `Ioctl` — reads 8 bytes at `arg` and writes 8 bytes back (the
///   interactive `RADEON_INFO` shape); `arg == u64::MAX` marks a
///   *rogue* ioctl whose read lands outside any grant (negative
///   differential case).
/// * `Write` — netmap-TX shape: one read of the descriptor range.
/// * everything else — `Value(0)`, no memory operations.
pub struct ScriptedService {
    ops_served: Arc<Mutex<u64>>,
}

impl ScriptedService {
    /// A fresh service; the counter is shared with the caller.
    pub fn new() -> (Self, Arc<Mutex<u64>>) {
        let counter = Arc::new(Mutex::new(0));
        (
            ScriptedService {
                ops_served: Arc::clone(&counter),
            },
            counter,
        )
    }
}

impl DeviceService for ScriptedService {
    fn serve(&mut self, req: &WireRequest) -> (WireResponse, Vec<MemOpRequest>) {
        *self.ops_served.lock().expect("counter") += 1;
        match &req.op {
            WireOp::Ioctl { arg, .. } if *arg == u64::MAX => (
                WireResponse::Value(0),
                vec![MemOpRequest::CopyFromGuest {
                    addr: paradice_mem::GuestVirtAddr::new(0xdead_0000),
                    len: 8,
                }],
            ),
            WireOp::Ioctl { arg, .. } => (
                WireResponse::Value(0),
                vec![
                    MemOpRequest::CopyFromGuest {
                        addr: paradice_mem::GuestVirtAddr::new(*arg),
                        len: 8,
                    },
                    MemOpRequest::CopyToGuest {
                        addr: paradice_mem::GuestVirtAddr::new(*arg),
                        len: 8,
                    },
                ],
            ),
            WireOp::Write { addr, len } => (
                WireResponse::Value(*len as i64),
                vec![MemOpRequest::CopyFromGuest {
                    addr: *addr,
                    len: *len,
                }],
            ),
            _ => (WireResponse::Value(0), Vec::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchedPolicy;
    use crate::multi::build_multi;
    use paradice_devfs::ioc::{io, IoctlCmd};
    use paradice_mem::GuestVirtAddr;

    fn cmd() -> IoctlCmd {
        io(b'T', 1)
    }

    fn interactive_ops(n: usize) -> Vec<WorkloadOp> {
        (0..n)
            .map(|i| {
                let arg = 0x1_0000 + (i as u64) * 16;
                WorkloadOp {
                    op: WireOp::Ioctl { cmd: cmd(), arg },
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
                }
            })
            .collect()
    }

    fn run(kind: EngineKind, ops: &[WorkloadOp]) -> ExecRun {
        let (service, _) = ScriptedService::new();
        let mut engine = build_multi(kind, service, 1, SchedPolicy::FairShare);
        run_workload(engine.as_mut(), 0, "/dev/test0", ops).expect("run")
    }

    #[test]
    fn both_engines_serve_and_agree_byte_for_byte() {
        let ops = interactive_ops(100);
        let virt = run(EngineKind::Virtual, &ops);
        let wall = run(EngineKind::Wall, &ops);
        assert_eq!(virt.responses.len(), 100);
        assert_eq!(virt.responses, wall.responses);
        assert!(virt.elapsed_ns > 0, "virtual time was charged");
    }

    #[test]
    fn ungranted_memop_faults_identically_in_both_modes() {
        let rogue = WorkloadOp {
            op: WireOp::Ioctl {
                cmd: cmd(),
                arg: u64::MAX,
            },
            grants: vec![MemOpGrant::CopyFromGuest {
                addr: GuestVirtAddr::new(0x1000),
                len: 8,
            }],
        };
        let virt = run(EngineKind::Virtual, std::slice::from_ref(&rogue));
        let wall = run(EngineKind::Wall, std::slice::from_ref(&rogue));
        assert_eq!(virt.responses, wall.responses);
        let response = WireResponse::decode(&virt.responses[0]).expect("decodes");
        assert_eq!(response, WireResponse::Err(Errno::Efault));
        let blocked = virt.trace.iter().any(
            |e| matches!(e, TraceEvent::MemOp { ok, .. } if !ok),
        );
        assert!(blocked, "blocked memop must be recorded");
    }

    #[test]
    fn traces_are_span_coherent_in_both_modes() {
        let ops = interactive_ops(20);
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let run = run(kind, &ops);
            // 20 spans × (OpStart + Grants + 2 MemOps + OpEnd).
            assert_eq!(run.trace.len(), 20 * 5, "{kind}: assembled trace shape");
            for chunk in run.trace.chunks(5) {
                assert!(matches!(chunk[0], TraceEvent::OpStart { .. }));
                assert!(matches!(chunk[1], TraceEvent::Grants { .. }));
                assert!(matches!(chunk[2], TraceEvent::MemOp { ok: true, .. }));
                assert!(matches!(chunk[3], TraceEvent::MemOp { ok: true, .. }));
                assert!(matches!(chunk[4], TraceEvent::OpEnd { ok: true, .. }));
            }
        }
    }

    #[test]
    fn wall_engine_survives_shutdown_and_reports_dead() {
        let (service, _) = ScriptedService::new();
        let mut engine = build_multi(EngineKind::Wall, service, 1, SchedPolicy::FairShare);
        engine.finish();
        assert!(matches!(
            engine.submit(0, b"junk"),
            Err(EngineError::Dead(_))
        ));
    }

    #[test]
    fn malformed_frames_get_einval_not_a_crash() {
        let (service, _) = ScriptedService::new();
        let mut engine = build_multi(EngineKind::Virtual, service, 1, SchedPolicy::FairShare);
        engine.submit(0, b"not a wire request").expect("submit");
        let (_, frame) = engine.complete_blocking().expect("complete");
        assert_eq!(
            WireResponse::decode(&frame).expect("decodes"),
            WireResponse::Err(Errno::Einval)
        );
    }
}
