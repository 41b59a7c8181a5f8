//! The execution substrates: N guests' channels behind the one
//! [`MultiEngine`] seam, one implementation per [`EngineKind`].
//!
//! A single guest is the N = 1 case — [`crate::exec::run_workload`], the
//! differential harness, drives one guest of any engine built here, and
//! this module is the only place a backend thread is spawned. N guests
//! share one device roster, and the ISSUE 10 requirement is that one
//! guest's backlog or grant churn never contends on another's fast path:
//!
//! * **Per-guest queues.** Each guest gets its own request/response
//!   channel: a virtual-time `VecDeque` pair on [`MultiVirtualEngine`],
//!   a real [`AtomicRing`] pair on [`MultiWallEngine`]. A flooding
//!   guest fills only its own queue.
//! * **Per-guest wait-queue caps.** Submission past the cap fails with
//!   [`EngineError::Backpressure`] — the engine-seam spelling of the
//!   backend's `EDQUOT` (paper §5.1, the per-guest 100-op cap): the
//!   guest's own syscall returns `EAGAIN` and *nothing is dropped or
//!   reordered* — every accepted op completes, in per-guest FIFO order.
//! * **Fair-share service.** The shared backend picks the next guest by
//!   least consumed service time ([`FairSched`], the default policy),
//!   so a light guest's op overtakes a heavy neighbor's backlog without
//!   ever starving it.
//! * **Per-guest grant shards.** Both engines validate against a
//!   [`ShardedGrantTable`] sized for the guest population — declare,
//!   validate, and revoke touch only the owning guest's shard.
//!
//! * **Edges, not scans.** Nothing on the op path looks at a guest that
//!   has no work. On the wall substrate each direction has one *ready
//!   ring* ([`IdRing`]): after pushing a frame into a guest's ring the
//!   producer publishes that guest's id and rings the doorbell — after
//!   *every* publication, never gated on an occupancy view — and the
//!   consumer drains ids into thread-local per-guest pending counts. The
//!   backend feeds [`FairSched`]'s ready heap from them; the frontend
//!   takes completions one per ready guest in rotation. A ready ring
//!   holds at most one id per in-flight op, and the per-guest cap bounds
//!   those, so it is sized never to fill and no guest can crowd another
//!   out of it. Both engines drive the same `enqueue`/`pick_ready` pair.
//!
//! Scheduling state is thread-local: the wall backend thread owns its
//! [`FairSched`] and pending counts and stamps service time with its own
//! clock reads; the frontend owns the per-guest in-flight counts and its
//! completion rotation. What the two threads share is the per-guest
//! rings, the two ready rings and the two doorbells — all one kernel and
//! one doorbell protocol, proved by `race-ring`, `race-ready` and
//! `race-doorbell`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use paradice_hypervisor::engine::{EngineError, EngineKind};
use paradice_hypervisor::{
    ARingError, AtomicRing, ClockSource, CostModel, Doorbell, FairSched, IdRing, SchedPolicy,
    ShardedGrantTable, SimClock, WallClock, WireCodec, ARING_CAPACITY, ARING_SLOT_BYTES,
};
use paradice_trace::TraceEvent;

use crate::exec::{dispatch, DeviceService};
use crate::proto::{WireOp, WireRequest};

/// Per-guest wait-queue cap on both substrates: the wall ring's depth,
/// mirrored by the virtual engine so backpressure kicks in at the same
/// depth on both (differential parity).
pub const MULTI_QUEUE_CAP: usize = ARING_CAPACITY;

/// One completion: which guest it belongs to plus the encoded response.
/// Per-guest FIFO: completions for a guest arrive in that guest's
/// submission order; the scheduler only interleaves *across* guests.
pub type Completion = (u32, Vec<u8>);

/// The engine seam: a pipelined, byte-level submit/complete contract over
/// encoded wire frames, N guests with per-guest queues and caps. How the
/// frames travel — a cost-charged step function or two threads and a
/// doorbell — is the implementation's business.
pub trait MultiEngine {
    /// Which substrate this is.
    fn kind(&self) -> EngineKind;

    /// The engine's clock (virtual or wall).
    fn clock(&self) -> ClockSource;

    /// The shared grant table (per-guest shards).
    fn grants(&self) -> &Arc<ShardedGrantTable>;

    /// Submits `frame` on `guest`'s channel.
    ///
    /// # Errors
    ///
    /// [`EngineError::Backpressure`] when the guest's wait queue is at
    /// its cap (retry after draining completions — nothing was enqueued),
    /// [`EngineError::Oversize`] for frames over the slot size,
    /// [`EngineError::Dead`] after shutdown.
    fn submit(&mut self, guest: u32, frame: &[u8]) -> Result<(), EngineError>;

    /// Takes one completion if available.
    ///
    /// # Errors
    ///
    /// [`EngineError::Dead`] after shutdown or backend death.
    fn complete(&mut self) -> Result<Option<Completion>, EngineError>;

    /// Takes one completion, waiting for the backend if necessary.
    ///
    /// # Errors
    ///
    /// [`EngineError::Dead`] when nothing is in flight (a healthy caller
    /// never blocks on an idle engine) or the backend died.
    fn complete_blocking(&mut self) -> Result<Completion, EngineError>;

    /// Stops the substrate and takes the backend's trace events.
    fn finish(&mut self) -> Vec<TraceEvent>;
}

/// The modeled service cost of one request frame on the virtual clock:
/// dispatch overhead plus per-byte copy cost for the op's payload. This
/// is what makes a netmap batch or camera frame *heavier* than an
/// interactive ioctl in virtual time, so fairness is measurable. The
/// length comes off the wire — hostile input — so it is clamped to 4 GiB:
/// a tampered frame is charged like a huge copy, never wraps the clock.
fn modeled_service_ns(cost: &CostModel, frame: &[u8]) -> u64 {
    let payload = WireRequest::decode(frame).map_or(0, |request| match request.op {
        WireOp::Read { len, .. } | WireOp::Write { len, .. } => len.min(1 << 32),
        WireOp::Ioctl { .. } => 16,
        _ => 0,
    });
    cost.backend_dispatch_ns
        + cost.marshal_ns
        + payload * cost.copy_page_ns / paradice_mem::PAGE_SIZE
}

/// N guests on the deterministic substrate: per-guest queues on one
/// [`SimClock`], the backend serving one op per [`MultiEngine::complete`]
/// in fair-share order, service time charged from the [`CostModel`].
///
/// Frontends are modeled as running on their own vCPUs: submission does
/// not advance the shared clock; only the serialized backend's service
/// does. An op's virtual latency is therefore its queueing delay plus
/// service — exactly the quantity the scheduler controls.
pub struct MultiVirtualEngine {
    clock: SimClock,
    cost: CostModel,
    service: Box<dyn DeviceService>,
    grants: Arc<ShardedGrantTable>,
    /// Per guest: queued request frames with their arrival stamps (FIFO).
    guests: Vec<VecDeque<(u64, Vec<u8>)>>,
    sched: FairSched,
    arrivals: u64,
    backend_events: Vec<TraceEvent>,
    dead: bool,
}

impl MultiVirtualEngine {
    /// An engine for guests `0..guests` under `policy`, all queues capped
    /// at [`MULTI_QUEUE_CAP`].
    pub fn new(service: impl DeviceService, guests: usize, policy: SchedPolicy) -> Self {
        MultiVirtualEngine {
            clock: SimClock::new(),
            cost: CostModel::default(),
            service: Box::new(service),
            grants: Arc::new(ShardedGrantTable::with_guests(guests)),
            guests: vec![VecDeque::new(); guests],
            sched: FairSched::new(policy),
            arrivals: 0,
            backend_events: Vec::new(),
            dead: false,
        }
    }

    /// Serves the fair-share pick's oldest queued op, advancing the
    /// clock by its modeled service time.
    fn serve_one(&mut self) -> Option<Completion> {
        let guest = self.sched.pick_ready()?;
        let queue = &mut self.guests[guest as usize];
        let (_, frame) = queue.pop_front().expect("an enqueued guest is backlogged");
        let next_head = queue.front().map(|(stamp, _)| *stamp);
        let service_ns = modeled_service_ns(&self.cost, &frame);
        self.clock.advance(service_ns);
        self.sched.charge(guest, service_ns);
        if let Some(stamp) = next_head {
            self.sched.enqueue(guest, stamp);
        }
        let response = dispatch(
            guest,
            &frame,
            self.service.as_mut(),
            &self.grants,
            self.clock.now_ns(),
            &mut self.backend_events,
        );
        Some((guest, response.encode()))
    }
}

impl MultiEngine for MultiVirtualEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Virtual
    }

    fn clock(&self) -> ClockSource {
        self.clock.clone().into()
    }

    fn grants(&self) -> &Arc<ShardedGrantTable> {
        &self.grants
    }

    fn submit(&mut self, guest: u32, frame: &[u8]) -> Result<(), EngineError> {
        if self.dead {
            return Err(EngineError::Dead("engine shut down".into()));
        }
        if frame.len() > ARING_SLOT_BYTES {
            return Err(EngineError::Oversize { len: frame.len() });
        }
        let queue = &mut self.guests[guest as usize];
        if queue.len() >= MULTI_QUEUE_CAP {
            return Err(EngineError::Backpressure);
        }
        if queue.is_empty() {
            self.sched.enqueue(guest, self.arrivals);
        }
        queue.push_back((self.arrivals, frame.to_vec()));
        self.arrivals += 1;
        Ok(())
    }

    fn complete(&mut self) -> Result<Option<Completion>, EngineError> {
        if self.dead {
            return Err(EngineError::Dead("engine shut down".into()));
        }
        Ok(self.serve_one())
    }

    fn complete_blocking(&mut self) -> Result<Completion, EngineError> {
        match self.complete()? {
            Some(done) => Ok(done),
            None => Err(EngineError::Dead("no frames in flight".into())),
        }
    }

    fn finish(&mut self) -> Vec<TraceEvent> {
        self.dead = true;
        std::mem::take(&mut self.backend_events)
    }
}

struct WallGuestChannel {
    req_ring: Arc<AtomicRing>,
    resp_ring: Arc<AtomicRing>,
    /// Frontend-local: accepted-but-uncompleted ops, bounded by
    /// [`MULTI_QUEUE_CAP`].
    in_flight: usize,
}

/// Publishes `guest` into a direction's ready ring, then rings its bell —
/// unconditionally: that per-publication protocol is the one
/// `race-doorbell` proves lossless, whereas a ring gated on an occupancy
/// view taken before publishing can lose the wake-up.
fn publish_ready(ready: &IdRing, guest: u32, bell: &Doorbell) {
    ready
        .try_push(guest)
        .expect("a ready ring holds one id per in-flight op");
    bell.ring();
}

/// Drains a ready ring into the consumer's per-guest `pending` counts,
/// reporting each guest whose count left zero. An id is a shared-memory
/// word, so one outside `pending` is ignored, and a count only promises
/// the consumer a *look* at that guest's ring: a look that finds it empty
/// drops the claim (see the callers), it never waits for the frame.
fn drain_ready(ready: &IdRing, pending: &mut [u32], mut became_ready: impl FnMut(u32)) {
    while let Some(guest) = ready.try_pop() {
        let Some(count) = pending.get_mut(guest as usize) else {
            continue;
        };
        *count = count.saturating_add(1);
        if *count == 1 {
            became_ready(guest);
        }
    }
}

/// N guests on the measurement substrate: one [`AtomicRing`] pair per
/// guest, one shared backend thread serving them in fair-share order
/// (service time stamped with real clock reads held in thread-local
/// accounting — no shared scheduler state), one ready ring and one
/// doorbell per direction telling each side which guests have work.
///
/// Single-frontend discipline: one thread constructs and drives all
/// guests' submissions (the constructor registers that thread as the
/// response doorbell's waiter; a driver loop plays every guest's vCPU),
/// so each ready ring has exactly one producer.
pub struct MultiWallEngine {
    clock: WallClock,
    guests: Vec<WallGuestChannel>,
    req_ready: Arc<IdRing>,
    resp_ready: Arc<IdRing>,
    req_bell: Arc<Doorbell>,
    resp_bell: Arc<Doorbell>,
    stop: Arc<AtomicBool>,
    grants: Arc<ShardedGrantTable>,
    worker: Option<JoinHandle<Vec<TraceEvent>>>,
    /// Per guest: responses the backend has announced and
    /// [`MultiEngine::complete`] has not yet taken.
    resp_pending: Vec<u32>,
    /// Guests with announced responses, each once, in the order they take
    /// their turn.
    resp_rotation: VecDeque<u32>,
    total_in_flight: usize,
}

impl MultiWallEngine {
    /// Spawns the shared backend thread over per-guest ring pairs.
    pub fn new(service: impl DeviceService, guests: usize, policy: SchedPolicy) -> Self {
        let clock = WallClock::new();
        let channels: Vec<WallGuestChannel> = (0..guests)
            .map(|_| WallGuestChannel {
                req_ring: Arc::new(AtomicRing::new()),
                resp_ring: Arc::new(AtomicRing::new()),
                in_flight: 0,
            })
            .collect();
        // One id per in-flight op at most, and the per-guest cap bounds
        // those: sized from the guest count, the ready rings never fill.
        let req_ready = Arc::new(IdRing::with_capacity(guests * MULTI_QUEUE_CAP));
        let resp_ready = Arc::new(IdRing::with_capacity(guests * MULTI_QUEUE_CAP));
        let req_bell = Arc::new(Doorbell::new());
        let resp_bell = Arc::new(Doorbell::new());
        let stop = Arc::new(AtomicBool::new(false));
        let grants = Arc::new(ShardedGrantTable::with_guests(guests));
        resp_bell.register(); // we (the constructing thread) are the frontend

        let worker = {
            let rings: Vec<(Arc<AtomicRing>, Arc<AtomicRing>)> = channels
                .iter()
                .map(|c| (Arc::clone(&c.req_ring), Arc::clone(&c.resp_ring)))
                .collect();
            let (req_ready, resp_ready) = (Arc::clone(&req_ready), Arc::clone(&resp_ready));
            let (req_bell, resp_bell) = (Arc::clone(&req_bell), Arc::clone(&resp_bell));
            let (stop, grants) = (Arc::clone(&stop), Arc::clone(&grants));
            let mut service = service;
            std::thread::Builder::new()
                .name("cvd-mx-backend".into())
                .spawn(move || {
                    req_bell.register();
                    // Backend-thread-local scheduling state: consumed
                    // service time per guest, announced-but-unserved
                    // request counts, and backlog-arrival stamps. A guest
                    // is stamped when its count leaves zero and re-stamped
                    // after every served op while it stays backlogged, so
                    // the stamp tracks when the *current head* became
                    // head. The backend cannot observe per-op arrival
                    // times, so wall-side FIFO is a head-age approximation
                    // of the virtual engine's exact per-op arrival order
                    // (under the default fair-share policy stamps are only
                    // the tie-break).
                    let mut sched = FairSched::new(policy);
                    let mut pending = vec![0u32; rings.len()];
                    let mut next_stamp = 0u64;
                    let mut events = Vec::new();
                    loop {
                        drain_ready(&req_ready, &mut pending, |guest| {
                            sched.enqueue(guest, next_stamp);
                            next_stamp += 1;
                        });
                        let Some(guest) = sched.pick_ready() else {
                            if stop.load(Ordering::Acquire) {
                                break;
                            }
                            req_bell.wait(|| {
                                !req_ready.is_empty() || stop.load(Ordering::Acquire)
                            });
                            continue;
                        };
                        let (req_ring, resp_ring) = &rings[guest as usize];
                        // Served in its slot: the frame is decoded where
                        // the frontend wrote it, never copied out.
                        let served = req_ring.try_pop_with(|frame| {
                            let started = clock.now_ns();
                            let response =
                                dispatch(guest, frame, &mut service, &grants, started, &mut events);
                            (started, response)
                        });
                        let Some((started, response)) = served else {
                            // An id with no frame behind it (only a
                            // misbehaving frontend publishes one): drop the
                            // claim. A real frame brings its own id.
                            pending[guest as usize] = 0;
                            continue;
                        };
                        sched.charge(guest, clock.now_ns().saturating_sub(started).max(1));
                        let mut frame = [0u8; ARING_SLOT_BYTES];
                        let len = response.encode_into(&mut frame).expect("a response fits a slot");
                        // The frontend caps a guest at MULTI_QUEUE_CAP =
                        // ARING_CAPACITY ops in flight and counts an op
                        // until it takes the response, so this one's
                        // response always finds a free slot.
                        resp_ring.try_push(&frame[..len]).expect(
                            "a response ring holds at most MULTI_QUEUE_CAP - 1 other responses, \
                             and responses are tiny",
                        );
                        publish_ready(&resp_ready, guest, &resp_bell);
                        let left = &mut pending[guest as usize];
                        *left -= 1;
                        if *left > 0 {
                            // Fresh stamp for the new head: without it a
                            // long-backlogged ring would keep its
                            // first-enqueue stamp and starve younger
                            // queues under SchedPolicy::Fifo.
                            sched.enqueue(guest, next_stamp);
                            next_stamp += 1;
                        }
                    }
                    events
                })
                .expect("spawn cvd-mx-backend thread")
        };

        MultiWallEngine {
            clock,
            resp_pending: vec![0; channels.len()],
            guests: channels,
            req_ready,
            resp_ready,
            req_bell,
            resp_bell,
            stop,
            grants,
            worker: Some(worker),
            resp_rotation: VecDeque::new(),
            total_in_flight: 0,
        }
    }

    fn backend_alive(&self) -> bool {
        self.worker.as_ref().is_some_and(|w| !w.is_finished())
    }

    fn join_backend(&mut self) -> Vec<TraceEvent> {
        self.stop.store(true, Ordering::Release);
        self.req_bell.ring();
        match self.worker.take() {
            Some(worker) => worker.join().unwrap_or_default(),
            None => Vec::new(),
        }
    }
}

impl MultiEngine for MultiWallEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Wall
    }

    fn clock(&self) -> ClockSource {
        self.clock.into()
    }

    fn grants(&self) -> &Arc<ShardedGrantTable> {
        &self.grants
    }

    fn submit(&mut self, guest: u32, frame: &[u8]) -> Result<(), EngineError> {
        if self.worker.is_none() {
            return Err(EngineError::Dead("engine shut down".into()));
        }
        if !self.backend_alive() {
            return Err(EngineError::Dead("backend thread exited".into()));
        }
        let channel = &mut self.guests[guest as usize];
        if channel.in_flight >= MULTI_QUEUE_CAP {
            return Err(EngineError::Backpressure);
        }
        match channel.req_ring.try_push(frame) {
            Ok(_) => {
                channel.in_flight += 1;
                self.total_in_flight += 1;
                publish_ready(&self.req_ready, guest, &self.req_bell);
                Ok(())
            }
            Err(ARingError::Full) => Err(EngineError::Backpressure),
            Err(ARingError::Oversize { len }) => Err(EngineError::Oversize { len }),
        }
    }

    /// One response per ready guest in rotation: a guest with sixteen
    /// responses waiting takes one turn, then queues behind every other
    /// guest that has one — round-robin over ready guests, not the
    /// backend's global service order, so a light guest's completion is
    /// never stuck behind its neighbours' backlog.
    fn complete(&mut self) -> Result<Option<Completion>, EngineError> {
        let rotation = &mut self.resp_rotation;
        drain_ready(&self.resp_ready, &mut self.resp_pending, |guest| {
            rotation.push_back(guest);
        });
        while let Some(guest) = self.resp_rotation.pop_front() {
            let index = guest as usize;
            let Some(frame) = self.guests[index].resp_ring.try_pop() else {
                // Announced but not there: drop the claim, as the backend
                // does for requests.
                self.resp_pending[index] = 0;
                continue;
            };
            self.resp_pending[index] -= 1;
            if self.resp_pending[index] > 0 {
                self.resp_rotation.push_back(guest);
            }
            self.guests[index].in_flight -= 1;
            self.total_in_flight -= 1;
            return Ok(Some((guest, frame)));
        }
        if self.total_in_flight > 0 && !self.backend_alive() {
            return Err(EngineError::Dead("backend thread exited".into()));
        }
        Ok(None)
    }

    fn complete_blocking(&mut self) -> Result<Completion, EngineError> {
        if self.total_in_flight == 0 {
            return Err(EngineError::Dead("no frames in flight".into()));
        }
        loop {
            if let Some(done) = self.complete()? {
                return Ok(done);
            }
            let ready = &self.resp_ready;
            self.resp_bell.wait(|| !ready.is_empty());
        }
    }

    fn finish(&mut self) -> Vec<TraceEvent> {
        self.join_backend()
    }
}

impl Drop for MultiWallEngine {
    fn drop(&mut self) {
        if self.worker.is_some() {
            let _ = self.join_backend();
        }
    }
}

/// Builds the requested substrate as a boxed [`MultiEngine`].
pub fn build_multi(
    kind: EngineKind,
    service: impl DeviceService,
    guests: usize,
    policy: SchedPolicy,
) -> Box<dyn MultiEngine> {
    match kind {
        EngineKind::Virtual => Box::new(MultiVirtualEngine::new(service, guests, policy)),
        EngineKind::Wall => Box::new(MultiWallEngine::new(service, guests, policy)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScriptedService;
    use crate::proto::WireResponse;
    use paradice_devfs::ioc::io;
    use paradice_hypervisor::{GrantRef, MemOpGrant};
    use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

    fn ioctl_frame(guest: u32, grant: Option<GrantRef>, arg: u64) -> Vec<u8> {
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

    fn granted_ioctl(engine: &mut dyn MultiEngine, guest: u32, arg: u64) -> Vec<u8> {
        let grant = engine
            .grants()
            .declare(
                guest,
                vec![
                    MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(arg), len: 8 },
                    MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(arg), len: 8 },
                ],
            )
            .expect("declare");
        ioctl_frame(guest, Some(grant), arg)
    }

    #[test]
    fn completions_carry_the_owning_guest_on_both_substrates() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, _) = ScriptedService::new();
            let mut engine = build_multi(kind, service, 4, SchedPolicy::FairShare);
            for guest in 0..4u32 {
                let frame = granted_ioctl(engine.as_mut(), guest, 0x1000 + u64::from(guest) * 64);
                engine.submit(guest, &frame).expect("submit");
            }
            let mut seen = Vec::new();
            for _ in 0..4 {
                let (guest, frame) = engine.complete_blocking().expect("complete");
                assert_eq!(
                    WireResponse::decode(&frame).expect("decodes"),
                    WireResponse::Value(0),
                    "{kind}: granted ioctl must succeed"
                );
                seen.push(guest);
            }
            seen.sort_unstable();
            assert_eq!(seen, vec![0, 1, 2, 3], "{kind}: one completion per guest");
            engine.finish();
        }
    }

    #[test]
    fn cross_guest_grants_fault_on_both_substrates() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, _) = ScriptedService::new();
            let mut engine = build_multi(kind, service, 2, SchedPolicy::FairShare);
            // Guest 1 declares; guest 0 spends the (valid!) foreign ref.
            let grant = engine
                .grants()
                .declare(
                    1,
                    vec![
                        MemOpGrant::CopyFromGuest { addr: GuestVirtAddr::new(0x2000), len: 8 },
                        MemOpGrant::CopyToGuest { addr: GuestVirtAddr::new(0x2000), len: 8 },
                    ],
                )
                .expect("declare");
            engine
                .submit(0, &ioctl_frame(0, Some(grant), 0x2000))
                .expect("submit");
            let (guest, frame) = engine.complete_blocking().expect("complete");
            assert_eq!(guest, 0);
            assert_eq!(
                WireResponse::decode(&frame).expect("decodes"),
                WireResponse::Err(paradice_devfs::Errno::Efault),
                "{kind}: foreign grant must fault"
            );
            engine.finish();
        }
    }

    #[test]
    fn cap_overflow_backpressures_and_drops_nothing() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, _) = ScriptedService::new();
            let mut engine = build_multi(kind, service, 2, SchedPolicy::FairShare);
            let mut accepted = 0usize;
            let mut rejected = 0usize;
            for i in 0..MULTI_QUEUE_CAP + 4 {
                let frame = granted_ioctl(engine.as_mut(), 0, 0x1000 + i as u64 * 64);
                match engine.submit(0, &frame) {
                    Ok(()) => accepted += 1,
                    Err(EngineError::Backpressure) => rejected += 1,
                    Err(e) => panic!("{kind}: unexpected {e:?}"),
                }
            }
            assert!(rejected > 0, "{kind}: the cap must backpressure");
            // Every accepted op completes, none dropped; the neighbor is
            // untouched throughout.
            let mut drained = 0usize;
            while drained < accepted {
                let (guest, _) = engine.complete_blocking().expect("drain");
                assert_eq!(guest, 0);
                drained += 1;
            }
            assert!(matches!(engine.complete(), Ok(None)), "{kind}: drained dry");
            engine.finish();
        }
    }

    #[test]
    fn virtual_fair_share_lets_the_light_guest_overtake() {
        let (service, _) = ScriptedService::new();
        let mut engine = MultiVirtualEngine::new(service, 2, SchedPolicy::FairShare);
        // Guest 0 floods heavy 4-KiB writes; guest 1 queues one ioctl last.
        for i in 0..8u64 {
            let grant = engine
                .grants()
                .declare(
                    0,
                    vec![MemOpGrant::CopyFromGuest {
                        addr: GuestVirtAddr::new(0x10_000 + i * 0x1000),
                        len: 4096,
                    }],
                )
                .expect("declare");
            let frame = WireRequest {
                task: 1,
                pt_root: GuestPhysAddr::new(0x4000),
                handle: 1,
                span: 0,
                grant: Some(grant),
                op: WireOp::Write {
                    addr: GuestVirtAddr::new(0x10_000 + i * 0x1000),
                    len: 4096,
                },
            }
            .encode();
            engine.submit(0, &frame).expect("submit heavy");
        }
        let light = granted_ioctl(&mut engine, 1, 0x9000);
        engine.submit(1, &light).expect("submit light");
        // The very first service goes to guest 0 (already backlogged when
        // nothing was consumed); the light guest must be served within the
        // next pick — not behind the whole flood.
        let (first, _) = engine.complete_blocking().expect("first");
        let (second, _) = engine.complete_blocking().expect("second");
        assert!(
            first == 1 || second == 1,
            "light guest served within two picks, got {first} then {second}"
        );
    }

    const WRITE_BASE: u64 = 0x10_000;

    /// One reusable grant letting `guest` write up to `max_len` bytes.
    fn write_window(engine: &mut dyn MultiEngine, guest: u32, max_len: u64) -> GrantRef {
        let addr = GuestVirtAddr::new(WRITE_BASE);
        let window = MemOpGrant::CopyFromGuest { addr, len: max_len };
        engine.grants().declare(guest, vec![window]).expect("declare")
    }

    /// A write of `len` bytes under `grant`. `ScriptedService` answers a
    /// write with `Value(len)`, so the length names the op in its
    /// completion.
    fn write_frame(guest: u32, grant: GrantRef, len: u64) -> Vec<u8> {
        WireRequest {
            task: u64::from(guest) + 1,
            pt_root: GuestPhysAddr::new(0x4000),
            handle: 1,
            span: 0,
            grant: Some(grant),
            op: WireOp::Write { addr: GuestVirtAddr::new(WRITE_BASE), len },
        }
        .encode()
    }

    /// Takes one completion for one of `guests` and checks it is that
    /// guest's next op in submission order (op `k` wrote `k + 1` bytes).
    fn take_in_fifo_order(engine: &mut dyn MultiEngine, guests: &[u32], completed: &mut [u64]) {
        let (guest, frame) = engine.complete_blocking().expect("complete");
        let slot = guests.iter().position(|&g| g == guest).expect("a submitting guest");
        completed[slot] += 1;
        assert_eq!(
            WireResponse::decode(&frame).expect("decodes"),
            WireResponse::Value(completed[slot] as i64),
            "guest {guest}: completions left submission order"
        );
    }

    /// (a) Guests that merely exist change nothing: three active guests
    /// among a thousand complete every op, each in its own submission
    /// order.
    #[test]
    fn three_active_guests_among_a_thousand_complete_in_fifo_order() {
        const ACTIVE: [u32; 3] = [0, 499, 999];
        const ROUNDS: u64 = 40;
        let (service, served) = ScriptedService::new();
        let mut engine = build_multi(EngineKind::Wall, service, 1_000, SchedPolicy::FairShare);
        let windows = ACTIVE.map(|guest| write_window(engine.as_mut(), guest, ROUNDS));
        let mut completed = [0u64; 3];
        for round in 0..ROUNDS {
            for (&guest, &window) in ACTIVE.iter().zip(&windows) {
                let frame = write_frame(guest, window, round + 1);
                while let Err(error) = engine.submit(guest, &frame) {
                    assert_eq!(error, EngineError::Backpressure);
                    take_in_fifo_order(engine.as_mut(), &ACTIVE, &mut completed);
                }
            }
        }
        while completed.iter().sum::<u64>() < 3 * ROUNDS {
            take_in_fifo_order(engine.as_mut(), &ACTIVE, &mut completed);
        }
        assert_eq!(completed, [ROUNDS; 3], "every op completes, none invented");
        assert!(matches!(engine.complete(), Ok(None)));
        assert_eq!(*served.lock().expect("counter"), 3 * ROUNDS);
        engine.finish();
    }

    /// (b) Repeated publications to one guest: drained dry and re-submitted
    /// 10 000 times on real threads, it is served every time — each round
    /// is a fresh empty→non-empty edge racing the backend's park.
    #[test]
    fn a_guest_drained_and_resubmitted_ten_thousand_times_is_always_served() {
        let (service, served) = ScriptedService::new();
        let mut engine = build_multi(EngineKind::Wall, service, 3, SchedPolicy::FairShare);
        let window = write_window(engine.as_mut(), 1, 10_000);
        let mut completed = [0u64; 1];
        for round in 0..10_000u64 {
            engine
                .submit(1, &write_frame(1, window, round + 1))
                .expect("an empty queue accepts");
            take_in_fifo_order(engine.as_mut(), &[1], &mut completed);
            assert!(matches!(engine.complete(), Ok(None)), "drained dry");
        }
        assert_eq!(*served.lock().expect("counter"), 10_000);
        engine.finish();
    }

    /// (c) Completions rotate over ready guests: with sixteen responses
    /// waiting for guest 0 and one for guest 1, guest 1's is one of the
    /// first two taken, whatever order the backend served them in.
    #[test]
    fn a_light_guests_completion_is_not_behind_its_neighbours_backlog() {
        let (service, served) = ScriptedService::new();
        let mut engine = MultiWallEngine::new(service, 2, SchedPolicy::FairShare);
        let heavy = write_window(&mut engine, 0, MULTI_QUEUE_CAP as u64);
        for len in 1..=MULTI_QUEUE_CAP as u64 {
            engine.submit(0, &write_frame(0, heavy, len)).expect("below the cap");
        }
        let light = write_window(&mut engine, 1, 1);
        engine.submit(1, &write_frame(1, light, 1)).expect("submit light");
        // All seventeen served, then all seventeen announced: only then
        // does the first `complete()` see the whole picture.
        let all = MULTI_QUEUE_CAP as u64 + 1;
        while *served.lock().expect("counter") < all || engine.resp_ready.len() < all as usize {
            std::thread::yield_now();
        }
        let (first, _) = engine.complete().expect("alive").expect("announced");
        let (second, _) = engine.complete().expect("alive").expect("announced");
        assert!(
            first == 1 || second == 1,
            "light guest completed within two takes, got {first} then {second}"
        );
        let mut rest = 0;
        while engine.complete().expect("alive").is_some() {
            rest += 1;
        }
        assert_eq!(rest, MULTI_QUEUE_CAP - 1, "every other completion follows");
    }

    /// (d) A ready id is hostile input. The drain helper ignores one
    /// outside the guest population; the backend drops one whose ring
    /// turns out empty; neither disturbs the ops around it.
    #[test]
    fn out_of_range_and_spurious_ready_ids_are_ignored() {
        let ready = IdRing::with_capacity(8);
        for id in [1, 7, u32::MAX, 0, 1] {
            ready.try_push(id).expect("room");
        }
        let mut pending = [0u32; 2];
        let mut became_ready = Vec::new();
        drain_ready(&ready, &mut pending, |guest| became_ready.push(guest));
        assert_eq!(pending, [1, 2]);
        assert_eq!(became_ready, [1, 0], "each guest reported once, on leaving zero");
        assert!(ready.is_empty());

        let (service, served) = ScriptedService::new();
        let mut engine = MultiWallEngine::new(service, 2, SchedPolicy::FairShare);
        // This thread is the request ready ring's one producer.
        publish_ready(&engine.req_ready, 9, &engine.req_bell);
        publish_ready(&engine.req_ready, 1, &engine.req_bell);
        let windows = [0, 1].map(|guest| write_window(&mut engine, guest, 4));
        let mut completed = [0u64; 2];
        for round in 0..4u64 {
            for guest in [0, 1] {
                let frame = write_frame(guest, windows[guest as usize], round + 1);
                engine.submit(guest, &frame).expect("submit");
                publish_ready(&engine.req_ready, guest, &engine.req_bell); // one too many
            }
            take_in_fifo_order(&mut engine, &[0, 1], &mut completed);
            take_in_fifo_order(&mut engine, &[0, 1], &mut completed);
        }
        assert_eq!(completed, [4, 4]);
        assert!(matches!(engine.complete(), Ok(None)));
        assert_eq!(*served.lock().expect("counter"), 8, "no id was served as an op");
    }
}
