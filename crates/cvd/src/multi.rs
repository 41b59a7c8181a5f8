//! The multi-guest engine: N guests' channels behind the one
//! [`MultiEngine`] seam — one transport and one server on either clock.
//!
//! A single guest is the N = 1 case — [`crate::exec::run_workload`], the
//! differential harness, drives one guest of any engine built here, and
//! this module is the only place a backend thread is spawned. N guests
//! share one device roster and one backend that serves every guest from
//! per-guest wait queues (paper §3.2.3, §5.1), and one guest's backlog or
//! grant churn never contends on another's fast path:
//!
//! * **Per-guest queues.** Each guest gets its own request ring, a
//!   [`FrameRing`] of one-cache-line slots that a frame longer than one
//!   slot crosses as consecutive chunks, and its own response ring, a
//!   [`FrameRing`] of [`RESPONSE_SLOT_BYTES`]-byte slots. A flooding guest
//!   fills only its own queue.
//! * **Per-guest wait-queue caps.** Submission past the cap fails with
//!   [`EngineError::Backpressure`] — the engine-seam spelling of the
//!   backend's `EDQUOT` (paper §5.1, the per-guest 100-op cap): the
//!   guest's own syscall returns `EAGAIN` and *nothing is dropped or
//!   reordered* — every accepted op completes, in per-guest FIFO order.
//! * **Fair-share service.** The server picks the next guest by least
//!   consumed service time ([`FairSched`], the default policy), so a light
//!   guest's op overtakes a heavy neighbor's backlog without ever
//!   starving it.
//! * **Per-guest grant shards.** The server validates against a
//!   [`ShardedGrantTable`] sized for the guest population — declare,
//!   validate, and revoke touch only the owning guest's shard.
//! * **Edges, not scans.** Nothing on the op path looks at a guest that
//!   has no work. Each direction has one *ready ring* ([`IdRing`]): after
//!   pushing a frame into a guest's ring the producer publishes that
//!   guest's id and rings the doorbell — after *every* publication, never
//!   gated on an occupancy view. A ready ring holds at most one id per
//!   in-flight op, and the per-guest cap bounds those, so it is sized
//!   never to fill and no guest can crowd another out of it.
//! * **Exact arrival order.** The engine is the request ready ring's only
//!   producer, so ids leave it in submission order: the server turns each
//!   into the next arrival stamp on its guest's FIFO, and a guest waits in
//!   [`FairSched`] under the stamp of its oldest unserved op. The frontend
//!   turns response ids into per-guest counts and takes completions one
//!   per ready guest in rotation.
//!
//! [`EngineKind`] decides two things only: the clock, and where the one
//! server runs. On [`EngineKind::Virtual`] it serves one op at the top of
//! every [`MultiEngine::complete`] and a [`SimClock`](paradice_hypervisor::SimClock)
//! advances by the op's modeled cost; on [`EngineKind::Wall`] it loops on
//! the `cvd-mx-backend` thread and a
//! [`WallClock`](paradice_hypervisor::WallClock) measures what the op took. Either way the
//! scheduler is charged the time its clock saw pass, so both substrates
//! serve one backlog in one order (`tests/wallclock.rs`).
//!
//! Scheduling state belongs to the server: [`FairSched`], the arrival
//! FIFOs and the trace events. The frontend owns the per-guest in-flight
//! counts and its completion rotation. What the two share is the
//! transport — one ring kernel and one doorbell protocol, proved by
//! `race-ring`, `race-ready` and `race-doorbell`.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;

use paradice_hypervisor::atomic::AtomicBool;
use paradice_hypervisor::engine::{EngineError, EngineKind, STOP_CHECK, STOP_REQUEST};
use paradice_hypervisor::{
    ARingError, Clock, ClockSource, CostModel, Doorbell, FairSched, FrameRing, IdRing, SchedPolicy,
    ShardedGrantTable, WireCodec, ARING_CAPACITY, ARING_SLOT_BYTES,
};
use paradice_trace::TraceEvent;

use crate::exec::{dispatch, DeviceService};
use crate::proto::{WireOp, WireRequest, RESPONSE_SLOT_BYTES};

/// Per-guest wait-queue cap on both substrates: the depth of a guest's
/// request ring.
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
    /// its cap or its request ring lacks a free slot for every chunk of
    /// the frame (retry after draining completions — nothing was
    /// enqueued), [`EngineError::Oversize`] for frames over
    /// [`ARING_SLOT_BYTES`], [`EngineError::Dead`] after shutdown.
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

/// The modeled service cost of one request on the virtual clock: dispatch
/// overhead plus per-byte copy cost for the op's payload (`None`: a frame
/// that does not decode). This is what makes a netmap batch or camera
/// frame *heavier* than an interactive ioctl in virtual time, so fairness
/// is measurable. The length comes off the wire — hostile input — so it
/// is clamped to 4 GiB: a tampered frame is charged like a huge copy,
/// never wraps the clock.
fn modeled_service_ns(cost: &CostModel, request: Option<&WireRequest>) -> u64 {
    let payload = request.map_or(0, |request| match request.op {
        WireOp::Read { len, .. } | WireOp::Write { len, .. } => len.min(1 << 32),
        WireOp::Ioctl { .. } => 16,
        _ => 0,
    });
    cost.backend_dispatch_ns
        + cost.marshal_ns
        + payload * cost.copy_page_ns / paradice_mem::PAGE_SIZE
}

/// The longest request frame the engine carries: a slot of the virtual
/// [`Channel`](paradice_hypervisor::Channel)'s page, which a `MAX_PATH`
/// `Open` fills.
const MAX_REQUEST_BYTES: usize = ARING_SLOT_BYTES;

/// Payload bytes of a request slot: with the slot's sequence and length
/// words, one 64-byte cache line.
const REQUEST_SLOT_BYTES: usize = 56;

/// Frame bytes per chunk: a request slot less its chunk header.
const CHUNK_BYTES: usize = REQUEST_SLOT_BYTES - 1;

/// Chunks of the longest frame.
const MAX_CHUNKS: usize = MAX_REQUEST_BYTES.div_ceil(CHUNK_BYTES);

const _: () = assert!(MAX_CHUNKS == 5 && MAX_CHUNKS <= ARING_CAPACITY);

/// One guest's request ring: 16 slots of one cache line behind the two
/// cursor lines, 1 152 bytes. Each slot holds one chunk of a frame — a
/// header byte counting the chunks left, this one included, then up to
/// [`CHUNK_BYTES`] of the frame. Every request but `Open` and `Mmap` fits
/// one chunk; those two take 2–5 consecutive slots.
type RequestRing = FrameRing<REQUEST_SLOT_BYTES>;

/// One guest's response ring: 16 slots of 32 bytes behind the two cursor
/// lines, 640 bytes.
type ResponseRing = FrameRing<RESPONSE_SLOT_BYTES>;

// The per-guest footprint: 18 and 10 cache lines. Neither stride is a
// multiple of a page, so consecutive guests' rings start on different
// cache sets without a pad.
const _: () = assert!(std::mem::size_of::<RequestRing>() == 18 * 64);
const _: () = assert!(std::mem::size_of::<ResponseRing>() == 10 * 64);

/// What the frontend and the server share: per guest a request and a
/// response ring, per direction a ready ring and a doorbell, and the stop
/// flag. The field order is the cache-line layout (`repr(C)`, and the
/// ready rings are 64-byte aligned): the ring arrays, which both sides
/// read on every op, and each doorbell, which one side writes on every
/// op, get lines of their own.
///
/// A guest's share is 1 792 bytes: a 1 152-byte [`RequestRing`] and a
/// 640-byte [`ResponseRing`].
#[repr(C)]
struct Transport {
    requests: Box<[RequestRing]>,
    responses: Box<[ResponseRing]>,
    req_ready: IdRing,
    req_bell: Doorbell,
    resp_ready: IdRing,
    resp_bell: Doorbell,
    stop: AtomicBool,
}

impl Transport {
    fn new(guests: usize) -> Transport {
        Transport {
            requests: (0..guests).map(|_| RequestRing::new()).collect(),
            responses: (0..guests).map(|_| ResponseRing::new()).collect(),
            // One id per in-flight op at most, and the per-guest cap bounds
            // those: sized from the guest count, the ready rings never fill.
            req_ready: IdRing::with_capacity(guests * MULTI_QUEUE_CAP),
            req_bell: Doorbell::new(),
            resp_ready: IdRing::with_capacity(guests * MULTI_QUEUE_CAP),
            resp_bell: Doorbell::new(),
            stop: AtomicBool::new(false),
        }
    }
}

/// Producer side: pushes `frame` into a request ring as its chunks, all
/// or none. A frame of more than one chunk is refused unless the ring has
/// a free slot for each; only such a frame reads the consumer's cursor.
fn push_request(ring: &RequestRing, frame: &[u8]) -> Result<(), EngineError> {
    if frame.len() > MAX_REQUEST_BYTES {
        return Err(EngineError::Oversize { len: frame.len() });
    }
    let chunks = frame.len().div_ceil(CHUNK_BYTES).max(1);
    if chunks > 1 && ARING_CAPACITY.saturating_sub(ring.len()) < chunks {
        return Err(EngineError::Backpressure);
    }
    let mut slot = [0u8; REQUEST_SLOT_BYTES];
    let mut rest = frame;
    for left in (1..=chunks as u8).rev() {
        let (body, tail) = rest.split_at(rest.len().min(CHUNK_BYTES));
        rest = tail;
        slot[0] = left;
        slot[1..=body.len()].copy_from_slice(body);
        match ring.push(&slot[..=body.len()]) {
            Ok(()) => {}
            // Only a frame's first chunk can find the ring full: room for
            // the rest was checked above, and the consumer only frees slots.
            Err(ARingError::Full) => return Err(EngineError::Backpressure),
            Err(ARingError::Oversize { .. }) => unreachable!("a chunk fits a request slot"),
        }
    }
    Ok(())
}

/// Consumer side: takes one request frame off a request ring, if one is
/// there. A one-chunk frame is decoded in its slot; a longer one is joined
/// in a stack buffer first. Inside: `None` for a frame that does not
/// decode, or whose chunk headers do not count down from at most
/// [`MAX_CHUNKS`] to 1 over consecutive slots — the chunks read so far
/// are consumed, and the caller answers `EINVAL`.
fn take_request(ring: &RequestRing) -> Option<Option<WireRequest>> {
    let mut joined = [0u8; MAX_REQUEST_BYTES];
    let mut len = 0;
    let (left, whole) = ring.try_pop_with(|chunk| match chunk.split_first() {
        Some((&1, body)) => (0, WireRequest::decode(body).ok()),
        Some((&left, body)) if (2..=MAX_CHUNKS as u8).contains(&left) => {
            joined[..body.len()].copy_from_slice(body);
            len = body.len();
            (left - 1, None)
        }
        _ => (0, None),
    })?;
    if left == 0 {
        return Some(whole);
    }
    for next in (1..=left).rev() {
        let joins = ring.try_pop_with(|chunk| match chunk.split_first() {
            Some((&header, body)) if header == next && len + body.len() <= MAX_REQUEST_BYTES => {
                joined[len..len + body.len()].copy_from_slice(body);
                len += body.len();
                true
            }
            _ => false,
        });
        if joins != Some(true) {
            return Some(None);
        }
    }
    Some(WireRequest::decode(&joined[..len]).ok())
}

/// Publishes `guest` into a direction's ready ring, then rings its bell —
/// unconditionally: that per-publication protocol is the one
/// `race-doorbell` proves lossless, whereas a ring gated on an occupancy
/// view taken before publishing can lose the wake-up.
fn publish_ready(ready: &IdRing, guest: u32, bell: &Doorbell) {
    ready
        .push(guest)
        .expect("a ready ring holds one id per in-flight op");
    bell.ring();
}

/// The one backend: serves the guests' request rings in [`FairSched`]
/// order through the device model, validating every memory operation
/// against the grant shards, and records the trace events.
struct Server {
    transport: Arc<Transport>,
    service: Box<dyn DeviceService>,
    grants: Arc<ShardedGrantTable>,
    cost: CostModel,
    sched: FairSched,
    /// Per guest: the arrival stamps of its announced, unserved ops,
    /// oldest first. The guest waits in `sched` exactly while this is
    /// non-empty.
    arrivals: Vec<VecDeque<u64>>,
    next_stamp: u64,
    events: Vec<TraceEvent>,
}

impl Server {
    /// Serves the policy's next op, if any guest has one: taken off its
    /// guest's request ring, charged on `clock`, answered on the guest's
    /// response ring.
    /// Returns whether an op was served.
    fn serve_next<C: Clock>(&mut self, clock: &C) -> bool {
        // Ids are shared-memory words: one outside the population is
        // ignored, and one with no frame behind it is dropped below.
        while let Some(guest) = self.transport.req_ready.try_pop() {
            let Some(stamps) = self.arrivals.get_mut(guest as usize) else {
                continue;
            };
            if stamps.is_empty() {
                self.sched.enqueue(guest, self.next_stamp);
            }
            stamps.push_back(self.next_stamp);
            self.next_stamp += 1;
        }
        loop {
            let Some(guest) = self.sched.pick_ready() else {
                return false;
            };
            let index = guest as usize;
            let started = clock.now_ns();
            let Some(request) = take_request(&self.transport.requests[index]) else {
                // An empty ring: every frame announced so far was served,
                // so what is left are ids only a misbehaving frontend
                // publishes. Drop them; a real frame brings its own id.
                self.arrivals[index].clear();
                continue;
            };
            clock.advance(modeled_service_ns(&self.cost, request.as_ref()));
            let response = dispatch(
                guest,
                request.as_ref(),
                self.service.as_mut(),
                &self.grants,
                clock,
                &mut self.events,
            );
            let stamps = &mut self.arrivals[index];
            self.sched
                .charge(guest, clock.now_ns().saturating_sub(started).max(1));
            stamps.pop_front();
            if let Some(&next) = stamps.front() {
                self.sched.enqueue(guest, next);
            }
            let mut frame = [0u8; RESPONSE_SLOT_BYTES];
            let len = response
                .encode_into(&mut frame)
                .expect("a response fits a response slot");
            // The frontend caps a guest at MULTI_QUEUE_CAP = ARING_CAPACITY
            // ops in flight and counts an op until it takes the response,
            // so this one's response always finds a free slot.
            self.transport.responses[index]
                .push(&frame[..len])
                .expect("a response ring holds at most MULTI_QUEUE_CAP - 1 other responses");
            publish_ready(&self.transport.resp_ready, guest, &self.transport.resp_bell);
            return true;
        }
    }
}

/// Where the server runs.
enum Backend {
    /// Virtual time: at the top of every [`MultiEngine::complete`].
    Inline(Box<Server>),
    /// Wall time: on the `cvd-mx-backend` thread, which hands back its
    /// trace events when joined.
    Thread(JoinHandle<Vec<TraceEvent>>),
    /// After [`MultiEngine::finish`].
    Stopped,
}

/// Frontend-local state of one guest.
#[derive(Clone, Copy, Default)]
struct GuestState {
    /// Accepted-but-uncompleted ops, bounded by [`MULTI_QUEUE_CAP`].
    in_flight: usize,
    /// Responses the server has announced and `complete` has not taken.
    announced: u32,
}

/// The one [`MultiEngine`]: N guests over one [`Transport`], served by one
/// [`Server`] inline or on its thread, as the [`EngineKind`] says.
///
/// Single-frontend discipline: one thread constructs and drives all
/// guests' submissions and completions (on the wall substrate the
/// constructor registers it as the response doorbell's waiter; a driver
/// loop plays every guest's vCPU), so each ring has exactly one producer.
struct RingEngine {
    clock: ClockSource,
    transport: Arc<Transport>,
    grants: Arc<ShardedGrantTable>,
    backend: Backend,
    guests: Vec<GuestState>,
    /// Guests with announced responses, each once, in the order they take
    /// their turn.
    rotation: VecDeque<u32>,
    in_flight: usize,
}

impl RingEngine {
    fn new(
        kind: EngineKind,
        service: impl DeviceService,
        guests: usize,
        policy: SchedPolicy,
    ) -> RingEngine {
        let transport = Arc::new(Transport::new(guests));
        let grants = Arc::new(ShardedGrantTable::with_guests(guests));
        let mut server = Server {
            transport: Arc::clone(&transport),
            service: Box::new(service),
            grants: Arc::clone(&grants),
            cost: CostModel::default(),
            sched: FairSched::new(policy),
            arrivals: vec![VecDeque::new(); guests],
            next_stamp: 0,
            events: Vec::new(),
        };
        let clock = kind.clock();
        let backend = match clock {
            ClockSource::Virtual(_) => Backend::Inline(Box::new(server)),
            ClockSource::Wall(wall) => {
                transport.resp_bell.register(); // we (the constructing thread) are the frontend
                let worker = std::thread::Builder::new()
                    .name("cvd-mx-backend".into())
                    .spawn(move || {
                        let transport = Arc::clone(&server.transport);
                        transport.req_bell.register();
                        loop {
                            if server.serve_next(&wall) {
                                continue;
                            }
                            if transport.stop.load(&STOP_CHECK) {
                                break;
                            }
                            transport.req_bell.wait(|| {
                                !transport.req_ready.is_empty() || transport.stop.load(&STOP_CHECK)
                            });
                        }
                        server.events
                    })
                    .expect("spawn cvd-mx-backend thread");
                Backend::Thread(worker)
            }
        };
        RingEngine {
            clock,
            transport,
            grants,
            backend,
            guests: vec![GuestState::default(); guests],
            rotation: VecDeque::new(),
            in_flight: 0,
        }
    }

    fn check_alive(&self) -> Result<(), EngineError> {
        match &self.backend {
            Backend::Stopped => Err(EngineError::Dead("engine shut down".into())),
            Backend::Thread(worker) if worker.is_finished() => {
                Err(EngineError::Dead("backend thread exited".into()))
            }
            _ => Ok(()),
        }
    }
}

impl MultiEngine for RingEngine {
    fn kind(&self) -> EngineKind {
        match self.clock {
            ClockSource::Virtual(_) => EngineKind::Virtual,
            ClockSource::Wall(_) => EngineKind::Wall,
        }
    }

    fn clock(&self) -> ClockSource {
        self.clock.clone()
    }

    fn grants(&self) -> &Arc<ShardedGrantTable> {
        &self.grants
    }

    fn submit(&mut self, guest: u32, frame: &[u8]) -> Result<(), EngineError> {
        self.check_alive()?;
        let state = &mut self.guests[guest as usize];
        if state.in_flight >= MULTI_QUEUE_CAP {
            return Err(EngineError::Backpressure);
        }
        push_request(&self.transport.requests[guest as usize], frame)?;
        state.in_flight += 1;
        self.in_flight += 1;
        publish_ready(&self.transport.req_ready, guest, &self.transport.req_bell);
        Ok(())
    }

    /// One response per ready guest in rotation: a guest with sixteen
    /// responses waiting takes one turn, then queues behind every other
    /// guest that has one — round-robin over ready guests, not the
    /// server's global service order, so a light guest's completion is
    /// never stuck behind its neighbours' backlog.
    fn complete(&mut self) -> Result<Option<Completion>, EngineError> {
        match &mut self.backend {
            Backend::Inline(server) => {
                server.serve_next(&self.clock);
            }
            Backend::Thread(_) => {}
            Backend::Stopped => return Err(EngineError::Dead("engine shut down".into())),
        }
        let transport = &*self.transport;
        while let Some(guest) = transport.resp_ready.try_pop() {
            let Some(state) = self.guests.get_mut(guest as usize) else {
                continue;
            };
            state.announced = state.announced.saturating_add(1);
            if state.announced == 1 {
                self.rotation.push_back(guest);
            }
        }
        while let Some(guest) = self.rotation.pop_front() {
            let state = &mut self.guests[guest as usize];
            let Some(frame) = transport.responses[guest as usize].try_pop() else {
                // Announced but not there: drop the claim, as the server
                // does for requests.
                state.announced = 0;
                continue;
            };
            state.announced -= 1;
            if state.announced > 0 {
                self.rotation.push_back(guest);
            }
            state.in_flight -= 1;
            self.in_flight -= 1;
            return Ok(Some((guest, frame)));
        }
        if self.in_flight > 0 {
            self.check_alive()?;
        }
        Ok(None)
    }

    fn complete_blocking(&mut self) -> Result<Completion, EngineError> {
        if self.in_flight == 0 {
            return Err(EngineError::Dead("no frames in flight".into()));
        }
        loop {
            if let Some(done) = self.complete()? {
                return Ok(done);
            }
            let ready = &self.transport.resp_ready;
            self.transport.resp_bell.wait(|| !ready.is_empty());
        }
    }

    fn finish(&mut self) -> Vec<TraceEvent> {
        match std::mem::replace(&mut self.backend, Backend::Stopped) {
            Backend::Inline(server) => server.events,
            Backend::Thread(worker) => {
                self.transport.stop.store(true, &STOP_REQUEST);
                self.transport.req_bell.ring();
                worker.join().unwrap_or_default()
            }
            Backend::Stopped => Vec::new(),
        }
    }
}

impl Drop for RingEngine {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Builds the requested substrate as a boxed [`MultiEngine`].
pub fn build_multi(
    kind: EngineKind,
    service: impl DeviceService,
    guests: usize,
    policy: SchedPolicy,
) -> Box<dyn MultiEngine> {
    Box::new(RingEngine::new(kind, service, guests, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScriptedService;
    use crate::proto::WireResponse;
    use paradice_devfs::ioc::io;
    use paradice_devfs::{Errno, OpenFlags};
    use paradice_hypervisor::{GrantRef, MemOpGrant};
    use paradice_mem::{Access, GuestPhysAddr, GuestVirtAddr};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

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
        let mut engine = RingEngine::new(EngineKind::Virtual, service, 2, SchedPolicy::FairShare);
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
        let mut engine = RingEngine::new(EngineKind::Wall, service, 2, SchedPolicy::FairShare);
        let heavy = write_window(&mut engine, 0, MULTI_QUEUE_CAP as u64);
        for len in 1..=MULTI_QUEUE_CAP as u64 {
            engine.submit(0, &write_frame(0, heavy, len)).expect("below the cap");
        }
        let light = write_window(&mut engine, 1, 1);
        engine.submit(1, &write_frame(1, light, 1)).expect("submit light");
        // All seventeen served, then all seventeen announced: only then
        // does the first `complete()` see the whole picture.
        let all = MULTI_QUEUE_CAP as u64 + 1;
        while *served.lock().expect("counter") < all
            || engine.transport.resp_ready.len() < all as usize
        {
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

    /// (d) A ready id is hostile input, on both substrates: the server
    /// ignores one outside the guest population, and a burst of ids with
    /// no frames behind them — more than a queue holds, published ahead
    /// of the guest's real frames — neither strands nor duplicates an op.
    #[test]
    fn out_of_range_and_spurious_ready_ids_are_ignored() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, served) = ScriptedService::new();
            let mut engine = RingEngine::new(kind, service, 2, SchedPolicy::FairShare);
            let transport = Arc::clone(&engine.transport);
            // This thread is the request ready ring's one producer.
            let spurious = |guest| publish_ready(&transport.req_ready, guest, &transport.req_bell);
            spurious(9);
            for _ in 0..=MULTI_QUEUE_CAP {
                spurious(0);
            }
            spurious(1);
            let windows = [0, 1].map(|guest| write_window(&mut engine, guest, 4));
            let mut completed = [0u64; 2];
            for round in 0..4u64 {
                for guest in [0, 1] {
                    let frame = write_frame(guest, windows[guest as usize], round + 1);
                    engine.submit(guest, &frame).expect("submit");
                    spurious(guest); // one too many
                }
                take_in_fifo_order(&mut engine, &[0, 1], &mut completed);
                take_in_fifo_order(&mut engine, &[0, 1], &mut completed);
            }
            assert_eq!(completed, [4, 4], "{kind}: every op served once");
            assert!(
                matches!(engine.complete(), Ok(None)),
                "{kind}: nothing invented"
            );
            assert_eq!(
                *served.lock().expect("counter"),
                8,
                "{kind}: no id was served as an op"
            );
            engine.finish();
        }
    }

    /// Every request the service was handed, re-encoded, in service order.
    type Log = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A service that logs each request it serves and answers `Value(0)`.
    /// Each serve first says so on `entered`, then waits for a permit on
    /// `permits`, so a test can hold the wall server inside one op.
    fn gated_recorder() -> (impl DeviceService, Log, Sender<()>, Receiver<()>) {
        let log = Log::default();
        let (permit, permits) = channel();
        let (enter, entered) = channel();
        let seen = Arc::clone(&log);
        let service = move |request: &WireRequest| {
            let _ = enter.send(());
            permits.recv().expect("the test holds the permit sender");
            seen.lock().expect("log").push(request.encode());
            (WireResponse::Value(0), Vec::new())
        };
        (service, log, permit, entered)
    }

    /// [`gated_recorder`] with `permits` permits handed out up front.
    fn recorder(permits: usize) -> (impl DeviceService, Log) {
        let (service, log, permit, _) = gated_recorder();
        for _ in 0..permits {
            permit.send(()).expect("the service holds the receiver");
        }
        (service, log)
    }

    /// A request from `guest` whose handle tags it, with a grant, so its
    /// header is at its widest.
    fn request_frame(guest: u32, tag: u64, op: WireOp) -> Vec<u8> {
        WireRequest {
            task: u64::from(guest) + 1,
            pt_root: GuestPhysAddr::new(0x4000),
            handle: tag,
            span: 0,
            grant: Some(GrantRef(7)),
            op,
        }
        .encode()
    }

    fn open_op(path_len: usize) -> WireOp {
        WireOp::Open {
            path: "p".repeat(path_len),
            flags: OpenFlags::RDWR,
        }
    }

    fn mmap_op() -> WireOp {
        WireOp::Mmap {
            va: GuestVirtAddr::new(0x7f00_0000),
            len: 0x4000,
            offset: 0x1000,
            access: Access::RW,
        }
    }

    /// A frame of the service's log, split by the guest that sent it.
    fn logged_by(log: &Log, guest: u32) -> Vec<Vec<u8>> {
        let log = log.lock().expect("log");
        log.iter()
            .filter(|frame| {
                let task = WireRequest::decode(frame)
                    .expect("logged frames decode")
                    .task;
                task == u64::from(guest) + 1
            })
            .cloned()
            .collect()
    }

    /// Drains every op in flight; returns each response with its guest.
    fn drain(engine: &mut dyn MultiEngine, ops: usize) -> Vec<(u32, WireResponse)> {
        (0..ops)
            .map(|_| {
                let (guest, frame) = engine.complete_blocking().expect("complete");
                (guest, WireResponse::decode(&frame).expect("decodes"))
            })
            .collect()
    }

    /// Pins which requests take more than one request slot: every request
    /// but `Open` and `Mmap` fits one chunk with every field at its widest,
    /// grant included, and the longest `Open` fills all `MAX_CHUNKS`.
    #[test]
    fn every_request_but_open_and_mmap_fits_one_chunk() {
        let va = GuestVirtAddr::new(u64::MAX);
        let ops = [
            open_op(crate::proto::MAX_PATH),
            WireOp::Release,
            WireOp::Read {
                addr: va,
                len: u64::MAX,
            },
            WireOp::Write {
                addr: va,
                len: u64::MAX,
            },
            WireOp::Ioctl {
                cmd: io(b'T', 255),
                arg: u64::MAX,
            },
            WireOp::Mmap {
                va,
                len: u64::MAX,
                offset: u64::MAX,
                access: Access::RW,
            },
            WireOp::Munmap { va, len: u64::MAX },
            WireOp::Fault { va },
            WireOp::Poll,
            WireOp::Fasync { on: true },
        ];
        for op in ops {
            let chunks = match op {
                WireOp::Open { .. } => MAX_CHUNKS,
                WireOp::Mmap { .. } => 2,
                WireOp::Release
                | WireOp::Read { .. }
                | WireOp::Write { .. }
                | WireOp::Ioctl { .. }
                | WireOp::Munmap { .. }
                | WireOp::Fault { .. }
                | WireOp::Poll
                | WireOp::Fasync { .. } => 1,
            };
            let frame = WireRequest {
                task: u64::MAX,
                pt_root: GuestPhysAddr::new(u64::MAX),
                handle: u64::MAX,
                span: u64::MAX,
                grant: Some(GrantRef(u32::MAX)),
                op,
            }
            .encode();
            assert_eq!(frame.len().div_ceil(CHUNK_BYTES), chunks, "{frame:?}");
        }
    }

    /// An `Mmap`, a `MAX_PATH` `Open` and a short `Open` cross as chunks
    /// and reach the service byte for byte as encoded, for two guests with
    /// different ring histories; one byte past the longest frame is
    /// `Oversize`, nothing enqueued.
    #[test]
    fn long_frames_reach_the_service_as_encoded_on_both_substrates() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, log) = recorder(64);
            let mut engine = build_multi(kind, service, 2, SchedPolicy::FairShare);
            let longest = request_frame(1, 2, open_op(crate::proto::MAX_PATH));
            assert_eq!(longest.len(), MAX_REQUEST_BYTES);
            let mut oversize = longest.clone();
            oversize.push(0);
            assert_eq!(
                engine.submit(1, &oversize),
                Err(EngineError::Oversize {
                    len: MAX_REQUEST_BYTES + 1
                }),
                "{kind}"
            );
            // Guest 0's ring has wrapped past a short frame's single slot;
            // guest 1's starts at slot 0.
            let mut sent: [Vec<Vec<u8>>; 2] = Default::default();
            for tag in 0..(MULTI_QUEUE_CAP as u64 + 3) {
                let frame = request_frame(0, tag, WireOp::Poll);
                engine.submit(0, &frame).expect("submit");
                sent[0].push(frame);
                drain(engine.as_mut(), 1);
            }
            for guest in [0, 1] {
                for (tag, op) in [
                    (100, mmap_op()),
                    (101, open_op(crate::proto::MAX_PATH)),
                    (102, open_op(4)),
                ] {
                    let frame = request_frame(guest, tag, op);
                    engine.submit(guest, &frame).expect("room for every chunk");
                    sent[guest as usize].push(frame);
                }
            }
            assert!(drain(engine.as_mut(), 6)
                .iter()
                .all(|(_, response)| *response == WireResponse::Value(0)));
            assert!(
                matches!(engine.complete(), Ok(None)),
                "{kind}: nothing invented"
            );
            for guest in [0, 1] {
                assert_eq!(
                    logged_by(&log, guest),
                    sent[guest as usize],
                    "{kind}: guest {guest}"
                );
            }
            engine.finish();
        }
    }

    /// A frame of more chunks than the guest's ring has free slots is
    /// refused whole as `Backpressure`; the guest's next short frame is
    /// accepted, and the neighbour's queue is untouched.
    #[test]
    fn a_long_frame_into_a_full_ring_backpressures_and_a_short_one_follows() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, log, permit, entered) = gated_recorder();
            let mut engine = RingEngine::new(kind, service, 2, SchedPolicy::FairShare);
            let mut sent: [Vec<Vec<u8>>; 2] = Default::default();
            let mut submit = |engine: &mut RingEngine, guest: u32, frame: Vec<u8>| {
                engine.submit(guest, &frame).expect("room");
                sent[guest as usize].push(frame);
            };
            submit(&mut engine, 0, request_frame(0, 0, WireOp::Poll));
            if kind == EngineKind::Wall {
                // The server now holds guest 0's first op and takes no
                // more slots off either ring until it gets a permit.
                entered.recv().expect("served");
            }
            submit(
                &mut engine,
                1,
                request_frame(1, 0, open_op(crate::proto::MAX_PATH)),
            );
            let mut tag = 1;
            while engine.transport.requests[0].len() < ARING_CAPACITY - 3 {
                submit(&mut engine, 0, request_frame(0, tag, WireOp::Poll));
                tag += 1;
            }
            let long = request_frame(0, tag, open_op(crate::proto::MAX_PATH));
            assert_eq!(
                engine.submit(0, &long),
                Err(EngineError::Backpressure),
                "{kind}"
            );
            assert_eq!(
                engine.transport.requests[0].len(),
                ARING_CAPACITY - 3,
                "{kind}"
            );
            submit(&mut engine, 0, request_frame(0, tag + 1, WireOp::Poll));
            submit(&mut engine, 1, request_frame(1, 1, mmap_op()));
            let ops = sent[0].len() + sent[1].len();
            for _ in 0..ops {
                permit.send(()).expect("the service holds the receiver");
            }
            assert!(drain(&mut engine, ops)
                .iter()
                .all(|(_, response)| *response == WireResponse::Value(0)));
            assert!(
                matches!(engine.complete(), Ok(None)),
                "{kind}: nothing invented"
            );
            for guest in [0, 1] {
                assert_eq!(
                    logged_by(&log, guest),
                    sent[guest as usize],
                    "{kind}: guest {guest}"
                );
            }
            engine.finish();
        }
    }

    /// Ten thousand submissions from two guests, short and long frames in
    /// turn (paths of every length, so 1 to `MAX_CHUNKS` chunks, and
    /// `Mmap`s), pipelined against the wall server: each is served once,
    /// in its guest's submission order.
    #[test]
    fn ten_thousand_short_and_long_frames_are_served_once_in_fifo_order() {
        const SUBMISSIONS: u64 = 10_000;
        let (service, log) = recorder(SUBMISSIONS as usize);
        let mut engine = build_multi(EngineKind::Wall, service, 2, SchedPolicy::FairShare);
        let mut sent: [Vec<Vec<u8>>; 2] = Default::default();
        let mut taken = 0;
        for tag in 0..SUBMISSIONS {
            let guest = (tag % 2) as u32;
            let op = match tag % 4 {
                0 | 1 => WireOp::Poll,
                2 => open_op(tag as usize % (crate::proto::MAX_PATH + 1)),
                _ => mmap_op(),
            };
            let frame = request_frame(guest, tag, op);
            while let Err(error) = engine.submit(guest, &frame) {
                assert_eq!(error, EngineError::Backpressure);
                drain(engine.as_mut(), 1);
                taken += 1;
            }
            sent[guest as usize].push(frame);
        }
        drain(engine.as_mut(), SUBMISSIONS as usize - taken);
        assert!(matches!(engine.complete(), Ok(None)), "nothing invented");
        for guest in [0, 1] {
            assert_eq!(
                logged_by(&log, guest),
                sent[guest as usize],
                "guest {guest}"
            );
        }
        engine.finish();
    }

    /// Chunk headers are hostile input, on both substrates: a header of 0,
    /// one above `MAX_CHUNKS`, and continuations that do not count down
    /// each get `EINVAL` and never reach the service, while the guest's
    /// and its neighbour's real ops around them are all served.
    #[test]
    fn malformed_chunk_headers_get_einval_and_strand_nothing() {
        for kind in [EngineKind::Virtual, EngineKind::Wall] {
            let (service, log) = recorder(64);
            let mut engine = RingEngine::new(kind, service, 2, SchedPolicy::FairShare);
            let body = request_frame(0, 9, WireOp::Poll);
            let body = &body[..CHUNK_BYTES.min(body.len())];
            let chunk = |header: u8| [&[header][..], body].concat();
            let raw: [Vec<Vec<u8>>; 4] = [
                vec![chunk(0)],
                vec![chunk(MAX_CHUNKS as u8 + 1)],
                vec![chunk(2), chunk(2)],
                vec![chunk(3), chunk(1)],
            ];
            let mut sent: [Vec<Vec<u8>>; 2] = Default::default();
            for (tag, chunks) in raw.iter().enumerate() {
                let tag = tag as u64;
                // Guest 0 writes its ring by hand, as a hostile frontend
                // would, and counts the frame in flight.
                let transport = Arc::clone(&engine.transport);
                for chunk in chunks {
                    transport.requests[0].push(chunk).expect("room");
                }
                publish_ready(&transport.req_ready, 0, &transport.req_bell);
                engine.guests[0].in_flight += 1;
                engine.in_flight += 1;
                for (guest, op) in [(1, open_op(60 + tag as usize)), (0, mmap_op())] {
                    let frame = request_frame(guest, tag, op);
                    engine.submit(guest, &frame).expect("submit");
                    sent[guest as usize].push(frame);
                }
                let mut responses = drain(&mut engine, 3);
                responses
                    .sort_by_key(|(guest, response)| (*guest, *response == WireResponse::Value(0)));
                assert_eq!(
                    responses,
                    [
                        (0, WireResponse::Err(Errno::Einval)),
                        (0, WireResponse::Value(0)),
                        (1, WireResponse::Value(0)),
                    ],
                    "{kind}: raw frame {tag}"
                );
            }
            assert!(
                matches!(engine.complete(), Ok(None)),
                "{kind}: nothing invented"
            );
            for guest in [0, 1] {
                assert_eq!(
                    logged_by(&log, guest),
                    sent[guest as usize],
                    "{kind}: guest {guest}"
                );
            }
            engine.finish();
        }
    }
}
