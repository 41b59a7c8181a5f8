//! Shared-page inter-VM communication.
//!
//! "The CVD frontend and backend use shared memory pages and inter-VM
//! interrupts to communicate. The frontend puts the file operation arguments
//! in a shared page, and uses an interrupt to inform the backend to read
//! them. The backend communicates the return values of the file operation in
//! a similar way. Because interrupts have noticeable latency (§6.1.1), CVD
//! supports a polling mode for high-performance applications such as netmap.
//! In this mode, the frontend and backend both poll the shared page for
//! 200 µs before they go to sleep to wait for interrupts" (paper §5.1).
//!
//! [`Channel`] models one frontend↔backend pair: a bounded message ring in
//! each direction plus a notification slot (for `fasync` events), charging
//! the cost model for every delivery. In polling mode, a delivery that
//! arrives after the 200 µs spin budget has lapsed since the peer's last
//! activity falls back to interrupt cost — the peer has gone to sleep.
//!
//! # Pipelined ring (fast path)
//!
//! Each direction is one shared page, an [`AtomicRing`] of
//! [`ARING_CAPACITY`] slots of [`ARING_SLOT_BYTES`] each — the same ring
//! kernel the wall-clock engine runs, here owned by value and driven from
//! the channel's one thread. An entry longer than a slot is
//! [`ChannelError::TooLarge`]; sixteen full slots fit the page, so the page
//! budget holds by construction.
//!
//! By default each direction admits a single entry, which is exactly the
//! paper's bounded-slot discipline: a second `send_request` before the
//! backend drains the first returns [`ChannelError::SlotBusy`].
//! [`Channel::set_ring_depth`] admits up to [`MAX_RING_DEPTH`] entries.
//! Only the send that makes a ring non-empty rings the doorbell (pays the
//! transport delivery cost); follow-up sends into a non-empty ring are
//! coalesced behind that doorbell and pay marshalling only, netmap-style:
//! the peer is already on its way to drain the ring. Coalesced sends are
//! counted in [`ChannelStats::coalesced_deliveries`] so delivery accounting
//! stays audit-complete.
//!
//! # Typed transport
//!
//! The channel is generic over the three message types it carries
//! (`Channel<Req, Resp, Sig>`), each of which supplies its wire format via
//! [`WireCodec`]. Encoding happens inside `send_*` and decoding inside
//! `take_*` — exactly one serialization boundary, so the frontend and
//! backend exchange typed values and never hand-roll byte buffers. A send
//! encodes into a slot-sized frame on its own stack and pushes that; `take_*`
//! decodes in the slot. Neither allocates. `Vec<u8>` implements
//! [`WireCodec`] as the identity codec, and the type parameters default to
//! it, so a bare `Channel` is the old untyped byte channel.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

use crate::aring::{AtomicRing, ARING_CAPACITY, ARING_SLOT_BYTES};
use crate::clock::{CostModel, SimClock};

/// A message type with a defined shared-page wire format.
///
/// Implementations must round-trip: a frame `encode_into` writes decodes
/// to `Some(x)` for every value `x`, and decoding must reject trailing
/// bytes (the slot hands back exactly what was posted, so extra bytes mean
/// a malformed or forged message).
pub trait WireCodec: Sized {
    /// Serializes the message for the shared page into `out`: `Ok(len)`
    /// with the frame in `out[..len]`, or `Err(len)`, the length the
    /// message needs, when it does not fit.
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize>;
    /// Parses a message from the shared page; `None` on any malformation.
    fn decode_wire(bytes: &[u8]) -> Option<Self>;
}

/// The identity codec: raw bytes travel as-is (the pre-typed-channel API).
impl WireCodec for Vec<u8> {
    fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
        out.get_mut(..self.len()).ok_or(self.len())?.copy_from_slice(self);
        Ok(self.len())
    }

    fn decode_wire(bytes: &[u8]) -> Option<Self> {
        Some(bytes.to_vec())
    }
}

/// How the two channel ends signal each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportMode {
    /// Inter-VM interrupts: ~35 µs round trip (paper §6.1.1).
    Interrupts,
    /// Shared-page polling with a spin budget before falling back to
    /// interrupts: ~2 µs round trip while hot (paper §5.1, §6.1.1).
    Polling {
        /// How long a side spins before sleeping, ns (paper: 200 µs,
        /// "chosen empirically and … not currently optimized").
        spin_budget_ns: u64,
    },
    /// The DSM-based cross-machine transport the paper sketches as future
    /// work (§8: "a DSM-based solution that allows the guest and driver VM
    /// to reside in separate physical machines"): every delivery pays a
    /// network one-way latency instead of an inter-VM interrupt.
    Remote {
        /// One-way network latency, ns (e.g. ~25 µs for 10 GbE RDMA-ish
        /// fabric, ~250 µs for commodity TCP).
        one_way_ns: u64,
    },
}

impl TransportMode {
    /// The paper's polling configuration (200 µs spin).
    pub const fn polling_default() -> TransportMode {
        TransportMode::Polling {
            spin_budget_ns: 200_000,
        }
    }

    /// A representative datacenter-network remote transport (25 µs one way).
    pub const fn remote_default() -> TransportMode {
        TransportMode::Remote { one_way_ns: 25_000 }
    }
}

impl fmt::Display for TransportMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportMode::Interrupts => f.write_str("interrupts"),
            TransportMode::Polling { spin_budget_ns } => {
                write!(f, "polling({} µs spin)", spin_budget_ns / 1_000)
            }
            TransportMode::Remote { one_way_ns } => {
                write!(f, "remote({} µs one-way)", one_way_ns / 1_000)
            }
        }
    }
}

/// Channel errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelError {
    /// Message exceeds a shared-page slot ([`ARING_SLOT_BYTES`]).
    TooLarge {
        /// Offending length.
        len: usize,
    },
    /// A message is already pending in that direction.
    SlotBusy,
    /// No message pending.
    Empty,
    /// The shared page held bytes the typed codec could not parse.
    Malformed,
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::TooLarge { len } => {
                write!(f, "message of {len} bytes exceeds a shared-page slot")
            }
            ChannelError::SlotBusy => f.write_str("shared-page slot already occupied"),
            ChannelError::Empty => f.write_str("no message pending"),
            ChannelError::Malformed => f.write_str("malformed message in shared page"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Delivery statistics for overhead accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Requests delivered frontend → backend.
    pub requests: u64,
    /// Responses delivered backend → frontend.
    pub responses: u64,
    /// Asynchronous notifications delivered backend → frontend.
    pub notifications: u64,
    /// Deliveries that paid interrupt cost.
    pub interrupt_deliveries: u64,
    /// Deliveries that paid polling cost.
    pub polling_deliveries: u64,
    /// Deliveries that paid a network hop (remote transport).
    pub remote_deliveries: u64,
    /// Sends coalesced into an already-rung doorbell (multi-entry ring:
    /// the ring was non-empty, so only marshalling was paid).
    pub coalesced_deliveries: u64,
    /// Cumulative encoded request bytes (frontend → backend).
    pub request_bytes: u64,
    /// Cumulative encoded response bytes (backend → frontend).
    pub response_bytes: u64,
    /// Cumulative encoded notification bytes (backend → frontend).
    pub notification_bytes: u64,
    /// Entries whose shared-page bytes failed to parse on `take_request`
    /// or `take_response` — each one is a detected corruption/forgery, so
    /// flood campaigns can assert *detection* and not just survival.
    pub malformed_count: u64,
}

impl ChannelStats {
    /// Total deliveries in all three classes (used for per-span deltas).
    pub fn deliveries(&self) -> u64 {
        self.requests + self.responses + self.notifications
    }
}

/// One frontend↔backend shared-page channel carrying typed messages.
///
/// `Req`/`Resp`/`Sig` default to `Vec<u8>` (the identity codec), so a plain
/// `Channel` behaves exactly like the historical untyped byte channel.
pub struct Channel<Req = Vec<u8>, Resp = Vec<u8>, Sig = Vec<u8>> {
    mode: TransportMode,
    clock: SimClock,
    cost: CostModel,
    /// Entries per direction; 1 is the paper's bounded-slot discipline.
    ring_depth: usize,
    requests: AtomicRing,
    responses: AtomicRing,
    notifications: VecDeque<Vec<u8>>,
    /// Virtual time of the last activity on the channel, for the polling
    /// spin-budget model.
    last_activity_ns: u64,
    stats: ChannelStats,
    _types: PhantomData<(Req, Resp, Sig)>,
}

/// Upper bound on [`Channel::set_ring_depth`]: the slots in one direction's
/// shared page.
pub const MAX_RING_DEPTH: usize = ARING_CAPACITY;

impl<Req, Resp, Sig> fmt::Debug for Channel<Req, Resp, Sig> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<Req: WireCodec, Resp: WireCodec, Sig: WireCodec> Channel<Req, Resp, Sig> {
    /// Creates a channel in the given transport mode, charging the cost
    /// model on the virtual `clock`.
    pub fn new(mode: TransportMode, clock: SimClock, cost: CostModel) -> Self {
        Channel {
            mode,
            clock,
            cost,
            ring_depth: 1,
            requests: AtomicRing::new(),
            responses: AtomicRing::new(),
            notifications: VecDeque::new(),
            last_activity_ns: 0,
            stats: ChannelStats::default(),
            _types: PhantomData,
        }
    }

    /// The transport mode.
    pub fn mode(&self) -> TransportMode {
        self.mode
    }

    /// Entries per direction (1 = the paper's single bounded slot).
    pub fn ring_depth(&self) -> usize {
        self.ring_depth
    }

    /// Widens (or narrows) each direction's ring. Clamped to
    /// `1..=`[`MAX_RING_DEPTH`]. Messages already queued stay queued; a
    /// narrower ring only constrains future sends.
    pub fn set_ring_depth(&mut self, depth: usize) {
        self.ring_depth = depth.clamp(1, MAX_RING_DEPTH);
    }

    /// Requests currently queued (posted but not yet taken).
    pub fn request_backlog(&self) -> usize {
        self.requests.len()
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Charges one delivery: marshalling plus either a polling handoff (peer
    /// still spinning) or an inter-VM interrupt (peer asleep or interrupt
    /// mode).
    fn charge_delivery(&mut self) {
        self.clock.advance(self.cost.marshal_ns);
        let use_interrupt = match self.mode {
            TransportMode::Interrupts => true,
            TransportMode::Polling { spin_budget_ns } => {
                self.clock.now_ns().saturating_sub(self.last_activity_ns) > spin_budget_ns
            }
            TransportMode::Remote { one_way_ns } => {
                self.clock.advance(one_way_ns);
                self.stats.remote_deliveries += 1;
                self.last_activity_ns = self.clock.now_ns();
                return;
            }
        };
        if use_interrupt {
            self.clock.advance(self.cost.intervm_interrupt_ns);
            self.stats.interrupt_deliveries += 1;
        } else {
            self.clock.advance(self.cost.polling_side_ns);
            self.stats.polling_deliveries += 1;
        }
        self.last_activity_ns = self.clock.now_ns();
    }

    /// A coalesced send: the ring was already non-empty, so the doorbell is
    /// already rung — the peer will drain this entry under the same
    /// interrupt (or polling pass). Only marshalling is paid.
    fn charge_coalesced(&mut self) {
        self.clock.advance(self.cost.marshal_ns);
        self.stats.coalesced_deliveries += 1;
        self.last_activity_ns = self.clock.now_ns();
    }

    /// One direction's send: admission into `ring` (the message must
    /// encode into one slot, then the ring depth), then the doorbell charge
    /// if the ring was empty — exact here, where one thread is both sides —
    /// or the coalesced one. Returns the encoded length for the caller's
    /// byte counter.
    fn send(
        &mut self,
        message: &impl WireCodec,
        ring: impl FnOnce(&mut Self) -> &mut AtomicRing,
    ) -> Result<u64, ChannelError> {
        let mut frame = [0u8; ARING_SLOT_BYTES];
        let len = message
            .encode_into(&mut frame)
            .map_err(|len| ChannelError::TooLarge { len })?;
        let depth = self.ring_depth;
        let ring = ring(self);
        let queued = ring.len();
        if queued >= depth {
            return Err(ChannelError::SlotBusy);
        }
        ring.push(&frame[..len]).map_err(|_| ChannelError::SlotBusy)?;
        if queued == 0 {
            self.charge_delivery();
        } else {
            self.charge_coalesced();
        }
        Ok(len as u64)
    }

    /// One direction's take: the oldest entry of `ring`, decoded in its
    /// slot. The bad message is consumed either way, freeing the entry.
    fn take<M: WireCodec>(ring: &AtomicRing, malformed: &mut u64) -> Result<M, ChannelError> {
        let decoded = ring
            .try_pop_with(M::decode_wire)
            .ok_or(ChannelError::Empty)?;
        decoded.ok_or_else(|| {
            *malformed += 1;
            ChannelError::Malformed
        })
    }

    /// Fault hook: scrambles the newest entry of `ring` in place (a
    /// corrupted shared-page write). An empty entry cannot decode anyway,
    /// so it becomes visibly garbled bytes instead.
    fn scramble_newest(ring: &mut AtomicRing) -> bool {
        ring.rewrite_newest(|data, len| {
            if len == 0 {
                data[..2].copy_from_slice(&[0xde, 0xad]);
                return 2;
            }
            for (i, b) in data[..len].iter_mut().enumerate() {
                *b = b.wrapping_add(0x5a).rotate_left((i % 7) as u32);
            }
            len
        })
    }

    /// Frontend → backend: posts a file-operation request.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`] (longer than a slot) or
    /// [`ChannelError::SlotBusy`] (the ring holds its depth).
    pub fn send_request(&mut self, request: Req) -> Result<(), ChannelError> {
        let len = self.send(&request, |c| &mut c.requests)?;
        self.stats.requests += 1;
        self.stats.request_bytes += len;
        Ok(())
    }

    /// Backend: takes the oldest pending request.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Empty`] if nothing is pending;
    /// [`ChannelError::Malformed`] if the entry bytes do not parse (the
    /// bad message is consumed either way, freeing the entry).
    pub fn take_request(&mut self) -> Result<Req, ChannelError> {
        Self::take(&self.requests, &mut self.stats.malformed_count)
    }

    /// Backend → frontend: posts the response.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`] (longer than a slot) or
    /// [`ChannelError::SlotBusy`] (the ring holds its depth).
    pub fn send_response(&mut self, response: Resp) -> Result<(), ChannelError> {
        let len = self.send(&response, |c| &mut c.responses)?;
        self.stats.responses += 1;
        self.stats.response_bytes += len;
        Ok(())
    }

    /// Frontend: takes the oldest pending response.
    ///
    /// # Errors
    ///
    /// [`ChannelError::Empty`] if nothing is pending;
    /// [`ChannelError::Malformed`] if the entry bytes do not parse.
    pub fn take_response(&mut self) -> Result<Resp, ChannelError> {
        Self::take(&self.responses, &mut self.stats.malformed_count)
    }

    /// Backend → frontend: posts an asynchronous notification (`fasync`
    /// events such as key presses, paper §5.1). Notifications queue rather
    /// than occupying the request/response slots.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`].
    pub fn send_notification(&mut self, signal: Sig) -> Result<(), ChannelError> {
        let mut frame = [0u8; ARING_SLOT_BYTES];
        let len = signal
            .encode_into(&mut frame)
            .map_err(|len| ChannelError::TooLarge { len })?;
        self.charge_delivery();
        self.stats.notifications += 1;
        self.stats.notification_bytes += len as u64;
        self.notifications.push_back(frame[..len].to_vec());
        Ok(())
    }

    /// Frontend: takes the oldest pending notification. A notification
    /// whose bytes fail to parse is consumed and dropped (`None`), exactly
    /// as a real frontend would discard a garbled fasync doorbell.
    pub fn take_notification(&mut self) -> Option<Sig> {
        let bytes = self.notifications.pop_front()?;
        Sig::decode_wire(&bytes)
    }

    /// Number of queued notifications.
    pub fn pending_notifications(&self) -> usize {
        self.notifications.len()
    }

    /// Clears both message rings and the notification queue (driver-VM
    /// recovery: the rebooted backend must not see requests posted to its
    /// dead predecessor, and the frontend must not read a stale response).
    /// Statistics, the transport mode, and the ring depth are preserved.
    pub fn reset(&mut self) {
        self.requests = AtomicRing::new();
        self.responses = AtomicRing::new();
        self.notifications.clear();
    }

    /// Fault injection: scrambles the bytes of the most recently posted
    /// response in place (a corrupted shared-page write by a crashing
    /// driver). Returns `false` when no response is pending.
    pub fn scramble_response_slot(&mut self) -> bool {
        Self::scramble_newest(&mut self.responses)
    }

    /// Fault injection: truncates the most recently posted response to half
    /// its length (a partial shared-page write). Returns `false` when no
    /// response is pending.
    pub fn truncate_response_slot(&mut self) -> bool {
        self.responses.rewrite_newest(|_, len| len / 2)
    }

    /// Fault injection: drops the most recently posted response entirely (a
    /// lost completion delivery). Returns `false` when no response was
    /// pending.
    pub fn drop_response_slot(&mut self) -> bool {
        self.responses.unpush_newest()
    }

    /// Fault injection: scrambles the bytes of the most recently posted
    /// *request* in place (a malicious guest rewriting the shared page after
    /// ringing the doorbell). Returns `false` when no request is pending.
    pub fn scramble_request_slot(&mut self) -> bool {
        Self::scramble_newest(&mut self.requests)
    }

    /// Fault injection: truncates the most recently posted *request* to half
    /// its length (a partial shared-page write by a hostile guest). Returns
    /// `false` when no request is pending.
    pub fn truncate_request_slot(&mut self) -> bool {
        self.requests.rewrite_newest(|_, len| len / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{us, SimClock};

    fn channel<M: WireCodec>(mode: TransportMode) -> Channel<M, M, M> {
        Channel::new(mode, SimClock::new(), CostModel::default())
    }

    #[test]
    fn request_response_roundtrip() {
        let mut ch = channel(TransportMode::Interrupts);
        ch.send_request(b"op".to_vec()).unwrap();
        assert_eq!(ch.take_request().unwrap(), b"op");
        ch.send_response(b"ret".to_vec()).unwrap();
        assert_eq!(ch.take_response().unwrap(), b"ret");
        assert_eq!(ch.stats().requests, 1);
        assert_eq!(ch.stats().responses, 1);
        assert_eq!(ch.stats().request_bytes, 2);
        assert_eq!(ch.stats().response_bytes, 3);
    }

    #[test]
    fn interrupt_mode_costs_two_interrupts_per_roundtrip() {
        let clock = SimClock::new();
        let cost = CostModel::default();
        let mut ch: Channel = Channel::new(TransportMode::Interrupts, clock.clone(), cost.clone());
        ch.send_request(vec![]).unwrap();
        ch.take_request().unwrap();
        ch.send_response(vec![]).unwrap();
        ch.take_response().unwrap();
        let expected = 2 * (cost.marshal_ns + cost.intervm_interrupt_ns);
        assert_eq!(clock.now_ns(), expected);
        // The paper's headline: ~35 µs.
        assert!((34_000..36_000).contains(&clock.now_ns()));
    }

    #[test]
    fn polling_mode_is_fast_while_hot() {
        let clock = SimClock::new();
        let cost = CostModel::default();
        let mut ch: Channel =
            Channel::new(TransportMode::polling_default(), clock.clone(), cost.clone());
        // Warm up: first delivery after boot is within the spin budget of
        // time zero, so it's already a polling delivery.
        ch.send_request(vec![]).unwrap();
        ch.take_request().unwrap();
        ch.send_response(vec![]).unwrap();
        ch.take_response().unwrap();
        let round_trip = clock.now_ns();
        // ~2 µs headline.
        assert!((1_500..2_500).contains(&round_trip), "{round_trip} ns");
        assert_eq!(ch.stats().polling_deliveries, 2);
    }

    #[test]
    fn polling_falls_back_to_interrupts_after_idle() {
        let clock = SimClock::new();
        let mut ch: Channel = Channel::new(
            TransportMode::polling_default(),
            clock.clone(),
            CostModel::default(),
        );
        ch.send_request(vec![]).unwrap();
        ch.take_request().unwrap();
        ch.send_response(vec![]).unwrap();
        ch.take_response().unwrap();
        assert_eq!(ch.stats().interrupt_deliveries, 0);
        // Device idle for 1 ms: both sides asleep; next delivery pays the
        // interrupt.
        clock.advance(us(1_000));
        ch.send_request(vec![]).unwrap();
        assert_eq!(ch.stats().interrupt_deliveries, 1);
        // …but the response follows immediately, so it polls again.
        ch.take_request().unwrap();
        ch.send_response(vec![]).unwrap();
        assert_eq!(ch.stats().interrupt_deliveries, 1);
        assert_eq!(ch.stats().polling_deliveries, 3);
    }

    /// The spin-budget boundary, entry by entry: a delivery landing exactly
    /// at the budget still finds the peer spinning (polling cost); one
    /// nanosecond past it pays the interrupt (strict `>` in
    /// `charge_delivery`).
    #[test]
    fn spin_budget_boundary_charges_the_right_class() {
        let budget = 200_000u64;
        for (idle_ns, interrupts, pollings) in [
            (budget - 1, 0, 1), // just under: peer still spinning
            (budget, 0, 1),     // exactly at: the last spin iteration catches it
            (budget + 1, 1, 0), // just over: peer asleep, interrupt
        ] {
            let clock = SimClock::new();
            let cost = CostModel::default();
            let mut ch: Channel = Channel::new(
                TransportMode::Polling {
                    spin_budget_ns: budget,
                },
                clock.clone(),
                cost.clone(),
            );
            // `last_activity_ns` is 0 at boot; idle the channel, then
            // arrange the send so the delivery *lands* at last_activity +
            // idle_ns: charge_delivery first advances marshal_ns, so start
            // marshal_ns early.
            clock.advance(idle_ns - cost.marshal_ns);
            ch.send_request(vec![]).unwrap();
            assert_eq!(
                (ch.stats().interrupt_deliveries, ch.stats().polling_deliveries),
                (interrupts, pollings),
                "idle {idle_ns} ns vs budget {budget} ns"
            );
        }
    }

    #[test]
    fn ring_depth_lets_a_batch_share_one_doorbell() {
        let clock = SimClock::new();
        let cost = CostModel::default();
        let mut ch: Channel =
            Channel::new(TransportMode::Interrupts, clock.clone(), cost.clone());
        ch.set_ring_depth(4);
        assert_eq!(ch.ring_depth(), 4);
        // Four requests: one doorbell interrupt, three coalesced sends.
        for i in 0..4u8 {
            ch.send_request(vec![i]).unwrap();
        }
        assert_eq!(ch.send_request(vec![9]), Err(ChannelError::SlotBusy));
        assert_eq!(ch.stats().interrupt_deliveries, 1);
        assert_eq!(ch.stats().coalesced_deliveries, 3);
        assert_eq!(
            clock.now_ns(),
            4 * cost.marshal_ns + cost.intervm_interrupt_ns,
            "batch cost = one interrupt + per-entry marshalling"
        );
        // FIFO drain, then the ring accepts entries again.
        for i in 0..4u8 {
            assert_eq!(ch.take_request().unwrap(), vec![i]);
        }
        assert_eq!(ch.take_request(), Err(ChannelError::Empty));
        assert_eq!(ch.request_backlog(), 0);
        ch.send_request(vec![9]).unwrap();
        assert_eq!(ch.stats().interrupt_deliveries, 2);
    }

    #[test]
    fn ring_entries_share_the_one_shared_page() {
        assert!(MAX_RING_DEPTH * ARING_SLOT_BYTES <= paradice_mem::PAGE_SIZE as usize);
        let mut ch: Channel = channel(TransportMode::Interrupts);
        ch.set_ring_depth(MAX_RING_DEPTH);
        // Every slot full to its byte bound: the whole ring fits the page,
        // and one more entry — even a tiny one — waits for the backend.
        for i in 0..MAX_RING_DEPTH {
            ch.send_request(vec![i as u8; ARING_SLOT_BYTES]).unwrap();
        }
        assert_eq!(ch.send_request(vec![1]), Err(ChannelError::SlotBusy));
        assert_eq!(ch.take_request().unwrap(), vec![0u8; ARING_SLOT_BYTES]);
        ch.send_request(vec![1]).unwrap();
        for i in 1..MAX_RING_DEPTH {
            assert_eq!(ch.take_request().unwrap(), vec![i as u8; ARING_SLOT_BYTES]);
        }
        assert_eq!(ch.take_request().unwrap(), vec![1]);
    }

    #[test]
    fn ring_depth_is_clamped() {
        let mut ch: Channel = channel(TransportMode::Interrupts);
        ch.set_ring_depth(0);
        assert_eq!(ch.ring_depth(), 1);
        ch.set_ring_depth(1_000);
        assert_eq!(ch.ring_depth(), MAX_RING_DEPTH);
    }

    #[test]
    fn slot_discipline() {
        let mut ch = channel(TransportMode::Interrupts);
        ch.send_request(vec![1]).unwrap();
        assert_eq!(ch.send_request(vec![2]), Err(ChannelError::SlotBusy));
        assert_eq!(ch.take_response(), Err(ChannelError::Empty));
        ch.take_request().unwrap();
        assert_eq!(ch.take_request(), Err(ChannelError::Empty));
    }

    #[test]
    fn oversized_messages_rejected() {
        let mut ch = channel(TransportMode::Interrupts);
        let big = vec![0u8; ARING_SLOT_BYTES + 1];
        assert_eq!(
            ch.send_request(big),
            Err(ChannelError::TooLarge {
                len: ARING_SLOT_BYTES + 1
            })
        );
        assert_eq!(
            ch.send_notification(vec![0u8; ARING_SLOT_BYTES + 1]),
            Err(ChannelError::TooLarge {
                len: ARING_SLOT_BYTES + 1
            })
        );
        assert_eq!(
            ch.stats(),
            ChannelStats::default(),
            "a refused send charges nothing"
        );
        // Exactly a slot is fine.
        ch.send_request(vec![0u8; ARING_SLOT_BYTES]).unwrap();
    }

    #[test]
    fn notifications_queue_independently() {
        let mut ch = channel(TransportMode::Interrupts);
        ch.send_request(b"rq".to_vec()).unwrap();
        ch.send_notification(b"key".to_vec()).unwrap();
        ch.send_notification(b"key2".to_vec()).unwrap();
        assert_eq!(ch.pending_notifications(), 2);
        assert_eq!(ch.take_notification().unwrap(), b"key");
        assert_eq!(ch.take_notification().unwrap(), b"key2");
        assert!(ch.take_notification().is_none());
        assert_eq!(ch.stats().notifications, 2);
        // The request slot is untouched.
        assert_eq!(ch.take_request().unwrap(), b"rq");
    }

    #[test]
    fn mode_display() {
        assert_eq!(TransportMode::Interrupts.to_string(), "interrupts");
        assert_eq!(
            TransportMode::polling_default().to_string(),
            "polling(200 µs spin)"
        );
    }

    /// A strict little codec for exercising the typed path: one tag byte
    /// plus a u32, trailing bytes rejected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Ping(u32);

    impl WireCodec for Ping {
        fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
            let frame = out.get_mut(..5).ok_or(5usize)?;
            frame[0] = 0x50;
            frame[1..].copy_from_slice(&self.0.to_le_bytes());
            Ok(5)
        }

        fn decode_wire(bytes: &[u8]) -> Option<Self> {
            if bytes.len() != 5 || bytes[0] != 0x50 {
                return None;
            }
            Some(Ping(u32::from_le_bytes(bytes[1..5].try_into().ok()?)))
        }
    }

    #[test]
    fn typed_messages_roundtrip_through_one_boundary() {
        let mut ch = channel::<Ping>(TransportMode::Interrupts);
        ch.send_request(Ping(7)).unwrap();
        assert_eq!(ch.take_request().unwrap(), Ping(7));
        ch.send_response(Ping(8)).unwrap();
        assert_eq!(ch.take_response().unwrap(), Ping(8));
        ch.send_notification(Ping(9)).unwrap();
        assert_eq!(ch.take_notification(), Some(Ping(9)));
        // Encoded sizes are what hit the wire counters.
        assert_eq!(ch.stats().request_bytes, 5);
        assert_eq!(ch.stats().response_bytes, 5);
        assert_eq!(ch.stats().notification_bytes, 5);
        assert_eq!(ch.stats().deliveries(), 3);
    }

    #[test]
    fn reset_clears_slots_and_queue_but_keeps_stats() {
        let mut ch = channel(TransportMode::Interrupts);
        ch.send_request(b"rq".to_vec()).unwrap();
        ch.send_response(b"rs".to_vec()).unwrap();
        ch.send_notification(b"n".to_vec()).unwrap();
        let stats_before = ch.stats();
        ch.reset();
        assert_eq!(ch.take_request(), Err(ChannelError::Empty));
        assert_eq!(ch.take_response(), Err(ChannelError::Empty));
        assert!(ch.take_notification().is_none());
        assert_eq!(ch.stats(), stats_before);
    }

    #[test]
    fn response_slot_fault_hooks() {
        let mut ch = channel::<Ping>(TransportMode::Interrupts);
        // Nothing pending: every hook reports false.
        assert!(!ch.scramble_response_slot());
        assert!(!ch.truncate_response_slot());
        assert!(!ch.drop_response_slot());

        ch.send_response(Ping(7)).unwrap();
        assert!(ch.scramble_response_slot());
        assert_eq!(ch.take_response(), Err(ChannelError::Malformed));

        ch.send_response(Ping(8)).unwrap();
        assert!(ch.truncate_response_slot());
        assert_eq!(ch.take_response(), Err(ChannelError::Malformed));

        ch.send_response(Ping(9)).unwrap();
        assert!(ch.drop_response_slot());
        assert_eq!(ch.take_response(), Err(ChannelError::Empty));
    }

    #[test]
    fn malformed_entries_are_counted_per_channel() {
        let mut ch = channel::<Ping>(TransportMode::Interrupts);
        assert_eq!(ch.stats().malformed_count, 0);
        ch.send_response(Ping(7)).unwrap();
        assert!(ch.scramble_response_slot());
        assert_eq!(ch.take_response(), Err(ChannelError::Malformed));
        assert_eq!(ch.stats().malformed_count, 1);
        // Request direction counts into the same per-channel stat.
        ch.send_request(Ping(8)).unwrap();
        assert!(ch.scramble_request_slot());
        assert_eq!(ch.take_request(), Err(ChannelError::Malformed));
        assert_eq!(ch.stats().malformed_count, 2);
        // Empty is not a detection: the counter must not move.
        assert_eq!(ch.take_response(), Err(ChannelError::Empty));
        assert_eq!(ch.stats().malformed_count, 2);
        // Truncated requests are also detected and counted.
        ch.send_request(Ping(9)).unwrap();
        assert!(ch.truncate_request_slot());
        assert_eq!(ch.take_request(), Err(ChannelError::Malformed));
        assert_eq!(ch.stats().malformed_count, 3);
    }

    #[test]
    fn malformed_slot_bytes_surface_as_malformed() {
        // An empty ring is `Empty`, not `Malformed`; the strict codec
        // refuses trailing bytes and a wrong tag.
        let mut ch = channel::<Ping>(TransportMode::Interrupts);
        assert_eq!(ch.take_request(), Err(ChannelError::Empty));
        assert_eq!(Ping::decode_wire(&[0x50, 1, 0, 0, 0, 99]), None);
        assert_eq!(Ping::decode_wire(&[0x51, 1, 0, 0, 0]), None);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::clock::SimClock;
    use proptest::prelude::*;

    /// A codec that can fail: the last byte seals the xor of the rest, so
    /// a rewritten frame usually (not always) stops decoding.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Sealed(Vec<u8>);

    fn seal(body: &[u8]) -> u8 {
        body.iter().fold(0x5c, |acc, b| acc ^ b)
    }

    impl Sealed {
        fn frame(&self) -> Vec<u8> {
            [&self.0[..], &[seal(&self.0)]].concat()
        }
    }

    impl WireCodec for Sealed {
        fn encode_into(&self, out: &mut [u8]) -> Result<usize, usize> {
            self.frame().encode_into(out)
        }

        fn decode_wire(bytes: &[u8]) -> Option<Self> {
            let (&last, body) = bytes.split_last()?;
            (last == seal(body)).then(|| Sealed(body.to_vec()))
        }
    }

    /// What a channel must do, written without rings: requests, responses
    /// and notifications are each a queue of encoded frames, the first two
    /// bounded by the depth. A notification, or a send into an empty queue,
    /// pays a delivery of the transport mode; any other send is coalesced.
    struct Model {
        mode: TransportMode,
        depth: usize,
        queues: [VecDeque<Vec<u8>>; 3],
        stats: ChannelStats,
        now_ns: u64,
        last_ns: u64,
        cost: CostModel,
    }

    /// The notification queue's index in [`Model::queues`].
    const NOTIFY: usize = 2;

    impl Model {
        fn send(&mut self, dir: usize, frame: Vec<u8>) -> Result<(), ChannelError> {
            let len = frame.len();
            if len > ARING_SLOT_BYTES {
                return Err(ChannelError::TooLarge { len });
            }
            let queued = self.queues[dir].len();
            if dir != NOTIFY && queued >= self.depth {
                return Err(ChannelError::SlotBusy);
            }
            self.queues[dir].push_back(frame);
            self.now_ns += self.cost.marshal_ns;
            let idle_ns = self.now_ns - self.last_ns;
            match self.mode {
                _ if dir != NOTIFY && queued > 0 => self.stats.coalesced_deliveries += 1,
                TransportMode::Remote { one_way_ns } => {
                    self.now_ns += one_way_ns;
                    self.stats.remote_deliveries += 1;
                }
                TransportMode::Polling { spin_budget_ns } if idle_ns <= spin_budget_ns => {
                    self.now_ns += self.cost.polling_side_ns;
                    self.stats.polling_deliveries += 1;
                }
                _ => {
                    self.now_ns += self.cost.intervm_interrupt_ns;
                    self.stats.interrupt_deliveries += 1;
                }
            }
            self.last_ns = self.now_ns;
            let stats = &mut self.stats;
            let (count, bytes) = match dir {
                0 => (&mut stats.requests, &mut stats.request_bytes),
                1 => (&mut stats.responses, &mut stats.response_bytes),
                _ => (&mut stats.notifications, &mut stats.notification_bytes),
            };
            *count += 1;
            *bytes += len as u64;
            Ok(())
        }

        fn take(&mut self, dir: usize) -> Result<Sealed, ChannelError> {
            let frame = self.queues[dir].pop_front().ok_or(ChannelError::Empty)?;
            Sealed::decode_wire(&frame).ok_or_else(|| {
                self.stats.malformed_count += 1;
                ChannelError::Malformed
            })
        }

        /// A fault hook: whether `dir` held a newest frame for `rewrite`.
        fn rewrite(&mut self, dir: usize, rewrite: fn(&mut Vec<u8>)) -> bool {
            self.queues[dir].back_mut().map(rewrite).is_some()
        }
    }

    fn scramble(frame: &mut Vec<u8>) {
        if frame.is_empty() {
            *frame = vec![0xde, 0xad];
        } else {
            for (i, b) in frame.iter_mut().enumerate() {
                *b = b.wrapping_add(0x5a).rotate_left((i % 7) as u32);
            }
        }
    }

    fn truncate(frame: &mut Vec<u8>) {
        frame.truncate(frame.len() / 2);
    }

    /// Drives a channel and [`Model`] through `ops` — an idle gap, then one
    /// of: a send of 0–260 B on any of the three paths, a take, one of the
    /// five fault hooks, a reset or a depth change — and requires every
    /// result, error and statistic, and the virtual clock, to agree after
    /// each step.
    fn agrees_with_model(
        ops: Vec<(u8, usize, u64)>,
        depth: usize,
        mode_pick: u8,
    ) -> Result<(), TestCaseError> {
        let mode = [
            TransportMode::Interrupts,
            TransportMode::polling_default(),
            TransportMode::remote_default(),
        ][usize::from(mode_pick)];
        let clock = SimClock::new();
        let cost = CostModel::default();
        let mut ch: Channel<Sealed, Sealed, Sealed> =
            Channel::new(mode, clock.clone(), cost.clone());
        ch.set_ring_depth(depth);
        let mut model = Model {
            mode,
            depth,
            queues: Default::default(),
            stats: ChannelStats::default(),
            now_ns: 0,
            last_ns: 0,
            cost,
        };
        for (step, (kind, len, idle_ns)) in ops.into_iter().enumerate() {
            clock.advance(idle_ns);
            model.now_ns += idle_ns;
            let message = Sealed(vec![step as u8; len]);
            let frame = message.frame();
            match kind {
                0 | 1 => prop_assert_eq!(ch.send_request(message), model.send(0, frame)),
                2 | 3 => prop_assert_eq!(ch.send_response(message), model.send(1, frame)),
                4 => prop_assert_eq!(ch.take_request(), model.take(0)),
                5 => prop_assert_eq!(ch.take_response(), model.take(1)),
                6 => prop_assert_eq!(ch.scramble_request_slot(), model.rewrite(0, scramble)),
                7 => prop_assert_eq!(ch.truncate_request_slot(), model.rewrite(0, truncate)),
                8 => prop_assert_eq!(ch.scramble_response_slot(), model.rewrite(1, scramble)),
                9 => prop_assert_eq!(ch.truncate_response_slot(), model.rewrite(1, truncate)),
                10 => prop_assert_eq!(
                    ch.drop_response_slot(),
                    model.queues[1].pop_back().is_some()
                ),
                11 => prop_assert_eq!(ch.send_notification(message), model.send(NOTIFY, frame)),
                12 => prop_assert_eq!(ch.take_notification(), model.take(NOTIFY).ok()),
                13 => {
                    ch.reset();
                    model.queues = Default::default();
                }
                _ => {
                    ch.set_ring_depth(len % 20);
                    model.depth = (len % 20).clamp(1, MAX_RING_DEPTH);
                }
            }
            prop_assert_eq!(ch.stats(), model.stats);
            prop_assert_eq!(ch.request_backlog(), model.queues[0].len());
            prop_assert_eq!(ch.pending_notifications(), model.queues[NOTIFY].len());
            prop_assert_eq!(ch.ring_depth(), model.depth);
            prop_assert_eq!(clock.now_ns(), model.now_ns);
        }
        Ok(())
    }

    proptest! {
        /// Ring accounting is conserved because the channel on its ring
        /// kernel is a bounded FIFO queue per direction, at every depth and
        /// in all three transport modes.
        #[test]
        fn ring_accounting_is_conserved(
            ops in proptest::collection::vec((0u8..15, 0usize..=260, 0u64..300_000), 1..160),
            depth in 1usize..=16,
            mode_pick in 0u8..3,
        ) {
            agrees_with_model(ops, depth, mode_pick)?;
        }

        /// Delivery accounting is conserved at the paper's single slot:
        /// every send is counted once, in exactly one delivery class of its
        /// transport mode.
        #[test]
        fn delivery_accounting_is_conserved(
            ops in proptest::collection::vec((0u8..14, 0usize..=260, 0u64..500_000), 1..60),
            mode_pick in 0u8..3,
        ) {
            agrees_with_model(ops, 1, mode_pick)?;
        }
    }
}
