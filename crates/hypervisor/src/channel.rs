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
//! By default each direction holds a single entry, which is exactly the
//! paper's bounded-slot discipline: a second `send_request` before the
//! backend drains the first returns [`ChannelError::SlotBusy`].
//! [`Channel::set_ring_depth`] widens each direction to a small multi-entry
//! ring — still backed by the one 4-KiB shared page, so the *sum* of the
//! encoded entries queued in a direction can never exceed [`PAGE_SIZE`].
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
//! backend exchange typed values and never hand-roll byte buffers. The
//! shared-page model is unchanged underneath: slots still hold the encoded
//! bytes and still enforce the 4-KiB page cap. `Vec<u8>` implements
//! [`WireCodec`] as the identity codec, and the type parameters default to
//! it, so a bare `Channel` is the old untyped byte channel.

use std::collections::VecDeque;
use std::fmt;
use std::marker::PhantomData;

use paradice_mem::PAGE_SIZE;

use crate::clock::{ClockSource, CostModel};
use crate::ring::{RingIndex, RING_CAPACITY};

/// A message type with a defined shared-page wire format.
///
/// Implementations must round-trip: `decode_wire(&x.encode_wire())` is
/// `Some(x)` for every value `x`, and decoding must reject trailing bytes
/// (the slot hands back exactly what was posted, so extra bytes mean a
/// malformed or forged message).
pub trait WireCodec: Sized {
    /// Serializes the message for the shared page.
    fn encode_wire(&self) -> Vec<u8>;
    /// Parses a message from the shared page; `None` on any malformation.
    fn decode_wire(bytes: &[u8]) -> Option<Self>;
}

/// The identity codec: raw bytes travel as-is (the pre-typed-channel API).
impl WireCodec for Vec<u8> {
    fn encode_wire(&self) -> Vec<u8> {
        self.clone()
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
    /// Message exceeds the shared page (4 KiB).
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
                write!(f, "message of {len} bytes exceeds the shared page")
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

/// One direction's slot storage: the pure [`RingIndex`] kernel assigns the
/// slot numbers; this wrapper owns the payload bytes those slots hold and
/// the shared-page byte budget. All index arithmetic — window bounds,
/// aliasing, FIFO order, doorbell edges — lives in the kernel, where the
/// model checker and Kani harnesses prove it; this wrapper only moves bytes
/// in and out of the slots the kernel names.
#[derive(Debug)]
struct Ring {
    idx: RingIndex,
    slots: Vec<Option<Vec<u8>>>,
    queued_bytes: u64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            idx: RingIndex::new(),
            slots: (0..RING_CAPACITY).map(|_| None).collect(),
            queued_bytes: 0,
        }
    }

    fn len(&self) -> usize {
        self.idx.len() as usize
    }

    /// Admission into this direction: entry count bounded by the ring
    /// depth, total queued bytes bounded by the shared page. On success the
    /// entry is committed into the kernel-assigned slot and the doorbell
    /// flag (empty→non-empty edge) is returned.
    fn try_push(&mut self, depth: usize, bytes: Vec<u8>) -> Result<bool, ChannelError> {
        if self.len() >= depth {
            return Err(ChannelError::SlotBusy);
        }
        if self.queued_bytes + bytes.len() as u64 > PAGE_SIZE {
            return Err(ChannelError::SlotBusy);
        }
        let grant = self.idx.try_push(depth as u32).ok_or(ChannelError::SlotBusy)?;
        let slot = &mut self.slots[grant.slot as usize];
        debug_assert!(slot.is_none(), "kernel handed out an occupied slot");
        self.queued_bytes += bytes.len() as u64;
        *slot = Some(bytes);
        Ok(grant.doorbell)
    }

    /// Drains the oldest committed entry (FIFO per the kernel).
    fn try_pop(&mut self) -> Option<Vec<u8>> {
        let slot = self.idx.try_pop()?;
        let bytes = self.slots[slot as usize]
            .take()
            .expect("kernel drained an uncommitted slot");
        self.queued_bytes -= bytes.len() as u64;
        Some(bytes)
    }

    /// Fault hook: rewrites the most recently posted, undrained entry in
    /// place, keeping the byte budget in step with its new length. Returns
    /// `false` when nothing is pending.
    fn mutate_newest(&mut self, mutate: impl FnOnce(&mut Vec<u8>)) -> bool {
        let newest = self.idx.newest_slot();
        let Some(bytes) = newest.and_then(|slot| self.slots[slot as usize].as_mut()) else {
            return false;
        };
        let old_len = bytes.len();
        mutate(bytes);
        self.queued_bytes = self.queued_bytes - old_len as u64 + bytes.len() as u64;
        true
    }

    /// Fault hook: scrambles the newest entry (a corrupted shared-page
    /// write).
    fn scramble_newest(&mut self) -> bool {
        self.mutate_newest(|bytes| {
            if bytes.is_empty() {
                // An empty payload cannot decode anyway; make it visibly
                // garbled.
                *bytes = vec![0xde, 0xad];
            } else {
                for (i, b) in bytes.iter_mut().enumerate() {
                    *b = b.wrapping_add(0x5a).rotate_left((i % 7) as u32);
                }
            }
        })
    }

    /// Fault hook: truncates the newest entry to half its length (a partial
    /// shared-page write).
    fn truncate_newest(&mut self) -> bool {
        self.mutate_newest(|bytes| bytes.truncate(bytes.len() / 2))
    }

    /// Removes the most recently posted entry (lost-completion injection).
    fn drop_newest(&mut self) -> Option<Vec<u8>> {
        let slot = self.idx.unpush()?;
        let bytes = self.slots[slot as usize]
            .take()
            .expect("kernel abandoned an uncommitted slot");
        self.queued_bytes -= bytes.len() as u64;
        Some(bytes)
    }

    fn clear(&mut self) {
        self.idx.clear();
        for slot in &mut self.slots {
            *slot = None;
        }
        self.queued_bytes = 0;
    }
}

/// One frontend↔backend shared-page channel carrying typed messages.
///
/// `Req`/`Resp`/`Sig` default to `Vec<u8>` (the identity codec), so a plain
/// `Channel` behaves exactly like the historical untyped byte channel.
pub struct Channel<Req = Vec<u8>, Resp = Vec<u8>, Sig = Vec<u8>> {
    mode: TransportMode,
    clock: ClockSource,
    cost: CostModel,
    /// Entries per direction; 1 is the paper's bounded-slot discipline.
    ring_depth: usize,
    requests: Ring,
    responses: Ring,
    notifications: VecDeque<Vec<u8>>,
    /// Virtual time of the last activity on the channel, for the polling
    /// spin-budget model.
    last_activity_ns: u64,
    stats: ChannelStats,
    _types: PhantomData<(Req, Resp, Sig)>,
}

/// Upper bound on [`Channel::set_ring_depth`]: the ring descriptors live in
/// the shared page's header, which caps how many entries one page can index.
pub const MAX_RING_DEPTH: usize = RING_CAPACITY as usize;

impl<Req, Resp, Sig> fmt::Debug for Channel<Req, Resp, Sig> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Channel")
            .field("mode", &self.mode)
            .field("stats", &self.stats)
            .finish()
    }
}

impl<Req: WireCodec, Resp: WireCodec, Sig: WireCodec> Channel<Req, Resp, Sig> {
    /// Creates a channel in the given transport mode. The clock decides
    /// the substrate: a [`SimClock`] charges the cost model on virtual
    /// time, a [`crate::clock::WallClock`] makes every charge a no-op and
    /// reports real elapsed time (the spin-budget comparison then runs on
    /// real nanoseconds).
    pub fn new(mode: TransportMode, clock: impl Into<ClockSource>, cost: CostModel) -> Self {
        Channel {
            mode,
            clock: clock.into(),
            cost,
            ring_depth: 1,
            requests: Ring::new(),
            responses: Ring::new(),
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

    fn check_len(bytes: &[u8]) -> Result<(), ChannelError> {
        if bytes.len() as u64 > PAGE_SIZE {
            Err(ChannelError::TooLarge { len: bytes.len() })
        } else {
            Ok(())
        }
    }

    /// A coalesced send: the ring was already non-empty, so the doorbell is
    /// already rung — the peer will drain this entry under the same
    /// interrupt (or polling pass). Only marshalling is paid.
    fn charge_coalesced(&mut self) {
        self.clock.advance(self.cost.marshal_ns);
        self.stats.coalesced_deliveries += 1;
        self.last_activity_ns = self.clock.now_ns();
    }

    /// One direction's send: admission into `ring`, then the doorbell (or
    /// coalesced) charge. Returns the encoded length for the caller's byte
    /// counter.
    fn send(
        &mut self,
        bytes: Vec<u8>,
        ring: impl FnOnce(&mut Self) -> &mut Ring,
    ) -> Result<u64, ChannelError> {
        Self::check_len(&bytes)?;
        let len = bytes.len() as u64;
        let depth = self.ring_depth;
        if ring(self).try_push(depth, bytes)? {
            self.charge_delivery();
        } else {
            self.charge_coalesced();
        }
        Ok(len)
    }

    /// One direction's take: the oldest entry of `ring`, decoded. The bad
    /// message is consumed either way, freeing the entry.
    fn take<M: WireCodec>(ring: &mut Ring, malformed: &mut u64) -> Result<M, ChannelError> {
        let bytes = ring.try_pop().ok_or(ChannelError::Empty)?;
        M::decode_wire(&bytes).ok_or_else(|| {
            *malformed += 1;
            ChannelError::Malformed
        })
    }

    /// Frontend → backend: posts a file-operation request.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`] or [`ChannelError::SlotBusy`] (ring full,
    /// or the queued entries would overflow the shared page).
    pub fn send_request(&mut self, request: Req) -> Result<(), ChannelError> {
        let len = self.send(request.encode_wire(), |c| &mut c.requests)?;
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
        Self::take(&mut self.requests, &mut self.stats.malformed_count)
    }

    /// Backend → frontend: posts the response.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`] or [`ChannelError::SlotBusy`] (ring full,
    /// or the queued entries would overflow the shared page).
    pub fn send_response(&mut self, response: Resp) -> Result<(), ChannelError> {
        let len = self.send(response.encode_wire(), |c| &mut c.responses)?;
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
        Self::take(&mut self.responses, &mut self.stats.malformed_count)
    }

    /// Backend → frontend: posts an asynchronous notification (`fasync`
    /// events such as key presses, paper §5.1). Notifications queue rather
    /// than occupying the request/response slots.
    ///
    /// # Errors
    ///
    /// [`ChannelError::TooLarge`].
    pub fn send_notification(&mut self, signal: Sig) -> Result<(), ChannelError> {
        let bytes = signal.encode_wire();
        Self::check_len(&bytes)?;
        self.charge_delivery();
        self.stats.notifications += 1;
        self.stats.notification_bytes += bytes.len() as u64;
        self.notifications.push_back(bytes);
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
        self.requests.clear();
        self.responses.clear();
        self.notifications.clear();
    }

    /// Fault injection: scrambles the bytes of the most recently posted
    /// response in place (a corrupted shared-page write by a crashing
    /// driver). Returns `false` when no response is pending.
    pub fn scramble_response_slot(&mut self) -> bool {
        self.responses.scramble_newest()
    }

    /// Fault injection: truncates the most recently posted response to half
    /// its length (a partial shared-page write). Returns `false` when no
    /// response is pending.
    pub fn truncate_response_slot(&mut self) -> bool {
        self.responses.truncate_newest()
    }

    /// Fault injection: drops the most recently posted response entirely (a
    /// lost completion delivery). Returns `false` when no response was
    /// pending.
    pub fn drop_response_slot(&mut self) -> bool {
        self.responses.drop_newest().is_some()
    }

    /// Fault injection: scrambles the bytes of the most recently posted
    /// *request* in place (a malicious guest rewriting the shared page after
    /// ringing the doorbell). Returns `false` when no request is pending.
    pub fn scramble_request_slot(&mut self) -> bool {
        self.requests.scramble_newest()
    }

    /// Fault injection: truncates the most recently posted *request* to half
    /// its length (a partial shared-page write by a hostile guest). Returns
    /// `false` when no request is pending.
    pub fn truncate_request_slot(&mut self) -> bool {
        self.requests.truncate_newest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{us, SimClock};

    fn channel(mode: TransportMode) -> Channel {
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
        let mut ch = channel(TransportMode::Interrupts);
        ch.set_ring_depth(4);
        let half = vec![0u8; PAGE_SIZE as usize / 2];
        ch.send_request(half.clone()).unwrap();
        ch.send_request(half.clone()).unwrap();
        // Two half-page entries fill the page: a third entry — even a tiny
        // one — must wait for the backend to drain.
        assert_eq!(ch.send_request(vec![1]), Err(ChannelError::SlotBusy));
        ch.take_request().unwrap();
        ch.send_request(vec![1]).unwrap();
    }

    #[test]
    fn ring_depth_is_clamped() {
        let mut ch = channel(TransportMode::Interrupts);
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
        let big = vec![0u8; PAGE_SIZE as usize + 1];
        assert_eq!(
            ch.send_request(big),
            Err(ChannelError::TooLarge {
                len: PAGE_SIZE as usize + 1
            })
        );
        // Exactly a page is fine.
        ch.send_request(vec![0u8; PAGE_SIZE as usize]).unwrap();
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
        fn encode_wire(&self) -> Vec<u8> {
            let mut out = vec![0x50];
            out.extend_from_slice(&self.0.to_le_bytes());
            out
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
        let mut ch: Channel<Ping, Ping, Ping> = Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        );
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
        let mut ch: Channel<Ping, Ping, Ping> = Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        );
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
        let mut ch: Channel<Ping, Ping, Ping> = Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        );
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
        // A byte channel accepts anything; retyping the slot contents via a
        // second channel isn't possible, so simulate corruption by sending
        // a Ping whose codec round-trip we then violate: the identity
        // channel posts garbage and the typed take sees it.
        let mut ch: Channel<Ping, Ping, Ping> = Channel::new(
            TransportMode::Interrupts,
            SimClock::new(),
            CostModel::default(),
        );
        // Reach the slot through the public API only: a well-formed send
        // then a hostile mutation is not possible, so instead check the
        // decoder directly and the Empty/Malformed distinction.
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

    proptest! {
        /// Delivery accounting is conserved across arbitrary traffic: every
        /// send is counted exactly once, in exactly one delivery class.
        #[test]
        fn delivery_accounting_is_conserved(
            ops in proptest::collection::vec((0u8..3, 0u64..500_000), 1..60),
            mode_pick in 0u8..3,
        ) {
            let clock = SimClock::new();
            let mode = match mode_pick {
                0 => TransportMode::Interrupts,
                1 => TransportMode::polling_default(),
                _ => TransportMode::remote_default(),
            };
            let mut ch: Channel = Channel::new(mode, clock.clone(), CostModel::default());
            let mut sent = 0u64;
            for (kind, idle_ns) in ops {
                clock.advance(idle_ns);
                match kind {
                    0 => {
                        if ch.send_request(vec![1]).is_ok() {
                            sent += 1;
                            let _ = ch.take_request();
                        }
                    }
                    1 => {
                        if ch.send_response(vec![2]).is_ok() {
                            sent += 1;
                            let _ = ch.take_response();
                        }
                    }
                    _ => {
                        if ch.send_notification(vec![3]).is_ok() {
                            sent += 1;
                        }
                    }
                }
            }
            let stats = ch.stats();
            prop_assert_eq!(
                stats.requests + stats.responses + stats.notifications,
                sent
            );
            prop_assert_eq!(stats.deliveries(), sent);
            prop_assert_eq!(
                stats.interrupt_deliveries + stats.polling_deliveries + stats.remote_deliveries,
                sent
            );
            // Mode purity: interrupts never poll; remote never interrupts.
            match mode {
                TransportMode::Interrupts => {
                    prop_assert_eq!(stats.polling_deliveries, 0);
                    prop_assert_eq!(stats.remote_deliveries, 0);
                }
                TransportMode::Polling { .. } => {
                    prop_assert_eq!(stats.remote_deliveries, 0);
                }
                TransportMode::Remote { .. } => {
                    prop_assert_eq!(stats.interrupt_deliveries, 0);
                    prop_assert_eq!(stats.polling_deliveries, 0);
                }
            }
        }

        /// With a multi-entry ring, every successful send is still counted
        /// exactly once: either it rang a doorbell (one transport class) or
        /// it was coalesced behind one. Drains happen in bursts, so rings
        /// genuinely fill up.
        #[test]
        fn ring_accounting_is_conserved(
            ops in proptest::collection::vec((0u8..3, 0u64..400_000), 1..80),
            depth in 1usize..=16,
            mode_pick in 0u8..3,
        ) {
            let clock = SimClock::new();
            let mode = match mode_pick {
                0 => TransportMode::Interrupts,
                1 => TransportMode::polling_default(),
                _ => TransportMode::remote_default(),
            };
            let mut ch: Channel = Channel::new(mode, clock.clone(), CostModel::default());
            ch.set_ring_depth(depth);
            let mut sent = 0u64;
            for (kind, idle_ns) in ops {
                clock.advance(idle_ns);
                match kind {
                    0 => {
                        if ch.send_request(vec![1]).is_ok() {
                            sent += 1;
                        } else {
                            while ch.take_request().is_ok() {}
                        }
                    }
                    1 => {
                        if ch.send_response(vec![2]).is_ok() {
                            sent += 1;
                        } else {
                            while ch.take_response().is_ok() {}
                        }
                    }
                    _ => {
                        if ch.send_notification(vec![3]).is_ok() {
                            sent += 1;
                        }
                    }
                }
            }
            let stats = ch.stats();
            prop_assert_eq!(
                stats.requests + stats.responses + stats.notifications,
                sent
            );
            prop_assert_eq!(
                stats.interrupt_deliveries
                    + stats.polling_deliveries
                    + stats.remote_deliveries
                    + stats.coalesced_deliveries,
                sent
            );
            // A single-entry ring never coalesces.
            if depth == 1 {
                prop_assert_eq!(stats.coalesced_deliveries, 0);
            }
        }
    }
}
