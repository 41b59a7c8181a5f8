//! The `wall_*` workloads: closed-loop guests over the multi-guest engine
//! ([`paradice_cvd::multi`]), on real threads for host time and on the
//! virtual twin for simulated time.
//!
//! One generator thread plays every guest's clients: each guest keeps
//! `depth` operations in flight and issues its next one when one completes.
//! The same code drives both substrates; only the engine kind, the clock and
//! the stop rule differ.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paradice::prelude::{iowr, Errno, IoctlCmd};
use paradice_cvd::multi::{build_multi, MultiEngine, MULTI_QUEUE_CAP};
use paradice_cvd::proto::{WireOp, WireRequest, WireResponse};
use paradice_cvd::{exec::ScriptedService, SchedPolicy};
use paradice_hypervisor::engine::{EngineError, EngineKind};
use paradice_hypervisor::{ClockSource, GrantRef, MemOpGrant, SEQ_BITS};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::gen::{draw, one_in, Rng};
use crate::pin;
use crate::spans::{Span, Spans};
use crate::stats::{Class, Epoch, Window, CLASSES};

/// The interactive ioctl: `RADEON_INFO`-shaped, 8 bytes in and 8 bytes out.
pub const INTERACTIVE_CMD: IoctlCmd = iowr(b'd', 0x27, 16);
/// One netmap TX descriptor batch (64 slots × 8 B).
pub const WRITE_BYTES: u64 = 512;
/// One camera frame slice.
pub const READ_BYTES: u64 = 4096;

/// Buffers per op class whose grants a reusing guest declares once.
const REUSE_SLOTS: u64 = 16;
/// Distinct buffer addresses per op class.
const BUFFER_SLOTS: u64 = 4096;
/// One op in this many is the rogue ioctl.
const ROGUE_PERIOD: u64 = 1024;
/// One op in this many of a reusing guest uses a fresh buffer. (The issue
/// said 64, sized for 0.5 M ops/s; polled, one guest reaches 2.5 M and would
/// spend over a quarter of its grant sequence space in one window.)
const FRESH_PERIOD: u64 = 256;
/// Ops per guest replayed on the virtual twin.
pub const TWIN_OPS_PER_GUEST: u64 = 64;
/// A guest may use at most this share of its 2^20 grant sequence numbers in
/// one run: they are never recycled, and a shard that runs out fails closed.
const SEQ_BUDGET_RATIO: f64 = 0.25;

/// An op that has not completed after this long is lost.
const LOST_AFTER: Duration = Duration::from_secs(10);
/// The name `MultiWallEngine` gives its backend thread.
const BACKEND_THREAD: &str = "cvd-mx-backend";

const STREAM_ROGUE: u64 = 1 << 32;
const STREAM_FRESH: u64 = 2 << 32;
const STREAM_SLOT: u64 = 3 << 32;
const STREAM_ORDER: u64 = 4 << 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// Every guest cycles ioctl / 512-B write / 4-KiB read.
    Mixed,
    /// Guest 0 issues blocking ioctls; every other guest floods writes.
    Flood,
}

#[derive(Clone, Copy, Debug)]
pub struct WallSpec {
    pub guests: usize,
    pub profile: Profile,
    /// Ops each guest keeps in flight (the flood's light guest keeps one).
    pub depth: usize,
    /// Grants come from a per-shape table declared at set-up; one op in
    /// [`FRESH_PERIOD`] declares and revokes a fresh one. Otherwise every op
    /// declares and revokes its own.
    pub reuse: bool,
}

struct Pending {
    index: u64,
    /// Submit stamp on the engine's clock.
    at: u64,
    /// Submit stamp on the span clock.
    span_at: u64,
    revoke: Option<GrantRef>,
    expect: WireResponse,
    class: Class,
}

struct Guest {
    next: u64,
    pending: VecDeque<Pending>,
    declares: u64,
    /// `[class][slot]` grants declared once (reusing guests only).
    table: Vec<GrantRef>,
}

/// What a run saw, beyond the window's histograms.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Counts {
    pub submitted: u64,
    pub completed: u64,
    /// Responses that did not match the per-guest FIFO expectation.
    pub failed: u64,
    /// Rogue ioctls submitted, and those answered `EFAULT` as they must be.
    pub rogue_submitted: u64,
    pub rogue_refused: u64,
    /// Submissions refused with `EngineError::Backpressure`.
    pub backpressure: u64,
}

/// Why a run cannot be trusted at all (a lost completion, a dead engine, a
/// canary that did not fire): reported and the process exits non-zero.
pub type Fatal = String;

pub struct WallRig {
    spec: WallSpec,
    seed: u64,
    kind: EngineKind,
    engine: Box<dyn MultiEngine>,
    served: Arc<Mutex<u64>>,
    clock: ClockSource,
    guests: Vec<Guest>,
    /// Per-guest op budget (the twin's fixed replay); `u64::MAX` when timed.
    limit: u64,
    submitting: bool,
    pub counts: Counts,
    pub spans: Spans,
    window: Option<(u64, Window)>,
    /// Guest 0's latencies on the engine's clock (flood twin only).
    light: Vec<u64>,
    pub build_ns: u64,
    /// Whether the generator and backend threads sit on CPUs of their own.
    pub pinned: bool,
}

fn grant_ops(class: Class, slot: u64) -> Vec<MemOpGrant> {
    match class {
        Class::Ioctl => {
            let addr = GuestVirtAddr::new(ioctl_arg(slot));
            vec![
                MemOpGrant::CopyFromGuest { addr, len: 8 },
                MemOpGrant::CopyToGuest { addr, len: 8 },
            ]
        }
        Class::Write => vec![MemOpGrant::CopyFromGuest {
            addr: GuestVirtAddr::new(write_addr(slot)),
            len: WRITE_BYTES,
        }],
        Class::Read => Vec::new(),
    }
}

fn ioctl_arg(slot: u64) -> u64 {
    0x10_0000 + slot * 16
}

fn write_addr(slot: u64) -> u64 {
    0x100_0000 + slot * WRITE_BYTES
}

fn read_addr(slot: u64) -> u64 {
    0x800_0000 + slot * READ_BYTES
}

/// A span's operation id: guest in the high bits, the guest's op index low.
fn op_id(guest: u32, index: u64) -> u64 {
    (u64::from(guest) << 40) | (index & ((1 << 40) - 1))
}

impl WallRig {
    /// Builds the engine, declares the reuse tables, fills every guest's
    /// pipeline (in seed order) and fires the backpressure canary:
    /// everything before the first completion.
    pub fn setup(
        spec: WallSpec,
        seed: u64,
        kind: EngineKind,
        epoch: Epoch,
    ) -> Result<WallRig, Fatal> {
        let build_started = epoch.ns();
        let (service, served) = ScriptedService::new();
        let engine = build_multi(kind, service, spec.guests, SchedPolicy::FairShare);
        let build_ns = epoch.ns() - build_started;
        let clock = engine.clock();
        let timed = kind == EngineKind::Wall;
        let pinned = timed && pin::spread(BACKEND_THREAD);
        let mut rig = WallRig {
            spec,
            seed,
            kind,
            engine,
            served,
            clock,
            guests: Vec::with_capacity(spec.guests),
            limit: if timed { u64::MAX } else { TWIN_OPS_PER_GUEST },
            submitting: true,
            counts: Counts::default(),
            spans: Spans::new(false, epoch),
            window: None,
            light: Vec::new(),
            build_ns,
            pinned,
        };
        for guest in 0..spec.guests as u32 {
            let mut state = Guest {
                next: 0,
                pending: VecDeque::with_capacity(MULTI_QUEUE_CAP),
                declares: 0,
                table: Vec::new(),
            };
            if spec.reuse {
                for class in [Class::Ioctl, Class::Write] {
                    for slot in 0..REUSE_SLOTS {
                        let grant = rig
                            .engine
                            .grants()
                            .declare(guest, grant_ops(class, slot))
                            .map_err(|e| format!("declaring guest {guest}'s reuse table: {e:?}"))?;
                        state.table.push(grant);
                        state.declares += 1;
                    }
                }
            }
            rig.guests.push(state);
        }
        let order = Rng::new(seed, STREAM_ORDER).permutation(spec.guests);
        for guest in order {
            while rig.wants_more(guest) {
                rig.submit_next(guest)?;
            }
        }
        rig.backpressure_canary()?;
        Ok(rig)
    }

    /// Completes `ops` untimed operations so queues, wake-up patterns and
    /// allocator state are those of a running system.
    pub fn warm_up(&mut self, ops: u64) -> Result<(), Fatal> {
        let target = self.counts.completed + ops;
        while self.counts.completed < target {
            self.complete_one()?;
        }
        Ok(())
    }

    fn depth(&self, guest: u32) -> usize {
        if self.spec.profile == Profile::Flood && guest == 0 {
            1
        } else {
            self.spec.depth
        }
    }

    fn wants_more(&self, guest: u32) -> bool {
        let state = &self.guests[guest as usize];
        self.submitting && state.pending.len() < self.depth(guest) && state.next < self.limit
    }

    fn class_of(&self, guest: u32, index: u64) -> Class {
        match self.spec.profile {
            Profile::Mixed => CLASSES[(index % 3) as usize],
            Profile::Flood if guest == 0 => Class::Ioctl,
            Profile::Flood => Class::Write,
        }
    }

    /// Declares (or looks up), encodes and submits `guest`'s next op.
    /// `Ok(false)` means the engine refused it with backpressure and nothing
    /// changed: the same op is submitted again next time.
    fn submit_next(&mut self, guest: u32) -> Result<bool, Fatal> {
        let g = u64::from(guest);
        let index = self.guests[guest as usize].next;
        let rogue = one_in(self.seed, STREAM_ROGUE | g, index, ROGUE_PERIOD);
        let class = self.class_of(guest, index);
        // The rogue ioctl takes the op's place and carries a valid grant for
        // an ordinary buffer, so only `validate` stands between it and the
        // read outside that grant.
        let shape = if rogue { Class::Ioctl } else { class };
        let fresh = !self.spec.reuse || one_in(self.seed, STREAM_FRESH | g, index, FRESH_PERIOD);
        let pick = draw(self.seed, STREAM_SLOT | g, index);
        let slot = if fresh {
            REUSE_SLOTS + pick % (BUFFER_SLOTS - REUSE_SLOTS)
        } else {
            pick % REUSE_SLOTS
        };
        let id = op_id(guest, index);

        let mut at_span = self.spans.now();
        let span_at = at_span;
        let (grant, revoke) = if shape == Class::Read {
            (None, None)
        } else if fresh {
            let declared = self
                .engine
                .grants()
                .declare(guest, grant_ops(shape, slot))
                .map_err(|e| format!("guest {guest} op {index}: declare failed: {e:?}"))?;
            self.guests[guest as usize].declares += 1;
            at_span = self
                .spans
                .tile(Span::Declare, id, at_span, self.spans.now());
            (Some(declared), Some(declared))
        } else {
            let table = &self.guests[guest as usize].table;
            (
                Some(table[(shape as u64 * REUSE_SLOTS + slot) as usize]),
                None,
            )
        };
        let (op, expect) = match shape {
            Class::Ioctl => (
                WireOp::Ioctl {
                    cmd: INTERACTIVE_CMD,
                    arg: if rogue { u64::MAX } else { ioctl_arg(slot) },
                },
                if rogue {
                    WireResponse::Err(Errno::Efault)
                } else {
                    WireResponse::Value(0)
                },
            ),
            Class::Write => (
                WireOp::Write {
                    addr: GuestVirtAddr::new(write_addr(slot)),
                    len: WRITE_BYTES,
                },
                WireResponse::Value(WRITE_BYTES as i64),
            ),
            Class::Read => (
                WireOp::Read {
                    addr: GuestVirtAddr::new(read_addr(slot)),
                    len: READ_BYTES,
                },
                WireResponse::Value(0),
            ),
        };
        let frame = WireRequest {
            task: g + 1,
            pt_root: GuestPhysAddr::new(0x4000),
            handle: 1,
            span: 0,
            grant,
            op,
        }
        .encode();
        at_span = self.spans.tile(Span::Encode, id, at_span, self.spans.now());
        let at = self.clock.now_ns();
        let outcome = self.engine.submit(guest, &frame);
        self.spans.tile(Span::Submit, id, at_span, self.spans.now());
        match outcome {
            Ok(()) => {
                let state = &mut self.guests[guest as usize];
                state.pending.push_back(Pending {
                    index,
                    at,
                    span_at,
                    revoke,
                    expect,
                    class,
                });
                state.next += 1;
                self.counts.submitted += 1;
                self.counts.rogue_submitted += u64::from(rogue);
                Ok(true)
            }
            Err(EngineError::Backpressure) => {
                if let Some(declared) = revoke {
                    self.engine.grants().revoke(guest, declared);
                }
                self.counts.backpressure += 1;
                Ok(false)
            }
            Err(e) => Err(format!("guest {guest} op {index}: submit failed: {e}")),
        }
    }

    /// Takes one completion, polling until one is ready, checks it, and
    /// lets its guest issue the next op.
    ///
    /// The generator never parks (the paper's polled transport): a blocking
    /// wait on this engine costs a futex wake-up per op in both directions,
    /// loses wake-ups to a 1-ms time-out, and made every rate here swing by
    /// tens of per cent from run to run.
    fn complete_one(&mut self) -> Result<(), Fatal> {
        let mut from = self.spans.now();
        let mut span = Span::CompletePoll;
        let mut taken = self
            .engine
            .complete()
            .map_err(|e| format!("complete failed: {e}"))?;
        if taken.is_none() {
            // An empty poll belongs to no op; the wait that follows does.
            from = self.spans.tile(span, 0, from, self.spans.now());
            span = Span::CompleteWait;
            let patience = Instant::now();
            let mut polls = 0u32;
            while taken.is_none() {
                if self.pinned {
                    std::hint::spin_loop();
                } else {
                    // The backend may share this thread's only CPU and then
                    // runs when this thread lets it.
                    std::thread::yield_now();
                }
                taken = self
                    .engine
                    .complete()
                    .map_err(|e| format!("complete failed: {e}"))?;
                polls = polls.wrapping_add(1);
                if polls.is_multiple_of(1 << 16) && patience.elapsed() > LOST_AFTER {
                    return Err(format!(
                        "no completion for {LOST_AFTER:?} with {} op(s) in flight",
                        self.counts.submitted - self.counts.completed
                    ));
                }
            }
        }
        let (guest, frame) = taken.expect("polled or waited for above");
        let done = self.clock.now_ns();
        let id = self.front_id(guest)?;
        let mut at_span = self.spans.tile(span, id, from, self.spans.now());
        let response = WireResponse::decode(&frame);
        at_span = self.spans.tile(Span::Decode, id, at_span, self.spans.now());
        let op = self.guests[guest as usize]
            .pending
            .pop_front()
            .expect("front_id saw the pending op");
        self.counts.completed += 1;
        if response == Ok(op.expect) {
            self.counts.rogue_refused += u64::from(matches!(op.expect, WireResponse::Err(_)));
        } else {
            self.counts.failed += 1;
        }
        if let Some(declared) = op.revoke {
            if !self.engine.grants().revoke(guest, declared) {
                self.counts.failed += 1;
            }
            at_span = self.spans.tile(Span::Revoke, id, at_span, self.spans.now());
        }
        self.spans.op(id, op.span_at, at_span);
        let latency = done.saturating_sub(op.at);
        let light = self.spec.profile == Profile::Flood && guest == 0;
        if let Some((opened, window)) = &mut self.window {
            let at = done.saturating_sub(*opened);
            match self.spec.profile {
                Profile::Mixed => window.record(at, latency, op.class, true, true),
                // The flood's rate is the heavies', its latency the light guest's.
                Profile::Flood => window.record(at, latency, op.class, !light, light),
            }
        }
        if light && self.kind == EngineKind::Virtual {
            self.light.push(latency);
        }
        if self.wants_more(guest) {
            self.submit_next(guest)?;
        }
        Ok(())
    }

    fn front_id(&self, guest: u32) -> Result<u64, Fatal> {
        self.guests
            .get(guest as usize)
            .and_then(|state| state.pending.front())
            .map(|op| op_id(guest, op.index))
            .ok_or_else(|| format!("guest {guest}: a completion with no op in flight"))
    }

    /// One submit into a full queue must come back `Backpressure` and lose
    /// nothing: the ops that filled the queue complete like any others, and
    /// the guest falls back to its depth as they do.
    fn backpressure_canary(&mut self) -> Result<(), Fatal> {
        let guest = self.spec.guests as u32 - 1;
        let before = self.counts.backpressure;
        while self.guests[guest as usize].pending.len() < MULTI_QUEUE_CAP {
            if !self.submit_next(guest)? {
                return Err(format!("guest {guest}: backpressure below the queue cap"));
            }
        }
        if self.submit_next(guest)? || self.counts.backpressure != before + 1 {
            return Err(format!("guest {guest}: a full queue accepted another op"));
        }
        Ok(())
    }

    /// Runs the timed window: `slices` slices of `slice_ns` on the engine's
    /// clock, spans recorded when `traced`. That clock stops `pauses` times
    /// at equal distances to run `between`.
    pub fn run_window(
        &mut self,
        slices: usize,
        slice_ns: u64,
        traced: bool,
        pauses: usize,
        between: &mut dyn FnMut() -> Result<(), Fatal>,
        epoch: Epoch,
    ) -> Result<Window, Fatal> {
        self.spans = Spans::new(traced, epoch);
        let mut opened = self.clock.now_ns();
        let (len_ns, parts) = (slices as u64 * slice_ns, pauses as u64 + 1);
        self.spans.open(self.spans.now());
        self.window = Some((opened, Window::new(slices, slice_ns)));
        for part in 1..=parts {
            let closes = opened + len_ns * part / parts;
            while self.clock.now_ns() < closes {
                // Completions are stamped one by one; checking the deadline
                // only every few of them keeps the clock out of the loop.
                for _ in 0..16 {
                    self.complete_one()?;
                }
            }
            if part < parts {
                let window = self.window.take();
                let paused = self.clock.now_ns();
                between()?;
                // What was in flight completed meanwhile, and what replaces
                // it is submitted in one burst and finds short queues: both
                // generations are taken untimed, or the next slices would
                // open with a burst of completions, then of low latencies.
                self.warm_up(2 * (self.counts.submitted - self.counts.completed))?;
                opened += self.clock.now_ns() - paused;
                self.window = window.map(|(_, window)| (opened, window));
            }
        }
        self.spans.close(self.spans.now());
        let (_, mut window) = self.window.take().expect("window was opened above");
        window.finish();
        Ok(window)
    }

    /// The twin's fixed replay: every guest issues its budget, the run ends
    /// when nothing is in flight.
    fn run_until_idle(&mut self) -> Result<(), Fatal> {
        while self.counts.completed < self.counts.submitted {
            self.complete_one()?;
        }
        Ok(())
    }

    /// Drains what is in flight, stops the engine and checks conservation.
    pub fn finish(mut self) -> Result<Finished, Fatal> {
        self.submitting = false;
        self.run_until_idle()?;
        self.engine.finish();
        let served = *self.served.lock().map_err(|_| "service counter poisoned")?;
        if served != self.counts.completed || self.counts.submitted != self.counts.completed {
            return Err(format!(
                "conservation broken: {} submitted, {} served, {} completed",
                self.counts.submitted, served, self.counts.completed
            ));
        }
        let declares_max = self.guests.iter().map(|g| g.declares).max().unwrap_or(0);
        let seq_used = declares_max as f64 / (1u64 << SEQ_BITS) as f64;
        if seq_used > SEQ_BUDGET_RATIO {
            return Err(format!(
                "one guest used {:.0} % of its grant sequence space (budget {:.0} %): \
                 shorten the run or reuse grants, a shard that runs out fails closed",
                seq_used * 100.0,
                SEQ_BUDGET_RATIO * 100.0
            ));
        }
        Ok(Finished {
            counts: self.counts,
            declares: self.guests.iter().map(|g| g.declares).sum(),
            seq_used_max_ratio: seq_used,
        })
    }
}

pub struct Finished {
    pub counts: Counts,
    pub declares: u64,
    pub seq_used_max_ratio: f64,
}

/// Simulated-time results of one replay on the virtual twin. Deterministic:
/// two replays of one seed must compare equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimRun {
    pub elapsed_ns: u64,
    /// Median virtual latency of the flood's light guest (0 when mixed).
    pub light_p50_ns: u64,
    pub counts: Counts,
}

impl SimRun {
    pub fn ns_per_op(&self) -> f64 {
        self.elapsed_ns as f64 / self.counts.completed.max(1) as f64
    }
}

/// Replays [`TWIN_OPS_PER_GUEST`] ops per guest on `EngineKind::Virtual`.
pub fn sim_replay(spec: WallSpec, seed: u64, epoch: Epoch) -> Result<SimRun, Fatal> {
    let mut rig = WallRig::setup(spec, seed, EngineKind::Virtual, epoch)?;
    let started = rig.clock.now_ns();
    rig.run_until_idle()?;
    let elapsed_ns = rig.clock.now_ns() - started;
    let mut light = std::mem::take(&mut rig.light);
    light.sort_unstable();
    let finished = rig.finish()?;
    Ok(SimRun {
        elapsed_ns,
        light_p50_ns: light
            .get(light.len().saturating_sub(1) / 2)
            .copied()
            .unwrap_or(0),
        counts: finished.counts,
    })
}
