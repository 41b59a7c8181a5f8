//! Race properties: exhaustive interleaving exploration of the wall-clock
//! substrate's lock-free protocols under a store-buffer memory model.
//!
//! The wall-clock engine (PR 8) replaced the deterministic virtual channel
//! with real threads talking through [`paradice_hypervisor::AtomicRing`],
//! its park/unpark [`Doorbell`](paradice_hypervisor::Doorbell), and the
//! sharded grant table's per-slot publication. Those protocols are correct only
//! under specific memory orderings, and `cargo test` on one x86 box cannot
//! distinguish "correct" from "x86's strong model happened to save us".
//! This module explores *every* schedule of small 2-thread instances of the
//! four protocols under a weak-memory interpreter, loom-style but
//! dependency-free, reusing the analyzer's
//! [`TransitionSystem`] BFS — the same engine as the ring and cache models.
//!
//! # The memory interpreter
//!
//! TSO-style per-thread FIFO store buffers with an ordering-tagged
//! extension so the orderings the shipped code declares actually matter:
//!
//! * a `SeqCst` store flushes the thread's buffer and writes memory
//!   directly (total store order);
//! * a `Release`/`AcqRel` store enters the buffer and may only drain when
//!   it is the **oldest** entry (no store-store reordering past it);
//! * a `Relaxed` store enters the buffer and may drain **out of order**,
//!   bypassing older entries to other locations — the freedom a
//!   `Release → Relaxed` downgrade hands the compiler and non-TSO hardware;
//! * every RMW flushes the thread's buffer and acts on memory directly
//!   (all shipped RMWs are `AcqRel`-or-stronger locked operations);
//! * loads forward from the thread's own newest buffered store, else read
//!   memory; a **non-`Acquire`** gating load additionally permits the
//!   model's explicit payload-read *hoisting* step (load-load reordering,
//!   the freedom a dropped `Acquire` hands out).
//!
//! Buffer drains are explicit transitions, so the explorer covers every
//! schedule *and* every legal flush timing. Crucially the orderings are
//! read back from [`paradice_hypervisor::atomic::all_sites`] — the same
//! constants the code executes and the MO/RC lint checks — so a downgrade
//! in the shipped site table flips the model here with no second copy to
//! drift.
//!
//! | property        | instance                                              |
//! |-----------------|-------------------------------------------------------|
//! | `race-ring`     | 2-slot ring, 3 pushes racing 3 pops: no torn payload read, FIFO identity, plus a value-level crosscheck of the real [`AtomicRing`] |
//! | `race-doorbell` | two publications, or a stop request in place of either, racing the backend loop's wait on `!ready.is_empty() \|\| stop`: no terminal state with the consumer asleep, work or stop visible, and no wakeup pending |
//! | `race-shards`   | writer publishing, unpublishing and retiring two declarations through one page slot racing a reader's enter/load/compare/scan/exit: the reader never dereferences a recycled declaration |
//! | `race-ready`    | frame chunk pushes → ready-id publish racing ready-id consume → chunk pops, 2 guests, one of them published twice, one frame in two chunks: every consumed id finds every chunk of its frame, every published id is consumed once, in order |
//!
//! Disproofs surface as `VP005` diagnostics and replayable fixtures; the
//! seeded ordering mutants (`aring-publish-relaxed`,
//! `aring-consume-no-acquire`, `doorbell-check-before-publish`,
//! `doorbell-coalesce-on-stale-empty`, `shard-retire-unfenced`,
//! `ready-publish-before-frame`, `ready-publish-before-last-chunk`) are this
//! checker's own regression suite.
//! Bounds are exhaustive for these instances (every run asserts
//! `!truncated`); DESIGN.md §14 records the model and its limits.

use paradice_analyzer::dataflow::reach::{explore, Bounds, TransitionSystem};
use paradice_analyzer::lint::{DiagCode, Diagnostic};
use paradice_analyzer::race::MemOrder;
use paradice_hypervisor::{ARingError, AtomicRing, IdRing, ARING_CAPACITY};

use crate::fixture::Fixture;
use crate::report::{Mutant, PropertyReport};

/// Looks up the ordering the shipped code declares (and executes) for one
/// access of one atomic site. Site names are unique across the aggregated
/// tables, so `(site, access)` identifies the constant.
fn shipped_ordering(site: &str, access: &str) -> MemOrder {
    for spec in paradice_hypervisor::atomic::all_sites() {
        if spec.name == site {
            if let Some(found) = spec.accesses.iter().find(|a| a.name == access) {
                return found.ordering;
            }
        }
    }
    panic!("no declared atomic access {site}#{access}");
}

// --- The store-buffer memory interpreter. ---

const THREADS: usize = 2;

/// One buffered (not yet globally visible) store.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    loc: usize,
    val: u32,
    /// `Relaxed` stores may drain out of order; `Release` ones may not.
    relaxed: bool,
}

/// Shared memory plus one FIFO store buffer per thread.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Mem {
    shared: Vec<u32>,
    buffers: [Vec<Entry>; THREADS],
}

impl Mem {
    fn new(shared: Vec<u32>) -> Mem {
        Mem {
            shared,
            buffers: [Vec::new(), Vec::new()],
        }
    }

    /// A store at `order`: `SeqCst` drains and writes through; anything
    /// weaker is buffered, tagged with whether it may later bypass.
    fn store(&mut self, t: usize, loc: usize, val: u32, order: MemOrder) {
        if order == MemOrder::SeqCst {
            self.flush(t);
            self.shared[loc] = val;
        } else {
            self.buffers[t].push(Entry {
                loc,
                val,
                relaxed: order == MemOrder::Relaxed,
            });
        }
    }

    /// A load: forwards from the thread's own newest buffered store to
    /// `loc`, else reads shared memory. (Remote buffers are invisible —
    /// that is the whole point of the model.)
    fn load(&self, t: usize, loc: usize) -> u32 {
        self.buffers[t]
            .iter()
            .rev()
            .find(|e| e.loc == loc)
            .map(|e| e.val)
            .unwrap_or(self.shared[loc])
    }

    /// An RMW: models a locked operation — drains the thread's buffer and
    /// acts on shared memory directly. Returns the previous value.
    fn rmw(&mut self, t: usize, loc: usize, f: impl FnOnce(u32) -> u32) -> u32 {
        self.flush(t);
        let old = self.shared[loc];
        self.shared[loc] = f(old);
        old
    }

    fn flush(&mut self, t: usize) {
        for entry in self.buffers[t].drain(..) {
            self.shared[entry.loc] = entry.val;
        }
    }

    /// Buffer indices eligible to drain next for thread `t`: the oldest
    /// entry always; a `Relaxed` entry also out of order, provided no
    /// older entry targets the same location (same-location coherence).
    fn drain_candidates(&self, t: usize) -> Vec<usize> {
        let buf = &self.buffers[t];
        (0..buf.len())
            .filter(|&i| {
                i == 0 || (buf[i].relaxed && buf[..i].iter().all(|e| e.loc != buf[i].loc))
            })
            .collect()
    }

    fn drain_one(&mut self, t: usize, i: usize) {
        let entry = self.buffers[t].remove(i);
        self.shared[entry.loc] = entry.val;
    }

    fn drained(&self) -> bool {
        self.buffers.iter().all(Vec::is_empty)
    }
}

/// The drain transitions every model shares: one successor per eligible
/// buffer entry per thread.
fn drain_successors<S>(mem: &Mem, rebuild: impl Fn(Mem) -> S) -> Vec<(String, S)> {
    const NAMES: [&str; THREADS] = ["P", "C"];
    let mut out = Vec::new();
    for (t, name) in NAMES.iter().enumerate() {
        for i in mem.drain_candidates(t) {
            let mut next = mem.clone();
            next.drain_one(t, i);
            out.push((format!("drain:{name}:{i}"), rebuild(next)));
        }
    }
    out
}

/// Generic fixture-replay over any of the race models: applies the trace
/// labels, skipping ones not enabled under this configuration (a mutant
/// trace replayed on the clean model loses its bad steps and completes).
fn replay_system<M: TransitionSystem>(model: &M, trace: &[String]) -> Result<(), String> {
    let mut state = model
        .initial()
        .into_iter()
        .next()
        .expect("race models have one initial state");
    for label in trace {
        match model
            .successors(&state)
            .into_iter()
            .find(|(l, _)| l == label)
        {
            Some((_, next)) => state = next,
            None => continue, // disabled under this configuration; tolerant
        }
        model.invariant(&state)?;
    }
    Ok(())
}

/// Shared disproof/proof plumbing: explores `model`, renders the verdict.
fn check_system<M: TransitionSystem>(
    name: &'static str,
    description: &'static str,
    module: &'static str,
    model: &M,
    mutant: Option<Mutant>,
) -> PropertyReport {
    let bounds = Bounds {
        max_states: 2_000_000,
        max_depth: 96,
    };
    let run = explore(model, bounds);
    if run.truncated {
        // Never expected (the instances are tiny); refuse to call it proved.
        let finding = Diagnostic::new(
            DiagCode::Vp005,
            module,
            None,
            format!("{name}: exploration truncated — bounds too small for the instance"),
        );
        return PropertyReport::disproved(
            name,
            description,
            run.states_visited,
            run.transitions,
            vec![finding],
            None,
        );
    }
    match run.violation {
        None => PropertyReport::proved(name, description, run.states_visited, run.transitions),
        Some(violation) => {
            let finding = Diagnostic::new(
                DiagCode::Vp005,
                module,
                None,
                format!("{} (after {:?})", violation.reason, violation.trace),
            );
            let mut fixture = Fixture::new(name, mutant.map(Mutant::name), &violation.reason);
            fixture.push_data("interp", "tso-store-buffer");
            fixture.push_data("threads", THREADS.to_string());
            fixture.trace = violation.trace;
            PropertyReport::disproved(
                name,
                description,
                run.states_visited,
                run.transitions,
                vec![finding],
                Some(fixture),
            )
        }
    }
}

// --- race-ring: torn reads and FIFO identity on the atomic ring. ---

/// The orderings the ring model runs under, read from the shipped site
/// table ([`shipped_ordering`]) and perturbed by the ordering mutants.
#[derive(Debug, Clone, Copy)]
struct RingOrders {
    publish: MemOrder,
    consume: MemOrder,
    recycle: MemOrder,
    payload_write: MemOrder,
    payload_read: MemOrder,
}

impl RingOrders {
    fn shipped(mutant: Option<Mutant>) -> RingOrders {
        let mut orders = RingOrders {
            publish: shipped_ordering("slot_seq", "publish"),
            consume: shipped_ordering("slot_seq", "consume"),
            recycle: shipped_ordering("slot_seq", "recycle"),
            payload_write: shipped_ordering("slot_len", "write"),
            payload_read: shipped_ordering("slot_len", "read"),
        };
        match mutant {
            Some(Mutant::AringPublishRelaxed) => orders.publish = MemOrder::Relaxed,
            Some(Mutant::AringConsumeNoAcquire) => orders.consume = MemOrder::Relaxed,
            _ => {}
        }
        orders
    }
}

/// Model ring capacity (2 slots) and pushes explored (3, so one slot is
/// recycled and re-published mid-trace — the full Vyukov turn cycle).
const RING_SLOTS: u32 = 2;
const RING_PUSHES: u32 = 3;

/// Memory layout: `SEQ[slot]` at `slot`, payload `DATA[slot]` at
/// `2 + slot`. Initial `SEQ[i] = i` exactly like [`AtomicRing::new`].
fn seq_loc(k: u32) -> usize {
    (k % RING_SLOTS) as usize
}
fn data_loc(k: u32) -> usize {
    (RING_SLOTS + k % RING_SLOTS) as usize
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RaceRingState {
    mem: Mem,
    /// Producer: 0 = claim, 1 = write payload, 2 = publish.
    p_pc: u8,
    p_k: u32,
    /// Consumer: 0 = gate, 1 = read payload, 2 = recycle.
    c_pc: u8,
    c_k: u32,
    /// A payload value read *before* the gate (load-load hoisting, only
    /// offered when the gate load is weaker than `Acquire`).
    hoisted: Option<u32>,
    error: Option<String>,
}

struct RaceRingModel {
    orders: RingOrders,
}

impl RaceRingModel {
    fn new(orders: RingOrders) -> RaceRingModel {
        RaceRingModel { orders }
    }

    fn program_successors(&self, s: &RaceRingState) -> Vec<(String, RaceRingState)> {
        let mut out = Vec::new();
        // Producer (thread 0), mirroring AtomicRing::push for push p_k:
        // claim when SEQ[slot] == k, write payload, publish SEQ[slot] = k+1.
        if s.p_k < RING_PUSHES {
            match s.p_pc {
                0 => {
                    if s.mem.load(0, seq_loc(s.p_k)) == s.p_k {
                        let mut n = s.clone();
                        n.p_pc = 1;
                        out.push(("P:claim".into(), n));
                    } // else: slot not recycled yet — the producer spins
                }
                1 => {
                    let mut n = s.clone();
                    n.mem
                        .store(0, data_loc(s.p_k), s.p_k + 1, self.orders.payload_write);
                    n.p_pc = 2;
                    out.push(("P:write-data".into(), n));
                }
                _ => {
                    let mut n = s.clone();
                    n.mem.store(0, seq_loc(s.p_k), s.p_k + 1, self.orders.publish);
                    n.p_pc = 0;
                    n.p_k += 1;
                    out.push(("P:publish".into(), n));
                }
            }
        }
        // Consumer (thread 1), mirroring AtomicRing::try_pop for pop c_k:
        // gate on SEQ[slot] == k+1, read payload, recycle SEQ[slot] = k+2.
        if s.c_k < RING_PUSHES {
            match s.c_pc {
                0 => {
                    // Hoisting: a gate weaker than Acquire lets the payload
                    // read behind it be satisfied early.
                    if !self.orders.consume.at_least_acquire() && s.hoisted.is_none() {
                        let mut n = s.clone();
                        n.hoisted = Some(n.mem.load(1, data_loc(s.c_k)));
                        out.push(("C:hoist".into(), n));
                    }
                    if s.mem.load(1, seq_loc(s.c_k)) == s.c_k + 1 {
                        let mut n = s.clone();
                        n.c_pc = 1;
                        out.push(("C:gate".into(), n));
                    } // else: nothing published yet — the consumer spins
                }
                1 => {
                    let mut n = s.clone();
                    // Loads are in-order in TSO; the payload read's own
                    // ordering adds nothing beyond the hoisting choice the
                    // gate's (lack of) Acquire already decided.
                    let _ = self.orders.payload_read;
                    let val = match n.hoisted.take() {
                        Some(stale) => stale,
                        None => n.mem.load(1, data_loc(s.c_k)),
                    };
                    if val == s.c_k + 1 {
                        n.c_pc = 2;
                    } else {
                        n.error = Some(format!(
                            "torn slot read: pop {} observed payload {val}, expected {} \
                             (the gate passed without the data it protects)",
                            s.c_k,
                            s.c_k + 1,
                        ));
                    }
                    out.push(("C:read-data".into(), n));
                }
                _ => {
                    let mut n = s.clone();
                    n.mem
                        .store(1, seq_loc(s.c_k), s.c_k + RING_SLOTS, self.orders.recycle);
                    n.c_pc = 0;
                    n.c_k += 1;
                    out.push(("C:recycle".into(), n));
                }
            }
        }
        out
    }
}

impl TransitionSystem for RaceRingModel {
    type State = RaceRingState;

    fn initial(&self) -> Vec<RaceRingState> {
        // SEQ[i] = i (slots free in turn order), payload zeroed.
        vec![RaceRingState {
            mem: Mem::new(vec![0, 1, 0, 0]),
            p_pc: 0,
            p_k: 0,
            c_pc: 0,
            c_k: 0,
            hoisted: None,
            error: None,
        }]
    }

    fn successors(&self, state: &RaceRingState) -> Vec<(String, RaceRingState)> {
        if state.error.is_some() {
            return Vec::new(); // violations are sinks
        }
        let mut out = self.program_successors(state);
        out.extend(drain_successors(&state.mem, |mem| {
            let mut next = state.clone();
            next.mem = mem;
            next
        }));
        let done = state.p_k == RING_PUSHES && state.c_k == RING_PUSHES;
        if out.is_empty() && !(done && state.mem.drained()) {
            let mut next = state.clone();
            next.error = Some(format!(
                "deadlock: producer at push {} pc {}, consumer at pop {} pc {}, \
                 nothing enabled",
                state.p_k, state.p_pc, state.c_k, state.c_pc,
            ));
            out.push(("stuck".into(), next));
        }
        out
    }

    fn invariant(&self, state: &RaceRingState) -> Result<(), String> {
        match &state.error {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }
}

/// Single-threaded value-level crosscheck of one ring geometry: drives
/// the real ring through every push/pop sequence of length 8 against a
/// shadow FIFO. Returns the number of operations checked.
fn crosscheck_geometry<R, T: PartialEq + std::fmt::Debug>(
    capacity: usize,
    make: impl Fn() -> R,
    push: impl Fn(&R, &T) -> Result<(), ARingError>,
    pop: impl Fn(&R) -> Option<T>,
    len: impl Fn(&R) -> usize,
    payload: impl Fn(u8, u8) -> T,
) -> Result<usize, String> {
    let steps = 8u32;
    let mut ops = 0usize;
    for sequence in 0u32..(1 << steps) {
        let ring = make();
        let mut shadow: std::collections::VecDeque<T> = std::collections::VecDeque::new();
        let mut stamp = 0u8;
        for bit in 0..steps {
            ops += 1;
            if sequence >> bit & 1 == 0 {
                stamp = stamp.wrapping_add(1);
                let item = payload(stamp, bit as u8);
                let expect_room = shadow.len() < capacity;
                match push(&ring, &item) {
                    Ok(()) => {
                        if !expect_room {
                            return Err("real ring admitted a push past capacity".into());
                        }
                        shadow.push_back(item);
                    }
                    Err(err) => {
                        if expect_room {
                            return Err(format!("real ring refused a push with room: {err}"));
                        }
                    }
                }
            } else {
                match (pop(&ring), shadow.pop_front()) {
                    (Some(item), Some(expect)) => {
                        if item != expect {
                            return Err(format!(
                                "real ring broke FIFO payload identity: got {item:?}, \
                                 expected {expect:?}"
                            ));
                        }
                    }
                    (Some(item), None) => {
                        return Err(format!("real ring popped {item:?} from an empty ring"));
                    }
                    (None, Some(expect)) => {
                        return Err(format!("real ring refused to pop committed {expect:?}"));
                    }
                    (None, None) => {}
                }
            }
            if len(&ring) != shadow.len() {
                return Err(format!(
                    "real ring len {} != shadow len {}",
                    len(&ring),
                    shadow.len(),
                ));
            }
        }
    }
    Ok(ops)
}

/// The crosscheck over both kinds of ring of the shipped kernel — the
/// 16 × 240-B frame ring (a frame ring of any slot size runs the same
/// code) and the id (ready) ring at the model's own 2-slot capacity — so
/// the interleaving model cannot silently drift from the code it vouches
/// for.
fn crosscheck_real_ring() -> Result<usize, String> {
    let frames = crosscheck_geometry(
        ARING_CAPACITY,
        AtomicRing::new,
        |ring, frame: &Vec<u8>| ring.push(frame),
        AtomicRing::try_pop,
        AtomicRing::len,
        |stamp, bit| vec![stamp, bit, 0x5a],
    )?;
    let ids = crosscheck_geometry(
        RING_SLOTS as usize,
        || IdRing::with_capacity(RING_SLOTS as usize),
        |ring, id: &u32| ring.push(*id),
        IdRing::try_pop,
        IdRing::len,
        |stamp, bit| u32::from(stamp) << 8 | u32::from(bit),
    )
    .map_err(|reason| format!("id-ring geometry: {reason}"))?;
    Ok(frames + ids)
}

/// `race-ring`: every schedule (including buffer-drain timings) of 3
/// pushes racing 3 pops through the 2-slot model instance, with the
/// orderings the shipped `aring` site table declares; plus the value-level
/// crosscheck of the real [`AtomicRing`] and [`IdRing`].
pub fn check_ring(mutant: Option<Mutant>) -> PropertyReport {
    const DESC: &str = "atomic ring under every 2-thread schedule and store-buffer drain \
         timing: no torn payload read, FIFO identity, full slot-recycle turn \
         (orderings read from the shipped aring site table; real-ring crosscheck, both geometries)";
    let model = RaceRingModel::new(RingOrders::shipped(mutant));
    let mut report = check_system("race-ring", DESC, "hypervisor::aring", &model, mutant);
    if report.proved {
        match crosscheck_real_ring() {
            Ok(ops) => report.transitions += ops,
            Err(reason) => {
                let finding = Diagnostic::new(
                    DiagCode::Vp004,
                    "hypervisor::aring",
                    None,
                    format!("race-ring model/code drift: {reason}"),
                );
                report = PropertyReport::disproved(
                    report.name,
                    report.description,
                    report.states,
                    report.transitions,
                    vec![finding],
                    None,
                );
            }
        }
    }
    report
}

// --- race-doorbell: lost wakeups on the park/unpark protocol. ---

/// Doorbell-model orderings, read from the shipped site table. The
/// consumer's drain and the park-token exchange are RMWs (always flushing)
/// so only the plain stores carry orderings here.
#[derive(Debug, Clone, Copy)]
struct DoorbellOrders {
    /// The producer's publication (the ring's `slot_seq` publish).
    publish: MemOrder,
    /// The consumer's readiness check (the ring's occupancy load).
    occupancy: MemOrder,
    /// The consumer's pop as the producer sees it (the `head` advance).
    head_advance: MemOrder,
    /// The engine's shutdown request (the `stop` store).
    stop: MemOrder,
    /// `rung` store on the ring side.
    ring: MemOrder,
    /// `parked` load on the ring side.
    check: MemOrder,
    /// `parked` store before sleeping.
    park: MemOrder,
    /// `parked` store after waking.
    clear: MemOrder,
}

impl DoorbellOrders {
    fn shipped() -> DoorbellOrders {
        DoorbellOrders {
            publish: shipped_ordering("slot_seq", "publish"),
            occupancy: shipped_ordering("tail", "occupancy"),
            head_advance: shipped_ordering("head", "advance"),
            stop: shipped_ordering("stop", "request"),
            ring: shipped_ordering("rung", "ring"),
            check: shipped_ordering("parked", "unpark-check"),
            park: shipped_ordering("parked", "park"),
            clear: shipped_ordering("parked", "clear"),
        }
    }
}

/// Locations: 0 = the ring's tail (publications so far), 1 = its head
/// (pops so far), 2 = the engine's `stop`, 3 = `rung`, 4 = `parked`,
/// 5 = the park token (`std::thread` unpark permit).
const TAIL: usize = 0;
const HEAD: usize = 1;
const STOP: usize = 2;
const RUNG: usize = 3;
const PARKED: usize = 4;
const TOKEN: usize = 5;

/// Publications the producer makes before it stops or leaves: more than
/// one, so a publication can land behind an unserved one.
const PUBLICATIONS: u32 = 2;

/// Producer program counters.
const P_CHOOSE: u8 = 0;
const P_RING: u8 = 1;
const P_CHECK: u8 = 2;
const P_UNPARK: u8 = 3;
const P_DONE: u8 = 4;
const P_PUBLISH: u8 = 5;

/// Consumer program counters: the backend loop (serve, check `stop`) and
/// `Doorbell::wait` inside it.
const C_SERVE: u8 = 0;
const C_CHECK_STOP: u8 = 1;
const C_DRAIN: u8 = 2;
const C_READY: u8 = 3;
const C_ANNOUNCE: u8 = 4;
const C_RECHECK: u8 = 5;
const C_READY_RECHECK: u8 = 6;
const C_PARK: u8 = 7;
const C_CLEAR: u8 = 8;
const C_ASLEEP: u8 = 9;
const C_EXITED: u8 = 10;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RaceDoorbellState {
    mem: Mem,
    p_pc: u8,
    /// Publications made so far.
    p_sent: u32,
    /// Whether the producer rings for a stop request (and then leaves).
    p_stopping: bool,
    /// Whether the publication under way rings: always, but for
    /// [`Mutant::DoorbellCoalesceOnStaleEmpty`]'s occupancy view.
    p_rings: bool,
    c_pc: u8,
    /// Frames the consumer has popped (its own head).
    c_head: u32,
    error: Option<String>,
}

struct RaceDoorbellModel {
    orders: DoorbellOrders,
    /// Whether the consumer rechecks the doorbell *after* announcing
    /// `parked` (the shipped protocol). [`Mutant::DoorbellCheckBeforePublish`]
    /// clears this: all checking happens before the announcement, so a ring
    /// landing in between is missed.
    recheck_after_announce: bool,
    /// [`Mutant::DoorbellCoalesceOnStaleEmpty`]: the producer reads
    /// `is_empty()` before each push and rings only when it said empty.
    coalesce_on_empty: bool,
}

impl RaceDoorbellModel {
    fn new(orders: DoorbellOrders, mutant: Option<Mutant>) -> RaceDoorbellModel {
        RaceDoorbellModel {
            orders,
            recheck_after_announce: mutant != Some(Mutant::DoorbellCheckBeforePublish),
            coalesce_on_empty: mutant == Some(Mutant::DoorbellCoalesceOnStaleEmpty),
        }
    }

    /// The consumer's wait predicate, `!ready.is_empty() || stop`.
    fn ready(&self, s: &RaceDoorbellState) -> bool {
        let _ = self.orders.occupancy; // load ordering: no hoisting here
        s.mem.load(1, TAIL) != s.c_head || s.mem.load(1, STOP) == 1
    }

    /// Where the consumer goes once the bell or the token has woken it.
    fn after_wake(&self) -> u8 {
        if self.recheck_after_announce {
            C_RECHECK
        } else {
            C_CLEAR
        }
    }

    fn program_successors(&self, s: &RaceDoorbellState) -> Vec<(String, RaceDoorbellState)> {
        let mut out = Vec::new();
        // Producer: publish work and ring (the engine's submit), or request
        // a stop and ring (its finish); after the last publication it may
        // also leave without stopping.
        let next_round = |n: &mut RaceDoorbellState| {
            n.p_pc = if n.p_stopping { P_DONE } else { P_CHOOSE };
        };
        match s.p_pc {
            P_CHOOSE => {
                if s.p_sent < PUBLICATIONS {
                    let mut n = s.clone();
                    if self.coalesce_on_empty {
                        // is_empty() through the public API: both cursors.
                        n.p_rings = n.mem.load(0, TAIL) == n.mem.load(0, HEAD);
                        n.p_pc = P_PUBLISH;
                        out.push(("P:is-empty".into(), n));
                    } else {
                        n.p_sent += 1;
                        n.mem.store(0, TAIL, n.p_sent, self.orders.publish);
                        n.p_pc = P_RING;
                        out.push(("P:publish".into(), n));
                    }
                } else {
                    let mut n = s.clone();
                    n.p_pc = P_DONE;
                    out.push(("P:leave".into(), n));
                }
                let mut n = s.clone();
                n.mem.store(0, STOP, 1, self.orders.stop);
                n.p_stopping = true;
                n.p_pc = P_RING;
                out.push(("P:stop".into(), n));
            }
            P_PUBLISH => {
                let mut n = s.clone();
                n.p_sent += 1;
                n.mem.store(0, TAIL, n.p_sent, self.orders.publish);
                n.p_pc = if n.p_rings { P_RING } else { P_CHOOSE };
                out.push(("P:publish".into(), n));
            }
            P_RING => {
                let mut n = s.clone();
                n.mem.store(0, RUNG, 1, self.orders.ring);
                n.p_pc = P_CHECK;
                out.push(("P:ring".into(), n));
            }
            P_CHECK => {
                let mut n = s.clone();
                let _ = self.orders.check; // load ordering: no hoisting here
                if n.mem.load(0, PARKED) == 1 {
                    n.p_pc = P_UNPARK;
                } else {
                    next_round(&mut n);
                }
                out.push(("P:check-parked".into(), n));
            }
            P_UNPARK => {
                let mut n = s.clone();
                // The unpark syscall: deposits the token, always visible.
                n.mem.store(0, TOKEN, 1, MemOrder::SeqCst);
                next_round(&mut n);
                out.push(("P:unpark".into(), n));
            }
            _ => {}
        }
        // Consumer: the backend loop — serve while there is work, leave on
        // `stop`, else Doorbell::wait on the composed predicate: drain the
        // bell, check readiness, announce parked, recheck, sleep on the
        // token.
        let mut n = s.clone();
        let label = match s.c_pc {
            C_SERVE => {
                if n.mem.load(1, TAIL) != n.c_head {
                    n.c_head += 1;
                    n.mem.store(1, HEAD, n.c_head, self.orders.head_advance);
                    "C:serve"
                } else {
                    n.c_pc = C_CHECK_STOP;
                    "C:serve-none"
                }
            }
            C_CHECK_STOP => {
                n.c_pc = if n.mem.load(1, STOP) == 1 { C_EXITED } else { C_DRAIN };
                "C:check-stop"
            }
            C_DRAIN => {
                n.c_pc = if n.mem.rmw(1, RUNG, |_| 0) == 1 { C_SERVE } else { C_READY };
                "C:drain"
            }
            C_READY => {
                n.c_pc = if self.ready(&n) { C_SERVE } else { C_ANNOUNCE };
                "C:ready"
            }
            C_ANNOUNCE => {
                n.mem.store(1, PARKED, 1, self.orders.park);
                n.c_pc = if self.recheck_after_announce { C_RECHECK } else { C_PARK };
                "C:announce-park"
            }
            C_RECHECK => {
                n.c_pc = if n.mem.rmw(1, RUNG, |_| 0) == 1 { C_CLEAR } else { C_READY_RECHECK };
                "C:recheck"
            }
            C_READY_RECHECK => {
                n.c_pc = if self.ready(&n) { C_CLEAR } else { C_PARK };
                "C:ready-recheck"
            }
            C_PARK => {
                // park(): consumes a pending token and returns, else sleeps.
                n.c_pc = if n.mem.rmw(1, TOKEN, |_| 0) == 1 { self.after_wake() } else { C_ASLEEP };
                "C:park"
            }
            // Asleep: only an unpark token wakes us (no spurious wakeups
            // — the shipped park_timeout is defense in depth, and
            // modeling it would mask exactly the bug we hunt).
            C_ASLEEP if s.mem.shared[TOKEN] == 1 => {
                n.mem.rmw(1, TOKEN, |_| 0);
                n.c_pc = self.after_wake();
                "C:wake"
            }
            C_CLEAR => {
                n.mem.store(1, PARKED, 0, self.orders.clear);
                n.c_pc = C_SERVE;
                "C:clear-park"
            }
            _ => return out,
        };
        out.push((label.into(), n));
        out
    }
}

impl TransitionSystem for RaceDoorbellModel {
    type State = RaceDoorbellState;

    fn initial(&self) -> Vec<RaceDoorbellState> {
        vec![RaceDoorbellState {
            mem: Mem::new(vec![0; 6]),
            p_pc: P_CHOOSE,
            p_sent: 0,
            p_stopping: false,
            p_rings: true,
            c_pc: C_SERVE,
            c_head: 0,
            error: None,
        }]
    }

    fn successors(&self, state: &RaceDoorbellState) -> Vec<(String, RaceDoorbellState)> {
        if state.error.is_some() {
            return Vec::new();
        }
        let mut out = self.program_successors(state);
        out.extend(drain_successors(&state.mem, |mem| {
            let mut next = state.clone();
            next.mem = mem;
            next
        }));
        // Terminal: the producer is done and every buffer drained. A
        // consumer asleep then stays asleep; that is idle only if it has
        // nothing to see.
        if out.is_empty() && state.c_pc == C_ASLEEP {
            let what = if state.mem.shared[STOP] == 1 {
                "stop requested"
            } else if state.mem.shared[TAIL] != state.c_head {
                "work published"
            } else {
                return out;
            };
            let mut next = state.clone();
            next.error = Some(format!(
                "lost wakeup: consumer parked forever with {what} and no unpark token pending"
            ));
            out.push(("lost-wakeup".into(), next));
        }
        out
    }

    fn invariant(&self, state: &RaceDoorbellState) -> Result<(), String> {
        match &state.error {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }
}

/// `race-doorbell`: the engine's backend loop racing a producer that makes
/// two publications, or requests a stop in place of any of them, under
/// every schedule and drain timing. Proved iff no terminal state leaves
/// the consumer asleep with work or `stop` visible and no token pending —
/// so a stop while parked always ends the loop.
pub fn check_doorbell(mutant: Option<Mutant>) -> PropertyReport {
    const DESC: &str = "park/unpark doorbell under every 2-thread schedule: two publications, or a \
         stop request in place of either, each rung, against the backend loop waiting on \
         !ready.is_empty() || stop — never parked forever with work or stop visible \
         (orderings read from the shipped site table; the pure protocol, park_timeout \
         masking disabled)";
    let model = RaceDoorbellModel::new(DoorbellOrders::shipped(), mutant);
    check_system("race-doorbell", DESC, "hypervisor::aring", &model, mutant)
}

// --- race-shards: use-after-recycle on retired declaration reclamation. ---

/// Shards-model knobs: the gate ordering comes from the shipped table;
/// [`Mutant::ShardRetireUnfenced`] removes the gate entirely (recycle
/// without waiting for `in_flight == 0`).
#[derive(Debug, Clone, Copy)]
struct ShardConfig {
    gated: bool,
}

impl ShardConfig {
    fn shipped(mutant: Option<Mutant>) -> ShardConfig {
        // Touch the orderings so a site-table rename breaks loudly here
        // rather than silently decoupling model from code.
        let _ = (
            shipped_ordering("page_slot", "publish"),
            shipped_ordering("page_slot", "unpublish"),
            shipped_ordering("page_slot", "load"),
            shipped_ordering("in_flight", "enter"),
            shipped_ordering("in_flight", "exit"),
            shipped_ordering("in_flight", "writer-check"),
        );
        ShardConfig {
            gated: mutant != Some(Mutant::ShardRetireUnfenced),
        }
    }
}

/// Locations: 0 = one page slot (0 empty, else the id of the box in it),
/// 1 = `in_flight`.
const SLOT: usize = 0;
const INFLIGHT: usize = 1;

/// The writer declares box 1 (the reference the reader validates) into
/// the slot, revokes it, then declares box 2 — the reference `CAP` later,
/// same home slot — and revokes that too. The model's `RETIRED_CAP` is 1,
/// so the second retirement overflows when the gate is busy.
const READER_REF: u32 = 1;
const MODEL_RETIRED_CAP: u32 = 1;
const READER_ITERS: u8 = 2;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RaceShardState {
    mem: Mem,
    /// Writer: 0 publish-1, 1 unpublish-1, 2 gate, 3 publish-2,
    /// 4 unpublish-2, 5 gate, 6 done.
    w_pc: u8,
    /// Reader: 0 enter, 1 load, 2 compare, 3 scan, 4 exit.
    r_pc: u8,
    r_iter: u8,
    /// Box id the reader loaded from the slot (0 = empty).
    held: u32,
    /// Bit `id` set: box `id` is retired, not yet recycled.
    retired: u8,
    /// Bit `id` set: box `id` is on the free list, where the next declare
    /// may rewrite it.
    recycled: u8,
    error: Option<String>,
}

struct RaceShardModel {
    config: ShardConfig,
}

impl RaceShardModel {
    fn new(config: ShardConfig) -> RaceShardModel {
        RaceShardModel { config }
    }

    /// The writer's gate check after a retirement: recycle everything at
    /// a zero reading, keep the list while it fits the cap, else wait.
    /// Under the mutant the recycle happens unconditionally.
    fn gate(&self, s: &RaceShardState, out: &mut Vec<(String, RaceShardState)>) {
        let mut n = s.clone();
        n.w_pc += 1;
        if !self.config.gated {
            n.recycled |= n.retired;
            n.retired = 0;
            out.push(("W:recycle-retired".into(), n));
        } else if s.mem.load(0, INFLIGHT) == 0 {
            n.recycled |= n.retired;
            n.retired = 0;
            out.push(("W:gate-zero-recycle".into(), n));
        } else if s.retired.count_ones() <= MODEL_RETIRED_CAP {
            out.push(("W:gate-busy-keep".into(), n));
        }
        // Otherwise: over the cap with a reader inside — spin (no step).
    }

    /// A reader dereference of the box it holds.
    fn deref(s: &RaceShardState, what: &str) -> Option<String> {
        (s.recycled & (1 << s.held) != 0).then(|| {
            format!(
                "use-after-recycle: reader {what} box {} after the writer recycled it",
                s.held
            )
        })
    }

    fn program_successors(&self, s: &RaceShardState) -> Vec<(String, RaceShardState)> {
        let mut out = Vec::new();
        // Writer (thread 0): declare/revoke twice into one home slot.
        // Publish and unpublish are locked swaps (write through).
        match s.w_pc {
            0 | 3 => {
                let id = u32::from(s.w_pc / 3) + 1;
                let mut n = s.clone();
                n.mem.rmw(0, SLOT, |_| id);
                n.w_pc += 1;
                out.push((format!("W:publish-{id}"), n));
            }
            1 | 4 => {
                let mut n = s.clone();
                let id = n.mem.rmw(0, SLOT, |_| 0);
                n.retired |= 1 << id;
                n.w_pc += 1;
                out.push((format!("W:unpublish-{id}"), n));
            }
            2 | 5 => self.gate(s, &mut out),
            _ => {}
        }
        // Reader (thread 1): ShardedGrantTable::validate — enter the gate,
        // load the slot, compare the reference, scan, exit. Twice, so a
        // post-reclaim iteration is also covered.
        if s.r_iter < READER_ITERS {
            let mut n = s.clone();
            match s.r_pc {
                0 => {
                    n.mem.rmw(1, INFLIGHT, |v| v + 1);
                    n.r_pc = 1;
                    out.push(("R:enter".into(), n));
                }
                1 => {
                    n.held = n.mem.load(1, SLOT);
                    n.r_pc = 2;
                    out.push(("R:load-slot".into(), n));
                }
                2 => {
                    // An empty slot is an unknown reference; a box is
                    // dereferenced to compare its reference, and only a
                    // match is scanned.
                    if s.held == 0 {
                        n.r_pc = 4;
                    } else if let Some(error) = Self::deref(s, "compared") {
                        n.error = Some(error);
                    } else {
                        n.r_pc = if s.held == READER_REF { 3 } else { 4 };
                    }
                    out.push(("R:compare-ref".into(), n));
                }
                3 => {
                    match Self::deref(s, "scanned") {
                        Some(error) => n.error = Some(error),
                        None => n.r_pc = 4,
                    }
                    out.push(("R:scan".into(), n));
                }
                _ => {
                    n.mem.rmw(1, INFLIGHT, |v| v - 1);
                    n.r_pc = 0;
                    n.r_iter += 1;
                    out.push(("R:exit".into(), n));
                }
            }
        }
        out
    }
}

impl TransitionSystem for RaceShardModel {
    type State = RaceShardState;

    fn initial(&self) -> Vec<RaceShardState> {
        vec![RaceShardState {
            mem: Mem::new(vec![0, 0]),
            w_pc: 0,
            r_pc: 0,
            r_iter: 0,
            held: 0,
            retired: 0,
            recycled: 0,
            error: None,
        }]
    }

    fn successors(&self, state: &RaceShardState) -> Vec<(String, RaceShardState)> {
        if state.error.is_some() {
            return Vec::new();
        }
        let mut out = self.program_successors(state);
        out.extend(drain_successors(&state.mem, |mem| {
            let mut next = state.clone();
            next.mem = mem;
            next
        }));
        let done = state.w_pc == 6 && state.r_iter == READER_ITERS;
        if out.is_empty() && !(done && state.mem.drained()) {
            let mut next = state.clone();
            next.error = Some(format!(
                "deadlock: writer pc {} blocked with reader at iter {} pc {}",
                state.w_pc, state.r_iter, state.r_pc,
            ));
            out.push(("stuck".into(), next));
        }
        out
    }

    fn invariant(&self, state: &RaceShardState) -> Result<(), String> {
        match &state.error {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }
}

/// `race-shards`: a writer declaring and revoking twice through one home
/// slot — publish, unpublish and retire, recycle on a zero gate — racing a
/// reader's enter/load/compare/scan/exit, under every schedule. Proved iff
/// no reader ever dereferences a recycled declaration.
pub fn check_shards(mutant: Option<Mutant>) -> PropertyReport {
    const DESC: &str = "grant-page slot reclamation under every 2-thread schedule: two \
         declare/revoke rounds through one home slot (publish, unpublish + retire, \
         recycle at a zero gate, wait past the cap) never recycle a declaration a reader \
         inside the in_flight gate compares or scans";
    let model = RaceShardModel::new(ShardConfig::shipped(mutant));
    check_system("race-shards", DESC, "hypervisor::shards", &model, mutant)
}

// --- race-ready: frame push → ready-id publish vs id consume → frame pop. ---

/// The guest each ready publication names and the chunks its frame takes,
/// in publication order: two guests, guest 0 published *twice* — the
/// repeated publication a one-shot model cannot see — and guest 1's frame
/// in two chunks, both pushed before its one id.
const READY_SCRIPT: [(u32, u32); 3] = [(0, 1), (1, 2), (0, 1)];
const READY_GUESTS: usize = 2;
/// Frame slots per guest ring in the model (no guest's chunks need more,
/// so slots never wrap — `race-ring` owns the recycle turn).
const READY_FRAME_SLOTS: usize = 2;

/// Memory layout: per-guest frame rings' `SEQ` then `DATA`, then the id
/// ring's `SEQ` then `DATA`. Slot `k` starts at `SEQ = k` as in the real
/// rings and is published by storing `k + 1`.
fn frame_seq_loc(guest: u32, k: u32) -> usize {
    guest as usize * READY_FRAME_SLOTS + k as usize
}
fn frame_data_loc(guest: u32, k: u32) -> usize {
    READY_GUESTS * READY_FRAME_SLOTS + frame_seq_loc(guest, k)
}
fn id_seq_loc(j: usize) -> usize {
    2 * READY_GUESTS * READY_FRAME_SLOTS + j
}
fn id_data_loc(j: usize) -> usize {
    id_seq_loc(j) + READY_SCRIPT.len()
}

/// The slot of its guest's ring that publication `j`'s first chunk takes.
fn first_slot(j: usize) -> u32 {
    let guest = READY_SCRIPT[j].0;
    READY_SCRIPT[..j]
        .iter()
        .filter(|&&(g, _)| g == guest)
        .map(|&(_, chunks)| chunks)
        .sum()
}

/// The payload of publication `j`'s chunk `c`: distinct per chunk, never 0.
fn chunk_value(j: usize, c: u32) -> u32 {
    (j as u32 + 1) * 16 + c
}

/// One store of a publication.
#[derive(Debug, Clone, Copy)]
enum ReadyStep {
    WriteChunk(u32),
    PublishChunk(u32),
    WriteId,
    PublishId,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RaceReadyState {
    mem: Mem,
    /// Producer: publication `p_j`, step `p_pc` of its stores.
    p_j: usize,
    p_pc: u8,
    /// Consumer: consumption `c_j`; 0 = id gate, 1 = id read, then per
    /// chunk `c` 2 + 2c = frame gate, 3 + 2c = frame read.
    c_j: usize,
    c_pc: u8,
    /// The guest id read at step 1, held for the chunk steps.
    c_guest: u32,
    /// Frame slots popped so far per guest.
    heads: [u32; READY_GUESTS],
    /// Each guest's head frame-`SEQ` word as read *before* the id gate
    /// (load-load hoisting, only offered when the gate is weaker than
    /// `Acquire`).
    hoisted: Option<[u32; READY_GUESTS]>,
    error: Option<String>,
}

struct RaceReadyModel {
    orders: RingOrders,
    /// Where in a publication the producer pushes the guest's id: after
    /// its last chunk as shipped, ahead of its first under
    /// [`Mutant::ReadyPublishBeforeFrame`], right after its first under
    /// [`Mutant::ReadyPublishBeforeLastChunk`].
    id_after_chunks: Option<u32>,
}

impl RaceReadyModel {
    fn new(mutant: Option<Mutant>) -> RaceReadyModel {
        RaceReadyModel {
            orders: RingOrders::shipped(mutant),
            id_after_chunks: match mutant {
                Some(Mutant::ReadyPublishBeforeFrame) => Some(0),
                Some(Mutant::ReadyPublishBeforeLastChunk) => Some(1),
                _ => None,
            },
        }
    }

    /// Publication `j`'s stores in program order: each chunk's payload
    /// then its `SEQ` (`FrameRing::push`), and the id's payload then its
    /// `SEQ` (`IdRing::push`) where the configuration puts it.
    fn steps(&self, j: usize) -> Vec<ReadyStep> {
        let chunks = READY_SCRIPT[j].1;
        let id_at = self.id_after_chunks.map_or(chunks, |at| at.min(chunks));
        let mut steps = Vec::new();
        for c in 0..=chunks {
            if c == id_at {
                steps.extend([ReadyStep::WriteId, ReadyStep::PublishId]);
            }
            if c < chunks {
                steps.extend([ReadyStep::WriteChunk(c), ReadyStep::PublishChunk(c)]);
            }
        }
        steps
    }

    fn program_successors(&self, s: &RaceReadyState) -> Vec<(String, RaceReadyState)> {
        let mut out = Vec::new();
        // Producer (thread 0): the engine's submit — FrameRing::push of
        // each chunk of the frame (payload, then SEQ), then IdRing::push
        // of the guest's id (payload, then SEQ). The mutants move the id.
        if s.p_j < READY_SCRIPT.len() {
            let guest = READY_SCRIPT[s.p_j].0;
            let first = first_slot(s.p_j);
            let steps = self.steps(s.p_j);
            let mut n = s.clone();
            let label = match steps[s.p_pc as usize] {
                ReadyStep::WriteChunk(c) => {
                    let at = frame_data_loc(guest, first + c);
                    n.mem
                        .store(0, at, chunk_value(s.p_j, c), self.orders.payload_write);
                    "P:write-frame"
                }
                ReadyStep::PublishChunk(c) => {
                    let k = first + c;
                    n.mem
                        .store(0, frame_seq_loc(guest, k), k + 1, self.orders.publish);
                    "P:publish-frame"
                }
                ReadyStep::WriteId => {
                    n.mem
                        .store(0, id_data_loc(s.p_j), guest + 1, self.orders.payload_write);
                    "P:write-id"
                }
                ReadyStep::PublishId => {
                    n.mem
                        .store(0, id_seq_loc(s.p_j), s.p_j as u32 + 1, self.orders.publish);
                    "P:publish-id"
                }
            };
            n.p_pc += 1;
            if usize::from(n.p_pc) == steps.len() {
                n.p_pc = 0;
                n.p_j += 1;
            }
            out.push((label.into(), n));
        }
        // Consumer (thread 1): the backend loop — IdRing::try_pop (gate on
        // SEQ, read the id), then one FrameRing::try_pop per chunk on that
        // guest's ring (gate on SEQ, read the chunk).
        if s.c_j < READY_SCRIPT.len() {
            let mut n = s.clone();
            match s.c_pc {
                0 => {
                    if !self.orders.consume.at_least_acquire() && s.hoisted.is_none() {
                        let mut h = s.clone();
                        h.hoisted = Some(std::array::from_fn(|g| {
                            s.mem.load(1, frame_seq_loc(g as u32, s.heads[g]))
                        }));
                        out.push(("C:hoist".into(), h));
                    }
                    if s.mem.load(1, id_seq_loc(s.c_j)) == s.c_j as u32 + 1 {
                        n.c_pc = 1;
                        out.push(("C:gate-id".into(), n));
                    } // else: nothing announced yet — the consumer waits
                }
                1 => {
                    let id = s.mem.load(1, id_data_loc(s.c_j));
                    if id == READY_SCRIPT[s.c_j].0 + 1 {
                        n.c_guest = id - 1;
                        n.c_pc = 2;
                    } else {
                        n.error = Some(format!(
                            "ready id {} consumed out of order or torn: read {id}, \
                             publication {} named guest {}",
                            s.c_j, s.c_j, READY_SCRIPT[s.c_j].0,
                        ));
                    }
                    out.push(("C:read-id".into(), n));
                }
                pc if pc % 2 == 0 => {
                    let guest = s.c_guest;
                    let head = s.heads[guest as usize];
                    // Only the first chunk's gate can have been hoisted
                    // above the id gate.
                    let seq = match n.hoisted.take() {
                        Some(stale) if pc == 2 => stale[guest as usize],
                        _ => s.mem.load(1, frame_seq_loc(guest, head)),
                    };
                    if seq == head + 1 {
                        n.c_pc = pc + 1;
                    } else if pc == 2 {
                        n.error = Some(format!(
                            "pick of an empty ring: ready id {} named guest {guest} but its \
                             frame {head} is not published (the engine drops the claim and \
                             the op is never served)",
                            s.c_j,
                        ));
                    } else {
                        n.error = Some(format!(
                            "missing chunk: ready id {} named guest {guest} but its frame's \
                             chunk {} (slot {head}) is not published (the engine answers \
                             EINVAL and the op is never served)",
                            s.c_j,
                            (pc - 2) / 2,
                        ));
                    }
                    out.push(("C:gate-frame".into(), n));
                }
                pc => {
                    let guest = s.c_guest;
                    let head = s.heads[guest as usize];
                    let c = u32::from(pc - 3) / 2;
                    let value = s.mem.load(1, frame_data_loc(guest, head));
                    let expected = chunk_value(s.c_j, c);
                    if value == expected {
                        n.heads[guest as usize] += 1;
                        if c + 1 == READY_SCRIPT[s.c_j].1 {
                            n.c_pc = 0;
                            n.c_j += 1;
                        } else {
                            n.c_pc = pc + 1;
                        }
                    } else {
                        n.error = Some(format!(
                            "torn frame read: consumption {} of guest {guest} observed \
                             payload {value} in chunk {c}, expected {expected}",
                            s.c_j,
                        ));
                    }
                    out.push(("C:read-frame".into(), n));
                }
            }
        }
        out
    }
}

impl TransitionSystem for RaceReadyModel {
    type State = RaceReadyState;

    fn initial(&self) -> Vec<RaceReadyState> {
        let mut shared = vec![0; id_data_loc(READY_SCRIPT.len())];
        for guest in 0..READY_GUESTS as u32 {
            for k in 0..READY_FRAME_SLOTS as u32 {
                shared[frame_seq_loc(guest, k)] = k;
            }
        }
        for j in 0..READY_SCRIPT.len() {
            shared[id_seq_loc(j)] = j as u32;
        }
        vec![RaceReadyState {
            mem: Mem::new(shared),
            p_j: 0,
            p_pc: 0,
            c_j: 0,
            c_pc: 0,
            c_guest: 0,
            heads: [0; READY_GUESTS],
            hoisted: None,
            error: None,
        }]
    }

    fn successors(&self, state: &RaceReadyState) -> Vec<(String, RaceReadyState)> {
        if state.error.is_some() {
            return Vec::new();
        }
        let mut out = self.program_successors(state);
        out.extend(drain_successors(&state.mem, |mem| {
            let mut next = state.clone();
            next.mem = mem;
            next
        }));
        let done = state.p_j == READY_SCRIPT.len() && state.c_j == READY_SCRIPT.len();
        if out.is_empty() && !(done && state.mem.drained()) {
            let mut next = state.clone();
            next.error = Some(format!(
                "ready guest never picked: consumer waits on ready id {} with {} published \
                 and nothing enabled",
                state.c_j, state.p_j,
            ));
            out.push(("stuck".into(), next));
        }
        out
    }

    fn invariant(&self, state: &RaceReadyState) -> Result<(), String> {
        match &state.error {
            Some(error) => Err(error.clone()),
            None => Ok(()),
        }
    }
}

/// `race-ready`: the ready-ring composition under every schedule and
/// drain timing — three publications (guest 0, guest 1 with a frame of
/// two chunks, guest 0 again), each its frame's chunk pushes followed by
/// one id push, racing a consumer that pops an id and then each chunk of
/// that guest's frame. Proved iff every consumed id finds every chunk of
/// its frame and every published id is consumed exactly once, in order.
pub fn check_ready(mutant: Option<Mutant>) -> PropertyReport {
    const DESC: &str = "ready ring under every 2-thread schedule and store-buffer drain timing: \
         frame chunk pushes → id publish vs id consume → chunk pops, 2 guests, repeated \
         publication to one, a two-chunk frame — no pick of an empty ring or a missing \
         chunk, every published id consumed once in order (orderings read from the \
         shipped aring site table)";
    let model = RaceReadyModel::new(mutant);
    check_system("race-ready", DESC, "hypervisor::aring", &model, mutant)
}

/// Replays a race fixture: re-runs the recorded trace through the model
/// configured by `mutant`.
///
/// # Errors
///
/// `Err(reason)` when the recorded violation reproduces (expected when
/// `mutant` matches the fixture's `mutant=` line).
pub fn replay(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    match fixture.property.as_str() {
        "race-ring" => replay_system(&RaceRingModel::new(RingOrders::shipped(mutant)), &fixture.trace),
        "race-doorbell" => replay_system(
            &RaceDoorbellModel::new(DoorbellOrders::shipped(), mutant),
            &fixture.trace,
        ),
        "race-shards" => replay_system(
            &RaceShardModel::new(ShardConfig::shipped(mutant)),
            &fixture.trace,
        ),
        "race-ready" => replay_system(&RaceReadyModel::new(mutant), &fixture.trace),
        other => Err(format!("unknown race property {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_race_properties_prove_on_the_shipped_orderings() {
        let reports = [check_ring(None), check_doorbell(None), check_shards(None), check_ready(None)];
        for report in reports {
            assert!(
                report.proved,
                "{} disproved on shipped orderings: {:?}",
                report.name, report.findings,
            );
            assert!(report.states > 50, "{} explored too little", report.name);
        }
    }

    #[test]
    fn each_ordering_mutant_is_disproved_with_a_replayable_fixture() {
        type Check = fn(Option<Mutant>) -> PropertyReport;
        let cases: [(Mutant, Check); 9] = [
            (Mutant::AringPublishRelaxed, check_ring),
            (Mutant::AringConsumeNoAcquire, check_ring),
            (Mutant::DoorbellCheckBeforePublish, check_doorbell),
            (Mutant::DoorbellCoalesceOnStaleEmpty, check_doorbell),
            (Mutant::ShardRetireUnfenced, check_shards),
            (Mutant::ReadyPublishBeforeFrame, check_ready),
            (Mutant::ReadyPublishBeforeLastChunk, check_ready),
            // The composition leans on the same two orderings as the ring.
            (Mutant::AringPublishRelaxed, check_ready),
            (Mutant::AringConsumeNoAcquire, check_ready),
        ];
        for (mutant, check) in cases {
            let report = check(Some(mutant));
            assert!(!report.proved, "{} survived {:?}", mutant.name(), report.name);
            let fixture = report.counterexample.expect("fixture emitted");
            assert!(
                replay(&fixture, None).is_ok(),
                "{}: trace must be harmless on the shipped orderings",
                mutant.name(),
            );
            assert!(
                replay(&fixture, Some(mutant)).is_err(),
                "{}: trace must reproduce under the mutant",
                mutant.name(),
            );
        }
    }

    #[test]
    fn relaxed_publish_counterexample_is_the_canonical_reorder() {
        // BFS yields a shortest trace: the seq store drains past the
        // payload store and the consumer reads the torn slot.
        let report = check_ring(Some(Mutant::AringPublishRelaxed));
        let fixture = report.counterexample.expect("fixture");
        assert!(fixture.trace.len() <= 6, "{:?}", fixture.trace);
        assert!(fixture.trace.iter().any(|l| l == "C:read-data"));
    }

    /// The latent bug this PR fixed: under the pre-upgrade Release/Acquire
    /// doorbell the store-buffer model finds the classic Dekker lost
    /// wakeup — the producer's rung store sits buffered past its parked
    /// check while the consumer's parked announcement does the symmetric
    /// thing. The shipped table is SeqCst exactly because of this trace.
    #[test]
    fn release_acquire_doorbell_loses_a_wakeup() {
        let mut orders = DoorbellOrders::shipped();
        orders.ring = MemOrder::Release;
        orders.check = MemOrder::Acquire;
        orders.park = MemOrder::Release;
        orders.clear = MemOrder::Release;
        let model = RaceDoorbellModel::new(orders, None);
        let run = explore(
            &model,
            Bounds {
                max_states: 2_000_000,
                max_depth: 96,
            },
        );
        let violation = run.violation.expect("R/A doorbell must lose a wakeup");
        assert!(violation.reason.contains("lost wakeup"), "{}", violation.reason);
    }

    /// Shutdown while parked: the consumer is asleep on an empty ring when
    /// the stop request is rung, and the loop it wakes into ends.
    #[test]
    fn a_stop_while_parked_ends_the_backend_loop() {
        let model = RaceDoorbellModel::new(DoorbellOrders::shipped(), None);
        let mut state = model.initial().remove(0);
        for label in [
            "C:serve-none",
            "C:check-stop",
            "C:drain",
            "C:ready",
            "C:announce-park",
            "C:recheck",
            "C:ready-recheck",
            "C:park",
            "P:stop",
            "P:ring",
            "P:check-parked",
            "P:unpark",
            "C:wake",
            "C:recheck",
            "C:clear-park",
            "C:serve-none",
            "C:check-stop",
        ] {
            state = model
                .successors(&state)
                .into_iter()
                .find(|(l, _)| l == label)
                .unwrap_or_else(|| panic!("{label} not enabled in {state:?}"))
                .1;
        }
        assert_eq!((state.p_pc, state.c_pc), (P_DONE, C_EXITED));
        assert!(model.successors(&state).is_empty(), "a clean end, not a lost wakeup");
    }

    #[test]
    fn interpreter_models_store_buffer_reordering() {
        // A relaxed store may bypass an older buffered store to another
        // location; a release store may not.
        let mut mem = Mem::new(vec![0, 0]);
        mem.store(0, 0, 7, MemOrder::Release);
        mem.store(0, 1, 9, MemOrder::Relaxed);
        assert_eq!(mem.drain_candidates(0), vec![0, 1]);
        let mut mem = Mem::new(vec![0, 0]);
        mem.store(0, 0, 7, MemOrder::Relaxed);
        mem.store(0, 1, 9, MemOrder::Release);
        assert_eq!(mem.drain_candidates(0), vec![0]);
        // Same-location entries never reorder (coherence).
        let mut mem = Mem::new(vec![0]);
        mem.store(0, 0, 1, MemOrder::Relaxed);
        mem.store(0, 0, 2, MemOrder::Relaxed);
        assert_eq!(mem.drain_candidates(0), vec![0]);
        // Forwarding: the thread sees its own newest store; others do not.
        assert_eq!(mem.load(0, 0), 2);
        assert_eq!(mem.load(1, 0), 0);
        // SeqCst writes through and flushes.
        mem.store(0, 0, 3, MemOrder::SeqCst);
        assert!(mem.drained());
        assert_eq!(mem.shared[0], 3);
    }

    #[test]
    fn crosscheck_covers_the_real_ring() {
        let ops = crosscheck_real_ring().expect("real rings agree with the model");
        assert_eq!(ops, 2 * 256 * 8, "frame geometry and id geometry");
    }
}
