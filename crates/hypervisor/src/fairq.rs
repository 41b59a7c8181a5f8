//! The device-class-agnostic fair-share queue discipline.
//!
//! ISSUE 10 promoted fair-share device scheduling from a GPU ablation knob
//! to the *default* discipline everywhere queued work from several guests
//! is ordered: the GPU model's engine scheduler (`paradice_drivers`'
//! `RadeonGpu`, whose `GpuSched` is an alias of [`SchedPolicy`]), the
//! virtual-time CVD backend's cross-guest drain, and both multi-guest
//! execution substrates (`paradice_cvd::multi`). This module is the one
//! kernel of that discipline, independent of device class, substrate, and
//! clock — it lives in the hypervisor crate because that is the lowest one
//! all of its callers share. It only ever sees guest ids, arrival order,
//! and consumed service time.
//!
//! # Invariants
//!
//! * **Fairness.** Under [`SchedPolicy::FairShare`] the next guest served
//!   is a backlogged guest with the *least consumed service time* (ties
//!   broken by arrival order, so the discipline degrades to FIFO between
//!   equally-consuming guests). A light guest therefore waits for at most
//!   one in-service operation plus its own, no matter how deep a heavy
//!   neighbor's backlog is — the 100.6 ms → 10.6 ms light-guest result of
//!   the GPU ablation, generalized.
//! * **No starvation.** Every queued operation is eventually served: a
//!   backlogged guest's consumed time is frozen while it waits, while
//!   every service charges the served guest, so any guest that keeps
//!   getting picked eventually consumes past the waiter. FIFO order is
//!   preserved *within* each guest — the scheduler picks guests, never
//!   reorders one guest's queue.
//! * **Bounded memory, and no cost for guests that merely exist.**
//!   Consumed-time accounting lives here as one `u64` per guest id up to
//!   the largest ever charged — ids are dense indexes (VM ids, engine
//!   guest numbers), never hashes or sentinels. The ready heap holds one
//!   entry per *backlogged* guest, so a pick is O(log ready) and an idle
//!   guest costs nothing. Queue *contents* stay with the caller, whose
//!   per-guest wait-queue caps (backpressure in the substrates, `EDQUOT`
//!   in the backend) bound them.
//!
//! # Two ways to ask
//!
//! A caller that keeps its backlog between picks tells the scheduler
//! about it incrementally: [`FairSched::enqueue`] when a guest becomes
//! backlogged, [`FairSched::pick_ready`] to take the next guest, then
//! [`FairSched::charge`] and — if the guest still has queued work —
//! `enqueue` again with its new head's stamp. A caller that rebuilds its
//! backlog per call presents it whole to the stateless
//! [`FairSched::pick`]. Both apply the same order, `(consumed, arrival)`
//! under fair share and `arrival` under FIFO, so with distinct arrival
//! stamps they serve the same guest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which discipline [`FairSched::pick`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Global arrival order across all guests (the pre-ISSUE-10 default;
    /// kept as the ablation's toggle-back knob).
    Fifo,
    /// Least consumed service time first, arrival order as tie-break
    /// (the default).
    #[default]
    FairShare,
}

impl SchedPolicy {
    /// Human-readable name (bench labels).
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::FairShare => "fair-share",
        }
    }
}

/// Per-guest service-time accounting plus the pick rule. Device- and
/// substrate-agnostic: callers present the backlogged guests with the
/// arrival stamp of each guest's *oldest* queued item, and charge actual
/// service time (virtual or wall ns) after serving.
#[derive(Debug, Default)]
pub struct FairSched {
    policy: SchedPolicy,
    /// Service time charged so far, indexed by guest id.
    consumed: Vec<u64>,
    /// Min-heap of backlogged guests as `(rank, arrival, guest)`; `rank`
    /// is the guest's consumed time under fair share, zero under FIFO.
    ready: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl FairSched {
    /// A scheduler applying `policy`.
    pub fn new(policy: SchedPolicy) -> FairSched {
        FairSched {
            policy,
            ..FairSched::default()
        }
    }

    /// What orders `guest` ahead of arrival order under the policy.
    fn rank(&self, guest: u32) -> u64 {
        match self.policy {
            SchedPolicy::Fifo => 0,
            SchedPolicy::FairShare => self.consumed(guest),
        }
    }

    /// Picks the next guest to serve from `backlogged`, an iterator of
    /// `(guest, oldest_arrival)` pairs — one entry per guest with queued
    /// work, stamped with the arrival sequence of that guest's oldest
    /// item. Returns `None` when nothing is backlogged.
    pub fn pick(&self, backlogged: impl Iterator<Item = (u32, u64)>) -> Option<u32> {
        backlogged
            .min_by_key(|&(guest, arrival)| (self.rank(guest), arrival))
            .map(|(guest, _)| guest)
    }

    /// Marks `guest` backlogged, its oldest queued item stamped `arrival`.
    /// One entry per guest: call it when the guest's queue goes
    /// empty→non-empty, and again after [`pick_ready`](Self::pick_ready)
    /// returned the guest and it was charged, if it still has work. (A
    /// guest's consumed time only moves when it is served, so its entry
    /// never goes stale while it waits.)
    pub fn enqueue(&mut self, guest: u32, arrival: u64) {
        self.ready.push(Reverse((self.rank(guest), arrival, guest)));
    }

    /// Takes the backlogged guest [`pick`](Self::pick) would choose among
    /// those enqueued, or `None` when none is.
    pub fn pick_ready(&mut self) -> Option<u32> {
        self.ready.pop().map(|Reverse((_, _, guest))| guest)
    }

    /// Charges `ns` of service time to `guest` after serving one of its
    /// operations.
    pub fn charge(&mut self, guest: u32, ns: u64) {
        let index = guest as usize;
        if index >= self.consumed.len() {
            self.consumed.resize(index + 1, 0);
        }
        self.consumed[index] += ns;
    }

    /// Total service time charged to `guest`.
    pub fn consumed(&self, guest: u32) -> u64 {
        self.consumed.get(guest as usize).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, VecDeque};

    #[test]
    fn fifo_picks_global_arrival_order() {
        let sched = FairSched::new(SchedPolicy::Fifo);
        let picked = sched.pick([(7, 3), (2, 1), (5, 2)].into_iter());
        assert_eq!(picked, Some(2));
    }

    #[test]
    fn fair_share_picks_least_consumed() {
        let mut sched = FairSched::new(SchedPolicy::FairShare);
        sched.charge(1, 1_000_000);
        sched.charge(2, 10);
        // Guest 3 never served: least consumed wins even though it
        // arrived last.
        let picked = sched.pick([(1, 1), (2, 2), (3, 3)].into_iter());
        assert_eq!(picked, Some(3));
    }

    #[test]
    fn fair_share_ties_break_by_arrival() {
        let sched = FairSched::new(SchedPolicy::FairShare);
        let picked = sched.pick([(9, 5), (4, 2)].into_iter());
        assert_eq!(picked, Some(4), "equal consumption degrades to FIFO");
    }

    /// The no-starvation argument, executed: a heavy guest with an
    /// always-full queue cannot shut out a light one, and vice versa —
    /// every queued item is served within a bounded number of picks.
    #[test]
    fn no_starvation_under_permanent_flood() {
        let mut sched = FairSched::new(SchedPolicy::FairShare);
        let mut served = BTreeMap::new();
        let mut arrival = 0u64;
        for _ in 0..1_000 {
            // Both guests always backlogged; the heavy guest's ops cost
            // 100x the light guest's.
            let picked = sched
                .pick([(1, arrival), (2, arrival + 1)].into_iter())
                .expect("backlogged");
            arrival += 2;
            let cost = if picked == 1 { 10_000 } else { 100 };
            sched.charge(picked, cost);
            *served.entry(picked).or_insert(0u64) += 1;
        }
        let heavy = served.get(&1).copied().unwrap_or(0);
        let light = served.get(&2).copied().unwrap_or(0);
        assert!(heavy > 0, "heavy guest starved");
        assert!(light > 0, "light guest starved");
        // Service time equalizes: the light guest gets ~100x the picks.
        assert!(light > heavy * 50, "light={light} heavy={heavy}");
        let diff = sched.consumed(1).abs_diff(sched.consumed(2));
        assert!(diff <= 10_000, "consumed time diverged by {diff}");
    }

    /// The two ways to ask agree: over 10 000 seeded random submit/serve
    /// steps under each policy, `enqueue`/`pick_ready`/`charge` serves
    /// exactly the guest the stateless `pick` chooses from the same
    /// backlog. Costs are drawn from a small set so consumed-time ties —
    /// the tie-break on arrival — are common.
    #[test]
    fn ready_heap_serves_the_same_sequence_as_the_stateless_pick() {
        const GUESTS: usize = 12;
        for policy in [SchedPolicy::Fifo, SchedPolicy::FairShare] {
            let mut sched = FairSched::new(policy);
            let mut queues: Vec<VecDeque<u64>> = vec![VecDeque::new(); GUESTS];
            let mut arrivals = 0u64;
            let mut served = 0usize;
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                // xorshift64*: seeded, so the run repeats exactly.
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33
            };
            for _ in 0..10_000 {
                if next() % 3 != 0 {
                    let guest = next() as usize % GUESTS;
                    if queues[guest].is_empty() {
                        sched.enqueue(guest as u32, arrivals);
                    }
                    queues[guest].push_back(arrivals);
                    arrivals += 1;
                    continue;
                }
                let backlog = queues
                    .iter()
                    .enumerate()
                    .filter_map(|(g, q)| q.front().map(|&stamp| (g as u32, stamp)));
                let expected = sched.pick(backlog);
                let picked = sched.pick_ready();
                assert_eq!(picked, expected, "{policy:?}: heap and scan disagree");
                let Some(guest) = picked else { continue };
                queues[guest as usize].pop_front().expect("picked guest is backlogged");
                sched.charge(guest, [0, 100, 100, 2_500][next() as usize % 4]);
                if let Some(&head) = queues[guest as usize].front() {
                    sched.enqueue(guest, head);
                }
                served += 1;
            }
            assert!(served > 2_000, "{policy:?}: only {served} picks compared");
        }
    }
}
