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
//! * **Bounded memory.** Consumed-time accounting lives here, one `u64`
//!   per guest that ever queued; queue *contents* stay with the caller,
//!   whose per-guest wait-queue caps (backpressure in the substrates,
//!   `EDQUOT` in the backend) bound them.

use std::collections::BTreeMap;

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
    consumed: BTreeMap<u32, u64>,
}

impl FairSched {
    /// A scheduler applying `policy`.
    pub fn new(policy: SchedPolicy) -> FairSched {
        FairSched {
            policy,
            consumed: BTreeMap::new(),
        }
    }

    /// Picks the next guest to serve from `backlogged`, an iterator of
    /// `(guest, oldest_arrival)` pairs — one entry per guest with queued
    /// work, stamped with the arrival sequence of that guest's oldest
    /// item. Returns `None` when nothing is backlogged.
    pub fn pick(&self, backlogged: impl Iterator<Item = (u32, u64)>) -> Option<u32> {
        match self.policy {
            SchedPolicy::Fifo => backlogged.min_by_key(|&(_, arrival)| arrival),
            SchedPolicy::FairShare => {
                backlogged.min_by_key(|&(guest, arrival)| (self.consumed(guest), arrival))
            }
        }
        .map(|(guest, _)| guest)
    }

    /// Charges `ns` of service time to `guest` after serving one of its
    /// operations.
    pub fn charge(&mut self, guest: u32, ns: u64) {
        *self.consumed.entry(guest).or_insert(0) += ns;
    }

    /// Total service time charged to `guest`.
    pub fn consumed(&self, guest: u32) -> u64 {
        self.consumed.get(&guest).copied().unwrap_or(0)
    }

    /// Forgets a departed guest's accounting.
    pub fn forget(&mut self, guest: u32) {
        self.consumed.remove(&guest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
