//! Deterministic fault injection for the driver VM (paper §7.1, Table 3).
//!
//! The paper's fault-isolation evaluation is an *experiment*: "we injected
//! faults into the device drivers running inside the driver VM" and showed
//! that the driver VM crashes while the guests keep running, after which the
//! driver VM is rebooted and service resumes. This crate supplies the
//! injection machinery for our reproduction.
//!
//! A [`FaultPlan`] is armed with `(kind, trigger)` pairs and consulted by the
//! CVD backend at its dispatch boundary and by the channel layer at delivery
//! time. Everything is driven by the **virtual clock** and a seeded
//! [`SplitMix64`] stream — no wall clock, no global RNG — so a campaign with
//! a fixed seed replays bit-identically.
//!
//! Fault kinds mirror the paper's fault model (driver bugs and a *compromised
//! driver VM*):
//!
//! * [`FaultKind::DriverPanic`] — the driver VM dies mid-dispatch; no
//!   response is ever posted and the VM must be declared failed.
//! * [`FaultKind::DriverOops`] — a recoverable kernel oops: the single
//!   operation fails with `EIO` but the driver VM survives.
//! * [`FaultKind::Hang`] — the dispatch never completes; detection must come
//!   from *outside* the untrusted driver (the frontend watchdog).
//! * [`FaultKind::WildMemOp`] — the compromised driver issues an ungranted
//!   memory hypercall (the §4.1 attack the grant tables exist to stop).
//! * [`FaultKind::MalformedResponse`] / [`FaultKind::TruncatedResponse`] —
//!   the response bytes in the shared page are scrambled / cut short.
//! * [`FaultKind::DropDelivery`] / [`FaultKind::DelayDelivery`] — the
//!   response delivery (interrupt or poll visibility) is lost or late.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

/// A tiny deterministic PRNG (the splitmix64 finalizer), used to derive
/// per-campaign fault plans from a user seed. Deliberately hand-rolled: the
/// simulation must not depend on platform RNGs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[0, bound)`. `bound` must be nonzero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be nonzero");
        // Modulo bias is irrelevant for campaign scheduling purposes.
        self.next_u64() % bound
    }
}

/// What goes wrong when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The driver VM kernel panics mid-dispatch: the request is consumed,
    /// no response is posted, and the VM is dead until rebooted.
    DriverPanic,
    /// A contained kernel oops: the current operation fails with `EIO` but
    /// the driver VM keeps servicing later requests.
    DriverOops,
    /// The dispatch never completes (infinite loop / lost interrupt). The
    /// driver posts nothing; only an external watchdog can notice.
    Hang,
    /// The compromised driver issues a memory hypercall with no covering
    /// grant — the attack the hypervisor's runtime checks must block.
    WildMemOp,
    /// The response bytes on the shared page are scrambled into garbage.
    MalformedResponse,
    /// The response bytes are cut short (a partial shared-page write).
    TruncatedResponse,
    /// The response delivery is dropped: bytes never become visible to the
    /// frontend, as if the completion interrupt was lost.
    DropDelivery,
    /// The response delivery is late by the plan's configured delay.
    DelayDelivery,
}

impl FaultKind {
    /// Every fault kind, in a stable order (campaign matrices index this).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::DriverPanic,
        FaultKind::DriverOops,
        FaultKind::Hang,
        FaultKind::WildMemOp,
        FaultKind::MalformedResponse,
        FaultKind::TruncatedResponse,
        FaultKind::DropDelivery,
        FaultKind::DelayDelivery,
    ];

    /// Stable lowercase name (trace events, campaign reports).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::DriverPanic => "driver-panic",
            FaultKind::DriverOops => "driver-oops",
            FaultKind::Hang => "hang",
            FaultKind::WildMemOp => "wild-mem-op",
            FaultKind::MalformedResponse => "malformed-response",
            FaultKind::TruncatedResponse => "truncated-response",
            FaultKind::DropDelivery => "drop-delivery",
            FaultKind::DelayDelivery => "delay-delivery",
        }
    }

    /// `true` for faults after which the driver VM cannot continue and must
    /// be rebooted ([`FaultKind::DriverPanic`], [`FaultKind::Hang`],
    /// [`FaultKind::WildMemOp`]). The wire-level faults corrupt one response
    /// but leave the driver itself running.
    pub fn kills_driver_vm(self) -> bool {
        matches!(
            self,
            FaultKind::DriverPanic | FaultKind::Hang | FaultKind::WildMemOp
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When an armed fault fires. All triggers are deterministic functions of
/// the dispatch stream and the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Trigger {
    /// Fire at the first dispatch at or after virtual time `ns`.
    AtTime {
        /// Virtual-clock threshold, nanoseconds.
        ns: u64,
    },
    /// Fire on the `nth` dispatch (0-based) of the named operation
    /// (`"open"`, `"read"`, `"ioctl"`, …).
    OnOp {
        /// Operation name as reported by the backend dispatcher.
        op: String,
        /// 0-based occurrence index.
        nth: u64,
    },
    /// Fire on the `n`th dispatch overall (0-based), regardless of op.
    OnNthDispatch {
        /// 0-based global dispatch index.
        n: u64,
    },
}

#[derive(Debug, Clone)]
struct ArmedFault {
    kind: FaultKind,
    trigger: Trigger,
    fired: bool,
}

/// One fired fault, for reports and assertions: virtual time, kind, and the
/// operation being dispatched when it fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredFault {
    /// Virtual time at the dispatch that tripped the fault.
    pub t_ns: u64,
    /// What fired.
    pub kind: FaultKind,
    /// The operation being dispatched.
    pub op: String,
}

/// A deterministic injection schedule consulted at the backend-dispatch
/// boundary. Each armed fault fires at most once; at most one fault fires
/// per dispatch (the first armed entry whose trigger matches, in arming
/// order).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Vec<ArmedFault>,
    dispatches: u64,
    op_counts: BTreeMap<String, u64>,
    fired: Vec<FiredFault>,
}

/// Extra latency of a [`FaultKind::DelayDelivery`] fault: 100 ms of
/// virtual time, far beyond any per-op deadline.
pub const DEFAULT_DELAY_NS: u64 = 100_000_000;

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arms one fault. Order matters: the first matching armed fault wins
    /// when several could fire on the same dispatch.
    pub fn arm(&mut self, kind: FaultKind, trigger: Trigger) {
        self.armed.push(ArmedFault {
            kind,
            trigger,
            fired: false,
        });
    }

    /// Consulted by the backend once per dispatch, *before* executing the
    /// operation. Updates the deterministic dispatch counters and returns
    /// the fault to inject, if any armed trigger matches.
    pub fn on_dispatch(&mut self, op: &str, now_ns: u64) -> Option<FaultKind> {
        let nth_overall = self.dispatches;
        self.dispatches += 1;
        let nth_of_op = {
            let count = self.op_counts.entry(op.to_owned()).or_insert(0);
            let nth = *count;
            *count += 1;
            nth
        };
        let hit = self.armed.iter_mut().find(|armed| {
            !armed.fired
                && match &armed.trigger {
                    Trigger::AtTime { ns } => now_ns >= *ns,
                    Trigger::OnOp { op: want, nth } => want == op && nth_of_op == *nth,
                    Trigger::OnNthDispatch { n } => nth_overall == *n,
                }
        })?;
        hit.fired = true;
        let kind = hit.kind;
        self.fired.push(FiredFault {
            t_ns: now_ns,
            kind,
            op: op.to_owned(),
        });
        Some(kind)
    }

    /// Every fault that has fired, in firing order.
    pub fn fired(&self) -> &[FiredFault] {
        &self.fired
    }

    /// Number of armed faults that have not fired yet.
    pub fn pending(&self) -> usize {
        self.armed.iter().filter(|a| !a.fired).count()
    }

    /// Total dispatches observed.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.gen_range(13) < 13);
        }
    }

    #[test]
    fn on_op_trigger_counts_occurrences() {
        let mut plan = FaultPlan::new();
        plan.arm(
            FaultKind::DriverPanic,
            Trigger::OnOp {
                op: "read".to_owned(),
                nth: 1,
            },
        );
        assert_eq!(plan.on_dispatch("read", 10), None); // 0th read
        assert_eq!(plan.on_dispatch("write", 20), None);
        assert_eq!(plan.on_dispatch("read", 30), Some(FaultKind::DriverPanic));
        // Single-shot: never fires again.
        assert_eq!(plan.on_dispatch("read", 40), None);
        assert_eq!(plan.fired().len(), 1);
        assert_eq!(plan.fired()[0].t_ns, 30);
        assert_eq!(plan.fired()[0].op, "read");
    }

    #[test]
    fn at_time_trigger_fires_on_first_dispatch_past_threshold() {
        let mut plan = FaultPlan::new();
        plan.arm(FaultKind::Hang, Trigger::AtTime { ns: 100 });
        assert_eq!(plan.on_dispatch("ioctl", 99), None);
        assert_eq!(plan.on_dispatch("ioctl", 100), Some(FaultKind::Hang));
        assert_eq!(plan.on_dispatch("ioctl", 500), None);
    }

    #[test]
    fn nth_dispatch_trigger_is_global() {
        let mut plan = FaultPlan::new();
        plan.arm(FaultKind::DriverOops, Trigger::OnNthDispatch { n: 2 });
        assert_eq!(plan.on_dispatch("open", 0), None);
        assert_eq!(plan.on_dispatch("read", 0), None);
        assert_eq!(plan.on_dispatch("poll", 0), Some(FaultKind::DriverOops));
        assert_eq!(plan.dispatches(), 3);
    }

    #[test]
    fn one_fault_per_dispatch_in_arming_order() {
        let mut plan = FaultPlan::new();
        plan.arm(FaultKind::DriverOops, Trigger::OnNthDispatch { n: 0 });
        plan.arm(FaultKind::DriverPanic, Trigger::OnNthDispatch { n: 0 });
        assert_eq!(plan.on_dispatch("read", 0), Some(FaultKind::DriverOops));
        // The second armed fault's trigger (dispatch 0) can no longer match.
        assert_eq!(plan.on_dispatch("read", 0), None);
        assert_eq!(plan.pending(), 1);
    }

    #[test]
    fn kills_driver_vm_classification() {
        assert!(FaultKind::DriverPanic.kills_driver_vm());
        assert!(FaultKind::Hang.kills_driver_vm());
        assert!(FaultKind::WildMemOp.kills_driver_vm());
        assert!(!FaultKind::DriverOops.kills_driver_vm());
        assert!(!FaultKind::MalformedResponse.kills_driver_vm());
        assert!(!FaultKind::DelayDelivery.kills_driver_vm());
    }

    #[test]
    fn all_names_are_distinct() {
        let mut names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FaultKind::ALL.len());
    }
}
