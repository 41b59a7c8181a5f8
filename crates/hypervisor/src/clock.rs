//! The virtual clock and the simulation cost model.
//!
//! Every timed result in the paper's evaluation (§6) is reproduced here on a
//! *virtual* nanosecond clock: simulated actions charge documented costs
//! instead of being measured on wall time, so every figure regenerates
//! bit-identically on any machine. The anchors come straight from the paper:
//!
//! * a no-op file operation forwarded with inter-VM interrupts costs ~35 µs,
//!   "most of which comes from two inter-VM interrupts" (§6.1.1) — hence
//!   [`CostModel::intervm_interrupt_ns`] = 17.5 µs each;
//! * the same no-op in polling mode costs ~2 µs (§6.1.1) — hence
//!   [`CostModel::polling_side_ns`] = 1 µs per direction;
//! * native mouse read latency is ~39 µs, device assignment ~55 µs (§6.1.5),
//!   fixing the baseline syscall and assignment-interrupt costs.

use std::cell::Cell;
use std::fmt;
use std::rc::Rc;
use std::time::Instant;

/// Converts microseconds to the clock's nanosecond unit.
pub const fn us(x: u64) -> u64 {
    x * 1_000
}

/// Converts milliseconds to the clock's nanosecond unit.
pub const fn ms(x: u64) -> u64 {
    x * 1_000_000
}

/// What every timed component asks of its time source.
///
/// Two implementations exist: [`SimClock`] (the deterministic virtual
/// clock — every cost-model charge *steers* it, making whole runs
/// bit-reproducible) and [`WallClock`] (real time over
/// [`std::time::Instant`] — charges are no-ops and `now_ns` reports what
/// the hardware actually took). The single-threaded stack runs only on
/// a [`SimClock`]; the multi-guest engine stores a [`ClockSource`].
pub trait Clock {
    /// Current time in nanoseconds (virtual or wall, by implementation).
    fn now_ns(&self) -> u64;

    /// Charges `delta_ns` of modeled cost. Steers a virtual clock; a
    /// wall clock ignores it (real time cannot be pushed forward).
    fn advance(&self, delta_ns: u64);

    /// Advances to `target_ns` if that is in the future; returns `true`
    /// if time moved. Always `false` on a wall clock.
    fn advance_to(&self, target_ns: u64) -> bool;
}

/// A shared, deterministic virtual clock (nanosecond resolution).
///
/// Cloning yields another handle to the *same* clock. The simulation is
/// single-threaded by design (determinism is what makes the experiment
/// harness reproducible), so the handle is intentionally not `Send`.
#[derive(Clone, Default)]
pub struct SimClock {
    now_ns: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns.get()
    }

    /// Advances the clock by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.now_ns.set(self.now_ns.get() + delta_ns);
    }

    /// Advances the clock to `target_ns` if that is in the future; returns
    /// `true` if time moved.
    pub fn advance_to(&self, target_ns: u64) -> bool {
        if target_ns > self.now_ns.get() {
            self.now_ns.set(target_ns);
            true
        } else {
            false
        }
    }

    /// Runs `f` and returns its result together with the virtual time it
    /// consumed.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        let start = self.now_ns();
        let result = f();
        (result, self.now_ns() - start)
    }
}

impl fmt::Debug for SimClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimClock({} ns)", self.now_ns())
    }
}

impl Clock for SimClock {
    fn now_ns(&self) -> u64 {
        SimClock::now_ns(self)
    }

    fn advance(&self, delta_ns: u64) {
        SimClock::advance(self, delta_ns);
    }

    fn advance_to(&self, target_ns: u64) -> bool {
        SimClock::advance_to(self, target_ns)
    }
}

/// Real time over [`std::time::Instant`], nanosecond resolution.
///
/// Clones share the epoch (an `Instant` is `Copy`), so every handle in a
/// machine reports the same timeline. Unlike [`SimClock`] this handle is
/// `Send + Sync`: the wall-clock engine hands clones to its frontend and
/// backend threads. Cost-model charges are no-ops — on wall time the
/// hardware charges itself.
#[derive(Clone, Copy, Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A wall clock whose zero is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }

    /// Real nanoseconds since this clock's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// No-op: wall time cannot be steered by modeled costs.
    pub fn advance(&self, _delta_ns: u64) {}

    /// No-op: always `false` — wall time cannot be pushed to a target.
    pub fn advance_to(&self, _target_ns: u64) -> bool {
        false
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        WallClock::now_ns(self)
    }

    fn advance(&self, delta_ns: u64) {
        WallClock::advance(self, delta_ns);
    }

    fn advance_to(&self, target_ns: u64) -> bool {
        WallClock::advance_to(self, target_ns)
    }
}

/// The multi-guest engine's time source: which clock a
/// `cvd::multi` engine was built on, chosen by
/// [`EngineKind::clock`](crate::EngineKind::clock). The single-threaded
/// stack (`Channel`, `Hypervisor`, `Machine`) stores a [`SimClock`].
///
/// An enum rather than a `Box<dyn Clock>` so the hot `now_ns`/`advance`
/// calls stay monomorphic (one branch, no vtable) and the handle stays
/// `Clone` without allocation.
#[derive(Clone, Debug)]
pub enum ClockSource {
    /// The deterministic virtual clock — the correctness oracle.
    Virtual(SimClock),
    /// Real time — measurement mode; modeled charges are no-ops.
    Wall(WallClock),
}

impl ClockSource {
    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        match self {
            ClockSource::Virtual(c) => c.now_ns(),
            ClockSource::Wall(c) => c.now_ns(),
        }
    }

    /// Charges `delta_ns` of modeled cost (no-op on wall time).
    pub fn advance(&self, delta_ns: u64) {
        match self {
            ClockSource::Virtual(c) => c.advance(delta_ns),
            ClockSource::Wall(c) => c.advance(delta_ns),
        }
    }

    /// Advances to `target_ns` if in the future; `false` on wall time.
    pub fn advance_to(&self, target_ns: u64) -> bool {
        match self {
            ClockSource::Virtual(c) => c.advance_to(target_ns),
            ClockSource::Wall(c) => c.advance_to(target_ns),
        }
    }
}

impl Clock for ClockSource {
    fn now_ns(&self) -> u64 {
        ClockSource::now_ns(self)
    }

    fn advance(&self, delta_ns: u64) {
        ClockSource::advance(self, delta_ns);
    }

    fn advance_to(&self, target_ns: u64) -> bool {
        ClockSource::advance_to(self, target_ns)
    }
}

/// All timing constants of the simulation, with their paper anchors.
///
/// The defaults are calibrated so that the microbenchmarks of §6.1.1/§6.1.5
/// land on the paper's measurements; see `paradice-bench`'s calibration
/// module for the derivations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// One inter-VM interrupt (virtual IPI + wakeup), ns. Two of these
    /// dominate the 35 µs no-op forward (§6.1.1).
    pub intervm_interrupt_ns: u64,
    /// One direction of shared-page polling handoff, ns. The polling no-op
    /// round trip is ~2 µs (§6.1.1).
    pub polling_side_ns: u64,
    /// Guest system-call entry/exit, ns (native baseline component).
    pub syscall_ns: u64,
    /// One hypercall into the hypervisor, ns.
    pub hypercall_ns: u64,
    /// Software two-stage address translation of one page (guest PT walk
    /// plus EPT walk), ns (§5.2).
    pub walk_page_ns: u64,
    /// Copying one full 4-KiB page between VMs, ns.
    pub copy_page_ns: u64,
    /// Fixing one page mapping during hypervisor-served `mmap` (EPT edit +
    /// guest PT leaf fix), ns.
    pub map_page_ns: u64,
    /// Installing or removing one IOMMU mapping, ns.
    pub iommu_map_ns: u64,
    /// Re-mapping one page during a protected-region switch, ns (§4.2).
    pub region_switch_page_ns: u64,
    /// Marshalling one file operation into/out of the shared page, ns.
    pub marshal_ns: u64,
    /// Device interrupt delivery to a directly-assigned VM, ns — the
    /// native-to-assignment latency delta of §6.1.5 (~55 µs − 39 µs).
    pub assigned_irq_ns: u64,
    /// CVD backend dispatch (dequeue + thread marking + handler call), ns.
    pub backend_dispatch_ns: u64,
    /// Waking a sleeping process (signal/poll-return → scheduled → in the
    /// read syscall), ns. Calibrated so the native mouse path lands on
    /// ~39 µs (§6.1.5).
    pub process_wakeup_ns: u64,
    /// Extra scheduling latency when the woken process lives in a VM —
    /// the device-assignment mouse delta (~55 µs − ~39 µs, §6.1.5).
    pub vm_sched_penalty_ns: u64,
}

impl CostModel {
    /// Cost of forwarding one request+response round trip in the given
    /// transport mode, excluding marshalling.
    pub fn round_trip_ns(&self, interrupts: bool) -> u64 {
        if interrupts {
            2 * self.intervm_interrupt_ns
        } else {
            2 * self.polling_side_ns
        }
    }

    /// Cost of a cross-VM copy of `bytes` bytes touching `pages` pages.
    pub fn copy_cost_ns(&self, bytes: u64, pages: u64) -> u64 {
        let page_fraction =
            (self.copy_page_ns * bytes).div_ceil(paradice_mem::PAGE_SIZE);
        self.hypercall_ns + pages * self.walk_page_ns + page_fraction
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            intervm_interrupt_ns: 17_350,
            polling_side_ns: 850,
            syscall_ns: 250,
            hypercall_ns: 300,
            walk_page_ns: 120,
            copy_page_ns: 400,
            map_page_ns: 350,
            iommu_map_ns: 250,
            region_switch_page_ns: 300,
            marshal_ns: 150,
            assigned_irq_ns: 16_000,
            backend_dispatch_ns: 400,
            process_wakeup_ns: 38_750,
            vm_sched_penalty_ns: 16_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let clock = SimClock::new();
        assert_eq!(clock.now_ns(), 0);
        clock.advance(us(5));
        assert_eq!(clock.now_ns(), 5_000);
        assert!(clock.advance_to(ms(1)));
        assert_eq!(clock.now_ns(), 1_000_000);
        assert!(!clock.advance_to(10));
        assert_eq!(clock.now_ns(), 1_000_000);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now_ns(), 42);
    }

    #[test]
    fn timed_measures_virtual_time() {
        let clock = SimClock::new();
        let (value, elapsed) = clock.timed(|| {
            clock.advance(us(7));
            "done"
        });
        assert_eq!(value, "done");
        assert_eq!(elapsed, 7_000);
    }

    #[test]
    fn noop_round_trip_matches_paper_anchors() {
        let cost = CostModel::default();
        // §6.1.1: ~35 µs with interrupts, ~2 µs with polling. Allow the
        // small non-interrupt components to account for the remainder.
        let interrupt_rt = cost.round_trip_ns(true) + 2 * cost.marshal_ns;
        assert!(
            (34_000..36_000).contains(&interrupt_rt),
            "interrupt round trip {interrupt_rt} ns"
        );
        let polling_rt = cost.round_trip_ns(false) + 2 * cost.marshal_ns;
        assert!(
            (1_500..2_500).contains(&polling_rt),
            "polling round trip {polling_rt} ns"
        );
    }

    #[test]
    fn copy_cost_scales_with_pages_and_bytes() {
        let cost = CostModel::default();
        let small = cost.copy_cost_ns(64, 1);
        let large = cost.copy_cost_ns(8192, 2);
        assert!(large > small);
        // One full page costs roughly hypercall + walk + copy_page.
        let one_page = cost.copy_cost_ns(4096, 1);
        assert_eq!(
            one_page,
            cost.hypercall_ns + cost.walk_page_ns + cost.copy_page_ns
        );
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(3), 3_000);
        assert_eq!(ms(2), 2_000_000);
    }

    #[test]
    fn wall_clock_moves_forward_and_ignores_charges() {
        let clock = WallClock::new();
        let t0 = clock.now_ns();
        clock.advance(ms(1_000));
        assert!(!clock.advance_to(u64::MAX - 1));
        // Charges are no-ops: only real elapsed time shows (a few µs at
        // most here, never the charged second).
        let t1 = clock.now_ns();
        assert!(t1 >= t0);
        assert!(t1 - t0 < ms(1_000), "charge leaked into wall time");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(clock.now_ns() > t1, "wall clock must move on its own");
    }

    #[test]
    fn wall_clock_clones_share_the_epoch() {
        let a = WallClock::new();
        let b = a;
        std::thread::sleep(std::time::Duration::from_millis(1));
        let (ta, tb) = (a.now_ns(), b.now_ns());
        // Same epoch: the two reads are a few µs apart, not an epoch apart.
        assert!(ta.abs_diff(tb) < ms(100));
    }

    #[test]
    fn clock_source_dispatches_to_both_implementations() {
        let sim = ClockSource::Virtual(SimClock::new());
        sim.advance(us(5));
        assert_eq!(sim.now_ns(), 5_000);
        assert!(sim.advance_to(us(9)));
        assert_eq!(sim.now_ns(), 9_000);

        let wall = ClockSource::Wall(WallClock::new());
        wall.advance(ms(1_000));
        assert!(!wall.advance_to(u64::MAX - 1));
        assert!(wall.now_ns() < ms(1_000), "charge leaked into wall time");
    }

    #[test]
    fn trait_object_dispatch_matches_inherent_calls() {
        let sim = SimClock::new();
        let dynamic: &dyn Clock = &sim;
        dynamic.advance(42);
        assert_eq!(dynamic.now_ns(), 42);
        assert_eq!(sim.now_ns(), 42);
    }
}
