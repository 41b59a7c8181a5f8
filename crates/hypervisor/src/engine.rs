//! The execution-substrate vocabulary.
//!
//! The multi-guest engine can execute in two substrates:
//!
//! * **Virtual** — the deterministic step function: one thread, the
//!   [`SimClock`](crate::clock::SimClock), every action charged against
//!   the cost model. This is the correctness oracle: runs are
//!   bit-reproducible, so every proof, lint, and figure is anchored here.
//!   A whole `Machine` runs only here.
//! * **Wall** — real OS threads for frontend and backend, the shared ring
//!   page driven with atomics ([`AtomicRing`](crate::aring::AtomicRing)),
//!   grants validated through the lock-free-read
//!   [`ShardedGrantTable`](crate::shards::ShardedGrantTable), and the
//!   [`WallClock`](crate::clock::WallClock) reporting what the hardware
//!   actually took.
//!
//! This module only names the substrates ([`EngineKind`]) and their
//! failures ([`EngineError`]) so the hypervisor crate never depends on
//! the CVD wire types. The engine seam itself is `paradice-cvd`'s
//! `multi::MultiEngine`: a byte-level submit/complete interface over
//! per-guest queues, with one implementation whose kind picks the clock
//! and where its server runs, and a differential harness
//! (`exec::run_workload`) that proves the two kinds op-equivalent.

use std::fmt;

use crate::atomic::{Access, AccessKind, Edge, MemOrder, Role, SiteSpec};
use crate::clock::ClockSource;

/// The multi-guest engine's stop request: the store that asks the wall
/// backend thread to exit, the last write before the frontend rings the
/// request doorbell.
pub static STOP_REQUEST: Access = Access::pre_doorbell(
    "request",
    AccessKind::Store,
    MemOrder::Release,
    Edge::Observe,
);
/// The backend thread's check of the stop flag, in its loop and in its
/// wait predicate.
pub static STOP_CHECK: Access =
    Access::new("check", AccessKind::Load, MemOrder::Acquire, Edge::Observe);
static STOP_ACCESSES: [&Access; 2] = [&STOP_REQUEST, &STOP_CHECK];
static STOP_SITE: SiteSpec = SiteSpec {
    module: "cvd::multi",
    name: "stop",
    group: "multi.stop",
    role: Role::Flag,
    accesses: &STOP_ACCESSES,
};

/// The engine's declared atomic-site table (its stop flag lives in
/// `paradice-cvd`, which this crate cannot name), aggregated by
/// [`crate::atomic::all_sites`].
pub static ATOMIC_SITES: [&SiteSpec; 1] = [&STOP_SITE];

/// Which execution substrate a multi-guest engine runs on. A `Machine`
/// always runs on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Deterministic virtual time; the correctness oracle.
    #[default]
    Virtual,
    /// Real threads on the atomic ring; the measurement mode.
    Wall,
}

impl EngineKind {
    /// Stable lowercase name (report keys, CLI flags).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Virtual => "virtual",
            EngineKind::Wall => "wall",
        }
    }

    /// The clock source a multi-guest engine of this kind runs on.
    pub fn clock(self) -> ClockSource {
        match self {
            EngineKind::Virtual => ClockSource::Virtual(crate::clock::SimClock::new()),
            EngineKind::Wall => ClockSource::Wall(crate::clock::WallClock::new()),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request ring is full; retry after draining completions.
    Backpressure,
    /// The frame exceeds one ring slot.
    Oversize {
        /// Offending length.
        len: usize,
    },
    /// The engine's backend is gone (thread panicked or shut down).
    Dead(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Backpressure => f.write_str("engine request ring full"),
            EngineError::Oversize { len } => {
                write!(f, "frame of {len} bytes exceeds an engine ring slot")
            }
            EngineError::Dead(why) => write!(f, "engine backend dead: {why}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_and_clocks_line_up() {
        assert_eq!(EngineKind::Virtual.name(), "virtual");
        assert_eq!(EngineKind::Wall.name(), "wall");
        assert_eq!(EngineKind::default(), EngineKind::Virtual);
        assert!(matches!(EngineKind::Virtual.clock(), ClockSource::Virtual(_)));
        assert!(matches!(EngineKind::Wall.clock(), ClockSource::Wall(_)));
        assert_eq!(format!("{}", EngineKind::Wall), "wall");
    }

    #[test]
    fn errors_render() {
        assert_eq!(
            EngineError::Oversize { len: 9999 }.to_string(),
            "frame of 9999 bytes exceeds an engine ring slot"
        );
        assert!(EngineError::Dead("panic".into()).to_string().contains("panic"));
    }
}
