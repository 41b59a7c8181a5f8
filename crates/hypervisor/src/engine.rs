//! The execution-substrate vocabulary.
//!
//! A Paradice machine can execute in two substrates:
//!
//! * **Virtual** — the deterministic step function: one thread, the
//!   [`SimClock`](crate::clock::SimClock), every action charged against
//!   the cost model. This is the correctness oracle: runs are
//!   bit-reproducible, so every proof, lint, and figure is anchored here.
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
//! per-guest queues, with one implementation per substrate and a
//! differential harness (`exec::run_workload`) that proves them
//! op-equivalent.

use std::fmt;

use crate::clock::ClockSource;

/// Which execution substrate an engine (or a whole machine) runs on.
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

    /// The clock source a machine of this kind should be built with.
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
        assert!(!EngineKind::Virtual.clock().is_wall());
        assert!(EngineKind::Wall.clock().is_wall());
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
