//! The simulated Type-I hypervisor at the center of Paradice.
//!
//! Paradice's design (paper §3.1, Figure 1(c)) sandboxes each device and its
//! driver in a *driver VM* via device assignment, and has the hypervisor
//! execute the driver's memory operations on guest processes through a small
//! API, validating every request against grants the guest's CVD frontend
//! declared in advance (§4.1). Device data isolation adds hypervisor-enforced
//! protected memory regions (§4.2). This crate implements all of it:
//!
//! * [`clock`] — the deterministic virtual clock and the documented cost
//!   model every simulated action charges against.
//! * [`vm`] — VM containers: RAM, EPT, kernel page allocator, the unused-GPA
//!   window used for `mmap` fix-ups.
//! * [`grants`] — the grant table: legitimate memory operations declared by
//!   the frontend, validated on every hypercall from the driver VM. One
//!   page per guest, and a reference is its slot's index: a guest's
//!   sequence wraps past its live references instead of running out.
//! * [`hv`] — the [`Hypervisor`] itself: VM lifecycle, device assignment,
//!   the hypercall API (one grant-checked entry for cross-VM copies and
//!   `mmap` fix-ups, IOMMU control, protected MMIO), and device DMA
//!   service.
//! * [`regions`] — protected memory regions for device data isolation.
//! * [`channel`] — shared-page inter-VM communication in interrupt and
//!   polling modes, with the paper's measured latencies as cost anchors;
//!   each direction is one [`AtomicRing`] page.
//! * [`audit`] — the isolation audit log: every blocked attack is recorded
//!   with what stopped it.
//! * [`fairq`] — the fair-share pick rule shared by the CVD backend, both
//!   multi-guest substrates and the GPU model's engine scheduler.
//! * [`aring`] — the one ring kernel: 16 slots of a chosen size with
//!   acquire/release slot publication, a one-page ring under the channel
//!   and, shared between two threads with a park/unpark doorbell, under
//!   the wall-clock engine.
//! * [`shards`] — the one grant store, [`ShardedGrantTable`]: one page
//!   per guest with atomic slots, owned by the [`Hypervisor`] and by each
//!   multi-guest engine. A declare publishes one declaration, a revoke
//!   retires one, and readers look up without a lock, so validation stays
//!   off the contended path when frontend and backend run on separate
//!   threads.
//! * [`engine`] — the names of the two execution substrates
//!   ([`EngineKind`]: deterministic virtual time vs. real threads) and
//!   their failures ([`EngineError`]).
//! * [`atomic`] — the instrumented-atomics shim every atomic in [`aring`]
//!   and [`shards`] routes through: each operation names a declared
//!   access whose ordering is simultaneously what the code executes,
//!   what `paradice-lint`'s MO/RC passes check, and what
//!   `paradice-verify`'s interleaving checker explores.

pub mod aring;
pub mod atomic;
pub mod audit;
pub mod channel;
pub mod clock;
pub mod engine;
pub mod fairq;
pub mod grants;
pub mod hv;
pub mod regions;
pub mod shards;
pub mod vm;

/// A shared handle to the hypervisor.
///
/// The simulation is single-threaded and deterministic; components (CVD
/// backend, device models, the machine facade) share the hypervisor through
/// interior mutability with strictly transient borrows.
pub type SharedHypervisor = std::rc::Rc<std::cell::RefCell<hv::Hypervisor>>;

pub use aring::{
    ARingError, AtomicRing, Doorbell, FrameRing, IdRing, ARING_CAPACITY, ARING_SLOT_BYTES,
};
pub use audit::{AuditEvent, AuditLog, BlockedBy};
pub use channel::{Channel, ChannelError, ChannelStats, TransportMode, WireCodec};
pub use clock::{ms, us, Clock, ClockSource, CostModel, SimClock, WallClock};
pub use engine::{EngineError, EngineKind};
pub use fairq::{FairSched, SchedPolicy};
pub use grants::{
    GrantError, GrantRef, MemOpGrant, MemOpRequest, GRANT_TABLE_CAPACITY, MAX_GUESTS, SEQ_BITS,
};
pub use shards::{ShardedGrantTable, RETIRED_CAP};
pub use hv::{HvError, Hypervisor, MemOp};
pub use regions::RegionManager;
pub use vm::{Vm, VmId};
