//! The Common Virtual Driver (CVD): Paradice's class-agnostic paravirtual
//! driver pair.
//!
//! "The paravirtual drivers, i.e., the CVD frontend and backend, deliver
//! these operations to the actual device file to be executed by the device
//! driver" (paper §3.1). One frontend/backend pair supports *every* device
//! class — that is the paper's headline engineering-effort result (Table 2:
//! the CVD is ~3900 LoC of the ~7700 total, shared by all five classes).
//!
//! * [`proto`] — the shared-page wire format for file operations and their
//!   results (operation descriptors only: bulk data never crosses the
//!   channel; the driver reaches guest memory through hypervisor calls).
//! * [`memops`] — the backend's [`MemOps`](paradice_devfs::MemOps) binding:
//!   every driver memory operation becomes a grant-checked hypercall.
//! * [`frontend`] — the guest-side virtual device file: derives the
//!   legitimate memory operations of each file operation (from arguments,
//!   `_IOC` encodings, or the analyzer's static/JIT extraction, §4.1),
//!   declares them as grants, and forwards the operation.
//! * [`cache`] — the pure grant-declaration cache kernel behind the fast
//!   path: shape-keyed FIFO memoization with explicit ref-ownership
//!   transfer, small enough for the bounded-model checker to exhaust.
//! * [`devices`] — the device table: the devfs, the registered drivers,
//!   per-caller open tables and the one serve step that calls a driver's
//!   file operations, for forwarded and native calls alike (§3.2).
//! * [`backend`] — the driver-VM side: per-guest wait queues capped at 100
//!   operations (DoS guard, §5.1), the grant-checked binding of each
//!   request to the device table, and asynchronous-notification
//!   forwarding.
//! * [`FairSched`] / [`SchedPolicy`] — the fair-share queue discipline
//!   (`paradice_hypervisor::fairq`, re-exported here): the one pick rule
//!   behind the multi-guest engine's serve step and the GPU model's
//!   engine scheduler. ([`Backend`] serves the calling guest inline and
//!   schedules nothing.)
//! * [`multi`] — the multi-guest engine behind the one [`MultiEngine`]
//!   seam (a single guest is N = 1): per-guest ring channels, per-guest
//!   wait-queue caps, and one fair-share server on virtual or wall time.
//! * [`exec`] — what sits on either side of that seam: the
//!   [`DeviceService`] contract, the server's dispatch step, and
//!   [`run_workload`], the cross-substrate differential harness.
//! * [`info`] — device info modules and the virtual PCI bus (§5.1).
//! * [`sharing`] — device-sharing policies: foreground/background graphics,
//!   concurrent GPGPU, foreground-only input, exclusive camera/netmap
//!   (§3.2.3, §5.1).

pub mod backend;
pub mod cache;
pub mod devices;
pub mod exec;
pub mod frontend;
pub mod multi;
pub mod info;
pub mod memops;
pub mod proto;
pub mod sharing;

pub use backend::{Backend, SharedBackend};
pub use cache::{Eviction, GrantCache, GrantCacheKey};
pub use devices::DeviceTable;
pub use exec::{run_workload, DeviceService, ExecRun, ScriptedService, WorkloadOp};
pub use paradice_hypervisor::{FairSched, SchedPolicy};
pub use frontend::{Frontend, IoctlKnowledge, OsPersonality};
pub use multi::{build_multi, Completion, MultiEngine, MULTI_QUEUE_CAP};
pub use info::{DeviceInfoModule, VirtualPciBus};
pub use memops::HypercallMemOps;
pub use proto::{WireOp, WireRequest, WireResponse};
pub use sharing::{SharingPolicy, VirtualTerminals};
