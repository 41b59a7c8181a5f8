//! One-stop imports for examples and application code.
//!
//! Also the home of the unified [`MemOps`] story: every way a driver can
//! touch process memory — [`BufferMemOps`] (flat buffer, unit tests),
//! [`DirectMemOps`] (native/assignment, straight through the hypervisor),
//! [`HypercallMemOps`] (Paradice, grant-checked hypercalls) — implements
//! the one trait, so driver code is oblivious to which world it runs in.
//!
//! Likewise the unified execution story: one [`MultiEngine`] seam over
//! the deterministic virtual substrate ([`SimClock`], the correctness
//! oracle) and the wall-clock substrate ([`WallClock`], real threads on
//! the atomic ring). Pick one with [`MachineBuilder::engine`] or drive an
//! engine directly via [`build_multi`].

pub use crate::machine::{
    DeviceSpec, DirectMemOps, ExecMode, GuestSpec, Machine, MachineBuilder, MachineError,
    OsPersonality,
};
pub use paradice_cvd::proto::CvdChannel;
pub use paradice_cvd::HypercallMemOps;
pub use paradice_devfs::fileops::{OpenFlags, PollEvents, TaskId};
pub use paradice_devfs::ioc::{io, ior, iow, iowr, IoctlCmd};
pub use paradice_devfs::memops::{BufferMemOps, MemOps};
pub use paradice_devfs::Errno;
pub use paradice_cvd::{
    build_multi, run_workload, DeviceService, ExecRun, MultiEngine, SchedPolicy, WorkloadOp,
};
pub use paradice_drivers::gpu::driver::DriverVersion;
pub use paradice_hypervisor::{
    Clock, ClockSource, CostModel, EngineError, EngineKind, SimClock, TransportMode, WallClock,
};
pub use paradice_mem::{Access, GuestVirtAddr, PAGE_SIZE};
pub use paradice_trace::{parse_jsonl, TraceEvent, Tracer};
