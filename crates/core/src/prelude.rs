//! One-stop imports for examples and application code.
//!
//! Also the home of the unified [`MemOps`] story: every way a driver can
//! touch process memory — [`BufferMemOps`] (flat buffer, unit tests),
//! [`DirectMemOps`] (native/assignment, straight through the hypervisor),
//! [`HypercallMemOps`] (Paradice, grant-checked hypercalls) — implements
//! the one trait, so driver code is oblivious to which world it runs in.
//! Every mode calls the driver through one step, the device table's
//! `serve` (`paradice_cvd::devices`): the three modes differ only in the
//! `MemOps` binding and the thread mark (the calling guest under Paradice,
//! none on the host).
//!
//! Likewise the execution story: a [`Machine`] runs on the deterministic
//! virtual clock ([`SimClock`], the correctness oracle); [`build_multi`]
//! builds a [`MultiEngine`] on either that clock or the wall clock
//! ([`WallClock`], real threads on the atomic ring).

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
