//! Unix device-file abstractions: Paradice's paravirtualization boundary.
//!
//! The paper's central observation is that Unix-like OSes abstract most I/O
//! devices behind *device files* and a small, stable set of file operations —
//! `read`, `write`, `ioctl`, `mmap`, `poll`, plus `fasync` for asynchronous
//! notification (§2.1). That boundary is what this crate defines:
//!
//! * [`errno`] — Unix error numbers shared by every layer.
//! * [`ioc`] — the Linux `_IOC` ioctl command encoding, whose embedded
//!   direction/size fields let the CVD frontend derive legitimate memory
//!   operations from a command number alone (§4.1).
//! * [`fileops`] — the [`FileOps`] trait implemented by device drivers, and
//!   the request/argument types for each operation.
//! * [`memops`] — the [`MemOps`] trait, the *wrapper-stub seam*: drivers
//!   perform all process-memory access through it, so the same driver binary
//!   works natively (direct access) and under Paradice (hypervisor calls),
//!   with no driver changes (§3.1, §5.2).
//! * [`registry`] — the `/dev` namespace: device registration, open/release
//!   accounting, exclusive-open devices.
//! * [`fasync`] — asynchronous notification bookkeeping (SIGIO-style).
//! * [`sysinfo`] — the device information the kernel exports to user space
//!   (PCI identity etc.), which Paradice re-exports into guests via device
//!   info modules (§5.1).
//!
//! # Example: deriving memory operations from an ioctl command
//!
//! ```
//! use paradice_devfs::ioc::{iowr, IoctlDir};
//!
//! // A Radeon-style "get info" command carrying a 24-byte struct both ways.
//! let cmd = iowr(b'd', 0x27, 24);
//! assert_eq!(cmd.dir(), IoctlDir::ReadWrite);
//! assert_eq!(cmd.size(), 24);
//! ```

pub mod errno;
pub mod fasync;
pub mod fileops;
pub mod ioc;
pub mod memops;
pub mod registry;
pub mod sysinfo;

pub use errno::Errno;
pub use fasync::{FasyncRegistry, Signal, SignalQueue};
pub use fileops::{FileOps, MmapRange, OpenContext, OpenFlags, PollEvents, TaskId, UserBuffer};
pub use ioc::{IoctlCmd, IoctlDir};
pub use memops::{DriverSpan, MemOps};
pub use registry::{DevFs, DeviceId, FileHandleId};
pub use sysinfo::{DeviceClass, PciDeviceInfo};
