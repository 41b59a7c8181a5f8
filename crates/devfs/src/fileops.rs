//! File operations: the interface device drivers expose through device files.
//!
//! The commonly used operations are `read`, `write`, `poll`, `ioctl` and
//! `mmap` (with its supporting page-fault handler), plus `fasync` for
//! asynchronous notification (paper §2.1). These operations "have been part
//! of Linux since the early days and have seen almost no changes" (§3.2.2) —
//! which is precisely why they make a durable paravirtualization boundary.
//!
//! Drivers implement [`FileOps`]; all process-memory access inside an
//! operation goes through the [`MemOps`] argument (the
//! wrapper-stub seam). Unimplemented operations default to `ENOSYS`/`EINVAL`
//! like their kernel counterparts.

use std::fmt;

use paradice_mem::{Access, GuestVirtAddr};

use crate::errno::Errno;
use crate::ioc::IoctlCmd;
use crate::memops::MemOps;
use crate::registry::FileHandleId;

/// Identifies a process/thread issuing file operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Flags supplied at `open` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Non-blocking I/O: operations return `EAGAIN` instead of sleeping.
    pub nonblock: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        nonblock: false,
    };
    /// `O_WRONLY`.
    pub const WRONLY: OpenFlags = OpenFlags {
        read: false,
        write: true,
        nonblock: false,
    };
    /// `O_RDWR`.
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        nonblock: false,
    };

    /// Returns a copy with the non-blocking bit set.
    pub const fn nonblocking(mut self) -> OpenFlags {
        self.nonblock = true;
        self
    }
}

impl Default for OpenFlags {
    fn default() -> Self {
        OpenFlags::RDWR
    }
}

/// Per-call context handed to every file operation: who is calling on which
/// open file description.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpenContext {
    /// The open file description the operation targets.
    pub handle: FileHandleId,
    /// The calling process.
    pub task: TaskId,
    /// Flags the file was opened with.
    pub flags: OpenFlags,
}

/// A user-space buffer argument to `read`/`write`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UserBuffer {
    /// Start of the buffer in the process address space.
    pub addr: GuestVirtAddr,
    /// Buffer length in bytes.
    pub len: u64,
}

impl UserBuffer {
    /// Creates a buffer descriptor.
    pub const fn new(addr: GuestVirtAddr, len: u64) -> Self {
        UserBuffer { addr, len }
    }
}

/// An `mmap` request: map `len` bytes of device offset `offset` at process
/// virtual address `va` with `access` rights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MmapRange {
    /// Page-aligned start of the mapping in the process address space.
    pub va: GuestVirtAddr,
    /// Length in bytes (whole pages).
    pub len: u64,
    /// Byte offset into the device's mappable space; drivers use this to
    /// select which object is being mapped (GEM mmap offsets, netmap rings).
    pub offset: u64,
    /// Requested access.
    pub access: Access,
}

/// Readiness events returned by `poll`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct PollEvents(u16);

impl PollEvents {
    /// No events.
    pub const NONE: PollEvents = PollEvents(0);
    /// Data available to read (`POLLIN`).
    pub const IN: PollEvents = PollEvents(0x1);
    /// Writable without blocking (`POLLOUT`).
    pub const OUT: PollEvents = PollEvents(0x4);
    /// Error condition (`POLLERR`).
    pub const ERR: PollEvents = PollEvents(0x8);
    /// Hang-up (`POLLHUP`).
    pub const HUP: PollEvents = PollEvents(0x10);

    /// Union of two event sets.
    pub const fn union(self, other: PollEvents) -> PollEvents {
        PollEvents(self.0 | other.0)
    }

    /// Whether every event in `other` is present.
    pub const fn contains(self, other: PollEvents) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no events are set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bit representation.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Builds a set from raw bits.
    pub const fn from_bits(bits: u16) -> PollEvents {
        PollEvents(bits)
    }
}

impl std::ops::BitOr for PollEvents {
    type Output = PollEvents;

    fn bitor(self, rhs: PollEvents) -> PollEvents {
        self.union(rhs)
    }
}

impl fmt::Debug for PollEvents {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("PollEvents(none)");
        }
        let mut parts = Vec::new();
        if self.contains(PollEvents::IN) {
            parts.push("IN");
        }
        if self.contains(PollEvents::OUT) {
            parts.push("OUT");
        }
        if self.contains(PollEvents::ERR) {
            parts.push("ERR");
        }
        if self.contains(PollEvents::HUP) {
            parts.push("HUP");
        }
        write!(f, "PollEvents({})", parts.join("|"))
    }
}

/// The kinds of file operations a kernel's `file_operations` table can hold.
///
/// The CVD keeps "the list of all possible file operations based on the …
/// kernel" (paper §5.1: supporting a new Linux version took 14 LoC of list
/// updates). OS personalities in the core crate expose per-version lists of
/// these kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum FileOpKind {
    /// `open`.
    Open,
    /// `release` (close).
    Release,
    /// `read`.
    Read,
    /// `write`.
    Write,
    /// `unlocked_ioctl`.
    Ioctl,
    /// `compat_ioctl` (32-bit compatibility entry point).
    CompatIoctl,
    /// `mmap`.
    Mmap,
    /// The VM-area page-fault handler backing `mmap`.
    Fault,
    /// `poll`.
    Poll,
    /// `fasync`.
    Fasync,
    /// `flush`.
    Flush,
    /// `llseek`.
    Llseek,
    /// `fsync`.
    Fsync,
    /// `fallocate` (added to `file_operations` in Linux 3.x).
    Fallocate,
}

/// The driver-side interface of a device file.
///
/// Default method bodies mirror the kernel's behaviour for a NULL
/// `file_operations` slot: `ENOSYS`-style failures, successful no-op
/// open/release.
#[allow(unused_variables)]
pub trait FileOps {
    /// Called when a process opens the device file.
    ///
    /// # Errors
    ///
    /// Driver-specific; `EBUSY` for exhausted exclusive devices.
    fn open(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        Ok(())
    }

    /// Called when the last reference to an open file is dropped.
    ///
    /// # Errors
    ///
    /// Driver-specific.
    fn release(&mut self, ctx: OpenContext) -> Result<(), Errno> {
        Ok(())
    }

    /// Reads up to `buf.len` bytes into the process buffer; returns the
    /// number of bytes read.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the driver has no read path; `EAGAIN` for empty
    /// non-blocking reads.
    fn read(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        buf: UserBuffer,
    ) -> Result<u64, Errno> {
        Err(Errno::Einval)
    }

    /// Writes up to `buf.len` bytes from the process buffer; returns the
    /// number of bytes written.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the driver has no write path.
    fn write(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        buf: UserBuffer,
    ) -> Result<u64, Errno> {
        Err(Errno::Einval)
    }

    /// Handles a driver-specific command; `arg` is the untyped pointer (or
    /// scalar) argument.
    ///
    /// # Errors
    ///
    /// `ENOTTY` for unknown commands, by convention.
    fn ioctl(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<i64, Errno> {
        Err(Errno::Enotty)
    }

    /// Establishes a mapping of device/driver memory into the process.
    ///
    /// Drivers may install pages eagerly (via [`MemOps::insert_pfn`]) or
    /// lazily from [`FileOps::fault`].
    ///
    /// # Errors
    ///
    /// `ENOSYS` (here: `ENODEV`-style `EINVAL` in real kernels) when the
    /// driver does not support `mmap`.
    fn mmap(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        range: MmapRange,
    ) -> Result<(), Errno> {
        Err(Errno::Enosys)
    }

    /// Page-fault handler for lazily populated mappings; `va` is the
    /// faulting address inside a range previously accepted by
    /// [`FileOps::mmap`].
    ///
    /// # Errors
    ///
    /// `EFAULT` (SIGBUS in the kernel) if the address has no backing.
    fn fault(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        va: GuestVirtAddr,
    ) -> Result<(), Errno> {
        Err(Errno::Efault)
    }

    /// Reports I/O readiness.
    ///
    /// # Errors
    ///
    /// Driver-specific; the default claims always-ready (like a missing poll
    /// slot in the kernel).
    fn poll(&mut self, ctx: OpenContext) -> Result<PollEvents, Errno> {
        Ok(PollEvents::IN | PollEvents::OUT)
    }

    /// Enables or disables asynchronous notification for this opener.
    ///
    /// # Errors
    ///
    /// `ENOSYS` when the driver has no notification source.
    fn fasync(&mut self, ctx: OpenContext, on: bool) -> Result<(), Errno> {
        Err(Errno::Enosys)
    }

    /// The `munmap` notification: the process unmapped `[va, va+len)`.
    ///
    /// The guest kernel destroys its own page-table entries first; the
    /// driver releases its bookkeeping (paper §5.2). Default: no-op.
    ///
    /// # Errors
    ///
    /// Driver-specific.
    fn munmap(
        &mut self,
        ctx: OpenContext,
        mem: &mut dyn MemOps,
        va: GuestVirtAddr,
        len: u64,
    ) -> Result<(), Errno> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memops::BufferMemOps;

    struct NullDriver;

    impl FileOps for NullDriver {}

    fn ctx() -> OpenContext {
        OpenContext {
            handle: FileHandleId(1),
            task: TaskId(1),
            flags: OpenFlags::RDWR,
        }
    }

    #[test]
    fn defaults_mirror_missing_kernel_slots() {
        let mut driver = NullDriver;
        let mut mem = BufferMemOps::new(16);
        assert!(driver.open(ctx()).is_ok());
        assert_eq!(
            driver.read(ctx(), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 4)),
            Err(Errno::Einval)
        );
        assert_eq!(
            driver.ioctl(ctx(), &mut mem, crate::ioc::io(0, 0), 0),
            Err(Errno::Enotty)
        );
        assert_eq!(
            driver.mmap(
                ctx(),
                &mut mem,
                MmapRange {
                    va: GuestVirtAddr::new(0),
                    len: 4096,
                    offset: 0,
                    access: Access::RW,
                }
            ),
            Err(Errno::Enosys)
        );
        assert_eq!(driver.fasync(ctx(), true), Err(Errno::Enosys));
        assert!(driver.release(ctx()).is_ok());
    }

    #[test]
    fn poll_events_algebra() {
        let ev = PollEvents::IN | PollEvents::ERR;
        assert!(ev.contains(PollEvents::IN));
        assert!(!ev.contains(PollEvents::OUT));
        assert!(PollEvents::NONE.is_empty());
        assert_eq!(format!("{:?}", ev), "PollEvents(IN|ERR)");
        assert_eq!(PollEvents::from_bits(ev.bits()), ev);
    }

    #[test]
    fn open_flags_presets() {
        let ro = OpenFlags::RDONLY;
        assert!(ro.read && !ro.write);
        let wo = OpenFlags::WRONLY;
        assert!(!wo.read && wo.write);
        let nb = OpenFlags::RDWR.nonblocking();
        assert!(nb.nonblock && nb.read && nb.write);
    }
}
