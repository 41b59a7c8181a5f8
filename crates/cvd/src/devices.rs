//! The device table: the one step that runs a file operation in a driver.
//!
//! "The CVD backend … invokes the file operation of the device driver"
//! exactly as the native kernel does for a local process; only the wrapper
//! stubs behind `copy_to_user` and `vm_insert_pfn` differ (paper §3.2,
//! §5.2). [`DeviceTable::serve`] is that step for every execution mode: the
//! backend calls it for a forwarded operation with a grant-checked
//! [`HypercallMemOps`](crate::memops::HypercallMemOps) binding and the
//! calling guest as the thread mark; the native and device-assignment host
//! kernel calls it with direct process access and no mark.
//!
//! The table owns the devfs, one slot per registered driver, and one open
//! table per caller (per guest, plus the host's), so a neighbor's
//! open/close churn never touches another caller's lookup path. Handle ids
//! stay globally unique (devfs allocates them).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use paradice_devfs::fileops::{FileOps, MmapRange, OpenContext, TaskId, UserBuffer};
use paradice_devfs::registry::{DevFs, DeviceId, FileHandleId, OpenPolicy};
use paradice_devfs::sysinfo::DeviceClass;
use paradice_devfs::{Errno, MemOps, OpenFlags};
use paradice_drivers::env::KernelEnv;
use paradice_hypervisor::VmId;

use crate::proto::{WireOp, WireResponse};
use crate::sharing::SharingPolicy;

struct DeviceSlot {
    ops: Rc<RefCell<dyn FileOps>>,
    env: Rc<KernelEnv>,
    /// Notifications reach only the foreground guest (§5.1).
    foreground_only: bool,
}

/// Per-open-file bookkeeping. Lives in the owning caller's table, so the
/// owner is the table itself rather than a field.
#[derive(Debug, Clone, Copy)]
struct OpenState {
    device: DeviceId,
    flags: OpenFlags,
}

/// The registered drivers and their open files. `None` as a caller is the
/// host kernel; `Some(guest)` a guest VM whose operation was forwarded.
pub struct DeviceTable {
    devfs: DevFs,
    slots: BTreeMap<u32, DeviceSlot>,
    opens: BTreeMap<Option<VmId>, BTreeMap<u64, OpenState>>,
}

impl std::fmt::Debug for DeviceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceTable({} devices)", self.slots.len())
    }
}

/// An empty table.
impl Default for DeviceTable {
    fn default() -> Self {
        DeviceTable {
            devfs: DevFs::new(),
            slots: BTreeMap::new(),
            opens: BTreeMap::new(),
        }
    }
}

impl DeviceTable {
    /// Registers a device driver at `path`.
    ///
    /// # Errors
    ///
    /// `EBUSY` for duplicate paths.
    pub fn register(
        &mut self,
        path: &str,
        class: DeviceClass,
        open_policy: OpenPolicy,
        sharing: SharingPolicy,
        ops: Rc<RefCell<dyn FileOps>>,
        env: Rc<KernelEnv>,
    ) -> Result<DeviceId, Errno> {
        let id = self.devfs.register(path, class, open_policy)?;
        let foreground_only =
            class == DeviceClass::Input || sharing == SharingPolicy::ForegroundInput;
        let slot = DeviceSlot {
            ops,
            env,
            foreground_only,
        };
        self.slots.insert(id.0, slot);
        Ok(id)
    }

    /// Whether `device`'s notifications only reach the foreground guest
    /// (§5.1); `None` for an unknown device.
    pub fn foreground_only(&self, device: DeviceId) -> Option<bool> {
        self.slots.get(&device.0).map(|slot| slot.foreground_only)
    }

    /// Force-closes every open file of every caller (a driver-VM reboot).
    pub fn close_all(&mut self) {
        for (handle, _) in std::mem::take(&mut self.opens).values().flatten() {
            let _ = self.devfs.close(FileHandleId(*handle));
        }
    }

    /// Runs `op` on open file `handle` for `task` of `caller` — the one
    /// place a driver's file operations are called.
    ///
    /// `bind` builds the operation's [`MemOps`] binding from the device's
    /// [`KernelEnv`]; the driver runs with `caller` as its thread mark
    /// (§5.2), and the binding is flushed before the result is returned.
    /// A flush failure fails the operation (nothing was applied); the
    /// driver's own errno wins when both fail. `Release` closes the handle
    /// even when the driver's `release` fails. A handle the caller does not
    /// hold is `EPERM` if another caller holds it (a guest may only drive
    /// its own open files) and `EBADF` otherwise.
    ///
    /// # Errors
    ///
    /// Lookup, devfs and driver errors.
    pub fn serve<M: MemOps>(
        &mut self,
        caller: Option<VmId>,
        task: TaskId,
        handle: u64,
        op: &WireOp,
        bind: impl FnOnce(&KernelEnv) -> M,
    ) -> Result<WireResponse, Errno> {
        let (state, handle) = match op {
            WireOp::Open { path, flags } => {
                let (handle, device) = self.devfs.open(path, task, *flags)?;
                let state = OpenState {
                    device,
                    flags: *flags,
                };
                (state, handle)
            }
            _ => {
                // The fast path touches only the caller's own table;
                // neighbors pay the scan only when the caller is already
                // faulting.
                let own = self.opens.get(&caller).and_then(|t| t.get(&handle));
                let Some(&open) = own else {
                    let foreign = self
                        .opens
                        .iter()
                        .any(|(c, t)| *c != caller && t.contains_key(&handle));
                    return Err(if foreign { Errno::Eperm } else { Errno::Ebadf });
                };
                (open, FileHandleId(handle))
            }
        };
        let slot = self.slots.get(&state.device.0).ok_or(Errno::Enodev)?;
        let ctx = OpenContext {
            handle,
            task,
            flags: state.flags,
        };
        let mut mem = bind(&slot.env);
        slot.env.set_current_guest(caller);
        let mut driver = slot.ops.borrow_mut();
        let done = |r: Result<(), Errno>| r.map(|()| WireResponse::Value(0));
        let count = |r: Result<u64, Errno>| r.map(|n| WireResponse::Value(n as i64));
        let result = match *op {
            WireOp::Open { .. } => driver
                .open(ctx)
                .map(|()| WireResponse::Value(handle.0 as i64)),
            WireOp::Read { addr, len } => {
                count(driver.read(ctx, &mut mem, UserBuffer::new(addr, len)))
            }
            WireOp::Write { addr, len } => {
                count(driver.write(ctx, &mut mem, UserBuffer::new(addr, len)))
            }
            WireOp::Ioctl { cmd, arg } => driver
                .ioctl(ctx, &mut mem, cmd, arg)
                .map(WireResponse::Value),
            WireOp::Mmap {
                va,
                len,
                offset,
                access,
            } => {
                let range = MmapRange {
                    va,
                    len,
                    offset,
                    access,
                };
                done(driver.mmap(ctx, &mut mem, range))
            }
            WireOp::Munmap { va, len } => done(driver.munmap(ctx, &mut mem, va, len)),
            WireOp::Fault { va } => done(driver.fault(ctx, &mut mem, va)),
            // `poll` answers with its dedicated variant: event bits are not
            // a return value and never masquerade as one.
            WireOp::Poll => driver.poll(ctx).map(WireResponse::Poll),
            WireOp::Fasync { on } => done(driver.fasync(ctx, on)),
            WireOp::Release => done(driver.release(ctx)),
        };
        drop(driver);
        slot.env.set_current_guest(None);
        match (op, &result) {
            (WireOp::Open { .. }, Ok(_)) => {
                let table = self.opens.entry(caller).or_default();
                table.insert(handle.0, state);
            }
            (WireOp::Open { .. }, Err(_)) | (WireOp::Release, _) => {
                let _ = self.devfs.close(handle);
                if let Some(table) = self.opens.get_mut(&caller) {
                    table.remove(&handle.0);
                }
            }
            _ => {}
        }
        let flushed = mem.flush();
        match (result, flushed) {
            (Ok(response), Ok(())) => Ok(response),
            (Ok(_), Err(errno)) | (Err(errno), _) => Err(errno),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::memops::BufferMemOps;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SimClock};
    use paradice_mem::PAGE_SIZE;

    /// A driver whose `release` fails, recording the thread mark each call
    /// ran under.
    struct Marks {
        env: Rc<KernelEnv>,
        seen: Vec<Option<VmId>>,
    }

    impl FileOps for Marks {
        fn open(&mut self, _ctx: OpenContext) -> Result<(), Errno> {
            self.seen.push(self.env.current_guest());
            Ok(())
        }

        fn release(&mut self, _ctx: OpenContext) -> Result<(), Errno> {
            self.seen.push(self.env.current_guest());
            Err(Errno::Eio)
        }
    }

    fn table() -> (DeviceTable, Rc<RefCell<Marks>>) {
        let mut hv = Hypervisor::new(256, SimClock::new(), CostModel::default());
        let driver_vm = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let domain = hv
            .assign_device(driver_vm, DataIsolation::Disabled)
            .unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), driver_vm, domain, false);
        let driver = Rc::new(RefCell::new(Marks {
            env: env.clone(),
            seen: Vec::new(),
        }));
        let mut table = DeviceTable::default();
        let (class, policy, sharing) = (
            DeviceClass::Camera,
            OpenPolicy::Exclusive,
            SharingPolicy::Exclusive,
        );
        table
            .register("/dev/video0", class, policy, sharing, driver.clone(), env)
            .unwrap();
        (table, driver)
    }

    fn serve(
        table: &mut DeviceTable,
        caller: Option<VmId>,
        handle: u64,
        op: WireOp,
    ) -> Result<WireResponse, Errno> {
        table.serve(caller, TaskId(1), handle, &op, |_| BufferMemOps::new(0))
    }

    fn open(table: &mut DeviceTable, caller: Option<VmId>) -> Result<u64, Errno> {
        let op = WireOp::Open {
            path: "/dev/video0".into(),
            flags: OpenFlags::RDWR,
        };
        serve(table, caller, 0, op)?.result().map(|h| h as u64)
    }

    #[test]
    fn the_driver_runs_under_the_callers_thread_mark() {
        let (mut table, driver) = table();
        let guest = Some(VmId(3));
        let handle = open(&mut table, guest).unwrap();
        assert_eq!(
            serve(&mut table, guest, handle, WireOp::Release),
            Err(Errno::Eio)
        );
        let host = open(&mut table, None).unwrap();
        assert_eq!(
            serve(&mut table, None, host, WireOp::Release),
            Err(Errno::Eio)
        );
        assert_eq!(driver.borrow().seen, [guest, guest, None, None]);
        assert_eq!(driver.borrow().env.current_guest(), None);
    }

    #[test]
    fn a_failed_release_still_closes_the_handle() {
        let (mut table, _) = table();
        let handle = open(&mut table, None).unwrap();
        assert_eq!(open(&mut table, None), Err(Errno::Ebusy));
        assert_eq!(
            serve(&mut table, None, handle, WireOp::Release),
            Err(Errno::Eio)
        );
        assert_eq!(
            serve(&mut table, None, handle, WireOp::Poll),
            Err(Errno::Ebadf)
        );
        assert!(
            open(&mut table, None).is_ok(),
            "the exclusive device is free again"
        );
    }

    #[test]
    fn a_caller_drives_only_its_own_handles() {
        let (mut table, _) = table();
        let handle = open(&mut table, Some(VmId(1))).unwrap();
        for caller in [None, Some(VmId(2))] {
            let refused = serve(&mut table, caller, handle, WireOp::Fasync { on: true });
            assert_eq!(refused, Err(Errno::Eperm), "{caller:?}");
        }
        assert_eq!(
            serve(&mut table, None, handle + 1, WireOp::Poll),
            Err(Errno::Ebadf)
        );
        table.close_all();
        assert_eq!(
            serve(&mut table, Some(VmId(1)), handle, WireOp::Poll),
            Err(Errno::Ebadf)
        );
        assert!(open(&mut table, None).is_ok(), "close_all freed the device");
    }
}
