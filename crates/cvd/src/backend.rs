//! The CVD backend: the driver-VM half of the paravirtual pair.
//!
//! "The CVD backend puts new file operations on a wait-queue to be executed.
//! We use separate wait-queues for each guest VM. We also set the maximum
//! number of queued operations for each wait-queue to 100 to prevent
//! malicious guest VMs from causing denial-of-service problems … We can
//! modify this cap for different queues for better load balancing or
//! enforcing priorities between guest VMs" (paper §5.1).
//!
//! Each request runs through the [`DeviceTable`]'s one serve step, the
//! same one the host kernel uses natively, marked with the calling guest
//! (the `task_struct` flag of §5.2) and bound to [`HypercallMemOps`] so the
//! driver's wrapper stubs and the data-isolation code know whose memory and
//! region to use. Asynchronous notifications flow backend → frontend over
//! the same channels, filtered by the input-sharing policy (§5.1: "for
//! input devices, we only send notifications to the foreground guest VM").

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use paradice_devfs::fasync::Signal;
use paradice_devfs::fileops::{FileOps, TaskId};
use paradice_devfs::registry::{DeviceId, OpenPolicy};
use paradice_devfs::sysinfo::DeviceClass;
use paradice_devfs::Errno;
use paradice_drivers::env::KernelEnv;
use paradice_faults::{FaultKind, FaultPlan};
use paradice_hypervisor::audit::AuditEvent;
use paradice_hypervisor::{ChannelError, GrantRef, MemOp, SharedHypervisor, VmId};
use paradice_mem::GuestVirtAddr;
use paradice_trace::SpanId;

use crate::devices::DeviceTable;
use crate::memops::{DeferredBatch, HypercallMemOps};
use crate::proto::{CvdChannel, WireRequest, WireResponse, WireSignal};
use crate::sharing::{SharingPolicy, VirtualTerminals};

/// The paper's per-guest wait-queue cap.
pub const DEFAULT_QUEUE_CAP: usize = 100;

/// What an injected dispatch fault does to the request being executed.
enum InjectOutcome {
    /// Answer with this response instead of running the driver.
    Response(WireResponse),
    /// Post no response at all (panic/hang: the frontend watchdog detects).
    NoResponse,
    /// Run the driver normally; the fault applies at the wire afterwards.
    Proceed,
}

/// A shared handle to the backend (one backend serves every guest, §3.2.3).
pub type SharedBackend = Rc<RefCell<Backend>>;

struct GuestState {
    channel: Rc<RefCell<CvdChannel>>,
    /// Queued requests, per-guest FIFO.
    queue: VecDeque<WireRequest>,
    cap: usize,
}

/// The CVD backend.
pub struct Backend {
    hv: SharedHypervisor,
    driver_vm: VmId,
    devices: DeviceTable,
    guests: BTreeMap<u32, GuestState>,
    task_origin: BTreeMap<u64, VmId>,
    terminals: Option<Rc<RefCell<VirtualTerminals>>>,
    /// When paused, requests queue without executing (lets tests exercise
    /// the DoS cap; in the live system the queue only backs up when the
    /// driver is slow).
    paused: bool,
    ops_executed: u64,
    /// Armed fault plan (§7.1 experiments); `None` in production.
    plan: Option<Rc<RefCell<FaultPlan>>>,
    /// A wire-level fault picked during dispatch, applied to the response
    /// slot after the response is posted.
    pending_wire_fault: Option<FaultKind>,
    /// Virtual time the last response was posted to a channel — the
    /// frontend watchdog measures *delivery* lag against this, so blocking
    /// operations may legitimately run long without tripping it.
    last_post_ns: u64,
    /// Fast path: the one batch lent to every dispatch's
    /// [`HypercallMemOps`], which defers the file operation's guest-visible
    /// writes and issues them as one hypercall.
    batch: Option<DeferredBatch>,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("driver_vm", &self.driver_vm)
            .field("devices", &self.devices)
            .field("guests", &self.guests.len())
            .field("ops_executed", &self.ops_executed)
            .finish()
    }
}

impl Backend {
    /// Creates a backend hosted in `driver_vm`.
    pub fn new(hv: SharedHypervisor, driver_vm: VmId) -> SharedBackend {
        Rc::new(RefCell::new(Backend {
            hv,
            driver_vm,
            devices: DeviceTable::default(),
            guests: BTreeMap::new(),
            task_origin: BTreeMap::new(),
            terminals: None,
            paused: false,
            ops_executed: 0,
            plan: None,
            pending_wire_fault: None,
            last_post_ns: 0,
            batch: None,
        }))
    }

    /// Enables or disables vectored-hypercall dispatch (fast path): the
    /// driver's memory operations are deferred into one `hc_memops` call,
    /// validated atomically — all-or-nothing on a grant violation.
    pub fn set_fastpath_batch(&mut self, on: bool) {
        self.batch = on.then(DeferredBatch::default);
    }

    /// The driver VM hosting this backend.
    pub fn driver_vm(&self) -> VmId {
        self.driver_vm
    }

    /// Total file operations executed.
    pub fn ops_executed(&self) -> u64 {
        self.ops_executed
    }

    /// Registers a device driver at `path` in the driver VM's devfs.
    ///
    /// # Errors
    ///
    /// `EBUSY` for duplicate paths.
    pub fn register_device(
        &mut self,
        path: &str,
        class: DeviceClass,
        open_policy: OpenPolicy,
        sharing: SharingPolicy,
        ops: Rc<RefCell<dyn FileOps>>,
        env: Rc<KernelEnv>,
    ) -> Result<DeviceId, Errno> {
        self.devices
            .register(path, class, open_policy, sharing, ops, env)
    }

    /// Attaches a guest VM with its shared-page channel and queue cap.
    pub fn attach_guest(&mut self, guest: VmId, channel: Rc<RefCell<CvdChannel>>, cap: usize) {
        self.guests.insert(
            guest.0,
            GuestState {
                channel,
                queue: VecDeque::new(),
                cap,
            },
        );
    }

    /// Adjusts a guest's wait-queue cap ("for better load balancing or
    /// enforcing priorities", §5.1).
    ///
    /// # Errors
    ///
    /// `EINVAL` for unknown guests.
    pub fn set_queue_cap(&mut self, guest: VmId, cap: usize) -> Result<(), Errno> {
        self.guests
            .get_mut(&guest.0)
            .map(|state| state.cap = cap)
            .ok_or(Errno::Einval)
    }

    /// Records which guest a task belongs to (set when the machine spawns a
    /// guest process; used for notification routing).
    pub fn register_task(&mut self, task: TaskId, guest: VmId) {
        self.task_origin.insert(task.0, guest);
    }

    /// Installs the virtual-terminal tracker used for foreground filtering.
    pub fn set_terminals(&mut self, terminals: Rc<RefCell<VirtualTerminals>>) {
        self.terminals = Some(terminals);
    }

    /// Stops executing requests (they queue instead). Test/diagnostic knob.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Whether the backend is paused (the frontend watchdog must not treat
    /// a paused backend's silence as a dead driver).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Arms a fault plan: faults fire at dispatch and channel boundaries
    /// per the plan's triggers (paper §7.1 fault-injection experiments).
    pub fn arm_faults(&mut self, plan: Rc<RefCell<FaultPlan>>) {
        self.plan = Some(plan);
    }

    /// Clears driver-visible state after a driver-VM reboot: force-closes
    /// every open file in devfs, flushes the per-guest wait queues, and
    /// drops any staged wire fault. Channel slots are reset by the
    /// frontends; device registrations survive (the machine swaps in the
    /// freshly instantiated driver objects).
    pub fn reset_for_recovery(&mut self) {
        self.devices.close_all();
        for state in self.guests.values_mut() {
            state.queue.clear();
        }
        self.paused = false;
        self.pending_wire_fault = None;
    }

    /// Virtual time the last response was posted to a channel. The
    /// frontend watchdog compares its read time against this: a blocking
    /// operation may legitimately execute for longer than the deadline,
    /// but a response that sits *posted yet undelivered* past the deadline
    /// means the transport (or a fault) is holding it.
    pub fn last_post_ns(&self) -> u64 {
        self.last_post_ns
    }

    /// Depth of a guest's wait queue.
    pub fn queue_depth(&self, guest: VmId) -> usize {
        self.guests.get(&guest.0).map_or(0, |s| s.queue.len())
    }

    /// Accepts one request from `guest`'s channel: enqueue (subject to the
    /// cap), then — unless paused — execute it and post the response.
    ///
    /// # Errors
    ///
    /// `EINVAL` for unattached guests or an empty channel. A full wait
    /// queue is *not* an error here: the EDQUOT response is posted on the
    /// channel (and the flood audited), exactly as the guest would see it.
    pub fn handle_request(&mut self, guest: VmId) -> Result<(), Errno> {
        let driver_dead = self.hv.borrow().driver_vm_failed(self.driver_vm);
        let state = self.guests.get_mut(&guest.0).ok_or(Errno::Einval)?;
        let taken = state.channel.borrow_mut().take_request();
        let request = match taken {
            Ok(request) => request,
            // The slot held bytes that do not decode as a WireRequest. The
            // channel already consumed them; answer EINVAL so the guest is
            // not left waiting on an empty response slot.
            Err(ChannelError::Malformed) => return self.refuse(guest, Errno::Einval),
            Err(_) => return Err(Errno::Einval),
        };
        if driver_dead {
            // The driver VM is marked failed: nothing in it may run. The
            // request is consumed and refused immediately so the guest gets
            // a clean errno instead of a hang (§7.1 fail-fast).
            return self.refuse(guest, Errno::Eio);
        }
        let depth = state.queue.len();
        if depth >= state.cap {
            self.refuse(guest, Errno::Edquot)?;
            self.hv
                .borrow_mut()
                .record_audit(AuditEvent::WaitQueueOverflow { guest, depth });
            return Ok(());
        }
        state.queue.push_back(request);
        if !self.paused {
            if let Some(response) = self.execute_next(guest) {
                self.post_response(guest, response);
            }
            self.apply_pending_wire_fault(guest);
        }
        Ok(())
    }

    /// Posts `response` on `guest`'s channel and stamps the post time the
    /// frontend watchdog measures delivery lag against.
    fn post_response(&mut self, guest: VmId, response: WireResponse) {
        if let Some(state) = self.guests.get(&guest.0) {
            let _ = state.channel.borrow_mut().send_response(response);
            self.last_post_ns = self.hv.borrow().clock().now_ns();
        }
    }

    /// Answers a request the backend will not run with `errno`: the request
    /// was handled, so the caller gets `Ok`.
    fn refuse(&mut self, guest: VmId, errno: Errno) -> Result<(), Errno> {
        self.post_response(guest, WireResponse::Err(errno));
        Ok(())
    }

    /// Applies a wire-level fault staged during dispatch to the response
    /// just posted on `guest`'s channel.
    fn apply_pending_wire_fault(&mut self, guest: VmId) {
        let Some(kind) = self.pending_wire_fault.take() else {
            return;
        };
        let Some(state) = self.guests.get(&guest.0) else {
            return;
        };
        match kind {
            FaultKind::MalformedResponse => {
                let _ = state.channel.borrow_mut().scramble_response_slot();
            }
            FaultKind::TruncatedResponse => {
                let _ = state.channel.borrow_mut().truncate_response_slot();
            }
            FaultKind::DropDelivery => {
                let _ = state.channel.borrow_mut().drop_response_slot();
            }
            FaultKind::DelayDelivery => {
                // The response sits in the slot while the virtual clock
                // runs past the frontend's watchdog deadline.
                self.hv
                    .borrow()
                    .clock()
                    .advance(paradice_faults::DEFAULT_DELAY_NS);
            }
            _ => {}
        }
    }

    /// Resumes a paused backend, draining `guest`'s backlog and returning
    /// the responses in order (the live system would post them as the
    /// response slot frees up).
    pub fn resume(&mut self, guest: VmId) -> Vec<WireResponse> {
        self.paused = false;
        let mut responses = Vec::new();
        while self.queue_depth(guest) > 0 {
            if let Some(response) = self.execute_next(guest) {
                responses.push(response);
            }
        }
        responses
    }

    fn execute_next(&mut self, guest: VmId) -> Option<WireResponse> {
        let request = self.guests.get_mut(&guest.0)?.queue.pop_front()?;
        self.hv.borrow().clock().advance(
            self.hv.borrow().cost().backend_dispatch_ns,
        );
        // Span marking, mirroring the guest-thread mark: every grant-checked
        // hypercall the driver performs for this request lands in the span
        // the frontend stamped on the wire (as do injected faults).
        self.hv.borrow_mut().set_current_span(SpanId(request.span));
        let outcome = 'serve: {
            if let Some(kind) = self.consult_fault_plan(&request) {
                match self.inject_dispatch_fault(kind, guest, &request) {
                    InjectOutcome::Response(response) => break 'serve Some(response),
                    InjectOutcome::NoResponse => break 'serve None,
                    InjectOutcome::Proceed => {}
                }
            }
            self.ops_executed += 1;
            // The wrapper-stub binding: every memory operation the driver
            // performs for this request is a grant-checked hypercall. A
            // missing grant fails closed (no declaration can ever match).
            let grant = request.grant.unwrap_or(GrantRef(u32::MAX));
            let (hv, vm, batch) = (&self.hv, self.driver_vm, self.batch.as_mut());
            let (task, pt) = (TaskId(request.task), request.pt_root);
            let bind = |env: &KernelEnv| {
                let domain = Some(env.domain());
                HypercallMemOps::new(hv.clone(), vm, guest, pt, grant, domain, batch)
            };
            let served = self
                .devices
                .serve(Some(guest), task, request.handle, &request.op, bind);
            Some(served.unwrap_or_else(WireResponse::Err))
        };
        self.hv.borrow_mut().set_current_span(SpanId::NONE);
        outcome
    }

    /// Asks the armed plan (if any) whether a fault fires on this dispatch.
    fn consult_fault_plan(&mut self, request: &WireRequest) -> Option<FaultKind> {
        let plan = self.plan.as_ref()?;
        let now_ns = self.hv.borrow().clock().now_ns();
        plan.borrow_mut().on_dispatch(request.op.name(), now_ns)
    }

    /// Simulates `kind` firing inside the driver while it dispatches
    /// `request` (paper §7.1: "we injected faults in the device drivers
    /// running inside the driver VM").
    fn inject_dispatch_fault(
        &mut self,
        kind: FaultKind,
        guest: VmId,
        request: &WireRequest,
    ) -> InjectOutcome {
        self.hv
            .borrow()
            .trace_fault_injected(kind.as_str(), request.op.name());
        match kind {
            FaultKind::DriverPanic => {
                // A kernel panic takes the whole driver VM down: no
                // response is ever posted, and containment revokes every
                // outstanding grant before anything else can run.
                let _ = self.hv.borrow_mut().mark_driver_vm_failed(self.driver_vm);
                InjectOutcome::NoResponse
            }
            FaultKind::DriverOops => {
                // An oops kills the handler thread but the driver VM
                // survives; the guest sees the failed operation's errno.
                InjectOutcome::Response(WireResponse::Err(Errno::Eio))
            }
            FaultKind::Hang => {
                // The driver wedges and never answers. Detection must live
                // outside the untrusted driver: the frontend watchdog — not
                // this code — declares the VM failed.
                InjectOutcome::NoResponse
            }
            FaultKind::WildMemOp => {
                // A corrupted driver touches guest memory it holds no grant
                // for. The hypervisor fails the access closed and audits
                // it; the stricken VM is then declared failed.
                let wild = self.hv.borrow_mut().hc_memops(
                    self.driver_vm,
                    guest,
                    request.pt_root,
                    GrantRef(u32::MAX),
                    None,
                    &mut [MemOp::CopyToGuest {
                        dst: GuestVirtAddr::new(0xdead_0000),
                        data: &[0xff; 8],
                    }],
                );
                debug_assert!(wild.is_err(), "ungranted op must fail closed");
                let _ = self.hv.borrow_mut().mark_driver_vm_failed(self.driver_vm);
                InjectOutcome::NoResponse
            }
            FaultKind::MalformedResponse
            | FaultKind::TruncatedResponse
            | FaultKind::DropDelivery
            | FaultKind::DelayDelivery => {
                // Wire-level faults: the operation itself runs; the fault
                // hits the response slot after it is posted.
                self.pending_wire_fault = Some(kind);
                InjectOutcome::Proceed
            }
        }
    }

    /// Routes asynchronous notifications from a driver to the guests whose
    /// tasks subscribed (§5.1). Input-class notifications only reach the
    /// foreground guest. Returns how many were forwarded.
    pub fn deliver_signals(&mut self, device: DeviceId, signals: &[Signal]) -> usize {
        let Some(input_filtered) = self.devices.foreground_only(device) else {
            return 0;
        };
        let foreground = self
            .terminals
            .as_ref()
            .map(|t| t.borrow().foreground());
        let mut forwarded = 0;
        for signal in signals {
            let Some(&guest) = self.task_origin.get(&signal.task.0) else {
                continue; // host-local subscriber; the kernel signals it directly
            };
            if input_filtered {
                if let Some(fg) = foreground {
                    if fg != guest {
                        continue;
                    }
                }
            }
            if let Some(state) = self.guests.get(&guest.0) {
                let wire = WireSignal {
                    task: signal.task.0,
                    handle: signal.handle.0,
                };
                if state.channel.borrow_mut().send_notification(wire).is_ok() {
                    forwarded += 1;
                }
            }
        }
        forwarded
    }
}
