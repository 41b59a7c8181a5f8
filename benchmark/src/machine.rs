//! The `machine_*` workloads: one client issuing blocking calls into
//! [`Machine`] — the real stack (frontend → channel → backend → Radeon driver
//! → hypercalls) on the virtual clock.
//!
//! Host time here is what the *simulator* costs per simulated operation;
//! simulated time is what the modelled hardware would take and is exact.

use paradice::gpu_ioctl::{
    gem_domain, info, RADEON_GEM_CREATE, RADEON_GEM_PREAD, RADEON_GEM_PWRITE, RADEON_INFO,
};
use paradice::prelude::*;

use crate::gen::{draw, Rng};
use crate::pin;
use crate::spans::{Span, Spans};
use crate::stats::{Class, Epoch, Window};
use crate::wall::Fatal;

/// The Radeon HD 6450's PCI device id, what `RADEON_INFO(DEVICE_ID)` returns.
const DEVICE_ID: u64 = 0x6779;
/// Staged 16-B `RADEON_INFO` argument slots the seed picks from.
const ARG_SLOTS: u64 = 8;
/// Pipelined ioctls per doorbell on the fast path.
pub const ROUND: usize = 8;
/// Bytes per bulk transfer: four pages.
pub const BULK_BYTES: u64 = 16 * 1024;
/// Seed-derived payloads a bulk write picks from.
const PAYLOADS: u64 = 4;
/// Every this-many-th `RADEON_INFO` has its slot cleared first and its
/// answer read back (the read-back is outside the timed call).
const CHECK_PERIOD: u64 = 4096;

const STREAM_SLOT: u64 = 10 << 32;
const STREAM_PAYLOAD: u64 = 11 << 32;
const STREAM_BYTES: u64 = 12 << 32;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MachineKind {
    /// Blocking `RADEON_INFO`, one at a time.
    IoctlSync,
    /// Eight pipelined `RADEON_INFO` per flush, fast path on.
    IoctlFastpath,
    /// Alternating 16-KiB `GEM_PWRITE` / `GEM_PREAD`.
    BulkRw,
}

/// Exact counters of the layers under `Machine`, read from its public
/// statistics. A window's numbers are the difference of two readings.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct LayerCounts {
    /// Ops issued (the denominator of every per-op figure).
    pub ops: u64,
    pub sim_ns: u64,
    pub hypercalls: u64,
    pub interrupts: u64,
    pub coalesced: u64,
    pub channel_bytes: u64,
    pub grants_declared: u64,
    pub grant_cache_hits: u64,
    pub jit_evaluations: u64,
}

impl LayerCounts {
    pub fn since(self, earlier: LayerCounts) -> LayerCounts {
        LayerCounts {
            ops: self.ops - earlier.ops,
            sim_ns: self.sim_ns - earlier.sim_ns,
            hypercalls: self.hypercalls - earlier.hypercalls,
            interrupts: self.interrupts - earlier.interrupts,
            coalesced: self.coalesced - earlier.coalesced,
            channel_bytes: self.channel_bytes - earlier.channel_bytes,
            grants_declared: self.grants_declared - earlier.grants_declared,
            grant_cache_hits: self.grant_cache_hits - earlier.grant_cache_hits,
            jit_evaluations: self.jit_evaluations - earlier.jit_evaluations,
        }
    }
}

pub struct MachineRig {
    kind: MachineKind,
    seed: u64,
    native: bool,
    machine: Machine,
    task: TaskId,
    fd: u64,
    /// One page of staged argument structs.
    args: GuestVirtAddr,
    /// Bulk: the staged source payloads and where the read lands.
    payloads: Vec<Vec<u8>>,
    read_back: GuestVirtAddr,
    written: usize,
    /// Ops issued so far (the seed's index).
    index: u64,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Spans,
    /// The open window and when it opened; `None` outside one.
    window: Option<(u64, Window)>,
    epoch: Epoch,
    pub build_ns: u64,
    /// Whether the client thread was pinned to one CPU.
    pub pinned: bool,
}

fn errno(what: &str) -> impl Fn(Errno) -> Fatal + '_ {
    move |e| format!("{what}: {e}")
}

impl MachineRig {
    /// Builds the machine, opens the GPU and stages every argument struct
    /// and payload: everything before the first operation.
    pub fn setup(
        kind: MachineKind,
        seed: u64,
        native: bool,
        epoch: Epoch,
    ) -> Result<MachineRig, Fatal> {
        let pinned = pin::pin_current(0);
        let build_started = epoch.ns();
        let mut builder = Machine::builder().device(DeviceSpec::gpu());
        builder = if native {
            builder.mode(ExecMode::Native)
        } else {
            builder
                .mode(ExecMode::Paradice {
                    transport: TransportMode::Interrupts,
                    data_isolation: false,
                })
                .guest(GuestSpec::linux())
        };
        let mut machine = builder.build().map_err(|e| format!("machine build: {e}"))?;
        let build_ns = epoch.ns() - build_started;
        let task = machine
            .spawn_process((!native).then_some(0))
            .map_err(|e| format!("spawn: {e}"))?;
        let fd = machine
            .open(task, "/dev/dri/card0")
            .map_err(errno("open card0"))?;
        let args = machine
            .alloc_buffer(task, PAGE_SIZE)
            .map_err(errno("alloc args"))?;
        let mut rig = MachineRig {
            kind,
            seed,
            native,
            machine,
            task,
            fd,
            args,
            payloads: Vec::new(),
            read_back: args,
            written: 0,
            index: 0,
            attempted: 0,
            failed: 0,
            spans: Spans::new(false, epoch),
            window: None,
            epoch,
            build_ns,
            pinned,
        };
        match kind {
            MachineKind::IoctlSync | MachineKind::IoctlFastpath => {
                for slot in 0..ARG_SLOTS {
                    rig.stage_info_request(slot)?;
                }
                if kind == MachineKind::IoctlFastpath && !native {
                    rig.machine.enable_fastpath();
                }
            }
            MachineKind::BulkRw => rig.stage_bulk()?,
        }
        Ok(rig)
    }

    /// Runs `steps` untimed loop steps (ops; rounds on the fast path) so
    /// caches and the grant cache are in their steady state.
    pub fn warm_up(&mut self, steps: u64) -> Result<(), Fatal> {
        for _ in 0..steps {
            self.step()?;
        }
        Ok(())
    }

    fn info_arg(&self, slot: u64) -> GuestVirtAddr {
        self.args.add(slot * 16)
    }

    fn stage_info_request(&mut self, slot: u64) -> Result<(), Fatal> {
        let mut request = [0u8; 16];
        request[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
        self.machine
            .write_mem(self.task, self.info_arg(slot), &request)
            .map_err(errno("stage RADEON_INFO request"))
    }

    /// Creates the buffer object and stages the payloads plus one
    /// `{handle, offset, size, data_ptr}` struct per payload (slots
    /// `0..PAYLOADS` write, slot `PAYLOADS` reads).
    fn stage_bulk(&mut self) -> Result<(), Fatal> {
        let mut create = [0u8; 24];
        create[0..8].copy_from_slice(&BULK_BYTES.to_le_bytes());
        create[8..12].copy_from_slice(&gem_domain::VRAM.to_le_bytes());
        let scratch = self.args.add(2048);
        self.machine
            .write_mem(self.task, scratch, &create)
            .map_err(errno("stage GEM_CREATE"))?;
        self.machine
            .ioctl(self.task, self.fd, RADEON_GEM_CREATE, scratch.raw())
            .map_err(errno("GEM_CREATE"))?;
        self.machine
            .read_mem(self.task, scratch, &mut create)
            .map_err(errno("read GEM_CREATE"))?;
        let handle = u32::from_le_bytes(create[16..20].try_into().expect("len 4"));

        let mut bytes = Rng::new(self.seed, STREAM_BYTES);
        for slot in 0..=PAYLOADS {
            let data = self
                .machine
                .alloc_buffer(self.task, BULK_BYTES)
                .map_err(errno("alloc payload"))?;
            if slot < PAYLOADS {
                let mut payload = vec![0u8; BULK_BYTES as usize];
                bytes.fill(&mut payload);
                self.machine
                    .write_mem(self.task, data, &payload)
                    .map_err(errno("stage payload"))?;
                self.payloads.push(payload);
            } else {
                self.read_back = data;
            }
            let mut transfer = [0u8; 32];
            transfer[0..4].copy_from_slice(&handle.to_le_bytes());
            transfer[16..24].copy_from_slice(&BULK_BYTES.to_le_bytes());
            transfer[24..32].copy_from_slice(&data.raw().to_le_bytes());
            self.machine
                .write_mem(self.task, self.args.add(slot * 32), &transfer)
                .map_err(errno("stage transfer args"))?;
        }
        Ok(())
    }

    /// One timed call into the machine, tiled as a `core.machine.call` span.
    /// Returns the call's result and when it started and returned.
    fn call(
        &mut self,
        cmd: IoctlCmd,
        arg: GuestVirtAddr,
        pipelined: bool,
    ) -> (Result<i64, Errno>, u64, u64) {
        let started = self.epoch.ns();
        let result = if pipelined {
            self.machine
                .ioctl_pipelined(self.task, self.fd, cmd, arg.raw())
                .map(|()| 0)
        } else {
            self.machine.ioctl(self.task, self.fd, cmd, arg.raw())
        };
        let ended = self.epoch.ns();
        self.spans
            .tile(Span::MachineCall, self.index, started, ended);
        self.spans.op(self.index, started, ended);
        self.attempted += 1;
        (result, started, ended)
    }

    fn expect_ok(&mut self, result: Result<i64, Errno>) {
        self.failed += u64::from(result != Ok(0));
    }

    /// Records one completed op into the open window, if there is one.
    fn record(&mut self, done: u64, latency: u64, class: Class, gated: bool) {
        if let Some((opened, window)) = &mut self.window {
            window.record(done.saturating_sub(*opened), latency, class, true, gated);
        }
    }

    /// Runs one step of the closed loop.
    fn step(&mut self) -> Result<(), Fatal> {
        match self.kind {
            MachineKind::IoctlSync => {
                let slot = draw(self.seed, STREAM_SLOT, self.index) % ARG_SLOTS;
                let checked = self.index.is_multiple_of(CHECK_PERIOD);
                if checked {
                    self.stage_info_request(slot)?;
                }
                let (result, started, ended) = self.call(RADEON_INFO, self.info_arg(slot), false);
                self.expect_ok(result);
                if checked {
                    self.check_device_id(slot)?;
                }
                self.record(ended, ended - started, Class::Ioctl, true);
                self.index += 1;
            }
            MachineKind::IoctlFastpath => {
                let mut calls = [(0u64, 0u64); ROUND];
                let pipelined = !self.native;
                for call in &mut calls {
                    let slot = draw(self.seed, STREAM_SLOT, self.index) % ARG_SLOTS;
                    let (result, started, returned) =
                        self.call(RADEON_INFO, self.info_arg(slot), pipelined);
                    self.expect_ok(result);
                    *call = (started, returned);
                    self.index += 1;
                }
                if pipelined {
                    let posted = calls[ROUND - 1].1;
                    let results = self
                        .machine
                        .flush_pipeline(self.task)
                        .map_err(errno("flush_pipeline"))?;
                    let flushed = self.epoch.ns();
                    self.spans
                        .tile(Span::MachineCall, self.index, posted, flushed);
                    if results.len() != ROUND {
                        return Err(format!(
                            "flush returned {} results for {ROUND} ops",
                            results.len()
                        ));
                    }
                    for result in results {
                        self.expect_ok(result);
                    }
                    // A pipelined op is done when its round's flush returns.
                    for call in &mut calls {
                        call.1 = flushed;
                    }
                }
                for (started, done) in calls {
                    self.record(done, done - started, Class::Ioctl, true);
                }
            }
            MachineKind::BulkRw => {
                let write = self.index.is_multiple_of(2);
                if write {
                    self.written =
                        (draw(self.seed, STREAM_PAYLOAD, self.index / 2) % PAYLOADS) as usize;
                    let arg = self.args.add(self.written as u64 * 32);
                    let (result, started, ended) = self.call(RADEON_GEM_PWRITE, arg, false);
                    self.expect_ok(result);
                    self.record(ended, ended - started, Class::Write, true);
                } else {
                    let arg = self.args.add(PAYLOADS * 32);
                    let (result, started, ended) = self.call(RADEON_GEM_PREAD, arg, false);
                    self.expect_ok(result);
                    self.record(ended, ended - started, Class::Read, false);
                    self.check_read_back()?;
                }
                self.index += 1;
            }
        }
        Ok(())
    }

    fn check_device_id(&mut self, slot: u64) -> Result<(), Fatal> {
        let started = self.spans.now();
        let mut answer = [0u8; 16];
        self.machine
            .read_mem(self.task, self.info_arg(slot), &mut answer)
            .map_err(errno("read RADEON_INFO answer"))?;
        let value = u64::from_le_bytes(answer[8..16].try_into().expect("len 8"));
        self.failed += u64::from(value != DEVICE_ID);
        self.spans
            .tile(Span::Check, self.index, started, self.spans.now());
        Ok(())
    }

    /// The bytes `GEM_PREAD` delivered must be the payload the preceding
    /// `GEM_PWRITE` uploaded.
    fn check_read_back(&mut self) -> Result<(), Fatal> {
        let started = self.spans.now();
        let mut landed = vec![0u8; BULK_BYTES as usize];
        self.machine
            .read_mem(self.task, self.read_back, &mut landed)
            .map_err(errno("read back"))?;
        self.failed += u64::from(landed != self.payloads[self.written]);
        self.spans
            .tile(Span::Check, self.index, started, self.spans.now());
        Ok(())
    }

    pub fn layer_counts(&self) -> LayerCounts {
        let channel = self.machine.channel_stats(0).unwrap_or_default();
        let frontend = self
            .machine
            .frontend(0)
            .map(|f| f.borrow().stats())
            .unwrap_or_default();
        LayerCounts {
            ops: self.attempted,
            sim_ns: self.machine.now_ns(),
            hypercalls: self.machine.hypercall_count(),
            interrupts: channel.interrupt_deliveries,
            coalesced: channel.coalesced_deliveries,
            channel_bytes: channel.request_bytes + channel.response_bytes,
            grants_declared: frontend.grants_declared,
            grant_cache_hits: frontend.grant_cache_hits,
            jit_evaluations: frontend.jit_evaluations,
        }
    }

    /// Runs the timed window on the host clock, stopping that clock `pauses`
    /// times at equal distances to run `between`; returns the window with
    /// the exact layer counters it moved.
    pub fn run_window(
        &mut self,
        slices: usize,
        slice_ns: u64,
        traced: bool,
        pauses: usize,
        between: &mut dyn FnMut() -> Result<(), Fatal>,
    ) -> Result<(Window, LayerCounts), Fatal> {
        self.spans = Spans::new(traced, self.epoch);
        let before = self.layer_counts();
        let mut opened = self.epoch.ns();
        let (len_ns, parts) = (slices as u64 * slice_ns, pauses as u64 + 1);
        self.spans.open(self.spans.now());
        self.window = Some((opened, Window::new(slices, slice_ns)));
        for part in 1..=parts {
            let closes = opened + len_ns * part / parts;
            while self.epoch.ns() < closes {
                for _ in 0..16 {
                    self.step()?;
                }
            }
            if part < parts {
                let paused = self.epoch.ns();
                between()?;
                opened += self.epoch.ns() - paused;
                self.window.as_mut().expect("opened above").0 = opened;
            }
        }
        self.spans.close(self.spans.now());
        let (_, mut window) = self.window.take().expect("window was opened above");
        window.finish();
        Ok((window, self.layer_counts().since(before)))
    }

    /// One `write_mem` + `read_mem` of `bytes` at a fresh buffer: the
    /// two-stage walk and copy a process-memory access costs.
    pub fn process_copy(&mut self, at: GuestVirtAddr, bytes: &mut [u8]) -> Result<(), Fatal> {
        self.machine
            .write_mem(self.task, at, bytes)
            .map_err(errno("probe write_mem"))?;
        self.machine
            .read_mem(self.task, at, bytes)
            .map_err(errno("probe read_mem"))
    }

    pub fn alloc(&mut self, len: u64) -> Result<GuestVirtAddr, Fatal> {
        self.machine
            .alloc_buffer(self.task, len)
            .map_err(errno("probe alloc"))
    }

    /// Median host latency of the gated op over `steps` steps (the native
    /// baseline: driver and device model without the virtualization stack).
    pub fn median_latency_ns(&mut self, steps: u64) -> Result<f64, Fatal> {
        // One slice as long as time itself: only the histogram is wanted.
        self.window = Some((self.epoch.ns(), Window::new(1, u64::MAX)));
        self.warm_up(steps)?;
        let (_, window) = self.window.take().expect("set above");
        Ok(window.gated().quantile_ns(0.5))
    }
}

/// Simulated-time results of one fixed replay. Deterministic: two replays
/// of one seed must compare equal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimRun {
    pub failed: u64,
    pub counts: LayerCounts,
}

/// Steps the simulated-time replay runs after its own short warm-up.
const REPLAY_WARMUP_STEPS: u64 = 64;
const REPLAY_STEPS: u64 = 256;

/// The deterministic replay behind the simulated-time metrics: a fresh
/// machine, a fixed number of steps, the exact counters they moved.
pub fn sim_replay(kind: MachineKind, seed: u64, epoch: Epoch) -> Result<SimRun, Fatal> {
    let mut rig = MachineRig::setup(kind, seed, false, epoch)?;
    rig.warm_up(REPLAY_WARMUP_STEPS)?;
    let before = rig.layer_counts();
    rig.warm_up(REPLAY_STEPS)?;
    Ok(SimRun {
        failed: rig.failed,
        counts: rig.layer_counts().since(before),
    })
}
