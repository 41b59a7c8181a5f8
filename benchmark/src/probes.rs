//! Isolated probes: tight loops over one layer's public API with the
//! workload's shapes and occupancy, run after (never beside) the timed
//! window. A probe is the layer's cost with warm caches and no contention —
//! a floor, which is why the model built from them is compared with the
//! measured per-op time and the difference reported as unattributed.

use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use paradice::gpu_ioctl::{RADEON_GEM_PWRITE, RADEON_INFO};
use paradice::prelude::IoctlCmd;
use paradice_analyzer::{analyze_handler, UserReader};
use paradice_cvd::exec::{DeviceService, ScriptedService};
use paradice_cvd::proto::{WireOp, WireRequest};
use paradice_cvd::{FairSched, IoctlKnowledge, SchedPolicy};
use paradice_drivers::gpu::ir::radeon_handler_3_2_0;
use paradice_hypervisor::{AtomicRing, Doorbell, MemOpGrant, MemOpRequest, ShardedGrantTable};
use paradice_mem::{GuestPhysAddr, GuestVirtAddr};

use crate::machine::{MachineKind, MachineRig, BULK_BYTES};
use crate::pin;
use crate::stats::median;
use crate::wall::{Fatal, INTERACTIVE_CMD, READ_BYTES, WRITE_BYTES};

const BATCHES: usize = 31;

/// Median over [`BATCHES`] batches of the mean time of one `call`.
fn per_call_ns(per_batch: usize, mut call: impl FnMut()) -> f64 {
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..per_batch {
                call();
            }
            started.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&means)
}

fn mix_requests() -> [WireRequest; 3] {
    let request = |op| WireRequest {
        task: 1,
        pt_root: GuestPhysAddr::new(0x4000),
        handle: 1,
        span: 0,
        grant: Some(ShardedGrantTable::compose_ref(0, 7)),
        op,
    };
    [
        request(WireOp::Ioctl {
            cmd: INTERACTIVE_CMD,
            arg: 0x10_0000,
        }),
        request(WireOp::Write {
            addr: GuestVirtAddr::new(0x100_0000),
            len: WRITE_BYTES,
        }),
        request(WireOp::Read {
            addr: GuestVirtAddr::new(0x800_0000),
            len: READ_BYTES,
        }),
    ]
}

/// What the wall backend does per op, one public call at a time.
#[derive(Clone, Copy, Default, Debug)]
pub struct WallProbes {
    pub request_decode_ns: f64,
    pub validate_ns: f64,
    pub push_pop_ns: f64,
    pub empty_scan_ns: f64,
    pub handoff_ns: f64,
    pub pick_ns: f64,
    pub serve_ns: f64,
}

impl WallProbes {
    /// The backend's per-op time as the probes add up: one scan of every
    /// request ring, one pick, pop + decode + serve, `memops` validations,
    /// and the response push.
    pub fn backend_model_ns(&self, memops_per_op: f64) -> f64 {
        self.empty_scan_ns
            + self.pick_ns
            + self.push_pop_ns
            + self.request_decode_ns
            + self.serve_ns
            + self.validate_ns * memops_per_op
    }
}

pub fn wall_probes(guests: usize, live_grants: usize) -> WallProbes {
    let requests = mix_requests();
    let frames: Vec<Vec<u8>> = requests.iter().map(WireRequest::encode).collect();
    let mut turn = 0usize;
    let request_decode_ns = per_call_ns(3000, || {
        turn = (turn + 1) % 3;
        black_box(WireRequest::decode(black_box(&frames[turn])).is_ok());
    });

    let table = ShardedGrantTable::with_guests(guests);
    let mut probed = None;
    for slot in 0..live_grants as u64 {
        let addr = GuestVirtAddr::new(0x10_0000 + slot * 16);
        let ops = vec![
            MemOpGrant::CopyFromGuest { addr, len: 8 },
            MemOpGrant::CopyToGuest { addr, len: 8 },
        ];
        let grant = table.declare(0, ops).expect("live grants fit a shard");
        if slot == live_grants as u64 / 2 {
            probed = Some((grant, MemOpRequest::CopyFromGuest { addr, len: 8 }));
        }
    }
    let (grant, memop) = probed.expect("at least one live grant");
    let validate_ns = per_call_ns(3000, || {
        black_box(table.validate(0, black_box(grant), &memop).is_ok());
    });

    let ring = AtomicRing::new();
    let frame = [0x5au8; 64];
    let push_pop_ns = per_call_ns(3000, || {
        black_box(ring.try_push(&frame).is_ok());
        black_box(ring.try_pop());
    });

    let rings: Vec<AtomicRing> = (0..guests).map(|_| AtomicRing::new()).collect();
    let empty_scan_ns = per_call_ns(3_000_usize.div_ceil(guests).max(3), || {
        black_box(rings.iter().filter(|r| !r.is_empty()).count());
    });

    let mut sched = FairSched::new(SchedPolicy::FairShare);
    for guest in 0..guests as u32 {
        sched.charge(guest, 1_000 + u64::from(guest % 7));
    }
    let pick_ns = per_call_ns(3_000_usize.div_ceil(guests).max(3), || {
        let backlogged = (0..guests as u32).map(|g| (g, u64::from(g)));
        let picked = sched.pick(backlogged).expect("everyone is backlogged");
        sched.charge(picked, 100);
    });

    let (mut service, _) = ScriptedService::new();
    let serve_ns = per_call_ns(3000, || {
        turn = (turn + 1) % 3;
        black_box(service.serve(&requests[turn]));
    });

    WallProbes {
        request_decode_ns,
        validate_ns,
        push_pop_ns,
        empty_scan_ns,
        handoff_ns: handoff_ns(400),
        pick_ns,
        serve_ns,
    }
}

/// One-way wake-up: `try_push` + `Doorbell::ring` on this thread until the
/// parked consumer's `Doorbell::wait` returns, median over `rounds`. The two
/// threads sit where the workload's generator and backend sat.
fn handoff_ns(rounds: usize) -> f64 {
    pin::pin_current(0);
    let ring = Arc::new(AtomicRing::new());
    let bell = Arc::new(Doorbell::new());
    let epoch = Instant::now();
    let (woke_tx, woke_rx) = mpsc::channel::<u64>();
    let consumer = {
        let (ring, bell) = (Arc::clone(&ring), Arc::clone(&bell));
        std::thread::spawn(move || {
            pin::pin_current(1);
            bell.register();
            loop {
                bell.wait(|| !ring.is_empty());
                let woke = epoch.elapsed().as_nanos() as u64;
                match ring.try_pop() {
                    Some(frame) if frame.is_empty() => return,
                    Some(_) => woke_tx.send(woke).expect("producer is listening"),
                    None => {}
                }
            }
        })
    };
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // Long enough for the consumer to find the ring empty and park.
        std::thread::sleep(Duration::from_micros(150));
        let rang = epoch.elapsed().as_nanos() as u64;
        if ring.try_push(b"wake").expect("ring has room") {
            bell.ring();
        }
        let woke = woke_rx.recv().expect("consumer answers every frame");
        samples.push(woke.saturating_sub(rang) as f64);
    }
    if ring.try_push(b"").expect("ring has room") {
        bell.ring();
    }
    consumer.join().expect("handoff consumer exits cleanly");
    pin::release_current();
    median(&samples)
}

/// Half of one `write_mem` + `read_mem` round trip of `len` bytes.
pub fn process_copy_ns(rig: &mut MachineRig, len: u64) -> Result<f64, Fatal> {
    let at = rig.alloc(len)?;
    let mut bytes = vec![0xa5u8; len as usize];
    rig.process_copy(at, &mut bytes)?;
    let per_batch = if len > 4096 { 50 } else { 2000 };
    Ok(per_call_ns(per_batch, || {
        black_box(rig.process_copy(at, &mut bytes).is_ok());
    }) / 2.0)
}

/// A flat buffer standing in for the calling process's memory.
struct FlatReader {
    base: u64,
    bytes: Vec<u8>,
}

impl UserReader for FlatReader {
    fn read_user(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), ()> {
        let start = addr.checked_sub(self.base).ok_or(())? as usize;
        let source = self.bytes.get(start..start + buf.len()).ok_or(())?;
        buf.copy_from_slice(source);
        Ok(())
    }
}

/// `IoctlKnowledge::grants_for` for the workload's command: what the
/// frontend spends deriving an op's legitimate memory operations before
/// anything crosses the boundary.
pub fn grants_for_ns(kind: MachineKind) -> Result<f64, Fatal> {
    let report =
        analyze_handler(&radeon_handler_3_2_0()).map_err(|e| format!("analyzer: {e:?}"))?;
    let knowledge = IoctlKnowledge::from_report(report);
    let base = 0x7000_0000u64;
    let (cmd, len): (IoctlCmd, usize) = match kind {
        MachineKind::BulkRw => (RADEON_GEM_PWRITE, 64 + BULK_BYTES as usize),
        _ => (RADEON_INFO, 64),
    };
    let mut reader = FlatReader {
        base,
        bytes: vec![0u8; len],
    };
    // `{handle, offset, size, data_ptr}`: the payload follows the struct.
    reader.bytes[16..24].copy_from_slice(&BULK_BYTES.to_le_bytes());
    reader.bytes[24..32].copy_from_slice(&(base + 64).to_le_bytes());
    if knowledge.grants_for(cmd, base, &mut reader).is_err() {
        return Err("grants_for refused the probe's well-formed arguments".into());
    }
    let per_batch = if kind == MachineKind::BulkRw { 4 } else { 2000 };
    Ok(per_call_ns(per_batch, || {
        black_box(knowledge.grants_for(cmd, base, &mut reader).is_ok());
    }))
}
