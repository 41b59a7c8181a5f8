//! The cross-layer fast-path ablation: the same workload run with the
//! fast path off (the paper's per-op declare → interrupt → validate →
//! revoke baseline) and on (grant-declaration cache + pipelined ring +
//! vectored hypercalls), every run cost-accounted on the virtual clock.
//!
//! Three workloads, chosen to mirror the figures the overhead dominates:
//!
//! * **interactive-ioctl** — the Fig-3 style GL frame loop: 18 identical
//!   `RADEON_INFO` state queries per frame (`workloads::GL_OPS_PER_FRAME`),
//!   the op shape the grant cache memoizes and the ring coalesces.
//! * **netmap-tx** — the Fig-2 style TX loop: guest-local `produce()`
//!   into the mapped ring, one `NIOCTXSYNC` ioctl per batch; the fast
//!   path posts a group of syncs per doorbell (netmap-style batching).
//! * **noop-polled-round-trip** — the §6.1.1 polled no-op round trip.
//!   The fast path must *not* move it: the tests below pin it to exactly
//!   2 650 virtual ns on both sides.
//!
//! Everything is deterministic virtual time, so the ablation is
//! bit-identical across runs and hosts.

use paradice::app::netmap::NetmapClient;
use paradice::gpu_ioctl::{info, RADEON_INFO};
use paradice::netmap_ioctl::NIOCTXSYNC;
use paradice::prelude::*;

use crate::configs::{build, spawn_app, Config};
use crate::workloads::GL_OPS_PER_FRAME;

/// Frames of the interactive-ioctl workload.
pub const FRAMES: usize = 40;
/// TX batches of the netmap workload.
pub const NM_BATCHES: u32 = 128;
/// Packets per TX batch.
pub const NM_BATCH: u32 = 16;
/// Pipelined TXSYNCs flushed per doorbell group on the fast path.
pub const NM_GROUP: u32 = 8;
/// Polled no-op round trips measured (after warm-up).
pub const NOOP_OPS: u64 = 200;

/// The cost-accounted outcome of one workload run (one ablation side).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastpathSide {
    /// Virtual nanoseconds the workload took.
    pub virtual_ns: u64,
    /// Hypercalls served by the hypervisor (declare + mem ops + revoke).
    pub hypercalls: u64,
    /// Channel deliveries that paid full inter-VM interrupt cost.
    pub interrupts: u64,
    /// Channel deliveries that paid polling cost.
    pub polls: u64,
    /// Sends coalesced into an already-rung doorbell (ring batching).
    pub coalesced: u64,
    /// Declare hypercalls skipped by the grant-declaration cache.
    pub grant_cache_hits: u64,
    /// File operations the workload forwarded.
    pub ops: u64,
}

impl FastpathSide {
    /// Virtual microseconds per forwarded operation.
    pub fn us_per_op(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.virtual_ns as f64 / self.ops as f64 / 1e3
    }
}

/// One workload measured with the fast path off and on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastpathComparison {
    /// Workload name (`"interactive-ioctl"`, …).
    pub workload: &'static str,
    /// The baseline run.
    pub off: FastpathSide,
    /// The fast-path run.
    pub on: FastpathSide,
}

impl FastpathComparison {
    /// Virtual-time ratio baseline / fast path (2.0 = twice as fast).
    pub fn speedup(&self) -> f64 {
        if self.on.virtual_ns == 0 {
            return 0.0;
        }
        self.off.virtual_ns as f64 / self.on.virtual_ns as f64
    }
}

/// Snapshot-delta accounting around one workload body.
fn measure(machine: &mut Machine, ops: u64, body: impl FnOnce(&mut Machine)) -> FastpathSide {
    let t0 = machine.now_ns();
    let hc0 = machine.hypercall_count();
    let ch0 = machine.channel_stats(0).unwrap_or_default();
    let hits0 = machine
        .frontend(0)
        .map(|f| f.borrow().stats().grant_cache_hits)
        .unwrap_or(0);
    body(machine);
    let ch1 = machine.channel_stats(0).unwrap_or_default();
    FastpathSide {
        virtual_ns: machine.now_ns() - t0,
        hypercalls: machine.hypercall_count() - hc0,
        interrupts: ch1.interrupt_deliveries - ch0.interrupt_deliveries,
        polls: ch1.polling_deliveries - ch0.polling_deliveries,
        coalesced: ch1.coalesced_deliveries - ch0.coalesced_deliveries,
        grant_cache_hits: machine
            .frontend(0)
            .map(|f| f.borrow().stats().grant_cache_hits)
            .unwrap_or(0)
            - hits0,
        ops,
    }
}

/// The Fig-3 style interactive frame loop: [`GL_OPS_PER_FRAME`] identical
/// `RADEON_INFO` queries per frame for [`FRAMES`] frames.
pub fn interactive_ioctl(fastpath: bool) -> FastpathSide {
    let mut machine = build(Config::Paradice, &[DeviceSpec::gpu()], 1);
    let task = spawn_app(&mut machine, Config::Paradice);
    let fd = machine.open(task, "/dev/dri/card0").expect("open card0");
    let scratch = machine.alloc_buffer(task, 256).expect("scratch");
    let mut req = [0u8; 16];
    req[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
    machine.write_mem(task, scratch, &req).expect("stage request");
    if fastpath {
        machine.enable_fastpath();
    }
    let arg = scratch.raw();
    let ops = (FRAMES * GL_OPS_PER_FRAME) as u64;
    measure(&mut machine, ops, |machine| {
        for _ in 0..FRAMES {
            if fastpath {
                for _ in 0..GL_OPS_PER_FRAME {
                    machine
                        .ioctl_pipelined(task, fd, RADEON_INFO, arg)
                        .expect("pipelined info");
                }
                for result in machine.flush_pipeline(task).expect("flush") {
                    result.expect("info result");
                }
            } else {
                for _ in 0..GL_OPS_PER_FRAME {
                    machine.ioctl(task, fd, RADEON_INFO, arg).expect("info");
                }
            }
        }
    })
}

/// The Fig-2 style netmap TX loop: [`NM_BATCHES`] batches of [`NM_BATCH`]
/// 64-byte packets, one `NIOCTXSYNC` per batch. The fast path posts
/// [`NM_GROUP`] syncs per doorbell.
pub fn netmap_tx(fastpath: bool) -> FastpathSide {
    let mut machine = build(Config::Paradice, &[DeviceSpec::Netmap], 1);
    let task = spawn_app(&mut machine, Config::Paradice);
    let mut nm = NetmapClient::open(&mut machine, task).expect("open netmap");
    if fastpath {
        machine.enable_fastpath();
    }
    let ops = u64::from(NM_BATCHES);
    measure(&mut machine, ops, |machine| {
        let mut submitted = 0u32;
        for _ in 0..NM_BATCHES {
            while nm.free_slots(machine).expect("slots") < NM_BATCH {
                nm.poll(machine).expect("poll");
            }
            nm.produce(machine, NM_BATCH, 64, 50).expect("produce");
            if fastpath {
                machine
                    .ioctl_pipelined(task, nm.fd, NIOCTXSYNC, 0)
                    .expect("pipelined txsync");
                submitted += 1;
                if submitted == NM_GROUP {
                    for result in machine.flush_pipeline(task).expect("flush") {
                        result.expect("txsync result");
                    }
                    submitted = 0;
                }
            } else {
                nm.txsync(machine).expect("txsync");
            }
        }
        if fastpath && submitted > 0 {
            for result in machine.flush_pipeline(task).expect("flush") {
                result.expect("txsync result");
            }
        }
    })
}

/// The §6.1.1 polled no-op round trip ([`NOOP_OPS`] polls after warm-up).
/// `poll` is neither cacheable nor pipelineable, so the fast path must
/// leave this number untouched.
pub fn noop_polled(fastpath: bool) -> FastpathSide {
    let mut machine = build(Config::ParadicePolling, &[DeviceSpec::Mouse], 1);
    let task = spawn_app(&mut machine, Config::ParadicePolling);
    let fd = machine.open(task, "/dev/input/event0").expect("open");
    if fastpath {
        machine.enable_fastpath();
    }
    for _ in 0..3 {
        let _ = machine.poll(task, fd);
    }
    measure(&mut machine, NOOP_OPS, |machine| {
        for _ in 0..NOOP_OPS {
            machine.poll(task, fd).expect("poll");
        }
    })
}

/// Runs the full ablation: every workload, both sides.
pub fn run_ablation() -> Vec<FastpathComparison> {
    vec![
        FastpathComparison {
            workload: "interactive-ioctl",
            off: interactive_ioctl(false),
            on: interactive_ioctl(true),
        },
        FastpathComparison {
            workload: "netmap-tx",
            off: netmap_tx(false),
            on: netmap_tx(true),
        },
        FastpathComparison {
            workload: "noop-polled-round-trip",
            off: noop_polled(false),
            on: noop_polled(true),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fastpath_halves_the_hot_workloads() {
        // The acceptance bar: ≥ 2× on the two ioctl-heavy workloads.
        for comparison in run_ablation() {
            match comparison.workload {
                "interactive-ioctl" | "netmap-tx" => {
                    assert!(
                        comparison.speedup() >= 2.0,
                        "{}: speedup {:.2} < 2.0 (off {} ns, on {} ns)",
                        comparison.workload,
                        comparison.speedup(),
                        comparison.off.virtual_ns,
                        comparison.on.virtual_ns
                    );
                    assert!(
                        comparison.on.hypercalls < comparison.off.hypercalls,
                        "{}: the fast path must cut hypercalls",
                        comparison.workload
                    );
                    assert!(
                        comparison.on.interrupts < comparison.off.interrupts,
                        "{}: the fast path must cut interrupts",
                        comparison.workload
                    );
                    assert!(comparison.on.grant_cache_hits > 0);
                }
                "noop-polled-round-trip" => {
                    // The regression gate: the exact modelled round trip,
                    // which the fast path must not perturb.
                    for side in [comparison.off, comparison.on] {
                        assert_eq!(side.virtual_ns, NOOP_OPS * 2_650);
                    }
                }
                other => panic!("unknown workload {other}"),
            }
        }
    }

    #[test]
    fn ablation_is_deterministic() {
        assert_eq!(
            run_ablation(),
            run_ablation(),
            "virtual time must make the ablation deterministic"
        );
    }
}
