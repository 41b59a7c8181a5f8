//! One run of one workload: set-up, the timed window(s), the correctness
//! checks, the simulated-time replays and — traced — the per-layer table.

use std::path::PathBuf;
use std::process::Command;

use paradice_hypervisor::engine::EngineKind;

use crate::machine::{self, LayerCounts, MachineKind, MachineRig};
use crate::metrics::{Table, END_TO_END, PER_LAYER};
use crate::pin;
use crate::probes;
use crate::spans::{Span, Spans};
use crate::stats::{peak_rss_mib, Class, Epoch, Spread, Window, CLASSES};
use crate::wall::{self, Fatal, Profile, WallRig, WallSpec};

/// An untraced run sets its workload up again and again, each time in a
/// fresh process (a set-up in a used process is as fast as the allocator's
/// leftovers allow: the same build takes 4 or 9 ms). The set-ups come in
/// batches spread over the run — the window pauses for all but the last —
/// because a set-up is bound by page faults, whose cost on the CI box swings
/// by a quarter over seconds: the fastest of forty set-ups taken within one
/// second says what that second was like (the fastest 5-ms slice of a run's
/// last second spreads by 15 % over ten runs, that of its 15 seconds by 4 %).
/// A batch lasts until its share of a second is spent, at most this many
/// set-ups.
const SETUP_BATCHES: usize = 8;
const SETUP_BATCH_NS: u64 = 1_000_000_000 / SETUP_BATCHES as u64;
const SETUPS_PER_BATCH: usize = 8;
/// The generator thread's spans must sum to the window within this share.
const SPAN_SUM_TOLERANCE: f64 = 0.05;

#[derive(Clone, Copy, Debug)]
pub enum Kind {
    Machine(MachineKind),
    Wall(WallSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Closed-loop clients and the threads they run on.
    pub load: &'static str,
    pub kind: Kind,
    /// Untimed loop steps (ops; rounds on the fast path) between set-up and
    /// the window, sized to a tenth of a second or so.
    pub warmup: u64,
    /// Length of one slice of the window. Slices are short so that some fall
    /// between the box's slow spells, and long enough to hold some thousand
    /// ops (dozens on `machine_bulk_rw`, whose writes take milliseconds).
    pub slice_ms: u64,
    /// Whether `BENCHMARK.json` lists the workload, so that the driver (and
    /// `--aa`) hold its end-to-end metrics to their bounds. An ungated
    /// workload runs, is checked and is reported like the others.
    pub gated: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "machine_ioctl_sync",
        why: "the paper's headline crossing through the real stack: per-op overhead dominates, bytes are negligible",
        load: "1 client, blocking; 1 thread",
        kind: Kind::Machine(MachineKind::IoctlSync),
        warmup: 50_000,
        slice_ms: 5,
        gated: true,
    },
    Workload {
        name: "machine_ioctl_fastpath",
        why: "same layers used differently (grant cache, ring depth 8, batched mem-ops): a sync-path gain that costs the pipelined path shows here",
        load: "1 client, 8 pipelined ops per flush; 1 thread",
        kind: Kind::Machine(MachineKind::IoctlFastpath),
        warmup: 8_000,
        slice_ms: 5,
        gated: true,
    },
    Workload {
        name: "machine_bulk_rw",
        why: "16-KiB writes beside reads through JIT grant derivation and nested copies: bytes dominate, crossings are negligible",
        load: "1 client, blocking, write/read alternating; 1 thread",
        kind: Kind::Machine(MachineKind::BulkRw),
        warmup: 20,
        slice_ms: 50,
        gated: true,
    },
    Workload {
        name: "wall_1g_pipelined",
        why: "ring + codec + validate cost with no guest scan and reused grants: the control for the scale collapse",
        load: "1 guest x 16 in flight; 1 generator thread + 1 backend thread",
        kind: Kind::Wall(WallSpec {
            guests: 1,
            profile: Profile::Mixed,
            depth: 16,
            reuse: true,
        }),
        warmup: 50_000,
        slice_ms: 5,
        // The backend outruns the one generator thread, catches up with it
        // every few microseconds, and whether it then parks (a futex wait,
        // and a futex wake inside the next submit) is decided by a race a
        // few hundred nanoseconds wide. The pipeline flips between a regime
        // without parks (2.5 M ops/s) and several with (1.0–1.7 M), stays in
        // one for seconds to minutes, and which one depends on how fast the
        // box happens to be. Ten runs spread by 4 to 40 % whichever slice is
        // picked: a number to read beside the others, not one to gate on.
        gated: false,
    },
    Workload {
        name: "wall_1000g_mixed",
        why: "backend scan, fair-share pick and frontend poll are O(guests) per op here and absent at one guest; declare-bound grants",
        load: "1000 guests x 4 in flight; 1 generator thread + 1 backend thread",
        kind: Kind::Wall(WallSpec {
            guests: 1000,
            profile: Profile::Mixed,
            depth: 4,
            reuse: false,
        }),
        warmup: 4_000,
        slice_ms: 50,
        gated: true,
    },
    Workload {
        name: "wall_flood_100g",
        why: "performance isolation: one light guest's latency beside 99 guests holding their queues at the cap",
        load: "guest 0 x 1 in flight + 99 guests x 16 in flight; 1 generator thread + 1 backend thread",
        kind: Kind::Wall(WallSpec {
            guests: 100,
            profile: Profile::Flood,
            depth: 16,
            reuse: false,
        }),
        warmup: 30_000,
        slice_ms: 50,
        gated: true,
    },
];

#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    /// Length of the timed window in one-second slices.
    pub seconds: u64,
    pub traced: bool,
    /// One set-up, a tenth of the warm-up: correctness only.
    pub quick: bool,
}

pub struct Check {
    pub what: String,
    pub ok: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Refusals the workload provokes on purpose (rogue ioctls answered
    /// `EFAULT`, submits into a full queue answered `Backpressure`).
    pub expected_refusals: u64,
    pub checks: Vec<Check>,
    pub table: Table,
    /// Simulated time, printed with every run (the traced run's table
    /// carries it too).
    pub sim_ns_per_op: f64,
    pub sim_light_p50_ns: f64,
    pub warmup: u64,
    pub setups: usize,
    /// Whether the workload's threads were pinned to CPUs of their own.
    pub pinned: bool,
    pub slices: usize,
    pub slice_ms: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

enum Rig {
    Machine(Box<MachineRig>),
    Wall(Box<WallRig>),
}

struct Totals {
    attempted: u64,
    failed: u64,
    expected_refusals: u64,
    wall: Option<wall::Finished>,
}

impl Rig {
    /// Everything from process start to the first completed operations:
    /// build, open, staging, pipeline fill, and the few first steps, which
    /// pay for whatever the system sets up lazily. The warm-up proper is not
    /// part of it, so work a change moves into set-up shows undiluted.
    fn setup(kind: Kind, seed: u64, epoch: Epoch) -> Result<Rig, Fatal> {
        let (mut rig, first_steps) = match kind {
            Kind::Machine(kind) => (
                Rig::Machine(Box::new(MachineRig::setup(kind, seed, false, epoch)?)),
                match kind {
                    MachineKind::IoctlSync => 8,
                    MachineKind::IoctlFastpath => 1,
                    MachineKind::BulkRw => 2,
                },
            ),
            Kind::Wall(spec) => (
                Rig::Wall(Box::new(WallRig::setup(
                    spec,
                    seed,
                    EngineKind::Wall,
                    epoch,
                )?)),
                1,
            ),
        };
        rig.warm_up(first_steps)?;
        Ok(rig)
    }

    /// Runs the timed window, stopping its clock `pauses` times at equal
    /// distances to run `between`.
    fn run_window(
        &mut self,
        slices: usize,
        slice_ns: u64,
        traced: bool,
        pauses: usize,
        between: &mut dyn FnMut() -> Result<(), Fatal>,
        epoch: Epoch,
    ) -> Result<(Window, LayerCounts), Fatal> {
        match self {
            Rig::Machine(rig) => rig.run_window(slices, slice_ns, traced, pauses, between),
            Rig::Wall(rig) => Ok((
                rig.run_window(slices, slice_ns, traced, pauses, between, epoch)?,
                LayerCounts::default(),
            )),
        }
    }

    fn warm_up(&mut self, steps: u64) -> Result<(), Fatal> {
        match self {
            Rig::Machine(rig) => rig.warm_up(steps),
            Rig::Wall(rig) => rig.warm_up(steps),
        }
    }

    fn build_ns(&self) -> u64 {
        match self {
            Rig::Machine(rig) => rig.build_ns,
            Rig::Wall(rig) => rig.build_ns,
        }
    }

    fn pinned(&self) -> bool {
        match self {
            Rig::Machine(rig) => rig.pinned,
            Rig::Wall(rig) => rig.pinned,
        }
    }

    fn take_spans(&mut self, epoch: Epoch) -> Spans {
        let spans = match self {
            Rig::Machine(rig) => &mut rig.spans,
            Rig::Wall(rig) => &mut rig.spans,
        };
        std::mem::replace(spans, Spans::new(false, epoch))
    }

    /// Drains and stops the rig (joining the engine's backend thread) and
    /// checks what can only be checked at the end.
    fn finish(self) -> Result<Totals, Fatal> {
        match self {
            Rig::Machine(rig) => Ok(Totals {
                attempted: rig.attempted,
                failed: rig.failed,
                expected_refusals: 0,
                wall: None,
            }),
            Rig::Wall(rig) => {
                let finished = rig.finish()?;
                Ok(Totals {
                    attempted: finished.counts.submitted + finished.counts.backpressure,
                    failed: finished.counts.failed,
                    expected_refusals: finished.counts.rogue_refused + finished.counts.backpressure,
                    wall: Some(finished),
                })
            }
        }
    }
}

/// Simulated-time numbers of one workload, from a fixed replay.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Sim {
    ns_per_op: f64,
    light_p50_ns: f64,
    failed: u64,
}

/// Replays the workload twice on the virtual clock; the two must agree to
/// the bit.
fn sim_replays(kind: Kind, seed: u64, epoch: Epoch) -> Result<(Sim, bool), Fatal> {
    match kind {
        Kind::Machine(kind) => {
            let first = machine::sim_replay(kind, seed, epoch)?;
            let second = machine::sim_replay(kind, seed, epoch)?;
            let sim = Sim {
                ns_per_op: first.counts.sim_ns as f64 / first.counts.ops.max(1) as f64,
                light_p50_ns: 0.0,
                failed: first.failed,
            };
            Ok((sim, first == second))
        }
        Kind::Wall(spec) => {
            let first = wall::sim_replay(spec, seed, epoch)?;
            let second = wall::sim_replay(spec, seed, epoch)?;
            let sim = Sim {
                ns_per_op: first.ns_per_op(),
                light_p50_ns: first.light_p50_ns as f64,
                failed: first.counts.failed,
            };
            Ok((sim, first == second))
        }
    }
}

/// `--setup-only`: sets the workload up, prints the seconds since process
/// start, and winds the rig down.
pub fn setup_only(workload: &Workload, seed: u64) -> Result<(), Fatal> {
    let epoch = Epoch::start();
    let _rig = Rig::setup(workload.kind, seed, epoch)?;
    println!("{}", epoch.ns() as f64 / 1e9);
    // Nothing is measured or checked past this point: leave without
    // draining a thousand guests' queues.
    std::process::exit(0)
}

fn setup_in_fresh_process(workload: &str, seed: u64) -> Result<f64, Fatal> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .output()
        .map_err(|e| format!("spawning a set-up: {e}"))?;
    let seconds = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse::<f64>();
    match (output.status.success(), seconds) {
        (true, Ok(seconds)) => Ok(seconds),
        _ => Err(format!(
            "a set-up in a fresh process failed ({})",
            output.status
        )),
    }
}

pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.jsonl"))
}

pub fn run(workload: &Workload, plan: Plan) -> Result<Outcome, Fatal> {
    let epoch = Epoch::start();
    let kind = workload.kind;
    let warmup = if plan.quick {
        workload.warmup / 10
    } else {
        workload.warmup
    };
    let mut rig = Rig::setup(kind, plan.seed, epoch)?;
    let mut setup_s = vec![epoch.ns() as f64 / 1e9];
    let (build_ns, pinned) = (rig.build_ns(), rig.pinned());
    rig.warm_up(warmup)?;

    // Traced, the window is split: an untraced half as the reference the
    // traced half's rate is compared with.
    let seconds = if plan.traced {
        (plan.seconds / 2).max(1)
    } else {
        plan.seconds
    };
    let slice_ms = workload.slice_ms;
    let slice_ns = slice_ms * 1_000_000;
    let slices = (seconds * 1_000 / slice_ms) as usize;
    let measures_setups = !(plan.traced || plan.quick);
    let mut setup_batch = || -> Result<(), Fatal> {
        // A process started here inherits this thread's CPU mask.
        pin::release_current();
        let started = epoch.ns();
        for _ in 0..SETUPS_PER_BATCH {
            setup_s.push(setup_in_fresh_process(workload.name, plan.seed)?);
            if epoch.ns() - started >= SETUP_BATCH_NS {
                break;
            }
        }
        if pinned {
            pin::pin_current(0);
        }
        Ok(())
    };
    let pauses = if measures_setups {
        SETUP_BATCHES - 1
    } else {
        0
    };
    let (reference, _) =
        rig.run_window(slices, slice_ns, false, pauses, &mut setup_batch, epoch)?;
    let traced = if plan.traced {
        Some(rig.run_window(slices, slice_ns, true, 0, &mut setup_batch, epoch)?)
    } else {
        None
    };
    let spans = rig.take_spans(epoch);
    let totals = rig.finish()?;
    let peak_rss = peak_rss_mib();
    if measures_setups {
        setup_batch()?;
    }

    let mut checks = Vec::new();
    let (sim, identical) = sim_replays(kind, plan.seed, epoch)?;
    checks.push(Check {
        what: "two simulated-time replays of the seed agree to the bit".into(),
        ok: identical,
    });
    checks.push(Check {
        what: "no simulated-time op failed".into(),
        ok: sim.failed == 0,
    });
    if let Some(finished) = &totals.wall {
        let counts = finished.counts;
        checks.push(Check {
            what: format!(
                "canaries: {} of {} rogue ioctls came back EFAULT, {} submit(s) into a full queue came back Backpressure",
                counts.rogue_refused, counts.rogue_submitted, counts.backpressure
            ),
            ok: counts.rogue_refused == counts.rogue_submitted && counts.backpressure > 0,
        });
    }

    let table = match traced {
        None => {
            let mut table = Table::new(END_TO_END);
            // Noise only ever lengthens a set-up: the fastest is reported.
            let setups = Spread::of(&setup_s);
            table.set_spread(
                "setup_s",
                Spread {
                    picked: setups.min,
                    ..setups
                },
            );
            table.set_spread("host_ops_per_s", reference.ops_per_s());
            table.set_spread("host_p50_us", reference.p50_us());
            table.set("peak_rss_mib", peak_rss);
            table
        }
        Some((window, counts)) => {
            let mut table = Table::new(PER_LAYER);
            spans
                .dump(&trace_path(workload.name), workload.name, plan.seed)
                .map_err(|e| format!("writing the span file: {e}"))?;
            let span_sum_ratio = spans.tiled_ns() as f64 / window.len_ns() as f64;
            checks.push(Check {
                what: format!(
                    "generator-thread spans sum to the window within {:.0} % (ratio {span_sum_ratio:.4})",
                    SPAN_SUM_TOLERANCE * 100.0
                ),
                ok: (span_sum_ratio - 1.0).abs() <= SPAN_SUM_TOLERANCE,
            });
            let untraced_rate = reference.ops_per_s().picked;
            let (rate, p50) = (window.ops_per_s(), window.p50_us());
            let traced_rate = rate.picked;
            table.set("host.ops_per_s_median_slice", rate.median);
            table.set("host.ops_per_s_fastest_slice", rate.max);
            table.set("host.p50_us_median_slice", p50.median);
            table.set("host.p50_us_fastest_slice", p50.min);
            table.set("trace.overhead_ratio", traced_rate / untraced_rate);
            table.set("trace.span_sum_ratio", span_sum_ratio);
            table.set(
                "trace.gen_ratio",
                spans.total(Span::Gen).ns as f64 / spans.tiled_ns().max(1) as f64,
            );
            table.set("core.machine.build_ns", build_ns as f64);
            table.set("sim.ns_per_op", sim.ns_per_op);
            table.set("sim.light_p50_ns", sim.light_p50_ns);
            let gated = window.gated();
            table.set("host.p99_us", gated.quantile_ns(0.99) / 1e3);
            table.set("host.p99_samples", gated.samples() as f64);
            for class in CLASSES {
                let name = format!("host.{}_p50_us", class.name());
                table.set(&name, window.class(class).quantile_ns(0.5) / 1e3);
            }
            table.set(
                "run.failed_ratio",
                totals.failed as f64 / totals.attempted.max(1) as f64,
            );
            table.set("run.expected_refusals", totals.expected_refusals as f64);
            match kind {
                Kind::Wall(spec) => wall_layers(&mut table, spec, &spans, &totals, untraced_rate),
                Kind::Machine(kind) => {
                    machine_layers(&mut table, kind, &window, counts, &spans, plan.seed, epoch)?
                }
            }
            table
        }
    };

    Ok(Outcome {
        attempted: totals.attempted,
        failed: totals.failed,
        expected_refusals: totals.expected_refusals,
        checks,
        table,
        sim_ns_per_op: sim.ns_per_op,
        sim_light_p50_ns: sim.light_p50_ns,
        warmup,
        setups: setup_s.len(),
        pinned,
        slices,
        slice_ms,
    })
}

fn wall_layers(
    table: &mut Table,
    spec: WallSpec,
    spans: &Spans,
    totals: &Totals,
    untraced_rate: f64,
) {
    for (name, span) in [
        ("cvd.proto.encode_ns", Span::Encode),
        ("cvd.proto.decode_ns", Span::Decode),
        ("hypervisor.shards.declare_ns", Span::Declare),
        ("hypervisor.shards.revoke_ns", Span::Revoke),
        ("cvd.multi.submit_ns", Span::Submit),
        ("cvd.multi.complete_poll_ns", Span::CompletePoll),
        ("cvd.multi.complete_wait_ns", Span::CompleteWait),
    ] {
        table.set(name, spans.total(span).mean_ns());
    }
    let tiled = spans.tiled_ns().max(1) as f64;
    let waited = spans.total(Span::CompleteWait).ns as f64;
    table.set("cvd.multi.frontend_busy_ratio", (tiled - waited) / tiled);
    if let Some(finished) = &totals.wall {
        table.set("hypervisor.shards.declares", finished.declares as f64);
        table.set(
            "hypervisor.shards.seq_used_max_ratio",
            finished.seq_used_max_ratio,
        );
        table.set(
            "cvd.multi.backpressure",
            finished.counts.backpressure as f64,
        );
    }

    // Grants live in a guest's shard while the workload runs: the reuse
    // table, or one per op in flight.
    let live_grants = if spec.reuse { 32 } else { spec.depth };
    let probed = probes::wall_probes(spec.guests, live_grants);
    table.set("cvd.proto.request_decode_ns", probed.request_decode_ns);
    table.set("hypervisor.shards.validate_ns", probed.validate_ns);
    table.set("hypervisor.aring.push_pop_ns", probed.push_pop_ns);
    table.set("hypervisor.aring.empty_scan_ns", probed.empty_scan_ns);
    table.set("hypervisor.aring.handoff_ns", probed.handoff_ns);
    table.set("cvd.fairq.pick_ns", probed.pick_ns);
    table.set("cvd.exec.serve_ns", probed.serve_ns);
    // The scripted service performs 2 / 1 / 0 memory operations for an
    // ioctl / write / read.
    let memops_per_op = 1.0;
    let model = probed.backend_model_ns(memops_per_op);
    let measured = 1e9 / untraced_rate.max(1.0);
    table.set("cvd.multi.backend_model_ns", model);
    table.set(
        "cvd.multi.backend_unattributed_ratio",
        (1.0 - model / measured).max(0.0),
    );
}

fn machine_layers(
    table: &mut Table,
    kind: MachineKind,
    window: &Window,
    counts: LayerCounts,
    spans: &Spans,
    seed: u64,
    epoch: Epoch,
) -> Result<(), Fatal> {
    let ops = counts.ops.max(1) as f64;
    table.set(
        "core.machine.call_ns",
        spans.total(Span::MachineCall).mean_ns(),
    );
    table.set(
        "hypervisor.hv.hypercalls_per_op",
        counts.hypercalls as f64 / ops,
    );
    table.set(
        "hypervisor.channel.interrupts_per_op",
        counts.interrupts as f64 / ops,
    );
    table.set(
        "hypervisor.channel.coalesced_per_op",
        counts.coalesced as f64 / ops,
    );
    table.set(
        "hypervisor.channel.bytes_per_op",
        counts.channel_bytes as f64 / ops,
    );
    table.set(
        "cvd.frontend.grants_declared_per_op",
        counts.grants_declared as f64 / ops,
    );
    table.set(
        "cvd.frontend.jit_evals_per_op",
        counts.jit_evaluations as f64 / ops,
    );
    let lookups = counts.grant_cache_hits + counts.grants_declared;
    table.set(
        "cvd.frontend.grant_cache_hit_ratio",
        counts.grant_cache_hits as f64 / lookups.max(1) as f64,
    );
    table.set("cvd.frontend.grants_for_ns", probes::grants_for_ns(kind)?);

    // The same ops with the driver and device model only, and a
    // process-memory copy of the op's size on the virtualized machine.
    let (steps, copy_bytes, gated) = match kind {
        MachineKind::IoctlSync => (20_000, 16, Class::Ioctl),
        MachineKind::IoctlFastpath => (2_500, 16, Class::Ioctl),
        MachineKind::BulkRw => (400, machine::BULK_BYTES, Class::Write),
    };
    let mut native = MachineRig::setup(kind, seed, true, epoch)?;
    native.warm_up(steps / 10)?;
    let native_ns = native.median_latency_ns(steps)?;
    let mut paradice = MachineRig::setup(kind, seed, false, epoch)?;
    table.set(
        "hypervisor.hv.process_copy_ns",
        probes::process_copy_ns(&mut paradice, copy_bytes)?,
    );
    table.set("drivers.native_op_ns", native_ns);
    let stack_ns = window.class(gated).quantile_ns(0.5);
    table.set("cvd.stack_overhead_ns", stack_ns - native_ns);
    Ok(())
}
