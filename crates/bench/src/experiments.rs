//! One entry point per table and figure of the paper's evaluation.
//!
//! Every function returns a [`Table`] whose rows put our measurement next
//! to the paper's reported value where one exists; EXPERIMENTS.md archives
//! the output and the comparison discussion.

use std::fs;
use std::path::{Path, PathBuf};

use paradice::attack;
use paradice::compare;
use paradice::prelude::*;
use paradice_analyzer::diff::{diff_handlers, CommandDelta};
use paradice_analyzer::extract::analyze_handler;
use paradice_drivers::gpu::ir::{radeon_handler_2_6_35, radeon_handler_3_2_0};

use crate::calib;
use crate::configs::{build, Config};
use crate::report::{Cell, Table};
use crate::workloads;

/// Table 1: the paravirtualized device roster.
pub fn table1() -> Table {
    let mut table = Table::new(
        "table1",
        "Table 1 — I/O devices paravirtualized (paper roster → our implementation)",
        &["Class", "Paper class-specific LoC", "Device", "Driver", "Our module"],
    );
    let rows: [(&str, u32, &str, &str, &str); 6] = [
        ("GPU", 92, "ATI Radeon HD 6450", "DRM/Radeon", "paradice-drivers::gpu"),
        ("Input", 58, "Dell USB Mouse", "evdev/usbmouse", "paradice-drivers::evdev"),
        ("Input", 58, "Dell USB Keyboard", "evdev/usbkbd", "paradice-drivers::evdev"),
        ("Camera", 43, "Logitech HD Pro Webcam C920", "V4L2/UVC", "paradice-drivers::camera"),
        ("Audio", 37, "Intel Panther Point HD Audio", "PCM/snd-hda-intel", "paradice-drivers::audio"),
        ("Ethernet", 21, "Intel Gigabit Adapter", "netmap/e1000e", "paradice-drivers::netmap"),
    ];
    for (class, loc, device, driver, module) in rows {
        table.row(vec![
            class.into(),
            Cell::Num(f64::from(loc), 0),
            device.into(),
            driver.into(),
            module.into(),
        ]);
    }
    table
}

/// Code lines of one source file: non-blank, non-comment, up to its first
/// `#[cfg(test)]` (unit tests are not part of what ships).
fn count_file(path: &Path) -> u64 {
    let Ok(content) = fs::read_to_string(path) else {
        return 0;
    };
    content
        .lines()
        .map(str::trim)
        .take_while(|l| !l.starts_with("#[cfg(test)]"))
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count() as u64
}

fn count_loc(dir: &Path) -> u64 {
    let mut total = 0u64;
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                total += count_loc(&path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                total += count_file(&path);
            }
        }
    }
    total
}

/// The modules a guest's file operation crosses between the virtual device
/// file and the hypervisor's memory operations: the class-agnostic CVD and
/// the hypervisor API. These are the paper's rows for it (3 881 + 1 349
/// lines).
const PAPER_TRUSTED_PATH: [&str; 4] = [
    "CVD frontend (Linux)",
    "CVD backend",
    "CVD shared",
    "Paradice hypervisor API (Xen)",
];

/// Our modules answering to [`PAPER_TRUSTED_PATH`], `(crate, modules)`.
const TRUSTED_PATH: [(&str, &[&str]); 2] = [
    (
        "cvd",
        &["frontend", "backend", "proto", "memops", "cache", "info", "sharing"],
    ),
    (
        "hypervisor",
        &["channel", "aring", "grants", "shards", "hv", "regions", "audit", "vm"],
    ),
];

/// Table 2: code inventory — the paper's component breakdown next to our
/// per-crate line counts (counted live from the source tree, comments,
/// blanks and unit-test modules excluded, like the paper's CLOC usage), and
/// the trusted path — the part of ours that answers to the paper's CVD +
/// hypervisor API — beside the paper's figure for it.
pub fn table2() -> Table {
    let mut table = Table::new(
        "table2",
        "Table 2 — code breakdown (paper components vs. this repository)",
        &["Paper component", "Paper LoC", "", "Our crate", "Our LoC"],
    );
    let crates_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let ours: Vec<(String, u64)> = [
        "mem",
        "devfs",
        "hypervisor",
        "analyzer",
        "drivers",
        "cvd",
        "core",
        "bench",
        "verify",
        "adversary",
        "trace",
        "faults",
    ]
    .iter()
    .map(|name| {
        (
            format!("paradice-{name}"),
            count_loc(&crates_dir.join(name).join("src")),
        )
    })
    .collect();
    let paper = calib::PAPER_TABLE2;
    let rows = paper.len().max(ours.len());
    for i in 0..rows {
        let (paper_name, paper_loc) = paper
            .get(i)
            .map(|(n, l)| ((*n).to_string(), Cell::Num(f64::from(*l), 0)))
            .unwrap_or((String::new(), Cell::Empty));
        let (our_name, our_loc) = ours
            .get(i)
            .map(|(n, l)| (n.clone(), Cell::Num(*l as f64, 0)))
            .unwrap_or((String::new(), Cell::Empty));
        table.row(vec![
            paper_name.into(),
            paper_loc,
            "".into(),
            our_name.into(),
            our_loc,
        ]);
    }
    let paper_total: u32 = paper.iter().map(|(_, l)| *l).sum();
    let our_total: u64 = ours.iter().map(|(_, l)| *l).sum();
    table.row(vec![
        "TOTAL (paper ~7700)".into(),
        Cell::Num(f64::from(paper_total), 0),
        "".into(),
        "TOTAL".into(),
        Cell::Num(our_total as f64, 0),
    ]);
    let paper_trusted: u32 = paper
        .iter()
        .filter(|(name, _)| PAPER_TRUSTED_PATH.contains(name))
        .map(|(_, l)| *l)
        .sum();
    let our_trusted: u64 = TRUSTED_PATH
        .iter()
        .flat_map(|(krate, modules)| {
            let src = crates_dir.join(krate).join("src");
            modules.iter().map(move |m| count_file(&src.join(format!("{m}.rs"))))
        })
        .sum();
    table.row(vec![
        "CVD + hypervisor API".into(),
        Cell::Num(f64::from(paper_trusted), 0),
        "".into(),
        "trusted path (CVD + hypervisor API)".into(),
        Cell::Num(our_trusted as f64, 0),
    ]);
    table
}

/// Table 3: the I/O virtualization comparison matrix.
pub fn table3() -> Table {
    let mut table = Table::new(
        "table3",
        "Table 3 — comparing I/O virtualization solutions",
        &["Strategy", "High Perf.", "Low Effort", "Device Sharing", "Legacy Device"],
    );
    for strategy in compare::ALL_STRATEGIES {
        let caps = compare::capabilities(strategy);
        let yn = |b: bool| if b { "Yes" } else { "No" };
        let sharing = match (caps.device_sharing, caps.sharing_note) {
            (true, Some(_)) => "Yes (limited)".to_owned(),
            (s, _) => yn(s).to_owned(),
        };
        table.row(vec![
            strategy.to_string().into(),
            yn(caps.high_performance).into(),
            yn(caps.low_dev_effort).into(),
            sharing.into(),
            yn(caps.legacy_devices).into(),
        ]);
    }
    table
}

/// §6.1.1: the no-op forwarding overhead.
pub fn noop() -> Table {
    let mut table = Table::new(
        "noop",
        "§6.1.1 — file-operation forwarding overhead (µs)",
        &["Transport", "Measured", "Paper"],
    );
    let int = workloads::noop_forward_us(TransportMode::Interrupts, 1_000);
    let poll = workloads::noop_forward_us(TransportMode::polling_default(), 1_000);
    table.row(vec!["interrupts".into(), Cell::Num(int, 1), Cell::Num(35.0, 1)]);
    table.row(vec!["polling".into(), Cell::Num(poll, 1), Cell::Num(2.0, 1)]);
    table
}

/// Figure 2: netmap transmit rate vs. batch size.
pub fn fig2() -> Table {
    let batches = calib::PAPER_FIG2_BATCHES;
    let mut header = vec!["Config".to_string()];
    for b in batches {
        header.push(format!("batch {b}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "fig2",
        "Figure 2 — netmap transmit rate, 64-byte packets (Mpps)",
        &header_refs,
    );
    let configs = [
        Config::Native,
        Config::Assign,
        Config::Paradice,
        Config::ParadiceFl,
        Config::ParadicePolling,
    ];
    for config in configs {
        let mut row: Vec<Cell> = vec![config.label().into()];
        for batch in batches {
            row.push(Cell::Num(
                workloads::netmap_tx_rate(config, batch, 100_000),
                3,
            ));
        }
        table.row(row);
    }
    let mut line_row: Vec<Cell> = vec!["(line rate)".into()];
    for _ in batches {
        line_row.push(Cell::Num(workloads::netmap_line_rate_mpps(), 3));
    }
    table.row(line_row);
    table
}

/// Figure 3: OpenGL microbenchmark FPS.
pub fn fig3() -> Table {
    let mut table = Table::new(
        "fig3",
        "Figure 3 — OpenGL microbenchmarks (FPS): VBO / VA / DL",
        &["Config", "VBO", "VA", "DL"],
    );
    for config in Config::STANDARD {
        let mut row: Vec<Cell> = vec![config.label().into()];
        for (_, cost) in workloads::OPENGL_BENCHES {
            row.push(Cell::Num(
                workloads::graphics_fps(config, cost, workloads::DEMO_FRAMES),
                1,
            ));
        }
        table.row(row);
    }
    table
}

/// Figure 4: 3D games at four resolutions.
pub fn fig4() -> Table {
    let mut table = Table::new(
        "fig4",
        "Figure 4 — 3D HD games (FPS) at four resolutions",
        &["Game", "Config", "800x600", "1024x768", "1280x1024", "1680x1050"],
    );
    let configs = [
        Config::Native,
        Config::Assign,
        Config::Paradice,
        Config::ParadiceDi,
    ];
    for (game, _) in calib::PAPER_FIG4_NATIVE {
        for config in configs {
            let mut row: Vec<Cell> = vec![game.into(), config.label().into()];
            for res in 0..4 {
                let cost = workloads::game_frame_cost_us(game, res);
                row.push(Cell::Num(
                    workloads::graphics_fps(config, cost, workloads::DEMO_FRAMES / 2),
                    1,
                ));
            }
            table.row(row);
        }
    }
    table
}

/// Figure 5: OpenCL matrix multiplication.
pub fn fig5() -> Table {
    let mut header = vec!["Config".to_string()];
    for order in calib::PAPER_FIG5_ORDERS {
        header.push(format!("order {order}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(
        "fig5",
        "Figure 5 — OpenCL matmul experiment time (s)",
        &header_refs,
    );
    let configs = [
        Config::Native,
        Config::Assign,
        Config::Paradice,
        Config::ParadiceDi,
    ];
    for config in configs {
        let mut row: Vec<Cell> = vec![config.label().into()];
        for order in calib::PAPER_FIG5_ORDERS {
            row.push(Cell::Num(workloads::opencl_matmul_seconds(config, order), 3));
        }
        table.row(row);
    }
    table
}

/// Figure 6: concurrent guests on one GPU.
pub fn fig6() -> Table {
    let mut table = Table::new(
        "fig6",
        "Figure 6 — concurrent OpenCL (order 500, 5 runs/guest): per-guest time (s)",
        &["Guest VMs", "Experiment time", "vs. single"],
    );
    let t1 = workloads::concurrent_matmul_seconds(1);
    for guests in 1..=3 {
        let t = if guests == 1 {
            t1
        } else {
            workloads::concurrent_matmul_seconds(guests)
        };
        table.row(vec![
            Cell::Num(guests as f64, 0),
            Cell::Num(t, 2),
            format!("{:.2}x", t / t1).into(),
        ]);
    }
    table
}

/// §6.1.5: mouse latency.
pub fn mouse() -> Table {
    let mut table = Table::new(
        "mouse",
        "§6.1.5 — mouse event→read latency (µs)",
        &["Config", "Measured", "Paper"],
    );
    for (config, (_, paper)) in [
        Config::Native,
        Config::Assign,
        Config::Paradice,
        Config::ParadicePolling,
    ]
    .into_iter()
    .zip(calib::PAPER_MOUSE_US)
    {
        table.row(vec![
            config.label().into(),
            Cell::Num(workloads::mouse_latency_us(config), 0),
            Cell::Num(paper, 0),
        ]);
    }
    table
}

/// §6.1.6: camera FPS at the three highest MJPG resolutions.
pub fn camera() -> Table {
    let mut table = Table::new(
        "camera",
        "§6.1.6 — camera FPS (paper: ~29.5 everywhere)",
        &["Config", "1280x720", "1600x896", "1920x1080"],
    );
    for config in [Config::Native, Config::Assign, Config::Paradice] {
        let mut row: Vec<Cell> = vec![config.label().into()];
        for (w, h) in [(1280u32, 720u32), (1600, 896), (1920, 1080)] {
            row.push(Cell::Num(workloads::camera_fps(config, w, h, 60), 1));
        }
        table.row(row);
    }
    table
}

/// §6.1.6: audio playback time (10 s of 48 kHz stereo).
pub fn audio() -> Table {
    let mut table = Table::new(
        "audio",
        "§6.1.6 — playback time of a 10-second audio file (s)",
        &["Config", "Playback time"],
    );
    for config in [Config::Native, Config::Assign, Config::Paradice] {
        table.row(vec![
            config.label().into(),
            Cell::Num(workloads::audio_playback_seconds(config, 10), 3),
        ]);
    }
    table
}

/// §4.1: the static analyzer on the Radeon driver, both versions.
pub fn analyzer() -> Table {
    let mut table = Table::new(
        "analyzer",
        "§4.1 — ioctl analyzer on the Radeon driver",
        &["Metric", "2.6.35 driver", "3.2.0 driver", "Paper (full driver)"],
    );
    let old = analyze_handler(&radeon_handler_2_6_35()).expect("analysis");
    let new = analyze_handler(&radeon_handler_3_2_0()).expect("analysis");
    table.row(vec![
        "ioctl commands".into(),
        Cell::Num(old.commands.len() as f64, 0),
        Cell::Num(new.commands.len() as f64, 0),
        "~50".into(),
    ]);
    table.row(vec![
        "static commands".into(),
        Cell::Num(old.static_commands() as f64, 0),
        Cell::Num(new.static_commands() as f64, 0),
        "majority".into(),
    ]);
    table.row(vec![
        "nested-copy commands".into(),
        Cell::Num(old.nested_copy_commands() as f64, 0),
        Cell::Num(new.nested_copy_commands() as f64, 0),
        Cell::Num(calib::PAPER_ANALYZER_NESTED as f64, 0),
    ]);
    table.row(vec![
        "extracted statements".into(),
        Cell::Num(old.extracted_statements() as f64, 0),
        Cell::Num(new.extracted_statements() as f64, 0),
        "~760 lines".into(),
    ]);
    let diff = diff_handlers(&radeon_handler_2_6_35(), &radeon_handler_3_2_0())
        .expect("diff");
    table.row(vec![
        "common cmds identical".into(),
        Cell::Empty,
        Cell::Num(diff.count(CommandDelta::Identical) as f64, 0),
        "all".into(),
    ]);
    table.row(vec![
        "new cmds in 3.2.0".into(),
        Cell::Empty,
        Cell::Num(diff.count(CommandDelta::Added) as f64, 0),
        Cell::Num(4.0, 0),
    ]);
    table
}

/// §4/§6: the attack suite plus the cost of isolation.
pub fn isolation() -> Table {
    let mut table = Table::new(
        "isolation",
        "§4/§6 — isolation: attacks blocked, and its performance cost",
        &["Check", "Result"],
    );
    let mut machine = build(Config::ParadiceDi, &[DeviceSpec::gpu(), DeviceSpec::Mouse], 2);
    for outcome in attack::run_all(&mut machine) {
        table.row(vec![
            format!("attack: {}", outcome.name).into(),
            if outcome.blocked {
                format!(
                    "BLOCKED by {}",
                    outcome
                        .blocked_by
                        .map(|b| b.to_string())
                        .unwrap_or_else(|| "unattributed".into())
                )
                .into()
            } else {
                "NOT BLOCKED".into()
            },
        ]);
    }
    // Performance cost of data isolation (paper: "no noticeable impact").
    let gl_plain = workloads::graphics_fps(Config::Paradice, 5_800, 120);
    let gl_di = workloads::graphics_fps(Config::ParadiceDi, 5_800, 120);
    table.row(vec![
        "OpenGL VBO FPS (Paradice / Paradice-DI)".into(),
        format!("{gl_plain:.1} / {gl_di:.1} ({:+.1}%)", (gl_di / gl_plain - 1.0) * 100.0).into(),
    ]);
    let cl_plain = workloads::opencl_matmul_seconds(Config::Paradice, 500);
    let cl_di = workloads::opencl_matmul_seconds(Config::ParadiceDi, 500);
    table.row(vec![
        "OpenCL-500 time (Paradice / Paradice-DI)".into(),
        format!("{cl_plain:.3}s / {cl_di:.3}s ({:+.1}%)", (cl_di / cl_plain - 1.0) * 100.0).into(),
    ]);
    table
}

/// Design-choice ablations: what each mechanism and constant buys.
pub fn ablation() -> Table {
    let mut table = Table::new(
        "ablation",
        "Ablations — transport choices, interrupt cost, spin budget, grant checks",
        &["Ablation", "Setting", "Metric", "Value"],
    );
    // 1. Transport comparison on the cheap-op round trip.
    for (name, config) in [
        ("interrupts", Config::Paradice),
        ("polling", Config::ParadicePolling),
        ("remote 25µs", Config::ParadiceRemote),
    ] {
        let us = {
            let mut machine = build(config, &[DeviceSpec::Mouse], 1);
            let task = crate::configs::spawn_app(&mut machine, config);
            let fd = machine.open(task, "/dev/input/event0").expect("open");
            for _ in 0..3 {
                let _ = machine.poll(task, fd);
            }
            let start = machine.now_ns();
            for _ in 0..200 {
                machine.poll(task, fd).expect("poll");
            }
            (machine.now_ns() - start) as f64 / 200.0 / 1e3
        };
        table.row(vec![
            "transport".into(),
            name.into(),
            "op round trip (µs)".into(),
            Cell::Num(us, 1),
        ]);
    }
    // 2. Inter-VM interrupt cost sweep: netmap at batch 16.
    for interrupt_us in [5u64, 17, 35] {
        let mut cost = calib::cost_model();
        cost.intervm_interrupt_ns = interrupt_us * 1_000;
        let mpps = {
            let mut machine = Machine::builder()
                .mode(ExecMode::Paradice {
                    transport: TransportMode::Interrupts,
                    data_isolation: false,
                })
                .guest(paradice::machine::GuestSpec::linux())
                .device(DeviceSpec::Netmap)
                .cost_model(cost)
                .build()
                .expect("machine builds");
            let task = machine.spawn_process(Some(0)).expect("spawn");
            netmap_rate_on(&mut machine, task, 16, 20_000)
        };
        table.row(vec![
            "interrupt cost".into(),
            format!("{interrupt_us} µs").into(),
            "netmap @ batch 16 (Mpps)".into(),
            Cell::Num(mpps, 3),
        ]);
    }
    // 3. Polling spin budget: a 0 budget degenerates to interrupts for the
    // *first* op after any pause; 200 µs (the paper's choice) keeps the
    // channel hot across back-to-back ops.
    for spin_us in [0u64, 50, 200, 1000] {
        let mpps = {
            let mut machine = Machine::builder()
                .mode(ExecMode::Paradice {
                    transport: TransportMode::Polling {
                        spin_budget_ns: spin_us * 1_000,
                    },
                    data_isolation: false,
                })
                .guest(paradice::machine::GuestSpec::linux())
                .device(DeviceSpec::Netmap)
                .build()
                .expect("machine builds");
            let task = machine.spawn_process(Some(0)).expect("spawn");
            netmap_rate_on(&mut machine, task, 4, 20_000)
        };
        table.row(vec![
            "polling spin".into(),
            format!("{spin_us} µs").into(),
            "netmap @ batch 4 (Mpps)".into(),
            Cell::Num(mpps, 3),
        ]);
    }
    // 4. GPU scheduling (§8's fairness limitation and its TimeGraph-style
    // fix): a light guest's 1 ms job behind a heavy guest's 10×10 ms queue.
    // Fair share is the shipped default since ISSUE 10; the ablation
    // toggles *back* to the stock FIFO to reproduce the starvation row.
    for (name, fifo) in [("fair share (default)", false), ("FIFO (ablation)", true)] {
        let ns = sched_latency_ns(fifo);
        table.row(vec![
            "gpu scheduling".into(),
            name.into(),
            "light-guest 1 ms job latency".into(),
            format!("{:.1} ms", ns as f64 / 1e6).into(),
        ]);
    }
    // 5. Grant validation (devirtualization, Figure 1(b)).
    for (setting, ablated) in [("Paradice", false), ("devirtualization", true)] {
        let blocked = {
            let mut machine = build(Config::Paradice, &[DeviceSpec::gpu()], 1);
            if ablated {
                machine.enable_devirtualization_ablation();
            }
            attack::ungranted_copy(&mut machine, 0).blocked_by.is_some()
        };
        table.row(vec![
            "grant checks".into(),
            setting.into(),
            "ungranted copy blocked by validation".into(),
            if blocked { "yes" } else { "NO" }.into(),
        ]);
    }
    table
}

/// The cross-layer fast-path ablation: each workload with the fast path
/// off (per-op declare → interrupt → validate → revoke) and on (grant
/// cache + pipelined ring + vectored hypercalls), with the crossing
/// *counts* the overhead argument rests on.
pub fn fastpath() -> Table {
    let mut table = Table::new(
        "fastpath",
        "Fast-path ablation — virtual time and boundary crossings, off vs. on",
        &[
            "Workload",
            "Fast path",
            "µs/op",
            "Hypercalls",
            "Interrupts",
            "Coalesced",
            "Cache hits",
            "Speedup",
        ],
    );
    for comparison in crate::fastpath::run_ablation() {
        for (name, side) in [("off", &comparison.off), ("on", &comparison.on)] {
            table.row(vec![
                comparison.workload.into(),
                name.into(),
                Cell::Num(side.us_per_op(), 2),
                Cell::Num(side.hypercalls as f64, 0),
                Cell::Num(side.interrupts as f64, 0),
                Cell::Num(side.coalesced as f64, 0),
                Cell::Num(side.grant_cache_hits as f64, 0),
                if name == "on" {
                    format!("{:.2}x", comparison.speedup()).into()
                } else {
                    Cell::Empty
                },
            ]);
        }
    }
    table
}

/// Engine-level fairness probe: time until a light guest's 1 ms job
/// completes behind a heavy guest's 10×10 ms queue. The driver defaults
/// to fair share; `fifo` toggles the ablation back to the stock policy.
pub(crate) fn sched_latency_ns(fifo: bool) -> u64 {
    use paradice_drivers::gpu::model::GpuSched;
    let mut machine = build(Config::Paradice, &[DeviceSpec::gpu()], 2);
    let Some(paradice::machine::DriverHandle::Gpu(gpu)) = machine.driver("/dev/dri/card0")
    else {
        unreachable!("card0 is the GPU");
    };
    if fifo {
        gpu.borrow_mut().gpu_mut().set_sched(GpuSched::Fifo);
    }
    let heavy = machine.spawn_process(Some(0)).expect("spawn heavy");
    let heavy_drm = paradice::app::drm::DrmClient::open(&mut machine, heavy).expect("open");
    let hfb = heavy_drm
        .gem_create(&mut machine, PAGE_SIZE, paradice::gpu_ioctl::gem_domain::VRAM)
        .expect("bo");
    for _ in 0..10 {
        heavy_drm
            .submit_render(&mut machine, 10_000, hfb)
            .expect("render");
    }
    let light = machine.spawn_process(Some(1)).expect("spawn light");
    let light_drm = paradice::app::drm::DrmClient::open(&mut machine, light).expect("open");
    let lfb = light_drm
        .gem_create(&mut machine, PAGE_SIZE, paradice::gpu_ioctl::gem_domain::VRAM)
        .expect("bo");
    let t0 = machine.now_ns();
    let fence = light_drm
        .submit_render(&mut machine, 1_000, lfb)
        .expect("render");
    gpu.borrow_mut().gpu_mut().wait_fence(u64::from(fence)).expect("wait");
    machine.now_ns() - t0
}

fn netmap_rate_on(machine: &mut Machine, task: TaskId, batch: u32, total: u64) -> f64 {
    use paradice::app::netmap::NetmapClient;
    let mut nm = NetmapClient::open(machine, task).expect("open netmap");
    let start = machine.now_ns();
    let mut sent = 0u64;
    while sent < total {
        let n = batch
            .min(nm.free_slots(machine).expect("slots"))
            .min((total - sent) as u32);
        if n == 0 {
            nm.poll(machine).expect("poll");
            continue;
        }
        nm.produce(machine, n, 64, 50).expect("produce");
        nm.poll(machine).expect("poll");
        sent += u64::from(n);
    }
    let nic_done = match machine.driver("/dev/netmap").expect("nic") {
        paradice::machine::DriverHandle::Netmap(d) => d.borrow().nic_busy_until_ns(),
        _ => unreachable!(),
    };
    sent as f64 / ((nic_done.max(machine.now_ns()) - start) as f64 / 1e9) / 1e6
}

/// All experiments, in paper order.
pub fn all() -> Vec<Table> {
    vec![
        table1(),
        table2(),
        table3(),
        noop(),
        fig2(),
        fig3(),
        fig4(),
        fig5(),
        fig6(),
        mouse(),
        camera(),
        audio(),
        analyzer(),
        isolation(),
        ablation(),
        fastpath(),
    ]
}
