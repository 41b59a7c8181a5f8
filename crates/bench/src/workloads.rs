//! The §6 workloads.
//!
//! Each function runs one benchmark application on a machine built for a
//! [`Config`] and reports the metric the paper reports. All time is virtual,
//! so results are bit-identical across runs and hosts.

use paradice::app::drm::DrmClient;
use paradice::app::netmap::{line_rate_pps, NetmapClient};
use paradice::app::{pcm, v4l};
use paradice::gpu_ioctl::{gem_domain, info};
use paradice::machine::DriverHandle;
use paradice::prelude::*;

use crate::configs::{build, spawn_app, Config};

/// File operations a GL application issues per frame beyond the CS itself
/// (state queries, buffer maps, throttling): the source of Paradice's
/// constant per-frame overhead (§6.1.3: "Paradice adds a constant overhead
/// to the file operations regardless of the benchmark load").
pub const GL_OPS_PER_FRAME: usize = 18;

/// Frames per graphics measurement (a virtual demo run).
pub const DEMO_FRAMES: usize = 240;

// ---------------------------------------------------------------------
// netmap (Figure 2)
// ---------------------------------------------------------------------

/// Runs the netmap packet generator: `total` 64-byte packets in batches of
/// `batch`, one `poll` per batch (§6.1.2). Returns Mpps.
pub fn netmap_tx_rate(config: Config, batch: u32, total: u64) -> f64 {
    let mut machine = build(config, &[DeviceSpec::Netmap], 1);
    let task = spawn_app(&mut machine, config);
    let mut nm = NetmapClient::open(&mut machine, task).expect("open netmap");
    let start = machine.now_ns();
    let mut sent = 0u64;
    while sent < total {
        let n = batch
            .min(nm.free_slots(&mut machine).expect("slots"))
            .min((total - sent) as u32);
        if n == 0 {
            nm.poll(&mut machine).expect("poll");
            continue;
        }
        nm.produce(&mut machine, n, 64, 50).expect("produce");
        nm.poll(&mut machine).expect("poll");
        sent += u64::from(n);
    }
    let nic_done = match machine.driver("/dev/netmap").expect("nic") {
        DriverHandle::Netmap(d) => d.borrow().nic_busy_until_ns(),
        _ => unreachable!(),
    };
    let elapsed = nic_done.max(machine.now_ns()) - start;
    sent as f64 / (elapsed as f64 / 1e9) / 1e6
}

/// The wire's theoretical maximum, Mpps.
pub fn netmap_line_rate_mpps() -> f64 {
    line_rate_pps(64) / 1e6
}

// ---------------------------------------------------------------------
// GPU graphics (Figures 3 and 4)
// ---------------------------------------------------------------------

/// Runs a render loop of `frames` frames costing `frame_cost_us` of GPU
/// time each, with [`GL_OPS_PER_FRAME`] extra file operations per frame.
/// Returns FPS.
pub fn graphics_fps(config: Config, frame_cost_us: u32, frames: usize) -> f64 {
    let mut machine = build(config, &[DeviceSpec::gpu()], 1);
    let task = spawn_app(&mut machine, config);
    let drm = DrmClient::open(&mut machine, task).expect("open card0");
    let fb = drm
        .gem_create(&mut machine, 32 * PAGE_SIZE, gem_domain::VRAM)
        .expect("framebuffer");
    let start = machine.now_ns();
    for _ in 0..frames {
        for _ in 0..GL_OPS_PER_FRAME {
            drm.info(&mut machine, info::DEVICE_ID).expect("state query");
        }
        drm.submit_render(&mut machine, frame_cost_us, fb).expect("render");
        drm.wait_idle(&mut machine, fb).expect("throttle");
    }
    frames as f64 / ((machine.now_ns() - start) as f64 / 1e9)
}

/// The OpenGL microbenchmarks of Figure 3: full-screen teapot via Vertex
/// Buffer Objects, Vertex Arrays, and Display Lists, with native-calibrated
/// frame costs.
pub const OPENGL_BENCHES: [(&str, u32); 3] = [
    ("VBO", 5_800),  // ~172 FPS native
    ("VA", 6_500),   // ~153 FPS native
    ("DL", 8_250),   // ~121 FPS native
];

/// The games of Figure 4 with per-resolution frame costs (µs) calibrated to
/// the paper's native FPS.
pub fn game_frame_cost_us(game: &str, resolution_index: usize) -> u32 {
    let native_fps = crate::calib::PAPER_FIG4_NATIVE
        .iter()
        .find(|(name, _)| *name == game)
        .map(|(_, fps)| fps[resolution_index])
        .expect("known game");
    (1e6 / native_fps) as u32
}

// ---------------------------------------------------------------------
// GPU compute (Figures 5 and 6)
// ---------------------------------------------------------------------

/// The OpenCL host program's setup cost (context + program compile) before
/// any file operation reaches the driver, virtual ns.
const OPENCL_SETUP_NS: u64 = 150_000_000;

/// Runs the OpenCL matrix-multiplication benchmark for square matrices of
/// `order`; returns the experiment time in seconds ("the time from when the
/// OpenCL host code sets up the GPU … until when it receives the resulting
/// matrix", §6.1.4).
pub fn opencl_matmul_seconds(config: Config, order: u32) -> f64 {
    let mut machine = build(config, &[DeviceSpec::gpu()], 1);
    let task = spawn_app(&mut machine, config);
    let drm = DrmClient::open(&mut machine, task).expect("open card0");
    let start = machine.now_ns();
    machine.clock().advance(OPENCL_SETUP_NS);
    // Input upload (scaled: the simulation charges copy costs per byte, so
    // a representative window suffices).
    let input_bytes = (u64::from(order) * u64::from(order) * 4).min(256 * 1024);
    let input = drm
        .gem_create(&mut machine, input_bytes.max(PAGE_SIZE), gem_domain::GTT)
        .expect("input bo");
    let staged = machine
        .alloc_buffer(task, input_bytes.max(64))
        .expect("staging");
    drm.gem_pwrite(&mut machine, input, 0, staged, input_bytes.min(8192))
        .expect("upload");
    // Output in VRAM, read back through a mapping (works under data
    // isolation too — mapped buffers are exactly what §4.2 protects).
    let output = drm
        .gem_create(&mut machine, PAGE_SIZE, gem_domain::VRAM)
        .expect("output bo");
    drm.submit_compute(&mut machine, order).expect("dispatch");
    drm.wait_idle(&mut machine, output).expect("wait");
    let map = drm.gem_map(&mut machine, output, PAGE_SIZE).expect("map result");
    let mut result = [0u8; 64];
    machine.read_mem(task, map, &mut result).expect("read result");
    (machine.now_ns() - start) as f64 / 1e9
}

/// Figure 6: `guests` VMs run the order-500 benchmark 5 times each,
/// simultaneously; returns the per-guest experiment time in seconds.
pub fn concurrent_matmul_seconds(guests: usize) -> f64 {
    let mut machine = build(Config::Paradice, &[DeviceSpec::gpu()], guests);
    let mut clients = Vec::new();
    for guest in 0..guests {
        let task = machine.spawn_process(Some(guest)).expect("spawn");
        let drm = DrmClient::open(&mut machine, task).expect("open");
        let bo = drm
            .gem_create(&mut machine, PAGE_SIZE, gem_domain::VRAM)
            .expect("bo");
        clients.push((drm, bo));
    }
    let start = machine.now_ns();
    for _run in 0..5 {
        for (drm, _) in &clients {
            drm.submit_compute(&mut machine, 500).expect("dispatch");
        }
    }
    for (drm, bo) in &clients {
        drm.wait_idle(&mut machine, *bo).expect("wait");
    }
    (machine.now_ns() - start) as f64 / 1e9
}

// ---------------------------------------------------------------------
// Mouse (§6.1.5)
// ---------------------------------------------------------------------

/// Measures the mouse event→read latency the paper measures ("the time from
/// when the mouse event is reported to the device driver to when the read
/// operation issued by the application reaches the driver"). Returns µs.
pub fn mouse_latency_us(config: Config) -> f64 {
    let mut machine = build(config, &[DeviceSpec::Mouse], 1);
    let task = spawn_app(&mut machine, config);
    let fd = machine.open(task, "/dev/input/event0").expect("open mouse");
    machine.fasync(task, fd, true).expect("fasync");
    let buf = machine.alloc_buffer(task, 256).expect("buffer");
    let driver = match machine.driver("/dev/input/event0").expect("mouse") {
        DriverHandle::Input(d) => d,
        _ => unreachable!(),
    };
    let mut samples = Vec::new();
    for i in 0..20 {
        machine.clock().advance(2_000_000); // events every ~2 ms
        machine.mouse_move(1, 0);
        let reported = driver.borrow().last_report_ns().expect("event seen");
        let _ = machine.wait_event(task);
        let _ = machine.poll(task, fd);
        machine.read(task, fd, buf, 64).expect("read");
        let arrived = driver.borrow().last_read_arrival_ns().expect("read seen");
        if i >= 4 {
            samples.push(arrived - reported);
        }
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1e3
}

// ---------------------------------------------------------------------
// Camera & speaker (§6.1.6)
// ---------------------------------------------------------------------

/// Streams `frames` camera frames at `width`×`height` MJPG; returns FPS.
pub fn camera_fps(config: Config, width: u32, height: u32, frames: u32) -> f64 {
    let mut machine = build(config, &[DeviceSpec::Camera], 1);
    let task = spawn_app(&mut machine, config);
    let mut cam = v4l::CameraClient::open(&mut machine, task).expect("open camera");
    cam.set_format(&mut machine, width, height).expect("format");
    cam.setup_buffers(&mut machine, 4).expect("buffers");
    for i in 0..4 {
        cam.qbuf(&mut machine, i).expect("qbuf");
    }
    cam.stream_on(&mut machine).expect("stream on");
    let start = machine.now_ns();
    for _ in 0..frames {
        let (index, _) = cam.dqbuf(&mut machine).expect("frame");
        cam.qbuf(&mut machine, index).expect("requeue");
    }
    f64::from(frames) / ((machine.now_ns() - start) as f64 / 1e9)
}

/// Plays `seconds` of 48 kHz stereo audio; returns the playback time in
/// seconds (identical across configs when forwarding hides behind the
/// drain clock).
pub fn audio_playback_seconds(config: Config, seconds: u64) -> f64 {
    let mut machine = build(config, &[DeviceSpec::Audio], 1);
    let task = spawn_app(&mut machine, config);
    let audio = pcm::AudioClient::open(&mut machine, task).expect("open speaker");
    audio.configure(&mut machine, 48_000, 2, 16).expect("configure");
    let bytes = seconds * 48_000 * 4;
    let elapsed = audio.play(&mut machine, bytes).expect("play");
    // Include the final drain, as "finish playing the file" does.
    let drained = match machine.driver("/dev/snd/pcmC0D0p").expect("speaker") {
        DriverHandle::Audio(d) => d.borrow().drained_at_ns(),
        _ => unreachable!(),
    };
    (elapsed + drained.saturating_sub(machine.now_ns())) as f64 / 1e9
}

// ---------------------------------------------------------------------
// No-op forwarding (§6.1.1)
// ---------------------------------------------------------------------

/// Average file-operation forwarding overhead (beyond the syscall and the
/// dispatch) over `ops` cheap operations; returns µs.
pub fn noop_forward_us(transport: TransportMode, ops: u64) -> f64 {
    let config = match transport {
        TransportMode::Interrupts => Config::Paradice,
        TransportMode::Polling { .. } => Config::ParadicePolling,
        TransportMode::Remote { .. } => Config::ParadiceRemote,
    };
    let mut machine = build(config, &[DeviceSpec::Mouse], 1);
    let task = spawn_app(&mut machine, config);
    let fd = machine.open(task, "/dev/input/event0").expect("open");
    for _ in 0..3 {
        let _ = machine.poll(task, fd);
    }
    let overhead = {
        let hv = machine.hv().borrow();
        hv.cost().syscall_ns + hv.cost().backend_dispatch_ns
    };
    let start = machine.now_ns();
    for _ in 0..ops {
        machine.poll(task, fd).expect("poll");
    }
    ((machine.now_ns() - start) / ops - overhead) as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netmap_native_is_at_line_rate() {
        let rate = netmap_tx_rate(Config::Native, 64, 20_000);
        assert!(rate > 0.98 * netmap_line_rate_mpps(), "rate = {rate}");
    }

    #[test]
    fn graphics_overhead_is_constant_per_frame() {
        // §6.1.3: heavier frames lose a smaller percentage.
        let native_light = graphics_fps(Config::Native, 5_800, 60);
        let paradice_light = graphics_fps(Config::Paradice, 5_800, 60);
        let native_heavy = graphics_fps(Config::Native, 25_000, 60);
        let paradice_heavy = graphics_fps(Config::Paradice, 25_000, 60);
        let light_drop = 1.0 - paradice_light / native_light;
        let heavy_drop = 1.0 - paradice_heavy / native_heavy;
        assert!(light_drop > heavy_drop, "{light_drop} vs {heavy_drop}");
        assert!(light_drop > 0.05 && light_drop < 0.2, "light drop {light_drop}");
    }

    #[test]
    fn opencl_is_compute_dominated() {
        let native = opencl_matmul_seconds(Config::Native, 500);
        let paradice = opencl_matmul_seconds(Config::Paradice, 500);
        assert!((paradice / native - 1.0).abs() < 0.02);
    }

    #[test]
    fn mouse_latency_anchors() {
        let native = mouse_latency_us(Config::Native);
        assert!((37.0..41.0).contains(&native), "native = {native}");
        let assign = mouse_latency_us(Config::Assign);
        assert!((53.0..57.0).contains(&assign), "assign = {assign}");
    }

    #[test]
    fn camera_at_sensor_rate() {
        let fps = camera_fps(Config::Paradice, 1920, 1080, 20);
        assert!((29.0..30.0).contains(&fps), "fps = {fps}");
    }

    #[test]
    fn noop_anchors() {
        let int = noop_forward_us(TransportMode::Interrupts, 200);
        assert!((33.0..37.0).contains(&int), "int = {int}");
        let poll = noop_forward_us(TransportMode::polling_default(), 200);
        assert!((1.5..2.5).contains(&poll), "poll = {poll}");
    }
}
