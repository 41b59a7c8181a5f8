//! Memory footprint of the benchmark's Paradice GPU machine.
//!
//! Building the machine allocates every page of driver-VM RAM, guest RAM and
//! VRAM as a physical frame, but a frame holds bytes only once something
//! writes to it. So a freshly built machine backs no frame at all, and a
//! steady stream of `RADEON_INFO` ioctls backs only the handful of pages it
//! writes (4 at the time of writing). No clock is read, so a set-up or an op
//! path that starts writing memory it does not need fails here, not as a
//! slower benchmark. That a freed and reallocated frame holds no bytes and
//! reads zero is `sysmem`'s own unit test.

use paradice::gpu_ioctl::{info, RADEON_INFO};
use paradice::prelude::*;

/// Frames an open `/dev/dri/card0` and 100 `RADEON_INFO` may back.
const WARM_BACKED_CEILING: usize = 16;

fn backed_frames(m: &Machine) -> usize {
    m.hv().borrow().mem().backed_frames()
}

#[test]
fn a_built_machine_backs_no_frame_and_an_ioctl_stream_backs_a_handful() {
    let mut m = Machine::builder()
        .device(DeviceSpec::gpu())
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: false,
        })
        .guest(GuestSpec::linux())
        .build()
        .expect("machine builds");
    assert!(m.hv().borrow().mem().allocated_frames() >= 10_240);
    assert_eq!(backed_frames(&m), 0);

    let task = m.spawn_process(Some(0)).expect("spawn");
    let fd = m.open(task, "/dev/dri/card0").expect("open card0");
    let arg = m.alloc_buffer(task, PAGE_SIZE).expect("args");
    let mut request = [0u8; 16];
    request[0..4].copy_from_slice(&info::DEVICE_ID.to_le_bytes());
    m.write_mem(task, arg, &request).expect("stage RADEON_INFO");
    for _ in 0..100 {
        m.ioctl(task, fd, RADEON_INFO, arg.raw())
            .expect("RADEON_INFO");
    }
    let backed = backed_frames(&m);
    assert!(
        (1..=WARM_BACKED_CEILING).contains(&backed),
        "open + 100 RADEON_INFO backed {backed} frames"
    );
}
