//! Audio: an HDA-style PCM playback device.
//!
//! §6.1.6: "We play the same audio file on our test speaker. Native, device
//! assignment, and Paradice all take the same amount of time to finish
//! playing the file, showing that they all achieve similar audio rates." The
//! reason is the playback clock: the DMA buffer drains at the sample rate,
//! so once the (small) buffer fills, `write` blocks until samples drain —
//! per-write forwarding overhead hides completely behind the drain time.
//!
//! The driver exposes the PCM shape: an `hw_params` ioctl fixing
//! rate/channels/format, a `prepare` ioctl, and `write` for interleaved
//! samples.

use std::rc::Rc;

use paradice_devfs::fileops::{FileOps, OpenContext, PollEvents, UserBuffer};
use paradice_devfs::ioc::{io, iowr, IoctlCmd};
use paradice_devfs::{Errno, MemOps};
use paradice_mem::GuestVirtAddr;

use crate::env::KernelEnv;

/// `SNDRV_PCM_IOCTL_HW_PARAMS`-ish: `{u32 rate, u32 channels, u32 bits}`.
pub const PCM_HW_PARAMS: IoctlCmd = iowr(b'A', 0x11, 12);
/// `SNDRV_PCM_IOCTL_PREPARE`-ish.
pub const PCM_PREPARE: IoctlCmd = io(b'A', 0x40);
/// `SNDRV_PCM_IOCTL_DROP`-ish: stop and flush.
pub const PCM_DROP: IoctlCmd = io(b'A', 0x43);

/// Hardware DMA buffer: 64 KiB, typical for HDA.
pub const HW_BUFFER_BYTES: u64 = 64 * 1024;

/// Supported sample rates.
const SUPPORTED_RATES: [u32; 3] = [44_100, 48_000, 96_000];

/// The PCM playback driver plus its drain-clock device model.
pub struct PcmDriver {
    env: Rc<KernelEnv>,
    rate: u32,
    channels: u32,
    bits: u32,
    prepared: bool,
    /// Virtual time at which the last queued sample will have played.
    drained_at_ns: u64,
    /// Total bytes accepted since prepare.
    bytes_played: u64,
}

impl std::fmt::Debug for PcmDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PcmDriver")
            .field("rate", &self.rate)
            .field("channels", &self.channels)
            .field("bits", &self.bits)
            .field("prepared", &self.prepared)
            .field("bytes_played", &self.bytes_played)
            .finish()
    }
}

impl PcmDriver {
    /// Creates the driver for the Intel Panther Point HD Audio controller.
    pub fn new(env: Rc<KernelEnv>) -> Self {
        PcmDriver {
            env,
            rate: 48_000,
            channels: 2,
            bits: 16,
            prepared: false,
            drained_at_ns: 0,
            bytes_played: 0,
        }
    }

    /// Bytes per second at the negotiated parameters.
    pub fn byte_rate(&self) -> u64 {
        u64::from(self.rate) * u64::from(self.channels) * u64::from(self.bits / 8)
    }

    /// Total bytes accepted since the last prepare.
    pub fn bytes_played(&self) -> u64 {
        self.bytes_played
    }

    /// When the queue will be fully drained (virtual ns).
    pub fn drained_at_ns(&self) -> u64 {
        self.drained_at_ns
    }

    fn ns_for_bytes(&self, bytes: u64) -> u64 {
        bytes.saturating_mul(1_000_000_000) / self.byte_rate()
    }
}

impl FileOps for PcmDriver {
    fn ioctl(
        &mut self,
        _ctx: OpenContext,
        mem: &mut dyn MemOps,
        cmd: IoctlCmd,
        arg: u64,
    ) -> Result<i64, Errno> {
        match cmd {
            PCM_HW_PARAMS => {
                let arg_ptr = GuestVirtAddr::new(arg);
                let mut params = [0u8; 12];
                mem.copy_from_user(arg_ptr, &mut params)?;
                let rate = u32::from_le_bytes(params[0..4].try_into().expect("len 4"));
                let channels = u32::from_le_bytes(params[4..8].try_into().expect("len 4"));
                let bits = u32::from_le_bytes(params[8..12].try_into().expect("len 4"));
                if !SUPPORTED_RATES.contains(&rate)
                    || !(1..=2).contains(&channels)
                    || !(bits == 16 || bits == 24)
                {
                    return Err(Errno::Einval);
                }
                self.rate = rate;
                self.channels = channels;
                self.bits = bits;
                self.prepared = false;
                // Report the accepted parameters back (drivers may adjust).
                mem.copy_to_user(arg_ptr, &params)?;
                Ok(0)
            }
            PCM_PREPARE => {
                self.prepared = true;
                self.drained_at_ns = self.env.now_ns();
                self.bytes_played = 0;
                Ok(0)
            }
            PCM_DROP => {
                self.prepared = false;
                self.drained_at_ns = self.env.now_ns();
                Ok(0)
            }
            _ => Err(Errno::Enotty),
        }
    }

    fn write(
        &mut self,
        _ctx: OpenContext,
        mem: &mut dyn MemOps,
        buf: UserBuffer,
    ) -> Result<u64, Errno> {
        if !self.prepared {
            return Err(Errno::Eio);
        }
        if buf.len == 0 {
            return Ok(0);
        }
        // The driver copies the samples into the DMA buffer (we read a
        // window of them to exercise the copy path without materializing
        // megabytes).
        let probe = buf.len.min(256);
        let mut samples = vec![0u8; probe as usize];
        mem.copy_from_user(buf.addr, &mut samples)?;

        let now = self.env.now_ns();
        let queue_start = self.drained_at_ns.max(now);
        let new_drained = queue_start + self.ns_for_bytes(buf.len);
        // Block until the new samples fit in the hardware buffer: the write
        // returns once at most HW_BUFFER_BYTES remain queued.
        let buffer_span_ns = self.ns_for_bytes(HW_BUFFER_BYTES);
        if new_drained > now + buffer_span_ns {
            self.env
                .hv()
                .borrow()
                .clock()
                .advance_to(new_drained - buffer_span_ns);
        }
        self.drained_at_ns = new_drained;
        self.bytes_played += buf.len;
        Ok(buf.len)
    }

    fn poll(&mut self, _ctx: OpenContext) -> Result<PollEvents, Errno> {
        let now = self.env.now_ns();
        let queued = self.drained_at_ns.saturating_sub(now);
        Ok(if queued < self.ns_for_bytes(HW_BUFFER_BYTES) {
            PollEvents::OUT
        } else {
            PollEvents::NONE
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradice_devfs::fileops::{OpenFlags, TaskId};
    use paradice_devfs::memops::BufferMemOps;
    use paradice_devfs::registry::FileHandleId;
    use paradice_hypervisor::hv::{DataIsolation, Hypervisor};
    use paradice_hypervisor::vm::VmRole;
    use paradice_hypervisor::{CostModel, SimClock};
    use paradice_mem::PAGE_SIZE;
    use std::cell::RefCell;

    fn driver() -> PcmDriver {
        let mut hv = Hypervisor::new(256, SimClock::new(), CostModel::default());
        let vm = hv.create_vm(VmRole::Driver, 16 * PAGE_SIZE).unwrap();
        let domain = hv.assign_device(vm, DataIsolation::Disabled).unwrap();
        let env = KernelEnv::new(Rc::new(RefCell::new(hv)), vm, domain, false);
        PcmDriver::new(env)
    }

    fn ctx() -> OpenContext {
        OpenContext {
            handle: FileHandleId(1),
            task: TaskId(1),
            flags: OpenFlags::WRONLY,
        }
    }

    fn set_params(drv: &mut PcmDriver, mem: &mut BufferMemOps, rate: u32, ch: u32, bits: u32) {
        let mut params = [0u8; 12];
        params[0..4].copy_from_slice(&rate.to_le_bytes());
        params[4..8].copy_from_slice(&ch.to_le_bytes());
        params[8..12].copy_from_slice(&bits.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &params).unwrap();
        drv.ioctl(ctx(), mem, PCM_HW_PARAMS, 0).unwrap();
    }

    #[test]
    fn hw_params_negotiation() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        set_params(&mut drv, &mut mem, 44_100, 2, 16);
        assert_eq!(drv.byte_rate(), 44_100 * 2 * 2);
        // Bogus rate rejected.
        let mut params = [0u8; 12];
        params[0..4].copy_from_slice(&12345u32.to_le_bytes());
        params[4..8].copy_from_slice(&2u32.to_le_bytes());
        params[8..12].copy_from_slice(&16u32.to_le_bytes());
        mem.copy_to_user(GuestVirtAddr::new(0), &params).unwrap();
        assert_eq!(
            drv.ioctl(ctx(), &mut mem, PCM_HW_PARAMS, 0),
            Err(Errno::Einval)
        );
    }

    #[test]
    fn write_requires_prepare() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        assert_eq!(
            drv.write(ctx(), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 64)),
            Err(Errno::Eio)
        );
    }

    #[test]
    fn playback_time_matches_sample_rate() {
        // A "file" of exactly 2 seconds of audio must take ~2 virtual
        // seconds to play — the §6.1.6 result.
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        set_params(&mut drv, &mut mem, 48_000, 2, 16);
        drv.ioctl(ctx(), &mut mem, PCM_PREPARE, 0).unwrap();
        let start = drv.env.now_ns();
        let total = drv.byte_rate() * 2; // 2 seconds of audio
        let chunk = 4096u64;
        let mut sent = 0;
        while sent < total {
            let n = drv
                .write(
                    ctx(),
                    &mut mem,
                    UserBuffer::new(GuestVirtAddr::new(0), chunk.min(total - sent)),
                )
                .unwrap();
            sent += n;
        }
        // Wait for drain.
        let end = drv.drained_at_ns();
        let elapsed_s = (end - start) as f64 / 1e9;
        assert!((1.99..2.01).contains(&elapsed_s), "elapsed {elapsed_s}s");
        assert_eq!(drv.bytes_played(), total);
    }

    #[test]
    fn writes_block_only_when_buffer_full() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        set_params(&mut drv, &mut mem, 48_000, 2, 16);
        drv.ioctl(ctx(), &mut mem, PCM_PREPARE, 0).unwrap();
        let t0 = drv.env.now_ns();
        // First 64 KiB fit in the hardware buffer without blocking.
        drv.write(
            ctx(),
            &mut mem,
            UserBuffer::new(GuestVirtAddr::new(0), HW_BUFFER_BYTES),
        )
        .unwrap();
        assert_eq!(drv.env.now_ns(), t0, "fill without blocking");
        // The next write must block until space drains.
        drv.write(ctx(), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 4096))
            .unwrap();
        assert!(drv.env.now_ns() > t0);
    }

    #[test]
    fn poll_signals_writability() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        set_params(&mut drv, &mut mem, 48_000, 2, 16);
        drv.ioctl(ctx(), &mut mem, PCM_PREPARE, 0).unwrap();
        assert_eq!(drv.poll(ctx()).unwrap(), PollEvents::OUT);
        drv.write(
            ctx(),
            &mut mem,
            UserBuffer::new(GuestVirtAddr::new(0), HW_BUFFER_BYTES),
        )
        .unwrap();
        assert_eq!(drv.poll(ctx()).unwrap(), PollEvents::NONE);
    }

    #[test]
    fn drop_resets_queue() {
        let mut drv = driver();
        let mut mem = BufferMemOps::new(4096);
        set_params(&mut drv, &mut mem, 48_000, 2, 16);
        drv.ioctl(ctx(), &mut mem, PCM_PREPARE, 0).unwrap();
        drv.write(
            ctx(),
            &mut mem,
            UserBuffer::new(GuestVirtAddr::new(0), HW_BUFFER_BYTES),
        )
        .unwrap();
        drv.ioctl(ctx(), &mut mem, PCM_DROP, 0).unwrap();
        assert_eq!(drv.drained_at_ns(), drv.env.now_ns());
        assert_eq!(
            drv.write(ctx(), &mut mem, UserBuffer::new(GuestVirtAddr::new(0), 64)),
            Err(Errno::Eio)
        );
    }
}
