//! Fault-injection campaigns (paper §7.1): seeded sweeps that crash, hang,
//! and corrupt the driver VM at randomized points and verify the three
//! claims of the failure model on every run —
//!
//! 1. **Guests survive**: every guest file operation completes with a real
//!    errno; nothing hangs and no grant outlives the fault.
//! 2. **Faults are contained**: once the driver VM is marked failed its
//!    hypercalls are refused and subsequent guest ops fail fast.
//! 3. **Recovery is total**: rebooting the driver VM restores service for
//!    the faulted device class to every guest — including with data
//!    isolation enabled.
//!
//! `run_campaigns(seed, n)` is fully deterministic: the same seed produces
//! byte-identical reports, so the campaign doubles as a regression gate
//! (`scripts/check.sh` runs a small fixed-seed sweep).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use paradice::prelude::*;
use paradice_faults::{FaultKind, FaultPlan, SplitMix64, Trigger};

use crate::report::{Cell, Table};

/// The device classes a campaign can target, with the file-operation
/// phases each class actually dispatches during its exercise.
const CLASSES: [(&str, &str, &[&str]); 6] = [
    ("gpu", "/dev/dri/card0", &["open", "ioctl"]),
    ("mouse", "/dev/input/event0", &["open", "poll", "read"]),
    ("keyboard", "/dev/input/event1", &["open", "poll", "read"]),
    ("camera", "/dev/video0", &["open", "ioctl"]),
    ("audio", "/dev/snd/pcmC0D0p", &["open", "ioctl"]),
    ("netmap", "/dev/netmap", &["open", "ioctl"]),
];

/// One campaign's verdict.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign index (0-based).
    pub index: u32,
    /// Injected fault kind.
    pub kind: FaultKind,
    /// Targeted device class name.
    pub class: &'static str,
    /// File-operation phase the trigger armed on.
    pub phase: &'static str,
    /// Whether the machine ran with data isolation enabled.
    pub data_isolation: bool,
    /// The first errno the faulted guest observed, if any.
    pub first_errno: Option<Errno>,
    /// Claim 1: the guest survived (errno, no hang, no grant leak).
    pub guest_survived: bool,
    /// Claim 2: the fault killed the driver VM (and was contained).
    pub driver_vm_died: bool,
    /// Claim 3: recovery restored full service (`None` = not applicable,
    /// the driver VM never died).
    pub recovered: Option<bool>,
    /// Human-readable detail for failures.
    pub detail: String,
}

/// The full campaign sweep.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the sweep derived every campaign from.
    pub seed: u64,
    /// Per-campaign verdicts.
    pub outcomes: Vec<CampaignOutcome>,
}

fn build_machine(data_isolation: bool) -> Machine {
    let mut builder = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux());
    for spec in [
        DeviceSpec::gpu(),
        DeviceSpec::Mouse,
        DeviceSpec::Keyboard,
        DeviceSpec::Camera,
        DeviceSpec::Audio,
        DeviceSpec::Netmap,
    ] {
        builder = builder.device(spec);
    }
    builder.build().expect("campaign machine builds")
}

/// Drives the class's exercise on `task`: open, the class's data op(s),
/// close. Returns the first errno observed (every op must *return* — in
/// the simulation a hang would surface as a test timeout, and at the
/// protocol level as a missing response, which the frontend watchdog
/// converts to `ETIMEDOUT`).
fn exercise(m: &mut Machine, task: TaskId, class: &str, path: &str) -> Option<Errno> {
    let mut first: Option<Errno> = None;
    let mut note = |r: Result<(), Errno>| {
        if let Err(e) = r {
            first.get_or_insert(e);
        }
    };
    let fd = match m.open(task, path) {
        Ok(fd) => fd,
        Err(e) => return Some(e),
    };
    match class {
        "gpu" => {
            let arg = m.alloc_buffer(task, 4096).expect("arg buffer");
            m.write_mem(task, arg, &1u32.to_le_bytes()).expect("arg init");
            note(
                m.ioctl(task, fd, paradice::gpu_ioctl::RADEON_INFO, arg.raw())
                    .map(|_| ()),
            );
        }
        "mouse" | "keyboard" => {
            note(m.poll(task, fd).map(|_| ()));
            let buf = m.alloc_buffer(task, 64).expect("read buffer");
            note(m.read(task, fd, buf, 16).map(|_| ()));
        }
        "camera" => {
            let arg = m.alloc_buffer(task, 64).expect("arg buffer");
            note(
                m.ioctl(task, fd, paradice::camera_ioctl::VIDIOC_QUERYCAP, arg.raw())
                    .map(|_| ()),
            );
        }
        "audio" => {
            note(
                m.ioctl(task, fd, paradice::audio_ioctl::PCM_PREPARE, 0)
                    .map(|_| ()),
            );
        }
        "netmap" => {
            let arg = m.alloc_buffer(task, 64).expect("arg buffer");
            note(
                m.ioctl(task, fd, paradice::netmap_ioctl::NIOCGINFO, arg.raw())
                    .map(|_| ()),
            );
        }
        other => panic!("unknown device class {other}"),
    }
    note(m.close(task, fd));
    first
}

/// Opens and closes `path` on a fresh process of `guest` — the minimal
/// "full service" probe.
fn service_ok(m: &mut Machine, guest: usize, path: &str) -> Result<(), Errno> {
    let task = m.spawn_process(Some(guest)).map_err(|_| Errno::Eio)?;
    let fd = m.open(task, path)?;
    m.close(task, fd)
}

fn run_one(seed: u64, index: u32) -> CampaignOutcome {
    let mut rng = SplitMix64::new(seed ^ (u64::from(index)).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let kind = FaultKind::ALL[rng.gen_range(FaultKind::ALL.len() as u64) as usize];
    let (class, path, phases) = CLASSES[rng.gen_range(CLASSES.len() as u64) as usize];
    let phase = phases[rng.gen_range(phases.len() as u64) as usize];
    let data_isolation = rng.gen_range(2) == 1;

    let mut m = build_machine(data_isolation);
    let mut plan = FaultPlan::new();
    plan.arm(kind, Trigger::OnOp { op: phase.to_owned(), nth: 0 });
    let plan = Rc::new(RefCell::new(plan));
    assert!(m.arm_faults(plan.clone()), "Paradice machines arm faults");

    let task = m.spawn_process(Some(0)).expect("guest 0 process");
    let first_errno = exercise(&mut m, task, class, path);

    let mut detail = String::new();
    let mut guest_survived = true;
    if plan.borrow().fired().is_empty() {
        guest_survived = false;
        detail.push_str("fault never triggered; ");
    }
    let driver_vm_died = m.driver_vm_failed();
    if driver_vm_died {
        // Claim 1b, no leak: containment revoked every outstanding grant.
        for (g, &vm) in m.guest_vms().to_vec().iter().enumerate() {
            let grants = m.hv().borrow().outstanding_grants(vm);
            if grants != 0 {
                guest_survived = false;
                let _ = write!(detail, "guest {g} leaked {grants} grants; ");
            }
        }
        // Claim 2: the circuit breaker fails fast, it does not re-wait.
        if m.open(task, path) != Err(Errno::Eio) {
            guest_survived = false;
            detail.push_str("no fail-fast EIO after driver VM death; ");
        }
    }

    let recovered = if driver_vm_died {
        let mut ok = m.recover_driver_vm().is_ok() && !m.driver_vm_failed();
        if !ok {
            detail.push_str("driver VM reboot failed; ");
        }
        // Claim 3: the faulted class serves both guests again.
        for guest in 0..2 {
            if ok {
                if let Err(e) = service_ok(&mut m, guest, path) {
                    ok = false;
                    let _ = write!(detail, "guest {guest} reopen failed ({e:?}); ");
                }
            }
        }
        Some(ok)
    } else {
        // The driver survived (oops / late delivery): service must continue
        // without any recovery step.
        if let Err(e) = service_ok(&mut m, 0, path) {
            guest_survived = false;
            let _ = write!(detail, "service lost without driver VM death ({e:?}); ");
        }
        None
    };

    CampaignOutcome {
        index,
        kind,
        class,
        phase,
        data_isolation,
        first_errno,
        guest_survived,
        driver_vm_died,
        recovered,
        detail,
    }
}

/// Runs `campaigns` seeded campaigns on the virtual clock (the
/// deterministic oracle). Same `seed` and `campaigns` → identical
/// outcomes and identical rendered report.
pub fn run_campaigns(seed: u64, campaigns: u32) -> CampaignReport {
    let outcomes = (0..campaigns).map(|i| run_one(seed, i)).collect();
    CampaignReport { seed, outcomes }
}

impl CampaignReport {
    /// Campaigns where the guest did not survive with a clean errno.
    pub fn guest_failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.guest_survived).count()
    }

    /// `(recovered, driver-VM deaths)`.
    pub fn recovery_counts(&self) -> (usize, usize) {
        let died = self.outcomes.iter().filter(|o| o.driver_vm_died).count();
        let recovered = self
            .outcomes
            .iter()
            .filter(|o| o.recovered == Some(true))
            .count();
        (recovered, died)
    }

    /// The acceptance gate: zero guest failures and ≥ 95 % of driver-VM
    /// deaths fully recovered.
    pub fn pass(&self) -> bool {
        let (recovered, died) = self.recovery_counts();
        self.guest_failures() == 0 && (died == 0 || recovered * 100 >= died * 95)
    }

    /// The Table-3-style survival matrix: one row per fault kind.
    pub fn matrix(&self) -> Table {
        let mut table = Table::new(
            "fault_matrix",
            "§7.1 — fault-injection survival matrix",
            &[
                "Fault",
                "Campaigns",
                "Guest survived",
                "Driver VM died",
                "Recovered",
                "Recovery n/a",
            ],
        );
        for kind in FaultKind::ALL {
            let of_kind: Vec<&CampaignOutcome> =
                self.outcomes.iter().filter(|o| o.kind == kind).collect();
            let count = |f: &dyn Fn(&CampaignOutcome) -> bool| {
                of_kind.iter().filter(|o| f(o)).count() as f64
            };
            table.row(vec![
                kind.as_str().into(),
                Cell::Num(of_kind.len() as f64, 0),
                Cell::Num(count(&|o| o.guest_survived), 0),
                Cell::Num(count(&|o| o.driver_vm_died), 0),
                Cell::Num(count(&|o| o.recovered == Some(true)), 0),
                Cell::Num(count(&|o| o.recovered.is_none()), 0),
            ]);
        }
        table
    }

    /// Per-device-class breakdown.
    pub fn by_class(&self) -> Table {
        let mut table = Table::new(
            "fault_by_class",
            "§7.1 — campaigns by device class",
            &["Class", "Campaigns", "Guest survived", "Driver VM died", "Recovered"],
        );
        for (class, _, _) in CLASSES {
            let of: Vec<&CampaignOutcome> =
                self.outcomes.iter().filter(|o| o.class == class).collect();
            table.row(vec![
                class.into(),
                Cell::Num(of.len() as f64, 0),
                Cell::Num(of.iter().filter(|o| o.guest_survived).count() as f64, 0),
                Cell::Num(of.iter().filter(|o| o.driver_vm_died).count() as f64, 0),
                Cell::Num(
                    of.iter().filter(|o| o.recovered == Some(true)).count() as f64,
                    0,
                ),
            ]);
        }
        table
    }

    /// Renders the full deterministic report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fault-injection campaign: seed {}, {} campaigns\n",
            self.seed,
            self.outcomes.len()
        );
        out.push_str(&self.matrix().render());
        out.push('\n');
        out.push_str(&self.by_class().render());
        out.push('\n');
        for o in &self.outcomes {
            if !o.guest_survived || o.recovered == Some(false) {
                let _ = writeln!(
                    out,
                    "FAIL campaign {}: {} on {} {} (di={}): {}",
                    o.index, o.kind, o.class, o.phase, o.data_isolation, o.detail
                );
            }
        }
        let (recovered, died) = self.recovery_counts();
        let _ = writeln!(
            out,
            "guest failures: {} / {}",
            self.guest_failures(),
            self.outcomes.len()
        );
        let _ = writeln!(out, "driver VM deaths recovered: {recovered} / {died}");
        let _ = writeln!(out, "verdict: {}", if self.pass() { "PASS" } else { "FAIL" });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_sweep_passes_and_is_deterministic() {
        let a = run_campaigns(42, 8);
        let b = run_campaigns(42, 8);
        assert_eq!(a.render(), b.render(), "same seed must reproduce exactly");
        assert!(a.pass(), "{}", a.render());
        // The sweep must actually exercise the failure model.
        assert!(a.outcomes.iter().any(|o| o.driver_vm_died));
    }

    #[test]
    fn the_seed_42_sweep_recovers_every_driver_vm_death() {
        // The reference sweep (seed 42, 50 campaigns): 35 driver-VM
        // deaths, all 35 recovered, no guest failure.
        let report = run_campaigns(42, 50);
        assert_eq!(report.recovery_counts(), (35, 35));
        assert!(report.pass(), "{}", report.render());
        assert_eq!(report.guest_failures(), 0);
    }

    #[test]
    fn different_seeds_explore_different_points() {
        let a = run_campaigns(1, 6);
        let b = run_campaigns(2, 6);
        let sig = |r: &CampaignReport| {
            r.outcomes
                .iter()
                .map(|o| format!("{}/{}/{}", o.kind, o.class, o.phase))
                .collect::<Vec<_>>()
        };
        assert_ne!(sig(&a), sig(&b));
    }
}
