//! Isolation demo: a compromised driver VM attacks its guests and every
//! attempt is stopped by a different mechanism (paper §4).
//!
//! Builds a two-guest machine with device data isolation, renders a secret
//! into guest 0's protected framebuffer, then runs the full attack suite
//! and prints the audit log.
//!
//! ```sh
//! cargo run --example isolation_demo
//! ```

use paradice::app::drm::DrmClient;
use paradice::attack;
use paradice::gpu_ioctl::gem_domain;
use paradice::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Machine::builder()
        .mode(ExecMode::Paradice {
            transport: TransportMode::Interrupts,
            data_isolation: true,
        })
        .guest(GuestSpec::linux())
        .guest(GuestSpec::linux())
        .device(DeviceSpec::gpu())
        .device(DeviceSpec::Mouse)
        .build()?;

    // Guest 0 puts sensitive data on the GPU (a texture upload the
    // hypervisor copies into guest 0's region — the driver VM never sees
    // the plaintext).
    let task = machine.spawn_process(Some(0))?;
    let drm = DrmClient::open(&mut machine, task)?;
    let fb = drm.gem_create(&mut machine, 4 * PAGE_SIZE, gem_domain::VRAM)?;
    let secret = machine.alloc_buffer(task, 64)?;
    machine.write_mem(task, secret, b"guest0-secret-texture")?;
    drm.gem_pwrite(&mut machine, fb, 0, secret, 21)?;
    println!("guest 0 uploaded a secret texture into its protected region\n");

    // The malicious guest compromises the driver VM (threat model, §4) and
    // attacks.
    machine
        .hv()
        .borrow_mut()
        .vm_mut(machine.driver_vm())?
        .mark_compromised();

    println!("running the attack suite against the compromised driver VM:");
    let outcomes = attack::run_all(&mut machine);
    for outcome in &outcomes {
        println!(
            "  {:<24} {}  {}",
            outcome.name,
            if outcome.blocked { "BLOCKED" } else { "!! SUCCEEDED !!" },
            match outcome.blocked_by {
                Some(by) => format!("by {by}"),
                None => outcome.detail.clone(),
            }
        );
    }

    println!("\naudit log ({} records):", machine.hv().borrow().audit().len());
    for record in machine.hv().borrow().audit().records().iter().take(12) {
        println!(
            "  t={:>10} ns  {:?}",
            record.at_ns,
            record.event
        );
    }

    let all_blocked = outcomes.iter().all(|o| o.blocked);
    println!(
        "\nresult: {}",
        if all_blocked {
            "every attack was stopped — fault and device data isolation hold"
        } else {
            "AT LEAST ONE ATTACK SUCCEEDED"
        }
    );
    Ok(())
}
