//! `paradice-verify`: the exhaustive bounded-model checker for the
//! isolation core.
//!
//! The devices themselves are not trusted — that is the paper's whole
//! premise — but three mechanisms *are*: the hypervisor grant table that
//! confines the driver VM's memory access (§4.1), the ring that sequences
//! the shared-page channel (§5.1), and the wire codec both VMs
//! parse (the lone attack surface the backend exposes to a compromised
//! frontend and vice versa). This crate proves those three kernels correct
//! within documented bounds, by running the *real* implementations —
//! [`paradice_hypervisor::ShardedGrantTable`] (the one grant store),
//! [`paradice_hypervisor::Channel`] on its one ring kernel,
//! [`paradice_cvd::cache::GrantCache`], the `decode_probed` codec paths,
//! the frontend's JIT evaluator that decides what gets granted —
//! against independent executable specifications:
//!
//! | property            | engine                                   |
//! |---------------------|------------------------------------------|
//! | `grant-soundness`   | boundary-value enumeration vs a `u128` coverage model |
//! | `grant-batch`       | exhaustive small-vector enumeration (all-or-nothing phase split) |
//! | `grant-revocation`  | scripted lifecycle, home-slot reuse, live-home skip, capacity, sequence wrap |
//! | `ring-depth1/8`     | full state exploration of the channel at every cursor offset |
//! | `cache-revocation`  | full-state-space exploration with canonical ref renaming |
//! | `codec-roundtrip`   | corpus enumeration incl. all truncations  |
//! | `codec-single-read` | counting probe on the real decoders + the `WP001` wire lint |
//! | `codec-ir-crosscheck` | recording probe tiling vs const-evaluated decode IR |
//! | `adversary-containment` | bit-flip/truncation/forged-ref sweep vs real enforcement |
//! | `race-ring`         | exhaustive store-buffer interleaving: no torn slot read |
//! | `race-doorbell`     | exhaustive store-buffer interleaving: no lost wakeup |
//! | `race-shards`       | exhaustive store-buffer interleaving: no recycled-declaration read |
//! | `race-ready`        | exhaustive store-buffer interleaving: a consumed ready id always finds its frame |
//! | `jit-snapshot`      | exhaustive ≤ 3-fetch overlap scripts vs a per-byte first-read-wins model |
//!
//! The exploration engine is the analyzer's own dataflow machinery
//! ([`paradice_analyzer::dataflow::reach`]); disproofs surface as `VP00x`
//! [`Diagnostic`](paradice_analyzer::lint::Diagnostic)s and as replayable
//! [`Fixture`](fixture::Fixture)s. Seeded [`Mutant`](report::Mutant)s are
//! the checker's own regression suite: each deliberately-broken variant
//! must be disproved, or the checker has gone blind. The model checker is
//! the gate; no Kani harness is left.

pub mod adversary;
pub mod cache;
pub mod codec;
pub mod fixture;
pub mod grants;
pub mod jit;
pub mod race;
pub mod report;
pub mod ring;

use fixture::Fixture;
use report::{Mutant, PropertyReport};

/// Every property, in the order `--all` runs them.
pub const PROPERTIES: [&str; 15] = [
    "grant-soundness",
    "grant-batch",
    "grant-revocation",
    "ring-depth1",
    "ring-depth8",
    "cache-revocation",
    "codec-roundtrip",
    "codec-single-read",
    "codec-ir-crosscheck",
    "adversary-containment",
    "race-ring",
    "race-doorbell",
    "race-shards",
    "race-ready",
    "jit-snapshot",
];

/// Runs one property by name (optionally under a seeded mutant), timing it.
/// `None` for an unknown property name.
pub fn run_property(name: &str, mutant: Option<Mutant>) -> Option<PropertyReport> {
    let start = std::time::Instant::now();
    let mut report = match name {
        "grant-soundness" => grants::check_soundness(mutant),
        "grant-batch" => grants::check_batch(mutant),
        "grant-revocation" => grants::check_revocation(mutant),
        "ring-depth1" => ring::check_depth1(mutant),
        "ring-depth8" => ring::check_depth8(mutant),
        "cache-revocation" => cache::check_revocation_model(mutant),
        "codec-roundtrip" => codec::check_roundtrip(mutant),
        "codec-single-read" => codec::check_single_read(mutant),
        "codec-ir-crosscheck" => codec::check_ir_crosscheck(mutant),
        "adversary-containment" => adversary::check_containment(mutant),
        "race-ring" => race::check_ring(mutant),
        "race-doorbell" => race::check_doorbell(mutant),
        "race-shards" => race::check_shards(mutant),
        "race-ready" => race::check_ready(mutant),
        "jit-snapshot" => jit::check_snapshot(mutant),
        _ => return None,
    };
    report.duration_ms = start.elapsed().as_millis();
    Some(report)
}

/// Runs every property in [`PROPERTIES`] order.
pub fn run_all(mutant: Option<Mutant>) -> Vec<PropertyReport> {
    PROPERTIES
        .iter()
        .map(|name| run_property(name, mutant).expect("registered property"))
        .collect()
}

/// Replays a parsed fixture against the real kernels under `mutant`,
/// dispatching on the fixture's recorded property.
///
/// # Errors
///
/// `Err(reason)` when the recorded violation reproduces (expected when
/// `mutant` matches the fixture's `mutant=` line), or when the fixture
/// names an unknown property.
pub fn replay_fixture(fixture: &Fixture, mutant: Option<Mutant>) -> Result<(), String> {
    match fixture.property.as_str() {
        name if name.starts_with("grant-") => grants::replay(fixture, mutant),
        name if name.starts_with("race-") => race::replay(fixture, mutant),
        name if name.starts_with("ring-") => ring::replay(fixture, mutant),
        "cache-revocation" => cache::replay(fixture, mutant),
        name if name.starts_with("codec-") => codec::replay(fixture, mutant),
        "adversary-containment" => adversary::replay(fixture, mutant),
        "jit-snapshot" => jit::replay(fixture, mutant),
        other => Err(format!("fixture names unknown property {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_property_proves_on_the_real_kernels() {
        for report in run_all(None) {
            assert!(
                report.proved,
                "{} disproved on the real code: {:?}",
                report.name, report.findings,
            );
            assert!(report.states > 0, "{} explored nothing", report.name);
        }
    }

    #[test]
    fn every_seeded_mutant_is_disproved_by_some_property() {
        for mutant in Mutant::ALL {
            let reports = run_all(Some(mutant));
            let caught: Vec<&str> = reports
                .iter()
                .filter(|r| !r.proved)
                .map(|r| r.name)
                .collect();
            assert!(
                !caught.is_empty(),
                "mutant {} survived every property — the checker is blind to it",
                mutant.name(),
            );
            // Each disproof must carry a replayable counterexample or at
            // least one finding.
            for report in reports.iter().filter(|r| !r.proved) {
                assert!(
                    !report.findings.is_empty(),
                    "{} disproved {} without findings",
                    mutant.name(),
                    report.name,
                );
            }
        }
    }

    #[test]
    fn unknown_property_is_rejected() {
        assert!(run_property("no-such-property", None).is_none());
        let fixture = Fixture::new("no-such-property", None, "x");
        assert!(replay_fixture(&fixture, None).is_err());
    }
}
