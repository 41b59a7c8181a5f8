//! The package's own smoke gate: `--quick` runs all six workloads with
//! one-second windows and must pass every correctness check.

use std::process::Command;

const WORKLOADS: [&str; 6] = [
    "machine_ioctl_sync",
    "machine_ioctl_fastpath",
    "machine_bulk_rw",
    "wall_1g_pipelined",
    "wall_1000g_mixed",
    "wall_flood_100g",
];

#[test]
fn quick_mode_passes_every_correctness_check() {
    let output = Command::new(env!("CARGO_BIN_EXE_paradice-benchmark"))
        .arg("--quick")
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "--quick failed:\n{stdout}\n{stderr}"
    );
    for workload in WORKLOADS {
        assert!(
            stdout.contains(&format!("workload {workload} ")),
            "{workload} did not run:\n{stdout}"
        );
    }
    assert!(!stdout.contains("check FAILED"), "{stdout}");
    assert_eq!(
        stdout
            .matches("check ok two simulated-time replays")
            .count(),
        WORKLOADS.len()
    );
}

#[test]
fn a_wrong_argument_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_paradice-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
