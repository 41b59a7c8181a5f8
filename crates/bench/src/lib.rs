//! The Paradice evaluation harness: regenerates every table and figure of
//! the paper's §6 on the deterministic simulation.
//!
//! * [`calib`] — the timing constants with their paper anchors, and the
//!   paper's reported numbers for side-by-side comparison.
//! * [`configs`] — the evaluation's machine configurations: Native,
//!   Device-Assignment, Paradice, Paradice(FL) (FreeBSD guest on the Linux
//!   driver VM), Paradice(P) (polling), Paradice(DI) (data isolation).
//! * [`workloads`] — the §6 workloads: the netmap packet generator, OpenGL
//!   microbenchmarks, three 3D games, OpenCL matrix multiplication, the
//!   mouse-latency prober, the camera and speaker streamers.
//! * [`report`] — table/series rendering (aligned text + CSV under
//!   `results/`).
//! * [`experiments`] — one entry point per table and figure.
//! * [`fastpath`] — the cross-layer fast-path ablation (`--fastpath`):
//!   grant-declaration caching, vectored hypercalls, and the pipelined
//!   ring, measured off vs. on.
//! * [`tracing`] — the paradice-trace reference recorder behind
//!   `experiments --trace <path>` and the `--replay` conformance gate.
//!
//! Host-time measurements of the engine seam (`cvd::multi`) and of
//! `Machine` live in the stand-alone `benchmark/` package
//! (`BENCHMARK.json`), not here; `BENCH_verify.json` (every proof,
//! the three race properties included) and `BENCH_adversary.json` are the
//! `--json` output of `paradice-verify` and `paradice-adversary`
//! themselves, and the MO/RC passes gate in `paradice-lint`.
//!
//! Run everything with `cargo run -p paradice-bench --bin experiments`.

pub mod calib;
pub mod configs;
pub mod experiments;
pub mod fastpath;
pub mod faults;
pub mod report;
pub mod tracing;
pub mod workloads;

pub use configs::{build, spawn_app, Config};
pub use report::{Cell, Table};
