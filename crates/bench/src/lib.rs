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
//!   ring, measured off vs. on and dumped to `BENCH_fastpath.json`.
//! * [`tracing`] — the paradice-trace reference recorder behind
//!   `experiments --trace <path>` and the `--replay` conformance gate.
//! * [`racereport`] — the race checker (`--race`): interleaving proofs,
//!   the ordering-mutant sweep, and MO/RC lint coverage, dumped to
//!   `BENCH_race.json`.
//!
//! Host-time measurements of the engine seam (`cvd::multi`) and of
//! `Machine` live in the stand-alone `benchmark/` package
//! (`BENCHMARK.json`), not here; `BENCH_verify.json` and
//! `BENCH_adversary.json` are the `--json` output of `paradice-verify`
//! and `paradice-adversary` themselves.
//!
//! Run everything with `cargo run -p paradice-bench --bin experiments`.

pub mod calib;
pub mod configs;
pub mod experiments;
pub mod fastpath;
pub mod faults;
pub mod racereport;
pub mod report;
pub mod tracing;
pub mod workloads;

pub use configs::{build, spawn_app, Config};
pub use report::{Cell, Table};
