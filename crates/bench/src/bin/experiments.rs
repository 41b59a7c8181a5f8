//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run -p paradice-bench --bin experiments            # everything
//! cargo run -p paradice-bench --bin experiments -- --fig2  # one experiment
//! cargo run -p paradice-bench --bin experiments -- --fastpath
//! cargo run -p paradice-bench --bin experiments -- --trace trace.jsonl
//! cargo run -p paradice-bench --bin experiments -- --help  # the flags
//! ```
//!
//! An unknown argument exits 2 and writes nothing.
//!
//! Tables print to stdout and land as CSV under `results/`, and in their
//! machine-readable twin, `BENCH_experiments.json` at the repo root: a full
//! run writes every table there, a partial run replaces the tables it
//! emitted and keeps the rest. Host-time measurements live
//! in the stand-alone `benchmark/` package; the proofs report themselves
//! (`paradice-verify --all --json`). `--trace` records the
//! reference workload with paradice-trace enabled and dumps the span
//! events as JSONL — feed the file to `paradice-lint --replay` for
//! recorded-trace conformance checking.

use std::path::PathBuf;

use paradice_bench::experiments;
use paradice_bench::report::{render_experiments_json, splice_experiments_json, Table};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// An experiment: it runs and returns its table.
type Experiment = fn() -> Table;

/// Every experiment, in the order a full run emits them, by its flag.
const EXPERIMENTS: [(&str, Experiment); 16] = [
    ("--table1", experiments::table1),
    ("--table2", experiments::table2),
    ("--table3", experiments::table3),
    ("--noop", experiments::noop),
    ("--fig2", experiments::fig2),
    ("--fig3", experiments::fig3),
    ("--fig4", experiments::fig4),
    ("--fig5", experiments::fig5),
    ("--fig6", experiments::fig6),
    ("--mouse", experiments::mouse),
    ("--camera", experiments::camera),
    ("--audio", experiments::audio),
    ("--analyzer", experiments::analyzer),
    ("--isolation", experiments::isolation),
    ("--ablation", experiments::ablation),
    ("--fastpath", experiments::fastpath),
];

fn usage() -> String {
    let flags: Vec<&str> = EXPERIMENTS.iter().map(|&(flag, _)| flag).collect();
    format!(
        "usage: experiments [--all | FLAG...] | --trace FILE | --help\n\
         \n\
         With no flag or --all, runs every experiment and rewrites\n\
         BENCH_experiments.json; with flags, runs those and replaces their\n\
         tables there. Each table also lands as CSV under results/.\n\
         \n\
         FLAG: {}\n\
         --trace FILE  record the reference workload's span events as JSONL",
        flags.join(" ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    if let Some(pos) = args.iter().position(|a| a == "--trace") {
        let Some(path) = args.get(pos + 1) else {
            eprintln!("--trace requires a file path");
            std::process::exit(2);
        };
        let jsonl = paradice_bench::tracing::record_workload_trace();
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        let events = jsonl.lines().count();
        println!("recorded reference workload trace: {events} events -> {path}");
        return;
    }
    if let Some(unknown) = args
        .iter()
        .find(|a| *a != "--all" && !EXPERIMENTS.iter().any(|(flag, _)| flag == a))
    {
        eprintln!("error: unknown argument {unknown:?}\n\n{}", usage());
        std::process::exit(2);
    }
    let run_all = args.is_empty() || args.iter().any(|a| a == "--all");
    let mut emitted: Vec<Table> = Vec::new();
    println!("Paradice evaluation harness — all times are deterministic virtual time\n");
    for (flag, experiment) in EXPERIMENTS {
        if run_all || args.iter().any(|a| a == flag) {
            let table = experiment();
            println!("{}", table.render());
            if let Err(e) = table.write_csv(&results_dir()) {
                eprintln!("warning: could not write results/{}.csv: {e}", table.id);
            }
            emitted.push(table);
        }
    }
    let path = repo_root().join("BENCH_experiments.json");
    let document = if run_all {
        render_experiments_json(&emitted)
    } else {
        splice_experiments_json(&std::fs::read_to_string(&path).unwrap_or_default(), &emitted)
    };
    match std::fs::write(&path, document) {
        Ok(()) => println!("experiment tables written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write BENCH_experiments.json: {e}"),
    }
    println!("CSV written to {}", results_dir().display());
}
