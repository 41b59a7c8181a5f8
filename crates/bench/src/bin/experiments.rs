//! Regenerates the paper's tables and figures.
//!
//! ```sh
//! cargo run -p paradice-bench --bin experiments            # everything
//! cargo run -p paradice-bench --bin experiments -- --fig2  # one experiment
//! cargo run -p paradice-bench --bin experiments -- --fastpath
//! cargo run -p paradice-bench --bin experiments -- --trace trace.jsonl
//! ```
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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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
    let run_all = args.is_empty() || args.iter().any(|a| a == "--all");
    let want = |flag: &str| run_all || args.iter().any(|a| a == flag);
    let mut emitted: Vec<Table> = Vec::new();
    let mut emit = |table: Table| {
        println!("{}", table.render());
        if let Err(e) = table.write_csv(&results_dir()) {
            eprintln!("warning: could not write results/{}.csv: {e}", table.id);
        }
        emitted.push(table);
    };

    println!("Paradice evaluation harness — all times are deterministic virtual time\n");
    if want("--table1") {
        emit(experiments::table1());
    }
    if want("--table2") {
        emit(experiments::table2());
    }
    if want("--table3") {
        emit(experiments::table3());
    }
    if want("--noop") {
        emit(experiments::noop());
    }
    if want("--fig2") {
        emit(experiments::fig2());
    }
    if want("--fig3") {
        emit(experiments::fig3());
    }
    if want("--fig4") {
        emit(experiments::fig4());
    }
    if want("--fig5") {
        emit(experiments::fig5());
    }
    if want("--fig6") {
        emit(experiments::fig6());
    }
    if want("--mouse") {
        emit(experiments::mouse());
    }
    if want("--camera") {
        emit(experiments::camera());
    }
    if want("--audio") {
        emit(experiments::audio());
    }
    if want("--analyzer") {
        emit(experiments::analyzer());
    }
    if want("--isolation") {
        emit(experiments::isolation());
    }
    if want("--ablation") {
        emit(experiments::ablation());
    }
    if want("--fastpath") {
        emit(experiments::fastpath());
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
