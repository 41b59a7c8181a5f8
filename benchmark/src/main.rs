//! `paradice-benchmark`: the repo's one benchmark.
//!
//! ```text
//! paradice-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!     one run of one workload; the last line of standard output is the
//!     result object the driver reads
//! paradice-benchmark [--seed N] [--seconds S] [--trace]
//!     every workload, each in a process of its own, and one table
//! paradice-benchmark --aa [--seed N] [--seconds S]
//!     two full sets of the same binary (three alternating runs each per
//!     workload, medians compared against the bounds)
//! paradice-benchmark --quick
//!     one-second windows, correctness checks only
//! ```
//!
//! Exit code 0 means every correctness check passed (and, with `--aa`, every
//! gated metric agreed); 1 means one did not; 2 means the run could not be
//! trusted at all or the arguments were wrong.

mod gen;
mod machine;
mod metrics;
mod pin;
mod probes;
mod run;
mod spans;
mod stats;
mod wall;

use std::process::{Command, ExitCode, Stdio};

use metrics::{Def, END_TO_END, PER_LAYER};
use run::{Outcome, Plan, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 15;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    aa: bool,
    quick: bool,
    /// Internal: a run measuring its set-up time starts itself with this.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        aa: false,
        quick: false,
        setup_only: false,
    };
    let mut words = std::env::args().skip(1).peekable();
    while let Some(word) = words.next() {
        let mut value = |name: &str| words.next().ok_or(format!("{name} needs a value"));
        match word.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            // `--trace` alone (the README's spelling) or `--trace 0|1` (the driver's).
            "--trace" => {
                args.traced = match words.peek().map(String::as_str) {
                    Some("0") => {
                        words.next();
                        false
                    }
                    Some("1") => {
                        words.next();
                        true
                    }
                    _ => true,
                }
            }
            "--aa" => args.aa = true,
            "--quick" => args.quick = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.quick {
        args.seconds = 1;
    }
    Ok(args)
}

/// Cores, build profile and compiler, read when the process starts: pinning
/// a thread narrows what `available_parallelism` reports afterwards.
fn describe_machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} profile={profile} rustc=\"{}\"",
        env!("BENCH_RUSTC_VERSION")
    )
}

/// Prints one run: header, every metric by name with its unit and clock,
/// the checks, and the result object as the last line.
fn print_outcome(workload: &Workload, plan: Plan, outcome: &Outcome, machine: &str) {
    println!(
        "workload {} seed={} trace={} gated={}",
        workload.name,
        plan.seed,
        u8::from(plan.traced),
        workload.gated
    );
    println!("  why: {}", workload.why);
    println!("  load: closed loop, {}", workload.load);
    println!("  machine: {machine} threads_pinned={}", outcome.pinned);
    println!(
        "  run: {} slices of {} ms, warm-up {} steps, {} set-up(s), {} ops attempted, {} failed, {} expected refusals",
        outcome.slices, outcome.slice_ms, outcome.warmup, outcome.setups, outcome.attempted, outcome.failed, outcome.expected_refusals
    );
    for value in outcome.table.values() {
        let spread = value.spread.map_or(String::new(), |s| {
            format!(" min={} median={} max={}", s.min, s.median, s.max)
        });
        println!(
            "metric {} {} {} {}{spread}",
            value.def.name,
            value.value,
            value.def.unit,
            value.def.clock.label()
        );
    }
    if !plan.traced {
        println!("metric sim.ns_per_op {} sim_ns sim", outcome.sim_ns_per_op);
        println!(
            "metric sim.light_p50_ns {} sim_ns sim",
            outcome.sim_light_p50_ns
        );
    } else {
        println!("  spans: {}", run::trace_path(workload.name).display());
    }
    for check in &outcome.checks {
        println!(
            "check {} {}",
            if check.ok { "ok" } else { "FAILED" },
            check.what
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        outcome.table.json()
    );
}

/// What the parent keeps of one child's run.
struct ChildRun {
    correct: bool,
    /// `(name, value)` of every `metric` line.
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs one workload in a process of its own — so its set-up time and peak
/// RSS are its own, exactly as under the driver — echoes its report and
/// waits for it to end.
fn run_child(workload: &str, args: &Args, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        correct: false,
        metrics: Vec::new(),
    };
    for line in text.lines() {
        if line.starts_with('{') {
            run.correct = line.contains("\"correct\": true");
            continue;
        }
        println!("{line}");
        let mut words = line.split(' ');
        if words.next() == Some("metric") {
            if let (Some(name), Some(Ok(value))) =
                (words.next(), words.next().map(str::parse::<f64>))
            {
                run.metrics.push((name.to_owned(), value));
            }
        }
    }
    // Exit 0 and 1 come with a result; anything else is a run that could
    // not be trusted.
    if !matches!(output.status.code(), Some(0 | 1)) || run.metrics.is_empty() {
        return Err(format!("{workload}: no result ({})", output.status));
    }
    run.correct &= output.status.success();
    Ok(run)
}

fn print_matrix(title: &str, defs: &[Def], runs: &[ChildRun]) {
    println!("\n{title}");
    print!("{:<40} {:<7} {:<6}", "metric", "unit", "better");
    for workload in &WORKLOADS {
        print!(" {:>22}", workload.name);
    }
    println!();
    for def in defs {
        print!("{:<40} {:<7} {:<6}", def.name, def.unit, def.better());
        for run in runs {
            print!(" {:>22.4}", run.get(def.name).unwrap_or(0.0));
        }
        println!();
    }
}

/// Every workload once (twice with `--trace`: the per-layer table comes
/// from a traced run of its own). Returns whether every run was correct.
fn run_all(args: &Args, machine: &str) -> Result<bool, String> {
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for workload in &WORKLOADS {
        untraced.push(run_child(workload.name, args, false)?);
        if args.traced {
            traced.push(run_child(workload.name, args, true)?);
        }
    }
    println!("\nmachine: {machine}");
    print_matrix(
        "end-to-end metrics (host time, untraced runs)",
        END_TO_END,
        &untraced,
    );
    let sim: Vec<Def> = PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("sim."))
        .copied()
        .collect();
    print_matrix("simulated time (virtual-clock ns, exact)", &sim, &untraced);
    if args.traced {
        print_matrix(
            "per-layer metrics (traced runs and probes)",
            PER_LAYER,
            &traced,
        );
    }
    Ok(untraced.iter().chain(&traced).all(|run| run.correct))
}

/// Runs of each workload in each set of `--aa`; a set's value is their
/// median. One run against one run disagrees by more than a bound now and
/// then on the two-thread workloads (README, "How steady it is").
const AA_RUNS: usize = 3;

/// The median of `name` over `runs` (0 when a run lacks it).
fn median_of(runs: &[ChildRun], name: &str) -> f64 {
    let values: Vec<f64> = runs
        .iter()
        .map(|run| run.get(name).unwrap_or(0.0))
        .collect();
    stats::median(&values)
}

/// Two full sets of the same binary, their runs alternating so that the
/// box's drift lands on both. Every gated host metric must agree within its
/// bound, simulated time to the bit in every run, and nothing may fail.
fn run_aa(args: &Args, machine: &str) -> Result<bool, String> {
    println!(
        "A/A: two sets of the same binary, {AA_RUNS} runs each per workload, seed {}; machine: {machine}",
        args.seed
    );
    let mut rows = Vec::new();
    let mut agreed = true;
    for workload in &WORKLOADS {
        let mut sets = [Vec::new(), Vec::new()];
        for _ in 0..AA_RUNS {
            for set in &mut sets {
                set.push(run_child(workload.name, args, false)?);
            }
        }
        let [first, second] = sets;
        agreed &= first.iter().chain(&second).all(|run| run.correct);
        for def in END_TO_END {
            let (a, b) = (median_of(&first, def.name), median_of(&second, def.name));
            // How much worse either set reads than the other, as a share.
            let worse_by = if a > 0.0 && b > 0.0 {
                a.max(b) / a.min(b) - 1.0
            } else {
                1.0
            };
            let ok = worse_by <= def.bound;
            agreed &= ok || !workload.gated;
            rows.push(format!(
                "{:<24} {:<18} {a:>16.4} {b:>16.4} {:>8.2}% {:>6.0}%  {}",
                workload.name,
                def.name,
                worse_by * 100.0,
                def.bound * 100.0,
                match (ok, workload.gated) {
                    (true, _) => "ok",
                    (false, true) => "DISAGREE",
                    (false, false) => "disagree (not gated)",
                }
            ));
        }
        for name in ["sim.ns_per_op", "sim.light_p50_ns"] {
            let a = first[0].get(name);
            let ok = a.is_some() && first.iter().chain(&second).all(|run| run.get(name) == a);
            agreed &= ok;
            rows.push(format!(
                "{:<24} {:<18} {:>16} {:>16} {:>9} {:>7}  {}",
                workload.name,
                name,
                a.unwrap_or(0.0),
                second[0].get(name).unwrap_or(0.0),
                "",
                "exact",
                if ok { "ok" } else { "DISAGREE" }
            ));
        }
    }
    println!(
        "\n{:<24} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for row in rows {
        println!("{row}");
    }
    Ok(agreed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("paradice-benchmark: {why}");
            return ExitCode::from(2);
        }
    };
    let machine = describe_machine();
    let verdict = match &args.workload {
        Some(name) => {
            let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
                eprintln!("paradice-benchmark: no workload {name}");
                return ExitCode::from(2);
            };
            if args.setup_only {
                return match run::setup_only(workload, args.seed) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(why) => {
                        eprintln!("paradice-benchmark: {why}");
                        ExitCode::from(2)
                    }
                };
            }
            let plan = Plan {
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                quick: args.quick,
            };
            run::run(workload, plan).map(|outcome| {
                print_outcome(workload, plan, &outcome, &machine);
                outcome.correct()
            })
        }
        None if args.aa => run_aa(&args, &machine),
        None => run_all(&args, &machine),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("paradice-benchmark: a correctness check failed or a gated metric disagreed");
            ExitCode::from(1)
        }
        Err(why) => {
            eprintln!("paradice-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}
