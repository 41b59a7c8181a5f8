//! Seeded driver-VM fault-injection campaigns (§7.1).
//!
//! ```sh
//! cargo run -p paradice-bench --bin fault-campaign -- --seed 42 --campaigns 50
//! cargo run -p paradice-bench --bin fault-campaign -- --help  # the flags
//! ```
//!
//! Each campaign injects one fault (panic, oops, hang, wild memory op,
//! malformed / truncated / dropped / delayed response) at a randomized
//! device class and file-operation phase, then verifies guest survival,
//! containment, and full driver-VM recovery. The sweep is deterministic:
//! the same seed prints a byte-identical report. Exits non-zero if any
//! guest fails or fewer than 95 % of driver-VM deaths recover; an unknown
//! argument or a count that does not fit a `u32` exits 2 and runs nothing.

use paradice_bench::faults;

fn usage() -> &'static str {
    "usage: fault-campaign [--seed N] [--campaigns N] | --help\n\
     \n\
     --seed N       the u64 every campaign derives from (default 42)\n\
     --campaigns N  how many campaigns to run, at most 4294967295 (default 50)"
}

/// Prints `why` and the usage, then exits 2 without running anything.
fn usage_error(why: &str) -> ! {
    eprintln!("error: {why}\n\n{}", usage());
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let (mut seed, mut campaigns) = (42u64, 50u32);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next();
        match flag.as_str() {
            "--seed" => match value.and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => usage_error("--seed requires a u64 argument"),
            },
            "--campaigns" => match value.and_then(|v| v.parse().ok()) {
                Some(v) => campaigns = v,
                None => usage_error("--campaigns requires an integer from 0 to 4294967295"),
            },
            _ => usage_error(&format!("unknown argument {flag:?}")),
        }
    }
    let report = faults::run_campaigns(seed, campaigns);
    print!("{}", report.render());
    if !report.pass() {
        std::process::exit(1);
    }
}
