//! End-to-end and per-layer benchmark of the L2Q harvest stack.
//!
//! ```text
//! cargo run --release --manifest-path harvestbench/Cargo.toml -- \
//!     --workload batch_harvest --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

mod batch;
mod fleet;
mod load;
mod report;
mod routed;
mod stats;
mod sys;
mod trace;
mod world;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `interactive_routed` offered load override, for knee sweeps.
    rate: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut rate) = (1u64, 10u64, false, routed::RATE);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => trace = value()? == "1",
            "--rate" => {
                rate = value()?.parse().map_err(|e| format!("--rate: {e}"))?;
                if !(rate > 0.0 && rate.is_finite()) {
                    return Err("--rate must be a positive number".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        rate,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Server and set-up children re-execute this binary.
    match argv
        .first()
        .map(String::as_str)
        .zip(argv.get(1).map(String::as_str))
    {
        Some(("--role", "shard")) if argv.len() == 5 => {
            fleet::shard_main(&argv[2], std::path::Path::new(&argv[3]), &argv[4]);
            return ExitCode::SUCCESS;
        }
        Some(("--role", "router")) => {
            fleet::router_main(&argv[2..]);
            return ExitCode::SUCCESS;
        }
        Some(("--role", "setup")) if argv.len() == 4 => {
            batch::setup_main(&argv[2], &argv[3]);
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("harvestbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("batch_harvest", false) => batch::run(args.seed, args.seconds),
        ("interactive_routed", false) => routed::interactive(args.seed, args.seconds, args.rate),
        ("batch_harvest", true) => trace::run(batch::trace_input(args.seed, args.seconds)),
        ("interactive_routed", true) => trace::run(routed::interactive_trace_input(
            args.seed,
            args.seconds,
            args.rate,
        )),
        (other, _) => {
            eprintln!("harvestbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // Each run's store directories are gone by now; drop their parent.
    let _ = std::fs::remove_dir(".harvestbench-data");
    ExitCode::from(report.emit() as u8)
}
