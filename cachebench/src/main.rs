//! `cachebench` — the cachetime benchmark.
//!
//! ```text
//! cachebench --workload sweep|serve-warm --seed N --seconds S
//!            --trace 0|1 [--ctserve PATH]
//! ```
//!
//! Runs one workload, checks its outputs, and prints every metric by name
//! with its unit and sample count. The last line of standard output is the
//! result as one JSON object: with `--trace 0` the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a traced run. `cachebench/README.md`
//! defines the workloads and every metric.

mod layers;
mod loadgen;
mod serve;
mod server;
mod sweep;
mod util;

use std::path::PathBuf;
use std::time::Instant;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `ctserve` binary the serve workloads spawn.
    pub ctserve: PathBuf,
    /// Scratch space for data directories, spans and the saved report.
    pub work_dir: PathBuf,
    /// The zero of every span timestamp.
    pub epoch: Instant,
}

const WORKLOADS: [&str; 2] = ["sweep", "serve-warm"];

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cachebench --workload {} --seed N --seconds S --trace 0|1 [--ctserve PATH]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut ctserve = PathBuf::from("target/release/ctserve");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--seed must be an integer")),
                )
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds must be a number"));
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                }
            }
            "--ctserve" => ctserve = PathBuf::from(value),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    let work_dir = PathBuf::from(".cachebench");
    std::fs::create_dir_all(&work_dir)
        .unwrap_or_else(|e| usage(&format!("cannot create {}: {e}", work_dir.display())));
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace,
        ctserve,
        work_dir,
        epoch: Instant::now(),
    }
}

fn main() {
    let args = parse_args();
    let mut report = util::Report::default();
    let host = util::Host::fingerprint();
    report.note(format!(
        "host nproc={} cpu=\"{}\" calib_ms={:.3}",
        host.nproc, host.cpu_model, host.calib_ms
    ));
    report.note(format!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    ));
    match args.workload.as_str() {
        "sweep" => sweep::run(&args, &mut report),
        _ => serve::run_warm(&args, &mut report),
    }
    report.detail("host.calib_ms", host.calib_ms, "ms", 3);
    let unmeasured: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.clone())
        .collect();
    report.check(unmeasured.is_empty(), || {
        format!("metrics without a value: {unmeasured:?}")
    });

    let text = report.render_text();
    let line = report.result_line();
    let saved = args.work_dir.join(format!(
        "report-{}-seed{}-trace{}.txt",
        args.workload, args.seed, args.trace as u8
    ));
    let _ = std::fs::write(&saved, format!("{text}{line}\n"));
    print!("{text}");
    println!("{line}");
}
