//! End-to-end benchmark of the CRH workspace: batch CRH, streaming I-CRH
//! and the `crh-serve` daemon over loopback TCP, standalone and as a
//! three-member replicated group, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <batch|stream|serve_small|serve_large|serve_replicated> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones (latency p50/p95, claims per second, set-up time);
//! with `--trace 1` they are per-layer mean times per operation. See
//! `README.md` next to this package for what each workload measures.

mod batch;
mod gen;
mod measure;
mod serve;
mod stream;

use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 5] = [
    "batch",
    "stream",
    "serve_small",
    "serve_large",
    "serve_replicated",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for daemon state, under the build directory so a run
/// writes nowhere else; removed when the run ends.
fn work_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("e2ebench-work")
        .join(std::process::id().to_string())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = work_dir();
    let result = match args.workload.as_str() {
        "batch" => batch::run(&args),
        "stream" => stream::run(&args),
        "serve_small" => serve::run(&args, 1, 1, &work),
        "serve_large" => serve::run(&args, 200, 1, &work),
        _ => serve::run(&args, 20, 3, &work),
    };
    std::fs::remove_dir_all(&work).ok();
    match result {
        Ok(out) => {
            measure::report(&out, args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
