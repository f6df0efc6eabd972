//! Reference end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload ingest|analysis|lookup --seed N --seconds S --trace 0|1 \
//!     [--writer-rate EVENTS_PER_S] [--work-dir DIR]
//! ```
//!
//! Run from the repository root. Data lives under `--work-dir` (default
//! `.bench_work`) and is deleted at the end; traced runs leave their spans
//! there as `trace-<workload>-seed<N>.tsv`. The last line of standard output
//! is the result object; the exit code is non-zero when a correctness gate
//! failed or the run could not complete.

use e2ebench::{report, Config, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload ingest|analysis|lookup --seed N --seconds S --trace 0|1 \
         [--writer-rate EVENTS_PER_S] [--work-dir DIR]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Ingest,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::full(),
        writer_rate: 10_000.0,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--writer-rate" => cfg.writer_rate = value.parse().map_err(|_| bad())?,
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    if !(cfg.seconds > 0.0 && cfg.writer_rate > 0.0) {
        return Err("--seconds and --writer-rate must be positive".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    match report::run(&cfg) {
        Ok(r) => {
            for line in r.lines(&cfg) {
                println!("{line}");
            }
            let (failed, attempted) = r.counts();
            if failed == 0 && attempted > 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2ebench: {failed} of {attempted} checked items failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            ExitCode::from(1)
        }
    }
}
