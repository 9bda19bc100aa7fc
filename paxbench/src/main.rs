//! `paxbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path paxbench/Cargo.toml -- \
//!     --workload <paper_flow|joint_search|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets up, measures for `--seconds`, checks every output it
//! produced, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones
//! (see [`report`]). `--size tiny` and `--inject` exist for the smoke
//! test. See `paxbench/README.md` for the workloads and metrics.

mod common;
mod flow;
mod reference;
mod report;
mod search;
mod serve;
mod trace;

use std::path::PathBuf;

use common::{Inject, Size};
use report::Report;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub inject: Inject,
    /// Internal: run one `paper_flow` pass in this (child) process.
    pub pass: bool,
}

const WORKLOADS: [&str; 3] = ["paper_flow", "joint_search", "serve_mixed"];

/// Environment variables that change what the program does behind the
/// benchmark's back: the first replaces the NSGA-II seed inside
/// `Nsga2::new`, the second adds journal file I/O to every search.
const FORBIDDEN_ENV: [&str; 2] = ["PAX_SEARCH_SEED", "PAX_OBS_JOURNAL"];

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        inject: Inject::None,
        pass: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?,
            "--pass" => {
                opts.workload = value()?;
                opts.pass = true;
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--size" => {
                let v = value()?;
                opts.size =
                    Size::parse(&v).ok_or(format!("--size takes full or tiny, not `{v}`"))?;
            }
            "--inject" => {
                opts.inject = match value()?.as_str() {
                    "none" => Inject::None,
                    "point" => Inject::Point,
                    "class" => Inject::Class,
                    other => return Err(format!("--inject takes none, point or class: `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(opts)
}

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.json"))
}

fn run(opts: &Opts) -> Result<String, String> {
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to run with {var} set"));
    }
    let mut rep = Report::default();
    match opts.workload.as_str() {
        "paper_flow" => flow::run(opts, &mut rep)?,
        "joint_search" => search::run(opts, &mut rep)?,
        _ => serve::run(opts, &mut rep)?,
    }
    if opts.trace {
        rep.to_json(report::PER_LAYER, false)
    } else {
        rep.to_json(report::END_TO_END, true)
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("paxbench: {e}");
            std::process::exit(2);
        }
    };
    if opts.pass {
        if let Err(e) = flow::pass(&opts) {
            eprintln!("paxbench pass: {e}");
            std::process::exit(1);
        }
        return;
    }
    match run(&opts) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("paxbench: {e}");
            std::process::exit(1);
        }
    }
}
