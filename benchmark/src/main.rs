//! The repository benchmark. See `README.md` next to this package.
//!
//! ```text
//! faucets-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! faucets-benchmark compare DIR_A DIR_B
//! ```

mod compare;
mod grid;
mod layers;
mod loadgen;
mod procinfo;
mod reference;
mod report;
mod run;
mod spec;
#[cfg(test)]
mod standins;
mod stats;
mod tracer;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  faucets-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  faucets-benchmark compare DIR_A DIR_B";

fn parse_run(args: &[String]) -> Result<run::Args, String> {
    let mut parsed = run::Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::spec().run_seconds,
        trace: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            "--out" => parsed.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        Some("compare") | None => {
            eprintln!("{USAGE}");
            2
        }
        Some(_) => match parse_run(&args) {
            Ok(parsed) => run::run(&parsed),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
    };
    ExitCode::from(code)
}
