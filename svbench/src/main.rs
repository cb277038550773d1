//! `svbench`: one command that measures `svd` over TCP, the compiler
//! passes and the simulator, end to end and layer by layer, and checks
//! every output. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path svbench/Cargo.toml -- \
//!     [--workload warm_hits|mixed|compile_suite|execute|all] [--seed S] \
//!     [--seconds N] [--trace [0|1]] [--repeat N]
//! ```
//!
//! Run it from the root of the repository. A run of one workload prints
//! one `name value unit` line per metric and, last, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--workload all` and
//! `--repeat N` run each workload in a child process of their own.

mod compile;
mod execute;
mod inputs;
mod metrics;
mod repeat;
mod replay;
mod stats;
mod svd;
mod tcp;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["warm_hits", "mixed", "compile_suite", "execute"];

/// Fewest set-ups per run; the run reports their median time as `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Cheap set-ups repeat until this much set-up time has been measured, so
/// their median is steady too.
const SETUP_BUDGET_S: f64 = 3.0;
/// Most set-ups per run.
const SETUP_MAX: usize = 200;

/// Where runs leave daemon logs and trace files.
const RUN_DIR: &str = "target/svbench";

/// One run of one workload.
pub struct Run {
    pub seed: u64,
    /// Length of the measured part.
    pub seconds: f64,
    /// Also record spans and report the per-layer metrics.
    pub traced: bool,
    pub dir: PathBuf,
}

/// Set a workload up several times, each from scratch (`set_up` gets the
/// attempt number), dropping each result before the next attempt and
/// keeping the last. Returns it with the median set-up time in seconds.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut kept = None;
    while secs.len() < SETUP_REPEATS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < SETUP_MAX)
    {
        drop(kept.take());
        let t = Instant::now();
        kept = Some(set_up(secs.len())?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up ran"), stats::median(&secs)))
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let mut o = Opts {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        repeat: 1,
    };
    let mut pending: Option<String> = None;
    while let Some(a) = pending.take().or_else(|| args.next()) {
        let mut value = |name: &str| args.next().ok_or(format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => o.workload = value("--workload")?,
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--seconds" => {
                o.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--repeat" => {
                o.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("bad --repeat: {e}"))?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace` alone, or followed by 0 or 1.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => o.traced = v == "1",
                next => {
                    o.traced = true;
                    pending = next;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.workload != "all" && !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}` (want {} or all)",
            o.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(o)
}

fn run_one(o: &Opts) -> ExitCode {
    let run = Run {
        seed: o.seed,
        seconds: o.seconds,
        traced: o.traced,
        dir: PathBuf::from(RUN_DIR),
    };
    let result = match o.workload.as_str() {
        "warm_hits" => tcp::warm_hits(&run),
        "mixed" => tcp::mixed(&run),
        "compile_suite" => compile::compile_suite(&run),
        _ => execute::execute(&run),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("svbench: {}: {e}", o.workload);
            return ExitCode::FAILURE;
        }
    };
    for line in report.lines(o.traced) {
        println!("{line}");
    }
    for m in &report.mismatches {
        eprintln!("svbench: {}: MISMATCH: {m}", o.workload);
    }
    println!("{}", report.json(o.traced));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("svbench: {e}");
            eprintln!(
                "usage: svbench [--workload {}|all] [--seed S] [--seconds N] [--trace [0|1]] [--repeat N]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates/serve/Cargo.toml").is_file() || !Path::new(inputs::MACHINES_DIR).is_dir()
    {
        eprintln!(
            "svbench: run from the root of the repository (crates/serve and {} not found)",
            inputs::MACHINES_DIR
        );
        return ExitCode::from(2);
    }
    if opts.workload == "all" || opts.repeat > 1 {
        repeat::run_children(
            &opts.workload,
            opts.seed,
            opts.seconds,
            opts.traced,
            opts.repeat,
        )
    } else {
        run_one(&opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Opts, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn long_and_short_argument_forms_parse() {
        let o = parse("--workload mixed --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.traced),
            ("mixed", 7, 12.0, true)
        );
        assert!(!parse("--workload execute --trace 0").unwrap().traced);
        let o = parse("--trace --workload execute").unwrap();
        assert!(o.traced);
        assert_eq!(o.workload, "execute");
        let o = parse("").unwrap();
        assert_eq!((o.workload.as_str(), o.seed, o.repeat), ("all", 1, 1));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--seed").is_err());
    }
}
