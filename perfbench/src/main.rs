//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_mixed --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one named workload (see `perfbench/README.md`) from the root of a
//! checkout: the workload's serving traffic, and between its rounds the
//! paper reproduction pass that every run shares. It checks every output,
//! and prints as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics, every end-to-end one with `--trace 0` and every per-layer one
//! with `--trace 1`. Scratch files go under `.perfbench_work/` and are
//! removed at exit.

mod gen;
mod paper;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Kind;

/// The benchmark's workloads: the serving traffic a run sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeMixed,
    ServeChurn,
    ServeTiny,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ServeMixed, Workload::ServeChurn, Workload::ServeTiny];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeChurn => "serve_churn",
            Workload::ServeTiny => "serve_tiny",
        }
    }
}

/// The command line.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload serve_mixed|serve_churn|serve_tiny --seed N \
     --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err(format!("seconds must be 1 to 60, not {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A run that has not finished by then is stopped: a hung server must not
/// hang the benchmark.
const WATCHDOG: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: the run did not finish within {} s", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    println!(
        "perfbench {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let (total, stolen) = report::host_ticks();
    let report = serve::run(&args, &work);
    let (total_end, stolen_end) = report::host_ticks();
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the run",
        100.0 * (stolen_end - stolen) as f64 / (total_end - total).max(1) as f64
    );
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    let kind = if args.trace { Kind::PerLayer } else { Kind::EndToEnd };
    println!("{}", report.finish(kind));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_tiny --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeTiny);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 10 --trace 0").is_err());
        assert!(args("--workload serve_mixed --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload serve_mixed --seed 1 --seconds 10").is_err());
        assert!(args("--workload serve_mixed --seed 1 --seconds 10 --trace 2").is_err());
    }
}
