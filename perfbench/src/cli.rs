//! Command-line parsing. Every malformed input is an `Err` with a message,
//! never a panic.

use crate::metrics::{END_TO_END, PER_LAYER};

/// The usage line printed with every parse error.
pub const USAGE: &str = "usage: perfbench --workload soak|soak-2shards|gossip-2shards|privacy \
     --seed N --seconds S --trace 0|1 [--metric NAME]...";

/// Longest measurement a run accepts, in seconds.
const MAX_SECONDS: u64 = 600;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// `run_soak_on` on the sequential `Simulation`.
    Soak,
    /// The same soak on a two-shard `ShardedEngine`.
    Soak2Shards,
    /// A 10k-node SWIM overlay that partitions and merges, on two shards.
    Gossip2Shards,
    /// Fig. 5 re-identification at `ExperimentScale::Default`.
    Privacy,
}

impl WorkloadName {
    /// Every workload. `BENCHMARK.json` lists all but `soak-2shards`, whose
    /// wall time on a shared 2-vCPU host is too noisy to gate (see
    /// `README.md`).
    pub const ALL: [WorkloadName; 4] = [
        WorkloadName::Soak,
        WorkloadName::Soak2Shards,
        WorkloadName::Gossip2Shards,
        WorkloadName::Privacy,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::Soak => "soak",
            WorkloadName::Soak2Shards => "soak-2shards",
            WorkloadName::Gossip2Shards => "gossip-2shards",
            WorkloadName::Privacy => "privacy",
        }
    }

    /// Most threads the workload runs at once (the sequential soak
    /// cross-checks its outcome on a two-shard engine).
    pub fn threads(self) -> usize {
        match self {
            WorkloadName::Soak | WorkloadName::Soak2Shards | WorkloadName::Gossip2Shards => 2,
            WorkloadName::Privacy => 1,
        }
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: WorkloadName,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// `true` for the per-layer (traced) run.
    pub trace: bool,
    /// Metrics to report; empty means all of the mode's metrics.
    pub metrics: Vec<String>,
}

fn value<'a>(flag: &str, rest: &mut impl Iterator<Item = &'a str>) -> Result<&'a str, String> {
    rest.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message for an unknown flag, workload or metric, a missing
/// or malformed value, or a missing required flag.
pub fn parse<'a>(args: impl IntoIterator<Item = &'a str>) -> Result<Args, String> {
    let mut rest = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut metrics = Vec::new();
    while let Some(flag) = rest.next() {
        match flag {
            "--workload" => {
                let name = value(flag, &mut rest)?;
                let found = WorkloadName::ALL.into_iter().find(|w| w.as_str() == name);
                workload = Some(found.ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let text = value(flag, &mut rest)?;
                seed = Some(text.parse::<u64>().map_err(|_| {
                    format!("bad --seed {text:?}: expected an integer in 0..=2^64-1")
                })?);
            }
            "--seconds" => {
                let text = value(flag, &mut rest)?;
                let parsed = text
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=MAX_SECONDS).contains(s));
                seconds = Some(parsed.ok_or_else(|| {
                    format!("bad --seconds {text:?}: expected an integer in 1..={MAX_SECONDS}")
                })?);
            }
            "--trace" => {
                trace = Some(match value(flag, &mut rest)? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other:?}: expected 0 or 1")),
                });
            }
            "--metric" => {
                let name = value(flag, &mut rest)?;
                if !END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name) {
                    return Err(format!("unknown metric {name:?}"));
                }
                metrics.push(name.to_owned());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        metrics,
    };
    let mode = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(name) = args
        .metrics
        .iter()
        .find(|n| !mode.iter().any(|m| m.name == **n))
    {
        return Err(format!(
            "metric {name:?} is reported with --trace {}",
            if args.trace { 0 } else { 1 }
        ));
    }
    Ok(args)
}

/// Fails when the workload needs more threads than the machine has.
///
/// # Errors
///
/// Names the workload, its thread count and `nproc`.
pub fn check_threads(workload: WorkloadName, nproc: usize) -> Result<(), String> {
    if workload.threads() > nproc {
        Err(format!(
            "workload {} runs {} threads but nproc is {nproc}",
            workload.as_str(),
            workload.threads()
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace())
    }

    #[test]
    fn accepts_the_documented_interface() {
        let args = parse_line("--workload soak-2shards --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload, WorkloadName::Soak2Shards);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10, true));
        assert!(args.metrics.is_empty());
    }

    #[test]
    fn rejects_bad_input_with_an_error() {
        for line in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload soak --seed -1 --seconds 1 --trace 0",
            "--workload soak --seed x --seconds 1 --trace 0",
            "--workload soak --seed 1 --seconds 0 --trace 0",
            "--workload soak --seed 1 --seconds 1 --trace 2",
            "--workload soak --seed 1 --seconds 1 --trace 0 --metric nope",
            "--workload soak --seed 1 --seconds 1 --trace 0 --metric net.events",
            "--workload soak --seed 1 --seconds 1 --trace 0 --bogus",
            "--workload soak --seed 1 --seconds 1",
            "--workload soak --seed",
        ] {
            assert!(parse_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn thread_count_above_nproc_is_an_error() {
        assert!(check_threads(WorkloadName::Soak2Shards, 1).is_err());
        assert!(check_threads(WorkloadName::Soak2Shards, 2).is_ok());
        assert!(check_threads(WorkloadName::Privacy, 1).is_ok());
    }
}
