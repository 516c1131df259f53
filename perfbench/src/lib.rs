//! Layered benchmark of the CYCLOSA reproduction.
//!
//! One binary runs one named workload through the program's public entry
//! points, checks its outputs, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (a traced run, preceded by an
//! untraced one so the tracing overhead can be reported). See
//! `README.md` in this directory for the workloads and the
//! metric → layer → end-to-end map.

pub mod alloc;
pub mod cli;
pub mod gossip;
pub mod metrics;
pub mod privacy;
pub mod probe;
pub mod soak;

use cli::{Args, WorkloadName};
use metrics::{median, Layers, MetricDef, END_TO_END, PER_LAYER};
use probe::{now, since};

/// Largest share of a traced run's thread time the probe may leave
/// unattributed (thread heads and tails) before the attribution is
/// considered not to close.
pub const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// What one iteration of a workload measured and produced.
#[derive(Debug)]
pub struct Iteration {
    /// Processor seconds of set-up before the measured run.
    pub setup_cpu_s: f64,
    /// Wall-clock seconds of the measured run.
    pub run_s: f64,
    /// Processor seconds of each segment of the measured run, summed over
    /// threads. A segment does the same work in every iteration of a
    /// seed, so its fastest iteration is its own cost.
    pub run_cpu_s: Vec<f64>,
    /// Operations the iteration attempted.
    pub ops: u64,
    /// Output checks that failed (empty when the iteration is correct).
    pub failures: Vec<String>,
    /// Fingerprint of the program's outcome; equal across iterations of
    /// one seed, traced or not.
    pub fingerprint: u64,
    /// Deterministic outcome values, reported under per-layer names.
    pub outcome: Layers,
    /// Per-layer timings and counters (traced iterations only).
    pub layers: Layers,
}

/// A benchmark workload.
pub trait Workload {
    /// Runs one iteration, wrapping the layers' surfaces when `traced`.
    fn iterate(&mut self, traced: bool) -> Iteration;
}

/// Builds the named workload for `seed`.
pub fn workload(name: WorkloadName, seed: u64) -> Box<dyn Workload> {
    match name {
        WorkloadName::Soak => Box::new(soak::Soak::new(seed, None)),
        WorkloadName::Soak2Shards => Box::new(soak::Soak::new(seed, Some(2))),
        WorkloadName::Gossip2Shards => Box::new(gossip::Gossip::new(seed, 2)),
        WorkloadName::Privacy => Box::new(privacy::Privacy::new(seed)),
    }
}

/// Runs iterations until `budget_s` has passed, at least one.
pub fn measure(workload: &mut dyn Workload, traced: bool, budget_s: f64) -> Vec<Iteration> {
    let start = now();
    let mut iterations = Vec::new();
    while iterations.is_empty() || since(start) < budget_s {
        iterations.push(workload.iterate(traced));
    }
    iterations
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted over every iteration.
    pub attempted: u64,
    /// Operations of iterations whose checks failed.
    pub failed: u64,
    /// Every failed check, prefixed with its iteration.
    pub failures: Vec<String>,
    /// Reported metrics, in catalogue order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Deterministic outcome values of the first iteration.
    pub outcome: Layers,
}

impl Report {
    /// `true` when every check of every iteration passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// Checks every iteration, including that all share the first one's
/// outcome: returns (attempted, failed, failures).
fn tally<'a>(iterations: impl IntoIterator<Item = &'a Iteration>) -> (u64, u64, Vec<String>) {
    let mut first = None;
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    for (index, iteration) in iterations.into_iter().enumerate() {
        let reference = *first.get_or_insert(iteration.fingerprint);
        attempted += iteration.ops;
        let mut problems = iteration.failures.clone();
        if iteration.fingerprint != reference {
            problems.push("outcome differs from the first iteration's".to_owned());
        }
        if !problems.is_empty() {
            failed += iteration.ops;
            failures.extend(
                problems
                    .into_iter()
                    .map(|p| format!("iteration {index}: {p}")),
            );
        }
    }
    (attempted, failed, failures)
}

/// The fastest of a run's timings. Timings are processor time, which a
/// shared host's other tenants cannot inflate by taking the cores away;
/// they still add time through cache, memory-bandwidth and hyperthread
/// contention, and only ever add it, so the fastest iteration is the
/// steadiest estimate of the program's own cost.
fn fastest(iterations: &[Iteration], time: impl Fn(&Iteration) -> f64) -> f64 {
    iterations.iter().map(time).fold(f64::INFINITY, f64::min)
}

/// The measured run's processor time: the sum over its segments of each
/// segment's fastest iteration. Short segments are far more likely than a
/// whole run to fall in a stretch the host left undisturbed.
fn fastest_run(iterations: &[Iteration]) -> f64 {
    let segments = iterations
        .iter()
        .map(|i| i.run_cpu_s.len())
        .max()
        .unwrap_or(0);
    (0..segments)
        .map(|segment| {
            fastest(iterations, |i| {
                i.run_cpu_s.get(segment).copied().unwrap_or(f64::INFINITY)
            })
        })
        .sum()
}

fn layer_median(iterations: &[Iteration], name: &str) -> f64 {
    let values: Vec<f64> = iterations
        .iter()
        .filter_map(|i| i.layers.iter().chain(&i.outcome).find(|(n, _)| *n == name))
        .map(|(_, v)| *v)
        .collect();
    median(&values)
}

/// Runs the benchmark `args` describe.
///
/// # Errors
///
/// Fails when the peak resident set size cannot be read.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut workload = workload(args.workload, args.seed);
    let seconds = args.seconds as f64;
    // A traced run spends half its budget untraced, so the tracing
    // overhead is the difference of two halves of the same process.
    let untraced_budget = if args.trace { seconds / 2.0 } else { seconds };
    let untraced = measure(workload.as_mut(), false, untraced_budget);
    let traced = if args.trace {
        let _counting = alloc::Counting::on();
        measure(workload.as_mut(), true, seconds / 2.0)
    } else {
        Vec::new()
    };
    let (attempted, failed, mut failures) = tally(untraced.iter().chain(&traced));
    let run_cpu_s = fastest_run(&untraced);
    let values: Vec<(MetricDef, f64)> = if args.trace {
        let overhead = fastest_run(&traced) - run_cpu_s;
        let run_wall_s = fastest(&untraced, |i| i.run_s);
        PER_LAYER
            .iter()
            .map(|m| match m.name {
                "trace.overhead_s" => (*m, overhead),
                "wall.run_s" => (*m, run_wall_s),
                name => (*m, layer_median(&traced, name)),
            })
            .collect()
    } else {
        let ok = 1.0 - metrics::ratio(failed as f64, attempted as f64);
        let setup_s = fastest(&untraced, |i| i.setup_cpu_s);
        let measured = [setup_s, run_cpu_s, metrics::peak_rss_mib()?, ok];
        END_TO_END.iter().copied().zip(measured).collect()
    };
    if let Some((m, v)) = values.iter().find(|(_, v)| !v.is_finite()) {
        failures.push(format!("metric {} is not finite ({v})", m.name));
    }
    let metrics = values
        .into_iter()
        .filter(|(m, _)| args.metrics.is_empty() || args.metrics.iter().any(|n| n == m.name))
        .collect();
    Ok(Report {
        attempted,
        failed,
        failures,
        metrics,
        outcome: untraced[0].outcome.clone(),
    })
}
