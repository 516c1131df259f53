//! The `soak` and `soak-2shards` workloads: `run_soak_on` with 60 relays,
//! one client and one search-engine node (k = 3), open-loop diurnal load
//! with flash crowds, exponential relay churn (40 s up, 10 s down) and a
//! 20 % colluding coalition — on the sequential `Simulation`, or on a
//! `ShardedEngine` whose outcome must equal the sequential one.

use crate::metrics::{fingerprint, ratio, Layers};
use crate::probe::{mark, runtime_values, EngineRun, Mark, Probe, Slot, TimedEngine, Totals};
use crate::{Iteration, Workload};
use cyclosa_chaos::adversary::{AdversaryConfig, ByzantinePolicy};
use cyclosa_chaos::churn::ChurnModel;
use cyclosa_chaos::soak::{run_soak, run_soak_on, run_soak_sharded, SoakConfig, SoakOutcome};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::{Registry, ShardedEngine};
use cyclosa_telemetry::TraceSink;

/// User queries per iteration: about 50 ms sequential on a 2-core x86-64
/// VM. Short iterations matter: the run reports its fastest iteration,
/// and host interference on a shared machine comes in bursts, so many
/// short iterations find an undisturbed one far more reliably than a few
/// long ones (the spread of 15 s window minima halved against 20 000
/// queries per iteration).
pub const QUERIES: u64 = 5_000;

/// The soak configuration the workload replays for `seed`: one simulated
/// day of diurnal load over `queries`, with two flash crowds each 4 % of
/// the run wide.
pub fn config(seed: u64, queries: u64) -> SoakConfig {
    SoakConfig {
        relays: 60,
        k: 3,
        queries,
        seed,
        diurnal_period_queries: queries,
        flash_width_queries: queries / 50,
        churn: Some(ChurnModel::ExponentialSessions {
            mean_uptime: SimTime::from_secs(40),
            mean_downtime: SimTime::from_secs(10),
        }),
        adversary: Some(AdversaryConfig {
            fraction: 0.2,
            policy: ByzantinePolicy::Collude,
            activate_at: SimTime::from_secs(5),
        }),
        // Churned relays swallow in-flight plans; the floor for a churned
        // soak is delivery with healing (as in the `soak` binary).
        min_answered_fraction: 0.9,
        ..SoakConfig::default()
    }
}

/// Node layout of `run_soak_on`: node 0 is the search engine, nodes
/// `1..=relays` are relays and node `relays + 1` is the client.
fn classify(relays: usize) -> impl Fn(NodeId) -> Slot {
    move |node| match node.0 {
        0 => Slot::EngineNode,
        id if id <= relays as u64 => Slot::Relay,
        _ => Slot::Client,
    }
}

/// The deterministic outcome values of a soak that processed `events`
/// engine events, under per-layer names.
pub fn outcome_values(outcome: &SoakOutcome, events: u64) -> Layers {
    let answered = outcome.windows.iter().map(|w| w.answered).sum::<u64>() as f64;
    let latency_sum: f64 = outcome.windows.iter().map(|w| w.latency_sum_s).sum();
    let latency_max = outcome
        .windows
        .iter()
        .map(|w| w.latency_max_s)
        .fold(0.0, f64::max);
    let under_k = outcome.windows.iter().map(|w| w.under_target).sum::<u64>() as f64;
    vec![
        ("chaos.retries", outcome.retries as f64),
        ("chaos.fakes_topped_up", outcome.fakes_topped_up as f64),
        ("chaos.peak_inflight", outcome.peak_inflight as f64),
        (
            "chaos.peak_resident_bytes",
            outcome.peak_resident_bytes as f64,
        ),
        ("chaos.sim_latency_mean_s", ratio(latency_sum, answered)),
        ("chaos.sim_latency_max_s", latency_max),
        ("chaos.under_k_fraction", ratio(under_k, answered)),
        ("net.events", events as f64),
        ("net.delivered", outcome.stats.delivered as f64),
    ]
}

/// Shards of the engine the sequential soak is cross-checked against.
pub const REFERENCE_SHARDS: usize = 2;

/// The soak workload on the sequential engine (`shards == None`) or on a
/// sharded one.
pub struct Soak {
    config: SoakConfig,
    shards: Option<usize>,
    /// The outcome on the other engine, which every iteration must
    /// reproduce bit for bit.
    reference: SoakOutcome,
}

impl Soak {
    /// The workload for `seed`. It first runs the same soak once, untimed,
    /// on the other engine — [`REFERENCE_SHARDS`] shards for the
    /// sequential soak, the sequential `Simulation` for a sharded one — as
    /// the reference its outcomes must equal.
    pub fn new(seed: u64, shards: Option<usize>) -> Self {
        Self::with_queries(seed, shards, QUERIES)
    }

    /// [`Soak::new`] with a different query count (used by tests).
    pub fn with_queries(seed: u64, shards: Option<usize>, queries: u64) -> Self {
        let config = config(seed, queries);
        let reference = match shards {
            None => run_soak_sharded(&config, REFERENCE_SHARDS),
            Some(_) => run_soak(&config),
        };
        Self {
            config,
            shards,
            reference,
        }
    }
}

fn run_on<E: Engine>(
    engine: &mut E,
    config: &SoakConfig,
    probe: Option<&Probe>,
    started: Mark,
) -> (SoakOutcome, EngineRun) {
    let classify = classify(config.relays);
    let mut timed = TimedEngine::new(engine, probe, &classify, started);
    let outcome = run_soak_on(&mut timed, config, &TraceSink::disabled());
    let run = timed.engine_run();
    (outcome, run)
}

/// Per-layer values of a traced soak iteration.
fn layer_values(
    totals: &Totals,
    run: &EngineRun,
    shards: Option<usize>,
    registry: &Registry,
) -> Layers {
    let client = totals.slot(Slot::Client);
    let relay = totals.slot(Slot::Relay);
    let engine_node = totals.slot(Slot::EngineNode);
    let callbacks = (client.calls + relay.calls + engine_node.calls) as f64;
    let callback_s = client.seconds + relay.seconds + engine_node.seconds;
    let callback_allocs = (client.allocs + relay.allocs + engine_node.allocs) as f64;
    let events = run.events as f64;
    let threads = shards.unwrap_or(1) as f64;
    let mut layers = vec![
        ("chaos.client_s", client.seconds),
        ("chaos.relay_s", relay.seconds),
        ("chaos.engine_node_s", engine_node.seconds),
        ("chaos.ns_per_callback", ratio(callback_s * 1e9, callbacks)),
        (
            "chaos.allocs_per_callback",
            ratio(callback_allocs, callbacks),
        ),
        (
            "trace.unattributed_share",
            totals.unattributed_share(threads * run.run_s),
        ),
    ];
    match shards {
        None => layers.extend([
            ("net.self_s", totals.gap_s),
            ("net.ns_per_event", ratio(totals.gap_s * 1e9, events)),
            (
                "net.allocs_per_event",
                ratio(totals.gap_allocs as f64, events),
            ),
        ]),
        Some(shards) => layers.extend(runtime_values(totals, run, shards, registry)),
    }
    layers
}

impl Workload for Soak {
    fn iterate(&mut self, traced: bool) -> crate::Iteration {
        let started = mark();
        let registry = Registry::new();
        let probe = traced.then(|| match self.shards {
            None => Probe::new(),
            Some(shards) => Probe::sharded(&registry, shards),
        });
        let (outcome, run) = match self.shards {
            None => run_on(
                &mut Simulation::new(self.config.seed),
                &self.config,
                probe.as_ref(),
                started,
            ),
            Some(shards) => {
                let mut engine = ShardedEngine::new(self.config.seed, shards);
                if traced {
                    engine.enable_profiling(&registry);
                }
                run_on(&mut engine, &self.config, probe.as_ref(), started)
            }
        };

        let mut failures = Vec::new();
        if let Err(gate) = outcome.gate(&self.config) {
            failures.push(format!("soak gate failed: {}", gate.replace('\n', "; ")));
        }
        if outcome != self.reference {
            failures.push("sharded and sequential soak outcomes differ".to_owned());
        }
        let layers = match &probe {
            None => Vec::new(),
            Some(probe) => {
                let totals = probe.totals();
                let members = [Slot::EngineNode, Slot::Relay, Slot::Client]
                    .map(|slot| totals.slot(slot).members as usize);
                if members != [1, self.config.relays, 1] {
                    failures.push(format!(
                        "node classification found {members:?} engine/relay/client nodes"
                    ));
                }
                failures.extend(totals.missed_callbacks(&outcome.stats));
                layer_values(&totals, &run, self.shards, &registry)
            }
        };
        Iteration {
            setup_cpu_s: run.setup_cpu_s,
            run_s: run.run_s,
            run_cpu_s: run.run_cpu_s,
            ops: self.config.queries,
            failures,
            fingerprint: fingerprint(&format!("{outcome:?}")),
            outcome: outcome_values(&outcome, run.events),
            layers,
        }
    }
}
