//! Long-horizon soak/stress driver: the chaos deployment behind
//! [`crate::experiment`] replayed over **millions** of queries with
//! realistic load shape — a diurnal sinusoid, flash crowds, model-driven
//! churn and (optionally) an active byzantine coalition — with results in
//! fixed-size per-window ledgers ([`SoakWindow`]). On top of the in-run
//! invariants every experiment checks, the soak budgets the client's
//! modelled resident footprint ([`SoakConfig::resident_budget_bytes`]),
//! and [`SoakOutcome::gate`] turns the outcome into a CI pass/fail.
//!
//! Like every experiment in the reproduction, a soak run is a pure
//! function of its seed: bit-identical across engines and shard counts,
//! adversary included.

use crate::adversary::AdversaryConfig;
use crate::churn::ChurnModel;
use crate::deployment::{self, Deployment};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::ShardedEngine;
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::TraceSink;

/// The load shape of a soak run: inter-arrival intervals as a **pure
/// function of the query sequence number** — a diurnal sinusoid with
/// flash crowds layered on top. Pure-in-`seq` is what makes the load
/// replayable: no feedback from simulated time back into arrivals, so
/// every engine walks the identical launch schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalModel {
    /// Mean inter-arrival interval at the diurnal midline.
    pub base_interval: SimTime,
    /// Diurnal modulation depth in `[0, 1)`: intervals swing between
    /// `base · (1 − a)` (peak hours) and `base · (1 + a)` (night).
    pub diurnal_amplitude: f64,
    /// Queries per simulated "day" (one full sinusoid period).
    pub diurnal_period_queries: u64,
    /// Number of flash crowds, spread evenly across the horizon.
    pub flash_crowds: usize,
    /// Rate multiplier inside a flash crowd (intervals divide by this).
    pub flash_boost: f64,
    /// Half-width of each flash crowd, in queries.
    pub flash_width_queries: u64,
    /// Total queries of the run (fixes the flash-crowd centers).
    pub queries: u64,
}

impl ArrivalModel {
    /// The interval between the launches of queries `seq` and `seq + 1`.
    /// Expects a validated model (see [`SoakConfig::validate`]).
    pub fn interval(&self, seq: u64) -> SimTime {
        let period = self.diurnal_period_queries as f64;
        let phase = (seq as f64 / period) * std::f64::consts::TAU;
        let mut scale = 1.0 + self.diurnal_amplitude * phase.sin();
        for crowd in 0..self.flash_crowds {
            let center = (crowd as u64 + 1) * self.queries / (self.flash_crowds as u64 + 1);
            if seq.abs_diff(center) <= self.flash_width_queries {
                scale /= self.flash_boost;
            }
        }
        let nanos = (self.base_interval.as_nanos() as f64 * scale).max(1.0);
        SimTime::from_nanos(nanos as u64)
    }

    /// When query `seq` launches: the running sum of the intervals before
    /// it, so query 0 launches at time zero. `O(seq)` — meant for horizon
    /// computation, not per-event use (the client accumulates
    /// incrementally by chaining timers).
    pub fn launch_at(&self, seq: u64) -> SimTime {
        let mut at = SimTime::ZERO;
        for s in 0..seq {
            at += self.interval(s);
        }
        at
    }
}

/// Configuration of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Relay population size.
    pub relays: usize,
    /// Fake queries per user query.
    pub k: usize,
    /// Total user queries to replay.
    pub queries: u64,
    /// Run seed.
    pub seed: u64,
    /// Mean inter-arrival interval at the diurnal midline.
    pub base_interval: SimTime,
    /// Diurnal modulation depth in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Queries per simulated day.
    pub diurnal_period_queries: u64,
    /// Flash crowds across the horizon.
    pub flash_crowds: usize,
    /// Rate multiplier inside a flash crowd.
    pub flash_boost: f64,
    /// Half-width of each flash crowd, in queries.
    pub flash_width_queries: u64,
    /// Model-driven relay churn over the whole horizon (`None` = stable
    /// population). [`ChurnModel::Trace`] replays a recorded timeline.
    pub churn: Option<ChurnModel>,
    /// Optional byzantine coalition (see [`crate::adversary`]). The soak
    /// runs without the membership prober, so `ForgeIncarnation` is inert
    /// here; drop/delay/collude all bite.
    pub adversary: Option<AdversaryConfig>,
    /// How long the client waits for the real answer before blacklisting
    /// the relay and resubmitting through a fresh one.
    pub retry_timeout: SimTime,
    /// Maximum resubmissions per query.
    pub max_retries: u32,
    /// Adaptive-k plan repair on retries (see
    /// [`crate::experiment::ChurnConfig::adaptive`]).
    pub adaptive: bool,
    /// Blacklist probation: entries expire after this long, letting the
    /// client retry relays that were merely unreachable. `None`
    /// blacklists forever — wrong for recovering churn, so the default
    /// sets a finite probation.
    pub blacklist_ttl: Option<SimTime>,
    /// Client-side serialization delay per outgoing request.
    pub client_uplink_per_request: SimTime,
    /// SGX transition cost model of the relays.
    pub cost: CostModel,
    /// Queries per ledger window ([`SoakWindow`]).
    pub window_queries: u64,
    /// Budget for the client's modelled resident footprint (in-flight
    /// plans + outbox + blacklist); exceeding it is a gate failure — the
    /// leak detector of the soak.
    pub resident_budget_bytes: usize,
    /// Minimum fraction of queries that must be answered for
    /// [`SoakOutcome::gate`] to pass.
    pub min_answered_fraction: f64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            relays: 60,
            k: 3,
            queries: 50_000,
            seed: 2018,
            base_interval: SimTime::from_millis(40),
            diurnal_amplitude: 0.6,
            diurnal_period_queries: 20_000,
            flash_crowds: 2,
            flash_boost: 4.0,
            flash_width_queries: 1_000,
            churn: None,
            adversary: None,
            retry_timeout: SimTime::from_secs(3),
            max_retries: 5,
            adaptive: true,
            blacklist_ttl: Some(SimTime::from_secs(30)),
            client_uplink_per_request: SimTime::from_millis(2),
            cost: CostModel::default(),
            window_queries: 10_000,
            resident_budget_bytes: 4 * 1024 * 1024,
            min_answered_fraction: 0.95,
        }
    }
}

impl SoakConfig {
    /// The run's load shape.
    pub fn arrival(&self) -> ArrivalModel {
        ArrivalModel {
            base_interval: self.base_interval,
            diurnal_amplitude: self.diurnal_amplitude,
            diurnal_period_queries: self.diurnal_period_queries,
            flash_crowds: self.flash_crowds,
            flash_boost: self.flash_boost,
            flash_width_queries: self.flash_width_queries,
            queries: self.queries,
        }
    }

    /// The simulated span over which queries launch, plus the retry tail
    /// — the horizon churn is sampled against.
    pub fn horizon(&self) -> SimTime {
        let drain =
            SimTime::from_nanos(self.retry_timeout.as_nanos() * (self.max_retries as u64 + 1));
        self.arrival().launch_at(self.queries) + drain + SimTime::from_secs(60)
    }

    /// Number of ledger windows of the run.
    pub fn windows(&self) -> usize {
        self.queries.div_ceil(self.window_queries) as usize
    }

    /// Checks the configuration: `k + 1` relays, queries, a positive
    /// window, a diurnal amplitude in `[0, 1)`, a positive diurnal period
    /// and a flash boost of at least 1. The runners panic with the error.
    pub fn validate(&self) -> Result<(), String> {
        self.deployment().validate()
    }

    fn deployment(&self) -> Deployment {
        Deployment {
            relays: self.relays,
            k: self.k,
            queries: self.queries,
            seed: self.seed,
            arrival: self.arrival(),
            window_queries: self.window_queries,
            retry_timeout: self.retry_timeout,
            max_retries: self.max_retries,
            adaptive: self.adaptive,
            blacklist_ttl: self.blacklist_ttl,
            membership: None,
            uplink_per_request: self.client_uplink_per_request,
            cost: self.cost,
        }
    }
}

/// One fixed-size ledger window: everything the soak remembers about
/// `window_queries` consecutive launches.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SoakWindow {
    /// First query sequence number of the window.
    pub first_seq: u64,
    /// Queries launched in the window.
    pub launched: u64,
    /// Launches skipped because no usable relays remained at launch time.
    pub skipped: u64,
    /// Queries of the window answered (at any later time).
    pub answered: u64,
    /// Real-query resubmissions attributed to the window.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive repair.
    pub topped_up: u64,
    /// Answered queries that ended below the dilution target `k`.
    pub under_target: u64,
    /// Minimum `achieved_k` across the window's answered queries
    /// (equals `k` when every plan held; 0 when nothing was answered).
    pub min_achieved_k: usize,
    /// Sum of answered latencies, seconds (mean = sum / answered).
    pub latency_sum_s: f64,
    /// Maximum answered latency, seconds.
    pub latency_max_s: f64,
}

impl SoakWindow {
    pub(crate) fn new(first_seq: u64) -> Self {
        Self {
            first_seq,
            min_achieved_k: usize::MAX,
            ..Self::default()
        }
    }

    /// Mean answered latency of the window, seconds (0 when empty).
    pub fn mean_latency_s(&self) -> f64 {
        if self.answered == 0 {
            0.0
        } else {
            self.latency_sum_s / self.answered as f64
        }
    }
}

/// What one soak run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SoakOutcome {
    /// The per-window ledgers, in launch order.
    pub windows: Vec<SoakWindow>,
    /// Queries answered across the run.
    pub answered: u64,
    /// Queries never answered: retries exhausted, drained unanswered, or
    /// skipped at launch.
    pub unanswered: u64,
    /// Real-query resubmissions across the run.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive repair.
    pub fakes_topped_up: u64,
    /// Latency samples clamped to zero — any nonzero value is an
    /// event-ordering bug and fails the gate.
    pub clamped_samples: u64,
    /// Peak number of in-flight query plans held by the client.
    pub peak_inflight: u64,
    /// Peak modelled client resident footprint, bytes.
    pub peak_resident_bytes: usize,
    /// Peak in-service requests at any single relay (leak canary).
    pub peak_relay_pending: u64,
    /// Peak in-service requests at the search-engine node.
    pub peak_engine_pending: u64,
    /// Relays the applied adversary stepped to a hostile policy.
    pub byzantine_relays: usize,
    /// Real queries swallowed by drop policies.
    pub byzantine_dropped: u64,
    /// Real queries stretched by delay policies.
    pub byzantine_delayed: u64,
    /// Distinct real queries the colluding coalition observed.
    pub colluded_real_observed: u64,
    /// Invariant violations observed during the run (the first 16
    /// verbatim, the rest only counted).
    pub violations: Vec<String>,
    /// Total violations, including ones past the recording cap.
    pub violation_count: u64,
    /// Raw engine counters.
    pub stats: SimulationStats,
}

impl SoakOutcome {
    /// The CI gate: zero invariant violations, zero clamped samples,
    /// conservation of queries, the resident budget held, and the
    /// answered floor met. `Err` carries every failure, newline-joined.
    pub fn gate(&self, config: &SoakConfig) -> Result<(), String> {
        let mut failures: Vec<String> = Vec::new();
        if self.violation_count > 0 {
            failures.push(format!(
                "{} invariant violation(s): {}",
                self.violation_count,
                self.violations.join("; ")
            ));
        }
        if self.clamped_samples > 0 {
            failures.push(format!(
                "{} clamped latency sample(s)",
                self.clamped_samples
            ));
        }
        if self.answered + self.unanswered != config.queries {
            failures.push(format!(
                "query conservation broken: {} answered + {} unanswered != {}",
                self.answered, self.unanswered, config.queries
            ));
        }
        if self.peak_resident_bytes > config.resident_budget_bytes {
            failures.push(format!(
                "client resident footprint peaked at {} bytes (budget {})",
                self.peak_resident_bytes, config.resident_budget_bytes
            ));
        }
        let answered_fraction = self.answered as f64 / config.queries.max(1) as f64;
        if answered_fraction < config.min_answered_fraction {
            failures.push(format!(
                "answered fraction {answered_fraction:.4} below floor {}",
                config.min_answered_fraction
            ));
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

/// Runs the soak on any engine with observability hooks. The returned
/// outcome is a pure function of the configuration — bit-identical
/// across engines and shard counts for a given seed, traced or not.
///
/// # Panics
///
/// Panics with the [`SoakConfig::validate`] message on an invalid
/// configuration.
pub fn run_soak_on<E: Engine>(
    engine: &mut E,
    config: &SoakConfig,
    trace: &TraceSink,
) -> SoakOutcome {
    // Before the churn sampling, which walks the arrival model.
    if let Err(message) = config.validate() {
        panic!("{message}");
    }
    let relays: Vec<NodeId> = (1..=config.relays as u64).map(NodeId).collect();
    let plan = config
        .churn
        .as_ref()
        .map(|model| model.sample(&relays, config.horizon(), config.seed))
        .unwrap_or_default()
        .merge(
            config
                .adversary
                .map(|a| a.plan(config.relays, config.seed))
                .unwrap_or_default(),
        );
    deployment::run(engine, config.deployment(), &plan, trace, None).outcome
}

/// [`run_soak_on`] on the sequential simulator, telemetry disabled.
pub fn run_soak(config: &SoakConfig) -> SoakOutcome {
    run_soak_on(
        &mut Simulation::new(config.seed),
        config,
        &TraceSink::disabled(),
    )
}

/// [`run_soak_on`] on the sharded parallel engine. Same seed ⇒ same
/// outcome as the sequential run, bit for bit, for any shard count.
pub fn run_soak_sharded(config: &SoakConfig, shards: usize) -> SoakOutcome {
    run_soak_on(
        &mut ShardedEngine::new(config.seed, shards),
        config,
        &TraceSink::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ByzantinePolicy;

    fn tiny(queries: u64) -> SoakConfig {
        SoakConfig {
            relays: 20,
            queries,
            window_queries: 500,
            diurnal_period_queries: 400,
            flash_crowds: 1,
            flash_width_queries: 50,
            base_interval: SimTime::from_millis(100),
            ..SoakConfig::default()
        }
    }

    #[test]
    fn arrival_model_is_a_pure_function_of_seq_with_crowds_and_diurnal_swing() {
        let arrival = tiny(1_000).arrival();
        assert_eq!(arrival.interval(123), arrival.interval(123));
        // The diurnal swing: peak-hour intervals are shorter than night.
        let peak = arrival.interval(arrival.diurnal_period_queries * 3 / 4);
        let night = arrival.interval(arrival.diurnal_period_queries / 4);
        assert!(peak < night, "peak {peak} must beat night {night}");
        // The flash crowd compresses intervals around its center; compare
        // against the phase-matched point one diurnal period later so the
        // sinusoid cancels out.
        let center = arrival.queries / 2;
        let out_of_crowd = center + arrival.diurnal_period_queries;
        assert!(arrival.interval(center) < arrival.interval(out_of_crowd));
        // The launch schedule is strictly increasing.
        assert!(arrival.launch_at(10) < arrival.launch_at(11));
    }

    #[test]
    fn calm_soak_answers_everything_and_holds_every_invariant() {
        let config = tiny(1_000);
        let outcome = run_soak(&config);
        outcome.gate(&config).expect("calm soak must gate clean");
        assert_eq!(outcome.answered, 1_000);
        assert_eq!(outcome.unanswered, 0);
        assert_eq!(outcome.violation_count, 0);
        assert!(outcome.peak_resident_bytes > 0);
        assert!(
            outcome.peak_inflight < 200,
            "pruning must keep the in-flight window small, got {}",
            outcome.peak_inflight
        );
        assert!(outcome.windows.iter().all(|w| w.min_achieved_k == config.k));
    }

    #[test]
    fn churned_soak_heals_and_still_gates() {
        let config = SoakConfig {
            churn: Some(ChurnModel::ExponentialSessions {
                mean_uptime: SimTime::from_secs(40),
                mean_downtime: SimTime::from_secs(10),
            }),
            min_answered_fraction: 0.9,
            ..tiny(2_000)
        };
        let outcome = run_soak(&config);
        outcome.gate(&config).expect("churned soak must gate");
        assert!(outcome.retries > 0, "churn must exercise the repair path");
    }

    #[test]
    fn adversarial_soak_records_the_coalition_without_breaking_invariants() {
        let config = SoakConfig {
            adversary: Some(AdversaryConfig {
                fraction: 0.2,
                policy: ByzantinePolicy::Collude,
                activate_at: SimTime::ZERO,
            }),
            ..tiny(1_000)
        };
        let outcome = run_soak(&config);
        outcome
            .gate(&config)
            .expect("collusion must not break delivery");
        assert_eq!(outcome.byzantine_relays, 4);
        assert!(outcome.colluded_real_observed > 0);
        // Collusion is pure observation: the honest run is identical.
        let honest = run_soak(&tiny(1_000));
        assert_eq!(outcome.answered, honest.answered);
        assert_eq!(outcome.windows, honest.windows);
    }

    #[test]
    fn soak_is_bit_identical_across_engines_and_shards() {
        let config = SoakConfig {
            churn: Some(ChurnModel::ExponentialSessions {
                mean_uptime: SimTime::from_secs(60),
                mean_downtime: SimTime::from_secs(15),
            }),
            adversary: Some(AdversaryConfig {
                fraction: 0.15,
                policy: ByzantinePolicy::DropRealQueries { probability: 0.3 },
                activate_at: SimTime::from_secs(5),
            }),
            min_answered_fraction: 0.8,
            ..tiny(1_200)
        };
        let baseline = run_soak(&config);
        for shards in [1, 2, 4, 8] {
            let sharded = run_soak_sharded(&config, shards);
            assert_eq!(sharded, baseline, "soak diverged with {shards} shards");
        }
    }

    #[test]
    fn resident_budget_breach_fails_the_gate() {
        let config = SoakConfig {
            resident_budget_bytes: 16, // absurdly tight on purpose
            ..tiny(300)
        };
        let outcome = run_soak(&config);
        let err = outcome.gate(&config).expect_err("16 bytes cannot hold");
        assert!(err.contains("resident footprint"), "got: {err}");
    }

    #[test]
    fn validate_accepts_the_default_and_rejects_too_few_relays() {
        assert_eq!(SoakConfig::default().validate(), Ok(()));
        let config = SoakConfig {
            relays: 3,
            ..tiny(100)
        };
        assert!(config.validate().unwrap_err().contains("k + 1 relays"));
    }

    #[test]
    fn validate_rejects_zero_queries() {
        assert!(tiny(0).validate().unwrap_err().contains("queries"));
    }

    #[test]
    fn validate_rejects_zero_window() {
        let config = SoakConfig {
            window_queries: 0,
            ..tiny(100)
        };
        assert!(config.validate().unwrap_err().contains("window_queries"));
    }

    #[test]
    fn validate_rejects_a_diurnal_amplitude_outside_the_unit_interval() {
        for amplitude in [1.0, -0.1, f64::NAN] {
            let config = SoakConfig {
                diurnal_amplitude: amplitude,
                ..tiny(100)
            };
            assert!(config.validate().unwrap_err().contains("diurnal_amplitude"));
        }
    }

    #[test]
    fn validate_rejects_a_zero_diurnal_period() {
        let config = SoakConfig {
            diurnal_period_queries: 0,
            ..tiny(100)
        };
        assert!(config
            .validate()
            .unwrap_err()
            .contains("diurnal_period_queries"));
    }

    #[test]
    fn validate_rejects_a_flash_boost_below_one() {
        let config = SoakConfig {
            flash_boost: 0.5,
            ..tiny(100)
        };
        assert!(config.validate().unwrap_err().contains("flash_boost"));
    }

    #[test]
    #[should_panic(expected = "window_queries must be positive")]
    fn runner_panics_with_the_validation_message() {
        run_soak(&SoakConfig {
            window_queries: 0,
            ..tiny(100)
        });
    }
}
