//! The robustness-under-failure experiment: the chaos deployment (one
//! query every 500 ms) re-run **under relay failures**, with the
//! client-side healing path the paper describes (clients blacklist
//! unresponsive proxies and resubmit through a fresh relay).
//!
//! The experiment is generic over the execution engine and, like every
//! other experiment in the reproduction, bit-identical across engines and
//! shard counts for a given seed — mid-run relay failures included,
//! because faults are deterministic membership events and all client
//! randomness comes from seed-derived streams.

use crate::adversary::AdversaryConfig;
use crate::churn::churn_stream;
use crate::deployment::{self, Deployment};
use crate::plan::{ChaosPlan, FaultKind};
use crate::soak::ArrivalModel;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Simulation, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::metrics::Registry;
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::TraceSink;
use cyclosa_util::rng::Rng;

/// Model tag of the relay-failure sampling stream (see
/// [`crate::churn::churn_stream`]).
const TAG_RELAY_FAILURES: u64 = 0xFA11;

/// Configuration of the client's SWIM-style relay probing — the
/// protocol-native alternative to fixed-TTL probation. When enabled (see
/// [`ChurnConfig::membership`]), the client runs a
/// [`cyclosa_peer_sampling::FailureDetector`] over the relay population: periodic pings, alive → suspect on an
/// unanswered probe, suspect → dead when the suspicion timeout expires
/// unrefuted. Probation becomes suspicion-driven: a suspected relay is
/// blacklisted the moment its probe times out, and a refuting ack (the
/// relay answers a later probe carrying the client's non-alive belief
/// with a bumped incarnation) forgives it *early* — before any fixed
/// [`ChurnConfig::blacklist_ttl`] would have.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MembershipProbeConfig {
    /// Period of the probe round timer.
    pub probe_period: SimTime,
    /// How long a ping may go unanswered before the relay is suspected.
    /// Must exceed the WAN round-trip tail (median RTT ≈ 280 ms, p999
    /// ≈ 830 ms) or calm-network probes will time out spuriously.
    pub probe_timeout: SimTime,
    /// How long a suspicion may stand unrefuted before the relay is
    /// declared dead (triggering the proactive fake top-up for plans
    /// that entrusted fakes to it).
    pub suspicion_timeout: SimTime,
    /// Relays probed per round (round-robin over a per-cycle shuffle of
    /// the non-dead membership).
    pub probes_per_round: usize,
}

impl Default for MembershipProbeConfig {
    fn default() -> Self {
        Self {
            probe_period: SimTime::from_secs(1),
            probe_timeout: SimTime::from_millis(900),
            suspicion_timeout: SimTime::from_secs(3),
            probes_per_round: 4,
        }
    }
}

/// Configuration of the churn latency experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Number of relay nodes at the start of the run.
    pub relays: usize,
    /// Fake queries per user query.
    pub k: usize,
    /// User queries to issue (one every 500 ms of simulated time).
    pub queries: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Fraction of the relay population that fails during the run.
    pub failure_rate: f64,
    /// Whether failed relays recover (crash + recover) or depart for good
    /// (leave).
    pub recover: bool,
    /// Downtime before a failed relay recovers (only with `recover`).
    pub downtime: SimTime,
    /// How long the client waits for the real query's response before
    /// blacklisting the relay and resubmitting through a fresh one.
    pub retry_timeout: SimTime,
    /// Maximum resubmissions per query.
    pub max_retries: u32,
    /// Adaptive-k plan repair: when a resubmission fires, the client also
    /// re-assesses the fake complement of that query (fakes on relays it
    /// has meanwhile blacklisted are presumed lost) and resubmits the
    /// shortfall through fresh relays, so the dilution target keeps
    /// holding through churn instead of only at plan time.
    pub adaptive: bool,
    /// How long a blacklist entry stays in force before the client is
    /// willing to try the relay again. `None` (the default) blacklists
    /// forever — right for relays that genuinely died, wrong for relays
    /// that were merely unreachable across a partition. Partition
    /// experiments set a finite probation so post-merge queries can spread
    /// over the whole population again and `achieved_k` recovers.
    pub blacklist_ttl: Option<SimTime>,
    /// When set, the client probes the relays and probation becomes
    /// suspicion-driven (see [`MembershipProbeConfig`]); relays declared
    /// dead trigger a proactive top-up of the fakes their plans entrusted
    /// to them (adaptive runs only). `None` keeps the passive blacklist.
    pub membership: Option<MembershipProbeConfig>,
    /// When set, a byzantine coalition: `fraction` of the relays switch
    /// to `policy` at `activate_at` (see [`crate::adversary`]). The
    /// malicious subset is drawn from a dedicated churn stream and the
    /// policies compile into [`ChaosPlan`] policy events, so an honest
    /// run (`None`) is bit-identical to the pre-adversary experiment.
    pub adversary: Option<AdversaryConfig>,
    /// SGX transition cost model of the relays.
    pub cost: CostModel,
    /// Client-side serialization delay per outgoing request.
    pub client_uplink_per_request: SimTime,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        Self {
            relays: 50,
            k: 3,
            queries: 200,
            seed: 2018,
            failure_rate: 0.2,
            recover: false,
            downtime: SimTime::from_secs(20),
            retry_timeout: SimTime::from_secs(3),
            max_retries: 5,
            adaptive: false,
            blacklist_ttl: None,
            membership: None,
            adversary: None,
            cost: CostModel::default(),
            client_uplink_per_request: SimTime::from_millis(45),
        }
    }
}

impl ChurnConfig {
    /// When the query with sequence number `seq` is issued: one query
    /// every 500 ms. The single source of the cadence — [`Self::horizon`]
    /// and the partition experiment's phase attribution derive from it.
    pub fn issued_at(seq: usize) -> SimTime {
        SimTime::from_millis(500 * seq as u64)
    }

    /// The simulated span over which queries are issued (and failures
    /// sampled).
    pub fn horizon(&self) -> SimTime {
        Self::issued_at(self.queries) + SimTime::from_millis(500)
    }

    /// Checks the configuration: at least `k + 1` relays and at least
    /// one query. The experiment runners panic with this message.
    pub fn validate(&self) -> Result<(), String> {
        self.deployment().validate()
    }

    /// The deployment this configuration runs: launches on the flat
    /// 500 ms cadence of [`Self::issued_at`], one ledger window per query.
    pub(crate) fn deployment(&self) -> Deployment {
        let queries = self.queries as u64;
        Deployment {
            relays: self.relays,
            k: self.k,
            queries,
            seed: self.seed,
            arrival: ArrivalModel {
                base_interval: Self::issued_at(1),
                diurnal_amplitude: 0.0,
                diurnal_period_queries: 1,
                flash_crowds: 0,
                flash_boost: 1.0,
                flash_width_queries: 0,
                queries,
            },
            window_queries: 1,
            retry_timeout: self.retry_timeout,
            max_retries: self.max_retries,
            adaptive: self.adaptive,
            blacklist_ttl: self.blacklist_ttl,
            membership: self.membership,
            uplink_per_request: self.client_uplink_per_request,
            cost: self.cost,
        }
    }

    /// Samples the deterministic relay-failure plan of this configuration:
    /// `round(failure_rate · relays)` distinct relays fail at uniform times
    /// in the middle 80 % of the run, each either leaving for good or
    /// crash-recovering after `downtime`.
    ///
    /// The draws come from a dedicated churn stream, so the plan never
    /// perturbs the run's link RNGs.
    pub fn failure_plan(&self) -> ChaosPlan {
        let mut plan = ChaosPlan::new();
        let victims = (self.relays as f64 * self.failure_rate).round() as usize;
        if victims == 0 {
            return plan;
        }
        let mut picker = churn_stream(self.seed, TAG_RELAY_FAILURES, u64::MAX);
        let mut indices: Vec<usize> = (0..self.relays).collect();
        picker.shuffle(&mut indices);
        let horizon = self.horizon().as_nanos();
        let (t0, t1) = (horizon / 10, horizon * 9 / 10);
        for &index in indices.iter().take(victims) {
            let node = NodeId(index as u64 + 1);
            let mut rng = churn_stream(self.seed, TAG_RELAY_FAILURES, node.0);
            let at = SimTime::from_nanos(rng.gen_range(t0, t1));
            if self.recover {
                plan.push(at, FaultKind::Crash(node));
                plan.push(at + self.downtime, FaultKind::Recover(node));
            } else {
                plan.push(at, FaultKind::Leave(node));
            }
        }
        plan
    }
}

/// Observability hooks of a churn run.
///
/// The default is fully disabled: no trace, no metrics — and, by the
/// zero-perturbation contract, an outcome bit-identical to a hooked run
/// with the same seed. The hooks draw no randomness and feed nothing
/// back into scheduling; they only record what happens.
#[derive(Debug, Clone, Default)]
pub struct ChurnTelemetry {
    /// Receives the fault annotations (`fault.*`, from the applied
    /// [`ChaosPlan`]), the client's per-query causal events
    /// (`query.launch`, `query.repair`, `query.top_up`,
    /// `query.answered`, `latency.clamped`) and the forwarding-path
    /// spans (`relay.forward`, `engine.service`, real queries only) on
    /// one merged timeline — enough for `cyclosa_telemetry::analyze` to
    /// decompose every answered query's latency into an exact critical
    /// path. In membership mode the prober's transitions
    /// (`mship.suspect`, `mship.refute`, `mship.dead`) join it.
    pub trace: TraceSink,
    /// When set, the client's clamped-sample counter
    /// (`client.clamped_samples`) is recorded here. Callers on a
    /// `ShardedEngine` may pass it to `enable_profiling` as well.
    pub metrics: Option<Registry>,
}

/// One answered query in the run's privacy ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnsweredQuery {
    /// The query's sequence number (issued at `seq × 500 ms`).
    pub seq: usize,
    /// End-to-end latency of the real-query path, seconds (retries
    /// included).
    pub latency_s: f64,
    /// Fakes this query's plan still held on non-blacklisted relays when
    /// the answer arrived — the dilution the engine actually observed,
    /// versus the configured target `k`.
    pub achieved_k: usize,
}

/// What one churn run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The per-query ledger, in issue order: sequence number, latency and
    /// the `achieved_k` of every answered query.
    pub answered_queries: Vec<AnsweredQuery>,
    /// Queries answered before the run drained.
    pub answered: usize,
    /// Queries never answered: retries exhausted, or skipped at launch
    /// for want of usable relays.
    pub unanswered: usize,
    /// Real-query resubmissions performed by the healing path.
    pub retries: u64,
    /// Replacement fakes resubmitted by the adaptive-k repair (0 when the
    /// run was not adaptive).
    pub fakes_topped_up: u64,
    /// Replacement fakes resubmitted *proactively* — when the membership
    /// prober declared a relay dead, plans that had entrusted fakes to it
    /// were topped up without waiting for a retry to notice (disjoint
    /// from [`Self::fakes_topped_up`]; 0 unless the run was adaptive with
    /// [`ChurnConfig::membership`] enabled).
    pub fakes_topped_up_proactive: u64,
    /// Latency samples whose round-trip came out negative and were clamped
    /// to zero — always 0 unless an event-ordering bug slipped in (each
    /// one is also a violation).
    pub clamped_samples: u64,
    /// Relays the failure plan took down.
    pub failed_relays: usize,
    /// Distinct relays any applied plan stepped to a hostile policy
    /// (0 for honest runs).
    pub byzantine_relays: usize,
    /// Real queries swallowed by `DropRealQueries` relays.
    pub byzantine_dropped: u64,
    /// Real queries stretched by `DelayRealQueries` relays.
    pub byzantine_delayed: u64,
    /// Probe acks carrying a forged incarnation jump (`ForgeIncarnation`).
    pub byzantine_forged_acks: u64,
    /// Distinct real queries the colluding coalition observed with their
    /// sender identity — the pool it hands to the re-identification
    /// attack.
    pub colluded_real_observed: u64,
    /// Total requests (real and fake) carried by colluding relays.
    pub colluded_total_observed: u64,
    /// In-run invariant violations: `achieved_k` above `k`, a request to
    /// a relay on probation, a plan doubling up a relay, or a clamped
    /// latency sample (the first 16 verbatim, the rest only counted).
    pub violations: Vec<String>,
    /// Total violations, including ones past the recording cap.
    pub violation_count: u64,
    /// Raw engine counters (losses, drops on dead relays, membership).
    pub stats: SimulationStats,
}

impl ChurnOutcome {
    /// End-to-end latencies (seconds) of the answered queries' real-query
    /// path, in issue order; resubmitted queries include the retry delay.
    pub fn latencies(&self) -> Vec<f64> {
        self.answered_queries.iter().map(|q| q.latency_s).collect()
    }
}

/// Runs the churn latency experiment on any engine: the configuration's
/// deterministic failure plan, its adversary and `extra` (for example the
/// partition experiment's link cuts) are applied together, and the healed
/// latency distribution is returned.
///
/// Fault annotations and the client's per-query causal events flow into
/// `telemetry.trace`, the clamped-sample counter into
/// `telemetry.metrics`. The hooks never perturb the run, so the outcome
/// is bit-identical with or without them, on any engine and shard count.
///
/// # Panics
///
/// Panics with the [`ChurnConfig::validate`] message on an invalid
/// configuration.
pub fn run_churn_experiment_on<E: Engine>(
    engine: &mut E,
    config: &ChurnConfig,
    extra: &ChaosPlan,
    telemetry: &ChurnTelemetry,
) -> ChurnOutcome {
    let failure_plan = config.failure_plan();
    let failed_relays = failure_plan
        .events()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Crash(_) | FaultKind::Leave(_)))
        .count();
    let plan = config
        .adversary
        .map(|a| a.plan(config.relays, config.seed))
        .unwrap_or_default()
        .merge(failure_plan)
        .merge(extra.clone());
    let report = deployment::run(
        engine,
        config.deployment(),
        &plan,
        &telemetry.trace,
        telemetry.metrics.as_ref(),
    );
    let outcome = report.outcome;
    let answered_queries: Vec<AnsweredQuery> = outcome
        .windows
        .iter()
        .filter(|w| w.answered > 0)
        .map(|w| AnsweredQuery {
            seq: w.first_seq as usize,
            latency_s: w.latency_sum_s,
            achieved_k: w.min_achieved_k,
        })
        .collect();
    ChurnOutcome {
        answered: answered_queries.len(),
        unanswered: config.queries - answered_queries.len(),
        answered_queries,
        retries: outcome.retries,
        fakes_topped_up: outcome.fakes_topped_up,
        fakes_topped_up_proactive: report.fakes_topped_up_proactive,
        clamped_samples: outcome.clamped_samples,
        failed_relays,
        byzantine_relays: outcome.byzantine_relays,
        byzantine_dropped: outcome.byzantine_dropped,
        byzantine_delayed: outcome.byzantine_delayed,
        byzantine_forged_acks: report.byzantine_forged_acks,
        colluded_real_observed: outcome.colluded_real_observed,
        colluded_total_observed: report.colluded_total_observed,
        violations: outcome.violations,
        violation_count: outcome.violation_count,
        stats: outcome.stats,
    }
}

/// [`run_churn_experiment_on`] on the sequential simulator, with no extra
/// plan and telemetry disabled.
pub fn run_churn_experiment(config: &ChurnConfig) -> ChurnOutcome {
    run_churn_experiment_on(
        &mut Simulation::new(config.seed),
        config,
        &ChaosPlan::new(),
        &ChurnTelemetry::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::ByzantinePolicy;
    use cyclosa_runtime::ShardedEngine;
    use cyclosa_telemetry::AttrValue;
    use cyclosa_util::stats::Summary;
    use std::collections::BTreeSet;

    fn sharded(config: &ChurnConfig, shards: usize) -> ChurnOutcome {
        run_churn_experiment_on(
            &mut ShardedEngine::new(config.seed, shards),
            config,
            &ChaosPlan::new(),
            &ChurnTelemetry::default(),
        )
    }

    fn small(failure_rate: f64, recover: bool) -> ChurnConfig {
        ChurnConfig {
            relays: 20,
            k: 3,
            queries: 40,
            failure_rate,
            recover,
            ..ChurnConfig::default()
        }
    }

    fn adversarial(policy: ByzantinePolicy, fraction: f64) -> ChurnConfig {
        ChurnConfig {
            adversary: Some(AdversaryConfig {
                fraction,
                policy,
                activate_at: SimTime::ZERO,
            }),
            ..small(0.0, false)
        }
    }

    #[test]
    fn colluding_relays_observe_without_perturbing_delivery() {
        let honest = run_churn_experiment(&small(0.0, false));
        let colluded = run_churn_experiment(&adversarial(ByzantinePolicy::Collude, 0.3));
        // Collusion is pure observation: the delivered run is identical.
        assert_eq!(colluded.latencies(), honest.latencies());
        assert_eq!(colluded.answered, honest.answered);
        assert_eq!(colluded.byzantine_relays, 6);
        assert!(
            colluded.colluded_real_observed > 0,
            "30% of relays must see some real queries"
        );
        assert!(colluded.colluded_real_observed <= 40);
        assert!(colluded.colluded_total_observed > colluded.colluded_real_observed);
    }

    #[test]
    fn dropping_relays_force_the_healing_path() {
        let outcome = run_churn_experiment(&adversarial(
            ByzantinePolicy::DropRealQueries { probability: 1.0 },
            0.3,
        ));
        assert!(outcome.byzantine_dropped > 0, "blackholes must swallow");
        assert!(
            outcome.retries >= outcome.byzantine_dropped.min(5),
            "only the retry timeout catches a probe-answering blackhole"
        );
        assert!(
            outcome.answered as f64 >= 0.9 * 40.0,
            "healing must still answer, got {}",
            outcome.answered
        );
    }

    #[test]
    fn delaying_relays_stretch_latency_without_killing_queries() {
        let honest = run_churn_experiment(&small(0.0, false));
        let delayed = run_churn_experiment(&adversarial(
            ByzantinePolicy::DelayRealQueries {
                extra: SimTime::from_millis(1500),
            },
            0.3,
        ));
        assert!(delayed.byzantine_delayed > 0);
        let honest_mean = Summary::from_samples(&honest.latencies()).mean;
        let delayed_mean = Summary::from_samples(&delayed.latencies()).mean;
        assert!(
            delayed_mean > honest_mean,
            "traffic shaping must show up in the mean ({delayed_mean} vs {honest_mean})"
        );
    }

    #[test]
    fn forging_relays_burn_incarnations_in_membership_mode() {
        let config = ChurnConfig {
            membership: Some(probing()),
            ..adversarial(ByzantinePolicy::ForgeIncarnation { bump: 50 }, 0.3)
        };
        let outcome = run_churn_experiment(&config);
        assert!(
            outcome.byzantine_forged_acks > 0,
            "probed forging relays must forge some acks"
        );
        assert!(
            outcome.answered >= 38,
            "forgery alone must not kill queries"
        );
    }

    #[test]
    fn adversarial_runs_are_bit_identical_across_engines_and_shards() {
        let config = ChurnConfig {
            failure_rate: 0.2,
            adaptive: true,
            ..adversarial(ByzantinePolicy::DropRealQueries { probability: 0.8 }, 0.25)
        };
        let sequential = run_churn_experiment(&config);
        assert!(sequential.byzantine_dropped > 0);
        for shards in [1, 2, 4, 8] {
            assert_eq!(
                sharded(&config, shards),
                sequential,
                "adversarial outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn failure_free_run_answers_every_query() {
        let outcome = run_churn_experiment(&small(0.0, false));
        assert_eq!(outcome.answered, 40);
        assert_eq!(outcome.unanswered, 0);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.failed_relays, 0);
        let median = Summary::from_samples(&outcome.latencies()).median;
        assert!(median > 0.3 && median < 2.0, "median {median}");
    }

    #[test]
    fn healing_keeps_answering_under_heavy_relay_failures() {
        let outcome = run_churn_experiment(&small(0.4, false));
        assert_eq!(outcome.failed_relays, 8);
        assert!(outcome.stats.left == 8, "permanent failures leave");
        assert!(
            outcome.answered as f64 >= 0.95 * 40.0,
            "only {} of 40 answered",
            outcome.answered
        );
        assert!(
            outcome.retries > 0,
            "heavy churn must exercise the retry path"
        );
    }

    #[test]
    fn recovering_relays_crash_and_come_back() {
        let outcome = run_churn_experiment(&small(0.3, true));
        assert_eq!(outcome.stats.crashed, 6);
        assert_eq!(outcome.stats.recovered, 6);
        assert!(outcome.answered >= 38);
    }

    #[test]
    fn churn_raises_the_tail_not_the_floor() {
        let calm = run_churn_experiment(&small(0.0, false));
        let stormy = run_churn_experiment(&small(0.4, false));
        let calm_max = calm.latencies().iter().cloned().fold(0.0, f64::max);
        let stormy_max = stormy.latencies().iter().cloned().fold(0.0, f64::max);
        assert!(
            stormy_max > calm_max,
            "retried queries must stretch the tail ({stormy_max} vs {calm_max})"
        );
    }

    #[test]
    fn sharded_churn_run_is_bit_identical_to_sequential() {
        let config = small(0.35, true);
        let sequential = run_churn_experiment(&config);
        assert!(sequential.retries > 0 || sequential.answered == 40);
        for shards in [2, 4] {
            assert_eq!(
                sharded(&config, shards),
                sequential,
                "outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn no_latency_sample_is_ever_clamped() {
        for (rate, recover) in [(0.0, false), (0.4, false), (0.3, true)] {
            let outcome = run_churn_experiment(&small(rate, recover));
            assert_eq!(
                outcome.clamped_samples, 0,
                "negative round trip at rate {rate}"
            );
        }
    }

    #[test]
    fn adaptive_healing_resubmits_topped_up_fakes() {
        let fixed = run_churn_experiment(&small(0.4, false));
        let adaptive = run_churn_experiment(&ChurnConfig {
            adaptive: true,
            ..small(0.4, false)
        });
        assert_eq!(fixed.fakes_topped_up, 0, "fixed-k runs never top up");
        assert!(
            adaptive.fakes_topped_up > 0,
            "heavy churn must exercise the adaptive repair"
        );
        assert!(
            adaptive.answered as f64 >= 0.95 * 40.0,
            "only {} of 40 answered with adaptive healing",
            adaptive.answered
        );
    }

    #[test]
    fn observed_run_is_bit_identical_and_annotates_fault_repairs() {
        let config = small(0.4, false);
        let plain = run_churn_experiment(&config);
        let telemetry = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: Some(Registry::new()),
        };
        let traced = run_churn_experiment_on(
            &mut Simulation::new(config.seed),
            &config,
            &ChaosPlan::new(),
            &telemetry,
        );
        assert_eq!(traced, plain, "tracing must not perturb the run");

        let events = telemetry.trace.events();
        assert!(events.iter().any(|e| e.name == "fault.leave"));
        assert!(events.iter().any(|e| e.name == "query.launch"));
        assert!(events
            .iter()
            .any(|e| e.name == "query.answered" && e.dur.is_some() && e.query.is_some()));
        let repair = events
            .iter()
            .find(|e| {
                e.name == "query.repair"
                    && e.attrs.contains(&("fault_injected", AttrValue::Bool(true)))
            })
            .expect("heavy churn must produce a fault-annotated repair");
        assert!(repair.query.is_some());
        for window in events.windows(2) {
            assert!(
                (window[0].at, window[0].actor) <= (window[1].at, window[1].actor),
                "merged timeline out of order"
            );
        }
        let snapshot = telemetry
            .metrics
            .as_ref()
            .expect("registry installed")
            .snapshot();
        assert!(
            snapshot
                .counters
                .contains(&("client.clamped_samples".to_owned(), 0)),
            "clamped-sample counter must be surfaced (and zero): {:?}",
            snapshot.counters
        );
    }

    /// Aggressive probing for the small test populations: short rounds
    /// and a long-enough suspicion window that a refutation (one probe
    /// cycle away at most) always beats the dead declaration on a calm
    /// network.
    fn probing() -> MembershipProbeConfig {
        MembershipProbeConfig {
            probe_period: SimTime::from_millis(500),
            probe_timeout: SimTime::from_millis(900),
            suspicion_timeout: SimTime::from_secs(5),
            probes_per_round: 4,
        }
    }

    #[test]
    fn falsely_suspected_relays_are_refuted_and_forgiven_before_any_ttl() {
        // A lossy window mid-run makes probes time out on relays that
        // are perfectly alive. With a permanent blacklist (no TTL) the
        // passive path would bar them forever; the membership prober
        // must refute every false suspicion and forgive early.
        let config = ChurnConfig {
            relays: 12,
            queries: 40,
            failure_rate: 0.0,
            blacklist_ttl: None,
            membership: Some(probing()),
            ..ChurnConfig::default()
        };
        let telemetry = ChurnTelemetry {
            trace: TraceSink::enabled(),
            metrics: None,
        };
        let mut simulation = Simulation::new(config.seed);
        simulation.schedule_loss_probability(SimTime::from_secs(3), 0.5);
        simulation.schedule_loss_probability(SimTime::from_secs(6), 0.0);
        let outcome =
            run_churn_experiment_on(&mut simulation, &config, &ChaosPlan::new(), &telemetry);

        let events = telemetry.trace.events();
        let suspected: BTreeSet<u64> = events
            .iter()
            .filter(|e| e.name == "mship.suspect")
            .filter_map(|e| match e.attrs.first() {
                Some(("relay", AttrValue::U64(relay))) => Some(*relay),
                _ => None,
            })
            .collect();
        assert!(
            !suspected.is_empty(),
            "the lossy window must produce false suspicions"
        );
        assert!(
            !events.iter().any(|e| e.name == "mship.dead"),
            "a 5 s suspicion window outlives the 3 s lossy window, so \
             every suspicion must be refuted before it matures"
        );
        for relay in &suspected {
            assert!(
                events.iter().any(|e| e.name == "mship.refute"
                    && e.attrs.contains(&("relay", AttrValue::U64(*relay)))),
                "relay {relay} was suspected but never refuted"
            );
        }
        // Early forgiveness restores the full population: with the
        // permanent blacklist every falsely-suspected relay would have
        // stayed barred instead. Query 11 launches at 5.5 s, when 11 of
        // the 12 relays stand suspected; a launch with fewer than two
        // usable relays is skipped, so it alone goes unanswered.
        assert_eq!(outcome.answered, 39);
        assert!(outcome.answered_queries.iter().all(|q| q.seq != 11));
    }

    #[test]
    fn membership_death_detection_tops_up_fakes_proactively() {
        // Relays genuinely die; the prober declares them dead within
        // ~ one probe cycle + suspicion timeout and tops up the fakes
        // their live plans entrusted to them — without waiting for a
        // retry to notice.
        let config = ChurnConfig {
            adaptive: true,
            membership: Some(MembershipProbeConfig {
                suspicion_timeout: SimTime::from_millis(1500),
                probes_per_round: 6,
                ..probing()
            }),
            ..small(0.5, false)
        };
        let outcome = run_churn_experiment(&config);
        assert!(
            outcome.fakes_topped_up_proactive > 0,
            "dead relays carrying fakes of live plans must trigger the \
             proactive top-up"
        );
        assert!(
            outcome.answered as f64 >= 0.9 * 40.0,
            "only {} of 40 answered",
            outcome.answered
        );
    }

    #[test]
    fn non_membership_runs_never_top_up_proactively() {
        for (rate, adaptive) in [(0.0, false), (0.4, true)] {
            let outcome = run_churn_experiment(&ChurnConfig {
                adaptive,
                ..small(rate, false)
            });
            assert_eq!(outcome.fakes_topped_up_proactive, 0);
        }
    }

    #[test]
    fn membership_mode_is_bit_identical_across_engines() {
        let config = ChurnConfig {
            adaptive: true,
            membership: Some(probing()),
            ..small(0.4, true)
        };
        let sequential = run_churn_experiment(&config);
        for shards in [2, 4] {
            assert_eq!(
                sharded(&config, shards),
                sequential,
                "membership-mode outcome diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn adaptive_run_without_failures_tops_nothing_up() {
        let outcome = run_churn_experiment(&ChurnConfig {
            adaptive: true,
            ..small(0.0, false)
        });
        assert_eq!(outcome.fakes_topped_up, 0);
        assert_eq!(outcome.retries, 0);
        assert_eq!(outcome.answered, 40);
    }

    #[test]
    fn heaviest_churn_config_holds_every_invariant() {
        let config = ChurnConfig {
            failure_rate: 0.4,
            adaptive: true,
            membership: Some(probing()),
            ..adversarial(ByzantinePolicy::DropRealQueries { probability: 1.0 }, 0.3)
        };
        let outcome = run_churn_experiment(&config);
        assert!(outcome.retries > 0 && outcome.byzantine_dropped > 0);
        assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
        assert!(outcome.violations.is_empty());
    }

    #[test]
    fn validate_rejects_too_few_relays() {
        let config = ChurnConfig {
            relays: 3,
            k: 3,
            ..ChurnConfig::default()
        };
        let err = config
            .validate()
            .expect_err("3 relays cannot carry k + 1 = 4");
        assert!(err.contains("k + 1 relays"), "got: {err}");
    }

    #[test]
    fn validate_rejects_zero_queries() {
        let config = ChurnConfig {
            queries: 0,
            ..ChurnConfig::default()
        };
        let err = config.validate().expect_err("an empty run proves nothing");
        assert!(err.contains("queries"), "got: {err}");
        assert_eq!(ChurnConfig::default().validate(), Ok(()));
    }

    #[test]
    #[should_panic(expected = "need at least k + 1 relays")]
    fn runner_panics_with_the_validation_message() {
        run_churn_experiment(&ChurnConfig {
            relays: 2,
            ..ChurnConfig::default()
        });
    }
}
