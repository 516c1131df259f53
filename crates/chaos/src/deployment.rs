//! The chaos deployment: the one client, relay and search-engine
//! behaviour that the churn ([`crate::experiment`]), partition
//! ([`crate::partition`]) and soak ([`crate::soak`]) experiments all run.
//! Each experiment lowers its public configuration into a [`Deployment`]
//! and its faults into one [`ChaosPlan`], and reads its outcome off the
//! returned [`Report`]; the protocol never changes with the workload.
//!
//! The protocol is the client-side healing path the paper describes: the
//! real query and `k` fakes go through `k + 1` distinct relays; a relay
//! that does not answer within the retry timeout is blacklisted and the
//! query resubmitted through a fresh one, with adaptive repair topping up
//! the fakes lost with blacklisted relays; an optional SWIM prober makes
//! probation suspicion-driven and tops up fakes proactively when it
//! declares a relay dead.
//!
//! Resident state is bounded by in-flight work, not by run length:
//! launches are chained from the [`ArrivalModel`]; a plan leaves the
//! in-flight map when its retries run out or it is answered (with the
//! prober on, an answered adaptive plan stays until its retry window
//! closes, for the proactive top-up); relays and the engine prune their
//! in-service maps; results aggregate into [`SoakWindow`] ledgers.
//!
//! Every run checks its invariants as it goes: the `achieved_k` ledger
//! never exceeds `k`, no request goes to a relay on probation, plans
//! never double up relays, and latency samples never clamp.
//!
//! Node layout: node 0 is the search engine, nodes `1..=relays` are the
//! relays, and node `relays + 1` is the client.

use crate::adversary::{
    adversary_stream, ByzantinePolicy, CollusionLedger, PolicySchedule, SharedCollusionLedger,
};
use crate::experiment::MembershipProbeConfig;
use crate::plan::{ChaosPlan, FaultKind};
use crate::soak::{ArrivalModel, SoakOutcome, SoakWindow};
use cyclosa::deployment::{relay_service_time_ns, request};
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_peer_sampling::{FailureDetector, MemberState, PeerId};
use cyclosa_runtime::metrics::{Counter, Registry};
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, MutexGuard};

const TAG_FORWARD: u32 = 1;
const TAG_ENGINE_QUERY: u32 = 2;
const TAG_ENGINE_RESPONSE: u32 = 3;
const TAG_RESPONSE: u32 = 4;
/// Client → relay liveness probe: `[seq u64][believed state u8][believed
/// incarnation u64]`, little-endian. The believed half is the refutation
/// channel: a relay pinged with a non-alive belief about itself at an
/// incarnation at least its own bumps its incarnation and acks the new
/// one, which the client's detector applies as a refutation.
const TAG_PING: u32 = 5;
/// Relay → client probe answer: `[seq u64][relay incarnation u64]`.
const TAG_ACK: u32 = 6;

const OUTBOX_BASE: u64 = 1 << 40;
const RETRY_BASE: u64 = 1 << 41;
const PROBE_TIMEOUT_BASE: u64 = 1 << 42;
const SUSPECT_BASE: u64 = 1 << 43;
const TOKEN_PROBE_ROUND: u64 = 1 << 44;
const TOKEN_LAUNCH: u64 = 1 << 45;

/// How many invariant violations are recorded verbatim before the rest
/// only count — a broken run must fail loudly, not OOM the reporter.
const MAX_RECORDED_VIOLATIONS: usize = 16;

/// Modelled resident cost of one in-flight map entry (key + struct); the
/// fake list adds [`PEER_COST`] per entry on top.
const INFLIGHT_COST: usize = 96;
/// Modelled resident cost per relay id held in a fake list.
const PEER_COST: usize = 8;
/// Modelled resident cost of one outbox entry, excluding the payload.
const OUTBOX_COST: usize = 64;
/// Modelled resident cost of one blacklist entry.
const BLACKLIST_COST: usize = 48;

/// What one deployment run is: the crate-private description every
/// public experiment configuration lowers into.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deployment {
    pub(crate) relays: usize,
    pub(crate) k: usize,
    pub(crate) queries: u64,
    pub(crate) seed: u64,
    /// Query `seq` launches at `arrival.launch_at(seq)`.
    pub(crate) arrival: ArrivalModel,
    /// Queries per [`SoakWindow`] ledger entry.
    pub(crate) window_queries: u64,
    pub(crate) retry_timeout: SimTime,
    pub(crate) max_retries: u32,
    pub(crate) adaptive: bool,
    pub(crate) blacklist_ttl: Option<SimTime>,
    pub(crate) membership: Option<MembershipProbeConfig>,
    pub(crate) uplink_per_request: SimTime,
    pub(crate) cost: CostModel,
}

impl Deployment {
    /// The checks behind every public config's `validate`: at least
    /// `k + 1` relays, at least one query and one query per window, and a
    /// well-formed arrival model.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let arrival = &self.arrival;
        if self.relays <= self.k {
            Err(format!(
                "need at least k + 1 relays (relays {}, k {})",
                self.relays, self.k
            ))
        } else if self.queries == 0 {
            Err("queries must be positive".to_owned())
        } else if self.window_queries == 0 {
            Err("window_queries must be positive".to_owned())
        } else if !(0.0..1.0).contains(&arrival.diurnal_amplitude) {
            Err(format!(
                "diurnal_amplitude {} outside [0, 1)",
                arrival.diurnal_amplitude
            ))
        } else if arrival.diurnal_period_queries == 0 {
            Err("diurnal_period_queries must be positive".to_owned())
        } else if arrival.flash_boost.is_nan() || arrival.flash_boost < 1.0 {
            Err(format!("flash_boost {} below 1", arrival.flash_boost))
        } else {
            Ok(())
        }
    }
}

/// What one deployment run produced: the soak's windowed outcome plus the
/// totals only the churn experiment reports. During the run it is the
/// ledger the nodes share.
#[derive(Debug, Default)]
pub(crate) struct Report {
    pub(crate) outcome: SoakOutcome,
    pub(crate) fakes_topped_up_proactive: u64,
    pub(crate) byzantine_forged_acks: u64,
    pub(crate) colluded_total_observed: u64,
}

impl Report {
    fn violation(&mut self, message: String) {
        self.outcome.violation_count += 1;
        if self.outcome.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.outcome.violations.push(message);
        }
    }
}

type Sink = Arc<Mutex<Report>>;

fn lock(sink: &Sink) -> MutexGuard<'_, Report> {
    sink.lock().expect("sink poisoned")
}

/// Whether `relay` is currently barred by the client's blacklist: entries
/// are permanent without a TTL, and expire `ttl` after they were added
/// with one (the probation that lets post-partition queries spread over
/// the healed population again).
fn on_probation(
    blacklist: &BTreeMap<NodeId, SimTime>,
    ttl: Option<SimTime>,
    relay: NodeId,
    now: SimTime,
) -> bool {
    blacklist.get(&relay).is_some_and(|since| match ttl {
        None => true,
        Some(ttl) => now.saturating_sub(*since) < ttl,
    })
}

/// Runs one deployment on any engine: builds the node layout, applies
/// `plan` (membership faults, link cuts and byzantine policies, with
/// `fault.*`/`adv.policy` annotations on `trace`), and runs to
/// completion. The report is a pure function of `deployment` and `plan`:
/// bit-identical across engines and shard counts, traced or not.
pub(crate) fn run<E: Engine>(
    engine_impl: &mut E,
    deployment: Deployment,
    plan: &ChaosPlan,
    trace: &TraceSink,
    metrics: Option<&Registry>,
) -> Report {
    if let Err(message) = deployment.validate() {
        panic!("{message}");
    }
    engine_impl.set_default_latency(LatencyModel::wan());
    let engine = NodeId(0);
    let relays: Vec<NodeId> = (1..=deployment.relays as u64).map(NodeId).collect();
    let client = NodeId(deployment.relays as u64 + 1);
    let window_count = deployment.queries.div_ceil(deployment.window_queries);
    let sink: Sink = Arc::new(Mutex::new(Report {
        outcome: SoakOutcome {
            windows: (0..window_count)
                .map(|w| SoakWindow::new(w * deployment.window_queries))
                .collect(),
            ..SoakOutcome::default()
        },
        ..Report::default()
    }));

    let mut rng = Xoshiro256StarStar::seed_from_u64(deployment.seed ^ 0xC4A0);
    engine_impl.add_node(
        engine,
        Box::new(SearchEngine {
            processing: LatencyModel::search_engine_processing(),
            rng: rng.fork(1),
            pending: BTreeMap::new(),
            next_token: 0,
            local_peak: 0,
            sink: sink.clone(),
            trace: trace.clone(),
        }),
    );
    // Policies are data handed to each relay at build time; the shared
    // ledger exists only when some relay is ever hostile, and honest
    // relays never touch it (or their behaviour stream), so honest runs
    // draw exactly what they would without an adversary layer.
    let byzantine = plan.byzantine_relays();
    let ledger: Option<SharedCollusionLedger> =
        (!byzantine.is_empty()).then(|| Arc::new(Mutex::new(CollusionLedger::default())));
    let processing = SimTime::from_nanos(relay_service_time_ns(&deployment.cost, 512));
    for &relay in &relays {
        let policies = plan.policy_schedule_for(relay);
        engine_impl.add_node(
            relay,
            Box::new(Relay {
                engine,
                processing,
                pending: BTreeMap::new(),
                next_token: 0,
                local_peak: 0,
                incarnation: 0,
                adversary: ledger.clone().filter(|_| policies.is_hostile()),
                policies,
                adv_rng: adversary_stream(deployment.seed, relay),
                sink: sink.clone(),
                trace: trace.clone(),
            }),
        );
    }
    // Trace-only: lets `query.repair` events say whether the repaired
    // failure was an injected fault. Never read by the protocol.
    let victims: BTreeSet<NodeId> = if trace.is_enabled() {
        plan.events()
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash(node) | FaultKind::Leave(node) => Some(node),
                _ => None,
            })
            .collect()
    } else {
        BTreeSet::new()
    };
    let client_rng = rng.fork(2);
    let prober = deployment.membership.map(|config| Prober {
        config,
        detector: FailureDetector::new(PeerId(client.0), relays.iter().map(|r| PeerId(r.0)), 0),
        rng: rng.fork(3),
        next_seq: 0,
        pending: BTreeMap::new(),
        dead_cursor: 0,
        // Probing stops one launch interval after the last launch.
        deadline: deployment.arrival.launch_at(deployment.queries + 1),
    });
    engine_impl.add_node(
        client,
        Box::new(Client {
            config: deployment,
            rng: client_rng,
            prober,
            next_seq: 0,
            inflight: BTreeMap::new(),
            blacklist: BTreeMap::new(),
            outbox: BTreeMap::new(),
            next_outbox: 0,
            peak_resident: 0,
            peak_inflight: 0,
            sink: sink.clone(),
            trace: trace.clone(),
            victims,
            clamped_metric: metrics.map(|registry| registry.counter("client.clamped_samples")),
        }),
    );
    engine_impl.schedule_timer(deployment.arrival.launch_at(0), client, TOKEN_LAUNCH);
    if let Some(probe) = deployment.membership {
        engine_impl.schedule_timer(probe.probe_period, client, TOKEN_PROBE_ROUND);
    }
    plan.apply_traced(engine_impl, trace);

    engine_impl.run();

    // The engine still owns the behaviours (and their sink handles), so
    // take the report through the lock rather than unwrapping the Arc.
    let mut report = std::mem::take(&mut *lock(&sink));
    let outcome = &mut report.outcome;
    for window in &mut outcome.windows {
        if window.min_achieved_k == usize::MAX {
            window.min_achieved_k = 0;
        }
    }
    outcome.unanswered = deployment.queries - outcome.answered;
    outcome.byzantine_relays = byzantine.len();
    if let Some(ledger) = ledger {
        let ledger = ledger.lock().expect("ledger poisoned");
        let forged;
        (outcome.byzantine_dropped, outcome.byzantine_delayed, forged) = ledger.tampered();
        outcome.colluded_real_observed = ledger.observed_real();
        report.byzantine_forged_acks = forged;
        report.colluded_total_observed = ledger.observed_total();
    }
    report.outcome.stats = engine_impl.stats();
    report
}

/// A relay: forwards requests to the engine after its enclave service
/// time (through its byzantine policy of the moment), routes answers back
/// to their client, and answers liveness pings inline.
struct Relay {
    engine: NodeId,
    processing: SimTime,
    pending: BTreeMap<u64, Envelope>,
    next_token: u64,
    local_peak: u64,
    /// SWIM incarnation number: bumped when a ping carries a non-alive
    /// belief about this relay at an incarnation at least its own, so
    /// the ack refutes the stale suspicion. Survives crash/recover
    /// (behaviour state is retained), exactly what refutation-after-
    /// downtime needs.
    incarnation: u64,
    /// The relay's policy timeline (empty = honest forever), consulted at
    /// message receipt — so a same-instant crash still wins, because
    /// membership events sort before deliveries in a slot.
    policies: PolicySchedule,
    /// Dedicated behaviour stream for drop draws. Never consulted on the
    /// honest path, so honest runs stay bit-identical.
    adv_rng: Xoshiro256StarStar,
    /// The coalition's shared ledger (None for honest relays).
    adversary: Option<SharedCollusionLedger>,
    sink: Sink,
    trace: TraceSink,
}

impl NodeBehavior for Relay {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_FORWARD => {
                let policy = self.policies.at(ctx.now());
                let extra = if policy.is_hostile() {
                    let request = request::decode(&envelope.payload);
                    let Some(extra) = policy.apply_to_forward(
                        ctx.now(),
                        ctx.self_id().0,
                        request.map_or(0, |r| r.client.0),
                        request.filter(|r| r.real).map(|r| r.seq),
                        self.adversary.as_ref(),
                        &mut self.adv_rng,
                        &self.trace,
                    ) else {
                        return; // swallowed by a drop policy
                    };
                    extra
                } else {
                    SimTime::ZERO
                };
                let token = self.next_token;
                self.next_token += 1;
                self.pending.insert(token, envelope);
                if self.pending.len() as u64 > self.local_peak {
                    self.local_peak = self.pending.len() as u64;
                    let mut sink = lock(&self.sink);
                    sink.outcome.peak_relay_pending =
                        sink.outcome.peak_relay_pending.max(self.local_peak);
                }
                ctx.set_timer(self.processing + extra, token);
            }
            TAG_PING => {
                let Some((seq, state, incarnation)) = decode_ping(&envelope.payload) else {
                    return;
                };
                if state != MemberState::Alive.to_wire() && incarnation >= self.incarnation {
                    self.incarnation = incarnation + 1;
                }
                // Gossip lying: a forging relay jumps its advertised
                // incarnation on every ack instead of the protocol's `+1`
                // refutation bump, burning incarnation space.
                if let ByzantinePolicy::ForgeIncarnation { bump } = self.policies.at(ctx.now()) {
                    self.incarnation = self.incarnation.saturating_add(bump);
                    if let Some(ledger) = &self.adversary {
                        ledger.lock().expect("ledger poisoned").record_forged_ack();
                    }
                    self.trace.emit(
                        TraceEvent::new(ctx.now(), ctx.self_id().0, "adv.lie")
                            .attr("incarnation", self.incarnation),
                    );
                }
                // Answered inline, not through the processing queue: the
                // probe measures reachability, and the timeout is sized
                // against the network round trip.
                ctx.send(envelope.src, TAG_ACK, encode_ack(seq, self.incarnation));
            }
            TAG_ENGINE_RESPONSE => {
                if let Some(request) = request::decode(&envelope.payload) {
                    ctx.send(request.client, TAG_RESPONSE, envelope.payload);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let Some(envelope) = self.pending.remove(&token) else {
            return;
        };
        if self.trace.is_enabled() {
            // The forward completes now after `processing` in the enclave,
            // so the span covers [receipt, forward]. Only the real-query
            // path is traced — fakes never close a causal chain, and
            // tracing them would double the trace volume.
            if let Some(request) = request::decode(&envelope.payload).filter(|r| r.real) {
                self.trace.emit(
                    TraceEvent::new(ctx.now(), ctx.self_id().0, "relay.forward")
                        .query(request.seq)
                        .span(self.processing),
                );
            }
        }
        ctx.send(self.engine, TAG_ENGINE_QUERY, envelope.payload);
    }
}

/// The search-engine node: answers every request after a sampled
/// processing delay.
struct SearchEngine {
    processing: LatencyModel,
    rng: Xoshiro256StarStar,
    /// `(relay, payload, service_time)` per in-service request; the
    /// sampled service time rides along for the completion-side span.
    pending: BTreeMap<u64, (NodeId, Vec<u8>, SimTime)>,
    next_token: u64,
    local_peak: u64,
    sink: Sink,
    trace: TraceSink,
}

impl NodeBehavior for SearchEngine {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag != TAG_ENGINE_QUERY {
            return;
        }
        // Sampled unconditionally — tracing must never advance or skip a
        // draw, or observed runs would diverge from unobserved ones.
        let delay = self.processing.sample(&mut self.rng);
        let token = self.next_token;
        self.next_token += 1;
        self.pending
            .insert(token, (envelope.src, envelope.payload, delay));
        if self.pending.len() as u64 > self.local_peak {
            self.local_peak = self.pending.len() as u64;
            let mut sink = lock(&self.sink);
            sink.outcome.peak_engine_pending =
                sink.outcome.peak_engine_pending.max(self.local_peak);
        }
        ctx.set_timer(delay, token);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let Some((relay, payload, delay)) = self.pending.remove(&token) else {
            return;
        };
        if self.trace.is_enabled() {
            if let Some(request) = request::decode(&payload).filter(|r| r.real) {
                self.trace.emit(
                    TraceEvent::new(ctx.now(), ctx.self_id().0, "engine.service")
                        .query(request.seq)
                        .span(delay),
                );
            }
        }
        ctx.send(relay, TAG_ENGINE_RESPONSE, payload);
    }
}

/// One in-flight query plan.
struct Plan {
    sent_at: SimTime,
    attempts: u32,
    /// The relay currently entrusted with the real request — blacklisted
    /// and replaced if no answer arrives in time.
    real_relay: Option<NodeId>,
    /// The relays the fakes were entrusted to.
    fake_relays: Vec<NodeId>,
    /// Answered, and kept only for the proactive top-up until its retry
    /// window closes.
    answered: bool,
}

/// The usable relays not already carrying part of `plan` — where a
/// repair draws from, so the plan's relays stay distinct.
fn spare_relays(usable: &[NodeId], plan: &Plan) -> Vec<NodeId> {
    usable
        .iter()
        .copied()
        .filter(|r| Some(*r) != plan.real_relay && !plan.fake_relays.contains(r))
        .collect()
}

/// The client's SWIM prober over the relay population (built only when
/// the deployment has a membership configuration).
struct Prober {
    config: MembershipProbeConfig,
    detector: FailureDetector,
    /// The probe cycle's (and proactive top-up's) stream, separate from
    /// the query-plan RNG so probing never perturbs plan selection.
    rng: Xoshiro256StarStar,
    next_seq: u64,
    /// In-flight probes: relay → probe sequence number. An ack clears the
    /// entry; a timeout that still finds it suspects the relay.
    pending: BTreeMap<NodeId, u64>,
    /// Round-robin cursor over dead members for the per-round knock —
    /// the re-probe that lets a recovered (or merely partitioned-away)
    /// relay refute its death and win early forgiveness.
    dead_cursor: usize,
    /// When to stop arming probe rounds.
    deadline: SimTime,
}

impl Prober {
    /// Sends one ping carrying the client's current belief about the
    /// relay, so a wrongly-suspected (or wrongly-dead) relay can refute
    /// by acking a bumped incarnation.
    fn ping(&mut self, ctx: &mut Context<'_>, relay: NodeId) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let (state, incarnation, _) = self.detector.state_of(PeerId(relay.0)).unwrap_or((
            MemberState::Alive,
            0,
            SimTime::ZERO,
        ));
        let payload = encode_ping(seq, state.to_wire(), incarnation);
        ctx.send(relay, TAG_PING, payload);
        seq
    }
}

struct Client {
    config: Deployment,
    rng: Xoshiro256StarStar,
    next_seq: u64,
    inflight: BTreeMap<u64, Plan>,
    /// Relays the client has given up on (paper §IV: unresponsive proxies
    /// are blacklisted client-side), with the time each entry was added.
    blacklist: BTreeMap<NodeId, SimTime>,
    outbox: BTreeMap<u64, (NodeId, Vec<u8>)>,
    next_outbox: u64,
    /// High-water marks reported to the sink only when they move — the
    /// peaks are maxima, so reporting order across shards cannot matter.
    peak_resident: usize,
    peak_inflight: u64,
    prober: Option<Prober>,
    sink: Sink,
    trace: TraceSink,
    /// Relays the plan takes down; empty unless tracing (see [`run`]).
    victims: BTreeSet<NodeId>,
    clamped_metric: Option<Counter>,
}

impl Client {
    fn window_index(&self, seq: u64) -> usize {
        (seq / self.config.window_queries) as usize
    }

    /// Relays the client is still willing to use at `now`.
    fn usable(&self, now: SimTime) -> Vec<NodeId> {
        (1..=self.config.relays as u64)
            .map(NodeId)
            .filter(|r| !on_probation(&self.blacklist, self.config.blacklist_ttl, *r, now))
            .collect()
    }

    /// Recomputes the modelled resident footprint after a state change
    /// and records the peaks. The in-flight window is small (pruning is
    /// the whole point), so a full walk per mutation batch is fine.
    fn account(&mut self) {
        let inflight: usize = self
            .inflight
            .values()
            .map(|q| INFLIGHT_COST + q.fake_relays.len() * PEER_COST)
            .sum();
        let outbox: usize = self
            .outbox
            .values()
            .map(|(_, payload)| OUTBOX_COST + payload.len())
            .sum();
        let total = inflight + outbox + self.blacklist.len() * BLACKLIST_COST;
        let count = self.inflight.len() as u64;
        if total > self.peak_resident || count > self.peak_inflight {
            self.peak_resident = self.peak_resident.max(total);
            self.peak_inflight = self.peak_inflight.max(count);
            let mut sink = lock(&self.sink);
            let outcome = &mut sink.outcome;
            outcome.peak_resident_bytes = outcome.peak_resident_bytes.max(self.peak_resident);
            outcome.peak_inflight = outcome.peak_inflight.max(self.peak_inflight);
        }
    }

    /// Hands one request to a relay behind the uplink, checking the
    /// probation invariant: a blacklisted relay must never be selected
    /// while its probation is in force.
    fn defer_send(
        &mut self,
        ctx: &mut Context<'_>,
        relay: NodeId,
        seq: u64,
        real: bool,
        slot: u64,
    ) {
        let now = ctx.now();
        if on_probation(&self.blacklist, self.config.blacklist_ttl, relay, now) {
            lock(&self.sink).violation(format!(
                "probation breach: relay {} selected at {now} while blacklisted",
                relay.0
            ));
        }
        let token = OUTBOX_BASE + self.next_outbox;
        self.next_outbox += 1;
        // The query text gives requests a realistic size.
        let text = format_args!("query number {seq} terms");
        let payload = request::encode(ctx.self_id(), seq, real, text);
        self.outbox.insert(token, (relay, payload));
        let delay = SimTime::from_nanos(self.config.uplink_per_request.as_nanos() * (slot + 1));
        ctx.set_timer(delay, token);
    }

    fn launch(&mut self, ctx: &mut Context<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Chain the next launch before anything else, so a pathological
        // window can never stall the arrival process.
        if self.next_seq < self.config.queries {
            ctx.set_timer(self.config.arrival.interval(seq), TOKEN_LAUNCH);
        }
        let window = self.window_index(seq);
        let usable = self.usable(ctx.now());
        if usable.len() < 2 {
            // Not enough population for even a degenerate plan: count the
            // launch as skipped (it stays unanswered) and move on.
            let mut sink = lock(&self.sink);
            sink.outcome.windows[window].launched += 1;
            sink.outcome.windows[window].skipped += 1;
            return;
        }
        let picks = self.rng.sample_indices(usable.len(), self.config.k + 1);
        let real_slot = self.rng.gen_index(picks.len());
        // Slot order is the uplink order, already a random permutation.
        let chosen: Vec<NodeId> = picks.into_iter().map(|index| usable[index]).collect();
        {
            let mut sink = lock(&self.sink);
            sink.outcome.windows[window].launched += 1;
            // Plan-distinctness invariant: `sample_indices` draws without
            // replacement, so a duplicate relay means the sampler broke.
            if (1..chosen.len()).any(|i| chosen[..i].contains(&chosen[i])) {
                sink.violation(format!("plan for query {seq} doubled up a relay"));
            }
        }
        let mut fake_relays = chosen.clone();
        let real_relay = fake_relays.remove(real_slot);
        if self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::new(ctx.now(), ctx.self_id().0, "query.launch")
                    .query(seq)
                    .attr("relay", real_relay.0)
                    .attr("fakes", fake_relays.len()),
            );
        }
        let plan = Plan {
            sent_at: ctx.now(),
            attempts: 0,
            real_relay: Some(real_relay),
            fake_relays,
            answered: false,
        };
        self.inflight.insert(seq, plan);
        for (slot, &relay) in chosen.iter().enumerate() {
            self.defer_send(ctx, relay, seq, slot == real_slot, slot as u64);
        }
        self.account();
        ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
    }

    fn retry(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let Some(plan) = self.inflight.get_mut(&seq) else {
            return; // answered and pruned — the timer outlived the query
        };
        if plan.answered || plan.attempts >= self.config.max_retries {
            // The answered plan's top-up window closed, or the retry
            // budget is exhausted (the query stays unanswered): prune.
            self.inflight.remove(&seq);
            self.account();
            return;
        }
        // The entrusted relay never answered: blacklist it and resubmit
        // the real query through a fresh relay.
        let failed = plan.real_relay.take();
        plan.attempts += 1;
        let attempts = plan.attempts;
        if let Some(dead) = failed {
            self.blacklist.insert(dead, now);
        }
        let usable = self.usable(now);
        if usable.is_empty() {
            ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
            return;
        }
        {
            let mut sink = lock(&self.sink);
            sink.outcome.retries += 1;
            sink.outcome.windows[self.window_index(seq)].retries += 1;
        }
        // Keep the plan's relays distinct (the core repair's
        // `draw_distinct_relay` rule): prefer a replacement not already
        // carrying one of this query's fakes, falling back to any usable
        // relay only when the population is too depleted to avoid it.
        let spare = spare_relays(&usable, &self.inflight[&seq]);
        let pool = if spare.is_empty() { &usable } else { &spare };
        let replacement = pool[self.rng.gen_index(pool.len())];
        let plan = self.inflight.get_mut(&seq).expect("retried plan in flight");
        plan.real_relay = Some(replacement);
        if self.trace.is_enabled() {
            let mut event = TraceEvent::new(now, ctx.self_id().0, "query.repair")
                .query(seq)
                .attr("attempt", attempts);
            if let Some(dead) = failed {
                event = event.attr("failed", dead.0);
            }
            let injected = failed.is_some_and(|dead| self.victims.contains(&dead));
            self.trace.emit(
                event
                    .attr("replacement", replacement.0)
                    .attr("fault_injected", injected),
            );
        }
        self.defer_send(ctx, replacement, seq, true, 0);
        if self.config.adaptive {
            self.top_up_fakes(ctx, seq);
        }
        self.account();
        ctx.set_timer(self.config.retry_timeout, RETRY_BASE + seq);
    }

    /// The adaptive-k repair: fakes entrusted to meanwhile-blacklisted
    /// relays are presumed lost with them, so the resubmission carries
    /// the shortfall too — fresh fake requests through distinct relays
    /// not already serving this query.
    fn top_up_fakes(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let plan = self.inflight.get_mut(&seq).expect("retried plan in flight");
        let (blacklist, ttl) = (&self.blacklist, self.config.blacklist_ttl);
        plan.fake_relays
            .retain(|r| !on_probation(blacklist, ttl, *r, now));
        let shortfall = self.config.k.saturating_sub(plan.fake_relays.len());
        if shortfall == 0 {
            return;
        }
        let candidates = spare_relays(&self.usable(now), &self.inflight[&seq]);
        let picks = self.rng.sample_indices(candidates.len(), shortfall);
        if picks.is_empty() {
            return;
        }
        let fresh: Vec<NodeId> = picks.iter().map(|index| candidates[*index]).collect();
        let plan = self.inflight.get_mut(&seq).expect("retried plan in flight");
        plan.fake_relays.extend_from_slice(&fresh);
        for (slot, relay) in fresh.into_iter().enumerate() {
            self.defer_send(ctx, relay, seq, false, slot as u64 + 1);
        }
        let count = picks.len() as u64;
        {
            let mut sink = lock(&self.sink);
            sink.outcome.fakes_topped_up += count;
            sink.outcome.windows[self.window_index(seq)].topped_up += count;
        }
        if self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::new(now, ctx.self_id().0, "query.top_up")
                    .query(seq)
                    .attr("count", count),
            );
        }
    }

    fn answered(&mut self, ctx: &mut Context<'_>, seq: u64) {
        let now = ctx.now();
        let window = self.window_index(seq);
        let config = &self.config;
        let Some(plan) = self.inflight.get_mut(&seq) else {
            return; // a late answer after pruning
        };
        if plan.answered {
            return; // duplicate response
        }
        plan.answered = true;
        // The dilution this plan actually delivered: fakes still
        // entrusted to relays the client has not (currently) given up on.
        // Fakes on blacklisted relays are presumed swallowed.
        let achieved_k = plan
            .fake_relays
            .iter()
            .filter(|r| !on_probation(&self.blacklist, config.blacklist_ttl, **r, now))
            .count();
        let (sent_at, attempts) = (plan.sent_at, plan.attempts);
        // Only the proactive top-up reads answered plans, and only until
        // their retry window closes.
        let keep = config.adaptive
            && self.prober.is_some()
            && now.saturating_sub(sent_at) <= config.retry_timeout;
        if !keep {
            self.inflight.remove(&seq);
        }
        // A response can never precede its send; a negative round trip
        // means the event order broke.
        let round_trip = now.checked_sub(sent_at);
        let mut sink = lock(&self.sink);
        if achieved_k > config.k {
            sink.violation(format!(
                "query {seq} recorded achieved_k {achieved_k} above target {}",
                config.k
            ));
        }
        let latency_s = match round_trip {
            Some(round_trip) => round_trip.as_secs_f64(),
            None => {
                sink.outcome.clamped_samples += 1;
                sink.violation(format!(
                    "query {seq}: response at {now} precedes send at {sent_at}"
                ));
                if let Some(counter) = &self.clamped_metric {
                    counter.inc();
                }
                self.trace
                    .emit(TraceEvent::new(now, ctx.self_id().0, "latency.clamped").query(seq));
                0.0
            }
        };
        sink.outcome.answered += 1;
        let w = &mut sink.outcome.windows[window];
        w.answered += 1;
        w.latency_sum_s += latency_s;
        w.latency_max_s = w.latency_max_s.max(latency_s);
        w.min_achieved_k = w.min_achieved_k.min(achieved_k);
        if achieved_k < config.k {
            w.under_target += 1;
        }
        drop(sink);
        if self.trace.is_enabled() {
            // Spans are stamped at completion (events are never emitted
            // with a timestamp behind the already-merged timeline); the
            // Chrome exporter back-dates the slice by its duration so it
            // covers [sent, answered].
            let mut event = TraceEvent::new(now, ctx.self_id().0, "query.answered")
                .query(seq)
                .attr("achieved_k", achieved_k)
                .attr("assessed_k", config.k)
                .attr("attempts", attempts);
            if let Some(round_trip) = round_trip {
                event = event.span(round_trip);
            }
            self.trace.emit(event);
        }
        self.account();
    }

    /// One probe round of the membership prober: ping the next
    /// `probes_per_round` relays of the detector's shuffled cycle, knock
    /// on one currently-dead relay (the refutation channel for recovered
    /// or re-merged relays), and re-arm until the probe deadline.
    fn probe_round(&mut self, ctx: &mut Context<'_>) {
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        let config = prober.config;
        for _ in 0..config.probes_per_round {
            let Some(peer) = prober.detector.next_probe_target(&mut prober.rng) else {
                break;
            };
            let relay = NodeId(peer.0);
            if prober.pending.contains_key(&relay) {
                continue;
            }
            let seq = prober.ping(ctx, relay);
            prober.pending.insert(relay, seq);
            ctx.set_timer(config.probe_timeout, PROBE_TIMEOUT_BASE + relay.0);
        }
        let dead = prober.detector.dead_members();
        if !dead.is_empty() {
            let relay = NodeId(dead[prober.dead_cursor % dead.len()].0);
            prober.dead_cursor += 1;
            if !prober.pending.contains_key(&relay) {
                // No timeout timer: the relay is already declared dead,
                // so only an ack (a refutation) changes anything.
                prober.ping(ctx, relay);
            }
        }
        if ctx.now() + config.probe_period < prober.deadline {
            ctx.set_timer(config.probe_period, TOKEN_PROBE_ROUND);
        }
    }

    /// A direct probe went unanswered: suspect the relay and put it on
    /// probation immediately (suspicion-driven blacklisting), with the
    /// suspicion timeout armed toward a dead declaration.
    fn probe_timed_out(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        let now = ctx.now();
        if prober.pending.remove(&relay).is_some() && prober.detector.suspect(PeerId(relay.0), now)
        {
            self.blacklist.insert(relay, now);
            ctx.set_timer(prober.config.suspicion_timeout, SUSPECT_BASE + relay.0);
            self.trace.emit(
                TraceEvent::new(now, ctx.self_id().0, "mship.suspect").attr("relay", relay.0),
            );
        }
    }

    /// A suspicion timeout expired: if the suspicion still stands (no
    /// refutation reset the clock), declare the relay dead and top up
    /// the fakes its plans entrusted to it.
    fn suspicion_expired(&mut self, ctx: &mut Context<'_>, relay: NodeId) {
        let Some(prober) = self.prober.as_mut() else {
            return;
        };
        let now = ctx.now();
        let suspected_since = now.saturating_sub(prober.config.suspicion_timeout);
        if prober
            .detector
            .declare_dead(PeerId(relay.0), suspected_since, now)
        {
            self.trace
                .emit(TraceEvent::new(now, ctx.self_id().0, "mship.dead").attr("relay", relay.0));
            self.proactive_top_up(ctx, relay);
        }
    }

    /// An ack arrived: clear the pending probe and apply the relay's
    /// incarnation as firsthand aliveness. When that refutes a standing
    /// suspicion or death, the relay is forgiven early — its blacklist
    /// entry removed outright, ahead of any fixed probation TTL.
    fn handle_ack(&mut self, ctx: &mut Context<'_>, relay: NodeId, payload: &[u8]) {
        let (Some(prober), Some((seq, incarnation))) = (self.prober.as_mut(), decode_ack(payload))
        else {
            return;
        };
        if prober.pending.get(&relay) == Some(&seq) {
            prober.pending.remove(&relay);
        }
        let peer = PeerId(relay.0);
        let was_barred = matches!(
            prober.detector.state_of(peer),
            Some((MemberState::Suspect | MemberState::Dead, _, _))
        );
        prober.detector.ack(peer, incarnation, ctx.now());
        let alive_again = matches!(
            prober.detector.state_of(peer),
            Some((MemberState::Alive, _, _))
        );
        if was_barred && alive_again {
            self.blacklist.remove(&relay);
            self.trace.emit(
                TraceEvent::new(ctx.now(), ctx.self_id().0, "mship.refute")
                    .attr("relay", relay.0)
                    .attr("incarnation", incarnation),
            );
        }
    }

    /// The proactive half of the adaptive repair: when the prober
    /// declares a relay dead, every plan still live (unanswered, or
    /// answered within its retry window — its dilution still matters to
    /// the engine's aggregate view) that entrusted a fake to it gets that
    /// fake resubmitted through a fresh relay now, instead of waiting for
    /// a retry to notice the loss.
    fn proactive_top_up(&mut self, ctx: &mut Context<'_>, dead: NodeId) {
        if !self.config.adaptive {
            return;
        }
        let usable = self.usable(ctx.now());
        let affected: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, plan)| plan.fake_relays.contains(&dead))
            .map(|(seq, _)| *seq)
            .collect();
        for seq in affected {
            let Some(plan) = self.inflight.get_mut(&seq) else {
                continue;
            };
            plan.fake_relays.retain(|r| *r != dead);
            let candidates = spare_relays(&usable, plan);
            if candidates.is_empty() {
                continue;
            }
            let Some(prober) = self.prober.as_mut() else {
                return;
            };
            let relay = candidates[prober.rng.gen_index(candidates.len())];
            plan.fake_relays.push(relay);
            self.defer_send(ctx, relay, seq, false, 0);
            lock(&self.sink).fakes_topped_up_proactive += 1;
            self.trace.emit(
                TraceEvent::new(ctx.now(), ctx.self_id().0, "query.top_up")
                    .query(seq)
                    .attr("count", 1_u64)
                    .attr("proactive", true)
                    .attr("dead", dead.0),
            );
        }
        self.account();
    }
}

impl NodeBehavior for Client {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_RESPONSE => match request::decode(&envelope.payload) {
                Some(r) if r.real && r.seq < self.config.queries => self.answered(ctx, r.seq),
                _ => {}
            },
            TAG_ACK => self.handle_ack(ctx, envelope.src, &envelope.payload),
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        match token {
            TOKEN_LAUNCH => self.launch(ctx),
            TOKEN_PROBE_ROUND => self.probe_round(ctx),
            t if t >= SUSPECT_BASE => self.suspicion_expired(ctx, NodeId(t - SUSPECT_BASE)),
            t if t >= PROBE_TIMEOUT_BASE => {
                self.probe_timed_out(ctx, NodeId(t - PROBE_TIMEOUT_BASE))
            }
            t if t >= RETRY_BASE => self.retry(ctx, t - RETRY_BASE),
            t if t >= OUTBOX_BASE => {
                if let Some((relay, payload)) = self.outbox.remove(&t) {
                    ctx.send(relay, TAG_FORWARD, payload);
                    self.account();
                }
            }
            _ => {}
        }
    }
}

fn encode_ping(seq: u64, state: u8, incarnation: u64) -> Vec<u8> {
    [&seq.to_le_bytes()[..], &[state], &incarnation.to_le_bytes()].concat()
}

fn decode_ping(payload: &[u8]) -> Option<(u64, u8, u64)> {
    let (seq, rest) = payload.split_first_chunk::<8>()?;
    let (state, incarnation) = rest.split_first()?;
    let incarnation = u64::from_le_bytes(incarnation.try_into().ok()?);
    Some((u64::from_le_bytes(*seq), *state, incarnation))
}

fn encode_ack(seq: u64, incarnation: u64) -> Vec<u8> {
    [seq.to_le_bytes(), incarnation.to_le_bytes()].concat()
}

fn decode_ack(payload: &[u8]) -> Option<(u64, u64)> {
    let (seq, incarnation) = payload.split_first_chunk::<8>()?;
    let incarnation = u64::from_le_bytes(incarnation.try_into().ok()?);
    Some((u64::from_le_bytes(*seq), incarnation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ChurnConfig;
    use cyclosa_net::sim::Simulation;

    #[test]
    fn answered_plans_stay_resident_only_through_their_retry_window() {
        // Twice the horizon of the churn experiment's proactive top-up
        // test: residency must stay bounded by the retry window, not grow
        // with the query count.
        let config = ChurnConfig {
            relays: 20,
            queries: 80,
            failure_rate: 0.5,
            adaptive: true,
            membership: Some(MembershipProbeConfig {
                probe_period: SimTime::from_millis(500),
                probe_timeout: SimTime::from_millis(900),
                suspicion_timeout: SimTime::from_millis(1500),
                probes_per_round: 6,
            }),
            ..ChurnConfig::default()
        };
        let report = run(
            &mut Simulation::new(config.seed),
            config.deployment(),
            &config.failure_plan(),
            &TraceSink::disabled(),
            None,
        );
        assert!(
            report.fakes_topped_up_proactive > 0,
            "answered plans inside their retry window must still be topped up"
        );
        let bound = u64::from(config.max_retries + 1) * config.retry_timeout.as_nanos()
            / ChurnConfig::issued_at(1).as_nanos()
            + 1;
        assert!(
            report.outcome.peak_inflight <= bound,
            "peak in-flight {} exceeds the retry-window bound {bound}",
            report.outcome.peak_inflight
        );
        assert_eq!(
            report.outcome.violation_count, 0,
            "{:?}",
            report.outcome.violations
        );
    }
}
