//! Simulated CYCLOSA deployments: the system experiments of Fig. 8.
//!
//! * [`run_end_to_end_latency`] — a discrete-event simulation of a client,
//!   a population of relays and the search engine, producing the per-query
//!   end-to-end latency distribution (Fig. 8a, Fig. 8b). The latency of a
//!   protected query is the latency of its *real* query path: fake queries
//!   travel in parallel and their responses are dropped. The experiment is
//!   generic over the execution engine ([`run_end_to_end_latency_on`]):
//!   it produces bit-identical output on the sequential simulator and on
//!   the sharded parallel engine ([`run_end_to_end_latency_sharded`]),
//!   and threads [`DeploymentMetrics`] through relay forwarding, engine
//!   queries and the client's latency accounting.
//! * [`throughput_latency_curve`] — the closed-loop relay saturation curve
//!   of Fig. 8c, driven by the SGX cost model and an M/D/1 queueing
//!   approximation of the relay's request pipeline.
//! * [`run_load_experiment`] — the 90-minute load/rate-limit experiment of
//!   Fig. 8d: 100 active users at the AOL rate (31.23 queries/hour) either
//!   spread their `k + 1` requests over all CYCLOSA nodes or funnel them
//!   through a single X-SEARCH proxy that the engine promptly blocks.

use crate::node::CyclosaNode;
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, Simulation};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::metrics::{Counter, Histogram, Registry};
use cyclosa_runtime::ShardedEngine;
use cyclosa_search_engine::ratelimit::{RateLimiter, RateLimiterConfig};
use cyclosa_sgx::enclave::CostModel;
use cyclosa_telemetry::{TraceEvent, TraceSink};
use cyclosa_util::dist::Exponential;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use cyclosa_util::stats::jain_fairness;
use std::sync::{Arc, Mutex};

const TAG_FORWARD: u32 = 1;
const TAG_ENGINE_QUERY: u32 = 2;
const TAG_ENGINE_RESPONSE: u32 = 3;
const TAG_RESPONSE: u32 = 4;

/// Metric handles threaded through the simulated deployment: relay
/// forwarding, search-engine queries and the client's end-to-end latency.
///
/// Handles are cheap `Arc` clones, so one set can be shared by every relay
/// across every shard of the parallel engine. Recording never feeds back
/// into scheduling — instrumented runs remain bit-identical.
#[derive(Debug, Clone)]
pub struct DeploymentMetrics {
    /// Requests forwarded by relays towards the engine.
    pub relay_forwarded: Counter,
    /// Distribution of in-enclave relay service times (ns).
    pub relay_service_ns: Histogram,
    /// Queries received by the search engine.
    pub engine_queries: Counter,
    /// Distribution of engine processing delays (ns).
    pub engine_processing_ns: Histogram,
    /// Distribution of real-query end-to-end latencies (ns).
    pub end_to_end_ns: Histogram,
}

impl DeploymentMetrics {
    /// Registers the deployment metrics under their canonical names
    /// (`relay.forwarded`, `relay.service_ns`, `engine.queries`,
    /// `engine.processing_ns`, `client.end_to_end_ns`).
    pub fn register(registry: &Registry) -> Self {
        Self {
            relay_forwarded: registry.counter("relay.forwarded"),
            relay_service_ns: registry.histogram("relay.service_ns"),
            engine_queries: registry.counter("engine.queries"),
            engine_processing_ns: registry.histogram("engine.processing_ns"),
            end_to_end_ns: registry.histogram("client.end_to_end_ns"),
        }
    }

    /// Free-standing handles not attached to any registry (used when the
    /// caller does not care about metrics).
    pub fn detached() -> Self {
        Self {
            relay_forwarded: Counter::new(),
            relay_service_ns: Histogram::new(),
            engine_queries: Counter::new(),
            engine_processing_ns: Histogram::new(),
            end_to_end_ns: Histogram::new(),
        }
    }
}

/// Configuration of the end-to-end latency experiment (Fig. 8a / 8b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEndConfig {
    /// Number of relay nodes in the deployment.
    pub relays: usize,
    /// Number of fake queries per user query.
    pub k: usize,
    /// Number of user queries to issue.
    pub queries: usize,
    /// Experiment seed.
    pub seed: u64,
    /// SGX transition cost model used by the relays.
    pub cost: CostModel,
    /// Client-side serialization delay per outgoing request: the browser
    /// extension encrypts and uploads the `k + 1` requests one after the
    /// other over a residential uplink, so larger `k` slightly delays the
    /// real query (this is what makes the Fig. 8b medians grow with `k`).
    pub client_uplink_per_request: SimTime,
}

impl Default for EndToEndConfig {
    fn default() -> Self {
        Self {
            relays: 50,
            k: 3,
            queries: 200,
            seed: 2018,
            cost: CostModel::default(),
            client_uplink_per_request: SimTime::from_millis(45),
        }
    }
}

/// Simulated service time of one relayed request inside the enclave:
/// one ecall (decrypt + table update), one ocall (hand the request to the
/// network), and the record-protection work proportional to the payload.
pub fn relay_service_time_ns(cost: &CostModel, payload_bytes: usize) -> u64 {
    cost.ecall_cost(payload_bytes + 4096, 2 * 1024 * 1024) + cost.ocall_cost(payload_bytes)
}

/// Service time of the X-SEARCH proxy for one user query: it additionally
/// aggregates `k + 1` queries into one OR request and filters the merged
/// response page inside the enclave, so it performs two extra enclave
/// transitions over roughly `k + 1` times more payload per request.
pub fn xsearch_service_time_ns(cost: &CostModel, payload_bytes: usize, k: usize) -> u64 {
    let aggregated = payload_bytes * (k + 1);
    relay_service_time_ns(cost, aggregated)
        + cost.ecall_cost(aggregated, 2 * 1024 * 1024)
        + cost.ecall_cost(aggregated * 4, 2 * 1024 * 1024)
}

struct RelayBehavior {
    engine: NodeId,
    processing: SimTime,
    pending: Vec<Envelope>,
    metrics: DeploymentMetrics,
}

impl NodeBehavior for RelayBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        match envelope.tag {
            TAG_FORWARD => {
                // Model the in-enclave processing time before contacting the
                // engine.
                self.pending.push(envelope);
                ctx.set_timer(self.processing, (self.pending.len() - 1) as u64);
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
        if let Some(envelope) = self.pending.get(token as usize) {
            self.metrics.relay_forwarded.inc();
            self.metrics.relay_service_ns.record_time(self.processing);
            ctx.send(self.engine, TAG_ENGINE_QUERY, envelope.payload.clone());
        }
    }
}

struct EngineBehavior {
    processing: LatencyModel,
    rng: Xoshiro256StarStar,
    pending: Vec<(NodeId, Vec<u8>)>,
    metrics: DeploymentMetrics,
}

impl NodeBehavior for EngineBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag != TAG_ENGINE_QUERY {
            return;
        }
        let delay = self.processing.sample(&mut self.rng);
        self.metrics.engine_queries.inc();
        self.metrics.engine_processing_ns.record_time(delay);
        self.pending.push((envelope.src, envelope.payload));
        ctx.set_timer(delay, (self.pending.len() - 1) as u64);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        if let Some((relay, payload)) = self.pending.get(token as usize).cloned() {
            ctx.send(relay, TAG_ENGINE_RESPONSE, payload);
        }
    }
}

struct ClientBehavior {
    relays: Vec<NodeId>,
    k: usize,
    queries: Vec<String>,
    rng: Xoshiro256StarStar,
    sent_at: Vec<Option<SimTime>>,
    latencies: Arc<Mutex<Vec<f64>>>,
    metrics: DeploymentMetrics,
    uplink_per_request: SimTime,
    /// Deferred sends: (destination, payload) scheduled behind the uplink.
    outbox: Vec<(NodeId, Vec<u8>)>,
    /// Per-query causal trace (disabled by default — emission is a no-op
    /// and, like the metrics, never feeds back into scheduling).
    trace: TraceSink,
}

impl NodeBehavior for ClientBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        if envelope.tag != TAG_RESPONSE {
            return;
        }
        let Some(request) = request::decode(&envelope.payload) else {
            return;
        };
        if request.real {
            let seq = request.seq;
            if let Some(Some(sent)) = self.sent_at.get(seq as usize) {
                let elapsed = ctx.now().saturating_sub(*sent);
                self.metrics.end_to_end_ns.record_time(elapsed);
                self.latencies
                    .lock()
                    .expect("latency sink poisoned")
                    .push(elapsed.as_secs_f64());
                if self.trace.is_enabled() {
                    // The failure-free deployment delivers every fake, so
                    // the achieved anonymity set equals the assessed one.
                    self.trace.emit(
                        TraceEvent::new(ctx.now(), ctx.self_id().0, "query.answered")
                            .query(seq)
                            .span(elapsed)
                            .attr("achieved_k", self.k)
                            .attr("assessed_k", self.k),
                    );
                }
            }
        }
        // Responses to fake queries are silently dropped (paper §IV step 8).
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        // Tokens below the deferred-send base identify user queries; tokens
        // above it identify entries of the outbox whose uplink slot arrived.
        const OUTBOX_BASE: u64 = 1 << 40;
        if token >= OUTBOX_BASE {
            if let Some((relay, payload)) = self.outbox.get((token - OUTBOX_BASE) as usize).cloned()
            {
                ctx.send(relay, TAG_FORWARD, payload);
            }
            return;
        }
        let seq = token as usize;
        let Some(query) = self.queries.get(seq).cloned() else {
            return;
        };
        // Pick k + 1 distinct relays from the view.
        let picks = self.rng.sample_indices(self.relays.len(), self.k + 1);
        let real_slot = self.rng.gen_index(picks.len());
        if self.trace.is_enabled() {
            self.trace.emit(
                TraceEvent::new(ctx.now(), ctx.self_id().0, "query.launch")
                    .query(seq as u64)
                    .attr("relay", self.relays[picks[real_slot]].0)
                    .attr("fakes", picks.len() - 1),
            );
        }
        if self.sent_at.len() <= seq {
            self.sent_at.resize(seq + 1, None);
        }
        self.sent_at[seq] = Some(ctx.now());
        for (slot, relay_index) in picks.into_iter().enumerate() {
            let payload = request::encode(ctx.self_id(), seq as u64, slot == real_slot, &query);
            // Requests leave the client one uplink slot apart, in random
            // relay order (slot order is already a random permutation).
            self.outbox.push((self.relays[relay_index], payload));
            let delay = SimTime::from_nanos(self.uplink_per_request.as_nanos() * (slot as u64 + 1));
            ctx.set_timer(delay, OUTBOX_BASE + (self.outbox.len() - 1) as u64);
        }
    }
}

/// The wire format of one relayed search request:
/// `"client|seq|flag|text"`, with flag `R` for the real query and `F` for
/// a fake. Relays route the engine's answer back by the client id; the
/// client keeps only the answer to its real query (paper §IV step 8).
pub mod request {
    use cyclosa_net::NodeId;
    use std::fmt::{Display, Write};

    /// One decoded request; the text borrows from the payload.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Request<'a> {
        /// The issuing client, to which the answer is routed back.
        pub client: NodeId,
        /// The client's query sequence number.
        pub seq: u64,
        /// Whether this is the real query rather than a fake.
        pub real: bool,
        /// The query text.
        pub text: &'a str,
    }

    /// Encodes one request payload.
    pub fn encode(client: NodeId, seq: u64, real: bool, text: impl Display) -> Vec<u8> {
        let flag = if real { 'R' } else { 'F' };
        // Room for the ids and a typical query in one allocation; `format!`
        // cannot size a nested `Display` up front.
        let mut payload = String::with_capacity(64);
        write!(payload, "{}|{seq}|{flag}|{text}", client.0).expect("writing to a String");
        payload.into_bytes()
    }

    /// Decodes a payload built by [`encode`]; `None` for anything else.
    pub fn decode(payload: &[u8]) -> Option<Request<'_>> {
        let text = std::str::from_utf8(payload).ok()?;
        let mut parts = text.splitn(4, '|');
        let client = NodeId(parts.next()?.parse().ok()?);
        let seq = parts.next()?.parse().ok()?;
        let real = match parts.next()? {
            "R" => true,
            "F" => false,
            _ => return None,
        };
        let text = parts.next()?;
        Some(Request {
            client,
            seq,
            real,
            text,
        })
    }
}

/// Runs the end-to-end latency experiment on `engine_impl` — any
/// [`Engine`], sequential or sharded — recording into `metrics` and
/// returning the per-query latencies (seconds) of the real-query path.
///
/// For a given `config.seed` the result is bit-identical across engines
/// and shard counts (see `cyclosa_net::engine` for why).
pub fn run_end_to_end_latency_on<E: Engine>(
    engine_impl: &mut E,
    config: &EndToEndConfig,
    metrics: &DeploymentMetrics,
) -> Vec<f64> {
    run_end_to_end_latency_observed_on(engine_impl, config, metrics, &TraceSink::disabled())
}

/// [`run_end_to_end_latency_on`] plus a causal trace: the client stamps
/// `query.launch` and `query.answered` events onto `trace`. With a
/// disabled sink this *is* `run_end_to_end_latency_on` — emission draws
/// no randomness and feeds nothing back, so the latencies are
/// bit-identical either way.
pub fn run_end_to_end_latency_observed_on<E: Engine>(
    engine_impl: &mut E,
    config: &EndToEndConfig,
    metrics: &DeploymentMetrics,
    trace: &TraceSink,
) -> Vec<f64> {
    assert!(config.relays > config.k, "need at least k + 1 relays");
    engine_impl.set_default_latency(LatencyModel::wan());
    let engine = NodeId(0);
    let relays: Vec<NodeId> = (1..=config.relays as u64).map(NodeId).collect();
    let client = NodeId(config.relays as u64 + 1);

    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed ^ 0xC11E);
    engine_impl.add_node(
        engine,
        Box::new(EngineBehavior {
            processing: LatencyModel::search_engine_processing(),
            rng: rng.fork(1),
            pending: Vec::new(),
            metrics: metrics.clone(),
        }),
    );
    let processing = SimTime::from_nanos(relay_service_time_ns(&config.cost, 512));
    for &relay in &relays {
        engine_impl.add_node(
            relay,
            Box::new(RelayBehavior {
                engine,
                processing,
                pending: Vec::new(),
                metrics: metrics.clone(),
            }),
        );
    }
    let latencies = Arc::new(Mutex::new(Vec::new()));
    let queries: Vec<String> = (0..config.queries)
        .map(|i| format!("query number {i} terms"))
        .collect();
    engine_impl.add_node(
        client,
        Box::new(ClientBehavior {
            relays: relays.clone(),
            k: config.k,
            queries,
            rng: rng.fork(2),
            sent_at: Vec::new(),
            latencies: latencies.clone(),
            metrics: metrics.clone(),
            uplink_per_request: config.client_uplink_per_request,
            outbox: Vec::new(),
            trace: trace.clone(),
        }),
    );
    // One query every 500 ms of simulated time.
    for i in 0..config.queries {
        engine_impl.schedule_timer(SimTime::from_millis(500 * i as u64), client, i as u64);
    }
    engine_impl.run();
    let collected = latencies.lock().expect("latency sink poisoned").clone();
    collected
}

/// Runs the end-to-end latency experiment on the sequential simulator and
/// returns the per-query latencies (seconds) of the real-query path.
pub fn run_end_to_end_latency(config: EndToEndConfig) -> Vec<f64> {
    let mut simulation = Simulation::new(config.seed);
    run_end_to_end_latency_on(&mut simulation, &config, &DeploymentMetrics::detached())
}

/// Runs the end-to-end latency experiment on the sharded parallel engine
/// with `shards` worker threads. Same seed ⇒ same output as
/// [`run_end_to_end_latency`], bit for bit.
pub fn run_end_to_end_latency_sharded(config: EndToEndConfig, shards: usize) -> Vec<f64> {
    let mut engine = ShardedEngine::new(config.seed, shards);
    run_end_to_end_latency_on(&mut engine, &config, &DeploymentMetrics::detached())
}

/// One point of the Fig. 8c throughput/latency curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputPoint {
    /// Offered load in requests per second.
    pub offered_rps: f64,
    /// Resulting median response latency in seconds.
    pub latency_s: f64,
    /// Whether the relay is saturated at this load.
    pub saturated: bool,
}

/// Computes the response latency of a relay under a constant offered load
/// using an M/D/1 queueing approximation over the deterministic per-request
/// service time; beyond saturation the latency is reported as the
/// `saturation_latency_s` plateau (the paper reports 5.3 s for X-SEARCH at
/// 40,000 req/s).
pub fn throughput_latency_curve(
    service_time_ns: u64,
    offered_rps: &[f64],
    saturation_latency_s: f64,
) -> Vec<ThroughputPoint> {
    let service_s = service_time_ns as f64 / 1e9;
    offered_rps
        .iter()
        .map(|&rate| {
            let utilization = rate * service_s;
            if utilization >= 1.0 {
                ThroughputPoint {
                    offered_rps: rate,
                    latency_s: saturation_latency_s,
                    saturated: true,
                }
            } else {
                // M/D/1 mean waiting time plus a base network round trip to
                // the next hop (the experiment measures the reply from the
                // next hop, not from the engine).
                let base_rtt = 0.2;
                let waiting = utilization * service_s / (2.0 * (1.0 - utilization));
                ThroughputPoint {
                    offered_rps: rate,
                    latency_s: base_rtt + service_s + waiting,
                    saturated: false,
                }
            }
        })
        .collect()
}

/// Configuration of the Fig. 8d load experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadExperimentConfig {
    /// Number of active users (and of CYCLOSA nodes).
    pub users: usize,
    /// Mean queries per user per hour (the 100 most active AOL users submit
    /// 31.23 queries/hour).
    pub queries_per_hour: f64,
    /// Number of fake queries per user query.
    pub k: usize,
    /// Experiment duration in minutes.
    pub duration_minutes: u64,
    /// Width of a reporting bucket in minutes.
    pub bucket_minutes: u64,
    /// Search-engine rate limit.
    pub rate_limit: RateLimiterConfig,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for LoadExperimentConfig {
    fn default() -> Self {
        Self {
            users: 100,
            queries_per_hour: 31.23,
            k: 3,
            duration_minutes: 90,
            bucket_minutes: 10,
            rate_limit: RateLimiterConfig::default(),
            seed: 8,
        }
    }
}

/// The outcome of the Fig. 8d experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// End time (minutes) of each reporting bucket.
    pub bucket_minutes: Vec<u64>,
    /// CYCLOSA: mean requests per node in each bucket.
    pub cyclosa_mean_per_node: Vec<f64>,
    /// CYCLOSA: maximum requests on any single node in each bucket.
    pub cyclosa_max_per_node: Vec<f64>,
    /// X-SEARCH: requests admitted by the engine in each bucket.
    pub xsearch_admitted: Vec<u64>,
    /// X-SEARCH: requests rejected by the engine in each bucket.
    pub xsearch_rejected: Vec<u64>,
    /// The engine's per-identity hourly budget.
    pub engine_hourly_limit: u32,
    /// Jain fairness index of the total per-node CYCLOSA load.
    pub cyclosa_fairness: f64,
    /// Total CYCLOSA requests rejected by the engine (expected: 0).
    pub cyclosa_rejected: u64,
}

/// Runs the Fig. 8d experiment.
pub fn run_load_experiment(config: LoadExperimentConfig) -> LoadReport {
    assert!(config.users > 0 && config.bucket_minutes > 0);
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let inter_arrival = Exponential::new(config.queries_per_hour / 3600.0);
    let duration_s = config.duration_minutes as f64 * 60.0;
    let buckets = config.duration_minutes.div_ceil(config.bucket_minutes) as usize;

    let mut cyclosa_limiter = RateLimiter::new(config.rate_limit);
    let mut xsearch_limiter = RateLimiter::new(config.rate_limit);
    let xsearch_proxy_identity: u64 = u64::MAX;

    let mut cyclosa_per_node_bucket = vec![vec![0u64; config.users]; buckets];
    let mut cyclosa_total_per_node = vec![0f64; config.users];
    let mut cyclosa_rejected = 0u64;
    let mut xsearch_admitted = vec![0u64; buckets];
    let mut xsearch_rejected = vec![0u64; buckets];

    // Generate each user's query arrival times and process them.
    let mut arrivals: Vec<(f64, usize)> = Vec::new();
    for user in 0..config.users {
        let mut t = inter_arrival.sample(&mut rng);
        while t < duration_s {
            arrivals.push((t, user));
            t += inter_arrival.sample(&mut rng);
        }
    }
    arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));

    for (at, _user) in arrivals {
        let bucket = ((at / 60.0) as u64 / config.bucket_minutes) as usize;
        let bucket = bucket.min(buckets - 1);
        // CYCLOSA: the real query and k fakes are forwarded by k + 1
        // distinct relays chosen uniformly at random.
        let relays = rng.sample_indices(config.users, config.k + 1);
        for relay in relays {
            if cyclosa_limiter.submit(relay as u64, at).is_admitted() {
                cyclosa_per_node_bucket[bucket][relay] += 1;
                cyclosa_total_per_node[relay] += 1.0;
            } else {
                cyclosa_rejected += 1;
            }
        }
        // X-SEARCH: the same k + 1 queries leave as one OR-aggregated request
        // from the single proxy identity... the paper counts the proxy's
        // outgoing requests per user query as k + 1 individual requests for
        // the 10,500 req/hour figure, so we model each as a separate engine
        // request from the same identity.
        for _ in 0..(config.k + 1) {
            if xsearch_limiter
                .submit(xsearch_proxy_identity, at)
                .is_admitted()
            {
                xsearch_admitted[bucket] += 1;
            } else {
                xsearch_rejected[bucket] += 1;
            }
        }
    }

    let bucket_ends: Vec<u64> = (1..=buckets as u64)
        .map(|b| b * config.bucket_minutes)
        .collect();
    let cyclosa_mean_per_node: Vec<f64> = cyclosa_per_node_bucket
        .iter()
        .map(|nodes| nodes.iter().sum::<u64>() as f64 / config.users as f64)
        .collect();
    let cyclosa_max_per_node: Vec<f64> = cyclosa_per_node_bucket
        .iter()
        .map(|nodes| nodes.iter().copied().max().unwrap_or(0) as f64)
        .collect();

    LoadReport {
        bucket_minutes: bucket_ends,
        cyclosa_mean_per_node,
        cyclosa_max_per_node,
        xsearch_admitted,
        xsearch_rejected,
        engine_hourly_limit: config.rate_limit.max_requests,
        cyclosa_fairness: jain_fairness(&cyclosa_total_per_node),
        cyclosa_rejected,
    }
}

/// Drives a population of [`CyclosaNode`]s through a number of gossip
/// rounds so their peer views converge before an experiment (a convenience
/// wrapper over the peer-sampling simulator used by examples and tests).
pub fn converge_peer_views(nodes: &mut [CyclosaNode], rounds: usize, seed: u64) {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let ids: Vec<cyclosa_peer_sampling::PeerId> = nodes.iter().map(|n| n.id()).collect();
    // Bootstrap every node with the full directory, then run push-pull
    // exchanges on the extracted protocol instances.
    for node in nodes.iter_mut() {
        let own = node.id();
        node.bootstrap_peers(ids.iter().copied().filter(|p| *p != own));
    }
    for _ in 0..rounds {
        for i in 0..nodes.len() {
            nodes[i].peer_sampling_mut().increase_ages();
            let Some(partner) = nodes[i].peer_sampling().select_partner(&mut rng) else {
                continue;
            };
            let Some(j) = nodes.iter().position(|n| n.id() == partner) else {
                continue;
            };
            if i == j {
                continue;
            }
            let buffer_i = nodes[i].peer_sampling().prepare_buffer(&mut rng);
            let buffer_j = nodes[j].peer_sampling().prepare_buffer(&mut rng);
            nodes[j]
                .peer_sampling_mut()
                .merge(&buffer_i, &buffer_j, &mut rng);
            nodes[i]
                .peer_sampling_mut()
                .merge(&buffer_j, &buffer_i, &mut rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_util::stats::Summary;

    #[test]
    fn request_codec_round_trips_and_rejects_foreign_payloads() {
        let payload = request::encode(NodeId(31), 7, true, "query number 7 terms");
        assert_eq!(payload, b"31|7|R|query number 7 terms");
        let decoded = request::decode(&payload).expect("own payload decodes");
        assert_eq!(
            decoded,
            request::Request {
                client: NodeId(31),
                seq: 7,
                real: true,
                text: "query number 7 terms",
            }
        );
        let fake = request::encode(NodeId(31), 7, false, "a|b");
        assert_eq!(
            request::decode(&fake).map(|r| (r.real, r.text)),
            Some((false, "a|b"))
        );
        for foreign in [&b"31|7|X|text"[..], b"31|7|R", b"x|7|R|t", &[0xFF, b'|']] {
            assert_eq!(request::decode(foreign), None);
        }
    }

    #[test]
    fn end_to_end_latency_is_sub_second_at_the_median() {
        let config = EndToEndConfig {
            relays: 20,
            k: 3,
            queries: 60,
            ..EndToEndConfig::default()
        };
        let latencies = run_end_to_end_latency(config);
        assert!(latencies.len() >= 55, "only {} samples", latencies.len());
        let summary = Summary::from_samples(&latencies);
        assert!(
            summary.median > 0.3 && summary.median < 2.0,
            "median {}",
            summary.median
        );
    }

    #[test]
    fn sharded_engines_reproduce_the_sequential_latencies_exactly() {
        let config = EndToEndConfig {
            relays: 15,
            k: 2,
            queries: 30,
            ..EndToEndConfig::default()
        };
        let sequential = run_end_to_end_latency(config);
        assert!(!sequential.is_empty());
        for shards in [1, 2, 4] {
            assert_eq!(
                run_end_to_end_latency_sharded(config, shards),
                sequential,
                "latencies diverged with {shards} shards"
            );
        }
    }

    #[test]
    fn deployment_metrics_observe_the_experiment() {
        let registry = cyclosa_runtime::Registry::new();
        let metrics = DeploymentMetrics::register(&registry);
        let config = EndToEndConfig {
            relays: 10,
            k: 3,
            queries: 20,
            ..EndToEndConfig::default()
        };
        let mut simulation = Simulation::new(config.seed);
        let latencies = run_end_to_end_latency_on(&mut simulation, &config, &metrics);
        assert_eq!(metrics.end_to_end_ns.count() as usize, latencies.len());
        // Every uploaded request is forwarded by exactly one relay and
        // reaches the engine exactly once (no loss configured).
        let expected = (config.queries * (config.k + 1)) as u64;
        assert_eq!(metrics.relay_forwarded.get(), expected);
        assert_eq!(metrics.engine_queries.get(), expected);
        let snapshot = registry.snapshot();
        let e2e = &snapshot
            .histograms
            .iter()
            .find(|(n, _)| n == "client.end_to_end_ns")
            .unwrap()
            .1;
        assert!(
            e2e.p50 > 300_000_000,
            "median end-to-end below 0.3s: {}",
            e2e.p50
        );
        assert!(e2e.p95 >= e2e.p50 && e2e.p99 >= e2e.p95);
    }

    #[test]
    fn latency_grows_slowly_with_k() {
        let base = EndToEndConfig {
            relays: 30,
            queries: 60,
            ..EndToEndConfig::default()
        };
        let k0 =
            Summary::from_samples(&run_end_to_end_latency(EndToEndConfig { k: 0, ..base })).median;
        let k7 =
            Summary::from_samples(&run_end_to_end_latency(EndToEndConfig { k: 7, ..base })).median;
        // Fake queries travel in parallel: the median latency must not blow
        // up with k (the paper's Fig. 8b shows < 1.5 s even at k = 7).
        assert!(k7 < k0 * 2.5, "k=7 median {k7} vs k=0 median {k0}");
    }

    #[test]
    #[should_panic(expected = "k + 1 relays")]
    fn latency_experiment_needs_enough_relays() {
        let _ = run_end_to_end_latency(EndToEndConfig {
            relays: 2,
            k: 5,
            ..EndToEndConfig::default()
        });
    }

    #[test]
    fn throughput_curve_saturates_at_service_rate() {
        // 20 µs of service time → ~50,000 req/s capacity.
        let points =
            throughput_latency_curve(20_000, &[1_000.0, 10_000.0, 40_000.0, 60_000.0], 5.3);
        assert!(!points[0].saturated && points[0].latency_s < 0.5);
        assert!(points[2].latency_s < 1.0);
        assert!(points[3].saturated);
        assert!((points[3].latency_s - 5.3).abs() < 1e-12);
        // Latency is monotone in offered load.
        assert!(points[1].latency_s >= points[0].latency_s);
    }

    #[test]
    fn cyclosa_relay_is_faster_than_xsearch_proxy() {
        let cost = CostModel::default();
        assert!(relay_service_time_ns(&cost, 512) < xsearch_service_time_ns(&cost, 512, 3));
    }

    #[test]
    fn load_experiment_blocks_xsearch_but_not_cyclosa() {
        let report = run_load_experiment(LoadExperimentConfig::default());
        assert_eq!(
            report.cyclosa_rejected, 0,
            "CYCLOSA nodes must stay under the limit"
        );
        let total_rejected: u64 = report.xsearch_rejected.iter().sum();
        let total_admitted: u64 = report.xsearch_admitted.iter().sum();
        assert!(
            total_rejected > total_admitted,
            "the central proxy must get blocked"
        );
        // Per-node CYCLOSA load stays far below the hourly budget.
        let max_bucket = report
            .cyclosa_max_per_node
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!(max_bucket * 6.0 < report.engine_hourly_limit as f64);
        assert!(
            report.cyclosa_fairness > 0.9,
            "fairness {}",
            report.cyclosa_fairness
        );
        assert_eq!(
            report.bucket_minutes.len(),
            report.cyclosa_mean_per_node.len()
        );
    }

    #[test]
    fn load_experiment_mean_per_node_matches_expected_rate() {
        let report = run_load_experiment(LoadExperimentConfig::default());
        // 100 users x 31.23 q/h x (k+1)=4 requests spread over 100 nodes
        // ≈ 125 requests/hour/node ≈ 21 per 10-minute bucket.
        let mean: f64 = report.cyclosa_mean_per_node.iter().sum::<f64>()
            / report.cyclosa_mean_per_node.len() as f64;
        assert!((10.0..35.0).contains(&mean), "mean per bucket {mean}");
    }

    #[test]
    fn converge_peer_views_fills_views() {
        let mut nodes: Vec<CyclosaNode> =
            (0..20).map(|i| CyclosaNode::builder(i).build()).collect();
        converge_peer_views(&mut nodes, 10, 99);
        for node in &nodes {
            assert!(node.peer_sampling().view().len() >= 5);
        }
    }
}
