//! The shuffle peer-sampling protocol running on a discrete-event
//! [`Engine`].
//!
//! Each node arms a periodic round timer, pushes its exchange buffer to
//! the selected partner over a simulated network message, and merges the
//! pulled reply. A partner that has not answered by the next round is
//! blacklisted, mirroring how CYCLOSA clients drop unresponsive proxies.
//!
//! Every node draws from its own seed-derived RNG stream, so an execution
//! is a pure function of `(seed, population, config)` — identical on the
//! sequential simulator and on the sharded parallel engine, for any shard
//! count.
//!
//! Partitions are first-class faults:
//! [`EngineGossipOverlay::schedule_partition`] severs the links between a
//! minority component and the rest for a window (nothing crashes), and at
//! the merge re-introduces a few bridge peers on each side so gossip can
//! re-join components that have blacklisted every reference to each other.
//! This directory-bridge healing is the baseline the bridge-free
//! [`crate::SwimGossipOverlay`] is compared against.
//!
//! The overlay is observable *during* a run, not only at the end:
//! [`EngineGossipOverlay::ring_with_metrics`] threads a
//! [`cyclosa_runtime::metrics::Registry`] through every node, recording a
//! view-staleness histogram (mean descriptor age per round) as the run
//! unfolds. Recording never draws randomness, so instrumented runs stay
//! bit-identical to uninstrumented ones.
//!
//! [`EngineGossipOverlay::ring_under_attack`] deploys the same honest
//! population next to the Sybil attacker of [`crate::sybil`].

use crate::node::{ExchangeBuffer, PeerSamplingConfig, PeerSamplingNode};
use crate::node_rng;
use crate::sybil::{Poison, SybilAttackConfig};
use crate::view::{Descriptor, PeerId, View};
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::metrics::{Histogram, Registry};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// Message tag: push half of a gossip exchange.
const TAG_PUSH: u32 = 0x9001;
/// Message tag: pull reply of a gossip exchange.
const TAG_REPLY: u32 = 0x9002;

/// Timer-token base of merge-bridge reseeds: a timer with token
/// `BRIDGE_BASE + peer` tells the node to insert a fresh descriptor of
/// `peer` into its view (the directory-assisted re-introduction after a
/// partition merges), instead of running a gossip round.
const BRIDGE_BASE: u64 = 1 << 32;

/// Quality metrics of a gossip overlay at one point in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayMetrics {
    /// Number of alive nodes.
    pub nodes: usize,
    /// Whether the directed union of views is weakly connected.
    pub connected: bool,
    /// Average in-degree (how many views a node appears in).
    pub mean_in_degree: f64,
    /// Maximum in-degree across nodes.
    pub max_in_degree: usize,
    /// Fraction of view slots pointing at dead nodes.
    pub dead_references: f64,
}

/// Computes overlay quality metrics from `(node, view peers)` pairs of the
/// *alive* population. References to peers absent from `views` count as
/// dead. Shared by the shuffle and the membership overlays.
pub fn overlay_metrics_from_views(views: &[(PeerId, Vec<PeerId>)]) -> OverlayMetrics {
    let alive_set: BTreeSet<PeerId> = views.iter().map(|(id, _)| *id).collect();
    let mut in_degree: BTreeMap<PeerId, usize> = views.iter().map(|(id, _)| (*id, 0)).collect();
    let mut dead_refs = 0usize;
    let mut total_refs = 0usize;
    let mut adjacency: BTreeMap<PeerId, Vec<PeerId>> = BTreeMap::new();
    for (id, peers) in views {
        for &peer in peers {
            total_refs += 1;
            if alive_set.contains(&peer) {
                *in_degree.entry(peer).or_insert(0) += 1;
                adjacency.entry(*id).or_default().push(peer);
                // Treat the overlay as undirected for connectivity.
                adjacency.entry(peer).or_default().push(*id);
            } else {
                dead_refs += 1;
            }
        }
    }
    let connected = if views.is_empty() {
        true
    } else {
        let mut visited = BTreeSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(views[0].0);
        visited.insert(views[0].0);
        while let Some(p) = queue.pop_front() {
            for &next in adjacency.get(&p).map(|v| v.as_slice()).unwrap_or(&[]) {
                if visited.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        visited.len() == views.len()
    };
    let mean_in_degree = if views.is_empty() {
        0.0
    } else {
        in_degree.values().sum::<usize>() as f64 / views.len() as f64
    };
    OverlayMetrics {
        nodes: views.len(),
        connected,
        mean_in_degree,
        max_in_degree: in_degree.values().copied().max().unwrap_or(0),
        dead_references: if total_refs == 0 {
            0.0
        } else {
            dead_refs as f64 / total_refs as f64
        },
    }
}

/// Configuration of the event-driven gossip overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineGossipConfig {
    /// Parameters of the underlying peer-sampling protocol.
    pub protocol: PeerSamplingConfig,
    /// Number of gossip rounds each node initiates.
    pub rounds: usize,
    /// Interval between a node's rounds (must comfortably exceed one
    /// network round trip so replies arrive before the next round).
    pub round_period: SimTime,
}

impl Default for EngineGossipConfig {
    fn default() -> Self {
        Self {
            protocol: PeerSamplingConfig::default(),
            rounds: 30,
            round_period: SimTime::from_secs(1),
        }
    }
}

fn encode(buffer: &ExchangeBuffer) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(buffer.descriptors.len() * 12);
    for descriptor in &buffer.descriptors {
        bytes.extend_from_slice(&descriptor.peer.0.to_le_bytes());
        bytes.extend_from_slice(&descriptor.age.to_le_bytes());
    }
    bytes
}

fn decode(bytes: &[u8]) -> Option<ExchangeBuffer> {
    if !bytes.len().is_multiple_of(12) {
        return None;
    }
    let descriptors = bytes
        .chunks_exact(12)
        .map(|chunk| Descriptor {
            peer: PeerId(u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"))),
            age: u32::from_le_bytes(chunk[8..].try_into().expect("4 bytes")),
        })
        .collect();
    Some(ExchangeBuffer { descriptors })
}

/// A Sybil's poisoned exchange buffer: exclusively fresh descriptors, so
/// the healer policy (drop oldest) never prefers honest entries over them.
fn encode_fresh(sybils: &[PeerId]) -> Vec<u8> {
    encode(&ExchangeBuffer {
        descriptors: sybils.iter().map(|&peer| Descriptor::fresh(peer)).collect(),
    })
}

/// Mean descriptor age of a view, rounded to whole rounds (`None` for an
/// empty view).
fn mean_view_age(view: &View) -> Option<u64> {
    let descriptors = view.descriptors();
    if descriptors.is_empty() {
        return None;
    }
    let total: u64 = descriptors.iter().map(|d| u64::from(d.age)).sum();
    Some(total / descriptors.len() as u64)
}

/// One gossip participant driven by engine events.
struct GossipBehavior {
    node: Arc<Mutex<PeerSamplingNode>>,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
    /// The `overlay.view_staleness_rounds` histogram, recorded every round
    /// — `None` for plain [`EngineGossipOverlay::ring`] deployments.
    staleness: Option<Histogram>,
    /// The exchange in flight, if any: partner and sent buffer.
    awaiting: Option<(PeerId, ExchangeBuffer)>,
}

impl NodeBehavior for GossipBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        let Some(received) = decode(&envelope.payload) else {
            return;
        };
        let mut node = self.node.lock().expect("gossip node poisoned");
        match envelope.tag {
            TAG_PUSH => {
                // Passive side: answer with our own buffer, then merge.
                let reply = node.prepare_buffer(&mut self.rng);
                ctx.send(envelope.src, TAG_REPLY, encode(&reply));
                node.merge(&received, &reply, &mut self.rng);
            }
            TAG_REPLY
                // Active side: merge against the buffer we sent, but only
                // for the exchange actually in flight (a reply straggling
                // past the next round's blacklisting is dropped).
                if self
                    .awaiting
                    .as_ref()
                    .is_some_and(|(partner, _)| partner.0 == envelope.src.0)
                => {
                    let (_, sent) = self.awaiting.take().expect("checked above");
                    node.merge(&received, &sent, &mut self.rng);
                }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        let mut node = self.node.lock().expect("gossip node poisoned");
        if token >= BRIDGE_BASE {
            // A merge-bridge reseed: learn the cross-partition peer afresh
            // so the next rounds gossip the two healed sides back into one
            // overlay. Not a round — no ageing, no round spend.
            node.bootstrap([PeerId(token - BRIDGE_BASE)]);
            return;
        }
        if let Some((partner, _)) = self.awaiting.take() {
            // The partner had the full round period to answer — the
            // contract `round_period` is sized against — so it is
            // blacklisted, exactly as CYCLOSA clients blacklist
            // unresponsive proxies.
            node.blacklist(partner);
        }
        node.increase_ages();
        if let (Some(staleness), Some(mean_age)) = (&self.staleness, mean_view_age(node.view())) {
            staleness.record(mean_age);
        }
        if let Some(partner) = node.select_partner(&mut self.rng) {
            let buffer = node.prepare_buffer(&mut self.rng);
            ctx.send(NodeId(partner.0), TAG_PUSH, encode(&buffer));
            self.awaiting = Some((partner, buffer));
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            ctx.set_timer(self.round_period, 0);
        }
    }
}

/// A gossip overlay deployed on an [`Engine`]; inspect views and quality
/// metrics after `engine.run()`, or pass a [`Registry`] to
/// [`EngineGossipOverlay::ring_with_metrics`] for a live per-round
/// staleness histogram.
#[derive(Debug)]
pub struct EngineGossipOverlay {
    handles: Vec<(PeerId, Arc<Mutex<PeerSamplingNode>>)>,
}

impl EngineGossipOverlay {
    /// Registers `count` nodes bootstrapped in a ring (node `i` initially
    /// knows only its successor) on `engine`, each initiating
    /// `config.rounds` gossip rounds. Call `engine.run()` afterwards to
    /// execute the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    pub fn ring<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        config: EngineGossipConfig,
        seed: u64,
    ) -> Self {
        Self::deploy(engine, count, config, seed, None, &[])
    }

    /// [`EngineGossipOverlay::ring`] with live observability: every node
    /// records its per-round mean view age into the
    /// `overlay.view_staleness_rounds` histogram of `registry` *while the
    /// run executes* — the [`EngineGossipOverlay::metrics`] end-of-run
    /// summary stays available on top.
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`.
    pub fn ring_with_metrics<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        config: EngineGossipConfig,
        seed: u64,
        registry: &Registry,
    ) -> Self {
        let staleness = registry.histogram("overlay.view_staleness_rounds");
        Self::deploy(engine, count, config, seed, Some(staleness), &[])
    }

    /// The naive shuffle under Sybil attack: `attack.honest` nodes
    /// bootstrapped in a ring, each also knowing one Sybil toehold, plus
    /// the attacker's identities as engine nodes that answer every push
    /// with a buffer of fresh Sybil descriptors and push-flood random
    /// honest nodes every round. Mirrors [`crate::EngineBrahmsOverlay::ring`],
    /// so both samplers face the same attack. [`EngineGossipOverlay::views`]
    /// then reports the honest population only.
    ///
    /// # Panics
    ///
    /// Panics if `attack.honest < 2`.
    pub fn ring_under_attack<E: Engine + ?Sized>(
        engine: &mut E,
        attack: SybilAttackConfig,
        config: EngineGossipConfig,
    ) -> Self {
        let overlay = Self::deploy(
            engine,
            attack.honest,
            config,
            attack.seed,
            None,
            &attack.toeholds(),
        );
        attack.deploy_sybils(
            engine,
            config.rounds,
            config.round_period,
            attack.seed,
            Poison {
                request: TAG_PUSH,
                answer: TAG_REPLY,
                push: TAG_PUSH,
                ids: config.protocol.exchange_size,
                push_carries_poison: true,
                encode: encode_fresh,
            },
        );
        overlay
    }

    /// Registers the ring; node `i` also bootstraps on `toeholds[i]` when
    /// present.
    fn deploy<E: Engine + ?Sized>(
        engine: &mut E,
        count: usize,
        config: EngineGossipConfig,
        seed: u64,
        staleness: Option<Histogram>,
        toeholds: &[PeerId],
    ) -> Self {
        assert!(count >= 2, "a gossip overlay needs at least two nodes");
        let mut handles = Vec::with_capacity(count);
        for i in 0..count {
            let id = PeerId(i as u64);
            let mut node = PeerSamplingNode::new(id, config.protocol);
            node.bootstrap([PeerId(((i + 1) % count) as u64)]);
            node.bootstrap(toeholds.get(i).copied());
            let handle = Arc::new(Mutex::new(node));
            handles.push((id, handle.clone()));
            engine.add_node(
                NodeId(id.0),
                Box::new(GossipBehavior {
                    node: handle,
                    rng: node_rng(seed, id.0),
                    rounds_left: config.rounds,
                    round_period: config.round_period,
                    staleness: staleness.clone(),
                    awaiting: None,
                }),
            );
            engine.schedule_timer(config.round_period, NodeId(id.0), 0);
        }
        Self { handles }
    }

    /// Schedules a network partition: every link between `minority` and
    /// the rest of the overlay is severed from `split_at` until `merge_at`
    /// (both directions), via the engine's link-group loss windows. No
    /// node crashes — each component keeps gossiping internally, cross
    /// references go stale and are blacklisted on silence, so views end
    /// the window side-local.
    ///
    /// **Merge healing:** gossip alone cannot re-join the components —
    /// once every cross reference has been blacklisted, neither side holds
    /// a descriptor of the other, and views only ever spread what views
    /// contain. So at `merge_at` the first `bridges` nodes of each side
    /// are re-introduced to a peer on the other side (a fresh descriptor
    /// inserted through a bridge timer — the directory-assisted re-entry
    /// of the paper's bootstrap, §V-D, applied to partition repair), and
    /// ordinary gossip spreads the re-discovered side from there. Pass
    /// `bridges: 0` to measure the unhealed case. Repair progress shows in
    /// the live staleness histogram of
    /// [`EngineGossipOverlay::ring_with_metrics`]: mean view age climbs
    /// while cross references starve and relaxes back after the merge.
    ///
    /// # Panics
    ///
    /// Panics if `merge_at <= split_at`, or `minority` is empty or covers
    /// the whole overlay.
    pub fn schedule_partition<E: Engine + ?Sized>(
        &mut self,
        engine: &mut E,
        minority: &[PeerId],
        split_at: SimTime,
        merge_at: SimTime,
        bridges: usize,
    ) {
        assert!(
            merge_at > split_at,
            "a partition must merge after it splits"
        );
        let minority_nodes: Vec<NodeId> = minority.iter().map(|p| NodeId(p.0)).collect();
        let majority: Vec<PeerId> = self
            .handles
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !minority.contains(id))
            .collect();
        assert!(
            !minority.is_empty() && !majority.is_empty(),
            "a partition needs non-empty sides"
        );
        let majority_nodes: Vec<NodeId> = majority.iter().map(|p| NodeId(p.0)).collect();
        engine.schedule_link_loss(split_at, &minority_nodes, &majority_nodes, 1.0);
        engine.schedule_link_loss(split_at, &majority_nodes, &minority_nodes, 1.0);
        engine.schedule_link_loss(merge_at, &minority_nodes, &majority_nodes, 0.0);
        engine.schedule_link_loss(merge_at, &majority_nodes, &minority_nodes, 0.0);
        for i in 0..bridges {
            let minority_bridge = minority[i % minority.len()];
            let majority_bridge = majority[i % majority.len()];
            engine.schedule_timer(
                merge_at,
                NodeId(minority_bridge.0),
                BRIDGE_BASE + majority_bridge.0,
            );
            engine.schedule_timer(
                merge_at,
                NodeId(majority_bridge.0),
                BRIDGE_BASE + minority_bridge.0,
            );
        }
    }

    /// The current `(node, view peers)` pairs of the (honest) population,
    /// sorted by node id.
    pub fn views(&self) -> Vec<(PeerId, Vec<PeerId>)> {
        self.handles
            .iter()
            .map(|(id, node)| {
                (
                    *id,
                    node.lock().expect("gossip node poisoned").view().peers(),
                )
            })
            .collect()
    }

    /// Overlay quality metrics over the population.
    pub fn metrics(&self) -> OverlayMetrics {
        overlay_metrics_from_views(&self.views())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cyclosa_net::sim::Simulation;
    use cyclosa_runtime::ShardedEngine;

    fn converged_views(
        engine: &mut dyn Engine,
        count: usize,
        seed: u64,
    ) -> Vec<(PeerId, Vec<PeerId>)> {
        let overlay = EngineGossipOverlay::ring(engine, count, EngineGossipConfig::default(), seed);
        engine.run();
        let mut views = overlay.views();
        for (_, peers) in &mut views {
            peers.sort_unstable();
        }
        views
    }

    #[test]
    fn ring_bootstrap_converges_on_the_event_engine() {
        let mut simulation = Simulation::new(8);
        let overlay =
            EngineGossipOverlay::ring(&mut simulation, 100, EngineGossipConfig::default(), 8);
        simulation.run();
        let metrics = overlay.metrics();
        assert!(metrics.connected, "overlay must stay connected");
        assert_eq!(metrics.nodes, 100);
        let mean_view: f64 = overlay
            .views()
            .iter()
            .map(|(_, v)| v.len() as f64)
            .sum::<f64>()
            / 100.0;
        assert!(mean_view > 15.0, "mean view size was {mean_view}");
        assert!(
            metrics.max_in_degree < 60,
            "max in-degree {}",
            metrics.max_in_degree
        );
    }

    #[test]
    fn sharded_overlay_is_bit_identical_to_sequential() {
        let mut sequential = Simulation::new(21);
        let expected = converged_views(&mut sequential, 60, 21);
        for shards in [2, 4] {
            let mut engine = ShardedEngine::new(21, shards);
            let observed = converged_views(&mut engine, 60, 21);
            assert_eq!(observed, expected, "views diverged with {shards} shards");
        }
    }

    /// Views holding at least one reference across the `boundary` (ids
    /// below it on one side, at or above on the other).
    fn cross_side_views(views: &[(PeerId, Vec<PeerId>)], boundary: u64) -> usize {
        views
            .iter()
            .filter(|(id, peers)| {
                let minority = id.0 < boundary;
                peers.iter().any(|p| (p.0 < boundary) != minority)
            })
            .count()
    }

    #[test]
    fn partitioned_overlay_re_merges_only_with_bridge_healing() {
        let run = |bridges: usize| {
            let mut simulation = Simulation::new(67);
            let config = EngineGossipConfig {
                rounds: 90,
                ..EngineGossipConfig::default()
            };
            let mut overlay = EngineGossipOverlay::ring(&mut simulation, 40, config, 67);
            let minority: Vec<PeerId> = (0..12).map(PeerId).collect();
            overlay.schedule_partition(
                &mut simulation,
                &minority,
                SimTime::from_secs(10),
                SimTime::from_secs(45),
                bridges,
            );
            simulation.run();
            (overlay.metrics(), overlay.views())
        };
        let (unhealed_metrics, unhealed_views) = run(0);
        let (healed_metrics, healed_views) = run(3);
        // Without bridges the sides have blacklisted each other away:
        // gossip alone cannot re-join them after the merge.
        assert!(
            !unhealed_metrics.connected,
            "an unbridged merge must stay split at the overlay level"
        );
        assert_eq!(cross_side_views(&unhealed_views, 12), 0);
        // Three bridge pairs re-introduce the sides; gossip does the rest.
        assert!(healed_metrics.connected, "bridged merge must reconnect");
        assert!(
            cross_side_views(&healed_views, 12) > 20,
            "healing must spread cross-side references well beyond the bridges ({} views)",
            cross_side_views(&healed_views, 12)
        );
        assert!(healed_metrics.dead_references < 0.05);
    }

    #[test]
    fn partition_shows_up_in_the_live_staleness_histogram() {
        let run = |partitioned: bool| {
            let mut simulation = Simulation::new(73);
            let registry = Registry::new();
            let config = EngineGossipConfig {
                rounds: 60,
                ..EngineGossipConfig::default()
            };
            let mut overlay =
                EngineGossipOverlay::ring_with_metrics(&mut simulation, 40, config, 73, &registry);
            if partitioned {
                let minority: Vec<PeerId> = (0..12).map(PeerId).collect();
                overlay.schedule_partition(
                    &mut simulation,
                    &minority,
                    SimTime::from_secs(10),
                    SimTime::from_secs(40),
                    3,
                );
            }
            simulation.run();
            let snapshot = registry.snapshot();
            let staleness = snapshot
                .histograms
                .iter()
                .find(|(name, _)| name == "overlay.view_staleness_rounds")
                .expect("staleness histogram registered")
                .1;
            (staleness, overlay.metrics())
        };
        let (calm, calm_metrics) = run(false);
        let (split, split_metrics) = run(true);
        assert!(calm_metrics.connected && split_metrics.connected);
        assert!(
            split.max > calm.max,
            "starved cross references must push view staleness up ({} vs {})",
            split.max,
            calm.max
        );
    }

    #[test]
    fn partitioned_overlay_is_bit_identical_across_engines() {
        let run = |engine: &mut dyn Engine| {
            let config = EngineGossipConfig {
                rounds: 50,
                ..EngineGossipConfig::default()
            };
            let mut overlay = EngineGossipOverlay::ring(engine, 30, config, 79);
            let minority: Vec<PeerId> = (0..9).map(PeerId).collect();
            overlay.schedule_partition(
                engine,
                &minority,
                SimTime::from_secs(8),
                SimTime::from_secs(30),
                2,
            );
            engine.run();
            let mut views = overlay.views();
            for (_, peers) in &mut views {
                peers.sort_unstable();
            }
            views
        };
        let mut sequential = Simulation::new(79);
        let expected = run(&mut sequential);
        for shards in [2, 4, 8] {
            let mut engine = ShardedEngine::new(79, shards);
            assert_eq!(
                run(&mut engine),
                expected,
                "partitioned views diverged with {shards} shards"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty sides")]
    fn partition_covering_everyone_is_rejected() {
        let mut simulation = Simulation::new(1);
        let mut overlay =
            EngineGossipOverlay::ring(&mut simulation, 4, EngineGossipConfig::default(), 1);
        let everyone: Vec<PeerId> = (0..4).map(PeerId).collect();
        overlay.schedule_partition(
            &mut simulation,
            &everyone,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            1,
        );
    }

    #[test]
    fn random_peer_draws_spread_load() {
        // Draw relay sets from one node's view after every round of a
        // converged overlay and check they cover a large fraction of the
        // population over time (the load-balancing property CYCLOSA
        // relies on).
        let mut simulation = Simulation::new(11);
        let config = EngineGossipConfig {
            rounds: 230,
            ..EngineGossipConfig::default()
        };
        let overlay = EngineGossipOverlay::ring(&mut simulation, 50, config, 11);
        simulation.run_until(SimTime::from_secs(30));
        let (_, node) = &overlay.handles[0];
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut seen = BTreeSet::new();
        for round in 31..=230 {
            simulation.run_until(SimTime::from_secs(round));
            let peers = node
                .lock()
                .expect("node poisoned")
                .random_peers(&mut rng, 4);
            seen.extend(peers);
        }
        assert!(seen.len() > 35, "only {} distinct relays seen", seen.len());
    }

    #[test]
    fn metrics_on_tiny_overlay() {
        let mut simulation = Simulation::new(1);
        let overlay =
            EngineGossipOverlay::ring(&mut simulation, 2, EngineGossipConfig::default(), 1);
        let metrics = overlay.metrics();
        assert_eq!(metrics.nodes, 2);
        assert!(metrics.connected);
    }

    #[test]
    fn metrics_count_absent_peers_as_dead_and_detect_splits() {
        let views = vec![
            (PeerId(0), vec![PeerId(1), PeerId(9)]),
            (PeerId(1), vec![PeerId(0)]),
            (PeerId(2), vec![PeerId(3)]),
            (PeerId(3), vec![PeerId(9), PeerId(9)]),
        ];
        let metrics = overlay_metrics_from_views(&views);
        assert_eq!(metrics.nodes, 4);
        assert!(!metrics.connected, "{{0, 1}} and {{2, 3}} never meet");
        assert_eq!(metrics.dead_references, 0.5);
        assert_eq!(metrics.max_in_degree, 1);
        assert_eq!(metrics.mean_in_degree, 0.75);
    }

    #[test]
    fn wire_format_round_trips() {
        let buffer = ExchangeBuffer {
            descriptors: vec![
                Descriptor {
                    peer: PeerId(7),
                    age: 3,
                },
                Descriptor {
                    peer: PeerId(u64::MAX),
                    age: u32::MAX,
                },
            ],
        };
        assert_eq!(decode(&encode(&buffer)), Some(buffer));
        assert_eq!(decode(&[1, 2, 3]), None);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_overlay_is_rejected() {
        let mut simulation = Simulation::new(1);
        let _ = EngineGossipOverlay::ring(&mut simulation, 1, EngineGossipConfig::default(), 1);
    }
}
