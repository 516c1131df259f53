//! The `gossip-2shards` workload: a `SwimGossipOverlay::ring` of 10 000
//! nodes on a `ShardedEngine`, where a random 20 % minority is cut off
//! and later merges back with no bridge peers.

use crate::metrics::{fingerprint, ratio, Layers};
use crate::probe::{mark, now, runtime_values, since, Probe, Slot, TimedEngine};
use crate::{Iteration, Workload};
use cyclosa_net::engine::Engine;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{MembershipConfig, PeerId, SwimGossipOverlay};
use cyclosa_runtime::{Registry, ShardedEngine};
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};

/// Overlay size.
pub const NODES: usize = 10_000;
/// Share of the nodes on the minority side of the partition.
const MINORITY_FRACTION: f64 = 0.2;
/// Protocol rounds of 2 s each node runs: 28 s of simulated time, about
/// 3.6 s of wall time on two shards of a 2-core x86-64 host.
const ROUNDS: usize = 14;
/// When the partition splits and merges, in simulated seconds. At 10 000
/// nodes the overlay is disconnected by the merge and reconnects within
/// a round; the 12 s after it let the views re-knit.
const SPLIT_AT_S: u64 = 2;
const MERGE_AT_S: u64 = 16;
/// RNG stream label of the minority draw.
const MINORITY_STREAM: u64 = 0x0060_551B;

/// The gossip workload.
pub struct Gossip {
    seed: u64,
    shards: usize,
    nodes: usize,
    minority: Vec<PeerId>,
}

impl Gossip {
    /// The workload for `seed` on `shards` shards.
    pub fn new(seed: u64, shards: usize) -> Self {
        Self::with_nodes(seed, shards, NODES)
    }

    /// [`Gossip::new`] with a different overlay size (used by tests).
    pub fn with_nodes(seed: u64, shards: usize, nodes: usize) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed ^ MINORITY_STREAM);
        let count = ((nodes as f64 * MINORITY_FRACTION) as usize).max(1);
        let mut minority: Vec<PeerId> = rng
            .sample_indices(nodes, count)
            .into_iter()
            .map(|i| PeerId(i as u64))
            .collect();
        minority.sort_unstable();
        Self {
            seed,
            shards,
            nodes,
            minority,
        }
    }
}

impl Workload for Gossip {
    fn iterate(&mut self, traced: bool) -> Iteration {
        let started = mark();
        let registry = Registry::new();
        let probe = traced.then(|| Probe::sharded(&registry, self.shards));
        let mut engine = ShardedEngine::new(self.seed, self.shards);
        if traced {
            engine.enable_profiling(&registry);
        }
        let classify = |_| Slot::Membership;
        let mut timed = TimedEngine::new(&mut engine, probe.as_ref(), &classify, started);
        let deploy = now();
        let config = MembershipConfig {
            rounds: ROUNDS,
            ..MembershipConfig::default()
        };
        let mut overlay = SwimGossipOverlay::ring(&mut timed, self.nodes, config, self.seed);
        let deploy_s = since(deploy);
        overlay.schedule_partition(
            &mut timed,
            &self.minority,
            SimTime::from_secs(SPLIT_AT_S),
            SimTime::from_secs(MERGE_AT_S),
        );
        timed.run();
        let run = timed.engine_run();

        let metrics = overlay.metrics();
        let staleness = overlay.mean_staleness(timed.now());
        let stats = timed.stats();
        let mut failures = Vec::new();
        if !metrics.connected {
            failures.push("overlay still partitioned after the merge".to_owned());
        }
        let outcome = vec![
            ("net.events", run.events as f64),
            ("net.delivered", stats.delivered as f64),
            ("peer_sampling.messages", stats.delivered as f64),
            ("peer_sampling.dead_ref_fraction", metrics.dead_references),
            ("peer_sampling.view_staleness_s", staleness),
        ];
        let layers: Layers = match &probe {
            None => Vec::new(),
            Some(probe) => {
                let totals = probe.totals();
                let membership = totals.slot(Slot::Membership);
                failures.extend(totals.missed_callbacks(&stats));
                let calls = membership.calls as f64;
                let mut layers = vec![
                    ("peer_sampling.callback_s", membership.seconds),
                    (
                        "peer_sampling.ns_per_callback",
                        ratio(membership.seconds * 1e9, calls),
                    ),
                    (
                        "peer_sampling.allocs_per_callback",
                        ratio(membership.allocs as f64, calls),
                    ),
                    ("peer_sampling.deploy_s", deploy_s),
                    (
                        "trace.unattributed_share",
                        totals.unattributed_share(self.shards as f64 * run.run_s),
                    ),
                ];
                layers.extend(runtime_values(&totals, &run, self.shards, &registry));
                layers
            }
        };
        Iteration {
            setup_cpu_s: run.setup_cpu_s,
            run_s: run.run_s,
            run_cpu_s: run.run_cpu_s,
            ops: self.nodes as u64,
            failures,
            fingerprint: fingerprint(&format!(
                "{stats:?} {metrics:?} {staleness} {:?}",
                overlay.views()
            )),
            outcome,
            layers,
        }
    }
}
