//! Sybil injection against the peer samplers, with the attacker running as
//! engine nodes.
//!
//! The attacker mints `f · N` identities and plays them against the
//! population: sybils answer every exchange with a message of exclusively
//! *fresh* sybil ids and additionally push-flood honest nodes every round.
//! The Jelasity-style shuffle merges whatever it receives — its only
//! defenses are age-based healing and random truncation, both of which the
//! attacker satisfies trivially by minting fresh descriptors — so honest
//! views drift towards the attacker until relay selection is effectively
//! attacker-chosen ([`crate::EngineGossipOverlay::ring_under_attack`]).
//! The evaluated defense is the Brahms sampler in [`crate::brahms`]
//! ([`crate::EngineBrahmsOverlay::ring`]).
//!
//! Both deployments take one [`SybilAttackConfig`], and the attacker's
//! identity set, toehold draw and flood cadence all come from here, so the
//! two poisoning curves measure the same attack. Each sampler supplies
//! only how its wire protocol carries poison.

use crate::node_rng;
use crate::view::PeerId;
use cyclosa_net::engine::Engine;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_util::rng::{Rng, Xoshiro256StarStar};
use std::sync::Arc;

/// Identifier floor of attacker-minted identities: any peer id at or
/// above this is a sybil. Honest populations stay far below it.
pub const SYBIL_BASE: u64 = 1 << 32;

/// Stream salt of the toehold draw.
const TOEHOLD_STREAM: u64 = 0xB4A5;

/// Whether `peer` is an attacker-minted identity.
pub fn is_sybil(peer: PeerId) -> bool {
    peer.0 >= SYBIL_BASE
}

/// The mean fraction of attacker entries across honest views — the
/// poisoning metric both the naive and the Brahms experiment report.
pub fn sybil_view_fraction(views: &[(PeerId, Vec<PeerId>)]) -> f64 {
    let mut total = 0usize;
    let mut hostile = 0usize;
    for (_, view) in views {
        total += view.len();
        hostile += view.iter().filter(|p| is_sybil(**p)).count();
    }
    if total == 0 {
        0.0
    } else {
        hostile as f64 / total as f64
    }
}

/// One Sybil attack scenario, shared by the naive and the Brahms
/// experiment so their poisoning curves are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SybilAttackConfig {
    /// Honest population size `N`.
    pub honest: usize,
    /// Attacker identity budget as a fraction of `N` (`round(f · N)`
    /// sybils are minted).
    pub fraction: f64,
    /// Push-flood rate: honest nodes each sybil pushes to per round.
    pub pushes_per_sybil: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl Default for SybilAttackConfig {
    fn default() -> Self {
        Self {
            honest: 100,
            fraction: 0.2,
            pushes_per_sybil: 2,
            seed: 2018,
        }
    }
}

impl SybilAttackConfig {
    /// The minted sybil identities, id-sorted.
    pub fn sybils(&self) -> Vec<PeerId> {
        assert!(
            (0.0..=1.0).contains(&self.fraction),
            "sybil fraction must be in [0, 1]"
        );
        let count = (self.honest as f64 * self.fraction).round() as usize;
        (0..count as u64).map(|i| PeerId(SYBIL_BASE + i)).collect()
    }

    /// The one sybil each honest node `i` finds in its bootstrap view
    /// (`toeholds()[i]`; empty for a zero budget). The attacker needs only
    /// this toehold — a directory entry, one gossip exchange — and the
    /// poisoning does the rest.
    pub(crate) fn toeholds(&self) -> Vec<PeerId> {
        let sybils = self.sybils();
        if sybils.is_empty() {
            return Vec::new();
        }
        let mut rng = Xoshiro256StarStar::seed_from_u64(self.seed ^ TOEHOLD_STREAM);
        (0..self.honest)
            .map(|_| sybils[rng.gen_index(sybils.len())])
            .collect()
    }

    /// Registers every sybil on `engine` as a [`SybilBehavior`] flooding
    /// for `rounds` rounds of `round_period`; sybil `s` draws from
    /// `node_rng(node_seed, s)`.
    pub(crate) fn deploy_sybils<E: Engine + ?Sized>(
        &self,
        engine: &mut E,
        rounds: usize,
        round_period: SimTime,
        node_seed: u64,
        poison: Poison,
    ) {
        let sybils: Arc<[PeerId]> = self.sybils().into();
        for &sybil in sybils.iter() {
            engine.add_node(
                NodeId(sybil.0),
                Box::new(SybilBehavior {
                    sybils: sybils.clone(),
                    honest: self.honest,
                    pushes_per_round: self.pushes_per_sybil,
                    rng: node_rng(node_seed, sybil.0),
                    rounds_left: rounds,
                    round_period,
                    poison,
                }),
            );
            engine.schedule_timer(round_period, NodeId(sybil.0), 0);
        }
    }
}

/// How one sampler's wire protocol carries poison.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Poison {
    /// Tag of the honest request a sybil answers with poison.
    pub(crate) request: u32,
    /// Tag of that poisoned answer.
    pub(crate) answer: u32,
    /// Tag of a flood push.
    pub(crate) push: u32,
    /// Sybil ids per poisoned message (capped at the identity budget).
    pub(crate) ids: usize,
    /// Whether a flood push carries a poisoned message (the shuffle merges
    /// pushed buffers) or only the sender's identity (Brahms counts the
    /// push itself).
    pub(crate) push_carries_poison: bool,
    /// Encodes sampled sybil ids as a message payload.
    pub(crate) encode: fn(&[PeerId]) -> Vec<u8>,
}

/// One attacker identity on the engine: answers every request with
/// poison and push-floods `pushes_per_round` random honest nodes (ids
/// `0..honest`) every round.
struct SybilBehavior {
    sybils: Arc<[PeerId]>,
    honest: usize,
    pushes_per_round: usize,
    rng: Xoshiro256StarStar,
    rounds_left: usize,
    round_period: SimTime,
    poison: Poison,
}

impl SybilBehavior {
    fn poisoned(&mut self) -> Vec<u8> {
        let picks = self.rng.sample_indices(self.sybils.len(), self.poison.ids);
        let ids: Vec<PeerId> = picks.into_iter().map(|i| self.sybils[i]).collect();
        (self.poison.encode)(&ids)
    }
}

impl NodeBehavior for SybilBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        // Everything but a request (pushes, replies to the flood) is
        // silently absorbed.
        if envelope.tag == self.poison.request {
            let payload = self.poisoned();
            ctx.send(envelope.src, self.poison.answer, payload);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _token: u64) {
        for _ in 0..self.pushes_per_round {
            let target = NodeId(self.rng.gen_index(self.honest) as u64);
            let payload = if self.poison.push_carries_poison {
                self.poisoned()
            } else {
                Vec::new()
            };
            ctx.send(target, self.poison.push, payload);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
        if self.rounds_left > 0 {
            ctx.set_timer(self.round_period, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlay::{overlay_metrics_from_views, EngineGossipConfig, EngineGossipOverlay};
    use cyclosa_net::sim::Simulation;

    type Views = Vec<(PeerId, Vec<PeerId>)>;

    /// The naive shuffle under `attack`, with the honest views at
    /// bootstrap and after `rounds` rounds of 1 s.
    fn naive_views(attack: SybilAttackConfig, rounds: usize) -> (Views, Views) {
        let mut engine = Simulation::new(attack.seed);
        let config = EngineGossipConfig {
            rounds,
            ..EngineGossipConfig::default()
        };
        let overlay = EngineGossipOverlay::ring_under_attack(&mut engine, attack, config);
        let bootstrap = overlay.views();
        engine.run();
        (bootstrap, overlay.views())
    }

    #[test]
    fn sybil_identities_are_recognizable_and_proportional() {
        let attack = SybilAttackConfig {
            honest: 50,
            fraction: 0.2,
            ..SybilAttackConfig::default()
        };
        let sybils = attack.sybils();
        assert_eq!(sybils.len(), 10);
        assert!(sybils.iter().all(|s| is_sybil(*s)));
        assert!(!is_sybil(PeerId(49)));
        let toeholds = attack.toeholds();
        assert_eq!(toeholds.len(), 50, "one toehold per honest node");
        assert!(toeholds.iter().all(|s| sybils.contains(s)));
    }

    #[test]
    fn naive_shuffle_views_drift_towards_the_attacker() {
        let attack = SybilAttackConfig::default(); // f = 0.2
        let (bootstrap, poisoned) = naive_views(attack, 50);
        // Bootstrap views hold one honest successor plus the one-sybil
        // toehold; the shuffle is what amplifies the toehold from there.
        let bootstrap = sybil_view_fraction(&bootstrap);
        assert!(bootstrap <= 0.5, "bootstrap holds only the toehold");
        let fraction = sybil_view_fraction(&poisoned);
        assert!(
            fraction > bootstrap && fraction > 0.5,
            "a 20% identity budget must capture most naive view slots, got {fraction}"
        );
    }

    #[test]
    fn poisoning_is_deterministic_per_seed() {
        let attack = SybilAttackConfig::default();
        let run = |seed| naive_views(SybilAttackConfig { seed, ..attack }, 30).1;
        assert_eq!(run(7), run(7), "same seed, same poisoned views");
        assert_ne!(run(7), run(8), "the seed must matter");
    }

    #[test]
    fn zero_budget_attacker_changes_nothing() {
        let attack = SybilAttackConfig {
            fraction: 0.0,
            ..SybilAttackConfig::default()
        };
        let (_, views) = naive_views(attack, 30);
        assert_eq!(sybil_view_fraction(&views), 0.0);
        let metrics = overlay_metrics_from_views(&views);
        assert!(metrics.connected, "the honest overlay must still converge");
        let mut engine = Simulation::new(attack.seed);
        let config = EngineGossipConfig {
            rounds: 30,
            ..EngineGossipConfig::default()
        };
        let plain = EngineGossipOverlay::ring(&mut engine, attack.honest, config, attack.seed);
        engine.run();
        assert_eq!(views, plain.views(), "no sybil, no toehold, no change");
    }
}
