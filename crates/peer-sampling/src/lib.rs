//! Gossip-based random peer sampling for CYCLOSA's peer discovery.
//!
//! Paper §V-E: "the selection and maintenance of random views is using the
//! random-peer-sampling protocol \[Jelasity et al., 2007\] which ensures
//! connectivity between nodes by building and maintaining a continuously
//! changing random topology."
//!
//! This crate implements that protocol family. Every protocol runs over
//! simulated network messages on any `cyclosa_net::engine::Engine`,
//! including the sharded parallel engine of `cyclosa-runtime`, and a run
//! is bit-identical for any shard count:
//!
//! * [`View`] — a bounded partial view of node descriptors with ages;
//! * [`PeerSamplingNode`] — one protocol participant with the standard
//!   policies (peer selection, view propagation, healer/swapper merging);
//! * [`EngineGossipOverlay`] — the shuffle protocol deployed on an engine,
//!   with a live view-staleness histogram, network partitions with
//!   directory-assisted merge healing
//!   ([`EngineGossipOverlay::schedule_partition`]) and overlay-quality
//!   metrics ([`OverlayMetrics`]: connectivity, in-degree balance);
//! * [`SwimGossipOverlay`] — protocol-native membership on the same
//!   engines: SWIM failure detection ([`FailureDetector`]: probe /
//!   indirect probe / suspect / incarnation-numbered refutation) over
//!   HyParView active/passive views ([`PartialViews`]), with quarantined
//!   descriptors re-probed so partition merges heal with **zero**
//!   directory-assisted bridges, and per-observer membership timelines
//!   exported as `mship.*` telemetry spans.
//! * [`sybil`] — the active adversary: an attacker minting `f · N`
//!   identities that run as engine nodes, push-flood honest nodes and
//!   answer exchanges with poisoned messages. It is deployed against the
//!   naive shuffle ([`EngineGossipOverlay::ring_under_attack`]) and
//!   against the defense below, so both poisoning curves come from the
//!   same attack.
//! * [`EngineBrahmsOverlay`] — the evaluated defense: Brahms
//!   byzantine-resilient sampling (push quotas voiding flooded rounds,
//!   min-wise independent samplers anchoring views to the full
//!   observation history).
//!
//! CYCLOSA uses the resulting random views for two purposes: selecting the
//! `k + 1` relays of each query (load balancing falls out of view
//! randomness) and bootstrapping attestation-gated channels to fresh peers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brahms;
pub mod hyparview;
pub mod membership;
pub mod node;
pub mod overlay;
pub mod swim;
pub mod sybil;
pub mod view;

pub use brahms::{BrahmsConfig, BrahmsNode, EngineBrahmsOverlay, MinWiseSampler};
pub use hyparview::{HyParViewConfig, PartialViews};
pub use membership::{MembershipConfig, SwimGossipOverlay, MEMBERSHIP_EVENT_NAMES};
pub use node::{ExchangeBuffer, PeerSamplingConfig, PeerSamplingNode, SelectionPolicy};
pub use overlay::{
    overlay_metrics_from_views, EngineGossipConfig, EngineGossipOverlay, OverlayMetrics,
};
pub use swim::{FailureDetector, MemberState, MembershipEvent, MembershipEventKind, SwimRumor};
pub use sybil::{is_sybil, sybil_view_fraction, SybilAttackConfig, SYBIL_BASE};
pub use view::{Descriptor, PeerId, View};

use cyclosa_util::rng::{Rng, SplitMix64, Xoshiro256StarStar};

/// The RNG stream of one engine participant: a pure function of
/// `(seed, node id)`, so a run never depends on which shard hosts the node
/// or in which order nodes are registered.
pub(crate) fn node_rng(seed: u64, id: u64) -> Xoshiro256StarStar {
    let mut sm = SplitMix64::new(seed);
    Xoshiro256StarStar::seed_from_u64(sm.next_u64() ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}
