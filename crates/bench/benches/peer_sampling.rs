//! Benchmarks of the gossip-based peer sampling protocol (cost of one
//! round period of a mid-sized shuffle overlay on the sequential engine).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use cyclosa_net::sim::Simulation;
use cyclosa_net::time::SimTime;
use cyclosa_peer_sampling::{EngineGossipConfig, EngineGossipOverlay};

fn bench_peer_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("peer_sampling");
    group.bench_function("gossip_round_200_nodes", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulation::new(3);
                let config = EngineGossipConfig {
                    rounds: 10,
                    ..EngineGossipConfig::default()
                };
                let overlay = EngineGossipOverlay::ring(&mut sim, 200, config, 3);
                // Five warm-up rounds fire at t = 1..5 s.
                sim.run_until(SimTime::from_secs(5));
                (sim, overlay)
            },
            |(mut sim, overlay)| {
                sim.run_until(SimTime::from_secs(6));
                (sim, overlay)
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_peer_sampling);
criterion_main!(benches);
