//! The trace-determinism suite: observability must be a pure read-out.
//!
//! Two properties are pinned here, across the sequential simulator and
//! the sharded engine at 1/2/4/8 shards:
//!
//! 1. **Zero perturbation** — a traced run's outcome (`ChurnOutcome`
//!    ledger, latencies, stats) is bit-identical to the untraced run of
//!    the same seed. Tracing draws no randomness and feeds nothing back.
//! 2. **Deterministic merge** — the exported JSONL timeline is
//!    byte-identical whatever the engine or shard count: events are
//!    merged by `(sim-time, actor)` with per-actor emission order
//!    preserved, so thread interleaving never shows through.
//!
//! On top, the merged timeline must actually tell the causal story: a
//! heavy-churn run contains at least one `query.repair` annotated
//! `fault_injected: true` — the client healing a relay the fault plan
//! killed — and the schema checks accept both export formats.

use cyclosa::deployment::{run_end_to_end_latency_observed_on, DeploymentMetrics, EndToEndConfig};
use cyclosa_chaos::experiment::{
    run_churn_experiment, run_churn_experiment_on, ChurnConfig, ChurnOutcome, ChurnTelemetry,
};
use cyclosa_chaos::ChaosPlan;
use cyclosa_net::sim::Simulation;
use cyclosa_runtime::metrics::Registry;
use cyclosa_runtime::ShardedEngine;
use cyclosa_telemetry::check::{validate_chrome_trace, validate_trace_jsonl};
use cyclosa_telemetry::export::{to_chrome_trace, to_jsonl};
use cyclosa_telemetry::{AttrValue, TraceSink};

/// A churn configuration heavy enough to force retries and top-ups.
fn stormy() -> ChurnConfig {
    ChurnConfig {
        relays: 20,
        k: 3,
        queries: 40,
        failure_rate: 0.4,
        adaptive: true,
        ..ChurnConfig::default()
    }
}

fn telemetry() -> ChurnTelemetry {
    ChurnTelemetry {
        trace: TraceSink::enabled(),
        metrics: Some(Registry::new()),
    }
}

/// The churn run on the sequential simulator.
fn sequential_run(config: &ChurnConfig, telemetry: &ChurnTelemetry) -> ChurnOutcome {
    run_churn_experiment_on(
        &mut Simulation::new(config.seed),
        config,
        &ChaosPlan::new(),
        telemetry,
    )
}

/// The churn run on the sharded engine, with the trace sink installed
/// (merged at every window barrier) and, given a registry, per-shard
/// profiling enabled.
fn sharded_run(config: &ChurnConfig, shards: usize, telemetry: &ChurnTelemetry) -> ChurnOutcome {
    let mut engine = ShardedEngine::new(config.seed, shards);
    engine.set_trace_sink(telemetry.trace.clone());
    if let Some(registry) = &telemetry.metrics {
        engine.enable_profiling(registry);
    }
    run_churn_experiment_on(&mut engine, config, &ChaosPlan::new(), telemetry)
}

#[test]
fn traced_churn_outcome_is_bit_identical_across_engines_and_shards() {
    let config = stormy();
    let untraced = run_churn_experiment(&config);
    assert!(untraced.retries > 0, "storm must exercise the retry path");

    let sequential = telemetry();
    assert_eq!(
        sequential_run(&config, &sequential),
        untraced,
        "sequential tracing perturbed the run"
    );
    for shards in [1, 2, 4, 8] {
        assert_eq!(
            sharded_run(&config, shards, &ChurnTelemetry::default()),
            untraced,
            "untraced sharded run diverged at {shards} shards"
        );
        let observed = telemetry();
        assert_eq!(
            sharded_run(&config, shards, &observed),
            untraced,
            "traced sharded run diverged at {shards} shards"
        );
    }
}

#[test]
fn merged_jsonl_trace_is_byte_identical_across_shard_counts() {
    let config = stormy();
    let reference = telemetry();
    sequential_run(&config, &reference);
    let expected = to_jsonl(&reference.trace.events());
    assert!(!expected.is_empty(), "the storm must produce a timeline");

    for shards in [1, 2, 4, 8] {
        let observed = telemetry();
        sharded_run(&config, shards, &observed);
        let jsonl = to_jsonl(&observed.trace.events());
        assert_eq!(
            jsonl, expected,
            "JSONL trace bytes diverged at {shards} shards"
        );
    }
}

#[test]
fn storm_timeline_contains_a_fault_annotated_repair_and_validates() {
    let config = stormy();
    let observed = telemetry();
    sharded_run(&config, 4, &observed);
    let events = observed.trace.events();

    let repair = events
        .iter()
        .find(|e| {
            e.name == "query.repair" && e.attrs.contains(&("fault_injected", AttrValue::Bool(true)))
        })
        .expect("a query must repair around an injected fault");
    assert!(repair.query.is_some(), "repairs carry their query sequence");
    assert!(
        events.iter().any(|e| e.name == "fault.leave"),
        "injected faults must be annotated on the timeline"
    );
    assert!(
        events
            .iter()
            .any(|e| e.name == "query.answered" && e.dur.is_some()),
        "answered queries appear as latency spans"
    );

    // Both export formats pass the parser-backed schema checks.
    let jsonl = to_jsonl(&events);
    assert_eq!(
        validate_trace_jsonl(&jsonl).expect("valid JSONL"),
        events.len()
    );
    let chrome = to_chrome_trace(&events);
    assert_eq!(
        validate_chrome_trace(&chrome).expect("valid Chrome trace"),
        events.len()
    );

    // The metrics registry surfaces the clamped-sample counter (zero on
    // a healthy run) and the engine's per-shard profiling.
    let snapshot = observed.metrics.expect("registry installed").snapshot();
    assert!(snapshot
        .counters
        .contains(&("client.clamped_samples".to_owned(), 0)));
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name.starts_with("engine.shard") && *value > 0),
        "sharded observed runs record engine self-profiling"
    );
}

#[test]
fn traced_deployment_latencies_match_untraced_and_trace_is_stable() {
    let config = EndToEndConfig {
        relays: 20,
        queries: 30,
        ..EndToEndConfig::default()
    };
    let mut plain_engine = Simulation::new(config.seed);
    let plain = cyclosa::deployment::run_end_to_end_latency_on(
        &mut plain_engine,
        &config,
        &DeploymentMetrics::detached(),
    );

    let mut reference: Option<String> = None;
    for shards in [1, 2, 4] {
        let mut engine = cyclosa_runtime::ShardedEngine::new(config.seed, shards);
        let sink = TraceSink::enabled();
        engine.set_trace_sink(sink.clone());
        let traced = run_end_to_end_latency_observed_on(
            &mut engine,
            &config,
            &DeploymentMetrics::detached(),
            &sink,
        );
        assert_eq!(traced, plain, "tracing perturbed the deployment");
        let jsonl = to_jsonl(&sink.events());
        assert!(jsonl.contains("query.launch"));
        match &reference {
            None => reference = Some(jsonl),
            Some(expected) => assert_eq!(
                &jsonl, expected,
                "deployment trace bytes diverged at {shards} shards"
            ),
        }
    }
}
