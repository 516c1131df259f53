//! The benchmark's own checks on small inputs: per-layer attribution
//! closes, deterministic counters repeat exactly, traced runs reproduce
//! untraced outcomes, the privacy orchestration is Fig. 5, and the metric
//! catalogue is the one `BENCHMARK.json` declares.

use cyclosa_bench::{fig5, ExperimentScale, ExperimentSetup, PRIVACY_K};
use cyclosa_telemetry::check::parse_json;
use cyclosa_util::json::Json;
use perfbench::alloc::Counting;
use perfbench::gossip::Gossip;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::privacy::{self, Privacy};
use perfbench::soak::Soak;
use perfbench::{Iteration, Workload, UNATTRIBUTED_TOLERANCE};
use std::sync::Mutex;

fn value(iteration: &Iteration, name: &str) -> f64 {
    iteration
        .layers
        .iter()
        .chain(&iteration.outcome)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .1
}

/// Timing tests run one at a time: a shard thread kept waiting for a core
/// by a concurrent test would show up as unattributed time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Two traced iterations and one untraced one, all checked clean.
fn traced_twice(workload: &mut dyn Workload) -> (Iteration, Iteration) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let untraced = workload.iterate(false);
    let (first, second) = {
        let _counting = Counting::on();
        (workload.iterate(true), workload.iterate(true))
    };
    for iteration in [&untraced, &first, &second] {
        assert!(iteration.failures.is_empty(), "{:?}", iteration.failures);
        assert_eq!(
            iteration.fingerprint, untraced.fingerprint,
            "tracing changed the outcome"
        );
    }
    for iteration in [&first, &second] {
        let unattributed = value(iteration, "trace.unattributed_share");
        assert!(
            (0.0..=UNATTRIBUTED_TOLERANCE).contains(&unattributed),
            "attribution does not close: {unattributed} of the run unattributed"
        );
    }
    (first, second)
}

fn assert_repeat(first: &Iteration, second: &Iteration, names: &[&str]) {
    for name in names {
        assert_eq!(
            value(first, name),
            value(second, name),
            "{name} did not repeat"
        );
        assert!(value(first, name) > 0.0, "{name} is zero");
    }
}

#[test]
fn sequential_soak_attribution_closes_and_counters_repeat() {
    let (first, second) = traced_twice(&mut Soak::with_queries(3, None, 2_000));
    // Engine-loop allocations, callback allocations and the protocol's
    // counters are properties of the program, not of the clock.
    assert_repeat(
        &first,
        &second,
        &[
            "net.events",
            "net.delivered",
            "net.allocs_per_event",
            "chaos.allocs_per_callback",
            "chaos.retries",
            "chaos.peak_inflight",
        ],
    );
    let layer_s = value(&first, "chaos.client_s")
        + value(&first, "chaos.relay_s")
        + value(&first, "chaos.engine_node_s");
    assert!(layer_s > 0.0 && value(&first, "net.self_s") > 0.0);
}

#[test]
fn sharded_soak_matches_sequential_and_reports_the_runtime_layer() {
    // Large enough that the drain at the end of the horizon, when one
    // shard's thread waits at barriers after its last callback, stays a
    // small share of the run.
    let sequential = Soak::with_queries(5, None, 6_000).iterate(false);
    let (first, second) = traced_twice(&mut Soak::with_queries(5, Some(2), 6_000));
    assert_eq!(first.fingerprint, sequential.fingerprint);
    assert_repeat(
        &first,
        &second,
        &[
            "net.events",
            "net.delivered",
            "chaos.retries",
            "runtime.shard_imbalance",
        ],
    );
    for name in [
        "runtime.barrier_waits",
        "runtime.barrier_stall_s",
        "runtime.stall_share",
    ] {
        assert!(value(&first, name) > 0.0, "{name} is zero");
    }
    assert!(value(&first, "runtime.stall_share") < 1.0);
}

#[test]
fn gossip_heals_and_attribution_closes() {
    let (first, second) = traced_twice(&mut Gossip::with_nodes(9, 2, 300));
    assert_repeat(&first, &second, &["net.events", "peer_sampling.messages"]);
    assert!(value(&first, "peer_sampling.callback_s") > 0.0);
}

#[test]
fn privacy_orchestration_is_fig5() {
    let setup = ExperimentSetup::new(ExperimentScale::Small, privacy::FIXTURE_SEED);
    let expected: Vec<(String, f64, usize)> = fig5(&setup, PRIVACY_K)
        .rows
        .into_iter()
        .map(|row| (row.mechanism, row.rate_percent, row.denominator))
        .collect();
    // `fig5`'s own protection streams.
    let streams = |setup: &ExperimentSetup, label| setup.rng(0xF15 ^ label);
    let rows = privacy::evaluate(ExperimentScale::Small, &streams, None).rows;
    assert_eq!(rows, expected);
}

#[test]
fn privacy_attribution_closes_and_counters_repeat() {
    let mut workload = Privacy::with_scale(11, ExperimentScale::Small);
    let (first, second) = traced_twice(&mut workload);
    assert_repeat(
        &first,
        &second,
        &[
            "attack.requests",
            "attack.allocs_per_request",
            "core.fakes_per_query",
        ],
    );
    assert!(value(&first, "attack.s") > 0.0 && value(&first, "core.protect_s") > 0.0);
}

fn field<'a>(object: &'a Json, key: &str) -> &'a Json {
    match object {
        Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
        other => panic!("expected an object holding {key}, got {other:?}"),
    }
}

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    let Json::Arr(items) = list else {
        panic!("expected an array")
    };
    items
        .iter()
        .map(|item| match (field(item, "name"), field(item, "unit")) {
            (Json::Str(name), Json::Str(unit)) => (name.clone(), unit.clone()),
            other => panic!("bad metric entry {other:?}"),
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let spec = parse_json(&text).expect("BENCHMARK.json parses");
    let catalogue = |defs: &[perfbench::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    };
    assert_eq!(
        names_and_units(field(&spec, "end_to_end")),
        catalogue(END_TO_END)
    );
    assert_eq!(
        names_and_units(field(&spec, "per_layer")),
        catalogue(PER_LAYER)
    );
    let Json::Arr(workloads) = field(&spec, "workloads") else {
        panic!("workloads is not an array")
    };
    for workload in workloads {
        let Json::Str(name) = field(workload, "name") else {
            panic!("workload name is not a string")
        };
        let line = [
            "--workload",
            name,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ];
        assert!(
            perfbench::cli::parse(line).is_ok(),
            "unknown workload {name}"
        );
    }
}
