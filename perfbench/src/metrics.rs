//! The metric catalogue (kept equal to `BENCHMARK.json` by a test) and the
//! statistics the report is built from.

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed and as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics of the untraced run (`--trace 0`), reported by every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("run_cpu_s", "s"),
    def("peak_rss_mib", "MiB"),
    def("ok_fraction", "fraction"),
];

/// Metrics of the traced run (`--trace 1`). A workload that does not run
/// a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    def("net.events", "count"),
    def("net.delivered", "count"),
    def("net.self_s", "s"),
    def("net.ns_per_event", "ns"),
    def("net.allocs_per_event", "count"),
    def("runtime.barrier_waits", "count"),
    def("runtime.barrier_stall_s", "s"),
    def("runtime.stall_share", "fraction"),
    def("runtime.events_per_wait", "count"),
    def("runtime.shard_imbalance", "ratio"),
    def("runtime.mailbox_depth_max", "count"),
    def("runtime.self_s", "s"),
    def("chaos.client_s", "s"),
    def("chaos.relay_s", "s"),
    def("chaos.engine_node_s", "s"),
    def("chaos.ns_per_callback", "ns"),
    def("chaos.allocs_per_callback", "count"),
    def("chaos.retries", "count"),
    def("chaos.fakes_topped_up", "count"),
    def("chaos.peak_inflight", "count"),
    def("chaos.peak_resident_bytes", "B"),
    def("chaos.sim_latency_mean_s", "s"),
    def("chaos.sim_latency_max_s", "s"),
    def("chaos.under_k_fraction", "fraction"),
    def("peer_sampling.callback_s", "s"),
    def("peer_sampling.ns_per_callback", "ns"),
    def("peer_sampling.allocs_per_callback", "count"),
    def("peer_sampling.messages", "count"),
    def("peer_sampling.deploy_s", "s"),
    def("peer_sampling.dead_ref_fraction", "fraction"),
    def("peer_sampling.view_staleness_s", "s"),
    def("core.protect_s", "s"),
    def("core.ns_per_query", "ns"),
    def("core.fakes_per_query", "count"),
    def("core.build_s", "s"),
    def("baselines.protect_s", "s"),
    def("attack.s", "s"),
    def("attack.run_share", "fraction"),
    def("attack.requests", "count"),
    def("attack.ns_per_request", "ns"),
    def("attack.allocs_per_request", "count"),
    def("attack.index_build_s", "s"),
    def("attack.reid_cyclosa_pct", "%"),
    def("attack.reid_cyclosa_adaptive_pct", "%"),
    def("wall.run_s", "s"),
    def("trace.overhead_s", "s"),
    def("trace.unattributed_share", "fraction"),
];

/// Per-layer values of one traced iteration, by metric name.
pub type Layers = Vec<(&'static str, f64)>;

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// FNV-1a over `text`: a stable fingerprint of a formatted outcome.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }
}
