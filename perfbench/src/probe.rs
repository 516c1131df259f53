//! Per-layer wall-clock attribution, applied from outside the program by
//! decorating its public surfaces:
//!
//! * [`TimedEngine`] wraps any [`Engine`], timing `run` and wrapping every
//!   behaviour handed to `add_node`/`schedule_join` so each `on_message`
//!   and `on_timer` is timed under the [`Slot`] of its node;
//! * [`TimedMechanism`] wraps a [`Mechanism`] and times `protect`.
//!
//! Between two timed callbacks on one thread the program is in its own
//! loop: the engine's event loop (plus barrier waits on shard threads),
//! or the attack between two `protect` calls. That *gap* time and its
//! allocations are measured too, so a layer's self time is observed, not
//! computed as a remainder. Only the head (run start to first callback)
//! and tail (last callback to run end) of each thread go unobserved —
//! on a shard thread the tail includes the barrier waits of windows in
//! which only other shards still have work — and
//! `trace.unattributed_share` reports that share.

use crate::alloc;
use crate::metrics::{ratio, Layers};
use cyclosa_mechanism::{Mechanism, MechanismProperties, ProtectionOutcome, Query};
use cyclosa_net::engine::Engine;
use cyclosa_net::latency::LatencyModel;
use cyclosa_net::sim::{Context, Envelope, NodeBehavior, SimulationStats};
use cyclosa_net::time::SimTime;
use cyclosa_net::NodeId;
use cyclosa_runtime::{shard_of, Gauge, Registry};
use cyclosa_util::rng::Xoshiro256StarStar;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reads the wall clock. The benchmark's only wall-clock source; it lives
/// outside the program's crates, so the determinism lint and the clippy
/// wall-clock ban do not govern it.
#[allow(clippy::disallowed_methods)]
pub fn now() -> Instant {
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// Processor seconds this process has used so far, summed over its
/// threads (`CLOCK_PROCESS_CPUTIME_ID`). Unlike the wall clock it does not
/// advance while the host runs another tenant instead of this process, nor
/// while a shard thread sleeps at a barrier, so it measures the program's
/// own work on a shared host.
pub fn cpu_now() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `time` is a valid, writable `struct timespec` for the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    time.tv_sec as f64 + time.tv_nsec as f64 * 1e-9
}

/// A point in both wall-clock and processor time.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: f64,
}

/// The current [`Mark`].
pub fn mark() -> Mark {
    Mark {
        wall: now(),
        cpu: cpu_now(),
    }
}

impl Mark {
    /// Wall-clock seconds since the mark.
    pub fn wall_s(self) -> f64 {
        since(self.wall)
    }

    /// Processor seconds the process has used since the mark.
    pub fn cpu_s(self) -> f64 {
        cpu_now() - self.cpu
    }
}

/// Which layer a timed callback belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Slot {
    /// The soak client behaviour (`chaos`).
    Client,
    /// A soak relay behaviour (`chaos`).
    Relay,
    /// The soak search-engine node behaviour (`chaos`).
    EngineNode,
    /// A SWIM/HyParView membership node (`peer-sampling`).
    Membership,
    /// A CYCLOSA mechanism's `protect` (`core`).
    Cyclosa,
    /// A baseline mechanism's `protect` (`baselines`).
    Baseline,
}

/// Accumulators of one wrapped behaviour or mechanism. Each wrapper owns
/// its own tally, so shard threads never contend on a cache line.
#[derive(Debug, Default)]
struct Tally {
    nanos: AtomicU64,
    calls: AtomicU64,
    allocs: AtomicU64,
    gap_nanos: AtomicU64,
    gap_allocs: AtomicU64,
    mailbox_max: AtomicI64,
}

thread_local! {
    /// End instant and allocation count of this thread's last timed call.
    static LAST_END: Cell<Option<(Instant, u64)>> = const { Cell::new(None) };
}

/// Forgets this thread's last timed call, so the next gap starts fresh
/// (call before the program's loop starts on this thread).
pub fn reset_gap() {
    LAST_END.with(|last| last.set(None));
}

fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Adds `amount` to a tally field. A tally has one writer at a time (its
/// behaviour runs on one shard thread, its mechanism on one thread), and
/// readers run after the writers' thread is joined, so a plain relaxed
/// read-modify-write without a locked instruction is enough.
fn bump(field: &AtomicU64, amount: u64) {
    field.store(field.load(Ordering::Relaxed) + amount, Ordering::Relaxed);
}

fn timed<R>(tally: &Tally, call: impl FnOnce() -> R) -> R {
    let allocs_before = alloc::thread_count();
    let start = now();
    if let Some((last_end, last_allocs)) = LAST_END.with(Cell::get) {
        bump(&tally.gap_nanos, nanos(last_end, start));
        bump(&tally.gap_allocs, allocs_before - last_allocs);
    }
    let result = call();
    let end = now();
    let allocs_after = alloc::thread_count();
    bump(&tally.nanos, nanos(start, end));
    bump(&tally.calls, 1);
    bump(&tally.allocs, allocs_after - allocs_before);
    LAST_END.with(|last| last.set(Some((end, allocs_after))));
    result
}

/// Totals of one slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SlotTotals {
    /// Wrappers registered under the slot.
    pub members: u64,
    /// Seconds inside timed calls.
    pub seconds: f64,
    /// Timed calls.
    pub calls: u64,
    /// Allocator calls inside timed calls.
    pub allocs: u64,
}

/// Everything a [`Probe`] observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    /// Per-slot totals.
    pub slots: BTreeMap<Slot, SlotTotals>,
    /// Seconds between consecutive timed calls on the same thread.
    pub gap_s: f64,
    /// Allocator calls between consecutive timed calls.
    pub gap_allocs: u64,
    /// Largest cross-shard mailbox merge a callback saw on its shard.
    pub mailbox_max: i64,
}

impl Totals {
    /// Totals of `slot` (zero when nothing registered under it).
    pub fn slot(&self, slot: Slot) -> SlotTotals {
        self.slots.get(&slot).copied().unwrap_or_default()
    }

    /// Seconds inside timed calls, over every slot.
    pub fn timed_s(&self) -> f64 {
        self.slots.values().map(|s| s.seconds).sum()
    }

    /// Timed calls, over every slot.
    pub fn calls(&self) -> u64 {
        self.slots.values().map(|s| s.calls).sum()
    }

    /// A failure message unless the probe timed exactly the callbacks the
    /// engine reports it dispatched, i.e. every behaviour was wrapped.
    pub fn missed_callbacks(&self, stats: &SimulationStats) -> Option<String> {
        let dispatched = stats.delivered + stats.timers_fired;
        (self.calls() != dispatched).then(|| {
            format!(
                "probe timed {} callbacks but the engine dispatched {dispatched}",
                self.calls()
            )
        })
    }

    /// Share of `thread_s` seconds of thread time that neither a timed
    /// call nor a gap covered.
    pub fn unattributed_share(&self, thread_s: f64) -> f64 {
        1.0 - ratio(self.timed_s() + self.gap_s, thread_s)
    }
}

/// Collects the tallies of every wrapper created for one traced run.
#[derive(Debug, Default)]
pub struct Probe {
    tallies: Mutex<Vec<(Slot, Arc<Tally>)>>,
    mailboxes: Vec<Gauge>,
}

impl Probe {
    /// A probe for a sequential run.
    pub fn new() -> Self {
        Self::default()
    }

    /// A probe for a sharded run whose engine profiles into `registry`:
    /// each callback also reads its shard's `mailbox_depth` gauge, which
    /// the shard sets after merging a window's cross-shard mail, so the
    /// probe sees the largest merge that preceded work on that shard.
    pub fn sharded(registry: &Registry, shards: usize) -> Self {
        Self {
            tallies: Mutex::new(Vec::new()),
            mailboxes: (0..shards)
                .map(|i| registry.gauge(&format!("engine.shard{i}.mailbox_depth")))
                .collect(),
        }
    }

    fn tally(&self, slot: Slot) -> Arc<Tally> {
        let tally = Arc::new(Tally::default());
        self.tallies
            .lock()
            .expect("probe registry poisoned")
            .push((slot, tally.clone()));
        tally
    }

    fn mailbox_of(&self, node: NodeId) -> Option<Gauge> {
        (!self.mailboxes.is_empty())
            .then(|| self.mailboxes[shard_of(node, self.mailboxes.len())].clone())
    }

    /// Sums every tally registered so far.
    pub fn totals(&self) -> Totals {
        let tallies = self.tallies.lock().expect("probe registry poisoned");
        let mut totals = Totals::default();
        let mut gap_nanos = 0u64;
        for (slot, tally) in tallies.iter() {
            let entry = totals.slots.entry(*slot).or_default();
            entry.members += 1;
            entry.seconds += tally.nanos.load(Ordering::Relaxed) as f64 * 1e-9;
            entry.calls += tally.calls.load(Ordering::Relaxed);
            entry.allocs += tally.allocs.load(Ordering::Relaxed);
            gap_nanos += tally.gap_nanos.load(Ordering::Relaxed);
            totals.gap_allocs += tally.gap_allocs.load(Ordering::Relaxed);
            totals.mailbox_max = totals
                .mailbox_max
                .max(tally.mailbox_max.load(Ordering::Relaxed));
        }
        totals.gap_s = gap_nanos as f64 * 1e-9;
        totals
    }
}

/// A behaviour whose callbacks are timed into its tally.
struct TimedBehavior {
    inner: Box<dyn NodeBehavior + Send>,
    tally: Arc<Tally>,
    mailbox: Option<Gauge>,
}

impl TimedBehavior {
    fn observe_mailbox(&self) {
        if let Some(gauge) = &self.mailbox {
            let max = &self.tally.mailbox_max;
            max.store(
                max.load(Ordering::Relaxed).max(gauge.get()),
                Ordering::Relaxed,
            );
        }
    }
}

impl NodeBehavior for TimedBehavior {
    fn on_message(&mut self, ctx: &mut Context<'_>, envelope: Envelope) {
        self.observe_mailbox();
        let inner = &mut self.inner;
        timed(&self.tally, || inner.on_message(ctx, envelope));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: u64) {
        self.observe_mailbox();
        let inner = &mut self.inner;
        timed(&self.tally, || inner.on_timer(ctx, token));
    }
}

/// An [`Engine`] decorator: times `run`/`run_until` and, when given a
/// probe, wraps every behaviour so its callbacks are attributed to the
/// slot `classify` assigns its node.
pub struct TimedEngine<'a, E> {
    inner: &'a mut E,
    probe: Option<&'a Probe>,
    classify: &'a dyn Fn(NodeId) -> Slot,
    created: Mark,
    setup_cpu_s: Option<f64>,
    run_s: f64,
    run_cpu_s: Vec<f64>,
    events: u64,
}

impl<'a, E: Engine> TimedEngine<'a, E> {
    /// Decorates `inner`; set-up time is counted from `created`.
    pub fn new(
        inner: &'a mut E,
        probe: Option<&'a Probe>,
        classify: &'a dyn Fn(NodeId) -> Slot,
        created: Mark,
    ) -> Self {
        Self {
            inner,
            probe,
            classify,
            created,
            setup_cpu_s: None,
            run_s: 0.0,
            run_cpu_s: Vec::new(),
            events: 0,
        }
    }

    /// Timings and event count of the runs so far.
    pub fn engine_run(&self) -> EngineRun {
        EngineRun {
            setup_cpu_s: self.setup_cpu_s.unwrap_or(0.0),
            run_s: self.run_s,
            run_cpu_s: self.run_cpu_s.clone(),
            events: self.events,
        }
    }

    fn wrap(
        &self,
        node: NodeId,
        behavior: Box<dyn NodeBehavior + Send>,
    ) -> Box<dyn NodeBehavior + Send> {
        match self.probe {
            None => behavior,
            Some(probe) => Box::new(TimedBehavior {
                inner: behavior,
                tally: probe.tally((self.classify)(node)),
                mailbox: probe.mailbox_of(node),
            }),
        }
    }

    fn timed_run<R>(&mut self, run: impl FnOnce(&mut E) -> R) -> R {
        reset_gap();
        let created = self.created;
        self.setup_cpu_s.get_or_insert_with(|| created.cpu_s());
        let start = mark();
        let result = run(self.inner);
        self.run_s += start.wall_s();
        self.run_cpu_s.push(start.cpu_s());
        result
    }
}

impl<E: Engine> Engine for TimedEngine<'_, E> {
    fn add_node(&mut self, id: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        let behavior = self.wrap(id, behavior);
        self.inner.add_node(id, behavior);
    }

    fn set_default_latency(&mut self, model: LatencyModel) {
        self.inner.set_default_latency(model);
    }

    fn set_link_latency(&mut self, src: NodeId, dst: NodeId, model: LatencyModel) {
        self.inner.set_link_latency(src, dst, model);
    }

    fn set_loss_probability(&mut self, p: f64) {
        self.inner.set_loss_probability(p);
    }

    fn crash(&mut self, node: NodeId) {
        self.inner.crash(node);
    }

    fn recover(&mut self, node: NodeId) {
        self.inner.recover(node);
    }

    fn schedule_join(&mut self, at: SimTime, node: NodeId, behavior: Box<dyn NodeBehavior + Send>) {
        let behavior = self.wrap(node, behavior);
        self.inner.schedule_join(at, node, behavior);
    }

    fn schedule_leave(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_leave(at, node);
    }

    fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_crash(at, node);
    }

    fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        self.inner.schedule_recover(at, node);
    }

    fn schedule_loss_probability(&mut self, at: SimTime, p: f64) {
        self.inner.schedule_loss_probability(at, p);
    }

    fn schedule_link_loss(&mut self, at: SimTime, src_set: &[NodeId], dst_set: &[NodeId], p: f64) {
        self.inner.schedule_link_loss(at, src_set, dst_set, p);
    }

    fn post(&mut self, at: SimTime, src: NodeId, dst: NodeId, tag: u32, payload: Vec<u8>) {
        self.inner.post(at, src, dst, tag, payload);
    }

    fn schedule_timer(&mut self, at: SimTime, node: NodeId, token: u64) {
        self.inner.schedule_timer(at, node, token);
    }

    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn run(&mut self) -> u64 {
        let events = self.timed_run(|engine| engine.run());
        self.events += events;
        events
    }

    fn run_until(&mut self, deadline: SimTime) {
        self.timed_run(|engine| engine.run_until(deadline));
    }

    fn stats(&self) -> SimulationStats {
        self.inner.stats()
    }
}

/// Engine-side timings of one run.
pub struct EngineRun {
    /// Processor seconds from creation to the first `run`.
    pub setup_cpu_s: f64,
    /// Wall-clock seconds inside `run`.
    pub run_s: f64,
    /// Processor seconds inside each `run`/`run_until` call, summed over
    /// threads.
    pub run_cpu_s: Vec<f64>,
    /// Events `run` processed.
    pub events: u64,
}

/// The `runtime` layer's values from the engine's own profiling registry.
pub fn runtime_values(
    totals: &Totals,
    run: &EngineRun,
    shards: usize,
    registry: &Registry,
) -> Layers {
    let snapshot = registry.snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    let (mut waits, mut stall_ns) = (0u64, 0u64);
    for (name, histogram) in &snapshot.histograms {
        if name.ends_with(".barrier_stall_ns") {
            waits += histogram.count;
            stall_ns += histogram.sum;
        }
    }
    let shard_events: Vec<f64> = (0..shards)
        .map(|i| {
            ["deliver", "timer", "membership"]
                .iter()
                .map(|kind| counter(&format!("engine.shard{i}.{kind}")))
                .sum::<u64>() as f64
        })
        .collect();
    let mean_events = shard_events.iter().sum::<f64>() / shards as f64;
    let max_events = shard_events.iter().copied().fold(0.0, f64::max);
    let stall_s = stall_ns as f64 * 1e-9;
    vec![
        ("runtime.barrier_waits", waits as f64),
        ("runtime.barrier_stall_s", stall_s),
        (
            "runtime.stall_share",
            ratio(stall_s, shards as f64 * run.run_s),
        ),
        (
            "runtime.events_per_wait",
            ratio(run.events as f64, waits as f64),
        ),
        ("runtime.shard_imbalance", ratio(max_events, mean_events)),
        ("runtime.mailbox_depth_max", totals.mailbox_max as f64),
        // Barrier waits happen between callbacks, so they sit inside the
        // measured gaps; what remains of the gaps is the engine's own loop.
        ("runtime.self_s", (totals.gap_s - stall_s).max(0.0)),
    ]
}

/// A [`Mechanism`] decorator timing `protect` into its probe slot.
pub struct TimedMechanism<'a> {
    inner: &'a mut dyn Mechanism,
    tally: Arc<Tally>,
}

impl<'a> TimedMechanism<'a> {
    /// Decorates `inner`, attributing its time to `slot` of `probe`.
    pub fn new(inner: &'a mut dyn Mechanism, probe: &Probe, slot: Slot) -> Self {
        Self {
            inner,
            tally: probe.tally(slot),
        }
    }
}

impl Mechanism for TimedMechanism<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn properties(&self) -> MechanismProperties {
        self.inner.properties()
    }

    fn protect(&mut self, query: &Query, rng: &mut Xoshiro256StarStar) -> ProtectionOutcome {
        let inner = &mut self.inner;
        timed(&self.tally, || inner.protect(query, rng))
    }
}
