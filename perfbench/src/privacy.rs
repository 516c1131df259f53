//! The `privacy` workload: Fig. 5 at `ExperimentScale::Default` — seven
//! mechanisms protect every test query and `SimAttack` tries to
//! re-identify the user. Orchestrated here, in the same order as
//! `cyclosa_bench::fig5`, so each mechanism can be wrapped in a
//! [`TimedMechanism`].

use crate::metrics::{fingerprint, ratio};
use crate::probe::{cpu_now, mark, now, reset_gap, since, Probe, Slot, TimedMechanism};
use crate::{Iteration, Workload};
use cyclosa_attack::evaluation::{evaluate_reidentification_with, ReidentificationReport};
use cyclosa_attack::simattack::SimAttack;
use cyclosa_bench::{ExperimentScale, ExperimentSetup, PRIVACY_K};
use cyclosa_mechanism::Mechanism;
use cyclosa_util::rng::Xoshiro256StarStar;

/// Seed of the fixtures (users, query log, corpus): the `repro` default,
/// whose default-scale split has 2172 test queries. The fixtures set the
/// attack's cost per request and it varies with their seed (1898 to 2613
/// test queries over 200 seeds; 2.2 to 3.4 s of run time over ten), so
/// the benchmark's seed drives the mechanisms' protection randomness
/// instead.
pub const FIXTURE_SEED: u64 = 2018;

/// Test queries per timed segment of an evaluation: about 10 ms of work,
/// short enough that the fastest of a run's iterations finds most
/// segments undisturbed by the host's other tenants.
pub const SEGMENT_QUERIES: usize = 64;

/// The RNG stream a mechanism protects with, given the fixtures and the
/// mechanism's `fig5` label (1 to 7, in `fig5` order).
pub type Streams<'a> = &'a dyn Fn(&ExperimentSetup, u64) -> Xoshiro256StarStar;

/// One Fig. 5 bar: mechanism name, rate in percent, denominator.
pub type Row = (String, f64, usize);

/// Result of one evaluation pass over the seven mechanisms.
pub struct Evaluation {
    /// Fig. 5 rows, in `fig5` order.
    pub rows: Vec<Row>,
    /// The raw reports, in the same order.
    pub reports: Vec<ReidentificationReport>,
    /// Seconds spent building the attack's inverted index.
    pub index_build_s: f64,
    /// Seconds spent building the two CYCLOSA mechanisms.
    pub core_build_s: f64,
    /// Processor seconds of set-up: fixtures, attack index and mechanism
    /// builds.
    pub setup_cpu_s: f64,
    /// Wall-clock seconds of the seven evaluations.
    pub run_s: f64,
    /// Processor seconds of each segment of the seven evaluations.
    pub run_cpu_s: Vec<f64>,
}

/// Runs Fig. 5 at `scale` on the [`FIXTURE_SEED`] fixtures, protecting
/// with `streams`, and wraps each mechanism when a probe is given.
pub fn evaluate(scale: ExperimentScale, streams: Streams<'_>, probe: Option<&Probe>) -> Evaluation {
    let started = mark();
    let setup = ExperimentSetup::new(scale, FIXTURE_SEED);
    let index = now();
    let attack = SimAttack::from_training(&setup.train);
    let index_build_s = since(index);
    let k = PRIVACY_K;
    let mut baselines: Vec<(&str, Box<dyn Mechanism>)> = vec![
        ("TOR", Box::new(setup.tor())),
        ("TrackMeNot", Box::new(setup.trackmenot(k))),
        ("GooPIR", Box::new(setup.goopir(k))),
        ("PEAS", Box::new(setup.peas(k))),
        ("X-SEARCH", Box::new(setup.xsearch(k))),
    ];
    let core = now();
    let mut cyclosa: Vec<(&str, Box<dyn Mechanism>)> = vec![
        ("CYCLOSA", Box::new(setup.cyclosa(k).with_fixed_k())),
        ("CYCLOSA (adaptive)", Box::new(setup.cyclosa(k))),
    ];
    let core_build_s = since(core);
    let setup_cpu_s = started.cpu_s();

    let queries = &setup.test_queries;
    let run = mark();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    let mechanisms = baselines
        .iter_mut()
        .map(|(name, m)| (*name, m, Slot::Baseline))
        .chain(
            cyclosa
                .iter_mut()
                .map(|(name, m)| (*name, m, Slot::Cyclosa)),
        );
    let mut run_cpu_s = Vec::new();
    for (label, (name, mechanism, slot)) in (1u64..).zip(mechanisms) {
        let mut rng = streams(&setup, label);
        let mut timed;
        let mechanism: &mut dyn Mechanism = match probe {
            None => mechanism.as_mut(),
            Some(probe) => {
                timed = TimedMechanism::new(mechanism.as_mut(), probe, slot);
                &mut timed
            }
        };
        // The mechanism and its stream carry over from one segment to
        // the next, so the merged report equals one pass over all queries.
        let mut report = ReidentificationReport {
            mechanism: mechanism.name().to_owned(),
            real_queries: 0,
            engine_requests: 0,
            successful: 0,
            identity_exposed: false,
        };
        reset_gap();
        for segment in queries.chunks(SEGMENT_QUERIES) {
            let start = cpu_now();
            let part = evaluate_reidentification_with(&attack, mechanism, segment, &mut rng);
            run_cpu_s.push(cpu_now() - start);
            report.real_queries += part.real_queries;
            report.engine_requests += part.engine_requests;
            report.successful += part.successful;
            report.identity_exposed |= part.identity_exposed;
        }
        let denominator = if report.identity_exposed {
            report.real_queries
        } else {
            report.engine_requests
        };
        rows.push((name.to_owned(), report.rate_percent(), denominator));
        reports.push(report);
    }
    Evaluation {
        rows,
        reports,
        index_build_s,
        core_build_s,
        setup_cpu_s,
        run_s: run.wall_s(),
        run_cpu_s,
    }
}

/// The privacy workload.
pub struct Privacy {
    seed: u64,
    scale: ExperimentScale,
}

impl Privacy {
    /// The workload for `seed` at `ExperimentScale::Default`: mechanism
    /// `label` protects with `Xoshiro256StarStar::seed_from_u64(seed)`
    /// forked by `label`.
    pub fn new(seed: u64) -> Self {
        Self::with_scale(seed, ExperimentScale::Default)
    }

    /// [`Privacy::new`] at another scale (used by tests).
    pub fn with_scale(seed: u64, scale: ExperimentScale) -> Self {
        Self { seed, scale }
    }
}

impl Workload for Privacy {
    fn iterate(&mut self, traced: bool) -> Iteration {
        let probe = traced.then(Probe::new);
        let seed = self.seed;
        let streams =
            move |_: &ExperimentSetup, label| Xoshiro256StarStar::seed_from_u64(seed).fork(label);
        let evaluation = evaluate(self.scale, &streams, probe.as_ref());
        let reports = &evaluation.reports;
        let fixed = &reports[5];
        let adaptive = &reports[6];
        let test_queries = fixed.real_queries;

        let mut failures = Vec::new();
        let expected = test_queries * (PRIVACY_K + 1);
        if evaluation.rows[5].2 != expected {
            failures.push(format!(
                "fixed-k CYCLOSA denominator {} != {test_queries} test queries x (k + 1) = {expected}",
                evaluation.rows[5].2
            ));
        }
        for (name, rate, _) in &evaluation.rows {
            if !(0.0..=100.0).contains(rate) {
                failures.push(format!("{name} rate {rate} outside [0, 100]"));
            }
        }

        let requests: usize = reports.iter().map(|r| r.engine_requests).sum();
        let outcome = vec![
            ("attack.requests", requests as f64),
            ("attack.reid_cyclosa_pct", evaluation.rows[5].1),
            ("attack.reid_cyclosa_adaptive_pct", evaluation.rows[6].1),
            (
                "core.fakes_per_query",
                ratio(
                    adaptive.engine_requests as f64,
                    adaptive.real_queries as f64,
                ) - 1.0,
            ),
        ];
        let layers = match &probe {
            None => Vec::new(),
            Some(probe) => {
                let totals = probe.totals();
                let core = totals.slot(Slot::Cyclosa);
                let baselines = totals.slot(Slot::Baseline);
                let protected = reports.iter().map(|r| r.real_queries as u64).sum::<u64>();
                if totals.calls() != protected {
                    failures.push(format!(
                        "probe timed {} protect calls for {protected} protected queries",
                        totals.calls()
                    ));
                }
                vec![
                    ("core.protect_s", core.seconds),
                    (
                        "core.ns_per_query",
                        ratio(core.seconds * 1e9, core.calls as f64),
                    ),
                    ("core.build_s", evaluation.core_build_s),
                    ("baselines.protect_s", baselines.seconds),
                    ("attack.s", totals.gap_s),
                    ("attack.run_share", ratio(totals.gap_s, evaluation.run_s)),
                    (
                        "attack.ns_per_request",
                        ratio(totals.gap_s * 1e9, requests as f64),
                    ),
                    (
                        "attack.allocs_per_request",
                        ratio(totals.gap_allocs as f64, requests as f64),
                    ),
                    ("attack.index_build_s", evaluation.index_build_s),
                    (
                        "trace.unattributed_share",
                        totals.unattributed_share(evaluation.run_s),
                    ),
                ]
            }
        };
        Iteration {
            setup_cpu_s: evaluation.setup_cpu_s,
            run_s: evaluation.run_s,
            run_cpu_s: evaluation.run_cpu_s,
            ops: reports.iter().map(|r| r.real_queries as u64).sum(),
            failures,
            fingerprint: fingerprint(&format!("{reports:?}")),
            outcome,
            layers,
        }
    }
}
