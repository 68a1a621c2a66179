//! Property-based tests for the coverage-directed closure driver, on the
//! workspace's hermetic `forall` driver.
//!
//! The machine generator mirrors `properties.rs`: random complete
//! machines over a ring backbone (input 0 cycles through the states, so
//! every machine is strongly connected), with either two shared output
//! symbols or one distinct output per transition.

use simcov_core::adaptive::{ClosureConfig, ClosureDriver};
use simcov_core::testutil::{forall_cfg, Config, Gen};
use simcov_core::{enumerate_single_faults, run_campaign, Engine, FaultSpace};
use simcov_fsm::{ExplicitMealy, MealyBuilder};

/// Random complete machines over a ring backbone (strongly connected).
#[derive(Debug, Clone)]
struct Recipe {
    n: usize,
    ni: usize,
    dests: Vec<u16>,
    outs: Vec<u16>,
    distinct_outputs: bool,
}

fn recipe(g: &mut Gen) -> Recipe {
    let n = g.int_in(2..8usize);
    let ni = g.int_in(1..4usize);
    let distinct_outputs = g.bool();
    let cells = n * ni;
    let dests = (0..cells).map(|_| g.u16()).collect();
    let outs = (0..cells).map(|_| g.u16()).collect();
    Recipe {
        n,
        ni,
        dests,
        outs,
        distinct_outputs,
    }
}

fn build(r: &Recipe) -> ExplicitMealy {
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..r.n).map(|i| b.add_state(format!("s{i}"))).collect();
    let inputs: Vec<_> = (0..r.ni).map(|i| b.add_input(format!("i{i}"))).collect();
    let num_outs = if r.distinct_outputs { r.n * r.ni } else { 2 };
    let outs: Vec<_> = (0..num_outs)
        .map(|i| b.add_output(format!("o{i}")))
        .collect();
    for s in 0..r.n {
        #[allow(clippy::needless_range_loop)]
        for i in 0..r.ni {
            let cell = s * r.ni + i;
            // Input 0 forms the connectivity ring; others are random.
            let dest = if i == 0 {
                (s + 1) % r.n
            } else {
                r.dests[cell] as usize % r.n
            };
            let out = if r.distinct_outputs {
                cell
            } else {
                r.outs[cell] as usize % 2
            };
            b.add_transition(states[s], inputs[i], states[dest], outs[out]);
        }
    }
    b.build(states[0]).expect("complete machine")
}

fn config(seed: u64) -> ClosureConfig {
    ClosureConfig {
        seed,
        ..ClosureConfig::default()
    }
}

/// Round telemetry is monotone: detections and transition coverage never
/// decrease across rounds, survivors never increase, and the running
/// tallies are mutually consistent within every round.
#[test]
fn closure_progress_is_monotone() {
    forall_cfg(
        "closure_progress_is_monotone",
        Config::with_cases(48),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 150,
                    seed: g.u16() as u64,
                    ..FaultSpace::default()
                },
            );
            let run = ClosureDriver::new(&m, &faults, config(g.u16() as u64)).run();
            let mut prev_detected = 0usize;
            let mut prev_covered = 0usize;
            let mut prev_survivors = faults.len();
            for rec in &run.rounds {
                assert!(
                    rec.detected_total >= prev_detected,
                    "detections regressed in round {}",
                    rec.round
                );
                assert!(
                    rec.transitions_covered >= prev_covered,
                    "coverage regressed in round {}",
                    rec.round
                );
                assert!(
                    rec.survivors <= prev_survivors,
                    "survivors grew in round {}",
                    rec.round
                );
                assert_eq!(
                    rec.cold_cells,
                    rec.transitions_total - rec.transitions_covered
                );
                assert_eq!(rec.new_detections, rec.detected_total - prev_detected);
                prev_detected = rec.detected_total;
                prev_covered = rec.transitions_covered;
                prev_survivors = rec.survivors;
            }
            if let Some(last) = run.rounds.last() {
                assert_eq!(run.closed, last.survivors == 0);
            }
        },
    );
}

/// On strongly connected machines with one distinct output per
/// transition, every enumerated fault is detectable — a transfer fault's
/// divergent destination betrays itself on its very next transition — so
/// the feedback loop always reaches closure within the default budget,
/// with nothing pruned as undetectable.
#[test]
fn distinct_output_machines_always_close() {
    forall_cfg(
        "distinct_output_machines_always_close",
        Config::with_cases(48),
        |g| {
            let mut r = recipe(g);
            r.distinct_outputs = true;
            let m = build(&r);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 150,
                    seed: g.u16() as u64,
                    ..FaultSpace::default()
                },
            );
            let run = ClosureDriver::new(&m, &faults, config(g.u16() as u64)).run();
            assert!(
                run.closed,
                "no closure on {} states x {} inputs: {:?}",
                r.n, r.ni, run.rounds
            );
            assert_eq!(run.undetectable, 0);
            assert_eq!(run.stats.detected, faults.len());
        },
    );
}

/// The whole `ClosureRun` — round schedule, report, stats, accumulated
/// tests — is bit-identical across worker counts and engines for a fixed
/// seed.
#[test]
fn closure_runs_are_identical_across_jobs_and_engines() {
    forall_cfg(
        "closure_runs_are_identical_across_jobs_and_engines",
        Config::with_cases(24),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 100,
                    seed: g.u16() as u64,
                    ..FaultSpace::default()
                },
            );
            let seed = g.u16() as u64;
            let base = ClosureDriver::new(&m, &faults, config(seed)).run();
            for engine in [Engine::Naive, Engine::Differential] {
                for jobs in [1, 2, 8] {
                    let cfg = ClosureConfig {
                        engine,
                        jobs,
                        ..config(seed)
                    };
                    let run = ClosureDriver::new(&m, &faults, cfg).run();
                    assert_eq!(
                        run, base,
                        "closure diverged at engine={engine:?} jobs={jobs}"
                    );
                }
            }
        },
    );
}

/// Exactness of the incremental merge: the final report equals a
/// from-scratch campaign of the full fault list against the accumulated
/// test set, so closure telemetry can be trusted like any one-shot
/// campaign report.
#[test]
fn closure_report_matches_from_scratch_campaign() {
    forall_cfg(
        "closure_report_matches_from_scratch_campaign",
        Config::with_cases(32),
        |g| {
            let r = recipe(g);
            let m = build(&r);
            let faults = enumerate_single_faults(
                &m,
                &FaultSpace {
                    max_faults: 120,
                    seed: g.u16() as u64,
                    ..FaultSpace::default()
                },
            );
            let run = ClosureDriver::new(&m, &faults, config(g.u16() as u64)).run();
            let scratch = run_campaign(&m, &faults, &run.tests);
            assert_eq!(run.report, scratch);
        },
    );
}
