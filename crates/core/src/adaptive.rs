//! Coverage-directed closure: the feedback loop that turns one-shot
//! fault campaigns into an adaptive verification engine (ROADMAP item 4).
//!
//! The paper measures the coverage of a *fixed* test set. This module
//! closes the loop: run a campaign, harvest its telemetry — which faults
//! survived, which reachable `(state, input)` cells the accumulated
//! stimulus has never excited — and feed both back into the
//! `simcov-tour` generators as bias targets for the next round:
//!
//! * a [`targeted_tour`] aimed at the cells of the surviving faults
//!   (excitation is necessary for detection, so a surviving fault's cell
//!   is always worth revisiting), each sequence extended by a short
//!   random propagation window so a freshly excited fault can reach an
//!   output;
//! * a [`biased_random_test_set`] whose input choice is weighted toward
//!   the surviving cells *and* the cold cells, the
//!   coverage-directed constrained-random component.
//!
//! Rounds repeat until **closure** (every *detectable* fault detected —
//! and detection implies excitation) or a round/step budget or
//! stagnation window expires. Surviving faults are screened with the
//! exact [`is_detectable`] equivalence check after every round: a fault
//! whose mutant is observationally equivalent to the golden machine —
//! the redundant fault of ATPG — can never be detected by any test, so
//! it is removed from the closure target instead of pinning the loop at
//! its stagnation limit.
//!
//! # Determinism
//!
//! A [`ClosureRun`] is a pure function of `(machine, faults, config)`,
//! independent of `jobs`:
//!
//! * each round's stimulus depends only on the surviving-fault set, the
//!   cold-cell set and a seed derived from `(config.seed, round)` — and
//!   both sets are themselves deterministic because the inner
//!   [`ResilientCampaign`] is bit-identical across thread counts;
//! * per-round records, `adaptive.round` trace events and `adaptive.*`
//!   counters are all emitted by this serial driver after the campaign's
//!   shard merge, never from worker threads.
//!
//! So traces are byte-identical at any `--jobs` by construction.
//!
//! # Incremental campaigns
//!
//! Each round simulates *only the surviving faults against only the new
//! sequences*, then merges: `excited`/`masked_somewhere` OR into the
//! accumulated outcome, and a detection's sequence index is offset by
//! the number of previously accumulated sequences. This merge is exact —
//! identical to re-running the full campaign over the accumulated test
//! set — because [`simulate_fault`](crate::faults::simulate_fault)
//! visits sequences in order and a surviving fault was, by definition,
//! undetected by every earlier sequence (so the earlier sequences
//! contribute exactly the already-accumulated excitation/masking bits
//! and no detection). The property suite pins this equivalence.
//!
//! When a [`CollapseCertificate`] is supplied, rounds iterate over the
//! class *representatives* only; the final report is expanded back to
//! the full fault list with
//! [`expand_outcomes`](CollapseCertificate::expand_outcomes).

use crate::collapse::CollapseCertificate;
use crate::differential::Engine;
use crate::error_model::{is_detectable, Fault};
use crate::faults::{CampaignReport, FaultOutcome};
use crate::parallel::CampaignStats;
use crate::resilient::ResilientCampaign;
use crate::symbolic::SymbolicContext;
use simcov_fsm::{ExplicitMealy, InputSym, StateId};
use simcov_obs::names::{
    ADAPTIVE_CLOSED, ADAPTIVE_COLD_CELLS, ADAPTIVE_NEW_DETECTIONS, ADAPTIVE_ROUNDS,
    ADAPTIVE_STEPS_ADDED, ADAPTIVE_SURVIVORS, ADAPTIVE_TESTS_ADDED, ADAPTIVE_UNDETECTABLE,
};
use simcov_obs::Telemetry;
use simcov_tour::{biased_random_test_set, targeted_tour, TestSet};
use std::collections::VecDeque;

/// Knobs of the closure loop. [`Default`] gives the configuration the
/// CLI and CI gate use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureConfig {
    /// Maximum feedback rounds (round 0 included). Default 8.
    pub max_rounds: usize,
    /// Soft step budget: no new round starts once the accumulated test
    /// set reaches this many vectors (a round may overshoot it).
    /// `None` = unbounded. Default `None`.
    pub max_steps: Option<u64>,
    /// Seed for all stimulus generation. Per-round generator seeds are
    /// derived from `(seed, round)`. Default 0.
    pub seed: u64,
    /// Fault-simulation engine for every round's campaign.
    pub engine: Engine,
    /// Worker threads for every round's campaign; 0 = automatic. The
    /// result is identical for any value. Default 0.
    pub jobs: usize,
    /// Constrained-random sequences added per round. Default 4.
    pub random_per_round: usize,
    /// Length of each constrained-random sequence. Default 64.
    pub random_length: usize,
    /// Random propagation steps appended to each targeted-tour sequence
    /// (the detection window after the last targeted excitation).
    /// Default 6.
    pub propagate: usize,
    /// Weight of a bias-target cell relative to 1 for any other defined
    /// input in the constrained-random walks. Default 8.
    pub bias_weight: u32,
    /// Stop after this many consecutive rounds with no new detection.
    /// Default 3.
    pub stagnation: usize,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            max_rounds: 8,
            max_steps: None,
            seed: 0,
            engine: Engine::default(),
            jobs: 0,
            random_per_round: 4,
            random_length: 64,
            propagate: 6,
            bias_weight: 8,
            stagnation: 3,
        }
    }
}

/// What one feedback round achieved — the unit of the round-by-round
/// report (and of the `adaptive.round` trace event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRecord {
    /// Round number, starting at 0.
    pub round: usize,
    /// Test sequences generated this round.
    pub tests_added: usize,
    /// Input vectors generated this round.
    pub steps_added: usize,
    /// Faults first detected this round.
    pub new_detections: usize,
    /// Faults detected by the accumulated test set after this round.
    pub detected_total: usize,
    /// Undetected faults still *worth targeting* after this round
    /// (provably-undetectable ones are pruned from this count).
    pub survivors: usize,
    /// Faults proven undetectable so far ([`is_detectable`] returned
    /// `false`): excluded from the closure target, cumulative.
    pub undetectable: usize,
    /// Faults excited (detected or not) by the accumulated test set.
    pub excited_total: usize,
    /// Reachable defined `(state, input)` cells the accumulated test set
    /// has traversed.
    pub transitions_covered: usize,
    /// Reachable defined `(state, input)` cells in the machine.
    pub transitions_total: usize,
    /// `transitions_total - transitions_covered` after this round.
    pub cold_cells: usize,
}

/// Result of a closure run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosureRun {
    /// Per-round records, in round order.
    pub rounds: Vec<RoundRecord>,
    /// Final per-fault outcomes under the accumulated test set, in the
    /// order of the *input* fault list (expanded through the collapse
    /// certificate when one was supplied).
    pub report: CampaignReport,
    /// Deterministic tally of [`report`](Self::report).
    pub stats: CampaignStats,
    /// The accumulated test set, in generation order.
    pub tests: TestSet,
    /// `true` when every detectable targeted fault was detected.
    pub closed: bool,
    /// Faults (or class representatives) proven undetectable and
    /// excluded from the closure target.
    pub undetectable: usize,
    /// Total vectors across the accumulated test set.
    pub total_steps: u64,
}

/// The iterative campaign driver. Borrow the machine and fault list,
/// configure, [`run`](Self::run).
///
/// ```
/// use simcov_core::adaptive::{ClosureConfig, ClosureDriver};
/// use simcov_core::{enumerate_single_faults, FaultSpace};
/// use simcov_core::models::figure2;
///
/// let (m, _) = figure2();
/// let faults = enumerate_single_faults(&m, &FaultSpace::default());
/// let run = ClosureDriver::new(&m, &faults, ClosureConfig::default()).run();
/// assert!(run.closed);
/// assert_eq!(run.stats.detected + run.undetectable, faults.len());
/// ```
#[derive(Debug, Clone)]
pub struct ClosureDriver<'a> {
    golden: &'a ExplicitMealy,
    faults: &'a [Fault],
    config: ClosureConfig,
    telemetry: Option<Telemetry>,
    collapse: Option<&'a CollapseCertificate>,
    symbolic: Option<&'a SymbolicContext<'a>>,
}

impl<'a> ClosureDriver<'a> {
    /// A driver over the given machine and fault list.
    pub fn new(golden: &'a ExplicitMealy, faults: &'a [Fault], config: ClosureConfig) -> Self {
        ClosureDriver {
            golden,
            faults,
            config,
            telemetry: None,
            collapse: None,
            symbolic: None,
        }
    }

    /// Records `adaptive.round` events, `adaptive.*` counters and the
    /// inner campaigns' `campaign.*` counters into `telemetry`. All
    /// recorded data is deterministic across `jobs`.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Re-targets rounds at collapse-class representatives only; the
    /// final report is expanded back to the full fault list. The
    /// certificate must have been built for exactly this machine and
    /// fault list ([`run`](Self::run) panics otherwise).
    pub fn collapse(mut self, cert: &'a CollapseCertificate) -> Self {
        self.collapse = Some(cert);
        self
    }

    /// Attaches the netlist bridge [`Engine::Symbolic`] simulates
    /// through, validated against this driver's machine
    /// ([`SymbolicContext::new`]). Ignored by the explicit engines;
    /// [`run`](Self::run) panics if the symbolic engine is configured
    /// without one.
    pub fn symbolic(mut self, ctx: &'a SymbolicContext<'a>) -> Self {
        self.symbolic = Some(ctx);
        self
    }

    /// Runs the feedback loop to closure or budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if a supplied collapse certificate fails
    /// [`check`](CollapseCertificate::check) against the machine and
    /// fault list, or if a round's campaign comes back incomplete (a
    /// shard panicked on every retry): merging a report with gaps would
    /// silently misreport closure.
    pub fn run(&self) -> ClosureRun {
        let m = self.golden;
        let cfg = &self.config;
        if let Some(cert) = self.collapse {
            cert.check(m, self.faults)
                .expect("collapse certificate must match the closure fault list");
        }
        let work: Vec<Fault> = match self.collapse {
            Some(cert) => cert.representative_faults(self.faults),
            None => self.faults.to_vec(),
        };

        // Cold-cell tracking: which reachable defined cells has the
        // accumulated stimulus traversed?
        let ni = m.num_inputs();
        let reachable = reachable_cells(m);
        let transitions_total = reachable.iter().filter(|&&r| r).count();
        let mut covered = vec![false; m.num_states() * ni];

        // Accumulated outcome per work fault (all simulated in round 0).
        let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; work.len()];
        let mut pending: Vec<usize> = (0..work.len()).collect();
        // Memoized detectability screen — only ever computed for a fault
        // that survives a round.
        let mut detectable: Vec<Option<bool>> = vec![None; work.len()];
        let mut detected_count = 0usize;
        let mut tests = TestSet::default();
        let mut total_steps = 0u64;
        let mut rounds: Vec<RoundRecord> = Vec::new();
        let mut stagnant = 0usize;

        while !pending.is_empty()
            && rounds.len() < cfg.max_rounds
            && cfg.max_steps.is_none_or(|b| total_steps < b)
            && stagnant < cfg.stagnation
        {
            let round = rounds.len();
            // Bias targets: cells of surviving faults (detection), plus
            // cold cells (excitation) for the random component. Sorted
            // and deduplicated for determinism.
            let mut survivor_cells: Vec<(StateId, InputSym)> = pending
                .iter()
                .map(|&i| (work[i].state, work[i].input))
                .collect();
            survivor_cells.sort_unstable();
            survivor_cells.dedup();
            let mut hot = survivor_cells.clone();
            for s in 0..m.num_states() {
                for i in 0..ni {
                    if reachable[s * ni + i] && !covered[s * ni + i] {
                        hot.push((StateId(s as u32), InputSym(i as u32)));
                    }
                }
            }
            hot.sort_unstable();
            hot.dedup();

            let mut new_tests = targeted_tour(
                m,
                &survivor_cells,
                cfg.propagate,
                round_seed(cfg.seed, round, 0),
            );
            new_tests.extend(
                biased_random_test_set(
                    m,
                    &hot,
                    cfg.random_per_round,
                    cfg.random_length,
                    cfg.bias_weight,
                    round_seed(cfg.seed, round, 1),
                )
                .sequences,
            );
            new_tests.sequences.retain(|s| !s.is_empty());
            if new_tests.is_empty() {
                // No defined input from reset: nothing can ever excite.
                break;
            }

            // Incremental campaign: surviving faults × new sequences.
            let pending_faults: Vec<Fault> = pending.iter().map(|&i| work[i]).collect();
            let report = self.campaign(&pending_faults, &new_tests);

            // Exact merge (see module docs): OR observation bits, offset
            // detection sequence indices by the accumulated count.
            let offset = tests.len();
            let mut new_detections = 0usize;
            for (&slot, out) in pending.iter().zip(report.outcomes.iter()) {
                let acc = outcomes[slot].get_or_insert(FaultOutcome {
                    fault: out.fault,
                    detected: None,
                    excited: false,
                    masked_somewhere: false,
                });
                acc.excited |= out.excited;
                acc.masked_somewhere |= out.masked_somewhere;
                if let Some((si, vi)) = out.detected {
                    acc.detected = Some((si + offset, vi));
                    new_detections += 1;
                }
            }
            pending.retain(|&i| outcomes[i].as_ref().is_none_or(|o| o.detected.is_none()));
            detected_count += new_detections;
            // Screen the survivors: a fault whose mutant is equivalent
            // to the golden machine can never close — stop targeting it.
            pending.retain(|&i| *detectable[i].get_or_insert_with(|| is_detectable(m, &work[i])));

            let steps_added = new_tests.total_vectors();
            let tests_added = new_tests.len();
            total_steps += steps_added as u64;
            for seq in &new_tests.sequences {
                mark_covered(m, seq, &mut covered);
            }
            tests.extend(new_tests.sequences);

            let transitions_covered = covered.iter().filter(|&&c| c).count();
            let rec = RoundRecord {
                round,
                tests_added,
                steps_added,
                new_detections,
                detected_total: detected_count,
                survivors: pending.len(),
                undetectable: detectable.iter().filter(|d| **d == Some(false)).count(),
                excited_total: outcomes
                    .iter()
                    .filter(|o| o.as_ref().is_some_and(|o| o.excited))
                    .count(),
                transitions_covered,
                transitions_total,
                cold_cells: transitions_total - transitions_covered,
            };
            if let Some(tel) = &self.telemetry {
                tel.event(
                    "adaptive.round",
                    &[
                        ("round", rec.round as u64),
                        ("tests_added", rec.tests_added as u64),
                        ("steps_added", rec.steps_added as u64),
                        ("new_detections", rec.new_detections as u64),
                        ("survivors", rec.survivors as u64),
                        ("undetectable", rec.undetectable as u64),
                        ("cold_cells", rec.cold_cells as u64),
                    ],
                );
            }
            rounds.push(rec);
            if new_detections == 0 {
                stagnant += 1;
            } else {
                stagnant = 0;
            }
        }

        let closed = pending.is_empty();
        let undetectable: Vec<usize> = (0..work.len())
            .filter(|&i| detectable[i] == Some(false))
            .collect();
        // A pruned fault stopped riding the rounds when its screen
        // failed, so its accumulated outcome misses the sequences added
        // afterwards. Re-simulate those few faults against the full
        // accumulated test set — exact by definition — to keep the final
        // report bit-identical to a from-scratch campaign.
        if !undetectable.is_empty() && !tests.is_empty() {
            let pruned_faults: Vec<Fault> = undetectable.iter().map(|&i| work[i]).collect();
            let report = self.campaign(&pruned_faults, &tests);
            for (&slot, out) in undetectable.iter().zip(report.outcomes.iter()) {
                outcomes[slot] = Some(out.clone());
            }
        }
        let work_outcomes: Vec<FaultOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, o)| {
                o.unwrap_or(FaultOutcome {
                    // Zero rounds ran (empty budget / no stimulus): the
                    // empty test set excites and detects nothing.
                    fault: work[i],
                    detected: None,
                    excited: false,
                    masked_somewhere: false,
                })
            })
            .collect();
        let final_outcomes = match self.collapse {
            Some(cert) => cert.expand_outcomes(self.faults, &work_outcomes),
            None => work_outcomes,
        };
        let stats = CampaignStats::tally(&final_outcomes);
        if let Some(tel) = &self.telemetry {
            tel.counter_add(ADAPTIVE_ROUNDS, rounds.len() as u64);
            tel.counter_add(
                ADAPTIVE_TESTS_ADDED,
                rounds.iter().map(|r| r.tests_added as u64).sum(),
            );
            tel.counter_add(ADAPTIVE_STEPS_ADDED, total_steps);
            tel.counter_add(
                ADAPTIVE_NEW_DETECTIONS,
                rounds.iter().map(|r| r.new_detections as u64).sum(),
            );
            tel.counter_add(
                ADAPTIVE_SURVIVORS,
                rounds.last().map_or(work.len(), |r| r.survivors) as u64,
            );
            tel.counter_add(
                ADAPTIVE_COLD_CELLS,
                rounds.last().map_or(transitions_total, |r| r.cold_cells) as u64,
            );
            tel.counter_add(ADAPTIVE_UNDETECTABLE, undetectable.len() as u64);
            tel.counter_add(ADAPTIVE_CLOSED, u64::from(closed));
        }
        ClosureRun {
            rounds,
            report: CampaignReport {
                outcomes: final_outcomes,
            },
            stats,
            tests,
            closed,
            undetectable: undetectable.len(),
            total_steps,
        }
    }

    /// One inner campaign on the plain pipeline configuration. Every
    /// caller zips the outcomes with its fault list, so an incomplete
    /// run fails loudly here instead.
    fn campaign(&self, faults: &[Fault], tests: &TestSet) -> CampaignReport {
        let cfg = &self.config;
        let mut campaign = ResilientCampaign::new(self.golden, faults, tests).engine(cfg.engine);
        if cfg.jobs > 0 {
            campaign = campaign.jobs(cfg.jobs);
        }
        if let Some(tel) = &self.telemetry {
            campaign = campaign.telemetry(tel.clone());
        }
        if let Some(ctx) = self.symbolic {
            campaign = campaign.symbolic(ctx);
        }
        let run = campaign
            .run()
            .expect("an unjournaled campaign without a certificate cannot fail");
        assert!(
            run.is_complete,
            "closure campaign incomplete: {:?}",
            run.failures
        );
        run.report
    }
}

/// Cells `(state, input)` that are defined and whose source state is
/// reachable from reset — the denominator of transition coverage (and
/// the universe the cold-cell bias draws from).
fn reachable_cells(m: &ExplicitMealy) -> Vec<bool> {
    let ni = m.num_inputs();
    let mut cells = vec![false; m.num_states() * ni];
    let mut seen = vec![false; m.num_states()];
    seen[m.reset().0 as usize] = true;
    let mut q = VecDeque::from([m.reset()]);
    while let Some(u) = q.pop_front() {
        for i in m.inputs() {
            if let Some((v, _)) = m.step(u, i) {
                cells[u.0 as usize * ni + i.0 as usize] = true;
                if !seen[v.0 as usize] {
                    seen[v.0 as usize] = true;
                    q.push_back(v);
                }
            }
        }
    }
    cells
}

/// Marks the cells `seq` traverses from reset (stopping at the first
/// undefined step, like the simulators do).
fn mark_covered(m: &ExplicitMealy, seq: &[InputSym], covered: &mut [bool]) {
    let ni = m.num_inputs();
    let mut cur = m.reset();
    for &i in seq {
        match m.step(cur, i) {
            Some((next, _)) => {
                covered[cur.0 as usize * ni + i.0 as usize] = true;
                cur = next;
            }
            None => break,
        }
    }
}

/// SplitMix64-style derivation of independent per-round generator seeds
/// from the configured seed.
fn round_seed(seed: u64, round: usize, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add((round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, run_campaign, FaultSpace};
    use crate::models::figure2;

    #[test]
    fn figure2_closes_and_matches_a_from_scratch_campaign() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let run = ClosureDriver::new(&m, &faults, ClosureConfig::default()).run();
        assert!(run.closed, "{:?}", run.rounds);
        assert_eq!(run.stats.detected + run.undetectable, faults.len());
        assert!(run.undetectable > 0, "figure2 has equivalent mutants");
        assert_eq!(run.total_steps, run.tests.total_vectors() as u64);
        // The accumulated-outcome merge is exact: re-simulating every
        // fault against the final accumulated test set from scratch
        // reproduces the incremental report bit for bit.
        let scratch = run_campaign(&m, &faults, &run.tests);
        assert_eq!(run.report, scratch);
    }

    #[test]
    fn seeded_runs_are_bit_identical_across_jobs_and_engines() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let base = ClosureDriver::new(&m, &faults, ClosureConfig::default()).run();
        for engine in [Engine::Naive, Engine::Differential] {
            for jobs in [1, 2, 8] {
                let cfg = ClosureConfig {
                    engine,
                    jobs,
                    ..ClosureConfig::default()
                };
                let run = ClosureDriver::new(&m, &faults, cfg).run();
                assert_eq!(run.rounds, base.rounds, "{engine:?} jobs={jobs}");
                assert_eq!(run.report, base.report, "{engine:?} jobs={jobs}");
                assert_eq!(run.tests, base.tests, "{engine:?} jobs={jobs}");
                assert_eq!(run.stats, base.stats, "{engine:?} jobs={jobs}");
            }
        }
    }

    #[test]
    fn collapse_rounds_target_representatives_and_expand_back() {
        use crate::collapse::ClassKind;
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        // Singleton partition: sound for any fault list, and exercises
        // the check → representative → expand path end to end. (Sound
        // *merging* partitions come from `simcov-analyze`; the CLI tests
        // drive closure through a real analysis certificate.)
        let cert = CollapseCertificate::new(
            &m,
            &faults,
            (0..faults.len() as u32).collect(),
            vec![ClassKind::Singleton; faults.len()],
            Vec::new(),
        )
        .unwrap();
        let plain = ClosureDriver::new(&m, &faults, ClosureConfig::default()).run();
        let collapsed = ClosureDriver::new(&m, &faults, ClosureConfig::default())
            .collapse(&cert)
            .run();
        assert!(collapsed.closed);
        assert_eq!(collapsed.report.outcomes.len(), faults.len());
        assert_eq!(
            collapsed.stats.detected + collapsed.undetectable,
            faults.len()
        );
        // Under the identity partition the collapsed run must reproduce
        // the plain run exactly.
        assert_eq!(collapsed.report, plain.report);
        assert_eq!(collapsed.rounds, plain.rounds);
    }

    #[test]
    fn zero_round_budget_reports_everything_undetected() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let cfg = ClosureConfig {
            max_rounds: 0,
            ..ClosureConfig::default()
        };
        let run = ClosureDriver::new(&m, &faults, cfg).run();
        assert!(!run.closed);
        assert!(run.rounds.is_empty());
        assert_eq!(run.stats.detected, 0);
        assert_eq!(run.report.outcomes.len(), faults.len());
        assert_eq!(run.total_steps, 0);
    }

    #[test]
    fn empty_fault_list_is_trivially_closed() {
        let (m, _) = figure2();
        let run = ClosureDriver::new(&m, &[], ClosureConfig::default()).run();
        assert!(run.closed);
        assert!(run.rounds.is_empty());
        assert_eq!(run.stats.faults_simulated, 0);
    }

    #[test]
    fn step_budget_stops_the_loop_between_rounds() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let cfg = ClosureConfig {
            max_steps: Some(1),
            max_rounds: 8,
            ..ClosureConfig::default()
        };
        let run = ClosureDriver::new(&m, &faults, cfg).run();
        // The budget is a soft cap: round 0 runs (and may overshoot),
        // then no new round starts.
        assert_eq!(run.rounds.len(), 1);
        assert!(run.total_steps >= 1);
    }

    #[test]
    fn telemetry_records_rounds_and_closure() {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(&m, &FaultSpace::default());
        let tel = Telemetry::new();
        let run = ClosureDriver::new(&m, &faults, ClosureConfig::default())
            .telemetry(tel.clone())
            .run();
        let snap = tel.snapshot();
        assert_eq!(snap.counter(ADAPTIVE_ROUNDS), Some(run.rounds.len() as u64));
        assert_eq!(snap.counter(ADAPTIVE_STEPS_ADDED), Some(run.total_steps));
        assert_eq!(snap.counter(ADAPTIVE_CLOSED), Some(1));
        assert_eq!(snap.counter(ADAPTIVE_SURVIVORS), Some(0));
    }
}
