//! Deterministic sharding, scheduling and engine dispatch for fault
//! campaigns.
//!
//! A fault campaign is embarrassingly parallel — every injected fault is
//! simulated against the golden machine independently — but the paper's
//! empirical methodology (and this repo's tests) demand *bit-identical*
//! results regardless of how the work is scheduled. The one campaign
//! pipeline, [`ResilientCampaign`](crate::ResilientCampaign), therefore
//! builds on three pieces from this module:
//!
//! 1. **Sharding** is a pure function of the fault count
//!    ([`default_shard_size`]): the fault list is split into contiguous
//!    index ranges, never influenced by the thread count.
//! 2. **Scheduling** is dynamic: [`run_sharded`] drains shards from an
//!    atomic work queue on a `std::thread::scope` worker pool, so a slow
//!    shard does not stall the rest, and returns results in shard order.
//! 3. **Simulation** of a shard goes through a [`ShardSimulator`], the
//!    engine resolved once per campaign together with the state it shares
//!    read-only across shards.
//!
//! Shard tallies merge with [`CampaignStats::merge`], a plain
//! component-wise sum. Because per-fault simulation is deterministic and
//! the shard partition is thread-count independent, a campaign run with
//! 1, 2 or 64 workers produces the same
//! [`CampaignReport`](crate::CampaignReport) and the same
//! [`CampaignStats`], byte for byte.

use crate::differential::{simulate_fault_differential, DiffStats, Engine, GoldenTrace};
use crate::error_model::Fault;
use crate::faults::{simulate_fault, FaultOutcome};
use crate::symbolic::{simulate_shard_symbolic, SymbolicContext, SymbolicEngineStats};
use simcov_fsm::ExplicitMealy;
use simcov_obs::Telemetry;
use simcov_tour::TestSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 if it cannot be queried).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shard size for `len` items: contiguous ranges, at most 256 shards.
/// Purely a function of `len` so the partition — and therefore every
/// deterministic field of the result — is independent of the job count.
///
/// Public because the shard partition is part of the deterministic result
/// surface: the resilient supervisor and the checkpoint journal must
/// compute exactly this partition to restore a campaign bit-identically.
pub fn default_shard_size(len: usize) -> usize {
    len.div_ceil(256).max(1)
}

/// Runs `work` over contiguous shards of `items` on a pool of `jobs`
/// scoped threads and returns the per-shard results **in shard order**.
///
/// `work` receives the shard index and the shard's slice. Shards are
/// handed out through an atomic queue, so workers that finish early pick
/// up the remaining shards. With `jobs <= 1` (or a single shard) the
/// work runs on the calling thread — no thread is spawned, which keeps
/// single-threaded callers allocation- and syscall-cheap.
pub fn run_sharded<T, R, F>(items: &[T], shard_size: usize, jobs: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(shard_size > 0, "shard_size must be nonzero");
    let shards: Vec<&[T]> = items.chunks(shard_size).collect();
    let workers = jobs.max(1).min(shards.len());
    if workers <= 1 {
        return shards.iter().enumerate().map(|(i, s)| work(i, s)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..shards.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(shard) = shards.get(i) else { break };
                let r = work(i, shard);
                slots.lock().expect("no worker panicked holding the lock")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("scope joined all workers")
        .into_iter()
        .map(|r| r.expect("every shard index was claimed"))
        .collect()
}

/// Deterministic campaign counters. Identical across thread counts for
/// the same (machine, faults, tests) triple; merged across shards with
/// the commutative, associative [`merge`](CampaignStats::merge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Faults simulated (= faults injected).
    pub faults_simulated: usize,
    /// Faults whose output diverged from the golden machine.
    pub detected: usize,
    /// Faults whose faulty transition was traversed by some sequence.
    pub excited: usize,
    /// Faults showing a masked excursion (diverge/reconverge unobserved).
    pub masked: usize,
    /// Excited but never detected — the paper's escapes.
    pub escapes: usize,
    /// Shards merged into this tally.
    pub shards: usize,
}

impl CampaignStats {
    /// Tallies one shard's outcomes.
    pub fn tally(outcomes: &[FaultOutcome]) -> Self {
        let mut s = CampaignStats {
            faults_simulated: outcomes.len(),
            shards: 1,
            ..Default::default()
        };
        for o in outcomes {
            if o.detected.is_some() {
                s.detected += 1;
            }
            if o.excited {
                s.excited += 1;
                if o.detected.is_none() {
                    s.escapes += 1;
                }
            }
            if o.masked_somewhere {
                s.masked += 1;
            }
        }
        s
    }

    /// Component-wise sum: commutative and associative, so any merge
    /// tree over the same shard set yields the same totals.
    pub fn merge(&mut self, other: &CampaignStats) {
        self.faults_simulated += other.faults_simulated;
        self.detected += other.detected;
        self.excited += other.excited;
        self.masked += other.masked;
        self.escapes += other.escapes;
        self.shards += other.shards;
    }

    /// Fraction of faults detected in `[0, 1]` (1 on an empty campaign).
    pub fn detection_rate(&self) -> f64 {
        if self.faults_simulated == 0 {
            1.0
        } else {
            self.detected as f64 / self.faults_simulated as f64
        }
    }
}

impl std::fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} faults simulated: {} detected ({:.1}%), {} excited, {} masked, {} escapes \
             [{} shards]",
            self.faults_simulated,
            self.detected,
            100.0 * self.detection_rate(),
            self.excited,
            self.masked,
            self.escapes,
            self.shards
        )
    }
}

/// A fault-simulation [`Engine`] resolved for one campaign: everything
/// a shard of that campaign is simulated with, borrowed read-only so
/// every worker shares it.
///
/// [`new`](Self::new) is the one place that turns an [`Engine`] into a
/// way of simulating a shard; the campaign supervisor and the server's
/// engine audit both simulate through it.
pub struct ShardSimulator<'a> {
    golden: &'a ExplicitMealy,
    tests: &'a TestSet,
    kind: SimKind<'a>,
}

#[derive(Clone, Copy)]
enum SimKind<'a> {
    Naive,
    Differential(&'a GoldenTrace),
    Symbolic(&'a SymbolicContext<'a>),
}

impl<'a> ShardSimulator<'a> {
    /// Resolves `engine` for campaigns of `golden` under `tests`.
    /// [`Engine::Differential`] needs the golden `trace` built from this
    /// `(golden, tests)` pair, and [`Engine::Symbolic`] a netlist bridge
    /// `sym` validated against `golden` ([`SymbolicContext::new`]).
    /// Returns `None` when the engine's shared state is missing.
    pub fn new(
        engine: Engine,
        golden: &'a ExplicitMealy,
        tests: &'a TestSet,
        trace: Option<&'a GoldenTrace>,
        sym: Option<&'a SymbolicContext<'a>>,
    ) -> Option<Self> {
        let kind = match engine {
            Engine::Naive => SimKind::Naive,
            Engine::Differential => SimKind::Differential(trace?),
            Engine::Symbolic => SimKind::Symbolic(sym?),
        };
        Some(ShardSimulator {
            golden,
            tests,
            kind,
        })
    }

    /// Simulates `shard`, returning one outcome per fault in order, or
    /// `None` as soon as `admit` refuses a fault. `admit` is asked once
    /// per fault, in fault order, under every engine: the scalar engines
    /// ask before each fault, the symbolic engine — which walks the shard
    /// as a whole — asks for all of them up front. Engine effort
    /// accumulates into `diff` (differential) or `sym` (symbolic).
    pub fn simulate(
        &self,
        shard: &[Fault],
        mut admit: impl FnMut() -> bool,
        diff: &mut DiffStats,
        sym: &mut SymbolicEngineStats,
    ) -> Option<Vec<FaultOutcome>> {
        let (golden, tests) = (self.golden, self.tests);
        if let SimKind::Symbolic(ctx) = self.kind {
            if !shard.iter().all(|_| admit()) {
                return None;
            }
            return Some(simulate_shard_symbolic(ctx, golden, shard, tests, sym));
        }
        let mut outcomes = Vec::with_capacity(shard.len());
        for f in shard {
            if !admit() {
                return None;
            }
            outcomes.push(match self.kind {
                SimKind::Differential(trace) => {
                    simulate_fault_differential(golden, trace, f, tests, diff)
                }
                _ => simulate_fault(golden, f, tests),
            });
        }
        Some(outcomes)
    }

    /// Adds this engine's effort counters to `tel`: the differential
    /// counters of `diff`, the BDD-package counters of `sym`, or nothing
    /// for the naive engine. Callers pass totals merged in shard order,
    /// so the trace stays byte-identical across thread counts.
    pub(crate) fn record_effort(
        &self,
        tel: &Telemetry,
        diff: &DiffStats,
        sym: &SymbolicEngineStats,
    ) {
        use simcov_obs::names;
        match self.kind {
            SimKind::Naive => {}
            SimKind::Differential(_) => {
                tel.counter_add(
                    names::CAMPAIGN_FAULTS_SKIPPED_BY_INDEX,
                    diff.faults_skipped_by_index as u64,
                );
                tel.counter_add(
                    names::CAMPAIGN_PREFIX_STEPS_SAVED,
                    diff.prefix_steps_saved as u64,
                );
                tel.counter_add(
                    names::CAMPAIGN_DIVERGENCE_REPLAYS,
                    diff.divergence_replays as u64,
                );
            }
            SimKind::Symbolic(_) => {
                tel.counter_add(names::BDD_UNIQUE_NODES, sym.unique_nodes);
                tel.counter_add(names::BDD_ITE_CACHE_HITS, sym.ite_cache_hits);
                tel.counter_add(names::BDD_ITE_CACHE_MISSES, sym.ite_cache_misses);
                tel.counter_add(names::BDD_GC_COLLECTIONS, sym.gc_collections);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{enumerate_single_faults, extend_cyclically, FaultSpace};
    use crate::testutil::figure2;
    use crate::ResilientCampaign;
    use simcov_tour::transition_tour;

    fn fixture() -> (ExplicitMealy, Vec<Fault>, TestSet) {
        let (m, _) = figure2();
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: usize::MAX,
                ..FaultSpace::default()
            },
        );
        let tour = transition_tour(&m).unwrap();
        let tests = TestSet::single(extend_cyclically(&tour.inputs, 3));
        (m, faults, tests)
    }

    #[test]
    fn run_sharded_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        for jobs in [1, 3, 8] {
            let out = run_sharded(&items, 7, jobs, |idx, shard| (idx, shard.to_vec()));
            let mut flat = Vec::new();
            for (i, (idx, shard)) in out.into_iter().enumerate() {
                assert_eq!(i, idx);
                flat.extend(shard);
            }
            assert_eq!(flat, items);
        }
    }

    #[test]
    fn run_sharded_handles_empty_and_tiny_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(run_sharded(&none, 4, 8, |_, s| s.len()).is_empty());
        let one = [42u32];
        assert_eq!(run_sharded(&one, 4, 8, |_, s| s.len()), vec![1]);
    }

    #[test]
    fn stats_merge_is_commutative() {
        let a = CampaignStats {
            faults_simulated: 10,
            detected: 7,
            excited: 9,
            masked: 2,
            escapes: 2,
            shards: 1,
        };
        let b = CampaignStats {
            faults_simulated: 4,
            detected: 1,
            excited: 3,
            masked: 0,
            escapes: 2,
            shards: 3,
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.faults_simulated, 14);
        assert_eq!(ab.shards, 4);
    }

    #[test]
    fn shard_simulator_needs_its_engine_state_and_honours_admission() {
        let (m, faults, tests) = fixture();
        assert!(ShardSimulator::new(Engine::Differential, &m, &tests, None, None).is_none());
        assert!(ShardSimulator::new(Engine::Symbolic, &m, &tests, None, None).is_none());
        let trace = GoldenTrace::build(&m, &tests);
        let expected: Vec<FaultOutcome> = faults
            .iter()
            .map(|f| simulate_fault(&m, f, &tests))
            .collect();
        for engine in [Engine::Naive, Engine::Differential] {
            let sim = ShardSimulator::new(engine, &m, &tests, Some(&trace), None).unwrap();
            let (mut diff, mut sym) = (DiffStats::default(), SymbolicEngineStats::default());
            let all = sim.simulate(&faults, || true, &mut diff, &mut sym);
            assert_eq!(all.as_deref(), Some(&expected[..]), "{engine}");
            // A refusal anywhere in the shard discards the whole shard,
            // after asking exactly once per admitted fault.
            let mut asked = 0;
            let refused = sim.simulate(
                &faults,
                || {
                    asked += 1;
                    asked < 3
                },
                &mut diff,
                &mut sym,
            );
            assert_eq!(refused, None, "{engine}");
            assert_eq!(asked, 3, "{engine}");
        }
    }

    #[test]
    fn stats_display_mentions_the_counts() {
        let (m, faults, tests) = fixture();
        let run = ResilientCampaign::new(&m, &faults, &tests).run().unwrap();
        let s = run.stats.to_string();
        assert!(s.contains("faults simulated"), "{s}");
        assert!(s.contains("shards"), "{s}");
    }
}
