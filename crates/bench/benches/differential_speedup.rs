//! Differential vs naive fault-simulation engines on the reduced DLX
//! control model and a 10 000-state synthetic machine. Outcome
//! equivalence is asserted unconditionally (the differential engine is a
//! pure optimization); the >=5x median-speedup bar applies to the DLX
//! campaign, where golden-trace memoization, excitation indexing and
//! suffix-only replay avoid almost all of the naive clone-and-replay
//! work. Both engines run at jobs=1 so the ratio measures the algorithm,
//! not the thread pool.

use simcov_bench::timing::BenchReport;
use simcov_bench::{reduced_dlx_machine, ring_with_chords};
use simcov_core::{
    enumerate_single_faults, extend_cyclically, Engine, Fault, FaultSpace, ResilientCampaign,
};
use simcov_fsm::{ExplicitMealy, InputSym};
use simcov_prng::Xoshiro256pp;
use simcov_tour::{transition_tour, TestSet};

fn sample_faults(m: &ExplicitMealy, max_faults: usize) -> Vec<Fault> {
    enumerate_single_faults(
        m,
        &FaultSpace {
            max_faults,
            ..FaultSpace::default()
        },
    )
}

/// Tour-driven test set (the methodology's own workload shape).
fn tour_tests(m: &ExplicitMealy, laps: usize) -> TestSet {
    let tour = transition_tour(m).expect("fixture is strongly connected");
    TestSet::single(extend_cyclically(&tour.inputs, tour.inputs.len() * laps))
}

/// Seeded random-walk test set for machines too large for the postman
/// tour (min-cost Eulerian augmentation is super-linear in imbalance).
/// Walks follow *defined* golden transitions so partial machines do not
/// truncate the sequences after a handful of vectors.
fn random_tests(m: &ExplicitMealy, sequences: usize, len: usize, seed: u64) -> TestSet {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let ni = m.num_inputs() as u32;
    let sequences = (0..sequences)
        .map(|_| {
            let mut cur = m.reset();
            let mut seq = Vec::with_capacity(len);
            while seq.len() < len {
                let i = InputSym(rng.bounded_u64(ni as u64) as u32);
                if let Some((next, _)) = m.step(cur, i) {
                    seq.push(i);
                    cur = next;
                }
            }
            seq
        })
        .collect();
    TestSet { sequences }
}

/// Times one campaign per engine at jobs=1, asserts bit-identical
/// results, records both entries plus a `speedup_x100` counter, and
/// returns the naive/differential median ratio.
fn compare(
    rep: &mut BenchReport,
    case: &str,
    m: &ExplicitMealy,
    faults: &[Fault],
    tests: &TestSet,
) -> f64 {
    eprintln!(
        "  case {case}: {} states, {} faults, {} test vectors",
        m.num_states(),
        faults.len(),
        tests.total_vectors()
    );
    let run_with = |engine: Engine| {
        ResilientCampaign::new(m, faults, tests)
            .engine(engine)
            .jobs(1)
            .run()
            .unwrap()
    };
    let naive = run_with(Engine::Naive);
    let differential = run_with(Engine::Differential);
    assert_eq!(
        differential.report.outcomes, naive.report.outcomes,
        "{case}: per-fault outcomes must be engine-independent"
    );
    assert_eq!(
        differential.stats, naive.stats,
        "{case}: merged stats must be engine-independent"
    );

    let tn = rep.bench(&format!("differential_speedup/{case}_naive"), || {
        run_with(Engine::Naive)
    });
    let td = rep.bench(&format!("differential_speedup/{case}_differential"), || {
        run_with(Engine::Differential)
    });
    let speedup = tn.as_secs_f64() / td.as_secs_f64().max(f64::EPSILON);
    eprintln!("  {case}: {speedup:.2}x median speedup ({tn:.2?} naive vs {td:.2?} differential)");

    rep.counter(
        &format!("differential_speedup/{case}_faults"),
        faults.len() as u64,
    );
    rep.counter(
        &format!("differential_speedup/{case}_skipped_by_index"),
        differential.diff.faults_skipped_by_index as u64,
    );
    rep.counter(
        &format!("differential_speedup/{case}_prefix_steps_saved"),
        differential.diff.prefix_steps_saved as u64,
    );
    rep.counter(
        &format!("differential_speedup/{case}_divergence_replays"),
        differential.diff.divergence_replays as u64,
    );
    rep.counter(
        &format!("differential_speedup/{case}_speedup_x100"),
        (speedup * 100.0) as u64,
    );
    speedup
}

fn main() {
    eprintln!("== Differential fault-simulation speedup ==");
    let mut rep = BenchReport::new("differential_speedup");

    // Flagship case: the reduced DLX control model with a two-lap
    // extended transition tour — the paper's own validation workload.
    let dlx = reduced_dlx_machine();
    let dlx_speedup = compare(
        &mut rep,
        "dlx",
        &dlx,
        &sample_faults(&dlx, 4_000),
        &tour_tests(&dlx, 2),
    );

    // Scale case: 10 000 states under seeded random walks (the postman
    // tour is intractable at this imbalance). The sampled fault list
    // keeps the naive engine honest but tractable; most faults are
    // never excited, so the excitation index dominates.
    let ring = ring_with_chords(10_000);
    compare(
        &mut rep,
        "ring10k",
        &ring,
        &sample_faults(&ring, 400),
        &random_tests(&ring, 16, 2_500, 42),
    );

    rep.write().expect("write bench report");

    assert!(
        dlx_speedup >= 5.0,
        "expected >=5x median speedup over the naive engine on the DLX \
         campaign, measured {dlx_speedup:.2}x"
    );
}
