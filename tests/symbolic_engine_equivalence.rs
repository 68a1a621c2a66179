//! Engine equivalence across every engine: the symbolic shard engine
//! must produce bit-identical `FaultOutcome` vectors and merged
//! `CampaignStats` to the naive and differential engines — on the
//! reduced observable DLX control model and on seeded random netlists,
//! at every job count — and its merged BDD effort counters must be
//! byte-identical across job counts (per-shard managers, shard-ordered
//! merge). The integration-level counterpart of the per-fault property
//! tests in `crates/core/src/symbolic.rs` and of the CI engine gate.
//! (The test names predate the retirement of a fourth, word-packed
//! engine; they are kept so test histories stay comparable.)

use simcov::core::{
    enumerate_single_faults, extend_cyclically, Engine, FaultSpace, ResilientCampaign,
    SymbolicContext, SymbolicEngineStats,
};
use simcov::dlx::testmodel::{reduced_control_netlist_observable, reduced_valid_inputs};
use simcov::fsm::{enumerate_netlist, EnumerateOptions, ExplicitMealy};
use simcov::netlist::Netlist;
use simcov::prng::Prng;
use simcov::tour::{transition_tour, TestSet};

fn dlx_fixture() -> (Netlist, EnumerateOptions, ExplicitMealy) {
    let n = reduced_control_netlist_observable();
    let opts = reduced_valid_inputs(&n);
    let m = enumerate_netlist(&n, &opts).expect("reduced model enumerates");
    (n, opts, m)
}

/// Random swept netlist, as in `symbolic_vs_explicit.rs`; `None` when
/// sweeping leaves nothing sequential to compare.
fn random_netlist(seed: u64) -> Option<Netlist> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut n = Netlist::new();
    let inputs: Vec<_> = (0..3).map(|i| n.add_input(format!("i{i}"))).collect();
    let latches: Vec<_> = (0..5)
        .map(|i| n.add_latch(format!("q{i}"), rng.gen_bool(0.5)))
        .collect();
    let louts: Vec<_> = latches.iter().map(|&l| n.latch_output(l)).collect();
    let mut pool: Vec<_> = inputs.iter().chain(louts.iter()).copied().collect();
    for _ in 0..18 {
        let a = pool[rng.gen_range(0..pool.len() as u32) as usize];
        let b = pool[rng.gen_range(0..pool.len() as u32) as usize];
        let g = match rng.gen_range(0..4u32) {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            _ => n.not(a),
        };
        pool.push(g);
    }
    for &l in &latches {
        let s = pool[rng.gen_range(0..pool.len() as u32) as usize];
        n.set_latch_next(l, s);
    }
    let o1 = pool[rng.gen_range(0..pool.len() as u32) as usize];
    let o2 = pool[rng.gen_range(0..pool.len() as u32) as usize];
    n.add_output("o1", o1);
    n.add_output("o2", o2);
    let n = simcov::netlist::transform::sweep(&n);
    if n.num_latches() == 0 || n.num_inputs() == 0 || n.num_outputs() == 0 {
        return None;
    }
    Some(n)
}

/// Runs every engine on the same campaign at `jobs` workers and asserts
/// bit-identity of outcomes and merged stats; returns the symbolic run's
/// merged BDD effort for cross-jobs comparison.
fn assert_engines_agree(
    m: &ExplicitMealy,
    ctx: &SymbolicContext<'_>,
    faults: &[simcov::core::Fault],
    tests: &TestSet,
    jobs: usize,
    label: &str,
) -> SymbolicEngineStats {
    let naive = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .run()
        .unwrap();
    let symbolic = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Symbolic)
        .symbolic(ctx)
        .jobs(jobs)
        .run()
        .unwrap();
    assert_eq!(
        symbolic.report.outcomes, naive.report.outcomes,
        "{label}: symbolic vs naive outcomes"
    );
    assert_eq!(symbolic.stats, naive.stats, "{label}: merged stats");
    let differential = ResilientCampaign::new(m, faults, tests)
        .engine(Engine::Differential)
        .jobs(jobs)
        .run()
        .unwrap();
    assert_eq!(
        differential.report.outcomes, naive.report.outcomes,
        "{label}: differential vs naive outcomes"
    );
    assert_eq!(
        differential.stats, naive.stats,
        "{label}: differential merged stats"
    );
    assert!(
        symbolic.sym.unique_nodes > 0,
        "{label}: symbolic run must report BDD effort"
    );
    symbolic.sym
}

#[test]
fn dlx_campaign_is_identical_across_all_four_engines_at_any_job_count() {
    let (n, opts, m) = dlx_fixture();
    let ctx = SymbolicContext::new(&n, &m, &opts.inputs).expect("netlist bridges the machine");
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 400,
            seed: 7,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).expect("DLX model is strongly connected");
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
    let mut efforts = Vec::new();
    for jobs in [1usize, 2, 8] {
        efforts.push(assert_engines_agree(
            &m,
            &ctx,
            &faults,
            &tests,
            jobs,
            &format!("dlx jobs={jobs}"),
        ));
    }
    // Per-shard managers + shard-ordered merge: the summed BDD effort
    // counters are a pure function of the shard partition, which is
    // jobs-independent — so the merged counters must match exactly.
    assert_eq!(efforts[0], efforts[1], "bdd effort jobs=1 vs jobs=2");
    assert_eq!(efforts[0], efforts[2], "bdd effort jobs=1 vs jobs=8");
}

#[test]
fn random_netlist_campaigns_are_identical_across_all_four_engines() {
    let mut checked = 0;
    for seed in 0..8u64 {
        let Some(n) = random_netlist(seed) else {
            continue;
        };
        let opts = EnumerateOptions::exhaustive(&n);
        let Ok(m) = enumerate_netlist(&n, &opts) else {
            continue;
        };
        let ctx = SymbolicContext::new(&n, &m, &opts.inputs).expect("netlist bridges the machine");
        let faults = enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: 120,
                seed,
                ..FaultSpace::default()
            },
        );
        if faults.is_empty() {
            continue;
        }
        let mut rng = Prng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let ni = m.num_inputs() as u32;
        let tests = TestSet {
            sequences: (0..3)
                .map(|_| {
                    let len = rng.gen_range(4..32u32) as usize;
                    (0..len)
                        .map(|_| simcov::fsm::InputSym(rng.gen_range(0..ni)))
                        .collect()
                })
                .collect(),
        };
        for jobs in [1usize, 2, 8] {
            assert_engines_agree(
                &m,
                &ctx,
                &faults,
                &tests,
                jobs,
                &format!("seed {seed} jobs={jobs}"),
            );
        }
        checked += 1;
    }
    assert!(checked >= 4, "generator must yield enough sequential nets");
}
