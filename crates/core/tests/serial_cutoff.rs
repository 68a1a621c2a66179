//! Determinism across the serial cutoff: with an automatic worker
//! count, differential campaigns just below [`DIFFERENTIAL_SERIAL_CUTOFF`]
//! run on the calling thread and just above it on the worker pool; the
//! other engines and explicit counts ignore the cutoff. Either way,
//! outcomes, stats, report text and telemetry traces must be
//! byte-identical at every worker count and across engines, and a resumed
//! checkpoint journal must match an uninterrupted one byte for byte.

use simcov_core::{
    default_jobs, enumerate_single_faults, Engine, Fault, FaultSpace, ResilientCampaign,
    ResilientRun, SymbolicContext, DIFFERENTIAL_SERIAL_CUTOFF,
};
use simcov_fsm::{enumerate_netlist, EnumerateOptions, ExplicitMealy, InputSym};
use simcov_netlist::Netlist;
use simcov_obs::Telemetry;
use simcov_prng::Prng;
use simcov_tour::TestSet;
use std::path::PathBuf;

/// Worker counts to run: automatic (`None`) and three explicit ones.
const JOB_COUNTS: [Option<usize>; 4] = [None, Some(1), Some(2), Some(8)];

/// Four latches, two inputs: all 16 states reachable and enough faults
/// to straddle the differential engine's cutoff.
fn netlist() -> Netlist {
    let mut n = Netlist::new();
    let a = n.add_input("a");
    let b = n.add_input("b");
    let q: Vec<_> = (0..4)
        .map(|i| n.add_latch(format!("q{i}"), i == 0))
        .collect();
    let o: Vec<_> = q.iter().map(|&l| n.latch_output(l)).collect();
    let next0 = n.xor(o[3], a);
    let carry = n.and(o[0], b);
    let next1 = n.xor(o[1], carry);
    let next2 = n.mux(b, o[1], o[2]);
    let next3 = n.xor(o[2], o[0]);
    for (latch, next) in q.iter().zip([next0, next1, next2, next3]) {
        n.set_latch_next(*latch, next);
    }
    let obs = n.and(o[0], o[3]);
    let par = n.xor(o[1], o[2]);
    n.add_output("obs", obs);
    n.add_output("par", par);
    n
}

/// Seeded random sequences totalling exactly `vectors` inputs.
fn tests(m: &ExplicitMealy, vectors: usize) -> TestSet {
    let mut rng = Prng::seed_from_u64(vectors as u64);
    let ni = m.num_inputs() as u32;
    let mut sequences = Vec::new();
    let mut left = vectors;
    while left > 0 {
        let len = left.min(64);
        sequences.push((0..len).map(|_| InputSym(rng.gen_range(0..ni))).collect());
        left -= len;
    }
    let tests = TestSet { sequences };
    assert_eq!(tests.total_vectors(), vectors);
    tests
}

/// Fault counts whose work (faults × vectors) sits just below and just
/// at `cutoff`.
fn straddle(cutoff: u64, vectors: usize) -> [usize; 2] {
    let below = ((cutoff - 1) / vectors as u64) as usize;
    [below, below + 1]
}

/// What a run shows the world: outcomes, stats, report text, trace.
#[derive(Debug, PartialEq)]
struct Observed {
    outcomes: String,
    stats: String,
    text: String,
    trace: String,
}

fn observe(run: &ResilientRun, tel: &Telemetry) -> Observed {
    Observed {
        outcomes: format!("{:?}", run.report.outcomes),
        stats: format!("{:?}", run.stats),
        text: format!("campaign: {}\nstats: {}\n", run.report, run.stats),
        trace: tel.snapshot().to_jsonl(),
    }
}

fn campaign<'a>(
    m: &'a ExplicitMealy,
    faults: &'a [Fault],
    tests: &'a TestSet,
    ctx: &'a SymbolicContext<'a>,
    engine: Engine,
    jobs: Option<usize>,
) -> (ResilientRun, Telemetry) {
    let tel = Telemetry::new();
    let mut campaign = ResilientCampaign::new(m, faults, tests)
        .symbolic(ctx)
        .engine(engine)
        .telemetry(tel.clone());
    if let Some(jobs) = jobs {
        campaign = campaign.jobs(jobs);
    }
    let run = campaign.run().expect("campaign runs");
    assert!(run.is_complete);
    (run, tel)
}

/// Runs `engines` just below and just above `cutoff`, checking worker
/// count invariance per engine, agreement across engines, and which
/// worker count each run used.
fn check_straddle(cutoff: u64, vectors: usize, engines: &[Engine]) {
    let n = netlist();
    let opts = EnumerateOptions::exhaustive(&n);
    let m = enumerate_netlist(&n, &opts).expect("enumerates");
    let ctx = SymbolicContext::new(&n, &m, &opts.inputs).expect("context validates");
    let all = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    );
    let tests = tests(&m, vectors);
    for (side, count) in straddle(cutoff, vectors).into_iter().enumerate() {
        assert!(
            count <= all.len(),
            "{count} faults wanted, {} exist",
            all.len()
        );
        let faults = &all[..count];
        let mut reference: Option<Observed> = None;
        for &engine in engines {
            let mut first: Option<Observed> = None;
            for jobs in JOB_COUNTS {
                let (run, tel) = campaign(&m, faults, &tests, &ctx, engine, jobs);
                let serial = engine == Engine::Differential
                    && ((count * vectors) as u64) < DIFFERENTIAL_SERIAL_CUTOFF;
                let used = jobs.unwrap_or(if serial { 1 } else { default_jobs() });
                assert_eq!(run.jobs, used, "{engine}, {count} faults, jobs={jobs:?}");
                let seen = observe(&run, &tel);
                match &first {
                    None => first = Some(seen),
                    Some(f) => assert_eq!(f, &seen, "{engine}, {count} faults, jobs={jobs:?}"),
                }
            }
            let seen = first.expect("ran");
            match &reference {
                // Engine effort counters differ by engine; everything
                // else must agree.
                Some(r) => {
                    assert_eq!(r.outcomes, seen.outcomes, "{engine}, side {side}");
                    assert_eq!(r.stats, seen.stats, "{engine}, side {side}");
                    assert_eq!(r.text, seen.text, "{engine}, side {side}");
                }
                None => reference = Some(seen),
            }
        }
    }
}

#[test]
fn differential_cutoff_is_invisible() {
    // The naive engine ignores the cutoff and is the reference here. The
    // symbolic engine takes about 90 s at this size in a debug build; it
    // is covered by `other_engines_ignore_the_cutoff`.
    check_straddle(
        DIFFERENTIAL_SERIAL_CUTOFF,
        4096,
        &[Engine::Naive, Engine::Differential],
    );
}

#[test]
fn other_engines_ignore_the_cutoff() {
    // 20,000 fault-steps: far below the cutoff, so an automatic
    // differential run is serial while naive and symbolic still fan out.
    check_straddle(20_000, 50, &Engine::ALL);
}

struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn scratch(tag: &str) -> Scratch {
    Scratch(std::env::temp_dir().join(format!(
        "simcov_serial_cutoff_{tag}_{}.journal",
        std::process::id()
    )))
}

/// Below the cutoff an automatic worker count completes shards in shard
/// order, as one explicit worker does, so a campaign stopped by its step
/// budget and resumed leaves a journal identical to an uninterrupted
/// run's.
#[test]
fn resumed_journal_matches_below_the_cutoff() {
    let n = netlist();
    let opts = EnumerateOptions::exhaustive(&n);
    let m = enumerate_netlist(&n, &opts).expect("enumerates");
    let vectors = 1024;
    let tests = tests(&m, vectors);
    let faults = &enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: usize::MAX,
            ..FaultSpace::default()
        },
    );
    assert!(((faults.len() * vectors) as u64) < DIFFERENTIAL_SERIAL_CUTOFF);
    // Serial runs: the automatic count below the cutoff, and one worker.
    for jobs in [None, Some(1)] {
        let campaign = |path: &Scratch| {
            let c = ResilientCampaign::new(&m, faults, &tests).checkpoint(&path.0);
            match jobs {
                Some(j) => c.jobs(j),
                None => c,
            }
        };
        let clean_path = scratch(&format!("clean{jobs:?}"));
        let clean = campaign(&clean_path).run().unwrap();
        assert!(clean.is_complete);
        assert_eq!(clean.jobs, 1, "jobs={jobs:?} runs serially");

        let path = scratch(&format!("resumed{jobs:?}"));
        let partial = campaign(&path)
            .max_steps((faults.len() / 2 * vectors) as u64)
            .run()
            .unwrap();
        assert!(!partial.is_complete, "the step budget stops it halfway");
        let resumed = campaign(&path).resume(true).run().unwrap();
        assert!(resumed.is_complete);
        assert!(resumed.restored_shards > 0);
        assert_eq!(resumed.report, clean.report, "jobs={jobs:?}");
        assert_eq!(resumed.stats, clean.stats, "jobs={jobs:?}");
        assert_eq!(
            std::fs::read(&path.0).unwrap(),
            std::fs::read(&clean_path.0).unwrap(),
            "journal bytes, jobs={jobs:?}"
        );
    }
}
