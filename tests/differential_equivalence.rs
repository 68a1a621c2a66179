//! Engine-equivalence on the flagship fixture: the differential
//! fault-simulation engine must produce bit-identical `FaultOutcome`
//! vectors and merged `CampaignStats` to the naive clone-and-replay
//! engine on the reduced DLX control model, at every job count — the
//! integration-level counterpart of the random-machine property test in
//! `crates/core/tests/properties.rs` and of the CI equivalence gate.

use simcov::core::{
    enumerate_single_faults, extend_cyclically, DiffStats, Engine, FaultSpace, ResilientCampaign,
};
use simcov::dlx::testmodel::{reduced_control_netlist_observable, reduced_valid_inputs};
use simcov::fsm::{enumerate_netlist, ExplicitMealy};
use simcov::tour::{transition_tour, TestSet};

fn dlx_fixture() -> (ExplicitMealy, Vec<simcov::core::Fault>, TestSet) {
    let n = reduced_control_netlist_observable();
    let opts = reduced_valid_inputs(&n);
    let m = enumerate_netlist(&n, &opts).expect("reduced model enumerates");
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 1_500,
            seed: 7,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).expect("DLX model is strongly connected");
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 2));
    (m, faults, tests)
}

#[test]
fn dlx_campaign_is_engine_independent_at_any_job_count() {
    let (m, faults, tests) = dlx_fixture();
    let naive = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(2)
        .run()
        .unwrap();
    assert_eq!(naive.diff, DiffStats::default());
    for jobs in [1, 2, 8] {
        let differential = ResilientCampaign::new(&m, &faults, &tests)
            .engine(Engine::Differential)
            .jobs(jobs)
            .run()
            .unwrap();
        assert_eq!(
            differential.report.outcomes, naive.report.outcomes,
            "per-fault outcomes must be engine-independent at jobs={jobs}"
        );
        assert_eq!(
            differential.stats, naive.stats,
            "merged stats must be engine-independent at jobs={jobs}"
        );
        // The tour traverses every transition, so every fault is excited:
        // the savings come from prefix sharing and index-only output
        // classification, not from skipping.
        assert!(differential.diff.prefix_steps_saved > 0);
    }
}

#[test]
fn dlx_supervised_campaign_is_engine_independent() {
    let (m, faults, tests) = dlx_fixture();
    let naive = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(2)
        .run()
        .expect("no checkpoint: supervision cannot fail");
    let differential = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Differential)
        .jobs(2)
        .run()
        .expect("no checkpoint: supervision cannot fail");
    assert!(naive.is_complete && differential.is_complete);
    assert_eq!(differential.report, naive.report);
    assert_eq!(differential.stats, naive.stats);
}
