//! Shared fixtures for the benchmark harness (see `benches/` and the
//! `report` binary, which regenerate every table and figure of the
//! paper's evaluation).

use simcov_fsm::{ExplicitMealy, MealyBuilder};

pub mod check;
pub mod timing;

/// A strongly connected ring machine with *unevenly distributed* chord
/// edges, parameterised by size — the synthetic workload for tour-quality
/// scaling. The uneven chords unbalance vertex degrees, so a minimum
/// transition tour must duplicate edges (the non-trivial Chinese-postman
/// case) and the greedy heuristic pays a visible penalty.
pub fn ring_with_chords(n: usize) -> ExplicitMealy {
    assert!(n >= 4, "ring needs at least 4 states");
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let step = b.add_input("step");
    let jump = b.add_input("jump");
    let back = b.add_input("back");
    let outs: Vec<_> = (0..n).map(|i| b.add_output(format!("o{i}"))).collect();
    for i in 0..n {
        b.add_transition(states[i], step, states[(i + 1) % n], outs[i]);
        // Chords exist only from every third state, all converging near
        // the ring's origin: heavy in-degree imbalance.
        if i % 3 == 0 {
            b.add_transition(states[i], jump, states[(i * 7 + 1) % n], outs[(i + 1) % n]);
            b.add_transition(states[i], back, states[i % 5], outs[i]);
        }
    }
    b.build(states[0]).expect("ring machine is well-formed")
}

/// A strongly connected two-input ring with a *wide* output alphabet —
/// the collapse-rich workload for static fault collapsing. Output-fault
/// enumeration produces `outputs - 1` wrong labels per `(state, input)`
/// cell, and every one of them is detected at the cell's first traversal
/// whatever the wrong label is, so the whole cell folds into a single
/// equivalence class: the certificate prunes an output-fault campaign by
/// a factor approaching `outputs - 1`. The `skip` chords keep vertex
/// degrees balanced enough for the postman tour to stay cheap.
pub fn wide_output_ring(n: usize, outputs: usize) -> ExplicitMealy {
    assert!(n >= 4, "ring needs at least 4 states");
    assert!(outputs >= 2, "collapsing needs at least 2 output symbols");
    let mut b = MealyBuilder::new();
    let states: Vec<_> = (0..n).map(|i| b.add_state(format!("s{i}"))).collect();
    let step = b.add_input("step");
    let skip = b.add_input("skip");
    let outs: Vec<_> = (0..outputs)
        .map(|i| b.add_output(format!("o{i}")))
        .collect();
    for i in 0..n {
        b.add_transition(states[i], step, states[(i + 1) % n], outs[i % outputs]);
        b.add_transition(
            states[i],
            skip,
            states[(i + 2) % n],
            outs[(i * 7 + 3) % outputs],
        );
    }
    b.build(states[0]).expect("wide-output ring is well-formed")
}

/// The reduced DLX control model (observable variant) as an explicit
/// machine — the standard fixture for completeness and coverage
/// experiments.
pub fn reduced_dlx_machine() -> ExplicitMealy {
    let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
    let opts = simcov_dlx::testmodel::reduced_valid_inputs(&n);
    simcov_fsm::enumerate_netlist(&n, &opts).expect("reduced model enumerates")
}

/// The reduced DLX control model without observability (the
/// requirement-violating baseline).
pub fn reduced_dlx_machine_hidden() -> ExplicitMealy {
    let n = simcov_dlx::testmodel::reduced_control_netlist();
    let opts = simcov_dlx::testmodel::reduced_valid_inputs(&n);
    simcov_fsm::enumerate_netlist(&n, &opts).expect("reduced model enumerates")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let r = ring_with_chords(10);
        assert_eq!(r.num_states(), 10);
        assert!(r.is_strongly_connected());
        let m = reduced_dlx_machine();
        assert!(m.is_complete());
        let h = reduced_dlx_machine_hidden();
        assert_eq!(m.num_states(), h.num_states());
        let w = wide_output_ring(64, 16);
        assert!(w.is_strongly_connected());
        assert!(w.is_complete());
        assert_eq!(w.num_outputs(), 16);
    }
}
