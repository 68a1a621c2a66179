//! The simulation-coverage validation methodology of Gupta, Malik & Ashar
//! (DAC 1997), as an executable library.
//!
//! The paper's central result (Theorem 3): **a transition tour of a test
//! model is a complete test set** — it exposes *every* output and transfer
//! error of the implementation with respect to the specification —
//! provided the test model satisfies five requirements:
//!
//! 1. all output errors are *uniform* (the abstraction kept enough state);
//! 2. processing of each input completes within `k` transitions;
//! 3. each unique input produces a unique output (data selection);
//! 4. transfer errors are not masked;
//! 5. the state mediating interactions between successive inputs is
//!    observable.
//!
//! Module map:
//!
//! * [`error_model`] — Definitions 1–4: output errors, transfer errors,
//!   fault injection, detection, excitation and masking analysis;
//! * [`distinguish`] — Definition 5: ∀k-distinguishability with witness
//!   extraction (the hypothesis of Theorem 1);
//! * [`requirements`] — executable checkers for Requirements 1–5;
//! * [`theorems`] — Theorems 1–3 as certificate-producing procedures;
//! * [`faults`] — fault campaigns that *empirically* validate the
//!   certificates: every injected fault must be caught by a transition
//!   tour on a compliant model;
//! * [`resilient`] — the one campaign pipeline, [`ResilientCampaign`]:
//!   sharded, supervised simulation with panic isolation, deadlines/step
//!   budgets, durable checkpoint/resume and deterministic chaos injection;
//! * [`parallel`] — the pipeline's deterministic shard partition, its
//!   worker pool ([`run_sharded`]) and its engine dispatch
//!   ([`ShardSimulator`]) over three bit-identical engines:
//!   * naive — clone-and-replay per fault ([`simulate_fault`]), the
//!     oracle the others are checked against;
//!   * [`differential`] — golden-trace memoization, excitation indexing
//!     and zero-clone suffix replay, asymptotically cheaper;
//!   * [`symbolic`] — whole shards walked as BDD relations over a
//!     fault-id space, plus the implicit campaign for models too wide to
//!     enumerate;
//! * [`adaptive`] — coverage-directed closure: the iterative campaign
//!   driver that feeds surviving faults and cold cells back into the
//!   `simcov-tour` generators until every fault is detected or a budget
//!   expires;
//! * [`collapse`] — fault-collapsing certificates: statically proven
//!   fault-equivalence partitions that campaigns consume to simulate
//!   only class representatives (and can audit with `verify`);
//! * [`harness`] — the checkpointed co-simulation harness of Figure 1
//!   (specification vs implementation, compared at instruction
//!   completion);
//! * [`expand`] — test-set expansion from abstract test-model inputs to
//!   concrete simulation vectors (Section 6.5's "appropriate input values
//!   must be filled in").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod collapse;
pub mod differential;
pub mod distinguish;
pub mod error_model;
pub mod expand;
pub mod faults;
pub mod fingerprint;
pub mod harness;
pub mod models;
pub mod parallel;
pub mod requirements;
pub mod resilient;
pub mod symbolic;
pub mod testutil;
pub mod theorems;

pub use adaptive::{ClosureConfig, ClosureDriver, ClosureRun, RoundRecord};
pub use collapse::{
    same_observable_outcome, CertificateError, ClassKind, CollapseCertificate, CollapseMode,
    CollapseSummary, CollapseViolation,
};
pub use differential::{simulate_fault_differential, DiffStats, Engine, GoldenTrace};
pub use distinguish::{
    forall_k_distinguishable, DistinguishError, DistinguishLevels, Distinguishability, PairWitness,
};
pub use error_model::{detects, excited_at, is_detectable, is_masked_on, Fault, FaultKind};
pub use faults::{
    enumerate_single_faults, extend_cyclically, run_campaign, sample_faults, simulate_fault,
    CampaignReport, FaultOutcome, FaultSpace,
};
pub use harness::{validate, MachineTrace, Mismatch, TraceSource};
pub use parallel::{default_jobs, default_shard_size, run_sharded, CampaignStats, ShardSimulator};
pub use requirements::{
    check_req1_uniform_outputs, check_req2_bounded_processing, check_req3_unique_outputs,
    check_req5_observable, Req1Violation, StallBound,
};
pub use symbolic::{
    run_implicit_campaign, simulate_shard_symbolic, ImplicitConfig, ImplicitReport,
    SymbolicContext, SymbolicContextError, SymbolicEngineStats,
};

pub use resilient::{
    CampaignError, CoverageBounds, ResilientCampaign, ResilientRun, ShardFailure, StopReason,
};
pub use theorems::{certify_completeness, CompletenessCertificate, CompletenessViolation};
