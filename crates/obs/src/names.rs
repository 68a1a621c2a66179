//! Well-known telemetry counter names shared between producers and
//! consumers.
//!
//! Counter names are part of the byte-stable trace surface (see the
//! [determinism contract](crate)): a renamed counter silently breaks
//! every downstream trace diff, metrics reader and bench baseline. The
//! names used from more than one crate therefore live here as constants
//! instead of string literals scattered across the engines.
//!
//! Only the differential-engine counters are declared so far — the
//! campaign counters that predate this module (`campaign.faults_simulated`
//! and friends) keep their literal spellings at their single emission
//! site; move them here if a second producer ever appears.

/// Faults classified with zero simulation because their transition never
/// appears in the golden trace's excitation index (differential engine;
/// see `simcov_core::differential::DiffStats::faults_skipped_by_index`).
pub const CAMPAIGN_FAULTS_SKIPPED_BY_INDEX: &str = "campaign.faults_skipped_by_index";

/// Golden-trace vectors whose faulty-machine execution was skipped by
/// prefix sharing (differential engine; see
/// `simcov_core::differential::DiffStats::prefix_steps_saved`).
pub const CAMPAIGN_PREFIX_STEPS_SAVED: &str = "campaign.prefix_steps_saved";

/// Suffix replays performed from a first divergence point (differential
/// engine; see `simcov_core::differential::DiffStats::divergence_replays`).
pub const CAMPAIGN_DIVERGENCE_REPLAYS: &str = "campaign.divergence_replays";

/// Faults whose simulation was skipped because a collapse certificate
/// proved them equivalent to an already-simulated class representative
/// (`--collapse on`; see `simcov_core::collapse::CollapseCertificate`).
pub const CAMPAIGN_COLLAPSED_FAULTS: &str = "campaign.collapsed_faults";

/// Equivalence classes in the active collapse certificate (emitted only
/// when a campaign runs with `--collapse on` or `--collapse verify`).
pub const CAMPAIGN_CLASSES: &str = "campaign.classes";

/// Class members whose simulated outcome diverged from their
/// representative's under `--collapse verify` (0 for a sound
/// certificate).
pub const CAMPAIGN_COLLAPSE_VIOLATIONS: &str = "campaign.collapse_violations";

// ---------------------------------------------------------------------------
// `simcov serve` counters. These live on the *server's* telemetry sink,
// never on a job's (each job records the same trace it would record under
// the single-shot CLI). All of them are commutative counters emitted from
// worker or reader threads, so a server trace is byte-identical across
// worker counts for the same admitted job set (see the determinism
// contract in [`crate`]); only the backpressure counters
// (`serve.jobs_rejected`) depend on offered load, by design.

/// Jobs accepted into the bounded admission queue.
pub const SERVE_JOBS_ADMITTED: &str = "serve.jobs_admitted";

/// Jobs refused admission because the queue was at capacity (the client
/// is told to retry after a backoff) or their fingerprint is quarantined.
pub const SERVE_JOBS_REJECTED: &str = "serve.jobs_rejected";

/// Job attempts re-run after a panic (bounded by the retry budget).
pub const SERVE_JOBS_RETRIED: &str = "serve.jobs_retried";

/// Rungs descended on the engine-degradation ladder
/// (`symbolic → differential → naive`) after a failed equivalence audit.
pub const SERVE_JOBS_DEGRADED: &str = "serve.jobs_degraded";

/// Jobs quarantined after exhausting the retry budget; resubmissions of
/// the same job fingerprint are rejected until the server restarts.
pub const SERVE_JOBS_QUARANTINED: &str = "serve.jobs_quarantined";

/// Jobs that ran to a result (ok, partial or error — anything but a
/// panic-quarantine).
pub const SERVE_JOBS_COMPLETED: &str = "serve.jobs_completed";

/// Campaign jobs whose golden trace was served from the cross-request
/// `GoldenTrace` cache.
pub const SERVE_CACHE_HITS: &str = "serve.cache_hits";

/// Campaign jobs that had to build (and then share) their golden trace.
pub const SERVE_CACHE_MISSES: &str = "serve.cache_misses";

/// Admitted-but-unfinished jobs re-executed from the server journal by
/// `serve --resume`.
pub const SERVE_JOBS_RESTORED: &str = "serve.jobs_restored";

/// Request frames answered with a structured protocol error (malformed
/// JSON, oversized frame, unknown kind).
pub const SERVE_PROTOCOL_ERRORS: &str = "serve.protocol_errors";

// ---------------------------------------------------------------------------
// Coverage-directed closure counters (`simcov_core::adaptive`). All are
// emitted by the serial round driver after each round's campaign merge,
// never from worker threads, so closure traces are byte-identical across
// `--jobs` by construction. Per-round detail rides on the `adaptive.round`
// event stream; these counters summarize the whole closure run.

/// Feedback rounds executed (including round 0, the seed tour).
pub const ADAPTIVE_ROUNDS: &str = "adaptive.rounds";

/// Test sequences generated across all rounds.
pub const ADAPTIVE_TESTS_ADDED: &str = "adaptive.tests_added";

/// Input vectors (test steps) generated across all rounds.
pub const ADAPTIVE_STEPS_ADDED: &str = "adaptive.steps_added";

/// Faults newly detected across all rounds (= total detections).
pub const ADAPTIVE_NEW_DETECTIONS: &str = "adaptive.new_detections";

/// Detectable faults still undetected when the loop stopped (0 at
/// closure).
pub const ADAPTIVE_SURVIVORS: &str = "adaptive.survivors";

/// Faults proven undetectable (observationally equivalent mutant) and
/// excluded from the closure target.
pub const ADAPTIVE_UNDETECTABLE: &str = "adaptive.undetectable";

/// Reachable `(state, input)` cells still unexcited when the loop
/// stopped.
pub const ADAPTIVE_COLD_CELLS: &str = "adaptive.cold_cells";

/// 1 when the loop reached closure (every targeted fault detected), 0
/// when a round/step budget or stagnation stopped it first.
pub const ADAPTIVE_CLOSED: &str = "adaptive.closed";

// ---------------------------------------------------------------------------
// BDD package counters (symbolic engine; see `simcov_bdd::BddRuntimeStats`).
// Emitted by the serial campaign merge loop after all shards complete.
// Every shard runs its own `BddManager` through a deterministic operation
// sequence, so the summed values are byte-identical across `--jobs` (see
// the determinism contract in [`crate`]). As with the differential effort
// counters, shards restored from a resume journal contribute no BDD work,
// so resumed runs report only the work actually redone.

/// Hash-consed nodes allocated across all shard managers of a symbolic
/// campaign (unique-table size at end of shard, summed over shards).
pub const BDD_UNIQUE_NODES: &str = "bdd.unique_nodes";

/// ITE/apply calls answered from the operation cache, summed over shard
/// managers (see `simcov_bdd::BddRuntimeStats::ite_cache_hits`).
pub const BDD_ITE_CACHE_HITS: &str = "bdd.ite_cache_hits";

/// ITE/apply calls that had to recurse, summed over shard managers (see
/// `simcov_bdd::BddRuntimeStats::ite_cache_misses`).
pub const BDD_ITE_CACHE_MISSES: &str = "bdd.ite_cache_misses";

/// Cache-eviction garbage collections performed by shard managers (see
/// `simcov_bdd::BddManager::maybe_gc`).
pub const BDD_GC_COLLECTIONS: &str = "bdd.gc_collections";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_names_share_the_adaptive_prefix() {
        for n in [
            ADAPTIVE_ROUNDS,
            ADAPTIVE_TESTS_ADDED,
            ADAPTIVE_STEPS_ADDED,
            ADAPTIVE_NEW_DETECTIONS,
            ADAPTIVE_SURVIVORS,
            ADAPTIVE_UNDETECTABLE,
            ADAPTIVE_COLD_CELLS,
            ADAPTIVE_CLOSED,
        ] {
            assert!(n.starts_with("adaptive."), "{n}");
        }
    }

    #[test]
    fn names_share_the_campaign_prefix() {
        for n in [
            CAMPAIGN_FAULTS_SKIPPED_BY_INDEX,
            CAMPAIGN_PREFIX_STEPS_SAVED,
            CAMPAIGN_DIVERGENCE_REPLAYS,
            CAMPAIGN_COLLAPSED_FAULTS,
            CAMPAIGN_CLASSES,
            CAMPAIGN_COLLAPSE_VIOLATIONS,
        ] {
            assert!(n.starts_with("campaign."), "{n}");
        }
    }

    #[test]
    fn bdd_names_share_the_bdd_prefix() {
        for n in [
            BDD_UNIQUE_NODES,
            BDD_ITE_CACHE_HITS,
            BDD_ITE_CACHE_MISSES,
            BDD_GC_COLLECTIONS,
        ] {
            assert!(n.starts_with("bdd."), "{n}");
        }
    }

    #[test]
    fn serve_names_share_the_serve_prefix() {
        for n in [
            SERVE_JOBS_ADMITTED,
            SERVE_JOBS_REJECTED,
            SERVE_JOBS_RETRIED,
            SERVE_JOBS_DEGRADED,
            SERVE_JOBS_QUARANTINED,
            SERVE_JOBS_COMPLETED,
            SERVE_CACHE_HITS,
            SERVE_CACHE_MISSES,
            SERVE_JOBS_RESTORED,
            SERVE_PROTOCOL_ERRORS,
        ] {
            assert!(n.starts_with("serve."), "{n}");
        }
    }
}
