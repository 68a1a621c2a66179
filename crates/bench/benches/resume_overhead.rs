//! Checkpoint/resume overhead on the reduced DLX control model: a plain
//! (unjournaled) campaign vs a journaled one (checkpoint-write cost) vs a
//! resumed one restoring half the shards from disk (journal parse + merge
//! cost vs re-simulation). Byte-identity of all three reports is asserted
//! unconditionally; the overhead bar keeps the journaled run within 1.3x
//! of the unjournaled one. Checkpoint records are serialized
//! and written off the simulation thread (a dedicated journal writer
//! drains a channel), so the simulation pays only the cost of handing
//! off each shard's record — the bar guards that handoff staying cheap.
//!
//! All runs pin the *naive* simulation engine: the overhead ratio is
//! only meaningful while simulation dominates wall time, and the
//! differential engine collapses the simulation cost by orders of
//! magnitude (see the `differential_speedup` bench), which would turn
//! this bar into a measure of per-shard fsync latency.

use std::time::Instant;

use simcov_bench::reduced_dlx_machine;
use simcov_bench::timing::BenchReport;
use simcov_core::{
    default_jobs, enumerate_single_faults, extend_cyclically, Engine, FaultSpace, ResilientCampaign,
};
use simcov_tour::{transition_tour, TestSet};

fn main() {
    let m = reduced_dlx_machine();
    let faults = enumerate_single_faults(
        &m,
        &FaultSpace {
            max_faults: 4_000,
            ..FaultSpace::default()
        },
    );
    let tour = transition_tour(&m).unwrap();
    let tests = TestSet::single(extend_cyclically(&tour.inputs, 1));
    let jobs = default_jobs();
    let cost = tests.total_vectors() as u64;

    let mut journal = std::env::temp_dir();
    journal.push(format!(
        "simcov_resume_overhead_{}.journal",
        std::process::id()
    ));

    eprintln!("== Checkpoint/resume overhead ==");
    eprintln!(
        "  model: {m:?}; {} faults, {} test vectors, jobs={jobs}",
        faults.len(),
        tests.total_vectors()
    );

    // Baseline: the same pipeline without a journal.
    let t0 = Instant::now();
    let plain = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .run()
        .unwrap();
    let t_plain = t0.elapsed();

    // Supervised + journaled full run (checkpoint-write overhead).
    let t0 = Instant::now();
    let journaled = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .checkpoint(&journal)
        .run()
        .unwrap();
    let t_journaled = t0.elapsed();
    let journal_bytes = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);

    // Interrupted run: half the step budget, journaled.
    let half_budget = cost * (faults.len() as u64) / 2;
    let interrupted = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .max_steps(half_budget)
        .checkpoint(&journal)
        .run()
        .unwrap();

    // Resume: restore the journaled prefix, simulate the rest.
    let t0 = Instant::now();
    let resumed = ResilientCampaign::new(&m, &faults, &tests)
        .engine(Engine::Naive)
        .jobs(jobs)
        .checkpoint(&journal)
        .resume(true)
        .run()
        .unwrap();
    let t_resumed = t0.elapsed();
    let _ = std::fs::remove_file(&journal);

    assert!(journaled.is_complete && resumed.is_complete);
    assert!(!interrupted.is_complete);
    assert_eq!(
        plain.stats, journaled.stats,
        "journaling must not change results"
    );
    assert_eq!(plain.stats, resumed.stats, "resume must be byte-identical");
    assert_eq!(plain.report, journaled.report);
    assert_eq!(plain.report, resumed.report);

    let overhead = t_journaled.as_secs_f64() / t_plain.as_secs_f64().max(f64::EPSILON);
    eprintln!("  plain:      {t_plain:>10.2?}   {}", plain.stats);
    eprintln!(
        "  journaled:  {t_journaled:>10.2?}   {overhead:.2}x of plain, {journal_bytes} journal bytes"
    );
    eprintln!(
        "  resumed:    {t_resumed:>10.2?}   {} of {} shards restored from disk",
        resumed.restored_shards, resumed.total_shards
    );

    let mut rep = BenchReport::new("resume_overhead");
    rep.sample("resume_overhead/plain", t_plain);
    rep.sample("resume_overhead/journaled", t_journaled);
    rep.sample("resume_overhead/resumed", t_resumed);
    rep.counter("resume_overhead/journal_bytes", journal_bytes);
    rep.counter(
        "resume_overhead/restored_shards",
        resumed.restored_shards as u64,
    );
    rep.write().expect("write bench report");

    assert!(
        overhead < 1.3,
        "off-thread checkpoint journaling must stay under 1.3x of the unjournaled run, \
         measured {overhead:.2}x"
    );
}
