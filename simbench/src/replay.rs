//! Layer-by-layer replay of `simcov_serve::jobs::execute`.
//!
//! Each job of the mix is re-run here as the sequence of public layer
//! calls `execute` makes, with a span around every call, so the time of
//! a job splits into BLIF parse, enumeration, tour, fault enumeration,
//! golden trace, campaign run, closure, collapse analysis, lint and the
//! rest (report rendering). The replay renders its own report; the drift
//! check requires it to equal `execute`'s byte for byte (minus the wall
//! line), so the decomposition cannot silently measure another pipeline.
//!
//! The replay covers exactly the options the workloads use: BLIF models,
//! the differential engine without collapsing, deadlines or checkpoints,
//! text reports, and the implicit full-width campaign. Anything else is
//! an error.

use crate::procfs::process_cpu;
use crate::spans::{Open, Recorder};
use simcov_analyze::{analyze_collapse, lint_analysis, AnalyzeOptions, AnalyzeTarget};
use simcov_core::fingerprint::machine_fingerprint;
use simcov_core::parallel::{default_shard_size, run_sharded};
use simcov_core::{
    default_jobs, enumerate_single_faults, extend_cyclically, ClosureConfig, ClosureDriver,
    CollapseMode, Engine, FaultSpace, GoldenTrace, ImplicitReport, ResilientCampaign,
    SymbolicEngineStats,
};
use simcov_fsm::{enumerate_netlist, EnumerateOptions, PairFsm};
use simcov_lint::{lint_model_traced, lint_netlist_traced, ModelTarget};
use simcov_netlist::Netlist;
use simcov_obs::Telemetry;
use simcov_serve::cache::TraceCache;
use simcov_serve::jobs::{
    audit_engine, dlx_netlist, enumerate, lint_config, AnalyzeOpts, AuditPolicy, CampaignOpts,
    CloseOpts, JobKind, JobSpec, ModelSource,
};
use simcov_serve::ExitStatus;
use simcov_tour::{generate_tour_traced, TestSet, TourKind};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The server-side extras a served campaign runs through: the
/// golden-trace cache and the engine audit.
pub struct ServeExtras<'a> {
    pub cache: &'a TraceCache,
    pub audit: AuditPolicy,
}

/// A replayed job's report and exit status.
pub struct Replayed {
    pub text: String,
    pub status: ExitStatus,
}

type Result<T> = std::result::Result<T, String>;

fn root_name(kind: &JobKind) -> &'static str {
    match kind {
        JobKind::Campaign(_) => "job.campaign",
        JobKind::Close(_) => "job.close",
        JobKind::Analyze { .. } => "job.analyze",
        JobKind::Lint { .. } => "job.lint",
        JobKind::Tour { .. } => "job.tour",
    }
}

/// Replays `spec` as request `request`, recording spans and counts into
/// `rec`. `serve` adds the server's cache and audit to campaign jobs.
pub fn replay(
    spec: &JobSpec,
    rec: &Recorder,
    request: u32,
    serve: Option<&ServeExtras<'_>>,
) -> Result<Replayed> {
    let root = rec.open(root_name(&spec.kind), request, None);
    let out = replay_kind(&root, rec, spec, serve);
    root.close();
    out
}

fn replay_kind(
    root: &Open<'_>,
    rec: &Recorder,
    spec: &JobSpec,
    serve: Option<&ServeExtras<'_>>,
) -> Result<Replayed> {
    match &spec.kind {
        JobKind::Campaign(o) if o.engine == Engine::Symbolic => {
            implicit_campaign(root, rec, &spec.model, o)
        }
        JobKind::Campaign(o) => campaign(root, rec, &spec.model, o, serve),
        JobKind::Close(o) => close(root, rec, &spec.model, o),
        JobKind::Analyze {
            format,
            opts,
            overrides,
        } => {
            let config = lint_config(overrides).map_err(|e| e.message)?;
            expect_text(format)?;
            analyze(root, rec, &spec.model, opts, &config)
        }
        JobKind::Lint {
            format,
            k,
            overrides,
        } => {
            let config = lint_config(overrides).map_err(|e| e.message)?;
            expect_text(format)?;
            lint(root, &spec.model, *k, &config)
        }
        JobKind::Tour { .. } => Err("the replay does not cover tour jobs".to_string()),
    }
}

fn expect_text(format: &str) -> Result<()> {
    if format == "text" {
        Ok(())
    } else {
        Err(format!("the replay renders text reports, not `{format}`"))
    }
}

fn blif_netlist(root: &Open<'_>, model: &ModelSource) -> Result<Netlist> {
    let ModelSource::Blif { name, text } = model else {
        return Err("the replay covers BLIF models".to_string());
    };
    root.child("netlist.from_blif", || simcov_netlist::from_blif(text))
        .map_err(|e| format!("cannot parse {name}: {e}"))
}

fn campaign(
    root: &Open<'_>,
    rec: &Recorder,
    model: &ModelSource,
    opts: &CampaignOpts,
    serve: Option<&ServeExtras<'_>>,
) -> Result<Replayed> {
    if opts.engine != Engine::Differential
        || opts.collapse != CollapseMode::Off
        || opts.deadline_ms.is_some()
        || opts.max_steps.is_some()
        || opts.checkpoint.is_some()
    {
        return Err("the replay covers plain differential campaigns".to_string());
    }
    let tel = Telemetry::new();
    let n = blif_netlist(root, model)?;
    let m = root
        .child("fsm.enumerate", || {
            // `execute` also derives the exhaustive input list for the
            // symbolic engine's netlist bridge.
            std::hint::black_box(EnumerateOptions::exhaustive(&n).inputs);
            enumerate(&n)
        })
        .map_err(|e| e.message)?;
    let (tour, tests) = root
        .child("tour.postman", || {
            generate_tour_traced(&m, TourKind::Postman, &tel).map(|tour| {
                let tests = TestSet::single(extend_cyclically(&tour.inputs, opts.k));
                (tour, tests)
            })
        })
        .map_err(|e| format!("tour generation failed: {e}"))?;
    let faults = root.child("core.fault_enum", || {
        enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: opts.max_faults,
                seed: opts.seed,
                ..FaultSpace::default()
            },
        )
    });
    tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
    tel.gauge_set("campaign.test_vectors", tests.total_vectors() as u64);
    let (trace, hit) = root.child("core.golden_trace", || match serve {
        Some(s) => s.cache.get_or_build(&m, &tests),
        None => (Arc::new(GoldenTrace::build(&m, &tests)), false),
    });
    if let Some(s) = serve {
        rec.count("serve.cache_hit", if hit { 1.0 } else { 0.0 });
        let passed = root.child("serve.audit", || {
            audit_engine(&m, &trace, &faults, &tests, opts.engine, s.audit, None)
        });
        if !passed {
            return Err("the engine audit failed; the server would degrade".to_string());
        }
    }
    let jobs = if opts.jobs == 0 {
        default_jobs()
    } else {
        opts.jobs
    };
    let cpu = process_cpu();
    let run = root.child("core.campaign_run", || {
        ResilientCampaign::new(&m, &faults, &tests)
            .engine(opts.engine)
            .jobs(jobs)
            .max_retries(opts.max_retries)
            .telemetry(tel.clone())
            .golden_trace(trace)
            .run()
    });
    rec.count(
        "core.campaign_cpu_ms",
        (process_cpu() - cpu).as_secs_f64() * 1e3,
    );
    let run = run.map_err(|e| e.to_string())?;
    if !run.is_complete || !run.failures.is_empty() || !run.journal_notes.is_empty() {
        return Err("the replay covers complete, unjournaled runs".to_string());
    }
    rec.count("core.shards", run.stats.shards as f64);
    rec.count("core.faults_simulated", run.stats.faults_simulated as f64);
    rec.count(
        "core.divergence_replays",
        run.diff.divergence_replays as f64,
    );
    rec.count(
        "core.faults_skipped_by_index",
        run.diff.faults_skipped_by_index as f64,
    );

    let mut out = String::new();
    let _ = writeln!(out, "model: {m:?}");
    let _ = writeln!(out, "tour: {tour} (extended by k={})", opts.k);
    let _ = writeln!(out, "engine: {}", opts.engine);
    let _ = writeln!(out, "campaign: {}", run.report);
    let _ = writeln!(out, "stats: {}", run.stats);
    let _ = writeln!(out, "status: complete ({} shards)", run.total_shards);
    let _ = writeln!(
        out,
        "wall: {:.1} ms on {} worker thread{}",
        run.wall.as_secs_f64() * 1e3,
        run.jobs,
        if run.jobs == 1 { "" } else { "s" }
    );
    for esc in run.report.escapes().take(8) {
        let _ = writeln!(out, "  escape: {}", esc.fault);
    }
    Ok(Replayed {
        text: out,
        status: ExitStatus::Ok,
    })
}

fn close(
    root: &Open<'_>,
    rec: &Recorder,
    model: &ModelSource,
    opts: &CloseOpts,
) -> Result<Replayed> {
    expect_text(&opts.format)?;
    if opts.collapse {
        return Err("the replay covers closure without collapsing".to_string());
    }
    let tel = Telemetry::new();
    let n = blif_netlist(root, model)?;
    let m = root
        .child("fsm.enumerate", || enumerate(&n))
        .map_err(|e| e.message)?;
    let faults = root.child("core.fault_enum", || {
        enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: opts.max_faults,
                seed: opts.seed,
                ..FaultSpace::default()
            },
        )
    });
    tel.counter_add("campaign.faults_enumerated", faults.len() as u64);
    let config = ClosureConfig {
        max_rounds: opts.rounds,
        max_steps: opts.budget,
        seed: opts.seed,
        engine: opts.engine,
        jobs: opts.jobs,
        ..ClosureConfig::default()
    };
    let driver = ClosureDriver::new(&m, &faults, config).telemetry(tel.clone());
    let started = Instant::now();
    let run = root.child("adaptive.close", || driver.run());
    let wall = started.elapsed();
    rec.count("adaptive.rounds", run.rounds.len() as f64);
    rec.count("adaptive.test_steps", run.total_steps as f64);

    let mut out = String::new();
    let _ = writeln!(out, "model: {m:?}");
    let _ = writeln!(out, "engine: {}", opts.engine);
    let _ = writeln!(out, "faults: {}", faults.len());
    for r in &run.rounds {
        let _ = writeln!(
            out,
            "round {}: +{} tests (+{} steps), detected {} (+{}), survivors {}, \
             undetectable {}, coverage {}/{}",
            r.round,
            r.tests_added,
            r.steps_added,
            r.detected_total,
            r.new_detections,
            r.survivors,
            r.undetectable,
            r.transitions_covered,
            r.transitions_total,
        );
    }
    if run.closed {
        let _ = writeln!(
            out,
            "closure: reached after {} round{}{}",
            run.rounds.len(),
            if run.rounds.len() == 1 { "" } else { "s" },
            if run.undetectable > 0 {
                format!(
                    " ({} provably undetectable faults excluded)",
                    run.undetectable
                )
            } else {
                String::new()
            }
        );
    } else {
        let survivors = run.rounds.last().map_or(
            run.stats
                .faults_simulated
                .saturating_sub(run.stats.detected),
            |r| r.survivors,
        );
        let _ = writeln!(
            out,
            "closure: NOT reached after {} rounds ({survivors} survivors)",
            run.rounds.len()
        );
    }
    let _ = writeln!(out, "stats: {}", run.stats);
    let _ = writeln!(out, "wall: {:.1} ms", wall.as_secs_f64() * 1e3);
    Ok(Replayed {
        text: out,
        status: if run.closed {
            ExitStatus::Ok
        } else {
            ExitStatus::Partial
        },
    })
}

fn analyze(
    root: &Open<'_>,
    rec: &Recorder,
    model: &ModelSource,
    opts: &AnalyzeOpts,
    config: &simcov_lint::LintConfig,
) -> Result<Replayed> {
    let tel = Telemetry::new();
    let n = blif_netlist(root, model)?;
    let m = root
        .child("fsm.enumerate", || enumerate(&n))
        .map_err(|e| e.message)?;
    let faults = root.child("core.fault_enum", || {
        enumerate_single_faults(
            &m,
            &FaultSpace {
                max_faults: opts.max_faults,
                seed: opts.seed,
                ..FaultSpace::default()
            },
        )
    });
    let analysis = root
        .child("analyze.collapse", || {
            analyze_collapse(
                &m,
                &faults,
                &AnalyzeOptions {
                    max_nodes_per_cell: opts.max_nodes,
                },
            )
        })
        .map_err(|e| format!("collapse analysis failed: {e}"))?;
    let stats = &analysis.stats;
    rec.count("analyze.classes", stats.classes as f64);
    rec.count(
        "analyze.collapse_ratio",
        stats.classes as f64 / stats.faults.max(1) as f64,
    );
    tel.counter_add("analyze.faults", stats.faults as u64);
    tel.counter_add("analyze.classes", stats.classes as u64);
    tel.counter_add("analyze.collapsed_faults", stats.collapsed_faults as u64);
    let mut diags = root.child("analyze.lint_passes", || {
        lint_analysis(
            &AnalyzeTarget {
                machine: &m,
                faults: &faults,
                analysis: &analysis,
            },
            config,
        )
    });
    diags.set_fingerprint(machine_fingerprint(&m));

    let mut text = String::new();
    let _ = writeln!(text, "model: {m:?}");
    let _ = writeln!(text, "fingerprint: {:#018x}", machine_fingerprint(&m));
    let _ = writeln!(
        text,
        "faults: {} in {} classes ({} collapsed away)",
        stats.faults, stats.classes, stats.collapsed_faults
    );
    let _ = writeln!(
        text,
        "classes: {} output, {} transfer, {} ineffective, {} singleton{}",
        stats.output_classes,
        stats.transfer_classes,
        stats.ineffective_classes,
        stats.singleton_classes,
        if stats.unreachable_faults > 0 {
            format!(" (+1 unreachable, {} faults)", stats.unreachable_faults)
        } else {
            String::new()
        }
    );
    let _ = writeln!(text, "dominance: {} edge(s)", stats.dominance_edges);
    let _ = writeln!(
        text,
        "certificate: {:#018x}",
        analysis.certificate.fingerprint()
    );
    text.push_str(&diags.render_text());
    Ok(Replayed {
        text,
        status: if diags.has_denials() {
            ExitStatus::Error
        } else {
            ExitStatus::Ok
        },
    })
}

fn lint(
    root: &Open<'_>,
    model: &ModelSource,
    k: usize,
    config: &simcov_lint::LintConfig,
) -> Result<Replayed> {
    let tel = Telemetry::new();
    let n = blif_netlist(root, model)?;
    let mut diags = root.child("lint.netlist", || lint_netlist_traced(&n, config, &tel));
    if n.num_inputs() > 16 {
        return Err("the replay covers enumerable models".to_string());
    }
    // A BLIF source carries no DLX name, so the model is enumerated over
    // its exhaustive input alphabet.
    let m = root
        .child("fsm.enumerate", || {
            enumerate_netlist(&n, &EnumerateOptions::exhaustive(&n))
        })
        .map_err(|e| format!("enumeration failed: {e}"))?;
    diags.set_fingerprint(machine_fingerprint(&m));
    let mut target = ModelTarget::new(&m);
    target.k = k;
    if let Some(j) = n.outputs().iter().position(|(name, _)| name == "stall") {
        target.stalled = Some(
            (0..m.num_outputs())
                .map(|o| {
                    let label = m.output_label(simcov_fsm::OutputSym(o as u32)).as_bytes();
                    label[label.len() - 1 - j] == b'1'
                })
                .collect(),
        );
    }
    diags.merge(root.child("lint.model", || lint_model_traced(&target, config, &tel)));
    diags.sort_by_severity();
    Ok(Replayed {
        text: diags.render_text(),
        status: if diags.has_denials() {
            ExitStatus::Error
        } else {
            ExitStatus::Ok
        },
    })
}

/// The implicit full-width campaign, as `run_implicit_campaign` computes
/// it: pair-machine build, valid-input constraint, transfer-detection
/// prep, then one cloned manager per shard of latch flips.
fn implicit_campaign(
    root: &Open<'_>,
    rec: &Recorder,
    model: &ModelSource,
    opts: &CampaignOpts,
) -> Result<Replayed> {
    let ModelSource::Dlx(which) = model else {
        return Err("the replay covers the implicit campaign of DLX models".to_string());
    };
    let n = root
        .child("dlx.model_build", || dlx_netlist(which))
        .map_err(|e| e.message)?;
    if n.num_inputs() <= 16 {
        return Err("the replay covers implicit campaigns of wide models".to_string());
    }
    let started = Instant::now();
    let constrained = matches!(which.as_str(), "fig3b" | "final");
    let names: Vec<String> = n.input_names().map(str::to_string).collect();
    let jobs = if opts.jobs == 0 {
        default_jobs()
    } else {
        opts.jobs
    };
    let k = opts.k.max(1);

    let mut pf = root.child("fsm.pair_build", || PairFsm::from_netlist(&n));
    let valid = root.child("dlx.valid_inputs", || {
        if constrained {
            let vars: Vec<_> = names
                .iter()
                .map(|nm| pf.input_var_by_name(nm).expect("netlist input present"))
                .collect();
            simcov_dlx::testmodel::valid_inputs_constraint(pf.mgr(), &|name| {
                let i = names
                    .iter()
                    .position(|nm| nm == name)
                    .unwrap_or_else(|| panic!("model lost input `{name}`"));
                vars[i]
            })
        } else {
            pf.mgr().constant(true)
        }
    });
    pf.set_valid_inputs(valid);
    let nl = n.num_latches();
    let ni = n.num_inputs();
    let no = n.num_outputs();
    let init = n.initial_state();
    let prep = root.child("fsm.transfer_prep", || pf.transfer_detect_prep(&init, k));

    let total_vars = 4 * nl + ni;
    let valid_inputs = if total_vars > 127 {
        u128::MAX
    } else {
        pf.mgr_ref().sat_count(valid, total_vars as u32) >> (4 * nl)
    };
    let output_faults = prep.reachable_cells.saturating_mul(no as u128);
    let transfer_faults = prep.reachable_cells.saturating_mul(nl as u128);

    let base_nodes = pf.mgr_ref().num_nodes() as u64;
    let base_rs = pf.mgr_ref().runtime_stats();
    let flips: Vec<usize> = (0..nl).collect();
    let shard_results = run_sharded(&flips, default_shard_size(flips.len()), jobs, |_, shard| {
        let mut local = root.child("bdd.clone", || pf.clone());
        let mut det = 0u128;
        for &flip in shard {
            det = det.saturating_add(root.child("core.flip_detect", || {
                local.transfer_flip_detectable(&prep, flip)
            }));
        }
        let rs = local.mgr_ref().runtime_stats().since(&base_rs);
        (det, rs, local.mgr_ref().num_nodes() as u64 - base_nodes)
    });
    let mut sym = SymbolicEngineStats {
        unique_nodes: base_nodes,
        ite_cache_hits: base_rs.ite_cache_hits,
        ite_cache_misses: base_rs.ite_cache_misses,
        gc_collections: base_rs.gc_collections,
        shard_managers: 1,
    };
    let mut transfer_detected = 0u128;
    for (det, rs, nodes) in &shard_results {
        transfer_detected = transfer_detected.saturating_add(*det);
        sym.merge(&SymbolicEngineStats {
            unique_nodes: *nodes,
            ite_cache_hits: rs.ite_cache_hits,
            ite_cache_misses: rs.ite_cache_misses,
            gc_collections: rs.gc_collections,
            shard_managers: 1,
        });
    }
    let report = ImplicitReport {
        num_latches: nl,
        num_outputs: no,
        reachable_states: prep.reachable_states,
        reachable_cells: prep.reachable_cells,
        valid_inputs,
        output_faults,
        output_detected: output_faults,
        transfer_faults,
        transfer_detected,
        escapes: transfer_faults.saturating_sub(transfer_detected),
        fixed_point: prep.fixed_point,
        k,
        counts_saturate: total_vars > 127
            || prep.reachable_states == u128::MAX
            || prep.reachable_cells == u128::MAX
            || output_faults == u128::MAX
            || transfer_faults == u128::MAX,
        sym,
    };
    rec.count("bdd.unique_nodes", report.sym.unique_nodes as f64);
    let lookups = report.sym.ite_cache_hits + report.sym.ite_cache_misses;
    rec.count(
        "bdd.ite_cache_hit_ratio",
        report.sym.ite_cache_hits as f64 / lookups.max(1) as f64,
    );
    rec.count("bdd.gc_collections", report.sym.gc_collections as f64);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "model: {which} ({} inputs, {} latches, {} outputs; implicit)",
        n.num_inputs(),
        report.num_latches,
        report.num_outputs
    );
    let _ = writeln!(
        out,
        "engine: symbolic (implicit; {})",
        if constrained {
            "abstract-ISA valid inputs"
        } else {
            "all inputs valid"
        }
    );
    let _ = writeln!(out, "{report}");
    let _ = writeln!(
        out,
        "status: {}",
        if report.fixed_point {
            "complete (fixed point)"
        } else {
            "complete (horizon-bounded)"
        }
    );
    let _ = writeln!(
        out,
        "wall: {:.1} ms on {} worker thread{}",
        started.elapsed().as_secs_f64() * 1e3,
        jobs,
        if jobs == 1 { "" } else { "s" }
    );
    Ok(Replayed {
        text: out,
        status: ExitStatus::Ok,
    })
}
