//! The in-process workloads (`dlx_cli_jobs`, `dlx_full_implicit`) and the
//! metric assembly shared with `dlx_serve`.
//!
//! Every workload is a closed loop: one caller runs the next job only
//! after the previous one returned. A run is set-up (repeated
//! [`SETUP_REPS`] times; the median is `setup_s`), output checks once per
//! distinct spec, then the timed phase. With tracing on, the timed phase
//! alternates each job's untraced `jobs::execute` with its traced
//! layer-by-layer replay.

use crate::checks::{check_full_width, check_spec, stable, Reference};
use crate::metrics::Sheet;
use crate::mix::{dlx_mix, full_implicit_spec, model_blif, Kind, Mix, MODELS};
use crate::procfs::{process_cpu, usage, Proc};
use crate::replay::{replay, ServeExtras};
use crate::spans::{durations_ms, layer_ms_by_request, Recorder};
use crate::stats::{mean, median, quantile};
use simcov_obs::Telemetry;
use simcov_serve::jobs::{execute, ExecCtx, JobSpec};
use simcov_serve::ExitStatus;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Minimum samples beyond the p90 for `job_p90_ms` to be reported.
pub const P90_MIN_JOBS: usize = 100;

/// What one run of a workload produced.
#[derive(Default)]
pub struct Run {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, one line each.
    pub problems: Vec<String>,
    /// Spans of the traced run.
    pub rec: Option<Recorder>,
}

/// One completed job of a timed phase.
#[derive(Debug, Clone)]
pub struct Done {
    pub kind: Kind,
    pub ms: f64,
    pub ok: bool,
    /// Explicit faults the job classified (campaign and close jobs).
    pub faults: u64,
}

/// Runs `spec` the way every CLI subcommand does.
pub fn run_cli(spec: &JobSpec) -> Result<(String, ExitStatus), String> {
    execute(spec, &Telemetry::new(), &ExecCtx::default())
        .map(|o| (o.text, o.status))
        .map_err(|e| e.message)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Builds the models and mix and runs the warm-up jobs, [`SETUP_REPS`]
/// times; returns the mix and the set-up durations.
fn explicit_setup(seed: u64) -> (Mix, Vec<f64>) {
    let mut setups = Vec::new();
    let mut mix = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let models: Vec<(&'static str, String)> =
            MODELS.iter().map(|&m| (m, model_blif(m))).collect();
        let m = dlx_mix(seed, &models);
        for &i in &m.warmup {
            // Failures surface in the output checks that follow.
            let _ = run_cli(&m.specs[i].job);
        }
        setups.push(secs(t0.elapsed()));
        mix = Some(m);
    }
    (mix.expect("SETUP_REPS > 0"), setups)
}

/// Output checks, once per distinct spec.
pub fn check_mix(mix: &Mix, problems: &mut Vec<String>) -> Vec<Reference> {
    mix.specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let r = check_spec(spec);
            for p in &r.problems {
                problems.push(format!(
                    "spec {i} ({} on {}): {p}",
                    spec.kind.name(),
                    spec.model
                ));
            }
            r
        })
        .collect()
}

/// Drift check: the layer-by-layer replay of every spec must reproduce
/// `execute`'s report and exit status.
pub fn drift_check(
    mix: &Mix,
    refs: &[Reference],
    serve: Option<&ServeExtras<'_>>,
    problems: &mut Vec<String>,
) {
    let scratch = Recorder::default();
    for (i, (spec, r)) in mix.specs.iter().zip(refs).enumerate() {
        let ok = replay(&spec.job, &scratch, 0, serve)
            .map(|rep| r.matches(&rep.text, rep.status))
            .unwrap_or(false);
        if !ok {
            problems.push(format!(
                "drift: replay of spec {i} ({} on {}) differs from jobs::execute",
                spec.kind.name(),
                spec.model
            ));
        }
    }
}

/// The end-to-end metrics of an explicit-model timed phase.
pub fn explicit_e2e(
    sheet: &mut Sheet,
    done: &[Done],
    elapsed_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    setups: &[f64],
) {
    let n = done.len();
    let total_ms: f64 = done.iter().map(|d| d.ms).sum();
    let mut shares = Vec::new();
    for (kind, name) in [
        (Kind::Campaign, "campaign_p50_ms"),
        (Kind::Close, "close_p50_ms"),
        (Kind::Analyze, "analyze_p50_ms"),
        (Kind::Lint, "lint_p50_ms"),
    ] {
        let ms: Vec<f64> = done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| d.ms)
            .collect();
        sheet.set_sampled(name, median(&ms), ms.len());
        shares.push(format!(
            "{} {:.1}%",
            kind.name(),
            100.0 * ms.iter().sum::<f64>() / total_ms.max(f64::MIN_POSITIVE)
        ));
    }
    sheet
        .notes
        .push(format!("job host-time share: {}", shares.join(", ")));
    if n >= P90_MIN_JOBS {
        let ms: Vec<f64> = done.iter().map(|d| d.ms).collect();
        sheet.set_sampled("job_p90_ms", quantile(&ms, 0.9), n);
    }
    sheet.set("jobs_per_s", n as f64 / elapsed_s);
    let (faults, host_ms) = done
        .iter()
        .filter(|d| matches!(d.kind, Kind::Campaign | Kind::Close))
        .fold((0u64, 0.0), |(f, t), d| (f + d.faults, t + d.ms));
    if host_ms > 0.0 {
        sheet.set("faults_per_s", faults as f64 / (host_ms / 1e3));
    }
    common_e2e(sheet, done, cpu_s, peak_rss_mb, setups);
}

fn common_e2e(sheet: &mut Sheet, done: &[Done], cpu_s: f64, peak_rss_mb: f64, setups: &[f64]) {
    let n = done.len().max(1) as f64;
    sheet.set("cpu_s_per_job", cpu_s / n);
    sheet.set("peak_rss_mb", peak_rss_mb);
    sheet.set_sampled("setup_s", median(setups), setups.len());
    let failed = done.iter().filter(|d| !d.ok).count();
    sheet.set("failed_frac", failed as f64 / n);
}

/// Span-name → metric for layers measured as mean milliseconds per call.
const SPAN_MEANS: [(&str, &str); 17] = [
    ("netlist.from_blif_ms", "netlist.from_blif"),
    ("dlx.model_build_ms", "dlx.model_build"),
    ("dlx.valid_inputs_ms", "dlx.valid_inputs"),
    ("fsm.enumerate_ms", "fsm.enumerate"),
    ("tour.postman_ms", "tour.postman"),
    ("core.fault_enum_ms", "core.fault_enum"),
    ("core.golden_trace_ms", "core.golden_trace"),
    ("core.campaign_run_ms", "core.campaign_run"),
    ("adaptive.close_ms", "adaptive.close"),
    ("analyze.collapse_ms", "analyze.collapse"),
    ("analyze.lint_passes_ms", "analyze.lint_passes"),
    ("fsm.pair_build_ms", "fsm.pair_build"),
    ("fsm.transfer_prep_ms", "fsm.transfer_prep"),
    ("bdd.clone_ms", "bdd.clone"),
    ("serve.audit_ms", "serve.audit"),
    ("serve.ack_ms", "serve.ack"),
    ("serve.result_ms", "serve.result"),
];

/// Per-request counts reported as their mean per sample.
const COUNT_MEANS: [&str; 14] = [
    "core.campaign_cpu_ms",
    "core.shards",
    "core.faults_simulated",
    "core.divergence_replays",
    "core.faults_skipped_by_index",
    "adaptive.rounds",
    "adaptive.test_steps",
    "analyze.classes",
    "analyze.collapse_ratio",
    "bdd.unique_nodes",
    "bdd.ite_cache_hit_ratio",
    "bdd.gc_collections",
    "proc.minor_faults",
    "proc.sys_cpu_s",
];

/// Untraced `execute` and traced replay times of the requests of a
/// traced phase, keyed by request id.
#[derive(Default)]
pub struct Paired {
    pub exec_ms: BTreeMap<u32, f64>,
    pub replay_ms: BTreeMap<u32, f64>,
}

/// Derives the per-layer metrics from the recorded spans and counts.
pub fn layer_metrics(sheet: &mut Sheet, rec: &Recorder, paired: &Paired) {
    let spans = rec.spans();
    for (metric, span) in SPAN_MEANS {
        let ms = durations_ms(&spans, span);
        if !ms.is_empty() {
            sheet.set(metric, mean(&ms));
        }
    }
    let flips = durations_ms(&spans, "core.flip_detect");
    if let (Some(p50), Some(max)) = (median(&flips), quantile(&flips, 1.0)) {
        sheet.set_sampled("core.flip_detect_ms_p50", Some(p50), flips.len());
        sheet.set_sampled("core.flip_detect_ms_max", Some(max), flips.len());
    }
    let lint: Vec<f64> = layer_ms_by_request(&spans, "lint.").into_values().collect();
    if !lint.is_empty() {
        sheet.set("lint.ms", mean(&lint));
    }
    for name in COUNT_MEANS {
        let v = rec.counts(name);
        if !v.is_empty() {
            sheet.set(name, mean(&v));
        }
    }
    // Render: a job's `execute` time minus the time of its layer calls.
    let layers = layer_ms_by_request(&spans, "");
    let render: Vec<f64> = paired
        .exec_ms
        .iter()
        .map(|(req, exec)| exec - layers.get(req).copied().unwrap_or(0.0))
        .collect();
    if !render.is_empty() {
        sheet.set("render.ms", mean(&render));
    }
    let exec: f64 = paired.exec_ms.values().sum();
    let traced: f64 = paired.replay_ms.values().sum();
    if exec > 0.0 {
        sheet.set("trace_overhead_frac", traced / exec - 1.0);
    }
}

/// Runs `spec` untraced, then replays it traced as request `req`; a job
/// that errors or differs from `reference` in either form is failed.
pub fn paired_job(
    spec: &JobSpec,
    reference: &Reference,
    rec: &Recorder,
    req: u32,
    serve: Option<&ServeExtras<'_>>,
    paired: &mut Paired,
) -> bool {
    let t = Instant::now();
    let exec = run_cli(spec);
    paired.exec_ms.insert(req, t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    let rep = replay(spec, rec, req, serve);
    paired
        .replay_ms
        .insert(req, t.elapsed().as_secs_f64() * 1e3);
    let exec_ok = exec.is_ok_and(|(text, status)| reference.matches(&text, status));
    let rep_ok = rep.is_ok_and(|r| reference.matches(&r.text, r.status));
    exec_ok && rep_ok
}

/// `dlx_cli_jobs`: the validation-flow mix through `jobs::execute`.
pub fn dlx_cli_jobs(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let (mix, setups) = explicit_setup(seed);
    let refs = check_mix(&mix, &mut run.problems);
    let budget = Duration::from_secs_f64(seconds);
    if trace {
        drift_check(&mix, &refs, None, &mut run.problems);
        let rec = Recorder::default();
        let mut paired = Paired::default();
        let start = Instant::now();
        let mut req = 0u32;
        while start.elapsed() < budget {
            let si = mix.cycle[req as usize % mix.cycle.len()];
            let ok = paired_job(&mix.specs[si].job, &refs[si], &rec, req, None, &mut paired);
            run.attempted += 1;
            run.failed += u64::from(!ok);
            req += 1;
        }
        layer_metrics(&mut run.sheet, &rec, &paired);
        run.rec = Some(rec);
        return run;
    }
    let me = Proc::this();
    if let Err(e) = me.reset_peak_rss() {
        run.problems.push(e);
    }
    let cpu0 = process_cpu();
    let start = Instant::now();
    let mut done = Vec::new();
    let mut pos = 0usize;
    while start.elapsed() < budget {
        let si = mix.cycle[pos % mix.cycle.len()];
        pos += 1;
        let spec = &mix.specs[si];
        let t = Instant::now();
        let out = run_cli(&spec.job);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = out.is_ok_and(|(text, status)| refs[si].matches(&text, status));
        done.push(Done {
            kind: spec.kind,
            ms,
            ok,
            faults: refs[si].faults,
        });
    }
    let elapsed = secs(start.elapsed());
    let cpu = secs(process_cpu() - cpu0);
    let peak = me.peak_rss_mb().unwrap_or_else(|e| {
        run.problems.push(e);
        0.0
    });
    explicit_e2e(&mut run.sheet, &done, elapsed, cpu, peak, &setups);
    run.attempted = done.len() as u64;
    run.failed = done.iter().filter(|d| !d.ok).count() as u64;
    run
}

/// `dlx_full_implicit`: back-to-back `campaign --dlx final --engine
/// symbolic` jobs (k=2, `--jobs 0`) through `jobs::execute`.
pub fn dlx_full_implicit(seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let spec = full_implicit_spec();
    let mut setups = Vec::new();
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        // The job builds its model itself; set-up is the warm-up job.
        let t0 = Instant::now();
        let out = run_cli(&spec);
        setups.push(secs(t0.elapsed()));
        reference = Some(out);
    }
    // Output check: the committed full-width counts.
    let reference = match reference.expect("SETUP_REPS > 0") {
        Ok((text, status)) => {
            let problems = check_full_width(&text, status);
            run.problems.extend(problems.iter().cloned());
            Reference {
                text: stable(&text),
                status,
                faults: 0,
                problems,
            }
        }
        Err(e) => {
            run.problems.push(format!("full-width job errored: {e}"));
            Reference {
                text: String::new(),
                status: ExitStatus::Error,
                faults: 0,
                problems: vec![e],
            }
        }
    };
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    if trace {
        let rec = Recorder::default();
        let mut paired = Paired::default();
        let mut req = 0u32;
        while req == 0 || start.elapsed() < budget {
            let before = usage();
            let t = Instant::now();
            let exec = run_cli(&spec);
            paired.exec_ms.insert(req, t.elapsed().as_secs_f64() * 1e3);
            let after = usage();
            rec.count(
                "proc.minor_faults",
                (after.minor_faults - before.minor_faults) as f64,
            );
            rec.count("proc.sys_cpu_s", secs(after.sys - before.sys));
            let t = Instant::now();
            let rep = replay(&spec, &rec, req, None);
            paired
                .replay_ms
                .insert(req, t.elapsed().as_secs_f64() * 1e3);
            let ok = exec.is_ok_and(|(text, status)| reference.matches(&text, status))
                && rep.is_ok_and(|r| reference.matches(&r.text, r.status));
            if !ok {
                run.problems
                    .push(format!("drift or check failure on traced job {req}"));
            }
            run.attempted += 1;
            run.failed += u64::from(!ok);
            req += 1;
        }
        layer_metrics(&mut run.sheet, &rec, &paired);
        run.rec = Some(rec);
        return run;
    }
    let me = Proc::this();
    if let Err(e) = me.reset_peak_rss() {
        run.problems.push(e);
    }
    let cpu0 = process_cpu();
    let mut done = Vec::new();
    while done.is_empty() || start.elapsed() < budget {
        let t = Instant::now();
        let out = run_cli(&spec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = out.is_ok_and(|(text, status)| reference.matches(&text, status));
        done.push(Done {
            kind: Kind::Campaign,
            ms,
            ok,
            faults: 0,
        });
    }
    let elapsed = secs(start.elapsed());
    let cpu = secs(process_cpu() - cpu0);
    let peak = me.peak_rss_mb().unwrap_or_else(|e| {
        run.problems.push(e);
        0.0
    });
    let ms: Vec<f64> = done.iter().map(|d| d.ms).collect();
    run.sheet
        .set_sampled("campaign_p50_ms", median(&ms), ms.len());
    let each: Vec<String> = ms.iter().map(|m| format!("{m:.0}")).collect();
    run.sheet
        .notes
        .push(format!("job latencies (ms): {}", each.join(" ")));
    run.sheet.set("jobs_per_s", done.len() as f64 / elapsed);
    common_e2e(&mut run.sheet, &done, cpu, peak, &setups);
    run.attempted = done.len() as u64;
    run.failed = done.iter().filter(|d| !d.ok).count() as u64;
    run
}
