//! `simbench`: the simcov benchmark.
//!
//! ```text
//! simbench --workload <dlx_cli_jobs|dlx_full_implicit|dlx_serve> --seed <n>
//!          --seconds <s> --trace <0|1> [--simcov <path>]
//! ```
//!
//! Runs one workload against the release build, checks every output and
//! prints a human-readable summary (host record, every metric with its
//! unit and sample count) followed by one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! per-layer ones, derived from spans recorded around each layer call.
//! A result file with the same content (and, when traced, the spans) is
//! written under `.simbench/results/`. Exits 1 when any output check
//! fails, 2 on bad arguments.

mod checks;
mod metrics;
mod mix;
mod procfs;
mod replay;
mod serve;
mod spans;
mod stats;
mod workloads;

use metrics::{Metric, END_TO_END, EXPLICIT_ONLY, PER_LAYER};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use workloads::Run;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 3] = ["dlx_cli_jobs", "dlx_full_implicit", "dlx_serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    simcov: Option<PathBuf>,
}

/// Where result files and spans go, relative to the checkout root.
const RESULTS_DIR: &str = ".simbench/results";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut simcov = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                })
            }
            "--simcov" => simcov = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        simcov,
    })
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the workspace sources, so a result names the code it
/// measured even where no git metadata exists.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("simbench"), &mut files);
    files.sort();
    let mut h = simcov_obs::fnv::Fnv64::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.bytes(f.to_string_lossy().as_bytes());
            h.bytes(&bytes);
        }
    }
    format!("{:#018x} ({} files)", h.finish(), files.len())
}

/// Where and on what a number was read.
fn host_record(args: &Args) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Only a checkout's own `.git` names its commit; a parent
    // repository's would be wrong.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("seconds", args.seconds.to_string()),
        ("nproc", nproc.to_string()),
        ("cpu", procfs::cpu_model()),
        (
            "rustc",
            command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        ),
        ("git_commit", commit),
        ("source_fnv", source_fingerprint()),
    ]
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", simcov_obs::json::escape(s))
}

/// The metrics the JSON line carries: every registered end-to-end
/// (untraced) or per-layer (traced) metric; a layer the workload never
/// called reads 0.
fn reported(run: &Run, trace: bool) -> Vec<Metric> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    names
        .iter()
        .map(|&(name, unit)| match run.sheet.get(name) {
            Some(m) => m.clone(),
            None => Metric {
                name,
                value: 0.0,
                unit,
                samples: None,
            },
        })
        .collect()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(m.name),
                if m.value.is_finite() { m.value } else { 0.0 },
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let mut host = host_record(&args);
    let cpu_before = procfs::CpuTimes::now();
    let tmp = PathBuf::from(format!(".simbench/tmp-{}", std::process::id()));
    let run = match args.workload.as_str() {
        "dlx_cli_jobs" => workloads::dlx_cli_jobs(args.seed, args.seconds, args.trace),
        "dlx_full_implicit" => workloads::dlx_full_implicit(args.seconds, args.trace),
        "dlx_serve" => {
            let Some(simcov) = &args.simcov else {
                eprintln!("simbench: dlx_serve needs --simcov <path to the release simcov>");
                std::process::exit(2);
            };
            if let Err(e) = std::fs::create_dir_all(&tmp) {
                eprintln!("simbench: cannot create {}: {e}", tmp.display());
                std::process::exit(2);
            }
            let run = serve::dlx_serve(args.seed, args.seconds, args.trace, simcov, &tmp);
            let _ = std::fs::remove_dir_all(&tmp);
            run
        }
        _ => unreachable!("parse_args validated the workload"),
    };
    // CPU time the hypervisor gave to other guests during the run: on a
    // shared VM, the first thing to read before comparing two results.
    let steal = cpu_before
        .zip(procfs::CpuTimes::now())
        .and_then(|(before, after)| after.steal_pct_since(&before));
    host.push((
        "steal_pct",
        steal.map_or("unknown".to_string(), |s| format!("{s:.1}")),
    ));
    let correct = run.problems.is_empty() && run.failed == 0 && run.attempted > 0;
    let json_metrics = reported(&run, args.trace);

    // Human-readable summary: host record, every metric with its unit
    // (and sample count), the checks.
    let mut summary = String::new();
    for (k, v) in &host {
        let _ = writeln!(summary, "host: {k} = {v}");
    }
    let mut printed: Vec<&Metric> = Vec::new();
    let extra: Vec<Metric> = if args.trace {
        Vec::new()
    } else {
        EXPLICIT_ONLY
            .iter()
            .filter_map(|(n, _)| run.sheet.get(n).cloned())
            .collect()
    };
    printed.extend(json_metrics.iter());
    printed.extend(extra.iter());
    for m in printed {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        let _ = writeln!(
            summary,
            "metric: {:<30} {:>16.6} {}{samples}",
            m.name, m.value, m.unit
        );
    }
    for note in &run.sheet.notes {
        let _ = writeln!(summary, "note: {note}");
    }
    let _ = writeln!(
        summary,
        "checks: {} attempted, {} failed, {} problem(s)",
        run.attempted,
        run.failed,
        run.problems.len()
    );
    for p in run.problems.iter().take(20) {
        let _ = writeln!(summary, "problem: {p}");
    }
    let line = format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{}}}"#,
        run.attempted,
        run.failed,
        metrics_json(&json_metrics)
    );

    // Result file: the host record, every metric and the verdict.
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let stem = format!(
        "{}-seed{}-trace{}-{stamp}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let host_json: Vec<String> = host
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let all: Vec<Metric> = json_metrics.iter().chain(extra.iter()).cloned().collect();
    let file = format!(
        r#"{{"host":{{{}}},"correct":{correct},"attempted":{},"failed":{},"metrics":{},"problems":[{}]}}"#,
        host_json.join(","),
        run.attempted,
        run.failed,
        metrics_json(&all),
        run.problems
            .iter()
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(",")
    );
    let out = Path::new(RESULTS_DIR);
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), file + "\n"))
        .and_then(|()| match &run.rec {
            Some(rec) => rec.write_jsonl(&out.join(format!("{stem}.spans.jsonl"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        let _ = writeln!(summary, "note: cannot write the result file: {e}");
    }
    print!("{summary}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
