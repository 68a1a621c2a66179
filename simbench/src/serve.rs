//! `dlx_serve`: a `simcov serve` release process (default settings plus
//! `--journal`) driven over loopback by this process as a client, with
//! the `dlx_cli_jobs` mix sent as wire requests over one closed-loop
//! connection per caller thread.

use crate::checks::Reference;
use crate::mix::{dlx_mix, model_blif, wire_request, Mix, MODELS};
use crate::procfs::Proc;
use crate::replay::ServeExtras;
use crate::spans::{Open, Recorder};
use crate::stats::median;
use crate::workloads::{
    check_mix, drift_check, explicit_e2e, layer_metrics, paired_job, Done, Paired, Run, SETUP_REPS,
};
use simcov_obs::json::Json;
use simcov_serve::cache::TraceCache;
use simcov_serve::client::{self, Client};
use simcov_serve::jobs::AuditPolicy;
use simcov_serve::{ExitStatus, ServerConfig};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Request ids of served jobs start here, apart from in-process ones.
const SERVED_REQUEST_BASE: u32 = 1 << 30;

/// How long a server may take to exit after `shutdown`.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

/// A running `simcov serve` child. Dropping it kills and reaps the
/// process if it has not exited.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    pub journal: PathBuf,
}

impl ServerProc {
    /// Starts a server on an ephemeral loopback port, journaling to
    /// `journal`, and waits for its `listening` line.
    pub fn spawn(simcov: &Path, journal: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(simcov)
            .args(["serve", "--addr", "127.0.0.1:0", "--journal"])
            .arg(journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", simcov.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut server = ServerProc {
            child,
            stdout,
            addr: String::new(),
            journal: journal.to_path_buf(),
        };
        match (read, line.trim().strip_prefix("listening ")) {
            (Ok(_), Some(addr)) => {
                server.addr = addr.to_string();
                Ok(server)
            }
            // Dropping `server` kills and reaps the child.
            _ => Err(format!(
                "server printed `{}` instead of its address",
                line.trim()
            )),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `shutdown`, drains the server's output and reaps it.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("connect: {e}"))?;
        c.request(&client::shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("server did not exit after shutdown".to_string())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A served job's answer.
struct Served {
    total: Duration,
    rejected: u64,
    output: String,
    status: Option<ExitStatus>,
}

/// Submits one job and waits for its result, riding out `rejected`
/// backpressure the way `Client::run_job` does. With `root`, the
/// submit-to-ack and ack-to-result segments are recorded as spans.
fn serve_job(
    c: &mut Client,
    wire: &str,
    id: &str,
    root: Option<&Open<'_>>,
) -> Result<Served, String> {
    let t0 = Instant::now();
    let mut ack_span = root.map(|r| r.start_child("serve.ack"));
    let mut result_span = None;
    let mut rejected = 0;
    c.send(wire).map_err(|e| format!("send: {e}"))?;
    loop {
        let frame = c.recv().map_err(|e| format!("recv: {e}"))?;
        let field = |k: &str| frame.get(k).and_then(Json::as_str).unwrap_or("");
        if field("id") != id {
            return Err(format!("unexpected frame type `{}`", field("type")));
        }
        match (field("type"), field("status")) {
            ("ack", "admitted") => {
                if let Some(s) = ack_span.take() {
                    s.close();
                }
                result_span = root.map(|r| r.start_child("serve.result"));
            }
            ("ack", "rejected") => {
                rejected += 1;
                let retry = frame
                    .get("retry_after_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(25)
                    .min(250);
                std::thread::sleep(Duration::from_millis(retry));
                c.send(wire).map_err(|e| format!("send: {e}"))?;
            }
            ("result", _) => {
                if let Some(s) = result_span.take() {
                    s.close();
                }
                return Ok(Served {
                    total: t0.elapsed(),
                    rejected,
                    output: field("output").to_string(),
                    status: frame
                        .get("exit")
                        .and_then(Json::as_u64)
                        .and_then(|c| ExitStatus::from_code(c as i32)),
                });
            }
            (t, s) => return Err(format!("unexpected `{t}` frame (status `{s}`)")),
        }
    }
}

/// Server counters from a `stats` request.
fn server_counters(addr: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let frame = c
        .request(&client::stats())
        .map_err(|e| format!("stats: {e}"))?;
    Ok(frame
        .get("counters")
        .and_then(Json::as_obj)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|v| (k.clone(), v)))
                .collect()
        })
        .unwrap_or_default())
}

/// Caller threads and connections: one per core, at most two.
fn connections() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Starts [`SETUP_REPS`] servers in turn, timing each from spawn until
/// the timed phase could begin: through the first answered request and
/// one warm-up job per class. All but the last are shut down again.
fn serve_setup(simcov: &Path, tmp: &Path, mix: &Mix) -> Result<(ServerProc, Vec<f64>), String> {
    let mut setups = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let server = ServerProc::spawn(simcov, &tmp.join(format!("journal-{rep}")))?;
        let mut c = Client::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
        for (k, &si) in mix.warmup.iter().enumerate() {
            let id = format!("warm{k}");
            serve_job(&mut c, &wire_request(&mix.specs[si].job, &id), &id, None)
                .map_err(|e| format!("warm-up job {k}: {e}"))?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((server, setups));
        }
        server.shutdown()?;
    }
    unreachable!("the last repetition returns")
}

/// What the client threads of a timed phase saw.
#[derive(Default)]
struct ClientSide {
    done: Vec<Done>,
    rejected: u64,
    errors: Vec<String>,
    /// (spec, latency ms) of each served job, for the overhead metric.
    latency_by_spec: Vec<(usize, f64)>,
}

/// Drives the server with the mix for `budget` over [`connections`]
/// closed-loop connections, while sampling its thread count.
fn client_phase(
    server: &ServerProc,
    mix: &Mix,
    refs: &[Reference],
    budget: Duration,
    rec: Option<&Recorder>,
) -> (ClientSide, u64) {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let side = Mutex::new(ClientSide::default());
    let proc_ = Proc::pid(server.pid());
    let start = Instant::now();
    let threads_peak = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            // Relaxed: the flag publishes no other data.
            while !stop.load(Ordering::Relaxed) {
                if let Ok(t) = proc_.threads() {
                    peak = peak.max(t);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        let callers: Vec<_> = (0..connections())
            .map(|_| {
                s.spawn(|| {
                    let mut mine = ClientSide::default();
                    let mut c = match Client::connect(&server.addr) {
                        Ok(c) => c,
                        Err(e) => {
                            mine.errors.push(format!("connect: {e}"));
                            return mine;
                        }
                    };
                    while start.elapsed() < budget {
                        // Relaxed: a ticket counter publishing no data.
                        let n = next.fetch_add(1, Ordering::Relaxed);
                        let si = mix.cycle[n % mix.cycle.len()];
                        let spec = &mix.specs[si];
                        let id = format!("r{n}");
                        let wire = wire_request(&spec.job, &id);
                        let req = SERVED_REQUEST_BASE + n as u32;
                        let root = rec.map(|r| r.open("job.served", req, None));
                        let served = serve_job(&mut c, &wire, &id, root.as_ref());
                        if let Some(r) = root {
                            r.close();
                        }
                        let (ms, ok) = match served {
                            Ok(sv) => {
                                mine.rejected += sv.rejected;
                                let ok =
                                    sv.status.is_some_and(|st| refs[si].matches(&sv.output, st));
                                (sv.total.as_secs_f64() * 1e3, ok)
                            }
                            Err(e) => {
                                mine.errors.push(e);
                                (start.elapsed().as_secs_f64() * 1e3, false)
                            }
                        };
                        mine.latency_by_spec.push((si, ms));
                        mine.done.push(Done {
                            kind: spec.kind,
                            ms,
                            ok,
                            faults: refs[si].faults,
                        });
                        if !ok && mine.errors.len() > 8 {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        for h in callers {
            let mine = h.join().expect("client threads do not panic");
            let mut all = side.lock().expect("no client thread panicked");
            all.done.extend(mine.done);
            all.rejected += mine.rejected;
            all.errors.extend(mine.errors);
            all.latency_by_spec.extend(mine.latency_by_spec);
        }
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("the sampler does not panic")
    });
    (
        side.into_inner().expect("no client thread panicked"),
        threads_peak,
    )
}

/// `dlx_serve`. `simcov` is the release `simcov` binary, `tmp` a scratch
/// directory inside the checkout for the server journals.
pub fn dlx_serve(seed: u64, seconds: f64, trace: bool, simcov: &Path, tmp: &Path) -> Run {
    let mut run = Run::default();
    let models: Vec<(&'static str, String)> = MODELS.iter().map(|&m| (m, model_blif(m))).collect();
    let mix = dlx_mix(seed, &models);
    let refs = check_mix(&mix, &mut run.problems);
    let cache = TraceCache::new(ServerConfig::default().cache_capacity);
    let extras = ServeExtras {
        cache: &cache,
        audit: AuditPolicy::default(),
    };
    let budget = Duration::from_secs_f64(seconds);
    let rec = Recorder::default();
    let mut paired = Paired::default();
    if trace {
        // In-process half: each job untraced through `execute`, then
        // replayed layer by layer with the server's cache and audit.
        drift_check(&mix, &refs, Some(&extras), &mut run.problems);
        let start = Instant::now();
        let mut req = 0u32;
        while start.elapsed() < budget / 2 {
            let si = mix.cycle[req as usize % mix.cycle.len()];
            let ok = paired_job(
                &mix.specs[si].job,
                &refs[si],
                &rec,
                req,
                Some(&extras),
                &mut paired,
            );
            run.attempted += 1;
            run.failed += u64::from(!ok);
            req += 1;
        }
    }

    let (server, setups) = match serve_setup(simcov, tmp, &mix) {
        Ok(s) => s,
        Err(e) => {
            run.problems.push(format!("server set-up failed: {e}"));
            return run;
        }
    };
    let sp = Proc::pid(server.pid());
    if let Err(e) = sp.reset_peak_rss() {
        run.problems.push(e);
    }
    let cpu0 = sp.cpu_s().unwrap_or(0.0);
    let start = Instant::now();
    let phase = if trace { budget / 2 } else { budget };
    let (side, threads_peak) = client_phase(&server, &mix, &refs, phase, trace.then_some(&rec));
    let elapsed = start.elapsed().as_secs_f64();
    let cpu = sp.cpu_s().unwrap_or(0.0) - cpu0;
    let peak = sp.peak_rss_mb().unwrap_or_else(|e| {
        run.problems.push(e);
        0.0
    });
    let counters = server_counters(&server.addr).unwrap_or_else(|e| {
        run.problems.push(e);
        BTreeMap::new()
    });
    let journal_bytes = std::fs::metadata(&server.journal).map_or(0, |m| m.len());
    if let Err(e) = server.shutdown() {
        run.problems.push(e);
    }
    run.problems.extend(
        side.errors
            .iter()
            .take(8)
            .map(|e| format!("served job: {e}")),
    );
    run.attempted += side.done.len() as u64;
    run.failed += side.done.iter().filter(|d| !d.ok).count() as u64;
    if side.done.is_empty() {
        run.problems.push("no served job completed".to_string());
        return run;
    }

    if !trace {
        explicit_e2e(&mut run.sheet, &side.done, elapsed, cpu, peak, &setups);
        return run;
    }
    layer_metrics(&mut run.sheet, &rec, &paired);
    // Overhead: served latency minus the in-process median of its spec.
    let mut inproc: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (req, ms) in &paired.exec_ms {
        let si = mix.cycle[*req as usize % mix.cycle.len()];
        inproc.entry(si).or_default().push(*ms);
    }
    let overhead: Vec<f64> = side
        .latency_by_spec
        .iter()
        .filter_map(|(si, ms)| inproc.get(si).and_then(|v| median(v)).map(|m| ms - m))
        .collect();
    run.sheet
        .set_sampled("serve.overhead_ms", median(&overhead), overhead.len());
    let get = |k: &str| counters.get(k).copied().unwrap_or(0);
    let (hits, misses) = (get("serve.cache_hits"), get("serve.cache_misses"));
    run.sheet.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.sheet.set("serve.threads_peak", threads_peak as f64);
    run.sheet.set(
        "serve.rejected",
        (get("serve.jobs_rejected").max(side.rejected)) as f64,
    );
    run.sheet
        .set("serve.degraded", get("serve.jobs_degraded") as f64);
    // Every job the final server ran: its warm-up jobs and the timed ones.
    let ran = mix.warmup.len() + side.done.len();
    run.sheet.set(
        "serve.journal_bytes_per_job",
        journal_bytes as f64 / ran as f64,
    );
    run.rec = Some(rec);
    run
}
