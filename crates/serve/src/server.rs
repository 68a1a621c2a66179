//! The thread-pool job server behind `simcov serve`.
//!
//! One acceptor thread takes TCP connections; each connection gets a
//! reader thread that parses frames and answers protocol requests
//! inline, queueing submitted jobs on the bounded fair [`JobQueue`]. A
//! fixed pool of worker threads drains the queue; each worker executes
//! jobs through [`jobs::execute`] — the same function the single-shot
//! CLI calls — under per-attempt panic isolation, deterministic seeded
//! retry backoff and a quarantine for jobs that exhaust their retries.
//!
//! Determinism contract: a job's result frame (report text, exit
//! status, telemetry trace) is a pure function of its spec. Server-level
//! telemetry uses *counters only* (all commutative), so the server's own
//! trace is byte-identical across worker counts and scheduling orders.

use crate::cache::TraceCache;
#[cfg(feature = "chaos")]
use crate::chaos::ServeChaosPlan;
use crate::jobs::{self, AuditPolicy, ExecCtx, JobSpec};
use crate::journal::{self, ServerJournal};
use crate::protocol::{
    ack_response, error_response, parse_request, read_frame_text, write_frame, FrameError, Request,
};
use crate::queue::{Admission, JobQueue};
use crate::ExitStatus;
use simcov_core::Engine;
use simcov_obs::fnv::Fnv64;
use simcov_obs::json::{self, Json};
use simcov_obs::{names, Telemetry};
use simcov_prng::Prng;
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Server configuration. [`ServerConfig::default`] listens on an
/// ephemeral loopback port with conservative bounds.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads; 0 = all available cores.
    pub workers: usize,
    /// Admission-queue bound; a full queue rejects with retry-after.
    pub queue_capacity: usize,
    /// Golden-trace cache bound (traces, not bytes).
    pub cache_capacity: usize,
    /// Completed-result retention bound (results beyond it evict
    /// oldest-first; evicted ids answer `query` with an error).
    pub results_capacity: usize,
    /// Retry budget per job; a job panicking on every attempt is
    /// quarantined.
    pub max_retries: usize,
    /// Base of the exponential retry backoff.
    pub backoff_base_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Server-journal path; `None` disables durability.
    pub journal: Option<String>,
    /// Recover the journal instead of truncating it.
    pub resume: bool,
    /// Engine-equivalence sampling audit; `Some` arms the
    /// `symbolic → differential → naive` degradation ladder.
    pub audit: Option<AuditPolicy>,
    /// Service-layer failure injection (tests only).
    #[cfg(feature = "chaos")]
    pub chaos: Option<ServeChaosPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 256,
            cache_capacity: 8,
            results_capacity: 4096,
            max_retries: 2,
            backoff_base_ms: 1,
            seed: 0,
            journal: None,
            resume: false,
            audit: Some(AuditPolicy::default()),
            #[cfg(feature = "chaos")]
            chaos: None,
        }
    }
}

/// What `serve` reports when it returns.
#[derive(Debug)]
pub struct ServeSummary {
    /// Jobs completed (including jobs completing with a job-level error
    /// status).
    pub completed: u64,
    /// Jobs quarantined after exhausting retries.
    pub quarantined: u64,
    /// Journal records that failed to persist.
    pub journal_failures: u64,
    /// Final server telemetry snapshot, rendered as JSONL.
    pub trace: String,
}

impl ServeSummary {
    /// The serve process's exit status: [`ExitStatus::Partial`] when any
    /// job was quarantined or any journal record was lost — the server
    /// did useful work but cannot vouch for all of it.
    pub fn status(&self) -> ExitStatus {
        if self.quarantined > 0 || self.journal_failures > 0 {
            ExitStatus::Partial
        } else {
            ExitStatus::Ok
        }
    }
}

/// A queued unit of work.
struct QueuedJob {
    spec: JobSpec,
    /// The original request payload (journaled verbatim on admit).
    want_trace: bool,
    attempt_base: usize,
    /// Where to push the result frame; `None` for jobs recovered from
    /// the journal (their clients will reconnect and `query`).
    reply: Option<Arc<Mutex<TcpStream>>>,
}

struct ResultStore {
    by_id: HashMap<String, String>,
    order: Vec<String>,
}

struct Shared {
    queue: JobQueue<QueuedJob>,
    results: Mutex<ResultStore>,
    results_capacity: usize,
    in_flight: Mutex<HashSet<String>>,
    quarantined: Mutex<HashSet<u64>>,
    telemetry: Telemetry,
    journal: Option<ServerJournal>,
    journal_failures: AtomicUsize,
    cache: TraceCache,
    shutdown: AtomicBool,
    config: ServerConfig,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Shared {
    fn store_result(&self, id: &str, frame: String) {
        let mut store = lock(&self.results);
        if !store.by_id.contains_key(id) {
            store.order.push(id.to_string());
            if store.order.len() > self.results_capacity {
                let victim = store.order.remove(0);
                store.by_id.remove(&victim);
            }
        }
        store.by_id.insert(id.to_string(), frame);
        lock(&self.in_flight).remove(id);
    }

    fn journal_write(&self, write: impl FnOnce(&ServerJournal) -> std::io::Result<()>) {
        if let Some(j) = &self.journal {
            if write(j).is_err() {
                self.journal_failures.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Serializes a finished job into its result frame.
fn result_frame(
    id: &str,
    kind: &str,
    requested_engine: Option<Engine>,
    outcome: &jobs::JobOutcome,
    trace: Option<&str>,
) -> String {
    let mut s = format!(
        r#"{{"type":"result","id":"{}","kind":"{}","status":"{}","exit":{}"#,
        json::escape(id),
        json::escape(kind),
        outcome.status.as_str(),
        outcome.status.code()
    );
    if let (Some(requested), Some(used)) = (requested_engine, outcome.engine_used) {
        let _ = std::fmt::Write::write_fmt(
            &mut s,
            format_args!(
                r#","requested_engine":"{requested}","engine":"{used}","degraded":{}"#,
                outcome.degraded
            ),
        );
    }
    let _ = std::fmt::Write::write_fmt(
        &mut s,
        format_args!(r#","output":"{}""#, json::escape(&outcome.text)),
    );
    if let Some(trace) = trace {
        let _ = std::fmt::Write::write_fmt(
            &mut s,
            format_args!(r#","trace":"{}""#, json::escape(trace)),
        );
    }
    s.push('}');
    s
}

/// A running server: bound listener plus shared state. Created with
/// [`Server::bind`]; [`Server::serve`] blocks until a `shutdown` request
/// drains the queue.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    restored_pending: Vec<QueuedJob>,
}

impl Server {
    /// Binds the listener and (when configured) creates or recovers the
    /// server journal. No connection is accepted until [`serve`].
    ///
    /// [`serve`]: Server::serve
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let telemetry = Telemetry::new();
        let mut restored_pending = Vec::new();
        let mut restored_results = Vec::new();
        let journal = match (&config.journal, config.resume) {
            (None, _) => None,
            (Some(path), false) => Some(ServerJournal::create(path)?),
            (Some(path), true) => {
                let entries = ServerJournal::recover(path)?;
                let (completed, pending) = journal::unfinished(&entries);
                for (_fp, result) in completed {
                    if let Ok(frame) = json::parse(&result) {
                        if let Some(id) = frame.get("id").and_then(Json::as_str) {
                            restored_results.push((id.to_string(), result));
                        }
                    }
                }
                for (_fp, request) in pending {
                    let parsed = json::parse(&request)
                        .ok()
                        .and_then(|req| parse_request(&req).ok());
                    if let Some(Request::Submit { spec, want_trace }) = parsed {
                        restored_pending.push(QueuedJob {
                            spec,
                            want_trace,
                            attempt_base: 0,
                            reply: None,
                        });
                    }
                }
                Some(ServerJournal::append(path)?)
            }
        };
        #[cfg(feature = "chaos")]
        if let (Some(j), Some(plan)) = (&journal, &config.chaos) {
            j.chaos_fail_after(plan.journal_fail_after);
        }
        telemetry.counter_add(
            names::SERVE_JOBS_RESTORED,
            (restored_results.len() + restored_pending.len()) as u64,
        );
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            results: Mutex::new(ResultStore {
                by_id: HashMap::new(),
                order: Vec::new(),
            }),
            results_capacity: config.results_capacity.max(1),
            in_flight: Mutex::new(HashSet::new()),
            quarantined: Mutex::new(HashSet::new()),
            telemetry,
            journal,
            journal_failures: AtomicUsize::new(0),
            cache: TraceCache::new(config.cache_capacity),
            shutdown: AtomicBool::new(false),
            config,
        });
        for (id, result) in restored_results {
            shared.store_result(&id, result);
        }
        Ok(Server {
            listener,
            shared,
            restored_pending,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the server until a `shutdown` request: accepts connections,
    /// executes jobs, then drains the queue and joins the workers.
    pub fn serve(self) -> std::io::Result<ServeSummary> {
        let Server {
            listener,
            shared,
            restored_pending,
        } = self;
        let workers = if shared.config.workers == 0 {
            simcov_core::default_jobs()
        } else {
            shared.config.workers
        };
        // Re-queue journal-recovered jobs before any connection lands so
        // their results are available to early `query` requests.
        for job in restored_pending {
            lock(&shared.in_flight).insert(job.spec.id.clone());
            let fp = job.spec.fingerprint();
            let tenant = fp; // recovered jobs round-robin as their own tenants
            let _ = shared.queue.push(tenant, job);
        }
        let worker_handles: Vec<_> = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let mut reader_handles = Vec::new();
        let open_streams: Arc<Mutex<HashMap<u64, TcpStream>>> =
            Arc::new(Mutex::new(HashMap::new()));
        for (conn_id, stream) in (0u64..).zip(listener.incoming()) {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if let Ok(clone) = stream.try_clone() {
                lock(&open_streams).insert(conn_id, clone);
            }
            let shared = Arc::clone(&shared);
            let open_streams = Arc::clone(&open_streams);
            reader_handles.push(std::thread::spawn(move || {
                connection_loop(&shared, stream, conn_id);
                // Reader exit is connection end: close the socket and
                // drop the teardown handle so errored or abandoned
                // connections free their descriptors immediately
                // instead of at server shutdown. In-flight jobs from
                // this connection park their results for `query`.
                if let Some(s) = lock(&open_streams).remove(&conn_id) {
                    let _ = s.shutdown(std::net::Shutdown::Both);
                }
            }));
        }
        // Shutdown: stop admissions, drain the backlog, unblock any
        // reader still parked on a read.
        shared.queue.close();
        for handle in worker_handles {
            let _ = handle.join();
        }
        for (_, stream) in lock(&open_streams).drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for handle in reader_handles {
            let _ = handle.join();
        }
        let snapshot = shared.telemetry.snapshot();
        let completed = snapshot.counter(names::SERVE_JOBS_COMPLETED).unwrap_or(0);
        let quarantined = snapshot.counter(names::SERVE_JOBS_QUARANTINED).unwrap_or(0);
        Ok(ServeSummary {
            completed,
            quarantined,
            journal_failures: shared.journal_failures.load(Ordering::Relaxed) as u64,
            trace: snapshot.to_jsonl(),
        })
    }
}

/// Deterministic exponential backoff with seeded jitter for a
/// `(job, attempt)` pair.
fn backoff(seed: u64, fingerprint: u64, attempt: usize, base_ms: u64) -> Duration {
    let mut h = Fnv64::new();
    h.u64(seed);
    h.u64(fingerprint);
    h.u64(attempt as u64);
    let mut rng = Prng::seed_from_u64(h.finish());
    let exp = base_ms.saturating_mul(1u64 << attempt.min(6));
    Duration::from_micros(exp.saturating_mul(1000) + rng.gen_range(0..1000u64))
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        process_job(shared, job);
    }
}

fn process_job(shared: &Shared, job: QueuedJob) {
    let fp = job.spec.fingerprint();
    let config = &shared.config;
    #[cfg(feature = "chaos")]
    let force_audit: Option<Box<dyn Fn(Engine) -> bool + Sync>> =
        config.chaos.as_ref().map(|plan| {
            let plan = plan.clone();
            Box::new(move |engine: Engine| {
                plan.should_fail_audit(fp ^ Fnv64::hash(engine.name().as_bytes()))
            }) as Box<dyn Fn(Engine) -> bool + Sync>
        });
    let mut attempt = job.attempt_base;
    let outcome = loop {
        #[cfg(feature = "chaos")]
        if let Some(plan) = &config.chaos {
            if plan.should_panic(fp, attempt) {
                // Simulate a worker dying mid-job: unwind exactly like a
                // real job panic would, through the same isolation path.
                let caught = std::panic::catch_unwind(|| {
                    std::panic::panic_any(format!("chaos: worker panic on job {fp:016x}"))
                });
                debug_assert!(caught.is_err());
                if attempt >= config.max_retries {
                    break Err("panicked".to_string());
                }
                shared.telemetry.counter_add(names::SERVE_JOBS_RETRIED, 1);
                std::thread::sleep(backoff(config.seed, fp, attempt, config.backoff_base_ms));
                attempt += 1;
                continue;
            }
        }
        let tel = Telemetry::new();
        let ctx = ExecCtx {
            cache: Some(&shared.cache),
            audit: config.audit,
            #[cfg(feature = "chaos")]
            force_audit_fail: force_audit.as_deref(),
            #[cfg(not(feature = "chaos"))]
            force_audit_fail: None,
        };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            jobs::execute(&job.spec, &tel, &ctx)
        }));
        match result {
            Ok(executed) => break Ok((executed, tel)),
            Err(_) => {
                if attempt >= config.max_retries {
                    break Err("panicked".to_string());
                }
                shared.telemetry.counter_add(names::SERVE_JOBS_RETRIED, 1);
                std::thread::sleep(backoff(config.seed, fp, attempt, config.backoff_base_ms));
                attempt += 1;
            }
        }
    };
    let requested_engine = match &job.spec.kind {
        jobs::JobKind::Campaign(opts) => Some(opts.engine),
        _ => None,
    };
    let frame = match outcome {
        Err(_) => {
            // Retries exhausted: quarantine the fingerprint so identical
            // resubmissions are refused at admission instead of burning
            // the pool again.
            lock(&shared.quarantined).insert(fp);
            shared
                .telemetry
                .counter_add(names::SERVE_JOBS_QUARANTINED, 1);
            let outcome = jobs::JobOutcome {
                text: format!(
                    "job quarantined after {} attempts (panic isolation)\n",
                    config.max_retries + 1
                ),
                status: ExitStatus::Error,
                engine_used: None,
                degraded: 0,
                cache_hit: None,
            };
            result_frame(&job.spec.id, job.spec.kind.name(), None, &outcome, None)
        }
        Ok((Ok(executed), tel)) => {
            shared.telemetry.counter_add(names::SERVE_JOBS_COMPLETED, 1);
            if executed.degraded > 0 {
                shared
                    .telemetry
                    .counter_add(names::SERVE_JOBS_DEGRADED, executed.degraded as u64);
            }
            match executed.cache_hit {
                Some(true) => shared.telemetry.counter_add(names::SERVE_CACHE_HITS, 1),
                Some(false) => shared.telemetry.counter_add(names::SERVE_CACHE_MISSES, 1),
                None => {}
            }
            let trace = job.want_trace.then(|| tel.snapshot().to_jsonl());
            result_frame(
                &job.spec.id,
                job.spec.kind.name(),
                requested_engine,
                &executed,
                trace.as_deref(),
            )
        }
        Ok((Err(err), _)) => {
            shared.telemetry.counter_add(names::SERVE_JOBS_COMPLETED, 1);
            let outcome = jobs::JobOutcome {
                text: format!("{}\n", err.message),
                status: err.status,
                engine_used: None,
                degraded: 0,
                cache_hit: None,
            };
            result_frame(&job.spec.id, job.spec.kind.name(), None, &outcome, None)
        }
    };
    shared.store_result(&job.spec.id, frame.clone());
    shared.journal_write(|j| j.done(fp, &frame));
    let Some(reply) = &job.reply else { return };
    #[cfg(feature = "chaos")]
    if let Some(plan) = &config.chaos {
        if let Some(delay) = plan.slow_client_delay(fp) {
            std::thread::sleep(delay);
        }
        if plan.should_drop_connection(fp) {
            // The client sees EOF instead of its result and must
            // reconnect and `query`; the stored result makes that safe.
            let stream = lock(reply);
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return;
        }
    }
    let mut stream = lock(reply);
    let _ = write_frame(&mut *stream, &frame);
}

fn connection_loop(shared: &Shared, stream: TcpStream, conn_id: u64) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    loop {
        let text = match read_frame_text(&mut reader) {
            Ok(text) => text,
            Err(FrameError::Closed) => return,
            Err(FrameError::Truncated) | Err(FrameError::Io(_)) => {
                // Mid-request disconnect: nothing to answer, nothing
                // leaked — queued jobs finish and park their results.
                shared
                    .telemetry
                    .counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                return;
            }
            Err(e @ FrameError::Oversized(_)) => {
                // The unread payload bytes make resync impossible:
                // answer and close.
                shared
                    .telemetry
                    .counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                let mut w = lock(&writer);
                let _ = write_frame(&mut *w, &error_response(&e.to_string()));
                return;
            }
            Err(e @ FrameError::Malformed(_)) => {
                // The payload was fully consumed: answer and keep the
                // connection usable.
                shared
                    .telemetry
                    .counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                let mut w = lock(&writer);
                if write_frame(&mut *w, &error_response(&e.to_string())).is_err() {
                    return;
                }
                continue;
            }
        };
        let parsed = json::parse(&text).map_err(|e| format!("malformed frame: {e}"));
        let reply = match parsed.and_then(|frame| parse_request(&frame)) {
            Err(message) => {
                shared
                    .telemetry
                    .counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                error_response(&message)
            }
            Ok(Request::Stats) => {
                let snapshot = shared.telemetry.snapshot();
                let mut s = String::from(r#"{"type":"stats","counters":{"#);
                let mut first = true;
                for (name, value) in &snapshot.counters {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    let _ = std::fmt::Write::write_fmt(
                        &mut s,
                        format_args!(r#""{}":{value}"#, json::escape(name)),
                    );
                }
                s.push_str("}}");
                s
            }
            Ok(Request::Query { id }) => {
                let stored = lock(&shared.results).by_id.get(&id).cloned();
                match stored {
                    Some(frame) => frame,
                    None if lock(&shared.in_flight).contains(&id) => {
                        ack_response(&id, "pending", None)
                    }
                    None => error_response(&format!("unknown job id `{id}`")),
                }
            }
            Ok(Request::Shutdown) => {
                // Ack *before* unblocking the acceptor: the drain path
                // shuts every open stream, and the requester must see
                // "draining" before its stream can be torn down.
                {
                    let mut w = lock(&writer);
                    let _ = write_frame(&mut *w, &ack_response("", "draining", None));
                }
                shared.shutdown.store(true, Ordering::SeqCst);
                shared.queue.close();
                // Unblock the acceptor with a loopback connection.
                if let Ok(addr) = lock(&writer).local_addr() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
            Ok(Request::Submit { spec, want_trace }) => {
                let fp = spec.fingerprint();
                let id = spec.id.clone();
                if lock(&shared.quarantined).contains(&fp) {
                    ack_response(&id, "quarantined", None)
                } else {
                    lock(&shared.in_flight).insert(id.clone());
                    let job = QueuedJob {
                        spec,
                        want_trace,
                        attempt_base: 0,
                        reply: Some(Arc::clone(&writer)),
                    };
                    // Hold the reply writer across admission: a fast
                    // worker can pop and finish the job immediately, and
                    // its result frame must not reach the wire before
                    // the "admitted" ack (a client that stops reading
                    // after its result would RST the trailing ack).
                    let mut w = lock(&writer);
                    let reply = match shared.queue.push(conn_id, job) {
                        Admission::Admitted => {
                            // Durability barrier: the admit record (the
                            // request payload, verbatim) reaches disk
                            // before the client ever sees "admitted".
                            shared.journal_write(|j| j.admit(fp, &text));
                            shared.telemetry.counter_add(names::SERVE_JOBS_ADMITTED, 1);
                            ack_response(&id, "admitted", None)
                        }
                        Admission::Rejected { retry_after_ms } => {
                            shared.telemetry.counter_add(names::SERVE_JOBS_REJECTED, 1);
                            lock(&shared.in_flight).remove(&id);
                            ack_response(&id, "rejected", Some(retry_after_ms))
                        }
                    };
                    if write_frame(&mut *w, &reply).is_err() {
                        return;
                    }
                    drop(w);
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
            }
        };
        let mut w = lock(&writer);
        if write_frame(&mut *w, &reply).is_err() {
            return;
        }
        drop(w);
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}
