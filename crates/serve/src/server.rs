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
use std::collections::{HashMap, HashSet, VecDeque};
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
    /// Completed-result retention bound in bytes: each stored result
    /// costs its frame plus its id. Results already written to their
    /// connection are evicted first, oldest first, while the store
    /// exceeds the budget. Undelivered results (the write failed, the
    /// job has no connection, or the result was restored from the
    /// journal) are evicted, oldest first, only while they alone exceed
    /// the budget, so a client that reconnects to `query` finds its
    /// result. The newest result always stays, however large. An evicted
    /// id answers `query` with an `unknown job id` error.
    pub results_budget_bytes: usize,
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
            results_budget_bytes: 256 * 1024,
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

/// How far a stored result got towards its client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Delivery {
    /// Stored; its worker is about to write it to the connection.
    Sending,
    /// Written to its connection, or fetched by `query`.
    Delivered,
    /// Not written: the write failed, or the job has no connection
    /// (journal-restored results and re-queued jobs). Kept for `query`.
    Parked,
}

struct Stored {
    frame: String,
    delivery: Delivery,
}

/// Completed result frames kept for `query`, bounded by bytes (frame
/// plus id). Delivered results are evicted oldest first while the store
/// exceeds its budget. Parked results are evicted oldest first only
/// while they alone exceed it, so new traffic cannot push out a result
/// a client has yet to fetch. A result still being sent is never
/// evicted, and neither is the newest result.
struct ResultStore {
    by_id: HashMap<String, Stored>,
    /// Ids oldest first; each id appears once.
    order: VecDeque<String>,
    /// Bytes of every stored result.
    bytes: usize,
    /// Bytes of the parked results alone.
    parked_bytes: usize,
    budget: usize,
}

impl ResultStore {
    fn new(budget: usize) -> ResultStore {
        ResultStore {
            by_id: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            parked_bytes: 0,
            budget,
        }
    }

    /// Stores `frame` as the newest result. Re-storing an id replaces
    /// its frame and makes it the newest, so its bytes count once.
    fn insert(&mut self, id: &str, frame: String, delivery: Delivery) {
        if self.by_id.contains_key(id) {
            self.order.retain(|o| o != id);
            self.forget(id);
        }
        self.order.push_back(id.to_string());
        self.by_id
            .insert(id.to_string(), Stored { frame, delivery });
        self.account(id, delivery, true);
        self.evict();
    }

    /// Records how delivery of `id`'s result went.
    fn settle(&mut self, id: &str, delivery: Delivery) {
        let Some(was) = self.by_id.get(id).map(|s| s.delivery) else {
            return;
        };
        self.account(id, was, false);
        self.by_id.get_mut(id).expect("present").delivery = delivery;
        self.account(id, delivery, true);
        self.evict();
    }

    /// Adds (or, with `add` false, removes) `id`'s bytes to the totals
    /// its `delivery` state counts in.
    fn account(&mut self, id: &str, delivery: Delivery, add: bool) {
        let cost = id.len() + self.by_id[id].frame.len();
        let parked = if delivery == Delivery::Parked {
            cost
        } else {
            0
        };
        if add {
            self.bytes += cost;
            self.parked_bytes += parked;
        } else {
            self.bytes -= cost;
            self.parked_bytes -= parked;
        }
    }

    /// Drops `id` from `by_id` and the totals (not from `order`).
    fn forget(&mut self, id: &str) {
        let delivery = self.by_id[id].delivery;
        self.account(id, delivery, false);
        self.by_id.remove(id);
    }

    fn evict(&mut self) {
        while self.parked_bytes > self.budget && self.evict_oldest(Delivery::Parked) {}
        while self.bytes > self.budget && self.evict_oldest(Delivery::Delivered) {}
    }

    /// Evicts the oldest result in state `delivery`, other than the
    /// newest result. Returns whether there was one.
    fn evict_oldest(&mut self, delivery: Delivery) -> bool {
        let older = self.order.len().saturating_sub(1);
        let by_id = &self.by_id;
        let Some(i) = self
            .order
            .iter()
            .take(older)
            .position(|id| by_id[id].delivery == delivery)
        else {
            return false;
        };
        let victim = self.order.remove(i).expect("position is in range");
        self.forget(&victim);
        true
    }
}

/// Where a job id stands, as `query` answers it.
#[derive(Debug, PartialEq)]
enum Lookup {
    /// Finished: its stored result frame.
    Done(String),
    /// Admitted and not yet finished.
    Pending,
    /// Never admitted, rejected, or its result was evicted.
    Unknown,
}

struct Shared {
    queue: JobQueue<QueuedJob>,
    results: Mutex<ResultStore>,
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
    /// Stores a finished job's result, then drops it from `in_flight`
    /// under the same `results` lock, so [`lookup`](Self::lookup) finds
    /// an admitted id in one set or the other at every moment.
    fn store_result(&self, id: &str, frame: String, delivery: Delivery) {
        let mut store = lock(&self.results);
        store.insert(id, frame, delivery);
        lock(&self.in_flight).remove(id);
    }

    /// Looks `id` up in `results`, then `in_flight`, holding the
    /// `results` lock across both (the lock order `store_result` uses).
    /// A parked result that `query` finds counts as delivered from then
    /// on.
    fn lookup(&self, id: &str) -> Lookup {
        let mut store = lock(&self.results);
        if let Some(stored) = store.by_id.get(id) {
            let frame = stored.frame.clone();
            if stored.delivery == Delivery::Parked {
                store.settle(id, Delivery::Delivered);
            }
            return Lookup::Done(frame);
        }
        if lock(&self.in_flight).contains(id) {
            Lookup::Pending
        } else {
            Lookup::Unknown
        }
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
        let mut refused = Vec::new();
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
                    let frame = json::parse(&request);
                    let parsed = match &frame {
                        Ok(req) => parse_request(req),
                        Err(e) => Err(format!("malformed frame: {e}")),
                    };
                    match parsed {
                        Ok(Request::Submit { spec, want_trace }) => {
                            restored_pending.push(QueuedJob {
                                spec,
                                want_trace,
                                attempt_base: 0,
                                reply: None,
                            })
                        }
                        Ok(_) => {}
                        // A record an earlier server admitted but this one
                        // refuses: its id answers `query` with the reason.
                        Err(message) => {
                            telemetry.counter_add(names::SERVE_PROTOCOL_ERRORS, 1);
                            let id = frame
                                .ok()
                                .and_then(|f| f.get("id")?.as_str().map(str::to_string));
                            refused.extend(id.map(|id| (id, error_response(&message))));
                        }
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
            results: Mutex::new(ResultStore::new(config.results_budget_bytes)),
            in_flight: Mutex::new(HashSet::new()),
            quarantined: Mutex::new(HashSet::new()),
            telemetry,
            journal,
            journal_failures: AtomicUsize::new(0),
            cache: TraceCache::new(config.cache_capacity),
            shutdown: AtomicBool::new(false),
            config,
        });
        for (id, result) in restored_results.into_iter().chain(refused) {
            shared.store_result(&id, result, Delivery::Parked);
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
            // Every frame is one write (`write_frame`), and the server
            // sends `ack` and `result` back to back: under Nagle the
            // result would wait for the client's delayed ACK of the ack.
            let _ = stream.set_nodelay(true);
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
            let text = format!(
                "job quarantined after {} attempts (panic isolation)\n",
                config.max_retries + 1
            );
            let outcome = jobs::JobOutcome::new(text, ExitStatus::Error);
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
            let outcome = jobs::JobOutcome::new(format!("{}\n", err.message), err.status);
            result_frame(&job.spec.id, job.spec.kind.name(), None, &outcome, None)
        }
    };
    let id = &job.spec.id;
    let Some(reply) = &job.reply else {
        shared.store_result(id, frame.clone(), Delivery::Parked);
        shared.journal_write(|j| j.done(fp, &frame));
        return;
    };
    shared.store_result(id, frame.clone(), Delivery::Sending);
    shared.journal_write(|j| j.done(fp, &frame));
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
            lock(&shared.results).settle(id, Delivery::Parked);
            return;
        }
    }
    // A connection whose reader has exited is shut down, so a write to
    // it fails and the result stays parked for `query`.
    let sent = write_frame(&mut *lock(reply), &frame).is_ok();
    let delivery = if sent {
        Delivery::Delivered
    } else {
        Delivery::Parked
    };
    lock(&shared.results).settle(id, delivery);
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
            Ok(Request::Query { id }) => match shared.lookup(&id) {
                Lookup::Done(frame) => frame,
                Lookup::Pending => ack_response(&id, "pending", None),
                Lookup::Unknown => error_response(&format!("unknown job id `{id}`")),
            },
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Client};
    use std::sync::atomic::AtomicUsize;

    fn frame(len: usize) -> String {
        "x".repeat(len)
    }

    fn ids(store: &ResultStore) -> Vec<&str> {
        store.order.iter().map(String::as_str).collect()
    }

    fn stored_bytes(store: &ResultStore) -> usize {
        let bytes = store.by_id.iter().map(|(id, s)| id.len() + s.frame.len());
        let parked = store
            .by_id
            .iter()
            .filter(|(_, s)| s.delivery == Delivery::Parked)
            .map(|(id, s)| id.len() + s.frame.len());
        assert_eq!(store.parked_bytes, parked.sum::<usize>());
        assert_eq!(store.order.len(), store.by_id.len());
        bytes.sum()
    }

    #[test]
    fn store_evicts_oldest_first_within_the_budget() {
        let mut store = ResultStore::new(100);
        for id in ["a", "b", "c", "d", "e", "f"] {
            store.insert(id, frame(20), Delivery::Delivered);
        }
        // 21 bytes each: four fit in 100, five do not.
        assert_eq!(ids(&store), ["c", "d", "e", "f"]);
        assert_eq!(store.bytes, 84);
        assert_eq!(store.bytes, stored_bytes(&store));
        assert!(!store.by_id.contains_key("b"));
    }

    #[test]
    fn store_keeps_a_frame_larger_than_the_budget() {
        let mut store = ResultStore::new(100);
        store.insert("a", frame(20), Delivery::Delivered);
        store.insert("big", frame(1000), Delivery::Delivered);
        assert_eq!(ids(&store), ["big"]);
        assert_eq!(store.bytes, 1003);
        store.insert("b", frame(20), Delivery::Delivered);
        assert_eq!(
            ids(&store),
            ["b"],
            "the next store evicts the oversized one"
        );
    }

    #[test]
    fn restoring_an_id_counts_its_bytes_once() {
        let mut store = ResultStore::new(100);
        store.insert("a", frame(20), Delivery::Delivered);
        store.insert("b", frame(20), Delivery::Delivered);
        store.insert("a", frame(30), Delivery::Parked);
        assert_eq!(ids(&store), ["b", "a"], "a re-stored id becomes the newest");
        assert_eq!(store.bytes, 21 + 31);
        assert_eq!(store.bytes, stored_bytes(&store));
        assert_eq!(store.by_id["a"].frame.len(), 30);
        // Filling up evicts `b`; the parked `a` fits the budget alone.
        store.insert("c", frame(40), Delivery::Delivered);
        store.insert("d", frame(40), Delivery::Delivered);
        assert_eq!(ids(&store), ["a", "d"]);
        assert_eq!(store.bytes, stored_bytes(&store));
    }

    #[test]
    fn undelivered_results_outlive_an_oversized_frame() {
        let mut store = ResultStore::new(100);
        store.insert("parked", frame(20), Delivery::Parked);
        store.insert("a", frame(20), Delivery::Delivered);
        store.insert("b", frame(20), Delivery::Sending);
        // A frame over the whole budget, still being sent, pushes out
        // every delivered result and nothing else.
        store.insert("big", frame(1000), Delivery::Sending);
        assert_eq!(ids(&store), ["parked", "b", "big"]);
        store.settle("big", Delivery::Delivered);
        store.settle("b", Delivery::Delivered);
        assert_eq!(ids(&store), ["parked", "big"], "the newest stays");
        store.insert("c", frame(20), Delivery::Delivered);
        assert_eq!(ids(&store), ["parked", "c"]);
        assert_eq!(store.bytes, stored_bytes(&store));
    }

    #[test]
    fn parked_results_are_bounded_by_the_budget_alone() {
        let mut store = ResultStore::new(100);
        for id in ["a", "b", "c", "d", "e"] {
            store.insert(id, frame(20), Delivery::Parked);
        }
        assert_eq!(ids(&store), ["b", "c", "d", "e"]);
        assert_eq!(store.parked_bytes, 84);
        // A failed write parks a result; a fetched one becomes evictable.
        store.insert("f", frame(20), Delivery::Sending);
        store.settle("f", Delivery::Parked);
        assert_eq!(ids(&store), ["c", "d", "e", "f"]);
        store.settle("c", Delivery::Delivered);
        store.insert("g", frame(20), Delivery::Delivered);
        assert_eq!(ids(&store), ["d", "e", "f", "g"]);
        assert_eq!(store.bytes, stored_bytes(&store));
    }

    fn start(config: ServerConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        (
            addr,
            std::thread::spawn(move || server.serve().expect("serve")),
        )
    }

    fn lint(id: &str) -> String {
        format!(r#"{{"type":"lint","id":"{id}","model":{{"dlx":"reduced-obs"}},"format":"json"}}"#)
    }

    #[test]
    fn evicted_ids_answer_query_with_unknown() {
        let (addr, handle) = start(ServerConfig {
            workers: 1,
            results_budget_bytes: 1,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        for id in ["first", "second"] {
            let result = c.run_job(&lint(id), id).unwrap();
            assert_eq!(result.get("status").and_then(Json::as_str), Some("ok"));
        }
        let evicted = c.request(&client::query("first")).unwrap();
        assert_eq!(evicted.get("type").and_then(Json::as_str), Some("error"));
        assert_eq!(
            evicted.get("error").and_then(Json::as_str),
            Some("unknown job id `first`")
        );
        let kept = c.request(&client::query("second")).unwrap();
        assert_eq!(kept.get("type").and_then(Json::as_str), Some("result"));
        c.request(&client::shutdown()).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn resumed_server_restores_into_a_bounded_store() {
        let path = std::env::temp_dir().join(format!(
            "simcov-serve-bounded-resume-{}.journal",
            std::process::id()
        ));
        let journal = ServerJournal::create(&path).unwrap();
        for i in 0..64u64 {
            let result = format!(
                r#"{{"type":"result","id":"r{i}","status":"ok","exit":0,"output":"{}"}}"#,
                "y".repeat(1000)
            );
            journal.done(i, &result).unwrap();
        }
        drop(journal);
        let server = Server::bind(ServerConfig {
            journal: Some(path.to_string_lossy().into_owned()),
            resume: true,
            results_budget_bytes: 8 * 1024,
            ..ServerConfig::default()
        })
        .unwrap();
        {
            let store = lock(&server.shared.results);
            assert!(store.bytes <= 8 * 1024, "{} bytes stored", store.bytes);
            assert_eq!(store.bytes, stored_bytes(&store));
            assert_eq!(store.order.back().map(String::as_str), Some("r63"));
            assert!(!store.by_id.contains_key("r0"));
        }
        drop(server);
        std::fs::remove_file(&path).unwrap();
    }

    /// A client reconnecting to `query` a result it never received must
    /// find it, even after a traced result larger than the whole budget
    /// and a stream of other jobs were stored in the meantime.
    #[test]
    fn a_parked_result_survives_an_oversized_traced_result() {
        let path = std::env::temp_dir().join(format!(
            "simcov-serve-parked-survives-{}.journal",
            std::process::id()
        ));
        let journal = ServerJournal::create(&path).unwrap();
        let parked = r#"{"type":"result","id":"parked","status":"ok","exit":0,"output":"kept"}"#;
        journal.done(1, parked).unwrap();
        drop(journal);
        let (addr, handle) = start(ServerConfig {
            workers: 1,
            journal: Some(path.to_string_lossy().into_owned()),
            resume: true,
            results_budget_bytes: 4 * 1024,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        let traced = lint("traced").replace(r#""format""#, r#""trace":true,"format""#);
        let big = c.run_job(&traced, "traced").unwrap();
        let big_len: usize = ["output", "trace"]
            .iter()
            .map(|k| big.get(k).and_then(Json::as_str).unwrap().len())
            .sum();
        assert!(big_len > 4 * 1024, "output and trace are {big_len} bytes");
        for i in 0..4 {
            let id = format!("after{i}");
            c.run_job(&lint(&id), &id).unwrap();
        }
        let evicted = c.request(&client::query("traced")).unwrap();
        assert_eq!(evicted.get("type").and_then(Json::as_str), Some("error"));
        let mut reconnected = Client::connect(&addr).unwrap();
        let kept = reconnected.request(&client::query("parked")).unwrap();
        assert_eq!(kept.get("output").and_then(Json::as_str), Some("kept"));
        c.request(&client::shutdown()).unwrap();
        handle.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    /// `query` must never call an admitted job unknown: pollers chasing
    /// the job being completed race `store_result` on every id.
    #[test]
    fn lookup_never_misses_a_completing_job() {
        let server = Server::bind(ServerConfig::default()).unwrap();
        let shared = &server.shared;
        let ids: Vec<String> = (0..20_000).map(|i| format!("job{i}")).collect();
        lock(&shared.in_flight).extend(ids.iter().cloned());
        let completed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for id in &ids {
                    shared.store_result(id, frame(16), Delivery::Sending);
                    lock(&shared.results).settle(id, Delivery::Delivered);
                    completed.fetch_add(1, Ordering::Release);
                }
            });
            // More pollers than cores: a poller preempted between its
            // two checks is what opens the window.
            for _ in 0..4 {
                scope.spawn(|| loop {
                    let next = completed.load(Ordering::Acquire);
                    let Some(id) = ids.get(next) else { break };
                    let answer = shared.lookup(id);
                    assert_ne!(answer, Lookup::Unknown, "{id} answered unknown");
                });
            }
        });
        assert_eq!(shared.lookup("job19999"), Lookup::Done(frame(16)));
        assert_eq!(shared.lookup("never-submitted"), Lookup::Unknown);
    }

    /// A pending journal record this server refuses (an unknown field)
    /// is answered, not dropped: `query` on its id returns the parse
    /// error, and the refusal counts as a protocol error.
    #[test]
    fn a_refused_pending_record_answers_query_with_its_error() {
        let path = std::env::temp_dir().join(format!(
            "simcov-serve-refused-resume-{}.journal",
            std::process::id()
        ));
        let journal = ServerJournal::create(&path).unwrap();
        let request = r#"{"type":"lint","id":"old","model":{"dlx":"reduced-obs"},"colour":"red"}"#;
        journal.admit(7, request).unwrap();
        drop(journal);
        let (addr, handle) = start(ServerConfig {
            workers: 1,
            journal: Some(path.to_string_lossy().into_owned()),
            resume: true,
            ..ServerConfig::default()
        });
        let mut c = Client::connect(&addr).unwrap();
        let answer = c.request(&client::query("old")).unwrap();
        assert_eq!(answer.get("type").and_then(Json::as_str), Some("error"));
        let error = answer.get("error").and_then(Json::as_str).unwrap();
        assert!(error.starts_with("unknown field `colour`"), "{error}");
        let stats = c.request(&client::stats()).unwrap();
        let counter = |name: &str| stats.get("counters")?.get(name)?.as_u64();
        assert_eq!(counter(names::SERVE_PROTOCOL_ERRORS), Some(1));
        c.request(&client::shutdown()).unwrap();
        handle.join().unwrap();
        std::fs::remove_file(&path).unwrap();
    }
}
