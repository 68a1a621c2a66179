//! The load-test harness the ISSUE's acceptance gate runs: hundreds of
//! concurrent mixed jobs against a chaos-injected server must produce
//! results *byte-identical* to single-shot CLI runs, with zero crashes.
//!
//! Equivalence is checked against [`simcov_serve::jobs::execute`] under
//! [`ExecCtx::default`] — exactly what the CLI subcommands run — so the
//! assertion is "the server adds nothing and loses nothing", not "two
//! servers agree". Degraded campaign jobs report the engine they
//! actually ran with, and their output must equal a single-shot run
//! *requesting* that engine.

use simcov_obs::json::{self, Json};
use simcov_serve::chaos::{silence_chaos_panics, ServeChaosPlan};
use simcov_serve::client;
use simcov_serve::jobs::{self, JobKind};
use simcov_serve::protocol::{parse_request, Request};
use simcov_serve::{Client, ExecCtx, ExitStatus, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::Mutex;

/// The mixed job shapes one load round cycles through. Ids are appended
/// per instance; everything else is the wire payload verbatim.
const SHAPES: &[&str] = &[
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":1,"k":1,"engine":"naive""#,
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":1,"k":1,"engine":"differential""#,
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":1,"k":1,"engine":"symbolic""#,
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":2,"k":1,"engine":"naive""#,
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":2,"k":1,"engine":"differential""#,
    r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":60,"seed":2,"k":1,"engine":"symbolic""#,
    r#""type":"campaign","model":{"dlx":"reduced"},"max_faults":40,"seed":1,"k":1,"engine":"symbolic""#,
    r#""type":"lint","model":{"dlx":"reduced-obs"}"#,
    r#""type":"lint","model":{"dlx":"fig3a"},"format":"json""#,
    r#""type":"tour","model":{"dlx":"reduced-obs"},"kind":"postman""#,
    r#""type":"tour","model":{"dlx":"reduced"},"kind":"greedy""#,
    r#""type":"analyze","model":{"dlx":"reduced-obs"},"format":"json","max_faults":60"#,
];

fn payload(shape: usize, id: &str) -> String {
    format!(r#"{{"id":"{id}",{}}}"#, SHAPES[shape])
}

/// Re-parses a payload through the real protocol and executes it under
/// the CLI context, optionally overriding the campaign engine with the
/// one the server reports having used.
fn single_shot(payload: &str, engine_override: Option<&str>) -> (String, ExitStatus) {
    let frame = json::parse(payload).expect("test payload is valid JSON");
    let Request::Submit { mut spec, .. } = parse_request(&frame).expect("test payload parses")
    else {
        panic!("test payload is not a submit");
    };
    if let (JobKind::Campaign(opts), Some(engine)) = (&mut spec.kind, engine_override) {
        opts.engine = engine
            .parse()
            .unwrap_or_else(|e| panic!("{e} in result frame"));
    }
    let tel = simcov_obs::Telemetry::new();
    let outcome = jobs::execute(&spec, &tel, &ExecCtx::default()).expect("single-shot succeeds");
    (outcome.text, outcome.status)
}

/// Strips wall-clock lines: the only intentionally non-deterministic
/// part of a campaign report.
fn strip_wall(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("wall:"))
        .collect::<Vec<_>>()
        .join("\n")
}

struct LoadOutcome {
    /// `(id, result frame)` for every job.
    results: Vec<(String, Json)>,
    /// Counters from a `stats` request taken after all jobs finished.
    counters: HashMap<String, u64>,
    /// The server's own telemetry trace.
    trace: String,
    quarantined: u64,
}

/// Runs `jobs_total` mixed jobs over `connections` concurrent clients
/// against a chaos-injected server with `workers` worker threads.
///
/// `wire_chaos` adds the connection-level failure modes (dropped
/// connections, slow clients). Those make clients reconnect and poll,
/// and a poll frame cut off by the *next* drop is a real-time event —
/// `serve.protocol_errors` then depends on wall-clock interleaving, so
/// the trace-determinism test runs with server-internal chaos only.
fn run_load(
    workers: usize,
    connections: usize,
    jobs_total: usize,
    wire_chaos: bool,
) -> LoadOutcome {
    silence_chaos_panics();
    let mut chaos = ServeChaosPlan::new(42);
    if wire_chaos {
        chaos.drop_connection_prob = 0.15;
        chaos.slow_client_prob = 0.2;
    }
    chaos.job_panic_prob = 0.08;
    chaos.audit_fail_prob = 0.1;
    let config = ServerConfig {
        workers,
        queue_capacity: jobs_total + 8,
        cache_capacity: 8,
        chaos: Some(chaos),
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let ids: Vec<String> = (0..jobs_total).map(|i| format!("job-{i:03}")).collect();
    let results = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..connections {
            let (addr, ids, results) = (&addr, &ids, &results);
            scope.spawn(move || {
                let mut cl = Client::connect(addr).expect("connect");
                for i in (c..ids.len()).step_by(connections) {
                    let req = payload(i % SHAPES.len(), &ids[i]);
                    let frame = cl.run_job(&req, &ids[i]).expect("job completes");
                    results.lock().unwrap().push((ids[i].clone(), frame));
                }
            });
        }
    });
    let mut results = results.into_inner().unwrap();
    results.sort_by(|a, b| a.0.cmp(&b.0));

    let mut cl = Client::connect(&addr).expect("connect for stats");
    let stats = cl.request(&client::stats()).expect("stats");
    let mut counters = HashMap::new();
    if let Some(obj) = stats.get("counters").and_then(Json::as_obj) {
        for (name, value) in obj {
            counters.insert(name.clone(), value.as_u64().unwrap_or(0));
        }
    }
    let _ = cl.request(&client::shutdown()).expect("shutdown ack");
    let summary = handle.join().expect("server thread");
    LoadOutcome {
        results,
        counters,
        trace: summary.trace,
        quarantined: summary.quarantined,
    }
}

#[test]
fn hundred_concurrent_chaos_jobs_match_single_shot() {
    let jobs_total = 120;
    let load = run_load(4, 12, jobs_total, true);
    assert_eq!(
        load.results.len(),
        jobs_total,
        "every job produced a result"
    );

    // Expected outputs memoized by (shape, engine actually used): ids do
    // not influence report text, so 120 jobs need only ~a dozen
    // single-shot runs.
    let mut expected: HashMap<(usize, Option<String>), (String, ExitStatus)> = HashMap::new();
    let mut quarantined_seen = 0u64;
    let mut degraded_seen = 0u64;
    for (id, frame) in &load.results {
        let i: usize = id.trim_start_matches("job-").parse().unwrap();
        let shape = i % SHAPES.len();
        assert_eq!(
            frame.get("type").and_then(Json::as_str),
            Some("result"),
            "job {id} got a terminal result frame"
        );
        let output = frame
            .get("output")
            .and_then(Json::as_str)
            .expect("result carries output");
        if output.starts_with("job quarantined") {
            // Chaos exhausted this job's retries; the contract is a
            // structured error, not silence — equivalence is moot.
            assert_eq!(frame.get("status").and_then(Json::as_str), Some("error"));
            quarantined_seen += 1;
            continue;
        }
        let engine = frame
            .get("engine")
            .and_then(Json::as_str)
            .map(str::to_string);
        if frame.get("degraded").and_then(Json::as_u64).unwrap_or(0) > 0 {
            degraded_seen += 1;
            assert_ne!(
                frame.get("requested_engine").and_then(Json::as_str),
                frame.get("engine").and_then(Json::as_str),
                "job {id} degraded to a different engine"
            );
        }
        let (want_text, want_status) = expected
            .entry((shape, engine.clone()))
            .or_insert_with(|| single_shot(&payload(shape, id), engine.as_deref()))
            .clone();
        assert_eq!(
            strip_wall(output),
            strip_wall(&want_text),
            "job {id} (shape {shape}, engine {engine:?}) must be byte-identical \
             to the single-shot CLI run"
        );
        assert_eq!(
            frame.get("exit").and_then(Json::as_u64),
            Some(want_status.code() as u64),
            "job {id} exit code matches the single-shot run"
        );
    }
    assert_eq!(load.quarantined, quarantined_seen);

    // The chaos plan fires audit failures at p=0.1 over ~50 eligible
    // jobs; at least one must have walked the degradation ladder or the
    // gate is not exercising it.
    assert!(degraded_seen > 0, "no job degraded under audit chaos");

    // Cross-request cache: 50 non-naive campaign jobs share two
    // (model, tests) keys, so hits dominate.
    let hits = load.counters.get("serve.cache_hits").copied().unwrap_or(0);
    let misses = load
        .counters
        .get("serve.cache_misses")
        .copied()
        .unwrap_or(0);
    assert!(hits > 0, "repeat jobs must hit the golden-trace cache");
    assert_eq!(misses, 2, "one miss per distinct (model, tests) key");
}

#[test]
fn server_trace_is_identical_across_worker_counts() {
    // Counters-only server telemetry plus build-deduplicating cache
    // accounting make the server's own trace a function of the job
    // stream, not of scheduling.
    let jobs_total = 36;
    let two = run_load(2, 6, jobs_total, false);
    let six = run_load(6, 6, jobs_total, false);
    assert_eq!(
        two.trace, six.trace,
        "server telemetry trace must be byte-identical across worker counts"
    );
}

#[test]
fn full_admission_queue_rejects_then_serves() {
    // Capacity-1 queue, one worker, three rapid submissions: whatever
    // the interleaving, at least one lands on a full queue and is
    // rejected with a retry-after hint; resubmission completes it.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.serve().expect("serve"));

    let heavy =
        r#""type":"campaign","model":{"dlx":"reduced-obs"},"max_faults":1200,"seed":5,"k":1"#;
    let ids = ["bp-0", "bp-1", "bp-2"];
    let mut cl = Client::connect(&addr).expect("connect");
    for id in &ids {
        cl.send(&format!(r#"{{"id":"{id}",{heavy}}}"#))
            .expect("send");
    }
    let mut acks = HashMap::new();
    while acks.len() < ids.len() {
        let frame = cl.recv().expect("ack or result");
        if frame.get("type").and_then(Json::as_str) == Some("ack") {
            let id = frame.get("id").and_then(Json::as_str).unwrap().to_string();
            let status = frame
                .get("status")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            if let Some(ms) = frame.get("retry_after_ms").and_then(Json::as_u64) {
                assert!(ms > 0, "rejection carries a usable retry-after hint");
            }
            acks.insert(id, status);
        }
    }
    assert!(
        acks.values().any(|s| s == "rejected"),
        "three rapid submissions into a capacity-1 queue must overflow; acks: {acks:?}"
    );

    // run_job resubmits rejected ids (sleeping out the hint) and rides
    // result frames for sibling ids; all three must complete with the
    // same report.
    let mut outputs = Vec::new();
    for id in &ids {
        let frame = cl
            .run_job(&format!(r#"{{"id":"{id}",{heavy}}}"#), id)
            .expect("job completes after backpressure");
        outputs.push(strip_wall(
            frame.get("output").and_then(Json::as_str).unwrap(),
        ));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);

    let mut cl = Client::connect(&addr).expect("connect");
    let _ = cl.request(&client::shutdown()).expect("shutdown");
    let summary = handle.join().expect("server thread");
    assert_eq!(summary.status(), ExitStatus::Ok);
}
