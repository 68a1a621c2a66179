//! Crash-safety gate: SIGKILL a `simcov serve --journal` process
//! mid-flight, restart it with `--resume`, and require that every
//! admitted job — finished or not at the moment of the kill — ends up
//! with a result byte-identical to an uninterrupted single-shot run.

use simcov_obs::json::{self, Json};
use simcov_serve::client;
use simcov_serve::jobs::{self, ExecCtx};
use simcov_serve::protocol::{parse_request, Request};
use simcov_serve::Client;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Spawns `simcov serve` and parses the `listening HOST:PORT` line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simcov"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn simcov serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let first = lines
        .next()
        .expect("serve prints a line")
        .expect("readable stdout");
    let addr = first
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected first line: {first}"))
        .to_string();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// Each job simulates the whole fault universe, so it takes longer than
/// an admission (an fsync plus the ack). Smaller jobs can all finish
/// before the last ack arrives, which closes the kill window.
fn job_payload(id: &str, seed: u64) -> String {
    format!(
        r#"{{"type":"campaign","id":"{id}","model":{{"dlx":"reduced-obs"}},"max_faults":1000000,"seed":{seed},"k":1,"engine":"differential"}}"#
    )
}

/// Strips the wall-clock line: the only intentionally non-deterministic
/// part of a campaign report.
fn strip_wall(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("wall:"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// What an uninterrupted single-shot CLI run of `payload` prints.
fn single_shot(payload: &str) -> String {
    let frame = json::parse(payload).expect("valid payload");
    let Request::Submit { spec, .. } = parse_request(&frame).expect("payload parses") else {
        panic!("not a submit");
    };
    let tel = simcov_obs::Telemetry::new();
    jobs::execute(&spec, &tel, &ExecCtx::default())
        .expect("single-shot run succeeds")
        .text
}

#[test]
fn sigkill_then_resume_recovers_every_admitted_job() {
    let dir = std::env::temp_dir().join(format!("simcov-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let journal = dir.join("serve.journal");
    let journal_arg = journal.to_str().expect("utf-8 path");

    let ids: Vec<String> = (0..8).map(|i| format!("kr-{i}")).collect();

    // Phase 1: admit all jobs, then SIGKILL the server once at least one
    // (but not every) job has journaled a `done` record.
    let (mut child, addr) = spawn_serve(&["--journal", journal_arg]);
    let mut cl = Client::connect(&addr).expect("connect");
    for (i, id) in ids.iter().enumerate() {
        cl.send(&job_payload(id, i as u64)).expect("submit");
    }
    let mut admitted = 0;
    while admitted < ids.len() {
        let frame = cl.recv().expect("ack");
        if frame.get("type").and_then(Json::as_str) == Some("ack") {
            assert_eq!(
                frame.get("status").and_then(Json::as_str),
                Some("admitted"),
                "all eight jobs fit the default queue"
            );
            admitted += 1;
        }
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let text = std::fs::read_to_string(&journal).unwrap_or_default();
        let done = text.lines().filter(|l| l.starts_with("done ")).count();
        if done >= 1 {
            assert!(done < ids.len(), "kill window closed: all jobs finished");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no job journaled `done` in time"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL");
    let _ = child.wait();

    // Phase 2: resume. Finished jobs are restored from the journal;
    // admitted-but-unfinished ones re-run. Either way, `query`
    // converges on results byte-identical to uninterrupted runs.
    let (mut child, addr) = spawn_serve(&["--journal", journal_arg, "--resume"]);
    let mut cl = Client::connect(&addr).expect("connect after resume");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    for (i, id) in ids.iter().enumerate() {
        let frame = loop {
            let frame = cl.request(&client::query(id)).expect("query");
            match frame.get("type").and_then(Json::as_str) {
                Some("result") => break frame,
                Some("ack") | Some("error") => {
                    // `pending` while the re-run is in flight; `unknown
                    // job id` must not happen for an admitted job.
                    assert_ne!(
                        frame.get("type").and_then(Json::as_str),
                        Some("error"),
                        "job {id} was admitted (fsynced) and must survive the crash: {frame:?}"
                    );
                    assert!(
                        std::time::Instant::now() < deadline,
                        "job {id} never completed after resume"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                other => panic!("unexpected frame type {other:?}"),
            }
        };
        assert_eq!(
            strip_wall(frame.get("output").and_then(Json::as_str).unwrap()),
            strip_wall(&single_shot(&job_payload(id, i as u64))),
            "job {id} must be byte-identical to an uninterrupted run"
        );
        assert_eq!(frame.get("exit").and_then(Json::as_u64), Some(0));
    }

    // The restored-results counter proves phase 2 recovered journaled
    // state rather than recomputing everything.
    let stats = cl.request(&client::stats()).expect("stats");
    let restored = stats
        .get("counters")
        .and_then(|c| c.get("serve.jobs_restored"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    assert!(restored >= 1, "at least the finished job must be restored");

    let ack = cl.request(&client::shutdown()).expect("shutdown ack");
    assert_eq!(ack.get("status").and_then(Json::as_str), Some("draining"));
    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean resume run exits 0");

    let _ = std::fs::remove_dir_all(&dir);
}
