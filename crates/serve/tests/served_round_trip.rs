//! Served round trips against a live server: a sequence of small jobs
//! on one connection must not stall on TCP delayed ACKs, and a client
//! polling `query` while jobs complete must never be told an admitted
//! id is unknown.

use simcov_obs::json::{self, Json};
use simcov_serve::client::{self, Client};
use simcov_serve::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A one-latch toggle: lints in well under a millisecond, so a round
/// trip measures the transport, not the job.
const TOGGLE_BLIF: &str = ".model toggle\n.inputs t\n.outputs o\n.latch n1 q re NIL 0\n\
                           .names t q n1\n10 1\n01 1\n.names q o\n1 1\n.end\n";

fn lint(id: &str) -> String {
    format!(
        r#"{{"type":"lint","id":"{id}","model":{{"blif":"{}","name":"toggle"}},"format":"json"}}"#,
        json::escape(TOGGLE_BLIF)
    )
}

fn start_server() -> (String, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || {
        server.serve().expect("serve");
    });
    (addr, handle)
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<()>) {
    let mut c = Client::connect(addr).expect("connect");
    c.request(&client::shutdown()).expect("shutdown");
    handle.join().expect("server thread");
}

fn frame_type(frame: &Json) -> &str {
    frame.get("type").and_then(Json::as_str).unwrap_or("")
}

/// Linux delays an ACK by up to 40 ms. A server whose `result` frame
/// waits behind the client's ACK of the preceding `ack` frame pays that
/// on every request after the first, far above the 20 ms bar.
#[test]
fn sequential_round_trips_do_not_wait_for_delayed_acks() {
    let (addr, handle) = start_server();
    let mut c = Client::connect(&addr).expect("connect");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|i| {
            let id = format!("rt{i}");
            let t0 = Instant::now();
            let result = c.run_job(&lint(&id), &id).expect("job runs");
            assert_eq!(frame_type(&result), "result");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median round trip {median:?} (sorted: {rtts:?})"
    );
    shutdown(&addr, handle);
}

/// The wire-level form of the `query` contract. The window it guards is
/// a few instructions wide, so the unit test next to `Shared::lookup`,
/// which hammers the lookup without network latency, is the one that
/// reliably opens it.
#[test]
fn query_polls_never_see_unknown_while_jobs_complete() {
    const JOBS: usize = 200;
    const POLLERS: usize = 3;
    let (addr, handle) = start_server();
    let admitted: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let submitting = AtomicBool::new(true);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut c = Client::connect(&addr).expect("connect");
            for i in 0..JOBS {
                let id = format!("poll{i}");
                c.send(&lint(&id)).expect("submit");
                // Result frames of earlier jobs interleave; wait for
                // this job's ack before the poller may ask for it.
                loop {
                    let frame = c.recv().expect("frame");
                    let fid = frame.get("id").and_then(Json::as_str);
                    if frame_type(&frame) == "ack" && fid == Some(id.as_str()) {
                        let status = frame.get("status").and_then(Json::as_str);
                        assert_eq!(status, Some("admitted"), "{id}");
                        break;
                    }
                }
                admitted.lock().unwrap().push(id);
            }
            submitting.store(false, Ordering::Release);
        });
        // Several pollers, so server reader threads get preempted
        // mid-lookup while workers store results.
        for _ in 0..POLLERS {
            scope.spawn(|| {
                let mut c = Client::connect(&addr).expect("connect");
                let mut done = 0;
                loop {
                    let still_submitting = submitting.load(Ordering::Acquire);
                    let ids: Vec<String> = admitted.lock().unwrap()[done..].to_vec();
                    if ids.is_empty() && !still_submitting {
                        break;
                    }
                    for id in &ids {
                        let answer = c.request(&client::query(id)).expect("query");
                        match frame_type(&answer) {
                            "result" => {}
                            "ack" => break,
                            _ => panic!("admitted job {id} answered {answer:?}"),
                        }
                        done += 1;
                    }
                }
                assert_eq!(done, JOBS);
            });
        }
    });
    shutdown(&addr, handle);
}
