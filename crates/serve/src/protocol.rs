//! The `simcov-serve v1` wire protocol.
//!
//! Frames are a 4-byte big-endian `u32` byte length followed by that many
//! bytes of UTF-8 JSON, parsed with the in-repo [`simcov_obs::json`]
//! reader. The framing rules are chosen so a hostile or broken peer can
//! never panic the server or pin its memory:
//!
//! * a length above [`MAX_FRAME_BYTES`] is refused *before any payload
//!   allocation* ([`FrameError::Oversized`]);
//! * a clean EOF between frames is a normal close
//!   ([`FrameError::Closed`]); EOF *inside* a frame is a truncation
//!   ([`FrameError::Truncated`]);
//! * payloads that are not UTF-8 or not valid JSON surface as
//!   [`FrameError::Malformed`], which the server answers with a
//!   structured `{"type":"error"}` frame and keeps the connection open.
//!
//! Requests are JSON objects with a `"type"` field: `campaign`, `lint`,
//! `tour`, `analyze` and `close` submit jobs (with `"id"`, a `"model"`
//! object and the kind's fields from its [`crate::options`] table);
//! `query` polls a prior id; `stats` snapshots the
//! server counters; `shutdown` drains and stops the server. Responses
//! are `ack`, `result`, `stats` and `error` objects — see DESIGN.md §14
//! for the full grammar and a worked session.

use crate::jobs::JobSpec;
use crate::options::{read_json, JobCommand, On, Opt, Slot, JOB_COMMANDS};
use simcov_obs::json::{self, Json};
use std::io::{Read, Write};

/// Hard cap on a frame's payload length (16 MiB). Large enough for any
/// report or model this workspace produces, small enough that a hostile
/// length prefix cannot pin memory.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// A framing failure. `Closed` is the *normal* end of a connection.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary.
    Closed,
    /// EOF inside a length prefix or payload.
    Truncated,
    /// Declared length exceeds [`MAX_FRAME_BYTES`] (refused before
    /// allocation).
    Oversized(usize),
    /// Payload is not UTF-8 or not valid JSON.
    Malformed(String),
    /// Underlying socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Oversized(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            FrameError::Malformed(e) => write!(f, "malformed frame: {e}"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], at_start: bool) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if at_start && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, returning its raw payload text (UTF-8 validated but
/// not yet parsed) — the server journals this verbatim.
pub fn read_frame_text(r: &mut impl Read) -> Result<String, FrameError> {
    let mut len = [0u8; 4];
    read_exact_or(r, &mut len, true)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, false)?;
    String::from_utf8(payload).map_err(|e| FrameError::Malformed(format!("not UTF-8: {e}")))
}

/// Reads one frame, returning its parsed JSON payload.
pub fn read_frame(r: &mut impl Read) -> Result<Json, FrameError> {
    let text = read_frame_text(r)?;
    json::parse(&text).map_err(|e| FrameError::Malformed(e.to_string()))
}

/// Writes one frame carrying `payload` (already-serialized JSON).
///
/// Header and payload go out in a single `write_all`: written apart, the
/// small header leaves as its own segment and Nagle's algorithm holds
/// the payload until the peer's delayed ACK (DESIGN.md §14).
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(
        bytes.len() <= MAX_FRAME_BYTES,
        "server produced an oversized frame"
    );
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// A parsed request.
#[derive(Debug)]
pub enum Request {
    /// Submit a job.
    Submit {
        /// The job, ready to queue.
        spec: JobSpec,
        /// Whether the client wants the job's telemetry trace inlined in
        /// the result.
        want_trace: bool,
    },
    /// Poll the result of a previously submitted id.
    Query {
        /// The id to poll.
        id: String,
    },
    /// Snapshot the server's telemetry counters.
    Stats,
    /// Drain the queue and stop the server.
    Shutdown,
}

/// The fields of a `query` request.
#[rustfmt::skip]
static QUERY: &[Opt<Option<String>>] = &[
    Opt::new("", "id", On::Wire, Slot::MaybeText(|id| id), "the job id to poll"),
];

/// Parses a request frame. Errors are client-facing messages. A job's
/// fields are read through its kind's option table, so an unknown or
/// mistyped field is an error, never ignored.
pub fn parse_request(req: &Json) -> Result<Request, String> {
    let kind = req
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing or non-string `type`")?;
    let fields = req
        .as_obj()
        .unwrap_or_default()
        .iter()
        .filter(|(k, _)| k != "type");
    if let Some(job) = JobCommand::find(kind) {
        let (spec, want_trace) = job.read_json(fields)?;
        return Ok(Request::Submit { spec, want_trace });
    }
    let what = format!("a `{kind}` request");
    match kind {
        "query" => {
            let mut id = None;
            read_json(&what, &[QUERY], fields, &mut id)?;
            Ok(Request::Query {
                id: id.ok_or("missing or non-string `id`")?,
            })
        }
        "stats" => read_json::<()>(&what, &[], fields, &mut ()).map(|()| Request::Stats),
        "shutdown" => read_json::<()>(&what, &[], fields, &mut ()).map(|()| Request::Shutdown),
        other => {
            let jobs = JOB_COMMANDS.iter().map(|c| c.name);
            let kinds: Vec<_> = jobs.chain(["query", "stats", "shutdown"]).collect();
            Err(format!(
                "unknown request type `{other}` ({})",
                kinds.join("|")
            ))
        }
    }
}

/// Serializes an error response.
pub fn error_response(message: &str) -> String {
    format!(r#"{{"type":"error","error":"{}"}}"#, json::escape(message))
}

/// Serializes an ack response. `retry_after_ms` accompanies
/// `status: "rejected"` backpressure.
pub fn ack_response(id: &str, status: &str, retry_after_ms: Option<u64>) -> String {
    let mut s = format!(
        r#"{{"type":"ack","id":"{}","status":"{}""#,
        json::escape(id),
        json::escape(status)
    );
    if let Some(ms) = retry_after_ms {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!(r#","retry_after_ms":{ms}"#));
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{CampaignOpts, CloseOpts, JobKind};

    fn roundtrip(payload: &str) -> Result<Json, FrameError> {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        read_frame(&mut &buf[..])
    }

    #[test]
    fn frames_roundtrip() {
        let v = roundtrip(r#"{"type":"stats"}"#).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("stats"));
    }

    /// A sink that accepts every byte and counts the `write` calls that
    /// delivered them.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let big = format!(r#"{{"pad":"{}"}}"#, "x".repeat(100_000));
        for payload in ["", r#"{"type":"stats"}"#, big.as_str()] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(
                w.writes,
                1,
                "a {}-byte frame took {} writes",
                payload.len(),
                w.writes
            );
            assert_eq!(w.bytes[..4], (payload.len() as u32).to_be_bytes());
            assert_eq!(&w.bytes[4..], payload.as_bytes());
        }
    }

    #[test]
    fn clean_eof_is_closed_and_partial_eof_is_truncated() {
        assert!(matches!(read_frame(&mut &[][..]), Err(FrameError::Closed)));
        let mut buf = Vec::new();
        write_frame(&mut buf, r#"{"type":"stats"}"#).unwrap();
        for cut in 1..buf.len() {
            assert!(
                matches!(read_frame(&mut &buf[..cut]), Err(FrameError::Truncated)),
                "cut at {cut} must be a truncation"
            );
        }
    }

    #[test]
    fn oversized_length_is_refused_without_payload() {
        let bytes = ((MAX_FRAME_BYTES + 1) as u32).to_be_bytes();
        match read_frame(&mut &bytes[..]) {
            Err(FrameError::Oversized(n)) => assert_eq!(n, MAX_FRAME_BYTES + 1),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_are_structured_errors() {
        for bad in ["{", "", "nope", "{\"a\":}"] {
            assert!(
                matches!(roundtrip(bad), Err(FrameError::Malformed(_))),
                "payload {bad:?} must be Malformed"
            );
        }
        // Invalid UTF-8.
        let mut buf = Vec::new();
        buf.extend_from_slice(&2u32.to_be_bytes());
        buf.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn campaign_request_parses_with_defaults() {
        let req = simcov_obs::json::parse(
            r#"{"type":"campaign","id":"j1","model":{"dlx":"reduced-obs"},"seed":7}"#,
        )
        .unwrap();
        match parse_request(&req).unwrap() {
            Request::Submit { spec, want_trace } => {
                assert_eq!(spec.id, "j1");
                assert!(!want_trace);
                match spec.kind {
                    JobKind::Campaign(opts) => {
                        assert_eq!(opts.seed, 7);
                        assert_eq!(opts.max_faults, CampaignOpts::default().max_faults);
                    }
                    other => panic!("expected campaign, got {other:?}"),
                }
            }
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn close_request_parses_with_defaults_and_overrides() {
        let req = simcov_obs::json::parse(
            r#"{"type":"close","id":"c1","model":{"dlx":"reduced-obs"},"seed":7,
                "rounds":4,"budget":5000,"collapse":true,"format":"json"}"#,
        )
        .unwrap();
        match parse_request(&req).unwrap() {
            Request::Submit { spec, .. } => match spec.kind {
                JobKind::Close(opts) => {
                    assert_eq!(opts.seed, 7);
                    assert_eq!(opts.rounds, 4);
                    assert_eq!(opts.budget, Some(5000));
                    assert!(opts.collapse);
                    assert_eq!(opts.format, "json");
                    assert_eq!(opts.max_faults, CloseOpts::default().max_faults);
                }
                other => panic!("expected close, got {other:?}"),
            },
            other => panic!("expected submit, got {other:?}"),
        }
        let bare = simcov_obs::json::parse(r#"{"type":"close","id":"c2","model":{"dlx":"final"}}"#)
            .unwrap();
        match parse_request(&bare).unwrap() {
            Request::Submit { spec, .. } => match spec.kind {
                JobKind::Close(opts) => assert_eq!(opts, CloseOpts::default()),
                other => panic!("expected close, got {other:?}"),
            },
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn wire_campaigns_reject_checkpointing() {
        let req = simcov_obs::json::parse(
            r#"{"type":"campaign","id":"j1","model":{"dlx":"final"},"checkpoint":"x"}"#,
        )
        .unwrap();
        let err = parse_request(&req).unwrap_err();
        assert!(err.contains("server journal"), "{err}");
    }

    #[test]
    fn unknown_type_is_an_error() {
        let req = simcov_obs::json::parse(r#"{"type":"frobnicate"}"#).unwrap();
        assert!(parse_request(&req)
            .unwrap_err()
            .contains("unknown request type"));
    }

    /// Unknown fields and `model` keys, mistyped values and repeated
    /// fields are errors.
    #[test]
    fn unknown_and_mistyped_fields_are_errors() {
        let cases = [
            (
                r#"{"type":"campaign","id":"a","model":{"dlx":"reduced-obs"},"engnie":"naive"}"#,
                "unknown field `engnie` in a `campaign` request (did you mean `engine`?)",
            ),
            (
                r#"{"type":"lint","id":"a","model":{"blif":"x","nmae":"m"}}"#,
                "unknown field `nmae` in `model` (did you mean `name`?)",
            ),
            (
                r#"{"type":"close","id":"a","model":{"dlx":"reduced-obs"},"collapse":"on"}"#,
                "`collapse` must be true or false",
            ),
            (
                r#"{"type":"lint","id":"a","model":{"dlx":"reduced-obs"},"trace":"yes"}"#,
                "`trace` must be true or false",
            ),
            (
                r#"{"type":"campaign","id":"a","model":{"dlx":"final"},"seed":1,"seed":2}"#,
                "`seed` given twice",
            ),
            (
                r#"{"type":"campaign","id":"a","model":{"dlx":"final"},"metrics":true}"#,
                "`metrics` is not accepted over the wire (--metrics: ",
            ),
            (
                r#"{"type":"lint","id":"a","model":{"dlx":"final"},"overrides":[{"code":"SC001"}]}"#,
                "override entries need a string `severity`",
            ),
            (
                r#"{"type":"query","id":"a","wait":true}"#,
                "unknown field `wait` in a `query` request",
            ),
            (
                r#"{"type":"stats","verbose":true}"#,
                "unknown field `verbose` in a `stats` request",
            ),
        ];
        for (req, message) in cases {
            let err = parse_request(&simcov_obs::json::parse(req).unwrap()).unwrap_err();
            assert!(err.starts_with(message), "{req}: {err}");
        }
    }
}
