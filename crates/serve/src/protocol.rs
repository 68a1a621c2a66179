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
//! `tour` and `analyze` submit jobs (with `"id"`, a `"model"` object and
//! per-kind options); `query` polls a prior id; `stats` snapshots the
//! server counters; `shutdown` drains and stops the server. Responses
//! are `ack`, `result`, `stats` and `error` objects — see DESIGN.md §14
//! for the full grammar and a worked session.

use crate::jobs::{
    AnalyzeOpts, CampaignOpts, CloseOpts, JobKind, JobSpec, ModelSource, SeverityOverrides,
};
use simcov_core::{CollapseMode, Engine};
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
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    debug_assert!(
        bytes.len() <= MAX_FRAME_BYTES,
        "server produced an oversized frame"
    );
    w.write_all(&(bytes.len() as u32).to_be_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

fn get_str<'a>(obj: &'a Json, field: &str) -> Result<&'a str, String> {
    obj.get(field)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{field}`"))
}

fn get_u64(obj: &Json, field: &str, default: u64) -> Result<u64, String> {
    match obj.get(field) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("`{field}` must be a non-negative integer")),
    }
}

fn get_opt_u64(obj: &Json, field: &str) -> Result<Option<u64>, String> {
    match obj.get(field) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{field}` must be a non-negative integer")),
    }
}

fn parse_model(req: &Json) -> Result<ModelSource, String> {
    let model = req.get("model").ok_or("missing `model` object")?;
    match (model.get("dlx"), model.get("blif")) {
        (Some(dlx), None) => Ok(ModelSource::Dlx(
            dlx.as_str()
                .ok_or("`model.dlx` must be a string")?
                .to_string(),
        )),
        (None, Some(blif)) => Ok(ModelSource::Blif {
            name: model
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("<wire>")
                .to_string(),
            text: blif
                .as_str()
                .ok_or("`model.blif` must be a string")?
                .to_string(),
        }),
        _ => Err("`model` must carry exactly one of `dlx` or `blif`".to_string()),
    }
}

/// The optional `engine` field, parsed against the one table of engine
/// names the CLI's `--engine` flag uses.
fn parse_engine(req: &Json) -> Result<Engine, String> {
    match req.get("engine") {
        None => Ok(Engine::default()),
        Some(v) => v
            .as_str()
            .ok_or_else(|| format!("`engine` must be a string ({})", Engine::names()))?
            .parse(),
    }
}

fn parse_overrides(req: &Json) -> Result<SeverityOverrides, String> {
    let mut overrides = Vec::new();
    let Some(list) = req.get("overrides") else {
        return Ok(overrides);
    };
    let arr = list.as_arr().ok_or("`overrides` must be an array")?;
    for pair in arr {
        let code = pair
            .get("code")
            .and_then(Json::as_str)
            .ok_or("override entries need a string `code`")?;
        let severity = pair
            .get("severity")
            .and_then(Json::as_str)
            .ok_or("override entries need a string `severity`")?;
        overrides.push((code.to_string(), severity.to_string()));
    }
    Ok(overrides)
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

/// Parses a request frame. Errors are client-facing messages.
pub fn parse_request(req: &Json) -> Result<Request, String> {
    let kind = get_str(req, "type")?;
    match kind {
        "query" => Ok(Request::Query {
            id: get_str(req, "id")?.to_string(),
        }),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "campaign" | "lint" | "tour" | "analyze" | "close" => {
            let id = get_str(req, "id")?.to_string();
            let model = parse_model(req)?;
            let job = match kind {
                "campaign" => {
                    for forbidden in ["checkpoint", "resume"] {
                        if req.get(forbidden).is_some() {
                            return Err(format!(
                                "`{forbidden}` is not accepted over the wire: the server \
                                 journal owns durability (use `serve --resume`)"
                            ));
                        }
                    }
                    let engine = parse_engine(req)?;
                    let collapse = match req.get("collapse") {
                        None => CollapseMode::Off,
                        Some(v) => v
                            .as_str()
                            .and_then(|s| s.parse::<CollapseMode>().ok())
                            .ok_or("`collapse` must be off|on|verify")?,
                    };
                    let defaults = CampaignOpts::default();
                    JobKind::Campaign(CampaignOpts {
                        max_faults: get_u64(req, "max_faults", defaults.max_faults as u64)?
                            as usize,
                        seed: get_u64(req, "seed", defaults.seed)?,
                        k: get_u64(req, "k", defaults.k as u64)? as usize,
                        jobs: get_u64(req, "jobs", defaults.jobs as u64)? as usize,
                        max_retries: get_u64(req, "max_retries", defaults.max_retries as u64)?
                            as usize,
                        deadline_ms: get_opt_u64(req, "deadline_ms")?,
                        max_steps: get_opt_u64(req, "max_steps")?,
                        checkpoint: None,
                        resume: false,
                        engine,
                        collapse,
                    })
                }
                "lint" => JobKind::Lint {
                    format: req
                        .get("format")
                        .map(|v| v.as_str().map(str::to_string))
                        .unwrap_or(Some("text".to_string()))
                        .ok_or("`format` must be a string")?,
                    // Matches the CLI's `lint --k` default.
                    k: get_u64(req, "k", 1)? as usize,
                    overrides: parse_overrides(req)?,
                },
                "tour" => JobKind::Tour {
                    kind: req
                        .get("kind")
                        .map(|v| v.as_str().map(str::to_string))
                        .unwrap_or(Some("postman".to_string()))
                        .ok_or("`kind` must be a string")?,
                },
                "analyze" => {
                    let defaults = AnalyzeOpts::default();
                    JobKind::Analyze {
                        format: req
                            .get("format")
                            .map(|v| v.as_str().map(str::to_string))
                            .unwrap_or(Some("text".to_string()))
                            .ok_or("`format` must be a string")?,
                        opts: AnalyzeOpts {
                            max_faults: get_u64(req, "max_faults", defaults.max_faults as u64)?
                                as usize,
                            seed: get_u64(req, "seed", defaults.seed)?,
                            max_nodes: get_u64(req, "max_nodes", defaults.max_nodes as u64)?
                                as usize,
                        },
                        overrides: parse_overrides(req)?,
                    }
                }
                "close" => {
                    let engine = parse_engine(req)?;
                    let defaults = CloseOpts::default();
                    JobKind::Close(CloseOpts {
                        max_faults: get_u64(req, "max_faults", defaults.max_faults as u64)?
                            as usize,
                        seed: get_u64(req, "seed", defaults.seed)?,
                        rounds: get_u64(req, "rounds", defaults.rounds as u64)? as usize,
                        budget: get_opt_u64(req, "budget")?,
                        jobs: get_u64(req, "jobs", defaults.jobs as u64)? as usize,
                        engine,
                        collapse: matches!(req.get("collapse"), Some(Json::Bool(true))),
                        format: req
                            .get("format")
                            .map(|v| v.as_str().map(str::to_string))
                            .unwrap_or(Some(defaults.format))
                            .ok_or("`format` must be a string")?,
                    })
                }
                _ => unreachable!("matched above"),
            };
            let want_trace = matches!(req.get("trace"), Some(Json::Bool(true)));
            Ok(Request::Submit {
                spec: JobSpec {
                    id,
                    model,
                    kind: job,
                },
                want_trace,
            })
        }
        other => Err(format!(
            "unknown request type `{other}` \
             (campaign|lint|tour|analyze|close|query|stats|shutdown)"
        )),
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
}
