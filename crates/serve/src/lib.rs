//! `simcov serve` — a fault-tolerant, multi-tenant campaign service.
//!
//! The single-shot CLI runs one job per process; this crate composes the
//! workspace's deterministic engines into a long-lived server that
//! accepts campaign/lint/tour/analyze/close jobs over a TCP socket and
//! multiplexes them across a thread pool, without giving up the
//! byte-identical determinism the engines guarantee. The pieces:
//!
//! * [`jobs`] — the job-execution layer shared with the CLI. `simcov
//!   campaign` and a served campaign job run *the same function*, which
//!   is what makes "server results are byte-identical to single-shot CLI
//!   runs" true by construction rather than by testing alone.
//! * [`options`] — one option table per job kind, read by the CLI's
//!   argument reader, the wire protocol's request reader and the usage
//!   text, so the surfaces cannot drift; both readers reject unknown or
//!   mistyped input.
//! * [`protocol`] — the wire format: 4-byte big-endian length-prefixed
//!   UTF-8 JSON frames (`simcov-serve v1`), parsed with the in-repo
//!   [`simcov_obs::json`] reader. Malformed frames get a structured
//!   error; oversized frames are refused without allocating.
//! * [`queue`] — bounded admission with per-tenant round-robin
//!   scheduling: one greedy connection cannot starve the rest, and a
//!   full queue rejects with a retry-after hint instead of growing.
//! * [`cache`] — the cross-request [`GoldenTrace`](simcov_core::GoldenTrace)
//!   cache, keyed by *(machine fingerprint, test-set fingerprint)* with
//!   bounded capacity and LRU eviction.
//! * [`journal`] — the crash-safe server journal (`simcov-serve-journal
//!   v1`): admitted jobs are fsynced before they are acknowledged, so
//!   `serve --resume` re-runs exactly the admitted-but-unfinished ones.
//! * [`server`] — the thread-pool server: per-job panic isolation,
//!   deterministic seeded retry backoff, quarantine, and the
//!   `symbolic → differential → naive` degradation ladder.
//! * [`client`] — a small blocking client used by `simcov submit`, the
//!   load-test harness and the CI gates.
//!
//! The service-layer `chaos` module (feature `chaos`, test-only)
//! extends the core engine's deterministic failure injection to the
//! server: dropped connections, slow clients, mid-job panics,
//! journal-write failures and forced audit trips, all pure functions of
//! a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod client;
pub mod jobs;
pub mod journal;
pub mod options;
pub mod protocol;
pub mod queue;
pub mod server;

pub use cache::TraceCache;
pub use client::Client;
pub use jobs::{AnalyzeOpts, CampaignOpts, ExecCtx, JobError, JobKind, JobOutcome, JobSpec};
pub use protocol::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use server::{Server, ServerConfig};

/// The uniform exit-code contract shared by every `simcov` subcommand
/// and by served jobs: `0` ok, `1` runtime error (including lint/analyze
/// denials and failed collapse audits), `2` usage error, `3` a *valid
/// but partial* result (deadline/step-budget truncation or quarantined
/// shards). Replaces the ad-hoc integer literals the CLI subcommands
/// used to carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Complete, successful result (process exit 0).
    Ok,
    /// Runtime failure or denied findings (process exit 1).
    Error,
    /// Malformed invocation or request (process exit 2).
    Usage,
    /// Valid but incomplete result (process exit 3): every reported line
    /// is exact, and the report itself accounts for what is missing.
    Partial,
}

impl ExitStatus {
    /// The process exit code.
    pub const fn code(self) -> i32 {
        match self {
            ExitStatus::Ok => 0,
            ExitStatus::Error => 1,
            ExitStatus::Usage => 2,
            ExitStatus::Partial => 3,
        }
    }

    /// The wire spelling (`"ok"`, `"error"`, `"usage"`, `"partial"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExitStatus::Ok => "ok",
            ExitStatus::Error => "error",
            ExitStatus::Usage => "usage",
            ExitStatus::Partial => "partial",
        }
    }

    /// Inverse of [`code`](Self::code).
    pub fn from_code(code: i32) -> Option<ExitStatus> {
        match code {
            0 => Some(ExitStatus::Ok),
            1 => Some(ExitStatus::Error),
            2 => Some(ExitStatus::Usage),
            3 => Some(ExitStatus::Partial),
            _ => None,
        }
    }
}

impl std::fmt::Display for ExitStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_status_codes_roundtrip() {
        for s in [
            ExitStatus::Ok,
            ExitStatus::Error,
            ExitStatus::Usage,
            ExitStatus::Partial,
        ] {
            assert_eq!(ExitStatus::from_code(s.code()), Some(s));
        }
        assert_eq!(ExitStatus::from_code(42), None);
        assert_eq!(ExitStatus::Partial.code(), 3);
        assert_eq!(ExitStatus::Partial.to_string(), "partial");
    }
}
