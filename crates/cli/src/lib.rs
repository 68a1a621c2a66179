//! Library half of the `simcov` command-line tool: every subcommand is a
//! function from parsed arguments to a printable report, so the whole
//! surface is unit-testable without spawning processes. [`usage`] lists
//! the subcommands and their flags.
//!
//! Models are sequential BLIF files (the SIS interchange format; see
//! [`simcov_netlist::blif`]). Explicit-machine commands (`tour`,
//! `campaign`, `dot`) enumerate the model over its full input alphabet
//! and are guarded to 16 primary inputs; `stats` and `distinguish` work
//! symbolically and scale much further.
//!
//! Every subcommand's arguments are read through an option table
//! ([`simcov_serve::options`]): an unknown flag, a flag missing its
//! value, a mistyped value or a single-valued flag given twice is a
//! usage error (exit 2), and the usage text is generated from the same
//! tables. The job-shaped subcommands (`campaign`, `tour`, `lint`,
//! `analyze`, `close`) read the table their wire requests are read
//! through and run [`simcov_serve::jobs::execute`], the function
//! `simcov serve` runs — so their reports are byte-identical to served
//! ones by construction. Exit codes follow the uniform [`ExitStatus`]
//! contract: 0 ok, 1 error, 2 usage, 3 valid-but-partial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simcov_fsm::{PairFsm, SymbolicFsm};
use simcov_netlist::Netlist;
use simcov_obs::Telemetry;
use simcov_serve::jobs::{self, AuditPolicy, JobKind, JobSpec, ModelSource};
use simcov_serve::options::{read_argv, JobCommand, On, Opt, Slot, JOB_COMMANDS};
use simcov_serve::{Client, ExecCtx, JobError, Server, ServerConfig};
use std::fmt::Write as _;

pub use simcov_serve::ExitStatus;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime).
    pub code: i32,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: ExitStatus::Usage.code(),
        }
    }

    fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: ExitStatus::Error.code(),
        }
    }
}

impl From<JobError> for CliError {
    fn from(e: JobError) -> Self {
        CliError {
            message: e.message,
            code: e.status.code(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// A successful command's printable report plus its process exit code.
///
/// Most commands exit 0 on success, but `lint` follows the compiler
/// convention: the report goes to stdout (so `--format json` stays
/// machine-parseable) while denials are signalled through a non-zero
/// exit code.
#[derive(Debug)]
pub struct CmdOutput {
    /// Text to print on stdout.
    pub text: String,
    /// Process exit code (0 unless the command signals findings).
    pub code: i32,
    /// End-of-run metrics table (`--metrics`), printed on **stderr** so
    /// stdout stays machine-parseable.
    pub metrics: Option<String>,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput {
            text,
            code: 0,
            metrics: None,
        }
    }
}

/// Observability options of the job subcommands: `--trace-out <FILE>`
/// (deterministic JSONL trace) and `--metrics` (human table on stderr).
#[derive(Debug, Clone, Default)]
pub struct ObsOpts {
    /// Write the deterministic JSONL trace here (`--trace-out`).
    pub trace_out: Option<String>,
    /// Render the metrics table to stderr (`--metrics`).
    pub metrics: bool,
}

impl ObsOpts {
    /// Finalizes a command's telemetry: writes the JSONL trace and/or
    /// attaches the metrics table, per the flags.
    fn finish(&self, telemetry: &Telemetry, out: &mut CmdOutput) -> Result<(), CliError> {
        if self.trace_out.is_none() && !self.metrics {
            return Ok(());
        }
        let snap = telemetry.snapshot();
        if let Some(path) = &self.trace_out {
            snap.write_jsonl_file(path)
                .map_err(|e| CliError::runtime(format!("cannot write trace {path}: {e}")))?;
        }
        if self.metrics {
            out.metrics = Some(snap.render_table());
        }
        Ok(())
    }
}

/// The usage text, generated from the option tables: a synopsis per
/// subcommand, one help line per distinct option (defaults read from
/// the options' `Default` impls) and each job kind's wire fields.
pub fn usage() -> String {
    let mut u = Usage::default();
    u.add("stats", &[PATH], None);
    u.add("distinguish", &[DISTINGUISH], DistinguishArgs::default());
    u.add("dot", &[PATH], None);
    u.add("normalize", &[PATH], None);
    u.add("dlx", &[DLX_NAME], None);
    for job in JOB_COMMANDS {
        u.add(job.name, job.tables, job.args());
    }
    u.add("serve", &[SERVE], ServeArgs::default());
    u.add("submit", &[SUBMIT], SubmitArgs::default());
    let mut text = format!(
        "simcov — validation methodology using simulation coverage (DAC'97)\n\n\
         USAGE:\n{}\nOPTIONS:\n{}\n\n\
         REQUEST FIELDS (simcov serve; one JSON object per job, `type` names the kind):\n",
        u.synopsis,
        u.options.join("\n")
    );
    for job in JOB_COMMANDS {
        let wire = job
            .tables
            .iter()
            .copied()
            .flatten()
            .filter(|o| o.on != On::Cli);
        let fields: Vec<&str> = wire.map(|o| o.field).collect();
        text.push_str(&help_entry(job.name, &fields.join(" ")));
        text.push('\n');
    }
    text.push('\n');
    text.push_str(EXIT_CODES);
    text
}

/// Usage text under construction.
#[derive(Default)]
struct Usage {
    synopsis: String,
    options: Vec<String>,
}

impl Usage {
    /// Adds `cmd`'s synopsis and the help lines of its options not
    /// listed yet; `defaults` is the parse target before any flag.
    fn add<T>(&mut self, cmd: &str, tables: &[&[Opt<T>]], mut defaults: T) {
        let mut line = format!("  simcov {cmd}");
        for o in tables
            .iter()
            .copied()
            .flatten()
            .filter(|o| o.on != On::Wire)
        {
            let spelling = o.spelling();
            let item = match o.slot {
                _ if o.is_positional() => spelling.clone(),
                Slot::Severity(..) => format!("[{spelling}]..."),
                _ => format!("[{spelling}]"),
            };
            if line.chars().count() + 1 + item.chars().count() > 78 {
                let _ = writeln!(self.synopsis, "{line}");
                line = " ".repeat(9 + cmd.len());
            }
            line.push(' ');
            line.push_str(&item);
            let default = o
                .slot
                .show(&mut defaults)
                .map(|d| format!(" (default {d})"));
            let entry = help_entry(
                &spelling,
                &(o.help.to_string() + &default.unwrap_or_default()),
            );
            if !self.options.contains(&entry) {
                self.options.push(entry);
            }
        }
        let _ = writeln!(self.synopsis, "{line}");
    }
}

/// `  --flag <M>   help`: the help wrapped at 78 columns under column
/// 24, on a line of its own after a wide spelling.
fn help_entry(spelling: &str, help: &str) -> String {
    let mut lines = vec![format!("  {spelling}")];
    if spelling.len() > 20 {
        lines.push(String::new());
    }
    for word in help.split_whitespace() {
        let width = lines.last().map_or(0, |l| l.chars().count());
        if width >= 24 && width + 1 + word.chars().count() > 78 {
            lines.push(String::new());
        }
        let last = lines.last_mut().expect("one line at least");
        let pad = 24usize.saturating_sub(last.chars().count()).max(1);
        last.push_str(&" ".repeat(pad));
        last.push_str(word);
    }
    lines.join("\n")
}

const EXIT_CODES: &str = "\
Every subcommand shares one exit-code contract: 0 complete, 1 runtime
error (including lint/analyze denials and failed collapse audits), 2
usage error (an unknown, repeated or mistyped flag among them), 3
valid-but-partial. Lint and analyze exit 0 when no deny-level
diagnostics fire, 1 otherwise; the report always goes to stdout, and
the JSON form carries the model's FNV-64 fingerprint so reports are
diffable across runs and cacheable by model identity. Campaign exits 0
when every fault was simulated and 3 on a partial (truncated or
shard-quarantined) report, so scripts can tell a valid-but-incomplete
result from an error; --collapse verify violations exit 1. Close exits
0 when it reaches closure (every detectable fault detected) and 3 when
a round/step budget or stagnation stops it first; its round schedule
and report are byte-identical for every --jobs value and engine.
Submit exits with the worst status over its jobs.
";

fn load_model(path: &str) -> Result<Netlist, CliError> {
    Ok(load_model_source(path)?.netlist()?)
}

/// Reads a BLIF file into the [`ModelSource`] the job layer consumes;
/// parse errors surface later, labelled with the path.
fn load_model_source(path: &str) -> Result<ModelSource, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    Ok(ModelSource::Blif {
        name: path.to_string(),
        text,
    })
}

/// `simcov stats`: interface + symbolic reachability statistics.
pub fn cmd_stats(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "model: {}", n.stats());
    for m in n.module_names() {
        if !m.is_empty() {
            let _ = writeln!(
                out,
                "  module {:<12} {:>4} latches",
                m,
                n.module_latches(&m).len()
            );
        }
    }
    let mut fsm = SymbolicFsm::from_netlist(&n);
    let r = fsm.reachable();
    let _ = writeln!(
        out,
        "reachable states: {} of 2^{} ({} image iterations)",
        fsm.count_states(r.reached),
        n.num_latches(),
        r.iterations
    );
    let _ = writeln!(out, "transitions: {}", fsm.count_transitions(r.reached));
    Ok(out)
}

/// `simcov distinguish`: symbolic ∀k-distinguishability.
pub fn cmd_distinguish(path: &str, k: usize, all_pairs: bool) -> Result<String, CliError> {
    let n = load_model(path)?;
    let init = n.initial_state();
    let mut pf = PairFsm::from_netlist(&n);
    let r = pf.forall_k(&init, k, !all_pairs);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "forall-{k} distinguishability over {} {}:",
        r.reachable_states,
        if all_pairs {
            "states (entire state space)"
        } else {
            "reachable states"
        }
    );
    let _ = writeln!(
        out,
        "  violating pairs: {}{}",
        r.violating_pairs,
        if r.fixed_point {
            " (fixed point: holds for all larger k too)"
        } else {
            ""
        }
    );
    let _ = writeln!(
        out,
        "  property {}",
        if r.holds { "HOLDS" } else { "VIOLATED" }
    );
    if !r.holds && n.num_latches() <= 16 {
        let examples = pf.violating_pair_examples(&init, k, 4);
        for (a, b) in examples {
            let fmt = |v: &[bool]| -> String {
                v.iter().rev().map(|&x| if x { '1' } else { '0' }).collect()
            };
            let _ = writeln!(out, "  example pair: {} vs {}", fmt(&a), fmt(&b));
        }
    }
    Ok(out)
}

/// Exit code for a campaign that completed *validly* but not *fully*
/// (deadline/step-budget truncation or quarantined shards): distinct from
/// 0 (complete), 1 (runtime error) and 2 (usage error). The numeric face
/// of [`ExitStatus::Partial`].
pub const EXIT_PARTIAL: i32 = ExitStatus::Partial.code();

/// `simcov dot`: the reachable FSM in Graphviz format.
pub fn cmd_dot(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let m = jobs::enumerate(&n)?;
    Ok(m.to_dot())
}

/// `simcov normalize`: parse + re-emit BLIF.
pub fn cmd_normalize(path: &str) -> Result<String, CliError> {
    let n = load_model(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("model");
    Ok(simcov_netlist::to_blif(&n, name))
}

/// `simcov dlx`: export the case-study models as BLIF.
pub fn cmd_dlx(which: &str) -> Result<String, CliError> {
    let n = jobs::dlx_netlist(which)?;
    Ok(simcov_netlist::to_blif(&n, &format!("dlx_{which}")))
}

/// `simcov serve`: run the multi-tenant job server until a client sends
/// a `shutdown` request.
///
/// Prints `listening HOST:PORT` (flushed) before the accept loop blocks,
/// so scripts that bind port 0 can parse the chosen port. Exits 0 for a
/// clean run and [`EXIT_PARTIAL`] when any job was quarantined or any
/// journal record was lost. `trace_out` writes the server's own
/// telemetry trace — counters only, so it is byte-identical across
/// `--workers` for the same job stream.
pub fn cmd_serve(config: ServerConfig, trace_out: Option<&str>) -> Result<CmdOutput, CliError> {
    let server =
        Server::bind(config).map_err(|e| CliError::runtime(format!("cannot start server: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::runtime(format!("cannot resolve listen address: {e}")))?;
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        let _ = writeln!(stdout, "listening {addr}");
        let _ = stdout.flush();
    }
    let summary = server
        .serve()
        .map_err(|e| CliError::runtime(format!("serve failed: {e}")))?;
    if let Some(path) = trace_out {
        std::fs::write(path, &summary.trace)
            .map_err(|e| CliError::runtime(format!("cannot write trace {path}: {e}")))?;
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "served: {} job(s) completed, {} quarantined, {} journal failure(s)",
        summary.completed, summary.quarantined, summary.journal_failures
    );
    Ok(CmdOutput {
        text,
        code: summary.status().code(),
        metrics: None,
    })
}

/// The worse of two exit statuses, in escalation order
/// `Ok < Usage < Partial < Error`.
fn worse(a: ExitStatus, b: ExitStatus) -> ExitStatus {
    let rank = |s: ExitStatus| match s {
        ExitStatus::Ok => 0,
        ExitStatus::Usage => 1,
        ExitStatus::Partial => 2,
        ExitStatus::Error => 3,
    };
    if rank(b) > rank(a) {
        b
    } else {
        a
    }
}

/// `simcov submit`: run a file of job requests against a server.
///
/// Each non-empty line of `file` is one wire `submit` request (a JSON
/// object carrying its own `id`). Lines are spread round-robin over
/// `connections` client connections; results are printed in file order
/// whatever the completion interleaving, so the output is deterministic.
/// With `dump_dir`, each result is also written to `<dir>/<id>.out` with
/// its exit code in `<dir>/<id>.exit`. Exits with the worst status over
/// all jobs.
pub fn cmd_submit(
    addr: &str,
    file: &str,
    connections: usize,
    dump_dir: Option<&str>,
    shutdown: bool,
) -> Result<CmdOutput, CliError> {
    use simcov_obs::json::{self, Json};
    let text = std::fs::read_to_string(file)
        .map_err(|e| CliError::runtime(format!("cannot read {file}: {e}")))?;
    let requests: Vec<(String, String)> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|line| {
            let parsed =
                json::parse(line).map_err(|e| CliError::usage(format!("bad request line: {e}")))?;
            let id = parsed
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| CliError::usage(format!("request line missing `id`: {line}")))?;
            Ok((id.to_string(), line.to_string()))
        })
        .collect::<Result<_, CliError>>()?;
    if requests.is_empty() {
        return Err(CliError::usage(format!("{file} contains no requests")));
    }
    let connections = connections.clamp(1, requests.len());
    let mut results: Vec<Option<Result<Json, String>>> =
        (0..requests.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for c in 0..connections {
            let requests = &requests;
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, Result<Json, String>)> = Vec::new();
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(e) => {
                        for i in (c..requests.len()).step_by(connections) {
                            out.push((i, Err(format!("cannot connect to {addr}: {e}"))));
                        }
                        return out;
                    }
                };
                for i in (c..requests.len()).step_by(connections) {
                    let (id, payload) = &requests[i];
                    out.push((i, client.run_job(payload, id).map_err(|e| e.to_string())));
                }
                out
            }));
        }
        for handle in handles {
            for (i, r) in handle.join().expect("submit worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    if let Some(dir) = dump_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::runtime(format!("cannot create {dir}: {e}")))?;
    }
    let mut text = String::new();
    let mut status = ExitStatus::Ok;
    for ((id, _), slot) in requests.iter().zip(&results) {
        match slot.as_ref().expect("every request was dispatched") {
            Ok(frame) => {
                let job_status = frame
                    .get("status")
                    .and_then(Json::as_str)
                    .unwrap_or("error");
                let exit = frame.get("exit").and_then(Json::as_u64).unwrap_or(1) as i32;
                let output = frame.get("output").and_then(Json::as_str).unwrap_or("");
                let _ = writeln!(text, "== {id}: {job_status} (exit {exit})");
                text.push_str(output);
                if let Some(dir) = dump_dir {
                    std::fs::write(format!("{dir}/{id}.out"), output).map_err(|e| {
                        CliError::runtime(format!("cannot write {dir}/{id}.out: {e}"))
                    })?;
                    std::fs::write(format!("{dir}/{id}.exit"), format!("{exit}\n")).map_err(
                        |e| CliError::runtime(format!("cannot write {dir}/{id}.exit: {e}")),
                    )?;
                }
                status = worse(
                    status,
                    ExitStatus::from_code(exit).unwrap_or(ExitStatus::Error),
                );
            }
            Err(e) => {
                let _ = writeln!(text, "== {id}: failed ({e})");
                status = worse(status, ExitStatus::Error);
            }
        }
    }
    if shutdown {
        let mut client = Client::connect(addr)
            .map_err(|e| CliError::runtime(format!("cannot connect to {addr}: {e}")))?;
        let _ = client.request(&simcov_serve::client::shutdown());
    }
    Ok(CmdOutput {
        text,
        code: status.code(),
        metrics: None,
    })
}

#[derive(Default)]
struct DistinguishArgs {
    path: Option<String>,
    k: Option<u64>,
    all_pairs: bool,
}

#[derive(Default)]
struct ServeArgs {
    config: ServerConfig,
    audit_sample: Option<u64>,
    trace_out: Option<String>,
}

#[derive(Default)]
struct SubmitArgs {
    addr: Option<String>,
    file: Option<String>,
    connections: Option<u64>,
    dump_dir: Option<String>,
    shutdown: bool,
}

#[rustfmt::skip]
static PATH: &[Opt<Option<String>>] = &[
    Opt::new("<model.blif>", "model", On::Cli, Slot::MaybeText(|p| p),
        "sequential BLIF model file"),
];

#[rustfmt::skip]
static DLX_NAME: &[Opt<Option<String>>] = &[
    Opt::new("<name>", "name", On::Cli, Slot::MaybeText(|p| p),
        "case-study model: fig3a|fig3b|final|reduced|reduced-obs"),
];

#[rustfmt::skip]
static DISTINGUISH: &[Opt<DistinguishArgs>] = &[
    Opt::new("<model.blif>", "model", On::Cli, Slot::MaybeText(|a| &mut a.path),
        "sequential BLIF model file"),
    Opt::new("--k <K>", "k", On::Cli, Slot::MaybeU64(|a| &mut a.k),
        "distinguishing-sequence length (required)"),
    Opt::new("--all-pairs", "all_pairs", On::Cli, Slot::Flag(|a| &mut a.all_pairs),
        "check every state pair, not only the reachable ones"),
];

#[rustfmt::skip]
static SERVE: &[Opt<ServeArgs>] = &[
    Opt::new("--addr <HOST:PORT>", "addr", On::Cli, Slot::Text(|a| &mut a.config.addr),
        "listen address; the bound port is printed as `listening HOST:PORT`"),
    Opt::new("--workers <N>", "workers", On::Cli, Slot::Usize(|a| &mut a.config.workers),
        "worker threads; 0 = all cores"),
    Opt::new("--queue <N>", "queue", On::Cli, Slot::Usize(|a| &mut a.config.queue_capacity),
        "admission-queue capacity; a full queue rejects with a retry-after hint"),
    Opt::new("--cache <N>", "cache", On::Cli, Slot::Usize(|a| &mut a.config.cache_capacity),
        "golden-trace cache capacity in traces, least recently used evicted"),
    Opt::new("--max-retries <R>", "max_retries", On::Cli, Slot::Usize(|a| &mut a.config.max_retries),
        "attempts per panicking job before it is quarantined"),
    Opt::new("--seed <S>", "seed", On::Cli, Slot::U64(|a| &mut a.config.seed),
        "seed of the retry backoff jitter and the audit sample"),
    Opt::new("--audit-sample <N>", "audit_sample", On::Cli, Slot::MaybeU64(|a| &mut a.audit_sample),
        "faults per engine-equivalence audit (0 disables); an engine that fails \
         its audit is degraded symbolic → differential → naive"),
    Opt::new("--journal <FILE>", "journal", On::Cli, Slot::MaybeText(|a| &mut a.config.journal),
        "crash-safe server journal; admitted jobs are fsynced before they are acknowledged"),
    Opt::new("--resume", "resume", On::Cli, Slot::Flag(|a| &mut a.config.resume),
        "re-run the --journal FILE's admitted-but-unfinished jobs before accepting new work"),
    Opt::new("--trace-out <FILE>", "trace_out", On::Cli, Slot::MaybeText(|a| &mut a.trace_out),
        "write the server's counter trace on exit"),
];

#[rustfmt::skip]
static SUBMIT: &[Opt<SubmitArgs>] = &[
    Opt::new("<addr>", "addr", On::Cli, Slot::MaybeText(|a| &mut a.addr),
        "server address, HOST:PORT"),
    Opt::new("<jobs.jsonl>", "file", On::Cli, Slot::MaybeText(|a| &mut a.file),
        "one wire request per line, each carrying its own id"),
    Opt::new("--connections <N>", "connections", On::Cli, Slot::MaybeU64(|a| &mut a.connections),
        "client connections to spread the jobs over (default 1); results print in file order"),
    Opt::new("--dump-dir <DIR>", "dump_dir", On::Cli, Slot::MaybeText(|a| &mut a.dump_dir),
        "also write each result to DIR/<id>.out and its exit status to DIR/<id>.exit"),
    Opt::new("--shutdown", "shutdown", On::Cli, Slot::Flag(|a| &mut a.shutdown),
        "ask the server to drain and exit afterwards"),
];

/// A usage error followed by the usage text.
fn with_usage(message: &str) -> CliError {
    CliError::usage(format!("{message}\n\n{}", usage()))
}

/// Reads `cmd`'s arguments through its option table.
fn read<T: Default>(cmd: &str, table: &[Opt<T>], args: &[String]) -> Result<T, CliError> {
    let mut target = T::default();
    read_argv(cmd, &[table], args, &mut target).map_err(CliError::usage)?;
    Ok(target)
}

/// Runs a job subcommand: read its options through the kind's table,
/// load the model, run the job through the execution layer `simcov
/// serve` shares, then write the telemetry the flags ask for.
fn run_job(cmd: &JobCommand, args: &[String]) -> Result<CmdOutput, CliError> {
    let mut job = cmd.args();
    read_argv(cmd.name, cmd.tables, args, &mut job).map_err(CliError::usage)?;
    // Usage errors precede file access.
    if let JobKind::Campaign(o) = &job.kind {
        if o.resume && o.checkpoint.is_none() {
            return Err(CliError::usage("--resume requires --checkpoint <FILE>"));
        }
    }
    let model = match (job.path, job.dlx) {
        (Some(path), _) => load_model_source(&path)?,
        (None, Some(which)) => ModelSource::Dlx(which),
        (None, None) => {
            let dlx = cmd
                .tables
                .iter()
                .copied()
                .flatten()
                .any(|o| o.word() == "--dlx");
            let alt = if dlx { " or --dlx" } else { "" };
            return Err(with_usage(&format!(
                "`{}` needs a model path{alt}",
                cmd.name
            )));
        }
    };
    let tel = Telemetry::new();
    let spec = JobSpec {
        id: "cli".to_string(),
        model,
        kind: job.kind,
    };
    let outcome = jobs::execute(&spec, &tel, &ExecCtx::default())?;
    let mut out = CmdOutput {
        text: outcome.text,
        code: outcome.status.code(),
        metrics: None,
    };
    let (trace_out, metrics) = (job.trace_out, job.metrics);
    ObsOpts { trace_out, metrics }.finish(&tel, &mut out)?;
    Ok(out)
}

/// Parses and dispatches a full argument vector (without the program name).
pub fn run(args: &[String]) -> Result<CmdOutput, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::usage(usage()));
    };
    if let Some(job) = JobCommand::find(cmd) {
        return run_job(job, rest);
    }
    let no_path = || with_usage(&format!("`{cmd}` needs a model path"));
    let path = || read(cmd, PATH, rest)?.ok_or_else(no_path);
    match cmd.as_str() {
        "stats" => cmd_stats(&path()?),
        "dot" => cmd_dot(&path()?),
        "normalize" => cmd_normalize(&path()?),
        "dlx" => {
            let which = read(cmd, DLX_NAME, rest)?;
            cmd_dlx(&which.ok_or_else(|| CliError::usage("dlx needs a model name"))?)
        }
        "distinguish" => {
            let a = read(cmd, DISTINGUISH, rest)?;
            let k =
                a.k.ok_or_else(|| CliError::usage("distinguish requires --k <K>"))?;
            cmd_distinguish(&a.path.ok_or_else(no_path)?, k as usize, a.all_pairs)
        }
        "serve" => {
            let mut a = read(cmd, SERVE, rest)?;
            if a.config.resume && a.config.journal.is_none() {
                return Err(CliError::usage("--resume requires --journal <FILE>"));
            }
            if let Some(sample) = a.audit_sample {
                a.config.audit = (sample > 0).then_some(AuditPolicy {
                    sample: sample as usize,
                    seed: a.config.seed,
                });
            }
            return cmd_serve(a.config, a.trace_out.as_deref());
        }
        "submit" => {
            let a = read(cmd, SUBMIT, rest)?;
            let (Some(addr), Some(file)) = (&a.addr, &a.file) else {
                return Err(with_usage("`submit` needs <addr> and <jobs.jsonl>"));
            };
            let connections = a.connections.unwrap_or(1) as usize;
            return cmd_submit(addr, file, connections, a.dump_dir.as_deref(), a.shutdown);
        }
        "help" | "--help" | "-h" => {
            read::<()>(cmd, &[], rest)?;
            Ok(usage())
        }
        other => Err(with_usage(&format!("unknown command `{other}`"))),
    }
    .map(CmdOutput::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn write_reduced_blif() -> tempfile::TempPath {
        let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let blif = simcov_netlist::to_blif(&n, "reduced");
        tempfile::path(&blif)
    }

    /// Minimal temp-file helper (std-only).
    mod tempfile {
        pub struct TempPath(pub std::path::PathBuf);
        impl TempPath {
            pub fn as_str(&self) -> &str {
                self.0.to_str().expect("utf-8 path")
            }
        }
        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        pub fn path(contents: &str) -> TempPath {
            path_tagged("model", contents)
        }

        pub fn path_tagged(tag: &str, contents: &str) -> TempPath {
            let mut p = std::env::temp_dir();
            let unique = format!(
                "simcov_cli_test_{tag}_{}_{:?}.blif",
                std::process::id(),
                std::thread::current().id()
            );
            p.push(unique);
            std::fs::write(&p, contents).expect("write temp file");
            TempPath(p)
        }
    }

    #[test]
    fn usage_on_empty() {
        let e = run(&[]).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn unknown_command_rejected() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.text.contains("simcov stats"));
        assert!(out.text.contains("simcov lint"));
        assert_eq!(
            out.text
                .matches("[--engine naive|differential|symbolic]")
                .count(),
            2,
            "campaign and close list the engine names"
        );
        assert_eq!(out.code, 0);
    }

    #[test]
    fn dlx_export_parses_back() {
        let out = run(&args(&["dlx", "reduced"])).unwrap();
        let n = simcov_netlist::from_blif(&out.text).unwrap();
        assert_eq!(n.stats().latches, 8);
        assert!(run(&args(&["dlx", "nope"])).is_err());
    }

    #[test]
    fn lint_flagship_dlx_model_is_deny_free() {
        // The acceptance gate: the observable reduced DLX model, linted
        // over its valid-input alphabet, has zero deny diagnostics.
        let out = run(&args(&["lint", "--dlx", "reduced-obs"])).unwrap();
        assert_eq!(out.code, 0, "deny findings:\n{}", out.text);
        assert!(!out.text.contains("deny["), "{}", out.text);
        assert!(out.text.contains("summary:"));
        let json = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        assert_eq!(json.code, 0);
        // The report leads with the model fingerprint (diffable/cacheable
        // by model identity), then the counts.
        assert!(
            json.text
                .starts_with("{\"tool\":\"simcov-lint\",\"fingerprint\":\"0x"),
            "{}",
            json.text
        );
        assert!(json.text.contains("\"deny\":0,"), "{}", json.text);
    }

    #[test]
    fn lint_json_fingerprint_is_model_identity() {
        // Deterministic across runs of the same model; different models
        // fingerprint differently.
        let fp = |text: &str| -> String {
            let start = text.find("\"fingerprint\":\"").expect("fingerprint") + 15;
            text[start..start + 18].to_string()
        };
        let first = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        let again = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "json"])).unwrap();
        assert_eq!(fp(&first.text), fp(&again.text));
        let other = run(&args(&["lint", "--dlx", "fig3a", "--format", "json"])).unwrap();
        assert_ne!(fp(&first.text), fp(&other.text));
    }

    #[test]
    fn lint_hidden_dlx_model_fails_forall_k() {
        // Without the Requirement 5 outputs the reduced model is not
        // forall-k-distinguishable at any depth (deny, with witnesses).
        // Note the violation is *semantic*: every latch sits in some
        // output cone (no structural SC027), yet pairs differing only in
        // interaction state still produce equal output streams.
        let out = run(&args(&["lint", "--dlx", "reduced", "--k", "3"])).unwrap();
        assert_eq!(out.code, 1);
        assert!(out.text.contains("deny[SC008]"), "{}", out.text);
        assert!(out.text.contains("forall-3"), "{}", out.text);
    }

    #[test]
    fn lint_seeded_undefined_net_mutation_flagged() {
        // Mutation: drop the cover driving the `stall` output buffer from
        // the exported flagship BLIF. The importer reports an undefined
        // net, which lint maps to SC029 in both formats, exit code 1.
        let n = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let blif = simcov_netlist::to_blif(&n, "mutated");
        let mutated: String = {
            let mut lines: Vec<&str> = blif.lines().collect();
            let idx = lines
                .iter()
                .position(|l| l.starts_with(".names") && l.ends_with(" stall"))
                .expect("stall output buffer exists");
            lines.drain(idx..idx + 2); // header + its single cover row
            lines.join("\n")
        };
        let tmp = tempfile::path(&mutated);
        let text = run(&args(&["lint", tmp.as_str()])).unwrap();
        assert_eq!(text.code, 1);
        assert!(text.text.contains("deny[SC029]"), "{}", text.text);
        let json = run(&args(&["lint", tmp.as_str(), "--format", "json"])).unwrap();
        assert_eq!(json.code, 1);
        assert!(json.text.contains("\"code\":\"SC029\""), "{}", json.text);
        assert!(json.text.contains("\"severity\":\"deny\""));
    }

    #[test]
    fn lint_seeded_dead_latch_mutation_flagged() {
        // Mutation: disconnect `rf_wen` from its cone by tying it to a
        // constant. The mem latches then drive nothing observable: SC022
        // (dead latch) and SC024 (constant output) both fire as warnings.
        let n = simcov_dlx::testmodel::reduced_control_netlist();
        let blif = simcov_netlist::to_blif(&n, "mutated");
        let mutated: String = {
            let mut lines: Vec<String> = blif.lines().map(str::to_string).collect();
            let idx = lines
                .iter()
                .position(|l| l.starts_with(".names") && l.ends_with(" rf_wen"))
                .expect("rf_wen output buffer exists");
            lines[idx] = ".names rf_wen".to_string(); // constant-zero cover
            lines.remove(idx + 1); // drop the old `1 1` row
            lines.join("\n")
        };
        let tmp = tempfile::path(&mutated);
        let out = run(&args(&["lint", tmp.as_str(), "--allow", "SC008"])).unwrap();
        assert!(out.text.contains("warn[SC024]"), "{}", out.text);
        assert!(out.text.contains("warn[SC022]"), "{}", out.text);
        assert!(out.text.contains("rf_wen"));
        // Escalation: --deny SC024 flips the exit code.
        let denied = run(&args(&[
            "lint",
            tmp.as_str(),
            "--allow",
            "SC008",
            "--deny",
            "SC024",
        ]))
        .unwrap();
        assert_eq!(denied.code, 1);
    }

    #[test]
    fn lint_model_level_mutation_dropped_transition_flagged() {
        // Model-level mutation per the acceptance criteria: rebuild the
        // flagship machine minus one transition; the lint must flag the
        // hole as SC002 (incomplete-input-alphabet) with the right slot.
        use simcov_fsm::{enumerate_netlist, MealyBuilder};
        use simcov_lint::{lint_model, LintConfig, ModelTarget};
        let net = simcov_dlx::testmodel::reduced_control_netlist_observable();
        let m =
            enumerate_netlist(&net, &simcov_dlx::testmodel::reduced_valid_inputs(&net)).unwrap();
        let mut b = MealyBuilder::new();
        for s in m.states() {
            b.add_state(m.state_label(s));
        }
        for i in m.inputs() {
            b.add_input(m.input_label(i));
        }
        for o in 0..m.num_outputs() {
            b.add_output(m.output_label(simcov_fsm::OutputSym(o as u32)));
        }
        let dropped = m.transitions().next().unwrap();
        for t in m.transitions().skip(1) {
            b.add_transition(t.state, t.input, t.next, t.output);
        }
        let mutated = b.build(m.reset()).unwrap();
        let d = lint_model(&ModelTarget::new(&mutated), &LintConfig::new());
        assert!(d.has_denials());
        let f: Vec<_> = d.with_code("SC002").collect();
        assert_eq!(f.len(), 1);
        assert!(
            f[0].message.contains("no transition defined"),
            "{}",
            d.render_text()
        );
        let json = d.render_json();
        assert!(json.contains("\"code\":\"SC002\""));
        assert!(json.contains(&format!("\"state\":\"{}\"", m.state_label(dropped.state))));
    }

    #[test]
    fn lint_flag_validation() {
        let e = run(&args(&["lint", "--dlx", "reduced-obs", "--deny", "SC999"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown lint code"));
        let e = run(&args(&["lint", "--dlx", "reduced-obs", "--format", "xml"])).unwrap_err();
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&["lint", "--format", "json"])).unwrap_err();
        assert!(e.message.contains("needs a model path"));
        // Severity overrides accept names as well as codes.
        let out = run(&args(&[
            "lint",
            "--dlx",
            "reduced",
            "--allow",
            "forall-k-indistinguishable",
            "--allow",
            "hidden-latch",
            "--allow",
            "non-unique-outputs",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("allowed"));
    }

    #[test]
    fn analyze_reports_classes_and_certificate() {
        let out = run(&args(&["analyze", "--dlx", "reduced-obs"])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("faults: "), "{}", out.text);
        assert!(out.text.contains("classes ("), "{}", out.text);
        assert!(out.text.contains("certificate: 0x"), "{}", out.text);
        assert!(out.text.contains("summary:"), "{}", out.text);
        // JSON: fingerprint-stamped lint-pipeline report; deterministic
        // across runs.
        let json = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(json.code, 0);
        assert!(
            json.text
                .starts_with("{\"tool\":\"simcov-lint\",\"fingerprint\":\"0x"),
            "{}",
            json.text
        );
        let again = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(json.text, again.text);
        // A severity override can escalate an SC05x finding to a denial
        // (no finding at all is also acceptable — the universe is clean).
        let out = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--deny",
            "SC051",
        ]))
        .unwrap();
        assert!(out.code == 0 || out.text.contains("deny[SC051]"));
    }

    #[test]
    fn analyze_flag_validation() {
        let e = run(&args(&["analyze", "--format", "json"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("needs a model path"));
        let e = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--format",
            "xml",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&[
            "analyze",
            "--dlx",
            "reduced-obs",
            "--deny",
            "SC999",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown lint code"));
        // Positional path after value-taking flags parses (file source).
        let tmp = write_reduced_blif();
        let out = run(&args(&["analyze", "--max-faults", "100", tmp.as_str()])).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
    }

    #[test]
    fn stats_on_exported_model() {
        let tmp = write_reduced_blif();
        let out = cmd_stats(tmp.as_str()).unwrap();
        assert!(out.contains("8 latches"));
        assert!(out.contains("reachable states: 18"));
    }

    #[test]
    fn tour_covers_and_prints_vectors() {
        let tmp = write_reduced_blif();
        let out = run(&args(&["tour", tmp.as_str()])).unwrap().text;
        assert!(out.contains("transitions"));
        // One vector per line after the header; the model has 5 inputs.
        let vectors: Vec<&str> = out
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert!(vectors.len() > 100);
        assert!(vectors.iter().all(|v| v.len() == 5));
        // Greedy and state tours also work; anything else is no kind.
        assert!(run(&args(&["tour", tmp.as_str(), "--greedy"])).is_ok());
        assert!(run(&args(&["tour", tmp.as_str(), "--state"])).is_ok());
        assert!(run(&args(&["tour", tmp.as_str(), "--zigzag"])).is_err());
    }

    #[test]
    fn distinguish_reports_verdicts() {
        let tmp = write_reduced_blif();
        let out = cmd_distinguish(tmp.as_str(), 1, false).unwrap();
        // Exhaustive alphabet (not the valid-input subset) still leaves
        // the observable model distinguishable at k=1.
        assert!(out.contains("HOLDS") || out.contains("VIOLATED"));
        // Hidden model violates.
        let n = simcov_dlx::testmodel::reduced_control_netlist();
        let blif = simcov_netlist::to_blif(&n, "hidden");
        let tmp2 = tempfile::path(&blif);
        let out = cmd_distinguish(tmp2.as_str(), 3, false).unwrap();
        assert!(out.contains("VIOLATED"));
        assert!(out.contains("example pair"));
    }

    /// `campaign <path> --max-faults N --seed S --k K --jobs J`.
    fn campaign(path: &str, max_faults: usize, seed: u64, k: usize, jobs: usize) -> CmdOutput {
        let (n, s, k, j) = (
            max_faults.to_string(),
            seed.to_string(),
            k.to_string(),
            jobs.to_string(),
        );
        run(&args(&[
            "campaign",
            path,
            "--max-faults",
            &n,
            "--seed",
            &s,
            "--k",
            &k,
            "--jobs",
            &j,
        ]))
        .unwrap()
    }

    #[test]
    fn campaign_runs_and_reports() {
        let tmp = write_reduced_blif();
        let out = campaign(tmp.as_str(), 300, 7, 1, 2);
        assert_eq!(out.code, 0);
        assert!(out.text.contains("campaign:"));
        assert!(out.text.contains("faults detected"));
        assert!(out.text.contains("stats:"));
        assert!(out.text.contains("status: complete"));
        assert!(out.text.contains("worker thread"));
    }

    #[test]
    fn campaign_jobs_flag_does_not_change_results() {
        let tmp = write_reduced_blif();
        let strip_wall = |s: String| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = strip_wall(campaign(tmp.as_str(), 200, 3, 1, 1).text);
        let four = strip_wall(campaign(tmp.as_str(), 200, 3, 1, 4).text);
        assert_eq!(one, four);
    }

    #[test]
    fn campaign_engine_flag_is_parsed_and_engine_independent() {
        let tmp = write_reduced_blif();
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = &[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--seed",
            "3",
        ];
        let with_engine = |e: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--engine", e]);
            run(&args(&argv)).unwrap()
        };
        let naive = with_engine("naive");
        assert!(naive.text.contains("engine: naive"), "{}", naive.text);
        for engine in ["differential", "symbolic"] {
            let other = with_engine(engine);
            assert!(
                other.text.contains(&format!("engine: {engine}")),
                "{}",
                other.text
            );
            assert_eq!(
                campaign_lines(&naive.text),
                campaign_lines(&other.text),
                "{engine} reports must match the naive oracle"
            );
        }
        // Omitting the flag selects the differential default.
        let default = run(&args(base)).unwrap();
        assert!(default.text.contains("engine: differential"));
        // Unknown and retired engine names are usage errors on both
        // subcommands that take the flag.
        for cmd in ["campaign", "close"] {
            for name in ["magic", "packed"] {
                let err = run(&args(&[cmd, tmp.as_str(), "--engine", name])).unwrap_err();
                assert_eq!(err.code, 2, "{cmd} --engine {name}");
                assert_eq!(
                    err.message,
                    format!("unknown engine `{name}` (naive|differential|symbolic)")
                );
            }
        }
    }

    #[test]
    fn campaign_collapse_modes_are_invisible_and_audited() {
        let tmp = write_reduced_blif();
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let base = [
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--seed",
            "3",
        ];
        let with_mode = |mode: &str| {
            let mut argv: Vec<&str> = base.to_vec();
            argv.extend(["--collapse", mode]);
            run(&args(&argv)).unwrap()
        };
        let off = with_mode("off");
        let on = with_mode("on");
        let verify = with_mode("verify");
        assert_eq!(off.code, 0);
        assert_eq!(on.code, 0);
        assert_eq!(verify.code, 0, "{}", verify.text);
        // Pruned simulation is invisible in the report and stats...
        assert_eq!(campaign_lines(&off.text), campaign_lines(&on.text));
        // ...but accounted for in the collapse line.
        assert!(!off.text.contains("collapse:"), "{}", off.text);
        assert!(on.text.contains("collapse: on ("), "{}", on.text);
        assert!(on.text.contains("faults pruned"), "{}", on.text);
        assert!(
            verify.text.contains("collapse: verify ("),
            "{}",
            verify.text
        );
        assert!(verify.text.contains("0 violations"), "{}", verify.text);
        let err = run(&args(&["campaign", tmp.as_str(), "--collapse", "maybe"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown collapse mode"));
    }

    #[test]
    fn campaign_zero_deadline_is_partial_with_exit_code() {
        let tmp = write_reduced_blif();
        let out = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--deadline",
            "0",
        ]))
        .unwrap();
        assert_eq!(out.code, EXIT_PARTIAL);
        assert!(
            out.text.contains("status: partial (deadline expired)"),
            "{}",
            out.text
        );
        assert!(
            out.text.contains("bounds: detection rate in"),
            "{}",
            out.text
        );
    }

    #[test]
    fn close_reaches_closure_on_the_flagship_model() {
        // The acceptance gate: coverage-directed feedback drives the
        // observable reduced DLX model to closure within the default
        // round budget, from a BLIF path as well as --dlx.
        let out = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--max-faults",
            "120",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("round 0:"), "{}", out.text);
        assert!(out.text.contains("closure: reached"), "{}", out.text);
        let tmp = write_reduced_blif();
        let from_path = run(&args(&[
            "close",
            tmp.as_str(),
            "--max-faults",
            "120",
            "--seed",
            "3",
        ]))
        .unwrap();
        assert_eq!(from_path.code, 0, "{}", from_path.text);
        assert!(from_path.text.contains("closure: reached"));
    }

    #[test]
    fn close_json_is_byte_identical_across_jobs_and_engines() {
        let with = |jobs: &str, engine: &str| {
            run(&args(&[
                "close",
                "--dlx",
                "reduced-obs",
                "--max-faults",
                "120",
                "--seed",
                "3",
                "--jobs",
                jobs,
                "--engine",
                engine,
                "--format",
                "json",
            ]))
            .unwrap()
        };
        let one = with("1", "differential");
        let two = with("2", "differential");
        let eight = with("8", "differential");
        assert_eq!(one.text, two.text);
        assert_eq!(one.text, eight.text);
        assert!(one.text.contains("\"closed\":true"), "{}", one.text);
        assert!(
            one.text.starts_with("{\"schema\":\"simcov-close\""),
            "{}",
            one.text
        );
        // The engines agree on everything but the engine label itself.
        let strip_engine = |t: &str| {
            t.replacen("\"engine\":\"naive\"", "", 1)
                .replacen("\"engine\":\"differential\"", "", 1)
        };
        let naive = with("2", "naive");
        assert_eq!(strip_engine(&one.text), strip_engine(&naive.text));
    }

    #[test]
    fn close_zero_round_budget_is_partial_with_exit_code() {
        let out = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--max-faults",
            "120",
            "--rounds",
            "0",
        ]))
        .unwrap();
        assert_eq!(out.code, EXIT_PARTIAL, "{}", out.text);
        assert!(out.text.contains("closure: NOT reached"), "{}", out.text);
    }

    #[test]
    fn close_flag_validation() {
        let e = run(&args(&["close", "--format", "xml", "--dlx", "reduced-obs"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("unknown lint format"));
        let e = run(&args(&["close"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("needs a model path or --dlx"));
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--engine",
            "warp",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown engine"));
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--collapse",
            "verify",
        ]))
        .unwrap_err();
        assert!(e.message.contains("unknown collapse mode"));
        let e = run(&args(&[
            "close",
            "--dlx",
            "reduced-obs",
            "--rounds",
            "many",
        ]))
        .unwrap_err();
        assert!(e.message.contains("--rounds must be a number"));
    }

    #[test]
    fn campaign_checkpoint_resume_matches_single_shot() {
        let tmp = write_reduced_blif();
        let journal = tempfile::path_tagged("journal", "");
        let campaign_lines = |text: &str| -> String {
            text.lines()
                .filter(|l| l.starts_with("campaign:") || l.starts_with("stats:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let single = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert_eq!(single.code, 0);
        // Truncated run journals a prefix of the shards...
        let partial = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
            "--max-steps",
            "60000",
            "--checkpoint",
            journal.as_str(),
        ]))
        .unwrap();
        assert_eq!(partial.code, EXIT_PARTIAL, "{}", partial.text);
        // ...and the resumed run completes to a byte-identical report.
        let resumed = run(&args(&[
            "campaign",
            tmp.as_str(),
            "--max-faults",
            "200",
            "--jobs",
            "2",
            "--checkpoint",
            journal.as_str(),
            "--resume",
        ]))
        .unwrap();
        assert_eq!(resumed.code, 0, "{}", resumed.text);
        assert!(resumed.text.contains("restored:"), "{}", resumed.text);
        assert_eq!(campaign_lines(&resumed.text), campaign_lines(&single.text));
    }

    #[test]
    fn campaign_resume_requires_checkpoint() {
        let e = run(&args(&["campaign", "x.blif", "--resume"])).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--checkpoint"));
    }

    #[test]
    fn positional_path_after_flag_values() {
        let tmp = write_reduced_blif();
        // The path follows a value-taking flag: must not be mistaken for
        // the flag's value.
        let out = run(&args(&[
            "campaign",
            "--max-faults",
            "100",
            "--seed",
            "3",
            tmp.as_str(),
        ]))
        .unwrap();
        assert_eq!(out.code, 0);
        assert!(out.text.contains("status: complete"));
    }

    #[test]
    fn normalize_roundtrips() {
        let tmp = write_reduced_blif();
        let out = cmd_normalize(tmp.as_str()).unwrap();
        let n = simcov_netlist::from_blif(&out).unwrap();
        assert_eq!(n.stats().latches, 8);
    }

    #[test]
    fn dot_output() {
        let tmp = write_reduced_blif();
        let out = cmd_dot(tmp.as_str()).unwrap();
        assert!(out.starts_with("digraph"));
    }

    #[test]
    fn missing_file_is_runtime_error() {
        let e = cmd_stats("/nonexistent/path.blif").unwrap_err();
        assert_eq!(e.code, 1);
    }

    #[test]
    fn flag_parsing() {
        let e = run(&args(&["distinguish", "x.blif"])).unwrap_err();
        assert!(e.message.contains("--k"));
        let e = run(&args(&["campaign", "x.blif", "--max-faults", "abc"])).unwrap_err();
        assert_eq!(e.code, 2);
    }

    /// Unknown, dangling, repeated and contradictory arguments are usage
    /// errors that name the argument.
    #[test]
    fn silently_ignored_input_is_a_usage_error() {
        let tmp = write_reduced_blif();
        let m = tmp.as_str();
        let cases: [(&[&str], &str); 9] = [
            (
                &["campaign", m, "--engnie", "naive"],
                "unknown flag `--engnie` for `campaign` (did you mean `--engine`?)",
            ),
            (
                &["campaign", m, "--jbos", "9"],
                "unknown flag `--jbos` for `campaign` (did you mean `--jobs`?)",
            ),
            (&["campaign", m, "--seed"], "--seed needs a value"),
            (
                &["campaign", m, "--trace-out", "--metrics"],
                "--trace-out needs a value",
            ),
            (
                &["campaign", m, "--dlx", "reduced"],
                "`--dlx` conflicts with `<model.blif>`",
            ),
            (
                &["tour", "--greedy", "--state", m],
                "`--state` conflicts with `--greedy`",
            ),
            (
                &["stats", "--metrics", m],
                "unknown flag `--metrics` for `stats`",
            ),
            (
                &["lint", m, "--jobs", "2"],
                "unknown flag `--jobs` for `lint`",
            ),
            (
                &["campaign", m, "--seed", "1", "--seed", "2"],
                "`--seed` given twice",
            ),
        ];
        for (argv, message) in cases {
            let e = run(&args(argv)).unwrap_err();
            assert_eq!(e.code, 2, "{argv:?}");
            assert_eq!(e.message, message, "{argv:?}");
        }
    }

    /// Every flag in a synopsis line of `usage()` is accepted by its
    /// subcommand, and each synopsis is exactly its subcommand's
    /// command-line table; every wire field of a job kind is listed
    /// under REQUEST FIELDS.
    #[test]
    fn usage_and_option_tables_agree() {
        fn cli<T>(tables: &[&[Opt<T>]]) -> Vec<String> {
            let rows = tables.iter().flat_map(|t| t.iter());
            rows.filter(|o| o.on != On::Wire)
                .map(Opt::spelling)
                .collect()
        }
        let mut tables: Vec<(&str, Vec<String>)> = vec![
            ("stats", cli(&[PATH])),
            ("distinguish", cli(&[DISTINGUISH])),
            ("dot", cli(&[PATH])),
            ("normalize", cli(&[PATH])),
            ("dlx", cli(&[DLX_NAME])),
        ];
        tables.extend(JOB_COMMANDS.iter().map(|j| (j.name, cli(j.tables))));
        tables.push(("serve", cli(&[SERVE])));
        tables.push(("submit", cli(&[SUBMIT])));

        let text = usage();
        let (synopsis, rest) = text.split_once("\nOPTIONS:\n").unwrap();
        let mut shown: Vec<(&str, Vec<String>)> = Vec::new();
        for line in synopsis.lines().skip(3) {
            let line = match line.trim_start().strip_prefix("simcov ") {
                Some(l) => {
                    let (cmd, l) = l.split_once(' ').unwrap_or((l, ""));
                    shown.push((cmd, Vec::new()));
                    l
                }
                None => line,
            };
            let items = &mut shown.last_mut().unwrap().1;
            let mut l = line.trim();
            while !l.is_empty() {
                let end = if l.starts_with('[') {
                    l.find(']').unwrap() + 1
                } else {
                    l.find(' ').unwrap_or(l.len())
                };
                let item = &l[..end];
                items.push(
                    item.trim_start_matches('[')
                        .trim_end_matches(']')
                        .to_string(),
                );
                l = l[end..].trim_start_matches("...").trim_start();
            }
        }
        let shown_cmds: Vec<_> = shown.iter().map(|(c, i)| (*c, i.clone())).collect();
        assert_eq!(shown_cmds, tables);

        for (cmd, items) in &shown {
            for item in items.iter().filter(|i| i.starts_with("--")) {
                let (flag, meta) = item.split_once(' ').unwrap_or((item, ""));
                let mut argv = vec![cmd.to_string(), flag.to_string()];
                match meta {
                    "" => {}
                    "<C>" => argv.push("SC001".to_string()),
                    m if m.starts_with('<') => argv.push("1".to_string()),
                    m => argv.push(m.split('|').next().unwrap().to_string()),
                }
                argv.push("--sentinel".to_string());
                let e = run(&argv).unwrap_err();
                assert!(
                    e.message.starts_with("unknown flag `--sentinel`"),
                    "{argv:?}: {}",
                    e.message
                );
            }
        }

        let fields = rest.split_once("REQUEST FIELDS").unwrap().1;
        let fields = fields.split("\n\n").next().unwrap();
        for job in JOB_COMMANDS {
            let listed: Vec<&str> = fields
                .split_whitespace()
                .skip_while(|w| *w != job.name)
                .skip(1)
                .take_while(|w| JOB_COMMANDS.iter().all(|j| j.name != *w))
                .collect();
            let wire: Vec<&str> = job
                .tables
                .iter()
                .flat_map(|t| t.iter())
                .filter(|o| o.on != On::Cli)
                .map(|o| o.field)
                .collect();
            assert_eq!(listed, wire, "{}", job.name);
        }
    }
}
