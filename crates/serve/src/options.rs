//! The option tables: each job kind's options, declared once and read
//! by the command line (`simcov campaign m.blif --seed 7`), by the wire
//! protocol (`{"type":"campaign","seed":7,...}`) and by the usage text.
//!
//! An [`Opt`] names its command-line flag, its wire field, the surfaces
//! that accept it, its value type and the place it is written to (a
//! [`Slot`]), and a one-line help. [`read_argv`] and [`read_json`] are
//! the only readers. Both reject unknown flags and fields (with a
//! did-you-mean hint), values of the wrong type, a flag missing its
//! value, and a single-valued option given twice. Defaults are never in
//! a table: a reader starts from the target's constructor
//! (`CampaignOpts::default()` and its siblings) and overwrites only what
//! it reads.

use crate::jobs::{
    AnalyzeOpts, CampaignOpts, CloseOpts, JobKind, JobSpec, ModelSource, SeverityOverrides,
};
use simcov_core::{CollapseMode, Engine};
use simcov_obs::json::Json;
use simcov_tour::TourKind;

/// The surfaces that accept an option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum On {
    /// The command line only.
    Cli,
    /// The wire protocol only.
    Wire,
    /// Both.
    Both,
}

/// An option's value type, and the place in the parse target `T` its
/// value is written to.
pub enum Slot<T> {
    /// A count: `--flag N`, or a non-negative integer on the wire.
    Usize(fn(&mut T) -> &mut usize),
    /// A 64-bit count or seed, spelled like [`Slot::Usize`].
    U64(fn(&mut T) -> &mut u64),
    /// An optional bound, spelled like [`Slot::Usize`]; absent is none.
    MaybeU64(fn(&mut T) -> &mut Option<u64>),
    /// Text: a report format, a tour kind, an address.
    Text(fn(&mut T) -> &mut String),
    /// Optional free text: a path, a name or an id.
    MaybeText(fn(&mut T) -> &mut Option<String>),
    /// A bare flag on the command line, `true`/`false` on the wire.
    Flag(fn(&mut T) -> &mut bool),
    /// `off|on` on the command line, `true`/`false` on the wire.
    Switch(fn(&mut T) -> &mut bool),
    /// A fault-simulation engine name.
    Engine(fn(&mut T) -> &mut Engine),
    /// A campaign collapse mode (`off|on|verify`).
    Collapse(fn(&mut T) -> &mut CollapseMode),
    /// A bare flag that sets the text to this name (`tour --greedy`).
    Pick(&'static str, fn(&mut T) -> &mut String),
    /// A repeatable flag that appends `(code, severity)` (`--deny C`).
    Severity(&'static str, fn(&mut T) -> &mut SeverityOverrides),
    /// The wire's `overrides` array of `{"code","severity"}` objects.
    Overrides(fn(&mut T) -> &mut SeverityOverrides),
    /// The wire's `model` object.
    Model(fn(&mut T) -> &mut Option<ModelSource>),
}

/// One option of a command or job kind.
pub struct Opt<T> {
    /// Command-line spelling: `--flag`, `--flag <METAVAR>`, or a
    /// `<positional>`.
    pub flag: &'static str,
    /// Wire field. Options that write the same place share a field, so
    /// giving two of them is a conflict.
    pub field: &'static str,
    /// The surfaces that accept the option.
    pub on: On,
    /// Value type and destination.
    pub slot: Slot<T>,
    /// One-line help for the usage text.
    pub help: &'static str,
}

impl<T> Opt<T> {
    /// A table row.
    pub const fn new(
        flag: &'static str,
        field: &'static str,
        on: On,
        slot: Slot<T>,
        help: &'static str,
    ) -> Self {
        Opt {
            flag,
            field,
            on,
            slot,
            help,
        }
    }

    /// The flag itself (`--seed`), or the positional placeholder.
    pub fn word(&self) -> &'static str {
        self.flag.split(' ').next().unwrap_or(self.flag)
    }

    /// Whether the option fills a positional argument.
    pub fn is_positional(&self) -> bool {
        self.flag.starts_with('<')
    }

    /// The spelling the usage text shows: the flag with its metavar, or
    /// with the accepted names where they come from a type.
    pub fn spelling(&self) -> String {
        match self.slot {
            Slot::Engine(_) => format!("{} {}", self.word(), Engine::names()),
            _ => self.flag.to_string(),
        }
    }

    /// Whether the option takes a value on the command line.
    pub fn takes_value(&self) -> bool {
        !matches!(self.slot, Slot::Flag(_) | Slot::Pick(..)) && !self.is_positional()
    }
}

/// A decoded value, before it is written to its slot.
enum Val<'a> {
    Num(u64),
    Text(&'a str),
    Bool(bool),
    Json(&'a Json),
}

impl<T> Slot<T> {
    /// Decodes a command-line value (`None` for a bare flag).
    fn decode_cli<'a>(&self, cmd: &str, flag: &str, v: Option<&'a str>) -> Result<Val<'a>, String> {
        let Some(v) = v else {
            return Ok(Val::Bool(true));
        };
        match self {
            Slot::Usize(_) | Slot::U64(_) | Slot::MaybeU64(_) => v
                .parse()
                .map(Val::Num)
                .map_err(|_| format!("{flag} must be a number")),
            Slot::Switch(_) => match v {
                "on" => Ok(Val::Bool(true)),
                "off" => Ok(Val::Bool(false)),
                other => Err(format!(
                    "unknown {} mode `{other}` for {cmd} (off|on)",
                    flag.trim_start_matches('-')
                )),
            },
            _ => Ok(Val::Text(v)),
        }
    }

    /// Decodes a wire value; `name` is the field as messages show it.
    fn decode_json<'a>(&self, v: &'a Json, name: &str) -> Result<Val<'a>, String> {
        match self {
            Slot::Usize(_) | Slot::U64(_) | Slot::MaybeU64(_) => v
                .as_u64()
                .map(Val::Num)
                .ok_or_else(|| format!("{name} must be a non-negative integer")),
            Slot::Flag(_) | Slot::Switch(_) | Slot::Pick(..) => match v {
                Json::Bool(b) => Ok(Val::Bool(*b)),
                _ => Err(format!("{name} must be true or false")),
            },
            Slot::Overrides(_) | Slot::Model(_) => Ok(Val::Json(v)),
            _ => v
                .as_str()
                .map(Val::Text)
                .ok_or_else(|| format!("{name} must be a string")),
        }
    }

    fn set(&self, t: &mut T, v: Val<'_>) -> Result<(), String> {
        match (self, v) {
            (Slot::Usize(at), Val::Num(n)) => {
                *at(t) = usize::try_from(n).map_err(|_| format!("{n} is too large"))?
            }
            (Slot::U64(at), Val::Num(n)) => *at(t) = n,
            (Slot::MaybeU64(at), Val::Num(n)) => *at(t) = Some(n),
            (Slot::Text(at), Val::Text(s)) => *at(t) = s.to_string(),
            (Slot::MaybeText(at), Val::Text(s)) => *at(t) = Some(s.to_string()),
            (Slot::Flag(at) | Slot::Switch(at), Val::Bool(b)) => *at(t) = b,
            (Slot::Pick(name, at), Val::Bool(_)) => *at(t) = name.to_string(),
            (Slot::Engine(at), Val::Text(s)) => *at(t) = s.parse()?,
            (Slot::Collapse(at), Val::Text(s)) => *at(t) = s.parse()?,
            (Slot::Severity(severity, at), Val::Text(code)) => {
                at(t).push((code.to_string(), severity.to_string()))
            }
            (Slot::Overrides(at), Val::Json(v)) => *at(t) = read_overrides(v)?,
            (Slot::Model(at), Val::Json(v)) => *at(t) = Some(read_model(v)?),
            _ => unreachable!("every value is decoded for its own slot"),
        }
        Ok(())
    }

    /// The value in `t`, as the command line spells it; `None` where
    /// there is nothing to show (an unset bound, a flag, a list).
    pub fn show(&self, t: &mut T) -> Option<String> {
        match self {
            Slot::Usize(at) => Some(at(t).to_string()),
            Slot::U64(at) => Some(at(t).to_string()),
            Slot::MaybeU64(at) => at(t).map(|n| n.to_string()),
            Slot::Text(at) => Some(at(t).clone()),
            Slot::MaybeText(at) => at(t).clone(),
            Slot::Switch(at) => Some(if *at(t) { "on" } else { "off" }.to_string()),
            Slot::Engine(at) => Some(at(t).name().to_string()),
            Slot::Collapse(at) => Some(at(t).name().to_string()),
            _ => None,
        }
    }
}

/// Records that `opt` was given as `name`; a single-valued option (or
/// another option writing the same place) given before is an error.
fn once<'a, T>(
    seen: &mut Vec<(&'a str, &'a str)>,
    opt: &Opt<T>,
    name: &'a str,
) -> Result<(), String> {
    if matches!(opt.slot, Slot::Severity(..)) {
        return Ok(());
    }
    match seen.iter().find(|(field, _)| *field == opt.field) {
        Some((_, earlier)) if *earlier == name => Err(format!("`{name}` given twice")),
        Some((_, earlier)) => Err(format!("`{name}` conflicts with `{earlier}`")),
        None => {
            seen.push((opt.field, name));
            Ok(())
        }
    }
}

/// Levenshtein distance, for did-you-mean hints.
fn distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let next = (diag + usize::from(ca != cb))
                .min(row[j] + 1)
                .min(row[j + 1] + 1);
            diag = row[j + 1];
            row[j + 1] = next;
        }
    }
    row[b.len()]
}

/// ` (did you mean `x`?)` for the nearest candidate, if one is close.
fn did_you_mean<'a>(word: &str, candidates: impl Iterator<Item = &'a str>) -> String {
    candidates
        .map(|c| (distance(word, c), c))
        .filter(|&(d, c)| d <= 2.max(c.len() / 3))
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| format!(" (did you mean `{c}`?)"))
        .unwrap_or_default()
}

/// Reads command-line arguments for `cmd` into `target`.
pub fn read_argv<T>(
    cmd: &str,
    tables: &[&[Opt<T>]],
    args: &[String],
    target: &mut T,
) -> Result<(), String> {
    let opts: Vec<_> = tables
        .iter()
        .copied()
        .flatten()
        .filter(|o| o.on != On::Wire)
        .collect();
    let mut positionals = opts.iter().filter(|o| o.is_positional());
    let mut seen = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let (opt, value) = if arg.starts_with("--") {
            let Some(opt) = opts.iter().find(|o| !o.is_positional() && o.word() == arg) else {
                let hint = did_you_mean(arg, opts.iter().map(|o| o.word()));
                return Err(format!("unknown flag `{arg}` for `{cmd}`{hint}"));
            };
            let value = match opt.takes_value() {
                false => None,
                true => match args.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return Err(format!("{arg} needs a value")),
                },
            };
            (opt, opt.slot.decode_cli(cmd, arg, value)?)
        } else {
            let Some(opt) = positionals.next() else {
                return Err(format!("unexpected argument `{arg}` for `{cmd}`"));
            };
            (opt, Val::Text(arg.as_str()))
        };
        once(&mut seen, opt, opt.word())?;
        opt.slot.set(target, value)?;
    }
    Ok(())
}

/// Reads the members of a wire object into `target`; `what` names the
/// object in messages (``a `campaign` request``).
pub fn read_json<'a, T>(
    what: &str,
    tables: &[&[Opt<T>]],
    members: impl IntoIterator<Item = &'a (String, Json)>,
    target: &mut T,
) -> Result<(), String> {
    let opts = || tables.iter().copied().flatten();
    let mut seen = Vec::new();
    for (key, value) in members {
        let Some(opt) = opts().find(|o| o.on != On::Cli && o.field == key) else {
            if let Some(cli) = opts().find(|o| o.field == key && !o.is_positional()) {
                return Err(format!(
                    "`{key}` is not accepted over the wire ({}: {})",
                    cli.word(),
                    cli.help
                ));
            }
            let fields = opts().filter(|o| o.on != On::Cli).map(|o| o.field);
            let hint = did_you_mean(key, fields);
            return Err(format!("unknown field `{key}` in {what}{hint}"));
        };
        once(&mut seen, opt, key.as_str())?;
        let name = format!("`{key}`");
        opt.slot.set(target, opt.slot.decode_json(value, &name)?)?;
    }
    Ok(())
}

type Pair = (Option<String>, Option<String>);

#[rustfmt::skip]
static OVERRIDE: &[Opt<Pair>] = &[
    Opt::new("", "code", On::Wire, Slot::MaybeText(|p| &mut p.0), "lint code or name"),
    Opt::new("", "severity", On::Wire, Slot::MaybeText(|p| &mut p.1), "deny|warn|allow"),
];

fn read_overrides(v: &Json) -> Result<SeverityOverrides, String> {
    let entries = v.as_arr().ok_or("`overrides` must be an array")?;
    let mut overrides = SeverityOverrides::new();
    for entry in entries {
        let mut pair = Pair::default();
        let fields = entry.as_obj().ok_or("override entries must be objects")?;
        read_json("an override entry", &[OVERRIDE], fields, &mut pair)?;
        let code = pair.0.ok_or("override entries need a string `code`")?;
        let severity = pair.1.ok_or("override entries need a string `severity`")?;
        overrides.push((code, severity));
    }
    Ok(overrides)
}

type ModelFields = (Option<String>, Option<String>, Option<String>);

#[rustfmt::skip]
static MODEL_FIELDS: &[Opt<ModelFields>] = &[
    Opt::new("", "dlx", On::Wire, Slot::MaybeText(|m| &mut m.0), "built-in case-study model name"),
    Opt::new("", "blif", On::Wire, Slot::MaybeText(|m| &mut m.1), "sequential BLIF text"),
    Opt::new("", "name", On::Wire, Slot::MaybeText(|m| &mut m.2), "label for BLIF parse errors"),
];

fn read_model(v: &Json) -> Result<ModelSource, String> {
    let mut m = ModelFields::default();
    let fields = v.as_obj().ok_or("`model` must be an object")?;
    read_json("`model`", &[MODEL_FIELDS], fields, &mut m)?;
    match m {
        (Some(dlx), None, None) => Ok(ModelSource::Dlx(dlx)),
        (None, Some(text), name) => Ok(ModelSource::Blif {
            name: name.unwrap_or_else(|| "<wire>".to_string()),
            text,
        }),
        _ => Err("`model` needs `dlx`, or `blif` and an optional `name`".into()),
    }
}

/// A job request as either surface spells it, before the model is
/// loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobArgs {
    /// What to do, starting from the kind's defaults.
    pub kind: JobKind,
    /// The model path (command line).
    pub path: Option<String>,
    /// A built-in DLX model name (`--dlx`).
    pub dlx: Option<String>,
    /// The wire `model` object.
    pub model: Option<ModelSource>,
    /// The wire request id.
    pub id: Option<String>,
    /// Inline the job's telemetry trace in its result frame (wire).
    pub trace: bool,
    /// Write the telemetry trace to this file (`--trace-out`).
    pub trace_out: Option<String>,
    /// Print the metrics table on stderr (`--metrics`).
    pub metrics: bool,
}

/// A job kind: its name, default options and option tables.
pub struct JobCommand {
    /// The subcommand and wire `type` (`campaign`).
    pub name: &'static str,
    /// The kind with every option at its default.
    pub new: fn() -> JobKind,
    /// The options, in usage order.
    pub tables: &'static [&'static [Opt<JobArgs>]],
}

impl JobCommand {
    /// The job kind called `name`.
    pub fn find(name: &str) -> Option<&'static JobCommand> {
        JOB_COMMANDS.iter().find(|c| c.name == name)
    }

    /// The kind's arguments before any is read: every option at its
    /// default.
    pub fn args(&self) -> JobArgs {
        JobArgs {
            kind: (self.new)(),
            path: None,
            dlx: None,
            model: None,
            id: None,
            trace: false,
            trace_out: None,
            metrics: false,
        }
    }

    /// Reads a request's members (all but `type`) into a job spec, and
    /// whether the client wants the job's trace.
    pub fn read_json<'a>(
        &self,
        members: impl IntoIterator<Item = &'a (String, Json)>,
    ) -> Result<(JobSpec, bool), String> {
        let (what, mut job) = (format!("a `{}` request", self.name), self.args());
        read_json(&what, self.tables, members, &mut job)?;
        let spec = JobSpec {
            id: job.id.ok_or("missing or non-string `id`")?,
            model: job.model.ok_or("missing `model` object")?,
            kind: job.kind,
        };
        Ok((spec, job.trace))
    }
}

/// An accessor into the options of the job kind a table belongs to.
macro_rules! kind {
    ($pat:pat => $place:expr) => {
        |a| match &mut a.kind {
            $pat => $place,
            _ => unreachable!("an option table applied to another job kind"),
        }
    };
}

use JobKind::{Analyze, Campaign, Close, Lint, Tour};
use On::{Both, Cli, Wire};

/// Every job kind, in usage order.
#[rustfmt::skip]
pub static JOB_COMMANDS: &[JobCommand] = &[
    JobCommand { name: "tour", tables: &[MODEL, TOUR, TELEMETRY],
        new: || Tour { kind: TourKind::Postman.name().to_string() } },
    JobCommand { name: "campaign", tables: &[MODEL, DLX, CAMPAIGN, TELEMETRY],
        new: || Campaign(CampaignOpts::default()) },
    JobCommand { name: "lint", tables: &[MODEL, DLX, LINT, SEVERITY, TELEMETRY],
        new: || Lint { format: "text".to_string(), k: 1, overrides: SeverityOverrides::new() } },
    JobCommand { name: "analyze", tables: &[MODEL, DLX, ANALYZE, SEVERITY, TELEMETRY],
        new: || Analyze { format: "text".to_string(), opts: AnalyzeOpts::default(), overrides: SeverityOverrides::new() } },
    JobCommand { name: "close", tables: &[MODEL, DLX, CLOSE, TELEMETRY],
        new: || Close(CloseOpts::default()) },
];

#[rustfmt::skip]
static MODEL: &[Opt<JobArgs>] = &[
    Opt::new("<model.blif>", "model", Cli, Slot::MaybeText(|a| &mut a.path),
        "sequential BLIF model file"),
    Opt::new("", "model", Wire, Slot::Model(|a| &mut a.model),
        r#"{"dlx":NAME} or {"blif":TEXT,"name":LABEL}"#),
    Opt::new("", "id", Wire, Slot::MaybeText(|a| &mut a.id),
        "client-chosen job id"),
];

#[rustfmt::skip]
static TELEMETRY: &[Opt<JobArgs>] = &[
    Opt::new("--trace-out <FILE>", "trace_out", Cli, Slot::MaybeText(|a| &mut a.trace_out),
        "write the deterministic JSONL trace; byte-identical across --jobs"),
    Opt::new("--metrics", "metrics", Cli, Slot::Flag(|a| &mut a.metrics),
        "print the metrics table (spans, counters, gauges) on stderr"),
    Opt::new("", "trace", Wire, Slot::Flag(|a| &mut a.trace),
        "inline the job's telemetry trace in its result frame"),
];

#[rustfmt::skip]
static DLX: &[Opt<JobArgs>] = &[
    Opt::new("--dlx <name>", "model", Cli, Slot::MaybeText(|a| &mut a.dlx),
        "a case-study model instead of a file: fig3a|fig3b|final|reduced|reduced-obs"),
];

#[rustfmt::skip]
static TOUR: &[Opt<JobArgs>] = &[
    Opt::new("--greedy", "kind", Cli, Slot::Pick("greedy", kind!(Tour { kind } => kind)),
        "greedy nearest-uncovered transition tour (default: optimal postman tour)"),
    Opt::new("--state", "kind", Cli, Slot::Pick("state", kind!(Tour { kind } => kind)),
        "state tour: every state at least once"),
    Opt::new("", "kind", Wire, Slot::Text(kind!(Tour { kind } => kind)),
        "postman|greedy|state"),
];

#[rustfmt::skip]
static CAMPAIGN: &[Opt<JobArgs>] = &[
    Opt::new("--max-faults <N>", "max_faults", Both, Slot::Usize(kind!(Campaign(o) => &mut o.max_faults)),
        "fault-sample cap"),
    Opt::new("--seed <S>", "seed", Both, Slot::U64(kind!(Campaign(o) => &mut o.seed)),
        "fault-sampling seed"),
    Opt::new("--k <K>", "k", Both, Slot::Usize(kind!(Campaign(o) => &mut o.k)),
        "cyclic extension of the tour's test sequence"),
    Opt::new("--jobs <J>", "jobs", Both, Slot::Usize(kind!(Campaign(o) => &mut o.jobs)),
        "worker threads; 0 = automatic (all cores, or one for a small differential \
         campaign); results are identical for every J"),
    Opt::new("--engine", "engine", Both, Slot::Engine(kind!(Campaign(o) => &mut o.engine)),
        "fault-simulation engine; reports are bit-identical for every engine"),
    Opt::new("--collapse off|on|verify", "collapse", Both, Slot::Collapse(kind!(Campaign(o) => &mut o.collapse)),
        "static fault collapsing: on simulates class representatives (same report), \
         verify audits the certificate and exits 1 on a violation"),
    Opt::new("--deadline <MS>", "deadline_ms", Both, Slot::MaybeU64(kind!(Campaign(o) => &mut o.deadline_ms)),
        "wall-clock budget in ms, checked at fault boundaries; 0 simulates nothing"),
    Opt::new("--max-steps <N>", "max_steps", Both, Slot::MaybeU64(kind!(Campaign(o) => &mut o.max_steps)),
        "simulation-step budget (one step per test vector per fault)"),
    Opt::new("--max-retries <R>", "max_retries", Both, Slot::Usize(kind!(Campaign(o) => &mut o.max_retries)),
        "attempts per panicking shard before it is quarantined"),
    Opt::new("--checkpoint <FILE>", "checkpoint", Cli, Slot::MaybeText(kind!(Campaign(o) => &mut o.checkpoint)),
        "journal completed shards to FILE; served jobs rely on the server journal"),
    Opt::new("--resume", "resume", Cli, Slot::Flag(kind!(Campaign(o) => &mut o.resume)),
        "restore the --checkpoint journal and simulate only the rest; served jobs rely \
         on the server journal"),
];

#[rustfmt::skip]
static CLOSE: &[Opt<JobArgs>] = &[
    Opt::new("--max-faults <N>", "max_faults", Both, Slot::Usize(kind!(Close(o) => &mut o.max_faults)),
        "fault-sample cap"),
    Opt::new("--seed <S>", "seed", Both, Slot::U64(kind!(Close(o) => &mut o.seed)),
        "seed for fault sampling and stimulus generation"),
    Opt::new("--rounds <R>", "rounds", Both, Slot::Usize(kind!(Close(o) => &mut o.rounds)),
        "feedback-round budget; the loop also stops at closure or after 3 rounds \
         without progress"),
    Opt::new("--budget <STEPS>", "budget", Both, Slot::MaybeU64(kind!(Close(o) => &mut o.budget)),
        "soft test-step budget across all rounds; the round that crosses it is the last"),
    Opt::new("--jobs <J>", "jobs", Both, Slot::Usize(kind!(Close(o) => &mut o.jobs)),
        "worker threads; 0 = automatic (all cores, or one for a small differential \
         campaign); results are identical for every J"),
    Opt::new("--engine", "engine", Both, Slot::Engine(kind!(Close(o) => &mut o.engine)),
        "fault-simulation engine; reports are bit-identical for every engine"),
    Opt::new("--collapse off|on", "collapse", Both, Slot::Switch(kind!(Close(o) => &mut o.collapse)),
        "run the rounds over collapse-class representatives (a bool on the wire)"),
    Opt::new("--format text|json", "format", Both, Slot::Text(kind!(Close(o) => &mut o.format)),
        "report format"),
];

#[rustfmt::skip]
static LINT: &[Opt<JobArgs>] = &[
    Opt::new("--format text|json", "format", Both, Slot::Text(kind!(Lint { format, .. } => format)),
        "report format"),
    Opt::new("--k <K>", "k", Both, Slot::Usize(kind!(Lint { k, .. } => k)),
        "depth of the forall-k distinguishability lint"),
];

#[rustfmt::skip]
static ANALYZE: &[Opt<JobArgs>] = &[
    Opt::new("--max-faults <N>", "max_faults", Both, Slot::Usize(kind!(Analyze { opts, .. } => &mut opts.max_faults)),
        "fault-sample cap"),
    Opt::new("--seed <S>", "seed", Both, Slot::U64(kind!(Analyze { opts, .. } => &mut opts.seed)),
        "fault-sampling seed"),
    Opt::new("--max-nodes <N>", "max_nodes", Both, Slot::Usize(kind!(Analyze { opts, .. } => &mut opts.max_nodes)),
        "per-cell node budget of the transfer-fault bisimulation; larger cells warn SC050"),
    Opt::new("--format text|json", "format", Both, Slot::Text(kind!(Analyze { format, .. } => format)),
        "report format"),
];

#[rustfmt::skip]
static SEVERITY: &[Opt<JobArgs>] = &[
    Opt::new("--deny <C>", "overrides", Cli, Slot::Severity("deny", kind!(Lint { overrides, .. } | Analyze { overrides, .. } => overrides)),
        "raise lint code or name C to deny (repeatable; later flags win)"),
    Opt::new("--warn <C>", "overrides", Cli, Slot::Severity("warn", kind!(Lint { overrides, .. } | Analyze { overrides, .. } => overrides)),
        "set lint code or name C to warn (repeatable)"),
    Opt::new("--allow <C>", "overrides", Cli, Slot::Severity("allow", kind!(Lint { overrides, .. } | Analyze { overrides, .. } => overrides)),
        "silence lint code or name C (repeatable)"),
    Opt::new("", "overrides", Wire, Slot::Overrides(kind!(Lint { overrides, .. } | Analyze { overrides, .. } => overrides)),
        r#"[{"code":C,"severity":"deny|warn|allow"}]"#),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use simcov_obs::json::{self, escape};
    use simcov_prng::{forall, Gen};

    fn maybe<T>(g: &mut Gen, f: impl FnOnce(&mut Gen) -> T) -> Option<T> {
        g.bool().then(|| f(g))
    }

    fn one_of(g: &mut Gen, names: &[&str]) -> String {
        names[g.int_in(0..names.len())].to_string()
    }

    /// Seeds, budgets and deadlines stay below 2^53: wire numbers are
    /// JSON doubles.
    fn big(g: &mut Gen) -> u64 {
        g.int_in(0..1u64 << 53)
    }

    fn overrides(g: &mut Gen) -> SeverityOverrides {
        g.vec_of(0..4, |g| {
            let code = one_of(g, &["SC001", "SC008", "SC024", "hidden-latch"]);
            (code, one_of(g, &["deny", "warn", "allow"]))
        })
    }

    /// A random job kind, every field drawn independently of the tables.
    fn random_kind(g: &mut Gen) -> JobKind {
        let engine = |g: &mut Gen| Engine::ALL[g.int_in(0..Engine::ALL.len())];
        let format = |g: &mut Gen| one_of(g, &["text", "json"]);
        match g.int_in(0..5u32) {
            0 => Campaign(CampaignOpts {
                max_faults: g.int_in(0..100_000),
                seed: big(g),
                k: g.int_in(0..8),
                jobs: g.int_in(0..16),
                max_retries: g.int_in(0..5),
                deadline_ms: maybe(g, big),
                max_steps: maybe(g, big),
                checkpoint: maybe(g, |g| format!("ck{}.journal", g.int_in(0..9u32))),
                resume: g.bool(),
                engine: engine(g),
                collapse: [CollapseMode::Off, CollapseMode::On, CollapseMode::Verify]
                    [g.int_in(0..3)],
            }),
            1 => Close(CloseOpts {
                max_faults: g.int_in(0..100_000),
                seed: big(g),
                rounds: g.int_in(0..20),
                budget: maybe(g, big),
                jobs: g.int_in(0..16),
                engine: engine(g),
                collapse: g.bool(),
                format: format(g),
            }),
            2 => Analyze {
                format: format(g),
                opts: AnalyzeOpts {
                    max_faults: g.int_in(0..100_000),
                    seed: big(g),
                    max_nodes: g.int_in(1..1 << 20),
                },
                overrides: overrides(g),
            },
            3 => Lint {
                format: format(g),
                k: g.int_in(0..6),
                overrides: overrides(g),
            },
            _ => Tour {
                kind: one_of(g, &["postman", "greedy", "state"]),
            },
        }
    }

    fn rows(cmd: &JobCommand) -> impl Iterator<Item = &Opt<JobArgs>> {
        cmd.tables.iter().flat_map(|t| t.iter())
    }

    /// `job` as command-line arguments, rendered from the table.
    fn argv(cmd: &JobCommand, job: &mut JobArgs) -> Vec<String> {
        let mut out = Vec::new();
        let mut severities: Vec<(&str, &str)> = Vec::new();
        for o in rows(cmd).filter(|o| o.on != On::Wire) {
            match &o.slot {
                Slot::Flag(at) if *at(job) => out.push(o.word().to_string()),
                Slot::Pick(name, at) if at(job) == name => out.push(o.word().to_string()),
                Slot::Severity(severity, _) => severities.push((severity, o.word())),
                _ if o.is_positional() => out.extend(o.slot.show(job)),
                _ if o.takes_value() => {
                    if let Some(v) = o.slot.show(job) {
                        out.extend([o.word().to_string(), v]);
                    }
                }
                _ => {}
            }
        }
        // Overrides keep their order: each pair under its own flag.
        if let Lint { overrides, .. } | Analyze { overrides, .. } = &job.kind {
            for (code, severity) in overrides {
                let flag = severities.iter().find(|s| s.0 == severity).unwrap().1;
                out.extend([flag.to_string(), code.clone()]);
            }
        }
        out
    }

    /// `job` as a wire request object, rendered from the table.
    fn wire(cmd: &JobCommand, job: &mut JobArgs) -> String {
        let mut members = vec![format!(r#""type":"{}""#, cmd.name)];
        for o in rows(cmd).filter(|o| o.on != On::Cli) {
            let value = match &o.slot {
                Slot::Usize(_) | Slot::U64(_) | Slot::MaybeU64(_) => o.slot.show(job),
                Slot::Flag(at) | Slot::Switch(at) => Some(at(job).to_string()),
                Slot::Overrides(at) => {
                    let pairs: Vec<String> = at(job)
                        .iter()
                        .map(|(c, s)| format!(r#"{{"code":"{c}","severity":"{s}"}}"#))
                        .collect();
                    Some(format!("[{}]", pairs.join(",")))
                }
                Slot::Model(at) => at(job).as_ref().map(|m| match m {
                    ModelSource::Dlx(d) => format!(r#"{{"dlx":"{}"}}"#, escape(d)),
                    ModelSource::Blif { name, text } => {
                        format!(r#"{{"blif":"{}","name":"{}"}}"#, escape(text), escape(name))
                    }
                }),
                _ => o.slot.show(job).map(|s| format!(r#""{}""#, escape(&s))),
            };
            if let Some(v) = value {
                members.push(format!(r#""{}":{v}"#, o.field));
            }
        }
        format!("{{{}}}", members.join(","))
    }

    #[test]
    fn argv_and_wire_renderings_read_back_to_the_same_job() {
        forall("option_tables_round_trip", |g| {
            let kind = random_kind(g);
            let cmd = JobCommand::find(kind.name()).unwrap();

            let mut job = cmd.args();
            job.kind = kind.clone();
            if g.bool() && rows(cmd).any(|o| o.word() == "--dlx") {
                job.dlx = Some(one_of(g, &["reduced", "final"]));
            } else {
                job.path = Some(format!("m{}.blif", g.int_in(0..9u32)));
            }
            job.trace_out = maybe(g, |g| format!("t{}.jsonl", g.int_in(0..9u32)));
            job.metrics = g.bool();
            let mut args = argv(cmd, &mut job);
            // The path may come first or last.
            if args.first().is_some_and(|a| a.ends_with(".blif")) && g.bool() {
                args.rotate_left(1);
            }
            let mut back = cmd.args();
            read_argv(cmd.name, cmd.tables, &args, &mut back).unwrap();
            assert_eq!(back, job, "{args:?}");

            // Checkpointing is command-line only.
            let mut job = cmd.args();
            job.kind = kind;
            if let Campaign(o) = &mut job.kind {
                (o.checkpoint, o.resume) = (None, false);
            }
            job.id = Some(format!("job-{}", g.int_in(0..99u32)));
            job.model = Some(match g.bool() {
                true => ModelSource::Dlx(one_of(g, &["reduced-obs", "fig3a"])),
                false => ModelSource::Blif {
                    name: "toggle \"q\"".to_string(),
                    text: ".model t\n.inputs a\n.end\n".to_string(),
                },
            });
            job.trace = g.bool();
            let request = wire(cmd, &mut job);
            let Ok(Request::Submit { spec, want_trace }) =
                parse_request(&json::parse(&request).unwrap())
            else {
                panic!("{request} does not read back as a submit request");
            };
            assert_eq!(Some(spec.id), job.id, "{request}");
            assert_eq!(Some(spec.model), job.model, "{request}");
            assert_eq!(spec.kind, job.kind, "{request}");
            assert_eq!(want_trace, job.trace, "{request}");
        });
    }
}
