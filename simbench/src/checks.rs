//! Output checks. They run outside the timed phase, once per distinct
//! spec, and produce the reference every timed job's report must equal.

use crate::mix::{with_engine, Kind, Spec};
use simcov_core::{CollapseMode, Engine};
use simcov_obs::Telemetry;
use simcov_serve::jobs::{execute, CampaignOpts, ExecCtx, JobKind, JobSpec};
use simcov_serve::ExitStatus;

/// The committed `lint` summary line for each model (the text report's
/// last line). `reduced` carries four deny findings by design, so its
/// lint job exits 1; that exit is its expected outcome, not a failure.
pub const LINT_SUMMARIES: [(&str, &str); 2] = [
    ("reduced-obs", "summary: 18 findings (0 deny, 18 warn)"),
    ("reduced", "summary: 22 findings (4 deny, 18 warn)"),
];

/// The committed counts of the full-width implicit campaign (k=2): lines
/// its report must contain verbatim.
pub const FULL_WIDTH_COUNTS: [&str; 3] = [
    "reachable states 1552 / cells 286859264 / valid inputs 184832",
    "output flips   1147437056 detected of 1147437056",
    "transfer flips 1771924544 detected of 6310903808",
];

/// `text` without the lines starting with any of `prefixes`.
pub fn strip(text: &str, prefixes: &[&str]) -> String {
    text.lines()
        .filter(|l| !prefixes.iter().any(|p| l.starts_with(p)))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A report with its wall-clock line removed: the part that must repeat
/// exactly.
pub fn stable(text: &str) -> String {
    strip(text, &["wall:"])
}

/// What a spec's jobs must print, and whether the spec passed its checks.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The stable report (see [`stable`]).
    pub text: String,
    pub status: ExitStatus,
    /// Explicit faults the job classifies (campaign and close jobs).
    pub faults: u64,
    /// Failed checks; empty when the spec passed.
    pub problems: Vec<String>,
}

impl Reference {
    /// Whether a job's output matches this reference.
    pub fn matches(&self, text: &str, status: ExitStatus) -> bool {
        self.problems.is_empty() && status == self.status && stable(text) == self.text
    }
}

fn run(spec: &JobSpec) -> Result<(String, ExitStatus), String> {
    execute(spec, &Telemetry::new(), &ExecCtx::default())
        .map(|o| (o.text, o.status))
        .map_err(|e| e.message)
}

/// The first line starting with `prefix`, without it.
fn line<'t>(text: &'t str, prefix: &str) -> Option<&'t str> {
    text.lines().find_map(|l| l.strip_prefix(prefix))
}

/// Leading integer of `s`.
fn leading_u64(s: &str) -> Option<u64> {
    let digits: String = s
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The explicit-fault count a campaign or close report classifies.
fn faults_of(text: &str) -> Option<u64> {
    line(text, "stats: ").and_then(leading_u64)
}

/// Runs `spec` once and checks its report against the kind's oracle.
pub fn check_spec(spec: &Spec) -> Reference {
    let (text, status) = match run(&spec.job) {
        Ok(r) => r,
        Err(e) => {
            return Reference {
                text: String::new(),
                status: ExitStatus::Error,
                faults: 0,
                problems: vec![format!("job errored: {e}")],
            }
        }
    };
    let problems = match spec.kind {
        Kind::Campaign | Kind::Close => check_against_naive(&spec.job, &text, status),
        Kind::Analyze => check_analyze_audit(&spec.job, &text),
        Kind::Lint => check_lint_summary(spec.model, &text),
    };
    Reference {
        faults: faults_of(&text).unwrap_or(0),
        text: stable(&text),
        status,
        problems,
    }
}

/// Campaign and close reports must equal the naive engine's report for
/// the same spec, after removing the `engine:` and `wall:` lines.
pub fn check_against_naive(spec: &JobSpec, text: &str, status: ExitStatus) -> Vec<String> {
    let mut problems = Vec::new();
    if !matches!(status, ExitStatus::Ok | ExitStatus::Partial) {
        problems.push(format!("exit status {status:?}"));
    }
    match run(&with_engine(spec, Engine::Naive)) {
        Err(e) => problems.push(format!("naive oracle errored: {e}")),
        Ok((naive, naive_status)) => {
            let keep = |t: &str| strip(t, &["engine:", "wall:"]);
            if keep(text) != keep(&naive) || status != naive_status {
                problems.push("report differs from the naive engine's".to_string());
            }
        }
    }
    problems
}

/// An analyze report must pass a `--collapse verify` audit with zero
/// violations and the same class count.
pub fn check_analyze_audit(spec: &JobSpec, text: &str) -> Vec<String> {
    let JobKind::Analyze { opts, .. } = &spec.kind else {
        return vec!["not an analyze spec".to_string()];
    };
    let Some(classes) = line(text, "faults: ")
        .and_then(|l| l.split_once(" in "))
        .and_then(|(_, rest)| leading_u64(rest))
    else {
        return vec!["no class count in the analyze report".to_string()];
    };
    let audit = JobSpec {
        id: spec.id.clone(),
        model: spec.model.clone(),
        kind: JobKind::Campaign(CampaignOpts {
            max_faults: opts.max_faults,
            seed: opts.seed,
            collapse: CollapseMode::Verify,
            ..CampaignOpts::default()
        }),
    };
    match run(&audit) {
        Err(e) => vec![format!("collapse audit errored: {e}")],
        Ok((report, status)) => {
            let expected = format!("verify ({classes} classes, 0 faults pruned, 0 violations)");
            if status != ExitStatus::Ok || line(&report, "collapse: ") != Some(expected.as_str()) {
                vec![format!(
                    "collapse audit disagrees: expected `{expected}`, got `{}`",
                    line(&report, "collapse: ").unwrap_or("<none>")
                )]
            } else {
                Vec::new()
            }
        }
    }
}

/// A lint report's summary must equal the committed one for its model.
pub fn check_lint_summary(model: &str, text: &str) -> Vec<String> {
    let expected = LINT_SUMMARIES
        .iter()
        .find(|(m, _)| *m == model)
        .map(|(_, s)| *s);
    let got = text.lines().rfind(|l| l.starts_with("summary:"));
    if expected.is_some() && got == expected {
        Vec::new()
    } else {
        vec![format!(
            "lint summary `{}` differs from the committed `{}`",
            got.unwrap_or("<none>"),
            expected.unwrap_or("<no committed summary>")
        )]
    }
}

/// The full-width report must carry the committed counts.
pub fn check_full_width(text: &str, status: ExitStatus) -> Vec<String> {
    let mut problems: Vec<String> = FULL_WIDTH_COUNTS
        .iter()
        .filter(|want| !text.contains(*want))
        .map(|want| format!("full-width report lacks `{want}`"))
        .collect();
    if status != ExitStatus::Ok {
        problems.push(format!("exit status {status:?}"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::{dlx_mix, model_blif};

    fn small_campaign() -> Spec {
        let models = vec![("reduced", model_blif("reduced"))];
        let mix = dlx_mix(3, &models);
        let mut spec = mix
            .specs
            .into_iter()
            .find(|s| {
                matches!(&s.job.kind, JobKind::Campaign(o) if o.max_faults < crate::mix::WHOLE_UNIVERSE)
            })
            .expect("the mix has sampled campaigns");
        if let JobKind::Campaign(o) = &mut spec.job.kind {
            o.max_faults = 300;
        }
        spec
    }

    #[test]
    fn a_correct_campaign_passes_and_repeats() {
        let spec = small_campaign();
        let reference = check_spec(&spec);
        assert!(reference.problems.is_empty(), "{:?}", reference.problems);
        assert_eq!(reference.faults, 300);
        let (text, status) = run(&spec.job).unwrap();
        assert!(reference.matches(&text, status));
    }

    #[test]
    fn a_corrupted_stats_field_is_counted_as_failed() {
        let spec = small_campaign();
        let reference = check_spec(&spec);
        let (text, status) = run(&spec.job).unwrap();
        let stats = line(&text, "stats: ").unwrap().to_string();
        let corrupted_stats = stats.replacen("300 faults simulated", "299 faults simulated", 1);
        assert_ne!(stats, corrupted_stats);
        let corrupted = text.replacen(&stats, &corrupted_stats, 1);
        // The timed-phase comparison rejects it ...
        assert!(!reference.matches(&corrupted, status));
        // ... and so does the naive oracle.
        assert!(!check_against_naive(&spec.job, &corrupted, status).is_empty());
        assert!(check_against_naive(&spec.job, &text, status).is_empty());
    }

    #[test]
    fn lint_and_full_width_checks_reject_altered_counts() {
        assert!(check_lint_summary("reduced", LINT_SUMMARIES[1].1).is_empty());
        assert!(
            !check_lint_summary("reduced", "summary: 21 findings (4 deny, 17 warn)").is_empty()
        );
        let good = FULL_WIDTH_COUNTS.join("\n");
        assert!(check_full_width(&good, ExitStatus::Ok).is_empty());
        let bad = good.replace("1771924544", "1771924545");
        assert_eq!(check_full_width(&bad, ExitStatus::Ok).len(), 1);
    }
}
