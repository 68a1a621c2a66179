//! Workload inputs: the DLX test models as BLIF text, the job specs of
//! the validation-flow mix and their wire encoding. Everything here is a
//! pure function of the workload seed.

use simcov_core::Engine;
use simcov_obs::json::escape;
use simcov_serve::jobs::{
    dlx_netlist, AnalyzeOpts, CampaignOpts, CloseOpts, JobKind, JobSpec, ModelSource,
};

/// The two enumerable DLX test models, in mix order.
pub const MODELS: [&str; 2] = ["reduced-obs", "reduced"];

/// Fault cap above both models' whole fault universes (23,040 faults on
/// `reduced-obs`, 12,672 on `reduced`), so the campaign simulates all.
pub const WHOLE_UNIVERSE: usize = 1_000_000;

/// Distinct fault-sampling seeds a run cycles over.
pub const SEEDS_PER_RUN: usize = 4;

/// The job kinds of the validation flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Lint,
    Campaign,
    Close,
    Analyze,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lint => "lint",
            Kind::Campaign => "campaign",
            Kind::Close => "close",
            Kind::Analyze => "analyze",
        }
    }
}

/// One distinct job of a workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub job: JobSpec,
    pub kind: Kind,
    /// DLX model name the job runs on.
    pub model: &'static str,
}

/// A workload's distinct specs and the closed-loop order they run in
/// (indices into `specs`, repeated until the run ends).
#[derive(Debug, Clone)]
pub struct Mix {
    pub specs: Vec<Spec>,
    pub cycle: Vec<usize>,
    /// One spec per (kind, model, universe) class, run as warm-up.
    pub warmup: Vec<usize>,
}

/// SplitMix64: a tiny, well-mixed generator for deriving inputs from the
/// workload seed.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Orders a cycle in which item `i` occurs `weights[i]` times, spread
/// evenly (stride scheduling from seeded phases). Every window of the
/// cycle then holds each item in proportion to its weight, within one,
/// so a run that ends mid-cycle still runs the intended mix.
pub fn interleave(weights: &[usize], rng: &mut SplitMix) -> Vec<usize> {
    let total: usize = weights.iter().sum();
    let stride = |i: usize| total as f64 / weights[i] as f64;
    let mut due: Vec<f64> = (0..weights.len())
        .map(|i| {
            if weights[i] == 0 {
                f64::INFINITY
            } else {
                rng.unit() * stride(i)
            }
        })
        .collect();
    (0..total)
        .map(|_| {
            let i = (0..due.len())
                .min_by(|&a, &b| due[a].total_cmp(&due[b]))
                .expect("at least one weighted item");
            due[i] += stride(i);
            i
        })
        .collect()
}

/// A DLX test model as the BLIF text a user's model file holds.
pub fn model_blif(name: &str) -> String {
    let n = dlx_netlist(name).expect("built-in DLX model names are valid");
    simcov_netlist::to_blif(&n, name)
}

fn blif_source(name: &str, text: &str) -> ModelSource {
    ModelSource::Blif {
        name: format!("{name}.blif"),
        text: text.to_string(),
    }
}

/// Jobs of each class per model in one cycle, chosen so that no kind
/// takes more than half of the cycle's host time (see README.md).
const LINT_PER_MODEL: usize = 160;
const CAMPAIGN_PER_MODEL_PER_SEED: usize = 32;
const WHOLE_UNIVERSE_PER_MODEL: usize = 64;
const CLOSE_PER_MODEL_PER_SEED: usize = 12;
const ANALYZE_PER_MODEL_PER_SEED: usize = 1;

/// The validation-flow mix (`lint`, `campaign`, `close`, `analyze` with
/// CLI defaults) over both models, given as `(name, blif)` pairs.
pub fn dlx_mix(seed: u64, models: &[(&'static str, String)]) -> Mix {
    let mut rng = SplitMix::new(seed);
    // Wire JSON carries integers as doubles: keep seeds well below 2^53.
    let seeds: Vec<u64> = (0..SEEDS_PER_RUN)
        .map(|_| rng.next_u64() % 1_000_000_007)
        .collect();
    let mut specs = Vec::new();
    let mut weights = Vec::new();
    let mut warmup = Vec::new();
    let mut add = |spec: Spec, times: usize, warm: bool, specs: &mut Vec<Spec>| {
        let idx = specs.len();
        specs.push(spec);
        weights.push(times);
        if warm {
            warmup.push(idx);
        }
    };
    for &(model, ref text) in models {
        let source = blif_source(model, text);
        let mk = |kind: Kind, job: JobKind| Spec {
            job: JobSpec {
                id: String::new(),
                model: source.clone(),
                kind: job,
            },
            kind,
            model,
        };
        add(
            mk(
                Kind::Lint,
                JobKind::Lint {
                    format: "text".to_string(),
                    k: 1,
                    overrides: Vec::new(),
                },
            ),
            LINT_PER_MODEL,
            true,
            &mut specs,
        );
        add(
            mk(
                Kind::Campaign,
                JobKind::Campaign(CampaignOpts {
                    max_faults: WHOLE_UNIVERSE,
                    ..CampaignOpts::default()
                }),
            ),
            WHOLE_UNIVERSE_PER_MODEL,
            true,
            &mut specs,
        );
        for (i, &s) in seeds.iter().enumerate() {
            add(
                mk(
                    Kind::Campaign,
                    JobKind::Campaign(CampaignOpts {
                        seed: s,
                        ..CampaignOpts::default()
                    }),
                ),
                CAMPAIGN_PER_MODEL_PER_SEED,
                i == 0,
                &mut specs,
            );
            add(
                mk(
                    Kind::Close,
                    JobKind::Close(CloseOpts {
                        seed: s,
                        ..CloseOpts::default()
                    }),
                ),
                CLOSE_PER_MODEL_PER_SEED,
                i == 0,
                &mut specs,
            );
            add(
                mk(
                    Kind::Analyze,
                    JobKind::Analyze {
                        format: "text".to_string(),
                        opts: AnalyzeOpts {
                            seed: s,
                            ..AnalyzeOpts::default()
                        },
                        overrides: Vec::new(),
                    },
                ),
                ANALYZE_PER_MODEL_PER_SEED,
                i == 0,
                &mut specs,
            );
        }
    }
    Mix {
        cycle: interleave(&weights, &mut rng),
        specs,
        warmup,
    }
}

/// The full-width implicit job: `campaign --dlx final --engine symbolic`
/// with CLI defaults (k=2, `--jobs 0`). It takes no seed.
pub fn full_implicit_spec() -> JobSpec {
    JobSpec {
        id: "final".to_string(),
        model: ModelSource::Dlx("final".to_string()),
        kind: JobKind::Campaign(CampaignOpts {
            engine: Engine::Symbolic,
            ..CampaignOpts::default()
        }),
    }
}

/// A copy of `spec` run on another engine (the naive oracle).
pub fn with_engine(spec: &JobSpec, engine: Engine) -> JobSpec {
    let mut s = spec.clone();
    match &mut s.kind {
        JobKind::Campaign(o) => o.engine = engine,
        JobKind::Close(o) => o.engine = engine,
        _ => {}
    }
    s
}

/// The wire request carrying `spec` under the request id `id`. Every
/// option is spelled out, so wire defaults that differ from the CLI's
/// (campaign `k`) cannot change the job.
pub fn wire_request(spec: &JobSpec, id: &str) -> String {
    let model = match &spec.model {
        ModelSource::Blif { name, text } => {
            format!(r#"{{"name":"{}","blif":"{}"}}"#, escape(name), escape(text))
        }
        ModelSource::Dlx(which) => format!(r#"{{"dlx":"{}"}}"#, escape(which)),
    };
    let head = format!(
        r#""type":"{}","id":"{}","model":{model}"#,
        spec.kind.name(),
        escape(id)
    );
    let body = match &spec.kind {
        JobKind::Campaign(o) => {
            assert!(
                o.checkpoint.is_none() && o.deadline_ms.is_none() && o.max_steps.is_none(),
                "the mix uses no checkpoint, deadline or step budget"
            );
            format!(
                r#","max_faults":{},"seed":{},"k":{},"jobs":{},"max_retries":{},"engine":"{}","collapse":"{}""#,
                o.max_faults,
                o.seed,
                o.k,
                o.jobs,
                o.max_retries,
                o.engine.name(),
                o.collapse
            )
        }
        JobKind::Close(o) => {
            assert!(o.budget.is_none(), "the mix sets no closure budget");
            format!(
                r#","max_faults":{},"seed":{},"rounds":{},"jobs":{},"engine":"{}","collapse":{},"format":"{}""#,
                o.max_faults,
                o.seed,
                o.rounds,
                o.jobs,
                o.engine.name(),
                o.collapse,
                escape(&o.format)
            )
        }
        JobKind::Lint {
            format,
            k,
            overrides,
        } => {
            assert!(overrides.is_empty(), "the mix sets no lint overrides");
            format!(r#","format":"{}","k":{k}"#, escape(format))
        }
        JobKind::Analyze {
            format,
            opts,
            overrides,
        } => {
            assert!(overrides.is_empty(), "the mix sets no lint overrides");
            format!(
                r#","format":"{}","max_faults":{},"seed":{},"max_nodes":{}"#,
                escape(format),
                opts.max_faults,
                opts.seed,
                opts.max_nodes
            )
        }
        JobKind::Tour { kind } => format!(r#","kind":"{}""#, escape(kind)),
    };
    format!("{{{head}{body}}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcov_obs::json;
    use simcov_serve::protocol::{parse_request, Request};

    fn models() -> Vec<(&'static str, String)> {
        MODELS.iter().map(|&m| (m, model_blif(m))).collect()
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let models = models();
        let a = dlx_mix(5, &models);
        let b = dlx_mix(5, &models);
        let c = dlx_mix(6, &models);
        assert_eq!(a.cycle, b.cycle);
        assert_ne!(a.cycle, c.cycle);
        assert_eq!(a.specs.len(), 2 * (2 + 3 * SEEDS_PER_RUN));
        assert_eq!(a.warmup.len(), 2 * 5);
    }

    #[test]
    fn interleaving_keeps_every_window_in_proportion() {
        let weights = [160, 64, 32, 12, 1, 7];
        let total: usize = weights.iter().sum();
        let mut rng = SplitMix::new(9);
        let cycle = interleave(&weights, &mut rng);
        assert_eq!(cycle.len(), total);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(cycle.iter().filter(|&&c| c == i).count(), w);
            // Any prefix holds item i within one of its share.
            for end in (1..=total).step_by(37) {
                let got = cycle[..end].iter().filter(|&&c| c == i).count() as f64;
                let want = w as f64 * end as f64 / total as f64;
                assert!((got - want).abs() <= 1.0, "item {i}, prefix {end}");
            }
        }
    }

    #[test]
    fn wire_requests_parse_back_to_the_same_spec() {
        let models = models();
        let mix = dlx_mix(1, &models);
        let mut all: Vec<JobSpec> = mix.specs.iter().map(|s| s.job.clone()).collect();
        all.push(full_implicit_spec());
        for spec in all {
            let wire = wire_request(&spec, &spec.id);
            let parsed = parse_request(&json::parse(&wire).unwrap()).unwrap();
            let Request::Submit { spec: back, .. } = parsed else {
                panic!("not a submit request: {wire}");
            };
            assert_eq!(back, spec, "{wire}");
        }
    }
}
