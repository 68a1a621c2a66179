//! The metric registry: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names; the self-test keeps the
//! two in step.

/// A measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile.
    pub samples: Option<usize>,
}

/// End-to-end metrics every workload reports with `--trace 0`; these
/// are the gated ones in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("campaign_p50_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end metrics only the explicit-model workloads (`dlx_cli_jobs`,
/// `dlx_serve`) have: printed in the summary, not gated, since the
/// full-width workload runs no close, analyze or lint jobs and
/// classifies no explicit faults.
pub const EXPLICIT_ONLY: [(&str, &str); 6] = [
    ("lint_p50_ms", "ms"),
    ("close_p50_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("faults_per_s", "1/s"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("netlist.from_blif_ms", "ms"),
    ("dlx.model_build_ms", "ms"),
    ("dlx.valid_inputs_ms", "ms"),
    ("fsm.enumerate_ms", "ms"),
    ("tour.postman_ms", "ms"),
    ("core.fault_enum_ms", "ms"),
    ("core.golden_trace_ms", "ms"),
    ("core.campaign_run_ms", "ms"),
    ("core.campaign_cpu_ms", "ms"),
    ("core.shards", "count"),
    ("core.faults_simulated", "count"),
    ("core.divergence_replays", "count"),
    ("core.faults_skipped_by_index", "count"),
    ("adaptive.close_ms", "ms"),
    ("adaptive.rounds", "count"),
    ("adaptive.test_steps", "count"),
    ("analyze.collapse_ms", "ms"),
    ("analyze.lint_passes_ms", "ms"),
    ("analyze.classes", "count"),
    ("analyze.collapse_ratio", "ratio"),
    ("lint.ms", "ms"),
    ("render.ms", "ms"),
    ("fsm.pair_build_ms", "ms"),
    ("fsm.transfer_prep_ms", "ms"),
    ("bdd.clone_ms", "ms"),
    ("core.flip_detect_ms_p50", "ms"),
    ("core.flip_detect_ms_max", "ms"),
    ("bdd.unique_nodes", "count"),
    ("bdd.ite_cache_hit_ratio", "ratio"),
    ("bdd.gc_collections", "count"),
    ("proc.minor_faults", "count"),
    ("proc.sys_cpu_s", "s"),
    ("serve.ack_ms", "ms"),
    ("serve.result_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.audit_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.threads_peak", "count"),
    ("serve.rejected", "count"),
    ("serve.degraded", "count"),
    ("serve.journal_bytes_per_job", "bytes"),
    ("trace_overhead_frac", "ratio"),
];

/// The unit registered for `name`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(EXPLICIT_ONLY.iter())
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not registered"))
}

/// Accumulates a workload's metrics.
#[derive(Debug, Default)]
pub struct Sheet {
    pub metrics: Vec<Metric>,
    /// Context printed with the summary.
    pub notes: Vec<String>,
}

impl Sheet {
    /// Records `name` (which must be registered) with its unit.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            value,
            unit: unit_of(name),
            samples: None,
        });
    }

    /// Records a median or percentile with its sample count; nothing when
    /// there are no samples.
    pub fn set_sampled(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(value) = value {
            self.metrics.push(Metric {
                name,
                value,
                unit: unit_of(name),
                samples: Some(samples),
            });
        }
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}
