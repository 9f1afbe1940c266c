//! The metric catalogue and the one-line JSON result.
//!
//! The names and units here are the ones `BENCHMARK.json` lists; a run
//! that fails to produce one of them panics instead of printing a
//! partial result.

use std::collections::BTreeMap;

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("p90_ms.peak", "ms"),
    ("capacity_rps", "1/s"),
    ("ok_share", "share"),
    ("windows_per_s", "1/s"),
    ("pj_per_inference", "pJ"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, from the separate traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"),
    ("gateway.rtt_ms.p50", "ms"),
    ("gateway.rtt_ms.p99", "ms"),
    ("gateway.self_ms.p50", "ms"),
    ("gateway.non2xx", "count"),
    ("metrics.scrape_ms.p50", "ms"),
    ("metrics.scrape_bytes", "bytes"),
    ("serve.submit_us.p99", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.batch_size.mean", "clips"),
    ("serve.compute_ms.p50", "ms"),
    ("serve.shed", "count"),
    ("serve.expired", "count"),
    ("serve.busy_share", "share"),
    ("snappix.sense_ms.p50", "ms"),
    ("snappix.forward_ms.p50", "ms"),
    ("snappix.readout_us.mean", "us"),
    ("models.forward_ms.b1", "ms"),
    ("models.forward_ms.b8", "ms"),
    ("tensor.gflop_per_clip", "GFLOP"),
    ("tensor.mbytes_per_clip", "MB"),
    ("tensor.gflops_per_s.b8", "GFLOP/s"),
    ("tensor.par_speedup.b8", "x"),
    ("ce.encode_us_per_clip", "us"),
    ("sensor.capture_ms_per_clip", "ms"),
    ("sensor.readout_us_per_clip", "us"),
    ("fleet.self_ms", "ms"),
    ("fleet.mean_batch", "clips"),
    ("fleet.inferred", "count"),
    ("fleet.shed", "count"),
    ("fleet.slept", "count"),
    ("stream.windows", "count"),
    ("energy.pj_per_window", "pJ"),
    ("trace.overhead_ratio", "x"),
    ("trace.residual_share", "share"),
    ("design.stress_share", "share"),
];

/// The per-request layer self times of a traced run must sum to the
/// end-to-end time within this share of it (median over requests); a
/// traced run outside it fails.
pub const RESIDUAL_TOLERANCE: f64 = 0.10;

/// Checks the median share `residual` of the end-to-end time that no
/// layer span covers against [`RESIDUAL_TOLERANCE`], failing the run
/// outside it.
pub fn check_residual(out: &mut Results, what: &str, residual: f64) {
    let within = residual.abs() <= RESIDUAL_TOLERANCE;
    println!(
        "detail: {what}: layer self times leave {residual:.4} of the end-to-end time \
         unattributed, {} the {RESIDUAL_TOLERANCE} tolerance",
        if within { "within" } else { "OUTSIDE" }
    );
    if !within {
        eprintln!("additivity check FAILED for {what}");
        out.correct = false;
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Results {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (failed, refused, shed, expired
    /// or output-mismatched).
    pub attempted: u64,
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
}

impl Results {
    pub fn new() -> Self {
        Results {
            correct: true,
            ..Results::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// The result line for the metrics of `catalogue`.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .metrics
                    .get(name)
                    .copied()
                    .unwrap_or_else(|| panic!("the run did not measure {name}"));
                assert!(value.is_finite(), "{name} = {value} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        assert!(self.attempted > 0, "the run attempted nothing");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
