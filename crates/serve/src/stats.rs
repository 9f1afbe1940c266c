//! Serving telemetry: registry-backed counters, histograms, and latency
//! quantiles, snapshotted as [`ServerStats`].
//!
//! Every number here lives in a [`snappix_metrics::Registry`]: the
//! request counters are registry [`Counter`]s, queue and compute
//! latency are log-linear [`Histogram`]s (every sample since process
//! start is counted — no sliding window — with bounded relative error
//! and trace-id exemplars), and scrape-time gauges are refreshed on
//! each [`Recorder::snapshot`]. [`ServerStats`] is *derived from* the
//! registry, so the struct the Rust API returns and the Prometheus page
//! the registry renders can never disagree.

use snappix_metrics::{Counter, Gauge, Histogram, HistogramOpts, HistogramSnapshot, Registry};
use std::fmt;
use std::time::{Duration, Instant};

/// The largest batch size the `snappix_server_batch_size` histogram
/// keeps exact: with its widest layout (12 sub-bucket bits) every value
/// below `2^13` sits in a bucket of its own.
pub(crate) const MAX_EXACT_BATCH: usize = (1 << 13) - 1;

/// Sub-bucket bits that keep every batch size up to `max_batch` in a
/// singleton bucket. A log-linear histogram with `b` bits is exact below
/// `2^(b+1)`, so `b` is one less than `max_batch`'s bit length, at least
/// 7 and at most 12.
fn batch_size_bits(max_batch: usize) -> u32 {
    (usize::BITS - max_batch.leading_zeros())
        .saturating_sub(1)
        .clamp(7, 12)
}

/// Rebuilds the per-size batch counts from the batch-size histogram:
/// every executed size sits in a singleton bucket whose upper bound is
/// the size itself.
fn batch_sizes(snap: &HistogramSnapshot) -> Vec<u64> {
    let len = snap.buckets.last().map_or(0, |b| b.upper as usize + 1);
    let mut sizes = vec![0; len];
    for bucket in &snap.buckets {
        sizes[bucket.upper as usize] += bucket.count;
    }
    sizes
}

/// Order statistics over a latency stream.
///
/// Derived from a log-linear histogram covering *every* sample since
/// the server started: `samples` and `total` are exact, `max` is exact,
/// and the percentiles are nearest-rank with relative error bounded by
/// the histogram's bucket growth factor (2⁻⁶ ≈ 1.6% by default) — see
/// [`HistogramSnapshot::quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// All-time number of samples recorded.
    pub samples: u64,
    /// All-time running total of the stream — the summary's `_sum`.
    pub total: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Maximum latency (exact).
    pub max: Duration,
}

impl LatencySummary {
    /// Nearest-rank percentiles over a finite sample set (`samples` is
    /// the set's length; empty input yields the all-zero default).
    ///
    /// Exact ranking over materialized samples — used where the full
    /// sample set is at hand (e.g. the streaming layer's per-stream
    /// reports). The server derives its summaries from histograms via
    /// [`from_histogram`](Self::from_histogram) instead.
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let nearest_rank = |p: f64| {
            let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        LatencySummary {
            samples: samples.len() as u64,
            total: samples.iter().sum(),
            p50: nearest_rank(50.0),
            p95: nearest_rank(95.0),
            p99: nearest_rank(99.0),
            max: *sorted.last().expect("non-empty"),
        }
    }

    /// Derives the summary from a nanosecond-valued histogram snapshot:
    /// count, total, and max are exact; percentiles carry the
    /// histogram's bounded relative error.
    pub fn from_histogram(snap: &HistogramSnapshot) -> Self {
        if snap.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            samples: snap.count,
            total: Duration::from_nanos(snap.sum),
            p50: Duration::from_nanos(snap.quantile(0.5)),
            p95: Duration::from_nanos(snap.quantile(0.95)),
            p99: Duration::from_nanos(snap.quantile(0.99)),
            max: Duration::from_nanos(snap.max),
        }
    }
}

/// A point-in-time snapshot of a [`Server`](crate::Server)'s telemetry,
/// from [`Server::stats`](crate::Server::stats).
///
/// Request accounting is conserved: every admitted request ends up in
/// exactly one of `completed`, `expired` or `failed`, and
/// `submitted = completed + expired + failed + in-flight`.
///
/// With a [disabled](snappix_metrics::Registry::disabled) metrics
/// registry every field is zero — like a disabled tracer, turning
/// telemetry off turns the readouts off, while serving results stay
/// bit-for-bit identical.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Requests admitted into the queue (all-time).
    pub submitted: u64,
    /// Requests answered with a prediction.
    pub completed: u64,
    /// Submissions shed with `Overloaded` (never admitted; not part of
    /// `submitted`).
    pub rejected: u64,
    /// Admitted requests expired at their deadline instead of being run.
    pub expired: u64,
    /// Admitted requests that rode in a batch whose inference failed.
    pub failed: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Histogram of executed batch sizes: `batch_sizes[k]` counts the
    /// batches that ran exactly `k` clips (index 0 is never used). Read
    /// from the `snappix_server_batch_size` histogram, whose buckets are
    /// exact sizes up to the policy's `max_batch`.
    pub batch_sizes: Vec<u64>,
    /// Requests sitting in the admission queue right now.
    pub queue_depth: usize,
    /// Bytes of model weights resident in memory across all worker
    /// replicas, counting each shared storage buffer once. Replicas
    /// share one read-only weight storage, so this stays ~flat as
    /// workers scale — the observable form of the zero-copy artifact
    /// refactor. Weights are fixed at build time, so this is a
    /// constant, not a counter.
    pub resident_weight_bytes: u64,
    /// Time since the server started.
    pub uptime: Duration,
    /// Time requests spent queued before their batch was claimed.
    pub queue_latency: LatencySummary,
    /// Time batches spent in `Pipeline::infer`.
    pub compute_latency: LatencySummary,
}

impl ServerStats {
    /// Completed requests per second of uptime.
    pub fn throughput(&self) -> f64 {
        let secs = self.uptime.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / secs
    }

    /// Mean clips per executed batch — the direct measure of how much
    /// the dynamic batcher is coalescing.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.clips_batched() as f64 / self.batches as f64
    }

    /// Total clips that rode in executed batches (the batch-size
    /// histogram's weighted sum). Every such clip was answered — with a
    /// prediction or a batch failure — so this always equals
    /// `completed + failed`.
    pub fn clips_batched(&self) -> u64 {
        self.batch_sizes
            .iter()
            .enumerate()
            .map(|(size, &count)| size as u64 * count)
            .sum()
    }

    /// Requests admitted but not yet resolved: queued, riding in a
    /// running batch, or claimed-but-unanswered at snapshot time.
    ///
    /// Saturating: a conservation violation can never make this wrap,
    /// so call [`check_conserved`](Self::check_conserved) when drift
    /// must be *detected* rather than hidden.
    pub fn in_flight(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.expired + self.failed)
    }

    /// Verifies the snapshot's conserved-accounting invariants,
    /// returning the in-flight count on success:
    ///
    /// * every resolved request was first admitted
    ///   (`completed + expired + failed <= submitted`), and
    /// * every clip that rode an executed batch was resolved as exactly
    ///   one of completed/failed
    ///   (`clips_batched() == completed + failed`).
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant with both
    /// sides of the failed equation — the payload for
    /// [`debug_assert_conserved`](Self::debug_assert_conserved) and for
    /// operators alerting on a drifting metrics page.
    pub fn check_conserved(&self) -> Result<u64, String> {
        let resolved = self.completed + self.expired + self.failed;
        if resolved > self.submitted {
            return Err(format!(
                "accounting drift: completed {} + expired {} + failed {} = {} \
                 exceeds submitted {}",
                self.completed, self.expired, self.failed, resolved, self.submitted
            ));
        }
        let batched = self.clips_batched();
        if batched != self.completed + self.failed {
            return Err(format!(
                "accounting drift: batch-size histogram holds {} clips but \
                 completed {} + failed {} = {}",
                batched,
                self.completed,
                self.failed,
                self.completed + self.failed
            ));
        }
        Ok(self.submitted - resolved)
    }

    /// Debug-asserts [`check_conserved`](Self::check_conserved): in
    /// debug builds (and therefore in every test) a counter drift
    /// panics at the telemetry surface that would have published it; in
    /// release builds this is free and the page is served as-is.
    ///
    /// The gateway's `/stats` and `/metrics` handlers call this on
    /// every snapshot they export, so a conservation regression
    /// anywhere in the serving stack fails the integration suite
    /// instead of silently mis-reporting to operators.
    #[track_caller]
    pub fn debug_assert_conserved(&self) {
        debug_assert!(
            self.check_conserved().is_ok(),
            "{}",
            self.check_conserved().expect_err("checked")
        );
    }
}

impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} of {} requests in {:.2?} ({:.1} clips/s; {} shed, {} expired, {} failed)",
            self.completed,
            self.submitted,
            self.uptime,
            self.throughput(),
            self.rejected,
            self.expired,
            self.failed,
        )?;
        writeln!(
            f,
            "batches: {} executed, mean size {:.2}, queue depth {}, resident weights {} B",
            self.batches,
            self.mean_batch_size(),
            self.queue_depth,
            self.resident_weight_bytes,
        )?;
        writeln!(
            f,
            "queue latency:   p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.queue_latency.p50,
            self.queue_latency.p95,
            self.queue_latency.p99,
            self.queue_latency.max,
        )?;
        write!(
            f,
            "compute latency: p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.compute_latency.p50,
            self.compute_latency.p95,
            self.compute_latency.p99,
            self.compute_latency.max,
        )
    }
}

/// The shared recorder workers and the submission path write into. All
/// counters and latency samples land in [`Registry`] cells — atomics on
/// the hot path — so the same numbers surface as [`ServerStats`] *and*
/// on any `/metrics` page rendered from the registry.
/// Per-stage time is recorded by the pipeline replicas themselves, into
/// the same registry.
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    /// Fixed at build time: weights never change while serving.
    resident_weight_bytes: u64,
    registry: Registry,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    expired: Counter,
    failed: Counter,
    batches: Counter,
    batch_size: Histogram,
    queue_latency: Histogram,
    compute_latency: Histogram,
    in_flight: Gauge,
    queue_depth: Gauge,
    uptime: Gauge,
}

impl Recorder {
    /// Registers the `snappix_server_*` families on `registry` (no-ops
    /// when it is disabled) and wires the recorder to their handles.
    /// The batch-size histogram is laid out to keep every size up to
    /// `max_batch` exact (at most [`MAX_EXACT_BATCH`]).
    pub fn new(resident_weight_bytes: u64, registry: Registry, max_batch: usize) -> Self {
        let counter = |name, help| registry.counter(name, help);
        let submitted = counter(
            "snappix_server_requests_submitted_total",
            "Requests admitted into the serving queue.",
        );
        let completed = counter(
            "snappix_server_requests_completed_total",
            "Admitted requests answered with a prediction.",
        );
        let rejected = counter(
            "snappix_server_requests_rejected_total",
            "Submissions shed with Overloaded (never admitted).",
        );
        let expired = counter(
            "snappix_server_requests_expired_total",
            "Admitted requests expired at their deadline instead of being run.",
        );
        let failed = counter(
            "snappix_server_requests_failed_total",
            "Admitted requests that rode in a batch whose inference failed.",
        );
        let batches = counter(
            "snappix_server_batches_total",
            "Batched forward passes executed.",
        );
        // Every batch size up to `max_batch` gets its own singleton
        // bucket, so `le` values are exact sizes.
        let batch_size = registry.histogram(
            "snappix_server_batch_size",
            "Executed batch sizes (clips per forward pass).",
            HistogramOpts::default().with_sub_bucket_bits(batch_size_bits(max_batch)),
        );
        let queue_latency = registry.histogram(
            "snappix_server_queue_latency_seconds",
            "Time requests spent queued before their batch was claimed.",
            HistogramOpts::nanos().with_exemplars(),
        );
        let compute_latency = registry.histogram(
            "snappix_server_compute_latency_seconds",
            "Time batches spent in the pipeline forward pass.",
            HistogramOpts::nanos().with_exemplars(),
        );
        let in_flight = registry.gauge(
            "snappix_server_requests_in_flight",
            "Admitted requests not yet resolved (queued or mid-batch).",
        );
        let queue_depth = registry.gauge(
            "snappix_server_queue_depth",
            "Requests sitting in the admission queue right now.",
        );
        let uptime = registry.gauge(
            "snappix_server_uptime_seconds",
            "Seconds since the server started.",
        );
        registry
            .gauge(
                "snappix_server_resident_weight_bytes",
                "Bytes of model weights resident across all worker replicas \
                 (shared storage counted once).",
            )
            .set(resident_weight_bytes as f64);
        Recorder {
            started: Instant::now(),
            resident_weight_bytes,
            registry,
            submitted,
            completed,
            rejected,
            expired,
            failed,
            batches,
            batch_size,
            queue_latency,
            compute_latency,
            in_flight,
            queue_depth,
            uptime,
        }
    }

    /// The registry the recorder's families live in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn record_admitted(&self) {
        self.submitted.inc();
    }

    /// Undoes a [`record_admitted`](Self::record_admitted) whose push
    /// was then rejected. Admissions are counted *before* the request
    /// is published to the queue (so a racing worker can never complete
    /// an uncounted request); a failed push compensates here.
    pub fn record_unadmitted(&self) {
        self.submitted.deduct(1);
    }

    pub fn record_rejected(&self) {
        self.rejected.inc();
    }

    /// Records one claimed batch: per-request queue latencies (each
    /// carrying its request's trace id for exemplars), the expiry
    /// count, and (when any requests remain) the executed batch size
    /// with its compute time and a representative trace id.
    pub fn record_batch(
        &self,
        queue_latencies: &[(Duration, u64)],
        expired: u64,
        executed: usize,
        compute: Option<(Duration, u64)>,
    ) {
        for &(latency, trace_id) in queue_latencies {
            self.queue_latency
                .record_with_trace(latency.as_nanos() as u64, trace_id);
        }
        self.expired.add(expired);
        if executed > 0 {
            self.batches.inc();
            self.batch_size.record(executed as u64);
            if let Some((compute, trace_id)) = compute {
                self.compute_latency
                    .record_with_trace(compute.as_nanos() as u64, trace_id);
                self.completed.add(executed as u64);
            } else {
                self.failed.add(executed as u64);
            }
        }
    }

    pub fn snapshot(&self, queue_depth: usize) -> ServerStats {
        let stats = ServerStats {
            submitted: self.submitted.get(),
            completed: self.completed.get(),
            rejected: self.rejected.get(),
            expired: self.expired.get(),
            failed: self.failed.get(),
            batches: self.batches.get(),
            batch_sizes: batch_sizes(&self.batch_size.snapshot()),
            queue_depth,
            resident_weight_bytes: self.resident_weight_bytes,
            uptime: self.started.elapsed(),
            queue_latency: LatencySummary::from_histogram(&self.queue_latency.snapshot()),
            compute_latency: LatencySummary::from_histogram(&self.compute_latency.snapshot()),
        };
        // Refresh the scrape-time gauges: a registry render right after
        // a snapshot (the gateway's `/metrics` path) sees current
        // values.
        self.in_flight.set(stats.in_flight() as f64);
        self.queue_depth.set(queue_depth as f64);
        self.uptime.set(stats.uptime.as_secs_f64());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Recorder {
        Recorder::new(1024, Registry::new(), 8)
    }

    #[test]
    fn accounting_is_conserved_across_outcomes() {
        let r = recorder();
        for _ in 0..10 {
            r.record_admitted();
        }
        // A rejected push compensates its optimistic admission count.
        r.record_admitted();
        r.record_unadmitted();
        r.record_rejected();
        // Batch of 4: one expired, three ran fine.
        r.record_batch(
            &[(Duration::from_millis(1), 7); 4],
            1,
            3,
            Some((Duration::from_millis(7), 7)),
        );
        // Batch of 2 that failed inference.
        r.record_batch(&[(Duration::from_millis(2), 0); 2], 0, 2, None);
        // Batch that expired entirely: nothing executed.
        r.record_batch(&[(Duration::from_millis(3), 0)], 1, 0, None);
        let s = r.snapshot(4);
        assert_eq!(s.submitted, 10);
        assert_eq!(s.rejected, 1);
        assert_eq!((s.completed, s.expired, s.failed), (3, 2, 2));
        assert_eq!(
            s.completed + s.expired + s.failed + 3,
            s.submitted,
            "3 in flight"
        );
        assert_eq!(s.batches, 2, "empty batches are not executions");
        assert_eq!(s.batch_sizes[3], 1);
        assert_eq!(s.batch_sizes[2], 1);
        assert_eq!(s.queue_depth, 4);
        assert_eq!(s.resident_weight_bytes, 1024);
        assert_eq!(s.queue_latency.samples, 7);
        assert_eq!(s.compute_latency.samples, 1);
        // Running totals back the exporter's `_sum` lines:
        // 4 x 1ms + 2 x 2ms + 1 x 3ms queued, one 7ms forward pass.
        assert_eq!(s.queue_latency.total, Duration::from_millis(11));
        assert_eq!(s.compute_latency.total, Duration::from_millis(7));
        assert!((s.mean_batch_size() - 2.5).abs() < 1e-9);
        assert!(s.throughput() >= 0.0);
        let text = s.to_string();
        assert!(text.contains("batches: 2"));
        assert!(text.contains("resident weights 1024 B"));
        assert!(text.contains("p99"));
        // The registry agrees with the struct, line for line.
        let page = r.registry().render();
        for needle in [
            "snappix_server_requests_submitted_total 10\n",
            "snappix_server_requests_completed_total 3\n",
            "snappix_server_requests_in_flight 3\n",
            "snappix_server_queue_depth 4\n",
            "snappix_server_resident_weight_bytes 1024\n",
            "snappix_server_batches_total 2\n",
            "snappix_server_batch_size_sum 5\n",
            "snappix_server_batch_size_count 2\n",
            "snappix_server_queue_latency_seconds_count 7\n",
            "snappix_server_compute_latency_seconds_count 1\n",
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    #[test]
    fn stage_profiles_merge_across_replicas() {
        use snappix::prelude::*;
        // Replicas built against the recorder's registry time their
        // stages into one shared cell per stage.
        let r = recorder();
        let mask = patterns::long_exposure(4, (8, 8)).expect("valid mask");
        let model = SnapPixAr::new(VitConfig::snappix_s(16, 16, 5), mask).expect("valid model");
        let mut replicas = Pipeline::builder(model)
            .with_metrics(r.registry().clone())
            .build_replicas(2)
            .expect("assembly");
        let clips = Tensor::zeros(&[3, 4, 16, 16]);
        replicas[0].infer(&clips).expect("inference");
        replicas[1].infer(&clips).expect("inference");
        replicas[1].infer(&clips).expect("inference");
        let page = r.registry().render();
        for stage in ["sense", "forward", "readout"] {
            let line =
                format!("snappix_server_stage_latency_seconds_count{{stage=\"{stage}\"}} 3\n");
            assert!(page.contains(&line), "missing {line:?} in:\n{page}");
        }
    }

    #[test]
    fn batch_sizes_stay_exact_up_to_max_batch() {
        // Batch sizes past 255 need more than 7 sub-bucket bits.
        let r = Recorder::new(1024, Registry::new(), 300);
        for _ in 0..300 {
            r.record_admitted();
        }
        r.record_batch(&[], 0, 300, Some((Duration::from_millis(1), 0)));
        let s = r.snapshot(0);
        assert_eq!(s.batch_sizes.len(), 301);
        assert_eq!(s.batch_sizes[300], 1);
        assert_eq!(s.check_conserved(), Ok(0));
        // The layout is the narrowest that keeps every size up to
        // `max_batch` in a singleton bucket, but never under 7 bits.
        for (max_batch, bits) in [(1, 7), (255, 7), (256, 8), (300, 8), (4095, 11)] {
            assert_eq!(batch_size_bits(max_batch), bits, "max_batch {max_batch}");
        }
        assert_eq!(batch_size_bits(MAX_EXACT_BATCH), 12);
        assert_eq!(batch_size_bits(MAX_EXACT_BATCH + 1), 12, "clamped");
    }

    #[test]
    fn conservation_helpers_detect_drift() {
        let r = recorder();
        for _ in 0..6 {
            r.record_admitted();
        }
        r.record_batch(
            &[(Duration::from_millis(1), 0); 4],
            1,
            3,
            Some((Duration::from_millis(2), 0)),
        );
        let healthy = r.snapshot(2);
        assert_eq!(healthy.clips_batched(), 3);
        assert_eq!(healthy.in_flight(), 2);
        assert_eq!(healthy.check_conserved(), Ok(2));
        healthy.debug_assert_conserved();

        // Drift type 1: more resolutions than admissions.
        let mut drifted = healthy.clone();
        drifted.completed += 10;
        drifted.batch_sizes[3] = 0;
        drifted.batch_sizes.resize(14, 0);
        drifted.batch_sizes[13] = 1;
        assert_eq!(drifted.in_flight(), 0, "saturating, never wrapping");
        let err = drifted.check_conserved().expect_err("over-resolved");
        assert!(err.contains("exceeds submitted"), "{err}");

        // Drift type 2: histogram disagrees with the outcome counters.
        let mut skewed = healthy;
        skewed.batch_sizes[3] = 2;
        let err = skewed.check_conserved().expect_err("histogram drift");
        assert!(err.contains("histogram"), "{err}");
    }

    #[test]
    #[should_panic(expected = "accounting drift")]
    fn debug_assert_conserved_panics_on_drift_in_debug_builds() {
        let mut s = recorder().snapshot(0);
        s.completed = 1; // never admitted
        if cfg!(debug_assertions) {
            s.debug_assert_conserved();
        } else {
            // Release builds compile the assert out; satisfy the
            // should_panic expectation explicitly.
            panic!("accounting drift checks are debug-only");
        }
    }

    #[test]
    fn from_samples_is_nearest_rank() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = LatencySummary::from_samples(&samples);
        assert_eq!(s.samples, 100);
        assert_eq!(s.total, Duration::from_millis(5050));
        assert_eq!(s.p50, Duration::from_millis(50));
        assert_eq!(s.p95, Duration::from_millis(95));
        assert_eq!(s.p99, Duration::from_millis(99));
        assert_eq!(s.max, Duration::from_millis(100));
        assert_eq!(LatencySummary::from_samples(&[]), LatencySummary::default());
        // Order-independent: ranking sorts internally.
        let reversed: Vec<Duration> = samples.iter().rev().copied().collect();
        assert_eq!(LatencySummary::from_samples(&reversed), s);
    }

    #[test]
    fn no_samples_are_lost_under_sustained_load() {
        // 5000 samples — beyond the 4096-sample sliding window the
        // pre-registry recorder ranked over. Every one lands in the
        // histogram: `_count` on the rendered page equals submissions
        // exactly, and the totals stay exact.
        let r = recorder();
        const BATCH: usize = 50;
        const BATCHES: usize = 100;
        let mut expected_total = Duration::ZERO;
        for batch in 0..BATCHES {
            for _ in 0..BATCH {
                r.record_admitted();
            }
            let latencies: Vec<(Duration, u64)> = (0..BATCH)
                .map(|i| (Duration::from_micros((batch * BATCH + i) as u64 + 1), 0))
                .collect();
            expected_total += latencies.iter().map(|&(d, _)| d).sum::<Duration>();
            r.record_batch(&latencies, 0, BATCH, Some((Duration::from_millis(1), 0)));
        }
        let s = r.snapshot(0);
        assert_eq!(s.submitted, (BATCH * BATCHES) as u64);
        assert_eq!(s.queue_latency.samples, 5000, "all 5000 samples counted");
        assert_eq!(s.queue_latency.total, expected_total, "sum stays exact");
        assert_eq!(s.queue_latency.max, Duration::from_micros(5000));
        // p99 of 1..=5000 µs is 4950 µs; the histogram's answer is
        // within its configured relative error (2^-6).
        let p99 = s.queue_latency.p99.as_micros() as f64;
        assert!((p99 - 4950.0).abs() / 4950.0 <= 1.0 / 64.0, "p99 {p99}");
        let page = r.registry().render();
        assert!(
            page.contains("snappix_server_queue_latency_seconds_count 5000\n"),
            "{page}"
        );
        s.debug_assert_conserved();
    }

    #[test]
    fn disabled_registry_records_nothing_and_stays_conserved() {
        let r = Recorder::new(512, Registry::disabled(), 8);
        r.record_admitted();
        r.record_batch(
            &[(Duration::from_millis(1), 0)],
            0,
            1,
            Some((Duration::from_millis(1), 0)),
        );
        let s = r.snapshot(0);
        assert_eq!(s.submitted, 0, "disabled registry counts nothing");
        assert_eq!(s.batch_sizes, Vec::<u64>::new());
        assert_eq!(s.queue_latency, LatencySummary::default());
        s.debug_assert_conserved();
        assert_eq!(r.registry().render(), "");
    }
}
