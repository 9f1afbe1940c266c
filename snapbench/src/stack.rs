//! What every workload shares: the model and clip geometry, the clip
//! pool, the serial reference answers, the per-layer replays through
//! each crate's public API, and the reading of a trace snapshot into
//! layer numbers.

use crate::flops;
use crate::report::Results;
use crate::util::{median, ms, quantile, time_reps};
use rand::{rngs::StdRng, SeedableRng};
use snappix::prelude::*;
use snappix_metrics::HistogramOpts;
use snappix_nn::Session;
use snappix_sensor::{CeSensor, Readout};
use snappix_serve::Server;
use snappix_trace::SpanRecord;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub const CLASSES: usize = 10;

/// The model and clip geometry a workload serves.
#[derive(Debug, Clone)]
pub struct Geometry {
    pub vit: VitConfig,
    /// Exposure slots per clip.
    pub t: usize,
    pub hw: usize,
}

impl Geometry {
    pub fn snappix_s16() -> Self {
        Geometry {
            vit: VitConfig::snappix_s(16, 16, CLASSES),
            t: 8,
            hw: 16,
        }
    }

    pub fn snappix_b32() -> Self {
        Geometry {
            vit: VitConfig::snappix_b(32, 32, CLASSES),
            t: 16,
            hw: 32,
        }
    }

    /// The model: fixed weights and a fixed random exposure mask, so the
    /// seed varies only the inputs.
    pub fn model(&self) -> SnapPixAr {
        let mut rng = StdRng::seed_from_u64(0x5a9b);
        let mask = patterns::random(self.t, (8, 8), 0.5, &mut rng).expect("valid mask geometry");
        SnapPixAr::new(self.vit.clone(), mask).expect("mask tile equals the ViT patch")
    }

    /// `n` videos of `frames` frames each, seeded by `seed`.
    pub fn videos(&self, seed: u64, n: usize, frames: usize) -> Vec<Video> {
        let mut config = ssv2_like(frames, self.hw, self.hw);
        config.seed = seed;
        let data = Dataset::new(config, n);
        (0..n).map(|i| data.sample(i).video).collect()
    }

    /// Edge energy of one coded capture and its transmission, pJ.
    pub fn edge_pj_per_inference(&self) -> f64 {
        EnergyModel::paper()
            .snappix_energy(&Scenario {
                frame_pixels: self.hw * self.hw,
                slots: self.t,
                wireless: Wireless::PassiveWifi,
            })
            .total_pj()
    }
}

/// Serial `Pipeline::infer_clip` answers for every clip from a pipeline
/// built from `recipe` (the served recipe): the reference every served
/// answer must equal bit for bit.
pub fn references<S: Sense>(recipe: PipelineBuilder<S>, clips: &[Tensor]) -> Vec<Prediction>
where
    snappix::Error: From<S::Error>,
{
    let mut pipeline = recipe.build().expect("reference pipeline");
    clips
        .iter()
        .map(|c| pipeline.infer_clip(c).expect("reference inference"))
        .collect()
}

pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Per-layer numbers from replaying the workload's clips through each
/// layer's public API, outside any server.
#[derive(Debug)]
pub struct LayerReplay {
    pub forward_b1_ms: f64,
    pub forward_b8_ms: f64,
    pub forward_b8_serial_ms: f64,
    pub gflop_per_clip: f64,
    pub mbytes_per_clip: f64,
    pub encode_us_per_clip: f64,
    pub capture_ms_per_clip: f64,
    pub readout_us_per_clip: f64,
}

/// Replays `clips` through the model (batch 1 and 8, default and one
/// thread), the algorithmic encoder, the sensor array and the readout,
/// each call inside a benchmark span. Each replay runs for about
/// `budget / 5`.
pub fn replay_layers(
    geo: &Geometry,
    clips: &[Tensor],
    tracer: &Tracer,
    budget: Duration,
) -> LayerReplay {
    let model = geo.model();
    let mask = model.mask().clone();
    let slice = budget / 5;
    let batch = |n: usize, at: usize| {
        let refs: Vec<&Tensor> = (0..n).map(|i| &clips[(at + i) % clips.len()]).collect();
        model
            .compress(&Tensor::stack(&refs, 0).expect("same-shape clips"))
            .expect("coded batch")
    };
    let coded1: Vec<Tensor> = (0..clips.len()).map(|i| batch(1, i)).collect();
    let coded8: Vec<Tensor> = (0..clips.len()).map(|i| batch(8, i)).collect();
    let forward = |coded: &Tensor| {
        let _span = tracer.span("models.forward");
        let mut sess = Session::inference(model.store());
        let logits = model
            .build_logits_from_coded(&mut sess, coded)
            .expect("forward");
        std::hint::black_box(sess.graph.value(logits).as_slice()[0]);
    };
    let mut at = 0;
    let forward_b1 = median(&mut time_reps(slice, 20, || {
        at += 1;
        forward(&coded1[at % coded1.len()]);
    }));
    let forward_b8 = median(&mut time_reps(slice, 10, || {
        at += 1;
        forward(&coded8[at % coded8.len()]);
    }));
    let forward_b8_serial = parallel::with_threads(1, || {
        median(&mut time_reps(slice, 10, || {
            at += 1;
            forward(&coded8[at % coded8.len()]);
        }))
    });

    let encode = median(&mut time_reps(slice / 2, 50, || {
        at += 1;
        let _span = tracer.span("ce.encode");
        let clip = &clips[at % clips.len()];
        std::hint::black_box(snappix_ce::encode_normalized(clip, &mask).expect("encode"));
    }));

    let mut sensor = CeSensor::new(geo.hw, geo.hw, mask).expect("sensor geometry");
    let mut readout = Readout::new(ReadoutConfig::noiseless(8, geo.t as f32));
    let (mut capture_ms, mut readout_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while capture_ms.len() < 20 || started.elapsed() < slice * 3 / 2 {
        at += 1;
        let clip = &clips[at % clips.len()];
        let t = Instant::now();
        let analog = {
            let _span = tracer.span("sensor.capture");
            sensor.capture(clip).expect("capture")
        };
        capture_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        {
            let _span = tracer.span("sensor.readout");
            std::hint::black_box(readout.digitize(&analog));
        }
        readout_ms.push(ms(t.elapsed()));
    }

    let count = flops::forward(&geo.vit);
    LayerReplay {
        forward_b1_ms: forward_b1,
        forward_b8_ms: forward_b8,
        forward_b8_serial_ms: forward_b8_serial,
        gflop_per_clip: count.flops / 1e9,
        mbytes_per_clip: count.bytes / 1e6,
        encode_us_per_clip: encode * 1e3,
        capture_ms_per_clip: median(&mut capture_ms),
        readout_us_per_clip: median(&mut readout_ms) * 1e3,
    }
}

/// A trace snapshot's records grouped for lookups.
pub struct Spans<'a> {
    pub by_trace: HashMap<u64, Vec<&'a SpanRecord>>,
    pub by_name: HashMap<&'static str, Vec<&'a SpanRecord>>,
    /// Per `batch` span id: the summed durations of the pipeline's
    /// `sense`, `forward` and `readout` spans inside it, µs.
    stages_of_batch: HashMap<u64, u64>,
}

/// One served request's serve-layer spans, tracer µs.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// When admission opened its `queue_wait` span.
    pub queued_at: u64,
    pub queue_us: u64,
    /// The pipeline stage spans of the batch it rode in.
    pub stages_us: u64,
    /// When its `compute` span ended.
    pub computed_at: u64,
}

impl<'a> Spans<'a> {
    pub fn new(records: &'a [SpanRecord]) -> Self {
        let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut by_name: HashMap<&'static str, Vec<&SpanRecord>> = HashMap::new();
        let mut stages_of_batch: HashMap<u64, u64> = HashMap::new();
        for r in records {
            by_trace.entry(r.trace_id).or_default().push(r);
            by_name.entry(r.name).or_default().push(r);
            if matches!(r.name, "sense" | "forward" | "readout") {
                *stages_of_batch.entry(r.parent).or_default() += r.duration_us();
            }
        }
        Spans {
            by_trace,
            by_name,
            stages_of_batch,
        }
    }

    /// Durations of every span called `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map(|v| v.iter().map(|r| r.duration_us() as f64 / 1e3).collect())
            .unwrap_or_default()
    }

    /// The first span called `name` in trace `trace_id`.
    pub fn find(&self, trace_id: u64, name: &str) -> Option<&'a SpanRecord> {
        self.by_trace
            .get(&trace_id)?
            .iter()
            .copied()
            .find(|r| r.name == name)
    }

    /// The serve layer's interval for one request, `(start, end)` in
    /// tracer µs: admission (`queue_wait` opens) to the end of its
    /// `compute` span.
    pub fn serve_interval(&self, trace_id: u64) -> Option<(u64, u64)> {
        let served = self.served(trace_id)?;
        Some((served.queued_at, served.computed_at))
    }

    /// One request's serve-layer spans, joined from its `compute` span
    /// to the stage spans of the batch it rode in.
    pub fn served(&self, trace_id: u64) -> Option<Served> {
        let queued = self.find(trace_id, "queue_wait")?;
        let computed = self.find(trace_id, "compute")?;
        let batch = computed.arg("batch").and_then(|b| b.as_u64())?;
        Some(Served {
            queued_at: queued.start_us,
            queue_us: queued.duration_us(),
            stages_us: self.stages_of_batch.get(&batch).copied().unwrap_or(0),
            computed_at: computed.end_us,
        })
    }
}

/// The serve and pipeline-stage layer numbers of one traced phase.
#[derive(Debug)]
pub struct ServeLayer {
    pub queue_wait_p50_ms: f64,
    pub queue_wait_p99_ms: f64,
    pub compute_p50_ms: f64,
    pub batch_mean: f64,
    pub shed: u64,
    pub expired: u64,
    pub busy_share: f64,
    pub sense_p50_ms: f64,
    pub forward_p50_ms: f64,
    pub readout_mean_us: f64,
    /// Total `forward` and `batch` span time, ms.
    pub forward_total_ms: f64,
    pub batch_total_ms: f64,
    pub sense_total_ms: f64,
}

/// Requests queued and batches run, as `Server::metrics()` counts them
/// (its queue-latency and compute-latency histograms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegistryCounts {
    pub queued: u64,
    pub batches: u64,
}

impl RegistryCounts {
    /// Reads the counts of a server with nothing in flight. A worker
    /// updates the registry just after it answers a batch, so this waits
    /// (up to a second) until every admitted request has been counted.
    pub fn read(server: &Server) -> Self {
        let registry = server.metrics();
        let count = |name| {
            registry
                .histogram(name, "", HistogramOpts::nanos())
                .snapshot()
                .count
        };
        let started = Instant::now();
        loop {
            let counts = RegistryCounts {
                queued: count("snappix_server_queue_latency_seconds"),
                batches: count("snappix_server_compute_latency_seconds"),
            };
            if counts.queued >= server.stats().submitted
                || started.elapsed() > Duration::from_secs(1)
            {
                return counts;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

/// Reads the serve layer out of a traced phase of `wall` length that
/// began with the registry at `before`: the server's spans plus the
/// counters `Server::stats()` keeps. The requests and batches the
/// registry counted over the phase must equal the `queue_wait` and
/// `batch` spans; a disagreement fails the run.
pub fn serve_layer(
    spans: &Spans<'_>,
    server: &Server,
    before: RegistryCounts,
    wall: Duration,
    out: &mut Results,
) -> ServeLayer {
    let traced = RegistryCounts {
        queued: spans.by_name.get("queue_wait").map_or(0, Vec::len) as u64,
        batches: spans.by_name.get("batch").map_or(0, Vec::len) as u64,
    };
    let after = RegistryCounts::read(server);
    let counted = RegistryCounts {
        queued: after.queued - before.queued,
        batches: after.batches - before.batches,
    };
    if counted != traced {
        eprintln!(
            "Server::metrics() counted {counted:?} over the traced phase, the spans {traced:?}"
        );
        out.correct = false;
    }
    let stats = server.stats();
    let mut queue = spans.durations_ms("queue_wait");
    let mut batch = spans.durations_ms("batch");
    let mut sense = spans.durations_ms("sense");
    let mut forward = spans.durations_ms("forward");
    let readout = spans.durations_ms("readout");
    let clips: Vec<f64> = spans
        .by_name
        .get("batch")
        .map(|v| {
            v.iter()
                .filter_map(|r| r.arg("clips").and_then(|a| a.as_u64()))
                .map(|c| c as f64)
                .collect()
        })
        .unwrap_or_default();
    let total = |v: &[f64]| v.iter().sum::<f64>();
    ServeLayer {
        queue_wait_p50_ms: quantile(&mut queue, 0.5),
        queue_wait_p99_ms: quantile(&mut queue, 0.99),
        compute_p50_ms: median(&mut batch),
        batch_mean: crate::util::mean(&clips),
        shed: stats.rejected,
        expired: stats.expired,
        busy_share: total(&batch) / ms(wall),
        sense_p50_ms: median(&mut sense),
        forward_p50_ms: median(&mut forward),
        // Readout (an argmax) is mostly under the tracer's 1 µs tick, so
        // its mean over many spans resolves it where a median cannot.
        readout_mean_us: crate::util::mean(&readout) * 1e3,
        forward_total_ms: total(&forward),
        batch_total_ms: total(&batch),
        sense_total_ms: total(&sense),
    }
}

/// Maps `Instant`s onto a tracer's microsecond clock.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    at: Instant,
    at_us: u64,
}

impl Clock {
    pub fn new(tracer: &Tracer) -> Self {
        Clock {
            at: Instant::now(),
            at_us: tracer.now_us(),
        }
    }

    pub fn us(&self, t: Instant) -> u64 {
        if t >= self.at {
            self.at_us + (t - self.at).as_micros() as u64
        } else {
            self.at_us.saturating_sub((self.at - t).as_micros() as u64)
        }
    }
}

/// Writes the Chrome-trace export of a traced run, keeping the last
/// `keep` request traces and the background spans from their time on.
pub fn export_chrome(
    snapshot: &TraceSnapshot,
    workload: &str,
    keep: usize,
) -> std::io::Result<String> {
    let ids: Vec<u64> = snapshot.trace_ids().into_iter().rev().take(keep).collect();
    let kept: std::collections::HashSet<u64> = ids.iter().copied().collect();
    let since = snapshot
        .records
        .iter()
        .filter(|r| kept.contains(&r.trace_id))
        .map(|r| r.start_us)
        .min()
        .unwrap_or(0);
    let bounded = snapshot
        .filtered(|r| kept.contains(&r.trace_id) || (r.trace_id == 0 && r.start_us >= since));
    let dir = std::path::Path::new("snapbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, bounded.to_chrome_json())?;
    Ok(path.display().to_string())
}
