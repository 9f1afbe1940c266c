//! The fleet workloads: the paper's deployment, many sensor nodes
//! sharing one server. `FleetSim` replays a fleet of SSv2-like videos
//! (sliding windows of T frames, hop 4) with two drivers over a server
//! with one worker and greedy batches of up to 8.
//!
//! * `fleet_hw`: 64 nodes of 20-frame 16x16 videos (T=8) served by
//!   SnapPix-S behind the charge-domain `HardwareSensor` with a
//!   noiseless 8-bit readout. Capture (`sensor`) is most of the wall
//!   time.
//! * `fleet_vit`: 32 nodes of 28-frame 32x32 videos (T=16) served by
//!   SnapPix-B behind the algorithmic encoder, at one intra-op thread.
//!   The forward pass (`models`/`nn`/`autograd`/`tensor`) is most of
//!   each batch, and the sensor is bypassed.
//!
//! Two fleets alternate: the nominal one mixes node energy budgets as
//! `crates/bench/benches/fleet.rs` does, so the duty-cycle ladder sheds
//! and sleeps windows; the peak one runs every node on mains power, so
//! every window is inferred. Only these workloads run `fleet`, `stream`
//! and `energy`. Virtual time makes the window counts and the energy
//! exact; the latency of a sweep (every node's whole video) is its wall
//! time.

use crate::report::Results;
use crate::stack::{self, Clock, Geometry, RegistryCounts, Spans};
use crate::util::{median, ms, peak_rss_mib, quantile};
use snappix_fleet::prelude::*;
use snappix_serve::{BatchPolicy, Server};
use std::time::{Duration, Instant};

/// One fleet workload.
pub struct Spec {
    pub name: &'static str,
    geometry: fn() -> Geometry,
    /// Serve through the charge-domain sensor rather than the
    /// algorithmic encoder.
    hardware: bool,
    /// Nodes per sweep: enough that a sweep averages over the host's
    /// fast and slow stretches, few enough that a run holds over a
    /// hundred sweeps of each kind.
    nodes: usize,
    /// Frames per node video: four windows each.
    frames: usize,
    /// The worker's intra-op thread budget; `None` keeps the program's
    /// default (the machine's cores over the one worker).
    worker_threads: Option<usize>,
}

pub const FLEET_HW: Spec = Spec {
    name: "fleet_hw",
    geometry: Geometry::snappix_s16,
    hardware: true,
    nodes: 64,
    frames: 20,
    worker_threads: None,
};

pub const FLEET_VIT: Spec = Spec {
    name: "fleet_vit",
    geometry: Geometry::snappix_b32,
    hardware: false,
    nodes: 32,
    frames: 28,
    // On a 2-vCPU VM the default (two threads) made the SnapPix-B
    // forward slower, not faster (`tensor.par_speedup.b8` 0.61-0.94),
    // and host vCPU steal stalls a two-thread forward at every join:
    // sweeps spread twice as wide between runs. One thread leaves the
    // other vCPU to the fleet drivers.
    worker_threads: Some(1),
};

const HOP: usize = 4;
const DRIVERS: usize = 2;
const SETUPS: usize = 31;

/// The charge-domain sensor with a noiseless 8-bit readout.
fn hardware_recipe(geo: &Geometry) -> PipelineBuilder<HardwareSensor> {
    Pipeline::builder(geo.model())
        .with_hardware_sensor(ReadoutConfig::noiseless(8, geo.t as f32))
        .expect("sensor geometry")
}

fn serve<S: Sense + Clone + Send + 'static>(
    spec: &Spec,
    recipe: PipelineBuilder<S>,
    tracer: Tracer,
) -> Server
where
    snappix::Error: From<S::Error>,
{
    let mut builder = Server::builder(recipe)
        .with_workers(1)
        .with_batch_policy(BatchPolicy::greedy(8))
        .with_tracer(tracer);
    if let Some(threads) = spec.worker_threads {
        builder = builder.with_worker_threads(threads);
    }
    builder.build().expect("server assembly")
}

/// Builds the served stack and waits for its first answer.
fn build(spec: &Spec, geo: &Geometry, tracer: Tracer, warm: &Tensor) -> Server {
    let server = if spec.hardware {
        serve(spec, hardware_recipe(geo), tracer)
    } else {
        serve(spec, Pipeline::builder(geo.model()), tracer)
    };
    server.infer_clip(warm).expect("warm-up inference");
    server
}

/// Serial `Pipeline::infer_clip` answers from the served recipe.
fn references(spec: &Spec, geo: &Geometry, clips: &[Tensor]) -> Vec<Prediction> {
    if spec.hardware {
        stack::references(hardware_recipe(geo), clips)
    } else {
        stack::references(Pipeline::builder(geo.model()), clips)
    }
}

/// A node's energy personality. `mains` puts every node on unbounded
/// power; otherwise a quarter are mains-powered and the rest hold
/// reserves worth two inferences with strong, weak or no harvest.
fn node_config(geo: &Geometry, i: usize, mains: bool) -> NodeConfig {
    let cost = geo.edge_pj_per_inference();
    let budget = match (mains, i % 4) {
        (true, _) | (false, 0) => EnergyBudget::unbounded(),
        (false, 1) => EnergyBudget::new(cost * 2.0),
        (false, 2) => EnergyBudget::new(cost * 2.0).with_harvest(cost * 20.0),
        _ => EnergyBudget::new(cost * 2.0).with_harvest(cost * 4.0),
    };
    NodeConfig::new(geo.t, HOP)
        .with_fps(30.0)
        .with_budget(budget)
        .with_smoothing(Smoothing::Majority { k: 3 })
        .with_sleep_cost(cost * 0.01)
}

/// Registers one node per video.
fn fleet<'a>(
    server: &'a Server,
    geo: &Geometry,
    videos: &[Video],
    mains: bool,
    drivers: usize,
) -> FleetSim<'a> {
    let mut sim = FleetSim::new(server).with_drivers(drivers);
    for (i, video) in videos.iter().enumerate() {
        sim.add_node(ReplaySource::new(video.clone()), node_config(geo, i, mains))
            .expect("valid node");
    }
    sim
}

/// Runs one fleet to completion.
fn sweep(
    server: &Server,
    geo: &Geometry,
    videos: &[Video],
    mains: bool,
    drivers: usize,
    tracer: Option<&Tracer>,
) -> FleetReport {
    let mut sim = fleet(server, geo, videos, mains, drivers);
    if let Some(t) = tracer {
        sim = sim.with_tracer(t.clone());
    }
    sim.run().expect("fleet run")
}

/// The counts a replay must reproduce exactly.
fn counts(s: &FleetStats) -> [u64; 5] {
    [s.windows, s.inferred, s.shed, s.slept, s.expired]
}

/// Checks one sweep against the one-driver reference: conserved ledgers
/// and identical counts. Expired windows fail; shed and slept windows
/// are the ladder's designed outcomes.
fn check(report: &FleetReport, reference: &FleetStats, out: &mut Results) {
    let s = &report.stats;
    let exact = report.check_conserved() && counts(s) == counts(reference);
    if !exact {
        out.correct = false;
    }
    out.count(s.windows, if exact { s.expired } else { s.windows });
}

pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Results {
    let geo = (spec.geometry)();
    let videos = geo.videos(seed, spec.nodes, spec.frames);
    let clips: Vec<Tensor> = videos
        .iter()
        .map(|v| v.frames().slice_axis(0, 0, geo.t).expect("first window"))
        .collect();
    let total = Duration::from_secs(seconds);
    let mut out = Results::new();
    if trace {
        traced(spec, &geo, seed, total, &videos, &clips, &mut out);
        return out;
    }

    // Set-up: the server up to its first answer, and the nominal fleet's
    // node registration.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let server = build(spec, &geo, Tracer::disabled(), &clips[0]);
        drop(fleet(&server, &geo, &videos, false, DRIVERS));
        setups.push(started.elapsed().as_secs_f64());
        kept = Some(server);
    }
    let server = kept.expect("at least one set-up");

    // The one-driver references first, so each timed sweep is checked as
    // soon as it ends and only its wall time is kept: the run's memory
    // stays flat however many sweeps it holds.
    let reference = sweep(&server, &geo, &videos, false, 1, None).stats;
    let reference_peak = sweep(&server, &geo, &videos, true, 1, None).stats;
    let (mut walls, mut walls_peak) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed() < total {
        let r = sweep(&server, &geo, &videos, false, DRIVERS, None);
        check(&r, &reference, &mut out);
        walls.push(ms(r.wall));
        let r = sweep(&server, &geo, &videos, true, DRIVERS, None);
        check(&r, &reference_peak, &mut out);
        walls_peak.push(ms(r.wall));
    }
    // Rates over all the sweeps' wall time together: every sweep of a
    // kind handles the same windows.
    let rate = |windows: u64, walls: &[f64]| {
        windows as f64 * walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3)
    };
    let stats = server.shutdown();
    if stats.check_conserved().is_err() {
        out.correct = false;
    }

    println!(
        "detail: {} nominal and {} peak sweeps of {} nodes; nominal {} inferred / {} shed / {} slept per sweep",
        walls.len(),
        walls_peak.len(),
        spec.nodes,
        reference.inferred,
        reference.shed,
        reference.slept
    );
    println!(
        "detail: sweep p95/p99 {:.3}/{:.3} ms nominal, {:.3}/{:.3} ms peak",
        quantile(&mut walls, 0.95),
        quantile(&mut walls, 0.99),
        quantile(&mut walls_peak, 0.95),
        quantile(&mut walls_peak, 0.99)
    );
    out.set("setup_s", median(&mut setups));
    // The tail is p90: bursts of host vCPU steal hit a few percent of
    // sweeps hard, which doubled the p99 of some runs while it moved
    // their p50 by 5%.
    out.set("p50_ms", quantile(&mut walls, 0.5));
    out.set("p90_ms", quantile(&mut walls, 0.9));
    out.set("p90_ms.peak", quantile(&mut walls_peak, 0.9));
    out.set("capacity_rps", rate(reference_peak.inferred, &walls_peak));
    out.set("windows_per_s", rate(reference.windows, &walls));
    out.set("ok_share", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("pj_per_inference", reference.energy_per_inference_pj());
    out.set("peak_rss_mib", peak_rss_mib());
    out
}

/// The fleet, stream and energy layer numbers of a traced fleet run.
#[derive(Debug)]
struct FleetLayer {
    self_ms: f64,
    mean_batch: f64,
    /// The one-driver reference replay's exact counts and energy.
    stats: FleetStats,
}

impl FleetLayer {
    fn record(&self, out: &mut Results) {
        let s = &self.stats;
        out.set("fleet.self_ms", self.self_ms);
        out.set("fleet.mean_batch", self.mean_batch);
        out.set("fleet.inferred", s.inferred as f64);
        out.set("fleet.shed", s.shed as f64);
        out.set("fleet.slept", s.slept as f64);
        out.set("stream.windows", s.windows as f64);
        out.set("energy.pj_per_window", s.spent_pj / s.windows.max(1) as f64);
    }
}

/// What a run of traced sweeps yields: each sweep's report, its
/// `fleet.self_ms` (wall time minus the serve layer's `batch` spans
/// inside the sweep) and its mean batch, and every span recorded; and
/// the reports of the untraced sweeps run between them.
struct TracedSweeps {
    reports: Vec<FleetReport>,
    untraced: Vec<FleetReport>,
    self_ms: Vec<f64>,
    batch_means: Vec<f64>,
    snapshot: TraceSnapshot,
}

/// Runs nominal sweeps until `budget` has passed (at least one each),
/// alternating an untraced one over `plain` with a traced one over
/// `server`, so drift over the run touches both alike.
fn traced_sweeps(
    plain: &Server,
    server: &Server,
    geo: &Geometry,
    videos: &[Video],
    tracer: &Tracer,
    budget: Duration,
) -> TracedSweeps {
    let clock = Clock::new(tracer);
    let (mut reports, mut intervals, mut batch_means) = (Vec::new(), Vec::new(), Vec::new());
    let (mut records, mut dropped, mut untraced) = (Vec::new(), 0, Vec::new());
    let started = Instant::now();
    while reports.is_empty() || started.elapsed() < budget {
        untraced.push(sweep(plain, geo, videos, false, DRIVERS, None));
        let before = server.stats();
        let from = clock.us(Instant::now());
        let report = {
            let _span = tracer.span("fleet.sweep");
            sweep(server, geo, videos, false, DRIVERS, Some(tracer))
        };
        intervals.push((from, clock.us(Instant::now())));
        let after = server.stats();
        let batches = (after.batches - before.batches).max(1);
        batch_means.push((after.completed - before.completed) as f64 / batches as f64);
        reports.push(report);
        // `FleetSim::run` snapshots the shared tracer to rebuild its
        // event log, so spans kept from earlier sweeps would make each
        // traced sweep slower than the last: drain them after each one.
        let swept = tracer.snapshot();
        dropped += swept.dropped;
        records.extend(swept.records);
        tracer.clear();
    }
    records.sort_by_key(|r| (r.start_us, r.lane, r.span_id));
    let snapshot = TraceSnapshot {
        records,
        dropped,
        lanes: tracer.snapshot().lanes,
    };
    let batches: Vec<_> = snapshot
        .records
        .iter()
        .filter(|r| r.name == "batch")
        .collect();
    let self_ms = reports
        .iter()
        .zip(&intervals)
        .map(|(report, &(from, to))| {
            let busy_us: u64 = batches
                .iter()
                .filter(|r| r.start_us >= from && r.end_us <= to)
                .map(|r| r.duration_us())
                .sum();
            ms(report.wall) - busy_us as f64 / 1e3
        })
        .collect();
    TracedSweeps {
        reports,
        untraced,
        self_ms,
        batch_means,
        snapshot,
    }
}

fn traced(
    spec: &Spec,
    geo: &Geometry,
    seed: u64,
    total: Duration,
    videos: &[Video],
    clips: &[Tensor],
    out: &mut Results,
) {
    let plain = build(spec, geo, Tracer::disabled(), &clips[0]);
    let reference = sweep(&plain, geo, videos, false, 1, None).stats;
    let tracer = Tracer::builder().ring_capacity(1 << 20).build();
    let server = build(spec, geo, tracer.clone(), &clips[0]);
    tracer.clear();
    let before = RegistryCounts::read(&server);
    let TracedSweeps {
        reports,
        untraced,
        mut self_ms,
        batch_means: mut batch,
        snapshot,
    } = traced_sweeps(&plain, &server, geo, videos, &tracer, total / 2);
    drop(plain);
    for r in reports.iter().chain(&untraced) {
        check(r, &reference, out);
    }
    // The traced server idles while the untraced one sweeps, so its busy
    // share is over the traced sweeps' own wall time.
    let wall = reports.iter().map(|r| r.wall).sum();
    let spans = Spans::new(&snapshot.records);
    let serve = stack::serve_layer(&spans, &server, before, wall, out);
    match stack::export_chrome(&snapshot, spec.name, 200) {
        Ok(path) => println!("trace: {path}"),
        Err(e) => eprintln!("trace export failed: {e}"),
    }
    // Per window request: its queue wait and the pipeline stages of its
    // batch, summed against its time in the server (admission to the
    // end of `compute`). The claim and the batch assembly are what no
    // span covers. The node's side (submit and collect) runs inside
    // `FleetSim::run`, where the benchmark has no call to wrap.
    let mut residual: Vec<f64> = spans
        .by_name
        .get("queue_wait")
        .map(|queued| {
            queued
                .iter()
                .filter_map(|q| spans.served(q.trace_id))
                .map(|s| {
                    let e2e = s.computed_at.saturating_sub(s.queued_at) as f64;
                    (e2e - (s.queue_us + s.stages_us) as f64) / e2e.max(1.0)
                })
                .collect()
        })
        .unwrap_or_default();
    let sweep_ms: f64 = reports.iter().map(|r| ms(r.wall)).sum();
    let mut traced_walls: Vec<f64> = reports.iter().map(|r| ms(r.wall)).collect();
    let mut untraced: Vec<f64> = untraced.iter().map(|r| ms(r.wall)).collect();
    let refs = references(spec, geo, clips);
    let bodies = crate::wire::bodies(clips);
    let gateway = crate::gateway::replay(server, seed, total / 8, &bodies, &refs, out);
    let layers = stack::replay_layers(geo, clips, &tracer, total / 5);

    out.set("loadgen.lag_p99_ms", gateway.lag_p99_ms);
    out.set("loadgen.sent", gateway.sent as f64);
    gateway.record(out);
    out.set("serve.submit_us.p99", gateway.admit_p99_us);
    crate::record_serve(out, &serve);
    crate::record_layers(out, &layers);
    FleetLayer {
        self_ms: median(&mut self_ms),
        mean_batch: median(&mut batch),
        stats: reference,
    }
    .record(out);
    out.set(
        "trace.overhead_ratio",
        median(&mut traced_walls) / median(&mut untraced),
    );
    let residual = median(&mut residual);
    crate::report::check_residual(out, &format!("{} window requests", spec.name), residual);
    out.set("trace.residual_share", residual);
    // The share of the layer the workload stresses: capture over sweep
    // wall time, or the forward pass over batch time.
    let stress = if spec.hardware {
        serve.sense_total_ms / sweep_ms
    } else {
        serve.forward_total_ms / serve.batch_total_ms.max(1e-9)
    };
    out.set("design.stress_share", stress);
}
