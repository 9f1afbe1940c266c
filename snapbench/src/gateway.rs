//! The gateway replay every traced run makes: open-loop Poisson
//! `POST /v1/classify` (one request in three carrying
//! `X-Snappix-Deadline-Ms`) and `GET /metrics` scrapes over one
//! keep-alive loopback connection to a `Gateway` fronting the workload's
//! own server, at a low fixed rate. It measures the `gateway` and
//! `metrics` layers, which no workload of `BENCHMARK.json` puts on its
//! end-to-end path, and checks every answer through its JSON body.

use crate::loadgen::{self, Kind, Mix};
use crate::report::{self, Results};
use crate::stack::{Clock, Spans};
use crate::util::{median, ms, quantile};
use crate::wire::{self, Exchange};
use snappix::prelude::*;
use snappix_gateway::Gateway;
use snappix_serve::Server;
use std::time::{Duration, Instant};

/// Counts failures among `exchanges` into `out`: non-2xx, unanswered,
/// and classify answers that differ from the serial reference.
fn check(exchanges: &[Exchange], refs: &[Prediction], out: &mut Results) {
    let mut bad = 0;
    for ex in exchanges {
        let ok = ex.recv.is_some()
            && ex.status == 200
            && (ex.kind == Kind::Scrape || wire::answer_matches(&ex.body, &refs[ex.clip]));
        if !ok {
            bad += 1;
            if ex.status == 200 {
                out.correct = false;
            }
        }
    }
    out.count(exchanges.len() as u64, bad);
}

fn loadgen_lags(exchanges: &[Exchange]) -> Vec<f64> {
    exchanges.iter().map(|e| ms(e.sent - e.due)).collect()
}

/// The gateway layer's numbers for one traced open-loop phase.
#[derive(Debug)]
pub struct GatewayLayer {
    pub rtt_p50_ms: f64,
    pub rtt_p99_ms: f64,
    pub self_p50_ms: f64,
    pub non2xx: u64,
    pub scrape_p50_ms: f64,
    pub scrape_bytes: f64,
    pub lag_p99_ms: f64,
    pub sent: u64,
    /// p99 of admission into the serve layer behind the gateway, µs.
    pub admit_p99_us: f64,
    /// Median share of a classify request's due-time latency that no
    /// span accounts for.
    pub residual_share: f64,
}

/// Reads the gateway layer from `exchanges` and the traced server's
/// spans. Records a `client.request` span per exchange (the
/// benchmark's own span around its call into the gateway), then joins
/// the gateway's `request` span and the serve layer's spans on the
/// trace ids the benchmark set.
fn gateway_layer(exchanges: &[Exchange], tracer: &Tracer, clock: &Clock) -> GatewayLayer {
    for ex in exchanges {
        if let Some(recv) = ex.recv {
            let name = if ex.kind == Kind::Scrape {
                "client.scrape"
            } else {
                "client.request"
            };
            tracer.record_span(
                name,
                ex.trace_id,
                0,
                clock.us(ex.sent),
                clock.us(recv),
                Vec::new(),
            );
        }
    }
    let snapshot = tracer.snapshot();
    let spans = Spans::new(&snapshot.records);
    let (mut self_ms, mut residual) = (Vec::new(), Vec::new());
    for ex in exchanges
        .iter()
        .filter(|e| e.kind == Kind::Classify && e.status == 200)
    {
        let (Some(recv), Some(req), Some((serve_start, serve_end))) = (
            ex.recv,
            spans.find(ex.trace_id, "request"),
            spans.serve_interval(ex.trace_id),
        ) else {
            continue;
        };
        let serve_us = serve_end
            .min(req.end_us)
            .saturating_sub(serve_start.max(req.start_us));
        let self_us = req.duration_us().saturating_sub(serve_us);
        self_ms.push(self_us as f64 / 1e3);
        let sent = clock.us(ex.sent);
        let due = clock.us(ex.due);
        let e2e = clock.us(recv).saturating_sub(due) as f64;
        // Waiting on the connection behind earlier requests, then
        // parsing (a parse span that opened before the send also holds
        // the connection's idle time, which is not this request's).
        let (hol, parse) = match spans.find(ex.trace_id, "parse") {
            Some(p) => (
                p.start_us.saturating_sub(sent),
                p.end_us.saturating_sub(p.start_us.max(sent)),
            ),
            None => (0, 0),
        };
        let respond = spans
            .find(ex.trace_id, "respond")
            .map_or(0, |r| r.duration_us());
        let lag = sent.saturating_sub(due);
        let gateway_us = hol + parse + self_us + respond;
        let attributed = (lag + gateway_us + serve_us) as f64;
        residual.push((e2e - attributed) / e2e.max(1.0));
    }
    let mut rtt = spans.durations_ms("client.request");
    let mut scrape = spans.durations_ms("client.scrape");
    let mut scrape_bytes: Vec<f64> = exchanges
        .iter()
        .filter(|e| e.kind == Kind::Scrape && e.status == 200)
        .map(|e| e.body_len as f64)
        .collect();
    let mut lags = loadgen_lags(exchanges);
    GatewayLayer {
        rtt_p50_ms: quantile(&mut rtt, 0.5),
        rtt_p99_ms: quantile(&mut rtt, 0.99),
        self_p50_ms: median(&mut self_ms),
        non2xx: exchanges
            .iter()
            .filter(|e| !(200..300).contains(&e.status))
            .count() as u64,
        scrape_p50_ms: median(&mut scrape),
        scrape_bytes: median(&mut scrape_bytes),
        lag_p99_ms: quantile(&mut lags, 0.99),
        sent: exchanges.len() as u64,
        admit_p99_us: admit_p99_us(&spans),
        residual_share: median(&mut residual),
    }
}

/// The gateway's own count of non-2xx answers (`Gateway::stats()`)
/// must equal what the client saw; a disagreement fails the run.
fn agree_on_statuses(layer: &GatewayLayer, gateway: &Gateway, out: &mut Results) {
    let served: u64 = gateway
        .stats()
        .requests
        .iter()
        .filter(|r| !(200..300).contains(&r.status))
        .map(|r| r.count)
        .sum();
    if served != layer.non2xx {
        eprintln!(
            "gateway counted {served} non-2xx answers, the client saw {}",
            layer.non2xx
        );
        out.correct = false;
    }
}

impl GatewayLayer {
    pub fn record(&self, out: &mut Results) {
        out.set("gateway.rtt_ms.p50", self.rtt_p50_ms);
        out.set("gateway.rtt_ms.p99", self.rtt_p99_ms);
        out.set("gateway.self_ms.p50", self.self_p50_ms);
        out.set("gateway.non2xx", self.non2xx as f64);
        out.set("metrics.scrape_ms.p50", self.scrape_p50_ms);
        out.set("metrics.scrape_bytes", self.scrape_bytes);
    }
}

/// Rate of the replay: well below what one connection with one request
/// in flight sustains on either model.
const REPLAY_RPS: f64 = 100.0;

/// Fronts `server` with a gateway and replays `bodies` through it open
/// loop at a low rate over one connection for `span`, checking every
/// answer and the layer additivity of every classify request.
pub fn replay(
    server: Server,
    seed: u64,
    span: Duration,
    bodies: &[Vec<u8>],
    refs: &[Prediction],
    out: &mut Results,
) -> GatewayLayer {
    let tracer = server.tracer().clone();
    let gateway = Gateway::builder(server).bind().expect("loopback bind");
    let mix = Mix {
        scrape_share: 0.05,
        deadline_share: 1.0 / 3.0,
        clips: bodies.len(),
    };
    let arrivals = loadgen::poisson(seed, REPLAY_RPS, span, mix);
    let clock = Clock::new(&tracer);
    let start = Instant::now() + Duration::from_millis(20);
    let exchanges = wire::open_loop(
        gateway.local_addr(),
        start,
        &arrivals,
        bodies,
        wire::TRACE_BASE * 2,
    )
    .expect("loopback connection");
    check(&exchanges, refs, out);
    let layer = gateway_layer(&exchanges, &tracer, &clock);
    agree_on_statuses(&layer, &gateway, out);
    report::check_residual(out, "gateway replay", layer.residual_share);
    let (_, stats) = gateway.shutdown();
    if stats.check_conserved().is_err() {
        out.correct = false;
    }
    layer
}

/// p99 of admission into the serve layer behind the gateway, µs: from
/// the gateway's `request` span opening to the request's `queue_wait`
/// span opening (body decode plus `Server::try_submit`, which the
/// gateway calls and the benchmark cannot wrap).
fn admit_p99_us(spans: &Spans<'_>) -> f64 {
    let mut gaps: Vec<f64> = spans
        .by_name
        .get("queue_wait")
        .map(|v| {
            v.iter()
                .filter_map(|q| {
                    let req = spans.find(q.trace_id, "request")?;
                    Some(q.start_us.saturating_sub(req.start_us) as f64)
                })
                .collect()
        })
        .unwrap_or_default();
    quantile(&mut gaps, 0.99)
}
