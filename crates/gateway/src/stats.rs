//! Gateway telemetry: connection/request/byte counters and per-endpoint
//! latency histograms, snapshotted as [`GatewayStats`].
//!
//! Like the serving layer, every number lives in a
//! [`snappix_metrics::Registry`] — the gateway registers its
//! `snappix_gateway_*` families into the *same* registry the fronted
//! server records into, so one render produces the whole `/metrics`
//! page. Per-endpoint wire latency is a log-linear histogram (every
//! request since start is counted; percentiles carry bounded relative
//! error and trace-id exemplars), and [`GatewayStats`] is derived from
//! the registry cells, so the struct and the page always agree.

use snappix_metrics::{Counter, Gauge, Histogram, HistogramOpts, Registry};
use snappix_serve::LatencySummary;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The gateway's routable endpoints, used as the `endpoint` label on
/// every request metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// `POST /v1/classify` — binary clip in, prediction out.
    Classify,
    /// `GET /health` — liveness probe.
    Health,
    /// `GET /stats` — human-readable telemetry dump.
    Stats,
    /// `GET /metrics` — Prometheus text exposition.
    Metrics,
    /// `GET /debug/trace` — recent request traces as Chrome trace-event
    /// JSON.
    Trace,
    /// Anything else: unknown paths, wrong methods, unparseable
    /// requests.
    Other,
}

impl Endpoint {
    /// Every routable endpoint, in label order — the latency histogram
    /// for each is registered up front so the `/metrics` page's family
    /// shape does not depend on which endpoints have served traffic.
    pub const ALL: [Endpoint; 6] = [
        Endpoint::Classify,
        Endpoint::Health,
        Endpoint::Stats,
        Endpoint::Metrics,
        Endpoint::Trace,
        Endpoint::Other,
    ];

    /// The `endpoint` label value.
    pub fn as_str(self) -> &'static str {
        match self {
            Endpoint::Classify => "classify",
            Endpoint::Health => "health",
            Endpoint::Stats => "stats",
            Endpoint::Metrics => "metrics",
            Endpoint::Trace => "trace",
            Endpoint::Other => "other",
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How many requests one `(endpoint, status)` pair has answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestCount {
    /// Which endpoint answered.
    pub endpoint: Endpoint,
    /// The HTTP status it answered with.
    pub status: u16,
    /// All-time count.
    pub count: u64,
}

/// Latency of one endpoint's answered requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndpointLatency {
    /// Which endpoint.
    pub endpoint: Endpoint,
    /// All-time percentiles derived from the endpoint's latency
    /// histogram (same semantics as the serving layer's summaries:
    /// exact count/total/max, bounded-error percentiles).
    pub summary: LatencySummary,
}

/// A point-in-time snapshot of a [`Gateway`](crate::Gateway)'s
/// telemetry, from [`Gateway::stats`](crate::Gateway::stats).
///
/// Request latency here is *wire latency* — from the last header byte
/// parsed to the response flushed — so for classify it wraps the whole
/// serve-side queue + batch + compute round trip plus body decode and
/// response encode.
///
/// With a [disabled](snappix_metrics::Registry::disabled) metrics
/// registry on the fronted server every field is zero; serving
/// behaviour on the wire is bit-for-bit identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayStats {
    /// TCP connections accepted (all-time).
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: usize,
    /// Connections turned away at the `max_connections` cap.
    pub connections_rejected: u64,
    /// Requests answered, by `(endpoint, status)`, in ascending order.
    pub requests: Vec<RequestCount>,
    /// Classify requests shed by the per-client rate limiter (each also
    /// counts as a `(classify, 429)` request).
    pub rate_limited: u64,
    /// Request bytes read off the wire (heads + bodies).
    pub bytes_read: u64,
    /// Response bytes written to the wire.
    pub bytes_written: u64,
    /// Per-endpoint request latency, ascending by endpoint; endpoints
    /// that have answered nothing are omitted.
    pub latency: Vec<EndpointLatency>,
    /// Time since the gateway started listening.
    pub uptime: Duration,
}

impl GatewayStats {
    /// All requests answered, across endpoints and statuses.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(|r| r.count).sum()
    }

    /// Requests answered by `endpoint` (summed over statuses).
    pub fn requests_to(&self, endpoint: Endpoint) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.endpoint == endpoint)
            .map(|r| r.count)
            .sum()
    }

    /// Requests answered with `status` (summed over endpoints).
    pub fn requests_with_status(&self, status: u16) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.status == status)
            .map(|r| r.count)
            .sum()
    }
}

impl fmt::Display for GatewayStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests over {} connections in {:.2?} ({} active, {} rejected, {} rate-limited)",
            self.requests_total(),
            self.connections,
            self.uptime,
            self.active_connections,
            self.connections_rejected,
            self.rate_limited,
        )?;
        writeln!(
            f,
            "bytes: {} in, {} out",
            self.bytes_read, self.bytes_written
        )?;
        for r in &self.requests {
            writeln!(f, "  {} {}: {}", r.endpoint, r.status, r.count)?;
        }
        for (i, l) in self.latency.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "  {} latency: p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
                l.endpoint, l.summary.p50, l.summary.p95, l.summary.p99, l.summary.max,
            )?;
        }
        Ok(())
    }
}

/// The recorder connection handlers write into: registry handles for
/// every fixed family, plus a cache of `(endpoint, status)` counters
/// (registration is idempotent, but the cache keeps the hot path off
/// the registry lock).
#[derive(Debug)]
pub(crate) struct Recorder {
    started: Instant,
    registry: Registry,
    connections: Counter,
    active_connections: Gauge,
    connections_rejected: Counter,
    rate_limited: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
    requests: Mutex<BTreeMap<(Endpoint, u16), Counter>>,
    latency: Vec<(Endpoint, Histogram)>,
    uptime: Gauge,
}

impl Recorder {
    /// Registers the `snappix_gateway_*` families (plus
    /// `snappix_build_info`) on `registry` — typically the fronted
    /// server's, so one page carries both layers.
    pub fn new(registry: Registry) -> Self {
        let connections = registry.counter(
            "snappix_gateway_connections_total",
            "TCP connections accepted by the gateway.",
        );
        let active_connections = registry.gauge(
            "snappix_gateway_connections_active",
            "Connections currently open.",
        );
        let connections_rejected = registry.counter(
            "snappix_gateway_connections_rejected_total",
            "Connections turned away at the max_connections cap.",
        );
        let rate_limited = registry.counter(
            "snappix_gateway_rate_limited_total",
            "Classify requests shed by the per-client token bucket.",
        );
        let bytes_read = registry.counter(
            "snappix_gateway_bytes_read_total",
            "Request bytes read off the wire (heads plus bodies).",
        );
        let bytes_written = registry.counter(
            "snappix_gateway_bytes_written_total",
            "Response bytes written to the wire.",
        );
        let latency = Endpoint::ALL
            .into_iter()
            .map(|endpoint| {
                (
                    endpoint,
                    registry.histogram_with(
                        "snappix_gateway_request_latency_seconds",
                        "Wire latency per endpoint: last header byte parsed to \
                         response flushed.",
                        HistogramOpts::nanos().with_exemplars(),
                        &[("endpoint", endpoint.as_str())],
                    ),
                )
            })
            .collect();
        let uptime = registry.gauge(
            "snappix_gateway_uptime_seconds",
            "Seconds since the gateway started listening.",
        );
        registry
            .gauge_with(
                "snappix_build_info",
                "Build metadata of the serving stack; the value is always 1.",
                &[("version", env!("CARGO_PKG_VERSION"))],
            )
            .set(1.0);
        Recorder {
            started: Instant::now(),
            registry,
            connections,
            active_connections,
            connections_rejected,
            rate_limited,
            bytes_read,
            bytes_written,
            requests: Mutex::new(BTreeMap::new()),
            latency,
            uptime,
        }
    }

    /// The registry the gateway's families live in (shared with the
    /// fronted server).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<(Endpoint, u16), Counter>> {
        self.requests.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub fn record_connection(&self) {
        self.connections.inc();
        self.active_connections.add(1.0);
    }

    pub fn record_disconnect(&self) {
        self.active_connections.add(-1.0);
    }

    pub fn record_connection_rejected(&self) {
        self.connections_rejected.inc();
    }

    pub fn record_rate_limited(&self) {
        self.rate_limited.inc();
    }

    /// One answered request: who answered, with what status, the bytes
    /// both ways, the wire latency, and the trace id carried on the
    /// response (0 when untraced) — attached to the latency histogram
    /// as an exemplar.
    pub fn record_request(
        &self,
        endpoint: Endpoint,
        status: u16,
        bytes_read: u64,
        bytes_written: u64,
        latency: Duration,
        trace_id: u64,
    ) {
        {
            let mut requests = self.lock();
            requests
                .entry((endpoint, status))
                .or_insert_with(|| {
                    self.registry.counter_with(
                        "snappix_gateway_requests_total",
                        "Requests answered, by endpoint and HTTP status.",
                        &[
                            ("endpoint", endpoint.as_str()),
                            ("status", &status.to_string()),
                        ],
                    )
                })
                .inc();
        }
        self.bytes_read.add(bytes_read);
        self.bytes_written.add(bytes_written);
        if let Some((_, hist)) = self.latency.iter().find(|(e, _)| *e == endpoint) {
            hist.record_with_trace(latency.as_nanos() as u64, trace_id);
        }
    }

    pub fn snapshot(&self) -> GatewayStats {
        let requests: Vec<RequestCount> = self
            .lock()
            .iter()
            .map(|(&(endpoint, status), counter)| RequestCount {
                endpoint,
                status,
                count: counter.get(),
            })
            .collect();
        let latency: Vec<EndpointLatency> = self
            .latency
            .iter()
            .filter_map(|(endpoint, hist)| {
                let snap = hist.snapshot();
                (snap.count > 0).then(|| EndpointLatency {
                    endpoint: *endpoint,
                    summary: LatencySummary::from_histogram(&snap),
                })
            })
            .collect();
        let mut by_endpoint = latency;
        by_endpoint.sort_by_key(|l| l.endpoint);
        let uptime = self.started.elapsed();
        self.uptime.set(uptime.as_secs_f64());
        GatewayStats {
            connections: self.connections.get(),
            active_connections: self.active_connections.get().max(0.0) as usize,
            connections_rejected: self.connections_rejected.get(),
            requests,
            rate_limited: self.rate_limited.get(),
            bytes_read: self.bytes_read.get(),
            bytes_written: self.bytes_written.get(),
            latency: by_endpoint,
            uptime,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots_every_counter() {
        let r = Recorder::new(Registry::new());
        r.record_connection();
        r.record_connection();
        r.record_disconnect();
        r.record_connection_rejected();
        r.record_rate_limited();
        let ms = Duration::from_millis;
        r.record_request(Endpoint::Classify, 200, 4096, 120, ms(3), 0xbeef);
        r.record_request(Endpoint::Classify, 200, 4096, 120, ms(5), 0);
        r.record_request(
            Endpoint::Classify,
            429,
            64,
            40,
            Duration::from_micros(20),
            0,
        );
        r.record_request(Endpoint::Health, 200, 30, 50, Duration::from_micros(10), 0);
        let s = r.snapshot();
        assert_eq!(s.connections, 2);
        assert_eq!(s.active_connections, 1);
        assert_eq!(s.connections_rejected, 1);
        assert_eq!(s.rate_limited, 1);
        assert_eq!(s.bytes_read, 4096 + 4096 + 64 + 30);
        assert_eq!(s.bytes_written, 120 + 120 + 40 + 50);
        assert_eq!(s.requests_total(), 4);
        assert_eq!(s.requests_to(Endpoint::Classify), 3);
        assert_eq!(s.requests_with_status(200), 3);
        assert_eq!(s.requests_with_status(429), 1);
        let classify = s
            .latency
            .iter()
            .find(|l| l.endpoint == Endpoint::Classify)
            .expect("classify latency tracked");
        assert_eq!(classify.summary.samples, 3);
        assert_eq!(classify.summary.max, ms(5));
        assert_eq!(classify.summary.total, ms(8) + Duration::from_micros(20));
        assert!(s.latency.iter().all(|l| l.endpoint != Endpoint::Metrics));

        let text = s.to_string();
        assert!(text.contains("classify 200: 2"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("1 rate-limited"), "{text}");

        // The same numbers render straight off the shared registry,
        // including the trace exemplar on the classify histogram.
        let page = r.registry().render_openmetrics();
        for needle in [
            "snappix_gateway_connections_total 2\n",
            "snappix_gateway_connections_active 1\n",
            "snappix_gateway_requests_total{endpoint=\"classify\",status=\"200\"} 2\n",
            "snappix_gateway_requests_total{endpoint=\"classify\",status=\"429\"} 1\n",
            "snappix_gateway_request_latency_seconds_count{endpoint=\"classify\"} 3\n",
            "snappix_build_info{version=\"",
            "trace_id=\"48879\"", // 0xbeef, on a classify bucket
        ] {
            assert!(page.contains(needle), "missing {needle:?} in:\n{page}");
        }
    }

    #[test]
    fn endpoint_labels_are_stable() {
        let all = [
            (Endpoint::Classify, "classify"),
            (Endpoint::Health, "health"),
            (Endpoint::Stats, "stats"),
            (Endpoint::Metrics, "metrics"),
            (Endpoint::Trace, "trace"),
            (Endpoint::Other, "other"),
        ];
        assert_eq!(Endpoint::ALL.len(), all.len());
        for (endpoint, label) in all {
            assert_eq!(endpoint.as_str(), label);
            assert_eq!(endpoint.to_string(), label);
        }
    }

    #[test]
    fn disabled_registry_reads_all_zero() {
        let r = Recorder::new(Registry::disabled());
        r.record_connection();
        r.record_request(Endpoint::Health, 200, 10, 10, Duration::from_micros(5), 0);
        let s = r.snapshot();
        assert_eq!(s.connections, 0);
        assert_eq!(s.requests.len(), 1, "the cache still tracks keys");
        assert_eq!(s.requests_total(), 0, "but the cells record nothing");
        assert!(s.latency.is_empty());
        assert_eq!(r.registry().render(), "");
    }
}
