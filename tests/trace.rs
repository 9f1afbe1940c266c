//! Cross-layer tracing suite: a real gateway serves classify requests
//! with a live [`Tracer`], and `GET /debug/trace` must come back as
//! Chrome trace-event JSON whose span tree is *structurally* sound —
//! every parent resolves, no cycles, timestamps monotonic, the batch
//! span shared by its member requests. The JSON is validated with a
//! from-scratch parser (no serde in the workspace), so both directions
//! of the exporter's contract live in the repo. Tracing must also be
//! observationally free: logits served with tracing on and off are
//! bit-for-bit identical.

use rand::{rngs::StdRng, SeedableRng};
use snappix_gateway::prelude::*;
use snappix_trace::ArgValue;
use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const T: usize = 4;
const HW: usize = 16;
const CLASSES: usize = 5;

fn model() -> SnapPixAr {
    let mask = patterns::long_exposure(T, (8, 8)).expect("valid mask");
    SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask).expect("valid model")
}

fn clip_bytes(clip: &Tensor) -> Vec<u8> {
    clip.as_slice()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

fn clips(n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(0x7ace);
    (0..n)
        .map(|_| Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0))
        .collect()
}

// ---------------------------------------------------------------------
// A from-scratch JSON parser — just enough of RFC 8259 to fully decode
// the exporter's output (objects, arrays, strings with every escape,
// numbers, literals), panicking on anything malformed so an invalid
// byte in the trace page fails the test with a position.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value();
    p.skip_ws();
    assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value");
    value
}

impl Parser<'_> {
    fn peek(&self) -> u8 {
        assert!(self.pos < self.bytes.len(), "unexpected end of JSON");
        self.bytes[self.pos]
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn expect(&mut self, b: u8) {
        let got = self.bump();
        assert_eq!(
            got as char,
            b as char,
            "expected {:?} at byte {}",
            b as char,
            self.pos - 1
        );
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Json::Str(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        for expected in word.bytes() {
            self.expect(expected);
        }
        value
    }

    fn object(&mut self) -> Json {
        self.expect(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == b'}' {
            self.bump();
            return Json::Obj(fields);
        }
        loop {
            self.skip_ws();
            let key = self.string();
            self.skip_ws();
            self.expect(b':');
            self.skip_ws();
            fields.push((key, self.value()));
            self.skip_ws();
            match self.bump() {
                b',' => continue,
                b'}' => return Json::Obj(fields),
                other => panic!("expected ',' or '}}' in object, got {:?}", other as char),
            }
        }
    }

    fn array(&mut self) -> Json {
        self.expect(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == b']' {
            self.bump();
            return Json::Arr(items);
        }
        loop {
            self.skip_ws();
            items.push(self.value());
            self.skip_ws();
            match self.bump() {
                b',' => continue,
                b']' => return Json::Arr(items),
                other => panic!("expected ',' or ']' in array, got {:?}", other as char),
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect(b'"');
        let mut out = String::new();
        loop {
            match self.bump() {
                b'"' => return out,
                b'\\' => match self.bump() {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let unit = self.hex4();
                        // Surrogate pairs: a high surrogate must be
                        // followed by an escaped low surrogate.
                        let scalar = if (0xd800..0xdc00).contains(&unit) {
                            self.expect(b'\\');
                            self.expect(b'u');
                            let low = self.hex4();
                            assert!(
                                (0xdc00..0xe000).contains(&low),
                                "unpaired high surrogate in JSON string"
                            );
                            0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00)
                        } else {
                            assert!(
                                !(0xdc00..0xe000).contains(&unit),
                                "unpaired low surrogate in JSON string"
                            );
                            unit
                        };
                        out.push(char::from_u32(scalar).expect("valid scalar"));
                    }
                    other => panic!("bad escape \\{:?}", other as char),
                },
                byte if byte < 0x20 => panic!("raw control byte {byte:#x} in JSON string"),
                byte => {
                    // Reassemble UTF-8 continuation bytes.
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        0xf0..=0xf7 => 4,
                        _ => panic!("invalid UTF-8 lead byte {byte:#x}"),
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("valid UTF-8"),
                    );
                }
            }
        }
    }

    fn hex4(&mut self) -> u32 {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = (self.bump() as char).to_digit(16).expect("hex digit");
            v = v * 16 + d;
        }
        v
    }

    fn number(&mut self) -> Json {
        let start = self.pos;
        if self.peek() == b'-' {
            self.bump();
        }
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'
            )
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        Json::Num(
            text.parse()
                .unwrap_or_else(|_| panic!("bad number {text:?}")),
        )
    }
}

// ---------------------------------------------------------------------
// Wire helpers (independent of the gateway's own HTTP code, like the
// gateway suite's client).
// ---------------------------------------------------------------------

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn text(&self) -> String {
        String::from_utf8(self.body.clone()).expect("utf-8 body")
    }
}

struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to gateway");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("socket timeout");
        Client {
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, method: &str, path: &str, headers: &[(&str, String)], body: &[u8]) -> Reply {
        let mut head = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if method == "POST" {
            head.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        head.push_str("\r\n");
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes()).expect("write head");
        stream.write_all(body).expect("write body");
        stream.flush().expect("flush");
        self.read_reply()
    }

    fn read_reply(&mut self) -> Reply {
        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .expect("read status line");
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .unwrap_or_else(|| panic!("malformed status line {status_line:?}"))
            .parse()
            .expect("numeric status");
        let mut headers = Vec::new();
        loop {
            let mut line = String::new();
            self.reader.read_line(&mut line).expect("read header line");
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').expect("header colon");
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().expect("numeric content-length"))
            .expect("content-length present");
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("read body");
        Reply {
            status,
            headers,
            body,
        }
    }
}

// ---------------------------------------------------------------------
// A decoded "X" (complete) trace event.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Span {
    name: String,
    ts: u64,
    dur: u64,
    trace_id: u64,
    span_id: u64,
    parent: u64,
    batch: Option<u64>,
}

/// Decode and structurally validate a Chrome trace document: the
/// envelope, per-event required fields, and file-order timestamp
/// monotonicity. Returns the complete events.
fn decode_trace(text: &str) -> Vec<Span> {
    let doc = parse_json(text);
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "Chrome trace envelope"
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let mut spans = Vec::new();
    let mut last_ts = 0u64;
    for event in events {
        let phase = event.get("ph").and_then(Json::as_str).expect("ph field");
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .expect("name field")
            .to_string();
        match phase {
            "M" => {
                assert_eq!(name, "thread_name", "only thread-name metadata is emitted");
                assert!(spans.is_empty(), "metadata precedes all events");
                event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name metadata names the lane");
            }
            "X" => {
                let args = event.get("args").expect("args object");
                let ts = event.get("ts").and_then(Json::as_u64).expect("ts");
                // Snapshots are ordered by start time: the exported
                // file must be monotonic so viewers never re-sort.
                assert!(ts >= last_ts, "timestamps regress in file order");
                last_ts = ts;
                spans.push(Span {
                    name,
                    ts,
                    dur: event.get("dur").and_then(Json::as_u64).expect("dur"),
                    trace_id: args
                        .get("trace_id")
                        .and_then(Json::as_u64)
                        .expect("trace_id"),
                    span_id: args.get("span_id").and_then(Json::as_u64).expect("span_id"),
                    parent: args.get("parent").and_then(Json::as_u64).expect("parent"),
                    batch: args.get("batch").and_then(Json::as_u64),
                });
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    spans
}

/// Every nonzero parent resolves to a span in the document, and parent
/// chains terminate (no cycles).
fn assert_tree_is_sound(spans: &[Span]) {
    let mut by_id = BTreeMap::new();
    for span in spans {
        assert!(
            by_id.insert(span.span_id, span).is_none(),
            "span id {} appears twice",
            span.span_id
        );
    }
    for span in spans {
        let mut visited = HashSet::new();
        let mut cursor = span;
        while cursor.parent != 0 {
            assert!(
                visited.insert(cursor.span_id),
                "cycle through span {} ({})",
                cursor.span_id,
                cursor.name
            );
            cursor = by_id.get(&cursor.parent).unwrap_or_else(|| {
                panic!(
                    "span {} ({}) has unresolved parent {}",
                    span.span_id, span.name, cursor.parent
                )
            });
        }
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

/// Everything the exporter can emit — names and string args with
/// quotes, backslashes, and control characters — survives a round trip
/// through the from-scratch parser.
#[test]
fn exporter_escaping_round_trips_through_the_parser() {
    let tracer = Tracer::builder()
        .with_clock({
            let tick = std::sync::atomic::AtomicU64::new(0);
            move || tick.fetch_add(10, std::sync::atomic::Ordering::Relaxed)
        })
        .build();
    let nasty = "a\"b\\c\nd\te\rf\u{1}g\u{7f}∞";
    tracer.record_span(
        "we\"ird\nname",
        7,
        0,
        0,
        100,
        vec![
            ("label", ArgValue::Str(nasty.to_string())),
            ("n", 3u64.into()),
        ],
    );

    let json = tracer.snapshot().to_chrome_json();
    let doc = parse_json(&json);
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let span = events
        .iter()
        .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .expect("one complete event");
    assert_eq!(
        span.get("name").and_then(Json::as_str),
        Some("we\"ird\nname"),
        "span names survive escaping"
    );
    assert_eq!(
        span.get("args")
            .and_then(|a| a.get("label"))
            .and_then(Json::as_str),
        Some(nasty),
        "string args survive escaping"
    );
    assert_eq!(
        span.get("args")
            .and_then(|a| a.get("n"))
            .and_then(Json::as_u64),
        Some(3)
    );
}

/// The headline end-to-end check: concurrent classify requests through
/// a real gateway produce a Chrome trace whose span tree covers the
/// whole stack — `accept`/`parse` → `request` → `queue_wait` → `batch`
/// (with `sense`/`forward`/`readout` nested) → `compute` → `respond` —
/// with the batch span genuinely shared by its member requests, and the
/// caller-chosen `X-Snappix-Trace` id adopted and echoed.
#[test]
fn gateway_served_trace_has_a_sound_cross_layer_span_tree() {
    const CLIENTS: usize = 4;
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_queue_depth(CLIENTS)
        // A long batch window so the barrier-released burst lands in
        // one batch: the shared-batch-span assertion depends on it.
        .with_batch_policy(BatchPolicy::new(CLIENTS, Duration::from_millis(500)))
        .with_tracer(Tracer::new())
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let all = clips(CLIENTS);

    let barrier = Barrier::new(CLIENTS);
    let echoed: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (all, barrier) = (&all, &barrier);
                scope.spawn(move || {
                    let mut connection = Client::connect(addr);
                    barrier.wait();
                    // Client 0 picks its own trace id; the rest let the
                    // gateway mint one.
                    let headers: Vec<(&str, String)> = if client == 0 {
                        vec![("x-snappix-trace", "777".to_string())]
                    } else {
                        Vec::new()
                    };
                    let reply = connection.send(
                        "POST",
                        "/v1/classify",
                        &headers,
                        &clip_bytes(&all[client]),
                    );
                    assert_eq!(reply.status, 200, "client {client}: {}", reply.text());
                    reply
                        .header("x-snappix-trace")
                        .expect("trace id echoed on the response")
                        .parse::<u64>()
                        .expect("numeric trace id")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(echoed[0], 777, "caller-chosen trace id is adopted");
    let distinct: HashSet<u64> = echoed.iter().copied().collect();
    assert_eq!(distinct.len(), CLIENTS, "minted trace ids are distinct");
    assert!(!distinct.contains(&0), "echoed ids are nonzero");

    // `respond` spans are recorded *after* the response bytes reach the
    // client, so poll until the page contains all of them.
    let deadline = Instant::now() + Duration::from_secs(10);
    let spans = loop {
        let reply = Client::connect(addr).send("GET", "/debug/trace", &[], &[]);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("content-type"), Some("application/json"));
        let spans = decode_trace(&reply.text());
        if spans.iter().filter(|s| s.name == "respond").count() >= CLIENTS {
            break spans;
        }
        assert!(
            Instant::now() < deadline,
            "respond spans never appeared in /debug/trace"
        );
        std::thread::sleep(Duration::from_millis(10));
    };

    assert_tree_is_sound(&spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.span_id, s)).collect();

    // Per-request spans, one of each per client, all inside the trace
    // the client saw echoed.
    for &trace_id in &echoed {
        let mine: Vec<&Span> = spans.iter().filter(|s| s.trace_id == trace_id).collect();
        let request = mine
            .iter()
            .find(|s| s.name == "request")
            .expect("request span");
        assert_eq!(request.parent, 0, "request is the trace root");
        for name in ["accept", "parse", "queue_wait", "compute", "respond"] {
            let span = mine
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("trace {trace_id} is missing a {name} span"));
            assert_eq!(
                span.parent, request.span_id,
                "{name} hangs off the request span"
            );
        }
        // The wire spans bracket the serving-side work.
        let queue_wait = mine.iter().find(|s| s.name == "queue_wait").expect("span");
        assert!(queue_wait.ts >= request.ts, "queue wait starts in-request");
    }

    // The batch span is background work shared by its members: every
    // compute span names its batch, and the barrier-released burst
    // landed at least one batch with multiple members.
    let computes: Vec<&Span> = spans.iter().filter(|s| s.name == "compute").collect();
    assert_eq!(computes.len(), CLIENTS);
    let mut members: BTreeMap<u64, usize> = BTreeMap::new();
    for compute in &computes {
        let batch_id = compute.batch.expect("compute names its batch span");
        let batch = by_id.get(&batch_id).expect("batch span resolves");
        assert_eq!(batch.name, "batch");
        assert_eq!(batch.trace_id, 0, "batches are background spans");
        // The shared forward pass brackets every member's compute span.
        assert!(compute.ts >= batch.ts);
        assert!(compute.ts + compute.dur <= batch.ts + batch.dur);
        *members.entry(batch_id).or_default() += 1;
    }
    assert!(
        members.values().any(|&n| n >= 2),
        "no batch span was shared by multiple requests: {members:?}"
    );

    // Pipeline stage spans nest inside their batch span.
    for name in ["sense", "forward", "readout"] {
        let stages: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        assert!(!stages.is_empty(), "no {name} span in the trace");
        for stage in stages {
            let parent = by_id.get(&stage.parent).expect("stage parent resolves");
            assert_eq!(parent.name, "batch", "{name} nests under the batch span");
            assert!(stage.ts >= parent.ts);
            assert!(stage.ts + stage.dur <= parent.ts + parent.dur);
        }
    }

    // One accept span per connection (first request only).
    assert_eq!(
        spans.iter().filter(|s| s.name == "accept").count(),
        CLIENTS,
        "one accept span per client connection"
    );

    let (_, server_stats) = gateway.shutdown();
    assert_eq!(server_stats.completed, CLIENTS as u64);
    server_stats.debug_assert_conserved();
}

/// Time a keep-alive client spends idle between requests is not
/// parsing: the connection loop waits for the next request's first byte
/// before it opens `parse`, so the second request's `parse` span covers
/// only reading and framing it, however long the client paused first.
#[test]
fn keep_alive_idle_time_stays_out_of_the_parse_span() {
    const IDLE: Duration = Duration::from_millis(150);
    const TRACE: u64 = 4242;
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .with_tracer(Tracer::new())
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let all = clips(2);

    let mut connection = Client::connect(addr);
    // Head and body go out as separate writes; without Nagle they leave
    // at once, so only the gateway's own work lands inside `parse`.
    connection
        .reader
        .get_ref()
        .set_nodelay(true)
        .expect("disable Nagle");
    let first = connection.send("POST", "/v1/classify", &[], &clip_bytes(&all[0]));
    assert_eq!(first.status, 200, "{}", first.text());
    std::thread::sleep(IDLE);
    let headers = [("x-snappix-trace", TRACE.to_string())];
    let second = connection.send("POST", "/v1/classify", &headers, &clip_bytes(&all[1]));
    assert_eq!(second.status, 200, "{}", second.text());
    assert_eq!(second.header("x-snappix-trace"), Some("4242"));

    // `respond` is recorded after the reply reaches the client; poll
    // until the second request's trace is complete.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mine: Vec<Span> = loop {
        let reply = Client::connect(addr).send("GET", "/debug/trace", &[], &[]);
        assert_eq!(reply.status, 200);
        let mine: Vec<Span> = decode_trace(&reply.text())
            .into_iter()
            .filter(|s| s.trace_id == TRACE)
            .collect();
        if mine.iter().any(|s| s.name == "respond") {
            break mine;
        }
        assert!(
            Instant::now() < deadline,
            "trace {TRACE} never completed in /debug/trace"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    let parse = mine.iter().find(|s| s.name == "parse").expect("parse span");
    assert!(
        parse.dur < 50_000,
        "parse of the request sent after {IDLE:?} idle lasted {} us",
        parse.dur
    );
    assert!(
        mine.iter().all(|s| s.name != "accept"),
        "only a connection's first request has an accept span"
    );
    gateway.shutdown();
}

/// Tracing must be observationally free: the same clips served with the
/// tracer on and off produce byte-identical response bodies (the logits
/// are formatted shortest-round-trip, so this is bit-for-bit equality
/// of the numbers), and the propagation header still works when tracing
/// is disabled.
#[test]
fn tracing_on_and_off_serve_bit_for_bit_identical_bodies() {
    const N: usize = 6;
    let all = clips(N);
    let serve = |tracer: Option<Tracer>| -> Vec<Vec<u8>> {
        let mut builder = Server::builder(Pipeline::builder(model())).with_workers(2);
        if let Some(tracer) = tracer {
            builder = builder.with_tracer(tracer);
        }
        let server = builder.build().expect("server assembly");
        let gateway = Gateway::builder(server).bind().expect("bind");
        let mut client = Client::connect(gateway.local_addr());
        let bodies = all
            .iter()
            .map(|clip| {
                let reply = client.send("POST", "/v1/classify", &[], &clip_bytes(clip));
                assert_eq!(reply.status, 200, "{}", reply.text());
                reply.body
            })
            .collect();
        gateway.shutdown();
        bodies
    };

    let traced = serve(Some(Tracer::new()));
    let untraced = serve(None);
    assert_eq!(traced, untraced, "tracing changed the served bytes");
}

/// The debug endpoint and the propagation header degrade explicitly,
/// never silently: a tracerless gateway 404s `/debug/trace` with a
/// pointer to the builder knob, still echoes a caller-chosen trace id
/// (propagation costs nothing), and rejects malformed ids with a 400.
#[test]
fn disabled_tracing_degrades_explicitly() {
    let server = Server::builder(Pipeline::builder(model()))
        .with_workers(1)
        .build()
        .expect("server assembly");
    let gateway = Gateway::builder(server).bind().expect("bind");
    let addr = gateway.local_addr();
    let body = clip_bytes(&clips(1)[0]);

    let reply = Client::connect(addr).send("GET", "/debug/trace", &[], &[]);
    assert_eq!(reply.status, 404);
    assert!(reply.text().contains("with_tracer"), "{}", reply.text());

    // Propagation works without a tracer: the caller's id is echoed...
    let mut client = Client::connect(addr);
    let reply = client.send(
        "POST",
        "/v1/classify",
        &[("x-snappix-trace", "42".to_string())],
        &body,
    );
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.header("x-snappix-trace"), Some("42"));
    // ...no id means no header (a disabled tracer mints nothing)...
    let reply = client.send("POST", "/v1/classify", &[], &body);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("x-snappix-trace"), None);
    // ...and a malformed id is a client error, not a silent drop.
    for bad in ["0", "-3", "abc"] {
        let reply = client.send(
            "POST",
            "/v1/classify",
            &[("x-snappix-trace", bad.to_string())],
            &body,
        );
        assert_eq!(reply.status, 400, "trace id {bad:?} must be rejected");
        assert!(reply.text().contains("x-snappix-trace"), "{}", reply.text());
    }

    let (_, server_stats) = gateway.shutdown();
    server_stats.debug_assert_conserved();
}
