//! The HTTP side of the load generator: a pipelined keep-alive loopback
//! connection to a `Gateway`, driven open loop.

use crate::loadgen::{self, Arrival, Kind};
use snappix::prelude::*;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Deadline carried by the requests that carry one: far above any
/// latency at the nominal rate, so no request is meant to expire.
pub const DEADLINE_MS: u64 = 1000;

/// Trace ids the benchmark sets start here, above any id a tracer mints
/// on its own.
pub const TRACE_BASE: u64 = 1 << 40;

/// One request the generator sent and what came back.
#[derive(Debug)]
pub struct Exchange {
    pub due: Instant,
    pub sent: Instant,
    /// `None` when no answer arrived (a broken connection).
    pub recv: Option<Instant>,
    pub status: u16,
    /// The body of a classify answer, or empty for scrapes.
    pub body: Vec<u8>,
    /// Bytes in the body as received.
    pub body_len: usize,
    pub kind: Kind,
    pub clip: usize,
    pub trace_id: u64,
}

/// The clip pool as raw little-endian `f32` classify bodies.
pub fn bodies(clips: &[Tensor]) -> Vec<Vec<u8>> {
    clips
        .iter()
        .map(|c| c.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect())
        .collect()
}

fn request_bytes(kind: Kind, body: &[u8], trace_id: u64, deadline: bool) -> Vec<u8> {
    match kind {
        Kind::Scrape => b"GET /metrics HTTP/1.1\r\n\r\n".to_vec(),
        Kind::Classify => {
            let mut out = Vec::with_capacity(body.len() + 128);
            let _ = write!(
                out,
                "POST /v1/classify HTTP/1.1\r\ncontent-length: {}\r\n",
                body.len()
            );
            if trace_id != 0 {
                let _ = write!(out, "x-snappix-trace: {trace_id}\r\n");
            }
            if deadline {
                let _ = write!(out, "x-snappix-deadline-ms: {DEADLINE_MS}\r\n");
            }
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(body);
            out
        }
    }
}

/// Reads one response: status and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> io::Result<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        reader.read_line(&mut line)?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, body))
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

fn record(out: &mut Exchange, answer: io::Result<(u16, Vec<u8>)>) -> bool {
    match answer {
        Ok((status, body)) => {
            out.recv = Some(Instant::now());
            out.status = status;
            out.body_len = body.len();
            if out.kind == Kind::Classify {
                out.body = body;
            }
            true
        }
        Err(_) => false,
    }
}

fn pending(a: &Arrival, due: Instant, sent: Instant, trace_id: u64) -> Exchange {
    Exchange {
        due,
        sent,
        recv: None,
        status: 0,
        body: Vec::new(),
        body_len: 0,
        kind: a.kind,
        clip: a.clip,
        trace_id,
    }
}

/// Sends `arrivals` open loop from `start` over one pipelined
/// connection: a writer thread sends each request when it is due and a
/// reader thread takes the answers in order. Request `i` runs in trace
/// `trace_base + i`. Returns every exchange in schedule order.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    arrivals: &[Arrival],
    bodies: &[Vec<u8>],
    trace_base: u64,
) -> io::Result<Vec<Exchange>> {
    let (mut writer, mut reader) = connect(addr)?;
    let (tx, rx) = std::sync::mpsc::channel::<Exchange>();
    Ok(std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::new();
            let mut broken = false;
            for mut ex in rx {
                // Once the connection broke the rest stay unanswered.
                broken = broken || !record(&mut ex, read_response(&mut reader));
                done.push(ex);
            }
            done
        });
        loadgen::drive(start, arrivals, |i| {
            let a = &arrivals[i];
            let trace_id = trace_base + i as u64;
            let bytes = request_bytes(a.kind, &bodies[a.clip], trace_id, a.deadline);
            let sent = Instant::now();
            // A failed write leaves the request unanswered; the
            // collector then finds the connection broken.
            let _ = writer.write_all(&bytes);
            let _ = tx.send(pending(a, start + a.due, sent, trace_id));
        });
        drop(tx);
        collector.join().expect("collector thread")
    }))
}

/// Whether a classify answer body carries exactly `reference`'s label
/// and logits.
pub fn answer_matches(body: &[u8], reference: &Prediction) -> bool {
    let Ok(text) = std::str::from_utf8(body) else {
        return false;
    };
    let label = text
        .strip_prefix("{\"label\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|l| l.parse::<usize>().ok());
    let logits: Option<Vec<f32>> = text
        .split_once("\"logits\":[")
        .and_then(|(_, rest)| rest.strip_suffix("]}"))
        .map(|list| {
            list.split(',')
                .map(|v| v.parse::<f32>().unwrap_or(f32::NAN))
                .collect()
        });
    label == Some(reference.label)
        && logits.is_some_and(|l| crate::stack::same_bits(&l, reference.logits.as_slice()))
}
