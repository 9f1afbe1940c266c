//! Tracing walkthrough: serve a burst of classify requests through the
//! gateway with a live [`Tracer`], dump the whole trace as Chrome
//! trace-event JSON (load it in Perfetto or `chrome://tracing`), and
//! print the slowest request's stage-by-stage breakdown — the question
//! counters can't answer: *where did that one request's time go?*
//!
//! Run with `cargo run --release --example trace`. The trace lands in
//! the system temp directory; see `docs/TRACING.md` for the span
//! taxonomy.

use rand::{rngs::StdRng, SeedableRng};
use snappix_gateway::prelude::*;
use snappix_trace::SpanRecord;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const T: usize = 8;
const HW: usize = 16;
const CLASSES: usize = 5;
const CLIENTS: usize = 16;
const CLIPS_PER_CLIENT: usize = 4;

/// One classify round trip on a keep-alive connection.
fn classify(reader: &mut BufReader<TcpStream>, body: &[u8]) {
    let head = format!(
        "POST /v1/classify HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    let stream = reader.get_mut();
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body).expect("write body");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(status_line.contains("200"), "unexpected: {status_line}");
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().expect("numeric content-length");
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
}

fn main() -> Result<(), snappix::Error> {
    let mask = patterns::long_exposure(T, (8, 8))?;
    let model = SnapPixAr::new(VitConfig::snappix_s(HW, HW, CLASSES), mask)?;
    let server = Server::builder(Pipeline::builder(model))
        .with_workers(2)
        .with_queue_depth(CLIENTS * CLIPS_PER_CLIENT)
        .with_batch_policy(BatchPolicy::new(8, Duration::from_millis(2)))
        .with_tracer(Tracer::new())
        .build()?;
    let gateway = Gateway::builder(server)
        .with_max_connections(CLIENTS + 8)
        .bind()
        .map_err(snappix::Error::from)?;
    let addr = gateway.local_addr();

    let mut rng = StdRng::seed_from_u64(23);
    let clips: Vec<Vec<u8>> = (0..CLIENTS * CLIPS_PER_CLIENT)
        .map(|_| {
            Tensor::rand_uniform(&mut rng, &[T, HW, HW], 0.0, 1.0)
                .as_slice()
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect()
        })
        .collect();

    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let clips = &clips;
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(120)))
                    .expect("timeout");
                let mut conn = BufReader::new(stream);
                for i in 0..CLIPS_PER_CLIENT {
                    classify(&mut conn, &clips[client * CLIPS_PER_CLIENT + i]);
                }
            });
        }
    });
    let elapsed = started.elapsed();
    let total = CLIENTS * CLIPS_PER_CLIENT;
    println!(
        "{total} clips through http://{addr} in {elapsed:.2?} \
         ({:.0} req/s)",
        total as f64 / elapsed.as_secs_f64()
    );

    // `respond` spans land just after the response bytes do; give the
    // connection threads a beat to finish their bookkeeping.
    std::thread::sleep(Duration::from_millis(100));
    let snapshot = gateway.server().tracer().snapshot();

    // Dump the whole trace for Perfetto / chrome://tracing.
    let path = std::env::temp_dir().join("snappix-trace.json");
    std::fs::write(&path, snapshot.to_chrome_json()).expect("write trace.json");
    println!(
        "{} spans across {} lanes -> {} (open in https://ui.perfetto.dev)",
        snapshot.len(),
        snapshot.lanes.len(),
        path.display()
    );

    // The slowest request, stage by stage. The request span brackets
    // the whole server-side lifetime; its children say where the time
    // went, and the compute span's `batch` arg links to the shared
    // forward pass (whose sense/forward/readout children are the
    // pipeline's own stage timings).
    let requests: Vec<&SpanRecord> = snapshot
        .records
        .iter()
        .filter(|r| r.name == "request")
        .collect();
    assert_eq!(requests.len(), total, "every request left a span");
    let slowest = requests
        .iter()
        .max_by_key(|r| r.duration_us())
        .expect("at least one request");
    println!(
        "\nslowest request: trace {} took {} us",
        slowest.trace_id,
        slowest.duration_us()
    );
    let mut children: Vec<&SpanRecord> = snapshot
        .records
        .iter()
        .filter(|r| r.trace_id == slowest.trace_id && r.parent == slowest.span_id)
        .collect();
    children.sort_by_key(|r| r.start_us);
    for child in children {
        println!(
            "  {:<12} {:>8} us  ({:.0}% of the request)",
            child.name,
            child.duration_us(),
            100.0 * child.duration_us() as f64 / slowest.duration_us().max(1) as f64
        );
    }

    // The same stage split, summed over every batch on both replicas:
    // the pipelines time each stage into the server's registry, tracer
    // or no tracer.
    let metrics = gateway.server().metrics().clone();
    let (_, server_stats) = gateway.shutdown();
    server_stats.debug_assert_conserved();
    println!("\naggregate over {} batches:", server_stats.batches);
    for stage in ["sense", "forward", "readout"] {
        let summary = metrics.summary_with(
            "snappix_server_stage_latency_seconds",
            "",
            1e-9,
            &[("stage", stage)],
        );
        let total = Duration::from_nanos(summary.sum_raw());
        let mean = total / u32::try_from(summary.count().max(1)).unwrap_or(u32::MAX);
        println!("  {stage:<8} {total:>10.2?} total  {mean:>9.2?} mean");
    }
    Ok(())
}
