//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path snapbench/Cargo.toml -- \
//!     --workload <fleet_hw|fleet_vit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with tracing off; with `--trace 1` it is the
//! separate traced run that yields the per-layer metrics (and writes a
//! Chrome-trace export to `snapbench/out/<workload>.trace.json`). Every
//! run checks, outside the timed windows, each fleet sweep's ledgers
//! against a one-driver replay; a traced run also checks every gateway
//! answer against a serial reference and that the layer self times of
//! each request add up to its end-to-end time. The last line of
//! standard output is the JSON result; the lines before it carry the
//! run metadata and details. See `snapbench/README.md` for the
//! workloads and the layer-to-metric map.

mod fleet;
mod flops;
mod gateway;
mod loadgen;
mod report;
mod stack;
mod util;
mod wire;

use report::{Results, END_TO_END, PER_LAYER};
use stack::{LayerReplay, ServeLayer};

const USAGE: &str = "usage: snapbench --workload <fleet_hw|fleet_vit> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = raw
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        raw.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let args = Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
    };
    if !(1..=600).contains(&args.seconds) {
        return Err("--seconds must be 1 to 600".into());
    }
    Ok(args)
}

/// The serve and pipeline-stage layers, read the same way everywhere.
fn record_serve(out: &mut Results, s: &ServeLayer) {
    out.set("serve.queue_wait_ms.p50", s.queue_wait_p50_ms);
    out.set("serve.queue_wait_ms.p99", s.queue_wait_p99_ms);
    out.set("serve.batch_size.mean", s.batch_mean);
    out.set("serve.compute_ms.p50", s.compute_p50_ms);
    out.set("serve.shed", s.shed as f64);
    out.set("serve.expired", s.expired as f64);
    out.set("serve.busy_share", s.busy_share);
    out.set("snappix.sense_ms.p50", s.sense_p50_ms);
    out.set("snappix.forward_ms.p50", s.forward_p50_ms);
    out.set("snappix.readout_us.mean", s.readout_mean_us);
}

/// The model, tensor, codec and sensor layers, replayed on the
/// workload's clips.
fn record_layers(out: &mut Results, l: &LayerReplay) {
    out.set("models.forward_ms.b1", l.forward_b1_ms);
    out.set("models.forward_ms.b8", l.forward_b8_ms);
    out.set("tensor.gflop_per_clip", l.gflop_per_clip);
    out.set("tensor.mbytes_per_clip", l.mbytes_per_clip);
    out.set(
        "tensor.gflops_per_s.b8",
        8.0 * l.gflop_per_clip / (l.forward_b8_ms / 1e3),
    );
    out.set(
        "tensor.par_speedup.b8",
        l.forward_b8_serial_ms / l.forward_b8_ms,
    );
    out.set("ce.encode_us_per_clip", l.encode_us_per_clip);
    out.set("sensor.capture_ms_per_clip", l.capture_ms_per_clip);
    out.set("sensor.readout_us_per_clip", l.readout_us_per_clip);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let spec = match args.workload.as_str() {
        "fleet_hw" => &fleet::FLEET_HW,
        "fleet_vit" => &fleet::FLEET_VIT,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "meta: {}",
        util::metadata_json(&args.workload, args.seed, args.seconds, args.trace)
    );
    let (steal0, total0) = util::cpu_ticks();
    let results = fleet::run(spec, args.seed, args.seconds, args.trace);
    let (steal1, total1) = util::cpu_ticks();
    // Time the VM's host took from its vCPUs: the benchmark's noise floor.
    println!(
        "detail: host steal {:.2}% of CPU time during the run",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64
    );
    if !results.correct {
        eprintln!("a check FAILED: see the messages above");
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", results.to_json(catalogue));
}
