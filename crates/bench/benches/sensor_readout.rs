//! Criterion microbench: the charge-domain sensor capture protocol
//! (Sec. V) and the readout chain.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use snappix_ce::patterns;
use snappix_sensor::{CeSensor, Readout, ReadoutConfig};
use snappix_tensor::Tensor;

fn bench_capture(c: &mut Criterion) {
    let mut group = c.benchmark_group("sensor_capture");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0);
    for hw in [16usize, 32, 64] {
        let mask = patterns::random(16, (8, 8), 0.5, &mut rng).expect("valid dims");
        let video = Tensor::rand_uniform(&mut rng, &[16, hw, hw], 0.0, 1.0);
        let mut sensor = CeSensor::new(hw, hw, mask).expect("geometry");
        group.bench_with_input(BenchmarkId::new("capture", hw), &video, |b, v| {
            b.iter(|| sensor.capture(v).expect("capture"))
        });
    }
    // `fleet_hw`'s geometry in the repository benchmark (snapbench): a
    // 16x16 sensor at T=8 behind 8x8 tiles, one clip per capture.
    let mask = patterns::random(8, (8, 8), 0.5, &mut rng).expect("valid dims");
    let video = Tensor::rand_uniform(&mut rng, &[8, 16, 16], 0.0, 1.0);
    let mut sensor = CeSensor::new(16, 16, mask).expect("geometry");
    group.bench_function("fleet_hw_16x16_t8", |b| {
        b.iter(|| sensor.capture(&video).expect("capture"))
    });
    group.finish();
}

fn bench_readout(c: &mut Criterion) {
    let mut group = c.benchmark_group("readout");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(1);
    let analog = Tensor::rand_uniform(&mut rng, &[112, 112], 0.0, 16.0);
    let mut noiseless = Readout::new(ReadoutConfig::noiseless(8, 16.0));
    let mut noisy = Readout::new(ReadoutConfig::default());
    group.bench_function("noiseless_8bit", |b| b.iter(|| noiseless.digitize(&analog)));
    group.bench_function("noisy_8bit", |b| b.iter(|| noisy.digitize(&analog)));
    group.finish();
}

criterion_group!(benches, bench_capture, bench_readout);
criterion_main!(benches);
