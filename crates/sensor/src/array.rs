//! The full coded-exposure sensor array with shift-register pattern
//! streaming (paper Sec. V).

use crate::{CePixel, Readout, Result, SensorError};
use snappix_ce::ExposureMask;
use snappix_tensor::{parallel, Tensor};

/// Capture work units each scoped worker must receive before it is worth
/// spawning, fed to [`parallel::workers_for`]. A unit is one word shift
/// of a tile chain or one pixel's protocol pass for a slot (see
/// [`CeSensor::capture`]). A unit costs about 3 ns serially (a 32x32
/// capture at T=16 behind 8x8 tiles, 49 152 units, takes ~150 µs on a
/// 2-vCPU x86-64 VM), so this slab runs on the order of 250 µs.
const PAR_WORK_PER_WORKER: usize = 80_000;

/// Work units of a capture of `t` slots over `h x w` pixels behind
/// chains of `chain_len` DFFs: per pixel and slot, one protocol pass plus
/// one word shift per chain word in each of the two streams (a tile
/// clocks `chain_len` edges of `chain_len.div_ceil(64)` words).
fn capture_work(t: usize, h: usize, w: usize, chain_len: usize) -> usize {
    t * h * w * (1 + 2 * chain_len.div_ceil(64))
}

/// Cycle and pulse accounting for one capture, used by the energy model to
/// price the CE control overhead (the paper reports 9 pJ/pixel at a
/// 20 MHz pattern clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CaptureStats {
    /// Pattern-clock cycles spent streaming CE bits.
    pub pattern_clock_cycles: u64,
    /// `M6` (pattern-reset) pulses issued.
    pub pattern_reset_pulses: u64,
    /// `M7` (pattern-transfer) pulses issued.
    pub pattern_transfer_pulses: u64,
    /// Exposure slots integrated.
    pub exposure_slots: u64,
    /// Pixels read out.
    pub pixels_read: u64,
}

/// A behavioral coded-exposure sensor: an `h x w` array of [`CePixel`]s
/// whose bottom-die DFFs form one shift register per exposure tile.
///
/// [`CeSensor::capture`] runs the full slot protocol of Sec. V and returns
/// the analog FD image, which equals the algorithmic Eqn. 1 encoding
/// exactly (property-tested in the workspace integration tests).
#[derive(Debug, Clone)]
pub struct CeSensor {
    width: usize,
    height: usize,
    mask: ExposureMask,
    pixels: Vec<CePixel>,
    stats: CaptureStats,
}

impl CeSensor {
    /// Builds a sensor of `height x width` pixels running `mask`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`] when extents are zero or the mask
    /// tile does not divide the array.
    pub fn new(height: usize, width: usize, mask: ExposureMask) -> Result<Self> {
        let (th, tw) = mask.tile();
        if height == 0 || width == 0 {
            return Err(SensorError::Geometry {
                context: "sensor extents must be positive".to_string(),
            });
        }
        if !height.is_multiple_of(th) || !width.is_multiple_of(tw) {
            return Err(SensorError::Geometry {
                context: format!("tile {th}x{tw} does not divide array {height}x{width}"),
            });
        }
        Ok(CeSensor {
            width,
            height,
            mask,
            pixels: vec![CePixel::new(); height * width],
            stats: CaptureStats::default(),
        })
    }

    /// Array height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Array width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The exposure mask programmed into the controller.
    pub fn mask(&self) -> &ExposureMask {
        &self.mask
    }

    /// Accounting from the most recent capture.
    pub fn stats(&self) -> CaptureStats {
        self.stats
    }

    /// Direct access to a pixel's state (diagnostics and tests).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Geometry`] for out-of-range coordinates.
    pub fn pixel(&self, y: usize, x: usize) -> Result<&CePixel> {
        if y >= self.height || x >= self.width {
            return Err(SensorError::Geometry {
                context: format!("pixel ({y}, {x}) outside {}x{}", self.height, self.width),
            });
        }
        Ok(&self.pixels[y * self.width + x])
    }

    /// Captures a `[t, h, w]` irradiance video through the slot protocol
    /// and returns the analog `[h, w]` FD image.
    ///
    /// Protocol per slot (paper Sec. V): stream bits, pulse `M6`
    /// (conditional PD reset), integrate the slot, stream the same bits
    /// again, pulse `M7` (conditional transfer), power-gate the DFFs.
    ///
    /// The simulation runs the protocol per *band* of `th` pixel rows:
    /// shift chains never leave their tile, and per-pixel reset, exposure
    /// and transfer are purely local, so bands are fully independent.
    ///
    /// Within a band, each tile's shift chain is clocked as a bit vector,
    /// one word operation per clock edge, for every edge of both streams
    /// of every slot. Clocking an ungated chain moves each bit one DFF
    /// along, which is a one-bit shift of the vector, so the words hold
    /// exactly the bits that clocking each pixel's DFF in turn would
    /// leave. When a stream ends its bits are latched into the pixels'
    /// DFFs, which are power-gated as before. A slot then runs as one
    /// pass over the band, each pixel taking its reset, exposure and
    /// transfer in protocol order. Pixels never interact, so every
    /// pixel's operation sequence — and with it the FD image, every
    /// pixel's final state and the [`CaptureStats`] — is the one the
    /// pixel-by-pixel clocked protocol produces.
    ///
    /// Large captures split the bands across the shared worker pool (see
    /// [`snappix_tensor::parallel`]); with `SNAPPIX_THREADS=1` — or a
    /// small array — all bands run on the calling thread. Either way
    /// every pixel sees the exact same operation sequence, so results
    /// are bit-for-bit identical at every thread count.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::Stimulus`] when the video does not match the
    /// sensor resolution or the mask's slot count.
    pub fn capture(&mut self, video: &Tensor) -> Result<Tensor> {
        if video.rank() != 3 {
            return Err(SensorError::Stimulus {
                context: format!("expected [t, h, w] video, got {:?}", video.shape()),
            });
        }
        let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
        if t != self.mask.num_slots() || h != self.height || w != self.width {
            return Err(SensorError::Stimulus {
                context: format!(
                    "video {t}x{h}x{w} does not match sensor {}x{}x{}",
                    self.mask.num_slots(),
                    self.height,
                    self.width
                ),
            });
        }
        for p in &mut self.pixels {
            *p = CePixel::new();
            p.reset_fd();
        }
        let (th, tw) = self.mask.tile();
        let chain_len = th * tw;
        let pattern = self.mask.pattern().as_slice();
        let tiles_x = w / tw;
        let frames = video.as_slice();
        let run_band = |band_index: usize, band: &mut [CePixel]| {
            let row0 = band_index * th;
            // The capture cleared every DFF, so both chain sets start at
            // zero; `reset` holds the chains after a slot's first stream,
            // `transfer` after its second.
            let mut reset = BandChains::new(chain_len, tiles_x);
            let mut transfer = BandChains::new(chain_len, tiles_x);
            for slot in 0..t {
                let slot_bits = &pattern[slot * chain_len..(slot + 1) * chain_len];
                reset.state.copy_from_slice(&transfer.state);
                reset.stream(slot_bits);
                transfer.state.copy_from_slice(&reset.state);
                transfer.stream(slot_bits);
                let frame = &frames[(slot * h + row0) * w..(slot * h + row0 + th) * w];
                // One pass over the band runs the slot's whole protocol
                // on each pixel in turn: latch the first stream's bit,
                // pulse `M6` (conditional PD reset), integrate the slot
                // (every PD integrates; gating is done purely through
                // reset/transfer), latch the re-streamed bit, pulse `M7`
                // (conditional transfer). Pixels never interact, so this
                // is the per-pixel sequence of running each phase over
                // the whole band in turn.
                let rows = band.chunks_exact_mut(w).zip(frame.chunks_exact(w));
                for (ty, (row, light_row)) in rows.enumerate() {
                    let tiles = row.chunks_exact_mut(tw).zip(light_row.chunks_exact(tw));
                    for (tx, (pixels, lights)) in tiles.enumerate() {
                        for (tc, (p, &light)) in pixels.iter_mut().zip(lights).enumerate() {
                            let k = ty * tw + tc;
                            p.latch(reset.bit(tx, k));
                            p.pattern_reset();
                            p.expose(light, 1.0);
                            p.latch(transfer.bit(tx, k));
                            p.pattern_transfer();
                        }
                    }
                }
            }
        };
        let band_pixels = th * w;
        let workers = parallel::workers_for(capture_work(t, h, w, chain_len), PAR_WORK_PER_WORKER);
        parallel::with_threads(workers, || {
            parallel::par_chunks_mut(&mut self.pixels, band_pixels, run_band)
        });
        // Protocol accounting is deterministic in the geometry: two
        // streams of `chain_len` cycles plus one reset and one transfer
        // pulse per slot (the clocked reference in the tests counts them
        // as they are issued).
        self.stats = CaptureStats {
            pattern_clock_cycles: 2 * t as u64 * chain_len as u64,
            pattern_reset_pulses: t as u64,
            pattern_transfer_pulses: t as u64,
            exposure_slots: t as u64,
            pixels_read: (h * w) as u64,
        };
        // Rolling readout of the FD array.
        let mut out = Tensor::zeros(&[h, w]);
        let data = out.as_mut_slice();
        for (d, p) in data.iter_mut().zip(&self.pixels) {
            *d = p.read();
        }
        Ok(out)
    }

    /// Captures and digitizes in one call: the analog image from
    /// [`CeSensor::capture`] pushed through a [`Readout`] chain (noise +
    /// ADC).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CeSensor::capture`].
    pub fn capture_digital(&mut self, video: &Tensor, readout: &mut Readout) -> Result<Tensor> {
        let analog = self.capture(video)?;
        Ok(readout.digitize(&analog))
    }
}

/// The shift registers of one band of `th` pixel rows (one tile-row of
/// the array), each tile's chain held as a bit vector: chain position
/// `k` of tile `tx` is bit `k % 64` of word `tx * words + k / 64`.
struct BandChains {
    /// Words per chain: one for chains of up to 64 DFFs.
    words: usize,
    /// Valid bits of each chain's last word (positions past `chain_len`
    /// do not exist and always read zero).
    top_mask: u64,
    state: Vec<u64>,
}

impl BandChains {
    /// `tiles_x` cleared chains of `chain_len` DFFs each.
    fn new(chain_len: usize, tiles_x: usize) -> Self {
        let words = chain_len.div_ceil(64);
        let top_bits = chain_len - 64 * (words - 1);
        BandChains {
            words,
            top_mask: u64::MAX >> (64 - top_bits),
            state: vec![0; tiles_x * words],
        }
    }

    /// Streams one slot's CE bits into every chain of the band.
    ///
    /// All tiles stream in parallel in hardware (each has its own 4-wire
    /// interface); the pattern clock runs `chain_len` cycles and bits are
    /// pushed last-pixel-first so that after the final cycle pixel `k` of
    /// each tile holds bit `k`. Every DFF is ungated for the whole stream,
    /// so on each clock edge every DFF of a chain captures its
    /// predecessor's previous output and position 0 captures the input
    /// bit: the chain moves one position along, which on the bit vector
    /// is `state = (state << 1) | bit_in`, carrying bit 63 of each word
    /// into bit 0 of the next and dropping the bit clocked out of the
    /// chain's last DFF. That is exactly what clocking each DFF in turn
    /// computes (the `#[cfg(test)]` reference `stream_band` does so, and
    /// the parity tests below hold the two equal), at a word operation
    /// per edge instead of one pixel update per DFF. Each edge clocks
    /// every tile's chain in turn: the chains are independent, so their
    /// shifts overlap in the CPU pipeline.
    fn stream(&mut self, slot_bits: &[f32]) {
        for &bit in slot_bits.iter().rev() {
            let bit_in = u64::from(bit != 0.0);
            for chain in self.state.chunks_exact_mut(self.words) {
                let mut carry = bit_in;
                for word in chain.iter_mut() {
                    let out = *word >> 63;
                    *word = (*word << 1) | carry;
                    carry = out;
                }
                if let Some(last) = chain.last_mut() {
                    *last &= self.top_mask;
                }
            }
        }
    }

    /// The bit held by chain position `k` of tile `tx`.
    fn bit(&self, tx: usize, k: usize) -> bool {
        (self.state[tx * self.words + k / 64] >> (k % 64)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use snappix_ce::{encode, patterns};

    /// Reference for [`BandChains::stream`]: streams one slot's CE bits
    /// into every shift register of a band by clocking each pixel's DFF
    /// in turn, `chain.len()` edges per tile, bits pushed
    /// last-pixel-first. `chain[k]` is the band-slice offset of chain
    /// position `k` from the tile's origin.
    fn stream_band(
        band: &mut [CePixel],
        slot_bits: &[f32],
        chain: &[usize],
        tiles_x: usize,
        tw: usize,
    ) {
        // Ungate every DFF for streaming.
        for p in band.iter_mut() {
            p.set_gated(false);
        }
        let chain_len = chain.len();
        for tx in 0..tiles_x {
            let origin = tx * tw;
            for cycle in 0..chain_len {
                // Bit entering the chain this cycle (reverse order). Walk
                // the chain front-to-back so each pixel consumes its
                // predecessor's previous output within one clock edge.
                let mut carry = slot_bits[chain_len - 1 - cycle] != 0.0;
                for &offset in chain {
                    carry = band[origin + offset].shift(carry);
                }
            }
        }
        // Power-gate again once the bits are in place.
        for p in band.iter_mut() {
            p.set_gated(true);
        }
    }

    /// Reference for [`CeSensor::capture`]: the slot protocol run the
    /// way the hardware sequences it, each phase over the whole array in
    /// turn, with the chains clocked pixel by pixel and every stream and
    /// pulse counted as it is issued.
    fn capture_clocked(sensor: &mut CeSensor, video: &Tensor) -> Tensor {
        let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
        for p in &mut sensor.pixels {
            *p = CePixel::new();
            p.reset_fd();
        }
        let (th, tw) = sensor.mask.tile();
        let chain_len = th * tw;
        let chain: Vec<usize> = (0..chain_len).map(|k| (k / tw) * w + (k % tw)).collect();
        let pattern = sensor.mask.pattern().as_slice().to_vec();
        let mut stats = CaptureStats::default();
        for slot in 0..t {
            let slot_bits = &pattern[slot * chain_len..(slot + 1) * chain_len];
            for band in sensor.pixels.chunks_mut(th * w) {
                stream_band(band, slot_bits, &chain, w / tw, tw);
            }
            stats.pattern_clock_cycles += chain_len as u64;
            for p in &mut sensor.pixels {
                p.pattern_reset();
            }
            stats.pattern_reset_pulses += 1;
            let frame = &video.as_slice()[slot * h * w..(slot + 1) * h * w];
            for (p, &light) in sensor.pixels.iter_mut().zip(frame) {
                p.expose(light, 1.0);
            }
            stats.exposure_slots += 1;
            for band in sensor.pixels.chunks_mut(th * w) {
                stream_band(band, slot_bits, &chain, w / tw, tw);
            }
            stats.pattern_clock_cycles += chain_len as u64;
            for p in &mut sensor.pixels {
                p.pattern_transfer();
            }
            stats.pattern_transfer_pulses += 1;
        }
        let mut out = Tensor::zeros(&[h, w]);
        for (d, p) in out.as_mut_slice().iter_mut().zip(&sensor.pixels) {
            *d = p.read();
            stats.pixels_read += 1;
        }
        sensor.stats = stats;
        out
    }

    /// Every pixel's `(pd, fd, dff, gated)` with the charges as raw bits,
    /// so equality is bit-for-bit.
    fn pixel_states(sensor: &CeSensor) -> Vec<(u32, u32, bool, bool)> {
        sensor
            .pixels
            .iter()
            .map(|p| {
                (
                    p.pd_charge().to_bits(),
                    p.fd_charge().to_bits(),
                    p.dff_bit(),
                    p.is_gated(),
                )
            })
            .collect()
    }

    fn image_bits(img: &Tensor) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Word-clocked capture against the pixel-clocked reference, bit for
    /// bit: image, stats and every pixel's final state, over three
    /// consecutive captures on the same sensors (so state left by one
    /// capture must not leak into the next on either path).
    fn assert_matches_clocked(mask: &ExposureMask, rng: &mut StdRng, label: &str) {
        let (th, tw) = mask.tile();
        let t = mask.num_slots();
        let (h, w) = (2 * th, 3 * tw);
        let mut fast = CeSensor::new(h, w, mask.clone()).unwrap();
        let mut clocked = CeSensor::new(h, w, mask.clone()).unwrap();
        for capture in 0..3 {
            let video = Tensor::rand_uniform(rng, &[t, h, w], 0.0, 1.0);
            let img = fast.capture(&video).unwrap();
            let reference = capture_clocked(&mut clocked, &video);
            assert_eq!(
                image_bits(&img),
                image_bits(&reference),
                "{label}: image, capture {capture}"
            );
            assert_eq!(
                fast.stats(),
                clocked.stats(),
                "{label}: stats, capture {capture}"
            );
            assert_eq!(
                pixel_states(&fast),
                pixel_states(&clocked),
                "{label}: pixel states, capture {capture}"
            );
        }
    }

    /// Tiles from a single DFF through exactly one word (8x8 = 64) to
    /// chains crossing word boundaries (1x65, 9x9 = 81) and four words
    /// (16x16 = 256), each with random, sparse-random and long-exposure
    /// masks.
    #[test]
    fn word_clocked_capture_matches_pixel_clocked_reference() {
        let mut rng = StdRng::seed_from_u64(13);
        for tile in [(1, 1), (2, 3), (4, 4), (8, 8), (1, 65), (9, 9), (16, 16)] {
            let t = 5;
            let masks = [
                ("random", patterns::random(t, tile, 0.5, &mut rng).unwrap()),
                (
                    "sparse_random",
                    patterns::sparse_random(t, tile, &mut rng).unwrap(),
                ),
                ("long_exposure", patterns::long_exposure(t, tile).unwrap()),
            ];
            for (name, mask) in &masks {
                let label = format!("{name} {}x{}", tile.0, tile.1);
                assert_matches_clocked(mask, &mut rng, &label);
            }
        }
    }

    #[test]
    fn band_chains_shift_bits_across_word_boundaries() {
        // 65 DFFs: two words, the second holding only chain position 64.
        let mut chains = BandChains::new(65, 2);
        let mut bits = vec![0.0f32; 65];
        bits[0] = 1.0;
        bits[63] = 1.0;
        bits[64] = 1.0;
        chains.stream(&bits);
        for tx in 0..2 {
            for (k, &bit) in bits.iter().enumerate() {
                assert_eq!(chains.bit(tx, k), bit != 0.0, "tile {tx} position {k}");
            }
        }
        assert_eq!(chains.state[1], 1, "bits past the chain end must read zero");
        // A second stream flushes the first completely.
        chains.stream(&[0.0; 65]);
        assert!(chains.state.iter().all(|&word| word == 0));
    }

    #[test]
    fn geometry_validation() {
        let mask = patterns::long_exposure(2, (4, 4)).unwrap();
        assert!(CeSensor::new(0, 8, mask.clone()).is_err());
        assert!(CeSensor::new(8, 9, mask.clone()).is_err());
        assert!(CeSensor::new(8, 8, mask).is_ok());
    }

    #[test]
    fn stimulus_validation() {
        let mask = patterns::long_exposure(2, (4, 4)).unwrap();
        let mut sensor = CeSensor::new(8, 8, mask).unwrap();
        assert!(sensor.capture(&Tensor::zeros(&[3, 8, 8])).is_err());
        assert!(sensor.capture(&Tensor::zeros(&[2, 4, 8])).is_err());
        assert!(sensor.capture(&Tensor::zeros(&[8, 8])).is_err());
    }

    #[test]
    fn capture_matches_algorithmic_encode() {
        let mut rng = StdRng::seed_from_u64(0);
        for seed in 0..5u64 {
            let mut mask_rng = StdRng::seed_from_u64(seed);
            let mask = patterns::random(4, (4, 4), 0.5, &mut mask_rng).unwrap();
            let video = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
            let mut sensor = CeSensor::new(8, 8, mask.clone()).unwrap();
            let hw = sensor.capture(&video).unwrap();
            let sw = encode(&video, &mask).unwrap();
            assert!(
                hw.approx_eq(&sw, 1e-5),
                "hardware and Eqn. 1 disagree for seed {seed}"
            );
        }
    }

    #[test]
    fn sparse_random_mask_matches_encode() {
        let mut rng = StdRng::seed_from_u64(1);
        let mask = patterns::sparse_random(8, (2, 2), &mut rng).unwrap();
        let video = Tensor::rand_uniform(&mut rng, &[8, 6, 6], 0.0, 1.0);
        let mut sensor = CeSensor::new(6, 6, mask.clone()).unwrap();
        let hw = sensor.capture(&video).unwrap();
        let sw = encode(&video, &mask).unwrap();
        assert!(hw.approx_eq(&sw, 1e-5));
    }

    /// A capture must be bit-for-bit identical across thread counts 1, 2
    /// and > bands, on a geometry large enough to cross the parallel
    /// threshold, with identical protocol accounting and pixel states —
    /// and equal to the pixel-clocked reference.
    #[test]
    fn capture_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(5);
        // 96x96 with 8x8 tiles at t=16: 12 bands, several workers' worth
        // of PAR_WORK_PER_WORKER.
        let (t, hw) = (16, 96);
        let mask = patterns::random(t, (8, 8), 0.5, &mut rng).unwrap();
        let video = Tensor::rand_uniform(&mut rng, &[t, hw, hw], 0.0, 1.0);
        let work = capture_work(t, hw, hw, 64);
        let capture = || {
            let mut sensor = CeSensor::new(hw, hw, mask.clone()).unwrap();
            let img = sensor.capture(&video).unwrap();
            (image_bits(&img), sensor.stats(), pixel_states(&sensor))
        };
        let reference = with_threads(1, capture);
        let mut clocked = CeSensor::new(hw, hw, mask.clone()).unwrap();
        let clocked_img = capture_clocked(&mut clocked, &video);
        assert_eq!(reference.0, image_bits(&clocked_img));
        assert_eq!(reference.1, clocked.stats());
        assert_eq!(reference.2, pixel_states(&clocked));
        for threads in [2usize, 5, 40] {
            let workers =
                with_threads(threads, || parallel::workers_for(work, PAR_WORK_PER_WORKER));
            assert!(
                workers > 1,
                "{threads} threads: geometry must split across workers"
            );
            let (img, stats, states) = with_threads(threads, capture);
            assert_eq!(img, reference.0, "{threads} threads");
            assert_eq!(stats, reference.1, "{threads} threads");
            assert_eq!(states, reference.2, "{threads} threads");
        }
    }

    #[test]
    fn stats_account_for_protocol() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        sensor.capture(&Tensor::zeros(&[4, 4, 4])).unwrap();
        let stats = sensor.stats();
        // 2 streams per slot x 4 slots x 4 cycles per stream.
        assert_eq!(stats.pattern_clock_cycles, 2 * 4 * 4);
        assert_eq!(stats.pattern_reset_pulses, 4);
        assert_eq!(stats.pattern_transfer_pulses, 4);
        assert_eq!(stats.exposure_slots, 4);
        assert_eq!(stats.pixels_read, 16);
    }

    #[test]
    fn second_capture_is_independent() {
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        let bright = sensor.capture(&Tensor::full(&[2, 4, 4], 1.0)).unwrap();
        let dark = sensor.capture(&Tensor::zeros(&[2, 4, 4])).unwrap();
        assert_eq!(bright.as_slice()[0], 2.0);
        assert_eq!(dark.sum(), 0.0, "FD must be reset between captures");
    }

    #[test]
    fn pixel_accessor_bounds() {
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let sensor = CeSensor::new(4, 4, mask).unwrap();
        assert!(sensor.pixel(3, 3).is_ok());
        assert!(sensor.pixel(4, 0).is_err());
    }

    #[test]
    fn shift_register_places_asymmetric_pattern_correctly() {
        // Slot 0 exposes only tile pixel (0, 1); the coded image must
        // light up exactly the columns congruent to 1 mod 2.
        let mut p = Tensor::zeros(&[1, 2, 2]);
        p.set(&[0, 0, 1], 1.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let mut sensor = CeSensor::new(4, 4, mask).unwrap();
        let img = sensor.capture(&Tensor::ones(&[1, 4, 4])).unwrap();
        for y in 0..4 {
            for x in 0..4 {
                let expected = if y % 2 == 0 && x % 2 == 1 { 1.0 } else { 0.0 };
                assert_eq!(img.get(&[y, x]).unwrap(), expected, "pixel ({y}, {x})");
            }
        }
    }
}
