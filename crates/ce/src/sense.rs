//! The [`Sense`] abstraction: "video in, coded image out".
//!
//! The workspace has two ways of producing a coded image from a clip —
//! the algorithmic Eqn. 1 encoder used at training time (this crate) and
//! the charge-domain hardware simulation used at deployment time
//! (`snappix_sensor::HardwareSensor`). `Sense` is the trait both sides
//! implement so pipelines, tests and benches can swap backends via
//! generics instead of duplicating glue for each path.

use crate::{encode, encode_normalized, ExposureMask};
use snappix_tensor::{Tensor, TensorError};

/// A coded-exposure capture backend: turns a `[t, h, w]` clip into the
/// `[h, w]` coded image an edge node would transmit.
///
/// Implementations take `&mut self` because physical backends are
/// stateful (noise RNGs, per-capture accounting); the pure algorithmic
/// encoder simply ignores the mutability.
///
/// The two first-party implementations are [`AlgorithmicEncoder`] (this
/// crate, the training-time path) and `snappix_sensor::HardwareSensor`
/// (the deployment path); the workspace property tests assert they agree
/// whenever the hardware readout is ideal.
pub trait Sense {
    /// Error produced by this backend.
    ///
    /// The `From<TensorError>` bound lets the provided [`Sense::sense_batch`]
    /// propagate batching (slice/stack) failures through any backend's
    /// error type.
    type Error: std::error::Error + From<TensorError> + 'static;

    /// The exposure mask this backend runs.
    fn mask(&self) -> &ExposureMask;

    /// Whether this backend divides coded pixels by their exposure count
    /// (the paper's pre-ViT normalization).
    ///
    /// Pipelines validate this against the model's
    /// `normalize_by_exposure` flag at assembly time — a mismatch would
    /// silently feed the model inputs scaled differently from its
    /// training data. The default is `true`, the paper's convention;
    /// backends that can disable normalization must override it to
    /// report their actual setting.
    fn normalizes(&self) -> bool {
        true
    }

    /// Senses one `[t, h, w]` clip into an `[h, w]` coded image.
    ///
    /// # Errors
    ///
    /// Fails when the clip does not match the backend's mask or geometry.
    fn sense(&mut self, clip: &Tensor) -> Result<Tensor, Self::Error>;

    /// Senses a `[batch, t, h, w]` clip batch into `[batch, h, w]` coded
    /// images.
    ///
    /// The default implementation loops over [`Sense::sense`] and stacks;
    /// a backend with a cheaper batched path may override it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sense::sense`], plus rank validation of the
    /// batch.
    fn sense_batch(&mut self, clips: &Tensor) -> Result<Tensor, Self::Error> {
        if clips.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                got: clips.rank(),
            }
            .into());
        }
        let batch = clips.shape()[0];
        let mut coded = Vec::with_capacity(batch);
        for b in 0..batch {
            coded.push(self.sense(&clips.index_axis(0, b)?)?);
        }
        let refs: Vec<&Tensor> = coded.iter().collect();
        Tensor::stack(&refs, 0).map_err(Into::into)
    }
}

/// The training-time [`Sense`] backend: a stateless wrapper around the
/// algorithmic Eqn. 1 codec ([`encode`] / [`encode_normalized`]).
///
/// Configuration follows the workspace's builder-style `with_*` idiom:
/// constructors pick documented defaults and `with_*` methods return
/// `self` with one knob changed.
///
/// # Examples
///
/// ```
/// use snappix_ce::{patterns, AlgorithmicEncoder, Sense};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let mask = patterns::long_exposure(4, (4, 4))?;
/// let mut enc = AlgorithmicEncoder::new(mask);
/// let coded = enc.sense(&Tensor::full(&[4, 8, 8], 0.5))?;
/// assert_eq!(coded.shape(), &[8, 8]);
/// assert_eq!(coded.get(&[0, 0])?, 0.5); // normalized long exposure
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AlgorithmicEncoder {
    mask: ExposureMask,
    normalize: bool,
}

impl AlgorithmicEncoder {
    /// Creates an encoder for `mask`.
    ///
    /// Defaults to exposure-count normalization (the paper's pre-ViT
    /// convention); disable it with
    /// [`with_normalization`](Self::with_normalization).
    pub fn new(mask: ExposureMask) -> Self {
        AlgorithmicEncoder {
            mask,
            normalize: true,
        }
    }

    /// Sets whether coded pixels are divided by their exposure count
    /// (see [`encode_normalized`]).
    #[must_use]
    pub fn with_normalization(mut self, normalize: bool) -> Self {
        self.normalize = normalize;
        self
    }
}

impl Sense for AlgorithmicEncoder {
    type Error = crate::CeError;

    fn mask(&self) -> &ExposureMask {
        &self.mask
    }

    fn normalizes(&self) -> bool {
        self.normalize
    }

    fn sense(&mut self, clip: &Tensor) -> Result<Tensor, Self::Error> {
        if self.normalize {
            encode_normalized(clip, &self.mask)
        } else {
            encode(clip, &self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn sense_matches_free_functions() {
        let mut rng = StdRng::seed_from_u64(3);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clip = Tensor::rand_uniform(&mut rng, &[4, 8, 8], 0.0, 1.0);
        let mut enc = AlgorithmicEncoder::new(mask.clone());
        assert!(enc
            .sense(&clip)
            .unwrap()
            .approx_eq(&encode_normalized(&clip, &mask).unwrap(), 0.0));
        let mut raw = AlgorithmicEncoder::new(mask.clone()).with_normalization(false);
        assert!(!raw.normalizes());
        assert!(raw
            .sense(&clip)
            .unwrap()
            .approx_eq(&encode(&clip, &mask).unwrap(), 0.0));
        assert_eq!(enc.mask().num_slots(), 4);
    }

    #[test]
    fn sense_batch_matches_per_clip_loop() {
        let mut rng = StdRng::seed_from_u64(4);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clips = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let mut enc = AlgorithmicEncoder::new(mask);
        let batch = enc.sense_batch(&clips).unwrap();
        assert_eq!(batch.shape(), &[3, 8, 8]);
        for b in 0..3 {
            let single = enc.sense(&clips.index_axis(0, b).unwrap()).unwrap();
            assert!(batch.index_axis(0, b).unwrap().approx_eq(&single, 0.0));
        }
    }

    /// Exercises the trait's *default* `sense_batch` through a minimal
    /// adapter.
    #[test]
    fn default_sense_batch_loops_and_stacks() {
        struct Adapter(AlgorithmicEncoder);
        impl Sense for Adapter {
            type Error = crate::CeError;
            fn mask(&self) -> &ExposureMask {
                self.0.mask()
            }
            fn sense(&mut self, clip: &Tensor) -> Result<Tensor, Self::Error> {
                self.0.sense(clip)
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let clips = Tensor::rand_uniform(&mut rng, &[2, 4, 8, 8], 0.0, 1.0);
        let mut adapter = Adapter(AlgorithmicEncoder::new(mask.clone()));
        let via_default = adapter.sense_batch(&clips).unwrap();
        let via_override = AlgorithmicEncoder::new(mask).sense_batch(&clips).unwrap();
        assert!(via_default.approx_eq(&via_override, 0.0));
        assert!(adapter.sense_batch(&Tensor::zeros(&[4, 8, 8])).is_err());
    }
}
