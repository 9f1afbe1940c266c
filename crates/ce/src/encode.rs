//! The coded-exposure integration (paper Eqn. 1).

use crate::{CeError, ExposureMask, Result};
use snappix_tensor::Tensor;

/// Encodes a `[t, h, w]` video into one `[h, w]` coded image (Eqn. 1):
/// `X(i, j) = sum_t M(i, j, t) * Y(i, j, t)`.
///
/// This is the *algorithmic reference implementation* of what the sensor
/// hardware in `snappix-sensor` does physically; the integration tests
/// assert the two agree bit-for-bit in the noiseless case.
///
/// # Errors
///
/// Returns [`CeError::InvalidMask`] when the mask's slot count differs from
/// the video's frame count or the tile does not divide the frame.
///
/// # Examples
///
/// ```
/// use snappix_ce::{encode, patterns};
/// use snappix_tensor::Tensor;
///
/// # fn main() -> Result<(), snappix_ce::CeError> {
/// let video = Tensor::full(&[4, 8, 8], 0.25);
/// let mask = patterns::long_exposure(4, (4, 4))?;
/// let coded = encode(&video, &mask)?;
/// assert_eq!(coded.get(&[0, 0]).unwrap(), 1.0); // 4 slots x 0.25
/// # Ok(())
/// # }
/// ```
pub fn encode(video: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    if video.rank() != 3 {
        return Err(CeError::Tensor(snappix_tensor::TensorError::RankMismatch {
            expected: 3,
            got: video.rank(),
        }));
    }
    let (t, h, w) = (video.shape()[0], video.shape()[1], video.shape()[2]);
    if t != mask.num_slots() {
        return Err(CeError::InvalidMask {
            context: format!(
                "mask has {} slots but video has {t} frames",
                mask.num_slots()
            ),
        });
    }
    let full = mask.expand_to(h, w)?;
    let mut out = Tensor::zeros(&[h, w]);
    let (vs, ms) = (video.as_slice(), full.as_slice());
    let os = out.as_mut_slice();
    for f in 0..t {
        let base = f * h * w;
        for i in 0..h * w {
            os[i] += ms[base + i] * vs[base + i];
        }
    }
    Ok(out)
}

/// Like [`encode`] but divides every pixel by its exposure count, the
/// normalization the paper applies before feeding the ViT (Sec. IV).
/// Pixels never exposed are left at zero.
///
/// # Errors
///
/// Same conditions as [`encode`].
pub fn encode_normalized(video: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    let coded = encode(video, mask)?;
    Ok(normalize_coded(&coded, mask))
}

/// Encodes a `[batch, t, h, w]` batch into `[batch, h, w]` coded images.
///
/// # Errors
///
/// Same conditions as [`encode`], plus rank validation of the batch.
pub fn encode_batch(videos: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    encode_each(videos, mask, encode)
}

/// Batched [`encode_normalized`].
///
/// # Errors
///
/// Same conditions as [`encode_batch`].
pub fn encode_batch_normalized(videos: &Tensor, mask: &ExposureMask) -> Result<Tensor> {
    encode_each(videos, mask, encode_normalized)
}

/// Runs `code` on every clip of a `[batch, t, h, w]` batch and stacks the
/// coded images.
fn encode_each(
    videos: &Tensor,
    mask: &ExposureMask,
    code: fn(&Tensor, &ExposureMask) -> Result<Tensor>,
) -> Result<Tensor> {
    if videos.rank() != 4 {
        return Err(CeError::Tensor(snappix_tensor::TensorError::RankMismatch {
            expected: 4,
            got: videos.rank(),
        }));
    }
    let batch = videos.shape()[0];
    let mut coded = Vec::with_capacity(batch);
    for b in 0..batch {
        coded.push(code(&videos.index_axis(0, b)?, mask)?);
    }
    let refs: Vec<&Tensor> = coded.iter().collect();
    Ok(Tensor::stack(&refs, 0)?)
}

/// Divides a raw `[h, w]` coded image by each pixel's exposure count (the
/// paper's pre-ViT normalization); unexposed pixels stay zero.
///
/// Useful when the coded image came from the hardware simulator rather
/// than [`encode`], e.g. a digitized sensor readout.
pub fn normalize_coded(coded: &Tensor, mask: &ExposureMask) -> Tensor {
    let (h, w) = (coded.shape()[0], coded.shape()[1]);
    let (th, tw) = mask.tile();
    let counts = mask.exposure_counts();
    let cs = counts.as_slice();
    let mut out = coded.clone();
    let os = out.as_mut_slice();
    for y in 0..h {
        for x in 0..w {
            let c = cs[(y % th) * tw + (x % tw)];
            if c > 0.0 {
                os[y * w + x] /= c;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn long_exposure_sums_all_frames() {
        let video = Tensor::arange(2 * 2 * 2).reshape(&[2, 2, 2]).unwrap();
        let mask = patterns::long_exposure(2, (2, 2)).unwrap();
        let coded = encode(&video, &mask).unwrap();
        // pixel (0,0): frames 0 and 4.
        assert_eq!(coded.as_slice(), &[4.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn closed_mask_gives_zero_image() {
        let video = Tensor::ones(&[2, 4, 4]);
        let mut p = Tensor::zeros(&[2, 2, 2]);
        p.set(&[0, 0, 0], 0.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(coded.sum(), 0.0);
    }

    #[test]
    fn mask_selects_frames_per_pixel() {
        // 2 slots, 1x2 tile: pixel col even -> slot 0, col odd -> slot 1.
        let mut p = Tensor::zeros(&[2, 1, 2]);
        p.set(&[0, 0, 0], 1.0).unwrap();
        p.set(&[1, 0, 1], 1.0).unwrap();
        let mask = ExposureMask::new(p).unwrap();
        let f0 = Tensor::full(&[1, 2, 4], 10.0);
        let f1 = Tensor::full(&[1, 2, 4], 20.0);
        let video = Tensor::concat(&[&f0, &f1], 0).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(
            coded.as_slice(),
            &[10.0, 20.0, 10.0, 20.0, 10.0, 20.0, 10.0, 20.0]
        );
    }

    #[test]
    fn compression_is_t_to_one() {
        let mut rng = StdRng::seed_from_u64(0);
        let video = Tensor::rand_uniform(&mut rng, &[16, 16, 16], 0.0, 1.0);
        let mask = patterns::random(16, (8, 8), 0.5, &mut rng).unwrap();
        let coded = encode(&video, &mask).unwrap();
        assert_eq!(coded.len() * 16, video.len());
    }

    #[test]
    fn normalization_divides_by_exposure_count() {
        let video = Tensor::full(&[4, 4, 4], 1.0);
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        let n = encode_normalized(&video, &mask).unwrap();
        assert!(n.approx_eq(&Tensor::ones(&[4, 4]), 1e-6));
    }

    #[test]
    fn normalization_leaves_unexposed_pixels_at_zero() {
        let video = Tensor::full(&[2, 2, 2], 1.0);
        let mut p = Tensor::zeros(&[2, 2, 2]);
        p.set(&[0, 0, 0], 1.0).unwrap(); // only pixel (0,0), slot 0
        let mask = ExposureMask::new(p).unwrap();
        let n = encode_normalized(&video, &mask).unwrap();
        assert_eq!(n.get(&[0, 0]).unwrap(), 1.0);
        assert_eq!(n.get(&[1, 1]).unwrap(), 0.0);
    }

    #[test]
    fn batch_encode_matches_singles() {
        let mut rng = StdRng::seed_from_u64(1);
        let videos = Tensor::rand_uniform(&mut rng, &[3, 4, 8, 8], 0.0, 1.0);
        let mask = patterns::random(4, (4, 4), 0.5, &mut rng).unwrap();
        let batch = encode_batch(&videos, &mask).unwrap();
        assert_eq!(batch.shape(), &[3, 8, 8]);
        for b in 0..3 {
            let single = encode(&videos.index_axis(0, b).unwrap(), &mask).unwrap();
            assert!(batch.index_axis(0, b).unwrap().approx_eq(&single, 1e-6));
        }
        let nbatch = encode_batch_normalized(&videos, &mask).unwrap();
        assert_eq!(nbatch.shape(), &[3, 8, 8]);
    }

    #[test]
    fn validation_errors() {
        let mask = patterns::long_exposure(4, (2, 2)).unwrap();
        assert!(encode(&Tensor::zeros(&[3, 4, 4]), &mask).is_err()); // t mismatch
        assert!(encode(&Tensor::zeros(&[4, 5, 4]), &mask).is_err()); // tile mismatch
        assert!(encode(&Tensor::zeros(&[4, 4]), &mask).is_err()); // rank
        assert!(encode_batch(&Tensor::zeros(&[4, 4, 4]), &mask).is_err());
    }
}
