//! 2-D and 3-D convolutions (direct loops, exact gradients).
//!
//! These exist to support the paper's baselines: C3D needs 3-D
//! convolutions over `[batch, channel, time, h, w]` video volumes, and the
//! SVC2D baseline composes the shift-variant layer in [`crate::svc`] with
//! ordinary 2-D convolutions.
//!
//! One pair of kernels serves both layers. A 2-D convolution is the
//! depth-1 case of the 3-D one: [`Conv2d`] passes its 4-D operands as
//! they are, and the kernels read a `[batch, channel, h, w]` shape as
//! `t = 1` (with `kt = 1`, stride `(1, s, s)` and padding `(0, p, p)`).

use crate::{kaiming_uniform, NnError, ParamId, ParamStore, Result, Session};
use rand::Rng;
use snappix_autograd::Var;
use snappix_tensor::{parallel, Tensor};

/// Multiply-adds each scoped worker must receive before it is worth
/// spawning, fed to [`parallel::workers_for`]. Convolution madds carry
/// index math and bounds checks, so the per-madd cost is several times a
/// matmul's and the floor sits lower — a slab of this size still runs on
/// the order of 100 µs.
const PAR_FLOPS_PER_WORKER: usize = 1 << 15;

/// Effective worker count for a convolution pass of `work` multiply-adds.
fn conv_workers(work: usize) -> usize {
    parallel::workers_for(work, PAR_FLOPS_PER_WORKER)
}

/// 2-D convolution over `[batch, in_ch, h, w]` inputs.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Registers a square-kernel convolution under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] for zero-sized kernel/stride/channels.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if in_ch == 0 || out_ch == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::Config {
                context: format!(
                    "conv2d {name}: in {in_ch}, out {out_ch}, kernel {kernel}, stride {stride}"
                ),
            });
        }
        let fan_in = in_ch * kernel * kernel;
        let weight = store.register(
            format!("{name}.weight"),
            kaiming_uniform(rng, &[out_ch, in_ch, kernel, kernel], fan_in),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_ch]));
        Ok(Conv2d {
            weight,
            bias,
            in_ch,
            kernel,
            stride,
            padding,
        })
    }

    /// Output spatial extent for an input extent `n`.
    pub fn out_extent(&self, n: usize) -> usize {
        (n + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Applies the convolution.
    ///
    /// # Errors
    ///
    /// Fails for inputs that are not `[batch, in_ch, h, w]` or too small
    /// for the kernel.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let xs = sess.graph.value(x).shape().to_vec();
        if xs.len() != 4 || xs[1] != self.in_ch {
            return Err(NnError::Config {
                context: format!("conv2d expects [b, {}, h, w], got {xs:?}", self.in_ch),
            });
        }
        let (h, w) = (xs[2], xs[3]);
        if h + 2 * self.padding < self.kernel || w + 2 * self.padding < self.kernel {
            return Err(NnError::Config {
                context: format!("input {h}x{w} smaller than kernel {}", self.kernel),
            });
        }
        let wv = sess.param(self.weight);
        let bv = sess.param(self.bias);
        // The depth-1 case of the 3-D kernels (see the module docs).
        let stride = (1, self.stride, self.stride);
        let padding = (0, self.padding, self.padding);
        let value = conv3d_forward(
            sess.graph.value(x),
            sess.graph.value(wv),
            sess.graph.value(bv),
            stride,
            padding,
        );
        Ok(sess
            .graph
            .custom_op(value, vec![x, wv, bv], move |g, parents| {
                conv3d_backward(g, parents[0], parents[1], stride, padding)
            })?)
    }
}

/// 3-D convolution over `[batch, in_ch, t, h, w]` video volumes, as used by
/// the C3D baseline (Tran et al., reproduced at small scale).
#[derive(Debug, Clone)]
pub struct Conv3d {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    kernel: (usize, usize, usize),
    stride: (usize, usize, usize),
    padding: (usize, usize, usize),
}

impl Conv3d {
    /// Registers a 3-D convolution under `name` with `(t, h, w)` kernel,
    /// stride and padding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Config`] for zero-sized kernel/stride/channels.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng + ?Sized>(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: (usize, usize, usize),
        stride: (usize, usize, usize),
        padding: (usize, usize, usize),
        rng: &mut R,
    ) -> Result<Self> {
        if in_ch == 0
            || out_ch == 0
            || kernel.0 == 0
            || kernel.1 == 0
            || kernel.2 == 0
            || stride.0 == 0
            || stride.1 == 0
            || stride.2 == 0
        {
            return Err(NnError::Config {
                context: format!("conv3d {name}: degenerate kernel/stride/channels"),
            });
        }
        let fan_in = in_ch * kernel.0 * kernel.1 * kernel.2;
        let weight = store.register(
            format!("{name}.weight"),
            kaiming_uniform(rng, &[out_ch, in_ch, kernel.0, kernel.1, kernel.2], fan_in),
        );
        let bias = store.register(format!("{name}.bias"), Tensor::zeros(&[out_ch]));
        Ok(Conv3d {
            weight,
            bias,
            in_ch,
            kernel,
            stride,
            padding,
        })
    }

    /// Applies the convolution.
    ///
    /// # Errors
    ///
    /// Fails for inputs that are not `[batch, in_ch, t, h, w]` or smaller
    /// than the kernel after padding.
    pub fn forward(&self, sess: &mut Session<'_>, x: Var) -> Result<Var> {
        let xs = sess.graph.value(x).shape().to_vec();
        if xs.len() != 5 || xs[1] != self.in_ch {
            return Err(NnError::Config {
                context: format!("conv3d expects [b, {}, t, h, w], got {xs:?}", self.in_ch),
            });
        }
        let dims = [xs[2], xs[3], xs[4]];
        let k = [self.kernel.0, self.kernel.1, self.kernel.2];
        let p = [self.padding.0, self.padding.1, self.padding.2];
        for i in 0..3 {
            if dims[i] + 2 * p[i] < k[i] {
                return Err(NnError::Config {
                    context: format!("input {dims:?} smaller than kernel {k:?}"),
                });
            }
        }
        let wv = sess.param(self.weight);
        let bv = sess.param(self.bias);
        let value = conv3d_forward(
            sess.graph.value(x),
            sess.graph.value(wv),
            sess.graph.value(bv),
            self.stride,
            self.padding,
        );
        let (stride, padding) = (self.stride, self.padding);
        Ok(sess
            .graph
            .custom_op(value, vec![x, wv, bv], move |g, parents| {
                conv3d_backward(g, parents[0], parents[1], stride, padding)
            })?)
    }
}

/// `[batch, channel, t, h, w]` extents of a convolution operand; a 4-D
/// `[batch, channel, h, w]` shape is the depth-1 case `t = 1`.
fn volume_dims(shape: &[usize]) -> [usize; 5] {
    match *shape {
        [n, c, h, w] => [n, c, 1, h, w],
        [n, c, t, h, w] => [n, c, t, h, w],
        _ => panic!("convolution operands are 4-D or 5-D, got {shape:?}"),
    }
}

/// Batched convolution forward pass over `[batch, cin, t, h, w]`
/// volumes, or `[batch, cin, h, w]` planes at depth 1 (the output keeps
/// the input's rank).
fn conv3d_forward(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> Tensor {
    let [batch, cin, t, h, wid] = volume_dims(x.shape());
    let [cout, _, kt, kh, kw] = volume_dims(w.shape());
    let ot = (t + 2 * pad.0 - kt) / stride.0 + 1;
    let oh = (h + 2 * pad.1 - kh) / stride.1 + 1;
    let ow = (wid + 2 * pad.2 - kw) / stride.2 + 1;
    let mut shape = vec![batch, cout, ot, oh, ow];
    if x.rank() == 4 {
        shape.remove(2);
    }
    let mut out = Tensor::zeros(&shape);
    let (xs, ws, bs) = (x.as_slice(), w.as_slice(), b.as_slice());
    let os = out.as_mut_slice();
    // Parallel over the batch x cout output volumes; within a volume the
    // historical loop order is preserved (bit-for-bit at any thread
    // count).
    let volume = |pi: usize, dst: &mut [f32]| {
        let (bi, f) = (pi / cout, pi % cout);
        for oz in 0..ot {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bs[f];
                    for c in 0..cin {
                        for kz in 0..kt {
                            let iz = (oz * stride.0 + kz) as isize - pad.0 as isize;
                            if iz < 0 || iz as usize >= t {
                                continue;
                            }
                            for ky in 0..kh {
                                let iy = (oy * stride.1 + ky) as isize - pad.1 as isize;
                                if iy < 0 || iy as usize >= h {
                                    continue;
                                }
                                for kx in 0..kw {
                                    let ix = (ox * stride.2 + kx) as isize - pad.2 as isize;
                                    if ix < 0 || ix as usize >= wid {
                                        continue;
                                    }
                                    let xi = (((bi * cin + c) * t + iz as usize) * h + iy as usize)
                                        * wid
                                        + ix as usize;
                                    let wi = (((f * cin + c) * kt + kz) * kh + ky) * kw + kx;
                                    acc += xs[xi] * ws[wi];
                                }
                            }
                        }
                    }
                    dst[(oz * oh + oy) * ow + ox] = acc;
                }
            }
        }
    };
    let workers = conv_workers(batch * cout * ot * oh * ow * cin * kt * kh * kw);
    parallel::with_threads(workers, || {
        parallel::par_chunks_mut(os, ot * oh * ow, volume)
    });
    out
}

/// Batched convolution backward pass, for the operand shapes
/// [`conv3d_forward`] takes.
///
/// A single loop nest would fuse the three gradients, but accumulating
/// `dx` (shared across `cout`) and `dw` (shared across `batch`) from one
/// loop nest cannot be split across workers without locks, so the pass
/// runs three independent sweeps: `dx` parallel over `batch`, `dw`
/// parallel over `cout`, and the tiny `db` reduction serial. Per
/// gradient element the accumulation order matches the fused loop exactly
/// (bit-for-bit at every thread count), because the fused loop already
/// ordered contributions `(f, oz, oy, ox)`-major for `dx` and
/// `(bi, oz, oy, ox)`-major for `dw`.
///
/// The `go == 0.0` skips are kept deliberately, unlike the forward
/// matmul's IEEE-incorrect zero-skip (removed): upstream gradients are
/// routinely *structurally* zero (ReLU masks, clipped losses, one-hot
/// targets), the skip is a large win there, and a gradient that fails to
/// propagate `0 x NaN` does not mask a blowup — the forward pass
/// producing the NaN already reports it.
fn conv3d_backward(
    g: &Tensor,
    x: &Tensor,
    w: &Tensor,
    stride: (usize, usize, usize),
    pad: (usize, usize, usize),
) -> Vec<Tensor> {
    let [batch, cin, t, h, wid] = volume_dims(x.shape());
    let [cout, _, kt, kh, kw] = volume_dims(w.shape());
    let [_, _, ot, oh, ow] = volume_dims(g.shape());
    let mut dx = Tensor::zeros(x.shape());
    let mut dw = Tensor::zeros(w.shape());
    let mut db = Tensor::zeros(&[cout]);
    let (gs, xs, ws) = (g.as_slice(), x.as_slice(), w.as_slice());
    let workers = conv_workers(batch * cout * ot * oh * ow * cin * kt * kh * kw);

    // dx: each worker owns one batch element's input gradient.
    let dx_batch = |bi: usize, dxb: &mut [f32]| {
        for f in 0..cout {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = gs[(((bi * cout + f) * ot + oz) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for c in 0..cin {
                            for kz in 0..kt {
                                let iz = (oz * stride.0 + kz) as isize - pad.0 as isize;
                                if iz < 0 || iz as usize >= t {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = (oy * stride.1 + ky) as isize - pad.1 as isize;
                                    if iy < 0 || iy as usize >= h {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride.2 + kx) as isize - pad.2 as isize;
                                        if ix < 0 || ix as usize >= wid {
                                            continue;
                                        }
                                        dxb[((c * t + iz as usize) * h + iy as usize) * wid
                                            + ix as usize] += go
                                            * ws[(((f * cin + c) * kt + kz) * kh + ky) * kw + kx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    };
    // dw: each worker owns one output filter's weight gradient.
    let dw_filter = |f: usize, dwf: &mut [f32]| {
        for bi in 0..batch {
            for oz in 0..ot {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = gs[(((bi * cout + f) * ot + oz) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        for c in 0..cin {
                            for kz in 0..kt {
                                let iz = (oz * stride.0 + kz) as isize - pad.0 as isize;
                                if iz < 0 || iz as usize >= t {
                                    continue;
                                }
                                for ky in 0..kh {
                                    let iy = (oy * stride.1 + ky) as isize - pad.1 as isize;
                                    if iy < 0 || iy as usize >= h {
                                        continue;
                                    }
                                    for kx in 0..kw {
                                        let ix = (ox * stride.2 + kx) as isize - pad.2 as isize;
                                        if ix < 0 || ix as usize >= wid {
                                            continue;
                                        }
                                        dwf[((c * kt + kz) * kh + ky) * kw + kx] += go
                                            * xs[(((bi * cin + c) * t + iz as usize) * h
                                                + iy as usize)
                                                * wid
                                                + ix as usize];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    };
    {
        let dxs = dx.as_mut_slice();
        let dws = dw.as_mut_slice();
        parallel::with_threads(workers, || {
            parallel::par_chunks_mut(dxs, cin * t * h * wid, dx_batch);
            parallel::par_chunks_mut(dws, cin * kt * kh * kw, dw_filter);
        });
        let dbs = db.as_mut_slice();
        let vol = ot * oh * ow;
        for (f, dbf) in dbs.iter_mut().enumerate() {
            for bi in 0..batch {
                let plane = &gs[(bi * cout + f) * vol..(bi * cout + f + 1) * vol];
                for &go in plane {
                    if go != 0.0 {
                        *dbf += go;
                    }
                }
            }
        }
    }
    vec![dx, dw, db]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use snappix_autograd::check_gradients;

    #[test]
    fn conv2d_identity_kernel() {
        // 1x1 kernel with weight 1 and zero bias reproduces the input.
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 1, 1, 1, 1, 0, &mut rng).unwrap();
        let ids = store.ids();
        *store.value_mut(ids[0]) = Tensor::ones(&[1, 1, 1, 1]);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 3, 3], -1.0, 1.0);
        let mut sess = Session::inference(&store);
        let xv = sess.input(x.clone());
        let y = conv.forward(&mut sess, xv).unwrap();
        assert!(sess.graph.value(y).approx_eq(&x, 1e-6));
    }

    #[test]
    fn conv2d_shapes_with_stride_and_padding() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let conv = Conv2d::new(&mut store, "c", 2, 3, 3, 2, 1, &mut rng).unwrap();
        assert_eq!(conv.out_extent(8), 4);
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[2, 2, 8, 8]));
        let y = conv.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn conv2d_validation() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        assert!(Conv2d::new(&mut store, "c", 0, 1, 3, 1, 0, &mut rng).is_err());
        assert!(Conv2d::new(&mut store, "c", 1, 1, 0, 1, 0, &mut rng).is_err());
        let conv = Conv2d::new(&mut store, "c", 1, 1, 3, 1, 0, &mut rng).unwrap();
        let mut sess = Session::inference(&store);
        let bad_ch = sess.input(Tensor::zeros(&[1, 2, 8, 8]));
        assert!(conv.forward(&mut sess, bad_ch).is_err());
        let too_small = sess.input(Tensor::zeros(&[1, 1, 2, 2]));
        assert!(conv.forward(&mut sess, too_small).is_err());
    }

    #[test]
    fn conv2d_gradients_numeric() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::rand_uniform(&mut rng, &[1, 2, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[2, 2, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[2], -0.5, 0.5);
        check_gradients(&[x, w, b], |g, vars| {
            let (stride, pad) = ((1, 1, 1), (0, 1, 1));
            let value = conv3d_forward(
                g.value(vars[0]),
                g.value(vars[1]),
                g.value(vars[2]),
                stride,
                pad,
            );
            let y = g.custom_op(
                value,
                vec![vars[0], vars[1], vars[2]],
                move |up, parents| conv3d_backward(up, parents[0], parents[1], stride, pad),
            )?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }

    #[test]
    fn conv3d_shapes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut store = ParamStore::new();
        let conv = Conv3d::new(
            &mut store,
            "c3",
            1,
            4,
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            &mut rng,
        )
        .unwrap();
        let mut sess = Session::inference(&store);
        let x = sess.input(Tensor::zeros(&[1, 1, 8, 8, 8]));
        let y = conv.forward(&mut sess, x).unwrap();
        assert_eq!(sess.graph.value(y).shape(), &[1, 4, 8, 8, 8]);
    }

    #[test]
    fn conv3d_gradients_numeric() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform(&mut rng, &[1, 1, 3, 4, 4], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[2, 1, 2, 2, 2], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[2], -0.5, 0.5);
        check_gradients(&[x, w, b], |g, vars| {
            let value = conv3d_forward(
                g.value(vars[0]),
                g.value(vars[1]),
                g.value(vars[2]),
                (1, 1, 1),
                (0, 0, 0),
            );
            let y = g.custom_op(value, vec![vars[0], vars[1], vars[2]], |up, parents| {
                conv3d_backward(up, parents[0], parents[1], (1, 1, 1), (0, 0, 0))
            })?;
            let q = g.mul(y, y)?;
            g.sum(q)
        })
        .unwrap();
    }

    /// Forward and backward must be bit-for-bit identical across thread
    /// counts 1, 2 and > batch*cout, on odd shapes with stride and
    /// padding (micro-split remainders on every axis).
    #[test]
    fn conv2d_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(7);
        // Sized for >= 2 workers' worth of PAR_FLOPS_PER_WORKER so the
        // parallel path actually engages (4*6 planes of 10x11 outputs,
        // 27-element kernels).
        let x = Tensor::rand_uniform(&mut rng, &[4, 3, 19, 21], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[6, 3, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[6], -0.5, 0.5);
        // `Conv2d`'s depth-1 call into the shared kernels.
        let (stride, pad) = ((1, 2, 2), (0, 1, 1));
        let y_ref = with_threads(1, || conv3d_forward(&x, &w, &b, stride, pad));
        let g = Tensor::rand_uniform(&mut rng, y_ref.shape(), -1.0, 1.0);
        let grads_ref = with_threads(1, || conv3d_backward(&g, &x, &w, stride, pad));
        for threads in [2usize, 4, 4 * 6 + 2] {
            let y = with_threads(threads, || conv3d_forward(&x, &w, &b, stride, pad));
            assert_eq!(y.as_slice(), y_ref.as_slice(), "{threads} threads");
            let grads = with_threads(threads, || conv3d_backward(&g, &x, &w, stride, pad));
            for (got, want) in grads.iter().zip(&grads_ref) {
                assert_eq!(got.as_slice(), want.as_slice(), "{threads} threads");
            }
        }
    }

    #[test]
    fn conv3d_parallel_matches_serial_bit_for_bit() {
        use snappix_tensor::parallel::with_threads;
        let mut rng = StdRng::seed_from_u64(8);
        // >= 4 workers' worth of PAR_FLOPS_PER_WORKER (3*4 volumes of
        // 7x5x9 outputs, 36-element kernels).
        let x = Tensor::rand_uniform(&mut rng, &[3, 2, 6, 9, 11], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[4, 2, 2, 3, 3], -0.5, 0.5);
        let b = Tensor::rand_uniform(&mut rng, &[4], -0.5, 0.5);
        let (stride, pad) = ((1, 2, 1), (1, 1, 0));
        let y_ref = with_threads(1, || conv3d_forward(&x, &w, &b, stride, pad));
        let g = Tensor::rand_uniform(&mut rng, y_ref.shape(), -1.0, 1.0);
        let grads_ref = with_threads(1, || conv3d_backward(&g, &x, &w, stride, pad));
        for threads in [2usize, 3 * 4 + 5] {
            let y = with_threads(threads, || conv3d_forward(&x, &w, &b, stride, pad));
            assert_eq!(y.as_slice(), y_ref.as_slice(), "{threads} threads");
            let grads = with_threads(threads, || conv3d_backward(&g, &x, &w, stride, pad));
            for (got, want) in grads.iter().zip(&grads_ref) {
                assert_eq!(got.as_slice(), want.as_slice(), "{threads} threads");
            }
        }
    }

    #[test]
    fn conv3d_validation() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut store = ParamStore::new();
        assert!(Conv3d::new(
            &mut store,
            "c",
            1,
            1,
            (0, 3, 3),
            (1, 1, 1),
            (0, 0, 0),
            &mut rng
        )
        .is_err());
        let conv = Conv3d::new(
            &mut store,
            "c",
            2,
            1,
            (3, 3, 3),
            (1, 1, 1),
            (0, 0, 0),
            &mut rng,
        )
        .unwrap();
        let mut sess = Session::inference(&store);
        let bad = sess.input(Tensor::zeros(&[1, 1, 8, 8, 8]));
        assert!(conv.forward(&mut sess, bad).is_err());
        let small = sess.input(Tensor::zeros(&[1, 2, 2, 8, 8]));
        assert!(conv.forward(&mut sess, small).is_err());
    }

    /// FNV-1a 64 hashes of the bit patterns of the forward output and of
    /// the `dx`, `dw` and `db` gradients of one layer call, driven through
    /// the public `forward` and the autograd tape with an upstream
    /// gradient whose every third element is zero (the `go == 0.0`
    /// skips).
    fn layer_hashes(
        store: &ParamStore,
        x: Tensor,
        forward: impl Fn(&mut Session<'_>, Var) -> Result<Var>,
        rng: &mut StdRng,
    ) -> [u64; 4] {
        let mut sess = Session::new(store);
        let xv = sess.graph.leaf(x, true);
        let y = forward(&mut sess, xv).unwrap();
        let mut g = Tensor::rand_uniform(rng, sess.graph.value(y).shape(), -1.0, 1.0);
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let gv = sess.input(g);
        let weighted = sess.graph.mul(y, gv).unwrap();
        let loss = sess.graph.sum(weighted).unwrap();
        let grads = sess.backward(loss).unwrap();
        let ids = store.ids();
        let hash = |t: &Tensor| {
            let bytes: Vec<u8> = t.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect();
            crate::fnv1a64(&bytes)
        };
        [
            hash(sess.graph.value(y)),
            hash(sess.graph.grad(xv).unwrap()),
            hash(grads.get(ids[0]).unwrap()),
            hash(grads.get(ids[1]).unwrap()),
        ]
    }

    /// Golden bits of both layers, forward and backward, recorded when
    /// `Conv2d` and `Conv3d` each had their own kernels: any change to an
    /// accumulation order, a skip or the parallel split shows here. The
    /// first 2-D and 3-D cases are large enough to split across workers.
    #[test]
    fn conv_kernels_match_golden_bits() {
        let mut rng = StdRng::seed_from_u64(9);
        let conv2d = [
            // (batch, in, out, h, w, kernel, stride, padding)
            (4, 3, 6, 19, 21, 3, 2, 1),
            (2, 2, 3, 7, 6, 2, 1, 0),
            (1, 1, 2, 5, 5, 3, 3, 2),
        ];
        let mut got = Vec::new();
        for (batch, cin, cout, h, w, k, s, p) in conv2d {
            let mut store = ParamStore::new();
            let conv = Conv2d::new(&mut store, "c", cin, cout, k, s, p, &mut rng).unwrap();
            let x = Tensor::rand_uniform(&mut rng, &[batch, cin, h, w], -1.0, 1.0);
            got.push(layer_hashes(
                &store,
                x,
                |sess, x| conv.forward(sess, x),
                &mut rng,
            ));
        }
        let conv3d = [
            // (batch, in, out, [t, h, w], kernel, stride, padding)
            (3, 2, 4, [6, 9, 11], (2, 3, 3), (1, 2, 2), (1, 1, 1)),
            (1, 1, 2, [4, 5, 5], (3, 1, 2), (2, 1, 2), (0, 0, 1)),
        ];
        for (batch, cin, cout, [t, h, w], k, s, p) in conv3d {
            let mut store = ParamStore::new();
            let conv = Conv3d::new(&mut store, "c", cin, cout, k, s, p, &mut rng).unwrap();
            let x = Tensor::rand_uniform(&mut rng, &[batch, cin, t, h, w], -1.0, 1.0);
            got.push(layer_hashes(
                &store,
                x,
                |sess, x| conv.forward(sess, x),
                &mut rng,
            ));
        }
        let want: [[u64; 4]; 5] = [
            [
                0x01c437b8086bb5f3,
                0x7f7d4fdf95081e66,
                0xd90421e2679f358b,
                0x2986e14ef2475ee3,
            ],
            [
                0xfa98cd65b7b6cfef,
                0x53ef7215d3222a83,
                0xd4c03fe2e6bd3d3c,
                0x86a4fe4545c68993,
            ],
            [
                0x88fca25ae4c6b2d8,
                0xeb204f3f39ce4159,
                0xc67e711eda86649c,
                0x7525300d0897fb9e,
            ],
            [
                0xebe6974dfc2486b6,
                0x769ec6e6353d238d,
                0xc377e2c027302de4,
                0x25819c9eff94edbd,
            ],
            [
                0x499d92dddf4d6beb,
                0x9ad83caaa7b28139,
                0x56b0478cc67fd003,
                0x51140582b9aaffad,
            ],
        ];
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "case {i}: [forward, dx, dw, db]");
        }
    }
}
