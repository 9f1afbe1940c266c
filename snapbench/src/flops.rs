//! Computed kernel counts for one SnapPix ViT forward pass: floating
//! point operations and bytes moved, derived from the `VitConfig`
//! shapes alone (nothing here is measured).
//!
//! Conventions, per clip:
//! * a matmul `[m, k] x [k, n]` is `2mkn` FLOPs; a bias add `mn`;
//! * LayerNorm is 7 FLOPs per element (two reductions, centre, square,
//!   normalise, scale, shift), softmax 5 per score (max, subtract, exp,
//!   sum, divide), GELU 8 per element, the attention scale 1 per score;
//! * bytes moved are f32 operands read once plus the output written
//!   once per op, with no cache reuse between ops.

use snappix_models::VitConfig;

/// FLOPs and bytes of one op, or of a sum of ops.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Count {
    pub flops: f64,
    pub bytes: f64,
}

impl std::ops::Add for Count {
    type Output = Count;
    fn add(self, o: Count) -> Count {
        Count {
            flops: self.flops + o.flops,
            bytes: self.bytes + o.bytes,
        }
    }
}

const F32: f64 = 4.0;

/// `[m, k] x [k, n]` plus an `n`-wide bias.
fn linear(m: f64, k: f64, n: f64) -> Count {
    Count {
        flops: 2.0 * m * k * n + m * n,
        bytes: F32 * (m * k + k * n + n + m * n),
    }
}

/// An elementwise op over `elems` inputs costing `per` FLOPs each.
fn pointwise(elems: f64, per: f64, operands: f64) -> Count {
    Count {
        flops: per * elems,
        bytes: F32 * elems * (operands + 1.0),
    }
}

/// One pre-norm transformer block over `n` tokens.
pub fn block(cfg: &VitConfig) -> Count {
    let n = cfg.num_tokens() as f64;
    let d = cfg.dim as f64;
    let h = cfg.heads as f64;
    let dh = d / h;
    let m = d * cfg.mlp_ratio as f64;
    let scores = h * n * n;
    let layer_norm = pointwise(n * d, 7.0, 1.0);
    let attention = linear(n, d, d) + linear(n, d, d) + linear(n, d, d)
        // Q K^T per head, then the scale and the softmax over the scores.
        + Count {
            flops: 2.0 * h * n * n * dh,
            bytes: F32 * (2.0 * n * d + scores),
        }
        + pointwise(scores, 1.0, 1.0)
        + pointwise(scores, 5.0, 1.0)
        // softmax(QK^T) V per head.
        + Count {
            flops: 2.0 * h * n * n * dh,
            bytes: F32 * (scores + 2.0 * n * d),
        }
        + linear(n, d, d);
    let mlp = linear(n, d, m) + pointwise(n * m, 8.0, 1.0) + linear(n, m, d);
    let residuals = pointwise(n * d, 1.0, 2.0) + pointwise(n * d, 1.0, 2.0);
    layer_norm + attention + layer_norm + mlp + residuals
}

/// One full forward pass for one clip: patch embedding, positional
/// add, every block, mean pool and the classification head.
pub fn forward(cfg: &VitConfig) -> Count {
    let n = cfg.num_tokens() as f64;
    let d = cfg.dim as f64;
    let embed = linear(n, cfg.patch_pixels() as f64, d) + pointwise(n * d, 1.0, 2.0);
    let blocks = (0..cfg.depth).fold(Count::default(), |acc, _| acc + block(cfg));
    let pool = Count {
        flops: n * d,
        bytes: F32 * (n * d + d),
    };
    embed + blocks + pool + linear(1.0, d, cfg.num_classes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SnapPix-S at 16x16: 4 tokens of width 32, 4 heads of 8, MLP 64.
    #[test]
    fn snappix_s_block_matches_a_hand_count() {
        let cfg = VitConfig::snappix_s(16, 16, 10);
        let (n, d, m, s) = (4.0, 32.0, 64.0, 4.0 * 4.0 * 4.0); // s = heads * n * n
        let matmuls = 4.0 * (2.0 * n * d * d) // q, k, v, proj
            + 2.0 * (2.0 * n * n * d)          // QK^T and AV over all heads
            + 2.0 * (2.0 * n * d * m); // fc1, fc2
        assert_eq!(matmuls, 32768.0 + 2048.0 + 32768.0);
        let biases = 4.0 * n * d + n * m + n * d;
        let pointwise = 2.0 * 7.0 * n * d // two LayerNorms
            + s + 5.0 * s                  // scale, softmax
            + 8.0 * n * m                  // GELU
            + 2.0 * n * d; // two residual adds
        let flops = block(&cfg).flops;
        assert_eq!(flops, matmuls + biases + pointwise);
        assert_eq!(flops, 67584.0 + 896.0 + 4480.0);

        // Bytes: every operand read once, every output written once.
        let f = 4.0;
        let proj = f * (n * d + d * d + d + n * d); // q, k, v, proj each
        let scores = f * (2.0 * n * d + s); // QK^T, and AV the same
        let fc1 = f * (n * d + d * m + m + n * m);
        let fc2 = f * (n * m + m * d + d + n * d);
        let bytes = 2.0 * f * 2.0 * n * d // two LayerNorms
            + 4.0 * proj
            + 2.0 * scores
            + 2.0 * f * 2.0 * s            // scale, softmax
            + fc1 + f * 2.0 * n * m + fc2  // fc1, GELU, fc2
            + 2.0 * f * 3.0 * n * d; // two residual adds
        assert_eq!(block(&cfg).bytes, bytes);
        assert_eq!(bytes, 51584.0);
    }

    #[test]
    fn snappix_b_costs_more_than_s_per_clip() {
        let s = forward(&VitConfig::snappix_s(16, 16, 10));
        let b = forward(&VitConfig::snappix_b(32, 32, 10));
        assert!(b.flops > 10.0 * s.flops, "{} vs {}", b.flops, s.flops);
        assert!(b.bytes > s.bytes);
    }
}
