//! The layer vocabulary of the paper's models.

use crate::model::ModelError;
use crate::tensor::Tensor;
use crate::WeightRng;
use core::fmt;

/// A 2-D valid-padding convolution layer with an optional shared
/// kernel-shape pruning mask.
///
/// Weights are `[out_ch][in_ch][kh][kw]` row-major. The mask has one flag
/// per kernel position (`in_ch·kh·kw`), shared by every filter — this is
/// the "filter shape" variant of structured pruning (§II: pruning may
/// remove "entire filters, channels, or filter shapes"), which keeps the
/// output geometry intact while halving the per-window MAC length, exactly
/// how Table II's "Structured Pruning 2x" on MNIST conv2 is realized.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    out_ch: usize,
    in_ch: usize,
    kh: usize,
    kw: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
    kernel_mask: Vec<bool>,
}

impl Conv2d {
    /// Creates a Xavier-initialized convolution.
    pub fn new(out_ch: usize, in_ch: usize, kh: usize, kw: usize, rng: &mut WeightRng) -> Self {
        let fan_in = in_ch * kh * kw;
        let fan_out = out_ch * kh * kw;
        Conv2d {
            out_ch,
            in_ch,
            kh,
            kw,
            weights: rng.xavier_vec(out_ch * in_ch * kh * kw, fan_in, fan_out),
            bias: vec![0.0; out_ch],
            kernel_mask: vec![true; in_ch * kh * kw],
        }
    }

    /// Output channels.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Input channels.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Kernel height.
    pub fn kh(&self) -> usize {
        self.kh
    }

    /// Kernel width.
    pub fn kw(&self) -> usize {
        self.kw
    }

    /// Flat weights, `[out][in][kh][kw]`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Flat weights, mutable (training).
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Per-filter bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Per-filter bias, mutable.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// The shared kernel-shape mask (`in_ch·kh·kw` flags).
    pub fn kernel_mask(&self) -> &[bool] {
        &self.kernel_mask
    }

    /// Installs a pruning mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask length differs from `in_ch·kh·kw`.
    pub fn set_kernel_mask(&mut self, mask: Vec<bool>) {
        assert_eq!(
            mask.len(),
            self.in_ch * self.kh * self.kw,
            "mask length must equal in_ch*kh*kw"
        );
        self.kernel_mask = mask;
        // Masked weights are definitionally zero.
        self.apply_mask();
    }

    /// Zeroes all masked weights (idempotent).
    pub fn apply_mask(&mut self) {
        let per_filter = self.in_ch * self.kh * self.kw;
        for o in 0..self.out_ch {
            for k in 0..per_filter {
                if !self.kernel_mask[k] {
                    self.weights[o * per_filter + k] = 0.0;
                }
            }
        }
    }

    /// Kernel positions kept by the mask.
    pub fn kept_positions(&self) -> usize {
        self.kernel_mask.iter().filter(|&&m| m).count()
    }

    /// Total weight count (dense storage).
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Weights surviving the mask (what actually ships to the device).
    pub fn active_param_count(&self) -> usize {
        self.out_ch * self.kept_positions() + self.bias.len()
    }

    /// Valid-convolution forward pass.
    pub(crate) fn forward(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        let shape = x.shape();
        if shape.len() != 3 || shape[0] != self.in_ch {
            return Err(ModelError::LayerInput {
                layer: "Conv2d",
                detail: format!("expected [{}, h, w], got {:?}", self.in_ch, shape),
            });
        }
        let (ih, iw) = (shape[1], shape[2]);
        if self.kh > ih || self.kw > iw {
            return Err(ModelError::LayerInput {
                layer: "Conv2d",
                detail: format!(
                    "kernel {}x{} larger than input {}x{}",
                    self.kh, self.kw, ih, iw
                ),
            });
        }
        let (oh, ow) = (ih - self.kh + 1, iw - self.kw + 1);
        let mut out = Tensor::zeros(&[self.out_ch, oh, ow]);
        let xs = x.as_slice();
        let per_filter = self.in_ch * self.kh * self.kw;
        // Streamed by output plane: the plane starts at the bias and every
        // kept kernel position, in (c, u, v) order, adds one axpy per
        // output row. Each output sums the same terms in the same order
        // as a per-window loop, so the bits match it.
        let planes = out.as_mut_slice().chunks_exact_mut(oh * ow);
        for (o, plane) in planes.enumerate() {
            plane.fill(self.bias[o]);
            let filter = &self.weights[o * per_filter..(o + 1) * per_filter];
            for (k, &w) in filter.iter().enumerate() {
                if !self.kernel_mask[k] {
                    continue;
                }
                let (c, u, v) = (
                    k / (self.kh * self.kw),
                    (k / self.kw) % self.kh,
                    k % self.kw,
                );
                for (i, row) in plane.chunks_exact_mut(ow).enumerate() {
                    let xrow = &xs[(c * ih + i + u) * iw + v..][..ow];
                    for (y, &xv) in row.iter_mut().zip(xrow) {
                        *y += w * xv;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// A fully-connected layer, weights `[out][in]` row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    out_dim: usize,
    in_dim: usize,
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Dense {
    /// Creates a Xavier-initialized dense layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut WeightRng) -> Self {
        Dense {
            out_dim,
            in_dim,
            weights: rng.xavier_vec(out_dim * in_dim, in_dim, out_dim),
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Flat weights, `[out][in]`.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Flat weights, mutable.
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Bias vector, mutable.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    pub(crate) fn forward(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        if x.len() != self.in_dim {
            return Err(ModelError::LayerInput {
                layer: "Dense",
                detail: format!("expected {} inputs, got {}", self.in_dim, x.len()),
            });
        }
        let xs = x.as_slice();
        let mut out = vec![0.0f32; self.out_dim];
        for (o, out_v) in out.iter_mut().enumerate() {
            let row = &self.weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = self.bias[o];
            for (w, v) in row.iter().zip(xs) {
                acc += w * v;
            }
            *out_v = acc;
        }
        Tensor::from_vec(out, &[self.out_dim])
    }
}

/// A block-circulant fully-connected layer (the paper's BCM compression).
///
/// The `out_dim × in_dim` weight matrix is partitioned into a
/// `rows_b × cols_b` grid of `block × block` circulant sub-matrices, each
/// stored as its **first column** only — `block` floats instead of
/// `block²`, the `block×` storage reduction of Table I. Dimensions that
/// do not divide evenly are zero-padded (e.g. HAR's 3520×128 at block 128
/// pads the input side to 28 blocks).
#[derive(Debug, Clone, PartialEq)]
pub struct BcmDense {
    in_dim: usize,
    out_dim: usize,
    block: usize,
    rows_b: usize,
    cols_b: usize,
    /// `rows_b * cols_b` first-column vectors, row-major over blocks.
    blocks: Vec<Vec<f32>>,
    bias: Vec<f32>,
}

impl BcmDense {
    /// Creates a Xavier-initialized BCM layer.
    ///
    /// # Panics
    ///
    /// Panics if `block` is zero or not a power of two (the FFT path —
    /// and the LEA — require power-of-two transforms).
    pub fn new(in_dim: usize, out_dim: usize, block: usize, rng: &mut WeightRng) -> Self {
        assert!(
            block > 0 && block.is_power_of_two(),
            "block must be a power of two"
        );
        let rows_b = out_dim.div_ceil(block);
        let cols_b = in_dim.div_ceil(block);
        // Circulant blocks act like dense rows of length in_dim for fan-in.
        let blocks = (0..rows_b * cols_b)
            .map(|_| rng.xavier_vec(block, in_dim, out_dim))
            .collect();
        BcmDense {
            in_dim,
            out_dim,
            block,
            rows_b,
            cols_b,
            blocks,
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension (unpadded).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension (unpadded).
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Circulant block size.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Block-grid rows (`ceil(out_dim / block)`).
    pub fn rows_b(&self) -> usize {
        self.rows_b
    }

    /// Block-grid columns (`ceil(in_dim / block)`).
    pub fn cols_b(&self) -> usize {
        self.cols_b
    }

    /// First-column vector of the block at grid position `(rb, cb)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the grid.
    pub fn block_at(&self, rb: usize, cb: usize) -> &[f32] {
        assert!(
            rb < self.rows_b && cb < self.cols_b,
            "block index out of grid"
        );
        &self.blocks[rb * self.cols_b + cb]
    }

    /// Mutable first-column vector of a block.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the grid.
    pub fn block_at_mut(&mut self, rb: usize, cb: usize) -> &mut Vec<f32> {
        assert!(
            rb < self.rows_b && cb < self.cols_b,
            "block index out of grid"
        );
        &mut self.blocks[rb * self.cols_b + cb]
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Bias vector, mutable.
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Stored parameter count (`rows_b·cols_b·block + out_dim`) — the
    /// compressed footprint.
    pub fn param_count(&self) -> usize {
        self.blocks.len() * self.block + self.bias.len()
    }

    /// Parameter count of the equivalent dense layer.
    pub fn dense_param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    /// Storage reduction factor vs. dense (≈ `block` for divisible dims —
    /// the Table I column).
    pub fn compression_factor(&self) -> f64 {
        (self.in_dim * self.out_dim) as f64 / (self.blocks.len() * self.block) as f64
    }

    pub(crate) fn forward(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        if x.len() != self.in_dim {
            return Err(ModelError::LayerInput {
                layer: "BcmDense",
                detail: format!("expected {} inputs, got {}", self.in_dim, x.len()),
            });
        }
        // Zero-pad the input to the block grid.
        let mut xp = vec![0.0f64; self.cols_b * self.block];
        for (d, s) in xp.iter_mut().zip(x.as_slice()) {
            *d = *s as f64;
        }
        let mut yp = vec![0.0f64; self.rows_b * self.block];
        let mut w = vec![0.0f64; self.block];
        for (yslice, row) in yp
            .chunks_exact_mut(self.block)
            .zip(self.blocks.chunks_exact(self.cols_b))
        {
            for (block, xblk) in row.iter().zip(xp.chunks_exact(self.block)) {
                for (d, &s) in w.iter_mut().zip(block) {
                    *d = s as f64;
                }
                // Each block's product is summed on its own, then added
                // into the row: folding it straight into `yslice` would
                // reassociate the sum and move the bits.
                let prod = ehdl_dsp::circulant::matvec_f64(&w, xblk);
                for (y, p) in yslice.iter_mut().zip(&prod) {
                    *y += p;
                }
            }
        }
        let out: Vec<f32> = yp[..self.out_dim]
            .iter()
            .zip(&self.bias)
            .map(|(&y, &b)| y as f32 + b)
            .collect();
        Tensor::from_vec(out, &[self.out_dim])
    }

    /// Expands to the equivalent dense weight matrix, `[out][in]`
    /// row-major (testing, and RAD's dense↔BCM projections).
    pub fn to_dense_weights(&self) -> Vec<f32> {
        let b = self.block;
        let mut dense = vec![0.0f32; self.out_dim * self.in_dim];
        for rb in 0..self.rows_b {
            for cb in 0..self.cols_b {
                let c = &self.blocks[rb * self.cols_b + cb];
                for bi in 0..b {
                    let row = rb * b + bi;
                    if row >= self.out_dim {
                        continue;
                    }
                    for bj in 0..b {
                        let col = cb * b + bj;
                        if col >= self.in_dim {
                            continue;
                        }
                        dense[row * self.in_dim + col] = c[(b + bi - bj) % b];
                    }
                }
            }
        }
        dense
    }
}

/// One layer of a sequential [`Model`](crate::Model).
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution (optionally shape-pruned).
    Conv2d(Conv2d),
    /// Non-overlapping max pooling with the given window size.
    MaxPool2d {
        /// Window edge (stride equals the window).
        size: usize,
    },
    /// Rectified linear activation.
    Relu,
    /// Collapse to a flat vector.
    Flatten,
    /// Dense fully-connected layer.
    Dense(Dense),
    /// Block-circulant fully-connected layer.
    BcmDense(BcmDense),
    /// Numerically-stable softmax.
    Softmax,
}

impl Layer {
    /// Short layer name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::MaxPool2d { .. } => "maxpool2d",
            Layer::Relu => "relu",
            Layer::Flatten => "flatten",
            Layer::Dense(_) => "dense",
            Layer::BcmDense(_) => "bcm_dense",
            Layer::Softmax => "softmax",
        }
    }

    /// Output shape for a given input shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerInput`] when the input shape is
    /// incompatible.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>, ModelError> {
        match self {
            Layer::Conv2d(c) => {
                if input.len() != 3 || input[0] != c.in_ch || input[1] < c.kh || input[2] < c.kw {
                    return Err(ModelError::LayerInput {
                        layer: "Conv2d",
                        detail: format!(
                            "cannot apply {}x{}x{}x{} conv to input {:?}",
                            c.out_ch, c.in_ch, c.kh, c.kw, input
                        ),
                    });
                }
                Ok(vec![c.out_ch, input[1] - c.kh + 1, input[2] - c.kw + 1])
            }
            Layer::MaxPool2d { size } => {
                if input.len() != 3 || *size == 0 || input[1] < *size || input[2] < *size {
                    return Err(ModelError::LayerInput {
                        layer: "MaxPool2d",
                        detail: format!("cannot pool {size}x{size} over {input:?}"),
                    });
                }
                Ok(vec![input[0], input[1] / size, input[2] / size])
            }
            Layer::Relu | Layer::Softmax => Ok(input.to_vec()),
            Layer::Flatten => Ok(vec![input.iter().product()]),
            Layer::Dense(d) => {
                let flat: usize = input.iter().product();
                if flat != d.in_dim {
                    return Err(ModelError::LayerInput {
                        layer: "Dense",
                        detail: format!("expected {} inputs, got {:?}", d.in_dim, input),
                    });
                }
                Ok(vec![d.out_dim])
            }
            Layer::BcmDense(d) => {
                let flat: usize = input.iter().product();
                if flat != d.in_dim {
                    return Err(ModelError::LayerInput {
                        layer: "BcmDense",
                        detail: format!("expected {} inputs, got {:?}", d.in_dim, input),
                    });
                }
                Ok(vec![d.out_dim])
            }
        }
    }

    /// Applies the layer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::LayerInput`] on shape mismatch.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, ModelError> {
        match self {
            Layer::Conv2d(c) => c.forward(x),
            Layer::MaxPool2d { size } => maxpool2d(x, *size),
            Layer::Relu => {
                let mut out = x.clone();
                for v in out.as_mut_slice() {
                    *v = v.max(0.0);
                }
                Ok(out)
            }
            Layer::Flatten => Ok(x.flattened()),
            Layer::Dense(d) => d.forward(x),
            Layer::BcmDense(d) => d.forward(x),
            Layer::Softmax => Ok(softmax(x)),
        }
    }

    /// Stored parameter count.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Conv2d(c) => c.param_count(),
            Layer::Dense(d) => d.param_count(),
            Layer::BcmDense(d) => d.param_count(),
            _ => 0,
        }
    }

    /// Parameters that actually ship to the device (post-mask).
    pub fn active_param_count(&self) -> usize {
        match self {
            Layer::Conv2d(c) => c.active_param_count(),
            Layer::Dense(d) => d.param_count(),
            Layer::BcmDense(d) => d.param_count(),
            _ => 0,
        }
    }
}

fn maxpool2d(x: &Tensor, size: usize) -> Result<Tensor, ModelError> {
    let shape = x.shape();
    if shape.len() != 3 || size == 0 || shape[1] < size || shape[2] < size {
        return Err(ModelError::LayerInput {
            layer: "MaxPool2d",
            detail: format!("cannot pool {size}x{size} over {shape:?}"),
        });
    }
    let (c, ih, iw) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = (ih / size, iw / size);
    let mut out = Tensor::zeros(&[c, oh, ow]);
    let xs = x.as_slice();
    for ch in 0..c {
        for i in 0..oh {
            for j in 0..ow {
                let mut m = f32::NEG_INFINITY;
                for u in 0..size {
                    for v in 0..size {
                        let val = xs[(ch * ih + i * size + u) * iw + (j * size + v)];
                        m = m.max(val);
                    }
                }
                out.set(&[ch, i, j], m);
            }
        }
    }
    Ok(out)
}

fn softmax(x: &Tensor) -> Tensor {
    let max = x
        .as_slice()
        .iter()
        .fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let exps: Vec<f32> = x.as_slice().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    let mut out = x.clone();
    for (o, e) in out.as_mut_slice().iter_mut().zip(&exps) {
        *o = e / sum;
    }
    out
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Conv2d(c) => write!(
                f,
                "conv2d {}x{}x{}x{} (kept {}/{})",
                c.out_ch,
                c.in_ch,
                c.kh,
                c.kw,
                c.kept_positions(),
                c.kernel_mask.len()
            ),
            Layer::MaxPool2d { size } => write!(f, "maxpool {size}x{size}"),
            Layer::Relu => f.write_str("relu"),
            Layer::Flatten => f.write_str("flatten"),
            Layer::Dense(d) => write!(f, "dense {}x{}", d.in_dim, d.out_dim),
            Layer::BcmDense(d) => write!(
                f,
                "bcm {}x{} (block {}, {:.0}x smaller)",
                d.in_dim,
                d.out_dim,
                d.block,
                d.compression_factor()
            ),
            Layer::Softmax => f.write_str("softmax"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> WeightRng {
        WeightRng::new(123)
    }

    #[test]
    fn conv_shape_and_values_match_dsp_reference() {
        let mut c = Conv2d::new(1, 1, 2, 2, &mut rng());
        c.weights_mut().copy_from_slice(&[0.5, -0.5, 0.25, 0.75]);
        let x = Tensor::from_vec((0..9).map(|v| v as f32 * 0.1).collect(), &[1, 3, 3]).unwrap();
        let out = c.forward(&x).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);

        let reference = ehdl_dsp::correlate2d_valid(
            &x.as_slice().iter().map(|&v| v as f64).collect::<Vec<_>>(),
            3,
            3,
            &[0.5, -0.5, 0.25, 0.75],
            2,
            2,
        );
        for (got, want) in out.as_slice().iter().zip(&reference) {
            assert!((*got as f64 - want).abs() < 1e-6);
        }
    }

    #[test]
    fn conv_multi_channel_sums_channels() {
        let mut c = Conv2d::new(1, 2, 1, 1, &mut rng());
        c.weights_mut().copy_from_slice(&[1.0, 2.0]);
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0], &[2, 2, 2]).unwrap();
        let out = c.forward(&x).unwrap();
        // 1*1 + 2*2 = 5 everywhere.
        assert!(out.as_slice().iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }

    #[test]
    fn conv_mask_halves_active_params_and_zeroes_weights() {
        let mut c = Conv2d::new(16, 6, 5, 5, &mut rng());
        let full = c.active_param_count();
        let mask: Vec<bool> = (0..6 * 5 * 5).map(|k| k % 2 == 0).collect();
        c.set_kernel_mask(mask);
        // 75 of 150 positions kept -> active params halve (mod bias).
        assert_eq!(c.kept_positions(), 75);
        assert!(c.active_param_count() < full);
        // Masked weights are zero, so forward == forward with mask ignored.
        let x = Tensor::zeros(&[6, 8, 8]);
        let out = c.forward(&x).unwrap();
        assert_eq!(out.shape(), &[16, 4, 4]);
    }

    /// The per-window loop `Conv2d::forward` replaced, kept as the
    /// bit-identity oracle.
    fn conv_per_window(c: &Conv2d, x: &Tensor) -> Vec<f32> {
        let (ih, iw) = (x.shape()[1], x.shape()[2]);
        let (oh, ow) = (ih - c.kh + 1, iw - c.kw + 1);
        let xs = x.as_slice();
        let per_filter = c.in_ch * c.kh * c.kw;
        let mut out = Vec::with_capacity(c.out_ch * oh * ow);
        for o in 0..c.out_ch {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = c.bias[o];
                    for ch in 0..c.in_ch {
                        for u in 0..c.kh {
                            for v in 0..c.kw {
                                let k = (ch * c.kh + u) * c.kw + v;
                                if c.kernel_mask[k] {
                                    acc += c.weights[o * per_filter + k]
                                        * xs[(ch * ih + i + u) * iw + (j + v)];
                                }
                            }
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    /// The per-block-`Vec`, modular-index path `BcmDense::forward`
    /// replaced, kept as the bit-identity oracle.
    fn bcm_modular(d: &BcmDense, x: &[f32]) -> Vec<f32> {
        let b = d.block;
        let mut xp = vec![0.0f64; d.cols_b * b];
        for (p, &v) in xp.iter_mut().zip(x) {
            *p = v as f64;
        }
        let mut yp = vec![0.0f64; d.rows_b * b];
        for rb in 0..d.rows_b {
            for cb in 0..d.cols_b {
                let w: Vec<f64> = d.block_at(rb, cb).iter().map(|&v| v as f64).collect();
                let xblk = &xp[cb * b..(cb + 1) * b];
                for i in 0..b {
                    let mut acc = 0.0;
                    for (j, &xj) in xblk.iter().enumerate() {
                        acc += w[(b + i - j) % b] * xj;
                    }
                    yp[rb * b + i] += acc;
                }
            }
        }
        yp[..d.out_dim]
            .iter()
            .zip(&d.bias)
            .map(|(&y, &bias)| y as f32 + bias)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn streamed_conv_matches_the_per_window_loop_bit_for_bit() {
        let mut g = WeightRng::new(0xC0_4E);
        for case in 0..64 {
            let dim = |g: &mut WeightRng, lo: i64, hi: i64| g.range_i64(lo, hi) as usize;
            let (out_ch, in_ch) = (dim(&mut g, 1, 5), dim(&mut g, 1, 5));
            let (kh, kw) = (dim(&mut g, 1, 6), dim(&mut g, 1, 6));
            // Every fourth case is exactly one output wide or tall.
            let ih = if case % 4 == 1 {
                kh
            } else {
                kh + dim(&mut g, 0, 9)
            };
            let iw = if case % 4 == 2 {
                kw
            } else {
                kw + dim(&mut g, 0, 9)
            };
            let mut c = Conv2d::new(out_ch, in_ch, kh, kw, &mut g);
            for b in c.bias_mut() {
                *b = g.uniform(0.5);
            }
            if case % 2 == 0 {
                let mask = (0..in_ch * kh * kw)
                    .map(|_| !g.next_u64().is_multiple_of(3))
                    .collect();
                c.set_kernel_mask(mask);
            }
            let x: Vec<f32> = (0..in_ch * ih * iw).map(|_| g.uniform(4.0)).collect();
            let x = Tensor::from_vec(x, &[in_ch, ih, iw]).unwrap();
            let got = c.forward(&x).unwrap();
            assert_eq!(
                bits(got.as_slice()),
                bits(&conv_per_window(&c, &x)),
                "case {case}: {out_ch}x{in_ch}x{kh}x{kw} over {ih}x{iw}"
            );
        }
    }

    #[test]
    fn bcm_forward_matches_the_modular_path_bit_for_bit() {
        let mut g = WeightRng::new(0xBC_4D);
        for case in 0..48 {
            let block = 1usize << g.range_i64(0, 7);
            let in_dim = g.range_i64(1, 4 * block as i64 + 1) as usize;
            // Keep most cases at two or more block rows.
            let out_dim = g.range_i64(block as i64 / 2 + 1, 3 * block as i64 + 1) as usize;
            let mut d = BcmDense::new(in_dim, out_dim, block, &mut g);
            for b in d.bias_mut() {
                *b = g.uniform(0.5);
            }
            let x: Vec<f32> = (0..in_dim).map(|_| g.uniform(2.0)).collect();
            let got = d.forward(&Tensor::from_vec(x.clone(), &[in_dim]).unwrap());
            assert_eq!(
                bits(got.unwrap().as_slice()),
                bits(&bcm_modular(&d, &x)),
                "case {case}: {in_dim}x{out_dim} block {block}"
            );
        }
    }

    #[test]
    fn bcm_block_products_are_summed_before_joining_the_row() {
        // Column blocks 0 and 1 cancel exactly (negated weights over equal
        // inputs) before the small block 2 joins, so the row sum is exactly
        // block 2's product; any other summation order adds it to a huge
        // partial sum first and loses its low bits.
        let mut g = WeightRng::new(0xCA_CE1);
        for block in [4usize, 16, 64] {
            let mut d = BcmDense::new(3 * block, 2 * block, block, &mut g);
            for rb in 0..2 {
                let big: Vec<f32> = (0..block).map(|_| g.uniform(1.0) * 1e6).collect();
                *d.block_at_mut(rb, 0) = big.clone();
                *d.block_at_mut(rb, 1) = big.iter().map(|w| -w).collect();
                *d.block_at_mut(rb, 2) = (0..block).map(|_| g.uniform(1e-6)).collect();
            }
            let outer: Vec<f32> = (0..block).map(|_| g.uniform(1.0) * 1e6).collect();
            let mut x = outer.clone();
            x.extend(&outer);
            x.extend((0..block).map(|_| g.uniform(1.0)));
            let got = d.forward(&Tensor::from_vec(x.clone(), &[3 * block]).unwrap());
            assert_eq!(
                bits(got.unwrap().as_slice()),
                bits(&bcm_modular(&d, &x)),
                "block {block}"
            );
        }
    }

    #[test]
    fn maxpool_picks_window_max() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            &[1, 4, 4],
        )
        .unwrap();
        let out = maxpool2d(&x, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_floors_odd_dimensions() {
        let x = Tensor::zeros(&[1, 5, 5]);
        let out = maxpool2d(&x, 2).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2]);
    }

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![-1.0, 0.5], &[2]).unwrap();
        let out = Layer::Relu.forward(&x).unwrap();
        assert_eq!(out.as_slice(), &[0.0, 0.5]);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let x = Tensor::from_vec(vec![1000.0, 1000.0, 999.0], &[3]).unwrap();
        let out = Layer::Softmax.forward(&x).unwrap();
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn dense_matches_manual_matvec() {
        let mut d = Dense::new(3, 2, &mut rng());
        d.weights_mut()
            .copy_from_slice(&[1.0, 0.0, -1.0, 0.5, 0.5, 0.5]);
        d.bias_mut().copy_from_slice(&[0.1, -0.1]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let out = d.forward(&x).unwrap();
        assert!((out.as_slice()[0] - (1.0 - 3.0 + 0.1)).abs() < 1e-6);
        assert!((out.as_slice()[1] - (3.0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn bcm_forward_matches_dense_expansion() {
        let mut rng = rng();
        let bcm = BcmDense::new(8, 8, 4, &mut rng);
        let dense_w = bcm.to_dense_weights();
        let x = Tensor::from_vec((0..8).map(|v| (v as f32 - 4.0) * 0.1).collect(), &[8]).unwrap();
        let got = bcm.forward(&x).unwrap();
        for o in 0..8 {
            let want: f32 = (0..8)
                .map(|i| dense_w[o * 8 + i] * x.as_slice()[i])
                .sum::<f32>()
                + bcm.bias()[o];
            assert!((got.as_slice()[o] - want).abs() < 1e-4, "row {o}");
        }
    }

    #[test]
    fn bcm_handles_non_divisible_dims_with_padding() {
        let mut rng = rng();
        // 10 inputs with block 4 -> 3 column blocks (padded to 12).
        let bcm = BcmDense::new(10, 8, 4, &mut rng);
        assert_eq!(bcm.cols_b(), 3);
        assert_eq!(bcm.rows_b(), 2);
        let x = Tensor::from_vec(vec![0.1; 10], &[10]).unwrap();
        let out = bcm.forward(&x).unwrap();
        assert_eq!(out.shape(), &[8]);
        // Dense expansion must agree even with padding.
        let dense_w = bcm.to_dense_weights();
        for o in 0..8 {
            let want: f32 = (0..10).map(|i| dense_w[o * 10 + i] * 0.1).sum::<f32>() + bcm.bias()[o];
            assert!((out.as_slice()[o] - want).abs() < 1e-4);
        }
    }

    #[test]
    fn bcm_compression_factor_matches_table1() {
        let mut rng = rng();
        // Table I: 512x512 FC at block 128 -> 99.21% reduction = 128x.
        let bcm = BcmDense::new(512, 512, 128, &mut rng);
        assert!((bcm.compression_factor() - 128.0).abs() < 1e-9);
        let reduction = 1.0 - 1.0 / bcm.compression_factor();
        assert!((reduction - 0.9921875).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bcm_rejects_non_power_of_two_block() {
        let _ = BcmDense::new(12, 12, 3, &mut WeightRng::new(1));
    }

    #[test]
    fn output_shapes_chain() {
        let mut r = rng();
        let conv = Layer::Conv2d(Conv2d::new(6, 1, 5, 5, &mut r));
        let shape = conv.output_shape(&[1, 28, 28]).unwrap();
        assert_eq!(shape, vec![6, 24, 24]);
        let pool = Layer::MaxPool2d { size: 2 };
        assert_eq!(pool.output_shape(&shape).unwrap(), vec![6, 12, 12]);
        assert_eq!(
            Layer::Flatten.output_shape(&[6, 12, 12]).unwrap(),
            vec![864]
        );
        assert!(conv.output_shape(&[3, 28, 28]).is_err());
        assert!(pool.output_shape(&[6, 1, 1]).is_err());
    }

    #[test]
    fn layer_display_is_informative() {
        let mut r = rng();
        let l = Layer::BcmDense(BcmDense::new(256, 256, 128, &mut r));
        let text = l.to_string();
        assert!(text.contains("256x256") && text.contains("128"));
    }
}
