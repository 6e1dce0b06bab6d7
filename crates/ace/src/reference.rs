//! The bit-exact quantized forward pass.
//!
//! This module defines the arithmetic ACE performs on device, in plain
//! software. It is the **golden reference**: the device program emitted
//! by [`AceProgram`](crate::AceProgram) charges cycles and energy for
//! exactly these operations, and every intermittent execution strategy
//! must reproduce these outputs bit-for-bit (FLEX's "correct inference"
//! claim — tested in `ehdl-flex`).
//!
//! The BCM layer follows Algorithm 1 with the fixed-point scaling
//! discipline worked out in DESIGN.md:
//!
//! 1. both FFTs scale per stage (the LEA discipline), so the transforms
//!    return `X/N` and `W/N` — this *is* SCALE-DOWN, applied
//!    multiplicatively inside the transform rather than up front;
//! 2. the element-wise complex product is computed in the wide
//!    accumulator (`Z/N²`) and scaled **up by N** on the way back to
//!    Q15 (`Z/N`), which cannot overflow because the calibrated weights
//!    keep `‖w‖₁ ≤ 1` per block;
//! 3. the IFFT returns `y/N`; block results accumulate in wide
//!    registers, the bias joins at the same scale, and the final
//!    SCALE-UP by `N` (the `lI·lW` recovery of Algorithm 1 lines 17–22,
//!    split as `N` mid-chain + `N` here) restores the true value.
//!
//! The net precision cost is ≈ `log2(N)` bits — the mechanism behind the
//! paper's "larger block size … accuracy degradation" trade-off.

use crate::quantized::{QBcmDense, QConv2d, QDense, QLayer, QuantizedModel};
use crate::AceError;
use ehdl_dsp::FftPlan;
use ehdl_fixed::{ComplexQ15, MacAcc, OverflowStats, Q15};

/// Runs the full quantized forward pass, returning the logits.
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward(model: &QuantizedModel, input: &[Q15]) -> Result<Vec<Q15>, AceError> {
    let mut stats = OverflowStats::new();
    forward_with_stats(model, input, &mut stats)
}

/// Forward pass that also counts fixed-point saturations — zero on a
/// properly normalized model (the overflow-aware computation guarantee).
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward_with_stats(
    model: &QuantizedModel,
    input: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    Ok(forward_trace(model, input, stats)?
        .pop()
        .expect("trace contains at least the input"))
}

/// Forward pass retaining every layer activation.
///
/// # Errors
///
/// Returns [`AceError::BadInput`] on input length mismatch.
pub fn forward_trace(
    model: &QuantizedModel,
    input: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Vec<Q15>>, AceError> {
    SpectralModel::new(model)?.forward_trace(input, stats)
}

/// A quantized model with every BCM weight block already transformed
/// (`W/N`), and one [`FftPlan`] per block size.
///
/// The weight spectra depend only on the model, so a pass over many
/// samples (the accuracy pass) builds this once and reuses it; each
/// sample then transforms only its input blocks, once per layer. The
/// transforms are pure, so logits and [`OverflowStats`] are exactly
/// those of [`forward_trace`].
#[derive(Debug, Clone)]
pub struct SpectralModel<'m> {
    model: &'m QuantizedModel,
    plans: Vec<FftPlan>,
    /// Per layer: the plan index and weight spectra of a BCM layer.
    layers: Vec<Option<(usize, Vec<Vec<ComplexQ15>>)>>,
}

impl<'m> SpectralModel<'m> {
    /// Transforms every BCM weight block of `model`.
    ///
    /// # Errors
    ///
    /// Returns [`AceError::Fft`] if a BCM block size is not a power of two.
    pub fn new(model: &'m QuantizedModel) -> Result<Self, AceError> {
        let mut plans: Vec<FftPlan> = Vec::new();
        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            let QLayer::BcmDense(d) = layer else {
                layers.push(None);
                continue;
            };
            let at = match plans.iter().position(|p| p.len() == d.block) {
                Some(at) => at,
                None => {
                    plans.push(FftPlan::new(d.block)?);
                    plans.len() - 1
                }
            };
            layers.push(Some((at, bcm_spectra(&plans[at], d)?)));
        }
        Ok(SpectralModel {
            model,
            plans,
            layers,
        })
    }

    /// Forward pass returning the logits.
    ///
    /// # Errors
    ///
    /// Returns [`AceError::BadInput`] on input length mismatch.
    pub fn forward(&self, input: &[Q15], stats: &mut OverflowStats) -> Result<Vec<Q15>, AceError> {
        Ok(self
            .forward_trace(input, stats)?
            .pop()
            .expect("trace contains at least the input"))
    }

    /// Forward pass retaining every layer activation.
    ///
    /// # Errors
    ///
    /// Returns [`AceError::BadInput`] on input length mismatch.
    pub fn forward_trace(
        &self,
        input: &[Q15],
        stats: &mut OverflowStats,
    ) -> Result<Vec<Vec<Q15>>, AceError> {
        let model = self.model;
        if input.len() != model.input_len() {
            return Err(AceError::BadInput {
                expected: model.input_len(),
                got: input.len(),
            });
        }
        let mut acts: Vec<Vec<Q15>> = vec![input.to_vec()];
        for (i, (layer, spectra)) in model.layers().iter().zip(&self.layers).enumerate() {
            let x = acts.last().expect("non-empty");
            let y = match (layer, spectra) {
                (QLayer::BcmDense(d), Some((at, fw))) => {
                    bcm_forward_spectral(d, &self.plans[*at], fw, x, stats)?
                }
                _ => layer_forward(layer, x, model.layer_input_shape(i), stats)?,
            };
            acts.push(y);
        }
        Ok(acts)
    }
}

/// Applies one quantized layer.
///
/// # Errors
///
/// Returns [`AceError::Fft`] if a BCM block size is invalid.
pub fn layer_forward(
    layer: &QLayer,
    x: &[Q15],
    in_shape: &[usize],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    Ok(match layer {
        QLayer::Conv2d(c) => conv_forward(c, x, in_shape, stats),
        QLayer::MaxPool2d { size } => maxpool_forward(x, in_shape, *size),
        QLayer::Relu => x
            .iter()
            .map(|&v| if v.is_negative() { Q15::ZERO } else { v })
            .collect(),
        QLayer::Flatten => x.to_vec(),
        QLayer::Dense(d) => dense_forward(d, x, stats),
        QLayer::BcmDense(d) => bcm_forward(d, x, stats)?,
        QLayer::ArgmaxHead => x.to_vec(),
    })
}

/// Whole-kernel MAC convolution (Figure 4: one accumulation per window).
///
/// Streamed by output plane: every window's wide accumulator starts at
/// the bias, and each kept kernel position adds one row-long MAC run per
/// output row. The accumulator is exact integer arithmetic, so the
/// result is that of a per-window loop bit for bit.
pub fn conv_forward(
    c: &QConv2d,
    x: &[Q15],
    in_shape: &[usize],
    stats: &mut OverflowStats,
) -> Vec<Q15> {
    let (ih, iw) = (in_shape[1], in_shape[2]);
    let (oh, ow) = (ih - c.kh + 1, iw - c.kw + 1);
    let klen = c.kept.len();
    let mut out = vec![Q15::ZERO; c.out_ch * oh * ow];
    // Decode kept positions once, as offsets of the input row each one
    // reads for output row 0.
    let offsets: Vec<usize> = c
        .kept
        .iter()
        .map(|&k| {
            let k = k as usize;
            let (ch, u, v) = (k / (c.kh * c.kw), (k / c.kw) % c.kh, k % c.kw);
            (ch * ih + u) * iw + v
        })
        .collect();
    let mut acc = vec![MacAcc::ZERO; oh * ow];
    for (o, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        acc.fill(MacAcc::from_q15(c.bias[o]));
        let wrow = &c.weights[o * klen..(o + 1) * klen];
        for (&w, &offset) in wrow.iter().zip(&offsets) {
            for (i, row) in acc.chunks_exact_mut(ow).enumerate() {
                let xrow = &x[offset + i * iw..][..ow];
                for (a, &xv) in row.iter_mut().zip(xrow) {
                    a.mac(w, xv);
                }
            }
        }
        for (q, a) in plane.iter_mut().zip(&acc) {
            let (v, sat) = a.overflowing_to_q15();
            if sat {
                stats.record_saturation();
            } else {
                stats.record_ok();
            }
            *q = v;
        }
    }
    out
}

fn maxpool_forward(x: &[Q15], in_shape: &[usize], size: usize) -> Vec<Q15> {
    let (ch, ih, iw) = (in_shape[0], in_shape[1], in_shape[2]);
    let (oh, ow) = (ih / size, iw / size);
    let mut out = vec![Q15::MIN; ch * oh * ow];
    for c in 0..ch {
        for i in 0..oh {
            for j in 0..ow {
                let mut m = Q15::MIN;
                for u in 0..size {
                    for v in 0..size {
                        m = m.max(x[(c * ih + i * size + u) * iw + (j * size + v)]);
                    }
                }
                out[(c * oh + i) * ow + j] = m;
            }
        }
    }
    out
}

/// Row-streamed dense matvec (one LEA MAC per output).
pub fn dense_forward(d: &QDense, x: &[Q15], stats: &mut OverflowStats) -> Vec<Q15> {
    let mut out = vec![Q15::ZERO; d.out_dim];
    for (o, out_v) in out.iter_mut().enumerate() {
        let row = &d.weights[o * d.in_dim..(o + 1) * d.in_dim];
        let mut acc = MacAcc::from_q15(d.bias[o]);
        for (&w, &xv) in row.iter().zip(x) {
            acc.mac(w, xv);
        }
        let (q, sat) = acc.overflowing_to_q15();
        if sat {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        *out_v = q;
    }
    out
}

/// The on-device BCM pipeline of Algorithm 1 for a whole layer.
///
/// # Errors
///
/// Returns [`AceError::Fft`] if the block size is not a power of two.
pub fn bcm_forward(
    d: &QBcmDense,
    x: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    let plan = FftPlan::new(d.block)?;
    let fw = bcm_spectra(&plan, d)?;
    bcm_forward_spectral(d, &plan, &fw, x, stats)
}

/// Every weight block's spectrum `W/N`, grid row-major.
fn bcm_spectra(plan: &FftPlan, d: &QBcmDense) -> Result<Vec<Vec<ComplexQ15>>, AceError> {
    Ok(d.blocks
        .iter()
        .map(|w| plan.fft_real(w))
        .collect::<Result<_, _>>()?)
}

/// [`bcm_forward`] given the weight spectra `fw`. Each input block is
/// transformed once and shared by every grid row.
fn bcm_forward_spectral(
    d: &QBcmDense,
    plan: &FftPlan,
    fw: &[Vec<ComplexQ15>],
    x: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    let b = d.block;
    let shift = b.trailing_zeros();

    // Zero-pad the input to the block grid, then take X/N per block.
    let mut xp = vec![Q15::ZERO; d.cols_b * b];
    xp[..d.in_dim].copy_from_slice(x);
    let fx = xp
        .chunks_exact(b)
        .map(|xblk| plan.fft_real(xblk))
        .collect::<Result<Vec<_>, _>>()?;

    let mut out = vec![Q15::ZERO; d.out_dim];
    for rb in 0..d.rows_b {
        // Wide accumulator holding y_rb / N across column blocks.
        let mut acc = vec![MacAcc::ZERO; b];
        for (cb, fxb) in fx.iter().enumerate() {
            let mut z = bcm_freq_mul(fxb, &fw[rb * d.cols_b + cb], shift, stats);
            plan.ifft(&mut z)?; // IDFT(Z/N) = y/N
            for (a, v) in acc.iter_mut().zip(&z) {
                *a += MacAcc::from_q15(v.real());
            }
        }
        // Bias joins at the same 1/N scale, then SCALE-UP by N.
        bcm_row_finalize(&acc, &d.bias, rb * b, &mut out, shift, stats);
    }
    Ok(out)
}

/// One circulant block through `FFT → wide CMPY (+N recovery) → IFFT`,
/// returning `y/N`.
///
/// # Errors
///
/// Returns [`AceError::Fft`] on plan/operand mismatch.
pub fn bcm_block_matvec(
    plan: &FftPlan,
    w: &[Q15],
    x: &[Q15],
    stats: &mut OverflowStats,
) -> Result<Vec<Q15>, AceError> {
    let shift = plan.len().trailing_zeros();
    let fx = plan.fft_real(x)?; // X/N
    let fw = plan.fft_real(w)?; // W/N
    let mut z = bcm_freq_mul(&fx, &fw, shift, stats);
    plan.ifft(&mut z)?; // IDFT(Z/N) = y/N
    Ok(z.into_iter().map(|c| c.real()).collect())
}

/// The element-wise complex multiply between the two transforms (the MPY
/// stage of Figure 6), with the mid-chain `×N` scale recovery done in the
/// wide accumulator. Public so the FLEX state machine in `ehdl-flex`
/// executes the *same* arithmetic stage by stage.
pub fn bcm_freq_mul(
    fx: &[ComplexQ15],
    fw: &[ComplexQ15],
    shift: u32,
    stats: &mut OverflowStats,
) -> Vec<ComplexQ15> {
    let mut z: Vec<ComplexQ15> = Vec::with_capacity(fx.len());
    for (&a, &bq) in fx.iter().zip(fw) {
        // Wide product = Z/N² at Q30; shift left N to get Z/N.
        let mut re = MacAcc::product(a.re, bq.re);
        re.mac(-a.im, bq.im);
        let mut im = MacAcc::product(a.re, bq.im);
        im.mac(a.im, bq.re);
        let (zre, s1) = shl_wide(re, shift).overflowing_to_q15();
        let (zim, s2) = shl_wide(im, shift).overflowing_to_q15();
        if s1 || s2 {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        z.push(ComplexQ15::new(zre, zim));
    }
    z
}

/// Finalizes one BCM output row block: adds the bias at `1/N` scale and
/// applies the terminal SCALE-UP. Shared with the FLEX state machine so
/// both paths round identically.
pub fn bcm_row_finalize(
    acc: &[MacAcc],
    bias: &[Q15],
    row_base: usize,
    out: &mut [Q15],
    shift: u32,
    stats: &mut OverflowStats,
) {
    for (i, a) in acc.iter().enumerate() {
        let row = row_base + i;
        if row >= out.len() {
            break;
        }
        let with_bias = *a + MacAcc::from_q15(bias[row]).shr_round(shift);
        let (q, sat) = shl_wide(with_bias, shift).overflowing_to_q15();
        if sat {
            stats.record_saturation();
        } else {
            stats.record_ok();
        }
        out[row] = q;
    }
}

/// Left-shifts a wide accumulator (scale recovery); `MacAcc` has 30+
/// headroom bits, so shifts up to the block exponent are exact.
#[inline]
fn shl_wide(a: MacAcc, shift: u32) -> MacAcc {
    a << shift
}

/// Argmax of a logit vector (the device's classification output).
pub fn argmax(logits: &[Q15]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|&(_, &v)| v)
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantizedModel;
    use ehdl_nn::{zoo, Tensor, WeightRng};

    fn q(v: f32) -> Q15 {
        Q15::from_f32(v)
    }

    #[test]
    fn relu_and_maxpool_match_float_semantics() {
        let mut stats = OverflowStats::new();
        let x = vec![q(-0.5), q(0.25)];
        let y = layer_forward(&QLayer::Relu, &x, &[2], &mut stats).unwrap();
        assert_eq!(y, vec![Q15::ZERO, q(0.25)]);

        let x = vec![q(0.1), q(0.9), q(-0.2), q(0.3)];
        let y = layer_forward(&QLayer::MaxPool2d { size: 2 }, &x, &[1, 2, 2], &mut stats).unwrap();
        assert_eq!(y, vec![q(0.9)]);
    }

    #[test]
    fn dense_forward_matches_wide_math() {
        let d = QDense {
            in_dim: 3,
            out_dim: 2,
            weights: vec![q(0.5), q(0.0), q(-0.5), q(0.25), q(0.25), q(0.25)],
            bias: vec![q(0.1), q(-0.1)],
        };
        let mut stats = OverflowStats::new();
        let y = dense_forward(&d, &[q(0.4), q(0.8), q(0.2)], &mut stats);
        assert!((y[0].to_f64() - (0.2 - 0.1 + 0.1)).abs() < 1e-3);
        assert!((y[1].to_f64() - (0.1 + 0.2 + 0.05 - 0.1)).abs() < 1e-3);
        assert_eq!(stats.saturations(), 0);
    }

    #[test]
    fn bcm_block_matvec_tracks_exact_circulant() {
        let b = 16usize;
        let plan = FftPlan::new(b).unwrap();
        let w: Vec<Q15> = (0..b).map(|i| q(0.04 * ((i as f32 * 1.3).sin()))).collect();
        let x: Vec<Q15> = (0..b).map(|i| q(0.5 * ((i as f32 * 0.7).cos()))).collect();
        let mut stats = OverflowStats::new();
        let got = bcm_block_matvec(&plan, &w, &x, &mut stats).unwrap();
        let exact = ehdl_dsp::circulant::matvec_direct_q15(&w, &x);
        for (g, e) in got.iter().zip(&exact) {
            let want = e.to_f64() / b as f64; // result is y/N
            assert!(
                (g.to_f64() - want).abs() < 8.0 / 32768.0,
                "{} vs {want}",
                g.to_f64()
            );
        }
        assert_eq!(stats.saturations(), 0);
    }

    /// The per-window loop `conv_forward` replaced, kept as the
    /// bit-identity oracle.
    fn conv_per_window(
        c: &QConv2d,
        x: &[Q15],
        in_shape: &[usize],
        stats: &mut OverflowStats,
    ) -> Vec<Q15> {
        let (ih, iw) = (in_shape[1], in_shape[2]);
        let (oh, ow) = (ih - c.kh + 1, iw - c.kw + 1);
        let klen = c.kept.len();
        let mut out = Vec::with_capacity(c.out_ch * oh * ow);
        for o in 0..c.out_ch {
            for i in 0..oh {
                for j in 0..ow {
                    let mut acc = MacAcc::from_q15(c.bias[o]);
                    for (&w, &k) in c.weights[o * klen..(o + 1) * klen].iter().zip(&c.kept) {
                        let k = k as usize;
                        let (ch, u, v) = (k / (c.kh * c.kw), (k / c.kw) % c.kh, k % c.kw);
                        acc.mac(w, x[(ch * ih + i + u) * iw + (j + v)]);
                    }
                    let (q, sat) = acc.overflowing_to_q15();
                    if sat {
                        stats.record_saturation();
                    } else {
                        stats.record_ok();
                    }
                    out.push(q);
                }
            }
        }
        out
    }

    #[test]
    fn streamed_conv_matches_the_per_window_loop_bit_for_bit() {
        let mut g = WeightRng::new(0xAC_C0);
        for case in 0..48 {
            let dim = |g: &mut WeightRng, lo: i64, hi: i64| g.range_i64(lo, hi) as usize;
            let (out_ch, in_ch) = (dim(&mut g, 1, 5), dim(&mut g, 1, 4));
            let (kh, kw) = (dim(&mut g, 1, 5), dim(&mut g, 1, 5));
            // Every fourth case is exactly one output wide or tall.
            let ih = if case % 4 == 1 {
                kh
            } else {
                kh + dim(&mut g, 0, 8)
            };
            let iw = if case % 4 == 2 {
                kw
            } else {
                kw + dim(&mut g, 0, 8)
            };
            let kept: Vec<u32> = (0..(in_ch * kh * kw) as u32)
                .filter(|_| case % 2 == 1 || !g.next_u64().is_multiple_of(3))
                .collect();
            // Weights up to full scale, so some windows saturate.
            let c = QConv2d {
                out_ch,
                in_ch,
                kh,
                kw,
                weights: (0..out_ch * kept.len())
                    .map(|_| q(g.uniform(1.0)))
                    .collect(),
                bias: (0..out_ch).map(|_| q(g.uniform(0.5))).collect(),
                kept,
            };
            let x: Vec<Q15> = (0..in_ch * ih * iw).map(|_| q(g.uniform(1.0))).collect();
            let shape = [in_ch, ih, iw];
            let (mut got_stats, mut want_stats) = (OverflowStats::new(), OverflowStats::new());
            assert_eq!(
                conv_forward(&c, &x, &shape, &mut got_stats),
                conv_per_window(&c, &x, &shape, &mut want_stats),
                "case {case}: {out_ch}x{in_ch}x{kh}x{kw} over {ih}x{iw}"
            );
            assert_eq!(got_stats, want_stats, "case {case}");
        }
    }

    /// The per-sample path `SpectralModel` replaced: every weight and
    /// input block transformed per block product, and a plan per layer.
    /// Kept as the bit-identity oracle.
    fn bcm_per_block(d: &QBcmDense, x: &[Q15], stats: &mut OverflowStats) -> Vec<Q15> {
        let b = d.block;
        let plan = FftPlan::new(b).unwrap();
        let mut xp = vec![Q15::ZERO; d.cols_b * b];
        xp[..d.in_dim].copy_from_slice(x);
        let mut out = vec![Q15::ZERO; d.out_dim];
        for rb in 0..d.rows_b {
            let mut acc = vec![MacAcc::ZERO; b];
            for cb in 0..d.cols_b {
                let xblk = &xp[cb * b..(cb + 1) * b];
                let w = &d.blocks[rb * d.cols_b + cb];
                let y = bcm_block_matvec(&plan, w, xblk, stats).unwrap();
                for (a, &v) in acc.iter_mut().zip(&y) {
                    *a += MacAcc::from_q15(v);
                }
            }
            bcm_row_finalize(&acc, &d.bias, rb * b, &mut out, b.trailing_zeros(), stats);
        }
        out
    }

    #[test]
    fn spectra_once_per_pass_match_the_per_block_path_bit_for_bit() {
        let mut g = WeightRng::new(0x5FEC);
        for case in 0..12 {
            // Two BCM layers sharing a block size, then one with its own;
            // padded dims and two or more block rows in every layer.
            let (b1, b2) = (1usize << g.range_i64(2, 5), 1usize << g.range_i64(1, 4));
            let dim =
                |g: &mut WeightRng, b: usize| g.range_i64(b as i64 + 1, 3 * b as i64) as usize;
            let (d0, d1, d2, d3) = (
                dim(&mut g, b1),
                dim(&mut g, b1),
                dim(&mut g, b1),
                dim(&mut g, b2),
            );
            let model = ehdl_nn::Model::builder("bcm3", &[d0])
                .layer(ehdl_nn::Layer::BcmDense(ehdl_nn::BcmDense::new(
                    d0, d1, b1, &mut g,
                )))
                .layer(ehdl_nn::Layer::Relu)
                .layer(ehdl_nn::Layer::BcmDense(ehdl_nn::BcmDense::new(
                    d1, d2, b1, &mut g,
                )))
                .layer(ehdl_nn::Layer::BcmDense(ehdl_nn::BcmDense::new(
                    d2, d3, b2, &mut g,
                )))
                .build()
                .unwrap();
            let qm = QuantizedModel::from_model(&model).unwrap();
            let spectral = SpectralModel::new(&qm).unwrap();
            assert_eq!(
                spectral.plans.len(),
                1 + usize::from(b1 != b2),
                "case {case}"
            );
            for sample in 0..3 {
                let x: Vec<Q15> = (0..d0).map(|_| q(g.uniform(0.9))).collect();
                let (mut got_stats, mut want_stats) = (OverflowStats::new(), OverflowStats::new());
                let got = spectral.forward_trace(&x, &mut got_stats).unwrap();
                let mut want = vec![x.clone()];
                for (i, layer) in qm.layers().iter().enumerate() {
                    let x = want.last().unwrap();
                    let y = match layer {
                        QLayer::BcmDense(d) => bcm_per_block(d, x, &mut want_stats),
                        _ => layer_forward(layer, x, qm.layer_input_shape(i), &mut want_stats)
                            .unwrap(),
                    };
                    want.push(y);
                }
                assert_eq!(got, want, "case {case} sample {sample}");
                assert_eq!(got_stats, want_stats, "case {case} sample {sample}");
                assert_eq!(
                    forward_trace(&qm, &x, &mut OverflowStats::new()).unwrap(),
                    want
                );
            }
        }
    }

    #[test]
    fn bcm_forward_approximates_float_layer() {
        let mut rng = WeightRng::new(71);
        let mut f = ehdl_nn::BcmDense::new(32, 32, 16, &mut rng);
        // Keep weights small so ‖w‖₁ per block stays below 1.
        for rb in 0..f.rows_b() {
            for cb in 0..f.cols_b() {
                for w in f.block_at_mut(rb, cb) {
                    *w *= 0.2;
                }
            }
        }
        let x_f: Vec<f32> = (0..32).map(|i| 0.5 * ((i as f32) * 0.37).sin()).collect();
        let want = ehdl_nn::Layer::BcmDense(f.clone())
            .forward(&Tensor::from_vec(x_f.clone(), &[32]).unwrap())
            .unwrap();

        let qd = match QuantizedModel::from_model(
            &ehdl_nn::Model::builder("one", &[32])
                .layer(ehdl_nn::Layer::BcmDense(f))
                .build()
                .unwrap(),
        )
        .unwrap()
        .layers()[0]
            .clone()
        {
            QLayer::BcmDense(d) => d,
            _ => panic!(),
        };
        let xq: Vec<Q15> = x_f.iter().map(|&v| q(v)).collect();
        let mut stats = OverflowStats::new();
        let got = bcm_forward(&qd, &xq, &mut stats).unwrap();
        // Precision budget ~ b/32768 * constant.
        for (g, w) in got.iter().zip(want.as_slice()) {
            assert!(
                (g.to_f64() - *w as f64).abs() < 0.02,
                "{} vs {}",
                g.to_f64(),
                w
            );
        }
        assert_eq!(stats.saturations(), 0, "{stats}");
    }

    #[test]
    fn conv_forward_matches_float_within_quantization() {
        let m = zoo::mnist();
        let qm = QuantizedModel::from_model(&m).unwrap();
        let QLayer::Conv2d(qc) = &qm.layers()[0] else {
            panic!()
        };
        let input_f: Vec<f32> = (0..784)
            .map(|i| ((i * 7 % 29) as f32 / 29.0) - 0.5)
            .collect();
        let want = m.layers()[0]
            .forward(&Tensor::from_vec(input_f.clone(), &[1, 28, 28]).unwrap())
            .unwrap();
        let xq: Vec<Q15> = input_f.iter().map(|&v| q(v)).collect();
        let mut stats = OverflowStats::new();
        let got = conv_forward(qc, &xq, &[1, 28, 28], &mut stats);
        let mut max_err = 0.0f64;
        for (g, w) in got.iter().zip(want.as_slice()) {
            max_err = max_err.max((g.to_f64() - *w as f64).abs());
        }
        // Xavier weights on 25-long windows stay in range; only
        // quantization noise remains.
        assert!(max_err < 0.01, "max_err {max_err}");
    }

    #[test]
    fn unnormalized_hot_weights_saturate_and_are_counted() {
        let d = QDense {
            in_dim: 8,
            out_dim: 1,
            weights: vec![Q15::MAX; 8],
            bias: vec![Q15::ZERO],
        };
        let mut stats = OverflowStats::new();
        let _ = dense_forward(&d, &[Q15::MAX; 8], &mut stats);
        assert!(stats.any());
    }

    #[test]
    fn full_model_forward_runs_and_argmax_works() {
        let qm = QuantizedModel::from_model(&zoo::har()).unwrap();
        let x = vec![q(0.1); qm.input_len()];
        let logits = forward(&qm, &x).unwrap();
        assert_eq!(logits.len(), 6);
        assert!(argmax(&logits) < 6);
    }

    #[test]
    fn forward_rejects_wrong_input_length() {
        let qm = QuantizedModel::from_model(&zoo::mnist()).unwrap();
        assert!(matches!(
            forward(&qm, &[Q15::ZERO; 3]),
            Err(AceError::BadInput {
                expected: 784,
                got: 3
            })
        ));
    }
}
