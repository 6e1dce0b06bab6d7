//! Normalization into `[-1, 1]` — RAD's overflow defense.
//!
//! §III-A: "RAD first sets the data range with `G_min = -1` and
//! `G_max = 1` … then uses cosine normalization to constrain the values
//! of the computed intermediates into `[-1, 1]`." Two mechanisms are
//! provided:
//!
//! * [`normalize_input`] — affine squeeze of raw input data into range,
//! * [`calibrate`] / [`apply_calibration`] — per-layer weight rescaling
//!   from observed activation ranges on calibration data (the practical
//!   realization of keeping intermediates in range; positive rescaling
//!   commutes with ReLU/max-pool and only temperature-scales the final
//!   softmax, leaving the argmax — the prediction — unchanged),
//! * [`cosine_normalize_dense`] — row-wise weight normalization in the
//!   spirit of Luo et al.'s cosine normalization (the paper's citation
//!   \[12\]), provided for the ablation benches.

use ehdl_nn::{Layer, Model, ModelError, Tensor};

/// Squeezes a slice into `[-lim, lim]` by dividing by its max-abs.
/// Returns the scale divisor used (1.0 for all-zero input).
pub fn normalize_input(data: &mut [f32], lim: f32) -> f32 {
    let max = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max <= 0.0 {
        return 1.0;
    }
    let divisor = max / lim;
    for v in data.iter_mut() {
        *v /= divisor;
    }
    divisor
}

/// Per-parametric-layer scale divisors derived from calibration data.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// `scales[i]` divides the weights of layer `i` (1.0 for layers
    /// without parameters or already in range).
    pub scales: Vec<f32>,
    /// Largest activation magnitude observed per layer output (before
    /// normalization).
    pub observed_max: Vec<f32>,
}

/// Runs the model on calibration inputs and derives weight divisors so
/// every intermediate stays within `±target`.
///
/// # Errors
///
/// Propagates [`ModelError`] from the forward passes.
///
/// # Panics
///
/// Panics if `target` is not in `(0, 1]` or `inputs` is empty.
pub fn calibrate(model: &Model, inputs: &[Tensor], target: f32) -> Result<Calibration, ModelError> {
    assert!(target > 0.0 && target <= 1.0, "target must be in (0, 1]");
    assert!(!inputs.is_empty(), "calibration needs at least one input");

    let n_layers = model.layers().len();
    let mut observed = vec![0.0f32; n_layers];
    for input in inputs {
        let acts = model.forward_trace(input)?;
        for (i, act) in acts[1..].iter().enumerate() {
            observed[i] = observed[i].max(act.max_abs());
        }
    }

    // Walk the chain: each parametric layer absorbs the divisor needed to
    // bring its (cumulatively rescaled) output into range.
    let mut scales = vec![1.0f32; n_layers];
    let mut cumulative = 1.0f32; // activations so far are original/cumulative
    for (i, layer) in model.layers().iter().enumerate() {
        match layer {
            Layer::Conv2d(_) | Layer::Dense(_) | Layer::BcmDense(_) => {
                let rescaled_max = observed[i] / cumulative;
                let s = if rescaled_max > target {
                    rescaled_max / target
                } else {
                    1.0
                };
                scales[i] = s;
                cumulative *= s;
            }
            // ReLU, pooling, flatten: positively homogeneous, pass through.
            // Softmax ends the chain; its input is scaled logits, argmax
            // unchanged.
            _ => {}
        }
    }
    Ok(Calibration {
        scales,
        observed_max: observed,
    })
}

/// Applies a calibration to the model, dividing weights and cumulative-
/// corrected biases in place.
///
/// # Panics
///
/// Panics if the calibration was computed for a different layer count.
pub fn apply_calibration(model: &mut Model, cal: &Calibration) {
    assert_eq!(
        cal.scales.len(),
        model.layers().len(),
        "calibration does not match model"
    );
    let mut cumulative = 1.0f32;
    for (layer, &s) in model.layers_mut().iter_mut().zip(&cal.scales) {
        match layer {
            Layer::Conv2d(c) => {
                cumulative *= s;
                for w in c.weights_mut() {
                    *w /= s;
                }
                for b in c.bias_mut() {
                    *b /= cumulative;
                }
            }
            Layer::Dense(d) => {
                cumulative *= s;
                for w in d.weights_mut() {
                    *w /= s;
                }
                for b in d.bias_mut() {
                    *b /= cumulative;
                }
            }
            Layer::BcmDense(d) => {
                cumulative *= s;
                for rb in 0..d.rows_b() {
                    for cb in 0..d.cols_b() {
                        for w in d.block_at_mut(rb, cb) {
                            *w /= s;
                        }
                    }
                }
                for b in d.bias_mut() {
                    *b /= cumulative;
                }
            }
            _ => {}
        }
    }
}

/// Convenience: calibrate and apply in one step, returning the
/// calibration for reporting.
///
/// # Errors
///
/// Propagates [`ModelError`] from the calibration forward passes.
pub fn normalize_model(
    model: &mut Model,
    inputs: &[Tensor],
    target: f32,
) -> Result<Calibration, ModelError> {
    let cal = calibrate(model, inputs, target)?;
    apply_calibration(model, &cal);
    Ok(cal)
}

/// Cosine-style normalization of a dense weight matrix: every output row
/// is divided by its L2 norm (times `1/sqrt(in_dim)` input headroom), so
/// a dot product with a `[-1, 1]` input is bounded by Cauchy-Schwarz.
pub fn cosine_normalize_dense(weights: &mut [f32], out_dim: usize, in_dim: usize) {
    assert_eq!(weights.len(), out_dim * in_dim, "weight length mismatch");
    let headroom = (in_dim as f32).sqrt();
    for o in 0..out_dim {
        let row = &mut weights[o * in_dim..(o + 1) * in_dim];
        let norm = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            let div = norm * headroom;
            for v in row.iter_mut() {
                *v /= div;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehdl_nn::{Dense, WeightRng};

    fn hot_model() -> Model {
        // A model that deliberately blows past [-1, 1].
        let mut rng = WeightRng::new(21);
        let mut d1 = Dense::new(4, 8, &mut rng);
        for w in d1.weights_mut() {
            *w *= 20.0;
        }
        let mut d2 = Dense::new(8, 3, &mut rng);
        for w in d2.weights_mut() {
            *w *= 20.0;
        }
        Model::builder("hot", &[4])
            .layer(Layer::Dense(d1))
            .layer(Layer::Relu)
            .layer(Layer::Dense(d2))
            .build()
            .unwrap()
    }

    fn calib_inputs() -> Vec<Tensor> {
        (0..8)
            .map(|k| {
                Tensor::from_vec((0..4).map(|i| ((i + k) as f32 * 0.7).sin()).collect(), &[4])
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn normalize_input_respects_limit() {
        let mut data = vec![4.0, -8.0, 2.0];
        let div = normalize_input(&mut data, 1.0);
        assert_eq!(div, 8.0);
        assert_eq!(data, vec![0.5, -1.0, 0.25]);
        let mut zeros = vec![0.0; 3];
        assert_eq!(normalize_input(&mut zeros, 1.0), 1.0);
    }

    #[test]
    fn calibration_brings_activations_in_range() {
        let mut model = hot_model();
        let inputs = calib_inputs();
        // Before: activations exceed 1.
        let before = model.forward_trace(&inputs[0]).unwrap();
        assert!(before.iter().any(|t| t.max_abs() > 1.0));

        normalize_model(&mut model, &inputs, 0.9).unwrap();
        for input in &inputs {
            for act in model.forward_trace(input).unwrap().iter().skip(1) {
                assert!(act.max_abs() <= 0.9 + 1e-4, "max {}", act.max_abs());
            }
        }
    }

    #[test]
    fn calibration_preserves_argmax() {
        let mut model = hot_model();
        let inputs = calib_inputs();
        let before: Vec<usize> = inputs
            .iter()
            .map(|x| model.forward(x).unwrap().argmax())
            .collect();
        normalize_model(&mut model, &inputs, 0.9).unwrap();
        let after: Vec<usize> = inputs
            .iter()
            .map(|x| model.forward(x).unwrap().argmax())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn already_cool_model_is_untouched() {
        let mut rng = WeightRng::new(22);
        let mut cool = Dense::new(4, 2, &mut rng);
        for w in cool.weights_mut() {
            *w *= 0.1; // guarantee outputs well inside [-1, 1]
        }
        let mut model = Model::builder("cool", &[4])
            .layer(Layer::Dense(cool))
            .build()
            .unwrap();
        let inputs = calib_inputs();
        let cal = normalize_model(&mut model, &inputs, 1.0).unwrap();
        assert!(cal.scales.iter().all(|&s| s == 1.0));
    }

    #[test]
    fn cosine_normalization_bounds_dot_products() {
        let mut rng = WeightRng::new(23);
        let mut w: Vec<f32> = (0..64).map(|_| rng.uniform(10.0)).collect();
        cosine_normalize_dense(&mut w, 8, 8);
        // Any [-1,1] input gives |w_row . x| <= |w_row| * |x| <= (1/sqrt(8)) * sqrt(8) = 1.
        for o in 0..8 {
            let norm: f32 = w[o * 8..(o + 1) * 8]
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
                .sqrt();
            assert!(norm <= 1.0 / (8.0f32).sqrt() + 1e-5);
        }
    }

    #[test]
    fn calibration_handles_bcm_layers() {
        let mut rng = WeightRng::new(24);
        let mut bcm = ehdl_nn::BcmDense::new(8, 8, 4, &mut rng);
        for rb in 0..2 {
            for cb in 0..2 {
                for w in bcm.block_at_mut(rb, cb) {
                    *w *= 50.0;
                }
            }
        }
        let mut model = Model::builder("bcm-hot", &[8])
            .layer(Layer::BcmDense(bcm))
            .build()
            .unwrap();
        let inputs: Vec<Tensor> = (0..4)
            .map(|k| {
                Tensor::from_vec((0..8).map(|i| ((i * k) as f32 * 0.3).cos()).collect(), &[8])
                    .unwrap()
            })
            .collect();
        normalize_model(&mut model, &inputs, 0.9).unwrap();
        for input in &inputs {
            assert!(model.forward(input).unwrap().max_abs() <= 0.9 + 1e-4);
        }
    }
}
