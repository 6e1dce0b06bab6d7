//! Circulant matrix-vector products — the kernel of BCM compression.
//!
//! A circulant matrix is fully determined by its first column `c`:
//! `C[i][j] = c[(i - j) mod n]`, and `C·x` equals the circular convolution
//! `c ⊛ x`, computable as `IDFT(DFT(c) ∘ DFT(x))`. The paper stores one
//! length-`b` vector per `b×b` block of a fully-connected weight matrix
//! (Table I) and evaluates the product with the LEA's FFT commands
//! (Algorithm 1). This module supplies all four evaluation routes —
//! {direct, FFT} × {f64, Q15} — so higher layers can cross-check them.

use crate::fft_f64::{fft_f64, ifft_f64, Cf64};
use crate::{FftError, FftPlan};
use ehdl_fixed::{ComplexQ15, MacAcc, Q15};

/// Direct `O(n²)` circulant matvec in double precision:
/// `y[i] = Σ_j c[(i-j) mod n] · x[j]`.
///
/// Column-major: column `j` adds `c[(i-j) mod n]·x[j]` into every `y[i]`,
/// which reads `c[n-j..]` for `i < j` and `c[..n-j]` for `i ≥ j` — two
/// contiguous slices, so the inner loop has no `%` and vectorizes across
/// outputs. Each `y[i]` still starts at `+0.0` and adds its terms in
/// `j = 0..n` order (no fused multiply-add), so the result is bit-for-bit
/// the row-by-row sum.
///
/// # Panics
///
/// Panics if `c` and `x` lengths differ.
pub fn matvec_f64(c: &[f64], x: &[f64]) -> Vec<f64> {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    let n = c.len();
    let mut y = vec![0.0; n];
    for (j, &xj) in x.iter().enumerate() {
        let (wrapped, direct) = y.split_at_mut(j);
        for (yi, &ck) in wrapped.iter_mut().zip(&c[n - j..]) {
            *yi += ck * xj;
        }
        for (yi, &ck) in direct.iter_mut().zip(&c[..n - j]) {
            *yi += ck * xj;
        }
    }
    y
}

/// FFT-based `O(n log n)` circulant matvec in double precision.
///
/// # Panics
///
/// Panics if lengths differ or are not a power of two.
pub fn matvec_fft_f64(c: &[f64], x: &[f64]) -> Vec<f64> {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    let mut fc: Vec<Cf64> = c.iter().copied().map(Cf64::from_real).collect();
    let mut fx: Vec<Cf64> = x.iter().copied().map(Cf64::from_real).collect();
    fft_f64(&mut fc);
    fft_f64(&mut fx);
    let mut fy: Vec<Cf64> = fc.iter().zip(&fx).map(|(&a, &b)| a * b).collect();
    ifft_f64(&mut fy);
    fy.into_iter().map(|v| v.re).collect()
}

/// Direct fixed-point circulant matvec with exact wide accumulation —
/// the bit-accurate reference for what the LEA pipeline should produce.
///
/// Returns the accumulators (Q30 scale) so the caller chooses where to
/// round (C-INTERMEDIATE).
///
/// # Panics
///
/// Panics if `c` and `x` lengths differ.
pub fn matvec_direct_q15(c: &[Q15], x: &[Q15]) -> Vec<MacAcc> {
    assert_eq!(c.len(), x.len(), "circulant dimension mismatch");
    let n = c.len();
    let mut y = vec![MacAcc::ZERO; n];
    for (i, yi) in y.iter_mut().enumerate() {
        for (j, &xj) in x.iter().enumerate() {
            yi.mac(c[(n + i - j) % n], xj);
        }
    }
    y
}

/// The full fixed-point FFT route of Algorithm 1 for one circulant block:
/// `REAL(IFFT(FFT(c) ∘ FFT(x)))`, returned at `1/N²` scale (the caller —
/// ACE — applies SCALE-UP, possibly after accumulating across blocks).
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if the operand lengths differ from
/// the plan length.
pub fn matvec_fft_q15(plan: &FftPlan, c: &[Q15], x: &[Q15]) -> Result<Vec<Q15>, FftError> {
    let fc = plan.fft_real(c)?;
    let fx = plan.fft_real(x)?;
    let mut fy: Vec<ComplexQ15> = fc.iter().zip(&fx).map(|(&a, &b)| a.mul_exact(b)).collect();
    plan.ifft(&mut fy)?;
    Ok(fy.into_iter().map(|v| v.real()).collect())
}

/// Builds the dense `n×n` matrix represented by first column `c` —
/// used by tests and by RAD's projection of trained dense weights onto
/// the circulant set.
pub fn to_dense_f64(c: &[f64]) -> Vec<Vec<f64>> {
    let n = c.len();
    (0..n)
        .map(|i| (0..n).map(|j| c[(n + i - j) % n]).collect())
        .collect()
}

/// Projects a dense `n×n` matrix onto the nearest circulant matrix in the
/// Frobenius norm: each diagonal `(i - j) mod n = d` is replaced by its
/// mean. This is the projection step RAD's ADMM-style training uses to
/// impose BCM structure on FC layers.
///
/// # Panics
///
/// Panics if `m` is not square (rows of equal length `m.len()`).
pub fn project_to_circulant(m: &[Vec<f64>]) -> Vec<f64> {
    let n = m.len();
    for row in m {
        assert_eq!(row.len(), n, "matrix must be square");
    }
    let mut sums = vec![0.0; n];
    for (i, row) in m.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            sums[(n + i - j) % n] += v;
        }
    }
    sums.iter().map(|s| s / n as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(v: f32) -> Q15 {
        Q15::from_f32(v)
    }

    #[test]
    fn identity_kernel_is_identity() {
        let c = [1.0, 0.0, 0.0, 0.0];
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(matvec_f64(&c, &x), x.to_vec());
    }

    #[test]
    fn shift_kernel_rotates() {
        // c = e_1 -> y[i] = x[i-1 mod n].
        let c = [0.0, 1.0, 0.0, 0.0];
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(matvec_f64(&c, &x), vec![4.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn fft_route_matches_direct_f64() {
        let n = 32;
        let c: Vec<f64> = (0..n)
            .map(|i| ((i * 13 % 17) as f64 - 8.0) / 20.0)
            .collect();
        let x: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64 - 5.0) / 11.0).collect();
        let direct = matvec_f64(&c, &x);
        let fast = matvec_fft_f64(&c, &x);
        for (a, b) in direct.iter().zip(&fast) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn q15_fft_route_matches_direct_at_scale() {
        let n = 16usize;
        let plan = FftPlan::new(n).unwrap();
        let c: Vec<Q15> = (0..n).map(|i| q(0.3 * ((i as f32 * 0.9).sin()))).collect();
        let x: Vec<Q15> = (0..n).map(|i| q(0.5 * ((i as f32 * 0.4).cos()))).collect();

        let exact = matvec_direct_q15(&c, &x);
        let fft = matvec_fft_q15(&plan, &c, &x).unwrap();
        // FFT route is at 1/N^2 scale.
        for (f, e) in fft.iter().zip(&exact) {
            let want = e.to_f64() / (n * n) as f64;
            assert!(
                (f.to_f64() - want).abs() < 6.0 / 32768.0,
                "{} vs {}",
                f.to_f64(),
                want
            );
        }
    }

    #[test]
    fn dense_expansion_matches_matvec() {
        let c = [0.5, -0.25, 0.1, 0.0];
        let x = [1.0, -1.0, 0.5, 0.25];
        let dense = to_dense_f64(&c);
        let via_dense: Vec<f64> = dense
            .iter()
            .map(|row| row.iter().zip(&x).map(|(a, b)| a * b).sum())
            .collect();
        let direct = matvec_f64(&c, &x);
        for (a, b) in via_dense.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_of_circulant_is_identity() {
        let c = [0.3, -0.1, 0.7, 0.2];
        let dense = to_dense_f64(&c);
        let back = project_to_circulant(&dense);
        for (a, b) in back.iter().zip(&c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn projection_minimizes_frobenius_distance() {
        // For any matrix M and its projection C, replacing any diagonal
        // value with something else must not reduce the distance.
        let m = vec![
            vec![1.0, 2.0, 3.0],
            vec![4.0, 5.0, 6.0],
            vec![7.0, 8.0, 10.0],
        ];
        let c = project_to_circulant(&m);
        let dist = |cvec: &[f64]| -> f64 {
            let n = m.len();
            let mut d = 0.0;
            for i in 0..n {
                for j in 0..n {
                    let diff = m[i][j] - cvec[(n + i - j) % n];
                    d += diff * diff;
                }
            }
            d
        };
        let base = dist(&c);
        for k in 0..c.len() {
            for delta in [-0.1, 0.1] {
                let mut perturbed = c.clone();
                perturbed[k] += delta;
                assert!(dist(&perturbed) >= base - 1e-12);
            }
        }
    }

    /// The row-by-row modular loop `matvec_f64` replaced, kept as the
    /// bit-identity oracle.
    fn matvec_f64_modular(c: &[f64], x: &[f64]) -> Vec<f64> {
        let n = c.len();
        (0..n)
            .map(|i| {
                let mut acc = 0.0;
                for (j, &xj) in x.iter().enumerate() {
                    acc += c[(n + i - j) % n] * xj;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn rotated_slices_match_the_modular_loop_bit_for_bit() {
        let mut state = 0x5EED_C1C0_u64;
        let mut draw = || {
            // SplitMix64, mapped to a signed value with a wide exponent
            // spread so rounding differences would show.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * f64::from(1u32 << (z % 12))
        };
        for n in 1..=256 {
            let c: Vec<f64> = (0..n).map(|_| draw()).collect();
            let x: Vec<f64> = (0..n).map(|_| draw()).collect();
            let want = matvec_f64_modular(&c, &x);
            let got = matvec_f64(&c, &x);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        let _ = matvec_f64(&[1.0], &[1.0, 2.0]);
    }
}
