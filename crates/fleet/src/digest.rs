//! Fixed-size, mergeable sample digests.
//!
//! A [`StatsDigest`] folds an unbounded stream of samples into constant
//! space: exact count/sum/min/max plus a fixed-bin log-histogram
//! quantile sketch. Two digests merge by adding their bins, so
//! per-scenario partials combine into a fleet-wide digest without ever
//! retaining a sample — the property that lets 10k+ scenario sweeps
//! report percentiles in O(1) memory, the same way summary-based
//! solvers scale by composing small abstractions instead of enumerating
//! concrete instances.
//!
//! Determinism: folding is a pure function of the sample sequence, and
//! merging is a pure function of the (ordered) digest sequence. The
//! fleet runner folds each scenario's runs inside one worker in run
//! order and merges scenario digests in matrix order, so the final
//! digest is bit-identical at any worker count.

use core::fmt;

/// Number of log-spaced histogram bins.
const BINS: usize = 1024;

/// Lower edge of bin 0; smaller positive samples clamp into bin 0.
const MIN_TRACKED: f64 = 1e-9;

/// Natural log of the bin-width ratio γ: bin `i` covers
/// `[MIN_TRACKED · γ^i, MIN_TRACKED · γ^(i+1))`.
const LN_GAMMA: f64 = 0.04;

/// A constant-size digest of a sample stream: exact count, sum, min and
/// max, plus a 1024-bin log-histogram covering `[1e-9, ~6e8]` from
/// which any quantile can be estimated within
/// [`StatsDigest::RELATIVE_ERROR`].
///
/// ```
/// use ehdl_fleet::StatsDigest;
///
/// let mut d = StatsDigest::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     d.record(v);
/// }
/// assert_eq!(d.count(), 4);
/// assert_eq!(d.min(), Some(1.0));
/// let p50 = d.quantile(50.0).unwrap();
/// assert!((p50 - 2.0).abs() / 2.0 <= StatsDigest::RELATIVE_ERROR);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StatsDigest {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    bins: Box<[u64; BINS]>,
}

impl Default for StatsDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl StatsDigest {
    /// Worst-case relative error of [`quantile`](Self::quantile) for
    /// samples inside the tracked range `[1e-9, ~6e8]`: estimates are
    /// geometric bin midpoints, so they sit within `√γ − 1 ≈ 2.02%` of
    /// any sample landing in the same bin.
    pub const RELATIVE_ERROR: f64 = 0.0203;

    /// An empty digest.
    pub fn new() -> Self {
        StatsDigest {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            bins: Box::new([0u64; BINS]),
        }
    }

    /// Folds one sample. Non-finite samples are ignored; samples outside
    /// the tracked range clamp into the first or last bin (count, sum,
    /// min and max stay exact either way).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.bins[bin_of(value)] += 1;
    }

    /// Merges `other` into `self`. Bin counts add, so merging is
    /// associative and (up to the floating-point `sum`) commutative;
    /// callers wanting bit-identical sums must merge in a fixed order.
    pub fn merge(&mut self, other: &StatsDigest) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.bins.iter_mut().zip(other.bins.iter()) {
            *a += *b;
        }
    }

    /// Number of samples folded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Nearest-rank quantile estimate (`p` in `[0, 100]`), `None` when
    /// empty. The estimate is the geometric midpoint of the bin holding
    /// the nearest-rank sample, clamped into `[min, max]` — within
    /// [`RELATIVE_ERROR`](Self::RELATIVE_ERROR) of the exact
    /// nearest-rank percentile for in-range samples.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = MIN_TRACKED * (LN_GAMMA * (i as f64 + 0.5)).exp();
                return Some(mid.clamp(self.min, self.max));
            }
        }
        // Unreachable: the bins sum to `count`.
        Some(self.max)
    }

    /// Median estimate (`None` when empty).
    pub fn p50(&self) -> Option<f64> {
        self.quantile(50.0)
    }

    /// 90th-percentile estimate (`None` when empty).
    pub fn p90(&self) -> Option<f64> {
        self.quantile(90.0)
    }

    /// 99th-percentile estimate (`None` when empty).
    pub fn p99(&self) -> Option<f64> {
        self.quantile(99.0)
    }

    /// Bytes this digest retains (inline struct plus the boxed bins) —
    /// a constant, however many samples were folded.
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() + BINS * core::mem::size_of::<u64>()
    }

    /// The occupied histogram bins as sparse `(bin_index, count)` pairs,
    /// ascending — the raw resolution data behind every quantile this
    /// digest can report. Few occupied bins means coarse quantiles: all
    /// samples in one bin answer every percentile with the same midpoint.
    pub fn bin_occupancy(&self) -> Vec<(usize, u64)> {
        self.bins
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }

    /// The histogram bin holding the nearest-rank sample for percentile
    /// `p`, `None` when empty. Two percentiles landing in the same bin
    /// return the same [`quantile`](Self::quantile) estimate — see
    /// [`quantile_fidelity`](Self::quantile_fidelity).
    pub fn quantile_bin(&self, p: f64) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(i);
            }
        }
        Some(BINS - 1)
    }

    /// How much resolution the histogram actually has for this sample
    /// set: occupied-bin count and the bins behind the p50/p90/p99
    /// estimates. Explains artifacts like `p90 == p99`: each bin spans a
    /// `e^0.04 ≈ 4.08%` value ratio, so a tail clustered tighter than
    /// one bin collapses every tail percentile onto one midpoint (the
    /// estimates are still within [`RELATIVE_ERROR`](Self::RELATIVE_ERROR)
    /// of the exact values — the sketch is coarse, not wrong).
    pub fn quantile_fidelity(&self) -> QuantileFidelity {
        QuantileFidelity {
            occupied_bins: self.bins.iter().filter(|&&n| n > 0).count(),
            p50_bin: self.quantile_bin(50.0),
            p90_bin: self.quantile_bin(90.0),
            p99_bin: self.quantile_bin(99.0),
        }
    }

    /// The digest's exact state for wire serialization:
    /// `(count, sum, min, max, bins)`. Together with
    /// [`from_raw_parts`](Self::from_raw_parts) this is the bit-exact
    /// round trip the shard protocol rides on.
    pub(crate) fn raw_parts(&self) -> (u64, f64, f64, f64, &[u64]) {
        (self.count, self.sum, self.min, self.max, &self.bins[..])
    }

    /// Rebuilds a digest from wire parts; `sparse` is `(bin, count)`
    /// pairs in ascending bin order. Returns `None` for parts no digest
    /// produces (a corrupt, hostile or newer-format partial): a bin
    /// index out of range, repeated or descending, bin counts that do
    /// not sum to `count`, or a non-empty digest whose min or max is
    /// NaN or whose min exceeds its max.
    pub(crate) fn from_raw_parts(
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        sparse: &[(usize, u64)],
    ) -> Option<Self> {
        let mut bins = Box::new([0u64; BINS]);
        let (mut next, mut total) = (0, 0u64);
        for &(bin, n) in sparse {
            if bin < next || bin >= BINS {
                return None;
            }
            bins[bin] = n;
            (next, total) = (bin + 1, total.checked_add(n)?);
        }
        let bad_range = min.is_nan() || max.is_nan() || min > max;
        if total != count || (count > 0 && bad_range) {
            return None;
        }
        Some(StatsDigest {
            count,
            sum,
            min,
            max,
            bins,
        })
    }
}

/// A [`StatsDigest`]'s quantile resolution for the samples it holds:
/// which log-histogram bins back the headline percentiles, and how many
/// bins the sample set occupies at all. Produced by
/// [`StatsDigest::quantile_fidelity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantileFidelity {
    /// Number of occupied histogram bins.
    pub occupied_bins: usize,
    /// Bin behind the p50 estimate (`None` when empty).
    pub p50_bin: Option<usize>,
    /// Bin behind the p90 estimate (`None` when empty).
    pub p90_bin: Option<usize>,
    /// Bin behind the p99 estimate (`None` when empty).
    pub p99_bin: Option<usize>,
}

impl QuantileFidelity {
    /// The value ratio one bin spans (`e^0.04 ≈ 1.0408`): percentiles
    /// whose exact values differ by less than ~4.08% can land in one bin
    /// and report identical estimates.
    pub const BIN_WIDTH_RATIO: f64 = 1.0408;

    /// `true` when p90 and p99 are backed by the same bin — the tail is
    /// clustered tighter than one bin's ~4.08% span, so both report the
    /// same midpoint (the `latency_p90 == latency_p99` artifact).
    pub fn tail_collapsed(&self) -> bool {
        self.p90_bin.is_some() && self.p90_bin == self.p99_bin
    }
}

impl fmt::Display for QuantileFidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bin = |b: Option<usize>| b.map_or_else(|| "-".to_string(), |i| i.to_string());
        write!(
            f,
            "{} occupied bins, p50@{} p90@{} p99@{}{}",
            self.occupied_bins,
            bin(self.p50_bin),
            bin(self.p90_bin),
            bin(self.p99_bin),
            if self.tail_collapsed() {
                " (tail collapsed: p90 and p99 share a bin)"
            } else {
                ""
            }
        )
    }
}

/// The histogram bin a sample lands in.
fn bin_of(value: f64) -> usize {
    if value < MIN_TRACKED {
        return 0;
    }
    let i = ((value / MIN_TRACKED).ln() / LN_GAMMA).floor();
    (i as usize).min(BINS - 1)
}

impl fmt::Display for StatsDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.count {
            0 => write!(f, "empty digest"),
            n => write!(
                f,
                "n={n} mean {:.3} min {:.3} p50 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
                self.mean().unwrap_or(0.0),
                self.min,
                self.p50().unwrap_or(0.0),
                self.p90().unwrap_or(0.0),
                self.p99().unwrap_or(0.0),
                self.max
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Unit float in [0, 1) from a SplitMix64 draw.
    fn unit(z: u64) -> f64 {
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The textbook nearest-rank percentile over unsorted samples.
    fn exact_percentile(samples: &[f64], p: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn empty_digest_has_no_stats() {
        let d = StatsDigest::new();
        assert_eq!(d.count(), 0);
        assert_eq!(d.min(), None);
        assert_eq!(d.max(), None);
        assert_eq!(d.mean(), None);
        assert_eq!(d.quantile(50.0), None);
        assert_eq!(d.to_string(), "empty digest");
    }

    #[test]
    fn exact_moments_are_exact() {
        let mut d = StatsDigest::new();
        for v in [4.0, 1.0, 7.0, 2.0] {
            d.record(v);
        }
        assert_eq!(d.count(), 4);
        assert_eq!(d.sum(), 14.0);
        assert_eq!(d.min(), Some(1.0));
        assert_eq!(d.max(), Some(7.0));
        assert_eq!(d.mean(), Some(3.5));
        // Non-finite samples are dropped, not folded as garbage.
        d.record(f64::NAN);
        d.record(f64::INFINITY);
        assert_eq!(d.count(), 4);
    }

    #[test]
    fn quantiles_land_within_the_documented_relative_error() {
        // Deterministic SplitMix64 sample sets over several shapes and
        // sizes, spanning many decades so hundreds of bins are hit.
        for (shape, size) in [(0u64, 100usize), (1, 1_000), (2, 10_000), (3, 4_777)] {
            let samples: Vec<f64> = (0..size)
                .map(|i| {
                    let u = unit(splitmix((i as u64) ^ (shape << 56)));
                    match shape {
                        // Uniform latencies around 100 ms.
                        0 => 20.0 + 180.0 * u,
                        // Log-uniform over nine decades.
                        1 => 1e-3 * (u * 9.0 * core::f64::consts::LN_10).exp(),
                        // Heavy-tailed: mostly 1–10, occasional 1e4 spikes.
                        2 => {
                            if u < 0.95 {
                                1.0 + 9.0 * (u / 0.95)
                            } else {
                                1e4 * (1.0 + u)
                            }
                        }
                        // Near-constant with jitter (everything one bin).
                        _ => 42.0 * (1.0 + 1e-6 * u),
                    }
                })
                .collect();
            let mut d = StatsDigest::new();
            for &v in &samples {
                d.record(v);
            }
            for p in [0.0, 1.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let exact = exact_percentile(&samples, p);
                let est = d.quantile(p).unwrap();
                let rel = (est - exact).abs() / exact;
                assert!(
                    rel <= StatsDigest::RELATIVE_ERROR,
                    "shape {shape} n={size} p={p}: est {est} vs exact {exact} (rel {rel:.5})"
                );
            }
        }
    }

    #[test]
    fn merge_in_fixed_order_is_bit_identical_regardless_of_chunking() {
        let samples: Vec<f64> = (0..5_000).map(|i| 1.0 + 1e3 * unit(splitmix(i))).collect();
        // Chunk the stream two different ways; per-chunk digests merged
        // in stream order must agree bit for bit (the worker-count
        // independence argument at digest level).
        let mut merged_a = StatsDigest::new();
        for chunk in samples.chunks(7) {
            let mut part = StatsDigest::new();
            chunk.iter().for_each(|&v| part.record(v));
            merged_a.merge(&part);
        }
        let mut merged_b = StatsDigest::new();
        for chunk in samples.chunks(501) {
            let mut part = StatsDigest::new();
            chunk.iter().for_each(|&v| part.record(v));
            merged_b.merge(&part);
        }
        // Identical counts, bins and extremes...
        assert_eq!(merged_a.count(), merged_b.count());
        assert_eq!(merged_a.min(), merged_b.min());
        assert_eq!(merged_a.max(), merged_b.max());
        assert_eq!(merged_a.quantile(50.0), merged_b.quantile(50.0));
        // ...but the floating-point sum depends on chunk boundaries —
        // which is exactly why the fleet merges in scenario order, where
        // chunking is fixed by the matrix, not the worker pool.
        let mut seq = StatsDigest::new();
        samples.iter().for_each(|&v| seq.record(v));
        assert_eq!(seq.count(), merged_a.count());
    }

    #[test]
    fn out_of_range_samples_clamp_into_edge_bins() {
        let mut d = StatsDigest::new();
        d.record(1e-12); // below bin 0
        d.record(1e12); // beyond the last bin
        assert_eq!(d.count(), 2);
        // Min/max stay exact even when the histogram clamps.
        assert_eq!(d.min(), Some(1e-12));
        assert_eq!(d.max(), Some(1e12));
        // Quantiles stay inside the observed range.
        let p50 = d.quantile(50.0).unwrap();
        assert!((1e-12..=1e12).contains(&p50));
    }

    #[test]
    fn clustered_tail_collapses_p90_and_p99_into_one_bin() {
        // The BENCH_fleet.json `fleet_digest` entry reports
        // latency_p90_ms == latency_p99_ms (6746.1966 both). This is the
        // sketch's documented resolution limit, not a bug: each log bin
        // spans a ~4.08% value ratio, so when the top decile of samples
        // clusters tighter than that (many scenarios sharing one slow
        // deterministic trajectory), the p90 and p99 ranks land in the
        // same bin and both report its geometric midpoint.
        let mut d = StatsDigest::new();
        // 85 fast samples spread over decades, 15 slow ones within 2% —
        // the p90 and p99 ranks both land in the clustered tail.
        for i in 0..85 {
            d.record(1.0 + f64::from(i));
        }
        for i in 0..15 {
            d.record(6700.0 * (1.0 + 1e-3 * f64::from(i)));
        }
        let p90 = d.quantile(90.0).unwrap();
        let p99 = d.quantile(99.0).unwrap();
        assert_eq!(p90, p99, "clustered tail must collapse");
        let fidelity = d.quantile_fidelity();
        assert!(fidelity.tail_collapsed(), "{fidelity}");
        assert_eq!(fidelity.p90_bin, fidelity.p99_bin);
        assert_ne!(fidelity.p50_bin, fidelity.p90_bin);
        assert!(fidelity.to_string().contains("tail collapsed"));
        // Both estimates are still within the documented error of the
        // exact nearest-rank values.
        let exact_p90 = exact_percentile(
            &(0..85)
                .map(|i| 1.0 + f64::from(i))
                .chain((0..15).map(|i| 6700.0 * (1.0 + 1e-3 * f64::from(i))))
                .collect::<Vec<_>>(),
            90.0,
        );
        assert!((p90 - exact_p90).abs() / exact_p90 <= StatsDigest::RELATIVE_ERROR);
        // A tail spread wider than one bin does NOT collapse.
        let mut spread = StatsDigest::new();
        for i in 0..85 {
            spread.record(1.0 + f64::from(i));
        }
        for i in 0..15 {
            spread.record(6700.0 * (1.0 + 0.1 * f64::from(i)));
        }
        assert!(!spread.quantile_fidelity().tail_collapsed());
        assert_ne!(spread.quantile(90.0), spread.quantile(99.0));
    }

    #[test]
    fn bin_occupancy_is_the_sparse_histogram() {
        let mut d = StatsDigest::new();
        assert!(d.bin_occupancy().is_empty());
        assert_eq!(d.quantile_bin(50.0), None);
        for v in [1.0, 1.0, 1e6] {
            d.record(v);
        }
        let occ = d.bin_occupancy();
        assert_eq!(occ.len(), 2);
        assert_eq!(occ[0].1, 2);
        assert_eq!(occ[1].1, 1);
        assert!(occ[0].0 < occ[1].0);
        assert_eq!(occ.iter().map(|&(_, n)| n).sum::<u64>(), d.count());
        assert_eq!(d.quantile_bin(50.0), Some(occ[0].0));
        assert_eq!(d.quantile_bin(100.0), Some(occ[1].0));
    }

    #[test]
    fn display_summarizes() {
        let mut d = StatsDigest::new();
        d.record(2.0);
        let s = d.to_string();
        assert!(s.contains("n=1"), "{s}");
    }
}
