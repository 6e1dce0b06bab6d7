//! Drift between two sweeps, as a diff: [`diff_digests`] compares two
//! [`FleetDigest`] JSON documents field by field and names every field
//! that moved.
//!
//! - Counters, float totals and nested tallies must match exactly,
//!   floats bit for bit.
//! - A [`StatsDigest`] sketch may move within its documented
//!   [`StatsDigest::RELATIVE_ERROR`] (2.03%). Its count must match
//!   exactly. Its sum, min and max must agree within that relative
//!   error. Its histogram is compared bin by bin, and each sample may
//!   move by at most one bin: a sample moved by 2.03% lands in its own
//!   bin or a neighbour.
//!
//! The `digest_diff` binary is a thin command line over this module.

use crate::digest::StatsDigest;
use crate::metrics::FleetDigest;
use crate::wire::{Json, Wire};
use core::fmt;

/// Which of the two compared documents a [`DigestDiffError`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestSide {
    /// The first (baseline) document.
    Old,
    /// The second (candidate) document.
    New,
}

/// A document that does not decode as a [`FleetDigest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestDiffError {
    /// The document that failed to decode.
    pub side: DigestSide,
    /// The first syntax or schema error in it.
    pub reason: String,
}

impl fmt::Display for DigestDiffError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = match self.side {
            DigestSide::Old => "old",
            DigestSide::New => "new",
        };
        write!(f, "{side} digest is not a fleet digest: {}", self.reason)
    }
}

impl std::error::Error for DigestDiffError {}

/// One field two digests disagree on, beyond its tolerance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDiff {
    /// Dotted path of the field, e.g. `resilience.torn_commits`. A
    /// sketch histogram that moved past its tolerance reads
    /// `latency_ms.bins[..=i]`, with the number of samples in bins
    /// `0..=i` on each side, `i` the first bin where a sample moved
    /// more than one bin.
    pub field: String,
    /// The field in the old digest.
    pub old: String,
    /// The field in the new digest.
    pub new: String,
}

impl fmt::Display for FieldDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.field, self.old, self.new)
    }
}

/// Compares two [`FleetDigest::to_json`] documents and returns one
/// [`FieldDiff`] per field that moved beyond its tolerance (see the
/// module docs), in the digest's field order. An empty list means the
/// two sweeps agree.
///
/// # Errors
///
/// Returns [`DigestDiffError`] if either document is not valid JSON or
/// not a fleet digest.
pub fn diff_digests(old: &str, new: &str) -> Result<Vec<FieldDiff>, DigestDiffError> {
    let old = canonical(old, DigestSide::Old)?;
    let new = canonical(new, DigestSide::New)?;
    let mut out = Vec::new();
    walk("", &old, &new, &mut out);
    Ok(out)
}

/// Decodes `text` as a digest and re-parses its canonical encoding, so
/// both sides walk the same schema in the same field order.
fn canonical(text: &str, side: DigestSide) -> Result<Json, DigestDiffError> {
    let error = |reason| DigestDiffError { side, reason };
    let digest = FleetDigest::from_json(text).map_err(error)?;
    Json::parse(&digest.to_json()).map_err(error)
}

fn walk(path: &str, old: &Json, new: &Json, out: &mut Vec<FieldDiff>) {
    if let (Some(a), Some(b)) = (sketch(old), sketch(new)) {
        diff_sketches(path, &a, &b, out);
        return;
    }
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            for ((key, a), (_, b)) in a.iter().zip(b) {
                let field = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                walk(&field, a, b, out);
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            for (i, (a, b)) in a.iter().zip(b).enumerate() {
                walk(&format!("{path}[{i}]"), a, b, out);
            }
        }
        _ if old != new => out.push(FieldDiff {
            field: path.to_owned(),
            old: leaf(old),
            new: leaf(new),
        }),
        _ => {}
    }
}

/// The sketch a digest object encodes (sketches are the objects with
/// histogram `bins`).
fn sketch(v: &Json) -> Option<StatsDigest> {
    v.get("bins")?;
    StatsDigest::decode(v).ok()
}

/// A leaf as the wire carries it; a float's hex bits also show its value.
fn leaf(v: &Json) -> String {
    match (v, v.as_f64_bits()) {
        (Json::Str(hex), Some(x)) => format!("{hex} ({x})"),
        (Json::Num(raw), _) | (Json::Str(raw), _) => raw.clone(),
        _ => format!("{v:?}"),
    }
}

/// `a` and `b` within the sketch's relative error (infinities, as in an
/// empty sketch's min and max, only match themselves).
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= StatsDigest::RELATIVE_ERROR * a.abs().max(b.abs())
}

fn diff_sketches(path: &str, old: &StatsDigest, new: &StatsDigest, out: &mut Vec<FieldDiff>) {
    let (count_a, sum_a, min_a, max_a, bins_a) = old.raw_parts();
    let (count_b, sum_b, min_b, max_b, bins_b) = new.raw_parts();
    let mut push = |field: &str, old: String, new: String| {
        out.push(FieldDiff {
            field: format!("{path}.{field}"),
            old,
            new,
        });
    };
    if count_a != count_b {
        push("count", count_a.to_string(), count_b.to_string());
    }
    for (field, a, b) in [
        ("sum", sum_a, sum_b),
        ("min", min_a, min_b),
        ("max", max_a, max_b),
    ] {
        if !close(a, b) {
            push(field, a.to_string(), b.to_string());
        }
    }
    let (ca, cb) = (cumulative(bins_a), cumulative(bins_b));
    if let Some(bin) = first_shift_past_one_bin(&ca, &cb) {
        push(
            &format!("bins[..={bin}]"),
            ca[bin].to_string(),
            cb[bin].to_string(),
        );
    }
}

/// Running totals of a histogram: `[i]` counts the samples in bins
/// `0..=i`.
fn cumulative(bins: &[u64]) -> Vec<u64> {
    bins.iter()
        .scan(0u64, |total, &n| {
            *total = total.saturating_add(n);
            Some(*total)
        })
        .collect()
}

/// The first bin where some sample of one histogram has no partner
/// within one bin in the other, given both histograms' running totals.
/// Matching the k-th smallest samples of the two sides, every pair lies
/// within one bin exactly when each running total of one side lies
/// between the other side's totals one bin below and one bin above. At
/// the bin returned, the two running totals differ.
fn first_shift_past_one_bin(ca: &[u64], cb: &[u64]) -> Option<usize> {
    let last = ca.len().saturating_sub(1);
    (0..ca.len()).find(|&i| {
        let below = if i == 0 { 0 } else { cb[i - 1] };
        let above = cb[(i + 1).min(last)];
        ca[i] < below || ca[i] > above
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A digest with counters, float totals, tallies and one sketch
    /// holding `moved` among 1,002 other latencies.
    fn digest(moved: f64) -> FleetDigest {
        let mut d = FleetDigest {
            scenarios: 4,
            runs: 8,
            outages: 3,
            energy_nj: 1.5e6,
            ..FleetDigest::default()
        };
        d.resilience.torn_commits = 2;
        d.integrity.ladder = [5, 1, 0, 0];
        for ms in [1.0, 20.0, moved] {
            d.latency_ms.record(ms);
        }
        for _ in 0..1000 {
            d.latency_ms.record(10.0);
        }
        d
    }

    fn diff(old: &FleetDigest, new: &FleetDigest) -> Vec<String> {
        diff_digests(&old.to_json(), &new.to_json())
            .unwrap()
            .iter()
            .map(ToString::to_string)
            .collect()
    }

    #[test]
    fn identical_digests_have_no_diff() {
        let d = digest(5.0);
        assert!(diff(&d, &d).is_empty());
        // Whitespace and member order are not drift.
        let spaced = d.to_json().replace(',', ", ");
        assert!(diff_digests(&d.to_json(), &spaced).unwrap().is_empty());
    }

    #[test]
    fn a_moved_counter_or_total_is_one_line() {
        let old = digest(5.0);
        let mut new = old.clone();
        new.outages += 1;
        assert_eq!(diff(&old, &new), ["outages: 3 -> 4"]);

        let mut new = old.clone();
        new.energy_nj = f64::from_bits(old.energy_nj.to_bits() + 1);
        new.integrity.ladder[2] = 1;
        assert_eq!(
            diff(&old, &new),
            [
                "energy_nj: 4136e36000000000 (1500000) -> 4136e36000000001 (1500000.0000000002)",
                "integrity.ladder[2]: 0 -> 1",
            ]
        );
    }

    #[test]
    fn a_sketch_may_move_within_its_relative_error_only() {
        let old = digest(5.0);
        // 2% moves the sample at most one bin; sum, min and max hold.
        assert!(diff(&old, &digest(5.0 * 1.02)).is_empty());
        // 10% moves it about two and a half bins.
        assert_eq!(
            diff(&old, &digest(5.5)),
            ["latency_ms.bins[..=558]: 2 -> 1"]
        );
        // A sample more or fewer moves the count as well.
        let mut new = old.clone();
        new.latency_ms.record(10.0);
        assert_eq!(
            diff(&old, &new),
            [
                "latency_ms.count: 1003 -> 1004",
                "latency_ms.bins[..=576]: 1002 -> 1003",
            ]
        );
    }

    #[test]
    fn malformed_documents_are_typed_errors() {
        let good = digest(5.0).to_json();
        let err = diff_digests("{\"scenarios\":", &good).unwrap_err();
        assert_eq!(err.side, DigestSide::Old);
        assert!(err.to_string().starts_with("old digest"), "{err}");
        let err = diff_digests(&good, "{\"scenarios\":4}").unwrap_err();
        assert_eq!(err.side, DigestSide::New);
        assert!(err.reason.contains("missing field"), "{err}");
        let truncated = &good[..good.len() / 2];
        assert!(diff_digests(&good, truncated).is_err());
        assert!(diff_digests(&good, "[]").is_err());
    }
}
