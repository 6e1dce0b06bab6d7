//! Checkpoint payload integrity: modeled bit-flips inside the
//! double-buffered FRAM checkpoint slots, the guard schemes that do (or
//! do not) catch them, and the deterministic recovery ladder a restore
//! walks when a slot reads back wrong.
//!
//! The fault substrate (PR 8) models corruption as an abstract
//! per-restore coin flip on a whole slot — which cannot distinguish a
//! *detected* checksum mismatch from a *silent* upset that restores
//! plausible-but-wrong state. This module closes that gap: every
//! checkpoint slot carries a modeled payload (sized from the plan's
//! live-state footprint — [`Program::restore_words`] 16-bit words),
//! [`FaultSpec::flip_per_commit_bit`] upsets payload bits at commit
//! time (accelerated by the slot's [`WearCurve`] wear-out), and the
//! configured [`Integrity`] scheme decides at restore time whether the
//! damage is repaired, detected, or silently restored.
//!
//! On restore the executor walks a four-rung **recovery ladder**:
//!
//! ```text
//! rung 0  verify the active slot's payload      -> accept (or SILENT)
//! rung 1  SECDED single-bit repair              -> accept, repaired
//! rung 2  fall back to the previous slot        -> lost window re-runs
//! rung 3  previous slot rejected too: cold boot -> all progress lost
//! ```
//!
//! Every rung is tallied in [`IntegrityTally::ladder`], and every
//! decision is an `ExecEvent` (`BitFlipInjected`, `PayloadRepaired`,
//! `PayloadRejected`, `SilentRestore`), so the crash-consistency audit
//! can prove — not assume — that `Checksum`/`Secded` keep
//! `silent_corruptions` at zero while `None` lets them through.
//!
//! [`FaultSpec::flip_per_commit_bit`]: crate::FaultSpec::flip_per_commit_bit
//! [`Program::restore_words`]: crate::Program::restore_words

use core::fmt;

/// The integrity scheme guarding checkpoint payloads.
///
/// The scheme travels with the compiled
/// [`ExecutionPlan`](crate::ExecutionPlan): its metadata words are
/// priced into every checkpoint and restore (see
/// [`padded_words`](Integrity::padded_words)), so choosing a stronger
/// guard costs real commit energy, exactly as it would on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrity {
    /// No guard: a flipped payload restores silently — the restored
    /// state is plausible but wrong, and only a golden-twin diff can
    /// tell.
    #[default]
    None,
    /// An FNV-64 checksum over the payload: detects any flip
    /// (detect-only — a mismatch rejects the slot), at four extra
    /// 16-bit words per checkpoint.
    Checksum,
    /// SECDED (single-error-correct, double-error-detect) Hamming
    /// protection: one flipped bit is repaired in place, two or more
    /// reject the slot — at six check bits per 16-bit payload word.
    Secded,
}

impl Integrity {
    /// Every scheme, weakest first.
    pub const ALL: [Integrity; 3] = [Integrity::None, Integrity::Checksum, Integrity::Secded];

    /// A stable lowercase token for matrix axes, group keys and wire
    /// records.
    pub fn label(self) -> &'static str {
        match self {
            Integrity::None => "none",
            Integrity::Checksum => "checksum",
            Integrity::Secded => "secded",
        }
    }

    /// Parses a [`label`](Integrity::label) back; `None` for unknown
    /// tokens.
    pub fn parse(label: &str) -> Option<Integrity> {
        Integrity::ALL.into_iter().find(|i| i.label() == label)
    }

    /// The 16-bit words a checkpoint of `words` payload words occupies
    /// once the scheme's metadata is added — the figure both plan
    /// compilation and the op-by-op reference path price, so the two
    /// executors stay in bit parity:
    ///
    /// * `None` — the payload alone;
    /// * `Checksum` — payload + 4 words (one FNV-64 digest);
    /// * `Secded` — payload + 6 check bits per payload word, packed.
    pub fn padded_words(self, words: u64) -> u64 {
        match self {
            Integrity::None => words,
            Integrity::Checksum => words + 4,
            Integrity::Secded => words + (words * 6).div_ceil(16),
        }
    }
}

impl fmt::Display for Integrity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-slot FRAM write-endurance model: the effective bit-flip rate
/// of a checkpoint write grows with that slot's lifetime commit count,
/// so long runs degrade realistically and wear-leveling across the two
/// double-buffered slots becomes observable.
///
/// The multiplier is integer and stepwise — a slot on its `k`-th
/// lifetime write flips at `(1 + k / endurance_commits) ×` the base
/// [`flip_per_commit_bit`](crate::FaultSpec::flip_per_commit_bit) rate
/// — so the schedule stays an exact function of the commit count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WearCurve {
    /// Writes after which a slot's flip rate gains another `1×` of the
    /// base rate. `0` disables wear-out (the multiplier stays `1`).
    pub endurance_commits: u64,
}

impl WearCurve {
    /// The disabled curve: flip rates never grow with wear.
    pub const NONE: WearCurve = WearCurve {
        endurance_commits: 0,
    };

    /// The flip-rate multiplier for a slot about to take its
    /// `write_count`-th lifetime write.
    pub fn multiplier(self, write_count: u64) -> u64 {
        1 + write_count.checked_div(self.endurance_commits).unwrap_or(0)
    }
}

/// Payload-integrity accounting for one run (or, once folded into a
/// fleet digest, many runs). All-zero unless the run drew from a fault
/// plan with bit-flips armed or ran a non-`None` scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityTally {
    /// Payload bits flipped at commit time (per-bit upsets drawn from
    /// the fault stream; `2` counts "two or more" for one commit).
    pub flips_injected: u64,
    /// Single-bit flips repaired in place by `Secded`.
    pub flips_repaired: u64,
    /// Payload verifications that *rejected* a slot (checksum mismatch
    /// or a SECDED double-error) — each one also counts as a detected
    /// corruption in the run's `FaultTally`.
    pub flips_detected: u64,
    /// Restores that accepted a flipped payload without noticing
    /// (scheme `None`): the run continues from plausible-but-wrong
    /// state. Mirrored into `FaultTally::silent_corruptions`.
    pub silent_restores: u64,
    /// The highest lifetime write count either checkpoint slot reached
    /// (merged across runs by `max`): the wear-out exposure figure.
    pub wear_max_commits: u64,
    /// Recovery-ladder depth histogram, one count per restore resolved
    /// under the integrity machinery: `[accepted, repaired,
    /// previous-slot fallback, cold boot]`.
    pub ladder: [u64; 4],
}

impl IntegrityTally {
    /// `true` when nothing integrity-related ever happened — not even a
    /// clean rung-0 restore under an armed scheme.
    pub fn is_empty(&self) -> bool {
        *self == IntegrityTally::default()
    }

    /// Restores resolved through the ladder (the histogram's total).
    pub fn restores_resolved(&self) -> u64 {
        self.ladder.iter().sum()
    }
}

/// The two double-buffered FRAM checkpoint slots as the integrity
/// machinery sees them: lifetime write counts (for wear) and the flip
/// damage the latest write to each slot carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IntegrityState {
    /// Lifetime writes per slot.
    writes: [u64; 2],
    /// Flips carried by each slot's current payload (saturating at 2 —
    /// "two or more" — which every scheme treats identically).
    flips: [u8; 2],
    /// The slot holding the freshest committed checkpoint.
    active: usize,
}

impl IntegrityState {
    pub(crate) fn new() -> Self {
        IntegrityState {
            writes: [0; 2],
            flips: [0; 2],
            active: 0,
        }
    }

    /// The lifetime write count the *next* commit's target slot will
    /// reach — the figure the wear curve prices.
    pub(crate) fn next_write_count(&self) -> u64 {
        self.writes[1 - self.active] + 1
    }

    /// Records a successful commit: the standby slot takes the write
    /// (and whatever flip damage the fault stream dealt it) and becomes
    /// active.
    pub(crate) fn commit(&mut self, flips: u32) {
        let slot = 1 - self.active;
        self.writes[slot] += 1;
        self.flips[slot] = flips.min(2) as u8;
        self.active = slot;
    }

    /// The highest lifetime write count either slot has reached.
    pub(crate) fn max_writes(&self) -> u64 {
        self.writes[0].max(self.writes[1])
    }

    fn active_flips(&self) -> u8 {
        self.flips[self.active]
    }

    fn repair_active(&mut self) {
        self.flips[self.active] = 0;
    }

    fn fall_back(&mut self) {
        self.active = 1 - self.active;
    }
}

/// What one walk of the recovery ladder decided. Interpreted by both
/// executor paths identically (the shared [`resolve_restore`] is the
/// single source of truth, so plan/reference bit parity holds by
/// construction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RestoreResolution {
    /// Ladder rung reached: 0 accept, 1 repaired, 2 previous slot,
    /// 3 cold boot.
    pub rung: u8,
    /// The accepted payload carries undetected flips (scheme `None`).
    pub silent: bool,
    /// Payload verifications that rejected a slot on this walk (active
    /// and/or previous).
    pub payload_rejects: u32,
    /// SECDED single-bit repairs performed on this walk.
    pub repairs: u32,
}

/// One payload verification under `scheme`.
enum Verify {
    /// Payload accepted as-is.
    Ok,
    /// Payload accepted but carries flips the scheme cannot see.
    Silent,
    /// One flip, repairable by SECDED.
    Repair,
    /// Flips detected; the slot is rejected.
    Reject,
}

fn verify(scheme: Integrity, flips: u8) -> Verify {
    match (scheme, flips) {
        (_, 0) => Verify::Ok,
        (Integrity::None, _) => Verify::Silent,
        (Integrity::Checksum, _) => Verify::Reject,
        (Integrity::Secded, 1) => Verify::Repair,
        (Integrity::Secded, _) => Verify::Reject,
    }
}

/// Walks the recovery ladder for one restore. `slot_bad` is the
/// slot-level corruption draw (the pre-existing
/// `corrupt_per_restore` mechanism): when it fires, the active slot's
/// metadata itself is unreadable and the walk starts at rung 2
/// regardless of scheme.
pub(crate) fn resolve_restore(
    scheme: Integrity,
    state: &mut IntegrityState,
    slot_bad: bool,
) -> RestoreResolution {
    let mut out = RestoreResolution {
        rung: 0,
        silent: false,
        payload_rejects: 0,
        repairs: 0,
    };
    if !slot_bad {
        match verify(scheme, state.active_flips()) {
            Verify::Ok => return out,
            Verify::Silent => {
                out.silent = true;
                return out;
            }
            Verify::Repair => {
                state.repair_active();
                out.rung = 1;
                out.repairs = 1;
                return out;
            }
            Verify::Reject => {
                out.payload_rejects = 1;
            }
        }
    }
    // Rung 2: the previous slot, itself payload-verified.
    state.fall_back();
    out.rung = 2;
    match verify(scheme, state.active_flips()) {
        Verify::Ok => {}
        Verify::Silent => out.silent = true,
        Verify::Repair => {
            state.repair_active();
            out.repairs += 1;
        }
        Verify::Reject => {
            out.payload_rejects += 1;
            out.rung = 3;
        }
    }
    out
}

/// Maps one SplitMix64 draw to a flip count for a freshly committed
/// payload of `bits` bits at per-bit rate `per_bit`, wear-accelerated
/// by `wear_mult`. Closed-form binomial head: the draw's low 32 bits
/// land in `[0, P(0 flips))` → 0, `[P(0), P(0)+P(1))` → 1, else "2 or
/// more" (capped at 2 — every scheme treats ≥2 identically). The same
/// deterministic float evaluation runs in both executor paths.
pub(crate) fn flips_from_draw(draw: u64, per_bit: f64, bits: u64, wear_mult: u64) -> u32 {
    let p = (per_bit * wear_mult as f64).min(1.0);
    if p <= 0.0 || bits == 0 {
        return 0;
    }
    if p >= 1.0 {
        return 2;
    }
    let q = 1.0 - p;
    let n = bits as f64;
    let p0 = q.powf(n);
    let p1 = n * p * q.powf(n - 1.0);
    let t0 = (p0 * 4_294_967_296.0).round().clamp(0.0, 4_294_967_296.0) as u64;
    let t1 = ((p0 + p1) * 4_294_967_296.0)
        .round()
        .clamp(0.0, 4_294_967_296.0) as u64;
    let r = draw & 0xFFFF_FFFF;
    if r < t0 {
        0
    } else if r < t1 {
        1
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_are_distinct() {
        for scheme in Integrity::ALL {
            assert_eq!(Integrity::parse(scheme.label()), Some(scheme));
            assert_eq!(scheme.to_string(), scheme.label());
        }
        assert_eq!(Integrity::parse("crc32"), None);
        let labels: Vec<_> = Integrity::ALL.iter().map(|i| i.label()).collect();
        assert_eq!(labels, ["none", "checksum", "secded"]);
    }

    #[test]
    fn padding_prices_the_scheme_metadata() {
        assert_eq!(Integrity::None.padded_words(64), 64);
        assert_eq!(Integrity::Checksum.padded_words(64), 68);
        // 64 payload words × 6 check bits = 384 bits = 24 words.
        assert_eq!(Integrity::Secded.padded_words(64), 88);
        // Zero-word checkpoints stay zero cost under every scheme
        // except the checksum's fixed digest.
        assert_eq!(Integrity::None.padded_words(0), 0);
        assert_eq!(Integrity::Secded.padded_words(0), 0);
        assert_eq!(Integrity::Checksum.padded_words(0), 4);
        // Monotone in the payload for every scheme.
        for scheme in Integrity::ALL {
            assert!(scheme.padded_words(65) >= scheme.padded_words(64));
        }
    }

    #[test]
    fn wear_multiplier_steps_with_the_commit_count() {
        let wear = WearCurve {
            endurance_commits: 100,
        };
        assert_eq!(wear.multiplier(1), 1);
        assert_eq!(wear.multiplier(99), 1);
        assert_eq!(wear.multiplier(100), 2);
        assert_eq!(wear.multiplier(350), 4);
        assert_eq!(WearCurve::NONE.multiplier(1_000_000), 1);
    }

    #[test]
    fn commits_alternate_slots_and_track_wear() {
        let mut s = IntegrityState::new();
        assert_eq!(s.next_write_count(), 1);
        s.commit(0);
        s.commit(1);
        s.commit(2);
        s.commit(0);
        assert_eq!(s.writes, [2, 2]);
        assert_eq!(s.max_writes(), 2);
        // The latest write (slot 0, flips 0) is active.
        assert_eq!(s.active_flips(), 0);
    }

    #[test]
    fn ladder_accepts_clean_slots_at_rung_zero() {
        for scheme in Integrity::ALL {
            let mut s = IntegrityState::new();
            s.commit(0);
            let r = resolve_restore(scheme, &mut s, false);
            assert_eq!(r.rung, 0, "{scheme}");
            assert!(!r.silent);
            assert_eq!(r.payload_rejects + r.repairs, 0);
        }
    }

    #[test]
    fn none_restores_flips_silently() {
        let mut s = IntegrityState::new();
        s.commit(2);
        let r = resolve_restore(Integrity::None, &mut s, false);
        assert_eq!(r.rung, 0);
        assert!(r.silent);
        assert_eq!(r.payload_rejects, 0);
    }

    #[test]
    fn checksum_detects_and_falls_back() {
        let mut s = IntegrityState::new();
        s.commit(0); // slot 1: clean
        s.commit(1); // slot 0: flipped, active
        let r = resolve_restore(Integrity::Checksum, &mut s, false);
        assert_eq!(r.rung, 2);
        assert!(!r.silent);
        assert_eq!(r.payload_rejects, 1);
        assert_eq!(r.repairs, 0);
        // The previous (clean) slot is now active.
        assert_eq!(s.active_flips(), 0);
    }

    #[test]
    fn secded_repairs_single_flips_in_place() {
        let mut s = IntegrityState::new();
        s.commit(1);
        let r = resolve_restore(Integrity::Secded, &mut s, false);
        assert_eq!(r.rung, 1);
        assert_eq!(r.repairs, 1);
        assert_eq!(s.active_flips(), 0, "repair clears the damage");
        // A second restore of the same slot is clean.
        let again = resolve_restore(Integrity::Secded, &mut s, false);
        assert_eq!(again.rung, 0);
    }

    #[test]
    fn double_rejection_cold_boots_at_rung_three() {
        let mut s = IntegrityState::new();
        s.commit(2); // slot 1: double flip
        s.commit(2); // slot 0: double flip, active
        let r = resolve_restore(Integrity::Secded, &mut s, false);
        assert_eq!(r.rung, 3);
        assert_eq!(r.payload_rejects, 2);
    }

    #[test]
    fn slot_level_corruption_skips_straight_to_the_fallback() {
        let mut s = IntegrityState::new();
        s.commit(0);
        s.commit(0);
        let r = resolve_restore(Integrity::None, &mut s, true);
        assert_eq!(r.rung, 2);
        assert_eq!(r.payload_rejects, 0, "slot metadata failed, not payload");
    }

    #[test]
    fn flip_draws_are_exact_at_the_extremes_and_track_in_between() {
        // Rate zero never flips; rate one always "2+"-flips.
        assert_eq!(flips_from_draw(u64::MAX, 0.0, 1024, 1), 0);
        assert_eq!(flips_from_draw(0, 1.0, 1024, 1), 2);
        assert_eq!(flips_from_draw(0, 0.5, 0, 1), 0, "no payload, no flips");
        // Empirical rate over the raw draw space tracks the binomial
        // head: with p=1e-4 over 1024 bits, P(0) ≈ 0.9027.
        let (mut zeros, mut ones) = (0u64, 0u64);
        let mut state = 0x1234_5678_9abc_def0u64;
        let trials = 20_000;
        for _ in 0..trials {
            // SplitMix64, as the fault stream draws it.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            match flips_from_draw(z, 1e-4, 1024, 1) {
                0 => zeros += 1,
                1 => ones += 1,
                _ => {}
            }
        }
        let p0 = zeros as f64 / trials as f64;
        assert!((p0 - 0.9027).abs() < 0.01, "P(0 flips) ≈ {p0}");
        assert!(ones > 0, "single flips must occur at this rate");
        // Wear acceleration strictly lowers P(0).
        let accelerated = (0..trials)
            .scan(state, |s, _| {
                *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                Some(z ^ (z >> 31))
            })
            .filter(|&z| flips_from_draw(z, 1e-4, 1024, 8) == 0)
            .count();
        assert!(
            (accelerated as f64) < zeros as f64 * 0.75,
            "8× wear must visibly erode P(0): {accelerated} vs {zeros}"
        );
    }
}
