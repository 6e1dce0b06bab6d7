//! Deterministic fault injection for intermittent execution.
//!
//! A [`FaultSpec`] describes *rates*: per-op probabilities of a spurious
//! reset or a voltage sag, a per-commit probability that a checkpoint
//! write tears, and a per-restore probability that the restored slot is
//! corrupt. [`FaultPlan::compile`] turns the spec into integer thresholds
//! once, the same way [`crate::plan::ExecutionPlan`] pre-compiles costs,
//! so the executor's hot loop only compares a SplitMix64 draw against a
//! constant.
//!
//! Determinism contract: every draw from a run's [`FaultState`] stream
//! happens in a method of the executor's `RunState`, which both
//! executor paths (the planned loop and `run_reference`) call at the
//! same logical points — one draw per program-op attempt, one draw per
//! successful checkpoint commit, one draw per restore. Same seed + same
//! spec ⇒ identical injection points on either path, which keeps the
//! planned/reference parity guarantee intact even under fire.

use std::error::Error;
use std::fmt;

use crate::integrity::{self, WearCurve};

/// Per-event fault probabilities plus the stream seed.
///
/// All rates are probabilities in `[0, 1]`. `sag_factor` multiplies an
/// op's energy cost when a voltage-sag fault fires and must be finite
/// and `>= 1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed for the SplitMix64 decision stream.
    pub seed: u64,
    /// Probability that an op attempt is pre-empted by a spurious reset.
    pub reset_per_op: f64,
    /// Probability that an op attempt executes under voltage sag.
    pub sag_per_op: f64,
    /// Energy multiplier applied to a sagged op (`>= 1.0`).
    pub sag_factor: f64,
    /// Probability that a successful checkpoint commit tears.
    pub tear_per_commit: f64,
    /// Probability that a restore reads a corrupt slot.
    pub corrupt_per_restore: f64,
    /// Correlated-burst length for op faults. `0` or `1` keeps the
    /// classic i.i.d. stream bit-identically. `L >= 2` makes storms:
    /// the per-draw *onset* probability drops to `rate / L`, and each
    /// onset is followed by `L - 1` forced repeats of the same fault on
    /// the next op draws, so the long-run rate still tracks the spec
    /// but faults arrive in seeded clusters — the bursty interference a
    /// real RF deployment sees. Commit tears and restore corruptions
    /// stay i.i.d. (their draws are orders of magnitude rarer).
    pub burst_len: u32,
    /// Per-bit probability that a bit of a freshly committed checkpoint
    /// payload flips in FRAM. `0` keeps every pre-flip stream
    /// bit-identical (the flip draw per successful commit is only taken
    /// when this rate is armed). Detection and repair are the integrity
    /// scheme's job — see [`crate::Integrity`].
    pub flip_per_commit_bit: f64,
    /// FRAM wear-out: accelerates the flip rate with each slot's
    /// lifetime commit count. [`WearCurve::NONE`] (the default) keeps
    /// the rate flat.
    pub wear: WearCurve,
}

impl FaultSpec {
    /// The no-fault spec: every rate zero, sag factor 1.0.
    pub fn none() -> Self {
        FaultSpec {
            seed: 0,
            reset_per_op: 0.0,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        }
    }

    /// True when no fault can ever fire.
    pub fn is_none(&self) -> bool {
        self.reset_per_op == 0.0
            && self.sag_per_op == 0.0
            && self.tear_per_commit == 0.0
            && self.corrupt_per_restore == 0.0
            && self.flip_per_commit_bit == 0.0
    }

    /// Validates rates (`[0, 1]`, finite) and the sag factor (finite, `>= 1`).
    pub fn validate(&self) -> Result<(), FaultSpecError> {
        let rates = [
            ("reset_per_op", self.reset_per_op),
            ("sag_per_op", self.sag_per_op),
            ("tear_per_commit", self.tear_per_commit),
            ("corrupt_per_restore", self.corrupt_per_restore),
            ("flip_per_commit_bit", self.flip_per_commit_bit),
        ];
        for (field, rate) in rates {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FaultSpecError::RateOutOfRange { field, value: rate });
            }
        }
        if !self.sag_factor.is_finite() || self.sag_factor < 1.0 {
            return Err(FaultSpecError::SagFactorOutOfRange {
                value: self.sag_factor,
            });
        }
        Ok(())
    }

    /// Deterministic short label for scenario names and report rows.
    /// The burst, flip, and wear suffixes only appear when the matching
    /// mechanism is armed, so every pre-existing label is unchanged.
    pub fn label(&self) -> String {
        if self.is_none() {
            return "none".to_owned();
        }
        let mut label = format!(
            "f{}:r{}:s{}x{}:t{}:c{}",
            self.seed,
            self.reset_per_op,
            self.sag_per_op,
            self.sag_factor,
            self.tear_per_commit,
            self.corrupt_per_restore
        );
        if self.burst_len >= 2 {
            label.push_str(&format!(":b{}", self.burst_len));
        }
        if self.flip_per_commit_bit > 0.0 {
            label.push_str(&format!(":p{}", self.flip_per_commit_bit));
        }
        if self.wear.endurance_commits > 0 {
            label.push_str(&format!(":w{}", self.wear.endurance_commits));
        }
        label
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// Rejection reasons from [`FaultSpec::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpecError {
    /// A probability field was outside `[0, 1]` or non-finite.
    RateOutOfRange {
        /// Which spec field failed.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `sag_factor` was non-finite or below 1.0.
    SagFactorOutOfRange {
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::RateOutOfRange { field, value } => {
                write!(f, "fault rate `{field}` must be in [0, 1], got {value}")
            }
            FaultSpecError::SagFactorOutOfRange { value } => {
                write!(f, "fault sag_factor must be finite and >= 1.0, got {value}")
            }
        }
    }
}

impl Error for FaultSpecError {}

/// A compiled fault schedule: integer thresholds over a 32-bit draw.
///
/// Rate `r` compiles to `round(r * 2^32)` so a rate of exactly 1.0 maps
/// to `2^32`, which every 32-bit draw is strictly below — the fault
/// always fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    reset_t: u64,
    sag_t: u64,
    tear_t: u64,
    corrupt_t: u64,
    sag_factor: f64,
    burst_len: u32,
    flip_rate: f64,
    flips_armed: bool,
    wear_endurance: u64,
    enabled: bool,
}

impl FaultPlan {
    /// The disabled plan: the executor skips every fault branch.
    pub const NONE: FaultPlan = FaultPlan {
        seed: 0,
        reset_t: 0,
        sag_t: 0,
        tear_t: 0,
        corrupt_t: 0,
        sag_factor: 1.0,
        burst_len: 0,
        flip_rate: 0.0,
        flips_armed: false,
        wear_endurance: 0,
        enabled: false,
    };

    /// Compiles a validated spec. A spec with all-zero rates compiles to
    /// a disabled plan (bit-identical execution to [`FaultPlan::NONE`]).
    ///
    /// With `burst_len >= 2` the op-fault thresholds compile to the
    /// storm *onset* probability `p = r / (L − r·(L − 1))` — the
    /// renewal-theory inverse of the storm process, where each onset
    /// consumes `L` draws and delivers `L` faults while a quiet draw
    /// consumes one: the long-run fault rate then equals the spec's `r`
    /// exactly for a single fault kind (reset and sag storms interact
    /// marginally when both rates are large).
    pub fn compile(spec: &FaultSpec) -> Self {
        let threshold = |rate: f64| -> u64 {
            let t = (rate * 4_294_967_296.0).round();
            t.clamp(0.0, 4_294_967_296.0) as u64
        };
        let onset = |rate: f64| -> f64 {
            if spec.burst_len >= 2 {
                let l = spec.burst_len as f64;
                rate / (l - rate * (l - 1.0))
            } else {
                rate
            }
        };
        let reset_t = threshold(onset(spec.reset_per_op));
        let sag_t = threshold(onset(spec.sag_per_op));
        let tear_t = threshold(spec.tear_per_commit);
        let corrupt_t = threshold(spec.corrupt_per_restore);
        let flips_armed = spec.flip_per_commit_bit > 0.0;
        FaultPlan {
            seed: spec.seed,
            reset_t,
            sag_t,
            tear_t,
            corrupt_t,
            sag_factor: spec.sag_factor,
            burst_len: spec.burst_len,
            flip_rate: spec.flip_per_commit_bit,
            flips_armed,
            wear_endurance: spec.wear.endurance_commits,
            enabled: reset_t > 0 || sag_t > 0 || tear_t > 0 || corrupt_t > 0 || flips_armed,
        }
    }

    /// An *enabled* plan whose thresholds are all zero: the executor pays
    /// for every draw but no fault ever fires. Used by the overhead bench
    /// to measure the pure cost of the decision stream on fault-free runs.
    /// Bit-flip draws stay unarmed so pre-flip overhead baselines are
    /// unchanged; see [`FaultPlan::armed_empty_integrity`] for the
    /// integrity-machinery variant.
    pub fn armed_empty(seed: u64) -> Self {
        FaultPlan {
            seed,
            reset_t: 0,
            sag_t: 0,
            tear_t: 0,
            corrupt_t: 0,
            sag_factor: 1.0,
            burst_len: 0,
            flip_rate: 0.0,
            flips_armed: false,
            wear_endurance: 0,
            enabled: true,
        }
    }

    /// [`FaultPlan::armed_empty`] with the bit-flip draw *armed* at rate
    /// zero: the executor pays for the per-commit flip draw, the slot
    /// wear bookkeeping, and the full recovery-ladder walk on every
    /// restore, yet no flip ever lands. The wear-sweep bench uses this
    /// to price the integrity machinery on otherwise clean runs.
    pub fn armed_empty_integrity(seed: u64) -> Self {
        FaultPlan {
            flips_armed: true,
            ..FaultPlan::armed_empty(seed)
        }
    }

    /// Whether the executor should consult this plan at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The stream seed (initial [`FaultState`]).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Energy multiplier for sagged ops.
    #[inline]
    pub fn sag_factor(&self) -> f64 {
        self.sag_factor
    }

    /// Fresh decision stream for one run.
    #[inline]
    pub fn state(&self) -> FaultState {
        FaultState {
            state: self.seed,
            storm_left: 0,
            storm_kind: OpFault::None,
        }
    }

    /// One draw per op attempt. Reset takes precedence over sag: the low
    /// 32 bits decide reset, the high 32 bits decide sag, so a single
    /// draw serves both without correlation between them.
    ///
    /// The stream *always* advances by exactly one draw per call —
    /// including while a storm forces repeats — so burst and i.i.d.
    /// specs consume the decision stream at identical logical points
    /// and the planned/reference parity guarantee is untouched. With
    /// both thresholds zero no op fault (and so no storm) can fire, so
    /// the draw is skipped unhashed: same counter, same answer.
    #[inline]
    pub fn op_fault(&self, state: &mut FaultState) -> OpFault {
        if self.reset_t == 0 && self.sag_t == 0 {
            state.skip();
            return OpFault::None;
        }
        let draw = state.next();
        if state.storm_left > 0 {
            state.storm_left -= 1;
            return state.storm_kind;
        }
        let fault = if (draw & 0xFFFF_FFFF) < self.reset_t {
            OpFault::Reset
        } else if (draw >> 32) < self.sag_t {
            OpFault::Sag
        } else {
            OpFault::None
        };
        if fault != OpFault::None && self.burst_len >= 2 {
            state.storm_left = self.burst_len - 1;
            state.storm_kind = fault;
        }
        fault
    }

    /// One draw per *successful* checkpoint commit (skipped unhashed
    /// at a zero rate, where it cannot fire).
    #[inline]
    pub fn tears(&self, state: &mut FaultState) -> bool {
        if self.tear_t == 0 {
            state.skip();
            return false;
        }
        (state.next() & 0xFFFF_FFFF) < self.tear_t
    }

    /// One draw per restore (skipped unhashed at a zero rate, where it
    /// cannot fire).
    #[inline]
    pub fn corrupts(&self, state: &mut FaultState) -> bool {
        if self.corrupt_t == 0 {
            state.skip();
            return false;
        }
        (state.next() & 0xFFFF_FFFF) < self.corrupt_t
    }

    /// Whether the per-commit bit-flip draw is armed. When false the
    /// executor takes no flip draws at all, keeping pre-flip decision
    /// streams bit-identical.
    #[inline]
    pub fn flips_armed(&self) -> bool {
        self.flips_armed
    }

    /// The compiled wear-endurance figure (`0` = no wear-out).
    #[inline]
    pub fn wear_endurance(&self) -> u64 {
        self.wear_endurance
    }

    /// One draw per *successful* checkpoint commit (only when
    /// [`flips_armed`](FaultPlan::flips_armed)): how many bits of a
    /// freshly written `bits`-bit payload flipped, wear-accelerated by
    /// `wear_mult`. Returns 0, 1, or 2 ("two or more"). The stream
    /// advances by exactly one draw per call on both executor paths;
    /// at a zero rate no bit can flip, so the draw is skipped unhashed.
    #[inline]
    pub fn flips(&self, state: &mut FaultState, bits: u64, wear_mult: u64) -> u32 {
        if self.flip_rate == 0.0 {
            state.skip();
            return 0;
        }
        let draw = state.next();
        integrity::flips_from_draw(draw, self.flip_rate, bits, wear_mult)
    }
}

/// Per-run cursor into the SplitMix64 decision stream, plus the storm
/// countdown for correlated-burst specs (always zero for i.i.d. specs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultState {
    state: u64,
    storm_left: u32,
    storm_kind: OpFault,
}

impl FaultState {
    /// SplitMix64's counter increment γ: draw `k` is `mix(seed + k·γ)`.
    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Standard SplitMix64 step.
    #[inline]
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Advances past one draw whose value cannot matter, without
    /// hashing it: the counter moves exactly as [`next`](Self::next)
    /// would move it.
    #[inline]
    fn skip(&mut self) {
        self.state = self.state.wrapping_add(Self::GAMMA);
    }
}

/// Outcome of the per-op fault draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFault {
    /// No fault: execute the op normally.
    None,
    /// Power glitches before the op runs; the device loses volatile state.
    Reset,
    /// The op executes but draws `sag_factor` times its nominal energy.
    Sag,
}

/// Category of an injected fault, carried on probe events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A spurious reset pre-empted an op attempt.
    SpuriousReset,
    /// A checkpoint write tore mid-commit.
    TornCommit,
    /// A restore read a corrupt slot and fell back.
    CorruptRestore,
    /// An op executed under voltage sag.
    VoltageSag,
}

impl FaultKind {
    /// Stable lowercase label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::SpuriousReset => "spurious_reset",
            FaultKind::TornCommit => "torn_commit",
            FaultKind::CorruptRestore => "corrupt_restore",
            FaultKind::VoltageSag => "voltage_sag",
        }
    }
}

/// Per-run fault accounting, reported on [`crate::executor::RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultTally {
    /// Spurious resets injected during compute.
    pub spurious_resets: u64,
    /// Checkpoint commits that tore mid-write.
    pub torn_commits: u64,
    /// Ops executed under voltage sag.
    pub sag_ops: u64,
    /// Restores that read a corrupt slot.
    pub corrupt_restores: u64,
    /// Corruptions the strategy detected (fell back to an older slot).
    pub detected_corruptions: u64,
    /// Corruptions that went undetected. Zero by construction for every
    /// shipped strategy; the crash-consistency audit asserts it stays so.
    pub silent_corruptions: u64,
    /// Restores that fell all the way back to a cold boot (no committed
    /// progress survived).
    pub cold_boots: u64,
}

impl FaultTally {
    /// Total faults injected into the run.
    pub fn injected(&self) -> u64 {
        self.spurious_resets + self.torn_commits + self.sag_ops + self.corrupt_restores
    }

    /// True when no fault fired.
    pub fn is_clean(&self) -> bool {
        self.injected() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_spec_compiles_to_a_disabled_plan() {
        let plan = FaultPlan::compile(&FaultSpec::none());
        assert!(!plan.enabled());
        assert_eq!(plan, FaultPlan::NONE);
    }

    #[test]
    fn default_spec_is_none() {
        assert!(FaultSpec::default().is_none());
        assert_eq!(FaultSpec::default().label(), "none");
    }

    #[test]
    fn validation_rejects_bad_rates_and_factors() {
        let mut spec = FaultSpec::none();
        spec.reset_per_op = 1.5;
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::RateOutOfRange {
                field: "reset_per_op",
                ..
            })
        ));
        let mut spec = FaultSpec::none();
        spec.corrupt_per_restore = f64::NAN;
        assert!(spec.validate().is_err());
        let mut spec = FaultSpec::none();
        spec.sag_factor = 0.5;
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::SagFactorOutOfRange { .. })
        ));
        assert!(FaultSpec::none().validate().is_ok());
    }

    #[test]
    fn rate_one_always_fires_and_rate_zero_never_fires() {
        let spec = FaultSpec {
            seed: 7,
            reset_per_op: 1.0,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 1.0,
            corrupt_per_restore: 0.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan = FaultPlan::compile(&spec);
        let mut state = plan.state();
        for _ in 0..1000 {
            assert_eq!(plan.op_fault(&mut state), OpFault::Reset);
            assert!(plan.tears(&mut state));
            assert!(!plan.corrupts(&mut state));
        }
    }

    #[test]
    fn skipped_quiet_draws_leave_the_state_a_hashed_draw_would() {
        // The quiet plan skips every draw unhashed; its twin has the
        // smallest nonzero thresholds, so it hashes every draw (and, on
        // this seed, never fires). Both streams must stay in lockstep.
        let quiet = FaultPlan::armed_empty_integrity(0x5EED);
        let hashing = FaultPlan {
            reset_t: 1,
            sag_t: 1,
            tear_t: 1,
            corrupt_t: 1,
            flip_rate: f64::MIN_POSITIVE,
            ..quiet
        };
        let mut skipped = quiet.state();
        let mut hashed = hashing.state();
        for k in 0..4_000 {
            match k % 4 {
                0 => assert_eq!(quiet.op_fault(&mut skipped), hashing.op_fault(&mut hashed)),
                1 => assert_eq!(quiet.tears(&mut skipped), hashing.tears(&mut hashed)),
                2 => assert_eq!(quiet.corrupts(&mut skipped), hashing.corrupts(&mut hashed)),
                _ => assert_eq!(
                    quiet.flips(&mut skipped, 256, 1),
                    hashing.flips(&mut hashed, 256, 1)
                ),
            }
            assert_eq!(skipped, hashed, "draw {k}");
        }
    }

    #[test]
    fn same_seed_yields_an_identical_decision_stream() {
        let spec = FaultSpec {
            seed: 0xDEAD_BEEF,
            reset_per_op: 0.05,
            sag_per_op: 0.10,
            sag_factor: 1.5,
            tear_per_commit: 0.2,
            corrupt_per_restore: 0.3,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan = FaultPlan::compile(&spec);
        let mut a = plan.state();
        let mut b = plan.state();
        for _ in 0..10_000 {
            assert_eq!(plan.op_fault(&mut a), plan.op_fault(&mut b));
            assert_eq!(plan.tears(&mut a), plan.tears(&mut b));
            assert_eq!(plan.corrupts(&mut a), plan.corrupts(&mut b));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let base = FaultSpec {
            seed: 1,
            reset_per_op: 0.5,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan_a = FaultPlan::compile(&base);
        let plan_b = FaultPlan::compile(&FaultSpec { seed: 2, ..base });
        let mut a = plan_a.state();
        let mut b = plan_b.state();
        let mut diverged = false;
        for _ in 0..64 {
            if plan_a.op_fault(&mut a) != plan_b.op_fault(&mut b) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "distinct seeds should diverge within 64 draws");
    }

    #[test]
    fn empirical_rates_track_the_spec() {
        let spec = FaultSpec {
            seed: 42,
            reset_per_op: 0.25,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan = FaultPlan::compile(&spec);
        let mut state = plan.state();
        let n = 100_000;
        let mut hits = 0u64;
        for _ in 0..n {
            if plan.op_fault(&mut state) == OpFault::Reset {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.25).abs() < 0.01,
            "empirical reset rate {rate} should be within 1% of 0.25"
        );
    }

    #[test]
    fn armed_empty_is_enabled_but_inert() {
        let plan = FaultPlan::armed_empty(9);
        assert!(plan.enabled());
        let mut state = plan.state();
        for _ in 0..1000 {
            assert_eq!(plan.op_fault(&mut state), OpFault::None);
            assert!(!plan.tears(&mut state));
            assert!(!plan.corrupts(&mut state));
        }
    }

    #[test]
    fn labels_are_deterministic_and_distinct() {
        let a = FaultSpec {
            seed: 3,
            reset_per_op: 0.01,
            sag_per_op: 0.02,
            sag_factor: 2.0,
            tear_per_commit: 0.03,
            corrupt_per_restore: 0.04,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        assert_eq!(a.label(), "f3:r0.01:s0.02x2:t0.03:c0.04");
        let b = FaultSpec { seed: 4, ..a };
        assert_ne!(a.label(), b.label());
        assert_eq!(FaultKind::SpuriousReset.label(), "spurious_reset");
        assert_eq!(FaultKind::TornCommit.label(), "torn_commit");
        assert_eq!(FaultKind::CorruptRestore.label(), "corrupt_restore");
        assert_eq!(FaultKind::VoltageSag.label(), "voltage_sag");
    }

    #[test]
    fn burst_len_one_is_bit_identical_to_iid() {
        let iid = FaultSpec {
            seed: 11,
            reset_per_op: 0.05,
            sag_per_op: 0.1,
            sag_factor: 1.5,
            tear_per_commit: 0.02,
            corrupt_per_restore: 0.01,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan_a = FaultPlan::compile(&iid);
        let plan_b = FaultPlan::compile(&FaultSpec {
            burst_len: 1,
            ..iid
        });
        let mut a = plan_a.state();
        let mut b = plan_b.state();
        for _ in 0..10_000 {
            assert_eq!(plan_a.op_fault(&mut a), plan_b.op_fault(&mut b));
            assert_eq!(plan_a.tears(&mut a), plan_b.tears(&mut b));
            assert_eq!(plan_a.corrupts(&mut a), plan_b.corrupts(&mut b));
        }
    }

    #[test]
    fn storms_arrive_in_full_clusters() {
        let spec = FaultSpec {
            seed: 21,
            reset_per_op: 0.02,
            sag_per_op: 0.02,
            sag_factor: 2.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 8,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan = FaultPlan::compile(&spec);
        let mut state = plan.state();
        let draws: Vec<OpFault> = (0..200_000).map(|_| plan.op_fault(&mut state)).collect();
        // Every fault belongs to a maximal run whose length is a
        // multiple of the burst length (onsets can chain back to back),
        // and each run is a single kind.
        let mut i = 0;
        let mut storms = 0u64;
        while i < draws.len() {
            if draws[i] == OpFault::None {
                i += 1;
                continue;
            }
            let kind = draws[i];
            let mut len = 0usize;
            while i < draws.len() && draws[i] == kind {
                len += 1;
                i += 1;
            }
            if i < draws.len() {
                // Complete runs only: the tail may be a truncated storm.
                assert_eq!(len % 8, 0, "storm of {kind:?} had length {len}");
            }
            storms += 1;
        }
        assert!(storms > 50, "expected many storms, saw {storms}");
    }

    #[test]
    fn burst_long_run_rate_tracks_the_spec() {
        let spec = FaultSpec {
            seed: 5,
            reset_per_op: 0.2,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 10,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let plan = FaultPlan::compile(&spec);
        let mut state = plan.state();
        let n = 400_000;
        let hits = (0..n)
            .filter(|_| plan.op_fault(&mut state) == OpFault::Reset)
            .count();
        let rate = hits as f64 / n as f64;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "bursty empirical reset rate {rate} should stay near 0.2"
        );
    }

    #[test]
    fn burst_label_suffix_only_appears_when_armed() {
        let mut spec = FaultSpec {
            seed: 3,
            reset_per_op: 0.01,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 0.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        assert!(!spec.label().contains(":b"));
        spec.burst_len = 1;
        assert!(!spec.label().contains(":b"));
        spec.burst_len = 6;
        assert!(spec.label().ends_with(":b6"), "{}", spec.label());
    }

    #[test]
    fn flip_and_wear_label_suffixes_only_appear_when_armed() {
        let mut spec = FaultSpec {
            seed: 3,
            reset_per_op: 0.01,
            sag_per_op: 0.02,
            sag_factor: 2.0,
            tear_per_commit: 0.03,
            corrupt_per_restore: 0.04,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        // The pinned pre-flip label is untouched by the new fields.
        assert_eq!(spec.label(), "f3:r0.01:s0.02x2:t0.03:c0.04");
        spec.flip_per_commit_bit = 1e-5;
        assert_eq!(spec.label(), "f3:r0.01:s0.02x2:t0.03:c0.04:p0.00001");
        spec.wear = WearCurve {
            endurance_commits: 500,
        };
        assert_eq!(spec.label(), "f3:r0.01:s0.02x2:t0.03:c0.04:p0.00001:w500");
        spec.burst_len = 4;
        assert_eq!(
            spec.label(),
            "f3:r0.01:s0.02x2:t0.03:c0.04:b4:p0.00001:w500"
        );
        // A flips-only spec is armed, not "none".
        let flips_only = FaultSpec {
            flip_per_commit_bit: 1e-6,
            ..FaultSpec::none()
        };
        assert!(!flips_only.is_none());
        assert!(flips_only.label().ends_with(":p0.000001"));
        assert!(FaultPlan::compile(&flips_only).enabled());
        assert!(FaultPlan::compile(&flips_only).flips_armed());
    }

    #[test]
    fn flip_rate_validation_rejects_out_of_range() {
        let mut spec = FaultSpec::none();
        spec.flip_per_commit_bit = -0.1;
        assert!(matches!(
            spec.validate(),
            Err(FaultSpecError::RateOutOfRange {
                field: "flip_per_commit_bit",
                ..
            })
        ));
        spec.flip_per_commit_bit = 1e-4;
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn armed_empty_integrity_is_enabled_but_never_flips() {
        let plan = FaultPlan::armed_empty_integrity(9);
        assert!(plan.enabled());
        assert!(plan.flips_armed());
        assert!(!FaultPlan::armed_empty(9).flips_armed());
        let mut state = plan.state();
        for _ in 0..1000 {
            assert_eq!(plan.flips(&mut state, 4096, 1), 0);
        }
        // The flip draw consumes exactly one stream step per call.
        let mut a = plan.state();
        let mut b = plan.state();
        plan.flips(&mut a, 4096, 1);
        b.next();
        assert_eq!(a, b);
    }

    #[test]
    fn flip_draws_track_the_armed_rate() {
        let spec = FaultSpec {
            flip_per_commit_bit: 1e-4,
            seed: 77,
            ..FaultSpec::none()
        };
        let plan = FaultPlan::compile(&spec);
        let mut state = plan.state();
        let n = 50_000;
        let flipped = (0..n)
            .filter(|_| plan.flips(&mut state, 1024, 1) > 0)
            .count();
        let rate = flipped as f64 / n as f64;
        // P(any flip) = 1 - (1 - 1e-4)^1024 ≈ 0.0973.
        assert!((rate - 0.0973).abs() < 0.01, "flip rate {rate}");
        // Wear acceleration raises it.
        let mut state = plan.state();
        let accelerated = (0..n)
            .filter(|_| plan.flips(&mut state, 1024, 4) > 0)
            .count();
        assert!(accelerated > flipped * 2, "{accelerated} vs {flipped}");
    }

    #[test]
    fn tally_accounting_sums_injections() {
        let mut tally = FaultTally::default();
        assert!(tally.is_clean());
        tally.spurious_resets = 2;
        tally.sag_ops = 3;
        tally.torn_commits = 1;
        tally.corrupt_restores = 4;
        assert_eq!(tally.injected(), 10);
        assert!(!tally.is_clean());
    }
}
