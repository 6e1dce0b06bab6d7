//! The energy-buffer capacitor.

use core::fmt;

/// A capacitor energy buffer with turn-on and brown-out thresholds.
///
/// Stored energy follows `E = ½CV²`. The device boots when the voltage
/// reaches `v_on`, dies when it falls to `v_off` (the MSP430FR5994's
/// minimum supply), and the source never charges beyond `v_max` (the
/// function generator's amplitude). The paper's bench uses **100 µF**
/// (§III-D, Figure 7(b) caption).
///
/// # Example
///
/// ```
/// use ehdl_ehsim::Capacitor;
///
/// let mut cap = Capacitor::paper_100uf();
/// let before = cap.volts();
/// cap.drain_joules(10e-6);
/// assert!(cap.volts() < before);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capacitor {
    farads: f64,
    v_max: f64,
    v_on: f64,
    v_off: f64,
    /// Stored energy; the state every powered op reads and writes.
    joules: f64,
    /// `½CV²` at `v_max`, `v_on` and `v_off`, fixed at construction so
    /// the hot path never leaves the energy domain.
    e_max: f64,
    e_on: f64,
    e_off: f64,
}

impl Capacitor {
    /// Creates a capacitor. The initial voltage is `v_on` (device just
    /// booted).
    ///
    /// # Panics
    ///
    /// Panics unless `v_max >= v_on > v_off >= 0` and `farads > 0`, all
    /// finite; see [`Capacitor::try_new`] for the non-panicking
    /// constructor.
    pub fn new(farads: f64, v_max: f64, v_on: f64, v_off: f64) -> Self {
        Self::try_new(farads, v_max, v_on, v_off).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a capacitor, validating its parameters: the capacitance
    /// must be positive and finite, and the thresholds finite with
    /// `v_max >= v_on > v_off >= 0`.
    ///
    /// # Errors
    ///
    /// Returns the [`CapacitorError`] naming the first violated rule.
    pub fn try_new(farads: f64, v_max: f64, v_on: f64, v_off: f64) -> Result<Self, CapacitorError> {
        if !(farads > 0.0 && farads.is_finite()) {
            return Err(CapacitorError::BadCapacitance { farads });
        }
        if !(v_max.is_finite() && v_max >= v_on && v_on > v_off && v_off >= 0.0) {
            return Err(CapacitorError::BadThresholds { v_max, v_on, v_off });
        }
        let energy_at = |v: f64| 0.5 * farads * v * v;
        Ok(Capacitor {
            farads,
            v_max,
            v_on,
            v_off,
            joules: energy_at(v_on),
            e_max: energy_at(v_max),
            e_on: energy_at(v_on),
            e_off: energy_at(v_off),
        })
    }

    /// The paper's setup: 100 µF, charged to 3.3 V, boot at 3.0 V,
    /// brown-out at 1.8 V. One full discharge carries
    /// `½·100µF·(3.0² − 1.8²) ≈ 288 µJ` of usable energy.
    pub fn paper_100uf() -> Self {
        Capacitor::new(100e-6, 3.3, 3.0, 1.8)
    }

    /// Capacitance in farads.
    pub fn farads(&self) -> f64 {
        self.farads
    }

    /// Present voltage, `√(2E/C)`, derived from the stored energy on
    /// demand (the simulation itself never needs it).
    pub fn volts(&self) -> f64 {
        (2.0 * self.joules / self.farads).sqrt()
    }

    /// Turn-on threshold.
    pub fn v_on(&self) -> f64 {
        self.v_on
    }

    /// Brown-out threshold.
    pub fn v_off(&self) -> f64 {
        self.v_off
    }

    /// Maximum (source-limited) voltage.
    pub fn v_max(&self) -> f64 {
        self.v_max
    }

    /// Stored energy in joules.
    pub fn energy_joules(&self) -> f64 {
        self.joules
    }

    /// Energy in joules usable before brown-out.
    pub fn usable_joules(&self) -> f64 {
        (self.joules - self.e_off).max(0.0)
    }

    /// Usable joules in one full `v_on → v_off` discharge.
    pub fn discharge_budget_joules(&self) -> f64 {
        self.e_on - self.e_off
    }

    /// Removes `joules`; stored energy floors at zero.
    pub fn drain_joules(&mut self, joules: f64) {
        self.joules = (self.joules - joules).max(0.0);
    }

    /// Adds `joules`; stored energy is capped at `½C·v_max²`.
    pub fn charge_joules(&mut self, joules: f64) {
        self.joules = (self.joules + joules).min(self.e_max);
    }

    /// `true` once the voltage has fallen below brown-out.
    pub fn browned_out(&self) -> bool {
        self.joules < self.e_off
    }

    /// `true` once the voltage has recovered to the boot threshold.
    pub fn can_boot(&self) -> bool {
        self.joules >= self.e_on
    }

    /// Joules still missing before the boot threshold is reached — the
    /// right-hand side of the dark-phase charge equation. Zero when the
    /// device [`can_boot`](Self::can_boot) already. Paired with
    /// [`Harvester::time_to_energy`](crate::Harvester::time_to_energy),
    /// this turns the executor's dark phase into a single closed-form
    /// solve instead of a fixed-step integration loop.
    ///
    /// Charging exactly this amount always makes the capacitor
    /// [`can_boot`](Self::can_boot). Below `e_on / 2` the subtraction
    /// `e_on − E` rounds, and `E + (e_on − E)` can land one ulp short of
    /// `e_on`; the deficit is then bumped by one ulp, which is enough
    /// because it is at least `e_on / 2` there. At or above `e_on / 2`
    /// the subtraction is exact (Sterbenz) and the sum lands on `e_on`.
    pub fn joules_to_boot(&self) -> f64 {
        let deficit = self.e_on - self.joules;
        if deficit <= 0.0 {
            0.0
        } else if self.joules + deficit < self.e_on {
            deficit.next_up()
        } else {
            deficit
        }
    }

    /// Forces the voltage to the brown-out level (used by the executor
    /// when a power failure interrupts an op midway).
    pub fn collapse_to_off(&mut self) {
        self.joules = self.e_off;
    }

    /// Recharges to exactly the boot threshold (bench reset in tests).
    pub fn recharge_to_on(&mut self) {
        self.joules = self.e_on;
    }
}

impl fmt::Display for Capacitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} µF @ {:.2} V ({:.1} µJ usable)",
            self.farads * 1e6,
            self.volts(),
            self.usable_joules() * 1e6
        )
    }
}

/// Invalid capacitor parameters, rejected by [`Capacitor::try_new`].
#[derive(Debug, Clone, PartialEq)]
pub enum CapacitorError {
    /// The capacitance is non-positive or not finite.
    BadCapacitance {
        /// The rejected capacitance in farads.
        farads: f64,
    },
    /// The thresholds violate `v_max >= v_on > v_off >= 0` or are not
    /// finite.
    BadThresholds {
        /// The rejected source-limited maximum.
        v_max: f64,
        /// The rejected boot threshold.
        v_on: f64,
        /// The rejected brown-out threshold.
        v_off: f64,
    },
}

impl fmt::Display for CapacitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapacitorError::BadCapacitance { farads } => {
                write!(f, "capacitance must be positive and finite, got {farads} F")
            }
            CapacitorError::BadThresholds { v_max, v_on, v_off } => write!(
                f,
                "need v_max >= v_on > v_off >= 0 (finite), got v_max {v_max} V, \
                 v_on {v_on} V, v_off {v_off} V"
            ),
        }
    }
}

impl std::error::Error for CapacitorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacitor_budget_is_288uj() {
        let cap = Capacitor::paper_100uf();
        let budget = cap.discharge_budget_joules();
        assert!((budget - 288e-6).abs() < 1e-6, "budget = {budget}");
    }

    #[test]
    fn starts_at_boot_voltage() {
        let cap = Capacitor::paper_100uf();
        assert_eq!(cap.volts(), 3.0);
        assert!(cap.can_boot());
        assert!(!cap.browned_out());
    }

    #[test]
    fn drain_to_brownout() {
        let mut cap = Capacitor::paper_100uf();
        cap.drain_joules(cap.usable_joules() + 1e-9);
        assert!(cap.browned_out());
        assert!(cap.usable_joules() < 1e-9);
    }

    #[test]
    fn charge_caps_at_v_max() {
        let mut cap = Capacitor::paper_100uf();
        cap.charge_joules(1.0); // way more than capacity
        assert_eq!(cap.volts(), 3.3);
    }

    #[test]
    fn drain_floors_at_zero() {
        let mut cap = Capacitor::new(1e-6, 3.0, 2.5, 1.0);
        cap.drain_joules(1.0);
        assert_eq!(cap.volts(), 0.0);
        assert_eq!(cap.energy_joules(), 0.0);
    }

    #[test]
    fn energy_voltage_roundtrip() {
        let mut cap = Capacitor::paper_100uf();
        let e = cap.energy_joules();
        cap.drain_joules(50e-6);
        cap.charge_joules(50e-6);
        assert!((cap.energy_joules() - e).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "v_max >= v_on > v_off")]
    fn invalid_thresholds_panic() {
        let _ = Capacitor::new(100e-6, 3.0, 1.0, 2.0);
    }

    #[test]
    fn try_new_rejects_bad_parameters() {
        assert!(Capacitor::try_new(15e-6, 3.3, 3.0, 1.8).is_ok());
        for farads in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Capacitor::try_new(farads, 3.3, 3.0, 1.8),
                Err(CapacitorError::BadCapacitance { .. })
            ));
        }
        for (v_max, v_on, v_off) in [
            (3.3, 1.8, 1.8),
            (3.3, 1.8, 3.0),
            (2.0, 3.0, 1.8),
            (3.3, 3.0, -0.1),
            (f64::INFINITY, 3.0, 1.8),
            (3.3, f64::NAN, 1.8),
        ] {
            let err = Capacitor::try_new(15e-6, v_max, v_on, v_off).unwrap_err();
            assert!(matches!(err, CapacitorError::BadThresholds { .. }), "{err}");
        }
    }

    #[test]
    fn joules_to_boot_measures_the_deficit() {
        let mut cap = Capacitor::paper_100uf();
        // Already bootable: no deficit.
        assert_eq!(cap.joules_to_boot(), 0.0);
        cap.collapse_to_off();
        // ½C(v_on² − v_off²) = ½·100µF·(9 − 3.24) = 288 µJ.
        let deficit = cap.joules_to_boot();
        assert!((deficit - 288e-6).abs() < 1e-9, "deficit = {deficit}");
        // Charging exactly the deficit reaches the boot threshold.
        cap.charge_joules(deficit);
        assert!(cap.can_boot());
        assert!(cap.joules_to_boot() < 1e-15);
    }

    #[test]
    fn collapse_and_recharge_helpers() {
        let mut cap = Capacitor::paper_100uf();
        cap.collapse_to_off();
        assert!(!cap.can_boot());
        assert_eq!(cap.volts(), cap.v_off());
        cap.recharge_to_on();
        assert!(cap.can_boot());
    }

    #[test]
    fn display_mentions_capacitance() {
        assert!(Capacitor::paper_100uf().to_string().contains("100 µF"));
    }
}
