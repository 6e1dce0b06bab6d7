//! The voltage monitor FLEX uses to predict power failures.

use core::fmt;

/// A comparator on the energy-buffer voltage.
///
/// §III-C: "with the help of a voltage monitor system, FLEX predicts a
/// power failure and checkpoints the latest intermediate result." The
/// monitor exposes two thresholds:
///
/// * `warn_volts` — crossing below arms an on-demand checkpoint,
/// * `off_volts` — the brown-out level at which execution actually dies
///   (owned by the capacitor model in `ehdl-ehsim`; kept here so the
///   runtime can reason about the margin between warning and death).
///
/// # Example
///
/// ```
/// use ehdl_device::VoltageMonitor;
///
/// let mon = VoltageMonitor::new(2.0, 1.8);
/// assert!(!mon.warns(2.5));
/// assert!(mon.warns(1.95));
/// assert!(mon.margin_volts() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageMonitor {
    warn_volts: f64,
    off_volts: f64,
}

impl VoltageMonitor {
    /// Creates a monitor.
    ///
    /// # Panics
    ///
    /// Panics if `warn_volts <= off_volts` — a warning that fires at or
    /// after brown-out is useless for checkpointing.
    pub fn new(warn_volts: f64, off_volts: f64) -> Self {
        assert!(
            warn_volts > off_volts,
            "warn threshold must exceed brown-out threshold"
        );
        VoltageMonitor {
            warn_volts,
            off_volts,
        }
    }

    /// Default thresholds for the paper's 100 µF setup: warn at 2.0 V,
    /// brown-out at 1.8 V (the FR5994's minimum operating voltage).
    pub fn msp430fr5994() -> Self {
        VoltageMonitor::new(2.0, 1.8)
    }

    /// `true` if the supply voltage has fallen below the warning level.
    #[inline]
    pub fn warns(&self, volts: f64) -> bool {
        volts < self.warn_volts
    }

    /// The warning threshold in volts.
    #[inline]
    pub fn warn_volts(&self) -> f64 {
        self.warn_volts
    }

    /// The brown-out threshold in volts.
    #[inline]
    pub fn off_volts(&self) -> f64 {
        self.off_volts
    }

    /// Volts of margin between the warning and brown-out thresholds —
    /// the energy window FLEX has to finish its on-demand checkpoint.
    #[inline]
    pub fn margin_volts(&self) -> f64 {
        self.warn_volts - self.off_volts
    }

    /// Energy (joules) a capacitor of `farads` holds at the warning
    /// level, `½C·V_warn²`: comparing stored energy against it is
    /// [`warns`](Self::warns) without deriving the voltage.
    #[inline]
    pub fn warn_energy_joules(&self, farads: f64) -> f64 {
        0.5 * farads * self.warn_volts * self.warn_volts
    }

    /// Energy (joules) available between warn and off for a capacitor of
    /// `farads`: `½C(V_warn² − V_off²)`. FLEX's checkpoint must fit in
    /// this budget for the on-demand scheme to be safe.
    pub fn margin_energy_joules(&self, farads: f64) -> f64 {
        0.5 * farads * (self.warn_volts * self.warn_volts - self.off_volts * self.off_volts)
    }
}

impl fmt::Display for VoltageMonitor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "monitor(warn {:.2} V, off {:.2} V)",
            self.warn_volts, self.off_volts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warns_below_threshold_only() {
        let m = VoltageMonitor::new(2.0, 1.8);
        assert!(!m.warns(2.0));
        assert!(m.warns(1.999));
        assert!(!m.warns(3.3));
    }

    #[test]
    #[should_panic(expected = "warn threshold must exceed")]
    fn inverted_thresholds_panic() {
        let _ = VoltageMonitor::new(1.8, 2.0);
    }

    #[test]
    fn margin_energy_for_100uf() {
        let m = VoltageMonitor::msp430fr5994();
        // ½·100µF·(2.0² − 1.8²) = 38 µJ — enough for the paper's
        // worst-case 33 µJ checkpoint, which is the point.
        let j = m.margin_energy_joules(100e-6);
        assert!((j - 38e-6).abs() < 1e-7, "margin = {j}");
        assert!(j > 33e-6);
    }

    #[test]
    fn warn_energy_is_half_c_v_squared() {
        let m = VoltageMonitor::msp430fr5994();
        // ½·100µF·2.0² = 200 µJ.
        assert!((m.warn_energy_joules(100e-6) - 200e-6).abs() < 1e-15);
    }

    #[test]
    fn display_contains_thresholds() {
        let text = VoltageMonitor::msp430fr5994().to_string();
        assert!(text.contains("2.00") && text.contains("1.80"));
    }
}
