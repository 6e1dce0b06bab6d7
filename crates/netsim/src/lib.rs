//! # ehdl-netsim — networked-fleet world simulation
//!
//! The paper's deployment story is not one device alone in a lab: it is
//! a *fleet* of intermittent devices sharing a harvest field and serving
//! inferences to an uplink. This crate adds that world model on top of
//! the single-device executor, without touching it:
//!
//! * [`NetworkTopology`] — how many devices, how the shared field is
//!   split among them, and the gateway's polling schedule. A value type
//!   with a deterministic [`label`](NetworkTopology::label), usable as a
//!   sweep-matrix axis.
//! * [`SharedField`] — one RF source with per-device path loss: device
//!   `i`'s harvester is attenuated by a scale factor computed once, in
//!   canonical device-id order, so the allocation is bit-deterministic
//!   regardless of the order devices are later simulated in.
//! * [`DeviceTimeline`] — a device's availability over world time,
//!   assembled from per-run
//!   [`RunTimeline`]s captured by the
//!   executor's probe layer. The executor's closed-form dark-phase
//!   solvers already advance the device between interaction points;
//!   the timeline records those points, nothing is re-simulated.
//! * [`WorldSim`] — the discrete-event composition: a duty-cycled
//!   gateway polls devices on its schedule, and each poll resolves
//!   against the target device's timeline (awake? fresh result?) into
//!   an [`SloOutcome`] — served/missed counts and staleness samples,
//!   the fleet's end-to-end service metric.
//!
//! Determinism contract: [`WorldSim::resolve`] depends only on the
//! topology and the per-device timelines, never on the order
//! [`add_device`](WorldSim::add_device) was called in. Polls are
//! resolved in schedule order and staleness samples are emitted in that
//! same order, so a digest built from an [`SloOutcome`] is bit-identical
//! at any worker or shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ehdl_ehsim::RunTimeline;
use std::error::Error;
use std::fmt;

/// One point in the networked-scenario sweep axis: the device count,
/// the shared-field geometry, and the gateway's polling schedule.
///
/// The canonical [`solo`](NetworkTopology::solo) topology routes a
/// scenario through the classic single-device path (no world
/// simulation at all); every other topology — including hand-built
/// single-device ones, which is how the parity suite proves the world
/// path bit-identical to the solo path — runs under [`WorldSim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkTopology {
    /// Number of devices sharing the field (`>= 1`).
    pub devices: u32,
    /// Path-loss spacing between adjacent devices (unitless distance
    /// step; `0` puts every device at the source, sharing equally).
    pub spacing: f64,
    /// Total field power as a multiple of the scenario environment's
    /// nominal power. The per-device scales sum to this budget, so
    /// chargers genuinely compete: more devices, thinner slices.
    pub field_budget: f64,
    /// Gateway poll period in world seconds (`> 0`). Poll `k` fires at
    /// `poll_offset_s + k * poll_period_s` and targets device
    /// `k mod devices`.
    pub poll_period_s: f64,
    /// Offset of the first poll in world seconds (`>= 0`).
    pub poll_offset_s: f64,
    /// A result older than this at poll time is stale, not served
    /// (`> 0`).
    pub freshness_s: f64,
    /// How many extra attempts a poll that finds its device asleep
    /// gets, each one duty-cycle slot (`poll_period_s`) later, before
    /// it counts as `missed_asleep`. `0` (the default) reproduces the
    /// classic single-attempt gateway bit-identically.
    pub poll_retries: u32,
}

impl NetworkTopology {
    /// The canonical solo topology: one device, the whole field,
    /// no gateway accounting. Scenarios carrying it run the classic
    /// single-device path bit-identically.
    pub fn solo() -> Self {
        NetworkTopology {
            devices: 1,
            spacing: 0.0,
            field_budget: 1.0,
            poll_period_s: 1.0,
            poll_offset_s: 0.0,
            freshness_s: 10.0,
            poll_retries: 0,
        }
    }

    /// A line-of-devices topology: `devices` nodes at distances
    /// `1 + i·spacing` from the source (inverse-square gains), full
    /// field budget, polled every `poll_period_s` with a 10 s
    /// freshness bound.
    pub fn line(devices: u32, spacing: f64, poll_period_s: f64) -> Self {
        NetworkTopology {
            devices,
            spacing,
            field_budget: 1.0,
            poll_period_s,
            poll_offset_s: 0.0,
            freshness_s: 10.0,
            poll_retries: 0,
        }
    }

    /// `true` only for the canonical [`solo`](NetworkTopology::solo)
    /// value — the routing predicate the fleet runner uses.
    pub fn is_solo(&self) -> bool {
        *self == NetworkTopology::solo()
    }

    /// Validates the topology: at least one device, finite non-negative
    /// spacing and offset, positive finite budget, period and freshness.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.devices == 0 {
            return Err(TopologyError::NoDevices);
        }
        let fields = [
            ("spacing", self.spacing, 0.0),
            ("field_budget", self.field_budget, f64::MIN_POSITIVE),
            ("poll_period_s", self.poll_period_s, f64::MIN_POSITIVE),
            ("poll_offset_s", self.poll_offset_s, 0.0),
            ("freshness_s", self.freshness_s, f64::MIN_POSITIVE),
        ];
        for (field, value, min) in fields {
            if !value.is_finite() || value < min {
                return Err(TopologyError::FieldOutOfRange { field, value });
            }
        }
        Ok(())
    }

    /// Deterministic short label for scenario names, report rows and
    /// shard records. The solo topology is `"solo"`.
    pub fn label(&self) -> String {
        if self.is_solo() {
            return "solo".to_owned();
        }
        let mut label = format!(
            "n{}:d{}:b{}:p{}:o{}:f{}",
            self.devices,
            self.spacing,
            self.field_budget,
            self.poll_period_s,
            self.poll_offset_s,
            self.freshness_s
        );
        if self.poll_retries > 0 {
            label.push_str(&format!(":r{}", self.poll_retries));
        }
        label
    }
}

impl Default for NetworkTopology {
    fn default() -> Self {
        NetworkTopology::solo()
    }
}

impl fmt::Display for NetworkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Rejection reasons from [`NetworkTopology::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyError {
    /// `devices` was zero.
    NoDevices,
    /// A numeric field was non-finite or below its minimum.
    FieldOutOfRange {
        /// Which topology field failed.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoDevices => write!(f, "topology needs at least one device"),
            TopologyError::FieldOutOfRange { field, value } => {
                write!(f, "topology field `{field}` out of range: {value}")
            }
        }
    }
}

impl Error for TopologyError {}

/// One RF source split among N chargers by path loss.
///
/// Device `i` sits at distance `1 + i·spacing` and has inverse-square
/// gain `gᵢ = 1/(1 + i·spacing)²`; its share of the field is
/// `scaleᵢ = budget · gᵢ / Σⱼ gⱼ`. The gains and their sum are computed
/// once, in ascending device-id order, so every scale is a pure
/// function of the topology — bit-identical however the caller later
/// iterates devices. For a single device at full budget the share is
/// `1.0` *exactly* (IEEE `x/x`), which is what makes single-device
/// world runs bit-identical to solo runs.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedField {
    scales: Vec<f64>,
}

impl SharedField {
    /// Computes the per-device allocation for a topology.
    pub fn for_topology(topology: &NetworkTopology) -> Self {
        let n = topology.devices as usize;
        let gains: Vec<f64> = (0..n)
            .map(|i| {
                let d = 1.0 + i as f64 * topology.spacing;
                1.0 / (d * d)
            })
            .collect();
        let total: f64 = gains.iter().sum();
        let scales = gains
            .iter()
            .map(|g| topology.field_budget * (g / total))
            .collect();
        SharedField { scales }
    }

    /// Device `i`'s share of the field (a harvester power multiplier).
    pub fn scale(&self, device: u32) -> f64 {
        self.scales[device as usize]
    }

    /// All shares, in device-id order.
    pub fn scales(&self) -> &[f64] {
        &self.scales
    }

    /// The summed allocation (equals the topology's budget up to float
    /// rounding).
    pub fn total(&self) -> f64 {
        self.scales.iter().sum()
    }
}

/// A device's availability over *world* time: its runs laid end to end,
/// with dark (recharging) intervals and result-completion instants in
/// absolute world seconds.
///
/// Built by pushing each run's [`RunTimeline`] in run order; the run's
/// local clock is offset by the accumulated end of the previous runs,
/// exactly as the device would execute them back to back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceTimeline {
    dark: Vec<(f64, f64)>,
    completions: Vec<f64>,
    end_t: f64,
}

impl DeviceTimeline {
    /// An empty timeline (device not yet simulated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one run, offset to start where the previous run ended.
    /// Completed runs contribute a result-completion instant at their
    /// (offset) end.
    pub fn push_run(&mut self, run: &RunTimeline) {
        let offset = self.end_t;
        for &(t0, t1) in run.dark_intervals() {
            self.dark.push((offset + t0, offset + t1));
        }
        if run.completed() {
            self.completions.push(offset + run.end_t());
        }
        self.end_t = offset + run.end_t();
    }

    /// World time at which the device's last run ends; past this point
    /// the device idles awake with whatever result it last produced.
    pub fn end_t(&self) -> f64 {
        self.end_t
    }

    /// Result-completion instants, ascending.
    pub fn completions(&self) -> &[f64] {
        &self.completions
    }

    /// Is the device awake (able to answer a poll) at world time `t`?
    /// Dark intervals are half-open `[t0, t1)`.
    pub fn awake_at(&self, t: f64) -> bool {
        let idx = self.dark.partition_point(|&(t0, _)| t0 <= t);
        if idx == 0 {
            return true;
        }
        let (_, t1) = self.dark[idx - 1];
        t >= t1
    }

    /// The most recent result completed at or before `t`, if any.
    pub fn last_completion_before(&self, t: f64) -> Option<f64> {
        let idx = self.completions.partition_point(|&c| c <= t);
        if idx == 0 {
            None
        } else {
            Some(self.completions[idx - 1])
        }
    }
}

/// How one gateway poll resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollResult {
    /// The device was awake with a fresh result: served.
    Served,
    /// The device was dark (recharging) at poll time.
    MissedAsleep,
    /// The device was awake but had no result, or only a stale one.
    MissedStale,
}

/// End-to-end service metrics for one world: what the gateway's polls
/// actually got. Raw counters plus the staleness samples (one per
/// served poll, in poll order) — the fleet layer folds the samples into
/// its mergeable quantile sketch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloOutcome {
    /// Devices in the world.
    pub devices: u32,
    /// Polls the gateway issued within the world's horizon.
    pub polls: u64,
    /// Polls answered with a fresh result.
    pub served: u64,
    /// Polls that found the device dark.
    pub missed_asleep: u64,
    /// Polls that found the device awake but without a fresh result.
    pub missed_stale: u64,
    /// Devices that never served a single poll.
    pub starved_devices: u64,
    /// Staleness (poll time minus result completion) of every served
    /// poll, in poll order, seconds.
    pub staleness_s: Vec<f64>,
}

impl SloOutcome {
    /// Fraction of polls served, in `[0, 1]` (zero when no polls fired).
    pub fn served_fraction(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.served as f64 / self.polls as f64
        }
    }
}

/// The discrete-event world composition: N device timelines under one
/// polling gateway.
///
/// Devices are registered by id (any order); [`resolve`](WorldSim::resolve)
/// then walks the poll schedule — jumping from poll to poll, never
/// ticking — and resolves each poll against its target device's
/// timeline. The walk visits polls in ascending time, so the outcome
/// (including sample order) is a pure function of topology + timelines.
#[derive(Debug, Clone)]
pub struct WorldSim {
    topology: NetworkTopology,
    devices: Vec<Option<DeviceTimeline>>,
}

impl WorldSim {
    /// A world with no devices registered yet.
    ///
    /// # Panics
    ///
    /// Panics if the topology fails [`NetworkTopology::validate`].
    pub fn new(topology: NetworkTopology) -> Self {
        topology.validate().unwrap_or_else(|e| panic!("{e}"));
        WorldSim {
            topology,
            devices: vec![None; topology.devices as usize],
        }
    }

    /// Registers device `id`'s timeline. Order does not matter; the
    /// resolved outcome is identical for any registration order.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range id or a duplicate registration.
    pub fn add_device(&mut self, id: u32, timeline: DeviceTimeline) {
        let slot = &mut self.devices[id as usize];
        assert!(slot.is_none(), "device {id} registered twice");
        *slot = Some(timeline);
    }

    /// Resolves the gateway's polls against every device timeline.
    ///
    /// The horizon is the latest device end: polls fire at
    /// `offset + k·period` for `k = 0, 1, …` while they land at or
    /// before the horizon, each targeting device `k mod n`. A poll is
    /// served when its device is awake and holds a result no older
    /// than the freshness bound; otherwise it misses as asleep or
    /// stale. A device past its own end idles awake with its last
    /// result (which ages into staleness like any other).
    ///
    /// # Panics
    ///
    /// Panics if any device was never registered.
    pub fn resolve(&self) -> SloOutcome {
        let n = self.topology.devices;
        let devices: Vec<&DeviceTimeline> = (0..n as usize)
            .map(|id| {
                self.devices[id]
                    .as_ref()
                    .unwrap_or_else(|| panic!("device {id} never registered"))
            })
            .collect();
        let horizon = devices
            .iter()
            .map(|d| d.end_t())
            .fold(0.0f64, |a, b| if b > a { b } else { a });
        let mut outcome = SloOutcome {
            devices: n,
            ..SloOutcome::default()
        };
        let mut served_by_device = vec![false; n as usize];
        let mut k: u64 = 0;
        loop {
            let t = self.topology.poll_offset_s + k as f64 * self.topology.poll_period_s;
            if t > horizon {
                break;
            }
            let id = (k % u64::from(n)) as usize;
            outcome.polls += 1;
            // An asleep device gets `poll_retries` further attempts,
            // each one duty-cycle slot later, before the poll counts
            // as missed. A retry that wakes the device resolves at the
            // retry time (including its staleness).
            let mut poll_t = t;
            let mut result = poll_device(devices[id], poll_t, self.topology.freshness_s);
            let mut retries = self.topology.poll_retries;
            while result == PollResult::MissedAsleep && retries > 0 {
                retries -= 1;
                poll_t += self.topology.poll_period_s;
                result = poll_device(devices[id], poll_t, self.topology.freshness_s);
            }
            match result {
                PollResult::Served => {
                    outcome.served += 1;
                    served_by_device[id] = true;
                    // last_completion_before(poll_t) is Some by
                    // construction of a served poll.
                    let done = devices[id].last_completion_before(poll_t).unwrap_or(poll_t);
                    outcome.staleness_s.push(poll_t - done);
                }
                PollResult::MissedAsleep => outcome.missed_asleep += 1,
                PollResult::MissedStale => outcome.missed_stale += 1,
            }
            k += 1;
        }
        outcome.starved_devices = served_by_device.iter().filter(|&&s| !s).count() as u64;
        outcome
    }
}

/// Resolves one poll against one device timeline.
fn poll_device(device: &DeviceTimeline, t: f64, freshness_s: f64) -> PollResult {
    if !device.awake_at(t) {
        return PollResult::MissedAsleep;
    }
    match device.last_completion_before(t) {
        Some(done) if t - done <= freshness_s => PollResult::Served,
        _ => PollResult::MissedStale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehdl_ehsim::{ExecEvent, ExecProbe, RunOutcome, TimelineRecorder};

    fn run_timeline(dark: &[(f64, f64)], end: f64, completed: bool) -> RunTimeline {
        let mut rec = TimelineRecorder::new();
        for &(t0, t1) in dark {
            rec.event(ExecEvent::DarkSkip {
                t0,
                t1,
                joules: 1e-5,
            });
        }
        rec.event(ExecEvent::RunEnd {
            t: end,
            outcome: if completed {
                RunOutcome::Completed
            } else {
                RunOutcome::OutageLimit
            },
        });
        rec.take()
    }

    #[test]
    fn solo_topology_is_canonical_and_labelled() {
        let solo = NetworkTopology::solo();
        assert!(solo.is_solo());
        assert_eq!(solo.label(), "solo");
        assert_eq!(NetworkTopology::default(), solo);
        // Any deviation stops being solo — even one device with a
        // different gateway.
        let mut near = solo;
        near.poll_period_s = 0.5;
        assert!(!near.is_solo());
        assert!(near.label().starts_with("n1:"));
        assert!(solo.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_topologies() {
        let mut t = NetworkTopology::solo();
        t.devices = 0;
        assert_eq!(t.validate(), Err(TopologyError::NoDevices));
        let mut t = NetworkTopology::solo();
        t.poll_period_s = 0.0;
        assert!(matches!(
            t.validate(),
            Err(TopologyError::FieldOutOfRange {
                field: "poll_period_s",
                ..
            })
        ));
        let mut t = NetworkTopology::solo();
        t.spacing = f64::NAN;
        assert!(t.validate().is_err());
    }

    #[test]
    fn shared_field_sums_to_budget_and_decays_with_distance() {
        let topo = NetworkTopology::line(8, 0.5, 1.0);
        let field = SharedField::for_topology(&topo);
        assert_eq!(field.scales().len(), 8);
        assert!((field.total() - 1.0).abs() < 1e-12);
        for i in 1..8 {
            assert!(
                field.scale(i) < field.scale(i - 1),
                "farther devices harvest less"
            );
        }
    }

    #[test]
    fn single_device_full_budget_scale_is_exactly_one() {
        let mut topo = NetworkTopology::line(1, 0.7, 0.25);
        topo.field_budget = 1.0;
        let field = SharedField::for_topology(&topo);
        assert_eq!(field.scale(0), 1.0_f64);
    }

    #[test]
    fn zero_spacing_shares_equally() {
        let topo = NetworkTopology::line(4, 0.0, 1.0);
        let field = SharedField::for_topology(&topo);
        for i in 0..4 {
            assert_eq!(field.scale(i), 0.25);
        }
    }

    #[test]
    fn device_timeline_concatenates_runs_with_offsets() {
        let mut device = DeviceTimeline::new();
        device.push_run(&run_timeline(&[(0.2, 0.6)], 1.0, true));
        device.push_run(&run_timeline(&[(0.1, 0.4)], 0.8, false));
        assert_eq!(device.end_t(), 1.8);
        assert_eq!(device.completions(), &[1.0]);
        assert!(device.awake_at(0.1));
        assert!(!device.awake_at(0.3)); // first run's dark span
        assert!(!device.awake_at(1.2)); // second run's, offset by 1.0
        assert!(device.awake_at(1.5));
        assert_eq!(device.last_completion_before(0.5), None);
        assert_eq!(device.last_completion_before(1.7), Some(1.0));
    }

    #[test]
    fn polls_resolve_served_asleep_and_stale() {
        // One device: completes at t=1.0, dark over [1.2, 1.6), then
        // runs (incomplete) to t=2.0.
        let mut device = DeviceTimeline::new();
        device.push_run(&run_timeline(&[(0.2, 0.6)], 1.0, true));
        device.push_run(&run_timeline(&[(0.2, 0.6)], 1.0, false));
        let mut topo = NetworkTopology::line(1, 0.0, 0.5);
        topo.poll_offset_s = 0.05;
        topo.freshness_s = 0.7;
        let mut world = WorldSim::new(topo);
        world.add_device(0, device);
        let slo = world.resolve();
        // Polls at 0.05 (awake, no result yet: stale), 0.55 (dark),
        // 1.05 (served, staleness 0.05), 1.55 (dark — it lands in the
        // second run's [1.2, 1.6) span); 2.05 is past the 2.0 horizon.
        assert_eq!(slo.polls, 4);
        assert_eq!(slo.served, 1);
        assert_eq!(slo.missed_asleep, 2);
        assert_eq!(slo.missed_stale, 1);
        assert_eq!(slo.staleness_s.len(), 1);
        assert!((slo.staleness_s[0] - 0.05).abs() < 1e-12);
        assert_eq!(slo.starved_devices, 0);
        assert!((slo.served_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn poll_retries_rescue_asleep_polls_but_not_stale_ones() {
        // Same world as `polls_resolve_served_asleep_and_stale`, but
        // the gateway retries asleep polls once, one slot later.
        let build_device = || {
            let mut device = DeviceTimeline::new();
            device.push_run(&run_timeline(&[(0.2, 0.6)], 1.0, true));
            device.push_run(&run_timeline(&[(0.2, 0.6)], 1.0, false));
            device
        };
        let mut topo = NetworkTopology::line(1, 0.0, 0.5);
        topo.poll_offset_s = 0.05;
        topo.freshness_s = 0.7;
        topo.poll_retries = 1;
        assert!(topo.validate().is_ok());
        assert!(topo.label().ends_with(":r1"));
        let mut world = WorldSim::new(topo);
        world.add_device(0, build_device());
        let slo = world.resolve();
        // The 0.55 poll (dark) retries at 1.05 and is served with
        // staleness 0.05; the 1.55 poll retries at 2.05 where the
        // device idles awake but its 1.0 result is stale.
        assert_eq!(slo.polls, 4);
        assert_eq!(slo.served, 2);
        assert_eq!(slo.missed_asleep, 0);
        assert_eq!(slo.missed_stale, 2);
        assert_eq!(slo.staleness_s.len(), 2);
        assert!((slo.staleness_s[0] - 0.05).abs() < 1e-12);
        assert!((slo.staleness_s[1] - 0.05).abs() < 1e-12);

        // Retries disabled reproduces the classic gateway; the label
        // carries no retry suffix.
        topo.poll_retries = 0;
        assert!(!topo.label().contains(":r"));
        let mut world = WorldSim::new(topo);
        world.add_device(0, build_device());
        let baseline = world.resolve();
        assert_eq!(baseline.served, 1);
        assert_eq!(baseline.missed_asleep, 2);
    }

    #[test]
    fn freshness_bound_turns_old_results_stale() {
        let mut device = DeviceTimeline::new();
        device.push_run(&run_timeline(&[], 1.0, true));
        device.push_run(&run_timeline(&[], 9.0, false));
        let mut topo = NetworkTopology::line(1, 0.0, 4.0);
        topo.poll_offset_s = 2.0;
        topo.freshness_s = 1.5;
        let mut world = WorldSim::new(topo);
        world.add_device(0, device);
        let slo = world.resolve();
        // Polls at 2.0 (staleness 1.0: served) and 6.0 and 10.0
        // (staleness 5.0 and 9.0: stale).
        assert_eq!(slo.polls, 3);
        assert_eq!(slo.served, 1);
        assert_eq!(slo.missed_stale, 2);
        assert_eq!(slo.starved_devices, 0);
    }

    #[test]
    fn starved_devices_are_counted() {
        let mut served = DeviceTimeline::new();
        served.push_run(&run_timeline(&[], 1.0, true));
        let mut starved = DeviceTimeline::new();
        starved.push_run(&run_timeline(&[], 1.0, false));
        let mut topo = NetworkTopology::line(2, 0.0, 0.5);
        topo.poll_offset_s = 1.0;
        let mut world = WorldSim::new(topo);
        world.add_device(0, served);
        world.add_device(1, starved);
        let slo = world.resolve();
        assert!(slo.served > 0);
        assert_eq!(slo.starved_devices, 1);
    }

    #[test]
    fn resolve_is_independent_of_registration_order() {
        let topo = NetworkTopology::line(3, 0.4, 0.3);
        let timelines: Vec<DeviceTimeline> = (0..3)
            .map(|i| {
                let mut d = DeviceTimeline::new();
                let shift = 0.1 * i as f64;
                d.push_run(&run_timeline(&[(0.2 + shift, 0.7 + shift)], 1.1, i != 1));
                d.push_run(&run_timeline(&[(0.1, 0.5)], 1.3, true));
                d
            })
            .collect();
        let mut forward = WorldSim::new(topo);
        for (i, t) in timelines.iter().enumerate() {
            forward.add_device(i as u32, t.clone());
        }
        let mut backward = WorldSim::new(topo);
        for (i, t) in timelines.iter().enumerate().rev() {
            backward.add_device(i as u32, t.clone());
        }
        let a = forward.resolve();
        let b = backward.resolve();
        assert_eq!(a, b);
        // f64 payloads compare bit-for-bit too.
        let bits = |slo: &SloOutcome| -> Vec<u64> {
            slo.staleness_s.iter().map(|s| s.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let mut world = WorldSim::new(NetworkTopology::line(1, 0.0, 1.0));
        world.add_device(0, DeviceTimeline::new());
        world.add_device(0, DeviceTimeline::new());
    }

    #[test]
    #[should_panic(expected = "never registered")]
    fn missing_device_panics_at_resolve() {
        let world = WorldSim::new(NetworkTopology::line(2, 0.0, 1.0));
        world.resolve();
    }
}
