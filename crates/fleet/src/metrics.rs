//! The streaming telemetry pipeline: run records and mergeable sinks.
//!
//! The fleet runner emits one [`RunRecord`] per (scenario, run) and
//! folds it into a [`MetricsSink`]. Sinks own *what* is retained: the
//! compatibility [`FullReportSink`] rebuilds the classic
//! [`FleetReport`] (every latency sample kept), [`DigestSink`] folds
//! the whole sweep into a fixed-size [`FleetDigest`], [`GroupBySink`]
//! aggregates one digest per axis value, and [`JsonlSink`] /
//! [`CsvSink`] stream rows to a writer for offline analysis.
//!
//! The determinism contract is split across three call sites:
//!
//! 1. [`open`](MetricsSink::open) — once per scenario, inside the
//!    worker that claims it (claim order is racy, so `open` must be a
//!    pure function of its arguments);
//! 2. [`fold`](MetricsSink::fold) — once per run, inside that same
//!    worker, in run order (an associated function, so folding never
//!    touches the sink itself);
//! 3. [`merge`](MetricsSink::merge) — once per scenario, on the
//!    coordinating thread, **in matrix order** regardless of which
//!    worker finished when.
//!
//! Because every fold happens in a fixed order and merges walk the
//! matrix order, a sink's report is a pure function of the matrix:
//! bit-identical at any worker count.
//!
//! Adding a counter: the digest and its tallies are declared through
//! `tally!`, so a new counter is one field line there
//! (`pub name: u64 => sum,`), which also gives it its merge and its wire
//! key. Hand-written code remains only where a field list cannot say
//! it: the line in [`FleetDigest::fold_run`] (or the tally's own fold)
//! that counts it, and optionally a `Display` clause. A new field changes
//! the wire bytes, so bump the wire version and re-pin the golden wire
//! test in the same change.

use crate::digest::{QuantileFidelity, StatsDigest};
use crate::report::{FleetReport, ScenarioReport};
use crate::scenario::Scenario;
use crate::tally::{tally, Merge};
use crate::wire::{Json, Wire};
use core::fmt;
use ehdl::ehsim::{FaultTally, IntegrityTally, RunOutcome, RunReport};
use ehdl::Error;
use ehdl_netsim::SloOutcome;
use std::io::Write;

/// One telemetry event: the facts of a single intermittent run
/// ([`RunReport`]) together with the scenario axes that produced it.
#[derive(Debug, Clone, Copy)]
pub struct RunRecord<'a> {
    /// The scenario this run belongs to (axes, seed, matrix index).
    pub scenario: &'a Scenario,
    /// Run index within the scenario, `0..runs`.
    pub run: u32,
    /// Quantized-model accuracy of the scenario's shared deployment.
    pub accuracy: f64,
    /// Everything the executor measured for this run.
    pub report: &'a RunReport,
}

impl RunRecord<'_> {
    /// End-to-end latency in milliseconds when the run completed.
    pub fn latency_ms(&self) -> Option<f64> {
        self.report.latency_ms()
    }
}

/// A streaming, mergeable metric sink — the fold target of a fleet
/// sweep. Its determinism contract: [`open`](Self::open) is a pure
/// function of its arguments, [`fold`](Self::fold) runs in run order and
/// [`merge`](Self::merge) in matrix order, so a sink's report is
/// bit-identical at any worker count.
pub trait MetricsSink {
    /// Fixed-size per-scenario accumulator, handed to one worker.
    type Partial: Send;
    /// What the sink ultimately produces.
    type Report;

    /// Creates the accumulator for one scenario. Called inside the
    /// worker that claims the scenario (under the runner's sink lock),
    /// just before its first run — so at most one accumulator per
    /// worker is live at a time, which is what keeps fixed-size sinks
    /// O(1) even on 10k+ scenario matrices. Claim order is racy:
    /// implementations must be pure functions of their arguments.
    fn open(&self, scenario: &Scenario, accuracy: f64) -> Self::Partial;

    /// Folds one run into a scenario accumulator. Called inside the
    /// worker that owns the scenario, in run order. An associated
    /// function (no `self`): workers fold without touching the sink.
    fn fold(partial: &mut Self::Partial, record: &RunRecord<'_>);

    /// Folds one networked scenario's gateway-poll outcome into the
    /// accumulator. Called at most once per scenario, after every
    /// [`fold`](MetricsSink::fold) of that scenario and only when the
    /// scenario's topology is networked (solo scenarios never produce
    /// an [`SloOutcome`]). The default is a no-op so run-oriented sinks
    /// (rows, reports) are untouched by the network layer.
    fn fold_slo(_partial: &mut Self::Partial, _outcome: &SloOutcome) {}

    /// Absorbs a completed scenario's accumulator. Called on the
    /// coordinating thread in matrix order — this is where per-worker
    /// results serialize into a deterministic aggregate, and where
    /// streaming sinks may write.
    ///
    /// # Errors
    ///
    /// Streaming sinks surface their I/O failures here.
    fn merge(&mut self, partial: Self::Partial) -> Result<(), Error>;

    /// Finishes the sink after every scenario merged.
    ///
    /// # Errors
    ///
    /// Streaming sinks surface their final flush failures here.
    fn finish(self) -> Result<Self::Report, Error>;
}

/// Two sinks folding the same sweep side by side (e.g. a
/// [`DigestSink`] for the headline plus a [`JsonlSink`] streaming raw
/// rows).
impl<A: MetricsSink, B: MetricsSink> MetricsSink for (A, B) {
    type Partial = (A::Partial, B::Partial);
    type Report = (A::Report, B::Report);

    fn open(&self, scenario: &Scenario, accuracy: f64) -> Self::Partial {
        (
            self.0.open(scenario, accuracy),
            self.1.open(scenario, accuracy),
        )
    }

    fn fold(partial: &mut Self::Partial, record: &RunRecord<'_>) {
        A::fold(&mut partial.0, record);
        B::fold(&mut partial.1, record);
    }

    fn fold_slo(partial: &mut Self::Partial, outcome: &SloOutcome) {
        A::fold_slo(&mut partial.0, outcome);
        B::fold_slo(&mut partial.1, outcome);
    }

    fn merge(&mut self, partial: Self::Partial) -> Result<(), Error> {
        self.0.merge(partial.0)?;
        self.1.merge(partial.1)
    }

    fn finish(self) -> Result<Self::Report, Error> {
        Ok((self.0.finish()?, self.1.finish()?))
    }
}

// ---------------------------------------------------------------- full

/// The compatibility sink: retains every [`ScenarioReport`] (including
/// each completed run's latency sample) and reproduces the classic
/// [`FleetReport`] exactly. Memory grows with the matrix — prefer
/// [`DigestSink`] for 10k+ scenario sweeps.
#[derive(Debug, Default)]
pub struct FullReportSink {
    scenarios: Vec<ScenarioReport>,
}

impl FullReportSink {
    /// An empty full-report sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsSink for FullReportSink {
    type Partial = ScenarioReport;
    type Report = FleetReport;

    fn open(&self, scenario: &Scenario, accuracy: f64) -> ScenarioReport {
        ScenarioReport {
            name: scenario.name(),
            workload: scenario.workload.name(),
            environment: scenario.environment.name().to_string(),
            strategy: scenario.strategy,
            board: scenario.board.name(),
            seed: scenario.seed,
            accuracy,
            ..ScenarioReport::default()
        }
    }

    fn fold(partial: &mut ScenarioReport, record: &RunRecord<'_>) {
        let r = record.report;
        partial.runs += 1;
        partial.outages += r.outages;
        partial.restores += r.restores;
        partial.ondemand_checkpoints += r.ondemand_checkpoints;
        partial.executed_ops += r.executed_ops;
        partial.wasted_ops += r.wasted_ops;
        partial.energy_nj += r.energy.nanojoules();
        partial.active_seconds += r.active_seconds;
        partial.charging_seconds += r.charging_seconds;
        if r.outcome == RunOutcome::EnergyLimit {
            partial.energy_limited_runs += 1;
        }
        partial.resilience.fold_run(r);
        partial.integrity.merge(&r.integrity);
        if let Some(ms) = r.latency_ms() {
            partial.completed_runs += 1;
            partial.latencies_ms.push(ms);
        }
    }

    fn merge(&mut self, mut partial: ScenarioReport) -> Result<(), Error> {
        partial.latencies_ms.sort_by(f64::total_cmp);
        self.scenarios.push(partial);
        Ok(())
    }

    fn finish(self) -> Result<FleetReport, Error> {
        Ok(FleetReport {
            scenarios: self.scenarios,
        })
    }
}

// -------------------------------------------------------------- digest

tally! {
    /// The fixed-size summary of a whole sweep: exact counters plus
    /// [`StatsDigest`] sketches for latency (one sample per completed run)
    /// and accuracy (one sample per scenario). Mergeable — two digests from
    /// disjoint scenario ranges combine with [`FleetDigest::merge`], which
    /// is what makes per-worker and per-shard partial results composable.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct FleetDigest {
        /// Scenarios folded.
        pub scenarios: u64 => sum,
        /// Intermittent runs attempted.
        pub runs: u64 => sum,
        /// Runs whose inference finished.
        pub completed_runs: u64 => sum,
        /// Runs declared ✗ (stalled without progress).
        pub no_progress_runs: u64 => sum,
        /// Runs that hit the outage budget.
        pub outage_limited_runs: u64 => sum,
        /// Runs that hit the wall-clock budget.
        pub time_limited_runs: u64 => sum,
        /// Runs that hit the per-run energy budget.
        pub energy_limited_runs: u64 => sum,
        /// Power failures across all runs.
        pub outages: u64 => sum,
        /// Restores performed after outages.
        pub restores: u64 => sum,
        /// On-demand checkpoints taken.
        pub ondemand_checkpoints: u64 => sum,
        /// Ops executed, including re-execution after rollbacks.
        pub executed_ops: u64 => sum,
        /// Ops whose work was lost to rollbacks.
        pub wasted_ops: u64 => sum,
        /// Total energy drawn from the capacitor, in nanojoules.
        pub energy_nj: f64 => sum,
        /// Seconds spent computing.
        pub active_seconds: f64 => sum,
        /// Seconds spent dark, charging.
        pub charging_seconds: f64 => sum,
        /// Completed-run latency sketch, in milliseconds.
        pub latency_ms: StatsDigest => merge,
        /// Per-scenario deployment accuracy sketch.
        pub accuracy: StatsDigest => merge,
        /// Per-run dark (charging) time sketch, in seconds — one sample per
        /// run, whatever its outcome. `charging_seconds` holds the exact
        /// total; this sketch adds the distribution, so budget sweeps can
        /// chart charging-vs-compute time per strategy or environment.
        pub dark_s: StatsDigest => merge,
        /// Fault-injection resilience counters, folded from each run's
        /// [`FaultTally`]. All-zero on fault-free sweeps.
        pub resilience: ResilienceTally => merge,
        /// Gateway service-level counters, folded from each networked
        /// scenario's [`SloOutcome`]. Empty on solo-topology sweeps.
        pub slo: SloTally => merge,
        /// Checkpoint-payload integrity counters, folded from each run's
        /// [`IntegrityTally`]. All-zero unless bit-flips were armed or a
        /// non-`None` integrity scheme ran.
        pub integrity: IntegrityTally => merge,
    }
}

tally! {
    /// Fleet-wide gateway service-level tally: how many polls the fleet's
    /// devices answered, how the misses split between asleep and stale,
    /// and a mergeable sketch of served-result staleness. Folded once per
    /// networked scenario from its [`SloOutcome`]; solo scenarios
    /// contribute nothing. Merged field-wise, so it composes across
    /// workers and shards exactly like the rest of [`FleetDigest`].
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct SloTally {
        /// Networked scenarios (simulated worlds) folded.
        pub worlds: u64 => sum,
        /// Device slots across those worlds.
        pub devices: u64 => sum,
        /// Gateway polls issued.
        pub polls: u64 => sum,
        /// Polls answered with a fresh result.
        pub served: u64 => sum,
        /// Polls that found the target device dark (charging).
        pub missed_asleep: u64 => sum,
        /// Polls that found the device awake but its newest result older
        /// than the freshness window (or no result at all).
        pub missed_stale: u64 => sum,
        /// Devices that answered zero polls in their world — the fleet's
        /// starvation count under the shared harvest field.
        pub starved_devices: u64 => sum,
        /// Staleness of each served result, in seconds (poll time minus
        /// the served inference's completion time).
        pub staleness_s: StatsDigest => merge,
    }
}

impl SloTally {
    /// Folds one networked scenario's gateway outcome.
    pub(crate) fn fold_outcome(&mut self, outcome: &SloOutcome) {
        self.worlds += 1;
        self.devices += u64::from(outcome.devices);
        self.polls += outcome.polls;
        self.served += outcome.served;
        self.missed_asleep += outcome.missed_asleep;
        self.missed_stale += outcome.missed_stale;
        self.starved_devices += outcome.starved_devices;
        for &s in &outcome.staleness_s {
            self.staleness_s.record(s);
        }
    }

    /// Fraction of polls served fresh (0.0 when no polls).
    pub fn served_fraction(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.served as f64 / self.polls as f64
        }
    }
}

tally! {
    /// Fleet-wide resilience counters for fault-injected sweeps: how many
    /// runs saw injected faults, how many of those still completed, and the
    /// per-kind injection totals. Folded from each run's [`FaultTally`] and
    /// merged by field-wise sum, so it composes across workers and shards
    /// exactly like the rest of [`FleetDigest`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct ResilienceTally {
        /// Runs with at least one injected fault.
        pub faulted_runs: u64 => sum,
        /// Faulted runs that nevertheless completed inference.
        pub recovered_runs: u64 => sum,
        /// Spurious mid-compute resets injected.
        pub spurious_resets: u64 => sum,
        /// Checkpoint commits torn by mid-commit power loss.
        pub torn_commits: u64 => sum,
        /// Ops executed under injected voltage sag.
        pub sag_ops: u64 => sum,
        /// Restores that found the newest checkpoint slot corrupted.
        pub corrupt_restores: u64 => sum,
        /// Corrupt restores that fell all the way back to a cold boot.
        pub cold_boots: u64 => sum,
        /// Corruptions the restore path detected (and recovered from).
        pub detected_corruptions: u64 => sum,
        /// Corruptions that went undetected — always zero under the
        /// double-buffered checkpoint audit; a nonzero value is a
        /// crash-consistency bug.
        pub silent_corruptions: u64 => sum,
    }
}

impl ResilienceTally {
    /// Folds one run's fault tally and outcome.
    pub(crate) fn fold_run(&mut self, report: &RunReport) {
        let t: &FaultTally = &report.faults;
        if t.injected() > 0 {
            self.faulted_runs += 1;
            if report.outcome == RunOutcome::Completed {
                self.recovered_runs += 1;
            }
        }
        self.spurious_resets += t.spurious_resets;
        self.torn_commits += t.torn_commits;
        self.sag_ops += t.sag_ops;
        self.corrupt_restores += t.corrupt_restores;
        self.cold_boots += t.cold_boots;
        self.detected_corruptions += t.detected_corruptions;
        self.silent_corruptions += t.silent_corruptions;
    }

    /// Fraction of faulted runs that completed anyway (1.0 when no run
    /// was faulted — an unfaulted fleet is trivially resilient).
    pub fn recovery_rate(&self) -> f64 {
        if self.faulted_runs == 0 {
            1.0
        } else {
            self.recovered_runs as f64 / self.faulted_runs as f64
        }
    }
}

// Declared in `ehsim`, which knows nothing of fleet merges or wires.
tally! {
    impl IntegrityTally {
        flips_injected => sum,
        flips_repaired => sum,
        flips_detected => sum,
        silent_restores => sum,
        wear_max_commits => max,
        ladder => each,
    }
}

impl FleetDigest {
    /// An empty digest.
    pub fn new() -> Self {
        Self::default()
    }

    /// The digest a sink opens for one scenario: the scenario counted,
    /// its deployment accuracy sampled, no runs yet.
    pub(crate) fn opened(accuracy: f64) -> Self {
        let mut digest = FleetDigest {
            scenarios: 1,
            ..Self::default()
        };
        digest.accuracy.record(accuracy);
        digest
    }

    /// Folds one run's facts (shared by [`DigestSink`], [`GroupBySink`]
    /// and the shard worker's record sink).
    pub(crate) fn fold_run(&mut self, record: &RunRecord<'_>) {
        let r = record.report;
        self.runs += 1;
        match r.outcome {
            RunOutcome::Completed => self.completed_runs += 1,
            RunOutcome::NoProgress => self.no_progress_runs += 1,
            RunOutcome::OutageLimit => self.outage_limited_runs += 1,
            RunOutcome::TimeLimit => self.time_limited_runs += 1,
            RunOutcome::EnergyLimit => self.energy_limited_runs += 1,
        }
        self.outages += r.outages;
        self.restores += r.restores;
        self.ondemand_checkpoints += r.ondemand_checkpoints;
        self.executed_ops += r.executed_ops;
        self.wasted_ops += r.wasted_ops;
        self.energy_nj += r.energy.nanojoules();
        self.active_seconds += r.active_seconds;
        self.charging_seconds += r.charging_seconds;
        self.dark_s.record(r.charging_seconds);
        self.resilience.fold_run(r);
        self.integrity.merge(&r.integrity);
        if let Some(ms) = r.latency_ms() {
            self.latency_ms.record(ms);
        }
    }

    /// Fraction of runs that completed (0.0 when no runs).
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.completed_runs as f64 / self.runs as f64
        }
    }

    /// Forward progress: fraction of executed ops not rolled back (1.0
    /// when nothing executed).
    pub fn forward_progress(&self) -> f64 {
        if self.executed_ops == 0 {
            1.0
        } else {
            self.executed_ops.saturating_sub(self.wasted_ops) as f64 / self.executed_ops as f64
        }
    }

    /// Total energy drawn across the fleet, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.energy_nj * 1e-6
    }

    /// Mean scenario accuracy (`None` on an empty digest).
    pub fn mean_accuracy(&self) -> Option<f64> {
        self.accuracy.mean()
    }

    /// The latency sketch's quantile resolution — which histogram bins
    /// back p50/p90/p99. [`DigestSink::finish`] consults this so the
    /// rendered report can flag a collapsed tail (`p90 == p99`) instead
    /// of letting it read like a measurement.
    pub fn latency_fidelity(&self) -> QuantileFidelity {
        self.latency_ms.quantile_fidelity()
    }

    /// The staleness sketch's quantile resolution — the gateway-side
    /// twin of [`latency_fidelity`](Self::latency_fidelity), consulted
    /// by the rendered report so a collapsed staleness tail is flagged
    /// instead of reading like a measurement.
    pub fn staleness_fidelity(&self) -> QuantileFidelity {
        self.slo.staleness_s.quantile_fidelity()
    }

    /// The digest as canonical single-line JSON — the shard wire
    /// encoding, floats carried as bit-exact hex. Two digests serialize
    /// to identical bytes iff they are equal, so the string (or a hash
    /// of it) doubles as a determinism checksum for bench harnesses and
    /// CI smoke jobs.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1536);
        self.encode(&mut out);
        out
    }

    /// Rebuilds a digest from [`to_json`](Self::to_json)'s output —
    /// bit-identical, sketches included.
    ///
    /// # Errors
    ///
    /// Describes the first syntax or schema error.
    pub fn from_json(text: &str) -> Result<FleetDigest, String> {
        FleetDigest::decode(&Json::parse(text)?)
    }

    /// Bytes this digest retains — a constant, however many scenarios
    /// were folded (the O(1)-memory claim, measurable).
    pub fn memory_bytes(&self) -> usize {
        core::mem::size_of::<Self>() - 4 * core::mem::size_of::<StatsDigest>()
            + self.latency_ms.memory_bytes()
            + self.accuracy.memory_bytes()
            + self.dark_s.memory_bytes()
            + self.slo.staleness_s.memory_bytes()
    }
}

impl fmt::Display for FleetDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== fleet digest: {} scenarios, {}/{} runs completed, {} outages, {:.3} mJ ==",
            self.scenarios,
            self.completed_runs,
            self.runs,
            self.outages,
            self.total_energy_mj()
        )?;
        writeln!(
            f,
            "outcomes: {} completed, {} no-progress, {} outage-limit, {} time-limit, {} energy-limit",
            self.completed_runs,
            self.no_progress_runs,
            self.outage_limited_runs,
            self.time_limited_runs,
            self.energy_limited_runs
        )?;
        writeln!(
            f,
            "accuracy: mean {:.1}%   forward progress: {:.1}%",
            self.mean_accuracy().unwrap_or(0.0) * 100.0,
            self.forward_progress() * 100.0
        )?;
        writeln!(
            f,
            "latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms over {} completed runs",
            self.latency_ms.p50().unwrap_or(0.0),
            self.latency_ms.p90().unwrap_or(0.0),
            self.latency_ms.p99().unwrap_or(0.0),
            self.latency_ms.count()
        )?;
        writeln!(
            f,
            "dark time: {:.3} s total (p50 {:.4} s, p99 {:.4} s per run) vs {:.3} s active",
            self.charging_seconds,
            self.dark_s.p50().unwrap_or(0.0),
            self.dark_s.p99().unwrap_or(0.0),
            self.active_seconds
        )?;
        let r = &self.resilience;
        if r.faulted_runs > 0 {
            writeln!(
                f,
                "resilience: {}/{} faulted runs recovered ({:.1}%), {} resets, \
                 {} torn commits, {} sag ops, {} corrupt restores ({} cold boots), \
                 {} detected / {} silent corruptions",
                r.recovered_runs,
                r.faulted_runs,
                r.recovery_rate() * 100.0,
                r.spurious_resets,
                r.torn_commits,
                r.sag_ops,
                r.corrupt_restores,
                r.cold_boots,
                r.detected_corruptions,
                r.silent_corruptions
            )?;
        }
        let s = &self.slo;
        if s.polls > 0 {
            writeln!(
                f,
                "gateway: {}/{} polls served ({:.1}%), {} asleep, {} stale, \
                 staleness p50 {:.3} s / p99 {:.3} s, {} starved of {} devices",
                s.served,
                s.polls,
                s.served_fraction() * 100.0,
                s.missed_asleep,
                s.missed_stale,
                s.staleness_s.p50().unwrap_or(0.0),
                s.staleness_s.p99().unwrap_or(0.0),
                s.starved_devices,
                s.devices
            )?;
        }
        let i = &self.integrity;
        if !i.is_empty() {
            writeln!(
                f,
                "integrity: {} flips injected, {} repaired, {} detected, \
                 {} silent restores, ladder [{} {} {} {}], wear max {} commits",
                i.flips_injected,
                i.flips_repaired,
                i.flips_detected,
                i.silent_restores,
                i.ladder[0],
                i.ladder[1],
                i.ladder[2],
                i.ladder[3],
                i.wear_max_commits
            )?;
        }
        if self.latency_fidelity().tail_collapsed() {
            writeln!(
                f,
                "warning: latency p90 and p99 share one histogram bin \
                 (tail clustered tighter than ~4.08%); treat them as one estimate"
            )?;
        }
        if self.slo.polls > 0 && self.staleness_fidelity().tail_collapsed() {
            writeln!(
                f,
                "warning: staleness p90 and p99 share one histogram bin \
                 (tail clustered tighter than ~4.08%); treat them as one estimate"
            )?;
        }
        Ok(())
    }
}

/// Folds the whole sweep into one [`FleetDigest`]: O(1) memory no
/// matter how many scenarios run, at the price of sketched (±2%)
/// latency percentiles. The streaming replacement for
/// [`FullReportSink`] on 10k+ scenario matrices.
///
/// The finished digest audits its own latency sketch: its rendered
/// report consults [`FleetDigest::latency_fidelity`] and appends a
/// one-line warning when the histogram tail collapses (`p90 == p99`
/// backed by a single bin), so a sketch artifact never reads like a
/// measurement.
#[derive(Debug, Default)]
pub struct DigestSink {
    digest: FleetDigest,
}

impl DigestSink {
    /// An empty digest sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MetricsSink for DigestSink {
    type Partial = FleetDigest;
    type Report = FleetDigest;

    fn open(&self, _scenario: &Scenario, accuracy: f64) -> FleetDigest {
        FleetDigest::opened(accuracy)
    }

    fn fold(partial: &mut FleetDigest, record: &RunRecord<'_>) {
        partial.fold_run(record);
    }

    fn fold_slo(partial: &mut FleetDigest, outcome: &SloOutcome) {
        partial.slo.fold_outcome(outcome);
    }

    fn merge(&mut self, partial: FleetDigest) -> Result<(), Error> {
        self.digest.merge(&partial);
        Ok(())
    }

    fn finish(self) -> Result<FleetDigest, Error> {
        Ok(self.digest)
    }
}

// ------------------------------------------------------------- groupby

/// Which scenario axis a [`GroupBySink`] groups on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupAxis {
    /// Group by workload name.
    Workload,
    /// Group by environment name.
    Environment,
    /// Group by checkpoint strategy.
    Strategy,
    /// Group by board name.
    Board,
    /// Group by the per-run energy budget — one digest per budget axis
    /// value, which is exactly a completion-vs-joule frontier (plot
    /// each group's completion rate against its budget).
    EnergyBudget,
    /// Group by fault-injection schedule — one digest per
    /// [`FaultSpec`](crate::FaultSpec) label, which puts the fault-free
    /// baseline next to each fault profile (compare recovery rate and
    /// wasted work per schedule).
    Fault,
    /// Group by network topology label — one digest per
    /// [`NetworkTopology`](crate::NetworkTopology) axis value, which
    /// puts the solo baseline next to each fleet layout (compare
    /// completion and gateway service per topology).
    Topology,
    /// Group by checkpoint-integrity scheme — one digest per
    /// [`Integrity`](crate::Integrity) axis value, which puts the
    /// unguarded baseline next to each guard (compare silent-corruption
    /// exposure and commit-energy overhead per scheme).
    Integrity,
}

impl GroupAxis {
    /// Every axis, in declaration order — the order shard records carry
    /// their labels in, so `axis as usize` indexes them.
    pub(crate) const ALL: [GroupAxis; 8] = [
        GroupAxis::Workload,
        GroupAxis::Environment,
        GroupAxis::Strategy,
        GroupAxis::Board,
        GroupAxis::EnergyBudget,
        GroupAxis::Fault,
        GroupAxis::Topology,
        GroupAxis::Integrity,
    ];

    /// The axis label of one scenario.
    pub(crate) fn key(self, scenario: &Scenario) -> String {
        match self {
            GroupAxis::Workload => scenario.workload.name().to_string(),
            GroupAxis::Environment => scenario.environment.name().to_string(),
            GroupAxis::Strategy => scenario.strategy.name().to_string(),
            GroupAxis::Board => scenario.board.name().to_string(),
            GroupAxis::EnergyBudget => match scenario.energy_budget_nj {
                None => "unbounded".to_string(),
                Some(nj) => format!("{nj}nJ"),
            },
            GroupAxis::Fault => scenario.fault.label(),
            GroupAxis::Topology => scenario.topology.label(),
            GroupAxis::Integrity => scenario.integrity.label().to_string(),
        }
    }

    /// The axis name (column header).
    pub fn name(self) -> &'static str {
        match self {
            GroupAxis::Workload => "workload",
            GroupAxis::Environment => "environment",
            GroupAxis::Strategy => "strategy",
            GroupAxis::Board => "board",
            GroupAxis::EnergyBudget => "energy_budget",
            GroupAxis::Fault => "fault",
            GroupAxis::Topology => "topology",
            GroupAxis::Integrity => "integrity",
        }
    }

    /// The key of the axis label in a shard record: the
    /// [`name`](Self::name), except `budget` for the energy budget.
    pub(crate) fn wire_key(self) -> &'static str {
        match self {
            GroupAxis::EnergyBudget => "budget",
            _ => self.name(),
        }
    }

    /// Parses the axis back from [`name`](Self::name) — the inverse the
    /// shard checkpoint store uses when restoring grouped frontiers.
    pub(crate) fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == name)
    }
}

/// One [`FleetDigest`] per distinct value of a scenario axis, in
/// first-appearance (matrix) order — "how does each environment /
/// strategy / board do across the whole sweep" in fixed memory.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedDigest {
    /// The axis grouped on.
    pub axis: GroupAxis,
    /// `(axis value, digest)` pairs in first-appearance order.
    pub groups: Vec<(String, FleetDigest)>,
}

impl GroupedDigest {
    /// The digest for one axis value, if present.
    pub fn get(&self, key: &str) -> Option<&FleetDigest> {
        self.groups
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, digest)| digest)
    }
}

impl fmt::Display for GroupedDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<16} {:>9} {:>11} {:>8} {:>7} {:>9} {:>9} {:>9} {:>10}",
            self.axis.name(),
            "scenarios",
            "done/runs",
            "reboots",
            "acc",
            "p50 ms",
            "p90 ms",
            "p99 ms",
            "dark p50 s"
        )?;
        for (key, d) in &self.groups {
            writeln!(
                f,
                "{key:<16} {:>9} {:>5}/{:<5} {:>8} {:>6.1}% {:>9.2} {:>9.2} {:>9.2} {:>10.4}",
                d.scenarios,
                d.completed_runs,
                d.runs,
                d.outages,
                d.mean_accuracy().unwrap_or(0.0) * 100.0,
                d.latency_ms.p50().unwrap_or(0.0),
                d.latency_ms.p90().unwrap_or(0.0),
                d.latency_ms.p99().unwrap_or(0.0),
                d.dark_s.p50().unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

/// Aggregates one [`FleetDigest`] per value of a scenario axis.
#[derive(Debug)]
pub struct GroupBySink {
    axis: GroupAxis,
    groups: Vec<(String, FleetDigest)>,
}

impl GroupBySink {
    /// A sink grouping on the given axis.
    pub fn new(axis: GroupAxis) -> Self {
        GroupBySink {
            axis,
            groups: Vec::new(),
        }
    }
}

impl MetricsSink for GroupBySink {
    type Partial = (String, FleetDigest);
    type Report = GroupedDigest;

    fn open(&self, scenario: &Scenario, accuracy: f64) -> (String, FleetDigest) {
        (self.axis.key(scenario), FleetDigest::opened(accuracy))
    }

    fn fold(partial: &mut (String, FleetDigest), record: &RunRecord<'_>) {
        partial.1.fold_run(record);
    }

    fn fold_slo(partial: &mut (String, FleetDigest), outcome: &SloOutcome) {
        partial.1.slo.fold_outcome(outcome);
    }

    fn merge(&mut self, (key, partial): (String, FleetDigest)) -> Result<(), Error> {
        match self.groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, digest)) => digest.merge(&partial),
            None => self.groups.push((key, partial)),
        }
        Ok(())
    }

    fn finish(self) -> Result<GroupedDigest, Error> {
        Ok(GroupedDigest {
            axis: self.axis,
            groups: self.groups,
        })
    }
}

// ----------------------------------------------------------- row sinks

/// One row-sink column: its name, whether JSONL writes it as a string
/// ([`TEXT`]) or a bare number ([`NUMBER`]), and its value for a run
/// (empty for JSON `null` and an empty CSV field).
type Column = (&'static str, bool, fn(&RunRecord<'_>) -> String);
const TEXT: bool = true;
const NUMBER: bool = false;

/// The row schema [`JsonlSink`] and [`CsvSink`] share, in column order.
const COLUMNS: [Column; 23] = [
    ("scenario", NUMBER, |r| r.scenario.index.to_string()),
    ("workload", TEXT, |r| r.scenario.workload.name().to_string()),
    ("environment", TEXT, |r| {
        r.scenario.environment.name().to_string()
    }),
    ("strategy", TEXT, |r| r.scenario.strategy.name().to_string()),
    ("board", TEXT, |r| r.scenario.board.name().to_string()),
    ("seed", NUMBER, |r| r.scenario.seed.to_string()),
    ("energy_budget_nj", NUMBER, |r| {
        r.scenario
            .energy_budget_nj
            .map_or(String::new(), |nj| nj.to_string())
    }),
    ("fault", TEXT, |r| r.scenario.fault.label()),
    ("topology", TEXT, |r| r.scenario.topology.label()),
    ("integrity", TEXT, |r| {
        r.scenario.integrity.label().to_string()
    }),
    ("run", NUMBER, |r| r.run.to_string()),
    ("outcome", TEXT, |r| r.report.outcome.label().to_string()),
    ("accuracy", NUMBER, |r| r.accuracy.to_string()),
    ("latency_ms", NUMBER, |r| {
        r.latency_ms().map_or(String::new(), |ms| ms.to_string())
    }),
    ("outages", NUMBER, |r| r.report.outages.to_string()),
    ("restores", NUMBER, |r| r.report.restores.to_string()),
    ("ondemand_checkpoints", NUMBER, |r| {
        r.report.ondemand_checkpoints.to_string()
    }),
    ("executed_ops", NUMBER, |r| {
        r.report.executed_ops.to_string()
    }),
    ("wasted_ops", NUMBER, |r| r.report.wasted_ops.to_string()),
    ("energy_nj", NUMBER, |r| {
        r.report.energy.nanojoules().to_string()
    }),
    ("active_seconds", NUMBER, |r| {
        r.report.active_seconds.to_string()
    }),
    ("dark_s", NUMBER, |r| r.report.charging_seconds.to_string()),
    ("wall_seconds", NUMBER, |r| {
        r.report.wall_seconds.to_string()
    }),
];

/// RFC-4180-style CSV field escape: fields containing a comma, quote
/// or line break are quoted with inner quotes doubled (user-named
/// replay environments can contain anything).
fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Minimal JSON string escape (our names are plain ASCII, but quotes
/// and backslashes must never corrupt the stream).
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Streams one JSON object per run to a writer, rows in (matrix, run)
/// order. Retains only the rows of scenarios still in flight; the
/// stream itself is the output.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    rows: u64,
}

impl<W: Write> JsonlSink<W> {
    /// A sink streaming JSONL rows into `writer`.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, rows: 0 }
    }
}

impl<W: Write> MetricsSink for JsonlSink<W> {
    /// One pre-rendered row per run.
    type Partial = Vec<String>;
    /// The writer (handed back) and the number of rows written.
    type Report = (W, u64);

    fn open(&self, _scenario: &Scenario, _accuracy: f64) -> Vec<String> {
        Vec::new()
    }

    fn fold(partial: &mut Vec<String>, record: &RunRecord<'_>) {
        let mut row = String::with_capacity(256);
        row.push('{');
        for (i, (name, text, value)) in COLUMNS.iter().enumerate() {
            if i > 0 {
                row.push(',');
            }
            row.push('"');
            row.push_str(name);
            row.push_str("\":");
            let value = value(record);
            if value.is_empty() {
                row.push_str("null");
            } else if *text {
                row.push('"');
                row.push_str(&json_escape(&value));
                row.push('"');
            } else {
                row.push_str(&value);
            }
        }
        row.push('}');
        partial.push(row);
    }

    fn merge(&mut self, partial: Vec<String>) -> Result<(), Error> {
        for row in partial {
            self.writer.write_all(row.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.rows += 1;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(W, u64), Error> {
        self.writer.flush()?;
        Ok((self.writer, self.rows))
    }
}

/// Streams one CSV row per run to a writer (header first), rows in
/// (matrix, run) order.
#[derive(Debug)]
pub struct CsvSink<W: Write> {
    writer: W,
    rows: u64,
    wrote_header: bool,
}

impl<W: Write> CsvSink<W> {
    /// A sink streaming CSV rows into `writer`.
    pub fn new(writer: W) -> Self {
        CsvSink {
            writer,
            rows: 0,
            wrote_header: false,
        }
    }

    fn write_header(&mut self) -> Result<(), Error> {
        if !self.wrote_header {
            self.wrote_header = true;
            let header: Vec<&str> = COLUMNS.iter().map(|c| c.0).collect();
            self.writer.write_all(header.join(",").as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        Ok(())
    }
}

impl<W: Write> MetricsSink for CsvSink<W> {
    /// One pre-rendered row per run.
    type Partial = Vec<String>;
    /// The writer (handed back) and the number of data rows written.
    type Report = (W, u64);

    fn open(&self, _scenario: &Scenario, _accuracy: f64) -> Vec<String> {
        Vec::new()
    }

    fn fold(partial: &mut Vec<String>, record: &RunRecord<'_>) {
        let mut row = String::with_capacity(192);
        for (i, (_, _, value)) in COLUMNS.iter().enumerate() {
            if i > 0 {
                row.push(',');
            }
            row.push_str(&csv_escape(&value(record)));
        }
        partial.push(row);
    }

    fn merge(&mut self, partial: Vec<String>) -> Result<(), Error> {
        self.write_header()?;
        for row in partial {
            self.writer.write_all(row.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.rows += 1;
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(W, u64), Error> {
        self.write_header()?;
        self.writer.flush()?;
        Ok((self.writer, self.rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioMatrix;
    use ehdl::device::{Cycles, Energy, EnergyMeter};

    fn fake_report(outcome: RunOutcome, wall_seconds: f64) -> RunReport {
        RunReport {
            outcome,
            outages: 2,
            ondemand_checkpoints: 1,
            restores: 2,
            executed_ops: 100,
            wasted_ops: 10,
            active_cycles: Cycles::new(1_000),
            active_seconds: 0.01,
            charging_seconds: 0.02,
            wall_seconds,
            energy: Energy::from_nanojoules(5_000.0),
            checkpoint_energy: Energy::from_nanojoules(100.0),
            meter: EnergyMeter::new(),
            faults: FaultTally::default(),
            integrity: IntegrityTally::default(),
        }
    }

    /// Feeds the same two-scenario, two-run stream through any sink.
    fn drive<S: MetricsSink>(mut sink: S) -> S::Report {
        let scenarios = ScenarioMatrix::new().scenarios(); // 4 envs × FLEX
        for scenario in scenarios.iter().take(2) {
            let mut partial = sink.open(scenario, 0.75);
            for run in 0..2u32 {
                let outcome = if run == 0 {
                    RunOutcome::Completed
                } else {
                    RunOutcome::EnergyLimit
                };
                let report = fake_report(outcome, 0.1 * f64::from(run + 1));
                let record = RunRecord {
                    scenario,
                    run,
                    accuracy: 0.75,
                    report: &report,
                };
                S::fold(&mut partial, &record);
            }
            sink.merge(partial).unwrap();
        }
        sink.finish().unwrap()
    }

    #[test]
    fn full_report_sink_rebuilds_scenario_reports() {
        let report = drive(FullReportSink::new());
        assert_eq!(report.len(), 2);
        let s = &report.scenarios[0];
        assert_eq!(s.runs, 2);
        assert_eq!(s.completed_runs, 1);
        assert_eq!(s.energy_limited_runs, 1);
        assert_eq!(s.outages, 4);
        assert_eq!(s.latencies_ms, vec![100.0]);
        assert_eq!(s.environment, "bench_supply");
        assert_eq!(report.scenarios[1].environment, "office_rf");
    }

    #[test]
    fn digest_sink_folds_to_fixed_size_state() {
        let digest = drive(DigestSink::new());
        assert_eq!(digest.scenarios, 2);
        assert_eq!(digest.runs, 4);
        assert_eq!(digest.completed_runs, 2);
        assert_eq!(digest.energy_limited_runs, 2);
        assert_eq!(digest.outages, 8);
        assert_eq!(digest.latency_ms.count(), 2);
        assert_eq!(digest.accuracy.mean(), Some(0.75));
        // Every run contributes a dark-time sample, completed or not.
        assert_eq!(digest.dark_s.count(), 4);
        assert_eq!(digest.dark_s.mean(), Some(0.02));
        assert!((digest.charging_seconds - 0.08).abs() < 1e-12);
        assert!((digest.total_energy_mj() - 20_000.0 * 1e-6).abs() < 1e-12);
        let text = digest.to_string();
        assert!(text.contains("2 energy-limit"), "{text}");
    }

    #[test]
    fn fleet_digests_merge() {
        let a = drive(DigestSink::new());
        let b = drive(DigestSink::new());
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.scenarios, 4);
        assert_eq!(merged.runs, 8);
        assert_eq!(merged.latency_ms.count(), 4);
        assert_eq!(merged.dark_s.count(), 8);
        // Merging an empty digest is the identity.
        let mut copy = a.clone();
        copy.merge(&FleetDigest::new());
        assert_eq!(copy, a);
    }

    #[test]
    fn group_by_sink_groups_in_first_appearance_order() {
        // Two scenarios differ in environment → two environment groups,
        // but a single strategy group.
        let by_env = drive(GroupBySink::new(GroupAxis::Environment));
        assert_eq!(by_env.groups.len(), 2);
        assert_eq!(by_env.groups[0].0, "bench_supply");
        assert_eq!(by_env.groups[1].0, "office_rf");
        assert_eq!(by_env.get("bench_supply").unwrap().runs, 2);
        assert!(by_env.get("missing").is_none());

        let by_strategy = drive(GroupBySink::new(GroupAxis::Strategy));
        assert_eq!(by_strategy.groups.len(), 1);
        assert_eq!(by_strategy.groups[0].1.runs, 4);
        let text = by_strategy.to_string();
        assert!(text.contains("strategy"), "{text}");
    }

    #[test]
    fn jsonl_sink_streams_one_object_per_run() {
        let (bytes, rows) = drive(JsonlSink::new(Vec::new()));
        assert_eq!(rows, 4);
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('{') && lines[0].ends_with('}'));
        assert!(lines[0].contains("\"outcome\":\"completed\""));
        assert!(lines[1].contains("\"outcome\":\"energy_limit\""));
        // Aborted runs have no latency.
        assert!(lines[1].contains("\"latency_ms\":null"));
        assert!(lines[0].contains("\"latency_ms\":100"));
        assert!(lines[0].contains("\"environment\":\"bench_supply\""));
    }

    #[test]
    fn csv_sink_writes_header_and_rows() {
        let (bytes, rows) = drive(CsvSink::new(Vec::new()));
        assert_eq!(rows, 4);
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("scenario,workload,environment"));
        assert_eq!(lines[1].split(',').count(), COLUMNS.len());
        // Empty latency field for the aborted run.
        assert!(lines[2].contains(",energy_limit,"));
        // An empty sweep still produces the header.
        let empty: CsvSink<Vec<u8>> = CsvSink::new(Vec::new());
        let (bytes, rows) = empty.finish().unwrap();
        assert_eq!(rows, 0);
        assert!(String::from_utf8(bytes).unwrap().starts_with("scenario,"));
    }

    #[test]
    fn paired_sinks_fold_side_by_side() {
        let (digest, (bytes, rows)) = drive((DigestSink::new(), JsonlSink::new(Vec::new())));
        assert_eq!(digest.runs, 4);
        assert_eq!(rows, 4);
        assert!(!bytes.is_empty());
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }

    #[test]
    fn csv_escape_quotes_hostile_fields() {
        assert_eq!(csv_escape("bench_supply"), "bench_supply");
        assert_eq!(csv_escape("lab, day 2"), "\"lab, day 2\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("a\nb"), "\"a\nb\"");
    }

    #[test]
    fn csv_rows_survive_comma_bearing_environment_names() {
        let env = ehdl::ehsim::catalog::replay("lab, day 2", vec![(0.1, 0.002)]).unwrap();
        let scenarios = ScenarioMatrix::new().environments(vec![env]).scenarios();
        let sink = CsvSink::new(Vec::new());
        let mut partial = sink.open(&scenarios[0], 0.5);
        let report = fake_report(RunOutcome::Completed, 0.1);
        let record = RunRecord {
            scenario: &scenarios[0],
            run: 0,
            accuracy: 0.5,
            report: &report,
        };
        CsvSink::<Vec<u8>>::fold(&mut partial, &record);
        // The quoted field keeps the column count intact.
        let row = &partial[0];
        assert!(row.contains("\"lab, day 2\""), "{row}");
        let mut fields = 0usize;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields + 1, COLUMNS.len());
    }

    #[test]
    fn csv_columns_pin_the_row_schema() {
        // The column table is the schema's one declaration: pin its
        // names (the CSV header) and its JSON string-typing.
        let names: Vec<&str> = COLUMNS.iter().map(|c| c.0).collect();
        assert_eq!(
            names.join(","),
            "scenario,workload,environment,strategy,board,seed,energy_budget_nj,fault,topology,\
             integrity,run,outcome,accuracy,latency_ms,outages,restores,ondemand_checkpoints,\
             executed_ops,wasted_ops,energy_nj,active_seconds,dark_s,wall_seconds"
        );
        let string_typed: Vec<&str> = COLUMNS.iter().filter(|c| c.1).map(|c| c.0).collect();
        assert_eq!(
            string_typed.join(","),
            "workload,environment,strategy,board,fault,topology,integrity,outcome"
        );
    }

    #[test]
    fn resilience_tally_folds_faulted_runs_into_the_digest() {
        let scenarios = ScenarioMatrix::new().scenarios();
        let sink = DigestSink::new();
        let mut partial = sink.open(&scenarios[0], 0.9);
        // One recovered faulted run, one clean run, one faulted failure.
        let mut recovered = fake_report(RunOutcome::Completed, 0.1);
        recovered.faults = FaultTally {
            spurious_resets: 2,
            torn_commits: 1,
            sag_ops: 5,
            corrupt_restores: 1,
            detected_corruptions: 1,
            silent_corruptions: 0,
            cold_boots: 1,
        };
        let clean = fake_report(RunOutcome::Completed, 0.1);
        let mut lost = fake_report(RunOutcome::NoProgress, 0.1);
        lost.faults.spurious_resets = 7;
        for (run, report) in [&recovered, &clean, &lost].into_iter().enumerate() {
            let record = RunRecord {
                scenario: &scenarios[0],
                run: run as u32,
                accuracy: 0.9,
                report,
            };
            DigestSink::fold(&mut partial, &record);
        }
        let mut sink = sink;
        sink.merge(partial).unwrap();
        let digest = sink.finish().unwrap();
        let r = digest.resilience;
        assert_eq!(r.faulted_runs, 2);
        assert_eq!(r.recovered_runs, 1);
        assert_eq!(r.spurious_resets, 9);
        assert_eq!(r.torn_commits, 1);
        assert_eq!(r.sag_ops, 5);
        assert_eq!(r.corrupt_restores, 1);
        assert_eq!(r.cold_boots, 1);
        assert_eq!(r.detected_corruptions, 1);
        assert_eq!(r.silent_corruptions, 0);
        assert!((r.recovery_rate() - 0.5).abs() < 1e-12);
        let text = digest.to_string();
        assert!(text.contains("resilience: 1/2 faulted runs"), "{text}");
        // Merging sums the tallies.
        let mut doubled = digest.clone();
        doubled.merge(&digest);
        assert_eq!(doubled.resilience.faulted_runs, 4);
        assert_eq!(doubled.resilience.spurious_resets, 18);
    }

    #[test]
    fn fault_free_digest_report_omits_the_resilience_line() {
        let digest = drive(DigestSink::new());
        assert_eq!(digest.resilience, ResilienceTally::default());
        assert_eq!(digest.resilience.recovery_rate(), 1.0);
        assert!(!digest.to_string().contains("resilience:"));
    }

    #[test]
    fn slo_tally_folds_gateway_outcomes_into_the_digest() {
        let scenarios = ScenarioMatrix::new().scenarios();
        let sink = DigestSink::new();
        let mut partial = sink.open(&scenarios[0], 0.9);
        let outcome = SloOutcome {
            devices: 4,
            polls: 10,
            served: 7,
            missed_asleep: 2,
            missed_stale: 1,
            starved_devices: 1,
            staleness_s: vec![0.5, 1.0, 1.5, 0.5, 2.0, 1.0, 0.5],
        };
        DigestSink::fold_slo(&mut partial, &outcome);
        let mut sink = sink;
        sink.merge(partial).unwrap();
        let digest = sink.finish().unwrap();
        let s = &digest.slo;
        assert_eq!(s.worlds, 1);
        assert_eq!(s.devices, 4);
        assert_eq!(s.polls, 10);
        assert_eq!(s.served, 7);
        assert_eq!(s.missed_asleep, 2);
        assert_eq!(s.missed_stale, 1);
        assert_eq!(s.starved_devices, 1);
        assert_eq!(s.staleness_s.count(), 7);
        assert!((s.served_fraction() - 0.7).abs() < 1e-12);
        let text = digest.to_string();
        assert!(text.contains("gateway: 7/10 polls served"), "{text}");
        // Merging sums counters and merges the staleness sketch.
        let mut doubled = digest.clone();
        doubled.merge(&digest);
        assert_eq!(doubled.slo.polls, 20);
        assert_eq!(doubled.slo.staleness_s.count(), 14);
        // The extra sketch stays inside the O(1) memory accounting.
        assert!(digest.memory_bytes() >= digest.slo.staleness_s.memory_bytes());
    }

    #[test]
    fn solo_digest_report_omits_the_gateway_line() {
        let digest = drive(DigestSink::new());
        assert_eq!(digest.slo, SloTally::default());
        assert_eq!(digest.slo.served_fraction(), 0.0);
        assert!(!digest.to_string().contains("gateway:"));
    }

    #[test]
    fn topology_axis_groups_by_topology_label() {
        use ehdl_netsim::NetworkTopology;
        let scenarios = ScenarioMatrix::new()
            .topologies(vec![
                NetworkTopology::solo(),
                NetworkTopology::line(4, 1.0, 0.5),
            ])
            .scenarios();
        let mut sink = GroupBySink::new(GroupAxis::Topology);
        for scenario in &scenarios {
            let partial = sink.open(scenario, 0.5);
            sink.merge(partial).unwrap();
        }
        let grouped = sink.finish().unwrap();
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].0, "solo");
        assert!(grouped.groups[1].0.starts_with("n4:"));
        assert_eq!(GroupAxis::Topology.name(), "topology");
        assert_eq!(GroupAxis::parse("topology"), Some(GroupAxis::Topology));
    }

    #[test]
    fn collapsed_latency_tail_warns_in_the_rendered_report() {
        let mut digest = FleetDigest::new();
        // 85 spread samples + a tail clustered tighter than one ~4.08%
        // histogram bin → p90 and p99 share a bin.
        for i in 0..85 {
            digest.latency_ms.record(1.0 + f64::from(i));
        }
        for i in 0..15 {
            digest
                .latency_ms
                .record(6700.0 * (1.0 + 1e-3 * f64::from(i)));
        }
        assert!(digest.latency_fidelity().tail_collapsed());
        let text = digest.to_string();
        assert!(text.contains("warning: latency p90 and p99"), "{text}");
        // A tail spread across bins stays silent.
        let mut healthy = FleetDigest::new();
        for i in 0..100 {
            healthy.latency_ms.record(1.0 + 2.0 * f64::from(i));
        }
        assert!(!healthy.latency_fidelity().tail_collapsed());
        assert!(!healthy.to_string().contains("warning:"));
    }

    #[test]
    fn integrity_tally_folds_into_the_digest_and_renders() {
        let scenarios = ScenarioMatrix::new().scenarios();
        let sink = DigestSink::new();
        let mut partial = sink.open(&scenarios[0], 0.9);
        let mut flipped = fake_report(RunOutcome::Completed, 0.1);
        flipped.integrity = IntegrityTally {
            flips_injected: 4,
            flips_repaired: 1,
            flips_detected: 2,
            silent_restores: 0,
            wear_max_commits: 120,
            ladder: [3, 1, 2, 0],
        };
        let mut worn = fake_report(RunOutcome::Completed, 0.1);
        worn.integrity.wear_max_commits = 80;
        worn.integrity.ladder = [2, 0, 0, 0];
        for (run, report) in [&flipped, &worn].into_iter().enumerate() {
            let record = RunRecord {
                scenario: &scenarios[0],
                run: run as u32,
                accuracy: 0.9,
                report,
            };
            DigestSink::fold(&mut partial, &record);
        }
        let mut sink = sink;
        sink.merge(partial).unwrap();
        let digest = sink.finish().unwrap();
        let i = digest.integrity;
        assert_eq!(i.flips_injected, 4);
        assert_eq!(i.flips_repaired, 1);
        assert_eq!(i.flips_detected, 2);
        assert_eq!(i.wear_max_commits, 120, "wear folds by max");
        assert_eq!(i.ladder, [5, 1, 2, 0]);
        let text = digest.to_string();
        assert!(text.contains("integrity: 4 flips injected"), "{text}");
        // An integrity-free digest omits the line entirely.
        let clean = drive(DigestSink::new());
        assert!(clean.integrity.is_empty());
        assert!(!clean.to_string().contains("integrity:"));
    }

    #[test]
    fn tallies_merge_counters_and_max_wear() {
        let mut a = IntegrityTally {
            flips_injected: 3,
            flips_repaired: 1,
            flips_detected: 1,
            silent_restores: 0,
            wear_max_commits: 40,
            ladder: [5, 1, 1, 0],
        };
        let b = IntegrityTally {
            flips_injected: 2,
            flips_repaired: 0,
            flips_detected: 1,
            silent_restores: 2,
            wear_max_commits: 25,
            ladder: [2, 0, 1, 1],
        };
        a.merge(&b);
        assert_eq!(a.flips_injected, 5);
        assert_eq!(a.silent_restores, 2);
        assert_eq!(a.wear_max_commits, 40, "wear merges by max, not sum");
        assert_eq!(a.ladder, [7, 1, 2, 1]);
        assert_eq!(a.restores_resolved(), 11);
        assert!(!a.is_empty());
        assert!(IntegrityTally::default().is_empty());
    }

    #[test]
    fn group_axes_index_shard_labels_in_declaration_order() {
        for (i, axis) in GroupAxis::ALL.into_iter().enumerate() {
            assert_eq!(axis as usize, i, "{}", axis.name());
            assert_eq!(GroupAxis::parse(axis.name()), Some(axis));
        }
    }

    #[test]
    fn integrity_axis_groups_by_scheme_label() {
        use ehdl::ehsim::Integrity;
        let scenarios = ScenarioMatrix::new()
            .integrities(vec![Integrity::None, Integrity::Secded])
            .scenarios();
        let mut sink = GroupBySink::new(GroupAxis::Integrity);
        for scenario in &scenarios {
            let partial = sink.open(scenario, 0.5);
            sink.merge(partial).unwrap();
        }
        let grouped = sink.finish().unwrap();
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].0, "none");
        assert_eq!(grouped.groups[1].0, "secded");
        assert_eq!(GroupAxis::Integrity.name(), "integrity");
        assert_eq!(GroupAxis::parse("integrity"), Some(GroupAxis::Integrity));
    }

    #[test]
    fn collapsed_staleness_tail_warns_in_the_rendered_report() {
        let mut digest = FleetDigest::new();
        digest.slo.polls = 100;
        digest.slo.served = 100;
        // 85 spread samples + a tail clustered tighter than one bin.
        for i in 0..85 {
            digest.slo.staleness_s.record(1.0 + f64::from(i));
        }
        for i in 0..15 {
            digest
                .slo
                .staleness_s
                .record(6700.0 * (1.0 + 1e-3 * f64::from(i)));
        }
        assert!(digest.staleness_fidelity().tail_collapsed());
        let text = digest.to_string();
        assert!(text.contains("warning: staleness p90 and p99"), "{text}");
        // A healthy staleness spread stays silent.
        let mut healthy = FleetDigest::new();
        healthy.slo.polls = 100;
        for i in 0..100 {
            healthy.slo.staleness_s.record(1.0 + 2.0 * f64::from(i));
        }
        assert!(!healthy.to_string().contains("warning: staleness"));
        // No polls → no warning even if the sketch were somehow fed.
        assert!(!FleetDigest::new().to_string().contains("warning:"));
    }

    #[test]
    fn fault_axis_groups_by_fault_label() {
        use crate::FaultSpec;
        let noisy = FaultSpec {
            seed: 9,
            reset_per_op: 0.001,
            ..FaultSpec::none()
        };
        let scenarios = ScenarioMatrix::new()
            .faults(vec![FaultSpec::none(), noisy])
            .scenarios();
        let mut sink = GroupBySink::new(GroupAxis::Fault);
        for scenario in &scenarios {
            let partial = sink.open(scenario, 0.5);
            sink.merge(partial).unwrap();
        }
        let grouped = sink.finish().unwrap();
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].0, "none");
        assert!(grouped.groups[1].0.starts_with("f9:"));
        assert_eq!(GroupAxis::Fault.name(), "fault");
        assert_eq!(GroupAxis::parse("fault"), Some(GroupAxis::Fault));
    }
}
