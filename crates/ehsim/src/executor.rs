//! The intermittent executor: programs vs. the capacitor.

use crate::fault::{FaultKind, FaultPlan, FaultState, FaultTally, OpFault};
use crate::harvester::{HarvestCursor, Harvester};
use crate::integrity::{self, Integrity, IntegrityState, IntegrityTally, WearCurve};
use crate::plan::{ExecutionPlan, PlanIdentity};
use crate::probe::{ExecEvent, ExecPhase, ExecProbe, NullProbe, SpanTimer};
use crate::program::Program;
use crate::{Capacitor, PowerSupply};
use core::fmt;
use ehdl_device::{Board, Component, Cycles, DeviceOp, Energy, EnergyMeter};

/// Tunables for an intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutorConfig {
    /// Give up after this many power failures.
    pub max_outages: u64,
    /// Give up after this many consecutive outages with no committed
    /// progress — how BASE and bare ACE earn their "✗" in Figure 7(b).
    pub stall_outages: u64,
    /// `None` (the default): dark recharge phases are fast-forwarded
    /// analytically — the wake time is solved in closed form from
    /// [`Capacitor::joules_to_boot`] and
    /// [`Harvester::time_to_energy_within`], so an outage costs
    /// O(waveform segments crossed) regardless of how long the device
    /// stays dark. `Some(step)`: the legacy quantized integrator — the
    /// dark phase advances in fixed `step`-second increments and the
    /// device wakes at the first step boundary where the capacitor can
    /// boot (retained for reproducing pre-solver trajectories and as
    /// the property-test oracle for the solver).
    pub charge_step_s: Option<f64>,
    /// Hard cap on simulated wall-clock time.
    pub max_wall_seconds: f64,
    /// Per-run energy budget in nanojoules: the run aborts with
    /// [`RunOutcome::EnergyLimit`] once the energy drawn from the
    /// capacitor (ops, checkpoints and restores) exceeds this, the way
    /// a deployment scored against a joule budget would be cut off.
    /// `None` (the default) disables the budget. The check sits next to
    /// the wall-clock check — before each op attempt — so the budget
    /// can be overshot by whatever one loop iteration spends after the
    /// last check (up to an on-demand checkpoint plus the op that
    /// crossed it, or a post-outage restore), and a run whose final op
    /// tips over still counts as completed.
    pub energy_budget_nj: Option<f64>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            max_outages: 1_000_000,
            stall_outages: 50,
            charge_step_s: None,
            max_wall_seconds: 7200.0,
            energy_budget_nj: None,
        }
    }
}

impl ExecutorConfig {
    /// Checks the tunables for values that would hang or never trigger:
    /// a non-finite or non-positive legacy `charge_step_s` (the stepped
    /// dark loop would stall in place), a non-finite or non-positive
    /// `max_wall_seconds` (a NaN limit disables the wall clock
    /// entirely), and `stall_outages == 0` (every first outage would be
    /// declared a stall). A negative or non-finite `energy_budget_nj`
    /// is rejected for the same reason.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecutorConfigError`] found, in field order.
    pub fn validate(&self) -> Result<(), ExecutorConfigError> {
        if self.stall_outages == 0 {
            return Err(ExecutorConfigError::ZeroStallOutages);
        }
        if let Some(step) = self.charge_step_s {
            if !(step > 0.0 && step.is_finite()) {
                return Err(ExecutorConfigError::BadChargeStep(step));
            }
        }
        if !(self.max_wall_seconds > 0.0 && self.max_wall_seconds.is_finite()) {
            return Err(ExecutorConfigError::BadWallLimit(self.max_wall_seconds));
        }
        if let Some(budget) = self.energy_budget_nj {
            if !(budget >= 0.0 && budget.is_finite()) {
                return Err(ExecutorConfigError::BadEnergyBudget(budget));
            }
        }
        Ok(())
    }
}

/// An [`ExecutorConfig`] that would hang the simulation or misfire its
/// limits, rejected when an executor is constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ExecutorConfigError {
    /// `stall_outages` is zero: every first outage would count as a
    /// stall and abort the run as `NoProgress`.
    ZeroStallOutages,
    /// The legacy `charge_step_s` is non-positive or not finite: the
    /// stepped dark loop would never advance time.
    BadChargeStep(f64),
    /// `max_wall_seconds` is non-positive or not finite: a NaN or
    /// infinite limit silently disables the wall clock.
    BadWallLimit(f64),
    /// `energy_budget_nj` is negative or not finite.
    BadEnergyBudget(f64),
}

impl fmt::Display for ExecutorConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutorConfigError::ZeroStallOutages => {
                write!(f, "stall_outages must be at least 1")
            }
            ExecutorConfigError::BadChargeStep(step) => {
                write!(f, "charge_step_s must be positive and finite, got {step}")
            }
            ExecutorConfigError::BadWallLimit(limit) => write!(
                f,
                "max_wall_seconds must be positive and finite, got {limit}"
            ),
            ExecutorConfigError::BadEnergyBudget(budget) => write!(
                f,
                "energy_budget_nj must be non-negative and finite, got {budget}"
            ),
        }
    }
}

impl std::error::Error for ExecutorConfigError {}

/// A [`RunTrace`] replayed against a plan other than the one it was
/// recorded from: the recorded report describes a run of that plan, so
/// merging it would book the wrong run. Returned by
/// [`IntermittentExecutor::try_replay_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The plans differ in op or on-demand checkpoint count.
    Shape {
        /// (op count, on-demand checkpoint count) of the recording plan.
        recorded: (usize, usize),
        /// (op count, on-demand checkpoint count) of the replaying plan.
        plan: (usize, usize),
    },
    /// The plans have one shape but are priced differently: another
    /// integrity scheme, clock, op kind cost, checkpoint or restore
    /// cost.
    Pricing {
        /// Pricing hash of the recording plan.
        recorded: u64,
        /// Pricing hash of the replaying plan.
        plan: u64,
    },
}

impl ReplayError {
    /// Why a trace recorded from a plan of identity `recorded` cannot
    /// replay against a plan of identity `plan`, if it cannot.
    fn check(recorded: PlanIdentity, plan: PlanIdentity) -> Result<(), ReplayError> {
        let shape = |id: PlanIdentity| (id.ops, id.checkpoints);
        if shape(recorded) != shape(plan) {
            Err(ReplayError::Shape {
                recorded: shape(recorded),
                plan: shape(plan),
            })
        } else if recorded.pricing != plan.pricing {
            Err(ReplayError::Pricing {
                recorded: recorded.pricing,
                plan: plan.pricing,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Shape { recorded, plan } => write!(
                f,
                "trace was recorded from a differently shaped plan \
                 ({} ops / {} checkpoints, replaying against {} / {})",
                recorded.0, recorded.1, plan.0, plan.1
            ),
            ReplayError::Pricing { recorded, plan } => write!(
                f,
                "trace was recorded from a differently priced plan \
                 (pricing {recorded:016x}, replaying against {plan:016x})"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// All ops executed.
    Completed,
    /// Consecutive outages without progress — the inference can never
    /// finish under this supply (insufficient per-discharge energy for
    /// the distance between commit points).
    NoProgress,
    /// The outage budget was exhausted.
    OutageLimit,
    /// The simulated time budget was exhausted.
    TimeLimit,
    /// The per-run energy budget
    /// ([`ExecutorConfig::energy_budget_nj`]) was exhausted.
    EnergyLimit,
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Completed`].
    pub fn is_completed(self) -> bool {
        self == RunOutcome::Completed
    }

    /// A stable snake_case token for machine-readable streams (the
    /// `Display` form is for humans and may carry decoration).
    pub fn label(self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::NoProgress => "no_progress",
            RunOutcome::OutageLimit => "outage_limit",
            RunOutcome::TimeLimit => "time_limit",
            RunOutcome::EnergyLimit => "energy_limit",
        }
    }
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunOutcome::Completed => "completed",
            RunOutcome::NoProgress => "no progress (✗)",
            RunOutcome::OutageLimit => "outage limit",
            RunOutcome::TimeLimit => "time limit",
            RunOutcome::EnergyLimit => "energy limit",
        })
    }
}

/// Everything measured during one intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Why the run ended.
    pub outcome: RunOutcome,
    /// Number of power failures.
    pub outages: u64,
    /// On-demand (voltage-triggered) checkpoints taken.
    pub ondemand_checkpoints: u64,
    /// Restores performed after outages.
    pub restores: u64,
    /// Ops executed, including re-execution after rollbacks.
    pub executed_ops: u64,
    /// Ops whose work was lost to rollbacks (re-executed later).
    pub wasted_ops: u64,
    /// Cycles spent computing (excludes charging) — Figure 7(b)'s metric.
    pub active_cycles: Cycles,
    /// Seconds spent computing.
    pub active_seconds: f64,
    /// Seconds spent dark, waiting for the capacitor.
    pub charging_seconds: f64,
    /// Total simulated wall-clock seconds.
    pub wall_seconds: f64,
    /// Total energy drawn from the capacitor.
    pub energy: Energy,
    /// Energy attributed to checkpoint/restore traffic (§IV-A.5).
    pub checkpoint_energy: Energy,
    /// Full per-component breakdown.
    pub meter: EnergyMeter,
    /// Injected-fault accounting — all zeros unless the run drew from an
    /// enabled [`FaultPlan`](crate::FaultPlan) (see [`RunOptions`]).
    pub faults: FaultTally,
    /// Checkpoint payload integrity accounting (bit flips, repairs,
    /// recovery-ladder depths) — all zeros unless the run drew from a
    /// fault plan with bit-flips armed or ran a non-`None` [`Integrity`]
    /// scheme.
    pub integrity: IntegrityTally,
}

impl RunReport {
    /// `true` if the inference finished.
    pub fn completed(&self) -> bool {
        self.outcome.is_completed()
    }

    /// End-to-end latency in milliseconds for a **completed** run, else
    /// `None` — the value latency aggregations fold (aborted runs have a
    /// wall-clock but no meaningful inference latency).
    pub fn latency_ms(&self) -> Option<f64> {
        self.completed().then_some(self.wall_seconds * 1e3)
    }

    /// Checkpoint overhead as a fraction of total energy.
    pub fn checkpoint_overhead(&self) -> f64 {
        if self.energy.nanojoules() == 0.0 {
            0.0
        } else {
            self.checkpoint_energy.nanojoules() / self.energy.nanojoules()
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} outages, {} ondemand ckpts, active {:.2} ms, charging {:.2} ms, {}",
            self.outcome,
            self.outages,
            self.ondemand_checkpoints,
            self.active_seconds * 1e3,
            self.charging_seconds * 1e3,
            self.energy
        )
    }
}

/// The optional inputs of one intermittent run: the [`FaultPlan`] the
/// executor draws from and the [`ExecProbe`] observing it.
///
/// [`RunOptions::default`] is the plain run — [`FaultPlan::NONE`] and
/// [`NullProbe`], which monomorphizes to the unprobed loop. The probe is
/// held by value; pass it as `&mut probe` to read it after the run:
/// `RunOptions::default().fault(&storm).probe(&mut ring)`.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a, P: ExecProbe = NullProbe> {
    fault: &'a FaultPlan,
    probe: P,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            fault: &FaultPlan::NONE,
            probe: NullProbe,
        }
    }
}

impl<'a, P: ExecProbe> RunOptions<'a, P> {
    /// Runs under `fault`: the executor consults its seeded decision
    /// stream at every op attempt (spurious reset / voltage sag), every
    /// successful commit (torn write, payload bit flips) and every
    /// restore (slot corruption), tallying injections into
    /// [`RunReport::faults`] and [`RunReport::integrity`] and emitting
    /// [`ExecEvent::FaultInjected`] / [`ExecEvent::CorruptionDetected`].
    /// With [`FaultPlan::NONE`] the run is bit-identical to the unfaulted
    /// one.
    pub fn fault<'b>(self, fault: &'b FaultPlan) -> RunOptions<'b, P> {
        RunOptions {
            fault,
            probe: self.probe,
        }
    }

    /// Attaches `probe`: it receives sim-time-stamped [`ExecEvent`]s
    /// (boots, brown-outs, commits, dark skips, run end) and — if it is
    /// [`TIMED`](ExecProbe::TIMED) — wall-clock spans for the charge
    /// solver and checkpoint/restore phases. Probes observe only: the
    /// report, board and supply are bit-identical whatever the probe
    /// does.
    pub fn probe<Q: ExecProbe>(self, probe: Q) -> RunOptions<'a, Q> {
        RunOptions {
            fault: self.fault,
            probe,
        }
    }
}

/// Replays [`Program`]s against a [`PowerSupply`].
///
/// # Example
///
/// ```
/// use ehdl_device::{Board, DeviceOp};
/// use ehdl_ehsim::{
///     Capacitor, CheckpointSpec, ExecutorConfig, Harvester, IntermittentExecutor,
///     PowerSupply, Program,
/// };
///
/// let mut program = Program::new("tiny");
/// for _ in 0..100 {
///     program.push(DeviceOp::CpuOps { count: 1000 }, CheckpointSpec::COMMIT);
/// }
/// let mut board = Board::msp430fr5994();
/// let mut supply = PowerSupply::new(
///     Harvester::constant(0.002),
///     Capacitor::paper_100uf(),
/// );
/// let report = IntermittentExecutor::new(ExecutorConfig::default())
///     .run(&program, &mut board, &mut supply);
/// assert!(report.completed());
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntermittentExecutor {
    config: ExecutorConfig,
}

impl IntermittentExecutor {
    /// Creates an executor with the given tunables.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ExecutorConfig::validate`]); use [`try_new`](Self::try_new) to
    /// handle the error instead.
    pub fn new(config: ExecutorConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid executor config: {e}"))
    }

    /// Creates an executor, rejecting configurations that would hang
    /// the simulation or misfire its limits.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecutorConfigError`] of
    /// [`ExecutorConfig::validate`].
    pub fn try_new(config: ExecutorConfig) -> Result<Self, ExecutorConfigError> {
        config.validate()?;
        Ok(IntermittentExecutor { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs `program` on `board` powered by `supply`.
    ///
    /// Compiles a throwaway [`ExecutionPlan`] and replays it — identical
    /// results to the op-by-op interpreter, priced once up front. Callers
    /// replaying the same program many times should compile the plan
    /// themselves (or hold a `DeviceSession`, which does) and call
    /// [`run_plan`](Self::run_plan) to amortize the pricing pass.
    ///
    /// The report meters this run alone; the board's meter and clock
    /// keep accumulating across calls (use [`Board::reset_clock`] to
    /// zero them).
    pub fn run(&self, program: &Program, board: &mut Board, supply: &mut PowerSupply) -> RunReport {
        let plan = ExecutionPlan::compile(program.clone(), board);
        self.run_plan(&plan, board, supply)
    }

    /// [`run_plan_with`](Self::run_plan_with) under the default
    /// [`RunOptions`]: no faults, no probe.
    pub fn run_plan(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
    ) -> RunReport {
        self.run_plan_with(plan, board, supply, RunOptions::default())
    }

    /// [`run_plan_with`](Self::run_plan_with) under `fault` alone.
    pub fn run_plan_faulted(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> RunReport {
        self.run_plan_with(plan, board, supply, RunOptions::default().fault(fault))
    }

    /// Replays a compiled [`ExecutionPlan`] on `board` powered by
    /// `supply`, under `opts`' fault plan and probe.
    ///
    /// The inner loop loads one priced kind per op from the plan's kind
    /// table and touches the capacitor: no cost-table lookups, no
    /// `DeviceOp` dispatch, and runs of non-commit, non-ondemand ops
    /// execute in a coalesced segment loop with no per-op flag checks.
    /// Results are bit-identical to
    /// [`run_reference`](Self::run_reference) on the same inputs.
    ///
    /// The run meters itself from zero: the report's meter covers this
    /// run alone, and the board's meter ends as its earlier tallies
    /// merged with the report's.
    ///
    /// The plan must have been compiled against a board with the same
    /// cost table as `board` (checked against the clock in debug builds).
    pub fn run_plan_with<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> RunReport {
        let RunOptions { fault, mut probe } = opts;
        let probe = &mut probe;
        debug_assert_eq!(
            plan.clock_hz(),
            board.costs().clock_hz,
            "plan compiled for a different board clock"
        );
        let monitor = board.monitor();
        let n = plan.len();
        let max_wall = self.config.max_wall_seconds;
        let budget_nj = self.config.energy_budget_nj.unwrap_or(f64::INFINITY);

        // Bound once: the hot loop loads one kind per op from these.
        let kinds = plan.kinds();
        let op_kinds = &plan.op_kinds()[..n];

        let mut rs = RunState::new(
            self,
            fault,
            plan.integrity(),
            plan.restore_words(),
            plan.clock_hz(),
            board,
        );
        let mut t = 0.0f64;
        let mut i = 0usize;
        let mut executed = 0u64;
        let mut active_cycles = 0u64;
        let mut spent_nj = 0.0f64;

        let (harvester, capacitor) = supply.parts_mut();
        // Powered ops integrate through the burst-slot memo; the dark
        // phase solves against the harvester itself.
        let mut harvest = HarvestCursor::new(harvester);
        // The warn threshold as an energy, so the on-demand check never
        // derives a voltage.
        let warn_j = monitor.warn_energy_joules(capacitor.farads());

        let outcome = 'run: loop {
            if i >= n {
                break 'run RunOutcome::Completed;
            }
            if t > max_wall {
                break 'run RunOutcome::TimeLimit;
            }
            if spent_nj > budget_nj {
                break 'run RunOutcome::EnergyLimit;
            }

            // `failed` routes every loss-of-power exit (real or
            // injected) into the outage path; `spurious` marks an
            // injected reset, where the capacitor keeps its charge.
            let mut failed = false;
            let mut spurious = false;
            let seg_start = i;
            let kind = &kinds[op_kinds[i] as usize];

            // On-demand (voltage-triggered) checkpoint before op i.
            if let Some(slot) = kind.ondemand_slot() {
                let ck = &plan.checkpoints[slot as usize];
                if rs.committed < i && capacitor.energy_joules() < warn_j {
                    let span = SpanTimer::start::<P>();
                    let harvested = harvest.energy_over(t, ck.duration_s);
                    capacitor.charge_joules(harvested);
                    if capacitor.usable_joules() >= ck.need_j {
                        // The write happens (and is paid for) either way;
                        // a torn commit dies after the cost is sunk.
                        capacitor.drain_joules(ck.need_j);
                        board.apply_cost(Component::Checkpoint, ck.cost());
                        spent_nj += ck.energy_nj;
                        t += ck.duration_s;
                        active_cycles += ck.cycles;
                        executed += 1;
                        span.finish(probe, ExecPhase::CheckpointRestore);
                        failed = !rs.ondemand_commit(i, slot, t, probe);
                    } else {
                        span.finish(probe, ExecPhase::CheckpointRestore);
                        // Dies partway through; the previous checkpoint
                        // still stands. Fall through and let the op
                        // attempt trigger the outage path.
                        t += ck.duration_s;
                    }
                }
            }

            // Attempt op i, then stream through its trailing segment of
            // plain (non-commit, non-ondemand) ops without re-checking
            // flags.
            if !failed {
                let mut sagged = false;
                match rs.op_fault(t, probe) {
                    OpFault::Reset => {
                        // Power glitches before the op runs: time
                        // passes (and harvest keeps flowing), but no
                        // energy is drained and no work happens.
                        let dt = kind.cost.duration_s;
                        let harvested = harvest.energy_over(t, dt);
                        capacitor.charge_joules(harvested);
                        t += dt;
                        rs.spurious_reset(t, probe);
                        failed = true;
                        spurious = true;
                    }
                    OpFault::Sag => sagged = true,
                    OpFault::None => {}
                }
                if !failed {
                    let dt = kind.cost.duration_s;
                    let harvested = harvest.energy_over(t, dt);
                    capacitor.charge_joules(harvested);
                    // A sagged op draws `sag_factor` times its nominal
                    // energy from the capacitor; the board meter keeps
                    // the nominal cost (the silicon did the same work).
                    let need = if sagged {
                        kind.cost.need_j * fault.sag_factor()
                    } else {
                        kind.cost.need_j
                    };
                    if capacitor.usable_joules() < need {
                        t += dt;
                        failed = true;
                    } else {
                        capacitor.drain_joules(need);
                        board.apply_cost(kind.component, kind.cost.cost());
                        if sagged {
                            spent_nj += kind.cost.energy_nj * fault.sag_factor();
                        } else {
                            spent_nj += kind.cost.energy_nj;
                        }
                        t += dt;
                        active_cycles += kind.cost.cycles;
                        executed += 1;
                        if kind.commits {
                            rs.commit(i + 1, t, probe);
                        }
                        i += 1;

                        // ---- coalesced segment of plain ops ----
                        let end = plan.plain_run_end(i);
                        while i < end {
                            if t > max_wall {
                                break 'run RunOutcome::TimeLimit;
                            }
                            if spent_nj > budget_nj {
                                break 'run RunOutcome::EnergyLimit;
                            }
                            let kind = &kinds[op_kinds[i] as usize];
                            match rs.op_fault(t, probe) {
                                OpFault::Reset => {
                                    let dt = kind.cost.duration_s;
                                    let harvested = harvest.energy_over(t, dt);
                                    capacitor.charge_joules(harvested);
                                    t += dt;
                                    rs.spurious_reset(t, probe);
                                    failed = true;
                                    spurious = true;
                                    break;
                                }
                                OpFault::Sag => {
                                    let dt = kind.cost.duration_s;
                                    let harvested = harvest.energy_over(t, dt);
                                    capacitor.charge_joules(harvested);
                                    let need = kind.cost.need_j * fault.sag_factor();
                                    if capacitor.usable_joules() < need {
                                        t += dt;
                                        failed = true;
                                        break;
                                    }
                                    capacitor.drain_joules(need);
                                    board.apply_cost(kind.component, kind.cost.cost());
                                    spent_nj += kind.cost.energy_nj * fault.sag_factor();
                                    t += dt;
                                    active_cycles += kind.cost.cycles;
                                    executed += 1;
                                    i += 1;
                                    continue;
                                }
                                OpFault::None => {}
                            }
                            let dt = kind.cost.duration_s;
                            let harvested = harvest.energy_over(t, dt);
                            capacitor.charge_joules(harvested);
                            if capacitor.usable_joules() < kind.cost.need_j {
                                t += dt;
                                failed = true;
                                break;
                            }
                            capacitor.drain_joules(kind.cost.need_j);
                            board.apply_cost(kind.component, kind.cost.cost());
                            spent_nj += kind.cost.energy_nj;
                            t += dt;
                            active_cycles += kind.cost.cycles;
                            executed += 1;
                            i += 1;
                        }
                    }
                }
            }
            if !failed {
                probe.event(ExecEvent::SegmentRetired {
                    t,
                    start: seg_start as u32,
                    end: i as u32,
                });
                continue 'run;
            }

            if let Some(outcome) = rs.power_failure(i, spurious, capacitor, t, probe) {
                break 'run outcome;
            }
            if !rs.dark_phase(harvester, capacitor, &mut t, probe) {
                break 'run RunOutcome::TimeLimit;
            }

            // ---- restore ----
            // Freshly booted at v_on: the restore always fits.
            let span = SpanTimer::start::<P>();
            let restore = plan.restore_cost();
            board.apply_cost(Component::Checkpoint, restore.cost());
            spent_nj += restore.energy_nj;
            capacitor.drain_joules(restore.need_j);
            t += restore.duration_s;
            active_cycles += restore.cycles;
            i = rs.restored(span, t, probe);
        };

        rs.finish(outcome, t, active_cycles, executed, board, probe)
    }

    /// [`run_plan_with`](Self::run_plan_with), additionally keeping the
    /// run as a [`RunTrace`]: its report plus the identity of `plan`. The
    /// report is the unrecorded run's, bit for bit.
    ///
    /// Every run meters itself from zero, so its report never depends on
    /// what the board ran before. Against a *deterministic* supply (any
    /// harvester whose output is a pure function of time — everything
    /// except a re-seeded burst source), a run is then a pure function
    /// of (plan, supply, fault seed, executor configuration), and
    /// [`try_replay_trace`](Self::try_replay_trace) reproduces it in
    /// O(1). Fleet sweeps use this to execute each (plan, environment)
    /// trajectory once and replay it across every seed, run and worker.
    pub fn record_plan_with<P: ExecProbe>(
        &self,
        plan: &ExecutionPlan,
        board: &mut Board,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> (RunReport, RunTrace) {
        let report = self.run_plan_with(plan, board, supply, opts);
        let trace = RunTrace {
            plan: plan.identity(),
            template: report.clone(),
        };
        (report, trace)
    }

    /// Replays a recorded [`RunTrace`] on `board` in O(1): merges the
    /// recorded report's meter into the board's, advances the board's
    /// clock by that meter's cycles and returns the report. The board
    /// ends exactly as if the run had executed on it live.
    ///
    /// Valid only when the run being replaced is deterministic — same
    /// plan, an identical supply whose harvester is a pure function of
    /// time, and the same executor configuration as the recording run.
    /// The capacitor dynamics are not re-simulated; the caller owns the
    /// supply and must treat it as consumed.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError`] if `plan` is not the recording plan's
    /// shape (op and checkpoint counts) or pricing (integrity scheme,
    /// clock, kind, checkpoint and restore costs): the recorded report
    /// would then book a run this plan never makes. The trace is
    /// rejected before the board is touched.
    pub fn try_replay_trace(
        &self,
        plan: &ExecutionPlan,
        trace: &RunTrace,
        board: &mut Board,
    ) -> Result<RunReport, ReplayError> {
        ReplayError::check(trace.plan, plan.identity())?;
        board.absorb_run(&trace.template.meter);
        Ok(trace.template.clone())
    }

    /// Runs `program` op by op, pricing every op against the board as it
    /// goes — the original interpreter, retained as the reference
    /// implementation that parity suites diff
    /// [`run_plan_with`](Self::run_plan_with) against. Prefer
    /// [`run`](Self::run): same results, priced once.
    ///
    /// `scheme` is the checkpoint payload [`Integrity`] scheme the twin
    /// plan was compiled with (see
    /// [`compile_with_integrity`](ExecutionPlan::compile_with_integrity)):
    /// checkpoints and restores pay its padded word counts and restores
    /// walk the same recovery ladder. Both paths keep their run
    /// bookkeeping (fault draws, commit levels, outages, restores, the
    /// dark phase and the report) in one shared state and differ only in
    /// how they price ops and coalesce segments, so the two stay
    /// bit-identical scheme by scheme and fault seed by fault seed.
    ///
    /// The probe sees the planned path's events except
    /// [`SegmentRetired`](ExecEvent::SegmentRetired) (the interpreter has
    /// no coalesced segments); the `slot` of a
    /// [`CheckpointCommit`](ExecEvent::CheckpointCommit) is the program op
    /// index the checkpoint fired ahead of, since the reference path has
    /// no deduplicated checkpoint slots.
    pub fn run_reference<P: ExecProbe>(
        &self,
        program: &Program,
        scheme: Integrity,
        board: &mut Board,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> RunReport {
        let RunOptions { fault, mut probe } = opts;
        let probe = &mut probe;
        let clock = board.costs().clock_hz;
        let monitor = board.monitor();
        let ops = program.ops();
        let n = ops.len();
        let budget_nj = self.config.energy_budget_nj.unwrap_or(f64::INFINITY);

        let mut rs = RunState::new(self, fault, scheme, program.restore_words(), clock, board);
        let mut t = 0.0f64;
        let mut i = 0usize;
        let mut executed = 0u64;
        let mut active_cycles = 0u64;
        let mut spent_nj = 0.0f64;

        // The warn threshold as an energy, as in `run_plan_inner`.
        let warn_j = monitor.warn_energy_joules(supply.capacitor().farads());

        let outcome = 'run: loop {
            if i >= n {
                break 'run RunOutcome::Completed;
            }
            if t > self.config.max_wall_seconds {
                break 'run RunOutcome::TimeLimit;
            }
            if spent_nj > budget_nj {
                break 'run RunOutcome::EnergyLimit;
            }

            let mut failed = false;
            let mut spurious = false;

            // On-demand (voltage-triggered) checkpoint before op i.
            if let Some(words) = ops[i].spec.ondemand_words {
                if rs.committed < i && supply.capacitor().energy_joules() < warn_j {
                    let ck = DeviceOp::Checkpoint {
                        words: scheme.padded_words(words as u64),
                    };
                    let span = SpanTimer::start::<P>();
                    let written = self.try_execute(
                        &ck,
                        board,
                        supply,
                        &mut t,
                        clock,
                        &mut active_cycles,
                        &mut spent_nj,
                        None,
                    );
                    span.finish(probe, ExecPhase::CheckpointRestore);
                    if written {
                        executed += 1;
                        failed = !rs.ondemand_commit(i, i as u32, t, probe);
                    }
                    // If it failed, the previous checkpoint still stands;
                    // fall through and let the op attempt trigger the
                    // outage path.
                }
            }

            if !failed {
                let pop = &ops[i];
                let mut sag = None;
                match rs.op_fault(t, probe) {
                    OpFault::Reset => {
                        // Power glitches before the op runs: time
                        // passes (harvest keeps flowing), no energy
                        // drains, no work happens.
                        let cost = board.cost(&pop.op);
                        let dt = cost.cycles.raw() as f64 / clock;
                        let harvested = supply.harvester().energy_over(t, dt);
                        supply.capacitor_mut().charge_joules(harvested);
                        t += dt;
                        rs.spurious_reset(t, probe);
                        failed = true;
                        spurious = true;
                    }
                    OpFault::Sag => sag = Some(fault.sag_factor()),
                    OpFault::None => {}
                }
                if !failed {
                    if self.try_execute(
                        &pop.op,
                        board,
                        supply,
                        &mut t,
                        clock,
                        &mut active_cycles,
                        &mut spent_nj,
                        sag,
                    ) {
                        executed += 1;
                        if pop.spec.commits {
                            rs.commit(i + 1, t, probe);
                        }
                        i += 1;
                        continue;
                    }
                    failed = true;
                }
            }
            debug_assert!(failed);

            let (harvester, capacitor) = supply.parts_mut();
            if let Some(outcome) = rs.power_failure(i, spurious, capacitor, t, probe) {
                break 'run outcome;
            }
            if !rs.dark_phase(harvester, capacitor, &mut t, probe) {
                break 'run RunOutcome::TimeLimit;
            }

            // ---- restore ----
            let span = SpanTimer::start::<P>();
            let restore = DeviceOp::Restore {
                words: scheme.padded_words(program.restore_words() as u64),
            };
            // Freshly booted at v_on: the restore always fits.
            let cost = board.execute(&restore);
            spent_nj += cost.energy.nanojoules();
            supply
                .capacitor_mut()
                .drain_joules(cost.energy.nanojoules() * 1e-9);
            t += cost.cycles.raw() as f64 / clock;
            active_cycles += cost.cycles.raw();
            i = rs.restored(span, t, probe);
        };

        rs.finish(outcome, t, active_cycles, executed, board, probe)
    }
    /// Attempts one op: harvests over its duration, checks the budget,
    /// executes and drains on success (tallying the drawn energy into
    /// `spent_nj`). Returns `false` on power failure (capacitor
    /// collapsed by the caller). A `sag` factor inflates the energy the
    /// op draws from the capacitor (an injected voltage-sag fault); the
    /// board meter keeps the nominal cost either way.
    #[allow(clippy::too_many_arguments)]
    fn try_execute(
        &self,
        op: &DeviceOp,
        board: &mut Board,
        supply: &mut PowerSupply,
        t: &mut f64,
        clock: f64,
        active_cycles: &mut u64,
        spent_nj: &mut f64,
        sag: Option<f64>,
    ) -> bool {
        let cost = board.cost(op);
        let dt = cost.cycles.raw() as f64 / clock;
        let harvested = supply.harvester().energy_over(*t, dt);
        supply.capacitor_mut().charge_joules(harvested);
        let (need_j, drawn_nj) = match sag {
            Some(factor) => (
                cost.energy.nanojoules() * 1e-9 * factor,
                cost.energy.nanojoules() * factor,
            ),
            None => (cost.energy.nanojoules() * 1e-9, cost.energy.nanojoules()),
        };
        if supply.capacitor().usable_joules() < need_j {
            // Dies partway through the op; time passes anyway.
            *t += dt;
            return false;
        }
        supply.capacitor_mut().drain_joules(need_j);
        board.execute(op);
        *spent_nj += drawn_nj;
        *t += dt;
        *active_cycles += cost.cycles.raw();
        true
    }

    /// The dark phase: advances `t` and `charging_s` until the
    /// capacitor can boot, or until the wall-clock limit — in which
    /// case `t` and `charging_s` are clamped **at** the limit and
    /// `false` is returned (the run ends as
    /// [`RunOutcome::TimeLimit`]).
    ///
    /// Shared verbatim by both executor paths so their float arithmetic
    /// is identical and `run_plan_with` / `run_reference` stay bit-for-bit
    /// in parity. Two modes (see [`ExecutorConfig::charge_step_s`]):
    ///
    /// * **analytic** (default): one closed-form solve — the capacitor
    ///   deficit from [`Capacitor::joules_to_boot`] fed to
    ///   [`Harvester::time_to_energy_within`], bounded by the remaining
    ///   wall budget. The capacitor wakes *exactly* at its boot
    ///   threshold, and the cost is independent of how long the dark
    ///   phase lasts.
    /// * **stepped** (legacy): fixed-step integration, waking at the
    ///   first step boundary where the capacitor can boot; the final
    ///   step is clamped to the wall limit instead of overshooting it.
    fn charge_until_boot(
        &self,
        harvester: &Harvester,
        capacitor: &mut Capacitor,
        t: &mut f64,
        charging_s: &mut f64,
    ) -> bool {
        let max_wall = self.config.max_wall_seconds;
        match self.config.charge_step_s {
            Some(step) => {
                while !capacitor.can_boot() {
                    let dt = step.min(max_wall - *t);
                    if dt <= 0.0 {
                        return false;
                    }
                    let harvested = harvester.energy_over(*t, dt);
                    capacitor.charge_joules(harvested);
                    *t += dt;
                    *charging_s += dt;
                }
                true
            }
            None => {
                let needed = capacitor.joules_to_boot();
                if needed <= 0.0 {
                    return true;
                }
                let horizon = max_wall - *t;
                let dt = harvester.time_to_energy_within(*t, needed, horizon);
                if dt > horizon || dt.is_nan() {
                    // Unreachable within the wall budget (or ever):
                    // report the run dark up to the limit, exactly.
                    let clamp = horizon.max(0.0);
                    *t += clamp;
                    *charging_s += clamp;
                    return false;
                }
                capacitor.recharge_to_on();
                *t += dt;
                *charging_s += dt;
                true
            }
        }
    }
}

/// One recorded run: the report it produced plus the identity (shape
/// and pricing) of the plan it ran — everything needed to replay a
/// *deterministic* run bit-identically without re-simulating it.
/// Produced by [`IntermittentExecutor::record_plan_with`], consumed by
/// [`IntermittentExecutor::try_replay_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunTrace {
    /// The recording plan's identity; replays against any other plan
    /// are rejected rather than booked wrong.
    plan: PlanIdentity,
    template: RunReport,
}

impl RunTrace {
    /// The report the recording run produced, which every replay
    /// returns.
    pub fn report(&self) -> &RunReport {
        &self.template
    }

    /// Whether [`IntermittentExecutor::try_replay_trace`] would accept
    /// this trace against `plan`, without touching a board.
    ///
    /// # Errors
    ///
    /// The [`ReplayError`] the replay would return.
    pub fn check_plan(&self, plan: &ExecutionPlan) -> Result<(), ReplayError> {
        ReplayError::check(self.plan, plan.identity())
    }

    /// The trace as flat words, for persisting it: the plan identity,
    /// then every report field in declaration order, floats as their
    /// bits. [`from_words`](Self::from_words) inverts it bit for bit.
    pub fn to_words(&self) -> Vec<u64> {
        let r = &self.template;
        let outcome = match r.outcome {
            RunOutcome::Completed => 0,
            RunOutcome::NoProgress => 1,
            RunOutcome::OutageLimit => 2,
            RunOutcome::TimeLimit => 3,
            RunOutcome::EnergyLimit => 4,
        };
        let mut words = vec![
            self.plan.ops as u64,
            self.plan.checkpoints as u64,
            self.plan.pricing,
            outcome,
            r.outages,
            r.ondemand_checkpoints,
            r.restores,
            r.executed_ops,
            r.wasted_ops,
            r.active_cycles.raw(),
            r.active_seconds.to_bits(),
            r.charging_seconds.to_bits(),
            r.wall_seconds.to_bits(),
            r.energy.nanojoules().to_bits(),
            r.checkpoint_energy.nanojoules().to_bits(),
        ];
        for c in Component::ALL {
            words.push(r.meter.energy_of(c).nanojoules().to_bits());
            words.push(r.meter.cycles_of(c).raw());
        }
        let f = &r.faults;
        words.extend([
            f.spurious_resets,
            f.torn_commits,
            f.sag_ops,
            f.corrupt_restores,
            f.detected_corruptions,
            f.silent_corruptions,
            f.cold_boots,
        ]);
        let i = &r.integrity;
        words.extend([
            i.flips_injected,
            i.flips_repaired,
            i.flips_detected,
            i.silent_restores,
            i.wear_max_commits,
        ]);
        words.extend(i.ladder);
        words
    }

    /// Rebuilds a trace from [`to_words`](Self::to_words)' output.
    /// `None` unless `words` is exactly such an output: the wrong
    /// length, an unknown outcome or a word the trace would not write
    /// back the same way is refused.
    pub fn from_words(words: &[u64]) -> Option<RunTrace> {
        let mut w = words.iter().copied();
        let mut next = || w.next();
        let plan = PlanIdentity {
            ops: usize::try_from(next()?).ok()?,
            checkpoints: usize::try_from(next()?).ok()?,
            pricing: next()?,
        };
        let outcome = match next()? {
            0 => RunOutcome::Completed,
            1 => RunOutcome::NoProgress,
            2 => RunOutcome::OutageLimit,
            3 => RunOutcome::TimeLimit,
            4 => RunOutcome::EnergyLimit,
            _ => return None,
        };
        let mut template = RunReport {
            outcome,
            outages: next()?,
            ondemand_checkpoints: next()?,
            restores: next()?,
            executed_ops: next()?,
            wasted_ops: next()?,
            active_cycles: Cycles::new(next()?),
            active_seconds: f64::from_bits(next()?),
            charging_seconds: f64::from_bits(next()?),
            wall_seconds: f64::from_bits(next()?),
            energy: Energy::from_nanojoules(f64::from_bits(next()?)),
            checkpoint_energy: Energy::from_nanojoules(f64::from_bits(next()?)),
            meter: EnergyMeter::new(),
            faults: FaultTally::default(),
            integrity: IntegrityTally::default(),
        };
        for c in Component::ALL {
            let energy = Energy::from_nanojoules(f64::from_bits(next()?));
            template.meter.record(c, Cycles::new(next()?), energy);
        }
        template.faults = FaultTally {
            spurious_resets: next()?,
            torn_commits: next()?,
            sag_ops: next()?,
            corrupt_restores: next()?,
            detected_corruptions: next()?,
            silent_corruptions: next()?,
            cold_boots: next()?,
        };
        template.integrity = IntegrityTally {
            flips_injected: next()?,
            flips_repaired: next()?,
            flips_detected: next()?,
            silent_restores: next()?,
            wear_max_commits: next()?,
            ladder: [next()?, next()?, next()?, next()?],
        };
        let trace = RunTrace { plan, template };
        // A meter rebuilt by `record` normalizes -0.0; refuse any word
        // that does not survive the round trip, and any trailing word.
        (trace.to_words() == words).then_some(trace)
    }
}

/// The run bookkeeping both executor paths share: the fault decision
/// stream and its tallies, payload integrity state, commit levels, the
/// outage, stall and restore counters, the dark phase and the report.
/// Each path prices its own ops and keeps its hot locals (sim time,
/// spent energy, active cycles, executed ops); it calls these methods
/// at the same logical points, so every draw, counter and event is
/// written once and the two paths stay bit-identical.
struct RunState<'a> {
    exec: &'a IntermittentExecutor,
    fault: &'a FaultPlan,
    /// Gates every fault branch so a disabled plan leaves the run's
    /// arithmetic untouched.
    faulting: bool,
    /// One flip draw per successful commit: faulting with flips armed.
    flipping: bool,
    /// Restores walk the recovery ladder: live only on faulted runs
    /// with bit-flips armed or a non-`None` scheme. When inactive,
    /// every restore takes the legacy corrupt branch bit-identically.
    laddered: bool,
    scheme: Integrity,
    payload_bits: u64,
    wear: WearCurve,
    fstate: FaultState,
    faults: FaultTally,
    istate: IntegrityState,
    itally: IntegrityTally,
    /// Ops durably committed: where execution resumes after an outage.
    committed: usize,
    /// The commit level *before* the latest commit — where a detected
    /// corrupt restore falls back to.
    prev_committed: usize,
    committed_at_last_outage: usize,
    stall: u64,
    outages: u64,
    wasted: u64,
    ondemand: u64,
    restores: u64,
    charging_s: f64,
    clock: f64,
    /// The board's meter as the run found it. The run meters itself
    /// from zero on the board and hands this back merged at the end.
    before: EnergyMeter,
}

impl<'a> RunState<'a> {
    fn new(
        exec: &'a IntermittentExecutor,
        fault: &'a FaultPlan,
        scheme: Integrity,
        restore_words: u32,
        clock: f64,
        board: &mut Board,
    ) -> Self {
        let faulting = fault.enabled();
        RunState {
            exec,
            fault,
            faulting,
            flipping: faulting && fault.flips_armed(),
            laddered: faulting && (fault.flips_armed() || scheme != Integrity::None),
            scheme,
            payload_bits: restore_words as u64 * 16,
            wear: WearCurve {
                endurance_commits: fault.wear_endurance(),
            },
            fstate: fault.state(),
            faults: FaultTally::default(),
            istate: IntegrityState::new(),
            itally: IntegrityTally::default(),
            committed: 0,
            prev_committed: 0,
            committed_at_last_outage: usize::MAX,
            stall: 0,
            outages: 0,
            wasted: 0,
            ondemand: 0,
            restores: 0,
            charging_s: 0.0,
            clock,
            before: board.take_meter(),
        }
    }

    /// The op-attempt draw: a spurious reset pre-empts the op (the path
    /// advances time, then calls [`spurious_reset`](Self::spurious_reset));
    /// a sag is tallied here and the path inflates the op's draw.
    #[inline(always)]
    fn op_fault<P: ExecProbe>(&mut self, t: f64, probe: &mut P) -> OpFault {
        if !self.faulting {
            return OpFault::None;
        }
        let fired = self.fault.op_fault(&mut self.fstate);
        if fired == OpFault::Sag {
            self.faults.sag_ops += 1;
            probe.event(ExecEvent::FaultInjected {
                t,
                kind: FaultKind::VoltageSag,
            });
        }
        fired
    }

    /// Books a spurious reset once its op's duration has passed dark.
    fn spurious_reset<P: ExecProbe>(&mut self, t: f64, probe: &mut P) {
        self.faults.spurious_resets += 1;
        probe.event(ExecEvent::FaultInjected {
            t,
            kind: FaultKind::SpuriousReset,
        });
    }

    /// Progress up to op `level` is durable. With flips armed, draws
    /// the flip count for the freshly written slot (wear-accelerated by
    /// that slot's lifetime write count), records the write in the
    /// integrity state, and tallies and probes any damage.
    #[inline]
    fn commit<P: ExecProbe>(&mut self, level: usize, t: f64, probe: &mut P) {
        self.prev_committed = self.committed;
        self.committed = level;
        if self.flipping {
            let mult = self.wear.multiplier(self.istate.next_write_count());
            let flips = self.fault.flips(&mut self.fstate, self.payload_bits, mult);
            self.istate.commit(flips);
            if flips > 0 {
                self.itally.flips_injected += u64::from(flips);
                probe.event(ExecEvent::BitFlipInjected { t, flips });
            }
        }
    }

    /// An on-demand checkpoint ahead of op `level` was written and paid
    /// for. Returns `false` if the write tore: power died before the
    /// slot's commit marker flipped, so the previous checkpoint still
    /// stands and the path takes the outage branch. Otherwise the
    /// checkpoint committed atomically (double-buffered in FRAM).
    fn ondemand_commit<P: ExecProbe>(
        &mut self,
        level: usize,
        slot: u32,
        t: f64,
        probe: &mut P,
    ) -> bool {
        if self.faulting && self.fault.tears(&mut self.fstate) {
            self.faults.torn_commits += 1;
            probe.event(ExecEvent::FaultInjected {
                t,
                kind: FaultKind::TornCommit,
            });
            return false;
        }
        self.ondemand += 1;
        probe.event(ExecEvent::CheckpointCommit { t, slot });
        self.commit(level, t, probe);
        true
    }

    /// Books a power failure at op `i`: the work past the last commit is
    /// lost and, unless the reset was spurious, the capacitor collapses.
    /// Returns the outcome if the run must end here: too many outages
    /// in a row without committed progress, or the outage budget spent.
    fn power_failure<P: ExecProbe>(
        &mut self,
        i: usize,
        spurious: bool,
        capacitor: &mut Capacitor,
        t: f64,
        probe: &mut P,
    ) -> Option<RunOutcome> {
        self.outages += 1;
        self.wasted += (i - self.committed) as u64;
        if !spurious {
            capacitor.collapse_to_off();
        }
        probe.event(ExecEvent::BrownOut { t });

        if self.committed == self.committed_at_last_outage {
            self.stall += 1;
        } else {
            self.stall = 0;
        }
        self.committed_at_last_outage = self.committed;
        let config = &self.exec.config;
        if self.stall >= config.stall_outages {
            Some(RunOutcome::NoProgress)
        } else if self.outages >= config.max_outages {
            Some(RunOutcome::OutageLimit)
        } else {
            None
        }
    }

    /// The dark phase after an outage: charges until the capacitor can
    /// boot (see [`IntermittentExecutor::charge_until_boot`]), timing
    /// the solve and emitting its [`ExecEvent::DarkSkip`]. Returns
    /// `false` if the wall-clock limit came first.
    fn dark_phase<P: ExecProbe>(
        &mut self,
        harvester: &Harvester,
        capacitor: &mut Capacitor,
        t: &mut f64,
        probe: &mut P,
    ) -> bool {
        let t0 = *t;
        let joules = if P::ENABLED {
            capacitor.joules_to_boot().max(0.0)
        } else {
            0.0
        };
        let span = SpanTimer::start::<P>();
        let booted = self
            .exec
            .charge_until_boot(harvester, capacitor, t, &mut self.charging_s);
        span.finish(probe, ExecPhase::ChargeSolve);
        probe.event(ExecEvent::DarkSkip { t0, t1: *t, joules });
        booted
    }

    /// The restore the path just paid for has landed: draws the slot
    /// corruption and resolves it, then closes the restore `span` and
    /// emits the boot. Returns the op execution resumes at.
    ///
    /// With the ladder live, the resolution walks
    /// [`integrity::resolve_restore`]:
    ///
    /// * rung 0/1 — the active slot stands (possibly silently wrong, or
    ///   SECDED-repaired in place); no progress is lost.
    /// * rung 2 — fall back to the previous durable commit.
    /// * rung 3 — the previous slot was rejected too: cold boot, all
    ///   committed progress is lost.
    ///
    /// Otherwise a corrupt slot is always detected (the commit bitset
    /// and slot versioning) and falls back to the previous commit.
    /// Either way a restore takes exactly one stream step.
    fn restored<P: ExecProbe>(&mut self, span: SpanTimer, t: f64, probe: &mut P) -> usize {
        self.restores += 1;
        if self.laddered {
            let slot_bad = self.fault.corrupts(&mut self.fstate);
            if slot_bad {
                // Slot-level metadata corruption: always detected,
                // exactly as the legacy branch counts it.
                self.faults.corrupt_restores += 1;
                self.faults.detected_corruptions += 1;
                probe.event(ExecEvent::CorruptionDetected { t });
            }
            let res = integrity::resolve_restore(self.scheme, &mut self.istate, slot_bad);
            self.itally.ladder[res.rung as usize] += 1;
            if res.repairs > 0 {
                self.itally.flips_repaired += u64::from(res.repairs);
                probe.event(ExecEvent::PayloadRepaired { t });
            }
            if res.payload_rejects > 0 {
                self.itally.flips_detected += u64::from(res.payload_rejects);
                self.faults.detected_corruptions += u64::from(res.payload_rejects);
                probe.event(ExecEvent::PayloadRejected { t });
            }
            if res.silent {
                // The scheme accepted a flipped payload: the run
                // continues from plausible-but-wrong state, and only a
                // golden-twin diff can tell. This is the counter the
                // crash-consistency audit exists to keep at zero for
                // `Checksum`/`Secded`.
                self.itally.silent_restores += 1;
                self.faults.silent_corruptions += 1;
                probe.event(ExecEvent::SilentRestore { t });
            }
            if res.rung >= 2 {
                self.fall_back();
                if res.rung == 3 {
                    // The fallback slot was rejected too: nothing
                    // durable remains anywhere.
                    self.wasted += self.committed as u64;
                    self.committed = 0;
                    self.prev_committed = 0;
                }
                if self.committed == 0 {
                    self.faults.cold_boots += 1;
                }
            }
        } else if self.faulting && self.fault.corrupts(&mut self.fstate) {
            self.faults.corrupt_restores += 1;
            self.faults.detected_corruptions += 1;
            self.fall_back();
            if self.committed == 0 {
                self.faults.cold_boots += 1;
            }
            probe.event(ExecEvent::CorruptionDetected { t });
        }
        span.finish(probe, ExecPhase::CheckpointRestore);
        probe.event(ExecEvent::Boot { t });
        self.committed
    }

    /// Drops the latest commit: execution resumes from the one before.
    fn fall_back(&mut self) {
        self.wasted += (self.committed - self.prev_committed) as u64;
        self.committed = self.prev_committed;
    }

    /// Closes the run: emits its final events, records slot wear, puts
    /// the board's earlier meter back merged with this run's, and
    /// reports this run's meter.
    fn finish<P: ExecProbe>(
        mut self,
        outcome: RunOutcome,
        t: f64,
        active_cycles: u64,
        executed: u64,
        board: &mut Board,
        probe: &mut P,
    ) -> RunReport {
        if outcome == RunOutcome::EnergyLimit {
            probe.event(ExecEvent::EnergyLimit { t });
        }
        probe.event(ExecEvent::RunEnd { t, outcome });
        if self.laddered {
            self.itally.wear_max_commits = self.istate.max_writes();
        }
        let meter = board.put_back_meter(self.before);
        RunReport {
            outcome,
            outages: self.outages,
            ondemand_checkpoints: self.ondemand,
            restores: self.restores,
            executed_ops: executed,
            wasted_ops: self.wasted,
            active_cycles: Cycles::new(active_cycles),
            active_seconds: active_cycles as f64 / self.clock,
            charging_seconds: self.charging_s,
            wall_seconds: t,
            energy: meter.total_energy(),
            checkpoint_energy: meter.energy_of(Component::Checkpoint),
            meter,
            faults: self.faults,
            integrity: self.itally,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Capacitor, CheckpointSpec, Harvester};

    fn cpu_heavy_program(ops: usize, cycles_per_op: u64, spec: CheckpointSpec) -> Program {
        let mut p = Program::new("test");
        for _ in 0..ops {
            p.push(
                DeviceOp::CpuOps {
                    count: cycles_per_op,
                },
                spec,
            );
        }
        p
    }

    fn bench_supply() -> PowerSupply {
        PowerSupply::new(Harvester::constant(0.010), Capacitor::paper_100uf())
    }

    fn weak_supply() -> PowerSupply {
        // 2 mW average square wave: forces many outages on mJ workloads.
        PowerSupply::new(
            Harvester::square(0.004, 0.05, 0.5),
            Capacitor::paper_100uf(),
        )
    }

    #[test]
    fn strong_supply_completes_without_outage() {
        // 10 mW in vs ~5.7 mW CPU draw: never browns out.
        let p = cpu_heavy_program(100, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert_eq!(r.outages, 0);
        assert_eq!(r.wasted_ops, 0);
        assert_eq!(r.executed_ops, 100);
    }

    #[test]
    fn committing_program_survives_weak_supply() {
        // ~3.6 mJ total, ~288 µJ per discharge -> needs many outages but
        // commits every op, so it always progresses.
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.outages > 3, "expected several outages, got {}", r.outages);
        assert!(r.charging_seconds > 0.0);
        assert_eq!(r.wasted_ops, 0); // every op commits: nothing re-done
    }

    #[test]
    fn base_style_program_never_completes() {
        // No commits: every outage restarts. Total energy far exceeds one
        // discharge -> stalls forever -> NoProgress (the paper's ✗).
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::NONE);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert_eq!(r.outcome, RunOutcome::NoProgress);
        assert!(!r.completed());
        assert!(r.wasted_ops > 0);
    }

    #[test]
    fn sparse_commits_cause_wasted_work() {
        // Commit every 50 ops: failures roll back within the window.
        let mut p = Program::new("sparse");
        for k in 0..1000usize {
            let spec = if k % 50 == 49 {
                CheckpointSpec::COMMIT
            } else {
                CheckpointSpec::NONE
            };
            p.push(DeviceOp::CpuOps { count: 10_000 }, spec);
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.wasted_ops > 0, "rollbacks must waste work");
        assert!(r.executed_ops > 1000);
    }

    #[test]
    fn ondemand_checkpoint_rescues_commitless_program() {
        // No eager commits, but on-demand checkpoints allowed everywhere:
        // the voltage monitor fires near brown-out and saves progress.
        let mut p = Program::new("ondemand");
        for _ in 0..1000usize {
            p.push(
                DeviceOp::CpuOps { count: 10_000 },
                CheckpointSpec::ondemand(64),
            );
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed(), "{r}");
        assert!(r.ondemand_checkpoints > 0);
        assert!(r.checkpoint_energy.nanojoules() > 0.0);
        // Wasted work is bounded by the ops between warning and death.
        assert!(r.wasted_ops < 200, "wasted = {}", r.wasted_ops);
    }

    #[test]
    fn checkpoint_overhead_is_small_fraction() {
        let mut p = Program::new("ondemand");
        for _ in 0..2000usize {
            p.push(
                DeviceOp::CpuOps { count: 5_000 },
                CheckpointSpec::ondemand(64),
            );
        }
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert!(
            r.checkpoint_overhead() < 0.05,
            "overhead = {}",
            r.checkpoint_overhead()
        );
    }

    #[test]
    fn active_and_wall_time_split() {
        let p = cpu_heavy_program(500, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert!(r.wall_seconds >= r.active_seconds + r.charging_seconds - 1e-9);
        // Active time ≈ cycles/clock.
        assert!((r.active_seconds - r.active_cycles.raw() as f64 / 16e6).abs() < 1e-9);
    }

    #[test]
    fn empty_program_completes_trivially() {
        let p = Program::new("empty");
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(r.completed());
        assert_eq!(r.executed_ops, 0);
    }

    #[test]
    fn planned_run_matches_reference_interpreter() {
        // Same program, same supply: the plan-driven loop and the
        // op-by-op interpreter must agree bit for bit, including the
        // outage/rollback dynamics a weak supply forces.
        let mut p = Program::new("mixed");
        for k in 0..800usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        let exec = IntermittentExecutor::default();
        for supply in [bench_supply(), weak_supply()] {
            let mut board_a = Board::msp430fr5994();
            let mut board_b = Board::msp430fr5994();
            let mut supply_a = supply.clone();
            let mut supply_b = supply;
            let planned = exec.run(&p, &mut board_a, &mut supply_a);
            let reference = exec.run_reference(
                &p,
                Integrity::None,
                &mut board_b,
                &mut supply_b,
                RunOptions::default(),
            );
            assert_eq!(planned, reference);
            assert_eq!(board_a.meter(), board_b.meter());
            assert_eq!(board_a.elapsed_cycles(), board_b.elapsed_cycles());
        }
    }

    #[test]
    fn planned_run_parity_holds_across_sequential_runs() {
        // Second run on the same board starts from a nonzero meter; the
        // report diff must still match the reference bit for bit.
        let p = cpu_heavy_program(300, 10_000, CheckpointSpec::COMMIT);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        for _ in 0..2 {
            let mut sa = weak_supply();
            let mut sb = weak_supply();
            let planned = exec.run(&p, &mut board_a, &mut sa);
            let reference = exec.run_reference(
                &p,
                Integrity::None,
                &mut board_b,
                &mut sb,
                RunOptions::default(),
            );
            assert_eq!(planned, reference);
        }
    }

    #[test]
    fn trace_replay_is_bit_identical_for_deterministic_supplies() {
        // Record against a weak (but deterministic) square wave, then
        // replay: reports and board state must match a live run exactly,
        // including on boards whose meters already hold prior runs.
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 5 {
                0 => CheckpointSpec::COMMIT,
                1 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 9_000 }, spec);
        }
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();

        let mut recording_board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let (recorded, trace) = exec.record_plan_with(
            &plan,
            &mut recording_board,
            &mut supply,
            RunOptions::default(),
        );
        assert_eq!(&recorded, trace.report());
        assert!(recorded.outages > 0, "want outage coverage in the trace");

        let mut live_board = Board::msp430fr5994();
        let mut replay_board = Board::msp430fr5994();
        for _ in 0..3 {
            let mut live_supply = weak_supply();
            let live = exec.run_plan(&plan, &mut live_board, &mut live_supply);
            let replayed = exec.try_replay_trace(&plan, &trace, &mut replay_board);
            assert_eq!(Ok(live), replayed);
        }
        assert_eq!(live_board.meter(), replay_board.meter());
        assert_eq!(live_board.elapsed_cycles(), replay_board.elapsed_cycles());
    }

    #[test]
    fn try_replay_rejects_a_mismatched_plan() {
        // A trace replays only against the plan it was recorded from:
        // another shape, or the same shape under another integrity
        // scheme, clock or cost table, books a run that plan never
        // makes. Every refusal leaves the board untouched.
        let mut p = mixed_program(300);
        p.set_restore_words(64);
        let board = Board::msp430fr5994();
        let recorded_plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut b = Board::msp430fr5994();
        let (_, trace) = exec.record_plan_with(
            &recorded_plan,
            &mut b,
            &mut weak_supply(),
            RunOptions::default(),
        );
        let refuse = |plan: &ExecutionPlan, b: &mut Board| {
            let (before, clock) = (b.meter().clone(), b.elapsed_cycles());
            let err = exec.try_replay_trace(plan, &trace, b).unwrap_err();
            assert_eq!(*b.meter(), before, "{err}");
            assert_eq!(b.elapsed_cycles(), clock, "{err}");
            err
        };

        let longer = ExecutionPlan::compile(mixed_program(310), &board);
        let err = refuse(&longer, &mut b);
        assert_eq!(
            err,
            ReplayError::Shape {
                recorded: (recorded_plan.len(), recorded_plan.checkpoints.len()),
                plan: (longer.len(), longer.checkpoints.len()),
            }
        );
        assert!(err.to_string().contains("differently shaped plan"), "{err}");

        let mut slow_clock = board.costs().clone();
        slow_clock.clock_hz /= 2.0;
        let mut dear_fram = board.costs().clone();
        dear_fram.fram_write_nj_per_word *= 1.5;
        for other in [
            ExecutionPlan::compile_with_integrity(p.clone(), &board, Integrity::Secded),
            ExecutionPlan::compile_with_integrity(p.clone(), &board, Integrity::Checksum),
            ExecutionPlan::compile(p.clone(), &Board::with_costs(slow_clock)),
            ExecutionPlan::compile(p.clone(), &Board::with_costs(dear_fram)),
        ] {
            assert_eq!(other.len(), recorded_plan.len());
            assert_eq!(other.checkpoints.len(), recorded_plan.checkpoints.len());
            let err = refuse(&other, &mut b);
            assert!(matches!(err, ReplayError::Pricing { .. }), "{err}");
            assert!(err.to_string().contains("differently priced plan"), "{err}");
        }

        // A recompile of the recording plan is the same plan.
        let again = ExecutionPlan::compile(p, &board);
        assert!(exec.try_replay_trace(&again, &trace, &mut b).is_ok());
    }

    #[test]
    fn trace_words_round_trip_bit_for_bit_and_refuse_anything_else() {
        let p = mixed_program(400);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile_with_integrity(p.clone(), &board, Integrity::Secded);
        let mut spec = noisy_fault_spec(7);
        spec.flip_per_commit_bit = 1e-3;
        let fault = FaultPlan::compile(&spec);
        let (_, trace) = IntermittentExecutor::default().record_plan_with(
            &plan,
            &mut Board::msp430fr5994(),
            &mut weak_supply(),
            RunOptions::default().fault(&fault),
        );
        assert!(trace.report().faults.injected() > 0);
        let words = trace.to_words();
        let back = RunTrace::from_words(&words).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.to_words(), words);
        assert!(back.check_plan(&plan).is_ok());
        let unguarded = ExecutionPlan::compile(p, &board);
        assert!(matches!(
            back.check_plan(&unguarded),
            Err(ReplayError::Pricing { .. })
        ));

        // Short, long, an unknown outcome and a negative-zero meter
        // energy (which the rebuilt meter cannot hold) are refused.
        let outcome = 3;
        let meter_energy = 15;
        for bad in [
            words[..words.len() - 1].to_vec(),
            [words.as_slice(), &[0]].concat(),
            {
                let mut w = words.clone();
                w[outcome] = 5;
                w
            },
            {
                let mut w = words.clone();
                w[meter_energy] = (-0.0f64).to_bits();
                w
            },
        ] {
            assert_eq!(RunTrace::from_words(&bad), None, "{bad:?}");
        }
    }

    /// Runs `p` once down `path` on `board` under the weak supply.
    fn history_run(
        exec: &IntermittentExecutor,
        p: &Program,
        plan: &ExecutionPlan,
        path: Path,
        fault: &FaultPlan,
        board: &mut Board,
    ) -> RunReport {
        let opts = RunOptions::default().fault(fault);
        let mut supply = weak_supply();
        match path {
            Path::Live => exec.run_plan_with(plan, board, &mut supply, opts),
            Path::Reference => exec.run_reference(p, Integrity::None, board, &mut supply, opts),
            Path::RecordThenReplay => {
                let (_, trace) =
                    exec.record_plan_with(plan, &mut Board::msp430fr5994(), &mut supply, opts);
                exec.try_replay_trace(plan, &trace, board)
                    .expect("trace recorded from this plan")
            }
        }
    }

    #[test]
    fn a_run_does_not_depend_on_the_boards_history() {
        // A run on a board that already ran three times reports the same
        // bits as on a fresh board, on both executor paths and through
        // record then replay. The board ends holding its earlier meter
        // merged with the report's, its clock advanced by the report
        // meter's cycles.
        let p = mixed_program(800);
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        let exec = IntermittentExecutor::default();
        let storm = FaultPlan::compile(&noisy_fault_spec(5));
        for fault in [&FaultPlan::NONE, &storm] {
            for path in [Path::Live, Path::RecordThenReplay, Path::Reference] {
                let fresh = history_run(&exec, &p, &plan, path, fault, &mut Board::msp430fr5994());
                assert!(fresh.outages > 0, "want outage coverage");
                let mut board = Board::msp430fr5994();
                for _ in 0..3 {
                    history_run(&exec, &p, &plan, path, fault, &mut board);
                }
                let (before, clock) = (board.meter().clone(), board.elapsed_cycles());
                let fourth = history_run(&exec, &p, &plan, path, fault, &mut board);
                assert_eq!(fourth, fresh, "{path:?} faulted={}", fault.enabled());
                let mut merged = before;
                merged.merge(&fourth.meter);
                assert_eq!(*board.meter(), merged, "{path:?}");
                assert_eq!(
                    board.elapsed_cycles(),
                    clock + fourth.meter.total_cycles(),
                    "{path:?}"
                );
            }
        }
    }

    #[test]
    fn run_plan_reuses_one_compilation() {
        let p = cpu_heavy_program(200, 10_000, CheckpointSpec::COMMIT);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut supply_a = weak_supply();
        let a = exec.run_plan(&plan, &mut board_a, &mut supply_a);
        let mut board_b = Board::msp430fr5994();
        let mut supply_b = weak_supply();
        let b = exec.run_plan(&plan, &mut board_b, &mut supply_b);
        assert_eq!(a, b);
        assert!(a.completed());
    }

    #[test]
    fn energy_budget_aborts_the_run() {
        let p = cpu_heavy_program(500, 10_000, CheckpointSpec::COMMIT);
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        // Price the whole program once to pick a budget that cuts the
        // run roughly in half.
        let full = IntermittentExecutor::default().run(&p, &mut board, &mut supply);
        assert!(full.completed());
        let budget = full.energy.nanojoules() / 2.0;

        let exec = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(budget),
            ..ExecutorConfig::default()
        });
        let mut board = Board::msp430fr5994();
        let mut supply = bench_supply();
        let r = exec.run(&p, &mut board, &mut supply);
        assert_eq!(r.outcome, RunOutcome::EnergyLimit);
        assert!(!r.completed());
        assert!(r.executed_ops < full.executed_ops);
        // The budget can be overshot by at most one op's energy.
        let per_op = full.energy.nanojoules() / full.executed_ops as f64;
        assert!(r.energy.nanojoules() > budget);
        assert!(r.energy.nanojoules() <= budget + 2.0 * per_op);
    }

    #[test]
    fn generous_energy_budget_changes_nothing() {
        let p = cpu_heavy_program(300, 10_000, CheckpointSpec::COMMIT);
        let exec_budgeted = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(1e15),
            ..ExecutorConfig::default()
        });
        let mut board_a = Board::msp430fr5994();
        let mut supply_a = weak_supply();
        let budgeted = exec_budgeted.run(&p, &mut board_a, &mut supply_a);
        let mut board_b = Board::msp430fr5994();
        let mut supply_b = weak_supply();
        let unbudgeted = IntermittentExecutor::default().run(&p, &mut board_b, &mut supply_b);
        assert_eq!(budgeted, unbudgeted);
        assert!(budgeted.completed());
    }

    #[test]
    fn energy_budget_parity_between_planned_and_reference_paths() {
        // The budget check must sit at the same point in both executors:
        // same outcome, same counters, bit for bit — including under a
        // weak supply where restores and rollbacks also spend energy.
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        for budget in [5e4, 5e5, 5e6] {
            let exec = IntermittentExecutor::new(ExecutorConfig {
                energy_budget_nj: Some(budget),
                ..ExecutorConfig::default()
            });
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut supply_a = supply.clone();
                let mut supply_b = supply.clone();
                let planned = exec.run(&p, &mut board_a, &mut supply_a);
                let reference = exec.run_reference(
                    &p,
                    Integrity::None,
                    &mut board_b,
                    &mut supply_b,
                    RunOptions::default(),
                );
                assert_eq!(planned, reference, "budget {budget}");
                assert_eq!(board_a.meter(), board_b.meter());
            }
        }
    }

    #[test]
    fn energy_limited_traces_replay_bit_identically() {
        let p = cpu_heavy_program(400, 10_000, CheckpointSpec::COMMIT);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p, &board);
        let exec = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(1e5),
            ..ExecutorConfig::default()
        });
        let mut record_board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let (recorded, trace) =
            exec.record_plan_with(&plan, &mut record_board, &mut supply, RunOptions::default());
        assert_eq!(recorded.outcome, RunOutcome::EnergyLimit);
        let mut replay_board = Board::msp430fr5994();
        let replayed = exec.try_replay_trace(&plan, &trace, &mut replay_board);
        assert_eq!(Ok(recorded), replayed);
        assert_eq!(record_board.meter(), replay_board.meter());
    }

    #[test]
    fn analytic_dark_phase_matches_the_stepped_oracle_window() {
        // The solver's wake time must land inside the step window the
        // legacy quantized loop would wake in: stepped wake time is the
        // first multiple of the step at/after the analytic one.
        let p = cpu_heavy_program(400, 10_000, CheckpointSpec::COMMIT);
        let step = 1e-3;
        let stepped_exec = IntermittentExecutor::new(ExecutorConfig {
            charge_step_s: Some(step),
            ..ExecutorConfig::default()
        });
        let analytic_exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        let mut sa = weak_supply();
        let mut sb = weak_supply();
        let analytic = analytic_exec.run(&p, &mut board_a, &mut sa);
        let stepped = stepped_exec.run(&p, &mut board_b, &mut sb);
        assert!(analytic.completed() && stepped.completed());
        assert!(analytic.outages > 0);
        // The analytic run never waits longer than the quantized one,
        // and the quantization slack is bounded by one step per outage.
        assert!(
            analytic.charging_seconds <= stepped.charging_seconds + 1e-9,
            "analytic {} vs stepped {}",
            analytic.charging_seconds,
            stepped.charging_seconds
        );
        assert!(
            stepped.charging_seconds - analytic.charging_seconds
                <= step * stepped.outages as f64 + 1e-9,
            "quantization slack exceeds one step per outage"
        );
    }

    #[test]
    fn stepped_legacy_mode_keeps_both_paths_in_parity() {
        let mut p = Program::new("mixed");
        for k in 0..600usize {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        let exec = IntermittentExecutor::new(ExecutorConfig {
            charge_step_s: Some(1e-3),
            ..ExecutorConfig::default()
        });
        let mut board_a = Board::msp430fr5994();
        let mut board_b = Board::msp430fr5994();
        let mut sa = weak_supply();
        let mut sb = weak_supply();
        let planned = exec.run(&p, &mut board_a, &mut sa);
        let reference = exec.run_reference(
            &p,
            Integrity::None,
            &mut board_b,
            &mut sb,
            RunOptions::default(),
        );
        assert_eq!(planned, reference);
        assert_eq!(board_a.meter(), board_b.meter());
    }

    #[test]
    fn time_limited_dark_phase_reports_exactly_at_the_limit() {
        // A dead harvester: the first outage charges forever. Both
        // modes must clamp t and charging_s at the wall limit instead
        // of overshooting by a step (or reporting infinity).
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::COMMIT);
        let max_wall = 1.5;
        for charge_step_s in [None, Some(1e-3)] {
            let exec = IntermittentExecutor::new(ExecutorConfig {
                charge_step_s,
                max_wall_seconds: max_wall,
                ..ExecutorConfig::default()
            });
            let mut board = Board::msp430fr5994();
            let mut supply = PowerSupply::new(Harvester::constant(0.0), Capacitor::paper_100uf());
            let r = exec.run(&p, &mut board, &mut supply);
            assert_eq!(r.outcome, RunOutcome::TimeLimit, "{charge_step_s:?}");
            assert_eq!(r.wall_seconds, max_wall, "{charge_step_s:?}");
            assert!(
                r.charging_seconds <= max_wall,
                "{charge_step_s:?}: charging {} past the limit",
                r.charging_seconds
            );

            // The reference interpreter clamps identically.
            let mut board_b = Board::msp430fr5994();
            let mut supply_b = PowerSupply::new(Harvester::constant(0.0), Capacitor::paper_100uf());
            let reference = exec.run_reference(
                &p,
                Integrity::None,
                &mut board_b,
                &mut supply_b,
                RunOptions::default(),
            );
            assert_eq!(r, reference, "{charge_step_s:?}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        use crate::ExecutorConfigError;
        let cases = [
            (
                ExecutorConfig {
                    stall_outages: 0,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::ZeroStallOutages,
            ),
            (
                ExecutorConfig {
                    charge_step_s: Some(0.0),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadChargeStep(0.0),
            ),
            (
                ExecutorConfig {
                    charge_step_s: Some(f64::NAN),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadChargeStep(f64::NAN),
            ),
            (
                ExecutorConfig {
                    max_wall_seconds: 0.0,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadWallLimit(0.0),
            ),
            (
                ExecutorConfig {
                    max_wall_seconds: f64::INFINITY,
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadWallLimit(f64::INFINITY),
            ),
            (
                ExecutorConfig {
                    energy_budget_nj: Some(-1.0),
                    ..ExecutorConfig::default()
                },
                ExecutorConfigError::BadEnergyBudget(-1.0),
            ),
        ];
        for (config, want) in cases {
            let got = IntermittentExecutor::try_new(config.clone()).unwrap_err();
            // NaN payloads compare unequal; match on the Display text.
            assert_eq!(got.to_string(), want.to_string(), "{config:?}");
            assert!(config.validate().is_err());
        }
        assert!(ExecutorConfig::default().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid executor config")]
    fn new_panics_on_invalid_config() {
        let _ = IntermittentExecutor::new(ExecutorConfig {
            stall_outages: 0,
            ..ExecutorConfig::default()
        });
    }

    fn mixed_program(ops: usize) -> Program {
        let mut p = Program::new("mixed");
        for k in 0..ops {
            let spec = match k % 7 {
                0 => CheckpointSpec::COMMIT,
                1 | 2 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        p
    }

    fn noisy_fault_spec(seed: u64) -> crate::FaultSpec {
        crate::FaultSpec {
            seed,
            reset_per_op: 0.002,
            sag_per_op: 0.01,
            sag_factor: 1.5,
            tear_per_commit: 0.2,
            corrupt_per_restore: 0.25,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        }
    }

    #[test]
    fn faulted_runs_keep_planned_reference_parity() {
        // The fault decision stream must advance at the same logical
        // points in both executors: same injections, same dynamics, bit
        // for bit — across seeds and supplies.
        let p = mixed_program(800);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut saw_faults = false;
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let fault = FaultPlan::compile(&noisy_fault_spec(seed));
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut sa = supply.clone();
                let mut sb = supply.clone();
                let planned = exec.run_plan_faulted(&plan, &mut board_a, &mut sa, &fault);
                let reference = exec.run_reference(
                    &p,
                    Integrity::None,
                    &mut board_b,
                    &mut sb,
                    RunOptions::default().fault(&fault),
                );
                assert_eq!(planned, reference, "seed {seed}");
                assert_eq!(board_a.meter(), board_b.meter());
                saw_faults |= planned.faults.injected() > 0;
            }
        }
        assert!(saw_faults, "fault coverage: at least one run must inject");
    }

    #[test]
    fn disabled_fault_plan_changes_nothing() {
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        // An all-zero spec compiles to the disabled plan.
        let mut board_c = Board::msp430fr5994();
        let mut sc = weak_supply();
        let none = exec.run_plan_faulted(
            &plan,
            &mut board_c,
            &mut sc,
            &FaultPlan::compile(&crate::FaultSpec::none()),
        );
        assert_eq!(plain, none);
    }

    #[test]
    fn armed_empty_plan_draws_but_never_fires() {
        // The overhead-bench baseline: an enabled plan with all-zero
        // thresholds pays for every draw yet injects nothing, so the
        // report matches the unfaulted run exactly.
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        let mut board_b = Board::msp430fr5994();
        let mut sb = weak_supply();
        let armed = exec.run_plan_faulted(&plan, &mut board_b, &mut sb, &FaultPlan::armed_empty(7));
        assert_eq!(plain, armed);
        assert!(armed.faults.is_clean());
    }

    /// The entry point one row of the options parity table drives.
    #[derive(Debug, Clone, Copy)]
    enum Path {
        Live,
        RecordThenReplay,
        Reference,
    }

    /// Runs `p` down `path` on a fresh board and weak supply. A recorded
    /// run is also replayed onto a second fresh board; every (report,
    /// board) pair the row produced is returned.
    fn parity_row<P: ExecProbe>(
        exec: &IntermittentExecutor,
        p: &Program,
        plan: &ExecutionPlan,
        path: Path,
        opts: RunOptions<'_, P>,
    ) -> Vec<(RunReport, Board)> {
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        match path {
            Path::Live => {
                let r = exec.run_plan_with(plan, &mut board, &mut supply, opts);
                vec![(r, board)]
            }
            Path::Reference => {
                let r = exec.run_reference(p, Integrity::None, &mut board, &mut supply, opts);
                vec![(r, board)]
            }
            Path::RecordThenReplay => {
                let (r, trace) = exec.record_plan_with(plan, &mut board, &mut supply, opts);
                assert_eq!(&r, trace.report());
                let mut replay_board = Board::msp430fr5994();
                let replayed = exec
                    .try_replay_trace(plan, &trace, &mut replay_board)
                    .expect("trace recorded from this plan");
                vec![(r, board), (replayed, replay_board)]
            }
        }
    }

    #[test]
    fn run_options_parity_across_probe_fault_and_trace() {
        use crate::probe::EventRing;

        // Mixed commit/ondemand/plain program on a weak supply: plenty
        // of brown-outs, dark skips, boots and on-demand commits. Every
        // {probe} x {fault plan} x {live, record then replay, reference}
        // combination must reproduce the plain planned run's report and
        // board meter bit for bit.
        let p = mixed_program(800);
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        let exec = IntermittentExecutor::default();
        let storm = FaultPlan::compile(&noisy_fault_spec(5));
        for fault in [&FaultPlan::NONE, &storm] {
            let mut base_board = Board::msp430fr5994();
            let base = exec.run_plan_faulted(&plan, &mut base_board, &mut weak_supply(), fault);
            assert!(base.outages > 0, "want outage coverage");
            assert_eq!(
                fault.enabled(),
                base.faults.injected() > 0,
                "fault coverage"
            );
            for path in [Path::Live, Path::RecordThenReplay, Path::Reference] {
                let opts = RunOptions::default().fault(fault);
                let mut ring = EventRing::new(1 << 16);
                let plain = parity_row(&exec, &p, &plan, path, opts);
                let probed = parity_row(&exec, &p, &plan, path, opts.probe(&mut ring));
                for (r, board) in plain.iter().chain(&probed) {
                    assert_eq!(*r, base, "{path:?} faulted={}", fault.enabled());
                    assert_eq!(board.meter(), base_board.meter(), "{path:?}");
                    assert_eq!(board.elapsed_cycles(), base_board.elapsed_cycles());
                    // A fresh board ends holding exactly the run's meter,
                    // its clock advanced by the meter's cycles.
                    assert_eq!(*board.meter(), r.meter, "{path:?}");
                    assert_eq!(board.elapsed_cycles(), r.meter.total_cycles());
                }
                assert_probe_stream(&ring, &base, fault.enabled(), path);
            }
        }
    }

    /// Checks one probed parity row's event stream against its report.
    fn assert_probe_stream(
        ring: &crate::probe::EventRing,
        r: &RunReport,
        faulted: bool,
        path: Path,
    ) {
        let count = |label: &str| ring.events().filter(|e| e.label() == label).count() as u64;
        assert_eq!(
            count("checkpoint_commit"),
            r.ondemand_checkpoints,
            "{path:?}"
        );
        assert_eq!(count("run_end"), 1);
        let last = ring.events().last().copied().unwrap();
        assert_eq!(
            last,
            ExecEvent::RunEnd {
                t: r.wall_seconds,
                outcome: r.outcome
            }
        );
        if matches!(path, Path::Reference) {
            // The interpreter has no coalesced segments to retire.
            assert_eq!(count("segment_retired"), 0);
        }
        if faulted {
            let kind_count = |kind: FaultKind| {
                ring.events()
                    .filter(|e| matches!(e, ExecEvent::FaultInjected { kind: k, .. } if *k == kind))
                    .count() as u64
            };
            assert_eq!(
                kind_count(FaultKind::SpuriousReset),
                r.faults.spurious_resets
            );
            assert_eq!(kind_count(FaultKind::TornCommit), r.faults.torn_commits);
            assert_eq!(kind_count(FaultKind::VoltageSag), r.faults.sag_ops);
            assert_eq!(count("corruption_detected"), r.faults.detected_corruptions);
            assert_eq!(r.faults.silent_corruptions, 0);
            assert!(ring.to_jsonl().contains("\"type\":\"fault_injected\""));
        } else {
            assert_eq!(count("brown_out"), r.outages);
            assert_eq!(count("boot"), r.restores);
            assert_eq!(count("dark_skip"), r.restores);
            // Dark skips carry the solved deficit and a positive duration.
            assert!(ring.events().all(|e| match *e {
                ExecEvent::DarkSkip { t0, t1, joules } => t1 > t0 && joules > 0.0,
                _ => true,
            }));
        }
        // Exports render every retained event.
        assert_eq!(ring.to_jsonl().lines().count(), ring.len());
        assert!(ring.to_chrome_trace().contains("\"traceEvents\""));
    }

    #[test]
    fn corrupt_restores_fall_back_and_count_cold_boots() {
        // Corrupt every restore of a commit-less program: every fallback
        // lands at op 0, so every corrupt restore is a cold boot and the
        // run (which can never bank progress anyway) ends NoProgress.
        let p = cpu_heavy_program(1000, 10_000, CheckpointSpec::NONE);
        let spec = crate::FaultSpec {
            seed: 11,
            reset_per_op: 0.0,
            sag_per_op: 0.0,
            sag_factor: 1.0,
            tear_per_commit: 0.0,
            corrupt_per_restore: 1.0,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: WearCurve::NONE,
        };
        let fault = FaultPlan::compile(&spec);
        let mut board = Board::msp430fr5994();
        let mut supply = weak_supply();
        let r = IntermittentExecutor::default().run_reference(
            &p,
            Integrity::None,
            &mut board,
            &mut supply,
            RunOptions::default().fault(&fault),
        );
        assert!(r.faults.corrupt_restores > 0);
        assert_eq!(r.faults.corrupt_restores, r.faults.detected_corruptions);
        assert_eq!(r.faults.corrupt_restores, r.faults.cold_boots);
        assert_eq!(r.faults.silent_corruptions, 0);
        assert_eq!(r.outcome, RunOutcome::NoProgress);
    }

    #[test]
    fn flip_storms_keep_planned_reference_parity() {
        // The flip draw and the recovery ladder must sit at the same
        // logical points in both executors, scheme by scheme.
        let mut p = mixed_program(800);
        p.set_restore_words(256);
        let exec = IntermittentExecutor::default();
        let spec = crate::FaultSpec {
            flip_per_commit_bit: 2e-4,
            wear: WearCurve {
                endurance_commits: 10,
            },
            ..noisy_fault_spec(21)
        };
        let fault = FaultPlan::compile(&spec);
        let mut saw_flips = false;
        let mut saw_ladder = false;
        for scheme in Integrity::ALL {
            let plan =
                ExecutionPlan::compile_with_integrity(p.clone(), &Board::msp430fr5994(), scheme);
            for supply in [bench_supply(), weak_supply()] {
                let mut board_a = Board::msp430fr5994();
                let mut board_b = Board::msp430fr5994();
                let mut sa = supply.clone();
                let mut sb = supply.clone();
                let opts = RunOptions::default().fault(&fault);
                let planned = exec.run_plan_with(&plan, &mut board_a, &mut sa, opts);
                let reference = exec.run_reference(&p, scheme, &mut board_b, &mut sb, opts);
                assert_eq!(planned, reference, "{scheme}");
                assert_eq!(board_a.meter(), board_b.meter());
                saw_flips |= planned.integrity.flips_injected > 0;
                saw_ladder |= planned.integrity.restores_resolved() > 0;
            }
        }
        assert!(saw_flips, "flip coverage: at least one run must flip");
        assert!(saw_ladder, "ladder coverage: at least one restore resolved");
    }

    #[test]
    fn schemes_disagree_only_on_detection_not_on_the_flip_stream() {
        // Spurious resets on the bench supply force restores without
        // brown-outs. Every scheme faces the same per-commit upset
        // rate; what differs is what each scheme *does* about the
        // damage — None swallows it, Checksum rejects and falls back
        // (re-executing, hence drawing more flips overall), SECDED
        // repairs single-bit upsets in place.
        let mut p = mixed_program(800);
        p.set_restore_words(256);
        let spec = crate::FaultSpec {
            seed: 29,
            reset_per_op: 0.02,
            flip_per_commit_bit: 2e-4,
            ..crate::FaultSpec::none()
        };
        let fault = FaultPlan::compile(&spec);
        let exec = IntermittentExecutor::default();
        let mut reports = Vec::new();
        for scheme in Integrity::ALL {
            let plan =
                ExecutionPlan::compile_with_integrity(p.clone(), &Board::msp430fr5994(), scheme);
            let mut board = Board::msp430fr5994();
            let mut supply = bench_supply();
            reports.push(exec.run_plan_faulted(&plan, &mut board, &mut supply, &fault));
        }
        let [none, checksum, secded] = &reports[..] else {
            unreachable!()
        };
        for r in &reports {
            assert!(r.integrity.flips_injected > 0, "want flip coverage");
        }
        // None restores damage silently and detects nothing.
        assert!(none.integrity.silent_restores > 0);
        assert_eq!(
            none.faults.silent_corruptions,
            none.integrity.silent_restores
        );
        assert_eq!(none.integrity.flips_detected, 0);
        assert_eq!(none.integrity.flips_repaired, 0);
        // Checksum detects (and never repairs); SECDED repairs singles.
        assert_eq!(checksum.integrity.silent_restores, 0);
        assert_eq!(checksum.faults.silent_corruptions, 0);
        assert!(checksum.integrity.flips_detected > 0);
        assert_eq!(checksum.integrity.flips_repaired, 0);
        assert_eq!(secded.integrity.silent_restores, 0);
        assert_eq!(secded.faults.silent_corruptions, 0);
        assert!(secded.integrity.flips_repaired > 0);
        // Every restore resolves through exactly one ladder rung.
        for r in &reports {
            assert_eq!(r.integrity.restores_resolved(), r.restores);
        }
    }

    #[test]
    fn armed_empty_integrity_changes_only_the_integrity_tally() {
        // The wear-sweep inert baseline: flip draws armed at rate zero
        // walk the full ladder on every restore but never land damage,
        // so everything except the integrity telemetry is bit-identical
        // to the unfaulted run.
        let p = mixed_program(600);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let exec = IntermittentExecutor::default();
        let mut board_a = Board::msp430fr5994();
        let mut sa = weak_supply();
        let plain = exec.run_plan(&plan, &mut board_a, &mut sa);
        let mut board_b = Board::msp430fr5994();
        let mut sb = weak_supply();
        let armed = exec.run_plan_faulted(
            &plan,
            &mut board_b,
            &mut sb,
            &FaultPlan::armed_empty_integrity(7),
        );
        let mut stripped = armed.clone();
        stripped.integrity = plain.integrity;
        assert_eq!(plain, stripped);
        assert!(armed.faults.is_clean());
        assert_eq!(armed.integrity.flips_injected, 0);
        assert_eq!(armed.integrity.silent_restores, 0);
        assert_eq!(armed.integrity.flips_detected, 0);
        assert_eq!(armed.integrity.ladder, [armed.restores, 0, 0, 0]);
        assert!(armed.integrity.wear_max_commits > 0, "commits were tracked");
    }

    /// The event stream both paths must agree on: every event but
    /// segment retirements, with checkpoint slots zeroed (the paths
    /// number them differently). It records one run's stream, then
    /// checks a second run against it event by event, so only one
    /// stream is held in memory.
    #[derive(Default)]
    struct SharedStream {
        events: Vec<ExecEvent>,
        /// `Some(k)` while checking: the index of the next expected event.
        checked: Option<usize>,
        case: String,
    }

    impl ExecProbe for SharedStream {
        const ENABLED: bool = true;
        const TIMED: bool = false;

        fn event(&mut self, event: ExecEvent) {
            let event = match event {
                ExecEvent::SegmentRetired { .. } => return,
                ExecEvent::CheckpointCommit { t, .. } => ExecEvent::CheckpointCommit { t, slot: 0 },
                e => e,
            };
            match &mut self.checked {
                None => self.events.push(event),
                Some(k) => {
                    let case = &self.case;
                    assert_eq!(self.events.get(*k), Some(&event), "event {k}: {case}");
                    *k += 1;
                }
            }
        }

        fn span(&mut self, _phase: ExecPhase, _seconds: f64) {}
    }

    #[test]
    fn both_paths_emit_the_same_event_stream() {
        // Per-kind counts cannot catch a reordered commit and flip, so
        // the two paths' streams are compared event for event, across
        // every fault family, scheme and supply.
        let mut p = mixed_program(800);
        p.set_restore_words(256);
        let flip_wear = crate::FaultSpec {
            flip_per_commit_bit: 2e-4,
            wear: WearCurve {
                endurance_commits: 10,
            },
            ..noisy_fault_spec(21)
        };
        let reset_flip = crate::FaultSpec {
            seed: 29,
            reset_per_op: 0.02,
            flip_per_commit_bit: 2e-4,
            ..crate::FaultSpec::none()
        };
        let plain = IntermittentExecutor::default();
        let budgeted = IntermittentExecutor::new(ExecutorConfig {
            energy_budget_nj: Some(5e5),
            ..ExecutorConfig::default()
        });
        let cases = [
            (&plain, crate::FaultSpec::none()),
            (&plain, noisy_fault_spec(5)),
            (&plain, flip_wear),
            (&plain, reset_flip),
            (&budgeted, noisy_fault_spec(5)),
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for (exec, spec) in cases {
            let fault = FaultPlan::compile(&spec);
            for scheme in Integrity::ALL {
                let plan = ExecutionPlan::compile_with_integrity(
                    p.clone(),
                    &Board::msp430fr5994(),
                    scheme,
                );
                for supply in [bench_supply(), weak_supply()] {
                    let mut stream = SharedStream {
                        case: format!("{scheme} {spec:?}"),
                        ..SharedStream::default()
                    };
                    let opts = RunOptions::default().fault(&fault);
                    let reference = exec.run_reference(
                        &p,
                        scheme,
                        &mut Board::msp430fr5994(),
                        &mut supply.clone(),
                        opts.probe(&mut stream),
                    );
                    stream.checked = Some(0);
                    let planned = exec.run_plan_with(
                        &plan,
                        &mut Board::msp430fr5994(),
                        &mut supply.clone(),
                        opts.probe(&mut stream),
                    );
                    assert_eq!(planned, reference, "{}", stream.case);
                    assert_eq!(stream.checked, Some(stream.events.len()), "{}", stream.case);
                    kinds.extend(stream.events.iter().map(ExecEvent::label));
                }
            }
        }
        assert_eq!(
            kinds.len(),
            12,
            "every non-segment event kind occurs: {kinds:?}"
        );
    }

    #[test]
    fn run_continuous_sums_costs() {
        let p = cpu_heavy_program(10, 100, CheckpointSpec::NONE);
        let mut board = Board::msp430fr5994();
        let c = crate::run_continuous(&p, &mut board);
        assert_eq!(c.cycles.raw(), 1000);
        assert!(c.energy.nanojoules() > 0.0);
    }
}
