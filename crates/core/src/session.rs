//! [`DeviceSession`]: a live board + compiled execution plan, reused
//! across inferences.
//!
//! The legacy free functions rebuilt a fresh [`Board`] and re-lowered
//! the strategy program on **every** call — measurable waste when a
//! caller loops over a dataset. A session hoists everything
//! data-independent out of the hot loop: the board and the costed
//! [`ExecutionPlan`] (the lowered strategy [`Program`] priced once
//! against the board) are built when the session opens, so intermittent
//! replays run the plan's priced op kinds with no per-op pricing, and
//! continuous-power pricing is a compile-time fold over the same plan.

use crate::deployment::{quantize_input, Deployment};
use crate::error::Error;
use ehdl_ace::reference;
use ehdl_datasets::Dataset;
use ehdl_device::{Board, Cost, EnergyMeter};
use ehdl_ehsim::{
    ExecProbe, ExecutionPlan, FaultPlan, IntermittentExecutor, PowerSupply, Program, RunOptions,
    RunReport, RunTrace,
};
use ehdl_fixed::{OverflowStats, Q15};
use ehdl_nn::Tensor;
use std::sync::Arc;

/// One inference result on the simulated device.
#[derive(Debug, Clone)]
pub struct InferenceOutcome {
    /// Raw logits.
    pub logits: Vec<Q15>,
    /// Argmax class.
    pub prediction: usize,
    /// Cycles and energy of the strategy program on the board.
    pub cost: Cost,
    /// Fixed-point saturation counters (zero on a normalized model).
    pub overflow: OverflowStats,
}

impl core::fmt::Display for InferenceOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "class {} in {:.2} ms / {}",
            self.prediction,
            self.cost.cycles.as_millis(16e6),
            self.cost.energy
        )
    }
}

/// A deployed model bound to one board and one lowered strategy program.
///
/// Open with [`Deployment::session`]. All inference entry points reuse
/// the session's board and program — nothing is re-allocated per call.
///
/// ```
/// use ehdl::prelude::*;
///
/// let mut model = ehdl::nn::zoo::har();
/// let data = ehdl::datasets::har(30, 7);
/// let deployment = Deployment::builder(&mut model, &data).build()?;
/// let mut session = deployment.session();
/// let outcomes = session.infer_batch(
///     &data.samples().iter().map(|s| s.input.clone()).collect::<Vec<_>>(),
/// )?;
/// assert_eq!(outcomes.len(), data.len());
/// # Ok::<(), ehdl::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceSession<'d> {
    deployment: &'d Deployment,
    board: Board,
    /// The lowered strategy program priced once against the board —
    /// shared (possibly across many sessions) behind an `Arc` so fleet
    /// sweeps compile it once per (workload, board, strategy).
    plan: Arc<ExecutionPlan>,
}

impl<'d> DeviceSession<'d> {
    pub(crate) fn new(deployment: &'d Deployment, board: Board, plan: Arc<ExecutionPlan>) -> Self {
        DeviceSession {
            deployment,
            board,
            plan,
        }
    }

    /// The deployment this session runs.
    pub fn deployment(&self) -> &'d Deployment {
        self.deployment
    }

    /// The session's board (memory budgets, monitor). Its meter
    /// accumulates across [`infer_intermittent`](Self::infer_intermittent)
    /// calls; continuous-power pricing is metered separately — see
    /// [`continuous_meter`](Self::continuous_meter).
    pub fn board(&self) -> &Board {
        &self.board
    }

    /// The lowered device program executed by this session, rebuilt
    /// from the plan on first call (see [`ExecutionPlan::program`]).
    pub fn program(&self) -> &Program {
        self.plan.program()
    }

    /// The compiled execution plan the session replays: the program
    /// priced once against the board, one priced kind per distinct op.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// Runs one inference under continuous power: bit-exact reference
    /// arithmetic for the *values*, the cached continuous-power pricing
    /// run for the *costs* (see [`continuous_cost`](Self::continuous_cost);
    /// the session [`board`](Self::board)'s own meter is reserved for
    /// intermittent runs and is not advanced by this call).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Ace`] on input-shape mismatch.
    pub fn infer(&mut self, input: &Tensor) -> Result<InferenceOutcome, Error> {
        let x = quantize_input(input);
        let mut overflow = OverflowStats::new();
        let logits = reference::forward_with_stats(self.deployment.quantized(), &x, &mut overflow)?;
        let prediction = reference::argmax(&logits);
        let cost = self.continuous_cost();
        Ok(InferenceOutcome {
            logits,
            prediction,
            cost,
            overflow,
        })
    }

    /// Runs one inference per input tensor, reusing the board, program
    /// and cached program cost across the whole batch.
    ///
    /// # Errors
    ///
    /// Returns the first per-sample error; earlier outcomes are dropped.
    pub fn infer_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<InferenceOutcome>, Error> {
        inputs.iter().map(|input| self.infer(input)).collect()
    }

    /// Runs the deployed model under the given supply with the session's
    /// checkpoint strategy. The supply is cloned, so every call replays
    /// the same power environment from its configured initial state.
    pub fn infer_intermittent(&mut self, supply: &PowerSupply) -> RunReport {
        let mut supply = supply.clone();
        self.infer_intermittent_with(
            &IntermittentExecutor::default(),
            &mut supply,
            RunOptions::default(),
        )
    }

    /// Runs the session's compiled plan with a custom executor on a
    /// caller-owned supply (drained in place), under `opts`' fault plan
    /// and probe (see [`RunOptions`]) — no per-op pricing.
    pub fn infer_intermittent_with<P: ExecProbe>(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> RunReport {
        executor.run_plan_with(&self.plan, &mut self.board, supply, opts)
    }

    /// [`infer_intermittent_with`](Self::infer_intermittent_with),
    /// additionally recording the run as a [`RunTrace`]: its report plus
    /// the plan's identity. A run meters itself from zero, so when the
    /// supply is deterministic (its harvester is a pure function of
    /// time) the report is the same on any board, and
    /// [`try_infer_intermittent_replay`](Self::try_infer_intermittent_replay)
    /// replays the run bit-identically — faults included — by merging
    /// the report: the fleet engine's run-deduplication fast path.
    pub fn record_intermittent_with<P: ExecProbe>(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> (RunReport, RunTrace) {
        executor.record_plan_with(&self.plan, &mut self.board, supply, opts)
    }

    /// Reference-path twin of
    /// [`infer_intermittent_with`](Self::infer_intermittent_with): runs
    /// the session's program, at its plan's integrity scheme, through
    /// the retained op-by-op interpreter instead of the compiled plan.
    /// Slower by design; parity suites diff the two paths, which must
    /// agree bit for bit.
    pub fn infer_reference_with<P: ExecProbe>(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, P>,
    ) -> RunReport {
        let program = self.plan.program();
        executor.run_reference(
            program,
            self.plan.integrity(),
            &mut self.board,
            supply,
            opts,
        )
    }

    /// Replays a [`RunTrace`] recorded from this session's plan under a
    /// deterministic supply and the same executor configuration: the
    /// recorded report's meter merges into the board's and the clock
    /// advances by its cycles, exactly as a live run would leave them,
    /// and the returned report is bit-identical to one.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::TraceMismatch`](crate::ConfigError::TraceMismatch)
    /// if the trace was recorded from a plan whose shape (op or
    /// checkpoint count) or pricing (integrity scheme, clock or costs)
    /// differs from this session's; the board is left untouched.
    pub fn try_infer_intermittent_replay(
        &mut self,
        executor: &IntermittentExecutor,
        trace: &RunTrace,
    ) -> Result<RunReport, Error> {
        Ok(executor.try_replay_trace(&self.plan, trace, &mut self.board)?)
    }

    /// [`infer_intermittent_with`](Self::infer_intermittent_with) under
    /// `fault` alone.
    pub fn infer_intermittent_faulted(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> RunReport {
        self.infer_intermittent_with(executor, supply, RunOptions::default().fault(fault))
    }

    /// [`infer_intermittent_with`](Self::infer_intermittent_with) under
    /// `fault`, observed by `probe`.
    pub fn infer_intermittent_faulted_probed<P: ExecProbe>(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
        probe: &mut P,
    ) -> RunReport {
        self.infer_intermittent_with(
            executor,
            supply,
            RunOptions::default().fault(fault).probe(probe),
        )
    }

    /// [`record_intermittent_with`](Self::record_intermittent_with)
    /// under `fault` alone.
    pub fn infer_intermittent_faulted_traced(
        &mut self,
        executor: &IntermittentExecutor,
        supply: &mut PowerSupply,
        fault: &FaultPlan,
    ) -> (RunReport, RunTrace) {
        self.record_intermittent_with(executor, supply, RunOptions::default().fault(fault))
    }

    /// [`try_infer_intermittent_replay`](Self::try_infer_intermittent_replay)
    /// for a trace known to come from this session's plan.
    ///
    /// # Panics
    ///
    /// Panics if the trace was recorded from a differently shaped or
    /// priced plan.
    pub fn infer_intermittent_replay(
        &mut self,
        executor: &IntermittentExecutor,
        trace: &RunTrace,
    ) -> RunReport {
        self.try_infer_intermittent_replay(executor, trace)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Quantized-model accuracy over a dataset (Table II "Accuracy"
    /// column). Values come from the bit-exact reference pass; no board
    /// time is simulated.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Ace`] on shape mismatch.
    pub fn accuracy(&self, data: &Dataset) -> Result<f64, Error> {
        crate::deployment::quantized_accuracy(self.deployment.quantized(), data)
    }

    /// The continuous-power cost of the session's program — a fold the
    /// execution plan computed at compile time (the cost model is
    /// data-independent, so one pricing pass serves every inference).
    /// The session [`board`](Self::board)'s meter is never involved.
    pub fn continuous_cost(&self) -> Cost {
        self.plan.continuous_cost()
    }

    /// Per-component energy of one continuous-power inference (the
    /// Figure 7(c) breakdown), from the same compile-time fold as
    /// [`continuous_cost`](Self::continuous_cost).
    pub fn continuous_meter(&self) -> &EnergyMeter {
        self.plan.continuous_meter()
    }
}

// Scenario-sweep engines (crates/fleet) share one built `Deployment`
// across a worker pool and open a `DeviceSession` inside each worker
// thread. These bounds are part of the public contract; losing them
// (e.g. by adding an `Rc` or a raw pointer to either type) is a
// compile-time error here rather than a breakage in downstream crates.
const _: () = {
    const fn deployments_are_shareable<T: Send + Sync>() {}
    const fn sessions_are_sendable<T: Send>() {}
    deployments_are_shareable::<Deployment>();
    deployments_are_shareable::<Error>();
    sessions_are_sendable::<DeviceSession<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::{CalibrationConfig, Strategy};
    use ehdl_ehsim::{Capacitor, Harvester};

    fn har_session_parts() -> (Deployment, Dataset) {
        let mut model = ehdl_nn::zoo::har();
        let data = ehdl_datasets::har(40, 11);
        let d = Deployment::builder(&mut model, &data)
            .calibration(CalibrationConfig::default())
            .build()
            .unwrap();
        (d, data)
    }

    #[test]
    fn infer_reuses_board_and_program() {
        let (d, data) = har_session_parts();
        let mut session = d.session();
        let a = session.infer(&data.samples()[0].input).unwrap();
        let b = session.infer(&data.samples()[1].input).unwrap();
        // The program cost is data-independent and cached.
        assert_eq!(a.cost, b.cost);
        assert!(a.cost.cycles.raw() > 0);
        // Pricing runs on a dedicated board: the session board stays
        // untouched for intermittent metering.
        assert_eq!(session.board().elapsed_cycles().raw(), 0);
        assert!(session.continuous_meter().total_energy().nanojoules() > 0.0);
    }

    #[test]
    fn continuous_pricing_does_not_clobber_intermittent_meter() {
        let (d, _) = har_session_parts();
        let mut session = d.session();
        let supply = PowerSupply::new(
            Harvester::square(0.002, 0.05, 0.5),
            Capacitor::new(15e-6, 3.3, 3.0, 1.8),
        );
        let report = session.infer_intermittent(&supply);
        assert!(report.completed());
        let metered = session.board().meter().total_energy().nanojoules();
        assert!(metered > 0.0);
        // Pricing afterwards must not reset what the board accumulated.
        let _ = session.continuous_cost();
        assert_eq!(session.board().meter().total_energy().nanojoules(), metered);
    }

    #[test]
    fn infer_matches_legacy_bare_cost() {
        // Under continuous power FLEX (on-demand) costs the same cycles
        // as bare ACE — the legacy infer_continuous behaviour.
        let (d, data) = har_session_parts();
        let mut flex = d.session();
        let flex_cost = flex.infer(&data.samples()[0].input).unwrap().cost;
        let mut model = ehdl_nn::zoo::har();
        let bare = Deployment::builder(&mut model, &data)
            .strategy(Strategy::Bare)
            .build()
            .unwrap();
        let bare_cost = bare.session().continuous_cost();
        assert_eq!(flex_cost.cycles, bare_cost.cycles);
    }

    #[test]
    fn intermittent_replays_from_fresh_supply() {
        let (d, _) = har_session_parts();
        let mut session = d.session();
        let supply = PowerSupply::new(
            Harvester::square(0.002, 0.05, 0.5),
            Capacitor::new(15e-6, 3.3, 3.0, 1.8),
        );
        let a = session.infer_intermittent(&supply);
        let b = session.infer_intermittent(&supply);
        assert!(a.completed() && b.completed());
        assert_eq!(a.outages, b.outages);
        assert_eq!(a.executed_ops, b.executed_ops);
    }

    #[test]
    fn try_replay_is_bit_identical_and_rejects_foreign_traces() {
        let (d, _) = har_session_parts();
        let exec = IntermittentExecutor::default();
        let mut recorder = d.session();
        let mut supply = PowerSupply::new(
            Harvester::square(0.002, 0.05, 0.5),
            Capacitor::new(15e-6, 3.3, 3.0, 1.8),
        );
        let (live, trace) = recorder.infer_intermittent_faulted_traced(
            &exec,
            &mut supply,
            &ehdl_ehsim::FaultPlan::NONE,
        );
        let mut replayer = d.session();
        let replayed = replayer
            .try_infer_intermittent_replay(&exec, &trace)
            .unwrap();
        assert_eq!(replayed, live);
        assert_eq!(
            replayer.board().meter().total_energy(),
            recorder.board().meter().total_energy()
        );

        // A trace from a one-op program cannot decode against the HAR
        // plan: a typed error, not a panic, and the board is untouched.
        let mut tiny = ehdl_ehsim::Program::new("tiny");
        tiny.push(
            ehdl_device::DeviceOp::CpuOps { count: 10 },
            ehdl_ehsim::CheckpointSpec::COMMIT,
        );
        let tiny_plan = ehdl_ehsim::ExecutionPlan::compile(tiny, &d.board_spec().board());
        let mut board = d.board_spec().board();
        let (_, foreign) = exec.record_plan_with(
            &tiny_plan,
            &mut board,
            &mut supply.clone(),
            RunOptions::default(),
        );
        let before = replayer.board().meter().clone();
        let err = replayer
            .try_infer_intermittent_replay(&exec, &foreign)
            .unwrap_err();
        assert!(
            matches!(err, Error::Config(crate::ConfigError::TraceMismatch(_))),
            "{err}"
        );
        assert!(err.to_string().contains("differently shaped plan"), "{err}");
        assert_eq!(*replayer.board().meter(), before);
    }

    #[test]
    fn shared_plan_sessions_match_freshly_compiled_ones() {
        let (d, _) = har_session_parts();
        let supply = PowerSupply::new(
            Harvester::square(0.002, 0.05, 0.5),
            Capacitor::new(15e-6, 3.3, 3.0, 1.8),
        );
        let mut own = d.session();
        let mut shared = d.session_with_plan(Arc::new(d.compile_plan()));
        let a = own.infer_intermittent(&supply);
        let b = shared.infer_intermittent(&supply);
        assert_eq!(a, b);
        assert_eq!(own.continuous_cost(), shared.continuous_cost());
    }

    #[test]
    fn planned_and_reference_paths_agree() {
        let (d, _) = har_session_parts();
        let exec = IntermittentExecutor::default();
        let supply = PowerSupply::new(
            Harvester::square(0.002, 0.05, 0.5),
            Capacitor::new(15e-6, 3.3, 3.0, 1.8),
        );
        let mut planned = d.session();
        let mut reference = d.session();
        let mut sa = supply.clone();
        let mut sb = supply;
        let a = planned.infer_intermittent_with(&exec, &mut sa, RunOptions::default());
        let b = reference.infer_reference_with(&exec, &mut sb, RunOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn continuous_fold_matches_replaying_the_program() {
        let (d, _) = har_session_parts();
        let session = d.session();
        let mut pricing = d.board_spec().board();
        let cost = ehdl_ehsim::run_continuous(session.program(), &mut pricing);
        assert_eq!(session.continuous_cost(), cost);
        assert_eq!(session.continuous_meter(), pricing.meter());
    }

    #[test]
    fn accuracy_on_empty_dataset_is_zero() {
        let (d, _) = har_session_parts();
        let session = d.session();
        let empty = Dataset::new("e", 6, vec![]);
        assert_eq!(session.accuracy(&empty).unwrap(), 0.0);
    }
}
