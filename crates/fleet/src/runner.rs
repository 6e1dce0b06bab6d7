//! The fixed-pool executor that sweeps a [`ScenarioMatrix`] into a
//! [`MetricsSink`].

use crate::checkpoint::TraceMemo;
use crate::metrics::{FullReportSink, MetricsSink, RunRecord};
use crate::profile::PhaseProfile;
use crate::scenario::{Scenario, ScenarioMatrix};
use ehdl::deployment::quantized_accuracy;
use ehdl::ehsim::{
    ExecPhase, ExecProbe, ExecutionPlan, FaultPlan, IntermittentExecutor, NullProbe, PowerSupply,
    RunOptions, RunReport, RunTrace, SpanTimer, TimelineRecorder,
};
use ehdl::{CalibrationConfig, Deployment, DeviceSession, Error};
use ehdl_netsim::{DeviceTimeline, SharedField, WorldSim};
use std::any::Any;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Instant;

/// A per-key once-cell that counts the claims its key has left. The
/// first worker to find the slot empty builds its value holding only
/// this slot's lock. Workers needing other keys never wait on the build;
/// workers needing this key wait for it instead of building it again —
/// or, for deployments, first build a later scenario's value ahead of
/// time with [`try_fill`](Self::try_fill). For traces the build is the
/// recording run itself, so every other claimant of the tuple waits for
/// that one recording and replays it.
///
/// The contract that keeps cache counters worker-count-invariant:
/// each value is **claimed** by the scenarios that need it, and exactly
/// one claim per key reports `built == true` — the claim that built it,
/// or, for a value built ahead, the first claim after the fill. Misses
/// therefore count distinct keys whoever did the building. A failed
/// build, claimed or ahead, leaves the slot empty, so the next scenario
/// needing the key rebuilds it and reports its own error.
///
/// A slot starts with the number of claims the sweep will make on its
/// key (see [`Caches::count`]). The claim that spends the last one takes
/// the value out, so the value is freed when its last scenario is done
/// with it, and a spent slot is never filled again.
struct Slot<V>(Mutex<SlotState<V>>);

/// A [`Slot`]'s contents, read and filled under the slot's lock.
struct SlotState<V> {
    value: Option<Arc<V>>,
    /// The value was built ahead and nobody has claimed it yet: the
    /// first claim counts as the miss.
    unclaimed: bool,
    /// Claims still to come on this key.
    claims: u64,
}

impl<V> Slot<V> {
    /// An empty slot awaiting `claims` claims.
    fn new(claims: u64) -> Self {
        Slot(Mutex::new(SlotState {
            value: None,
            unclaimed: false,
            claims,
        }))
    }

    /// Locks the slot, blocking while another worker builds into it. A
    /// build that panicked never filled the slot, so a poisoned slot is
    /// an empty one.
    fn lock(&self) -> MutexGuard<'_, SlotState<V>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the slot unless another worker holds it (is building).
    fn try_lock(&self) -> Option<MutexGuard<'_, SlotState<V>>> {
        match self.0.try_lock() {
            Ok(state) => Some(state),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Locks the slot for a claim: at once when no other worker holds
    /// it, otherwise after running `busy` (a build ahead, for
    /// deployments), timing the wait as [`ExecPhase::SlotWait`].
    fn acquire(
        &self,
        mut profile: Option<&mut PhaseProfile>,
        busy: impl FnOnce(Option<&mut PhaseProfile>),
    ) -> MutexGuard<'_, SlotState<V>> {
        if let Some(state) = self.try_lock() {
            return state;
        }
        busy(profile.as_deref_mut());
        timed(profile, ExecPhase::SlotWait, || self.lock())
    }

    /// Builds ahead: fills the slot with `init()` only if nobody holds
    /// it, it is empty and claims on it remain, leaving the value
    /// unclaimed. `init` returning `None` (a failed build) leaves the
    /// slot empty. Returns whether `init` ran.
    fn try_fill(&self, init: impl FnOnce() -> Option<V>) -> bool {
        let Some(mut state) = self.try_lock() else {
            return false;
        };
        if state.value.is_some() || state.claims == 0 {
            return false;
        }
        if let Some(value) = init() {
            state.value = Some(Arc::new(value));
            state.unclaimed = true;
        }
        true
    }
}

impl<V> SlotState<V> {
    /// Claims the slot's value, built by `init` if the slot is still
    /// empty, and whether this claim counts as the build (see [`Slot`]).
    /// The claim that spends the key's count takes the value out.
    fn claim<E>(&mut self, init: impl FnOnce() -> Result<V, E>) -> Result<(Arc<V>, bool), E> {
        // An uncounted claim would find its value released; in release
        // builds it rebuilds it, deterministically and as a miss.
        debug_assert!(self.claims > 0, "a claim the sweep did not count");
        let (value, built) = match self.value.take() {
            Some(value) => (value, std::mem::take(&mut self.unclaimed)),
            None => (Arc::new(init()?), true),
        };
        self.claims = self.claims.saturating_sub(1);
        if self.claims > 0 {
            self.value = Some(Arc::clone(&value));
        }
        Ok((value, built))
    }
}

/// One of the runner's caches: a [`Slot`] per key the sweep will claim,
/// keyed by a dense index derived from the scenario. The table is fixed
/// before any worker starts, so finding a slot takes no lock, and each
/// value builds under its own slot, so a worker hitting a built key
/// never waits on another key's build.
struct SlotTable<V>(BTreeMap<usize, Slot<V>>);

impl<V> SlotTable<V> {
    /// Adds `claims` claims on `key`.
    fn count(&mut self, key: usize, claims: u64) {
        let slot = self.0.entry(key).or_insert_with(|| Slot::new(0));
        let state = slot.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.claims += claims;
    }

    /// The slot under `key`, which [`Caches::count`] counted.
    fn slot(&self, key: usize) -> &Slot<V> {
        &self.0[&key]
    }
}

/// The cache keys one scenario claims. The pre-pass that sizes the
/// caches and the claim sites both derive them here, so the claim
/// counts cannot drift from the claims.
#[derive(Clone, Copy)]
struct ClaimKeys {
    /// The (workload, board, seed) artifact.
    artifact: usize,
    /// The (workload, board, strategy, integrity scheme) plan.
    plan: usize,
    /// The (plan, environment, budget, fault) trace of a deterministic
    /// solo scenario on the planned path, claimed once per run. `None`
    /// for stochastic environments, networked worlds and the reference
    /// executor, which record nothing.
    trace: Option<usize>,
}

impl ClaimKeys {
    fn of(matrix: &ScenarioMatrix, scenario: &Scenario, reference: bool) -> Self {
        let plan = matrix.plan_key(scenario.index);
        let traced =
            !reference && scenario.topology.is_solo() && !scenario.environment.is_stochastic();
        let trace = traced.then(|| {
            ((plan * matrix.environments.len() + scenario.environment_key) * matrix.budgets.len()
                + scenario.budget_key)
                * matrix.faults.len()
                + scenario.fault_key
        });
        ClaimKeys {
            artifact: scenario.artifact_key,
            plan,
            trace,
        }
    }
}

/// The runner's three caches for one sweep, each value built at most
/// once under its own slot (see `lower` and `run_scenario`), so every
/// key misses exactly once at any worker count:
/// - one calibrated artifact per (workload, board, seed) — the built
///   deployment and its priced accuracy — shared by every strategy and
///   integrity scheme, since neither is read until a plan is lowered;
/// - one execution plan per (workload, board, strategy, integrity
///   scheme), shared across seeds too: the op stream and its costs
///   depend on the model architecture, the cost table and the scheme's
///   checkpoint padding, not on the calibration data;
/// - one recorded trace per (plan, environment, budget, fault) tuple,
///   populated by deterministic environments only. Budget and fault
///   schedule are part of the key because both change the trajectory a
///   recording captures.
struct Caches {
    artifacts: SlotTable<Calibrated>,
    plans: SlotTable<ExecutionPlan>,
    traces: SlotTable<RunTrace>,
}

impl Caches {
    /// Counts every claim `scenarios` will make, before any is made: one
    /// artifact and one plan per scenario, and one trace per run of a
    /// traced scenario. Residency is then bounded by the range itself.
    fn count(matrix: &ScenarioMatrix, scenarios: &[Scenario], reference: bool) -> Self {
        let mut caches = Caches {
            artifacts: SlotTable(BTreeMap::new()),
            plans: SlotTable(BTreeMap::new()),
            traces: SlotTable(BTreeMap::new()),
        };
        for scenario in scenarios {
            let keys = ClaimKeys::of(matrix, scenario, reference);
            caches.artifacts.count(keys.artifact, 1);
            caches.plans.count(keys.plan, 1);
            if let Some(trace) = keys.trace {
                caches.traces.count(trace, u64::from(matrix.runs));
            }
        }
        caches
    }
}

/// The strategy- and integrity-free half of a scenario's set-up, built
/// once per (workload, board, seed): the calibrated deployment and its
/// quantized accuracy on the seed's data slice. Calibration,
/// quantization, ACE compilation and the accuracy pass read neither the
/// strategy nor the integrity scheme, so every scenario of the key
/// shares one artifact.
struct Calibrated {
    deployment: Deployment,
    accuracy: f64,
}

/// What one scenario runs on: its shared calibrated artifact and the
/// plan lowered from it for the scenario's strategy and integrity
/// scheme.
struct Lowered {
    artifact: Arc<Calibrated>,
    plan: Arc<ExecutionPlan>,
}

/// Executes a [`ScenarioMatrix`] across a fixed pool of worker threads,
/// streaming one [`RunRecord`] per (scenario, run) into a
/// [`MetricsSink`].
///
/// Work is handed out scenario-by-scenario from an atomic cursor, so
/// any interleaving of workers visits every scenario exactly once. Each
/// scenario's runs fold into the sink's per-scenario accumulator inside
/// one worker in run order; completed accumulators flow back to the
/// coordinating thread, which merges them **in matrix order** as soon
/// as the ordered prefix is complete. That makes every sink's report a
/// pure function of the matrix: same matrix ⇒ identical report,
/// whether 1 or 64 workers ran it — and sinks that fold into fixed-size
/// state (e.g. [`DigestSink`](crate::DigestSink)) keep the whole sweep
/// in O(1) memory, with nothing retained per run.
///
/// The runner builds one calibrated [`Deployment`] per (workload,
/// board, seed) and shares it across every strategy, integrity scheme
/// and environment: calibration, quantization and ACE compilation never
/// read the strategy, which enters only when a plan is lowered. From
/// it, the runner compiles one costed [`ExecutionPlan`] per (workload,
/// board, strategy, integrity scheme) — op costs are program-, board-
/// and scheme-derived, never data- or environment-derived — and shares
/// it (via `Arc`) across every environment, seed and worker, so a
/// 10k-scenario sweep prices each distinct program exactly once.
/// Deployments, plans and recorded traces live in caches **sized by the
/// matrix**: before any worker starts, the runner counts how many times
/// each key will be claimed. Entries are built lazily by the first
/// worker that needs them, under a per-key once-cell, and freed when
/// their last claim is done, so nothing is ever evicted or rebuilt and
/// memory is bounded by the keys live in the sweep's range.
/// A worker that would wait on another worker's deployment build
/// builds a later scenario's deployment ahead instead, so the builds of
/// neighbouring keys overlap rather than queue.
///
/// Deterministic environments (every catalog entry except the burst
/// sources) go one step further: an intermittent run is a pure function
/// of (plan, environment, budget, fault schedule) — it never reads
/// input data — so the first run that needs a tuple records its
/// trajectory live as a [`RunTrace`], under the tuple's once-cell, and
/// every other seed, run and worker of that tuple waits for that
/// recording and replays it. Replays are bit-identical to live runs by
/// construction: a run meters itself from zero, so its report does not
/// depend on what the board ran before, and a replay merges the
/// recorded report into the board. That is what keeps the report
/// worker-count-independent.
///
/// Fault injection rides the same machinery: each
/// [`FaultSpec`](crate::FaultSpec) on the matrix's fault axis compiles
/// to one seeded [`FaultPlan`] shared across the sweep, and the
/// fault-free spec compiles to a disabled plan whose runs are
/// bit-identical to a pre-fault sweep.
///
/// # Configuring a sweep
///
/// One value holds everything a sweep reads besides the matrix: the
/// worker count, the [`reference_executor`](Self::reference_executor)
/// flag, the scenario [`range`](Self::range) (the whole matrix by
/// default) and the [`sink`](Self::sink) the runs fold into
/// ([`FullReportSink`] by default). [`run`](Self::run) and
/// [`run_profiled`](Self::run_profiled) consume it:
///
/// ```no_run
/// use ehdl_fleet::{DigestSink, FleetRunner, ScenarioMatrix};
///
/// let matrix = ScenarioMatrix::new();
/// let report = FleetRunner::new(2).run(&matrix)?;
/// let digest = FleetRunner::builder()
///     .workers(8)
///     .range(0..100)
///     .sink(DigestSink::new())
///     .run(&matrix)?;
/// println!("{report}\n{digest}");
/// # Ok::<(), ehdl::Error>(())
/// ```
#[derive(Debug)]
pub struct FleetRunner<S: MetricsSink = FullReportSink> {
    workers: usize,
    reference: bool,
    range: Range<usize>,
    /// The trace cache's disk tier; shard workers set it.
    memo: Option<TraceMemo>,
    sink: S,
}

impl FleetRunner {
    /// A runner with the given worker-pool size (clamped to ≥ 1) that
    /// sweeps the whole matrix into the compatibility
    /// [`FullReportSink`], retaining every scenario's report — the
    /// classic dense [`FleetReport`](crate::FleetReport).
    pub fn new(workers: usize) -> Self {
        FleetRunner {
            workers: workers.max(1),
            reference: false,
            range: 0..usize::MAX,
            memo: None,
            sink: FullReportSink::new(),
        }
    }

    /// [`new`](Self::new) with one worker per available core.
    pub fn builder() -> Self {
        Self::new(std::thread::available_parallelism().map_or(1, usize::from))
    }
}

impl<S: MetricsSink> FleetRunner<S> {
    /// Sets the worker-pool size (clamped to ≥ 1).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Routes every intermittent run through the retained op-by-op
    /// reference interpreter instead of the compiled execution plans,
    /// with a freshly lowered program per scenario — the pre-plan
    /// executor, kept so parity suites can diff the two paths over a
    /// whole matrix. Slow by design; not for production sweeps.
    pub fn reference_executor(mut self, reference: bool) -> Self {
        self.reference = reference;
        self
    }

    /// Sweeps only one contiguous index range of the matrix — how shard
    /// workers split a sweep. Scenario indices, fold order and
    /// per-scenario results are identical to the corresponding stretch
    /// of a whole-matrix sweep; only the range's deployments and plans
    /// are built, so memory stays O(range), not O(matrix). Ends beyond
    /// the matrix clamp.
    ///
    /// Profiles of consecutive ranges combine with
    /// [`PhaseProfile::merge`] in range order, reassembling every span
    /// count and cache lookup total of the whole-matrix sweep exactly.
    /// Hit/miss splits reassemble only when no cache key straddles a
    /// range boundary: every strategy of a (workload, board, seed)
    /// shares one deployment, so each range that touches the key builds
    /// it once.
    pub fn range(mut self, range: Range<usize>) -> Self {
        self.range = range;
        self
    }

    /// Backs the trace cache with memos on disk: before recording a
    /// deterministic run, the sweep replays the tuple's memo if one is
    /// valid, and it publishes a memo for every run it records. How
    /// shard workers share recordings across shards.
    pub(crate) fn trace_memo(mut self, memo: TraceMemo) -> Self {
        self.memo = Some(memo);
        self
    }

    /// Replaces the sink, retyping the runner: [`run`](Self::run) then
    /// returns whatever that sink reports.
    pub fn sink<T: MetricsSink>(self, sink: T) -> FleetRunner<T> {
        FleetRunner {
            workers: self.workers,
            reference: self.reference,
            range: self.range,
            memo: self.memo,
            sink,
        }
    }

    /// Sweeps the matrix: fans the scenarios out over the pool (each
    /// distinct (workload, board, seed) deployment is built once,
    /// lazily, by the first worker that needs it) and streams every run
    /// into the sink under the deterministic fold/merge contract of
    /// [`MetricsSink`].
    ///
    /// # Errors
    ///
    /// Returns the error of the lowest-indexed failing scenario (or a
    /// deployment-build error, or the sink's first write error), so
    /// failures are deterministic too. A scenario whose worker-side work
    /// panics — its deployment build, its runs, or the sink's `open` or
    /// `fold` — fails with [`Error::ScenarioPanicked`] naming it,
    /// instead of unwinding through the caller.
    pub fn run(self, matrix: &ScenarioMatrix) -> Result<S::Report, Error>
    where
        S: Send,
    {
        self.run_range_inner(matrix, false)
            .map(|(report, _)| report)
    }

    /// [`run`](Self::run) with phase profiling: the sweep additionally
    /// collects a [`PhaseProfile`] — wall-clock span digests for charge
    /// solving, plan execution, checkpoint/restore, trace replay, sink
    /// folding and the set-up phases, plus plan/trace/deployment cache
    /// counters.
    ///
    /// The profile is a side channel: the sink report stays
    /// **bit-identical** to the unprofiled sweep at any worker count.
    /// Every cache counter and every span *count* but `slot_wait`'s is
    /// the same at any worker count: each key is built, or its trace
    /// recorded, exactly once. Timings are wall-clock and therefore
    /// never deterministic.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_profiled(self, matrix: &ScenarioMatrix) -> Result<(S::Report, PhaseProfile), Error>
    where
        S: Send,
    {
        self.run_range_inner(matrix, true)
            .map(|(report, profile)| (report, profile.unwrap_or_default()))
    }

    fn run_range_inner(
        self,
        matrix: &ScenarioMatrix,
        profiled: bool,
    ) -> Result<(S::Report, Option<PhaseProfile>), Error>
    where
        S: Send,
    {
        let FleetRunner {
            workers,
            reference,
            range,
            memo,
            sink,
        } = self;
        let (executors, fault_plans) = preflight(matrix)?;
        let mut profile = profiled.then(PhaseProfile::new);
        let scenarios = matrix.scenarios_range(range);
        if scenarios.is_empty() {
            return sink.finish().map(|report| (report, profile));
        }

        let caches = Caches::count(matrix, &scenarios, reference);

        // The sink is shared: workers briefly lock it to `open` each
        // scenario's accumulator as they claim it (so at most one
        // accumulator per worker is live — a fixed-size sink keeps the
        // whole sweep O(1)), and the coordinator locks it to `merge`
        // completed accumulators in matrix order.
        let sink = Mutex::new(sink);

        // One scenario's worker-side work: find or build what it runs
        // on (building a scenario in `ahead` first if it would otherwise
        // wait on another worker's build), open its accumulator and fold
        // its runs.
        let sweep_one = |scenario: &Scenario,
                         ahead: &[Scenario],
                         mut profile: Option<&mut PhaseProfile>|
         -> Result<S::Partial, Error> {
            let keys = ClaimKeys::of(matrix, scenario, reference);
            let lowered = lower(
                scenario,
                keys,
                ahead,
                matrix.calibration,
                &caches,
                profile.as_deref_mut(),
            )?;
            let mut partial = lock_sink(&sink).open(scenario, lowered.artifact.accuracy);
            let job = ScenarioRun {
                scenario,
                lowered: &lowered,
                trace_key: keys.trace,
                traces: &caches.traces,
                memo: memo.as_ref(),
                executor: &executors[scenario.budget_key],
                fault: &fault_plans[scenario.fault_key],
                runs: matrix.runs,
                reference,
            };
            let p = &mut partial;
            match (scenario.topology.is_solo(), profile) {
                (true, Some(profile)) => run_scenario::<S, _>(&job, p, profile),
                (true, None) => run_scenario::<S, _>(&job, p, NullProbe),
                (false, Some(profile)) => run_world_scenario::<S, _>(&job, p, profile),
                (false, None) => run_world_scenario::<S, _>(&job, p, NullProbe),
            }?;
            Ok(partial)
        };

        // Per-worker profiles (cache lookup counters plus every span a
        // worker times), merged into the coordinator's profile in
        // worker-index order after the sweep — timings are wall-clock
        // and thus never deterministic, but the merge order is.
        let worker_profiles: Mutex<Vec<(usize, PhaseProfile)>> = Mutex::new(Vec::new());

        let cursor = AtomicUsize::new(0);
        // The merge frontier (scenarios merged so far), mirrored into an
        // atomic so workers can apply backpressure: nobody claims a
        // scenario more than `window` ahead of it, which caps the
        // coordinator's reorder buffer even when one early scenario is
        // far slower than the rest.
        let merged = AtomicUsize::new(0);
        let window = 4 * workers.min(scenarios.len()) + 16;
        let total = scenarios.len();
        let (tx, rx) = mpsc::channel::<(usize, Result<S::Partial, Error>)>();

        // Lowest-indexed scenario failure and first sink failure, kept
        // separate so the error we return is deterministic.
        let mut run_error: Option<(usize, Error)> = None;
        let mut sink_error: Option<Error> = None;

        std::thread::scope(|scope| {
            let scenarios = &scenarios;
            let sweep_one = &sweep_one;
            let cursor = &cursor;
            let merged = &merged;
            let worker_profiles = &worker_profiles;
            for w in 0..workers.min(total) {
                let tx = tx.clone();
                scope.spawn(move || {
                    let mut local = profiled.then(PhaseProfile::new);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scenario) = scenarios.get(i) else {
                            break;
                        };
                        // Backpressure: the worker holding the lowest
                        // in-flight index never waits (everything below it
                        // has been sent, so the frontier reaches it), which
                        // rules out deadlock; everyone else idles on a timed
                        // doze — negligible CPU, and at most a stall-length
                        // wakeup lag — instead of inflating the reorder
                        // buffer.
                        let mut horizon = merged.load(Ordering::Relaxed).saturating_add(window);
                        while i >= horizon {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                            horizon = merged.load(Ordering::Relaxed).saturating_add(window);
                        }
                        // The scenarios this worker may build ahead for:
                        // the rest of the backpressure window.
                        let ahead = &scenarios[i + 1..horizon.min(total)];
                        // A panic in the scenario's own work fails that
                        // scenario with a typed error, the way a failed
                        // shard is reported, instead of unwinding through
                        // the whole sweep.
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            sweep_one(scenario, ahead, local.as_mut())
                        }))
                        .unwrap_or_else(|payload| {
                            Err(Error::ScenarioPanicked {
                                index: scenario.index,
                                name: scenario.name(),
                                message: panic_message(&*payload),
                            })
                        });
                        if tx.send((i, result)).is_err() {
                            break; // coordinator gone
                        }
                    }
                    if let Some(p) = local {
                        worker_profiles.lock().expect("profile lock").push((w, p));
                    }
                });
            }
            drop(tx);

            // Stream-merge on this thread: absorb each scenario's
            // accumulator the moment the ordered prefix allows, buffering
            // only out-of-order stragglers. Sinks see matrix order; the
            // buffer stays tiny because workers drain the cursor roughly
            // in order.
            let mut pending: BTreeMap<usize, S::Partial> = BTreeMap::new();
            let mut next = 0usize;
            for _ in 0..total {
                let Ok((i, result)) = rx.recv() else {
                    break; // worker panicked; scope join re-raises it
                };
                let failed = run_error.is_some() || sink_error.is_some();
                match result {
                    Ok(partial) if !failed => {
                        pending.insert(i, partial);
                    }
                    // Once anything has failed the sweep's result is
                    // already Err: later accumulators are dropped, not
                    // buffered (dispatch was halted below).
                    Ok(_) => {}
                    Err(e) => {
                        if run_error.as_ref().is_none_or(|(j, _)| i < *j) {
                            run_error = Some((i, e));
                        }
                    }
                }
                while let Some(partial) = pending.remove(&next) {
                    if sink_error.is_none() {
                        let t0 = profiled.then(Instant::now);
                        if let Err(e) = lock_sink(&sink).merge(partial) {
                            sink_error = Some(e);
                        }
                        if let (Some(p), Some(t0)) = (profile.as_mut(), t0) {
                            p.record(ExecPhase::SinkFold, t0.elapsed().as_secs_f64());
                        }
                    }
                    next += 1;
                    merged.store(next, Ordering::Relaxed);
                }
                if run_error.is_some() || sink_error.is_some() {
                    // Halt dispatch (in-flight scenarios still drain
                    // through the channel), release any backpressured
                    // worker, and drop the unmergeable suffix.
                    cursor.store(total, Ordering::Relaxed);
                    merged.store(total, Ordering::Relaxed);
                    pending.clear();
                }
            }
        });

        if let Some((_, e)) = run_error {
            return Err(e);
        }
        if let Some(e) = sink_error {
            return Err(e);
        }
        if let Some(p) = profile.as_mut() {
            let mut collected = worker_profiles.into_inner().expect("profile lock");
            collected.sort_by_key(|&(w, _)| w);
            for (_, worker) in &collected {
                p.merge(worker);
            }
        }
        sink.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .finish()
            .map(|report| (report, profile))
    }
}

/// Locks a sweep's shared sink. A sink whose `open` panicked is
/// poisoned, but that panic already fails the sweep with the
/// scenario's typed error and the report is discarded, so the guard is
/// taken as is rather than turning one scenario's panic into another's.
fn lock_sink<S>(sink: &Mutex<S>) -> MutexGuard<'_, S> {
    sink.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The message of a caught panic (`panic!` payloads are `&str` or
/// `String`).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Checks a matrix before any sweep work and compiles what every
/// scenario shares: one executor per energy-budget entry and one fault
/// plan per fault-axis entry. The in-process runner and the shard
/// coordinator both call it, so a bad matrix fails with the same typed
/// error on either path, before a deployment is built or a worker is
/// spawned.
///
/// Rejects executor tunables that would hang a worker (zero stall
/// budget, NaN wall clock, non-positive legacy charge step), for the
/// base config and every budget override of it, and malformed fault
/// specs (out-of-range rates, sag factor below 1). Like execution
/// plans, each fault plan is shared across every scenario, seed and
/// worker of its axis value; the fault-free spec compiles to a disabled
/// plan, which the executor treats as the pre-fault arithmetic bit for
/// bit.
pub(crate) fn preflight(
    matrix: &ScenarioMatrix,
) -> Result<(Vec<IntermittentExecutor>, Vec<FaultPlan>), Error> {
    matrix.executor.validate().map_err(Error::from)?;
    let executors = matrix
        .budgets
        .iter()
        .map(|budget| {
            let mut config = matrix.executor.clone();
            if let Some(nj) = *budget {
                config.energy_budget_nj = Some(nj);
            }
            IntermittentExecutor::try_new(config).map_err(Error::from)
        })
        .collect::<Result<_, _>>()?;
    let fault_plans = matrix
        .faults
        .iter()
        .map(|spec| {
            spec.validate().map_err(Error::from)?;
            Ok(FaultPlan::compile(spec))
        })
        .collect::<Result<_, Error>>()?;
    Ok((executors, fault_plans))
}

/// Finds or builds what one scenario runs on: its (workload, board,
/// seed) artifact, then its (workload, board, strategy, integrity) plan
/// — each built at most once, under its own [`Slot`].
///
/// A worker whose artifact slot is busy — another worker is building
/// it — builds ahead instead of idling: [`build_ahead`] fills the first
/// empty, idle artifact slot among `ahead` (the scenarios after this
/// one within the runner's backpressure window), and only then does the
/// worker block on its own slot. Build-ahead skips spent slots and
/// discards a failed build, and the first claim of a built-ahead
/// artifact counts as its miss (see [`Slot`]), so every counter and
/// report is what a one-worker sweep produces. Plans are never built
/// ahead.
///
/// Counts one deployment and one plan lookup and, when profiled, times
/// every deployment build, plan compile and wait on a busy slot.
fn lower(
    scenario: &Scenario,
    keys: ClaimKeys,
    ahead: &[Scenario],
    calibration: CalibrationConfig,
    caches: &Caches,
    mut profile: Option<&mut PhaseProfile>,
) -> Result<Lowered, Error> {
    let (artifact, built) = caches
        .artifacts
        .slot(keys.artifact)
        .acquire(profile.as_deref_mut(), |mut profile| {
            build_ahead(ahead, &caches.artifacts, |next| {
                timed(profile.as_deref_mut(), ExecPhase::DeployBuild, || {
                    calibrate(next, calibration)
                })
            });
        })
        .claim(|| {
            timed(profile.as_deref_mut(), ExecPhase::DeployBuild, || {
                calibrate(scenario, calibration)
            })
        })?;
    let Ok((plan, compiled)) = caches
        .plans
        .slot(keys.plan)
        .acquire(profile.as_deref_mut(), |_| {})
        .claim(|| {
            Ok::<_, Infallible>(timed(
                profile.as_deref_mut(),
                ExecPhase::PlanCompile,
                || {
                    artifact
                        .deployment
                        .compile_plan_for(scenario.strategy, scenario.integrity)
                },
            ))
        });
    if let Some(p) = profile {
        p.caches.deployment.lookup(built);
        p.caches.plan.lookup(compiled);
    }
    Ok(Lowered { artifact, plan })
}

/// Builds ahead for a worker about to wait on another worker's build:
/// fills the artifact slot of the first scenario in `ahead` whose slot
/// is empty, idle and not yet spent (see [`Slot::try_fill`]), then
/// returns whether it tried a build. It discards a failed or panicking
/// build, leaving the slot empty so the scenario that owns the key
/// rebuilds it and reports its own error.
fn build_ahead<V, E>(
    ahead: &[Scenario],
    table: &SlotTable<V>,
    mut build: impl FnMut(&Scenario) -> Result<V, E>,
) -> bool {
    let mut last = None;
    for next in ahead {
        // Scenarios sharing a key sit next to each other.
        if last.replace(next.artifact_key) == Some(next.artifact_key) {
            continue;
        }
        let slot = table.slot(next.artifact_key);
        if slot.try_fill(|| catch_unwind(AssertUnwindSafe(|| build(next))).ok()?.ok()) {
            return true;
        }
    }
    false
}

/// Runs `f`, recording its wall-clock seconds as `phase` when profiled.
fn timed<T>(profile: Option<&mut PhaseProfile>, phase: ExecPhase, f: impl FnOnce() -> T) -> T {
    let Some(p) = profile else {
        return f();
    };
    let t0 = Instant::now();
    let out = f();
    p.record(phase, t0.elapsed().as_secs_f64());
    out
}

/// Builds one calibrated artifact: calibrates, quantizes and
/// ACE-compiles the scenario's workload on its seed's data slice, then
/// prices the quantized accuracy. A pure function of (workload, board,
/// seed) and the matrix's calibration — never of the strategy or the
/// integrity scheme — which is what lets one artifact serve every
/// scenario of its key.
fn calibrate(scenario: &Scenario, calibration: CalibrationConfig) -> Result<Calibrated, Error> {
    let data = scenario.workload.dataset(scenario.seed);
    let mut model = scenario.workload.model();
    let deployment = Deployment::builder(&mut model, &data)
        .calibration(calibration)
        .board(scenario.board.clone())
        .build()?;
    let accuracy = quantized_accuracy(deployment.quantized(), &data)?;
    Ok(Calibrated {
        deployment,
        accuracy,
    })
}

/// Opens a session on the scenario's shared deployment running the
/// shared plan — or, in `reference` mode, a fresh plan compiled for the
/// scenario's strategy at its integrity scheme, so the reference
/// interpreter prices and recovers identically to the planned path.
fn open_session<'a>(
    scenario: &Scenario,
    lowered: &'a Lowered,
    reference: bool,
) -> DeviceSession<'a> {
    let deployment = &lowered.artifact.deployment;
    let plan = if reference {
        Arc::new(deployment.compile_plan_for(scenario.strategy, scenario.integrity))
    } else {
        Arc::clone(&lowered.plan)
    };
    deployment.session_with_plan(plan)
}

/// One scenario's runs, as a worker executes them: the scenario, what
/// it runs on, and how it runs.
struct ScenarioRun<'a> {
    scenario: &'a Scenario,
    lowered: &'a Lowered,
    /// The trace-cache key of a deterministic solo scenario.
    trace_key: Option<usize>,
    traces: &'a SlotTable<RunTrace>,
    memo: Option<&'a TraceMemo>,
    executor: &'a IntermittentExecutor,
    fault: &'a FaultPlan,
    runs: u32,
    reference: bool,
}

impl ScenarioRun<'_> {
    /// One live run on `session`: the compiled plan, or in `reference`
    /// mode the op-by-op interpreter.
    fn live<Q: ExecProbe>(
        &self,
        session: &mut DeviceSession<'_>,
        supply: &mut PowerSupply,
        opts: RunOptions<'_, Q>,
    ) -> RunReport {
        if self.reference {
            session.infer_reference_with(self.executor, supply, opts)
        } else {
            session.infer_intermittent_with(self.executor, supply, opts)
        }
    }
}

/// How a worker observes its runs: [`NullProbe`] when the sweep is
/// unprofiled, so the executor's hot loop and the runner's span timers
/// compile away, or the worker's [`PhaseProfile`], which collects the
/// executor's spans, the runner's own and the cache counters.
trait RunProbe: ExecProbe {
    /// The profile to count into, if any.
    fn profile(&mut self) -> Option<&mut PhaseProfile>;
}

impl RunProbe for NullProbe {
    fn profile(&mut self) -> Option<&mut PhaseProfile> {
        None
    }
}

impl RunProbe for &mut PhaseProfile {
    fn profile(&mut self) -> Option<&mut PhaseProfile> {
        Some(self)
    }
}

/// Runs one scenario on its shared deployment and shared execution
/// plan: `runs` intermittent inferences with per-run re-seeding, each
/// folded into the sink accumulator as a [`RunRecord`] in run order
/// (accuracy was priced once per deployment by the runner). Every run
/// consults the scenario's compiled [`FaultPlan`] — the fault-free
/// axis value compiles to a disabled plan, which executes the exact
/// pre-fault arithmetic. In `reference` mode the session compiles its
/// own plan and replays the op-by-op interpreter instead — the
/// pre-plan behavior parity suites compare against.
fn run_scenario<S: MetricsSink, P: RunProbe>(
    job: &ScenarioRun<'_>,
    partial: &mut S::Partial,
    mut probe: P,
) -> Result<(), Error> {
    let scenario = job.scenario;
    let mut session = open_session(scenario, job.lowered, job.reference);
    let opts = RunOptions::default().fault(job.fault);

    for run in 0..u64::from(job.runs) {
        let r = if let Some(key) = job.trace_key {
            // Deterministic environment: every (seed, run) replays the
            // one trajectory this (plan, environment, budget, fault)
            // tuple can take. The first run to claim the tuple's slot
            // *is* the recording: it executes live on this session's
            // board, holding only that slot, while every other claimant
            // waits for it and replays. A run meters itself from zero
            // and a replay merges the recorded report (fault effects
            // included) into the board, so replays are bit-identical to
            // live runs on this session's board. With a memo tier the
            // claim replays a valid memo instead of recording, and
            // publishes what it does record.
            let mut live = None;
            let Ok((recorded, built)) = job
                .traces
                .slot(key)
                .acquire(probe.profile(), |_| {})
                .claim(|| {
                    let plan = &job.lowered.plan;
                    if let Some(trace) = job.memo.and_then(|memo| memo.load(key, plan)) {
                        return Ok(trace);
                    }
                    let mut supply = scenario.environment.supply();
                    let span = SpanTimer::start::<P>();
                    let (report, recorded) = session.record_intermittent_with(
                        job.executor,
                        &mut supply,
                        opts.probe(&mut probe),
                    );
                    span.finish(&mut probe, ExecPhase::PlanExec);
                    live = Some(report);
                    if let Some(memo) = job.memo {
                        memo.publish(key, &recorded);
                    }
                    Ok::<_, Infallible>(recorded)
                });
            if let Some(p) = probe.profile() {
                p.caches.trace.lookup(built);
            }
            match live {
                Some(report) => report,
                None => {
                    let span = SpanTimer::start::<P>();
                    let r = session.try_infer_intermittent_replay(job.executor, &recorded)?;
                    span.finish(&mut probe, ExecPhase::TraceReplay);
                    r
                }
            }
        } else {
            // Stochastic environments get a fresh, reproducible seed per
            // run (the reference path reseeds deterministic ones too —
            // a no-op replay of the same waveform).
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            let span = SpanTimer::start::<P>();
            let r = job.live(&mut session, &mut supply, opts.probe(&mut probe));
            span.finish(&mut probe, ExecPhase::PlanExec);
            r
        };
        let record = RunRecord {
            scenario,
            run: run as u32,
            accuracy: job.lowered.artifact.accuracy,
            report: &r,
        };
        let span = SpanTimer::start::<P>();
        S::fold(partial, &record);
        span.finish(&mut probe, ExecPhase::SinkFold);
    }
    Ok(())
}

/// Runs one networked scenario: every device of the topology executes
/// `runs` intermittent inferences on the scenario's shared deployment
/// and execution plan, each under its [`SharedField`] share of the
/// harvest field, while a [`TimelineRecorder`] probe captures the
/// device's dark intervals and completion times. The assembled
/// [`WorldSim`] then resolves the gateway's polling schedule into one
/// `SloOutcome`, folded via [`MetricsSink::fold_slo`].
///
/// Devices advance strictly in id order and never interact mid-run —
/// the field is allocated up front and the gateway only observes
/// recorded timelines — so the result is a pure function of the
/// scenario at any worker count. Device 0 keeps the scenario seed
/// (which is what makes a single-device topology reproduce the solo
/// executor's records bit for bit); higher ids salt it so no two
/// devices replay the same stochastic waveform.
fn run_world_scenario<S: MetricsSink, P: RunProbe>(
    job: &ScenarioRun<'_>,
    partial: &mut S::Partial,
    mut probe: P,
) -> Result<(), Error> {
    let scenario = job.scenario;
    let topology = scenario.topology;
    let field = SharedField::for_topology(&topology);
    let mut world = WorldSim::new(topology);
    let mut recorder = TimelineRecorder::new();
    for device in 0..topology.devices {
        let scale = field.scale(device);
        // Scaling by exactly 1.0 is a bitwise identity, but skipping it
        // keeps the single-device fast path obvious.
        let env = if scale == 1.0 {
            scenario.environment.clone()
        } else {
            scenario.environment.scaled(scale)
        };
        let device_seed = scenario
            .seed
            .wrapping_add(u64::from(device).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut session = open_session(scenario, job.lowered, job.reference);
        let mut timeline = DeviceTimeline::new();
        for run in 0..u64::from(job.runs) {
            let reseeded;
            let run_env = if env.is_stochastic() {
                reseeded = env.reseeded(mix(device_seed, run));
                &reseeded
            } else {
                &env
            };
            let mut supply = run_env.supply();
            let span = SpanTimer::start::<P>();
            let opts = RunOptions::default().fault(job.fault).probe(&mut recorder);
            let r = job.live(&mut session, &mut supply, opts);
            span.finish(&mut probe, ExecPhase::PlanExec);
            timeline.push_run(&recorder.take());
            let record = RunRecord {
                scenario,
                run: device * job.runs + run as u32,
                accuracy: job.lowered.artifact.accuracy,
                report: &r,
            };
            let span = SpanTimer::start::<P>();
            S::fold(partial, &record);
            span.finish(&mut probe, ExecPhase::SinkFold);
        }
        world.add_device(device, timeline);
    }
    let outcome = timed(probe.profile(), ExecPhase::WorldResolve, || world.resolve());
    let span = SpanTimer::start::<P>();
    S::fold_slo(partial, &outcome);
    span.finish(&mut probe, ExecPhase::SinkFold);
    Ok(())
}

/// SplitMix64-style mix of (scenario seed, run index) — the per-run
/// reseed the runner applies to stochastic environments. Public so
/// external harnesses (e.g. the bench crate's scenario grid) can replay
/// exactly the supplies a fleet sweep would see.
pub fn mix(seed: u64, run: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CsvSink, DigestSink, GroupAxis, GroupBySink, JsonlSink};
    use crate::scenario::Workload;
    use crate::NetworkTopology;
    use ehdl::ehsim::{catalog, ExecutorConfig};
    use ehdl::Strategy;

    fn quick_executor() -> ExecutorConfig {
        ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        }
    }

    #[test]
    fn invalid_executor_config_is_rejected_before_the_sweep() {
        let matrix = ScenarioMatrix::new().executor(ExecutorConfig {
            stall_outages: 0,
            ..ExecutorConfig::default()
        });
        let err = FleetRunner::new(2).run(&matrix).unwrap_err();
        assert!(
            matches!(err, ehdl::Error::Config(_)),
            "want a typed config error, got {err}"
        );
        assert!(err.to_string().contains("stall_outages"), "{err}");
        // A NaN wall clock would disable the time limit silently.
        let matrix = ScenarioMatrix::new().executor(ExecutorConfig {
            max_wall_seconds: f64::NAN,
            ..ExecutorConfig::default()
        });
        assert!(FleetRunner::new(1).run(&matrix).is_err());
    }

    #[test]
    fn empty_matrix_yields_empty_report() {
        let matrix = ScenarioMatrix::new().environments(vec![]);
        let report = FleetRunner::new(4).run(&matrix).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.total_runs(), 0);
        let digest = FleetRunner::builder()
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.scenarios, 0);
    }

    #[test]
    fn bench_supply_flex_completes_and_reports() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply()])
            .workloads(vec![Workload::Har { samples: 6 }])
            .executor(quick_executor());
        let report = FleetRunner::new(2).run(&matrix).unwrap();
        assert_eq!(report.len(), 1);
        let s = &report.scenarios[0];
        assert_eq!(s.completed_runs, 1);
        assert_eq!(s.outages, 0, "bench supply never browns out");
        assert_eq!(s.latencies_ms.len(), 1);
        assert!(s.latencies_ms[0] > 0.0);
        assert!(s.energy_nj > 0.0);
        assert!((s.forward_progress() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stochastic_runs_vary_but_deterministic_runs_replay() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::office_rf()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic])
            .runs(2)
            .executor(quick_executor());
        let a = FleetRunner::new(1).run(&matrix).unwrap();
        let b = FleetRunner::new(1).run(&matrix).unwrap();
        // Reproducible across identical sweeps…
        assert_eq!(a, b);
        // …and the per-run reseeding makes burst runs differ from each
        // other (two identical latencies would mean the reseed is dead).
        let lat = &a.scenarios[0].latencies_ms;
        if lat.len() == 2 {
            assert_ne!(lat[0], lat[1]);
        }
    }

    #[test]
    fn reference_executor_reproduces_the_planned_report() {
        // The plan fast path and the op-by-op interpreter must agree bit
        // for bit over a matrix mixing strategies, environments and
        // seeds (two seeds exercise the cross-seed plan sharing).
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 3])
            .runs(2)
            .executor(quick_executor());
        let planned = FleetRunner::new(2).run(&matrix).unwrap();
        let reference = FleetRunner::new(2)
            .reference_executor(true)
            .run(&matrix)
            .unwrap();
        assert_eq!(planned, reference);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .executor(quick_executor());
        let one = FleetRunner::new(1).run(&matrix).unwrap();
        let four = FleetRunner::new(4).run(&matrix).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.to_string(), four.to_string());
    }

    #[test]
    fn builder_full_report_matches_run() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .executor(quick_executor());
        let classic = FleetRunner::new(3).run(&matrix).unwrap();
        let built = FleetRunner::builder().workers(3).run(&matrix).unwrap();
        assert_eq!(classic, built);
        let sunk = FleetRunner::builder()
            .workers(3)
            .sink(FullReportSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(classic, sunk);
    }

    #[test]
    fn digest_sink_agrees_with_the_full_report() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .runs(2)
            .executor(quick_executor());
        let full = FleetRunner::new(2).run(&matrix).unwrap();
        let digest = FleetRunner::builder()
            .workers(2)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.scenarios as usize, full.len());
        assert_eq!(digest.runs, full.total_runs());
        assert_eq!(digest.completed_runs, full.completed_runs());
        assert_eq!(digest.outages, full.total_outages());
        assert_eq!(digest.latency_ms.count(), full.completed_runs());
        assert!((digest.total_energy_mj() - full.total_energy_mj()).abs() < 1e-9);
        // Sketched percentiles sit within the documented bound of the
        // exact ones.
        let exact = full.latency_percentile_ms(50.0).unwrap();
        let est = digest.latency_ms.p50().unwrap();
        assert!((est - exact).abs() / exact <= crate::StatsDigest::RELATIVE_ERROR);
    }

    #[test]
    fn grouped_and_row_sinks_cover_every_run() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .runs(2)
            .executor(quick_executor());
        let grouped = FleetRunner::builder()
            .workers(2)
            .sink(GroupBySink::new(GroupAxis::Environment))
            .run(&matrix)
            .unwrap();
        assert_eq!(grouped.groups.len(), 2);
        assert_eq!(grouped.groups[0].0, "bench_supply");
        assert_eq!(
            grouped.groups.iter().map(|(_, d)| d.runs).sum::<u64>(),
            matrix.len() as u64 * 2
        );
        let (bytes, rows) = FleetRunner::builder()
            .workers(2)
            .sink(JsonlSink::new(Vec::new()))
            .run(&matrix)
            .unwrap();
        assert_eq!(rows, matrix.len() as u64 * 2);
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 8);
        let (bytes, rows) = FleetRunner::builder()
            .workers(2)
            .sink(CsvSink::new(Vec::new()))
            .run(&matrix)
            .unwrap();
        assert_eq!(rows, 8);
        assert_eq!(String::from_utf8(bytes).unwrap().lines().count(), 9);
    }

    #[test]
    fn profiled_sweep_report_is_bit_identical_and_counts_caches() {
        // 2 envs (one stochastic) × 2 strategies × 2 seeds × 2 runs.
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 3])
            .runs(2)
            .executor(quick_executor());
        let plain = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        let (profiled, profile) = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run_profiled(&matrix)
            .unwrap();
        // The profile is a pure side channel.
        assert_eq!(plain, profiled);

        // Deployments: one per (workload, board, seed) = 2, shared by
        // both strategies, looked up once per scenario (8).
        assert_eq!(profile.caches.deployment.misses, 2);
        assert_eq!(profile.caches.deployment.hits, 6);
        // Plans: one per strategy, shared across seeds = 2 keys, looked
        // up once per scenario (8).
        assert_eq!(profile.caches.plan.misses, 2);
        assert_eq!(profile.caches.plan.hits, 6);
        // Traces: only the deterministic env records — 2 (plan, env)
        // pairs over 2 seeds × 2 runs = 8 lookups.
        assert_eq!(profile.caches.trace.misses, 2);
        assert_eq!(profile.caches.trace.hits, 6);

        // Every run was timed exactly once: 8 deterministic lookups +
        // 8 stochastic runs.
        assert_eq!(
            profile.plan_exec_s.count() + profile.trace_replay_s.count(),
            16
        );
        // Sink folds: one per run plus one coordinator merge per
        // scenario.
        assert_eq!(profile.sink_fold_s.count(), 16 + 8);
        assert!(profile.total_seconds() > 0.0);

        // At any worker count the report, every cache counter and the
        // executed-vs-replayed split stay identical.
        for workers in [2, 8] {
            let (profiled, counted) = FleetRunner::builder()
                .workers(workers)
                .sink(DigestSink::new())
                .run_profiled(&matrix)
                .unwrap();
            assert_eq!(plain, profiled, "{workers} workers");
            assert_eq!(counted.caches, profile.caches, "{workers} workers");
            for phase in [ExecPhase::PlanExec, ExecPhase::TraceReplay] {
                assert_eq!(
                    counted.digest(phase).count(),
                    profile.digest(phase).count(),
                    "{workers} workers: {}",
                    phase.name()
                );
            }
        }

        // The profile survives its wire format bit-identically.
        let back = PhaseProfile::from_json(&profile.to_json()).unwrap();
        assert_eq!(back, profile);

        // Every lookup is a claim the pre-pass counted, and every
        // distinct key misses once — also for networked worlds, which
        // claim deployments and plans but no trace, and for the
        // reference executor, which claims no trace at all.
        let world = matrix.clone().topologies(vec![
            NetworkTopology::solo(),
            NetworkTopology::line(2, 1.0, 0.5),
        ]);
        for (matrix, reference) in [(&matrix, false), (&world, false), (&matrix, true)] {
            let expected = claim_totals(matrix, reference);
            assert!(expected[1].0 > 0 && (expected[2].0 == 0) == reference);
            for workers in [1, 2, 4, 8] {
                let (_, profile) = FleetRunner::builder()
                    .workers(workers)
                    .reference_executor(reference)
                    .sink(DigestSink::new())
                    .run_profiled(matrix)
                    .unwrap();
                let caches = profile.caches;
                let counted = [caches.deployment, caches.plan, caches.trace]
                    .map(|cache| (cache.lookups(), cache.misses));
                assert_eq!(
                    counted,
                    expected,
                    "{workers} workers, reference {reference}, {} topologies",
                    matrix.topologies.len()
                );
            }
        }
    }

    /// Per cache (deployment, plan, trace): the claims a sweep of
    /// `matrix` counts before it starts, and the distinct keys claimed.
    fn claim_totals(matrix: &ScenarioMatrix, reference: bool) -> [(u64, u64); 3] {
        fn totals<V>(table: &SlotTable<V>) -> (u64, u64) {
            let claims = table.0.values().map(|slot| slot.lock().claims);
            (
                claims.clone().sum(),
                claims.filter(|&n| n > 0).count() as u64,
            )
        }
        let caches = Caches::count(matrix, &matrix.scenarios(), reference);
        [
            totals(&caches.artifacts),
            totals(&caches.plans),
            totals(&caches.traces),
        ]
    }

    #[test]
    fn range_profiles_merge_to_the_whole_sweep_counts() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .executor(quick_executor());
        let runner = || FleetRunner::new(1).sink(DigestSink::new());
        let (_, whole) = runner().run_profiled(&matrix).unwrap();
        let mut merged = PhaseProfile::new();
        let mid = matrix.len() / 2;
        for range in [0..mid, mid..matrix.len()] {
            let (_, part) = runner().range(range).run_profiled(&matrix).unwrap();
            merged.merge(&part);
        }
        // The split puts one strategy, and so one plan, wholly in each
        // half: plan counters, trace lookups and span counts reassemble
        // exactly — all but the deployment builds, which follow the
        // deployment misses below.
        assert_eq!(merged.caches.plan, whole.caches.plan);
        assert_eq!(merged.caches.trace.lookups(), whole.caches.trace.lookups());
        for phase in ExecPhase::ALL {
            let rebuilt = u64::from(phase == ExecPhase::DeployBuild);
            assert_eq!(
                merged.digest(phase).count(),
                whole.digest(phase).count() + rebuilt,
                "{}",
                phase.name()
            );
        }
        // Both strategies share the one (workload, board, seed)
        // deployment, which the split cuts across, so each half builds
        // it once: lookups reassemble, misses only for ranges that do
        // not split a deployment key.
        assert_eq!(whole.caches.deployment.misses, 1);
        assert_eq!(merged.caches.deployment.misses, 2);
        assert_eq!(
            merged.caches.deployment.lookups(),
            whole.caches.deployment.lookups()
        );
    }

    #[test]
    fn a_built_ahead_value_counts_as_built_for_its_first_claimant_only() {
        let slot = Slot::<u32>::new(3);
        assert!(slot.try_fill(|| Some(7)));
        // A filled slot is never built again, ahead or claimed.
        assert!(!slot.try_fill(|| panic!("a filled slot never rebuilds")));
        let claim = |slot: &Slot<u32>| {
            slot.lock()
                .claim(|| Err::<u32, ()>(()))
                .map(|(v, built)| (*v, built))
        };
        assert_eq!(claim(&slot), Ok((7, true)));
        assert_eq!(claim(&slot), Ok((7, false)));
        assert_eq!(claim(&slot), Ok((7, false)));
        // A value built by its own claim counts on that claim only.
        let own = Slot::<u32>::new(2);
        let built = own.lock().claim(|| Ok::<_, ()>(3)).map(|(v, b)| (*v, b));
        assert_eq!(built, Ok((3, true)));
        assert_eq!(claim(&own), Ok((3, false)));
    }

    #[test]
    fn a_failed_build_ahead_leaves_the_slot_empty() {
        let slot = Slot::<u32>::new(1);
        assert!(slot.try_fill(|| None), "the build was tried");
        assert!(slot.lock().value.is_none());
        // The owning scenario rebuilds and reports its own error, which
        // spends no claim…
        let err = slot.lock().claim(|| Err::<u32, &str>("owner's error"));
        assert_eq!(err.unwrap_err(), "owner's error");
        assert_eq!(slot.lock().claims, 1);
        // …or, when its build succeeds, counts the miss.
        let (v, built) = slot.lock().claim(|| Ok::<_, &str>(5)).unwrap();
        assert_eq!((*v, built), (5, true));
        // A slot another worker holds is skipped, never waited on.
        let busy = Slot::<u32>::new(1);
        let held = busy.lock();
        assert!(!busy.try_fill(|| Some(1)));
        assert!(busy.try_lock().is_none());
        drop(held);
        assert!(busy.lock().value.is_none());
    }

    #[test]
    fn a_value_is_freed_when_its_last_claim_returns() {
        struct Counted(Arc<AtomicUsize>);
        impl Drop for Counted {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Slot::new(3);
        let claim = || {
            slot.lock()
                .claim(|| Ok::<_, ()>(Counted(Arc::clone(&drops))))
                .unwrap()
        };
        let (first, built) = claim();
        assert!(built);
        drop(first);
        let (second, built) = claim();
        assert!(!built);
        drop(second);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "one claim is still to come"
        );
        let (last, built) = claim();
        assert!(!built, "the last claim reuses the value");
        assert!(slot.lock().value.is_none(), "the last claim took it out");
        assert_eq!(slot.lock().claims, 0);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "its claimant still holds it"
        );
        drop(last);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "freed with its last claimant"
        );
        // A released key is never refilled ahead of need.
        assert!(!slot.try_fill(|| panic!("a spent slot never refills")));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    /// Three scenarios with artifact keys 0, 1 and 2.
    fn three_keys() -> (ScenarioMatrix, Vec<Scenario>) {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply()])
            .seeds(vec![0, 1, 2]);
        let scenarios = matrix.scenarios();
        let keys: Vec<usize> = scenarios.iter().map(|s| s.artifact_key).collect();
        assert_eq!(keys, [0, 1, 2]);
        (matrix, scenarios)
    }

    /// The artifact table a sweep of `scenarios` starts with: one claim
    /// on each of the three keys, on a `usize` stand-in value.
    fn artifact_table(matrix: &ScenarioMatrix, scenarios: &[Scenario]) -> SlotTable<usize> {
        let mut table = SlotTable(BTreeMap::new());
        for scenario in scenarios {
            table.count(ClaimKeys::of(matrix, scenario, false).artifact, 1);
        }
        table
    }

    #[test]
    fn build_ahead_skips_busy_filled_and_spent_slots() {
        let (matrix, scenarios) = three_keys();
        let build = |s: &Scenario| Ok::<_, ()>(s.artifact_key);
        let table = artifact_table(&matrix, &scenarios);
        // Key 0 is busy (another worker is building it) and key 1 is
        // spent (its one claim is done): build-ahead passes both and
        // fills key 2, the first idle, empty slot with claims left.
        let spent = table.slot(1).lock().claim(|| build(&scenarios[1]));
        assert_eq!(spent.map(|(v, built)| (*v, built)), Ok((1, true)));
        let _building = table.slot(0).lock();
        assert!(build_ahead(&scenarios, &table, build));
        assert!(table.slot(1).lock().value.is_none(), "spent: not refilled");
        assert_eq!(table.slot(2).lock().value.as_deref(), Some(&2));
        // Key 2 is now filled, so nothing is left to build ahead.
        assert!(!build_ahead(&scenarios, &table, |_| -> Result<usize, ()> {
            panic!("no slot is open for a build ahead")
        }));
        // One build per wait: with every slot open, only key 0 fills.
        let table = artifact_table(&matrix, &scenarios);
        assert!(build_ahead(&scenarios, &table, build));
        assert_eq!(table.slot(0).lock().value.as_deref(), Some(&0));
        assert!(table.slot(1).lock().value.is_none(), "one build per wait");
    }

    #[test]
    fn a_panicking_build_ahead_is_discarded() {
        let (matrix, scenarios) = three_keys();
        let table = artifact_table(&matrix, &scenarios);
        let tried = build_ahead(&scenarios[1..], &table, |_| -> Result<usize, ()> {
            panic!("injected build failure")
        });
        assert!(tried);
        let slot = table.slot(1);
        assert!(slot.lock().value.is_none(), "the panic left the slot empty");
        // A failing build is discarded the same way.
        assert!(build_ahead(&scenarios[1..], &table, |_| Err::<usize, ()>(
            ()
        )));
        assert!(slot.lock().value.is_none());
        assert_eq!(slot.lock().claims, 1, "a discarded build spends no claim");
    }

    /// A sink whose `fold` panics on the scenario with the given index.
    struct PanicsOn(usize);

    impl MetricsSink for PanicsOn {
        type Partial = usize;
        type Report = ();

        fn open(&self, _scenario: &Scenario, _accuracy: f64) -> usize {
            self.0
        }

        fn fold(partial: &mut usize, record: &RunRecord<'_>) {
            assert_ne!(record.scenario.index, *partial, "injected fold failure");
        }

        fn merge(&mut self, _partial: usize) -> Result<(), Error> {
            Ok(())
        }

        fn finish(self) -> Result<(), Error> {
            Ok(())
        }
    }

    #[test]
    fn a_panicking_scenario_is_a_typed_error_naming_it() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .executor(quick_executor());
        let scenarios = matrix.scenarios();
        let victim = &scenarios[2];
        for workers in [1, 3] {
            let err = FleetRunner::builder()
                .workers(workers)
                .sink(PanicsOn(victim.index))
                .run(&matrix)
                .unwrap_err();
            match err {
                Error::ScenarioPanicked {
                    index,
                    name,
                    message,
                } => {
                    assert_eq!(index, victim.index, "{workers} workers");
                    assert_eq!(name, victim.name(), "{workers} workers");
                    assert!(message.contains("injected fold failure"), "{message}");
                }
                other => panic!("{workers} workers: want a scenario panic, got {other}"),
            }
        }
        // The same sink sweeps cleanly when no scenario trips it.
        FleetRunner::builder()
            .workers(2)
            .sink(PanicsOn(matrix.len()))
            .run(&matrix)
            .unwrap();
    }

    #[test]
    fn energy_budget_aborts_are_counted_by_sinks() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .executor(ExecutorConfig {
                // Far below one accelerated inference (~120 µJ).
                energy_budget_nj: Some(1_000.0),
                ..quick_executor()
            });
        let report = FleetRunner::new(1).run(&matrix).unwrap();
        assert_eq!(report.scenarios[0].completed_runs, 0);
        assert_eq!(report.scenarios[0].energy_limited_runs, 1);
        let digest = FleetRunner::builder()
            .workers(1)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap();
        assert_eq!(digest.energy_limited_runs, 1);
        assert_eq!(digest.completed_runs, 0);
    }
}
