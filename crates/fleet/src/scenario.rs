//! Scenario definition and the cross-product matrix builder.

use ehdl::datasets::Dataset;
use ehdl::ehsim::{catalog, Environment, ExecutorConfig, FaultSpec, Integrity};
use ehdl::nn::Model;
use ehdl::{BoardSpec, CalibrationConfig, Strategy};
use ehdl_netsim::NetworkTopology;

/// Which paper workload a scenario deploys: a Table II model together
/// with a slice of its synthetic dataset substitute. The slice seed
/// comes from the scenario, so one workload spans many data slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The MNIST LeNet-class model over `samples` synthetic digits.
    Mnist {
        /// Dataset-slice length.
        samples: usize,
    },
    /// The UCI-HAR model over `samples` accelerometer windows.
    Har {
        /// Dataset-slice length.
        samples: usize,
    },
    /// The Speech Commands (OKG) model over `samples` spectrograms.
    Okg {
        /// Dataset-slice length.
        samples: usize,
    },
}

impl Workload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mnist { .. } => "mnist",
            Workload::Har { .. } => "har",
            Workload::Okg { .. } => "okg",
        }
    }

    /// A fresh float model for this workload.
    pub fn model(self) -> Model {
        match self {
            Workload::Mnist { .. } => ehdl::nn::zoo::mnist(),
            Workload::Har { .. } => ehdl::nn::zoo::har(),
            Workload::Okg { .. } => ehdl::nn::zoo::okg(),
        }
    }

    /// The dataset slice for this workload under the given seed.
    pub fn dataset(self, seed: u64) -> Dataset {
        match self {
            Workload::Mnist { samples } => ehdl::datasets::mnist(samples, seed),
            Workload::Har { samples } => ehdl::datasets::har(samples, seed),
            Workload::Okg { samples } => ehdl::datasets::okg(samples, seed),
        }
    }
}

/// One point of the sweep: a (environment, strategy, board, workload,
/// seed, energy budget) tuple, expanded from a [`ScenarioMatrix`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in matrix order (the deterministic fold order).
    pub index: usize,
    /// The energy environment the session runs in.
    pub environment: Environment,
    /// The checkpoint/execution strategy.
    pub strategy: Strategy,
    /// The simulated board.
    pub board: BoardSpec,
    /// The model + dataset slice.
    pub workload: Workload,
    /// Seed for the dataset slice and the environment's randomness.
    pub seed: u64,
    /// Per-run energy budget override in nanojoules: `Some(nj)` caps
    /// every run of this scenario at `nj` drawn nanojoules
    /// ([`ExecutorConfig::energy_budget_nj`]); `None` (the default axis)
    /// inherits whatever the matrix-wide executor config says.
    pub energy_budget_nj: Option<f64>,
    /// The seeded fault schedule this scenario's runs execute under
    /// ([`FaultSpec::none()`] on the default axis — zero behavior
    /// change).
    pub fault: FaultSpec,
    /// The checkpoint-payload integrity scheme this scenario's plans
    /// are compiled with ([`Integrity::None`] on the default axis —
    /// zero behavior change). Guarded schemes pad every durable write
    /// with check words and walk the recovery ladder on faulted
    /// restores.
    pub integrity: Integrity,
    /// The networked-world topology this scenario runs under
    /// ([`NetworkTopology::solo()`] on the default axis — the classic
    /// single-device path, bit-identically). Non-solo topologies run
    /// every device of the world through the shared harvest field and
    /// resolve the gateway's polls into SLO metrics.
    pub topology: NetworkTopology,
    /// Index of this scenario's (workload, board, strategy, seed,
    /// integrity scheme) combination — scenarios that differ only in
    /// environment, budget, fault or topology share it.
    pub(crate) deployment_key: usize,
    /// Index of the calibrated deployment the runner builds for this
    /// scenario: one per (workload, board, seed), shared by every
    /// strategy and integrity scheme, since neither is read until a
    /// plan is lowered. Dense over the matrix but, because the strategy
    /// axis sits between board and seed, not contiguous over index
    /// ranges.
    pub(crate) artifact_key: usize,
    /// Index of this scenario's environment in the matrix's environment
    /// axis — the runner keys its deterministic-run trace cache on
    /// (plan, environment, budget).
    pub(crate) environment_key: usize,
    /// Index of this scenario's entry in the matrix's energy-budget
    /// axis — the runner keys its per-budget executors (and the trace
    /// cache) on it, since the budget changes where runs abort.
    pub(crate) budget_key: usize,
    /// Index of this scenario's entry in the matrix's fault axis — the
    /// runner keys its compiled [`FaultPlan`](ehdl::ehsim::FaultPlan)s
    /// (and the trace cache) on it.
    pub(crate) fault_key: usize,
    /// Index of this scenario's entry in the matrix's integrity axis.
    pub(crate) integrity_key: usize,
}

impl Scenario {
    /// Index of this scenario's (workload, board, strategy, seed,
    /// integrity scheme) combination (dense, in first-appearance order)
    /// — the key harnesses use to build one strategy-specific
    /// deployment exactly once. The fleet runner shares more widely:
    /// one calibrated deployment per (workload, board, seed), lowered
    /// to each strategy's plan.
    pub fn deployment_key(&self) -> usize {
        self.deployment_key
    }

    /// Index of this scenario's environment in the matrix's environment
    /// axis — the key trace caches use for (plan, environment) pairs.
    pub fn environment_key(&self) -> usize {
        self.environment_key
    }

    /// Index of this scenario's entry in the matrix's energy-budget
    /// axis (see [`ScenarioMatrix::energy_budgets_nj`]).
    pub fn budget_key(&self) -> usize {
        self.budget_key
    }

    /// Index of this scenario's entry in the matrix's fault axis (see
    /// [`ScenarioMatrix::faults`]).
    pub fn fault_key(&self) -> usize {
        self.fault_key
    }

    /// Index of this scenario's entry in the matrix's integrity axis
    /// (see [`ScenarioMatrix::integrities`]).
    pub fn integrity_key(&self) -> usize {
        self.integrity_key
    }

    /// A stable human-readable name, unique within one matrix.
    pub fn name(&self) -> String {
        let mut name = format!(
            "{}/{}/{}/{}#{}",
            self.workload.name(),
            self.environment.name(),
            self.strategy.name(),
            self.board.name(),
            self.seed
        );
        if let Some(nj) = self.energy_budget_nj {
            name.push_str(&format!("@{nj}nJ"));
        }
        if !self.fault.is_none() {
            name.push('!');
            name.push_str(&self.fault.label());
        }
        if self.integrity != Integrity::None {
            name.push('+');
            name.push_str(self.integrity.label());
        }
        if !self.topology.is_solo() {
            name.push('~');
            name.push_str(&self.topology.label());
        }
        name
    }
}

/// Builds the cross-product of scenario axes.
///
/// Defaults: the full environment [`catalog`], the FLEX strategy, the
/// paper's board, a 16-sample HAR slice, seed 0, one intermittent run
/// per scenario, and the default executor tunables. Every axis setter
/// *replaces* its axis.
///
/// ```
/// use ehdl::ehsim::catalog;
/// use ehdl::Strategy;
/// use ehdl_fleet::ScenarioMatrix;
///
/// let matrix = ScenarioMatrix::new()
///     .environments(vec![catalog::bench_supply(), catalog::office_rf()])
///     .strategies(vec![Strategy::Sonic, Strategy::Flex]);
/// assert_eq!(matrix.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    pub(crate) environments: Vec<Environment>,
    pub(crate) strategies: Vec<Strategy>,
    pub(crate) boards: Vec<BoardSpec>,
    pub(crate) workloads: Vec<Workload>,
    pub(crate) seeds: Vec<u64>,
    pub(crate) budgets: Vec<Option<f64>>,
    pub(crate) faults: Vec<FaultSpec>,
    pub(crate) integrities: Vec<Integrity>,
    pub(crate) topologies: Vec<NetworkTopology>,
    pub(crate) runs: u32,
    pub(crate) calibration: CalibrationConfig,
    pub(crate) executor: ExecutorConfig,
}

impl Default for ScenarioMatrix {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioMatrix {
    /// A matrix with the default axes (see the type docs).
    pub fn new() -> Self {
        ScenarioMatrix {
            environments: catalog::all(),
            strategies: vec![Strategy::Flex],
            boards: vec![BoardSpec::Msp430Fr5994],
            workloads: vec![Workload::Har { samples: 16 }],
            seeds: vec![0],
            budgets: vec![None],
            faults: vec![FaultSpec::none()],
            integrities: vec![Integrity::None],
            topologies: vec![NetworkTopology::solo()],
            runs: 1,
            calibration: CalibrationConfig::default(),
            executor: ExecutorConfig::default(),
        }
    }

    /// Replaces the environment axis.
    pub fn environments(mut self, environments: Vec<Environment>) -> Self {
        self.environments = environments;
        self
    }

    /// Replaces the strategy axis.
    pub fn strategies(mut self, strategies: Vec<Strategy>) -> Self {
        self.strategies = strategies;
        self
    }

    /// Replaces the board axis.
    pub fn boards(mut self, boards: Vec<BoardSpec>) -> Self {
        self.boards = boards;
        self
    }

    /// Replaces the workload axis.
    pub fn workloads(mut self, workloads: Vec<Workload>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Replaces the seed axis.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Replaces the per-run energy-budget axis, in nanojoules. The
    /// default axis is `vec![None]` — one unbounded entry, which
    /// inherits the matrix executor's own
    /// [`ExecutorConfig::energy_budget_nj`]. `Some(nj)` entries override
    /// it per scenario, so one sweep maps a completion-vs-joule frontier
    /// (group the digest by [`GroupAxis::EnergyBudget`](crate::GroupAxis)
    /// to chart it).
    pub fn energy_budgets_nj(mut self, budgets: Vec<Option<f64>>) -> Self {
        self.budgets = budgets;
        self
    }

    /// Replaces the fault-injection axis. The default axis is
    /// `vec![FaultSpec::none()]` — one no-fault entry, bit-identical to
    /// a matrix without the axis. Seeded entries subject every run of
    /// their scenarios to deterministic fault injection (spurious
    /// resets, voltage sags, torn commits, corrupt restores); group the
    /// digest by [`GroupAxis::Fault`](crate::GroupAxis) to compare
    /// resilience across schedules.
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the checkpoint-integrity axis. The default axis is
    /// `vec![Integrity::None]` — one unguarded entry, bit-identical to
    /// a matrix without the axis. Guarded entries compile every plan of
    /// their scenarios with padded durable writes (checksum or SECDED
    /// check words) and resolve faulted restores through the recovery
    /// ladder; group the digest by
    /// [`GroupAxis::Integrity`](crate::GroupAxis) to compare schemes.
    pub fn integrities(mut self, integrities: Vec<Integrity>) -> Self {
        self.integrities = integrities;
        self
    }

    /// Replaces the network-topology axis. The default axis is
    /// `vec![NetworkTopology::solo()]` — one classic single-device
    /// entry, bit-identical to a matrix without the axis. Non-solo
    /// entries run their scenarios as networked worlds: every device
    /// shares the environment's harvest field through per-device path
    /// loss, a gateway polls for results, and the digest picks up SLO
    /// metrics; group by [`GroupAxis::Topology`](crate::GroupAxis) to
    /// compare service levels across fleet shapes.
    pub fn topologies(mut self, topologies: Vec<NetworkTopology>) -> Self {
        self.topologies = topologies;
        self
    }

    /// Intermittent runs per scenario (default 1). Each run re-seeds the
    /// environment's randomness, so stochastic environments vary per run.
    pub fn runs(mut self, runs: u32) -> Self {
        self.runs = runs;
        self
    }

    /// The calibration recipe shared by every deployment in the matrix.
    pub fn calibration(mut self, calibration: CalibrationConfig) -> Self {
        self.calibration = calibration;
        self
    }

    /// The executor tunables shared by every intermittent run.
    pub fn executor(mut self, executor: ExecutorConfig) -> Self {
        self.executor = executor;
        self
    }

    /// The environment axis, in expansion order (the order
    /// [`Scenario::environment_key`] indexes).
    pub fn environment_axis(&self) -> &[Environment] {
        &self.environments
    }

    /// The energy-budget axis, in expansion order (the order
    /// [`Scenario::budget_key`] indexes).
    pub fn energy_budget_axis(&self) -> &[Option<f64>] {
        &self.budgets
    }

    /// The fault axis, in expansion order (the order
    /// [`Scenario::fault_key`] indexes).
    pub fn fault_axis(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// The integrity axis, in expansion order (the order
    /// [`Scenario::integrity_key`] indexes).
    pub fn integrity_axis(&self) -> &[Integrity] {
        &self.integrities
    }

    /// The topology axis, in expansion order.
    pub fn topology_axis(&self) -> &[NetworkTopology] {
        &self.topologies
    }

    /// Number of scenarios the matrix expands to.
    pub fn len(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// [`len`](Self::len), or `None` when the count overflows a `usize`.
    pub(crate) fn checked_len(&self) -> Option<usize> {
        self.axis_lens().into_iter().try_fold(1, usize::checked_mul)
    }

    fn axis_lens(&self) -> [usize; 9] {
        [
            self.environments.len(),
            self.strategies.len(),
            self.boards.len(),
            self.workloads.len(),
            self.seeds.len(),
            self.budgets.len(),
            self.faults.len(),
            self.integrities.len(),
            self.topologies.len(),
        ]
    }

    /// `true` if any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the full cross-product; see
    /// [`scenarios_range`](Self::scenarios_range).
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.scenarios_range(0..self.len())
    }

    /// Expands a contiguous slice of the cross-product, in the fixed
    /// matrix order: workload, board, strategy, seed, topology,
    /// integrity, fault, budget, environment (innermost). Scenarios
    /// sharing a (workload, board, strategy, seed, integrity) prefix
    /// share a [`Scenario::deployment_key`] — dense over the whole
    /// matrix, contiguous over any contiguous index range. The fleet
    /// runner shares more widely still: every scenario of one
    /// (workload, board, seed) runs on one calibrated deployment,
    /// whatever its strategy or integrity scheme, and lowers its
    /// (strategy, scheme) plan from it. Those keys are dense too but,
    /// since the strategy axis sits between board and seed, a range
    /// spanning several strategies revisits them. A shard worker
    /// expands only its own range: memory stays O(shard), not
    /// O(matrix), however large the sweep.
    ///
    /// Indices, keys and scenarios are identical to the corresponding
    /// slice of [`scenarios`](Self::scenarios); out-of-bounds ends are
    /// clamped to the matrix length.
    pub fn scenarios_range(&self, range: core::ops::Range<usize>) -> Vec<Scenario> {
        let total = self.len();
        let start = range.start.min(total);
        let end = range.end.min(total);
        let ne = self.environments.len();
        let nb = self.budgets.len();
        let nf = self.faults.len();
        let ni = self.integrities.len();
        let nt = self.topologies.len();
        let ns = self.seeds.len();
        let nst = self.strategies.len();
        let mut out = Vec::with_capacity(end.saturating_sub(start));
        for index in start..end {
            let environment_key = index % ne;
            let budget_key = (index / ne) % nb;
            let fault_key = (index / (ne * nb)) % nf;
            let integrity_key = (index / (ne * nb * nf)) % ni;
            let topology_key = (index / (ne * nb * nf * ni)) % nt;
            let seed_i = (index / (ne * nb * nf * ni * nt)) % ns;
            let strategy_i = (index / (ne * nb * nf * ni * nt * ns)) % nst;
            let board_i = (index / (ne * nb * nf * ni * nt * ns * nst)) % self.boards.len();
            let workload_i = index / (ne * nb * nf * ni * nt * ns * nst * self.boards.len());
            out.push(Scenario {
                index,
                environment: self.environments[environment_key].clone(),
                strategy: self.strategies[strategy_i],
                board: self.boards[board_i].clone(),
                workload: self.workloads[workload_i],
                seed: self.seeds[seed_i],
                energy_budget_nj: self.budgets[budget_key],
                fault: self.faults[fault_key],
                integrity: self.integrities[integrity_key],
                topology: self.topologies[topology_key],
                // The plan bakes the integrity scheme into its durable
                // write pricing, so each scheme is its own deployment
                // slot; the composite stays dense and contiguous.
                deployment_key: (index / (ne * nb * nf * ni * nt)) * ni + integrity_key,
                artifact_key: (workload_i * self.boards.len() + board_i) * ns + seed_i,
                environment_key,
                budget_key,
                fault_key,
                integrity_key,
            });
        }
        out
    }

    /// The runner's plan-cache key of scenario `index`: its (workload,
    /// board, strategy, integrity scheme) combination, dense over the
    /// matrix.
    pub(crate) fn plan_key(&self, index: usize) -> usize {
        let ni = self.integrities.len();
        let block = index / (self.environments.len() * self.budgets.len() * self.faults.len());
        block / (ni * self.topologies.len() * self.seeds.len()) * ni + block % ni
    }

    /// The distinct plan keys of the scenarios in `range` (non-empty and
    /// within the matrix), ascending. One key per run of scenarios that
    /// differ only in environment, budget and fault, so the cost is
    /// O(range / those axes).
    pub(crate) fn plan_keys(&self, range: core::ops::Range<usize>) -> Vec<usize> {
        let q = self.environments.len() * self.budgets.len() * self.faults.len();
        let mut keys: Vec<usize> = (range.start / q..=(range.end - 1) / q)
            .map(|block| self.plan_key(block * q))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_expands_full_cross_product_in_order() {
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .strategies(vec![Strategy::Base, Strategy::Flex])
            .boards(vec![BoardSpec::Msp430Fr5994])
            .seeds(vec![1, 2]);
        assert_eq!(m.len(), 8);
        let s = m.scenarios();
        assert_eq!(s.len(), 8);
        // Indices are dense and in order; environments innermost.
        for (i, sc) in s.iter().enumerate() {
            assert_eq!(sc.index, i);
        }
        assert_eq!(s[0].environment.name(), "bench_supply");
        assert_eq!(s[1].environment.name(), "office_rf");
        // Adjacent environments share a deployment key.
        assert_eq!(s[0].deployment_key, s[1].deployment_key);
        assert_ne!(s[1].deployment_key, s[2].deployment_key);
        // Seed changes the key (the dataset slice differs).
        assert_eq!(s[2].seed, 2);
        // Keys are dense: first occurrence of key k is at scenario 2k.
        let max_key = s.iter().map(|sc| sc.deployment_key).max().unwrap();
        assert_eq!(max_key, 3);
        // The runner's artifact key drops the strategy: BASE and FLEX
        // of one seed share it, seeds split it.
        assert_eq!(s[0].artifact_key, s[4].artifact_key);
        assert_ne!(s[0].artifact_key, s[2].artifact_key);
        assert_eq!(s.iter().map(|sc| sc.artifact_key).max(), Some(1));
    }

    #[test]
    fn empty_axis_empties_the_matrix() {
        let m = ScenarioMatrix::new().environments(vec![]);
        assert!(m.is_empty());
        assert!(m.scenarios().is_empty());
        assert!(m.scenarios_range(0..10).is_empty());
    }

    #[test]
    fn scenario_range_matches_the_full_expansion() {
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .strategies(vec![Strategy::Base, Strategy::Flex])
            .seeds(vec![1, 2, 3])
            .energy_budgets_nj(vec![None, Some(50_000.0)]);
        let full = m.scenarios();
        assert_eq!(full.len(), m.len());
        for (start, end) in [(0, 5), (5, 19), (19, m.len()), (0, m.len())] {
            let slice = m.scenarios_range(start..end);
            assert_eq!(slice.len(), end - start);
            for (a, b) in slice.iter().zip(&full[start..end]) {
                assert_eq!(a.index, b.index);
                assert_eq!(a.name(), b.name());
                assert_eq!(a.deployment_key, b.deployment_key);
                assert_eq!(a.artifact_key, b.artifact_key);
                assert_eq!(a.environment_key, b.environment_key);
                assert_eq!(a.budget_key, b.budget_key);
                assert_eq!(a.energy_budget_nj, b.energy_budget_nj);
            }
        }
        // Ends clamp instead of panicking.
        assert_eq!(m.scenarios_range(m.len() - 2..m.len() + 10).len(), 2);
    }

    #[test]
    fn budget_axis_multiplies_the_matrix_and_shares_deployments() {
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .energy_budgets_nj(vec![None, Some(1_000.0), Some(2_000.0)]);
        assert_eq!(m.len(), 2 * 3);
        let s = m.scenarios();
        // Budgets sit between seed and environment: environments
        // innermost, budget next, and every budget of one seed shares
        // the seed's deployment.
        assert_eq!(s[0].energy_budget_nj, None);
        assert_eq!(s[1].energy_budget_nj, None);
        assert_eq!(s[2].energy_budget_nj, Some(1_000.0));
        assert_eq!(s[2].environment.name(), "bench_supply");
        assert_eq!(s[3].environment.name(), "office_rf");
        assert!(s.iter().all(|sc| sc.deployment_key == 0));
        assert_eq!(s[4].budget_key, 2);
        // Budgeted scenarios carry the budget in their unique names.
        assert!(s[2].name().ends_with("@1000nJ"), "{}", s[2].name());
        let mut names: Vec<String> = s.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn fault_axis_multiplies_the_matrix_and_shares_deployments() {
        let noisy = FaultSpec {
            seed: 9,
            reset_per_op: 0.001,
            sag_per_op: 0.01,
            sag_factor: 1.5,
            tear_per_commit: 0.1,
            corrupt_per_restore: 0.1,
            burst_len: 0,
            flip_per_commit_bit: 0.0,
            wear: ehdl::ehsim::WearCurve::NONE,
        };
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .energy_budgets_nj(vec![None, Some(1_000.0)])
            .faults(vec![FaultSpec::none(), noisy]);
        assert_eq!(m.len(), 2 * 2 * 2);
        let s = m.scenarios();
        // Faults sit between seed and budget: the first four scenarios
        // (2 environments × 2 budgets) are fault-free, the next four
        // carry the seeded schedule — all on one deployment.
        assert!(s[..4].iter().all(|sc| sc.fault.is_none()));
        assert!(s[4..].iter().all(|sc| sc.fault == noisy));
        assert!(s.iter().all(|sc| sc.deployment_key == 0));
        assert_eq!(s[4].fault_key, 1);
        // No-fault names are unchanged; faulted ones append the label.
        assert!(!s[0].name().contains('!'), "{}", s[0].name());
        assert!(s[4].name().contains("!f9:"), "{}", s[4].name());
        let mut names: Vec<String> = s.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn integrity_axis_multiplies_the_matrix_and_splits_deployments() {
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .faults(vec![
                FaultSpec::none(),
                FaultSpec {
                    seed: 1,
                    reset_per_op: 0.001,
                    ..FaultSpec::none()
                },
            ])
            .integrities(vec![Integrity::None, Integrity::Secded]);
        assert_eq!(m.len(), 2 * 2 * 2);
        let s = m.scenarios();
        // Integrity sits between topology and fault: the first four
        // scenarios (2 environments × 2 faults) are unguarded, the
        // next four carry SECDED — on a *different* deployment, since
        // the scheme changes the plan's durable-write pricing.
        assert!(s[..4].iter().all(|sc| sc.integrity == Integrity::None));
        assert!(s[4..].iter().all(|sc| sc.integrity == Integrity::Secded));
        assert!(s[..4].iter().all(|sc| sc.deployment_key == 0));
        assert!(s[4..].iter().all(|sc| sc.deployment_key == 1));
        // Both schemes still share one calibrated deployment.
        assert!(s.iter().all(|sc| sc.artifact_key == 0));
        assert_eq!(s[4].integrity_key, 1);
        // Unguarded names are unchanged; guarded ones append the label.
        // (The strategy name "ACE+FLEX" contains '+', so check for the
        // scheme suffix itself, not the separator.)
        assert!(!s[0].name().ends_with("+none"), "{}", s[0].name());
        assert!(!s[0].name().ends_with("+secded"), "{}", s[0].name());
        assert!(s[4].name().ends_with("+secded"), "{}", s[4].name());
        let mut names: Vec<String> = s.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn topology_axis_multiplies_the_matrix_and_shares_deployments() {
        let fleet = NetworkTopology::line(4, 0.5, 0.25);
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .faults(vec![
                FaultSpec::none(),
                FaultSpec {
                    seed: 1,
                    reset_per_op: 0.001,
                    ..FaultSpec::none()
                },
            ])
            .topologies(vec![NetworkTopology::solo(), fleet]);
        assert_eq!(m.len(), 2 * 2 * 2);
        let s = m.scenarios();
        // Topologies sit between seed and fault: the first four
        // scenarios (2 environments × 2 faults) are solo, the next
        // four carry the fleet — all on one deployment.
        assert!(s[..4].iter().all(|sc| sc.topology.is_solo()));
        assert!(s[4..].iter().all(|sc| sc.topology == fleet));
        assert!(s.iter().all(|sc| sc.deployment_key == 0));
        assert_eq!(s[4].topology, fleet);
        // Solo names are unchanged; fleet ones append the label.
        assert!(!s[0].name().contains('~'), "{}", s[0].name());
        assert!(s[4].name().contains("~n4:"), "{}", s[4].name());
        let mut names: Vec<String> = s.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn plan_keys_drop_the_seed_and_cover_every_scenario_of_a_range() {
        let m = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 1, 2])
            .energy_budgets_nj(vec![None, Some(50_000.0)])
            .faults(vec![FaultSpec::none(), FaultSpec::none()])
            .integrities(vec![Integrity::None, Integrity::Secded])
            .topologies(vec![NetworkTopology::solo(); 2]);
        let s = m.scenarios();
        let ni = m.integrities.len();
        let key = |sc: &Scenario| sc.deployment_key / ni / m.seeds.len() * ni + sc.integrity_key;
        for sc in &s {
            assert_eq!(m.plan_key(sc.index), key(sc), "{}", sc.name());
        }
        // (strategy, integrity) pairs.
        assert_eq!(m.plan_keys(0..m.len()), vec![0, 1, 2, 3]);
        for (start, end) in [(0, 1), (3, 9), (7, 60), (95, 96), (50, m.len())] {
            let mut want: Vec<usize> = s[start..end].iter().map(key).collect();
            want.sort_unstable();
            want.dedup();
            assert_eq!(m.plan_keys(start..end), want, "{start}..{end}");
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let m = ScenarioMatrix::new()
            .strategies(Strategy::ALL.to_vec())
            .seeds(vec![0, 7]);
        let s = m.scenarios();
        let mut names: Vec<String> = s.iter().map(Scenario::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn workload_metadata_matches_datasets() {
        for (w, classes) in [
            (Workload::Mnist { samples: 4 }, 10),
            (Workload::Har { samples: 4 }, 6),
            (Workload::Okg { samples: 4 }, 12),
        ] {
            let data = w.dataset(3);
            assert_eq!(data.len(), 4);
            assert_eq!(data.classes(), classes);
            assert!(!w.name().is_empty());
        }
    }
}
