//! One measurement harness for the scenario-grid benches.
//!
//! [`Grid`] expands a [`ScenarioMatrix`] once, builds one calibrated
//! deployment per (workload, board, seed), keyed as the fleet runner
//! keys its artifacts, and lowers one plan per (workload, board,
//! strategy). [`Grid::pass`] walks every scenario × run with the
//! runner's per-run reseed, so any executor path can be timed over
//! exactly the supplies a fleet sweep would see.
//!
//! [`paired`] times passes against a base arm. One pass of a grid
//! lasts well under a second, inside scheduler-noise territory, so each
//! arm runs [`REPS`] rounds paired with the base arm, order
//! alternating each round. Pairing cancels load that slows both sides
//! alike, alternation cancels warm-cache order effects, and the median
//! of the per-round ratios discards the rounds a contention burst hit
//! one-sidedly. Every figure comes with its quartiles and extremes.

use ehdl::device::Board;
use ehdl::ehsim::{ExecutionPlan, ExecutorConfig, Integrity, PowerSupply, RunReport};
use ehdl::prelude::*;
use ehdl_fleet::{mix, Scenario, ScenarioMatrix, Workload};
use std::hint::black_box;
use std::time::Instant;

/// Timed rounds per arm in [`paired`].
pub const REPS: usize = 9;

/// The scenario matrix with its shared deployments and compiled plans,
/// built once and excluded from every timed region.
pub struct Grid {
    matrix: ScenarioMatrix,
    config: ExecutorConfig,
    runs: u32,
    scenarios: Vec<Scenario>,
    deployments: Vec<((Workload, BoardSpec, u64), Deployment)>,
    plans: Vec<((Workload, BoardSpec, Strategy), ExecutionPlan)>,
    /// Per scenario: (deployment index, plan index).
    slots: Vec<(usize, usize)>,
}

impl Grid {
    /// The grid the overhead benches share: the full environment
    /// catalog and every strategy over HAR and MNIST, four seeds and two
    /// runs each (192 scenarios), or HAR alone over two seeds and one
    /// run on `--quick` (48 scenarios).
    pub fn standard(quick: bool) -> Grid {
        let (workloads, seeds, runs) = if quick {
            (vec![Workload::Har { samples: 4 }], vec![0, 1], 1)
        } else {
            (
                vec![Workload::Har { samples: 8 }, Workload::Mnist { samples: 4 }],
                vec![0, 1, 2, 3],
                2,
            )
        };
        let matrix = ScenarioMatrix::new()
            .environments(ehdl::ehsim::catalog::all())
            .strategies(Strategy::ALL.to_vec())
            .workloads(workloads)
            .seeds(seeds);
        Grid::new(matrix, runs)
    }

    /// The executor configuration of every grid bench: stalled runs
    /// give up after six outages.
    pub fn stall_config() -> ExecutorConfig {
        ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        }
    }

    /// Expands `matrix` with `runs` runs per scenario under
    /// [`stall_config`](Self::stall_config), and builds its deployments
    /// and plans.
    ///
    /// # Panics
    ///
    /// If a deployment fails to build.
    pub fn new(matrix: ScenarioMatrix, runs: u32) -> Grid {
        let config = Grid::stall_config();
        let matrix = matrix.runs(runs).executor(config.clone());
        let scenarios = matrix.scenarios();
        let (mut deployments, mut plans) = (Vec::new(), Vec::new());
        let mut slots = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            let key = (s.workload, s.board.clone(), s.seed);
            let d = slot(&mut deployments, key, || build(s));
            let key = (s.workload, s.board.clone(), s.strategy);
            let compile = |d: &Deployment| d.compile_plan_for(s.strategy, Integrity::None);
            let p = slot(&mut plans, key, || compile(&deployments[d].1));
            slots.push((d, p));
        }
        Grid {
            matrix,
            config,
            runs,
            scenarios,
            deployments,
            plans,
            slots,
        }
    }

    /// The matrix, with the grid's runs and executor configuration.
    pub fn matrix(&self) -> &ScenarioMatrix {
        &self.matrix
    }

    /// The executor configuration every run uses.
    pub fn config(&self) -> &ExecutorConfig {
        &self.config
    }

    /// Runs per scenario.
    pub fn runs(&self) -> u32 {
        self.runs
    }

    /// The expanded scenarios, in matrix order.
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of plans compiled: one per (workload, board, strategy).
    pub fn plan_count(&self) -> usize {
        self.plans.len()
    }

    /// The deployment `scenario` runs on.
    pub fn deployment(&self, scenario: &Scenario) -> &Deployment {
        &self.deployments[self.slots[scenario.index].0].1
    }

    /// Index of `scenario`'s plan, dense below [`plan_count`](Self::plan_count).
    pub fn plan_slot(&self, scenario: &Scenario) -> usize {
        self.slots[scenario.index].1
    }

    /// The plan `scenario` runs, lowered for its strategy.
    pub fn plan(&self, scenario: &Scenario) -> &ExecutionPlan {
        &self.plans[self.plan_slot(scenario)].1
    }

    /// One pass over every scenario × run, in matrix order. Each
    /// scenario gets a fresh board shared by its runs, and each run a
    /// supply from the scenario's environment reseeded with
    /// [`mix`]`(seed, run)`, as the fleet runner does. Returns the
    /// reports `run` produced, in order.
    pub fn pass(
        &self,
        mut run: impl FnMut(&ExecutionPlan, &Scenario, &mut Board, &mut PowerSupply) -> RunReport,
    ) -> Vec<RunReport> {
        let mut reports = Vec::with_capacity(self.scenarios.len() * self.runs as usize);
        for scenario in &self.scenarios {
            let plan = self.plan(scenario);
            let mut board = scenario.board.board();
            for r in 0..u64::from(self.runs) {
                let env = scenario.environment.reseeded(mix(scenario.seed, r));
                let mut supply = env.supply();
                reports.push(run(plan, scenario, &mut board, &mut supply));
            }
        }
        reports
    }
}

/// The calibrated deployment of `s`'s (workload, board, seed).
fn build(s: &Scenario) -> Deployment {
    let data = s.workload.dataset(s.seed);
    let mut model = s.workload.model();
    let builder = Deployment::builder(&mut model, &data).board(s.board.clone());
    builder.build().expect("deployment builds")
}

/// Index of `key` in `table`, appending `(key, make())` on first sight.
fn slot<K: PartialEq, V>(table: &mut Vec<(K, V)>, key: K, make: impl FnOnce() -> V) -> usize {
    table
        .iter()
        .position(|(k, _)| *k == key)
        .unwrap_or_else(|| {
            table.push((key, make()));
            table.len() - 1
        })
}

/// Median, quartiles and extremes of a sample set, with linear
/// interpolation between order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// If `samples` is empty.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let h = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
        };
        Spread {
            min: sorted[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: sorted[sorted.len() - 1],
        }
    }

    /// The spread as a JSON array `[min, q1, median, q3, max]`.
    pub fn to_json(&self) -> String {
        format!(
            "[{:.6}, {:.6}, {:.6}, {:.6}, {:.6}]",
            self.min, self.q1, self.median, self.q3, self.max
        )
    }
}

/// The timing of one arm of [`paired`].
#[derive(Debug, Clone)]
pub struct ArmTiming {
    /// The arm's name.
    pub name: &'static str,
    /// Seconds per pass over its [`REPS`] rounds.
    pub seconds: Spread,
    /// Per-round ratio of its seconds to the base arm's.
    pub ratio: Spread,
}

/// What [`paired`] measured.
pub struct Paired<T> {
    /// The base arm's warmup output.
    pub base: T,
    /// Each arm's warmup output, in arm order.
    pub outputs: Vec<T>,
    /// Seconds per base pass, over every round of every arm.
    pub base_seconds: Spread,
    /// Each arm's timing, in arm order.
    pub timings: Vec<ArmTiming>,
}

impl<T> Paired<T> {
    /// Prints one row per arm, the base arm first: median seconds
    /// per pass with quartiles, scenarios/s at the median, and each
    /// arm's median ratio to the base with quartiles.
    pub fn print(&self, base: &str, scenarios: usize) {
        let row = |name: &str, s: Spread| {
            let rate = scenarios as f64 / s.median;
            format!(
                "{name:<10} {:>8.3} s [{:.3} .. {:.3}] {rate:>9.1}/s",
                s.median, s.q1, s.q3
            )
        };
        println!("{}", row(base, self.base_seconds));
        for t in &self.timings {
            let r = t.ratio;
            let ratio = format!("{:.3}x [{:.3} .. {:.3}]", r.median, r.q1, r.q3);
            println!("{}   {ratio} of {base}", row(t.name, t.seconds));
        }
    }

    /// Bench-file fields for every arm: `<arm>_seconds` and
    /// `<arm>_ratio` as [`Spread::to_json`] arrays, and
    /// `<arm>_scenarios_per_sec` at the median.
    pub fn fields(&self, base: &str, scenarios: usize) -> Vec<(String, String)> {
        let rate = |s: Spread| format!("{:.3}", scenarios as f64 / s.median);
        let key = |name: &str, what: &str| format!("{name}_{what}");
        let mut fields = vec![
            (key(base, "seconds"), self.base_seconds.to_json()),
            (key(base, "scenarios_per_sec"), rate(self.base_seconds)),
        ];
        for t in &self.timings {
            fields.push((key(t.name, "seconds"), t.seconds.to_json()));
            fields.push((key(t.name, "ratio"), t.ratio.to_json()));
            fields.push((key(t.name, "scenarios_per_sec"), rate(t.seconds)));
        }
        fields
    }
}

/// Runs `base` and every arm once untimed (their outputs are
/// returned for checking), then [`REPS`] rounds. Each round times, for
/// every arm in turn, one base pass and one arm pass: the base first on
/// even rounds, the arm first on odd ones.
pub fn paired<T>(
    base: &mut dyn FnMut() -> T,
    arms: &mut [(&'static str, &mut dyn FnMut() -> T)],
) -> Paired<T> {
    let base_out = base();
    let outputs = arms.iter_mut().map(|(_, pass)| pass()).collect();
    let time = |pass: &mut dyn FnMut() -> T| {
        let started = Instant::now();
        let out = black_box(pass());
        let seconds = started.elapsed().as_secs_f64();
        drop(out);
        seconds
    };
    let mut base_seconds = Vec::new();
    let mut samples = vec![(Vec::new(), Vec::new()); arms.len()];
    for round in 0..REPS {
        for ((_, pass), (seconds, ratios)) in arms.iter_mut().zip(&mut samples) {
            let (b, a) = if round % 2 == 0 {
                let b = time(base);
                (b, time(*pass))
            } else {
                let a = time(*pass);
                (time(base), a)
            };
            base_seconds.push(b);
            seconds.push(a);
            ratios.push(a / b);
        }
    }
    Paired {
        base: base_out,
        outputs,
        base_seconds: Spread::of(&base_seconds),
        timings: arms
            .iter()
            .zip(&samples)
            .map(|((name, _), (seconds, ratios))| ArmTiming {
                name,
                seconds: Spread::of(seconds),
                ratio: Spread::of(ratios),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn spread_of_an_odd_sample() {
        let s = Spread::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!(
            s,
            Spread {
                min: 1.0,
                q1: 3.0,
                median: 5.0,
                q3: 7.0,
                max: 9.0
            }
        );
        assert_eq!(
            s.to_json(),
            "[1.000000, 3.000000, 5.000000, 7.000000, 9.000000]"
        );
    }

    #[test]
    fn spread_of_an_even_sample_interpolates() {
        let s = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(
            s,
            Spread {
                min: 1.0,
                q1: 1.75,
                median: 2.5,
                q3: 3.25,
                max: 4.0
            }
        );
        assert_eq!(Spread::of(&[2.0]).median, 2.0);
    }

    #[test]
    fn paired_rounds_alternate_the_order() {
        let log = RefCell::new(Vec::new());
        let mut base = || log.borrow_mut().push("base");
        let mut a = || log.borrow_mut().push("a");
        let mut b = || log.borrow_mut().push("b");
        let out = paired(&mut base, &mut [("a", &mut a), ("b", &mut b)]);
        let log = log.into_inner();
        // Warmups, then each round pairs the base with every arm.
        assert_eq!(log[..3], ["base", "a", "b"]);
        let round0 = ["base", "a", "base", "b"];
        let round1 = ["a", "base", "b", "base"];
        for (round, calls) in log[3..].chunks(4).enumerate() {
            let expected = if round % 2 == 0 { round0 } else { round1 };
            assert_eq!(calls, expected, "round {round}");
        }
        assert_eq!(log.len(), 3 + 4 * REPS);
        assert_eq!(out.outputs.len(), 2);
        assert_eq!(out.timings[1].name, "b");
    }

    #[test]
    fn quick_grid_shares_deployments_and_plans() {
        let grid = Grid::standard(true);
        // One workload and one board: a deployment per seed, a plan per
        // strategy.
        assert_eq!(grid.deployments.len(), 2);
        assert_eq!(grid.plan_count(), Strategy::ALL.len());
        assert_eq!(
            grid.scenarios().len(),
            ehdl::ehsim::catalog::all().len() * Strategy::ALL.len() * 2
        );
        for s in grid.scenarios() {
            let expected = grid
                .deployment(s)
                .compile_plan_for(s.strategy, Integrity::None);
            assert_eq!(*grid.plan(s), expected);
        }
        let executor = ehdl::ehsim::IntermittentExecutor::new(grid.config().clone());
        let reports = grid.pass(|plan, _, board, supply| executor.run_plan(plan, board, supply));
        assert_eq!(reports.len(), grid.scenarios().len() * grid.runs() as usize);
    }
}
