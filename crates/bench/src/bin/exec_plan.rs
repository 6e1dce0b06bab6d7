//! exec_plan: scenarios/sec with and without compile-once execution
//! plans.
//!
//! Replays the same scenario grid twice over identical pre-built
//! deployments:
//!
//! * **baseline** — the pre-plan executor path: every scenario re-lowers
//!   its strategy program and the op-by-op interpreter re-prices every
//!   op against the cost table on every run;
//! * **planned** — one costed `ExecutionPlan` compiled per (workload,
//!   board, strategy) and shared across every environment and seed, with
//!   the dispatch-free plan executor (plan compilation is charged to the
//!   timed region).
//!
//! Results (plus a parallel `FleetRunner` headline) are appended to the
//! machine-readable `BENCH_fleet.json` at the repo root — the first
//! datapoint in the fleet-throughput trajectory. `--quick` shrinks the
//! grid for the CI smoke run.

use ehdl::ehsim::{catalog, ExecutionPlan, ExecutorConfig, Integrity, IntermittentExecutor};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{mix, FleetRunner, ScenarioMatrix, Workload};
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    section("exec_plan: compile-once costed plans vs op-by-op pricing");

    let (workloads, seeds, runs) = if quick {
        (vec![Workload::Har { samples: 4 }], vec![0u64, 1], 1u32)
    } else {
        (
            vec![Workload::Har { samples: 8 }, Workload::Mnist { samples: 4 }],
            vec![0u64, 1, 2, 3],
            2u32,
        )
    };
    let config = ExecutorConfig {
        stall_outages: 6,
        ..ExecutorConfig::default()
    };
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .workloads(workloads)
        .seeds(seeds)
        .runs(runs)
        .executor(config.clone());
    let scenarios = matrix.scenarios();
    println!(
        "{} scenarios x {} runs ({} mode)\n",
        scenarios.len(),
        runs,
        if quick { "quick" } else { "full" }
    );

    // Shared scaffolding, identical for both modes and excluded from
    // timing: one deployment per (workload, board, strategy, seed).
    let mut deployments: Vec<Deployment> = Vec::new();
    for scenario in &scenarios {
        if scenario.deployment_key() == deployments.len() {
            let data = scenario.workload.dataset(scenario.seed);
            let mut model = scenario.workload.model();
            let deployment = Deployment::builder(&mut model, &data)
                .board(scenario.board.clone())
                .strategy(scenario.strategy)
                .build()
                .expect("deployment builds");
            deployments.push(deployment);
        }
    }
    let executor = IntermittentExecutor::new(config);

    // ---- baseline: the pre-plan executor ----
    let started = Instant::now();
    for scenario in &scenarios {
        let deployment = &deployments[scenario.deployment_key()];
        let program = scenario
            .strategy
            .lower(deployment.quantized(), deployment.program());
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            let opts = RunOptions::default();
            executor.run_reference(&program, Integrity::None, &mut board, &mut supply, opts);
        }
    }
    let baseline_s = started.elapsed().as_secs_f64();
    let baseline_rate = scenarios.len() as f64 / baseline_s;
    println!("baseline (op-by-op):   {baseline_s:>7.3} s  {baseline_rate:>8.1} scenarios/s");

    // ---- planned: compile once per (workload, board, strategy), and
    // record each deterministic (plan, environment) trajectory once,
    // replaying it for every further seed and run — the fleet engine's
    // sharing, single-threaded for an apples-to-apples executor compare.
    let environments = matrix.environment_axis().len();
    let started = Instant::now();
    let mut plan_keys: Vec<(Workload, BoardSpec, Strategy)> = Vec::new();
    let mut plans: Vec<ExecutionPlan> = Vec::new();
    let mut traces: Vec<Option<ehdl::ehsim::RunTrace>> = Vec::new();
    for scenario in &scenarios {
        let key = (scenario.workload, scenario.board.clone(), scenario.strategy);
        let slot = plan_keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            plans.push(deployments[scenario.deployment_key()].compile_plan());
            plan_keys.push(key);
            traces.resize(plans.len() * environments, None);
            plans.len() - 1
        });
        let plan = &plans[slot];
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            if scenario.environment.is_stochastic() {
                let env = scenario.environment.reseeded(mix(scenario.seed, run));
                let mut supply = env.supply();
                executor.run_plan(plan, &mut board, &mut supply);
            } else {
                let trace_slot = &mut traces[slot * environments + scenario.environment_key()];
                match trace_slot {
                    Some(trace) => {
                        executor
                            .try_replay_trace(plan, trace, &mut board)
                            .expect("trace recorded from this plan");
                    }
                    None => {
                        let mut supply = scenario.environment.supply();
                        let opts = RunOptions::default();
                        let (_, trace) =
                            executor.record_plan_with(plan, &mut board, &mut supply, opts);
                        *trace_slot = Some(trace);
                    }
                }
            }
        }
    }
    let planned_s = started.elapsed().as_secs_f64();
    let planned_rate = scenarios.len() as f64 / planned_s;
    let speedup = planned_rate / baseline_rate;
    println!("planned (shared plan): {planned_s:>7.3} s  {planned_rate:>8.1} scenarios/s");
    println!("speedup: {speedup:.2}x (single worker)");

    // ---- parallel headline: the full fleet engine ----
    let workers = std::thread::available_parallelism().map_or(8, usize::from);
    let started = Instant::now();
    let report = FleetRunner::new(workers)
        .run(&matrix)
        .expect("fleet sweep runs");
    let fleet_s = started.elapsed().as_secs_f64();
    let fleet_rate = report.len() as f64 / fleet_s;
    println!("fleet engine ({workers} workers, incl. deploy+accuracy): {fleet_s:.3} s  {fleet_rate:.1} scenarios/s");

    let entry = format!(
        concat!(
            "{{\n",
            "  \"quick\": {},\n",
            "  \"scenarios\": {},\n",
            "  \"runs_per_scenario\": {},\n",
            "  \"baseline_seconds\": {:.6},\n",
            "  \"baseline_scenarios_per_sec\": {:.3},\n",
            "  \"planned_seconds\": {:.6},\n",
            "  \"planned_scenarios_per_sec\": {:.3},\n",
            "  \"speedup\": {:.3},\n",
            "  \"fleet_workers\": {},\n",
            "  \"fleet_seconds\": {:.6},\n",
            "  \"fleet_scenarios_per_sec\": {:.3}\n",
            "}}"
        ),
        quick,
        scenarios.len(),
        runs,
        baseline_s,
        baseline_rate,
        planned_s,
        planned_rate,
        speedup,
        workers,
        fleet_s,
        fleet_rate,
    );
    record_bench_entry("exec_plan", &entry);

    assert!(
        speedup >= 1.0,
        "execution plans regressed scenario throughput ({speedup:.2}x)"
    );
}
