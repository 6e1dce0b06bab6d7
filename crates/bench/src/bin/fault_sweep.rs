//! fault_sweep: what does deterministic fault injection cost, and does
//! it stay deterministic?
//!
//! Two passes over the `exec_plan` scenario grid, single-threaded over
//! identical pre-built deployments and compiled plans:
//!
//! * **baseline** — `run_plan`, the fault-free fast path every
//!   production sweep uses;
//! * **armed** — `run_plan_with` under `FaultPlan::armed_empty`: the
//!   injection machinery fully enabled (one SplitMix64 draw per op
//!   attempt, commit and restore) but with all-zero thresholds, so no
//!   fault ever fires.
//!
//! The armed pass must reproduce the baseline reports **bit for bit**
//! (a fault that never fires must not move a float), and may cost at
//! most a few percent — the acceptance bar for "fault injection is
//! free until you ask for it". A third, fleet-level phase sweeps a
//! seeded fault storm at 1 and 2 workers and asserts the digests are
//! bit-identical — the determinism bar CI smokes with `--quick`.
//! Results land in the `fault_sweep` entry of `BENCH_fleet.json`.

use ehdl::ehsim::{
    catalog, ExecutionPlan, ExecutorConfig, FaultPlan, FaultSpec, IntermittentExecutor, RunReport,
};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{mix, DigestSink, FleetRunner, ScenarioMatrix, Workload};
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    section("fault_sweep: armed-but-empty fault plans vs the fault-free fast path");

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

    // Shared scaffolding, identical for both passes and excluded from
    // timing: one deployment per (workload, board, strategy, seed) and
    // one compiled plan per (workload, board, strategy).
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
    let mut plan_keys: Vec<(Workload, BoardSpec, Strategy)> = Vec::new();
    let mut plans: Vec<ExecutionPlan> = Vec::new();
    let mut plan_slots: Vec<usize> = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        let key = (scenario.workload, scenario.board.clone(), scenario.strategy);
        let slot = plan_keys.iter().position(|k| *k == key).unwrap_or_else(|| {
            plans.push(deployments[scenario.deployment_key()].compile_plan());
            plan_keys.push(key);
            plans.len() - 1
        });
        plan_slots.push(slot);
    }
    let executor = IntermittentExecutor::new(config);

    // ---- pass 1: fault-free baseline ----
    let started = Instant::now();
    let mut reports_baseline: Vec<RunReport> = Vec::with_capacity(scenarios.len());
    for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
        let plan = &plans[slot];
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            reports_baseline.push(executor.run_plan(plan, &mut board, &mut supply));
        }
    }
    let baseline_s = started.elapsed().as_secs_f64();
    let baseline_rate = scenarios.len() as f64 / baseline_s;
    println!("baseline (no fault plan):  {baseline_s:>7.3} s  {baseline_rate:>8.1} scenarios/s");

    // ---- pass 2: armed but empty ----
    let armed = FaultPlan::armed_empty(9);
    let started = Instant::now();
    let mut reports_armed: Vec<RunReport> = Vec::with_capacity(scenarios.len());
    for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
        let plan = &plans[slot];
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            let opts = RunOptions::default().fault(&armed);
            reports_armed.push(executor.run_plan_with(plan, &mut board, &mut supply, opts));
        }
    }
    let armed_s = started.elapsed().as_secs_f64();
    let armed_rate = scenarios.len() as f64 / armed_s;
    println!("armed (empty thresholds):  {armed_s:>7.3} s  {armed_rate:>8.1} scenarios/s");
    let overhead_pct = (armed_s / baseline_s - 1.0) * 100.0;
    println!("injection overhead: {overhead_pct:+.2}%");

    // A fault that never fires must not move a float. The armed reports
    // carry an (all-zero) tally; everything else is bit-identical.
    assert_eq!(
        reports_baseline.len(),
        reports_armed.len(),
        "pass length drifted"
    );
    for (baseline, armed) in reports_baseline.iter().zip(&reports_armed) {
        assert!(armed.faults.is_clean(), "an empty plan injected a fault");
        let mut stripped = armed.clone();
        stripped.faults = baseline.faults;
        assert_eq!(*baseline, stripped, "armed pass perturbed the simulation");
    }
    println!(
        "reports: bit-identical across {} runs\n",
        reports_armed.len()
    );

    // ---- phase 3: seeded storm, worker-count determinism ----
    let storm = FaultSpec {
        seed: 9,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        burst_len: 0,
        flip_per_commit_bit: 0.0,
        wear: ehdl::ehsim::WearCurve::NONE,
    };
    let faulted_matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .workloads(vec![Workload::Har {
            samples: if quick { 4 } else { 8 },
        }])
        .faults(vec![FaultSpec::none(), storm])
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let one = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run(&faulted_matrix)
        .expect("faulted sweep at 1 worker");
    let two = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&faulted_matrix)
        .expect("faulted sweep at 2 workers");
    assert_eq!(one, two, "seeded-fault digest drifted across workers");
    assert_eq!(one.to_string(), two.to_string());
    let r = &one.resilience;
    assert!(r.faulted_runs > 0, "the storm never fired");
    assert_eq!(r.silent_corruptions, 0, "silent corruption slipped through");
    println!(
        "storm sweep: {} scenarios bit-identical at 1 and 2 workers, \
         {}/{} faulted runs recovered",
        faulted_matrix.len(),
        r.recovered_runs,
        r.faulted_runs
    );

    let entry = format!(
        concat!(
            "{{\n",
            "  \"quick\": {},\n",
            "  \"scenarios\": {},\n",
            "  \"runs_per_scenario\": {},\n",
            "  \"baseline_seconds\": {:.6},\n",
            "  \"baseline_scenarios_per_sec\": {:.3},\n",
            "  \"armed_seconds\": {:.6},\n",
            "  \"armed_scenarios_per_sec\": {:.3},\n",
            "  \"overhead_pct\": {:.3},\n",
            "  \"storm_scenarios\": {},\n",
            "  \"storm_faulted_runs\": {},\n",
            "  \"storm_recovered_runs\": {},\n",
            "  \"storm_spurious_resets\": {},\n",
            "  \"storm_torn_commits\": {},\n",
            "  \"storm_corrupt_restores\": {},\n",
            "  \"storm_silent_corruptions\": {}\n",
            "}}"
        ),
        quick,
        scenarios.len(),
        runs,
        baseline_s,
        baseline_rate,
        armed_s,
        armed_rate,
        overhead_pct,
        faulted_matrix.len(),
        r.faulted_runs,
        r.recovered_runs,
        r.spurious_resets,
        r.torn_commits,
        r.corrupt_restores,
        r.silent_corruptions,
    );
    record_bench_entry("fault_sweep", &entry);

    // The acceptance bar: ≤5% on the full grid, with headroom for
    // scheduler noise on the short quick run CI uses.
    let limit = if quick { 25.0 } else { 5.0 };
    assert!(
        overhead_pct <= limit,
        "fault-injection overhead {overhead_pct:.2}% exceeds the {limit:.0}% bar"
    );
}
