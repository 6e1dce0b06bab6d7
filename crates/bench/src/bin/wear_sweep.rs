//! wear_sweep: what does checkpoint-payload integrity cost, and does
//! the recovery ladder keep its promises under a bit-flip storm?
//!
//! Two passes over the `exec_plan` scenario grid, single-threaded over
//! identical pre-built deployments and compiled plans:
//!
//! * **baseline** — `run_plan`, the fault-free fast path;
//! * **armed** — `run_plan_with` under
//!   `FaultPlan::armed_empty_integrity`: the per-commit flip draw, the
//!   slot-wear bookkeeping and the full recovery-ladder walk all
//!   enabled, but at flip rate zero so no upset ever lands.
//!
//! The armed pass must reproduce the baseline reports bit for bit once
//! the (all-accept) integrity tally is stripped, and may cost at most
//! a few percent — the acceptance bar for "integrity is free until you
//! arm it". A second, fleet-level phase sweeps a long-horizon bit-flip
//! storm across the full integrity axis at 1 and 2 workers: `Checksum`
//! detects what `None` silently corrupts, `Secded` repairs it, and the
//! digests stay bit-identical across worker counts. Results land in
//! the `wear_sweep` entry of `BENCH_fleet.json`.

use ehdl::ehsim::{
    catalog, ExecutionPlan, ExecutorConfig, FaultPlan, FaultSpec, Integrity, IntermittentExecutor,
    RunReport, WearCurve,
};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{mix, DigestSink, FleetRunner, GroupAxis, GroupBySink, ScenarioMatrix, Workload};
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    section("wear_sweep: armed-but-inert integrity machinery vs the fault-free fast path");

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

    // A single ~0.6 s sweep is inside scheduler-noise territory, so
    // the two passes run back to back five times and the overhead is
    // the median of the per-repetition ratios: pairing cancels load
    // that slows both passes alike, the median discards the reps a
    // contention burst hit one-sidedly.
    let armed = FaultPlan::armed_empty_integrity(9);
    let baseline_pass = || {
        let mut reports: Vec<RunReport> = Vec::with_capacity(scenarios.len());
        for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
            let plan = &plans[slot];
            let mut board = scenario.board.board();
            for run in 0..u64::from(runs) {
                let env = scenario.environment.reseeded(mix(scenario.seed, run));
                let mut supply = env.supply();
                reports.push(executor.run_plan(plan, &mut board, &mut supply));
            }
        }
        reports
    };
    let armed_pass = || {
        let mut reports: Vec<RunReport> = Vec::with_capacity(scenarios.len());
        for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
            let plan = &plans[slot];
            let mut board = scenario.board.board();
            for run in 0..u64::from(runs) {
                let env = scenario.environment.reseeded(mix(scenario.seed, run));
                let mut supply = env.supply();
                let opts = RunOptions::default().fault(&armed);
                reports.push(executor.run_plan_with(plan, &mut board, &mut supply, opts));
            }
        }
        reports
    };

    let mut baseline_s = f64::INFINITY;
    let mut armed_s = f64::INFINITY;
    let mut ratios = Vec::new();
    let mut reports_baseline = Vec::new();
    let mut reports_armed = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        reports_baseline = baseline_pass();
        let b = started.elapsed().as_secs_f64();
        let started = Instant::now();
        reports_armed = armed_pass();
        let a = started.elapsed().as_secs_f64();
        baseline_s = baseline_s.min(b);
        armed_s = armed_s.min(a);
        ratios.push(a / b);
    }
    ratios.sort_by(f64::total_cmp);
    let baseline_rate = scenarios.len() as f64 / baseline_s;
    println!("baseline (fast path):      {baseline_s:>7.3} s  {baseline_rate:>8.1} scenarios/s");
    let armed_rate = scenarios.len() as f64 / armed_s;
    println!("armed (flip rate zero):    {armed_s:>7.3} s  {armed_rate:>8.1} scenarios/s");
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    println!("integrity overhead: {overhead_pct:+.2}% (median of 5 paired reps)");

    // A flip draw that never lands must not move a float. The armed
    // reports carry a ladder tally (every restore accepted at rung
    // zero) and an all-zero fault tally; everything else is
    // bit-identical.
    assert_eq!(
        reports_baseline.len(),
        reports_armed.len(),
        "pass length drifted"
    );
    for (baseline, armed) in reports_baseline.iter().zip(&reports_armed) {
        assert!(armed.faults.is_clean(), "an inert plan injected a fault");
        assert_eq!(armed.integrity.flips_injected, 0, "rate zero flipped a bit");
        assert_eq!(armed.integrity.silent_restores, 0);
        assert_eq!(
            armed.integrity.restores_resolved(),
            armed.restores,
            "the ladder must account for every restore"
        );
        let mut stripped = armed.clone();
        stripped.faults = baseline.faults;
        stripped.integrity = baseline.integrity;
        assert_eq!(*baseline, stripped, "armed pass perturbed the simulation");
    }
    println!(
        "reports: bit-identical across {} runs\n",
        reports_armed.len()
    );

    // ---- phase 3: long-horizon bit-flip storm across the axis ----
    // Spurious resets force restores without brown-outs, every commit
    // draws a per-bit flip, and a finite endurance curve accelerates
    // the rate as slots age.
    let storm = FaultSpec {
        seed: 11,
        reset_per_op: 0.01,
        flip_per_commit_bit: 2e-4,
        wear: WearCurve {
            endurance_commits: 20_000,
        },
        ..FaultSpec::none()
    };
    let storm_matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(vec![Strategy::Sonic])
        .workloads(vec![Workload::Har {
            samples: if quick { 4 } else { 8 },
        }])
        .faults(vec![storm])
        .integrities(Integrity::ALL.to_vec())
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let (one, by_scheme) = FleetRunner::builder()
        .workers(1)
        .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Integrity)))
        .run(&storm_matrix)
        .expect("storm sweep at 1 worker");
    let (two, by_scheme_two) = FleetRunner::builder()
        .workers(2)
        .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Integrity)))
        .run(&storm_matrix)
        .expect("storm sweep at 2 workers");
    assert_eq!(one, two, "storm digest drifted across worker counts");
    assert_eq!(by_scheme, by_scheme_two, "grouped digests drifted");

    let none = by_scheme.get("none").expect("none group");
    let checksum = by_scheme.get("checksum").expect("checksum group");
    let secded = by_scheme.get("secded").expect("secded group");
    assert!(
        none.integrity.silent_restores > 0,
        "the storm never corrupted an unguarded restore"
    );
    assert!(
        checksum.integrity.flips_detected > 0,
        "checksum caught nothing"
    );
    assert_eq!(checksum.resilience.silent_corruptions, 0);
    assert!(
        secded.integrity.flips_repaired > 0,
        "secded repaired nothing"
    );
    assert_eq!(secded.resilience.silent_corruptions, 0);
    println!(
        "storm sweep: {} scenarios bit-identical at 1 and 2 workers\n\
         none:     {} flips, {} silent restores\n\
         checksum: {} flips, {} detected, 0 silent\n\
         secded:   {} flips, {} repaired, 0 silent\n\
         wear max: {} commits",
        storm_matrix.len(),
        none.integrity.flips_injected,
        none.integrity.silent_restores,
        checksum.integrity.flips_injected,
        checksum.integrity.flips_detected,
        secded.integrity.flips_injected,
        secded.integrity.flips_repaired,
        one.integrity.wear_max_commits,
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
            "  \"storm_flips_injected\": {},\n",
            "  \"storm_flips_detected\": {},\n",
            "  \"storm_flips_repaired\": {},\n",
            "  \"storm_silent_restores\": {},\n",
            "  \"storm_wear_max_commits\": {}\n",
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
        storm_matrix.len(),
        one.integrity.flips_injected,
        one.integrity.flips_detected,
        one.integrity.flips_repaired,
        one.integrity.silent_restores,
        one.integrity.wear_max_commits,
    );
    record_bench_entry("wear_sweep", &entry);

    // The acceptance bar: ≤5% on the full grid, with headroom for
    // scheduler noise on the short quick run CI uses.
    let limit = if quick { 25.0 } else { 5.0 };
    assert!(
        overhead_pct <= limit,
        "integrity overhead {overhead_pct:.2}% exceeds the {limit:.0}% bar"
    );
}
