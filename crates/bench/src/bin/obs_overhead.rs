//! obs_overhead: what does watching a run cost?
//!
//! Replays the `exec_plan` scenario grid twice over identical pre-built
//! deployments and compiled plans, single-threaded:
//!
//! * **untraced** — `run_plan` with the implicit `NullProbe`, the
//!   zero-cost default every production sweep uses;
//! * **traced** — `run_plan_with` and the full observability stack
//!   attached: an `EventRing` collecting every structured run event
//!   next to a `PhaseProfile` timing the executor's phases.
//!
//! The two passes must produce **bit-identical** reports (probes only
//! observe), and the traced pass may cost at most a few percent — the
//! acceptance bar for "observability is free until you ask for it".
//! The traced pass's exports (JSONL, Chrome trace, profile JSON) are
//! re-parsed with the fleet crate's own `Json` reader, so CI validates
//! the whole export pipeline, not just the timing. Results land in the
//! `obs_overhead` entry of `BENCH_fleet.json`; `--quick` shrinks the
//! grid for the CI smoke run.

use ehdl::ehsim::{
    catalog, EventRing, ExecPhase, ExecutionPlan, ExecutorConfig, IntermittentExecutor, RunReport,
};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{mix, Json, PhaseProfile, ScenarioMatrix, Workload};
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    section("obs_overhead: traced vs untraced executor throughput");

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

    // ---- pass 1: untraced (NullProbe) ----
    let started = Instant::now();
    let mut reports_untraced: Vec<RunReport> = Vec::with_capacity(scenarios.len());
    for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
        let plan = &plans[slot];
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            reports_untraced.push(executor.run_plan(plan, &mut board, &mut supply));
        }
    }
    let untraced_s = started.elapsed().as_secs_f64();
    let untraced_rate = scenarios.len() as f64 / untraced_s;
    println!("untraced (NullProbe):      {untraced_s:>7.3} s  {untraced_rate:>8.1} scenarios/s");

    // ---- pass 2: traced (EventRing + PhaseProfile side by side) ----
    let started = Instant::now();
    let mut probe = (EventRing::new(1 << 16), PhaseProfile::new());
    let mut reports_traced: Vec<RunReport> = Vec::with_capacity(scenarios.len());
    let mut events_total: u64 = 0;
    for (scenario, &slot) in scenarios.iter().zip(&plan_slots) {
        let plan = &plans[slot];
        let mut board = scenario.board.board();
        for run in 0..u64::from(runs) {
            let env = scenario.environment.reseeded(mix(scenario.seed, run));
            let mut supply = env.supply();
            // Keep only the final run's events (the exporters below),
            // counting what each run emitted — the collection cost is
            // the same either way, which is what this bench measures.
            if !(scenario.index == scenarios.len() - 1 && run + 1 == u64::from(runs)) {
                probe.0.clear();
            }
            let (len_before, dropped_before) = (probe.0.len() as u64, probe.0.dropped());
            let t0 = Instant::now();
            reports_traced.push(executor.run_plan_with(
                plan,
                &mut board,
                &mut supply,
                RunOptions::default().probe(&mut probe),
            ));
            probe
                .1
                .record(ExecPhase::PlanExec, t0.elapsed().as_secs_f64());
            events_total +=
                (probe.0.len() as u64 - len_before) + (probe.0.dropped() - dropped_before);
        }
    }
    let traced_s = started.elapsed().as_secs_f64();
    let traced_rate = scenarios.len() as f64 / traced_s;
    let (ring, profile) = probe;
    println!("traced (ring + profile):   {traced_s:>7.3} s  {traced_rate:>8.1} scenarios/s");
    let overhead_pct = (traced_s / untraced_s - 1.0) * 100.0;
    println!("observability overhead: {overhead_pct:+.2}% ({events_total} events collected)");

    // Probes only observe: every report of the traced pass must equal
    // its untraced twin bit for bit.
    assert_eq!(
        reports_untraced, reports_traced,
        "traced pass perturbed the simulation"
    );
    println!(
        "reports: bit-identical across {} runs",
        reports_traced.len()
    );

    // ---- export validation: parse everything back with the in-repo
    // JSON reader, so the exporters stay machine-readable by contract.
    let jsonl = ring.to_jsonl();
    let mut jsonl_events = 0usize;
    let mut last_type = String::new();
    for line in jsonl.lines() {
        let event = Json::parse(line).expect("JSONL event parses");
        let label = event
            .req("type")
            .expect("event has a type")
            .as_str()
            .expect("type is a string")
            .to_string();
        match label.as_str() {
            "dark_skip" => {
                for key in ["t0", "t1", "joules"] {
                    event
                        .req(key)
                        .expect("dark_skip field")
                        .as_f64()
                        .expect("plain decimal");
                }
            }
            _ => {
                event
                    .req("t")
                    .expect("event has t")
                    .as_f64()
                    .expect("plain decimal");
            }
        }
        last_type = label;
        jsonl_events += 1;
    }
    assert_eq!(
        jsonl_events,
        ring.len(),
        "one JSONL line per retained event"
    );
    assert_eq!(last_type, "run_end", "a run's stream ends with run_end");

    let chrome = Json::parse(&ring.to_chrome_trace()).expect("Chrome trace parses");
    let trace_events = chrome
        .req("traceEvents")
        .expect("traceEvents key")
        .as_arr()
        .expect("traceEvents is an array");
    assert_eq!(trace_events.len(), ring.len());
    for event in trace_events {
        event
            .req("ph")
            .expect("phase tag")
            .as_str()
            .expect("ph is a string");
        event
            .req("ts")
            .expect("timestamp")
            .as_f64()
            .expect("ts is a number");
    }

    let round_tripped = PhaseProfile::from_json(&profile.to_json()).expect("profile JSON parses");
    assert_eq!(round_tripped, profile, "profile JSON round trip drifted");
    println!(
        "exports: JSONL ({jsonl_events} events), Chrome trace and profile JSON all re-parse\n"
    );
    println!("{profile}");

    let entry = format!(
        concat!(
            "{{\n",
            "  \"quick\": {},\n",
            "  \"scenarios\": {},\n",
            "  \"runs_per_scenario\": {},\n",
            "  \"untraced_seconds\": {:.6},\n",
            "  \"untraced_scenarios_per_sec\": {:.3},\n",
            "  \"traced_seconds\": {:.6},\n",
            "  \"traced_scenarios_per_sec\": {:.3},\n",
            "  \"overhead_pct\": {:.3},\n",
            "  \"events_collected\": {},\n",
            "  \"charge_solve_spans\": {},\n",
            "  \"checkpoint_restore_spans\": {}\n",
            "}}"
        ),
        quick,
        scenarios.len(),
        runs,
        untraced_s,
        untraced_rate,
        traced_s,
        traced_rate,
        overhead_pct,
        events_total,
        profile.digest(ExecPhase::ChargeSolve).count(),
        profile.digest(ExecPhase::CheckpointRestore).count(),
    );
    record_bench_entry("obs_overhead", &entry);

    // The acceptance bar: ≤5% on the full grid, with headroom for
    // scheduler noise on the short quick run CI uses.
    let limit = if quick { 25.0 } else { 5.0 };
    assert!(
        overhead_pct <= limit,
        "observability overhead {overhead_pct:.2}% exceeds the {limit:.0}% bar"
    );
}
