//! dark_solver: analytic dark-phase fast-forward vs 1 ms stepping.
//!
//! The paper's workloads spend most of their simulated life *dark*,
//! waiting for the capacitor to recharge between outages. The legacy
//! executor integrated that time in fixed `charge_step_s` increments —
//! one `Harvester::energy_over` call per millisecond of darkness — while
//! the analytic mode solves the wake time in closed form
//! (`Capacitor::joules_to_boot` + `Harvester::time_to_energy`), making
//! an outage O(waveform segments crossed) regardless of its length.
//!
//! Two measurements over the outage-heavy catalog entries (solar_day,
//! piezo_gait and the low-duty square stress entry — environments whose
//! average power sits far below the inference draw):
//!
//! 1. **Dark-phase throughput** (the headline): consecutive real
//!    brown-out → recharge → boot cycles, each driven once by the
//!    stepped integrator and once by the analytic solver, timing only
//!    the dark phase itself. Reported as simulated dark seconds per
//!    wall-clock second; the ratio is the solver's win, independent of
//!    how much powered op work a particular workload adds around it.
//! 2. **End-to-end**: the full matrix (3 environments × 3 surviving
//!    strategies × HAR) replayed through identical shared execution
//!    plans in both modes — the Amdahl-limited scenarios/sec effect,
//!    where the (mode-independent) powered op stream dilutes the
//!    dark-phase win.
//!
//! Results land as the `dark_solver` entry of `BENCH_fleet.json`;
//! `--quick` shrinks the cycle/run counts for the CI smoke run.

use ehdl::ehsim::{catalog, Environment, ExecutionPlan, ExecutorConfig, IntermittentExecutor};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{ScenarioMatrix, Workload};
use std::time::Instant;

const STEP_S: f64 = 1e-3;

fn environments() -> Vec<Environment> {
    vec![
        catalog::solar_day(),
        catalog::piezo_gait(),
        catalog::low_duty_square(),
    ]
}

/// Replays `cycles` consecutive brown-out → recharge → boot cycles of
/// one environment, dark phases only, in the given mode. Returns
/// (wall seconds, simulated dark seconds). The cycles are *consecutive*
/// in simulated time (plus a small active gap), so they sample the
/// waveform at the phases a real run would see.
fn dark_phases(env: &Environment, cycles: usize, stepped: bool) -> (f64, f64) {
    let harvester = env.harvester().clone();
    let template = env.capacitor().clone();
    let mut t = 0.0f64;
    let mut dark = 0.0f64;
    let started = Instant::now();
    for _ in 0..cycles {
        let mut cap = template.clone();
        cap.collapse_to_off();
        if stepped {
            while !cap.can_boot() {
                let harvested = harvester.energy_over(t, STEP_S);
                cap.charge_joules(harvested);
                t += STEP_S;
                dark += STEP_S;
            }
        } else {
            let dt = harvester.time_to_energy(t, cap.joules_to_boot());
            cap.recharge_to_on();
            t += dt;
            dark += dt;
        }
        // A sliver of active time between outages, like a real discharge.
        t += 0.013;
    }
    (started.elapsed().as_secs_f64(), dark)
}

fn main() {
    let quick = quick_mode();
    section("dark_solver: analytic dark-phase fast-forward vs 1 ms stepping");

    // ---- part 1: dark-phase throughput on real outage cycles ----
    let cycles = if quick { 300 } else { 3000 };
    println!("dark phases: {cycles} brown-out -> boot cycles per environment\n");
    let mut stepped_wall = 0.0f64;
    let mut stepped_dark = 0.0f64;
    let mut analytic_wall = 0.0f64;
    let mut analytic_dark = 0.0f64;
    for env in environments() {
        let (sw, sd) = dark_phases(&env, cycles, true);
        let (aw, ad) = dark_phases(&env, cycles, false);
        // Same physics: the solver may wake up to one step earlier per
        // cycle than the quantized loop, never later.
        assert!(ad <= sd + 1e-9, "{}: solver waits longer", env.name());
        assert!(
            sd - ad <= STEP_S * cycles as f64 + 1e-9,
            "{}: drift beyond one step per cycle",
            env.name()
        );
        println!(
            "{:<18} {:>9.3} s dark simulated   stepped {:>10.0} sim-s/s   analytic {:>13.0} sim-s/s   ({:.0}x)",
            env.name(),
            sd,
            sd / sw,
            ad / aw,
            (ad / aw) / (sd / sw)
        );
        stepped_wall += sw;
        stepped_dark += sd;
        analytic_wall += aw;
        analytic_dark += ad;
    }
    let stepped_rate = stepped_dark / stepped_wall;
    let analytic_rate = analytic_dark / analytic_wall;
    let dark_speedup = analytic_rate / stepped_rate;
    println!(
        "\ndark-phase throughput: {stepped_rate:.0} -> {analytic_rate:.0} simulated dark s per wall s  ({dark_speedup:.0}x)"
    );

    // ---- part 2: end-to-end matrix, both modes ----
    let runs: u32 = if quick { 2 } else { 10 };
    let matrix = ScenarioMatrix::new()
        .environments(environments())
        .strategies(vec![Strategy::Sonic, Strategy::Tails, Strategy::Flex])
        .workloads(vec![Workload::Har { samples: 4 }])
        .runs(runs)
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let scenarios = matrix.scenarios();
    println!(
        "\nend-to-end: {} scenarios x {} runs ({} mode)",
        scenarios.len(),
        runs,
        if quick { "quick" } else { "full" }
    );

    // Shared scaffolding, excluded from timing: one deployment and one
    // compiled plan per (workload, board, strategy).
    let mut deployments: Vec<Deployment> = Vec::new();
    let mut plans: Vec<ExecutionPlan> = Vec::new();
    for scenario in &scenarios {
        if scenario.deployment_key() == deployments.len() {
            let data = scenario.workload.dataset(scenario.seed);
            let mut model = scenario.workload.model();
            let deployment = Deployment::builder(&mut model, &data)
                .board(scenario.board.clone())
                .strategy(scenario.strategy)
                .build()
                .expect("deployment builds");
            plans.push(deployment.compile_plan());
            deployments.push(deployment);
        }
    }

    // Sanity: the matrix really is outage-dominated but never stalled —
    // every discharge covers the hungriest post-boot burst, and every
    // environment's average power sits far below the inference draw.
    for scenario in &scenarios {
        let plan = &plans[scenario.deployment_key()];
        let budget = scenario.environment.capacitor().discharge_budget_joules();
        assert!(
            plan.max_burst_need_j() < budget,
            "{}: burst {} J exceeds the {} J discharge budget",
            scenario.environment.name(),
            plan.max_burst_need_j(),
            budget
        );
        assert!(scenario.environment.average_power() < 1e-3);
    }

    // One timed pass per mode over identical (plan, environment) work;
    // no trace-replay dedup, so every run exercises its dark loop.
    let timed_pass = |label: &str, charge_step_s: Option<f64>| -> (f64, f64) {
        let executor = IntermittentExecutor::new(ExecutorConfig {
            charge_step_s,
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
        let mut dark_s = 0.0f64;
        let mut active_s = 0.0f64;
        let mut completed = 0u64;
        let started = Instant::now();
        for scenario in &scenarios {
            let plan = &plans[scenario.deployment_key()];
            let mut board = scenario.board.board();
            for _ in 0..runs {
                let mut supply = scenario.environment.supply();
                let report = executor.run_plan(plan, &mut board, &mut supply);
                dark_s += report.charging_seconds;
                active_s += report.active_seconds;
                completed += u64::from(report.completed());
            }
        }
        let wall = started.elapsed().as_secs_f64();
        assert_eq!(
            completed,
            scenarios.len() as u64 * u64::from(runs),
            "{label}: every run of this matrix must complete"
        );
        let dark_fraction = dark_s / (dark_s + active_s);
        println!(
            "{label:<22} {wall:>8.3} s wall   {:>7.1} scenarios/s   ({:.1}% of simulated time dark)",
            scenarios.len() as f64 / wall,
            dark_fraction * 100.0
        );
        (wall, dark_fraction)
    };
    let (stepped_e2e, dark_fraction) = timed_pass("stepped (1 ms)", Some(STEP_S));
    let (analytic_e2e, _) = timed_pass("analytic (solver)", None);
    let e2e_speedup = stepped_e2e / analytic_e2e;
    println!("end-to-end speedup: {e2e_speedup:.2}x scenarios/s on this matrix");

    let entry = format!(
        concat!(
            "{{\n",
            "  \"quick\": {},\n",
            "  \"dark_cycles_per_env\": {},\n",
            "  \"stepped_dark_sim_s_per_s\": {:.1},\n",
            "  \"analytic_dark_sim_s_per_s\": {:.1},\n",
            "  \"dark_phase_speedup\": {:.1},\n",
            "  \"scenarios\": {},\n",
            "  \"runs_per_scenario\": {},\n",
            "  \"matrix_dark_fraction\": {:.4},\n",
            "  \"stepped_seconds\": {:.6},\n",
            "  \"analytic_seconds\": {:.6},\n",
            "  \"end_to_end_speedup\": {:.3}\n",
            "}}"
        ),
        quick,
        cycles,
        stepped_rate,
        analytic_rate,
        dark_speedup,
        scenarios.len(),
        runs,
        dark_fraction,
        stepped_e2e,
        analytic_e2e,
        e2e_speedup,
    );
    record_bench_entry("dark_solver", &entry);

    assert!(
        dark_speedup >= 5.0,
        "analytic dark phase under the 5x acceptance bar ({dark_speedup:.2}x)"
    );
    assert!(
        e2e_speedup >= 1.0,
        "analytic mode regressed end-to-end throughput ({e2e_speedup:.2}x)"
    );
}
