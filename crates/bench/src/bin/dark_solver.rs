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
//!    strategies × HAR) run over one `perf::Grid`'s shared execution
//!    plans in both modes, timed in paired rounds — the Amdahl-limited
//!    scenarios/sec effect, where the (mode-independent) powered op
//!    stream dilutes the dark-phase win.
//!
//! Results land as the `dark_solver` entry of `BENCH_fleet.json`;
//! `--quick` shrinks the cycle/run counts for the CI smoke run.

use ehdl::ehsim::{catalog, Environment, ExecutorConfig, IntermittentExecutor};
use ehdl::prelude::*;
use ehdl_bench::perf::{paired, Grid, REPS};
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
        .workloads(vec![Workload::Har { samples: 4 }]);
    let grid = Grid::new(matrix, runs);
    let scenarios = grid.scenarios().len();
    println!(
        "\nend-to-end: {scenarios} scenarios x {runs} runs, {REPS} paired rounds ({} mode)",
        if quick { "quick" } else { "full" }
    );

    // Sanity: the matrix really is outage-dominated but never stalled —
    // every discharge covers the hungriest post-boot burst, and every
    // environment's average power sits far below the inference draw.
    for scenario in grid.scenarios() {
        let plan = grid.plan(scenario);
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

    // Paired passes per mode over identical (plan, environment) work;
    // no trace-replay dedup, so every run exercises its dark loop.
    let analytic = IntermittentExecutor::new(grid.config().clone());
    let stepped = IntermittentExecutor::new(ExecutorConfig {
        charge_step_s: Some(STEP_S),
        ..grid.config().clone()
    });
    let mut analytic_pass =
        || grid.pass(|plan, _, board, supply| analytic.run_plan(plan, board, supply));
    let mut stepped_pass =
        || grid.pass(|plan, _, board, supply| stepped.run_plan(plan, board, supply));
    let measured = paired(&mut analytic_pass, &mut [("stepped", &mut stepped_pass)]);
    // The stepped arm's median ratio to the analytic one is the
    // end-to-end speedup.
    let stepped_reports = &measured.outputs[0];
    for (label, reports) in [("analytic", &measured.base), ("stepped", stepped_reports)] {
        assert!(
            reports.iter().all(|r| r.completed()),
            "{label}: every run of this matrix must complete"
        );
    }
    let dark_s: f64 = stepped_reports.iter().map(|r| r.charging_seconds).sum();
    let active_s: f64 = stepped_reports.iter().map(|r| r.active_seconds).sum();
    let dark_fraction = dark_s / (dark_s + active_s);
    measured.print("analytic", scenarios);
    let e2e = measured.timings[0].ratio;
    println!(
        "end-to-end speedup: {:.2}x [{:.2} .. {:.2}] scenarios/s on this matrix \
         ({:.1}% of simulated time dark)",
        e2e.median,
        e2e.q1,
        e2e.q3,
        dark_fraction * 100.0
    );

    let head = [
        ("quick", quick.to_string()),
        ("dark_cycles_per_env", cycles.to_string()),
        ("stepped_dark_sim_s_per_s", format!("{stepped_rate:.1}")),
        ("analytic_dark_sim_s_per_s", format!("{analytic_rate:.1}")),
        ("dark_phase_speedup", format!("{dark_speedup:.1}")),
        ("scenarios", scenarios.to_string()),
        ("runs_per_scenario", runs.to_string()),
        ("reps", REPS.to_string()),
        ("matrix_dark_fraction", format!("{dark_fraction:.4}")),
    ];
    let fields: Vec<(String, String)> = head
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .chain(measured.fields("analytic", scenarios))
        .collect();
    record_bench_entry("dark_solver", &fields);

    assert!(
        dark_speedup >= 5.0,
        "analytic dark phase under the 5x acceptance bar ({dark_speedup:.2}x)"
    );
    assert!(
        e2e.median >= 1.0,
        "analytic mode regressed end-to-end throughput ({:.2}x)",
        e2e.median
    );
}
