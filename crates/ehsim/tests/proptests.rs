//! Property tests on the energy-harvesting executor's invariants.
//!
//! Offline build: no `proptest` crate is available, so the properties
//! are checked over a deterministic SplitMix64-driven sample stream.

use ehdl_device::{Board, DeviceOp};
use ehdl_ehsim::{
    catalog, Capacitor, CheckpointSpec, ExecutorConfig, Harvester, IntermittentExecutor,
    PowerSupply, Program,
};
use ehdl_nn::WeightRng;

/// Deterministic case generator: the shared [`WeightRng`] stream plus
/// executor-domain helpers.
struct Gen(WeightRng);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(WeightRng::new(seed))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `[0, 1)` at full f64 resolution (53 random bits), for
    /// properties that must see every rounding case.
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        // f32 resolution is plenty for supply parameters, and every f32
        // is exact in f64, so downstream identities still hold exactly.
        f64::from(self.0.range_f32(lo as f32, hi as f32))
    }

    /// Op cycle counts in `[100, 5000)`, list length in `[1, max_len]`.
    fn op_cycles(&mut self, max_len: usize) -> Vec<u16> {
        let n = 1 + (self.next_u64() as usize) % max_len;
        (0..n)
            .map(|_| 100 + (self.next_u64() % 4900) as u16)
            .collect()
    }
}

/// A random but always-completable program: every op commits.
fn committing_program(ops: &[u16]) -> Program {
    let mut p = Program::new("prop");
    for &cycles in ops {
        p.push(
            DeviceOp::CpuOps {
                count: u64::from(cycles) + 1,
            },
            CheckpointSpec::COMMIT,
        );
    }
    p
}

fn run(program: &Program, watts: f64, farads: f64) -> (ehdl_ehsim::RunReport, ehdl_device::Cost) {
    let mut board = Board::msp430fr5994();
    let mut supply = PowerSupply::new(
        Harvester::square(watts, 0.05, 0.5),
        Capacitor::new(farads, 3.3, 3.0, 1.8),
    );
    let report =
        IntermittentExecutor::new(ExecutorConfig::default()).run(program, &mut board, &mut supply);
    let mut fresh = Board::msp430fr5994();
    let continuous = ehdl_ehsim::run_continuous(program, &mut fresh);
    (report, continuous)
}

const CASES: usize = 24;

#[test]
fn committing_programs_always_complete() {
    let mut g = Gen::new(41);
    for case in 0..CASES {
        let ops = g.op_cycles(200);
        let watts = g.f64_in(0.001, 0.01);
        let program = committing_program(&ops);
        let (report, _) = run(&program, watts, 47e-6);
        assert!(report.completed(), "case {case}: {report}");
    }
}

#[test]
fn time_accounting_is_consistent() {
    let mut g = Gen::new(42);
    for case in 0..CASES {
        let ops = g.op_cycles(150);
        let program = committing_program(&ops);
        let (report, _) = run(&program, 0.002, 22e-6);
        assert!(report.completed(), "case {case}");
        // Wall clock covers active + charging.
        assert!(
            report.wall_seconds + 1e-9 >= report.active_seconds + report.charging_seconds,
            "case {case}"
        );
        // Active time equals cycles at 16 MHz.
        assert!(
            (report.active_seconds - report.active_cycles.raw() as f64 / 16e6).abs() < 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn intermittent_work_is_at_least_continuous_work() {
    let mut g = Gen::new(43);
    for case in 0..CASES {
        // Restores and re-execution can only add work, never remove it.
        let ops = g.op_cycles(150);
        let program = committing_program(&ops);
        let (report, continuous) = run(&program, 0.002, 22e-6);
        assert!(report.completed(), "case {case}");
        assert!(
            report.active_cycles.raw() >= continuous.cycles.raw(),
            "case {case}"
        );
        assert!(
            report.energy.nanojoules() >= continuous.energy.nanojoules() - 1e-6,
            "case {case}"
        );
    }
}

#[test]
fn executed_ops_equal_program_plus_waste() {
    let mut g = Gen::new(44);
    for case in 0..CASES {
        let ops = g.op_cycles(150);
        let program = committing_program(&ops);
        let (report, _) = run(&program, 0.002, 22e-6);
        assert!(report.completed(), "case {case}");
        // Every op commits, so nothing is ever wasted.
        assert_eq!(report.wasted_ops, 0, "case {case}");
        assert_eq!(report.executed_ops, ops.len() as u64, "case {case}");
    }
}

#[test]
fn capacitor_energy_is_conserved() {
    let mut g = Gen::new(45);
    for case in 0..CASES {
        let n = 1 + (g.next_u64() as usize) % 50;
        let drains: Vec<f64> = (0..n).map(|_| g.f64_in(1e-6, 50e-6)).collect();
        let mut cap = Capacitor::paper_100uf();
        let mut expected;
        for d in drains {
            let before = cap.energy_joules();
            cap.drain_joules(d);
            expected = (before - d).max(0.0);
            assert!(
                (cap.energy_joules() - expected).abs() < 1e-12,
                "case {case}"
            );
            cap.charge_joules(d / 2.0);
            // Charging is capped at v_max but below the cap it is exact.
            if cap.volts() < cap.v_max() {
                assert!(
                    (cap.energy_joules() - (expected + d / 2.0)).abs() < 1e-12,
                    "case {case}"
                );
            }
        }
    }
}

/// One randomized instance of every waveform variant, parameterized by
/// the generator — the charge-solver property domain.
fn random_waveforms(g: &mut Gen) -> Vec<Harvester> {
    let watts = g.f64_in(0.5e-3, 8e-3);
    let period = g.f64_in(0.01, 0.3);
    let duty = g.f64_in(0.05, 1.0);
    let slot = g.f64_in(0.002, 0.05);
    let p_on = g.f64_in(0.05, 0.95);
    let seed = g.next_u64();
    let segments: Vec<(f64, f64)> = (0..2 + (g.next_u64() as usize) % 4)
        .map(|i| {
            let d = g.f64_in(0.005, 0.08);
            // Roughly half the segments are dead, like a real trace.
            let w = if i % 2 == 0 {
                g.f64_in(0.5e-3, 6e-3)
            } else {
                0.0
            };
            (d, w)
        })
        .collect();
    vec![
        Harvester::constant(watts),
        Harvester::square(watts, period, duty),
        Harvester::sine(watts, period),
        Harvester::bursts(watts, slot, p_on, seed),
        Harvester::trace(segments),
    ]
}

#[test]
fn time_to_energy_roundtrips_through_energy_over() {
    // energy_over(t0, time_to_energy(t0, e)) ≈ e for every waveform
    // variant across randomized parameters, start times and targets.
    let mut g = Gen::new(47);
    for case in 0..CASES {
        for h in random_waveforms(&mut g) {
            for _ in 0..4 {
                let t0 = g.f64_in(0.0, 5.0);
                let joules = g.f64_in(1e-7, 2e-3);
                let dt = h.time_to_energy(t0, joules);
                assert!(
                    dt.is_finite() && dt >= 0.0,
                    "case {case}: {h} t0={t0} e={joules} -> {dt}"
                );
                let back = h.energy_over(t0, dt);
                let rel = (back - joules).abs() / joules;
                assert!(
                    rel <= 1e-9,
                    "case {case}: {h} t0={t0} want {joules} got {back} (rel {rel:e})"
                );
            }
        }
    }
}

#[test]
fn time_to_energy_is_monotone_in_the_target() {
    let mut g = Gen::new(48);
    for case in 0..CASES {
        for h in random_waveforms(&mut g) {
            let t0 = g.f64_in(0.0, 2.0);
            let lo = g.f64_in(1e-7, 1e-3);
            let hi = lo * g.f64_in(1.0, 5.0);
            let dt_lo = h.time_to_energy(t0, lo);
            let dt_hi = h.time_to_energy(t0, hi);
            assert!(
                dt_lo <= dt_hi,
                "case {case}: {h} t0={t0} {lo}J->{dt_lo}s but {hi}J->{dt_hi}s"
            );
        }
    }
}

#[test]
fn solver_wake_lands_in_the_stepped_oracle_window() {
    // The analytic wake time must fall in the same step window the
    // legacy quantized loop wakes in: if the stepped loop needs k steps,
    // the exact solution lies in ((k−1)·step, k·step] (modulo float
    // slack at the boundary).
    let mut g = Gen::new(49);
    for case in 0..CASES {
        for h in random_waveforms(&mut g) {
            let t0 = g.f64_in(0.0, 3.0);
            let joules = g.f64_in(1e-6, 5e-4);
            let step = g.f64_in(0.5e-3, 2e-3);
            let solved = h.time_to_energy(t0, joules);

            // The stepped oracle: integrate in fixed increments until
            // the target is covered, like the legacy dark loop.
            let mut gathered = 0.0;
            let mut steps = 0u64;
            while gathered < joules {
                gathered += h.energy_over(t0 + steps as f64 * step, step);
                steps += 1;
                assert!(steps < 2_000_000, "case {case}: oracle ran away ({h})");
            }
            let window_hi = steps as f64 * step;
            let window_lo = window_hi - step;
            let slack = 1e-9 * window_hi.max(1.0);
            assert!(
                solved <= window_hi + slack,
                "case {case}: {h} solved {solved} beyond stepped wake {window_hi}"
            );
            assert!(
                solved > window_lo - slack,
                "case {case}: {h} solved {solved} below window ({window_lo}, {window_hi}]"
            );
        }
    }
}

#[test]
fn analytic_and_stepped_executors_agree_on_progress() {
    // Same program, same supply: the analytic fast-forward must reach
    // the same committed progress as the stepped integrator — only the
    // wake-time quantization may differ, never who completes.
    let mut g = Gen::new(50);
    for case in 0..8 {
        let ops = g.op_cycles(150);
        let program = committing_program(&ops);
        let watts = g.f64_in(0.002, 0.006);
        let run_with = |charge_step_s: Option<f64>| {
            let mut board = Board::msp430fr5994();
            let mut supply = PowerSupply::new(
                Harvester::square(watts, 0.05, 0.5),
                Capacitor::new(22e-6, 3.3, 3.0, 1.8),
            );
            IntermittentExecutor::new(ExecutorConfig {
                charge_step_s,
                ..ExecutorConfig::default()
            })
            .run(&program, &mut board, &mut supply)
        };
        let analytic = run_with(None);
        let stepped = run_with(Some(1e-3));
        assert_eq!(analytic.outcome, stepped.outcome, "case {case}");
        assert_eq!(analytic.executed_ops, stepped.executed_ops, "case {case}");
        assert_eq!(analytic.outages, stepped.outages, "case {case}");
        // Analytic dark time is never longer than the quantized one,
        // and shorter by at most one step per outage.
        assert!(
            analytic.charging_seconds <= stepped.charging_seconds + 1e-9,
            "case {case}"
        );
        assert!(
            stepped.charging_seconds - analytic.charging_seconds
                <= 1e-3 * stepped.outages as f64 + 1e-9,
            "case {case}"
        );
    }
}

#[test]
fn harvester_energy_is_additive() {
    let mut g = Gen::new(46);
    for case in 0..CASES {
        let t0 = g.f64_in(0.0, 1.0);
        let dt1 = g.f64_in(1e-4, 0.1);
        let dt2 = g.f64_in(1e-4, 0.1);
        for h in [
            Harvester::constant(0.003),
            Harvester::square(0.004, 0.05, 0.5),
            Harvester::trace(vec![(0.01, 0.002), (0.02, 0.0), (0.005, 0.006)]),
        ] {
            let whole = h.energy_over(t0, dt1 + dt2);
            let split = h.energy_over(t0, dt1) + h.energy_over(t0 + dt1, dt2);
            assert!((whole - split).abs() < 1e-12, "case {case}: {h}");
        }
    }
}

/// The capacitors of every catalog environment, including the stress
/// entry outside `catalog::all()`.
fn catalog_capacitors() -> Vec<Capacitor> {
    catalog::all()
        .into_iter()
        .chain([catalog::low_duty_square()])
        .map(|env| env.capacitor().clone())
        .collect()
}

/// `½CV²`, evaluated in the same order as the capacitor's own
/// thresholds so the comparisons below are exact.
fn energy_at(cap: &Capacitor, v: f64) -> f64 {
    0.5 * cap.farads() * v * v
}

/// One random step over the reachable state space: charges and drains
/// of random size (up to the whole buffer, at full f64 resolution),
/// with occasional brown-out collapses and boot recharges.
fn random_step(g: &mut Gen, cap: &mut Capacitor, e_max: f64) {
    let whole = g.unit_f64() * e_max;
    // One step in four may overshoot the whole buffer.
    let scale = [1.2, 0.3, 0.3, 0.3][(g.next_u64() % 4) as usize];
    let amount = whole * scale;
    match g.next_u64() % 16 {
        0 => cap.collapse_to_off(),
        1 => cap.recharge_to_on(),
        2..=8 => cap.charge_joules(amount),
        _ => cap.drain_joules(amount),
    }
}

#[test]
fn capacitor_energy_stays_within_its_bounds() {
    let mut g = Gen::new(51);
    for mut cap in catalog_capacitors() {
        let e_max = energy_at(&cap, cap.v_max());
        for step in 0..20_000 {
            random_step(&mut g, &mut cap, e_max);
            let e = cap.energy_joules();
            assert!((0.0..=e_max).contains(&e), "{cap} step {step}: {e} J");
        }
    }
}

#[test]
fn capacitor_thresholds_agree_with_the_voltage() {
    // The energy-domain checks must say what a voltmeter would, except
    // within float noise of a threshold.
    let mut g = Gen::new(52);
    let near = |v: f64, threshold: f64| (v - threshold).abs() <= 1e-12 * threshold;
    for mut cap in catalog_capacitors() {
        let e_max = energy_at(&cap, cap.v_max());
        for step in 0..20_000 {
            random_step(&mut g, &mut cap, e_max);
            let v = cap.volts();
            if !near(v, cap.v_on()) {
                assert_eq!(cap.can_boot(), v >= cap.v_on(), "{cap} step {step}");
            }
            if !near(v, cap.v_off()) {
                assert_eq!(cap.browned_out(), v < cap.v_off(), "{cap} step {step}");
            }
        }
    }
}

#[test]
fn capacitor_drain_then_charge_round_trips() {
    let mut g = Gen::new(53);
    for mut cap in catalog_capacitors() {
        let e_max = energy_at(&cap, cap.v_max());
        for step in 0..20_000 {
            random_step(&mut g, &mut cap, e_max);
            let before = cap.energy_joules();
            // Any amount the buffer holds, so the drain never floors.
            let x = g.unit_f64() * before;
            cap.drain_joules(x);
            cap.charge_joules(x);
            let err = (cap.energy_joules() - before).abs();
            assert!(err <= 1e-18, "{cap} step {step}: off by {err:e} J");
        }
    }
}

#[test]
fn charging_the_boot_deficit_always_boots() {
    // In plain f64, `j + (e_on − j)` rounds below `e_on` for a fraction
    // of states under `e_on / 2`; `joules_to_boot` must cover those, and
    // the loop below must actually meet some of them.
    let mut g = Gen::new(54);
    let mut rounded_short = 0u64;
    for mut cap in catalog_capacitors() {
        let e_max = energy_at(&cap, cap.v_max());
        let e_on = energy_at(&cap, cap.v_on());
        for step in 0..20_000 {
            random_step(&mut g, &mut cap, e_max);
            let j = cap.energy_joules();
            if j + (e_on - j) < e_on {
                rounded_short += 1;
            }
            let mut charged = cap.clone();
            charged.charge_joules(cap.joules_to_boot());
            assert!(charged.can_boot(), "{cap} step {step}: {j} J");
            assert_eq!(charged.joules_to_boot(), 0.0, "{cap} step {step}");
        }
    }
    assert!(rounded_short > 0, "no state exercised the rounding case");
}
