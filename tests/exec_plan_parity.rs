//! Executor parity: the compiled-plan fast path must be **bit-identical**
//! to the retained op-by-op reference interpreter — same outages, same
//! executed/wasted ops, same energy, same per-component meter — across
//! all six strategies, the full environment catalog, and both session-
//! and fleet-level entry points. This is the acceptance bar for the
//! compile-once execution-plan optimization: any float reordering in the
//! fast path shows up here as a hard failure.

use ehdl::device::CostTable;
use ehdl::ehsim::{catalog, ExecutorConfig, Integrity, IntermittentExecutor};
use ehdl::prelude::*;
use ehdl_fleet::{FleetRunner, ScenarioMatrix, Workload};

/// Bounded executor so strategies that can never finish (BASE, bare ACE
/// under harvested power) declare their ✗ quickly.
fn quick_executor() -> ExecutorConfig {
    ExecutorConfig {
        stall_outages: 6,
        max_wall_seconds: 600.0,
        ..ExecutorConfig::default()
    }
}

fn deployment_for(model: &mut ehdl::nn::Model, data: &ehdl::datasets::Dataset) -> Deployment {
    Deployment::builder(model, data)
        .build()
        .expect("deployment builds")
}

/// Plan-based vs. reference run for every (strategy, environment) pair
/// of one workload, on fresh boards each time.
fn assert_strategy_catalog_parity(mut model: ehdl::nn::Model, data: ehdl::datasets::Dataset) {
    let deployment = deployment_for(&mut model, &data);
    let executor = IntermittentExecutor::new(quick_executor());
    for strategy in Strategy::ALL {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        let plan =
            ehdl::ehsim::ExecutionPlan::compile(program.clone(), &deployment.board_spec().board());
        for environment in catalog::all() {
            let mut board_planned = deployment.board_spec().board();
            let mut board_reference = deployment.board_spec().board();
            let mut supply_planned = environment.supply();
            let mut supply_reference = environment.supply();
            let planned = executor.run_plan(&plan, &mut board_planned, &mut supply_planned);
            let reference = executor.run_reference(
                &program,
                Integrity::None,
                &mut board_reference,
                &mut supply_reference,
                RunOptions::default(),
            );
            assert_eq!(
                planned,
                reference,
                "strategy {strategy} in {}",
                environment.name()
            );
            assert_eq!(
                board_planned.meter(),
                board_reference.meter(),
                "board meter drift for {strategy} in {}",
                environment.name()
            );
        }
    }
}

#[test]
fn har_parity_across_strategies_and_catalog() {
    assert_strategy_catalog_parity(ehdl::nn::zoo::har(), ehdl::datasets::har(16, 3));
}

/// The legacy quantized dark loop (`charge_step_s: Some(step)`) must
/// also hold plan-vs-reference parity — the analytic solver and the
/// stepped integrator are two modes of **both** executor paths, at the
/// same loop-head points.
#[test]
fn stepped_legacy_mode_parity_across_the_catalog() {
    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    let deployment = deployment_for(&mut model, &data);
    let executor = IntermittentExecutor::new(ExecutorConfig {
        charge_step_s: Some(1e-3),
        ..quick_executor()
    });
    for strategy in [Strategy::Sonic, Strategy::Flex] {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        let plan =
            ehdl::ehsim::ExecutionPlan::compile(program.clone(), &deployment.board_spec().board());
        for environment in catalog::all() {
            let mut board_planned = deployment.board_spec().board();
            let mut board_reference = deployment.board_spec().board();
            let mut supply_planned = environment.supply();
            let mut supply_reference = environment.supply();
            let planned = executor.run_plan(&plan, &mut board_planned, &mut supply_planned);
            let reference = executor.run_reference(
                &program,
                Integrity::None,
                &mut board_reference,
                &mut supply_reference,
                RunOptions::default(),
            );
            assert_eq!(
                planned,
                reference,
                "stepped mode: {strategy} in {}",
                environment.name()
            );
        }
    }
}

#[test]
fn mnist_parity_across_strategies_and_catalog() {
    assert_strategy_catalog_parity(ehdl::nn::zoo::mnist(), ehdl::datasets::mnist(8, 5));
}

/// The 48-scenario acceptance matrix (4 environments × 6 strategies ×
/// 2 boards), two runs per scenario so the second run starts from a
/// nonzero board meter — the planned fleet path must reproduce the
/// reference interpreter's `FleetReport` bit for bit at 1, 2 and 8
/// workers.
#[test]
fn fleet_matrix_parity_at_1_2_and_8_workers() {
    let mut slow_cpu = CostTable::msp430fr5994();
    slow_cpu.cpu_op_cycles *= 2;
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .boards(vec![BoardSpec::Msp430Fr5994, BoardSpec::Custom(slow_cpu)])
        .workloads(vec![Workload::Har { samples: 6 }])
        .runs(2)
        .executor(quick_executor());
    assert_eq!(matrix.len(), 48);

    let reference = FleetRunner::new(1)
        .reference_executor(true)
        .run(&matrix)
        .expect("reference sweep");
    for workers in [1, 2, 8] {
        let planned = FleetRunner::new(workers)
            .run(&matrix)
            .expect("planned sweep");
        assert_eq!(reference, planned, "{workers} workers");
        assert_eq!(reference.to_string(), planned.to_string());
    }
}

/// Cross-seed plan sharing: scenarios that differ only in dataset seed
/// share one compiled plan; their reports must still match a reference
/// sweep that lowers each scenario's program from its own deployment.
#[test]
fn plan_sharing_across_seeds_is_lossless() {
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::office_rf(), catalog::solar_day()])
        .strategies(vec![Strategy::Tails, Strategy::Flex])
        .workloads(vec![Workload::Mnist { samples: 4 }])
        .seeds(vec![0, 11, 42])
        .executor(quick_executor());
    let planned = FleetRunner::new(4).run(&matrix).expect("planned sweep");
    let reference = FleetRunner::new(4)
        .reference_executor(true)
        .run(&matrix)
        .expect("reference sweep");
    assert_eq!(planned, reference);
}

/// Probes are pure observers: for every (strategy, environment) pair a
/// plan run watched by an `EventRing` + `PhaseProfile` pair and a probed
/// reference run must reproduce their unprobed twins bit for bit —
/// report and board meter alike — while the event stream itself stays
/// well-formed (monotone sim time, exactly one terminal `run_end`).
#[test]
fn probed_runs_are_bit_identical_across_strategies_and_catalog() {
    use ehdl::ehsim::{EventRing, ExecPhase};
    use ehdl_fleet::PhaseProfile;

    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    let deployment = deployment_for(&mut model, &data);
    let executor = IntermittentExecutor::new(quick_executor());
    for strategy in Strategy::ALL {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        let plan =
            ehdl::ehsim::ExecutionPlan::compile(program.clone(), &deployment.board_spec().board());
        for environment in catalog::all() {
            let name = environment.name();

            let mut board_plain = deployment.board_spec().board();
            let mut supply_plain = environment.supply();
            let plain = executor.run_plan(&plan, &mut board_plain, &mut supply_plain);

            let mut board_probed = deployment.board_spec().board();
            let mut supply_probed = environment.supply();
            let mut probe = (EventRing::new(1 << 16), PhaseProfile::new());
            let opts = RunOptions::default().probe(&mut probe);
            let probed = executor.run_plan_with(&plan, &mut board_probed, &mut supply_probed, opts);
            assert_eq!(plain, probed, "{strategy} in {name}");
            assert_eq!(
                board_plain.meter(),
                board_probed.meter(),
                "meter drift under probes: {strategy} in {name}"
            );

            let (ring, profile) = probe;
            assert_eq!(ring.dropped(), 0, "{strategy} in {name}: ring too small");
            let last = ring.events().last().expect("a run emits at least run_end");
            assert_eq!(last.label(), "run_end", "{strategy} in {name}");
            assert_eq!(
                ring.events().filter(|e| e.label() == "run_end").count(),
                1,
                "{strategy} in {name}"
            );
            let mut prev = 0.0;
            for event in ring.events() {
                assert!(
                    event.t() >= prev,
                    "sim time went backwards at {event:?} ({strategy} in {name})"
                );
                prev = event.t();
            }
            // Every outage implies a dark recharge the profile timed —
            // except the last one of a stalled run, which aborts before
            // waiting out its dark phase.
            if plain.outages > 0 {
                assert!(
                    profile.digest(ExecPhase::ChargeSolve).count() >= plain.outages - 1,
                    "{strategy} in {name}: {} charge-solve spans for {} outages",
                    profile.digest(ExecPhase::ChargeSolve).count(),
                    plain.outages
                );
            }
            if plain.restores > 0 {
                assert!(
                    profile.digest(ExecPhase::CheckpointRestore).count() > 0,
                    "{strategy} in {name}: no restore spans despite {} restores",
                    plain.restores
                );
            }

            // The reference-path twin holds the same bit-identity bar.
            let mut board_ref = deployment.board_spec().board();
            let mut supply_ref = environment.supply();
            let reference = executor.run_reference(
                &program,
                Integrity::None,
                &mut board_ref,
                &mut supply_ref,
                RunOptions::default(),
            );
            let mut board_ref_probed = deployment.board_spec().board();
            let mut supply_ref_probed = environment.supply();
            let mut ring_ref = EventRing::new(1 << 16);
            let reference_probed = executor.run_reference(
                &program,
                Integrity::None,
                &mut board_ref_probed,
                &mut supply_ref_probed,
                RunOptions::default().probe(&mut ring_ref),
            );
            assert_eq!(
                reference, reference_probed,
                "reference: {strategy} in {name}"
            );
            assert_eq!(
                board_ref.meter(),
                board_ref_probed.meter(),
                "reference meter drift under probes: {strategy} in {name}"
            );
            assert_eq!(
                ring_ref.events().last().map(|e| e.label()),
                Some("run_end"),
                "reference: {strategy} in {name}"
            );
        }
    }
}

/// The traced recording path (what fleet sweeps replay from) must record
/// the identical trace with and without a probe attached.
#[test]
fn traced_recording_is_probe_invariant() {
    use ehdl::ehsim::EventRing;

    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    let deployment = deployment_for(&mut model, &data);
    let executor = IntermittentExecutor::new(quick_executor());
    let program = Strategy::Flex.lower(deployment.quantized(), deployment.program());
    let plan = ehdl::ehsim::ExecutionPlan::compile(program, &deployment.board_spec().board());
    for environment in catalog::all() {
        let mut board_plain = deployment.board_spec().board();
        let mut supply_plain = environment.supply();
        let (report_plain, trace_plain) = executor.record_plan_with(
            &plan,
            &mut board_plain,
            &mut supply_plain,
            RunOptions::default(),
        );

        let mut board_probed = deployment.board_spec().board();
        let mut supply_probed = environment.supply();
        let mut ring = EventRing::new(1 << 16);
        let (report_probed, trace_probed) = executor.record_plan_with(
            &plan,
            &mut board_probed,
            &mut supply_probed,
            RunOptions::default().probe(&mut ring),
        );
        assert_eq!(report_plain, report_probed, "{}", environment.name());
        assert_eq!(trace_plain, trace_probed, "{}", environment.name());
        assert!(!ring.is_empty(), "{}", environment.name());
    }
}

/// The continuous-power fold baked into the plan must equal an actual
/// continuous replay of the lowered program, for every strategy.
#[test]
fn continuous_fold_parity_across_strategies() {
    let model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(16, 3);
    for strategy in Strategy::ALL {
        let mut m = model.clone();
        let deployment = Deployment::builder(&mut m, &data)
            .strategy(strategy)
            .build()
            .expect("deployment builds");
        let session = deployment.session();
        let mut pricing = deployment.board_spec().board();
        let cost = ehdl::ehsim::run_continuous(session.program(), &mut pricing);
        assert_eq!(session.continuous_cost(), cost, "{strategy}");
        assert_eq!(session.continuous_meter(), pricing.meter(), "{strategy}");
    }
}
