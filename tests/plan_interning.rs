//! Interned plans: a plan prices each distinct (op, checkpoint spec)
//! pair once and keeps one kind index per op. Across the model zoo,
//! every strategy and every integrity scheme, the interned plan must
//! read back exactly what per-op pricing computes: the same program,
//! the same cost and meter component per op, the same commit and
//! on-demand flags, and the same continuous-power totals.

use ehdl::device::DeviceOp;
use ehdl::ehsim::{run_continuous, ExecutionPlan, Integrity};
use ehdl::prelude::*;

fn assert_interning_parity(mut model: ehdl::nn::Model, data: ehdl::datasets::Dataset) {
    let deployment = Deployment::builder(&mut model, &data)
        .build()
        .expect("deployment builds");
    let board = deployment.board_spec().board();
    for strategy in Strategy::ALL {
        let program = strategy.lower(deployment.quantized(), deployment.program());
        let priced: Vec<_> = program
            .ops()
            .iter()
            .map(|pop| board.cost_with_component(&pop.op))
            .collect();
        let mut pricing = deployment.board_spec().board();
        let continuous = run_continuous(&program, &mut pricing);
        for scheme in Integrity::ALL {
            let plan = ExecutionPlan::compile_with_integrity(program.clone(), &board, scheme);
            let at = format!("{} {strategy} {}", program.name(), scheme.label());
            // The zoo's programs draw on 13–35 kinds each.
            assert!(plan.kind_count() <= 64, "{at}: {} kinds", plan.kind_count());
            assert_eq!(plan.program(), &program, "{at}");
            for (i, (pop, (cost, component))) in program.ops().iter().zip(&priced).enumerate() {
                let (planned, planned_component) = plan.op_cost(i);
                assert_eq!(planned.cost(), *cost, "{at} op {i}");
                assert_eq!(planned_component, *component, "{at} op {i}");
                assert_eq!(plan.commits(i), pop.spec.commits, "{at} op {i}");
                let ondemand = pop.spec.ondemand_words.map(|words| {
                    board.cost(&DeviceOp::Checkpoint {
                        words: scheme.padded_words(words as u64),
                    })
                });
                assert_eq!(
                    plan.ondemand_checkpoint(i).map(|ck| ck.cost()),
                    ondemand,
                    "{at} op {i}"
                );
            }
            assert_eq!(plan.continuous_cost(), continuous, "{at}");
            assert_eq!(plan.continuous_meter(), pricing.meter(), "{at}");
        }
    }
}

#[test]
fn har_plans_intern_bit_identically() {
    assert_interning_parity(ehdl::nn::zoo::har(), ehdl::datasets::har(8, 3));
}

#[test]
fn mnist_plans_intern_bit_identically() {
    assert_interning_parity(ehdl::nn::zoo::mnist(), ehdl::datasets::mnist(8, 5));
}

#[test]
fn okg_plans_intern_bit_identically() {
    assert_interning_parity(ehdl::nn::zoo::okg(), ehdl::datasets::okg(8, 11));
}
