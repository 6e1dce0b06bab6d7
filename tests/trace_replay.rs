//! A recorded trace is the report of one run of one plan: it replays
//! only against that plan, and a replay books exactly that run.

use ehdl::device::EnergyMeter;
use ehdl::ehsim::{
    Capacitor, Harvester, Integrity, IntermittentExecutor, PowerSupply, ReplayError, RunOptions,
};
use ehdl::prelude::*;

fn weak_supply() -> PowerSupply {
    PowerSupply::new(
        Harvester::square(0.002, 0.05, 0.5),
        Capacitor::new(15e-6, 3.3, 3.0, 1.8),
    )
}

#[test]
fn a_none_trace_does_not_replay_against_the_secded_plan() {
    // HAR/FLEX's `Integrity::None` and `Integrity::Secded` plans have one
    // shape (11,004 ops, the same on-demand checkpoint slots), but SECDED
    // pays check bits on every checkpoint and restore. A trace recorded
    // on the None plan describes a run the SECDED plan never makes.
    let mut model = ehdl::nn::zoo::har();
    let data = ehdl::datasets::har(8, 3);
    let d = Deployment::builder(&mut model, &data)
        .strategy(Strategy::Flex)
        .build()
        .unwrap();
    let none = d.compile_plan_with_integrity(Integrity::None);
    let secded = d.compile_plan_with_integrity(Integrity::Secded);
    assert_eq!(none.len(), 11_004);
    assert_eq!(secded.len(), none.len());

    let exec = IntermittentExecutor::default();
    let (recorded, trace) = exec.record_plan_with(
        &none,
        &mut d.board_spec().board(),
        &mut weak_supply(),
        RunOptions::default(),
    );
    assert!(recorded.restores > 0, "want restores, which SECDED prices");

    let mut board = d.board_spec().board();
    let err = exec
        .try_replay_trace(&secded, &trace, &mut board)
        .unwrap_err();
    assert!(matches!(err, ReplayError::Pricing { .. }), "{err}");
    assert_eq!(*board.meter(), EnergyMeter::new());
    assert_eq!(board.elapsed_cycles().raw(), 0);

    // The SECDED plan's own run differs from the recorded one, and the
    // trace still replays against the plan it came from.
    let secded_run = exec.run_plan_with(
        &secded,
        &mut d.board_spec().board(),
        &mut weak_supply(),
        RunOptions::default(),
    );
    assert_ne!(secded_run.energy, recorded.energy);
    let replayed = exec.try_replay_trace(&none, &trace, &mut board).unwrap();
    assert_eq!(replayed, recorded);
    assert_eq!(*board.meter(), recorded.meter);
}
