//! # ehdl-ehsim — the energy-harvesting environment
//!
//! The paper powers its MSP430FR5994 from a SIGLENT SDG1032X function
//! generator buffering energy in a **100 µF capacitor** (§III-D). We do
//! not have that bench, so this crate simulates it:
//!
//! * [`Capacitor`] — `E = ½CV²` storage with turn-on / brown-out
//!   thresholds,
//! * [`Harvester`] — source waveforms: constant, square (the function
//!   generator), sine, random bursts, and recorded traces,
//! * [`PowerSupply`] — harvester + capacitor composition,
//! * [`Environment`] — a *named* harvester + capacitor template, with a
//!   curated [`catalog`] (`bench_supply`, `office_rf`, `solar_day`,
//!   `piezo_gait`, recorded-trace [`replay`](catalog::replay)) for
//!   scenario sweeps,
//! * [`IntermittentExecutor`] — replays a [`Program`] of
//!   [`DeviceOp`](ehdl_device::DeviceOp)s against the supply, killing
//!   execution at brown-out, recharging to turn-on, and resuming from the
//!   last *committed* op per the runtime's checkpoint discipline. This is
//!   where BASE / SONIC / TAILS / ACE+FLEX differ, and the executor is
//!   deliberately runtime-agnostic: commit placement and on-demand
//!   checkpoint support are encoded in the program itself.
//!
//! The run reports split **active** time (compute under power — what
//! Figure 7(b) plots) from **charging** time, and meter checkpoint energy
//! separately (the §IV-A.5 overhead evaluation).
//!
//! # Example
//!
//! ```
//! use ehdl_ehsim::{Capacitor, Harvester, PowerSupply};
//!
//! let cap = Capacitor::paper_100uf();
//! let src = Harvester::square(0.004, 0.05, 0.5); // 4 mW, 50 ms period, 50% duty
//! let supply = PowerSupply::new(src, cap);
//! assert!(supply.capacitor().volts() >= supply.capacitor().v_off());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacitor;
pub mod catalog;
mod environment;
mod executor;
mod fault;
mod harvester;
mod integrity;
mod plan;
mod probe;
mod program;
mod timeline;

pub use capacitor::{Capacitor, CapacitorError};
pub use environment::Environment;
pub use executor::{
    ExecutorConfig, ExecutorConfigError, IntermittentExecutor, ReplayError, RunOptions, RunOutcome,
    RunReport, RunTrace,
};
pub use fault::{FaultKind, FaultPlan, FaultSpec, FaultSpecError, FaultState, FaultTally, OpFault};
pub use harvester::{Harvester, TraceError, TraceWave, WaveformError};
pub use integrity::{Integrity, IntegrityTally, WearCurve};
pub use plan::{ExecutionPlan, PlannedCost};
pub use probe::{EventRing, ExecEvent, ExecPhase, ExecProbe, NullProbe, SpanTimer};
pub use program::{CheckpointSpec, Program, ProgramOp};
pub use timeline::{RunTimeline, TimelineRecorder};

use ehdl_device::{Board, Cost};

/// A harvester + capacitor pair.
#[derive(Debug, Clone)]
pub struct PowerSupply {
    harvester: Harvester,
    capacitor: Capacitor,
}

impl PowerSupply {
    /// Combines a harvester waveform with an energy buffer.
    pub fn new(harvester: Harvester, capacitor: Capacitor) -> Self {
        PowerSupply {
            harvester,
            capacitor,
        }
    }

    /// The harvester waveform.
    pub fn harvester(&self) -> &Harvester {
        &self.harvester
    }

    /// The capacitor state.
    pub fn capacitor(&self) -> &Capacitor {
        &self.capacitor
    }

    /// Mutable capacitor access (used by the executor).
    pub fn capacitor_mut(&mut self) -> &mut Capacitor {
        &mut self.capacitor
    }

    /// Splits the supply into its harvester (read-only) and capacitor
    /// (mutable) halves, so an executor loop can integrate harvest and
    /// drain charge without re-borrowing the supply per op.
    pub fn parts_mut(&mut self) -> (&Harvester, &mut Capacitor) {
        (&self.harvester, &mut self.capacitor)
    }
}

/// Runs a program to completion under continuous (bench) power on the
/// given board — the paper's Figure 7(a) setting. Returns the total cost.
pub fn run_continuous(program: &Program, board: &mut Board) -> Cost {
    let mut total = Cost::ZERO;
    for pop in program.ops() {
        let c = board.execute(&pop.op);
        total.cycles += c.cycles;
        total.energy += c.energy;
    }
    total
}
