//! The composed device: op execution with cycle/energy accounting.

use crate::costs::CostTable;
use crate::energy::{Component, Cycles, Energy, EnergyMeter};
use crate::lea::LeaOp;
use crate::memory::{FramLayout, MemoryKind, SramArena};
use crate::voltage::VoltageMonitor;
use core::fmt;

/// One primitive device action with a definite cycle/energy cost.
///
/// Every runtime in this reproduction — ACE, FLEX, SONIC, TAILS, BASE —
/// is compiled down to a stream of these ops; the intermittent executor in
/// `ehdl-ehsim` replays the stream against the capacitor model. Keeping
/// the op vocabulary identical across runtimes is what makes the paper's
/// comparisons apples-to-apples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceOp {
    /// `count` generic single-cycle CPU instructions (control flow,
    /// pointer arithmetic, compares, ReLU clamps...).
    CpuOps {
        /// Instruction count.
        count: u64,
    },
    /// `count` 16×16 hardware multiplies through MPY32.
    CpuMul {
        /// Multiply count.
        count: u64,
    },
    /// CPU reads `words` 16-bit words from `mem` (load instructions).
    MemRead {
        /// Source memory.
        mem: MemoryKind,
        /// Word count.
        words: u64,
    },
    /// CPU writes `words` 16-bit words to `mem` (store instructions).
    MemWrite {
        /// Destination memory.
        mem: MemoryKind,
        /// Word count.
        words: u64,
    },
    /// CPU-driven copy loop, word at a time (§III-B: "a single data is
    /// moved with CPU").
    CpuCopy {
        /// Source memory.
        from: MemoryKind,
        /// Destination memory.
        to: MemoryKind,
        /// Word count.
        words: u64,
    },
    /// DMA block transfer (§III-B: "large vector of data is moved with
    /// DMA").
    DmaTransfer {
        /// Source memory.
        from: MemoryKind,
        /// Destination memory.
        to: MemoryKind,
        /// Word count.
        words: u64,
    },
    /// One LEA vector command.
    Lea(LeaOp),
    /// Checkpoint commit: FRAM writes attributed to the checkpoint
    /// component (FLEX state bits, loop indices, intermediate buffers;
    /// SONIC/TAILS loop-control state).
    Checkpoint {
        /// Words written to FRAM.
        words: u64,
    },
    /// Restore after a power failure: FRAM reads attributed to the
    /// checkpoint component.
    Restore {
        /// Words read from FRAM.
        words: u64,
    },
}

/// The cycle/energy cost of one [`DeviceOp`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall-clock cycles the op occupies.
    pub cycles: Cycles,
    /// Total energy drawn.
    pub energy: Energy,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost {
        cycles: Cycles::ZERO,
        energy: Energy::ZERO,
    };
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {}", self.cycles, self.energy)
    }
}

/// The simulated MSP430FR5994 board.
///
/// Owns the cost table, the energy meter, the SRAM/FRAM budgets and the
/// voltage monitor. [`Board::execute`] advances the elapsed-cycle clock
/// and meters energy; [`Board::cost`] prices an op without executing it
/// (used by the ACE dataflow planner to choose DMA vs CPU moves).
///
/// # Example
///
/// ```
/// use ehdl_device::{Board, DeviceOp, MemoryKind};
///
/// let mut board = Board::msp430fr5994();
/// let dma = board.cost(&DeviceOp::DmaTransfer {
///     from: MemoryKind::Fram, to: MemoryKind::Sram, words: 256 });
/// let cpu = board.cost(&DeviceOp::CpuCopy {
///     from: MemoryKind::Fram, to: MemoryKind::Sram, words: 256 });
/// assert!(dma.energy < cpu.energy); // bulk moves favor DMA
/// ```
#[derive(Debug, Clone)]
pub struct Board {
    costs: CostTable,
    meter: EnergyMeter,
    elapsed: Cycles,
    sram: SramArena,
    fram: FramLayout,
    monitor: VoltageMonitor,
}

impl Board {
    /// Builds the paper's evaluation board.
    pub fn msp430fr5994() -> Self {
        Board::with_costs(CostTable::msp430fr5994())
    }

    /// Builds a board with a custom cost table (ablations, sensitivity
    /// studies).
    pub fn with_costs(costs: CostTable) -> Self {
        Board {
            costs,
            meter: EnergyMeter::new(),
            elapsed: Cycles::ZERO,
            sram: SramArena::msp430fr5994(),
            fram: FramLayout::msp430fr5994(),
            monitor: VoltageMonitor::msp430fr5994(),
        }
    }

    /// The cost table in use.
    pub fn costs(&self) -> &CostTable {
        &self.costs
    }

    /// The energy meter (per-component tallies).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Elapsed wall-clock cycles since construction or [`Board::reset_clock`].
    pub fn elapsed_cycles(&self) -> Cycles {
        self.elapsed
    }

    /// Elapsed wall-clock seconds.
    pub fn elapsed_seconds(&self) -> f64 {
        self.elapsed.as_seconds(self.costs.clock_hz)
    }

    /// The SRAM arena (capacity enforcement for staging buffers).
    pub fn sram_mut(&mut self) -> &mut SramArena {
        &mut self.sram
    }

    /// The SRAM arena, read-only.
    pub fn sram(&self) -> &SramArena {
        &self.sram
    }

    /// The FRAM layout (model/checkpoint budgets).
    pub fn fram_mut(&mut self) -> &mut FramLayout {
        &mut self.fram
    }

    /// The FRAM layout, read-only.
    pub fn fram(&self) -> &FramLayout {
        &self.fram
    }

    /// The voltage monitor.
    pub fn monitor(&self) -> VoltageMonitor {
        self.monitor
    }

    /// Replaces the voltage monitor thresholds.
    pub fn set_monitor(&mut self, monitor: VoltageMonitor) {
        self.monitor = monitor;
    }

    /// Zeroes the meter and the elapsed clock (e.g. between benchmark
    /// repetitions). Memory budgets are left as configured.
    pub fn reset_clock(&mut self) {
        self.meter.reset();
        self.elapsed = Cycles::ZERO;
    }

    /// Takes the meter out, leaving a zeroed one, so a run meters itself
    /// from zero. Hand the taken meter back with
    /// [`Board::put_back_meter`] when the run ends.
    pub fn take_meter(&mut self) -> EnergyMeter {
        core::mem::take(&mut self.meter)
    }

    /// Ends a run begun with [`Board::take_meter`]: the board's meter
    /// becomes `before` merged with what the run metered, and the run's
    /// own meter is returned.
    pub fn put_back_meter(&mut self, before: EnergyMeter) -> EnergyMeter {
        let run = core::mem::replace(&mut self.meter, before);
        self.meter.merge(&run);
        run
    }

    /// Books a finished run without executing it: merges the run's
    /// meter and advances the clock by its cycles — the state
    /// [`Board::put_back_meter`] leaves after the same run executed live.
    pub fn absorb_run(&mut self, meter: &EnergyMeter) {
        self.meter.merge(meter);
        self.elapsed += meter.total_cycles();
    }

    /// Prices an op without executing it.
    pub fn cost(&self, op: &DeviceOp) -> Cost {
        self.cost_with_component(op).0
    }

    /// Prices an op without executing it and reports which hardware
    /// [`Component`] the cost is metered against — the query execution
    /// plans use to price each distinct op of a stream once.
    pub fn cost_with_component(&self, op: &DeviceOp) -> (Cost, Component) {
        let (cycles, energy_nj, component) = self.breakdown(op);
        (
            Cost {
                cycles: Cycles::new(cycles),
                energy: Energy::from_nanojoules(energy_nj),
            },
            component,
        )
    }

    /// Meters a pre-priced cost against `component` and advances the
    /// clock — the execution-plan fast path. Equivalent to
    /// [`Board::execute`] when `cost` and `component` were obtained from
    /// [`Board::cost_with_component`] for the same op on this board.
    #[inline]
    pub fn apply_cost(&mut self, component: Component, cost: Cost) {
        self.meter.record(component, cost.cycles, cost.energy);
        self.elapsed += cost.cycles;
    }

    /// Executes an op: advances the clock and meters the energy.
    /// Returns the cost charged.
    pub fn execute(&mut self, op: &DeviceOp) -> Cost {
        let (cycles, energy_nj, component) = self.breakdown(op);
        let cost = Cost {
            cycles: Cycles::new(cycles),
            energy: Energy::from_nanojoules(energy_nj),
        };
        self.meter.record(component, cost.cycles, cost.energy);
        self.elapsed += cost.cycles;
        cost
    }

    /// (cycles, energy_nj, dominant component) for an op.
    fn breakdown(&self, op: &DeviceOp) -> (u64, f64, Component) {
        let t = &self.costs;
        match *op {
            DeviceOp::CpuOps { count } => {
                let cycles = count * t.cpu_op_cycles;
                (
                    cycles,
                    cycles as f64 * t.cpu_energy_per_cycle_nj,
                    Component::Cpu,
                )
            }
            DeviceOp::CpuMul { count } => {
                let cycles = count * t.cpu_mul_cycles;
                (
                    cycles,
                    cycles as f64 * t.cpu_energy_per_cycle_nj,
                    Component::Cpu,
                )
            }
            DeviceOp::MemRead { mem, words } => match mem {
                MemoryKind::Sram => {
                    let cycles = words * t.cpu_op_cycles;
                    let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                        + words as f64 * t.sram_access_nj_per_word;
                    (cycles, nj, Component::Sram)
                }
                MemoryKind::Fram => {
                    let cycles = words * (t.cpu_op_cycles + t.fram_wait_cycles_per_word);
                    let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                        + words as f64 * t.fram_read_nj_per_word;
                    (cycles, nj, Component::FramRead)
                }
            },
            DeviceOp::MemWrite { mem, words } => match mem {
                MemoryKind::Sram => {
                    let cycles = words * t.cpu_op_cycles;
                    let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                        + words as f64 * t.sram_access_nj_per_word;
                    (cycles, nj, Component::Sram)
                }
                MemoryKind::Fram => {
                    let cycles = words * (t.cpu_op_cycles + t.fram_wait_cycles_per_word);
                    let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                        + words as f64 * t.fram_write_nj_per_word;
                    (cycles, nj, Component::FramWrite)
                }
            },
            DeviceOp::CpuCopy { from, to, words } => {
                let mut cycles = words * t.cpu_copy_cycles_per_word;
                let mut nj = cycles as f64 * t.cpu_energy_per_cycle_nj;
                if from == MemoryKind::Fram {
                    cycles += words * t.fram_wait_cycles_per_word;
                    nj += words as f64 * t.fram_read_nj_per_word;
                }
                if to == MemoryKind::Fram {
                    cycles += words * t.fram_wait_cycles_per_word;
                    nj += words as f64 * t.fram_write_nj_per_word;
                }
                (cycles, nj, Component::Cpu)
            }
            DeviceOp::DmaTransfer { from, to, words } => {
                let mut cycles = t.dma_setup_cycles + words * t.dma_cycles_per_word;
                let mut nj = words as f64 * t.dma_nj_per_word
                    + t.dma_setup_cycles as f64 * t.cpu_energy_per_cycle_nj;
                if from == MemoryKind::Fram {
                    cycles += words * t.fram_wait_cycles_per_word;
                    nj += words as f64 * t.fram_read_nj_per_word;
                }
                if to == MemoryKind::Fram {
                    cycles += words * t.fram_wait_cycles_per_word;
                    nj += words as f64 * t.fram_write_nj_per_word;
                }
                (cycles, nj, Component::Dma)
            }
            DeviceOp::Lea(lea) => (lea.cycles(t), lea.energy_nj(t), Component::Lea),
            DeviceOp::Checkpoint { words } => {
                let cycles = words * (t.cpu_op_cycles + t.fram_wait_cycles_per_word) + 16;
                let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                    + words as f64 * t.fram_write_nj_per_word;
                (cycles, nj, Component::Checkpoint)
            }
            DeviceOp::Restore { words } => {
                let cycles = words * (t.cpu_op_cycles + t.fram_wait_cycles_per_word) + 16;
                let nj = cycles as f64 * t.cpu_energy_per_cycle_nj
                    + words as f64 * t.fram_read_nj_per_word;
                (cycles, nj, Component::Checkpoint)
            }
        }
    }
}

impl Default for Board {
    fn default() -> Self {
        Board::msp430fr5994()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_advances_clock_and_meter() {
        let mut b = Board::msp430fr5994();
        let c1 = b.execute(&DeviceOp::CpuOps { count: 100 });
        assert_eq!(c1.cycles, Cycles::new(100));
        assert_eq!(b.elapsed_cycles(), Cycles::new(100));
        let c2 = b.execute(&DeviceOp::Lea(LeaOp::Mac { len: 9 }));
        assert_eq!(b.elapsed_cycles(), c1.cycles + c2.cycles);
        assert!(b.meter().energy_of(Component::Lea).nanojoules() > 0.0);
        assert!(b.meter().energy_of(Component::Cpu).nanojoules() > 0.0);
    }

    #[test]
    fn dma_beats_cpu_copy_for_bulk() {
        let b = Board::msp430fr5994();
        let words = 512;
        let dma = b.cost(&DeviceOp::DmaTransfer {
            from: MemoryKind::Fram,
            to: MemoryKind::Sram,
            words,
        });
        let cpu = b.cost(&DeviceOp::CpuCopy {
            from: MemoryKind::Fram,
            to: MemoryKind::Sram,
            words,
        });
        assert!(dma.cycles < cpu.cycles);
        assert!(dma.energy < cpu.energy);
    }

    #[test]
    fn cpu_beats_dma_for_single_words() {
        // DMA setup overhead makes single-word moves cheaper on the CPU —
        // the reason ACE "selects the right kind of data movement method".
        let b = Board::msp430fr5994();
        let dma = b.cost(&DeviceOp::DmaTransfer {
            from: MemoryKind::Sram,
            to: MemoryKind::Sram,
            words: 1,
        });
        let cpu = b.cost(&DeviceOp::CpuCopy {
            from: MemoryKind::Sram,
            to: MemoryKind::Sram,
            words: 1,
        });
        assert!(cpu.cycles < dma.cycles);
    }

    #[test]
    fn fram_writes_cost_more_than_reads() {
        let b = Board::msp430fr5994();
        let read = b.cost(&DeviceOp::MemRead {
            mem: MemoryKind::Fram,
            words: 100,
        });
        let write = b.cost(&DeviceOp::MemWrite {
            mem: MemoryKind::Fram,
            words: 100,
        });
        assert!(write.energy > read.energy);
    }

    #[test]
    fn lea_mac_beats_cpu_mac() {
        let b = Board::msp430fr5994();
        let len = 150u64;
        let lea = b.cost(&DeviceOp::Lea(LeaOp::Mac { len: len as usize }));
        let cpu_cycles = b.costs().cpu_mac_cycles(len);
        let cpu = b.cost(&DeviceOp::CpuOps { count: cpu_cycles });
        assert!(lea.cycles.raw() * 4 < cpu.cycles.raw());
        assert!(lea.energy.nanojoules() * 8.0 < cpu.energy.nanojoules());
    }

    #[test]
    fn checkpoint_attributed_to_checkpoint_component() {
        let mut b = Board::msp430fr5994();
        b.execute(&DeviceOp::Checkpoint { words: 260 });
        b.execute(&DeviceOp::Restore { words: 260 });
        assert!(b.meter().energy_of(Component::Checkpoint).nanojoules() > 0.0);
        assert_eq!(b.meter().energy_of(Component::FramWrite), Energy::ZERO);
    }

    #[test]
    fn reset_clock_preserves_memory_budgets() {
        let mut b = Board::msp430fr5994();
        b.fram_mut().reserve_model(1000).unwrap();
        b.execute(&DeviceOp::CpuOps { count: 10 });
        b.reset_clock();
        assert_eq!(b.elapsed_cycles(), Cycles::ZERO);
        assert_eq!(b.fram().model_bytes(), 1000);
    }

    #[test]
    fn cost_matches_execute() {
        let mut b = Board::msp430fr5994();
        let op = DeviceOp::Lea(LeaOp::Fft { n: 128 });
        let priced = b.cost(&op);
        let charged = b.execute(&op);
        assert_eq!(priced, charged);
    }

    #[test]
    fn apply_cost_equals_execute() {
        // Pre-pricing an op and applying it must leave the board in the
        // exact state execute() would: same meter bins, same clock.
        let op = DeviceOp::DmaTransfer {
            from: MemoryKind::Fram,
            to: MemoryKind::Sram,
            words: 128,
        };
        let mut executed = Board::msp430fr5994();
        executed.execute(&op);

        let mut applied = Board::msp430fr5994();
        let (cost, component) = applied.cost_with_component(&op);
        assert_eq!(component, Component::Dma);
        applied.apply_cost(component, cost);

        assert_eq!(executed.meter(), applied.meter());
        assert_eq!(executed.elapsed_cycles(), applied.elapsed_cycles());
    }

    #[test]
    fn absorbing_a_run_matches_executing_it() {
        // A run metered from zero and handed back leaves the same board
        // as absorbing that run's meter on a board with the same past.
        let past = DeviceOp::CpuOps { count: 77 };
        let run = [
            DeviceOp::Lea(LeaOp::Mac { len: 9 }),
            DeviceOp::Checkpoint { words: 32 },
        ];
        let mut live = Board::msp430fr5994();
        live.execute(&past);
        let before = live.take_meter();
        assert_eq!(*live.meter(), EnergyMeter::new());
        for op in &run {
            live.execute(op);
        }
        let metered = live.put_back_meter(before.clone());
        assert_eq!(
            metered.total_cycles(),
            run.iter().map(|op| live.cost(op).cycles).sum()
        );

        let mut absorbed = Board::msp430fr5994();
        absorbed.execute(&past);
        absorbed.absorb_run(&metered);
        assert_eq!(live.meter(), absorbed.meter());
        assert_eq!(live.elapsed_cycles(), absorbed.elapsed_cycles());
        let mut merged = before;
        merged.merge(&metered);
        assert_eq!(*live.meter(), merged);
    }
}
