//! Compile-once costed execution plans.
//!
//! The cost of a [`DeviceOp`](ehdl_device::DeviceOp) depends only on the
//! program and the board — never on input data or the power environment —
//! yet the original executor re-priced every op on every run. An
//! [`ExecutionPlan`] is a one-time lowering pass that prices a whole
//! [`Program`] against a [`Board`].
//!
//! A program is a long stream drawn from a tiny vocabulary: the zoo's
//! programs run 11k–516k ops over a few dozen distinct (op, checkpoint
//! spec) pairs. So a plan interns each distinct pair once as a priced
//! **kind** — cycles, energy, duration, capacitor draw, meter component,
//! commit flag and on-demand checkpoint slot — and keeps one `u16` kind
//! index per op plus the coalesced-segment map: about 6 bytes per op.
//! The intermittent executor's inner loop loads one kind per op from a
//! table that fits in L1 — no cost-table dispatch, no `DeviceOp` match —
//! and a fleet sweep shares one plan (behind an `Arc`) across every
//! environment, seed and worker that replays the same (program, board)
//! pair.
//!
//! Plans also pre-fold the continuous-power pricing (total cost plus the
//! per-component meter of one bench-powered inference), so session-level
//! pricing is a lookup instead of a second full program replay.
//!
//! Results are bit-identical to op-by-op interpretation: pricing is a
//! pure function of the op, so a kind's price is exactly what
//! [`Board::cost`] computes for each of its ops; the continuous fold
//! still walks the ops in order; and the plan-driven executor replays
//! the same float operations the interpreter performs (see
//! `tests/exec_plan_parity.rs`).

use crate::integrity::Integrity;
use crate::program::{Program, ProgramOp};
use ehdl_device::{Board, Component, Cost, Cycles, DeviceOp, Energy, EnergyMeter};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::OnceLock;

/// Sentinel for "no on-demand checkpoint allowed before this op".
const NO_ONDEMAND: u32 = u32::MAX;

/// One pre-priced device action: the four numbers the executor's inner
/// loop consumes, with every derived quantity (duration, joules drawn
/// from the capacitor) computed once at plan-compile time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedCost {
    /// Wall-clock cycles the op occupies.
    pub cycles: u64,
    /// Metered energy in nanojoules.
    pub energy_nj: f64,
    /// Op duration in seconds (`cycles / clock_hz`).
    pub duration_s: f64,
    /// Energy drawn from the capacitor in joules (`energy_nj * 1e-9`).
    pub need_j: f64,
}

impl PlannedCost {
    fn price(board: &Board, op: &DeviceOp, clock_hz: f64) -> (PlannedCost, Component) {
        let (cost, component) = board.cost_with_component(op);
        let cycles = cost.cycles.raw();
        let energy_nj = cost.energy.nanojoules();
        (
            PlannedCost {
                cycles,
                energy_nj,
                // Exactly the expressions the op-by-op interpreter
                // evaluates per attempt; precomputing them preserves
                // bit-identical capacitor and timing arithmetic.
                duration_s: cycles as f64 / clock_hz,
                need_j: energy_nj * 1e-9,
            },
            component,
        )
    }

    /// The cost as a [`Cost`] value.
    pub fn cost(&self) -> Cost {
        Cost {
            cycles: Cycles::new(self.cycles),
            energy: Energy::from_nanojoules(self.energy_nj),
        }
    }
}

/// One distinct (op, checkpoint spec) pair of a program, priced once:
/// everything the executor's inner loop reads about an op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlannedKind {
    pub(crate) cost: PlannedCost,
    pub(crate) component: Component,
    /// Completing an op of this kind commits progress past it.
    pub(crate) commits: bool,
    /// Index into the plan's checkpoint table of the on-demand
    /// checkpoint allowed before an op of this kind, or [`NO_ONDEMAND`].
    ondemand: u32,
    /// The source op, for [`ExecutionPlan::program`].
    op: ProgramOp,
}

impl PlannedKind {
    /// The checkpoint-table slot of the on-demand checkpoint allowed
    /// before an op of this kind, if any.
    #[inline]
    pub(crate) fn ondemand_slot(&self) -> Option<u32> {
        if self.ondemand == NO_ONDEMAND {
            None
        } else {
            Some(self.ondemand)
        }
    }
}

/// Multiply-rotate hasher for interning ops at compile time: a few
/// cycles per word, against SipHash's dozens. Kinds are plan-internal
/// keys, so there is nothing adversarial to defend against.
#[derive(Default)]
struct KindHasher(u64);

impl Hasher for KindHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What a recorded run depends on in the plan it ran: the plan's shape
/// (op and on-demand checkpoint counts) and a hash of everything that
/// prices a run of it — the integrity scheme, the clock, each kind's
/// cost, meter component, commit flag and checkpoint slot, the
/// checkpoint table and the restore cost. Two plans with equal
/// identities meter any run alike; the op order is not covered (that is
/// the program's, and a trace's caller keys traces by plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanIdentity {
    pub(crate) ops: usize,
    pub(crate) checkpoints: usize,
    pub(crate) pricing: u64,
}

/// The pricing hash of a [`PlanIdentity`]. Each word steps the
/// multiply-rotate state through a bijection, so plans whose pricing
/// differs in a single word always hash apart.
fn pricing_hash(
    integrity: Integrity,
    clock_hz: f64,
    kinds: &[PlannedKind],
    checkpoints: &[PlannedCost],
    restore: &PlannedCost,
) -> u64 {
    // A cost's duration and draw derive from these and the clock.
    fn cost(h: &mut KindHasher, c: &PlannedCost) {
        h.write_u64(c.cycles);
        h.write_u64(c.energy_nj.to_bits());
    }
    let mut h = KindHasher::default();
    integrity.hash(&mut h);
    h.write_u64(clock_hz.to_bits());
    h.write_usize(kinds.len());
    for kind in kinds {
        cost(&mut h, &kind.cost);
        h.write_usize(kind.component.index());
        h.write_u8(u8::from(kind.commits));
        h.write_u32(kind.ondemand);
    }
    h.write_usize(checkpoints.len());
    for ck in checkpoints {
        cost(&mut h, ck);
    }
    cost(&mut h, restore);
    h.finish()
}

/// [`ExecutionPlan::program`]'s program, rebuilt from the kind table on
/// first use. A cache, so it takes no part in plan equality.
#[derive(Debug, Clone, Default)]
struct ProgramCache(OnceLock<Program>);

impl PartialEq for ProgramCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A [`Program`] priced once against a [`Board`]: a table of priced op
/// kinds, one `u16` kind index per op, the coalesced-segment map and
/// pre-resolved checkpoint/restore costs, ready for the dispatch-free
/// executor loop.
///
/// Each distinct (op, checkpoint spec) pair of the program is one kind,
/// priced once; the plan keeps about 6 bytes per op (kind index plus
/// segment map) however many ops share a kind.
///
/// A plan is valid for any board built from the same cost table as the
/// one it was compiled against (boards of the same
/// [`BoardSpec`](ehdl_device::CostTable)-equivalent configuration);
/// voltage-monitor thresholds are read from the live board at run time
/// and do not affect the plan.
///
/// # Example
///
/// ```
/// use ehdl_device::{Board, DeviceOp};
/// use ehdl_ehsim::{CheckpointSpec, ExecutionPlan, Program};
///
/// let mut program = Program::new("tiny");
/// for _ in 0..10 {
///     program.push(DeviceOp::CpuOps { count: 100 }, CheckpointSpec::COMMIT);
/// }
/// let board = Board::msp430fr5994();
/// let plan = ExecutionPlan::compile(program, &board);
/// assert_eq!(plan.len(), 10);
/// assert_eq!(plan.kind_count(), 1);
/// assert_eq!(plan.continuous_cost().cycles.raw(), 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    name: String,
    restore_words: u32,
    clock_hz: f64,
    /// The distinct priced kinds, in order of first appearance.
    kinds: Vec<PlannedKind>,
    /// Per-op index into `kinds`. Length `len()`.
    op_kind: Vec<u16>,
    /// Deduplicated on-demand checkpoint costs (one entry per distinct
    /// word count in the program).
    pub(crate) checkpoints: Vec<PlannedCost>,
    /// `plain_end[i]` is the first index `>= i` whose op is *special*
    /// (commits or allows an on-demand checkpoint), or `len()`. Runs of
    /// plain ops between special ops form the coalesced segments the
    /// executor replays without per-op flag checks. Length `len() + 1`.
    plain_end: Vec<u32>,
    restore: PlannedCost,
    integrity: Integrity,
    /// [`pricing_hash`] of the fields above, computed at compile time.
    pricing: u64,
    continuous_cost: Cost,
    continuous_meter: EnergyMeter,
    program: ProgramCache,
}

impl ExecutionPlan {
    /// Prices `program` against `board` into a reusable plan. The
    /// program is taken by value; [`program`](Self::program) rebuilds
    /// an equal one on demand.
    ///
    /// This walks the program once, pricing each distinct (op,
    /// checkpoint spec) pair with the cost arithmetic [`Board::cost`]
    /// performs, and folds the continuous-power totals in op order
    /// (bit-identical to [`run_continuous`](crate::run_continuous) on a
    /// fresh board).
    ///
    /// # Panics
    ///
    /// If the program has more than 65,536 distinct (op, checkpoint
    /// spec) pairs, the width of a kind index.
    pub fn compile(program: Program, board: &Board) -> Self {
        ExecutionPlan::compile_with_integrity(program, board, Integrity::None)
    }

    /// [`compile`](Self::compile) with a checkpoint payload integrity
    /// scheme: every checkpoint and restore is priced at the scheme's
    /// padded word count (see [`Integrity::padded_words`]), so stronger
    /// guards cost real commit energy. `Integrity::None` is
    /// bit-identical to plain [`compile`](Self::compile).
    ///
    /// # Panics
    ///
    /// If the program has more than 65,536 distinct (op, checkpoint
    /// spec) pairs, the width of a kind index.
    pub fn compile_with_integrity(program: Program, board: &Board, integrity: Integrity) -> Self {
        let clock_hz = board.costs().clock_hz;
        let n = program.len();

        let mut index: HashMap<ProgramOp, u16, BuildHasherDefault<KindHasher>> = HashMap::default();
        let mut kinds: Vec<PlannedKind> = Vec::new();
        let mut op_kind = Vec::with_capacity(n);
        let mut checkpoints: Vec<PlannedCost> = Vec::new();
        let mut checkpoint_words: Vec<u64> = Vec::new();

        let mut total = Cost::ZERO;
        let mut meter = EnergyMeter::new();

        for pop in program.ops() {
            let k = *index.entry(*pop).or_insert_with(|| {
                let (cost, component) = PlannedCost::price(board, &pop.op, clock_hz);
                let ondemand = pop.spec.ondemand_words.map_or(NO_ONDEMAND, |words| {
                    let words = words as u64;
                    let slot = checkpoint_words
                        .iter()
                        .position(|&w| w == words)
                        .unwrap_or_else(|| {
                            let (ck, _) = PlannedCost::price(
                                board,
                                &DeviceOp::Checkpoint {
                                    words: integrity.padded_words(words),
                                },
                                clock_hz,
                            );
                            checkpoints.push(ck);
                            checkpoint_words.push(words);
                            checkpoints.len() - 1
                        });
                    slot as u32
                });
                let k = u16::try_from(kinds.len())
                    .expect("a plan holds at most 65,536 distinct (op, checkpoint spec) pairs");
                kinds.push(PlannedKind {
                    cost,
                    component,
                    commits: pop.spec.commits,
                    ondemand,
                    op: *pop,
                });
                k
            });
            op_kind.push(k);

            // Continuous-power fold, in op order from zero — the same
            // accumulation run_continuous and a fresh pricing board do.
            let kind = &kinds[k as usize];
            let cycles = Cycles::new(kind.cost.cycles);
            let energy = Energy::from_nanojoules(kind.cost.energy_nj);
            total.cycles += cycles;
            total.energy += energy;
            meter.record(kind.component, cycles, energy);
        }

        // Segment map: for every position, where the run of plain
        // (non-commit, non-ondemand) ops starting there ends.
        let mut plain_end = vec![n as u32; n + 1];
        for i in (0..n).rev() {
            let kind = &kinds[op_kind[i] as usize];
            let special = kind.commits || kind.ondemand != NO_ONDEMAND;
            plain_end[i] = if special { i as u32 } else { plain_end[i + 1] };
        }

        let (restore, _) = PlannedCost::price(
            board,
            &DeviceOp::Restore {
                words: integrity.padded_words(program.restore_words() as u64),
            },
            clock_hz,
        );
        let pricing = pricing_hash(integrity, clock_hz, &kinds, &checkpoints, &restore);

        ExecutionPlan {
            name: program.name().to_owned(),
            restore_words: program.restore_words(),
            clock_hz,
            kinds,
            op_kind,
            checkpoints,
            plain_end,
            restore,
            integrity,
            pricing,
            continuous_cost: total,
            continuous_meter: meter,
            program: ProgramCache::default(),
        }
    }

    /// The checkpoint payload integrity scheme the plan was priced for.
    #[inline]
    pub fn integrity(&self) -> Integrity {
        self.integrity
    }

    /// The plan's shape and pricing hash, which a recorded trace keeps
    /// to refuse replays against any other plan.
    #[inline]
    pub(crate) fn identity(&self) -> PlanIdentity {
        PlanIdentity {
            ops: self.len(),
            checkpoints: self.checkpoints.len(),
            pricing: self.pricing,
        }
    }

    /// The source program the plan was compiled from, rebuilt from the
    /// kind table on first call (the reference path's input; the
    /// planned executor never needs it).
    pub fn program(&self) -> &Program {
        self.program.0.get_or_init(|| {
            let mut program = Program::new(self.name.clone());
            program.set_restore_words(self.restore_words);
            program.extend(self.op_kind.iter().map(|&k| self.kinds[k as usize].op));
            program
        })
    }

    /// FRAM words read back on every restore, before integrity padding.
    #[inline]
    pub(crate) fn restore_words(&self) -> u32 {
        self.restore_words
    }

    /// The clock frequency of the board the plan was priced for.
    pub fn clock_hz(&self) -> f64 {
        self.clock_hz
    }

    /// Number of planned ops.
    pub fn len(&self) -> usize {
        self.op_kind.len()
    }

    /// `true` for an empty plan.
    pub fn is_empty(&self) -> bool {
        self.op_kind.is_empty()
    }

    /// Number of distinct (op, checkpoint spec) pairs the plan priced.
    pub fn kind_count(&self) -> usize {
        self.kinds.len()
    }

    /// The priced kind table, indexed by [`op_kinds`](Self::op_kinds).
    #[inline]
    pub(crate) fn kinds(&self) -> &[PlannedKind] {
        &self.kinds
    }

    /// Each op's index into [`kinds`](Self::kinds).
    #[inline]
    pub(crate) fn op_kinds(&self) -> &[u16] {
        &self.op_kind
    }

    #[inline]
    fn kind(&self, i: usize) -> &PlannedKind {
        &self.kinds[self.op_kind[i] as usize]
    }

    /// The priced cost of op `i` and the meter component it bills.
    #[inline]
    pub fn op_cost(&self, i: usize) -> (PlannedCost, Component) {
        let kind = self.kind(i);
        (kind.cost, kind.component)
    }

    /// `true` if completing op `i` commits progress past it.
    #[inline]
    pub fn commits(&self, i: usize) -> bool {
        self.kind(i).commits
    }

    /// The pre-priced on-demand checkpoint allowed before op `i`, if any.
    #[inline]
    pub fn ondemand_checkpoint(&self, i: usize) -> Option<&PlannedCost> {
        self.ondemand_slot(i).map(|s| &self.checkpoints[s as usize])
    }

    /// Index into the plan's deduplicated checkpoint table for op `i`,
    /// if an on-demand checkpoint is allowed there.
    #[inline]
    pub fn ondemand_slot(&self, i: usize) -> Option<u32> {
        self.kind(i).ondemand_slot()
    }

    /// End (exclusive) of the run of plain ops starting at `i`: the
    /// first index `>= i` that commits or allows an on-demand
    /// checkpoint, or [`len`](Self::len). `i` may equal `len`.
    #[inline]
    pub fn plain_run_end(&self, i: usize) -> usize {
        self.plain_end[i] as usize
    }

    /// Number of coalesced plain segments of at least two ops — a
    /// compile-time diagnostic for how much the segment loop can batch.
    pub fn coalesced_segments(&self) -> usize {
        let n = self.len();
        let mut count = 0;
        let mut i = 0;
        while i < n {
            let end = self.plain_run_end(i);
            if end > i + 1 {
                count += 1;
                i = end;
            } else {
                i = end.max(i + 1);
            }
        }
        count
    }

    /// The pre-priced restore op replayed after every outage.
    pub fn restore_cost(&self) -> &PlannedCost {
        &self.restore
    }

    /// The largest single capacitor draw the plan can schedule in one
    /// post-boot burst: the restore plus the hungriest op (an op always
    /// follows a restore before the supply can top up the capacitor
    /// again). A run is outage-free only if one full discharge covers
    /// the whole program; it can make *progress* only if each discharge
    /// covers at least this much — the feasibility bound outage-heavy
    /// benches check before calling a matrix "outage-dominated".
    pub fn max_burst_need_j(&self) -> f64 {
        let op_max = self
            .kinds
            .iter()
            .map(|k| k.cost.need_j)
            .fold(0.0f64, f64::max);
        self.restore.need_j + op_max
    }

    /// Total cost of one continuous-power (bench) replay of the program —
    /// identical to [`run_continuous`](crate::run_continuous) on a fresh
    /// board, folded at compile time.
    pub fn continuous_cost(&self) -> Cost {
        self.continuous_cost
    }

    /// Per-component meter of one continuous-power replay (the Figure
    /// 7(c) breakdown), folded at compile time.
    pub fn continuous_meter(&self) -> &EnergyMeter {
        &self.continuous_meter
    }

    /// Heap bytes the plan holds: the per-op arrays, the kind and
    /// checkpoint tables and the name (the rebuilt program excluded).
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        use core::mem::size_of;
        self.op_kind.capacity() * size_of::<u16>()
            + self.plain_end.capacity() * size_of::<u32>()
            + self.kind_table_bytes()
            + self.name.capacity()
    }

    /// Heap bytes of the kind and checkpoint tables alone.
    #[cfg(test)]
    fn kind_table_bytes(&self) -> usize {
        use core::mem::size_of;
        self.kinds.capacity() * size_of::<PlannedKind>()
            + self.checkpoints.capacity() * size_of::<PlannedCost>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_continuous, CheckpointSpec};
    use ehdl_device::{DeviceOp, LeaOp, MemoryKind};

    fn mixed_program() -> Program {
        let mut p = Program::new("mixed");
        p.push(DeviceOp::CpuOps { count: 100 }, CheckpointSpec::NONE);
        p.push(
            DeviceOp::DmaTransfer {
                from: MemoryKind::Fram,
                to: MemoryKind::Sram,
                words: 64,
            },
            CheckpointSpec::NONE,
        );
        p.push(DeviceOp::Lea(LeaOp::Mac { len: 32 }), CheckpointSpec::NONE);
        p.push(
            DeviceOp::MemWrite {
                mem: MemoryKind::Fram,
                words: 2,
            },
            CheckpointSpec::COMMIT,
        );
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::ondemand(16));
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::NONE);
        p.push(DeviceOp::CpuOps { count: 50 }, CheckpointSpec::NONE);
        p.push(
            DeviceOp::Checkpoint { words: 16 },
            CheckpointSpec::ondemand(16),
        );
        p
    }

    #[test]
    fn per_op_costs_match_board_pricing() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        assert_eq!(plan.len(), p.len());
        for (i, pop) in p.ops().iter().enumerate() {
            let (cost, comp) = board.cost_with_component(&pop.op);
            let (planned, planned_comp) = plan.op_cost(i);
            assert_eq!(planned.cycles, cost.cycles.raw(), "op {i}");
            assert_eq!(planned.energy_nj, cost.energy.nanojoules(), "op {i}");
            assert_eq!(planned_comp, comp, "op {i}");
            assert_eq!(
                planned.duration_s,
                cost.cycles.raw() as f64 / board.costs().clock_hz
            );
            assert_eq!(planned.need_j, cost.energy.nanojoules() * 1e-9);
        }
    }

    #[test]
    fn commit_bits_and_ondemand_follow_specs() {
        let p = mixed_program();
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        for (i, pop) in p.ops().iter().enumerate() {
            assert_eq!(plan.commits(i), pop.spec.commits, "op {i}");
            assert_eq!(
                plan.ondemand_checkpoint(i).is_some(),
                pop.spec.ondemand_words.is_some(),
                "op {i}"
            );
        }
    }

    #[test]
    fn ondemand_costs_are_deduplicated_and_priced() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        // Two ondemand ops with identical word counts share one entry.
        assert_eq!(plan.checkpoints.len(), 1);
        let ck = plan.ondemand_checkpoint(4).unwrap();
        let want = board.cost(&DeviceOp::Checkpoint { words: 16 });
        assert_eq!(ck.cycles, want.cycles.raw());
        assert_eq!(ck.energy_nj, want.energy.nanojoules());
    }

    #[test]
    fn plain_segments_span_between_special_ops() {
        let p = mixed_program();
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        // Ops 0..3 are plain, op 3 commits: the run starting at 0 ends at 3.
        assert_eq!(plan.plain_run_end(0), 3);
        assert_eq!(plan.plain_run_end(3), 3); // special op: empty run
        assert_eq!(plan.plain_run_end(4), 4); // ondemand op: empty run
        assert_eq!(plan.plain_run_end(5), 7); // two plain ops before op 7
        assert_eq!(plan.plain_run_end(8), 8); // == len: end sentinel
        assert_eq!(plan.coalesced_segments(), 2);
    }

    #[test]
    fn continuous_fold_matches_run_continuous() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let mut pricing = Board::msp430fr5994();
        let cost = run_continuous(&p, &mut pricing);
        assert_eq!(plan.continuous_cost(), cost);
        assert_eq!(plan.continuous_meter(), pricing.meter());
    }

    #[test]
    fn restore_cost_matches_board_pricing() {
        let mut p = mixed_program();
        p.set_restore_words(260);
        let board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile(p.clone(), &board);
        let want = board.cost(&DeviceOp::Restore { words: 260 });
        assert_eq!(plan.restore_cost().cycles, want.cycles.raw());
        assert_eq!(plan.restore_cost().energy_nj, want.energy.nanojoules());
        assert_eq!(plan.restore_cost().cost(), want);
    }

    #[test]
    fn integrity_schemes_inflate_only_durable_write_pricing() {
        let p = mixed_program();
        let board = Board::msp430fr5994();
        let none = ExecutionPlan::compile_with_integrity(p.clone(), &board, Integrity::None);
        assert_eq!(none, ExecutionPlan::compile(p.clone(), &board));
        assert_eq!(none.integrity(), Integrity::None);
        for scheme in [Integrity::Checksum, Integrity::Secded] {
            let plan = ExecutionPlan::compile_with_integrity(p.clone(), &board, scheme);
            assert_eq!(plan.integrity(), scheme);
            // Checkpoints and restores pay for the scheme metadata...
            assert!(plan.restore_cost().energy_nj > none.restore_cost().energy_nj);
            assert!(
                plan.ondemand_checkpoint(4).unwrap().energy_nj
                    > none.ondemand_checkpoint(4).unwrap().energy_nj
            );
            // ...while the per-op compute costs are untouched.
            for i in 0..p.len() {
                assert_eq!(plan.op_cost(i), none.op_cost(i), "op {i}");
            }
            let want = board.cost(&DeviceOp::Restore {
                words: scheme.padded_words(p.restore_words() as u64),
            });
            assert_eq!(plan.restore_cost().cycles, want.cycles.raw());
            assert_eq!(plan.restore_cost().energy_nj, want.energy.nanojoules());
        }
    }

    #[test]
    fn empty_program_compiles_to_empty_plan() {
        let p = Program::new("empty");
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.plain_run_end(0), 0);
        assert_eq!(plan.continuous_cost(), Cost::ZERO);
        assert_eq!(plan.coalesced_segments(), 0);
    }

    #[test]
    fn ops_sharing_a_kind_are_priced_once() {
        let p = mixed_program();
        let plan = ExecutionPlan::compile(p.clone(), &Board::msp430fr5994());
        // Ops 5 and 6 are the same plain `CpuOps { count: 50 }`; op 4 is
        // the same op with an on-demand spec, so a kind of its own.
        assert_eq!(plan.len(), 8);
        assert_eq!(plan.kind_count(), 7);
        assert_eq!(plan.program(), &p);
    }

    #[test]
    fn plan_heap_stays_within_eight_bytes_per_op() {
        // About 100k ops over 30 kinds: the shape of a zoo program.
        let mut p = Program::new("long");
        for i in 0..100_000u64 {
            let k = i % 30;
            let spec = match k {
                0 => CheckpointSpec::COMMIT,
                1 => CheckpointSpec::ondemand(16),
                _ => CheckpointSpec::NONE,
            };
            p.push(DeviceOp::CpuOps { count: 10 + k }, spec);
        }
        let plan = ExecutionPlan::compile(p, &Board::msp430fr5994());
        assert_eq!(plan.kind_count(), 30);
        let bound = 8 * plan.len() + plan.kind_table_bytes();
        assert!(
            plan.heap_bytes() <= bound,
            "{} heap bytes for {} ops, bound {bound}",
            plan.heap_bytes(),
            plan.len()
        );
    }
}
