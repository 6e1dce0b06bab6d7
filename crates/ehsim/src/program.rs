//! Programs: annotated device-op streams.

use ehdl_device::DeviceOp;

/// How a runtime may persist progress around one op.
///
/// This annotation is the entire difference between the paper's execution
/// strategies:
///
/// * BASE marks nothing — any failure restarts the inference.
/// * SONIC commits after every loop iteration (it pays an inline
///   [`DeviceOp::Checkpoint`] for each).
/// * TAILS commits at vector-op chain boundaries only, so a failure inside
///   a DMA→FFT→MPY→IFFT chain rolls back to the chain start (Figure 6,
///   left).
/// * FLEX marks chain stages as committed the moment their output is
///   durable, and additionally allows **on-demand** checkpoints before any
///   op when the voltage monitor warns (Figure 6, right).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CheckpointSpec {
    /// Completing this op persists progress past it: after a power
    /// failure, execution resumes *after* this op rather than at the last
    /// earlier commit point.
    pub commits: bool,
    /// An on-demand checkpoint may be taken immediately **before** this
    /// op, persisting `words` of state to FRAM (FLEX's voltage-triggered
    /// scheme). `None` disables on-demand checkpointing here.
    pub ondemand_words: Option<u32>,
}

impl CheckpointSpec {
    /// No persistence (BASE-style op).
    pub const NONE: CheckpointSpec = CheckpointSpec {
        commits: false,
        ondemand_words: None,
    };

    /// Commits on completion.
    pub const COMMIT: CheckpointSpec = CheckpointSpec {
        commits: true,
        ondemand_words: None,
    };

    /// On-demand checkpoint of `words` allowed before this op.
    pub fn ondemand(words: u32) -> Self {
        CheckpointSpec {
            commits: false,
            ondemand_words: Some(words),
        }
    }

    /// Commit on completion *and* allow an on-demand checkpoint before.
    pub fn commit_and_ondemand(words: u32) -> Self {
        CheckpointSpec {
            commits: true,
            ondemand_words: Some(words),
        }
    }
}

/// One op plus its checkpoint annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProgramOp {
    /// The device action.
    pub op: DeviceOp,
    /// Persistence semantics.
    pub spec: CheckpointSpec,
}

/// A complete op stream for one inference under one runtime strategy.
///
/// # Example
///
/// ```
/// use ehdl_device::{DeviceOp, LeaOp};
/// use ehdl_ehsim::{CheckpointSpec, Program};
///
/// let mut p = Program::new("demo");
/// p.push(DeviceOp::Lea(LeaOp::Mac { len: 9 }), CheckpointSpec::COMMIT);
/// assert_eq!(p.len(), 1);
/// assert_eq!(p.commit_points(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    name: String,
    ops: Vec<ProgramOp>,
    /// FRAM words read back on every restore (state bits, loop indices,
    /// saved intermediates). Small for loop-index schemes, a bit larger
    /// for FLEX (state + intermediate block).
    restore_words: u32,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            ops: Vec::new(),
            restore_words: 8,
        }
    }

    /// Human-readable strategy/workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an op.
    pub fn push(&mut self, op: DeviceOp, spec: CheckpointSpec) {
        self.ops.push(ProgramOp { op, spec });
    }

    /// Sets the per-restore FRAM read size in words.
    pub fn set_restore_words(&mut self, words: u32) {
        self.restore_words = words;
    }

    /// Per-restore FRAM read size in words.
    pub fn restore_words(&self) -> u32 {
        self.restore_words
    }

    /// The annotated ops.
    pub fn ops(&self) -> &[ProgramOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the program has no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of committing ops.
    pub fn commit_points(&self) -> usize {
        self.ops.iter().filter(|p| p.spec.commits).count()
    }

    /// Number of ops allowing on-demand checkpoints.
    pub fn ondemand_points(&self) -> usize {
        self.ops
            .iter()
            .filter(|p| p.spec.ondemand_words.is_some())
            .count()
    }

    /// Appends all ops of another program (layer-by-layer assembly).
    pub fn extend_from(&mut self, other: &Program) {
        self.ops.extend_from_slice(&other.ops);
    }
}

impl Extend<ProgramOp> for Program {
    fn extend<T: IntoIterator<Item = ProgramOp>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehdl_device::LeaOp;

    #[test]
    fn push_and_count() {
        let mut p = Program::new("t");
        p.push(DeviceOp::CpuOps { count: 1 }, CheckpointSpec::NONE);
        p.push(DeviceOp::Lea(LeaOp::Fft { n: 64 }), CheckpointSpec::COMMIT);
        p.push(DeviceOp::CpuOps { count: 1 }, CheckpointSpec::ondemand(32));
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(p.commit_points(), 1);
        assert_eq!(p.ondemand_points(), 1);
    }

    #[test]
    fn extend_concatenates() {
        let mut a = Program::new("a");
        a.push(DeviceOp::CpuOps { count: 1 }, CheckpointSpec::NONE);
        let mut b = Program::new("b");
        b.push(DeviceOp::CpuOps { count: 2 }, CheckpointSpec::COMMIT);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.name(), "a");
    }

    #[test]
    fn restore_words_default_and_override() {
        let mut p = Program::new("t");
        assert_eq!(p.restore_words(), 8);
        p.set_restore_words(260);
        assert_eq!(p.restore_words(), 260);
    }

    #[test]
    fn spec_constructors() {
        let commit = CheckpointSpec::COMMIT;
        assert!(commit.commits && commit.ondemand_words.is_none());
        assert_eq!(CheckpointSpec::ondemand(16).ondemand_words, Some(16));
        let both = CheckpointSpec::commit_and_ondemand(4);
        assert!(both.commits && both.ondemand_words == Some(4));
        assert_eq!(CheckpointSpec::default(), CheckpointSpec::NONE);
    }
}
