//! The single error surface of the high-level API.

use core::fmt;

/// Anything the `ehdl` deployment pipeline can fail with.
///
/// Wraps the model-side ([`ehdl_nn::ModelError`]) and device-side
/// ([`ehdl_ace::AceError`]) failures and adds [`ConfigError`] for
/// invalid [`Deployment`](crate::Deployment) configurations, so every
/// high-level entry point returns one type.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Model-side failure (shapes, normalization).
    Model(ehdl_nn::ModelError),
    /// Deployment/execution failure in the ACE runtime.
    Ace(ehdl_ace::AceError),
    /// Invalid deployment configuration.
    Config(ConfigError),
    /// A telemetry sink failed to write its output stream (fleet
    /// sweeps streaming JSONL/CSV rows).
    Telemetry(std::io::Error),
    /// A sharded sweep failed in the coordinator/worker machinery
    /// (spawning workers, the wire protocol, or the checkpoint store).
    Shard(ShardError),
    /// A scenario's worker-side work (its deployment build, its runs, or
    /// a metric sink's per-scenario fold) panicked during an in-process
    /// fleet sweep. The sweep stops with this error, the way a sharded
    /// sweep reports a failed shard, instead of unwinding through the
    /// caller.
    ScenarioPanicked {
        /// The scenario's matrix index.
        index: usize,
        /// The scenario's name.
        name: String,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Model(e) => write!(f, "model error: {e}"),
            Error::Ace(e) => write!(f, "deployment error: {e}"),
            Error::Config(e) => write!(f, "configuration error: {e}"),
            Error::Telemetry(e) => write!(f, "telemetry sink error: {e}"),
            Error::Shard(e) => write!(f, "shard sweep error: {e}"),
            Error::ScenarioPanicked {
                index,
                name,
                message,
            } => write!(f, "scenario {index} ({name}) panicked: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Model(e) => Some(e),
            Error::Ace(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Telemetry(e) => Some(e),
            Error::Shard(e) => Some(e),
            Error::ScenarioPanicked { .. } => None,
        }
    }
}

impl From<ShardError> for Error {
    fn from(e: ShardError) -> Self {
        Error::Shard(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Telemetry(e)
    }
}

impl From<ehdl_nn::ModelError> for Error {
    fn from(e: ehdl_nn::ModelError) -> Self {
        Error::Model(e)
    }
}

impl From<ehdl_ace::AceError> for Error {
    fn from(e: ehdl_ace::AceError) -> Self {
        Error::Ace(e)
    }
}

impl From<ConfigError> for Error {
    fn from(e: ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<ehdl_ehsim::TraceError> for Error {
    fn from(e: ehdl_ehsim::TraceError) -> Self {
        Error::Config(ConfigError::InvalidTrace(e))
    }
}

impl From<ehdl_ehsim::ExecutorConfigError> for Error {
    fn from(e: ehdl_ehsim::ExecutorConfigError) -> Self {
        Error::Config(ConfigError::InvalidExecutor(e))
    }
}

impl From<ehdl_ehsim::ReplayError> for Error {
    fn from(e: ehdl_ehsim::ReplayError) -> Self {
        Error::Config(ConfigError::TraceMismatch(e))
    }
}

impl From<ehdl_ehsim::FaultSpecError> for Error {
    fn from(e: ehdl_ehsim::FaultSpecError) -> Self {
        Error::Config(ConfigError::InvalidFault(e))
    }
}

/// An invalid [`Deployment`](crate::Deployment) configuration, caught at
/// [`build`](crate::DeploymentBuilder::build) time rather than surfacing
/// as a downstream arithmetic failure.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// The calibration sample budget is zero.
    NoCalibrationSamples,
    /// The calibration percentile is outside `(0, 1]`.
    BadPercentile(f32),
    /// The calibration dataset has no samples to calibrate on.
    EmptyDataset,
    /// A recorded power trace is malformed (empty, non-positive
    /// durations, or negative power).
    InvalidTrace(ehdl_ehsim::TraceError),
    /// The intermittent executor tunables would hang the simulation or
    /// misfire its limits (zero stall budget, non-finite step or wall
    /// limit — see [`ehdl_ehsim::ExecutorConfig::validate`]).
    InvalidExecutor(ehdl_ehsim::ExecutorConfigError),
    /// A fault-injection spec carries an out-of-range rate or sag
    /// factor (see [`ehdl_ehsim::FaultSpec::validate`]).
    InvalidFault(ehdl_ehsim::FaultSpecError),
    /// A recorded [`RunTrace`](ehdl_ehsim::RunTrace) was replayed
    /// against a plan of another shape or pricing than the one it was
    /// recorded from.
    TraceMismatch(ehdl_ehsim::ReplayError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoCalibrationSamples => {
                write!(f, "calibration needs at least one sample")
            }
            ConfigError::BadPercentile(p) => {
                write!(f, "calibration percentile {p} outside (0, 1]")
            }
            ConfigError::EmptyDataset => {
                write!(f, "cannot calibrate on an empty dataset")
            }
            ConfigError::InvalidTrace(e) => {
                write!(f, "invalid recorded trace: {e}")
            }
            ConfigError::InvalidExecutor(e) => {
                write!(f, "invalid executor config: {e}")
            }
            ConfigError::InvalidFault(e) => {
                write!(f, "invalid fault spec: {e}")
            }
            ConfigError::TraceMismatch(e) => {
                write!(f, "cannot replay trace: {e}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A failure in the sharded sweep subsystem (`ehdl-fleet`'s
/// `ShardCoordinator` and its worker subprocesses). Defined here so the
/// coordinator reports through the single [`Error`] surface instead of
/// panicking.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardError {
    /// A worker subprocess could not be spawned (or its binary could
    /// not be located).
    Spawn {
        /// The shard the worker was meant to run.
        shard: usize,
        /// What went wrong launching it.
        message: String,
    },
    /// A worker, job file or shard partial violated the wire protocol
    /// (bad header, checksum mismatch, malformed record, unsupported
    /// axis value).
    Protocol {
        /// The shard whose artifact was malformed (`usize::MAX` when
        /// the failure is not tied to one shard, e.g. the job file).
        shard: usize,
        /// What was violated.
        message: String,
    },
    /// The checkpoint store could not be read or written.
    Checkpoint {
        /// The underlying failure.
        message: String,
    },
    /// The checkpoint directory holds a frontier for a *different*
    /// sweep: its matrix fingerprint does not match the one being run.
    /// Resuming would merge incompatible digests; pick an empty
    /// directory or rerun the original matrix.
    CheckpointMismatch {
        /// Fingerprint of the matrix being swept.
        expected: u64,
        /// Fingerprint recorded in the checkpoint directory.
        found: u64,
    },
    /// The shard plan is invalid before any work starts: a zero shard
    /// size, or a shard size larger than the matrix.
    BadPlan {
        /// Why the plan cannot be executed.
        message: String,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Spawn { shard, message } => {
                write!(f, "could not spawn worker for shard {shard}: {message}")
            }
            ShardError::Protocol { shard, message } if *shard == usize::MAX => {
                write!(f, "wire protocol violation: {message}")
            }
            ShardError::Protocol { shard, message } => {
                write!(f, "wire protocol violation in shard {shard}: {message}")
            }
            ShardError::Checkpoint { message } => {
                write!(f, "checkpoint store failure: {message}")
            }
            ShardError::CheckpointMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint directory belongs to a different sweep: \
                     matrix fingerprint {expected:#018x}, checkpoint has {found:#018x}"
                )
            }
            ShardError::BadPlan { message } => {
                write!(f, "invalid shard plan: {message}")
            }
        }
    }
}

impl std::error::Error for ShardError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_prefixes_by_source() {
        let e = Error::from(ConfigError::BadPercentile(1.5));
        assert!(e.to_string().contains("configuration error"));
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn source_chains_to_inner_error() {
        use std::error::Error as _;
        let e = Error::from(ConfigError::EmptyDataset);
        assert!(e.source().is_some());
    }

    #[test]
    fn executor_config_errors_surface_as_config_errors() {
        let bad = ehdl_ehsim::ExecutorConfig {
            stall_outages: 0,
            ..ehdl_ehsim::ExecutorConfig::default()
        };
        let e = Error::from(bad.validate().unwrap_err());
        assert!(matches!(
            e,
            Error::Config(ConfigError::InvalidExecutor(
                ehdl_ehsim::ExecutorConfigError::ZeroStallOutages
            ))
        ));
        assert!(e.to_string().contains("invalid executor config"));
    }

    #[test]
    fn trace_errors_surface_as_config_errors() {
        let trace_err = ehdl_ehsim::Harvester::try_trace(vec![]).unwrap_err();
        let e = Error::from(trace_err);
        assert!(matches!(
            e,
            Error::Config(ConfigError::InvalidTrace(ehdl_ehsim::TraceError::Empty))
        ));
        assert!(e.to_string().contains("invalid recorded trace"));
    }
}
