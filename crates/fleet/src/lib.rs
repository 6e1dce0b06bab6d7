//! # ehdl-fleet — the parallel scenario-sweep engine
//!
//! The paper evaluates intermittent DNN inference under a single
//! function-generator waveform on one MSP430 board. This crate runs the
//! *cross-product*: a [`Scenario`] names one (environment, strategy,
//! board, workload, seed) tuple, a [`ScenarioMatrix`] expands whole
//! grids of them, and a [`FleetRunner`] executes the grid across a fixed
//! pool of `std::thread` workers — each scenario deploys through
//! [`ehdl::Deployment`] and opens an [`ehdl::DeviceSession`] inside its
//! worker (the session types are `Send`/`Sync` by contract).
//!
//! [`FleetRunner`] is the one sweep entry point. Its setters choose
//! the worker count, the reference executor, a scenario
//! [`range`](FleetRunner::range) (the whole matrix unless set; shard
//! workers sweep theirs this way) and the [`sink`](FleetRunner::sink);
//! [`run`](FleetRunner::run) or
//! [`run_profiled`](FleetRunner::run_profiled) then executes. Its
//! caches need no setter: they are sized from the matrix range.
//!
//! Reporting is a streaming telemetry pipeline: the runner emits one
//! [`RunRecord`] per (scenario, run) and folds it into a pluggable
//! [`MetricsSink`]. The compatibility [`FullReportSink`] retains every
//! [`ScenarioReport`] (the classic dense [`FleetReport`]), while
//! [`DigestSink`] folds the whole sweep into a fixed-size
//! [`FleetDigest`] — count/sum/min/max plus log-histogram
//! [`StatsDigest`] sketches for p50/p90/p99 — so 10k+ scenario sweeps
//! run in O(1) memory. [`GroupBySink`] aggregates one digest per axis
//! value and [`JsonlSink`]/[`CsvSink`] stream raw rows out for offline
//! analysis. [`diff_digests`] (and the `digest_diff` binary over it)
//! compares two digests and names every field that drifted.
//!
//! Aggregation is deterministic by construction: per-scenario folds run
//! inside one worker in run order, and the coordinating thread merges
//! scenario accumulators in matrix order no matter which worker
//! finished first. Same matrix ⇒ identical sink report (dense or
//! digest, bit for bit) at any worker count.
//!
//! Networked scenarios ride the same pipeline: a [`NetworkTopology`]
//! axis splits one RF harvest field across a fleet of devices, a
//! duty-cycled gateway polls them round-robin, and the resulting
//! [`SloTally`] — served fraction, staleness percentiles, starvation —
//! folds into the [`FleetDigest`] like every other counter. A
//! single-device topology reproduces the solo executor bit for bit.
//!
//! ```
//! use ehdl::ehsim::catalog;
//! use ehdl::Strategy;
//! use ehdl_fleet::{DigestSink, FleetRunner, ScenarioMatrix, Workload};
//!
//! let matrix = ScenarioMatrix::new()
//!     .environments(vec![catalog::bench_supply(), catalog::piezo_gait()])
//!     .strategies(vec![Strategy::Sonic, Strategy::Flex])
//!     .workloads(vec![Workload::Har { samples: 4 }]);
//! // Dense: one ScenarioReport per scenario.
//! let report = FleetRunner::new(2).run(&matrix)?;
//! assert_eq!(report.len(), 4);
//! // Streaming: the same sweep folded into fixed-size state.
//! let digest = FleetRunner::builder()
//!     .workers(2)
//!     .sink(DigestSink::new())
//!     .run(&matrix)?;
//! assert_eq!(digest.scenarios, 4);
//! println!("{report}\n{digest}");
//! # Ok::<(), ehdl::Error>(())
//! ```
//!
//! The engine is dependency-free (std threads only) to keep the
//! workspace's offline build.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod digest;
mod drift;
mod metrics;
mod profile;
mod report;
mod runner;
mod scenario;
pub mod shard;
mod tally;
mod wire;

pub use digest::{QuantileFidelity, StatsDigest};
pub use drift::{diff_digests, DigestDiffError, DigestSide, FieldDiff};
pub use ehdl::ehsim::{FaultSpec, FaultTally, Integrity, IntegrityTally, WearCurve};
pub use ehdl_netsim::{NetworkTopology, SharedField, SloOutcome, TopologyError, WorldSim};
pub use metrics::{
    CsvSink, DigestSink, FleetDigest, FullReportSink, GroupAxis, GroupBySink, GroupedDigest,
    JsonlSink, MetricsSink, ResilienceTally, RunRecord, SloTally,
};
pub use profile::{CacheCounters, CacheStats, PhaseProfile};
pub use report::{percentile, FleetReport, ScenarioReport};
pub use runner::{mix, FleetRunner};
pub use scenario::{Scenario, ScenarioMatrix, Workload};
pub use shard::{
    retry_backoff, FailedShard, ShardCoordinator, ShardEvent, ShardEventKind, ShardRange,
    ShardReport,
};
pub use wire::Json;
