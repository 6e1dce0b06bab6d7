//! Sharded, resumable sweeps: one coordinator, many worker
//! subprocesses, a persisted merge frontier.
//!
//! A [`ShardCoordinator`] splits a [`ScenarioMatrix`] into contiguous
//! index ranges (shards), launches each shard in a worker subprocess
//! (the `fleet_shard_worker` binary, or any process that calls
//! [`worker_main`]), and stream-merges completed shards **in matrix
//! order**. Each worker runs its range through the crate's
//! [`DigestSink`](crate::DigestSink) machinery and writes one
//! checksummed record per scenario — the per-scenario digest partial,
//! floats as raw bits — so the coordinator replays exactly the merge
//! sequence an in-process sweep performs. Same matrix ⇒ the same
//! [`FleetDigest`], bit for bit, at any shard count and any worker
//! count, grouped digests included.
//!
//! Workers share recorded runs through the checkpoint directory. A
//! deterministic run does not depend on the seed, so a worker replays
//! the trace memos earlier shards of the same plans published instead
//! of recording those runs again. To make that pay, the coordinator
//! launches the lowest-index pending shard whose plan keys no running
//! shard shares, or else the lowest-index pending shard, so no lane
//! idles. Merges stay in matrix order either way.
//!
//! After every merged shard the coordinator persists the frontier (the
//! cumulative digest over shards `0..k`) to the checkpoint directory.
//! Kill the process at any point and a rerun resumes from the last
//! merged prefix, reusing completed partials and re-running only the
//! shards that never finished. Worker failures retry with exponential
//! backoff and an optional per-shard wall-clock timeout; a shard that
//! exhausts its retries is reported as a failed range in the
//! [`ShardReport`] — the sweep keeps going and returns `Ok` with what
//! it could merge.
//!
//! ```no_run
//! use ehdl_fleet::{GroupAxis, ScenarioMatrix, ShardCoordinator};
//!
//! let matrix = ScenarioMatrix::new().seeds((0..1000).collect());
//! let report = ShardCoordinator::new(500)
//!     .concurrency(4)
//!     .checkpoint_dir("sweep.ckpt")
//!     .group_by(vec![GroupAxis::Strategy])
//!     .run(&matrix)?;
//! println!("{report}");
//! # Ok::<(), ehdl::Error>(())
//! ```

use crate::checkpoint::{read_job, CheckpointStore, Frontier, JobHeader, TraceMemo};
use crate::metrics::{FleetDigest, GroupAxis, GroupedDigest, MetricsSink, RunRecord};
use crate::runner::{preflight, FleetRunner};
use crate::scenario::{Scenario, ScenarioMatrix};
use crate::wire::{self, hex64, Json, PartialHeader, SealedWriter, ShardRecord};
use core::fmt;
use ehdl::{Error, ShardError};
use std::fs;
use std::io::{BufWriter, ErrorKind, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One contiguous run of scenario indices assigned to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRange {
    /// The shard's index in the plan.
    pub shard: usize,
    /// First scenario index covered.
    pub start: usize,
    /// Number of scenarios covered.
    pub len: usize,
}

/// A shard that exhausted its retries, with the last failure's
/// diagnosis — how [`ShardReport::failed`] names the work a degraded
/// sweep is missing and why it is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedShard {
    /// The shard's index in the plan.
    pub shard: usize,
    /// First scenario index covered.
    pub start: usize,
    /// Number of scenarios covered.
    pub len: usize,
    /// The final attempt's failure, including a bounded tail of
    /// whatever the worker wrote to stderr.
    pub error: String,
}

/// What went wrong (or got retried) during a sharded sweep — one entry
/// per retry, timeout, spawn failure or permanent failure, in the
/// order the coordinator observed them. An all-green sweep has none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardEventKind {
    /// An attempt failed; a backed-off retry was scheduled.
    Retry,
    /// A worker exceeded the per-shard timeout and was killed.
    Timeout,
    /// The worker subprocess could not be spawned.
    SpawnFailed,
    /// The shard exhausted its retries and was abandoned.
    Failed,
}

impl ShardEventKind {
    /// Stable lower-case name (`retry`, `timeout`, `spawn_failed`,
    /// `failed`).
    pub fn name(&self) -> &'static str {
        match self {
            ShardEventKind::Retry => "retry",
            ShardEventKind::Timeout => "timeout",
            ShardEventKind::SpawnFailed => "spawn_failed",
            ShardEventKind::Failed => "failed",
        }
    }
}

/// One structured entry in [`ShardReport::events`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEvent {
    /// The shard the event concerns.
    pub shard: usize,
    /// Failures of this shard so far, this one included (so the first
    /// retry of a shard carries `attempt: 1`).
    pub attempt: u32,
    /// What happened.
    pub kind: ShardEventKind,
    /// The failure message, including any bounded stderr tail.
    pub detail: String,
}

/// What a sharded sweep produced. When [`failed`](Self::failed) is
/// empty the digest covers the whole matrix and is bit-identical to an
/// in-process [`DigestSink`](crate::DigestSink) run; otherwise it
/// covers the merged prefix (shards before the first permanently
/// failed one), the completed partials past the gap stay in the
/// checkpoint directory, and a rerun after fixing the cause resumes
/// from exactly there.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The cumulative digest over every merged shard, in matrix order.
    pub digest: FleetDigest,
    /// One grouped digest per requested axis, in request order.
    pub grouped: Vec<GroupedDigest>,
    /// Shards in the plan.
    pub shards: usize,
    /// Shards merged into [`digest`](Self::digest) (a prefix of the
    /// plan).
    pub merged_shards: usize,
    /// Scenarios in the matrix.
    pub total_scenarios: usize,
    /// Shards satisfied from the checkpoint directory (the resumed
    /// frontier plus reused completed partials) instead of fresh
    /// worker runs.
    pub resumed_shards: usize,
    /// Worker retry attempts performed across the sweep.
    pub retries: u64,
    /// Shards that exhausted their retries, with the scenario range
    /// each one covered and its final failure message.
    pub failed: Vec<FailedShard>,
    /// Every retry/timeout/spawn-failure/abandonment the coordinator
    /// observed, in order. Empty for an all-green sweep.
    pub events: Vec<ShardEvent>,
}

impl ShardReport {
    /// `true` when every shard merged — the digest covers the whole
    /// matrix.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty() && self.merged_shards == self.shards
    }

    /// The grouped digest for one axis, if it was requested.
    pub fn group(&self, axis: GroupAxis) -> Option<&GroupedDigest> {
        self.grouped.iter().find(|gd| gd.axis == axis)
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== shard sweep: {}/{} shards merged ({}/{} scenarios), {} resumed, {} retries ==",
            self.merged_shards,
            self.shards,
            self.digest.scenarios,
            self.total_scenarios,
            self.resumed_shards,
            self.retries
        )?;
        for failed in &self.failed {
            writeln!(
                f,
                "FAILED shard {}: scenarios {}..{} not merged: {}",
                failed.shard,
                failed.start,
                failed.start + failed.len,
                failed.error
            )?;
        }
        write!(f, "{}", self.digest)?;
        for gd in &self.grouped {
            write!(f, "{gd}")?;
        }
        Ok(())
    }
}

// --------------------------------------------------------- coordinator

/// Directory-less sweeps started by this process so far: numbers each
/// one's scratch directory, so concurrent sweeps of one matrix never
/// share (and delete) each other's.
static SCRATCH_RUNS: AtomicUsize = AtomicUsize::new(0);

/// Splits a matrix into shards, fans them out across worker
/// subprocesses, and stream-merges the results behind a persisted
/// frontier. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct ShardCoordinator {
    shard_size: usize,
    concurrency: usize,
    worker_threads: usize,
    retries: u32,
    backoff: Duration,
    timeout: Option<Duration>,
    checkpoint_dir: Option<PathBuf>,
    group_by: Vec<GroupAxis>,
    worker: Option<(PathBuf, Vec<String>)>,
    progress: bool,
}

impl ShardCoordinator {
    /// A coordinator assigning `shard_size` consecutive scenarios per
    /// shard. Defaults: 2 concurrent workers with 2 threads each, 2
    /// retries with a 250 ms doubling backoff, no per-shard timeout,
    /// a throwaway checkpoint directory under the system temp dir, no
    /// grouping, and the `fleet_shard_worker` binary found next to the
    /// current executable.
    pub fn new(shard_size: usize) -> Self {
        ShardCoordinator {
            shard_size,
            concurrency: 2,
            worker_threads: 2,
            retries: 2,
            backoff: Duration::from_millis(250),
            timeout: None,
            checkpoint_dir: None,
            group_by: Vec::new(),
            worker: None,
            progress: false,
        }
    }

    /// Prints a throttled (~1 s) progress line to stderr while the
    /// sweep runs: shards merged, scenarios done (live workers counted
    /// via their heartbeat files), throughput and an ETA. Telemetry
    /// only — the report is identical with it on or off.
    pub fn progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Maximum worker subprocesses alive at once.
    pub fn concurrency(mut self, workers: usize) -> Self {
        self.concurrency = workers.max(1);
        self
    }

    /// Threads each worker's in-process [`FleetRunner`] uses.
    pub fn worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads.max(1);
        self
    }

    /// Retry attempts per shard after its first failure (so a shard
    /// runs at most `1 + retries` times).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Initial retry backoff; doubles per subsequent attempt, then a
    /// deterministic per-(shard, attempt) jitter scales each delay into
    /// `[50%, 100%)` of its exponential slot (see [`retry_backoff`]) so
    /// simultaneous failures never retry in lockstep.
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Wall-clock budget per shard attempt; a worker running longer is
    /// killed and the attempt counts as a failure.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Where partials and the merge frontier persist. A rerun pointed
    /// at the same directory (same matrix, same shard size) resumes
    /// from the last merged prefix. Without one, each run uses its own
    /// throwaway temp directory and cannot be resumed.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Grouped digests to accumulate alongside the cumulative one —
    /// the same axes, keys and bit-exact values as in-process
    /// [`GroupBySink`](crate::GroupBySink)s over the whole matrix.
    pub fn group_by(mut self, axes: Vec<GroupAxis>) -> Self {
        self.group_by = axes;
        self
    }

    /// Overrides the worker command: `exe` is launched as
    /// `exe <args...> --job <job.json> --shard <n>` and must end up in
    /// [`worker_main`]. This is how a test binary, bench or example
    /// acts as its own worker.
    pub fn worker_command(mut self, exe: impl Into<PathBuf>, args: Vec<String>) -> Self {
        self.worker = Some((exe.into(), args));
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadPlan`] for an unrunnable plan (zero shard
    /// size, an empty matrix or one whose scenario count overflows a
    /// `usize`, shard larger than the matrix),
    /// [`Error::Config`] for invalid executor
    /// tunables or fault specs (the same errors an in-process
    /// [`FleetRunner`] sweep returns, raised before any worker is
    /// spawned), [`ShardError::Protocol`] for a matrix with no wire
    /// form, [`ShardError::CheckpointMismatch`] /
    /// [`ShardError::Checkpoint`] for an unusable checkpoint
    /// directory, and [`ShardError::Spawn`] when no worker binary can
    /// be found. Worker *failures* are not errors: they retry, and a
    /// shard that exhausts retries degrades the report instead
    /// (see [`ShardReport::failed`]).
    pub fn run(&self, matrix: &ScenarioMatrix) -> Result<ShardReport, Error> {
        let bad_plan = |message: String| Err(ShardError::BadPlan { message }.into());
        let total = match matrix.checked_len() {
            None => return bad_plan("the matrix's scenario count overflows a usize".into()),
            Some(0) => {
                return bad_plan("the matrix expands to zero scenarios (an axis is empty)".into())
            }
            Some(total) => total,
        };
        if self.shard_size == 0 {
            return bad_plan("shard size is zero".to_string());
        }
        if self.shard_size > total {
            return bad_plan(format!(
                "shard size {} exceeds the {total}-scenario matrix; shrink the shards or run \
                 in-process",
                self.shard_size
            ));
        }
        // Fail on an invalid executor config or fault spec here, as the
        // in-process runner does, not in every worker.
        preflight(matrix)?;
        let matrix_json = wire::matrix_json(matrix)?;
        let fingerprint = wire::fingerprint(&matrix_json, self.shard_size);
        let worker = self.resolve_worker()?;
        let (dir, throwaway) = match &self.checkpoint_dir {
            Some(dir) => (dir.clone(), false),
            None => (
                std::env::temp_dir().join(format!(
                    "ehdl-shard-{}-{}-{}",
                    hex64(fingerprint),
                    std::process::id(),
                    SCRATCH_RUNS.fetch_add(1, Ordering::Relaxed)
                )),
                true,
            ),
        };
        let store = CheckpointStore::open(&dir)?;
        let result = self.drive(matrix, &matrix_json, fingerprint, &store, &worker, total);
        if throwaway {
            let _ = fs::remove_dir_all(&dir);
        }
        result
    }

    fn resolve_worker(&self) -> Result<(PathBuf, Vec<String>), ShardError> {
        if let Some((exe, args)) = &self.worker {
            return Ok((exe.clone(), args.clone()));
        }
        let name = format!("fleet_shard_worker{}", std::env::consts::EXE_SUFFIX);
        let exe = std::env::current_exe().map_err(|e| ShardError::Spawn {
            shard: usize::MAX,
            message: format!("could not locate the current executable: {e}"),
        })?;
        // Next to the current binary, or one level up (test binaries
        // live in target/<profile>/deps/).
        let mut candidates = Vec::new();
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join(&name));
            if let Some(parent) = dir.parent() {
                candidates.push(parent.join(&name));
            }
        }
        candidates
            .iter()
            .find(|c| c.is_file())
            .map(|c| (c.clone(), Vec::new()))
            .ok_or_else(|| ShardError::Spawn {
                shard: usize::MAX,
                message: format!(
                    "no {name} binary next to {}; build it or set worker_command()",
                    exe.display()
                ),
            })
    }

    #[allow(clippy::too_many_lines)]
    fn drive(
        &self,
        matrix: &ScenarioMatrix,
        matrix_json: &str,
        fingerprint: u64,
        store: &CheckpointStore,
        worker: &(PathBuf, Vec<String>),
        total: usize,
    ) -> Result<ShardReport, Error> {
        let plan: Vec<ShardRange> = (0..total.div_ceil(self.shard_size))
            .map(|shard| shard_range(total, self.shard_size, shard))
            .collect();
        let n_shards = plan.len();
        let plan_keys: Vec<Vec<usize>> = plan
            .iter()
            .map(|range| matrix.plan_keys(range.start..range.start + range.len))
            .collect();
        // A previous coordinator killed mid-sweep leaves orphaned
        // heartbeat files behind; drop them before the progress line
        // starts reading heartbeats, or dead workers would inflate it.
        store.clear_heartbeats();
        let mut frontier = store
            .load_frontier(fingerprint, &self.group_by)?
            .unwrap_or_else(|| Frontier::empty(&self.group_by));
        frontier.merged_shards = frontier.merged_shards.min(n_shards);
        let mut resumed = frontier.merged_shards;
        let job = JobHeader {
            ehdl_shard_job: wire::WIRE_VERSION,
            fingerprint,
            shard_size: self.shard_size,
            threads: self.worker_threads,
        };
        store.write_job(&job, matrix_json)?;

        let now = Instant::now();
        let mut states: Vec<ShardState> = Vec::with_capacity(n_shards);
        for range in &plan {
            if range.shard < frontier.merged_shards {
                states.push(ShardState::Merged);
            } else if store.check_partial(
                range.shard,
                partial_header(*range, fingerprint, matrix.runs),
            )? {
                // A completed partial from a killed run: reuse it.
                resumed += 1;
                states.push(ShardState::Ready);
            } else {
                states.push(ShardState::Pending {
                    attempt: 0,
                    ready_at: now,
                });
            }
        }

        let mut events: Vec<ShardEvent> = Vec::new();
        let mut fatal: Option<Error> = None;
        let mut last_progress = Instant::now();
        // Every worker's stderr reader signals here when its worker
        // exits, so a finished shard's lane refills without waiting out
        // a polling interval.
        let (exited, wake) = mpsc::channel();
        'sweep: loop {
            // 1. Reap finished / timed-out workers, noting any that
            //    closed stderr on exit but are not reapable yet.
            let mut exiting = false;
            for shard in 0..n_shards {
                let ShardState::Running {
                    child,
                    stderr,
                    started,
                    attempt,
                } = &mut states[shard]
                else {
                    continue;
                };
                let attempt = *attempt;
                let failure = match child.try_wait() {
                    Ok(Some(status)) if status.success() => {
                        // Checked here, decoded once when it merges.
                        let header = partial_header(plan[shard], fingerprint, matrix.runs);
                        match store.check_partial(shard, header) {
                            Err(e) => {
                                fatal = Some(e.into());
                                break 'sweep;
                            }
                            Ok(true) => {
                                states[shard] = ShardState::Ready;
                                continue;
                            }
                            // Exit 0 but no valid partial: protocol
                            // breach; retry like any failure.
                            Ok(false) => {
                                "worker exited successfully without a valid partial".to_string()
                            }
                        }
                    }
                    Ok(Some(status)) => format!("worker exited with {status}{}", stderr.read()),
                    Ok(None) => match self.timeout {
                        Some(timeout) if started.elapsed() > timeout => {
                            let _ = child.kill();
                            let _ = child.wait();
                            // The tail of what the worker managed to say
                            // before the kill often names the hang.
                            let detail = stderr.read();
                            let message =
                                format!("worker exceeded the {timeout:?} shard timeout{detail}");
                            events.push(ShardEvent {
                                shard,
                                attempt: attempt + 1,
                                kind: ShardEventKind::Timeout,
                                detail: message.clone(),
                            });
                            message
                        }
                        _ => {
                            exiting |= stderr.at_eof();
                            continue;
                        }
                    },
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        format!("could not poll worker: {e}")
                    }
                };
                states[shard] = self.next_attempt(shard, attempt, &mut events, failure);
            }

            // 2. Launch pending shards up to the concurrency cap, in the
            //    key-aware order of `next_launch`.
            let pass = Instant::now();
            loop {
                let running: Vec<usize> = (0..n_shards)
                    .filter(|&shard| matches!(states[shard], ShardState::Running { .. }))
                    .collect();
                if running.len() >= self.concurrency {
                    break;
                }
                let ready: Vec<usize> = (0..n_shards)
                    .filter(|&shard| {
                        matches!(states[shard], ShardState::Pending { ready_at, .. } if ready_at <= pass)
                    })
                    .collect();
                let Some(shard) = next_launch(&ready, &running, &plan_keys) else {
                    break;
                };
                let ShardState::Pending { attempt, .. } = states[shard] else {
                    break;
                };
                states[shard] = match self.spawn(worker, store, shard, &exited) {
                    Ok((child, stderr)) => ShardState::Running {
                        child,
                        stderr,
                        started: Instant::now(),
                        attempt,
                    },
                    Err(message) => {
                        events.push(ShardEvent {
                            shard,
                            attempt: attempt + 1,
                            kind: ShardEventKind::SpawnFailed,
                            detail: message.clone(),
                        });
                        self.next_attempt(shard, attempt, &mut events, message)
                    }
                };
            }

            // 3. Merge the ready prefix, persisting the frontier as it
            //    advances. It runs after the launches, so a lane that a
            //    finished shard freed refills before that shard's
            //    partial is decoded and the frontier fsynced. A failed
            //    shard blocks the frontier (later partials stay on disk
            //    for a post-fix resume), but execution of later shards
            //    continues regardless.
            while frontier.merged_shards < n_shards {
                let shard = frontier.merged_shards;
                if !matches!(states[shard], ShardState::Ready) {
                    break;
                }
                let header = partial_header(plan[shard], fingerprint, matrix.runs);
                frontier = match store.merge_partial(shard, header, &frontier) {
                    Err(e) => {
                        fatal = Some(e.into());
                        break 'sweep;
                    }
                    // Vanished or corrupted since validation: re-run it.
                    Ok(None) => {
                        states[shard] = ShardState::Pending {
                            attempt: 0,
                            ready_at: Instant::now(),
                        };
                        continue;
                    }
                    Ok(Some(advanced)) => advanced,
                };
                states[shard] = ShardState::Merged;
                let advanced = store
                    .save_frontier(&frontier, fingerprint)
                    .and_then(|()| store.remove_partial(shard));
                store.remove_heartbeat(shard);
                if let Err(e) = advanced {
                    fatal = Some(e.into());
                    break 'sweep;
                }
            }

            // 4. Progress telemetry (stderr only; never affects the
            //    report).
            if self.progress && last_progress.elapsed() >= Duration::from_secs(1) {
                last_progress = Instant::now();
                self.emit_progress(&plan, &states, &frontier, store, total, now);
            }

            // 5. Done when nothing is running or waiting to run.
            let active = states
                .iter()
                .any(|s| matches!(s, ShardState::Running { .. } | ShardState::Pending { .. }));
            if !active {
                break;
            }
            // A worker's stderr hits EOF a moment before the worker is
            // reapable: poll finely until it is.
            let poll = if exiting {
                Duration::from_micros(100)
            } else {
                Duration::from_millis(5)
            };
            let _ = wake.recv_timeout(poll);
        }
        if self.progress {
            self.emit_progress(&plan, &states, &frontier, store, total, now);
        }
        if let Some(e) = fatal {
            return Err(self.abandon(&mut states, e));
        }
        if frontier.merged_shards == n_shards {
            store.clear_memos();
        }

        let failed: Vec<FailedShard> = states
            .iter()
            .zip(&plan)
            .filter_map(|(s, range)| match s {
                ShardState::Failed { error } => Some(FailedShard {
                    shard: range.shard,
                    start: range.start,
                    len: range.len,
                    error: error.clone(),
                }),
                _ => None,
            })
            .collect();
        Ok(ShardReport {
            digest: frontier.digest,
            grouped: frontier.grouped,
            shards: n_shards,
            merged_shards: frontier.merged_shards,
            total_scenarios: total,
            resumed_shards: resumed,
            retries: events
                .iter()
                .filter(|e| e.kind == ShardEventKind::Retry)
                .count() as u64,
            failed,
            events,
        })
    }

    /// One stderr progress line: merged shards, scenarios done (live
    /// workers read via their heartbeats, finished-but-unmerged shards
    /// counted whole), throughput over the sweep so far and an ETA.
    fn emit_progress(
        &self,
        plan: &[ShardRange],
        states: &[ShardState],
        frontier: &Frontier,
        store: &CheckpointStore,
        total: usize,
        started: Instant,
    ) {
        let mut done = frontier.digest.scenarios;
        let mut running = 0usize;
        for (state, range) in states.iter().zip(plan) {
            match state {
                ShardState::Ready => done += range.len as u64,
                ShardState::Running { .. } => {
                    running += 1;
                    done += heartbeat_done(store, range.shard);
                }
                _ => {}
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let eta = if rate > 0.0 && done > 0 {
            let remaining = (total as u64).saturating_sub(done) as f64;
            format!("{:.0}s", remaining / rate)
        } else {
            "?".to_string()
        };
        eprintln!(
            "ehdl-fleet: progress {}/{} shards merged, {done}/{total} scenarios \
             ({rate:.1}/s, ETA {eta}, {running} running)",
            frontier.merged_shards,
            plan.len()
        );
    }

    /// Books one failed attempt: schedules a backed-off retry, or
    /// marks the shard permanently failed once retries are exhausted or
    /// when the retry's instant is past what [`Instant`] can hold.
    /// Either way the failure lands in the event log, and a permanent
    /// failure keeps its message for [`ShardReport::failed`].
    fn next_attempt(
        &self,
        shard: usize,
        attempt: u32,
        events: &mut Vec<ShardEvent>,
        message: String,
    ) -> ShardState {
        let failures = attempt + 1;
        let backoff = retry_backoff(self.backoff, shard, failures);
        match Instant::now().checked_add(backoff) {
            Some(ready_at) if failures <= self.retries => {
                events.push(ShardEvent {
                    shard,
                    attempt: failures,
                    kind: ShardEventKind::Retry,
                    detail: message,
                });
                ShardState::Pending {
                    attempt: failures,
                    ready_at,
                }
            }
            // Out of retries, or a retry the clock cannot schedule.
            ready_at => {
                let message = match ready_at {
                    None if failures <= self.retries => {
                        format!(
                            "{message}; retry backoff {backoff:?} is past what the clock can hold"
                        )
                    }
                    _ => message,
                };
                eprintln!("ehdl-fleet: shard {shard} failed permanently: {message}");
                events.push(ShardEvent {
                    shard,
                    attempt: failures,
                    kind: ShardEventKind::Failed,
                    detail: message.clone(),
                });
                ShardState::Failed { error: message }
            }
        }
    }

    fn spawn(
        &self,
        (exe, prefix): &(PathBuf, Vec<String>),
        store: &CheckpointStore,
        shard: usize,
        exited: &Sender<()>,
    ) -> Result<(Child, StderrTail), String> {
        let mut child = Command::new(exe)
            .args(prefix)
            .arg("--job")
            .arg(store.job_path())
            .arg("--shard")
            .arg(shard.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("could not spawn {}: {e}", exe.display()))?;
        let stderr = StderrTail::collect(child.stderr.take(), exited.clone());
        Ok((child, stderr))
    }

    /// Kills every live worker before surfacing a fatal error, so a
    /// failed coordinator never leaks subprocesses.
    fn abandon(&self, states: &mut [ShardState], error: Error) -> Error {
        for state in states {
            if let ShardState::Running { child, .. } = state {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        error
    }
}

enum ShardState {
    Pending {
        attempt: u32,
        ready_at: Instant,
    },
    Running {
        child: Child,
        stderr: StderrTail,
        started: Instant,
        attempt: u32,
    },
    Ready,
    Merged,
    Failed {
        error: String,
    },
}

/// Reads the `done` field of a running shard's heartbeat; 0 when the
/// worker has not published one (or it is mid-rename).
fn heartbeat_done(store: &CheckpointStore, shard: usize) -> u64 {
    fs::read_to_string(store.heartbeat_path(shard))
        .ok()
        .and_then(|text| Json::parse(text.trim_end()).ok())
        .and_then(|v| v.get("done").and_then(Json::as_u64))
        .unwrap_or(0)
}

/// The retry delay for one failed shard attempt: the classic doubling
/// schedule (`base * 2^(attempt-1)`) scaled by a deterministic jitter
/// in `[0.5, 1.0)` drawn from SplitMix64 over `(shard, attempt)`.
/// A pure function — the same inputs always produce the same delay, so
/// a sweep's retry timing replays exactly, while distinct shards
/// failing at the same instant still spread out instead of thundering
/// back in lockstep. A delay past [`Duration::MAX`] saturates there.
pub fn retry_backoff(base: Duration, shard: usize, attempt: u32) -> Duration {
    let exponential = base
        .checked_mul(2u32.saturating_pow(attempt.saturating_sub(1)))
        .unwrap_or(Duration::MAX);
    let mut z = (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(attempt).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53 uniform bits → [0, 1), halved and offset into [0.5, 1.0).
    let jitter = 0.5 + (z >> 11) as f64 / 9_007_199_254_740_992.0 / 2.0;
    Duration::try_from_secs_f64(exponential.as_secs_f64() * jitter).unwrap_or(Duration::MAX)
}

/// The pending shard to launch next, from `ready` (ascending): the
/// lowest-index one whose plan keys are disjoint from every running
/// shard's, so it records no trace a running worker is recording and can
/// replay the memos of a finished shard sharing its plans; failing that,
/// the lowest-index one, so no lane idles. `keys` holds each shard's
/// plan keys, sorted.
fn next_launch(ready: &[usize], running: &[usize], keys: &[Vec<usize>]) -> Option<usize> {
    let shares = |a: usize, b: usize| keys[a].iter().any(|k| keys[b].binary_search(k).is_ok());
    ready
        .iter()
        .copied()
        .find(|&shard| !running.iter().any(|&other| shares(shard, other)))
        .or_else(|| ready.first().copied())
}

/// The most stderr a failure message carries. The *tail* is what
/// matters — a panicking worker prints its diagnosis last — and an
/// unbounded capture would balloon retry events and failed-shard
/// reports when a worker loops on stderr.
const STDERR_TAIL_BYTES: usize = 2048;

/// How long reading a reaped worker's stderr waits for EOF. A process
/// the worker left behind (a wrapper shell's child, say) inherits the
/// pipe and can hold EOF off indefinitely, long after the worker's exit
/// or kill; past this grace the tail read so far is all there is.
const STDERR_GRACE: Duration = Duration::from_millis(100);

/// A worker's stderr, read on a thread of its own from spawn on and
/// kept to its last bytes, so the pipe never fills.
struct StderrTail {
    tail: Arc<Mutex<Tail>>,
    /// Disconnects when the reader thread reaches EOF (or there is no
    /// pipe to read).
    eof: Receiver<()>,
}

/// The last `2 * STDERR_TAIL_BYTES` bytes read, so trimming trailing
/// whitespace still leaves a full tail, and whether any were dropped.
#[derive(Default)]
struct Tail {
    bytes: Vec<u8>,
    dropped: bool,
}

impl StderrTail {
    /// Starts reading `stderr`; at EOF, when its worker exits, the
    /// reader signals `exited`.
    fn collect(stderr: Option<ChildStderr>, exited: Sender<()>) -> Self {
        let tail = Arc::new(Mutex::new(Tail::default()));
        let (at_eof, eof) = mpsc::channel();
        if let Some(mut stderr) = stderr {
            let tail = Arc::clone(&tail);
            std::thread::spawn(move || {
                let mut chunk = [0u8; 4096];
                loop {
                    let n = match stderr.read(&mut chunk) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    };
                    let mut tail = tail.lock().unwrap_or_else(PoisonError::into_inner);
                    tail.bytes.extend_from_slice(&chunk[..n]);
                    let excess = tail.bytes.len().saturating_sub(2 * STDERR_TAIL_BYTES);
                    if excess > 0 {
                        tail.bytes.drain(..excess);
                        tail.dropped = true;
                    }
                }
                // Disconnecting `at_eof` is what `read` waits for; do it
                // before the wake-up, so the woken coordinator sees it.
                drop(at_eof);
                let _ = exited.send(());
            });
        }
        StderrTail { tail, eof }
    }

    /// Whether the worker has closed stderr: it is exiting.
    fn at_eof(&self) -> bool {
        matches!(self.eof.try_recv(), Err(TryRecvError::Disconnected))
    }

    /// What a reaped worker said, as a `: `-prefixed detail string
    /// (empty when it said nothing), keeping at most the last
    /// [`STDERR_TAIL_BYTES`] bytes. Waits at most [`STDERR_GRACE`] for
    /// EOF, then takes the tail read so far.
    fn read(&self) -> String {
        let _ = self.eof.recv_timeout(STDERR_GRACE);
        let tail = self.tail.lock().unwrap_or_else(PoisonError::into_inner);
        let text = String::from_utf8_lossy(&tail.bytes);
        let mut detail = text.trim();
        let truncated = tail.dropped || detail.len() > STDERR_TAIL_BYTES;
        if detail.len() > STDERR_TAIL_BYTES {
            let mut cut = detail.len() - STDERR_TAIL_BYTES;
            while !detail.is_char_boundary(cut) {
                cut += 1;
            }
            detail = &detail[cut..];
        }
        if detail.is_empty() {
            String::new()
        } else if truncated {
            format!(": [stderr tail] …{detail}")
        } else {
            format!(": {detail}")
        }
    }
}

// -------------------------------------------------------------- worker

/// Shard `shard` of a `total`-scenario plan cut into `size`-scenario
/// shards; `shard` must be in the plan.
fn shard_range(total: usize, size: usize, shard: usize) -> ShardRange {
    let start = shard * size;
    ShardRange {
        shard,
        start,
        len: size.min(total - start),
    }
}

/// The header a shard's partial must carry.
fn partial_header(range: ShardRange, fingerprint: u64, runs: u32) -> PartialHeader {
    PartialHeader {
        ehdl_shard_partial: wire::WIRE_VERSION,
        shard: range.shard as u64,
        start: range.start as u64,
        len: range.len as u64,
        fingerprint,
        runs,
    }
}

/// The worker half of the shard protocol — call this from a binary's
/// `main` with its command-line arguments (the shipped
/// `fleet_shard_worker` binary is exactly that, and benches/examples
/// reuse it to act as their own workers).
///
/// Arguments: `--job <job.json> --shard <n>`. The worker verifies the
/// sealed job file (checksum, version, and the sweep fingerprint its
/// matrix reproduces), runs scenarios
/// `n*shard_size .. (n+1)*shard_size` through an in-process
/// [`FleetRunner`], and publishes the sealed partial next to the job
/// atomically (`.wip`, fsync, rename). Its trace cache replays the
/// sweep's trace memos in that directory, and publishes one for every
/// run it records.
///
/// Fault injection for tests rides on a `--fault <spec>` argument,
/// passed through [`ShardCoordinator::worker_command`] prefix args:
/// `kill:<shard>` aborts that shard mid-write on every attempt;
/// `kill-once:<shard>` aborts the first attempt only (a sentinel file
/// in the checkpoint directory remembers the trip).
///
/// # Errors
///
/// [`ShardError::Protocol`] for a missing/corrupt/mismatched job file
/// or bad arguments; whatever the in-process sweep surfaces otherwise.
pub fn worker_main(args: &[String]) -> Result<(), Error> {
    let proto = |message: String| -> Error {
        ShardError::Protocol {
            shard: usize::MAX,
            message,
        }
        .into()
    };
    let mut job_path: Option<PathBuf> = None;
    let mut shard: Option<usize> = None;
    let mut fault_spec: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--job" => job_path = it.next().map(PathBuf::from),
            "--shard" => {
                shard = it.next().and_then(|s| s.parse().ok());
                if shard.is_none() {
                    return Err(proto("--shard wants an unsigned integer".to_string()));
                }
            }
            "--fault" => fault_spec = it.next().cloned(),
            other => return Err(proto(format!("unknown worker argument {other:?}"))),
        }
    }
    let job_path = job_path.ok_or_else(|| proto("missing --job <path>".to_string()))?;
    let shard = shard.ok_or_else(|| proto("missing --shard <n>".to_string()))?;

    let job_text = fs::read_to_string(&job_path)
        .map_err(|e| proto(format!("could not read job {}: {e}", job_path.display())))?;
    let (job, matrix) = read_job(&job_text).map_err(|e| proto(format!("bad job file: {e}")))?;
    let total = matrix.len();
    let n_shards = total.div_ceil(job.shard_size);
    if shard >= n_shards {
        return Err(Error::Shard(ShardError::Protocol {
            shard,
            message: format!("the plan has only {n_shards} shards"),
        }));
    }
    let range = shard_range(total, job.shard_size, shard);
    let dir = job_path.parent().unwrap_or(Path::new(".")).to_path_buf();
    let store = CheckpointStore::open(&dir)?;
    let heartbeat = Heartbeat {
        store: store.clone(),
        range,
        started: Instant::now(),
        last: None,
    };
    let path = store.partial_path(shard);
    let file = store.create(&path)?;
    let sink = ShardRecordSink {
        writer: SealedWriter::new(
            BufWriter::new(file),
            &partial_header(range, job.fingerprint, matrix.runs),
        )
        .map_err(Error::from)?,
        die_after: fault_trip(fault_spec.as_deref(), &dir, shard, range.len),
        written: 0,
        heartbeat,
    };
    let (records, writer) = FleetRunner::new(job.threads.max(1))
        .range(range.start..range.start + range.len)
        .trace_memo(TraceMemo::new(store.clone(), job.fingerprint))
        .sink(sink)
        .run(&matrix)?;
    debug_assert_eq!(records, range.len as u64);
    let file = writer
        .into_inner()
        .map_err(|e| Error::from(e.into_error()))?;
    store.publish(&path, file)?;
    store.remove_heartbeat(shard);
    Ok(())
}

/// Evaluates a fault spec for this shard: `Some(k)` means "abort
/// after writing k records". `kill-once` trips a sentinel file so only
/// the first attempt dies.
fn fault_trip(spec: Option<&str>, dir: &Path, shard: usize, len: usize) -> Option<u64> {
    let (mode, target) = spec?.split_once(':')?;
    if target.parse() != Ok(shard) {
        return None;
    }
    match mode {
        "kill" => Some(len as u64 / 2),
        "kill-once" => {
            let sentinel = dir.join(format!("fault-{shard}.tripped"));
            if sentinel.exists() {
                None
            } else {
                let _ = fs::write(&sentinel, b"tripped\n");
                Some(len as u64 / 2)
            }
        }
        _ => None,
    }
}

/// The worker-side sink: streams one wire record per scenario into the
/// sealed partial. Opening and folding mirror
/// [`DigestSink`](crate::DigestSink) exactly — the record carries the
/// very partial an in-process sweep would merge.
struct ShardRecordSink {
    writer: SealedWriter<BufWriter<fs::File>>,
    /// Test-only fault injection: abort the process after this many
    /// records, leaving a truncated temp file like a real mid-shard
    /// kill would.
    die_after: Option<u64>,
    written: u64,
    heartbeat: Heartbeat,
}

/// Live-progress publication for one worker: a throttled
/// `heartbeat-<shard>.json` in the checkpoint directory, written with
/// the same atomic rename as every other checkpoint file so the
/// coordinator never reads a torn line. Pure telemetry — write errors
/// are swallowed.
struct Heartbeat {
    store: CheckpointStore,
    range: ShardRange,
    started: Instant,
    last: Option<Instant>,
}

impl Heartbeat {
    const INTERVAL: Duration = Duration::from_millis(200);

    fn beat(&mut self, done: u64) {
        if self
            .last
            .is_some_and(|last| last.elapsed() < Self::INTERVAL)
        {
            return;
        }
        self.last = Some(Instant::now());
        let elapsed = self.started.elapsed().as_secs_f64();
        let rate = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        let ShardRange { shard, start, len } = self.range;
        let _ = self.store.write_heartbeat(
            shard,
            &format!(
                "{{\"shard\":{shard},\"start\":{start},\"len\":{len},\"done\":{done},\
                 \"elapsed_s\":{elapsed:.3},\"scenarios_per_sec\":{rate:.3}}}"
            ),
        );
    }
}

impl MetricsSink for ShardRecordSink {
    type Partial = ShardRecord;
    /// Records written, plus the inner writer for fsync-and-rename.
    type Report = (u64, BufWriter<fs::File>);

    fn open(&self, scenario: &Scenario, accuracy: f64) -> ShardRecord {
        ShardRecord {
            index: scenario.index as u64,
            labels: GroupAxis::ALL.map(|axis| axis.key(scenario)),
            digest: FleetDigest::opened(accuracy),
        }
    }

    fn fold(partial: &mut ShardRecord, record: &RunRecord<'_>) {
        partial.digest.fold_run(record);
    }

    fn fold_slo(partial: &mut ShardRecord, outcome: &ehdl_netsim::SloOutcome) {
        partial.digest.slo.fold_outcome(outcome);
    }

    fn merge(&mut self, partial: ShardRecord) -> Result<(), Error> {
        self.writer.line(&partial.to_line()).map_err(Error::from)?;
        self.written += 1;
        self.heartbeat.beat(self.written);
        if self.die_after == Some(self.written) {
            // Simulate a mid-shard kill: leave a half-written line
            // behind and die without unwinding.
            let _ = self.writer.write_raw(b"{\"scenario\":9");
            std::process::abort();
        }
        Ok(())
    }

    fn finish(self) -> Result<Self::Report, Error> {
        let writer = self.writer.finish().map_err(Error::from)?;
        Ok((self.written, writer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Workload;
    use ehdl::ehsim::{catalog, FaultSpec, Integrity};
    use ehdl::{CalibrationConfig, Strategy};
    use std::collections::BTreeSet;

    /// Shard plan keys as the coordinator computes them.
    fn shard_keys(matrix: &ScenarioMatrix, shard_size: usize) -> Vec<Vec<usize>> {
        let total = matrix.len();
        (0..total.div_ceil(shard_size))
            .map(|shard| {
                let range = shard_range(total, shard_size, shard);
                matrix.plan_keys(range.start..range.start + range.len)
            })
            .collect()
    }

    #[test]
    fn dispatch_runs_shards_sharing_plans_apart() {
        // The storm workload's shape: {SONIC, FLEX} × 2 seeds, one shard
        // per (strategy, seed), so shards 0 and 1 share SONIC's plans
        // and shards 2 and 3 share FLEX's.
        let matrix = ScenarioMatrix::new()
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .seeds(vec![0, 1])
            .faults(vec![FaultSpec::none(); 7])
            .integrities(Integrity::ALL.to_vec());
        let keys = shard_keys(&matrix, 84);
        assert_eq!(keys, [[0, 1, 2], [0, 1, 2], [3, 4, 5], [3, 4, 5]]);
        // At concurrency 2: shard 0, then FLEX's seed 0 beside it. The
        // FLEX shard finishes first, so its seed-1 twin follows, then
        // SONIC's once shard 0 is done: 0, 2, 3, 1.
        assert_eq!(next_launch(&[0, 1, 2, 3], &[], &keys), Some(0));
        assert_eq!(next_launch(&[1, 2, 3], &[0], &keys), Some(2));
        assert_eq!(next_launch(&[1, 3], &[0], &keys), Some(3));
        assert_eq!(next_launch(&[1], &[3], &keys), Some(1));
        // With every pending shard sharing a running shard's plans, the
        // lane still fills, lowest index first.
        assert_eq!(next_launch(&[1, 3], &[0, 2], &keys), Some(1));
        assert_eq!(next_launch(&[], &[0], &keys), None);

        // No shared plans: plain index order.
        let one_plan_each = ScenarioMatrix::new()
            .strategies(vec![Strategy::Sonic, Strategy::Flex])
            .integrities(Integrity::ALL.to_vec());
        let keys = shard_keys(&one_plan_each, 4);
        assert_eq!(keys.len(), 6);
        let mut running = vec![0];
        let mut order = vec![0];
        let mut pending: Vec<usize> = (1..6).collect();
        while let Some(shard) = next_launch(&pending, &running, &keys) {
            order.push(shard);
            pending.retain(|&s| s != shard);
            running = vec![shard];
        }
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
    }

    /// The memo files in `dir`, each with its inode: a memo published
    /// again is a new file.
    #[cfg(unix)]
    fn memo_files(dir: &Path) -> BTreeSet<(String, u64)> {
        use std::os::unix::fs::MetadataExt;
        fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap())
            .map(|entry| {
                let name = entry.file_name().into_string().unwrap();
                (name, entry.metadata().unwrap().ino())
            })
            .filter(|(name, _)| name.starts_with("trace-"))
            .collect()
    }

    #[cfg(unix)]
    #[test]
    fn a_shard_replays_the_memos_of_an_earlier_shard_of_its_plans() {
        // Two shards of one strategy, one per seed: shard 1 runs exactly
        // shard 0's deterministic tuples.
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(), catalog::office_rf()])
            .workloads(vec![Workload::Har { samples: 4 }])
            .seeds(vec![0, 1])
            .energy_budgets_nj(vec![None, Some(2_000_000.0)])
            .calibration(CalibrationConfig {
                samples: 4,
                percentile: 0.9,
            });
        let json = wire::matrix_json(&matrix).unwrap();
        let job = JobHeader {
            ehdl_shard_job: wire::WIRE_VERSION,
            fingerprint: wire::fingerprint(&json, 4),
            shard_size: 4,
            threads: 1,
        };
        let run = |dir: &Path, shard: usize| {
            let store = CheckpointStore::open(dir).unwrap();
            store.write_job(&job, &json).unwrap();
            let job_path = store.job_path().to_str().unwrap().to_string();
            worker_main(&[
                "--job".into(),
                job_path,
                "--shard".into(),
                shard.to_string(),
            ])
            .unwrap();
            fs::read(store.partial_path(shard)).unwrap()
        };
        let tmp = std::env::temp_dir().join(format!("ehdl-memo-dedup-{}", std::process::id()));
        let (shared, alone) = (tmp.join("shared"), tmp.join("alone"));

        run(&shared, 0);
        let tuples: BTreeSet<_> = matrix
            .scenarios_range(0..4)
            .iter()
            .filter(|s| !s.environment.is_stochastic())
            .map(|s| {
                (
                    matrix.plan_key(s.index),
                    s.environment_key,
                    s.budget_key,
                    s.fault_key,
                )
            })
            .collect();
        let memos = memo_files(&shared);
        assert_eq!(memos.len(), tuples.len(), "{memos:?}");
        assert_eq!(memos.len(), 2);

        let replayed = run(&shared, 1);
        assert_eq!(memo_files(&shared), memos, "shard 1 recorded nothing");
        assert_eq!(
            replayed,
            run(&alone, 1),
            "a replayed shard writes the recorded bytes"
        );
        fs::remove_dir_all(&tmp).unwrap();
    }

    #[test]
    fn retry_backoff_is_a_pure_function_of_its_inputs() {
        let base = Duration::from_millis(250);
        for shard in [0usize, 1, 7, 500] {
            for attempt in 1..=5u32 {
                assert_eq!(
                    retry_backoff(base, shard, attempt),
                    retry_backoff(base, shard, attempt),
                    "shard {shard} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn retry_backoff_jitters_within_its_exponential_slot() {
        let base = Duration::from_millis(100);
        for attempt in 1..=6u32 {
            let slot = base * 2u32.pow(attempt - 1);
            for shard in 0..50usize {
                let d = retry_backoff(base, shard, attempt);
                assert!(d >= slot / 2, "attempt {attempt} shard {shard}: {d:?}");
                assert!(d < slot, "attempt {attempt} shard {shard}: {d:?}");
            }
        }
        // A slot past `Duration::MAX` saturates there instead of
        // panicking on the overflow.
        for (shard, attempt) in [(0usize, 1u32), (3, 40)] {
            let d = retry_backoff(Duration::MAX, shard, attempt);
            assert!(
                d >= Duration::MAX / 2,
                "attempt {attempt} shard {shard}: {d:?}"
            );
        }
    }

    #[test]
    fn retry_backoff_spreads_simultaneous_failures() {
        // Distinct shards failing at the same attempt must not share a
        // delay (that lockstep is exactly what jitter exists to break).
        let base = Duration::from_millis(250);
        let delays: Vec<Duration> = (0..8usize)
            .map(|shard| retry_backoff(base, shard, 1))
            .collect();
        let mut unique = delays.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), delays.len(), "{delays:?}");
    }
}
