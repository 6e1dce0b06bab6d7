//! End-to-end tests of the sharded sweep coordinator: subprocess
//! workers must reproduce the in-process digest bit for bit, survive
//! kills and truncated partials through the checkpoint frontier, and
//! degrade gracefully when a shard fails permanently.
//!
//! These live in the fleet crate (not the workspace root) so
//! `CARGO_BIN_EXE_fleet_shard_worker` resolves and forces the worker
//! binary to build.

use ehdl::ehsim::catalog;
use ehdl::{CalibrationConfig, ConfigError, Error, ShardError, Strategy};
use ehdl_fleet::{
    DigestSink, FaultSpec, FleetDigest, FleetRunner, GroupAxis, GroupBySink, GroupedDigest,
    ScenarioMatrix, ShardCoordinator, ShardEventKind, ShardReport,
};
use std::path::PathBuf;
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_fleet_shard_worker");

/// A 16-scenario matrix that exercises every record label: two
/// environments, two strategies, two seeds, and a two-point energy
/// budget axis.
fn quick_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .seeds(vec![0, 1])
        .energy_budgets_nj(vec![None, Some(2_000_000.0)])
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        })
}

const AXES: [GroupAxis; 2] = [GroupAxis::Strategy, GroupAxis::EnergyBudget];

/// The ground truth: the same matrix swept in-process through
/// `DigestSink` and two `GroupBySink`s.
fn in_process(matrix: &ScenarioMatrix) -> (FleetDigest, Vec<GroupedDigest>) {
    let (digest, (by_strategy, by_budget)) = FleetRunner::builder()
        .workers(2)
        .sink((
            DigestSink::new(),
            (GroupBySink::new(AXES[0]), GroupBySink::new(AXES[1])),
        ))
        .run(matrix)
        .unwrap();
    (digest, vec![by_strategy, by_budget])
}

fn coordinator(shard_size: usize, fault: Option<&str>) -> ShardCoordinator {
    let mut args = Vec::new();
    if let Some(spec) = fault {
        args.extend(["--fault".to_string(), spec.to_string()]);
    }
    ShardCoordinator::new(shard_size)
        .concurrency(2)
        .worker_threads(2)
        .backoff(Duration::from_millis(10))
        .group_by(AXES.to_vec())
        .worker_command(WORKER, args)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ehdl-shard-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_matches_in_process(report: &ShardReport, matrix: &ScenarioMatrix) {
    let (digest, grouped) = in_process(matrix);
    assert!(report.is_complete(), "{report}");
    assert_eq!(
        report.digest, digest,
        "sharded digest must be bit-identical"
    );
    assert_eq!(
        report.grouped, grouped,
        "grouped digests must be bit-identical"
    );
}

#[test]
fn subprocess_shards_reproduce_the_in_process_digest_at_any_shard_count() {
    let matrix = quick_matrix();
    let (digest, grouped) = in_process(&matrix);
    assert_eq!(digest.scenarios, 16);
    // 1, 2 and 4 subprocess shards: all bit-identical to in-process.
    for shard_size in [16, 8, 4] {
        let report = coordinator(shard_size, None).run(&matrix).unwrap();
        assert!(report.is_complete());
        assert_eq!(report.shards, 16_usize.div_ceil(shard_size));
        assert_eq!(report.digest, digest, "shard_size {shard_size}");
        assert_eq!(report.grouped, grouped, "shard_size {shard_size}");
        assert_eq!(report.total_scenarios, 16);
        assert_eq!(report.retries, 0);
        assert_eq!(report.failed, vec![]);
        assert_eq!(report.events, vec![], "a clean sweep records no incidents");
    }
}

#[test]
fn killed_worker_is_retried_and_the_digest_is_unchanged() {
    let matrix = quick_matrix();
    let dir = tmp_dir("retry");
    // Shard 1 aborts mid-write on its first attempt (a sentinel in the
    // checkpoint dir remembers the trip), then succeeds on retry.
    let report = coordinator(4, Some("kill-once:1"))
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert!(report.retries >= 1, "{report}");
    // The retry is a structured event naming the shard and attempt.
    let retry = report
        .events
        .iter()
        .find(|e| e.kind == ShardEventKind::Retry)
        .expect("a retried shard records a retry event");
    assert_eq!(retry.shard, 1);
    assert_eq!(retry.attempt, 1);
    assert!(!retry.detail.is_empty());
    assert_eq!(retry.kind.name(), "retry");
    // Workers remove their heartbeat files once their shard lands.
    let leftover: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("heartbeat-"))
        .collect();
    assert_eq!(leftover, Vec::<String>::new());
    assert_matches_in_process(&report, &matrix);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn permanently_failing_shard_degrades_instead_of_aborting_then_resume_completes() {
    let matrix = quick_matrix();
    let dir = tmp_dir("resume");
    // Pass 1: shard 1 dies mid-write on every attempt and exhausts its
    // retries. The sweep still returns Ok: the frontier covers shard 0,
    // the failure is reported as a scenario range, and the completed
    // partials past the gap stay on disk.
    let degraded = coordinator(4, Some("kill:1"))
        .retries(1)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert!(!degraded.is_complete());
    assert_eq!(degraded.merged_shards, 1);
    assert_eq!(degraded.digest.scenarios, 4);
    assert_eq!(degraded.failed.len(), 1);
    assert_eq!(degraded.failed[0].shard, 1);
    assert_eq!(degraded.failed[0].start, 4);
    assert_eq!(degraded.failed[0].len, 4);
    assert!(degraded.retries >= 1);
    assert!(
        !degraded.failed[0].error.is_empty(),
        "the failed range carries the worker's last error"
    );
    // The event log ends the shard's story with a permanent failure.
    let failed = degraded
        .events
        .iter()
        .find(|e| e.kind == ShardEventKind::Failed)
        .expect("a permanent failure records a failed event");
    assert_eq!(failed.shard, 1);
    assert!(failed.attempt >= 2, "retried before giving up: {failed:?}");
    let text = degraded.to_string();
    assert!(text.contains("FAILED shard 1"), "{text}");
    // Shards 2 and 3 completed; their partials await the resume, and
    // so do the trace memos the workers published.
    assert!(dir.join("partial-000002.ehsp").is_file());
    assert!(dir.join("partial-000003.ehsp").is_file());
    assert!(!memos(&dir).is_empty());

    // Sabotage one surviving partial: chop it mid-record. The resume
    // must detect the truncation and re-run that shard, not merge it.
    let partial = dir.join("partial-000002.ehsp");
    let bytes = std::fs::read(&partial).unwrap();
    std::fs::write(&partial, &bytes[..bytes.len() * 2 / 3]).unwrap();

    // Pass 2, fault removed: resumes from the merged prefix, re-runs
    // shard 1 and the truncated shard 2, reuses shard 3, and lands on
    // the bit-identical full digest.
    let resumed = coordinator(4, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert!(
        resumed.resumed_shards >= 2,
        "frontier + surviving partial should be reused: {resumed}"
    );
    assert_matches_in_process(&resumed, &matrix);
    // A complete sweep leaves no memo behind.
    assert_eq!(memos(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The trace memo files in a checkpoint directory, sorted.
fn memos(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("trace-"))
        .collect();
    names.sort();
    names
}

#[test]
fn corrupt_foreign_and_mispriced_trace_memos_are_misses() {
    use ehdl::ehsim::Integrity;
    // HAR on FLEX, unguarded and SECDED, two deterministic supplies,
    // one shard per seed. The trace keys are integrity × environment:
    // 0 and 1 unguarded, 2 and 3 SECDED.
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::solar_day()])
        .seeds(vec![0, 1])
        .integrities(vec![Integrity::None, Integrity::Secded])
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        });
    // Real memos: a sweep that never completes keeps them. A sweep at
    // another shard size is another sweep, with memos of its own.
    let harvest = |shard_size: usize, tag: &str| {
        let dir = tmp_dir(tag);
        let report = coordinator(shard_size, Some("kill:1"))
            .retries(0)
            .checkpoint_dir(&dir)
            .run(&matrix)
            .unwrap();
        assert!(!report.is_complete());
        // The killed worker may leave a memo it was still writing.
        let mut names = memos(&dir);
        names.retain(|name| !name.ends_with(".wip"));
        assert_eq!(names.len(), 4, "{names:?}");
        (dir, names)
    };
    let (ours, names) = harvest(4, "memo-ours");
    let (theirs, foreign) = harvest(2, "memo-theirs");
    let read = |dir: &PathBuf, name: &String| std::fs::read(dir.join(name)).unwrap();

    let salted = tmp_dir("memo-salted");
    std::fs::create_dir_all(&salted).unwrap();
    let mut torn = read(&ours, &names[0]);
    torn.truncate(torn.len() / 2);
    let mut flipped = read(&ours, &names[1]);
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x10;
    for (name, bytes) in [
        (&names[0], torn),
        (&names[1], flipped),
        // The unguarded recording under the SECDED key.
        (&names[2], read(&ours, &names[0])),
        // Another sweep's memo for the same tuple.
        (&names[3], read(&theirs, &foreign[3])),
    ] {
        std::fs::write(salted.join(name), bytes).unwrap();
    }
    let report = coordinator(4, None)
        .checkpoint_dir(&salted)
        .run(&matrix)
        .unwrap();
    assert_matches_in_process(&report, &matrix);
    assert_eq!(report.retries, 0);
    assert_eq!(report.events, vec![]);
    assert_eq!(memos(&salted), Vec::<String>::new());
    for dir in [ours, theirs, salted] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn rerunning_a_complete_sweep_resumes_entirely_from_the_frontier() {
    let matrix = quick_matrix();
    let dir = tmp_dir("memo");
    let first = coordinator(8, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert!(first.is_complete());
    // Second run: everything comes from the frontier; no workers run.
    let second = coordinator(8, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert_eq!(second.resumed_shards, 2);
    assert_eq!(second.digest, first.digest);
    assert_eq!(second.grouped, first.grouped);
    // Third run over a frontier with one flipped byte: the checksum
    // catches it, the sweep starts cold and lands on the same digest.
    let frontier = dir.join("frontier.ckpt");
    let mut bytes = std::fs::read(&frontier).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&frontier, &bytes).unwrap();
    let third = coordinator(8, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    assert_eq!(third.resumed_shards, 0, "{third}");
    assert!(third.is_complete(), "{third}");
    assert_eq!(third.digest, first.digest);
    assert_eq!(third.grouped, first.grouped);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_plans_and_mismatched_checkpoints_are_typed_errors() {
    let matrix = quick_matrix();
    let shard_err = |result: Result<ShardReport, Error>| match result {
        Err(Error::Shard(e)) => e,
        other => panic!("expected a shard error, got {other:?}"),
    };
    // Zero shard size.
    assert!(matches!(
        shard_err(coordinator(0, None).run(&matrix)),
        ShardError::BadPlan { .. }
    ));
    // Shard larger than the matrix.
    assert!(matches!(
        shard_err(coordinator(17, None).run(&matrix)),
        ShardError::BadPlan { .. }
    ));
    // Empty matrix.
    assert!(matches!(
        shard_err(coordinator(4, None).run(&quick_matrix().seeds(vec![]))),
        ShardError::BadPlan { .. }
    ));
    // A matrix whose scenario count overflows a usize (2^64 here).
    let uncountable = quick_matrix()
        .environments(vec![catalog::bench_supply(); 1 << 16])
        .seeds((0..1 << 16).collect())
        .energy_budgets_nj(vec![None; 1 << 16])
        .integrities(vec![ehdl::ehsim::Integrity::None; 1 << 15]);
    assert!(matches!(
        shard_err(coordinator(4, None).run(&uncountable)),
        ShardError::BadPlan { .. }
    ));
    // A checkpoint directory from a *different* sweep must refuse to
    // resume, not merge garbage.
    let dir = tmp_dir("mismatch");
    coordinator(8, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .unwrap();
    let other = quick_matrix().seeds(vec![7, 8]);
    assert!(matches!(
        shard_err(coordinator(8, None).checkpoint_dir(&dir).run(&other)),
        ShardError::CheckpointMismatch { .. }
    ));
    // Same sweep, different shard size: also a different plan identity.
    assert!(matches!(
        shard_err(coordinator(4, None).checkpoint_dir(&dir).run(&matrix)),
        ShardError::CheckpointMismatch { .. }
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_injected_sweeps_shard_bit_identically() {
    // A seeded fault axis rides the wire: subprocess workers rebuild
    // the fault plans from the job spec and must reproduce the
    // in-process digest bit for bit at any shard count, grouped by
    // fault label included.
    let storm = FaultSpec {
        seed: 5,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        burst_len: 0,
        flip_per_commit_bit: 0.0,
        wear: ehdl_fleet::WearCurve::NONE,
    };
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Flex])
        .faults(vec![FaultSpec::none(), storm])
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        });
    let (digest, by_fault) = FleetRunner::builder()
        .workers(2)
        .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Fault)))
        .run(&matrix)
        .unwrap();
    assert_eq!(digest.scenarios, 4);
    assert!(digest.resilience.faulted_runs > 0);
    assert_eq!(digest.resilience.silent_corruptions, 0);

    for shard_size in [4, 2, 1] {
        let report = ShardCoordinator::new(shard_size)
            .concurrency(2)
            .worker_threads(2)
            .backoff(Duration::from_millis(10))
            .group_by(vec![GroupAxis::Fault])
            .worker_command(WORKER, Vec::new())
            .run(&matrix)
            .unwrap();
        assert!(report.is_complete(), "shard_size {shard_size}: {report}");
        assert_eq!(report.digest, digest, "shard_size {shard_size}");
        assert_eq!(
            report.grouped,
            vec![by_fault.clone()],
            "shard_size {shard_size}"
        );
    }
}

#[test]
fn an_unspawnable_worker_degrades_every_shard() {
    let matrix = quick_matrix();
    let report = ShardCoordinator::new(8)
        .worker_command("/nonexistent/fleet_shard_worker", Vec::new())
        .retries(0)
        .backoff(Duration::from_millis(1))
        .run(&matrix)
        .unwrap();
    assert_eq!(report.merged_shards, 0);
    assert_eq!(report.failed.len(), 2);
    assert_eq!(report.digest, FleetDigest::new());
    // A retry whose backoff the clock cannot hold fails the shard
    // instead of panicking the coordinator.
    let report = ShardCoordinator::new(8)
        .worker_command("/nonexistent/fleet_shard_worker", Vec::new())
        .retries(1)
        .backoff(Duration::MAX)
        .run(&matrix)
        .unwrap();
    assert_eq!(report.merged_shards, 0);
    assert_eq!(report.failed.len(), 2);
    for failed in &report.failed {
        assert!(failed.error.contains("retry backoff"), "{}", failed.error);
    }
    assert_eq!(report.digest, FleetDigest::new());
}

/// Two directory-less sweeps of one matrix at one shard size, running at
/// once in one process, each get their own scratch directory: neither
/// deletes the other's files, and both reproduce the in-process digest.
#[test]
fn concurrent_directory_less_sweeps_do_not_share_a_scratch_directory() {
    let matrix = quick_matrix();
    let reports: Vec<ShardReport> = std::thread::scope(|scope| {
        let sweeps: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| coordinator(8, None).run(&matrix).unwrap()))
            .collect();
        sweeps.into_iter().map(|s| s.join().unwrap()).collect()
    });
    for report in &reports {
        assert_matches_in_process(report, &matrix);
    }
}

/// The coordinator checks a matrix the way the in-process runner does:
/// an invalid fault spec is the runner's typed config error, returned
/// before any worker is spawned (an unspawnable worker would otherwise
/// degrade every shard and return `Ok`).
#[test]
fn an_invalid_fault_spec_fails_before_any_worker_spawns() {
    let matrix = quick_matrix().faults(vec![FaultSpec {
        seed: 1,
        reset_per_op: 2.0,
        ..FaultSpec::none()
    }]);
    let in_process = FleetRunner::new(1).run(&matrix).unwrap_err();
    let invalid_fault = |e: &Error| matches!(e, Error::Config(ConfigError::InvalidFault(_)));
    assert!(invalid_fault(&in_process), "{in_process}");
    let sharded = ShardCoordinator::new(8)
        .worker_command("/nonexistent/fleet_shard_worker", Vec::new())
        .retries(0)
        .run(&matrix)
        .unwrap_err();
    assert!(invalid_fault(&sharded), "{sharded}");
    assert_eq!(sharded.to_string(), in_process.to_string());
}

/// Determinism bar for retry backoff: the jittered schedule is a pure
/// function of (shard, attempt), so a re-run of the same coordinator
/// configuration retries at exactly the same offsets, while
/// simultaneous failures across shards never retry in lockstep.
#[test]
fn retry_backoff_schedule_is_reproducible() {
    use ehdl_fleet::retry_backoff;
    let base = Duration::from_millis(100);
    let schedule = || -> Vec<Duration> {
        (0..8)
            .flat_map(|shard| (1..=3).map(move |attempt| retry_backoff(base, shard, attempt)))
            .collect()
    };
    // Bit-identical on replay.
    assert_eq!(schedule(), schedule());
    // Same-attempt delays are spread, not lockstep: all eight shards'
    // first retries land at distinct offsets within [base/2, base).
    let firsts: Vec<Duration> = (0..8).map(|s| retry_backoff(base, s, 1)).collect();
    let mut unique = firsts.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), firsts.len(), "{firsts:?}");
    for d in &firsts {
        assert!(*d >= base / 2 && *d < base, "{d:?}");
    }
}

/// The integrity axis rides the shard wire: a bit-flip storm swept
/// across all three schemes reproduces the in-process digest bit for
/// bit from subprocess workers at two shard sizes, grouped by scheme —
/// silent corruption in the `none` group, zero in the guarded ones.
#[test]
fn integrity_sweeps_shard_bit_identically_at_two_shard_sizes() {
    use ehdl::ehsim::{Integrity, WearCurve};
    use ehdl::Strategy;
    let storm = FaultSpec {
        seed: 11,
        reset_per_op: 0.01,
        flip_per_commit_bit: 2e-4,
        wear: WearCurve {
            endurance_commits: 20_000,
        },
        ..FaultSpec::none()
    };
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Sonic])
        .faults(vec![storm])
        .integrities(Integrity::ALL.to_vec())
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        });
    assert_eq!(matrix.len(), 2 * 3);
    let (digest, by_scheme) = FleetRunner::builder()
        .workers(2)
        .sink((DigestSink::new(), GroupBySink::new(GroupAxis::Integrity)))
        .run(&matrix)
        .unwrap();
    assert!(digest.integrity.flips_injected > 0);
    assert!(by_scheme.get("none").unwrap().integrity.silent_restores > 0);
    assert_eq!(
        by_scheme
            .get("checksum")
            .unwrap()
            .resilience
            .silent_corruptions,
        0
    );
    assert_eq!(
        by_scheme
            .get("secded")
            .unwrap()
            .resilience
            .silent_corruptions,
        0
    );

    for shard_size in [4, 2] {
        let report = ShardCoordinator::new(shard_size)
            .concurrency(2)
            .worker_threads(2)
            .backoff(Duration::from_millis(10))
            .group_by(vec![GroupAxis::Integrity])
            .worker_command(WORKER, Vec::new())
            .run(&matrix)
            .unwrap();
        assert!(report.is_complete(), "shard_size {shard_size}: {report}");
        assert_eq!(report.digest, digest, "shard_size {shard_size}");
        assert_eq!(
            report.grouped,
            vec![by_scheme.clone()],
            "shard_size {shard_size}"
        );
    }
}

#[cfg(unix)]
#[test]
fn shard_timeout_bounds_the_sweep_when_the_worker_tree_outlives_the_kill() {
    // The shell forks `sleep`, which survives the shell's kill and keeps
    // the stderr pipe open for 5 s. The timeout must still bound the
    // sweep instead of waiting for that pipe to close.
    let matrix = quick_matrix();
    let dir = tmp_dir("timeout");
    let started = std::time::Instant::now();
    let report = ShardCoordinator::new(8)
        .concurrency(2)
        .timeout(Duration::from_millis(300))
        .retries(0)
        .checkpoint_dir(&dir)
        .worker_command(
            "/bin/sh",
            vec!["-c".to_string(), "sleep 5; true".to_string()],
        )
        .run(&matrix)
        .unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    assert_eq!(report.merged_shards, 0);
    assert_eq!(report.failed.len(), 2, "{report}");
    for shard in 0..2 {
        let timeouts = report
            .events
            .iter()
            .filter(|e| e.shard == shard && e.kind == ShardEventKind::Timeout)
            .count();
        assert_eq!(timeouts, 1, "shard {shard}: {:?}", report.events);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[cfg(unix)]
#[test]
fn failed_exit_bounds_the_stderr_wait_when_the_worker_tree_outlives_the_worker() {
    // The shell backgrounds `sleep`, which inherits the stderr pipe and
    // holds it open for 5 s after the shell exits 3. Reaping the failed
    // exit must not wait for that pipe to close, and the failure must
    // still carry what the worker said before it exited.
    let matrix = quick_matrix();
    let dir = tmp_dir("failed-exit");
    let started = std::time::Instant::now();
    let report = ShardCoordinator::new(8)
        .concurrency(2)
        .retries(0)
        .checkpoint_dir(&dir)
        .worker_command(
            "/bin/sh",
            vec![
                "-c".to_string(),
                "echo boom >&2; sleep 5 & exit 3".to_string(),
            ],
        )
        .run(&matrix)
        .unwrap();
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(2), "took {elapsed:?}");
    assert_eq!(report.merged_shards, 0);
    assert_eq!(report.failed.len(), 2, "{report}");
    for failed in &report.failed {
        assert!(failed.error.contains("boom"), "{}", failed.error);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
