//! Sharded-sweep scaling and crash-recovery bench.
//!
//! Full mode: a 100k-scenario matrix (4 environments × 6 strategies ×
//! 1043 seeds × 4 energy budgets) split into subprocess shards and
//! swept at growing worker counts, with the coordinator's bit-identical
//! merge checked across counts. Recorded as the `shard_sweep` entry of
//! `BENCH_fleet.json`.
//!
//! `--quick` is the CI smoke: a 32-scenario matrix across 2 workers,
//! with a forced mid-shard kill on the first pass and a resume from the
//! persisted frontier on the second, landing on the in-process digest
//! bit for bit. A third pass sweeps the 480-scenario quick grid in
//! shards of 40, so neighbouring shards replay each other's trace
//! memos, and must reproduce `tests/golden/quick_grid_digest.json` byte
//! for byte. Each completed pass must leave no trace memo or `.wip`
//! file behind.
//!
//! The binary is its own worker: the coordinator relaunches it with
//! `--shard-worker`, which routes straight into
//! [`ehdl_fleet::shard::worker_main`].

use ehdl::ehsim::{catalog, ExecutorConfig};
use ehdl::prelude::*;
use ehdl::CalibrationConfig;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{
    diff_digests, DigestSink, FleetDigest, FleetRunner, ScenarioMatrix, ShardCoordinator, Workload,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// The committed digest of the quick grid, `FleetDigest::to_json`
/// bytes.
const QUICK_GRID_GOLDEN: &str = include_str!("../../../../tests/golden/quick_grid_digest.json");

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--shard-worker") {
        // Re-entered as a shard worker by the coordinator below.
        if let Err(e) = ehdl_fleet::shard::worker_main(&args[1..]) {
            eprintln!("fleet_shard worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    if quick_mode() {
        kill_and_resume_smoke();
        quick_grid_golden();
    } else {
        shard_scaling();
    }
}

fn coordinator(shard_size: usize, workers: usize, fault: Option<&str>) -> ShardCoordinator {
    let exe = std::env::current_exe().expect("own path");
    let mut args = vec!["--shard-worker".to_string()];
    if let Some(spec) = fault {
        args.extend(["--fault".to_string(), spec.to_string()]);
    }
    ShardCoordinator::new(shard_size)
        .concurrency(workers)
        .worker_threads(1)
        .backoff(Duration::from_millis(50))
        .progress(true)
        .worker_command(exe, args)
}

fn in_process(matrix: &ScenarioMatrix) -> FleetDigest {
    FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(matrix)
        .expect("in-process sweep runs")
}

/// CI smoke: kill a worker mid-shard, then resume from the frontier.
fn kill_and_resume_smoke() {
    section("fleet_shard --quick: forced kill + frontier resume");
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .strategies(vec![Strategy::Sonic, Strategy::Flex])
        .seeds((0..4).collect())
        .energy_budgets_nj(vec![None, Some(2_000_000.0)])
        .calibration(CalibrationConfig {
            samples: 4,
            percentile: 0.9,
        });
    println!("{} scenarios, 4 shards, 2 workers\n", matrix.len());

    let dir = std::env::temp_dir().join(format!("ehdl-fleet-shard-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Pass 1: shard 1 aborts mid-write on every attempt and exhausts
    // its retries; the sweep degrades instead of aborting.
    let started = Instant::now();
    let degraded = coordinator(8, 2, Some("kill:1"))
        .retries(0)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .expect("degraded sweep still returns a report");
    let degraded_s = started.elapsed().as_secs_f64();
    assert!(!degraded.is_complete(), "the kill must leave a gap");
    println!(
        "pass 1 (kill:1): {degraded_s:.2} s, {}/{} shards merged, {} failed range(s)",
        degraded.merged_shards,
        degraded.shards,
        degraded.failed.len()
    );

    // Pass 2: fault removed. The coordinator resumes from the persisted
    // frontier and surviving partials and completes the sweep.
    let started = Instant::now();
    let resumed = coordinator(8, 2, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .expect("resume completes");
    let resumed_s = started.elapsed().as_secs_f64();
    assert!(resumed.is_complete(), "{resumed}");
    assert!(
        resumed.resumed_shards >= 1,
        "resume must reuse the frontier: {resumed}"
    );
    println!(
        "pass 2 (resume): {resumed_s:.2} s, reused {} shard(s), {} re-run",
        resumed.resumed_shards,
        resumed.shards - resumed.resumed_shards
    );
    assert_swept_clean(&dir);
    let _ = std::fs::remove_dir_all(&dir);

    let reference = in_process(&matrix);
    assert_eq!(
        resumed.digest, reference,
        "resumed digest must be bit-identical to in-process"
    );
    println!("resumed digest is bit-identical to the in-process sweep\n");
    println!("{}", resumed.digest);

    record_bench_entry(
        "shard_sweep",
        &[
            ("quick", "true".to_string()),
            ("scenarios", matrix.len().to_string()),
            ("shards", resumed.shards.to_string()),
            ("workers", "2".to_string()),
            ("kill_pass_seconds", format!("{degraded_s:.6}")),
            ("resume_pass_seconds", format!("{resumed_s:.6}")),
            ("resumed_shards", resumed.resumed_shards.to_string()),
            ("bit_identical_after_resume", "true".to_string()),
        ],
    );
}

/// Asserts a completed sweep's checkpoint directory holds no trace memo
/// and no `.wip` file.
fn assert_swept_clean(dir: &Path) {
    let left: Vec<String> = std::fs::read_dir(dir)
        .expect("checkpoint directory")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|name| name.starts_with("trace-") || name.ends_with(".wip"))
        .collect();
    assert!(left.is_empty(), "a completed sweep left {left:?}");
}

/// CI smoke, pass 3: the quick grid (6 strategies × 20 seeds × 4
/// environments) in shards of 40, two per strategy, so each second
/// shard replays the memos of the first. The digest must be the
/// committed golden bytes; on a mismatch the moved fields print and
/// the process exits non-zero.
fn quick_grid_golden() {
    section("fleet_shard --quick: quick grid in shards of 40 vs the golden digest");
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![Workload::Har { samples: 4 }])
        .seeds((0..20).collect())
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    assert_eq!(matrix.len(), 480);
    let dir = std::env::temp_dir().join(format!("ehdl-fleet-shard-grid-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    let report = coordinator(40, 2, None)
        .checkpoint_dir(&dir)
        .run(&matrix)
        .expect("quick grid sweep runs");
    let secs = started.elapsed().as_secs_f64();
    assert!(report.is_complete(), "{report}");
    assert_swept_clean(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "pass 3 (quick grid): {secs:.2} s, {} shards, {} retries",
        report.shards, report.retries
    );
    let json = report.digest.to_json();
    if json != QUICK_GRID_GOLDEN {
        eprintln!("sharded quick grid digest differs from tests/golden/quick_grid_digest.json");
        match diff_digests(QUICK_GRID_GOLDEN, &json) {
            Ok(diffs) => {
                for diff in &diffs {
                    eprintln!("  {diff}");
                }
            }
            Err(e) => eprintln!("  {e}"),
        }
        std::process::exit(1);
    }
    println!("sharded quick grid digest matches the golden bytes\n");
}

/// The scale datapoint: 100k+ scenarios across subprocess shards,
/// scenarios/sec vs worker count, digests identical throughout.
fn shard_scaling() {
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![Workload::Har { samples: 4 }])
        .seeds((0..1043).collect())
        .energy_budgets_nj(vec![
            None,
            Some(500_000.0),
            Some(2_000_000.0),
            Some(8_000_000.0),
        ])
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let shard_size = 6258; // 100128 scenarios -> 16 shards
    let shards = matrix.len().div_ceil(shard_size);
    section("fleet_shard: subprocess shards at scale");
    println!(
        "{} scenarios, {} shards of {} (1 thread per worker)\n",
        matrix.len(),
        shards,
        shard_size
    );

    // The ground truth every shard count must reproduce bit for bit:
    // the same matrix folded through the in-process DigestSink.
    let started = Instant::now();
    let reference = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run(&matrix)
        .expect("in-process sweep runs");
    let in_process_s = started.elapsed().as_secs_f64();
    println!(
        "in-process: {in_process_s:>8.2} s  {:>8.1} scenarios/s  (reference digest)",
        matrix.len() as f64 / in_process_s
    );

    let mut timings: Vec<(usize, f64)> = Vec::new();
    for workers in [1, 2, 4] {
        let started = Instant::now();
        let report = coordinator(shard_size, workers, None)
            .run(&matrix)
            .expect("sharded sweep runs");
        let secs = started.elapsed().as_secs_f64();
        assert!(report.is_complete(), "{report}");
        assert_eq!(
            report.digest, reference,
            "sharded digest must be bit-identical to in-process"
        );
        println!(
            "{workers:>2} workers: {secs:>8.2} s  {:>8.1} scenarios/s  (digest identical)",
            matrix.len() as f64 / secs
        );
        timings.push((workers, secs));
    }

    let digest = reference;
    assert_eq!(digest.scenarios as usize, matrix.len());
    println!("\n{digest}");

    let counts: Vec<String> = timings.iter().map(|(w, _)| w.to_string()).collect();
    let seconds: Vec<String> = timings.iter().map(|(_, s)| format!("{s:.6}")).collect();
    let rates: Vec<String> = timings
        .iter()
        .map(|(_, s)| format!("{:.3}", matrix.len() as f64 / s))
        .collect();
    record_bench_entry(
        "shard_sweep",
        &[
            ("quick", "false".to_string()),
            ("scenarios", matrix.len().to_string()),
            ("shard_size", shard_size.to_string()),
            ("shards", shards.to_string()),
            ("worker_threads", "1".to_string()),
            ("in_process_seconds", format!("{in_process_s:.6}")),
            ("workers", format!("[{}]", counts.join(", "))),
            ("seconds", format!("[{}]", seconds.join(", "))),
            ("scenarios_per_sec", format!("[{}]", rates.join(", "))),
            ("bit_identical_to_in_process", "true".to_string()),
            ("completed_runs", digest.completed_runs.to_string()),
            ("outages", digest.outages.to_string()),
        ],
    );
}
