//! Fleet-sweep scaling.
//!
//! Default mode: the 48-scenario acceptance matrix (4 environments × 6
//! strategies × 2 boards) at increasing worker counts, with the
//! determinism check the engine guarantees.
//!
//! `--digest` mode: the streaming-telemetry scale datapoint — a
//! 10k-scenario matrix (4 environments × 6 strategies × 417 seeds)
//! folded into a fixed-size `DigestSink`, compared against the dense
//! `FullReportSink` for retained memory, and recorded as the
//! `fleet_digest` entry of `BENCH_fleet.json`. `--quick` shrinks the
//! seed axis for the CI smoke run.

use ehdl::device::CostTable;
use ehdl::ehsim::{catalog, ExecutorConfig};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{DigestSink, FleetRunner, ScenarioMatrix, Workload};
use std::time::Instant;

fn main() {
    if std::env::args().any(|a| a == "--digest") {
        digest_scale();
    } else {
        worker_scaling();
    }
}

/// The original scaling demo: one matrix, growing worker pools,
/// identical dense reports.
fn worker_scaling() {
    section("fleet_sweep: 4 environments x 6 strategies x 2 boards");

    let mut slow_cpu = CostTable::msp430fr5994();
    slow_cpu.cpu_op_cycles *= 2;
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .boards(vec![BoardSpec::Msp430Fr5994, BoardSpec::Custom(slow_cpu)])
        .workloads(vec![Workload::Har { samples: 8 }])
        .runs(2)
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    println!(
        "{} scenarios, {} intermittent runs\n",
        matrix.len(),
        matrix.len() * 2
    );

    // Sweep past the physical core count on small machines: the engine
    // must stay deterministic even oversubscribed.
    let max_workers = std::thread::available_parallelism()
        .map_or(8, usize::from)
        .max(8);
    let mut baseline: Option<(f64, ehdl_fleet::FleetReport)> = None;
    let mut workers = 1;
    while workers <= max_workers {
        let started = Instant::now();
        let report = FleetRunner::new(workers).run(&matrix).expect("sweep runs");
        let secs = started.elapsed().as_secs_f64();
        match &baseline {
            None => {
                println!("{workers:>3} workers: {secs:>7.2} s  (baseline)");
                baseline = Some((secs, report));
            }
            Some((serial_secs, serial_report)) => {
                assert_eq!(
                    serial_report, &report,
                    "report must be worker-count independent"
                );
                println!(
                    "{workers:>3} workers: {secs:>7.2} s  ({:.2}x, report identical)",
                    serial_secs / secs
                );
            }
        }
        workers *= 2;
    }

    let (_, report) = baseline.expect("at least one sweep ran");
    println!("\n{report}");
}

/// The streaming-telemetry datapoint: a 10k-scenario sweep folded into
/// O(1) sink memory, vs the dense report's linear retention.
fn digest_scale() {
    let quick = quick_mode();
    let seeds: Vec<u64> = if quick {
        (0..20).collect()
    } else {
        (0..417).collect()
    };
    let matrix = ScenarioMatrix::new()
        .environments(catalog::all())
        .strategies(Strategy::ALL.to_vec())
        .workloads(vec![Workload::Har { samples: 4 }])
        .seeds(seeds)
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    section("fleet_sweep --digest: streaming aggregation at scale");
    println!(
        "{} scenarios ({} mode)\n",
        matrix.len(),
        if quick { "quick" } else { "full" }
    );

    let workers = std::thread::available_parallelism().map_or(8, usize::from);

    // Streaming: the whole sweep folds into one fixed-size digest.
    let started = Instant::now();
    let digest = FleetRunner::builder()
        .workers(workers)
        .sink(DigestSink::new())
        .run(&matrix)
        .expect("digest sweep runs");
    let digest_s = started.elapsed().as_secs_f64();
    let digest_rate = matrix.len() as f64 / digest_s;
    let digest_bytes = digest.memory_bytes();
    println!("digest sink ({workers} workers): {digest_s:>7.2} s  {digest_rate:>8.1} scenarios/s");
    println!("digest retains {digest_bytes} bytes — constant in the matrix size");
    assert_eq!(digest.scenarios as usize, matrix.len());
    assert!(
        digest_bytes < 64 * 1024,
        "the digest must stay O(1): {digest_bytes} bytes"
    );

    // Dense: the classic report retains every scenario + latency sample.
    let started = Instant::now();
    let dense = FleetRunner::new(workers)
        .run(&matrix)
        .expect("dense sweep runs");
    let dense_s = started.elapsed().as_secs_f64();
    let dense_bytes = dense.memory_bytes();
    let ratio = dense_bytes as f64 / digest_bytes as f64;
    println!("full report ({workers} workers): {dense_s:>7.2} s  retains {dense_bytes} bytes ({ratio:.0}x the digest)");

    // The digest is a faithful summary of the dense sweep.
    assert_eq!(digest.runs, dense.total_runs());
    assert_eq!(digest.completed_runs, dense.completed_runs());
    assert_eq!(digest.outages, dense.total_outages());

    println!("\n{digest}");

    let latency = |p: Option<f64>| format!("{:.4}", p.unwrap_or(0.0));
    record_bench_entry(
        "fleet_digest",
        &[
            ("quick", quick.to_string()),
            ("scenarios", matrix.len().to_string()),
            ("workers", workers.to_string()),
            ("digest_seconds", format!("{digest_s:.6}")),
            ("digest_scenarios_per_sec", format!("{digest_rate:.3}")),
            ("digest_bytes", digest_bytes.to_string()),
            ("dense_seconds", format!("{dense_s:.6}")),
            ("dense_report_bytes", dense_bytes.to_string()),
            ("memory_ratio", format!("{ratio:.1}")),
            ("completed_runs", digest.completed_runs.to_string()),
            ("outages", digest.outages.to_string()),
            ("latency_p50_ms", latency(digest.latency_ms.p50())),
            ("latency_p90_ms", latency(digest.latency_ms.p90())),
            ("latency_p99_ms", latency(digest.latency_ms.p99())),
        ],
    );
}
