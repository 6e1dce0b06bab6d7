//! gateway_sweep: how fast does the networked-fleet path simulate a
//! thousand-device shared harvest field, and does it stay deterministic?
//!
//! One fleet sweep over a line topology — every device harvesting from
//! the same RF source through its own path loss, a duty-cycled gateway
//! polling the fleet round-robin — run twice, at 1 and 2 workers. The
//! two digests must agree **bit for bit** (the determinism bar CI
//! smokes with `--quick`), the gateway accounting must conserve polls,
//! and the end-to-end SLO picture (served fraction, staleness
//! percentiles, starvation) lands in the `gateway_sweep` entry of
//! `BENCH_fleet.json` together with an FNV-1a 64 checksum of the
//! canonical digest wire form.

use ehdl::ehsim::{catalog, ExecutorConfig};
use ehdl::prelude::*;
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{DigestSink, FleetRunner, NetworkTopology, ScenarioMatrix, Workload};
use std::time::Instant;

/// FNV-1a 64 over the digest's canonical wire form — the checksum CI
/// pins (matches the published reference vectors, e.g. "a" → 0xaf63…).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn main() {
    let quick = quick_mode();
    section("gateway_sweep: shared-field fleet with a polling gateway");

    let devices: u32 = if quick { 48 } else { 1024 };
    // One RF field split across the line: the budget keeps the average
    // device viable, the quadratic path loss starves the far end — the
    // gradient the starvation metric exists to expose.
    let topology = NetworkTopology {
        devices,
        spacing: 0.05,
        field_budget: f64::from(devices) * 0.9,
        poll_period_s: 0.5,
        poll_offset_s: 0.0,
        freshness_s: 10.0,
        poll_retries: 0,
    };
    topology.validate().expect("topology is valid");
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::office_rf()])
        .strategies(vec![Strategy::Sonic])
        .workloads(vec![Workload::Har { samples: 4 }])
        .topologies(vec![topology])
        .runs(if quick { 1 } else { 2 })
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    println!(
        "{} devices on one field, {} scenario(s) ({} mode)\n",
        devices,
        matrix.len(),
        if quick { "quick" } else { "full" }
    );

    let started = Instant::now();
    let digest = FleetRunner::builder()
        .workers(1)
        .sink(DigestSink::new())
        .run(&matrix)
        .expect("gateway sweep at 1 worker");
    let sweep_s = started.elapsed().as_secs_f64();
    let device_rate = f64::from(devices) / sweep_s;
    println!("sweep: {sweep_s:>7.3} s  {device_rate:>8.1} devices/s");

    let two = FleetRunner::builder()
        .workers(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .expect("gateway sweep at 2 workers");
    assert_eq!(digest, two, "gateway digest drifted across worker counts");
    let wire = digest.to_json();
    assert_eq!(wire, two.to_json(), "wire form drifted across workers");
    let checksum = fnv64(wire.as_bytes());
    println!("digest checksum: {checksum:016x} (bit-identical at 1 and 2 workers)");

    let s = &digest.slo;
    assert_eq!(s.devices, u64::from(devices), "device count drifted");
    assert!(s.polls > 0, "the gateway never polled");
    assert_eq!(
        s.served + s.missed_asleep + s.missed_stale,
        s.polls,
        "poll accounting leaked"
    );
    let served_fraction = s.served_fraction();
    assert!(
        (0.0..=1.0).contains(&served_fraction),
        "served fraction {served_fraction} out of bounds"
    );
    let p50 = s.staleness_s.p50().unwrap_or(0.0);
    let p99 = s.staleness_s.p99().unwrap_or(0.0);
    println!(
        "gateway: {}/{} polls served ({:.1}%), staleness p50 {:.3} s / p99 {:.3} s, \
         {}/{} devices starved",
        s.served,
        s.polls,
        served_fraction * 100.0,
        p50,
        p99,
        s.starved_devices,
        s.devices
    );

    record_bench_entry(
        "gateway_sweep",
        &[
            ("quick", quick.to_string()),
            ("devices", devices.to_string()),
            ("scenarios", matrix.len().to_string()),
            ("sweep_seconds", format!("{sweep_s:.6}")),
            ("devices_per_sec", format!("{device_rate:.3}")),
            ("polls", s.polls.to_string()),
            ("served", s.served.to_string()),
            ("served_fraction", format!("{served_fraction:.6}")),
            ("missed_asleep", s.missed_asleep.to_string()),
            ("missed_stale", s.missed_stale.to_string()),
            ("starved_devices", s.starved_devices.to_string()),
            ("staleness_p50_s", format!("{p50:.6}")),
            ("staleness_p99_s", format!("{p99:.6}")),
            ("digest_checksum", format!("\"{checksum:016x}\"")),
        ],
    );
}
