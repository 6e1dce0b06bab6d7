//! Determinism contract of networked-fleet scenarios: the digest of a
//! sweep with a [`NetworkTopology`] axis is a pure function of the
//! matrix — bit-identical at any worker count and any shard split —
//! and a single-device topology reproduces the solo executor's records
//! exactly, so the network layer provably adds nothing to the physics.

use ehdl::ehsim::{catalog, ExecEvent, ExecProbe, ExecutorConfig, RunOutcome, TimelineRecorder};
use ehdl::Strategy;
use ehdl_fleet::{
    DigestSink, FleetDigest, FleetRunner, NetworkTopology, ScenarioMatrix, SloTally, Workload,
    WorldSim,
};
use ehdl_netsim::DeviceTimeline;

fn quick_executor() -> ExecutorConfig {
    ExecutorConfig {
        stall_outages: 6,
        ..ExecutorConfig::default()
    }
}

/// A matrix mixing solo and networked topologies over a deterministic
/// and a stochastic environment.
fn networked_matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .workloads(vec![Workload::Har { samples: 4 }])
        .strategies(vec![Strategy::Sonic])
        .topologies(vec![
            NetworkTopology::solo(),
            NetworkTopology::line(5, 1.0, 0.5),
        ])
        .runs(2)
        .executor(quick_executor())
}

#[test]
fn worker_count_does_not_change_the_networked_digest() {
    let matrix = networked_matrix();
    let digest = |workers: usize| {
        FleetRunner::builder()
            .workers(workers)
            .sink(DigestSink::new())
            .run(&matrix)
            .unwrap()
    };
    let one = digest(1);
    let four = digest(4);
    assert_eq!(one, four);
    // The wire encoding is canonical, so the serialized digests agree
    // byte for byte — the checksum CI smoke jobs pin.
    assert_eq!(one.to_json(), four.to_json());
    // The networked half actually exercised the gateway.
    assert!(one.slo.polls > 0, "no gateway polls folded");
    assert_eq!(one.slo.worlds, 2, "one world per networked scenario");
}

#[test]
fn per_scenario_shards_merge_to_the_whole_sweep_digest() {
    let matrix = networked_matrix();
    let runner = || FleetRunner::new(2).sink(DigestSink::new());
    let whole = runner().run(&matrix).unwrap();
    // The shard coordinator's merge unit is the per-scenario record, in
    // matrix order — the same left-fold the whole-sweep runner performs,
    // so the reassembly is bit-identical (coarser groupings would change
    // the floating-point summation tree). Exercised here without
    // processes: one range per scenario, merged in matrix order.
    let mut merged = FleetDigest::new();
    for scenario in 0..matrix.len() {
        let part = runner().range(scenario..scenario + 1).run(&matrix).unwrap();
        merged.merge(&part);
    }
    assert_eq!(merged, whole);
    assert_eq!(merged.to_json(), whole.to_json());
}

#[test]
fn single_device_topology_is_bit_identical_to_the_solo_executor() {
    // A hand-built 1-device topology is *not* the solo sentinel, so it
    // routes through the world executor: shared-field allocation,
    // timeline recording, gateway resolution and all.
    let one_device = NetworkTopology {
        devices: 1,
        spacing: 0.0,
        field_budget: 1.0,
        poll_period_s: 0.25,
        poll_offset_s: 0.0,
        freshness_s: 10.0,
        poll_retries: 0,
    };
    assert!(!one_device.is_solo());
    let base = ScenarioMatrix::new()
        .environments(vec![catalog::bench_supply(), catalog::office_rf()])
        .workloads(vec![Workload::Har { samples: 4 }])
        .strategies(vec![Strategy::Sonic])
        .runs(2)
        .executor(quick_executor());
    let solo = FleetRunner::new(2)
        .sink(DigestSink::new())
        .run(&base)
        .unwrap();
    let world = FleetRunner::new(2)
        .sink(DigestSink::new())
        .run(&base.topologies(vec![one_device]))
        .unwrap();
    // The gateway saw the run...
    assert!(world.slo.polls > 0);
    assert_ne!(world.slo, SloTally::default());
    // ...and every physical record is unchanged: substituting the slo
    // block makes the digests equal, so run counts, outcomes, energy,
    // latency sketches and fault tallies all match bit for bit.
    let mut world_sans_slo = world.clone();
    world_sans_slo.slo = solo.slo.clone();
    assert_eq!(world_sans_slo, solo);
}

#[test]
fn gateway_accounting_is_conserved() {
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::piezo_gait()])
        .workloads(vec![Workload::Har { samples: 4 }])
        .strategies(vec![Strategy::Sonic])
        .topologies(vec![NetworkTopology::line(4, 2.0, 0.2)])
        .runs(2)
        .executor(quick_executor());
    let digest = FleetRunner::new(2)
        .sink(DigestSink::new())
        .run(&matrix)
        .unwrap();
    let s = &digest.slo;
    assert_eq!(s.worlds, 1);
    assert_eq!(s.devices, 4);
    assert_eq!(
        s.served + s.missed_asleep + s.missed_stale,
        s.polls,
        "every poll is served or attributed to exactly one miss cause"
    );
    assert_eq!(
        s.staleness_s.count(),
        s.served,
        "one staleness sample per served poll"
    );
    assert!(s.starved_devices <= s.devices);
    assert!(s.served_fraction() >= 0.0 && s.served_fraction() <= 1.0);
}

#[test]
fn world_resolution_ignores_device_registration_order() {
    // Two timelines with different shapes, registered in opposite
    // orders: the gateway's schedule (and therefore the outcome) is
    // keyed by device id, never by registration order.
    let timeline = |dark: (f64, f64), end: f64| {
        let mut rec = TimelineRecorder::new();
        rec.event(ExecEvent::DarkSkip {
            t0: dark.0,
            t1: dark.1,
            joules: 0.0,
        });
        rec.event(ExecEvent::RunEnd {
            t: end,
            outcome: RunOutcome::Completed,
        });
        let mut t = DeviceTimeline::new();
        t.push_run(&rec.take());
        t
    };
    let topology = NetworkTopology::line(2, 1.0, 0.3);
    let mut forward = WorldSim::new(topology);
    forward.add_device(0, timeline((0.2, 0.8), 2.0));
    forward.add_device(1, timeline((1.0, 1.4), 3.0));
    let mut reverse = WorldSim::new(topology);
    reverse.add_device(1, timeline((1.0, 1.4), 3.0));
    reverse.add_device(0, timeline((0.2, 0.8), 2.0));
    assert_eq!(forward.resolve(), reverse.resolve());
}
