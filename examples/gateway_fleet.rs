//! Gateway fleet: a line of devices harvesting one shared RF field,
//! polled round-robin by a duty-cycled gateway. Sweeps fleet sizes,
//! prints the end-to-end SLO picture per topology (served fraction,
//! staleness percentiles, starvation), and shows the solo-parity
//! guarantee: a single-device topology folds the exact same physics as
//! the plain executor, plus a gateway view on top.
//!
//! ```text
//! cargo run --release --example gateway_fleet
//! ```

use ehdl::ehsim::{catalog, ExecutorConfig};
use ehdl::prelude::*;
use ehdl_fleet::{
    DigestSink, FleetRunner, GroupAxis, GroupBySink, NetworkTopology, ScenarioMatrix, Workload,
};

fn main() -> Result<(), ehdl::Error> {
    // Three fleets on the same RF source: spacing fixed, so growing the
    // fleet stretches the line and the quadratic path loss starves the
    // far end unless the field budget grows with it.
    let topologies: Vec<NetworkTopology> = [4u32, 16, 64]
        .into_iter()
        .map(|devices| NetworkTopology {
            devices,
            spacing: 0.25,
            field_budget: f64::from(devices) * 0.75,
            poll_period_s: 0.5,
            poll_offset_s: 0.0,
            freshness_s: 10.0,
            poll_retries: 0,
        })
        .collect();
    let matrix = ScenarioMatrix::new()
        .environments(vec![catalog::office_rf()])
        .strategies(vec![Strategy::Sonic])
        .workloads(vec![Workload::Har { samples: 4 }])
        .topologies(topologies)
        .runs(2)
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });

    println!("sweeping {} networked scenarios...", matrix.len());
    let by_topology = FleetRunner::new(4)
        .sink(GroupBySink::new(GroupAxis::Topology))
        .run(&matrix)?;
    for (label, digest) in &by_topology.groups {
        let s = &digest.slo;
        println!(
            "{label:<24} {:>5}/{:<5} polls served ({:>5.1}%)  staleness p50 {:>6.3} s  \
             p99 {:>6.3} s  starved {}/{}",
            s.served,
            s.polls,
            s.served_fraction() * 100.0,
            s.staleness_s.p50().unwrap_or(0.0),
            s.staleness_s.p99().unwrap_or(0.0),
            s.starved_devices,
            s.devices,
        );
    }

    // Solo parity: a 1-device topology routes through the full world
    // simulator — shared field, timeline recording, gateway — yet its
    // physical records are bit-identical to the plain solo executor.
    let base = ScenarioMatrix::new()
        .environments(vec![catalog::office_rf()])
        .strategies(vec![Strategy::Sonic])
        .workloads(vec![Workload::Har { samples: 4 }])
        .runs(2)
        .executor(ExecutorConfig {
            stall_outages: 6,
            ..ExecutorConfig::default()
        });
    let one_device = NetworkTopology {
        devices: 1,
        spacing: 0.0,
        field_budget: 1.0,
        poll_period_s: 0.5,
        poll_offset_s: 0.0,
        freshness_s: 10.0,
        poll_retries: 0,
    };
    let solo = FleetRunner::new(2).sink(DigestSink::new()).run(&base)?;
    let world = FleetRunner::new(2)
        .sink(DigestSink::new())
        .run(&base.topologies(vec![one_device]))?;
    let mut world_sans_slo = world.clone();
    world_sans_slo.slo = solo.slo.clone();
    assert_eq!(world_sans_slo, solo, "solo parity broken");
    println!(
        "\nsolo parity verified: 1-device world reproduces the solo executor bit for bit \
         ({}/{} gateway polls served on top)",
        world.slo.served, world.slo.polls
    );
    Ok(())
}
