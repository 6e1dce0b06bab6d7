//! perf_grid: what do compiled plans save, and what do probes, fault
//! injection and checkpoint integrity cost, on one shared scenario grid?
//!
//! Times five arms against plain `run_plan` over one [`Grid`] with the
//! paired timer of [`ehdl_bench::perf`]:
//!
//! * **reference** — the pre-plan executor: every scenario re-lowers its
//!   strategy program and the op-by-op interpreter re-prices every op;
//! * **replay** — the fleet engine's sharing, single-threaded: plans
//!   compiled inside the timed region, and each deterministic (plan,
//!   environment) trajectory recorded once and replayed for every
//!   further seed and run;
//! * **traced** — an `EventRing` next to a `PhaseProfile`;
//! * **armed** — `FaultPlan::armed_empty`: every fault draw paid at
//!   all-zero thresholds;
//! * **integrity** — `FaultPlan::armed_empty_integrity`: flip draws,
//!   slot wear and the recovery ladder at flip rate zero;
//! * **aa** — plain `run_plan` again: the A/A noise floor the overhead
//!   bars are read against. It has no bar of its own.
//!
//! Every arm must reproduce the plain reports bit for bit (the armed
//! arms once their tallies are stripped), replay must beat reference,
//! and the median paired overhead of the traced, armed and integrity
//! arms must stay within 5% on the full grid (25% on the short
//! `--quick` grid). The traced arm's exports are re-parsed, and two
//! seeded storms must sweep bit-identically at 1 and 2 workers. Results
//! land in the `perf_grid` entry of `BENCH_fleet.json`.

use ehdl::ehsim::{
    catalog, EventRing, ExecPhase, ExecutionPlan, FaultPlan, FaultSpec, Integrity,
    IntermittentExecutor, Program, RunTrace, WearCurve,
};
use ehdl::prelude::*;
use ehdl_bench::perf::{paired, Grid, Spread, REPS};
use ehdl_bench::{quick_mode, record_bench_entry, section};
use ehdl_fleet::{
    DigestSink, FleetRunner, GroupAxis, GroupBySink, Json, MetricsSink, PhaseProfile,
    ScenarioMatrix, Workload,
};
use std::fmt::Debug;
use std::time::Instant;

fn main() {
    let quick = quick_mode();
    section("perf_grid: plans, probes, faults and integrity on one grid");
    let grid = Grid::standard(quick);
    let scenarios = grid.scenarios().len();
    println!(
        "{scenarios} scenarios x {} runs, {REPS} paired rounds ({} mode)\n",
        grid.runs(),
        if quick { "quick" } else { "full" }
    );
    let executor = IntermittentExecutor::new(grid.config().clone());

    let plain_pass = || grid.pass(|plan, _, board, supply| executor.run_plan(plan, board, supply));
    let (mut plain, mut aa) = (plain_pass, plain_pass);
    let mut reference = || {
        let mut lowered: Option<(usize, Program)> = None;
        grid.pass(|_, scenario, board, supply| {
            if lowered.as_ref().map(|(index, _)| *index) != Some(scenario.index) {
                let d = grid.deployment(scenario);
                let program = scenario.strategy.lower(d.quantized(), d.program());
                lowered = Some((scenario.index, program));
            }
            let (_, program) = lowered.as_ref().expect("lowered above");
            let opts = RunOptions::default();
            executor.run_reference(program, Integrity::None, board, supply, opts)
        })
    };
    let environments = grid.matrix().environment_axis().len();
    let mut replay = || {
        let mut plans: Vec<Option<ExecutionPlan>> = vec![None; grid.plan_count()];
        let mut traces: Vec<Option<RunTrace>> = vec![None; grid.plan_count() * environments];
        grid.pass(|_, scenario, board, supply| {
            let slot = grid.plan_slot(scenario);
            let plan = plans[slot].get_or_insert_with(|| {
                let deployment = grid.deployment(scenario);
                deployment.compile_plan_for(scenario.strategy, Integrity::None)
            });
            if scenario.environment.is_stochastic() {
                return executor.run_plan(plan, board, supply);
            }
            match &mut traces[slot * environments + scenario.environment_key()] {
                Some(trace) => executor
                    .try_replay_trace(plan, trace, board)
                    .expect("trace recorded from this plan"),
                empty => {
                    let opts = RunOptions::default();
                    let (report, trace) = executor.record_plan_with(plan, board, supply, opts);
                    *empty = Some(trace);
                    report
                }
            }
        })
    };
    // The traced arm keeps its last pass's probe for the export checks.
    let mut last_probe = None;
    let mut traced = || {
        let mut probe = (EventRing::new(1 << 16), PhaseProfile::new());
        let mut events: u64 = 0;
        let reports = grid.pass(|plan, _, board, supply| {
            // Keep only the final run's events (the exporters below),
            // counting what each run emitted.
            probe.0.clear();
            let dropped = probe.0.dropped();
            let started = Instant::now();
            let opts = RunOptions::default().probe(&mut probe);
            let report = executor.run_plan_with(plan, board, supply, opts);
            let (ring, profile) = &mut probe;
            profile.record(ExecPhase::PlanExec, started.elapsed().as_secs_f64());
            events += ring.len() as u64 + (ring.dropped() - dropped);
            report
        });
        last_probe = Some((probe, events));
        reports
    };
    let empty = FaultPlan::armed_empty(9);
    let inert = FaultPlan::armed_empty_integrity(9);
    let under = |fault: &FaultPlan| {
        grid.pass(|plan, _, board, supply| {
            let opts = RunOptions::default().fault(fault);
            executor.run_plan_with(plan, board, supply, opts)
        })
    };
    let measured = paired(
        &mut plain,
        &mut [
            ("reference", &mut reference),
            ("replay", &mut replay),
            ("traced", &mut traced),
            ("armed", &mut || under(&empty)),
            ("integrity", &mut || under(&inert)),
            ("aa", &mut aa),
        ],
    );
    measured.print("plain", scenarios);
    let [reference_t, replay_t, overhead_arms @ .., aa_t] = &measured.timings[..] else {
        unreachable!("six arms timed");
    };
    let speedup = reference_t.seconds.median / replay_t.seconds.median;
    println!("\nplans + replay vs op-by-op reference: {speedup:.2}x (single worker)");
    // The acceptance bar: ≤5% on the full grid, with headroom for
    // scheduler noise on the short quick grid CI uses.
    let limit = if quick { 25.0 } else { 5.0 };
    let pct = |r: Spread| {
        let p = |v: f64| (v - 1.0) * 100.0;
        format!(
            "{:+.1}% [{:+.1}% .. {:+.1}%]",
            p(r.median),
            p(r.q1),
            p(r.q3)
        )
    };
    println!("median overhead against the {limit:.0}% bar:");
    for t in overhead_arms {
        println!("  {:<10} {}", t.name, pct(t.ratio));
    }
    println!(
        "  {:<10} {}  (A/A noise floor, no bar)",
        "aa",
        pct(aa_t.ratio)
    );

    // Every arm must leave the simulation alone, the armed arms once
    // their tallies are stripped.
    let plain_reports = &measured.base;
    for (t, reports) in measured.timings.iter().zip(&measured.outputs) {
        assert_eq!(plain_reports.len(), reports.len(), "pass length drifted");
        let perturbed = format!("the {} arm perturbed the simulation", t.name);
        for (plain, report) in plain_reports.iter().zip(reports) {
            let mut stripped = report.clone();
            if matches!(t.name, "armed" | "integrity") {
                // A fault that never fires leaves an all-zero tally.
                assert!(report.faults.is_clean(), "an empty plan injected a fault");
                stripped.faults = plain.faults;
            }
            if t.name == "integrity" {
                // A flip draw that never lands leaves a ladder tally
                // accepting every restore at rung zero.
                let tally = &report.integrity;
                assert_eq!(tally.flips_injected, 0, "rate zero flipped a bit");
                assert_eq!(tally.silent_restores, 0);
                let resolved = tally.restores_resolved();
                let why = "the ladder must account for every restore";
                assert_eq!(resolved, report.restores, "{why}");
                stripped.integrity = plain.integrity;
            }
            assert_eq!(*plain, stripped, "{perturbed}");
        }
    }
    let runs = plain_reports.len();
    println!("reports: every arm bit-identical across {runs} runs");

    let ((ring, profile), events) = last_probe.expect("the traced arm ran");
    check_exports(&ring, &profile);
    println!("{profile}");

    // ---- the parallel headline: the full fleet engine ----
    let workers = std::thread::available_parallelism().map_or(8, usize::from);
    let started = Instant::now();
    let report = FleetRunner::new(workers)
        .run(grid.matrix())
        .expect("fleet sweep runs");
    let fleet_s = started.elapsed().as_secs_f64();
    let fleet_rate = report.len() as f64 / fleet_s;
    println!("fleet engine ({workers} workers, incl. deploy+accuracy): {fleet_s:.3} s  {fleet_rate:.1} scenarios/s\n");

    // ---- seeded storms, worker-count determinism ----
    let har = Workload::Har {
        samples: if quick { 4 } else { 8 },
    };
    let storm_matrix = |strategies: Vec<Strategy>| {
        ScenarioMatrix::new()
            .environments(catalog::all())
            .strategies(strategies)
            .workloads(vec![har])
            .executor(Grid::stall_config())
    };
    let fault_storm = FaultSpec {
        seed: 9,
        reset_per_op: 2e-4,
        sag_per_op: 1e-3,
        sag_factor: 1.5,
        tear_per_commit: 0.1,
        corrupt_per_restore: 0.25,
        ..FaultSpec::none()
    };
    let fault_matrix = storm_matrix(vec![Strategy::Sonic, Strategy::Flex])
        .faults(vec![FaultSpec::none(), fault_storm]);
    let faulted = at_one_and_two_workers(&fault_matrix, DigestSink::new);
    let r = &faulted.resilience;
    assert!(r.faulted_runs > 0, "the storm never fired");
    assert_eq!(r.silent_corruptions, 0, "silent corruption slipped through");
    println!(
        "fault storm: {} scenarios bit-identical at 1 and 2 workers, {}/{} faulted runs recovered",
        fault_matrix.len(),
        r.recovered_runs,
        r.faulted_runs
    );

    // Spurious resets force restores without brown-outs, every commit
    // draws a per-bit flip, and a finite endurance curve accelerates
    // the rate as slots age.
    let flip_storm = FaultSpec {
        seed: 11,
        reset_per_op: 0.01,
        flip_per_commit_bit: 2e-4,
        wear: WearCurve {
            endurance_commits: 20_000,
        },
        ..FaultSpec::none()
    };
    let flip_matrix = storm_matrix(vec![Strategy::Sonic])
        .faults(vec![flip_storm])
        .integrities(Integrity::ALL.to_vec());
    let (flipped, by_scheme) = at_one_and_two_workers(&flip_matrix, || {
        (DigestSink::new(), GroupBySink::new(GroupAxis::Integrity))
    });
    let group = |name: &str| by_scheme.get(name).expect("one group per scheme");
    let (none, checksum, secded) = (group("none"), group("checksum"), group("secded"));
    assert!(
        none.integrity.silent_restores > 0,
        "the storm never corrupted an unguarded restore"
    );
    assert!(
        checksum.integrity.flips_detected > 0,
        "checksum caught nothing"
    );
    assert_eq!(checksum.resilience.silent_corruptions, 0);
    assert!(
        secded.integrity.flips_repaired > 0,
        "secded repaired nothing"
    );
    assert_eq!(secded.resilience.silent_corruptions, 0);
    println!(
        "flip storm: {} scenarios bit-identical at 1 and 2 workers",
        flip_matrix.len()
    );
    for (name, group) in [("none", none), ("checksum", checksum), ("secded", secded)] {
        let i = &group.integrity;
        println!(
            "  {name:<9} {} flips, {} detected, {} repaired, {} silent restores",
            i.flips_injected, i.flips_detected, i.flips_repaired, i.silent_restores
        );
    }
    let f = &flipped.integrity;
    println!("  wear max: {} commits", f.wear_max_commits);

    let spans = |phase| profile.digest(phase).count().to_string();
    let head = [
        ("quick", quick.to_string()),
        ("scenarios", scenarios.to_string()),
        ("runs_per_scenario", grid.runs().to_string()),
        ("reps", REPS.to_string()),
    ];
    let tail = [
        ("replay_speedup", format!("{speedup:.3}")),
        ("events_collected", events.to_string()),
        ("charge_solve_spans", spans(ExecPhase::ChargeSolve)),
        (
            "checkpoint_restore_spans",
            spans(ExecPhase::CheckpointRestore),
        ),
        ("fleet_workers", workers.to_string()),
        ("fleet_seconds", format!("{fleet_s:.6}")),
        ("fleet_scenarios_per_sec", format!("{fleet_rate:.3}")),
        ("fault_storm_scenarios", fault_matrix.len().to_string()),
        ("fault_storm_faulted_runs", r.faulted_runs.to_string()),
        ("fault_storm_recovered_runs", r.recovered_runs.to_string()),
        ("fault_storm_spurious_resets", r.spurious_resets.to_string()),
        ("fault_storm_torn_commits", r.torn_commits.to_string()),
        (
            "fault_storm_corrupt_restores",
            r.corrupt_restores.to_string(),
        ),
        (
            "fault_storm_silent_corruptions",
            r.silent_corruptions.to_string(),
        ),
        ("flip_storm_scenarios", flip_matrix.len().to_string()),
        ("flip_storm_flips_injected", f.flips_injected.to_string()),
        ("flip_storm_flips_detected", f.flips_detected.to_string()),
        ("flip_storm_flips_repaired", f.flips_repaired.to_string()),
        ("flip_storm_silent_restores", f.silent_restores.to_string()),
        (
            "flip_storm_wear_max_commits",
            f.wear_max_commits.to_string(),
        ),
    ];
    let owned = |(k, v): (&str, String)| (k.to_string(), v);
    let fields: Vec<(String, String)> = head
        .map(owned)
        .into_iter()
        .chain(measured.fields("plain", scenarios))
        .chain(tail.map(owned))
        .collect();
    record_bench_entry("perf_grid", &fields);

    assert!(
        speedup >= 1.0,
        "execution plans regressed scenario throughput ({speedup:.2}x)"
    );
    for t in overhead_arms {
        let pct = (t.ratio.median - 1.0) * 100.0;
        assert!(
            pct <= limit,
            "{} overhead {pct:.2}% exceeds the {limit:.0}% bar",
            t.name
        );
    }
}

/// Sweeps `matrix` into a fresh sink at 1 and at 2 workers, asserts the
/// two reports are bit-identical, and returns the 1-worker report.
fn at_one_and_two_workers<S>(matrix: &ScenarioMatrix, sink: impl Fn() -> S) -> S::Report
where
    S: MetricsSink + Send,
    S::Report: PartialEq + Debug,
{
    let sweep = |workers| {
        let runner = FleetRunner::builder().workers(workers).sink(sink());
        runner.run(matrix).expect("storm sweep runs")
    };
    let (one, two) = (sweep(1), sweep(2));
    assert_eq!(one, two, "storm sweep drifted across worker counts");
    assert_eq!(format!("{one:?}"), format!("{two:?}"));
    one
}

/// Parses every export of the traced arm back with the in-repo JSON
/// reader, so the exporters stay machine-readable by contract.
fn check_exports(ring: &EventRing, profile: &PhaseProfile) {
    let number = |event: &Json, key: &str| {
        let value = event.req(key).expect("event field");
        value.as_f64().expect("plain decimal");
    };
    let jsonl = ring.to_jsonl();
    let mut last_type = String::new();
    for line in jsonl.lines() {
        let event = Json::parse(line).expect("JSONL event parses");
        let label = event.req("type").expect("event has a type");
        last_type = label.as_str().expect("type is a string").to_string();
        let keys: &[&str] = if last_type == "dark_skip" {
            &["t0", "t1", "joules"]
        } else {
            &["t"]
        };
        keys.iter().for_each(|key| number(&event, key));
    }
    let lines = jsonl.lines().count();
    assert_eq!(lines, ring.len(), "one JSONL line per retained event");
    assert_eq!(last_type, "run_end", "a run's stream ends with run_end");

    let chrome = Json::parse(&ring.to_chrome_trace()).expect("Chrome trace parses");
    let trace_events = chrome.req("traceEvents").expect("traceEvents key");
    let trace_events = trace_events.as_arr().expect("traceEvents is an array");
    assert_eq!(trace_events.len(), ring.len());
    for event in trace_events {
        let ph = event.req("ph").expect("phase tag");
        ph.as_str().expect("ph is a string");
        number(event, "ts");
    }

    let round_tripped = PhaseProfile::from_json(&profile.to_json()).expect("profile JSON parses");
    assert_eq!(&round_tripped, profile, "profile JSON round trip drifted");
    println!("exports: JSONL ({lines} events), Chrome trace and profile JSON all re-parse\n");
}
