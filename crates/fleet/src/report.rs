//! Deterministic fleet reports and percentile aggregation.

use crate::metrics::ResilienceTally;
use core::fmt;
use ehdl::ehsim::IntegrityTally;
use ehdl::Strategy;

/// Nearest-rank percentile of an **ascending-sorted** slice.
///
/// `p` is in `[0, 100]`. Returns `None` on an empty slice — an empty
/// sample set has no percentiles, and the old silent `0.0` let "no runs
/// completed" masquerade as "zero latency". The nearest-rank definition
/// picks an actual sample (never interpolates), so the result is
/// bit-stable regardless of how the samples were produced.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Everything measured for one scenario: the accuracy of its deployment
/// and the folded counters of its intermittent runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioReport {
    /// The scenario's stable name (`workload/env/strategy/board#seed`).
    pub name: String,
    /// Workload name.
    pub workload: &'static str,
    /// Environment name.
    pub environment: String,
    /// Strategy run.
    pub strategy: Strategy,
    /// Board spec name.
    pub board: &'static str,
    /// Scenario seed.
    pub seed: u64,
    /// Quantized-model accuracy over the scenario's dataset slice.
    pub accuracy: f64,
    /// Intermittent runs attempted.
    pub runs: u32,
    /// Runs whose inference finished.
    pub completed_runs: u32,
    /// Runs aborted by the per-run energy budget
    /// (`ExecutorConfig::energy_budget_nj`).
    pub energy_limited_runs: u32,
    /// Power failures (reboots) across all runs.
    pub outages: u64,
    /// Restores performed after outages.
    pub restores: u64,
    /// On-demand checkpoints taken.
    pub ondemand_checkpoints: u64,
    /// Ops executed, including re-execution after rollbacks.
    pub executed_ops: u64,
    /// Ops whose work was lost to rollbacks.
    pub wasted_ops: u64,
    /// Total energy drawn from the capacitor, in nanojoules.
    pub energy_nj: f64,
    /// Seconds spent computing across all runs.
    pub active_seconds: f64,
    /// Seconds spent dark, charging, across all runs.
    pub charging_seconds: f64,
    /// End-to-end wall-clock latency of each **completed** run, in
    /// milliseconds, ascending.
    pub latencies_ms: Vec<f64>,
    /// Fault-injection resilience counters folded from this scenario's
    /// runs. All-zero on fault-free sweeps.
    pub resilience: ResilienceTally,
    /// Checkpoint-payload integrity counters folded from this
    /// scenario's runs. All-zero unless bit-flips were armed or a
    /// non-`None` integrity scheme ran.
    pub integrity: IntegrityTally,
}

impl ScenarioReport {
    /// Fraction of runs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            f64::from(self.completed_runs) / f64::from(self.runs)
        }
    }

    /// Forward progress: the fraction of executed ops that were not
    /// rolled back (1.0 when nothing executed — an empty program makes
    /// trivial progress).
    pub fn forward_progress(&self) -> f64 {
        if self.executed_ops == 0 {
            1.0
        } else {
            (self.executed_ops - self.wasted_ops) as f64 / self.executed_ops as f64
        }
    }

    /// Median completed-run latency in milliseconds (`None` when no run
    /// completed).
    pub fn p50_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 50.0)
    }

    /// 90th-percentile completed-run latency in milliseconds (`None`
    /// when no run completed).
    pub fn p90_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 90.0)
    }

    /// 99th-percentile completed-run latency in milliseconds (`None`
    /// when no run completed).
    pub fn p99_ms(&self) -> Option<f64> {
        percentile(&self.latencies_ms, 99.0)
    }
}

/// The deterministic fold of a whole matrix: one [`ScenarioReport`] per
/// scenario, in matrix order.
///
/// Two runs of the same matrix produce equal (`==`) reports regardless
/// of worker count or thread interleaving: every per-scenario fold
/// happens inside a single worker in run order, and the fleet-level fold
/// walks scenarios in matrix order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-scenario reports, in matrix order.
    pub scenarios: Vec<ScenarioReport>,
}

impl FleetReport {
    /// Number of scenarios.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// `true` if the report covers no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Total intermittent runs attempted.
    pub fn total_runs(&self) -> u64 {
        self.scenarios.iter().map(|s| u64::from(s.runs)).sum()
    }

    /// Total runs that completed.
    pub fn completed_runs(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| u64::from(s.completed_runs))
            .sum()
    }

    /// Total power failures across the fleet.
    pub fn total_outages(&self) -> u64 {
        self.scenarios.iter().map(|s| s.outages).sum()
    }

    /// Total energy drawn across the fleet, in millijoules.
    pub fn total_energy_mj(&self) -> f64 {
        self.scenarios.iter().map(|s| s.energy_nj).sum::<f64>() * 1e-6
    }

    /// Mean scenario accuracy (unweighted; 0.0 on an empty report).
    pub fn mean_accuracy(&self) -> f64 {
        if self.scenarios.is_empty() {
            0.0
        } else {
            self.scenarios.iter().map(|s| s.accuracy).sum::<f64>() / self.scenarios.len() as f64
        }
    }

    /// All completed-run latencies across the fleet, ascending.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self
            .scenarios
            .iter()
            .flat_map(|s| s.latencies_ms.iter().copied())
            .collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Fleet-wide latency percentile in milliseconds over completed
    /// runs (`None` when nothing completed).
    pub fn latency_percentile_ms(&self, p: f64) -> Option<f64> {
        percentile(&self.latencies_ms(), p)
    }

    /// One summed [`ResilienceTally`] per strategy, in first-appearance
    /// (matrix) order — which checkpointing discipline actually
    /// survives injected faults, straight off the default report.
    pub fn resilience_by_strategy(&self) -> Vec<(Strategy, ResilienceTally)> {
        let mut groups: Vec<(Strategy, ResilienceTally)> = Vec::new();
        for s in &self.scenarios {
            match groups.iter_mut().find(|(st, _)| *st == s.strategy) {
                Some((_, tally)) => tally.merge(&s.resilience),
                None => groups.push((s.strategy, s.resilience)),
            }
        }
        groups
    }

    /// Approximate bytes this dense report retains: per-scenario
    /// structs, their owned strings and every per-run latency sample —
    /// the linear growth the digest sinks exist to avoid.
    pub fn memory_bytes(&self) -> usize {
        let per_scenario: usize = self
            .scenarios
            .iter()
            .map(|s| {
                core::mem::size_of::<ScenarioReport>()
                    + s.name.capacity()
                    + s.environment.capacity()
                    + s.latencies_ms.capacity() * core::mem::size_of::<f64>()
            })
            .sum();
        core::mem::size_of::<Self>() + per_scenario
    }
}

impl fmt::Display for FleetReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== fleet: {} scenarios, {}/{} runs completed, {} outages, {:.3} mJ ==",
            self.len(),
            self.completed_runs(),
            self.total_runs(),
            self.total_outages(),
            self.total_energy_mj()
        )?;
        writeln!(
            f,
            "{:<44} {:>6} {:>5} {:>7} {:>8} {:>9} {:>9} {:>9}",
            "scenario", "acc", "done", "reboots", "progress", "p50 ms", "p90 ms", "p99 ms"
        )?;
        for s in &self.scenarios {
            writeln!(
                f,
                "{:<44} {:>5.1}% {:>2}/{:<2} {:>7} {:>7.1}% {:>9.2} {:>9.2} {:>9.2}",
                s.name,
                s.accuracy * 100.0,
                s.completed_runs,
                s.runs,
                s.outages,
                s.forward_progress() * 100.0,
                s.p50_ms().unwrap_or(0.0),
                s.p90_ms().unwrap_or(0.0),
                s.p99_ms().unwrap_or(0.0)
            )?;
        }
        let lat = self.latencies_ms();
        writeln!(
            f,
            "fleet latency: p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms over {} completed runs",
            percentile(&lat, 50.0).unwrap_or(0.0),
            percentile(&lat, 90.0).unwrap_or(0.0),
            percentile(&lat, 99.0).unwrap_or(0.0),
            lat.len()
        )?;
        let groups = self.resilience_by_strategy();
        if groups.iter().any(|(_, t)| t.faulted_runs > 0) {
            writeln!(
                f,
                "{:<12} {:>9} {:>9} {:>8} {:>7} {:>6} {:>8} {:>7}",
                "resilience",
                "recovered",
                "faulted",
                "resets",
                "tears",
                "sags",
                "corrupt",
                "silent"
            )?;
            for (strategy, t) in &groups {
                writeln!(
                    f,
                    "{:<12} {:>4}/{:<4} {:>8.1}% {:>8} {:>7} {:>6} {:>8} {:>7}",
                    strategy.name(),
                    t.recovered_runs,
                    t.faulted_runs,
                    t.recovery_rate() * 100.0,
                    t.spurious_resets,
                    t.torn_commits,
                    t.sag_ops,
                    t.corrupt_restores,
                    t.silent_corruptions
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook nearest-rank definition, written independently of
    /// the production code path.
    fn reference_percentile(samples: &[f64], p: f64) -> Option<f64> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return None;
        }
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(sorted[rank.max(1).min(n) - 1])
    }

    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn percentile_matches_sorted_reference_implementation() {
        // Deterministic pseudo-random sample sets of many sizes.
        for n in [1usize, 2, 3, 7, 10, 99, 100, 101, 1000] {
            let samples: Vec<f64> = (0..n)
                .map(|i| splitmix(i as u64 ^ (n as u64) << 32) as f64 / 1e12)
                .collect();
            let mut sorted = samples.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 100.0] {
                assert_eq!(
                    percentile(&sorted, p),
                    reference_percentile(&samples, p),
                    "n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn percentile_small_cases_by_hand() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[5.0], 50.0), Some(5.0));
        assert_eq!(percentile(&[5.0], 99.0), Some(5.0));
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), Some(2.0)); // rank ceil(0.5*4)=2
        assert_eq!(percentile(&s, 75.0), Some(3.0));
        assert_eq!(percentile(&s, 76.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0)); // clamped to rank 1
        assert_eq!(percentile(&s, 100.0), Some(4.0));
    }

    fn tiny_report(latencies_ms: Vec<f64>) -> ScenarioReport {
        ScenarioReport {
            name: "har/bench_supply/ACE+FLEX/MSP430FR5994#0".into(),
            workload: "har",
            environment: "bench_supply".into(),
            strategy: Strategy::Flex,
            board: "MSP430FR5994",
            seed: 0,
            accuracy: 0.5,
            runs: latencies_ms.len() as u32 + 1,
            completed_runs: latencies_ms.len() as u32,
            outages: 3,
            restores: 3,
            ondemand_checkpoints: 2,
            executed_ops: 100,
            wasted_ops: 25,
            energy_nj: 1e6,
            active_seconds: 0.1,
            charging_seconds: 0.2,
            latencies_ms,
            ..ScenarioReport::default()
        }
    }

    #[test]
    fn scenario_derived_metrics() {
        let r = tiny_report(vec![1.0, 2.0, 3.0]);
        assert!((r.forward_progress() - 0.75).abs() < 1e-12);
        assert!((r.completion_rate() - 0.75).abs() < 1e-12);
        assert_eq!(r.p50_ms(), Some(2.0));
        assert_eq!(r.p99_ms(), Some(3.0));
        let empty = ScenarioReport {
            executed_ops: 0,
            wasted_ops: 0,
            runs: 0,
            completed_runs: 0,
            ..tiny_report(vec![])
        };
        assert_eq!(empty.forward_progress(), 1.0);
        assert_eq!(empty.completion_rate(), 0.0);
        assert_eq!(empty.p50_ms(), None, "no completed runs, no percentile");
    }

    #[test]
    fn fleet_aggregates_fold_across_scenarios() {
        let report = FleetReport {
            scenarios: vec![tiny_report(vec![4.0, 6.0]), tiny_report(vec![1.0, 9.0])],
        };
        assert_eq!(report.len(), 2);
        assert_eq!(report.total_runs(), 6);
        assert_eq!(report.completed_runs(), 4);
        assert_eq!(report.total_outages(), 6);
        // 2 × 1e6 nJ = 2 mJ.
        assert!((report.total_energy_mj() - 2.0).abs() < 1e-12);
        assert_eq!(report.latencies_ms(), vec![1.0, 4.0, 6.0, 9.0]);
        assert_eq!(report.latency_percentile_ms(50.0), Some(4.0));
        assert!((report.mean_accuracy() - 0.5).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("fleet latency"));
        assert!(text.contains("ACE+FLEX"));
    }

    #[test]
    fn resilience_footer_appears_only_on_faulted_fleets() {
        // A fault-free fleet renders no resilience table.
        let clean = FleetReport {
            scenarios: vec![tiny_report(vec![1.0])],
        };
        assert!(!clean.to_string().contains("resilience"));

        // Two strategies, one faulted each: per-strategy rows in
        // first-appearance order.
        let mut a = tiny_report(vec![1.0]);
        a.resilience.faulted_runs = 4;
        a.resilience.recovered_runs = 3;
        a.resilience.spurious_resets = 9;
        let mut b = tiny_report(vec![2.0]);
        b.strategy = Strategy::Bare;
        b.resilience.faulted_runs = 2;
        b.resilience.recovered_runs = 2;
        let mut a2 = tiny_report(vec![3.0]);
        a2.resilience.faulted_runs = 1;
        a2.resilience.recovered_runs = 0;
        let report = FleetReport {
            scenarios: vec![a, b, a2],
        };
        let groups = report.resilience_by_strategy();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, Strategy::Flex);
        assert_eq!(groups[0].1.faulted_runs, 5);
        assert_eq!(groups[0].1.recovered_runs, 3);
        assert_eq!(groups[0].1.spurious_resets, 9);
        assert_eq!(groups[1].0, Strategy::Bare);
        assert!((groups[1].1.recovery_rate() - 1.0).abs() < 1e-12);
        let text = report.to_string();
        assert!(text.contains("resilience"), "{text}");
        assert!(text.contains("3/5"), "{text}");
        assert!(text.contains("2/2"), "{text}");
    }
}
