//! Phase profiling for fleet sweeps: where the wall-clock time goes
//! (charge solving, plan execution, checkpoint/restore, trace replay,
//! sink folding, the set-up phases — deployment builds, plan compiles
//! and waits on a cache slot another worker is filling — and networked
//! worlds' gateway resolves) and how well the runner's caches work
//! (plan, trace, deployment hit/miss counters).
//!
//! A [`PhaseProfile`] is an [`ExecProbe`] with
//! [`TIMED`](ExecProbe::TIMED) `= true`: handed to a probed executor
//! run it collects charge-solve and checkpoint/restore spans from
//! inside the hot loop, while the fleet runner adds the spans only it
//! can see (whole plan executions, trace replays, sink folds, the
//! set-up phases and world resolves) plus the cache counters. Spans
//! aggregate into mergeable [`StatsDigest`]s, so per-worker and
//! per-shard profiles combine like the fleet's metric sinks: merging
//! chunks in stream order reassembles every span count, histogram bin,
//! min/max and cache counter exactly, and the merge is a pure function
//! — the same parts in the same order always reproduce the same bits
//! (float *sums* reassociate across chunk boundaries, so they agree
//! with an unchunked accumulation to rounding).
//!
//! Profiles are a **side channel**: wall-clock timings are
//! machine-dependent, so they never enter a [`FleetDigest`]
//! (crate::FleetDigest) or any other sink — those stay bit-identical
//! with profiling on or off. What *is* deterministic: every cache
//! counter and every span **count** but `slot_wait`'s, at any worker
//! count — each deployment and plan is built, and each trace recorded,
//! exactly once, by the first scenario that claims it. Of the set-up
//! spans, `deploy_build` and `plan_compile` count one build per key
//! when every build succeeds (a deployment built ahead of
//! need is still its key's one build), `world_resolve` counts one span
//! per networked scenario, and `slot_wait` spans exist only when
//! workers contend: on a deployment or plan another worker is building,
//! or on a trace another worker is recording.

use crate::digest::StatsDigest;
use crate::tally::tally;
use core::fmt;
use ehdl::ehsim::{ExecEvent, ExecPhase, ExecProbe};

tally! {
    /// Hit/miss counters for one runner cache.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheCounters {
        /// Lookups served by an existing entry.
        pub hits: u64 => sum,
        /// Lookups that had to build the entry.
        pub misses: u64 => sum,
    }
}

impl CacheCounters {
    /// Total lookups (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits.saturating_add(self.misses)
    }

    /// Fraction of lookups served from cache (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        match self.lookups() {
            0 => 0.0,
            n => self.hits as f64 / n as f64,
        }
    }

    /// Counts one lookup: a miss if it had to build the entry, a hit
    /// otherwise.
    pub(crate) fn lookup(&mut self, built: bool) {
        if built {
            self.misses += 1;
        } else {
            self.hits += 1;
        }
    }
}

tally! {
    /// The fleet runner's three caches.
    ///
    /// Lookup granularity differs per cache and is part of the contract:
    /// the **deployment** and **plan** caches are consulted once per
    /// scenario, and the **trace** cache once per run of a
    /// deterministic-environment scenario.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct CacheStats {
        /// Compiled [`ExecutionPlan`](ehdl::ehsim::ExecutionPlan)s, keyed
        /// by (workload, board, strategy, integrity scheme) and shared
        /// across seeds.
        pub plan: CacheCounters => merge,
        /// Recorded [`RunTrace`](ehdl::ehsim::RunTrace)s, keyed by
        /// (plan, environment, budget, fault schedule).
        pub trace: CacheCounters => merge,
        /// Built [`Deployment`](ehdl::Deployment)s, keyed by
        /// (workload, board, seed) and shared by every strategy and
        /// integrity scheme.
        pub deployment: CacheCounters => merge,
    }
}

/// Wall-clock phase spans (as [`StatsDigest`]s of seconds) plus cache
/// counters for one sweep, worker or shard. See the module docs for
/// the merge and determinism contract.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PhaseProfile {
    /// Dark-phase charge solves (from inside the executor).
    pub charge_solve_s: StatsDigest,
    /// Whole live plan (or reference-interpreter) executions.
    pub plan_exec_s: StatsDigest,
    /// On-demand checkpoints and post-outage restores (from inside the
    /// executor).
    pub checkpoint_restore_s: StatsDigest,
    /// Recorded-trace replays.
    pub trace_replay_s: StatsDigest,
    /// Per-record metric-sink folds and in-order merges.
    pub sink_fold_s: StatsDigest,
    /// Calibrated-deployment builds, including builds ahead of need.
    pub deploy_build_s: StatsDigest,
    /// Execution-plan compiles.
    pub plan_compile_s: StatsDigest,
    /// Waits on a cache slot another worker was building.
    pub slot_wait_s: StatsDigest,
    /// Networked-world gateway resolves.
    pub world_resolve_s: StatsDigest,
    /// Plan / trace / deployment cache counters.
    pub caches: CacheStats,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one wall-clock span into the phase's digest.
    pub fn record(&mut self, phase: ExecPhase, seconds: f64) {
        self.digest_mut(phase).record(seconds);
    }

    /// The span digest for one phase.
    pub fn digest(&self, phase: ExecPhase) -> &StatsDigest {
        match phase {
            ExecPhase::ChargeSolve => &self.charge_solve_s,
            ExecPhase::PlanExec => &self.plan_exec_s,
            ExecPhase::CheckpointRestore => &self.checkpoint_restore_s,
            ExecPhase::TraceReplay => &self.trace_replay_s,
            ExecPhase::SinkFold => &self.sink_fold_s,
            ExecPhase::DeployBuild => &self.deploy_build_s,
            ExecPhase::PlanCompile => &self.plan_compile_s,
            ExecPhase::SlotWait => &self.slot_wait_s,
            ExecPhase::WorldResolve => &self.world_resolve_s,
        }
    }

    pub(crate) fn digest_mut(&mut self, phase: ExecPhase) -> &mut StatsDigest {
        match phase {
            ExecPhase::ChargeSolve => &mut self.charge_solve_s,
            ExecPhase::PlanExec => &mut self.plan_exec_s,
            ExecPhase::CheckpointRestore => &mut self.checkpoint_restore_s,
            ExecPhase::TraceReplay => &mut self.trace_replay_s,
            ExecPhase::SinkFold => &mut self.sink_fold_s,
            ExecPhase::DeployBuild => &mut self.deploy_build_s,
            ExecPhase::PlanCompile => &mut self.plan_compile_s,
            ExecPhase::SlotWait => &mut self.slot_wait_s,
            ExecPhase::WorldResolve => &mut self.world_resolve_s,
        }
    }

    /// Every phase's name and digest, in [`ExecPhase::ALL`] order.
    pub(crate) fn named_digests(&self) -> impl Iterator<Item = (&'static str, &StatsDigest)> {
        ExecPhase::ALL
            .map(|phase| (phase.name(), self.digest(phase)))
            .into_iter()
    }

    /// Merges `other` into `self`, phase by phase in [`ExecPhase::ALL`]
    /// order, then caches. A pure function: merging the same parts in
    /// the same order always reproduces the same bits, and every span
    /// count, histogram bin, min/max and cache counter reassembles
    /// exactly (sums reassociate; see [`StatsDigest::merge`]).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for phase in ExecPhase::ALL {
            let theirs = other.digest(phase).clone();
            self.digest_mut(phase).merge(&theirs);
        }
        self.caches.merge(&other.caches);
    }

    /// Total profiled wall-clock seconds across every phase.
    pub fn total_seconds(&self) -> f64 {
        self.named_digests().map(|(_, d)| d.sum()).sum()
    }

    /// Serializes the profile as one canonical JSON object (floats as
    /// bit-exact hex, like every fleet wire format).
    pub fn to_json(&self) -> String {
        crate::wire::profile_json(self)
    }

    /// Rebuilds a profile from [`to_json`](Self::to_json)'s output —
    /// bit-identical, digests included.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<PhaseProfile, String> {
        crate::wire::profile_from_json(text)
    }
}

impl ExecProbe for PhaseProfile {
    // Events are ignored, so let the executor skip computing their
    // payloads; spans are what a profile consumes.
    const ENABLED: bool = false;
    const TIMED: bool = true;

    #[inline(always)]
    fn event(&mut self, _event: ExecEvent) {}

    #[inline]
    fn span(&mut self, phase: ExecPhase, seconds: f64) {
        self.record(phase, seconds);
    }
}

impl fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.total_seconds();
        writeln!(f, "phase profile ({total:.3} s profiled):")?;
        for (name, d) in self.named_digests() {
            let share = if total > 0.0 {
                d.sum() / total * 100.0
            } else {
                0.0
            };
            writeln!(
                f,
                "  {:<18} {:>10.4} s ({:5.1}%) over {} spans",
                name,
                d.sum(),
                share,
                d.count()
            )?;
        }
        for (name, c) in [
            ("plan", &self.caches.plan),
            ("trace", &self.caches.trace),
            ("deployment", &self.caches.deployment),
        ] {
            writeln!(
                f,
                "  {:<18} cache: {} hits / {} misses ({:.1}% hit)",
                name,
                c.hits,
                c.misses,
                c.hit_rate() * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_the_right_phase() {
        let mut p = PhaseProfile::new();
        p.span(ExecPhase::ChargeSolve, 0.5);
        p.span(ExecPhase::ChargeSolve, 0.25);
        p.record(ExecPhase::SinkFold, 1.0);
        p.record(ExecPhase::DeployBuild, 0.125);
        p.record(ExecPhase::WorldResolve, 0.5);
        assert_eq!(p.deploy_build_s.count(), 1);
        assert_eq!(p.plan_compile_s.count(), 0);
        assert_eq!(p.world_resolve_s.count(), 1);
        assert_eq!(p.total_seconds(), 2.375);
        // Merging into an empty profile carries every phase over.
        let mut merged = PhaseProfile::new();
        merged.merge(&p);
        merged.merge(&p);
        assert_eq!(merged.world_resolve_s.count(), 2);
        assert_eq!(merged.total_seconds(), 4.75);
        p.deploy_build_s = StatsDigest::new();
        p.world_resolve_s = StatsDigest::new();
        assert_eq!(p.charge_solve_s.count(), 2);
        assert_eq!(p.charge_solve_s.sum(), 0.75);
        assert_eq!(p.sink_fold_s.count(), 1);
        assert_eq!(p.plan_exec_s.count(), 0);
        assert_eq!(p.total_seconds(), 1.75);
    }

    #[test]
    fn chunked_merge_in_stream_order_survives_sharding() {
        // The shard-merge contract: per-chunk profiles of a span
        // stream, merged in stream order, reassemble every piece of
        // integer state (span counts, histogram bins, cache counters)
        // and min/max exactly; float sums reassociate, so they agree to
        // rounding. And the merge itself is a pure function — repeating
        // it over the same parts (even round-tripped through the wire)
        // is bit-identical, which is what a resumed shard merge relies
        // on.
        let spans: Vec<(ExecPhase, f64)> = (0..500)
            .map(|i| {
                let phase = ExecPhase::ALL[i % ExecPhase::ALL.len()];
                (phase, 1e-4 * (i as f64 + 0.3) * (1.0 + (i % 7) as f64))
            })
            .collect();
        let mut whole = PhaseProfile::new();
        for &(phase, s) in &spans {
            whole.record(phase, s);
        }
        for chunk_size in [1usize, 7, 100, 500] {
            let parts: Vec<PhaseProfile> = spans
                .chunks(chunk_size)
                .map(|chunk| {
                    let mut part = PhaseProfile::new();
                    for &(phase, s) in chunk {
                        part.record(phase, s);
                    }
                    part
                })
                .collect();
            let mut merged = PhaseProfile::new();
            for part in &parts {
                merged.merge(part);
            }
            for phase in ExecPhase::ALL {
                let (m, w) = (merged.digest(phase), whole.digest(phase));
                assert_eq!(m.count(), w.count(), "chunk size {chunk_size}");
                assert_eq!(m.min(), w.min(), "chunk size {chunk_size}");
                assert_eq!(m.max(), w.max(), "chunk size {chunk_size}");
                assert!(
                    (m.sum() - w.sum()).abs() <= 1e-12 * w.sum(),
                    "chunk size {chunk_size}: {} vs {}",
                    m.sum(),
                    w.sum()
                );
            }
            // Single-span chunks preserve the exact left-to-right
            // addition order, so they are bit-identical outright.
            if chunk_size == 1 {
                assert_eq!(merged, whole);
            }
            // Re-merging the same parts — straight or through the wire
            // format — reproduces the merge bit for bit.
            let mut again = PhaseProfile::new();
            for part in &parts {
                let wired = PhaseProfile::from_json(&part.to_json()).unwrap();
                again.merge(&wired);
            }
            assert_eq!(again, merged, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn cache_counters_summarize() {
        let c = CacheCounters { hits: 3, misses: 1 };
        assert_eq!(c.lookups(), 4);
        assert_eq!(c.hit_rate(), 0.75);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
        let mut a = c;
        a.merge(&c);
        assert_eq!(a.lookups(), 8);
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let mut p = PhaseProfile::new();
        for i in 0..50 {
            p.record(ExecPhase::ALL[i % 5], 1e-5 * (i as f64 + 0.123_456_789));
        }
        for i in 0..16 {
            p.record(ExecPhase::ALL[5 + i % 4], 1e-3 * (i as f64 + 0.5));
        }
        p.caches.plan = CacheCounters {
            hits: 10,
            misses: 2,
        };
        p.caches.deployment = CacheCounters {
            hits: 90,
            misses: 6,
        };
        let json = p.to_json();
        let back = PhaseProfile::from_json(&json).unwrap();
        assert_eq!(back, p);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(back.to_json(), json);
        assert!(PhaseProfile::from_json("{\"phases\":{}}").is_err());
        // The empty profile round-trips too.
        let empty = PhaseProfile::new();
        assert_eq!(PhaseProfile::from_json(&empty.to_json()).unwrap(), empty);
        // Every phase is on the wire: dropping one is an error.
        for phase in ExecPhase::ALL {
            assert!(p.digest(phase).count() > 0, "{}", phase.name());
            let key = format!("\"{}\":", phase.name());
            assert!(json.contains(&key), "{json}");
            let renamed = json.replace(&key, "\"unknown_phase\":");
            assert!(
                PhaseProfile::from_json(&renamed).is_err(),
                "{}",
                phase.name()
            );
        }
    }

    #[test]
    fn to_json_bytes_are_pinned() {
        // One span in each of the nine phases, set through the public
        // fields, and nonzero counters in all three caches: a change to
        // the phase order, a phase name or the digest and counter codecs
        // moves these bytes.
        let mut p = PhaseProfile::new();
        for (i, digest) in [
            &mut p.charge_solve_s,
            &mut p.plan_exec_s,
            &mut p.checkpoint_restore_s,
            &mut p.trace_replay_s,
            &mut p.sink_fold_s,
            &mut p.deploy_build_s,
            &mut p.plan_compile_s,
            &mut p.slot_wait_s,
            &mut p.world_resolve_s,
        ]
        .into_iter()
        .enumerate()
        {
            digest.record(0.125 * (i as f64 + 1.0));
        }
        p.record(ExecPhase::PlanExec, 3.5);
        p.caches.plan = CacheCounters {
            hits: 10,
            misses: 2,
        };
        p.caches.trace = CacheCounters {
            hits: 40,
            misses: 4,
        };
        p.caches.deployment = CacheCounters {
            hits: 90,
            misses: 6,
        };
        let golden = concat!(
            r#"{"phases":{"#,
            r#""charge_solve":{"count":1,"sum":"3fc0000000000000","min":"3fc0000000000000","max":"3fc0000000000000","bins":[[466,1]]},"#,
            r#""plan_exec":{"count":2,"sum":"400e000000000000","min":"3fd0000000000000","max":"400c000000000000","bins":[[483,1],[549,1]]},"#,
            r#""checkpoint_restore":{"count":1,"sum":"3fd8000000000000","min":"3fd8000000000000","max":"3fd8000000000000","bins":[[493,1]]},"#,
            r#""trace_replay":{"count":1,"sum":"3fe0000000000000","min":"3fe0000000000000","max":"3fe0000000000000","bins":[[500,1]]},"#,
            r#""sink_fold":{"count":1,"sum":"3fe4000000000000","min":"3fe4000000000000","max":"3fe4000000000000","bins":[[506,1]]},"#,
            r#""deploy_build":{"count":1,"sum":"3fe8000000000000","min":"3fe8000000000000","max":"3fe8000000000000","bins":[[510,1]]},"#,
            r#""plan_compile":{"count":1,"sum":"3fec000000000000","min":"3fec000000000000","max":"3fec000000000000","bins":[[514,1]]},"#,
            r#""slot_wait":{"count":1,"sum":"3ff0000000000000","min":"3ff0000000000000","max":"3ff0000000000000","bins":[[518,1]]},"#,
            r#""world_resolve":{"count":1,"sum":"3ff2000000000000","min":"3ff2000000000000","max":"3ff2000000000000","bins":[[521,1]]}},"#,
            r#""caches":{"plan":{"hits":10,"misses":2},"#,
            r#""trace":{"hits":40,"misses":4},"#,
            r#""deployment":{"hits":90,"misses":6}}}"#,
        );
        assert_eq!(p.to_json(), golden);
        assert_eq!(PhaseProfile::from_json(golden).unwrap(), p);
    }

    #[test]
    fn display_lists_every_phase_and_cache() {
        let mut p = PhaseProfile::new();
        p.record(ExecPhase::PlanExec, 2.0);
        p.record(ExecPhase::SlotWait, 2.0);
        let s = p.to_string();
        for phase in ExecPhase::ALL {
            assert!(s.contains(phase.name()), "{s}");
        }
        assert!(s.contains("slot_wait") && s.contains("50.0%"), "{s}");
        assert_eq!(p.total_seconds(), 4.0);
        assert!(s.contains("deployment"), "{s}");
    }
}
