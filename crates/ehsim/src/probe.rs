//! Zero-cost executor observability: structured run events and phase
//! span timers behind a monomorphized probe parameter.
//!
//! Both executor paths
//! ([`run_plan_with`](crate::IntermittentExecutor::run_plan_with) and
//! [`run_reference`](crate::IntermittentExecutor::run_reference)) are
//! generic over an [`ExecProbe`], carried in
//! [`RunOptions`](crate::RunOptions). The default [`NullProbe`] is a
//! zero-sized type whose hooks are empty `#[inline(always)]` bodies, so
//! the unprobed hot loop monomorphizes to exactly the code it was before
//! probes existed — observability costs nothing until a probe is passed.
//!
//! A probe only *observes*: it receives sim-time-stamped [`ExecEvent`]s
//! and (when [`ExecProbe::TIMED`]) wall-clock [`ExecPhase`] spans, and it
//! never steers the simulation. Runs are bit-identical with any probe
//! attached.
//!
//! [`EventRing`] is the bundled collector: a bounded ring buffer of
//! events with exporters to JSONL ([`EventRing::to_jsonl`]) and the
//! Chrome trace-event format ([`EventRing::to_chrome_trace`], loadable
//! in Perfetto or `chrome://tracing` as a per-run timeline).

use crate::executor::RunOutcome;
use crate::fault::FaultKind;
use core::fmt::Write as _;
use std::collections::VecDeque;
use std::time::Instant;

/// One structured, sim-time-stamped event from inside an intermittent
/// run. Times are simulated seconds since the run started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecEvent {
    /// The device rebooted and restored the committed state — execution
    /// resumes at the last commit point.
    Boot {
        /// Sim time of the boot, after the restore completed.
        t: f64,
    },
    /// The capacitor collapsed below the off threshold mid-op; progress
    /// past the last commit is lost.
    BrownOut {
        /// Sim time of the collapse.
        t: f64,
    },
    /// An on-demand (voltage-triggered) checkpoint committed durably.
    CheckpointCommit {
        /// Sim time after the checkpoint finished.
        t: f64,
        /// The plan's deduplicated checkpoint slot (plan path) or the
        /// program op index ahead of which it fired (reference path).
        slot: u32,
    },
    /// A coalesced run of plan ops retired without a power failure
    /// (plan path only; the reference interpreter has no segments).
    SegmentRetired {
        /// Sim time after the last op of the segment.
        t: f64,
        /// First plan op index of the segment.
        start: u32,
        /// One past the last retired op index.
        end: u32,
    },
    /// A dark recharge phase was fast-forwarded (or stepped) through.
    DarkSkip {
        /// Sim time the device went dark.
        t0: f64,
        /// Sim time the capacitor reached its boot threshold (or the
        /// wall-clock limit, if the run timed out dark).
        t1: f64,
        /// The capacitor deficit solved for, in joules.
        joules: f64,
    },
    /// The per-run energy budget was exhausted.
    EnergyLimit {
        /// Sim time when the budget check tripped.
        t: f64,
    },
    /// A seeded fault from the run's [`FaultPlan`](crate::FaultPlan)
    /// fired.
    FaultInjected {
        /// Sim time when the fault fired.
        t: f64,
        /// What kind of fault was injected.
        kind: FaultKind,
    },
    /// A restore read a corrupt checkpoint slot and the strategy
    /// detected it, falling back to older committed state.
    CorruptionDetected {
        /// Sim time of the detection (after the restore completed).
        t: f64,
    },
    /// A checkpoint commit wrote a payload with flipped bits into FRAM
    /// (the damage is latent until a restore reads the slot).
    BitFlipInjected {
        /// Sim time of the commit that carried the flips.
        t: f64,
        /// Flipped bit count, saturating at 2 ("two or more").
        flips: u32,
    },
    /// A restore's SECDED check repaired a single-bit payload flip in
    /// place (recovery-ladder rung 1).
    PayloadRepaired {
        /// Sim time of the repair (after the restore completed).
        t: f64,
    },
    /// A restore's payload verification rejected a slot (checksum
    /// mismatch or SECDED double-error) — the ladder falls back.
    PayloadRejected {
        /// Sim time of the rejection (after the restore completed).
        t: f64,
    },
    /// A restore accepted a flipped payload without noticing (scheme
    /// `None`): execution continues from plausible-but-wrong state.
    SilentRestore {
        /// Sim time of the silent restore.
        t: f64,
    },
    /// The run ended — always the final event of a run.
    RunEnd {
        /// Total simulated wall-clock seconds.
        t: f64,
        /// Why the run ended.
        outcome: RunOutcome,
    },
}

impl ExecEvent {
    /// A stable snake_case type tag for machine-readable streams.
    pub fn label(&self) -> &'static str {
        match self {
            ExecEvent::Boot { .. } => "boot",
            ExecEvent::BrownOut { .. } => "brown_out",
            ExecEvent::CheckpointCommit { .. } => "checkpoint_commit",
            ExecEvent::SegmentRetired { .. } => "segment_retired",
            ExecEvent::DarkSkip { .. } => "dark_skip",
            ExecEvent::EnergyLimit { .. } => "energy_limit",
            ExecEvent::FaultInjected { .. } => "fault_injected",
            ExecEvent::CorruptionDetected { .. } => "corruption_detected",
            ExecEvent::BitFlipInjected { .. } => "bit_flip_injected",
            ExecEvent::PayloadRepaired { .. } => "payload_repaired",
            ExecEvent::PayloadRejected { .. } => "payload_rejected",
            ExecEvent::SilentRestore { .. } => "silent_restore",
            ExecEvent::RunEnd { .. } => "run_end",
        }
    }

    /// The event's sim timestamp in seconds (the *end* of the span for
    /// [`ExecEvent::DarkSkip`]).
    pub fn t(&self) -> f64 {
        match *self {
            ExecEvent::Boot { t }
            | ExecEvent::BrownOut { t }
            | ExecEvent::CheckpointCommit { t, .. }
            | ExecEvent::SegmentRetired { t, .. }
            | ExecEvent::EnergyLimit { t }
            | ExecEvent::FaultInjected { t, .. }
            | ExecEvent::CorruptionDetected { t }
            | ExecEvent::BitFlipInjected { t, .. }
            | ExecEvent::PayloadRepaired { t }
            | ExecEvent::PayloadRejected { t }
            | ExecEvent::SilentRestore { t }
            | ExecEvent::RunEnd { t, .. } => t,
            ExecEvent::DarkSkip { t1, .. } => t1,
        }
    }
}

/// A wall-clock-timed phase of the pipeline. The executor reports
/// [`ChargeSolve`](ExecPhase::ChargeSolve) and
/// [`CheckpointRestore`](ExecPhase::CheckpointRestore) spans itself
/// (when the probe is [`TIMED`](ExecProbe::TIMED)); the remaining
/// phases are reported by the layers that own them (the fleet runner
/// times whole plan executions, trace replays, sink folds, its set-up
/// around the deployment and plan caches, and networked worlds'
/// gateway resolves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecPhase {
    /// Solving (or stepping) a dark recharge phase.
    ChargeSolve,
    /// Executing a plan (or the reference interpreter) end to end.
    PlanExec,
    /// Taking an on-demand checkpoint or restoring after an outage.
    CheckpointRestore,
    /// Replaying a recorded [`RunTrace`](crate::RunTrace).
    TraceReplay,
    /// Folding run records into a metrics sink.
    SinkFold,
    /// Building one calibrated deployment and pricing its accuracy.
    DeployBuild,
    /// Compiling one execution plan from a deployment.
    PlanCompile,
    /// Blocking on a deployment or plan slot that another worker is
    /// building.
    SlotWait,
    /// Resolving a networked scenario's gateway polling schedule from
    /// its devices' recorded timelines.
    WorldResolve,
}

impl ExecPhase {
    /// Every phase, in reporting order.
    pub const ALL: [ExecPhase; 9] = [
        ExecPhase::ChargeSolve,
        ExecPhase::PlanExec,
        ExecPhase::CheckpointRestore,
        ExecPhase::TraceReplay,
        ExecPhase::SinkFold,
        ExecPhase::DeployBuild,
        ExecPhase::PlanCompile,
        ExecPhase::SlotWait,
        ExecPhase::WorldResolve,
    ];

    /// A stable snake_case name for machine-readable streams.
    pub fn name(self) -> &'static str {
        match self {
            ExecPhase::ChargeSolve => "charge_solve",
            ExecPhase::PlanExec => "plan_exec",
            ExecPhase::CheckpointRestore => "checkpoint_restore",
            ExecPhase::TraceReplay => "trace_replay",
            ExecPhase::SinkFold => "sink_fold",
            ExecPhase::DeployBuild => "deploy_build",
            ExecPhase::PlanCompile => "plan_compile",
            ExecPhase::SlotWait => "slot_wait",
            ExecPhase::WorldResolve => "world_resolve",
        }
    }
}

/// Observation hook threaded through both executor paths as a generic
/// parameter. Implementations must be pure observers: the executor's
/// results are bit-identical whatever the probe does.
pub trait ExecProbe {
    /// `true` if the probe consumes [`event`](Self::event) calls at all.
    /// When `false` the executor skips computing event payloads that are
    /// not already at hand (e.g. the dark-phase joule deficit).
    const ENABLED: bool;

    /// `true` if the probe wants wall-clock [`span`](Self::span)
    /// measurements. When `false` the executor never reads the OS clock,
    /// so untimed probes add no syscalls to the hot loop.
    const TIMED: bool;

    /// Receives one structured run event, in run order.
    fn event(&mut self, event: ExecEvent);

    /// Receives one wall-clock span: `seconds` spent in `phase`. Called
    /// only when [`TIMED`](Self::TIMED) is `true`.
    fn span(&mut self, phase: ExecPhase, seconds: f64);
}

/// The default probe: a zero-sized no-op the optimizer erases, so the
/// unprobed executor pays nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProbe;

impl ExecProbe for NullProbe {
    const ENABLED: bool = false;
    const TIMED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: ExecEvent) {}

    #[inline(always)]
    fn span(&mut self, _phase: ExecPhase, _seconds: f64) {}
}

/// A borrowed probe, so a caller can hand `&mut probe` to a run and
/// read the probe afterwards.
impl<P: ExecProbe> ExecProbe for &mut P {
    const ENABLED: bool = P::ENABLED;
    const TIMED: bool = P::TIMED;

    #[inline(always)]
    fn event(&mut self, event: ExecEvent) {
        (**self).event(event);
    }

    #[inline(always)]
    fn span(&mut self, phase: ExecPhase, seconds: f64) {
        (**self).span(phase, seconds);
    }
}

/// Two probes observing the same run side by side (e.g. an
/// [`EventRing`] collecting events next to a span-timing profile).
impl<A: ExecProbe, B: ExecProbe> ExecProbe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const TIMED: bool = A::TIMED || B::TIMED;

    #[inline]
    fn event(&mut self, event: ExecEvent) {
        self.0.event(event);
        self.1.event(event);
    }

    #[inline]
    fn span(&mut self, phase: ExecPhase, seconds: f64) {
        self.0.span(phase, seconds);
        self.1.span(phase, seconds);
    }
}

/// A started wall-clock span, gated at compile time: for probes with
/// [`ExecProbe::TIMED`] `false` no clock is ever read. Used by the
/// executor and the fleet runner so the gating logic lives in one place.
#[derive(Debug)]
pub struct SpanTimer(Option<Instant>);

impl SpanTimer {
    /// Starts a span — reads the clock only if `P` is timed.
    #[inline(always)]
    pub fn start<P: ExecProbe>() -> Self {
        SpanTimer(P::TIMED.then(Instant::now))
    }

    /// Ends the span, reporting its wall-clock seconds to the probe.
    #[inline(always)]
    pub fn finish<P: ExecProbe>(self, probe: &mut P, phase: ExecPhase) {
        if let Some(started) = self.0 {
            probe.span(phase, started.elapsed().as_secs_f64());
        }
    }
}

/// A bounded ring buffer of [`ExecEvent`]s — the bundled collector.
/// When full, the oldest event is dropped (and counted), so a
/// pathological run cannot grow memory without bound.
#[derive(Debug, Clone)]
pub struct EventRing {
    events: VecDeque<ExecEvent>,
    capacity: usize,
    dropped: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: ExecEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &ExecEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Empties the ring (capacity and drop count are kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Exports the retained events as JSONL: one object per event, e.g.
    /// `{"type":"dark_skip","t0":0.5,"t1":0.7,"joules":0.0001}`. Every
    /// number is plain decimal, parseable by any JSON reader.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 48);
        for event in &self.events {
            write_event_json(&mut out, event);
            out.push('\n');
        }
        out
    }

    /// Exports the retained events as a Chrome trace-event JSON document
    /// (`{"traceEvents":[...]}`), loadable in Perfetto or
    /// `chrome://tracing`. [`ExecEvent::DarkSkip`] becomes a complete
    /// (`"ph":"X"`) span from `t0` to `t1`; every other event is an
    /// instant (`"ph":"i"`). Timestamps are sim time in microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match *event {
                ExecEvent::DarkSkip { t0, t1, joules } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"dark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":0,\"tid\":0,\"args\":{{\"joules\":{}}}}}",
                        micros(t0),
                        micros((t1 - t0).max(0.0)),
                        decimal(joules)
                    );
                }
                _ => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                         \"pid\":0,\"tid\":0,\"args\":{{",
                        event.label(),
                        micros(event.t())
                    );
                    match *event {
                        ExecEvent::CheckpointCommit { slot, .. } => {
                            let _ = write!(out, "\"slot\":{slot}");
                        }
                        ExecEvent::SegmentRetired { start, end, .. } => {
                            let _ = write!(out, "\"start\":{start},\"end\":{end}");
                        }
                        ExecEvent::RunEnd { outcome, .. } => {
                            let _ = write!(out, "\"outcome\":\"{}\"", outcome.label());
                        }
                        ExecEvent::FaultInjected { kind, .. } => {
                            let _ = write!(out, "\"kind\":\"{}\"", kind.label());
                        }
                        ExecEvent::BitFlipInjected { flips, .. } => {
                            let _ = write!(out, "\"flips\":{flips}");
                        }
                        _ => {}
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push_str("]}");
        out
    }
}

impl ExecProbe for EventRing {
    const ENABLED: bool = true;
    const TIMED: bool = false;

    #[inline]
    fn event(&mut self, event: ExecEvent) {
        self.push(event);
    }

    #[inline(always)]
    fn span(&mut self, _phase: ExecPhase, _seconds: f64) {}
}

/// Sim seconds → microseconds, rendered as a plain decimal.
fn micros(t: f64) -> String {
    decimal(t * 1e6)
}

/// Renders a finite float as plain decimal JSON (Rust's `Display` for
/// floats never uses exponent notation); non-finite values — which no
/// event should carry — degrade to `null` rather than corrupt the
/// stream.
fn decimal(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// One event as a JSONL object, appended to `out`.
fn write_event_json(out: &mut String, event: &ExecEvent) {
    let _ = write!(out, "{{\"type\":\"{}\"", event.label());
    match *event {
        ExecEvent::Boot { t }
        | ExecEvent::BrownOut { t }
        | ExecEvent::EnergyLimit { t }
        | ExecEvent::CorruptionDetected { t }
        | ExecEvent::PayloadRepaired { t }
        | ExecEvent::PayloadRejected { t }
        | ExecEvent::SilentRestore { t } => {
            let _ = write!(out, ",\"t\":{}", decimal(t));
        }
        ExecEvent::FaultInjected { t, kind } => {
            let _ = write!(out, ",\"t\":{},\"kind\":\"{}\"", decimal(t), kind.label());
        }
        ExecEvent::BitFlipInjected { t, flips } => {
            let _ = write!(out, ",\"t\":{},\"flips\":{flips}", decimal(t));
        }
        ExecEvent::CheckpointCommit { t, slot } => {
            let _ = write!(out, ",\"t\":{},\"slot\":{slot}", decimal(t));
        }
        ExecEvent::SegmentRetired { t, start, end } => {
            let _ = write!(out, ",\"t\":{},\"start\":{start},\"end\":{end}", decimal(t));
        }
        ExecEvent::DarkSkip { t0, t1, joules } => {
            let _ = write!(
                out,
                ",\"t0\":{},\"t1\":{},\"joules\":{}",
                decimal(t0),
                decimal(t1),
                decimal(joules)
            );
        }
        ExecEvent::RunEnd { t, outcome } => {
            let _ = write!(
                out,
                ",\"t\":{},\"outcome\":\"{}\"",
                decimal(t),
                outcome.label()
            );
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut ring = EventRing::new(3);
        for k in 0..5 {
            ring.push(ExecEvent::Boot { t: f64::from(k) });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.capacity(), 3);
        // Oldest first; the two earliest were evicted.
        let ts: Vec<f64> = ring.events().map(ExecEvent::t).collect();
        assert_eq!(ts, vec![2.0, 3.0, 4.0]);
        ring.clear();
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_export_is_one_object_per_event() {
        let mut ring = EventRing::new(16);
        ring.push(ExecEvent::BrownOut { t: 0.25 });
        ring.push(ExecEvent::DarkSkip {
            t0: 0.25,
            t1: 0.5,
            joules: 1.5e-4,
        });
        ring.push(ExecEvent::CheckpointCommit { t: 0.6, slot: 2 });
        ring.push(ExecEvent::SegmentRetired {
            t: 0.7,
            start: 3,
            end: 9,
        });
        ring.push(ExecEvent::RunEnd {
            t: 0.7,
            outcome: RunOutcome::Completed,
        });
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], "{\"type\":\"brown_out\",\"t\":0.25}");
        assert!(lines[1].contains("\"t0\":0.25") && lines[1].contains("\"joules\":0.00015"));
        assert!(lines[2].contains("\"slot\":2"));
        assert!(lines[3].contains("\"start\":3,\"end\":9"));
        assert!(lines[4].contains("\"outcome\":\"completed\""));
        // Plain decimals only: no exponent forms for a JSON-lite parser
        // to choke on.
        assert!(!jsonl.contains('e') || !jsonl.contains("e-"), "{jsonl}");
    }

    #[test]
    fn chrome_trace_renders_spans_and_instants() {
        let mut ring = EventRing::new(16);
        ring.push(ExecEvent::DarkSkip {
            t0: 0.5,
            t1: 0.75,
            joules: 2e-5,
        });
        ring.push(ExecEvent::Boot { t: 0.75 });
        let doc = ring.to_chrome_trace();
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        assert!(doc.ends_with("]}"), "{doc}");
        // The dark phase is a 250 ms complete span starting at 500 ms.
        assert!(
            doc.contains("\"ph\":\"X\",\"ts\":500000,\"dur\":250000"),
            "{doc}"
        );
        assert!(
            doc.contains("\"name\":\"boot\",\"ph\":\"i\",\"ts\":750000"),
            "{doc}"
        );
    }

    #[test]
    fn paired_probes_both_observe() {
        let mut pair = (EventRing::new(4), EventRing::new(4));
        pair.event(ExecEvent::Boot { t: 1.0 });
        assert_eq!(pair.0.len(), 1);
        assert_eq!(pair.1.len(), 1);
        const {
            assert!(<(EventRing, EventRing) as ExecProbe>::ENABLED);
            assert!(!<(EventRing, EventRing) as ExecProbe>::TIMED);
            assert!(!NullProbe::ENABLED && !NullProbe::TIMED);
        }
    }
}
