//! The shard wire format: bit-exact JSONL serialization for matrix
//! specs, per-scenario digest partials and checkpoint frontiers.
//!
//! Everything a worker sends back must reproduce the in-process sweep
//! *bit for bit*, so floats never round-trip through decimal: every
//! `f64` travels as the 16-hex-digit image of [`f64::to_bits`] (and
//! `f32` as 8 digits). Integers are decimal; [`crate::StatsDigest`]
//! bins are sparse `[bin, count]` pairs. A shard partial is a JSONL
//! file — one versioned header line, one record line per scenario in
//! matrix order, and a footer carrying the record count plus an
//! FNV-1a 64 checksum of every preceding byte — so a truncated or
//! corrupted partial is detected before it can poison a merge.
//!
//! The container ships no JSON dependency, so this module carries its
//! own writer (string building, like [`crate::JsonlSink`]) and a small
//! recursive-descent parser ([`Json`]).

use crate::digest::StatsDigest;
use crate::metrics::{json_escape, FleetDigest, ResilienceTally, SloTally};
use crate::profile::{CacheCounters, CacheStats, PhaseProfile, SetupPhase};
use crate::scenario::{ScenarioMatrix, Workload};
use ehdl::ehsim::{
    Capacitor, Environment, ExecPhase, ExecutorConfig, FaultSpec, Harvester, Integrity,
    IntegrityTally, WearCurve,
};
use ehdl::{BoardSpec, CalibrationConfig, ShardError, Strategy};
use ehdl_netsim::NetworkTopology;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Wire format version stamped into partial headers and frontiers.
/// Version 2 added the fault-injection axis to matrix specs, the
/// `fault` label to shard records, the `resilience` block to digests,
/// and eviction counts to cache counters. Version 3 added the network
/// topology axis to matrix specs, the `topology` label to shard
/// records, burst lengths to fault specs, and the `slo` block to
/// digests. Version 4 added the checkpoint-integrity axis to matrix
/// specs, the `integrity` label to shard records, the `integrity`
/// block to digests, bit-flip rates and wear curves to fault specs,
/// and poll retries to topologies.
pub(crate) const WIRE_VERSION: u64 = 4;

// ------------------------------------------------------------- hashing

/// Incremental FNV-1a 64 — the checksum of partials and frontiers.
/// Not cryptographic; it guards against truncation and bit rot, not
/// adversaries.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a (matrix, shard size) pair: the identity a
/// checkpoint directory belongs to. Computed over the canonical matrix
/// JSON so any axis, seed, budget, calibration or executor change —
/// or a different shard split — reads as a different sweep.
pub(crate) fn fingerprint(matrix_json: &str, shard_size: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write(matrix_json.as_bytes());
    h.write(&(shard_size as u64).to_le_bytes());
    h.finish()
}

// ------------------------------------------------------------ hex bits

pub(crate) fn hex64(v: u64) -> String {
    format!("{v:016x}")
}

pub(crate) fn parse_hex64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

fn f64_hex(v: f64) -> String {
    hex64(v.to_bits())
}

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

// ----------------------------------------------------------- the parser

/// A parsed JSON value, from the dependency-free parser behind every
/// fleet wire format. Public so tooling (CI validation, bench
/// harnesses) can read the fleet's own exports — shard partials,
/// digests, heartbeats, probe traces — without another JSON crate.
///
/// Numbers keep their raw token: the fleet wire carries unsigned
/// integers and hex-encoded float bits (use [`Json::as_f64_bits`]),
/// while observability exports (JSONL events, Chrome traces,
/// heartbeats) carry plain decimals (use [`Json::as_f64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw unparsed token.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (no trailing bytes).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax error, or of arrays
    /// and objects nested deeper than 128 levels.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// An object member by key, `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A required object member, as an error message otherwise.
    ///
    /// # Errors
    ///
    /// Names the missing field.
    pub fn req(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The string payload, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as an unsigned integer, `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The number as a plain decimal `f64` — the encoding the
    /// observability exports use. `None` for non-numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The array's items, `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An `f64` carried as 16 hex digits of its bit pattern.
    pub fn as_f64_bits(&self) -> Option<f64> {
        self.as_str().and_then(parse_hex64).map(f64::from_bits)
    }

    /// An `f32` carried as 8 hex digits of its bit pattern.
    fn as_f32_bits(&self) -> Option<f32> {
        let s = self.as_str()?;
        if s.len() != 8 {
            return None;
        }
        u32::from_str_radix(s, 16).ok().map(f32::from_bits)
    }
}

/// Pulls a required field through one of the typed accessors above.
macro_rules! field {
    ($obj:expr, $key:literal, $as:ident) => {
        $obj.req($key)?
            .$as()
            .ok_or_else(|| concat!("bad field ", $key).to_string())
    };
}

/// How deep arrays and objects may nest in a parsed document. The
/// fleet's own formats nest a handful of levels; the bound keeps the
/// recursive-descent parser's stack use fixed on hostile input, which
/// would otherwise overflow the stack and abort the process.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Parses an array or object one level deeper, refusing to nest
    /// past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected a value at offset {start}"));
        }
        let raw = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| "non-UTF-8 string".to_string());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.pos += 4;
                            // The writer only emits \u for control
                            // characters; reject surrogates outright.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| "surrogate \\u escape".to_string())?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return Err(format!("bad escape \\{}", escape as char)),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.pos)),
            }
        }
    }
}

// ----------------------------------------------------------- digests

fn stats_json(out: &mut String, d: &StatsDigest) {
    let (count, sum, min, max, bins) = d.raw_parts();
    let _ = write!(
        out,
        "{{\"count\":{count},\"sum\":\"{}\",\"min\":\"{}\",\"max\":\"{}\",\"bins\":[",
        f64_hex(sum),
        f64_hex(min),
        f64_hex(max)
    );
    let mut first = true;
    for (bin, &n) in bins.iter().enumerate() {
        if n != 0 {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{bin},{n}]");
        }
    }
    out.push_str("]}");
}

fn stats_from(v: &Json) -> Result<StatsDigest, String> {
    let count = field!(v, "count", as_u64)?;
    let sum = field!(v, "sum", as_f64_bits)?;
    let min = field!(v, "min", as_f64_bits)?;
    let max = field!(v, "max", as_f64_bits)?;
    let mut sparse = Vec::new();
    for pair in field!(v, "bins", as_arr)? {
        let pair = pair.as_arr().filter(|p| p.len() == 2);
        let (bin, n) = pair
            .and_then(|p| Some((p[0].as_usize()?, p[1].as_u64()?)))
            .ok_or_else(|| "bad bins entry".to_string())?;
        sparse.push((bin, n));
    }
    StatsDigest::from_raw_parts(count, sum, min, max, &sparse)
        .ok_or_else(|| "bin index out of range".to_string())
}

/// Serializes a [`PhaseProfile`] as one canonical JSON object: phase
/// digests (floats as bit-exact hex) in [`ExecPhase::ALL`] then
/// [`SetupPhase::ALL`] order, then the three cache counters.
pub(crate) fn profile_json(p: &PhaseProfile) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"phases\":{");
    for (i, (name, digest)) in p.named_digests().enumerate() {
        if i != 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":");
        stats_json(&mut out, digest);
    }
    out.push_str("},\"caches\":{");
    for (i, (name, c)) in [
        ("plan", &p.caches.plan),
        ("trace", &p.caches.trace),
        ("deployment", &p.caches.deployment),
    ]
    .into_iter()
    .enumerate()
    {
        if i != 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"evictions\":{}}}",
            c.hits, c.misses, c.entries, c.evictions
        );
    }
    out.push_str("}}");
    out
}

fn cache_counters_from(v: &Json) -> Result<CacheCounters, String> {
    Ok(CacheCounters {
        hits: field!(v, "hits", as_u64)?,
        misses: field!(v, "misses", as_u64)?,
        entries: field!(v, "entries", as_u64)?,
        evictions: field!(v, "evictions", as_u64)?,
    })
}

/// Rebuilds a [`PhaseProfile`] from [`profile_json`]'s output —
/// bit-identical, digests included.
pub(crate) fn profile_from_json(text: &str) -> Result<PhaseProfile, String> {
    let v = Json::parse(text)?;
    let phases = v.req("phases")?;
    let mut profile = PhaseProfile::new();
    for phase in ExecPhase::ALL {
        let d = stats_from(phases.req(phase.name())?)?;
        profile.digest_replace(phase, d);
    }
    for phase in SetupPhase::ALL {
        let d = stats_from(phases.req(phase.name())?)?;
        profile.setup_digest_replace(phase, d);
    }
    let caches = v.req("caches")?;
    profile.caches = CacheStats {
        plan: cache_counters_from(caches.req("plan")?)?,
        trace: cache_counters_from(caches.req("trace")?)?,
        deployment: cache_counters_from(caches.req("deployment")?)?,
    };
    Ok(profile)
}

/// Serializes a [`FleetDigest`] as one canonical JSON object.
pub(crate) fn digest_json(d: &FleetDigest) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"scenarios\":{},\"runs\":{},\"completed_runs\":{},\"no_progress_runs\":{},\
         \"outage_limited_runs\":{},\"time_limited_runs\":{},\"energy_limited_runs\":{},\
         \"outages\":{},\"restores\":{},\"ondemand_checkpoints\":{},\
         \"executed_ops\":{},\"wasted_ops\":{},\
         \"energy_nj\":\"{}\",\"active_seconds\":\"{}\",\"charging_seconds\":\"{}\",\
         \"latency_ms\":",
        d.scenarios,
        d.runs,
        d.completed_runs,
        d.no_progress_runs,
        d.outage_limited_runs,
        d.time_limited_runs,
        d.energy_limited_runs,
        d.outages,
        d.restores,
        d.ondemand_checkpoints,
        d.executed_ops,
        d.wasted_ops,
        f64_hex(d.energy_nj),
        f64_hex(d.active_seconds),
        f64_hex(d.charging_seconds),
    );
    stats_json(&mut out, &d.latency_ms);
    out.push_str(",\"accuracy\":");
    stats_json(&mut out, &d.accuracy);
    out.push_str(",\"dark_s\":");
    stats_json(&mut out, &d.dark_s);
    let r = &d.resilience;
    let _ = write!(
        out,
        ",\"resilience\":{{\"faulted_runs\":{},\"recovered_runs\":{},\"spurious_resets\":{},\
         \"torn_commits\":{},\"sag_ops\":{},\"corrupt_restores\":{},\"cold_boots\":{},\
         \"detected_corruptions\":{},\"silent_corruptions\":{}}}",
        r.faulted_runs,
        r.recovered_runs,
        r.spurious_resets,
        r.torn_commits,
        r.sag_ops,
        r.corrupt_restores,
        r.cold_boots,
        r.detected_corruptions,
        r.silent_corruptions,
    );
    let s = &d.slo;
    let _ = write!(
        out,
        ",\"slo\":{{\"worlds\":{},\"devices\":{},\"polls\":{},\"served\":{},\
         \"missed_asleep\":{},\"missed_stale\":{},\"starved_devices\":{},\"staleness_s\":",
        s.worlds, s.devices, s.polls, s.served, s.missed_asleep, s.missed_stale, s.starved_devices,
    );
    stats_json(&mut out, &s.staleness_s);
    out.push('}');
    let i = &d.integrity;
    let _ = write!(
        out,
        ",\"integrity\":{{\"flips_injected\":{},\"flips_repaired\":{},\"flips_detected\":{},\
         \"silent_restores\":{},\"wear_max_commits\":{},\"ladder\":[{},{},{},{}]}}",
        i.flips_injected,
        i.flips_repaired,
        i.flips_detected,
        i.silent_restores,
        i.wear_max_commits,
        i.ladder[0],
        i.ladder[1],
        i.ladder[2],
        i.ladder[3],
    );
    out.push('}');
    out
}

fn integrity_from(v: &Json) -> Result<IntegrityTally, String> {
    let ladder_arr = field!(v, "ladder", as_arr)?;
    if ladder_arr.len() != 4 {
        return Err("ladder must have 4 rungs".to_string());
    }
    let mut ladder = [0u64; 4];
    for (slot, rung) in ladder.iter_mut().zip(ladder_arr) {
        *slot = rung.as_u64().ok_or_else(|| "bad ladder rung".to_string())?;
    }
    Ok(IntegrityTally {
        flips_injected: field!(v, "flips_injected", as_u64)?,
        flips_repaired: field!(v, "flips_repaired", as_u64)?,
        flips_detected: field!(v, "flips_detected", as_u64)?,
        silent_restores: field!(v, "silent_restores", as_u64)?,
        wear_max_commits: field!(v, "wear_max_commits", as_u64)?,
        ladder,
    })
}

fn slo_from(v: &Json) -> Result<SloTally, String> {
    Ok(SloTally {
        worlds: field!(v, "worlds", as_u64)?,
        devices: field!(v, "devices", as_u64)?,
        polls: field!(v, "polls", as_u64)?,
        served: field!(v, "served", as_u64)?,
        missed_asleep: field!(v, "missed_asleep", as_u64)?,
        missed_stale: field!(v, "missed_stale", as_u64)?,
        starved_devices: field!(v, "starved_devices", as_u64)?,
        staleness_s: stats_from(v.req("staleness_s")?)?,
    })
}

fn resilience_from(v: &Json) -> Result<ResilienceTally, String> {
    Ok(ResilienceTally {
        faulted_runs: field!(v, "faulted_runs", as_u64)?,
        recovered_runs: field!(v, "recovered_runs", as_u64)?,
        spurious_resets: field!(v, "spurious_resets", as_u64)?,
        torn_commits: field!(v, "torn_commits", as_u64)?,
        sag_ops: field!(v, "sag_ops", as_u64)?,
        corrupt_restores: field!(v, "corrupt_restores", as_u64)?,
        cold_boots: field!(v, "cold_boots", as_u64)?,
        detected_corruptions: field!(v, "detected_corruptions", as_u64)?,
        silent_corruptions: field!(v, "silent_corruptions", as_u64)?,
    })
}

/// Rebuilds a [`FleetDigest`] from [`digest_json`]'s output —
/// bit-identical, floats included.
pub(crate) fn digest_from(v: &Json) -> Result<FleetDigest, String> {
    Ok(FleetDigest {
        scenarios: field!(v, "scenarios", as_u64)?,
        runs: field!(v, "runs", as_u64)?,
        completed_runs: field!(v, "completed_runs", as_u64)?,
        no_progress_runs: field!(v, "no_progress_runs", as_u64)?,
        outage_limited_runs: field!(v, "outage_limited_runs", as_u64)?,
        time_limited_runs: field!(v, "time_limited_runs", as_u64)?,
        energy_limited_runs: field!(v, "energy_limited_runs", as_u64)?,
        outages: field!(v, "outages", as_u64)?,
        restores: field!(v, "restores", as_u64)?,
        ondemand_checkpoints: field!(v, "ondemand_checkpoints", as_u64)?,
        executed_ops: field!(v, "executed_ops", as_u64)?,
        wasted_ops: field!(v, "wasted_ops", as_u64)?,
        energy_nj: field!(v, "energy_nj", as_f64_bits)?,
        active_seconds: field!(v, "active_seconds", as_f64_bits)?,
        charging_seconds: field!(v, "charging_seconds", as_f64_bits)?,
        latency_ms: stats_from(v.req("latency_ms")?)?,
        accuracy: stats_from(v.req("accuracy")?)?,
        dark_s: stats_from(v.req("dark_s")?)?,
        resilience: resilience_from(v.req("resilience")?)?,
        slo: slo_from(v.req("slo")?)?,
        integrity: integrity_from(v.req("integrity")?)?,
    })
}

// ------------------------------------------------------------ records

/// One scenario's worth of wire data: its matrix index, the axis
/// labels every group-by needs, and the per-scenario digest partial
/// exactly as [`crate::DigestSink::open`] + fold produced it. The
/// coordinator replays these through the same merge sequence an
/// in-process sweep uses — which is what makes the sharded result
/// bit-identical at any shard count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardRecord {
    pub index: u64,
    pub workload: String,
    pub environment: String,
    pub strategy: String,
    pub board: String,
    pub budget: String,
    pub fault: String,
    pub topology: String,
    pub integrity: String,
    pub digest: FleetDigest,
}

impl ShardRecord {
    pub(crate) fn to_line(&self) -> String {
        format!(
            "{{\"scenario\":{},\"workload\":\"{}\",\"environment\":\"{}\",\"strategy\":\"{}\",\
             \"board\":\"{}\",\"budget\":\"{}\",\"fault\":\"{}\",\"topology\":\"{}\",\
             \"integrity\":\"{}\",\"digest\":{}}}",
            self.index,
            json_escape(&self.workload),
            json_escape(&self.environment),
            json_escape(&self.strategy),
            json_escape(&self.board),
            json_escape(&self.budget),
            json_escape(&self.fault),
            json_escape(&self.topology),
            json_escape(&self.integrity),
            digest_json(&self.digest)
        )
    }

    pub(crate) fn from_line(line: &str) -> Result<ShardRecord, String> {
        let v = Json::parse(line)?;
        Ok(ShardRecord {
            index: field!(v, "scenario", as_u64)?,
            workload: field!(v, "workload", as_str)?.to_string(),
            environment: field!(v, "environment", as_str)?.to_string(),
            strategy: field!(v, "strategy", as_str)?.to_string(),
            board: field!(v, "board", as_str)?.to_string(),
            budget: field!(v, "budget", as_str)?.to_string(),
            fault: field!(v, "fault", as_str)?.to_string(),
            topology: field!(v, "topology", as_str)?.to_string(),
            integrity: field!(v, "integrity", as_str)?.to_string(),
            digest: digest_from(v.req("digest")?)?,
        })
    }
}

// ------------------------------------------------------ partial files

/// The first line of a shard partial: which shard of which sweep this
/// is, so a stale or foreign file can never merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartialHeader {
    pub shard: u64,
    pub start: u64,
    pub len: u64,
    pub fingerprint: u64,
    pub runs: u32,
}

impl PartialHeader {
    fn to_line(self) -> String {
        format!(
            "{{\"ehdl_shard_partial\":{WIRE_VERSION},\"shard\":{},\"start\":{},\"len\":{},\
             \"fingerprint\":\"{}\",\"runs\":{}}}",
            self.shard,
            self.start,
            self.len,
            hex64(self.fingerprint),
            self.runs
        )
    }

    fn from_line(line: &str) -> Result<PartialHeader, String> {
        let v = Json::parse(line)?;
        let version = field!(v, "ehdl_shard_partial", as_u64)?;
        if version != WIRE_VERSION {
            return Err(format!("wire version {version}, expected {WIRE_VERSION}"));
        }
        Ok(PartialHeader {
            shard: field!(v, "shard", as_u64)?,
            start: field!(v, "start", as_u64)?,
            len: field!(v, "len", as_u64)?,
            fingerprint: v
                .req("fingerprint")?
                .as_str()
                .and_then(parse_hex64)
                .ok_or_else(|| "bad field fingerprint".to_string())?,
            runs: field!(v, "runs", as_u64)?
                .try_into()
                .map_err(|_| "runs out of range".to_string())?,
        })
    }
}

/// Streams a shard partial: header, records, checksummed footer. The
/// checksum covers every byte before the footer line, so any
/// truncation — mid-line or whole-line — fails verification.
#[derive(Debug)]
pub(crate) struct PartialWriter<W: Write> {
    writer: W,
    hash: Fnv64,
    records: u64,
}

impl<W: Write> PartialWriter<W> {
    pub(crate) fn new(writer: W, header: PartialHeader) -> io::Result<Self> {
        let mut this = PartialWriter {
            writer,
            hash: Fnv64::new(),
            records: 0,
        };
        this.line(&header.to_line())?;
        Ok(this)
    }

    fn line(&mut self, text: &str) -> io::Result<()> {
        self.hash.write(text.as_bytes());
        self.hash.write(b"\n");
        self.writer.write_all(text.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    pub(crate) fn write_record(&mut self, record: &ShardRecord) -> io::Result<()> {
        self.records += 1;
        self.line(&record.to_line())
    }

    /// Writes raw bytes without checksumming them — test-only fault
    /// injection uses this to leave a convincingly truncated file.
    pub(crate) fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Writes the footer and flushes; hands the writer back for
    /// fsync-and-rename by the caller.
    pub(crate) fn finish(mut self) -> io::Result<W> {
        let footer = format!(
            "{{\"records\":{},\"checksum\":\"{}\"}}",
            self.records,
            hex64(self.hash.finish())
        );
        self.writer.write_all(footer.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Parses and verifies a complete shard partial: checksum, record
/// count, and record indices contiguous over the header's range.
/// Returns the header and the records in matrix order.
pub(crate) fn read_partial(text: &str) -> Result<(PartialHeader, Vec<ShardRecord>), String> {
    let body = text
        .strip_suffix('\n')
        .ok_or_else(|| "truncated (no trailing newline)".to_string())?;
    let footer_start = body.rfind('\n').map_or(0, |i| i + 1);
    let footer = Json::parse(&body[footer_start..]).map_err(|e| format!("bad footer: {e}"))?;
    let claimed_records = field!(footer, "records", as_u64)?;
    let claimed_checksum = footer
        .req("checksum")?
        .as_str()
        .and_then(parse_hex64)
        .ok_or_else(|| "bad field checksum".to_string())?;
    let mut hash = Fnv64::new();
    hash.write(&text.as_bytes()[..footer_start]);
    if hash.finish() != claimed_checksum {
        return Err("checksum mismatch".to_string());
    }
    let mut lines = text[..footer_start].lines();
    let header =
        PartialHeader::from_line(lines.next().ok_or_else(|| "missing header".to_string())?)?;
    let records: Vec<ShardRecord> = lines
        .map(ShardRecord::from_line)
        .collect::<Result<_, _>>()?;
    if records.len() as u64 != claimed_records || claimed_records != header.len {
        return Err(format!(
            "expected {} records, found {}",
            header.len,
            records.len()
        ));
    }
    for (i, record) in records.iter().enumerate() {
        if record.index != header.start + i as u64 {
            return Err(format!("record {} out of order: index {}", i, record.index));
        }
    }
    Ok((header, records))
}

// ------------------------------------------------------- matrix specs

/// Serializes a [`ScenarioMatrix`] as canonical single-line JSON — the
/// job spec workers rebuild their matrix from, and the byte string the
/// sweep [`fingerprint`] hashes. Canonical means the round trip
/// `matrix_from(parse(matrix_json(m)))` re-serializes to identical
/// bytes, which the worker exploits to verify its job file.
///
/// # Errors
///
/// [`ShardError::Protocol`] when the matrix contains a
/// [`BoardSpec::Custom`] board — a custom cost table has no wire form.
pub(crate) fn matrix_json(m: &ScenarioMatrix) -> Result<String, ShardError> {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"environments\":[");
    for (i, env) in m.environments.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        environment_json(&mut out, env);
    }
    out.push_str("],\"strategies\":[");
    for (i, s) in m.strategies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", s.name());
    }
    out.push_str("],\"boards\":[");
    for (i, b) in m.boards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match b {
            BoardSpec::Msp430Fr5994 => out.push_str("\"MSP430FR5994\""),
            _ => {
                return Err(ShardError::Protocol {
                    shard: usize::MAX,
                    message: format!(
                        "board {:?} has no wire form; sharded sweeps support catalog boards only",
                        b.name()
                    ),
                })
            }
        }
    }
    out.push_str("],\"workloads\":[");
    for (i, w) in m.workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let samples = match w {
            Workload::Mnist { samples } | Workload::Har { samples } | Workload::Okg { samples } => {
                samples
            }
        };
        let _ = write!(out, "{{\"kind\":\"{}\",\"samples\":{samples}}}", w.name());
    }
    out.push_str("],\"seeds\":[");
    for (i, seed) in m.seeds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{seed}");
    }
    out.push_str("],\"budgets\":[");
    for (i, budget) in m.budgets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match budget {
            None => out.push_str("null"),
            Some(nj) => {
                let _ = write!(out, "\"{}\"", f64_hex(*nj));
            }
        }
    }
    out.push_str("],\"faults\":[");
    for (i, f) in m.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seed\":{},\"reset_per_op\":\"{}\",\"sag_per_op\":\"{}\",\"sag_factor\":\"{}\",\
             \"tear_per_commit\":\"{}\",\"corrupt_per_restore\":\"{}\",\"burst_len\":{},\
             \"flip_per_commit_bit\":\"{}\",\"wear_endurance\":{}}}",
            f.seed,
            f64_hex(f.reset_per_op),
            f64_hex(f.sag_per_op),
            f64_hex(f.sag_factor),
            f64_hex(f.tear_per_commit),
            f64_hex(f.corrupt_per_restore),
            f.burst_len,
            f64_hex(f.flip_per_commit_bit),
            f.wear.endurance_commits,
        );
    }
    out.push_str("],\"topologies\":[");
    for (i, t) in m.topologies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"devices\":{},\"spacing\":\"{}\",\"field_budget\":\"{}\",\
             \"poll_period_s\":\"{}\",\"poll_offset_s\":\"{}\",\"freshness_s\":\"{}\",\
             \"poll_retries\":{}}}",
            t.devices,
            f64_hex(t.spacing),
            f64_hex(t.field_budget),
            f64_hex(t.poll_period_s),
            f64_hex(t.poll_offset_s),
            f64_hex(t.freshness_s),
            t.poll_retries,
        );
    }
    out.push_str("],\"integrities\":[");
    for (i, scheme) in m.integrities.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", scheme.label());
    }
    let _ = write!(
        out,
        "],\"runs\":{},\"calibration\":{{\"samples\":{},\"percentile\":\"{}\"}},\"executor\":{{",
        m.runs,
        m.calibration.samples,
        f32_hex(m.calibration.percentile)
    );
    let e = &m.executor;
    let _ = write!(
        out,
        "\"max_outages\":{},\"stall_outages\":{},\"charge_step_s\":",
        e.max_outages, e.stall_outages
    );
    match e.charge_step_s {
        None => out.push_str("null"),
        Some(step) => {
            let _ = write!(out, "\"{}\"", f64_hex(step));
        }
    }
    let _ = write!(
        out,
        ",\"max_wall_seconds\":\"{}\",\"energy_budget_nj\":",
        f64_hex(e.max_wall_seconds)
    );
    match e.energy_budget_nj {
        None => out.push_str("null"),
        Some(nj) => {
            let _ = write!(out, "\"{}\"", f64_hex(nj));
        }
    }
    out.push_str("}}");
    Ok(out)
}

fn environment_json(out: &mut String, env: &Environment) {
    let c = env.capacitor();
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"capacitor\":{{\"farads\":\"{}\",\"v_max\":\"{}\",\
         \"v_on\":\"{}\",\"v_off\":\"{}\"}},\"harvester\":",
        json_escape(env.name()),
        f64_hex(c.farads()),
        f64_hex(c.v_max()),
        f64_hex(c.v_on()),
        f64_hex(c.v_off())
    );
    match env.harvester() {
        Harvester::Constant { watts } => {
            let _ = write!(
                out,
                "{{\"kind\":\"constant\",\"watts\":\"{}\"}}",
                f64_hex(*watts)
            );
        }
        Harvester::Square {
            watts,
            period_s,
            duty,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"square\",\"watts\":\"{}\",\"period_s\":\"{}\",\"duty\":\"{}\"}}",
                f64_hex(*watts),
                f64_hex(*period_s),
                f64_hex(*duty)
            );
        }
        Harvester::Sine { watts, period_s } => {
            let _ = write!(
                out,
                "{{\"kind\":\"sine\",\"watts\":\"{}\",\"period_s\":\"{}\"}}",
                f64_hex(*watts),
                f64_hex(*period_s)
            );
        }
        Harvester::Bursts {
            watts,
            slot_s,
            p_on,
            seed,
        } => {
            let _ = write!(
                out,
                "{{\"kind\":\"bursts\",\"watts\":\"{}\",\"slot_s\":\"{}\",\
                 \"p_on\":\"{}\",\"seed\":{seed}}}",
                f64_hex(*watts),
                f64_hex(*slot_s),
                f64_hex(*p_on)
            );
        }
        Harvester::Trace(wave) => {
            out.push_str("{\"kind\":\"trace\",\"segments\":[");
            for (i, (duration, watts)) in wave.segments().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[\"{}\",\"{}\"]", f64_hex(*duration), f64_hex(*watts));
            }
            out.push_str("]}");
        }
    }
    out.push('}');
}

fn opt_f64(v: &Json) -> Result<Option<f64>, String> {
    match v {
        Json::Null => Ok(None),
        _ => v
            .as_f64_bits()
            .map(Some)
            .ok_or_else(|| "expected null or f64 bits".to_string()),
    }
}

/// Decodes a harvester through the validating constructors, so a
/// hostile matrix (zero period, duty or `p_on` out of range, an empty
/// trace) is an `Err` here instead of a panic or a hang in a worker.
fn harvester_from(v: &Json) -> Result<Harvester, String> {
    let invalid = |e: &dyn std::fmt::Display| format!("invalid harvester: {e}");
    match field!(v, "kind", as_str)? {
        "constant" => Ok(Harvester::Constant {
            watts: field!(v, "watts", as_f64_bits)?,
        }),
        "square" => Harvester::try_square(
            field!(v, "watts", as_f64_bits)?,
            field!(v, "period_s", as_f64_bits)?,
            field!(v, "duty", as_f64_bits)?,
        )
        .map_err(|e| invalid(&e)),
        "sine" => Harvester::try_sine(
            field!(v, "watts", as_f64_bits)?,
            field!(v, "period_s", as_f64_bits)?,
        )
        .map_err(|e| invalid(&e)),
        "bursts" => Harvester::try_bursts(
            field!(v, "watts", as_f64_bits)?,
            field!(v, "slot_s", as_f64_bits)?,
            field!(v, "p_on", as_f64_bits)?,
            field!(v, "seed", as_u64)?,
        )
        .map_err(|e| invalid(&e)),
        "trace" => {
            let mut segments = Vec::new();
            for pair in field!(v, "segments", as_arr)? {
                let pair = pair.as_arr().filter(|p| p.len() == 2);
                let segment = pair
                    .and_then(|p| Some((p[0].as_f64_bits()?, p[1].as_f64_bits()?)))
                    .ok_or_else(|| "bad trace segment".to_string())?;
                segments.push(segment);
            }
            Harvester::try_trace(segments).map_err(|e| invalid(&e))
        }
        kind => Err(format!("unknown harvester kind {kind:?}")),
    }
}

fn environment_from(v: &Json) -> Result<Environment, String> {
    let c = v.req("capacitor")?;
    let capacitor = Capacitor::try_new(
        field!(c, "farads", as_f64_bits)?,
        field!(c, "v_max", as_f64_bits)?,
        field!(c, "v_on", as_f64_bits)?,
        field!(c, "v_off", as_f64_bits)?,
    )
    .map_err(|e| format!("invalid capacitor: {e}"))?;
    Ok(Environment::new(
        field!(v, "name", as_str)?.to_string(),
        harvester_from(v.req("harvester")?)?,
        capacitor,
    ))
}

/// Rebuilds a [`ScenarioMatrix`] from [`matrix_json`]'s output.
pub(crate) fn matrix_from(v: &Json) -> Result<ScenarioMatrix, String> {
    let mut environments = Vec::new();
    for env in field!(v, "environments", as_arr)? {
        environments.push(environment_from(env)?);
    }
    let mut strategies = Vec::new();
    for s in field!(v, "strategies", as_arr)? {
        let name = s.as_str().ok_or_else(|| "bad strategy".to_string())?;
        let strategy = Strategy::ALL
            .into_iter()
            .find(|st| st.name() == name)
            .ok_or_else(|| format!("unknown strategy {name:?}"))?;
        strategies.push(strategy);
    }
    let mut boards = Vec::new();
    for b in field!(v, "boards", as_arr)? {
        match b.as_str() {
            Some("MSP430FR5994") => boards.push(BoardSpec::Msp430Fr5994),
            other => return Err(format!("unknown board {other:?}")),
        }
    }
    let mut workloads = Vec::new();
    for w in field!(v, "workloads", as_arr)? {
        let samples = field!(w, "samples", as_usize)?;
        workloads.push(match field!(w, "kind", as_str)? {
            "mnist" => Workload::Mnist { samples },
            "har" => Workload::Har { samples },
            "okg" => Workload::Okg { samples },
            kind => return Err(format!("unknown workload kind {kind:?}")),
        });
    }
    let mut seeds = Vec::new();
    for s in field!(v, "seeds", as_arr)? {
        seeds.push(s.as_u64().ok_or_else(|| "bad seed".to_string())?);
    }
    let mut budgets = Vec::new();
    for b in field!(v, "budgets", as_arr)? {
        budgets.push(opt_f64(b)?);
    }
    let mut faults = Vec::new();
    for f in field!(v, "faults", as_arr)? {
        faults.push(FaultSpec {
            seed: field!(f, "seed", as_u64)?,
            reset_per_op: field!(f, "reset_per_op", as_f64_bits)?,
            sag_per_op: field!(f, "sag_per_op", as_f64_bits)?,
            sag_factor: field!(f, "sag_factor", as_f64_bits)?,
            tear_per_commit: field!(f, "tear_per_commit", as_f64_bits)?,
            corrupt_per_restore: field!(f, "corrupt_per_restore", as_f64_bits)?,
            burst_len: field!(f, "burst_len", as_u64)?
                .try_into()
                .map_err(|_| "burst_len out of range".to_string())?,
            flip_per_commit_bit: field!(f, "flip_per_commit_bit", as_f64_bits)?,
            wear: WearCurve {
                endurance_commits: field!(f, "wear_endurance", as_u64)?,
            },
        });
    }
    let mut topologies = Vec::new();
    for t in field!(v, "topologies", as_arr)? {
        let topology = NetworkTopology {
            devices: field!(t, "devices", as_u64)?
                .try_into()
                .map_err(|_| "devices out of range".to_string())?,
            spacing: field!(t, "spacing", as_f64_bits)?,
            field_budget: field!(t, "field_budget", as_f64_bits)?,
            poll_period_s: field!(t, "poll_period_s", as_f64_bits)?,
            poll_offset_s: field!(t, "poll_offset_s", as_f64_bits)?,
            freshness_s: field!(t, "freshness_s", as_f64_bits)?,
            poll_retries: field!(t, "poll_retries", as_u64)?
                .try_into()
                .map_err(|_| "poll_retries out of range".to_string())?,
        };
        topology.validate().map_err(|e| e.to_string())?;
        topologies.push(topology);
    }
    let mut integrities = Vec::new();
    for i in field!(v, "integrities", as_arr)? {
        let label = i.as_str().ok_or_else(|| "bad integrity".to_string())?;
        integrities.push(
            Integrity::parse(label).ok_or_else(|| format!("unknown integrity scheme {label:?}"))?,
        );
    }
    let cal = v.req("calibration")?;
    let exec = v.req("executor")?;
    Ok(ScenarioMatrix {
        environments,
        strategies,
        boards,
        workloads,
        seeds,
        budgets,
        faults,
        topologies,
        integrities,
        runs: field!(v, "runs", as_u64)?
            .try_into()
            .map_err(|_| "runs out of range".to_string())?,
        calibration: CalibrationConfig {
            samples: field!(cal, "samples", as_usize)?,
            percentile: cal
                .req("percentile")?
                .as_f32_bits()
                .ok_or_else(|| "bad field percentile".to_string())?,
        },
        executor: ExecutorConfig {
            max_outages: field!(exec, "max_outages", as_u64)?,
            stall_outages: field!(exec, "stall_outages", as_u64)?,
            charge_step_s: opt_f64(exec.req("charge_step_s")?)?,
            max_wall_seconds: field!(exec, "max_wall_seconds", as_f64_bits)?,
            energy_budget_nj: opt_f64(exec.req("energy_budget_nj")?)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{DigestSink, MetricsSink, RunRecord};
    use ehdl::ehsim::catalog;
    use ehdl::ehsim::{FaultTally, RunOutcome, RunReport};

    fn sample_digest() -> FleetDigest {
        let sink = DigestSink::new();
        let matrix = ScenarioMatrix::new();
        let scenarios = matrix.scenarios();
        let mut partial = sink.open(&scenarios[0], 0.875);
        let report = RunReport {
            outcome: RunOutcome::Completed,
            outages: 3,
            ondemand_checkpoints: 2,
            restores: 3,
            executed_ops: 1234,
            wasted_ops: 56,
            active_cycles: ehdl::device::Cycles::new(9_999),
            active_seconds: 0.0123456789,
            charging_seconds: 1.1e-3,
            wall_seconds: 0.5,
            energy: ehdl::device::Energy::from_nanojoules(7_777.25),
            checkpoint_energy: ehdl::device::Energy::from_nanojoules(11.5),
            meter: ehdl::device::EnergyMeter::new(),
            faults: FaultTally {
                spurious_resets: 2,
                sag_ops: 1,
                torn_commits: 1,
                corrupt_restores: 1,
                cold_boots: 1,
                detected_corruptions: 1,
                silent_corruptions: 0,
            },
            integrity: IntegrityTally {
                flips_injected: 5,
                flips_repaired: 2,
                flips_detected: 1,
                silent_restores: 1,
                wear_max_commits: 321,
                ladder: [7, 2, 1, 0],
            },
        };
        let record = RunRecord {
            scenario: &scenarios[0],
            run: 0,
            accuracy: 0.875,
            report: &report,
        };
        DigestSink::fold(&mut partial, &record);
        partial
    }

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf29ce484222325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63dc4c8601ec8c);
        let mut h = Fnv64::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn json_parser_round_trips_wire_shapes() {
        let v = Json::parse(r#"{"a":1,"b":"x\"y\\z","c":[true,false,null],"d":{"e":[]}}"#).unwrap();
        assert_eq!(v.req("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.req("b").unwrap().as_str(), Some("x\"y\\z"));
        assert_eq!(v.req("c").unwrap().as_arr().unwrap().len(), 3);
        assert!(Json::parse("{\"a\":1}trailing").is_err());
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("").is_err());
        // Control-character escapes (the only \u the writer emits).
        let v = Json::parse("\"x\\u000ay\\t\"").unwrap();
        assert_eq!(v.as_str(), Some("x\ny\t"));
    }

    #[test]
    fn json_parser_bounds_nesting_depth() {
        // Hostile depth is an error, not a stack overflow.
        for open in ["[", "{\"k\":"] {
            let err = Json::parse(&open.repeat(1_000_000)).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn digest_round_trip_is_bit_identical() {
        let digest = sample_digest();
        let line = digest_json(&digest);
        let back = digest_from(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, digest);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(digest_json(&back), line);
        // The empty digest round-trips too (min = +inf, max = -inf).
        let empty = FleetDigest::new();
        let back = digest_from(&Json::parse(&digest_json(&empty)).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    #[test]
    fn records_round_trip() {
        let record = ShardRecord {
            index: 42,
            workload: "har".to_string(),
            environment: "lab, \"day 2\"".to_string(),
            strategy: "ACE+FLEX".to_string(),
            board: "MSP430FR5994".to_string(),
            budget: "unbounded".to_string(),
            fault: "f9:r1e-3:s0:t0:c0".to_string(),
            topology: "n4:d1:b1:p0.5:o0:f10".to_string(),
            integrity: "secded".to_string(),
            digest: sample_digest(),
        };
        let back = ShardRecord::from_line(&record.to_line()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn partials_verify_and_reject_corruption() {
        let header = PartialHeader {
            shard: 3,
            start: 42,
            len: 2,
            fingerprint: 0xdead_beef,
            runs: 1,
        };
        let mut writer = PartialWriter::new(Vec::new(), header).unwrap();
        for i in 0..2u64 {
            let record = ShardRecord {
                index: 42 + i,
                workload: "har".to_string(),
                environment: "bench_supply".to_string(),
                strategy: "ACE+FLEX".to_string(),
                board: "MSP430FR5994".to_string(),
                budget: "unbounded".to_string(),
                fault: "none".to_string(),
                topology: "solo".to_string(),
                integrity: "none".to_string(),
                digest: sample_digest(),
            };
            writer.write_record(&record).unwrap();
        }
        let bytes = writer.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let (back_header, records) = read_partial(&text).unwrap();
        assert_eq!(back_header, header);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].index, 42);
        assert_eq!(records[1].index, 43);

        // Truncation (drop the footer, or cut mid-record) is detected.
        let without_footer: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(read_partial(&without_footer).is_err());
        assert!(read_partial(&text[..text.len() - 20]).is_err());
        // A flipped byte is detected.
        let corrupt = text.replacen("1234", "1235", 1);
        assert!(read_partial(&corrupt).unwrap_err().contains("checksum"));
        // An empty file is detected.
        assert!(read_partial("").is_err());
    }

    #[test]
    fn matrix_spec_round_trips_canonically() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![
                catalog::bench_supply(),
                catalog::office_rf(),
                catalog::solar_day(),
                catalog::piezo_gait(),
                catalog::replay("lab, day 2", vec![(0.25, 0.0017), (1.0, 0.0)]).unwrap(),
            ])
            .strategies(Strategy::ALL.to_vec())
            .workloads(vec![
                Workload::Mnist { samples: 3 },
                Workload::Har { samples: 5 },
                Workload::Okg { samples: 7 },
            ])
            .seeds(vec![0, 7, u64::MAX])
            .energy_budgets_nj(vec![None, Some(12_345.678)])
            .faults(vec![
                FaultSpec::none(),
                FaultSpec {
                    seed: 9,
                    reset_per_op: 1e-3,
                    sag_per_op: 2e-3,
                    sag_factor: 1.5,
                    tear_per_commit: 5e-2,
                    corrupt_per_restore: 0.25,
                    burst_len: 8,
                    flip_per_commit_bit: 2e-4,
                    wear: WearCurve {
                        endurance_commits: 1_000,
                    },
                },
            ])
            .topologies(vec![
                NetworkTopology::solo(),
                NetworkTopology {
                    poll_retries: 2,
                    ..NetworkTopology::line(4, 1.5, 0.25)
                },
            ])
            .integrities(vec![
                Integrity::None,
                Integrity::Checksum,
                Integrity::Secded,
            ])
            .runs(3);
        let json = matrix_json(&matrix).unwrap();
        let back = matrix_from(&Json::parse(&json).unwrap()).unwrap();
        // Canonical: the round trip re-serializes byte-identically, so
        // fingerprints computed from either side agree.
        assert_eq!(matrix_json(&back).unwrap(), json);
        assert_eq!(back.len(), matrix.len());
        let (a, b) = (matrix.scenarios(), back.scenarios());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name(), y.name());
        }
        assert_ne!(
            fingerprint(&json, 10),
            fingerprint(&json, 11),
            "shard size is part of the sweep identity"
        );
    }

    #[test]
    fn fault_labels_canonicalize_through_wire_v4_byte_identically() {
        // The fault label is a group key and a shard-record column, so
        // the spec that comes back off the wire must label byte-for-byte
        // like the one that went in — flip rates and wear included.
        let specs = vec![
            FaultSpec::none(),
            FaultSpec {
                seed: 5,
                flip_per_commit_bit: 2.5e-4,
                ..FaultSpec::none()
            },
            FaultSpec {
                seed: 6,
                reset_per_op: 1e-3,
                flip_per_commit_bit: 1e-5,
                wear: WearCurve {
                    endurance_commits: 750,
                },
                ..FaultSpec::none()
            },
            FaultSpec {
                seed: 7,
                tear_per_commit: 0.02,
                burst_len: 4,
                wear: WearCurve {
                    endurance_commits: 10,
                },
                ..FaultSpec::none()
            },
        ];
        let labels: Vec<String> = specs.iter().map(FaultSpec::label).collect();
        assert!(labels[1].contains(":p0.00025"), "{}", labels[1]);
        assert!(labels[2].ends_with(":w750"), "{}", labels[2]);
        let matrix = ScenarioMatrix::new()
            .faults(specs)
            .integrities(vec![Integrity::Checksum]);
        let json = matrix_json(&matrix).unwrap();
        let back = matrix_from(&Json::parse(&json).unwrap()).unwrap();
        let back_labels: Vec<String> = back.faults.iter().map(FaultSpec::label).collect();
        assert_eq!(back_labels, labels);
        assert_eq!(back.integrities, vec![Integrity::Checksum]);
        // And the round trip itself stays canonical.
        assert_eq!(matrix_json(&back).unwrap(), json);
        // Unknown integrity labels are rejected, not silently dropped.
        let bad = json.replace("\"checksum\"", "\"crc32\"");
        let err = matrix_from(&Json::parse(&bad).unwrap()).unwrap_err();
        assert!(err.contains("crc32"), "{err}");
    }

    #[test]
    fn hostile_environments_decode_to_errors_not_panics() {
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::low_duty_square(), catalog::piezo_gait()]);
        let json = matrix_json(&matrix).unwrap();
        let hex = |v: f64| format!("\"{}\"", f64_hex(v));
        let field = |name: &str, v: f64| format!("\"{name}\":{}", hex(v));
        let piezo_segments = format!(
            "[[{},{}],[{},{}]]",
            hex(0.02),
            hex(0.003),
            hex(0.08),
            hex(0.0002)
        );
        let zero_length = format!("[[{},{}]]", hex(0.0), hex(0.003));
        let hostile = [
            // v_on <= v_off.
            (
                field("v_on", 3.0),
                field("v_on", 1.8),
                "v_max >= v_on > v_off",
            ),
            // No capacitance.
            (field("farads", 15e-6), field("farads", 0.0), "capacitance"),
            // A square wave with a zero period.
            (field("period_s", 2.0), field("period_s", 0.0), "period_s"),
            // Duty outside (0, 1].
            (field("duty", 0.005), field("duty", 1.5), "duty"),
            // An empty trace.
            (
                piezo_segments.clone(),
                "[]".to_string(),
                "at least one segment",
            ),
            // A zero-duration trace segment.
            (piezo_segments, zero_length, "duration"),
        ];
        for (from, to, why) in hostile {
            assert!(json.contains(&from), "{from} not in the matrix JSON");
            let bad = json.replacen(&from, &to, 1);
            let parsed = Json::parse(&bad).unwrap();
            let err = std::panic::catch_unwind(|| matrix_from(&parsed))
                .unwrap_or_else(|_| panic!("decoding {to} panicked"))
                .unwrap_err();
            assert!(err.contains(why), "{to}: {err}");
        }
        // The untouched matrix still round-trips.
        assert!(matrix_from(&Json::parse(&json).unwrap()).is_ok());
    }

    #[test]
    fn custom_boards_have_no_wire_form() {
        let table = ehdl::device::CostTable::msp430fr5994();
        let matrix = ScenarioMatrix::new().boards(vec![BoardSpec::Custom(table)]);
        assert!(matches!(
            matrix_json(&matrix),
            Err(ShardError::Protocol { .. })
        ));
    }
}
