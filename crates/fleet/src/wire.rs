//! The shard wire format: bit-exact JSONL serialization for matrix
//! specs, per-scenario digest partials and checkpoint frontiers.
//!
//! Everything a worker sends back must reproduce the in-process sweep
//! *bit for bit*, so floats never round-trip through decimal: every
//! `f64` travels as the 16-hex-digit image of [`f64::to_bits`] (and
//! `f32` as 8 digits). Integers are decimal; [`crate::StatsDigest`]
//! bins are sparse `[bin, count]` pairs; a trace memo carries its run
//! as the integer words of [`RunTrace::to_words`]. Every file the shard
//! store persists — partials, the merge frontier, the job file, trace
//! memos — is *sealed*
//! ([`SealedWriter`], [`unseal`]): one versioned header line, body
//! lines, and a footer carrying the body line count plus an FNV-1a 64
//! checksum of every preceding byte, so a truncated or corrupted file
//! is detected before it can poison a merge or a worker.
//!
//! The container ships no JSON dependency, so this module carries its
//! own writer (string building, like [`crate::JsonlSink`]) and a small
//! recursive-descent parser ([`Json`]).

use crate::digest::StatsDigest;
use crate::metrics::{json_escape, FleetDigest, GroupAxis, GroupedDigest};
use crate::profile::PhaseProfile;
use crate::scenario::{ScenarioMatrix, Workload};
use crate::tally::tally;
use ehdl::ehsim::{
    Capacitor, Environment, ExecPhase, ExecutorConfig, FaultSpec, Harvester, Integrity, RunTrace,
    WearCurve,
};
use ehdl::{BoardSpec, CalibrationConfig, ShardError, Strategy};
use ehdl_netsim::NetworkTopology;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::str::Lines;

/// Wire format version stamped into every sealed file's header.
/// Version 2 added the fault-injection axis to matrix specs, the
/// `fault` label to shard records, the `resilience` block to digests,
/// and eviction counts to cache counters. Version 3 added the network
/// topology axis to matrix specs, the `topology` label to shard
/// records, burst lengths to fault specs, and the `slo` block to
/// digests. Version 4 added the checkpoint-integrity axis to matrix
/// specs, the `integrity` label to shard records, the `integrity`
/// block to digests, bit-flip rates and wear curves to fault specs,
/// and poll retries to topologies. Version 5 sealed the frontier and
/// the job file the way partials are sealed, made every header a
/// codec-generated object with a decimal fingerprint, and wrote the
/// frontier's groups one line per axis. Profile cache counters later
/// lost their residency and eviction counts without a version change:
/// no sealed file carries a profile.
pub(crate) const WIRE_VERSION: u64 = 5;

// ------------------------------------------------------------- hashing

/// Incremental FNV-1a 64 — the checksum of sealed files.
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

// ------------------------------------------------------------ values

/// A value with one canonical wire form, appended straight to the
/// output and decoded bit-exactly. Tallies get theirs from
/// [`tally!`](crate::tally::tally).
pub(crate) trait Wire: Sized {
    /// Appends the canonical encoding to `out`.
    fn encode(&self, out: &mut String);

    /// Decodes one value.
    fn decode(v: &Json) -> Result<Self, String>;
}

/// Decodes a required object member.
pub(crate) fn member<T: Wire>(v: &Json, key: &str) -> Result<T, String> {
    T::decode(v.req(key)?).map_err(|e| format!("bad field {key}: {e}"))
}

impl Wire for u64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_u64()
            .ok_or_else(|| "expected an unsigned integer".to_string())
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{:016x}\"", self.to_bits());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_f64_bits()
            .ok_or_else(|| "expected 16 hex digits of f64 bits".to_string())
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut String) {
        u64::from(*self).encode(out);
    }

    fn decode(v: &Json) -> Result<Self, String> {
        u64::decode(v)?
            .try_into()
            .map_err(|_| "out of range".to_string())
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut String) {
        (*self as u64).encode(out);
    }

    fn decode(v: &Json) -> Result<Self, String> {
        u64::decode(v)?
            .try_into()
            .map_err(|_| "out of range".to_string())
    }
}

impl Wire for f32 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{:08x}\"", self.to_bits());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_f32_bits()
            .ok_or_else(|| "expected 8 hex digits of f32 bits".to_string())
    }
}

impl Wire for String {
    fn encode(&self, out: &mut String) {
        out.push('"');
        out.push_str(&json_escape(self));
        out.push('"');
    }

    fn decode(v: &Json) -> Result<Self, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| "expected a string".to_string())
    }
}

/// Writes `items` as a JSON array.
fn encode_list<T: Wire>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.encode(out);
    }
    out.push(']');
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut String) {
        encode_list(self, out);
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let items = v.as_arr().ok_or_else(|| "expected an array".to_string())?;
        items.iter().map(T::decode).collect()
    }
}

impl<const N: usize> Wire for [u64; N] {
    fn encode(&self, out: &mut String) {
        encode_list(self, out);
    }

    fn decode(v: &Json) -> Result<Self, String> {
        Vec::<u64>::decode(v)?
            .try_into()
            .map_err(|_| format!("expected {N} integers"))
    }
}

/// A pair travels as a two-element array.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut String) {
        out.push('[');
        self.0.encode(out);
        out.push(',');
        self.1.encode(out);
        out.push(']');
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v.as_arr() {
            Some([a, b]) => Ok((A::decode(a)?, B::decode(b)?)),
            _ => Err("expected a pair".to_string()),
        }
    }
}

/// `None` travels as `null`.
impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            None => out.push_str("null"),
            Some(value) => value.encode(out),
        }
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            _ => T::decode(v).map(Some),
        }
    }
}

/// A sketch travels as its exact moments plus sparse `[bin, count]`
/// pairs.
impl Wire for StatsDigest {
    fn encode(&self, out: &mut String) {
        let (count, sum, min, max, bins) = self.raw_parts();
        let _ = write!(
            out,
            "{{\"count\":{count},\"sum\":\"{:016x}\",\"min\":\"{:016x}\",\"max\":\"{:016x}\",\
             \"bins\":[",
            sum.to_bits(),
            min.to_bits(),
            max.to_bits()
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

    fn decode(v: &Json) -> Result<Self, String> {
        let sparse: Vec<(usize, u64)> = member(v, "bins")?;
        StatsDigest::from_raw_parts(
            member(v, "count")?,
            member(v, "sum")?,
            member(v, "min")?,
            member(v, "max")?,
            &sparse,
        )
        .ok_or_else(|| "inconsistent sketch: bins, count and min/max disagree".to_string())
    }
}

/// Serializes a [`PhaseProfile`] as one canonical JSON object: phase
/// digests (floats as bit-exact hex) in [`ExecPhase::ALL`] order, then
/// the cache counters.
pub(crate) fn profile_json(p: &PhaseProfile) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"phases\":{");
    for (i, (name, digest)) in p.named_digests().enumerate() {
        if i != 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":");
        digest.encode(&mut out);
    }
    out.push_str("},\"caches\":");
    p.caches.encode(&mut out);
    out.push('}');
    out
}

/// Rebuilds a [`PhaseProfile`] from [`profile_json`]'s output —
/// bit-identical, digests included.
pub(crate) fn profile_from_json(text: &str) -> Result<PhaseProfile, String> {
    let v = Json::parse(text)?;
    let phases = v.req("phases")?;
    let mut profile = PhaseProfile::new();
    for phase in ExecPhase::ALL {
        *profile.digest_mut(phase) = member(phases, phase.name())?;
    }
    profile.caches = member(&v, "caches")?;
    Ok(profile)
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
    /// One label per [`GroupAxis::ALL`] entry, in that order.
    pub labels: [String; GroupAxis::ALL.len()],
    pub digest: FleetDigest,
}

impl ShardRecord {
    pub(crate) fn to_line(&self) -> String {
        let mut out = String::with_capacity(1536);
        let _ = write!(out, "{{\"scenario\":{}", self.index);
        for (axis, label) in GroupAxis::ALL.iter().zip(&self.labels) {
            let _ = write!(out, ",\"{}\":", axis.wire_key());
            label.encode(&mut out);
        }
        out.push_str(",\"digest\":");
        self.digest.encode(&mut out);
        out.push('}');
        out
    }

    pub(crate) fn from_line(line: &str) -> Result<ShardRecord, String> {
        let v = Json::parse(line)?;
        let mut labels = <[String; GroupAxis::ALL.len()]>::default();
        for (axis, label) in GroupAxis::ALL.iter().zip(&mut labels) {
            *label = member(&v, axis.wire_key())?;
        }
        Ok(ShardRecord {
            index: member(&v, "scenario")?,
            labels,
            digest: member(&v, "digest")?,
        })
    }
}

// ------------------------------------------------------- sealed files

/// Streams a sealed line file: one header line, body lines, then the
/// footer `{"records":N,"checksum":"<fnv64>"}`, where N counts the body
/// lines and the FNV-1a 64 covers every byte before the footer — so any
/// truncation, mid-line or whole-line, fails [`unseal`]. Shard
/// partials, the merge frontier, the job file and trace memos are all
/// sealed.
#[derive(Debug)]
pub(crate) struct SealedWriter<W: Write> {
    writer: W,
    hash: Fnv64,
    /// Lines written, the header included.
    lines: u64,
}

impl<W: Write> SealedWriter<W> {
    /// Starts a sealed file with its header line.
    pub(crate) fn new(writer: W, header: &impl Wire) -> io::Result<Self> {
        let mut this = SealedWriter {
            writer,
            hash: Fnv64::new(),
            lines: 0,
        };
        let mut line = String::new();
        header.encode(&mut line);
        this.line(&line)?;
        Ok(this)
    }

    /// Appends one body line.
    pub(crate) fn line(&mut self, text: &str) -> io::Result<()> {
        self.lines += 1;
        self.hash.write(text.as_bytes());
        self.hash.write(b"\n");
        self.writer.write_all(text.as_bytes())?;
        self.writer.write_all(b"\n")
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
            "{{\"records\":{},\"checksum\":\"{}\"}}\n",
            self.lines - 1,
            hex64(self.hash.finish())
        );
        self.writer.write_all(footer.as_bytes())?;
        self.writer.flush()?;
        Ok(self.writer)
    }
}

/// Verifies a sealed file — checksum and body line count — and decodes
/// its header. Returns the header and the body lines.
pub(crate) fn unseal<H: Wire>(text: &str) -> Result<(H, Lines<'_>), String> {
    let body = text
        .strip_suffix('\n')
        .ok_or_else(|| "truncated (no trailing newline)".to_string())?;
    let footer_start = body.rfind('\n').map_or(0, |i| i + 1);
    let footer = Json::parse(&body[footer_start..]).map_err(|e| format!("bad footer: {e}"))?;
    let claimed_records: u64 = member(&footer, "records")?;
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
    let header = lines.next().ok_or_else(|| "missing header".to_string())?;
    let records = lines.clone().count();
    if records as u64 != claimed_records {
        return Err(format!(
            "footer claims {claimed_records} records, found {records}"
        ));
    }
    let header = H::decode(&Json::parse(header)?).map_err(|e| format!("bad header: {e}"))?;
    Ok((header, lines))
}

/// The header of a shard partial: which shard of which sweep this is,
/// so a stale or foreign file can never merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PartialHeader {
    /// The wire version, [`WIRE_VERSION`] when written.
    pub ehdl_shard_partial: u64,
    pub shard: u64,
    pub start: u64,
    pub len: u64,
    pub fingerprint: u64,
    pub runs: u32,
}

tally! {
    wire PartialHeader { ehdl_shard_partial, shard, start, len, fingerprint, runs, }
}

/// Parses and verifies a complete shard partial: the seal, then one
/// record per scenario of the header's range, in index order, each
/// handed to `each` as it decodes, so no more than one is held. Returns
/// the header; on an error `each` may have seen a prefix of the records.
pub(crate) fn fold_partial(
    text: &str,
    mut each: impl FnMut(ShardRecord),
) -> Result<PartialHeader, String> {
    let (header, lines) = unseal::<PartialHeader>(text)?;
    let uncovered = || {
        format!(
            "records do not cover scenarios {}+{} in order",
            header.start, header.len
        )
    };
    let mut covered = 0;
    for line in lines {
        let record = ShardRecord::from_line(line)?;
        if covered == header.len || header.start.checked_add(covered) != Some(record.index) {
            return Err(uncovered());
        }
        each(record);
        covered += 1;
    }
    if covered != header.len {
        return Err(uncovered());
    }
    Ok(header)
}

/// The header of a trace memo: the sweep and the trace key a recorded
/// run was memoized for, so a memo never replays into another sweep or
/// another (plan, environment, budget, fault) tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoHeader {
    /// The wire version, [`WIRE_VERSION`] when written.
    pub ehdl_trace_memo: u64,
    pub fingerprint: u64,
    pub key: u64,
}

tally! {
    wire MemoHeader { ehdl_trace_memo, fingerprint, key, }
}

/// Seals one recorded trace as a memo: `header`, then the trace's
/// [`RunTrace::to_words`] on one body line.
pub(crate) fn memo_bytes(header: &MemoHeader, trace: &RunTrace) -> Vec<u8> {
    let mut line = String::new();
    trace.to_words().encode(&mut line);
    let seal = || {
        let mut writer = SealedWriter::new(Vec::new(), header)?;
        writer.line(&line)?;
        writer.finish()
    };
    seal().expect("writing to a Vec cannot fail")
}

/// Decodes a memo that [`memo_bytes`] sealed for exactly `expect`.
/// Anything else — a broken seal, another version, sweep or key, or a
/// body that is not one trace — is an error.
pub(crate) fn read_memo(text: &str, expect: MemoHeader) -> Result<RunTrace, String> {
    let (header, lines) = unseal::<MemoHeader>(text)?;
    if header != expect {
        return Err(format!("memo is for {header:?}, not {expect:?}"));
    }
    let &[line] = lines.collect::<Vec<_>>().as_slice() else {
        return Err("memo wants exactly one trace line".to_string());
    };
    let words = Vec::<u64>::decode(&Json::parse(line)?)?;
    RunTrace::from_words(&words).ok_or_else(|| "memo words are not a trace".to_string())
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
    if let Some(b) = m
        .boards
        .iter()
        .find(|b| !matches!(b, BoardSpec::Msp430Fr5994))
    {
        return Err(ShardError::Protocol {
            shard: usize::MAX,
            message: format!(
                "board {:?} has no wire form; sharded sweeps support catalog boards only",
                b.name()
            ),
        });
    }
    let mut out = String::with_capacity(1024);
    m.encode(&mut out);
    Ok(out)
}

/// Rebuilds a [`ScenarioMatrix`] from [`matrix_json`]'s output,
/// validating every topology and that the scenario count fits a
/// `usize`.
pub(crate) fn matrix_from(v: &Json) -> Result<ScenarioMatrix, String> {
    let m = ScenarioMatrix::decode(v)?;
    if m.checked_len().is_none() {
        return Err("the matrix's scenario count overflows a usize".to_string());
    }
    for topology in &m.topologies {
        topology.validate().map_err(|e| e.to_string())?;
    }
    Ok(m)
}

tally! {
    wire ScenarioMatrix {
        environments, strategies, boards, workloads, seeds, budgets, faults, topologies,
        integrities, runs, calibration, executor,
    }
}

tally! {
    wire NetworkTopology {
        devices, spacing, field_budget, poll_period_s, poll_offset_s, freshness_s, poll_retries,
    }
}

tally! {
    wire ExecutorConfig {
        max_outages, stall_outages, charge_step_s, max_wall_seconds, energy_budget_nj,
    }
}

tally! {
    wire CalibrationConfig { samples, percentile, }
}

impl Wire for GroupAxis {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.name());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let name = String::decode(v)?;
        GroupAxis::parse(&name).ok_or_else(|| format!("unknown group axis {name:?}"))
    }
}

tally! {
    wire GroupedDigest { axis, groups, }
}

impl Wire for Strategy {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.name());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let name = String::decode(v)?;
        Strategy::ALL
            .into_iter()
            .find(|st| st.name() == name)
            .ok_or_else(|| format!("unknown strategy {name:?}"))
    }
}

impl Wire for Integrity {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let label = String::decode(v)?;
        Integrity::parse(&label).ok_or_else(|| format!("unknown integrity scheme {label:?}"))
    }
}

/// Only catalog boards have a wire form (see [`matrix_json`]).
impl Wire for BoardSpec {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.name());
    }

    fn decode(v: &Json) -> Result<Self, String> {
        match v.as_str() {
            Some("MSP430FR5994") => Ok(BoardSpec::Msp430Fr5994),
            other => Err(format!("unknown board {other:?}")),
        }
    }
}

impl Wire for Workload {
    fn encode(&self, out: &mut String) {
        let (Workload::Mnist { samples } | Workload::Har { samples } | Workload::Okg { samples }) =
            self;
        let _ = write!(
            out,
            "{{\"kind\":\"{}\",\"samples\":{samples}}}",
            self.name()
        );
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let samples = member(v, "samples")?;
        match member::<String>(v, "kind")?.as_str() {
            "mnist" => Ok(Workload::Mnist { samples }),
            "har" => Ok(Workload::Har { samples }),
            "okg" => Ok(Workload::Okg { samples }),
            kind => Err(format!("unknown workload kind {kind:?}")),
        }
    }
}

/// The wear curve travels flat, as `wear_endurance`.
impl Wire for FaultSpec {
    fn encode(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"seed\":{},\"reset_per_op\":\"{}\",\"sag_per_op\":\"{}\",\"sag_factor\":\"{}\",\
             \"tear_per_commit\":\"{}\",\"corrupt_per_restore\":\"{}\",\"burst_len\":{},\
             \"flip_per_commit_bit\":\"{}\",\"wear_endurance\":{}}}",
            self.seed,
            f64_hex(self.reset_per_op),
            f64_hex(self.sag_per_op),
            f64_hex(self.sag_factor),
            f64_hex(self.tear_per_commit),
            f64_hex(self.corrupt_per_restore),
            self.burst_len,
            f64_hex(self.flip_per_commit_bit),
            self.wear.endurance_commits,
        );
    }

    fn decode(v: &Json) -> Result<Self, String> {
        Ok(FaultSpec {
            seed: member(v, "seed")?,
            reset_per_op: member(v, "reset_per_op")?,
            sag_per_op: member(v, "sag_per_op")?,
            sag_factor: member(v, "sag_factor")?,
            tear_per_commit: member(v, "tear_per_commit")?,
            corrupt_per_restore: member(v, "corrupt_per_restore")?,
            burst_len: member(v, "burst_len")?,
            flip_per_commit_bit: member(v, "flip_per_commit_bit")?,
            wear: WearCurve {
                endurance_commits: member(v, "wear_endurance")?,
            },
        })
    }
}

/// Decoded through the validating capacitor constructor, so a hostile
/// matrix (`v_on <= v_off`, no capacitance) is an `Err` here instead of
/// a panic in a worker.
impl Wire for Environment {
    fn encode(&self, out: &mut String) {
        let c = self.capacitor();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"capacitor\":{{\"farads\":\"{}\",\"v_max\":\"{}\",\
             \"v_on\":\"{}\",\"v_off\":\"{}\"}},\"harvester\":",
            json_escape(self.name()),
            f64_hex(c.farads()),
            f64_hex(c.v_max()),
            f64_hex(c.v_on()),
            f64_hex(c.v_off())
        );
        self.harvester().encode(out);
        out.push('}');
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let c = v.req("capacitor")?;
        let capacitor = Capacitor::try_new(
            member(c, "farads")?,
            member(c, "v_max")?,
            member(c, "v_on")?,
            member(c, "v_off")?,
        )
        .map_err(|e| format!("invalid capacitor: {e}"))?;
        Ok(Environment::new(
            member::<String>(v, "name")?,
            member(v, "harvester")?,
            capacitor,
        ))
    }
}

/// Decoded through the validating constructors, so a hostile matrix
/// (zero period, duty or `p_on` out of range, an empty trace) is an
/// `Err` here instead of a panic or a hang in a worker.
impl Wire for Harvester {
    fn encode(&self, out: &mut String) {
        let _ = match self {
            Harvester::Constant { watts } => write!(
                out,
                "{{\"kind\":\"constant\",\"watts\":\"{}\"}}",
                f64_hex(*watts)
            ),
            Harvester::Square {
                watts,
                period_s,
                duty,
            } => write!(
                out,
                "{{\"kind\":\"square\",\"watts\":\"{}\",\"period_s\":\"{}\",\"duty\":\"{}\"}}",
                f64_hex(*watts),
                f64_hex(*period_s),
                f64_hex(*duty)
            ),
            Harvester::Sine { watts, period_s } => write!(
                out,
                "{{\"kind\":\"sine\",\"watts\":\"{}\",\"period_s\":\"{}\"}}",
                f64_hex(*watts),
                f64_hex(*period_s)
            ),
            Harvester::Bursts {
                watts,
                slot_s,
                p_on,
                seed,
            } => write!(
                out,
                "{{\"kind\":\"bursts\",\"watts\":\"{}\",\"slot_s\":\"{}\",\
                 \"p_on\":\"{}\",\"seed\":{seed}}}",
                f64_hex(*watts),
                f64_hex(*slot_s),
                f64_hex(*p_on)
            ),
            Harvester::Trace(wave) => {
                out.push_str("{\"kind\":\"trace\",\"segments\":");
                encode_list(wave.segments(), out);
                out.push('}');
                Ok(())
            }
        };
    }

    fn decode(v: &Json) -> Result<Self, String> {
        let invalid = |e: &dyn std::fmt::Display| format!("invalid harvester: {e}");
        match member::<String>(v, "kind")?.as_str() {
            "constant" => Ok(Harvester::Constant {
                watts: member(v, "watts")?,
            }),
            "square" => Harvester::try_square(
                member(v, "watts")?,
                member(v, "period_s")?,
                member(v, "duty")?,
            )
            .map_err(|e| invalid(&e)),
            "sine" => Harvester::try_sine(member(v, "watts")?, member(v, "period_s")?)
                .map_err(|e| invalid(&e)),
            "bursts" => Harvester::try_bursts(
                member(v, "watts")?,
                member(v, "slot_s")?,
                member(v, "p_on")?,
                member(v, "seed")?,
            )
            .map_err(|e| invalid(&e)),
            "trace" => Harvester::try_trace(member(v, "segments")?).map_err(|e| invalid(&e)),
            kind => Err(format!("unknown harvester kind {kind:?}")),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::metrics::{DigestSink, MetricsSink, RunRecord};
    use crate::profile::CacheCounters;
    use ehdl::ehsim::catalog;
    use ehdl::ehsim::{FaultTally, IntegrityTally, RunOutcome, RunReport};

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
        let line = digest.to_json();
        let back = FleetDigest::from_json(&line).unwrap();
        assert_eq!(back, digest);
        // Canonical: re-serialization is byte-identical.
        assert_eq!(back.to_json(), line);
        // The empty digest round-trips too (min = +inf, max = -inf).
        let empty = FleetDigest::new();
        let back = FleetDigest::from_json(&empty.to_json()).unwrap();
        assert_eq!(back, empty);
    }

    fn sample_record() -> ShardRecord {
        ShardRecord {
            index: 42,
            labels: [
                "har",
                "lab, \"day 2\"",
                "ACE+FLEX",
                "MSP430FR5994",
                "unbounded",
                "f9:r1e-3:s0:t0:c0",
                "n4:d1:b1:p0.5:o0:f10",
                "secded",
            ]
            .map(str::to_string),
            digest: sample_digest(),
        }
    }

    fn sample_profile() -> PhaseProfile {
        let mut p = PhaseProfile::new();
        for (i, phase) in ExecPhase::ALL.into_iter().enumerate() {
            // The first five phases, then the four set-up phases, each
            // with its own span scale.
            let seconds = match i.checked_sub(5) {
                None => 1e-4 * (i as f64 + 0.25),
                Some(j) => 2e-3 * (j as f64 + 0.5),
            };
            p.record(phase, seconds);
        }
        p.caches.plan = CacheCounters {
            hits: 10,
            misses: 2,
        };
        p.caches.deployment = CacheCounters {
            hits: 90,
            misses: 6,
        };
        p
    }

    fn fnv(text: &str) -> u64 {
        let mut h = Fnv64::new();
        h.write(text.as_bytes());
        h.finish()
    }

    #[test]
    fn records_round_trip() {
        let record = sample_record();
        let back = ShardRecord::from_line(&record.to_line()).unwrap();
        assert_eq!(back, record);
    }

    /// [`sample_digest`] in the v4 wire encoding.
    const GOLDEN_DIGEST: &str =
        "{\"scenarios\":1,\"runs\":1,\"completed_runs\":1,\"no_progress_runs\":0,\
        \"outage_limited_runs\":0,\"time_limited_runs\":0,\"energy_limited_runs\":0,\
        \"outages\":3,\"restores\":3,\"ondemand_checkpoints\":2,\
        \"executed_ops\":1234,\"wasted_ops\":56,\"energy_nj\":\"40be614000000000\",\
        \"active_seconds\":\"3f8948b0f8fab5e6\",\
        \"charging_seconds\":\"3f5205bc01a36e2f\",\"latency_ms\":{\"count\":1,\
        \"sum\":\"407f400000000000\",\"min\":\"407f400000000000\",\
        \"max\":\"407f400000000000\",\"bins\":[[673,1]]},\"accuracy\":{\"count\":1,\
        \"sum\":\"3fec000000000000\",\"min\":\"3fec000000000000\",\
        \"max\":\"3fec000000000000\",\"bins\":[[514,1]]},\"dark_s\":{\"count\":1,\
        \"sum\":\"3f5205bc01a36e2f\",\"min\":\"3f5205bc01a36e2f\",\
        \"max\":\"3f5205bc01a36e2f\",\"bins\":[[347,1]]},\
        \"resilience\":{\"faulted_runs\":1,\"recovered_runs\":1,\
        \"spurious_resets\":2,\"torn_commits\":1,\"sag_ops\":1,\
        \"corrupt_restores\":1,\"cold_boots\":1,\"detected_corruptions\":1,\
        \"silent_corruptions\":0},\"slo\":{\"worlds\":0,\"devices\":0,\"polls\":0,\
        \"served\":0,\"missed_asleep\":0,\"missed_stale\":0,\"starved_devices\":0,\
        \"staleness_s\":{\"count\":0,\"sum\":\"0000000000000000\",\
        \"min\":\"7ff0000000000000\",\"max\":\"fff0000000000000\",\"bins\":[]}},\
        \"integrity\":{\"flips_injected\":5,\"flips_repaired\":2,\
        \"flips_detected\":1,\"silent_restores\":1,\"wear_max_commits\":321,\
        \"ladder\":[7,2,1,0]}}";

    #[test]
    fn encoders_reproduce_the_golden_v4_bytes() {
        // Pinned against the hand-written v4 encoders. The round-trip
        // tests only prove self-consistency; these catch a reordered
        // key, a renamed field or a changed number form. A change here
        // is a wire-format change: bump WIRE_VERSION with it (the
        // profile's bytes excepted: no sealed file carries a profile).
        assert_eq!(sample_digest().to_json(), GOLDEN_DIGEST);
        let head = "{\"scenario\":42,\"workload\":\"har\",\
            \"environment\":\"lab, \\\"day 2\\\"\",\"strategy\":\"ACE+FLEX\",\
            \"board\":\"MSP430FR5994\",\"budget\":\"unbounded\",\"fault\":\"f9:r1e-3:s0:t0:c0\",\
            \"topology\":\"n4:d1:b1:p0.5:o0:f10\",\"integrity\":\"secded\",\"digest\":";
        assert_eq!(
            sample_record().to_line(),
            format!("{head}{GOLDEN_DIGEST}}}")
        );
        let profile = sample_profile().to_json();
        let caches = "\"caches\":{\"plan\":{\"hits\":10,\"misses\":2},\
            \"trace\":{\"hits\":0,\"misses\":0},\"deployment\":{\"hits\":90,\
            \"misses\":6}}}";
        assert!(profile.ends_with(caches), "{profile}");
        assert_eq!(fnv(&profile), 0x1647_299b_0e3e_918e, "{profile}");
        let matrix = matrix_json(&sample_matrix()).unwrap();
        assert!(matrix.starts_with("{\"environments\":[{\"name\":\"bench_supply\","));
        assert_eq!(fnv(&matrix), 0x0bb2_52ca_320e_49ae, "{matrix}");
    }

    #[test]
    fn hostile_digests_are_rejected_or_render_without_panicking() {
        let latency = "\"latency_ms\":{\"count\":1,\"sum\":\"407f400000000000\",\
            \"min\":\"407f400000000000\",\"max\":\"407f400000000000\",\"bins\":[[673,1]]}";
        assert!(GOLDEN_DIGEST.contains(latency));
        // Sketches no fold produces used to decode, then panic in
        // `quantile` when the report rendered.
        for (count, min, max, bins, why) in [
            (1, 2.0, 1.0, "[[673,1]]", "min above max"),
            (1, f64::NAN, 1.0, "[[673,1]]", "NaN min"),
            (2, 1.0, 2.0, "[[673,1]]", "bins short of count"),
            (2, 1.0, 2.0, "[[673,1],[673,1]]", "repeated bin"),
            (2, 1.0, 2.0, "[[673,1],[600,1]]", "descending bins"),
            (
                1,
                1.0,
                2.0,
                "[[0,1],[673,18446744073709551615]]",
                "bin sum overflow",
            ),
        ] {
            let sketch = format!(
                "\"latency_ms\":{{\"count\":{count},\"sum\":\"407f400000000000\",\
                 \"min\":\"{:016x}\",\"max\":\"{:016x}\",\"bins\":{bins}}}",
                f64::to_bits(min),
                f64::to_bits(max)
            );
            let hostile = GOLDEN_DIGEST.replacen(latency, &sketch, 1);
            assert!(FleetDigest::from_json(&hostile).is_err(), "{why}");
        }
        // Counters are not cross-checked, but more ops wasted than
        // executed renders as no forward progress instead of
        // overflowing.
        let wasteful = GOLDEN_DIGEST.replacen(
            "\"executed_ops\":1234,\"wasted_ops\":56",
            "\"executed_ops\":1,\"wasted_ops\":5",
            1,
        );
        let digest = FleetDigest::from_json(&wasteful).unwrap();
        assert_eq!(digest.forward_progress(), 0.0);
        assert!(digest.to_string().contains("forward progress: 0.0%"));
    }

    /// SplitMix64, the deterministic stream behind the mutation loop.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    impl SplitMix {
        /// One mutant of a random member of `valid`: a truncation, a bit
        /// flip, a splice from another member, or deep nesting.
        fn mutant(&mut self, valid: &[String]) -> String {
            let mut bytes = valid[self.below(valid.len())].clone().into_bytes();
            let at = self.below(bytes.len());
            match self.below(4) {
                0 => bytes.truncate(at),
                1 => bytes[at] ^= 1 << self.below(8),
                2 => {
                    let donor = valid[self.below(valid.len())].as_bytes();
                    let from = self.below(donor.len());
                    let len = self.below(64).min(donor.len() - from);
                    let end = (at + self.below(64)).min(bytes.len());
                    bytes.splice(at..end, donor[from..from + len].iter().copied());
                }
                _ => {
                    let open: &[u8] = [b"[".as_slice(), b"{\"k\":"][self.below(2)];
                    let depth = self.below(2 * MAX_DEPTH);
                    bytes.splice(at..at, open.repeat(depth));
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }

    /// Feeds `cases` mutants of `valid` to `decode`, which returns how
    /// many decoders accepted the text and used the value. No case may
    /// panic, and the loop must reach the decode-then-use path, not only
    /// errors.
    fn survive_mutations(
        seed: u64,
        cases: usize,
        valid: &[String],
        decode: impl Fn(&str) -> usize + std::panic::RefUnwindSafe,
    ) {
        let mut rng = SplitMix(seed);
        let mut decoded = 0;
        for case in 0..cases {
            let text = rng.mutant(valid);
            let ok = std::panic::catch_unwind(|| decode(&text));
            decoded += ok.unwrap_or_else(|_| panic!("case {case} panicked on {text}"));
        }
        assert!(decoded > cases / 60, "only {decoded} mutants decoded");
    }

    #[test]
    fn decoders_survive_seeded_mutations() {
        // Every value that still decodes must render and merge into an
        // empty value.
        let valid = [
            sample_digest().to_json(),
            sample_profile().to_json(),
            sample_record().to_line(),
            include_str!("../../../tests/golden/quick_grid_digest.json").to_string(),
        ];
        survive_mutations(0x5eed, 3_000, &valid, |text| {
            let mut ok = 0;
            if let Ok(d) = FleetDigest::from_json(text) {
                let _ = d.to_string();
                FleetDigest::new().merge(&d);
                ok += 1;
            }
            if let Ok(p) = PhaseProfile::from_json(text) {
                let _ = p.to_string();
                PhaseProfile::new().merge(&p);
                ok += 1;
            }
            if let Ok(r) = ShardRecord::from_line(text) {
                let _ = r.digest.to_string();
                FleetDigest::new().merge(&r.digest);
                ok += 1;
            }
            ok
        });
    }

    #[test]
    fn matrix_and_trace_decoders_survive_seeded_mutations() {
        // A matrix that still decodes must expand to a count of
        // scenarios and re-encode; a trace that still parses must
        // integrate to a non-negative energy.
        let matrix = [matrix_json(&sample_matrix()).unwrap()];
        survive_mutations(0x3a7e, 2_000, &matrix, |text| {
            let Ok(m) = Json::parse(text).and_then(|v| matrix_from(&v)) else {
                return 0;
            };
            let _ = m.len();
            matrix_json(&m).map_or(0, |_| 1)
        });
        let csv = [
            "# field log\nseconds,milliwatts\n0.020,3.0\n\n0.080,0.2\n".to_string(),
            "0.25,1.7\n1.0,0\n0.5,12.5\n".to_string(),
        ];
        survive_mutations(0xc5f, 2_000, &csv, |text| {
            let Ok(env) = catalog::replay_csv("mutant", text) else {
                return 0;
            };
            let harvester = env.harvester();
            let joules = harvester.energy_over(0.0, 1.0) + harvester.energy_over(0.37, 2.5);
            assert!(joules >= 0.0, "{joules} J from {harvester:?}");
            1
        });
    }

    /// A two-record partial, sealed the way a shard worker seals one.
    fn sample_partial() -> (PartialHeader, String) {
        let header = PartialHeader {
            ehdl_shard_partial: WIRE_VERSION,
            shard: 3,
            start: 42,
            len: 2,
            fingerprint: 0xdead_beef,
            runs: 1,
        };
        let mut writer = SealedWriter::new(Vec::new(), &header).unwrap();
        for i in 0..2u64 {
            let record = ShardRecord {
                index: 42 + i,
                labels: [
                    "har",
                    "bench_supply",
                    "ACE+FLEX",
                    "MSP430FR5994",
                    "unbounded",
                    "none",
                    "solo",
                    "none",
                ]
                .map(str::to_string),
                digest: sample_digest(),
            };
            writer.line(&record.to_line()).unwrap();
        }
        let text = String::from_utf8(writer.finish().unwrap()).unwrap();
        (header, text)
    }

    /// A partial's header and its records in matrix order.
    fn read_partial(text: &str) -> Result<(PartialHeader, Vec<ShardRecord>), String> {
        let mut records = Vec::new();
        let header = fold_partial(text, |record| records.push(record))?;
        Ok((header, records))
    }

    #[test]
    fn partials_verify_and_reject_corruption() {
        let (header, text) = sample_partial();
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
        // A footer that miscounts the body is detected, even with a
        // valid checksum.
        let footer_start = text.trim_end().rfind('\n').unwrap() + 1;
        let miscounted = text.replacen("\"records\":2", "\"records\":3", 1);
        assert_eq!(miscounted[..footer_start], text[..footer_start]);
        assert!(read_partial(&miscounted).unwrap_err().contains("records"));
        // Sealed, but the records are out of order, one is missing, or
        // one is past the range.
        let lines: Vec<&str> = text.lines().collect();
        let past = lines[2].replacen("\"scenario\":43", "\"scenario\":44", 1);
        assert_ne!(past, lines[2]);
        for body in [
            [lines[0], lines[2], lines[1]].as_slice(),
            &lines[..2],
            &[lines[0], lines[1], lines[2], &past],
        ] {
            let resealed = reseal(&format!("{}\nfooter\n", body.join("\n")));
            assert!(read_partial(&resealed)
                .unwrap_err()
                .contains("do not cover"));
        }
    }

    /// A header line written verbatim, so tests can re-seal mutated
    /// files.
    struct RawLine(String);

    impl Wire for RawLine {
        fn encode(&self, out: &mut String) {
            out.push_str(&self.0);
        }

        fn decode(_: &Json) -> Result<Self, String> {
            Err("write-only".to_string())
        }
    }

    /// Re-seals everything before a (possibly mutated) file's last
    /// line. FNV-1a is not a MAC, so the mutant gets past the checksum
    /// into the decoders' header, count, order and fingerprint checks.
    fn reseal(text: &str) -> String {
        let body = text.trim_end_matches('\n');
        let mut lines = body[..body.rfind('\n').unwrap_or(0)].lines();
        let header = RawLine(lines.next().unwrap_or_default().to_string());
        let mut writer = SealedWriter::new(Vec::new(), &header).unwrap();
        for line in lines {
            writer.line(line).unwrap();
        }
        String::from_utf8(writer.finish().unwrap()).unwrap()
    }

    /// A recording of a small checkpointed program under a weak supply
    /// and payload bit flips, priced for `integrity`.
    pub(crate) fn sample_trace(integrity: Integrity) -> (ehdl::ehsim::ExecutionPlan, RunTrace) {
        use ehdl::device::{Board, DeviceOp};
        use ehdl::ehsim::{
            CheckpointSpec, ExecutionPlan, FaultPlan, IntermittentExecutor, PowerSupply, Program,
            RunOptions,
        };
        let mut program = Program::new("memo");
        for k in 0..300 {
            let spec = match k % 5 {
                0 => CheckpointSpec::COMMIT,
                1 => CheckpointSpec::ondemand(32),
                _ => CheckpointSpec::NONE,
            };
            program.push(DeviceOp::CpuOps { count: 8_000 }, spec);
        }
        let mut board = Board::msp430fr5994();
        let plan = ExecutionPlan::compile_with_integrity(program, &board, integrity);
        let fault = FaultPlan::compile(&FaultSpec {
            seed: 5,
            reset_per_op: 0.002,
            flip_per_commit_bit: 1e-3,
            ..FaultSpec::none()
        });
        let mut supply = PowerSupply::new(
            Harvester::square(0.004, 0.05, 0.5),
            Capacitor::paper_100uf(),
        );
        let (_, trace) = IntermittentExecutor::default().record_plan_with(
            &plan,
            &mut board,
            &mut supply,
            RunOptions::default().fault(&fault),
        );
        (plan, trace)
    }

    #[test]
    fn trace_memos_decode_to_the_original_or_are_refused() {
        let traces = [
            sample_trace(Integrity::None).1,
            sample_trace(Integrity::Secded).1,
        ];
        let report = traces[1].report();
        assert!(report.outages > 0 && report.integrity.flips_injected > 0);
        let header = |key| MemoHeader {
            ehdl_trace_memo: WIRE_VERSION,
            fingerprint: 0xfeed,
            key,
        };
        let valid: Vec<String> = (0..2)
            .map(|key| String::from_utf8(memo_bytes(&header(key), &traces[key as usize])).unwrap())
            .collect();
        for (key, trace) in (0..).zip(&traces) {
            assert_eq!(
                read_memo(&valid[key as usize], header(key)).as_ref(),
                Ok(trace)
            );
            assert!(read_memo(&valid[key as usize], header(key + 1)).is_err());
        }
        // Under its own seal a mutant decodes to the memo's trace or is
        // refused; re-sealed, whatever decodes is a canonical trace.
        survive_mutations(0x3e30, 3_000, &valid, |text| {
            let mut ok = 0;
            for (key, trace) in (0..).zip(&traces) {
                if let Ok(decoded) = read_memo(text, header(key)) {
                    assert_eq!(&decoded, trace);
                    ok += 1;
                }
                if let Ok(decoded) = read_memo(&reseal(text), header(key)) {
                    let words = decoded.to_words();
                    assert_eq!(RunTrace::from_words(&words), Some(decoded));
                    ok += 1;
                }
            }
            ok
        });
    }

    #[test]
    fn sealed_store_files_survive_seeded_mutations() {
        use crate::checkpoint::{read_job, CheckpointStore, Frontier, JobHeader};
        // Valid seeds from the store's own writers: a partial, a
        // frontier with two grouped axes, and a job file.
        let dir = std::env::temp_dir().join(format!("ehdl-wire-fuzz-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        let matrix = sample_matrix();
        let json = matrix_json(&matrix).unwrap();
        let job = JobHeader {
            ehdl_shard_job: WIRE_VERSION,
            fingerprint: fingerprint(&json, 7),
            shard_size: 7,
            threads: 2,
        };
        store.write_job(&job, &json).unwrap();
        let record = sample_record();
        let mut frontier = Frontier::empty(&[GroupAxis::Strategy, GroupAxis::Environment]);
        frontier.merged_shards = 4;
        frontier.digest = sample_digest();
        for (gd, key) in frontier
            .grouped
            .iter_mut()
            .zip(["ACE+FLEX", "lab, \"day 2\""])
        {
            gd.groups.push((key.to_string(), record.digest.clone()));
            gd.groups.push(("other".to_string(), FleetDigest::new()));
        }
        store.save_frontier(&frontier, 0xfeed).unwrap();
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).unwrap();
        let valid = [sample_partial().1, read("frontier.ckpt"), read("job.json")];
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(read_partial(&valid[0]).is_ok());
        assert_eq!(Frontier::unseal(&valid[1]).unwrap(), (0xfeed, frontier));
        assert_eq!(read_job(&valid[2]).unwrap().0, job);

        // Each mutant goes to every decoder twice: as mutated, and
        // re-sealed. Whatever decodes must render, merge and plan.
        survive_mutations(0x5ea1, 3_000, &valid, |text| {
            let mut ok = 0;
            for text in [text.to_string(), reseal(text)] {
                if let Ok((header, records)) = read_partial(&text) {
                    let mut digest = FleetDigest::new();
                    for r in &records {
                        digest.merge(&r.digest);
                    }
                    assert_eq!(records.len() as u64, header.len);
                    let _ = digest.to_string();
                    ok += 1;
                }
                if let Ok((_, frontier)) = Frontier::unseal(&text) {
                    let mut digest = frontier.digest.clone();
                    for gd in &frontier.grouped {
                        let _ = gd.to_string();
                        for (_, d) in &gd.groups {
                            digest.merge(d);
                        }
                    }
                    let _ = digest.to_string();
                    ok += 1;
                }
                if let Ok((job, matrix)) = read_job(&text) {
                    let _ = matrix.len().div_ceil(job.shard_size);
                    ok += 1;
                }
            }
            ok
        });
    }

    #[test]
    fn matrices_whose_scenario_count_overflows_usize_are_rejected() {
        // Eight axes of 256 entries expand to 2^64 scenarios.
        let matrix = ScenarioMatrix::new()
            .environments(vec![catalog::bench_supply(); 256])
            .strategies(vec![Strategy::Flex; 256])
            .boards(vec![BoardSpec::Msp430Fr5994; 256])
            .workloads(vec![Workload::Har { samples: 1 }; 256])
            .seeds((0..256).collect())
            .energy_budgets_nj(vec![None; 256])
            .faults(vec![FaultSpec::none(); 256])
            .integrities(vec![Integrity::None; 256]);
        let json = matrix_json(&matrix).unwrap();
        let err = matrix_from(&Json::parse(&json).unwrap()).unwrap_err();
        assert!(err.contains("usize"), "{err}");
    }

    fn sample_matrix() -> ScenarioMatrix {
        ScenarioMatrix::new()
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
            .runs(3)
    }

    #[test]
    fn matrix_spec_round_trips_canonically() {
        let matrix = sample_matrix();
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
