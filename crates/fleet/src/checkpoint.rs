//! The shard checkpoint store: a directory holding everything a killed
//! sweep needs to restart from its last merged prefix.
//!
//! Layout (all files written atomically — `.wip`, fsync, rename; trace
//! memos skip the fsync — and all but heartbeats sealed by
//! [`SealedWriter`]):
//!
//! ```text
//! <dir>/job.json            the job header (plan) + the matrix spec workers read
//! <dir>/partial-000042.ehsp one completed shard's records
//! <dir>/frontier.ckpt       the merged prefix: cumulative digest + groups
//! <dir>/trace-<fp>-<key>    one recorded run workers replay (see TraceMemo)
//! ```
//!
//! The frontier advances only after a shard's records merged in matrix
//! order, and each partial is deleted once merged — so at any kill
//! point the directory is one of: nothing (cold start), a frontier
//! covering shards `0..k` plus zero or more completed partials `>= k`,
//! or a stale `.wip` some worker never finished (ignored; workers
//! recreate it). Every file carries the sweep [`fingerprint`]
//! (matrix + shard size), so a directory can never resume a different
//! sweep: a mismatched frontier is a typed
//! [`ShardError::CheckpointMismatch`], a corrupt one is a cold start,
//! and a corrupt partial is deleted and re-run. Trace memos are a
//! cache: a corrupt or foreign one is a miss, and the coordinator
//! deletes them all once the frontier covers every shard.
//!
//! [`fingerprint`]: crate::wire::fingerprint

use crate::metrics::{FleetDigest, GroupAxis, GroupedDigest};
use crate::scenario::ScenarioMatrix;
use crate::tally::tally;
use crate::wire::{
    self, unseal, MemoHeader, PartialHeader, SealedWriter, ShardRecord, Wire, WIRE_VERSION,
};
use ehdl::ehsim::{ExecutionPlan, RunTrace};
use ehdl::ShardError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The merged prefix of a sharded sweep: everything shards `0..k`
/// contributed, exactly as an in-process run over the same scenarios
/// would have accumulated it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Frontier {
    /// Shards merged so far (`k`): the frontier covers shards `0..k`.
    pub merged_shards: usize,
    /// The cumulative sweep digest over those shards.
    pub digest: FleetDigest,
    /// One grouped digest per requested axis, in request order.
    pub grouped: Vec<GroupedDigest>,
}

impl Frontier {
    /// A cold-start frontier for the given group axes.
    pub(crate) fn empty(axes: &[GroupAxis]) -> Self {
        Frontier {
            merged_shards: 0,
            digest: FleetDigest::new(),
            grouped: axes
                .iter()
                .map(|&axis| GroupedDigest {
                    axis,
                    groups: Vec::new(),
                })
                .collect(),
        }
    }

    /// Merges one scenario record, exactly as the in-process
    /// [`DigestSink`](crate::DigestSink) and
    /// [`GroupBySink`](crate::GroupBySink)s would.
    fn merge(&mut self, record: &ShardRecord) {
        self.digest.merge(&record.digest);
        for gd in &mut self.grouped {
            let key = &record.labels[gd.axis as usize];
            match gd.groups.iter_mut().find(|(k, _)| k == key) {
                Some((_, digest)) => digest.merge(&record.digest),
                None => gd.groups.push((key.clone(), record.digest.clone())),
            }
        }
    }

    /// Decodes a sealed frontier and the fingerprint of the sweep it
    /// belongs to. Any error means the file is unusable.
    pub(crate) fn unseal(text: &str) -> Result<(u64, Frontier), String> {
        let (header, mut lines) = unseal::<FrontierHeader>(text)?;
        if header.ehdl_frontier != WIRE_VERSION {
            return Err(format!("frontier version {}", header.ehdl_frontier));
        }
        let digest = FleetDigest::from_json(lines.next().ok_or("missing digest line")?)?;
        let grouped = lines
            .map(|line| GroupedDigest::decode(&wire::Json::parse(line)?))
            .collect::<Result<_, String>>()?;
        let frontier = Frontier {
            merged_shards: header.merged_shards,
            digest,
            grouped,
        };
        Ok((header.fingerprint, frontier))
    }
}

/// The first line of the frontier file.
struct FrontierHeader {
    ehdl_frontier: u64,
    fingerprint: u64,
    merged_shards: usize,
}

tally! {
    wire FrontierHeader { ehdl_frontier, fingerprint, merged_shards, }
}

/// The first line of the job file: the sweep identity and shard plan
/// every worker checks before it runs. The matrix spec follows on the
/// one body line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JobHeader {
    pub ehdl_shard_job: u64,
    pub fingerprint: u64,
    pub shard_size: usize,
    pub threads: usize,
}

tally! {
    wire JobHeader { ehdl_shard_job, fingerprint, shard_size, threads, }
}

/// Decodes and verifies a job file: the seal, the version, a non-zero
/// shard size, a matrix that decodes, and a fingerprint that its
/// canonical re-encoding reproduces — so a corrupt or hand-edited job
/// fails before any scenario runs.
pub(crate) fn read_job(text: &str) -> Result<(JobHeader, ScenarioMatrix), String> {
    let (header, lines) = unseal::<JobHeader>(text)?;
    if header.ehdl_shard_job != WIRE_VERSION {
        return Err(format!("job file version {}", header.ehdl_shard_job));
    }
    if header.shard_size == 0 {
        return Err("job file has a zero shard_size".to_string());
    }
    let &[matrix] = lines.collect::<Vec<_>>().as_slice() else {
        return Err("job file wants exactly one matrix line".to_string());
    };
    let matrix = wire::matrix_from(&wire::Json::parse(matrix)?)
        .map_err(|e| format!("job matrix does not parse: {e}"))?;
    let json = wire::matrix_json(&matrix).map_err(|e| e.to_string())?;
    if wire::fingerprint(&json, header.shard_size) != header.fingerprint {
        return Err("job fingerprint does not match its matrix".to_string());
    }
    Ok((header, matrix))
}

fn ck(e: std::io::Error, what: &str, path: &Path) -> ShardError {
    ShardError::Checkpoint {
        message: format!("{what} {}: {e}", path.display()),
    }
}

/// Deletes a truncated or corrupt partial, or a stale one from another
/// sweep or plan, so its shard re-runs.
fn discard(path: &Path) -> Result<(), ShardError> {
    fs::remove_file(path).map_err(|e| ck(e, "could not discard", path))
}

/// A checkpoint directory. See the [module docs](self) for the layout
/// and crash-consistency story.
#[derive(Debug, Clone)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    pub(crate) fn open(dir: &Path) -> Result<Self, ShardError> {
        fs::create_dir_all(dir).map_err(|e| ck(e, "could not create", dir))?;
        Ok(CheckpointStore {
            dir: dir.to_path_buf(),
        })
    }

    pub(crate) fn job_path(&self) -> PathBuf {
        self.dir.join("job.json")
    }

    pub(crate) fn partial_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("partial-{shard:06}.ehsp"))
    }

    pub(crate) fn heartbeat_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("heartbeat-{shard:06}.json"))
    }

    /// Publishes one worker heartbeat atomically. Heartbeats are
    /// telemetry, not state: a lost or stale one degrades the progress
    /// line, never the sweep, so callers ignore the error.
    pub(crate) fn write_heartbeat(&self, shard: usize, json: &str) -> Result<(), ShardError> {
        let path = self.heartbeat_path(shard);
        let mut file = self.create(&path)?;
        writeln!(file, "{json}").map_err(|e| ck(e, "could not write", &path))?;
        self.publish(&path, file)
    }

    /// Deletes a shard's heartbeat if present (worker done, or shard
    /// merged).
    pub(crate) fn remove_heartbeat(&self, shard: usize) {
        let _ = fs::remove_file(self.heartbeat_path(shard));
    }

    /// Deletes every `heartbeat-NNNNNN.json` left behind by a previous
    /// coordinator (killed mid-sweep, workers long gone). Run at drive
    /// start so a resumed sweep's progress line never counts orphaned
    /// heartbeats from dead workers. Best-effort like all heartbeat
    /// I/O: unreadable directories or races with concurrent deletes
    /// are ignored.
    pub(crate) fn clear_heartbeats(&self) {
        self.remove_where(|name| name.starts_with("heartbeat-") && name.ends_with(".json"));
    }

    /// Deletes every trace memo, and every temp file a memo writer left
    /// behind. Best-effort like [`clear_heartbeats`](Self::clear_heartbeats):
    /// a memo left over only costs disk, never a wrong replay.
    pub(crate) fn clear_memos(&self) {
        self.remove_where(|name| name.starts_with("trace-"));
    }

    /// Deletes the directory's files whose names satisfy `doomed`,
    /// ignoring errors.
    fn remove_where(&self, doomed: impl Fn(&str) -> bool) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_str().is_some_and(&doomed) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    fn frontier_path(&self) -> PathBuf {
        self.dir.join("frontier.ckpt")
    }

    /// Creates the `.wip` twin of `path` that [`publish`](Self::publish)
    /// later moves into place.
    pub(crate) fn create(&self, path: &Path) -> Result<fs::File, ShardError> {
        let tmp = path.with_extension("wip");
        fs::File::create(&tmp).map_err(|e| ck(e, "could not create", &tmp))
    }

    /// Fsyncs `file`, the twin [`create`](Self::create) made for
    /// `path`, and renames it over `path`.
    pub(crate) fn publish(&self, path: &Path, file: fs::File) -> Result<(), ShardError> {
        let tmp = path.with_extension("wip");
        file.sync_all()
            .map_err(|e| ck(e, "could not write", &tmp))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| ck(e, "could not publish", path))
    }

    /// Seals `header` and `lines` into `path` atomically.
    fn write_sealed(
        &self,
        path: &Path,
        header: &impl Wire,
        lines: &[String],
    ) -> Result<(), ShardError> {
        let file = self.create(path)?;
        let seal = || {
            let mut writer = SealedWriter::new(file, header)?;
            for line in lines {
                writer.line(line)?;
            }
            writer.finish()
        };
        let file = seal().map_err(|e| ck(e, "could not write", path))?;
        self.publish(path, file)
    }

    /// Reads a checkpoint file; `Ok(None)` when there is none. Bytes
    /// that are not UTF-8 are replaced, so they fail the seal like any
    /// other corruption instead of failing the read.
    fn read(&self, path: &Path) -> Result<Option<String>, ShardError> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(String::from_utf8_lossy(&bytes).into_owned())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(ck(e, "could not read", path)),
        }
    }

    /// Publishes the job file workers read (always rewritten on run
    /// start, so a resumed sweep never reads a stale plan).
    pub(crate) fn write_job(
        &self,
        header: &JobHeader,
        matrix_json: &str,
    ) -> Result<(), ShardError> {
        self.write_sealed(&self.job_path(), header, &[matrix_json.to_string()])
    }

    /// Verifies one shard partial without decoding its records: the
    /// seal, the header, and one record per scenario of the header's
    /// range. `Ok(false)` means "not usable — run the shard": the file
    /// is missing, or it failed verification (truncated, corrupt, wrong
    /// range, or from another sweep) and was deleted so a retry starts
    /// clean.
    pub(crate) fn check_partial(
        &self,
        shard: usize,
        expect: PartialHeader,
    ) -> Result<bool, ShardError> {
        let path = self.partial_path(shard);
        let Some(text) = self.read(&path)? else {
            return Ok(false);
        };
        let sound = matches!(
            unseal::<PartialHeader>(&text),
            Ok((header, lines)) if header == expect && lines.clone().count() as u64 == expect.len
        );
        if !sound {
            discard(&path)?;
        }
        Ok(sound)
    }

    /// Merges one shard partial into a copy of `frontier`, decoding
    /// each record once and holding one at a time, and returns the copy
    /// advanced past the shard. `Ok(None)` means "not usable — run the
    /// shard", with the file deleted, as for
    /// [`check_partial`](Self::check_partial); `frontier` is untouched
    /// either way.
    pub(crate) fn merge_partial(
        &self,
        shard: usize,
        expect: PartialHeader,
        frontier: &Frontier,
    ) -> Result<Option<Frontier>, ShardError> {
        let path = self.partial_path(shard);
        let Some(text) = self.read(&path)? else {
            return Ok(None);
        };
        let mut next = frontier.clone();
        match wire::fold_partial(&text, |record| next.merge(&record)) {
            Ok(header) if header == expect => {
                next.merged_shards += 1;
                Ok(Some(next))
            }
            _ => {
                discard(&path)?;
                Ok(None)
            }
        }
    }

    /// Deletes a merged (or poisoned) shard partial if present.
    pub(crate) fn remove_partial(&self, shard: usize) -> Result<(), ShardError> {
        let path = self.partial_path(shard);
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(ck(e, "could not remove", &path)),
        }
    }

    /// Persists the merge frontier atomically: a header naming the
    /// sweep, the digest line, then one line per grouped axis. Called
    /// after every merged shard, so a kill at any point loses at most
    /// the shards not yet merged — and their partials are still on
    /// disk.
    pub(crate) fn save_frontier(
        &self,
        frontier: &Frontier,
        fingerprint: u64,
    ) -> Result<(), ShardError> {
        let header = FrontierHeader {
            ehdl_frontier: WIRE_VERSION,
            fingerprint,
            merged_shards: frontier.merged_shards,
        };
        let mut lines = vec![frontier.digest.to_json()];
        for gd in &frontier.grouped {
            let mut line = String::new();
            gd.encode(&mut line);
            lines.push(line);
        }
        self.write_sealed(&self.frontier_path(), &header, &lines)
    }

    /// Restores the merge frontier, if one is usable.
    ///
    /// - No frontier file, or a corrupt/truncated one → `Ok(None)`
    ///   (cold start; surviving partials are still reused).
    /// - A frontier for a different matrix or shard size →
    ///   [`ShardError::CheckpointMismatch`].
    /// - A frontier grouped on different axes than this run requests →
    ///   [`ShardError::Checkpoint`] (its merged partials are gone, so
    ///   the missing groups cannot be rebuilt — pick a fresh
    ///   directory).
    pub(crate) fn load_frontier(
        &self,
        fingerprint: u64,
        axes: &[GroupAxis],
    ) -> Result<Option<Frontier>, ShardError> {
        let Some(text) = self.read(&self.frontier_path())? else {
            return Ok(None);
        };
        // Corrupt (a kill mid-rename can't cause this, but bit rot
        // can): start cold rather than trust it.
        let (found, frontier) = match Frontier::unseal(&text) {
            Ok(decoded) => decoded,
            Err(reason) => {
                eprintln!(
                    "ehdl-fleet: ignoring corrupt frontier in {} ({reason}); starting cold",
                    self.dir.display()
                );
                return Ok(None);
            }
        };
        // Intact, but it disagrees with this run: surface it.
        if found != fingerprint {
            return Err(ShardError::CheckpointMismatch {
                expected: fingerprint,
                found,
            });
        }
        let recorded: Vec<&str> = frontier.grouped.iter().map(|gd| gd.axis.name()).collect();
        let requested: Vec<&str> = axes.iter().map(|a| a.name()).collect();
        if recorded != requested {
            return Err(ShardError::Checkpoint {
                message: format!(
                    "frontier was merged with group axes {recorded:?} but this run \
                     requests {requested:?}; merged partials are gone, so the groups \
                     cannot be rebuilt — use a fresh checkpoint directory"
                ),
            });
        }
        Ok(Some(frontier))
    }
}

/// Memo temp files written by this process so far: with the process id,
/// names each writer's temp file, so two workers publishing one key
/// never write into the same file.
static MEMO_WRITES: AtomicUsize = AtomicUsize::new(0);

/// The disk tier of a shard worker's trace cache: one sealed memo per
/// deterministic trace key of the sweep, `trace-<fingerprint>-<key>` in
/// the checkpoint directory, which every worker of the sweep reads. A
/// trace does not depend on the seed, so a shard replays what another
/// shard of the same plans recorded instead of recording it again.
///
/// Memos are a cache, not state. They are written without an fsync: a
/// torn, missing, foreign or differently priced memo is a miss, which
/// costs one live recording and never an error. The coordinator deletes
/// them once the sweep completes.
#[derive(Debug, Clone)]
pub(crate) struct TraceMemo {
    store: CheckpointStore,
    fingerprint: u64,
}

impl TraceMemo {
    /// The memos of sweep `fingerprint` in `store`'s directory.
    pub(crate) fn new(store: CheckpointStore, fingerprint: u64) -> Self {
        TraceMemo { store, fingerprint }
    }

    fn path(&self, key: usize) -> PathBuf {
        self.store
            .dir
            .join(format!("trace-{}-{key}", wire::hex64(self.fingerprint)))
    }

    fn header(&self, key: usize) -> MemoHeader {
        MemoHeader {
            ehdl_trace_memo: WIRE_VERSION,
            fingerprint: self.fingerprint,
            key: key as u64,
        }
    }

    /// The memoized trace under `key`, if its memo unseals, names this
    /// sweep and key, and was recorded from a plan with `plan`'s
    /// identity. Anything else is a miss.
    pub(crate) fn load(&self, key: usize, plan: &ExecutionPlan) -> Option<RunTrace> {
        let bytes = fs::read(self.path(key)).ok()?;
        let trace = wire::read_memo(&String::from_utf8_lossy(&bytes), self.header(key)).ok()?;
        trace.check_plan(plan).is_ok().then_some(trace)
    }

    /// Publishes `trace` as the memo under `key`, replacing any memo
    /// there: written under a temp name unique to this writer, then
    /// renamed into place, so readers see a whole memo or none and two
    /// workers publishing one key only replace each other's identical
    /// bytes. Best-effort: a memo that fails to land is a later miss.
    pub(crate) fn publish(&self, key: usize, trace: &RunTrace) {
        let path = self.path(key);
        let tmp = path.with_extension(format!(
            "{}-{}.wip",
            std::process::id(),
            MEMO_WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = wire::memo_bytes(&self.header(key), trace);
        if fs::write(&tmp, bytes)
            .and_then(|()| fs::rename(&tmp, &path))
            .is_err()
        {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frontier() -> Frontier {
        let axes = [GroupAxis::Strategy, GroupAxis::EnergyBudget];
        let mut frontier = Frontier::empty(&axes);
        frontier.merged_shards = 3;
        frontier.digest.scenarios = 12;
        frontier.digest.runs = 24;
        frontier.digest.energy_nj = 0.1 + 0.2; // a non-round double
        let mut g = FleetDigest::new();
        g.scenarios = 6;
        frontier.grouped[0]
            .groups
            .push(("ACE+FLEX".to_string(), g.clone()));
        frontier.grouped[0]
            .groups
            .push(("SONIC".to_string(), g.clone()));
        frontier.grouped[1]
            .groups
            .push(("unbounded".to_string(), g));
        frontier
    }

    #[test]
    fn frontier_round_trips_bit_identically() {
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        let frontier = sample_frontier();
        let axes = [GroupAxis::Strategy, GroupAxis::EnergyBudget];
        store.save_frontier(&frontier, 0xfeed).unwrap();
        let back = store.load_frontier(0xfeed, &axes).unwrap().unwrap();
        assert_eq!(back, frontier);

        // A different fingerprint is a typed mismatch, not a cold start.
        assert!(matches!(
            store.load_frontier(0xbeef, &axes),
            Err(ShardError::CheckpointMismatch {
                expected: 0xbeef,
                found: 0xfeed
            })
        ));
        // Different group axes on the same sweep: typed checkpoint error.
        assert!(matches!(
            store.load_frontier(0xfeed, &[GroupAxis::Board]),
            Err(ShardError::Checkpoint { .. })
        ));
        // A truncated frontier is a cold start, not a crash.
        let path = store.frontier_path();
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert_eq!(store.load_frontier(0xfeed, &axes).unwrap(), None);
        // No frontier at all is a cold start.
        fs::remove_file(&path).unwrap();
        assert_eq!(store.load_frontier(0xfeed, &axes).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bytes_that_are_not_utf8_are_corruption_not_read_errors() {
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-utf8-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        let axes = [GroupAxis::Strategy, GroupAxis::EnergyBudget];
        store.save_frontier(&sample_frontier(), 0xfeed).unwrap();
        let header = PartialHeader {
            ehdl_shard_partial: WIRE_VERSION,
            shard: 0,
            start: 0,
            len: 0,
            fingerprint: 0xfeed,
            runs: 1,
        };
        let sealed = SealedWriter::new(Vec::new(), &header).unwrap();
        fs::write(store.partial_path(0), sealed.finish().unwrap()).unwrap();
        assert!(store.check_partial(0, header).unwrap());
        let empty = Frontier::empty(&axes);
        let merged = store.merge_partial(0, header, &empty).unwrap().unwrap();
        assert_eq!(merged.merged_shards, 1);
        assert_eq!(merged.digest, empty.digest);
        for path in [store.frontier_path(), store.partial_path(0)] {
            let mut bytes = fs::read(&path).unwrap();
            bytes[10] = 0xff;
            fs::write(&path, bytes).unwrap();
        }
        // A corrupt frontier is a cold start; a corrupt partial is
        // deleted so its shard re-runs.
        assert_eq!(store.load_frontier(0xfeed, &axes).unwrap(), None);
        assert!(!store.check_partial(0, header).unwrap());
        assert!(!store.partial_path(0).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn job_files_verify_their_seal_version_plan_and_fingerprint() {
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-job-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        let matrix = ScenarioMatrix::new().seeds(vec![1, 2, 3]);
        let json = wire::matrix_json(&matrix).unwrap();
        let job = JobHeader {
            ehdl_shard_job: WIRE_VERSION,
            fingerprint: wire::fingerprint(&json, 2),
            shard_size: 2,
            threads: 3,
        };
        let read = |header: &JobHeader| {
            store.write_job(header, &json).unwrap();
            read_job(&fs::read_to_string(store.job_path()).unwrap())
        };
        let (back, back_matrix) = read(&job).unwrap();
        assert_eq!(back, job);
        assert_eq!(wire::matrix_json(&back_matrix).unwrap(), json);
        // A flipped byte fails the seal.
        let text = fs::read_to_string(store.job_path()).unwrap();
        let flipped = text.replacen("\"threads\":3", "\"threads\":4", 1);
        assert!(read_job(&flipped).unwrap_err().contains("checksum"));
        // Sealed but wrong: another version, no shards, or a
        // fingerprint the matrix does not reproduce.
        for (bad, why) in [
            (
                JobHeader {
                    ehdl_shard_job: 4,
                    ..job
                },
                "version",
            ),
            (
                JobHeader {
                    shard_size: 0,
                    ..job
                },
                "shard_size",
            ),
            (
                JobHeader {
                    shard_size: 3,
                    ..job
                },
                "fingerprint",
            ),
        ] {
            let err = read(&bad).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_trace_memo_replays_only_into_its_sweep_key_and_pricing() {
        use crate::wire::tests::sample_trace;
        use ehdl::ehsim::Integrity;
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-memo-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        let memo = TraceMemo::new(store.clone(), 0xfeed);
        let (unguarded, trace) = sample_trace(Integrity::None);
        let (secded, _) = sample_trace(Integrity::Secded);
        assert_eq!(memo.load(1, &unguarded), None, "no memo yet");
        memo.publish(1, &trace);
        memo.publish(1, &trace);
        assert_eq!(memo.load(1, &unguarded), Some(trace.clone()));
        // Same shape, other pricing: the `None` recording must not
        // replay as a SECDED run, even sealed under the SECDED key.
        assert_eq!(memo.load(1, &secded), None);
        let forged = wire::memo_bytes(&memo.header(2), &trace);
        fs::write(memo.path(2), forged).unwrap();
        assert_eq!(memo.load(2, &secded), None);
        // Renamed onto another key, or sealed for another sweep.
        fs::copy(memo.path(1), memo.path(3)).unwrap();
        assert_eq!(memo.load(3, &unguarded), None);
        let foreign = TraceMemo::new(store.clone(), 0xbeef);
        fs::copy(memo.path(1), foreign.path(1)).unwrap();
        assert_eq!(foreign.load(1, &unguarded), None);
        // Torn.
        let bytes = fs::read(memo.path(1)).unwrap();
        fs::write(memo.path(1), &bytes[..bytes.len() - 2]).unwrap();
        assert_eq!(memo.load(1, &unguarded), None);

        // Clearing takes every memo and stray memo temp file, nothing
        // else.
        fs::write(memo.path(4).with_extension("1-0.wip"), b"torn").unwrap();
        store.write_heartbeat(0, "{}").unwrap();
        store.clear_memos();
        let left: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(left, ["heartbeat-000000.json"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_publishers_of_one_key_leave_a_whole_memo() {
        use crate::wire::tests::sample_trace;
        use ehdl::ehsim::Integrity;
        use std::sync::Barrier;
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-race-test-{}", std::process::id()));
        let memo = TraceMemo::new(CheckpointStore::open(&dir).unwrap(), 0xfeed);
        let (plan, trace) = sample_trace(Integrity::None);
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        memo.publish(7, &trace);
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for _ in 0..200 {
                    if let Some(read) = memo.load(7, &plan) {
                        assert_eq!(read, trace);
                    }
                }
            });
        });
        assert_eq!(memo.load(7, &plan), Some(trace.clone()));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "no temp file left");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_heartbeats_removes_only_orphaned_heartbeat_files() {
        let dir = std::env::temp_dir().join(format!("ehdl-ckpt-hb-test-{}", std::process::id()));
        let store = CheckpointStore::open(&dir).unwrap();
        store.write_heartbeat(0, "{\"done\":1}").unwrap();
        store.write_heartbeat(17, "{\"done\":4}").unwrap();
        fs::write(store.job_path(), b"{}\n").unwrap();
        assert!(store.heartbeat_path(0).exists());
        assert!(store.heartbeat_path(17).exists());

        store.clear_heartbeats();
        assert!(!store.heartbeat_path(0).exists());
        assert!(!store.heartbeat_path(17).exists());
        // Everything that is not a heartbeat survives.
        assert!(store.job_path().exists());
        // Idempotent, and a missing directory is a no-op.
        store.clear_heartbeats();
        fs::remove_dir_all(&dir).unwrap();
        store.clear_heartbeats();
    }
}
