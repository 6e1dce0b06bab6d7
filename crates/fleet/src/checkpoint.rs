//! The shard checkpoint store: a directory holding everything a killed
//! sweep needs to restart from its last merged prefix.
//!
//! Layout (all files written atomically — `.tmp`, fsync, rename):
//!
//! ```text
//! <dir>/job.json            the matrix spec + shard plan workers read
//! <dir>/partial-000042.ehsp one completed shard's records (checksummed)
//! <dir>/frontier.ckpt       the merged prefix: cumulative digest + groups
//! ```
//!
//! The frontier advances only after a shard's records merged in matrix
//! order, and each partial is deleted once merged — so at any kill
//! point the directory is one of: nothing (cold start), a frontier
//! covering shards `0..k` plus zero or more completed partials `>= k`,
//! or a stale `.tmp` some worker never finished (ignored; workers
//! recreate it). Every file carries the sweep [`fingerprint`]
//! (matrix + shard size), so a directory can never resume a different
//! sweep: a mismatched frontier is a typed
//! [`ShardError::CheckpointMismatch`], a corrupt one is a cold start,
//! and a corrupt partial is deleted and re-run.
//!
//! [`fingerprint`]: crate::wire::fingerprint

use crate::metrics::{FleetDigest, GroupAxis, GroupedDigest};
use crate::wire::{
    self, hex64, member, parse_hex64, Fnv64, Json, PartialHeader, ShardRecord, Wire,
};
use ehdl::ShardError;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

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
}

fn ck(e: std::io::Error, what: &str, path: &Path) -> ShardError {
    ShardError::Checkpoint {
        message: format!("{what} {}: {e}", path.display()),
    }
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
        let mut bytes = json.as_bytes().to_vec();
        bytes.push(b'\n');
        self.write_atomic(&self.heartbeat_path(shard), &bytes)
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
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with("heartbeat-") && name.ends_with(".json") {
                let _ = fs::remove_file(entry.path());
            }
        }
    }

    fn frontier_path(&self) -> PathBuf {
        self.dir.join("frontier.ckpt")
    }

    /// Writes `bytes` to `path` atomically: temp file, fsync, rename.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> Result<(), ShardError> {
        let tmp = path.with_extension("wip");
        let mut file = fs::File::create(&tmp).map_err(|e| ck(e, "could not create", &tmp))?;
        file.write_all(bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| ck(e, "could not write", &tmp))?;
        drop(file);
        fs::rename(&tmp, path).map_err(|e| ck(e, "could not publish", path))
    }

    /// Publishes the job spec workers read (always rewritten on run
    /// start, so a resumed sweep never reads a stale plan).
    pub(crate) fn write_job(&self, job_json: &str) -> Result<(), ShardError> {
        let mut bytes = job_json.as_bytes().to_vec();
        bytes.push(b'\n');
        self.write_atomic(&self.job_path(), &bytes)
    }

    /// Loads and fully verifies one shard partial. `Ok(None)` means
    /// "not usable — run the shard": the file is missing, or it failed
    /// verification (truncated, corrupt, wrong range, or from another
    /// sweep) and was deleted so a retry starts clean.
    pub(crate) fn load_partial(
        &self,
        shard: usize,
        expect: PartialHeader,
    ) -> Result<Option<Vec<ShardRecord>>, ShardError> {
        let path = self.partial_path(shard);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ck(e, "could not read", &path)),
        };
        match wire::read_partial(&text) {
            Ok((header, records)) if header == expect => Ok(Some(records)),
            _ => {
                // Truncated, corrupt, or a stale file from a different
                // sweep or plan: delete it and let the shard re-run.
                fs::remove_file(&path).map_err(|e| ck(e, "could not discard", &path))?;
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

    /// Persists the merge frontier atomically. Called after every
    /// merged shard, so a kill at any point loses at most the shards
    /// not yet merged — and their partials are still on disk.
    pub(crate) fn save_frontier(
        &self,
        frontier: &Frontier,
        fingerprint: u64,
    ) -> Result<(), ShardError> {
        let mut text = format!(
            "{{\"ehdl_frontier\":{},\"fingerprint\":\"{}\",\"merged_shards\":{},\"groups\":",
            wire::WIRE_VERSION,
            hex64(fingerprint),
            frontier.merged_shards
        );
        let axes: Vec<String> = frontier
            .grouped
            .iter()
            .map(|gd| gd.axis.name().into())
            .collect();
        axes.encode(&mut text);
        text.push_str("}\n");
        text.push_str("{\"digest\":");
        text.push_str(&frontier.digest.to_json());
        text.push_str("}\n");
        for gd in &frontier.grouped {
            for (key, digest) in &gd.groups {
                text.push_str(&format!(
                    "{{\"axis\":\"{}\",\"key\":\"{}\",\"digest\":{}}}\n",
                    gd.axis.name(),
                    crate::metrics::json_escape(key),
                    digest.to_json()
                ));
            }
        }
        let mut hash = Fnv64::new();
        hash.write(text.as_bytes());
        text.push_str(&format!("{{\"checksum\":\"{}\"}}\n", hex64(hash.finish())));
        self.write_atomic(&self.frontier_path(), text.as_bytes())
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
        let path = self.frontier_path();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(ck(e, "could not read", &path)),
        };
        match Self::parse_frontier(&text, fingerprint, axes) {
            Ok(frontier) => Ok(Some(frontier)),
            Err(FrontierError::Fatal(e)) => Err(e),
            // Corrupt (a kill mid-rename can't cause this, but bit rot
            // can): start cold rather than trust it.
            Err(FrontierError::Corrupt(reason)) => {
                eprintln!(
                    "ehdl-fleet: ignoring corrupt frontier in {} ({reason}); starting cold",
                    self.dir.display()
                );
                Ok(None)
            }
        }
    }

    fn parse_frontier(
        text: &str,
        fingerprint: u64,
        axes: &[GroupAxis],
    ) -> Result<Frontier, FrontierError> {
        let corrupt = |m: &str| FrontierError::Corrupt(m.to_string());
        let body = text
            .strip_suffix('\n')
            .ok_or_else(|| corrupt("no trailing newline"))?;
        let footer_start = body.rfind('\n').map_or(0, |i| i + 1);
        let footer = Json::parse(&body[footer_start..]).map_err(FrontierError::Corrupt)?;
        let claimed = footer
            .get("checksum")
            .and_then(|c| c.as_str())
            .and_then(parse_hex64)
            .ok_or_else(|| corrupt("bad checksum field"))?;
        let mut hash = Fnv64::new();
        hash.write(&text.as_bytes()[..footer_start]);
        if hash.finish() != claimed {
            return Err(corrupt("checksum mismatch"));
        }
        // Checksum verified: structural errors past this point are
        // still "corrupt" (cold start), but identity mismatches are
        // fatal — the file is intact and disagrees with this run.
        let mut lines = text[..footer_start].lines();
        let header = lines
            .next()
            .and_then(|l| Json::parse(l).ok())
            .ok_or_else(|| corrupt("missing header"))?;
        if header.get("ehdl_frontier").and_then(Json::as_u64) != Some(wire::WIRE_VERSION) {
            return Err(corrupt("wrong frontier version"));
        }
        let found = header
            .get("fingerprint")
            .and_then(|s| s.as_str())
            .and_then(parse_hex64)
            .ok_or_else(|| corrupt("bad fingerprint field"))?;
        if found != fingerprint {
            return Err(FrontierError::Fatal(ShardError::CheckpointMismatch {
                expected: fingerprint,
                found,
            }));
        }
        let recorded_axes: Vec<String> =
            member(&header, "groups").map_err(|_| corrupt("bad groups field"))?;
        let requested: Vec<&str> = axes.iter().map(|a| a.name()).collect();
        if recorded_axes != requested {
            return Err(FrontierError::Fatal(ShardError::Checkpoint {
                message: format!(
                    "frontier was merged with group axes {recorded_axes:?} but this run \
                     requests {requested:?}; merged partials are gone, so the groups \
                     cannot be rebuilt — use a fresh checkpoint directory"
                ),
            }));
        }
        let merged_shards =
            member(&header, "merged_shards").map_err(|_| corrupt("bad merged_shards field"))?;
        let digest_line = lines.next().ok_or_else(|| corrupt("missing digest"))?;
        let digest = Json::parse(digest_line)
            .and_then(|v| member(&v, "digest"))
            .map_err(FrontierError::Corrupt)?;
        let mut frontier = Frontier::empty(axes);
        frontier.merged_shards = merged_shards;
        frontier.digest = digest;
        for line in lines {
            let v = Json::parse(line).map_err(FrontierError::Corrupt)?;
            let axis_name: String = member(&v, "axis").map_err(FrontierError::Corrupt)?;
            let axis = GroupAxis::parse(&axis_name).ok_or_else(|| corrupt("unknown group axis"))?;
            let key: String = member(&v, "key").map_err(FrontierError::Corrupt)?;
            let digest = member(&v, "digest").map_err(FrontierError::Corrupt)?;
            let gd = frontier
                .grouped
                .iter_mut()
                .find(|gd| gd.axis == axis)
                .ok_or_else(|| corrupt("group line for unrequested axis"))?;
            gd.groups.push((key, digest));
        }
        Ok(frontier)
    }
}

enum FrontierError {
    /// The file is unusable; resume cold.
    Corrupt(String),
    /// The file is intact but belongs to a different run; surface it.
    Fatal(ShardError),
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
