//! Atomic checkpoint files on disk, and the update log beside them.
//!
//! [`CheckpointManager`] owns one checkpoint path and guarantees that
//! the file at that path is always a *complete* snapshot: saves go
//! through a temporary sibling file, are fsynced, and are then renamed
//! into place. A crash at any instant leaves either the previous
//! complete snapshot or the new complete snapshot — never a torn
//! mixture (the codec's CRC framing catches the pathological cases a
//! filesystem might still produce).
//!
//! Beside the snapshot, at `<path>.log`, the manager keeps an update
//! log (see [`crate::log`]). [`append_net`](CheckpointManager::append_net)
//! adds one CRC-framed record of the net changes since the last durable
//! point and `fdatasync`s it, extending a sketch snapshot without
//! rewriting it. Every save truncates the log, which the new snapshot
//! supersedes.
//! A snapshot costs two syncs, the temporary file's and its directory's:
//! the truncation of a log this manager wrote or adopted is left to the
//! next append's `fdatasync`, because replay skips every record a crash
//! could bring back (each one ends at or before the snapshot's position).

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use dcs_core::{FlowUpdate, NetBatch};
use dcs_hash::cast::u64_from_usize;

use crate::codec::{decode, encode_into, Checkpoint};
use crate::error::PersistError;
use crate::log::{self, encode_record, LogReplay, LOG_HEADER_LEN};

/// The restore budget: the most update-log entries a restore replays.
/// [`CheckpointManager::can_append`] admits a record only while the log
/// stays within it; past it, the boundary writes a snapshot. Applying an
/// entry costs one update's sketch work, 30–40 ns on the 2-vCPU host the
/// benchmarks run on, so a restore replays its log in about 2–3 ms at
/// most, whatever the cadence or the traffic.
pub const LOG_ENTRY_BUDGET: u64 = 1 << 16;

/// Writes and reads checkpoints at a fixed path with atomic-rename
/// semantics, plus the update log that extends a sketch snapshot.
#[derive(Debug)]
pub struct CheckpointManager {
    path: PathBuf,
    saves: u64,
    /// The encode buffer, kept across saves and appends so periodic
    /// checkpoints of a steady-size state reuse one allocation.
    buf: Vec<u8>,
    log: UpdateLog,
}

/// The manager's view of the update log on disk.
#[derive(Debug, Default)]
struct UpdateLog {
    /// Opened on first use and kept across saves; dropped after a
    /// failed write, so the next use cuts the torn bytes off.
    file: Option<File>,
    /// Bytes of the log that extend the snapshot (0: none written yet).
    bytes: u64,
    /// Records in those bytes.
    records: u64,
    /// Entries in those records: what a restore would replay.
    entries: u64,
    /// The stream position the snapshot plus the log reach, once the
    /// snapshot on disk is a sketch this manager saved or adopted.
    /// `None` until then: there is nothing of this run to extend.
    end: Option<u64>,
}

impl CheckpointManager {
    /// Creates a manager for the checkpoint file at `path`. Nothing is
    /// touched on disk until [`save`](Self::save) is called.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            saves: 0,
            buf: Vec::new(),
            log: UpdateLog::default(),
        }
    }

    /// The checkpoint path this manager owns.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The update log's path: the checkpoint path with `.log` appended.
    pub fn log_path(&self) -> PathBuf {
        sibling(&self.path, ".log")
    }

    /// Number of successful saves so far.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Bytes of the update log that extend the snapshot, header
    /// included (0 while there is no log).
    pub fn log_bytes(&self) -> u64 {
        self.log.bytes
    }

    /// Records in the update log that extend or precede the snapshot.
    pub fn log_records(&self) -> u64 {
        self.log.records
    }

    /// Whether [`append_net`](Self::append_net) of a record of
    /// `entries` entries is the checkpoint to write: a sketch snapshot
    /// this manager saved or adopted is on disk for the record to
    /// extend, and a restore would replay no more than
    /// [`LOG_ENTRY_BUDGET`] entries. Otherwise a snapshot is due.
    pub fn can_append(&self, entries: usize) -> bool {
        self.log.end.is_some()
            && self.log.entries.saturating_add(u64_from_usize(entries)) <= LOG_ENTRY_BUDGET
    }

    /// Atomically replaces the checkpoint file with an encoding of
    /// `checkpoint`, returning the encoded size in bytes. A sketch
    /// document becomes the snapshot later appends extend.
    ///
    /// The write path is: encode → write to a `.tmp` sibling →
    /// `fsync` the sibling → rename over the target → best-effort
    /// `fsync` of the parent directory → truncate the update log, if
    /// there is one. A crash before the rename leaves the previous
    /// checkpoint intact; a crash after it leaves the new one, and any
    /// log records it covers are skipped on restore. The truncation is
    /// not synced unless the log holds bytes this manager neither wrote
    /// nor adopted, which a crash must not bring back. A failed save
    /// removes the `.tmp` sibling (best effort) before returning the
    /// error.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<u64, PersistError> {
        let mut buf = std::mem::take(&mut self.buf);
        encode_into(checkpoint, &mut buf);
        let saved = self.save_encoded(&buf);
        self.buf = buf;
        if saved.is_ok() {
            if let Checkpoint::Sketch(state) = checkpoint {
                self.log.end = Some(state.updates_processed);
            }
        }
        saved
    }

    /// The write half of [`save`](Self::save): atomically replaces the
    /// checkpoint file with `bytes`, which must be a document produced
    /// by [`encode`](crate::encode) (they are written as given, not
    /// re-validated), and truncates the update log. Lets a caller time
    /// encoding and the durable write separately. Appends need a
    /// [`save`](Self::save) first: these bytes are not decoded, so no
    /// stream position is known for a record to extend.
    pub fn save_encoded(&mut self, bytes: &[u8]) -> Result<u64, PersistError> {
        let tmp = self.temp_path();
        if let Err(e) = replace_durably(&tmp, &self.path, bytes) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let size = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        self.saves += 1;
        // Records of this manager's snapshots all end at or before the
        // new one's position; anything else on disk must go durably.
        let ours = self.log.end.take().is_some() || self.log.file.is_some();
        self.truncate_log(ours)?;
        Ok(size)
    }

    /// Appends one record of `batch`'s net changes to the update log
    /// and `fdatasync`s it, returning the record's size in bytes. The
    /// record starts at the stream position the snapshot plus the log
    /// reach, so `batch` must cover exactly the updates since the last
    /// save or append. A batch whose updates all cancelled is a record
    /// with no entries, which still advances the position.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Incompatible`] when there is no sketch
    /// snapshot of this manager's to extend (nothing saved, or a
    /// restore not adopted through [`replay_log`](Self::replay_log)),
    /// or when `batch` holds more entries than updates it covers or
    /// would carry the position past `u64::MAX`, so that no replay
    /// could accept it; and [`PersistError::Io`] when the write or the
    /// sync fails.
    pub fn append_net(&mut self, batch: &NetBatch) -> Result<u64, PersistError> {
        let Some(start) = self.log.end else {
            return Err(PersistError::Incompatible {
                reason: "the update log has no snapshot of this run to extend".into(),
            });
        };
        let (count, covered) = (u64_from_usize(batch.entries.len()), batch.covered);
        let end = start.checked_add(covered).filter(|_| count <= covered);
        let Some(end) = end else {
            return Err(PersistError::Incompatible {
                reason: format!(
                    "a record of {count} entries covering {covered} updates from position {start}"
                ),
            });
        };
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        encode_record(start, covered, &batch.entries, &mut buf);
        let written = self.write_record(&buf);
        let size = u64_from_usize(buf.len());
        self.buf = buf;
        if let Err(e) = written {
            self.log.file = None;
            return Err(e);
        }
        self.log.bytes += size;
        self.log.records += 1;
        self.log.entries += count;
        self.log.end = Some(end);
        Ok(size)
    }

    /// Appends `updates` as one record, an entry of `±1` per update:
    /// [`append_net`](Self::append_net) of the batch they are, unfolded.
    ///
    /// # Errors
    ///
    /// As [`append_net`](Self::append_net).
    pub fn append(&mut self, updates: &[FlowUpdate]) -> Result<u64, PersistError> {
        self.append_net(&NetBatch::from_updates(updates))
    }

    /// Replays the update log onto a state restored from this manager's
    /// snapshot, which stands at stream position `from`, and adopts the
    /// pair: later appends extend them. Each record that starts exactly
    /// where the state so far ends goes to `apply`, in order. Records
    /// that end at or before `from` are skipped: a crash between a
    /// snapshot's rename and the log's truncation leaves them. Replay
    /// stops at the first record that is torn, fails its CRC or does
    /// not extend the state; it and every later record are counted as
    /// dropped, the reason is returned, and they are cut off the file.
    /// A missing log is an empty one; a log with a wrong header is
    /// dropped whole. A version-1 log replays but is not adopted: the
    /// next checkpoint is a snapshot, which replaces it with a current
    /// one.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the log exists but cannot be
    /// read, or its dropped tail cannot be cut; nothing is adopted then,
    /// so the next checkpoint is a snapshot.
    pub fn replay_log(
        &mut self,
        from: u64,
        apply: impl FnMut(&NetBatch),
    ) -> Result<LogReplay, PersistError> {
        let bytes = match fs::read(self.log_path()) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(source) => {
                return Err(PersistError::Io {
                    context: format!("read update log {:?}", self.log_path()),
                    source,
                })
            }
        };
        let replay = log::replay(&bytes, from, apply);
        self.log.file = None;
        self.log.bytes = replay.kept_bytes;
        self.log.records = replay.replayed + replay.skipped;
        self.log.entries = replay.entries;
        if replay.dropped > 0 {
            self.open_log(true)?;
        }
        if replay.legacy {
            // Reopened, and cut to a current header, by the next save.
            self.log.file = None;
        } else {
            self.log.end = Some(replay.end);
        }
        Ok(replay)
    }

    /// Reads and decodes the checkpoint file, failing if it is absent.
    pub fn load(&self) -> Result<Checkpoint, PersistError> {
        let bytes = fs::read(&self.path).map_err(|source| PersistError::Io {
            context: format!("read checkpoint {:?}", self.path),
            source,
        })?;
        decode(&bytes)
    }

    /// Reads the checkpoint file if it exists: `Ok(None)` when the file
    /// is absent (the normal cold-start case), `Ok(Some(..))` on a
    /// successful restore, and an error for any present-but-unreadable
    /// file. The update log is read separately, by
    /// [`replay_log`](Self::replay_log).
    pub fn try_load(&self) -> Result<Option<Checkpoint>, PersistError> {
        match fs::read(&self.path) {
            Ok(bytes) => decode(&bytes).map(Some),
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(source) => Err(PersistError::Io {
                context: format!("read checkpoint {:?}", self.path),
                source,
            }),
        }
    }

    fn temp_path(&self) -> PathBuf {
        sibling(&self.path, ".tmp")
    }

    /// The open update log, opened first if need be.
    fn log_file(&mut self) -> Result<&mut File, PersistError> {
        match self.log.file {
            Some(ref mut file) => Ok(file),
            None => self.open_log(false),
        }
    }

    /// Opens the update log for appending, keeping the bytes that
    /// extend the snapshot: with fewer than a header's worth, it starts
    /// over with just its header. The cut is synced when `durable`, and
    /// the directory entry when the file is created; otherwise the next
    /// append's `fdatasync` makes the cut durable.
    fn open_log(&mut self, durable: bool) -> Result<&mut File, PersistError> {
        let path = self.log_path();
        let created = !path.exists();
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
            .map_err(io_err("open update log"))?;
        let keep = self.log.bytes;
        let len = file.metadata().map_err(io_err("stat update log"))?.len();
        if keep < LOG_HEADER_LEN {
            file.set_len(0).map_err(io_err("truncate update log"))?;
            file.write_all(&log::header())
                .map_err(io_err("write update log header"))?;
        } else if len < keep {
            return Err(PersistError::Corrupt {
                context: format!("update log shrank from {keep} to {len} bytes since it was read"),
            });
        } else {
            file.set_len(keep).map_err(io_err("truncate update log"))?;
        }
        if durable {
            sync(&file, false).map_err(io_err("sync update log"))?;
        }
        if created {
            sync_dir(&path);
        }
        self.log.bytes = keep.max(LOG_HEADER_LEN);
        Ok(self.log.file.insert(file))
    }

    fn write_record(&mut self, record: &[u8]) -> Result<(), PersistError> {
        let file = self.log_file()?;
        file.write_all(record)
            .map_err(io_err("append update log"))?;
        sync(file, true).map_err(io_err("sync update log"))
    }

    /// Empties the update log after a save, if there is one, down to
    /// its header; an open log keeps its handle. Only a log that is not
    /// `ours` is cut durably.
    fn truncate_log(&mut self, ours: bool) -> Result<(), PersistError> {
        self.log.records = 0;
        self.log.entries = 0;
        self.log.bytes = 0;
        if let Some(file) = self.log.file.take() {
            file.set_len(LOG_HEADER_LEN)
                .map_err(io_err("truncate update log"))?;
            self.log.file = Some(file);
            self.log.bytes = LOG_HEADER_LEN;
        } else if self.log_path().exists() {
            self.open_log(!ours)?;
        }
        Ok(())
    }
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "checkpoint".into());
    name.push(suffix);
    path.with_file_name(name)
}

fn io_err(context: &str) -> impl FnOnce(std::io::Error) -> PersistError {
    let context = context.to_string();
    move |source| PersistError::Io { context, source }
}

/// The directory holding `path`. A bare file name's parent is the empty
/// path, which cannot be opened, so it resolves to `.`.
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => parent,
        _ => Path::new("."),
    }
}

#[cfg(test)]
thread_local! {
    /// Syncs this thread has issued, for the tests that count them.
    static SYNCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// `fdatasync`s (`data_only`) or `fsync`s `file`. Every sync the
/// manager issues goes through here.
fn sync(file: &File, data_only: bool) -> std::io::Result<()> {
    #[cfg(test)]
    SYNCS.with(|n| n.set(n.get() + 1));
    if data_only {
        file.sync_data()
    } else {
        file.sync_all()
    }
}

/// Fsyncs the directory holding `path`, so a rename or a file creation
/// there is durable. Best effort, because not every filesystem or
/// platform allows it.
fn sync_dir(path: &Path) {
    if let Ok(dir) = File::open(parent_dir(path)) {
        let _ = sync(&dir, false);
    }
}

/// Writes `bytes` to `tmp`, fsyncs it, renames it over `path`, then
/// fsyncs the parent directory (best effort). Leaves `tmp` behind on
/// failure; the caller removes it.
fn replace_durably(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
            .map_err(io_err("create temp checkpoint"))?;
        file.write_all(bytes)
            .map_err(io_err("write temp checkpoint"))?;
        sync(&file, false).map_err(io_err("sync temp checkpoint"))?;
    }
    fs::rename(tmp, path).map_err(io_err("rename checkpoint into place"))?;
    sync_dir(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};
    use std::io::Write;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dcs-persist-test-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_checkpoint(pairs: u32) -> Checkpoint {
        let config = SketchConfig::builder()
            .num_tables(3)
            .buckets_per_table(16)
            .seed(11)
            .build()
            .unwrap();
        let mut sketch = DistinctCountSketch::new(config);
        for s in 0..pairs {
            sketch.insert(SourceAddr(s), DestAddr(s % 3));
        }
        Checkpoint::Sketch(sketch.to_state())
    }

    #[test]
    fn save_then_load_roundtrips() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("monitor.ckpt");
        let mut manager = CheckpointManager::new(&path);
        let checkpoint = sample_checkpoint(100);
        let size = manager.save(&checkpoint).unwrap();
        assert!(size > 0);
        assert_eq!(manager.saves(), 1);
        assert_eq!(fs::metadata(&path).unwrap().len(), size);
        assert_eq!(manager.load().unwrap(), checkpoint);
        assert_eq!(manager.try_load().unwrap(), Some(checkpoint));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn try_load_of_missing_file_is_none() {
        let dir = temp_dir("missing");
        let manager = CheckpointManager::new(dir.join("never-written.ckpt"));
        assert_eq!(manager.try_load().unwrap(), None);
        assert!(matches!(manager.load(), Err(PersistError::Io { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_replaces_previous_checkpoint_atomically() {
        let dir = temp_dir("replace");
        let path = dir.join("monitor.ckpt");
        let mut manager = CheckpointManager::new(&path);
        let first = sample_checkpoint(10);
        let second = sample_checkpoint(500);
        manager.save(&first).unwrap();
        manager.save(&second).unwrap();
        assert_eq!(manager.saves(), 2);
        assert_eq!(manager.load().unwrap(), second);
        // No stray temp file left behind.
        assert!(!manager.temp_path().exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reused_buffer_leaves_no_stale_tail() {
        let dir = temp_dir("reuse");
        let path = dir.join("monitor.ckpt");
        let mut manager = CheckpointManager::new(&path);
        let large = sample_checkpoint(500);
        let small = sample_checkpoint(3);
        let large_size = manager.save(&large).unwrap();
        let small_size = manager.save(&small).unwrap();
        assert!(small_size < large_size, "{small_size} vs {large_size}");
        let on_disk = fs::read(&path).unwrap();
        assert_eq!(on_disk, crate::encode(&small));
        assert_eq!(manager.load().unwrap(), small);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_save_removes_its_temp_file() {
        let dir = temp_dir("failed-save");
        // The target is a non-empty directory, so the rename fails
        // after the temp file was written and synced.
        let path = dir.join("monitor.ckpt");
        fs::create_dir_all(path.join("occupied")).unwrap();
        let mut manager = CheckpointManager::new(&path);
        assert!(matches!(
            manager.save(&sample_checkpoint(20)),
            Err(PersistError::Io { .. })
        ));
        assert!(!manager.temp_path().exists(), "temp file left behind");
        assert_eq!(manager.saves(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_bare_file_name_syncs_the_working_directory() {
        assert_eq!(parent_dir(Path::new("monitor.ckpt")), Path::new("."));
        assert_eq!(
            parent_dir(Path::new("state/monitor.ckpt")),
            Path::new("state")
        );
        assert_eq!(parent_dir(Path::new("/monitor.ckpt")), Path::new("/"));
        assert!(File::open(parent_dir(Path::new("monitor.ckpt"))).is_ok());
    }

    fn updates(from: u32, n: u32) -> Vec<FlowUpdate> {
        (from..from + n)
            .map(|s| FlowUpdate::insert(SourceAddr(s), DestAddr(s % 3)))
            .collect()
    }

    #[test]
    fn appends_extend_the_snapshot_until_the_next_save_truncates_them() {
        let dir = temp_dir("append");
        let mut manager = CheckpointManager::new(dir.join("monitor.ckpt"));
        assert!(!manager.can_append(1), "nothing saved to extend");
        assert!(matches!(
            manager.append(&updates(0, 1)),
            Err(PersistError::Incompatible { .. })
        ));
        let Checkpoint::Sketch(state) = sample_checkpoint(40) else {
            unreachable!()
        };
        let mut sketch = DistinctCountSketch::from_state(state.clone()).unwrap();
        manager.save(&Checkpoint::Sketch(state)).unwrap();
        assert!(!manager.log_path().exists(), "a save creates no log");
        assert!(manager.can_append(5));
        for chunk in [updates(100, 5), updates(105, 7)] {
            let size = manager.append(&chunk).unwrap();
            assert_eq!(size, crate::log::record_len(chunk.len()));
            sketch.update_batch(&chunk);
        }
        assert_eq!(manager.log_records(), 2);
        assert_eq!(
            manager.log_bytes(),
            fs::metadata(manager.log_path()).unwrap().len()
        );

        let mut restored = CheckpointManager::new(manager.path());
        let Some(Checkpoint::Sketch(state)) = restored.try_load().unwrap() else {
            panic!("a sketch snapshot")
        };
        let mut resumed = DistinctCountSketch::from_state(state).unwrap();
        let from = resumed.updates_processed();
        let replay = restored
            .replay_log(from, |batch| resumed.apply_net(batch))
            .unwrap();
        assert_eq!((replay.replayed, replay.dropped), (2, 0));
        assert_eq!(resumed.to_state(), sketch.to_state());
        // The adopted pair is extended where the first manager left off.
        restored.append(&updates(112, 3)).unwrap();
        sketch.update_batch(&updates(112, 3));

        restored
            .save(&Checkpoint::Sketch(sketch.to_state()))
            .unwrap();
        assert_eq!(restored.log_records(), 0);
        assert_eq!(
            fs::read(restored.log_path()).unwrap(),
            crate::log::header(),
            "a save leaves only the log header"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_restore_budget_is_counted_in_entries() {
        let dir = temp_dir("budget");
        let mut manager = CheckpointManager::new(dir.join("monitor.ckpt"));
        manager.save(&sample_checkpoint(10)).unwrap();
        let budget = usize::try_from(LOG_ENTRY_BUDGET).unwrap();
        assert!(manager.can_append(budget));
        assert!(!manager.can_append(budget + 1));
        // A record that cancelled costs no replay, however much it
        // covers.
        let cancelled = NetBatch {
            entries: Vec::new(),
            covered: 1_000_000,
        };
        manager.append_net(&cancelled).unwrap();
        assert!(manager.can_append(budget));
        manager.append(&updates(0, 3)).unwrap();
        assert!(manager.can_append(budget - 3));
        assert!(!manager.can_append(budget - 2));
        // A restore adopts the count with the log; a save empties both.
        let mut restored = CheckpointManager::new(manager.path());
        let replay = restored.replay_log(10, |_| {}).unwrap();
        assert_eq!((replay.entries, replay.end), (3, 1_000_013));
        assert!(!restored.can_append(budget - 2));
        restored.save(&sample_checkpoint(12)).unwrap();
        assert!(restored.can_append(budget));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_no_replay_could_accept_is_refused() {
        let dir = temp_dir("refused");
        let mut manager = CheckpointManager::new(dir.join("monitor.ckpt"));
        manager.save(&sample_checkpoint(10)).unwrap();
        let overfull = NetBatch {
            covered: 2,
            ..NetBatch::from_updates(&updates(0, 3))
        };
        let past_the_end = NetBatch {
            covered: u64::MAX,
            ..NetBatch::from_updates(&updates(0, 3))
        };
        for batch in [overfull, past_the_end] {
            assert!(matches!(
                manager.append_net(&batch),
                Err(PersistError::Incompatible { .. })
            ));
        }
        assert_eq!(manager.log_records(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_version_1_log_replays_and_the_next_save_replaces_it() {
        let dir = temp_dir("v1-log");
        let path = dir.join("monitor.ckpt");
        let Checkpoint::Sketch(state) = sample_checkpoint(40) else {
            unreachable!()
        };
        let mut expected = DistinctCountSketch::from_state(state.clone()).unwrap();
        CheckpointManager::new(&path)
            .save(&Checkpoint::Sketch(state.clone()))
            .unwrap();
        let logged = updates(100, 6);
        let from = state.updates_processed;
        fs::write(
            sibling(&path, ".log"),
            crate::log::v1_log(&[(from, &logged[..4]), (from + 4, &logged[4..])]),
        )
        .unwrap();
        expected.update_batch(&logged);

        let mut restored = CheckpointManager::new(&path);
        let mut resumed = DistinctCountSketch::from_state(state).unwrap();
        let replay = restored
            .replay_log(from, |batch| resumed.apply_net(batch))
            .unwrap();
        assert_eq!((replay.replayed, replay.dropped), (2, 0));
        assert_eq!(resumed.to_state(), expected.to_state());
        // Not extended in the old layout: the next checkpoint is a
        // snapshot, and it leaves a current header behind.
        assert!(!restored.can_append(0));
        assert!(matches!(
            restored.append(&updates(106, 1)),
            Err(PersistError::Incompatible { .. })
        ));
        restored
            .save(&Checkpoint::Sketch(resumed.to_state()))
            .unwrap();
        assert_eq!(fs::read(restored.log_path()).unwrap(), crate::log::header());
        restored.append(&updates(106, 1)).unwrap();
        assert!(CheckpointManager::new(&path)
            .replay_log(resumed.updates_processed(), |_| {})
            .unwrap()
            .problem
            .is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The syncs `f` issues on this thread.
    fn syncs(f: impl FnOnce()) -> u64 {
        let before = SYNCS.with(|n| n.get());
        f();
        SYNCS.with(|n| n.get()) - before
    }

    #[test]
    fn a_snapshot_issues_two_syncs_and_an_append_one() {
        let dir = temp_dir("syncs");
        let mut manager = CheckpointManager::new(dir.join("monitor.ckpt"));
        let save = |manager: &mut CheckpointManager, pairs| {
            syncs(|| {
                manager.save(&sample_checkpoint(pairs)).unwrap();
            })
        };
        assert_eq!(save(&mut manager, 10), 2, "no log yet");
        let append = |manager: &mut CheckpointManager, from, n| {
            syncs(|| {
                manager.append(&updates(from, n)).unwrap();
            })
        };
        assert_eq!(append(&mut manager, 0, 4), 2, "the new log's directory");
        assert_eq!(append(&mut manager, 4, 4), 1);
        assert_eq!(save(&mut manager, 18), 2, "over the open log");
        assert_eq!(append(&mut manager, 18, 2), 1, "the log is kept open");

        // A restore adopts the log: its first save cuts it unsynced too.
        let mut restored = CheckpointManager::new(manager.path());
        restored.replay_log(18, |_| {}).unwrap();
        assert_eq!(save(&mut restored, 20), 2, "over an adopted log");
        // A manager that never adopted the log cuts it durably.
        restored.append(&updates(20, 1)).unwrap();
        let mut fresh = CheckpointManager::new(manager.path());
        assert_eq!(save(&mut fresh, 21), 3, "over a foreign log");
        assert_eq!(fs::read(fresh.log_path()).unwrap(), crate::log::header());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_append_is_cut_off_before_the_next_one() {
        let dir = temp_dir("torn");
        let mut manager = CheckpointManager::new(dir.join("monitor.ckpt"));
        manager.save(&sample_checkpoint(10)).unwrap();
        manager.append(&updates(0, 4)).unwrap();
        let kept = manager.log_bytes();
        // A crash mid-append leaves part of a record behind.
        let mut log = OpenOptions::new()
            .append(true)
            .open(manager.log_path())
            .unwrap();
        log.write_all(&[0xab; 7]).unwrap();
        drop(log);

        let mut restored = CheckpointManager::new(manager.path());
        let replay = restored.replay_log(10, |_| {}).unwrap();
        assert_eq!((replay.replayed, replay.dropped), (1, 1));
        assert!(matches!(
            replay.problem,
            Some(PersistError::Truncated { .. })
        ));
        assert_eq!(fs::metadata(restored.log_path()).unwrap().len(), kept);
        restored.append(&updates(4, 2)).unwrap();
        let clean = CheckpointManager::new(manager.path())
            .replay_log(10, |_| {})
            .unwrap();
        assert_eq!((clean.replayed, clean.dropped, clean.end), (2, 0, 16));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_file_surfaces_a_typed_error() {
        let dir = temp_dir("corrupt");
        let path = dir.join("monitor.ckpt");
        let mut manager = CheckpointManager::new(&path);
        manager.save(&sample_checkpoint(50)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(manager.try_load().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
