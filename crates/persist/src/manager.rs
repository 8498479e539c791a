//! Atomic checkpoint files on disk.
//!
//! [`CheckpointManager`] owns one checkpoint path and guarantees that
//! the file at that path is always a *complete* checkpoint: saves go
//! through a temporary sibling file, are fsynced, and are then renamed
//! into place. A crash at any instant leaves either the previous
//! complete checkpoint or the new complete checkpoint — never a torn
//! mixture (the codec's CRC framing catches the pathological cases a
//! filesystem might still produce).

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{decode, encode_into, Checkpoint};
use crate::error::PersistError;

/// Writes and reads checkpoints at a fixed path with atomic-rename
/// semantics.
#[derive(Debug)]
pub struct CheckpointManager {
    path: PathBuf,
    saves: u64,
    bytes_last: u64,
    bytes_total: u64,
    /// The encode buffer, kept across saves so periodic checkpoints of
    /// a steady-size state reuse one allocation.
    buf: Vec<u8>,
}

impl CheckpointManager {
    /// Creates a manager for the checkpoint file at `path`. Nothing is
    /// touched on disk until [`save`](Self::save) is called.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            saves: 0,
            bytes_last: 0,
            bytes_total: 0,
            buf: Vec::new(),
        }
    }

    /// The checkpoint path this manager owns.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of successful saves so far.
    pub fn saves(&self) -> u64 {
        self.saves
    }

    /// Size in bytes of the most recent successful save.
    pub fn bytes_last(&self) -> u64 {
        self.bytes_last
    }

    /// Total bytes written across all successful saves.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }

    /// Atomically replaces the checkpoint file with an encoding of
    /// `checkpoint`, returning the encoded size in bytes.
    ///
    /// The write path is: encode → write to a `.tmp` sibling →
    /// `fsync` the sibling → rename over the target → best-effort
    /// `fsync` of the parent directory. A crash before the rename
    /// leaves the previous checkpoint intact; a crash after it leaves
    /// the new one. A failed save removes the `.tmp` sibling (best
    /// effort) before returning the error.
    pub fn save(&mut self, checkpoint: &Checkpoint) -> Result<u64, PersistError> {
        let mut buf = std::mem::take(&mut self.buf);
        encode_into(checkpoint, &mut buf);
        let saved = self.save_encoded(&buf);
        self.buf = buf;
        saved
    }

    /// The write half of [`save`](Self::save): atomically replaces the
    /// checkpoint file with `bytes`, which must be a document produced
    /// by [`encode`](crate::encode) (they are written as given, not
    /// re-validated). Lets a caller time encoding and the durable write
    /// separately.
    pub fn save_encoded(&mut self, bytes: &[u8]) -> Result<u64, PersistError> {
        let tmp = self.temp_path();
        if let Err(e) = replace_durably(&tmp, &self.path, bytes) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        let size = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
        self.saves += 1;
        self.bytes_last = size;
        self.bytes_total = self.bytes_total.saturating_add(size);
        Ok(size)
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
    /// file.
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
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "checkpoint".into());
        name.push(".tmp");
        self.path.with_file_name(name)
    }
}

/// Writes `bytes` to `tmp`, fsyncs it, renames it over `path`, then
/// fsyncs the parent directory (best effort). Leaves `tmp` behind on
/// failure; the caller removes it.
fn replace_durably(tmp: &Path, path: &Path, bytes: &[u8]) -> Result<(), PersistError> {
    let io_err = |context: &str| {
        let context = context.to_string();
        move |source: std::io::Error| PersistError::Io { context, source }
    };
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(tmp)
            .map_err(io_err("create temp checkpoint"))?;
        file.write_all(bytes)
            .map_err(io_err("write temp checkpoint"))?;
        file.sync_all().map_err(io_err("sync temp checkpoint"))?;
    }
    fs::rename(tmp, path).map_err(io_err("rename checkpoint into place"))?;
    // Durability of the rename itself needs a directory fsync; best
    // effort because not every filesystem/platform allows it.
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_core::{DestAddr, DistinctCountSketch, SketchConfig, SourceAddr};

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
        assert_eq!(manager.bytes_last(), size);
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
