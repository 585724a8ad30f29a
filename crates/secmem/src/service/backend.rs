//! Pluggable persistence backends plus deterministic fault injectors.
//!
//! A [`StorageBackend`] owns two byte stores: an append-only journal and an
//! atomically-replaceable checkpoint. The contract recovery depends on:
//!
//! * `append_journal` either appends the full buffer or (under a crash) a
//!   strict *prefix* of it — it never interleaves or reorders;
//! * `install_checkpoint` is atomic: after a crash the old checkpoint is
//!   intact or the new one is fully installed, never a mixture;
//! * `truncate_journal` happens after a successful install, so a crash
//!   between the two leaves a new checkpoint plus stale (idempotently
//!   skippable) journal records.
//!
//! [`CrashInjector`] and [`FlakyBackend`] wrap any backend to inject
//! seeded crashes (including torn final appends) and transient append
//! failures; the crash campaign and the retry tests drive them.
//! [`corrupt_byte`] models at-rest bit rot on any backend through the same
//! five operations, so the persistence contract carries no fault hook.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Why a backend operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// An I/O error from a file-backed store.
    Io(String),
    /// The (injected) machine crashed; no further operations will succeed
    /// on this instance. Recover from the persisted bytes.
    Crashed,
    /// A transient fault: retrying the same operation may succeed.
    Transient(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Io(e) => write!(f, "backend I/O error: {e}"),
            BackendError::Crashed => write!(f, "backend crashed"),
            BackendError::Transient(e) => write!(f, "transient backend fault: {e}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Which persisted byte store [`corrupt_byte`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The append-only write-ahead journal.
    Journal,
    /// The checkpoint image.
    Checkpoint,
}

/// A persistence target for the secure-memory service.
pub trait StorageBackend: Send {
    /// Appends framed record bytes to the journal.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`]; `Transient` faults may be retried.
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError>;

    /// The full journal contents.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`].
    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError>;

    /// Empties the journal (called after a successful checkpoint install).
    ///
    /// # Errors
    ///
    /// Any [`BackendError`].
    fn truncate_journal(&mut self) -> Result<(), BackendError>;

    /// Atomically replaces the checkpoint image.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`]. On failure the previous checkpoint must
    /// remain intact.
    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError>;

    /// The current checkpoint image, if one was ever installed.
    ///
    /// # Errors
    ///
    /// Any [`BackendError`].
    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError>;
}

/// XORs one persisted byte of `region` with `xor`, modelling at-rest bit
/// rot: the region is read, changed in one byte and written back (a
/// journal by truncate and one append, a checkpoint by install). Returns
/// `false`, changing nothing, when the region is empty or `offset` is out
/// of range.
///
/// # Errors
///
/// Any [`BackendError`] of those operations.
pub fn corrupt_byte(
    backend: &mut impl StorageBackend,
    region: Region,
    offset: usize,
    xor: u8,
) -> Result<bool, BackendError> {
    let mut bytes = match region {
        Region::Journal => backend.journal_bytes()?,
        Region::Checkpoint => backend.checkpoint_bytes()?.unwrap_or_default(),
    };
    let Some(byte) = bytes.get_mut(offset) else {
        return Ok(false);
    };
    *byte ^= xor;
    match region {
        Region::Journal => {
            backend.truncate_journal()?;
            backend.append_journal(&bytes)?;
        }
        Region::Checkpoint => backend.install_checkpoint(&bytes)?,
    }
    Ok(true)
}

/// Volatile backend: two byte vectors. The crash campaign's fast path.
#[derive(Debug, Clone, Default)]
pub struct InMemoryBackend {
    journal: Vec<u8>,
    checkpoint: Option<Vec<u8>>,
}

impl InMemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for InMemoryBackend {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        self.journal.extend_from_slice(bytes);
        Ok(())
    }

    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError> {
        Ok(self.journal.clone())
    }

    fn truncate_journal(&mut self) -> Result<(), BackendError> {
        self.journal.clear();
        Ok(())
    }

    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        self.checkpoint = Some(bytes.to_vec());
        Ok(())
    }

    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError> {
        Ok(self.checkpoint.clone())
    }
}

/// Durable backend: a directory holding `journal.wal` and
/// `checkpoint.img`, with checkpoint installs staged through a temp file
/// and `rename` for atomicity.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
}

impl FileBackend {
    /// Opens (creating if needed) the backing directory.
    ///
    /// # Errors
    ///
    /// [`BackendError::Io`] if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, BackendError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| BackendError::Io(e.to_string()))?;
        Ok(FileBackend { dir })
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.wal")
    }

    fn checkpoint_path(&self) -> PathBuf {
        self.dir.join("checkpoint.img")
    }
}

impl StorageBackend for FileBackend {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.journal_path())
            .map_err(|e| BackendError::Io(e.to_string()))?;
        f.write_all(bytes)
            .map_err(|e| BackendError::Io(e.to_string()))
    }

    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError> {
        match fs::read(self.journal_path()) {
            Ok(v) => Ok(v),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(BackendError::Io(e.to_string())),
        }
    }

    fn truncate_journal(&mut self) -> Result<(), BackendError> {
        fs::write(self.journal_path(), []).map_err(|e| BackendError::Io(e.to_string()))
    }

    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        let tmp = self.dir.join("checkpoint.tmp");
        fs::write(&tmp, bytes).map_err(|e| BackendError::Io(e.to_string()))?;
        fs::rename(&tmp, self.checkpoint_path()).map_err(|e| BackendError::Io(e.to_string()))
    }

    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError> {
        match fs::read(self.checkpoint_path()) {
            Ok(v) => Ok(Some(v)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(BackendError::Io(e.to_string())),
        }
    }
}

/// A seeded crash point: die on the Nth mutating backend call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSchedule {
    /// 1-based index of the mutating call (`append_journal`,
    /// `install_checkpoint`, `truncate_journal`) that crashes; 0 = never.
    pub crash_on_op: u64,
    /// For an append crash: how many bytes of the final record survive,
    /// clamped to one byte short of the record, so a strict prefix
    /// survives. Models a torn write.
    pub torn_keep: u64,
}

impl CrashSchedule {
    /// A schedule that never fires.
    pub fn never() -> Self {
        CrashSchedule {
            crash_on_op: 0,
            torn_keep: 0,
        }
    }
}

/// Wraps a backend with a deterministic crash schedule.
///
/// Once the schedule fires, every subsequent operation returns
/// [`BackendError::Crashed`]; [`CrashInjector::into_inner`] hands the
/// surviving bytes to recovery — exactly what a reboot would find.
#[derive(Debug)]
pub struct CrashInjector<B> {
    inner: B,
    schedule: CrashSchedule,
    mutations: u64,
    crashed: bool,
}

impl<B: StorageBackend> CrashInjector<B> {
    /// Wraps `inner` under `schedule`.
    pub fn new(inner: B, schedule: CrashSchedule) -> Self {
        CrashInjector {
            inner,
            schedule,
            mutations: 0,
            crashed: false,
        }
    }

    /// Whether the schedule has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Unwraps the post-crash (or never-crashed) backend for recovery.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Counts a mutating call; true if this is the one that crashes.
    fn tick(&mut self) -> bool {
        self.mutations += 1;
        if self.schedule.crash_on_op != 0 && self.mutations == self.schedule.crash_on_op {
            self.crashed = true;
        }
        self.crashed
    }
}

impl<B: StorageBackend> StorageBackend for CrashInjector<B> {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        if self.crashed {
            return Err(BackendError::Crashed);
        }
        if self.tick() {
            // Torn write: a strict prefix of the record reaches the medium.
            let keep = (self.schedule.torn_keep as usize).min(bytes.len().saturating_sub(1));
            if keep > 0 {
                self.inner.append_journal(&bytes[..keep])?;
            }
            return Err(BackendError::Crashed);
        }
        self.inner.append_journal(bytes)
    }

    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError> {
        self.inner.journal_bytes()
    }

    fn truncate_journal(&mut self) -> Result<(), BackendError> {
        if self.crashed || self.tick() {
            // Crash before the truncate applies: stale records survive.
            return Err(BackendError::Crashed);
        }
        self.inner.truncate_journal()
    }

    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        if self.crashed || self.tick() {
            // Crash before the atomic rename: the old checkpoint stays.
            return Err(BackendError::Crashed);
        }
        self.inner.install_checkpoint(bytes)
    }

    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError> {
        self.inner.checkpoint_bytes()
    }
}

/// Wraps a backend so the next N journal appends fail with a transient
/// fault — the adversary the service's append retries are sized against.
#[derive(Debug)]
pub struct FlakyBackend<B> {
    inner: B,
    fail_next_appends: u64,
}

impl<B: StorageBackend> FlakyBackend<B> {
    /// Wraps `inner`; the first `fail_next_appends` appends return
    /// [`BackendError::Transient`].
    pub fn new(inner: B, fail_next_appends: u64) -> Self {
        FlakyBackend {
            inner,
            fail_next_appends,
        }
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }
}

impl<B: StorageBackend> StorageBackend for FlakyBackend<B> {
    fn append_journal(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        if self.fail_next_appends > 0 {
            self.fail_next_appends -= 1;
            return Err(BackendError::Transient("injected append fault".into()));
        }
        self.inner.append_journal(bytes)
    }

    fn journal_bytes(&self) -> Result<Vec<u8>, BackendError> {
        self.inner.journal_bytes()
    }

    fn truncate_journal(&mut self) -> Result<(), BackendError> {
        self.inner.truncate_journal()
    }

    fn install_checkpoint(&mut self, bytes: &[u8]) -> Result<(), BackendError> {
        self.inner.install_checkpoint(bytes)
    }

    fn checkpoint_bytes(&self) -> Result<Option<Vec<u8>>, BackendError> {
        self.inner.checkpoint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mut b: impl StorageBackend) {
        b.append_journal(&[1, 2, 3]).unwrap();
        b.append_journal(&[4]).unwrap();
        assert_eq!(b.journal_bytes().unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(b.checkpoint_bytes().unwrap(), None);
        b.install_checkpoint(&[9, 9]).unwrap();
        assert_eq!(b.checkpoint_bytes().unwrap(), Some(vec![9, 9]));
        b.truncate_journal().unwrap();
        assert!(b.journal_bytes().unwrap().is_empty());
        assert!(corrupt_byte(&mut b, Region::Checkpoint, 1, 0xFF).unwrap());
        assert_eq!(b.checkpoint_bytes().unwrap(), Some(vec![9, 9 ^ 0xFF]));
        assert!(!corrupt_byte(&mut b, Region::Journal, 0, 1).unwrap());
    }

    #[test]
    fn inmemory_contract() {
        roundtrip(InMemoryBackend::new());
    }

    #[test]
    fn file_contract() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-scratch")
            .join(format!("emcc-backend-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        roundtrip(FileBackend::open(&dir).unwrap());
        // Reopening sees the persisted state.
        let b = FileBackend::open(&dir).unwrap();
        assert!(b.journal_bytes().unwrap().is_empty());
        assert!(b.checkpoint_bytes().unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_injector_tears_final_append() {
        // A strict prefix of the crashed record survives, however many
        // bytes the schedule keeps.
        for (torn_keep, kept) in [(2, vec![1, 2, 3, 4, 5]), (10_000, vec![1, 2, 3, 4, 5, 6])] {
            let schedule = CrashSchedule {
                crash_on_op: 2,
                torn_keep,
            };
            let mut b = CrashInjector::new(InMemoryBackend::new(), schedule);
            b.append_journal(&[1, 2, 3]).unwrap();
            assert_eq!(b.append_journal(&[4, 5, 6, 7]), Err(BackendError::Crashed));
            assert!(b.crashed());
            assert_eq!(b.append_journal(&[8]), Err(BackendError::Crashed));
            assert_eq!(b.into_inner().journal_bytes().unwrap(), kept);
        }
    }

    #[test]
    fn crash_injector_keeps_old_checkpoint() {
        let schedule = CrashSchedule {
            crash_on_op: 2,
            torn_keep: 0,
        };
        let mut b = CrashInjector::new(InMemoryBackend::new(), schedule);
        b.install_checkpoint(&[1]).unwrap();
        assert_eq!(b.install_checkpoint(&[2]), Err(BackendError::Crashed));
        assert_eq!(b.into_inner().checkpoint_bytes().unwrap(), Some(vec![1]));
    }

    #[test]
    fn flaky_backend_fails_then_recovers() {
        let mut b = FlakyBackend::new(InMemoryBackend::new(), 2);
        assert!(matches!(
            b.append_journal(&[1]),
            Err(BackendError::Transient(_))
        ));
        assert!(matches!(
            b.append_journal(&[1]),
            Err(BackendError::Transient(_))
        ));
        b.append_journal(&[1]).unwrap();
        assert_eq!(b.into_inner().journal_bytes().unwrap(), vec![1]);
    }
}
