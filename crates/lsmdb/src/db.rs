//! The LSM database: WAL + memtables + N leveled SSTable runs.
//!
//! Structure (RocksDB cost model at HEPnOS scales):
//!
//! * **memtable** — the active write buffer, mirrored to a numbered WAL;
//! * **imm** — frozen memtables queued for flush, each still owning its WAL
//!   file until the flushed table is in the manifest;
//! * **L0** — tables flushed from memtables; may overlap, read newest-first;
//! * **L1..Lmax** — sorted non-overlapping runs with exponentially growing
//!   byte targets (`level_base_bytes * level_multiplier^(i-1)`).
//!
//! Flushes and compactions run on a background worker draining an
//! [`argos::Pool`] (flush jobs at higher priority), so the write path never
//! merges tables inside a lock. When L0 builds up faster than compaction
//! drains it, writers first soft-stall (bounded wait) and then shed with
//! [`DbError::Busy`], mirroring the service-level watermark machinery so
//! overload degrades gracefully end to end.
//!
//! Durability protocol: SSTs are built at `<id>.sst.tmp` and renamed into
//! place (parent dir fsynced); the plain-text `MANIFEST` is replaced via
//! atomic rename; WAL files are deleted only after the tables covering them
//! are in the manifest. `open` replays surviving WALs in id order and
//! removes `*.tmp` files and unreferenced tables left by a crash.

use crate::cache::{CacheStats, ShardedReadCache};
use crate::levels::{key_span, Levels};
use crate::memtable::{Memtable, Value};
use crate::sstable::{SstError, SstRangeIter, SstReader, SstWriter};
use crate::wal::{parse_wal_file_name, wal_file_name, Wal, WalRecord};
use argos::{Pool, SchedulingDiscipline};
use parking_lot::{Condvar, Mutex, RwLock};
use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// When to fsync the WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// fsync on every commit (maximum durability, slowest).
    Always,
    /// Group commit: concurrent writers share one fsync — a leader syncs
    /// the log once for every commit sequenced before it.
    Group,
    /// Never fsync from the write path; data reaches the OS on every
    /// commit and the disk on flush/close. Survives process crashes but
    /// not power loss.
    None,
}

impl WalSync {
    /// Parse from config strings.
    pub fn parse(s: &str) -> Option<WalSync> {
        match s {
            "always" => Some(WalSync::Always),
            "group" => Some(WalSync::Group),
            "none" => Some(WalSync::None),
            _ => None,
        }
    }
}

/// Where compaction work runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionMode {
    /// Flush + compact synchronously on the writing thread after a commit
    /// crosses a trigger (the pre-leveling behavior; useful as a bench
    /// baseline and for deterministic tests).
    Inline,
    /// Flush + compact on the background worker; the write path only
    /// freezes memtables and enqueues work.
    Background,
}

/// Tuning knobs for a [`Db`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Memtable size that freezes it for flushing.
    pub memtable_bytes: usize,
    /// L0 table count at which compaction score reaches 1.0.
    pub l0_compaction_trigger: usize,
    /// L0 table count at which writers soft-stall (bounded wait).
    pub l0_slowdown_trigger: usize,
    /// L0 table count at which writers shed with [`DbError::Busy`].
    pub l0_stop_trigger: usize,
    /// Longest a writer will soft-stall before proceeding anyway.
    pub max_stall: Duration,
    /// Retry hint carried by [`DbError::Busy`].
    pub retry_after_hint: Duration,
    /// Number of levels (L0 plus `max_levels - 1` sorted runs).
    pub max_levels: usize,
    /// Byte target of L1; deeper levels multiply by `level_multiplier`.
    pub level_base_bytes: u64,
    /// Growth factor between consecutive level targets.
    pub level_multiplier: u64,
    /// Target size of each compaction output table (key-range partition).
    pub table_target_bytes: usize,
    /// Output tables are also cut when their grandparent-level overlap
    /// exceeds this, bounding future compaction fan-in; single-table
    /// inputs under this limit with no parent overlap move down trivially.
    pub grandparent_limit_bytes: u64,
    /// WAL fsync policy.
    pub wal_sync: WalSync,
    /// Inline or background compaction.
    pub compaction: CompactionMode,
    /// Bloom filter density.
    pub bloom_bits_per_key: usize,
    /// Byte budget of the read (value) cache; `0` disables it.
    pub read_cache_bytes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            memtable_bytes: 4 << 20,
            l0_compaction_trigger: 4,
            l0_slowdown_trigger: 8,
            l0_stop_trigger: 16,
            max_stall: Duration::from_millis(50),
            retry_after_hint: Duration::from_millis(10),
            max_levels: 5,
            level_base_bytes: 16 << 20,
            level_multiplier: 10,
            table_target_bytes: 4 << 20,
            grandparent_limit_bytes: 40 << 20,
            wal_sync: WalSync::None,
            compaction: CompactionMode::Background,
            bloom_bits_per_key: 10,
            read_cache_bytes: 0,
        }
    }
}

/// Errors from database operations.
#[derive(Debug)]
pub enum DbError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// An SSTable was corrupt or unreadable.
    Sst(SstError),
    /// The manifest references a missing file or is malformed.
    Manifest(String),
    /// Write shed: L0 is at the stop trigger and compaction has not caught
    /// up. The client should back off for `retry_after` and retry — this is
    /// the storage-level twin of the service watermark `Busy`.
    Busy {
        /// Suggested backoff before retrying.
        retry_after: Duration,
    },
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "db io error: {e}"),
            DbError::Sst(e) => write!(f, "db sstable error: {e}"),
            DbError::Manifest(m) => write!(f, "db manifest error: {m}"),
            DbError::Busy { retry_after } => {
                write!(f, "db busy (L0 full): retry after {retry_after:?}")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<SstError> for DbError {
    fn from(e: SstError) -> Self {
        DbError::Sst(e)
    }
}

/// An owned key/value pair as returned by scans.
pub type KeyValue = (Vec<u8>, Vec<u8>);

/// One sorted source feeding the k-way merge.
enum MergeSource {
    /// A memtable's entries in the range, copied out under the state lock.
    Mem(std::vec::IntoIter<(Vec<u8>, Value)>),
    /// A streaming cursor over one table.
    Table(SstRangeIter),
}

impl Iterator for MergeSource {
    type Item = (Vec<u8>, Value);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MergeSource::Mem(it) => it.next(),
            MergeSource::Table(it) => it.next(),
        }
    }
}

/// A batch of writes applied atomically (single lock acquisition, single WAL
/// flush). This is what Yokan's `put_multi` maps onto.
#[derive(Debug, Default, Clone)]
pub struct WriteBatch {
    ops: Vec<WalRecord>,
}

impl WriteBatch {
    /// Create an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue an insertion.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> &mut Self {
        self.ops.push(WalRecord::Put(key.to_vec(), value.to_vec()));
        self
    }

    /// Queue a deletion.
    pub fn delete(&mut self, key: &[u8]) -> &mut Self {
        self.ops.push(WalRecord::Delete(key.to_vec()));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Operational counters.
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Merging compactions performed.
    pub compactions: u64,
    /// Compactions satisfied by relinking a table down a level (no I/O).
    pub trivial_moves: u64,
    /// Entries currently in the active memtable.
    pub memtable_entries: usize,
    /// Frozen memtables waiting to flush.
    pub imm_memtables: usize,
    /// Live table count per level (index 0 = L0).
    pub level_tables: Vec<usize>,
    /// Live bytes per level.
    pub level_bytes: Vec<u64>,
    /// WAL fsyncs performed (all logs, lifetime of this open).
    pub wal_syncs: u64,
    /// Bytes appended to WALs (lifetime of this open).
    pub wal_bytes: u64,
    /// Writers that soft-stalled on L0 buildup.
    pub write_stalls: u64,
    /// Writers shed with `Busy` at the stop trigger.
    pub write_sheds: u64,
    /// Total time writers spent soft-stalled, in microseconds.
    pub stall_micros: u64,
    /// Per-table filter consultations on the point-read path.
    pub bloom_checks: u64,
    /// Consultations that skipped the table (range or bloom negative).
    pub bloom_negatives: u64,
    /// Tables actually searched on disk by point reads.
    pub sst_point_reads: u64,
    /// Bytes written by memtable flushes.
    pub flush_write_bytes: u64,
    /// Bytes read by merging compactions.
    pub compaction_read_bytes: u64,
    /// Bytes written by merging compactions.
    pub compaction_write_bytes: u64,
    /// Tombstones dropped at the bottom of the tree.
    pub tombstones_dropped: u64,
}

impl DbStats {
    /// Live L0 table count.
    pub fn l0_tables(&self) -> usize {
        self.level_tables.first().copied().unwrap_or(0)
    }

    /// Total live tables across all levels.
    pub fn total_tables(&self) -> usize {
        self.level_tables.iter().sum()
    }

    /// Total live bytes on disk (tables only).
    pub fn disk_bytes(&self) -> u64 {
        self.level_bytes.iter().sum()
    }

    /// Total bytes written to storage (WAL + flush + compaction): the
    /// numerator of write amplification.
    pub fn storage_write_bytes(&self) -> u64 {
        self.wal_bytes + self.flush_write_bytes + self.compaction_write_bytes
    }
}

/// Deterministic crash injection for recovery tests.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Abort a flush after the table is renamed into place but before the
    /// manifest records it (leaves an orphaned `.sst`).
    FlushBeforeInstall,
    /// Abort a compaction midway through writing outputs (leaves a
    /// dangling `.sst.tmp` plus completed orphan outputs).
    CompactionMidOutput,
    /// Abort a compaction after all outputs are durable but before the
    /// manifest swap (leaves orphaned `.sst` files; inputs stay live).
    CompactionBeforeInstall,
}

fn injected() -> DbError {
    DbError::Io(std::io::Error::other("injected failpoint"))
}

/// A frozen memtable and the WAL file that covers it.
struct ImmEntry {
    mem: Arc<Memtable>,
    wal_id: u64,
}

struct State {
    memtable: Memtable,
    wal: Wal,
    wal_id: u64,
    /// Commit sequence number (group-commit ordering).
    wal_seq: u64,
    /// Frozen memtables, oldest first.
    imm: Vec<ImmEntry>,
    levels: Levels,
    next_file: u64,
    /// WAL byte/sync counters accumulated from rotated-out logs.
    wal_bytes_rotated: u64,
    wal_syncs_rotated: u64,
}

struct GroupState {
    synced_seq: u64,
    leader_active: bool,
}

/// Soft-stall threshold on the frozen-memtable queue.
const IMM_SLOWDOWN: usize = 2;

struct DbInner {
    dir: PathBuf,
    opts: Options,
    state: RwLock<State>,
    cache: Option<ShardedReadCache>,
    /// Serializes flush/compaction executors (background worker vs the
    /// inline `flush`/`compact`/`wait_idle` paths).
    work: Mutex<()>,
    /// The compaction queue: jobs pushed by writers, drained by the worker.
    jobs: Arc<Pool>,
    /// Guards job pushes against the pool closing during shutdown
    /// (`true` = closed).
    sched: Mutex<bool>,
    flush_queued: AtomicBool,
    compact_queued: AtomicBool,
    compaction_paused: AtomicBool,
    shutdown: Arc<AtomicBool>,
    stall_lock: Mutex<()>,
    stall_cv: Condvar,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    bg_error: Mutex<Option<String>>,
    failpoint: Mutex<Option<Failpoint>>,
    // Counters.
    flushes: AtomicU64,
    compactions: AtomicU64,
    trivial_moves: AtomicU64,
    write_stalls: AtomicU64,
    write_sheds: AtomicU64,
    stall_micros: AtomicU64,
    bloom_checks: AtomicU64,
    bloom_negatives: AtomicU64,
    sst_point_reads: AtomicU64,
    flush_write_bytes: AtomicU64,
    compaction_read_bytes: AtomicU64,
    compaction_write_bytes: AtomicU64,
    tombstones_dropped: AtomicU64,
}

/// An LSM-tree key-value database rooted at a directory.
pub struct Db {
    inner: Arc<DbInner>,
    worker: Option<std::thread::JoinHandle<()>>,
}

const FLUSH_PRIO: u8 = 2;
const COMPACT_PRIO: u8 = 1;

impl Db {
    /// Open (creating if needed) a database in `dir`, replaying WALs,
    /// loading the manifest, and removing temp files and orphaned tables
    /// left by a crash.
    pub fn open(dir: &Path, opts: Options) -> Result<Db, DbError> {
        std::fs::create_dir_all(dir)?;
        let manifest = dir.join("MANIFEST");
        let mut entries: Vec<(usize, String)> = Vec::new();
        let mut next_file = 1u64;
        if manifest.exists() {
            let text = std::fs::read_to_string(&manifest)?;
            for line in text.lines() {
                let mut parts = line.split_whitespace();
                match (parts.next(), parts.next()) {
                    (Some("NEXT"), Some(n)) => {
                        next_file = n
                            .parse()
                            .map_err(|_| DbError::Manifest(format!("bad NEXT line: {line}")))?;
                    }
                    (Some(tag), Some(name)) if tag.starts_with('L') => {
                        let level: usize = tag[1..]
                            .parse()
                            .map_err(|_| DbError::Manifest(format!("bad level tag: {line}")))?;
                        entries.push((level, name.to_string()));
                    }
                    (None, _) => {}
                    _ => return Err(DbError::Manifest(format!("bad line: {line}"))),
                }
            }
        }
        // Remove temp files and tables the manifest does not reference —
        // debris from a crash mid-flush or mid-compaction.
        let mut wal_ids: Vec<u64> = Vec::new();
        let mut max_sst_id = 0u64;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") || name == "wal.new" {
                std::fs::remove_file(entry.path()).ok();
            } else if let Some(stem) = name.strip_suffix(".sst") {
                if !entries.iter().any(|(_, n)| n == &name) {
                    std::fs::remove_file(entry.path()).ok();
                } else if let Ok(id) = stem.parse::<u64>() {
                    max_sst_id = max_sst_id.max(id);
                }
            } else if let Some(id) = parse_wal_file_name(&name) {
                wal_ids.push(id);
            }
        }
        next_file = next_file.max(max_sst_id + 1);
        let mut loaded: Vec<(usize, Arc<SstReader>)> = Vec::with_capacity(entries.len());
        for (level, name) in entries {
            loaded.push((level, Arc::new(SstReader::open(&dir.join(name))?)));
        }
        let levels = Levels::from_manifest(opts.max_levels, loaded);
        // Replay surviving WALs in id order (legacy single-log layout
        // first), funnel everything into one fresh memtable + log, then
        // retire the old logs.
        wal_ids.sort_unstable();
        let mut replayed: Vec<WalRecord> = Vec::new();
        let legacy = dir.join("wal.log");
        if legacy.exists() {
            replayed.extend(Wal::replay(&legacy)?);
        }
        for id in &wal_ids {
            replayed.extend(Wal::replay(&dir.join(wal_file_name(*id)))?);
        }
        let new_wal_id = wal_ids.last().copied().unwrap_or(0) + 1;
        let mut memtable = Memtable::new();
        let mut wal = Wal::create(&dir.join(wal_file_name(new_wal_id)))?;
        for rec in &replayed {
            wal.append(rec)?;
            match rec {
                WalRecord::Put(k, v) => memtable.put(k, v),
                WalRecord::Delete(k) => memtable.delete(k),
            }
        }
        wal.sync()?;
        if legacy.exists() {
            std::fs::remove_file(&legacy).ok();
        }
        for id in &wal_ids {
            std::fs::remove_file(dir.join(wal_file_name(*id))).ok();
        }
        let cache = if opts.read_cache_bytes > 0 {
            Some(ShardedReadCache::new(opts.read_cache_bytes))
        } else {
            None
        };
        let background = opts.compaction == CompactionMode::Background;
        let inner = Arc::new(DbInner {
            dir: dir.to_path_buf(),
            opts,
            state: RwLock::new(State {
                memtable,
                wal,
                wal_id: new_wal_id,
                wal_seq: 0,
                imm: Vec::new(),
                levels,
                next_file,
                wal_bytes_rotated: 0,
                wal_syncs_rotated: 0,
            }),
            cache,
            work: Mutex::new(()),
            jobs: Arc::new(Pool::new("lsm-compaction", SchedulingDiscipline::Priority)),
            sched: Mutex::new(false),
            flush_queued: AtomicBool::new(false),
            compact_queued: AtomicBool::new(false),
            compaction_paused: AtomicBool::new(false),
            shutdown: Arc::new(AtomicBool::new(false)),
            stall_lock: Mutex::new(()),
            stall_cv: Condvar::new(),
            group: Mutex::new(GroupState {
                synced_seq: 0,
                leader_active: false,
            }),
            group_cv: Condvar::new(),
            bg_error: Mutex::new(None),
            failpoint: Mutex::new(None),
            flushes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            trivial_moves: AtomicU64::new(0),
            write_stalls: AtomicU64::new(0),
            write_sheds: AtomicU64::new(0),
            stall_micros: AtomicU64::new(0),
            bloom_checks: AtomicU64::new(0),
            bloom_negatives: AtomicU64::new(0),
            sst_point_reads: AtomicU64::new(0),
            flush_write_bytes: AtomicU64::new(0),
            compaction_read_bytes: AtomicU64::new(0),
            compaction_write_bytes: AtomicU64::new(0),
            tombstones_dropped: AtomicU64::new(0),
        });
        let worker = if background {
            let jobs = Arc::clone(&inner.jobs);
            let shutdown = Arc::clone(&inner.shutdown);
            Some(
                std::thread::Builder::new()
                    .name("lsm-worker".into())
                    .spawn(move || loop {
                        match jobs.pop_timeout(Duration::from_millis(100)) {
                            Some(task) => task(),
                            None => {
                                if shutdown.load(Ordering::SeqCst) {
                                    break;
                                }
                            }
                        }
                    })?,
            )
        } else {
            None
        };
        // A reopened database may already be over its triggers.
        if background {
            let needs = {
                let st = inner.state.read();
                st.levels.max_score(&inner.opts) >= 1.0
            };
            if needs {
                inner.schedule_compact();
            }
        }
        Ok(Db { inner, worker })
    }

    /// Insert or overwrite a key.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.inner
            .commit(&[WalRecord::Put(key.to_vec(), value.to_vec())])
    }

    /// Delete a key (idempotent).
    pub fn delete(&self, key: &[u8]) -> Result<(), DbError> {
        self.inner.commit(&[WalRecord::Delete(key.to_vec())])
    }

    /// Apply a batch atomically.
    pub fn write(&self, batch: &WriteBatch) -> Result<(), DbError> {
        if batch.ops.is_empty() {
            return Ok(());
        }
        self.inner.commit(&batch.ops)
    }

    /// Atomically insert `value` unless `key` already exists; returns the
    /// existing value if there is one (and writes nothing). Concurrent
    /// creators race on this, so the check and insert share one write lock.
    pub fn put_if_absent(&self, key: &[u8], value: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.put_if_absent(key, value)
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        self.inner.get(key)
    }

    /// Whether the key exists.
    pub fn contains(&self, key: &[u8]) -> Result<bool, DbError> {
        Ok(self.inner.get(key)?.is_some())
    }

    /// Collect up to `limit` live entries with key `>= lower` and
    /// (optionally) `< upper`, in sorted key order. `limit = 0` means
    /// unlimited. This is the primitive behind Yokan's `list_keys` /
    /// `list_keyvals`.
    pub fn scan(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<KeyValue>, DbError> {
        self.inner.scan(lower, upper, limit)
    }

    /// Count live entries in `[lower, upper)` (full scan; use sparingly).
    pub fn count_range(&self, lower: &[u8], upper: Option<&[u8]>) -> Result<usize, DbError> {
        Ok(self.inner.scan(lower, upper, 0)?.len())
    }

    /// Freeze the memtable (if non-empty) and flush every frozen memtable
    /// to L0 before returning.
    pub fn flush(&self) -> Result<(), DbError> {
        self.inner.flush_sync()
    }

    /// Targeted major compaction: flush, then repeatedly compact the
    /// neediest level until every compaction score is below 1.0. Leveling
    /// is preserved — this does **not** collapse the tree.
    pub fn compact(&self) -> Result<(), DbError> {
        self.inner.flush_sync()?;
        let _g = self.inner.work.lock();
        while self.inner.compact_once(None)? {}
        Ok(())
    }

    /// Compact one round of `level` into `level + 1` regardless of score
    /// (no-op on an empty or bottom level).
    pub fn compact_level(&self, level: usize) -> Result<(), DbError> {
        let _g = self.inner.work.lock();
        self.inner.compact_once(Some(level))?;
        Ok(())
    }

    /// Escape hatch for tests and benchmarks: flush, then push **every**
    /// table down until all data sits in a single sorted bottom-level run
    /// (tombstones fully dropped).
    pub fn compact_all(&self) -> Result<(), DbError> {
        self.inner.flush_sync()?;
        let _g = self.inner.work.lock();
        let n = {
            let st = self.inner.state.read();
            st.levels.num_levels()
        };
        for level in 0..n.saturating_sub(1) {
            loop {
                let empty = {
                    let st = self.inner.state.read();
                    st.levels.level(level).is_empty()
                };
                if empty {
                    break;
                }
                self.inner.compact_once(Some(level))?;
            }
        }
        Ok(())
    }

    /// Drain all pending flush and compaction work synchronously; returns
    /// once every frozen memtable is flushed and every level scores below
    /// 1.0. Background errors recorded by the worker surface here.
    pub fn wait_idle(&self) -> Result<(), DbError> {
        loop {
            {
                let _g = self.inner.work.lock();
                while self.inner.flush_one()? {}
                while self.inner.compact_once(None)? {}
            }
            if let Some(msg) = self.inner.bg_error.lock().take() {
                return Err(DbError::Io(std::io::Error::other(msg)));
            }
            let st = self.inner.state.read();
            if st.imm.is_empty()
                && (self.inner.compaction_paused.load(Ordering::SeqCst)
                    || st.levels.max_score(&self.inner.opts) < 1.0)
            {
                return Ok(());
            }
        }
    }

    /// Operational counters.
    pub fn stats(&self) -> DbStats {
        self.inner.stats()
    }

    /// `(hits, misses)` of the read cache (zeros when disabled).
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.inner.cache {
            Some(c) => c.hit_miss(),
            None => (0, 0),
        }
    }

    /// Full per-shard read-cache counters (all zeros when the cache is
    /// disabled).
    pub fn read_cache_stats(&self) -> CacheStats {
        match &self.inner.cache {
            Some(c) => c.stats(),
            None => CacheStats::default(),
        }
    }

    /// Last error recorded by the background worker, if any (cleared).
    pub fn take_background_error(&self) -> Option<String> {
        self.inner.bg_error.lock().take()
    }

    #[doc(hidden)]
    pub fn set_failpoint(&self, fp: Failpoint) {
        *self.inner.failpoint.lock() = Some(fp);
    }

    #[doc(hidden)]
    pub fn pause_compaction(&self, paused: bool) {
        self.inner.compaction_paused.store(paused, Ordering::SeqCst);
    }
}

impl Drop for Db {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut closed = self.inner.sched.lock();
            *closed = true;
            self.inner.jobs.close();
        }
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        // Push the WAL tail toward the disk on clean shutdown.
        let mut st = self.inner.state.write();
        let _ = match self.inner.opts.wal_sync {
            WalSync::Always | WalSync::Group => st.wal.sync(),
            WalSync::None => st.wal.flush(),
        };
    }
}

impl DbInner {
    fn sst_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:08}.sst"))
    }

    fn tmp_sst_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:08}.sst.tmp"))
    }

    fn wal_path(&self, id: u64) -> PathBuf {
        self.dir.join(wal_file_name(id))
    }

    fn take_failpoint(&self, fp: Failpoint) -> bool {
        let mut g = self.failpoint.lock();
        if *g == Some(fp) {
            *g = None;
            true
        } else {
            false
        }
    }

    fn background(&self) -> bool {
        self.opts.compaction == CompactionMode::Background
    }

    // ---- write path -----------------------------------------------------

    fn commit(self: &Arc<Self>, ops: &[WalRecord]) -> Result<(), DbError> {
        self.gate()?;
        let seq = {
            let mut st = self.state.write();
            self.apply_locked(&mut st, ops)?
        };
        self.after_commit(seq)
    }

    fn put_if_absent(
        self: &Arc<Self>,
        key: &[u8],
        value: &[u8],
    ) -> Result<Option<Vec<u8>>, DbError> {
        self.gate()?;
        let seq = {
            let mut st = self.state.write();
            if let Some(v) = self.lookup_no_cache(&st, key)? {
                return Ok(Some(v));
            }
            self.apply_locked(&mut st, &[WalRecord::Put(key.to_vec(), value.to_vec())])?
        };
        self.after_commit(seq)?;
        Ok(None)
    }

    /// Append + apply one commit under the held write lock; returns its
    /// sequence number for group commit.
    fn apply_locked(self: &Arc<Self>, st: &mut State, ops: &[WalRecord]) -> Result<u64, DbError> {
        for op in ops {
            st.wal.append(op)?;
        }
        match self.opts.wal_sync {
            WalSync::Always => st.wal.sync()?,
            WalSync::None => st.wal.flush()?,
            WalSync::Group => {}
        }
        for op in ops {
            match op {
                WalRecord::Put(k, v) => st.memtable.put(k, v),
                WalRecord::Delete(k) => st.memtable.delete(k),
            }
            if let Some(c) = &self.cache {
                let key = match op {
                    WalRecord::Put(k, _) | WalRecord::Delete(k) => k,
                };
                c.invalidate(key);
            }
        }
        st.wal_seq += 1;
        let seq = st.wal_seq;
        if st.memtable.approx_bytes() >= self.opts.memtable_bytes {
            self.freeze(st)?;
        }
        Ok(seq)
    }

    fn after_commit(self: &Arc<Self>, seq: u64) -> Result<(), DbError> {
        if self.opts.wal_sync == WalSync::Group {
            self.group_commit(seq)?;
        }
        if !self.background() {
            let pending = {
                let st = self.state.read();
                !st.imm.is_empty() || st.levels.max_score(&self.opts) >= 1.0
            };
            if pending {
                let _g = self.work.lock();
                while self.flush_one()? {}
                if !self.compaction_paused.load(Ordering::SeqCst) {
                    while self.compact_once(None)? {}
                }
            }
        }
        Ok(())
    }

    /// Admission gate for writers: shed at the L0 stop trigger, bounded
    /// soft-stall at the slowdown trigger or when flushes fall behind.
    /// Inline mode skips it — the writer is about to do the compaction
    /// itself.
    fn gate(&self) -> Result<(), DbError> {
        if !self.background() {
            return Ok(());
        }
        let (l0, imm) = {
            let st = self.state.read();
            (st.levels.level(0).len(), st.imm.len())
        };
        if l0 >= self.opts.l0_stop_trigger {
            self.write_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::Busy {
                retry_after: self.opts.retry_after_hint,
            });
        }
        if l0 < self.opts.l0_slowdown_trigger && imm < IMM_SLOWDOWN {
            return Ok(());
        }
        // Soft stall: wait (bounded) for background progress.
        self.write_stalls.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        {
            let mut g = self.stall_lock.lock();
            while t0.elapsed() < self.opts.max_stall {
                let (l0, imm) = {
                    let st = self.state.read();
                    (st.levels.level(0).len(), st.imm.len())
                };
                if l0 < self.opts.l0_slowdown_trigger && imm < IMM_SLOWDOWN {
                    break;
                }
                let remaining = self.opts.max_stall.saturating_sub(t0.elapsed());
                self.stall_cv.wait_for(&mut g, remaining);
            }
        }
        self.stall_micros
            .fetch_add(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
        // Re-check the hard limit after the stall.
        let l0 = self.state.read().levels.level(0).len();
        if l0 >= self.opts.l0_stop_trigger {
            self.write_sheds.fetch_add(1, Ordering::Relaxed);
            return Err(DbError::Busy {
                retry_after: self.opts.retry_after_hint,
            });
        }
        Ok(())
    }

    /// Rotate the active memtable into the frozen queue with a fresh WAL.
    /// Caller holds the state write lock.
    fn freeze(self: &Arc<Self>, st: &mut State) -> Result<(), DbError> {
        if st.memtable.is_empty() {
            return Ok(());
        }
        // The outgoing log must be fully on disk (or at the OS) before its
        // memtable leaves the write path.
        match self.opts.wal_sync {
            WalSync::Group => {
                st.wal.sync()?;
                let synced = st.wal_seq;
                let mut g = self.group.lock();
                g.synced_seq = g.synced_seq.max(synced);
                drop(g);
                self.group_cv.notify_all();
            }
            WalSync::Always => {}
            WalSync::None => st.wal.flush()?,
        }
        st.wal_bytes_rotated += st.wal.bytes_written();
        st.wal_syncs_rotated += st.wal.syncs();
        let old_wal_id = st.wal_id;
        let frozen = std::mem::replace(&mut st.memtable, Memtable::new());
        st.imm.push(ImmEntry {
            mem: Arc::new(frozen),
            wal_id: old_wal_id,
        });
        st.wal_id += 1;
        st.wal = Wal::create(&self.wal_path(st.wal_id))?;
        if self.background() {
            self.schedule_flush();
        }
        Ok(())
    }

    /// Group commit: wait until an fsync covering `my_seq` has happened,
    /// electing ourselves leader if nobody is syncing.
    fn group_commit(&self, my_seq: u64) -> Result<(), DbError> {
        let mut g = self.group.lock();
        loop {
            if g.synced_seq >= my_seq {
                return Ok(());
            }
            if !g.leader_active {
                g.leader_active = true;
                drop(g);
                // Leader: one fsync covers every commit sequenced so far.
                // The group mutex is NOT held here, so the state lock is
                // safe to take (no lock-order cycle with `freeze`).
                let result: Result<u64, DbError> = (|| {
                    let mut st = self.state.write();
                    let covered = st.wal_seq;
                    st.wal.sync()?;
                    Ok(covered)
                })();
                g = self.group.lock();
                g.leader_active = false;
                match result {
                    Ok(covered) => {
                        g.synced_seq = g.synced_seq.max(covered);
                        drop(g);
                        self.group_cv.notify_all();
                        return Ok(());
                    }
                    Err(e) => {
                        drop(g);
                        self.group_cv.notify_all();
                        return Err(e);
                    }
                }
            }
            self.group_cv.wait(&mut g);
        }
    }

    // ---- background scheduling ------------------------------------------

    fn schedule_flush(self: &Arc<Self>) {
        if self.flush_queued.swap(true, Ordering::SeqCst) {
            return;
        }
        let weak = Arc::downgrade(self);
        self.push_job(
            Box::new(move || DbInner::flush_job(&weak)),
            FLUSH_PRIO,
            &self.flush_queued,
        );
    }

    fn schedule_compact(self: &Arc<Self>) {
        if self.compact_queued.swap(true, Ordering::SeqCst) {
            return;
        }
        let weak = Arc::downgrade(self);
        self.push_job(
            Box::new(move || DbInner::compact_job(&weak)),
            COMPACT_PRIO,
            &self.compact_queued,
        );
    }

    fn push_job(&self, job: argos::Task, prio: u8, flag: &AtomicBool) {
        let closed = self.sched.lock();
        if *closed {
            flag.store(false, Ordering::SeqCst);
            return;
        }
        self.jobs.push_prio(job, prio);
    }

    fn flush_job(weak: &Weak<DbInner>) {
        let Some(db) = weak.upgrade() else { return };
        db.flush_queued.store(false, Ordering::SeqCst);
        let result = (|| -> Result<(), DbError> {
            let _g = db.work.lock();
            while db.flush_one()? {}
            Ok(())
        })();
        if let Err(e) = result {
            *db.bg_error.lock() = Some(e.to_string());
            return;
        }
        let needs = {
            let st = db.state.read();
            st.levels.max_score(&db.opts) >= 1.0
        };
        if needs {
            db.schedule_compact();
        }
    }

    fn compact_job(weak: &Weak<DbInner>) {
        let Some(db) = weak.upgrade() else { return };
        db.compact_queued.store(false, Ordering::SeqCst);
        let result = (|| -> Result<(), DbError> {
            let _g = db.work.lock();
            while db.compact_once(None)? {}
            Ok(())
        })();
        if let Err(e) = result {
            *db.bg_error.lock() = Some(e.to_string());
        }
    }

    /// Flush + drain used by `Db::flush` and the inline paths.
    fn flush_sync(self: &Arc<Self>) -> Result<(), DbError> {
        {
            let mut st = self.state.write();
            self.freeze(&mut st)?;
        }
        let _g = self.work.lock();
        while self.flush_one()? {}
        Ok(())
    }

    // ---- flush / compaction executors (caller holds `work`) -------------

    /// Flush the oldest frozen memtable to L0; `Ok(false)` when none.
    fn flush_one(&self) -> Result<bool, DbError> {
        let (mem, wal_id, final_path, tmp_path) = {
            let mut st = self.state.write();
            let Some(entry) = st.imm.first() else {
                return Ok(false);
            };
            let mem = Arc::clone(&entry.mem);
            let wal_id = entry.wal_id;
            let id = st.next_file;
            st.next_file += 1;
            (mem, wal_id, self.sst_path(id), self.tmp_sst_path(id))
        };
        // Build the table off-lock: the frozen memtable is immutable.
        let mut w = SstWriter::create(&tmp_path, self.opts.bloom_bits_per_key)?;
        for (k, v) in mem.iter() {
            w.add(k, v)?;
        }
        let reader = Arc::new(w.finish_to(&final_path)?);
        self.flush_write_bytes
            .fetch_add(reader.file_size(), Ordering::Relaxed);
        if self.take_failpoint(Failpoint::FlushBeforeInstall) {
            return Err(injected());
        }
        {
            let mut st = self.state.write();
            st.levels.push_l0(reader);
            st.imm.remove(0);
            self.write_manifest(&st)?;
        }
        // The WAL covering this memtable is no longer needed.
        std::fs::remove_file(self.wal_path(wal_id)).ok();
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.notify_progress();
        Ok(true)
    }

    /// Run one compaction: the neediest level (score ≥ 1.0), or `forced`
    /// regardless of score. `Ok(false)` when there is nothing to do.
    fn compact_once(&self, forced: Option<usize>) -> Result<bool, DbError> {
        if forced.is_none() && self.compaction_paused.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let pick = {
            let st = self.state.read();
            match forced {
                Some(level) => {
                    if level + 1 >= st.levels.num_levels() || st.levels.level(level).is_empty() {
                        None
                    } else {
                        Some(st.levels.pick_level(level, &self.opts))
                    }
                }
                None => st.levels.pick(&self.opts),
            }
        };
        let Some(pick) = pick else {
            return Ok(false);
        };
        let target = pick.from + 1;
        let (in_min, in_max) = key_span(&pick.inputs);
        if pick.trivial {
            // Relink the table one level down — no I/O beyond the manifest.
            let moved = Arc::clone(&pick.inputs[0]);
            let mut st = self.state.write();
            st.levels.remove(pick.from, &pick.inputs);
            st.levels.insert_sorted(target, vec![moved]);
            if pick.from >= 1 {
                st.levels.advance_cursor(pick.from, &in_max);
            }
            self.write_manifest(&st)?;
            drop(st);
            self.trivial_moves.fetch_add(1, Ordering::Relaxed);
            self.notify_progress();
            return Ok(true);
        }
        let read_bytes: u64 = pick
            .inputs
            .iter()
            .chain(pick.overlaps.iter())
            .map(|t| t.file_size())
            .sum();
        self.compaction_read_bytes
            .fetch_add(read_bytes, Ordering::Relaxed);
        // Snapshot grandparent overlaps for output cutting. Only the
        // executor mutates levels ≥ 1, so this stays valid off-lock.
        let grandparents: Vec<(Vec<u8>, u64)> = {
            let st = self.state.read();
            st.levels
                .overlapping(target + 1, &in_min, &in_max)
                .iter()
                .map(|t| (t.min_key().to_vec(), t.file_size()))
                .collect()
        };
        // Merge inputs (newest-first for L0 precedence) with the overlap
        // set from the target level.
        let mut sources: Vec<MergeSource> = Vec::new();
        if pick.from == 0 {
            for t in pick.inputs.iter().rev() {
                sources.push(MergeSource::Table(t.iter_all()));
            }
        } else {
            for t in &pick.inputs {
                sources.push(MergeSource::Table(t.iter_all()));
            }
        }
        for t in &pick.overlaps {
            sources.push(MergeSource::Table(t.iter_all()));
        }
        let mut merged = MergeIter::new(sources);
        let mut outputs: Vec<Arc<SstReader>> = Vec::new();
        let mut writer: Option<(SstWriter, PathBuf)> = None;
        let mut gp_idx = 0usize;
        let mut gp_acc = 0u64;
        while let Some((k, v)) = merged.next_entry() {
            if pick.drop_tombstones && matches!(v, Value::Tombstone) {
                self.tombstones_dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if writer.is_none() {
                let id = {
                    let mut st = self.state.write();
                    let id = st.next_file;
                    st.next_file += 1;
                    id
                };
                writer = Some((
                    SstWriter::create(&self.tmp_sst_path(id), self.opts.bloom_bits_per_key)?,
                    self.sst_path(id),
                ));
            }
            let (w, _) = writer.as_mut().expect("writer was just created");
            w.add(&k, &v)?;
            while gp_idx < grandparents.len() && grandparents[gp_idx].0.as_slice() <= k.as_slice() {
                gp_acc += grandparents[gp_idx].1;
                gp_idx += 1;
            }
            if w.data_bytes() >= self.opts.table_target_bytes as u64
                || gp_acc > self.opts.grandparent_limit_bytes
            {
                let (w, final_path) = writer.take().expect("writer present");
                outputs.push(Arc::new(w.finish_to(&final_path)?));
                gp_acc = 0;
                if self.take_failpoint(Failpoint::CompactionMidOutput) {
                    // Simulate dying with a half-written next output.
                    let id = {
                        let mut st = self.state.write();
                        let id = st.next_file;
                        st.next_file += 1;
                        id
                    };
                    std::fs::write(self.tmp_sst_path(id), b"partial garbage")?;
                    return Err(injected());
                }
            }
        }
        if let Err(e) = merged.finish() {
            // An input ended early: the outputs miss the rest of it. Keep
            // every input installed and drop the outputs.
            if let Some((w, _)) = writer {
                w.abandon();
            }
            for t in &outputs {
                std::fs::remove_file(t.path()).ok();
            }
            return Err(e.into());
        }
        if let Some((w, final_path)) = writer {
            outputs.push(Arc::new(w.finish_to(&final_path)?));
        }
        let write_bytes: u64 = outputs.iter().map(|t| t.file_size()).sum();
        if self.take_failpoint(Failpoint::CompactionBeforeInstall) {
            return Err(injected());
        }
        let victims: Vec<PathBuf> = pick
            .inputs
            .iter()
            .chain(pick.overlaps.iter())
            .map(|t| t.path().to_path_buf())
            .collect();
        {
            let mut st = self.state.write();
            st.levels.remove(pick.from, &pick.inputs);
            st.levels.remove(target, &pick.overlaps);
            st.levels.insert_sorted(target, outputs);
            if pick.from >= 1 {
                st.levels.advance_cursor(pick.from, &in_max);
            }
            self.write_manifest(&st)?;
        }
        for p in victims {
            std::fs::remove_file(&p).ok();
        }
        self.compaction_write_bytes
            .fetch_add(write_bytes, Ordering::Relaxed);
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.notify_progress();
        Ok(true)
    }

    fn notify_progress(&self) {
        let _g = self.stall_lock.lock();
        self.stall_cv.notify_all();
    }

    fn write_manifest(&self, st: &State) -> Result<(), DbError> {
        let mut text = format!("NEXT {}\n", st.next_file);
        for (level, t) in st.levels.iter_tables() {
            let name = t
                .path()
                .file_name()
                .and_then(|n| n.to_str())
                .ok_or_else(|| DbError::Manifest("bad sst filename".into()))?;
            text.push_str(&format!("L{level} {name}\n"));
        }
        let tmp = self.dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, &text)?;
        std::fs::rename(&tmp, self.dir.join("MANIFEST"))?;
        crate::sstable::sync_dir(&self.dir.join("MANIFEST"))?;
        Ok(())
    }

    // ---- read path ------------------------------------------------------

    /// Memtable + frozen-memtable lookup (newest first).
    fn mem_lookup(st: &State, key: &[u8]) -> Option<Value> {
        if let Some(v) = st.memtable.get(key) {
            return Some(v.clone());
        }
        for entry in st.imm.iter().rev() {
            if let Some(v) = entry.mem.get(key) {
                return Some(v.clone());
            }
        }
        None
    }

    /// Table lookup across every level, bloom-gated, newest-first.
    fn table_lookup(&self, st: &State, key: &[u8]) -> Result<Option<Value>, DbError> {
        for sst in st.levels.level(0).iter().rev() {
            self.bloom_checks.fetch_add(1, Ordering::Relaxed);
            if !sst.may_contain(key) {
                self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.sst_point_reads.fetch_add(1, Ordering::Relaxed);
            if let Some(v) = sst.get(key)? {
                return Ok(Some(v));
            }
        }
        for level in 1..st.levels.num_levels() {
            let Some(sst) = st.levels.find(level, key) else {
                continue;
            };
            self.bloom_checks.fetch_add(1, Ordering::Relaxed);
            if !sst.may_contain(key) {
                self.bloom_negatives.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            self.sst_point_reads.fetch_add(1, Ordering::Relaxed);
            if let Some(v) = sst.get(key)? {
                return Ok(Some(v));
            }
        }
        Ok(None)
    }

    /// Full lookup without read-cache involvement (used under write locks).
    fn lookup_no_cache(&self, st: &State, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        if let Some(v) = Self::mem_lookup(st, key) {
            return Ok(match v {
                Value::Put(data) => Some(data),
                Value::Tombstone => None,
            });
        }
        Ok(match self.table_lookup(st, key)? {
            Some(Value::Put(data)) => Some(data),
            _ => None,
        })
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>, DbError> {
        let st = self.state.read();
        if let Some(v) = Self::mem_lookup(&st, key) {
            return Ok(match v {
                Value::Put(data) => Some(data),
                Value::Tombstone => None,
            });
        }
        // Not in a write buffer: the read cache may serve it without
        // touching any table.
        if let Some(c) = &self.cache {
            if let Some(v) = c.get(key) {
                return Ok(Some(v));
            }
        }
        match self.table_lookup(&st, key)? {
            Some(Value::Put(data)) => {
                if let Some(c) = &self.cache {
                    c.insert(key, &data);
                }
                Ok(Some(data))
            }
            _ => Ok(None),
        }
    }

    fn scan(
        &self,
        lower: &[u8],
        upper: Option<&[u8]>,
        limit: usize,
    ) -> Result<Vec<KeyValue>, DbError> {
        if upper.is_some_and(|u| u <= lower) {
            return Ok(Vec::new());
        }
        let st = self.state.read();
        // Sources in precedence order: memtable, frozen memtables newest
        // first, L0 newest first, then each deeper level (levels are
        // disjoint internally; shallower levels shadow deeper ones).
        let mut sources: Vec<MergeSource> = Vec::new();
        let collect_mem = |mem: &Memtable| {
            mem.range(
                Bound::Included(lower),
                upper.map_or(Bound::Unbounded, Bound::Excluded),
            )
            .map(|(k, v)| (k.to_vec(), v.clone()))
            .collect::<Vec<_>>()
        };
        sources.push(MergeSource::Mem(collect_mem(&st.memtable).into_iter()));
        for entry in st.imm.iter().rev() {
            sources.push(MergeSource::Mem(collect_mem(&entry.mem).into_iter()));
        }
        for sst in st.levels.level(0).iter().rev() {
            sources.push(MergeSource::Table(sst.iter_range(lower, upper)));
        }
        for level in 1..st.levels.num_levels() {
            for sst in st.levels.level(level) {
                if upper.is_some_and(|u| sst.min_key() >= u) {
                    continue;
                }
                if sst.entry_count() > 0 && sst.max_key() < lower {
                    continue;
                }
                sources.push(MergeSource::Table(sst.iter_range(lower, upper)));
            }
        }
        drop(st);
        let mut merged = MergeIter::new(sources);
        let mut out = Vec::new();
        while let Some((k, v)) = merged.next_entry() {
            if let Value::Put(data) = v {
                out.push((k, data));
                if limit != 0 && out.len() >= limit {
                    break;
                }
            }
        }
        merged.finish()?;
        Ok(out)
    }

    fn stats(&self) -> DbStats {
        let st = self.state.read();
        let n = st.levels.num_levels();
        DbStats {
            flushes: self.flushes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            trivial_moves: self.trivial_moves.load(Ordering::Relaxed),
            memtable_entries: st.memtable.len(),
            imm_memtables: st.imm.len(),
            level_tables: (0..n).map(|i| st.levels.level(i).len()).collect(),
            level_bytes: (0..n).map(|i| st.levels.level_bytes(i)).collect(),
            wal_syncs: st.wal_syncs_rotated + st.wal.syncs(),
            wal_bytes: st.wal_bytes_rotated + st.wal.bytes_written(),
            write_stalls: self.write_stalls.load(Ordering::Relaxed),
            write_sheds: self.write_sheds.load(Ordering::Relaxed),
            stall_micros: self.stall_micros.load(Ordering::Relaxed),
            bloom_checks: self.bloom_checks.load(Ordering::Relaxed),
            bloom_negatives: self.bloom_negatives.load(Ordering::Relaxed),
            sst_point_reads: self.sst_point_reads.load(Ordering::Relaxed),
            flush_write_bytes: self.flush_write_bytes.load(Ordering::Relaxed),
            compaction_read_bytes: self.compaction_read_bytes.load(Ordering::Relaxed),
            compaction_write_bytes: self.compaction_write_bytes.load(Ordering::Relaxed),
            tombstones_dropped: self.tombstones_dropped.load(Ordering::Relaxed),
        }
    }
}

/// K-way merge over precedence-ordered sources (earlier sources win on
/// duplicate keys). Sources must each yield sorted, per-source-unique keys.
struct MergeIter {
    sources: Vec<MergeSource>,
    /// Each source's next entry, `None` once it is exhausted.
    heads: Vec<Option<(Vec<u8>, Value)>>,
}

impl MergeIter {
    fn new(mut sources: Vec<MergeSource>) -> Self {
        let heads = sources.iter_mut().map(|s| s.next()).collect();
        MergeIter { sources, heads }
    }

    fn next_entry(&mut self) -> Option<(Vec<u8>, Value)> {
        // The smallest head key; the earliest source holding it wins.
        let mut win: Option<(usize, &[u8])> = None;
        for (i, head) in self.heads.iter().enumerate() {
            if let Some((k, _)) = head {
                if win.is_none_or(|(_, m)| k.as_slice() < m) {
                    win = Some((i, k));
                }
            }
        }
        let (w, _) = win?;
        let (key, value) = self.heads[w].take().expect("winning head exists");
        self.heads[w] = self.sources[w].next();
        // Advance every later source past the key it shadows.
        for i in w + 1..self.heads.len() {
            if self.heads[i].as_ref().is_some_and(|(k, _)| *k == key) {
                self.heads[i] = self.sources[i].next();
            }
        }
        Some((key, value))
    }

    /// The first error that cut a table source short, if any. Without this
    /// check an unreadable table would look like a shorter one.
    fn finish(self) -> Result<(), SstError> {
        for source in self.sources {
            if let MergeSource::Table(mut it) = source {
                if let Some(e) = it.take_error() {
                    return Err(e);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "lsmdb-db-{}-{name}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn small_opts() -> Options {
        Options {
            memtable_bytes: 1024,
            l0_compaction_trigger: 3,
            l0_slowdown_trigger: 6,
            l0_stop_trigger: 12,
            max_levels: 4,
            level_base_bytes: 4096,
            level_multiplier: 4,
            table_target_bytes: 4096,
            grandparent_limit_bytes: 16384,
            compaction: CompactionMode::Inline,
            ..Options::default()
        }
    }

    fn bg_opts() -> Options {
        Options {
            compaction: CompactionMode::Background,
            ..small_opts()
        }
    }

    #[test]
    fn put_get_delete_basic() {
        let d = tmpdir("basic");
        let db = Db::open(&d, Options::default()).unwrap();
        db.put(b"k1", b"v1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), Some(b"v1".to_vec()));
        assert!(db.contains(b"k1").unwrap());
        db.delete(b"k1").unwrap();
        assert_eq!(db.get(b"k1").unwrap(), None);
        assert!(!db.contains(b"k1").unwrap());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn survives_flush_and_compaction() {
        let d = tmpdir("flushcompact");
        let db = Db::open(&d, small_opts()).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..2000u32 {
            let k = format!("key{:06}", i % 700);
            let v = format!("value-{i}");
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k, v);
        }
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected flushes, got {stats:?}");
        assert!(
            stats.compactions + stats.trivial_moves > 0,
            "expected compactions, got {stats:?}"
        );
        for (k, v) in &model {
            assert_eq!(
                db.get(k.as_bytes()).unwrap(),
                Some(v.clone().into_bytes()),
                "key {k}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn background_compaction_catches_up() {
        let d = tmpdir("bg");
        let db = Db::open(&d, bg_opts()).unwrap();
        let mut model = BTreeMap::new();
        for i in 0..2000u32 {
            let k = format!("key{:06}", i % 700);
            let v = format!("value-{i}");
            db.put(k.as_bytes(), v.as_bytes()).unwrap();
            model.insert(k, v);
        }
        db.wait_idle().unwrap();
        let stats = db.stats();
        assert!(stats.flushes > 0, "expected flushes, got {stats:?}");
        assert!(
            stats.compactions + stats.trivial_moves > 0,
            "expected background compactions, got {stats:?}"
        );
        assert!(
            stats.l0_tables() < small_opts().l0_slowdown_trigger,
            "L0 should be drained, got {stats:?}"
        );
        for (k, v) in &model {
            assert_eq!(
                db.get(k.as_bytes()).unwrap(),
                Some(v.clone().into_bytes()),
                "key {k}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn data_spreads_over_multiple_levels() {
        let d = tmpdir("deep");
        let opts = Options {
            level_base_bytes: 2048,
            level_multiplier: 2,
            ..small_opts()
        };
        let db = Db::open(&d, opts).unwrap();
        for i in 0..4000u32 {
            db.put(format!("key{i:06}").as_bytes(), &[3u8; 48]).unwrap();
        }
        let stats = db.stats();
        let deep_tables: usize = stats.level_tables.iter().skip(2).sum();
        assert!(
            deep_tables > 0,
            "expected tables below L1, got {:?}",
            stats.level_tables
        );
        for i in (0..4000u32).step_by(37) {
            assert!(
                db.get(format!("key{i:06}").as_bytes()).unwrap().is_some(),
                "key{i:06}"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn l0_stop_trigger_sheds_with_busy() {
        let d = tmpdir("busy");
        let opts = Options {
            l0_slowdown_trigger: 2,
            l0_stop_trigger: 3,
            max_stall: Duration::from_millis(1),
            ..bg_opts()
        };
        let db = Db::open(&d, opts).unwrap();
        db.pause_compaction(true);
        // Build L0 past the stop trigger via forced flushes (flush_one is
        // not paused, compaction is).
        for round in 0..3 {
            db.put(format!("k{round}").as_bytes(), &[0u8; 64]).unwrap();
            db.flush().unwrap();
        }
        let err = db.put(b"overflow", b"x").unwrap_err();
        match err {
            DbError::Busy { retry_after } => assert!(retry_after > Duration::ZERO),
            other => panic!("expected Busy, got {other:?}"),
        }
        let stats = db.stats();
        assert!(stats.write_sheds > 0, "{stats:?}");
        // Resume compaction: the same write must eventually succeed.
        db.pause_compaction(false);
        db.wait_idle().unwrap();
        db.put(b"overflow", b"x").unwrap();
        assert_eq!(db.get(b"overflow").unwrap(), Some(b"x".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        let d = tmpdir("group");
        let opts = Options {
            wal_sync: WalSync::Group,
            ..Options::default()
        };
        let db = Arc::new(Db::open(&d, opts).unwrap());
        let writers: Vec<_> = (0..4)
            .map(|w| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..100u32 {
                        db.put(format!("w{w}-{i:04}").as_bytes(), &[9u8; 32])
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in writers {
            t.join().unwrap();
        }
        let stats = db.stats();
        assert!(stats.wal_syncs > 0, "{stats:?}");
        assert!(
            stats.wal_syncs < 400,
            "group commit should batch fsyncs: {} syncs for 400 commits",
            stats.wal_syncs
        );
        drop(db);
        let db = Db::open(&d, Options::default()).unwrap();
        for w in 0..4 {
            for i in 0..100u32 {
                assert!(
                    db.get(format!("w{w}-{i:04}").as_bytes()).unwrap().is_some(),
                    "w{w}-{i:04}"
                );
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn wal_sync_always_counts_every_commit() {
        let d = tmpdir("always");
        let opts = Options {
            wal_sync: WalSync::Always,
            ..Options::default()
        };
        let db = Db::open(&d, opts).unwrap();
        for i in 0..10u32 {
            db.put(format!("k{i}").as_bytes(), b"v").unwrap();
        }
        let stats = db.stats();
        assert!(stats.wal_syncs >= 10, "{stats:?}");
        assert!(stats.wal_bytes > 0, "{stats:?}");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn deletes_survive_compaction() {
        let d = tmpdir("delcompact");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..500u32 {
            db.put(format!("k{i:04}").as_bytes(), &[0u8; 16]).unwrap();
        }
        for i in (0..500u32).step_by(2) {
            db.delete(format!("k{i:04}").as_bytes()).unwrap();
        }
        db.compact().unwrap();
        for i in 0..500u32 {
            let got = db.get(format!("k{i:04}").as_bytes()).unwrap();
            if i % 2 == 0 {
                assert_eq!(got, None, "k{i:04} should be deleted");
            } else {
                assert!(got.is_some(), "k{i:04} should exist");
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn compact_all_collapses_to_bottom_level() {
        let d = tmpdir("compactall");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..800u32 {
            db.put(format!("k{i:05}").as_bytes(), &[1u8; 32]).unwrap();
        }
        for i in (0..800u32).step_by(3) {
            db.delete(format!("k{i:05}").as_bytes()).unwrap();
        }
        db.compact_all().unwrap();
        let stats = db.stats();
        let n = stats.level_tables.len();
        for (level, count) in stats.level_tables.iter().enumerate().take(n - 1) {
            assert_eq!(*count, 0, "level {level} should be empty: {stats:?}");
        }
        assert!(stats.level_tables[n - 1] > 0, "{stats:?}");
        assert!(stats.tombstones_dropped > 0, "{stats:?}");
        for i in 0..800u32 {
            let got = db.get(format!("k{i:05}").as_bytes()).unwrap();
            assert_eq!(got.is_some(), i % 3 != 0, "k{i:05}");
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_is_sorted_and_bounded() {
        let d = tmpdir("scan");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in (0..100u32).rev() {
            db.put(format!("k{i:04}").as_bytes(), format!("{i}").as_bytes())
                .unwrap();
        }
        let all = db.scan(b"", None, 0).unwrap();
        assert_eq!(all.len(), 100);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        let bounded = db.scan(b"k0010", Some(b"k0020"), 0).unwrap();
        assert_eq!(bounded.len(), 10);
        assert_eq!(bounded[0].0, b"k0010".to_vec());
        let limited = db.scan(b"", None, 7).unwrap();
        assert_eq!(limited.len(), 7);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_sees_through_levels_with_correct_precedence() {
        let d = tmpdir("scanlevels");
        let db = Db::open(&d, small_opts()).unwrap();
        db.put(b"a", b"old").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"mid").unwrap();
        db.flush().unwrap();
        db.put(b"a", b"new").unwrap(); // memtable
        db.put(b"b", b"1").unwrap();
        db.delete(b"b").unwrap();
        let got = db.scan(b"", None, 0).unwrap();
        assert_eq!(got, vec![(b"a".to_vec(), b"new".to_vec())]);
        std::fs::remove_dir_all(&d).ok();
    }

    fn sst_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "sst"))
            .collect();
        files.sort();
        files
    }

    /// A decode error mid-table must surface: a short scan would drop
    /// keys from `list_keys`, and a short compaction merge would install
    /// outputs missing the rest of the table, then delete it.
    #[test]
    fn corrupt_entry_fails_scan_and_compaction_without_losing_data() {
        let d = tmpdir("corrupt-entry");
        let opts = Options {
            memtable_bytes: 1 << 20,
            ..small_opts()
        };
        let value = |i: u32| format!("{}{i:04}", if i < 50 { 'v' } else { 'w' }).into_bytes();
        {
            let db = Db::open(&d, opts.clone()).unwrap();
            // Two overlapping L0 tables, so compaction must merge them.
            for i in 0..100u32 {
                db.put(format!("k{i:04}").as_bytes(), format!("v{i:04}").as_bytes())
                    .unwrap();
            }
            db.flush().unwrap();
            for i in 50..150u32 {
                db.put(format!("k{i:04}").as_bytes(), &value(i)).unwrap();
            }
            db.flush().unwrap();
        }
        let tables = sst_files(&d);
        assert_eq!(tables.len(), 2, "{tables:?}");
        // Entries of the older table are 19 bytes (9-byte header, 5-byte
        // key and value); overwrite entry 15's kind byte, the last entry of
        // its index interval.
        let mut data = std::fs::read(&tables[0]).unwrap();
        data[15 * 19 + 4] = 0x7F;
        std::fs::write(&tables[0], &data).unwrap();
        {
            let db = Db::open(&d, opts.clone()).unwrap();
            assert!(matches!(db.scan(b"", None, 0), Err(DbError::Sst(_))));
            assert!(matches!(
                db.count_range(b"k0010", None),
                Err(DbError::Sst(_))
            ));
            assert!(db.compact_all().is_err());
            assert_eq!(db.stats().compactions, 0);
        }
        // Both inputs are still installed and on disk; nothing else is.
        assert_eq!(sst_files(&d), tables);
        let db = Db::open(&d, opts).unwrap();
        for i in (0..150u32).filter(|&i| i != 15) {
            let key = format!("k{i:04}");
            assert_eq!(db.get(key.as_bytes()).unwrap(), Some(value(i)), "{key}");
        }
        assert!(matches!(db.get(b"k0015"), Err(DbError::Sst(_))));
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn scan_cursor_outlives_compaction_of_its_table() {
        let d = tmpdir("cursor-compact");
        let opts = Options {
            memtable_bytes: 1 << 20,
            ..small_opts()
        };
        let db = Db::open(&d, opts).unwrap();
        for i in 0..200u32 {
            db.put(format!("k{i:04}").as_bytes(), &[7u8; 16]).unwrap();
        }
        db.flush().unwrap();
        let table = Arc::clone(&db.inner.state.read().levels.level(0)[0]);
        assert_eq!(table.entry_count(), 200);
        let cursor = table.iter_range(b"k0020", Some(b"k0180"));
        db.put(b"k0000", b"newer").unwrap();
        db.compact_all().unwrap();
        assert!(!table.path().exists(), "compaction unlinks its inputs");
        drop(table);
        let keys: Vec<_> = cursor.map(|(k, _)| k).collect();
        let want: Vec<_> = (20..180u32)
            .map(|i| format!("k{i:04}").into_bytes())
            .collect();
        assert_eq!(keys, want);
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn write_batch_is_atomic_and_visible() {
        let d = tmpdir("batch");
        let db = Db::open(&d, Options::default()).unwrap();
        let mut batch = WriteBatch::new();
        batch.put(b"x", b"1").put(b"y", b"2").delete(b"x");
        assert_eq!(batch.len(), 3);
        db.write(&batch).unwrap();
        assert_eq!(db.get(b"x").unwrap(), None);
        assert_eq!(db.get(b"y").unwrap(), Some(b"2".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reopen_recovers_from_wal() {
        let d = tmpdir("walrecover");
        {
            let db = Db::open(&d, Options::default()).unwrap();
            db.put(b"persist", b"me").unwrap();
            db.delete(b"gone").unwrap();
            // Dropped without flush: data only in WAL.
        }
        let db = Db::open(&d, Options::default()).unwrap();
        assert_eq!(db.get(b"persist").unwrap(), Some(b"me".to_vec()));
        assert_eq!(db.get(b"gone").unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reopen_recovers_ssts_and_wal_together() {
        let d = tmpdir("fullrecover");
        {
            let db = Db::open(&d, small_opts()).unwrap();
            for i in 0..300u32 {
                db.put(format!("k{i:05}").as_bytes(), &[7u8; 32]).unwrap();
            }
            db.put(b"late", b"write").unwrap();
        }
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..300u32 {
            assert!(db.get(format!("k{i:05}").as_bytes()).unwrap().is_some());
        }
        assert_eq!(db.get(b"late").unwrap(), Some(b"write".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn frozen_memtables_survive_crash_via_numbered_wals() {
        let d = tmpdir("immwal");
        {
            // Large trigger thresholds + paused worker: freeze happens but
            // nothing flushes, so data lives only in numbered WALs.
            let opts = Options {
                memtable_bytes: 256,
                max_stall: Duration::from_millis(1),
                ..bg_opts()
            };
            let db = Db::open(&d, opts).unwrap();
            db.pause_compaction(true);
            let _work = db.inner.work.lock(); // block the flush executor
            for i in 0..40u32 {
                db.put(format!("k{i:04}").as_bytes(), &[5u8; 64]).unwrap();
            }
            let stats = db.stats();
            assert!(stats.imm_memtables > 0, "{stats:?}");
            // Simulate a crash: leak the Db so no clean shutdown runs.
            drop(_work);
            std::mem::forget(db);
        }
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..40u32 {
            assert!(
                db.get(format!("k{i:04}").as_bytes()).unwrap().is_some(),
                "k{i:04} lost"
            );
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn overwrite_across_reopen() {
        let d = tmpdir("overwrite");
        {
            let db = Db::open(&d, small_opts()).unwrap();
            db.put(b"k", b"v1").unwrap();
            db.flush().unwrap();
            db.put(b"k", b"v2").unwrap();
        }
        let db = Db::open(&d, small_opts()).unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn count_range() {
        let d = tmpdir("count");
        let db = Db::open(&d, Options::default()).unwrap();
        for i in 0..50u32 {
            db.put(format!("p{i:03}").as_bytes(), b"x").unwrap();
        }
        assert_eq!(db.count_range(b"p", None).unwrap(), 50);
        assert_eq!(db.count_range(b"p010", Some(b"p020")).unwrap(), 10);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_readers_during_background_writes() {
        let d = tmpdir("concurrent");
        let db = Arc::new(Db::open(&d, bg_opts()).unwrap());
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..1000u32 {
                    loop {
                        match db.put(format!("k{i:06}").as_bytes(), &[1u8; 64]) {
                            Ok(()) => break,
                            Err(DbError::Busy { retry_after }) => std::thread::sleep(retry_after),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let db = Arc::clone(&db);
                std::thread::spawn(move || {
                    for i in 0..1000u32 {
                        // Reads may or may not find the key; they must not
                        // error or return torn data.
                        if let Some(v) = db.get(format!("k{i:06}").as_bytes()).unwrap() {
                            assert_eq!(v, vec![1u8; 64]);
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
        db.wait_idle().unwrap();
        for i in 0..1000u32 {
            assert!(db.get(format!("k{i:06}").as_bytes()).unwrap().is_some());
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_db_operations() {
        let d = tmpdir("empty");
        let db = Db::open(&d, Options::default()).unwrap();
        assert_eq!(db.get(b"nothing").unwrap(), None);
        assert!(db.scan(b"", None, 0).unwrap().is_empty());
        db.flush().unwrap();
        db.compact().unwrap();
        db.compact_all().unwrap();
        db.wait_idle().unwrap();
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn bloom_counters_move_on_point_reads() {
        let d = tmpdir("bloomctr");
        let db = Db::open(&d, small_opts()).unwrap();
        for i in 0..600u32 {
            db.put(format!("k{i:05}").as_bytes(), &[2u8; 32]).unwrap();
        }
        db.flush().unwrap();
        for _ in 0..50 {
            db.get(b"definitely-absent-key").unwrap();
        }
        let stats = db.stats();
        assert!(stats.bloom_checks > 0, "{stats:?}");
        assert!(stats.bloom_negatives > 0, "{stats:?}");
        std::fs::remove_dir_all(&d).ok();
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmdb-cache-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn cached_opts() -> Options {
        Options {
            memtable_bytes: 512,
            read_cache_bytes: 1 << 20,
            compaction: CompactionMode::Inline,
            ..Options::default()
        }
    }

    #[test]
    fn repeated_sst_reads_hit_the_cache() {
        let d = tmpdir("hits");
        let db = Db::open(&d, cached_opts()).unwrap();
        for i in 0..200u64 {
            db.put(&i.to_be_bytes(), &[7u8; 64]).unwrap();
        }
        db.flush().unwrap(); // everything on "disk"
        assert_eq!(db.get(&42u64.to_be_bytes()).unwrap(), Some(vec![7u8; 64]));
        let (h0, m0) = db.cache_stats();
        assert_eq!(db.get(&42u64.to_be_bytes()).unwrap(), Some(vec![7u8; 64]));
        let (h1, m1) = db.cache_stats();
        assert_eq!(h1, h0 + 1, "second read should hit");
        assert_eq!(m1, m0);
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn writes_invalidate_cached_values() {
        let d = tmpdir("invalidate");
        let db = Db::open(&d, cached_opts()).unwrap();
        db.put(b"k", b"v1").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v1".to_vec())); // fills cache
        db.put(b"k", b"v2").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(b"v2".to_vec()));
        db.flush().unwrap();
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn batch_writes_invalidate_too() {
        let d = tmpdir("batch");
        let db = Db::open(&d, cached_opts()).unwrap();
        db.put(b"a", b"old").unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"old".to_vec()));
        let mut wb = WriteBatch::new();
        wb.put(b"a", b"new").delete(b"b");
        db.write(&wb).unwrap();
        assert_eq!(db.get(b"a").unwrap(), Some(b"new".to_vec()));
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn disabled_cache_reports_zeros() {
        let d = tmpdir("disabled");
        let db = Db::open(&d, Options::default()).unwrap();
        db.put(b"x", b"y").unwrap();
        db.flush().unwrap();
        db.get(b"x").unwrap();
        db.get(b"x").unwrap();
        assert_eq!(db.cache_stats(), (0, 0));
        drop(db);
        std::fs::remove_dir_all(&d).ok();
    }
}
