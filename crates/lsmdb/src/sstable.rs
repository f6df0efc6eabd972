//! Sorted-string tables: immutable on-disk runs of sorted key/value entries.
//!
//! Layout:
//!
//! ```text
//! [ entries... ][ sparse index ][ bloom filter ][ footer ]
//! ```
//!
//! * entries — `key_len u32 | kind u8 | val_len u32 | key | value`, sorted
//!   by key, possibly containing tombstones;
//! * sparse index — every `INDEX_INTERVAL`-th key with its file offset, for
//!   binary search;
//! * bloom filter — all keys, consulted before any disk access;
//! * footer — offsets/lengths of the two metadata sections, entry count,
//!   min/max keys, and a magic number, all checksummed.
//!
//! Readers keep the index and bloom filter in memory and perform positioned
//! reads for data, which is the RocksDB cost structure (index/filter blocks
//! pinned, data blocks from disk). One file handle per table is shared by
//! every reader, and no read moves a file cursor:
//!
//! * a point get binary-searches the index for the one interval
//!   `[index[i].offset, index[i+1].offset)` (or up to the end of the entry
//!   data) that can hold the key, fills it with a single `pread`, and
//!   decodes entries out of that buffer, allocating only the returned value;
//! * a range iterator streams through a buffered `pread` cursor of its own
//!   over the shared handle, bounded by the end of the entry data, so
//!   concurrent gets and scans never serialize on the table. An iterator
//!   holds the handle, so it keeps reading a table a compaction has since
//!   unlinked.

use crate::bloom::BloomFilter;
use crate::crc32::crc32;
use crate::memtable::Value;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: u64 = 0x4845_504E_4F53_5354; // "HEPNOSST"
const INDEX_INTERVAL: usize = 16;
const KIND_PUT: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;
/// `key_len u32 | kind u8 | val_len u32`.
const ENTRY_HEADER: usize = 9;
/// Read-ahead of one range iterator.
const ITER_BUFFER: u64 = 64 << 10;

/// Errors from SSTable I/O.
#[derive(Debug)]
pub enum SstError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid SSTable (bad magic, checksum, or framing).
    Corrupt(String),
    /// Keys were added out of order.
    OutOfOrder,
}

impl std::fmt::Display for SstError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SstError::Io(e) => write!(f, "sstable io error: {e}"),
            SstError::Corrupt(m) => write!(f, "corrupt sstable: {m}"),
            SstError::OutOfOrder => write!(f, "keys added out of sorted order"),
        }
    }
}

impl std::error::Error for SstError {}

impl From<std::io::Error> for SstError {
    fn from(e: std::io::Error) -> Self {
        SstError::Io(e)
    }
}

fn encode_entry(out: &mut Vec<u8>, key: &[u8], value: &Value) {
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    match value {
        Value::Put(v) => {
            out.push(KIND_PUT);
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            out.extend_from_slice(key);
            out.extend_from_slice(v);
        }
        Value::Tombstone => {
            out.push(KIND_TOMBSTONE);
            out.extend_from_slice(&0u32.to_le_bytes());
            out.extend_from_slice(key);
        }
    }
}

/// A decoded entry header whose lengths fit the bytes it was checked
/// against.
struct EntryHeader {
    key_len: usize,
    /// `None` for a tombstone.
    val_len: Option<usize>,
}

impl EntryHeader {
    /// Decode `hdr`, rejecting an unknown kind and any entry longer than the
    /// `left` bytes that remain (header included).
    fn decode(hdr: &[u8; ENTRY_HEADER], left: u64) -> Result<EntryHeader, SstError> {
        let key_len = u32::from_le_bytes(hdr[..4].try_into().unwrap()) as usize;
        let val_len = match hdr[4] {
            KIND_PUT => Some(u32::from_le_bytes(hdr[5..9].try_into().unwrap()) as usize),
            KIND_TOMBSTONE => None,
            k => return Err(SstError::Corrupt(format!("bad entry kind {k}"))),
        };
        let h = EntryHeader { key_len, val_len };
        if h.len() as u64 > left {
            return Err(SstError::Corrupt(format!(
                "entry of {} bytes overruns the {left} bytes left",
                h.len()
            )));
        }
        Ok(h)
    }

    /// Encoded size of the whole entry.
    fn len(&self) -> usize {
        ENTRY_HEADER + self.key_len + self.val_len.unwrap_or(0)
    }
}

fn truncated() -> SstError {
    SstError::Corrupt("truncated entry".into())
}

/// Read the next entry from a stream holding `left` bytes of entry data;
/// returns it with its encoded size.
fn read_entry<R: Read>(r: &mut R, left: u64) -> Result<(Vec<u8>, Value, u64), SstError> {
    let read = |r: &mut R, buf: &mut [u8]| {
        r.read_exact(buf).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => truncated(),
            _ => SstError::Io(e),
        })
    };
    let mut hdr = [0u8; ENTRY_HEADER];
    read(r, &mut hdr)?;
    let h = EntryHeader::decode(&hdr, left)?;
    let mut key = vec![0u8; h.key_len];
    read(r, &mut key)?;
    let value = match h.val_len {
        Some(n) => {
            let mut v = vec![0u8; n];
            read(r, &mut v)?;
            Value::Put(v)
        }
        None => Value::Tombstone,
    };
    Ok((key, value, h.len() as u64))
}

/// An entry decoded in place from a buffer.
struct RawEntry<'a> {
    key: &'a [u8],
    /// `None` for a tombstone.
    value: Option<&'a [u8]>,
    /// Encoded size.
    len: usize,
}

/// Decode the entry at the head of `buf`, which must hold all of it.
fn parse_entry(buf: &[u8]) -> Result<RawEntry<'_>, SstError> {
    let hdr = buf.first_chunk::<ENTRY_HEADER>().ok_or_else(truncated)?;
    let h = EntryHeader::decode(hdr, buf.len() as u64)?;
    let key_end = ENTRY_HEADER + h.key_len;
    Ok(RawEntry {
        key: &buf[ENTRY_HEADER..key_end],
        value: h.val_len.map(|_| &buf[key_end..h.len()]),
        len: h.len(),
    })
}

/// Builds an SSTable; keys must be added in strictly increasing order.
pub struct SstWriter {
    path: PathBuf,
    file: BufWriter<File>,
    offset: u64,
    index: Vec<(Vec<u8>, u64)>,
    keys: Vec<Vec<u8>>,
    last_key: Option<Vec<u8>>,
    first_key: Option<Vec<u8>>,
    count: usize,
    bits_per_key: usize,
}

impl SstWriter {
    /// Start writing a table at `path`.
    pub fn create(path: &Path, bits_per_key: usize) -> Result<SstWriter, SstError> {
        let file = BufWriter::new(File::create(path)?);
        Ok(SstWriter {
            path: path.to_path_buf(),
            file,
            offset: 0,
            index: Vec::new(),
            keys: Vec::new(),
            last_key: None,
            first_key: None,
            count: 0,
            bits_per_key,
        })
    }

    /// Append one entry.
    pub fn add(&mut self, key: &[u8], value: &Value) -> Result<(), SstError> {
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(SstError::OutOfOrder);
            }
        }
        if self.count.is_multiple_of(INDEX_INTERVAL) {
            self.index.push((key.to_vec(), self.offset));
        }
        let mut buf = Vec::with_capacity(9 + key.len() + 64);
        encode_entry(&mut buf, key, value);
        self.file.write_all(&buf)?;
        self.offset += buf.len() as u64;
        self.keys.push(key.to_vec());
        if self.first_key.is_none() {
            self.first_key = Some(key.to_vec());
        }
        self.last_key = Some(key.to_vec());
        self.count += 1;
        Ok(())
    }

    /// Bytes of entry data written so far (metadata sections excluded).
    pub fn data_bytes(&self) -> u64 {
        self.offset
    }

    /// Number of entries added so far.
    pub fn entry_count(&self) -> usize {
        self.count
    }

    /// Write metadata sections and the footer; returns a reader over the
    /// finished table.
    pub fn finish(mut self) -> Result<SstReader, SstError> {
        self.write_trailer()?;
        let path = self.path;
        SstReader::open(&path)
    }

    /// Finish the table, then atomically rename it to `final_path` (fsyncing
    /// the parent directory) before opening the reader. This is the
    /// crash-safe publication path: the table is built at a temporary path
    /// and only becomes visible under its real name once fully durable.
    pub fn finish_to(mut self, final_path: &Path) -> Result<SstReader, SstError> {
        self.write_trailer()?;
        std::fs::rename(&self.path, final_path)?;
        sync_dir(final_path)?;
        SstReader::open(final_path)
    }

    /// Give up on an unfinished table and delete its file.
    pub fn abandon(self) {
        let SstWriter { path, file, .. } = self;
        drop(file);
        std::fs::remove_file(path).ok();
    }

    fn write_trailer(&mut self) -> Result<(), SstError> {
        // Index section.
        let index_offset = self.offset;
        let mut index_buf = Vec::new();
        index_buf.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for (key, off) in &self.index {
            index_buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            index_buf.extend_from_slice(key);
            index_buf.extend_from_slice(&off.to_le_bytes());
        }
        self.file.write_all(&index_buf)?;
        // Bloom section.
        let bloom_offset = index_offset + index_buf.len() as u64;
        let mut bloom = BloomFilter::new(self.keys.len(), self.bits_per_key);
        for k in &self.keys {
            bloom.insert(k);
        }
        let bloom_buf = bloom.encode();
        self.file.write_all(&bloom_buf)?;
        // Footer: min/max keys then fixed trailer.
        let min_key = self.first_key.clone().unwrap_or_default();
        let max_key = self.last_key.clone().unwrap_or_default();
        let mut footer = Vec::new();
        footer.extend_from_slice(&(min_key.len() as u32).to_le_bytes());
        footer.extend_from_slice(&min_key);
        footer.extend_from_slice(&(max_key.len() as u32).to_le_bytes());
        footer.extend_from_slice(&max_key);
        footer.extend_from_slice(&index_offset.to_le_bytes());
        footer.extend_from_slice(&(index_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&bloom_offset.to_le_bytes());
        footer.extend_from_slice(&(bloom_buf.len() as u64).to_le_bytes());
        footer.extend_from_slice(&(self.count as u64).to_le_bytes());
        let crc = crc32(&footer);
        self.file.write_all(&footer)?;
        self.file.write_all(&crc.to_le_bytes())?;
        self.file.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.file.write_all(&MAGIC.to_le_bytes())?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }
}

/// fsync the parent directory of `path` so a just-performed rename survives
/// a crash. Best-effort no-op on platforms where directories cannot be
/// opened.
pub(crate) fn sync_dir(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            dir.sync_all()?;
        }
    }
    Ok(())
}

struct IndexEntry {
    key: Vec<u8>,
    offset: u64,
}

/// A reader over one finished SSTable. Index and bloom filter are held in
/// memory; entry data is read from disk on demand, by positioned reads on
/// one shared file handle.
pub struct SstReader {
    path: PathBuf,
    file: Arc<File>,
    index: Vec<IndexEntry>,
    bloom: BloomFilter,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    count: u64,
    data_end: u64,
    file_size: u64,
}

impl SstReader {
    /// Open and validate a table.
    pub fn open(path: &Path) -> Result<SstReader, SstError> {
        let f = File::open(path)?;
        let file_size = f.metadata()?.len();
        if file_size < 16 {
            return Err(SstError::Corrupt("file too small".into()));
        }
        // Trailer: crc u32 | footer_len u32 | magic u64.
        let mut tail = [0u8; 16];
        f.read_exact_at(&mut tail, file_size - 16)?;
        let crc_stored = u32::from_le_bytes(tail[..4].try_into().unwrap());
        let footer_len = u32::from_le_bytes(tail[4..8].try_into().unwrap()) as u64;
        let magic = u64::from_le_bytes(tail[8..].try_into().unwrap());
        if magic != MAGIC {
            return Err(SstError::Corrupt("bad magic".into()));
        }
        if footer_len + 16 > file_size {
            return Err(SstError::Corrupt("bad footer length".into()));
        }
        let mut footer = vec![0u8; footer_len as usize];
        f.read_exact_at(&mut footer, file_size - 16 - footer_len)?;
        if crc32(&footer) != crc_stored {
            return Err(SstError::Corrupt("footer checksum mismatch".into()));
        }
        let mut pos = 0usize;
        let take_u32 = |pos: &mut usize| -> Result<u32, SstError> {
            let v = footer
                .get(*pos..*pos + 4)
                .ok_or_else(|| SstError::Corrupt("short footer".into()))?;
            *pos += 4;
            Ok(u32::from_le_bytes(v.try_into().unwrap()))
        };
        let min_len = take_u32(&mut pos)? as usize;
        let min_key = footer
            .get(pos..pos + min_len)
            .ok_or_else(|| SstError::Corrupt("short footer".into()))?
            .to_vec();
        pos += min_len;
        let max_len = take_u32(&mut pos)? as usize;
        let max_key = footer
            .get(pos..pos + max_len)
            .ok_or_else(|| SstError::Corrupt("short footer".into()))?
            .to_vec();
        pos += max_len;
        let take_u64 = |pos: &mut usize| -> Result<u64, SstError> {
            let v = footer
                .get(*pos..*pos + 8)
                .ok_or_else(|| SstError::Corrupt("short footer".into()))?;
            *pos += 8;
            Ok(u64::from_le_bytes(v.try_into().unwrap()))
        };
        let index_offset = take_u64(&mut pos)?;
        let index_len = take_u64(&mut pos)?;
        let bloom_offset = take_u64(&mut pos)?;
        let bloom_len = take_u64(&mut pos)?;
        let count = take_u64(&mut pos)?;
        if [index_offset, index_len, bloom_offset, bloom_len]
            .iter()
            .any(|&v| v > file_size)
        {
            return Err(SstError::Corrupt("section out of bounds".into()));
        }
        // Load index.
        let mut index_buf = vec![0u8; index_len as usize];
        f.read_exact_at(&mut index_buf, index_offset)?;
        let mut index: Vec<IndexEntry> = Vec::new();
        let mut ip = 0usize;
        if index_buf.len() < 4 {
            return Err(SstError::Corrupt("short index".into()));
        }
        let n_index = u32::from_le_bytes(index_buf[..4].try_into().unwrap()) as usize;
        ip += 4;
        for _ in 0..n_index {
            let klen = u32::from_le_bytes(
                index_buf
                    .get(ip..ip + 4)
                    .ok_or_else(|| SstError::Corrupt("short index".into()))?
                    .try_into()
                    .unwrap(),
            ) as usize;
            ip += 4;
            let key = index_buf
                .get(ip..ip + klen)
                .ok_or_else(|| SstError::Corrupt("short index".into()))?
                .to_vec();
            ip += klen;
            let offset = u64::from_le_bytes(
                index_buf
                    .get(ip..ip + 8)
                    .ok_or_else(|| SstError::Corrupt("short index".into()))?
                    .try_into()
                    .unwrap(),
            );
            ip += 8;
            // Intervals between index offsets are read whole: they must be
            // ordered and lie within the entry data.
            if offset > index_offset || index.last().is_some_and(|e| e.offset > offset) {
                return Err(SstError::Corrupt(
                    "index offset out of range or order".into(),
                ));
            }
            index.push(IndexEntry { key, offset });
        }
        // Load bloom.
        let mut bloom_buf = vec![0u8; bloom_len as usize];
        f.read_exact_at(&mut bloom_buf, bloom_offset)?;
        let bloom = BloomFilter::decode(&bloom_buf)
            .ok_or_else(|| SstError::Corrupt("bad bloom filter".into()))?;
        Ok(SstReader {
            path: path.to_path_buf(),
            file: Arc::new(f),
            index,
            bloom,
            min_key,
            max_key,
            count,
            data_end: index_offset,
            file_size,
        })
    }

    /// Number of entries (including tombstones).
    pub fn entry_count(&self) -> u64 {
        self.count
    }

    /// Smallest key in the table.
    pub fn min_key(&self) -> &[u8] {
        &self.min_key
    }

    /// Largest key in the table.
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// On-disk size in bytes.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// The table's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether the key may be present, per the bloom filter and key range.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.count == 0 {
            return false;
        }
        key >= self.min_key.as_slice()
            && key <= self.max_key.as_slice()
            && self.bloom.may_contain(key)
    }

    /// Point lookup: one positioned read of the index interval that can
    /// hold `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<Value>, SstError> {
        if !self.may_contain(key) {
            return Ok(None);
        }
        let (start, end) = self.interval(key);
        let mut buf = vec![0u8; (end - start) as usize];
        self.file.read_exact_at(&mut buf, start)?;
        let mut rest = buf.as_slice();
        while !rest.is_empty() {
            let entry = parse_entry(rest)?;
            match entry.key.cmp(key) {
                std::cmp::Ordering::Less => rest = &rest[entry.len..],
                std::cmp::Ordering::Equal => {
                    return Ok(Some(match entry.value {
                        Some(v) => Value::Put(v.to_vec()),
                        None => Value::Tombstone,
                    }))
                }
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
        Ok(None)
    }

    /// The byte range of entry data that holds `key` if the table does:
    /// from the greatest indexed offset whose key is `<= key` (0 if none) to
    /// the next indexed offset (the end of the entry data if none).
    fn interval(&self, key: &[u8]) -> (u64, u64) {
        let i = self.index.partition_point(|e| e.key.as_slice() <= key);
        let start = match i {
            0 => 0,
            i => self.index[i - 1].offset,
        };
        let end = self.index.get(i).map_or(self.data_end, |e| e.offset);
        (start, end)
    }

    /// Iterate entries with keys in `[lower, upper)`; `upper = None` means
    /// unbounded. Entries stream from disk in order. An I/O or decode error
    /// ends the iteration early and is kept: see [`SstRangeIter::take_error`].
    pub fn iter_range(&self, lower: &[u8], upper: Option<&[u8]>) -> SstRangeIter {
        let (start, _) = self.interval(lower);
        let cursor = PreadCursor {
            file: Arc::clone(&self.file),
            pos: start,
            end: self.data_end,
        };
        let capacity = ITER_BUFFER.min(self.data_end - start).max(1) as usize;
        SstRangeIter {
            reader: BufReader::with_capacity(capacity, cursor),
            pos: start,
            data_end: self.data_end,
            lower: lower.to_vec(),
            upper: upper.map(|u| u.to_vec()),
            error: None,
        }
    }

    /// Iterate the entire table.
    pub fn iter_all(&self) -> SstRangeIter {
        self.iter_range(&[], None)
    }
}

/// A `Read` over `[pos, end)` of a shared file by positioned reads, so any
/// number of cursors share one handle without a lock.
struct PreadCursor {
    file: Arc<File>,
    pos: u64,
    end: u64,
}

impl Read for PreadCursor {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let want = (self.end - self.pos).min(buf.len() as u64) as usize;
        if want == 0 {
            return Ok(0);
        }
        let n = self.file.read_at(&mut buf[..want], self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

/// Streaming iterator over a key range of one table.
pub struct SstRangeIter {
    reader: BufReader<PreadCursor>,
    /// Offset of the next entry, kept by adding up entry sizes.
    pos: u64,
    data_end: u64,
    lower: Vec<u8>,
    upper: Option<Vec<u8>>,
    error: Option<SstError>,
}

impl SstRangeIter {
    /// The error that ended this iteration early, if any. A caller that
    /// needs the whole range must check it once the iterator yields `None`.
    pub fn take_error(&mut self) -> Option<SstError> {
        self.error.take()
    }
}

impl Iterator for SstRangeIter {
    type Item = (Vec<u8>, Value);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.data_end {
            let (k, v, len) = match read_entry(&mut self.reader, self.data_end - self.pos) {
                Ok(entry) => entry,
                Err(e) => {
                    // Stop for good: the rest of the table is unreadable.
                    self.error = Some(e);
                    self.pos = self.data_end;
                    return None;
                }
            };
            self.pos += len;
            if k.as_slice() < self.lower.as_slice() {
                continue;
            }
            if let Some(u) = &self.upper {
                if k.as_slice() >= u.as_slice() {
                    self.pos = self.data_end;
                    return None;
                }
            }
            return Some((k, v));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lsmdb-sst-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn build_table(path: &Path, n: u32) -> SstReader {
        let mut w = SstWriter::create(path, 10).unwrap();
        for i in 0..n {
            let key = format!("key{i:06}");
            if i % 7 == 3 {
                w.add(key.as_bytes(), &Value::Tombstone).unwrap();
            } else {
                w.add(key.as_bytes(), &Value::Put(format!("val{i}").into_bytes()))
                    .unwrap();
            }
        }
        w.finish().unwrap()
    }

    #[test]
    fn write_read_round_trip() {
        let d = tmpdir("rt");
        let r = build_table(&d.join("t1.sst"), 1000);
        assert_eq!(r.entry_count(), 1000);
        assert_eq!(r.min_key(), b"key000000");
        assert_eq!(r.max_key(), b"key000999");
        // 501 % 7 != 3, so it is a live entry (500 is a tombstone).
        assert_eq!(
            r.get(b"key000501").unwrap(),
            Some(Value::Put(b"val501".to_vec()))
        );
        assert_eq!(r.get(b"key000003").unwrap(), Some(Value::Tombstone));
        assert_eq!(r.get(b"key001000").unwrap(), None);
        assert_eq!(r.get(b"absent").unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn every_key_is_retrievable() {
        let d = tmpdir("all");
        let r = build_table(&d.join("t.sst"), 500);
        for i in 0..500u32 {
            let key = format!("key{i:06}");
            let got = r.get(key.as_bytes()).unwrap().unwrap();
            if i % 7 == 3 {
                assert_eq!(got, Value::Tombstone);
            } else {
                assert_eq!(got, Value::Put(format!("val{i}").into_bytes()));
            }
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn range_iteration() {
        let d = tmpdir("range");
        let r = build_table(&d.join("t.sst"), 100);
        let got: Vec<_> = r
            .iter_range(b"key000010", Some(b"key000015"))
            .map(|(k, _)| String::from_utf8(k).unwrap())
            .collect();
        assert_eq!(
            got,
            vec![
                "key000010",
                "key000011",
                "key000012",
                "key000013",
                "key000014"
            ]
        );
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn full_iteration_is_sorted_and_complete() {
        let d = tmpdir("full");
        let r = build_table(&d.join("t.sst"), 300);
        let keys: Vec<_> = r.iter_all().map(|(k, _)| k).collect();
        assert_eq!(keys.len(), 300);
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn out_of_order_add_is_rejected() {
        let d = tmpdir("ooo");
        let mut w = SstWriter::create(&d.join("t.sst"), 10).unwrap();
        w.add(b"b", &Value::Put(b"1".to_vec())).unwrap();
        assert!(matches!(
            w.add(b"a", &Value::Put(b"2".to_vec())),
            Err(SstError::OutOfOrder)
        ));
        assert!(matches!(
            w.add(b"b", &Value::Put(b"2".to_vec())),
            Err(SstError::OutOfOrder)
        ));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn empty_table() {
        let d = tmpdir("empty");
        let w = SstWriter::create(&d.join("t.sst"), 10).unwrap();
        let r = w.finish().unwrap();
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.get(b"anything").unwrap(), None);
        assert_eq!(r.iter_all().count(), 0);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn finish_to_renames_atomically() {
        let d = tmpdir("rename");
        let tmp = d.join("000001.sst.tmp");
        let fin = d.join("000001.sst");
        let mut w = SstWriter::create(&tmp, 10).unwrap();
        w.add(b"a", &Value::Put(b"1".to_vec())).unwrap();
        w.add(b"b", &Value::Put(b"2".to_vec())).unwrap();
        let r = w.finish_to(&fin).unwrap();
        assert!(!tmp.exists());
        assert!(fin.exists());
        assert_eq!(r.path(), fin.as_path());
        assert_eq!(r.get(b"b").unwrap(), Some(Value::Put(b"2".to_vec())));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_magic_is_rejected() {
        let d = tmpdir("badmagic");
        let p = d.join("t.sst");
        build_table(&p, 10);
        let mut data = std::fs::read(&p).unwrap();
        let n = data.len();
        data[n - 1] ^= 0xFF;
        std::fs::write(&p, &data).unwrap();
        assert!(matches!(SstReader::open(&p), Err(SstError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_footer_checksum_is_rejected() {
        let d = tmpdir("badcrc");
        let p = d.join("t.sst");
        build_table(&p, 10);
        let mut data = std::fs::read(&p).unwrap();
        let n = data.len();
        data[n - 20] ^= 0xFF; // inside the footer body
        std::fs::write(&p, &data).unwrap();
        assert!(matches!(SstReader::open(&p), Err(SstError::Corrupt(_))));
        std::fs::remove_dir_all(&d).ok();
    }

    /// What `build_table` stored under key number `i`.
    fn expected(i: u32) -> Value {
        if i % 7 == 3 {
            Value::Tombstone
        } else {
            Value::Put(format!("val{i}").into_bytes())
        }
    }

    #[test]
    fn get_at_interval_edges() {
        let d = tmpdir("edges");
        let r = build_table(&d.join("t.sst"), 1000);
        let get = |i: u32| r.get(format!("key{i:06}").as_bytes()).unwrap();
        // First key, last key, every key at or next to an index entry, and
        // keys after the last index entry (992).
        assert_eq!(get(0), Some(expected(0)));
        assert_eq!(get(999), Some(expected(999)));
        for i in (0..1000).step_by(INDEX_INTERVAL) {
            assert_eq!(get(i), Some(expected(i)), "index key {i}");
            let last = (i + INDEX_INTERVAL as u32 - 1).min(999);
            assert_eq!(get(last), Some(expected(last)), "interval end {last}");
        }
        for i in 992..1000 {
            assert_eq!(get(i), Some(expected(i)), "tail key {i}");
        }
        // Tombstones in the middle of an interval (17 = 16 + 1, 38 = 32 + 6).
        assert_eq!(get(17), Some(Value::Tombstone));
        assert_eq!(get(38), Some(Value::Tombstone));
        // An absent key between two present keys reads its interval and
        // stops at the first greater key (probe until one passes the bloom).
        let absent = (0..1000u32)
            .map(|i| format!("key{i:06}a"))
            .find(|k| r.may_contain(k.as_bytes()))
            .expect("some absent key passes a 10-bit bloom");
        assert_eq!(r.get(absent.as_bytes()).unwrap(), None);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_gets_match_serial_lookups() {
        let d = tmpdir("concurrent");
        let r = build_table(&d.join("t.sst"), 2000);
        let serial: Vec<_> = (0..2100u32)
            .map(|i| r.get(format!("key{i:06}").as_bytes()).unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (r, serial) = (&r, &serial);
                scope.spawn(move || {
                    let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                    for _ in 0..5000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let i = (x % 2100) as u32;
                        let got = r.get(format!("key{i:06}").as_bytes()).unwrap();
                        assert_eq!(got, serial[i as usize], "key {i}");
                    }
                });
            }
        });
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn iterator_outlives_unlinked_file_and_reader() {
        let d = tmpdir("unlinked");
        let p = d.join("t.sst");
        let r = build_table(&p, 300);
        let it = r.iter_range(b"key000100", Some(b"key000250"));
        drop(r);
        std::fs::remove_file(&p).unwrap();
        let keys: Vec<_> = it.map(|(k, _)| k).collect();
        let want: Vec<_> = (100..250u32)
            .map(|i| format!("key{i:06}").into_bytes())
            .collect();
        assert_eq!(keys, want);
        std::fs::remove_dir_all(&d).ok();
    }

    /// Build a table of fixed-size entries (`k{i:04}` -> `v{i:04}`, 19 bytes
    /// each), patch `bytes` at `offset`, and reopen it.
    fn patched_table(name: &str, offset: usize, bytes: &[u8]) -> (PathBuf, SstReader) {
        let (d, opened) = try_patched_table(name, offset, bytes);
        (d, opened.unwrap())
    }

    fn try_patched_table(
        name: &str,
        offset: usize,
        bytes: &[u8],
    ) -> (PathBuf, Result<SstReader, SstError>) {
        let d = tmpdir(name);
        let p = d.join("t.sst");
        let mut w = SstWriter::create(&p, 10).unwrap();
        for i in 0..64u32 {
            w.add(
                format!("k{i:04}").as_bytes(),
                &Value::Put(format!("v{i:04}").into_bytes()),
            )
            .unwrap();
        }
        w.finish().unwrap();
        let mut data = std::fs::read(&p).unwrap();
        data[offset..offset + bytes.len()].copy_from_slice(bytes);
        std::fs::write(&p, &data).unwrap();
        (d, SstReader::open(&p))
    }

    #[test]
    fn index_offsets_out_of_range_or_order_are_corrupt() {
        // The index follows the 64 x 19 bytes of entries: a u32 count, then
        // per entry a u32 key length, the 5-byte key and a u64 offset. A
        // point get reads from one offset to the next, so each must lie
        // within the data and none may go backwards.
        let second = 64 * 19 + 4 + (4 + 5 + 8) + 4 + 5;
        let third = second + 8 + 4 + 5;
        for (name, at, offset) in [("idxpast", second, u64::MAX), ("idxback", third, 1)] {
            let (d, opened) = try_patched_table(name, at, &offset.to_le_bytes());
            assert!(matches!(opened, Err(SstError::Corrupt(_))), "{name}");
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn bad_entry_kind_is_corrupt_on_get_and_iteration() {
        // Entry 20's kind byte.
        let (d, r) = patched_table("badkind", 20 * 19 + 4, &[9]);
        assert_eq!(
            r.get(b"k0019").unwrap(),
            Some(Value::Put(b"v0019".to_vec()))
        );
        assert!(matches!(r.get(b"k0020"), Err(SstError::Corrupt(_))));
        let mut it = r.iter_all();
        assert_eq!(it.by_ref().count(), 20);
        assert!(matches!(it.take_error(), Some(SstError::Corrupt(_))));
        assert_eq!(it.next(), None, "iteration stays ended after an error");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn oversized_lengths_are_corrupt_not_allocated() {
        // Entry 3's key_len, then entry 40's val_len, set to 4 GiB - 1.
        for (name, offset) in [("hugekey", 3 * 19), ("hugeval", 40 * 19 + 5)] {
            let (d, r) = patched_table(name, offset, &u32::MAX.to_le_bytes());
            let victim = format!("k{:04}", offset / 19);
            assert!(matches!(
                r.get(victim.as_bytes()),
                Err(SstError::Corrupt(_))
            ));
            let mut it = r.iter_all();
            assert_eq!(it.by_ref().count(), offset / 19);
            assert!(matches!(it.take_error(), Some(SstError::Corrupt(_))));
            std::fs::remove_dir_all(&d).ok();
        }
    }

    #[test]
    fn bloom_filters_skip_absent_prefix() {
        let d = tmpdir("bloomskip");
        let r = build_table(&d.join("t.sst"), 1000);
        // Keys outside [min,max] short-circuit without bloom.
        assert!(!r.may_contain(b"aaa"));
        assert!(!r.may_contain(b"zzz"));
        // In-range absent keys: bloom should reject nearly all.
        let hits = (0..1000)
            .filter(|i| r.may_contain(format!("key{i:06}x").as_bytes()))
            .count();
        assert!(hits < 100, "bloom passes too many absent keys: {hits}");
        std::fs::remove_dir_all(&d).ok();
    }
}
