//! Write-ahead log + snapshots: crash-safe durability for `/facts`.
//!
//! The service keeps the database in memory (the paper's engine is an
//! in-memory system); durability is layered underneath as the classic
//! single-node pair:
//!
//! * a **write-ahead log** (`wal.log`): every `/facts` commit is appended
//!   as one length-prefixed, checksummed record *before* it is applied to
//!   memory and acknowledged. With [`Durability::Commit`] the record is
//!   fsync'd per commit; [`Durability::Batch`] defers the fsync to the OS
//!   (and to snapshot/shutdown), trading a crash window for throughput.
//! * a **snapshot** (`snapshot/NAME.tbl` + `snapshot/MANIFEST`): a full
//!   checksummed copy of every relation, written atomically (temp file +
//!   fsync + rename; the MANIFEST rename is the commit point). After a
//!   snapshot the log is reset to a single [`WalRecord::Barrier`] carrying
//!   the snapshot version — that is the log-compaction step.
//!
//! Recovery order: load the snapshot (if any), then replay every WAL
//! commit with a version greater than the snapshot's. Replay stops at the
//! first torn or corrupt record and truncates the log there — bytes after
//! a torn tail are by construction unacknowledged. A corrupt *snapshot*
//! is not repairable by truncation and surfaces as
//! [`Error::Durability`](recstep_common::Error).
//!
//! Fault injection: `wal::before_append`, `wal::after_append`,
//! `wal::short_write`, `wal::before_reset`, `snapshot::before_rename` and
//! `snapshot::before_manifest_rename` (see [`recstep_common::fail`]).

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use recstep_common::hash::mix64;
use recstep_common::{fail, fail_point, Error, Result, Value};

use crate::relation::Relation;

/// How hard the service tries to make an acknowledged commit survive a
/// crash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Durability {
    /// No WAL, no snapshots: the pre-durability in-memory behaviour.
    Off,
    /// Fsync the WAL on every `/facts` commit before acknowledging —
    /// an acked commit survives `kill -9`.
    #[default]
    Commit,
    /// Append without fsync; sync happens at snapshots and shutdown. A
    /// crash may lose the OS-buffered tail, never a prefix.
    Batch,
}

impl Durability {
    /// Parse the `--durability` flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(Durability::Off),
            "commit" => Some(Durability::Commit),
            "batch" => Some(Durability::Batch),
            _ => None,
        }
    }

    /// Flag-style name (`off`/`commit`/`batch`).
    pub fn as_str(self) -> &'static str {
        match self {
            Durability::Off => "off",
            Durability::Commit => "commit",
            Durability::Batch => "batch",
        }
    }
}

/// One relation's worth of rows inside a WAL commit, row-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalBatch {
    /// Relation name.
    pub name: String,
    /// Row width; `rows.len()` is a multiple of it.
    pub arity: usize,
    /// Row-major values (`rows.len() / arity` rows).
    pub rows: Vec<Value>,
}

/// One `/facts` commit as logged: the post-commit `data_version` plus the
/// staged inserts and deletes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalCommit {
    /// `data_version` after this commit applies.
    pub version: u64,
    /// Rows inserted, grouped by relation.
    pub inserts: Vec<WalBatch>,
    /// Rows deleted, grouped by relation.
    pub deletes: Vec<WalBatch>,
}

/// A log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A `/facts` commit.
    Commit(WalCommit),
    /// A snapshot barrier: everything at or below `version` is captured
    /// by the snapshot; written as the sole record of a freshly reset log.
    Barrier {
        /// The snapshot's `data_version`.
        version: u64,
    },
}

impl WalRecord {
    /// The `data_version` this record establishes.
    pub fn version(&self) -> u64 {
        match self {
            WalRecord::Commit(c) => c.version,
            WalRecord::Barrier { version } => *version,
        }
    }
}

/// What [`Wal::recover`] found in the log.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayReport {
    /// Records that survived (including barriers).
    pub records: u64,
    /// Of those, commit records.
    pub commits: u64,
    /// Valid log bytes (the file is truncated to this length).
    pub bytes: u64,
    /// Whether a torn/corrupt tail was cut off.
    pub truncated: bool,
    /// Highest version seen in the surviving records.
    pub last_version: u64,
}

/// Cap on a single record; a longer length prefix is treated as
/// corruption (the log is truncated there).
const MAX_RECORD_BYTES: u32 = 64 << 20;

const TAG_COMMIT: u8 = 1;
const TAG_BARRIER: u8 = 2;

/// The append-only commit log. Created/recovered by [`Wal::recover`].
pub struct Wal {
    file: File,
    durability: Durability,
    /// Byte offset after the last fully appended record. Anything past it
    /// is a torn append being repaired or awaiting truncation at recovery.
    valid_len: u64,
    records: u64,
    /// True after a torn write the file handle can no longer be trusted
    /// to sit past cleanly; every further append fails until restart.
    poisoned: bool,
}

impl Wal {
    /// Open `dir/wal.log`, scan it, truncate any torn/corrupt tail, and
    /// return the surviving records for replay.
    pub fn recover(
        dir: &Path,
        durability: Durability,
    ) -> Result<(Self, Vec<WalRecord>, ReplayReport)> {
        fs::create_dir_all(dir)?;
        let path = dir.join("wal.log");
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut buf = Vec::new();
        file.read_to_end(&mut buf)?;

        let mut records = Vec::new();
        let mut at = 0usize;
        let mut truncated = false;
        while at < buf.len() {
            match decode_frame(&buf[at..]) {
                Some((rec, used)) => {
                    records.push(rec);
                    at += used;
                }
                None => {
                    truncated = true;
                    break;
                }
            }
        }
        if truncated {
            file.set_len(at as u64)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(at as u64))?;

        let report = ReplayReport {
            records: records.len() as u64,
            commits: records
                .iter()
                .filter(|r| matches!(r, WalRecord::Commit(_)))
                .count() as u64,
            bytes: at as u64,
            truncated,
            last_version: records.iter().map(WalRecord::version).max().unwrap_or(0),
        };
        let wal = Wal {
            file,
            durability,
            valid_len: at as u64,
            records: records.len() as u64,
            poisoned: false,
        };
        Ok((wal, records, report))
    }

    /// Append one record; with [`Durability::Commit`] the record is
    /// fsync'd before this returns. On failure the torn prefix is cut
    /// back off the file (or, if even that fails, the log is poisoned and
    /// every further append errors until restart) — so an `Err` here
    /// means the record is *not* in the log, and the caller must not
    /// apply or acknowledge the commit.
    pub fn append(&mut self, rec: &WalRecord) -> Result<()> {
        if self.poisoned {
            return Err(Error::durability(
                "wal poisoned by an earlier torn append; restart to recover",
            ));
        }
        let r = self.try_append(rec);
        if r.is_err() && !self.poisoned {
            let repaired = self.file.set_len(self.valid_len).is_ok()
                && self.file.seek(SeekFrom::Start(self.valid_len)).is_ok();
            if !repaired {
                self.poisoned = true;
            }
        }
        r
    }

    fn try_append(&mut self, rec: &WalRecord) -> Result<()> {
        fail_point!("wal::before_append");
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if fail::eval("wal::short_write").is_some() {
            // A simulated torn write: half the frame reaches the disk and
            // the "process" is gone — no repair, the torn tail must stay
            // for recovery to truncate. The in-process handle is poisoned.
            self.file.write_all(&frame[..frame.len() / 2])?;
            let _ = self.file.sync_data();
            self.poisoned = true;
            return Err(Error::durability("failpoint wal::short_write: torn append"));
        }
        self.file.write_all(&frame)?;
        fail_point!("wal::after_append");
        if self.durability == Durability::Commit {
            self.file.sync_data()?;
        }
        self.valid_len += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Reset the log after a snapshot at `version`: truncate to empty and
    /// write the barrier record (the compaction step).
    pub fn reset(&mut self, version: u64) -> Result<()> {
        fail_point!("wal::before_reset");
        if self.poisoned {
            return Err(Error::durability(
                "wal poisoned by an earlier torn append; restart to recover",
            ));
        }
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.valid_len = 0;
        self.records = 0;
        self.append(&WalRecord::Barrier { version })?;
        // A barrier must be durable in every mode: the snapshot it points
        // at has already replaced the log's history.
        self.file.sync_data()?;
        Ok(())
    }

    /// Fsync the log (Batch mode's snapshot/shutdown sync point).
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    /// Records currently in the log (since the last reset).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Valid bytes currently in the log.
    pub fn bytes(&self) -> u64 {
        self.valid_len
    }
}

/// True when `dir` holds durable state to recover from (a snapshot
/// manifest or a non-empty log) — the serve binary skips `.facts`
/// preloading in that case.
pub fn dir_has_state(dir: &Path) -> bool {
    if snapshot_dir(dir).join("MANIFEST").exists() {
        return true;
    }
    fs::metadata(dir.join("wal.log"))
        .map(|m| m.len() > 0)
        .unwrap_or(false)
}

/// The snapshot subdirectory of a data dir.
pub fn snapshot_dir(dir: &Path) -> PathBuf {
    dir.join("snapshot")
}

/// One relation restored from a snapshot.
#[derive(Clone, Debug)]
pub struct SnapshotTable {
    /// Relation name.
    pub name: String,
    /// Row width.
    pub arity: usize,
    /// Row-major values.
    pub rows: Vec<Value>,
}

/// A decoded snapshot: the version it captures and every table.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `data_version` at snapshot time.
    pub version: u64,
    /// All tables, EDB and stored IDB alike.
    pub tables: Vec<SnapshotTable>,
}

/// Write a full snapshot of `rels` at `version` into `dir/snapshot`.
///
/// Table files are versioned (`name.<version>.tbl`) and written atomically
/// (temp + fsync + rename); the MANIFEST — carrying the version and a
/// checksum per table — is renamed into place last and is the commit
/// point: a crash anywhere before it leaves the previous snapshot (its
/// manifest *and* its table files) fully intact. Stale-version files are
/// garbage-collected only after the new manifest is durable.
pub fn write_snapshot<'a>(
    dir: &Path,
    version: u64,
    rels: impl IntoIterator<Item = &'a Relation>,
) -> Result<()> {
    let sdir = snapshot_dir(dir);
    fs::create_dir_all(&sdir)?;
    let mut entries: Vec<(String, usize, usize, u64)> = Vec::new();
    for rel in rels {
        let name = rel.schema().name.clone();
        let mut bytes = Vec::with_capacity(rel.len() * rel.arity() * 8);
        for r in 0..rel.len() {
            for c in 0..rel.arity() {
                bytes.extend_from_slice(&rel.col(c)[r].to_le_bytes());
            }
        }
        let sum = checksum(&bytes);
        write_atomic(
            &sdir.join(format!("{name}.{version}.tbl")),
            &bytes,
            "snapshot::before_rename",
        )?;
        entries.push((name, rel.arity(), rel.len(), sum));
    }

    let mut m = Vec::new();
    put_u64(&mut m, version);
    put_u32(&mut m, entries.len() as u32);
    for (name, arity, rows, sum) in &entries {
        put_str(&mut m, name);
        put_u32(&mut m, *arity as u32);
        put_u64(&mut m, *rows as u64);
        put_u64(&mut m, *sum);
    }
    let mut framed = Vec::with_capacity(8 + m.len());
    framed.extend_from_slice(&checksum(&m).to_le_bytes());
    framed.extend_from_slice(&m);
    write_atomic(
        &sdir.join("MANIFEST"),
        &framed,
        "snapshot::before_manifest_rename",
    )?;
    // Best-effort directory sync so the renames themselves survive a
    // power cut (not portably supported everywhere; ignore failures).
    if let Ok(d) = File::open(&sdir) {
        let _ = d.sync_all();
    }
    // The new manifest is the only root anyone reads through; previous-
    // version tables and temp leftovers are now garbage.
    let keep_suffix = format!(".{version}.tbl");
    if let Ok(rd) = fs::read_dir(&sdir) {
        for e in rd.flatten() {
            let f = e.file_name().to_string_lossy().into_owned();
            if f != "MANIFEST" && !f.ends_with(&keep_suffix) {
                let _ = fs::remove_file(e.path());
            }
        }
    }
    Ok(())
}

/// Read the snapshot under `dir`, if one exists. Checksums are verified
/// for the MANIFEST and every table; a mismatch is a hard
/// `Error::Durability` — a corrupt snapshot cannot be repaired by
/// truncation.
pub fn read_snapshot(dir: &Path) -> Result<Option<Snapshot>> {
    let sdir = snapshot_dir(dir);
    let framed = match fs::read(sdir.join("MANIFEST")) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    if framed.len() < 8 {
        return Err(Error::durability("snapshot MANIFEST too short"));
    }
    let (sum_bytes, m) = framed.split_at(8);
    if checksum(m) != u64::from_le_bytes(sum_bytes.try_into().unwrap()) {
        return Err(Error::durability("snapshot MANIFEST failed its checksum"));
    }
    let corrupt = || Error::durability("snapshot MANIFEST is malformed");
    let mut cur = Cur::new(m);
    let version = cur.u64().ok_or_else(corrupt)?;
    let n = cur.u32().ok_or_else(corrupt)?;
    let mut tables = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = cur.str().ok_or_else(corrupt)?;
        let arity = cur.u32().ok_or_else(corrupt)? as usize;
        let rows = cur.u64().ok_or_else(corrupt)? as usize;
        let sum = cur.u64().ok_or_else(corrupt)?;
        let bytes = fs::read(sdir.join(format!("{name}.{version}.tbl")))?;
        if bytes.len() != rows.saturating_mul(arity).saturating_mul(8) {
            return Err(Error::durability(format!(
                "snapshot table {name}: {} bytes on disk, manifest says {rows} rows × {arity}",
                bytes.len()
            )));
        }
        if checksum(&bytes) != sum {
            return Err(Error::durability(format!(
                "snapshot table {name} failed its checksum"
            )));
        }
        let rows_vec: Vec<Value> = bytes
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        tables.push(SnapshotTable {
            name,
            arity,
            rows: rows_vec,
        });
    }
    Ok(Some(Snapshot { version, tables }))
}

/// Write `bytes` to `path` atomically: temp file, fsync, rename. The
/// failpoint fires between fsync and rename — the crash window an atomic
/// replace must tolerate.
fn write_atomic(path: &Path, bytes: &[u8], failpoint: &str) -> Result<()> {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    name.push_str(".new");
    let tmp = path.with_file_name(name);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    // A crash here leaves only the temp file; recovery never reads it.
    fail_point!(failpoint);
    fs::rename(&tmp, path)?;
    Ok(())
}

// ---- record encoding -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_batches(out: &mut Vec<u8>, batches: &[WalBatch]) {
    put_u32(out, batches.len() as u32);
    for b in batches {
        put_str(out, &b.name);
        put_u32(out, b.arity as u32);
        put_u64(out, b.rows.len() as u64);
        for v in &b.rows {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        WalRecord::Commit(c) => {
            out.push(TAG_COMMIT);
            put_u64(&mut out, c.version);
            put_batches(&mut out, &c.inserts);
            put_batches(&mut out, &c.deletes);
        }
        WalRecord::Barrier { version } => {
            out.push(TAG_BARRIER);
            put_u64(&mut out, *version);
        }
    }
    out
}

/// Checksum used for WAL frames, snapshot tables and the MANIFEST:
/// `mix64` folded over 8-byte chunks, seeded with the length so a
/// truncated-but-zero-padded payload cannot collide.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = mix64(0x9e37_79b9_7f4a_7c15 ^ payload.len() as u64);
    for chunk in payload.chunks(8) {
        let mut buf = [0u8; 8];
        buf[..chunk.len()].copy_from_slice(chunk);
        h = mix64(h ^ u64::from_le_bytes(buf));
    }
    h
}

struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, at: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.bytes(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }

    fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        if n > 4096 {
            return None;
        }
        let b = self.bytes(n)?;
        String::from_utf8(b.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.at == self.buf.len()
    }
}

fn decode_batches(cur: &mut Cur<'_>) -> Option<Vec<WalBatch>> {
    let n = cur.u32()?;
    if n > 1 << 20 {
        return None;
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = cur.str()?;
        let arity = cur.u32()? as usize;
        if arity == 0 || arity > 1024 {
            return None;
        }
        let count = cur.u64()? as usize;
        if !count.is_multiple_of(arity) {
            return None;
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            rows.push(cur.i64()?);
        }
        out.push(WalBatch { name, arity, rows });
    }
    Some(out)
}

fn decode_record(payload: &[u8]) -> Option<WalRecord> {
    let mut cur = Cur::new(payload);
    let rec = match cur.u8()? {
        TAG_COMMIT => {
            let version = cur.u64()?;
            let inserts = decode_batches(&mut cur)?;
            let deletes = decode_batches(&mut cur)?;
            WalRecord::Commit(WalCommit {
                version,
                inserts,
                deletes,
            })
        }
        TAG_BARRIER => WalRecord::Barrier {
            version: cur.u64()?,
        },
        _ => return None,
    };
    // Trailing junk inside a checksummed frame means the encoder and
    // decoder disagree — treat as corruption.
    cur.done().then_some(rec)
}

/// Decode one frame from the head of `buf`; `None` on a torn or corrupt
/// frame (the caller truncates there).
fn decode_frame(buf: &[u8]) -> Option<(WalRecord, usize)> {
    if buf.len() < 12 {
        return None;
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let sum = u64::from_le_bytes(buf[4..12].try_into().unwrap());
    let end = 12usize.checked_add(len as usize)?;
    let payload = buf.get(12..end)?;
    if checksum(payload) != sum {
        return None;
    }
    Some((decode_record(payload)?, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

    /// Held by every test that passes a failpoint site (an append, a
    /// reset, a snapshot write): the sites are process-global, so a site
    /// one test arms must not fire inside another test running beside it.
    fn fp_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "recstep-wal-test-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn commit(version: u64, tag: i64) -> WalRecord {
        WalRecord::Commit(WalCommit {
            version,
            inserts: vec![WalBatch {
                name: "edge".into(),
                arity: 2,
                rows: vec![tag, tag + 1],
            }],
            deletes: vec![],
        })
    }

    #[test]
    fn append_then_recover_roundtrips() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, recs, _) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert!(recs.is_empty());
        wal.append(&commit(1, 10)).unwrap();
        wal.append(&commit(2, 20)).unwrap();
        wal.append(&WalRecord::Barrier { version: 2 }).unwrap();
        assert_eq!(wal.records(), 3);
        drop(wal);

        let (_, recs, report) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0], commit(1, 10));
        assert_eq!(recs[1], commit(2, 20));
        assert!(!report.truncated);
        assert_eq!(report.commits, 2);
        assert_eq!(report.last_version, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_kept() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, _, _) = Wal::recover(&dir, Durability::Commit).unwrap();
        wal.append(&commit(1, 10)).unwrap();
        let good_len = wal.bytes();
        drop(wal);
        // Simulate a torn append: garbage bytes after the good record.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.log"))
            .unwrap();
        f.write_all(&[0xde, 0xad, 0xbe, 0xef, 1, 2, 3]).unwrap();
        drop(f);

        let (_, recs, report) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert_eq!(recs.len(), 1, "the good record survives");
        assert!(report.truncated);
        assert_eq!(report.bytes, good_len);
        assert_eq!(
            fs::metadata(dir.join("wal.log")).unwrap().len(),
            good_len,
            "the torn tail is physically cut off"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_it_and_everything_after() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, _, _) = Wal::recover(&dir, Durability::Commit).unwrap();
        wal.append(&commit(1, 10)).unwrap();
        let first_len = wal.bytes();
        wal.append(&commit(2, 20)).unwrap();
        wal.append(&commit(3, 30)).unwrap();
        drop(wal);
        // Flip one payload byte inside the second record.
        let mut bytes = fs::read(dir.join("wal.log")).unwrap();
        let idx = first_len as usize + 13;
        bytes[idx] ^= 0xff;
        fs::write(dir.join("wal.log"), &bytes).unwrap();

        let (_, recs, report) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert_eq!(recs.len(), 1, "records after the corrupt one are gone too");
        assert_eq!(recs[0].version(), 1);
        assert!(report.truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_poisons_and_restart_recovers_the_prefix() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, _, _) = Wal::recover(&dir, Durability::Commit).unwrap();
        wal.append(&commit(1, 10)).unwrap();
        fail::cfg("wal::short_write", "return_io_err").unwrap();
        assert!(wal.append(&commit(2, 20)).is_err());
        fail::remove("wal::short_write");
        // The in-process handle is poisoned: no further appends.
        let err = wal.append(&commit(3, 30)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        drop(wal);

        let (_, recs, report) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert_eq!(recs.len(), 1, "only the acked commit survives");
        assert_eq!(recs[0].version(), 1);
        assert!(report.truncated, "the torn half-frame was cut off");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_leaves_no_partial_record() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, _, _) = Wal::recover(&dir, Durability::Commit).unwrap();
        wal.append(&commit(1, 10)).unwrap();
        fail::cfg("wal::after_append", "return_io_err").unwrap();
        assert!(wal.append(&commit(2, 20)).is_err());
        fail::remove("wal::after_append");
        // The fully-written-but-unacked record was repaired away; the log
        // keeps accepting appends.
        wal.append(&commit(3, 30)).unwrap();
        drop(wal);
        let (_, recs, report) = Wal::recover(&dir, Durability::Commit).unwrap();
        assert_eq!(
            recs.iter().map(WalRecord::version).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert!(!report.truncated);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reset_compacts_to_a_barrier() {
        let _fp = fp_lock();
        let dir = tmpdir();
        let (mut wal, _, _) = Wal::recover(&dir, Durability::Batch).unwrap();
        for i in 1..=5 {
            wal.append(&commit(i, i as i64)).unwrap();
        }
        wal.reset(5).unwrap();
        assert_eq!(wal.records(), 1);
        drop(wal);
        let (_, recs, report) = Wal::recover(&dir, Durability::Batch).unwrap();
        assert_eq!(recs, vec![WalRecord::Barrier { version: 5 }]);
        assert_eq!(report.last_version, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_roundtrips_and_detects_corruption() {
        let _fp = fp_lock();
        use crate::relation::Schema;
        let dir = tmpdir();
        let mut edge = Relation::new(Schema::with_arity("edge", 2));
        edge.push_row(&[1, 2]);
        edge.push_row(&[2, 3]);
        let mut node = Relation::new(Schema::with_arity("node", 1));
        node.push_row(&[7]);
        write_snapshot(&dir, 42, [&edge, &node]).unwrap();
        assert!(dir_has_state(&dir));

        let snap = read_snapshot(&dir).unwrap().expect("snapshot exists");
        assert_eq!(snap.version, 42);
        assert_eq!(snap.tables.len(), 2);
        let e = snap.tables.iter().find(|t| t.name == "edge").unwrap();
        assert_eq!(e.arity, 2);
        assert_eq!(e.rows, vec![1, 2, 2, 3]);

        // A corrupt table byte fails loudly, not silently.
        let tbl = snapshot_dir(&dir).join("edge.42.tbl");
        let mut bytes = fs::read(&tbl).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&tbl, &bytes).unwrap();
        let err = read_snapshot(&dir).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aborted_snapshot_preserves_the_previous_snapshot() {
        let _fp = fp_lock();
        use crate::relation::Schema;
        let dir = tmpdir();
        let mut edge = Relation::new(Schema::with_arity("edge", 2));
        edge.push_row(&[1, 2]);
        write_snapshot(&dir, 1, [&edge]).unwrap();

        // Crash at either rename site of the second snapshot: the first
        // snapshot — manifest AND table files — must stay fully readable.
        for fp in [
            "snapshot::before_rename",
            "snapshot::before_manifest_rename",
        ] {
            edge.push_row(&[2, 3]);
            fail::cfg(fp, "return_io_err").unwrap();
            assert!(write_snapshot(&dir, 2, [&edge]).is_err(), "{fp}");
            fail::remove(fp);
            let s = read_snapshot(&dir).unwrap().expect("old snapshot intact");
            assert_eq!(s.version, 1, "{fp}: manifest rename is the commit point");
            assert_eq!(s.tables[0].rows, vec![1, 2], "{fp}: old rows intact");
        }

        // A completed snapshot takes over and garbage-collects version 1.
        write_snapshot(&dir, 2, [&edge]).unwrap();
        let s = read_snapshot(&dir).unwrap().unwrap();
        assert_eq!(s.version, 2);
        assert_eq!(s.tables[0].rows.len(), 3 * 2);
        assert!(!snapshot_dir(&dir).join("edge.1.tbl").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durability_parses() {
        assert_eq!(Durability::parse("off"), Some(Durability::Off));
        assert_eq!(Durability::parse("commit"), Some(Durability::Commit));
        assert_eq!(Durability::parse("batch"), Some(Durability::Batch));
        assert_eq!(Durability::parse("paranoid"), None);
        assert_eq!(Durability::Batch.as_str(), "batch");
    }
}
