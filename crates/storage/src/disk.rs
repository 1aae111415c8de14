//! Simulated persistent storage: per-query commit vs. EOST.
//!
//! QuickStep, like most RDBMSs, treats each state-changing query as its own
//! transaction: dirty pages are written back after every query. For Datalog
//! that means every iteration's inserts into IDB tables and intermediate
//! tables hit the disk, which the paper identifies as pure overhead —
//! Evaluation as One Single Transaction (EOST, §5.2) pends all I/O until the
//! fixpoint and commits once.
//!
//! [`DiskManager`] reproduces both behaviours with real file I/O so the
//! Figure 2 ablation measures an honest cost: in [`CommitMode::PerQuery`]
//! every `note_dirty` call serializes the newly appended rows and appends
//! them to the table's backing file; in [`CommitMode::Eost`] it only records
//! dirtiness and [`DiskManager::commit_all`] writes final states once.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use recstep_common::hash::FxHashMap;
use recstep_common::{fail_point, Result};

use crate::relation::{RelView, Relation};

/// Transaction semantics of the simulated store.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitMode {
    /// Default RDBMS behaviour: flush dirty rows after every
    /// state-changing query.
    PerQuery,
    /// Paper's EOST: pend all I/O until fixpoint, then commit once.
    Eost,
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Simulated persistent store backing a catalog.
pub struct DiskManager {
    dir: PathBuf,
    mode: CommitMode,
    /// Rows already persisted per table (PerQuery appends only the delta).
    persisted_rows: FxHashMap<String, usize>,
    /// Tables with unpersisted rows (EOST mode).
    dirty: Vec<String>,
    bytes_written: u64,
    flushes: u64,
}

impl DiskManager {
    /// Create a store rooted in a fresh temp directory.
    pub fn new(mode: CommitMode) -> Result<Self> {
        let dir = std::env::temp_dir().join(format!(
            "recstep-disk-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir)?;
        Ok(DiskManager {
            dir,
            mode,
            persisted_rows: FxHashMap::default(),
            dirty: Vec::new(),
            bytes_written: 0,
            flushes: 0,
        })
    }

    /// Commit mode in effect.
    pub fn mode(&self) -> CommitMode {
        self.mode
    }

    /// Switch the commit mode. The mode is an *engine* policy (EOST is a
    /// paper §5.2 optimization toggle), while the store itself belongs to
    /// the database holding the data — so an evaluation sets the mode it
    /// was configured with before running.
    pub fn set_mode(&mut self, mode: CommitMode) {
        self.mode = mode;
    }

    /// Called after a state-changing query touched `rel`.
    ///
    /// PerQuery: persist the newly appended rows immediately.
    /// EOST: just remember the table is dirty.
    pub fn note_dirty(&mut self, rel: &Relation) -> Result<()> {
        match self.mode {
            CommitMode::PerQuery => self.flush_table(rel),
            CommitMode::Eost => {
                let name = &rel.schema().name;
                if !self.dirty.iter().any(|d| d == name) {
                    self.dirty.push(name.clone());
                }
                Ok(())
            }
        }
    }

    /// Persist a *temporary* table (a `∆`/`Rt` intermediate) and drop it
    /// again — the per-query dirty-page flush QuickStep performs for tables
    /// "storing intermediate results" (§5.2). A no-op under EOST, where all
    /// I/O pends until the final commit and temporaries never reach disk.
    pub fn flush_temp(&mut self, name: &str, view: RelView<'_>) -> Result<()> {
        if self.mode == CommitMode::Eost || view.is_empty() {
            return Ok(());
        }
        let path = self.dir.join(format!("{name}.tmp"));
        let mut w = BufWriter::new(File::create(&path)?);
        let mut bytes = 0u64;
        for r in 0..view.len() {
            for c in 0..view.arity() {
                w.write_all(&view.get(r, c).to_le_bytes())?;
                bytes += 8;
            }
        }
        w.flush()?;
        drop(w);
        fs::remove_file(&path)?;
        self.bytes_written += bytes;
        self.flushes += 1;
        Ok(())
    }

    /// End-of-evaluation commit: persist every dirty table (a no-op for
    /// PerQuery mode, which already wrote through). Each table is
    /// replaced atomically (temp file + fsync + rename) — so a crash
    /// mid-commit never leaves a torn table file.
    pub fn commit_all<'a>(&mut self, resolve: impl Fn(&str) -> Option<&'a Relation>) -> Result<()> {
        let dirty = std::mem::take(&mut self.dirty);
        for name in dirty {
            if let Some(rel) = resolve(&name) {
                self.commit_table(rel)?;
            }
        }
        Ok(())
    }

    /// Atomically replace a table's backing file with the relation's full
    /// state: write `NAME.tbl.new`, fsync, rename over `NAME.tbl`. A
    /// failure (or crash) anywhere before the rename leaves the
    /// previously committed file byte-for-byte intact.
    fn commit_table(&mut self, rel: &Relation) -> Result<()> {
        let name = rel.schema().name.clone();
        let from = *self.persisted_rows.get(&name).unwrap_or(&0);
        let to = rel.len();
        if to <= from {
            return Ok(());
        }
        let tmp = self.dir.join(format!("{name}.tbl.new"));
        let mut w = BufWriter::new(File::create(&tmp)?);
        let mut bytes = 0u64;
        for r in 0..to {
            for c in 0..rel.arity() {
                w.write_all(&rel.col(c)[r].to_le_bytes())?;
                bytes += 8;
            }
        }
        w.flush()?;
        let file = w.into_inner().map_err(|e| e.into_error())?;
        file.sync_data()?;
        drop(file);
        fail_point!("disk::before_rename");
        fs::rename(&tmp, self.table_path(&name))?;
        self.persisted_rows.insert(name, to);
        self.bytes_written += bytes;
        self.flushes += 1;
        Ok(())
    }

    fn flush_table(&mut self, rel: &Relation) -> Result<()> {
        let name = rel.schema().name.clone();
        let from = *self.persisted_rows.get(&name).unwrap_or(&0);
        let to = rel.len();
        if to <= from {
            return Ok(());
        }
        let path = self.table_path(&name);
        let file = if from == 0 {
            File::create(&path)?
        } else {
            OpenOptions::new().append(true).open(&path)?
        };
        let mut w = BufWriter::new(file);
        let mut bytes = 0u64;
        for r in from..to {
            for c in 0..rel.arity() {
                w.write_all(&rel.col(c)[r].to_le_bytes())?;
                bytes += 8;
            }
        }
        w.flush()?;
        self.persisted_rows.insert(name, to);
        self.bytes_written += bytes;
        self.flushes += 1;
        Ok(())
    }

    /// Path of a table's backing file.
    pub fn table_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}.tbl"))
    }

    /// Total bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Number of flush operations performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Rows persisted for a table.
    pub fn persisted_rows(&self, name: &str) -> usize {
        *self.persisted_rows.get(name).unwrap_or(&0)
    }
}

impl Drop for DiskManager {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Schema;

    /// The `disk::before_rename` failpoint is process-global, and the test
    /// harness runs this module's tests on parallel threads: every test
    /// that reaches `commit_all` holds this lock, so none of them can run
    /// while another has the failpoint armed.
    static COMMIT_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serialise_commits() -> std::sync::MutexGuard<'static, ()> {
        // A poisoned lock means another commit test panicked, possibly
        // with the failpoint armed: disarm it rather than fail them all.
        let guard = COMMIT_TESTS.lock().unwrap_or_else(|e| e.into_inner());
        recstep_common::fail::remove("disk::before_rename");
        guard
    }

    fn rel(n: usize) -> Relation {
        let mut r = Relation::new(Schema::new("t", &["a", "b"]));
        for i in 0..n {
            r.push_row(&[i as i64, (i * 2) as i64]);
        }
        r
    }

    #[test]
    fn per_query_writes_through_incrementally() {
        let mut dm = DiskManager::new(CommitMode::PerQuery).unwrap();
        let mut r = rel(3);
        dm.note_dirty(&r).unwrap();
        assert_eq!(dm.persisted_rows("t"), 3);
        assert_eq!(dm.bytes_written(), 3 * 2 * 8);
        assert_eq!(dm.flushes(), 1);
        // Append two rows: only the delta is flushed.
        r.push_row(&[100, 200]);
        r.push_row(&[101, 202]);
        dm.note_dirty(&r).unwrap();
        assert_eq!(dm.persisted_rows("t"), 5);
        assert_eq!(dm.bytes_written(), 5 * 2 * 8);
        assert_eq!(dm.flushes(), 2);
        let on_disk = std::fs::metadata(dm.table_path("t")).unwrap().len();
        assert_eq!(on_disk, 5 * 2 * 8);
    }

    #[test]
    fn eost_pends_until_commit_all() {
        let _serial = serialise_commits();
        let mut dm = DiskManager::new(CommitMode::Eost).unwrap();
        let r = rel(4);
        dm.note_dirty(&r).unwrap();
        dm.note_dirty(&r).unwrap(); // dedup of dirty set
        assert_eq!(dm.bytes_written(), 0);
        assert_eq!(dm.flushes(), 0);
        dm.commit_all(|name| if name == "t" { Some(&r) } else { None })
            .unwrap();
        assert_eq!(dm.bytes_written(), 4 * 2 * 8);
        assert_eq!(dm.flushes(), 1);
    }

    #[test]
    fn unchanged_table_is_not_rewritten() {
        let mut dm = DiskManager::new(CommitMode::PerQuery).unwrap();
        let r = rel(2);
        dm.note_dirty(&r).unwrap();
        let b = dm.bytes_written();
        dm.note_dirty(&r).unwrap();
        assert_eq!(dm.bytes_written(), b);
    }

    #[test]
    fn flush_temp_counts_bytes_in_per_query_mode_only() {
        let r = rel(3);
        let mut per_query = DiskManager::new(CommitMode::PerQuery).unwrap();
        per_query.flush_temp("t_delta", r.view()).unwrap();
        assert_eq!(per_query.bytes_written(), 3 * 2 * 8);
        assert_eq!(per_query.flushes(), 1);
        let mut eost = DiskManager::new(CommitMode::Eost).unwrap();
        eost.flush_temp("t_delta", r.view()).unwrap();
        assert_eq!(eost.bytes_written(), 0);
        // Empty views are skipped.
        let empty = Relation::new(Schema::with_arity("e", 2));
        per_query.flush_temp("e", empty.view()).unwrap();
        assert_eq!(per_query.flushes(), 1);
    }

    #[test]
    fn aborted_commit_leaves_previous_file_intact() {
        use recstep_common::fail;
        let _serial = serialise_commits();
        let mut dm = DiskManager::new(CommitMode::Eost).unwrap();
        let mut r = rel(3);
        dm.note_dirty(&r).unwrap();
        dm.commit_all(|name| (name == "t").then_some(&r)).unwrap();
        let committed = std::fs::read(dm.table_path("t")).unwrap();
        assert_eq!(committed.len(), 3 * 2 * 8);

        // A commit that dies between fsync and rename must not touch the
        // previously committed bytes.
        r.push_row(&[100, 200]);
        dm.note_dirty(&r).unwrap();
        fail::cfg("disk::before_rename", "return_io_err").unwrap();
        assert!(dm.commit_all(|name| (name == "t").then_some(&r)).is_err());
        fail::remove("disk::before_rename");
        assert_eq!(
            std::fs::read(dm.table_path("t")).unwrap(),
            committed,
            "old table file is byte-for-byte intact"
        );

        // Retrying after the fault lands the full new state atomically.
        dm.note_dirty(&r).unwrap();
        dm.commit_all(|name| (name == "t").then_some(&r)).unwrap();
        let len = std::fs::metadata(dm.table_path("t")).unwrap().len();
        assert_eq!(len, 4 * 2 * 8);
    }

    #[test]
    fn temp_dir_cleaned_on_drop() {
        let path;
        {
            let mut dm = DiskManager::new(CommitMode::PerQuery).unwrap();
            let r = rel(1);
            dm.note_dirty(&r).unwrap();
            path = dm.table_path("t");
            assert!(path.exists());
        }
        assert!(!path.exists());
    }
}
