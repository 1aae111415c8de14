//! The database: EDB facts plus derived relations, separated from the
//! engine that computes over them.
//!
//! A [`Database`] owns a [`Catalog`] of in-memory columnar relations. It
//! knows nothing about evaluation: programs are compiled by an
//! [`crate::Engine`] into [`crate::PreparedProgram`]s, which run over any
//! database — one program over many databases, many programs over one
//! database, or both.
//!
//! Results come back through the zero-copy [`RelHandle`] layer:
//! [`Database::relation`] borrows the stored columns directly, and
//! materializing an owned `Vec<Vec<Value>>` is an explicit `to_vec()`
//! escape hatch rather than the default.
//!
//! The database also owns the **shared cross-run index cache**
//! ([`Database::index_cache`]): join build-side indexes over frozen
//! relations, built by one run and reused — concurrently — by every other
//! run over this database. The cache is keyed by catalog version, so
//! loading new data never serves stale indexes; it just makes them cold.

use std::sync::Arc;

use recstep_common::{Error, Result, Value};
use recstep_exec::cache::IndexCache;
use recstep_storage::wal::WalCommit;
use recstep_storage::{Catalog, RelHandle, Schema};

use crate::stats::EvalStats;

/// A collection of relations: EDB inputs plus the IDB results of any
/// programs that have run over it.
pub struct Database {
    catalog: Catalog,
    cache: Arc<IndexCache>,
}

// `&Database` is handed to N concurrent `run_shared` evaluations.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

impl Database {
    /// Create an empty database. It lives in memory only and touches no
    /// file, so this never fails; the `Result` is kept for API stability.
    pub fn new() -> Result<Self> {
        Ok(Database {
            catalog: Catalog::new(),
            cache: Arc::new(IndexCache::new()),
        })
    }

    /// Read access to the catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Zero-copy handle over a relation, if it exists.
    pub fn relation(&self, name: &str) -> Option<RelHandle<'_>> {
        self.catalog
            .lookup(name)
            .map(|id| RelHandle::new(self.catalog.rel(id)))
    }

    /// Row count of a relation (0 if unknown).
    pub fn row_count(&self, name: &str) -> usize {
        self.catalog
            .lookup(name)
            .map_or(0, |id| self.catalog.rel(id).len())
    }

    /// Total heap bytes across all stored relations.
    pub fn heap_bytes(&self) -> usize {
        self.catalog.heap_bytes()
    }

    /// Load (or extend) a relation from row-major data in one batch.
    pub fn load_relation(&mut self, name: &str, arity: usize, rows: &[Vec<Value>]) -> Result<()> {
        let mut tx = self.transaction();
        tx.load_rows(name, arity, rows.iter().map(Vec::as_slice))?;
        tx.commit()
    }

    /// Load a binary edge relation.
    pub fn load_edges(&mut self, name: &str, edges: &[(Value, Value)]) -> Result<()> {
        let mut tx = self.transaction();
        tx.load_edges(name, edges)?;
        tx.commit()
    }

    /// Load a weighted edge relation `(src, dst, weight)`.
    pub fn load_weighted_edges(
        &mut self,
        name: &str,
        edges: &[(Value, Value, Value)],
    ) -> Result<()> {
        let mut tx = self.transaction();
        tx.load_weighted_edges(name, edges)?;
        tx.commit()
    }

    /// Load a binary relation given symbolically; strings are dictionary
    /// encoded (paper §5.2 fn. 2) into `dict`, which also resolves results
    /// back via [`recstep_common::dict::Dictionary::resolve`].
    pub fn load_symbolic_edges(
        &mut self,
        name: &str,
        dict: &mut recstep_common::dict::Dictionary,
        edges: &[(&str, &str)],
    ) -> Result<()> {
        let encoded: Vec<(Value, Value)> = edges
            .iter()
            .map(|&(a, b)| (dict.intern(a), dict.intern(b)))
            .collect();
        self.load_edges(name, &encoded)
    }

    /// Start a bulk-load transaction: stage any number of `load_*` calls,
    /// then [`Transaction::commit`] applies them all at once (or drop the
    /// transaction to discard everything staged).
    pub fn transaction(&mut self) -> Transaction<'_> {
        Transaction {
            db: self,
            staged: Vec::new(),
        }
    }

    /// Catalog version of one relation (0 if it does not exist yet).
    ///
    /// Every commit touching the relation bumps this; the query service
    /// uses it to invalidate prepared programs per relation read rather
    /// than on every `/facts` commit.
    pub fn relation_version(&self, name: &str) -> u64 {
        self.catalog
            .lookup(name)
            .map_or(0, |id| self.catalog.version(id))
    }

    /// WAL-recovery entry point: apply one logged `/facts` commit through
    /// a regular [`Transaction`], reproducing exactly what the original
    /// commit did (inserts first, then staged deletes).
    pub fn apply_wal_commit(&mut self, commit: &WalCommit) -> Result<()> {
        let mut tx = self.transaction();
        for b in &commit.inserts {
            if b.arity == 0 {
                return Err(Error::durability(format!(
                    "wal commit v{}: relation '{}' has arity 0",
                    commit.version, b.name
                )));
            }
            tx.load_rows(&b.name, b.arity, b.rows.chunks(b.arity))?;
        }
        for b in &commit.deletes {
            if b.arity == 0 {
                return Err(Error::durability(format!(
                    "wal commit v{}: relation '{}' has arity 0",
                    commit.version, b.name
                )));
            }
            tx.delete_rows(&b.name, b.arity, b.rows.chunks(b.arity))?;
        }
        tx.commit()
    }

    /// The shared cross-run index cache owned by this database.
    ///
    /// Useful for observation (resident bytes, entry count) and for
    /// explicit spills: [`IndexCache::evict_all`] drops every entry no run
    /// is currently using, after which the next run simply rebuilds.
    ///
    /// ```
    /// use recstep::{Database, Engine};
    ///
    /// let engine = Engine::builder().threads(1).build().unwrap();
    /// let prog = engine.prepare("p(x) :- node(x), !blocked(x).").unwrap();
    /// let mut db = Database::new().unwrap();
    /// db.load_relation("node", 1, &[vec![1], vec![2], vec![3]]).unwrap();
    /// db.load_relation("blocked", 1, &[vec![1], vec![3]]).unwrap();
    ///
    /// let first = prog.run(&mut db).unwrap();
    /// assert_eq!(first.index.cache_misses, 1); // built + published
    /// assert!(db.index_cache().resident_bytes() > 0);
    ///
    /// let again = prog.run(&mut db).unwrap();
    /// assert_eq!(again.index.cache_hits, 1); // reused, not rebuilt
    ///
    /// db.index_cache().evict_all(); // explicit spill: next run rebuilds
    /// assert_eq!(db.index_cache().resident_bytes(), 0);
    /// ```
    pub fn index_cache(&self) -> &Arc<IndexCache> {
        &self.cache
    }

    /// Mutable catalog access for an exclusive evaluation.
    pub(crate) fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }
}

/// The results of one shared-mode evaluation
/// ([`crate::PreparedProgram::run_shared`]): the run-local overlay catalog
/// holding every relation the run derived (or shadowed), plus the run's
/// statistics. The base [`Database`] is untouched — reading results goes
/// through this value instead.
pub struct RunOutput {
    pub(crate) catalog: Catalog,
    pub(crate) stats: EvalStats,
}

impl RunOutput {
    /// Zero-copy handle over a derived relation, if this run produced it.
    pub fn relation(&self, name: &str) -> Option<RelHandle<'_>> {
        self.catalog
            .lookup(name)
            .map(|id| RelHandle::new(self.catalog.rel(id)))
    }

    /// Row count of a derived relation (0 if this run did not produce it).
    pub fn row_count(&self, name: &str) -> usize {
        self.catalog
            .lookup(name)
            .map_or(0, |id| self.catalog.rel(id).len())
    }

    /// The run's evaluation statistics.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// The overlay catalog itself (every relation this run wrote).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }
}

/// One staged relation of a [`Transaction`]: name, arity, column-major
/// inserts plus row-major deletes.
struct Staged {
    name: String,
    arity: usize,
    cols: Vec<Vec<Value>>,
    deletes: Vec<Vec<Value>>,
}

/// A bulk loader staging rows for several relations and applying them
/// atomically on [`commit`](Transaction::commit).
///
/// Validation (arity conflicts with already-stored relations or between
/// staged batches) happens at staging time, so a `commit` after successful
/// `load_*` calls cannot half-apply: either every staged row lands or —
/// when the transaction is dropped instead — none do.
pub struct Transaction<'a> {
    db: &'a mut Database,
    staged: Vec<Staged>,
}

impl Transaction<'_> {
    /// Stage row-major data for a relation.
    pub fn load_rows<'r>(
        &mut self,
        name: &str,
        arity: usize,
        rows: impl IntoIterator<Item = &'r [Value]>,
    ) -> Result<()> {
        // Buffer locally first so a ragged row part-way through leaves
        // nothing staged from this call.
        let mut cols = vec![Vec::new(); arity];
        for row in rows {
            if row.len() != arity {
                return Err(Error::exec(format!(
                    "row arity {} does not match declared arity {arity} for '{name}'",
                    row.len()
                )));
            }
            for (col, &v) in cols.iter_mut().zip(row) {
                col.push(v);
            }
        }
        let staged = self.staged_entry(name, arity)?;
        for (dst, mut src) in staged.cols.iter_mut().zip(cols) {
            dst.append(&mut src);
        }
        Ok(())
    }

    /// Stage column-major data for a relation: `cols` holds `arity`
    /// equally long columns, moved in as they are (no row-major detour,
    /// and no copy when nothing else is staged for the relation).
    pub fn load_columns(&mut self, name: &str, arity: usize, cols: Vec<Vec<Value>>) -> Result<()> {
        if cols.len() != arity {
            return Err(Error::exec(format!(
                "{} columns do not match declared arity {arity} for '{name}'",
                cols.len()
            )));
        }
        let rows = cols.first().map_or(0, Vec::len);
        if cols.iter().any(|c| c.len() != rows) {
            return Err(Error::exec(format!("ragged columns for '{name}'")));
        }
        let staged = self.staged_entry(name, arity)?;
        for (dst, mut src) in staged.cols.iter_mut().zip(cols) {
            if dst.is_empty() {
                *dst = src;
            } else {
                dst.append(&mut src);
            }
        }
        Ok(())
    }

    /// Stage a binary edge relation.
    pub fn load_edges(&mut self, name: &str, edges: &[(Value, Value)]) -> Result<()> {
        let staged = self.staged_entry(name, 2)?;
        staged.cols[0].extend(edges.iter().map(|&(s, _)| s));
        staged.cols[1].extend(edges.iter().map(|&(_, t)| t));
        Ok(())
    }

    /// Stage a weighted edge relation `(src, dst, weight)`.
    pub fn load_weighted_edges(
        &mut self,
        name: &str,
        edges: &[(Value, Value, Value)],
    ) -> Result<()> {
        let staged = self.staged_entry(name, 3)?;
        staged.cols[0].extend(edges.iter().map(|&(s, _, _)| s));
        staged.cols[1].extend(edges.iter().map(|&(_, t, _)| t));
        staged.cols[2].extend(edges.iter().map(|&(_, _, w)| w));
        Ok(())
    }

    /// Stage whole-tuple deletions for a relation (applied after this
    /// transaction's inserts; every matching occurrence is removed).
    pub fn delete_rows<'r>(
        &mut self,
        name: &str,
        arity: usize,
        rows: impl IntoIterator<Item = &'r [Value]>,
    ) -> Result<()> {
        let mut staged_rows = Vec::new();
        for row in rows {
            if row.len() != arity {
                return Err(Error::exec(format!(
                    "row arity {} does not match declared arity {arity} for '{name}'",
                    row.len()
                )));
            }
            staged_rows.push(row.to_vec());
        }
        let staged = self.staged_entry(name, arity)?;
        staged.deletes.append(&mut staged_rows);
        Ok(())
    }

    /// Apply every staged batch to the database.
    pub fn commit(self) -> Result<()> {
        for staged in self.staged {
            let id = match self.db.catalog.lookup(&staged.name) {
                Some(id) => id,
                None => self
                    .db
                    .catalog
                    .create(Schema::with_arity(&staged.name, staged.arity))?,
            };
            let rel = self.db.catalog.rel_mut(id);
            rel.append_columns(staged.cols);
            if !staged.deletes.is_empty() {
                rel.delete_rows(&staged.deletes);
            }
        }
        Ok(())
    }

    fn staged_entry(&mut self, name: &str, arity: usize) -> Result<&mut Staged> {
        // Arity conflicts surface at staging time, before anything applies.
        if let Some(id) = self.db.catalog.lookup(name) {
            let existing = self.db.catalog.rel(id).arity();
            if existing != arity {
                return Err(Error::exec(format!(
                    "relation '{name}' exists with arity {existing}, got {arity}"
                )));
            }
        }
        let pos = match self.staged.iter().position(|s| s.name == name) {
            Some(pos) => {
                if self.staged[pos].arity != arity {
                    return Err(Error::exec(format!(
                        "relation '{name}' staged with arity {}, got {arity}",
                        self.staged[pos].arity
                    )));
                }
                pos
            }
            None => {
                self.staged.push(Staged {
                    name: name.to_string(),
                    arity,
                    cols: vec![Vec::new(); arity],
                    deletes: Vec::new(),
                });
                self.staged.len() - 1
            }
        };
        Ok(&mut self.staged[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_read_back_through_handle() {
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
        db.load_edges("arc", &[(3, 4)]).unwrap();
        assert_eq!(db.row_count("arc"), 3);
        let arc = db.relation("arc").unwrap();
        assert_eq!(arc.as_pairs().unwrap(), vec![(1, 2), (2, 3), (3, 4)]);
        assert!(db.relation("nope").is_none());
        assert!(db.heap_bytes() >= 3 * 2 * 8);
    }

    #[test]
    fn transaction_is_all_or_nothing() {
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(1, 2)]).unwrap();
        // Arity conflict detected at staging; nothing staged before the
        // failure lands because the transaction is dropped uncommitted.
        let mut tx = db.transaction();
        tx.load_edges("other", &[(5, 6)]).unwrap();
        let err = tx.load_rows("arc", 3, [vec![1, 2, 3]].iter().map(Vec::as_slice));
        assert!(err.is_err());
        drop(tx);
        assert_eq!(db.row_count("other"), 0);
        assert_eq!(db.row_count("arc"), 1);
        // A committed transaction applies every staged batch.
        let mut tx = db.transaction();
        tx.load_edges("arc", &[(2, 3)]).unwrap();
        tx.load_weighted_edges("warc", &[(1, 2, 9)]).unwrap();
        tx.commit().unwrap();
        assert_eq!(db.row_count("arc"), 2);
        assert_eq!(db.row_count("warc"), 1);
    }

    #[test]
    fn staged_deletes_apply_after_inserts_and_bump_the_version() {
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(1, 2), (2, 3), (1, 2)]).unwrap();
        let id = db.catalog.lookup("arc").unwrap();
        let v0 = db.catalog.version(id);
        let mut tx = db.transaction();
        tx.load_edges("arc", &[(4, 5)]).unwrap();
        tx.delete_rows("arc", 2, [vec![1, 2]].iter().map(Vec::as_slice))
            .unwrap();
        // Arity mismatches surface at staging, like inserts.
        assert!(tx
            .delete_rows("arc", 3, [vec![1, 2, 3]].iter().map(Vec::as_slice))
            .is_err());
        tx.commit().unwrap();
        let arc = db.relation("arc").unwrap();
        assert_eq!(arc.as_pairs().unwrap(), vec![(2, 3), (4, 5)]);
        assert!(
            db.catalog.version(id) > v0,
            "writes must invalidate version-keyed caches"
        );
    }

    #[test]
    fn staged_columns_move_in_and_append_after_rows() {
        let mut db = Database::new().unwrap();
        let mut tx = db.transaction();
        tx.load_columns("arc", 2, vec![vec![1, 2], vec![10, 20]])
            .unwrap();
        tx.load_rows("arc", 2, [vec![3, 30]].iter().map(Vec::as_slice))
            .unwrap();
        tx.load_columns("arc", 2, vec![vec![4], vec![40]]).unwrap();
        // Wrong column count and ragged columns fail at staging.
        assert!(tx.load_columns("arc", 2, vec![vec![5]]).is_err());
        assert!(tx
            .load_columns("arc", 2, vec![vec![5, 6], vec![50]])
            .is_err());
        tx.commit().unwrap();
        let arc = db.relation("arc").unwrap();
        assert_eq!(
            arc.as_pairs().unwrap(),
            vec![(1, 10), (2, 20), (3, 30), (4, 40)]
        );
    }

    #[test]
    fn ragged_rows_rejected_at_staging() {
        let mut db = Database::new().unwrap();
        let mut tx = db.transaction();
        let rows = [vec![1, 2], vec![3]];
        assert!(tx
            .load_rows("t", 2, rows.iter().map(Vec::as_slice))
            .is_err());
    }

    #[test]
    fn wal_commit_replays_like_the_original_transaction() {
        use recstep_storage::wal::{WalBatch, WalCommit};
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(1, 2), (2, 3)]).unwrap();
        let v_arc = db.relation_version("arc");
        assert!(v_arc > 0);
        assert_eq!(db.relation_version("nope"), 0);

        db.apply_wal_commit(&WalCommit {
            version: 1,
            inserts: vec![WalBatch {
                name: "arc".into(),
                arity: 2,
                rows: vec![3, 4, 4, 5],
            }],
            deletes: vec![WalBatch {
                name: "arc".into(),
                arity: 2,
                rows: vec![1, 2],
            }],
        })
        .unwrap();
        let arc = db.relation("arc").unwrap();
        assert_eq!(arc.as_pairs().unwrap(), vec![(2, 3), (3, 4), (4, 5)]);
        assert!(db.relation_version("arc") > v_arc);

        // Corrupt arity is a durability error, not a panic.
        let err = db
            .apply_wal_commit(&WalCommit {
                version: 2,
                inserts: vec![WalBatch {
                    name: "arc".into(),
                    arity: 0,
                    rows: vec![],
                }],
                deletes: vec![],
            })
            .unwrap_err();
        assert!(err.to_string().contains("arity 0"), "{err}");
    }

    #[test]
    fn symbolic_edges_roundtrip() {
        let mut dict = recstep_common::dict::Dictionary::new();
        let mut db = Database::new().unwrap();
        db.load_symbolic_edges("arc", &mut dict, &[("a", "b"), ("b", "c")])
            .unwrap();
        assert_eq!(db.row_count("arc"), 2);
        assert_eq!(dict.len(), 3);
    }
}
