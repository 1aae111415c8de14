//! Prepared programs: compile once, run many times.
//!
//! [`PreparedProgram`] is the product of [`crate::Engine::prepare`]: the
//! program source parsed, analyzed, stratified and compiled exactly once.
//! Running it takes `&self`, so a single prepared program — behind an
//! `Arc` or by reference — can evaluate over any number of
//! [`Database`]s, including concurrently from multiple threads. The hot
//! path never re-parses or re-compiles anything.

use recstep_common::Result;
use recstep_datalog::plan::CompiledProgram;
use recstep_datalog::sqlgen;

use crate::db::{Database, RunOutput};
use crate::engine::Engine;
use crate::eval::{EvalRun, IoLedger};
use crate::stats::EvalStats;
use recstep_storage::RunCatalog;

/// A compiled Datalog program bound to the engine that will evaluate it.
pub struct PreparedProgram {
    engine: Engine,
    compiled: CompiledProgram,
}

// A prepared program is shared across threads by design (`Arc<PreparedProgram>`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PreparedProgram>();
};

impl PreparedProgram {
    pub(crate) fn new(engine: Engine, compiled: CompiledProgram) -> Self {
        PreparedProgram { engine, compiled }
    }

    /// Evaluate over `db` to fixpoint.
    ///
    /// IDB relations named by the program are reset at the start of the
    /// run (EDB facts are left untouched), inline facts are loaded
    /// set-wise (a fact already present is not duplicated, so repeated
    /// runs over one database stay idempotent), and
    /// results land in `db` — read them back through
    /// [`Database::relation`]. Any number of runs may happen, over this
    /// database or others; runs over *distinct* databases may proceed
    /// concurrently from multiple threads and share the engine's worker
    /// pool. (When runs do overlap, [`EvalStats::busy`] reports pool-wide
    /// busy time, so per-run CPU attribution blurs — wall times and
    /// result counts stay exact.)
    pub fn run(&self, db: &mut Database) -> Result<EvalStats> {
        let (cfg, ctx) = self.engine.parts();
        let cache = db.index_cache().clone();
        EvalRun {
            cfg,
            ctx,
            catalog: RunCatalog::Exclusive(db.catalog_mut()),
            cache: cfg.shared_index_cache.then_some(&*cache),
            cancel: None,
            io: IoLedger::default(),
        }
        .run(&self.compiled)
    }

    /// Evaluate over a *shared* database to fixpoint, without mutating it.
    ///
    /// The database is only read: every write — IDB results, inline facts
    /// — lands in a run-local overlay returned as [`RunOutput`]. Because
    /// nothing mutates `db`, **any number of `run_shared` calls may
    /// proceed concurrently over one database** (the serving-style
    /// workload), and they cooperate through the database's shared index
    /// cache: each frozen join index is built by exactly one of them and
    /// reused by the rest (`EvalStats::index.cache_hits` / `cache_misses`
    /// account for it).
    ///
    /// Differences from [`PreparedProgram::run`]: results are read from
    /// the returned [`RunOutput`] instead of the database, and
    /// `io_bytes`/`io_flushes` report 0 (a shared run derives nothing into
    /// the database, so there is no §5.2 write-back to count).
    ///
    /// ```
    /// use recstep::{Database, Engine};
    ///
    /// let engine = Engine::builder().threads(2).build().unwrap();
    /// let tc = engine
    ///     .prepare("tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).")
    ///     .unwrap();
    /// let mut db = Database::new().unwrap();
    /// db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
    ///
    /// let out = std::thread::scope(|s| {
    ///     let a = s.spawn(|| tc.run_shared(&db).unwrap());
    ///     let b = s.spawn(|| tc.run_shared(&db).unwrap());
    ///     (a.join().unwrap(), b.join().unwrap())
    /// });
    /// assert_eq!(out.0.row_count("tc"), 3);
    /// assert_eq!(out.1.row_count("tc"), 3);
    /// assert_eq!(db.row_count("tc"), 0); // the database itself is untouched
    /// ```
    pub fn run_shared(&self, db: &Database) -> Result<RunOutput> {
        self.run_shared_inner(db, None)
    }

    /// [`PreparedProgram::run_shared`] with a cooperative cancellation
    /// token: the fixpoint polls `cancel` at iteration boundaries and
    /// aborts with [`recstep_common::Error::Cancelled`] once it reports
    /// cancelled (explicitly or by deadline). Nothing escapes an aborted
    /// run — the overlay dies with it — so a timed-out request leaves the
    /// database and the shared caches exactly as a never-started one.
    pub fn run_shared_cancellable(
        &self,
        db: &Database,
        cancel: &recstep_common::sched::CancelToken,
    ) -> Result<RunOutput> {
        self.run_shared_inner(db, Some(cancel))
    }

    fn run_shared_inner(
        &self,
        db: &Database,
        cancel: Option<&recstep_common::sched::CancelToken>,
    ) -> Result<RunOutput> {
        let (cfg, ctx) = self.engine.parts();
        let mut run = EvalRun {
            cfg,
            ctx,
            catalog: RunCatalog::shared(db.catalog()),
            cache: cfg.shared_index_cache.then(|| &**db.index_cache()),
            cancel,
            io: IoLedger::default(),
        };
        let stats = run.run(&self.compiled)?;
        let catalog = run
            .catalog
            .into_overlay()
            .expect("shared runs evaluate over an overlay");
        Ok(RunOutput { catalog, stats })
    }

    /// Render the backend SQL this program executes (UIE form), stratum by
    /// stratum — the paper's Figure 4 view of any program.
    pub fn explain_sql(&self) -> String {
        let mut out = String::new();
        for (si, stratum) in self.compiled.strata.iter().enumerate() {
            let kind = if stratum.recursive {
                "recursive"
            } else {
                "non-recursive"
            };
            out.push_str(&format!("-- stratum {si} ({kind})\n"));
            for idb in &stratum.idbs {
                out.push_str(&sqlgen::render_uie(idb));
                out.push('\n');
            }
        }
        out
    }

    /// The underlying compiled plan.
    pub fn compiled(&self) -> &CompiledProgram {
        &self.compiled
    }

    /// The engine this program is bound to.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Relations named by `.input` directives (load these before running).
    pub fn inputs(&self) -> &[String] {
        &self.compiled.inputs
    }

    /// Relations named by `.output` directives (empty = every IDB).
    pub fn outputs(&self) -> &[String] {
        &self.compiled.outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TC: &str = "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).";

    #[test]
    fn prepare_once_run_many() {
        let engine = Engine::builder().threads(2).build().unwrap();
        let tc = engine.prepare(TC).unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
        tc.run(&mut db).unwrap();
        assert_eq!(db.row_count("tc"), 3);
        // Re-running over the same database is idempotent (IDBs reset).
        tc.run(&mut db).unwrap();
        assert_eq!(db.row_count("tc"), 3);
        // And the same prepared program serves a different database.
        let mut other = Database::new().unwrap();
        other.load_edges("arc", &[(5, 6)]).unwrap();
        tc.run(&mut other).unwrap();
        assert_eq!(other.row_count("tc"), 1);
        assert_eq!(db.row_count("tc"), 3);
    }

    #[test]
    fn explain_sql_renders_strata() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let sql = engine.prepare(TC).unwrap().explain_sql();
        // TC's exit rule and recursive rule are one stratum.
        assert!(sql.contains("-- stratum 0 (recursive)"), "{sql}");
        assert!(!sql.contains("-- stratum 1"), "{sql}");
        assert_eq!(sql.matches("UNION ALL").count(), 1, "{sql}");
    }

    #[test]
    fn inline_facts_are_idempotent_across_runs() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = engine
            .prepare(
                "arc(1, 2). arc(2, 3).\ntc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).",
            )
            .unwrap();
        assert_eq!(prog.compiled().facts.len(), 2);
        let mut db = Database::new().unwrap();
        prog.run(&mut db).unwrap();
        assert_eq!(db.row_count("tc"), 3);
        // Facts must not accumulate in the EDB relation run over run.
        prog.run(&mut db).unwrap();
        assert_eq!(db.row_count("arc"), 2);
        assert_eq!(db.row_count("tc"), 3);
    }

    #[test]
    fn aggregation_over_inline_facts_is_stable_across_runs() {
        // Regression: facts used to be re-appended on every run, which
        // doubled SUM results on the second run over the same database.
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = engine
            .prepare("e(1, 10). e(1, 20).\ns(x, SUM(y)) :- e(x, y).")
            .unwrap();
        let mut db = Database::new().unwrap();
        prog.run(&mut db).unwrap();
        assert_eq!(db.relation("s").unwrap().as_pairs().unwrap(), vec![(1, 30)]);
        prog.run(&mut db).unwrap();
        assert_eq!(db.relation("s").unwrap().as_pairs().unwrap(), vec![(1, 30)]);
    }
}
