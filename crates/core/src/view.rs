//! Standing materialized views: incremental view maintenance (IVM) over
//! prepared programs.
//!
//! A [`MaterializedView`] keeps a completed run's final IDB relations —
//! plus the full-R [`PersistentIndex`]es the fixpoint built over them —
//! alive across `/facts` commits, so a repeated query is answered by
//! *maintaining* the previous answer instead of re-running the fixpoint
//! from scratch:
//!
//! * **insertions** re-enter semi-naive evaluation with ∆ seeded from the
//!   new tuples only, riding the fused `DeltaSink` path (every candidate
//!   probes the carried full-R index, so dedup + set-difference cost is
//!   proportional to the delta, not to R);
//! * **deletions** of non-recursively-derived tuples run counting-based
//!   maintenance: a [`SupportTable`] side table holds exact
//!   per-derived-tuple support counts, and a tuple retracts exactly when
//!   its last derivation disappears;
//! * **deletions** reaching recursive strata run Backward/Forward (Motik
//!   et al., AAAI 2015): every tuple that loses a derivation is first
//!   searched for a surviving proof — backward over the view minus what is
//!   already deleted, down to surviving base facts, with proofs saturated
//!   forward — and only the unproved ones are retracted; the fixpoint then
//!   re-enters seeded from the commit's inserts. A delete inside a
//!   strongly connected component retracts nothing and keeps the carried
//!   full-R index.
//!
//! Views are owned by the query service (`recstep-serve`), which keeps a
//! registry keyed by normalized program text next to its prepared-program
//! cache and refreshes every standing view inside the `/facts` write
//! critical section. Programs with aggregation, negation or inline facts
//! — and commits that write a derived relation directly — are outside the
//! maintainable fragment; they fall back to a full scratch recompute
//! (counted in [`ViewStats::view_fallbacks`]), so a view is *always*
//! safe to create, just not always incremental. The
//! [`Config::incremental_views`] flag (CLI `--no-incremental`) disables
//! views entirely for ablation.

use std::mem;
use std::sync::Arc;

use recstep_common::hash::{FxHashMap, FxHashSet};
use recstep_common::sched::CancelToken;
use recstep_common::{Result, Value};
use recstep_datalog::plan::CompiledProgram;
use recstep_exec::index::PersistentIndex;
use recstep_exec::view::SupportTable;
use recstep_storage::{Catalog, RunCatalog};

use crate::config::{Config, PbmeMode};
use crate::db::{Database, RunOutput};
use crate::eval::{EvalRun, IoLedger, RefreshDeltas};
use crate::prepared::PreparedProgram;
use crate::stats::{EvalStats, ViewStats};

/// Whether a program falls inside the maintainable fragment: positive
/// stratified Datalog, no aggregation, no inline facts. (Aggregates are
/// not self-maintainable under deletion without per-group state, negation
/// flips the delta's sign across strata, and inline facts re-load on
/// every run — all are served correctly via the scratch fallback.)
fn program_eligible(prog: &CompiledProgram) -> bool {
    prog.facts.is_empty()
        && prog.strata.iter().all(|s| {
            s.idbs.iter().all(|idb| {
                idb.agg.is_none() && idb.subqueries.iter().all(|sq| sq.negations.is_empty())
            })
        })
}

/// Maintenance re-enters the fused streaming fixpoint with carried
/// indexes; ablations that disable that stack get scratch fallbacks.
fn config_eligible(cfg: &Config) -> bool {
    cfg.incremental_views && cfg.fused_pipeline && cfg.index_reuse && cfg.uie && cfg.eost
}

/// A standing materialized view: one prepared program's results over one
/// database, kept current under `/facts` commits by incremental
/// maintenance (see the module docs for the strategy per change shape).
pub struct MaterializedView {
    prog: Arc<PreparedProgram>,
    /// Engine config with PBME forced off while maintaining — the
    /// bit-matrix path bypasses the index-carrying fixpoint that
    /// maintenance re-enters. Scratch-only views keep the engine config.
    cfg: Config,
    /// Run-local overlay holding the program's IDB results.
    out: Catalog,
    /// Stats of the operation that produced the current contents.
    stats: EvalStats,
    /// Lifetime maintenance counters across every refresh and fallback.
    view_stats: ViewStats,
    /// Program and config are inside the maintainable fragment.
    incremental: bool,
    /// A refresh errored mid-maintenance; contents are untrusted until
    /// the next (automatic) scratch rebuild.
    poisoned: bool,
    /// Carried full-R indexes of the recursive IDBs, by relation name.
    indexes: FxHashMap<String, PersistentIndex>,
    /// Support counts of the counting-maintained IDBs, by relation name.
    supports: FxHashMap<String, SupportTable>,
    /// Pre-commit set contents of every base input relation (effective
    /// deltas are computed against these, then they advance).
    snapshots: FxHashMap<String, FxHashSet<Vec<Value>>>,
}

impl MaterializedView {
    /// Whether a view over `prog` would absorb commits *incrementally*
    /// under its engine's configuration. Creating a view is always safe;
    /// callers use this to decide whether a standing view is worth
    /// holding (an always-scratch view just moves recompute cost into
    /// the committer's critical section).
    pub fn eligible(prog: &PreparedProgram) -> bool {
        config_eligible(prog.engine().config()) && program_eligible(prog.compiled())
    }

    /// Evaluate the program over `db` and keep the result standing. This
    /// *is* the evaluation — there is no cheaper way to create a view
    /// than to run the query once.
    pub fn create(prog: Arc<PreparedProgram>, db: &Database) -> Result<Self> {
        Self::create_cancellable(prog, db, None)
    }

    /// [`MaterializedView::create`] with a cooperative cancellation token
    /// polled at fixpoint iteration boundaries.
    pub fn create_cancellable(
        prog: Arc<PreparedProgram>,
        db: &Database,
        cancel: Option<&CancelToken>,
    ) -> Result<Self> {
        let incremental = Self::eligible(&prog);
        let mut cfg = prog.engine().config().clone();
        if incremental {
            cfg.pbme = PbmeMode::Off;
        }
        let mut view = MaterializedView {
            prog,
            cfg,
            out: Catalog::new(),
            stats: EvalStats::default(),
            view_stats: ViewStats::default(),
            incremental,
            poisoned: false,
            indexes: FxHashMap::default(),
            supports: FxHashMap::default(),
            snapshots: FxHashMap::default(),
        };
        view.rebuild(db, cancel)?;
        Ok(view)
    }

    /// Discard the maintained state and re-evaluate from scratch (also
    /// the fallback path for ineligible commits and poisoned views).
    fn rebuild(&mut self, db: &Database, cancel: Option<&CancelToken>) -> Result<()> {
        self.poisoned = true; // cleared on success
        self.indexes.clear();
        self.supports.clear();
        self.snapshots.clear();
        let compiled = self.prog.compiled();
        let (_, ctx) = self.prog.engine().parts();
        let mut run = EvalRun {
            cfg: &self.cfg,
            ctx,
            catalog: RunCatalog::shared(db.catalog()),
            cache: self.cfg.shared_index_cache.then(|| &**db.index_cache()),
            cancel,
            io: IoLedger::default(),
        };
        let stats = if self.incremental {
            run.run_carry(compiled, &mut self.indexes)?
        } else {
            run.run(compiled)?
        };
        self.out = run
            .catalog
            .into_overlay()
            .expect("view runs evaluate over an overlay");
        if self.incremental {
            let mut run = EvalRun {
                cfg: &self.cfg,
                ctx,
                catalog: RunCatalog::shared_with(db.catalog(), mem::take(&mut self.out)),
                cache: None,
                cancel: None,
                io: IoLedger::default(),
            };
            let res = run.init_supports(compiled, &mut self.supports);
            self.out = run
                .catalog
                .into_overlay()
                .expect("support init evaluates over an overlay");
            res?;
            for decl in &compiled.relations {
                if decl.is_idb {
                    continue;
                }
                let set = db
                    .catalog()
                    .lookup(&decl.name)
                    .map(|id| db.catalog().rel(id).to_rows().into_iter().collect())
                    .unwrap_or_default();
                self.snapshots.insert(decl.name.clone(), set);
            }
        }
        self.stats = stats;
        self.poisoned = false;
        Ok(())
    }

    /// Bring the view up to date after a committed `/facts` transaction
    /// (`db` already holds the post-commit state; `inserts`/`deletes` are
    /// the commit's per-relation row batches, in commit order).
    ///
    /// Maintains incrementally when eligible; falls back to a scratch
    /// rebuild when the program shape, the configuration, or the commit
    /// itself (a write to a derived relation) is outside the fragment.
    /// An `Err` — or a panic the caller catches — poisons the view: the
    /// next refresh rebuilds from scratch, so a result that missed this
    /// commit's deltas is never observable through
    /// [`MaterializedView::output`].
    pub fn refresh(
        &mut self,
        db: &Database,
        inserts: &[(String, Vec<Vec<Value>>)],
        deletes: &[(String, Vec<Vec<Value>>)],
    ) -> Result<()> {
        // Pessimistically poison for the duration of maintenance. Any
        // early exit — an error (including the injected `view::refresh`
        // failpoint, which fires before maintenance touches anything) or
        // an unwound panic — leaves the mark set, and a view that failed
        // to absorb a commit must rebuild rather than maintain from a
        // snapshot that missed it.
        let was_poisoned = self.poisoned;
        self.poisoned = true;
        let res = self.refresh_inner(db, inserts, deletes, was_poisoned);
        if res.is_ok() {
            self.poisoned = false;
        }
        res
    }

    fn refresh_inner(
        &mut self,
        db: &Database,
        inserts: &[(String, Vec<Vec<Value>>)],
        deletes: &[(String, Vec<Vec<Value>>)],
        was_poisoned: bool,
    ) -> Result<()> {
        recstep_common::fail_point!("view::refresh");
        let compiled = self.prog.compiled();
        let derived: FxHashSet<&str> = compiled
            .relations
            .iter()
            .filter(|d| d.is_idb)
            .map(|d| d.name.as_str())
            .collect();
        let touches_idb = inserts
            .iter()
            .chain(deletes)
            .any(|(name, rows)| !rows.is_empty() && derived.contains(name.as_str()));
        if !self.incremental || was_poisoned || touches_idb {
            self.view_stats.view_fallbacks += 1;
            self.rebuild(db, None)?;
            // Surface the fallback in this operation's stats too, so
            // lifetime aggregation over per-operation stats counts it.
            self.stats.view.view_fallbacks = 1;
            return Ok(());
        }

        // Effective set deltas per base input relation, relative to the
        // view's snapshots. Deletes run after inserts in a commit, so a
        // row both inserted and deleted nets to its pre-commit state.
        let mut ins_by: FxHashMap<&str, Vec<&Vec<Value>>> = FxHashMap::default();
        for (name, rows) in inserts {
            ins_by.entry(name.as_str()).or_default().extend(rows.iter());
        }
        let mut del_by: FxHashMap<&str, FxHashSet<&Vec<Value>>> = FxHashMap::default();
        for (name, rows) in deletes {
            del_by.entry(name.as_str()).or_default().extend(rows.iter());
        }
        let mut deltas = RefreshDeltas::default();
        for (name, snap) in &self.snapshots {
            let dels = del_by.get(name.as_str());
            let mut plus: Vec<Vec<Value>> = Vec::new();
            if let Some(rows) = ins_by.get(name.as_str()) {
                let mut seen: FxHashSet<&Vec<Value>> = FxHashSet::default();
                for &row in rows {
                    if !snap.contains(row)
                        && !dels.is_some_and(|d| d.contains(row))
                        && seen.insert(row)
                    {
                        plus.push(row.clone());
                    }
                }
            }
            let mut minus: Vec<Vec<Value>> = Vec::new();
            if let Some(d) = dels {
                for &row in d.iter() {
                    if snap.contains(row) {
                        minus.push(row.clone());
                    }
                }
            }
            if !plus.is_empty() {
                deltas.plus.insert(name.clone(), plus);
            }
            if !minus.is_empty() {
                deltas.minus.insert(name.clone(), minus);
            }
        }
        if deltas.plus.is_empty() && deltas.minus.is_empty() {
            // The commit never touched this program's inputs: contents
            // stand as-is. Zeroed stats — serving this version cost
            // nothing, and callers aggregating per-operation stats must
            // not re-count the run that originally built the view.
            self.stats = EvalStats::default();
            return Ok(());
        }

        let (_, ctx) = self.prog.engine().parts();
        let mut run = EvalRun {
            cfg: &self.cfg,
            ctx,
            catalog: RunCatalog::shared_with(db.catalog(), mem::take(&mut self.out)),
            cache: None,
            cancel: None,
            io: IoLedger::default(),
        };
        let res = run.run_refresh(compiled, &mut deltas, &mut self.supports, &mut self.indexes);
        self.out = run
            .catalog
            .into_overlay()
            .expect("refreshes evaluate over an overlay");
        match res {
            Ok(stats) => {
                self.view_stats.merge(&stats.view);
                self.stats = stats;
                // Advance the snapshots to the post-commit base state.
                // (`deltas` also accumulated derived-relation nets, but
                // snapshots only hold base-input names.)
                for (name, snap) in self.snapshots.iter_mut() {
                    if let Some(rows) = deltas.plus.get(name) {
                        for row in rows {
                            snap.insert(row.clone());
                        }
                    }
                    if let Some(rows) = deltas.minus.get(name) {
                        for row in rows {
                            snap.remove(row);
                        }
                    }
                }
                Ok(())
            }
            // The caller keeps the pessimistic poison mark on Err.
            Err(e) => Err(e),
        }
    }

    /// Publish the current contents as an immutable [`RunOutput`] (a deep
    /// copy: the service hands `Arc`s of it to whole query batches while
    /// the view itself stays mutable for the next refresh).
    pub fn output(&self) -> RunOutput {
        RunOutput {
            catalog: self.out.clone(),
            stats: self.stats.clone(),
        }
    }

    /// Stats of the operation that produced the current contents (a
    /// refresh carries [`EvalStats::view`] accounting; a scratch run the
    /// usual fixpoint numbers).
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// Lifetime maintenance counters across every refresh and fallback.
    pub fn view_stats(&self) -> &ViewStats {
        &self.view_stats
    }

    /// Whether commits are absorbed incrementally (false = every refresh
    /// is a scratch rebuild: ineligible program shape or configuration).
    pub fn incremental(&self) -> bool {
        self.incremental
    }

    /// The prepared program this view stands over.
    pub fn program(&self) -> &Arc<PreparedProgram> {
        &self.prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    const TC: &str = "tc(x, y) :- arc(x, y).\ntc(x, y) :- tc(x, z), arc(z, y).";

    /// The `(relation, rows)` commit shape `refresh` takes.
    type Batch = Vec<(String, Vec<Vec<Value>>)>;

    fn commit(
        db: &mut Database,
        ins: &[(&str, &[(Value, Value)])],
        del: &[(&str, &[(Value, Value)])],
    ) -> (Batch, Batch) {
        let widen = |batch: &[(&str, &[(Value, Value)])]| {
            batch
                .iter()
                .map(|(name, rows)| {
                    (
                        name.to_string(),
                        rows.iter().map(|&(a, b)| vec![a, b]).collect::<Vec<_>>(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let (inserts, deletes) = (widen(ins), widen(del));
        let mut tx = db.transaction();
        for (name, rows) in &inserts {
            tx.load_rows(name, 2, rows.iter().map(Vec::as_slice))
                .unwrap();
        }
        for (name, rows) in &deletes {
            tx.delete_rows(name, 2, rows.iter().map(Vec::as_slice))
                .unwrap();
        }
        tx.commit().unwrap();
        (inserts, deletes)
    }

    fn rows_sorted(out: &RunOutput, name: &str) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = out
            .relation(name)
            .map(|h| h.iter_rows().map(|r| r.to_vec()).collect())
            .unwrap_or_default();
        rows.sort();
        rows
    }

    /// The maintained view must match a from-scratch run after each step.
    fn assert_matches_scratch(view: &MaterializedView, db: &Database, rels: &[&str]) {
        let scratch = view.program().run_shared(db).unwrap();
        let out = view.output();
        for rel in rels {
            assert_eq!(
                rows_sorted(&out, rel),
                rows_sorted(&scratch, rel),
                "maintained '{rel}' diverged from scratch"
            );
        }
    }

    #[test]
    fn tc_view_absorbs_inserts_incrementally() {
        let engine = Engine::builder().threads(2).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert!(view.incremental());
        assert_eq!(view.output().row_count("tc"), 6);

        let (ins, del) = commit(&mut db, &[("arc", &[(3, 4)])], &[]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.view_stats().view_refreshes, 1);
        assert_eq!(view.view_stats().view_fallbacks, 0);
        assert!(view.view_stats().view_seeded_strata >= 1);
        assert_matches_scratch(&view, &db, &["tc"]);
        assert_eq!(view.output().row_count("tc"), 10);
    }

    #[test]
    fn tc_view_absorbs_deletes_via_backward_forward() {
        let engine = Engine::builder().threads(2).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        // A diamond plus a tail: deleting one diamond edge keeps paths
        // alive through the other side, which B/F proves instead of
        // deleting.
        db.load_edges("arc", &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
            .unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        let (ins, del) = commit(&mut db, &[], &[("arc", &[(1, 3)])]);
        view.refresh(&db, &ins, &del).unwrap();
        assert!(view.view_stats().view_bf_strata >= 1);
        // Exactly the dead rows go: 1→3 and 1→4.
        assert_eq!(view.view_stats().view_tuples_retracted, 2);
        assert_matches_scratch(&view, &db, &["tc"]);
        // 0→3 and 0→4 must survive through the 0→2→3 side.
        let rows = rows_sorted(&view.output(), "tc");
        assert!(
            rows.contains(&vec![0, 3]) && rows.contains(&vec![0, 4]),
            "{rows:?}"
        );
        assert!(
            !rows.contains(&vec![1, 3]) && !rows.contains(&vec![1, 4]),
            "{rows:?}"
        );
    }

    #[test]
    fn cyclic_support_dies_with_its_last_proof() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2), (2, 1)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        // tc(0,1) and tc(0,2) still "derive" each other through the 1⇄2
        // cycle, but neither has a proof from a surviving arc.
        let (ins, del) = commit(&mut db, &[], &[("arc", &[(0, 1)])]);
        view.refresh(&db, &ins, &del).unwrap();
        let rows = rows_sorted(&view.output(), "tc");
        assert!(
            !rows.contains(&vec![0, 1]) && !rows.contains(&vec![0, 2]),
            "{rows:?}"
        );
        assert_eq!(view.view_stats().view_tuples_retracted, 2);
        assert_matches_scratch(&view, &db, &["tc"]);
    }

    #[test]
    fn delete_inside_a_component_retracts_nothing_and_keeps_the_index() {
        let engine = Engine::builder().threads(2).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        // 0, 1 and 2 stay strongly connected without the 0→2 arc.
        let scc = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (2, 3)];
        db.load_edges("arc", &scc).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        let (ins, del) = commit(&mut db, &[], &[("arc", &[(0, 2)])]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.stats().view.view_bf_strata, 1);
        assert_eq!(view.stats().view.view_tuples_retracted, 0);
        assert_eq!(view.stats().index.full_builds, 0);
        assert_matches_scratch(&view, &db, &["tc"]);
        // Nothing was retracted, so the carried full-R index survives and
        // the next refresh appends to it instead of rebuilding it (the
        // insert stays inside the index's packed key bounds).
        let (ins, del) = commit(&mut db, &[("arc", &[(3, 0)])], &[]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.stats().index.full_builds, 0);
        assert!(view.stats().index.full_appends >= 1);
        assert_matches_scratch(&view, &db, &["tc"]);
    }

    #[test]
    fn same_commit_insert_is_the_surviving_proof() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        // tc(0,2) loses its only proof (through 1→2) and gains one through
        // the 0→2 arc inserted in the same commit: B/F proves it from the
        // insert, so only tc(1,2) is retracted.
        let (ins, del) = commit(&mut db, &[("arc", &[(0, 2)])], &[("arc", &[(1, 2)])]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.stats().view.view_tuples_retracted, 1);
        assert_eq!(
            rows_sorted(&view.output(), "tc"),
            vec![vec![0, 1], vec![0, 2]]
        );
        assert_matches_scratch(&view, &db, &["tc"]);
    }

    #[test]
    fn deep_proofs_and_long_deletion_chains_fit_a_small_stack() {
        // Single-source TC keeps the 5 000-arc path's view linear in its
        // length. The shortcut 0→5000 is the first arc: deleting it sends
        // the backward search 5 000 facts deep (tc(0,5000) ← tc(0,4999) ←
        // … ← arc(0,1)); deleting the path's first arc then retracts all
        // 5 000 rows through one deletion chain.
        const N: Value = 5000;
        let engine = Engine::builder().threads(2).build().unwrap();
        let src = "tc(x, y) :- root(x), arc(x, y).
tc(x, y) :- tc(x, z), arc(z, y).";
        let prog = Arc::new(engine.prepare(src).unwrap());
        let mut db = Database::new().unwrap();
        let mut arcs = vec![(0, N)];
        arcs.extend((0..N).map(|i| (i, i + 1)));
        db.load_edges("arc", &arcs).unwrap();
        let mut tx = db.transaction();
        tx.load_rows("root", 1, [vec![0]].iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert!(view.incremental());
        for (gone, retracted) in [((0, N), 0), ((0, 1), N as u64)] {
            let (ins, del) = commit(&mut db, &[], &[("arc", &[gone])]);
            std::thread::scope(|s| {
                std::thread::Builder::new()
                    .stack_size(256 * 1024)
                    .spawn_scoped(s, || view.refresh(&db, &ins, &del))
                    .unwrap()
                    .join()
                    .expect("the refresh fits a 256 KiB stack")
                    .unwrap();
            });
            assert_eq!(view.stats().view.view_tuples_retracted, retracted);
            assert_matches_scratch(&view, &db, &["tc"]);
        }
        assert_eq!(view.output().row_count("tc"), 0);
    }

    #[test]
    fn mixed_commit_and_noop_deltas() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        // Insert + delete in one commit, plus a duplicate insert (no-op)
        // and a delete of an absent row (no-op).
        let (ins, del) = commit(
            &mut db,
            &[("arc", &[(2, 3), (0, 1), (7, 8)])],
            &[("arc", &[(1, 2), (5, 6), (7, 8)])],
        );
        view.refresh(&db, &ins, &del).unwrap();
        assert_matches_scratch(&view, &db, &["tc"]);
        // A commit to a relation the program never reads is a no-op.
        let mut tx = db.transaction();
        tx.load_rows("unrelated", 2, [vec![1, 2]].iter().map(Vec::as_slice))
            .unwrap();
        tx.commit().unwrap();
        view.refresh(&db, &[("unrelated".into(), vec![vec![1, 2]])], &[])
            .unwrap();
        assert_matches_scratch(&view, &db, &["tc"]);
    }

    #[test]
    fn nonrecursive_program_uses_counting() {
        let engine = Engine::builder().threads(1).build().unwrap();
        // Two-hop join: purely non-recursive, so deletes go through the
        // support-count path rather than Backward/Forward.
        let prog = Arc::new(
            engine
                .prepare("hop2(x, y) :- arc(x, z), arc(z, y).")
                .unwrap(),
        );
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2), (1, 3), (0, 4), (4, 2)])
            .unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert_matches_scratch(&view, &db, &["hop2"]);
        // (0,2) has two derivations (via 1 and via 4): deleting one edge
        // must keep it; deleting both must retract it.
        let (ins, del) = commit(&mut db, &[], &[("arc", &[(1, 2)])]);
        view.refresh(&db, &ins, &del).unwrap();
        assert!(view.view_stats().view_counting_strata >= 1);
        assert_matches_scratch(&view, &db, &["hop2"]);
        assert!(rows_sorted(&view.output(), "hop2").contains(&vec![0, 2]));
        let (ins, del) = commit(&mut db, &[], &[("arc", &[(4, 2)])]);
        view.refresh(&db, &ins, &del).unwrap();
        assert!(!rows_sorted(&view.output(), "hop2").contains(&vec![0, 2]));
        assert_matches_scratch(&view, &db, &["hop2"]);
    }

    #[test]
    fn ineligible_programs_fall_back_to_scratch() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare("s(x, SUM(y)) :- e(x, y).").unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("e", &[(1, 10), (1, 20)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert!(!view.incremental());
        assert_eq!(rows_sorted(&view.output(), "s"), vec![vec![1, 30]]);
        let (ins, del) = commit(&mut db, &[("e", &[(1, 5)])], &[]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.view_stats().view_fallbacks, 1);
        assert_eq!(rows_sorted(&view.output(), "s"), vec![vec![1, 35]]);
    }

    #[test]
    fn idb_touching_commit_falls_back() {
        let engine = Engine::builder().threads(1).build().unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert!(view.incremental());
        // Writing the derived relation directly is outside the fragment.
        let (ins, del) = commit(&mut db, &[("tc", &[(9, 9)])], &[]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.view_stats().view_fallbacks, 1);
        assert_matches_scratch(&view, &db, &["tc"]);
    }

    #[test]
    fn no_incremental_ablation_disables_maintenance() {
        let engine =
            Engine::from_config(Config::default().threads(1).incremental_views(false)).unwrap();
        let prog = Arc::new(engine.prepare(TC).unwrap());
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &[(0, 1), (1, 2)]).unwrap();
        let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
        assert!(!view.incremental());
        let (ins, del) = commit(&mut db, &[("arc", &[(2, 3)])], &[]);
        view.refresh(&db, &ins, &del).unwrap();
        assert_eq!(view.view_stats().view_fallbacks, 1);
        assert_matches_scratch(&view, &db, &["tc"]);
    }
}
