//! Run-scoped catalog access: exclusive mutation or a shared-base overlay.
//!
//! A classic evaluation owns its database exclusively (`&mut Catalog`) and
//! mutates relations in place. Serving-style workloads want the opposite:
//! N concurrent evaluations reading one frozen database, each producing
//! its own results. [`RunCatalog`] gives the evaluator one surface over
//! both shapes:
//!
//! * [`RunCatalog::Exclusive`] wraps `&mut Catalog` — today's behavior,
//!   IDB resets and merges mutate the stored relations directly.
//! * [`RunCatalog::Shared`] wraps `&Catalog` plus a run-local *overlay*
//!   catalog. Every write lands in the overlay: IDB relations are
//!   *shadowed* (an empty run-local relation hides the base one by name),
//!   and a base relation touched by a rare in-place write (inline facts)
//!   is copied into the overlay first. The base catalog is never mutated,
//!   which is what makes `&Database` runs sound from many threads.
//!
//! Relation ids form one space: base ids stay `0..base.len()`, overlay
//! relations get ids `base.len()..`. Name lookup prefers the overlay, so a
//! shadowed relation resolves to its run-local id; reads through a
//! shadowed *base* id are redirected as well, so stale ids cannot observe
//! pre-shadow data. Base ids that were never shadowed are exactly the
//! relations frozen for the whole run — the ones whose indexes are safe to
//! publish into a cross-run shared cache (see
//! [`RunCatalog::shared_version`]).

use recstep_common::hash::FxHashMap;
use recstep_common::Result;

use crate::catalog::{Catalog, RelId};
use crate::relation::{Relation, Schema};
use crate::stats::StatsLevel;

/// A run-local overlay over a frozen base catalog.
pub struct Overlay<'b> {
    base: &'b Catalog,
    local: Catalog,
    /// Base id → overlay id for shadowed relations.
    shadow: FxHashMap<RelId, RelId>,
}

/// The catalog surface one evaluation runs against (see module docs).
pub enum RunCatalog<'d> {
    /// Exclusive mutable access to the database's own catalog.
    Exclusive(&'d mut Catalog),
    /// Read-only base + run-local overlay for all writes.
    Shared(Overlay<'d>),
}

impl<'d> RunCatalog<'d> {
    /// Shared-mode accessor over a frozen base catalog.
    pub fn shared(base: &'d Catalog) -> Self {
        RunCatalog::Shared(Overlay {
            base,
            local: Catalog::new(),
            shadow: FxHashMap::default(),
        })
    }

    /// Shared-mode accessor whose overlay is pre-seeded with a previous
    /// run's results: every relation of `local` shadows the same-named
    /// base relation (when one exists), so a re-entered evaluation reads
    /// the prior run's relation contents instead of starting from the
    /// base rows. The base stays frozen, exactly as under
    /// [`RunCatalog::shared`] — this is the overlay-refresh entry point
    /// incremental view maintenance uses to re-run a program against a
    /// *mutated* base while carrying its previous IDB results forward.
    pub fn shared_with(base: &'d Catalog, local: Catalog) -> Self {
        let mut shadow = FxHashMap::default();
        for (j, rel) in local.iter() {
            if let Some(id) = base.lookup(&rel.schema().name) {
                shadow.insert(id, j);
            }
        }
        RunCatalog::Shared(Overlay {
            base,
            local,
            shadow,
        })
    }

    /// Resolve a relation by name; overlay relations shadow base ones.
    pub fn lookup(&self, name: &str) -> Option<RelId> {
        match self {
            RunCatalog::Exclusive(c) => c.lookup(name),
            RunCatalog::Shared(o) => match o.local.lookup(name) {
                Some(j) => Some(o.base.len() + j),
                None => o.base.lookup(name),
            },
        }
    }

    /// Immutable access. Shadowed base ids redirect to their overlay copy.
    pub fn rel(&self, id: RelId) -> &Relation {
        match self {
            RunCatalog::Exclusive(c) => c.rel(id),
            RunCatalog::Shared(o) => {
                if id >= o.base.len() {
                    o.local.rel(id - o.base.len())
                } else if let Some(&j) = o.shadow.get(&id) {
                    o.local.rel(j)
                } else {
                    o.base.rel(id)
                }
            }
        }
    }

    /// Mutable access. In shared mode, a base relation is copied into the
    /// overlay on first write (copy-on-write) and shadowed from then on.
    pub fn rel_mut(&mut self, id: RelId) -> &mut Relation {
        match self {
            RunCatalog::Exclusive(c) => c.rel_mut(id),
            RunCatalog::Shared(o) => {
                let local_id = if id >= o.base.len() {
                    id - o.base.len()
                } else if let Some(&j) = o.shadow.get(&id) {
                    j
                } else {
                    let copy = o.base.rel(id).clone();
                    let j = o.local.register(copy).expect("shadow name is unique");
                    o.shadow.insert(id, j);
                    j
                };
                o.local.rel_mut(local_id)
            }
        }
    }

    /// Create a new, empty relation (in the overlay under shared mode).
    pub fn create(&mut self, schema: Schema) -> Result<RelId> {
        match self {
            RunCatalog::Exclusive(c) => c.create(schema),
            RunCatalog::Shared(o) => Ok(o.base.len() + o.local.create(schema)?),
        }
    }

    /// Reset a relation for this run: exclusive mode clears it in place;
    /// shared mode shadows it with an empty overlay relation without ever
    /// copying (or touching) the base rows.
    pub fn reset_for_run(&mut self, id: RelId) {
        match self {
            RunCatalog::Exclusive(c) => c.rel_mut(id).clear(),
            RunCatalog::Shared(o) => {
                if id >= o.base.len() {
                    o.local.rel_mut(id - o.base.len()).clear();
                } else if let Some(&j) = o.shadow.get(&id) {
                    o.local.rel_mut(j).clear();
                } else {
                    let schema = o.base.rel(id).schema().clone();
                    let j = o
                        .local
                        .create(schema)
                        .expect("shadow name is unique in the overlay");
                    o.shadow.insert(id, j);
                }
            }
        }
    }

    /// Modification version of a *frozen, shareable* relation: the key a
    /// cross-run index cache is allowed to use. `None` for relations this
    /// run may mutate (overlay relations and shadowed base ids) — their
    /// indexes must stay run-local.
    pub fn shared_version(&self, id: RelId) -> Option<u64> {
        match self {
            // Exclusive mode: every id is a database id; the *caller*
            // asks only for relations no later step of its run mutates.
            RunCatalog::Exclusive(c) => Some(c.version(id)),
            RunCatalog::Shared(o) => {
                if id < o.base.len() && !o.shadow.contains_key(&id) {
                    Some(o.base.version(id))
                } else {
                    None
                }
            }
        }
    }

    /// The paper's `analyze(R)` at `Full` level. Base relations in shared
    /// mode are analyzed without caching (the base catalog is immutable);
    /// everything else caches in its owning catalog as usual.
    pub fn analyze_full(&mut self, id: RelId) {
        match self {
            RunCatalog::Exclusive(c) => {
                c.analyze(id, StatsLevel::Full);
            }
            RunCatalog::Shared(o) => {
                if id >= o.base.len() {
                    o.local.analyze(id - o.base.len(), StatsLevel::Full);
                } else if let Some(&j) = o.shadow.get(&id) {
                    o.local.analyze(j, StatsLevel::Full);
                } else {
                    let _ = crate::stats::analyze_view(o.base.rel(id).view(), StatsLevel::Full);
                }
            }
        }
    }

    /// Total heap bytes visible to this run (base + overlay in shared
    /// mode; the base is counted because the run reads it, exactly like an
    /// exclusive run counts its own catalog).
    pub fn heap_bytes(&self) -> usize {
        match self {
            RunCatalog::Exclusive(c) => c.heap_bytes(),
            RunCatalog::Shared(o) => o.base.heap_bytes() + o.local.heap_bytes(),
        }
    }

    /// The exclusively-owned catalog, when in exclusive mode (the commit
    /// path needs plain `&Catalog` access for the store's flush closure).
    pub fn as_exclusive(&self) -> Option<&Catalog> {
        match self {
            RunCatalog::Exclusive(c) => Some(c),
            RunCatalog::Shared(_) => None,
        }
    }

    /// Consume a shared-mode accessor into its overlay catalog — the
    /// run-local results of a `&Database` evaluation. `None` in exclusive
    /// mode (results already live in the database).
    pub fn into_overlay(self) -> Option<Catalog> {
        match self {
            RunCatalog::Exclusive(_) => None,
            RunCatalog::Shared(o) => Some(o.local),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_with(name: &str, rows: &[Vec<i64>]) -> Catalog {
        let mut cat = Catalog::new();
        cat.register(Relation::from_rows(Schema::with_arity(name, 2), rows))
            .unwrap();
        cat
    }

    #[test]
    fn shared_reads_base_until_shadowed() {
        let base = base_with("arc", &[vec![1, 2], vec![3, 4]]);
        let mut run = RunCatalog::shared(&base);
        let id = run.lookup("arc").unwrap();
        assert_eq!(run.rel(id).len(), 2);
        assert!(run.shared_version(id).is_some());
        // Copy-on-write: the overlay absorbs the rows, the base is intact.
        run.rel_mut(id).push_row(&[5, 6]);
        assert_eq!(run.rel(id).len(), 3);
        assert_eq!(base.rel(0).len(), 2);
        // Shadowed relations are no longer shareable.
        assert!(run.shared_version(id).is_none());
        // Name lookup now resolves to the overlay id; reads through the
        // stale base id redirect there too.
        let new_id = run.lookup("arc").unwrap();
        assert_eq!(run.rel(new_id).len(), 3);
        assert_eq!(run.rel(id).len(), 3);
    }

    #[test]
    fn reset_for_run_shadows_without_copying() {
        let base = base_with("tc", &[vec![1, 2]]);
        let mut run = RunCatalog::shared(&base);
        let id = run.lookup("tc").unwrap();
        run.reset_for_run(id);
        let id = run.lookup("tc").unwrap();
        assert_eq!(run.rel(id).len(), 0, "shadow starts empty");
        assert_eq!(base.rel(0).len(), 1, "base untouched");
        run.rel_mut(id).push_row(&[7, 8]);
        assert_eq!(run.rel(id).len(), 1);
        // Results come back out as the overlay catalog.
        let overlay = run.into_overlay().unwrap();
        let j = overlay.lookup("tc").unwrap();
        assert_eq!(overlay.rel(j).to_rows(), vec![vec![7, 8]]);
    }

    #[test]
    fn create_and_lookup_span_both_id_spaces() {
        let base = base_with("arc", &[vec![1, 2]]);
        let mut run = RunCatalog::shared(&base);
        let new = run.create(Schema::with_arity("fresh", 1)).unwrap();
        assert!(new >= 1);
        assert_eq!(run.lookup("fresh"), Some(new));
        assert_eq!(run.rel(new).arity(), 1);
        assert!(run.shared_version(new).is_none());
        run.reset_for_run(new);
        assert_eq!(run.rel(new).len(), 0);
    }

    #[test]
    fn shared_with_preseeds_shadows_from_a_previous_overlay() {
        let base = base_with("arc", &[vec![1, 2]]);
        // First run: derive tc into the overlay.
        let mut run = RunCatalog::shared(&base);
        run.create(Schema::with_arity("tc", 2)).unwrap();
        let tc = run.lookup("tc").unwrap();
        run.rel_mut(tc).push_row(&[1, 2]);
        let prev = run.into_overlay().unwrap();

        // Second run re-enters with the previous results carried forward.
        let run = RunCatalog::shared_with(&base, prev);
        let tc = run.lookup("tc").unwrap();
        assert_eq!(run.rel(tc).len(), 1, "previous results visible");
        assert!(run.shared_version(tc).is_none());
        let arc = run.lookup("arc").unwrap();
        assert_eq!(run.rel(arc).len(), 1, "base still reads through");
        assert!(
            run.shared_version(arc).is_some(),
            "unshadowed base is frozen"
        );

        // A previous-run relation that shadows a same-named base relation
        // resolves to the carried rows, through both id spaces.
        let mut seeded = Catalog::new();
        seeded
            .register(Relation::from_rows(
                Schema::with_arity("arc", 2),
                &[vec![7, 8], vec![9, 10]],
            ))
            .unwrap();
        let run = RunCatalog::shared_with(&base, seeded);
        let arc = run.lookup("arc").unwrap();
        assert_eq!(run.rel(arc).len(), 2, "carried rows shadow the base");
        assert_eq!(run.rel(0).len(), 2, "stale base id redirects");
        assert!(run.shared_version(0).is_none(), "shadowed id not shareable");
    }

    #[test]
    fn exclusive_mode_passes_through() {
        let mut cat = base_with("arc", &[vec![1, 2]]);
        let mut run = RunCatalog::Exclusive(&mut cat);
        let id = run.lookup("arc").unwrap();
        run.reset_for_run(id);
        assert_eq!(run.rel(id).len(), 0);
        assert!(run.shared_version(id).is_some());
        assert!(run.as_exclusive().is_some());
        assert!(run.into_overlay().is_none());
    }
}
