//! The shared cross-run index cache with spill-aware eviction.
//!
//! Indexes are persistent *within* a run: the full-`R` table is built
//! once per stratum and join build sides are kept for the duration of a
//! fixpoint. What would still be rebuilt N times is everything *between*
//! runs — every concurrent (or sequential) evaluation over one database
//! re-building the same EDB and frozen-relation indexes from scratch. An
//! [`IndexCache`] closes that gap: it is an `Arc`-shared, database-owned
//! map from `(relation, catalog version, key columns)` to an immutable
//! [`SharedIndex`] snapshot, so N runs over one database build each frozen
//! index exactly once.
//!
//! Every cached index is key-ordered (an
//! [`OrderedIndex`](crate::index::OrderedIndex): rows gathered in bucket
//! order behind an offset array), never chained — a cached relation is
//! frozen, so nothing is ever appended to it. Any probe can use any
//! snapshot: values outside the snapshot's bounds match nothing, so there
//! is no admissibility check and no per-run fallback.
//!
//! ## First builder wins
//!
//! Each cache slot holds a `OnceLock`. Concurrent runs that miss on the
//! same key race into [`IndexCache::get_or_build`]; the first caller
//! initializes the slot (building the index), every other caller blocks on
//! the `OnceLock` and receives the same `Arc<SharedIndex>` — one build, N
//! consumers, no torn state. Staleness never needs invalidation callbacks:
//! the catalog version is part of the key, so a mutated relation simply
//! misses and the stale entry goes cold until eviction collects it.
//!
//! ## Spill-aware eviction
//!
//! The cache is a first-class citizen of the memory budget. Every resident
//! index accounts its byte footprint ([`IndexCache::resident_bytes`]) and
//! remembers its build cost. Under pressure — a publish that would exceed
//! the cache budget, or the engine's mid-stratum OOM check — eviction
//! drops entries **coldest-first, breaking ties by `bytes /
//! rebuild_cost`** (big-and-cheap-to-rebuild goes first), and only touches
//! entries no run is currently probing (the `Arc` strong count is the pin
//! count, so eviction never frees memory out from under a borrower). A
//! consumer that later finds its entry gone just rebuilds: a cache miss
//! *is* the rebuild signal, never a panic.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use recstep_common::hash::FxHashMap;

use crate::index::SharedIndex;

/// Cache key: a relation snapshot (id + modification version) and the key
/// columns the index is built on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Catalog id of the indexed relation.
    pub rel: usize,
    /// Modification version of the relation when the index was requested;
    /// any later mutation bumps the version and turns this entry stale.
    pub version: u64,
    /// Key columns the index is built on.
    pub cols: Vec<usize>,
}

/// One cache slot: the build-once cell plus the recency stamp eviction
/// reads. Kept behind an `Arc` so builders initialize it outside the map
/// lock.
struct Slot {
    cell: OnceLock<Arc<SharedIndex>>,
    /// Bytes of the built index counted in the resident total.
    charged: AtomicUsize,
    /// Logical tick of the last touch (monotone cache-wide counter, not
    /// wall time): smaller = colder.
    last_used: AtomicU64,
}

/// What one [`IndexCache::get_or_build`] call did.
pub struct CacheOutcome {
    /// The (possibly freshly built) shared index.
    pub index: Arc<SharedIndex>,
    /// True when this caller performed the build (a cache miss); false
    /// when the index was already resident or another racer built it
    /// first (a hit).
    pub built: bool,
    /// Entries evicted to make room for a fresh build (0 on hits).
    pub evicted: usize,
}

/// Database-owned, `Arc`-shared cache of immutable [`SharedIndex`]es.
///
/// See the [module docs](crate::cache) for the protocol. All methods take
/// `&self`; the cache is `Send + Sync` and designed to be probed from many
/// concurrent evaluations.
#[derive(Default)]
pub struct IndexCache {
    map: Mutex<FxHashMap<CacheKey, Arc<Slot>>>,
    /// Bytes held by *initialized* resident entries.
    resident: AtomicUsize,
    /// Logical clock for recency stamps.
    clock: AtomicU64,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<IndexCache>();
};

impl IndexCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Bytes currently held by resident (built) entries.
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Number of resident (built) entries.
    pub fn len(&self) -> usize {
        let map = self.map.lock().unwrap();
        map.values().filter(|s| s.cell.get().is_some()).count()
    }

    /// True when no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-building lookup: the resident index under `key`, if any. A
    /// `None` after a previous hit means the entry was evicted — the
    /// caller's rebuild signal.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<SharedIndex>> {
        let map = self.map.lock().unwrap();
        let slot = map.get(key)?;
        let idx = slot.cell.get()?.clone();
        slot.last_used.store(self.tick(), Ordering::Relaxed);
        Some(idx)
    }

    /// Whether an index under `key` is resident, without touching its
    /// recency or pinning it.
    pub fn contains(&self, key: &CacheKey) -> bool {
        let map = self.map.lock().unwrap();
        map.get(key).is_some_and(|slot| slot.cell.get().is_some())
    }

    /// The resident index under `key`, building it (exactly once across
    /// all concurrent callers) on a miss.
    ///
    /// `budget` caps the cache's resident bytes: after a fresh build,
    /// other cold entries are evicted until the cache fits. The fresh
    /// entry itself is never evicted by its own publish (the caller holds
    /// it), so a budget smaller than one index degrades to "cache of the
    /// most recent build" rather than failing.
    pub fn get_or_build<F>(&self, key: &CacheKey, budget: usize, build: F) -> CacheOutcome
    where
        F: FnOnce() -> SharedIndex,
    {
        let slot = {
            let mut map = self.map.lock().unwrap();
            let slot = map
                .entry(key.clone())
                .or_insert_with(|| {
                    Arc::new(Slot {
                        cell: OnceLock::new(),
                        charged: AtomicUsize::new(0),
                        last_used: AtomicU64::new(0),
                    })
                })
                .clone();
            slot.last_used.store(self.tick(), Ordering::Relaxed);
            slot
        };
        // Build outside the map lock: racers on the same key serialize on
        // the OnceLock (first builder wins, the rest block and reuse);
        // builders of *different* keys proceed in parallel.
        let mut built = false;
        let index = slot
            .cell
            .get_or_init(|| {
                built = true;
                Arc::new(build())
            })
            .clone();
        let mut evicted = 0;
        if built {
            let mut map = self.map.lock().unwrap();
            // Defensive re-insert: today nothing can remove the slot while
            // its cell is uninitialized (eviction and stale-purging skip
            // such slots), but accounting depends on the built entry being
            // in the map, so keep the check cheap rather than clever.
            match map.get(key) {
                Some(s) if Arc::ptr_eq(s, &slot) => {}
                _ => {
                    map.insert(key.clone(), Arc::clone(&slot));
                }
            }
            self.charge(&slot, &index);
            // Older snapshots of the same (relation, cols) are garbage by
            // construction — collect them eagerly rather than waiting for
            // them to go cold.
            evicted += self.purge_stale_locked(&mut map, key);
            drop(map);
            evicted += self.evict_to_fit(budget).0;
        }
        CacheOutcome {
            index,
            built,
            evicted,
        }
    }

    /// Count `index`, resident under `key`, at its current size: it
    /// grew a part built on first use
    /// ([`crate::index::OrderedIndex::first_rows`]). Nothing happens when
    /// the entry was evicted or replaced meanwhile.
    pub fn recharge(&self, key: &CacheKey, index: &Arc<SharedIndex>) {
        let map = self
            .map
            .lock()
            .expect("no cache user panics holding the map");
        let Some(slot) = map.get(key) else {
            return;
        };
        if slot.cell.get().is_some_and(|held| Arc::ptr_eq(held, index)) {
            self.charge(slot, index);
        }
    }

    /// Count `index`, held by `slot`, at its current size in the resident
    /// total. Called with the map locked, so a publish and a recharge of
    /// one entry never interleave.
    fn charge(&self, slot: &Slot, index: &SharedIndex) {
        let bytes = index.heap_bytes();
        let old = slot.charged.swap(bytes, Ordering::Relaxed);
        self.resident.fetch_add(bytes, Ordering::Relaxed);
        self.resident.fetch_sub(old, Ordering::Relaxed);
    }

    /// Drop unpinned entries with the same relation and key columns but a
    /// different (older) version. Returns how many were removed.
    fn purge_stale_locked(
        &self,
        map: &mut FxHashMap<CacheKey, Arc<Slot>>,
        fresh: &CacheKey,
    ) -> usize {
        let stale: Vec<CacheKey> = map
            .iter()
            .filter(|(k, slot)| {
                k.rel == fresh.rel
                    && k.cols == fresh.cols
                    && k.version != fresh.version
                    && slot
                        .cell
                        .get()
                        .is_none_or(|idx| Arc::strong_count(idx) == 1)
            })
            .map(|(k, _)| k.clone())
            .collect();
        let mut removed = 0;
        for k in stale {
            if let Some(slot) = map.remove(&k) {
                if slot.cell.get().is_some() {
                    let bytes = slot.charged.load(Ordering::Relaxed);
                    self.resident.fetch_sub(bytes, Ordering::Relaxed);
                    removed += 1;
                }
            }
        }
        removed
    }

    /// Evict cold, unpinned entries until resident bytes fit `target`.
    ///
    /// Order: coldest first (smallest recency tick), ties broken by the
    /// spill score `bytes / rebuild_cost` descending — of two equally cold
    /// entries, the one buying the least rebuild time per resident byte
    /// goes first. Entries currently borrowed by a run (`Arc` strong count
    /// > 1) are pinned and skipped. Returns `(entries evicted, bytes
    /// freed)`.
    pub fn evict_to_fit(&self, target: usize) -> (usize, usize) {
        if self.resident_bytes() <= target {
            return (0, 0);
        }
        let mut map = self.map.lock().unwrap();
        let mut candidates: Vec<(CacheKey, u64, f64, usize)> = map
            .iter()
            .filter_map(|(k, slot)| {
                let idx = slot.cell.get()?;
                if Arc::strong_count(idx) > 1 {
                    return None; // pinned by a live run
                }
                let bytes = slot.charged.load(Ordering::Relaxed);
                let cost = idx.build_cost().as_nanos() as f64 + 1.0;
                let score = bytes as f64 / cost;
                Some((
                    k.clone(),
                    slot.last_used.load(Ordering::Relaxed),
                    score,
                    bytes,
                ))
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut evicted = 0;
        let mut freed = 0;
        for (key, _, _, bytes) in candidates {
            if self.resident_bytes() <= target {
                break;
            }
            map.remove(&key);
            self.resident.fetch_sub(bytes, Ordering::Relaxed);
            evicted += 1;
            freed += bytes;
        }
        (evicted, freed)
    }

    /// Drop every unpinned resident entry (full spill). Returns
    /// `(entries evicted, bytes freed)`.
    pub fn evict_all(&self) -> (usize, usize) {
        self.evict_to_fit(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExecCtx;
    use recstep_storage::{Relation, Schema};

    fn shared_over(rows: &[Vec<i64>]) -> SharedIndex {
        let ctx = ExecCtx::with_threads(2);
        let rel = Relation::from_rows(Schema::with_arity("r", 2), rows);
        SharedIndex::build(&ctx, rel.view(), vec![0, 1])
    }

    fn key(rel: usize, version: u64) -> CacheKey {
        CacheKey {
            rel,
            version,
            cols: vec![0, 1],
        }
    }

    #[test]
    fn build_once_then_hit() {
        let cache = IndexCache::new();
        let k = key(0, 1);
        let first = cache.get_or_build(&k, usize::MAX, || shared_over(&[vec![1, 2]]));
        assert!(first.built);
        let second = cache.get_or_build(&k, usize::MAX, || panic!("must not rebuild"));
        assert!(!second.built);
        assert!(Arc::ptr_eq(&first.index, &second.index));
        assert_eq!(cache.len(), 1);
        assert!(cache.resident_bytes() > 0);
    }

    #[test]
    fn a_lazily_grown_index_is_recharged_and_evicted_whole() {
        let cache = IndexCache::new();
        let k = key(0, 1);
        let rows = [vec![1, 2], vec![1, 2], vec![3, 4]];
        let out = cache.get_or_build(&k, usize::MAX, || shared_over(&rows));
        let built = cache.resident_bytes();
        assert_eq!(out.index.index().first_rows().len(), 2);
        assert_eq!(cache.resident_bytes(), built, "not counted until recharged");
        cache.recharge(&k, &out.index);
        cache.recharge(&k, &out.index);
        assert_eq!(cache.resident_bytes(), out.index.heap_bytes());
        assert!(cache.resident_bytes() > built);
        drop(out);
        assert_eq!(cache.evict_all().0, 1);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn concurrent_racers_build_exactly_once() {
        let cache = Arc::new(IndexCache::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let k = key(7, 3);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let k = k.clone();
                scope.spawn(move || {
                    let out = cache.get_or_build(&k, usize::MAX, || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        shared_over(&[vec![1, 2], vec![3, 4]])
                    });
                    assert_eq!(out.index.rows(), 2);
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build across racers");
    }

    #[test]
    fn eviction_is_coldest_first_and_skips_pinned() {
        let cache = IndexCache::new();
        let a = cache.get_or_build(&key(0, 1), usize::MAX, || shared_over(&[vec![1, 2]]));
        drop(cache.get_or_build(&key(1, 1), usize::MAX, || shared_over(&[vec![3, 4]])));
        // Touch b so a is the coldest; keep a pinned via the held Arc.
        assert!(cache.get(&key(1, 1)).is_some());
        let pinned = a.index;
        let (evicted, freed) = cache.evict_all();
        // a is pinned (strong count 2), b's Arc from get() was dropped.
        assert_eq!(evicted, 1);
        assert!(freed > 0);
        assert!(cache.get(&key(1, 1)).is_none(), "b evicted");
        assert!(cache.get(&key(0, 1)).is_some(), "pinned a survives");
        drop(pinned);
        let (evicted, _) = cache.evict_all();
        assert_eq!(evicted, 1);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn miss_after_eviction_is_a_rebuild_signal() {
        let cache = IndexCache::new();
        drop(cache.get_or_build(&key(0, 1), usize::MAX, || shared_over(&[vec![1, 2]])));
        cache.evict_all();
        assert!(cache.get(&key(0, 1)).is_none());
        // The caller rebuilds through the same entry point — no panic.
        let again = cache.get_or_build(&key(0, 1), usize::MAX, || shared_over(&[vec![1, 2]]));
        assert!(again.built);
    }

    #[test]
    fn publish_purges_stale_versions() {
        let cache = IndexCache::new();
        drop(cache.get_or_build(&key(5, 1), usize::MAX, || shared_over(&[vec![1, 2]])));
        let out = cache.get_or_build(&key(5, 2), usize::MAX, || {
            shared_over(&[vec![1, 2], vec![5, 6]])
        });
        assert!(out.built);
        assert!(out.evicted >= 1, "stale version collected");
        assert!(cache.get(&key(5, 1)).is_none());
        assert!(cache.get(&key(5, 2)).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn tight_budget_keeps_only_the_fresh_build() {
        let cache = IndexCache::new();
        drop(cache.get_or_build(&key(0, 1), 1, || shared_over(&[vec![1, 2]])));
        // Publishing under a 1-byte budget evicts the (unpinned) older
        // entry; the fresh one stays because its caller pins it.
        let out = cache.get_or_build(&key(1, 1), 1, || shared_over(&[vec![3, 4]]));
        assert!(out.built);
        assert!(out.evicted >= 1);
        assert!(cache.get(&key(0, 1)).is_none());
        drop(out);
    }
}
