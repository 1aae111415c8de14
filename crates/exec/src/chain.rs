//! Latch-free global separate-chaining hash tables (the paper's GSCHT,
//! Figure 5) in two shapes: pre-sized and growable.
//!
//! # [`ChainTable`] — cardinality known up front
//!
//! Layout follows the paper: a bucket array is pre-allocated "as large as
//! possible … for the purpose of minimizing conflicts in the same bucket,
//! and preventing memory contention", and tuples are inserted in parallel
//! with no latches. We exploit one extra invariant of the Datalog use case:
//! the number of candidate tuples is known up front (it is the row count of
//! the table being deduplicated or built on), so *node storage is one slot
//! per input row* — node `i` is input row `i` — and the hot path performs no
//! allocation at all.
//!
//! Concurrency protocol (Treiber-style publish):
//! 1. the inserting worker writes `keys[i]` and `next[i]` (Relaxed stores to
//!    a slot only it owns pre-publication),
//! 2. publishes with a `compare_exchange(head, i+1, AcqRel, Acquire)`,
//! 3. readers `Acquire`-load the head and walk `next` links; every node
//!    reached was published by a release operation, so its fields are
//!    visible.
//!
//! For unique inserts ([`ChainTable::insert_unique`]) a failed CAS re-walks
//! the chain from the new head before retrying, so two racing equal tuples
//! resolve to exactly one winner.
//!
//! # [`GrowChainTable`] — cardinality unknown (the fused sinks)
//!
//! The streaming pipeline never materialises `Rt`, so nobody can count the
//! candidates before inserting them: both the node storage *and* the bucket
//! directory have to grow while inserts are in flight, without a latch and
//! without ever moving a published node. The table is an insert-only
//! **split-ordered list** (Shalev & Shavit, *Split-Ordered Lists: Lock-Free
//! Extensible Hash Tables*):
//!
//! * **One list, one order.** Every row node is linked into a single list
//!   sorted by its *order key* `mix64(key)` — the hash `bucket_of` uses —
//!   and a `2^l`-bucket table takes a key's bucket from the key's *top*
//!   `l` bits. (This is Shalev–Shavit's order seen in a mirror: they take
//!   buckets from the low bits and sort by the bit-reversed key; taking
//!   them from the high bits makes the natural order split-ordered and
//!   keeps a 64-bit reversal off every operation.) The rows of a bucket
//!   are therefore one contiguous run of the list, and doubling to
//!   `2^(l+1)` buckets splits each run in two *in place*: nothing is
//!   relinked, a new entry point is spliced into the middle.
//! * **Sentinels.** The entry point of prefix `p` at level `l` is a
//!   sentinel with order key `p << (64 − l)`; among equal keys sentinels
//!   sort before rows and shallower levels before deeper ones. The
//!   directory *is* the sentinels: level `l` is one array of `2^l` link
//!   cells (`u32`, allocated when the level is first used), cell `p` being
//!   that sentinel's `next` — outside the row-slot space, so slot ids stay
//!   dense under sequential insertion. A list link names a row slot or
//!   (tag bit 31) a sentinel. Finding a key's entry point is one shift and
//!   one load from the current level's array, as cheap as a fixed bucket
//!   array. The constructor links the initial level; a deeper level's
//!   sentinels are linked lazily, each by the first operation that needs
//!   it: that operation claims the cell, splices the sentinel in by
//!   walking from its parent (prefix `p >> 1`, one level up — the run it
//!   splits), and only then lets the cell serve as an entry point (tag
//!   bit 30 marks it pending until its publication is certain). Nobody
//!   waits for a pending cell — an operation that meets one enters
//!   through the parent instead, a merely longer walk down the same list.
//! * **Doubling.** The level is one atomic integer. Whichever inserter's
//!   `alloc.fetch_add` pushes the reserved-slot count past twice the
//!   bucket count increments it with a CAS; an operation that read the old
//!   level enters through a coarser (still correct) sentinel. Node storage
//!   is a series of doubling `OnceLock` chunks and each directory level is
//!   one `OnceLock` array, so the only blocking event on any path is a
//!   one-time allocation, `log₂` times over a table's life. Superseded
//!   levels stay allocated (their sentinels are list nodes): the directory
//!   costs 8 bytes per current bucket, of which the 4 of the current level
//!   are hot.
//! * **Uniqueness.** Insert-only means no marked pointers and no helping:
//!   an insert walks to the first node ordered after its key (returning
//!   early on an equal row), then CASes its predecessor's link. A lost
//!   CAS re-walks *from that same predecessor* — which can never go away —
//!   so it re-scans only the nodes published since, and two racing equal
//!   rows resolve to exactly one winner. The loser's reserved slot leaks.
//!
//! Chain walks are therefore O(1) expected (load factor ≤ 2) whatever
//! capacity the caller guessed; the constructor arguments only pre-size
//! the first chunks.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use recstep_common::hash::mix64;
use recstep_common::Value;

use crate::key::bucket_of;

/// Sentinel: empty bucket / end of chain (`node index + 1` addressing).
const NIL: u32 = 0;

/// Pre-allocated latch-free separate-chaining table.
///
/// `u32` node indices cap inputs at ~4.29 G rows, far beyond in-memory scale
/// here; [`ChainTable::with_capacity`] asserts it.
pub struct ChainTable {
    heads: Vec<AtomicU32>,
    next: Vec<AtomicU32>,
    keys: Vec<AtomicU64>,
    mask: usize,
}

impl ChainTable {
    /// Table with `nodes` node slots and at least `buckets_hint` buckets
    /// (rounded to a power of two).
    pub fn with_capacity(nodes: usize, buckets_hint: usize) -> Self {
        assert!(
            nodes < u32::MAX as usize,
            "ChainTable supports < 2^32-1 nodes"
        );
        let n_buckets = crate::util::next_pow2_at_least(buckets_hint, 16);
        let mut heads = Vec::with_capacity(n_buckets);
        heads.resize_with(n_buckets, || AtomicU32::new(NIL));
        let mut next = Vec::with_capacity(nodes);
        next.resize_with(nodes, || AtomicU32::new(NIL));
        let mut keys = Vec::with_capacity(nodes);
        keys.resize_with(nodes, || AtomicU64::new(0));
        ChainTable {
            heads,
            next,
            keys,
            mask: n_buckets - 1,
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// Number of node slots.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.heads.capacity() * 4 + self.next.capacity() * 4 + self.keys.capacity() * 8
    }

    /// Unconditionally insert node `idx` under `key` (multimap semantics —
    /// join builds).
    pub fn insert_multi(&self, idx: u32, key: u64) {
        self.keys[idx as usize].store(key, Ordering::Relaxed);
        let bucket = &self.heads[bucket_of(key, self.mask)];
        let mut head = bucket.load(Ordering::Acquire);
        loop {
            self.next[idx as usize].store(head, Ordering::Relaxed);
            match bucket.compare_exchange_weak(head, idx + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Insert node `idx` under `key` only if no equal entry exists.
    ///
    /// Returns `true` when `idx` won (its tuple was new). `eq(existing, new)`
    /// decides tuple equality for nodes whose keys collide; with exact packed
    /// keys pass `|_, _| true`.
    pub fn insert_unique<F>(&self, idx: u32, key: u64, eq: F) -> bool
    where
        F: Fn(u32, u32) -> bool,
    {
        self.keys[idx as usize].store(key, Ordering::Relaxed);
        let bucket = &self.heads[bucket_of(key, self.mask)];
        let mut head = bucket.load(Ordering::Acquire);
        loop {
            // Duplicate scan over the whole current chain.
            let mut cur = head;
            while cur != NIL {
                let node = cur - 1;
                if self.keys[node as usize].load(Ordering::Relaxed) == key && eq(node, idx) {
                    return false;
                }
                cur = self.next[node as usize].load(Ordering::Relaxed);
            }
            self.next[idx as usize].store(head, Ordering::Relaxed);
            match bucket.compare_exchange_weak(head, idx + 1, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                // Lost a race: another worker grew this chain. Re-walk from
                // the new head (covers the newly published prefix) and retry.
                Err(actual) => head = actual,
            }
        }
    }

    /// Iterate node indices whose stored key equals `key`.
    pub fn iter_key(&self, key: u64) -> impl Iterator<Item = u32> + '_ {
        let mut cur = self.heads[bucket_of(key, self.mask)].load(Ordering::Acquire);
        std::iter::from_fn(move || {
            while cur != NIL {
                let node = cur - 1;
                cur = self.next[node as usize].load(Ordering::Relaxed);
                if self.keys[node as usize].load(Ordering::Relaxed) == key {
                    return Some(node);
                }
            }
            None
        })
    }

    /// True if some node with `key` satisfies `eq(node)`.
    pub fn contains<F>(&self, key: u64, eq: F) -> bool
    where
        F: Fn(u32) -> bool,
    {
        self.iter_key(key).any(eq)
    }

    /// Extend node storage to at least `nodes` slots, keeping every
    /// existing chain intact. New slots are unlinked until inserted.
    ///
    /// This is what makes a table *appendable*: an index over rows `0..n`
    /// grows to absorb rows `n..m` without rebuilding. Takes `&mut self`,
    /// so growth is a quiescent point between parallel insert phases.
    pub fn grow_nodes(&mut self, nodes: usize) {
        assert!(
            nodes < u32::MAX as usize,
            "ChainTable supports < 2^32-1 nodes"
        );
        if nodes > self.next.len() {
            self.next.resize_with(nodes, || AtomicU32::new(NIL));
            self.keys.resize_with(nodes, || AtomicU64::new(0));
        }
    }

    /// Rebuild the bucket array with at least `buckets_hint` buckets
    /// (rounded to a power of two), relinking every chained node under its
    /// new bucket. Stored keys are reused — no row is re-read and no key is
    /// recomputed, so a rehash costs O(chained nodes) pointer writes.
    ///
    /// No-op when the table already has that many buckets.
    pub fn rehash(&mut self, buckets_hint: usize) {
        let n_buckets = crate::util::next_pow2_at_least(buckets_hint, 16);
        if n_buckets <= self.heads.len() {
            return;
        }
        let mut old_heads = std::mem::take(&mut self.heads);
        self.heads = Vec::with_capacity(n_buckets);
        self.heads.resize_with(n_buckets, || AtomicU32::new(NIL));
        self.mask = n_buckets - 1;
        for head in &mut old_heads {
            let mut cur = *head.get_mut();
            while cur != NIL {
                let node = (cur - 1) as usize;
                let next = *self.next[node].get_mut();
                let key = *self.keys[node].get_mut();
                let bucket = self.heads[bucket_of(key, self.mask)].get_mut();
                *self.next[node].get_mut() = *bucket;
                *bucket = cur;
                cur = next;
            }
        }
    }
}

/// Chunk slots of a [`Chunks`] series: chunk 0 plus one per doubling, so
/// the cumulative capacity `base × 2^32` exceeds the `u32` link space for
/// any base — a table can always grow to the id limit.
const MAX_CHUNKS: usize = 33;

/// Lazily allocated doubling storage addressed by a dense index: chunk 0
/// holds `base` elements (a power of two) and chunk `k ≥ 1` holds
/// `base << (k − 1)`, so every chunk after the first doubles the total and
/// starts at an index equal to its own length. Growth never moves an
/// element; the only blocking event is a chunk's one-time allocation.
struct Chunks<C> {
    /// `base − 1`: the index bits that never select a chunk.
    low: usize,
    /// `log₂ base`.
    shift: u32,
    chunks: Box<[OnceLock<C>]>,
    /// Total elements of the chunks allocated so far.
    allocated: AtomicUsize,
}

impl<C> Chunks<C> {
    fn new(base: usize) -> Self {
        debug_assert!(base.is_power_of_two() && base > 1);
        Chunks {
            low: base - 1,
            shift: base.trailing_zeros(),
            chunks: (0..MAX_CHUNKS).map(|_| OnceLock::new()).collect(),
            allocated: AtomicUsize::new(0),
        }
    }

    /// Length of chunk `k`.
    fn len_of(&self, k: usize) -> usize {
        (self.low + 1) << k.saturating_sub(1)
    }

    /// The chunk holding element `idx` and the element's offset in it,
    /// allocating the chunk with `make(len)` on first touch.
    #[inline(always)]
    fn locate(&self, idx: usize, make: impl FnOnce(usize) -> C) -> (&C, usize) {
        // Above chunk 0 an index's top bit is its chunk's start (and
        // length) and the bits below it are the offset; OR-ing in `low`
        // parks that "top bit" just under `base` for chunk 0, where the
        // offset is all of `idx`.
        let lz = (idx | self.low).leading_zeros();
        let k = (usize::BITS - self.shift - lz) as usize;
        let off = idx & ((usize::MAX >> 1 >> lz) | self.low);
        match self.chunks[k].get() {
            Some(chunk) => (chunk, off),
            None => (self.allocate(k, make), off),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate(&self, k: usize, make: impl FnOnce(usize) -> C) -> &C {
        self.chunks[k].get_or_init(|| {
            self.allocated.fetch_add(self.len_of(k), Ordering::Relaxed);
            make(self.len_of(k))
        })
    }

    /// Total elements of the chunks allocated so far.
    fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }
}

fn boxed_defaults<T: Default>(len: usize) -> Box<[T]> {
    (0..len).map(|_| T::default()).collect()
}

/// Slot-indexed side storage for a [`GrowChainTable`]: one `T` per row
/// slot, default-initialised in doubling chunks on first touch, shared by
/// reference between workers (so `T` is typically an atomic cell). This is
/// how a caller hangs a payload off each stored row without the table
/// knowing about it.
pub struct SlotChunks<T>(Chunks<Box<[T]>>);

impl<T: Default> SlotChunks<T> {
    /// Side storage whose first chunk holds `capacity` slots (rounded up
    /// to a power of two, at least 64).
    pub fn new(capacity: usize) -> Self {
        SlotChunks(Chunks::new(crate::util::next_pow2_at_least(capacity, 64)))
    }

    /// The cell of row slot `slot`.
    #[inline]
    pub fn get(&self, slot: u32) -> &T {
        let (chunk, off) = self.0.locate(slot as usize, boxed_defaults);
        &chunk[off]
    }

    /// Approximate heap footprint in bytes (allocated chunks only).
    pub fn heap_bytes(&self) -> usize {
        self.0.allocated() * std::mem::size_of::<T>()
    }
}

/// One lazily allocated shard of node storage. Rows are stored inline
/// (`width` values per node) so duplicate checks on hash collisions never
/// need to reach back into operator inputs that no longer exist — the
/// fused pipeline drops candidate tuples instead of materializing them.
struct NodeChunk {
    next: Box<[AtomicU32]>,
    /// Order keys (`mix64(key)`): the list order, and — `mix64` being a
    /// bijection — a stand-in for key equality.
    order: Box<[AtomicU64]>,
    vals: Box<[AtomicI64]>,
}

/// Link tag: the low 30 bits name a sentinel (see [`sentinel_id`]) rather
/// than a row slot (`slot + 1`).
const SENT: u32 = 1 << 31;

/// Directory-cell tag: the sentinel is claimed but not yet known to be
/// linked into the list, so the cell must not be used as an entry point.
/// The remaining bits already hold the sentinel's successor link. Only
/// directory cells ever carry it; `next` cells of row nodes never do.
const PENDING: u32 = 1 << 30;

/// Directory cell nobody has claimed (reads as pending).
const UNCLAIMED: u32 = u32::MAX;

/// Row slots and sentinel ids both have to fit under the two tag bits.
const MAX_LINK: usize = PENDING as usize;

/// Deepest directory level: its sentinel ids still fit a link.
const MAX_LEVEL: u32 = PENDING.trailing_zeros() - 1;

/// The successor a link cell's raw value names, tags stripped.
#[inline]
fn link_of(raw: u32) -> u32 {
    raw & !PENDING
}

/// Id of the sentinel heading the keys whose top `level` bits are
/// `prefix`: the prefix under a marker bit, so ids are unique across
/// levels, a deeper level's ids are greater, and halving an id names the
/// sentinel whose run this one splits.
#[inline]
fn sentinel_id(level: u32, prefix: usize) -> usize {
    1 << level | prefix
}

/// Level and prefix of sentinel `id` — the inverse of [`sentinel_id`].
#[inline]
fn sentinel_parts(id: usize) -> (u32, usize) {
    let level = id.ilog2();
    (level, id ^ 1 << level)
}

/// Order key of sentinel `id`: its prefix moved to the top of the word
/// (the shift pushes the marker bit out).
#[inline]
fn sentinel_key(id: usize) -> u64 {
    debug_assert!(id > 1, "the level-0 sentinel is never linked");
    (id as u64) << ((id as u64).leading_zeros() + 1)
}

/// Outcome of [`GrowChainTable::insert_or_find_slot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// This call's row was new and now lives in the given slot.
    Inserted(u32),
    /// An equal row already lived in the given slot.
    Found(u32),
}

/// What a list walk is positioning: a row, or the sentinel with this id.
/// Among equal order keys sentinels come first, shallower levels leading,
/// then rows.
#[derive(Clone, Copy)]
enum Target<'r> {
    Row(&'r [Value]),
    Sentinel(usize),
}

/// Where a list walk ended.
enum Walk<'a> {
    /// An equal row lives in this slot.
    Found(u32),
    /// No equal row: the link cell of the last node ordered before the
    /// target, and the raw value read from it ([`link_of`] it is the first
    /// node ordered after).
    At(&'a AtomicU32, u32),
}

/// A growable latch-free hash table over owned rows: an insert-only
/// split-ordered list (see the module docs for the protocol and its
/// invariants).
///
/// Unlike [`ChainTable`], node ids are not input row numbers: workers
/// reserve slots with a single `fetch_add`, node storage is a series of
/// doubling chunks, and the bucket directory gains a level — twice the
/// buckets — whenever the reserved-slot count passes twice the bucket
/// count, all while concurrent inserts proceed. No published node is ever
/// moved or relinked, no path takes a lock, and the only blocking event is
/// the one-time allocation of a node chunk or directory level (`OnceLock`,
/// hit `log₂` times over a table's whole life).
///
/// Slots lost to duplicate races stay reserved but unlinked, so slot ids
/// are dense insertion indexes only under sequential insertion.
pub struct GrowChainTable {
    width: usize,
    nodes: Chunks<NodeChunk>,
    /// `dir[l]`, once allocated, holds the `2^l` sentinels of level `l`:
    /// cell `p` is the `next` link of the sentinel with prefix `p`.
    dir: Box<[OnceLock<Box<[AtomicU32]>>]>,
    /// The level the table was built with (its sentinels are pre-linked).
    base_level: u32,
    /// Current directory level, `log₂` of the bucket count; only ever
    /// incremented.
    level: AtomicU32,
    alloc: AtomicUsize,
    /// Cells of the directory levels allocated so far.
    cells: AtomicUsize,
}

impl GrowChainTable {
    /// Table for rows of `width` values whose first node chunk holds
    /// `nodes_hint` rows and whose directory starts at `buckets_hint`
    /// buckets (both rounded up to powers of two, at least 64). These are
    /// initial capacities only: inserts beyond them grow both, and chain
    /// length stays O(1) regardless.
    pub fn new(width: usize, nodes_hint: usize, buckets_hint: usize) -> Self {
        assert!(width > 0, "GrowChainTable rows need at least one column");
        let level = Self::level_for(buckets_hint);
        let dir: Box<[OnceLock<Box<[AtomicU32]>>]> =
            (0..=MAX_LEVEL).map(|_| OnceLock::new()).collect();
        let _ = dir[level as usize].set(Self::linked_level(level).collect());
        GrowChainTable {
            width,
            nodes: Chunks::new(crate::util::next_pow2_at_least(nodes_hint, 64)),
            dir,
            base_level: level,
            level: AtomicU32::new(level),
            alloc: AtomicUsize::new(0),
            cells: AtomicUsize::new(1 << level),
        }
    }

    /// Empty the table for reuse, its directory restarting at
    /// `buckets_hint` buckets as in [`GrowChainTable::new`]. The node
    /// chunks stay allocated, and so does the new base level when the
    /// table had allocated it; every other level is freed. Costs the new
    /// base level's buckets.
    pub fn reset(&mut self, buckets_hint: usize) {
        let level = Self::level_for(buckets_hint);
        for (l, cells) in self.dir.iter_mut().enumerate() {
            if l != level as usize {
                cells.take();
            }
        }
        match self.dir[level as usize].get_mut() {
            Some(cells) => {
                for (cell, link) in cells.iter_mut().zip(Self::linked_level(level)) {
                    *cell = link;
                }
            }
            None => {
                let _ = self.dir[level as usize].set(Self::linked_level(level).collect());
            }
        }
        self.base_level = level;
        *self.level.get_mut() = level;
        *self.alloc.get_mut() = 0;
        *self.cells.get_mut() = 1 << level;
    }

    /// The directory level a table of `buckets_hint` buckets starts at.
    fn level_for(buckets_hint: usize) -> u32 {
        crate::util::next_pow2_at_least(buckets_hint, 64)
            .trailing_zeros()
            .min(MAX_LEVEL)
    }

    /// The cells of base level `level` with its sentinels linked, in
    /// prefix order, into an empty list: deeper levels are linked lazily,
    /// sentinel by sentinel.
    fn linked_level(level: u32) -> impl Iterator<Item = AtomicU32> {
        let last = (1usize << level) - 1;
        (0..=last).map(move |prefix| {
            AtomicU32::new(if prefix == last {
                NIL
            } else {
                SENT | sentinel_id(level, prefix + 1) as u32
            })
        })
    }

    /// Values per stored row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Current number of buckets.
    pub fn buckets(&self) -> usize {
        1 << self.level.load(Ordering::Relaxed)
    }

    /// Times the bucket directory has doubled since construction.
    pub fn doublings(&self) -> usize {
        (self.level.load(Ordering::Relaxed) - self.base_level) as usize
    }

    /// Node slots reserved so far (an upper bound on distinct rows: slots
    /// lost to duplicate races stay reserved but never become reachable).
    pub fn slots_reserved(&self) -> usize {
        self.alloc.load(Ordering::Relaxed)
    }

    /// Approximate heap footprint in bytes: allocated node chunks plus
    /// allocated directory levels (whose cells are the sentinels).
    pub fn heap_bytes(&self) -> usize {
        let cells = self.cells.load(Ordering::Relaxed);
        self.nodes.allocated() * (4 + 8 + self.width * 8) + cells * 4
    }

    #[inline(always)]
    fn node(&self, slot: usize) -> (&NodeChunk, usize) {
        self.nodes.locate(slot, |len| NodeChunk {
            next: boxed_defaults(len),
            order: boxed_defaults(len),
            vals: boxed_defaults(len * self.width),
        })
    }

    /// The sentinels of directory level `level` (between the table's base
    /// level and [`MAX_LEVEL`]), allocated unclaimed on first touch.
    #[inline(always)]
    fn level_cells(&self, level: u32) -> &[AtomicU32] {
        match self.dir[level as usize].get() {
            Some(cells) => cells,
            None => self.allocate_level(level),
        }
    }

    #[cold]
    #[inline(never)]
    fn allocate_level(&self, level: u32) -> &[AtomicU32] {
        self.dir[level as usize].get_or_init(|| {
            self.cells.fetch_add(1 << level, Ordering::Relaxed);
            (0..1usize << level)
                .map(|_| AtomicU32::new(UNCLAIMED))
                .collect()
        })
    }

    /// The link cell of sentinel `id`.
    #[inline]
    fn sentinel(&self, id: usize) -> &AtomicU32 {
        let (level, prefix) = sentinel_parts(id);
        &self.level_cells(level)[prefix]
    }

    #[inline]
    fn row_eq(&self, chunk: &NodeChunk, off: usize, row: &[Value]) -> bool {
        let at = off * self.width;
        row.iter()
            .enumerate()
            .all(|(c, &v)| chunk.vals[at + c].load(Ordering::Relaxed) == v)
    }

    /// Walk the list from link cell `pred` to the first node ordered after
    /// `target` (whose order key is `order`), stopping early at an equal
    /// row. Every link is `Acquire`-loaded: a node spliced mid-list is
    /// published by the release CAS on exactly the link that names it.
    #[inline(always)]
    fn walk<'a>(&'a self, mut pred: &'a AtomicU32, order: u64, target: Target<'_>) -> Walk<'a> {
        loop {
            let raw = pred.load(Ordering::Acquire);
            let cur = link_of(raw);
            if cur == NIL {
                return Walk::At(pred, raw);
            }
            if cur & SENT != 0 {
                let id = (cur & !SENT) as usize;
                let key = sentinel_key(id);
                let after = match target {
                    Target::Row(_) => key > order,
                    Target::Sentinel(own) => key > order || (key == order && id > own),
                };
                if after {
                    return Walk::At(pred, raw);
                }
                pred = self.sentinel(id);
                continue;
            }
            let (chunk, off) = self.node((cur - 1) as usize);
            let at = chunk.order[off].load(Ordering::Relaxed);
            if at > order {
                return Walk::At(pred, raw);
            }
            if at == order {
                match target {
                    Target::Sentinel(_) => return Walk::At(pred, raw),
                    Target::Row(row) if self.row_eq(chunk, off, row) => {
                        return Walk::Found(cur - 1)
                    }
                    Target::Row(_) => {}
                }
            }
            pred = &chunk.next[off];
        }
    }

    /// Order key of `key` and the link cell to start its walk from: the
    /// sentinel of the key's bucket at the current level once that is
    /// linked, otherwise (see [`Self::entry_unlinked`]) an ancestor's.
    #[inline(always)]
    fn start(&self, key: u64) -> (u64, &AtomicU32) {
        let order = mix64(key);
        // A stale (shallower) level names a coarser, still valid entry
        // point, so Relaxed suffices.
        let level = self.level.load(Ordering::Relaxed);
        let prefix = (order >> (u64::BITS - level)) as usize;
        let cell = &self.level_cells(level)[prefix];
        if cell.load(Ordering::Acquire) & PENDING == 0 {
            (order, cell)
        } else {
            (order, self.entry_unlinked(sentinel_id(level, prefix)))
        }
    }

    /// Link cell of a linked sentinel at or before sentinel `id` in the
    /// list: its own once it is linked (this call links it if nobody has
    /// started to), otherwise — another thread is mid-splice — the nearest
    /// linked ancestor's. Never waits. Runs once per sentinel of a level
    /// added by a doubling, plus the rare meetings with a splice in
    /// progress.
    #[cold]
    fn entry_unlinked(&self, mut id: usize) -> &AtomicU32 {
        loop {
            let cell = self.sentinel(id);
            let raw = cell.load(Ordering::Acquire);
            if raw & PENDING == 0 || (raw == UNCLAIMED && self.link_sentinel(id, cell)) {
                return cell;
            }
            // The base level is linked by the constructor, so this
            // terminates.
            id >>= 1;
        }
    }

    /// Splice sentinel `id` into the list if this call wins the claim;
    /// returns whether it did.
    ///
    /// While the sentinel is unpublished only the claimant writes its
    /// cell, always with `PENDING` set, so nobody enters the list through
    /// it. The release CAS on the predecessor's link publishes it; from
    /// then on walkers reach the cell through the list (and strip the
    /// tag), and `PENDING` comes off by whichever happens first — the
    /// claimant's clearing CAS or a walker's insert CAS right behind the
    /// sentinel. Either is a release operation ordered after the
    /// publication, so an untagged cell always belongs to a sentinel its
    /// ancestors reach.
    fn link_sentinel(&self, id: usize, cell: &AtomicU32) -> bool {
        if cell
            .compare_exchange(UNCLAIMED, PENDING, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let order = sentinel_key(id);
        // The sentinel whose run this one splits (or, for an even prefix,
        // shares the start of) is one level up: drop the last prefix bit.
        let mut pred = self.entry_unlinked(id >> 1);
        loop {
            let Walk::At(at, raw) = self.walk(pred, order, Target::Sentinel(id)) else {
                unreachable!("a sentinel walk matches no row")
            };
            let succ = link_of(raw);
            cell.store(succ | PENDING, Ordering::Relaxed);
            if at
                .compare_exchange(raw, SENT | id as u32, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                let _ = cell.compare_exchange(
                    succ | PENDING,
                    succ,
                    Ordering::Release,
                    Ordering::Relaxed,
                );
                return true;
            }
            pred = at;
        }
    }

    /// Slot id of the stored row equal to `row` under `key`, if any. Slot
    /// ids are the values [`GrowChainTable::insert_or_find_slot`]
    /// returned; under sequential insertion they are dense from 0, which
    /// is what lets side tables index per-row payloads by slot.
    pub fn find_row(&self, key: u64, row: &[Value]) -> Option<u32> {
        debug_assert_eq!(row.len(), self.width);
        let (order, cell) = self.start(key);
        match self.walk(cell, order, Target::Row(row)) {
            Walk::Found(slot) => Some(slot),
            Walk::At(..) => None,
        }
    }

    /// True if an equal row is stored under `key`.
    pub fn contains_row(&self, key: u64, row: &[Value]) -> bool {
        self.find_row(key, row).is_some()
    }

    /// Insert `row` under `key` unless an equal row is already stored.
    /// Returns `true` when this call's row won (it was new). Safe to call
    /// from any number of threads concurrently; the caller does not manage
    /// node ids or capacity.
    pub fn insert_unique_row(&self, key: u64, row: &[Value]) -> bool {
        matches!(
            self.insert_or_find_slot(key, row, |_| {}),
            Slot::Inserted(_)
        )
    }

    /// Insert `row` under `key`, or find the equal row already stored;
    /// either way the answer carries the row's slot id. `init(slot)` runs
    /// on this call's freshly reserved slot *before* the row is published,
    /// so a slot-indexed payload ([`SlotChunks`]) is in place by the time
    /// any other thread can find the row. A race lost to a concurrent
    /// equal insert returns `Found` and leaks the reserved (initialised)
    /// slot, so only single-threaded writers may rely on slot density.
    pub fn insert_or_find_slot(&self, key: u64, row: &[Value], init: impl FnOnce(u32)) -> Slot {
        debug_assert_eq!(row.len(), self.width);
        let (order, cell) = self.start(key);
        let (mut pred, mut raw) = match self.walk(cell, order, Target::Row(row)) {
            Walk::Found(slot) => return Slot::Found(slot),
            Walk::At(pred, raw) => (pred, raw),
        };
        // Reserve a slot and fill it privately (Relaxed: unpublished).
        let slot = self.alloc.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < MAX_LINK - 1,
            "GrowChainTable supports < 2^30-1 nodes"
        );
        self.grow_directory(slot);
        let (chunk, off) = self.node(slot);
        chunk.order[off].store(order, Ordering::Relaxed);
        let at = off * self.width;
        for (c, &v) in row.iter().enumerate() {
            chunk.vals[at + c].store(v, Ordering::Relaxed);
        }
        init(slot as u32);
        loop {
            chunk.next[off].store(link_of(raw), Ordering::Relaxed);
            if pred
                .compare_exchange(raw, slot as u32 + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Slot::Inserted(slot as u32);
            }
            // Lost a race: `pred` is still in the list (nothing is ever
            // unlinked), so re-walking from it scans only the nodes
            // published since; the slot leaks if one of them is equal.
            (pred, raw) = match self.walk(pred, order, Target::Row(row)) {
                Walk::Found(found) => return Slot::Found(found),
                Walk::At(pred, raw) => (pred, raw),
            };
        }
    }

    /// Deepen the directory while reserved slot `slot` puts the load
    /// factor above 2. Any inserter past the threshold may win the CAS;
    /// the new level's sentinels are linked lazily by their first users.
    #[inline]
    fn grow_directory(&self, slot: usize) {
        let mut level = self.level.load(Ordering::Relaxed);
        while slot >= 2 << level && level < MAX_LEVEL {
            match self.level.compare_exchange(
                level,
                level + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => level += 1,
                Err(actual) => level = actual,
            }
        }
    }

    /// Value `col` of the row stored in `slot`.
    #[inline]
    pub fn value(&self, slot: u32, col: usize) -> Value {
        debug_assert!(col < self.width);
        let (chunk, off) = self.node(slot as usize);
        chunk.vals[off * self.width + col].load(Ordering::Relaxed)
    }

    /// Visit the slot of every stored row, in list order. Unreachable
    /// slots (lost duplicate races) are not visited.
    pub fn for_each_slot(&self, mut f: impl FnMut(u32)) {
        let mut cell = &self.level_cells(self.base_level)[0];
        loop {
            let cur = link_of(cell.load(Ordering::Acquire));
            if cur == NIL {
                return;
            }
            cell = if cur & SENT != 0 {
                self.sentinel((cur & !SENT) as usize)
            } else {
                f(cur - 1);
                let (chunk, off) = self.node((cur - 1) as usize);
                &chunk.next[off]
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_common::sched::ThreadPool;

    #[test]
    fn multi_insert_and_lookup() {
        let t = ChainTable::with_capacity(10, 4);
        t.insert_multi(0, 42);
        t.insert_multi(1, 42);
        t.insert_multi(2, 7);
        let mut hits: Vec<u32> = t.iter_key(42).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
        assert_eq!(t.iter_key(7).collect::<Vec<_>>(), vec![2]);
        assert_eq!(t.iter_key(999).count(), 0);
    }

    #[test]
    fn unique_insert_rejects_duplicates() {
        let t = ChainTable::with_capacity(10, 4);
        assert!(t.insert_unique(0, 5, |_, _| true));
        assert!(!t.insert_unique(1, 5, |_, _| true));
        assert!(t.insert_unique(2, 6, |_, _| true));
    }

    #[test]
    fn unique_insert_uses_eq_for_collisions() {
        // Same key, but eq says the tuples differ → both inserted.
        let t = ChainTable::with_capacity(10, 4);
        assert!(t.insert_unique(0, 5, |_, _| false));
        assert!(t.insert_unique(1, 5, |_, _| false));
        let mut hits: Vec<u32> = t.iter_key(5).collect();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1]);
    }

    #[test]
    fn contains_checks_predicate() {
        let t = ChainTable::with_capacity(4, 4);
        t.insert_multi(3, 11);
        assert!(t.contains(11, |n| n == 3));
        assert!(!t.contains(11, |n| n == 2));
    }

    #[test]
    fn parallel_unique_inserts_have_exactly_one_winner_per_key() {
        // 64 distinct keys, 16 racing inserts per key.
        let n = 1024u32;
        let t = ChainTable::with_capacity(n as usize, n as usize * 2);
        let pool = ThreadPool::new(8);
        let winners: Vec<std::sync::atomic::AtomicU32> = (0..64)
            .map(|_| std::sync::atomic::AtomicU32::new(0))
            .collect();
        pool.parallel_for(n as usize, 8, |range, _| {
            for i in range {
                let key = (i % 64) as u64;
                if t.insert_unique(i as u32, key, |_, _| true) {
                    winners[key as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        for w in &winners {
            assert_eq!(w.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn parallel_multi_insert_keeps_every_node() {
        let n = 4096u32;
        let t = ChainTable::with_capacity(n as usize, 64); // long chains on purpose
        let pool = ThreadPool::new(8);
        pool.parallel_for(n as usize, 16, |range, _| {
            for i in range {
                t.insert_multi(i as u32, (i % 32) as u64);
            }
        });
        let total: usize = (0..32u64).map(|k| t.iter_key(k).count()).sum();
        assert_eq!(total, n as usize);
    }

    #[test]
    fn grow_then_insert_preserves_existing_chains() {
        let mut t = ChainTable::with_capacity(4, 4);
        for i in 0..4u32 {
            assert!(t.insert_unique(i, i as u64, |_, _| true));
        }
        t.grow_nodes(8);
        assert_eq!(t.capacity(), 8);
        // Old entries still resolve; duplicates still rejected.
        for i in 0..4u32 {
            assert!(t.contains(i as u64, |n| n == i));
            assert!(!t.insert_unique(4 + i, i as u64, |_, _| true));
        }
        // New slots absorb new keys.
        for i in 4..8u32 {
            assert!(t.insert_unique(i, i as u64, |_, _| true));
        }
        assert_eq!((0..8u64).filter(|&k| t.contains(k, |_| true)).count(), 8);
    }

    #[test]
    fn rehash_relinks_every_node() {
        let mut t = ChainTable::with_capacity(256, 16);
        for i in 0..256u32 {
            t.insert_multi(i, (i % 40) as u64);
        }
        let before: usize = (0..40u64).map(|k| t.iter_key(k).count()).sum();
        t.rehash(512);
        assert_eq!(t.buckets(), 512);
        let after: usize = (0..40u64).map(|k| t.iter_key(k).count()).sum();
        assert_eq!(before, after);
        assert_eq!(after, 256);
        // Shrinking requests are ignored.
        t.rehash(4);
        assert_eq!(t.buckets(), 512);
    }

    #[test]
    fn incremental_growth_matches_scratch_build() {
        // Build one table in 8 grow+insert batches, another in one shot;
        // membership must agree.
        let keys: Vec<u64> = (0..400u64).map(|i| i * 7 % 97).collect();
        let mut inc = ChainTable::with_capacity(0, 4);
        for (batch, chunk) in keys.chunks(50).enumerate() {
            let base = batch * 50;
            inc.grow_nodes(base + chunk.len());
            inc.rehash((base + chunk.len()) * 2);
            for (i, &k) in chunk.iter().enumerate() {
                inc.insert_unique((base + i) as u32, k, |_, _| true);
            }
        }
        let scratch = ChainTable::with_capacity(keys.len(), keys.len() * 2);
        for (i, &k) in keys.iter().enumerate() {
            scratch.insert_unique(i as u32, k, |_, _| true);
        }
        for probe in 0..120u64 {
            assert_eq!(
                inc.contains(probe, |_| true),
                scratch.contains(probe, |_| true),
                "membership diverges at key {probe}"
            );
        }
    }

    #[test]
    fn bucket_count_rounds_up() {
        let t = ChainTable::with_capacity(5, 33);
        assert_eq!(t.buckets(), 64);
        assert_eq!(t.capacity(), 5);
        assert!(t.heap_bytes() >= 64 * 4 + 5 * 12);
    }

    /// Longest run of row nodes between a bucket's sentinel and the next
    /// sentinel, over every bucket of the current level (linking the
    /// sentinels nobody has used yet, as a lookup would).
    fn longest_chain(t: &GrowChainTable) -> usize {
        let level = t.level.load(Ordering::Relaxed);
        (0..t.buckets())
            .map(|prefix| {
                let cell = t.entry_unlinked(sentinel_id(level, prefix));
                let mut cur = link_of(cell.load(Ordering::Acquire));
                let mut len = 0;
                while cur != NIL && cur & SENT == 0 {
                    len += 1;
                    let (chunk, off) = t.node((cur - 1) as usize);
                    cur = chunk.next[off].load(Ordering::Acquire);
                }
                len
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn grow_table_inserts_across_chunk_boundaries() {
        // base = 64 (floor), so 1000 rows span several node chunks and
        // double the 64-bucket directory three times.
        let t = GrowChainTable::new(2, 1, 16);
        for i in 0..1000i64 {
            assert!(t.insert_unique_row(i as u64, &[i, i * 2]));
        }
        assert_eq!(t.slots_reserved(), 1000);
        assert_eq!(t.buckets(), 512);
        assert_eq!(t.doublings(), 3);
        for i in 0..1000i64 {
            assert!(t.contains_row(i as u64, &[i, i * 2]));
            assert!(!t.contains_row(i as u64, &[i, i * 2 + 1]));
            assert!(!t.insert_unique_row(i as u64, &[i, i * 2]));
        }
        // Levels 6..=9 of the directory are allocated: 64 + ... + 512 cells.
        assert!(t.heap_bytes() > 1000 * (4 + 8 + 16) + 960 * 4);
    }

    #[test]
    fn a_reset_table_is_empty_and_sized_by_its_new_hint() {
        let mut t = GrowChainTable::new(2, 1, 16);
        for i in 0..1000i64 {
            assert!(t.insert_unique_row(i as u64, &[i, i]));
        }
        assert_eq!(t.doublings(), 3);
        // Sized for the 1000 rows the last use held: no doubling again.
        t.reset(2000);
        assert_eq!(
            (t.buckets(), t.doublings(), t.slots_reserved()),
            (2048, 0, 0)
        );
        assert!(!t.contains_row(7, &[7, 7]));
        for i in (0..1000i64).rev() {
            assert!(
                t.insert_unique_row(i as u64, &[i, i]),
                "row {i} is new again"
            );
            assert!(!t.insert_unique_row(i as u64, &[i, i]));
        }
        assert_eq!(t.doublings(), 0);
        let mut visited = 0usize;
        t.for_each_slot(|_| visited += 1);
        assert_eq!(visited, 1000);
        // Back down to the floor: only the new base level stays allocated
        // beside the kept node chunks.
        let chunks = t.heap_bytes() - 2048 * 4;
        t.reset(0);
        assert_eq!((t.buckets(), t.heap_bytes()), (64, chunks + 64 * 4));
        assert!(t.insert_unique_row(5, &[5, 5]) && t.contains_row(5, &[5, 5]));
        assert!(!t.contains_row(6, &[6, 6]));
    }

    #[test]
    fn grow_table_chains_stay_short_whatever_the_hint() {
        // 2^20 distinct rows into a table told to expect one: the
        // directory must have kept up (load factor <= 2) and no bucket may
        // hold more than a handful of rows. With a fixed 4096-bucket array
        // the mean chain here is 256.
        let t = GrowChainTable::new(3, 1, 1);
        let n = 1i64 << 20;
        for i in 0..n {
            let row = [i, i >> 3, i & 7];
            assert!(t.insert_unique_row(recstep_common::hash::hash_row(&row), &row));
        }
        assert_eq!(t.slots_reserved(), n as usize);
        assert!(t.buckets() >= t.slots_reserved() / 2);
        assert!(t.doublings() >= 13);
        let longest = longest_chain(&t);
        assert!(longest <= 16, "longest chain {longest}");
        // Nothing was lost on the way: every row is still found, in its
        // sequentially dense slot.
        for i in (0..n).step_by(4099) {
            let row = [i, i >> 3, i & 7];
            assert_eq!(
                t.find_row(recstep_common::hash::hash_row(&row), &row),
                Some(i as u32)
            );
        }
        let mut visited = 0usize;
        t.for_each_slot(|_| visited += 1);
        assert_eq!(visited, n as usize);
    }

    #[test]
    fn grow_table_list_is_split_ordered() {
        // The invariant everything rests on: walking the one list from the
        // head meets order keys in non-decreasing order, with each
        // sentinel ahead of the rows of its bucket and, among sentinels
        // sharing a key, the shallower level first.
        let t = GrowChainTable::new(1, 1, 1);
        for i in 0..5000i64 {
            t.insert_unique_row(i as u64, &[i]);
        }
        assert_eq!(t.doublings(), 6);
        longest_chain(&t); // link every sentinel of the current level
        let mut cur = t.level_cells(t.base_level)[0].load(Ordering::Acquire);
        let (mut last, mut rows, mut deepest) = ((0u64, 0usize), 0, 0);
        while cur != NIL {
            assert_eq!(cur & PENDING, 0, "quiescent list carries no pending tag");
            let (at, next) = if cur & SENT != 0 {
                let id = (cur & !SENT) as usize;
                deepest += (sentinel_parts(id).0 == t.base_level + 6) as usize;
                ((sentinel_key(id), id), t.sentinel(id))
            } else {
                let (chunk, off) = t.node((cur - 1) as usize);
                rows += 1;
                let key = chunk.order[off].load(Ordering::Relaxed);
                ((key, usize::MAX), &chunk.next[off])
            };
            assert!(at >= last, "{at:?} after {last:?}");
            last = at;
            cur = next.load(Ordering::Acquire);
        }
        assert_eq!(rows, 5000);
        assert_eq!(deepest, t.buckets());
    }

    #[test]
    fn slot_payload_is_initialised_before_publication() {
        let t = GrowChainTable::new(1, 1, 1);
        let side: SlotChunks<AtomicI64> = SlotChunks::new(1);
        for i in 0..300i64 {
            let slot = t.insert_or_find_slot(i as u64, &[i], |s| {
                side.get(s).store(i * 10, Ordering::Relaxed)
            });
            assert_eq!(slot, Slot::Inserted(i as u32));
        }
        // A second insert finds the row and must not re-run `init`.
        assert_eq!(
            t.insert_or_find_slot(7, &[7], |_| panic!("row exists")),
            Slot::Found(7)
        );
        for i in 0..300i64 {
            assert_eq!(t.value(i as u32, 0), i);
            assert_eq!(side.get(i as u32).load(Ordering::Relaxed), i * 10);
        }
        assert!(side.heap_bytes() >= 300 * 8);
    }

    #[test]
    fn grow_table_distinguishes_colliding_keys_by_row() {
        // Same key, different rows: both survive; equal rows do not.
        let t = GrowChainTable::new(2, 8, 8);
        assert!(t.insert_unique_row(7, &[1, 2]));
        assert!(t.insert_unique_row(7, &[3, 4]));
        assert!(!t.insert_unique_row(7, &[1, 2]));
        assert!(t.contains_row(7, &[1, 2]));
        assert!(t.contains_row(7, &[3, 4]));
        assert!(!t.contains_row(7, &[5, 6]));
    }

    #[test]
    fn grow_table_parallel_unique_inserts_have_one_winner_per_row() {
        // 64 distinct rows, each raced by 32 inserts across 8 workers,
        // with tiny hints so growth happens under contention.
        let pool = ThreadPool::new(8);
        let t = GrowChainTable::new(2, 4, 16);
        let winners: Vec<std::sync::atomic::AtomicU32> = (0..64)
            .map(|_| std::sync::atomic::AtomicU32::new(0))
            .collect();
        pool.parallel_for(64 * 32, 8, |range, _| {
            for i in range {
                let r = (i % 64) as Value;
                if t.insert_unique_row(r as u64 % 13, &[r, r + 1]) {
                    winners[r as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        for w in &winners {
            assert_eq!(w.load(Ordering::Relaxed), 1);
        }
        // Reserved slots may exceed winners (lost races leak slots) but
        // never the number of insert attempts.
        assert!(t.slots_reserved() >= 64);
        assert!(t.slots_reserved() <= 64 * 32);
    }
}
