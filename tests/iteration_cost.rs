//! The fixed cost of one fixpoint iteration, counted in heap allocations.
//!
//! A long path makes a recursive program run about one iteration per
//! vertex, each over a ∆ of a row or two, so whatever an iteration
//! allocates regardless of its ∆ dominates the run. This binary installs a
//! counting global allocator and reads the allocations of one run over a
//! 400-arc path and one over a 100-arc path; their difference divided by
//! the difference in iterations is what one iteration allocates after the
//! first, with the setup both runs share cancelled out.
//!
//! Pinned claim: CC (recursive `MIN` in value order) and REACH (a
//! set-semantics ∆ stream) allocate at most [`MAX_ALLOCS_PER_ITERATION`]
//! times per iteration, at 1 and at 2 threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use recstep::{programs, Config, Database, Engine, PbmeMode, Value};

/// Counts every allocation and reallocation of the process.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound per iteration after the first.
const MAX_ALLOCS_PER_ITERATION: f64 = 8.0;

/// `(allocations, iterations)` of one run of `src` over the path
/// `0 → 1 → … → arcs` plus the seed `id(0)`.
fn count(engine: &Engine, src: &str, arcs: Value) -> (usize, usize) {
    let prog = engine.prepare(src).unwrap();
    let mut db = Database::new().unwrap();
    let path: Vec<(Value, Value)> = (0..arcs).map(|i| (i, i + 1)).collect();
    db.load_edges("arc", &path).unwrap();
    db.load_relation("id", 1, &[vec![0]]).unwrap();
    let before = ALLOCS.load(Ordering::Relaxed);
    let stats = prog.run(&mut db).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    (allocs, stats.iterations)
}

/// Allocations per iteration after the first: the 400-arc run less the
/// 100-arc run, over their difference in iterations.
fn per_iteration(src: &str, threads: usize) -> f64 {
    let engine =
        Engine::from_config(Config::default().threads(threads).pbme(PbmeMode::Off)).unwrap();
    // Warm the pool and any lazily built process state first.
    count(&engine, src, 100);
    let (short, short_iters) = count(&engine, src, 100);
    let (long, long_iters) = count(&engine, src, 400);
    assert!(
        long_iters >= short_iters + 290,
        "a path should run about one iteration per vertex: {short_iters} vs {long_iters}"
    );
    long.saturating_sub(short) as f64 / (long_iters - short_iters) as f64
}

/// One test, so that no other test of this binary allocates while a run
/// is counted.
#[test]
fn an_iteration_allocates_a_bounded_number_of_times() {
    let mut over = Vec::new();
    for (name, src) in [("CC", programs::CC), ("REACH", programs::REACH)] {
        for threads in [1, 2] {
            let per = per_iteration(src, threads);
            println!("{name} at {threads} thread(s): {per:.2} allocations per iteration");
            if per > MAX_ALLOCS_PER_ITERATION {
                over.push(format!("{name} at {threads} thread(s): {per:.2}"));
            }
        }
    }
    assert!(
        over.is_empty(),
        "allocations per iteration above {MAX_ALLOCS_PER_ITERATION}: {over:?}"
    );
}
