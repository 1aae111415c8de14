#![allow(clippy::needless_range_loop)]
//! Property-based tests of the parallel operators against sequential
//! oracles: the operators are the trusted computing base of the engine, so
//! they get the heaviest randomized scrutiny.

use proptest::prelude::*;
use recstep_common::lang::{CmpOp, Expr, Predicate};
use recstep_exec::agg::{group_aggregate, AggCol, Bucket};
use recstep_exec::chain::ChainTable;
use recstep_exec::expr::AggFunc;
use recstep_exec::index::{OrderedIndex, PersistentIndex};
use recstep_exec::join::{
    anti_join_sink, chained_join_sink, cross_join_sink, hash_join_sink, index_join_sink, JoinSpec,
};
use recstep_exec::sink::SinkMode;
use recstep_exec::ExecCtx;
use recstep_storage::{Relation, Schema};
use std::collections::{BTreeMap, BTreeSet};

type Pair = (i64, i64);

/// `items` in a seed-determined order (Fisher–Yates over splitmix draws).
fn shuffled(mut items: Vec<usize>, seed: u64) -> Vec<usize> {
    for i in (1..items.len()).rev() {
        let j = recstep_common::hash::mix64(seed ^ i as u64) as usize % (i + 1);
        items.swap(i, j);
    }
    items
}

/// The sequential oracle of the concurrent MIN/MAX maps: fold `(group,
/// v)` into `best`, reporting whether the group was created or strictly
/// improved.
fn fold_best(best: &mut BTreeMap<Vec<i64>, i64>, func: AggFunc, group: &[i64], v: i64) -> bool {
    match best.get_mut(group) {
        Some(cur) if (func == AggFunc::Min && v < *cur) || (func == AggFunc::Max && v > *cur) => {
            *cur = v;
            true
        }
        Some(_) => false,
        None => {
            best.insert(group.to_vec(), v);
            true
        }
    }
}

fn rel_of(pairs: &[Pair]) -> Relation {
    let mut r = Relation::new(Schema::with_arity("t", 2));
    for &(a, b) in pairs {
        r.push_row(&[a, b]);
    }
    r
}

type Quad = (i64, i64, i64, i64);

/// A four-column relation; `wide` spreads every value by 2^41, so no
/// packed key span is dense and the index hashes.
fn quad_rel(rows: &[Quad], wide: bool) -> Relation {
    let scale = if wide { 1i64 << 41 } else { 1 };
    let mut r = Relation::new(Schema::with_arity("q", 4));
    for &(a, b, c, d) in rows {
        r.push_row(&[a * scale, b * scale, c * scale, d * scale]);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ordered_index_probe_matches_nested_loop(
        build in proptest::collection::vec((0i64..6, 0i64..4, 0i64..3, -2i64..3), 0..160),
        probe in proptest::collection::vec((-1i64..8, -1i64..5, -2i64..4, 0i64..3), 0..80),
        width in 1usize..4,
        wide in any::<bool>(),
        grain in 1usize..64,
    ) {
        // A small grain runs the counting sort's passes in parallel.
        let mut ctx = ExecCtx::with_threads(3);
        ctx.grain = grain;
        let b = quad_rel(&build, wide);
        let p = quad_rel(&probe, wide);
        // Build keys are columns 0.., probe keys columns 1.. (probe
        // values reach past the build side's bounds on both ends).
        let build_cols: Vec<usize> = (0..width).collect();
        let probe_cols: Vec<usize> = (1..=width).collect();
        let index = OrderedIndex::build(&ctx, b.view(), build_cols.clone());
        prop_assert_eq!(index.rows(), build.len());
        if wide && !build.is_empty() {
            prop_assert!(!index.dense(), "keys 2^41 apart hash");
        }
        if !wide && build.len() >= 64 {
            prop_assert!(index.dense(), "spans within 2 buckets a row are dense");
        }
        let view = index.view();
        let mut row = Vec::new();
        for pr in 0..p.len() {
            let mut got: Vec<Vec<i64>> = index
                .matches(p.view(), pr, &probe_cols)
                .map(|pos| {
                    view.copy_row(pos, &mut row);
                    row.clone()
                })
                .collect();
            got.sort_unstable();
            let mut oracle: Vec<Vec<i64>> = (0..b.len())
                .filter(|&br| {
                    build_cols
                        .iter()
                        .zip(&probe_cols)
                        .all(|(&bc, &pc)| b.col(bc)[br] == p.col(pc)[pr])
                })
                .map(|br| (0..4).map(|c| b.col(c)[br]).collect())
                .collect();
            oracle.sort_unstable();
            prop_assert_eq!(
                index.contains(p.view(), pr, &probe_cols),
                !oracle.is_empty()
            );
            prop_assert_eq!(got, oracle);
        }
    }

    #[test]
    fn hash_join_matches_nested_loop(
        left in proptest::collection::vec((0i64..20, -5i64..5), 0..150),
        right in proptest::collection::vec((0i64..20, -5i64..5), 0..150),
        build_left in any::<bool>(),
    ) {
        let ctx = ExecCtx::with_threads(3);
        let l = rel_of(&left);
        let r = rel_of(&right);
        let spec = JoinSpec {
            left_keys: &[0],
            right_keys: &[0],
            build_left,
            output: &[Expr::Col(1), Expr::Col(3)],
            residual: &[],
        };
        let out = hash_join_sink(&ctx, l.view(), r.view(), &spec, &SinkMode::Materialize);
        let mut got: Vec<Pair> =
            (0..out[0].len()).map(|i| (out[0][i], out[1][i])).collect();
        got.sort_unstable();
        let mut oracle: Vec<Pair> = Vec::new();
        for &(lk, lv) in &left {
            for &(rk, rv) in &right {
                if lk == rk {
                    oracle.push((lv, rv));
                }
            }
        }
        oracle.sort_unstable();
        prop_assert_eq!(got, oracle);
    }

    #[test]
    fn chained_and_ordered_build_sides_match_nested_loop(
        left in proptest::collection::vec((0i64..5, 0i64..4, -5i64..5), 0..120),
        right in proptest::collection::vec((0i64..5, 0i64..4, -5i64..5), 0..120),
        build_left in any::<bool>(),
        wide in any::<bool>(),
    ) {
        // One join on two key columns, its build side served once by a
        // chained index and once by a key-ordered one. `wide` spreads the
        // keys 2^40 apart, so the two key columns span more than 64 bits:
        // the chained index hashes and verifies keys, and the key-ordered
        // one hashes its buckets.
        let ctx = ExecCtx::with_threads(3);
        let scale = if wide { 1i64 << 40 } else { 1 };
        let rel = |rows: &[(i64, i64, i64)]| {
            let mut r = Relation::new(Schema::with_arity("t", 3));
            for &(a, b, v) in rows {
                r.push_row(&[a * scale, b * scale, v]);
            }
            r
        };
        let (l, r) = (rel(&left), rel(&right));
        let spec = JoinSpec {
            left_keys: &[0, 1],
            right_keys: &[0, 1],
            build_left,
            output: &[Expr::Col(2), Expr::Col(5)],
            residual: &[],
        };
        let (build, probe) = if build_left { (&l, &r) } else { (&r, &l) };
        let mut chained = PersistentIndex::build(&ctx, build.view(), vec![0, 1]);
        // The engine's contract: the key mode must cover the probe keys.
        chained.sync_for_probe(&ctx, build.view(), probe.view(), &[0, 1]);
        if wide && !build.is_empty() {
            prop_assert!(!chained.mode().exact(), "keys over 64 bits hash");
        }
        let ordered = OrderedIndex::build(&ctx, build.view(), vec![0, 1]);
        let pairs = |out: Vec<Vec<i64>>| {
            let mut got: Vec<Pair> = (0..out[0].len()).map(|i| (out[0][i], out[1][i])).collect();
            got.sort_unstable();
            got
        };
        let mut oracle: Vec<Pair> = Vec::new();
        for &(la, lb, lv) in &left {
            for &(ra, rb, rv) in &right {
                if (la, lb) == (ra, rb) {
                    oracle.push((lv, rv));
                }
            }
        }
        oracle.sort_unstable();
        let sink = SinkMode::Materialize;
        let out = chained_join_sink(&ctx, probe.view(), &chained, build.view(), &spec, &sink);
        prop_assert_eq!(pairs(out), oracle.clone());
        let out = index_join_sink(&ctx, probe.view(), &ordered, &spec, &sink);
        prop_assert_eq!(pairs(out), oracle);
    }

    #[test]
    fn residual_prunes_exactly(
        rows in proptest::collection::vec((0i64..10, 0i64..10), 0..100),
    ) {
        let ctx = ExecCtx::with_threads(2);
        let l = rel_of(&rows);
        let spec = JoinSpec {
            left_keys: &[0],
            right_keys: &[0],
            build_left: true,
            output: &[Expr::Col(1), Expr::Col(3)],
            residual: &[Predicate { lhs: Expr::Col(1), op: CmpOp::Lt, rhs: Expr::Col(3) }],
        };
        let out = hash_join_sink(&ctx, l.view(), l.view(), &spec, &SinkMode::Materialize);
        for i in 0..out[0].len() {
            prop_assert!(out[0][i] < out[1][i]);
        }
        // Count matches the oracle.
        let mut expect = 0usize;
        for &(ak, av) in &rows {
            for &(bk, bv) in &rows {
                if ak == bk && av < bv {
                    expect += 1;
                }
            }
        }
        prop_assert_eq!(out[0].len(), expect);
    }

    #[test]
    fn anti_join_is_set_minus_on_keys(
        left in proptest::collection::vec((0i64..25, 0i64..25), 0..120),
        right_keys in proptest::collection::vec(0i64..25, 0..40),
    ) {
        let ctx = ExecCtx::with_threads(3);
        let l = rel_of(&left);
        let mut r = Relation::new(Schema::with_arity("r", 1));
        for &k in &right_keys {
            r.push_row(&[k]);
        }
        let out = anti_join_sink(
            &ctx,
            l.view(),
            r.view(),
            &[0],
            &[0],
            &[Expr::Col(0), Expr::Col(1)],
            &SinkMode::Materialize,
        );
        let keys: BTreeSet<i64> = right_keys.iter().copied().collect();
        let mut got: Vec<Pair> = (0..out[0].len()).map(|i| (out[0][i], out[1][i])).collect();
        got.sort_unstable();
        let mut oracle: Vec<Pair> =
            left.iter().copied().filter(|(k, _)| !keys.contains(k)).collect();
        oracle.sort_unstable();
        prop_assert_eq!(got, oracle);
    }

    #[test]
    fn cross_join_counts(
        ln in 0usize..30,
        rn in 0usize..30,
    ) {
        let ctx = ExecCtx::with_threads(2);
        let l = rel_of(&(0..ln as i64).map(|i| (i, i)).collect::<Vec<_>>());
        let r = rel_of(&(0..rn as i64).map(|i| (i, i)).collect::<Vec<_>>());
        let out = cross_join_sink(
            &ctx,
            l.view(),
            r.view(),
            &[Expr::Col(0), Expr::Col(2)],
            &[],
            &SinkMode::Materialize,
        );
        prop_assert_eq!(out[0].len(), ln * rn);
    }

    #[test]
    fn group_aggregate_matches_btreemap(
        rows in proptest::collection::vec((0i64..15, -100i64..100), 1..200),
    ) {
        let ctx = ExecCtx::with_threads(3);
        let rel = rel_of(&rows);
        for func in [AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count] {
            let out = group_aggregate(
                &ctx,
                rel.view(),
                &[Expr::Col(0)],
                &[AggCol { func, expr: Expr::Col(1) }],
            );
            let got: BTreeMap<i64, i64> =
                (0..out[0].len()).map(|i| (out[0][i], out[1][i])).collect();
            let mut oracle: BTreeMap<i64, i64> = BTreeMap::new();
            for &(k, v) in &rows {
                oracle
                    .entry(k)
                    .and_modify(|acc| {
                        *acc = match func {
                            AggFunc::Min => (*acc).min(v),
                            AggFunc::Max => (*acc).max(v),
                            AggFunc::Sum => *acc + v,
                            AggFunc::Count => *acc + 1,
                            AggFunc::Avg => unreachable!(),
                        }
                    })
                    .or_insert(if func == AggFunc::Count { 1 } else { v });
            }
            prop_assert_eq!(got, oracle, "{:?}", func);
        }
    }

    #[test]
    fn chain_table_multimap_matches_hashmap(
        entries in proptest::collection::vec((0u64..64, 0u32..1000), 0..300),
    ) {
        let table = ChainTable::with_capacity(entries.len(), entries.len() * 2);
        let mut oracle: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
        for (i, &(key, _)) in entries.iter().enumerate() {
            table.insert_multi(i as u32, key);
            oracle.entry(key).or_default().insert(i as u32);
        }
        for key in 0u64..64 {
            let got: BTreeSet<u32> = table.iter_key(key).collect();
            let expect = oracle.get(&key).cloned().unwrap_or_default();
            prop_assert_eq!(got, expect, "key {}", key);
        }
    }

    #[test]
    fn chain_table_unique_keeps_first_winner_count(
        keys in proptest::collection::vec(0u64..32, 1..200),
    ) {
        let table = ChainTable::with_capacity(keys.len(), keys.len() * 2);
        let mut winners = 0usize;
        for (i, &k) in keys.iter().enumerate() {
            if table.insert_unique(i as u32, k, |_, _| true) {
                winners += 1;
            }
        }
        let distinct: BTreeSet<u64> = keys.iter().copied().collect();
        prop_assert_eq!(winners, distinct.len());
    }

    #[test]
    fn chain_table_incremental_growth_equals_scratch_build(
        batches in proptest::collection::vec(
            proptest::collection::vec(0u64..48, 0..40), 1..6),
        probes in proptest::collection::vec(0u64..64, 1..40),
    ) {
        // Incremental: grow node storage (and rehash) batch by batch, as a
        // persistent index does across fixpoint iterations.
        let mut inc = ChainTable::with_capacity(0, 4);
        let mut inc_winners = 0usize;
        let mut inserted = 0usize;
        for batch in &batches {
            inc.grow_nodes(inserted + batch.len());
            if (inserted + batch.len()) * 2 > inc.buckets() {
                inc.rehash((inserted + batch.len()) * 2);
            }
            for &k in batch {
                if inc.insert_unique(inserted as u32, k, |_, _| true) {
                    inc_winners += 1;
                }
                inserted += 1;
            }
        }
        // Scratch: one pre-sized build over the same key sequence.
        let all: Vec<u64> = batches.iter().flatten().copied().collect();
        let scratch = ChainTable::with_capacity(all.len(), all.len() * 2);
        let mut scratch_winners = 0usize;
        for (i, &k) in all.iter().enumerate() {
            if scratch.insert_unique(i as u32, k, |_, _| true) {
                scratch_winners += 1;
            }
        }
        prop_assert_eq!(inc_winners, scratch_winners);
        // Membership after growth is identical to build-from-scratch.
        for &p in &probes {
            prop_assert_eq!(
                inc.contains(p, |_| true),
                scratch.contains(p, |_| true),
                "probe {}", p
            );
        }
    }

    #[test]
    fn grow_chain_concurrent_inserts_match_sequential_membership(
        distinct in 4200usize..6000,
        copies in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        // The fused pipeline's scratch table, driven well past its initial
        // capacity: 8 workers race duplicate-heavy inserts while the node
        // chunks grow and the 64-bucket directory doubles at least six
        // times under them. The outcome must be exactly that of a
        // sequential build: one winner per distinct row, the same
        // membership, and — sequentially — dense slot ids.
        use recstep_common::hash::hash_row;
        use recstep_common::sched::ThreadPool;
        use recstep_exec::chain::{GrowChainTable, Slot};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let row_of = |d: usize| [d as i64 % 97, d as i64];
        let offers = shuffled((0..distinct * copies).map(|i| i % distinct).collect(), seed);

        let concurrent = GrowChainTable::new(2, 4, 16);
        let winners = AtomicUsize::new(0);
        let pool = ThreadPool::new(8);
        pool.parallel_for(offers.len(), 16, |range, _| {
            for i in range {
                let row = row_of(offers[i]);
                if concurrent.insert_unique_row(hash_row(&row), &row) {
                    winners.fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        prop_assert_eq!(winners.load(Ordering::Relaxed), distinct);
        prop_assert!(concurrent.doublings() >= 6, "{} doublings", concurrent.doublings());
        prop_assert!(concurrent.buckets() >= concurrent.slots_reserved() / 2);

        // Sequential model: first offers take the next dense slot, repeat
        // offers find the slot the first one got.
        let sequential = GrowChainTable::new(2, 4, 16);
        let mut slot_of = vec![None; distinct];
        let mut next_slot = 0u32;
        for &d in &offers {
            let row = row_of(d);
            let got = sequential.insert_or_find_slot(hash_row(&row), &row, |_| {});
            match slot_of[d] {
                None => {
                    prop_assert_eq!(got, Slot::Inserted(next_slot));
                    slot_of[d] = Some(next_slot);
                    next_slot += 1;
                }
                Some(slot) => prop_assert_eq!(got, Slot::Found(slot)),
            }
        }
        prop_assert_eq!(sequential.slots_reserved(), distinct);

        // Same membership, and the two lookups agree with each other,
        // over stored rows and over rows never offered.
        for d in 0..distinct + 200 {
            let row = row_of(d);
            let key = hash_row(&row);
            let found = concurrent.find_row(key, &row);
            prop_assert_eq!(found.is_some(), d < distinct, "row {}", d);
            prop_assert_eq!(concurrent.contains_row(key, &row), found.is_some());
            prop_assert_eq!(sequential.find_row(key, &row), slot_of.get(d).copied().flatten());
            if let Some(slot) = found {
                prop_assert_eq!(concurrent.value(slot, 1), d as i64);
            }
        }
        let mut reachable = 0usize;
        concurrent.for_each_slot(|_| reachable += 1);
        prop_assert_eq!(reachable, distinct);
    }

    #[test]
    fn concurrent_mono_map_matches_sequential_monotonic_agg(
        groups in 4200usize..6000,
        copies in 2usize..5,
        seed in 0u64..u64::MAX,
    ) {
        // The aggregation sink's concurrent map on the same growable
        // table: 8 OS threads race CAS-on-best absorbs while the group
        // table doubles at least six times. It must converge to exactly
        // the map a sequential MIN fold produces — same groups,
        // same MIN per group — and each drain of the dirty list must
        // report exactly the groups created or improved since the last
        // one, once each, with their final values.
        use recstep_common::hash::mix64;
        use recstep_exec::agg::ConcurrentMonoMap;

        let value_of = |i: usize| (mix64(seed ^ i as u64) % 1000) as i64;
        // Round 1 creates `groups` groups; round 2 revisits most of them
        // with fresh candidates (some improve, some do not) and creates
        // 300 more.
        let round1: Vec<(i64, i64)> =
            shuffled((0..groups * copies).collect(), seed)
                .into_iter()
                .map(|i| ((i % groups) as i64, value_of(i)))
                .collect();
        let round2: Vec<(i64, i64)> =
            shuffled((0..groups * 2).collect(), !seed)
                .into_iter()
                .map(|i| ((i % (groups + 300)) as i64 + 150, value_of(i + groups * copies)))
                .collect();

        let mut concurrent = ConcurrentMonoMap::new(AggFunc::Min, 1, 2).unwrap();
        let mut sequential = BTreeMap::new();
        for round in [&round1, &round2] {
            let shared = &concurrent;
            std::thread::scope(|scope| {
                for chunk in round.chunks(round.len().div_ceil(8)) {
                    scope.spawn(move || {
                        for &(g, v) in chunk {
                            shared.absorb(&[g], v);
                        }
                    });
                }
            });
            let mut changed = BTreeSet::new();
            for &(g, v) in round {
                if fold_best(&mut sequential, AggFunc::Min, &[g], v) {
                    changed.insert(g);
                }
            }
            prop_assert_eq!(concurrent.len(), sequential.len());
            let mut improved: Vec<(i64, i64)> = concurrent
                .take_improved(Bucket::Unbounded)
                .chunks(2)
                .map(|r| (r[0], r[1]))
                .collect();
            improved.sort_unstable();
            let expect: Vec<(i64, i64)> = changed
                .iter()
                .map(|&g| (g, sequential[[g].as_slice()]))
                .collect();
            prop_assert_eq!(improved, expect);
            prop_assert!(concurrent.take_improved(Bucket::Unbounded).is_empty());
        }
        prop_assert!(concurrent.table_doublings() >= 6);
        for g in 0..(groups + 600) as i64 {
            prop_assert_eq!(
                concurrent.get(&[g]),
                sequential.get([g].as_slice()).copied(),
                "best value diverges for group {}", g
            );
        }
        let cols = concurrent.to_columns(1);
        prop_assert_eq!(cols[0].len(), sequential.len());
    }

    #[test]
    fn windowed_mono_map_matches_the_hashed_map(
        groups in 300usize..900,
        escapes in 20usize..80,
        arity in 1usize..3,
        shape in 0usize..3,
        max in any::<bool>(),
        seed in 0u64..u64::MAX,
    ) {
        // The direct-addressed window is an access path only: 8 OS threads
        // race the same candidates into a windowed map and a plain hashed
        // one, and both must equal a sequential MIN/MAX fold — groups, best
        // values, `len`, `to_columns`, and each drain's ∆. Keys inside the
        // window and escaping it (below its minimum, above its span) mix in
        // every round; `i64::MIN`/`i64::MAX` appear as values, where an
        // "absent" sentinel would be wrong.
        use recstep_common::hash::mix64;
        use recstep_exec::agg::ConcurrentMonoMap;
        use recstep_exec::key::KeyLayout;

        let func = if max { AggFunc::Max } else { AggFunc::Min };
        // Window minimum: zero, negative, or offset by 2^40.
        let base: i64 = [0, -5_000, 1 << 40][shape];
        let n = groups + escapes;
        // Ids below `groups` pack into the window; the rest escape.
        let key_of = |id: usize| -> Vec<i64> {
            let j = (id - groups.min(id)) as i64;
            let v = match id < groups {
                true => id as i64,
                false if j % 2 == 0 => -1 - j,
                false => groups as i64 + 16 * j + (1 << 20),
            };
            match arity {
                1 => vec![base + v],
                _ => vec![base + v.rem_euclid(16), -v.div_euclid(16)],
            }
        };
        let last = groups as i64 - 1;
        let bounds = match arity {
            1 => vec![(base, base + last)],
            _ => vec![(base, base + 15), (-(last / 16), 0)],
        };
        let layout = KeyLayout::from_bounds(&bounds).unwrap();
        let value_of = |i: usize| match mix64(seed ^ i as u64) % 64 {
            0 => i64::MIN,
            1 => i64::MAX,
            h => h as i64 - 32 + (mix64(!seed ^ i as u64) % 1000) as i64,
        };
        // Round 1 leaves every third id for round 2 to create.
        let round1: Vec<(usize, i64)> = shuffled((0..n * 3).collect(), seed)
            .into_iter()
            .filter(|i| (i % n) % 3 != 0)
            .map(|i| (i % n, value_of(i)))
            .collect();
        let round2: Vec<(usize, i64)> = shuffled((0..n * 2).collect(), !seed)
            .into_iter()
            .map(|i| (i % n, value_of(i + n * 3)))
            .collect();

        let mut windowed = ConcurrentMonoMap::with_window(func, arity, layout).unwrap();
        let mut hashed = ConcurrentMonoMap::new(func, arity, 2).unwrap();
        let mut sequential = BTreeMap::new();
        prop_assert!(windowed.has_window() && !hashed.has_window());
        let drained = |flat: &[i64]| -> BTreeSet<Vec<i64>> {
            flat.chunks(arity + 1).map(<[_]>::to_vec).collect()
        };
        for round in [&round1, &round2] {
            let keyed: Vec<(Vec<i64>, i64)> =
                round.iter().map(|&(id, v)| (key_of(id), v)).collect();
            for map in [&windowed, &hashed] {
                std::thread::scope(|scope| {
                    for chunk in keyed.chunks(keyed.len().div_ceil(8)) {
                        scope.spawn(move || {
                            for (k, v) in chunk {
                                map.absorb(k, *v);
                            }
                        });
                    }
                });
            }
            let mut changed = BTreeSet::new();
            for (k, v) in &keyed {
                if fold_best(&mut sequential, func, k, *v) {
                    changed.insert(k.clone());
                }
            }
            let expect: BTreeSet<Vec<i64>> = changed
                .into_iter()
                .map(|mut k| {
                    k.push(sequential[&k]);
                    k
                })
                .collect();
            prop_assert_eq!(drained(windowed.take_improved(Bucket::Unbounded)), expect);
            prop_assert_eq!(drained(hashed.take_improved(Bucket::Unbounded)), expect);
            prop_assert!(windowed.take_improved(Bucket::Unbounded).is_empty());
            prop_assert_eq!(windowed.len(), sequential.len());
            prop_assert_eq!(hashed.len(), sequential.len());
        }
        for id in 0..n {
            let k = key_of(id);
            prop_assert_eq!(windowed.get(&k), sequential.get(&k).copied(), "group {:?}", k);
            prop_assert_eq!(hashed.get(&k), sequential.get(&k).copied(), "group {:?}", k);
        }
        let rows = |cols: Vec<Vec<i64>>| -> BTreeSet<Vec<i64>> {
            (0..cols[0].len()).map(|r| cols.iter().map(|c| c[r]).collect()).collect()
        };
        let expect: BTreeSet<Vec<i64>> = sequential
            .into_iter()
            .map(|(mut k, best)| {
                k.push(best);
                k
            })
            .collect();
        prop_assert_eq!(expect.len(), n);
        prop_assert_eq!(rows(windowed.to_columns(arity)), expect);
        prop_assert_eq!(rows(hashed.to_columns(arity)), expect);
    }

    #[test]
    fn delta_sink_fresh_and_overflow_are_candidates_minus_r(
        base in proptest::collection::vec((0i64..12, 0i64..12), 60..200),
        cand in proptest::collection::vec((-3i64..16, -3i64..16), 0..400),
        shape in 0usize..3,
    ) {
        // Shape 0 packs into a bit window (R's membership bits and the
        // pass's own: 8 bits, and 60 rows at least fill its page); shape
        // 1 still packs, 48 bits wide, so the pass
        // takes the scratch table; shape 2 hashes. Negative candidates
        // escape R's packed bounds in shapes 0 and 1. Two threads offer;
        // fresh rows and the overflow together must be exactly the
        // candidates that are not in R, each fresh row once.
        use std::sync::{Barrier, Mutex};
        use recstep_exec::sink::DeltaSink;
        let scale = [1i64, 1 << 20, 1 << 41][shape];
        let scaled = |rows: &[Pair]| -> Vec<[i64; 2]> {
            rows.iter().map(|&(a, b)| [a * scale, b * scale]).collect()
        };
        let base_rows = scaled(&base);
        let cand_rows = scaled(&cand);
        let mut r = Relation::new(Schema::with_arity("r", 2));
        for row in &base_rows {
            r.push_row(row);
        }
        let ctx = ExecCtx::with_threads(2);
        let idx = PersistentIndex::build(&ctx, r.view(), vec![0, 1]);
        prop_assert_eq!(idx.window().is_some(), shape == 0);
        let sink = DeltaSink::new(&idx, r.view(), 0);
        prop_assert_eq!(sink.windowed(), shape == 0);
        let fresh = Mutex::new(Vec::new());
        let chunks: Vec<&[[i64; 2]]> = cand_rows.chunks(cand_rows.len().div_ceil(2).max(1)).collect();
        let start = Barrier::new(chunks.len());
        std::thread::scope(|scope| {
            for chunk in chunks {
                let (sink, fresh, start) = (&sink, &fresh, &start);
                scope.spawn(move || {
                    start.wait();
                    for row in chunk {
                        if sink.offer(row) {
                            fresh.lock().unwrap().push(row.to_vec());
                        }
                    }
                });
            }
        });
        let fresh = fresh.into_inner().unwrap();
        let in_r: BTreeSet<Vec<i64>> = base_rows.iter().map(|r| r.to_vec()).collect();
        let oracle: BTreeSet<Vec<i64>> = cand_rows
            .iter()
            .map(|r| r.to_vec())
            .filter(|r| !in_r.contains(r))
            .collect();
        let fresh_set: BTreeSet<Vec<i64>> = fresh.iter().cloned().collect();
        prop_assert_eq!(fresh_set.len(), fresh.len(), "a fresh row won twice");
        let overflow: BTreeSet<Vec<i64>> = sink.take_overflow().into_iter().collect();
        prop_assert!(fresh_set.is_disjoint(&overflow));
        prop_assert!(overflow.iter().all(|r| r[0] < 0 || r[1] < 0), "only escapes overflow");
        let got: BTreeSet<Vec<i64>> = fresh_set.union(&overflow).cloned().collect();
        prop_assert_eq!(got, oracle);
    }

    #[test]
    fn distinct_sink_keeps_each_live_value_once(
        rows in proptest::collection::vec((0i64..10, -5i64..5, 0i64..14), 0..400),
        shape in 0usize..3,
    ) {
        // Live columns 0 and 2 of three. Shape 0's bounds cover only part
        // of column 2 (values 10..14 escape the window to the hashed
        // table), shape 1 is spread past any window and shape 2 has no
        // bounds at all. Two threads offer; the kept rows' live values
        // must be the distinct live values, each once.
        use std::sync::{Barrier, Mutex};
        use recstep_exec::sink::{DistinctSink, SinkScratch};
        let scale = if shape == 1 { 1i64 << 41 } else { 1 };
        let rows: Vec<[i64; 3]> = rows.iter().map(|&(a, b, c)| [a * scale, b, c * scale]).collect();
        let bounds = [(0, 9 * scale), (0, 9 * scale)];
        let live = [0usize, 2];
        let mut scratch = SinkScratch::default();
        let sink = DistinctSink::new(
            &live,
            (shape < 2).then_some(&bounds[..]),
            rows.len(),
            &mut scratch,
        );
        prop_assert_eq!(sink.windowed(), shape == 0);
        let kept = Mutex::new(Vec::new());
        let chunks: Vec<&[[i64; 3]]> = rows.chunks(rows.len().div_ceil(2).max(1)).collect();
        let start = Barrier::new(chunks.len());
        std::thread::scope(|scope| {
            for chunk in chunks {
                let (sink, kept, start) = (&sink, &kept, &start);
                scope.spawn(move || {
                    start.wait();
                    for row in chunk {
                        if sink.offer(&[row[0], row[2]]) {
                            kept.lock().unwrap().push(vec![row[0], row[2]]);
                        }
                    }
                });
            }
        });
        let kept = kept.into_inner().unwrap();
        let oracle: BTreeSet<Vec<i64>> = rows.iter().map(|r| vec![r[0], r[2]]).collect();
        prop_assert_eq!(kept.len(), oracle.len(), "a live value was kept twice");
        prop_assert_eq!(kept.into_iter().collect::<BTreeSet<_>>(), oracle);
    }

    #[test]
    fn persistent_index_window_tracks_the_covered_rows(
        first in proptest::collection::vec((0i64..8, 0i64..8), 1..100),
        appends in proptest::collection::vec(proptest::collection::vec((0i64..8, 0i64..8), 0..40), 1..4),
        refill in proptest::collection::vec((20i64..30, 0i64..3), 1..200),
    ) {
        // After every build and append the index keeps a window iff
        // `BitWindow::worth` takes its layout for the covered rows (an
        // append may cross that line), and the window's bits are exactly
        // the covered rows' packed keys; an appended value escaping the
        // layout drops the window with the packed mode; a shrink rebuild
        // chooses the layout and the window afresh.
        use recstep_exec::index::SyncAction;
        use recstep_exec::key::KeyMode;
        use recstep_exec::sink::BitWindow;
        let ctx = ExecCtx::with_threads(2);
        let check = |idx: &PersistentIndex, r: &Relation| -> Result<(), String> {
            let KeyMode::Packed(layout) = idx.mode() else {
                prop_assert!(idx.window().is_none(), "a window without a packed layout");
                return Ok(());
            };
            prop_assert_eq!(idx.window().is_some(), BitWindow::worth(layout, r.len()));
            let Some(w) = idx.window() else {
                return Ok(());
            };
            let keys: BTreeSet<u64> = r.to_rows().iter().map(|row| layout.pack(row)).collect();
            for key in 0..1u64 << layout.total_bits() {
                prop_assert_eq!(w.contains(key), keys.contains(&key), "key {}", key);
            }
            Ok(())
        };
        let mut r = rel_of(&first);
        let mut idx = PersistentIndex::build(&ctx, r.view(), vec![0, 1]);
        check(&idx, &r)?;
        let KeyMode::Packed(layout) = idx.mode().clone() else {
            unreachable!("small values pack")
        };
        for batch in &appends {
            // Keep the batch inside the layout so the window survives.
            let fits: Vec<Pair> = batch
                .iter()
                .copied()
                .filter(|&(a, b)| layout.try_pack(&[a, b]).is_some())
                .collect();
            for &(a, b) in &fits {
                r.push_row(&[a, b]);
            }
            idx.append(&ctx, r.view());
            prop_assert!(idx.mode().exact());
            check(&idx, &r)?;
        }
        // One value past every layout: the hashed rebuild drops the window.
        r.push_row(&[-1 << 50, 0]);
        prop_assert_eq!(idx.append(&ctx, r.view()), SyncAction::Rebuilt);
        prop_assert!(idx.window().is_none() && !idx.mode().exact());
        // Cleared and refilled (fewer rows): the shrink rebuild packs the
        // new bounds and keeps a window of them.
        r.clear();
        for &(a, b) in refill.iter().take(idx.rows() - 1) {
            r.push_row(&[a, b]);
        }
        prop_assert_eq!(idx.append(&ctx, r.view()), SyncAction::Rebuilt);
        prop_assert!(idx.mode().exact());
        check(&idx, &r)?;
        prop_assert!(idx.heap_bytes() >= idx.window().map_or(0, BitWindow::heap_bytes));
    }
}
