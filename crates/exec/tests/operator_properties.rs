#![allow(clippy::needless_range_loop)]
//! Property-based tests of the parallel operators against sequential
//! oracles: the operators are the trusted computing base of the engine, so
//! they get the heaviest randomized scrutiny.

use proptest::prelude::*;
use recstep_common::lang::{CmpOp, Expr, Predicate};
use recstep_exec::agg::{group_aggregate, AggCol};
use recstep_exec::chain::ChainTable;
use recstep_exec::expr::AggFunc;
use recstep_exec::join::{anti_join, cross_join, hash_join, JoinSpec};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

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
        let out = hash_join(&ctx, l.view(), r.view(), &spec);
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
        let out = hash_join(&ctx, l.view(), l.view(), &spec);
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
        let out = anti_join(&ctx, l.view(), r.view(), &[0], &[0], &[Expr::Col(0), Expr::Col(1)]);
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
        let out = cross_join(&ctx, l.view(), r.view(), &[Expr::Col(0), Expr::Col(2)], &[]);
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
                .take_improved()
                .chunks(2)
                .map(|r| (r[0], r[1]))
                .collect();
            improved.sort_unstable();
            let expect: Vec<(i64, i64)> = changed
                .iter()
                .map(|&g| (g, sequential[[g].as_slice()]))
                .collect();
            prop_assert_eq!(improved, expect);
            prop_assert!(concurrent.take_improved().is_empty());
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
        let drained = |flat: Vec<i64>| -> BTreeSet<Vec<i64>> {
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
            prop_assert_eq!(drained(windowed.take_improved()), expect);
            prop_assert_eq!(drained(hashed.take_improved()), expect);
            prop_assert!(windowed.take_improved().is_empty());
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
}
