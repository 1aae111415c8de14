#![allow(clippy::needless_range_loop, clippy::type_complexity)]
//! Property-based tests (proptest) over the core data structures and
//! cross-engine agreement on random inputs.

use proptest::prelude::*;
use recstep::{Config, Database, Engine, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_baselines::setbased::SetEngine;
use recstep_exec::dedup::{deduplicate, DedupImpl};
use recstep_exec::key::KeyLayout;
use recstep_exec::setdiff::{set_difference, DsdState, SetDiffStrategy};
use recstep_exec::ExecCtx;
use recstep_storage::{Relation, Schema};
use std::collections::BTreeSet;

fn edges_strategy(n: Value, max_m: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((0..n, 0..n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tc_engines_agree(edges in edges_strategy(18, 60)) {
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(recstep::programs::TC).unwrap();
        let expect: BTreeSet<Vec<Value>> =
            oracle.rows("tc").unwrap().iter().cloned().collect();

        let engine = Engine::from_config(Config::default().threads(2)).unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &edges).unwrap();
        engine.prepare(recstep::programs::TC).unwrap().run(&mut db).unwrap();
        let got: BTreeSet<Vec<Value>> =
            db.relation("tc").unwrap().to_vec().into_iter().collect();
        prop_assert_eq!(&got, &expect);

        let mut s = SetEngine::new();
        s.load_edges("arc", &edges);
        s.run_source(recstep::programs::TC).unwrap();
        let got: BTreeSet<Vec<Value>> = s.rows("tc").unwrap().iter().cloned().collect();
        prop_assert_eq!(&got, &expect);
    }

    #[test]
    fn sg_pbme_agrees_with_tuples(edges in edges_strategy(16, 50)) {
        let run = |pbme| {
            let engine = Engine::from_config(Config::default().threads(2).pbme(pbme)).unwrap();
            let mut db = Database::new().unwrap();
            db.load_edges("arc", &edges).unwrap();
            engine.prepare(recstep::programs::SG).unwrap().run(&mut db).unwrap();
            db.relation("sg").unwrap().to_vec().into_iter().collect::<BTreeSet<Vec<Value>>>()
        };
        prop_assert_eq!(run(PbmeMode::Off), run(PbmeMode::Force));
    }

    #[test]
    fn cc_monotonic_agg_agrees(edges in edges_strategy(14, 40)) {
        let mut oracle = NaiveEngine::new();
        oracle.load_edges("arc", &edges);
        oracle.run_source(recstep::programs::CC).unwrap();
        let expect: BTreeSet<Vec<Value>> =
            oracle.rows("cc3").unwrap().iter().cloned().collect();
        let engine = Engine::from_config(Config::default().threads(2)).unwrap();
        let mut db = Database::new().unwrap();
        db.load_edges("arc", &edges).unwrap();
        engine.prepare(recstep::programs::CC).unwrap().run(&mut db).unwrap();
        let got: BTreeSet<Vec<Value>> =
            db.relation("cc3").unwrap().to_vec().into_iter().collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn dedup_equals_hashset(rows in proptest::collection::vec((0i64..40, -20i64..20), 0..300)) {
        let ctx = ExecCtx::with_threads(3);
        let mut rel = Relation::new(Schema::with_arity("t", 2));
        for &(a, b) in &rows {
            rel.push_row(&[a, b]);
        }
        let expect: BTreeSet<(Value, Value)> = rows.iter().copied().collect();
        for imp in [DedupImpl::Fast, DedupImpl::Generic, DedupImpl::Sort] {
            let out = deduplicate(&ctx, rel.view(), imp, rows.len());
            let got: BTreeSet<(Value, Value)> = (0..out.cols[0].len())
                .map(|r| (out.cols[0][r], out.cols[1][r]))
                .collect();
            prop_assert_eq!(&got, &expect);
            prop_assert_eq!(out.cols[0].len(), expect.len());
        }
    }

    #[test]
    fn setdiff_algorithms_agree(
        delta in proptest::collection::vec((0i64..30, 0i64..30), 0..120),
        full in proptest::collection::vec((0i64..30, 0i64..30), 0..120),
    ) {
        let ctx = ExecCtx::with_threads(3);
        // Deduplicate delta first (the engine's precondition).
        let dset: BTreeSet<(Value, Value)> = delta.iter().copied().collect();
        let mut drel = Relation::new(Schema::with_arity("d", 2));
        for &(a, b) in &dset {
            drel.push_row(&[a, b]);
        }
        let mut frel = Relation::new(Schema::with_arity("f", 2));
        for &(a, b) in &full {
            frel.push_row(&[a, b]);
        }
        let fset: BTreeSet<(Value, Value)> = full.iter().copied().collect();
        let expect: BTreeSet<(Value, Value)> =
            dset.difference(&fset).copied().collect();
        for strat in [
            SetDiffStrategy::AlwaysOpsd,
            SetDiffStrategy::AlwaysTpsd,
            SetDiffStrategy::Dynamic,
        ] {
            let mut st = DsdState::default();
            let (out, _) = set_difference(&ctx, drel.view(), frel.view(), strat, &mut st);
            let got: BTreeSet<(Value, Value)> =
                (0..out[0].len()).map(|r| (out[0][r], out[1][r])).collect();
            prop_assert_eq!(&got, &expect);
        }
    }

    #[test]
    fn cck_pack_unpack_roundtrip(
        vals in proptest::collection::vec((-1000i64..1000, 0i64..65536), 1..50)
    ) {
        let bounds = [(-1000i64, 1000i64), (0i64, 65535i64)];
        let layout = KeyLayout::from_bounds(&bounds).unwrap();
        let mut out = Vec::new();
        for &(a, b) in &vals {
            let key = layout.pack(&[a, b]);
            layout.unpack(key, &mut out);
            prop_assert_eq!(&out[..], &[a, b][..]);
        }
        // Distinct tuples get distinct keys.
        let keys: BTreeSet<u64> = vals.iter().map(|&(a, b)| layout.pack(&[a, b])).collect();
        let distinct: BTreeSet<(Value, Value)> = vals.iter().copied().collect();
        prop_assert_eq!(keys.len(), distinct.len());
    }

    #[test]
    fn parser_display_roundtrip(
        arity in 1usize..4,
        n_body in 1usize..4,
    ) {
        // Build a random-shaped but valid rule, render, parse, re-render.
        let vars = ["x", "y", "z"];
        let head_terms: Vec<String> =
            (0..arity).map(|i| vars[i % vars.len()].to_string()).collect();
        let body_atoms: Vec<String> = (0..n_body)
            .map(|i| {
                format!(
                    "b{i}({})",
                    (0..arity).map(|j| vars[(i + j) % vars.len()]).collect::<Vec<_>>().join(", ")
                )
            })
            .collect();
        let src = format!("h({}) :- {}.", head_terms.join(", "), body_atoms.join(", "));
        let prog = recstep::parser::parse(&src).unwrap();
        let rendered = prog.rules[0].display();
        let reparsed = recstep::parser::parse(&rendered).unwrap();
        prop_assert_eq!(&prog.rules[0], &reparsed.rules[0]);
    }

    #[test]
    fn bitmatrix_tc_agrees_with_warshall(edges in edges_strategy(20, 60)) {
        let pool = recstep_common::sched::ThreadPool::new(3);
        let e32: Vec<(u32, u32)> = edges.iter().map(|&(a, b)| (a as u32, b as u32)).collect();
        let m = recstep_bitmatrix::tc_closure(&pool, 20, &e32);
        // Warshall oracle.
        let mut reach = vec![[false; 20]; 20];
        for &(s, t) in &e32 {
            reach[s as usize][t as usize] = true;
        }
        for k in 0..20 {
            for i in 0..20 {
                if reach[i][k] {
                    for j in 0..20 {
                        if reach[k][j] {
                            reach[i][j] = true;
                        }
                    }
                }
            }
        }
        for i in 0..20 {
            for j in 0..20 {
                prop_assert_eq!(m.get(i, j), reach[i][j], "({}, {})", i, j);
            }
        }
    }
}
