//! Differential for the join direction rule: in a recursive stratum, a
//! join with a frozen relation builds on that relation's key-ordered
//! index and probes it with each iteration's ∆ (`delta_probe_joins`).
//!
//! The graph is a small random cluster feeding a 300-arc path, so the
//! fixpoints run hundreds of iterations with small ∆s — the shape the rule
//! exists for — and a wide-id copy spreads every id by 2^32 past 2^40, so
//! no key span is dense and every index hashes. CC, REACH and SSSP must
//! agree across the default engine, `--oof-na` (first choice frozen),
//! `--no-shared-index-cache` (the run keeps its indexes to itself) and
//! `Config::no_op()`, and with the naïve oracle. TC agrees across the same
//! configurations and with the set-based baseline: naïve evaluation of a
//! 300-step closure re-joins all 45 k rows every iteration, too slow for a
//! test. The baselines run on the plain graph only; the wide copy's
//! results, relabeled, must equal theirs.

use std::collections::BTreeSet;

use recstep::{Config, Database, Engine, EvalStats, OofMode, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_baselines::setbased::SetEngine;
use recstep_graphgen::{as_values, gnp::gnp};

type Rows = BTreeSet<Vec<Value>>;

const CLUSTER: u32 = 24;
const PATH_ARCS: Value = 300;

/// Cluster vertices `0..CLUSTER`, an arc from vertex 0 onto the path, and
/// the path `CLUSTER → CLUSTER + 1 → … → CLUSTER + PATH_ARCS`.
fn arcs() -> Vec<(Value, Value)> {
    let first = CLUSTER as Value;
    let mut arcs = as_values(&gnp(CLUSTER, 0.12, 7));
    arcs.push((0, first));
    arcs.extend((0..PATH_ARCS).map(|i| (first + i, first + i + 1)));
    arcs
}

/// Vertex id `v` of the wide-id copy (`v` itself otherwise).
fn id(v: Value, wide: bool) -> Value {
    if wide {
        (1 << 40) + v * (1 << 32)
    } else {
        v
    }
}

/// The vertex `id(v, true)` names, for `v` of the plain graph.
fn narrow(w: Value) -> Value {
    (w - (1 << 40)) / (1 << 32)
}

/// A program, its inputs and the relations compared, each with how many
/// of its leading columns are vertex ids.
struct Case {
    name: &'static str,
    src: &'static str,
    inputs: Vec<(&'static str, Vec<Vec<Value>>)>,
    outputs: &'static [(&'static str, usize)],
}

fn cases(wide: bool) -> Vec<Case> {
    let arcs: Vec<Vec<Value>> = arcs()
        .into_iter()
        .map(|(a, b)| vec![id(a, wide), id(b, wide)])
        .collect();
    let weighted: Vec<Vec<Value>> = arcs
        .iter()
        .enumerate()
        .map(|(i, r)| vec![r[0], r[1], 1 + (i as Value * 7) % 5])
        .collect();
    let source = vec![vec![id(0, wide)]];
    vec![
        Case {
            name: "cc",
            src: recstep::programs::CC,
            inputs: vec![("arc", arcs.clone())],
            outputs: &[("cc3", 2), ("cc2", 2), ("cc", 1)],
        },
        Case {
            name: "reach",
            src: recstep::programs::REACH,
            inputs: vec![("arc", arcs.clone()), ("id", source.clone())],
            outputs: &[("reach", 1)],
        },
        Case {
            name: "sssp",
            src: recstep::programs::SSSP,
            inputs: vec![("arc", weighted), ("id", source)],
            outputs: &[("sssp2", 1), ("sssp", 1)],
        },
        Case {
            name: "tc",
            src: recstep::programs::TC,
            inputs: vec![("arc", arcs)],
            outputs: &[("tc", 2)],
        },
    ]
}

/// Every output of `case` under `cfg`, with the run's statistics.
fn recstep_rows(cfg: Config, case: &Case) -> (Vec<Rows>, EvalStats) {
    let engine = Engine::from_config(cfg.threads(2)).unwrap();
    let mut db = Database::new().unwrap();
    for (rel, rows) in &case.inputs {
        db.load_relation(rel, rows[0].len(), rows).unwrap();
    }
    let stats = engine.prepare(case.src).unwrap().run(&mut db).unwrap();
    let rows = case
        .outputs
        .iter()
        .map(|(rel, _)| db.relation(rel).unwrap().to_vec().into_iter().collect())
        .collect();
    (rows, stats)
}

/// `rows` of the wide-id copy with their vertex ids mapped back.
fn narrowed(case: &Case, rows: &[Rows]) -> Vec<Rows> {
    rows.iter()
        .zip(case.outputs)
        .map(|(rel, &(_, ids))| {
            rel.iter()
                .map(|r| {
                    let mut r = r.clone();
                    r[..ids].iter_mut().for_each(|v| *v = narrow(*v));
                    r
                })
                .collect()
        })
        .collect()
}

/// Every output of `case` from a baseline engine.
fn baseline_rows(case: &Case) -> Vec<Rows> {
    if case.name == "tc" {
        let mut e = SetEngine::new();
        for (rel, rows) in &case.inputs {
            let pairs: Vec<(Value, Value)> = rows.iter().map(|r| (r[0], r[1])).collect();
            e.load_edges(rel, &pairs);
        }
        e.run_source(case.src).unwrap();
        return case
            .outputs
            .iter()
            .map(|(rel, _)| e.rows(rel).unwrap().iter().cloned().collect())
            .collect();
    }
    let mut e = NaiveEngine::new();
    for (rel, rows) in &case.inputs {
        e.load(rel, rows.iter().cloned());
    }
    e.run_source(case.src).unwrap();
    case.outputs
        .iter()
        .map(|(rel, _)| e.rows(rel).unwrap().iter().cloned().collect())
        .collect()
}

#[test]
fn frozen_side_probes_agree_across_configurations_and_oracles() {
    // The baselines run once, on the plain graph: `id` is monotone, so
    // the wide copy's results are the plain ones relabeled (MIN labels
    // included).
    let oracles: Vec<Vec<Rows>> = cases(false).iter().map(baseline_rows).collect();
    for wide in [false, true] {
        for (case, oracle) in cases(wide).into_iter().zip(&oracles) {
            let what = format!("{} (wide ids: {wide})", case.name);
            let base = Config::default().pbme(PbmeMode::Off);
            let (want, stats) = recstep_rows(base.clone(), &case);
            assert!(
                stats.delta_probe_joins > 0,
                "{what}: the recursive join probes the frozen arc index"
            );
            assert!(
                stats.iterations > PATH_ARCS as usize,
                "{what}: walks the path"
            );
            for (label, cfg) in [
                ("oof_na", base.clone().oof(OofMode::None)),
                (
                    "no_shared_index_cache",
                    base.clone().shared_index_cache(false),
                ),
                ("no_op", Config::no_op()),
            ] {
                let (got, stats) = recstep_rows(cfg, &case);
                assert_eq!(got, want, "{what}: {label} differs from the default");
                if label != "no_op" {
                    assert!(stats.delta_probe_joins > 0, "{what}: {label} probes too");
                }
            }
            let plain = if wide { narrowed(&case, &want) } else { want };
            assert_eq!(&plain, oracle, "{what}: the baseline differs");
        }
    }
}

/// A ∆ stream's hashed winners table starts sized for the previous
/// iteration's ∆ and is reused from pass to pass, so on a long chain of
/// wide ids — no bit window applies — it almost never doubles in flight.
/// (Started empty every pass, it doubled about 3.7 times per iteration.)
#[test]
fn a_wide_id_chain_grows_no_delta_table_per_iteration() {
    let chain: Vec<Vec<Value>> = (0..PATH_ARCS)
        .map(|i| vec![id(i, true), id(i + 1, true)])
        .collect();
    let case = Case {
        name: "tc",
        src: recstep::programs::TC,
        inputs: vec![("arc", chain)],
        outputs: &[("tc", 2)],
    };
    let (rows, stats) = recstep_rows(Config::default().pbme(PbmeMode::Off), &case);
    let want: Rows = (0..=PATH_ARCS)
        .flat_map(|a| (a + 1..=PATH_ARCS).map(move |b| vec![a, b]))
        .collect();
    assert_eq!(narrowed(&case, &rows), vec![want]);
    assert_eq!(stats.sink_windows, 0, "wide ids leave no key narrow");
    assert!(stats.iterations > PATH_ARCS as usize);
    assert!(
        stats.sink_table_doublings * 10 < stats.iterations,
        "{} doublings over {} iterations",
        stats.sink_table_doublings,
        stats.iterations
    );
}
