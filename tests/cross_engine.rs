//! Differential testing across every engine in the repository: RecStep (in
//! multiple configurations) and the set-based semi-naïve baseline, both
//! checked against the naïve oracle on generated workloads from every
//! dataset family.

use std::collections::BTreeSet;

use recstep::{Config, Database, Engine, PbmeMode, Value};
use recstep_baselines::naive::NaiveEngine;
use recstep_baselines::setbased::SetEngine;
use recstep_graphgen::{as_values, gnp::gnp, program_analysis as pa, rmat::rmat, with_weights};

type Rows = BTreeSet<Vec<Value>>;

fn recstep_rows(cfg: Config, loads: &[(&str, &[(Value, Value)])], src: &str, rel: &str) -> Rows {
    let engine = Engine::from_config(cfg.threads(4)).unwrap();
    let mut db = Database::new().unwrap();
    let mut tx = db.transaction();
    for (name, data) in loads {
        tx.load_edges(name, data).unwrap();
    }
    tx.commit().unwrap();
    engine.prepare(src).unwrap().run(&mut db).unwrap();
    db.relation(rel).unwrap().to_vec().into_iter().collect()
}

fn naive_rows(loads: &[(&str, &[(Value, Value)])], src: &str, rel: &str) -> Rows {
    let mut e = NaiveEngine::new();
    for (name, data) in loads {
        e.load_edges(name, data);
    }
    e.run_source(src).unwrap();
    e.rows(rel).unwrap().iter().cloned().collect()
}

fn setbased_rows(loads: &[(&str, &[(Value, Value)])], src: &str, rel: &str) -> Rows {
    let mut e = SetEngine::new();
    for (name, data) in loads {
        e.load_edges(name, data);
    }
    e.run_source(src).unwrap();
    e.rows(rel).unwrap().iter().cloned().collect()
}

#[test]
fn tc_all_engines_agree_on_gnp() {
    let edges = as_values(&gnp(60, 0.03, 5));
    let loads: &[(&str, &[(Value, Value)])] = &[("arc", &edges)];
    let oracle = naive_rows(loads, recstep::programs::TC, "tc");
    assert_eq!(
        recstep_rows(Config::default(), loads, recstep::programs::TC, "tc"),
        oracle
    );
    assert_eq!(
        recstep_rows(Config::no_op(), loads, recstep::programs::TC, "tc"),
        oracle
    );
    assert_eq!(setbased_rows(loads, recstep::programs::TC, "tc"), oracle);
}

#[test]
fn sg_engines_agree_on_rmat() {
    let edges = as_values(&rmat(64, 200, 9));
    let loads: &[(&str, &[(Value, Value)])] = &[("arc", &edges)];
    let oracle = naive_rows(loads, recstep::programs::SG, "sg");
    for cfg in [
        Config::default().pbme(PbmeMode::Off),
        Config::default().pbme(PbmeMode::Force),
        Config::no_op(),
    ] {
        assert_eq!(
            recstep_rows(cfg, loads, recstep::programs::SG, "sg"),
            oracle
        );
    }
    assert_eq!(setbased_rows(loads, recstep::programs::SG, "sg"), oracle);
}

#[test]
fn andersen_engines_agree_on_generated_input() {
    let input = pa::andersen(80, 3);
    let loads: &[(&str, &[(Value, Value)])] = &[
        ("addressOf", &input.address_of),
        ("assign", &input.assign),
        ("load", &input.load),
        ("store", &input.store),
    ];
    let oracle = naive_rows(loads, recstep::programs::ANDERSEN, "pointsTo");
    assert_eq!(
        recstep_rows(
            Config::default(),
            loads,
            recstep::programs::ANDERSEN,
            "pointsTo"
        ),
        oracle
    );
    assert_eq!(
        setbased_rows(loads, recstep::programs::ANDERSEN, "pointsTo"),
        oracle
    );
}

#[test]
fn cspa_engines_agree_on_generated_input() {
    let input = pa::cspa(6, 6, 11);
    let loads: &[(&str, &[(Value, Value)])] = &[
        ("assign", &input.assign),
        ("dereference", &input.dereference),
    ];
    for rel in ["valueFlow", "valueAlias", "memoryAlias"] {
        let oracle = naive_rows(loads, recstep::programs::CSPA, rel);
        assert_eq!(
            recstep_rows(Config::default(), loads, recstep::programs::CSPA, rel),
            oracle,
            "recstep {rel}"
        );
        assert_eq!(
            setbased_rows(loads, recstep::programs::CSPA, rel),
            oracle,
            "set {rel}"
        );
    }
}

#[test]
fn csda_engines_agree_on_generated_chains() {
    let input = pa::csda(4, 60, 13);
    let loads: &[(&str, &[(Value, Value)])] =
        &[("arc", &input.arc), ("nullEdge", &input.null_edge)];
    let oracle = naive_rows(loads, recstep::programs::CSDA, "null");
    assert_eq!(
        recstep_rows(
            Config::default().pbme(PbmeMode::Off),
            loads,
            recstep::programs::CSDA,
            "null"
        ),
        oracle
    );
    // PBME auto mode takes the TC-shaped stratum; results must not change.
    assert_eq!(
        recstep_rows(Config::default(), loads, recstep::programs::CSDA, "null"),
        oracle
    );
    assert_eq!(
        setbased_rows(loads, recstep::programs::CSDA, "null"),
        oracle
    );
}

#[test]
fn cc_and_sssp_agree_with_oracle_on_weighted_rmat() {
    let raw = rmat(50, 160, 21);
    let edges = as_values(&raw);
    let loads: &[(&str, &[(Value, Value)])] = &[("arc", &edges)];
    let oracle = naive_rows(loads, recstep::programs::CC, "cc3");
    assert_eq!(
        recstep_rows(Config::default(), loads, recstep::programs::CC, "cc3"),
        oracle
    );
    assert_eq!(setbased_rows(loads, recstep::programs::CC, "cc3"), oracle);

    // SSSP (ternary relation: load directly).
    let weighted = with_weights(&raw, 20, 5);
    let engine = Engine::from_config(Config::default().threads(4)).unwrap();
    let mut db = Database::new().unwrap();
    db.load_weighted_edges("arc", &weighted).unwrap();
    db.load_relation("id", 1, &[vec![0]]).unwrap();
    engine
        .prepare(recstep::programs::SSSP)
        .unwrap()
        .run(&mut db)
        .unwrap();
    let got: Rows = db.relation("sssp").unwrap().to_vec().into_iter().collect();
    let mut oracle = NaiveEngine::new();
    oracle.load("arc", weighted.iter().map(|&(a, b, w)| vec![a, b, w]));
    oracle.load("id", [vec![0]]);
    oracle.run_source(recstep::programs::SSSP).unwrap();
    let expect: Rows = oracle.rows("sssp").unwrap().iter().cloned().collect();
    assert_eq!(got, expect);
}

#[test]
fn reach_agrees_with_oracle() {
    let edges = as_values(&rmat(80, 240, 33));
    let mut oracle = NaiveEngine::new();
    oracle.load_edges("arc", &edges);
    oracle.load("id", [vec![7]]);
    oracle.run_source(recstep::programs::REACH).unwrap();
    let expect: BTreeSet<Value> = oracle.rows("reach").unwrap().iter().map(|r| r[0]).collect();
    let engine = Engine::from_config(Config::default().threads(4)).unwrap();
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &edges).unwrap();
    db.load_relation("id", 1, &[vec![7]]).unwrap();
    engine
        .prepare(recstep::programs::REACH)
        .unwrap()
        .run(&mut db)
        .unwrap();
    let got: BTreeSet<Value> = db
        .relation("reach")
        .unwrap()
        .try_decode::<Value>()
        .unwrap()
        .into_iter()
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn negation_program_agrees() {
    let edges = as_values(&gnp(12, 0.15, 17));
    let loads: &[(&str, &[(Value, Value)])] = &[("arc", &edges)];
    let oracle = naive_rows(loads, recstep::programs::NTC, "ntc");
    assert_eq!(
        recstep_rows(Config::default(), loads, recstep::programs::NTC, "ntc"),
        oracle
    );
    assert_eq!(setbased_rows(loads, recstep::programs::NTC, "ntc"), oracle);
}
