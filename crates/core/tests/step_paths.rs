//! Pins every per-IDB step path: each program × configuration below
//! selects one sink (the fused ∆ stream, the group-at-source aggregation
//! sink, or a materialized `Rt` with one of its tails) and must derive the
//! default run's rows with exactly the recorded counters. The counters
//! are schedule-independent at a fixed thread count; timings, scratch
//! table doublings and reservoir sample counts are not pinned.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use recstep::{
    Config, Database, Engine, EvalStats, MaterializedView, OofMode, PbmeMode, RelHandle, Value,
};

const NONLINEAR_TC: &str = "p(x, y) :- arc(x, y).\np(x, y) :- p(x, z), p(z, y).";
const COUNT_SUM: &str = "deg(x, COUNT(y), SUM(y)) :- arc(x, y).";
const MIN_GROUP: &str = "lo(x, MIN(y)) :- arc(x, y).";
/// Two IDBs of one stratum where `b`, stepped after `a`, reads `a` after
/// its ∆ occurrence: that scan must see `a`'s Old, not `a` grown by the
/// ∆ the other subquery reads as Delta (which derived each ∆×∆ pair
/// twice).
const MUTUAL: &str = "a(x, y) :- arc(x, y).\n\
                      a(x, y) :- b(x, z), arc(z, y).\n\
                      b(x, y) :- a(x, y).\n\
                      b(x, y) :- b(x, z), a(z, y).";

const PROGRAMS: [(&str, &str); 8] = [
    ("tc", recstep::programs::TC),
    ("nonlinear_tc", NONLINEAR_TC),
    ("mutual", MUTUAL),
    ("sg", recstep::programs::SG),
    ("cc", recstep::programs::CC),
    ("count_sum", COUNT_SUM),
    ("min_group", MIN_GROUP),
    ("ntc", recstep::programs::NTC),
];

const CONFIGS: [&str; 8] = [
    "default",
    "no_fused_pipeline",
    "no_fused_agg",
    "no_index_reuse",
    "no_uie",
    "no_eost",
    "oof_full",
    "oof_none",
];

fn config(name: &str) -> Config {
    let base = Config::default().pbme(PbmeMode::Off).threads(2);
    match name {
        "default" => base,
        "no_fused_pipeline" => base.fused_pipeline(false),
        "no_fused_agg" => base.fused_agg(false),
        "no_index_reuse" => base.index_reuse(false),
        "no_uie" => base.uie(false),
        "no_eost" => base.eost(false),
        "oof_full" => base.oof(OofMode::Full),
        "oof_none" => base.oof(OofMode::None),
        other => unreachable!("unknown configuration {other}"),
    }
}

fn edges() -> Vec<(Value, Value)> {
    let mut state = 27u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % 24
    };
    (0..48)
        .map(|_| (next() as Value, next() as Value))
        .collect()
}

/// Every derived relation's rows, sorted.
type Rows = BTreeMap<String, Vec<Vec<Value>>>;

fn sorted_rows(rel: Option<RelHandle<'_>>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rel
        .map(|h| h.iter_rows().map(|r| r.to_vec()).collect())
        .unwrap_or_default();
    rows.sort();
    rows
}

/// `iterations, queries_issued, tuples_considered, fused_runs,
/// pipeline_runs, agg_sink_runs, agg_rows_folded_at_source,
/// agg_groups_improved, rt_merge_bytes, rt_rows_skipped_at_source,
/// index.{full_builds, full_appends, build_rows, append_rows,
/// scratch_builds}, io_bytes, io_flushes, delta_probe_joins`.
fn counters(s: &EvalStats) -> [u64; 18] {
    [
        s.iterations as u64,
        s.queries_issued as u64,
        s.tuples_considered as u64,
        s.fused_runs as u64,
        s.pipeline_runs as u64,
        s.agg_sink_runs as u64,
        s.agg_rows_folded_at_source as u64,
        s.agg_groups_improved as u64,
        s.rt_merge_bytes as u64,
        s.rt_rows_skipped_at_source as u64,
        s.index.full_builds as u64,
        s.index.full_appends as u64,
        s.index.build_rows as u64,
        s.index.append_rows as u64,
        s.index.scratch_builds as u64,
        s.io_bytes,
        s.io_flushes,
        s.delta_probe_joins as u64,
    ]
}

/// Recorded counters per `(program, configuration)`.
///
/// A full-R index is synced only before a probe, and each IDB is derived
/// by one stratum, so a stratum's last merge is never appended: `cc`'s
/// `cc(x) :- cc2(_, x)` stratum and `ntc`'s `node` and `ntc` strata (7, 24
/// and 401 rows) never are. A recursive stratum's first pass evaluates
/// its exit rules. A subquery whose ∆ is empty does not run, and an IDB
/// none of whose subqueries runs is not stepped: `mutual`'s `b` on the
/// first pass (`a`'s ∆ is still empty), and `a` on the second and on a
/// later one, each time `b`'s ∆ is empty; TC's, SG's and nonlinear TC's ∆ subqueries on
/// their first pass (only `no_uie`, which counts queries per subquery,
/// shows those). A one-scan exit rule that reads a strict subset of its
/// columns reads one row per distinct key off the index a ∆ subquery
/// builds (or one resident): `cc3(x, MIN(x)) :- arc(x, _)` reads 19 rows
/// for 48 arcs, and `ntc`'s `node(x) :- arc(x, y)` reads the 19 of the
/// `arc` index TC's stratum built, but not under `no_index_reuse`. `cc`'s
/// exit groups drain lowest-first, as later ones do.
#[rustfmt::skip]
const PINS: &[(&str, &str, [u64; 18])] = &[
    ("tc", "default", [7, 14, 353, 7, 7, 0, 0, 0, 0, 178, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("tc", "no_fused_pipeline", [7, 14, 353, 7, 0, 0, 0, 0, 5648, 0, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("tc", "no_fused_agg", [7, 14, 353, 7, 7, 0, 0, 0, 0, 178, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("tc", "no_index_reuse", [7, 21, 353, 0, 0, 0, 0, 0, 5648, 0, 7, 0, 0, 0, 6, 2800, 1, 0]),
    ("tc", "no_uie", [7, 21, 353, 7, 0, 0, 0, 0, 5648, 0, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("tc", "no_eost", [7, 14, 353, 7, 0, 0, 0, 0, 5648, 0, 1, 6, 48, 175, 7, 11248, 18, 6]),
    ("tc", "oof_full", [7, 14, 353, 7, 7, 0, 0, 0, 0, 178, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("tc", "oof_none", [7, 14, 353, 7, 7, 0, 0, 0, 0, 178, 1, 6, 48, 175, 7, 2800, 1, 6]),
    ("nonlinear_tc", "default", [5, 10, 959, 5, 5, 0, 0, 0, 0, 784, 1, 4, 46, 175, 5, 2800, 1, 0]),
    ("nonlinear_tc", "no_fused_pipeline", [5, 10, 959, 5, 0, 0, 0, 0, 15344, 0, 1, 4, 46, 175, 5, 2800, 1, 0]),
    ("nonlinear_tc", "no_fused_agg", [5, 10, 959, 5, 5, 0, 0, 0, 0, 784, 1, 4, 46, 175, 5, 2800, 1, 0]),
    ("nonlinear_tc", "no_index_reuse", [5, 15, 959, 0, 0, 0, 0, 0, 15344, 0, 5, 0, 0, 0, 5, 2800, 1, 0]),
    ("nonlinear_tc", "no_uie", [5, 23, 959, 5, 0, 0, 0, 0, 15344, 0, 1, 4, 46, 175, 5, 2800, 1, 0]),
    ("nonlinear_tc", "no_eost", [5, 10, 959, 5, 0, 0, 0, 0, 15344, 0, 1, 4, 46, 175, 5, 20944, 13, 0]),
    ("nonlinear_tc", "oof_full", [5, 10, 959, 5, 5, 0, 0, 0, 0, 784, 1, 4, 46, 175, 5, 2800, 1, 0]),
    ("nonlinear_tc", "oof_none", [5, 10, 959, 5, 5, 0, 0, 0, 0, 784, 1, 4, 46, 304, 5, 2800, 1, 0]),
    ("mutual", "default", [7, 22, 1439, 11, 11, 0, 0, 0, 0, 1089, 2, 8, 48, 348, 11, 5600, 2, 4]),
    ("mutual", "no_fused_pipeline", [7, 22, 1439, 11, 0, 0, 0, 0, 23024, 0, 2, 8, 48, 348, 11, 5600, 2, 4]),
    ("mutual", "no_fused_agg", [7, 22, 1439, 11, 11, 0, 0, 0, 0, 1089, 2, 8, 48, 348, 11, 5600, 2, 4]),
    ("mutual", "no_index_reuse", [7, 33, 1439, 0, 0, 0, 0, 0, 23024, 0, 11, 0, 0, 0, 11, 5600, 2, 0]),
    ("mutual", "no_uie", [7, 49, 1439, 11, 0, 0, 0, 0, 23024, 0, 2, 8, 48, 348, 11, 5600, 2, 4]),
    ("mutual", "no_eost", [7, 22, 1439, 11, 0, 0, 0, 0, 23024, 0, 2, 8, 48, 348, 11, 34224, 29, 4]),
    ("mutual", "oof_full", [7, 22, 1439, 11, 11, 0, 0, 0, 0, 1089, 2, 8, 48, 348, 11, 5600, 2, 4]),
    ("mutual", "oof_none", [7, 22, 1439, 11, 11, 0, 0, 0, 0, 1089, 2, 8, 144, 427, 11, 5600, 2, 4]),
    ("sg", "default", [6, 12, 1575, 6, 6, 0, 0, 0, 0, 1094, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("sg", "no_fused_pipeline", [6, 12, 2071, 6, 0, 0, 0, 0, 33136, 0, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("sg", "no_fused_agg", [6, 12, 1575, 6, 6, 0, 0, 0, 0, 1094, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("sg", "no_index_reuse", [6, 18, 2071, 0, 0, 0, 0, 0, 33136, 0, 6, 0, 0, 0, 6, 7696, 1, 0]),
    ("sg", "no_uie", [6, 18, 2071, 6, 0, 0, 0, 0, 33136, 0, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("sg", "no_eost", [6, 12, 2071, 6, 0, 0, 0, 0, 33136, 0, 1, 5, 48, 481, 6, 48528, 16, 11]),
    ("sg", "oof_full", [6, 12, 1575, 6, 6, 0, 0, 0, 0, 1094, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("sg", "oof_none", [6, 12, 1575, 6, 6, 0, 0, 0, 0, 1094, 1, 5, 48, 481, 6, 7696, 1, 11]),
    ("cc", "default", [9, 18, 119, 1, 1, 8, 95, 49, 0, 17, 1, 0, 48, 0, 1, 824, 3, 6]),
    ("cc", "no_fused_pipeline", [9, 19, 119, 0, 0, 8, 95, 49, 192, 0, 0, 0, 48, 0, 1, 824, 3, 6]),
    ("cc", "no_fused_agg", [9, 18, 119, 1, 1, 0, 0, 0, 1520, 17, 1, 0, 48, 0, 1, 824, 3, 6]),
    ("cc", "no_index_reuse", [9, 19, 148, 0, 0, 8, 124, 49, 192, 0, 0, 0, 0, 0, 1, 824, 3, 0]),
    ("cc", "no_uie", [9, 28, 119, 0, 0, 0, 0, 0, 1712, 0, 0, 0, 48, 0, 1, 824, 3, 6]),
    ("cc", "no_eost", [9, 19, 119, 0, 0, 0, 0, 0, 1712, 0, 0, 0, 48, 0, 1, 3432, 20, 6]),
    ("cc", "oof_full", [9, 18, 119, 1, 1, 8, 95, 49, 0, 17, 1, 0, 48, 0, 1, 824, 3, 6]),
    ("cc", "oof_none", [9, 18, 119, 1, 1, 8, 95, 49, 0, 17, 1, 0, 48, 0, 1, 824, 3, 6]),
    ("count_sum", "default", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "no_fused_pipeline", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "no_fused_agg", [1, 2, 48, 0, 0, 0, 0, 0, 1152, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "no_index_reuse", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "no_uie", [1, 3, 48, 0, 0, 0, 0, 0, 1152, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "no_eost", [1, 2, 48, 0, 0, 0, 0, 0, 1152, 0, 0, 0, 0, 0, 0, 2064, 3, 0]),
    ("count_sum", "oof_full", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("count_sum", "oof_none", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 456, 1, 0]),
    ("min_group", "default", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "no_fused_pipeline", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "no_fused_agg", [1, 2, 48, 0, 0, 0, 0, 0, 768, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "no_index_reuse", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "no_uie", [1, 3, 48, 0, 0, 0, 0, 0, 768, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "no_eost", [1, 2, 48, 0, 0, 0, 0, 0, 768, 0, 0, 0, 0, 0, 0, 1376, 3, 0]),
    ("min_group", "oof_full", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("min_group", "oof_none", [1, 2, 48, 0, 0, 1, 48, 19, 0, 0, 0, 0, 0, 0, 0, 304, 1, 0]),
    ("ntc", "default", [9, 18, 821, 9, 9, 0, 0, 0, 0, 221, 3, 6, 223, 175, 9, 9408, 3, 6]),
    ("ntc", "no_fused_pipeline", [9, 20, 821, 7, 0, 0, 0, 0, 12600, 0, 1, 6, 223, 175, 9, 9408, 3, 6]),
    ("ntc", "no_fused_agg", [9, 18, 821, 9, 9, 0, 0, 0, 0, 221, 3, 6, 223, 175, 9, 9408, 3, 6]),
    ("ntc", "no_index_reuse", [9, 27, 850, 0, 0, 0, 0, 0, 12832, 0, 7, 0, 0, 0, 8, 9408, 3, 0]),
    ("ntc", "no_uie", [9, 31, 821, 7, 0, 0, 0, 0, 12600, 0, 1, 6, 223, 175, 9, 9408, 3, 6]),
    ("ntc", "no_eost", [9, 20, 821, 7, 0, 0, 0, 0, 12600, 0, 1, 6, 223, 175, 9, 38024, 26, 6]),
    ("ntc", "oof_full", [9, 18, 821, 9, 9, 0, 0, 0, 0, 221, 3, 6, 223, 175, 9, 9408, 3, 6]),
    ("ntc", "oof_none", [9, 18, 821, 9, 9, 0, 0, 0, 0, 221, 3, 6, 223, 175, 9, 9408, 3, 6]),
];

/// Full-R index work must show up in the phase breakdown: persistent
/// indexes under `phase.index`, and the per-iteration set-difference
/// tables of the `--no-index-reuse` arm under `phase.setdiff`.
fn assert_index_time_booked(cfg: &Config, s: &EvalStats, what: &str) {
    if s.index.full_builds + s.index.full_appends == 0 {
        return;
    }
    let booked = if cfg.index_reuse {
        s.phase.index
    } else {
        s.phase.setdiff
    };
    assert!(booked > Duration::ZERO, "{what}: index work booked nowhere");
}

#[test]
fn every_step_path_keeps_its_rows_and_counters() {
    let edges = edges();
    let mut mismatches = Vec::new();
    for (prog_name, src) in PROGRAMS {
        let mut reference: Option<Rows> = None;
        for cfg_name in CONFIGS {
            let cfg = config(cfg_name);
            let engine = Engine::from_config(cfg.clone()).unwrap();
            let prog = engine.prepare(src).unwrap();
            let names: Vec<String> = prog
                .compiled()
                .relations
                .iter()
                .filter(|d| d.is_idb)
                .map(|d| d.name.clone())
                .collect();
            let mut db = Database::new().unwrap();
            db.load_edges("arc", &edges).unwrap();
            let stats = prog.run(&mut db).unwrap();
            let rows: Rows = names
                .iter()
                .map(|n| (n.clone(), sorted_rows(db.relation(n))))
                .collect();
            match &reference {
                None => reference = Some(rows),
                Some(want) => assert_eq!(&rows, want, "{prog_name} / {cfg_name}: rows differ"),
            }
            let what = format!("{prog_name} / {cfg_name}");
            assert_index_time_booked(&cfg, &stats, &what);
            let got = counters(&stats);
            let pinned = PINS
                .iter()
                .find(|(p, c, _)| *p == prog_name && *c == cfg_name)
                .map(|(_, _, v)| *v);
            if pinned != Some(got) {
                mismatches.push(format!("    (\"{prog_name}\", \"{cfg_name}\", {got:?}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "counters differ from the recorded pins; observed:\n{}",
        mismatches.join("\n")
    );
}

/// A refresh books its maintenance work under its phases, each interval
/// once: the phase sum is positive and within the refresh's wall time,
/// and B/F's proof search, which runs outside a ∆ stream, shows up
/// under `phase.eval`.
fn assert_refresh_time_booked(s: &EvalStats) {
    let p = &s.phase;
    let booked = p.eval
        + p.pipeline
        + p.dedup
        + p.setdiff
        + p.aggregate
        + p.merge
        + p.analyze
        + p.index
        + p.io
        + p.pbme;
    assert!(booked > Duration::ZERO, "refresh booked no phase");
    assert!(
        booked <= s.total,
        "phases {booked:?} exceed the refresh's {:?}",
        s.total
    );
    if s.view.view_bf_strata > 0 {
        assert!(p.eval > Duration::ZERO, "maintenance passes booked no eval");
    }
    if s.view.view_matrix_strata > 0 {
        assert!(p.pbme > Duration::ZERO, "the matrix route booked no pbme");
    }
}

const VIEW_PROGRAM: &str = "tc(x, y) :- arc(x, y).\n\
                            tc(x, y) :- tc(x, z), arc(z, y).\n\
                            hop(x, y) :- tc(x, z), brc(z, y).";

/// `view.{view_refreshes, view_seeded_strata, view_bf_strata,
/// view_matrix_strata, view_fallbacks, view_tuples_seeded,
/// view_tuples_retracted},
/// tuples_considered, index.{full_builds, full_appends, build_rows,
/// append_rows}, delta_probe_joins`.
fn view_counters(s: &EvalStats) -> [u64; 13] {
    let v = &s.view;
    [
        v.view_refreshes,
        v.view_seeded_strata,
        v.view_bf_strata,
        v.view_matrix_strata,
        v.view_fallbacks,
        v.view_tuples_seeded,
        v.view_tuples_retracted,
        s.tuples_considered as u64,
        s.index.full_builds as u64,
        s.index.full_appends as u64,
        s.index.build_rows as u64,
        s.index.append_rows as u64,
        s.delta_probe_joins as u64,
    ]
}

/// Recorded refresh counters: an `arc` insert (∆-seeded `tc` and `hop`),
/// an `arc` delete (`tc`'s dead set off the closure matrix, `hop` by
/// Backward/Forward), and a `brc` insert (∆-seeded `hop` only). The view
/// is created through PBME, which carries no index for `tc`, so the
/// insert builds three full-R indexes: `tc`'s over its 175 rows among
/// them.
const VIEW_PINS: [[u64; 13]; 3] = [
    [1, 2, 0, 0, 0, 29, 0, 371, 3, 6, 458, 160, 7],
    [1, 0, 1, 1, 0, 0, 154, 0, 2, 0, 238, 0, 0],
    [1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 31, 0, 0],
];

#[test]
fn view_refresh_paths_keep_their_counters() {
    let engine = Engine::from_config(Config::default().threads(2)).unwrap();
    let prog = Arc::new(engine.prepare(VIEW_PROGRAM).unwrap());
    let mut db = Database::new().unwrap();
    db.load_edges("arc", &edges()).unwrap();
    db.load_edges("brc", &[(0, 30), (5, 31), (9, 32)]).unwrap();
    let mut view = MaterializedView::create(Arc::clone(&prog), &db).unwrap();
    assert!(view.incremental());

    let arc_insert = vec![(
        "arc".to_string(),
        vec![vec![23, 40], vec![40, 41], vec![41, 3]],
    )];
    let (x, y) = edges()[0];
    let arc_delete = vec![("arc".to_string(), vec![vec![x, y], vec![40, 41]])];
    let brc_insert = vec![("brc".to_string(), vec![vec![41, 33], vec![2, 34]])];
    let commits = [
        (arc_insert.clone(), Vec::new()),
        (Vec::new(), arc_delete),
        (brc_insert, Vec::new()),
    ];
    let mut observed = Vec::new();
    for (inserts, deletes) in &commits {
        let mut tx = db.transaction();
        for (name, rows) in inserts {
            tx.load_rows(name, 2, rows.iter().map(Vec::as_slice))
                .unwrap();
        }
        for (name, rows) in deletes {
            tx.delete_rows(name, 2, rows.iter().map(Vec::as_slice))
                .unwrap();
        }
        tx.commit().unwrap();
        view.refresh(&db, inserts, deletes).unwrap();

        let scratch = prog.run_shared(&db).unwrap();
        let out = view.output();
        for rel in ["tc", "hop"] {
            assert_eq!(
                sorted_rows(out.relation(rel)),
                sorted_rows(scratch.relation(rel)),
                "view diverged on {rel}"
            );
        }
        let stats = view.stats();
        assert_index_time_booked(prog.engine().config(), stats, "view refresh");
        assert_refresh_time_booked(stats);
        observed.push(view_counters(stats));
    }
    assert_eq!(observed, VIEW_PINS, "refresh counters differ from the pins");
}
