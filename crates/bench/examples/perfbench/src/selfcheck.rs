//! `--self-check`: the harness's own arithmetic, checked in well under five
//! seconds. A package of its own carries no `cargo test` target in the
//! repository's test run, so the checks live behind a flag.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::compare::{verdict, Verdict};
use crate::json::Json;
use crate::metrics::{Better, Tables};
use crate::serve_mix::{Client, Kind};
use crate::trace::{self_times, Tracer};
use crate::util::{checksum_rows, median, percentile, quartiles, Res, Rng};

struct Checks {
    passed: usize,
    failures: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what.to_string());
        }
    }
}

pub fn run(tables: &Tables) -> Res<bool> {
    let mut c = Checks {
        passed: 0,
        failures: Vec::new(),
    };
    order_statistics(&mut c);
    span_arithmetic(&mut c);
    checksums(&mut c);
    schedule(&mut c);
    verdicts(&mut c);
    json_round_trip(&mut c);
    benchmark_json(&mut c, tables);
    for f in &c.failures {
        eprintln!("self-check FAILED: {f}");
    }
    println!(
        "self-check: {} passed, {} failed",
        c.passed,
        c.failures.len()
    );
    Ok(c.failures.is_empty())
}

fn order_statistics(c: &mut Checks) {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    c.check(
        "p50 of 1..=10 is the 5th",
        percentile(&ten, 0.5) == Some(5.0),
    );
    c.check(
        "p95 of 1..=10 is the 10th",
        percentile(&ten, 0.95) == Some(10.0),
    );
    c.check("p0 is the minimum", percentile(&ten, 0.0) == Some(1.0));
    c.check("p100 is the maximum", percentile(&ten, 1.0) == Some(10.0));
    let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    c.check(
        "p95 of 100 unsorted is the 95th",
        percentile(&hundred, 0.95) == Some(95.0),
    );
    c.check("percentile of nothing", percentile(&[], 0.5).is_none());
    c.check(
        "median of an even count",
        median(&[4.0, 1.0, 3.0, 2.0]) == Some(2.5),
    );
    c.check(
        "median of an odd count",
        median(&[3.0, 1.0, 2.0]) == Some(2.0),
    );
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    c.check(
        "quartiles match Python's",
        quartiles(&ten) == Some((2.75, 8.25)),
    );
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] — extrapolates.
    c.check(
        "quartiles of two",
        quartiles(&[1.0, 2.0]) == Some((0.75, 2.25)),
    );
}

fn span_arithmetic(c: &mut Checks) {
    let mut t = Tracer::new(true);
    let t0 = Instant::now();
    let at = |ms: u64| t0 + Duration::from_millis(ms);
    // root 0..100; children 10..30 and 20..50 overlap (union 40), one
    // grandchild 25..45 under the second child.
    let root = t.record("root", None, 0, at(0), at(100));
    t.record("a", root, 0, at(10), at(30));
    let b = t.record("b", root, 0, at(20), at(50));
    t.record("leaf", b, 0, at(25), at(45));
    let times = self_times(t.spans());
    let ms = |name: &str| times.get(name).map(|x| (x.1 / 1_000_000, x.2 / 1_000_000));
    c.check("root self = 100 - union(40)", ms("root") == Some((100, 60)));
    c.check("leaf span is all self time", ms("leaf") == Some((20, 20)));
    c.check("b self = 30 - 20", ms("b") == Some((30, 10)));
    let mut off = Tracer::new(false);
    c.check(
        "a tracer that is off keeps nothing",
        off.record("x", None, 0, at(0), at(1)).is_none() && off.spans().is_empty(),
    );
}

fn checksums(c: &mut Checks) {
    let rows: Vec<Vec<i64>> = (0..500).map(|i| vec![i, i * 7 % 13, -i]).collect();
    let mut shuffled = rows.clone();
    Rng::new(7, 0).shuffle(&mut shuffled);
    let sum = |r: &[Vec<i64>]| checksum_rows(r.iter().map(Vec::as_slice));
    c.check("shuffle changed the order", rows != shuffled);
    c.check("checksum ignores row order", sum(&rows) == sum(&shuffled));
    shuffled[17][1] += 1;
    c.check(
        "checksum sees one changed value",
        sum(&rows) != sum(&shuffled),
    );
    let swapped: Vec<Vec<i64>> = rows.iter().map(|r| vec![r[1], r[0], r[2]]).collect();
    c.check("checksum sees swapped columns", sum(&rows) != sum(&swapped));
}

fn schedule(c: &mut Checks) {
    let initial: Arc<HashSet<(i64, i64)>> = Arc::new([(0, 1), (2, 3)].into_iter().collect());
    let play = |seed: u64, index: usize| {
        let mut client = Client::new(seed, index, Arc::clone(&initial));
        // Set-up leaves a backlog; without it a leading delete has nothing to undo.
        let mut ops = client.backlog();
        for _ in 0..3 {
            ops.extend(client.round());
        }
        ops
    };
    let a = play(42, 0);
    c.check("same seed, same schedule", a == play(42, 0));
    c.check("another seed, another schedule", a != play(43, 0));
    c.check("another client, another schedule", a != play(42, 1));
    let inserted: Vec<_> = a.iter().filter(|o| o.kind == Kind::Insert).collect();
    let deleted: Vec<_> = a.iter().filter(|o| o.kind == Kind::Delete).collect();
    c.check(
        "every delete undoes an earlier insert, oldest first",
        deleted.iter().zip(&inserted).all(|(d, i)| d.arcs == i.arcs),
    );
    c.check(
        "client 0 writes only even sources outside the initial graph",
        inserted
            .iter()
            .flat_map(|o| &o.arcs)
            .all(|a| a.0 % 2 == 0 && !initial.contains(a) && a.0 != a.1),
    );
}

fn verdicts(c: &mut Checks) {
    let steady = [1.00, 1.01, 0.99, 1.00, 1.02];
    let slower = [1.20, 1.21, 1.19, 1.20, 1.22];
    let noisy = [0.7, 1.3, 1.0, 0.6, 1.4];
    c.check(
        "20% slower is worse at a 10% bound",
        verdict(&steady, &slower, Better::Lower, 0.10) == Some(Verdict::Worse),
    );
    c.check(
        "20% slower is an improvement when higher is better",
        verdict(&steady, &slower, Better::Higher, 0.10) == Some(Verdict::WithinBound),
    );
    c.check(
        "1% apart is within bound",
        verdict(&steady, &[1.01; 5], Better::Lower, 0.10) == Some(Verdict::WithinBound),
    );
    c.check(
        "a spread over the bound is unresolved",
        verdict(&steady, &noisy, Better::Lower, 0.10) == Some(Verdict::Unresolved),
    );
}

fn json_round_trip(c: &mut Checks) {
    let text = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny\"z"}, "d": true, "e": null}"#;
    let doc = Json::parse(text);
    c.check("parses a document", doc.is_ok());
    if let Ok(doc) = doc {
        c.check(
            "re-parses its own output",
            Json::parse(&doc.to_string()).as_ref() == Ok(&doc),
        );
        c.check(
            "reads nested fields",
            doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str) == Some("x\ny\"z"),
        );
    }
    c.check("rejects trailing bytes", Json::parse("{} x").is_err());
    c.check("rejects an open string", Json::parse("\"abc").is_err());
}

/// `BENCHMARK.json` is compiled in; what it promises, this program must
/// be able to run and report.
fn benchmark_json(c: &mut Checks, tables: &Tables) {
    c.check(
        "every workload of BENCHMARK.json is one this program runs",
        tables
            .workloads
            .iter()
            .all(|w| w == "serve_mix" || crate::batch::BATCH.iter().any(|b| b.name == w)),
    );
    c.check(
        "setup_s is an end-to-end metric",
        tables.end_to_end.iter().any(|e| e.name == "setup_s"),
    );
    let mut names: Vec<&String> = tables
        .end_to_end
        .iter()
        .map(|e| &e.name)
        .chain(tables.per_layer.iter().map(|l| &l.0))
        .collect();
    let listed = names.len();
    names.sort();
    names.dedup();
    c.check("no metric is listed twice", names.len() == listed);
}
