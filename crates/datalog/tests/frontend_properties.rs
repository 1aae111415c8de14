//! Property tests of the frontend: total parsing (no panics on arbitrary
//! input or on mutated programs), display/parse roundtrips, and
//! stratification invariants.

use proptest::prelude::*;
use recstep_datalog::analyze::{analyze, Analysis};
use recstep_datalog::parser::parse;
use recstep_datalog::plan::{compile, CompiledProgram};
use recstep_datalog::programs;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The parser is total: any byte soup yields Ok or Err, never a panic.
    #[test]
    fn parser_never_panics(src in "\\PC{0,120}") {
        let _ = parse(&src);
    }

    /// Same for strings biased towards Datalog-ish token soup.
    #[test]
    fn parser_never_panics_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("tc".to_string()),
                Just("arc".to_string()),
                Just("(".to_string()),
                Just(")".to_string()),
                Just(",".to_string()),
                Just(":-".to_string()),
                Just(".".to_string()),
                Just("!".to_string()),
                Just("x".to_string()),
                Just("1".to_string()),
                Just("MIN".to_string()),
                Just("+".to_string()),
                Just("<=".to_string()),
                Just("_".to_string()),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        if let Ok(prog) = parse(&src) {
            // Whatever parses must also be displayable and re-parseable.
            for rule in &prog.rules {
                let rendered = rule.display();
                prop_assert!(parse(&rendered).is_ok(), "re-parse failed: {rendered}");
            }
        }
    }

    /// Stratification invariants on random chain programs: every rule lands
    /// in exactly one stratum, and each body predicate's defining rules are
    /// in the same or an earlier stratum.
    #[test]
    fn stratification_invariants(n_rules in 1usize..8, recursive in any::<bool>()) {
        let mut src = String::new();
        for i in 0..n_rules {
            let body = if i == 0 { "e(x, y)".to_string() } else { format!("r{}(x, y)", i - 1) };
            src.push_str(&format!("r{i}(x, y) :- {body}.\n"));
        }
        if recursive {
            src.push_str(&format!("r0(x, y) :- r{}(x, z), e(z, y).\n", n_rules - 1));
        }
        let analysis = analyze(parse(&src).unwrap()).unwrap();
        let total: usize = analysis.strata.iter().map(|s| s.rules.len()).sum();
        prop_assert_eq!(total, analysis.program.rules.len());
        // Position of each rule's stratum.
        let mut stratum_of = vec![usize::MAX; analysis.program.rules.len()];
        for (si, s) in analysis.strata.iter().enumerate() {
            for &r in &s.rules {
                prop_assert_eq!(stratum_of[r], usize::MAX, "rule in two strata");
                stratum_of[r] = si;
            }
        }
        for (ri, rule) in analysis.program.rules.iter().enumerate() {
            for atom in rule.positive_atoms() {
                for (di, def) in analysis.program.rules.iter().enumerate() {
                    if def.head.pred == atom.pred {
                        prop_assert!(
                            stratum_of[di] <= stratum_of[ri],
                            "definition of {} later than use", atom.pred
                        );
                    }
                }
            }
        }
        if recursive {
            prop_assert!(analysis.strata.iter().any(|s| s.recursive));
        } else {
            prop_assert!(analysis.strata.iter().all(|s| !s.recursive));
        }
    }
}

/// Every benchmark program's text.
const PROGRAMS: [(&str, &str); 11] = [
    ("TC", programs::TC),
    ("SG", programs::SG),
    ("REACH", programs::REACH),
    ("CC", programs::CC),
    ("SSSP", programs::SSSP),
    ("ANDERSEN", programs::ANDERSEN),
    ("CSPA", programs::CSPA),
    ("CSDA", programs::CSDA),
    ("NTC", programs::NTC),
    ("GTC", programs::GTC),
    ("TRIANGLE", programs::TRIANGLE),
];

/// Each IDB is derived by exactly one compiled stratum, whose subqueries
/// for it come from every rule with it as head.
fn assert_one_stratum_per_idb(analysis: &Analysis, compiled: &CompiledProgram, what: &str) {
    for name in compiled.idb_names() {
        let owners: Vec<_> = compiled
            .strata
            .iter()
            .flat_map(|s| &s.idbs)
            .filter(|idb| idb.rel == name)
            .collect();
        assert_eq!(
            owners.len(),
            1,
            "{what}: '{name}' derived by {} strata",
            owners.len()
        );
        let mut from: Vec<usize> = owners[0].subqueries.iter().map(|sq| sq.rule_idx).collect();
        from.dedup();
        let rules: Vec<usize> = (0..analysis.program.rules.len())
            .filter(|&r| analysis.program.rules[r].head.pred == name)
            .collect();
        assert_eq!(from, rules, "{what}: '{name}' misses some of its rules");
    }
}

/// Parse, analyze and compile `src`; `None` at the first error.
fn frontend(src: &str) -> Option<(Analysis, CompiledProgram)> {
    let analysis = analyze(parse(src).ok()?).ok()?;
    let compiled = compile(&analysis).ok()?;
    Some((analysis, compiled))
}

#[test]
fn every_benchmark_program_derives_each_idb_in_one_stratum() {
    for (name, src) in PROGRAMS {
        let (analysis, compiled) = frontend(src).expect(name);
        assert_one_stratum_per_idb(&analysis, &compiled, name);
    }
    // The shapes rule-level strata used to split: an IDB's exit rules
    // share its recursive stratum, and a union's rules share one pass.
    let stratum_of = |src: &str, idb: &str| {
        let (_, compiled) = frontend(src).unwrap();
        let s = compiled
            .strata
            .into_iter()
            .find(|s| s.idbs.iter().any(|i| i.rel == idb))
            .unwrap();
        let rels: Vec<String> = s.idbs.iter().map(|i| i.rel.clone()).collect();
        let exits = s
            .idbs
            .iter()
            .flat_map(|i| &i.subqueries)
            .filter(|sq| sq.delta_scan.is_none())
            .count();
        (s.recursive, rels, exits)
    };
    let one = |rels: &[&str]| rels.iter().map(|r| r.to_string()).collect::<Vec<_>>();
    assert_eq!(stratum_of(programs::TC, "tc"), (true, one(&["tc"]), 1));
    assert_eq!(stratum_of(programs::SG, "sg"), (true, one(&["sg"]), 1));
    assert_eq!(stratum_of(programs::CC, "cc3"), (true, one(&["cc3"]), 1));
    assert_eq!(
        stratum_of(programs::CSPA, "valueFlow"),
        (true, one(&["valueFlow", "memoryAlias", "valueAlias"]), 5)
    );
    assert_eq!(
        stratum_of(programs::NTC, "node"),
        (false, one(&["node"]), 2)
    );
}

/// A deterministic generator (64-bit LCG, high bits out).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }
}

/// One hostile edit of `src`: a byte flip, a truncation, a deleted or
/// duplicated line, or an inserted `(`, `)`, `!` or `MIN(`.
fn mutate(src: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut out = src.to_vec();
    let at = rng.below(out.len() + 1);
    match rng.below(5) {
        0 if !out.is_empty() => {
            let i = at.min(out.len() - 1);
            out[i] ^= 1 << rng.below(8);
        }
        1 => out.truncate(at),
        2 | 3 => {
            let lines: Vec<&[u8]> = src.split(|&b| b == b'\n').collect();
            let l = rng.below(lines.len());
            let mut edited: Vec<&[u8]> = lines.clone();
            if rng.below(2) == 0 {
                edited.remove(l);
            } else {
                edited.insert(l, lines[l]);
            }
            out = edited.join(&b'\n');
        }
        _ => {
            let token: &[u8] = [&b"("[..], b")", b"!", b"MIN("][rng.below(4)];
            out.splice(at..at, token.iter().copied());
        }
    }
    out
}

/// The frontend survives hostile text: every seeded mutant of every
/// benchmark program (one to three edits each) parses, analyzes and
/// compiles to `Ok` or `Err`, never a panic, and whatever compiles still
/// derives each IDB in exactly one stratum.
#[test]
fn mutated_programs_never_panic_the_frontend() {
    let mut rng = Lcg(42);
    let mut compiled = 0;
    for (name, src) in PROGRAMS {
        for _ in 0..300 {
            let mut bytes = src.as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                bytes = mutate(&bytes, &mut rng);
            }
            let text = String::from_utf8_lossy(&bytes).into_owned();
            let run = std::panic::catch_unwind(|| frontend(&text));
            let Ok(outcome) = run else {
                panic!("{name}: the frontend panicked on {text:?}");
            };
            if let Some((analysis, program)) = outcome {
                assert_one_stratum_per_idb(&analysis, &program, &text);
                compiled += 1;
            }
        }
    }
    // The loop must reach the planner, not only the parser's errors.
    assert!(compiled > 100, "only {compiled} mutants compiled");
}
