//! `--compare A.json B.json`: one row per workload × metric, with both
//! medians, the ratio and its base, and a verdict for the gated metrics.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Tables};
use crate::util::{ctx, median, quartiles, Res};

/// `(workload, traced, metric)` → the values of every run in the file.
type Table = BTreeMap<(String, bool, String), Vec<f64>>;

/// The runs of one result file: their values, and one line per run with
/// the settings both sides of a comparison must share.
fn load(path: &Path) -> Res<(Table, Vec<String>)> {
    let text = ctx(
        &format!("read {}", path.display()),
        std::fs::read_to_string(path),
    )?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no \"runs\" array", path.display()))?;
    let mut table = Table::new();
    let mut settings = Vec::new();
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        let traced = run.get("trace") == Some(&Json::Bool(true));
        let setting = |key: &str| run.get(key).map_or("?".to_string(), Json::to_string);
        settings.push(format!(
            "{workload} seed {} seconds {} trace {traced} quick {} threads {}",
            setting("seed"),
            setting("seconds"),
            setting("quick"),
            setting("threads"),
        ));
        for (name, m) in run.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                table
                    .entry((workload.to_string(), traced, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    settings.sort();
    Ok((table, settings))
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    WithinBound,
    Worse,
    /// The run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

/// Spread of a sample: interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Judge `b` (the change) against `a` (the base) for a gated metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Option<Verdict> {
    let (ma, mb) = (median(a)?, median(b)?);
    let widest = spread(a).into_iter().chain(spread(b)).fold(0.0, f64::max);
    if widest > bound {
        return Some(Verdict::Unresolved);
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    Some(if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    })
}

pub fn run(a_path: &Path, b_path: &Path, tables: &Tables) -> Res<()> {
    let ((a, a_settings), (b, b_settings)) = (load(a_path)?, load(b_path)?);
    // Medians of different seeds, run lengths or thread counts differ for
    // reasons that are not the change.
    if let Some((x, y)) = a_settings.iter().zip(&b_settings).find(|(x, y)| x != y) {
        return Err(format!(
            "the files hold different runs: '{x}' against '{y}'"
        ));
    }
    if a_settings.len() != b_settings.len() {
        return Err(format!(
            "the files hold {} and {} runs",
            a_settings.len(),
            b_settings.len()
        ));
    }
    println!(
        "{:<10} {:<28} {:>14} {:>14} {:>9} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "B/A", "A iqr", "B iqr", "n"
    );
    let mut worse = 0;
    for ((workload, traced, metric), av) in &a {
        let Some(bv) = b.get(&(workload.clone(), *traced, metric.clone())) else {
            continue;
        };
        // End-to-end metrics are read from untraced runs only, layer
        // metrics from traced runs only; helper lines (sample counts) from both.
        let gate = tables.end_to_end.iter().find(|e| &e.name == metric);
        let layer = tables.per_layer.iter().any(|l| &l.0 == metric);
        if (gate.is_some() && *traced) || (layer && !*traced) {
            continue;
        }
        let (ma, mb) = (
            median(av).expect("non-empty"),
            median(bv).expect("non-empty"),
        );
        let verdict = gate.and_then(|g| verdict(av, bv, g.better, g.bound));
        if verdict == Some(Verdict::Worse) {
            worse += 1;
        }
        let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
        println!(
            "{:<10} {:<28} {:>14.6} {:>14.6} {:>9} {:>8} {:>8} {:>7}  {}",
            workload,
            metric,
            ma,
            mb,
            if ma != 0.0 {
                format!("{:.4}", mb / ma)
            } else {
                "-".to_string()
            },
            pct(spread(av)),
            pct(spread(bv)),
            format!("{}/{}", av.len(), bv.len()),
            match (verdict, gate) {
                (Some(Verdict::WithinBound), Some(g)) =>
                    format!("within bound ({:.0}%)", g.bound * 100.0),
                (Some(Verdict::Worse), Some(g)) => format!("worse (bound {:.0}%)", g.bound * 100.0),
                (Some(Verdict::Unresolved), Some(g)) =>
                    format!("unresolved (spread over {:.0}%)", g.bound * 100.0),
                _ => "-".to_string(),
            }
        );
    }
    println!(
        "ratios are B/A with A ({}) as the base; {worse} gated metric(s) worse",
        a_path.display()
    );
    Ok(())
}
