//! The metric tables, read from `BENCHMARK.json`, and the collection a
//! run fills. The file at the repository root is the one place that names
//! every workload, metric, unit, direction and bound; it is compiled in, so
//! the result line, the comparison and the driver cannot disagree.

use crate::json::Json;
use crate::util::Res;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct Tables {
    pub workloads: Vec<String>,
    /// Measuring time of one run, the default of `--seconds`.
    pub run_seconds: f64,
    /// Gated; measured with tracing off; defined on every workload.
    pub end_to_end: Vec<EndToEnd>,
    /// `(name, unit)` of the traced run's metrics, named after the
    /// modules. A layer a workload does not exercise reports 0.
    pub per_layer: Vec<(String, String)>,
}

impl Tables {
    pub fn load() -> Res<Tables> {
        let doc = Json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let rows = |key: &str| -> Res<&[Json]> {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" array"))
        };
        let text = |row: &Json, key: &str| -> Res<String> {
            row.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("BENCHMARK.json: an entry has no \"{key}\""))
        };
        let mut end_to_end = Vec::new();
        for row in rows("end_to_end")? {
            end_to_end.push(EndToEnd {
                name: text(row, "name")?,
                unit: text(row, "unit")?,
                better: match text(row, "better")?.as_str() {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better \"{other}\"")),
                },
                bound: row
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric has no bound")?,
            });
        }
        Ok(Tables {
            workloads: rows("workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Res<_>>()?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end,
            per_layer: rows("per_layer")?
                .iter()
                .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
                .collect::<Res<_>>()?,
        })
    }
}

/// What one run measured, in the order it was measured.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.items.push((name.into(), value, unit));
    }

    /// A timing's median as `<stem>_s` and its sample count as
    /// `<stem>_samples`; the samples themselves go out as a comment line.
    pub fn put_median_s(&mut self, stem: &str, secs: &[f64]) {
        let median = crate::util::median(secs).expect("a timing has at least one sample");
        self.put(format!("{stem}_s"), median, "s");
        self.put(format!("{stem}_samples"), secs.len() as f64, "count");
        println!("# {stem}_s samples {secs:.3?}");
    }

    /// `peak_rss_mb`: `VmHWM` of this process now. Workloads call it when
    /// measuring ends, before the traced run's replay kernels allocate.
    pub fn put_peak_rss(&mut self) -> Res<()> {
        let rss = crate::util::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        self.put("peak_rss_mb", rss, "MiB");
        Ok(())
    }

    /// Value and unit as measured.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.items.iter().find(|m| m.0 == name).map(|m| (m.1, m.2))
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.items.iter()
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: batch iterations and checks, or requests.
    pub attempted: u64,
    /// Of those, failed: errors, wrong outputs, refused requests.
    pub failed: u64,
}
