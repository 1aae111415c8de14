//! Small shared pieces: order statistics, the seeded generator, checksums,
//! the work directory and process-level readings.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use recstep::{RelHandle, Value};
use recstep_common::hash::mix64;

use crate::metrics::Metrics;

/// Harness failure: a message for the operator. Engine and I/O errors are
/// carried as text because nothing here branches on their kind.
pub type Res<T> = Result<T, String>;

/// `map_err` shorthand turning any displayable error into [`Res`]'s text.
pub fn ctx<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank: the smallest sample with
/// at least `q·n` samples at or below it. `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median: the mean of the two middle samples for an even count, so a
/// two-sample median is not biased towards the faster one.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Quartiles `(q1, q3)` by the exclusive method — the values Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver
/// uses for the spread of a metric. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // As Python does: the offset is taken after clamping, so the ends
        // of a very small sample extrapolate.
        let frac = (pos as f64 - 4.0 * j as f64) / 4.0;
        sorted[j - 1] * (1.0 - frac) + sorted[j] * frac
    };
    Some((at(1), at(3)))
}

/// Run `body` until `budget` has passed and it has run `min` times;
/// returns how often it ran.
pub fn repeat_for(
    budget: Duration,
    min: usize,
    mut body: impl FnMut(usize) -> Res<()>,
) -> Res<usize> {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        body(n)?;
        n += 1;
    }
    Ok(n)
}

/// Set up repeatedly — for a second, at least three times — and report
/// the median as `setup_s`: a set-up of tens of milliseconds measured once
/// is decided by one slow file write. Keeps the last set-up; an earlier
/// one is dropped (a server shuts down) outside the timed part.
pub fn timed_setups<T>(m: &mut Metrics, mut set_up: impl FnMut(usize) -> Res<T>) -> Res<T> {
    let mut times = Vec::new();
    let mut kept = None;
    repeat_for(Duration::from_secs(1), 3, |rep| {
        drop(kept.take());
        let t = Instant::now();
        let made = set_up(rep)?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(made);
        Ok(())
    })?;
    m.put_median_s("setup", &times);
    Ok(kept.expect("at least three set-ups"))
}

/// splitmix64 stream: the schedule and the relabelling need a generator
/// whose output is fixed by this file, not by the `rand` stand-in crate.
pub struct Rng(u64);

impl Rng {
    /// Stream for `seed`, decorrelated per `stream` (client, round, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(
            seed ^ mix64(stream.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// ranges used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn row_hash(values: impl Iterator<Item = Value>) -> u64 {
    values.fold(0x243f_6a88_85a3_08d3, |h, v| mix64(h ^ v as u64))
}

/// Row count and order-independent checksum of a relation: the wrapping
/// sum of per-row hashes, read through the zero-copy column slices.
pub fn scan_relation(rel: &RelHandle<'_>) -> (usize, u64) {
    let cols: Vec<&[Value]> = (0..rel.arity()).map(|c| rel.col(c)).collect();
    let sum = (0..rel.len()).fold(0u64, |acc, r| {
        acc.wrapping_add(row_hash(cols.iter().map(|c| c[r])))
    });
    (rel.len(), sum)
}

/// The same checksum over owned rows (the naive oracle's output).
pub fn checksum_rows<'a>(rows: impl Iterator<Item = &'a [Value]>) -> (usize, u64) {
    rows.fold((0, 0u64), |(n, acc), row| {
        (n + 1, acc.wrapping_add(row_hash(row.iter().copied())))
    })
}

/// Order-dependent fingerprint of generated input relations: a generator
/// edit that changes any value or its position changes this.
pub fn fingerprint(relations: &[(&str, &[(Value, Value)])]) -> u64 {
    let mut h = 0x1319_8a2e_0370_7344u64;
    for (name, edges) in relations {
        for b in name.bytes() {
            h = mix64(h ^ b as u64);
        }
        for &(a, b) in edges.iter() {
            h = mix64(mix64(h ^ a as u64) ^ b as u64);
        }
    }
    h
}

/// Write a binary relation as a tab-separated `.facts` file.
pub fn write_facts(path: &Path, edges: &[(Value, Value)]) -> Res<()> {
    use std::io::Write;
    let file = ctx("create facts file", std::fs::File::create(path))?;
    let mut w = std::io::BufWriter::new(file);
    for (a, b) in edges {
        ctx("write facts", writeln!(w, "{a}\t{b}"))?;
    }
    ctx("flush facts", w.flush())
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`; `None` where the file or the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A process-unique directory under the build output directory of the
/// checkout, removed on drop. Everything the benchmark writes — `.facts`
/// files, the server's data dir, the engine's simulated store (through
/// `TMPDIR`) — lands here, so a run leaves nothing behind and two runs
/// never share a file.
pub struct WorkDir {
    path: PathBuf,
}

/// Build-output root: where the driver told Cargo to build, else a
/// directory of the same name in the current directory.
pub fn output_root() -> PathBuf {
    let root = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    root.join("perfbench")
}

impl WorkDir {
    pub fn create() -> Res<WorkDir> {
        let path = output_root().join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ctx("create work dir", std::fs::create_dir_all(&path))?;
        let path = ctx("resolve work dir", path.canonicalize())?;
        // `Database::new` places its simulated store under the system
        // temp dir; keep that inside the checkout too.
        std::env::set_var("TMPDIR", &path);
        Ok(WorkDir { path })
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, name: &str) -> Res<PathBuf> {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        ctx("create subdir", std::fs::create_dir_all(&p))?;
        Ok(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
