//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from outside the program (start and end instants the
//! harness took anyway), kept in a vector and written once when the run
//! ends. A span's self time is its duration minus the part of its interval
//! that its children cover.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::util::{ctx, Res};

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Cold iteration or serve round the span belongs to.
    pub iteration: u32,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Time spent inside `record`.
    cost: Duration,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Record one finished span; returns its index for children to name
    /// as parent (`None` when tracing is off — nothing is kept).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        iteration: u32,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let entered = Instant::now();
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            iteration,
        });
        self.cost += entered.elapsed();
        Some(self.spans.len() - 1)
    }

    /// What tracing cost: time spent recording spans as a share of the
    /// time the root spans cover. Spans are made from instants the harness
    /// takes anyway and recorded between timed pairs, never inside one, so
    /// this is all a traced run adds; compare `wall_s` of a traced and an
    /// untraced run to see that nothing else moved.
    pub fn overhead_frac(&self) -> f64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        self.cost.as_nanos() as f64 / covered.max(1) as f64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> Res<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            ctx("create trace dir", std::fs::create_dir_all(dir))?;
        }
        let file = ctx("create trace file", std::fs::File::create(path))?;
        let mut w = std::io::BufWriter::new(file);
        ctx(
            "write trace",
            writeln!(w, "id\tname\tstart_ns\tend_ns\tparent\titeration"),
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            ctx(
                "write trace",
                writeln!(
                    w,
                    "{i}\t{}\t{}\t{}\t{parent}\t{}",
                    s.name, s.start_ns, s.end_ns, s.iteration
                ),
            )?;
        }
        ctx("flush trace", w.flush())
    }
}

/// Per span name: `(count, total_ns, self_ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total - covered(kids, s.start_ns, s.end_ns);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`: concurrent
/// children (two clients under one round) must not be subtracted twice.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut sum = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            sum += b - a;
            reach = b;
        }
    }
    sum
}
