//! Set difference: OPSD, TPSD and the dynamic choice (DSD).
//!
//! Semi-naïve evaluation computes `∆R ← Rδ − R` for every IDB at every
//! iteration (Algorithm 1 line 12). The paper observes neither translation
//! dominates:
//!
//! * **OPSD** (one-phase, Algorithm 4): build a hash table on `R`, anti-probe
//!   with `Rδ`. Cost grows with `|R|` — and `R` only grows.
//! * **TPSD** (two-phase, Algorithm 5): build on the *smaller* of the two,
//!   compute the intersection `r`, then anti-probe `Rδ` against `r`. More
//!   operators, but never builds on `R`.
//!
//! **DSD** picks per iteration using the Appendix A cost model with
//! `α = C_build/C_probe` (Eq. 7; fixed at 2), `β = |R|/|Rδ|`, and
//! the previous iteration's `µ = |Rδ|/|r|` when the decision falls in the
//! grey zone `β ∈ (1, 2α/(α−1))`.

use recstep_common::Value;
use recstep_storage::RelView;

use crate::chain::ChainTable;
use crate::key::KeyMode;
use crate::util::{parallel_fill, parallel_produce};
use crate::ExecCtx;

/// The concrete algorithm executed for one set difference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetDiffAlgo {
    /// One-phase: build on `R`, anti-probe `Rδ`.
    Opsd,
    /// Two-phase: intersection first, then anti-probe `Rδ` against it.
    Tpsd,
}

/// Engine-level strategy (the DSD toggle of the Figure 2 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetDiffStrategy {
    /// Always one-phase.
    AlwaysOpsd,
    /// Always two-phase.
    AlwaysTpsd,
    /// Choose per iteration via the cost model (the paper's DSD).
    Dynamic,
}

/// Mutable DSD state carried across iterations of one IDB.
#[derive(Clone, Debug)]
pub struct DsdState {
    /// Build/probe cost ratio `α`.
    pub alpha: f64,
    /// `µ = |Rδ|/|r|` observed at the previous iteration (∞ when the last
    /// intersection was empty; `None` before any TPSD ran).
    pub prev_mu: Option<f64>,
    /// Cumulative hash tables built from scratch by set differences using
    /// this state (1 per OPSD, up to 2 per TPSD) — the rebuild-side
    /// counter of the rebuild-vs-incremental instrumentation.
    pub tables_built: usize,
}

impl DsdState {
    /// State with a given `α` and no observed `µ` yet.
    pub fn new(alpha: f64) -> Self {
        DsdState {
            alpha,
            prev_mu: None,
            tables_built: 0,
        }
    }
}

impl Default for DsdState {
    fn default() -> Self {
        // A build costs roughly twice a probe on chained tables.
        DsdState::new(2.0)
    }
}

/// Cost-model decision (Appendix A).
///
/// * `β ≤ 1` (R no bigger than Rδ): OPSD — Eq. (3) shows it always wins.
/// * `β ≥ 2α/(α−1)` (R much bigger): TPSD — Eq. (6) lower bound is positive.
/// * otherwise: sign of Eq. (5), `β(α−1) − (α + α/µ)`, using the previous
///   iteration's `µ` as the estimate; without one, stay with OPSD.
pub fn choose_algo(alpha: f64, beta: f64, prev_mu: Option<f64>) -> SetDiffAlgo {
    if beta <= 1.0 {
        return SetDiffAlgo::Opsd;
    }
    if alpha > 1.0 && beta >= 2.0 * alpha / (alpha - 1.0) {
        return SetDiffAlgo::Tpsd;
    }
    match prev_mu {
        Some(mu) if beta * (alpha - 1.0) > alpha + alpha / mu => SetDiffAlgo::Tpsd,
        _ => SetDiffAlgo::Opsd,
    }
}

/// Compute `Rδ − R`. `delta` (= `Rδ`) is assumed duplicate-free (Algorithm 1
/// deduplicates first); rows of the result preserve `delta`'s arity.
///
/// Returns the difference (column-major) and the algorithm actually used.
pub fn set_difference(
    ctx: &ExecCtx,
    delta: RelView<'_>,
    full: RelView<'_>,
    strategy: SetDiffStrategy,
    state: &mut DsdState,
) -> (Vec<Vec<Value>>, SetDiffAlgo) {
    assert_eq!(delta.arity(), full.arity());
    let arity = delta.arity();
    if delta.is_empty() {
        return (vec![Vec::new(); arity], SetDiffAlgo::Opsd);
    }
    if full.is_empty() {
        // Nothing to subtract.
        return (copy_view(ctx, delta), SetDiffAlgo::Opsd);
    }
    let algo = match strategy {
        SetDiffStrategy::AlwaysOpsd => SetDiffAlgo::Opsd,
        SetDiffStrategy::AlwaysTpsd => SetDiffAlgo::Tpsd,
        SetDiffStrategy::Dynamic => {
            let beta = full.len() as f64 / delta.len() as f64;
            choose_algo(state.alpha, beta, state.prev_mu)
        }
    };
    let cols: Vec<usize> = (0..arity).collect();
    let mode = KeyMode::for_views(delta, &cols, full, &cols);
    let out = match algo {
        SetDiffAlgo::Opsd => {
            state.tables_built += 1;
            anti_probe(ctx, delta, full, &mode, &cols)
        }
        SetDiffAlgo::Tpsd => {
            // Phase 1: r ← R ∩ Rδ, building on the smaller side.
            let (build, probe) = if delta.len() <= full.len() {
                (delta, full)
            } else {
                (full, delta)
            };
            state.tables_built += 1;
            let table = build_multi(ctx, build, &mode, &cols);
            let exact = mode.exact();
            let r = parallel_produce(&ctx.pool, probe.len(), ctx.grain, arity, |range, buf| {
                let mut scratch = Vec::new();
                for pr in range {
                    let key = mode.key_of(probe, pr, &cols, &mut scratch);
                    let hit = table
                        .iter_key(key)
                        .any(|node| exact || rows_eq(build, node as usize, probe, pr, arity));
                    if hit {
                        for c in 0..arity {
                            buf.push_at(c, probe.get(pr, c));
                        }
                    }
                }
            });
            // Record µ for the next iteration's grey-zone decision.
            let r_len = r.first().map_or(0, Vec::len);
            state.prev_mu = Some(if r_len == 0 {
                f64::INFINITY
            } else {
                delta.len() as f64 / r_len as f64
            });
            // Phase 2: ∆R ← Rδ − r.
            let r_view = RelView::over(&r);
            if r_view.is_empty() {
                copy_view(ctx, delta)
            } else {
                state.tables_built += 1;
                anti_probe(ctx, delta, r_view, &mode, &cols)
            }
        }
    };
    (out, algo)
}

/// Build a multimap table over `build`'s full tuples.
fn build_multi(ctx: &ExecCtx, build: RelView<'_>, mode: &KeyMode, cols: &[usize]) -> ChainTable {
    let n = build.len();
    let keys = parallel_fill(&ctx.pool, n, ctx.grain, 0u64, |r| {
        let mut scratch = Vec::new();
        mode.key_of(build, r, cols, &mut scratch)
    });
    let table = ChainTable::with_capacity(n, n * 2);
    ctx.pool.parallel_for(n, ctx.grain, |range, _| {
        for r in range {
            table.insert_multi(r as u32, keys[r]);
        }
    });
    table
}

/// Rows of `keep` that have no equal tuple in `reject`.
fn anti_probe(
    ctx: &ExecCtx,
    keep: RelView<'_>,
    reject: RelView<'_>,
    mode: &KeyMode,
    cols: &[usize],
) -> Vec<Vec<Value>> {
    let arity = keep.arity();
    let table = build_multi(ctx, reject, mode, cols);
    let exact = mode.exact();
    parallel_produce(&ctx.pool, keep.len(), ctx.grain, arity, |range, buf| {
        let mut scratch = Vec::new();
        for kr in range {
            let key = mode.key_of(keep, kr, cols, &mut scratch);
            let hit = table
                .iter_key(key)
                .any(|node| exact || rows_eq(reject, node as usize, keep, kr, arity));
            if !hit {
                for c in 0..arity {
                    buf.push_at(c, keep.get(kr, c));
                }
            }
        }
    })
}

fn copy_view(ctx: &ExecCtx, view: RelView<'_>) -> Vec<Vec<Value>> {
    let arity = view.arity();
    parallel_produce(&ctx.pool, view.len(), ctx.grain, arity, |range, buf| {
        for r in range {
            for c in 0..arity {
                buf.push_at(c, view.get(r, c));
            }
        }
    })
}

#[inline]
fn rows_eq(a: RelView<'_>, ar: usize, b: RelView<'_>, br: usize, arity: usize) -> bool {
    (0..arity).all(|c| a.get(ar, c) == b.get(br, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recstep_storage::{Relation, Schema};
    use std::collections::HashSet;

    fn ctx() -> ExecCtx {
        ExecCtx::with_threads(4)
    }

    fn rows_of(cols: &[Vec<Value>]) -> HashSet<Vec<Value>> {
        (0..cols.first().map_or(0, Vec::len))
            .map(|r| cols.iter().map(|c| c[r]).collect())
            .collect()
    }

    fn oracle_diff(delta: &Relation, full: &Relation) -> HashSet<Vec<Value>> {
        let f: HashSet<Vec<Value>> = full.to_rows().into_iter().collect();
        delta
            .to_rows()
            .into_iter()
            .filter(|r| !f.contains(r))
            .collect()
    }

    #[test]
    fn opsd_tpsd_dynamic_agree_with_oracle() {
        let delta = Relation::from_rows(
            Schema::with_arity("d", 2),
            &(0..200)
                .map(|i| vec![i as Value, (i * 2) as Value])
                .collect::<Vec<_>>(),
        );
        let full = Relation::from_rows(
            Schema::with_arity("f", 2),
            &(0..300)
                .map(|i| vec![(i / 2) as Value, i as Value])
                .collect::<Vec<_>>(),
        );
        let oracle = oracle_diff(&delta, &full);
        let ctx = ctx();
        for strat in [
            SetDiffStrategy::AlwaysOpsd,
            SetDiffStrategy::AlwaysTpsd,
            SetDiffStrategy::Dynamic,
        ] {
            let mut st = DsdState::default();
            let (out, _) = set_difference(&ctx, delta.view(), full.view(), strat, &mut st);
            assert_eq!(rows_of(&out), oracle, "{strat:?}");
        }
    }

    #[test]
    fn empty_cases() {
        let ctx = ctx();
        let mut st = DsdState::default();
        let e = Relation::new(Schema::with_arity("e", 2));
        let f = Relation::from_rows(Schema::with_arity("f", 2), &[vec![1, 2]]);
        let (out, _) = set_difference(&ctx, e.view(), f.view(), SetDiffStrategy::Dynamic, &mut st);
        assert!(out[0].is_empty());
        let (out, _) = set_difference(&ctx, f.view(), e.view(), SetDiffStrategy::Dynamic, &mut st);
        assert_eq!(rows_of(&out), [vec![1, 2]].into_iter().collect());
    }

    #[test]
    fn disjoint_and_subset_extremes() {
        let ctx = ctx();
        let a = Relation::from_rows(
            Schema::with_arity("a", 1),
            &(0..50).map(|i| vec![i as Value]).collect::<Vec<_>>(),
        );
        let b = Relation::from_rows(
            Schema::with_arity("b", 1),
            &(50..100).map(|i| vec![i as Value]).collect::<Vec<_>>(),
        );
        for strat in [SetDiffStrategy::AlwaysOpsd, SetDiffStrategy::AlwaysTpsd] {
            let mut st = DsdState::default();
            // Disjoint: everything survives.
            let (out, _) = set_difference(&ctx, a.view(), b.view(), strat, &mut st);
            assert_eq!(out[0].len(), 50);
            // Subset: nothing survives.
            let (out, _) = set_difference(&ctx, a.view(), a.view(), strat, &mut st);
            assert!(out[0].is_empty());
        }
    }

    #[test]
    fn cost_model_boundaries() {
        let alpha = 2.0; // 2α/(α−1) = 4
        assert_eq!(choose_algo(alpha, 0.5, None), SetDiffAlgo::Opsd);
        assert_eq!(choose_algo(alpha, 1.0, None), SetDiffAlgo::Opsd);
        assert_eq!(choose_algo(alpha, 4.0, None), SetDiffAlgo::Tpsd);
        assert_eq!(choose_algo(alpha, 10.0, None), SetDiffAlgo::Tpsd);
        // Grey zone: no µ yet → OPSD.
        assert_eq!(choose_algo(alpha, 2.0, None), SetDiffAlgo::Opsd);
        // Grey zone with large µ: β(α−1)=3 > α + α/µ ≈ 2 → TPSD.
        assert_eq!(choose_algo(alpha, 3.0, Some(1e9)), SetDiffAlgo::Tpsd);
        // Grey zone with µ = 1: β(α−1)=3 < α + α = 4 → OPSD.
        assert_eq!(choose_algo(alpha, 3.0, Some(1.0)), SetDiffAlgo::Opsd);
    }

    #[test]
    fn alpha_le_one_never_picks_tpsd_without_mu_signal() {
        // If builds are cheaper than probes the TPSD threshold is undefined;
        // Eq. (5) stays negative so OPSD must win.
        assert_eq!(choose_algo(0.9, 100.0, Some(5.0)), SetDiffAlgo::Opsd);
    }

    #[test]
    fn tpsd_records_mu() {
        let ctx = ctx();
        let delta = Relation::from_rows(
            Schema::with_arity("d", 1),
            &(0..10).map(|i| vec![i as Value]).collect::<Vec<_>>(),
        );
        let full = Relation::from_rows(
            Schema::with_arity("f", 1),
            &(5..30).map(|i| vec![i as Value]).collect::<Vec<_>>(),
        );
        let mut st = DsdState::default();
        let (_, algo) = set_difference(
            &ctx,
            delta.view(),
            full.view(),
            SetDiffStrategy::AlwaysTpsd,
            &mut st,
        );
        assert_eq!(algo, SetDiffAlgo::Tpsd);
        // Intersection = {5..9}, so µ = 10/5 = 2.
        assert_eq!(st.prev_mu, Some(2.0));
    }

    #[test]
    fn dynamic_switches_as_full_grows() {
        // With β huge, Dynamic must pick TPSD.
        let ctx = ctx();
        let delta = Relation::from_rows(Schema::with_arity("d", 1), &[vec![100_000]]);
        let full = Relation::from_rows(
            Schema::with_arity("f", 1),
            &(0..10_000).map(|i| vec![i as Value]).collect::<Vec<_>>(),
        );
        let mut st = DsdState::new(2.0);
        let (out, algo) = set_difference(
            &ctx,
            delta.view(),
            full.view(),
            SetDiffStrategy::Dynamic,
            &mut st,
        );
        assert_eq!(algo, SetDiffAlgo::Tpsd);
        assert_eq!(out[0], vec![100_000]);
    }
}
