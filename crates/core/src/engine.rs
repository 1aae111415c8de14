//! The engine: immutable evaluation machinery, shared freely.
//!
//! An [`Engine`] bundles what is constant across evaluations — the
//! configuration (every paper-§5 optimization toggle), the worker pool,
//! and the DSD cost-model calibration. It holds **no data and no program
//! state**: facts live in a [`crate::Database`], compiled programs in
//! [`crate::PreparedProgram`]s. That split makes the engine `Send + Sync`
//! and cheap to clone (one `Arc`), so one engine can serve many programs
//! and many databases, concurrently, from many threads.
//!
//! Construction goes through the fluent [`EngineBuilder`], which absorbs
//! the old `Config` builder surface:
//!
//! ```
//! use recstep::Engine;
//!
//! let engine = Engine::builder().threads(2).mem_budget(1 << 30).build().unwrap();
//! assert_eq!(engine.config().effective_threads(), 2);
//! ```

use std::sync::Arc;

use recstep_common::sched::ThreadPool;
use recstep_common::Result;
use recstep_datalog::plan::CompiledProgram;
use recstep_datalog::{analyze::analyze, parser::parse, plan::compile};
use recstep_exec::dedup::DedupImpl;
use recstep_exec::setdiff::SetDiffStrategy;
use recstep_exec::ExecCtx;

use crate::config::{Config, OofMode, PbmeMode};
use crate::prepared::PreparedProgram;

pub(crate) struct EngineInner {
    pub(crate) cfg: Config,
    pub(crate) ctx: ExecCtx,
}

/// The immutable RecStep engine: configuration + worker pool + planner.
///
/// Cloning is an `Arc` bump; clones share the pool. The engine is
/// `Send + Sync`, so it (and every [`PreparedProgram`] it produces) can be
/// shared across threads and run concurrently over distinct databases.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

// Compile-time guarantee backing the concurrent-serving design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Start building an engine with the default configuration.
    pub fn builder() -> EngineBuilder {
        EngineBuilder {
            cfg: Config::default(),
        }
    }

    /// Engine with the default configuration (all optimizations on).
    pub fn with_defaults() -> Result<Self> {
        Self::builder().build()
    }

    /// Engine from an explicit configuration value (the ablation presets
    /// like [`Config::no_op`] enter here).
    pub fn from_config(cfg: Config) -> Result<Self> {
        EngineBuilder { cfg }.build()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &Config {
        &self.inner.cfg
    }

    /// The worker pool (for harness-level utilization sampling).
    pub fn pool(&self) -> &ThreadPool {
        &self.inner.ctx.pool
    }

    /// Shared handle to the worker pool, so a sampler thread can observe
    /// busy time while the engine runs (Figures 7a and 16).
    pub fn pool_handle(&self) -> Arc<ThreadPool> {
        Arc::clone(&self.inner.ctx.pool)
    }

    /// Parse, analyze and compile a program **once**, yielding a reusable
    /// [`PreparedProgram`]. The prepared program holds a clone of this
    /// engine, so the engine value itself need not be kept around.
    pub fn prepare(&self, src: &str) -> Result<PreparedProgram> {
        let compiled = compile(&analyze(parse(src)?)?)?;
        Ok(self.prepare_compiled(compiled))
    }

    /// Wrap an already-compiled program (for callers driving the frontend
    /// themselves, e.g. [`crate::compile_source`]).
    pub fn prepare_compiled(&self, compiled: CompiledProgram) -> PreparedProgram {
        PreparedProgram::new(self.clone(), compiled)
    }

    pub(crate) fn parts(&self) -> (&Config, &ExecCtx) {
        (&self.inner.cfg, &self.inner.ctx)
    }
}

/// Fluent engine construction; absorbs the old `Config` builder surface.
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    cfg: Config,
}

impl EngineBuilder {
    /// Replace the whole configuration (keeps later fluent calls working).
    pub fn config(mut self, cfg: Config) -> Self {
        self.cfg = cfg;
        self
    }

    /// Worker threads (0 = all available cores).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.threads = t;
        self
    }

    /// Toggle unified IDB evaluation (§5.1 UIE).
    pub fn uie(mut self, on: bool) -> Self {
        self.cfg.uie = on;
        self
    }

    /// Statistics / re-optimization policy (§5.1 OOF).
    pub fn oof(mut self, mode: OofMode) -> Self {
        self.cfg.oof = mode;
        self
    }

    /// Set-difference strategy (§5.1 DSD).
    pub fn setdiff(mut self, s: SetDiffStrategy) -> Self {
        self.cfg.setdiff = s;
        self
    }

    /// Toggle evaluation as one single transaction (§5.2 EOST).
    pub fn eost(mut self, on: bool) -> Self {
        self.cfg.eost = on;
        self
    }

    /// Deduplication implementation (§5.2 FAST-DEDUP = `Fast`).
    pub fn dedup(mut self, d: DedupImpl) -> Self {
        self.cfg.dedup = d;
        self
    }

    /// Toggle persistent incremental indexes (off = per-iteration rebuild,
    /// the paper's Algorithm 1 behaviour, kept for ablations).
    pub fn index_reuse(mut self, on: bool) -> Self {
        self.cfg.index_reuse = on;
        self
    }

    /// Toggle group-at-source streaming aggregation (off = aggregated
    /// heads group over a materialized pre-aggregation `Rt`).
    pub fn fused_agg(mut self, on: bool) -> Self {
        self.cfg.fused_agg = on;
        self
    }

    /// Toggle the shared cross-run index cache (off = every run builds its
    /// own frozen-relation indexes, the pre-cache per-run behavior).
    pub fn shared_index_cache(mut self, on: bool) -> Self {
        self.cfg.shared_index_cache = on;
        self
    }

    /// Resident-byte budget of the shared index cache (publishes evict
    /// coldest-first past it; the pre-OOM pressure path spills it).
    pub fn index_cache_budget(mut self, bytes: usize) -> Self {
        self.cfg.index_cache_budget_bytes = bytes;
        self
    }

    /// Bit-matrix evaluation policy (§5.3 PBME).
    pub fn pbme(mut self, mode: PbmeMode) -> Self {
        self.cfg.pbme = mode;
        self
    }

    /// Coordinated SG-PBME work-order threshold (`None` = no coordination).
    pub fn pbme_coordination(mut self, threshold: Option<usize>) -> Self {
        self.cfg.pbme_coordination = threshold;
        self
    }

    /// Toggle standing materialized views over prepared programs
    /// (incremental view maintenance; off = every query re-runs from
    /// scratch, the `--no-incremental` ablation).
    pub fn incremental_views(mut self, on: bool) -> Self {
        self.cfg.incremental_views = on;
        self
    }

    /// Memory budget in bytes (evaluations exceeding it abort with OOM).
    pub fn mem_budget(mut self, bytes: usize) -> Self {
        self.cfg.mem_budget_bytes = bytes;
        self
    }

    /// Spawn the worker pool and freeze the engine.
    pub fn build(self) -> Result<Engine> {
        let cfg = self.cfg;
        let pool = Arc::new(ThreadPool::new(cfg.effective_threads()));
        let mut ctx = ExecCtx::new(pool);
        ctx.grain = cfg.grain.max(1);
        Ok(Engine {
            inner: Arc::new(EngineInner { cfg, ctx }),
        })
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Engine::builder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_mirrors_config_surface() {
        let e = Engine::builder()
            .threads(2)
            .uie(false)
            .eost(false)
            .pbme(PbmeMode::Off)
            .mem_budget(123)
            .build()
            .unwrap();
        assert!(!e.config().uie);
        assert!(!e.config().eost);
        assert_eq!(e.config().pbme, PbmeMode::Off);
        assert_eq!(e.config().mem_budget_bytes, 123);
        assert_eq!(e.pool().threads(), 2);
    }

    #[test]
    fn from_config_preserves_presets() {
        let e = Engine::from_config(Config::no_op().threads(1)).unwrap();
        assert!(!e.config().uie);
        assert_eq!(e.config().oof, OofMode::None);
    }

    #[test]
    fn clones_share_the_pool() {
        let a = Engine::builder().threads(2).build().unwrap();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.pool_handle(), &b.pool_handle()));
    }
}
