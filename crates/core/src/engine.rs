//! The engine: immutable evaluation machinery, shared freely.
//!
//! An [`Engine`] bundles what is constant across evaluations — the
//! configuration (every paper-§5 optimization toggle) and the worker
//! pool. It holds **no data and no program state**: facts live in a
//! [`crate::Database`], compiled programs in [`crate::PreparedProgram`]s.
//! That split makes the engine `Send + Sync` and cheap to clone (one
//! `Arc`), so one engine can serve many programs and many databases,
//! concurrently, from many threads.
//!
//! Construction takes a [`Config`], whose builder methods set every
//! toggle; [`Engine::builder`] is the shorthand for a thread count over
//! the defaults:
//!
//! ```
//! use recstep::{Config, Engine};
//!
//! let engine = Engine::from_config(Config::default().threads(2).mem_budget(1 << 30)).unwrap();
//! assert_eq!(engine.config().effective_threads(), 2);
//! let engine = Engine::builder().threads(2).build().unwrap();
//! assert_eq!(engine.pool().threads(), 2);
//! ```

use std::sync::Arc;

use recstep_common::sched::ThreadPool;
use recstep_common::Result;
use recstep_datalog::plan::CompiledProgram;
use recstep_datalog::{analyze::analyze, parser::parse, plan::compile};
use recstep_exec::ExecCtx;

use crate::config::Config;
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

/// Engine construction over a [`Config`] (set toggles on the `Config`).
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    cfg: Config,
}

impl EngineBuilder {
    /// Replace the whole configuration.
    pub fn config(mut self, cfg: Config) -> Self {
        self.cfg = cfg;
        self
    }

    /// Worker threads (0 = all available cores).
    pub fn threads(mut self, t: usize) -> Self {
        self.cfg.threads = t;
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
    use crate::config::{OofMode, PbmeMode};

    #[test]
    fn builder_mirrors_config_surface() {
        let cfg = Config::default()
            .uie(false)
            .eost(false)
            .pbme(PbmeMode::Off)
            .mem_budget(123);
        let e = Engine::builder().config(cfg).threads(2).build().unwrap();
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
