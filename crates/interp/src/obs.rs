//! Observability hooks for the interpreter.
//!
//! Sits next to [`crate::tracer`]: where the [`Tracer`](crate::tracer::Tracer)
//! reports *semantic* events to the analyses, these counters report *work*
//! events to `aji-obs`. Handles are bound once at interpreter construction
//! (against the registry active at that moment), so each hot-path record is
//! a single relaxed atomic add — and a no-op branch when observability is
//! off.

use std::sync::Arc;

use aji_obs::{counter, Counter, Registry, TraceRecorder};

/// Cached counter handles for the interpreter's hot paths.
#[derive(Debug, Default)]
pub struct InterpObs {
    /// Evaluation steps executed ([`crate::Interp::steps`] across runs).
    pub steps: Counter,
    /// User-function invocations (closure calls entered).
    pub calls: Counter,
    /// Forced calls via [`crate::Interp::call_function`] — the approximate
    /// interpreter's worklist entry point.
    pub forced_calls: Counter,
    /// Operations absorbed by the unknown-value proxy `p*` (calls on the
    /// proxy, constructions of it, property reads from it).
    pub proxy_ops: Counter,
    /// Native (builtin) function dispatches.
    pub builtin_dispatches: Counter,
    /// Budget exhaustions (step, stack or loop budget hit).
    pub budget_exhaustions: Counter,
    /// The registry active at construction, kept so deferred flushes
    /// (profiler drop, gauges) land in the right place even after the
    /// scope that installed it pops.
    pub registry: Option<Arc<Registry>>,
    /// The registry's flight recorder, when one is installed — the sink
    /// for budget-trip trace events, each stamped with the interpreter's
    /// step index.
    pub recorder: Option<Arc<TraceRecorder>>,
}

impl InterpObs {
    /// Binds handles against the currently active registry (no-op handles
    /// when observability is inactive).
    pub fn bind() -> InterpObs {
        let registry = aji_obs::current_registry();
        let recorder = registry.as_ref().and_then(|r| r.recorder());
        InterpObs {
            steps: counter("interp.steps"),
            calls: counter("interp.calls"),
            forced_calls: counter("interp.forced_calls"),
            proxy_ops: counter("interp.proxy_ops"),
            builtin_dispatches: counter("interp.builtin_dispatches"),
            budget_exhaustions: counter("interp.budget_exhaustions"),
            registry,
            recorder,
        }
    }
}
