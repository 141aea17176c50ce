//! Hermetic observability for the *aji* analysis pipeline.
//!
//! The paper's evaluation (§5) is entirely about *measuring* the pipeline
//! — hint counts, call-graph deltas, and analysis time budgets — so every
//! layer of this reproduction reports where its time and work go through
//! this crate: hierarchical [spans](span) with wall-clock timing, named
//! [counters](counter), and bucketed [histograms](histogram_record), collected
//! into a thread-safe [`Registry`] and snapshotted as a serializable
//! [`ObsReport`].
//!
//! # Switching it on
//!
//! Observability is **off by default** and free when off (recording sites
//! reduce to a relaxed atomic load). It turns on when either
//!
//! * the `AJI_OBS` environment variable is set to `1`, `true` or `on`
//!   (events then collect into the process-global registry), or
//! * a [`Registry`] is installed for a scope with [`scoped`] (events on
//!   the current thread then collect into that registry — this is what
//!   `aji::run_benchmark` uses to attach a per-run report, and what tests
//!   use so parallel tests never share state).
//!
//! # Recording
//!
//! ```
//! use aji_obs::{scoped, Registry};
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! scoped(&reg, || {
//!     let _outer = aji_obs::span("pipeline");
//!     {
//!         let _inner = aji_obs::span("solve");
//!         aji_obs::counter_add("solver.propagations", 42);
//!         aji_obs::histogram_record("solver.round", 17);
//!     }
//! });
//! let report = reg.report();
//! assert_eq!(report.counter("solver.propagations"), Some(42));
//! assert!(report.spans.iter().any(|s| s.path == "pipeline/solve"));
//! ```
//!
//! Hot paths that fire per event (interpreter steps, solver propagations)
//! hold a [`Counter`] handle — a cached `Arc<AtomicU64>` obtained once via
//! [`counter`] — so recording is a single relaxed `fetch_add` with no map
//! lookup and no lock.
//!
//! # Reporting
//!
//! [`Registry::report`] snapshots everything into an [`ObsReport`], which
//! round-trips through `aji-support` JSON ([`ObsReport::to_json_string`] /
//! [`ObsReport::from_json_str`]) and renders as an indented span tree with
//! per-phase percentages and top-N counters via [`render_text`] — the
//! format the `aji-report` binary prints.

//! # The flight recorder
//!
//! Beyond aggregates, a registry can carry a [`TraceRecorder`] — a
//! fixed-capacity ring of structured [`TraceEvent`]s (span begin/end,
//! budget trip, oracle finding, hint application),
//! each stamped with a wall-clock offset *and* the interpreter step index.
//! In [`TraceConfig::deterministic`] mode the wall clock is zeroed, making
//! event streams byte-identical across thread counts and reruns; see the
//! [`trace`] module docs for the clock semantics. Registries also carry
//! [gauges](gauge_max) (peak-value metrics such as
//! [peak RSS](record_peak_rss), merged by maximum on
//! [`Registry::absorb`]).

#![warn(missing_docs)]

mod registry;
mod render;
mod report;
pub mod trace;

pub use registry::{
    counter, counter_add, current_registry, enabled, force_enable, gauge_max, histogram_record,
    record_peak_rss, scoped, span, trace_event, trace_recorder, Counter, Registry, SpanGuard,
};
pub use render::{render_text, RenderOptions};
pub use report::{CounterRecord, GaugeRecord, HistogramRecord, ObsReport, SpanRecord};
pub use trace::{TraceConfig, TraceEvent, TraceKind, TraceRecorder, TraceReport};
