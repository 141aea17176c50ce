//! Differential soundness oracle for the *aji* reproduction.
//!
//! The paper's claim is quantitative: approximate interpretation recovers
//! most of the call edges static analysis misses on dynamic JavaScript
//! idioms. This crate is the apparatus that *checks* that claim edge by
//! edge, explains every residual miss, and hunts for regressions:
//!
//! * [`run_oracle`] / [`run_oracle_corpus`] — the **differential
//!   harness**: dynamic call graph (concrete interpreter tracer) vs.
//!   static call graphs with and without hints, intersected into missed /
//!   recovered / spurious edge sets with per-project and per-corpus
//!   recall ([`EdgeDiff`], [`CorpusOracle`]).
//! * [`triage()`] — the **root-cause pass**: every missed edge classified
//!   by inspecting the AST and the hint sets ([`Cause`]: dynamic read,
//!   dynamic write, eval-built API, dynamic require, higher-order proxy,
//!   budget exhaustion), with a per-project cause histogram.
//! * [`triage_spurious()`] — the **precision-side mirror**: every
//!   spurious edge (extended-graph edge at a dynamically exercised site
//!   the run never took) classified against the static models that
//!   introduced it ([`SpuriousCause`]: listener model, callback model,
//!   `.call`/`.apply` dispatch, baseline vs. hint-only
//!   over-approximation), with its own histogram in the JSON report.
//! * [`run_fuzz`] — the **soundness fuzzer**: a loop-until-dry over
//!   seeded generator configs, flagging any dynamic edge the
//!   hint-augmented analysis misses *despite a hint naming the callee*
//!   and shrinking each finding to a minimal replayable reproducer with
//!   [`aji_support::check::shrink_choices`].
//!
//! The `aji-oracle` binary fronts all three (`--patterns` for the
//! differential run over the hand-written pattern corpus, the fuzzer by
//! default); its JSON report is byte-identical across runs and thread
//! counts. See EXPERIMENTS.md ("Soundness oracle") for how to read the
//! output, and `DESIGN.md` at the repository root for where the oracle
//! sits in the system inventory and which guarantees it underwrites.
//!
//! # Example
//!
//! ```
//! use aji_oracle::{run_fuzz, FuzzOptions};
//!
//! let report = run_fuzz(&FuzzOptions {
//!     cases: 4,
//!     ..FuzzOptions::default()
//! });
//! // A healthy build has no hint-covered misses: the fuzzer comes back
//! // clean (fuzz findings are regressions, not expected behaviour).
//! assert!(report.clean(), "{}", report.summary_text());
//! assert_eq!(report.cases_run, 4);
//! ```

#![warn(missing_docs)]

pub mod diff;
pub mod fuzz;
pub mod spurious;
pub mod triage;

pub use diff::{
    run_oracle, run_oracle_corpus, run_oracle_parsed, run_oracle_staged, CorpusOracle, EdgeDiff,
    OracleOptions, ProjectOracle,
};
pub use fuzz::{case_config, case_seed, run_fuzz, Finding, FuzzOptions, FuzzReport, Reproducer};
pub use spurious::{triage_spurious, SpuriousCause, SpuriousEdge};
pub use triage::{triage, Cause, MissedEdge};
