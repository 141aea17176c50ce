//! Root-cause quantification and a statistical property-access bug
//! finder for the *aji* reproduction.
//!
//! The oracle (`aji-oracle`) *names* the causes of residual unsoundness
//! and imprecision; this crate *prices* them and then turns the same
//! instrumentation loose on a different bug class:
//!
//! * [`rank_corpus`] — **counterfactual quantification**: for every
//!   triage [`Cause`](aji_oracle::Cause) family, how much recall would a
//!   fix buy? The higher-order-proxy family gets a real re-solve with
//!   the §6 proxy-read hint class force-enabled; every other family gets
//!   its patch-edges upper bound. Spurious-cause families are priced in
//!   precision points symmetrically. The result is a ranked table — a
//!   priority list over the paper's limitation section.
//! * [`find_anomalies`] — the **statistical finder**: the interpreter's
//!   per-shape property-access observations
//!   ([`aji_interp::InterpOptions::observe_props`]), mined into a
//!   corpus-wide frequency model; misses whose name sits at edit
//!   distance 1 from a shape key and never worked anywhere are flagged
//!   as typos. [`evaluate`] measures precision/recall against the
//!   corpus generator's injected-defect manifests
//!   ([`aji_corpus::generate_with_manifest`]).
//!
//! The `aji-quant` binary fronts both; its JSON report is byte-identical
//! across runs and thread counts (`scripts/check-hermetic.sh` enforces
//! this, and `aji-report --diff` gates the committed
//! `BENCH_pr10_quant.json` snapshot). See EXPERIMENTS.md ("Root-cause
//! quantification" and "Property-access finder") for how to read the
//! output.
//!
//! # Example
//!
//! ```
//! use aji_quant::{find_anomalies, evaluate, FinderOptions};
//!
//! let mut cfg = aji_corpus::GenConfig::small("demo", 7);
//! cfg.typo_injections = 1;
//! let (project, typos) = aji_corpus::generate_with_manifest(&cfg);
//! let report = find_anomalies(vec![project], &FinderOptions::default(), 1);
//! let eval = evaluate(&report, &[("demo".to_string(), typos)]);
//! assert_eq!(eval.recovered, 1); // the injected typo is found
//! ```

#![warn(missing_docs)]

pub mod finder;
pub mod rank;

pub use finder::{
    evaluate, find_anomalies, observe_project, Candidate, EvalReport, FinderOptions, FinderReport,
    ProjectObservations,
};
pub use rank::{rank_corpus, rank_project, CauseImpact, CorpusRank, ProjectRank, SpuriousImpact};
