//! Static call-graph and points-to analysis with the approximate-
//! interpretation hint rules — the Jelly stand-in of the *aji*
//! reproduction of *Reducing Static Analysis Unsoundness with Approximate
//! Interpretation* (PLDI 2024).
//!
//! The analysis is a classic subset-based, flow-insensitive and
//! context-insensitive points-to analysis with on-the-fly call graph
//! construction (Figure 3 of the paper):
//!
//! * the **baseline** ignores dynamic property reads and writes — the
//!   unsoundness the paper quantifies;
//! * the **extended** analysis additionally applies rule \[DPR\] (inject the
//!   allocation sites observed at each dynamic read) and \[DPW\] (inject
//!   each observed `(object, property, value)` write triple), using the
//!   hints produced by the `aji-approx` pre-analysis.
//!
//! # Example
//!
//! ```
//! use aji_approx::{approximate_interpret, ApproxOptions};
//! use aji_ast::Project;
//! use aji_pta::{analyze, AnalysisOptions, CgMetrics};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut project = Project::new("demo");
//! project.add_file(
//!     "index.js",
//!     "var api = {};\n\
//!      ['run'].forEach(function(m) { api[m] = function() { return 1; }; });\n\
//!      api.run();",
//! );
//! let baseline = analyze(&project, None, &AnalysisOptions::baseline())?;
//! let hints = approximate_interpret(&project, &ApproxOptions::default())?.hints;
//! let extended = analyze(&project, Some(&hints), &AnalysisOptions::extended())?;
//! // The call `api.run()` is only resolved with hints.
//! assert!(CgMetrics::of(&extended.call_graph).call_edges
//!     > CgMetrics::of(&baseline.call_graph).call_edges);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod analysis;
mod callgraph;
mod gen;
mod metrics;
pub mod scopes;
pub mod solver;

pub use analysis::{analyze, analyze_parsed, Analysis, AnalysisOptions, ConstraintGraph};
pub use callgraph::CallGraph;
pub use gen::{
    CALLBACK_METHODS, ELEMENT_CALLBACK_METHODS, FOLD_METHODS, LISTENER_METHODS, PROMISE_METHODS,
};
pub use metrics::{Accuracy, CgMetrics};

/// The slot for id `i` of a dense id-indexed table, growing the table to
/// cover it. Node and variable ids are allocated densely from zero, so
/// these tables replace hash maps keyed by them.
pub(crate) fn dense_slot<T>(table: &mut Vec<Option<T>>, i: u32) -> &mut Option<T> {
    let i = i as usize;
    if i >= table.len() {
        table.resize_with(i + 1, || None);
    }
    &mut table[i]
}
