//! Approximate interpretation — the paper's §3 dynamic pre-analysis.
//!
//! A worklist algorithm force-executes every module of a project and every
//! function value discovered along the way (each function *definition* at
//! most once), with a proxy object `p*` standing in for unknown values.
//! The output is a set of **hints**:
//!
//! * read hints `H_R : Loc → P(Loc)` — which allocation sites have been
//!   observed as the *result* of each dynamic property read;
//! * write hints `H_W ⊆ Loc × String × Loc` — which (object, property,
//!   value) triples have been observed at dynamic property writes and at
//!   `Object.defineProperty` / `defineProperties` / `assign` / `create`;
//! * module hints — which modules dynamic `require` calls resolved to
//!   (the §3 extension for dynamic module loading).
//!
//! The hints feed the static analysis' \[DPR\]/\[DPW\] rules (crate
//! `aji-pta`).
//!
//! # Example
//!
//! ```
//! use aji_ast::Project;
//! use aji_approx::{approximate_interpret, ApproxOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut project = Project::new("demo");
//! project.add_file(
//!     "index.js",
//!     "var api = {};\n\
//!      ['get', 'put'].forEach(function(m) {\n\
//!        api[m] = function() { return m; };\n\
//!      });\n\
//!      module.exports = api;",
//! );
//! let result = approximate_interpret(&project, &ApproxOptions::default())?;
//! // Two write hints: api.get and api.put each receive the inner function.
//! assert_eq!(result.hints.writes.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod hints;
mod worklist;

pub use hints::{Hints, WriteHint};
pub use worklist::{
    approximate_interpret, approximate_interpret_parsed, ApproxOptions, ApproxResult, ApproxStats,
};
