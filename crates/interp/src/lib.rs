//! A tree-walking JavaScript interpreter with CommonJS modules,
//! instrumentation hooks and forced-execution support — the Node.js/V8
//! stand-in for the *aji* reproduction of *Reducing Static Analysis
//! Unsoundness with Approximate Interpretation* (PLDI 2024).
//!
//! Two consumers sit on top of this crate:
//!
//! * the **dynamic call-graph recorder** ([`tracer::DynCallGraph`]) — the
//!   NodeProf stand-in that produces ground truth for recall/precision
//!   measurements by running a project's test driver; and
//! * the **approximate interpreter** (crate `aji-approx`) — the paper's
//!   pre-analysis, which drives this interpreter in `approx` mode
//!   ([`InterpOptions::approx_defaults`]) where unknown values are
//!   represented by a proxy object `p*` with the exact semantics of §3.
//!
//! # Example
//!
//! ```
//! use aji_ast::Project;
//! use aji_interp::Interp;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut project = Project::new("demo");
//! project.add_file("index.js", "exports.answer = 6 * 7;");
//! let mut interp = Interp::new(&project)?;
//! let exports = interp.run_module("index.js")?;
//! let answer = interp.get_property_public(&exports, "answer")?;
//! assert_eq!(answer.to_string(), "42");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod builtins;
mod convert;
pub mod env;
mod error;
mod exprs;
pub mod heap;
mod machine;
pub mod obs;
mod prelude;
mod profile;
mod props;
mod registry;
mod stmts;
pub mod tracer;
pub mod value;

pub use error::{BudgetKind, Flow, JsError};
pub use machine::{Interp, InterpOptions, Protos};
pub use registry::FuncRegistry;
pub use tracer::{DynCallEdge, DynCallGraph, NoopTracer, Tracer};
pub use value::{ObjId, Value};

impl Interp {
    /// Public, convenience property read (used by tests, examples and the
    /// approximate interpreter's worklist driver).
    ///
    /// # Errors
    ///
    /// Propagates getters' exceptions and type errors on nullish bases.
    pub fn get_property_public(&mut self, base: &Value, key: &str) -> Result<Value, JsError> {
        self.get_property(base.clone(), key, None)
    }

    /// Public, convenience property write.
    ///
    /// # Errors
    ///
    /// Propagates setters' exceptions.
    pub fn set_property_public(
        &mut self,
        base: &Value,
        key: &str,
        v: Value,
    ) -> Result<(), JsError> {
        self.set_property(base, key, v)
    }

    /// Number of declared parameters of a user-defined function value.
    pub fn param_count(&self, f: &Value) -> Option<usize> {
        let id = f.as_obj()?;
        match &self.heap.get(id).kind {
            heap::ObjKind::Function(data) => Some(data.def.params.len()),
            _ => None,
        }
    }

    /// Converts any value to its JavaScript string form (public wrapper
    /// around the internal `ToString`).
    pub fn to_string_public(&mut self, v: &Value) -> String {
        self.to_string_value(v)
    }

    /// Evaluates a source string in the global scope (test helper).
    ///
    /// # Errors
    ///
    /// Returns parse errors as thrown `SyntaxError`s and propagates any
    /// uncaught exception.
    pub fn eval_source(&mut self, src: &str) -> Result<Value, JsError> {
        let scope = self.global_scope();
        self.run_eval(src, &scope)
    }
}
