//! Source management, AST and project model for the *aji* toolchain — a Rust
//! reproduction of *Reducing Static Analysis Unsoundness with Approximate
//! Interpretation* (PLDI 2024).
//!
//! This crate is the foundation shared by the parser, the interpreter, the
//! approximate-interpretation pre-analysis and the static points-to
//! analysis:
//!
//! * [`SourceMap`] / [`Span`] / [`Loc`] — source management; [`Loc`] (file,
//!   line, column) is the allocation-site identity used by both the dynamic
//!   hints and the static abstraction.
//! * [`ast`] — the JavaScript AST with project-unique [`NodeId`]s.
//! * [`Project`] — an in-memory Node.js-style project (virtual file tree
//!   with `node_modules`, a main module and an optional test driver), and
//!   [`resolve_module`], the one `require` resolution policy that the
//!   interpreter and the points-to analysis share.
//! * [`visit`] — read-only AST visitors.
//! * [`mod@print`] — an AST-to-source printer used for testing and diagnostics.
//!
//! # Example
//!
//! ```
//! use aji_ast::{Project, SourceMap};
//!
//! let mut project = Project::new("hello");
//! project.add_file("index.js", "var x = 1;");
//! let sm: SourceMap = project.source_map();
//! assert_eq!(sm.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod print;
mod project;
mod source;
pub mod visit;

pub use ast::{Module, NodeId, NodeIdGen};
pub use project::{resolve_module, Project, ProjectFile, VulnSpec};
pub use source::{FileId, Loc, SourceFile, SourceMap, Span};

/// Converts a number to its JavaScript property-name string (`ToString`
/// applied to a numeric key).
///
/// Integral values in safe range print without a fractional part, matching
/// JavaScript's behavior for array indices and numeric object keys.
pub fn num_to_prop_name(n: f64) -> String {
    if n == 0.0 {
        // JS: String(0) === "0" and String(-0) === "0".
        return "0".to_string();
    }
    if n.is_nan() {
        return "NaN".to_string();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string();
    }
    if n.fract() == 0.0 && n.abs() < 1e21 {
        format!("{}", n as i64)
    } else {
        format!("{}", n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_to_prop_name_integers() {
        assert_eq!(num_to_prop_name(0.0), "0");
        assert_eq!(num_to_prop_name(-0.0), "0");
        assert_eq!(num_to_prop_name(42.0), "42");
        assert_eq!(num_to_prop_name(-7.0), "-7");
    }

    #[test]
    fn num_to_prop_name_non_integers() {
        assert_eq!(num_to_prop_name(1.5), "1.5");
        assert_eq!(num_to_prop_name(f64::NAN), "NaN");
        assert_eq!(num_to_prop_name(f64::INFINITY), "Infinity");
        assert_eq!(num_to_prop_name(f64::NEG_INFINITY), "-Infinity");
    }
}
