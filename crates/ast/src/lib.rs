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
//! * [`visit`] — read-only AST visitors and the declaration walkers that
//!   hold JavaScript's hoisting rules for the interpreter and the analysis.
//! * [`mod@print`] — an AST-to-source printer used for testing and diagnostics.
//! * [`number`] — JavaScript's number grammar: literals, `ToNumber`,
//!   `ToString` and the number builtins' conversions, shared by the lexer,
//!   the printer, the interpreter and the points-to analysis.
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
pub mod number;
pub mod print;
mod project;
mod source;
pub mod visit;

pub use ast::{Module, NodeId, NodeIdGen};
pub use project::{resolve_module, Project, ProjectFile, VulnSpec};
pub use source::{FileId, Loc, SourceFile, SourceMap, Span};
