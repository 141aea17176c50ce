//! Hand-written JavaScript lexer and parser for the *aji* toolchain.
//!
//! The entry points are [`parse_module`] (one file) and
//! [`parse_project`] (every file of an [`aji_ast::Project`], with
//! project-unique node ids). The supported language is the ES2015+ subset
//! that dominates real-world Node.js code; see the `aji-ast` crate docs for
//! the exact feature list.
//!
//! # Example
//!
//! ```
//! use aji_ast::{FileId, NodeIdGen};
//!
//! # fn main() -> Result<(), aji_parser::ParseError> {
//! let mut ids = NodeIdGen::new();
//! let module = aji_parser::parse_module(
//!     "var x = { get: function() { return 1; } }; x.get();",
//!     FileId(0),
//!     &mut ids,
//! )?;
//! assert_eq!(module.body.len(), 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod error;
mod lexer;
mod parser;
pub mod token;

pub use error::ParseError;
pub use lexer::lex;
pub use parser::{parse_expr, parse_module};

use aji_ast::{FileId, Module, NodeIdGen, Project, SourceMap};
use std::rc::Rc;

/// A fully parsed project: its source map and one [`Module`] per file, in
/// the same order as [`SourceMap`]'s files.
///
/// Modules are reference-counted so one parse can feed every pipeline
/// phase — the static analyses borrow them, the interpreter clones the
/// (cheap) `Rc` handles — instead of each phase re-parsing the project.
/// Cloning a `ParsedProject` clones the source map and bumps the module
/// refcounts; it never re-parses.
#[derive(Debug, Clone)]
pub struct ParsedProject {
    /// Source map over the project's files.
    pub source_map: SourceMap,
    /// Parsed modules; `modules[i]` corresponds to `FileId(i)`.
    pub modules: Vec<Rc<Module>>,
    /// The id generator used, so later passes can mint more ids.
    pub ids: NodeIdGen,
}

impl ParsedProject {
    /// The module for a given file.
    ///
    /// # Panics
    ///
    /// Panics if `file` is not part of this project.
    pub fn module(&self, file: FileId) -> &Module {
        &self.modules[file.index()]
    }
}

/// Parses every file of a project.
///
/// # Errors
///
/// Returns the first parse error, tagged with the offending file's path.
pub fn parse_project(project: &Project) -> Result<ParsedProject, ParseError> {
    let _span = aji_obs::span("parse");
    let source_map = project.source_map();
    let mut ids = NodeIdGen::new();
    let mut modules = Vec::with_capacity(source_map.len());
    let mut bytes = 0u64;
    for (file, sf) in source_map.iter() {
        let module =
            parse_module(&sf.src, file, &mut ids).map_err(|e| e.with_path(sf.path.clone()))?;
        bytes += sf.src.len() as u64;
        modules.push(Rc::new(module));
    }
    aji_obs::counter_add("parser.files", source_map.len() as u64);
    aji_obs::counter_add("parser.bytes", bytes);
    aji_obs::counter_add("parser.nodes", ids.count() as u64);
    Ok(ParsedProject {
        source_map,
        modules,
        ids,
    })
}
