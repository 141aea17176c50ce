//! Function-definition registry: shares one `Arc<Function>` per syntactic
//! function definition so closures are cheap to create and definitions are
//! addressable by `NodeId`. The pointers are the parse's own: registering a
//! module copies no function body.

use aji_ast::ast::{Function, Module};
use aji_ast::visit::{self, Visit};
use aji_ast::{Loc, NodeId, SourceMap};
use aji_support::hash::FxHashMap;
use std::sync::Arc;

/// Registry of all function definitions in a project (plus any functions
/// appearing in `eval`'d code, which are registered on the fly).
#[derive(Debug, Default)]
pub struct FuncRegistry {
    map: FxHashMap<NodeId, Arc<Function>>,
    locs: FxHashMap<NodeId, Loc>,
}

impl FuncRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers every function of a module, recording each definition's
    /// source location.
    pub fn add_module(&mut self, module: &Module, sm: &SourceMap) {
        struct Collector<'a> {
            reg: &'a mut FuncRegistry,
            sm: &'a SourceMap,
        }
        impl Visit for Collector<'_> {
            fn visit_function(&mut self, f: &Arc<Function>) {
                self.reg.map.entry(f.id).or_insert_with(|| f.clone());
                self.reg.locs.insert(f.id, self.sm.loc(f.span));
                visit::walk_function(self, f);
            }
        }
        let mut c = Collector { reg: self, sm };
        c.visit_module(module);
    }

    /// Registers every function of a module *without* recording locations
    /// (used for prelude/builtin code whose definitions must not become
    /// allocation sites).
    pub fn add_module_defs_only(&mut self, module: &Module) {
        struct Collector<'a> {
            reg: &'a mut FuncRegistry,
        }
        impl Visit for Collector<'_> {
            fn visit_function(&mut self, f: &Arc<Function>) {
                self.reg.map.entry(f.id).or_insert_with(|| f.clone());
                visit::walk_function(self, f);
            }
        }
        let mut c = Collector { reg: self };
        c.visit_module(module);
    }

    /// Registers a function discovered at runtime (e.g. inside `eval`'d
    /// code). `loc` is `None` for dynamically generated code.
    pub fn add_dynamic(&mut self, f: Arc<Function>, loc: Option<Loc>) {
        if let Some(l) = loc {
            self.locs.insert(f.id, l);
        }
        self.map.insert(f.id, f);
    }

    /// Looks up the shared definition for a node id.
    pub fn get(&self, id: NodeId) -> Option<Arc<Function>> {
        self.map.get(&id).cloned()
    }

    /// The definition's source location, if it comes from static code.
    pub fn loc(&self, id: NodeId) -> Option<Loc> {
        self.locs.get(&id).copied()
    }

    /// Number of registered definitions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// All registered definition ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.map.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::NodeIdGen;

    #[test]
    fn registers_nested_functions_once() {
        let src = "function a() { return function b() {}; }\nvar c = () => 1;";
        let mut sm = SourceMap::new();
        let file = sm.add_file("t.js", src);
        let mut ids = NodeIdGen::new();
        let m = aji_parser::parse_module(src, file, &mut ids).unwrap();
        let mut reg = FuncRegistry::new();
        reg.add_module(&m, &sm);
        assert_eq!(reg.len(), 3);
        for id in reg.ids().collect::<Vec<_>>() {
            assert!(reg.loc(id).is_some());
            assert!(reg.get(id).is_some());
        }
    }

    #[test]
    fn holds_the_parses_own_function_pointers() {
        let src = "function a() { return function b() { return () => 1; }; }\n\
                   var o = { m() {} };\nclass C { constructor() {} k() {} }";
        let mut sm = SourceMap::new();
        let file = sm.add_file("t.js", src);
        let mut ids = NodeIdGen::new();
        let m = aji_parser::parse_module(src, file, &mut ids).unwrap();
        let mut reg = FuncRegistry::new();
        reg.add_module(&m, &sm);

        struct All(Vec<Arc<Function>>);
        impl Visit for All {
            fn visit_function(&mut self, f: &Arc<Function>) {
                self.0.push(f.clone());
                visit::walk_function(self, f);
            }
        }
        let mut all = All(Vec::new());
        all.visit_module(&m);
        assert_eq!(all.0.len(), 6);
        assert_eq!(reg.len(), all.0.len());
        for f in &all.0 {
            let held = reg.get(f.id).expect("registered");
            assert!(Arc::ptr_eq(&held, f), "registry copied {:?}", f.name);
        }
    }
}
