//! Instrumentation hooks.
//!
//! The interpreter reports the events both analyses need through a
//! [`Tracer`]: the dynamic call-graph recorder (the NodeProf stand-in used
//! for ground truth) and the approximate-interpretation pre-analysis (which
//! records the paper's read/write hints) are both tracers.

use crate::value::Value;
use aji_ast::{Loc, NodeId};
use std::collections::BTreeSet;

/// Receiver of runtime events. All methods default to no-ops.
pub trait Tracer {
    /// A function definition was evaluated into a function value
    /// (`value` is the closure object, usable for later forced calls).
    fn on_function_def(&mut self, _def: NodeId, _loc: Option<Loc>, _value: &Value) {}

    /// A call from `call_site` is about to enter the function defined at
    /// `callee_loc` (with definition node `callee_def`).
    fn on_call(&mut self, _call_site: Option<Loc>, _callee_def: NodeId, _callee_loc: Option<Loc>) {}

    /// A dynamic property read `E[E']` at `op_loc` produced `result`,
    /// which (if it is an object) was born at `result_loc`.
    fn on_dynamic_read(&mut self, _op_loc: Loc, _result: &Value, _result_loc: Option<Loc>) {}

    /// A dynamic property write `E[E'] = E''` (or a
    /// `Object.defineProperty`-family call) stored an object born at
    /// `value_loc` into property `prop` of an object born at `obj_loc`.
    /// `op_loc` is the location of the write operation itself (unused by
    /// the relational \[DPW\] rule, needed by the non-relational ablation).
    fn on_dynamic_write(
        &mut self,
        _op_loc: Option<Loc>,
        _obj_loc: Option<Loc>,
        _prop: &str,
        _value_loc: Option<Loc>,
        _value: &Value,
    ) {
    }

    /// A dynamic property read at `op_loc` whose *base* was the unknown
    /// proxy `p*` but whose key was the concrete string `key` (§6's
    /// "unknown function arguments" extension).
    fn on_proxy_base_read(&mut self, _op_loc: Loc, _key: &str) {}

    /// A static property write `E.p = E''` stored `value` (used by the
    /// approximate interpreter to maintain its `this` map).
    fn on_static_write(&mut self, _obj: &Value, _prop: &str, _value: &Value) {}

    /// `require(name)` was evaluated at `site`, resolving to `resolved`
    /// (a project file path) if resolution succeeded.
    fn on_require(&mut self, _site: Loc, _name: &str, _resolved: Option<&str>) {}

    /// A property read of `prop` on a plain object whose own keys are
    /// `shape` (insertion order; observers canonicalize); `found` says
    /// whether the lookup (own or inherited) produced a property. Emitted
    /// for static member reads and string-keyed computed reads **only
    /// when** [`crate::InterpOptions::observe_props`] is on — the feed of
    /// the `aji-quant` statistical property-access finder. Proxies, §3
    /// receiver wrappers and sandbox mocks never report (their misses are
    /// modeling artifacts, not program behavior).
    fn on_prop_access(
        &mut self,
        _site: Option<Loc>,
        _prop: &str,
        _shape: &[std::rc::Rc<str>],
        _found: bool,
    ) {
    }
}

impl<T: Tracer> Tracer for std::rc::Rc<std::cell::RefCell<T>> {
    fn on_function_def(&mut self, def: NodeId, loc: Option<Loc>, value: &Value) {
        self.borrow_mut().on_function_def(def, loc, value);
    }
    fn on_call(&mut self, call_site: Option<Loc>, callee_def: NodeId, callee_loc: Option<Loc>) {
        self.borrow_mut().on_call(call_site, callee_def, callee_loc);
    }
    fn on_dynamic_read(&mut self, op_loc: Loc, result: &Value, result_loc: Option<Loc>) {
        self.borrow_mut()
            .on_dynamic_read(op_loc, result, result_loc);
    }
    fn on_dynamic_write(
        &mut self,
        op_loc: Option<Loc>,
        obj_loc: Option<Loc>,
        prop: &str,
        value_loc: Option<Loc>,
        value: &Value,
    ) {
        self.borrow_mut()
            .on_dynamic_write(op_loc, obj_loc, prop, value_loc, value);
    }

    fn on_proxy_base_read(&mut self, op_loc: Loc, key: &str) {
        self.borrow_mut().on_proxy_base_read(op_loc, key);
    }
    fn on_static_write(&mut self, obj: &Value, prop: &str, value: &Value) {
        self.borrow_mut().on_static_write(obj, prop, value);
    }
    fn on_require(&mut self, site: Loc, name: &str, resolved: Option<&str>) {
        self.borrow_mut().on_require(site, name, resolved);
    }
    fn on_prop_access(
        &mut self,
        site: Option<Loc>,
        prop: &str,
        shape: &[std::rc::Rc<str>],
        found: bool,
    ) {
        self.borrow_mut().on_prop_access(site, prop, shape, found);
    }
}

/// A tracer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {}

/// A dynamic call-graph edge: call site location → callee function
/// definition location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DynCallEdge {
    /// Location of the call site.
    pub call_site: Loc,
    /// Location of the invoked function's definition.
    pub callee: Loc,
}

/// Records the dynamic call graph of a concrete execution — the stand-in
/// for the paper's NodeProf-based dynamic call graphs used to measure
/// precision and recall.
#[derive(Debug, Default)]
pub struct DynCallGraph {
    /// Distinct call edges.
    pub edges: BTreeSet<DynCallEdge>,
    /// Function definitions that were actually entered.
    pub invoked: BTreeSet<NodeId>,
}

impl DynCallGraph {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

impl Tracer for DynCallGraph {
    fn on_call(&mut self, call_site: Option<Loc>, callee_def: NodeId, callee_loc: Option<Loc>) {
        self.invoked.insert(callee_def);
        if let (Some(cs), Some(cl)) = (call_site, callee_loc) {
            self.edges.insert(DynCallEdge {
                call_site: cs,
                callee: cl,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::FileId;

    #[test]
    fn dyn_call_graph_dedupes_edges() {
        let mut g = DynCallGraph::new();
        let cs = Loc::new(FileId(0), 1, 1);
        let f = Loc::new(FileId(0), 2, 1);
        g.on_call(Some(cs), NodeId(7), Some(f));
        g.on_call(Some(cs), NodeId(7), Some(f));
        assert_eq!(g.edge_count(), 1);
        assert!(g.invoked.contains(&NodeId(7)));
    }

    #[test]
    fn calls_without_locations_count_invocations_only() {
        let mut g = DynCallGraph::new();
        g.on_call(None, NodeId(3), None);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.invoked.len(), 1);
    }
}
