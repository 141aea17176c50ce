//! Lexical environments (scope chains).
//!
//! Closures capture an [`ScopeRef`]; variable lookup walks the parent
//! chain. Function scopes additionally carry the `this` binding and the
//! `arguments` object; arrow functions simply do not create those slots, so
//! lookup finds the enclosing function's.

use crate::heap::OrderedMap;
use crate::value::Value;
use std::cell::RefCell;
use std::rc::Rc;

/// Shared, mutable scope handle.
pub type ScopeRef = Rc<RefCell<Scope>>;

/// What introduced a scope (used for `var` hoisting targets).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScopeKind {
    /// The global scope.
    Global,
    /// A module's top-level scope (the "module function" of the paper).
    Module,
    /// An ordinary function body.
    Function,
    /// An arrow function body (no own `this`/`arguments`).
    Arrow,
    /// A block / loop body / catch clause.
    Block,
}

/// One scope in the chain.
#[derive(Debug, Clone)]
pub struct Scope {
    /// What kind of scope this is.
    pub kind: ScopeKind,
    /// Enclosing scope.
    pub parent: Option<ScopeRef>,
    /// Variable bindings.
    vars: OrderedMap<Value>,
    /// `this` binding, present on function/module/global scopes.
    pub this_val: Option<Value>,
}

impl Scope {
    /// Creates a new scope with the given parent.
    pub fn new(kind: ScopeKind, parent: Option<ScopeRef>) -> ScopeRef {
        let mut scope = Scope::detached(kind);
        scope.parent = parent;
        Rc::new(RefCell::new(scope))
    }

    /// Creates an empty, unshared scope with no parent.
    pub(crate) fn detached(kind: ScopeKind) -> Scope {
        Scope {
            kind,
            parent: None,
            vars: OrderedMap::new(),
            this_val: None,
        }
    }

    /// Declares (or redeclares) a variable directly in this scope.
    pub fn declare(&mut self, name: impl Into<Rc<str>>, v: Value) {
        self.vars.insert(name.into(), v);
    }

    /// Whether this scope directly binds `name`.
    pub fn has_own(&self, name: &str) -> bool {
        self.vars.contains(name)
    }

    /// Reads an own binding.
    pub fn get_own(&self, name: &str) -> Option<Value> {
        self.vars.get(name).cloned()
    }

    /// Writes an own binding; returns false if not bound here.
    pub fn set_own(&mut self, name: &str, v: Value) -> bool {
        if let Some(slot) = self.vars.get_mut(name) {
            *slot = v;
            true
        } else {
            false
        }
    }
}

/// Looks a variable up through the scope chain.
pub fn lookup(scope: &ScopeRef, name: &str) -> Option<Value> {
    let mut cur = Some(scope.clone());
    while let Some(s) = cur {
        let b = s.borrow();
        if let Some(v) = b.get_own(name) {
            return Some(v);
        }
        cur = b.parent.clone();
    }
    None
}

/// Assigns to the nearest binding of `name`; if none exists, creates a
/// global binding on the outermost scope (sloppy-mode JavaScript).
pub fn assign(scope: &ScopeRef, name: &str, v: Value) {
    let mut cur = scope.clone();
    loop {
        {
            let mut b = cur.borrow_mut();
            if b.set_own(name, v.clone()) {
                return;
            }
        }
        let parent = cur.borrow().parent.clone();
        match parent {
            Some(p) => cur = p,
            None => {
                cur.borrow_mut().declare(name, v);
                return;
            }
        }
    }
}

/// Finds the `this` binding by walking to the nearest non-arrow function
/// (or module/global) scope.
pub fn this_value(scope: &ScopeRef) -> Value {
    let mut cur = Some(scope.clone());
    while let Some(s) = cur {
        let b = s.borrow();
        if let Some(t) = &b.this_val {
            return t.clone();
        }
        cur = b.parent.clone();
    }
    Value::Undefined
}

/// Finds the nearest scope that `var` declarations hoist to (function,
/// module or global scope).
pub fn hoist_target(scope: &ScopeRef) -> ScopeRef {
    let mut cur = scope.clone();
    loop {
        let kind = cur.borrow().kind;
        match kind {
            ScopeKind::Block | ScopeKind::Arrow => {
                let parent = cur.borrow().parent.clone();
                match parent {
                    Some(p) => cur = p,
                    None => return cur,
                }
            }
            _ => return cur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_walks_chain() {
        let global = Scope::new(ScopeKind::Global, None);
        global.borrow_mut().declare("x", Value::Num(1.0));
        let inner = Scope::new(ScopeKind::Function, Some(global.clone()));
        inner.borrow_mut().declare("y", Value::Num(2.0));
        assert!(lookup(&inner, "x").is_some());
        assert!(lookup(&inner, "y").is_some());
        assert!(lookup(&global, "y").is_none());
        assert!(lookup(&inner, "z").is_none());
    }

    #[test]
    fn assign_updates_nearest_binding() {
        let global = Scope::new(ScopeKind::Global, None);
        global.borrow_mut().declare("x", Value::Num(1.0));
        let inner = Scope::new(ScopeKind::Block, Some(global.clone()));
        assign(&inner, "x", Value::Num(5.0));
        assert!(matches!(lookup(&global, "x"), Some(Value::Num(n)) if n == 5.0));
    }

    #[test]
    fn assign_creates_implicit_global() {
        let global = Scope::new(ScopeKind::Global, None);
        let inner = Scope::new(ScopeKind::Function, Some(global.clone()));
        assign(&inner, "implicit", Value::Num(9.0));
        assert!(global.borrow().has_own("implicit"));
    }

    #[test]
    fn this_skips_arrow_scopes() {
        let global = Scope::new(ScopeKind::Global, None);
        let func = Scope::new(ScopeKind::Function, Some(global));
        func.borrow_mut().this_val = Some(Value::Num(7.0));
        let arrow = Scope::new(ScopeKind::Arrow, Some(func));
        let block = Scope::new(ScopeKind::Block, Some(arrow));
        assert!(matches!(this_value(&block), Value::Num(n) if n == 7.0));
    }

    #[test]
    fn hoist_target_skips_blocks() {
        let global = Scope::new(ScopeKind::Global, None);
        let func = Scope::new(ScopeKind::Function, Some(global));
        let block = Scope::new(ScopeKind::Block, Some(func.clone()));
        let inner_block = Scope::new(ScopeKind::Block, Some(block));
        let t = hoist_target(&inner_block);
        assert!(Rc::ptr_eq(&t, &func));
    }
}
