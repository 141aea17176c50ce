//! The object heap: insertion-ordered property maps, prototype links,
//! array/function/native/proxy exotic objects, and per-object allocation
//! sites (the `loc` map of the paper).

use crate::env::ScopeRef;
use crate::value::{ObjId, Value};
use aji_ast::ast::Function;
use aji_ast::Loc;
use aji_support::hash::FxHashMap;
use std::rc::Rc;
use std::sync::Arc;

/// A property slot.
#[derive(Debug, Clone)]
pub struct Prop {
    /// Data value or accessor pair.
    pub value: PropValue,
    /// Whether the property shows up in `for-in` /
    /// `Object.keys`-style enumeration.
    pub enumerable: bool,
}

impl Prop {
    /// A plain enumerable data property.
    pub fn data(v: Value) -> Prop {
        Prop {
            value: PropValue::Data(v),
            enumerable: true,
        }
    }

    /// A non-enumerable data property.
    pub fn hidden(v: Value) -> Prop {
        Prop {
            value: PropValue::Data(v),
            enumerable: false,
        }
    }
}

/// Data or accessor payload of a property.
#[derive(Debug, Clone)]
pub enum PropValue {
    /// Ordinary data property.
    Data(Value),
    /// Getter/setter pair (values are function objects).
    Accessor {
        /// Getter, if any.
        get: Option<Value>,
        /// Setter, if any.
        set: Option<Value>,
    },
}

/// Entry count up to which [`OrderedMap`] scans its entries instead of
/// keeping a hash index: most objects and scopes hold a handful of
/// entries, and comparing a few short keys costs less than hashing one.
const SMALL_MAP: usize = 8;

/// Insertion-ordered string-keyed map used for object properties (and,
/// with `V = Value`, for scope bindings).
///
/// JavaScript enumeration order matters to the analyses (e.g. the order in
/// which `Object.getOwnPropertyNames` yields methods drives the order of
/// recorded hints), so a plain `HashMap` is not enough.
///
/// Deleting a key leaves a tombstone in `entries`, so a re-inserted key
/// moves to the end. Up to eight entries (tombstones included),
/// lookups scan `entries`; past that, `index` maps every live key to its
/// position.
#[derive(Debug, Clone)]
pub struct OrderedMap<V = Prop> {
    index: FxHashMap<Rc<str>, usize>,
    entries: Vec<(Rc<str>, Option<V>)>,
    live: usize,
}

impl<V> Default for OrderedMap<V> {
    fn default() -> Self {
        OrderedMap {
            index: FxHashMap::default(),
            entries: Vec::new(),
            live: 0,
        }
    }
}

impl<V> OrderedMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        OrderedMap::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the map has no live entries.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn indexed(&self) -> bool {
        self.entries.len() > SMALL_MAP
    }

    /// Position of the live entry for `key`.
    fn position(&self, key: &str) -> Option<usize> {
        if self.indexed() {
            self.index.get(key).copied()
        } else {
            self.entries
                .iter()
                .position(|(k, p)| p.is_some() && &**k == key)
        }
    }

    /// Looks up the value of `key`.
    pub fn get(&self, key: &str) -> Option<&V> {
        let i = self.position(key)?;
        self.entries[i].1.as_ref()
    }

    /// Looks up the value of `key` mutably.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut V> {
        let i = self.position(key)?;
        self.entries[i].1.as_mut()
    }

    /// Inserts or replaces the value of `key`, preserving the original
    /// insertion position on replacement (as JavaScript does).
    pub fn insert(&mut self, key: Rc<str>, value: V) {
        if let Some(i) = self.position(&key) {
            self.entries[i].1 = Some(value);
            return;
        }
        self.live += 1;
        if self.indexed() {
            self.index.insert(key.clone(), self.entries.len());
            self.entries.push((key, Some(value)));
            return;
        }
        self.entries.push((key, Some(value)));
        if self.indexed() {
            self.index = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| p.is_some())
                .map(|(i, (k, _))| (k.clone(), i))
                .collect();
        }
    }

    /// Deletes `key`. Returns whether it existed.
    pub fn remove(&mut self, key: &str) -> bool {
        let Some(i) = self.position(key) else {
            return false;
        };
        self.entries[i].1 = None;
        if self.indexed() {
            self.index.remove(key);
        }
        self.live -= 1;
        true
    }

    /// Whether `key` has a live entry.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Iterates live `(key, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&Rc<str>, &V)> {
        self.entries
            .iter()
            .filter_map(|(k, p)| p.as_ref().map(|p| (k, p)))
    }

    /// Live keys in insertion order.
    pub fn keys(&self) -> Vec<Rc<str>> {
        self.iter().map(|(k, _)| k.clone()).collect()
    }
}

/// Closure data of a user-defined function object.
#[derive(Debug, Clone)]
pub struct FuncData {
    /// The function definition: the parse's own node for parsed code,
    /// shared by every closure of that definition (its `id` is the
    /// definition's identity for tracers and the approximate
    /// interpreter's `Visited` set).
    pub def: Arc<Function>,
    /// The definition's source location, reported to tracers on every
    /// call. A parsed definition has one exactly when it lies in a
    /// project file, so prelude, `eval` and `Function` code has none. Of
    /// the synthesized definitions, a default class constructor takes the
    /// class's allocation site and a class-field initializer thunk has
    /// none.
    pub def_loc: Option<Loc>,
    /// Captured defining scope.
    pub env: ScopeRef,
    /// Bound `this` (from `Function.prototype.bind` or class semantics).
    pub bound_this: Option<Box<Value>>,
    /// Bound leading arguments (from `bind`).
    pub bound_args: Vec<Value>,
    /// If this function is a class constructor, the superclass constructor.
    pub super_ctor: Option<Box<Value>>,
    /// Home prototype object for `super.m()` resolution in methods.
    pub home_proto: Option<ObjId>,
}

/// What kind of object this is.
#[derive(Debug, Clone)]
pub enum ObjKind {
    /// Ordinary object.
    Plain,
    /// Array exotic object; dense elements live in the vector, sparse and
    /// named properties in the ordinary map.
    Array(Vec<Value>),
    /// User-defined function (closure).
    Function(Box<FuncData>),
    /// Built-in function, identified by its index in the static native
    /// table (`builtins::NATIVE_TABLE`).
    Native(u32),
    /// The approximate-interpretation proxy `p*` (or a wrapper delegating
    /// to it): all operations succeed and yield the proxy again.
    Proxy,
}

impl ObjKind {
    /// Whether this object can be called.
    pub fn is_callable(&self) -> bool {
        matches!(
            self,
            ObjKind::Function(_) | ObjKind::Native(_) | ObjKind::Proxy
        )
    }
}

/// A heap object.
#[derive(Debug, Clone)]
pub struct Object {
    /// Exotic behavior.
    pub kind: ObjKind,
    /// Named properties (insertion-ordered).
    pub props: OrderedMap,
    /// Prototype link.
    pub proto: Option<ObjId>,
    /// Allocation site, if the object was created by statically known code
    /// (the paper's `loc` map; `None` inside `eval`'d code).
    pub born_at: Option<Loc>,
}

impl Object {
    fn new(kind: ObjKind) -> Object {
        Object {
            kind,
            props: OrderedMap::new(),
            proto: None,
            born_at: None,
        }
    }
}

/// The garbage-free object heap (objects live for the whole analysis run,
/// which is what the analyses want: allocation sites must stay addressable).
#[derive(Debug, Default, Clone)]
pub struct Heap {
    objects: Vec<Object>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of objects ever allocated.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates an object of the given kind.
    pub fn alloc(&mut self, kind: ObjKind) -> ObjId {
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(Object::new(kind));
        id
    }

    /// Allocates a plain object with a prototype and allocation site.
    pub fn alloc_plain(&mut self, proto: Option<ObjId>, born_at: Option<Loc>) -> ObjId {
        let id = self.alloc(ObjKind::Plain);
        self.objects[id.index()].proto = proto;
        self.objects[id.index()].born_at = born_at;
        id
    }

    /// Shared view of an object.
    pub fn get(&self, id: ObjId) -> &Object {
        &self.objects[id.index()]
    }

    /// Mutable view of an object.
    pub fn get_mut(&mut self, id: ObjId) -> &mut Object {
        &mut self.objects[id.index()]
    }

    /// Whether the value is a callable object.
    pub fn is_callable(&self, v: &Value) -> bool {
        v.as_obj().map(|id| self.get(id).kind.is_callable()) == Some(true)
    }

    /// Whether the value is the proxy (or a proxy-delegating wrapper).
    pub fn is_proxy(&self, v: &Value) -> bool {
        v.as_obj()
            .map(|id| matches!(self.get(id).kind, ObjKind::Proxy))
            == Some(true)
    }

    /// Looks up an own property, taking array elements into account.
    pub fn own_prop(&self, id: ObjId, key: &str) -> Option<Prop> {
        let obj = self.get(id);
        if let ObjKind::Array(elems) = &obj.kind {
            if key == "length" {
                return Some(Prop::hidden(Value::Num(elems.len() as f64)));
            }
            if let Some(idx) = array_index(key) {
                if idx < elems.len() {
                    return Some(Prop::data(elems[idx].clone()));
                }
            }
        }
        obj.props.get(key).cloned()
    }

    /// Looks up a property along the prototype chain. Returns the property
    /// and the object that owns it.
    pub fn lookup(&self, id: ObjId, key: &str) -> Option<(Prop, ObjId)> {
        let mut cur = Some(id);
        let mut hops = 0;
        while let Some(o) = cur {
            if let Some(p) = self.own_prop(o, key) {
                return Some((p, o));
            }
            cur = self.get(o).proto;
            hops += 1;
            if hops > 64 {
                break; // cyclic prototype chain guard
            }
        }
        None
    }

    /// Sets a data property directly on the object (no setter dispatch;
    /// callers that need setters go through the interpreter).
    pub fn set_prop(&mut self, id: ObjId, key: &str, v: Value) {
        let obj = self.get_mut(id);
        if let ObjKind::Array(elems) = &mut obj.kind {
            if key == "length" {
                if let Value::Num(n) = v {
                    let n = n.max(0.0) as usize;
                    elems.resize(n, Value::Undefined);
                }
                return;
            }
            if let Some(idx) = array_index(key) {
                if idx < elems.len() {
                    elems[idx] = v;
                } else if idx <= elems.len() + 1024 {
                    elems.resize(idx + 1, Value::Undefined);
                    elems[idx] = v;
                } else {
                    // Excessively sparse write: store as a named property.
                    obj.props.insert(Rc::from(key), Prop::data(v));
                }
                return;
            }
        }
        obj.props.insert(Rc::from(key), Prop::data(v));
    }

    /// Deletes an own property. Returns whether it existed.
    pub fn delete_prop(&mut self, id: ObjId, key: &str) -> bool {
        let obj = self.get_mut(id);
        if let ObjKind::Array(elems) = &mut obj.kind {
            if let Some(idx) = array_index(key) {
                if idx < elems.len() {
                    elems[idx] = Value::Undefined;
                    return true;
                }
            }
        }
        obj.props.remove(key)
    }

    /// Own enumerable property names, arrays first listing their indices.
    pub fn own_enumerable_keys(&self, id: ObjId) -> Vec<Rc<str>> {
        let obj = self.get(id);
        let mut keys = Vec::new();
        if let ObjKind::Array(elems) = &obj.kind {
            for i in 0..elems.len() {
                keys.push(Rc::from(i.to_string().as_str()));
            }
        }
        for (k, p) in obj.props.iter() {
            if p.enumerable {
                keys.push(k.clone());
            }
        }
        keys
    }

    /// All own property names (enumerable or not), like
    /// `Object.getOwnPropertyNames` minus `length`-style synthetics.
    pub fn own_keys(&self, id: ObjId) -> Vec<Rc<str>> {
        let obj = self.get(id);
        let mut keys = Vec::new();
        if let ObjKind::Array(elems) = &obj.kind {
            for i in 0..elems.len() {
                keys.push(Rc::from(i.to_string().as_str()));
            }
        }
        for (k, _) in obj.props.iter() {
            keys.push(k.clone());
        }
        keys
    }
}

/// Parses a canonical array index from a property key.
pub fn array_index(key: &str) -> Option<usize> {
    if key.is_empty() || key.len() > 10 {
        return None;
    }
    if key == "0" {
        return Some(0);
    }
    if key.starts_with('0') {
        return None;
    }
    if !key.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    key.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_preserves_insertion_order() {
        let mut m = OrderedMap::new();
        m.insert(Rc::from("b"), Prop::data(Value::Num(1.0)));
        m.insert(Rc::from("a"), Prop::data(Value::Num(2.0)));
        m.insert(Rc::from("c"), Prop::data(Value::Num(3.0)));
        // Replacement keeps position.
        m.insert(Rc::from("a"), Prop::data(Value::Num(9.0)));
        let keys: Vec<String> = m.keys().iter().map(|k| k.to_string()).collect();
        assert_eq!(keys, vec!["b", "a", "c"]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn ordered_map_remove_and_reinsert() {
        let mut m = OrderedMap::new();
        m.insert(Rc::from("x"), Prop::data(Value::Num(1.0)));
        assert!(m.remove("x"));
        assert!(!m.remove("x"));
        assert!(!m.contains("x"));
        assert_eq!(m.len(), 0);
        m.insert(Rc::from("x"), Prop::data(Value::Num(2.0)));
        assert!(m.contains("x"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn array_element_access() {
        let mut h = Heap::new();
        let a = h.alloc(ObjKind::Array(vec![Value::Num(10.0), Value::Num(20.0)]));
        let p = h.own_prop(a, "1").unwrap();
        assert!(matches!(p.value, PropValue::Data(Value::Num(n)) if n == 20.0));
        let len = h.own_prop(a, "length").unwrap();
        assert!(matches!(len.value, PropValue::Data(Value::Num(n)) if n == 2.0));
        h.set_prop(a, "5", Value::Num(50.0));
        let len = h.own_prop(a, "length").unwrap();
        assert!(matches!(len.value, PropValue::Data(Value::Num(n)) if n == 6.0));
    }

    #[test]
    fn array_length_truncation() {
        let mut h = Heap::new();
        let a = h.alloc(ObjKind::Array(vec![
            Value::Num(1.0),
            Value::Num(2.0),
            Value::Num(3.0),
        ]));
        h.set_prop(a, "length", Value::Num(1.0));
        let len = h.own_prop(a, "length").unwrap();
        assert!(matches!(len.value, PropValue::Data(Value::Num(n)) if n == 1.0));
    }

    #[test]
    fn prototype_chain_lookup() {
        let mut h = Heap::new();
        let proto = h.alloc_plain(None, None);
        h.set_prop(proto, "shared", Value::Num(42.0));
        let obj = h.alloc_plain(Some(proto), None);
        let (p, owner) = h.lookup(obj, "shared").unwrap();
        assert_eq!(owner, proto);
        assert!(matches!(p.value, PropValue::Data(Value::Num(n)) if n == 42.0));
        assert!(h.lookup(obj, "missing").is_none());
    }

    #[test]
    fn cyclic_prototype_chain_does_not_hang() {
        let mut h = Heap::new();
        let a = h.alloc_plain(None, None);
        let b = h.alloc_plain(Some(a), None);
        h.get_mut(a).proto = Some(b);
        assert!(h.lookup(a, "nope").is_none());
    }

    #[test]
    fn array_index_parsing() {
        assert_eq!(array_index("0"), Some(0));
        assert_eq!(array_index("42"), Some(42));
        assert_eq!(array_index("01"), None);
        assert_eq!(array_index("-1"), None);
        assert_eq!(array_index("abc"), None);
        assert_eq!(array_index(""), None);
        assert_eq!(array_index("99999999999999999"), None);
    }

    #[test]
    fn delete_props() {
        let mut h = Heap::new();
        let o = h.alloc_plain(None, None);
        h.set_prop(o, "k", Value::Num(1.0));
        assert!(h.delete_prop(o, "k"));
        assert!(h.own_prop(o, "k").is_none());
    }

    #[test]
    fn enumerable_keys_skip_hidden() {
        let mut h = Heap::new();
        let o = h.alloc_plain(None, None);
        h.set_prop(o, "a", Value::Num(1.0));
        h.get_mut(o)
            .props
            .insert(Rc::from("secret"), Prop::hidden(Value::Num(2.0)));
        let keys: Vec<String> = h
            .own_enumerable_keys(o)
            .iter()
            .map(|k| k.to_string())
            .collect();
        assert_eq!(keys, vec!["a"]);
        let all: Vec<String> = h.own_keys(o).iter().map(|k| k.to_string()).collect();
        assert_eq!(all, vec!["a", "secret"]);
    }
}
