//! Property access (with prototype chains, accessors, proxies and
//! primitive wrappers) and the conversions that need heap access.

use crate::builtins;
use crate::convert::{prim_loose_eq, prim_to_number, prim_to_string};
use crate::error::JsError;
use crate::heap::{ObjKind, Prop, PropValue};
use crate::machine::Interp;
use crate::value::Value;
use aji_ast::Loc;

// The `to_*` conversions below convert their *argument*, not `self`; they
// take `&mut self` because getters/`toString` may run user code.
#[allow(clippy::wrong_self_convention)]
impl Interp {
    /// JavaScript truthiness (objects, including the proxy, are truthy).
    pub(crate) fn truthy(&self, v: &Value) -> bool {
        v.is_truthy()
    }

    /// `typeof v`.
    pub(crate) fn type_of(&self, v: &Value) -> &'static str {
        match v {
            Value::Obj(id) => {
                if self.heap.get(*id).kind.is_callable() {
                    "function"
                } else {
                    "object"
                }
            }
            other => other.type_of_non_callable(),
        }
    }

    /// Reads a property from any value (objects, proxies, primitives).
    ///
    /// `_op_loc` is the location of the triggering operation when it is a
    /// dynamic read (kept for symmetry; hint recording happens in the
    /// caller).
    pub(crate) fn get_property(
        &mut self,
        base: Value,
        key: &str,
        _op_loc: Option<Loc>,
    ) -> Result<Value, JsError> {
        match &base {
            Value::Obj(id) => {
                let id = *id;
                match &self.heap.get(id).kind {
                    // Rule: property reads on p* yield p*.
                    ObjKind::Proxy => {
                        self.obs.proxy_ops.inc();
                        return Ok(self.proxy_value());
                    }
                    ObjKind::Array(elems) if key == "length" => {
                        return Ok(Value::Num(elems.len() as f64));
                    }
                    ObjKind::Function(_) | ObjKind::Native(_)
                        if key == "prototype" && self.heap.own_prop(id, "prototype").is_none() =>
                    {
                        let p = self.function_prototype(id);
                        return Ok(Value::Obj(p));
                    }
                    _ => {}
                }
                match self.heap.lookup(id, key) {
                    Some((Prop { value, .. }, _owner)) => match value {
                        PropValue::Data(v) => Ok(v),
                        PropValue::Accessor { get, .. } => match get {
                            Some(g) => self.call_value(g, base.clone(), &[], None),
                            None => Ok(Value::Undefined),
                        },
                    },
                    None => {
                        // Sandbox mocks: any missing property is the mock
                        // itself, keeping chained Node API usage alive.
                        if self.heap.own_prop(id, "__mock__").is_some() {
                            return Ok(Value::Obj(id));
                        }
                        // §3 receiver wrappers delegate misses to p*.
                        if self.heap.lookup(id, "__proxy_fallback__").is_some() {
                            return Ok(self.proxy_value());
                        }
                        Ok(Value::Undefined)
                    }
                }
            }
            Value::Str(s) => {
                if key == "length" {
                    return Ok(Value::Num(s.chars().count() as f64));
                }
                if let Some(idx) = crate::heap::array_index(key) {
                    return Ok(s
                        .chars()
                        .nth(idx)
                        .map(|c| Value::str(c.to_string()))
                        .unwrap_or(Value::Undefined));
                }
                self.proto_lookup(self.protos.string, base.clone(), key)
            }
            Value::Num(_) => self.proto_lookup(self.protos.number, base.clone(), key),
            Value::Bool(_) => self.proto_lookup(self.protos.boolean, base.clone(), key),
            Value::Undefined | Value::Null => {
                if self.opts.approx {
                    // Keep forced execution going.
                    Ok(self.proxy_value())
                } else {
                    Err(self.throw_error(
                        "TypeError",
                        format!("Cannot read properties of {} (reading '{}')", base, key),
                    ))
                }
            }
        }
    }

    /// Reports one property access to the tracer when
    /// [`crate::InterpOptions::observe_props`] is on: the receiver's
    /// own-key shape plus whether the lookup would find `name` anywhere on
    /// the prototype chain. Only plain objects report — proxies, §3
    /// receiver wrappers and sandbox mocks answer every key by design, so
    /// a "miss" on them is a modeling artifact, not program behavior.
    pub(crate) fn observe_prop_access(&mut self, site: Option<Loc>, base: &Value, name: &str) {
        let Some(id) = base.as_obj() else { return };
        if matches!(self.heap.get(id).kind, ObjKind::Proxy)
            || self.heap.own_prop(id, "__mock__").is_some()
            || self.heap.lookup(id, "__proxy_fallback__").is_some()
        {
            return;
        }
        let found = self.heap.lookup(id, name).is_some();
        let shape = self.heap.own_keys(id);
        self.tracer.on_prop_access(site, name, &shape, found);
    }

    fn proto_lookup(
        &mut self,
        proto: crate::value::ObjId,
        this: Value,
        key: &str,
    ) -> Result<Value, JsError> {
        match self.heap.lookup(proto, key) {
            Some((Prop { value, .. }, _)) => match value {
                PropValue::Data(v) => Ok(v),
                PropValue::Accessor { get, .. } => match get {
                    Some(g) => self.call_value(g, this, &[], None),
                    None => Ok(Value::Undefined),
                },
            },
            None => Ok(Value::Undefined),
        }
    }

    /// Writes a property on any value (setter dispatch, proxies ignored,
    /// primitives ignored).
    pub(crate) fn set_property(
        &mut self,
        base: &Value,
        key: &str,
        v: Value,
    ) -> Result<(), JsError> {
        let Some(id) = base.as_obj() else {
            if base.is_nullish() && !self.opts.approx {
                return Err(
                    self.throw_error("TypeError", format!("Cannot set properties of {}", base))
                );
            }
            return Ok(()); // writes to primitives are silently dropped
        };
        if matches!(self.heap.get(id).kind, ObjKind::Proxy) {
            // Rule: writes on p* are ignored.
            return Ok(());
        }
        // Setter anywhere on the prototype chain wins.
        if let Some((
            Prop {
                value: PropValue::Accessor { set, .. },
                ..
            },
            _,
        )) = self.heap.lookup(id, key)
        {
            if let Some(s) = set {
                self.call_value(s, base.clone(), &[v], None)?;
            }
            return Ok(());
        }
        self.heap.set_prop(id, key, v);
        Ok(())
    }

    /// `ToPrimitive` (number hint by default; JavaScript's `toString` /
    /// `valueOf` protocol, approximated).
    pub(crate) fn to_primitive(&mut self, v: &Value) -> Result<Value, JsError> {
        let Some(id) = v.as_obj() else {
            return Ok(v.clone());
        };
        match &self.heap.get(id).kind {
            ObjKind::Proxy => Ok(Value::str("")),
            ObjKind::Array(_) => self.nested(|i| builtins::join(i, v, ",")),
            ObjKind::Function(_) | ObjKind::Native(_) => {
                Ok(Value::str("function () { [native code] }"))
            }
            ObjKind::Plain => {
                // valueOf first (for Date-like objects), then toString.
                for m in ["valueOf", "toString"] {
                    if let Some((
                        Prop {
                            value: PropValue::Data(f),
                            ..
                        },
                        _,
                    )) = self.heap.lookup(id, m)
                    {
                        if self.heap.is_callable(&f) {
                            let r = self.call_value(f, v.clone(), &[], None)?;
                            if !matches!(r, Value::Obj(_)) {
                                return Ok(r);
                            }
                        }
                    }
                }
                Ok(Value::str("[object Object]"))
            }
        }
    }

    /// `ToString` with heap access (objects go through `ToPrimitive`).
    pub(crate) fn to_string_value(&mut self, v: &Value) -> String {
        match v {
            Value::Obj(_) => match self.to_primitive(v) {
                Ok(p) if !matches!(p, Value::Obj(_)) => prim_to_string(&p),
                _ => "[object Object]".to_string(),
            },
            other => prim_to_string(other),
        }
    }

    /// `ToNumber` with heap access.
    pub(crate) fn to_number_value(&mut self, v: &Value) -> Result<f64, JsError> {
        match v {
            Value::Obj(_) => {
                let p = self.to_primitive(v)?;
                Ok(prim_to_number(&p))
            }
            other => Ok(prim_to_number(other)),
        }
    }

    /// Loose equality with `ToPrimitive` on object operands.
    pub(crate) fn loose_eq(&mut self, a: &Value, b: &Value) -> Result<bool, JsError> {
        match (a, b) {
            (Value::Obj(x), Value::Obj(y)) => Ok(x == y),
            (Value::Obj(_), _) => {
                if b.is_nullish() {
                    return Ok(false);
                }
                let ap = self.to_primitive(a)?;
                Ok(prim_loose_eq(&ap, b))
            }
            (_, Value::Obj(_)) => {
                if a.is_nullish() {
                    return Ok(false);
                }
                let bp = self.to_primitive(b)?;
                Ok(prim_loose_eq(a, &bp))
            }
            _ => Ok(prim_loose_eq(a, b)),
        }
    }
}
