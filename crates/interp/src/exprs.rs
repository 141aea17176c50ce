//! Expression evaluation, including the dynamic-property-access
//! instrumentation points that drive the approximate interpreter's hints.

use crate::convert::{prim_to_number, to_int32, to_uint32};
use crate::env::{self, ScopeRef};
use crate::error::JsError;
use crate::heap::{FuncData, ObjKind, Prop, PropValue};
use crate::machine::Interp;
use crate::value::{ObjId, Value};
use aji_ast::ast::*;
use std::rc::Rc;
use std::sync::Arc;

impl Interp {
    /// Evaluates an expression in a scope.
    pub(crate) fn eval_expr(&mut self, e: &Expr, scope: &ScopeRef) -> Result<Value, JsError> {
        self.step()?;
        match &e.kind {
            ExprKind::Num(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::str(s)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Template { quasis, exprs } => {
                let mut out = String::new();
                for (i, q) in quasis.iter().enumerate() {
                    out.push_str(q);
                    if i < exprs.len() {
                        let v = self.eval_expr(&exprs[i], scope)?;
                        out.push_str(&self.to_string_value(&v));
                    }
                }
                Ok(Value::from(out))
            }
            ExprKind::Regex { pattern, flags } => {
                let loc = self.static_loc(e.span);
                let obj = self.heap.alloc_plain(Some(self.protos.regexp), loc);
                self.tracer.on_alloc(loc);
                self.heap.set_prop(obj, "source", Value::str(pattern));
                self.heap.set_prop(obj, "flags", Value::str(flags));
                self.heap
                    .set_prop(obj, "lastIndex", Value::Num(0.0));
                Ok(Value::Obj(obj))
            }
            ExprKind::Ident(name) => self.eval_ident(name, scope),
            ExprKind::This => Ok(env::this_value(scope)),
            ExprKind::Array(elems) => {
                let mut out = Vec::with_capacity(elems.len());
                for el in elems {
                    match el {
                        None => out.push(Value::Undefined),
                        Some(ExprOrSpread { spread: false, expr }) => {
                            out.push(self.eval_expr(expr, scope)?)
                        }
                        Some(ExprOrSpread { spread: true, expr }) => {
                            let v = self.eval_expr(expr, scope)?;
                            out.extend(self.iterate_values(&v)?);
                        }
                    }
                }
                let loc = self.static_loc(e.span);
                let arr = self.heap.alloc(ObjKind::Array(out));
                self.heap.get_mut(arr).proto = Some(self.protos.array);
                self.heap.get_mut(arr).born_at = loc;
                self.tracer.on_alloc(loc);
                Ok(Value::Obj(arr))
            }
            ExprKind::Object(props) => self.eval_object_literal(e, props, scope),
            ExprKind::Function(f) | ExprKind::Arrow(f) => Ok(self.make_closure(f, scope)),
            ExprKind::Class(c) => self.eval_class(c, scope),
            ExprKind::Unary { op, expr } => self.eval_unary(*op, expr, scope),
            ExprKind::Update { op, prefix, expr } => {
                let old = self.eval_expr(expr, scope)?;
                let old_n = self.to_number_value(&old)?;
                let new_n = match op {
                    UpdateOp::Inc => old_n + 1.0,
                    UpdateOp::Dec => old_n - 1.0,
                };
                self.assign_to_expr(expr, Value::Num(new_n), scope)?;
                Ok(Value::Num(if *prefix { new_n } else { old_n }))
            }
            ExprKind::Binary { op, left, right } => {
                let l = self.eval_expr(left, scope)?;
                let r = self.eval_expr(right, scope)?;
                self.eval_binary(*op, l, r)
            }
            ExprKind::Logical { op, left, right } => {
                let l = self.eval_expr(left, scope)?;
                let take_right = match op {
                    LogicalOp::And => self.truthy(&l),
                    LogicalOp::Or => !self.truthy(&l),
                    LogicalOp::Nullish => l.is_nullish(),
                };
                if take_right {
                    self.eval_expr(right, scope)
                } else {
                    Ok(l)
                }
            }
            ExprKind::Assign { op, target, value } => {
                if *op == AssignOp::Assign {
                    let v = self.eval_expr(value, scope)?;
                    self.assign_to_target(target, v.clone(), scope)?;
                    return Ok(v);
                }
                // Compound assignment: read-modify-write.
                let target_expr = match target {
                    AssignTarget::Ident { name, span, id } => Expr {
                        id: *id,
                        span: *span,
                        kind: ExprKind::Ident(name.clone()),
                    },
                    AssignTarget::Member(m) => (**m).clone(),
                    AssignTarget::Pattern(p) => {
                        return Err(JsError::Internal(format!(
                            "compound assignment to pattern at {:?}",
                            p.span
                        )))
                    }
                };
                let old = self.eval_expr(&target_expr, scope)?;
                let new = match op {
                    AssignOp::And => {
                        if self.truthy(&old) {
                            self.eval_expr(value, scope)?
                        } else {
                            return Ok(old);
                        }
                    }
                    AssignOp::Or => {
                        if !self.truthy(&old) {
                            self.eval_expr(value, scope)?
                        } else {
                            return Ok(old);
                        }
                    }
                    AssignOp::Nullish => {
                        if old.is_nullish() {
                            self.eval_expr(value, scope)?
                        } else {
                            return Ok(old);
                        }
                    }
                    _ => {
                        let r = self.eval_expr(value, scope)?;
                        let bop = op
                            .binary_op()
                            .expect("compound assignment with binary op");
                        self.eval_binary(bop, old, r)?
                    }
                };
                self.assign_to_expr(&target_expr, new.clone(), scope)?;
                Ok(new)
            }
            ExprKind::Cond { test, cons, alt } => {
                let t = self.eval_expr(test, scope)?;
                if self.truthy(&t) {
                    self.eval_expr(cons, scope)
                } else {
                    self.eval_expr(alt, scope)
                }
            }
            ExprKind::Call {
                callee,
                args,
                optional,
            } => self.eval_call(e, callee, args, *optional, scope),
            ExprKind::New { callee, args } => {
                let c = self.eval_expr(callee, scope)?;
                let argv = self.eval_args(args, scope)?;
                let site = self.static_loc(e.span);
                self.construct(c, &argv, site, site)
            }
            ExprKind::Member {
                obj,
                prop,
                optional,
            } => {
                let base = self.eval_expr(obj, scope)?;
                if *optional && base.is_nullish() {
                    return Ok(Value::Undefined);
                }
                self.eval_member_read(e, &base, prop, scope)
            }
            ExprKind::Seq(exprs) => {
                let mut last = Value::Undefined;
                for x in exprs {
                    last = self.eval_expr(x, scope)?;
                }
                Ok(last)
            }
            ExprKind::Paren(inner) => self.eval_expr(inner, scope),
        }
    }

    /// Whether `eval` in this scope still refers to the builtin.
    fn resolves_to_global_eval(&self, scope: &ScopeRef) -> bool {
        match env::lookup(scope, "eval") {
            Some(Value::Obj(id)) => match &self.heap.get(id).kind {
                crate::heap::ObjKind::Native(n) => {
                    self.natives[*n as usize].name == "global_eval"
                }
                _ => false,
            },
            _ => false,
        }
    }

    pub(crate) fn eval_ident(&mut self, name: &str, scope: &ScopeRef) -> Result<Value, JsError> {
        match name {
            "undefined" => return Ok(Value::Undefined),
            "NaN" => return Ok(Value::Num(f64::NAN)),
            "Infinity" => return Ok(Value::Num(f64::INFINITY)),
            "globalThis" | "global" => return Ok(self.global_object()),
            _ => {}
        }
        if let Some(v) = env::lookup(scope, name) {
            return Ok(v);
        }
        // Fall back to global-object properties (builtins are installed
        // both as scope bindings and there, but user code can add more).
        if let Some(p) = self.heap.own_prop(self.global_obj, name) {
            if let PropValue::Data(v) = p.value {
                return Ok(v);
            }
        }
        if self.opts.approx {
            // Unknown free variable: represent with the proxy and keep
            // exploring (§3 of the paper).
            Ok(self.proxy_value())
        } else {
            Err(self.throw_error("ReferenceError", format!("{name} is not defined")))
        }
    }

    fn eval_object_literal(
        &mut self,
        e: &Expr,
        props: &[Property],
        scope: &ScopeRef,
    ) -> Result<Value, JsError> {
        let loc = self.static_loc(e.span);
        let obj = self.heap.alloc_plain(Some(self.protos.object), loc);
        self.tracer.on_alloc(loc);
        let objv = Value::Obj(obj);
        for p in props {
            match p {
                Property::KeyValue { key, value } => {
                    let v = self.eval_expr(value, scope)?;
                    match key {
                        PropName::Computed(kexpr) => {
                            // A computed key in a literal is a dynamic
                            // property write.
                            let kv = self.eval_expr(kexpr, scope)?;
                            if self.heap.is_proxy(&kv) {
                                continue;
                            }
                            let k = self.to_string_value(&kv);
                            let op_loc = self.static_loc(e.span);
                            let obj_loc = self.loc_of(&objv);
                            let val_loc = self.loc_of(&v);
                            self.tracer
                                .on_dynamic_write(op_loc, obj_loc, &k, val_loc, &v);
                            self.heap.set_prop(obj, &k, v);
                        }
                        _ => {
                            let k = key.static_name().unwrap_or_default();
                            self.tracer.on_static_write(&objv, &k, &v);
                            self.heap.set_prop(obj, &k, v);
                        }
                    }
                }
                Property::Method { key, kind, func } => {
                    let f = self.make_closure(func, scope);
                    let k = match key {
                        PropName::Computed(kexpr) => {
                            let kv = self.eval_expr(kexpr, scope)?;
                            if self.heap.is_proxy(&kv) {
                                continue;
                            }
                            self.to_string_value(&kv)
                        }
                        _ => key.static_name().unwrap_or_default(),
                    };
                    match kind {
                        MethodKind::Method => {
                            self.tracer.on_static_write(&objv, &k, &f);
                            self.heap.set_prop(obj, &k, f);
                        }
                        MethodKind::Get | MethodKind::Set => {
                            let existing = self.heap.get(obj).props.get(&k).cloned();
                            let (mut get, mut set) = match existing {
                                Some(Prop {
                                    value: PropValue::Accessor { get, set },
                                    ..
                                }) => (get, set),
                                _ => (None, None),
                            };
                            if *kind == MethodKind::Get {
                                get = Some(f);
                            } else {
                                set = Some(f);
                            }
                            self.heap.get_mut(obj).props.insert(
                                Rc::from(k.as_str()),
                                Prop {
                                    value: PropValue::Accessor { get, set },
                                    enumerable: true,
                                },
                            );
                        }
                    }
                }
                Property::Spread(inner) => {
                    let src = self.eval_expr(inner, scope)?;
                    if let Some(sid) = src.as_obj() {
                        if !matches!(self.heap.get(sid).kind, ObjKind::Proxy) {
                            for k in self.heap.own_enumerable_keys(sid) {
                                let v = self.get_property(src.clone(), &k, None)?;
                                self.heap.set_prop(obj, &k, v);
                            }
                        }
                    }
                }
            }
        }
        Ok(objv)
    }

    fn eval_unary(
        &mut self,
        op: UnaryOp,
        expr: &Expr,
        scope: &ScopeRef,
    ) -> Result<Value, JsError> {
        if op == UnaryOp::TypeOf {
            // `typeof x` on an unbound identifier yields "undefined".
            if let ExprKind::Ident(name) = &expr.unparen().kind {
                if env::lookup(scope, name).is_none()
                    && self.heap.own_prop(self.global_obj, name).is_none()
                    && !matches!(
                        name.as_str(),
                        "undefined" | "NaN" | "Infinity" | "globalThis" | "global"
                    )
                {
                    return Ok(Value::str("undefined"));
                }
            }
            let v = self.eval_expr(expr, scope)?;
            return Ok(Value::str(self.type_of(&v)));
        }
        if op == UnaryOp::Delete {
            if let ExprKind::Member { obj, prop, .. } = &expr.unparen().kind {
                let base = self.eval_expr(obj, scope)?;
                let key = match prop {
                    MemberProp::Static(n) => Some(n.clone()),
                    MemberProp::Computed(k) => {
                        let kv = self.eval_expr(k, scope)?;
                        if self.heap.is_proxy(&kv) {
                            None
                        } else {
                            Some(self.to_string_value(&kv))
                        }
                    }
                };
                if let (Some(id), Some(k)) = (base.as_obj(), key) {
                    if !matches!(self.heap.get(id).kind, ObjKind::Proxy) {
                        return Ok(Value::Bool(self.heap.delete_prop(id, &k)));
                    }
                }
                return Ok(Value::Bool(true));
            }
            let _ = self.eval_expr(expr, scope)?;
            return Ok(Value::Bool(true));
        }
        let v = self.eval_expr(expr, scope)?;
        self.unary_value(op, &v)
    }

    /// Applies a simple (non-`typeof`, non-`delete`) unary operator.
    pub(crate) fn unary_value(&mut self, op: UnaryOp, v: &Value) -> Result<Value, JsError> {
        Ok(match op {
            UnaryOp::Neg => Value::Num(-self.to_number_value(v)?),
            UnaryOp::Pos => Value::Num(self.to_number_value(v)?),
            UnaryOp::Not => Value::Bool(!self.truthy(v)),
            UnaryOp::BitNot => Value::Num(!to_int32(self.to_number_value(v)?) as f64),
            UnaryOp::Void => Value::Undefined,
            UnaryOp::TypeOf | UnaryOp::Delete => unreachable!(),
        })
    }

    pub(crate) fn eval_binary(
        &mut self,
        op: BinaryOp,
        l: Value,
        r: Value,
    ) -> Result<Value, JsError> {
        use BinaryOp::*;
        match op {
            Add => {
                let lp = self.to_primitive(&l)?;
                let rp = self.to_primitive(&r)?;
                if matches!(lp, Value::Str(_)) || matches!(rp, Value::Str(_)) {
                    let mut s = self.to_string_value(&lp);
                    s.push_str(&self.to_string_value(&rp));
                    Ok(Value::from(s))
                } else {
                    Ok(Value::Num(prim_to_number(&lp) + prim_to_number(&rp)))
                }
            }
            Sub | Mul | Div | Rem | Exp => {
                let ln = self.to_number_value(&l)?;
                let rn = self.to_number_value(&r)?;
                Ok(Value::Num(match op {
                    Sub => ln - rn,
                    Mul => ln * rn,
                    Div => ln / rn,
                    Rem => ln % rn,
                    Exp => ln.powf(rn),
                    _ => unreachable!(),
                }))
            }
            EqStrict => Ok(Value::Bool(l.strict_eq(&r))),
            NeqStrict => Ok(Value::Bool(!l.strict_eq(&r))),
            EqLoose => Ok(Value::Bool(self.loose_eq(&l, &r)?)),
            NeqLoose => Ok(Value::Bool(!self.loose_eq(&l, &r)?)),
            Lt | Le | Gt | Ge => {
                let lp = self.to_primitive(&l)?;
                let rp = self.to_primitive(&r)?;
                let b = if let (Value::Str(a), Value::Str(b)) = (&lp, &rp) {
                    match op {
                        Lt => a < b,
                        Le => a <= b,
                        Gt => a > b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    }
                } else {
                    let a = prim_to_number(&lp);
                    let b = prim_to_number(&rp);
                    match op {
                        Lt => a < b,
                        Le => a <= b,
                        Gt => a > b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    }
                };
                Ok(Value::Bool(b))
            }
            Shl | Shr | UShr | BitAnd | BitOr | BitXor => {
                let a = to_int32(self.to_number_value(&l)?);
                let b = self.to_number_value(&r)?;
                let shift = to_uint32(b) & 31;
                Ok(Value::Num(match op {
                    Shl => (a << shift) as f64,
                    Shr => (a >> shift) as f64,
                    UShr => ((a as u32) >> shift) as f64,
                    BitAnd => (a & to_int32(b)) as f64,
                    BitOr => (a | to_int32(b)) as f64,
                    BitXor => (a ^ to_int32(b)) as f64,
                    _ => unreachable!(),
                }))
            }
            In => {
                let key = self.to_string_value(&l);
                match r.as_obj() {
                    Some(id) => {
                        if matches!(self.heap.get(id).kind, ObjKind::Proxy) {
                            Ok(Value::Bool(true))
                        } else {
                            Ok(Value::Bool(self.heap.lookup(id, &key).is_some()))
                        }
                    }
                    None => {
                        if self.opts.approx {
                            Ok(Value::Bool(false))
                        } else {
                            Err(self.throw_error(
                                "TypeError",
                                "cannot use 'in' operator on non-object",
                            ))
                        }
                    }
                }
            }
            InstanceOf => {
                let (Some(oid), Some(cid)) = (l.as_obj(), r.as_obj()) else {
                    return Ok(Value::Bool(false));
                };
                if matches!(self.heap.get(cid).kind, ObjKind::Proxy) {
                    return Ok(Value::Bool(false));
                }
                let proto = match self.heap.own_prop(cid, "prototype") {
                    Some(Prop {
                        value: PropValue::Data(Value::Obj(p)),
                        ..
                    }) => p,
                    _ => return Ok(Value::Bool(false)),
                };
                let mut cur = self.heap.get(oid).proto;
                let mut hops = 0;
                while let Some(p) = cur {
                    if p == proto {
                        return Ok(Value::Bool(true));
                    }
                    cur = self.heap.get(p).proto;
                    hops += 1;
                    if hops > 64 {
                        break;
                    }
                }
                Ok(Value::Bool(false))
            }
        }
    }

    fn eval_args(
        &mut self,
        args: &[ExprOrSpread],
        scope: &ScopeRef,
    ) -> Result<Vec<Value>, JsError> {
        let mut out = Vec::with_capacity(args.len());
        for a in args {
            let v = self.eval_expr(&a.expr, scope)?;
            if a.spread {
                out.extend(self.iterate_values(&v)?);
            } else {
                out.push(v);
            }
        }
        Ok(out)
    }

    fn eval_call(
        &mut self,
        e: &Expr,
        callee: &Expr,
        args: &[ExprOrSpread],
        optional: bool,
        scope: &ScopeRef,
    ) -> Result<Value, JsError> {
        let call_site = self.static_loc(e.span);
        let callee_u = callee.unparen();

        // `super(...)` — constructor chaining.
        if let ExprKind::Ident(name) = &callee_u.kind {
            if name == "super" {
                let sc = env::lookup(scope, "%superctor%").unwrap_or(Value::Undefined);
                let this = env::this_value(scope);
                let argv = self.eval_args(args, scope)?;
                return self.call_value(sc, this, &argv, call_site);
            }
            if name == "eval" && self.resolves_to_global_eval(scope) {
                // Direct eval: run in the caller's scope.
                let argv = self.eval_args(args, scope)?;
                let code = match argv.first() {
                    Some(Value::Str(s)) => s.to_string(),
                    Some(other) => return Ok(other.clone()),
                    None => return Ok(Value::Undefined),
                };
                return self.run_eval(&code, scope);
            }
        }

        // Method call: `base.m(...)` / `base[k](...)`.
        if let ExprKind::Member {
            obj,
            prop,
            optional: member_opt,
        } = &callee_u.kind
        {
            // `super.m(...)`.
            if matches!(&obj.unparen().kind, ExprKind::Ident(n) if n == "super") {
                let sp = env::lookup(scope, "%superproto%").unwrap_or(Value::Undefined);
                let this = env::this_value(scope);
                let m = match prop {
                    MemberProp::Static(n) => self.get_property(sp, n, None)?,
                    MemberProp::Computed(k) => {
                        let kv = self.eval_expr(k, scope)?;
                        let key = self.to_string_value(&kv);
                        self.get_property(sp, &key, None)?
                    }
                };
                let argv = self.eval_args(args, scope)?;
                return self.call_value(m, this, &argv, call_site);
            }

            let base = self.eval_expr(obj, scope)?;
            if (*member_opt || optional) && base.is_nullish() {
                return Ok(Value::Undefined);
            }
            let f = self.eval_member_read(callee_u, &base, prop, scope)?;
            if optional && f.is_nullish() {
                return Ok(Value::Undefined);
            }
            let argv = self.eval_args(args, scope)?;
            return self.call_value(f, base, &argv, call_site);
        }

        let f = self.eval_expr(callee, scope)?;
        if optional && f.is_nullish() {
            return Ok(Value::Undefined);
        }
        let argv = self.eval_args(args, scope)?;
        // Plain calls receive `undefined` as `this` (module-style sloppy
        // code expecting the global object still works because the global
        // scope's `this` is the global object and `this_value` walks up).
        self.call_value(f, Value::Undefined, &argv, call_site)
    }

    /// Reads `base[prop]` / `base.prop`, recording dynamic-read events for
    /// computed properties (the paper's read hints).
    pub(crate) fn eval_member_read(
        &mut self,
        member: &Expr,
        base: &Value,
        prop: &MemberProp,
        scope: &ScopeRef,
    ) -> Result<Value, JsError> {
        match prop {
            MemberProp::Static(name) => {
                if self.opts.observe_props {
                    let site = self.static_loc(member.span);
                    self.observe_prop_access(site, base, name);
                }
                self.get_property(base.clone(), name, None)
            }
            MemberProp::Computed(kexpr) => {
                let kv = self.eval_expr(kexpr, scope)?;
                let op_loc = self.static_loc(member.span);
                self.computed_member_read(base, kv, op_loc)
            }
        }
    }

    /// Reads `base[kv]` once the key expression has been evaluated. Emits
    /// the dynamic read hint (and the proxy-base hint of the §6 extension)
    /// when the access has a static location.
    pub(crate) fn computed_member_read(
        &mut self,
        base: &Value,
        kv: Value,
        op_loc: Option<aji_ast::Loc>,
    ) -> Result<Value, JsError> {
        if self.heap.is_proxy(&kv) {
            // Unknown key: in approx mode the result is unknown.
            if self.opts.approx {
                return Ok(self.proxy_value());
            }
        }
        let key = self.to_string_value(&kv);
        if self.heap.is_proxy(base) {
            // §6 extension: unknown base, known key.
            if let Some(op_loc) = op_loc {
                if matches!(kv, Value::Str(_)) {
                    self.tracer.on_proxy_base_read(op_loc, &key);
                }
            }
        }
        if self.opts.observe_props && matches!(kv, Value::Str(_)) {
            self.observe_prop_access(op_loc, base, &key);
        }
        let result = self.get_property(base.clone(), &key, op_loc)?;
        if let Some(op_loc) = op_loc {
            let result_loc = self.loc_of(&result);
            self.tracer.on_dynamic_read(op_loc, &result, result_loc);
        }
        Ok(result)
    }

    /// Writes `base[kv] = v` once the key expression has been evaluated.
    /// Proxy keys skip the write (and the hint) entirely.
    pub(crate) fn computed_member_write(
        &mut self,
        base: &Value,
        kv: Value,
        v: Value,
        op_loc: Option<aji_ast::Loc>,
    ) -> Result<(), JsError> {
        if self.heap.is_proxy(&kv) {
            // Unknown key: skip the write (and the hint).
            return Ok(());
        }
        let key = self.to_string_value(&kv);
        let obj_loc = self.loc_of(base);
        let val_loc = self.loc_of(&v);
        self.tracer
            .on_dynamic_write(op_loc, obj_loc, &key, val_loc, &v);
        self.set_property(base, &key, v)
    }

    /// Assigns `v` to an assignment target.
    pub(crate) fn assign_to_target(
        &mut self,
        target: &AssignTarget,
        v: Value,
        scope: &ScopeRef,
    ) -> Result<(), JsError> {
        match target {
            AssignTarget::Ident { name, .. } => {
                env::assign(scope, name, v);
                Ok(())
            }
            AssignTarget::Member(m) => self.assign_to_expr(m, v, scope),
            AssignTarget::Pattern(p) => self.bind_pattern(p, v, scope, false),
        }
    }

    /// Assigns `v` to an lvalue expression (identifier or member).
    pub(crate) fn assign_to_expr(
        &mut self,
        target: &Expr,
        v: Value,
        scope: &ScopeRef,
    ) -> Result<(), JsError> {
        match &target.unparen().kind {
            ExprKind::Ident(name) => {
                env::assign(scope, name, v);
                Ok(())
            }
            ExprKind::Member { obj, prop, .. } => {
                let base = self.eval_expr(obj, scope)?;
                match prop {
                    MemberProp::Static(name) => {
                        // Static property write: the approximate
                        // interpreter's `this`-map is maintained through
                        // this tracer event.
                        self.tracer.on_static_write(&base, name, &v);
                        self.set_property(&base, name, v)
                    }
                    MemberProp::Computed(kexpr) => {
                        let kv = self.eval_expr(kexpr, scope)?;
                        let op_loc = self.static_loc(target.span);
                        self.computed_member_write(&base, kv, v, op_loc)
                    }
                }
            }
            _ => Err(JsError::Internal("invalid assignment target".into())),
        }
    }

    /// Binds a destructuring pattern. With `declare` the names are created
    /// in `scope`; otherwise they are assigned through the scope chain.
    pub(crate) fn bind_pattern(
        &mut self,
        pat: &Pattern,
        v: Value,
        scope: &ScopeRef,
        declare: bool,
    ) -> Result<(), JsError> {
        match &pat.kind {
            PatternKind::Ident(name) => {
                if declare {
                    scope.borrow_mut().declare(name.as_str(), v);
                } else {
                    env::assign(scope, name, v);
                }
                Ok(())
            }
            PatternKind::Assign { pat, default } => {
                let v = if matches!(v, Value::Undefined) {
                    self.eval_expr(default, scope)?
                } else {
                    v
                };
                self.bind_pattern(pat, v, scope, declare)
            }
            PatternKind::Array { elems, rest } => {
                let values = self.iterate_values(&v)?;
                for (i, el) in elems.iter().enumerate() {
                    if let Some(el) = el {
                        let item = values.get(i).cloned().unwrap_or(Value::Undefined);
                        self.bind_pattern(el, item, scope, declare)?;
                    }
                }
                if let Some(r) = rest {
                    let tail: Vec<Value> = values
                        .iter()
                        .skip(elems.len())
                        .cloned()
                        .collect();
                    let arr = self.heap.alloc(ObjKind::Array(tail));
                    self.heap.get_mut(arr).proto = Some(self.protos.array);
                    self.bind_pattern(r, Value::Obj(arr), scope, declare)?;
                }
                Ok(())
            }
            PatternKind::Object { props, rest } => {
                let mut taken: Vec<String> = Vec::new();
                for pr in props {
                    let key = match &pr.key {
                        PropName::Computed(kexpr) => {
                            let kv = self.eval_expr(kexpr, scope)?;
                            self.to_string_value(&kv)
                        }
                        other => other.static_name().unwrap_or_default(),
                    };
                    let item = if v.is_nullish() {
                        if self.opts.approx {
                            self.proxy_value()
                        } else {
                            return Err(self.throw_error(
                                "TypeError",
                                "cannot destructure nullish value",
                            ));
                        }
                    } else {
                        self.get_property(v.clone(), &key, None)?
                    };
                    taken.push(key);
                    self.bind_pattern(&pr.value, item, scope, declare)?;
                }
                if let Some(r) = rest {
                    let obj = self.heap.alloc_plain(Some(self.protos.object), None);
                    if let Some(src) = v.as_obj() {
                        if !matches!(self.heap.get(src).kind, ObjKind::Proxy) {
                            for k in self.heap.own_enumerable_keys(src) {
                                if !taken.iter().any(|t| t.as_str() == &*k) {
                                    let pv = self.get_property(v.clone(), &k, None)?;
                                    self.heap.set_prop(obj, &k, pv);
                                }
                            }
                        }
                    }
                    self.bind_pattern(r, Value::Obj(obj), scope, declare)?;
                }
                Ok(())
            }
        }
    }

    /// Evaluates a class declaration/expression to its constructor value.
    pub(crate) fn eval_class(&mut self, c: &Class, scope: &ScopeRef) -> Result<Value, JsError> {
        let super_ctor = match &c.super_class {
            Some(e) => Some(self.eval_expr(e, scope)?),
            None => None,
        };

        // Find the explicit constructor, if any.
        let ctor_func = c.members.iter().find_map(|m| match &m.kind {
            ClassMemberKind::Constructor(f) => Some(f.clone()),
            _ => None,
        });

        // Build the constructor function object.
        let ctor_def: Arc<Function> = match &ctor_func {
            Some(f) => self.registry.get(f.id).unwrap_or_else(|| f.clone()),
            None => {
                // Synthesize an empty constructor attributed to the class.
                let f = Function {
                    id: self.ids.fresh(),
                    span: c.span,
                    name: c.name.clone(),
                    params: Vec::new(),
                    rest: None,
                    body: FuncBody::Block(Vec::new()),
                    is_arrow: false,
                    is_async: false,
                    is_generator: false,
                };
                let rc = Arc::new(f);
                self.registry
                    .add_dynamic(rc.clone(), self.static_loc(c.span));
                rc
            }
        };
        let born_at = self.static_loc(c.span);
        let is_default_ctor = ctor_func.is_none();
        let fid = self.heap.alloc(ObjKind::Function(Box::new(FuncData {
            def: ctor_def.clone(),
            env: scope.clone(),
            bound_this: None,
            bound_args: Vec::new(),
            super_ctor: super_ctor.clone().map(Box::new),
            home_proto: None,
        })));
        {
            let obj = self.heap.get_mut(fid);
            obj.proto = Some(self.protos.function);
            obj.born_at = born_at;
            obj.func_def = Some(ctor_def.id);
        }
        self.tracer
            .on_function_def(ctor_def.id, born_at, &Value::Obj(fid));

        // Prototype object, linked to the superclass prototype.
        let proto = self.function_prototype(fid);
        if let Some(sc) = &super_ctor {
            if let Some(scid) = sc.as_obj() {
                let sproto = self.function_prototype(scid);
                self.heap.get_mut(proto).proto = Some(sproto);
                // Static inheritance.
                self.heap.get_mut(fid).proto = Some(scid);
            }
        }
        // A derived class's default constructor forwards to super; model
        // by marking super_ctor and calling it in construct via the
        // synthesized empty body — we emulate by wrapping: store a flag on
        // the function object.
        if is_default_ctor && super_ctor.is_some() {
            self.heap
                .set_prop(fid, "__default_derived_ctor__", Value::Bool(true));
            if let Some(p) = self.heap.get_mut(fid).props.get_mut("__default_derived_ctor__") {
                p.enumerable = false;
            }
        }

        // Members.
        let mut instance_fields: Vec<(&ClassMember, &Option<Expr>)> = Vec::new();
        for m in &c.members {
            match &m.kind {
                ClassMemberKind::Constructor(_) => {}
                ClassMemberKind::Method { kind, func } => {
                    let fval = self.make_closure(func, scope);
                    // Wire up `super` support for the method.
                    if let Some(mid) = fval.as_obj() {
                        if let ObjKind::Function(data) = &mut self.heap.get_mut(mid).kind {
                            data.home_proto = Some(if m.is_static { fid } else { proto });
                            if let Some(sc) = &super_ctor {
                                data.super_ctor = Some(Box::new(sc.clone()));
                            }
                        }
                    }
                    let key = match &m.key {
                        PropName::Computed(kexpr) => {
                            let kv = self.eval_expr(kexpr, scope)?;
                            self.to_string_value(&kv)
                        }
                        other => other.static_name().unwrap_or_default(),
                    };
                    let target = if m.is_static { fid } else { proto };
                    match kind {
                        MethodKind::Method => {
                            let tv = Value::Obj(target);
                            self.tracer.on_static_write(&tv, &key, &fval);
                            self.heap.set_prop(target, &key, fval);
                            if let Some(p) = self.heap.get_mut(target).props.get_mut(&key) {
                                p.enumerable = false;
                            }
                        }
                        MethodKind::Get | MethodKind::Set => {
                            let existing = self.heap.get(target).props.get(&key).cloned();
                            let (mut get, mut set) = match existing {
                                Some(Prop {
                                    value: PropValue::Accessor { get, set },
                                    ..
                                }) => (get, set),
                                _ => (None, None),
                            };
                            if *kind == MethodKind::Get {
                                get = Some(fval);
                            } else {
                                set = Some(fval);
                            }
                            self.heap.get_mut(target).props.insert(
                                Rc::from(key.as_str()),
                                Prop {
                                    value: PropValue::Accessor { get, set },
                                    enumerable: false,
                                },
                            );
                        }
                    }
                }
                ClassMemberKind::Field(init) => {
                    if m.is_static {
                        let key = m.key.static_name().unwrap_or_default();
                        let v = match init {
                            Some(e) => self.eval_expr(e, scope)?,
                            None => Value::Undefined,
                        };
                        self.heap.set_prop(fid, &key, v);
                    } else {
                        instance_fields.push((m, init));
                    }
                }
            }
        }
        // Instance fields are evaluated per construction; store their
        // initializer thunks as hidden closures on the prototype so the
        // constructor path can run them.
        if !instance_fields.is_empty() {
            // Represent as a hidden array of [name, initFn] pairs.
            let mut pairs = Vec::new();
            for (m, init) in instance_fields {
                let key = m.key.static_name().unwrap_or_default();
                let init_v = match init {
                    Some(e) => {
                        // Wrap the initializer in a synthetic thunk so it
                        // evaluates with `this` bound at construction time.
                        let f = Function {
                            id: self.ids.fresh(),
                            span: m.span,
                            name: None,
                            params: Vec::new(),
                            rest: None,
                            body: FuncBody::Expr(Box::new(e.clone())),
                            is_arrow: false,
                            is_async: false,
                            is_generator: false,
                        };
                        let rc = Arc::new(f);
                        self.registry.add_dynamic(rc.clone(), None);
                        let thunk = self.heap.alloc(ObjKind::Function(Box::new(FuncData {
                            def: rc,
                            env: scope.clone(),
                            bound_this: None,
                            bound_args: Vec::new(),
                            super_ctor: None,
                            home_proto: None,
                        })));
                        self.heap.get_mut(thunk).proto = Some(self.protos.function);
                        Value::Obj(thunk)
                    }
                    None => Value::Undefined,
                };
                let pair = self
                    .heap
                    .alloc(ObjKind::Array(vec![Value::str(&key), init_v]));
                self.heap.get_mut(pair).proto = Some(self.protos.array);
                pairs.push(Value::Obj(pair));
            }
            let arr = self.heap.alloc(ObjKind::Array(pairs));
            self.heap.get_mut(arr).proto = Some(self.protos.array);
            self.heap.get_mut(fid).props.insert(
                Rc::from("__instance_fields__"),
                Prop::hidden(Value::Obj(arr)),
            );
        }
        Ok(Value::Obj(fid))
    }

    /// Runs dynamically generated code (`eval`) in the given scope.
    /// Allocation-site recording is disabled while inside (§3).
    pub(crate) fn run_eval(&mut self, code: &str, scope: &ScopeRef) -> Result<Value, JsError> {
        let file = self
            .source_map
            .add_file(format!("<eval:{}>", self.source_map.len()), code);
        let module = match aji_parser::parse_module(code, file, &mut self.ids) {
            Ok(m) => m,
            Err(e) => {
                return Err(self.throw_error("SyntaxError", e.to_string()));
            }
        };
        self.eval_depth += 1;
        let result = (|| -> Result<Value, JsError> {
            self.hoist(&module.body, scope)?;
            let mut completion = Value::Undefined;
            for s in &module.body {
                if let StmtKind::Expr(e) = &s.kind {
                    completion = self.eval_expr(e, scope)?;
                } else {
                    match self.exec_stmt(s, scope)? {
                        crate::error::Flow::Normal => {}
                        _ => break,
                    }
                }
            }
            Ok(completion)
        })();
        self.eval_depth -= 1;
        result
    }

    /// Constructs a new object honoring `__default_derived_ctor__` and
    /// `__instance_fields__` set by [`Self::eval_class`]. Called from the
    /// generic `construct` path via closures — exposed for the builtins.
    pub(crate) fn run_instance_fields(
        &mut self,
        ctor: ObjId,
        this: &Value,
    ) -> Result<(), JsError> {
        let fields = match self.heap.own_prop(ctor, "__instance_fields__") {
            Some(Prop {
                value: PropValue::Data(Value::Obj(arr)),
                ..
            }) => arr,
            _ => return Ok(()),
        };
        let pairs = match &self.heap.get(fields).kind {
            ObjKind::Array(elems) => elems.clone(),
            _ => return Ok(()),
        };
        for pair in pairs {
            let Some(pid) = pair.as_obj() else { continue };
            let (name, init) = match &self.heap.get(pid).kind {
                ObjKind::Array(elems) if elems.len() == 2 => {
                    (elems[0].clone(), elems[1].clone())
                }
                _ => continue,
            };
            let key = self.to_string_value(&name);
            let v = if self.heap.is_callable(&init) {
                self.call_value(init, this.clone(), &[], None)?
            } else {
                Value::Undefined
            };
            self.set_property(this, &key, v)?;
        }
        Ok(())
    }
}
