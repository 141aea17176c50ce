//! Built-in globals: `Object`, `Array`, `Function.prototype`, string and
//! number methods, `Math`, `JSON`, errors, `console`, timers, `process`,
//! and the sandboxed Node.js module mocks.
//!
//! Per §3 of the paper, the `Object.create` / `Object.defineProperty` /
//! `Object.defineProperties` / `Object.assign` natives are modeled as
//! object constructions and dynamic property writes, feeding the same
//! tracer events as the corresponding language constructs. Node.js
//! functions that interact with the outside world are replaced by mocks
//! that invoke any callback arguments and return the unknown-value proxy.

use crate::env::{Scope, ScopeKind};
use crate::error::JsError;
use crate::heap::{Heap, ObjKind, Prop, PropValue};
use crate::machine::{Interp, Protos};
use crate::value::{ObjId, Value};
use aji_ast::{number, Loc};
use aji_support::hash::FxHashMap;
use aji_support::json;
use std::rc::Rc;
use std::sync::OnceLock;

/// Signature of a native function: `(interp, self-object, this, args)`.
pub type NativeFn = fn(&mut Interp, ObjId, Value, &[Value]) -> Result<Value, JsError>;

/// Id of the native named `name`: its index in the static native table,
/// which is what [`ObjKind::Native`] holds.
///
/// # Panics
///
/// Panics if `name` is not a known native.
pub fn native_id(name: &str) -> u32 {
    static IDS: OnceLock<FxHashMap<&'static str, u32>> = OnceLock::new();
    let ids = IDS.get_or_init(|| {
        (0u32..)
            .zip(NATIVE_TABLE)
            .map(|(id, (name, _))| (*name, id))
            .collect()
    });
    *ids.get(name)
        .unwrap_or_else(|| panic!("unknown native `{name}`"))
}

/// The name and implementation of the native with id `id`.
pub(crate) fn native(id: u32) -> (&'static str, NativeFn) {
    NATIVE_TABLE[id as usize]
}

/// Creates a function object for the named native; `fproto` is the
/// realm's `Function.prototype`.
pub(crate) fn make_native(heap: &mut Heap, fproto: ObjId, name: &str) -> Value {
    let obj = heap.alloc(ObjKind::Native(native_id(name)));
    heap.get_mut(obj).proto = Some(fproto);
    set_hidden(heap, obj, "name", Value::str(name));
    Value::Obj(obj)
}

fn set_method(realm: &mut Realm, target: ObjId, prop: &str, native: &'static str) {
    let f = make_native(&mut realm.heap, realm.protos.function, native);
    set_hidden(&mut realm.heap, target, prop, f);
}

fn set_hidden(heap: &mut Heap, target: ObjId, prop: &str, v: Value) {
    heap.get_mut(target)
        .props
        .insert(Rc::from(prop), Prop::hidden(v));
}

fn bind_global(realm: &mut Realm, name: &str, v: Value) {
    realm.globals.declare(name, v.clone());
    set_hidden(&mut realm.heap, realm.global_obj, name, v);
}

/// The builtin realm every interpreter starts from: the heap holding the
/// builtin objects, the global bindings, and handles to the prototypes,
/// the global object and the unknown-value proxy `p*`.
///
/// Installing it is pure (no tracer events, no allocation sites), so each
/// thread installs it once as a template and every interpreter on that
/// thread starts from a clone. A clone shares nothing mutable with the
/// template: the heap and the bindings are copied, and what stays shared
/// is immutable (`Rc<str>` keys and string values). The template holds no
/// closures — a closure's captured scope would be shared between clones.
#[derive(Debug, Clone)]
pub(crate) struct Realm {
    pub(crate) heap: Heap,
    /// The global scope's bindings (the global scope has no parent).
    pub(crate) globals: Scope,
    pub(crate) protos: Protos,
    pub(crate) global_obj: ObjId,
    pub(crate) proxy: ObjId,
}

thread_local! {
    static TEMPLATE: Realm = Realm::install();
}

impl Realm {
    /// A clone of this thread's template realm.
    pub(crate) fn fresh() -> Realm {
        TEMPLATE.with(Realm::clone)
    }

    fn install() -> Realm {
        let mut heap = Heap::new();
        let global_obj = heap.alloc(ObjKind::Plain);
        let proxy = heap.alloc(ObjKind::Proxy);
        let mut globals = Scope::detached(ScopeKind::Global);
        globals.this_val = Some(Value::Obj(global_obj));
        let mut realm = Realm {
            heap,
            globals,
            // Placeholders; `install` allocates the prototypes.
            protos: Protos {
                object: global_obj,
                function: global_obj,
                array: global_obj,
                string: global_obj,
                number: global_obj,
                boolean: global_obj,
                error: global_obj,
                regexp: global_obj,
                promise: global_obj,
            },
            global_obj,
            proxy,
        };
        install(&mut realm);
        debug_assert!(
            (0..realm.heap.len() as u32)
                .all(|i| !matches!(realm.heap.get(ObjId(i)).kind, ObjKind::Function(_))),
            "the builtin realm template must hold no closures"
        );
        realm
    }
}

/// Installs all globals into a realm holding only the global object
/// and the proxy.
fn install(realm: &mut Realm) {
    // Prototypes first (everything links to them).
    let object_proto = realm.heap.alloc(ObjKind::Plain);
    let function_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(function_proto).proto = Some(object_proto);
    let array_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(array_proto).proto = Some(object_proto);
    let string_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(string_proto).proto = Some(object_proto);
    let number_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(number_proto).proto = Some(object_proto);
    let boolean_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(boolean_proto).proto = Some(object_proto);
    let error_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(error_proto).proto = Some(object_proto);
    let regexp_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(regexp_proto).proto = Some(object_proto);
    let promise_proto = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(promise_proto).proto = Some(object_proto);
    realm.protos = crate::machine::Protos {
        object: object_proto,
        function: function_proto,
        array: array_proto,
        string: string_proto,
        number: number_proto,
        boolean: boolean_proto,
        error: error_proto,
        regexp: regexp_proto,
        promise: promise_proto,
    };
    realm.heap.get_mut(realm.global_obj).proto = Some(object_proto);

    // Object.prototype.
    set_method(realm, object_proto, "hasOwnProperty", "object_has_own");
    set_method(realm, object_proto, "toString", "object_to_string");
    set_method(realm, object_proto, "valueOf", "identity_this");
    set_method(
        realm,
        object_proto,
        "isPrototypeOf",
        "object_is_prototype_of",
    );
    set_method(
        realm,
        object_proto,
        "propertyIsEnumerable",
        "object_prop_is_enumerable",
    );

    // Function.prototype.
    set_method(realm, function_proto, "call", "function_call");
    set_method(realm, function_proto, "apply", "function_apply");
    set_method(realm, function_proto, "bind", "function_bind");
    set_method(realm, function_proto, "toString", "function_to_string");

    // Array.prototype.
    for (prop, native) in [
        ("push", "array_push"),
        ("pop", "array_pop"),
        ("shift", "array_shift"),
        ("unshift", "array_unshift"),
        ("slice", "array_slice"),
        ("splice", "array_splice"),
        ("concat", "array_concat"),
        ("join", "array_join"),
        ("indexOf", "array_index_of"),
        ("lastIndexOf", "array_last_index_of"),
        ("includes", "array_includes"),
        ("forEach", "array_for_each"),
        ("map", "array_map"),
        ("filter", "array_filter"),
        ("reduce", "array_reduce"),
        ("reduceRight", "array_reduce_right"),
        ("some", "array_some"),
        ("every", "array_every"),
        ("find", "array_find"),
        ("findIndex", "array_find_index"),
        ("sort", "array_sort"),
        ("reverse", "array_reverse"),
        ("fill", "array_fill"),
        ("flat", "array_flat"),
        ("toString", "array_to_string"),
    ] {
        set_method(realm, array_proto, prop, native);
    }

    // String.prototype.
    for (prop, native) in [
        ("charAt", "string_char_at"),
        ("charCodeAt", "string_char_code_at"),
        ("indexOf", "string_index_of"),
        ("lastIndexOf", "string_last_index_of"),
        ("includes", "string_includes"),
        ("startsWith", "string_starts_with"),
        ("endsWith", "string_ends_with"),
        ("slice", "string_slice"),
        ("substring", "string_substring"),
        ("substr", "string_substr"),
        ("toUpperCase", "string_to_upper"),
        ("toLowerCase", "string_to_lower"),
        ("trim", "string_trim"),
        ("split", "string_split"),
        ("replace", "string_replace"),
        ("replaceAll", "string_replace_all"),
        ("concat", "string_concat"),
        ("repeat", "string_repeat"),
        ("padStart", "string_pad_start"),
        ("padEnd", "string_pad_end"),
        ("match", "string_match"),
        ("search", "string_search"),
        ("toString", "identity_this"),
        ("valueOf", "identity_this"),
    ] {
        set_method(realm, string_proto, prop, native);
    }

    // Number.prototype / Boolean.prototype.
    set_method(realm, number_proto, "toString", "number_to_string");
    set_method(realm, number_proto, "toFixed", "number_to_fixed");
    set_method(realm, number_proto, "valueOf", "identity_this");
    set_method(realm, boolean_proto, "toString", "object_to_string");
    set_method(realm, boolean_proto, "valueOf", "identity_this");

    // Error.prototype.
    set_method(realm, error_proto, "toString", "error_to_string");
    set_hidden(&mut realm.heap, error_proto, "name", Value::str("Error"));
    set_hidden(&mut realm.heap, error_proto, "message", Value::str(""));

    // RegExp.prototype.
    set_method(realm, regexp_proto, "test", "regexp_test");
    set_method(realm, regexp_proto, "exec", "regexp_exec");
    set_method(realm, regexp_proto, "toString", "object_to_string");

    // Promise.prototype.
    set_method(realm, promise_proto, "then", "promise_then");
    set_method(realm, promise_proto, "catch", "promise_catch");
    set_method(realm, promise_proto, "finally", "promise_finally");

    // Object constructor and statics.
    let object_ctor = make_native(&mut realm.heap, function_proto, "object_ctor");
    if let Some(oc) = object_ctor.as_obj() {
        set_hidden(&mut realm.heap, oc, "prototype", Value::Obj(object_proto));
        set_hidden(
            &mut realm.heap,
            object_proto,
            "constructor",
            object_ctor.clone(),
        );
        for (prop, native) in [
            ("keys", "object_keys"),
            ("values", "object_values"),
            ("entries", "object_entries"),
            ("assign", "object_assign"),
            ("create", "object_create"),
            ("defineProperty", "object_define_property"),
            ("defineProperties", "object_define_properties"),
            ("getOwnPropertyNames", "object_get_own_property_names"),
            (
                "getOwnPropertyDescriptor",
                "object_get_own_property_descriptor",
            ),
            ("getPrototypeOf", "object_get_prototype_of"),
            ("setPrototypeOf", "object_set_prototype_of"),
            ("freeze", "identity_first_arg"),
            ("seal", "identity_first_arg"),
            ("preventExtensions", "identity_first_arg"),
            ("isFrozen", "return_false"),
        ] {
            set_method(realm, oc, prop, native);
        }
    }
    bind_global(realm, "Object", object_ctor);

    // Array constructor and statics.
    let array_ctor = make_native(&mut realm.heap, function_proto, "array_ctor");
    if let Some(ac) = array_ctor.as_obj() {
        set_hidden(&mut realm.heap, ac, "prototype", Value::Obj(array_proto));
        set_hidden(
            &mut realm.heap,
            array_proto,
            "constructor",
            array_ctor.clone(),
        );
        set_method(realm, ac, "isArray", "array_is_array");
        set_method(realm, ac, "from", "array_from");
        set_method(realm, ac, "of", "array_of");
    }
    bind_global(realm, "Array", array_ctor);

    // Function constructor (dynamic code generation).
    let function_ctor = make_native(&mut realm.heap, function_proto, "function_ctor");
    if let Some(fc) = function_ctor.as_obj() {
        set_hidden(&mut realm.heap, fc, "prototype", Value::Obj(function_proto));
    }
    bind_global(realm, "Function", function_ctor);

    // String / Number / Boolean constructors.
    let string_ctor = make_native(&mut realm.heap, function_proto, "string_ctor");
    if let Some(sc) = string_ctor.as_obj() {
        set_hidden(&mut realm.heap, sc, "prototype", Value::Obj(string_proto));
        set_method(realm, sc, "fromCharCode", "string_from_char_code");
    }
    bind_global(realm, "String", string_ctor);
    let number_ctor = make_native(&mut realm.heap, function_proto, "number_ctor");
    if let Some(nc) = number_ctor.as_obj() {
        set_hidden(&mut realm.heap, nc, "prototype", Value::Obj(number_proto));
        set_method(realm, nc, "isInteger", "number_is_integer");
        set_method(realm, nc, "isFinite", "global_is_finite");
        set_method(realm, nc, "isNaN", "global_is_nan");
        set_method(realm, nc, "parseInt", "global_parse_int");
        set_method(realm, nc, "parseFloat", "global_parse_float");
        set_hidden(
            &mut realm.heap,
            nc,
            "MAX_SAFE_INTEGER",
            Value::Num(9007199254740991.0),
        );
        set_hidden(
            &mut realm.heap,
            nc,
            "MIN_SAFE_INTEGER",
            Value::Num(-9007199254740991.0),
        );
        set_hidden(&mut realm.heap, nc, "EPSILON", Value::Num(f64::EPSILON));
        set_hidden(&mut realm.heap, nc, "NaN", Value::Num(f64::NAN));
    }
    bind_global(realm, "Number", number_ctor);
    let boolean_ctor = make_native(&mut realm.heap, function_proto, "boolean_ctor");
    if let Some(bc) = boolean_ctor.as_obj() {
        set_hidden(&mut realm.heap, bc, "prototype", Value::Obj(boolean_proto));
    }
    bind_global(realm, "Boolean", boolean_ctor);

    // Errors.
    for name in [
        "Error",
        "TypeError",
        "RangeError",
        "SyntaxError",
        "EvalError",
        "ReferenceError",
    ] {
        let ctor = make_native(&mut realm.heap, function_proto, "error_ctor");
        if let Some(ec) = ctor.as_obj() {
            // Per-type prototype chained to Error.prototype.
            let proto = if name == "Error" {
                error_proto
            } else {
                let p = realm.heap.alloc(ObjKind::Plain);
                realm.heap.get_mut(p).proto = Some(error_proto);
                set_hidden(&mut realm.heap, p, "name", Value::str(name));
                p
            };
            set_hidden(&mut realm.heap, ec, "prototype", Value::Obj(proto));
            set_hidden(&mut realm.heap, proto, "constructor", ctor.clone());
            set_hidden(&mut realm.heap, ec, "name", Value::str(name));
        }
        bind_global(realm, name, ctor);
    }

    // RegExp constructor.
    let regexp_ctor = make_native(&mut realm.heap, function_proto, "regexp_ctor");
    if let Some(rc) = regexp_ctor.as_obj() {
        set_hidden(&mut realm.heap, rc, "prototype", Value::Obj(regexp_proto));
    }
    bind_global(realm, "RegExp", regexp_ctor);

    // Promise.
    let promise_ctor = make_native(&mut realm.heap, function_proto, "promise_ctor");
    if let Some(pc) = promise_ctor.as_obj() {
        set_hidden(&mut realm.heap, pc, "prototype", Value::Obj(promise_proto));
        set_method(realm, pc, "resolve", "promise_resolve_static");
        set_method(realm, pc, "reject", "promise_reject_static");
        set_method(realm, pc, "all", "promise_all");
    }
    bind_global(realm, "Promise", promise_ctor);

    // Math.
    let math = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(math).proto = Some(object_proto);
    for (prop, native) in [
        ("floor", "math_floor"),
        ("ceil", "math_ceil"),
        ("round", "math_round"),
        ("trunc", "math_trunc"),
        ("abs", "math_abs"),
        ("sqrt", "math_sqrt"),
        ("pow", "math_pow"),
        ("min", "math_min"),
        ("max", "math_max"),
        ("random", "math_random"),
        ("log", "math_log"),
        ("exp", "math_exp"),
        ("sign", "math_sign"),
    ] {
        set_method(realm, math, prop, native);
    }
    set_hidden(
        &mut realm.heap,
        math,
        "PI",
        Value::Num(std::f64::consts::PI),
    );
    set_hidden(&mut realm.heap, math, "E", Value::Num(std::f64::consts::E));
    bind_global(realm, "Math", Value::Obj(math));

    // JSON.
    let json = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(json).proto = Some(object_proto);
    set_method(realm, json, "stringify", "json_stringify");
    set_method(realm, json, "parse", "json_parse");
    bind_global(realm, "JSON", Value::Obj(json));

    // console.
    let console = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(console).proto = Some(object_proto);
    for m in ["log", "warn", "error", "info", "debug", "trace"] {
        set_method(realm, console, m, "console_log");
    }
    bind_global(realm, "console", Value::Obj(console));

    // Global functions.
    for (name, native) in [
        ("parseInt", "global_parse_int"),
        ("parseFloat", "global_parse_float"),
        ("isNaN", "global_is_nan"),
        ("isFinite", "global_is_finite"),
        ("eval", "global_eval"),
        ("Symbol", "symbol_stub"),
        ("setTimeout", "timer_immediate"),
        ("setInterval", "timer_immediate"),
        ("setImmediate", "timer_immediate"),
        ("queueMicrotask", "timer_immediate"),
        ("clearTimeout", "noop"),
        ("clearInterval", "noop"),
        ("clearImmediate", "noop"),
        ("encodeURIComponent", "identity_first_arg_str"),
        ("decodeURIComponent", "identity_first_arg_str"),
        ("encodeURI", "identity_first_arg_str"),
        ("decodeURI", "identity_first_arg_str"),
        ("structuredClone", "identity_first_arg"),
    ] {
        let f = make_native(&mut realm.heap, function_proto, native);
        bind_global(realm, name, f);
    }
    // Symbol.iterator marker used by some libraries.
    if let Some(Value::Obj(sym)) = realm.globals.get_own("Symbol").as_ref() {
        set_hidden(
            &mut realm.heap,
            *sym,
            "iterator",
            Value::str("Symbol(Symbol.iterator)"),
        );
        set_hidden(
            &mut realm.heap,
            *sym,
            "asyncIterator",
            Value::str("Symbol(Symbol.asyncIterator)"),
        );
    }

    // Date (deterministic).
    let date_ctor = make_native(&mut realm.heap, function_proto, "date_ctor");
    if let Some(dc) = date_ctor.as_obj() {
        set_method(realm, dc, "now", "date_now");
        let date_proto = realm.heap.alloc(ObjKind::Plain);
        realm.heap.get_mut(date_proto).proto = Some(object_proto);
        for m in [
            "getTime",
            "valueOf",
            "getFullYear",
            "getMonth",
            "getDate",
            "getHours",
            "getMinutes",
            "getSeconds",
            "getMilliseconds",
            "getDay",
        ] {
            set_method(realm, date_proto, m, "date_get_time");
        }
        set_method(realm, date_proto, "toISOString", "date_to_iso");
        set_method(realm, date_proto, "toString", "date_to_iso");
        set_hidden(&mut realm.heap, dc, "prototype", Value::Obj(date_proto));
    }
    bind_global(realm, "Date", date_ctor);

    // process.
    let process = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(process).proto = Some(object_proto);
    let envv = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(envv).proto = Some(object_proto);
    set_hidden(&mut realm.heap, process, "env", Value::Obj(envv));
    let argv = realm
        .heap
        .alloc(ObjKind::Array(vec![Value::str("node"), Value::str("main")]));
    realm.heap.get_mut(argv).proto = Some(array_proto);
    set_hidden(&mut realm.heap, process, "argv", Value::Obj(argv));
    set_hidden(&mut realm.heap, process, "platform", Value::str("linux"));
    set_hidden(&mut realm.heap, process, "version", Value::str("v18.0.0"));
    set_method(realm, process, "exit", "noop");
    set_method(realm, process, "cwd", "process_cwd");
    set_method(realm, process, "nextTick", "timer_immediate");
    set_method(realm, process, "on", "noop");
    set_method(realm, process, "emit", "noop");
    let stdout = realm.heap.alloc(ObjKind::Plain);
    realm.heap.get_mut(stdout).proto = Some(object_proto);
    set_method(realm, stdout, "write", "console_log");
    set_hidden(&mut realm.heap, process, "stdout", Value::Obj(stdout));
    set_hidden(&mut realm.heap, process, "stderr", Value::Obj(stdout));
    bind_global(realm, "process", Value::Obj(process));

    // Buffer mock.
    let buffer = make_mock(&mut realm.heap, function_proto, "Buffer");
    bind_global(realm, "Buffer", buffer);
}

/// Creates a sandbox mock object: property reads fall back to the object
/// itself, and calling it invokes callback arguments (see
/// `mock_io` below). `fproto` is the realm's `Function.prototype`.
pub(crate) fn make_mock(heap: &mut Heap, fproto: ObjId, name: &str) -> Value {
    let obj = heap.alloc(ObjKind::Native(native_id("mock_io")));
    heap.get_mut(obj).proto = Some(fproto);
    set_hidden(heap, obj, "__mock__", Value::Bool(true));
    set_hidden(heap, obj, "name", Value::str(name));
    Value::Obj(obj)
}

// ---------------------------------------------------------------------
// Native implementations
// ---------------------------------------------------------------------

type R = Result<Value, JsError>;

fn this_string(i: &mut Interp, this: &Value) -> String {
    i.to_string_value(this)
}

fn arg(args: &[Value], n: usize) -> Value {
    args.get(n).cloned().unwrap_or(Value::Undefined)
}

fn new_array(i: &mut Interp, elems: Vec<Value>) -> Value {
    let id = i.heap.alloc(ObjKind::Array(elems));
    let proto = i.protos.array;
    i.heap.get_mut(id).proto = Some(proto);
    i.heap.get_mut(id).born_at = i.current_call_site;
    Value::Obj(id)
}

fn new_object(i: &mut Interp) -> ObjId {
    let site = i.pending_new_loc.or(i.current_call_site);
    i.heap.alloc_plain(Some(i.protos.object), site)
}

/// Reads the dense element list of an array `this`, or materializes an
/// array-like.
fn this_elems(i: &mut Interp, this: &Value) -> Result<Vec<Value>, JsError> {
    match this.as_obj().map(|id| i.heap.get(id).kind.clone()) {
        Some(ObjKind::Array(elems)) => Ok(elems),
        _ => i.iterate_values(this),
    }
}

/// The element vector of an array `this`, for mutators that edit it in
/// place.
fn this_array<'a>(i: &'a mut Interp, this: &Value) -> Option<&'a mut Vec<Value>> {
    match &mut i.heap.get_mut(this.as_obj()?).kind {
        ObjKind::Array(elems) => Some(elems),
        _ => None,
    }
}

/// Runs a mutator's `edit` on the elements of `this`: in place for an
/// array; for an array-like, on a materialized copy that is then dropped.
fn edit_elems<T>(
    i: &mut Interp,
    this: &Value,
    edit: impl FnOnce(&mut Vec<Value>) -> T,
) -> Result<T, JsError> {
    if let Some(elems) = this_array(i, this) {
        return Ok(edit(elems));
    }
    let mut copy = i.iterate_values(this)?;
    Ok(edit(&mut copy))
}

// ----- generic -----

fn noop(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Undefined)
}

fn identity_this(_i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    Ok(this)
}

fn identity_first_arg(_i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(arg(args, 0))
}

fn identity_first_arg_str(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let s = i.to_string_value(&arg(args, 0));
    Ok(Value::from(s))
}

fn return_false(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Bool(false))
}

fn console_log(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let line = args
        .iter()
        .map(|a| i.to_string_value(a))
        .collect::<Vec<_>>()
        .join(" ");
    i.console.push(line);
    Ok(Value::Undefined)
}

fn timer_immediate(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let cb = arg(args, 0);
    if i.heap.is_callable(&cb) {
        // Extra args after the delay are forwarded.
        let rest: Vec<Value> = args.iter().skip(2).cloned().collect();
        i.call_value(cb, Value::Undefined, &rest, None)?;
    }
    Ok(Value::Num(0.0))
}

/// The sandbox mock: invokes any callback arguments with unknown values
/// and returns the proxy (approx mode) or itself (concrete mode).
fn mock_io(i: &mut Interp, s: ObjId, _t: Value, args: &[Value]) -> R {
    let unknown = if i.opts.approx {
        i.proxy_value()
    } else {
        Value::Obj(s)
    };
    for a in args {
        if i.heap.is_callable(a) && a.as_obj() != Some(s) {
            let cb_args = [unknown.clone(), unknown.clone(), unknown.clone()];
            // Ignore errors from callbacks: the mock's job is coverage.
            let _ = i.call_value(a.clone(), Value::Undefined, &cb_args, None);
        }
    }
    Ok(if i.opts.approx {
        i.proxy_value()
    } else {
        Value::Obj(s)
    })
}

// ----- require -----

fn require(i: &mut Interp, s: ObjId, _t: Value, args: &[Value]) -> R {
    let site = i.current_call_site;
    let spec = arg(args, 0);
    if i.heap.is_proxy(&spec) {
        return Ok(i.proxy_value());
    }
    let name = i.to_string_value(&spec);
    let from_idx = match i.heap.own_prop(s, "__module_index__") {
        Some(Prop {
            value: PropValue::Data(Value::Num(n)),
            ..
        }) => n as usize,
        _ => 0,
    };
    i.load_module(from_idx, &name, site)
}

fn require_resolve(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let name = i.to_string_value(&arg(args, 0));
    Ok(Value::from(name))
}

// ----- Object -----

fn object_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    match args.first() {
        Some(Value::Obj(id)) => Ok(Value::Obj(*id)),
        _ => Ok(Value::Obj(new_object(i))),
    }
}

fn object_keys(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let keys = match arg(args, 0).as_obj() {
        Some(id) if !matches!(i.heap.get(id).kind, ObjKind::Proxy) => i
            .heap
            .own_enumerable_keys(id)
            .into_iter()
            .map(Value::Str)
            .collect(),
        _ => Vec::new(),
    };
    Ok(new_array(i, keys))
}

fn object_values(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let o = arg(args, 0);
    let mut vals = Vec::new();
    if let Some(id) = o.as_obj() {
        if !matches!(i.heap.get(id).kind, ObjKind::Proxy) {
            for k in i.heap.own_enumerable_keys(id) {
                vals.push(i.get_property(o.clone(), &k, None)?);
            }
        }
    }
    Ok(new_array(i, vals))
}

fn object_entries(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let o = arg(args, 0);
    let mut entries = Vec::new();
    if let Some(id) = o.as_obj() {
        if !matches!(i.heap.get(id).kind, ObjKind::Proxy) {
            for k in i.heap.own_enumerable_keys(id) {
                let v = i.get_property(o.clone(), &k, None)?;
                entries.push(new_array(i, vec![Value::Str(k), v]));
            }
        }
    }
    Ok(new_array(i, entries))
}

/// `Object.assign` — modeled as a sequence of dynamic property writes
/// (§3 of the paper).
fn object_assign(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let target = arg(args, 0);
    let Some(tid) = target.as_obj() else {
        return Ok(target);
    };
    if matches!(i.heap.get(tid).kind, ObjKind::Proxy) {
        return Ok(target);
    }
    for src in args.iter().skip(1) {
        let Some(sid) = src.as_obj() else { continue };
        if matches!(i.heap.get(sid).kind, ObjKind::Proxy) {
            continue;
        }
        for k in i.heap.own_enumerable_keys(sid) {
            let v = i.get_property(src.clone(), &k, None)?;
            let op_loc = i.current_call_site;
            let obj_loc = i.loc_of(&target);
            let val_loc = i.loc_of(&v);
            i.tracer.on_dynamic_write(op_loc, obj_loc, &k, val_loc, &v);
            i.set_property(&target, &k, v)?;
        }
    }
    Ok(target)
}

/// `Object.create` — a form of object construction (§3).
fn object_create(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let proto = match arg(args, 0) {
        Value::Obj(p) => Some(p),
        Value::Null => None,
        _ => Some(i.protos.object),
    };
    let objv = Value::Obj(i.heap.alloc_plain(proto, i.current_call_site));
    if let Some(props) = args.get(1) {
        define_properties_from(i, &objv, props)?;
    }
    Ok(objv)
}

/// Applies one property descriptor, recording a dynamic-write hint.
fn define_one_property(
    i: &mut Interp,
    target: &Value,
    key: &str,
    descriptor: &Value,
) -> Result<(), JsError> {
    let Some(tid) = target.as_obj() else {
        return Ok(());
    };
    if matches!(i.heap.get(tid).kind, ObjKind::Proxy) {
        return Ok(());
    }
    let get = i.get_property(descriptor.clone(), "get", None)?;
    let set = i.get_property(descriptor.clone(), "set", None)?;
    let enumerable = i.get_property(descriptor.clone(), "enumerable", None)?;
    if i.heap.is_callable(&get) || i.heap.is_callable(&set) {
        let prop = Prop {
            value: PropValue::Accessor {
                get: if i.heap.is_callable(&get) {
                    Some(get.clone())
                } else {
                    None
                },
                set: if i.heap.is_callable(&set) {
                    Some(set.clone())
                } else {
                    None
                },
            },
            enumerable: enumerable.is_truthy(),
        };
        i.heap.get_mut(tid).props.insert(Rc::from(key), prop);
        // Record the getter as flowing into the property (the paper's
        // implementation treats defineProperty as a dynamic write of the
        // descriptor's value).
        let op_loc = i.current_call_site;
        let obj_loc = i.loc_of(target);
        let val_loc = i.loc_of(&get);
        i.tracer
            .on_dynamic_write(op_loc, obj_loc, key, val_loc, &get);
        return Ok(());
    }
    let value = i.get_property(descriptor.clone(), "value", None)?;
    let op_loc = i.current_call_site;
    let obj_loc = i.loc_of(target);
    let val_loc = i.loc_of(&value);
    i.tracer
        .on_dynamic_write(op_loc, obj_loc, key, val_loc, &value);
    i.heap.get_mut(tid).props.insert(
        Rc::from(key),
        Prop {
            value: PropValue::Data(value),
            enumerable: enumerable.is_truthy(),
        },
    );
    Ok(())
}

fn object_define_property(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let target = arg(args, 0);
    let keyv = arg(args, 1);
    if i.heap.is_proxy(&keyv) {
        return Ok(target);
    }
    let key = i.to_string_value(&keyv);
    let descriptor = arg(args, 2);
    define_one_property(i, &target, &key, &descriptor)?;
    Ok(target)
}

fn define_properties_from(i: &mut Interp, target: &Value, props: &Value) -> Result<(), JsError> {
    if let Some(pid) = props.as_obj() {
        if !matches!(i.heap.get(pid).kind, ObjKind::Proxy) {
            for k in i.heap.own_enumerable_keys(pid) {
                let d = i.get_property(props.clone(), &k, None)?;
                define_one_property(i, target, &k, &d)?;
            }
        }
    }
    Ok(())
}

fn object_define_properties(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let target = arg(args, 0);
    let props = arg(args, 1);
    define_properties_from(i, &target, &props)?;
    Ok(target)
}

fn object_get_own_property_names(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let keys = match arg(args, 0).as_obj() {
        Some(id) if !matches!(i.heap.get(id).kind, ObjKind::Proxy) => {
            let mut ks: Vec<Value> = i.heap.own_keys(id).into_iter().map(Value::Str).collect();
            if matches!(i.heap.get(id).kind, ObjKind::Array(_)) {
                ks.push(Value::str("length"));
            }
            ks
        }
        _ => Vec::new(),
    };
    Ok(new_array(i, keys))
}

fn object_get_own_property_descriptor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let o = arg(args, 0);
    let keyv = arg(args, 1);
    if i.heap.is_proxy(&keyv) || i.heap.is_proxy(&o) {
        return Ok(if i.opts.approx {
            i.proxy_value()
        } else {
            Value::Undefined
        });
    }
    let key = i.to_string_value(&keyv);
    let Some(id) = o.as_obj() else {
        return Ok(Value::Undefined);
    };
    let Some(prop) = i.heap.own_prop(id, &key) else {
        return Ok(Value::Undefined);
    };
    let d = new_object(i);
    match prop.value {
        PropValue::Data(v) => {
            i.heap.set_prop(d, "value", v);
            i.heap.set_prop(d, "writable", Value::Bool(true));
        }
        PropValue::Accessor { get, set } => {
            i.heap.set_prop(d, "get", get.unwrap_or(Value::Undefined));
            i.heap.set_prop(d, "set", set.unwrap_or(Value::Undefined));
        }
    }
    i.heap
        .set_prop(d, "enumerable", Value::Bool(prop.enumerable));
    i.heap.set_prop(d, "configurable", Value::Bool(true));
    Ok(Value::Obj(d))
}

fn object_get_prototype_of(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    match arg(args, 0).as_obj() {
        Some(id) => Ok(i.heap.get(id).proto.map(Value::Obj).unwrap_or(Value::Null)),
        None => Ok(Value::Null),
    }
}

fn object_set_prototype_of(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let o = arg(args, 0);
    if let Some(id) = o.as_obj() {
        match arg(args, 1) {
            Value::Obj(p) => i.heap.get_mut(id).proto = Some(p),
            Value::Null => i.heap.get_mut(id).proto = None,
            _ => {}
        }
    }
    Ok(o)
}

fn object_has_own(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let key = i.to_string_value(&arg(args, 0));
    match this.as_obj() {
        Some(id) if !matches!(i.heap.get(id).kind, ObjKind::Proxy) => {
            Ok(Value::Bool(i.heap.own_prop(id, &key).is_some()))
        }
        Some(_) => Ok(Value::Bool(true)),
        None => Ok(Value::Bool(false)),
    }
}

fn object_to_string(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    // Careful: this native *is* the `toString` that `ToPrimitive` falls
    // back to, so it must not call back into the generic `ToString`
    // machinery (infinite mutual recursion otherwise — found by fuzzing).
    let s = match &this {
        Value::Obj(id) => match &i.heap.get(*id).kind {
            ObjKind::Array(_) => {
                return array_join(i, _s, this.clone(), &[]);
            }
            ObjKind::Function(_) | ObjKind::Native(_) => {
                "function () { [native code] }".to_string()
            }
            _ => "[object Object]".to_string(),
        },
        other => crate::convert::prim_to_string(other),
    };
    Ok(Value::from(s))
}

fn object_is_prototype_of(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let (Some(pid), Some(oid)) = (this.as_obj(), arg(args, 0).as_obj()) else {
        return Ok(Value::Bool(false));
    };
    let mut cur = i.heap.get(oid).proto;
    let mut hops = 0;
    while let Some(p) = cur {
        if p == pid {
            return Ok(Value::Bool(true));
        }
        cur = i.heap.get(p).proto;
        hops += 1;
        if hops > 64 {
            break;
        }
    }
    Ok(Value::Bool(false))
}

fn object_prop_is_enumerable(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let key = i.to_string_value(&arg(args, 0));
    match this.as_obj() {
        Some(id) => Ok(Value::Bool(
            i.heap.own_prop(id, &key).map(|p| p.enumerable) == Some(true),
        )),
        None => Ok(Value::Bool(false)),
    }
}

// ----- Function.prototype -----

fn function_call(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let call_this = arg(args, 0);
    let rest: Vec<Value> = args.iter().skip(1).cloned().collect();
    let site = i.current_call_site;
    i.call_value(this, call_this, &rest, site)
}

fn function_apply(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let call_this = arg(args, 0);
    let arr = arg(args, 1);
    let list = if arr.is_nullish() {
        Vec::new()
    } else {
        i.iterate_values(&arr)?
    };
    let site = i.current_call_site;
    i.call_value(this, call_this, &list, site)
}

fn function_bind(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let Some(fid) = this.as_obj() else {
        return Ok(this);
    };
    match i.heap.get(fid).kind.clone() {
        ObjKind::Function(mut data) => {
            data.bound_this = Some(Box::new(arg(args, 0)));
            data.bound_args.extend(args.iter().skip(1).cloned());
            let b = i.heap.alloc(ObjKind::Function(data));
            let src = i.heap.get(fid);
            let (proto, born_at) = (src.proto, src.born_at);
            let dst = i.heap.get_mut(b);
            dst.proto = proto;
            // Bound functions keep the original's allocation-site identity
            // so analysis hints still refer to the definition.
            dst.born_at = born_at;
            Ok(Value::Obj(b))
        }
        _ => Ok(this), // binding natives/proxies: approximate with the original
    }
}

fn function_to_string(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::str("function () { [native code] }"))
}

fn function_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    // new Function(p1, ..., pn, body) — dynamically generated code.
    let mut params = Vec::new();
    for a in args.iter().take(args.len().saturating_sub(1)) {
        params.push(i.to_string_value(a));
    }
    let body = match args.last() {
        Some(b) => i.to_string_value(b),
        None => String::new(),
    };
    let src = format!("(function anonymous({}) {{ {} }})", params.join(", "), body);
    let scope = i.global_scope();
    i.run_eval(&src, &scope)
}

// ----- Array -----

fn array_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let elems = if args.len() == 1 {
        if let Value::Num(n) = &args[0] {
            vec![Value::Undefined; (*n as usize).min(100_000)]
        } else {
            vec![args[0].clone()]
        }
    } else {
        args.to_vec()
    };
    let id = i.heap.alloc(ObjKind::Array(elems));
    let proto = i.protos.array;
    i.heap.get_mut(id).proto = Some(proto);
    i.heap.get_mut(id).born_at = i.pending_new_loc.or(i.current_call_site);
    Ok(Value::Obj(id))
}

fn array_is_array(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(Value::Bool(matches!(
        arg(args, 0).as_obj().map(|id| &i.heap.get(id).kind),
        Some(ObjKind::Array(_))
    )))
}

fn array_from(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let src = arg(args, 0);
    let items = i.iterate_values(&src)?;
    let mapfn = arg(args, 1);
    let mut out = Vec::with_capacity(items.len());
    if i.heap.is_callable(&mapfn) {
        for (idx, item) in items.into_iter().enumerate() {
            out.push(i.call_value(
                mapfn.clone(),
                Value::Undefined,
                &[item, Value::Num(idx as f64)],
                None,
            )?);
        }
    } else {
        out = items;
    }
    Ok(new_array(i, out))
}

fn array_of(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(new_array(i, args.to_vec()))
}

fn array_push(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let n = edit_elems(i, &this, |elems| {
        elems.extend_from_slice(args);
        elems.len()
    })?;
    Ok(Value::Num(n as f64))
}

fn array_pop(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    edit_elems(i, &this, |elems| elems.pop().unwrap_or(Value::Undefined))
}

fn array_shift(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    edit_elems(i, &this, |elems| {
        if elems.is_empty() {
            Value::Undefined
        } else {
            elems.remove(0)
        }
    })
}

fn array_unshift(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let n = edit_elems(i, &this, |elems| {
        elems.splice(0..0, args.iter().cloned());
        elems.len()
    })?;
    Ok(Value::Num(n as f64))
}

fn norm_index(idx: f64, len: usize) -> usize {
    if idx < 0.0 {
        (len as f64 + idx).max(0.0) as usize
    } else {
        (idx as usize).min(len)
    }
}

fn array_slice(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let len = elems.len();
    let start = match args.first() {
        Some(v) => norm_index(i.to_number_value(v)?, len),
        None => 0,
    };
    let end = match args.get(1) {
        Some(Value::Undefined) | None => len,
        Some(v) => norm_index(i.to_number_value(v)?, len),
    };
    let out = if start < end {
        elems[start..end].to_vec()
    } else {
        Vec::new()
    };
    Ok(new_array(i, out))
}

fn array_splice(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    // An array is edited in place; an array-like is materialized once and
    // left unchanged.
    let mut copy = Vec::new();
    if this_array(i, &this).is_none() {
        copy = i.iterate_values(&this)?;
    }
    let len = this_array(i, &this).map_or(copy.len(), |elems| elems.len());
    let start = match args.first() {
        Some(v) => norm_index(i.to_number_value(v)?, len),
        None => 0,
    };
    let delete_count = match args.get(1) {
        Some(v) => (i.to_number_value(v)?.max(0.0) as usize).min(len - start),
        None => len - start,
    };
    let elems = this_array(i, &this).unwrap_or(&mut copy);
    // A `valueOf` run by the conversions above may have shortened it.
    let start = start.min(elems.len());
    let end = (start + delete_count).min(elems.len());
    let removed: Vec<Value> = elems
        .splice(start..end, args.iter().skip(2).cloned())
        .collect();
    Ok(new_array(i, removed))
}

fn array_concat(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut elems = this_elems(i, &this)?;
    for a in args {
        match a.as_obj().map(|id| i.heap.get(id).kind.clone()) {
            Some(ObjKind::Array(more)) => elems.extend(more),
            _ => elems.push(a.clone()),
        }
    }
    Ok(new_array(i, elems))
}

fn array_join(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let sep = match args.first() {
        Some(Value::Undefined) | None => ",".to_string(),
        Some(v) => i.to_string_value(v),
    };
    join(i, &this, &sep)
}

/// `Array.prototype.join`, also behind an array's `ToPrimitive`. An array
/// that is already being joined further up joins as `""`, V8's rule, so
/// a cycle ends; deep nesting ends at `max_stack`, which every
/// `ToPrimitive` of an array counts against.
pub(crate) fn join(i: &mut Interp, this: &Value, sep: &str) -> R {
    let id = this.as_obj();
    if id.is_some_and(|id| i.joining.contains(&id)) {
        return Ok(Value::str(""));
    }
    let elems = this_elems(i, this)?;
    i.joining.extend(id);
    let joined = join_elems(i, &elems, sep);
    if id.is_some() {
        i.joining.pop();
    }
    joined
}

fn join_elems(i: &mut Interp, elems: &[Value], sep: &str) -> R {
    let mut out = String::new();
    for (k, e) in elems.iter().enumerate() {
        let part = if e.is_nullish() {
            String::new()
        } else {
            i.to_string_value(e)
        };
        let sep = if k == 0 { "" } else { sep };
        i.check_string_len(out.len() + sep.len() + part.len())?;
        out.push_str(sep);
        out.push_str(&part);
    }
    Ok(Value::from(out))
}

fn array_index_of(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let needle = arg(args, 0);
    Ok(Value::Num(
        elems
            .iter()
            .position(|e| e.strict_eq(&needle))
            .map(|p| p as f64)
            .unwrap_or(-1.0),
    ))
}

fn array_last_index_of(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let needle = arg(args, 0);
    Ok(Value::Num(
        elems
            .iter()
            .rposition(|e| e.strict_eq(&needle))
            .map(|p| p as f64)
            .unwrap_or(-1.0),
    ))
}

fn array_includes(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let needle = arg(args, 0);
    Ok(Value::Bool(elems.iter().any(|e| e.strict_eq(&needle))))
}

/// Calls the callback `args[0]` on each element of `this` with `args[1]` as
/// its `this`, as `forEach`, `map`, `filter`, `some`, `every`, `find` and
/// `findIndex` do. `visit` sees each element, its index and the callback's
/// result; the walk stops at the first `Some` it returns, which becomes
/// the answer.
fn each_callback(
    i: &mut Interp,
    this: &Value,
    args: &[Value],
    mut visit: impl FnMut(&mut Interp, Value, usize, Value) -> Option<Value>,
) -> Result<Option<Value>, JsError> {
    let elems = this_elems(i, this)?;
    let cb = arg(args, 0);
    let cb_this = arg(args, 1);
    for (idx, e) in elems.into_iter().enumerate() {
        let r = i.call_value(
            cb.clone(),
            cb_this.clone(),
            &[e.clone(), Value::Num(idx as f64), this.clone()],
            i.current_call_site,
        )?;
        if let Some(done) = visit(i, e, idx, r) {
            return Ok(Some(done));
        }
    }
    Ok(None)
}

fn array_for_each(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    each_callback(i, &this, args, |_, _, _, _| None)?;
    Ok(Value::Undefined)
}

fn array_map(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut out = Vec::new();
    each_callback(i, &this, args, |_, _, _, r| {
        out.push(r);
        None
    })?;
    Ok(new_array(i, out))
}

fn array_filter(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut out = Vec::new();
    each_callback(i, &this, args, |i, e, _, r| {
        if i.truthy(&r) {
            out.push(e);
        }
        None
    })?;
    Ok(new_array(i, out))
}

fn array_reduce(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let cb = arg(args, 0);
    let mut acc;
    let mut start = 0;
    if args.len() >= 2 {
        acc = arg(args, 1);
    } else if !elems.is_empty() {
        acc = elems[0].clone();
        start = 1;
    } else {
        return Err(i.throw_error("TypeError", "reduce of empty array with no initial value"));
    }
    for (idx, e) in elems.into_iter().enumerate().skip(start) {
        acc = i.call_value(
            cb.clone(),
            Value::Undefined,
            &[acc, e, Value::Num(idx as f64), this.clone()],
            i.current_call_site,
        )?;
    }
    Ok(acc)
}

fn array_reduce_right(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut elems = this_elems(i, &this)?;
    elems.reverse();
    let rev = new_array(i, elems);
    array_reduce(i, _s, rev, args)
}

fn array_some(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let hit = each_callback(i, &this, args, |i, _, _, r| {
        i.truthy(&r).then_some(Value::Bool(true))
    })?;
    Ok(hit.unwrap_or(Value::Bool(false)))
}

fn array_every(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let miss = each_callback(i, &this, args, |i, _, _, r| {
        (!i.truthy(&r)).then_some(Value::Bool(false))
    })?;
    Ok(miss.unwrap_or(Value::Bool(true)))
}

fn array_find(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let hit = each_callback(i, &this, args, |i, e, _, r| i.truthy(&r).then_some(e))?;
    Ok(hit.unwrap_or(Value::Undefined))
}

fn array_find_index(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let hit = each_callback(i, &this, args, |i, _, idx, r| {
        i.truthy(&r).then_some(Value::Num(idx as f64))
    })?;
    Ok(hit.unwrap_or(Value::Num(-1.0)))
}

fn array_sort(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut elems = this_elems(i, &this)?;
    let cmp = arg(args, 0);
    if i.heap.is_callable(&cmp) {
        // Simple insertion sort driven by the comparator (comparators can
        // have side effects; a stable, predictable order matters more
        // than asymptotics here).
        let mut sorted: Vec<Value> = Vec::with_capacity(elems.len());
        for e in elems.into_iter() {
            let mut at = sorted.len();
            for (j, s) in sorted.iter().enumerate() {
                let r =
                    i.call_value(cmp.clone(), Value::Undefined, &[e.clone(), s.clone()], None)?;
                if i.to_number_value(&r)? < 0.0 {
                    at = j;
                    break;
                }
            }
            sorted.insert(at, e);
        }
        elems = sorted;
    } else {
        let mut keyed: Vec<(String, Value)> = elems
            .into_iter()
            .map(|e| (i.to_string_value(&e), e))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        elems = keyed.into_iter().map(|(_, e)| e).collect();
    }
    // The comparator may have edited the array; the sorted snapshot wins.
    if let Some(e) = this_array(i, &this) {
        *e = elems;
    }
    Ok(this)
}

fn array_reverse(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    edit_elems(i, &this, |elems| elems.reverse())?;
    Ok(this)
}

fn array_fill(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let v = arg(args, 0);
    edit_elems(i, &this, |elems| elems.fill(v))?;
    Ok(this)
}

fn array_flat(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    let elems = this_elems(i, &this)?;
    let mut out = Vec::new();
    for e in elems {
        match e.as_obj().map(|id| i.heap.get(id).kind.clone()) {
            Some(ObjKind::Array(inner)) => out.extend(inner),
            _ => out.push(e),
        }
    }
    Ok(new_array(i, out))
}

fn array_to_string(i: &mut Interp, s: ObjId, this: Value, _a: &[Value]) -> R {
    array_join(i, s, this, &[])
}

// ----- String -----

fn string_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let s = match args.first() {
        Some(v) => i.to_string_value(v),
        None => String::new(),
    };
    Ok(Value::from(s))
}

fn string_from_char_code(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let mut out = String::new();
    for a in args {
        let c = i.to_number_value(a)? as u32;
        out.push(char::from_u32(c).unwrap_or('\u{fffd}'));
    }
    Ok(Value::from(out))
}

fn string_char_at(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let idx = i.to_number_value(&arg(args, 0))? as usize;
    Ok(Value::from(
        s.chars()
            .nth(idx)
            .map(|c| c.to_string())
            .unwrap_or_default(),
    ))
}

fn string_char_code_at(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let idx = i.to_number_value(&arg(args, 0))? as usize;
    Ok(match s.chars().nth(idx) {
        Some(c) => Value::Num(c as u32 as f64),
        None => Value::Num(f64::NAN),
    })
}

fn string_index_of(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let needle = i.to_string_value(&arg(args, 0));
    Ok(Value::Num(
        s.find(&needle)
            .map(|b| s[..b].chars().count() as f64)
            .unwrap_or(-1.0),
    ))
}

fn string_last_index_of(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let needle = i.to_string_value(&arg(args, 0));
    Ok(Value::Num(
        s.rfind(&needle)
            .map(|b| s[..b].chars().count() as f64)
            .unwrap_or(-1.0),
    ))
}

fn string_includes(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let needle = i.to_string_value(&arg(args, 0));
    Ok(Value::Bool(s.contains(&needle)))
}

fn string_starts_with(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let needle = i.to_string_value(&arg(args, 0));
    Ok(Value::Bool(s.starts_with(&needle)))
}

fn string_ends_with(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let needle = i.to_string_value(&arg(args, 0));
    Ok(Value::Bool(s.ends_with(&needle)))
}

fn char_slice(s: &str, start: usize, end: usize) -> String {
    s.chars()
        .skip(start)
        .take(end.saturating_sub(start))
        .collect()
}

fn string_slice(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let len = s.chars().count();
    let start = match args.first() {
        Some(v) => norm_index(i.to_number_value(v)?, len),
        None => 0,
    };
    let end = match args.get(1) {
        Some(Value::Undefined) | None => len,
        Some(v) => norm_index(i.to_number_value(v)?, len),
    };
    Ok(Value::from(char_slice(&s, start, end)))
}

fn string_substring(i: &mut Interp, s_: ObjId, this: Value, args: &[Value]) -> R {
    // substring swaps out-of-order indices; close enough to slice for our
    // purposes when indices are in order.
    string_slice(i, s_, this, args)
}

fn string_substr(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let len = s.chars().count();
    let start = match args.first() {
        Some(v) => norm_index(i.to_number_value(v)?, len),
        None => 0,
    };
    let count = match args.get(1) {
        Some(Value::Undefined) | None => len - start,
        Some(v) => i.to_number_value(v)?.max(0.0) as usize,
    };
    Ok(Value::from(char_slice(&s, start, start + count)))
}

fn string_to_upper(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    let s = this_string(i, &this);
    Ok(Value::from(s.to_uppercase()))
}

fn string_to_lower(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    let s = this_string(i, &this);
    Ok(Value::from(s.to_lowercase()))
}

fn string_trim(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    let s = this_string(i, &this);
    Ok(Value::from(s.trim().to_string()))
}

fn string_split(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let sep = arg(args, 0);
    let parts: Vec<Value> = match &sep {
        Value::Undefined => vec![Value::from(s)],
        Value::Str(sep) if sep.is_empty() => s.chars().map(|c| Value::str(c.to_string())).collect(),
        Value::Str(sep) => s.split(&**sep).map(Value::str).collect(),
        Value::Obj(_) => {
            // Regex separator: approximate by whitespace split.
            s.split_whitespace().map(Value::str).collect()
        }
        other => {
            let sep = i.to_string_value(other);
            s.split(&sep).map(Value::str).collect()
        }
    };
    let limited = match args.get(1) {
        Some(Value::Num(n)) => parts.into_iter().take(*n as usize).collect(),
        _ => parts,
    };
    Ok(new_array(i, limited))
}

fn string_replace(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let pat = arg(args, 0);
    let repl = arg(args, 1);
    match &pat {
        Value::Str(p) => {
            let replacement = if i.heap.is_callable(&repl) {
                let m = Value::Str(p.clone());
                let r = i.call_value(repl, Value::Undefined, &[m], None)?;
                i.to_string_value(&r)
            } else {
                i.to_string_value(&repl)
            };
            Ok(Value::from(s.replacen(&**p, &replacement, 1)))
        }
        // Regex pattern: return the string unchanged (approximation).
        _ => Ok(Value::from(s)),
    }
}

fn string_replace_all(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let pat = arg(args, 0);
    let repl = arg(args, 1);
    match &pat {
        Value::Str(p) => {
            let replacement = i.to_string_value(&repl);
            Ok(Value::from(s.replace(&**p, &replacement)))
        }
        _ => Ok(Value::from(s)),
    }
}

fn string_concat(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let mut s = this_string(i, &this);
    for a in args {
        let part = i.to_string_value(a);
        i.check_string_len(s.len() + part.len())?;
        s.push_str(&part);
    }
    Ok(Value::from(s))
}

fn string_repeat(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let n = i.to_number_value(&arg(args, 0))?;
    let count = if n.is_nan() { 0.0 } else { n.trunc() };
    if count < 0.0 || count == f64::INFINITY {
        let shown = number::to_string(n);
        return Err(i.throw_error("RangeError", format!("Invalid count value: {shown}")));
    }
    let n = count as usize;
    i.check_string_len(s.len().saturating_mul(n))?;
    Ok(Value::from(s.repeat(n)))
}

fn string_pad_start(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let target = i.to_number_value(&arg(args, 0))?.max(0.0) as usize;
    let pad = match args.get(1) {
        Some(Value::Undefined) | None => " ".to_string(),
        Some(v) => i.to_string_value(v),
    };
    let fill = pad_fill(i, &s, target, &pad)?;
    Ok(Value::from(fill + &s))
}

fn string_pad_end(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let s = this_string(i, &this);
    let target = i.to_number_value(&arg(args, 0))?.max(0.0) as usize;
    let pad = match args.get(1) {
        Some(Value::Undefined) | None => " ".to_string(),
        Some(v) => i.to_string_value(v),
    };
    let fill = pad_fill(i, &s, target, &pad)?;
    Ok(Value::from(s + &fill))
}

/// The fill `padStart`/`padEnd` add to `s` to reach `target` chars:
/// `pad` repeated and cut to length, empty when `pad` is. The padded
/// string's length is checked against the string budget before the fill
/// is built.
fn pad_fill(i: &mut Interp, s: &str, target: usize, pad: &str) -> Result<String, JsError> {
    let needed = target.saturating_sub(s.chars().count());
    let pad_chars = pad.chars().count();
    if needed == 0 || pad_chars == 0 {
        return Ok(String::new());
    }
    let rest = needed % pad_chars;
    let rest_bytes = pad.char_indices().nth(rest).map_or(pad.len(), |(b, _)| b);
    let fill_bytes = (needed / pad_chars)
        .saturating_mul(pad.len())
        .saturating_add(rest_bytes);
    i.check_string_len(s.len().saturating_add(fill_bytes))?;
    Ok(pad.chars().cycle().take(needed).collect())
}

fn string_match(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Null)
}

fn string_search(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Num(-1.0))
}

// ----- Number / Math -----

fn number_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    match args.first() {
        Some(v) => Ok(Value::Num(i.to_number_value(v)?)),
        None => Ok(Value::Num(0.0)),
    }
}

fn boolean_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(Value::Bool(i.truthy(&arg(args, 0))))
}

fn number_is_integer(_i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    // The infinities' `fract()` is NaN.
    Ok(Value::Bool(
        matches!(arg(args, 0), Value::Num(n) if n.fract() == 0.0),
    ))
}

fn number_to_string(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let n = i.to_number_value(&this)?;
    Ok(Value::from(match args.first() {
        Some(Value::Num(radix)) if (2.0..37.0).contains(radix) => {
            number::to_radix_string(n, *radix as u32)
        }
        _ => number::to_string(n),
    }))
}

fn number_to_fixed(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let n = i.to_number_value(&this)?;
    let digits = i.to_number_value(&arg(args, 0))?;
    let digits = if digits.is_nan() { 0.0 } else { digits.trunc() };
    if !(0.0..=100.0).contains(&digits) {
        return Err(i.throw_error(
            "RangeError",
            "toFixed() digits argument must be between 0 and 100",
        ));
    }
    Ok(Value::from(number::to_fixed(n, digits as usize)))
}

macro_rules! math_unary {
    ($name:ident, $f:expr) => {
        fn $name(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
            let n = i.to_number_value(&arg(args, 0))?;
            #[allow(clippy::redundant_closure_call)]
            Ok(Value::Num(($f)(n)))
        }
    };
}

math_unary!(math_floor, f64::floor);
math_unary!(math_ceil, f64::ceil);
math_unary!(math_round, f64::round);
math_unary!(math_trunc, f64::trunc);
math_unary!(math_abs, f64::abs);
math_unary!(math_sqrt, f64::sqrt);
math_unary!(math_log, f64::ln);
math_unary!(math_exp, f64::exp);
math_unary!(math_sign, f64::signum);

fn math_pow(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let a = i.to_number_value(&arg(args, 0))?;
    let b = i.to_number_value(&arg(args, 1))?;
    Ok(Value::Num(a.powf(b)))
}

fn math_min(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let mut m = f64::INFINITY;
    for a in args {
        m = m.min(i.to_number_value(a)?);
    }
    Ok(Value::Num(m))
}

fn math_max(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let mut m = f64::NEG_INFINITY;
    for a in args {
        m = m.max(i.to_number_value(a)?);
    }
    Ok(Value::Num(m))
}

fn math_random(i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Num(i.next_random()))
}

// ----- globals -----

fn global_parse_int(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let s = i.to_string_value(&arg(args, 0));
    let radix = number::to_int32(i.to_number_value(&arg(args, 1))?);
    Ok(Value::Num(number::parse_int(&s, radix)))
}

fn global_parse_float(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let s = i.to_string_value(&arg(args, 0));
    Ok(Value::Num(number::parse_float(&s)))
}

fn global_is_nan(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let n = i.to_number_value(&arg(args, 0))?;
    Ok(Value::Bool(n.is_nan()))
}

fn global_is_finite(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let n = i.to_number_value(&arg(args, 0))?;
    Ok(Value::Bool(n.is_finite()))
}

/// Indirect `eval` (direct eval is intercepted in the call evaluator and
/// runs in the caller's scope; this one runs in the global scope).
fn global_eval(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    match arg(args, 0) {
        Value::Str(code) => {
            let scope = i.global_scope();
            i.run_eval(&code, &scope)
        }
        other => Ok(other),
    }
}

fn symbol_stub(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let desc = match args.first() {
        Some(v) => i.to_string_value(v),
        None => String::new(),
    };
    let n = i.heap.len();
    Ok(Value::from(format!("Symbol({desc})#{n}")))
}

fn process_cwd(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::str("/"))
}

// ----- errors -----

fn error_ctor(i: &mut Interp, s: ObjId, _t: Value, args: &[Value]) -> R {
    let msg = match args.first() {
        Some(Value::Undefined) | None => String::new(),
        Some(v) => i.to_string_value(v),
    };
    // Use this constructor's prototype so `instanceof TypeError` works.
    let proto = match i.heap.own_prop(s, "prototype") {
        Some(Prop {
            value: PropValue::Data(Value::Obj(p)),
            ..
        }) => p,
        _ => i.protos.error,
    };
    let site = i.pending_new_loc.or(i.current_call_site);
    let e = i.heap.alloc_plain(Some(proto), site);
    i.heap.set_prop(e, "message", Value::from(msg));
    i.heap
        .set_prop(e, "stack", Value::str("Error\n    at <anonymous>"));
    Ok(Value::Obj(e))
}

fn error_to_string(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    let name = i.get_property(this.clone(), "name", None)?;
    let msg = i.get_property(this.clone(), "message", None)?;
    let name = i.to_string_value(&name);
    let msg = i.to_string_value(&msg);
    Ok(Value::from(if msg.is_empty() {
        name
    } else {
        format!("{name}: {msg}")
    }))
}

// ----- RegExp -----

fn regexp_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let proto = i.protos.regexp;
    let site = i.pending_new_loc.or(i.current_call_site);
    let o = i.heap.alloc_plain(Some(proto), site);
    let src = i.to_string_value(&arg(args, 0));
    let flags = match args.get(1) {
        Some(Value::Undefined) | None => String::new(),
        Some(v) => i.to_string_value(v),
    };
    i.heap.set_prop(o, "source", Value::from(src));
    i.heap.set_prop(o, "flags", Value::from(flags));
    i.heap.set_prop(o, "lastIndex", Value::Num(0.0));
    Ok(Value::Obj(o))
}

/// Regex matching is approximated: `test` succeeds (keeping the common
/// validation paths alive), `exec` yields no match.
fn regexp_test(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Bool(true))
}

fn regexp_exec(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Null)
}

// ----- Date -----

fn date_ctor(i: &mut Interp, s: ObjId, _t: Value, _a: &[Value]) -> R {
    let proto = match i.heap.own_prop(s, "prototype") {
        Some(Prop {
            value: PropValue::Data(Value::Obj(p)),
            ..
        }) => p,
        _ => i.protos.object,
    };
    let site = i.pending_new_loc.or(i.current_call_site);
    let d = i.heap.alloc_plain(Some(proto), site);
    let t = deterministic_now(i);
    i.heap.set_prop(d, "__time__", Value::Num(t));
    Ok(Value::Obj(d))
}

fn deterministic_now(i: &mut Interp) -> f64 {
    // A fixed epoch advanced by 1s per observation keeps runs reproducible
    // while still looking like a clock to the program.

    1_700_000_000_000.0 + (i.heap.len() as f64) * 1000.0
}

fn date_now(i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::Num(deterministic_now(i)))
}

fn date_get_time(i: &mut Interp, _s: ObjId, this: Value, _a: &[Value]) -> R {
    match this.as_obj() {
        Some(id) => match i.heap.own_prop(id, "__time__") {
            Some(Prop {
                value: PropValue::Data(v),
                ..
            }) => Ok(v),
            _ => Ok(Value::Num(0.0)),
        },
        None => Ok(Value::Num(0.0)),
    }
}

fn date_to_iso(_i: &mut Interp, _s: ObjId, _t: Value, _a: &[Value]) -> R {
    Ok(Value::str("2023-11-14T22:13:20.000Z"))
}

// ----- Promise -----

fn promise_new(i: &mut Interp, state: &str, value: Value) -> Value {
    let proto = i.protos.promise;
    let p = i.heap.alloc_plain(Some(proto), None);
    i.heap.set_prop(p, "__state__", Value::str(state));
    i.heap.set_prop(p, "__value__", value);
    Value::Obj(p)
}

fn promise_ctor(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let p = promise_new(i, "pending", Value::Undefined);
    let executor = arg(args, 0);
    if i.heap.is_callable(&executor) {
        let fproto = i.protos.function;
        let resolve = make_native(&mut i.heap, fproto, "promise_resolve_fn");
        let reject = make_native(&mut i.heap, fproto, "promise_reject_fn");
        for f in [&resolve, &reject] {
            if let Some(fid) = f.as_obj() {
                set_hidden(&mut i.heap, fid, "__promise__", p.clone());
            }
        }
        // Executors run synchronously here.
        let _ = i.call_value(executor, Value::Undefined, &[resolve, reject], None);
    }
    Ok(p)
}

fn promise_settle(i: &mut Interp, s: ObjId, state: &str, args: &[Value]) -> R {
    if let Some(Prop {
        value: PropValue::Data(Value::Obj(p)),
        ..
    }) = i.heap.own_prop(s, "__promise__")
    {
        i.heap.set_prop(p, "__state__", Value::str(state));
        i.heap.set_prop(p, "__value__", arg(args, 0));
    }
    Ok(Value::Undefined)
}

fn promise_resolve_fn(i: &mut Interp, s: ObjId, _t: Value, args: &[Value]) -> R {
    promise_settle(i, s, "fulfilled", args)
}

fn promise_reject_fn(i: &mut Interp, s: ObjId, _t: Value, args: &[Value]) -> R {
    promise_settle(i, s, "rejected", args)
}

fn promise_state(i: &Interp, p: &Value) -> (String, Value) {
    let Some(id) = p.as_obj() else {
        return ("fulfilled".into(), p.clone());
    };
    let state = match i.heap.own_prop(id, "__state__") {
        Some(Prop {
            value: PropValue::Data(Value::Str(s)),
            ..
        }) => s.to_string(),
        _ => return ("fulfilled".into(), p.clone()),
    };
    let value = match i.heap.own_prop(id, "__value__") {
        Some(Prop {
            value: PropValue::Data(v),
            ..
        }) => v,
        _ => Value::Undefined,
    };
    (state, value)
}

fn promise_then(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let (state, value) = promise_state(i, &this);
    let on_ok = arg(args, 0);
    let on_err = arg(args, 1);
    let result = match state.as_str() {
        "fulfilled" if i.heap.is_callable(&on_ok) => {
            i.call_value(on_ok, Value::Undefined, &[value], None)?
        }
        "rejected" if i.heap.is_callable(&on_err) => {
            i.call_value(on_err, Value::Undefined, &[value], None)?
        }
        _ => value,
    };
    Ok(promise_new(i, "fulfilled", result))
}

fn promise_catch(i: &mut Interp, s: ObjId, this: Value, args: &[Value]) -> R {
    promise_then(i, s, this, &[Value::Undefined, arg(args, 0)])
}

fn promise_finally(i: &mut Interp, _s: ObjId, this: Value, args: &[Value]) -> R {
    let cb = arg(args, 0);
    if i.heap.is_callable(&cb) {
        i.call_value(cb, Value::Undefined, &[], None)?;
    }
    Ok(this)
}

fn promise_resolve_static(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(promise_new(i, "fulfilled", arg(args, 0)))
}

fn promise_reject_static(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    Ok(promise_new(i, "rejected", arg(args, 0)))
}

fn promise_all(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let items = i.iterate_values(&arg(args, 0))?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        let (_, v) = promise_state(i, &item);
        values.push(v);
    }
    let arr = new_array(i, values);
    Ok(promise_new(i, "fulfilled", arr))
}

// ----- JSON -----

fn json_stringify(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let mut w = JsonWriter {
        out: String::new(),
        open: Vec::new(),
    };
    Ok(if w.value(i, &arg(args, 0))? {
        Value::from(w.out)
    } else {
        Value::Undefined
    })
}

/// `JSON.stringify`'s output so far and the arrays and objects it is
/// inside of, outermost first.
struct JsonWriter {
    out: String,
    open: Vec<ObjId>,
}

impl JsonWriter {
    /// Writes `v`, charging one step. Returns `false`, having written
    /// nothing, for the values JSON leaves out: `undefined` and functions.
    fn value(&mut self, i: &mut Interp, v: &Value) -> Result<bool, JsError> {
        i.step()?;
        match v {
            Value::Undefined => return Ok(false),
            Value::Null => self.out.push_str("null"),
            Value::Bool(b) => self.out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => self.out.push_str(&number::to_string(*n)),
            Value::Num(_) => self.out.push_str("null"),
            Value::Str(s) => json::write_escaped(s, &mut self.out),
            Value::Obj(id) => {
                let elems = match &i.heap.get(*id).kind {
                    ObjKind::Array(elems) => Some(elems.clone()),
                    ObjKind::Plain => None,
                    ObjKind::Function(_) | ObjKind::Native(_) | ObjKind::Proxy => return Ok(false),
                };
                if self.open.contains(id) {
                    return Err(i.throw_error("TypeError", "Converting circular structure to JSON"));
                }
                if self.open.len() == json::MAX_DEPTH {
                    let msg = format!(
                        "JSON.stringify nests deeper than {} levels",
                        json::MAX_DEPTH
                    );
                    return Err(i.throw_error("RangeError", msg));
                }
                self.open.push(*id);
                match elems {
                    Some(elems) => self.array(i, &elems)?,
                    None => self.object(i, *id)?,
                }
                self.open.pop();
            }
        }
        i.check_string_len(self.out.len())?;
        Ok(true)
    }

    fn array(&mut self, i: &mut Interp, elems: &[Value]) -> Result<(), JsError> {
        self.out.push('[');
        for (k, e) in elems.iter().enumerate() {
            if k > 0 {
                self.out.push(',');
            }
            if !self.value(i, e)? {
                self.out.push_str("null");
            }
        }
        self.out.push(']');
        Ok(())
    }

    fn object(&mut self, i: &mut Interp, id: ObjId) -> Result<(), JsError> {
        self.out.push('{');
        let mut first = true;
        for k in i.heap.own_enumerable_keys(id) {
            let pv = i.get_property(Value::Obj(id), &k, None)?;
            // Write the key, then take it back if the value is left out.
            let mark = self.out.len();
            if !first {
                self.out.push(',');
            }
            json::write_escaped(&k, &mut self.out);
            self.out.push(':');
            if self.value(i, &pv)? {
                first = false;
            } else {
                self.out.truncate(mark);
            }
        }
        self.out.push('}');
        Ok(())
    }
}

fn json_parse(i: &mut Interp, _s: ObjId, _t: Value, args: &[Value]) -> R {
    let text = i.to_string_value(&arg(args, 0));
    let site = i.current_call_site;
    parse_json(i, &text, site)
}

/// Parses `text` with the shared JSON grammar into JavaScript values
/// whose objects and arrays are born at `site`. Throws `SyntaxError`
/// where `text` is not JSON.
pub(crate) fn parse_json(i: &mut Interp, text: &str, site: Option<Loc>) -> R {
    let parsed = json::parse_with(text, &mut JsValues { i, site });
    parsed.map_err(|e| {
        i.throw_error(
            "SyntaxError",
            format!("{} in JSON at position {}", e.msg, e.offset),
        )
    })
}

/// Builds JavaScript values for [`parse_json`].
struct JsValues<'a> {
    i: &'a mut Interp,
    site: Option<Loc>,
}

impl json::Builder for JsValues<'_> {
    type Value = Value;
    fn build(&mut self, node: json::Node<Value>) -> Result<Value, &'static str> {
        let (i, site) = (&mut *self.i, self.site);
        let id = match node {
            json::Node::Null => return Ok(Value::Null),
            json::Node::Bool(b) => return Ok(Value::Bool(b)),
            json::Node::Num(n) => return Ok(Value::Num(n)),
            json::Node::Str(s) => return Ok(Value::from(s)),
            json::Node::Arr(items) => {
                let id = i.heap.alloc(ObjKind::Array(items));
                i.heap.get_mut(id).proto = Some(i.protos.array);
                i.heap.get_mut(id).born_at = site;
                id
            }
            json::Node::Obj(pairs) => {
                let id = i.heap.alloc_plain(Some(i.protos.object), site);
                // A repeated key keeps its first position and its last value.
                for (k, v) in pairs {
                    i.heap.set_prop(id, &k, v);
                }
                id
            }
        };
        Ok(Value::Obj(id))
    }
}

/// Table of every native; a native's id is its index here.
static NATIVE_TABLE: &[(&str, NativeFn)] = &[
    ("noop", noop),
    ("identity_this", identity_this),
    ("identity_first_arg", identity_first_arg),
    ("identity_first_arg_str", identity_first_arg_str),
    ("return_false", return_false),
    ("console_log", console_log),
    ("timer_immediate", timer_immediate),
    ("mock_io", mock_io),
    ("require", require),
    ("require_resolve", require_resolve),
    ("object_ctor", object_ctor),
    ("object_keys", object_keys),
    ("object_values", object_values),
    ("object_entries", object_entries),
    ("object_assign", object_assign),
    ("object_create", object_create),
    ("object_define_property", object_define_property),
    ("object_define_properties", object_define_properties),
    (
        "object_get_own_property_names",
        object_get_own_property_names,
    ),
    (
        "object_get_own_property_descriptor",
        object_get_own_property_descriptor,
    ),
    ("object_get_prototype_of", object_get_prototype_of),
    ("object_set_prototype_of", object_set_prototype_of),
    ("object_has_own", object_has_own),
    ("object_to_string", object_to_string),
    ("object_is_prototype_of", object_is_prototype_of),
    ("object_prop_is_enumerable", object_prop_is_enumerable),
    ("function_call", function_call),
    ("function_apply", function_apply),
    ("function_bind", function_bind),
    ("function_to_string", function_to_string),
    ("function_ctor", function_ctor),
    ("array_ctor", array_ctor),
    ("array_is_array", array_is_array),
    ("array_from", array_from),
    ("array_of", array_of),
    ("array_push", array_push),
    ("array_pop", array_pop),
    ("array_shift", array_shift),
    ("array_unshift", array_unshift),
    ("array_slice", array_slice),
    ("array_splice", array_splice),
    ("array_concat", array_concat),
    ("array_join", array_join),
    ("array_index_of", array_index_of),
    ("array_last_index_of", array_last_index_of),
    ("array_includes", array_includes),
    ("array_for_each", array_for_each),
    ("array_map", array_map),
    ("array_filter", array_filter),
    ("array_reduce", array_reduce),
    ("array_reduce_right", array_reduce_right),
    ("array_some", array_some),
    ("array_every", array_every),
    ("array_find", array_find),
    ("array_find_index", array_find_index),
    ("array_sort", array_sort),
    ("array_reverse", array_reverse),
    ("array_fill", array_fill),
    ("array_flat", array_flat),
    ("array_to_string", array_to_string),
    ("string_ctor", string_ctor),
    ("string_from_char_code", string_from_char_code),
    ("string_char_at", string_char_at),
    ("string_char_code_at", string_char_code_at),
    ("string_index_of", string_index_of),
    ("string_last_index_of", string_last_index_of),
    ("string_includes", string_includes),
    ("string_starts_with", string_starts_with),
    ("string_ends_with", string_ends_with),
    ("string_slice", string_slice),
    ("string_substring", string_substring),
    ("string_substr", string_substr),
    ("string_to_upper", string_to_upper),
    ("string_to_lower", string_to_lower),
    ("string_trim", string_trim),
    ("string_split", string_split),
    ("string_replace", string_replace),
    ("string_replace_all", string_replace_all),
    ("string_concat", string_concat),
    ("string_repeat", string_repeat),
    ("string_pad_start", string_pad_start),
    ("string_pad_end", string_pad_end),
    ("string_match", string_match),
    ("string_search", string_search),
    ("number_ctor", number_ctor),
    ("boolean_ctor", boolean_ctor),
    ("number_is_integer", number_is_integer),
    ("number_to_string", number_to_string),
    ("number_to_fixed", number_to_fixed),
    ("math_floor", math_floor),
    ("math_ceil", math_ceil),
    ("math_round", math_round),
    ("math_trunc", math_trunc),
    ("math_abs", math_abs),
    ("math_sqrt", math_sqrt),
    ("math_pow", math_pow),
    ("math_min", math_min),
    ("math_max", math_max),
    ("math_random", math_random),
    ("math_log", math_log),
    ("math_exp", math_exp),
    ("math_sign", math_sign),
    ("global_parse_int", global_parse_int),
    ("global_parse_float", global_parse_float),
    ("global_is_nan", global_is_nan),
    ("global_is_finite", global_is_finite),
    ("global_eval", global_eval),
    ("symbol_stub", symbol_stub),
    ("process_cwd", process_cwd),
    ("error_ctor", error_ctor),
    ("error_to_string", error_to_string),
    ("regexp_ctor", regexp_ctor),
    ("regexp_test", regexp_test),
    ("regexp_exec", regexp_exec),
    ("date_ctor", date_ctor),
    ("date_now", date_now),
    ("date_get_time", date_get_time),
    ("date_to_iso", date_to_iso),
    ("promise_ctor", promise_ctor),
    ("promise_resolve_fn", promise_resolve_fn),
    ("promise_reject_fn", promise_reject_fn),
    ("promise_then", promise_then),
    ("promise_catch", promise_catch),
    ("promise_finally", promise_finally),
    ("promise_resolve_static", promise_resolve_static),
    ("promise_reject_static", promise_reject_static),
    ("promise_all", promise_all),
    ("json_stringify", json_stringify),
    ("json_parse", json_parse),
];
