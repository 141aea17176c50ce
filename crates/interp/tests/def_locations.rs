//! A closure carries its definition: the parse's own `Arc<Function>` and
//! the definition's location, which every call reports to the tracer (the
//! callee end of a dynamic call-graph edge).

use aji_ast::visit::{self, Visit};
use aji_ast::{Loc, NodeId, Project};
use aji_interp::heap::ObjKind;
use aji_interp::tracer::Tracer;
use aji_interp::{Interp, InterpOptions, NoopTracer, ObjId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

#[test]
fn closures_hold_the_parses_own_function_pointers() {
    let src = "function a() { return function b() { return () => 1; }; }\n\
               var o = { m() {} };\nclass C { constructor() {} k() {} }\n\
               a()();";
    let mut project = Project::new("t");
    project.add_file("index.js", src);
    let parsed = aji_parser::parse_project(&project).unwrap();

    struct All(BTreeMap<NodeId, Arc<aji_ast::ast::Function>>);
    impl Visit for All {
        fn visit_function(&mut self, f: &Arc<aji_ast::ast::Function>) {
            self.0.insert(f.id, f.clone());
            visit::walk_function(self, f);
        }
    }
    let mut all = All(BTreeMap::new());
    for m in &parsed.modules {
        all.visit_module(m);
    }
    assert_eq!(all.0.len(), 6);

    let mut interp = Interp::with_parsed(
        &project,
        &parsed,
        InterpOptions::default(),
        Box::new(NoopTracer),
    );
    interp.run_module("index.js").unwrap();
    let mut seen = Vec::new();
    for i in 0..interp.heap.len() {
        if let ObjKind::Function(data) = &interp.heap.get(ObjId(i as u32)).kind {
            if let Some(parsed_def) = all.0.get(&data.def.id) {
                assert!(
                    Arc::ptr_eq(&data.def, parsed_def),
                    "closure copied {:?}",
                    data.def.name
                );
                seen.push(data.def.id);
            }
        }
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen, all.0.keys().copied().collect::<Vec<_>>());
}

/// Records every call as `(call site, callee location)`.
#[derive(Default)]
struct Calls(Vec<(Option<Loc>, Option<Loc>)>);

impl Tracer for Calls {
    fn on_call(&mut self, call_site: Option<Loc>, _callee_def: NodeId, callee_loc: Option<Loc>) {
        self.0.push((call_site, callee_loc));
    }
}

/// A location shortened to `(line, col)`.
type LineCol = Option<(u32, u32)>;

/// Runs `src` as `index.js` and returns its calls as `(call site, callee)`
/// pairs.
fn calls(src: &str) -> Vec<(LineCol, LineCol)> {
    let mut project = Project::new("t");
    project.add_file("index.js", src);
    let log = Rc::new(RefCell::new(Calls::default()));
    let mut interp =
        Interp::with_options(&project, InterpOptions::default(), Box::new(log.clone())).unwrap();
    interp.run_module("index.js").unwrap();
    drop(interp);
    let short = |l: Option<Loc>| l.map(|l| (l.line, l.col));
    let out = log
        .borrow()
        .0
        .iter()
        .map(|&(s, c)| (short(s), short(c)))
        .collect();
    out
}

#[test]
fn a_project_function_made_inside_eval_keeps_its_location() {
    // `inner`'s closure is created while the `eval` runs, so it has no
    // allocation site; its definition still lies in the project.
    let log = calls(
        "function outer() { return function inner() { return 1; }; }\n\
         var g = eval('outer()');\n\
         g();",
    );
    assert!(log.contains(&(Some((3, 1)), Some((1, 27)))), "{log:?}");
}

#[test]
fn a_function_defined_in_eval_has_no_location() {
    let log = calls("var h = eval('(function () { return 2; })');\nh();");
    assert_eq!(log, vec![(Some((2, 1)), None)]);
}

#[test]
fn a_prelude_function_has_no_location() {
    let log = calls(
        "var EventEmitter = require('events');\n\
         var e = new EventEmitter();\n\
         e.emit('x');",
    );
    let emit: Vec<_> = log.iter().filter(|(s, _)| *s == Some((3, 1))).collect();
    assert_eq!(emit, vec![&(Some((3, 1)), None)], "{log:?}");
    assert!(log.iter().all(|(_, c)| c.is_none()), "{log:?}");
}

#[test]
fn a_class_without_constructor_reports_the_class_location() {
    let log = calls("var x = 0;\nclass K {}\nnew K();");
    assert_eq!(log, vec![(Some((3, 1)), Some((2, 1)))]);
}

#[test]
fn a_class_field_initializer_has_no_location() {
    let log = calls("class F { constructor() {} x = 1; }\nnew F();");
    let located: Vec<_> = log.iter().filter(|(_, c)| c.is_some()).collect();
    assert_eq!(located, vec![&(Some((2, 1)), Some((1, 22)))], "{log:?}");
    assert_eq!(log.len(), 2, "the initializer thunk runs once: {log:?}");
}
