//! The declaration walkers in `aji_ast::visit`: which names a body, a
//! pattern and a statement list bind.

use aji_ast::ast::{PatternKind, StmtKind};
use aji_ast::visit::{block_decls, pattern_names, var_names, BlockDecl};
use aji_ast::{FileId, Module, NodeIdGen};

fn parse(src: &str) -> Module {
    aji_parser::parse_module(src, FileId(0), &mut NodeIdGen::new())
        .unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
}

fn vars(src: &str) -> Vec<String> {
    let m = parse(src);
    let mut out = Vec::new();
    var_names(&m.body, &mut out);
    out.into_iter().map(str::to_string).collect()
}

#[test]
fn var_names_reach_through_every_nesting_statement() {
    let src = "var a; if (x) var b; else { var c; }\n\
               while (x) var d; do var e; while (x);\n\
               for (var f1 = 0, f2; ;) var g;\n\
               for (var h in o) var i; for (var j of o) var k;\n\
               outer: var l;\n\
               switch (x) { case 1: var m; default: var n; }\n\
               try { var o; } catch (err) { var p; } finally { var q; }\n\
               { { var r; } }";
    assert_eq!(
        vars(src),
        [
            "a", "b", "c", "d", "e", "f1", "f2", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p",
            "q", "r"
        ]
    );
}

#[test]
fn var_names_skip_nested_functions_classes_and_lexical_names() {
    let src = "function f() { var in_decl; }\n\
               class C { m() { var in_method; } }\n\
               (function () { var in_expr; });\n\
               var arrow = () => { var in_arrow; };\n\
               let l; const c = 1;\n\
               for (let i = 0; ;) ;\n\
               for (const x of o) var kept;";
    assert_eq!(vars(src), ["arrow", "kept"]);
}

#[test]
fn pattern_names_cover_destructuring_defaults_and_rest() {
    let m = parse("var [a, , { b, [k]: [c = 0], ...d } = {}, ...e] = v;");
    let StmtKind::VarDecl(d) = &m.body[0].kind else {
        panic!("not a declaration");
    };
    assert!(matches!(d.decls[0].name.kind, PatternKind::Array { .. }));
    let mut out = Vec::new();
    pattern_names(&d.decls[0].name, &mut out);
    assert_eq!(out, ["a", "b", "c", "d", "e"]);
}

#[test]
fn block_decls_list_own_declarations_in_source_order() {
    let m = parse(
        "let x, [y] = v; var skipped; class C {}\n\
         { const inner = 1; function nested() {} }\n\
         function f() { let deeper; }\n\
         const z = 1;",
    );
    let listed: Vec<String> = block_decls(&m.body)
        .map(|d| match d {
            BlockDecl::Function(f) => format!("function {}", f.name.as_deref().unwrap()),
            BlockDecl::Class(c) => format!("class {}", c.name.as_deref().unwrap()),
            BlockDecl::Lexical(d) => {
                let mut names = Vec::new();
                for decl in &d.decls {
                    pattern_names(&decl.name, &mut names);
                }
                format!("{:?} {}", d.kind, names.join(","))
            }
        })
        .collect();
    assert_eq!(listed, ["Let x,y", "class C", "function f", "Const z"]);
}
