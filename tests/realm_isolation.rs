//! Builtin-realm isolation: every interpreter on a thread starts from a
//! clone of that thread's builtin template, so nothing one project does to
//! the builtins can reach the next project on the same thread.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_ast::Project;
use aji_interp::{Interp, InterpOptions, NoopTracer};
use aji_oracle::{run_oracle, OracleOptions};

/// Writes `Array.prototype.x` and `Object.prototype.y`, and rebinds the
/// globals `JSON` and (inside a function the worklist forces) `Math`.
fn polluter() -> Project {
    let mut p = Project::new("polluter");
    p.add_file(
        "index.js",
        "Array.prototype.x = 1;\n\
         Object.prototype.y = 2;\n\
         JSON = 3;\n\
         function clobber() { Math = 4; }\n\
         module.exports = { clobber: clobber, seen: [[].x, ({}).y, JSON].join(',') };\n",
    );
    p
}

/// What a realm reports about the builtins the polluter touches.
const PROBE: &str = "[typeof [].x, typeof ({}).y, typeof JSON, typeof Math, \
                     typeof JSON.stringify].join(',')";

fn probe(interp: &mut Interp) -> String {
    let v = interp.eval_source(PROBE).expect("probe runs");
    interp.to_string_public(&v)
}

#[test]
fn an_approx_run_leaves_the_next_realm_pristine() {
    let p = polluter();
    let mut dirty =
        Interp::with_options(&p, InterpOptions::approx_defaults(), Box::new(NoopTracer))
            .expect("parse");
    let exports = dirty.run_module("index.js").expect("polluter runs");
    let seen = dirty.get_property_public(&exports, "seen").expect("seen");
    assert_eq!(dirty.to_string_public(&seen), "1,2,3");
    let clobber = dirty.get_property_public(&exports, "clobber").expect("fn");
    dirty
        .call_function(clobber, exports, &[])
        .expect("clobber runs");
    assert_eq!(probe(&mut dirty), "number,number,number,number,undefined");

    // The worklist forces `clobber` too.
    let result = approximate_interpret(&p, &ApproxOptions::default()).expect("parse");
    assert!(result.stats.functions_visited >= 1);

    let mut clean = Interp::new(&Project::new("next")).expect("parse");
    assert_eq!(
        probe(&mut clean),
        "undefined,undefined,object,object,function"
    );
}

#[test]
fn oracle_json_does_not_depend_on_what_ran_first_on_the_thread() {
    let corpus = aji_corpus::table1_benchmarks();
    let target = corpus[0].clone();
    let alone = {
        let target = target.clone();
        std::thread::spawn(move || {
            run_oracle(&target, &OracleOptions::default())
                .expect("oracle runs")
                .to_json()
                .to_string()
        })
        .join()
        .expect("no panic")
    };
    let after_others = std::thread::spawn(move || {
        let opts = OracleOptions::default();
        run_oracle(&polluter(), &opts).expect("polluter runs");
        for p in &corpus[1..4] {
            run_oracle(p, &opts).expect("oracle runs");
        }
        run_oracle(&target, &opts)
            .expect("oracle runs")
            .to_json()
            .to_string()
    })
    .join()
    .expect("no panic");
    assert_eq!(alone, after_others);
}
