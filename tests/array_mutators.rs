//! Array mutators edit the array's element vector in place. They used to
//! copy the whole vector, edit the copy and store it back, so a push loop
//! was quadratic: 20 000 pushes took seconds in a release build, and
//! `max_loop_iters` let a single file stall the pipeline for hours.

use aji::{run_benchmark, PipelineOptions};
use aji_ast::Project;
use aji_interp::Interp;
use std::time::{Duration, Instant};

/// The stack size of a default spawned thread, and of corpus workers.
const SMALL_STACK: usize = 2 << 20;

const PUSHES: &str = "var q = [];\n\
                      for (var i = 0; i < 20000; i++) { q.push(i); }\n\
                      module.exports = q.length;\n";

#[test]
fn twenty_thousand_pushes_run_in_linear_time() {
    let mut p = Project::new("push-loop");
    p.add_file("index.js", PUSHES);
    p.test_driver = Some("index.js".to_string());

    // The dynamic run really performs every push.
    let mut interp = Interp::new(&p).expect("parse");
    let n = interp.run_module("index.js").expect("runs");
    assert_eq!(interp.to_string_public(&n), "20000");

    let elapsed = std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(move || {
            let start = Instant::now();
            run_benchmark(&p, &PipelineOptions::with_dynamic_cg()).expect("pipeline runs");
            start.elapsed()
        })
        .expect("spawn")
        .join()
        .expect("no panic");
    // Even a debug build finishes well inside this; the quadratic copy
    // took several times longer.
    assert!(
        elapsed < Duration::from_secs(2),
        "20 000 pushes took {elapsed:?}"
    );
}
