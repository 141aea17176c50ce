//! Benchmarks for the three pipeline stages of Table 3 — baseline static
//! analysis, approximate interpretation, and the extended static
//! analysis — on representative corpus projects, using the in-tree
//! `aji-support` bench harness.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_pta::{analyze, AnalysisOptions};
use aji_support::bench::{black_box, Suite};

fn main() {
    let small = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "webframe-app")
        .expect("webframe");
    let medium = aji_corpus::generate(&aji_corpus::GenConfig {
        name: "bench-medium".into(),
        seed: 77,
        libs: 6,
        methods_per_lib: 10,
        dynamic_fraction: 0.5,
        app_modules: 6,
        calls_per_module: 5,
        use_mixin: true,
        use_emitter: true,
        driver_coverage: 0.6,
        vulns: 0,
        hard_dispatch_fraction: 0.0,
        computed_writes: 0,
        accessor_methods: 0,
        typo_injections: 0,
    });

    let mut suite = Suite::new("table3-stages").iters(20);
    for (label, project) in [("webframe", &small), ("generated-medium", &medium)] {
        let hints = approximate_interpret(project, &ApproxOptions::default())
            .expect("approx")
            .hints;
        suite.bench(format!("baseline/{label}"), || {
            black_box(analyze(project, None, &AnalysisOptions::baseline()).unwrap())
        });
        suite.bench(format!("approx-interp/{label}"), || {
            black_box(approximate_interpret(project, &ApproxOptions::default()).unwrap())
        });
        suite.bench(format!("extended/{label}"), || {
            black_box(analyze(project, Some(&hints), &AnalysisOptions::extended()).unwrap())
        });
    }
    suite.finish();
}
