//! Benchmarks of the substrates: parser throughput, concrete
//! interpretation, and the approximate interpreter's worklist, plus the
//! budget ablation from DESIGN.md (loop-limit vs hints produced). Uses
//! the in-tree `aji-support` bench harness.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_ast::{FileId, NodeIdGen};
use aji_interp::{Interp, InterpOptions};
use aji_support::bench::{black_box, Suite};

fn bench_parser(suite: &mut Suite) {
    let project = aji_corpus::generate(&aji_corpus::GenConfig {
        name: "parse-bench".into(),
        seed: 9,
        libs: 10,
        methods_per_lib: 12,
        dynamic_fraction: 0.5,
        app_modules: 10,
        calls_per_module: 6,
        use_mixin: true,
        use_emitter: true,
        driver_coverage: 0.5,
        vulns: 0,
        hard_dispatch_fraction: 0.0,
        computed_writes: 0,
        accessor_methods: 0,
        typo_injections: 0,
    });
    let total: usize = project.files.iter().map(|f| f.src.len()).sum();
    let r = suite.bench(format!("parse-project/{total}B"), || {
        let mut ids = NodeIdGen::new();
        for (i, f) in project.files.iter().enumerate() {
            black_box(aji_parser::parse_module(&f.src, FileId(i as u32), &mut ids).unwrap());
        }
    });
    let mb_per_s = total as f64 / (r.median_ns() as f64 / 1e9) / 1e6;
    eprintln!("  parse throughput: {mb_per_s:.1} MB/s");
}

fn bench_interp(suite: &mut Suite) {
    let project = aji_corpus::pattern_projects()
        .into_iter()
        .find(|p| p.name == "webframe-app")
        .unwrap();
    suite.bench("concrete-run-webframe", || {
        let mut interp = Interp::new(&project).unwrap();
        black_box(interp.run_module("index.js").unwrap())
    });
}

/// Ablation: how the approximate interpreter's loop budget affects the
/// number of hints (the trade-off §5 mentions but does not explore).
fn bench_budget_ablation(suite: &mut Suite) {
    let project = aji_corpus::generate(&aji_corpus::GenConfig {
        name: "budget-bench".into(),
        seed: 31,
        libs: 6,
        methods_per_lib: 16,
        dynamic_fraction: 0.6,
        app_modules: 6,
        calls_per_module: 4,
        use_mixin: false,
        use_emitter: false,
        driver_coverage: 0.5,
        vulns: 0,
        hard_dispatch_fraction: 0.0,
        computed_writes: 0,
        accessor_methods: 0,
        typo_injections: 0,
    });
    for loop_limit in [100u64, 1_000, 10_000] {
        let opts = ApproxOptions {
            interp: InterpOptions {
                max_loop_iters: loop_limit,
                ..InterpOptions::approx_defaults()
            },
            ..ApproxOptions::default()
        };
        suite.bench(format!("approx-budget/loop-limit-{loop_limit}"), || {
            black_box(approximate_interpret(&project, &opts).unwrap())
        });
    }
}

fn main() {
    let mut suite = Suite::new("substrate").iters(15);
    bench_parser(&mut suite);
    bench_interp(&mut suite);
    bench_budget_ablation(&mut suite);
    suite.finish();
}
