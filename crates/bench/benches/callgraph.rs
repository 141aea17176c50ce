//! Benchmark behind Figures 4–7: call-graph construction with and
//! without hints across corpus size classes, measuring how the extra
//! hint-induced dataflow scales. Uses the in-tree `aji-support` bench
//! harness.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_corpus::GenConfig;
use aji_pta::{analyze, AnalysisOptions, CgMetrics};
use aji_support::bench::{black_box, Suite};

fn size_class(libs: usize, mods: usize, seed: u64) -> GenConfig {
    GenConfig {
        name: format!("cls-{libs}x{mods}"),
        seed,
        libs,
        methods_per_lib: 10,
        dynamic_fraction: 0.5,
        app_modules: mods,
        calls_per_module: 5,
        use_mixin: false,
        use_emitter: false,
        driver_coverage: 0.5,
        vulns: 0,
        hard_dispatch_fraction: 0.0,
        computed_writes: 0,
        accessor_methods: 0,
        typo_injections: 0,
    }
}

fn main() {
    let mut suite = Suite::new("fig4-7-callgraph").iters(15);
    for (libs, mods) in [(2usize, 2usize), (6, 6), (12, 12)] {
        let cfg = size_class(libs, mods, 4242);
        let project = aji_corpus::generate(&cfg);
        let hints = approximate_interpret(&project, &ApproxOptions::default())
            .expect("approx")
            .hints;
        // Sanity: hints must add edges, otherwise the benchmark measures
        // the wrong thing.
        let b = analyze(&project, None, &AnalysisOptions::baseline()).unwrap();
        let x = analyze(&project, Some(&hints), &AnalysisOptions::extended()).unwrap();
        assert!(
            CgMetrics::of(&x.call_graph).call_edges > CgMetrics::of(&b.call_graph).call_edges
        );
        let label = format!("{libs}libs-{mods}mods");
        suite.bench(format!("baseline/{label}"), || {
            black_box(analyze(&project, None, &AnalysisOptions::baseline()).unwrap())
        });
        suite.bench(format!("extended/{label}"), || {
            black_box(analyze(&project, Some(&hints), &AnalysisOptions::extended()).unwrap())
        });
    }
    suite.finish();
}
