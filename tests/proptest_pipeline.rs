//! Property-based end-to-end tests (ported from proptest to the in-tree
//! `aji-support` check harness): over randomly configured generated
//! projects, the paper's core invariants must hold — hints never remove
//! edges or reachability, recall never decreases, and the pipeline is
//! deterministic.

use aji::{run_benchmark, PipelineOptions};
use aji_approx::Hints;
use aji_ast::{FileId, Loc};
use aji_corpus::GenConfig;
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq};

fn config(tc: &mut TestCase) -> GenConfig {
    let seed = tc.int_in(0u64..1_000_000);
    GenConfig {
        name: format!("prop-{seed}"),
        seed,
        libs: tc.int_in(1usize..4),
        methods_per_lib: tc.int_in(2usize..8),
        dynamic_fraction: tc.int_in(0u8..11) as f64 / 10.0,
        app_modules: tc.int_in(1usize..4),
        calls_per_module: tc.int_in(1usize..5),
        use_mixin: tc.bool(),
        use_emitter: tc.bool(),
        driver_coverage: tc.int_in(0u8..11) as f64 / 10.0,
        vulns: 1,
        hard_dispatch_fraction: tc.int_in(0u8..6) as f64 / 10.0,
        computed_writes: tc.int_in(0usize..3),
        accessor_methods: tc.int_in(0usize..3),
        // The monotonicity properties are about call-graph recovery;
        // seeded property typos are the finder's concern (aji-quant).
        typo_injections: 0,
    }
}

#[test]
fn hints_are_monotone_improvements() {
    property("hints_are_monotone_improvements")
        .cases(24)
        .run(|tc| {
            let cfg = config(tc);
            let project = aji_corpus::generate(&cfg);
            let report = run_benchmark(&project, &PipelineOptions::with_dynamic_cg())
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            prop_assert!(report.extended.call_edges >= report.baseline.call_edges);
            prop_assert!(
                report.extended.reachable_functions >= report.baseline.reachable_functions
            );
            prop_assert!(report.extended.resolved_sites >= report.baseline.resolved_sites);
            if let Some(acc) = report.accuracy {
                prop_assert!(
                    acc.extended.recall_pct() + 1e-9 >= acc.baseline.recall_pct(),
                    "recall fell: {} -> {}",
                    acc.baseline.recall_pct(),
                    acc.extended.recall_pct()
                );
            }
            if let Some(v) = report.vulns {
                prop_assert!(v.reachable_extended >= v.reachable_baseline);
                prop_assert!(v.reachable_extended <= v.total);
            }
            Ok(())
        });
}

#[test]
fn pipeline_is_deterministic() {
    property("pipeline_is_deterministic").cases(24).run(|tc| {
        let cfg = config(tc);
        let project = aji_corpus::generate(&cfg);
        let a = run_benchmark(&project, &PipelineOptions::default()).unwrap();
        let b = run_benchmark(&project, &PipelineOptions::default()).unwrap();
        prop_assert_eq!(a.hint_count, b.hint_count);
        prop_assert_eq!(a.extended.call_edges, b.extended.call_edges);
        prop_assert_eq!(a.extended_call_graph.edges, b.extended_call_graph.edges);
        Ok(())
    });
}

#[test]
fn hint_merge_is_idempotent_and_monotone() {
    const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
    property("hint_merge_is_idempotent_and_monotone")
        .cases(128)
        .run(|tc| {
            let writes = tc.vec_of(0..12, |t| {
                (
                    t.int_in(1u32..30),
                    t.string_of(LOWER, 1..5),
                    t.int_in(1u32..30),
                )
            });
            let reads = tc.vec_of(0..12, |t| (t.int_in(1u32..30), t.int_in(1u32..30)));
            let mut a = Hints::new();
            for (l, p, v) in &writes {
                a.add_write(
                    Loc::new(FileId(0), *l, 1),
                    p.clone(),
                    Loc::new(FileId(0), *v, 1),
                );
            }
            for (op, r) in &reads {
                a.add_read(Loc::new(FileId(0), *op, 1), Loc::new(FileId(0), *r, 1));
            }
            let before = a.len();
            let snapshot = a.clone();
            a.merge(&snapshot);
            prop_assert_eq!(a.len(), before, "merge with self changed size");
            // Merging anything is monotone.
            let mut b = Hints::new();
            b.add_write(Loc::new(FileId(1), 1, 1), "zz", Loc::new(FileId(1), 2, 1));
            a.merge(&b);
            prop_assert!(a.len() >= before);
            Ok(())
        });
}
