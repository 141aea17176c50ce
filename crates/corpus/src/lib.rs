//! Benchmark corpus for the *aji* reproduction: hand-written pattern
//! projects embodying the dynamic-object idioms the paper identifies, plus
//! a deterministic generator that scales those idioms to the paper's
//! 141-project population.
//!
//! * [`pattern_projects`] — 14 hand-written multi-package projects, each
//!   with a test driver (for dynamic call graphs) and some with synthetic
//!   vulnerability annotations.
//! * [`generator::generate`] — seeded synthetic projects.
//! * [`table1_benchmarks`] — the 36-project subset with dynamic call
//!   graphs (Tables 1–3).
//! * [`full_population`] — all 141 benchmarks (Figures 4–7).
//!
//! # Example
//!
//! ```
//! let benchmarks = aji_corpus::table1_benchmarks();
//! assert_eq!(benchmarks.len(), 36);
//! let all = aji_corpus::full_population();
//! assert_eq!(all.len(), 141);
//! ```

#![warn(missing_docs)]

pub mod generator;
mod patterns;

pub use generator::{
    generate, generate_with_manifest, population_configs, GenConfig, InjectedTypo,
};
pub use patterns::pattern_projects;

use aji_ast::Project;

/// Base seed for the deterministic corpus population.
pub const CORPUS_SEED: u64 = 0x20240615;

/// The 36 benchmarks with dynamic call graphs (the corpus analogue of the
/// paper's Table 1): the 14 hand-written pattern projects plus 22
/// generated ones of increasing size.
pub fn table1_benchmarks() -> Vec<Project> {
    let mut out = pattern_projects();
    for cfg in population_configs(22, CORPUS_SEED) {
        out.push(generate(&cfg));
    }
    debug_assert_eq!(out.len(), 36);
    out
}

/// All 141 benchmarks (the corpus analogue of the paper's full benchmark
/// set used in Figures 4–7): the 36 of [`table1_benchmarks`] plus 105 more
/// generated projects.
pub fn full_population() -> Vec<Project> {
    let mut out = table1_benchmarks();
    for mut cfg in population_configs(105, CORPUS_SEED ^ 0x5EED) {
        cfg.name = format!("pop-{}", cfg.name);
        out.push(generate(&cfg));
    }
    debug_assert_eq!(out.len(), 141);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_counts() {
        assert_eq!(table1_benchmarks().len(), 36);
        assert_eq!(full_population().len(), 141);
    }

    #[test]
    fn population_names_unique() {
        let names: Vec<String> = full_population().iter().map(|p| p.name.clone()).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn every_benchmark_parses() {
        for p in full_population() {
            aji_parser::parse_project(&p)
                .unwrap_or_else(|e| panic!("{} failed to parse: {e}", p.name));
        }
    }

    #[test]
    fn table1_benchmarks_have_drivers() {
        for p in table1_benchmarks() {
            assert!(p.test_driver.is_some(), "{} has no driver", p.name);
        }
    }
}
