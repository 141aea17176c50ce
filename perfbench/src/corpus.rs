//! Seeded inputs: the project population and the daemon's edit sites.

use aji_ast::Project;
use aji_corpus::{generate, pattern_projects, population_configs, CORPUS_SEED};

/// The benchmark population for a workload seed: the 14 hand-written
/// pattern projects plus 127 generated ones. Seed 0 reproduces
/// `aji_corpus::full_population()`. Any other seed regenerates each
/// project from the same `population_configs` entry with its generator
/// seed moved: the code differs, while every size parameter (libraries,
/// methods, modules, calls, idiom fractions) stays that of the default
/// population. Moving the configs' base seed instead changes the
/// population's size and moved ops/s by up to 20% between seeds.
pub fn population(seed: u64) -> Vec<Project> {
    let mut configs = population_configs(22, CORPUS_SEED);
    for mut cfg in population_configs(105, CORPUS_SEED ^ 0x5EED) {
        cfg.name = format!("pop-{}", cfg.name);
        configs.push(cfg);
    }
    let mut out = pattern_projects();
    for mut cfg in configs {
        cfg.seed = cfg
            .seed
            .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        out.push(generate(&cfg));
    }
    out
}

/// What an edit appends to a file. It adds AST nodes, so an edit to an
/// early file shifts the node ids of every later file and defeats the
/// daemon's per-file parse layer; an edit to the last file does not.
const EDIT_SUFFIX: &str = "\nvar perfbenchEdit = 1;\n";

/// The files the daemon workload edits: the first and the last `.js`
/// file of each project in file order, so edits cover both ends.
pub fn edit_sites(project: &Project) -> Vec<usize> {
    let js: Vec<usize> = (0..project.files.len())
        .filter(|&i| project.files[i].path.ends_with(".js"))
        .collect();
    let mut sites: Vec<usize> = js.first().into_iter().chain(js.last()).copied().collect();
    sites.dedup();
    sites
}

/// `base` with every site whose bit is set in `mask` in its edited
/// variant. Each edit flips one bit, so a file alternates between two
/// variants and neither the sources nor the daemon's store grow with
/// run length.
pub fn variant(base: &Project, sites: &[usize], mask: u8) -> Project {
    let mut p = base.clone();
    for (bit, &file) in sites.iter().enumerate() {
        if mask & (1 << bit) != 0 {
            p.files[file].src.push_str(EDIT_SUFFIX);
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(p: &Project) -> u64 {
        aji_serve::HintStore::new(0).project_digest(p)
    }

    #[test]
    fn default_seed_is_the_full_population() {
        let ours = population(0);
        let theirs = aji_corpus::full_population();
        assert_eq!(ours.len(), 141);
        for (a, b) in ours.iter().zip(&theirs) {
            assert_eq!(a.to_json().to_string(), b.to_json().to_string());
        }
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = population(7).iter().map(digest).collect();
        let b: Vec<u64> = population(7).iter().map(digest).collect();
        let c: Vec<u64> = population(8).iter().map(digest).collect();
        assert_eq!(a, b, "same seed, same inputs");
        assert_eq!(a.len(), 141);
        assert_eq!(
            a[..14],
            c[..14],
            "pattern projects do not depend on the seed"
        );
        assert_ne!(a[14..], c[14..], "generated projects do");
    }

    #[test]
    fn flip_edits_restore_the_original_digest() {
        for project in population(0).iter().take(20) {
            let sites = edit_sites(project);
            assert!(!sites.is_empty(), "{} has a .js file", project.name);
            let original = digest(project);
            assert_eq!(digest(&variant(project, &sites, 0)), original);
            let mut mask = 0u8;
            let mut seen = std::collections::BTreeSet::new();
            // Flip each site on and off again, in an interleaved order.
            for bit in (0..sites.len()).chain(0..sites.len()) {
                mask ^= 1 << bit;
                seen.insert(digest(&variant(project, &sites, mask)));
            }
            assert_eq!(mask, 0);
            assert_eq!(digest(&variant(project, &sites, mask)), original);
            // Two variants per site: at most 2^sites distinct states.
            assert!(seen.len() <= 1 << sites.len());
            let edited = variant(project, &sites, 1);
            assert_ne!(digest(&edited), original);
            assert_eq!(
                edited.files[sites[0]].src.len(),
                project.files[sites[0]].src.len() + EDIT_SUFFIX.len()
            );
        }
    }

    #[test]
    fn edits_cover_both_ends_of_the_file_order() {
        let multi = population(0)
            .into_iter()
            .find(|p| p.files.len() > 2)
            .expect("a multi-file project");
        let sites = edit_sites(&multi);
        assert_eq!(sites.len(), 2);
        assert!(sites[0] < sites[1]);
    }
}
