//! Statistical property-access bug finder.
//!
//! The concrete interpreter, run with
//! [`aji_interp::InterpOptions::observe_props`], reports every static
//! member read on a plain object: the receiver's own-key **shape**, the
//! property name, and whether the lookup found anything. This module
//! mines those observations into a corpus-wide frequency model and flags
//! the accesses the model finds *surprising* — a read that missed on a
//! shape whose key set contains a near-identical name is, with high
//! confidence, a **typo**, the canonical silent-`undefined` JavaScript
//! defect no crash ever reports.
//!
//! Scoring is deliberately free of transcendental math so reports are
//! byte-identical across platforms: surprisal is expressed through the
//! *support* of the shape (how many successful reads the model holds for
//! it — the more evidence the shape's API is what we think it is, the
//! more surprising a miss) and a confidence in `{1.0, 0.6}` from the
//! bounded edit distance to the nearest shape key (1 or 2), halved when
//! the same name *was* successfully read elsewhere in the corpus (then
//! it is a real API name and the miss is more likely feature detection
//! than a typo). The default threshold `0.9` keeps exactly the
//! distance-1, never-seen-working names — the typo signature.
//!
//! Ground truth comes from the corpus generator's typo-injection mode
//! ([`aji_corpus::generate_with_manifest`]): [`evaluate`] matches the
//! flagged set against the injected-defect manifests and reports
//! precision and recall.

use aji_ast::{Loc, Project};
use aji_bench::run_corpus_map;
use aji_corpus::InjectedTypo;
use aji_interp::{Interp, InterpOptions, Tracer};
use aji_support::{Fnv64, Json};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Options for the finder.
#[derive(Debug, Clone)]
pub struct FinderOptions {
    /// Minimum confidence a candidate needs to be flagged.
    pub threshold: f64,
    /// Interpreter budgets for the observation run
    /// ([`InterpOptions::observe_props`] is forced on).
    pub interp: InterpOptions,
}

impl Default for FinderOptions {
    fn default() -> Self {
        FinderOptions {
            threshold: 0.9,
            interp: InterpOptions::default(),
        }
    }
}

/// Fingerprint of a shape: FNV over the sorted, deduplicated own keys.
fn shape_fingerprint(keys: &[String]) -> u64 {
    let mut h = Fnv64::new(0x5AAF_E000);
    for k in keys {
        h.write_str(k);
    }
    h.finish()
}

/// Tracer that aggregates property-access observations.
#[derive(Default)]
struct PropObserver {
    /// Successful reads: `(shape, prop) -> count`.
    present: BTreeMap<(u64, String), u64>,
    /// Failed reads: `(shape, prop, site) -> count`.
    absent: BTreeMap<(u64, String, Option<Loc>), u64>,
    /// Shape fingerprint -> sorted own keys.
    shapes: BTreeMap<u64, Vec<String>>,
}

impl Tracer for PropObserver {
    fn on_prop_access(
        &mut self,
        site: Option<Loc>,
        prop: &str,
        shape: &[std::rc::Rc<str>],
        found: bool,
    ) {
        let mut keys: Vec<String> = shape.iter().map(|k| k.to_string()).collect();
        keys.sort();
        keys.dedup();
        let fp = shape_fingerprint(&keys);
        self.shapes.entry(fp).or_insert(keys);
        if found {
            *self.present.entry((fp, prop.to_string())).or_insert(0) += 1;
        } else {
            *self.absent.entry((fp, prop.to_string(), site)).or_insert(0) += 1;
        }
    }
}

/// One project's aggregated observations, with sites rendered to
/// `path:line:col` strings (so the struct is `Send` and the report needs
/// no source map).
#[derive(Debug)]
pub struct ProjectObservations {
    /// `Project::name`.
    pub name: String,
    /// Successful reads: `(shape, prop) -> count`.
    pub present: BTreeMap<(u64, String), u64>,
    /// Failed reads: `(shape, prop, site_display) -> count`.
    pub absent: BTreeMap<(u64, String, String), u64>,
    /// Shape fingerprint -> sorted own keys.
    pub shapes: BTreeMap<u64, Vec<String>>,
}

/// Concretely executes `project`'s test driver with property observation
/// on and aggregates what the tracer saw. Returns `None` only when the
/// project does not parse (a crashing driver leaves partial
/// observations, like a partially covering test suite).
#[must_use]
pub fn observe_project(project: &Project, interp: &InterpOptions) -> Option<ProjectObservations> {
    let _span = aji_obs::span("quant.observe");
    let parsed = aji_parser::parse_project(project).ok()?;
    let opts = InterpOptions {
        observe_props: true,
        ..interp.clone()
    };
    let observer = Rc::new(RefCell::new(PropObserver::default()));
    let mut interp = Interp::with_parsed(project, &parsed, opts, Box::new(observer.clone()));
    let driver = project
        .test_driver
        .clone()
        .unwrap_or_else(|| project.main.clone());
    let _ = interp.run_module(&driver);
    let obs = observer.borrow();
    let absent = obs
        .absent
        .iter()
        .map(|((fp, prop, site), n)| {
            let display = site
                .map(|l| parsed.source_map.display_loc(l))
                .unwrap_or_else(|| "<eval>".to_string());
            ((*fp, prop.clone(), display), *n)
        })
        .collect();
    aji_obs::counter_add(
        "quant.finder.observations",
        obs.present.values().sum::<u64>() + obs.absent.values().sum::<u64>(),
    );
    Some(ProjectObservations {
        name: project.name.clone(),
        present: obs.present.clone(),
        absent,
        shapes: obs.shapes.clone(),
    })
}

/// Bounded Levenshtein distance: the exact distance if it is ≤ `bound`,
/// `bound + 1` otherwise.
fn edit_distance_bounded(a: &str, b: &str, bound: usize) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > bound {
        return bound + 1;
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > bound {
            return bound + 1;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()].min(bound + 1)
}

/// One flagging candidate: a property read that missed.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// `Project::name` the access was observed in.
    pub project: String,
    /// `path:line:col` of the access (`<eval>` for generated code).
    pub site: String,
    /// The property name that was read.
    pub prop: String,
    /// Nearest own key of the receiver's shape within edit distance 2.
    pub nearest: Option<String>,
    /// Confidence the miss is a defect, in `[0, 1]`.
    pub confidence: f64,
    /// Successful reads the model holds for the receiver's shape — the
    /// surprisal support (more evidence, more surprising a miss).
    pub support: u64,
    /// How many times this exact miss was observed.
    pub count: u64,
}

impl Candidate {
    /// Serializes the candidate for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("project", Json::Str(self.project.clone())),
            ("site", Json::Str(self.site.clone())),
            ("prop", Json::Str(self.prop.clone())),
            (
                "nearest",
                self.nearest
                    .as_ref()
                    .map_or(Json::Str(String::new()), |n| Json::Str(n.clone())),
            ),
            ("confidence", Json::Num(self.confidence)),
            ("support", Json::Num(self.support as f64)),
            ("count", Json::Num(self.count as f64)),
        ])
    }
}

/// The corpus-wide frequency model plus the scored candidates.
#[derive(Debug)]
pub struct FinderReport {
    /// Every scored miss, ranked by confidence (desc), then support
    /// (desc), then `(project, site, prop)`.
    pub candidates: Vec<Candidate>,
    /// The configured threshold.
    pub threshold: f64,
    /// Projects that failed to parse: names in corpus order.
    pub errors: Vec<String>,
}

impl FinderReport {
    /// The candidates at or above the threshold — the findings.
    #[must_use]
    pub fn flagged(&self) -> Vec<&Candidate> {
        self.candidates
            .iter()
            .filter(|c| c.confidence >= self.threshold)
            .collect()
    }

    /// Serializes the report (threshold, flagged and total counts, the
    /// full ranked candidate list).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("threshold", Json::Num(self.threshold)),
            ("candidates", Json::Num(self.candidates.len() as f64)),
            ("flagged", Json::Num(self.flagged().len() as f64)),
            (
                "findings",
                Json::Arr(self.flagged().iter().map(|c| c.to_json()).collect()),
            ),
            (
                "errors",
                Json::Arr(self.errors.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Runs [`observe_project`] over a corpus on up to `threads` workers
/// (order-preserving, so the merged model — and hence the report — is
/// byte-identical to a serial run), then scores every missed access
/// against the merged frequency model.
#[must_use]
pub fn find_anomalies(
    projects: Vec<Project>,
    opts: &FinderOptions,
    threads: usize,
) -> FinderReport {
    let results = run_corpus_map(projects, threads, |p| {
        observe_project(p, &opts.interp).ok_or("project does not parse")
    });
    let mut observations = Vec::new();
    let mut errors = Vec::new();
    for r in results {
        match r.outcome {
            Ok(o) => observations.push(o),
            Err(_) => errors.push(r.name),
        }
    }

    // Corpus-wide model: shape keys and per-shape support merge across
    // projects (generated libraries share shapes, so evidence
    // accumulates); the worked-elsewhere dampening stays *per project* —
    // a name behaving in one codebase says nothing about a typo in
    // another.
    let mut shapes: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut support: BTreeMap<u64, u64> = BTreeMap::new();
    for o in &observations {
        for (fp, keys) in &o.shapes {
            shapes.entry(*fp).or_insert_with(|| keys.clone());
        }
        for ((fp, _), n) in &o.present {
            *support.entry(*fp).or_insert(0) += n;
        }
    }

    let mut candidates = Vec::new();
    for o in &observations {
        let known_good: BTreeSet<&str> = o.present.keys().map(|(_, prop)| prop.as_str()).collect();
        for ((fp, prop, site), count) in &o.absent {
            let keys = shapes.get(fp).map(Vec::as_slice).unwrap_or(&[]);
            let mut nearest: Option<(&String, usize)> = None;
            for k in keys {
                let d = edit_distance_bounded(prop, k, 2);
                if d > 0 && d <= 2 && nearest.is_none_or(|(_, best)| d < best) {
                    nearest = Some((k, d));
                }
            }
            let mut confidence = match nearest {
                Some((_, 1)) => 1.0,
                Some((_, 2)) => 0.6,
                _ => 0.0,
            };
            if known_good.contains(prop.as_str()) {
                confidence *= 0.5;
            }
            candidates.push(Candidate {
                project: o.name.clone(),
                site: site.clone(),
                prop: prop.clone(),
                nearest: nearest.map(|(k, _)| k.clone()),
                confidence,
                support: support.get(fp).copied().unwrap_or(0),
                count: *count,
            });
        }
    }
    candidates.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("confidence is never NaN")
            .then(b.support.cmp(&a.support))
            .then(a.project.cmp(&b.project))
            .then(a.site.cmp(&b.site))
            .then(a.prop.cmp(&b.prop))
    });
    aji_obs::counter_add("quant.finder.candidates", candidates.len() as u64);
    aji_obs::counter_add(
        "quant.finder.flagged",
        candidates
            .iter()
            .filter(|c| c.confidence >= opts.threshold)
            .count() as u64,
    );
    FinderReport {
        candidates,
        threshold: opts.threshold,
        errors,
    }
}

/// Precision/recall of the flagged set against the generator's
/// injected-defect manifests.
#[derive(Debug)]
pub struct EvalReport {
    /// Total injected typos across the manifests.
    pub injected: usize,
    /// Flagged candidates, total.
    pub flagged: usize,
    /// Injected typos matched by at least one flagged candidate.
    pub recovered: usize,
    /// Flagged candidates matching some injected typo of their project.
    pub true_positives: usize,
    /// `recovered / injected`, as a percentage (100 when nothing was
    /// injected).
    pub recall_pct: f64,
    /// `true_positives / flagged`, as a percentage (100 when nothing was
    /// flagged).
    pub precision_pct: f64,
}

impl EvalReport {
    /// Serializes the evaluation for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("injected", Json::Num(self.injected as f64)),
            ("flagged", Json::Num(self.flagged as f64)),
            ("recovered", Json::Num(self.recovered as f64)),
            ("true_positives", Json::Num(self.true_positives as f64)),
            ("recall_pct", Json::Num(self.recall_pct)),
            ("precision_pct", Json::Num(self.precision_pct)),
        ])
    }
}

/// Matches the report's flagged candidates against the injected-defect
/// manifests: a candidate hits when its project and property name equal
/// an injected typo's.
#[must_use]
pub fn evaluate(report: &FinderReport, manifests: &[(String, Vec<InjectedTypo>)]) -> EvalReport {
    let flagged = report.flagged();
    let injected: usize = manifests.iter().map(|(_, ts)| ts.len()).sum();
    let mut recovered = 0usize;
    for (project, typos) in manifests {
        for t in typos {
            if flagged
                .iter()
                .any(|c| &c.project == project && c.prop == t.prop)
            {
                recovered += 1;
            }
        }
    }
    let true_positives = flagged
        .iter()
        .filter(|c| {
            manifests.iter().any(|(project, typos)| {
                &c.project == project && typos.iter().any(|t| t.prop == c.prop)
            })
        })
        .count();
    let pct = |num: usize, den: usize| {
        if den == 0 {
            100.0
        } else {
            num as f64 / den as f64 * 100.0
        }
    };
    EvalReport {
        injected,
        flagged: flagged.len(),
        recovered,
        true_positives,
        recall_pct: pct(recovered, injected),
        precision_pct: pct(true_positives, flagged.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance_bounded("op3", "op3", 2), 0);
        assert_eq!(edit_distance_bounded("op3x", "op3", 2), 1);
        assert_eq!(edit_distance_bounded("op", "op3", 2), 1);
        assert_eq!(edit_distance_bounded("opp3", "op3", 2), 1);
        assert_eq!(edit_distance_bounded("oq4", "op3", 2), 2);
        assert_eq!(edit_distance_bounded("zzzz", "op3", 2), 3); // capped
        assert_eq!(edit_distance_bounded("abcdefgh", "op3", 2), 3); // length gap
    }

    #[test]
    fn shape_fingerprint_is_order_independent_via_sorting() {
        let mut a = vec!["x".to_string(), "y".to_string()];
        let mut b = vec!["y".to_string(), "x".to_string()];
        a.sort();
        b.sort();
        assert_eq!(shape_fingerprint(&a), shape_fingerprint(&b));
        assert_ne!(shape_fingerprint(&a), shape_fingerprint(&a[..1]));
    }

    #[test]
    fn injected_typo_is_flagged_with_full_confidence() {
        let mut cfg = aji_corpus::GenConfig::small("finder-unit", 33);
        cfg.typo_injections = 2;
        let (project, typos) = aji_corpus::generate_with_manifest(&cfg);
        assert_eq!(typos.len(), 2);
        let report = find_anomalies(vec![project], &FinderOptions::default(), 1);
        let manifests = vec![("finder-unit".to_string(), typos)];
        let eval = evaluate(&report, &manifests);
        assert_eq!(eval.recovered, eval.injected, "{report:#?}");
        assert!(eval.recall_pct >= 90.0);
    }
}
