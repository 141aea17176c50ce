//! The paper's evaluation metrics (§5): call edges, reachable functions,
//! resolved/monomorphic call sites, and — when a dynamic call graph is
//! available — call edge set recall and per-call precision.

use crate::callgraph::CallGraph;
use aji_ast::Loc;
use aji_support::{FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, BTreeSet};

/// Call-graph quality metrics that need no ground truth.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CgMetrics {
    /// Number of call edges.
    pub call_edges: usize,
    /// Functions reachable from the main package's module top-levels.
    pub reachable_functions: usize,
    /// All function definitions.
    pub total_functions: usize,
    /// Call sites with at least one callee.
    pub resolved_sites: usize,
    /// Call sites with at most one callee.
    pub monomorphic_sites: usize,
    /// Total call sites.
    pub total_sites: usize,
}

impl CgMetrics {
    /// Computes the metrics of a call graph.
    #[must_use]
    pub fn of(cg: &CallGraph) -> CgMetrics {
        CgMetrics {
            call_edges: cg.edge_count(),
            reachable_functions: cg.reachable_functions.len(),
            total_functions: cg.all_functions.len(),
            resolved_sites: cg.resolved_sites(),
            monomorphic_sites: cg.monomorphic_sites(),
            total_sites: cg.total_sites(),
        }
    }

    /// Percentage of resolved call sites (Figure 6).
    #[must_use]
    pub fn resolved_pct(&self) -> f64 {
        pct(self.resolved_sites, self.total_sites)
    }

    /// Percentage of monomorphic call sites (Figure 7).
    #[must_use]
    pub fn monomorphic_pct(&self) -> f64 {
        pct(self.monomorphic_sites, self.total_sites)
    }
}

impl ToJson for CgMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("call_edges", self.call_edges.to_json()),
            ("reachable_functions", self.reachable_functions.to_json()),
            ("total_functions", self.total_functions.to_json()),
            ("resolved_sites", self.resolved_sites.to_json()),
            ("monomorphic_sites", self.monomorphic_sites.to_json()),
            ("total_sites", self.total_sites.to_json()),
        ])
    }
}

impl FromJson for CgMetrics {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let field = |k: &str| v.field(k).and_then(usize::from_json);
        Ok(CgMetrics {
            call_edges: field("call_edges")?,
            reachable_functions: field("reachable_functions")?,
            total_functions: field("total_functions")?,
            resolved_sites: field("resolved_sites")?,
            monomorphic_sites: field("monomorphic_sites")?,
            total_sites: field("total_sites")?,
        })
    }
}

fn pct(num: usize, den: usize) -> f64 {
    if den == 0 {
        100.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Recall/precision of a static call graph against a dynamic one
/// (Table 2). The dynamic call graph is a set of (call-site location,
/// callee definition location) pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accuracy {
    /// Dynamic edges found by the static analysis.
    pub matched_edges: usize,
    /// Total dynamic edges.
    pub dynamic_edges: usize,
    /// Sum of per-call precision contributions.
    precision_sum: f64,
    /// Number of call sites contributing to precision.
    precision_sites: usize,
}

impl Accuracy {
    /// Compares a static call graph against dynamic edges.
    #[must_use]
    pub fn compare(cg: &CallGraph, dynamic: &BTreeSet<(Loc, Loc)>) -> Accuracy {
        let matched = dynamic.iter().filter(|e| cg.edges.contains(e)).count();

        // Group dynamic edges per call site.
        let mut dyn_by_site: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
        for (cs, callee) in dynamic {
            dyn_by_site.entry(*cs).or_default().insert(*callee);
        }
        let mut precision_sum = 0.0;
        let mut precision_sites = 0;
        for (cs, dyn_targets) in &dyn_by_site {
            let static_targets = match cg.site_targets.get(cs) {
                Some(t) if !t.is_empty() => t,
                _ => continue,
            };
            let inter = static_targets.intersection(dyn_targets).count();
            precision_sum += inter as f64 / static_targets.len() as f64;
            precision_sites += 1;
        }
        Accuracy {
            matched_edges: matched,
            dynamic_edges: dynamic.len(),
            precision_sum,
            precision_sites,
        }
    }

    /// Call edge set recall (%, Table 2): dynamic edges also found
    /// statically.
    #[must_use]
    pub fn recall_pct(&self) -> f64 {
        pct(self.matched_edges, self.dynamic_edges)
    }

    /// Per-call precision (%, Table 2).
    #[must_use]
    pub fn precision_pct(&self) -> f64 {
        if self.precision_sites == 0 {
            100.0
        } else {
            100.0 * self.precision_sum / self.precision_sites as f64
        }
    }
}

impl ToJson for Accuracy {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("matched_edges", self.matched_edges.to_json()),
            ("dynamic_edges", self.dynamic_edges.to_json()),
            ("recall_pct", Json::Num(self.recall_pct())),
            ("precision_pct", Json::Num(self.precision_pct())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::FileId;

    fn loc(l: u32) -> Loc {
        Loc::new(FileId(0), l, 1)
    }

    fn cg_with_edges(edges: &[(u32, u32)], extra_sites: &[u32]) -> CallGraph {
        let mut cg = CallGraph::default();
        for (a, b) in edges {
            cg.edges.insert((loc(*a), loc(*b)));
            cg.site_targets.entry(loc(*a)).or_default().insert(loc(*b));
            cg.all_functions.insert(loc(*b));
        }
        for s in extra_sites {
            cg.site_targets.entry(loc(*s)).or_default();
        }
        cg
    }

    #[test]
    fn basic_metrics() {
        let cg = cg_with_edges(&[(1, 10), (1, 11), (2, 10)], &[3]);
        let m = CgMetrics::of(&cg);
        assert_eq!(m.call_edges, 3);
        assert_eq!(m.total_sites, 3);
        assert_eq!(m.resolved_sites, 2);
        // site 1 has 2 targets (poly), site 2 has 1, site 3 has 0.
        assert_eq!(m.monomorphic_sites, 2);
        assert!((m.resolved_pct() - 66.666).abs() < 0.01);
    }

    #[test]
    fn recall_and_precision() {
        let cg = cg_with_edges(&[(1, 10), (1, 11), (2, 10)], &[]);
        let mut dynamic = BTreeSet::new();
        dynamic.insert((loc(1), loc(10))); // matched
        dynamic.insert((loc(2), loc(12))); // missed
        let acc = Accuracy::compare(&cg, &dynamic);
        assert_eq!(acc.matched_edges, 1);
        assert_eq!(acc.dynamic_edges, 2);
        assert!((acc.recall_pct() - 50.0).abs() < 1e-9);
        // Site 1: static {10, 11}, dynamic {10} → 0.5.
        // Site 2: static {10}, dynamic {12} → 0.0.
        assert!((acc.precision_pct() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_dynamic_graph() {
        let cg = cg_with_edges(&[(1, 10)], &[]);
        let acc = Accuracy::compare(&cg, &BTreeSet::new());
        assert_eq!(acc.recall_pct(), 100.0);
        assert_eq!(acc.precision_pct(), 100.0);
    }

    #[test]
    fn metrics_json_roundtrip() {
        let cg = cg_with_edges(&[(1, 10), (1, 11), (2, 10)], &[3]);
        let m = CgMetrics::of(&cg);
        let back = CgMetrics::from_json(&Json::parse(&m.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn accuracy_json_reports_percentages() {
        let cg = cg_with_edges(&[(1, 10)], &[]);
        let mut dynamic = BTreeSet::new();
        dynamic.insert((loc(1), loc(10)));
        dynamic.insert((loc(2), loc(12)));
        let j = Accuracy::compare(&cg, &dynamic).to_json();
        assert_eq!(j.get("matched_edges").and_then(Json::as_f64), Some(1.0));
        assert_eq!(j.get("dynamic_edges").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("recall_pct").and_then(Json::as_f64), Some(50.0));
    }
}
