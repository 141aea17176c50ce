//! Counterfactual root-cause quantification.
//!
//! [`aji_oracle::triage`](aji_oracle::triage()) names *why* each dynamic call
//! edge is missing from the hint-extended static graph; this module asks
//! the follow-up question the paper's §7 discussion leaves open: **how
//! much recall would fixing each cause actually buy?** For every
//! [`Cause`] family with at least one missed edge, [`rank_project`]
//! computes a counterfactual:
//!
//! * [`Cause::HigherOrderProxy`] — the one cause with a real lever in
//!   the solver: re-solve the static call graph with the §6 proxy-read
//!   hint class force-enabled on top of the extended analysis (by
//!   default [`AnalysisOptions::with_proxy_reads`]) and count which of the family's missed edges the re-solved graph
//!   actually lands (strategy `"resolve"`). This is a *measured* gain,
//!   not an upper bound — the re-solve can and does fall short when the
//!   proxy-read key never flowed into a recorded hint.
//! * every other cause — patch the family's missed edges into the
//!   extended graph wholesale (strategy `"patch-edges"`). This is the
//!   *upper bound* on the family's recall: a perfect fix recovers
//!   exactly the edges the cause explains, no more (static graph edges
//!   are independent, so patching one family cannot land another's).
//!
//! The spurious-side mirror quantifies each [`SpuriousCause`] family by
//! the precision the extended graph would gain if the family's edges
//! were dropped — pure arithmetic on the edge counts, since removing
//! edges cannot create new matches.
//!
//! [`rank_corpus`] fans [`rank_project`] over a corpus with
//! [`aji_bench::run_corpus_map`], aggregates per-cause counts, and ranks
//! causes by recovered edges — so the report reads as a priority list:
//! "fix this family first". All output is deterministic: counts are
//! integers, percentages are single IEEE divisions of those integers,
//! and every collection is ordered, so parallel runs are byte-identical
//! to serial ones.

use aji::PipelineError;
use aji_ast::{Loc, Project};
use aji_bench::{failures_json, run_corpus_map, split_results};
use aji_oracle::{run_oracle_staged, Cause, OracleOptions, ProjectOracle, SpuriousCause};
use aji_pta::AnalysisOptions;
use aji_support::Json;
use std::collections::BTreeSet;

/// The counterfactual verdict on one missed-edge cause family.
#[derive(Debug, Clone)]
pub struct CauseImpact {
    /// [`Cause::key`] of the family.
    pub cause: &'static str,
    /// Missed edges triage attributed to this cause.
    pub missed: usize,
    /// Edges the counterfactual recovers (≤ `missed`).
    pub recovered: usize,
    /// `"resolve"` (measured re-solve) or `"patch-edges"` (upper bound).
    pub strategy: &'static str,
    /// Recall the fix buys, in percentage points of dynamic edges.
    pub recall_gain_pct: f64,
}

impl CauseImpact {
    /// Serializes the impact for the deterministic report. The `name`
    /// field carries the `quant.cause.` prefix so the perf gate's guarded
    /// `quant.*` counter family covers every ranked row.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(format!("quant.cause.{}", self.cause))),
            ("missed", Json::Num(self.missed as f64)),
            ("recovered", Json::Num(self.recovered as f64)),
            ("strategy", Json::Str(self.strategy.to_string())),
            ("recall_gain_pct", Json::Num(self.recall_gain_pct)),
        ])
    }
}

/// The counterfactual verdict on one spurious-edge cause family.
#[derive(Debug, Clone)]
pub struct SpuriousImpact {
    /// [`SpuriousCause::key`] of the family.
    pub cause: &'static str,
    /// Spurious edges triage attributed to this cause.
    pub spurious: usize,
    /// Precision the extended graph gains if the family's edges are
    /// dropped, in percentage points.
    pub precision_gain_pct: f64,
}

impl SpuriousImpact {
    /// Serializes the impact for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(format!("quant.spurious.{}", self.cause))),
            ("spurious", Json::Num(self.spurious as f64)),
            ("precision_gain_pct", Json::Num(self.precision_gain_pct)),
        ])
    }
}

/// One project's ranked counterfactuals.
#[derive(Debug)]
pub struct ProjectRank {
    /// `Project::name`.
    pub name: String,
    /// Dynamically observed call edges (the recall denominator).
    pub dynamic_edges: usize,
    /// Dynamic edges the extended graph matched.
    pub matched: usize,
    /// Dynamic edges the extended graph missed.
    pub missed: usize,
    /// Spurious extended edges at exercised sites.
    pub spurious: usize,
    /// Per-cause counterfactuals, ranked by recovered edges (desc), then
    /// cause key (asc). Families with zero missed edges are included so
    /// reports align across projects.
    pub causes: Vec<CauseImpact>,
    /// Per-spurious-cause counterfactuals, ranked by precision gain.
    pub spurious_causes: Vec<SpuriousImpact>,
}

impl ProjectRank {
    /// Serializes the project's ranking for the deterministic report.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("dynamic_edges", Json::Num(self.dynamic_edges as f64)),
            ("matched", Json::Num(self.matched as f64)),
            ("missed", Json::Num(self.missed as f64)),
            ("spurious", Json::Num(self.spurious as f64)),
            (
                "causes",
                Json::Arr(self.causes.iter().map(CauseImpact::to_json).collect()),
            ),
            (
                "spurious_causes",
                Json::Arr(
                    self.spurious_causes
                        .iter()
                        .map(SpuriousImpact::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

fn rank_causes(
    missed_by_cause: &[(Cause, BTreeSet<(Loc, Loc)>)],
    resolve_recovered: &BTreeSet<(Loc, Loc)>,
    dynamic_edges: usize,
) -> Vec<CauseImpact> {
    let mut causes: Vec<CauseImpact> = missed_by_cause
        .iter()
        .map(|(c, edges)| {
            let (recovered, strategy) = if *c == Cause::HigherOrderProxy {
                (edges.intersection(resolve_recovered).count(), "resolve")
            } else {
                (edges.len(), "patch-edges")
            };
            CauseImpact {
                cause: c.key(),
                missed: edges.len(),
                recovered,
                strategy,
                recall_gain_pct: if dynamic_edges == 0 {
                    0.0
                } else {
                    recovered as f64 / dynamic_edges as f64 * 100.0
                },
            }
        })
        .collect();
    causes.sort_by(|a, b| b.recovered.cmp(&a.recovered).then(a.cause.cmp(b.cause)));
    causes
}

fn rank_spurious(
    counts: &[(SpuriousCause, usize)],
    matched: usize,
    spurious: usize,
) -> Vec<SpuriousImpact> {
    let precision = |m: usize, s: usize| -> f64 {
        if m + s == 0 {
            100.0
        } else {
            m as f64 / (m + s) as f64 * 100.0
        }
    };
    let base = precision(matched, spurious);
    let mut out: Vec<SpuriousImpact> = counts
        .iter()
        .map(|&(c, n)| SpuriousImpact {
            cause: c.key(),
            spurious: n,
            precision_gain_pct: precision(matched, spurious - n) - base,
        })
        .collect();
    out.sort_by(|a, b| b.spurious.cmp(&a.spurious).then(a.cause.cmp(b.cause)));
    out
}

/// Reduces one oracle run to per-cause counterfactuals: the oracle's
/// triaged misses and spurious edges, plus one proxy-read re-solve on
/// the constraint graph the oracle's staged run left behind.
///
/// # Errors
///
/// As [`aji_oracle::run_oracle`]: parse failure. A crashing test driver
/// is not an error.
pub fn rank_project(project: &Project, opts: &OracleOptions) -> Result<ProjectRank, PipelineError> {
    let _span = aji_obs::span("quant.rank");
    let parsed = aji_parser::parse_project(project)?;
    let (oracle, hints, mut graph) = run_oracle_staged(project, &parsed, opts);
    let ProjectOracle {
        diff,
        missed,
        spurious,
        ..
    } = oracle;

    // The one measured counterfactual: §6 proxy-read hints force-enabled
    // on top of the extended analysis. Only worth a re-solve when the
    // family is non-empty; the re-solve extends the extended fixpoint.
    let proxy_missed = missed.iter().any(|m| m.cause == Cause::HigherOrderProxy);
    let resolve_recovered: BTreeSet<(Loc, Loc)> = if proxy_missed {
        let resolved = graph.extend(
            Some(&hints),
            &AnalysisOptions {
                use_proxy_read_hints: true,
                ..opts.analysis
            },
        );
        diff.missed
            .iter()
            .filter(|e| resolved.call_graph.edges.contains(e))
            .copied()
            .collect()
    } else {
        BTreeSet::new()
    };

    let missed_by_cause: Vec<(Cause, BTreeSet<(Loc, Loc)>)> = Cause::all()
        .iter()
        .map(|c| {
            (
                *c,
                missed
                    .iter()
                    .filter(|m| m.cause == *c)
                    .map(|m| (m.site, m.callee))
                    .collect(),
            )
        })
        .collect();
    let spurious_counts: Vec<(SpuriousCause, usize)> = SpuriousCause::all()
        .iter()
        .map(|c| (*c, spurious.iter().filter(|s| s.cause == *c).count()))
        .collect();

    let causes = rank_causes(&missed_by_cause, &resolve_recovered, diff.dynamic_edges);
    aji_obs::counter_add(
        "quant.rank.recovered",
        causes.iter().map(|c| c.recovered as u64).sum(),
    );
    aji_obs::counter_add("quant.rank.missed", diff.missed.len() as u64);
    Ok(ProjectRank {
        name: project.name.clone(),
        dynamic_edges: diff.dynamic_edges,
        matched: diff.matched.len(),
        missed: diff.missed.len(),
        spurious: diff.spurious.len(),
        causes,
        spurious_causes: rank_spurious(&spurious_counts, diff.matched.len(), diff.spurious.len()),
    })
}

/// Corpus-level aggregate of per-project rankings.
#[derive(Debug)]
pub struct CorpusRank {
    /// Per-project rankings, in corpus order (failures excluded).
    pub projects: Vec<ProjectRank>,
    /// Projects that failed the pipeline: `(name, error)` in corpus order.
    pub errors: Vec<(String, String)>,
}

impl CorpusRank {
    /// The corpus-wide ranking: per-cause counts summed over projects,
    /// ranked by total recovered edges (desc), then cause key. A family's
    /// strategy is `"resolve"` exactly when every project used the
    /// re-solve for it, i.e. it is cause-determined, not data-determined.
    #[must_use]
    pub fn ranked(&self) -> Vec<CauseImpact> {
        let dynamic: usize = self.projects.iter().map(|p| p.dynamic_edges).sum();
        let mut totals: Vec<CauseImpact> = Cause::all()
            .iter()
            .map(|c| {
                let (mut missed, mut recovered) = (0usize, 0usize);
                for p in &self.projects {
                    for ci in &p.causes {
                        if ci.cause == c.key() {
                            missed += ci.missed;
                            recovered += ci.recovered;
                        }
                    }
                }
                CauseImpact {
                    cause: c.key(),
                    missed,
                    recovered,
                    strategy: if *c == Cause::HigherOrderProxy {
                        "resolve"
                    } else {
                        "patch-edges"
                    },
                    recall_gain_pct: if dynamic == 0 {
                        0.0
                    } else {
                        recovered as f64 / dynamic as f64 * 100.0
                    },
                }
            })
            .collect();
        totals.sort_by(|a, b| b.recovered.cmp(&a.recovered).then(a.cause.cmp(b.cause)));
        totals
    }

    /// The corpus-wide spurious ranking, mirroring [`CorpusRank::ranked`].
    #[must_use]
    pub fn ranked_spurious(&self) -> Vec<SpuriousImpact> {
        let matched: usize = self.projects.iter().map(|p| p.matched).sum();
        let spurious: usize = self.projects.iter().map(|p| p.spurious).sum();
        let counts: Vec<(SpuriousCause, usize)> = SpuriousCause::all()
            .iter()
            .map(|c| {
                (
                    *c,
                    self.projects
                        .iter()
                        .flat_map(|p| &p.spurious_causes)
                        .filter(|s| s.cause == c.key())
                        .map(|s| s.spurious)
                        .sum(),
                )
            })
            .collect();
        rank_spurious(&counts, matched, spurious)
    }

    /// The deterministic corpus report: ranked cause table first (the
    /// headline), per-project detail after. No wall-clock fields, so two
    /// runs at any thread count print byte-identical text.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let dynamic: usize = self.projects.iter().map(|p| p.dynamic_edges).sum();
        let missed: usize = self.projects.iter().map(|p| p.missed).sum();
        Json::obj(vec![
            ("projects", Json::Num(self.projects.len() as f64)),
            ("errors", Json::Num(self.errors.len() as f64)),
            ("dynamic_edges", Json::Num(dynamic as f64)),
            ("missed", Json::Num(missed as f64)),
            (
                "ranked",
                Json::Arr(self.ranked().iter().map(CauseImpact::to_json).collect()),
            ),
            (
                "ranked_spurious",
                Json::Arr(
                    self.ranked_spurious()
                        .iter()
                        .map(SpuriousImpact::to_json)
                        .collect(),
                ),
            ),
            (
                "per_project",
                Json::Arr(self.projects.iter().map(ProjectRank::to_json).collect()),
            ),
            ("failures", failures_json(&self.errors)),
        ])
    }
}

/// Fans [`rank_project`] over a corpus on up to `threads` workers
/// (`0` = auto), preserving corpus order — the report is byte-identical
/// to a serial run.
#[must_use]
pub fn rank_corpus(projects: Vec<Project>, opts: &OracleOptions, threads: usize) -> CorpusRank {
    let (projects, errors) =
        split_results(run_corpus_map(projects, threads, |p| rank_project(p, opts)));
    CorpusRank { projects, errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovered_never_exceeds_missed() {
        let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(6).collect();
        let rank = rank_corpus(projects, &OracleOptions::default(), 1);
        assert!(rank.errors.is_empty(), "{:?}", rank.errors);
        for p in &rank.projects {
            for c in &p.causes {
                assert!(c.recovered <= c.missed, "{}: {:?}", p.name, c);
                if c.strategy == "patch-edges" {
                    assert_eq!(c.recovered, c.missed, "{}: {:?}", p.name, c);
                }
            }
            let missed_sum: usize = p.causes.iter().map(|c| c.missed).sum();
            assert_eq!(
                missed_sum, p.missed,
                "{}: causes must partition misses",
                p.name
            );
        }
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let projects: Vec<_> = aji_corpus::pattern_projects().into_iter().take(6).collect();
        let rank = rank_corpus(projects, &OracleOptions::default(), 1);
        let ranked = rank.ranked();
        assert_eq!(ranked.len(), Cause::all().len());
        for w in ranked.windows(2) {
            assert!(w[0].recovered >= w[1].recovered);
        }
        let spurious = rank.ranked_spurious();
        assert_eq!(spurious.len(), SpuriousCause::all().len());
        // Dropping spurious edges can only help precision.
        for s in &spurious {
            assert!(s.precision_gain_pct >= 0.0, "{s:?}");
        }
    }
}
