//! `aji-quant` — root-cause quantification and the property-access
//! finder's command line.
//!
//! Runs the counterfactual cause ranking over the hand-written pattern
//! corpus, then the statistical finder over the same corpus plus a
//! deterministic typo-seeded generated corpus, and evaluates the finder
//! against the injected-defect manifests. Output is deterministic in
//! `(--typo-seed, --typo-projects, --threshold)` whatever `--threads`
//! says; `--json` prints the full report, `--obs FILE` additionally
//! writes an `aji-obs` ObsReport.
//!
//! Exit codes: `0` ok, `1` pipeline errors, `2` usage.

use aji_oracle::OracleOptions;
use aji_quant::{evaluate, find_anomalies, rank_corpus, FinderOptions};
use aji_support::Json;
use std::process::ExitCode;
use std::sync::Arc;

struct Cli {
    threads: usize,
    json: bool,
    threshold: f64,
    typo_projects: usize,
    typo_seed: u64,
    obs: Option<String>,
}

const USAGE: &str = "usage: aji-quant [options]

Root-cause quantification: prices every triage cause family by the
recall a fix would buy (counterfactual re-solve / patch-edges upper
bound), and runs the statistical property-access finder with a
precision/recall evaluation against generator-injected typos.

options:
  --threads N        worker threads, 0 = auto (default: AJI_THREADS or 0)
  --json             print the full deterministic JSON report
  --threshold F      finder confidence threshold (default 0.9)
  --typo-projects N  generated projects in the finder's seeded
                     evaluation corpus (default 8)
  --typo-seed N      base seed of the evaluation corpus (default 97)
  --obs FILE         also write an aji-obs ObsReport (JSON) to FILE
  -h, --help         show this help

exit codes: 0 = ok, 1 = pipeline errors, 2 = usage error";

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        threads: aji_support::par::threads_from_env(),
        json: false,
        threshold: 0.9,
        typo_projects: 8,
        typo_seed: 97,
        obs: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} expects a value"))
        };
        match a.as_str() {
            "--threads" => {
                let v = take("--threads")?;
                cli.threads = v
                    .parse()
                    .map_err(|_| format!("invalid --threads value: {v}"))?;
            }
            "--threshold" => {
                let v = take("--threshold")?;
                cli.threshold = v
                    .parse()
                    .map_err(|_| format!("invalid --threshold value: {v}"))?;
            }
            "--typo-projects" => {
                let v = take("--typo-projects")?;
                cli.typo_projects = v
                    .parse()
                    .map_err(|_| format!("invalid --typo-projects value: {v}"))?;
            }
            "--typo-seed" => {
                let v = take("--typo-seed")?;
                cli.typo_seed = v
                    .parse()
                    .map_err(|_| format!("invalid --typo-seed value: {v}"))?;
            }
            "--obs" => cli.obs = Some(take("--obs")?),
            "--json" => cli.json = true,
            other => match other.strip_prefix("--threads=") {
                Some(v) => {
                    cli.threads = v
                        .parse()
                        .map_err(|_| format!("invalid --threads value: {v}"))?;
                }
                None => return Err(format!("unknown argument: {other}")),
            },
        }
    }
    Ok(cli)
}

/// The finder's seeded evaluation corpus: small generated projects with
/// typo injections on, plus their manifests. Deterministic in
/// `(count, base_seed)`.
fn typo_corpus(
    count: usize,
    base_seed: u64,
) -> (
    Vec<aji_ast::Project>,
    Vec<(String, Vec<aji_corpus::InjectedTypo>)>,
) {
    let mut projects = Vec::with_capacity(count);
    let mut manifests = Vec::with_capacity(count);
    for (i, mut cfg) in aji_corpus::population_configs(count, base_seed)
        .into_iter()
        .enumerate()
    {
        cfg.name = format!("typo-{i:03}");
        cfg.typo_injections = 2 + i % 3;
        let (p, typos) = aji_corpus::generate_with_manifest(&cfg);
        manifests.push((p.name.clone(), typos));
        projects.push(p);
    }
    (projects, manifests)
}

fn run(cli: &Cli) -> ExitCode {
    let patterns = aji_corpus::pattern_projects();
    let (typo_projects, manifests) = typo_corpus(cli.typo_projects, cli.typo_seed);
    // Rank over patterns *and* the generated projects: the generated
    // hard-dispatch idiom is what populates the higher-order-proxy
    // family, whose counterfactual is the measured re-solve.
    let mut rank_corpus_projects = patterns.clone();
    rank_corpus_projects.extend(typo_projects.clone());
    let ranking = rank_corpus(rank_corpus_projects, &OracleOptions::default(), cli.threads);

    let finder_opts = FinderOptions {
        threshold: cli.threshold,
        ..FinderOptions::default()
    };
    let mut finder_corpus = patterns;
    finder_corpus.extend(typo_projects);
    let finder = find_anomalies(finder_corpus, &finder_opts, cli.threads);
    let eval = evaluate(&finder, &manifests);

    if cli.json {
        // Top-level keys carry the `quant.` prefix so the perf gate's
        // guarded counter-family check covers the whole report.
        let report = Json::obj(vec![
            ("bench", Json::Str("pr10_quant".to_string())),
            ("quant.ranking", ranking.to_json()),
            ("quant.finder", finder.to_json()),
            ("quant.eval", eval.to_json()),
        ]);
        println!("{report}");
    } else {
        println!(
            "ranking: {} project(s), {} error(s) | {} dynamic edges, {} missed",
            ranking.projects.len(),
            ranking.errors.len(),
            ranking
                .projects
                .iter()
                .map(|p| p.dynamic_edges)
                .sum::<usize>(),
            ranking.projects.iter().map(|p| p.missed).sum::<usize>(),
        );
        for c in ranking.ranked() {
            if c.missed > 0 {
                println!(
                    "  {:<20} missed={:<4} recovered={:<4} (+{:.1}% recall, {})",
                    c.cause, c.missed, c.recovered, c.recall_gain_pct, c.strategy
                );
            }
        }
        for s in ranking.ranked_spurious() {
            if s.spurious > 0 {
                println!(
                    "  {:<20} spurious={:<3} (+{:.2}% precision if dropped)",
                    s.cause, s.spurious, s.precision_gain_pct
                );
            }
        }
        println!(
            "finder: {} candidate(s), {} flagged at threshold {}",
            finder.candidates.len(),
            finder.flagged().len(),
            finder.threshold,
        );
        println!(
            "eval: {} injected, {} recovered ({:.1}% recall), precision {:.1}%",
            eval.injected, eval.recovered, eval.recall_pct, eval.precision_pct,
        );
    }
    if ranking.errors.is_empty() && finder.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cli = match parse_args(args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("aji-quant: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.obs {
        Some(path) => {
            let reg = Arc::new(aji_obs::Registry::new());
            let code = aji_obs::scoped(&reg, || run(&cli));
            if let Err(e) = std::fs::write(path, reg.report().to_json_string()) {
                eprintln!("aji-quant: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            code
        }
        None => run(&cli),
    }
}
