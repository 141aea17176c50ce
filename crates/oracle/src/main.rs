//! `aji-oracle` — the differential soundness oracle's command line.
//!
//! Default mode runs the soundness fuzzer ([`aji_oracle::run_fuzz`]);
//! `--patterns` runs the differential harness over the hand-written
//! pattern corpus instead. Output is deterministic in `(--seed,
//! --cases)` whatever `--threads` says; `--json` prints the full report,
//! `--obs FILE` additionally writes an `aji-obs` ObsReport.
//!
//! Exit codes: `0` clean, `1` findings or pipeline errors, `2` usage.

use aji_oracle::{run_fuzz, run_oracle_corpus, FuzzOptions, OracleOptions};
use std::process::ExitCode;
use std::sync::Arc;

struct Cli {
    seed: u64,
    cases: usize,
    threads: usize,
    json: bool,
    patterns: bool,
    obs: Option<String>,
}

const USAGE: &str = "usage: aji-oracle [options]

Differential soundness oracle: fuzzes the corpus generator for dynamic
call edges the hint-augmented analysis misses despite having a hint for
them, triages every miss, and shrinks findings to minimal reproducers.

options:
  --seed N       master seed for the fuzzer (default 1)
  --cases N      maximum fuzz cases to evaluate (default 50)
  --threads N    worker threads, 0 = auto (default: AJI_THREADS or 0)
  --json         print the full deterministic JSON report
  --patterns     run the differential harness over the hand-written
                 pattern corpus instead of fuzzing
  --obs FILE     also write an aji-obs ObsReport (JSON) to FILE
  -h, --help     show this help

exit codes: 0 = clean, 1 = findings or pipeline errors, 2 = usage error";

fn parse_args(args: Vec<String>) -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        cases: 50,
        threads: aji_support::par::threads_from_env(),
        json: false,
        patterns: false,
        obs: None,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut take = |flag: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} expects a value"))
        };
        match a.as_str() {
            "--seed" => {
                let v = take("--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value: {v}"))?;
            }
            "--cases" => {
                let v = take("--cases")?;
                cli.cases = v
                    .parse()
                    .map_err(|_| format!("invalid --cases value: {v}"))?;
            }
            "--threads" => {
                let v = take("--threads")?;
                cli.threads = v
                    .parse()
                    .map_err(|_| format!("invalid --threads value: {v}"))?;
            }
            "--obs" => cli.obs = Some(take("--obs")?),
            "--json" => cli.json = true,
            "--patterns" => cli.patterns = true,
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

fn run(cli: &Cli) -> ExitCode {
    if cli.patterns {
        let corpus = run_oracle_corpus(
            aji_corpus::pattern_projects(),
            &OracleOptions::default(),
            cli.threads,
        );
        if cli.json {
            println!("{}", corpus.to_json());
        } else {
            let (dynamic, missed, recovered, spurious) = corpus.totals();
            let (base, ext) = corpus.recall();
            println!(
                "patterns: {} project(s), {} error(s) | {dynamic} dynamic edges | \
                 {missed} missed, {recovered} recovered, {spurious} spurious",
                corpus.projects.len(),
                corpus.errors.len(),
            );
            println!("recall: baseline {base:.1}% -> extended {ext:.1}%");
            print!("causes:");
            for (k, n) in corpus.histogram() {
                if n > 0 {
                    print!(" {k}={n}");
                }
            }
            println!();
        }
        // Pattern projects exercise idioms the analysis is *expected* to
        // miss (hard dispatch); only pipeline errors fail the run.
        return if corpus.errors.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let report = run_fuzz(&FuzzOptions {
        seed: cli.seed,
        cases: cli.cases,
        threads: cli.threads,
        ..FuzzOptions::default()
    });
    if cli.json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.summary_text());
    }
    if report.clean() {
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
            eprintln!("aji-oracle: {e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.obs {
        Some(path) => {
            let reg = Arc::new(aji_obs::Registry::new());
            let code = aji_obs::scoped(&reg, || run(&cli));
            if let Err(e) = std::fs::write(path, reg.report().to_json_string()) {
                eprintln!("aji-oracle: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            code
        }
        None => run(&cli),
    }
}
