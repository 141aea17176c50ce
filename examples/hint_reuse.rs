//! §6 "Reusing approximate interpretation results": hints inferred once
//! for a library are reused to analyze an application of that library,
//! without re-running the pre-analysis on the application.
//!
//! Run with `cargo run --example hint_reuse`.

use aji_approx::{approximate_interpret, ApproxOptions};
use aji_ast::Project;
use aji_pta::{analyze, AnalysisOptions, CgMetrics};

const LIBRARY: &str = r#"var api = {};
['connect', 'query', 'close'].forEach(function(op) {
  api[op] = function impl(arg) {
    return op + '(' + arg + ')';
  };
});
module.exports = api;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Step 1: pre-analyze the library once, on its own.
    let mut lib = Project::new("dbdriver");
    lib.add_file("index.js", "module.exports = require('dbdriver');");
    lib.add_file("node_modules/dbdriver/index.js", LIBRARY);
    let lib_hints = approximate_interpret(&lib, &ApproxOptions::default())?.hints;
    println!(
        "library pre-analysis: {} hints ({} write hints)",
        lib_hints.len(),
        lib_hints.writes.len()
    );

    // Step 2: a *different* application vendors the same library file. Its
    // own code is never touched by approximate interpretation here.
    let mut app = Project::new("report-tool");
    app.add_file(
        "index.js",
        r#"var db = require('dbdriver');
db.connect('postgres://localhost');
var rows = db.query('select 1');
db.close();
"#,
    );
    app.add_file("node_modules/dbdriver/index.js", LIBRARY);

    let baseline = analyze(&app, None, &AnalysisOptions::baseline())?;
    let reused = analyze(&app, Some(&lib_hints), &AnalysisOptions::extended())?;

    let mb = CgMetrics::of(&baseline.call_graph);
    let mr = CgMetrics::of(&reused.call_graph);
    println!();
    println!("application analysis (no pre-analysis of the app itself):");
    println!(
        "  call edges        baseline {:>2}   with reused hints {:>2}",
        mb.call_edges, mr.call_edges
    );
    println!(
        "  resolved sites    baseline {:>4.1}%  with reused hints {:>4.1}%",
        mb.resolved_pct(),
        mr.resolved_pct()
    );
    println!();
    println!("calls into the library resolved purely from the library's own hints:");
    for (site, targets) in &reused.call_graph.site_targets {
        if site.file.0 == 0 && !targets.is_empty() {
            let lib_targets = targets.iter().filter(|t| t.file.0 == 1).count();
            if lib_targets > 0 {
                println!(
                    "  index.js line {} -> {} library callee(s)",
                    site.line, lib_targets
                );
            }
        }
    }
    println!();
    println!("caveat: reuse requires the vendored library file to be byte-identical");
    println!("(hint locations are file/line/column; see DESIGN.md).");
    Ok(())
}
