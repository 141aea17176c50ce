//! The request engine: protocol dispatch over the [`HintStore`].
//!
//! One [`Engine`] owns one store and handles one request at a time —
//! the daemon is deliberately single-threaded (parsed modules are `Rc`
//! trees), and determinism across *client-side* fan-out follows from
//! responses being pure functions of request content.
//!
//! The request catalogue (see DAEMON.md for the full reference):
//!
//! | op           | effect                                              |
//! |--------------|-----------------------------------------------------|
//! | `analyze`    | full pipeline; warm responses come from the store   |
//! | `oracle`     | differential soundness oracle on one project        |
//! | `invalidate` | evict a project, or one file and the derived layers |
//! | `stats`      | store counters, layer sizes, request count          |
//! | `save`       | write the store snapshot now                        |
//! | `shutdown`   | save (if configured) and stop the accept loop       |
//!
//! Every response is `{"ok":true,"op":...,"result":...}` or
//! `{"ok":false,"op":...,"error":"..."}`. Request-level errors are valid
//! frames; only transport garbage is answered with a protocol error.

use std::path::PathBuf;
use std::sync::Arc;

use aji::PipelineOptions;
use aji_ast::Project;
use aji_oracle::OracleOptions;
use aji_support::hash::Fnv64;
use aji_support::{Json, ToJson};

use crate::store::HintStore;

/// Domain-separation seed for the hint layer's approx-options
/// fingerprint: hint keys must not collide with full pipeline or oracle
/// fingerprints, because the hint layer is shared between `analyze`
/// variants (static and dynamic) whose *full* fingerprints differ.
const APPROX_FP_SEED: u64 = 0x0A99_C0FF_1E1D;

/// Engine configuration.
#[derive(Default)]
pub struct EngineOptions {
    /// Digest seed for the store (snapshots only reload under the same
    /// seed).
    pub seed: u64,
    /// Snapshot file; `None` disables persistence.
    pub store_path: Option<PathBuf>,
    /// Pipeline options for `analyze` (a request's `"dynamic": true`
    /// additionally switches `dynamic_cg` on).
    pub pipeline: PipelineOptions,
    /// Oracle options for `oracle`.
    pub oracle: OracleOptions,
}

/// The daemon's brain: a [`HintStore`] plus request dispatch.
pub struct Engine {
    opts: EngineOptions,
    store: HintStore,
    /// Lazily-built index of the built-in corpora, for `"name"` requests.
    corpus: std::collections::BTreeMap<String, Project>,
    patterns_loaded: bool,
    population_loaded: bool,
    requests: u64,
}

impl Engine {
    /// Creates an engine, reloading the store snapshot if `store_path`
    /// names an existing, seed-compatible file.
    pub fn new(opts: EngineOptions) -> Engine {
        let store = match &opts.store_path {
            Some(p) => HintStore::open(p, opts.seed),
            None => HintStore::new(opts.seed),
        };
        Engine {
            opts,
            store,
            corpus: std::collections::BTreeMap::new(),
            patterns_loaded: false,
            population_loaded: false,
            requests: 0,
        }
    }

    /// Read access to the store (tests and the bench binary).
    pub fn store(&self) -> &HintStore {
        &self.store
    }

    /// Handles one request frame. Returns the response frame and whether
    /// the daemon should shut down after sending it.
    ///
    /// With `"obs": true` in the request, the op runs under a fresh
    /// per-request [`aji_obs::Registry`] and the response gains an
    /// `"obs"` field with its report — span tree, counters, histograms —
    /// which aji-report can render and diff. Obs-carrying responses
    /// contain timings and are therefore *not* byte-stable; the cache
    /// stores only the deterministic `result` payload.
    pub fn handle(&mut self, req: &Json) -> (Json, bool) {
        self.requests += 1;
        let op = match req.get("op").and_then(Json::as_str) {
            Some(op) => op.to_string(),
            None => {
                return (
                    err_frame("?", "request has no 'op' field".to_string()),
                    false,
                )
            }
        };
        if req.get("obs").and_then(Json::as_bool) == Some(true) {
            let reg = Arc::new(aji_obs::Registry::new());
            let (mut frame, shutdown) = aji_obs::scoped(&reg, || self.dispatch(&op, req));
            if let Json::Obj(pairs) = &mut frame {
                pairs.push(("obs".to_string(), reg.report().to_json()));
            }
            (frame, shutdown)
        } else {
            self.dispatch(&op, req)
        }
    }

    /// Requests handled so far (including failed ones).
    pub fn requests(&self) -> u64 {
        self.requests
    }

    fn dispatch(&mut self, op: &str, req: &Json) -> (Json, bool) {
        match op {
            "analyze" => (self.op_analyze(req), false),
            "oracle" => (self.op_oracle(req), false),
            "invalidate" => (self.op_invalidate(req), false),
            "stats" => (self.op_stats(), false),
            "save" => (self.op_save(), false),
            "shutdown" => {
                let persisted = self.save_if_configured();
                (
                    ok_frame(
                        "shutdown",
                        Json::obj(vec![("persisted", Json::Bool(persisted))]),
                    ),
                    true,
                )
            }
            other => (err_frame(other, format!("unknown op '{other}'")), false),
        }
    }

    /// `analyze`: response cache first; on a miss, parse through the
    /// parse layer, reuse hints when the hint layer has this `(digest,
    /// approx fingerprint)`, and run the remaining pipeline phases. The
    /// cached value is the deterministic `metrics_json` payload, so warm
    /// and cold responses are byte-identical.
    fn op_analyze(&mut self, req: &Json) -> Json {
        let project = match self.resolve_project(req) {
            Ok(p) => p,
            Err(e) => return err_frame("analyze", e),
        };
        let mut opts = self.opts.pipeline.clone();
        if req.get("dynamic").and_then(Json::as_bool) == Some(true) {
            opts.dynamic_cg = true;
        }
        let fp = opts.fingerprint();
        let digest = self.store.project_digest(&project);
        if let Some(body) = self.store.response("analyze", &project.name, digest, fp) {
            return match Json::parse(&body) {
                Ok(result) => ok_frame("analyze", result),
                Err(e) => err_frame("analyze", format!("corrupt cached response: {e}")),
            };
        }
        let parsed = match self.store.parse(&project) {
            Ok(p) => p,
            Err(e) => return err_frame("analyze", format!("parse error: {e}")),
        };
        let mut h = Fnv64::new(APPROX_FP_SEED);
        opts.approx.fingerprint_into(&mut h);
        let approx_fp = h.finish();
        let cached = self.store.hints(&project.name, digest, approx_fp);
        let hints_missed = cached.is_none();
        let report = aji::run_benchmark_parsed(&project, &parsed, cached, &opts);
        if hints_missed {
            self.store.put_hints(
                &project.name,
                digest,
                approx_fp,
                report.hints.clone(),
                report.approx_stats.clone(),
            );
        }
        let result = report.metrics_json();
        self.store
            .put_response("analyze", &project.name, digest, fp, result.to_string());
        ok_frame("analyze", result)
    }

    /// `oracle`: same caching shape as `analyze` (response layer keyed
    /// under the oracle fingerprint, parse layer shared with `analyze` —
    /// an oracle run after an analyze of the same sources re-parses
    /// nothing).
    fn op_oracle(&mut self, req: &Json) -> Json {
        let project = match self.resolve_project(req) {
            Ok(p) => p,
            Err(e) => return err_frame("oracle", e),
        };
        let fp = self.opts.oracle.fingerprint();
        let digest = self.store.project_digest(&project);
        if let Some(body) = self.store.response("oracle", &project.name, digest, fp) {
            return match Json::parse(&body) {
                Ok(result) => ok_frame("oracle", result),
                Err(e) => err_frame("oracle", format!("corrupt cached response: {e}")),
            };
        }
        let parsed = match self.store.parse(&project) {
            Ok(p) => p,
            Err(e) => return err_frame("oracle", format!("parse error: {e}")),
        };
        let result = aji_oracle::run_oracle_parsed(&project, &parsed, &self.opts.oracle).to_json();
        self.store
            .put_response("oracle", &project.name, digest, fp, result.to_string());
        ok_frame("oracle", result)
    }

    fn op_invalidate(&mut self, req: &Json) -> Json {
        let Some(name) = req.get("name").and_then(Json::as_str) else {
            return err_frame("invalidate", "invalidate needs a 'name'".to_string());
        };
        let path = req.get("path").and_then(Json::as_str);
        match self.store.invalidate(name, path) {
            Ok(out) => ok_frame("invalidate", out.to_json()),
            Err(e) => err_frame("invalidate", e),
        }
    }

    fn op_stats(&self) -> Json {
        let (projects, modules, hints, responses) = self.store.sizes();
        let store = self.store.stats();
        ok_frame(
            "stats",
            Json::obj(vec![
                ("requests", self.requests.to_json()),
                ("seed", Json::Str(aji_support::hash::hex(self.store.seed()))),
                ("store", store.to_json()),
                (
                    "sizes",
                    Json::obj(vec![
                        ("projects", projects.to_json()),
                        ("modules", modules.to_json()),
                        ("hints", hints.to_json()),
                        ("responses", responses.to_json()),
                    ]),
                ),
            ]),
        )
    }

    fn op_save(&mut self) -> Json {
        match &self.opts.store_path {
            None => err_frame("save", "no --store file configured".to_string()),
            Some(p) => match self.store.save_to(p) {
                Ok(()) => ok_frame(
                    "save",
                    Json::obj(vec![("path", Json::Str(p.display().to_string()))]),
                ),
                Err(e) => err_frame("save", format!("cannot save: {e}")),
            },
        }
    }

    /// Saves if persistence is configured; reports whether a snapshot
    /// was written.
    pub fn save_if_configured(&mut self) -> bool {
        match &self.opts.store_path {
            None => false,
            Some(p) => match self.store.save_to(p) {
                Ok(()) => true,
                Err(e) => {
                    eprintln!("aji-serve: snapshot save failed: {e}");
                    false
                }
            },
        }
    }

    /// A request names its project either inline (`"project": {...}`, in
    /// [`Project::from_json`] form) or by built-in corpus name
    /// (`"name": "..."` — the pattern corpus first, then the generated
    /// population, both built lazily and indexed once).
    fn resolve_project(&mut self, req: &Json) -> Result<Project, String> {
        if let Some(doc) = req.get("project") {
            return Project::from_json(doc);
        }
        let Some(name) = req.get("name").and_then(Json::as_str) else {
            return Err("request needs a 'project' (inline) or 'name' (corpus)".to_string());
        };
        if let Some(p) = self.corpus.get(name) {
            return Ok(p.clone());
        }
        if !self.patterns_loaded {
            self.patterns_loaded = true;
            for p in aji_corpus::pattern_projects() {
                self.corpus.insert(p.name.clone(), p);
            }
            if let Some(p) = self.corpus.get(name) {
                return Ok(p.clone());
            }
        }
        if !self.population_loaded {
            self.population_loaded = true;
            for p in aji_corpus::full_population() {
                self.corpus.insert(p.name.clone(), p);
            }
            if let Some(p) = self.corpus.get(name) {
                return Ok(p.clone());
            }
        }
        Err(format!("unknown corpus project '{name}'"))
    }
}

/// `{"ok":true,"op":op,"result":result}`.
fn ok_frame(op: &str, result: Json) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("op", Json::Str(op.to_string())),
        ("result", result),
    ])
}

/// `{"ok":false,"op":op,"error":error}`.
fn err_frame(op: &str, error: String) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("op", Json::Str(op.to_string())),
        ("error", Json::Str(error)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_req(project: &Json) -> Json {
        Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            ("project", project.clone()),
        ])
    }

    fn tiny_project() -> Json {
        let p = Project {
            name: "engine-test".into(),
            files: vec![aji_ast::ProjectFile {
                path: "main.js".into(),
                src: "var o = { f: function() { return 1; } }; var k = 'f'; o[k]();".into(),
            }],
            main: "main.js".into(),
            test_driver: None,
            vulns: Vec::new(),
        };
        p.to_json()
    }

    #[test]
    fn analyze_warm_response_is_byte_identical_and_counted() {
        let mut engine = Engine::new(EngineOptions::default());
        let req = analyze_req(&tiny_project());
        let (cold, stop) = engine.handle(&req);
        assert!(!stop);
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)), "{cold}");
        let (warm, _) = engine.handle(&req);
        assert_eq!(cold.to_string(), warm.to_string());
        let s = engine.store().stats();
        assert_eq!((s.response_hits, s.response_misses), (1, 1));
    }

    #[test]
    fn dynamic_analyze_reuses_hints_not_responses() {
        let mut engine = Engine::new(EngineOptions::default());
        let project = tiny_project();
        let (first, _) = engine.handle(&analyze_req(&project));
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        let mut dyn_req = analyze_req(&project);
        if let Json::Obj(pairs) = &mut dyn_req {
            pairs.push(("dynamic".to_string(), Json::Bool(true)));
        }
        let (second, _) = engine.handle(&dyn_req);
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)), "{second}");
        assert!(
            second
                .get("result")
                .and_then(|r| r.get("accuracy"))
                .is_some(),
            "dynamic run reports accuracy"
        );
        let s = engine.store().stats();
        assert_eq!(s.hint_hits, 1, "approx phase skipped on the dynamic run");
        assert_eq!(
            s.response_hits, 0,
            "different fingerprint, so no response hit"
        );
    }

    #[test]
    fn corpus_lookup_and_unknown_names() {
        let mut engine = Engine::new(EngineOptions::default());
        let (resp, _) = engine.handle(&Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            ("name", Json::Str("definitely-not-a-project".into())),
        ]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let patterns = aji_corpus::pattern_projects();
        let (resp, _) = engine.handle(&Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            ("name", Json::Str(patterns[0].name.clone())),
        ]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
    }

    #[test]
    fn bad_requests_are_error_frames() {
        let mut engine = Engine::new(EngineOptions::default());
        let (resp, stop) = engine.handle(&Json::obj(vec![("noop", Json::Bool(true))]));
        assert!(!stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let (resp, _) = engine.handle(&Json::obj(vec![("op", Json::Str("fly".into()))]));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        let (resp, _) = engine.handle(&Json::obj(vec![("op", Json::Str("save".into()))]));
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(false)),
            "save without store"
        );
        // A parse error is a request-level error, not a cached response.
        let broken = Project {
            name: "broken".into(),
            files: vec![aji_ast::ProjectFile {
                path: "main.js".into(),
                src: "var = ;".into(),
            }],
            main: "main.js".into(),
            test_driver: None,
            vulns: Vec::new(),
        };
        let (resp, _) = engine.handle(&analyze_req(&broken.to_json()));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn shutdown_without_store_reports_unpersisted() {
        let mut engine = Engine::new(EngineOptions::default());
        let (resp, stop) = engine.handle(&Json::obj(vec![("op", Json::Str("shutdown".into()))]));
        assert!(stop);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            resp.get("result").and_then(|r| r.get("persisted")),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn obs_requests_carry_a_per_request_report() {
        let mut engine = Engine::new(EngineOptions::default());
        let mut req = analyze_req(&tiny_project());
        if let Json::Obj(pairs) = &mut req {
            pairs.push(("obs".to_string(), Json::Bool(true)));
        }
        let (resp, _) = engine.handle(&req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let obs = resp.get("obs").expect("per-request obs report");
        let spans = obs.get("spans").and_then(Json::as_arr).expect("span list");
        assert!(
            spans
                .iter()
                .any(|s| s.get("path").and_then(Json::as_str) == Some("pipeline")),
            "pipeline span recorded"
        );
        // The same request without obs: byte-identical result payload.
        let (plain, _) = engine.handle(&analyze_req(&tiny_project()));
        assert_eq!(
            plain.get("result").map(Json::to_string),
            resp.get("result").map(Json::to_string)
        );
    }

    #[test]
    fn stats_frame_shape() {
        let mut engine = Engine::new(EngineOptions::default());
        engine.handle(&analyze_req(&tiny_project()));
        let (resp, _) = engine.handle(&Json::obj(vec![("op", Json::Str("stats".into()))]));
        let result = resp.get("result").expect("result");
        assert_eq!(result.get("requests").and_then(Json::as_f64), Some(2.0));
        let store = result.get("store").expect("store counters");
        assert_eq!(
            store.get("response_misses").and_then(Json::as_f64),
            Some(1.0)
        );
        let sizes = result.get("sizes").expect("layer sizes");
        assert_eq!(sizes.get("projects").and_then(Json::as_f64), Some(1.0));
    }
}
