//! The persistent, content-hash-keyed [`HintStore`].
//!
//! Three cache layers, cheapest to most valuable:
//!
//! 1. **Parse layer** — per-file [`Module`] parses, keyed by `(source
//!    digest, node-id offset)`. In-memory only: modules are `Rc` trees
//!    and re-parsing is cheap next to re-analysis.
//! 2. **Hint layer** — solved approximate-interpretation results
//!    ([`Hints`] + [`ApproxStats`]), keyed by `(project digest,
//!    approx-options fingerprint)`. Persisted: §5 puts approximate
//!    interpretation at the majority of pipeline wall-clock, so these
//!    are the expensive artifacts worth keeping across daemon restarts.
//! 3. **Response layer** — complete serialized analysis/oracle response
//!    bodies, keyed by `(op, project digest, full options fingerprint)`.
//!    Persisted: a warm `analyze` is a string lookup.
//!
//! **Why stale answers are impossible.** Every key contains a digest of
//! the complete request-relevant input: the full project content (name,
//! entry points, every file's path and text, vulnerability annotations)
//! and a fingerprint of every result-affecting option. An edit changes
//! the digest, so edited projects *cannot* hit old entries — the caches
//! are self-validating. [`HintStore::invalidate`] is therefore an
//! *eviction* API (reclaim memory, force recomputation), not a
//! correctness requirement; `tests/daemon_determinism.rs` pins this with
//! randomized edit sequences.
//!
//! **Node-id discipline.** A cold [`aji_parser::parse_project`] numbers
//! AST nodes project-wide in file order. The parse layer records the id
//! interval `[id_start, id_end)` each cached module was parsed under and
//! reuses it only when the current generator is exactly at `id_start` —
//! so an incrementally-assembled [`ParsedProject`] is *identical* (ids
//! and all) to a cold parse, and everything downstream (hints keyed by
//! [`aji_ast::Loc`], node-id-keyed call graphs) is byte-stable. An edit
//! that changes a file's node count simply stops reuse at that file:
//! later files re-parse because their `id_start` no longer matches.
//!
//! Snapshots are deterministic JSON (BTree iteration order, hex-encoded
//! digests) written atomically (`tmp` + rename), so two daemons that saw
//! the same requests write byte-identical store files.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::rc::Rc;

use aji_approx::{ApproxStats, Hints};
use aji_ast::{FileId, Module, NodeIdGen, Project};
use aji_parser::{parse_module, ParseError, ParsedProject};
use aji_support::hash::{fnv64, from_hex, hex};
use aji_support::{FromJson, Json, ToJson};

/// Hit/miss/eviction counters, one pair per cache layer. Exposed by the
/// daemon's `stats` op (deliberately *not* inside `analyze` responses,
/// which must be byte-identical warm vs. cold).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Per-file parses served from the parse layer.
    pub parse_hits: u64,
    /// Per-file parses that ran the parser.
    pub parse_misses: u64,
    /// Approximate-interpretation runs skipped via the hint layer.
    pub hint_hits: u64,
    /// Hint-layer lookups that missed.
    pub hint_misses: u64,
    /// Whole responses served from the response layer.
    pub response_hits: u64,
    /// Response-layer lookups that missed.
    pub response_misses: u64,
    /// `invalidate` requests that evicted something.
    pub invalidations: u64,
}

impl StoreStats {
    /// Counters as a JSON object (key order fixed).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("parse_hits", self.parse_hits.to_json()),
            ("parse_misses", self.parse_misses.to_json()),
            ("hint_hits", self.hint_hits.to_json()),
            ("hint_misses", self.hint_misses.to_json()),
            ("response_hits", self.response_hits.to_json()),
            ("response_misses", self.response_misses.to_json()),
            ("invalidations", self.invalidations.to_json()),
        ])
    }
}

/// One cached per-file parse: the module and the node-id interval it was
/// parsed under.
#[derive(Clone)]
struct FileEntry {
    /// Seeded digest of the file's source text.
    digest: u64,
    /// Node-id counter value when this file's parse began.
    id_start: usize,
    /// Counter value after — the resume point for the next file.
    id_end: usize,
    /// The parse itself.
    module: Rc<Module>,
}

/// One cached approximate-interpretation result.
#[derive(Clone)]
struct HintEntry {
    hints: Hints,
    stats: ApproxStats,
}

/// Everything cached for one project name.
#[derive(Default)]
struct ProjectCache {
    /// Parse layer; index `i` is `FileId(i)`. `None` = evicted.
    files: Vec<Option<FileEntry>>,
    /// File paths of the most recent parse, in file order.
    paths: Vec<String>,
    /// Hint layer: `(project digest, approx fingerprint)` → result.
    hints: BTreeMap<(u64, u64), HintEntry>,
    /// Response layer: `(op, project digest, options fingerprint)` →
    /// serialized response body.
    responses: BTreeMap<(String, u64, u64), String>,
}

/// What one [`HintStore::invalidate`] call evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Invalidated {
    /// Cached module parses dropped.
    pub modules: usize,
    /// Hint-layer entries dropped.
    pub hints: usize,
    /// Response-layer entries dropped.
    pub responses: usize,
}

impl Invalidated {
    /// The eviction summary the `invalidate` response carries.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("modules", self.modules.to_json()),
            ("hints", self.hints.to_json()),
            ("responses", self.responses.to_json()),
        ])
    }
}

/// The daemon's cache: parse, hint and response layers for any number of
/// projects, all keyed under one digest seed. See the module docs for
/// the layer-by-layer design.
pub struct HintStore {
    seed: u64,
    projects: BTreeMap<String, ProjectCache>,
    stats: StoreStats,
}

/// Snapshot format version; bump on any incompatible change.
const SNAPSHOT_VERSION: f64 = 1.0;

impl HintStore {
    /// An empty store whose digests are seeded with `seed`.
    pub fn new(seed: u64) -> HintStore {
        HintStore {
            seed,
            projects: BTreeMap::new(),
            stats: StoreStats::default(),
        }
    }

    /// The digest seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Digest of the complete request-relevant project content: its
    /// canonical JSON form covers the name, entry points, every file's
    /// path and source, and vulnerability annotations.
    pub fn project_digest(&self, project: &Project) -> u64 {
        fnv64(self.seed, project.to_json().to_string().as_bytes())
    }

    /// Parses a project through the parse layer: unchanged files at
    /// unchanged node-id offsets are spliced from cache, the rest run
    /// the parser. The result is identical to a cold
    /// [`aji_parser::parse_project`] of the same sources.
    ///
    /// # Errors
    ///
    /// The first parse error, tagged with the offending file's path. The
    /// previously cached entries are left as they were (they remain
    /// digest-validated).
    pub fn parse(&mut self, project: &Project) -> Result<ParsedProject, ParseError> {
        let seed = self.seed;
        let cache = self.projects.entry(project.name.clone()).or_default();
        let source_map = project.source_map();
        let mut ids = NodeIdGen::new();
        let mut modules = Vec::with_capacity(project.files.len());
        let mut entries: Vec<Option<FileEntry>> = Vec::with_capacity(project.files.len());
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, file) in project.files.iter().enumerate() {
            let digest = fnv64(seed, file.src.as_bytes());
            let id_start = ids.count();
            let cached = cache
                .files
                .get(i)
                .and_then(Option::as_ref)
                .filter(|e| e.digest == digest && e.id_start == id_start)
                .cloned();
            match cached {
                Some(e) => {
                    ids = NodeIdGen::starting_at(e.id_end);
                    modules.push(e.module.clone());
                    entries.push(Some(e));
                    hits += 1;
                }
                None => {
                    let module = parse_module(&file.src, FileId(i as u32), &mut ids)
                        .map_err(|e| e.with_path(file.path.clone()))?;
                    let module = Rc::new(module);
                    entries.push(Some(FileEntry {
                        digest,
                        id_start,
                        id_end: ids.count(),
                        module: Rc::clone(&module),
                    }));
                    modules.push(module);
                    misses += 1;
                }
            }
        }
        cache.files = entries;
        cache.paths = project.files.iter().map(|f| f.path.clone()).collect();
        self.stats.parse_hits += hits;
        self.stats.parse_misses += misses;
        aji_obs::counter_add("serve.store.parse_hits", hits);
        aji_obs::counter_add("serve.store.parse_misses", misses);
        Ok(ParsedProject {
            source_map,
            modules,
            ids,
        })
    }

    /// Hint-layer lookup (counts a hit or a miss).
    pub fn hints(&mut self, name: &str, digest: u64, approx_fp: u64) -> Option<(Hints, ApproxStats)> {
        let found = self
            .projects
            .get(name)
            .and_then(|c| c.hints.get(&(digest, approx_fp)))
            .cloned();
        if found.is_some() {
            self.stats.hint_hits += 1;
            aji_obs::counter_add("serve.store.hint_hits", 1);
        } else {
            self.stats.hint_misses += 1;
            aji_obs::counter_add("serve.store.hint_misses", 1);
        }
        found.map(|e| (e.hints, e.stats))
    }

    /// Stores an approximate-interpretation result.
    pub fn put_hints(
        &mut self,
        name: &str,
        digest: u64,
        approx_fp: u64,
        hints: Hints,
        stats: ApproxStats,
    ) {
        self.projects
            .entry(name.to_string())
            .or_default()
            .hints
            .insert((digest, approx_fp), HintEntry { hints, stats });
    }

    /// Response-layer lookup (counts a hit or a miss).
    pub fn response(&mut self, op: &str, name: &str, digest: u64, fp: u64) -> Option<String> {
        let found = self
            .projects
            .get(name)
            .and_then(|c| c.responses.get(&(op.to_string(), digest, fp)))
            .cloned();
        if found.is_some() {
            self.stats.response_hits += 1;
            aji_obs::counter_add("serve.store.response_hits", 1);
        } else {
            self.stats.response_misses += 1;
            aji_obs::counter_add("serve.store.response_misses", 1);
        }
        found
    }

    /// Stores a serialized response body.
    pub fn put_response(&mut self, op: &str, name: &str, digest: u64, fp: u64, body: String) {
        self.projects
            .entry(name.to_string())
            .or_default()
            .responses
            .insert((op.to_string(), digest, fp), body);
    }

    /// Evicts cached state for `name`.
    ///
    /// With `path: None` the project's entire cache is dropped. With a
    /// path, the parse layer drops that module's entry only, while the
    /// derived layers (hints, responses) drop entirely: they aggregate
    /// whole-project results. No other parse entry can go stale, because
    /// each one is reused only under its own source digest and node-id
    /// offset (see the module docs).
    ///
    /// Evicting an unknown project is a no-op (nothing cached means
    /// nothing stale); naming a path that was not a module of a *known*
    /// project at its last parse is an error, since that is almost
    /// certainly a typo.
    ///
    /// # Errors
    ///
    /// The unknown path, when one is given for a cached project.
    pub fn invalidate(&mut self, name: &str, path: Option<&str>) -> Result<Invalidated, String> {
        let out = match (self.projects.get_mut(name), path) {
            (None, _) => return Ok(Invalidated::default()),
            (Some(_), None) => {
                let cache = self.projects.remove(name).expect("present above");
                Invalidated {
                    modules: cache.files.iter().flatten().count(),
                    hints: cache.hints.len(),
                    responses: cache.responses.len(),
                }
            }
            (Some(cache), Some(p)) => {
                let Some(i) = cache.paths.iter().position(|q| q == p) else {
                    return Err(format!("'{p}' is not a module of project '{name}'"));
                };
                let modules = usize::from(cache.files.get_mut(i).and_then(Option::take).is_some());
                let hints = cache.hints.len();
                cache.hints.clear();
                let responses = cache.responses.len();
                cache.responses.clear();
                Invalidated {
                    modules,
                    hints,
                    responses,
                }
            }
        };
        self.stats.invalidations += 1;
        aji_obs::counter_add("serve.store.invalidations", 1);
        Ok(out)
    }

    /// Entry counts per layer, for the `stats` response:
    /// `(projects, cached modules, hint entries, response entries)`.
    pub fn sizes(&self) -> (usize, usize, usize, usize) {
        let mut modules = 0;
        let mut hints = 0;
        let mut responses = 0;
        for c in self.projects.values() {
            modules += c.files.iter().flatten().count();
            hints += c.hints.len();
            responses += c.responses.len();
        }
        (self.projects.len(), modules, hints, responses)
    }

    /// The persistent layers (hints, responses) as a deterministic JSON
    /// snapshot. The parse layer is not persisted: modules are cheap to
    /// re-derive and not `Send`/serializable by design.
    pub fn snapshot(&self) -> Json {
        let mut projects = Vec::new();
        for (name, cache) in &self.projects {
            if cache.hints.is_empty() && cache.responses.is_empty() {
                continue;
            }
            let hints: Vec<Json> = cache
                .hints
                .iter()
                .map(|((digest, fp), e)| {
                    Json::obj(vec![
                        ("digest", Json::Str(hex(*digest))),
                        ("fingerprint", Json::Str(hex(*fp))),
                        (
                            "stats",
                            Json::obj(vec![
                                ("functions_total", e.stats.functions_total.to_json()),
                                ("functions_visited", e.stats.functions_visited.to_json()),
                                ("items_processed", e.stats.items_processed.to_json()),
                                ("items_aborted", e.stats.items_aborted.to_json()),
                                ("total_steps", e.stats.total_steps.to_json()),
                            ]),
                        ),
                        ("hints", e.hints.to_json()),
                    ])
                })
                .collect();
            let responses: Vec<Json> = cache
                .responses
                .iter()
                .map(|((op, digest, fp), body)| {
                    Json::obj(vec![
                        ("op", Json::Str(op.clone())),
                        ("digest", Json::Str(hex(*digest))),
                        ("fingerprint", Json::Str(hex(*fp))),
                        ("body", Json::Str(body.clone())),
                    ])
                })
                .collect();
            projects.push(Json::obj(vec![
                ("name", Json::Str(name.clone())),
                ("hints", Json::Arr(hints)),
                ("responses", Json::Arr(responses)),
            ]));
        }
        Json::obj(vec![
            ("version", Json::Num(SNAPSHOT_VERSION)),
            ("seed", Json::Str(hex(self.seed))),
            ("projects", Json::Arr(projects)),
        ])
    }

    /// Loads a snapshot produced by [`HintStore::snapshot`] into this
    /// store, returning the number of entries restored.
    ///
    /// # Errors
    ///
    /// A description of the first shape problem — wrong version, seed
    /// mismatch (snapshots are not portable between key spaces), or a
    /// malformed entry. Entries loaded before the error remain.
    pub fn load_snapshot(&mut self, doc: &Json) -> Result<usize, String> {
        let version = doc
            .get("version")
            .and_then(Json::as_f64)
            .ok_or("snapshot has no version")?;
        if version != SNAPSHOT_VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let seed = doc
            .get("seed")
            .and_then(Json::as_str)
            .and_then(from_hex)
            .ok_or("snapshot has no seed")?;
        if seed != self.seed {
            return Err(format!(
                "snapshot seed {} does not match store seed {}",
                hex(seed),
                hex(self.seed)
            ));
        }
        let projects = doc
            .get("projects")
            .and_then(Json::as_arr)
            .ok_or("snapshot has no projects")?;
        let mut loaded = 0;
        for p in projects {
            let name = p
                .get("name")
                .and_then(Json::as_str)
                .ok_or("snapshot project has no name")?;
            let key = |e: &Json| -> Result<(u64, u64), String> {
                let digest = e
                    .get("digest")
                    .and_then(Json::as_str)
                    .and_then(from_hex)
                    .ok_or("entry has no digest")?;
                let fp = e
                    .get("fingerprint")
                    .and_then(Json::as_str)
                    .and_then(from_hex)
                    .ok_or("entry has no fingerprint")?;
                Ok((digest, fp))
            };
            for e in p.get("hints").and_then(Json::as_arr).unwrap_or(&[]) {
                let (digest, fp) = key(e)?;
                let hints = Hints::from_json(e.get("hints").ok_or("hint entry has no hints")?)
                    .map_err(|err| format!("bad hint set: {err}"))?;
                let s = e.get("stats").ok_or("hint entry has no stats")?;
                let field = |k: &str| -> Result<usize, String> {
                    s.get(k)
                        .and_then(Json::as_f64)
                        .map(|n| n as usize)
                        .ok_or_else(|| format!("hint stats missing '{k}'"))
                };
                let stats = ApproxStats {
                    functions_total: field("functions_total")?,
                    functions_visited: field("functions_visited")?,
                    items_processed: field("items_processed")?,
                    items_aborted: field("items_aborted")?,
                    total_steps: field("total_steps")? as u64,
                };
                self.put_hints(name, digest, fp, hints, stats);
                loaded += 1;
            }
            for e in p.get("responses").and_then(Json::as_arr).unwrap_or(&[]) {
                let (digest, fp) = key(e)?;
                let op = e
                    .get("op")
                    .and_then(Json::as_str)
                    .ok_or("response entry has no op")?;
                let body = e
                    .get("body")
                    .and_then(Json::as_str)
                    .ok_or("response entry has no body")?;
                self.put_response(op, name, digest, fp, body.to_string());
                loaded += 1;
            }
        }
        Ok(loaded)
    }

    /// Writes the snapshot atomically (`<path>.tmp`, then rename).
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            let mut text = self.snapshot().to_string();
            text.push('\n');
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Creates a store seeded with `seed` and, if `path` exists, loads
    /// its snapshot. A missing file yields an empty store; an unreadable
    /// or mismatched snapshot is reported on stderr and ignored (the
    /// daemon starts cold rather than refusing to start).
    pub fn open(path: &Path, seed: u64) -> HintStore {
        let mut store = HintStore::new(seed);
        match std::fs::read_to_string(path) {
            Err(_) => store,
            Ok(text) => {
                let outcome = Json::parse(&text)
                    .map_err(|e| format!("unparseable snapshot: {e}"))
                    .and_then(|doc| store.load_snapshot(&doc));
                match outcome {
                    Ok(n) => {
                        eprintln!("aji-serve: loaded {n} entries from {}", path.display());
                        store
                    }
                    Err(e) => {
                        eprintln!(
                            "aji-serve: ignoring snapshot {}: {e}",
                            path.display()
                        );
                        HintStore::new(seed)
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::ProjectFile;

    fn project(name: &str, files: &[(&str, &str)]) -> Project {
        Project {
            name: name.into(),
            files: files
                .iter()
                .map(|(p, s)| ProjectFile {
                    path: (*p).to_string(),
                    src: (*s).to_string(),
                })
                .collect(),
            main: files[0].0.to_string(),
            test_driver: None,
            vulns: Vec::new(),
        }
    }

    /// Render a parse in a comparable form: per-module debug output plus
    /// final id count. Rc identity differs; structure must not.
    fn fingerprint_parse(p: &ParsedProject) -> String {
        format!("{:?} ids={}", p.modules, p.ids.count())
    }

    #[test]
    fn incremental_parse_matches_cold_parse() {
        let proj = project(
            "p",
            &[
                ("main.js", "var a = require('./a'); a.f();"),
                ("a.js", "module.exports = { f: function() { return 1; } };"),
            ],
        );
        let cold = aji_parser::parse_project(&proj).unwrap();
        let mut store = HintStore::new(7);
        let first = store.parse(&proj).unwrap();
        assert_eq!(fingerprint_parse(&first), fingerprint_parse(&cold));
        assert_eq!(store.stats().parse_misses, 2);

        // Second parse: all hits, still identical to cold.
        let second = store.parse(&proj).unwrap();
        assert_eq!(fingerprint_parse(&second), fingerprint_parse(&cold));
        assert_eq!(store.stats().parse_hits, 2);
    }

    #[test]
    fn edits_reparse_only_the_suffix_with_changed_offsets() {
        let mut proj = project(
            "p",
            &[
                ("a.js", "var x = 1;"),
                ("b.js", "var y = 2;"),
                ("c.js", "var z = 3;"),
            ],
        );
        let mut store = HintStore::new(0);
        store.parse(&proj).unwrap();

        // Same-shape edit to b.js: a.js hits; b.js re-parses; c.js's
        // offset is unchanged (same node count in b.js) so it hits too.
        proj.files[1].src = "var y = 9;".into();
        let cold = aji_parser::parse_project(&proj).unwrap();
        let incr = store.parse(&proj).unwrap();
        assert_eq!(fingerprint_parse(&incr), fingerprint_parse(&cold));
        assert_eq!(store.stats().parse_hits, 2, "a.js and c.js reused");
        assert_eq!(store.stats().parse_misses, 4, "3 cold + b.js");

        // Node-count-changing edit to a.js shifts every later offset:
        // nothing after a.js may be reused.
        proj.files[0].src = "var x = 1; var w = x + 1;".into();
        let cold = aji_parser::parse_project(&proj).unwrap();
        let incr = store.parse(&proj).unwrap();
        assert_eq!(fingerprint_parse(&incr), fingerprint_parse(&cold));
        assert_eq!(store.stats().parse_hits, 2, "no further hits");
    }

    #[test]
    fn digest_covers_metadata_not_just_sources() {
        let store = HintStore::new(0);
        let a = project("p", &[("m.js", "var x = 1;")]);
        let mut b = a.clone();
        b.test_driver = Some("m.js".into());
        assert_ne!(store.project_digest(&a), store.project_digest(&b));
        let mut c = a.clone();
        c.vulns.push(aji_ast::VulnSpec {
            id: "CVE-1".into(),
            path: "m.js".into(),
            function: "f".into(),
        });
        assert_ne!(store.project_digest(&a), store.project_digest(&c));
    }

    #[test]
    fn seeds_separate_stores() {
        let p = project("p", &[("m.js", "var x = 1;")]);
        assert_ne!(
            HintStore::new(1).project_digest(&p),
            HintStore::new(2).project_digest(&p)
        );
    }

    #[test]
    fn response_layer_roundtrips_and_counts() {
        let mut store = HintStore::new(0);
        assert_eq!(store.response("analyze", "p", 1, 2), None);
        store.put_response("analyze", "p", 1, 2, "{\"x\":1}".into());
        assert_eq!(store.response("analyze", "p", 1, 2).as_deref(), Some("{\"x\":1}"));
        // Different op, digest or fingerprint: distinct entries.
        assert_eq!(store.response("oracle", "p", 1, 2), None);
        assert_eq!(store.response("analyze", "p", 9, 2), None);
        assert_eq!(store.response("analyze", "p", 1, 9), None);
        let s = store.stats();
        assert_eq!((s.response_hits, s.response_misses), (1, 4));
    }

    #[test]
    fn invalidate_whole_project_drops_everything() {
        let proj = project("p", &[("m.js", "var x = 1;")]);
        let mut store = HintStore::new(0);
        store.parse(&proj).unwrap();
        store.put_response("analyze", "p", 1, 2, "r".into());
        store.put_hints("p", 1, 2, Hints::new(), ApproxStats::default());
        let out = store.invalidate("p", None).unwrap();
        assert_eq!((out.modules, out.hints, out.responses), (1, 1, 1));
        assert_eq!(store.sizes(), (0, 0, 0, 0));
        // Unknown project: clean no-op.
        let out = store.invalidate("p", None).unwrap();
        assert_eq!(out, Invalidated::default());
    }

    #[test]
    fn invalidate_path_evicts_only_that_file() {
        let proj = project(
            "p",
            &[
                ("main.js", "var m = require('./mid');"),
                ("mid.js", "var l = require('./leaf'); module.exports = l;"),
                ("leaf.js", "module.exports = 1;"),
            ],
        );
        let mut store = HintStore::new(0);
        store.parse(&proj).unwrap();
        store.put_response("analyze", "p", 1, 2, "r".into());
        store.put_hints("p", 1, 2, Hints::new(), ApproxStats::default());
        let out = store.invalidate("p", Some("leaf.js")).unwrap();
        assert_eq!((out.modules, out.hints, out.responses), (1, 1, 1));
        let (_, modules, _, _) = store.sizes();
        assert_eq!(modules, 2, "main and mid survive");
        let out = store.invalidate("p", Some("nope.js"));
        assert!(out.is_err(), "unknown module is a typo, not a no-op");

        // The importers of leaf.js are still valid: the next parse of the
        // unchanged sources hits on main.js and mid.js and re-parses leaf.js.
        let cold = aji_parser::parse_project(&proj).unwrap();
        let again = store.parse(&proj).unwrap();
        assert_eq!(fingerprint_parse(&again), fingerprint_parse(&cold));
        let s = store.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (2, 4));

        // An evicted path is still a module of the project.
        store.invalidate("p", Some("leaf.js")).unwrap();
        let out = store.invalidate("p", Some("leaf.js")).unwrap();
        assert_eq!(out.modules, 0);
    }

    #[test]
    fn snapshot_roundtrips_and_is_deterministic() {
        let mut store = HintStore::new(3);
        let mut hints = Hints::new();
        hints.add_read(
            aji_ast::Loc::new(FileId(0), 1, 5),
            aji_ast::Loc::new(FileId(0), 2, 7),
        );
        store.put_hints(
            "p",
            10,
            20,
            hints.clone(),
            ApproxStats {
                functions_total: 4,
                functions_visited: 3,
                items_processed: 9,
                items_aborted: 1,
                total_steps: 1234,
            },
        );
        store.put_response("analyze", "p", 10, 30, "{\"name\":\"p\"}".into());
        store.put_response("oracle", "q", 11, 31, "{\"name\":\"q\"}".into());

        let snap = store.snapshot().to_string();
        assert_eq!(snap, store.snapshot().to_string(), "stable rendering");

        let mut back = HintStore::new(3);
        let n = back
            .load_snapshot(&Json::parse(&snap).unwrap())
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(back.snapshot().to_string(), snap, "lossless round trip");
        let (h, s) = back.hints("p", 10, 20).unwrap();
        assert_eq!(h, hints);
        assert_eq!(s.total_steps, 1234);
        assert_eq!(
            back.response("analyze", "p", 10, 30).as_deref(),
            Some("{\"name\":\"p\"}")
        );
    }

    #[test]
    fn snapshot_rejects_wrong_seed_and_version() {
        let mut store = HintStore::new(3);
        store.put_response("analyze", "p", 1, 2, "r".into());
        let snap = store.snapshot();
        let mut other = HintStore::new(4);
        assert!(other.load_snapshot(&snap).is_err(), "seed mismatch");
        let future = Json::obj(vec![
            ("version", Json::Num(99.0)),
            ("seed", Json::Str(hex(3))),
            ("projects", Json::Arr(Vec::new())),
        ]);
        assert!(HintStore::new(3).load_snapshot(&future).is_err());
    }

    #[test]
    fn save_and_open_roundtrip_via_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("aji-store-test-{}.json", std::process::id()));
        let mut store = HintStore::new(5);
        store.put_response("analyze", "p", 1, 2, "body".into());
        store.save_to(&path).unwrap();
        let mut back = HintStore::open(&path, 5);
        assert_eq!(back.response("analyze", "p", 1, 2).as_deref(), Some("body"));
        // Wrong seed: starts cold instead of mixing key spaces.
        let mut cold = HintStore::open(&path, 6);
        assert_eq!(cold.response("analyze", "p", 1, 2), None);
        // Missing file: empty store.
        let missing = HintStore::open(&dir.join("aji-store-missing.json"), 5);
        assert_eq!(missing.sizes(), (0, 0, 0, 0));
        let _ = std::fs::remove_file(&path);
    }
}
