//! In-memory Node.js-style project model.
//!
//! The analyses in this workspace are whole-program analyses over a virtual
//! file tree: application modules at the top level and dependencies under
//! `node_modules/<package>/`, mirroring how the paper's benchmarks are laid
//! out on disk. A [`Project`] owns the file contents and the metadata the
//! experiments need (main module, test driver, vulnerability annotations).

use aji_support::Json;
use crate::source::SourceMap;
use std::collections::BTreeSet;

/// One file of a [`Project`].
#[derive(Debug, Clone)]
pub struct ProjectFile {
    /// Virtual path, e.g. `lib/app.js` or `node_modules/mixin/index.js`.
    pub path: String,
    /// File contents.
    pub src: String,
}

/// Annotation marking a function in a dependency as having a known
/// vulnerability.
///
/// This stands in for the CVE database the paper uses in its §5 reachability
/// study: the experiment counts how many annotated functions are reachable
/// in the computed call graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VulnSpec {
    /// Identifier of the vulnerability, e.g. `CVE-SYN-0001`.
    pub id: String,
    /// Path of the file containing the vulnerable function.
    pub path: String,
    /// Name of the vulnerable function (must be a named function in that
    /// file).
    pub function: String,
}

/// An in-memory JavaScript project: virtual files plus experiment metadata.
#[derive(Debug, Clone)]
pub struct Project {
    /// Project name (used in benchmark tables).
    pub name: String,
    /// All files, in insertion order.
    pub files: Vec<ProjectFile>,
    /// Path of the main (entry) module.
    pub main: String,
    /// Path of the test-driver module used to produce dynamic call graphs,
    /// if the project ships one.
    pub test_driver: Option<String>,
    /// Known-vulnerability annotations for the §5 reachability study.
    pub vulns: Vec<VulnSpec>,
}

impl Project {
    /// Creates an empty project whose main module is `index.js`.
    pub fn new(name: impl Into<String>) -> Self {
        Project {
            name: name.into(),
            files: Vec::new(),
            main: "index.js".to_string(),
            test_driver: None,
            vulns: Vec::new(),
        }
    }

    /// Adds a file. Paths are `/`-separated and relative to the project
    /// root; dependency files live under `node_modules/<pkg>/`.
    pub fn add_file(&mut self, path: impl Into<String>, src: impl Into<String>) -> &mut Self {
        self.files.push(ProjectFile {
            path: path.into(),
            src: src.into(),
        });
        self
    }

    /// Sets the main (entry) module path.
    pub fn with_main(mut self, path: impl Into<String>) -> Self {
        self.main = path.into();
        self
    }

    /// Sets the test-driver module path.
    pub fn with_test_driver(mut self, path: impl Into<String>) -> Self {
        self.test_driver = Some(path.into());
        self
    }

    /// Registers a vulnerability annotation.
    pub fn add_vuln(
        &mut self,
        id: impl Into<String>,
        path: impl Into<String>,
        function: impl Into<String>,
    ) -> &mut Self {
        self.vulns.push(VulnSpec {
            id: id.into(),
            path: path.into(),
            function: function.into(),
        });
        self
    }

    /// Looks up a file by exact path.
    pub fn file(&self, path: &str) -> Option<&ProjectFile> {
        self.files.iter().find(|f| f.path == path)
    }

    /// Whether a path belongs to the main package (i.e. is not inside
    /// `node_modules`). The paper measures function reachability from the
    /// module functions of the main package.
    pub fn is_main_package_path(path: &str) -> bool {
        !path.starts_with("node_modules/") && !path.contains("/node_modules/")
    }

    /// Names of all packages: the main package plus every directly vendored
    /// `node_modules` package (nested `node_modules` count too, matching
    /// how npm trees are counted in the paper's Table 1).
    pub fn package_names(&self) -> BTreeSet<String> {
        let mut pkgs = BTreeSet::new();
        pkgs.insert(self.name.clone());
        for f in &self.files {
            let mut rest = f.path.as_str();
            while let Some(idx) = rest.find("node_modules/") {
                let after = &rest[idx + "node_modules/".len()..];
                let pkg = match after.find('/') {
                    Some(end) => &after[..end],
                    None => after,
                };
                if !pkg.is_empty() {
                    pkgs.insert(pkg.to_string());
                }
                rest = after;
            }
        }
        pkgs
    }

    /// Number of packages (main + dependencies).
    pub fn package_count(&self) -> usize {
        self.package_names().len()
    }

    /// Number of modules (files).
    pub fn module_count(&self) -> usize {
        self.files.len()
    }

    /// Total code size in bytes.
    pub fn code_size_bytes(&self) -> usize {
        self.files.iter().map(|f| f.src.len()).sum()
    }

    /// Builds a [`SourceMap`] over the project's files, preserving file
    /// order so that `FileId`s are stable for a given project.
    pub fn source_map(&self) -> SourceMap {
        let mut sm = SourceMap::new();
        for f in &self.files {
            sm.add_file(f.path.clone(), f.src.clone());
        }
        sm
    }

    /// Paths of all main-package modules, in file order.
    pub fn main_package_paths(&self) -> Vec<&str> {
        self.files
            .iter()
            .map(|f| f.path.as_str())
            .filter(|p| Self::is_main_package_path(p))
            .collect()
    }

    /// Serializes the whole project — name, entry points, files with
    /// their sources, vulnerability annotations — as a JSON value.
    ///
    /// This is the over-the-wire representation `aji serve` clients send
    /// with an `analyze`/`oracle` request (see DAEMON.md); file order is
    /// preserved, so [`Project::from_json`] reconstructs a project whose
    /// `FileId`s (and therefore every analysis result) match the
    /// original's exactly.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("name", Json::Str(self.name.clone())),
            ("main", Json::Str(self.main.clone())),
        ];
        if let Some(driver) = &self.test_driver {
            pairs.push(("test_driver", Json::Str(driver.clone())));
        }
        pairs.push((
            "files",
            Json::Arr(
                self.files
                    .iter()
                    .map(|f| {
                        Json::obj(vec![
                            ("path", Json::Str(f.path.clone())),
                            ("src", Json::Str(f.src.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !self.vulns.is_empty() {
            pairs.push((
                "vulns",
                Json::Arr(
                    self.vulns
                        .iter()
                        .map(|v| {
                            Json::obj(vec![
                                ("id", Json::Str(v.id.clone())),
                                ("path", Json::Str(v.path.clone())),
                                ("function", Json::Str(v.function.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        Json::obj(pairs)
    }

    /// Reconstructs a project from [`Project::to_json`]'s representation.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the missing or mistyped
    /// field when the document does not describe a project.
    pub fn from_json(doc: &Json) -> Result<Project, String> {
        let str_field = |d: &Json, key: &str| -> Result<String, String> {
            d.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("project JSON lacks string field \"{key}\""))
        };
        let mut project = Project::new(str_field(doc, "name")?);
        project.main = str_field(doc, "main")?;
        project.test_driver = doc
            .get("test_driver")
            .and_then(Json::as_str)
            .map(str::to_string);
        let files = doc
            .get("files")
            .and_then(Json::as_arr)
            .ok_or("project JSON lacks array field \"files\"")?;
        for f in files {
            project.add_file(str_field(f, "path")?, str_field(f, "src")?);
        }
        if let Some(vulns) = doc.get("vulns").and_then(Json::as_arr) {
            for v in vulns {
                project.add_vuln(
                    str_field(v, "id")?,
                    str_field(v, "path")?,
                    str_field(v, "function")?,
                );
            }
        }
        Ok(project)
    }
}

/// Resolves the `require` specifier `spec`, written in the file
/// `paths[from]`, to the index of the project file it loads. This is the
/// one module-resolution policy that the interpreter and the points-to
/// analysis share, so both sides of a call-graph comparison agree on
/// which file a `require` names:
///
/// - `./` and `../` specifiers are relative to the requiring file's
///   directory, and a leading `/` names the project root;
/// - each candidate is tried as written, then with `.js`, `/index.js`
///   and `.json` appended;
/// - any other specifier is a package name, looked up in `node_modules`
///   from the requiring file's directory up to the root.
///
/// Core modules, files outside the project and an out-of-range `from`
/// resolve to `None`.
pub fn resolve_module(paths: &[String], from: usize, spec: &str) -> Option<usize> {
    let find = |base: &str| {
        ["", ".js", "/index.js", ".json"]
            .iter()
            .find_map(|suffix| paths.iter().position(|p| p.strip_prefix(base) == Some(*suffix)))
    };
    let mut dir = parent_dir(paths.get(from)?);
    if let Some(rooted) = spec.strip_prefix('/') {
        return find(&normalize(rooted));
    }
    if spec.starts_with("./") || spec.starts_with("../") {
        return find(&normalize(&format!("{dir}/{spec}")));
    }
    loop {
        let candidate = if dir.is_empty() {
            format!("node_modules/{spec}")
        } else {
            format!("{dir}/node_modules/{spec}")
        };
        if let Some(i) = find(&candidate) {
            return Some(i);
        }
        if dir.is_empty() {
            return None;
        }
        dir = parent_dir(dir);
    }
}

/// Directory part of a `/`-separated path (empty for top-level files).
fn parent_dir(path: &str) -> &str {
    path.rsplit_once('/').map_or("", |(dir, _)| dir)
}

/// Drops empty and `.` segments and lets `..` pop one (never above the
/// root).
fn normalize(path: &str) -> String {
    let mut out: Vec<&str> = Vec::new();
    for seg in path.split('/') {
        match seg {
            "" | "." => {}
            ".." => {
                out.pop();
            }
            s => out.push(s),
        }
    }
    out.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Project {
        let mut p = Project::new("myapp");
        p.add_file("index.js", "var a = require('dep');");
        p.add_file("lib/util.js", "module.exports = {};");
        p.add_file("node_modules/dep/index.js", "module.exports = 1;");
        p.add_file(
            "node_modules/dep/node_modules/inner/index.js",
            "module.exports = 2;",
        );
        p
    }

    #[test]
    fn package_counting() {
        let p = sample();
        let pkgs = p.package_names();
        assert!(pkgs.contains("myapp"));
        assert!(pkgs.contains("dep"));
        assert!(pkgs.contains("inner"));
        assert_eq!(p.package_count(), 3);
    }

    #[test]
    fn main_package_detection() {
        assert!(Project::is_main_package_path("index.js"));
        assert!(Project::is_main_package_path("lib/a.js"));
        assert!(!Project::is_main_package_path("node_modules/x/index.js"));
        assert!(!Project::is_main_package_path(
            "pkg/node_modules/x/index.js"
        ));
    }

    #[test]
    fn main_package_paths_in_order() {
        let p = sample();
        assert_eq!(p.main_package_paths(), vec!["index.js", "lib/util.js"]);
    }

    #[test]
    fn source_map_matches_files() {
        let p = sample();
        let sm = p.source_map();
        assert_eq!(sm.len(), 4);
        assert_eq!(sm.file(sm.find("lib/util.js").unwrap()).path, "lib/util.js");
    }

    #[test]
    fn code_size_and_counts() {
        let p = sample();
        assert_eq!(p.module_count(), 4);
        assert!(p.code_size_bytes() > 0);
        assert!(p.file("index.js").is_some());
        assert!(p.file("nope.js").is_none());
    }

    #[test]
    fn project_json_roundtrips() {
        let mut p = sample();
        p.test_driver = Some("index.js".to_string());
        p.add_vuln("CVE-SYN-1", "node_modules/dep/index.js", "evil");
        let doc = p.to_json();
        let back = Project::from_json(&doc).unwrap();
        assert_eq!(back.name, p.name);
        assert_eq!(back.main, p.main);
        assert_eq!(back.test_driver, p.test_driver);
        assert_eq!(back.files.len(), p.files.len());
        for (a, b) in back.files.iter().zip(&p.files) {
            assert_eq!((a.path.as_str(), a.src.as_str()), (b.path.as_str(), b.src.as_str()));
        }
        assert_eq!(back.vulns, p.vulns);
        // Re-serialization is byte-identical (the wire format is stable).
        assert_eq!(back.to_json().to_string(), doc.to_string());
        // Errors name the offending field.
        let err = Project::from_json(&Json::obj(vec![])).unwrap_err();
        assert!(err.contains("name"), "{err}");
    }

    fn paths(list: &[&str]) -> Vec<String> {
        list.iter().map(|p| (*p).to_string()).collect()
    }

    #[test]
    fn resolves_relative_package_and_missing_specifiers() {
        let paths = paths(&["index.js", "lib/util.js", "node_modules/dep/index.js"]);
        assert_eq!(resolve_module(&paths, 0, "./lib/util"), Some(1));
        assert_eq!(resolve_module(&paths, 1, "../index.js"), Some(0));
        assert_eq!(resolve_module(&paths, 0, "dep"), Some(2));
        assert_eq!(resolve_module(&paths, 0, "missing"), None);
        assert_eq!(resolve_module(&paths, 0, "./missing"), None);
        // Core modules are not project files.
        assert_eq!(resolve_module(&paths, 0, "fs"), None);
    }

    #[test]
    fn normalizes_dot_segments() {
        let paths = paths(&["a/b/c.js", "a/c.js", "x.js", "a/b/d.js"]);
        assert_eq!(resolve_module(&paths, 0, "./d"), Some(3));
        assert_eq!(resolve_module(&paths, 0, "././d.js"), Some(3));
        assert_eq!(resolve_module(&paths, 0, "../c"), Some(1));
        assert_eq!(resolve_module(&paths, 0, "./../b/./c"), Some(0));
        // `..` never climbs above the project root.
        assert_eq!(resolve_module(&paths, 1, "../../x.js"), Some(2));
        assert_eq!(resolve_module(&paths, 2, "./x"), Some(2));
    }

    #[test]
    fn suffixes_are_tried_in_node_order() {
        // As written first, then `.js`, then `/index.js`, then `.json`.
        let all = paths(&["main.js", "m.json", "m/index.js", "m.js", "m"]);
        assert_eq!(resolve_module(&all, 0, "./m"), Some(4));
        assert_eq!(resolve_module(&all[..4], 0, "./m"), Some(3));
        assert_eq!(resolve_module(&all[..3], 0, "./m"), Some(2));
        assert_eq!(resolve_module(&all[..2], 0, "./m"), Some(1));
        assert_eq!(resolve_module(&all[..1], 0, "./m"), None);
    }

    #[test]
    fn rooted_specifiers_name_the_project_root() {
        let paths = paths(&["index.js", "a/b.js", "lib/x.js", "a/lib/x.js"]);
        // From a subdirectory, `/lib/x` is the root's lib/x.js, not a/lib/x.js.
        assert_eq!(resolve_module(&paths, 1, "/lib/x"), Some(2));
        assert_eq!(resolve_module(&paths, 0, "/lib/x.js"), Some(2));
        assert_eq!(resolve_module(&paths, 1, "/a/lib/x"), Some(3));
        assert_eq!(resolve_module(&paths, 1, "/nope"), None);
    }

    #[test]
    fn package_names_walk_up_through_node_modules() {
        let paths = paths(&[
            "index.js",
            "node_modules/dep/index.js",
            "node_modules/dep/lib/a.js",
            "node_modules/dep/node_modules/inner/index.js",
            "node_modules/inner/index.js",
        ]);
        // The nearest `node_modules` wins.
        assert_eq!(resolve_module(&paths, 2, "inner"), Some(3));
        assert_eq!(resolve_module(&paths, 0, "inner"), Some(4));
        // A file inside a package finds a sibling package at the root.
        assert_eq!(resolve_module(&paths, 3, "dep"), Some(1));
        assert_eq!(resolve_module(&paths, 0, "dep/lib/a"), Some(2));
    }

    #[test]
    fn out_of_range_from_is_none() {
        let paths = paths(&["index.js"]);
        assert_eq!(resolve_module(&paths, 1, "./index"), None);
        assert_eq!(resolve_module(&paths, usize::MAX, "dep"), None);
        assert_eq!(resolve_module(&[], 0, "/index"), None);
    }

    #[test]
    fn vuln_annotations() {
        let mut p = sample();
        p.add_vuln("CVE-SYN-1", "node_modules/dep/index.js", "evil");
        assert_eq!(p.vulns.len(), 1);
        assert_eq!(p.vulns[0].function, "evil");
    }
}
