//! Seeded synthetic-project generator.
//!
//! Composes the dynamic-object idioms of the hand-written patterns
//! (method tables built in loops, mixin copying, event registries,
//! dynamic dispatch) into Node.js-style projects of parameterized size,
//! so the experiment harness can reproduce the paper's 141-project
//! population deterministically.

use aji_ast::Project;
use aji_support::Rng;
use std::fmt::Write;

/// Parameters of one generated project.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Project name.
    pub name: String,
    /// RNG seed (projects are fully determined by their config).
    pub seed: u64,
    /// Number of `node_modules` libraries.
    pub libs: usize,
    /// API methods per library.
    pub methods_per_lib: usize,
    /// Fraction of methods installed via dynamic property writes.
    pub dynamic_fraction: f64,
    /// Number of application modules.
    pub app_modules: usize,
    /// API calls per application module.
    pub calls_per_module: usize,
    /// Whether libraries assemble their API through a mixin helper.
    pub use_mixin: bool,
    /// Whether libraries inherit from `EventEmitter`.
    pub use_emitter: bool,
    /// Fraction of application entry points exercised by the test driver.
    pub driver_coverage: f64,
    /// Number of synthetic vulnerability annotations placed in libraries.
    pub vulns: usize,
    /// Fraction of app modules that expose a *parameter-dependent*
    /// dispatch (`lib[name](...)` with the name coming from the caller).
    /// These defeat approximate interpretation — the key is the proxy
    /// during forced execution — and keep recall below 100%, like the
    /// hard cases in the paper's Table 2.
    pub hard_dispatch_fraction: f64,
    /// Extra methods per library installed through *computed-key* dynamic
    /// writes inside a counting loop (`api['cw' + i] = fn`). The key is a
    /// string-concatenation expression — opaque to the static subset
    /// analysis, concrete under forced execution — so these calls are
    /// recoverable only through the `H_W` write hints (\[DPW\]).
    pub computed_writes: usize,
    /// Extra methods per library installed through `Object.defineProperty`
    /// descriptors: one callable *data* descriptor per slot, plus a getter
    /// *accessor* descriptor over the library's state object. Descriptor
    /// installs record dynamic writes during forced execution, exercising
    /// the `H_W` hint path through the property-definition builtin.
    pub accessor_methods: usize,
    /// Number of property-access **typos** injected into the test driver:
    /// each one is a static read of a misspelled library method name
    /// (edit distance 1 from a real method, guaranteed absent from every
    /// library's API). The injected defects are recorded in the manifest
    /// [`generate_with_manifest`] returns, which grades the `aji-quant`
    /// statistical finder. Reads of absent properties yield `undefined`
    /// without crashing, so the driver's coverage is unchanged.
    pub typo_injections: usize,
}

impl GenConfig {
    /// A small default configuration.
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        GenConfig {
            name: name.into(),
            seed,
            libs: 2,
            methods_per_lib: 4,
            dynamic_fraction: 0.5,
            app_modules: 2,
            calls_per_module: 4,
            use_mixin: false,
            use_emitter: false,
            driver_coverage: 0.6,
            vulns: 1,
            hard_dispatch_fraction: 0.0,
            computed_writes: 0,
            accessor_methods: 0,
            typo_injections: 0,
        }
    }
}

/// One injected property-access defect: the ground truth the `aji-quant`
/// anomaly finder is graded against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedTypo {
    /// File containing the misspelled access (always the test driver).
    pub path: String,
    /// Library index whose API object receives the access.
    pub lib: usize,
    /// The misspelled property name actually read.
    pub prop: String,
    /// The real method name the typo was derived from (edit distance 1).
    pub original: String,
}

/// Emits the computed-key and descriptor-based install blocks onto the
/// receiver named `recv` (the shapes behind [`GenConfig::computed_writes`]
/// and [`GenConfig::accessor_methods`]).
fn emit_dynamic_installs(src: &mut String, cfg: &GenConfig, li: usize, recv: &str, indent: &str) {
    if cfg.computed_writes > 0 {
        let n = cfg.computed_writes;
        let _ = writeln!(
            src,
            "{indent}for (var ci{li} = 0; ci{li} < {n}; ci{li} = ci{li} + 1) {{"
        );
        let _ = writeln!(
            src,
            "{indent}  {recv}['cw' + ci{li}] = function lib{li}_cw(x) {{ return track{li}('cw') + x; }};"
        );
        let _ = writeln!(src, "{indent}}}");
    }
    for k in 0..cfg.accessor_methods {
        let _ = writeln!(src, "{indent}Object.defineProperty({recv}, 'ds{k}', {{");
        let _ = writeln!(
            src,
            "{indent}  value: function lib{li}_ds{k}(x) {{ return track{li}('ds{k}') + x; }},"
        );
        let _ = writeln!(src, "{indent}  enumerable: true");
        let _ = writeln!(src, "{indent}}});");
    }
    if cfg.accessor_methods > 0 {
        let _ = writeln!(src, "{indent}Object.defineProperty({recv}, 'snapshot', {{");
        let _ = writeln!(
            src,
            "{indent}  get: function() {{ return state{li}.calls; }}"
        );
        let _ = writeln!(src, "{indent}}});");
    }
}

/// Mutates `name` into an edit-distance-1 misspelling: drop, double, or
/// replace the last character.
fn mutate_name(rng: &mut Rng, name: &str) -> String {
    let chars: Vec<char> = name.chars().collect();
    let last = *chars.last().unwrap_or(&'x');
    match rng.random_range(0..3usize) {
        0 if chars.len() > 1 => chars[..chars.len() - 1].iter().collect(),
        1 => {
            let mut s = name.to_string();
            s.push(last);
            s
        }
        _ => {
            let repl = ['x', 'z', 'q', 'k'][rng.random_range(0..4usize)];
            let mut s: String = chars[..chars.len() - 1].iter().collect();
            s.push(if repl == last { 'w' } else { repl });
            s
        }
    }
}

/// Generates a project from a configuration. Identical configs produce
/// identical projects.
pub fn generate(cfg: &GenConfig) -> Project {
    generate_with_manifest(cfg).0
}

/// [`generate`] plus the typo manifest: the list of injected
/// property-access defects ([`GenConfig::typo_injections`]), empty when
/// the knob is 0. Injection draws from its own seed-derived RNG stream,
/// so enabling it never perturbs the rest of the project.
pub fn generate_with_manifest(cfg: &GenConfig) -> (Project, Vec<InjectedTypo>) {
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xA11CE);
    let mut p = Project::new(cfg.name.clone());
    p.test_driver = Some("test/driver.js".to_string());

    if cfg.use_mixin {
        p.add_file(
            "node_modules/mixlib/index.js",
            "module.exports = function mix(dest, src) {\n\
             \x20 Object.getOwnPropertyNames(src).forEach(function(name) {\n\
             \x20   var d = Object.getOwnPropertyDescriptor(src, name);\n\
             \x20   Object.defineProperty(dest, name, d);\n\
             \x20 });\n\
             \x20 return dest;\n\
             };\n",
        );
    }

    // Libraries.
    let mut lib_methods: Vec<Vec<(String, bool)>> = Vec::new(); // (method, dynamic?)
    for li in 0..cfg.libs {
        let mut src = String::new();
        let mut methods = Vec::new();
        let n_dynamic = ((cfg.methods_per_lib as f64) * cfg.dynamic_fraction).round() as usize;
        let emitter = cfg.use_emitter && li % 2 == 0;

        let mut dyn_names = Vec::new();
        for mi in 0..cfg.methods_per_lib {
            let name = format!("op{mi}");
            let dynamic = mi < n_dynamic;
            if dynamic {
                dyn_names.push(name.clone());
            }
            methods.push((name, dynamic));
        }

        if emitter {
            let _ = writeln!(src, "var EventEmitter = require('events');");
        }
        if cfg.use_mixin {
            let _ = writeln!(src, "var mix = require('mixlib');");
        }
        let _ = writeln!(
            src,
            "var DYN_{li} = [{}];",
            dyn_names
                .iter()
                .map(|n| format!("'{n}'"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(src, "var state{li} = {{ calls: 0 }};");
        let _ = writeln!(src, "function track{li}(tag) {{");
        let _ = writeln!(src, "  state{li}.calls = state{li}.calls + 1;");
        let _ = writeln!(src, "  return tag + ':' + state{li}.calls;");
        let _ = writeln!(src, "}}");
        // A factory whose inner function only exists on a branch that
        // forced execution cannot take (the guard fails on the proxy),
        // keeping pre-analysis coverage below 100%.
        let _ = writeln!(src, "function makeFormatter{li}(sep) {{");
        let _ = writeln!(src, "  if (typeof sep === 'string') {{");
        let _ = writeln!(src, "    return function hiddenFormatter{li}(parts) {{");
        let _ = writeln!(src, "      return parts.join(sep);");
        let _ = writeln!(src, "    }};");
        let _ = writeln!(src, "  }}");
        let _ = writeln!(src, "  return null;");
        let _ = writeln!(src, "}}");

        if cfg.use_mixin {
            // API assembled on a proto object, mixed into an exported
            // factory product (the webframe pattern).
            let _ = writeln!(src, "var proto{li} = {{}};");
            for (name, dynamic) in &methods {
                if !dynamic {
                    let _ = writeln!(
                        src,
                        "proto{li}.{name} = function lib{li}_{name}(x) {{ return track{li}('{name}') + x; }};"
                    );
                }
            }
            let _ = writeln!(src, "DYN_{li}.forEach(function(name) {{");
            let _ = writeln!(
                src,
                "  proto{li}[name] = function lib{li}_dyn(x) {{ return track{li}(name) + x; }};"
            );
            let _ = writeln!(src, "}});");
            let _ = writeln!(src, "module.exports = function create{li}() {{");
            let _ = writeln!(src, "  var api = function() {{ return state{li}; }};");
            if emitter {
                let _ = writeln!(src, "  mix(api, EventEmitter.prototype);");
            }
            let _ = writeln!(src, "  mix(api, proto{li});");
            emit_dynamic_installs(&mut src, cfg, li, "api", "  ");
            let _ = writeln!(src, "  return api;");
            let _ = writeln!(src, "}};");
        } else {
            let _ = writeln!(src, "var api{li} = {{}};");
            for (name, dynamic) in &methods {
                if !dynamic {
                    let _ = writeln!(
                        src,
                        "api{li}.{name} = function lib{li}_{name}(x) {{ return track{li}('{name}') + x; }};"
                    );
                }
            }
            let _ = writeln!(src, "DYN_{li}.forEach(function(name) {{");
            let _ = writeln!(
                src,
                "  api{li}[name] = function lib{li}_dyn(x) {{ return track{li}(name) + x; }};"
            );
            let _ = writeln!(src, "}});");
            emit_dynamic_installs(&mut src, cfg, li, &format!("api{li}"), "");
            if emitter {
                let _ = writeln!(src, "api{li}.events = new EventEmitter();");
            }
            let _ = writeln!(src, "module.exports = api{li};");
        }
        p.add_file(format!("node_modules/lib{li}/index.js"), src);
        // The dynamically-installed extras are callable API like any other
        // method, so app modules (and the hard dispatchers' drivers) pick
        // from them too. The `snapshot` accessor is read-only and stays
        // out of the callable table.
        for ci in 0..cfg.computed_writes {
            methods.push((format!("cw{ci}"), true));
        }
        for k in 0..cfg.accessor_methods {
            methods.push((format!("ds{k}"), true));
        }
        lib_methods.push(methods);
    }

    // Application modules.
    let mut entry_points: Vec<(usize, String)> = Vec::new();
    let mut dispatchers: Vec<(usize, usize)> = Vec::new();
    for ai in 0..cfg.app_modules {
        let mut src = String::new();
        // Each app module uses 1-3 libraries.
        let nlibs = 1 + rng.random_range(0..cfg.libs.min(3));
        let mut used = Vec::new();
        for _ in 0..nlibs {
            let li = rng.random_range(0..cfg.libs);
            if !used.contains(&li) {
                used.push(li);
            }
        }
        for li in &used {
            let _ = writeln!(src, "var lib{li} = require('lib{li}');");
            if cfg.use_mixin {
                let _ = writeln!(src, "var api{li} = lib{li}();");
            }
        }
        let _ = writeln!(src, "exports.run{ai} = function appRun{ai}() {{");
        let _ = writeln!(src, "  var out = [];");
        for _ in 0..cfg.calls_per_module {
            let li = used[rng.random_range(0..used.len())];
            let (m, _) = &lib_methods[li][rng.random_range(0..lib_methods[li].len())];
            let recv = if cfg.use_mixin {
                format!("api{li}")
            } else {
                format!("lib{li}")
            };
            let _ = writeln!(src, "  out.push({recv}.{m}('a{ai}'));");
        }
        if cfg.accessor_methods > 0 {
            // Read through the getter accessor (no call edge: accessor
            // dispatch is not a source-level call site).
            let li = used[0];
            let recv = if cfg.use_mixin {
                format!("api{li}")
            } else {
                format!("lib{li}")
            };
            let _ = writeln!(src, "  out.push({recv}.snapshot);");
        }
        let _ = writeln!(src, "  return out;");
        let _ = writeln!(src, "}};");
        // A helper that is only reachable through the module's entry.
        let _ = writeln!(src, "exports.describe{ai} = function describe{ai}() {{");
        let _ = writeln!(src, "  return 'module {ai}';");
        let _ = writeln!(src, "}};");
        // Hard case: a dispatch whose property key comes from the caller.
        let hard = (rng.random_range(0..1000) as f64) < cfg.hard_dispatch_fraction * 1000.0;
        if hard {
            let li = used[0];
            let recv = if cfg.use_mixin {
                format!("api{li}")
            } else {
                format!("lib{li}")
            };
            let _ = writeln!(
                src,
                "exports.dispatch{ai} = function dispatch{ai}(name, arg) {{"
            );
            let _ = writeln!(src, "  return {recv}[name](arg);");
            let _ = writeln!(src, "}};");
            dispatchers.push((ai, li));
        }
        p.add_file(format!("lib/mod{ai}.js"), src);
        entry_points.push((ai, format!("run{ai}")));
    }

    // Main module.
    let mut main = String::new();
    for (ai, _) in &entry_points {
        let _ = writeln!(main, "var mod{ai} = require('./lib/mod{ai}');");
    }
    let _ = writeln!(main, "exports.start = function start() {{");
    for (ai, entry) in &entry_points {
        let _ = writeln!(main, "  mod{ai}.{entry}();");
    }
    let _ = writeln!(main, "  return 'ok';");
    let _ = writeln!(main, "}};");
    // Run a couple of modules at load time, too.
    if let Some((ai, entry)) = entry_points.first() {
        let _ = writeln!(main, "mod{ai}.{entry}();");
    }
    p.add_file("index.js", main);

    // Test driver: exercises a fraction of the entry points.
    let mut driver = String::new();
    let _ = writeln!(driver, "var app = require('../index');");
    let covered = ((entry_points.len() as f64) * cfg.driver_coverage).ceil() as usize;
    for (ai, entry) in entry_points.iter().take(covered.max(1)) {
        let _ = writeln!(driver, "var m{ai} = require('../lib/mod{ai}');");
        let _ = writeln!(driver, "m{ai}.{entry}();");
    }
    // Exercise the hard dispatchers with concrete method names: the
    // dynamic call graph gets these edges, the hint-based analysis cannot.
    for (ai, li) in &dispatchers {
        let (m, _) = &lib_methods[*li][rng.random_range(0..lib_methods[*li].len())];
        let _ = writeln!(driver, "var d{ai} = require('../lib/mod{ai}');");
        let _ = writeln!(driver, "d{ai}.dispatch{ai}('{m}', 'probe');");
    }
    // Injected property-access typos (the finder's seeded ground truth).
    // Their own RNG stream keeps everything above byte-identical whether
    // the knob is 0 or not.
    let mut typos: Vec<InjectedTypo> = Vec::new();
    if cfg.typo_injections > 0 && cfg.libs > 0 {
        let mut trng = Rng::seed_from_u64(cfg.seed ^ 0x7AB0_5EED);
        for i in 0..cfg.typo_injections {
            let li = trng.random_range(0..cfg.libs);
            let (original, _) =
                lib_methods[li][trng.random_range(0..lib_methods[li].len())].clone();
            // Every library shares the same method-name space, so one
            // collision check covers them all.
            let taken = |name: &str| {
                lib_methods
                    .iter()
                    .any(|ms| ms.iter().any(|(m, _)| m == name))
                    || name == "snapshot"
                    || typos.iter().any(|t| t.prop == name)
            };
            let mut prop = mutate_name(&mut trng, &original);
            if taken(&prop) {
                // Stay at edit distance 1: exhaust the other single-edit
                // mutations before the unbounded (distance-growing)
                // fallback, which only a pathological method namespace
                // can reach.
                let chars: Vec<char> = original.chars().collect();
                let stem: String = chars[..chars.len() - 1].iter().collect();
                let mut alts = vec![
                    stem.clone(),
                    format!("{original}{}", chars[chars.len() - 1]),
                ];
                for ch in ['x', 'z', 'q', 'k', 'w'] {
                    alts.push(format!("{original}{ch}"));
                    alts.push(format!("{stem}{ch}"));
                }
                if let Some(alt) = alts
                    .into_iter()
                    .find(|a| !a.is_empty() && a != &original && !taken(a))
                {
                    prop = alt;
                }
                while taken(&prop) {
                    prop.push('x');
                }
            }
            let _ = writeln!(driver, "var tq{i} = require('lib{li}');");
            let recv = if cfg.use_mixin {
                let _ = writeln!(driver, "var tr{i} = tq{i}();");
                format!("tr{i}")
            } else {
                format!("tq{i}")
            };
            let _ = writeln!(driver, "var typo{i} = {recv}.{prop};");
            typos.push(InjectedTypo {
                path: "test/driver.js".to_string(),
                lib: li,
                prop,
                original,
            });
        }
    }
    p.add_file("test/driver.js", driver);

    // Vulnerability annotations on library track helpers.
    for vi in 0..cfg.vulns.min(cfg.libs) {
        p.add_vuln(
            format!("CVE-GEN-{:04}", cfg.seed % 10_000 + vi as u64),
            format!("node_modules/lib{vi}/index.js"),
            format!("track{vi}"),
        );
    }
    (p, typos)
}

/// The deterministic configurations of the generated share of the
/// 141-project population (the hand-written patterns provide the rest).
pub fn population_configs(count: usize, base_seed: u64) -> Vec<GenConfig> {
    let mut rng = Rng::seed_from_u64(base_seed);
    // The computed-write / accessor-descriptor weights draw from their own
    // seed-derived stream so adding them did not perturb the draw order —
    // and hence the values — of the pre-existing fields.
    let mut wrng = Rng::seed_from_u64(base_seed ^ 0x5EED_CAFE);
    (0..count)
        .map(|i| {
            let size_class = i % 4;
            let (libs, methods, mods) = match size_class {
                0 => (2, 4, 2),
                1 => (4, 8, 4),
                2 => (7, 12, 8),
                _ => (12, 16, 14),
            };
            GenConfig {
                name: format!("gen-{i:03}"),
                seed: base_seed.wrapping_add(i as u64 * 7919),
                libs: libs + rng.random_range(0..3),
                methods_per_lib: methods + rng.random_range(0..5),
                dynamic_fraction: 0.3 + rng.random_range(0..5) as f64 * 0.1,
                app_modules: mods + rng.random_range(0..3),
                calls_per_module: 3 + rng.random_range(0..5),
                use_mixin: i % 3 == 0,
                use_emitter: i % 4 == 1,
                driver_coverage: 0.4 + rng.random_range(0..5) as f64 * 0.1,
                vulns: rng.random_range(0..4),
                hard_dispatch_fraction: match i % 5 {
                    0 => 0.0,
                    1 => 0.15,
                    2 => 0.3,
                    3 => 0.5,
                    _ => 0.05,
                },
                computed_writes: wrng.random_range(0..3),
                accessor_methods: wrng.random_range(0..3),
                // Population projects carry no seeded defects; aji-quant
                // sets the knob explicitly on its evaluation corpus.
                typo_injections: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenConfig::small("det", 42);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.files.len(), b.files.len());
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(fa.path, fb.path);
            assert_eq!(fa.src, fb.src);
        }
    }

    /// Pins the exact byte stream the generator produces for one fixed
    /// seed. Within-process determinism alone would not catch a silent
    /// change to the PRNG algorithm or to draw order, which would
    /// re-shuffle the whole 141-project population between versions.
    #[test]
    fn generation_fingerprint_is_stable() {
        let cfg = GenConfig::small("fingerprint", 42);
        let p = generate(&cfg);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for f in &p.files {
            for b in f
                .path
                .bytes()
                .chain([0u8])
                .chain(f.src.bytes())
                .chain([0u8])
            {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        assert_eq!(
            h, 0xeca6_03e2_f631_9f35,
            "generator output changed for a fixed seed"
        );
    }

    #[test]
    fn generated_projects_parse() {
        for (i, cfg) in population_configs(8, 1234).iter().enumerate() {
            let p = generate(cfg);
            aji_parser::parse_project(&p)
                .unwrap_or_else(|e| panic!("config {i} failed to parse: {e}"));
        }
    }

    #[test]
    fn mixin_variant_parses() {
        let mut cfg = GenConfig::small("mix", 7);
        cfg.use_mixin = true;
        cfg.use_emitter = true;
        let p = generate(&cfg);
        aji_parser::parse_project(&p).unwrap();
        assert!(p.file("node_modules/mixlib/index.js").is_some());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&GenConfig::small("a", 1));
        let b = generate(&GenConfig::small("b", 2));
        let sa: String = a.files.iter().map(|f| f.src.clone()).collect();
        let sb: String = b.files.iter().map(|f| f.src.clone()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn population_sizes_vary() {
        let cfgs = population_configs(12, 99);
        let min = cfgs.iter().map(|c| c.libs).min().unwrap();
        let max = cfgs.iter().map(|c| c.libs).max().unwrap();
        assert!(max > min);
    }

    #[test]
    fn computed_and_accessor_shapes_parse_in_both_layouts() {
        let mut cfg = GenConfig::small("shapes", 11);
        cfg.computed_writes = 2;
        cfg.accessor_methods = 2;
        let p = generate(&cfg);
        aji_parser::parse_project(&p).unwrap();
        let lib0 = p.file("node_modules/lib0/index.js").unwrap();
        assert!(
            lib0.src.contains("['cw' + ci0]"),
            "computed-key loop:\n{}",
            lib0.src
        );
        assert!(
            lib0.src.contains("Object.defineProperty(api0, 'ds0'"),
            "{}",
            lib0.src
        );
        assert!(
            lib0.src.contains("get: function()"),
            "accessor descriptor:\n{}",
            lib0.src
        );
        // App modules call the extras and read the accessor.
        let mods: String = p
            .files
            .iter()
            .filter(|f| f.path.starts_with("lib/"))
            .map(|f| f.src.clone())
            .collect();
        assert!(mods.contains(".snapshot"), "accessor read:\n{mods}");

        cfg.use_mixin = true;
        let p = generate(&cfg);
        aji_parser::parse_project(&p).unwrap();
        let lib0 = p.file("node_modules/lib0/index.js").unwrap();
        assert!(
            lib0.src.contains("Object.defineProperty(api, 'ds0'"),
            "factory-local installs:\n{}",
            lib0.src
        );
    }

    #[test]
    fn new_shape_weights_do_not_disturb_existing_population_fields() {
        // The weights draw from a separate stream: the pre-existing fields
        // must be exactly what they were before the fields existed.
        let cfgs = population_configs(6, 777);
        let again = population_configs(6, 777);
        for (a, b) in cfgs.iter().zip(&again) {
            assert_eq!(a.libs, b.libs);
            assert_eq!(a.computed_writes, b.computed_writes);
            assert_eq!(a.accessor_methods, b.accessor_methods);
        }
        assert!(
            cfgs.iter().any(|c| c.computed_writes > 0),
            "some configs must exercise computed writes"
        );
        assert!(
            cfgs.iter().any(|c| c.accessor_methods > 0),
            "some configs must exercise descriptors"
        );
    }

    #[test]
    fn typo_injection_records_manifest_and_parses() {
        for mixin in [false, true] {
            let mut cfg = GenConfig::small("typo", 21);
            cfg.typo_injections = 3;
            cfg.use_mixin = mixin;
            let (p, typos) = generate_with_manifest(&cfg);
            aji_parser::parse_project(&p).unwrap();
            assert_eq!(typos.len(), 3, "mixin={mixin}");
            let driver = p.file("test/driver.js").unwrap();
            for t in &typos {
                assert_eq!(t.path, "test/driver.js");
                // The misspelling is read in the driver…
                assert!(
                    driver.src.contains(&format!(".{};", t.prop)),
                    "driver must read {}:\n{}",
                    t.prop,
                    driver.src
                );
                // …and absent from every library source (the real method
                // is present in the typo'd library).
                for li in 0..cfg.libs {
                    let lib = p.file(&format!("node_modules/lib{li}/index.js")).unwrap();
                    assert!(
                        !lib.src.contains(&format!("'{}'", t.prop))
                            && !lib.src.contains(&format!(".{} ", t.prop)),
                        "typo {} leaked into lib{li}",
                        t.prop
                    );
                }
                assert_ne!(t.prop, t.original);
                assert!(p
                    .file(&format!("node_modules/lib{}/index.js", t.lib))
                    .unwrap()
                    .src
                    .contains(&t.original));
            }
            // Deterministic: same config, same manifest and bytes.
            let (p2, typos2) = generate_with_manifest(&cfg);
            assert_eq!(typos, typos2);
            assert_eq!(driver.src, p2.file("test/driver.js").unwrap().src);
        }
    }

    #[test]
    fn typo_knob_off_leaves_project_untouched() {
        let cfg = GenConfig::small("typo-off", 21);
        let mut on = cfg.clone();
        on.typo_injections = 2;
        let base = generate(&cfg);
        let (seeded, typos) = generate_with_manifest(&on);
        assert_eq!(typos.len(), 2);
        // Every file except the driver is byte-identical; the driver only
        // gains the appended typo reads.
        for f in &base.files {
            let other = seeded.file(&f.path).unwrap();
            if f.path == "test/driver.js" {
                assert!(other.src.starts_with(&f.src), "typo reads must append");
            } else {
                assert_eq!(f.src, other.src, "{} must be unchanged", f.path);
            }
        }
    }

    #[test]
    fn driver_exists_and_vulns_valid() {
        let cfg = GenConfig {
            vulns: 2,
            ..GenConfig::small("v", 5)
        };
        let p = generate(&cfg);
        assert!(p.file("test/driver.js").is_some());
        for v in &p.vulns {
            assert!(p.file(&v.path).is_some());
            assert!(p.file(&v.path).unwrap().src.contains(&v.function));
        }
    }
}
