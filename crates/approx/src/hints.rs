//! Hint data structures (`H_R`, `H_W` and module hints).

use aji_ast::Loc;
use aji_support::{FromJson, Json, JsonError, ToJson};
use std::collections::{BTreeMap, BTreeSet};

/// A write hint `(ℓ, p, ℓ'')`: an object allocated at `value` was written
/// to property `prop` of an object allocated at `obj`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WriteHint {
    /// Allocation site of the object written *to*.
    pub obj: Loc,
    /// The property name.
    pub prop: String,
    /// Allocation site of the value written.
    pub value: Loc,
}

/// Write hints serialize as `[obj, prop, value]` triples.
impl ToJson for WriteHint {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.obj.to_json(),
            Json::Str(self.prop.clone()),
            self.value.to_json(),
        ])
    }
}

impl FromJson for WriteHint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([obj, prop, value]) => Ok(WriteHint {
                obj: Loc::from_json(obj)?,
                prop: String::from_json(prop)?,
                value: Loc::from_json(value)?,
            }),
            _ => Err(JsonError::shape("expected [obj, prop, value] write hint")),
        }
    }
}

/// The full output of approximate interpretation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hints {
    /// Read hints `H_R`: dynamic-read operation location → allocation
    /// sites observed as results.
    pub reads: BTreeMap<Loc, BTreeSet<Loc>>,
    /// Write hints `H_W`.
    pub writes: BTreeSet<WriteHint>,
    /// Module hints: `require` call-site location → project file paths the
    /// call resolved to at runtime.
    pub modules: BTreeMap<Loc, BTreeSet<String>>,
    /// Property names observed per dynamic-*write* site (the §4
    /// non-relational alternative's raw material; unused by \[DPW\]).
    pub write_props: BTreeMap<Loc, BTreeSet<String>>,
    /// §6 extension: dynamic-read sites whose base was the unknown proxy
    /// but whose key was a concrete string.
    pub proxy_reads: BTreeMap<Loc, BTreeSet<String>>,
}

impl Hints {
    /// Creates an empty hint set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read hint.
    pub fn add_read(&mut self, op: Loc, result: Loc) {
        self.reads.entry(op).or_default().insert(result);
    }

    /// Records a write hint.
    pub fn add_write(&mut self, obj: Loc, prop: impl Into<String>, value: Loc) {
        self.writes.insert(WriteHint {
            obj,
            prop: prop.into(),
            value,
        });
    }

    /// Records a module hint.
    pub fn add_module(&mut self, site: Loc, path: impl Into<String>) {
        self.modules.entry(site).or_default().insert(path.into());
    }

    /// Records the property name observed at a dynamic-write site.
    pub fn add_write_prop(&mut self, site: Loc, prop: impl Into<String>) {
        self.write_props
            .entry(site)
            .or_default()
            .insert(prop.into());
    }

    /// Records a proxy-base read (§6 extension).
    pub fn add_proxy_read(&mut self, site: Loc, prop: impl Into<String>) {
        self.proxy_reads
            .entry(site)
            .or_default()
            .insert(prop.into());
    }

    /// Total number of primary hints: read hints, write hints and module
    /// hints (the paper reports 0–15 036 per program). The auxiliary
    /// `write_props`/`proxy_reads` sets are not counted: they only feed
    /// the ablation/extension modes.
    pub fn len(&self) -> usize {
        self.reads.values().map(|s| s.len()).sum::<usize>()
            + self.writes.len()
            + self.modules.values().map(|s| s.len()).sum::<usize>()
    }

    /// Whether no hints were collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Merges another hint set into this one (used when reusing library
    /// pre-analysis results, §6).
    pub fn merge(&mut self, other: &Hints) {
        for (op, locs) in &other.reads {
            self.reads
                .entry(*op)
                .or_default()
                .extend(locs.iter().copied());
        }
        self.writes.extend(other.writes.iter().cloned());
        for (site, paths) in &other.modules {
            self.modules
                .entry(*site)
                .or_default()
                .extend(paths.iter().cloned());
        }
        for (site, props) in &other.write_props {
            self.write_props
                .entry(*site)
                .or_default()
                .extend(props.iter().cloned());
        }
        for (site, props) in &other.proxy_reads {
            self.proxy_reads
                .entry(*site)
                .or_default()
                .extend(props.iter().cloned());
        }
    }

    /// Serializes the hint set to a JSON string, so pre-analysis results
    /// can be persisted and reused across projects (§6).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reloads a hint set serialized by [`Hints::to_json_string`].
    pub fn from_json_str(s: &str) -> Result<Hints, JsonError> {
        Hints::from_json(&Json::parse(s)?)
    }
}

impl ToJson for Hints {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("reads", self.reads.to_json()),
            ("writes", self.writes.to_json()),
            ("modules", self.modules.to_json()),
            ("write_props", self.write_props.to_json()),
            ("proxy_reads", self.proxy_reads.to_json()),
        ])
    }
}

impl FromJson for Hints {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Hints {
            reads: FromJson::from_json(v.field("reads")?)?,
            writes: FromJson::from_json(v.field("writes")?)?,
            modules: FromJson::from_json(v.field("modules")?)?,
            write_props: FromJson::from_json(v.field("write_props")?)?,
            proxy_reads: FromJson::from_json(v.field("proxy_reads")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aji_ast::FileId;

    fn loc(l: u32) -> Loc {
        Loc::new(FileId(0), l, 1)
    }

    #[test]
    fn counting_and_dedup() {
        let mut h = Hints::new();
        h.add_read(loc(1), loc(2));
        h.add_read(loc(1), loc(2));
        h.add_read(loc(1), loc(3));
        h.add_write(loc(4), "get", loc(5));
        h.add_write(loc(4), "get", loc(5));
        h.add_module(loc(6), "lib/a.js");
        assert_eq!(h.len(), 4);
        assert!(!h.is_empty());
    }

    #[test]
    fn merge_unions() {
        let mut a = Hints::new();
        a.add_read(loc(1), loc(2));
        let mut b = Hints::new();
        b.add_read(loc(1), loc(3));
        b.add_write(loc(4), "x", loc(5));
        a.merge(&b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.reads[&loc(1)].len(), 2);
    }

    #[test]
    fn empty_hints() {
        assert!(Hints::new().is_empty());
    }

    fn roundtrip(h: &Hints) -> Hints {
        Hints::from_json_str(&h.to_json_string()).expect("round trip")
    }

    #[test]
    fn json_roundtrip_full_hint_set() {
        let mut h = Hints::new();
        h.add_read(loc(1), loc(2));
        h.add_read(loc(1), loc(3));
        h.add_read(loc(9), loc(2));
        h.add_write(loc(4), "get", loc(5));
        h.add_write(loc(4), "set", loc(6));
        h.add_module(loc(7), "node_modules/dep/index.js");
        h.add_write_prop(loc(8), "installed");
        h.add_proxy_read(loc(10), "config");
        let back = roundtrip(&h);
        assert_eq!(back, h);
        assert_eq!(back.len(), h.len());
    }

    #[test]
    fn json_roundtrip_empty() {
        assert_eq!(roundtrip(&Hints::new()), Hints::new());
    }

    #[test]
    fn json_roundtrip_escaped_property_names() {
        // Dynamic property writes can install keys containing JSON
        // metacharacters — exactly what the serializer must escape.
        let gnarly = [
            "quote\"name",
            "back\\slash",
            "new\nline",
            "tab\tname",
            "unicode-ключ-🔑",
            "\u{0}\u{1f}control",
            "",
            "\\\"both\\\"",
        ];
        let mut h = Hints::new();
        for (i, p) in gnarly.iter().enumerate() {
            h.add_write(loc(1), *p, loc(10 + i as u32));
            h.add_write_prop(loc(2), *p);
            h.add_proxy_read(loc(3), *p);
        }
        h.add_module(loc(4), "pkg\"weird\\path\n.js");
        let text = h.to_json_string();
        let back = Hints::from_json_str(&text).expect("escaped names round-trip");
        assert_eq!(back, h, "serialized form: {text}");
    }

    #[test]
    fn json_output_is_deterministic() {
        let mut h = Hints::new();
        h.add_write(loc(2), "b", loc(3));
        h.add_write(loc(1), "a", loc(2));
        h.add_read(loc(5), loc(6));
        assert_eq!(h.to_json_string(), h.to_json_string());
        // BTree storage means insertion order does not leak into output.
        let mut h2 = Hints::new();
        h2.add_read(loc(5), loc(6));
        h2.add_write(loc(1), "a", loc(2));
        h2.add_write(loc(2), "b", loc(3));
        assert_eq!(h.to_json_string(), h2.to_json_string());
    }

    #[test]
    fn json_rejects_malformed_hint_sets() {
        assert!(Hints::from_json_str("").is_err());
        assert!(Hints::from_json_str("[]").is_err());
        assert!(
            Hints::from_json_str("{\"reads\": []}").is_err(),
            "missing fields"
        );
        assert!(
            Hints::from_json_str(
                "{\"reads\":[],\"writes\":[[1,2]],\"modules\":[],\
                 \"write_props\":[],\"proxy_reads\":[]}"
            )
            .is_err(),
            "malformed write hint"
        );
    }

    #[test]
    fn merged_hints_roundtrip() {
        let mut a = Hints::new();
        a.add_read(loc(1), loc(2));
        let mut b = Hints::new();
        b.add_write(loc(3), "p", loc(4));
        a.merge(&b);
        assert_eq!(roundtrip(&a), a);
    }
}
