//! Source management: files, spans and the `Loc` tokens used as
//! allocation-site identifiers throughout the analyses.
//!
//! The paper identifies every object and function by the source location of
//! the operation that created it (*file, line, column*). [`Loc`] is exactly
//! that triple and is the key type shared by the dynamic pre-analysis (which
//! records hints in terms of `Loc`s) and the static analysis (which uses
//! `Loc`s as allocation-site abstractions).

use aji_support::{FromJson, Json, JsonError, ToJson};
use std::fmt;

/// Identifier of a source file within a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FileId(pub u32);

impl ToJson for FileId {
    fn to_json(&self) -> Json {
        Json::Num(self.0 as f64)
    }
}

impl FromJson for FileId {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        u32::from_json(v).map(FileId)
    }
}

impl FileId {
    /// Returns the index of this file in its [`SourceMap`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A byte range within a single source file.
///
/// Spans are produced by the parser and converted to human-readable [`Loc`]s
/// through the owning [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// File the span belongs to.
    pub file: FileId,
    /// Byte offset of the first character.
    pub lo: u32,
    /// Byte offset one past the last character.
    pub hi: u32,
}

impl Span {
    /// Creates a span covering bytes `lo..hi` of `file`.
    pub fn new(file: FileId, lo: u32, hi: u32) -> Self {
        Span { file, lo, hi }
    }

    /// A zero-width placeholder span at the start of `file`.
    pub fn dummy(file: FileId) -> Self {
        Span { file, lo: 0, hi: 0 }
    }

    /// Smallest span containing both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the spans come from different files.
    pub fn to(self, other: Span) -> Span {
        debug_assert_eq!(self.file, other.file);
        Span {
            file: self.file,
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Number of bytes covered by the span.
    pub fn len(self) -> u32 {
        self.hi - self.lo
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(self) -> bool {
        self.lo == self.hi
    }
}

/// Spans serialize as `[file, lo, hi]`.
impl ToJson for Span {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.file.to_json(),
            Json::Num(self.lo as f64),
            Json::Num(self.hi as f64),
        ])
    }
}

impl FromJson for Span {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([f, lo, hi]) => Ok(Span {
                file: FileId::from_json(f)?,
                lo: u32::from_json(lo)?,
                hi: u32::from_json(hi)?,
            }),
            _ => Err(JsonError::shape("expected [file, lo, hi] span")),
        }
    }
}

/// A source location: file, 1-based line and 1-based column.
///
/// This is the paper's `Loc`: the identity of allocation sites, function
/// definitions and dynamic-property-access operations. Two objects created
/// by the same syntactic operation share a `Loc`, which is what makes the
/// dynamic hints consumable by an allocation-site-based static analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// File containing the operation.
    pub file: FileId,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl Loc {
    /// Column marker for synthetic "prototype object of the function at
    /// this location" sites (real columns never come close).
    pub const PROTO_COL_MARK: u32 = 1 << 24;

    /// Creates a location from its components.
    pub fn new(file: FileId, line: u32, col: u32) -> Self {
        Loc { file, line, col }
    }

    /// The sentinel site of a module's initial `exports` object.
    pub fn module_exports_site(file: FileId) -> Loc {
        Loc::new(file, 0, 0)
    }

    /// The sentinel site of a module's `module` object.
    pub fn module_object_site(file: FileId) -> Loc {
        Loc::new(file, 0, 1)
    }

    /// The sentinel site of the `prototype` object belonging to the
    /// function allocated at `self`.
    pub fn prototype_site(self) -> Loc {
        Loc::new(self.file, self.line, self.col + Self::PROTO_COL_MARK)
    }

    /// If this is a prototype sentinel, the owning function's location.
    pub fn prototype_owner(self) -> Option<Loc> {
        if self.col >= Self::PROTO_COL_MARK {
            Some(Loc::new(
                self.file,
                self.line,
                self.col - Self::PROTO_COL_MARK,
            ))
        } else {
            None
        }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}:{}:{}", self.file.0, self.line, self.col)
    }
}

/// Locations serialize as `[file, line, col]` — compact, and usable as the
/// key half of serialized hint maps.
impl ToJson for Loc {
    fn to_json(&self) -> Json {
        Json::Arr(vec![
            self.file.to_json(),
            Json::Num(self.line as f64),
            Json::Num(self.col as f64),
        ])
    }
}

impl FromJson for Loc {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v.as_arr() {
            Some([f, line, col]) => Ok(Loc {
                file: FileId::from_json(f)?,
                line: u32::from_json(line)?,
                col: u32::from_json(col)?,
            }),
            _ => Err(JsonError::shape("expected [file, line, col] loc")),
        }
    }
}

/// A single source file: a path (virtual; the analyses run over in-memory
/// projects) and its full text, with a precomputed line-start table.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Virtual path of the file, e.g. `node_modules/express/lib/express.js`.
    pub path: String,
    /// Complete file contents.
    pub src: String,
    line_starts: Vec<u32>,
}

impl SourceFile {
    /// Creates a source file and computes its line table.
    pub fn new(path: impl Into<String>, src: impl Into<String>) -> Self {
        let src = src.into();
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceFile {
            path: path.into(),
            src,
            line_starts,
        }
    }

    /// Converts a byte offset into a 1-based (line, column) pair.
    pub fn line_col(&self, offset: u32) -> (u32, u32) {
        let line = match self.line_starts.binary_search(&offset) {
            Ok(l) => l,
            Err(l) => l - 1,
        };
        let col = offset - self.line_starts[line];
        (line as u32 + 1, col + 1)
    }

    /// Returns the text of line `line` (1-based), without the newline.
    pub fn line_text(&self, line: u32) -> &str {
        let idx = (line - 1) as usize;
        let start = self.line_starts[idx] as usize;
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.src.len());
        self.src[start..end].trim_end_matches('\n')
    }

    /// Number of lines in the file.
    pub fn line_count(&self) -> usize {
        self.line_starts.len()
    }
}

/// A collection of source files with stable [`FileId`]s.
///
/// Shared by the parser (to produce spans), the interpreter (to resolve
/// `require` paths) and the analyses (to render locations).
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Creates an empty source map.
    pub fn new() -> Self {
        SourceMap::default()
    }

    /// Adds a file and returns its id.
    pub fn add_file(&mut self, path: impl Into<String>, src: impl Into<String>) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(SourceFile::new(path, src));
        id
    }

    /// Looks up a file by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this map.
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.index()]
    }

    /// Finds a file by exact path.
    pub fn find(&self, path: &str) -> Option<FileId> {
        self.files
            .iter()
            .position(|f| f.path == path)
            .map(|i| FileId(i as u32))
    }

    /// Number of files in the map.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the map contains no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over `(FileId, &SourceFile)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, &SourceFile)> {
        self.files
            .iter()
            .enumerate()
            .map(|(i, f)| (FileId(i as u32), f))
    }

    /// Converts the start of a span into a [`Loc`].
    pub fn loc(&self, span: Span) -> Loc {
        let (line, col) = self.file(span.file).line_col(span.lo);
        Loc::new(span.file, line, col)
    }

    /// Renders a location as `path:line:col`.
    pub fn display_loc(&self, loc: Loc) -> String {
        format!("{}:{}:{}", self.file(loc.file).path, loc.line, loc.col)
    }

    /// Total size of all files in bytes.
    pub fn total_bytes(&self) -> usize {
        self.files.iter().map(|f| f.src.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_col_basics() {
        let f = SourceFile::new("a.js", "ab\ncd\n\nxyz");
        assert_eq!(f.line_col(0), (1, 1));
        assert_eq!(f.line_col(1), (1, 2));
        assert_eq!(f.line_col(3), (2, 1));
        assert_eq!(f.line_col(4), (2, 2));
        assert_eq!(f.line_col(6), (3, 1));
        assert_eq!(f.line_col(7), (4, 1));
        assert_eq!(f.line_col(9), (4, 3));
    }

    #[test]
    fn line_text_and_count() {
        let f = SourceFile::new("a.js", "first\nsecond\nthird");
        assert_eq!(f.line_count(), 3);
        assert_eq!(f.line_text(1), "first");
        assert_eq!(f.line_text(2), "second");
        assert_eq!(f.line_text(3), "third");
    }

    #[test]
    fn source_map_add_and_find() {
        let mut sm = SourceMap::new();
        let a = sm.add_file("a.js", "x");
        let b = sm.add_file("lib/b.js", "y");
        assert_ne!(a, b);
        assert_eq!(sm.find("lib/b.js"), Some(b));
        assert_eq!(sm.find("missing.js"), None);
        assert_eq!(sm.len(), 2);
        assert_eq!(sm.total_bytes(), 2);
    }

    #[test]
    fn span_to_loc() {
        let mut sm = SourceMap::new();
        let a = sm.add_file("a.js", "var x = 1;\nvar y = 2;");
        let span = Span::new(a, 11, 14);
        let loc = sm.loc(span);
        assert_eq!(loc, Loc::new(a, 2, 1));
        assert_eq!(sm.display_loc(loc), "a.js:2:1");
    }

    #[test]
    fn span_join() {
        let f = FileId(0);
        let s = Span::new(f, 3, 5).to(Span::new(f, 10, 12));
        assert_eq!((s.lo, s.hi), (3, 12));
        assert_eq!(s.len(), 9);
        assert!(!s.is_empty());
        assert!(Span::dummy(f).is_empty());
    }

    #[test]
    fn loc_display() {
        let loc = Loc::new(FileId(2), 10, 4);
        assert_eq!(loc.to_string(), "f2:10:4");
    }

    #[test]
    fn offset_at_line_start_maps_to_col_one() {
        let f = SourceFile::new("a.js", "\n\nx");
        assert_eq!(f.line_col(2), (3, 1));
    }

    #[test]
    fn loc_json_roundtrip() {
        for loc in [
            Loc::new(FileId(0), 1, 1),
            Loc::new(FileId(7), 1234, 56),
            Loc::module_exports_site(FileId(3)),
            Loc::new(FileId(1), 9, 2).prototype_site(),
        ] {
            let j = loc.to_json();
            let text = j.to_string();
            let back = Loc::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, loc, "via {text}");
        }
    }

    #[test]
    fn span_and_fileid_json_roundtrip() {
        let s = Span::new(FileId(4), 10, 25);
        let back = Span::from_json(&Json::parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, s);
        let f = FileId(99);
        assert_eq!(FileId::from_json(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn loc_json_rejects_wrong_shape() {
        assert!(Loc::from_json(&Json::parse("[1, 2]").unwrap()).is_err());
        assert!(Loc::from_json(&Json::parse("\"f0:1:1\"").unwrap()).is_err());
        assert!(Loc::from_json(&Json::parse("[1, 2, 3.5]").unwrap()).is_err());
    }
}
