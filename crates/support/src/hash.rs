//! Seeded content hashing for cache keys (replaces `fnv`/`xxhash`), and a
//! fast in-memory hasher for hash tables (replaces `rustc-hash`).
//!
//! The daemon's `HintStore` (crate `aji-serve`) keys every cache layer by
//! a digest of source text, so the properties that matter here are the
//! ones a *persistent, cross-process* cache needs:
//!
//! * **Stability** — the digest of a given byte string never changes
//!   across runs, platforms or thread counts (unlike `std`'s
//!   `DefaultHasher`, which is randomized per process and explicitly
//!   unstable across releases). Snapshots written by one daemon process
//!   must validate in the next.
//! * **Seedability** — a deployment can pick a seed so that digests are
//!   not portable *between* unrelated stores (a cheap guard against
//!   accidentally mixing snapshot files), and the test suite can prove
//!   key-space separation.
//! * **Speed over cryptography** — keys are content digests for caches
//!   whose values are re-derivable; collision resistance against an
//!   adversary is a non-goal, exactly as with FNV or xxHash.
//!
//! The implementation is 64-bit FNV-1a with the seed folded into the
//! offset basis, plus a [`mix64`] finalizer (xorshift-multiply, the
//! splitmix64 tail) so that short inputs still diffuse into the high
//! bits.
//!
//! # Example
//!
//! ```
//! use aji_support::hash::{fnv64, Fnv64};
//!
//! // One-shot and streaming digests agree.
//! let mut h = Fnv64::new(0);
//! h.write(b"var x = ");
//! h.write(b"1;");
//! assert_eq!(h.finish(), fnv64(0, b"var x = 1;"));
//!
//! // Different seeds give unrelated key spaces.
//! assert_ne!(fnv64(0, b"var x = 1;"), fnv64(7, b"var x = 1;"));
//! ```
//!
//! # Table hashing
//!
//! [`FxHasher`] is a different tool: a word-at-a-time multiplicative
//! hasher (the Firefox/`rustc` "Fx" scheme) for `HashMap`/`HashSet`
//! keys that are small integers or short strings, where `std`'s SipHash
//! spends most of a lookup hashing. It is deterministic — no per-process
//! random state — but makes no cross-version stability promise, so it
//! must never key a persisted digest. Tables using it iterate in an
//! order that differs from SipHash's; code whose *output* could follow
//! iteration order must sort or use a `BTreeMap` instead.
//!
//! ```
//! use aji_support::hash::FxHashMap;
//!
//! let mut m: FxHashMap<u32, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m.get(&7), Some(&"seven"));
//! ```

/// The FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming seeded FNV-1a 64-bit hasher.
///
/// Feed bytes with [`Fnv64::write`] (or whole values with the helpers
/// below) and read the digest with [`Fnv64::finish`]; `finish` does not
/// consume the hasher, so a prefix digest can be sampled mid-stream —
/// which is exactly how the daemon's parse cache keys "the project up to
/// and including file *i*".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// Creates a hasher whose offset basis is perturbed by `seed`
    /// (seed 0 is plain FNV-1a).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // Diffuse the seed before folding it in so that small seeds
        // (0, 1, 2, …) still flip about half of the basis bits.
        Fnv64 {
            state: OFFSET ^ mix64(seed),
        }
    }

    /// Absorbs bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= u64::from(b);
            s = s.wrapping_mul(PRIME);
        }
        self.state = s;
    }

    /// Absorbs a `u64` in little-endian byte order (for combining child
    /// digests into a parent digest).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a length-prefixed string, so `("ab","c")` and `("a","bc")`
    /// hash differently when combined field by field.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest of everything written so far, finalized through
    /// [`mix64`]. Does not reset the hasher.
    #[must_use]
    pub fn finish(&self) -> u64 {
        mix64(self.state)
    }
}

/// One-shot convenience: digest of `bytes` under `seed`.
#[must_use]
pub fn fnv64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new(seed);
    h.write(bytes);
    h.finish()
}

/// The splitmix64 finalizer: a fast invertible mix that spreads low-bit
/// differences across the whole word. Used both to diffuse seeds and to
/// finalize digests.
#[must_use]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Renders a digest the way snapshots and the `stats` response do:
/// 16 lower-case hex digits, zero-padded, stable across platforms.
#[must_use]
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses [`hex`]'s output back to a digest (used when reloading
/// snapshots).
#[must_use]
pub fn from_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// The multiplier of [`FxHasher`]: an odd constant with well-spread
/// bits (`2^64 / φ`, rounded to odd), so multiplying by it is a bijection
/// on `u64` that pushes low-bit differences into the high bits.
const FX_K: u64 = 0x517c_c1b7_2722_0a95;

/// Fast, deterministic, non-cryptographic hasher for in-memory tables.
///
/// Each word written is folded in as `state = (state.rotl(5) ^ word) * K`.
/// Use it through [`FxBuildHasher`] or the [`FxHashMap`]/[`FxHashSet`]
/// aliases. Not collision-resistant: keys must not be attacker-chosen.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(FX_K);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`]; stateless, so every
/// table built with it hashes a key the same way.
pub type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable_across_calls() {
        let a = fnv64(0, b"hello");
        let b = fnv64(0, b"hello");
        assert_eq!(a, b);
        // Pinned value: the whole point is cross-process stability, so a
        // change here is a cache-invalidation event and must be loud.
        assert_eq!(fnv64(0, b""), mix64(OFFSET ^ mix64(0)));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let mut h = Fnv64::new(42);
        for chunk in ["var ", "x", " = 1;"] {
            h.write(chunk.as_bytes());
        }
        assert_eq!(h.finish(), fnv64(42, b"var x = 1;"));
    }

    #[test]
    fn seed_separates_key_spaces() {
        for s in ["", "a", "var x = 1;"] {
            assert_ne!(fnv64(0, s.as_bytes()), fnv64(1, s.as_bytes()));
            assert_ne!(fnv64(1, s.as_bytes()), fnv64(2, s.as_bytes()));
        }
    }

    #[test]
    fn small_edits_change_the_digest() {
        let base = fnv64(0, b"function f() { return 1; }");
        assert_ne!(base, fnv64(0, b"function f() { return 2; }"));
        assert_ne!(base, fnv64(0, b"function f() { return 1; } "));
        assert_ne!(base, fnv64(0, b"function g() { return 1; }"));
    }

    #[test]
    fn write_str_is_length_prefixed() {
        let mut a = Fnv64::new(0);
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new(0);
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn hex_roundtrips() {
        for d in [0u64, 1, u64::MAX, fnv64(3, b"x")] {
            assert_eq!(from_hex(&hex(d)), Some(d));
        }
        assert_eq!(from_hex("xyz"), None);
        assert_eq!(from_hex("0"), None);
    }

    fn fx_hash<T: std::hash::Hash>(v: &T) -> u64 {
        use std::hash::BuildHasher;
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn fx_is_deterministic_across_instances() {
        for key in [0u32, 1, 42, u32::MAX] {
            assert_eq!(fx_hash(&key), fx_hash(&key));
        }
        assert_eq!(fx_hash(&"module:events"), fx_hash(&"module:events"));
        assert_eq!(fx_hash(&(3u32, 9u16)), fx_hash(&(3u32, 9u16)));
        assert_ne!(fx_hash(&"ab"), fx_hash(&"ba"));
    }

    #[test]
    fn fx_spreads_sequential_keys_across_buckets() {
        // Sequential ids — the common key shape in the analysis tables —
        // land in distinct buckets of a power-of-two table, judged both
        // by the low bits (bucket index) and the top 7 bits (the control
        // byte a SwissTable probes with) spreading over most values.
        const BITS: u32 = 10;
        let mut low = std::collections::HashSet::new();
        let mut top = std::collections::HashSet::new();
        for k in 0u32..(1 << BITS) {
            let h = fx_hash(&k);
            low.insert(h & ((1 << BITS) - 1));
            top.insert(h >> 57);
        }
        assert_eq!(low.len(), 1 << BITS);
        assert!(top.len() > 100, "top bits cover only {} of 128", top.len());
    }

    #[test]
    fn fx_maps_round_trip() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        for i in 0..1000u32 {
            m.insert(format!("k{i}"), i);
            s.insert((i, i.wrapping_mul(7)));
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(s.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&format!("k{i}")), Some(&i));
            assert!(s.contains(&(i, i.wrapping_mul(7))));
        }
        assert_eq!(m.remove("k5"), Some(5));
        assert!(!m.contains_key("k5"));
        assert!(!s.contains(&(1, 1)));
    }
}
