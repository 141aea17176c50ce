//! A minimal property-based testing harness (replacing `proptest`).
//!
//! Design (after Minithesis/Hypothesis): a property is a function from a
//! [`TestCase`] to `Result<(), String>`. The test case hands out
//! nondeterministic *choices* — bounded integers — and records them. When a
//! property fails, the harness shrinks the recorded choice sequence
//! (deleting blocks, zeroing blocks, halving values — "shrinking by
//! halving") and replays the property against candidate sequences until no
//! smaller failing sequence is found. Smaller sequences mean earlier
//! termination and smaller drawn values, so the reported case is minimal in
//! the same sense proptest's was.
//!
//! Reproducibility: every case is fully determined by a per-case seed
//! derived from the property name and the case index. On failure, the
//! harness prints the failing seed; setting `AJI_CHECK_SEED=<seed>` reruns
//! exactly that case (failure-seed replay).
//!
//! ```
//! use aji_support::check::property;
//! use aji_support::prop_assert;
//!
//! property("addition_commutes").cases(64).run(|tc| {
//!     let a = tc.int_in(0i64..1000);
//!     let b = tc.int_in(0i64..1000);
//!     prop_assert!(a + b == b + a, "{a} + {b}");
//!     Ok(())
//! });
//! ```

use crate::rng::{splitmix64, Rng};
use std::ops::Range;

/// One generated test case: a recorded sequence of bounded choices.
///
/// During normal generation, choices come from a seeded [`Rng`]. During
/// shrinking, choices replay from a candidate prefix; draws past the end of
/// the prefix return `0` (the minimal choice), keeping replay
/// deterministic.
pub struct TestCase {
    rng: Rng,
    prefix: Option<Vec<u64>>,
    choices: Vec<u64>,
}

impl TestCase {
    fn from_seed(seed: u64) -> Self {
        TestCase {
            rng: Rng::seed_from_u64(seed),
            prefix: None,
            choices: Vec::new(),
        }
    }

    fn replaying(prefix: Vec<u64>) -> Self {
        TestCase {
            rng: Rng::seed_from_u64(0),
            prefix: Some(prefix),
            choices: Vec::new(),
        }
    }

    /// A test case drawing fresh choices from a seeded PRNG — the public
    /// face of the generation mode, for harnesses that schedule cases
    /// themselves instead of going through [`Property::check`] (the
    /// soundness fuzzer seeds one case per generated corpus program and
    /// keeps the recorded [`TestCase::choices`] for later shrinking).
    ///
    /// ```
    /// use aji_support::check::TestCase;
    ///
    /// let mut a = TestCase::with_seed(42);
    /// let mut b = TestCase::with_seed(42);
    /// assert_eq!(a.int_in(0u64..1000), b.int_in(0u64..1000));
    /// assert_eq!(a.choices(), b.choices());
    /// ```
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        Self::from_seed(seed)
    }

    /// A test case that replays a recorded choice sequence — the public
    /// face of the shrinker's replay mode, so callers holding a
    /// [`Failure`]'s choices can rebuild the exact failing value.
    ///
    /// Draws past the end of `choices` return `0` (the minimal choice),
    /// and every draw is clamped to its bound, so replay is total: any
    /// `u64` sequence produces *some* value of the generator.
    ///
    /// ```
    /// use aji_support::check::TestCase;
    ///
    /// let mut tc = TestCase::for_choices(vec![7, 1]);
    /// assert_eq!(tc.int_in(0u64..100), 7);
    /// assert!(tc.bool());
    /// assert_eq!(tc.int_in(0u64..100), 0, "past-end draws are minimal");
    /// ```
    #[must_use]
    pub fn for_choices(choices: Vec<u64>) -> Self {
        Self::replaying(choices)
    }

    /// The choices recorded so far (one entry per draw, in draw order).
    #[must_use]
    pub fn choices(&self) -> &[u64] {
        &self.choices
    }

    /// Draws a choice in `[0, n)`, recording it.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn choice(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestCase::choice bound must be positive");
        let v = match &self.prefix {
            Some(p) => p.get(self.choices.len()).copied().unwrap_or(0).min(n - 1),
            None => self.rng.below(n),
        };
        self.choices.push(v);
        v
    }

    /// Uniform integer in the half-open `range`.
    pub fn int_in<T: CheckInt>(&mut self, range: Range<T>) -> T {
        let (start, end) = (range.start.to_i128(), range.end.to_i128());
        assert!(start < end, "empty range");
        let width = (end - start) as u128;
        assert!(width <= u64::MAX as u128, "range wider than 64 bits");
        T::from_i128(start + self.choice(width as u64) as i128)
    }

    /// A boolean choice.
    pub fn bool(&mut self) -> bool {
        self.choice(2) == 1
    }

    /// `true` with probability roughly `num/denom` (shrinks toward
    /// `false`).
    pub fn ratio(&mut self, num: u64, denom: u64) -> bool {
        self.choice(denom) < num
    }

    /// Uniformly picks an element of `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        assert!(!xs.is_empty(), "pick from empty slice");
        &xs[self.choice(xs.len() as u64) as usize]
    }

    /// A `char` drawn from `charset` (shrinks toward its first element).
    pub fn char_in(&mut self, charset: &str) -> char {
        let chars: Vec<char> = charset.chars().collect();
        *self.pick(&chars)
    }

    /// A string of length within `len`, each char drawn from `charset` —
    /// the port target for proptest's `"[charset]{lo,hi}"` regex
    /// strategies.
    pub fn string_of(&mut self, charset: &str, len: Range<usize>) -> String {
        let chars: Vec<char> = charset.chars().collect();
        let n = self.int_in(len);
        (0..n).map(|_| *self.pick(&chars)).collect()
    }

    /// A vector with length within `len`, elements produced by `f`.
    pub fn vec_of<T>(
        &mut self,
        len: Range<usize>,
        mut f: impl FnMut(&mut TestCase) -> T,
    ) -> Vec<T> {
        let n = self.int_in(len);
        (0..n).map(|_| f(self)).collect()
    }
}

/// Integers drawable by [`TestCase::int_in`].
pub trait CheckInt: Copy {
    /// Widens to `i128`.
    fn to_i128(self) -> i128;
    /// Narrows from `i128` (always in range for harness-produced values).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_check_int {
    ($($t:ty),*) => {$(
        impl CheckInt for $t {
            fn to_i128(self) -> i128 { self as i128 }
            fn from_i128(v: i128) -> Self { v as $t }
        }
    )*};
}

impl_check_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, i128);

/// A configured property, built by [`property`].
pub struct Property {
    name: String,
    cases: u32,
    max_shrink_runs: u32,
}

/// Starts configuring a property named `name` (the name seeds case
/// generation, so distinct properties explore distinct cases).
pub fn property(name: &str) -> Property {
    Property {
        name: name.to_string(),
        cases: 128,
        max_shrink_runs: 4096,
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Outcome of running a property against one choice sequence.
enum Run {
    Pass,
    Fail { message: String, choices: Vec<u64> },
}

/// A shrunk property failure, as found by [`Property::check`].
///
/// `choices` is the minimal recorded choice sequence; replaying it with
/// [`TestCase::for_choices`] rebuilds the minimal failing value. `seed`
/// reproduces the *original* (pre-shrink) case via `AJI_CHECK_SEED`.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Index of the failing case (0-based).
    pub case: u32,
    /// Per-case RNG seed that produced the original failure.
    pub seed: u64,
    /// The minimal failing choice sequence after shrinking.
    pub choices: Vec<u64>,
    /// The failure message of the minimal case.
    pub message: String,
    /// Property executions spent shrinking.
    pub shrink_runs: u32,
}

/// Shrinks a failing choice sequence without a [`Property`]: repeatedly
/// tries deleting blocks, zeroing blocks and halving/decrementing values,
/// keeping any candidate on which `f` still fails and that is strictly
/// smaller (shorter, or lexicographically smaller at equal length).
/// Returns the minimal choices, their failure message and the number of
/// property executions spent.
///
/// `initial` must be a sequence on which `f` fails (as recorded by a
/// [`TestCase`]); `initial_message` is its failure message. This is the
/// engine behind [`Property::check`], exposed so harnesses that find
/// failures on their own schedule — e.g. a corpus fuzzer flagging a
/// generated project — can still minimize them.
///
/// ```
/// use aji_support::check::{shrink_choices, TestCase};
///
/// // Fails whenever the drawn value is >= 10; minimal failure is 10.
/// let f = |tc: &mut TestCase| {
///     let v = tc.int_in(0u64..1000);
///     if v >= 10 { Err(format!("v = {v}")) } else { Ok(()) }
/// };
/// let (choices, message, _runs) = shrink_choices(vec![700], "v = 700".into(), 4096, f);
/// assert_eq!(choices, vec![10]);
/// assert_eq!(message, "v = 10");
/// ```
pub fn shrink_choices(
    initial: Vec<u64>,
    initial_message: String,
    max_shrink_runs: u32,
    f: impl Fn(&mut TestCase) -> Result<(), String>,
) -> (Vec<u64>, String, u32) {
    let mut best = initial;
    let mut best_message = initial_message;
    let mut runs = 0u32;
    let smaller = |cand: &[u64], cur: &[u64]| {
        cand.len() < cur.len() || (cand.len() == cur.len() && cand < cur)
    };
    let mut improved = true;
    while improved && runs < max_shrink_runs {
        improved = false;
        let mut candidates: Vec<Vec<u64>> = Vec::new();
        // Delete blocks of choices, large blocks first.
        for k in [16usize, 8, 4, 2, 1] {
            if best.len() < k {
                continue;
            }
            for i in (0..=best.len() - k).rev() {
                let mut c = best.clone();
                c.drain(i..i + k);
                candidates.push(c);
            }
        }
        // Zero blocks.
        for k in [8usize, 4, 2, 1] {
            if best.len() < k {
                continue;
            }
            for i in 0..=best.len() - k {
                if best[i..i + k].iter().all(|&v| v == 0) {
                    continue;
                }
                let mut c = best.clone();
                c[i..i + k].iter_mut().for_each(|v| *v = 0);
                candidates.push(c);
            }
        }
        // Halve and decrement individual values.
        for i in 0..best.len() {
            if best[i] > 1 {
                let mut c = best.clone();
                c[i] /= 2;
                candidates.push(c);
            }
            if best[i] > 0 {
                let mut c = best.clone();
                c[i] -= 1;
                candidates.push(c);
            }
        }
        for cand in candidates {
            if runs >= max_shrink_runs {
                break;
            }
            if !smaller(&cand, &best) {
                continue;
            }
            runs += 1;
            if let Run::Fail { message, choices } = Property::execute(&f, cand) {
                // Record what the property actually consumed — replay
                // may terminate earlier than the candidate suggests.
                if smaller(&choices, &best) {
                    best = choices;
                    best_message = message;
                    improved = true;
                }
            }
        }
    }
    (best, best_message, runs)
}

impl Property {
    /// Sets the number of cases to generate (default 128).
    pub fn cases(mut self, n: u32) -> Self {
        self.cases = n;
        self
    }

    /// Caps the number of extra executions spent shrinking a failure.
    pub fn max_shrink_runs(mut self, n: u32) -> Self {
        self.max_shrink_runs = n;
        self
    }

    /// Runs the property over `cases` seeded test cases, shrinking and
    /// panicking on the first failure.
    ///
    /// # Panics
    ///
    /// Panics (failing the enclosing `#[test]`) when the property fails.
    pub fn run(self, f: impl Fn(&mut TestCase) -> Result<(), String>) {
        if let Ok(seed_str) = std::env::var("AJI_CHECK_SEED") {
            let seed: u64 = seed_str
                .trim()
                .parse()
                .expect("AJI_CHECK_SEED must be a u64");
            self.run_one_seed(seed, &f);
            return;
        }
        let name = self.name.clone();
        if let Some(fail) = self.check(f) {
            panic!(
                "property '{name}' failed (case {}, seed {}; rerun with \
                 AJI_CHECK_SEED={}).\nShrunk to {} choices {:?}\n{}",
                fail.case,
                fail.seed,
                fail.seed,
                fail.choices.len(),
                fail.choices,
                fail.message
            );
        }
    }

    /// Runs the property over `cases` seeded test cases and returns the
    /// first failure, shrunk, instead of panicking — the embeddable
    /// variant of [`Property::run`] for harnesses (like the soundness
    /// fuzzer) that treat a failure as data rather than a test verdict.
    ///
    /// Returns `None` when every case passes. Ignores `AJI_CHECK_SEED`;
    /// seed replay is a `#[test]`-runner concern that stays in `run`.
    ///
    /// ```
    /// use aji_support::check::property;
    ///
    /// let fail = property("finds_boundary").cases(200).check(|tc| {
    ///     let v = tc.int_in(0u64..10_000);
    ///     if v >= 13 { Err(format!("v = {v}")) } else { Ok(()) }
    /// });
    /// let fail = fail.expect("property must fail somewhere");
    /// assert_eq!(fail.choices, vec![13], "shrunk to the boundary");
    ///
    /// let pass = property("never_fails").cases(50).check(|tc| {
    ///     let _ = tc.bool();
    ///     Ok(())
    /// });
    /// assert!(pass.is_none());
    /// ```
    #[must_use]
    pub fn check(self, f: impl Fn(&mut TestCase) -> Result<(), String>) -> Option<Failure> {
        let base = fnv1a(&self.name);
        for case in 0..self.cases {
            let mut state = base ^ (case as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let seed = splitmix64(&mut state);
            let mut tc = TestCase::from_seed(seed);
            if let Err(message) = f(&mut tc) {
                let (choices, message, shrink_runs) =
                    shrink_choices(tc.choices, message, self.max_shrink_runs, &f);
                return Some(Failure {
                    case,
                    seed,
                    choices,
                    message,
                    shrink_runs,
                });
            }
        }
        None
    }

    fn run_one_seed(&self, seed: u64, f: &impl Fn(&mut TestCase) -> Result<(), String>) {
        let mut tc = TestCase::from_seed(seed);
        if let Err(message) = f(&mut tc) {
            panic!(
                "property '{}' failed on replayed seed {seed}:\n{message}",
                self.name
            );
        }
    }

    fn execute(f: &impl Fn(&mut TestCase) -> Result<(), String>, prefix: Vec<u64>) -> Run {
        let mut tc = TestCase::replaying(prefix);
        match f(&mut tc) {
            Ok(()) => Run::Pass,
            Err(message) => Run::Fail {
                message,
                choices: tc.choices,
            },
        }
    }
}

/// `proptest`-style assertion: fails the property (returns `Err`) instead
/// of panicking, so the harness can shrink the input.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed: {}\n{}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!("assertion failed: {:?} == {:?}", a, b));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "assertion failed: {:?} == {:?}\n{}",
                a,
                b,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a == b {
            return Err(format!("assertion failed: {:?} != {:?}", a, b));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0u32);
        property("always_passes").cases(50).run(|tc| {
            let _ = tc.int_in(0u32..10);
            count.set(count.get() + 1);
            Ok(())
        });
        assert_eq!(count.get(), 50);
    }

    #[test]
    #[allow(clippy::overly_complex_bool_expr)] // the failure must be unconditional but still use `v`
    fn failing_property_panics_with_seed() {
        let res = std::panic::catch_unwind(|| {
            property("always_fails").cases(10).run(|tc| {
                let v = tc.int_in(0u32..100);
                prop_assert!(v < 1000 && false, "v = {v}");
                Ok(())
            });
        });
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("AJI_CHECK_SEED="), "message: {msg}");
    }

    #[test]
    fn shrinks_to_boundary() {
        // The classic: fails for v >= 13; the minimal failing case is 13.
        let res = std::panic::catch_unwind(|| {
            property("shrink_to_13").cases(200).run(|tc| {
                let v = tc.int_in(0u64..10_000);
                prop_assert!(v < 13, "v = {v}");
                Ok(())
            });
        });
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("v = 13"), "did not shrink to 13: {msg}");
    }

    #[test]
    fn shrinks_vectors_to_minimal_length() {
        // Fails when the vector has >= 3 elements; minimal case is any
        // 3-element vector, and with value-shrinking it is all zeros.
        let res = std::panic::catch_unwind(|| {
            property("shrink_vec").cases(200).run(|tc| {
                let xs = tc.vec_of(0..20, |t| t.int_in(0u32..50));
                prop_assert!(xs.len() < 3, "xs = {xs:?}");
                Ok(())
            });
        });
        let msg = *res.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("xs = [0, 0, 0]"), "shrunk badly: {msg}");
    }

    #[test]
    fn replay_reproduces_case_exactly() {
        // The same seed must produce the same drawn values.
        let mut first = TestCase::from_seed(977);
        let a: Vec<u64> = (0..10).map(|_| first.choice(1000)).collect();
        let mut second = TestCase::from_seed(977);
        let b: Vec<u64> = (0..10).map(|_| second.choice(1000)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn string_and_pick_helpers_stay_in_domain() {
        property("helpers_domain").cases(64).run(|tc| {
            let s = tc.string_of("abc", 0..5);
            prop_assert!(s.len() < 5);
            prop_assert!(s.chars().all(|c| "abc".contains(c)), "s = {s}");
            let x = *tc.pick(&[3, 5, 7]);
            prop_assert!([3, 5, 7].contains(&x));
            prop_assert!(tc.ratio(4, 4), "num == denom must always hold");
            prop_assert!(!tc.ratio(0, 4), "num == 0 must never hold");
            Ok(())
        });
    }

    #[test]
    fn overrun_draws_are_minimal() {
        let mut tc = TestCase::replaying(vec![5]);
        assert_eq!(tc.choice(10), 5);
        assert_eq!(tc.choice(10), 0, "past-prefix draws are 0");
        assert_eq!(tc.choice(3), 0);
    }

    #[test]
    fn check_returns_shrunk_failure_without_panicking() {
        let fail = property("check_shrinks_to_13").cases(200).check(|tc| {
            let v = tc.int_in(0u64..10_000);
            prop_assert!(v < 13, "v = {v}");
            Ok(())
        });
        let fail = fail.expect("property fails somewhere in 200 cases");
        assert_eq!(fail.choices, vec![13]);
        assert!(fail.message.contains("v = 13"), "message: {}", fail.message);
        assert!(fail.shrink_runs > 0);
        // Replaying the shrunk choices rebuilds the minimal value.
        let mut tc = TestCase::for_choices(fail.choices.clone());
        assert_eq!(tc.int_in(0u64..10_000), 13);
    }

    #[test]
    fn check_passes_quietly() {
        let fail = property("check_passes").cases(30).check(|tc| {
            let _ = tc.int_in(0u32..5);
            Ok(())
        });
        assert!(fail.is_none());
    }

    #[test]
    fn shrink_choices_is_reusable_outside_properties() {
        // A failure found by an external harness (not Property::check):
        // any sequence whose first draw is >= 100 fails.
        let f = |tc: &mut TestCase| {
            let v = tc.int_in(0u64..100_000);
            let w = tc.int_in(0u64..10);
            if v >= 100 {
                Err(format!("v = {v}, w = {w}"))
            } else {
                Ok(())
            }
        };
        let (choices, message, runs) =
            shrink_choices(vec![31_337, 7], "v = 31337, w = 7".into(), 4096, f);
        // The property always draws twice, so the minimal sequence is the
        // boundary value followed by the minimal second draw.
        assert_eq!(
            choices,
            vec![100, 0],
            "shrinks the value and zeroes the tail"
        );
        assert!(message.starts_with("v = 100"), "message: {message}");
        assert!(runs > 0);
    }
}
