//! Step-attributed hot-function profiler.
//!
//! When the active observability registry carries a flight recorder whose
//! [`TraceConfig::profile`](aji_obs::TraceConfig) flag is set, the
//! interpreter owns one of these and charges every evaluation step and
//! call to the function currently on top of the profiled call stack. Attribution is by **step count**, not wall clock,
//! so the resulting table is exact, deterministic, and honest on a
//! 1-core container — two functions cannot "overlap" in steps.
//!
//! Steps are attributed by **delta accounting**: the profiler remembers
//! the interpreter's step counter at the last frame transition
//! ([`Profiler::sync`]) and charges the elapsed difference to the frame
//! being left. The interpreter's `step()` hot path therefore carries no
//! profiler branch at all — the cost lands on call boundaries, which are
//! orders of magnitude rarer.
//!
//! On interpreter drop the profile flushes as plain counters
//! (`profile.fn.<metric>.<function-key>`) into the registry the
//! interpreter bound at construction. Counters merge by summation under
//! [`Registry::absorb`](aji_obs::Registry::absorb), so per-worker profiles
//! fold into corpus totals that are invariant to thread count.

use aji_ast::NodeId;
use aji_obs::Registry;
use aji_support::hash::FxHashMap;

/// Per-function tallies. Index 0 is the synthetic `<toplevel>` frame that
/// charges module bodies, prelude code and anything outside a profiled
/// call.
#[derive(Debug)]
struct FnStat {
    key: String,
    steps: u64,
    calls: u64,
}

impl FnStat {
    fn new(key: String) -> FnStat {
        FnStat {
            key,
            steps: 0,
            calls: 0,
        }
    }
}

/// The profiler state: a dense stat table, a definition-id index into it,
/// and the profiled call stack (indices, so per-step charging is one
/// vector index away from the current frame).
#[derive(Debug)]
pub(crate) struct Profiler {
    stats: Vec<FnStat>,
    index: FxHashMap<NodeId, usize>,
    stack: Vec<usize>,
    cur: usize,
    /// Interpreter step count at the last frame transition; the delta
    /// since is owed to the current frame.
    last_mark: u64,
}

impl Profiler {
    pub(crate) fn new() -> Profiler {
        Profiler {
            stats: vec![FnStat::new("<toplevel>".to_string())],
            index: FxHashMap::default(),
            stack: Vec::new(),
            cur: 0,
            last_mark: 0,
        }
    }

    /// The stat index for a definition, creating it with `make_key` on
    /// first sight.
    fn frame(&mut self, id: NodeId, make_key: impl FnOnce() -> String) -> usize {
        if let Some(&idx) = self.index.get(&id) {
            return idx;
        }
        let idx = self.stats.len();
        self.stats.push(FnStat::new(make_key()));
        self.index.insert(id, idx);
        idx
    }

    /// Charges the steps elapsed since the last transition to the current
    /// frame and advances the mark. `now` is the interpreter's step
    /// counter.
    pub(crate) fn sync(&mut self, now: u64) {
        self.stats[self.cur].steps += now.saturating_sub(self.last_mark);
        self.last_mark = now;
    }

    /// Re-bases the mark after the interpreter's step counter was reset
    /// externally (benchmark harnesses call `Interp::reset_steps`).
    pub(crate) fn rebase(&mut self, now: u64) {
        self.last_mark = now;
    }

    /// Enters a profiled call at step `now`: the definition becomes the
    /// current frame.
    pub(crate) fn enter(&mut self, id: NodeId, now: u64, make_key: impl FnOnce() -> String) {
        self.sync(now);
        let idx = self.frame(id, make_key);
        self.stats[idx].calls += 1;
        self.stack.push(self.cur);
        self.cur = idx;
    }

    /// Leaves the current profiled call at step `now` (normal return or
    /// unwind alike).
    pub(crate) fn exit(&mut self, now: u64) {
        self.sync(now);
        self.cur = self.stack.pop().unwrap_or(0);
    }

    /// Flushes the profile into `reg` as summation-mergeable counters
    /// (only non-zero metrics, keeping reports lean). `now` settles the
    /// steps still owed to the current frame.
    pub(crate) fn flush(&mut self, now: u64, reg: &Registry) {
        self.sync(now);
        for st in &self.stats {
            for (metric, value) in [("steps", st.steps), ("calls", st.calls)] {
                if value > 0 {
                    reg.counter_add(&format!("profile.fn.{metric}.{}", st.key), value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn steps_charge_to_the_current_frame() {
        let mut p = Profiler::new();
        // 1 toplevel step, then f runs from step 1 to step 3.
        p.enter(NodeId(7), 1, || "f@a.js:1".into());
        p.exit(3);
        // 1 more toplevel step, then a zero-step re-entry of f.
        p.enter(NodeId(7), 4, || panic!("key already made"));
        p.exit(4);
        // g is entered and left without a step: calls flush, steps do not.
        p.enter(NodeId(9), 4, || "g@a.js:5".into());
        p.exit(4);

        let reg = Arc::new(Registry::new());
        p.flush(4, &reg);
        let rep = reg.report();
        assert_eq!(rep.counter("profile.fn.steps.<toplevel>"), Some(2));
        assert_eq!(rep.counter("profile.fn.steps.f@a.js:1"), Some(2));
        assert_eq!(rep.counter("profile.fn.calls.f@a.js:1"), Some(2));
        assert_eq!(rep.counter("profile.fn.calls.g@a.js:5"), Some(1));
        // Zero metrics are not flushed.
        assert_eq!(rep.counter("profile.fn.steps.g@a.js:5"), None);
    }
}
