//! Property tests for the flight recorder: ring-buffer wraparound and
//! capacity edge cases, deterministic merge of per-thread rings, and
//! validity/round-trip of the Chrome trace-event export — in the style of
//! `crates/support/tests/proptest_json.rs`.

use aji_obs::{TraceConfig, TraceEvent, TraceKind, TraceRecorder, TraceReport};
use aji_support::check::{property, TestCase};
use aji_support::{prop_assert, prop_assert_eq, FromJson, Json, ToJson};

/// Step values stay under 2^53 so they survive the f64 JSON number model
/// exactly (same bound `proptest_json.rs` documents).
const MAX_EXACT: u64 = 1 << 53;

const NAMES: &[&str] = &[
    "pipeline",
    "approx-interp",
    "hot@index.js:3",
    "f:prop#0",
    "a b",
    "q\"uote",
    "back\\slash",
    "",
];

fn event(tc: &mut TestCase, step: u64) -> TraceEvent {
    TraceEvent {
        step,
        wall_ns: tc.int_in(0u64..MAX_EXACT),
        kind: *tc.pick(TraceKind::all()),
        name: (*tc.pick(NAMES)).to_string(),
        detail: (*tc.pick(NAMES)).to_string(),
    }
}

#[test]
fn ring_keeps_newest_and_counts_drops() {
    property("ring_keeps_newest_and_counts_drops")
        .cases(200)
        .run(|tc| {
            let capacity = tc.int_in(1usize..20);
            let n = tc.int_in(0usize..60);
            let rec = TraceRecorder::new(TraceConfig {
                capacity,
                deterministic: true,
                profile: false,
            });
            for i in 0..n {
                rec.record_at(i as u64, TraceKind::HintApply, &format!("e{i}"), "");
            }
            let rep = rec.report();
            let kept = n.min(capacity);
            prop_assert_eq!(rep.events.len(), kept);
            prop_assert_eq!(rep.dropped, (n - kept) as u64);
            // Exactly the newest `kept` events survive, oldest first.
            for (j, ev) in rep.events.iter().enumerate() {
                prop_assert_eq!(ev.step, (n - kept + j) as u64);
            }
            Ok(())
        });
}

#[test]
fn capacity_one_always_holds_the_latest_event() {
    property("capacity_one_always_holds_the_latest_event")
        .cases(100)
        .run(|tc| {
            let n = tc.int_in(1usize..40);
            let rec = TraceRecorder::new(TraceConfig {
                capacity: 1,
                deterministic: true,
                profile: false,
            });
            for i in 0..n {
                rec.record_at(i as u64, TraceKind::BudgetTrip, "steps", "");
            }
            let rep = rec.report();
            prop_assert_eq!(rep.events.len(), 1);
            prop_assert_eq!(rep.events[0].step, (n - 1) as u64);
            prop_assert_eq!(rep.dropped, (n - 1) as u64);
            Ok(())
        });
}

/// The corpus driver's merge model: each "worker" owns a private ring
/// (step-ordered within itself, as interpreter events are), and the
/// per-worker reports fold together in corpus order. The merged stream
/// must not depend on how events were distributed across workers.
#[test]
fn per_thread_rings_merge_deterministically_in_step_order() {
    property("per_thread_rings_merge_deterministically_in_step_order")
        .cases(150)
        .run(|tc| {
            // A step-sorted master sequence of events.
            let mut steps: Vec<u64> = (0..tc.int_in(0usize..30))
                .map(|_| tc.int_in(0u64..1_000))
                .collect();
            steps.sort_unstable();
            let master: Vec<TraceEvent> = steps.iter().map(|s| event(tc, *s)).collect();

            // Split it across a varying number of workers round-robin — a
            // different interleaving than contiguous chunks — and merge.
            let workers = tc.int_in(1usize..5);
            let mut parts = vec![Vec::new(); workers];
            for (i, ev) in master.iter().enumerate() {
                parts[i % workers].push(ev.clone());
            }
            let parts: Vec<TraceReport> = parts
                .into_iter()
                .map(|events| TraceReport { events, dropped: 0 })
                .collect();
            let merged = TraceReport::merged(&parts);

            // Also merge the contiguous-chunk split.
            let chunk = master.len().div_ceil(workers).max(1);
            let chunked: Vec<TraceReport> = master
                .chunks(chunk)
                .map(|c| TraceReport {
                    events: c.to_vec(),
                    dropped: 0,
                })
                .collect();
            let merged2 = TraceReport::merged(&chunked);

            // Both merges are step-sorted; step multisets agree with the
            // master sequence.
            let merged_steps: Vec<u64> = merged.events.iter().map(|e| e.step).collect();
            prop_assert_eq!(&merged_steps, &steps);
            let merged2_steps: Vec<u64> = merged2.events.iter().map(|e| e.step).collect();
            prop_assert_eq!(&merged2_steps, &steps);
            // With all-distinct steps the two merges are byte-identical.
            let distinct = {
                let mut d = steps.clone();
                d.dedup();
                d.len() == steps.len()
            };
            if distinct {
                prop_assert_eq!(
                    merged.to_json().to_string(),
                    merged2.to_json().to_string()
                );
            }
            Ok(())
        });
}

#[test]
fn trace_report_json_roundtrips() {
    property("trace_report_json_roundtrips").cases(200).run(|tc| {
        let rep = TraceReport {
            events: (0..tc.int_in(0usize..8))
                .map(|_| {
                    let step = tc.int_in(0u64..MAX_EXACT);
                    event(tc, step)
                })
                .collect(),
            dropped: tc.int_in(0u64..MAX_EXACT),
        };
        let text = rep.to_json().to_string();
        let back = TraceReport::from_json(&Json::parse(&text).expect("trace JSON reparses"))
            .expect("trace JSON has report shape");
        prop_assert_eq!(back, rep);
        Ok(())
    });
}

/// The Chrome export must always be valid JSON with the trace-event shape:
/// a `traceEvents` array whose entries all carry `name`/`ph`/`ts`/`pid`/
/// `tid`, span events using balanced-by-construction `B`/`E` phases and
/// everything else `i`, and deterministic events using the step index as
/// their timestamp.
#[test]
fn chrome_trace_export_is_valid() {
    property("chrome_trace_export_is_valid").cases(150).run(|tc| {
        let deterministic = tc.bool();
        let events: Vec<TraceEvent> = (0..tc.int_in(0usize..10))
            .map(|_| {
                let step = tc.int_in(0u64..MAX_EXACT);
                let mut ev = event(tc, step);
                if deterministic {
                    ev.wall_ns = 0;
                }
                ev
            })
            .collect();
        let rep = TraceReport { events, dropped: tc.int_in(0u64..100) };
        let text = rep.to_chrome_trace().to_string();
        let doc = Json::parse(&text).expect("chrome export reparses");
        let Some(Json::Arr(evs)) = doc.get("traceEvents") else {
            return Err("traceEvents is not an array".into());
        };
        prop_assert_eq!(evs.len(), rep.events.len());
        for (ev, src) in evs.iter().zip(&rep.events) {
            for field in ["name", "cat", "ph", "ts", "pid", "tid", "args"] {
                prop_assert!(ev.get(field).is_some(), "missing {field}: {ev:?}");
            }
            let ph = String::from_json(ev.get("ph").unwrap()).unwrap();
            let want = match src.kind {
                TraceKind::SpanBegin => "B",
                TraceKind::SpanEnd => "E",
                _ => "i",
            };
            prop_assert_eq!(&ph, want);
            let ts = match ev.get("ts").unwrap() {
                Json::Num(x) => *x,
                other => return Err(format!("ts not a number: {other:?}")),
            };
            if deterministic {
                prop_assert_eq!(ts, src.step as f64);
            }
            let step = ev.get("args").unwrap().get("step").unwrap();
            prop_assert_eq!(step, &Json::Num(src.step as f64));
        }
        Ok(())
    });
}

/// Deterministic-mode exports are a pure function of the event stream:
/// re-exporting the re-parsed report reproduces identical bytes.
#[test]
fn chrome_trace_deterministic_export_is_stable() {
    property("chrome_trace_deterministic_export_is_stable")
        .cases(100)
        .run(|tc| {
            let rep = TraceReport {
                events: (0..tc.int_in(0usize..8))
                    .map(|_| {
                        let step = tc.int_in(0u64..MAX_EXACT);
                        let mut ev = event(tc, step);
                        ev.wall_ns = 0;
                        ev
                    })
                    .collect(),
                dropped: 0,
            };
            let first = rep.to_chrome_trace().to_string();
            let back =
                TraceReport::from_json(&Json::parse(&rep.to_json().to_string()).unwrap()).unwrap();
            prop_assert_eq!(back.to_chrome_trace().to_string(), first);
            Ok(())
        });
}
