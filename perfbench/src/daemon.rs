//! The `daemon` workload: one client drives a spawned `aji-serve` daemon
//! over its Unix socket, one request at a time.
//!
//! Set-up spawns the daemon and fills it cold with a static `analyze` of
//! every project. Then edit cycles repeat: rewrite one file, `invalidate`
//! it, a static `analyze` and a `"dynamic": true` `analyze` of the edited
//! sources. Every op is a cache miss on the response layer; reads of
//! unchanged projects (response-layer hits) are not part of the workload,
//! so hits and misses never share a percentile.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use aji::PipelineOptions;
use aji_ast::Project;
use aji_serve::{Engine, EngineOptions};
use aji_support::{Json, Rng};

use crate::spans::Spans;
use crate::stats::{peak_rss_kb, Latencies, Tally};
use crate::{corpus, Outcome, SETUPS};

/// The daemon side of a spawned process: the same engine and accept
/// loop the `aji-serve` binary runs, with its default options.
pub fn serve_mode(socket: &str) -> ExitCode {
    // The benchmark shuts its daemons down; should the benchmark itself
    // be killed first, the daemon must not outlive it.
    let parent = std::os::unix::process::parent_id();
    let watched = socket.to_string();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            let _ = std::fs::remove_file(&watched);
            std::process::exit(3);
        }
    });
    let mut engine = Engine::new(EngineOptions::default());
    let _ = std::fs::remove_file(socket);
    let listener = match UnixListener::bind(socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: cannot bind {socket}: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = aji_serve::serve(&listener, &mut engine);
    let _ = std::fs::remove_file(socket);
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: daemon accept loop failed: {e}");
            ExitCode::from(2)
        }
    }
}

/// A spawned daemon and the client's one connection to it. Dropping it
/// kills the daemon and waits for it to end.
struct Daemon {
    child: Child,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Daemon {
    fn spawn(socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--serve")
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) => {
                    let exited = child.try_wait().ok().flatten();
                    if exited.is_some() || Instant::now() >= deadline {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("daemon did not come up: {e} ({exited:?})"));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        };
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Daemon {
            child,
            writer: stream,
            reader,
        })
    }

    /// Sends one frame and reads the one-line response.
    fn request(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        let resp = self.request(r#"{"op":"stats"}"#)?;
        let doc = Json::parse(&resp).map_err(|e| e.to_string())?;
        doc.get("result")
            .and_then(|r| r.get("store"))
            .cloned()
            .ok_or_else(|| format!("stats frame without store counters: {resp}"))
    }

    /// Asks the daemon to shut down and waits for it to exit cleanly.
    fn shutdown(mut self) -> Result<(), String> {
        self.request(r#"{"op":"shutdown"}"#)?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Errors are moot here: the child has either exited already (a
        // clean shutdown) or is being torn down after a failure.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn analyze_frame(p: &Project, dynamic: bool) -> String {
    let mut pairs = vec![
        ("op", Json::Str("analyze".into())),
        ("project", p.to_json()),
    ];
    if dynamic {
        pairs.push(("dynamic", Json::Bool(true)));
    }
    Json::obj(pairs).to_string()
}

fn invalidate_frame(name: &str, path: &str) -> String {
    Json::obj(vec![
        ("op", Json::Str("invalidate".into())),
        ("name", Json::Str(name.into())),
        ("path", Json::Str(path.into())),
    ])
    .to_string()
}

/// The project population with its edit sites and the reference answers:
/// each `analyze` answer must be byte-identical to the frame a cold
/// `aji::run_benchmark` of the same sources gives.
struct Expected {
    projects: Vec<Project>,
    sites: Vec<Vec<usize>>,
    /// `(project, edit mask)` → (static frame, dynamic frame).
    frames: HashMap<(usize, u8), (String, String)>,
}

impl Expected {
    fn new(projects: Vec<Project>) -> Expected {
        let sites = projects.iter().map(corpus::edit_sites).collect();
        Expected {
            projects,
            sites,
            frames: HashMap::new(),
        }
    }

    fn project(&self, i: usize, mask: u8) -> Project {
        corpus::variant(&self.projects[i], &self.sites[i], mask)
    }

    /// The expected static and dynamic `analyze` responses for project
    /// `i` in edit state `mask`, computed on first use by one cold
    /// `run_benchmark` with the dynamic call graph on. A static answer is
    /// the same report without its `accuracy` field: the dynamic run
    /// changes nothing else in it.
    fn frames(&mut self, i: usize, mask: u8) -> &(String, String) {
        if !self.frames.contains_key(&(i, mask)) {
            let frame = |result: Json| {
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::Str("analyze".into())),
                    ("result", result),
                ])
                .to_string()
            };
            let pair = match aji::run_benchmark(
                &self.project(i, mask),
                &PipelineOptions::with_dynamic_cg(),
            ) {
                Ok(r) => {
                    let dynamic = r.metrics_json();
                    let static_pairs = dynamic
                        .as_obj()
                        .unwrap_or_default()
                        .iter()
                        .filter(|(k, _)| k != "accuracy")
                        .cloned()
                        .collect();
                    (frame(Json::Obj(static_pairs)), frame(dynamic))
                }
                Err(e) => (
                    format!("cold run failed: {e}"),
                    format!("cold run failed: {e}"),
                ),
            };
            self.frames.insert((i, mask), pair);
        }
        &self.frames[&(i, mask)]
    }

    fn check(
        &mut self,
        i: usize,
        mask: u8,
        dynamic: bool,
        got: &Result<String, String>,
    ) -> Result<(), String> {
        let (s, d) = self.frames(i, mask);
        check_frame(got, if dynamic { d } else { s })
    }
}

fn check_frame(got: &Result<String, String>, want: &str) -> Result<(), String> {
    match got {
        Ok(g) if g == want => Ok(()),
        Ok(g) => Err(format!(
            "answer differs from a cold run: {}",
            g.chars().take(120).collect::<String>()
        )),
        Err(e) => Err(e.clone()),
    }
}

fn check_ok(got: &Result<String, String>) -> Result<(), String> {
    let g = got.as_ref().map_err(Clone::clone)?;
    if g.starts_with(r#"{"ok":true"#) {
        Ok(())
    } else {
        Err(format!("request failed: {g}"))
    }
}

/// Replays one frame on the traced run's in-process replica — an
/// `Engine` fed the same frames as the daemon — timing `Json::parse` of
/// the request, `Engine::handle`, and `to_string` of the response.
fn replay(engine: &mut Engine, frame: &str, sp: Option<&mut Spans>) -> Result<String, String> {
    let t0 = Instant::now();
    let req = Json::parse(frame).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let (resp, _) = engine.handle(&req);
    let t2 = Instant::now();
    let text = resp.to_string();
    let t3 = Instant::now();
    if let Some(sp) = sp {
        sp.record("support.json_parse", t0, t1);
        sp.record("serve.handle", t1, t2);
        sp.record("support.json_emit", t2, t3);
    }
    Ok(text)
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

/// Runs the workload: `SETUPS` set-ups (spawn plus cold fill), then
/// timed ops against the last daemon until `seconds` have elapsed.
pub fn run(seed: u64, seconds: f64, trace: bool, start: Instant) -> Result<Outcome, String> {
    let socket = crate::work_dir().join(format!("daemon-{}.sock", std::process::id()));
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut daemon = None;
    let mut expected = Expected::new(Vec::new());
    let mut fill = Vec::new();
    for k in 0..SETUPS {
        let t0 = if k == 0 { start } else { Instant::now() };
        let projects = corpus::population(seed);
        fill = projects
            .iter()
            .map(|p| analyze_frame(p, false))
            .collect::<Vec<_>>();
        let mut d = Daemon::spawn(&socket)?;
        let answers: Vec<_> = fill.iter().map(|f| d.request(f)).collect();
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            expected = Expected::new(projects);
        }
        for (i, a) in answers.iter().enumerate() {
            let outcome = expected.check(i, 0, false, a);
            tally.record(&expected.projects[i].name, outcome);
        }
        if k + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let mut d = daemon.expect("SETUPS > 0");

    let mut replica = trace.then(|| Engine::new(EngineOptions::default()));
    if let Some(r) = &mut replica {
        for f in &fill {
            replay(r, f, None)?;
        }
    }

    let n = expected.projects.len();
    let mut masks = vec![0u8; n];
    let mut edits = vec![0usize; n];
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0xDAE_3011);
    let mut lat = Latencies::default();
    let mut untraced = Latencies::default();
    let mut sp = Spans::default();
    let mut frame_bytes = 0usize;
    let before = d.stats()?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut op = 0u64;
    // Whole passes over the population in a seeded order, so that every
    // project is sampled equally often. An edit flips one file between
    // its two variants; a project's edits alternate between its sites,
    // so each pass edits first and last files alike.
    while Instant::now() < deadline {
        rng.shuffle(&mut order);
        for &i in &order {
            // The request frames are built before the clock starts: they
            // are the client's input, not the system's work.
            let site = (i + edits[i]) % expected.sites[i].len();
            edits[i] += 1;
            masks[i] ^= 1 << site;
            let mask = masks[i];
            let key = 2 * i + site;
            let p = expected.project(i, mask);
            let path = &p.files[expected.sites[i][site]].path;
            let frames = [
                invalidate_frame(&p.name, path),
                analyze_frame(&p, false),
                analyze_frame(&p, true),
            ];
            // The traced run alternates traced and untraced ops; the
            // difference between them is the tracing overhead.
            let traced = trace && op.is_multiple_of(2);
            sp.set_op(op);
            op += 1;
            let t = Instant::now();
            let root = traced.then(|| sp.begin("op"));
            let answers: Vec<_> = frames
                .iter()
                .map(|f| {
                    if traced {
                        sp.time("serve.rtt", || d.request(f))
                    } else {
                        d.request(f)
                    }
                })
                .collect();
            match root {
                Some(root) => lat.push(key, sp.end(root)),
                None => untraced.push(key, t.elapsed().as_secs_f64() * 1e3),
            }

            let mut outcome = Ok(());
            if let Some(r) = &mut replica {
                let replay_span = traced.then(|| sp.begin("replay"));
                for (f, a) in frames.iter().zip(&answers) {
                    let same = replay(r, f, traced.then_some(&mut sp)).and_then(|text| {
                        if traced {
                            frame_bytes += f.len() + text.len();
                        }
                        check_frame(a, &text)
                    });
                    outcome = outcome.and(same.map_err(|e| format!("in-process replica: {e}")));
                }
                if let Some(id) = replay_span {
                    sp.end(id);
                }
            }
            outcome = outcome
                .and(check_ok(&answers[0]))
                .and(expected.check(i, mask, false, &answers[1]))
                .and(expected.check(i, mask, true, &answers[2]));
            tally.record(&expected.projects[i].name, outcome);
        }
    }
    let after = d.stats()?;
    let peak = peak_rss_kb(&d.child.id().to_string()).unwrap_or(0);
    d.shutdown()?;

    let (lat, layers) = if trace {
        crate::write_spans("daemon", &sp);
        let layers = layer_metrics(&sp, &lat, &untraced, &before, &after, op, frame_bytes);
        (lat, Some(layers))
    } else {
        (untraced, None)
    };
    Ok(Outcome {
        setup_s,
        lat,
        tally,
        peak_rss_kb: peak,
        layers,
    })
}

fn layer_metrics(
    sp: &Spans,
    traced: &Latencies,
    untraced: &Latencies,
    before: &Json,
    after: &Json,
    ops: u64,
    frame_bytes: usize,
) -> BTreeMap<&'static str, f64> {
    let traced_ops = traced.count().max(1) as f64;
    let self_ms = sp.self_ms();
    let per_op = |name: &str| self_ms.get(name).copied().unwrap_or(0.0) / traced_ops;
    let delta = |key: &str| counter(after, key).saturating_sub(counter(before, key));
    let ratio = |hits: &str, misses: &str| {
        let (h, m) = (delta(hits), delta(misses));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    };
    let mut m = BTreeMap::new();
    let handle = per_op("serve.handle");
    let parse = per_op("support.json_parse");
    let emit = per_op("support.json_emit");
    m.insert("serve.rtt_ms", per_op("serve.rtt"));
    m.insert("serve.handle_ms", handle);
    m.insert("serve.parse_hit_ratio", ratio("parse_hits", "parse_misses"));
    m.insert("serve.hint_hit_ratio", ratio("hint_hits", "hint_misses"));
    m.insert(
        "serve.response_hit_ratio",
        ratio("response_hits", "response_misses"),
    );
    m.insert(
        "serve.invalidations",
        delta("invalidations") as f64 / ops.max(1) as f64,
    );
    m.insert("support.json_parse_ms", parse);
    m.insert("support.json_emit_ms", emit);
    m.insert("support.frame_kb", frame_bytes as f64 / 1024.0 / traced_ops);
    // The daemon's layers are timed on the in-process replica, so what
    // they leave of the op is transport and the accept loop.
    m.insert(
        "core.unattributed_ms",
        traced.mean() - parse - handle - emit,
    );
    crate::insert_core(&mut m, traced, untraced);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference frames, including the static frame derived from the
    /// dynamic cold run, match an engine's answers cold and after edits.
    #[test]
    fn engine_answers_match_the_cold_reference() {
        let projects: Vec<Project> = corpus::population(0).into_iter().take(4).collect();
        let mut expected = Expected::new(projects);
        let mut engine = Engine::new(EngineOptions::default());
        let mut ask = |frame: &str| -> Result<String, String> {
            let req = Json::parse(frame).map_err(|e| e.to_string())?;
            Ok(engine.handle(&req).0.to_string())
        };
        for i in 0..4 {
            let cold = analyze_frame(&expected.project(i, 0), false);
            expected.check(i, 0, false, &ask(&cold)).unwrap();
            let mut mask = 0u8;
            // Flip every site on, then off again.
            for site in (0..expected.sites[i].len()).chain(0..expected.sites[i].len()) {
                mask ^= 1 << site;
                let p = expected.project(i, mask);
                let path = p.files[expected.sites[i][site]].path.clone();
                check_ok(&ask(&invalidate_frame(&p.name, &path))).unwrap();
                expected
                    .check(i, mask, false, &ask(&analyze_frame(&p, false)))
                    .unwrap();
                expected
                    .check(i, mask, true, &ask(&analyze_frame(&p, true)))
                    .unwrap();
            }
            assert_eq!(mask, 0);
        }
        assert!(expected.check(0, 0, false, &Ok("{}".into())).is_err());
        assert!(expected.check(0, 0, true, &Err("closed".into())).is_err());
        assert!(check_ok(&Ok(r#"{"ok":false,"op":"x"}"#.into())).is_err());
    }
}
