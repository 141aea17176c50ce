//! Analysis-as-a-service: the `aji serve` daemon.
//!
//! Every experiment binary in this workspace is batch-shaped: parse the
//! corpus, analyze, print, exit — and the most expensive phase
//! (approximate interpretation, §5) is recomputed from scratch on every
//! run even when nothing changed. This crate turns the pipeline into a
//! long-lived service with an incremental core:
//!
//! * [`Engine`] — dispatches the request catalogue (`analyze`, `oracle`,
//!   `invalidate`, `stats`, `save`, `shutdown`) over a [`HintStore`];
//! * [`HintStore`] — three content-hash-keyed cache layers (per-file
//!   parses, solved hint sets, whole responses) with deterministic JSON
//!   snapshots that survive daemon restarts;
//! * [`serve`] — the Unix-socket accept loop speaking line-delimited
//!   JSON ([`aji_support::wire`]).
//!
//! The contract that makes caching safe to trust: **a warm response is
//! byte-identical to a cold one.** Cache keys embed a digest of the full
//! project content and a fingerprint of every result-affecting option,
//! so stale hits are structurally impossible, and the cached value is
//! the same deterministic `metrics_json` payload a fresh pipeline
//! produces. `tests/daemon_determinism.rs` pins both properties, and
//! the protocol reference in `DAEMON.md` documents the exact request
//! and response shapes with examples.
//!
//! The daemon is single-threaded by design — modules are `Rc` trees and
//! the solver is already fast once hints are cached — and concurrent
//! clients each open their own connection per request, so responses
//! depend only on request content, never on connection interleaving.
//! That is what keeps `--daemon` runs of the experiment binaries
//! byte-identical at any client thread count.
//!
//! # Example
//!
//! ```
//! use aji_serve::{Engine, EngineOptions};
//! use aji_support::Json;
//!
//! let mut engine = Engine::new(EngineOptions::default());
//! let (resp, _shutdown) = engine.handle(&Json::obj(vec![
//!     ("op", Json::Str("stats".into())),
//! ]));
//! assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod store;

pub use engine::{Engine, EngineOptions};
pub use store::{HintStore, Invalidated, StoreStats};

use std::io::{self, BufReader};

use aji_support::{wire, Json};

/// Runs the accept loop until a `shutdown` request arrives.
///
/// Connections are served one at a time (the engine is single-threaded);
/// each connection may carry any number of request frames. A transport
/// error on one connection drops that connection, not the daemon; a
/// malformed (non-JSON) frame is answered with an error frame and the
/// connection closed, since framing can no longer be trusted.
///
/// # Errors
///
/// Only listener-level accept failures abort the loop.
#[cfg(unix)]
pub fn serve(
    listener: &std::os::unix::net::UnixListener,
    engine: &mut Engine,
) -> io::Result<()> {
    for conn in listener.incoming() {
        let stream = conn?;
        match serve_connection(stream, engine) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            Err(e) => eprintln!("aji-serve: connection error: {e}"),
        }
    }
    Ok(())
}

/// Serves one connection to completion. Returns `Ok(true)` if a
/// `shutdown` request was handled.
#[cfg(unix)]
fn serve_connection(
    stream: std::os::unix::net::UnixStream,
    engine: &mut Engine,
) -> Result<bool, wire::WireError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    loop {
        match wire::read_frame(&mut reader) {
            Ok(None) => return Ok(false),
            Ok(Some(req)) => {
                let (resp, shutdown) = engine.handle(&req);
                // A vanished client must not take the daemon down.
                if wire::write_frame(&mut writer, &resp).is_err() {
                    return Ok(shutdown);
                }
                if shutdown {
                    return Ok(true);
                }
            }
            Err(wire::WireError::Protocol(e)) => {
                let frame = Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    ("op", Json::Str("?".into())),
                    ("error", Json::Str(format!("malformed frame: {e}"))),
                ]);
                let _ = wire::write_frame(&mut writer, &frame);
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    fn temp_socket(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("aji-serve-lib-{tag}-{}.sock", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    /// Spawn an in-process daemon; the engine lives inside the thread
    /// (it is not `Send` — modules are `Rc` trees).
    fn spawn_daemon(path: &str) -> std::thread::JoinHandle<()> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path).unwrap();
        std::thread::spawn(move || {
            let mut engine = Engine::new(EngineOptions::default());
            serve(&listener, &mut engine).unwrap();
        })
    }

    #[test]
    fn stats_roundtrip_and_clean_shutdown() {
        let path = temp_socket("stats");
        let daemon = spawn_daemon(&path);
        let resp = wire::request(
            &path,
            &Json::obj(vec![("op", Json::Str("stats".into()))]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        let resp = wire::request(
            &path,
            &Json::obj(vec![("op", Json::Str("shutdown".into()))]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        daemon.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_frames_get_an_error_and_do_not_kill_the_daemon() {
        use std::io::Write;
        let path = temp_socket("garbage");
        let daemon = spawn_daemon(&path);
        // Raw garbage on one connection…
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        stream.write_all(b"{not json}\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = wire::read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        drop(stream);
        // …leaves the daemon serving the next one.
        let resp = wire::request(
            &path,
            &Json::obj(vec![("op", Json::Str("shutdown".into()))]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        daemon.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
