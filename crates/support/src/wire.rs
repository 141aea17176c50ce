//! Line-delimited JSON framing over byte streams and Unix sockets.
//!
//! The `aji serve` daemon speaks the simplest possible RPC framing: one
//! request per line, one response per line, each line a complete JSON
//! document (see DAEMON.md at the repo root for the request catalogue).
//! This module owns the three pieces every peer needs, implemented on
//! `std` only (`std::os::unix::net` for sockets):
//!
//! * [`write_frame`] / [`read_frame`] — encode/decode one frame over any
//!   `Write`/`BufRead` pair (the daemon's accept loop uses these);
//! * [`request`] — the one-shot client call: connect to a Unix socket,
//!   send one request, read one response, close. Experiment binaries in
//!   `--daemon` mode are thin wrappers around this;
//! * [`WireError`] — transport and protocol errors, kept separate from
//!   request-level `{"ok": false}` errors, which are *valid* frames.
//!
//! Frames never contain raw newlines — the JSON printer escapes them
//! inside strings (`\n`), so `'\n'` is unambiguous as a frame
//! terminator.
//!
//! # Example
//!
//! ```
//! use aji_support::{wire, Json};
//!
//! let mut buf = Vec::new();
//! wire::write_frame(&mut buf, &Json::obj(vec![("op", Json::Str("stats".into()))])).unwrap();
//! assert_eq!(buf, b"{\"op\":\"stats\"}\n");
//!
//! let mut reader = std::io::BufReader::new(&buf[..]);
//! let frame = wire::read_frame(&mut reader).unwrap().unwrap();
//! assert_eq!(frame.get("op").and_then(Json::as_str), Some("stats"));
//! assert!(wire::read_frame(&mut reader).unwrap().is_none()); // EOF
//! ```

use crate::json::{Json, JsonError};
use std::fmt;
use std::io::{self, BufRead, Write};

/// Transport- or framing-level failure of one wire operation.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (connect, read or write).
    Io(io::Error),
    /// A frame arrived but its bytes are not valid JSON.
    Protocol(JsonError),
    /// The peer closed the stream where a response frame was required.
    Closed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Protocol(e) => write!(f, "malformed frame: {e}"),
            WireError::Closed => write!(f, "connection closed before a response arrived"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Writes one frame: the document's compact JSON rendering plus `'\n'`,
/// then flushes, so a blocked peer sees the frame immediately.
///
/// # Errors
///
/// Any error of the underlying writer.
pub fn write_frame<W: Write>(w: &mut W, doc: &Json) -> io::Result<()> {
    let mut text = doc.to_string();
    text.push('\n');
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer is done), `Err(WireError::Protocol)` if a line
/// arrives that is not valid JSON.
///
/// # Errors
///
/// [`WireError::Io`] on stream failure, [`WireError::Protocol`] on a
/// non-JSON line.
pub fn read_frame<R: BufRead>(r: &mut R) -> Result<Option<Json>, WireError> {
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(None);
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        // A blank line is a keep-alive no-op frame boundary; skip it.
        if !trimmed.is_empty() {
            return Json::parse(trimmed).map(Some).map_err(WireError::Protocol);
        }
    }
}

/// One-shot request over a Unix socket: connect to `socket_path`, send
/// `req` as a single frame, read a single response frame, close.
///
/// Every call opens a fresh connection, so concurrent callers serialize
/// on the daemon's accept loop without coordinating with each other —
/// that is what makes client-side fan-out (`--daemon` with `--threads 4`)
/// deterministic: responses depend only on request content, never on
/// connection interleaving.
///
/// # Errors
///
/// [`WireError::Io`] if the socket is absent or refuses,
/// [`WireError::Closed`] if the daemon hangs up without responding,
/// [`WireError::Protocol`] on a malformed response.
#[cfg(unix)]
pub fn request(socket_path: &str, req: &Json) -> Result<Json, WireError> {
    use std::os::unix::net::UnixStream;
    let stream = UnixStream::connect(socket_path)?;
    let mut writer = stream.try_clone()?;
    write_frame(&mut writer, req)?;
    let mut reader = io::BufReader::new(stream);
    read_frame(&mut reader)?.ok_or(WireError::Closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip_over_buffer() {
        let doc = Json::obj(vec![
            ("op", Json::Str("analyze".into())),
            ("text", Json::Str("line1\nline2".into())),
        ]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        write_frame(&mut buf, &Json::Bool(true)).unwrap();
        // Embedded newline is escaped, so exactly two frames exist.
        assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), 2);
        let mut r = io::BufReader::new(&buf[..]);
        let first = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            first.get("text").and_then(Json::as_str),
            Some("line1\nline2")
        );
        assert_eq!(read_frame(&mut r).unwrap(), Some(Json::Bool(true)));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn blank_lines_are_skipped() {
        let bytes = b"\n\n{\"ok\":true}\n";
        let mut r = io::BufReader::new(&bytes[..]);
        let frame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn a_long_run_of_blank_lines_does_not_grow_the_stack() {
        let mut bytes = "\n".repeat(200_000).into_bytes();
        bytes.extend_from_slice(b"\r\n{\"ok\":true}\n");
        let mut r = io::BufReader::new(&bytes[..]);
        let frame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame.get("ok"), Some(&Json::Bool(true)));
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn garbage_is_a_protocol_error() {
        let bytes = b"{not json}\n";
        let mut r = io::BufReader::new(&bytes[..]);
        assert!(matches!(read_frame(&mut r), Err(WireError::Protocol(_))));
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_request_roundtrips() {
        use std::os::unix::net::UnixListener;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("aji-wire-test-{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = io::BufReader::new(stream.try_clone().unwrap());
            let req = read_frame(&mut reader).unwrap().unwrap();
            let mut w = stream;
            write_frame(
                &mut w,
                &Json::obj(vec![("echo", req.get("op").cloned().unwrap_or(Json::Null))]),
            )
            .unwrap();
        });
        let resp = request(
            &path_str,
            &Json::obj(vec![("op", Json::Str("stats".into()))]),
        )
        .unwrap();
        assert_eq!(resp.get("echo").and_then(Json::as_str), Some("stats"));
        server.join().unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
