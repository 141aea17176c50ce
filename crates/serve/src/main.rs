//! The `aji-serve` binary: daemon mode and a one-shot client.
//!
//! ```text
//! # daemon
//! aji-serve --socket /tmp/aji.sock [--store hints.json] [--seed N]
//!
//! # client (one request per invocation; response frame on stdout)
//! aji-serve --client /tmp/aji.sock --op analyze --name callback-hub
//! aji-serve --client /tmp/aji.sock --op analyze --project-file p.json --dynamic
//! aji-serve --client /tmp/aji.sock --op invalidate --name p --path lib/a.js
//! aji-serve --client /tmp/aji.sock --op stats
//! aji-serve --client /tmp/aji.sock --op shutdown
//! aji-serve --client /tmp/aji.sock --request '{"op":"stats"}'
//! ```
//!
//! The client exits 0 when the response frame has `"ok": true`, 1 on a
//! request-level error, 2 on usage or transport problems. See DAEMON.md
//! for the protocol reference.

use std::process::ExitCode;

use aji_support::{wire, Json};

fn usage() -> &'static str {
    "usage:\n  aji-serve --socket PATH [--store FILE] [--seed N]\n  aji-serve --client SOCKET (--request JSON | --op OP [--name NAME | --project-file FILE] [--path FILE] [--dynamic] [--obs])"
}

struct Cli {
    socket: Option<String>,
    client: Option<String>,
    store: Option<String>,
    seed: u64,
    request: Option<String>,
    op: Option<String>,
    name: Option<String>,
    project_file: Option<String>,
    path: Option<String>,
    dynamic: bool,
    obs: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        socket: None,
        client: None,
        store: None,
        seed: 0,
        request: None,
        op: None,
        name: None,
        project_file: None,
        path: None,
        dynamic: false,
        obs: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--socket" => cli.socket = Some(value("--socket")?),
            "--client" => cli.client = Some(value("--client")?),
            "--store" => cli.store = Some(value("--store")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_string())?;
            }
            "--request" => cli.request = Some(value("--request")?),
            "--op" => cli.op = Some(value("--op")?),
            "--name" => cli.name = Some(value("--name")?),
            "--project-file" => cli.project_file = Some(value("--project-file")?),
            "--path" => cli.path = Some(value("--path")?),
            "--dynamic" => cli.dynamic = true,
            "--obs" => cli.obs = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(cli)
}

/// Builds the request frame from client flags.
fn build_request(cli: &Cli) -> Result<Json, String> {
    if let Some(raw) = &cli.request {
        return Json::parse(raw).map_err(|e| format!("--request is not valid JSON: {e}"));
    }
    let Some(op) = &cli.op else {
        return Err(format!("client mode needs --op or --request\n{}", usage()));
    };
    let mut pairs = vec![("op".to_string(), Json::Str(op.clone()))];
    if let Some(name) = &cli.name {
        pairs.push(("name".to_string(), Json::Str(name.clone())));
    }
    if let Some(file) = &cli.project_file {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file} is not valid JSON: {e}"))?;
        pairs.push(("project".to_string(), doc));
    }
    if let Some(path) = &cli.path {
        pairs.push(("path".to_string(), Json::Str(path.clone())));
    }
    if cli.dynamic {
        pairs.push(("dynamic".to_string(), Json::Bool(true)));
    }
    if cli.obs {
        pairs.push(("obs".to_string(), Json::Bool(true)));
    }
    Ok(Json::Obj(pairs))
}

fn run_client(socket: &str, cli: &Cli) -> ExitCode {
    let req = match build_request(cli) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("aji-serve: {e}");
            return ExitCode::from(2);
        }
    };
    match wire::request(socket, &req) {
        Ok(resp) => {
            println!("{resp}");
            if resp.get("ok") == Some(&Json::Bool(true)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("aji-serve: request failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(unix)]
fn run_daemon(socket: &str, cli: &Cli) -> ExitCode {
    use std::os::unix::net::UnixListener;
    let opts = aji_serve::EngineOptions {
        seed: cli.seed,
        store_path: cli.store.as_ref().map(std::path::PathBuf::from),
        ..aji_serve::EngineOptions::default()
    };
    let mut engine = aji_serve::Engine::new(opts);
    // A stale socket file from a crashed daemon would make bind fail.
    let _ = std::fs::remove_file(socket);
    let listener = match UnixListener::bind(socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("aji-serve: cannot bind {socket}: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("aji-serve: listening on {socket}");
    let outcome = aji_serve::serve(&listener, &mut engine);
    let _ = std::fs::remove_file(socket);
    match outcome {
        Ok(()) => {
            eprintln!("aji-serve: shut down cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("aji-serve: accept loop failed: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(not(unix))]
fn run_daemon(_socket: &str, _cli: &Cli) -> ExitCode {
    eprintln!("aji-serve: daemon mode needs Unix sockets");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (&cli.client, &cli.socket) {
        (Some(socket), None) => run_client(&socket.clone(), &cli),
        (None, Some(socket)) => run_daemon(&socket.clone(), &cli),
        _ => {
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
    }
}
