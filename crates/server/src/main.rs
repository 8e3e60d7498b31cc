//! The `specslice-server` binary: parse flags, bind, serve until a client
//! sends `shutdown`.

use specslice_server::{run, Bind, ServerConfig, DEFAULT_MAX_FRAME};
use std::process::ExitCode;

const USAGE: &str = "\
specslice-server — long-lived specialization-slicing daemon

USAGE:
    specslice-server (--tcp ADDR | --unix PATH) [OPTIONS]

OPTIONS:
    --tcp ADDR            listen on a TCP address (e.g. 127.0.0.1:7878;
                          port 0 lets the OS pick — the bound address is
                          printed on startup)
    --unix PATH           listen on a unix-domain socket at PATH
    --snapshot-dir DIR    persist session snapshots under DIR (enables
                          warm restarts)
    --budget-bytes N      evict cold sessions (LRU) once the summed session
                          estimate exceeds N bytes
    --threads N           worker threads per session batch, a positive
                          integer (default: available parallelism)
    --max-frame N         maximum request/response frame size in bytes
                          (default 16 MiB)
    --help                print this help
";

fn fail(message: &str) -> ExitCode {
    eprintln!("specslice-server: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut bind: Option<Bind> = None;
    let mut snapshot_dir = None;
    let mut budget_bytes = None;
    let mut threads = None;
    let mut max_frame = DEFAULT_MAX_FRAME;

    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--tcp" => match value("--tcp") {
                Ok(v) => bind = Some(Bind::Tcp(v)),
                Err(e) => return fail(&e),
            },
            "--unix" => match value("--unix") {
                Ok(v) => bind = Some(Bind::Unix(v.into())),
                Err(e) => return fail(&e),
            },
            "--snapshot-dir" => match value("--snapshot-dir") {
                Ok(v) => snapshot_dir = Some(v.into()),
                Err(e) => return fail(&e),
            },
            "--budget-bytes" => match value("--budget-bytes").map(|v| v.parse::<usize>()) {
                Ok(Ok(v)) => budget_bytes = Some(v),
                Ok(Err(e)) => return fail(&format!("--budget-bytes: {e}")),
                Err(e) => return fail(&e),
            },
            "--threads" => match value("--threads").map(|v| specslice_exec::parse_thread_count(&v))
            {
                Ok(Ok(v)) => threads = Some(v),
                Ok(Err(e)) => return fail(&format!("--threads: {e}")),
                Err(e) => return fail(&e),
            },
            "--max-frame" => match value("--max-frame").map(|v| v.parse::<usize>()) {
                Ok(Ok(v)) => max_frame = v,
                Ok(Err(e)) => return fail(&format!("--max-frame: {e}")),
                Err(e) => return fail(&e),
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown flag `{other}`")),
        }
    }

    let Some(bind) = bind else {
        return fail("a listen address is required (--tcp or --unix)");
    };

    let config = ServerConfig {
        bind,
        snapshot_dir,
        budget_bytes,
        threads,
        max_frame,
    };
    match run(config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specslice-server: {e}");
            ExitCode::FAILURE
        }
    }
}
