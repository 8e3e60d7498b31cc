//! `perfbench` — the repository benchmark (see `BENCHMARK.json` at the
//! repository root, and `WORKLOADS.json` in this package for what each
//! workload runs and what each metric means on it).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <scale-skewed|grid-distinct|daemon-edit|all> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is the separate traced run that reports per-layer self times
//! and counts and writes its spans to `perfbench/out/`. Every run ends with
//! output checks; a failed check counts in `failed` and fails the run. The
//! last line of standard output is the JSON result. `--smoke` runs every
//! phase once on a tiny input, untimed — the benchmark's own test.
//!
//! In-process work runs through the public session API on one worker
//! thread; daemon-edit pins its client and server threads to one CPU. The
//! benchmark refuses to run
//! when any `SPECSLICE_*` variable is set, since those change what is
//! measured.

mod checks;
mod daemon;
mod inproc;
mod measure;
mod trace;
mod traced;
mod workload;

use measure::Report;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::{Kind, Run, Size};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str = "usage: perfbench --workload <scale-skewed|grid-distinct|daemon-edit|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => out.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// Runs every workload in its own child process, so each one's peak RSS is
/// its own.
fn run_all(args: &[String]) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for kind in Kind::ALL {
        let mut child_args = args.to_vec();
        if let Some(i) = child_args.iter().position(|a| a == "--workload") {
            child_args[i + 1] = kind.name().to_string();
        }
        println!("== {}", kind.name());
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPECSLICE_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: SPECSLICE_* variables change the \
             configuration under test; unset them and run again",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    let Some(kind) = Kind::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };

    // Work from the package directory: socket and trace paths stay short,
    // relative, and inside the checkout.
    let out_dir = PathBuf::from("out");
    if let Err(e) = std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .and_then(|()| std::fs::create_dir_all(&out_dir))
    {
        eprintln!(
            "perfbench: preparing {}/out: {e}",
            env!("CARGO_MANIFEST_DIR")
        );
        return ExitCode::FAILURE;
    }
    let pid = std::process::id();
    let socket = out_dir.join(format!("{pid}.sock"));
    let run = Run {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        size: if args.smoke { Size::SMOKE } else { Size::FULL },
        smoke: args.smoke,
    };

    let mut report = Report::new();
    if args.trace {
        let trace_path = out_dir.join(format!("trace-{}.json", kind.name()));
        traced::run(&run, &socket, &trace_path, &mut report);
    } else if kind == Kind::DaemonEdit {
        daemon::run(&run, &socket, &mut report);
    } else {
        inproc::run(&run, &mut report);
    }
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
