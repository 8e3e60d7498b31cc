//! The benchmark's own test: every workload in smoke mode (tiny inputs,
//! untimed), with and without tracing, must pass all of its output checks,
//! write its trace, and print a result line carrying exactly the metrics
//! `BENCHMARK.json` declares.

use specslice_server::Json;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::{Command, Output};

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(bench: &Json, section: &str) -> BTreeSet<String> {
    bench
        .get(section)
        .and_then(Json::as_array)
        .expect("section present")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("named")
                .to_string()
        })
        .collect()
}

fn perfbench(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    for (k, _) in std::env::vars() {
        if k.starts_with("SPECSLICE_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("perfbench runs")
}

#[test]
fn every_workload_passes_its_checks_in_smoke_mode() {
    let bench = benchmark();
    let end_to_end = names(&bench, "end_to_end");
    let per_layer = names(&bench, "per_layer");
    for workload in names(&bench, "workloads") {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = perfbench(
                &[
                    "--workload",
                    &workload,
                    "--seed",
                    "3",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ],
                &[],
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Json::as_i64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_i64) > Some(0));
            let Some(Json::Object(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(&got, expected, "{workload} --trace {trace}: metric names");
            if trace == "1" {
                let trace_file = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join(format!("out/trace-{workload}.json"));
                let spans = std::fs::read_to_string(&trace_file).expect("trace written");
                assert!(spans.contains("\"pds.saturate\""), "{workload}: no spans");
            }
        }
    }
}

#[test]
fn refuses_to_run_with_specslice_variables_set() {
    let out = perfbench(
        &[
            "--workload",
            "grid-distinct",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ],
        &[("SPECSLICE_SOLVER", "per-criterion")],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result may be printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("SPECSLICE_SOLVER"));
}
