//! Every workload, scaled down to a fraction of a second: it finishes, its
//! output check passes, and it prints every metric it is meant to print
//! exactly once with a finite value — untraced and traced.

use ntx_e2e::report::{parse_metric_line, END_TO_END, PER_LAYER};
use ntx_e2e::workloads::Workload;
use std::process::Command;

/// Run one workload in a child process and return what it printed.
fn run(workload: Workload, trace: bool) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_ntx-e2e"));
    cmd.args(["run", "--workload", workload.name(), "--seed", "7"])
        .args(["--seconds", "0.5", "--warmup-scale", "0.01"])
        .args(["--trace", if trace { "1" } else { "0" }]);
    let out = cmd.output().expect("start the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{} failed:\n{stdout}\n{}",
        workload.name(),
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The printed metrics must be exactly `names`, each once, each finite, and
/// the result line must carry the same names and say the run was correct.
fn check(workload: Workload, stdout: &str, names: &[&str], also_printed: &[&str]) {
    let mut seen: Vec<&str> = Vec::new();
    for (w, name, value, _unit) in stdout.lines().filter_map(parse_metric_line) {
        assert_eq!(w, workload.name());
        assert!(value.is_finite(), "{name} = {value}");
        seen.push(name);
    }
    let mut want: Vec<&str> = names.iter().chain(also_printed).copied().collect();
    seen.sort_unstable();
    want.sort_unstable();
    assert_eq!(
        seen,
        want,
        "{}: every named metric exactly once",
        workload.name()
    );

    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ")
            && result.contains("\"failed\": 0, \"metrics\": {"),
        "{result}"
    );
    for name in names {
        assert_eq!(
            result
                .matches(&format!("\"{name}\": {{\"value\": "))
                .count(),
            1
        );
    }
    assert_eq!(result.matches("\"value\": ").count(), names.len());
}

fn smoke(workload: Workload) {
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    // Printed by an untraced run but not among the driver's end-to-end
    // metrics: the tail, and what the recovery stage measures.
    let also_printed: &[&str] = match workload {
        Workload::InprocDurable => &["tx_p99_us", "recover_s", "wal_bytes_per_tx"],
        _ => &["tx_p99_us"],
    };
    check(workload, &run(workload, false), &end_to_end, also_printed);

    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let traced = run(workload, true);
    check(workload, &traced, &per_layer, &[]);
    let trace_file = traced
        .lines()
        .find_map(|l| l.strip_prefix(&format!("info {}/trace_file ", workload.name())))
        .and_then(|rest| rest.split_whitespace().next())
        .expect("the traced run names its span file");
    let spans = std::fs::read_to_string(trace_file).expect("read the span file");
    assert!(spans.lines().count() > 10, "{trace_file} holds spans");
    assert!(spans
        .lines()
        .all(|l| l.starts_with("{\"id\":") && l.ends_with('}')));
}

#[test]
fn wire_pingpong() {
    smoke(Workload::WirePingpong);
}

#[test]
fn wire_pipelined() {
    smoke(Workload::WirePipelined);
}

#[test]
fn inproc_uniform() {
    smoke(Workload::InprocUniform);
}

#[test]
fn inproc_hot() {
    smoke(Workload::InprocHot);
}

#[test]
fn async_deep() {
    smoke(Workload::AsyncDeep);
}

#[test]
fn inproc_durable() {
    smoke(Workload::InprocDurable);
}

#[test]
fn bad_command_lines_are_refused_without_a_result() {
    for args in [
        &["run"][..],
        &["run", "--workload", "nope"],
        &["run", "--workload", "inproc_hot", "--seconds", "0"],
        &["run", "--workload", "inproc_hot", "--trace"],
        &["run", "--workload", "inproc_hot", "--slice-s", "1"],
        &["frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ntx-e2e"))
            .args(args)
            .output()
            .expect("start the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
