//! Every workload end to end at a tiny size: all four phases and every
//! check, in seconds. Each run must pass its checks, fail no operation,
//! report every `BENCHMARK.json` metric of its mode by name and unit,
//! and read above 0 on every end-to-end metric.

use std::path::PathBuf;

use kbench::run::Options;
use kbench::workload::Workload;
use kbench::Report;
use serde_json::Value;

fn tiny(workload: Workload, trace: bool) -> Report {
    // Each test gets its own root: runs of one workload share a
    // per-process scratch directory name under it.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "tiny-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let options = Options {
        workload,
        seed: 5,
        seconds: 1,
        trace,
        tiny: true,
        root: root.clone(),
    };
    let report = kbench::execute(&options).expect("the run completes");
    let _ = std::fs::remove_dir_all(root);
    report
}

/// `(name, unit)` of every metric `section` of BENCHMARK.json lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn assert_clean(report: &Report) {
    assert!(report.correct, "checks failed: {:#?}", report.notes);
    assert_eq!(report.failed, 0, "failed operations");
    assert!(report.attempted > 0);
    let line: Value = serde_json::from_str(&report.json_line()).expect("the result line is JSON");
    assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
}

fn end_to_end(workload: Workload) {
    let report = tiny(workload, false);
    assert_clean(&report);
    assert_eq!(reported(&report), declared("end_to_end"));
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} reads {}", m.name, m.value);
    }
}

fn traced(workload: Workload) {
    let report = tiny(workload, true);
    assert_clean(&report);
    assert_eq!(reported(&report), declared("per_layer"));
    assert!(report.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn heavy_tail_end_to_end() {
    end_to_end(Workload::HeavyTail);
}

#[test]
fn large_graph_end_to_end() {
    end_to_end(Workload::LargeGraph);
}

#[test]
fn small_graph_end_to_end() {
    end_to_end(Workload::SmallGraph);
}

#[test]
fn heavy_tail_traced() {
    traced(Workload::HeavyTail);
}

#[test]
fn large_graph_traced() {
    traced(Workload::LargeGraph);
}

#[test]
fn small_graph_traced() {
    traced(Workload::SmallGraph);
}
