//! The benchmark's own smoke test: every workload at tiny size.
//!
//! ```text
//! cargo test --release --offline --manifest-path paxbench/Cargo.toml
//! ```
//!
//! Checks that each run emits exactly the metrics `BENCHMARK.json`
//! names, each with its unit, and that deliberate faults — a corrupted
//! design point, a wrong served class — are counted as failures.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["paper_flow", "joint_search", "serve_mixed"];

/// Runs one tiny workload and returns its result line.
fn run(workload: &str, trace: bool, inject: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_paxbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }, "--inject", inject])
        .output()
        .expect("run paxbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_owned()
}

/// Every `"<key>": "<value>"` string field in `text`, in order.
fn string_fields<'t>(text: &'t str, key: &str) -> Vec<&'t str> {
    let pat = format!("\"{key}\": \"");
    text.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &text[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{section}\": [")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section end")];
    let names = string_fields(body, "name");
    let units = string_fields(body, "unit");
    assert_eq!(names.len(), units.len(), "every metric declares a unit");
    names.into_iter().zip(units).map(|(n, u)| (n.to_owned(), u.to_owned())).collect()
}

/// `(name, unit)` of every metric in a result line, in order.
fn emitted(line: &str) -> Vec<(String, String)> {
    let metrics = &line[line.find("\"metrics\"").expect("metrics object")..];
    metrics
        .match_indices(": {\"value\": ")
        .map(|(i, _)| {
            let name_end = metrics[..i].rfind('"').expect("name end");
            let name_start = metrics[..name_end].rfind('"').expect("name start") + 1;
            let unit = string_fields(&metrics[i..], "unit")[0];
            (metrics[name_start..name_end].to_owned(), unit.to_owned())
        })
        .collect()
}

fn field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    let rest = &line[line.find(&pat).expect("field present") + pat.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len())].parse().expect("count")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let (end_to_end, per_layer) = (declared("end_to_end"), declared("per_layer"));
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let line = run(workload, trace, "none");
            assert_eq!(&emitted(&line), want, "{workload} --trace {}", u8::from(trace));
            assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
            assert_eq!(field(&line, "failed"), 0, "{workload}: {line}");
            assert!(field(&line, "attempted") >= 1);
        }
    }
}

#[test]
fn a_corrupted_design_point_is_counted() {
    let line = run("paper_flow", false, "point");
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(field(&line, "failed") >= 1, "{line}");
}

#[test]
fn a_wrong_served_class_is_counted() {
    let line = run("serve_mixed", false, "class");
    assert!(line.starts_with("{\"correct\": false"), "{line}");
    assert!(field(&line, "failed") >= 1, "{line}");
}

#[test]
fn environment_overrides_are_refused() {
    for var in ["PAX_SEARCH_SEED", "PAX_OBS_JOURNAL"] {
        let out = Command::new(env!("CARGO_BIN_EXE_paxbench"))
            .args(["--workload", "joint_search", "--seed", "1", "--seconds", "1"])
            .args(["--trace", "0", "--size", "tiny"])
            .env(var, "1")
            .output()
            .expect("run paxbench");
        assert!(!out.status.success(), "{var} must be refused");
        assert!(out.stdout.is_empty(), "no result line with {var} set");
    }
}
