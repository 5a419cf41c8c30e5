//! Self-test of the benchmark at tiny run lengths: every metric that
//! `BENCHMARK.json` names prints exactly once with its unit, the final line
//! is the JSON result object, and a tampered statistics fingerprint counts
//! as a failed operation.

use perfbench::{run, Checker, Workload, WORKLOADS};
use serde_json::Value;
use ucp_core::{SimConfig, Simulator};

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key:?}")),
        _ => panic!("not an object looking up {key:?}"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string: {v:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    }
}

/// `(name, unit)` of each metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
    let doc = serde_json::parse_value(&doc).expect("BENCHMARK.json parses");
    match field(&doc, section) {
        Value::Seq(metrics) => metrics
            .iter()
            .map(|m| (text(field(m, "name")).into(), text(field(m, "unit")).into()))
            .collect(),
        _ => panic!("{section} is not a list"),
    }
}

fn tiny(name: &str) -> Workload {
    let mut w = Workload::named(name, Some(7)).expect("known workload");
    w.warmup = 2_000;
    w.measure = 8_000;
    w
}

fn check_output(out: &str, section: &str) {
    let metrics = declared(section);
    for (name, unit) in &metrics {
        let prefix = format!("metric {name} = ");
        let lines: Vec<&str> = out.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(lines.len(), 1, "{name} printed {} times", lines.len());
        let value = lines[0][prefix.len()..]
            .strip_suffix(&format!(" {unit}"))
            .unwrap_or_else(|| panic!("{name} not printed with unit {unit}: {}", lines[0]));
        let value: f64 = value.parse().expect("metric value is a number");
        assert!(value.is_finite(), "{name} = {value}");
    }
    let last = out.lines().last().expect("output not empty");
    let result = serde_json::parse_value(last).expect("last line is JSON");
    assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
    assert!(matches!(field(&result, "correct"), Value::Bool(true)));
    assert!(matches!(field(&result, "attempted"), Value::U64(n) if *n >= 4));
    assert!(matches!(field(&result, "failed"), Value::U64(0)));
    let printed = field(&result, "metrics");
    let mut names: Vec<&str> = keys(printed);
    let mut want: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    want.sort_unstable();
    assert_eq!(names, want);
    for (name, unit) in &metrics {
        let m = field(printed, name);
        assert_eq!(text(field(m, "unit")), unit);
        assert!(matches!(
            field(m, "value"),
            Value::F64(_) | Value::U64(_) | Value::I64(_)
        ));
    }
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    for name in WORKLOADS {
        let w = tiny(name);
        check_output(
            &run(&w, 0.0, false).expect("untraced run").render(),
            "end_to_end",
        );
        check_output(
            &run(&w, 0.0, true).expect("traced run").render(),
            "per_layer",
        );
    }
}

#[test]
fn a_tampered_fingerprint_is_a_failed_operation() {
    let w = tiny("crypto_hot");
    let prog = w.specs[0].build();
    let out = Simulator::new(&prog, 7, &SimConfig::baseline())
        .run_full(w.warmup, w.measure)
        .expect("tiny run completes");
    let mut checker = Checker::default();
    let key = "crypto02/base/seed 0x7";
    assert!(checker.record(key, Ok((&out.stats, &out.telemetry)), w.measure));
    assert!(checker.record(key, Ok((&out.stats, &out.telemetry)), w.measure));
    let mut tampered = out.stats.clone();
    tampered.mode_switches += 1;
    assert!(!checker.record(key, Ok((&tampered, &out.telemetry)), w.measure));
    assert_eq!((checker.attempted, checker.failed), (3, 1));
    assert!(
        checker.failures[0].contains("fingerprint"),
        "{:?}",
        checker.failures
    );

    // The other checks: a short commit count and broken accounting.
    let mut short = out.stats.clone();
    short.instructions = w.measure - 1;
    assert!(!checker.record("other", Ok((&short, &out.telemetry)), w.measure));
    let mut skewed = out.stats.clone();
    skewed.cycles += 1;
    assert!(!checker.record("third", Ok((&skewed, &out.telemetry)), w.measure));
    assert_eq!(checker.failed, 3);
}
