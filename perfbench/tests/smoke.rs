//! Self-test of the benchmark at minimum size: one MicroBench program per
//! analysis run and a sub-second `serve-mix`.

use blazer_benchmarks::{by_name, Benchmark, Expected};
use perfbench::{
    analysis, is_count, normalize, serve_mix, Outcome, Settings, END_TO_END, PER_LAYER,
};
use std::time::Duration;

fn settings(seed: u64, trace: bool) -> Settings {
    Settings { seed, seconds: Duration::from_millis(300), trace, spans_path: None }
}

fn program(name: &str) -> Benchmark {
    by_name(name).unwrap_or_else(|| panic!("no benchmark {name}"))
}

fn analysis_run(benches: &[Benchmark], seed: u64, trace: bool) -> Outcome {
    let mut out = analysis::run(benches, &settings(seed, trace));
    normalize(&mut out, trace);
    out
}

fn serve_run(hits: &[Benchmark], trace: bool) -> Outcome {
    let mut out = serve_mix::run(hits, &settings(7, trace)).expect("serve-mix runs");
    normalize(&mut out, trace);
    out
}

/// Every canonical metric is in the result line, by name and unit, in
/// canonical order.
fn assert_complete(out: &Outcome, canonical: &[(&str, &str)]) {
    let printed: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(printed, canonical);
    let line = out.json_line();
    for (name, unit) in canonical {
        assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing from {line}");
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing from {line}");
    }
}

#[test]
fn analysis_workload_prints_every_end_to_end_metric() {
    let out = analysis_run(&[program("sanity_unsafe")], 1, false);
    assert!(out.correct, "{:?}", out.notes);
    let passes = out.get("passes").expect("pass count").value;
    assert!(passes >= 1.0);
    assert_eq!((out.attempted, out.failed), (passes as u64, 0));
    assert_complete(&out, &END_TO_END);
    for m in &out.metrics {
        assert!(m.value > 0.0, "{} is {}", m.name, m.value);
    }
    // Reported beside the result line.
    for name in ["attack_s", "p50_us", "p99_us"] {
        assert!(out.get(name).is_some_and(|m| m.value > 0.0), "{name}");
    }
}

#[test]
fn traced_analysis_counts_repeat_across_seeds() {
    let benches = [program("sanity_safe"), program("sanity_unsafe")];
    let a = analysis_run(&benches, 1, true);
    let b = analysis_run(&benches, 2, true);
    assert!(a.correct && b.correct, "{:?} {:?}", a.notes, b.notes);
    assert_complete(&a, &PER_LAYER);
    let counts = |o: &Outcome| -> Vec<(&str, f64)> {
        o.metrics.iter().filter(|m| is_count(m.name)).map(|m| (m.name, m.value)).collect()
    };
    assert_eq!(counts(&a), counts(&b));
    let get = |name: &str| a.get(name).expect("metric").value;
    assert!(get("core.trails") > 0.0 && get("absint.fixpoint_passes") > 0.0);
    assert!(get("refine.partition_calls") > 0.0);
    assert_eq!(get("attack.witness_frac"), 1.0);
}

#[test]
fn a_wrong_expected_verdict_is_a_failure() {
    let mut wrong = program("sanity_safe");
    wrong.expected = Expected::Attack;
    let out = analysis_run(&[wrong, program("sanity_unsafe")], 1, false);
    assert!(!out.correct);
    // One failure per pass over the two programs.
    assert_eq!(out.attempted, 2 * out.failed);
    assert_eq!(out.failed_frac(), 0.5);
    let head = format!(
        "{{\"correct\": false, \"attempted\": {}, \"failed\": {},",
        out.attempted, out.failed
    );
    assert!(out.json_line().starts_with(&head));
}

#[test]
fn serve_mix_prints_every_metric_and_checks_replies() {
    let hits = [program("straightline_safe"), program("sanity_unsafe")];
    let out = serve_run(&hits, false);
    assert!(out.correct, "{:?}", out.notes);
    assert!(out.attempted >= serve_mix::PASS_REQUESTS as u64);
    assert_eq!(out.failed, 0);
    assert_complete(&out, &END_TO_END);

    let traced = serve_run(&hits, true);
    assert!(traced.correct, "{:?}", traced.notes);
    assert_complete(&traced, &PER_LAYER);
    let hit_rate = traced.get("serve.hit_rate").expect("hit rate").value;
    assert!((hit_rate - 0.9).abs() < 1e-9, "hit rate {hit_rate}");
    assert!(traced.get("serve.cache_get_s").expect("cache read").value > 0.0);

    let mut wrong = program("straightline_safe");
    wrong.expected = Expected::Attack;
    let out = serve_run(&[wrong], false);
    assert!(!out.correct);
    assert!(out.failed_frac() > 0.0);
}

#[test]
fn benchmark_json_lists_the_canonical_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = blazer_ir::json::Json::parse(&text).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(|v| v.as_str()).expect("name and unit").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), owned(&END_TO_END));
    assert_eq!(listed("per_layer"), owned(&PER_LAYER));
}
