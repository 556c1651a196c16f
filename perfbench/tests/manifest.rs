//! `BENCHMARK.json` and the benchmark agree, and a short run of every
//! workload is correct: the manifest lists exactly the benchmark's
//! workloads, an untraced run emits exactly the `end_to_end` metrics and a
//! traced run exactly the `per_layer` ones, with the listed units, and the
//! result line parses.

use obs::Json;
use perfbench::run::{json_line, run};
use perfbench::workload::WORKLOADS;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn entries(m: &Json, key: &str, field: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = m.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|e| {
            let s = |k: &str| {
                e.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (s("name"), s(field))
        })
        .collect()
}

#[test]
fn manifest_lists_the_benchmarks_workloads() {
    let listed: Vec<String> = entries(&manifest(), "workloads", "why")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(listed, ours);
}

#[test]
fn every_workload_emits_the_listed_metrics_and_is_correct() {
    let m = manifest();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let listed = entries(&m, key, "unit");
        for w in &WORKLOADS {
            let r = run(w, 7, 0, traced);
            assert!(r.correct(), "{} traced={traced}: {:?}", w.name, r.problems);
            assert_eq!(r.failed, 0);
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted, listed, "{} traced={traced}", w.name);
            let named: Vec<(String, &perfbench::run::Metric)> =
                r.metrics.iter().map(|m| (m.name.to_string(), m)).collect();
            let line = Json::parse(&json_line(r.correct(), r.attempted, r.failed, &named))
                .expect("result line parses");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert!(line.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
            if traced {
                let t = r.self_time.as_deref().expect("self-time table");
                assert!(t.contains("= point spans"), "{t}");
            }
        }
    }
}
